//! `moca-lint` CLI.
//!
//! ```text
//! moca-lint [--deny] [--root PATH] [--baseline PATH]
//!           [--format text|sarif] [--prune-baseline]    lint the workspace
//! moca-lint check-model                                 validate timing presets & layout
//! ```
//!
//! Exit status: 0 when clean (or findings exist but `--deny` was not
//! passed), 1 when `--deny` saw unsuppressed findings, the baseline had
//! stale entries (without `--prune-baseline`), or a model check failed,
//! 2 on usage/IO errors.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: moca-lint [--deny] [--root PATH] [--baseline PATH] [--format text|sarif] [--prune-baseline]\n       moca-lint check-model"
    );
    ExitCode::from(2)
}

fn default_root() -> PathBuf {
    // The binary lives in crates/analysis; the workspace root is two up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn run_check_model() -> ExitCode {
    let checks = moca_lint::check_model();
    let mut failed = 0usize;
    for c in &checks {
        match &c.result {
            Ok(()) => println!("ok   {}", c.name),
            Err(e) => {
                failed += 1;
                println!("FAIL {}: {e}", c.name);
            }
        }
    }
    println!(
        "moca-lint check-model: {} checks, {} failed",
        checks.len(),
        failed
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check-model") {
        if args.len() != 1 {
            return usage();
        }
        return run_check_model();
    }

    let mut deny = false;
    let mut sarif = false;
    let mut prune = false;
    let mut root = default_root();
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--prune-baseline" => prune = true,
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => sarif = false,
                Some("sarif") => sarif = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.txt"));
    let baseline = moca_lint::load_baseline(&baseline_path);

    let findings = match moca_lint::scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("moca-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    // Stale baseline entries (suppressions whose finding no longer exists)
    // are an error: the baseline must only shrink. `--prune-baseline`
    // rewrites the file instead of failing.
    let stale: BTreeSet<String> = moca_lint::stale_baseline_keys(&findings, &baseline)
        .into_iter()
        .collect();
    let mut stale_failed = false;
    if !stale.is_empty() {
        if prune {
            match moca_lint::prune_baseline_file(&baseline_path, &stale) {
                Ok(n) => eprintln!(
                    "moca-lint: pruned {n} stale entr{} from {}",
                    if n == 1 { "y" } else { "ies" },
                    baseline_path.display()
                ),
                Err(e) => {
                    eprintln!("moca-lint: cannot rewrite {}: {e}", baseline_path.display());
                    return ExitCode::from(2);
                }
            }
        } else {
            for k in &stale {
                eprintln!("moca-lint: stale baseline entry (finding fixed — remove it): {k}");
            }
            stale_failed = true;
        }
    }

    let (active, baselined) = moca_lint::apply_baseline(findings, &baseline);

    if sarif {
        print!(
            "{}",
            moca_lint::to_sarif(&active, env!("CARGO_PKG_VERSION"))
        );
    } else {
        for f in &active {
            println!("{f}");
        }
        println!(
            "moca-lint: {} finding(s), {} baselined",
            active.len(),
            baselined.len()
        );
    }
    if stale_failed || (deny && !active.is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
