//! `moca-bench`: compare two `repro explain` reports.
//!
//! ```text
//! moca-bench diff BASELINE FRESH [--tolerance PCT]
//! ```
//!
//! `diff` compares two `repro explain` JSON reports (see
//! `moca_bench::diff`) and gates: exit 0 when clean, 1 on a simulated
//! runtime regression beyond the tolerance (default 10%), 2 on unusable
//! inputs — missing, malformed, unknown-schema, or empty reports are an
//! error rather than a silent pass.
//!
//! Host-time performance is measured by the separate `perfbench/` harness
//! (see `perfbench/README.md`), not by this binary.

#![forbid(unsafe_code)]

use moca_bench::diff;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: moca-bench diff BASELINE FRESH [--tolerance PCT]");
    std::process::exit(2);
}

fn diff_main(mut args: impl Iterator<Item = String>) -> ! {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut tolerance = 0.10;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tolerance" => {
                let v = args.next().unwrap_or_else(|| usage());
                match v.parse::<f64>() {
                    Ok(pct) if pct > 0.0 && pct < 100.0 => tolerance = pct / 100.0,
                    _ => {
                        eprintln!("moca-bench diff: --tolerance wants a percentage in (0, 100), got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            _ => files.push(PathBuf::from(a)),
        }
    }
    let [base, fresh] = files.as_slice() else {
        usage();
    };
    match diff::diff_files(base, fresh, tolerance) {
        Ok(d) => {
            println!(
                "moca-bench diff: {} vs {} (tolerance {:.0}%)",
                base.display(),
                fresh.display(),
                tolerance * 100.0
            );
            for line in &d.lines {
                println!("  {line}");
            }
            if d.regressions.is_empty() {
                println!("diff: clean");
                std::process::exit(0);
            }
            for r in &d.regressions {
                println!("diff: REGRESSION: {r}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("moca-bench diff: error: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("diff") => diff_main(args),
        _ => usage(),
    }
}
