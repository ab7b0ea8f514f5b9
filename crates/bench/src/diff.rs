//! `moca-bench diff`: compare two `repro explain` JSON reports
//! (`moca-explain/v1`) with a tolerance.
//!
//! Compares simulated runtime cycles and the per-core CPI-stack buckets; a
//! runtime increase of at least the tolerance is a regression (simulated
//! cycles are deterministic, so any change at all is worth a line in the
//! table).
//!
//! Malformed, missing, schema-less, unknown-schema, or *empty* inputs are
//! hard errors, not silent passes: a truncated baseline must never
//! green-light a regression.

use crate::explain::{ExplainReport, EXPLAIN_SCHEMA};
use std::path::Path;

/// Outcome of a diff: rendered table lines plus the regression verdicts.
#[derive(Debug, Clone, Default)]
pub struct DiffResult {
    /// Human-readable comparison lines, one per compared quantity.
    pub lines: Vec<String>,
    /// Regressed quantities (empty = pass).
    pub regressions: Vec<String>,
}

/// `now` exceeds `base` by at least `tolerance` (a fraction): measured
/// relative to `now`, that is a drop of `tolerance / (1 + tolerance)`. A
/// whisker of float slack lets a synthetic exactly-at-threshold regression
/// trip the gate.
fn grows_at_least(base: f64, now: f64, tolerance: f64) -> bool {
    now > 0.0 && (now - base) / now >= tolerance / (1.0 + tolerance) - 1e-12
}

fn read_report(path: &Path) -> Result<(String, String), String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let v = serde_json::parse(&body)
        .map_err(|e| format!("{}: unparseable JSON: {e}", path.display()))?;
    let schema = v
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or_else(|| format!("{}: no \"schema\" tag — not a moca report", path.display()))?
        .to_string();
    Ok((schema, body))
}

/// Diff two report files. `tolerance` is a fraction (0.10 = 10%). `Err` is
/// an input problem (missing/unparseable/empty/mismatched files) — callers
/// should treat it as a distinct exit status from a regression verdict.
pub fn diff_files(base: &Path, fresh: &Path, tolerance: f64) -> Result<DiffResult, String> {
    let (schema_a, body_a) = read_report(base)?;
    let (schema_b, body_b) = read_report(fresh)?;
    if schema_a != schema_b {
        return Err(format!(
            "schema mismatch: {} is {schema_a}, {} is {schema_b}",
            base.display(),
            fresh.display()
        ));
    }
    if schema_a != EXPLAIN_SCHEMA {
        return Err(format!("unsupported report schema {schema_a:?}"));
    }
    let a: ExplainReport = serde_json::from_str(&body_a)
        .map_err(|e| format!("{}: bad explain report: {e}", base.display()))?;
    let b: ExplainReport = serde_json::from_str(&body_b)
        .map_err(|e| format!("{}: bad explain report: {e}", fresh.display()))?;
    diff_explain(base, fresh, &a, &b, tolerance)
}

fn diff_explain(
    base: &Path,
    fresh: &Path,
    a: &ExplainReport,
    b: &ExplainReport,
    tolerance: f64,
) -> Result<DiffResult, String> {
    for (path, r) in [(base, a), (fresh, b)] {
        if r.per_core.is_empty() {
            return Err(format!(
                "{}: explain report has no cores — refusing to compare",
                path.display()
            ));
        }
    }
    let mut out = DiffResult::default();
    let delta = if a.runtime_cycles > 0 {
        (b.runtime_cycles as f64 / a.runtime_cycles as f64 - 1.0) * 100.0
    } else {
        0.0
    };
    let regressed = grows_at_least(a.runtime_cycles as f64, b.runtime_cycles as f64, tolerance);
    out.lines.push(format!(
        "runtime_cycles {} -> {} ({:+.2}%){}",
        a.runtime_cycles,
        b.runtime_cycles,
        delta,
        if regressed { "  REGRESSION" } else { "" }
    ));
    if regressed {
        out.regressions.push("runtime_cycles".to_string());
    }
    for (ca, cb) in a.per_core.iter().zip(b.per_core.iter()) {
        if ca.app != cb.app {
            out.lines.push(format!(
                "core {}: app changed {} -> {} — bucket deltas skipped",
                ca.core, ca.app, cb.app
            ));
            continue;
        }
        for ((name, va), (_, vb)) in ca.buckets.entries().into_iter().zip(cb.buckets.entries()) {
            if va != vb {
                out.lines
                    .push(format!("core {} {:<15} {} -> {}", ca.core, name, va, vb));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn write_tmp(name: &str, body: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("moca_bench_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, body).unwrap();
        p
    }

    fn explain(cycles: u64, load_miss: u64) -> ExplainReport {
        ExplainReport {
            schema: EXPLAIN_SCHEMA.into(),
            target: "mcf-ddr3".into(),
            mem_label: "Homogen-DDR3".into(),
            policy: "Homogen".into(),
            scale: "quick".into(),
            runtime_cycles: cycles,
            per_core: vec![crate::explain::CoreExplain {
                core: 0,
                app: "mcf".into(),
                committed: 1000,
                cycles,
                ipc: 0.5,
                buckets: moca_telemetry::attribution::CycleBuckets {
                    committing: cycles - load_miss,
                    load_miss,
                    ..Default::default()
                },
                tiers: vec![],
                segments: vec![],
                objects: vec![],
                objects_omitted: 0,
            }],
            occupancy: vec![],
        }
    }

    fn save(name: &str, r: &ExplainReport) -> PathBuf {
        write_tmp(name, &serde_json::to_string_pretty(r).unwrap())
    }

    #[test]
    fn missing_malformed_and_empty_reports_error() {
        let ok = save("eb_ok.json", &explain(1000, 400));
        let empty = save(
            "eb_empty.json",
            &ExplainReport {
                per_core: vec![],
                ..explain(1000, 400)
            },
        );
        assert!(diff_files(&ok, &empty, 0.10).is_err());
        assert!(diff_files(&empty, &ok, 0.10).is_err());

        let missing = PathBuf::from("/nonexistent/nope.json");
        assert!(diff_files(&missing, &ok, 0.10).is_err());
        assert!(diff_files(&ok, &missing, 0.10).is_err());

        let garbage = write_tmp("eb_garbage.json", "not json {");
        assert!(diff_files(&garbage, &ok, 0.10).is_err());
        assert!(diff_files(&ok, &garbage, 0.10).is_err());

        let deep = write_tmp("eb_deep.json", &"[".repeat(100_000));
        let e = diff_files(&ok, &deep, 0.10).unwrap_err();
        assert!(e.contains("nesting deeper than 128"), "{e}");

        let schemaless = write_tmp("eb_schemaless.json", "{\"per_core\": []}");
        assert!(diff_files(&schemaless, &ok, 0.10).is_err());

        // A well-formed report of a schema diff does not understand is an
        // error on its own and a schema mismatch against an explain report.
        let unknown = write_tmp(
            "eb_unknown.json",
            "{\"schema\": \"moca-unknown/v1\", \"entries\": []}",
        );
        assert!(diff_files(&unknown, &unknown, 0.10).is_err());
        assert!(diff_files(&ok, &unknown, 0.10).is_err());
        assert!(diff_files(&unknown, &ok, 0.10).is_err());

        // The explain schema tag on a body that is not an explain report.
        let hollow = write_tmp(
            "eb_hollow.json",
            &format!("{{\"schema\": \"{EXPLAIN_SCHEMA}\"}}"),
        );
        assert!(diff_files(&ok, &hollow, 0.10).is_err());
    }

    #[test]
    fn explain_runtime_growth_gates_and_buckets_are_reported() {
        let a = save("ex_a.json", &explain(1000, 400));
        let same = save("ex_same.json", &explain(1000, 400));
        let d = diff_files(&a, &same, 0.10).unwrap();
        assert!(d.regressions.is_empty());

        let slower = save("ex_slower.json", &explain(1100, 500));
        let d = diff_files(&a, &slower, 0.10).unwrap();
        assert_eq!(d.regressions, vec!["runtime_cycles".to_string()]);
        assert!(
            d.lines.iter().any(|l| l.contains("load_miss")),
            "bucket delta should be reported: {:?}",
            d.lines
        );

        // 5% growth stays under a 10% tolerance, but is still reported.
        let bit_slower = save("ex_bit_slower.json", &explain(1050, 450));
        let d = diff_files(&a, &bit_slower, 0.10).unwrap();
        assert!(d.regressions.is_empty(), "{:?}", d.lines);
        assert!(d.lines.iter().any(|l| l.contains("load_miss")));
    }
}
