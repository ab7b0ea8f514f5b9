//! Cross-crate integration tests: the full profile → classify → allocate
//! pipeline on real workloads, checking the paper's directional results.

use moca::pipeline::{Pipeline, PolicyKind};
use moca_common::{ModuleKind, ObjectClass};
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig};

fn heter() -> MemSystemConfig {
    MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1())
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let run = || {
        let mut p = Pipeline::quick();
        let r = p.evaluate(&["mcf", "lbm"], heter(), PolicyKind::Moca);
        (
            r.runtime_cycles,
            r.mem.reads,
            r.mem.total_read_latency_cycles,
            r.per_core[0].stats.committed,
            r.placement.total_pages(),
        )
    };
    assert_eq!(run(), run(), "identical seeds must give identical results");
}

#[test]
fn homogeneous_systems_order_as_expected() {
    // §VI-A: Homogen-RL has the lowest access time, Homogen-LP the worst
    // performance but lower energy than RL.
    let mut p = Pipeline::quick();
    let mut results = Vec::new();
    for kind in [ModuleKind::Rldram3, ModuleKind::Ddr3, ModuleKind::Lpddr2] {
        let r = p.evaluate(
            &["mcf"],
            MemSystemConfig::Homogeneous(kind),
            PolicyKind::Homogeneous,
        );
        results.push((kind, r));
    }
    let time = |i: usize| results[i].1.mem.total_read_latency_cycles;
    assert!(time(0) < time(1), "RLDRAM should beat DDR3 on access time");
    assert!(time(1) < time(2), "DDR3 should beat LPDDR2 on access time");
    let energy = |i: usize| results[i].1.mem.energy_j();
    assert!(
        energy(2) < energy(0),
        "LPDDR2 must consume less memory energy than RLDRAM"
    );
}

#[test]
fn moca_beats_heter_app_on_memory_for_latency_app() {
    // The §VI-A disparity story: Heter-App fills RLDRAM first-come, MOCA
    // reserves it for the latency-critical object.
    let mut p = Pipeline::quick();
    let ha = p.evaluate(&["disparity"], heter(), PolicyKind::HeterApp);
    let mo = p.evaluate(&["disparity"], heter(), PolicyKind::Moca);
    assert!(
        mo.mem.total_read_latency_cycles < ha.mem.total_read_latency_cycles,
        "MOCA {} vs Heter-App {}",
        mo.mem.total_read_latency_cycles,
        ha.mem.total_read_latency_cycles
    );
}

#[test]
fn moca_saves_memory_energy_for_quiet_heavy_mix() {
    // Heter-App sends every page of an L-app to RLDRAM/HBM; MOCA keeps the
    // quiet objects in LPDDR2, saving energy (§VI-B).
    let mut p = Pipeline::quick();
    let apps = ["milc", "gcc"];
    let ha = p.evaluate(&apps, heter(), PolicyKind::HeterApp);
    let mo = p.evaluate(&apps, heter(), PolicyKind::Moca);
    assert!(
        mo.mem.edp() < ha.mem.edp(),
        "MOCA EDP {:.3e} vs Heter-App {:.3e}",
        mo.mem.edp(),
        ha.mem.edp()
    );
}

#[test]
fn moca_reserves_rldram_for_latency_objects() {
    let mut p = Pipeline::quick();
    let r = p.evaluate(&["mcf"], heter(), PolicyKind::Moca);
    let app = moca_common::AppId(0);
    // RLDRAM holds latency-class pages only (other classes never prefer it
    // while HBM/LPDDR2 still have room, which they do for one app).
    let lat_on_rl = r.placement.pages_of_class(
        app,
        Some(ObjectClass::LatencySensitive),
        ModuleKind::Rldram3,
    );
    let bw_on_rl = r.placement.pages_of_class(
        app,
        Some(ObjectClass::BandwidthSensitive),
        ModuleKind::Rldram3,
    );
    let pow_on_rl =
        r.placement
            .pages_of_class(app, Some(ObjectClass::NonIntensive), ModuleKind::Rldram3);
    assert!(lat_on_rl > 0, "latency objects should reach RLDRAM");
    assert_eq!(bw_on_rl, 0);
    assert_eq!(pow_on_rl, 0);
}

#[test]
fn capacity_pressure_triggers_fallback_allocation() {
    // mcf's latency objects exceed the 4 MiB (scaled) RLDRAM module; the
    // overflow must land on the next-best module, not fail.
    let mut p = Pipeline::quick();
    let r = p.evaluate(&["mcf"], heter(), PolicyKind::Moca);
    let app = moca_common::AppId(0);
    let lat_rl = r.placement.pages_of_class(
        app,
        Some(ObjectClass::LatencySensitive),
        ModuleKind::Rldram3,
    );
    let lat_hbm =
        r.placement
            .pages_of_class(app, Some(ObjectClass::LatencySensitive), ModuleKind::Hbm);
    assert!(lat_rl > 0);
    assert!(
        lat_hbm > 0,
        "latency overflow should fall back to HBM (RL={lat_rl}, HBM={lat_hbm})"
    );
    // RLDRAM is fully used before falling back.
    let rl_frames = 256 * 1024 * 1024 / 64 / 4096; // 256 MiB / 64 scale / page
    assert!(
        lat_rl >= rl_frames - 1,
        "RLDRAM should be (nearly) full: {lat_rl} of {rl_frames}"
    );
}

#[test]
fn multicore_run_produces_consistent_metrics() {
    let mut p = Pipeline::quick();
    let r = p.evaluate(&["mcf", "lbm", "gcc", "sift"], heter(), PolicyKind::Moca);
    assert_eq!(r.per_core.len(), 4);
    // Every core reached the instruction target.
    for c in &r.per_core {
        assert!(c.stats.committed >= 150_000, "{} short run", c.app);
        assert!(c.finished_at <= r.runtime_cycles);
    }
    // Latency sums are attributed per core and total to the global sum.
    let per_core_sum: u64 = r.mem.per_core_read_latency.iter().sum();
    assert_eq!(per_core_sum, r.mem.total_read_latency_cycles);
    // Energy is positive and dominated by standby+active, not NaN.
    assert!(r.mem.energy_j() > 0.0);
    assert!(r.system_edp() > 0.0);
    assert!(r.avg_core_power_w() > 5.0 && r.avg_core_power_w() < 30.0);
}

#[test]
fn training_vs_reference_inputs_change_behaviour_not_classes() {
    // The profiling-based approach relies on classes being stable across
    // inputs (§III). Profile with both inputs and compare classification.
    use moca::classify::{classify_lut, AppThresholds, Thresholds};
    use moca::profile::{profile_app, ProfileConfig};
    use moca_workloads::{app_by_name, InputSet};
    for app in ["mcf", "lbm", "gcc"] {
        let spec = app_by_name(app);
        let train = profile_app(&spec, InputSet::training(), &ProfileConfig::quick());
        let reference = profile_app(&spec, InputSet::reference(), &ProfileConfig::quick());
        let ct = classify_lut(&train, Thresholds::default(), AppThresholds::default());
        let cr = classify_lut(&reference, Thresholds::default(), AppThresholds::default());
        assert_eq!(
            ct.object_classes, cr.object_classes,
            "{app}: classes must be input-stable"
        );
        // But the raw statistics differ (different seeds).
        assert_ne!(
            train.objects[0].llc_misses, reference.objects[0].llc_misses,
            "{app}: inputs should not be identical"
        );
    }
}

#[test]
fn migration_baseline_promotes_hot_pages() {
    // The §IV-E counterpoint: a runtime monitor starting cold in LPDDR2
    // must discover and promote the hot pages MOCA placed correctly from
    // its offline profile.
    let mut p = Pipeline::quick();
    let r = p.evaluate(&["disparity"], heter(), PolicyKind::Migration);
    let stats = r.migration.expect("migration enabled");
    assert!(stats.epochs >= 2, "epochs {}", stats.epochs);
    assert!(stats.promotions > 0, "no pages promoted");
    // Migration must pay real costs: invalidations produce writebacks.
    assert!(stats.dirty_writebacks > 0);
    // And it still runs correctly to completion.
    assert!(r.per_core[0].stats.committed >= 150_000);
}

#[test]
fn migration_is_deterministic() {
    let run = || {
        let mut p = Pipeline::quick();
        let r = p.evaluate(&["mcf"], heter(), PolicyKind::Migration);
        let m = r.migration.unwrap();
        (
            r.runtime_cycles,
            m.promotions,
            m.demotions,
            m.dirty_writebacks,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn moca_needs_no_migration_machinery() {
    let mut p = Pipeline::quick();
    let r = p.evaluate(&["disparity"], heter(), PolicyKind::Moca);
    assert!(r.migration.is_none(), "MOCA is allocation-only (§IV-E)");
}

/// `repro` rejects an argument that is neither a known flag nor a known
/// target with the usage text and exit 2, instead of treating it as a
/// target that matches nothing. That covers misspelt targets and flags
/// the binary does not have (with their values), in `repro explain` too.
#[test]
fn repro_rejects_unknown_arguments() {
    let dir = std::env::temp_dir().join(format!("moca-repro-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_dir = dir.to_str().expect("temp dir path is UTF-8");
    for args in [
        vec!["--out", out_dir, "fgi8"],
        vec!["--out", out_dir, "--step-threads", "2", "table1"],
        vec!["explain", "--out", out_dir, "--step-threads", "2"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&dir)
            .args(&args)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("targets: table1"),
            "repro {args:?} must print the target list: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `--out`, `repro --quick` writes under `results/quick/` and leaves
/// the committed `results/` to Full runs.
#[test]
fn repro_quick_output_defaults_to_results_quick() {
    let dir = std::env::temp_dir().join(format!("moca-repro-quick-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let repro = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "repro {args:?} failed");
    };
    repro(&["--quick", "--quiet", "table1"]);
    assert!(dir.join("results/quick/table1.json").is_file());
    assert!(!dir.join("results/table1.json").exists());
    repro(&["--quiet", "table1"]);
    assert!(dir.join("results/table1.json").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `moca-bench diff` on a pathologically nested file (100 000 `[`, deep
/// enough to overflow the stack of a recursive parser without a nesting
/// limit and abort the process) exits 2 with a parse error, like any other
/// malformed input.
#[test]
fn moca_bench_diff_rejects_deeply_nested_input() {
    let dir = std::env::temp_dir().join(format!("moca-diff-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(100_000)).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_moca-bench"))
        .args(["diff"])
        .args([&deep, &deep])
        .output()
        .expect("moca-bench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("nesting deeper than 128 at byte 128"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
