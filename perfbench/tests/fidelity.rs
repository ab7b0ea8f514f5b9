//! The traced driver must reproduce `System::run_warmed` exactly, and its
//! self-time spans must partition its wall time.

use moca::classify::{classify_lut, AppThresholds, ClassifiedApp, Thresholds};
use moca::pipeline::PolicyKind;
use moca::profile::{profile_app, ProfileConfig};
use moca_common::ModuleKind;
use moca_perfbench::digest;
use moca_perfbench::driver::run_traced;
use moca_perfbench::machine::MachineSpec;
use moca_perfbench::spans::Layer;
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig};
use moca_sim::metrics::RunResult;
use moca_sim::system::System;
use moca_workloads::{app_by_name, InputSet};

const WARMUP: u64 = 20_000;
const TARGET: u64 = 30_000;
const SCALE: f64 = moca_workloads::spec::DEFAULT_FOOTPRINT_SCALE;

fn classified(apps: &[&str]) -> Vec<ClassifiedApp> {
    let cfg = ProfileConfig {
        warmup_instrs: 10_000,
        measure_instrs: 20_000,
        capacity_scale: SCALE,
    };
    apps.iter()
        .map(|&a| {
            let lut = profile_app(&app_by_name(a), InputSet::training(), &cfg);
            classify_lut(
                &lut,
                Thresholds::platform_default(),
                AppThresholds::default(),
            )
        })
        .collect()
}

fn spec(apps: &[&'static str], mem: MemSystemConfig, policy: PolicyKind) -> MachineSpec {
    MachineSpec::new(
        apps,
        mem,
        policy,
        &classified(apps),
        InputSet::reference(),
        SCALE,
    )
}

fn system_run(spec: &MachineSpec) -> RunResult {
    let mut sys = System::new(spec.cfg.clone(), spec.launches(), spec.policy_box());
    sys.run_warmed(WARMUP, TARGET)
}

fn assert_reproduces(spec: &MachineSpec) {
    let want = system_run(spec);
    let a = run_traced(spec, WARMUP, TARGET);
    let got = &a.result;
    assert_eq!(got.runtime_cycles, want.runtime_cycles, "runtime cycles");
    assert_eq!(got.per_core.len(), want.per_core.len());
    for (g, w) in got.per_core.iter().zip(&want.per_core) {
        assert_eq!(g.stats.committed, w.stats.committed, "{}: committed", w.app);
        assert_eq!(g.finished_at, w.finished_at, "{}: finished_at", w.app);
    }
    for (c, (g, w)) in got.mem.channels.iter().zip(&want.mem.channels).enumerate() {
        assert_eq!(g.stats.reads, w.stats.reads, "channel {c} reads");
        assert_eq!(g.stats.writes, w.stats.writes, "channel {c} writes");
    }
    assert_eq!(
        digest::of_run(got),
        digest::of_run(&want),
        "full result digest"
    );

    let b = run_traced(spec, WARMUP, TARGET);
    assert_eq!(
        a.counts, b.counts,
        "deterministic counts differ between traced runs"
    );
    assert!(a.counts.steps > 0 && a.counts.instrs > 0 && a.counts.dram_ticks > 0);

    let spans = &a.timing.spans;
    let layers = [
        Layer::Gen,
        Layer::Cpu,
        Layer::Vm,
        Layer::Cache,
        Layer::Dram,
        Layer::Wheel,
    ];
    let self_sum: u64 = layers.iter().map(|&l| spans.self_ns(l)).sum();
    assert_eq!(
        self_sum,
        spans.top_level_ns(),
        "self times partition the spans"
    );
    assert_eq!(
        self_sum + a.timing.loop_self_ns(),
        a.timing.wall_ns,
        "self times plus loop time make the wall time"
    );
}

#[test]
fn one_core_homogeneous() {
    assert_reproduces(&spec(
        &["mcf"],
        MemSystemConfig::Homogeneous(ModuleKind::Ddr3),
        PolicyKind::Homogeneous,
    ));
}

#[test]
fn four_core_config1_under_moca() {
    assert_reproduces(&spec(
        &["mcf", "lbm", "gcc", "sift"],
        MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1()),
        PolicyKind::Moca,
    ));
}

#[test]
fn one_core_under_heter_app() {
    assert_reproduces(&spec(
        &["lbm"],
        MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1()),
        PolicyKind::HeterApp,
    ));
}
