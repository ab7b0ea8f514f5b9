//! Shared experiment plumbing: run-length scales, the memory systems under
//! comparison, and a seeded pipeline that profiles each benchmark once.

use moca::pipeline::{Pipeline, PolicyKind};
use moca::profile::{profile_app, ProfileConfig};
use moca_common::par::{parallel_map, parallel_map_owned};
use moca_common::ModuleKind;
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig};
use moca_sim::metrics::RunResult;
use moca_workloads::{app_by_name, suite, InputSet};
use std::path::PathBuf;

/// Experiment run-length scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test lengths (seconds per figure; noisy).
    Quick,
    /// Paper-reproduction lengths (minutes for the full set on one core).
    Full,
}

impl Scale {
    /// Build a pipeline at this scale.
    pub fn pipeline(self) -> Pipeline {
        match self {
            Scale::Quick => Pipeline::quick(),
            Scale::Full => Pipeline::new(),
        }
    }

    /// Default output directory of `repro` at this scale. Quick output goes
    /// to `results/quick/`, so only Full runs land in the committed
    /// `results/`.
    pub fn results_dir(self) -> PathBuf {
        match self {
            Scale::Quick => PathBuf::from("results/quick"),
            Scale::Full => PathBuf::from("results"),
        }
    }
}

/// The six memory systems of Figs. 8–13, in the paper's legend order.
pub fn systems_under_test() -> Vec<(String, MemSystemConfig, PolicyKind)> {
    let heter = MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1());
    vec![
        (
            "Homogen-DDR3".into(),
            MemSystemConfig::Homogeneous(ModuleKind::Ddr3),
            PolicyKind::Homogeneous,
        ),
        (
            "Homogen-LP".into(),
            MemSystemConfig::Homogeneous(ModuleKind::Lpddr2),
            PolicyKind::Homogeneous,
        ),
        (
            "Homogen-RL".into(),
            MemSystemConfig::Homogeneous(ModuleKind::Rldram3),
            PolicyKind::Homogeneous,
        ),
        (
            "Homogen-HBM".into(),
            MemSystemConfig::Homogeneous(ModuleKind::Hbm),
            PolicyKind::Homogeneous,
        ),
        ("Heter-App".into(), heter, PolicyKind::HeterApp),
        ("MOCA".into(), heter, PolicyKind::Moca),
    ]
}

/// A pipeline pre-seeded with profiles for every suite benchmark (profiled
/// in parallel when worker threads are available).
pub struct SeededPipeline {
    /// The underlying pipeline, ready for `evaluate` calls.
    pub pipeline: Pipeline,
}

impl SeededPipeline {
    /// Profile the whole suite at `scale` and the default footprint scale
    /// (1/64).
    pub fn new(scale: Scale) -> SeededPipeline {
        SeededPipeline::new_scaled(scale, moca_workloads::spec::DEFAULT_FOOTPRINT_SCALE)
    }

    /// Profile the whole suite at `scale` with an explicit
    /// footprint/capacity scale in `(0, 1]` — `1.0` runs paper-sized
    /// footprints on full-capacity machines (the regime the bitmap frame
    /// allocator exists for).
    pub fn new_scaled(scale: Scale, capacity_scale: f64) -> SeededPipeline {
        assert!(
            capacity_scale > 0.0 && capacity_scale <= 1.0,
            "capacity scale {capacity_scale} outside (0, 1]"
        );
        let mut pipeline = scale.pipeline();
        pipeline.profile_cfg.capacity_scale = capacity_scale;
        let cfg: ProfileConfig = pipeline.profile_cfg;
        let luts = parallel_map(&suite(), |spec| {
            profile_app(spec, InputSet::training(), &cfg)
        });
        for lut in luts {
            pipeline.insert_profile(lut);
        }
        SeededPipeline { pipeline }
    }

    /// Evaluate one workload on one system. Clones the seeded pipeline so
    /// callers can fan evaluations out across threads.
    pub fn evaluate(&self, apps: &[&str], mem: MemSystemConfig, policy: PolicyKind) -> RunResult {
        let mut p = self.pipeline.clone();
        p.evaluate(apps, mem, policy)
    }

    /// Evaluate many (label, apps, mem, policy) jobs in parallel.
    pub fn evaluate_all(
        &self,
        jobs: Vec<(String, Vec<&str>, MemSystemConfig, PolicyKind)>,
    ) -> Vec<(String, RunResult)> {
        parallel_map_owned(jobs, |(label, apps, mem, policy)| {
            let r = self.evaluate(&apps, mem, policy);
            (label, r)
        })
    }
}

/// All suite benchmark names in Table III order.
pub fn suite_names() -> Vec<&'static str> {
    suite().iter().map(|a| a.name).collect()
}

/// Sanity helper used by experiments: the app's expected class letter.
pub fn expected_letter(app: &str) -> char {
    app_by_name(app).expected_class.letter()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_systems_in_legend_order() {
        let s = systems_under_test();
        assert_eq!(s.len(), 6);
        assert_eq!(s[0].0, "Homogen-DDR3");
        assert_eq!(s[5].0, "MOCA");
        assert!(matches!(s[5].2, PolicyKind::Moca));
    }

    #[test]
    fn quick_output_stays_out_of_committed_results() {
        assert_eq!(Scale::Full.results_dir(), PathBuf::from("results"));
        assert_eq!(Scale::Quick.results_dir(), PathBuf::from("results/quick"));
    }

    #[test]
    fn suite_names_count() {
        assert_eq!(suite_names().len(), 10);
        assert_eq!(expected_letter("mcf"), 'L');
        assert_eq!(expected_letter("lbm"), 'B');
        assert_eq!(expected_letter("gcc"), 'N');
    }
}
