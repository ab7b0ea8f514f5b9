//! One evaluation's machine: configuration, launches and placement policy,
//! built the way `moca::pipeline::Pipeline::evaluate` builds them, but from
//! inputs the benchmark chooses (the workload seed reaches every
//! [`InputSet`]).

use moca::classify::ClassifiedApp;
use moca::pipeline::PolicyKind;
use moca::policy::{HeterAppPolicy, HomogeneousPolicy, MocaPolicy};
use moca_common::ObjectClass;
use moca_sim::config::{MemSystemConfig, SystemConfig};
use moca_sim::system::AppLaunch;
use moca_vm::PagePlacementPolicy;
use moca_workloads::{app_by_name, InputSet};

/// Everything needed to build one evaluated machine, twice if need be (once
/// as a `System`, once under the traced driver).
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Machine configuration (one core per app).
    pub cfg: SystemConfig,
    /// App name per core.
    pub apps: Vec<&'static str>,
    /// Evaluation input (the reference input, reseeded).
    pub input: InputSet,
    /// Per-core heap partition per object (typed heap under MOCA only).
    pub object_classes: Vec<Vec<ObjectClass>>,
    /// Per-core application class (what Heter-App places by).
    pub app_classes: Vec<ObjectClass>,
    /// Placement policy.
    pub policy: PolicyKind,
}

impl MachineSpec {
    /// The machine `Pipeline::evaluate` would build for `apps` on `mem`
    /// under `policy`, with `classified` holding the offline classification
    /// of every app and `input` as the evaluation input.
    pub fn new(
        apps: &[&'static str],
        mem: MemSystemConfig,
        policy: PolicyKind,
        classified: &[ClassifiedApp],
        input: InputSet,
        capacity_scale: f64,
    ) -> MachineSpec {
        let class_of = |app: &str| {
            classified
                .iter()
                .find(|c| c.app == app)
                .unwrap_or_else(|| panic!("{app} was not classified"))
        };
        let object_classes = apps
            .iter()
            .map(|&a| match policy {
                PolicyKind::Moca => class_of(a).object_classes.clone(),
                _ => vec![ObjectClass::NonIntensive; app_by_name(a).objects.len()],
            })
            .collect();
        MachineSpec {
            cfg: SystemConfig {
                cores: apps.len(),
                capacity_scale,
                ..SystemConfig::single_core(mem)
            },
            apps: apps.to_vec(),
            input,
            object_classes,
            app_classes: apps.iter().map(|&a| class_of(a).app_class).collect(),
            policy,
        }
    }

    /// One launch per core.
    pub fn launches(&self) -> Vec<AppLaunch> {
        self.apps
            .iter()
            .zip(&self.object_classes)
            .map(|(&a, classes)| AppLaunch {
                spec: app_by_name(a),
                input: self.input,
                object_classes: classes.clone(),
            })
            .collect()
    }

    /// A fresh placement policy. Dynamic migration is not benchmarked: it
    /// needs the migration engine, which the traced driver does not model.
    pub fn policy_box(&self) -> Box<dyn PagePlacementPolicy> {
        match self.policy {
            PolicyKind::Moca => Box::new(MocaPolicy),
            PolicyKind::HeterApp => Box::new(HeterAppPolicy::new(self.app_classes.clone())),
            PolicyKind::Homogeneous => Box::new(HomogeneousPolicy),
            PolicyKind::Migration => panic!("the benchmark does not evaluate page migration"),
        }
    }
}
