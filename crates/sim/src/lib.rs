//! Full-system simulator.
//!
//! Composes the substrate crates into the machine of Table I: one or four
//! 1 GHz out-of-order cores, each with private split L1 caches and a private
//! unified L2, above four memory channels populated according to a
//! [`MemSystemConfig`] — either four identical modules (the homogeneous
//! baselines) or the paper's heterogeneous mix of RLDRAM3 + HBM + 2×LPDDR2.
//!
//! Page placement is delegated to a [`moca_vm::PagePlacementPolicy`]; the
//! policies themselves (MOCA, Heter-App, homogeneous) live in the `moca`
//! crate. The simulator reports the paper's metrics: total memory access
//! time (queue + service summed over DRAM reads), integrated memory energy
//! and EDP, and system-level performance/EDP with a calibrated core-power
//! model (§V-A: 21 W average for the four-core system).

#![forbid(unsafe_code)]

pub mod config;
pub mod hierarchy;
pub mod metrics;
pub mod migration;
pub mod os;
pub mod system;

pub use config::{HeterogeneousLayout, MemSystemConfig, SystemConfig};
pub use hierarchy::CoreHierarchy;
pub use metrics::{CoreResult, MemMetrics, PlacementReport, RunResult};
pub use migration::{MigrationConfig, MigrationStats, Migrator};
pub use os::Os;
pub use system::System;
