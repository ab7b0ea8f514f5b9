//! Synthetic workload suite.
//!
//! The paper profiles and evaluates C applications from SPEC CPU2006 and the
//! San Diego Vision Benchmark Suite. Running those binaries requires an x86
//! full-system simulator and the benchmark inputs; what MOCA actually
//! consumes from them is much narrower — the *shape* of each heap object's
//! memory behaviour:
//!
//! * how intensely the object misses the LLC (→ LLC MPKI),
//! * whether its loads are address-dependent (pointer chasing destroys
//!   memory-level parallelism → high ROB-head stalls) or independent
//!   (streaming hides latency → low stalls),
//! * how big the object is relative to the memory modules.
//!
//! This crate reproduces those shapes synthetically: each of the ten paper
//! benchmarks (`mcf`, `milc`, `libquantum`, `disparity`, `mser`, `lbm`,
//! `tracking`, `gcc`, `sift`, `stitch`) is an [`AppSpec`] — a set of named
//! heap objects with per-object [`Pattern`]s calibrated so the app-level
//! classification matches Table III and the object-level diversity matches
//! Fig. 2. Training and reference inputs (§V-D) are different seeds and
//! footprint scales of the same generator.
//!
//! Object *sizes* are specified at the paper's nominal scale (2 GB machine)
//! and scaled down together with the module capacities, preserving the
//! footprint:capacity ratios that drive the paper's allocation-contention
//! results.

#![forbid(unsafe_code)]

pub mod gen;
pub mod sets;
pub mod spec;
pub mod suite;

pub use gen::AppRun;
pub use sets::{config_sweep_sets, multiprogram_sets, WorkloadSet};
pub use spec::{AppSpec, InputSet, ObjectSpec, Pattern};
pub use suite::{app_by_name, suite};
