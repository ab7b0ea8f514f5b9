//! Benchmark of the MOCA simulator: end-to-end metrics from untraced runs of
//! the real `System` path, and a per-layer host-time split from a traced
//! driver that rebuilds the step loop from the layers' public APIs. See
//! `README.md` for the workloads and metrics.

pub mod digest;
pub mod driver;
pub mod machine;
pub mod spans;
pub mod workloads;
