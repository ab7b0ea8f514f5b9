//! DRAM subsystem: device timing models, banks, FR-FCFS channel controllers,
//! address mapping, and energy accounting.
//!
//! This crate is the reproduction of the memory-device layer the paper gets
//! from gem5's DRAM controller plus the Micron power calculators. Each of the
//! four technologies of Table II (DDR3-1866, LPDDR2-1066, RLDRAM3, HBM) is a
//! [`DeviceTiming`] preset; a [`Channel`] owns the banks and queues of one
//! memory channel and schedules commands with the FR-FCFS policy the paper
//! configures (Table I: "4 channels, FR-FCFS scheduling").
//!
//! # Timing model
//!
//! One simulated cycle is 1 ns (the 1 GHz core clock). Device parameters are
//! converted with ceiling rounding. A read that misses the open row pays
//! `tRP + tRCD + tCL` before its data burst; a row hit pays only `tCL`;
//! consecutive activates to one bank are separated by `tRC` and a precharge
//! may not happen before `tRAS` has elapsed. Refresh blocks the whole channel
//! for `tRFC` every `tREFI`.
//!
//! Devices whose row buffer is smaller than a 64 B cache line (RLDRAM3's is
//! 16 B) fetch a line with several sub-accesses striped over consecutive
//! banks; this never produces row hits and multiplies activate energy — the
//! mechanism that makes RLDRAM fast but power-hungry, exactly the trade-off
//! the paper exploits.
//!
//! # Power model
//!
//! Energy is integrated per channel as
//! `standby(W/GB)·capacity·T + active(W/GB)·capacity·T_busy + E_act·activates`
//! using the Table II coefficients (see [`timing`] for the reconstruction
//! notes on the power rows).

#![forbid(unsafe_code)]

pub mod channel;
pub mod mapping;
pub mod power;
pub mod timing;

pub use channel::{Channel, ChannelConfig, ChannelStats, Completion, MemRequest};
pub use mapping::{AddressMapper, DecodedAddr};
pub use power::{EnergyBreakdown, PowerCoefficients};
pub use timing::DeviceTiming;
