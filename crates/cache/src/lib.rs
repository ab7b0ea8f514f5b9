//! Cache substrate: set-associative write-back caches and MSHR files.
//!
//! Reproduces the on-chip cache hierarchy of Table I:
//!
//! * split 64 KB / 2-way / 2-cycle L1 I and D caches with 4 MSHRs,
//! * unified 512 KB / 16-way / 20-cycle L2 with 20 MSHRs,
//! * 64 B lines throughout, write-back + write-allocate, true LRU.
//!
//! The composition of the two levels into a core-private hierarchy (miss
//! paths, writebacks, DRAM hand-off) lives in `moca-sim`; this crate provides
//! the building blocks and keeps them independently testable.

#![forbid(unsafe_code)]

pub mod mshr;
pub mod set_assoc;

pub use mshr::MshrFile;
pub use set_assoc::{CacheConfig, CacheStats, SetAssocCache, Victim};
