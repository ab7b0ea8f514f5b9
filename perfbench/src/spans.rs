//! Self-time spans recorded from outside the simulator.
//!
//! Every call the traced driver makes into a simulator layer runs inside
//! [`Spans::span`]. A span's *self* time is its duration minus the time
//! covered by the spans it encloses (a core tick encloses the instruction
//! generator and the memory port), so the layer self times plus the driver
//! loop's own time sum exactly to the driver's wall time.
//!
//! Spans are aggregated in place (one accumulator per layer) rather than
//! kept as a list: a traced run makes tens of millions of calls.

use std::cell::Cell;
use std::time::Instant;

/// The simulator layers the traced driver calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Instruction generation (`moca_workloads::AppRun`).
    Gen,
    /// Core pipeline (`moca_cpu::Core`).
    Cpu,
    /// Address translation (`moca_sim::Os`: TLB, page walk, faults).
    Vm,
    /// L1/L2 hierarchy (`moca_sim::hierarchy::CoreHierarchy`).
    Cache,
    /// DRAM channels (`moca_dram::Channel`).
    Dram,
    /// Global event wheel (`moca_common::wheel::EventWheel`).
    Wheel,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 6;

/// Per-layer self-time accumulators, shared by reference between the
/// driver loop, its memory port and its instruction-stream wrapper.
#[derive(Debug, Default)]
pub struct Spans {
    /// Time covered by completed child spans of the innermost open span
    /// (at top level: by all top-level spans so far).
    child_ns: Cell<u64>,
    self_ns: [Cell<u64>; LAYERS],
    calls: [Cell<u64>; LAYERS],
}

impl Spans {
    /// Fresh accumulators.
    pub fn new() -> Spans {
        Spans::default()
    }

    /// Run `f` as one span of `layer`.
    #[inline]
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let outer = self.child_ns.replace(0);
        let t0 = Instant::now();
        let r = f();
        let d = t0.elapsed().as_nanos() as u64;
        let inner = self.child_ns.get();
        let l = layer as usize;
        self.self_ns[l].set(self.self_ns[l].get() + d.saturating_sub(inner));
        self.calls[l].set(self.calls[l].get() + 1);
        self.child_ns.set(outer + d);
        r
    }

    /// Self nanoseconds charged to `layer`.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize].get()
    }

    /// Spans recorded for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize].get()
    }

    /// Total duration of the top-level spans (call at top level only).
    pub fn top_level_ns(&self) -> u64 {
        self.child_ns.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_top_level_spans() {
        let s = Spans::new();
        s.span(Layer::Cpu, || {
            s.span(Layer::Gen, || {
                std::hint::black_box((0..1000u64).sum::<u64>())
            });
            s.span(Layer::Vm, || {
                s.span(Layer::Cache, || {
                    std::hint::black_box((0..500u64).sum::<u64>())
                })
            });
        });
        s.span(Layer::Dram, || ());
        let sum: u64 = [
            Layer::Gen,
            Layer::Cpu,
            Layer::Vm,
            Layer::Cache,
            Layer::Dram,
            Layer::Wheel,
        ]
        .iter()
        .map(|&l| s.self_ns(l))
        .sum();
        assert_eq!(sum, s.top_level_ns());
        assert_eq!(s.calls(Layer::Cpu), 1);
        assert_eq!(s.calls(Layer::Wheel), 0);
    }
}
