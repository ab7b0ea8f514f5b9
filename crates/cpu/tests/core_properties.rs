//! Property-based tests of the out-of-order core: for arbitrary instruction
//! streams and memory-latency behaviours, the pipeline retires everything
//! exactly once, respects its structural limits, and keeps its statistics
//! consistent.

use moca_common::ids::MemTag;
use moca_common::{CoreId, Cycle, ObjectId, VirtAddr};
use moca_cpu::{Core, CoreConfig, Instr, MemPort, MemReply, StoreReply};
use proptest::prelude::*;

/// Scriptable memory: per-load latency drawn from the test's latency list;
/// occasionally replies `Retry`; tracks peak outstanding.
struct ScriptedPort {
    latencies: Vec<u16>,
    cursor: usize,
    retry_every: usize,
    calls: usize,
    next_ticket: u64,
    inflight: Vec<(u64, Cycle)>,
    peak: usize,
}

impl ScriptedPort {
    fn new(latencies: Vec<u16>, retry_every: usize) -> ScriptedPort {
        ScriptedPort {
            latencies,
            cursor: 0,
            retry_every,
            calls: 0,
            next_ticket: 0,
            inflight: Vec::new(),
            peak: 0,
        }
    }

    fn drain(&mut self, now: Cycle, core: &mut Core) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].1 <= now {
                let (t, _) = self.inflight.swap_remove(i);
                core.complete(t, now);
            } else {
                i += 1;
            }
        }
    }
}

impl MemPort for ScriptedPort {
    fn load(&mut self, now: Cycle, _core: CoreId, _va: VirtAddr, _tag: MemTag) -> MemReply {
        self.calls += 1;
        if self.retry_every > 0 && self.calls.is_multiple_of(self.retry_every) {
            return MemReply::Retry { mshr_full: false };
        }
        let lat = self.latencies[self.cursor % self.latencies.len()] as Cycle;
        self.cursor += 1;
        if lat <= 2 {
            MemReply::Done { ready_at: now + 2 }
        } else {
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            self.inflight.push((ticket, now + lat));
            self.peak = self.peak.max(self.inflight.len());
            MemReply::Pending {
                ticket,
                primary: true,
            }
        }
    }

    fn store(&mut self, _now: Cycle, _core: CoreId, _va: VirtAddr, _tag: MemTag) -> StoreReply {
        StoreReply {
            primary_miss: false,
        }
    }

    fn ifetch(&mut self, now: Cycle, _core: CoreId, _va: VirtAddr) -> MemReply {
        MemReply::Done { ready_at: now }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Compute,
    Branch(bool),
    Load { obj: u8, dependent: bool },
    Store { obj: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Compute),
        1 => any::<bool>().prop_map(Op::Branch),
        3 => (0u8..4, any::<bool>()).prop_map(|(obj, dependent)| Op::Load { obj, dependent }),
        1 => (0u8..4).prop_map(|obj| Op::Store { obj }),
    ]
}

fn to_instr(op: &Op, i: usize) -> Instr {
    let va = VirtAddr(0x2000_0000 + (i as u64 % 4096) * 64);
    match op {
        Op::Compute => Instr::Compute,
        Op::Branch(m) => Instr::Branch {
            mispredict: *m,
            target: None,
        },
        Op::Load { obj, dependent } => Instr::Load {
            va,
            tag: MemTag::heap(ObjectId(*obj as u32)),
            dependent: *dependent,
            chain: *obj as u16,
        },
        Op::Store { obj } => Instr::Store {
            va,
            tag: MemTag::heap(ObjectId(*obj as u32)),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every instruction commits exactly once, whatever the stream and
    /// latency mix; loads + stores + others account for all commits.
    #[test]
    fn everything_commits_exactly_once(
        ops in prop::collection::vec(arb_op(), 1..400),
        latencies in prop::collection::vec(1u16..120, 1..16),
        // 0 = never retry; >= 2 so a retried load eventually succeeds
        // (retry_every = 1 would be a port that never accepts anything).
        retry_every in prop_oneof![Just(0usize), 2usize..7],
    ) {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = ScriptedPort::new(latencies, retry_every);
        let n = ops.len() as u64;
        let loads = ops.iter().filter(|o| matches!(o, Op::Load { .. })).count() as u64;
        let stores = ops.iter().filter(|o| matches!(o, Op::Store { .. })).count() as u64;
        let mut stream = ops.iter().enumerate().map(|(i, o)| to_instr(o, i));
        let mut now = 0;
        while !core.finished() {
            now += 1;
            port.drain(now, &mut core);
            core.tick(now, &mut port, &mut stream);
            prop_assert!(now < 2_000_000, "did not drain");
        }
        prop_assert_eq!(core.stats().committed, n);
        prop_assert_eq!(core.stats().loads, loads);
        prop_assert_eq!(core.stats().stores, stores);
        // Tag attribution covers every memory access.
        let tag_accesses: u64 = core
            .stats()
            .tags
            .iter_objects()
            .map(|(_, s)| s.accesses)
            .sum();
        prop_assert_eq!(tag_accesses, loads + stores);
    }

    /// The load queue bounds outstanding misses regardless of stream shape.
    #[test]
    fn lq_bound_is_never_exceeded(
        ops in prop::collection::vec(arb_op(), 50..300),
        lq in 4usize..32,
    ) {
        let cfg = CoreConfig { lq_entries: lq, ..CoreConfig::default() };
        let mut core = Core::new(CoreId(0), cfg);
        let mut port = ScriptedPort::new(vec![90], 0);
        let mut stream = ops.iter().enumerate().map(|(i, o)| to_instr(o, i));
        let mut now = 0;
        while !core.finished() {
            now += 1;
            port.drain(now, &mut core);
            core.tick(now, &mut port, &mut stream);
            prop_assert!(port.peak <= lq, "peak {} > LQ {lq}", port.peak);
            prop_assert!(now < 2_000_000);
        }
    }

    /// IPC can never exceed the pipeline width, and cycles always cover at
    /// least `committed / width`.
    #[test]
    fn ipc_bounded_by_width(ops in prop::collection::vec(arb_op(), 10..300)) {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = ScriptedPort::new(vec![1, 40], 0);
        let mut stream = ops.iter().enumerate().map(|(i, o)| to_instr(o, i));
        let mut now = 0;
        while !core.finished() {
            now += 1;
            port.drain(now, &mut core);
            core.tick(now, &mut port, &mut stream);
            prop_assert!(now < 2_000_000);
        }
        prop_assert!(core.stats().ipc() <= 3.0 + 1e-9);
        prop_assert!(core.stats().cycles * 3 >= core.stats().committed);
    }

    /// Determinism: the same stream and port script give identical stats.
    #[test]
    fn replay_is_identical(ops in prop::collection::vec(arb_op(), 1..200)) {
        let run = || {
            let mut core = Core::new(CoreId(0), CoreConfig::default());
            let mut port = ScriptedPort::new(vec![3, 55, 17], 5);
            let mut stream = ops.iter().enumerate().map(|(i, o)| to_instr(o, i));
            let mut now = 0;
            while !core.finished() {
                now += 1;
                port.drain(now, &mut core);
                core.tick(now, &mut port, &mut stream);
                assert!(now < 2_000_000);
            }
            (
                core.stats().cycles,
                core.stats().head_stall_cycles,
                core.stats().mispredicts,
            )
        };
        prop_assert_eq!(run(), run());
    }
}

/// Base of the stress stream's load addresses: load `k` reads
/// `STRESS_VA + 64 * k`, so the port can tell which load reached it.
const STRESS_VA: u64 = 0x1000_0000;

/// xorshift64: a seeded generator for the stress stream and port.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Seeded stream of interleaved dependence chains plus independent loads,
/// stores, compute and branches. Dependent loads come in bursts spread over
/// 4–6 chains, long enough to fill the load queue with blocked loads.
/// Returns the stream and, per load, the load its address depends on.
fn stress_stream(seed: u64, n: usize) -> (Vec<Instr>, Vec<Option<usize>>) {
    let mut x = seed;
    let mut instrs = Vec::with_capacity(n);
    let mut producer = Vec::new();
    let mut last_of_chain: [Option<usize>; 8] = [None; 8];
    let mut burst = 0u64;
    while instrs.len() < n {
        let r = xorshift(&mut x);
        if burst == 0 && r.is_multiple_of(64) {
            burst = 30 + r % 50;
        }
        let kind = if burst > 0 {
            burst -= 1;
            0
        } else {
            r % 20
        };
        let instr = match kind {
            0..=6 => {
                // A load on one of six chains; the chain's previous load is
                // its producer when it is marked dependent.
                let chain = (r >> 8) % 6;
                let dependent = burst > 0 || !(r >> 16).is_multiple_of(4);
                let k = producer.len();
                let c = usize::try_from(chain).unwrap();
                producer.push(if dependent { last_of_chain[c] } else { None });
                last_of_chain[c] = Some(k);
                Instr::Load {
                    va: VirtAddr(STRESS_VA + 64 * k as u64),
                    tag: MemTag::heap(ObjectId(u32::try_from(chain).unwrap())),
                    dependent,
                    chain: u16::try_from(chain).unwrap(),
                }
            }
            7..=9 => {
                // An independent load on chains 6–7: it starts a new link.
                let chain = 6 + (r >> 8) % 2;
                let k = producer.len();
                producer.push(None);
                last_of_chain[usize::try_from(chain).unwrap()] = Some(k);
                Instr::Load {
                    va: VirtAddr(STRESS_VA + 64 * k as u64),
                    tag: MemTag::heap(ObjectId(u32::try_from(chain).unwrap())),
                    dependent: false,
                    chain: u16::try_from(chain).unwrap(),
                }
            }
            10..=12 => Instr::Store {
                va: VirtAddr(0x4000_0000 + 64 * ((r >> 8) % 1024)),
                tag: MemTag::heap(ObjectId(0)),
            },
            13 => Instr::Branch {
                mispredict: (r >> 8).is_multiple_of(4),
                target: None,
            },
            _ => Instr::Compute,
        };
        instrs.push(instr);
    }
    (instrs, producer)
}

/// Port for the stress test: seeded hit/miss latencies, occasional
/// MSHR-full retries, and checks on what reaches it.
struct StressPort {
    rng: u64,
    producer: Vec<Option<usize>>,
    /// Cycle each load's result became ready, once the core knows it.
    ready_at: Vec<Option<Cycle>>,
    next_ticket: u64,
    inflight: Vec<(u64, Cycle, usize)>,
    /// `(cycle, load)` of every accepted or refused load, in call order.
    log: Vec<(Cycle, usize)>,
    retries: u64,
}

impl StressPort {
    fn new(seed: u64, producer: Vec<Option<usize>>) -> StressPort {
        StressPort {
            rng: seed,
            ready_at: vec![None; producer.len()],
            producer,
            next_ticket: 0,
            inflight: Vec::new(),
            log: Vec::new(),
            retries: 0,
        }
    }

    fn drain(&mut self, now: Cycle, core: &mut Core) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].1 <= now {
                let (t, _, k) = self.inflight.swap_remove(i);
                self.ready_at[k] = Some(now);
                core.complete(t, now);
            } else {
                i += 1;
            }
        }
    }

    fn next_completion(&self) -> Cycle {
        self.inflight
            .iter()
            .map(|e| e.1)
            .min()
            .unwrap_or(Cycle::MAX)
    }
}

impl MemPort for StressPort {
    fn load(&mut self, now: Cycle, _core: CoreId, va: VirtAddr, _tag: MemTag) -> MemReply {
        let k = usize::try_from((va.0 - STRESS_VA) / 64).unwrap();
        if let Some(p) = self.producer[k] {
            let ready = self.ready_at[p];
            assert!(
                ready.is_some_and(|r| r <= now),
                "load {k} issued at {now} before its producer {p} was ready ({ready:?})"
            );
        }
        if let Some(&(c, prev)) = self.log.last() {
            assert!(
                c < now || prev < k,
                "loads {prev} and {k} went out of seq order at {now}"
            );
        }
        self.log.push((now, k));
        let r = xorshift(&mut self.rng);
        if r.is_multiple_of(16) || self.inflight.len() >= 20 {
            self.retries += 1;
            return MemReply::Retry { mshr_full: true };
        }
        if r.is_multiple_of(3) {
            let ready_at = now + 1 + (r >> 8) % 4;
            self.ready_at[k] = Some(ready_at);
            return MemReply::Done { ready_at };
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.inflight.push((ticket, now + 20 + (r >> 8) % 300, k));
        MemReply::Pending {
            ticket,
            primary: true,
        }
    }

    fn store(&mut self, _now: Cycle, _core: CoreId, _va: VirtAddr, _tag: MemTag) -> StoreReply {
        StoreReply::default()
    }

    fn ifetch(&mut self, now: Cycle, _core: CoreId, _va: VirtAddr) -> MemReply {
        MemReply::Done { ready_at: now }
    }
}

/// Run the stress stream to completion. With `skip`, cycles on which the
/// core sleeps are jumped over to its wake cycle or the next completion,
/// as the system's event skip does; without, every cycle is ticked. Both
/// query `sleep_state` after every tick, which in debug builds checks it
/// against the ROB-lookup oracles.
fn run_stress(seed: u64, skip: bool) -> (Core, StressPort, usize) {
    let (instrs, producer) = stress_stream(seed, 120_000);
    let n = instrs.len();
    let mut core = Core::new(CoreId(0), CoreConfig::default());
    let mut port = StressPort::new(seed ^ 0xA5A5, producer);
    let mut stream = instrs.into_iter();
    let mut now = 0;
    while !core.finished() {
        now += 1;
        port.drain(now, &mut core);
        core.tick(now, &mut port, &mut stream);
        if let Some(wake) = core.sleep_state(now) {
            if skip {
                let next = wake.min(port.next_completion());
                assert!(next < Cycle::MAX, "core sleeps with nothing to wake it");
                now = next - 1;
            }
        }
        assert!(now < 50_000_000, "did not drain");
    }
    (core, port, n)
}

/// Drives the ROB ring through hundreds of wraps with the load queue full
/// of blocked chain loads: loads issue only once their producer is ready,
/// oldest first within a cycle, everything commits, and event skipping
/// over the core's sleep windows changes nothing the port or the stall
/// counters see.
#[test]
fn blocked_chains_stress_the_rob_ring() {
    for seed in [1u64, 0x5EED_C0DE] {
        let (core, port, n) = run_stress(seed, false);
        let s = core.stats();
        assert_eq!(s.committed, n as u64);
        assert_eq!(s.loads, port.producer.len() as u64);
        assert!(s.lq_full_cycles > 0, "the load queue never filled");
        assert!(port.retries > 0, "no MSHR-full retries");
        assert!(port.producer.iter().filter(|p| p.is_some()).count() > n / 4);

        let (skipped, skipped_port, _) = run_stress(seed, true);
        let t = skipped.stats();
        assert_eq!(port.log, skipped_port.log, "event skip moved a load");
        assert_eq!(
            (s.cycles, s.committed, s.head_stall_cycles, s.lq_full_cycles),
            (t.cycles, t.committed, t.head_stall_cycles, t.lq_full_cycles)
        );
    }
}
