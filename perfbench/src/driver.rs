//! The traced driver: `System::new` and `System::run_warmed` rebuilt from the
//! layers' public APIs, with a span around every call into a layer.
//!
//! The loop mirrors `moca_sim::System::step` with telemetry, attribution and
//! page migration off, which is how every evaluation the benchmark times
//! runs. It must reproduce the `System` result exactly; the benchmark checks
//! this on every traced run and `tests/fidelity.rs` pins it on three machine
//! shapes.

use crate::machine::MachineSpec;
use crate::spans::{Layer, Spans};
use moca_common::addr::PAGE_SIZE;
use moca_common::ids::MemTag;
use moca_common::wheel::EventWheel;
use moca_common::{CoreId, Cycle, VirtAddr};
use moca_cpu::{Core, Instr, InstrStream, MemPort, MemReply, StoreReply};
use moca_dram::{AddressMapper, Channel, Completion};
use moca_sim::hierarchy::CoreHierarchy;
use moca_sim::metrics::{ChannelReport, CoreResult, MemMetrics, RunResult};
use moca_sim::Os;
use moca_vm::layout::{HeapLayout, CODE_BASE};
use moca_vm::FrameSpace;
use moca_workloads::gen::scaled_sizes;
use moca_workloads::AppRun;
use std::time::Instant;

/// Deterministic work counts of one traced run (identical on every run of
/// the same machine and inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Step-loop iterations (cycles actually executed).
    pub steps: u64,
    /// Simulated cycles, warmup included (event-skipped windows count).
    pub cycles: u64,
    /// Cycles jumped over by event skip.
    pub skipped_cycles: u64,
    /// Instructions drawn from the generators.
    pub instrs: u64,
    /// Instructions committed, warmup included.
    pub committed: u64,
    /// Core pipeline ticks.
    pub core_ticks: u64,
    /// Address translations.
    pub translations: u64,
    /// Pages faulted in during the run (after the startup prefault).
    pub faults: u64,
    /// Pages mapped by the startup prefault.
    pub prefault_pages: u64,
    /// TLB lookups that missed.
    pub tlb_misses: u64,
    /// All TLB lookups.
    pub tlb_lookups: u64,
    /// Hierarchy calls made through the memory port (loads, stores, fetches).
    pub port_calls: u64,
    /// `MemReply::Retry` replies to those calls.
    pub retries: u64,
    /// L1D demand accesses (whole run, like the two counts below).
    pub l1d_accesses: u64,
    /// L1D demand misses.
    pub l1d_misses: u64,
    /// L2 demand misses.
    pub l2_misses: u64,
    /// Channel ticks executed (idle-gated ticks excluded).
    pub dram_ticks: u64,
    /// Ticks that delivered a completion, issued a queued request or
    /// started a refresh.
    pub dram_productive_ticks: u64,
    /// Event-wheel posts, cancels and next-event queries.
    pub wheel_ops: u64,
}

/// Host time of one traced run, split by layer.
#[derive(Debug, Default)]
pub struct Timing {
    /// Wall time of the step loop (warmup + measured).
    pub wall_ns: u64,
    /// Per-layer self time and span counts.
    pub spans: Spans,
}

impl Timing {
    /// Driver-loop time outside every layer span.
    pub fn loop_self_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.spans.top_level_ns())
    }
}

/// Outcome of one traced run.
pub struct Traced {
    /// The run's result, comparable field by field with `System`'s.
    pub result: RunResult,
    /// Deterministic work counts.
    pub counts: Counts,
    /// Host time split.
    pub timing: Timing,
}

/// The memory port the driver hands to `Core::tick_gated`: translation
/// through the OS, then the core's hierarchy, each call in its own span.
struct TracedPort<'a> {
    hier: &'a mut CoreHierarchy,
    channels: &'a mut [Channel],
    mapper: &'a AddressMapper,
    os: &'a mut Os,
    core_idx: usize,
    tickets: &'a mut u64,
    spans: &'a Spans,
    counts: &'a mut Counts,
}

impl TracedPort<'_> {
    fn note(&mut self, reply: &MemReply) {
        self.counts.port_calls += 1;
        if matches!(reply, MemReply::Retry { .. }) {
            self.counts.retries += 1;
        }
    }
}

impl MemPort for TracedPort<'_> {
    fn load(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> MemReply {
        self.counts.translations += 1;
        let tr = self
            .spans
            .span(Layer::Vm, || self.os.translate(self.core_idx, va));
        let reply = self.spans.span(Layer::Cache, || {
            self.hier.load(
                now,
                core,
                tr.pa,
                tag,
                tr.extra,
                self.channels,
                self.mapper,
                self.tickets,
            )
        });
        self.note(&reply);
        reply
    }

    fn store(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> StoreReply {
        self.counts.translations += 1;
        let tr = self
            .spans
            .span(Layer::Vm, || self.os.translate(self.core_idx, va));
        self.counts.port_calls += 1;
        self.spans.span(Layer::Cache, || {
            self.hier.store(
                now,
                core,
                tr.pa,
                tag,
                self.channels,
                self.mapper,
                self.tickets,
            )
        })
    }

    fn ifetch(&mut self, now: Cycle, core: CoreId, va: VirtAddr) -> MemReply {
        self.counts.translations += 1;
        let tr = self
            .spans
            .span(Layer::Vm, || self.os.translate(self.core_idx, va));
        let reply = self.spans.span(Layer::Cache, || {
            self.hier
                .ifetch(now, core, tr.pa, self.channels, self.mapper, self.tickets)
        });
        self.note(&reply);
        reply
    }
}

/// The driver's instruction stream: the app's generator, one span per draw.
struct TracedStream<'a> {
    run: &'a mut AppRun,
    spans: &'a Spans,
    instrs: &'a mut u64,
}

impl InstrStream for TracedStream<'_> {
    fn next_instr(&mut self) -> Option<Instr> {
        *self.instrs += 1;
        self.spans.span(Layer::Gen, || self.run.next_instr())
    }
}

/// What a productive channel tick changes, as seen from outside: queue
/// occupancy (a request was scheduled) and refresh count.
fn work_state(ch: &Channel) -> (usize, usize, u64) {
    (
        ch.read_queue_len(),
        ch.write_queue_len(),
        ch.stats().refreshes,
    )
}

/// When a ticked core next needs a tick.
#[derive(Debug, Clone, Copy)]
enum Wake {
    Runnable,
    At(Cycle),
    Finished,
}

/// The machine under the traced driver.
struct Machine {
    spec: MachineSpec,
    cores: Vec<Core>,
    hiers: Vec<CoreHierarchy>,
    streams: Vec<AppRun>,
    os: Os,
    channels: Vec<Channel>,
    mapper: AddressMapper,
    tickets: Vec<u64>,
    now: Cycle,
    wake_at: Vec<Cycle>,
    crossed: Vec<bool>,
    below_target: usize,
    commit_target: u64,
    commit_crossed: bool,
    finished_count: usize,
    wheel: EventWheel,
    chan_posted: Vec<u64>,
    steps_at_tick: Vec<u64>,
    measuring: Vec<bool>,
    woken: Vec<u64>,
    counts: Counts,
    timing: Timing,
}

impl Machine {
    /// `System::new_with_telemetry` with telemetry off.
    fn build(spec: &MachineSpec) -> Machine {
        let cfg = &spec.cfg;
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"));
        let channels: Vec<Channel> = cfg
            .mem
            .channel_configs(cfg.capacity_scale)
            .into_iter()
            .map(Channel::new)
            .collect();
        let mapper = cfg.mem.mapper(cfg.capacity_scale);
        let frames = FrameSpace::new(cfg.mem.frame_regions(cfg.capacity_scale));
        let mut os = Os::new(
            frames,
            spec.policy_box(),
            cfg.cores,
            cfg.tlb_entries,
            cfg.tlb_miss_penalty,
            cfg.page_fault_penalty,
        );
        let mut cores = Vec::new();
        let mut hiers = Vec::new();
        let mut streams = Vec::new();
        let mut page_lists: Vec<Vec<VirtAddr>> = Vec::new();
        for (i, launch) in spec.launches().into_iter().enumerate() {
            let mut layout = HeapLayout::new();
            let sizes = scaled_sizes(&launch.spec, launch.input, cfg.capacity_scale);
            let bases: Vec<VirtAddr> = sizes
                .iter()
                .zip(&launch.object_classes)
                .map(|(&sz, &class)| layout.alloc_heap(class, sz))
                .collect();
            let stack_bytes = launch.spec.stack_working_set.max(16 * 1024);
            let stack_base = layout.grow_stack(stack_bytes);
            let mut pages = Vec::new();
            let mut push_range = |base: VirtAddr, bytes: u64| {
                let last = VirtAddr(base.0 + bytes.max(1) - 1).vpn();
                pages.extend((base.vpn()..=last).map(|vpn| VirtAddr(vpn * PAGE_SIZE)));
            };
            push_range(VirtAddr(CODE_BASE), launch.spec.code_bytes);
            push_range(stack_base, stack_bytes);
            for (&base, &size) in bases.iter().zip(&sizes) {
                push_range(base, size);
            }
            page_lists.push(pages);
            streams.push(AppRun::new(
                &launch.spec,
                launch.input,
                cfg.capacity_scale,
                &bases,
                stack_base,
                i as u64,
            ));
            cores.push(Core::new(CoreId(i as u32), cfg.core.clone()));
            hiers.push(CoreHierarchy::new());
        }
        // Concurrent startup: round-robin over the apps in 32-page chunks,
        // the instantiation order `System::new` uses.
        let mut counts = Counts::default();
        let mut idx = vec![0usize; page_lists.len()];
        loop {
            let mut progressed = false;
            for (app, list) in page_lists.iter().enumerate() {
                for _ in 0..32 {
                    if idx[app] < list.len() {
                        os.prefault(app, list[idx[app]]);
                        idx[app] += 1;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        counts.prefault_pages = os.placement().total_pages();
        let n = cores.len();
        let nch = channels.len();
        Machine {
            spec: spec.clone(),
            cores,
            hiers,
            streams,
            os,
            channels,
            mapper,
            tickets: vec![0; n],
            now: 0,
            wake_at: vec![0; n],
            crossed: vec![false; n],
            below_target: n,
            commit_target: 0,
            commit_crossed: false,
            finished_count: 0,
            wheel: EventWheel::new(n + nch),
            chan_posted: vec![u64::MAX; nch],
            steps_at_tick: vec![0; n],
            measuring: vec![true; n],
            woken: Vec::new(),
            counts,
            timing: Timing::default(),
        }
    }

    /// One cycle: `System::step` without telemetry, attribution or
    /// migration.
    fn step(&mut self, mem: &mut MemMetrics, comps: &mut Vec<Completion>) {
        self.now += 1;
        self.counts.steps += 1;
        let now = self.now;
        let n = self.cores.len();
        let spans = &self.timing.spans;
        let counts = &mut self.counts;

        // 1. DRAM completions → cache fills → core wakeups.
        comps.clear();
        let channels = &mut self.channels;
        spans.span(Layer::Dram, || {
            for ch in channels.iter_mut() {
                if ch.tick_is_noop(now) {
                    continue;
                }
                let before = (comps.len(), work_state(ch));
                ch.tick(now, comps);
                counts.dram_ticks += 1;
                if before != (comps.len(), work_state(ch)) {
                    counts.dram_productive_ticks += 1;
                }
            }
        });
        for comp in comps.iter() {
            let ci = comp.core.0 as usize;
            if self.measuring[ci] {
                mem.reads += 1;
                let lat = comp.queue_cycles + comp.service_cycles;
                mem.total_read_latency_cycles += lat;
                mem.per_core_read_latency[ci] += lat;
            }
            self.woken.clear();
            let (hier, channels, mapper, woken) = (
                &mut self.hiers[ci],
                &mut self.channels,
                &self.mapper,
                &mut self.woken,
            );
            spans.span(Layer::Cache, || {
                hier.on_completion_into(now, comp, channels, mapper, woken)
            });
            if !self.woken.is_empty() {
                let (core, woken) = (&mut self.cores[ci], &self.woken);
                spans.span(Layer::Cpu, || {
                    for &t in woken {
                        core.complete(t, now);
                    }
                });
                if !self.cores[ci].finished() && self.wake_at[ci] > now {
                    self.wake_at[ci] = now;
                }
            }
        }

        // 2. Deferred writebacks / store fills, in core order.
        for i in 0..n {
            if self.hiers[i].has_deferred() {
                let (hier, channels, mapper) =
                    (&mut self.hiers[i], &mut self.channels, &self.mapper);
                spans.span(Layer::Cache, || hier.flush_deferred(now, channels, mapper));
            }
        }

        // 3. Core pipelines whose wake event has arrived, then their
        // rescheduling on the wheel.
        let mut runnable_next = 0usize;
        for i in 0..n {
            if self.wake_at[i] > now {
                continue;
            }
            let skipped_live = counts.steps - self.steps_at_tick[i] - 1;
            self.steps_at_tick[i] = counts.steps;
            let mut port = TracedPort {
                hier: &mut self.hiers[i],
                channels: &mut self.channels,
                mapper: &self.mapper,
                os: &mut self.os,
                core_idx: i,
                tickets: &mut self.tickets[i],
                spans,
                counts,
            };
            let mut instrs = 0;
            let mut stream = TracedStream {
                run: &mut self.streams[i],
                spans,
                instrs: &mut instrs,
            };
            let core = &mut self.cores[i];
            let wake = spans.span(Layer::Cpu, || {
                core.tick_gated(now, skipped_live, &mut port, &mut stream);
                match core.sleep_state(now) {
                    None if core.finished() => Wake::Finished,
                    None => Wake::Runnable,
                    Some(e) => Wake::At(e),
                }
            });
            counts.instrs += instrs;
            counts.core_ticks += 1;
            if !self.crossed[i] && self.cores[i].committed() >= self.commit_target {
                self.crossed[i] = true;
                self.below_target -= 1;
                self.commit_crossed = true;
            }
            let wheel = &mut self.wheel;
            match wake {
                Wake::Finished => {
                    self.wake_at[i] = Cycle::MAX;
                    self.finished_count += 1;
                    counts.wheel_ops += 1;
                    spans.span(Layer::Wheel, || wheel.cancel(i));
                }
                Wake::Runnable => {
                    self.wake_at[i] = now + 1;
                    runnable_next += 1;
                    counts.wheel_ops += 1;
                    spans.span(Layer::Wheel, || wheel.cancel(i));
                }
                Wake::At(e) => {
                    self.wake_at[i] = e;
                    counts.wheel_ops += 1;
                    if e <= now + 1 {
                        runnable_next += 1;
                        spans.span(Layer::Wheel, || wheel.cancel(i));
                    } else if e == Cycle::MAX {
                        spans.span(Layer::Wheel, || wheel.cancel(i));
                    } else {
                        spans.span(Layer::Wheel, || wheel.post(i, e));
                    }
                }
            }
        }

        // 4. Event skip when every core is stalled on memory.
        if self.finished_count == 0 && runnable_next == 0 {
            for c in 0..self.channels.len() {
                let ch = &self.channels[c];
                let v = ch.state_version();
                if self.chan_posted[c] != v {
                    self.chan_posted[c] = v;
                    let e = spans
                        .span(Layer::Dram, || ch.next_event_after(now))
                        .unwrap_or(Cycle::MAX);
                    counts.wheel_ops += 1;
                    let wheel = &mut self.wheel;
                    spans.span(Layer::Wheel, || wheel.post(n + c, e));
                }
            }
            counts.wheel_ops += 1;
            let wheel = &mut self.wheel;
            let next = spans
                .span(Layer::Wheel, || wheel.next_event_after(now))
                .map_or(Cycle::MAX, |(c, _)| c);
            assert!(next != Cycle::MAX, "event-skip deadlock at cycle {now}");
            if next > now + 1 {
                counts.skipped_cycles += next - 1 - now;
                self.now = next - 1;
            }
        }
    }

    fn set_commit_target(&mut self, target: u64) {
        self.commit_target = target;
        self.below_target = 0;
        self.commit_crossed = false;
        for (i, core) in self.cores.iter().enumerate() {
            self.crossed[i] = core.committed() >= target;
            if !self.crossed[i] {
                self.below_target += 1;
            }
        }
        if self.cores.iter().any(|c| c.committed() >= target) {
            self.commit_crossed = true;
        }
    }

    /// `System::run_warmed`.
    fn run_warmed(mut self, warmup: u64, instr_target: u64) -> Traced {
        assert!(instr_target > 0);
        let t0 = Instant::now();
        let n = self.cores.len();
        let fresh = || MemMetrics {
            per_core_read_latency: vec![0; n],
            ..MemMetrics::default()
        };
        let mut comps = Vec::new();
        let mut mem = fresh();
        let watchdog = (warmup + instr_target).saturating_mul(4000).max(10_000_000);
        if warmup > 0 {
            self.measuring.iter_mut().for_each(|m| *m = false);
            self.set_commit_target(warmup);
            while self.below_target > 0 {
                self.step(&mut mem, &mut comps);
                assert!(self.now < watchdog, "warmup watchdog tripped");
            }
            self.measuring.iter_mut().for_each(|m| *m = true);
            for c in &mut self.cores {
                self.counts.committed += c.committed();
                c.reset_stats();
            }
            for ch in &mut self.channels {
                ch.reset_stats();
            }
            mem = fresh();
        }
        let measure_start = self.now;
        self.set_commit_target(instr_target);
        let mut frozen: Vec<Option<(moca_cpu::CoreStats, Cycle)>> = vec![None; n];
        let mut remaining = n;
        while remaining > 0 {
            self.step(&mut mem, &mut comps);
            assert!(self.now < watchdog, "simulation watchdog tripped");
            if !self.commit_crossed {
                continue;
            }
            self.commit_crossed = false;
            for (i, slot) in frozen.iter_mut().enumerate() {
                if slot.is_none() && self.cores[i].committed() >= instr_target {
                    *slot = Some((self.cores[i].stats().clone(), self.now - measure_start));
                    remaining -= 1;
                    self.measuring[i] = false;
                }
            }
        }
        self.timing.wall_ns = t0.elapsed().as_nanos() as u64;

        let runtime = self.now - measure_start;
        mem.runtime_cycles = runtime;
        mem.channels = self
            .channels
            .iter()
            .map(|ch| ChannelReport {
                kind: ch.config().timing.kind,
                capacity_bytes: ch.config().capacity_bytes,
                stats: *ch.stats(),
                energy: ch.energy(runtime),
            })
            .collect();
        let c = &mut self.counts;
        c.cycles = self.now;
        c.committed += self.cores.iter().map(|core| core.committed()).sum::<u64>();
        c.faults = self.os.placement().total_pages() - c.prefault_pages;
        for i in 0..n {
            let tlb = self.os.tlb_stats(i);
            c.tlb_misses += tlb.misses;
            c.tlb_lookups += tlb.hits + tlb.misses;
            let l1d = self.hiers[i].l1d().stats();
            c.l1d_accesses += l1d.accesses;
            c.l1d_misses += l1d.misses;
            c.l2_misses += self.hiers[i].l2_stats().misses;
        }
        let per_core = frozen
            .into_iter()
            .zip(&self.spec.apps)
            .map(|(f, &app)| {
                let (stats, finished_at) = f.expect("all cores frozen");
                CoreResult {
                    app: app.to_string(),
                    stats,
                    finished_at,
                    attr: None,
                }
            })
            .collect();
        let result = RunResult {
            policy: self.os.policy_name().to_string(),
            mem_label: self.spec.cfg.mem.label(),
            runtime_cycles: runtime,
            per_core,
            mem,
            placement: self.os.take_placement(),
            core_width: self.spec.cfg.core.width,
            migration: None,
            occupancy: None,
        };
        Traced {
            result,
            counts: self.counts,
            timing: self.timing,
        }
    }
}

/// Build `spec` and run it for `warmup` + `instr_target` instructions per
/// core under the traced driver.
pub fn run_traced(spec: &MachineSpec, warmup: u64, instr_target: u64) -> Traced {
    Machine::build(spec).run_warmed(warmup, instr_target)
}
