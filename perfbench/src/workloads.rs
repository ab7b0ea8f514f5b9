//! The benchmark's workloads, timed from outside through public APIs.
//!
//! Each workload is the MOCA flow (offline profile → classify → typed
//! allocation → evaluation): `setup_s` covers profiling, classification and
//! the construction of the evaluated machines that exist before the
//! measured phase; `wall_s` covers the measured phase.

use crate::digest;
use crate::driver::{run_traced, Counts, Traced};
use crate::machine::MachineSpec;
use crate::spans::Layer;
use moca::classify::{classify_lut, ClassifiedApp};
use moca::pipeline::{Pipeline, PolicyKind};
use moca::profile::{profile_app, ProfileLut};
use moca_bench::explain::{build_report, to_json, ExplainReport, ExplainSpec};
use moca_bench::harness::systems_under_test;
use moca_bench::report::{geomean, ratio, Table};
use moca_common::par::parallel_map_with;
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig};
use moca_sim::metrics::RunResult;
use moca_sim::system::System;
use moca_telemetry::{write_chrome_trace, RingSink, Telemetry};
use moca_workloads::{app_by_name, suite, AppSpec, InputSet};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// The seed whose inputs are the repository's own training and reference
/// inputs; pinned digests are checked on this seed only.
pub const DEFAULT_SEED: u64 = 0;

/// Apps of the `moca-heter4` mix.
const HETER4_APPS: [&str; 4] = ["mcf", "lbm", "gcc", "sift"];

/// The `trace-io` exemplar (the app `repro --trace` traces).
const TRACE_APP: &str = "mcf";
/// Events each `trace-io` ring sink keeps; with the window length below it
/// bounds each exported trace (the shim parser is quadratic in document
/// size, so an unbounded trace would take minutes to read back).
const TRACE_RING_EVENTS: usize = 500;
/// Metrics-window length of the `trace-io` evaluations, in cycles.
const TRACE_WINDOW_CYCLES: u64 = 500_000;

/// Training and reference inputs for `seed`: the repository's own on the
/// default seed, otherwise the same inputs with reseeded generators.
pub fn inputs(seed: u64) -> (InputSet, InputSet) {
    let (mut train, mut reference) = (InputSet::training(), InputSet::reference());
    if seed != DEFAULT_SEED {
        train.seed ^= splitmix(seed);
        reference.seed ^= splitmix(seed ^ 0xA5A5_A5A5);
    }
    (train, reference)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Operation accounting: every evaluation and every artifact round trip is
/// one operation; a mismatch or a panic fails it.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Digest of each keyed output on the first iteration (every later
    /// iteration must reproduce it).
    first: BTreeMap<String, u64>,
    /// Check against the pinned digests (default seed only).
    pinned: bool,
    /// Keyed digests seen, in order (for `--emit-pins`).
    pub seen: Vec<(String, u64)>,
}

impl Checks {
    /// Checks for a run on `seed`.
    pub fn new(seed: u64) -> Checks {
        Checks {
            pinned: seed == DEFAULT_SEED,
            ..Checks::default()
        }
    }

    /// Count one operation with outcome `outcome`.
    pub fn op(&mut self, key: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED {key}: {e}");
        }
    }

    /// Count one operation whose output digests to `digest` and passed the
    /// seed-independent checks with `sanity`. It must also match the first
    /// iteration's digest and, on the default seed, the pinned one.
    pub fn output(&mut self, key: &str, digest: u64, sanity: Result<(), String>) {
        let outcome = sanity.and_then(|()| {
            if let Some(&d) = self.first.get(key) {
                if d != digest {
                    return Err(format!("not deterministic: {digest:#018x} after {d:#018x}"));
                }
            }
            match digest::pinned(key) {
                Some(p) if self.pinned && p != digest => {
                    Err(format!("digest {digest:#018x}, pinned {p:#018x}"))
                }
                None if self.pinned => Err("no pinned digest".to_string()),
                _ => Ok(()),
            }
        });
        if !self.first.contains_key(key) {
            self.first.insert(key.to_string(), digest);
            self.seen.push((key.to_string(), digest));
        }
        self.op(key, outcome);
    }
}

/// What one untraced iteration measured.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Profiling + classification + construction, seconds.
    pub setup_s: f64,
    /// Measured phase, seconds.
    pub wall_s: f64,
    /// Process CPU seconds of the measured phase.
    pub cpu_s: f64,
    /// Simulated instructions of the measured phase (warmup + measured,
    /// all cores, all evaluations).
    pub instrs: u64,
    /// Profiling phase, seconds.
    pub profile_s: f64,
    /// Classification, seconds.
    pub classify_s: f64,
    /// Mean `System` construction time, seconds.
    pub build_s: f64,
    /// Wall time of the evaluations alone (no artifact I/O), seconds.
    pub eval_s: f64,
    /// Telemetry: events recorded.
    pub tel_events: u64,
    /// Telemetry: Chrome-trace and explain-report export time, seconds.
    pub export_s: f64,
    /// Artifact bytes written and read back.
    pub io_bytes: u64,
    /// Artifact serialisation time, seconds (export included).
    pub serialize_s: f64,
    /// Artifact parse time, seconds.
    pub parse_s: f64,
}

/// What one traced iteration measured.
#[derive(Debug, Default)]
pub struct TraceSample {
    /// Wall time of the traced evaluations, seconds (fan-out included).
    pub wall_s: f64,
    /// Per-run counts, summed.
    pub counts: Counts,
    /// Per-layer self time, summed over runs, nanoseconds.
    pub self_ns: [u64; 6],
    /// Per-layer span count, summed.
    pub calls: [u64; 6],
    /// Driver step-loop wall time, summed over runs, nanoseconds.
    pub loop_wall_ns: u64,
    /// Driver-loop time outside every layer span, nanoseconds.
    pub loop_self_ns: u64,
    /// Measured-phase DRAM row hits, accesses, reads and read latency.
    pub row_hits: u64,
    /// Reads + writes.
    pub dram_accesses: u64,
    /// Measured-phase reads.
    pub reads: u64,
    /// Measured-phase read latency, cycles.
    pub read_latency: u64,
    /// Telemetry off, same evaluations through `System`: wall seconds.
    pub untraced_eval_s: f64,
}

const LAYER_ORDER: [Layer; 6] = [
    Layer::Gen,
    Layer::Cpu,
    Layer::Vm,
    Layer::Cache,
    Layer::Dram,
    Layer::Wheel,
];

impl TraceSample {
    fn add(&mut self, t: &Traced) {
        let c = &t.counts;
        let s = &mut self.counts;
        s.steps += c.steps;
        s.cycles += c.cycles;
        s.skipped_cycles += c.skipped_cycles;
        s.instrs += c.instrs;
        s.committed += c.committed;
        s.core_ticks += c.core_ticks;
        s.translations += c.translations;
        s.faults += c.faults;
        s.prefault_pages += c.prefault_pages;
        s.tlb_misses += c.tlb_misses;
        s.tlb_lookups += c.tlb_lookups;
        s.port_calls += c.port_calls;
        s.retries += c.retries;
        s.l1d_accesses += c.l1d_accesses;
        s.l1d_misses += c.l1d_misses;
        s.l2_misses += c.l2_misses;
        s.dram_ticks += c.dram_ticks;
        s.dram_productive_ticks += c.dram_productive_ticks;
        s.wheel_ops += c.wheel_ops;
        for (i, &l) in LAYER_ORDER.iter().enumerate() {
            self.self_ns[i] += t.timing.spans.self_ns(l);
            self.calls[i] += t.timing.spans.calls(l);
        }
        self.loop_wall_ns += t.timing.wall_ns;
        self.loop_self_ns += t.timing.loop_self_ns();
        for ch in &t.result.mem.channels {
            self.row_hits += ch.stats.row_hits;
            self.dram_accesses += ch.stats.reads + ch.stats.writes;
        }
        self.reads += t.result.mem.reads;
        self.read_latency += t.result.mem.total_read_latency_cycles;
    }

    /// Self nanoseconds of `layer`.
    pub fn self_of(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Span count of `layer`.
    pub fn calls_of(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}

/// Settings shared by every workload run.
#[derive(Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Fan-out width (the number of CPUs).
    pub jobs: usize,
    /// Scratch directory for artifacts (inside the checkout).
    pub out_dir: PathBuf,
}

/// One workload: its offline stage, its measured phase and its traced
/// counterpart.
pub trait Workload {
    /// One untraced iteration.
    fn run(&self, ctx: &Ctx, checks: &mut Checks) -> Sample;
    /// The measured phase's evaluations under the traced driver, checked
    /// against `System` results of the same machines.
    fn trace(&self, ctx: &Ctx, checks: &mut Checks) -> TraceSample;
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "repro-quick" => Some(Box::new(ReproQuick)),
        "moca-heter4" => Some(Box::new(MocaHeter4)),
        "trace-io" => Some(Box::new(TraceIo)),
        _ => None,
    }
}

/// Process CPU seconds (user + system, all threads, exited ones included).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them, in clock ticks (100 per second on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 / 100.0
}

/// The offline stage: profile `apps` on the training input (fanned out),
/// then classify each profile.
struct Offline {
    luts: Vec<ProfileLut>,
    classified: Vec<ClassifiedApp>,
    profile_s: f64,
    classify_s: f64,
}

fn offline(p: &Pipeline, apps: &[&'static str], train: InputSet, jobs: usize) -> Offline {
    let specs: Vec<AppSpec> = apps.iter().map(|&a| app_by_name(a)).collect();
    let t = Instant::now();
    let luts = parallel_map_with(Some(jobs), &specs, |s| {
        profile_app(s, train, &p.profile_cfg)
    });
    let profile_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let classified = luts
        .iter()
        .map(|l| classify_lut(l, p.thresholds, p.app_thresholds))
        .collect();
    Offline {
        luts,
        classified,
        profile_s,
        classify_s: t.elapsed().as_secs_f64(),
    }
}

/// Checks that hold on every seed for an evaluation run to `target`.
fn sanity(r: &RunResult, cores: usize, target: u64) -> Result<(), String> {
    if r.per_core.len() != cores {
        return Err(format!("{} core results, want {cores}", r.per_core.len()));
    }
    if r.runtime_cycles == 0 || r.placement.total_pages() == 0 {
        return Err("empty run".to_string());
    }
    for c in &r.per_core {
        if c.stats.committed < target || c.finished_at == 0 || c.finished_at > r.runtime_cycles {
            return Err(format!(
                "{}: committed {} by cycle {} of {}",
                c.app, c.stats.committed, c.finished_at, r.runtime_cycles
            ));
        }
    }
    Ok(())
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Build `spec` as a `System` and run it: `(result, construction seconds)`.
fn evaluate(spec: &MachineSpec, warmup: u64, target: u64) -> Result<(RunResult, f64), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let mut sys = System::new(spec.cfg.clone(), spec.launches(), spec.policy_box());
        let build_s = t.elapsed().as_secs_f64();
        (sys.run_warmed(warmup, target), build_s)
    }))
    .map_err(panic_message)
}

/// Run `specs` under the traced driver (fanned out like the untraced
/// phase) and check each result against `System`'s digest in `expect`.
fn trace_specs(
    ctx: &Ctx,
    checks: &mut Checks,
    keys: &[String],
    specs: &[MachineSpec],
    expect: &[u64],
    warmup: u64,
    target: u64,
) -> TraceSample {
    let t = Instant::now();
    let traced = parallel_map_with(Some(ctx.jobs), specs, |s| {
        catch_unwind(AssertUnwindSafe(|| run_traced(s, warmup, target))).map_err(panic_message)
    });
    let mut ts = TraceSample {
        wall_s: t.elapsed().as_secs_f64(),
        ..TraceSample::default()
    };
    for ((key, tr), &want) in keys.iter().zip(traced).zip(expect) {
        let key = format!("traced/{key}");
        match tr {
            Ok(tr) => {
                let got = digest::of_run(&tr.result);
                ts.add(&tr);
                let outcome = if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "traced driver digest {got:#018x}, System {want:#018x}"
                    ))
                };
                checks.op(&key, outcome);
            }
            Err(e) => checks.op(&key, Err(e)),
        }
    }
    ts
}

// ---------------------------------------------------------------- repro-quick

/// The Quick fig8/fig9 single-core sweep: the whole suite profiled, then
/// 10 apps × the six systems under test, fanned out with `parallel_map`.
struct ReproQuick;

impl ReproQuick {
    fn machines(
        ctx: &Ctx,
        p: &Pipeline,
        classified: &[ClassifiedApp],
    ) -> Vec<(String, MachineSpec)> {
        let reference = inputs(ctx.seed).1;
        let mut out = Vec::new();
        for (sys, mem, policy) in systems_under_test() {
            for app in suite() {
                let spec = MachineSpec::new(
                    &[app.name],
                    mem,
                    policy,
                    classified,
                    reference,
                    p.profile_cfg.capacity_scale,
                );
                out.push((format!("repro-quick/{sys}/{}", app.name), spec));
            }
        }
        out
    }
}

/// Figs. 8 and 9 from the sweep's results, laid out as `repro` lays them
/// out (rows in suite order, columns in legend order, geomean last).
fn fig8_fig9(results: &BTreeMap<(String, String), RunResult>) -> (Table, Table) {
    let systems: Vec<String> = systems_under_test().into_iter().map(|s| s.0).collect();
    let mut headers = vec!["workload"];
    headers.extend(systems.iter().map(String::as_str));
    let mut perf = Table::new(
        "fig8",
        "Single-core normalized memory access time",
        &headers,
    );
    let mut edp = Table::new("fig9", "Single-core normalized memory EDP", &headers);
    let mut per_sys: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); systems.len()];
    for app in suite() {
        let wl = app.name.to_string();
        let base = &results[&("Homogen-DDR3".to_string(), wl.clone())];
        let base_time = base.mem.total_read_latency_cycles.max(1) as f64;
        let base_edp = base.mem.edp().max(f64::MIN_POSITIVE);
        let mut prow = vec![wl.clone()];
        let mut erow = vec![wl.clone()];
        for (si, sys) in systems.iter().enumerate() {
            let r = &results[&(sys.clone(), wl.clone())];
            let p = r.mem.total_read_latency_cycles as f64 / base_time;
            let e = r.mem.edp() / base_edp;
            per_sys[si].0.push(p);
            per_sys[si].1.push(e);
            prow.push(ratio(p));
            erow.push(ratio(e));
        }
        perf.row(prow);
        edp.row(erow);
    }
    let mut prow = vec!["geomean".to_string()];
    let mut erow = vec!["geomean".to_string()];
    for (p, e) in &per_sys {
        prow.push(ratio(geomean(p)));
        erow.push(ratio(geomean(e)));
    }
    perf.row(prow);
    edp.row(erow);
    perf.note("total memory access time, normalized to Homogen-DDR3 (lower is better)");
    edp.note("memory energy-delay product, normalized to Homogen-DDR3 (lower is better)");
    perf.note("paper: MOCA reduces access time by ~51% vs DDR3, ~14% vs Heter-App on average");
    edp.note("paper: MOCA reduces memory EDP by ~43% vs DDR3, ~15% vs Heter-App on average");
    (perf, edp)
}

/// One artifact's export and read-back.
struct RoundTrip {
    bytes: u64,
    write_s: f64,
    read_s: f64,
    outcome: Result<u64, String>,
}

/// Write an artifact to `path` with `write`, read the file back and check
/// it with `read`; the outcome is the digest of the bytes on disk.
fn round_trip(
    path: PathBuf,
    write: impl FnOnce(&std::path::Path) -> Result<(), String>,
    read: impl FnOnce(&std::path::Path, &str) -> Result<(), String>,
) -> RoundTrip {
    let t = Instant::now();
    let written = write(&path);
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let body = std::fs::read_to_string(&path).map_err(|e| e.to_string());
    let parsed = body
        .as_deref()
        .map_err(Clone::clone)
        .and_then(|b| read(&path, b));
    let read_s = t.elapsed().as_secs_f64();
    RoundTrip {
        bytes: body.as_ref().map_or(0, |b| b.len() as u64),
        write_s,
        read_s,
        outcome: written
            .and(parsed)
            .and_then(|()| body.map(|b| digest::of_bytes(b.as_bytes()))),
    }
}

impl Sample {
    /// Add an artifact round trip to the I/O totals and count it as one
    /// operation.
    fn account(&mut self, checks: &mut Checks, key: &str, rt: RoundTrip) {
        self.io_bytes += rt.bytes;
        self.serialize_s += rt.write_s;
        self.parse_s += rt.read_s;
        match rt.outcome {
            Ok(d) => checks.output(key, d, Ok(())),
            Err(e) => checks.op(key, Err(e)),
        }
    }
}

/// Write `table` as `repro` does (`<id>.json`) and read it back.
fn table_round_trip(ctx: &Ctx, table: &Table) -> RoundTrip {
    round_trip(
        ctx.out_dir.join(format!("{}.json", table.id)),
        |_| table.save_json(&ctx.out_dir).map_err(|e| e.to_string()),
        |_, body| {
            let back: Table = serde_json::from_str(body).map_err(|e| e.to_string())?;
            if serde_json::to_string_pretty(&back).map_err(|e| e.to_string())? != body {
                return Err("table changed in the round trip".to_string());
            }
            if back.rows.iter().take(10).any(|r| r[1] != "1.000") {
                return Err("Homogen-DDR3 column is not the normalisation base".to_string());
            }
            Ok(())
        },
    )
}

impl Workload for ReproQuick {
    fn run(&self, ctx: &Ctx, checks: &mut Checks) -> Sample {
        let p = Pipeline::quick();
        let t = Instant::now();
        let apps: Vec<&'static str> = suite().iter().map(|a| a.name).collect();
        let off = offline(&p, &apps, inputs(ctx.seed).0, ctx.jobs);
        let machines = ReproQuick::machines(ctx, &p, &off.classified);
        let setup_s = t.elapsed().as_secs_f64();

        let cpu0 = process_cpu_s();
        let t = Instant::now();
        let specs: Vec<&MachineSpec> = machines.iter().map(|(_, s)| s).collect();
        let runs = parallel_map_with(Some(ctx.jobs), &specs, |s| {
            evaluate(s, p.eval_warmup, p.eval_instrs)
        });
        let eval_s = t.elapsed().as_secs_f64();
        let mut results = BTreeMap::new();
        let mut build_s = 0.0;
        for ((key, spec), run) in machines.iter().zip(runs) {
            match run {
                Ok((r, b)) => {
                    build_s += b;
                    checks.output(key, digest::of_run(&r), sanity(&r, 1, p.eval_instrs));
                    let mut parts = key.split('/').skip(1);
                    let sys = parts.next().unwrap_or_default().to_string();
                    results.insert((sys, spec.apps[0].to_string()), r);
                }
                Err(e) => checks.op(key, Err(e)),
            }
        }
        let mut s = Sample::default();
        if results.len() == machines.len() {
            let (fig8, fig9) = fig8_fig9(&results);
            for table in [&fig8, &fig9] {
                let key = format!("repro-quick/{}.json", table.id);
                s.account(checks, &key, table_round_trip(ctx, table));
            }
        }
        Sample {
            setup_s,
            wall_s: t.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - cpu0,
            instrs: machines.len() as u64 * (p.eval_warmup + p.eval_instrs),
            profile_s: off.profile_s,
            classify_s: off.classify_s,
            build_s: build_s / machines.len() as f64,
            eval_s,
            ..s
        }
    }

    fn trace(&self, ctx: &Ctx, checks: &mut Checks) -> TraceSample {
        let p = Pipeline::quick();
        let apps: Vec<&'static str> = suite().iter().map(|a| a.name).collect();
        let off = offline(&p, &apps, inputs(ctx.seed).0, ctx.jobs);
        let machines = ReproQuick::machines(ctx, &p, &off.classified);
        let (keys, specs): (Vec<String>, Vec<MachineSpec>) = machines.into_iter().unzip();
        let t = Instant::now();
        let runs = parallel_map_with(Some(ctx.jobs), &specs, |s| {
            evaluate(s, p.eval_warmup, p.eval_instrs).map(|(r, _)| digest::of_run(&r))
        });
        let untraced_eval_s = t.elapsed().as_secs_f64();
        let expect: Vec<u64> = runs.into_iter().map(|r| r.unwrap_or(0)).collect();
        TraceSample {
            untraced_eval_s,
            ..trace_specs(
                ctx,
                checks,
                &keys,
                &specs,
                &expect,
                p.eval_warmup,
                p.eval_instrs,
            )
        }
    }
}

// ---------------------------------------------------------------- moca-heter4

/// One paper-scale MOCA evaluation: mcf, lbm, gcc and sift on Heter
/// config1 under MOCA, Full lengths, after profiling the four apps.
struct MocaHeter4;

impl MocaHeter4 {
    fn machine(ctx: &Ctx, p: &Pipeline) -> (Offline, MachineSpec) {
        let off = offline(p, &HETER4_APPS, inputs(ctx.seed).0, ctx.jobs);
        let spec = MachineSpec::new(
            &HETER4_APPS,
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1()),
            PolicyKind::Moca,
            &off.classified,
            inputs(ctx.seed).1,
            p.profile_cfg.capacity_scale,
        );
        (off, spec)
    }
}

impl Workload for MocaHeter4 {
    fn run(&self, ctx: &Ctx, checks: &mut Checks) -> Sample {
        let p = Pipeline::new();
        let t = Instant::now();
        let (off, spec) = MocaHeter4::machine(ctx, &p);
        let tb = Instant::now();
        let sys = catch_unwind(AssertUnwindSafe(|| {
            System::new(spec.cfg.clone(), spec.launches(), spec.policy_box())
        }));
        let build_s = tb.elapsed().as_secs_f64();
        let setup_s = t.elapsed().as_secs_f64();

        let cpu0 = process_cpu_s();
        let t = Instant::now();
        let run = sys.map_err(panic_message).and_then(|mut sys| {
            catch_unwind(AssertUnwindSafe(|| {
                sys.run_warmed(p.eval_warmup, p.eval_instrs)
            }))
            .map_err(panic_message)
        });
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        let key = "moca-heter4/run";
        match run {
            Ok(r) => checks.output(key, digest::of_run(&r), sanity(&r, 4, p.eval_instrs)),
            Err(e) => checks.op(key, Err(e)),
        }
        Sample {
            setup_s,
            wall_s,
            cpu_s,
            instrs: 4 * (p.eval_warmup + p.eval_instrs),
            profile_s: off.profile_s,
            classify_s: off.classify_s,
            build_s,
            eval_s: wall_s,
            ..Sample::default()
        }
    }

    fn trace(&self, ctx: &Ctx, checks: &mut Checks) -> TraceSample {
        let p = Pipeline::new();
        let (_, spec) = MocaHeter4::machine(ctx, &p);
        let t = Instant::now();
        let want =
            evaluate(&spec, p.eval_warmup, p.eval_instrs).map_or(0, |(r, _)| digest::of_run(&r));
        let untraced_eval_s = t.elapsed().as_secs_f64();
        let keys = ["moca-heter4/run".to_string()];
        TraceSample {
            untraced_eval_s,
            ..trace_specs(
                ctx,
                checks,
                &keys,
                &[spec],
                &[want],
                p.eval_warmup,
                p.eval_instrs,
            )
        }
    }
}

// ------------------------------------------------------------------- trace-io

/// Observed evaluations as `repro --trace` and `repro explain` run them
/// (attribution on, ring sink, metrics windows): the exemplar app on each
/// heterogeneous layout, each run's Chrome trace, `moca-explain/v1` report
/// and the profile sidecar exported and read back through `serde_json`.
struct TraceIo;

impl TraceIo {
    fn machines(ctx: &Ctx, p: &Pipeline) -> (Offline, Vec<(&'static str, MachineSpec)>) {
        let off = offline(p, &[TRACE_APP], inputs(ctx.seed).0, 1);
        let machines = trace_layouts()
            .into_iter()
            .map(|(label, layout)| {
                let spec = MachineSpec::new(
                    &[TRACE_APP],
                    MemSystemConfig::Heterogeneous(layout),
                    PolicyKind::Moca,
                    &off.classified,
                    inputs(ctx.seed).1,
                    p.profile_cfg.capacity_scale,
                );
                (label, spec)
            })
            .collect();
        (off, machines)
    }
}

/// The layouts `trace-io` observes, by their `repro explain` labels.
fn trace_layouts() -> [(&'static str, HeterogeneousLayout); 3] {
    [
        ("heter1", HeterogeneousLayout::config1()),
        ("heter2", HeterogeneousLayout::config2()),
        ("heter3", HeterogeneousLayout::config3()),
    ]
}

/// Number of entries of the `traceEvents` array of a Chrome trace.
fn trace_event_count(v: &serde_json::Value) -> Option<usize> {
    let serde_json::Value::Object(fields) = v else {
        return None;
    };
    fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, v)| match v {
            serde_json::Value::Array(a) => Some(a.len()),
            _ => None,
        })
}

impl TraceIo {
    /// Export and read back the artifacts of one observed run; returns the
    /// round trips keyed by artifact name.
    fn artifacts(
        ctx: &Ctx,
        label: &str,
        res: &RunResult,
        tel: &mut Telemetry,
        classified: &[ClassifiedApp],
    ) -> Vec<(String, RoundTrip)> {
        let events = tel.drain_events();
        let trace = round_trip(
            ctx.out_dir.join(format!("trace_{label}.json")),
            |path| {
                write_chrome_trace(path, &events, &tel.registry, None).map_err(|e| e.to_string())
            },
            |_, body| {
                let v = serde_json::parse(body).map_err(|e| e.to_string())?;
                match trace_event_count(&v) {
                    Some(n) if n > events.len() => Ok(()),
                    _ => Err(format!(
                        "traceEvents missing or shorter than the {} events",
                        events.len()
                    )),
                }
            },
        );
        let spec = ExplainSpec {
            app: TRACE_APP.to_string(),
            mem: label.to_string(),
            ..ExplainSpec::default()
        };
        let json = to_json(&build_report(&spec, res, classified, true));
        let explain = round_trip(
            ctx.out_dir
                .join(format!("explain_{TRACE_APP}-{label}.json")),
            |path| std::fs::write(path, &json).map_err(|e| e.to_string()),
            |_, body| {
                let r: ExplainReport = serde_json::from_str(body).map_err(|e| e.to_string())?;
                if to_json(&r) == body {
                    Ok(())
                } else {
                    Err("explain report changed in the round trip".to_string())
                }
            },
        );
        vec![
            (format!("trace_{label}.json"), trace),
            (format!("explain_{label}.json"), explain),
        ]
    }
}

impl Workload for TraceIo {
    fn run(&self, ctx: &Ctx, checks: &mut Checks) -> Sample {
        let p = Pipeline::new();
        let t = Instant::now();
        let (off, machines) = TraceIo::machines(ctx, &p);
        let tb = Instant::now();
        let mut systems: Vec<(&str, System)> = machines
            .iter()
            .map(|(label, spec)| {
                let tel = Telemetry::with_sink(Box::new(RingSink::new(TRACE_RING_EVENTS)))
                    .with_window(TRACE_WINDOW_CYCLES);
                let mut sys = System::new_with_telemetry(
                    spec.cfg.clone(),
                    spec.launches(),
                    spec.policy_box(),
                    tel,
                );
                sys.enable_attribution();
                (*label, sys)
            })
            .collect();
        let build_s = tb.elapsed().as_secs_f64() / machines.len() as f64;
        let setup_s = t.elapsed().as_secs_f64();

        let cpu0 = process_cpu_s();
        let t = Instant::now();
        let mut s = Sample {
            setup_s,
            instrs: machines.len() as u64 * (p.eval_warmup + p.eval_instrs),
            profile_s: off.profile_s,
            classify_s: off.classify_s,
            build_s,
            ..Sample::default()
        };
        let mut trips = Vec::new();
        for (label, sys) in &mut systems {
            let key = format!("trace-io/{label}");
            let te = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| {
                sys.run_warmed(p.eval_warmup, p.eval_instrs)
            }))
            .map_err(panic_message);
            s.eval_s += te.elapsed().as_secs_f64();
            match run {
                Ok(res) => {
                    checks.output(&key, digest::of_run(&res), sanity(&res, 1, p.eval_instrs));
                    let mut tel = sys.take_telemetry();
                    s.tel_events += tel.events_recorded();
                    let done = TraceIo::artifacts(ctx, label, &res, &mut tel, &off.classified);
                    s.export_s += done.iter().map(|(_, rt)| rt.write_s).sum::<f64>();
                    trips.extend(done);
                }
                Err(e) => checks.op(&key, Err(e)),
            }
        }
        let lut = &off.luts[0];
        trips.push((
            format!("profile_{TRACE_APP}.json"),
            round_trip(
                ctx.out_dir.join(format!("profile_{TRACE_APP}.json")),
                |path| lut.save_json(path).map_err(|e| e.to_string()),
                |path, _| {
                    let back = ProfileLut::load_json(path).map_err(|e| e.to_string())?;
                    match (serde_json::to_string(lut), serde_json::to_string(&back)) {
                        (Ok(a), Ok(b)) if a == b => Ok(()),
                        _ => Err("profile sidecar changed in the round trip".to_string()),
                    }
                },
            ),
        ));
        for (name, rt) in trips {
            s.account(checks, &format!("trace-io/{name}"), rt);
        }
        s.wall_s = t.elapsed().as_secs_f64();
        s.cpu_s = process_cpu_s() - cpu0;
        s
    }

    fn trace(&self, ctx: &Ctx, checks: &mut Checks) -> TraceSample {
        let p = Pipeline::new();
        let (_, machines) = TraceIo::machines(ctx, &p);
        let (labels, specs): (Vec<&str>, Vec<MachineSpec>) = machines.into_iter().unzip();
        let keys: Vec<String> = labels.iter().map(|l| format!("trace-io/{l}")).collect();
        let t = Instant::now();
        let expect: Vec<u64> = specs
            .iter()
            .map(|s| {
                evaluate(s, p.eval_warmup, p.eval_instrs).map_or(0, |(r, _)| digest::of_run(&r))
            })
            .collect();
        let untraced_eval_s = t.elapsed().as_secs_f64();
        TraceSample {
            untraced_eval_s,
            ..trace_specs(
                &Ctx {
                    jobs: 1,
                    ..ctx.clone()
                },
                checks,
                &keys,
                &specs,
                &expect,
                p.eval_warmup,
                p.eval_instrs,
            )
        }
    }
}
