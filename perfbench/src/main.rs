//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! [--emit-pins]`
//!
//! Untraced (`--trace 0`): repeats the workload for at least `S` seconds
//! (three iterations at least) and prints the medians of the end-to-end
//! metrics. Traced (`--trace 1`): one untraced iteration, then the measured
//! phase again under the traced driver, and prints the per-layer metrics.
//! The last stdout line is the result object; progress goes to stderr.
//! `--emit-pins` prints the digests of one default-seed iteration in
//! `pins.txt` format instead.

use moca_perfbench::spans::Layer;
use moca_perfbench::workloads::{by_name, Checks, Ctx, Sample, TraceSample, DEFAULT_SEED};
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    emit_pins: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
         [--out DIR] [--emit-pins]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench-work"),
        emit_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-pins" {
            a.emit_pins = true;
            continue;
        }
        let v = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} wants a value")));
        let num = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} wants a whole number, got {v:?}")))
        };
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = num(&v),
            "--seconds" => a.seconds = num(&v),
            "--trace" => a.trace = num(&v) != 0,
            "--out" => a.out = PathBuf::from(v),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    a
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end metrics: medians over the iterations.
fn end_to_end(samples: &[Sample]) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: fn(&Sample) -> f64| median(samples.iter().map(f).collect());
    vec![
        ("wall_s", med(|s| s.wall_s), "s"),
        ("setup_s", med(|s| s.setup_s), "s"),
        (
            "sim_mips",
            med(|s| s.instrs as f64 / s.wall_s / 1e6),
            "MIPS",
        ),
        ("cpu_s", med(|s| s.cpu_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Per-layer metrics of a traced run; `s` is the untraced iteration run
/// just before it.
fn per_layer(s: &Sample, t: &TraceSample, jobs: usize) -> Vec<(&'static str, f64, &'static str)> {
    let c = &t.counts;
    let kinstr = c.committed as f64 / 1e3;
    let kcycle = c.cycles as f64 / 1e3;
    let ns_per = |l: Layer, n: u64| ratio(t.self_of(l) as f64, n as f64);
    vec![
        ("moca.profile_s", s.profile_s, "s"),
        ("moca.classify_ms", s.classify_s * 1e3, "ms"),
        ("sim.build_ms", s.build_s * 1e3, "ms"),
        (
            "sim.loop_ns_per_step",
            ratio(t.loop_self_ns as f64, c.steps as f64),
            "ns",
        ),
        (
            "sim.steps_per_kcycle",
            ratio(c.steps as f64, kcycle),
            "steps/kcycle",
        ),
        (
            "sim.skip_ratio",
            ratio(c.skipped_cycles as f64, c.cycles as f64),
            "ratio",
        ),
        (
            "workloads.gen_ns_per_instr",
            ns_per(Layer::Gen, c.instrs),
            "ns",
        ),
        ("workloads.instrs", c.instrs as f64, "count"),
        (
            "cpu.tick_self_ns_per_instr",
            ns_per(Layer::Cpu, c.committed),
            "ns",
        ),
        (
            "cpu.ticks_per_kinstr",
            ratio(c.core_ticks as f64, kinstr),
            "ticks/kinstr",
        ),
        ("vm.translate_ns", ns_per(Layer::Vm, c.translations), "ns"),
        (
            "vm.translations_per_kinstr",
            ratio(c.translations as f64, kinstr),
            "1/kinstr",
        ),
        (
            "vm.tlb_miss_rate",
            ratio(c.tlb_misses as f64, c.tlb_lookups as f64),
            "ratio",
        ),
        ("vm.faults", c.faults as f64, "count"),
        ("vm.prefault_pages", c.prefault_pages as f64, "count"),
        (
            "cache.access_ns",
            ns_per(Layer::Cache, t.calls_of(Layer::Cache)),
            "ns",
        ),
        (
            "cache.l1d_miss_rate",
            ratio(c.l1d_misses as f64, c.l1d_accesses as f64),
            "ratio",
        ),
        (
            "cache.l2_mpki",
            ratio(c.l2_misses as f64, kinstr),
            "1/kinstr",
        ),
        (
            "cache.retry_ratio",
            ratio(c.retries as f64, c.port_calls as f64),
            "ratio",
        ),
        ("dram.tick_ns", ns_per(Layer::Dram, c.dram_ticks), "ns"),
        (
            "dram.ticks_per_kcycle",
            ratio(c.dram_ticks as f64, kcycle),
            "ticks/kcycle",
        ),
        (
            "dram.productive_tick_ratio",
            ratio(c.dram_productive_ticks as f64, c.dram_ticks as f64),
            "ratio",
        ),
        (
            "dram.row_hit_rate",
            ratio(t.row_hits as f64, t.dram_accesses as f64),
            "ratio",
        ),
        (
            "dram.read_latency_cyc",
            ratio(t.read_latency as f64, t.reads as f64),
            "cycles",
        ),
        ("wheel.op_ns", ns_per(Layer::Wheel, c.wheel_ops), "ns"),
        (
            "wheel.ops_per_kcycle",
            ratio(c.wheel_ops as f64, kcycle),
            "ops/kcycle",
        ),
        (
            "par.utilisation",
            ratio(s.cpu_s, s.wall_s * jobs as f64),
            "ratio",
        ),
        (
            "telemetry.overhead_pct",
            if s.tel_events > 0 {
                100.0 * ratio(s.eval_s - t.untraced_eval_s, t.untraced_eval_s)
            } else {
                0.0
            },
            "%",
        ),
        ("telemetry.events", s.tel_events as f64, "count"),
        ("telemetry.export_ms", s.export_s * 1e3, "ms"),
        (
            "io.parse_mb_s",
            ratio(s.io_bytes as f64 / 1e6, s.parse_s),
            "MB/s",
        ),
        (
            "io.serialize_mb_s",
            ratio(s.io_bytes as f64 / 1e6, s.serialize_s),
            "MB/s",
        ),
        ("io.bytes", s.io_bytes as f64, "bytes"),
        (
            "trace.overhead_pct",
            100.0 * ratio(t.wall_s - t.untraced_eval_s, t.untraced_eval_s),
            "%",
        ),
        (
            "trace.unattributed_pct",
            100.0 * ratio(t.loop_self_ns as f64, t.loop_wall_ns as f64),
            "%",
        ),
    ]
}

fn print_result(checks: &Checks, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed + u64::from(checks.attempted == 0),
        body.join(", ")
    );
}

fn main() {
    let args = parse_args();
    let workload = by_name(&args.workload)
        .unwrap_or_else(|| usage(&format!("unknown workload {:?}", args.workload)));
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        usage(&format!("cannot create {}: {e}", args.out.display()));
    }
    let ctx = Ctx {
        seed: args.seed,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir: args.out.clone(),
    };
    let mut checks = Checks::new(args.seed);
    let started = Instant::now();
    let log = |i: usize, s: &Sample| {
        eprintln!(
            "perfbench: {} seed {} iteration {i}: setup {:.3} s, wall {:.3} s, cpu {:.2} s",
            args.workload, args.seed, s.setup_s, s.wall_s, s.cpu_s
        )
    };
    let first = workload.run(&ctx, &mut checks);
    log(1, &first);

    if args.emit_pins {
        for (key, d) in &checks.seen {
            println!("{key} {d:#018x}");
        }
    } else if args.trace {
        let traced = workload.trace(&ctx, &mut checks);
        print_result(&checks, &per_layer(&first, &traced, ctx.jobs));
    } else {
        let mut samples = vec![first];
        let budget = Duration::from_secs(args.seconds);
        while samples.len() < 3 || started.elapsed() < budget {
            let s = workload.run(&ctx, &mut checks);
            log(samples.len() + 1, &s);
            samples.push(s);
        }
        eprintln!(
            "perfbench: {} iterations in {:.1} s",
            samples.len(),
            started.elapsed().as_secs_f64()
        );
        print_result(&checks, &end_to_end(&samples));
    }
    let _ = std::fs::remove_dir_all(&args.out);
}
