//! Microbenchmarks for the simulation substrates: how fast the pieces
//! themselves run (simulator throughput, not simulated performance).
//!
//! Run with `cargo bench -p moca-bench --bench substrates`.

use moca_bench::microbench::Group;
use moca_cache::{CacheConfig, SetAssocCache};
use moca_common::ids::MemTag;
use moca_common::{AccessKind, CoreId, DetRng, LineAddr, ModuleKind, Segment};
use moca_dram::{Channel, ChannelConfig, DeviceTiming, MemRequest};
use moca_vm::{PageTable, Tlb};

fn bench_cache() {
    let mut g = Group::new("cache");
    g.throughput_elems(10_000);
    for (name, span) in [("hit-heavy", 400u64), ("miss-heavy", 1 << 20)] {
        let mut cache = SetAssocCache::new(CacheConfig::l2());
        let mut rng = DetRng::new(7, 7);
        g.bench(name, || {
            for _ in 0..10_000 {
                let line = LineAddr(rng.below(span));
                if !cache.access(line, false) {
                    cache.fill(line, false);
                }
            }
        });
    }
}

fn bench_dram_channel() {
    let mut g = Group::new("dram-channel");
    g.sample_size(20);
    for kind in ModuleKind::ALL {
        g.bench(&format!("stream-1k-reads/{}", kind.name()), || {
            let mut ch = Channel::new(ChannelConfig::new(DeviceTiming::for_kind(kind), 512 << 20));
            let mut now = 0u64;
            let mut sent = 0u64;
            let mut done = 0u64;
            let mut out = Vec::new();
            while done < 1000 {
                now += 1;
                while sent < 1000 && ch.can_accept(AccessKind::Read) {
                    ch.enqueue(
                        now,
                        MemRequest {
                            token: sent,
                            line: LineAddr(sent),
                            local_off: sent * 64,
                            kind: AccessKind::Read,
                            core: CoreId(0),
                            tag: MemTag::segment(Segment::Data),
                        },
                    );
                    sent += 1;
                }
                out.clear();
                ch.tick(now, &mut out);
                done += out.len() as u64;
            }
            now
        });
    }
}

fn bench_vm() {
    let mut g = Group::new("vm");
    g.throughput_elems(10_000);
    {
        let mut tlb = Tlb::new(64);
        for i in 0..64 {
            tlb.insert(i, i);
        }
        let mut rng = DetRng::new(3, 3);
        g.bench("tlb-lookup", || {
            let mut hits = 0u64;
            for _ in 0..10_000 {
                if tlb.lookup(rng.below(80)).is_some() {
                    hits += 1;
                }
            }
            hits
        });
    }
    {
        let mut pt = PageTable::new();
        for i in 0..4096 {
            pt.map(i, i * 2);
        }
        let mut rng = DetRng::new(4, 4);
        g.bench("page-table-translate", || {
            let mut sum = 0u64;
            for _ in 0..10_000 {
                sum += pt.translate_vpn(rng.below(4096)).unwrap();
            }
            sum
        });
    }
}

/// FNV-1a step over one pfn, matching the golden-digest hash family.
fn fnv1a(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Seeded alloc/free churn on a 4M-frame heterogeneous `FrameSpace` (four
/// regions of 1M frames, the scale=1 regime the hierarchical-bitmap
/// allocator exists for). Every iteration replays the same seeded op
/// sequence on a fresh space and must produce the same FNV fingerprint of
/// the pfn sequence; a mismatch is allocator nondeterminism.
fn bench_frames() {
    use moca_common::PAGE_SIZE;
    use moca_vm::frames::regions_from_capacities;
    use moca_vm::FrameSpace;

    const FRAMES_PER_REGION: u64 = 1 << 20;
    const OPS: u64 = 1_000_000;
    let caps: Vec<(ModuleKind, usize, u64)> = ModuleKind::ALL
        .iter()
        .enumerate()
        .map(|(ch, &k)| (k, ch, FRAMES_PER_REGION * PAGE_SIZE))
        .collect();
    // Rotations of the full kind order, so the churn exercises the
    // preference-fallback walk as well as the per-kind stripe state.
    let prefs: [[ModuleKind; 4]; 4] = std::array::from_fn(|r| {
        std::array::from_fn(|i| ModuleKind::ALL[(r + i) % ModuleKind::ALL.len()])
    });

    let mut g = Group::new("frames");
    g.sample_size(5).throughput_elems(OPS);
    let mut fingerprint: Option<u64> = None;
    g.bench("alloc-free-churn-4M-frames", || {
        let mut fs = FrameSpace::new(regions_from_capacities(&caps));
        let mut rng = DetRng::new(0xb17a_110c, 0);
        let mut live: Vec<u64> = Vec::new();
        let mut digest = 0xcbf29ce484222325u64;
        for _ in 0..OPS {
            // Roughly balanced churn with a bounded live set: enough
            // simultaneous frees per region to spill the LIFO cache.
            if !live.is_empty() && (live.len() >= 250_000 || rng.chance(0.45)) {
                let i = rng.below(live.len() as u64) as usize;
                let pfn = live.swap_remove(i);
                fs.free(pfn);
                digest = fnv1a(digest, pfn | 1 << 63);
            } else if let Some((pfn, _)) = fs.alloc_by_preference(&prefs[rng.below(4) as usize]) {
                live.push(pfn);
                digest = fnv1a(digest, pfn);
            }
        }
        assert_eq!(
            *fingerprint.get_or_insert(digest),
            digest,
            "frame churn iterations disagree on the pfn sequence: allocator nondeterminism"
        );
        let budget = fs.total_frames() / 4 + 64 * 1024;
        assert!(
            (fs.alloc_bytes() as u64) < budget,
            "allocator bookkeeping {} B not bitmap-bounded (budget {budget} B)",
            fs.alloc_bytes()
        );
        digest
    });
}

fn bench_workload_gen() {
    use moca_cpu::InstrStream;
    use moca_workloads::{app_by_name, AppRun, InputSet};
    let mut g = Group::new("workload-gen");
    g.throughput_elems(100_000);
    for app in ["mcf", "lbm", "gcc"] {
        let spec = app_by_name(app);
        let sizes = moca_workloads::gen::scaled_sizes(&spec, InputSet::reference(), 1.0 / 64.0);
        let mut bases = Vec::new();
        let mut cur = 0x2000_0000u64;
        for s in sizes {
            bases.push(moca_common::VirtAddr(cur));
            cur += s;
        }
        let mut run = AppRun::new(
            &spec,
            InputSet::reference(),
            1.0 / 64.0,
            &bases,
            moca_common::VirtAddr(0x7000_0000),
            0,
        );
        g.bench(app, || {
            let mut loads = 0u64;
            for _ in 0..100_000 {
                if matches!(run.next_instr(), Some(moca_cpu::Instr::Load { .. })) {
                    loads += 1;
                }
            }
            loads
        });
    }
}

fn bench_full_system() {
    use moca_sim::config::{MemSystemConfig, SystemConfig};
    use moca_sim::system::{AppLaunch, System};
    use moca_vm::policy::FirstTouchPolicy;
    use moca_workloads::{app_by_name, InputSet};
    let mut g = Group::new("full-system");
    g.sample_size(10);
    for app in ["lbm", "gcc"] {
        g.bench(&format!("simulate-50k-instrs-{app}"), || {
            let cfg = SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
            let launch = AppLaunch::untyped(app_by_name(app), InputSet::reference());
            let mut sys = System::new(cfg, vec![launch], Box::new(FirstTouchPolicy));
            sys.run(50_000).runtime_cycles
        });
    }
}

fn main() {
    bench_cache();
    bench_dram_channel();
    bench_vm();
    bench_frames();
    bench_workload_gen();
    bench_full_system();
}
