//! Workspace-level gate for the global event wheel the step loop's skip
//! path is built on.
//!
//! **Wheel ≡ linear scan.** Under a seeded random workload of posts,
//! cancels, and time advances, `EventWheel::next_event_after` must agree
//! with the exhaustive per-component scan (`scan_min_after`) it replaced in
//! `System::step` — same cycle, and a component holding that cycle.
//! Whole-machine determinism is pinned separately by the golden digests.

use moca_common::wheel::EventWheel;
use moca_common::{Cycle, DetRng};

/// Seeded random op mix over a wheel and a shadow copy, checking the skip
/// query against the exhaustive scan after every mutation. Exercises ring
/// buckets, the overflow list (far-future posts), lazy stale entries
/// (re-posts and cancels), and monotonic time advances.
#[test]
fn wheel_matches_linear_scan_oracle() {
    const COMPONENTS: usize = 24;
    const OPS: usize = 30_000;
    let mut rng = DetRng::new(0x0e1e_c75e_ed00_0001, 7);
    let mut wheel = EventWheel::new(COMPONENTS);
    let mut now: Cycle = 0;
    for op in 0..OPS {
        match rng.below(10) {
            // Near posts land in the ring, far posts in the overflow list,
            // `Cycle::MAX` posts are cancels in disguise.
            0..=4 => {
                let comp = rng.below(COMPONENTS as u64) as usize;
                let cycle = match rng.below(20) {
                    0 => Cycle::MAX,
                    1..=2 => now + 1 + rng.below(100_000),
                    _ => now + 1 + rng.below(400),
                };
                wheel.post(comp, cycle);
            }
            5..=6 => {
                let comp = rng.below(COMPONENTS as u64) as usize;
                wheel.cancel(comp);
            }
            // Advance time; occasionally jump straight to the next event
            // the way the skip path does.
            _ => {
                now += match rng.below(4) {
                    0 => 1,
                    1 => rng.below(64) + 1,
                    _ => match wheel.scan_min_after(now) {
                        Some((c, _)) if c != Cycle::MAX => c - now,
                        _ => rng.below(512) + 1,
                    },
                };
            }
        }
        let got = wheel.next_event_after(now);
        let want = wheel.scan_min_after(now);
        match (got, want) {
            (None, None) => {}
            (Some((gc, gcomp)), Some((wc, _))) => {
                assert_eq!(
                    gc, wc,
                    "op {op}: wheel cycle {gc} != scan cycle {wc} at now={now}"
                );
                assert_eq!(
                    wheel.posted(gcomp),
                    gc,
                    "op {op}: wheel returned component {gcomp} which is not posted at {gc}"
                );
            }
            (g, w) => panic!("op {op}: wheel says {g:?}, scan says {w:?} at now={now}"),
        }
    }
}
