//! FNV-1a digests of run results and artifacts, and the pinned values they
//! are checked against on the default seed.

use moca_sim::metrics::RunResult;

/// FNV-1a 64-bit running hash, the family `tests/golden_digest.rs` uses.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hash raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash one little-endian word.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a byte string.
pub fn of_bytes(bytes: &[u8]) -> u64 {
    let mut d = Fnv::default();
    d.bytes(bytes);
    d.finish()
}

/// Digest of every integer field of a run that the simulation determines
/// (the field set of the golden digests).
pub fn of_run(r: &RunResult) -> u64 {
    let mut d = Fnv::default();
    d.word(r.runtime_cycles);
    for c in &r.per_core {
        for v in [
            c.stats.committed,
            c.stats.cycles,
            c.stats.head_stall_cycles,
            c.stats.loads,
            c.stats.stores,
            c.stats.mispredicts,
            c.stats.rob_full_cycles,
            c.stats.lq_full_cycles,
            c.finished_at,
        ] {
            d.word(v);
        }
    }
    d.word(r.mem.reads);
    d.word(r.mem.total_read_latency_cycles);
    for &l in &r.mem.per_core_read_latency {
        d.word(l);
    }
    for ch in &r.mem.channels {
        let s = &ch.stats;
        for v in [
            s.reads,
            s.writes,
            s.row_hits,
            s.activates,
            s.busy_cycles,
            s.read_queue_cycles,
            s.read_service_cycles,
            s.refreshes,
        ] {
            d.word(v);
        }
    }
    d.word(r.placement.total_pages());
    d.finish()
}

/// Digests pinned on the default seed, one `key value` pair per line
/// (`perfbench --emit-pins` prints them).
const PINS: &str = include_str!("../pins.txt");

/// The pinned digest for `key`, if any.
pub fn pinned(key: &str) -> Option<u64> {
    PINS.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == key).then(|| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok())?
    })
}
