//! Set-associative write-back cache with true LRU replacement.

use moca_common::addr::{LineAddr, CACHE_LINE_SIZE};
use moca_common::units::narrow_usize;
use moca_common::{Cycle, KB};
use serde::{Deserialize, Serialize};

/// Static configuration of one cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Human-readable name for reports ("L1D", "L2", ...).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Hit latency in cycles.
    pub hit_latency: Cycle,
    /// Number of MSHRs (outstanding primary misses).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Table I L1 data cache: 64 KB, 2-way, 2 cycles, 4 MSHRs.
    pub fn l1d() -> CacheConfig {
        CacheConfig {
            name: "L1D",
            size_bytes: 64 * KB,
            ways: 2,
            hit_latency: 2,
            mshrs: 4,
        }
    }

    /// Table I L1 instruction cache: 64 KB, 2-way, 2 cycles, 4 MSHRs.
    pub fn l1i() -> CacheConfig {
        CacheConfig {
            name: "L1I",
            size_bytes: 64 * KB,
            ways: 2,
            hit_latency: 2,
            mshrs: 4,
        }
    }

    /// Table I unified L2: 512 KB, 16-way, 20 cycles, 20 MSHRs.
    pub fn l2() -> CacheConfig {
        CacheConfig {
            name: "L2",
            size_bytes: 512 * KB,
            ways: 16,
            hit_latency: 20,
            mshrs: 20,
        }
    }

    /// Number of sets implied by the capacity/ways/line size.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (CACHE_LINE_SIZE * self.ways as u64)
    }
}

/// An evicted line that must be written back (it was dirty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Whether it was dirty (needs a writeback to the next level).
    pub dirty: bool,
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand accesses (loads + stores).
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines evicted (any state).
    pub evictions: u64,
    /// Dirty evictions (writebacks generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        moca_common::stats::safe_div(self.misses as f64, self.accesses as f64)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp: larger = more recently used.
    used: u64,
}

/// The cache proper.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: Vec<Way>,
    set_count: u64,
    /// `set_count - 1`; the set count is asserted to be a power of two, so
    /// set selection is a mask and tag extraction a shift (and rebuilding
    /// an evicted line's address the reverse). `index` runs on every demand
    /// access at every level and `fill` on every miss, where a 64-bit
    /// divide is measurable.
    set_mask: u64,
    set_shift: u32,
    ways: usize,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build an empty cache. Panics if the geometry is degenerate.
    pub fn new(cfg: CacheConfig) -> SetAssocCache {
        let set_count = cfg.sets();
        assert!(
            set_count > 0 && set_count.is_power_of_two(),
            "bad set count"
        );
        let ways = cfg.ways as usize;
        assert!(ways > 0);
        SetAssocCache {
            sets: vec![Way::default(); (set_count as usize) * ways],
            set_count,
            set_mask: set_count - 1,
            set_shift: set_count.trailing_zeros(),
            ways,
            clock: 0,
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn index(&self, line: LineAddr) -> (usize, u64) {
        let set = narrow_usize(line.0 & self.set_mask);
        let tag = line.0 >> self.set_shift;
        (set * self.ways, tag)
    }

    /// Demand access. Returns `true` on hit; on a hit, LRU is updated and
    /// `write` marks the line dirty. On a miss only the statistics change —
    /// the caller drives the fill via [`SetAssocCache::fill`] once the data
    /// arrives (write-allocate).
    pub fn access(&mut self, line: LineAddr, write: bool) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let (base, tag) = self.index(line);
        for w in &mut self.sets[base..base + self.ways] {
            if w.valid && w.tag == tag {
                w.used = self.clock;
                w.dirty |= write;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Probe without updating LRU or statistics.
    pub fn contains(&self, line: LineAddr) -> bool {
        let (base, tag) = self.index(line);
        self.sets[base..base + self.ways]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Install `line` (after a miss). `dirty` marks a write-allocate fill.
    /// Returns the victim if a valid line had to be evicted.
    ///
    /// Filling a line that is already present just refreshes its state (this
    /// happens when an MSHR merged multiple requests to the line).
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Victim> {
        self.clock += 1;
        let (base, tag) = self.index(line);
        // Already present: refresh.
        let clock = self.clock;
        for w in &mut self.sets[base..base + self.ways] {
            if w.valid && w.tag == tag {
                w.used = clock;
                w.dirty |= dirty;
                return None;
            }
        }
        // Choose an invalid way, else the LRU way.
        let set = &mut self.sets[base..base + self.ways];
        let mut victim_i = 0;
        let mut best_used = u64::MAX;
        for (i, w) in set.iter().enumerate() {
            if !w.valid {
                victim_i = i;
                break;
            }
            if w.used < best_used {
                best_used = w.used;
                victim_i = i;
            }
        }
        let w = &mut set[victim_i];
        let victim = if w.valid {
            self.stats.evictions += 1;
            if w.dirty {
                self.stats.writebacks += 1;
            }
            Some(Victim {
                line: LineAddr((w.tag << self.set_shift) | (line.0 & self.set_mask)),
                dirty: w.dirty,
            })
        } else {
            None
        };
        *w = Way {
            tag,
            valid: true,
            dirty,
            used: self.clock,
        };
        victim
    }

    /// Accept a writeback from the level above: mark the line dirty if
    /// present, otherwise install it dirty (non-inclusive fallback). Does
    /// not count as a demand access. Returns a victim if installing evicted
    /// a valid line.
    pub fn writeback(&mut self, line: LineAddr) -> Option<Victim> {
        let (base, tag) = self.index(line);
        self.clock += 1;
        let clock = self.clock;
        for w in &mut self.sets[base..base + self.ways] {
            if w.valid && w.tag == tag {
                w.dirty = true;
                w.used = clock;
                return None;
            }
        }
        self.fill(line, true)
    }

    /// Remove `line` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (base, tag) = self.index(line);
        for w in &mut self.sets[base..base + self.ways] {
            if w.valid && w.tag == tag {
                w.valid = false;
                return Some(w.dirty);
            }
        }
        None
    }

    /// Number of valid lines currently resident (test/debug helper).
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().filter(|w| w.valid).count()
    }

    /// Addresses of all currently resident lines (test/inspection helper).
    pub fn resident_addrs(&self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for set in 0..self.set_count {
            let base = (set as usize) * self.ways;
            for w in &self.sets[base..base + self.ways] {
                if w.valid {
                    out.push(LineAddr(w.tag * self.set_count + set));
                }
            }
        }
        out
    }

    /// Invalidate every line for which `pred` holds (e.g. all lines of a
    /// migrated physical page), returning the dirty ones so the caller can
    /// write their data back. Used by the OS page-migration path; a full
    /// scan is fine at migration-epoch frequency.
    pub fn invalidate_matching<F: Fn(LineAddr) -> bool>(&mut self, pred: F) -> Vec<Victim> {
        let mut dirty = Vec::new();
        for set in 0..self.set_count {
            let base = (set as usize) * self.ways;
            for w in &mut self.sets[base..base + self.ways] {
                if !w.valid {
                    continue;
                }
                let line = LineAddr(w.tag * self.set_count + set);
                if pred(line) {
                    w.valid = false;
                    if w.dirty {
                        dirty.push(Victim { line, dirty: true });
                    }
                }
            }
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(CacheConfig {
            name: "tiny",
            size_bytes: 512,
            ways: 2,
            hit_latency: 1,
            mshrs: 4,
        })
    }

    /// Address that maps to `set` with tag `tag` for the tiny cache.
    fn line(set: u64, tag: u64) -> LineAddr {
        LineAddr(tag * 4 + set)
    }

    #[test]
    fn table1_geometries() {
        assert_eq!(CacheConfig::l1d().sets(), 512);
        assert_eq!(CacheConfig::l2().sets(), 512);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(line(0, 1), false));
        assert_eq!(c.fill(line(0, 1), false), None);
        assert!(c.access(line(0, 1), false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        c.fill(line(0, 1), false);
        c.fill(line(0, 2), false);
        // Touch tag 1 so tag 2 is LRU.
        assert!(c.access(line(0, 1), false));
        let v = c.fill(line(0, 3), false).expect("eviction");
        assert_eq!(v.line, line(0, 2));
        assert!(c.contains(line(0, 1)));
        assert!(c.contains(line(0, 3)));
        assert!(!c.contains(line(0, 2)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(line(0, 1), false);
        assert!(c.access(line(0, 1), true)); // dirty it
        c.fill(line(0, 2), false);
        let v = c.fill(line(0, 3), false).expect("eviction");
        assert_eq!(v.line, line(0, 1));
        assert!(v.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn fill_of_present_line_is_noop_eviction() {
        let mut c = tiny();
        c.fill(line(1, 5), false);
        assert_eq!(c.fill(line(1, 5), true), None);
        assert_eq!(c.resident_lines(), 1);
        // The refresh marked it dirty.
        c.fill(line(1, 6), false);
        let v = c.fill(line(1, 7), false).unwrap();
        assert!(v.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(line(2, 9), true);
        assert_eq!(c.invalidate(line(2, 9)), Some(true));
        assert_eq!(c.invalidate(line(2, 9)), None);
        assert!(!c.contains(line(2, 9)));
    }

    #[test]
    fn victim_reconstructed_address_maps_to_same_set() {
        let mut c = tiny();
        c.fill(line(3, 1), false);
        c.fill(line(3, 2), false);
        let v = c.fill(line(3, 9), false).unwrap();
        assert_eq!(v.line.0 % 4, 3, "victim must come from the same set");
    }

    #[test]
    fn writeback_marks_present_line_dirty() {
        let mut c = tiny();
        c.fill(line(0, 1), false);
        assert_eq!(c.writeback(line(0, 1)), None);
        c.fill(line(0, 2), false);
        let v = c.fill(line(0, 3), false).unwrap();
        assert_eq!(v.line, line(0, 1));
        assert!(v.dirty, "writeback should have dirtied the line");
    }

    #[test]
    fn writeback_installs_missing_line_dirty() {
        let mut c = tiny();
        assert_eq!(c.writeback(line(1, 4)), None);
        assert!(c.contains(line(1, 4)));
        c.fill(line(1, 5), false);
        let v = c.fill(line(1, 6), false).unwrap();
        assert!(v.dirty);
        // Writebacks are not demand accesses.
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn invalidate_matching_returns_dirty_lines() {
        let mut c = tiny();
        c.fill(line(0, 1), true); // dirty
        c.fill(line(1, 1), false); // clean
        c.fill(line(2, 9), true); // dirty, different "page"
        let dirty = c.invalidate_matching(|l| l == line(0, 1) || l == line(1, 1));
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].line, line(0, 1));
        assert!(!c.contains(line(0, 1)));
        assert!(!c.contains(line(1, 1)));
        assert!(c.contains(line(2, 9)), "unmatched line must survive");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        for s in 0..4 {
            c.fill(line(s, 7), false);
        }
        assert_eq!(c.resident_lines(), 4);
        for s in 0..4 {
            assert!(c.contains(line(s, 7)));
        }
    }
}
