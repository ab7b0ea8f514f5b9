//! Translation lookaside buffer.

use moca_common::units::narrow_usize;
use serde::{Deserialize, Serialize};

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (page walk required).
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        moca_common::stats::safe_div(self.misses as f64, (self.hits + self.misses) as f64)
    }
}

/// Empty index bucket / end of the LRU list.
const NIL: usize = usize::MAX;

/// Fully-associative, exact-LRU TLB with O(1) lookup, insert and eviction.
///
/// Entries live in fixed slots (`vpns`/`pfns`). An open-addressing index
/// (linear probing, at least 4× the capacity so probes stay short, with
/// backward-shift deletion so no tombstones accumulate) maps a vpn to its
/// slot, and an intrusive doubly-linked list over the slots keeps them in
/// recency order: every hit and insert moves its slot to the head, and a
/// full TLB evicts the tail. Because each access is strictly later than the
/// one before, the tail is exactly the entry a "least recently used
/// timestamp" scan would pick, so hits, misses and victims are those of the
/// plain linear-scan LRU (the test module keeps that scan as the reference).
#[derive(Debug, Clone)]
pub struct Tlb {
    vpns: Vec<u64>,
    pfns: Vec<u64>,
    /// Neighbour towards the head (more recent) per slot; `NIL` at the head.
    prev: Vec<usize>,
    /// Neighbour towards the tail (less recent) per slot; `NIL` at the tail.
    next: Vec<usize>,
    /// Most recently used slot (`NIL` when empty).
    head: usize,
    /// Least recently used slot, the eviction victim (`NIL` when empty).
    tail: usize,
    /// vpn → slot, power-of-two sized; `NIL` marks an empty bucket.
    index: Vec<usize>,
    /// `64 - log2(index.len())`: the hash keeps the product's top bits.
    shift: u32,
    capacity: usize,
    stats: TlbStats,
}

impl Tlb {
    /// TLB with `capacity` entries.
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0);
        let buckets = (capacity * 4).next_power_of_two();
        Tlb {
            vpns: Vec::with_capacity(capacity),
            pfns: Vec::with_capacity(capacity),
            prev: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            index: vec![NIL; buckets],
            shift: 64 - buckets.trailing_zeros(),
            capacity,
            stats: TlbStats::default(),
        }
    }

    /// Look up a virtual page number, updating LRU and statistics.
    pub fn lookup(&mut self, vpn: u64) -> Option<u64> {
        match self.find(vpn) {
            Ok(b) => {
                let s = self.index[b];
                self.touch(s);
                self.stats.hits += 1;
                Some(self.pfns[s])
            }
            Err(_) => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a translation (after a page walk), evicting the LRU entry if
    /// full. Replaces any stale entry for the same vpn.
    pub fn insert(&mut self, vpn: u64, pfn: u64) {
        let bucket = match self.find(vpn) {
            Ok(b) => {
                let s = self.index[b];
                self.pfns[s] = pfn;
                self.touch(s);
                return;
            }
            Err(b) => b,
        };
        if self.vpns.len() < self.capacity {
            let s = self.vpns.len();
            self.vpns.push(vpn);
            self.pfns.push(pfn);
            self.prev.push(NIL);
            self.next.push(NIL);
            self.index[bucket] = s;
            self.push_front(s);
        } else {
            let s = self.tail;
            self.remove_from_index(self.vpns[s]);
            self.vpns[s] = vpn;
            self.pfns[s] = pfn;
            // The deletion may have shifted entries into the probe run, so
            // the free bucket for `vpn` is searched again.
            let (Ok(b) | Err(b)) = self.find(vpn);
            self.index[b] = s;
            self.touch(s);
        }
    }

    /// Drop all entries (context switch).
    pub fn flush(&mut self) {
        self.vpns.clear();
        self.pfns.clear();
        self.prev.clear();
        self.next.clear();
        self.head = NIL;
        self.tail = NIL;
        self.index.fill(NIL);
    }

    /// Statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Home bucket of `vpn` (Fibonacci hashing: the multiply spreads
    /// consecutive vpns, the top bits are the best mixed).
    fn home(&self, vpn: u64) -> usize {
        narrow_usize(vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift)
    }

    /// Bucket holding `vpn` (`Ok`), or the empty bucket ending its probe run
    /// (`Err`). The index is never more than a quarter full, so an empty
    /// bucket always exists.
    fn find(&self, vpn: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut b = self.home(vpn);
        loop {
            let s = self.index[b];
            if s == NIL {
                return Err(b);
            }
            if self.vpns[s] == vpn {
                return Ok(b);
            }
            b = (b + 1) & mask;
        }
    }

    /// Delete `vpn` from the index by backward shifting: each later entry
    /// of the probe run whose home bucket does not lie between the hole and
    /// itself moves back into the hole, so every remaining entry stays
    /// reachable from its home without tombstones.
    fn remove_from_index(&mut self, vpn: u64) {
        let mask = self.index.len() - 1;
        let Ok(mut hole) = self.find(vpn) else {
            return;
        };
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.index[j];
            if s == NIL {
                break;
            }
            let home = self.home(self.vpns[s]);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.index[hole] = s;
                hole = j;
            }
        }
        self.index[hole] = NIL;
    }

    /// Mark slot `s` most recently used.
    fn touch(&mut self, s: usize) {
        if self.head != s {
            self.unlink(s);
            self.push_front(s);
        }
    }

    fn unlink(&mut self, s: usize) {
        let (p, n) = (self.prev[s], self.next[s]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n] = p;
        }
    }

    fn push_front(&mut self, s: usize) {
        self.prev[s] = NIL;
        self.next[s] = self.head;
        if self.head == NIL {
            self.tail = s;
        } else {
            self.prev[self.head] = s;
        }
        self.head = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::rng::DetRng;

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(4);
        assert_eq!(t.lookup(1), None);
        t.insert(1, 100);
        assert_eq!(t.lookup(1), Some(100));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        t.lookup(1); // 2 becomes LRU
        t.insert(3, 30);
        assert_eq!(t.lookup(2), None);
        assert_eq!(t.lookup(1), Some(10));
        assert_eq!(t.lookup(3), Some(30));
    }

    #[test]
    fn reinsert_updates_mapping() {
        let mut t = Tlb::new(2);
        t.insert(1, 10);
        t.insert(1, 11);
        assert_eq!(t.lookup(1), Some(11));
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(2);
        t.insert(1, 10);
        t.flush();
        assert_eq!(t.lookup(1), None);
    }

    #[test]
    fn miss_rate_computed() {
        let mut t = Tlb::new(2);
        t.lookup(5);
        t.insert(5, 1);
        t.lookup(5);
        assert!((t.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    /// The linear-scan LRU the indexed TLB replaced: a per-entry "last
    /// used" timestamp from a clock bumped by every lookup and insert, a
    /// `position` scan for the vpn, and eviction of the minimum timestamp.
    struct ScanLru {
        entries: Vec<(u64, u64, u64)>,
        capacity: usize,
        clock: u64,
        stats: TlbStats,
    }

    impl ScanLru {
        fn new(capacity: usize) -> ScanLru {
            ScanLru {
                entries: Vec::new(),
                capacity,
                clock: 0,
                stats: TlbStats::default(),
            }
        }

        fn lookup(&mut self, vpn: u64) -> Option<u64> {
            self.clock += 1;
            match self.entries.iter().position(|e| e.0 == vpn) {
                Some(i) => {
                    self.entries[i].2 = self.clock;
                    self.stats.hits += 1;
                    Some(self.entries[i].1)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        /// Insert; returns the evicted vpn, if any.
        fn insert(&mut self, vpn: u64, pfn: u64) -> Option<u64> {
            self.clock += 1;
            if let Some(i) = self.entries.iter().position(|e| e.0 == vpn) {
                self.entries[i] = (vpn, pfn, self.clock);
                return None;
            }
            if self.entries.len() < self.capacity {
                self.entries.push((vpn, pfn, self.clock));
                return None;
            }
            let mut v = 0;
            for (j, e) in self.entries.iter().enumerate() {
                if e.2 < self.entries[v].2 {
                    v = j;
                }
            }
            let victim = self.entries[v].0;
            self.entries[v] = (vpn, pfn, self.clock);
            Some(victim)
        }

        fn flush(&mut self) {
            self.entries.clear();
        }
    }

    /// Seeded random lookup/insert/flush sequences drive the indexed TLB
    /// and the linear-scan reference side by side; every lookup result,
    /// every eviction victim (observed as the resident vpn set) and the
    /// final statistics must agree.
    #[test]
    fn matches_linear_scan_lru_reference() {
        for (capacity, vpn_range) in [
            (1, 1),
            (1, 4),
            (2, 1),
            (2, 7),
            (3, 2),
            (3, 11),
            (64, 40),
            (64, 200),
            (64, 5000),
        ] {
            let mut tlb = Tlb::new(capacity);
            let mut reference = ScanLru::new(capacity);
            let mut rng = DetRng::new(capacity as u64, vpn_range);
            for op in 0..120_000u64 {
                let vpn = rng.below(vpn_range) * 0x1_0000 + 7;
                match rng.below(1000) {
                    0 => {
                        tlb.flush();
                        reference.flush();
                    }
                    r if r < 400 => {
                        let pfn = rng.below(1 << 40);
                        let victim = reference.insert(vpn, pfn);
                        tlb.insert(vpn, pfn);
                        if let Some(v) = victim {
                            assert!(
                                !tlb.vpns.contains(&v) && tlb.vpns.contains(&vpn),
                                "cap {capacity} range {vpn_range} op {op}: victim {v} differs"
                            );
                        }
                    }
                    _ => assert_eq!(
                        tlb.lookup(vpn),
                        reference.lookup(vpn),
                        "cap {capacity} range {vpn_range} op {op}: lookup({vpn})"
                    ),
                }
            }
            let (a, b) = (tlb.stats(), &reference.stats);
            assert_eq!((a.hits, a.misses), (b.hits, b.misses), "cap {capacity}");
            let mut resident: Vec<u64> = reference.entries.iter().map(|e| e.0).collect();
            let mut got = tlb.vpns.clone();
            resident.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, resident, "cap {capacity} range {vpn_range}");
        }
    }
}
