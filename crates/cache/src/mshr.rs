//! Miss Status Holding Registers.
//!
//! An MSHR file bounds the number of outstanding primary misses of a cache
//! (Table I: 4 for L1, 20 for L2) and merges secondary misses to the same
//! line. The MSHR count is what limits a core's memory-level parallelism —
//! the property the MOCA classifier measures through ROB-head stalls.
//!
//! The file is a fixed array of `capacity` slots searched linearly: with
//! 4–20 entries a scan over a flat array beats any tree or hash map, and
//! the search order never leaks into simulated behaviour (lookups are by
//! exact line, and the outcome of `on_miss`/`complete` is independent of
//! which slot a line occupies), so determinism is preserved without the
//! ordered map the rest of the simulator uses.

use moca_common::LineAddr;

/// Outcome of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated: the caller must forward the request to the
    /// next level.
    AllocatedPrimary,
    /// Merged into an existing entry for the same line: no new downstream
    /// request is needed.
    MergedSecondary,
    /// The file is full: the requester must stall and retry.
    Full,
}

/// Result of one pass over the file for a line: the slot that holds it,
/// else the first free slot (`None` when the file is full). Valid until the
/// file is next mutated; [`MshrFile::on_miss`] consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrProbe {
    /// The line has an outstanding entry in this slot.
    Pending(usize),
    /// The line has no entry; the first free slot, if any.
    Absent(Option<usize>),
}

/// One register: a line with its waiter list. Invalid slots keep their
/// waiter `Vec` so its allocation is reused for the lifetime of the file.
#[derive(Debug, Clone)]
struct Slot<W> {
    valid: bool,
    line: LineAddr,
    waiters: Vec<W>,
}

/// MSHR file with per-line waiter lists. `W` is the caller's waiter token
/// (e.g. a ROB slot or an upper-level transaction id).
#[derive(Debug, Clone)]
pub struct MshrFile<W> {
    slots: Vec<Slot<W>>,
    occupancy: usize,
    peak_occupancy: usize,
    merges: u64,
    full_stalls: u64,
}

impl<W> MshrFile<W> {
    /// Create a file with `capacity` primary-miss slots.
    pub fn new(capacity: usize) -> MshrFile<W> {
        assert!(capacity > 0);
        MshrFile {
            slots: (0..capacity)
                .map(|_| Slot {
                    valid: false,
                    line: LineAddr(0),
                    waiters: Vec::new(),
                })
                .collect(),
            occupancy: 0,
            peak_occupancy: 0,
            merges: 0,
            full_stalls: 0,
        }
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        self.slots.iter().position(|s| s.valid && s.line == line)
    }

    /// Look `line` up in one pass: its slot if it is outstanding, else the
    /// first free slot.
    pub fn probe(&self, line: LineAddr) -> MshrProbe {
        let mut free = None;
        for (i, s) in self.slots.iter().enumerate() {
            if !s.valid {
                free = free.or(Some(i));
            } else if s.line == line {
                return MshrProbe::Pending(i);
            }
        }
        MshrProbe::Absent(free)
    }

    /// Present a miss on `line` with waiter `w`. `probe` is
    /// [`MshrFile::probe`]'s result for `line`, taken with no mutation of
    /// the file since, so a caller that has checked for a merge does not
    /// scan the file again to allocate.
    pub fn on_miss(&mut self, probe: MshrProbe, line: LineAddr, w: W) -> MshrOutcome {
        debug_assert_eq!(probe, self.probe(line), "stale MSHR probe");
        let free = match probe {
            MshrProbe::Pending(i) => {
                self.slots[i].waiters.push(w);
                self.merges += 1;
                return MshrOutcome::MergedSecondary;
            }
            MshrProbe::Absent(None) => {
                debug_assert!(self.is_full(), "no free slot below capacity");
                self.full_stalls += 1;
                return MshrOutcome::Full;
            }
            MshrProbe::Absent(Some(free)) => free,
        };
        let slot = &mut self.slots[free];
        slot.valid = true;
        slot.line = line;
        slot.waiters.push(w);
        self.occupancy += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.occupancy);
        MshrOutcome::AllocatedPrimary
    }

    /// Complete the miss on `line`, returning its waiters (empty vec if the
    /// line had no entry — e.g. a prefetch or a duplicate completion).
    pub fn complete(&mut self, line: LineAddr) -> Vec<W> {
        let mut out = Vec::new();
        self.complete_into(line, &mut out);
        out
    }

    /// Allocation-free variant of [`MshrFile::complete`]: appends the
    /// waiters to `out`, preserving both `out`'s and the slot's capacity.
    /// This is the hot-path entry point (the fill path runs once per
    /// off-chip completion).
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<W>) {
        if let Some(i) = self.find(line) {
            let slot = &mut self.slots[i];
            slot.valid = false;
            out.append(&mut slot.waiters);
            self.occupancy -= 1;
        }
    }

    /// Whether `line` has an outstanding entry.
    pub fn pending(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Whether no further primary misses can be accepted.
    pub fn is_full(&self) -> bool {
        self.occupancy >= self.slots.len()
    }

    /// Current number of outstanding primary misses.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Highest occupancy seen.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Secondary misses merged.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Times a requester was turned away because the file was full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(m: &mut MshrFile<u32>, line: LineAddr, w: u32) -> MshrOutcome {
        m.on_miss(m.probe(line), line, w)
    }

    #[test]
    fn allocates_then_merges() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert_eq!(miss(&mut m, LineAddr(1), 10), MshrOutcome::AllocatedPrimary);
        assert_eq!(miss(&mut m, LineAddr(1), 11), MshrOutcome::MergedSecondary);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.merges(), 1);
        let waiters = m.complete(LineAddr(1));
        assert_eq!(waiters, vec![10, 11]);
        assert!(!m.pending(LineAddr(1)));
    }

    #[test]
    fn full_rejects_new_lines_but_merges_existing() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        miss(&mut m, LineAddr(1), 1);
        miss(&mut m, LineAddr(2), 2);
        assert!(m.is_full());
        assert_eq!(miss(&mut m, LineAddr(3), 3), MshrOutcome::Full);
        assert_eq!(miss(&mut m, LineAddr(2), 4), MshrOutcome::MergedSecondary);
        assert_eq!(m.full_stalls(), 1);
    }

    #[test]
    fn completion_frees_slot() {
        let mut m: MshrFile<u32> = MshrFile::new(1);
        miss(&mut m, LineAddr(7), 1);
        assert!(m.is_full());
        m.complete(LineAddr(7));
        assert_eq!(miss(&mut m, LineAddr(8), 2), MshrOutcome::AllocatedPrimary);
    }

    #[test]
    fn peak_occupancy_tracks_high_water() {
        let mut m: MshrFile<u32> = MshrFile::new(4);
        miss(&mut m, LineAddr(1), 1);
        miss(&mut m, LineAddr(2), 2);
        miss(&mut m, LineAddr(3), 3);
        m.complete(LineAddr(1));
        m.complete(LineAddr(2));
        assert_eq!(m.peak_occupancy(), 3);
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m: MshrFile<u32> = MshrFile::new(1);
        assert!(m.complete(LineAddr(99)).is_empty());
    }

    #[test]
    fn probe_reports_the_line_or_the_first_free_slot() {
        let mut m: MshrFile<u32> = MshrFile::new(3);
        assert_eq!(m.probe(LineAddr(1)), MshrProbe::Absent(Some(0)));
        miss(&mut m, LineAddr(1), 1);
        miss(&mut m, LineAddr(2), 2);
        miss(&mut m, LineAddr(3), 3);
        assert_eq!(m.probe(LineAddr(4)), MshrProbe::Absent(None));
        assert_eq!(m.probe(LineAddr(3)), MshrProbe::Pending(2));
        m.complete(LineAddr(2));
        assert_eq!(m.probe(LineAddr(3)), MshrProbe::Pending(2));
        assert_eq!(m.probe(LineAddr(4)), MshrProbe::Absent(Some(1)));
        assert_eq!(miss(&mut m, LineAddr(4), 4), MshrOutcome::AllocatedPrimary);
        assert_eq!(m.probe(LineAddr(4)), MshrProbe::Pending(1));
    }

    #[test]
    fn one_pass_misses_match_the_three_scan_reference() {
        // Reference: merge check, full check, then a scan for the first
        // free slot, each a pass of its own over `(line, waiters)` slots.
        let mut m: MshrFile<u32> = MshrFile::new(5);
        let mut reference: Vec<Option<(LineAddr, Vec<u32>)>> = vec![None; 5];
        let (mut merges, mut full_stalls) = (0, 0);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for w in 0..10_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = LineAddr(x % 9);
            let at = reference
                .iter()
                .position(|s| s.as_ref().is_some_and(|s| s.0 == line));
            if x & 0x300 == 0 {
                let waiters = at.and_then(|i| reference[i].take()).map(|s| s.1);
                assert_eq!(m.complete(line), waiters.unwrap_or_default());
                continue;
            }
            let expected = if let Some(i) = at {
                reference[i].as_mut().unwrap().1.push(w);
                merges += 1;
                MshrOutcome::MergedSecondary
            } else if reference.iter().all(Option::is_some) {
                full_stalls += 1;
                MshrOutcome::Full
            } else {
                let free = reference.iter().position(Option::is_none).unwrap();
                reference[free] = Some((line, vec![w]));
                MshrOutcome::AllocatedPrimary
            };
            assert_eq!(miss(&mut m, line, w), expected);
            // Same slot choice: the probe sees the line where the
            // reference put it.
            let slot = reference
                .iter()
                .position(|s| s.as_ref().is_some_and(|s| s.0 == line));
            if let Some(i) = slot {
                assert_eq!(m.probe(line), MshrProbe::Pending(i));
            }
        }
        assert_eq!((m.merges(), m.full_stalls()), (merges, full_stalls));
        assert!(merges > 0 && full_stalls > 0);
    }

    #[test]
    fn complete_into_appends_and_reuses_slot() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        miss(&mut m, LineAddr(1), 10);
        miss(&mut m, LineAddr(1), 11);
        let mut out = vec![9];
        m.complete_into(LineAddr(1), &mut out);
        assert_eq!(out, vec![9, 10, 11]);
        // The slot is free again and merges still work after reuse.
        assert_eq!(miss(&mut m, LineAddr(5), 1), MshrOutcome::AllocatedPrimary);
        assert_eq!(miss(&mut m, LineAddr(5), 2), MshrOutcome::MergedSecondary);
        assert_eq!(m.complete(LineAddr(5)), vec![1, 2]);
    }
}
