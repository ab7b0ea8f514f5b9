//! Global next-event table.
//!
//! Every component of the simulated machine (core pipelines, DRAM channels)
//! posts the cycle of its next self-scheduled event into one dense table
//! indexed by a stable component id. The event-skip path in `System::step`
//! then answers "when is the next event after `now`?" with one query.
//!
//! A machine has a handful of components (4 DRAM channels and 1 or 4
//! cores), so the query is a linear minimum over the table: a ring of
//! buckets, an overflow list or an occupancy bitmap would only add code.
//!
//! ## Determinism
//!
//! The answer is a pure function of the posted cycles: the earliest one
//! strictly after `now`, with the smallest component id winning a tie.
//! Posting order never changes it, so the table is safe on the simulated
//! path.

use crate::Cycle;

/// See the module docs.
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// Next-event cycle per component (`Cycle::MAX` = none).
    next: Vec<Cycle>,
}

impl EventWheel {
    /// A table for `components` ids, starting with no events posted.
    pub fn new(components: usize) -> EventWheel {
        EventWheel {
            next: vec![Cycle::MAX; components],
        }
    }

    /// Post component `comp`'s next event at `cycle` (`Cycle::MAX` cancels),
    /// replacing any previous posting.
    #[inline]
    pub fn post(&mut self, comp: usize, cycle: Cycle) {
        self.next[comp] = cycle;
    }

    /// Cancel any pending event for `comp`.
    #[inline]
    pub fn cancel(&mut self, comp: usize) {
        self.next[comp] = Cycle::MAX;
    }

    /// The earliest posted event strictly after `now` as `(cycle,
    /// component)`, without unposting it (the component re-posts when it
    /// reschedules). Ties prefer the smallest component id.
    pub fn next_event_after(&self, now: Cycle) -> Option<(Cycle, usize)> {
        let mut best: Option<(Cycle, usize)> = None;
        for (comp, &cyc) in self.next.iter().enumerate() {
            if cyc != Cycle::MAX && cyc > now && best.is_none_or(|(b, _)| cyc < b) {
                best = Some((cyc, comp));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_wheel_has_no_events() {
        let w = EventWheel::new(8);
        assert_eq!(w.next_event_after(0), None);
        assert_eq!(w.next_event_after(1_000_000), None);
    }

    #[test]
    fn post_and_query_returns_earliest() {
        let mut w = EventWheel::new(4);
        w.post(2, 10);
        w.post(1, 7);
        w.post(3, 10);
        assert_eq!(w.next_event_after(0), Some((7, 1)));
        assert_eq!(w.next_event_after(7), Some((10, 2)));
        assert_eq!(w.next_event_after(10), None);
    }

    #[test]
    fn repost_moves_event_without_duplicates() {
        let mut w = EventWheel::new(2);
        w.post(0, 5);
        w.post(0, 9);
        assert_eq!(w.next_event_after(0), Some((9, 0)));
        w.post(0, 3); // earlier than before
        assert_eq!(w.next_event_after(0), Some((3, 0)));
        assert_eq!(w.next_event_after(3), None);
    }

    #[test]
    fn cancel_removes_event() {
        let mut w = EventWheel::new(2);
        w.post(0, 5);
        w.post(1, 6);
        w.cancel(0);
        assert_eq!(w.next_event_after(0), Some((6, 1)));
        w.cancel(1);
        assert_eq!(w.next_event_after(0), None);
    }

    #[test]
    fn event_at_or_before_now_is_not_returned() {
        let mut w = EventWheel::new(2);
        w.post(0, 5);
        assert_eq!(w.next_event_after(5), None);
        assert_eq!(w.next_event_after(6), None);
        w.post(1, 100);
        assert_eq!(w.next_event_after(6), Some((100, 1)));
        // Queries do not consume events: an earlier `now` still sees both.
        assert_eq!(w.next_event_after(0), Some((5, 0)));
    }

    #[test]
    fn ties_prefer_smallest_component_id() {
        let mut w = EventWheel::new(5);
        w.post(4, 20);
        w.post(2, 20);
        w.post(3, 20);
        assert_eq!(w.next_event_after(0), Some((20, 2)));
    }
}
