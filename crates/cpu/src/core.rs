//! The out-of-order engine.

use crate::instr::{Instr, InstrStream};
use crate::stats::CoreStats;
use moca_common::ids::MemTag;
use moca_common::units::narrow_usize;
use moca_common::{CoreId, Cycle, Segment, VirtAddr};
use moca_telemetry::attribution::{AttrSnapshot, CoreAttr, Mechanism};
use serde::{Deserialize, Serialize};
use std::num::NonZeroU64;

/// Microarchitectural parameters (Table I defaults).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Fetch/dispatch/issue/commit width.
    pub width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Front-end redirect penalty on a branch mispredict (stands in for the
    /// tournament predictor + 4K BTB of Table I).
    pub mispredict_penalty: Cycle,
    /// Base of the code segment for synthesized fetch PCs.
    pub code_base: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            width: 3,
            rob_entries: 84,
            lq_entries: 32,
            mispredict_penalty: 12,
            code_base: 0x0040_0000,
        }
    }
}

/// Reply of the memory hierarchy to a load or instruction fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemReply {
    /// Serviced by a cache: data ready at `ready_at`.
    Done {
        /// Completion cycle.
        ready_at: Cycle,
    },
    /// LLC miss: the request went toward DRAM and will be completed via
    /// [`Core::complete`] with `ticket`.
    Pending {
        /// Token the hierarchy will complete with.
        ticket: u64,
        /// True if this allocated a new L2 MSHR (a *primary* miss — the
        /// event hardware LLC-miss counters count); false when merged into
        /// an outstanding miss for the same line.
        primary: bool,
    },
    /// Structural hazard (MSHR or queue full): retry next cycle.
    Retry {
        /// True when the hazard was a full L2 MSHR file (as opposed to a
        /// full DRAM channel queue) — feeds the MSHR-full CPI bucket.
        mshr_full: bool,
    },
}

/// Reply to a store (fire-and-forget through the store buffer).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreReply {
    /// The store missed the LLC with a new MSHR allocation.
    pub primary_miss: bool,
}

/// Interface the core uses to reach its memory hierarchy.
pub trait MemPort {
    /// Issue a load.
    fn load(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> MemReply;
    /// Issue a store.
    fn store(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> StoreReply;
    /// Fetch an instruction line.
    fn ifetch(&mut self, now: Cycle, core: CoreId, va: VirtAddr) -> MemReply;
}

#[derive(Debug, Clone, Copy, Default)]
struct RobEntry {
    seq: u64,
    done: bool,
    ready_at: Cycle,
    is_load: bool,
    llc_miss: bool,
    tag: Option<MemTag>,
    /// Seq of the waiting load whose address depends on this entry, set
    /// when that load dispatches while this one is not yet done. There is
    /// at most one: a load depends on the previous load of its chain only.
    /// A dependent is always younger than its producer, so its seq is never
    /// zero.
    dependent: Option<NonZeroU64>,
}

/// A dispatched load that has not issued yet.
#[derive(Debug, Clone, Copy)]
struct WaitingLoad {
    seq: u64,
    va: VirtAddr,
    tag: MemTag,
    /// Producer of this load's address. Read only by the ROB-lookup
    /// oracles (`blocked_on_memory`, `next_local_event`) that cross-check
    /// `dep_at` in debug builds.
    dep_seq: Option<u64>,
    /// First cycle the dependency is resolved: 0 when there is none or the
    /// producer has committed, the producer's `ready_at` once it is done,
    /// and `Cycle::MAX` until then. A load at `Cycle::MAX` is *blocked* and
    /// parked in the ROB ring; [`Core::mark_done`] writes the producer's
    /// `ready_at` and moves it to the ready list.
    dep_at: Cycle,
}

/// The reorder buffer: a fixed power-of-two ring indexed by sequence
/// number. Seqs are handed out consecutively at dispatch and entries retire
/// in order, so the live entries are exactly seqs `head..tail` and entry
/// `seq` sits in slot `seq & mask`: a lookup is one range check and one
/// index. Beside each slot is the parking place of a blocked load (one
/// whose chain producer is still outstanding), indexed by the load's own
/// seq, so moving it to the ready list when the producer becomes done
/// takes no search.
struct Rob {
    slots: Box<[RobEntry]>,
    parked: Box<[Option<WaitingLoad>]>,
    mask: u64,
    head: u64,
    tail: u64,
}

impl Rob {
    fn new(entries: usize) -> Rob {
        let cap = entries.next_power_of_two();
        Rob {
            slots: vec![RobEntry::default(); cap].into_boxed_slice(),
            parked: vec![None; cap].into_boxed_slice(),
            mask: cap as u64 - 1,
            head: 0,
            tail: 0,
        }
    }

    fn slot(&self, seq: u64) -> usize {
        narrow_usize(seq & self.mask)
    }

    fn len(&self) -> usize {
        narrow_usize(self.tail - self.head)
    }

    fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    fn front(&self) -> Option<&RobEntry> {
        self.get(self.head)
    }

    /// Slot of entry `seq`, or `None` unless it is in flight (not yet
    /// dispatched, or already committed).
    fn index(&self, seq: u64) -> Option<usize> {
        (self.head..self.tail)
            .contains(&seq)
            .then(|| self.slot(seq))
    }

    fn get(&self, seq: u64) -> Option<&RobEntry> {
        let e = &self.slots[self.index(seq)?];
        debug_assert_eq!(e.seq, seq, "ROB slot does not hold its seq");
        Some(e)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let i = self.index(seq)?;
        let e = &mut self.slots[i];
        debug_assert_eq!(e.seq, seq, "ROB slot does not hold its seq");
        Some(e)
    }

    /// Append entry `e`, whose seq must be the next one.
    fn push_back(&mut self, e: RobEntry) {
        debug_assert_eq!(e.seq, self.tail, "ROB seqs must be consecutive");
        debug_assert!(self.len() < self.slots.len(), "ROB ring overflow");
        let i = self.slot(e.seq);
        self.slots[i] = e;
        self.tail += 1;
    }

    fn pop_front(&mut self) -> Option<RobEntry> {
        let e = *self.front()?;
        debug_assert!(
            self.parked[self.slot(e.seq)].is_none(),
            "a retiring entry still has a blocked load parked"
        );
        self.head += 1;
        Some(e)
    }

    /// Park blocked load `w` in its own ROB entry's slot.
    fn park(&mut self, w: WaitingLoad) {
        debug_assert!(
            self.get(w.seq).is_some(),
            "parked load {} not in the ROB",
            w.seq
        );
        let i = self.slot(w.seq);
        debug_assert!(self.parked[i].is_none(), "parking slot taken");
        self.parked[i] = Some(w);
    }

    /// Take the blocked load parked at `seq`, if any.
    fn unpark(&mut self, seq: u64) -> Option<WaitingLoad> {
        let i = self.slot(seq);
        let w = self.parked[i].take();
        debug_assert!(
            w.is_none_or(|w| w.seq == seq),
            "parking slot holds another seq"
        );
        w
    }

    /// Blocked loads in seq order, for the debug oracles.
    fn parked(&self) -> impl Iterator<Item = &WaitingLoad> + '_ {
        (self.head..self.tail).filter_map(|seq| self.parked[self.slot(seq)].as_ref())
    }
}

/// One simulated core.
pub struct Core {
    /// Core identifier (used on memory requests).
    pub id: CoreId,
    cfg: CoreConfig,
    rob: Rob,
    /// Waiting loads whose dependency-ready cycle is known, in seq order.
    /// Blocked loads (`dep_at == Cycle::MAX`) are parked in the ROB ring
    /// instead, so the per-tick scans never visit them.
    ready: Vec<WaitingLoad>,
    /// Outstanding miss tickets → ROB sequence numbers. A flat vector, not
    /// an ordered map: lookups are by exact ticket and the slot order is
    /// never observable, while the population (bounded by the L2 MSHR
    /// count) is small enough that a linear scan beats any tree.
    tickets: Vec<(u64, u64)>,
    ifetch_ticket: Option<u64>,
    lq_used: usize,
    next_seq: u64,
    /// Last load sequence number per dependence chain: an address-dependent
    /// load waits on the previous load *of its chain* (a pointer chase is
    /// one chain; unrelated loads interleaved by the OoO engine do not
    /// break it). Flat `(chain, seq)` pairs, exact-key lookups only.
    last_load_by_chain: Vec<(u16, u64)>,
    dispatch_blocked_until: Cycle,
    fetch_blocked_until: Cycle,
    pc: u64,
    fetched_line: u64,
    buffered: Option<Instr>,
    stream_done: bool,
    /// Cycle of the previous `tick` call, for event-skip-aware accounting.
    last_tick: Cycle,
    stats: CoreStats,
    /// CPI-stack attribution state; `None` (the default) costs one branch
    /// per tick and changes nothing else — runs are bit-identical.
    attr: Option<Box<CoreAttr>>,
}

impl Core {
    /// Build a core.
    pub fn new(id: CoreId, cfg: CoreConfig) -> Core {
        let pc = cfg.code_base;
        Core {
            id,
            rob: Rob::new(cfg.rob_entries),
            cfg,
            ready: Vec::new(),
            tickets: Vec::new(),
            ifetch_ticket: None,
            lq_used: 0,
            next_seq: 0,
            last_load_by_chain: Vec::new(),
            dispatch_blocked_until: 0,
            fetch_blocked_until: 0,
            pc,
            fetched_line: pc >> 6,
            buffered: None,
            stream_done: false,
            last_tick: 0,
            stats: CoreStats::default(),
            attr: None,
        }
    }

    /// Run statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Turn on CPI-stack attribution. Purely observational: the attributed
    /// buckets are computed from state the tick already inspects, so the
    /// simulated cycles are identical with or without it.
    pub fn enable_attribution(&mut self) {
        if self.attr.is_none() {
            self.attr = Some(Box::new(CoreAttr::new()));
        }
    }

    /// Current attribution state, if enabled.
    pub fn attr(&self) -> Option<&CoreAttr> {
        self.attr.as_deref()
    }

    /// Frozen attribution snapshot (pending stalls folded into the
    /// `unresolved` tier), if attribution is enabled.
    pub fn attr_snapshot(&self) -> Option<AttrSnapshot> {
        self.attr.as_deref().map(CoreAttr::snapshot)
    }

    /// Resolve the tier/mechanism of a completed load `ticket` (called by
    /// the system once the DRAM completion's serving channel is known).
    pub fn attr_resolve(&mut self, ticket: u64, tier: usize, mech: Mechanism) {
        if let Some(a) = self.attr.as_deref_mut() {
            a.resolve(ticket, tier, mech);
        }
    }

    /// Consume the statistics at end of run.
    pub fn into_stats(self) -> CoreStats {
        self.stats
    }

    /// Zero all statistics (end of a warmup/fast-forward phase, §V-A). The
    /// microarchitectural state (ROB contents, outstanding misses) is kept —
    /// only the counters restart.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
        if let Some(a) = self.attr.as_deref_mut() {
            a.reset();
        }
    }

    /// Whether the program has fully drained.
    pub fn finished(&self) -> bool {
        self.stream_done && self.rob.is_empty() && self.buffered.is_none()
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Outstanding load/store-fill tickets as `(ticket, rob_seq)` pairs —
    /// the requests this core is waiting on. Evidence for the event-skip
    /// deadlock report.
    pub fn outstanding_tickets(&self) -> &[(u64, u64)] {
        &self.tickets
    }

    /// The outstanding instruction-fetch ticket, if any.
    pub fn pending_ifetch_ticket(&self) -> Option<u64> {
        self.ifetch_ticket
    }

    /// Sequence number of the ROB head (the instruction the core must
    /// commit next), if the ROB is non-empty.
    pub fn rob_head_seq(&self) -> Option<u64> {
        self.rob.front().map(|e| e.seq)
    }

    /// Occupied ROB entries.
    pub fn rob_len(&self) -> usize {
        self.rob.len()
    }

    /// Whether the core is quiescent waiting only on outstanding memory
    /// (used for event skipping): no commit/dispatch possible before the
    /// earliest outstanding completion.
    pub fn blocked_on_memory(&self, now: Cycle) -> bool {
        if self.finished() {
            return false;
        }
        // Any committable entry at the head?
        if let Some(h) = self.rob.front() {
            if h.done && h.ready_at <= now {
                return false;
            }
        }
        // Any waiting load that might issue (dependency resolved)?
        for w in self.waiting_loads() {
            if self.dep_resolved(w.dep_seq, now) {
                return false;
            }
        }
        // Room to dispatch?
        if self.can_dispatch_something(now) {
            return false;
        }
        true
    }

    fn can_dispatch_something(&self, now: Cycle) -> bool {
        if self.stream_done && self.buffered.is_none() {
            return false;
        }
        if self.dispatch_blocked_until > now
            || self.fetch_blocked_until > now
            || self.ifetch_ticket.is_some()
        {
            return false;
        }
        self.rob.len() < self.cfg.rob_entries
    }

    /// Earliest future cycle at which this core could make progress without
    /// an external memory completion, or `None` if only a completion can
    /// unblock it.
    pub fn next_local_event(&self, now: Cycle) -> Option<Cycle> {
        let mut best: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            if c > now {
                best = Some(best.map_or(c, |b: Cycle| b.min(c)));
            }
        };
        if let Some(h) = self.rob.front() {
            if h.done {
                consider(h.ready_at);
            }
        }
        if self.dispatch_blocked_until > now {
            consider(self.dispatch_blocked_until);
        }
        if self.fetch_blocked_until > now {
            consider(self.fetch_blocked_until);
        }
        for w in self.waiting_loads() {
            if let Some(dep) = w.dep_seq {
                if let Some(e) = self.rob.get(dep) {
                    if e.done {
                        consider(e.ready_at);
                    }
                }
            }
        }
        best
    }

    /// Every waiting load, ready then blocked: the set the ROB-lookup
    /// oracles walk.
    fn waiting_loads(&self) -> impl Iterator<Item = &WaitingLoad> + '_ {
        self.ready.iter().chain(self.rob.parked())
    }

    /// Combined scheduler query for the event-skip path: `None` when the
    /// core can make progress at `now` (equivalent to
    /// `!blocked_on_memory(now)`); otherwise `Some(e)` where `e` is the
    /// earliest core-local cycle that could unblock it, or `Cycle::MAX`
    /// when only a memory completion can. One pass over the ready loads
    /// instead of the two passes over every waiting load that calling
    /// [`Core::blocked_on_memory`] and [`Core::next_local_event`]
    /// separately would take; debug builds cross-check against both.
    pub fn sleep_state(&self, now: Cycle) -> Option<Cycle> {
        let state = self.sleep_state_impl(now);
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.ready.windows(2).all(|p| p[0].seq < p[1].seq),
                "ready loads out of seq order"
            );
            for w in self.rob.parked() {
                debug_assert!(
                    w.dep_seq
                        .and_then(|d| self.rob.get(d))
                        .is_some_and(|p| !p.done),
                    "blocked load {} has no outstanding producer",
                    w.seq
                );
            }
            debug_assert_eq!(
                state.is_some(),
                self.blocked_on_memory(now),
                "sleep_state blocked-bit diverged from blocked_on_memory"
            );
            if state.is_some() {
                debug_assert_eq!(
                    state,
                    Some(self.next_local_event(now).unwrap_or(Cycle::MAX)),
                    "sleep_state wake cycle diverged from next_local_event"
                );
            }
        }
        state
    }

    fn sleep_state_impl(&self, now: Cycle) -> Option<Cycle> {
        if self.finished() {
            return None;
        }
        let mut next = Cycle::MAX;
        if let Some(h) = self.rob.front() {
            if h.done {
                if h.ready_at <= now {
                    return None; // committable head
                }
                next = next.min(h.ready_at);
            }
        }
        // Blocked loads are not visited: their `dep_at` is `Cycle::MAX`,
        // which is never issuable and leaves `next` as is.
        for w in &self.ready {
            if w.dep_at <= now {
                return None; // issuable
            }
            next = next.min(w.dep_at);
        }
        if self.can_dispatch_something(now) {
            return None;
        }
        if self.dispatch_blocked_until > now {
            next = next.min(self.dispatch_blocked_until);
        }
        if self.fetch_blocked_until > now {
            next = next.min(self.fetch_blocked_until);
        }
        Some(next)
    }

    /// Mark ROB entry `seq` done with its result at `ready_at`, and publish
    /// that cycle to its blocked dependent, which moves to the ready list
    /// at its seq position. It still waits there: its `dep_at` is at least
    /// `ready_at`.
    fn mark_done(&mut self, seq: u64, ready_at: Cycle) {
        let Some(e) = self.rob.get_mut(seq) else {
            return;
        };
        e.done = true;
        e.ready_at = ready_at;
        let Some(d) = e.dependent.take() else { return };
        let parked = self.rob.unpark(d.get());
        debug_assert!(parked.is_some(), "dependent load {d} is not blocked");
        if let Some(mut w) = parked {
            w.dep_at = ready_at;
            let i = self.ready.partition_point(|r| r.seq < w.seq);
            self.ready.insert(i, w);
        }
    }

    fn dep_resolved(&self, dep: Option<u64>, now: Cycle) -> bool {
        match dep {
            None => true,
            Some(seq) => match self.rob.get(seq) {
                None => true, // already committed
                Some(e) => e.done && e.ready_at <= now,
            },
        }
    }

    /// Deliver a memory completion for `ticket` (LLC-missing load or ifetch).
    pub fn complete(&mut self, ticket: u64, now: Cycle) {
        if self.ifetch_ticket == Some(ticket) {
            self.ifetch_ticket = None;
            self.fetch_blocked_until = now.max(self.fetch_blocked_until);
            return;
        }
        if let Some(pos) = self.tickets.iter().position(|&(t, _)| t == ticket) {
            let (_, seq) = self.tickets.swap_remove(pos);
            if let Some(a) = self.attr.as_deref_mut() {
                // The skipped-window accounting in the next tick may still
                // need this ticket (the head load completed *at* `now`).
                a.note_completion(ticket, seq);
            }
            self.mark_done(seq, now);
        }
    }

    /// Ticket of the outstanding (or just-completed) load at ROB sequence
    /// `seq`, for attribution accrual.
    fn ticket_of_seq(&self, seq: u64) -> Option<u64> {
        self.tickets
            .iter()
            .find(|&&(_, s)| s == seq)
            .map(|&(t, _)| t)
            .or_else(|| {
                self.attr
                    .as_deref()
                    .and_then(|a| a.completed_ticket_of(seq))
            })
    }

    /// Advance to cycle `now`: commit, account head stalls, issue waiting
    /// loads, dispatch new instructions. The simulator may skip cycles when
    /// every core is blocked on memory (event skipping); accounting uses the
    /// real elapsed time so IPC and ROB-head stalls are exact.
    pub fn tick<P: MemPort, S: InstrStream>(&mut self, now: Cycle, port: &mut P, stream: &mut S) {
        self.tick_gated(now, 0, port, stream)
    }

    /// [`Core::tick`] for a wake-gated step loop. `skipped_live` is the
    /// number of cycles since the last tick on which the machine stepped
    /// but this core slept (an ungated loop would have ticked it; a
    /// globally event-skipped window passes 0, like [`Core::tick`]). The
    /// only architectural counter those omitted ticks would have touched
    /// beyond the skipped-window accounting below is the dispatch stage's
    /// ROB-full counter, reproduced here under the dispatch stage's own
    /// entry conditions — all invariant across a slept window.
    pub fn tick_gated<P: MemPort, S: InstrStream>(
        &mut self,
        now: Cycle,
        skipped_live: u64,
        port: &mut P,
        stream: &mut S,
    ) {
        let prev_tick = self.last_tick;
        let elapsed = now.saturating_sub(self.last_tick).max(1);
        self.last_tick = now;
        self.stats.cycles += elapsed;
        // Cycles skipped since the last tick were spent blocked; if the ROB
        // head was an incomplete LLC-missing load over that window (the only
        // state that triggers a skip), attribute the skipped stall cycles.
        if elapsed > 1 {
            let stalled = elapsed - 1;
            // Cycles on which the machine stepped while this core slept:
            // the dispatch stage would have entered (blocked-untils passed,
            // no fetch in flight) and charged its ROB-full counter before
            // discovering there was no room. The ROB, the in-flight fetch,
            // and the untils cannot change while the core sleeps, so the
            // per-cycle conditions hold for the whole window.
            if skipped_live > 0
                && self.rob.len() >= self.cfg.rob_entries
                && self.ifetch_ticket.is_none()
                && self.dispatch_blocked_until <= prev_tick
                && self.fetch_blocked_until <= prev_tick
            {
                self.stats.rob_full_cycles += skipped_live;
            }
            let head = self.rob.front().copied();
            let head_miss = head.is_some_and(|h| h.is_load && h.llc_miss);
            if head_miss {
                self.stats.head_stall_cycles += stalled;
                if let Some(tag) = head.and_then(|h| h.tag) {
                    self.stats.tags.get_mut(tag).rob_head_stall_cycles += stalled;
                }
            }
            if self.attr.is_some() {
                // Classify the skipped window under the same exclusivity
                // rule as a live cycle (pre-commit head state).
                let pending = head.and_then(|h| {
                    h.tag
                        .and_then(|tag| self.ticket_of_seq(h.seq).map(|t| (t, tag)))
                });
                let rob_empty = self.rob.is_empty();
                let rob_full = self.rob.len() >= self.cfg.rob_entries;
                if let Some(attr) = self.attr.as_deref_mut() {
                    if head_miss {
                        attr.buckets.load_miss += stalled;
                        if let Some((ticket, tag)) = pending {
                            attr.charge_load_miss(ticket, tag, stalled);
                        }
                    } else if rob_empty {
                        attr.buckets.frontend_empty += stalled;
                    } else if rob_full {
                        attr.buckets.rob_full += stalled;
                    } else {
                        attr.buckets.other += stalled;
                    }
                }
            }
        }

        // ---- Commit stage ----
        let mut committed_this_cycle = 0;
        while committed_this_cycle < self.cfg.width {
            if !self
                .rob
                .front()
                .is_some_and(|h| h.done && h.ready_at <= now)
            {
                break;
            }
            let Some(h) = self.rob.pop_front() else { break };
            if h.is_load {
                self.lq_used -= 1;
            }
            self.stats.committed += 1;
            committed_this_cycle += 1;
        }
        // ROB-head stall accounting: blocked on an incomplete missing load.
        let mut charged_head = None;
        if committed_this_cycle < self.cfg.width {
            if let Some(h) = self.rob.front() {
                if h.is_load && h.llc_miss && !(h.done && h.ready_at <= now) {
                    self.stats.head_stall_cycles += 1;
                    if let Some(tag) = h.tag {
                        self.stats.tags.get_mut(tag).rob_head_stall_cycles += 1;
                    }
                    charged_head = Some(*h);
                }
            }
        }
        let charged_load_miss = charged_head.is_some();
        if let Some(h) = charged_head {
            // ticket_of_seq consults the attribution state, so this is a
            // no-op on unattributed runs.
            if let Some((ticket, tag)) = h
                .tag
                .and_then(|tag| self.ticket_of_seq(h.seq).map(|t| (t, tag)))
            {
                if let Some(attr) = self.attr.as_deref_mut() {
                    attr.charge_load_miss(ticket, tag, 1);
                }
            }
        }

        // ---- Issue stage: ready loads whose dependencies resolved ----
        // Oldest first; blocked loads cannot issue and are not visited.
        let mut issued = 0;
        let mut i = 0;
        let mut mshr_retry = false;
        while i < self.ready.len() && issued < self.cfg.width {
            let w = self.ready[i];
            debug_assert_eq!(
                w.dep_at <= now,
                self.dep_resolved(w.dep_seq, now),
                "cached dependency-ready cycle diverged from the ROB lookup"
            );
            if w.dep_at > now {
                i += 1;
                continue;
            }
            match port.load(now, self.id, w.va, w.tag) {
                MemReply::Done { ready_at } => {
                    // A dependent moved to the ready list lands after `i`.
                    self.mark_done(w.seq, ready_at.max(now + 1));
                    self.ready.remove(i);
                    issued += 1;
                }
                MemReply::Pending { ticket, primary } => {
                    let s = self.stats.tags.get_mut(w.tag);
                    s.miss_loads += 1;
                    if primary {
                        s.llc_misses += 1;
                    }
                    if let Some(e) = self.rob.get_mut(w.seq) {
                        e.llc_miss = true;
                    }
                    self.tickets.push((ticket, w.seq));
                    self.ready.remove(i);
                    issued += 1;
                }
                MemReply::Retry { mshr_full } => {
                    // Structural hazard: stop issuing this cycle.
                    mshr_retry = mshr_full;
                    break;
                }
            }
        }

        // ---- Cycle attribution: exactly one bucket per cycle ----
        // Priority (DESIGN.md §10): the load-miss head stall charged above,
        // then MSHR-full back-pressure on an unissued head load, then a
        // productive (committing) cycle, then ROB-full / frontend-empty,
        // else the residual bucket. The skipped-window cycles were already
        // classified at the top of the tick, so the buckets sum to
        // `stats.cycles` exactly.
        if self.attr.is_some() {
            let head = self.rob.front().copied();
            // An issued head load is either done (hit) or llc_miss
            // (pending), so "unissued" is the remaining load state.
            let unissued_head = head.is_some_and(|h| h.is_load && !h.done && !h.llc_miss);
            let rob_empty = self.rob.is_empty();
            let rob_full = self.rob.len() >= self.cfg.rob_entries;
            let mshr_tag = head.and_then(|h| h.tag);
            if let Some(attr) = self.attr.as_deref_mut() {
                if charged_load_miss {
                    attr.buckets.load_miss += 1;
                } else if mshr_retry && unissued_head {
                    attr.buckets.mshr_full += 1;
                    if let Some(tag) = mshr_tag {
                        attr.tags.get_mut(tag).mshr_full_cycles += 1;
                    }
                } else if committed_this_cycle > 0 {
                    attr.buckets.committing += 1;
                } else if rob_empty {
                    attr.buckets.frontend_empty += 1;
                } else if rob_full {
                    attr.buckets.rob_full += 1;
                } else {
                    attr.buckets.other += 1;
                }
                attr.end_tick();
            }
        }

        // ---- Dispatch stage ----
        if self.dispatch_blocked_until > now
            || self.fetch_blocked_until > now
            || self.ifetch_ticket.is_some()
        {
            return;
        }
        let mut dispatched = 0;
        while dispatched < self.cfg.width {
            if self.rob.len() >= self.cfg.rob_entries {
                self.stats.rob_full_cycles += 1;
                break;
            }
            let instr = match self.buffered.take().or_else(|| {
                if self.stream_done {
                    None
                } else {
                    let n = stream.next_instr();
                    if n.is_none() {
                        self.stream_done = true;
                    }
                    n
                }
            }) {
                Some(i) => i,
                None => break,
            };

            // Instruction fetch: crossing into a new line touches the I-side.
            let line = self.pc >> 6;
            if line != self.fetched_line {
                self.fetched_line = line;
                match port.ifetch(now, self.id, VirtAddr(self.pc)) {
                    MemReply::Done { ready_at } => {
                        if ready_at > now {
                            // Front-end hiccup: finish this instruction after
                            // the fetch returns.
                            self.fetch_blocked_until = ready_at;
                        }
                    }
                    MemReply::Pending { ticket, primary } => {
                        let s = self.stats.tags.get_mut(MemTag::segment(Segment::Code));
                        if primary {
                            s.llc_misses += 1;
                        }
                        s.accesses += 1;
                        self.ifetch_ticket = Some(ticket);
                    }
                    MemReply::Retry { .. } => {
                        // Retry the fetch next cycle; re-buffer the instr.
                        self.fetched_line = u64::MAX;
                        self.buffered = Some(instr);
                        break;
                    }
                }
            }

            let seq = self.next_seq;
            match instr {
                Instr::Compute => {
                    self.rob.push_back(RobEntry {
                        seq,
                        done: true,
                        ready_at: now + 1,
                        is_load: false,
                        llc_miss: false,
                        tag: None,
                        dependent: None,
                    });
                    self.pc += 4;
                }
                Instr::Branch { mispredict, target } => {
                    self.rob.push_back(RobEntry {
                        seq,
                        done: true,
                        ready_at: now + 1,
                        is_load: false,
                        llc_miss: false,
                        tag: None,
                        dependent: None,
                    });
                    self.pc = target.map_or(self.pc + 4, |t| t.0);
                    if mispredict {
                        self.stats.mispredicts += 1;
                        self.dispatch_blocked_until = now + self.cfg.mispredict_penalty;
                    }
                }
                Instr::Load {
                    va,
                    tag,
                    dependent,
                    chain,
                } => {
                    if self.lq_used >= self.cfg.lq_entries {
                        self.stats.lq_full_cycles += 1;
                        self.buffered = Some(instr);
                        break;
                    }
                    self.lq_used += 1;
                    self.stats.loads += 1;
                    self.stats.tags.get_mut(tag).accesses += 1;
                    self.rob.push_back(RobEntry {
                        seq,
                        done: false,
                        ready_at: Cycle::MAX,
                        is_load: true,
                        llc_miss: false,
                        tag: Some(tag),
                        dependent: None,
                    });
                    let dep_seq = if dependent {
                        self.last_load_by_chain
                            .iter()
                            .find(|&&(c, _)| c == chain)
                            .map(|&(_, s)| s)
                    } else {
                        None
                    };
                    let dep_at = match dep_seq.and_then(|d| self.rob.get_mut(d)) {
                        None => 0, // independent, or the producer committed
                        Some(p) if p.done => p.ready_at,
                        Some(p) => {
                            debug_assert!(p.dependent.is_none(), "chains are linear");
                            p.dependent = NonZeroU64::new(seq);
                            Cycle::MAX
                        }
                    };
                    let w = WaitingLoad {
                        seq,
                        va,
                        tag,
                        dep_seq,
                        dep_at,
                    };
                    if dep_at == Cycle::MAX {
                        self.rob.park(w);
                    } else {
                        // The youngest load: pushing keeps the seq order.
                        self.ready.push(w);
                    }
                    match self.last_load_by_chain.iter_mut().find(|e| e.0 == chain) {
                        Some(e) => e.1 = seq,
                        None => self.last_load_by_chain.push((chain, seq)),
                    }
                    self.pc += 4;
                }
                Instr::Store { va, tag } => {
                    self.stats.stores += 1;
                    let s = self.stats.tags.get_mut(tag);
                    s.accesses += 1;
                    let reply = port.store(now, self.id, va, tag);
                    if reply.primary_miss {
                        self.stats.tags.get_mut(tag).llc_misses += 1;
                    }
                    self.rob.push_back(RobEntry {
                        seq,
                        done: true,
                        ready_at: now + 1,
                        is_load: false,
                        llc_miss: false,
                        tag: Some(tag),
                        dependent: None,
                    });
                    self.pc += 4;
                }
            }
            self.next_seq += 1;
            dispatched += 1;
            if self.dispatch_blocked_until > now || self.fetch_blocked_until > now {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::ObjectId;

    /// Test hierarchy: every load misses and completes `latency` cycles
    /// later; ifetches and stores always hit.
    struct FakePort {
        latency: Cycle,
        next_ticket: u64,
        inflight: Vec<(u64, Cycle)>,
        max_inflight: usize,
        peak: usize,
    }

    impl FakePort {
        fn new(latency: Cycle) -> FakePort {
            FakePort {
                latency,
                next_ticket: 0,
                inflight: Vec::new(),
                max_inflight: usize::MAX,
                peak: 0,
            }
        }

        fn drain(&mut self, now: Cycle, core: &mut Core) {
            let mut i = 0;
            while i < self.inflight.len() {
                if self.inflight[i].1 <= now {
                    let (t, _) = self.inflight.swap_remove(i);
                    core.complete(t, now);
                } else {
                    i += 1;
                }
            }
        }
    }

    impl MemPort for FakePort {
        fn load(&mut self, now: Cycle, _core: CoreId, _va: VirtAddr, _tag: MemTag) -> MemReply {
            if self.inflight.len() >= self.max_inflight {
                return MemReply::Retry { mshr_full: true };
            }
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            self.inflight.push((ticket, now + self.latency));
            self.peak = self.peak.max(self.inflight.len());
            MemReply::Pending {
                ticket,
                primary: true,
            }
        }

        fn store(&mut self, _now: Cycle, _core: CoreId, _va: VirtAddr, _tag: MemTag) -> StoreReply {
            StoreReply::default()
        }

        fn ifetch(&mut self, now: Cycle, _core: CoreId, _va: VirtAddr) -> MemReply {
            MemReply::Done { ready_at: now + 2 }
        }
    }

    fn run<S: InstrStream>(core: &mut Core, port: &mut FakePort, stream: &mut S, limit: Cycle) {
        let mut now = 0;
        while !core.finished() && now < limit {
            now += 1;
            port.drain(now, core);
            core.tick(now, port, stream);
        }
        assert!(core.finished(), "core did not finish within {limit} cycles");
    }

    fn loads(n: usize, dependent: bool) -> Vec<Instr> {
        (0..n)
            .map(|i| Instr::Load {
                va: VirtAddr(0x2000_0000 + (i as u64) * 64),
                tag: MemTag::heap(ObjectId(0)),
                dependent,
                chain: 0,
            })
            .collect()
    }

    #[test]
    fn compute_ipc_approaches_width() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(100);
        let mut s = vec![Instr::Compute; 3000].into_iter();
        run(&mut core, &mut port, &mut s, 100_000);
        let ipc = core.stats().ipc();
        assert!(ipc > 2.0, "compute IPC too low: {ipc}");
        assert_eq!(core.stats().committed, 3000);
    }

    #[test]
    fn independent_loads_overlap() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(100);
        let mut s = loads(64, false).into_iter();
        run(&mut core, &mut port, &mut s, 100_000);
        // With 32 LQ entries and 100-cycle misses, 64 loads should take
        // roughly 2-3 round trips, not 64.
        assert!(
            core.stats().cycles < 64 * 100 / 4,
            "no MLP: {} cycles",
            core.stats().cycles
        );
        assert!(port.peak > 8, "loads did not overlap: peak {}", port.peak);
    }

    #[test]
    fn dependent_loads_serialize() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(100);
        let mut s = loads(32, true).into_iter();
        run(&mut core, &mut port, &mut s, 1_000_000);
        assert!(
            core.stats().cycles >= 32 * 100,
            "chased loads overlapped: {} cycles",
            core.stats().cycles
        );
        assert!(port.peak <= 2, "peak {} should be ~1", port.peak);
    }

    #[test]
    fn stall_per_miss_separates_mlp_regimes() {
        // The classifier's key signal: dependent chains show ~latency stall
        // per miss; independent streams show far less.
        let mut dep_core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(100);
        let mut s = loads(32, true).into_iter();
        run(&mut dep_core, &mut port, &mut s, 1_000_000);
        let dep_stall = dep_core.stats().tags.object(ObjectId(0)).stall_per_miss();

        let mut ind_core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(100);
        let mut s = loads(256, false).into_iter();
        run(&mut ind_core, &mut port, &mut s, 1_000_000);
        let ind_stall = ind_core.stats().tags.object(ObjectId(0)).stall_per_miss();

        assert!(
            dep_stall > ind_stall * 3.0,
            "dependent {dep_stall:.1} vs independent {ind_stall:.1}"
        );
    }

    #[test]
    fn lq_bounds_outstanding_loads() {
        let cfg = CoreConfig {
            lq_entries: 8,
            ..CoreConfig::default()
        };
        let mut core = Core::new(CoreId(0), cfg);
        let mut port = FakePort::new(50);
        let mut s = loads(64, false).into_iter();
        run(&mut core, &mut port, &mut s, 100_000);
        assert!(port.peak <= 8, "LQ leak: peak {}", port.peak);
        assert!(core.stats().lq_full_cycles > 0);
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let clean: Vec<Instr> = (0..1000)
            .map(|i| {
                if i % 10 == 0 {
                    Instr::Branch {
                        mispredict: false,
                        target: None,
                    }
                } else {
                    Instr::Compute
                }
            })
            .collect();
        let noisy: Vec<Instr> = clean
            .iter()
            .map(|i| match i {
                Instr::Branch { .. } => Instr::Branch {
                    mispredict: true,
                    target: None,
                },
                other => *other,
            })
            .collect();
        let mut c1 = Core::new(CoreId(0), CoreConfig::default());
        let mut p1 = FakePort::new(10);
        run(&mut c1, &mut p1, &mut clean.into_iter(), 100_000);
        let mut c2 = Core::new(CoreId(0), CoreConfig::default());
        let mut p2 = FakePort::new(10);
        run(&mut c2, &mut p2, &mut noisy.into_iter(), 100_000);
        assert!(c2.stats().cycles > c1.stats().cycles * 2);
        assert_eq!(c2.stats().mispredicts, 100);
    }

    #[test]
    fn per_tag_attribution_is_exact() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(20);
        let mut instrs = Vec::new();
        for i in 0..10 {
            instrs.push(Instr::Load {
                va: VirtAddr(0x2000_0000 + i * 64),
                tag: MemTag::heap(ObjectId(0)),
                dependent: false,
                chain: 0,
            });
            instrs.push(Instr::Store {
                va: VirtAddr(0x4000_0000 + i * 64),
                tag: MemTag::heap(ObjectId(1)),
            });
        }
        run(&mut core, &mut port, &mut instrs.into_iter(), 100_000);
        let o0 = core.stats().tags.object(ObjectId(0));
        let o1 = core.stats().tags.object(ObjectId(1));
        assert_eq!(o0.accesses, 10);
        assert_eq!(o0.llc_misses, 10);
        assert_eq!(o1.accesses, 10);
        assert_eq!(o1.llc_misses, 0); // FakePort stores never miss
        assert_eq!(core.stats().loads, 10);
        assert_eq!(core.stats().stores, 10);
    }

    #[test]
    fn retry_backpressure_does_not_lose_loads() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(30);
        port.max_inflight = 2;
        let mut s = loads(40, false).into_iter();
        run(&mut core, &mut port, &mut s, 1_000_000);
        assert_eq!(core.stats().committed, 40);
        assert!(port.peak <= 2);
    }

    #[test]
    fn finished_only_after_drain() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(500);
        let mut s = loads(1, false).into_iter();
        core.tick(1, &mut port, &mut s);
        core.tick(2, &mut port, &mut s);
        assert!(!core.finished(), "load still outstanding");
        port.drain(502, &mut core);
        core.tick(503, &mut port, &mut s);
        assert!(core.finished());
    }

    #[test]
    fn attribution_buckets_sum_to_cycles() {
        // With attribution on, every cycle lands in exactly one bucket and
        // the load-miss bucket reproduces head_stall_cycles exactly.
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        core.enable_attribution();
        let mut port = FakePort::new(60);
        port.max_inflight = 4; // force MSHR-full retries too
        let mut s = loads(48, false).into_iter();
        run(&mut core, &mut port, &mut s, 1_000_000);
        let snap = core.attr_snapshot().expect("attribution enabled");
        assert_eq!(snap.buckets.total(), core.stats().cycles);
        assert_eq!(snap.buckets.load_miss, core.stats().head_stall_cycles);
        assert!(snap.buckets.committing > 0);
        // Per-object attribution reconciles with the classifier input.
        let o0 = core.stats().tags.object(ObjectId(0));
        assert_eq!(
            snap.tags.object(ObjectId(0)).total_stall(),
            o0.rob_head_stall_cycles
        );
    }

    #[test]
    fn mshr_full_cycles_charge_the_blocked_head() {
        // A port that refuses every load until `open_at` models an MSHR
        // file held full by other requesters: the unissued head load's
        // stall cycles must land in the mshr_full bucket, per tag.
        struct GatedPort {
            open_at: Cycle,
            inner: FakePort,
        }
        impl MemPort for GatedPort {
            fn load(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> MemReply {
                if now < self.open_at {
                    return MemReply::Retry { mshr_full: true };
                }
                self.inner.load(now, core, va, tag)
            }
            fn store(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> StoreReply {
                self.inner.store(now, core, va, tag)
            }
            fn ifetch(&mut self, now: Cycle, core: CoreId, va: VirtAddr) -> MemReply {
                self.inner.ifetch(now, core, va)
            }
        }
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        core.enable_attribution();
        let mut port = GatedPort {
            open_at: 50,
            inner: FakePort::new(10),
        };
        let mut s = loads(4, false).into_iter();
        let mut now = 0;
        while !core.finished() && now < 10_000 {
            now += 1;
            port.inner.drain(now, &mut core);
            core.tick(now, &mut port, &mut s);
        }
        assert!(core.finished());
        let snap = core.attr_snapshot().unwrap();
        assert!(snap.buckets.mshr_full > 30, "{:?}", snap.buckets);
        assert_eq!(snap.buckets.total(), core.stats().cycles);
        assert_eq!(
            snap.tags.object(ObjectId(0)).mshr_full_cycles,
            snap.buckets.mshr_full
        );
    }

    #[test]
    fn attribution_does_not_change_simulation() {
        let run_once = |attr: bool| {
            let mut core = Core::new(CoreId(0), CoreConfig::default());
            if attr {
                core.enable_attribution();
            }
            let mut port = FakePort::new(80);
            let mut s = loads(32, true).into_iter();
            run(&mut core, &mut port, &mut s, 1_000_000);
            (
                core.stats().cycles,
                core.stats().committed,
                core.stats().head_stall_cycles,
            )
        };
        assert_eq!(run_once(false), run_once(true));
    }

    #[test]
    fn blocked_on_memory_detected() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(1000);
        let mut s = loads(1, true).into_iter();
        let mut now = 0;
        // Dispatch and issue the load, then exhaust local work.
        for _ in 0..5 {
            now += 1;
            core.tick(now, &mut port, &mut s);
        }
        assert!(core.blocked_on_memory(now));
        assert_eq!(core.next_local_event(now), None);
    }
}
