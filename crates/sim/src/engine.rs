//! The discrete-event engine.
//!
//! Scheduling core (see DESIGN.md §9 "Engine internals"):
//!
//! * Event closures live in a **slab** with a free-list; the binary heaps
//!   sift only compact `(time, seq, slot)` triples, never whole events.
//! * Events scheduled at the current instant — completion chains, the most
//!   common pattern in the executor — bypass the heap entirely through a
//!   **same-instant FIFO** (`VecDeque`).
//! * Timers scheduled through [`Engine::schedule_timer_at`] are **cancelable**
//!   via their [`TimerHandle`]; a canceled timer's heap entry is retired
//!   lazily when popped, advancing the clock to its due time exactly as a
//!   fired no-op would, so cancellation never perturbs the clock trajectory.
//! * **Call events** ([`Engine::schedule_call_at`],
//!   [`Engine::schedule_call_timer_at`]) are a plain function pointer plus
//!   two `u64` arguments, stored inline in the slab or in a same-instant
//!   FIFO of their own: the hot executor events (step completions, op
//!   deadlines, retry launches) carry only indices, so they need no boxed
//!   closure. They share the slab, heaps and sequence numbers with boxed
//!   events, and the two FIFOs merge by sequence number.
//! * Timers live in a **heap of their own**. Op deadlines are armed far
//!   ahead and almost always canceled, so their stale entries pile up until
//!   their due time; kept apart, they never deepen the sifts of the
//!   short-lived plain events. A fixed-length deadline armed now is due
//!   after every deadline armed before it, so its push does not sift.
//!
//! The global firing order is `(time, seq)` with `seq` assigned in
//! scheduling order across both heaps and the FIFO — the determinism
//! contract every artifact diff rests on.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::SimTime;

type BoxedEvent<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// The handler of a call event: a plain function receiving the world, the
/// engine and the two arguments it was scheduled with.
pub type CallFn<W> = fn(&mut W, &mut Engine<W>, u64, u64);

/// A pending event in the slab: a boxed closure, or a call event stored
/// unboxed.
enum Event<W> {
    Boxed(BoxedEvent<W>),
    Call(CallFn<W>, u64, u64),
}

// A boxed closure's two words fit beside the call's function pointer,
// whose null value tags them, so a slab slot is 32 bytes; calls queue
// apart at the current instant, so a boxed FIFO entry stays 24.
const _: () = assert!(std::mem::size_of::<EventSlot<()>>() == 32);
const _: () = assert!(std::mem::size_of::<(u64, BoxedEvent<()>)>() == 24);

impl<W> Event<W> {
    /// What a free slab slot holds.
    fn vacant() -> Self {
        Event::Call(|_, _, _, _| {}, 0, 0)
    }

    // `inline(always)` here and on the pushes: left to the compiler, the
    // split out of the generic `schedule_*` bodies cost boxed same-instant
    // chains about 30% of their dispatch rate.
    #[inline(always)]
    fn fire(self, world: &mut W, eng: &mut Engine<W>) {
        match self {
            Event::Boxed(f) => f(world, eng),
            Event::Call(f, a, b) => f(world, eng, a, b),
        }
    }
}

/// Compact heap entry: 24 bytes moved per sift, addressing the slab slot
/// that owns the closure.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// One slab slot. `seq` identifies the occupying event; sequence numbers are
/// globally unique and never reused, so a heap entry whose `seq` disagrees
/// with its slot is stale (the timer was canceled and the slot possibly
/// recycled) — no generation counter or ABA hazard.
struct EventSlot<W> {
    /// Sequence number of the occupant; `0` marks a free slot (live events
    /// are numbered from 1), which holds [`Event::vacant`].
    seq: u64,
    event: Event<W>,
}

/// Handle to a pending timer, returned by [`Engine::schedule_timer_at`] /
/// [`Engine::schedule_timer_in`] and redeemed with [`Engine::cancel`].
///
/// Copyable and safe to hold past the timer's lifetime: canceling a timer
/// that already fired (or was already canceled) is a no-op returning
/// `false`, even if its slab slot has been recycled by a newer event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerHandle {
    slot: u32,
    seq: u64,
}

/// Counters describing an [`Engine`] run, useful for sanity checks and the
/// engine micro-benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events retired at their due time: executed, or (for canceled timers)
    /// popped as stale entries. Counting both keeps the counter — and the
    /// final clock — identical to an engine where canceled timers fire as
    /// no-ops, which is what the determinism artifact pins down.
    pub events_fired: u64,
    /// Events scheduled so far (timers included).
    pub events_scheduled: u64,
    /// Timers canceled before firing.
    pub events_canceled: u64,
}

/// A deterministic discrete-event engine over a world type `W`.
///
/// Events are closures receiving the world and the engine (so handlers can
/// schedule follow-up events). Two events at the same instant fire in
/// scheduling order, which makes simulations reproducible bit-for-bit.
///
/// ```
/// use draid_sim::{Engine, SimTime};
/// let mut hits = 0u32;
/// let mut engine: Engine<u32> = Engine::new();
/// engine.schedule_at(SimTime::from_micros(1), |w, _| *w += 1);
/// let timer = engine.schedule_timer_at(SimTime::from_micros(2), |w, _| *w += 100);
/// engine.cancel(timer);
/// engine.run(&mut hits);
/// assert_eq!(hits, 1);
/// ```
pub struct Engine<W> {
    now: SimTime,
    seq: u64,
    /// Plain events scheduled after `now` through [`Engine::schedule_at`].
    heap: BinaryHeap<HeapEntry>,
    /// Cancelable timers, including the stale entries of canceled ones.
    timers: BinaryHeap<HeapEntry>,
    slots: Vec<EventSlot<W>>,
    free: Vec<u32>,
    /// Same-instant FIFOs: boxed closures and call events scheduled at
    /// `now`, each with its seq, in queues of their own so that a boxed
    /// entry stays 24 bytes; the smaller seq of the two fronts goes first.
    /// Entries always carry an implicit time equal to the current clock —
    /// the queues are provably drained before the clock advances.
    fast: VecDeque<(u64, BoxedEvent<W>)>,
    fast_calls: VecDeque<(u64, CallFn<W>, u64, u64)>,
    /// Events that will still fire (excludes canceled timers).
    live: usize,
    stopped: bool,
    stats: EngineStats,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<W> Engine<W> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            timers: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            fast: VecDeque::new(),
            fast_calls: VecDeque::new(),
            live: 0,
            stopped: false,
            stats: EngineStats::default(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire (canceled timers excluded).
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Run statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Slab slots allocated so far (high-water mark of concurrently pending
    /// heap events; diagnostic for the engine benchmarks).
    pub fn slab_slots(&self) -> usize {
        self.slots.len()
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.stats.events_scheduled += 1;
        self.live += 1;
        self.seq
    }

    fn alloc_slot(&mut self, seq: u64, event: Event<W>) -> u32 {
        match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.seq = seq;
                s.event = event;
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("event slab overflow");
                self.slots.push(EventSlot { seq, event });
                i
            }
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Events at the current instant take the same-instant fast path and
    /// are not individually cancelable; use [`Engine::schedule_timer_at`]
    /// when a handle is needed.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Engine::now`]); simulated
    /// causality must be preserved.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        event: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) {
        self.push(at, Event::Boxed(Box::new(event)));
    }

    /// Schedules `event` after a relative delay from now.
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        event: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) {
        let at = self.after(delay);
        self.schedule_at(at, event);
    }

    /// Schedules the call `f(world, engine, a, b)` at absolute time `at`:
    /// [`Engine::schedule_at`] without boxing, for handlers whose state
    /// fits in two words. Fires in the same `(time, seq)` order as a boxed
    /// event scheduled at this point would.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Engine::now`]).
    pub fn schedule_call_at(&mut self, at: SimTime, f: CallFn<W>, a: u64, b: u64) {
        self.push(at, Event::Call(f, a, b));
    }

    /// Schedules a cancelable timer at absolute time `at` and returns its
    /// handle. Timers always go through the slab and the timer heap (never
    /// the same-instant fast path), but fire in exactly the same global
    /// `(time, seq)` order as plain events.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Engine::now`]).
    pub fn schedule_timer_at(
        &mut self,
        at: SimTime,
        event: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> TimerHandle {
        self.push_timer(at, Event::Boxed(Box::new(event)))
    }

    /// Schedules a cancelable timer after a relative delay from now.
    pub fn schedule_timer_in(
        &mut self,
        delay: SimTime,
        event: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> TimerHandle {
        let at = self.after(delay);
        self.schedule_timer_at(at, event)
    }

    /// [`Engine::schedule_timer_at`] for the call `f(world, engine, a, b)`,
    /// stored unboxed.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Engine::now`]).
    pub fn schedule_call_timer_at(
        &mut self,
        at: SimTime,
        f: CallFn<W>,
        a: u64,
        b: u64,
    ) -> TimerHandle {
        self.push_timer(at, Event::Call(f, a, b))
    }

    /// [`Engine::schedule_call_timer_at`] after a relative delay from now.
    pub fn schedule_call_timer_in(
        &mut self,
        delay: SimTime,
        f: CallFn<W>,
        a: u64,
        b: u64,
    ) -> TimerHandle {
        let at = self.after(delay);
        self.schedule_call_timer_at(at, f, a, b)
    }

    fn after(&self, delay: SimTime) -> SimTime {
        self.now
            .checked_add(delay)
            .expect("simulated time overflow")
    }

    fn check_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
    }

    /// Queues a plain event: through the FIFO when due now, else the heap.
    #[inline(always)]
    fn push(&mut self, at: SimTime, event: Event<W>) {
        self.check_not_past(at);
        let seq = self.next_seq();
        if at == self.now {
            match event {
                Event::Boxed(f) => self.fast.push_back((seq, f)),
                Event::Call(f, a, b) => self.fast_calls.push_back((seq, f, a, b)),
            }
        } else {
            let slot = self.alloc_slot(seq, event);
            self.heap.push(HeapEntry {
                time: at,
                seq,
                slot,
            });
        }
    }

    /// Queues a cancelable timer in the timer heap.
    #[inline(always)]
    fn push_timer(&mut self, at: SimTime, event: Event<W>) -> TimerHandle {
        self.check_not_past(at);
        let seq = self.next_seq();
        let slot = self.alloc_slot(seq, event);
        self.timers.push(HeapEntry {
            time: at,
            seq,
            slot,
        });
        TimerHandle { slot, seq }
    }

    /// Cancels a pending timer. Returns `true` if the timer was still
    /// pending (its closure is dropped immediately and its slab slot
    /// recycled); `false` if it already fired or was already canceled.
    ///
    /// The timer's heap entry stays queued and is retired when popped: it
    /// advances the clock to the timer's due time and counts toward
    /// [`EngineStats::events_fired`], exactly as a no-op firing would —
    /// so canceling timers cannot change the simulated clock trajectory.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let Some(slot) = self.slots.get_mut(handle.slot as usize) else {
            return false;
        };
        if slot.seq != handle.seq {
            return false;
        }
        slot.event = Event::vacant();
        slot.seq = 0;
        self.free.push(handle.slot);
        self.live -= 1;
        self.stats.events_canceled += 1;
        true
    }

    /// Requests the current [`Engine::run`] loop to stop after the running
    /// event returns. Pending events stay queued.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Runs until the queue drains or [`Engine::stop`] is called. Returns
    /// the final simulated time — the due time of the last retired event
    /// (the clock rests there; it does not advance to infinity).
    pub fn run(&mut self, world: &mut W) -> SimTime {
        self.run_inner(world, None)
    }

    /// Runs every event with `time <= deadline`, then returns with the
    /// clock **at `deadline`** — whether the queue drained early or events
    /// remain beyond it — unless [`Engine::stop`] was called, in which case
    /// the clock rests at the last retired event's time. A deadline in the
    /// past is a no-op returning the unchanged current time.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> SimTime {
        if deadline < self.now {
            return self.now;
        }
        self.run_inner(world, Some(deadline))
    }

    /// The earlier `(time, seq)` of the two heap tops, and whether it is the
    /// timer heap's.
    fn peek_next(&self) -> Option<(HeapEntry, bool)> {
        match (self.heap.peek(), self.timers.peek()) {
            // `HeapEntry` orders inverted: the greater entry is due first.
            (Some(&e), Some(&t)) => Some(if t > e { (t, true) } else { (e, false) }),
            (Some(&e), None) => Some((e, false)),
            (None, Some(&t)) => Some((t, true)),
            (None, None) => None,
        }
    }

    fn run_inner(&mut self, world: &mut W, deadline: Option<SimTime>) -> SimTime {
        self.stopped = false;
        let cap = deadline.unwrap_or(SimTime::MAX);
        loop {
            if self.stopped {
                break;
            }
            let front = match (self.fast.front(), self.fast_calls.front()) {
                (Some(&(boxed, _)), Some(&(call, ..))) => Some(boxed.min(call)),
                (Some(&(boxed, _)), None) => Some(boxed),
                (None, Some(&(call, ..))) => Some(call),
                (None, None) => None,
            };
            if let Some(front_seq) = front {
                // Heap entries due at this same instant were scheduled
                // earlier (smaller seq) iff they beat the FIFO front.
                let beats_front = |heap: &BinaryHeap<HeapEntry>| {
                    heap.peek()
                        .is_some_and(|top| top.time == self.now && top.seq < front_seq)
                };
                if !beats_front(&self.heap) && !beats_front(&self.timers) {
                    self.live -= 1;
                    self.stats.events_fired += 1;
                    if self.fast.front().is_some_and(|&(seq, _)| seq == front_seq) {
                        let (_, f) = self.fast.pop_front().expect("peeked front vanished");
                        f(world, self);
                    } else {
                        let (_, f, a, b) =
                            self.fast_calls.pop_front().expect("peeked front vanished");
                        f(world, self, a, b);
                    }
                    continue;
                }
            }
            let Some((entry, is_timer)) = self.peek_next() else {
                break;
            };
            if entry.time > cap {
                break;
            }
            if is_timer {
                self.timers.pop();
            } else {
                self.heap.pop();
            }
            crate::draid_invariant!(
                entry.time >= self.now,
                "event queue went backwards: now={}, popped={}",
                self.now,
                entry.time
            );
            self.now = entry.time;
            self.stats.events_fired += 1;
            let slot = &mut self.slots[entry.slot as usize];
            if slot.seq == entry.seq {
                let event = std::mem::replace(&mut slot.event, Event::vacant());
                slot.seq = 0;
                self.free.push(entry.slot);
                self.live -= 1;
                event.fire(world, self);
            }
            // else: stale entry of a canceled timer — retired at its due
            // time (clock advanced, fired counted) without running anything.
        }
        if let Some(d) = deadline {
            if !self.stopped && self.now < d {
                self.now = d;
            }
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_tie_breaking() {
        let mut order: Vec<u32> = Vec::new();
        let mut engine: Engine<Vec<u32>> = Engine::new();
        let t = SimTime::from_micros(1);
        for i in 0..10 {
            engine.schedule_at(t, move |w, _| w.push(i));
        }
        engine.run(&mut order);
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_and_clock() {
        let mut world = 0u64;
        let mut engine: Engine<u64> = Engine::new();
        engine.schedule_in(SimTime::from_micros(1), |_, eng| {
            eng.schedule_in(SimTime::from_micros(1), |w, _| *w = 42);
        });
        let end = engine.run(&mut world);
        assert_eq!(world, 42);
        assert_eq!(end, SimTime::from_micros(2));
        assert_eq!(engine.stats().events_fired, 2);
    }

    #[test]
    fn run_until_deadline_preserves_later_events() {
        let mut world = Vec::new();
        let mut engine: Engine<Vec<u64>> = Engine::new();
        for us in [1u64, 5, 9] {
            engine.schedule_at(SimTime::from_micros(us), move |w: &mut Vec<u64>, _| {
                w.push(us)
            });
        }
        engine.run_until(&mut world, SimTime::from_micros(6));
        assert_eq!(world, vec![1, 5]);
        assert_eq!(engine.now(), SimTime::from_micros(6));
        assert_eq!(engine.pending(), 1);
        engine.run(&mut world);
        assert_eq!(world, vec![1, 5, 9]);
    }

    #[test]
    fn run_until_drained_early_advances_to_deadline() {
        // Satellite regression: the queue drains at 2 µs, but the caller
        // asked for 10 µs — the clock lands on the deadline, matching the
        // events-remain-beyond case instead of resting at the last event.
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_at(SimTime::from_micros(2), |w, _| *w += 1);
        let end = engine.run_until(&mut world, SimTime::from_micros(10));
        assert_eq!(world, 1);
        assert_eq!(end, SimTime::from_micros(10));
        assert_eq!(engine.now(), SimTime::from_micros(10));
    }

    #[test]
    fn run_until_past_deadline_is_noop() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_at(SimTime::from_micros(5), |w, _| *w += 1);
        engine.run(&mut world);
        assert_eq!(engine.now(), SimTime::from_micros(5));
        // The clock must never move backwards.
        let end = engine.run_until(&mut world, SimTime::from_micros(1));
        assert_eq!(end, SimTime::from_micros(5));
        assert_eq!(world, 1);
    }

    #[test]
    fn run_until_stopped_rests_at_last_event() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_at(SimTime::from_micros(2), |w, eng| {
            *w += 1;
            eng.stop();
        });
        let end = engine.run_until(&mut world, SimTime::from_micros(10));
        assert_eq!(
            end,
            SimTime::from_micros(2),
            "stop() overrides the deadline"
        );
    }

    #[test]
    fn stop_halts_loop() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_in(SimTime::from_micros(1), |w, eng| {
            *w += 1;
            eng.stop();
        });
        engine.schedule_in(SimTime::from_micros(2), |w, _| *w += 100);
        engine.run(&mut world);
        assert_eq!(world, 1);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut world = ();
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_at(SimTime::from_micros(5), |_, eng| {
            eng.schedule_at(SimTime::from_micros(1), |_, _| {});
        });
        engine.run(&mut world);
    }

    #[test]
    fn same_instant_fast_path_preserves_global_seq_order() {
        // A and B are heap events at 5 µs; A (firing first) schedules X at
        // the same instant through the FIFO fast path. X's seq is larger
        // than B's, so the order must be A, B, X — the heap entry due at
        // `now` beats the younger FIFO entry.
        let mut order: Vec<&'static str> = Vec::new();
        let mut engine: Engine<Vec<&'static str>> = Engine::new();
        let t = SimTime::from_micros(5);
        engine.schedule_at(t, |w: &mut Vec<&'static str>, eng: &mut Engine<_>| {
            w.push("A");
            eng.schedule_at(eng.now(), |w: &mut Vec<&'static str>, _| w.push("X"));
        });
        engine.schedule_at(t, |w: &mut Vec<&'static str>, _| w.push("B"));
        engine.run(&mut order);
        assert_eq!(order, vec!["A", "B", "X"]);
    }

    #[test]
    fn same_instant_chain_runs_in_fifo_order() {
        let mut order: Vec<u32> = Vec::new();
        let mut engine: Engine<Vec<u32>> = Engine::new();
        engine.schedule_at(SimTime::from_micros(1), |w: &mut Vec<u32>, eng| {
            w.push(0);
            for i in 1..5u32 {
                eng.schedule_at(eng.now(), move |w: &mut Vec<u32>, _| w.push(i));
            }
        });
        engine.run(&mut order);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(engine.now(), SimTime::from_micros(1));
    }

    #[test]
    fn cancel_before_fire_drops_event_but_keeps_clock_trajectory() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        let timer = engine.schedule_timer_at(SimTime::from_micros(5), |w, _| *w += 100);
        engine.schedule_at(SimTime::from_micros(3), |w, _| *w += 1);
        assert!(engine.cancel(timer));
        assert_eq!(engine.pending(), 1);
        let end = engine.run(&mut world);
        assert_eq!(world, 1, "canceled timer must not run");
        // The stale entry is retired at its due time: the clock ends where
        // it would have with a no-op firing.
        assert_eq!(end, SimTime::from_micros(5));
        assert_eq!(engine.stats().events_fired, 2);
        assert_eq!(engine.stats().events_canceled, 1);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        let timer = engine.schedule_timer_at(SimTime::from_micros(1), |w, _| *w += 1);
        engine.run(&mut world);
        assert_eq!(world, 1);
        assert!(!engine.cancel(timer));
        assert_eq!(engine.stats().events_canceled, 0);
    }

    #[test]
    fn cancel_twice_is_noop_even_after_slot_reuse() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        let timer = engine.schedule_timer_at(SimTime::from_micros(1), |w, _| *w += 1);
        assert!(engine.cancel(timer));
        assert!(!engine.cancel(timer));
        // The freed slot is recycled by a new timer; the stale handle must
        // not be able to cancel the new occupant.
        let fresh = engine.schedule_timer_at(SimTime::from_micros(2), |w, _| *w += 10);
        assert!(!engine.cancel(timer));
        assert_eq!(engine.slab_slots(), 1, "slot recycled, not grown");
        engine.run(&mut world);
        assert_eq!(world, 10);
        let _ = fresh;
    }

    #[test]
    fn cancel_from_same_instant_event() {
        // Two events at 4 µs: the first cancels a timer due at the very
        // same instant (scheduled later, so it has not fired yet).
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        let t = SimTime::from_micros(4);
        let timer = std::rc::Rc::new(std::cell::Cell::new(None::<TimerHandle>));
        let t2 = std::rc::Rc::clone(&timer);
        engine.schedule_at(t, move |w: &mut u32, eng: &mut Engine<u32>| {
            *w += 1;
            if let Some(h) = t2.get() {
                assert!(eng.cancel(h), "timer at the same instant is pending");
            }
        });
        timer.set(Some(
            engine.schedule_timer_at(t, |w: &mut u32, _| *w += 100),
        ));
        engine.run(&mut world);
        assert_eq!(world, 1, "same-instant cancel must stop the timer");
        assert_eq!(engine.stats().events_canceled, 1);
    }

    #[test]
    fn seq_order_deterministic_with_interleaved_cancels() {
        // Two identical runs with a mix of events and canceled timers must
        // fire in the same order — cancellation must not perturb (time, seq)
        // ordering of the survivors.
        fn run_once() -> Vec<u64> {
            let mut order: Vec<u64> = Vec::new();
            let mut engine: Engine<Vec<u64>> = Engine::new();
            let mut handles = Vec::new();
            for i in 0..30u64 {
                let at = SimTime::from_nanos(500 + (i * 37) % 11 * 100);
                if i % 2 == 0 {
                    engine.schedule_at(at, move |w: &mut Vec<u64>, _| w.push(i));
                } else {
                    handles.push(
                        engine.schedule_timer_at(at, move |w: &mut Vec<u64>, _| w.push(1000 + i)),
                    );
                }
            }
            for (k, h) in handles.into_iter().enumerate() {
                if k % 3 == 0 {
                    assert!(engine.cancel(h));
                }
            }
            engine.run(&mut order);
            order
        }
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
        assert!(a.iter().any(|&v| v >= 1000), "surviving timers fired");
        assert!(!a.contains(&1001), "canceled timer 1 (k=0) did not fire");
    }

    #[test]
    fn slab_recycles_slots_across_sequential_timers() {
        let mut world = 0u64;
        let mut engine: Engine<u64> = Engine::new();
        for i in 1..=1000u64 {
            engine.schedule_at(SimTime::from_nanos(i), |w, _| *w += 1);
        }
        engine.run(&mut world);
        assert_eq!(world, 1000);
        // Sequential (never overlapping by more than the initial burst)
        // events reuse freed slots instead of growing the slab.
        assert_eq!(engine.slab_slots(), 1000);
        for i in 1..=1000u64 {
            engine.schedule_in(SimTime::from_nanos(i), |w, _| *w += 1);
        }
        engine.run(&mut world);
        assert_eq!(engine.slab_slots(), 1000, "slab did not grow on reuse");
    }

    #[test]
    fn canceled_timers_stay_out_of_the_plain_heap() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        let far = SimTime::from_millis(250);
        let handles: Vec<TimerHandle> = (0..10_000)
            .map(|_| engine.schedule_timer_at(far, |w, _| *w += 1))
            .collect();
        for h in handles {
            assert!(engine.cancel(h));
        }
        assert!(engine.heap.is_empty(), "timers never enter the plain heap");
        assert_eq!(engine.timers.len(), 10_000, "stale entries retire lazily");
        engine.schedule_at(SimTime::from_micros(1), |w, _| *w += 1);
        assert_eq!(engine.heap.len(), 1);
        engine.run(&mut world);
        assert_eq!(world, 1);
        assert_eq!(engine.now(), far, "stale entries still advance the clock");
        assert_eq!(engine.stats().events_fired, 10_001);
    }

    #[test]
    fn call_events_share_seq_order_with_boxed_events() {
        // Boxed and call events alternate at one instant, through both the
        // heap (scheduled ahead) and the FIFO (scheduled at `now`); a call
        // timer is canceled and a second one fires. Order is by seq alone.
        fn log(w: &mut Vec<u64>, eng: &mut Engine<Vec<u64>>, a: u64, b: u64) {
            w.push(a);
            if b > 0 {
                eng.schedule_call_at(eng.now(), log, a + 10, b - 1);
                eng.schedule_at(eng.now(), move |w: &mut Vec<u64>, _| w.push(a + 20));
            }
        }
        let mut order = Vec::new();
        let mut engine: Engine<Vec<u64>> = Engine::new();
        let t = SimTime::from_micros(3);
        engine.schedule_call_at(t, log, 1, 1);
        engine.schedule_at(t, |w: &mut Vec<u64>, _| w.push(2));
        let canceled = engine.schedule_call_timer_at(t, log, 3, 0);
        engine.schedule_call_timer_at(t, log, 4, 0);
        assert!(engine.cancel(canceled));
        assert_eq!(engine.pending(), 3);
        engine.run(&mut order);
        assert_eq!(order, vec![1, 2, 4, 11, 21]);
        assert_eq!(
            engine.stats().events_fired,
            6,
            "the stale timer retires too"
        );
        assert_eq!(engine.stats().events_scheduled, 6);
        assert_eq!(engine.now(), t);
    }

    #[test]
    fn stale_timer_retires_in_seq_order_beside_plain_event() {
        // A canceled timer (seq 1), a plain event (seq 2) and a second
        // canceled timer (seq 3), all due at 7 µs: the plain event must see
        // exactly the first stale entry retired before it, not the second.
        let mut fired_at_plain = 0u64;
        let mut engine: Engine<u64> = Engine::new();
        let t = SimTime::from_micros(7);
        let before = engine.schedule_timer_at(t, |_, _| panic!("canceled"));
        engine.schedule_at(t, |w: &mut u64, eng: &mut Engine<u64>| {
            *w = eng.stats().events_fired;
        });
        let after = engine.schedule_timer_at(t, |_, _| panic!("canceled"));
        assert!(engine.cancel(before));
        assert!(engine.cancel(after));
        engine.run(&mut fired_at_plain);
        assert_eq!(fired_at_plain, 2, "stale seq 1, then the plain seq 2");
        assert_eq!(engine.stats().events_fired, 3);
        assert_eq!(engine.now(), t);
    }
}
