//! Order equivalence: `draid_sim::Engine` (slab, same-instant FIFO, a
//! separate heap for cancelable timers, and unboxed call events) must fire
//! every event in exactly the order of the vendored single-heap
//! `draid_bench::baseline::Engine`.
//!
//! Seeded random scripts mix plain events, timers, call events, call
//! timers, cancels and `run_until` deadlines, from the top level and from
//! inside firing events. Times are coarse so events of every form and stale
//! timer entries often share an instant. The baseline has neither cancel
//! nor call events: there a timer is a plain event whose closure does
//! nothing once canceled, and a call event is a closure that makes the
//! call. That is the behaviour the engine promises to match, down to
//! `events_fired`.

use std::cell::Cell;
use std::rc::Rc;

use draid_bench::baseline;
use draid_sim::{Engine, SimTime, TimerHandle};

/// Far beyond every `run_until` deadline, so neither engine's queue drains
/// before the final `run` and both rest their clocks at each deadline.
const SENTINEL_AT: SimTime = SimTime::from_millis(1_000);
const ROUNDS: u64 = 40;
/// Events a script may schedule, top level and nested together.
const BUDGET: u64 = 1_500;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Entry {
    Fired { id: u64, at_ns: u64 },
    Called { id: u64, arg: u64, at_ns: u64 },
    Canceled { timer: usize, ok: bool },
    RanUntil { clock_ns: u64 },
}

struct World<T> {
    rng: u64,
    next_id: u64,
    budget: u64,
    log: Vec<Entry>,
    /// Every timer armed so far, with its due time and whether it is a
    /// call timer.
    timers: Vec<(T, SimTime, bool)>,
    /// Successful cancels of a timer due at the current instant.
    canceled_due_now: u64,
    /// Events scheduled at the current instant (the FIFO path).
    same_instant: u64,
    /// Call events and call timers scheduled.
    calls: u64,
    /// Successful cancels of a call timer.
    call_cancels: u64,
}

impl<T> World<T> {
    fn new(seed: u64) -> Self {
        World {
            rng: seed,
            next_id: 0,
            budget: BUDGET,
            log: Vec::new(),
            timers: Vec::new(),
            canceled_due_now: 0,
            same_instant: 0,
            calls: 0,
            call_cancels: 0,
        }
    }

    /// splitmix64; the stream advances in firing order, so both engines
    /// see the same draws only while they fire in the same order.
    fn below(&mut self, n: u64) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// A delay drawn to make same-instant ties common: zero a quarter of
    /// the time, otherwise a multiple of 10 ns.
    fn delay(&mut self) -> SimTime {
        let steps = match self.below(4) {
            0 => 0,
            1 => self.below(3),
            2 => self.below(20),
            _ => self.below(500),
        };
        SimTime::from_nanos(steps * 10)
    }
}

/// A call event's handler.
type Call<E> = fn(&mut World<<E as Sched>::Timer>, &mut E, u64, u64);

/// The scheduling API both engines offer the script.
trait Sched: Sized + 'static {
    type Timer: Clone + 'static;
    fn now(&self) -> SimTime;
    fn at(&mut self, t: SimTime, f: impl FnOnce(&mut World<Self::Timer>, &mut Self) + 'static);
    fn timer_at(
        &mut self,
        t: SimTime,
        f: impl FnOnce(&mut World<Self::Timer>, &mut Self) + 'static,
    ) -> Self::Timer;
    fn call_at(&mut self, t: SimTime, f: Call<Self>, a: u64, b: u64);
    fn call_timer_at(&mut self, t: SimTime, f: Call<Self>, a: u64, b: u64) -> Self::Timer;
    fn cancel(&mut self, timer: &Self::Timer) -> bool;
    fn run_until(&mut self, w: &mut World<Self::Timer>, deadline: SimTime) -> SimTime;
    fn run(&mut self, w: &mut World<Self::Timer>) -> SimTime;
    fn fired_scheduled(&self) -> (u64, u64);
}

type NewEngine = Engine<World<TimerHandle>>;

impl Sched for NewEngine {
    type Timer = TimerHandle;
    fn now(&self) -> SimTime {
        Engine::now(self)
    }
    fn at(&mut self, t: SimTime, f: impl FnOnce(&mut World<TimerHandle>, &mut Self) + 'static) {
        self.schedule_at(t, f);
    }
    fn timer_at(
        &mut self,
        t: SimTime,
        f: impl FnOnce(&mut World<TimerHandle>, &mut Self) + 'static,
    ) -> TimerHandle {
        self.schedule_timer_at(t, f)
    }
    fn call_at(&mut self, t: SimTime, f: Call<Self>, a: u64, b: u64) {
        self.schedule_call_at(t, f, a, b);
    }
    fn call_timer_at(&mut self, t: SimTime, f: Call<Self>, a: u64, b: u64) -> TimerHandle {
        self.schedule_call_timer_at(t, f, a, b)
    }
    fn cancel(&mut self, timer: &TimerHandle) -> bool {
        Engine::cancel(self, *timer)
    }
    fn run_until(&mut self, w: &mut World<TimerHandle>, deadline: SimTime) -> SimTime {
        Engine::run_until(self, w, deadline)
    }
    fn run(&mut self, w: &mut World<TimerHandle>) -> SimTime {
        Engine::run(self, w)
    }
    fn fired_scheduled(&self) -> (u64, u64) {
        (self.stats().events_fired, self.stats().events_scheduled)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TimerState {
    Pending,
    Fired,
    Canceled,
}

/// A baseline "timer": a plain event guarded by a shared state cell.
#[derive(Clone)]
struct BaseTimer(Rc<Cell<TimerState>>);

type BaseEngine = baseline::Engine<World<BaseTimer>>;

impl Sched for BaseEngine {
    type Timer = BaseTimer;
    fn now(&self) -> SimTime {
        baseline::Engine::now(self)
    }
    fn at(&mut self, t: SimTime, f: impl FnOnce(&mut World<BaseTimer>, &mut Self) + 'static) {
        self.schedule_at(t, f);
    }
    fn timer_at(
        &mut self,
        t: SimTime,
        f: impl FnOnce(&mut World<BaseTimer>, &mut Self) + 'static,
    ) -> BaseTimer {
        let state = Rc::new(Cell::new(TimerState::Pending));
        let guard = Rc::clone(&state);
        self.schedule_at(t, move |w, e| {
            if guard.get() == TimerState::Pending {
                guard.set(TimerState::Fired);
                f(w, e);
            }
        });
        BaseTimer(state)
    }
    fn call_at(&mut self, t: SimTime, f: Call<Self>, a: u64, b: u64) {
        self.schedule_at(t, move |w, e| f(w, e, a, b));
    }
    fn call_timer_at(&mut self, t: SimTime, f: Call<Self>, a: u64, b: u64) -> BaseTimer {
        self.timer_at(t, move |w, e| f(w, e, a, b))
    }
    fn cancel(&mut self, timer: &BaseTimer) -> bool {
        let pending = timer.0.get() == TimerState::Pending;
        if pending {
            timer.0.set(TimerState::Canceled);
        }
        pending
    }
    fn run_until(&mut self, w: &mut World<BaseTimer>, deadline: SimTime) -> SimTime {
        baseline::Engine::run_until(self, w, deadline)
    }
    fn run(&mut self, w: &mut World<BaseTimer>) -> SimTime {
        baseline::Engine::run(self, w)
    }
    fn fired_scheduled(&self) -> (u64, u64) {
        (self.stats().events_fired, self.stats().events_scheduled)
    }
}

fn fire<E: Sched>(w: &mut World<E::Timer>, e: &mut E, id: u64) {
    w.log.push(Entry::Fired {
        id,
        at_ns: e.now().as_nanos(),
    });
    for _ in 0..w.below(3) {
        act(w, e);
    }
}

/// A call event's handler: logs both arguments, then acts like [`fire`].
fn fire_call<E: Sched>(w: &mut World<E::Timer>, e: &mut E, id: u64, arg: u64) {
    w.log.push(Entry::Called {
        id,
        arg,
        at_ns: e.now().as_nanos(),
    });
    for _ in 0..w.below(3) {
        act(w, e);
    }
}

/// One random scripted action: schedule a plain event, a timer, a call
/// event or a call timer, or cancel a random timer or the latest one
/// (often due at this instant).
fn act<E: Sched>(w: &mut World<E::Timer>, e: &mut E) {
    let choice = w.below(7);
    if choice >= 5 {
        if w.timers.is_empty() {
            return;
        }
        let timer = if choice == 5 {
            w.below(w.timers.len() as u64) as usize
        } else {
            w.timers.len() - 1
        };
        let (handle, due, is_call) = w.timers[timer].clone();
        let ok = e.cancel(&handle);
        if ok && due == e.now() {
            w.canceled_due_now += 1;
        }
        if ok && is_call {
            w.call_cancels += 1;
        }
        w.log.push(Entry::Canceled { timer, ok });
        return;
    }
    if w.budget == 0 {
        return;
    }
    w.budget -= 1;
    let id = w.next_id;
    w.next_id += 1;
    let at = e.now() + w.delay();
    if at == e.now() {
        w.same_instant += 1;
    }
    match choice {
        0 => {
            let handle = e.timer_at(at, move |w, e| fire(w, e, id));
            w.timers.push((handle, at, false));
        }
        3 => {
            w.calls += 1;
            let arg = w.below(1 << 40);
            e.call_at(at, fire_call::<E>, id, arg);
        }
        4 => {
            w.calls += 1;
            let arg = w.below(1 << 40);
            let handle = e.call_timer_at(at, fire_call::<E>, id, arg);
            w.timers.push((handle, at, true));
        }
        _ => e.at(at, move |w, e| fire(w, e, id)),
    }
}

struct Outcome {
    log: Vec<Entry>,
    fired: u64,
    scheduled: u64,
    clock: SimTime,
    canceled_due_now: u64,
    same_instant: u64,
    calls: u64,
    call_cancels: u64,
}

fn drive<E: Sched>(mut e: E, seed: u64) -> Outcome {
    let mut w = World::new(seed);
    e.at(SENTINEL_AT, |w, e| fire(w, e, u64::MAX));
    for _ in 0..ROUNDS {
        for _ in 0..w.below(8) {
            act(&mut w, &mut e);
        }
        let deadline = e.now() + SimTime::from_nanos(w.below(40) * 10);
        let clock = e.run_until(&mut w, deadline);
        w.log.push(Entry::RanUntil {
            clock_ns: clock.as_nanos(),
        });
    }
    let clock = e.run(&mut w);
    let (fired, scheduled) = e.fired_scheduled();
    Outcome {
        log: w.log,
        fired,
        scheduled,
        clock,
        canceled_due_now: w.canceled_due_now,
        same_instant: w.same_instant,
        calls: w.calls,
        call_cancels: w.call_cancels,
    }
}

#[test]
fn split_queue_engine_fires_in_baseline_order() {
    let (mut canceled_due_now, mut same_instant, mut cancels) = (0, 0, 0);
    let (mut calls, mut called, mut call_cancels) = (0, 0, 0);
    for seed in 0..48u64 {
        let new = drive(NewEngine::new(), seed);
        let base = drive(BaseEngine::new(), seed);
        if let Some(i) = (0..new.log.len().min(base.log.len())).find(|&i| new.log[i] != base.log[i])
        {
            panic!(
                "seed {seed}: first divergence at log entry {i}: engine {:?}, baseline {:?}",
                new.log[i], base.log[i]
            );
        }
        assert_eq!(new.log.len(), base.log.len(), "seed {seed}: log length");
        assert_eq!(new.fired, base.fired, "seed {seed}: events_fired");
        assert_eq!(
            new.scheduled, base.scheduled,
            "seed {seed}: events_scheduled"
        );
        assert_eq!(new.clock, base.clock, "seed {seed}: final clock");
        assert!(new.clock >= SENTINEL_AT, "seed {seed}: the sentinel fired");
        canceled_due_now += new.canceled_due_now;
        same_instant += new.same_instant;
        calls += new.calls;
        call_cancels += new.call_cancels;
        called += new
            .log
            .iter()
            .filter(|e| matches!(e, Entry::Called { .. }))
            .count();
        cancels += new
            .log
            .iter()
            .filter(|e| matches!(e, Entry::Canceled { ok: true, .. }))
            .count();
    }
    // The scripts must actually exercise the cases the split queue risks.
    assert!(cancels > 100, "only {cancels} successful cancels");
    assert!(
        canceled_due_now > 10,
        "only {canceled_due_now} cancels of timers due at the current instant"
    );
    assert!(
        same_instant > 100,
        "only {same_instant} same-instant schedules"
    );
    assert!(calls > 1000, "only {calls} call events and call timers");
    assert!(called > 1000, "only {called} call events fired");
    assert!(
        call_cancels > 100,
        "only {call_cancels} successful cancels of call timers"
    );
}
