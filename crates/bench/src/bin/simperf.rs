//! Scheduler-throughput report: measures the overhauled `draid_sim::Engine`
//! against the vendored pre-overhaul engine (`draid_bench::baseline`) on
//! micro scenarios that isolate the event-engine hot paths, plus the
//! wall-clock time of a reference macro run, and writes `BENCH_sim.json`.
//!
//! ```text
//! cargo run --release -p draid-bench --bin simperf [--quick] [--out PATH]
//! ```
//!
//! Scenarios (each runs bit-for-bit identically on both engines, so the
//! fired-event counts match and the speedup is a pure time ratio):
//!
//! * `heap_random_steady` — a bounded in-flight window of events, each
//!   firing rescheduling a successor at a pseudorandom future delta (the
//!   steady-state shape of a running simulation); stresses heap sift cost
//!   (24-byte index entries vs. boxed-closure fat entries) with a hot,
//!   bounded slab.
//! * `completion_chain_backlog` — a long same-instant completion chain over
//!   a deep backlog of far-future timers; stresses the same-instant FIFO
//!   fast path against sift-to-root heap pushes. This is the headline
//!   number the acceptance bar (≥ 3×) checks: it is the shape of a busy
//!   simulated array, where every I/O completion at `now` used to pay
//!   `O(log backlog)` twice.
//! * `timer_arm_cancel` — arm a deadline per op, then cancel it from the
//!   op's completion (first-class `cancel` vs. the old tombstone-closure
//!   idiom that fires every dead deadline as a no-op closure call).
//! * `deadline_backlog` — the measured heap of the 4 KiB RMW benchmark run
//!   (`fio_rmw_4k`): about 90 ops in flight, each a chain of 20 step events
//!   under a long cancelable deadline, over ~24 k canceled deadlines not yet
//!   due. Stresses step dispatch beside a backlog of stale timer entries.
//!
//! The report also records the machine it ran on ([`draid_bench::machine`]).

use std::time::{Duration, Instant};

use draid_bench::{baseline, figures, run_report, ReportConfig};
use draid_sim::{SimTime, TimerHandle};

/// splitmix64, for deterministic pseudorandom event times.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Measurement {
    scenario: &'static str,
    engine: &'static str,
    /// Events retired by the run (identical across engines by construction).
    events: u64,
    elapsed: Duration,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs `f` `repeats` times and keeps the fastest run (the usual
/// min-of-N noise filter for wall-clock micro-benchmarks). One untimed
/// warm-up call first, so no engine pays the allocator's page-fault cost.
fn best_of(repeats: usize, mut f: impl FnMut() -> (u64, Duration)) -> (u64, Duration) {
    let mut best = f();
    for _ in 0..repeats {
        let run = f();
        assert_eq!(run.0, best.0, "scenario fired a different event count");
        if run.1 < best.1 {
            best = run;
        }
    }
    best
}

/// The three micro scenarios, stamped out per engine type. The two engines
/// share their scheduling API but no trait, so a macro keeps the scenario
/// bodies literally identical instead of near-duplicated.
use baseline::Engine as EngineBaseline;
use draid_sim::Engine as EngineNew;

macro_rules! engine_scenarios {
    ($heap_fn:ident, $chain_fn:ident, $E:ident) => {
        /// Steady-state heap churn: `inflight` events seeded at pseudorandom
        /// times; each firing schedules one successor at `now + U(1..1000)`
        /// nanoseconds until `n` events have fired in total. The rng stream
        /// rides in the world and advances in firing order, so both engines
        /// execute the bit-identical event sequence.
        fn $heap_fn(n: u64, inflight: u64) -> (u64, Duration) {
            struct W {
                fired: u64,
                rng: u64,
                remaining: u64,
            }
            fn step(w: &mut W, eng: &mut $E<W>) {
                w.fired += 1;
                if w.remaining > 0 {
                    w.remaining -= 1;
                    w.rng = splitmix64(w.rng);
                    let delta = SimTime::from_nanos(1 + w.rng % 1_000);
                    eng.schedule_in(delta, |w: &mut W, eng| step(w, eng));
                }
            }
            let start = Instant::now();
            let mut eng: $E<W> = $E::new();
            let mut w = W {
                fired: 0,
                rng: 0x0123_4567_89AB_CDEF,
                remaining: n - inflight,
            };
            for i in 0..inflight {
                let at = SimTime::from_nanos(1 + splitmix64(i) % 1_000);
                eng.schedule_at(at, |w: &mut W, eng| step(w, eng));
            }
            eng.run(&mut w);
            assert_eq!(w.fired, n, "every scheduled event must fire");
            (eng.stats().events_fired, start.elapsed())
        }

        /// A same-instant completion chain of `chain` events over a backlog
        /// of `backlog` far-future timers at distinct times. The engine is
        /// stopped when the chain ends so only chain dispatch is measured.
        fn $chain_fn(chain: u64, backlog: u64) -> (u64, Duration) {
            fn step(w: &mut u64, eng: &mut $E<u64>, remaining: u64) {
                *w += 1;
                if remaining > 0 {
                    eng.schedule_in(SimTime::ZERO, move |w, eng| step(w, eng, remaining - 1));
                } else {
                    eng.stop();
                }
            }
            let start = Instant::now();
            let mut eng: $E<u64> = $E::new();
            let mut fired = 0u64;
            for i in 0..backlog {
                // Distinct far-future times, beyond the chain's instant.
                let at = SimTime::from_micros(1_000 + i);
                eng.schedule_at(at, |_, _| {});
            }
            eng.schedule_at(SimTime::from_nanos(1), move |w, eng| {
                step(w, eng, chain - 1);
            });
            eng.run(&mut fired);
            assert_eq!(fired, chain, "chain must run to completion");
            (eng.stats().events_fired, start.elapsed())
        }
    };
}

engine_scenarios!(heap_random_new, chain_backlog_new, EngineNew);
engine_scenarios!(heap_random_baseline, chain_backlog_baseline, EngineBaseline);

const COMPLETION_DELAY: SimTime = SimTime::from_nanos(200);
/// Op deadlines dwarf completion latency (as in the real array config), so
/// hundreds of not-yet-due deadline entries are pending at any instant.
const DEADLINE_DELAY: SimTime = SimTime::from_micros(100);

/// `n` ops on the new engine: each arms a cancelable deadline timer, then
/// its completion (200 ns later) cancels the deadline and launches the next
/// op. No deadline handler ever runs; stale entries retire at due time.
fn timer_cancel_new(n: u64) -> (u64, Duration) {
    fn arm(eng: &mut draid_sim::Engine<u64>, remaining: u64) {
        let deadline = eng.schedule_timer_in(DEADLINE_DELAY, |_, _| {
            panic!("deadline fired despite cancellation");
        });
        eng.schedule_in(COMPLETION_DELAY, move |w: &mut u64, eng| {
            *w += 1;
            assert!(eng.cancel(deadline), "deadline still pending");
            if remaining > 0 {
                arm(eng, remaining - 1);
            }
        });
    }
    let start = Instant::now();
    let mut eng: draid_sim::Engine<u64> = draid_sim::Engine::new();
    let mut completed = 0u64;
    arm(&mut eng, n - 1);
    eng.run(&mut completed);
    assert_eq!(completed, n, "every op must complete");
    (eng.stats().events_fired, start.elapsed())
}

/// The same op pattern on the baseline engine, written the only way it
/// could be: the deadline closure is a tombstone that checks a done flag
/// and fires as a no-op, because the old API had no way to cancel.
fn timer_cancel_baseline(n: u64) -> (u64, Duration) {
    struct World {
        completed: u64,
        done: Vec<bool>,
    }
    fn arm(eng: &mut baseline::Engine<World>, op: u64, total: u64) {
        eng.schedule_in(DEADLINE_DELAY, move |w: &mut World, _| {
            assert!(w.done[op as usize], "deadline fired on a live op");
        });
        eng.schedule_in(COMPLETION_DELAY, move |w: &mut World, eng| {
            w.completed += 1;
            w.done[op as usize] = true;
            if op + 1 < total {
                arm(eng, op + 1, total);
            }
        });
    }
    let start = Instant::now();
    let mut eng: baseline::Engine<World> = baseline::Engine::new();
    let mut world = World {
        completed: 0,
        done: vec![false; n as usize],
    };
    arm(&mut eng, 0, n);
    eng.run(&mut world);
    assert_eq!(world.completed, n, "every op must complete");
    (eng.stats().events_fired, start.elapsed())
}

/// Ops in flight in `deadline_backlog`, beside `BACKLOG_STALE` canceled
/// deadlines: the shape of the event heap at the end of a dRAID
/// `fio_rmw_4k` run, which held 86 live events over 24,456 stale deadlines.
const BACKLOG_LIVE: u64 = 90;
const BACKLOG_STALE: u64 = 24_000;
/// Step events per op (`fio_rmw_4k` runs 20.3 engine events per op).
const BACKLOG_STEPS: u64 = 20;
/// Each op's deadline. Steps take 500 ns on average, so ops complete at
/// `BACKLOG_LIVE / (BACKLOG_STEPS * 500 ns)` and their canceled deadlines
/// keep about `BACKLOG_STALE` stale entries pending.
const BACKLOG_DEADLINE: SimTime =
    SimTime::from_nanos(BACKLOG_STALE * BACKLOG_STEPS * 500 / BACKLOG_LIVE);

/// Due time of the `i`-th pre-seeded canceled deadline, spread evenly over
/// one deadline so the backlog starts at its steady-state size.
fn backlog_seed_at(i: u64) -> SimTime {
    SimTime::from_nanos(BACKLOG_DEADLINE.as_nanos() * (i + 1) / BACKLOG_STALE)
}

/// The pseudorandom delay before an op's next step.
fn backlog_delta(rng: &mut u64) -> SimTime {
    *rng = splitmix64(*rng);
    SimTime::from_nanos(1 + *rng % 1_000)
}

/// `deadline_backlog` on the new engine: `ops` ops, each arming a
/// cancelable deadline and canceling it after its last step. Only the run
/// is timed, not the seeding of the stale backlog.
fn deadline_backlog_new(ops: u64) -> (u64, Duration) {
    struct W {
        rng: u64,
        started: u64,
        completed: u64,
        ops: u64,
    }
    type E = draid_sim::Engine<W>;
    fn start_op(w: &mut W, eng: &mut E) {
        w.started += 1;
        let deadline = eng.schedule_timer_in(BACKLOG_DEADLINE, |_, _| {
            panic!("deadline fired despite cancellation");
        });
        step(w, eng, deadline, BACKLOG_STEPS);
    }
    fn step(w: &mut W, eng: &mut E, deadline: TimerHandle, left: u64) {
        let delta = backlog_delta(&mut w.rng);
        eng.schedule_in(delta, move |w: &mut W, eng| {
            if left > 1 {
                step(w, eng, deadline, left - 1);
                return;
            }
            assert!(eng.cancel(deadline), "deadline still pending");
            w.completed += 1;
            if w.completed == w.ops {
                eng.stop();
            } else if w.started < w.ops {
                start_op(w, eng);
            }
        });
    }
    let mut eng: E = draid_sim::Engine::new();
    for i in 0..BACKLOG_STALE {
        let stale = eng.schedule_timer_at(backlog_seed_at(i), |_, _| {});
        eng.cancel(stale);
    }
    let mut w = W {
        rng: 0x0123_4567_89AB_CDEF,
        started: 0,
        completed: 0,
        ops,
    };
    let start = Instant::now();
    for _ in 0..BACKLOG_LIVE {
        start_op(&mut w, &mut eng);
    }
    eng.run(&mut w);
    assert_eq!(w.completed, ops, "every op must complete");
    (eng.stats().events_fired, start.elapsed())
}

/// The same ops on the baseline engine, with tombstone deadlines that fire
/// as no-ops (the old API had no cancel).
fn deadline_backlog_baseline(ops: u64) -> (u64, Duration) {
    struct W {
        rng: u64,
        started: u64,
        completed: u64,
        ops: u64,
        done: Vec<bool>,
    }
    type E = baseline::Engine<W>;
    fn start_op(w: &mut W, eng: &mut E) {
        let op = w.started as usize;
        w.started += 1;
        eng.schedule_in(BACKLOG_DEADLINE, move |w: &mut W, _| {
            assert!(w.done[op], "deadline fired on a live op");
        });
        step(w, eng, op, BACKLOG_STEPS);
    }
    fn step(w: &mut W, eng: &mut E, op: usize, left: u64) {
        let delta = backlog_delta(&mut w.rng);
        eng.schedule_in(delta, move |w: &mut W, eng| {
            if left > 1 {
                step(w, eng, op, left - 1);
                return;
            }
            w.done[op] = true;
            w.completed += 1;
            if w.completed == w.ops {
                eng.stop();
            } else if w.started < w.ops {
                start_op(w, eng);
            }
        });
    }
    let mut eng: E = baseline::Engine::new();
    for i in 0..BACKLOG_STALE {
        eng.schedule_at(backlog_seed_at(i), |_, _| {});
    }
    let mut w = W {
        rng: 0x0123_4567_89AB_CDEF,
        started: 0,
        completed: 0,
        ops,
        done: vec![false; ops as usize],
    };
    let start = Instant::now();
    for _ in 0..BACKLOG_LIVE {
        start_op(&mut w, &mut eng);
    }
    eng.run(&mut w);
    assert_eq!(w.completed, ops, "every op must complete");
    (eng.stats().events_fired, start.elapsed())
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(s.chars().all(|c| c != '"' && c != '\\' && !c.is_control()));
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let (repeats, scale) = if quick { (2, 10) } else { (5, 1) };
    let heap_n = 200_000 / scale;
    let chain_n = 200_000 / scale;
    let backlog = 10_000 / scale;
    let ops = 100_000 / scale;
    let backlog_ops = 10_000 / scale;

    let mut results: Vec<Measurement> = Vec::new();
    let mut measure =
        |scenario: &'static str, engine: &'static str, f: &mut dyn FnMut() -> (u64, Duration)| {
            let (events, elapsed) = best_of(repeats, f);
            let m = Measurement {
                scenario,
                engine,
                events,
                elapsed,
            };
            println!(
                "{:<26} {:<9} {:>9} events  {:>8.2} M events/s",
                scenario,
                engine,
                events,
                m.events_per_sec() / 1e6
            );
            results.push(m);
        };

    measure("heap_random_steady", "new", &mut || {
        heap_random_new(heap_n, 1_000)
    });
    measure("heap_random_steady", "baseline", &mut || {
        heap_random_baseline(heap_n, 1_000)
    });
    measure("completion_chain_backlog", "new", &mut || {
        chain_backlog_new(chain_n, backlog)
    });
    measure("completion_chain_backlog", "baseline", &mut || {
        chain_backlog_baseline(chain_n, backlog)
    });
    measure("timer_arm_cancel", "new", &mut || timer_cancel_new(ops));
    measure("timer_arm_cancel", "baseline", &mut || {
        timer_cancel_baseline(ops)
    });
    measure("deadline_backlog", "new", &mut || {
        deadline_backlog_new(backlog_ops)
    });
    measure("deadline_backlog", "baseline", &mut || {
        deadline_backlog_baseline(backlog_ops)
    });

    let rate = |scenario: &str, engine: &str| {
        results
            .iter()
            .find(|m| m.scenario == scenario && m.engine == engine)
            .expect("scenario measured on both engines")
            .events_per_sec()
    };
    let scenarios = [
        "heap_random_steady",
        "completion_chain_backlog",
        "timer_arm_cancel",
        "deadline_backlog",
    ];
    let speedups: Vec<(&str, f64)> = scenarios
        .iter()
        .map(|&s| (s, rate(s, "new") / rate(s, "baseline")))
        .collect();
    for (s, x) in &speedups {
        println!("{s:<26} speedup {x:.2}x");
    }
    let headline = speedups
        .iter()
        .find(|(s, _)| *s == "completion_chain_backlog")
        .expect("headline scenario present")
        .1;
    println!("headline (completion_chain_backlog) speedup: {headline:.2}x");

    // Macro check: wall time of full-event-mix runs on the real array
    // model (not micro loops): the reference bottleneck-report scenario,
    // plus two reference figures in full mode (skipped under --quick so
    // the CI smoke stays fast).
    let mut macros: Vec<(&'static str, f64)> = Vec::new();
    let mut macro_time = |name: &'static str, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        println!("macro {name}: {ms:.1} ms");
        macros.push((name, ms));
    };
    macro_time("report_quick", &mut || {
        let _ = run_report(&ReportConfig::quick());
    });
    if !quick {
        for id in ["fig10", "fig15"] {
            let spec = figures::by_id(id).expect("known reference figure");
            macro_time(id, &mut || {
                let _ = spec.build();
            });
        }
    }

    // The serde shim is a no-op, so the report is written as literal JSON.
    use std::fmt::Write as _;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"simperf\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"machine\": {},", draid_bench::machine::json());
    let _ = writeln!(json, "  \"results\": [");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"engine\": \"{}\", \"events\": {}, \"events_per_sec\": {:.0}}}{comma}",
            json_escape_free(m.scenario),
            json_escape_free(m.engine),
            m.events,
            m.events_per_sec()
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": [");
    for (i, (s, x)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"speedup\": {:.2}}}{comma}",
            json_escape_free(s),
            x
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"headline_speedup\": {headline:.2},");
    let _ = writeln!(json, "  \"macro\": [");
    for (i, (name, ms)) in macros.iter().enumerate() {
        let comma = if i + 1 < macros.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"wall_ms\": {:.1}}}{comma}",
            json_escape_free(name),
            ms
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write sim report");
    println!("wrote {out_path}");
}
