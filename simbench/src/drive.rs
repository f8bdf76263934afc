//! The benchmark's own closed loop over `ArraySim::submit_with_hook` and
//! `Engine::run_until`, with spans around both calls.
//!
//! It issues I/Os and runs the engine in exactly the order
//! `draid_workload::Runner::run` does (only draining completions more
//! often), so on the same array and stream it reproduces the runner's model
//! outputs bit for bit; the workloads check that it does.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use draid_core::{ArraySim, IoResult, Layout, UserIo};
use draid_sim::{Engine, SimTime};
use draid_workload::Runner;

use crate::span;

/// Where the loop's I/Os come from and where their results go.
pub trait Source {
    /// The next I/O to submit, or `None` once the source has stopped.
    fn next_io(&mut self, layout: &Layout) -> Option<UserIo>;
    /// Called with every completed I/O.
    fn complete(&mut self, res: &IoResult);
}

/// One submitted user I/O with the members that were faulty at submission.
pub struct Submitted {
    pub io: UserIo,
    pub faulty: BTreeSet<usize>,
}

/// What one drive of the loop leaves behind for the checks and replays.
pub struct Driven<S> {
    pub engine: Engine<ArraySim>,
    /// Shared with the hooks of the I/Os still in flight.
    pub state: Rc<RefCell<Loop<S>>>,
}

pub struct Loop<S> {
    pub source: S,
    /// User I/Os completed over the whole run, warm-up included.
    pub completions: u64,
    record: bool,
    /// Every submitted I/O, in order, when recording was asked for.
    pub submitted: Vec<Submitted>,
}

/// Capacity of the step trace enabled for the measured window.
const TRACE_CAPACITY: usize = 1 << 20;

/// Runs `source` at `queue_depth` against `array` with the runner's
/// warm-up and measured window, on a fresh `engine` (which may hold a
/// fault schedule). With `record`, the submitted I/Os are kept and the
/// array's step trace covers the measured window.
pub fn drive<S: Source + 'static>(
    array: &mut ArraySim,
    mut engine: Engine<ArraySim>,
    runner: &Runner,
    queue_depth: usize,
    source: S,
    record: bool,
) -> Driven<S> {
    let state = Rc::new(RefCell::new(Loop {
        source,
        completions: 0,
        record,
        submitted: Vec::new(),
    }));
    for _ in 0..queue_depth {
        submit_next(array, &mut engine, &state);
    }
    run_until(&mut engine, array, runner.warmup);
    array.drain_completions();
    array.reset_measurement(runner.warmup);
    if record {
        array.enable_tracing(TRACE_CAPACITY);
    }
    let end = runner.warmup + runner.measure;
    // Drain every simulated millisecond, and at least as often as the
    // runner: draining does not touch the simulation, and a full-data run's
    // queued read payloads would otherwise dominate its memory.
    let slices = (runner.measure.as_nanos() / 1_000_000).max(8);
    let slice = SimTime::from_nanos(runner.measure.as_nanos() / slices);
    for i in 1..=slices {
        let target = if i == slices {
            end
        } else {
            runner.warmup + SimTime::from_nanos(slice.as_nanos() * i)
        };
        run_until(&mut engine, array, target);
        array.drain_completions();
    }
    Driven { engine, state }
}

fn run_until(engine: &mut Engine<ArraySim>, array: &mut ArraySim, t: SimTime) {
    let _s = span::enter("sim.engine.run_until");
    engine.run_until(array, t);
}

fn submit_next<S: Source + 'static>(
    array: &mut ArraySim,
    engine: &mut Engine<ArraySim>,
    state: &Rc<RefCell<Loop<S>>>,
) {
    let io = {
        let mut st = state.borrow_mut();
        let next = {
            let _s = span::enter("workload.next_io");
            st.source.next_io(array.layout())
        };
        let Some(io) = next else {
            return;
        };
        if st.record {
            let faulty = array.faulty_members().into_iter().collect();
            st.submitted.push(Submitted {
                io: io.clone(),
                faulty,
            });
        }
        io
    };
    let state2 = Rc::clone(state);
    let _s = span::enter("core.array.submit");
    array.submit_with_hook(
        engine,
        io,
        Some(Box::new(move |array, engine, res| {
            {
                let mut st = state2.borrow_mut();
                st.completions += 1;
                st.source.complete(res);
            }
            submit_next(array, engine, &state2);
        })),
    );
}
