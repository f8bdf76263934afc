//! Closed-loop application driver: runs a [`BlockApp`] over the simulated
//! array and reports KIOPS/latency like the paper's Figs. 19–21.

use std::cell::RefCell;
use std::rc::Rc;

use draid_core::{ArraySim, UserIo};
use draid_sim::{Engine, Histogram, SimTime};

use crate::{YcsbGen, YcsbOp};

/// The block-I/O footprint of one application operation.
#[derive(Clone, Debug, Default)]
pub struct IoPlan {
    /// Foreground steps executed serially; the op completes when the last
    /// finishes.
    pub steps: Vec<PlanStep>,
    /// Background I/Os (flushes, compaction) issued immediately without
    /// affecting the op's latency.
    pub background: Vec<UserIo>,
}

/// One foreground step of an [`IoPlan`].
#[derive(Clone, Debug)]
pub enum PlanStep {
    /// A block I/O against the array.
    Io(UserIo),
    /// Pure application compute/service time (memtable or cache hits).
    Think(SimTime),
}

impl IoPlan {
    /// A plan with a single I/O.
    pub fn single(io: UserIo) -> Self {
        IoPlan {
            steps: vec![PlanStep::Io(io)],
            background: Vec::new(),
        }
    }

    /// A plan that touches no blocks.
    pub fn compute(d: SimTime) -> Self {
        IoPlan {
            steps: vec![PlanStep::Think(d)],
            background: Vec::new(),
        }
    }
}

/// An application that translates YCSB operations into block I/O.
pub trait BlockApp {
    /// Plans the block I/O for `op`.
    fn plan(&mut self, op: &YcsbOp) -> IoPlan;

    /// Human-readable name for reports.
    fn name(&self) -> &str;
}

/// Results of an application run.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct AppReport {
    /// Operations per second, in thousands (the paper's Fig. 19–21 axis).
    pub kiops: f64,
    /// Mean operation latency, µs.
    pub mean_latency_us: f64,
    /// 99th-percentile operation latency, µs.
    pub p99_latency_us: f64,
    /// Operations completed in the measured window.
    pub ops: u64,
    /// Fraction of the array's NIC-level bandwidth the app consumed (§9.6
    /// observes a single RocksDB instance stays under ~5%).
    pub host_bandwidth_fraction: f64,
    /// Measured window length.
    pub window: SimTime,
}

struct Shared<A: BlockApp> {
    gen: YcsbGen,
    app: A,
    latencies: Histogram,
    ops: u64,
    measuring: bool,
}

/// Closed-loop application runner.
#[derive(Clone, Copy, Debug)]
pub struct AppRunner {
    /// Concurrent application workers (a single RocksDB instance has limited
    /// internal parallelism; the object store can run many client threads).
    pub concurrency: usize,
    /// Warm-up duration.
    pub warmup: SimTime,
    /// Measured duration.
    pub measure: SimTime,
}

impl AppRunner {
    /// Default shape: 20 ms warm-up, 100 ms measured.
    pub fn new(concurrency: usize) -> Self {
        assert!(concurrency > 0, "need at least one worker");
        AppRunner {
            concurrency,
            warmup: SimTime::from_millis(20),
            measure: SimTime::from_millis(100),
        }
    }

    /// Runs the app over the array with the YCSB stream.
    pub fn run<A: BlockApp + 'static>(
        &self,
        mut array: ArraySim,
        app: A,
        gen: YcsbGen,
    ) -> AppReport {
        let mut engine: Engine<ArraySim> = Engine::new();
        let shared = Rc::new(RefCell::new(Shared {
            gen,
            app,
            latencies: Histogram::new(),
            ops: 0,
            measuring: false,
        }));
        for _ in 0..self.concurrency {
            start_op(&mut array, &mut engine, &shared);
        }
        array.run_window(
            &mut engine,
            self.warmup,
            self.measure,
            8,
            |_| {
                let mut s = shared.borrow_mut();
                s.latencies.reset();
                s.ops = 0;
                s.measuring = true;
            },
            |_, _| {},
        );

        let host = array.cluster.host_node();
        let host_bytes =
            array.cluster.fabric().bytes_sent(host) + array.cluster.fabric().bytes_received(host);
        let host_capacity = array.cluster.fabric().node_rate(host).bytes_per_sec() as f64
            * 2.0
            * self.measure.as_secs_f64();
        let mut s = shared.borrow_mut();
        let mean_latency_us = s.latencies.mean().as_micros_f64();
        let p99_latency_us = if s.latencies.is_empty() {
            0.0
        } else {
            s.latencies.percentile(99.0).as_micros_f64()
        };
        AppReport {
            kiops: s.ops as f64 / 1e3 / self.measure.as_secs_f64(),
            mean_latency_us,
            p99_latency_us,
            ops: s.ops,
            host_bandwidth_fraction: host_bytes as f64 / host_capacity,
            window: self.measure,
        }
    }
}

fn start_op<A: BlockApp + 'static>(
    array: &mut ArraySim,
    engine: &mut Engine<ArraySim>,
    shared: &Rc<RefCell<Shared<A>>>,
) {
    let plan = {
        let mut s = shared.borrow_mut();
        let op = s.gen.next_op();
        s.app.plan(&op)
    };
    for bg in &plan.background {
        array.submit(engine, bg.clone());
    }
    let started = engine.now();
    run_steps(array, engine, shared, plan.steps, 0, started);
}

fn run_steps<A: BlockApp + 'static>(
    array: &mut ArraySim,
    engine: &mut Engine<ArraySim>,
    shared: &Rc<RefCell<Shared<A>>>,
    steps: Vec<PlanStep>,
    index: usize,
    started: SimTime,
) {
    if index >= steps.len() {
        // Op complete: record and immediately start the next one.
        {
            let mut s = shared.borrow_mut();
            if s.measuring {
                s.ops += 1;
                s.latencies.record(engine.now().saturating_sub(started));
            }
        }
        start_op(array, engine, shared);
        return;
    }
    let step = steps[index].clone();
    let shared2 = Rc::clone(shared);
    match step {
        PlanStep::Think(d) => {
            engine.schedule_in(d, move |array: &mut ArraySim, engine| {
                run_steps(array, engine, &shared2, steps, index + 1, started);
            });
        }
        PlanStep::Io(io) => {
            array.submit_with_hook(
                engine,
                io,
                Some(Box::new(move |array, engine, _res| {
                    run_steps(array, engine, &shared2, steps, index + 1, started);
                })),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectStore, YcsbWorkload};
    use draid_block::Cluster;
    use draid_core::{ArrayConfig, SystemKind};

    #[test]
    fn object_store_run_produces_throughput() {
        let cfg = ArrayConfig::paper_default(SystemKind::Draid);
        let array = ArraySim::new(Cluster::homogeneous(8), cfg).expect("valid");
        let store = ObjectStore::paper_default();
        let gen =
            YcsbGen::with_distribution(YcsbWorkload::A, crate::Distribution::Uniform, 10_000, 1);
        let runner = AppRunner {
            concurrency: 16,
            warmup: SimTime::from_millis(5),
            measure: SimTime::from_millis(20),
        };
        let report = runner.run(array, store, gen);
        assert!(report.ops > 100, "{report:?}");
        assert!(report.kiops > 1.0);
        assert!(report.mean_latency_us > 0.0);
    }
}

#[cfg(test)]
mod lsm_driver_tests {
    use super::*;
    use crate::{LsmStore, YcsbWorkload};
    use draid_block::Cluster;
    use draid_core::{ArrayConfig, SystemKind};

    #[test]
    fn lsm_runs_on_a_degraded_array() {
        let cfg = ArrayConfig::paper_default(SystemKind::Draid);
        let mut array = ArraySim::new(Cluster::homogeneous(8), cfg).expect("valid");
        array.fail_member(0);
        let runner = AppRunner {
            concurrency: 4,
            warmup: SimTime::from_millis(5),
            measure: SimTime::from_millis(30),
        };
        let report = runner.run(
            array,
            LsmStore::paper_default(),
            crate::YcsbGen::new(YcsbWorkload::A, 50_000, 4),
        );
        assert!(report.ops > 50, "{report:?}");
        assert!(report.kiops > 0.0);
    }
}
