//! Open-loop workload driving: arrivals follow a stochastic process
//! independent of completions, the right methodology for latency-under-load
//! curves and for the bursty, elastic traffic of the serverless platforms
//! that motivate disaggregated storage (§1 of the paper).

use std::cell::RefCell;
use std::rc::Rc;

use draid_core::ArraySim;
use draid_sim::{DetRng, Engine, SimTime};

use crate::{FioJob, RunReport, Runner};

/// Arrival process of an open-loop run.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ArrivalPattern {
    /// Poisson arrivals at a constant rate (ops/sec).
    Poisson {
        /// Mean arrival rate in operations per second.
        rate: f64,
    },
    /// On/off bursts: `burst_rate` for `duty` of each `period`, `idle_rate`
    /// for the rest — a serverless-style load shape.
    Burst {
        /// Arrival rate during the burst phase (ops/sec).
        burst_rate: f64,
        /// Arrival rate during the idle phase (ops/sec).
        idle_rate: f64,
        /// Length of one on+off cycle.
        period: SimTime,
        /// Fraction of the period spent bursting, in `(0, 1]`.
        duty: f64,
    },
}

impl ArrivalPattern {
    /// The instantaneous rate at simulated time `now`.
    pub fn rate_at(&self, now: SimTime) -> f64 {
        match *self {
            ArrivalPattern::Poisson { rate } => rate,
            ArrivalPattern::Burst {
                burst_rate,
                idle_rate,
                period,
                duty,
            } => {
                let phase = now.as_nanos() % period.as_nanos().max(1);
                if (phase as f64) < duty * period.as_nanos() as f64 {
                    burst_rate
                } else {
                    idle_rate
                }
            }
        }
    }

    /// Mean rate over a full cycle.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalPattern::Poisson { rate } => rate,
            ArrivalPattern::Burst {
                burst_rate,
                idle_rate,
                duty,
                ..
            } => burst_rate * duty + idle_rate * (1.0 - duty),
        }
    }

    fn validate(&self) {
        match *self {
            ArrivalPattern::Poisson { rate } => {
                assert!(rate > 0.0 && rate.is_finite(), "invalid rate {rate}")
            }
            ArrivalPattern::Burst {
                burst_rate,
                idle_rate,
                period,
                duty,
            } => {
                assert!(burst_rate > 0.0 && burst_rate.is_finite());
                assert!(idle_rate >= 0.0 && idle_rate.is_finite());
                assert!(period > SimTime::ZERO, "burst period must be positive");
                assert!((0.0..=1.0).contains(&duty) && duty > 0.0, "bad duty {duty}");
            }
        }
    }
}

/// Outcome of an open-loop run: the closed-loop [`RunReport`] plus
/// open-loop-specific observations.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct OpenLoopReport {
    /// The standard measurements over the measured window.
    pub report: RunReport,
    /// Offered load over the window (ops/sec).
    pub offered_ops_per_sec: f64,
    /// Largest number of simultaneously outstanding I/Os observed.
    pub peak_inflight: usize,
    /// Arrivals dropped because `max_inflight` was reached — nonzero means
    /// the array is overloaded at this offered rate.
    pub shed: u64,
}

impl OpenLoopReport {
    /// Whether the array kept up with the offered load.
    pub fn stable(&self) -> bool {
        self.shed == 0 && self.report.kiops * 1e3 >= self.offered_ops_per_sec * 0.95
    }
}

struct OpenState {
    rng: DetRng,
    inflight: usize,
    peak_inflight: usize,
    shed: u64,
    arrivals: u64,
}

/// Open-loop driver: submits I/Os per an [`ArrivalPattern`], bounded by
/// `max_inflight` (arrivals beyond the bound are shed and counted).
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopRunner {
    /// Arrival process.
    pub pattern: ArrivalPattern,
    /// Warm-up duration.
    pub warmup: SimTime,
    /// Measured duration.
    pub measure: SimTime,
    /// Outstanding-I/O bound (protects the simulation from unbounded queues
    /// in overload; 4096 by default).
    pub max_inflight: usize,
}

impl OpenLoopRunner {
    /// Creates a runner with the default 50 ms + 200 ms phases.
    pub fn new(pattern: ArrivalPattern) -> Self {
        pattern.validate();
        let base = Runner::new();
        OpenLoopRunner {
            pattern,
            warmup: base.warmup,
            measure: base.measure,
            max_inflight: 4096,
        }
    }

    /// Runs `job`'s access pattern under this arrival process.
    ///
    /// `job.queue_depth` is ignored — concurrency emerges from the arrival
    /// process and service times.
    pub fn run(&self, mut array: ArraySim, job: &FioJob) -> OpenLoopReport {
        self.pattern.validate();
        let mut engine: Engine<ArraySim> = Engine::new();
        let state = Rc::new(RefCell::new(OpenState {
            rng: DetRng::new(job.seed ^ 0x09E4_1009),
            inflight: 0,
            peak_inflight: 0,
            shed: 0,
            arrivals: 0,
        }));
        let params = Params {
            pattern: self.pattern,
            job: *job,
            max_inflight: self.max_inflight,
            measure_from: self.warmup,
            measure_to: self.warmup + self.measure,
        };
        schedule_arrival(&mut engine, &state, &params, SimTime::ZERO);

        array.run_window(
            &mut engine,
            self.warmup,
            self.measure,
            8,
            |_| {
                let mut s = state.borrow_mut();
                s.arrivals = 0;
                s.shed = 0;
                s.peak_inflight = s.inflight;
            },
            |_, _| {},
        );
        let end = self.warmup + self.measure;
        let report = crate::runner::report_from(&mut array, end, self.measure);
        let s = state.borrow();
        OpenLoopReport {
            offered_ops_per_sec: s.arrivals as f64 / self.measure.as_secs_f64(),
            peak_inflight: s.peak_inflight,
            shed: s.shed,
            report,
        }
    }
}

#[derive(Clone, Copy)]
struct Params {
    pattern: ArrivalPattern,
    job: FioJob,
    max_inflight: usize,
    measure_from: SimTime,
    measure_to: SimTime,
}

fn schedule_arrival(
    engine: &mut Engine<ArraySim>,
    state: &Rc<RefCell<OpenState>>,
    params: &Params,
    at: SimTime,
) {
    let state = Rc::clone(state);
    let params = *params;
    engine.schedule_at(at, move |array: &mut ArraySim, eng| {
        let now = eng.now();
        let (io, admit) = {
            let mut s = state.borrow_mut();
            if now >= params.measure_from && now < params.measure_to {
                s.arrivals += 1;
            }
            let admit = s.inflight < params.max_inflight;
            if admit {
                s.inflight += 1;
                s.peak_inflight = s.peak_inflight.max(s.inflight);
            } else if now >= params.measure_from && now < params.measure_to {
                s.shed += 1;
            }
            (params.job.next_io(&mut s.rng, array.layout()), admit)
        };
        if admit {
            let done_state = Rc::clone(&state);
            array.submit_with_hook(
                eng,
                io,
                Some(Box::new(move |_a, _e, _r| {
                    done_state.borrow_mut().inflight -= 1;
                })),
            );
        }
        // Next arrival: exponential inter-arrival at the instantaneous rate.
        let rate = params.pattern.rate_at(now).max(1e-3);
        let dt = {
            let mut s = state.borrow_mut();
            let u = s.rng.unit_f64();
            -(1.0 - u).ln() / rate
        };
        schedule_arrival(eng, &state, &params, now + SimTime::from_secs_f64(dt));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use draid_block::Cluster;
    use draid_core::{ArrayConfig, SystemKind};

    fn array() -> ArraySim {
        let cfg = ArrayConfig::paper_default(SystemKind::Draid);
        ArraySim::new(Cluster::homogeneous(cfg.width), cfg).expect("valid")
    }

    #[test]
    fn poisson_light_load_is_stable_and_low_latency() {
        let pattern = ArrivalPattern::Poisson { rate: 5_000.0 };
        let runner = OpenLoopRunner {
            pattern,
            warmup: SimTime::from_millis(10),
            measure: SimTime::from_millis(50),
            max_inflight: 4096,
        };
        let out = runner.run(array(), &FioJob::random_write(128 * 1024));
        assert!(out.stable(), "{out:?}");
        // Offered ~ achieved ~ 5K ops/s.
        assert!(
            (4_000.0..6_000.0).contains(&out.offered_ops_per_sec),
            "{out:?}"
        );
        assert!(out.report.mean_latency_us < 600.0, "{out:?}");
        assert_eq!(out.shed, 0);
    }

    #[test]
    fn overload_is_detected() {
        // Offer ~4x the 8-target RMW capacity (~38K ops of 128 KiB).
        let pattern = ArrivalPattern::Poisson { rate: 150_000.0 };
        let runner = OpenLoopRunner {
            pattern,
            warmup: SimTime::from_millis(10),
            measure: SimTime::from_millis(50),
            max_inflight: 512,
        };
        let out = runner.run(array(), &FioJob::random_write(128 * 1024));
        assert!(!out.stable(), "{out:?}");
        assert!(out.shed > 0, "overload must shed: {out:?}");
        assert!(out.peak_inflight >= 512);
    }

    #[test]
    fn burst_pattern_rates() {
        let p = ArrivalPattern::Burst {
            burst_rate: 10_000.0,
            idle_rate: 1_000.0,
            period: SimTime::from_millis(10),
            duty: 0.25,
        };
        assert_eq!(p.rate_at(SimTime::from_millis(1)), 10_000.0);
        assert_eq!(p.rate_at(SimTime::from_millis(6)), 1_000.0);
        assert!((p.mean_rate() - 3_250.0).abs() < 1e-9);
    }

    #[test]
    fn bursts_inflate_tail_latency_vs_poisson_at_equal_mean() {
        let job = FioJob::random_write(128 * 1024);
        let mean = 16_000.0;
        let poisson = OpenLoopRunner {
            pattern: ArrivalPattern::Poisson { rate: mean },
            warmup: SimTime::from_millis(10),
            measure: SimTime::from_millis(80),
            max_inflight: 8192,
        }
        .run(array(), &job);
        let burst = OpenLoopRunner {
            pattern: ArrivalPattern::Burst {
                burst_rate: mean * 2.5,
                idle_rate: mean * 0.25,
                period: SimTime::from_millis(8),
                duty: 0.5,
            },
            warmup: SimTime::from_millis(10),
            measure: SimTime::from_millis(80),
            max_inflight: 8192,
        }
        .run(array(), &job);
        assert!(
            burst.report.p99_latency_us > 1.3 * poisson.report.p99_latency_us,
            "burst p99 {:.0} vs poisson p99 {:.0}",
            burst.report.p99_latency_us,
            poisson.report.p99_latency_us
        );
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn zero_rate_rejected() {
        OpenLoopRunner::new(ArrivalPattern::Poisson { rate: 0.0 });
    }
}
