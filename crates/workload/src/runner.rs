//! The closed-loop benchmark runner.

use std::cell::RefCell;
use std::rc::Rc;

use draid_core::ArraySim;
use draid_sim::{Engine, SimTime};

use crate::{FioJob, FioStream};

/// Results of one measured run.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    /// User bandwidth over the measured window, decimal MB/s (the paper's
    /// bandwidth axis unit).
    pub bandwidth_mb_per_sec: f64,
    /// User throughput, thousands of I/Os per second.
    pub kiops: f64,
    /// Mean end-to-end latency, µs (the paper's latency axis unit).
    pub mean_latency_us: f64,
    /// Median latency, µs.
    pub p50_latency_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_latency_us: f64,
    /// Completed reads in the window.
    pub reads: u64,
    /// Completed writes in the window.
    pub writes: u64,
    /// Bytes the host NIC sent during the window.
    pub host_tx_bytes: u64,
    /// Bytes the host NIC received during the window.
    pub host_rx_bytes: u64,
    /// Peak per-member-core utilization over the window (§7's "<25% of the
    /// CPU cycles" check).
    pub max_member_cpu: f64,
    /// Host-core utilization over the window.
    pub host_cpu: f64,
    /// Stripe-op retries observed (§5.4).
    pub retries: u64,
    /// Op deadline expirations observed.
    pub timeouts: u64,
    /// User I/Os that took a degraded path.
    pub degraded_ios: u64,
    /// User I/Os that failed permanently.
    pub failed_ios: u64,
    /// Length of the measured window.
    pub window: SimTime,
}

/// Closed-loop driver with warm-up and measurement phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Runner {
    /// Warm-up duration (counters are discarded).
    pub warmup: SimTime,
    /// Measured duration.
    pub measure: SimTime,
}

impl Runner {
    /// The default experiment shape: 50 ms warm-up, 200 ms measured — long
    /// enough for queue-depth equilibria at every operating point in the
    /// paper's sweeps.
    pub fn new() -> Self {
        Runner {
            warmup: SimTime::from_millis(50),
            measure: SimTime::from_millis(200),
        }
    }

    /// A short run for tests and doc examples.
    pub fn quick() -> Self {
        Runner {
            warmup: SimTime::from_millis(5),
            measure: SimTime::from_millis(20),
        }
    }

    /// Runs `job` against `array` and reports the measured window.
    ///
    /// The runner keeps `job.queue_depth` I/Os outstanding: every completion
    /// hook immediately submits the next I/O, so the array operates at a
    /// fixed concurrency like FIO's `iodepth`.
    pub fn run(&self, mut array: ArraySim, job: &FioJob) -> RunReport {
        let mut engine: Engine<ArraySim> = Engine::new();
        Self::start_closed_loop(&mut array, &mut engine, job);
        array.run_window(&mut engine, self.warmup, self.measure, 8, |_| {}, |_, _| {});
        report_from(&mut array, self.warmup + self.measure, self.measure)
    }

    /// Starts `job` as a closed loop: submits `job.queue_depth` I/Os now,
    /// and every completion hook submits the next one.
    pub fn start_closed_loop(array: &mut ArraySim, engine: &mut Engine<ArraySim>, job: &FioJob) {
        let stream = Rc::new(RefCell::new(FioStream::new(*job)));
        for _ in 0..job.queue_depth {
            resubmit(array, engine, &stream);
        }
    }
}

/// Builds a [`RunReport`] from the array's measured-window state, where `now`
/// is the absolute end of the window (utilizations are clamped to it).
///
/// Takes `&mut` so percentiles sort the stats histograms in place instead of
/// cloning their sample vectors.
pub(crate) fn report_from(array: &mut ArraySim, now: SimTime, window: SimTime) -> RunReport {
    let (mean_us, p50, p99, counters) = {
        let stats = &mut array.stats;
        let mean_us = stats.mean_latency().as_micros_f64();
        // Merge read/write percentiles by the dominant class.
        let dominant = if stats.read_latency.len() >= stats.write_latency.len() {
            &mut stats.read_latency
        } else {
            &mut stats.write_latency
        };
        let (p50, p99) = if dominant.is_empty() {
            (0.0, 0.0)
        } else {
            (
                dominant.percentile(50.0).as_micros_f64(),
                dominant.percentile(99.0).as_micros_f64(),
            )
        };
        let counters = (
            stats.bandwidth_mb_per_sec(window),
            stats.kiops(window),
            stats.reads,
            stats.writes,
            stats.retries,
            stats.timeouts,
            stats.degraded_ios,
            stats.failed_ios,
        );
        (mean_us, p50, p99, counters)
    };
    let host = array.cluster.host_node();
    let max_member_cpu = (0..array.config().width)
        .map(|m| {
            array
                .cluster
                .cpu(array.cluster.server_node(draid_block::ServerId(m)))
                .utilization(now)
        })
        .fold(0.0f64, f64::max);
    let (bandwidth_mb_per_sec, kiops, reads, writes, retries, timeouts, degraded_ios, failed_ios) =
        counters;
    RunReport {
        bandwidth_mb_per_sec,
        kiops,
        mean_latency_us: mean_us,
        p50_latency_us: p50,
        p99_latency_us: p99,
        reads,
        writes,
        host_tx_bytes: array.cluster.fabric().bytes_sent(host),
        host_rx_bytes: array.cluster.fabric().bytes_received(host),
        max_member_cpu,
        host_cpu: array.cluster.cpu(host).utilization(now),
        retries,
        timeouts,
        degraded_ios,
        failed_ios,
        window,
    }
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

fn resubmit(array: &mut ArraySim, engine: &mut Engine<ArraySim>, stream: &Rc<RefCell<FioStream>>) {
    let io = stream.borrow_mut().next_io(array.layout());
    let stream = Rc::clone(stream);
    array.submit_with_hook(
        engine,
        io,
        Some(Box::new(move |array, engine, _res| {
            resubmit(array, engine, &stream);
        })),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use draid_block::Cluster;
    use draid_core::{ArrayConfig, ArraySim, SystemKind};

    fn array(system: SystemKind) -> ArraySim {
        let cfg = ArrayConfig::paper_default(system);
        ArraySim::new(Cluster::homogeneous(cfg.width), cfg).expect("valid")
    }

    #[test]
    fn sustained_write_run_reports_sane_numbers() {
        let report = Runner::quick().run(
            array(SystemKind::Draid),
            &FioJob::random_write(128 * 1024).queue_depth(16),
        );
        assert!(report.writes > 0);
        assert_eq!(report.reads, 0);
        assert!(report.bandwidth_mb_per_sec > 100.0, "{report:?}");
        assert!(report.mean_latency_us > 1.0);
        assert!(report.p99_latency_us >= report.p50_latency_us);
        assert_eq!(report.failed_ios, 0);
    }

    #[test]
    fn draid_beats_centralized_on_partial_writes() {
        // At the paper's 8-target default the drives bound both systems, so
        // the gap is modest here (see EXPERIMENTS.md); at width 18 the host
        // NIC binds and the Fig. 12 2x separation must appear.
        let job = FioJob::random_write(128 * 1024).queue_depth(32);
        let draid = Runner::quick().run(array(SystemKind::Draid), &job);
        let spdk = Runner::quick().run(array(SystemKind::SpdkRaid), &job);
        assert!(
            draid.bandwidth_mb_per_sec > 1.05 * spdk.bandwidth_mb_per_sec,
            "width 8: draid {:.0} vs spdk {:.0}",
            draid.bandwidth_mb_per_sec,
            spdk.bandwidth_mb_per_sec
        );

        let wide = |system: SystemKind| {
            let mut cfg = ArrayConfig::paper_default(system);
            cfg.width = 18;
            let array = ArraySim::new(Cluster::homogeneous(18), cfg).expect("valid");
            Runner::quick()
                .run(array, &FioJob::random_write(128 * 1024).queue_depth(96))
                .bandwidth_mb_per_sec
        };
        let (draid18, spdk18) = (wide(SystemKind::Draid), wide(SystemKind::SpdkRaid));
        assert!(
            draid18 > 1.8 * spdk18,
            "width 18: draid {draid18:.0} vs spdk {spdk18:.0}"
        );
    }

    #[test]
    fn reads_saturate_equally_across_systems() {
        // Fig. 9 at large I/O: all systems reach the NIC goodput.
        let job = FioJob::random_read(128 * 1024).queue_depth(32);
        let draid = Runner::quick().run(array(SystemKind::Draid), &job);
        let spdk = Runner::quick().run(array(SystemKind::SpdkRaid), &job);
        let ratio = draid.bandwidth_mb_per_sec / spdk.bandwidth_mb_per_sec;
        assert!((0.9..1.2).contains(&ratio), "ratio {ratio}");
        // Near the 92 Gbps goodput (11500 MB/s).
        assert!(draid.bandwidth_mb_per_sec > 9_000.0, "{draid:?}");
    }

    #[test]
    fn member_cpu_stays_modest() {
        // §7: dRAID must stay resource-conservative on storage servers.
        let job = FioJob::random_write(128 * 1024).queue_depth(32);
        let report = Runner::quick().run(array(SystemKind::Draid), &job);
        assert!(
            report.max_member_cpu < 0.5,
            "member core too busy: {}",
            report.max_member_cpu
        );
    }
}
