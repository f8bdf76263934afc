//! The `draid-bench report` observability report.
//!
//! Runs a reference scenario under closed-loop load with step tracing and
//! fixed-interval utilization sampling, then attributes where the time and
//! the bytes went: per-resource utilization timeline, per-phase bottleneck,
//! per-class queueing-vs-service latency breakdown, and the byte-conservation
//! ledgers (`offered == served + dropped`) for every NIC direction and drive
//! channel. Renders as aligned text, hand-rolled JSON (validated against
//! `schema/report.schema.json`), or Prometheus exposition text.

use std::cell::RefCell;

use draid_core::{ArraySim, RaidLevel, SystemKind};
use draid_net::LinkDir;
use draid_sim::{Engine, HistogramSummary, MetricsRegistry, SimTime, UtilizationTimeline};
use draid_workload::{FioJob, Runner};

use crate::{build_array, Scenario};

/// What to run and how to sample it.
#[derive(Clone, Copy, Debug)]
pub struct ReportConfig {
    /// The array under observation.
    pub scenario: Scenario,
    /// Closed-loop workload (queue depth comes from the job).
    pub job: FioJob,
    /// Warm-up run before counters are reset.
    pub warmup: SimTime,
    /// Measured window.
    pub measure: SimTime,
    /// Number of fixed-width utilization buckets over the window.
    pub buckets: u64,
}

impl ReportConfig {
    /// The reference scenario: dRAID RAID-6 over 8 members, 128 KiB random
    /// writes at queue depth 32, 20 ms warm-up, 80 ms measured, 16 buckets.
    pub fn reference() -> Self {
        ReportConfig {
            scenario: Scenario::paper(SystemKind::Draid).level(RaidLevel::Raid6),
            job: FioJob::random_write(128 * 1024).queue_depth(32),
            warmup: SimTime::from_millis(20),
            measure: SimTime::from_millis(80),
            buckets: 16,
        }
    }

    /// A short variant of [`ReportConfig::reference`] for tests and CI smoke
    /// runs: same scenario, 2 ms warm-up, 8 ms measured, 4 buckets.
    pub fn quick() -> Self {
        ReportConfig {
            warmup: SimTime::from_millis(2),
            measure: SimTime::from_millis(8),
            buckets: 4,
            ..Self::reference()
        }
    }
}

/// One resource class's aggregate latency demand over the window.
#[derive(Clone, Copy, Debug)]
pub struct ClassRow {
    /// Class label (`network`, `drive`, `cpu`, `control`).
    pub class: &'static str,
    /// Steps executed.
    pub steps: u64,
    /// Total issue-to-completion demand (overlapping steps all count).
    pub span: SimTime,
    /// Portion of `span` spent queueing for the resource.
    pub queue: SimTime,
    /// Portion of `span` spent in service.
    pub service: SimTime,
    /// Bytes moved or processed.
    pub bytes: u64,
}

/// One resource's utilization over the whole measured window.
#[derive(Clone, Debug)]
pub struct UtilRow {
    /// Series name (`net:<node>:egress`, `cpu:<node>`, `drive:<node>`).
    pub resource: String,
    /// Clamped busy time inside the window.
    pub busy: SimTime,
    /// `busy / window`, in `[0, 1]`.
    pub utilization: f64,
}

/// The saturated resource of one timeline bucket.
#[derive(Clone, Debug)]
pub struct BottleneckRow {
    /// End of the bucket.
    pub end: SimTime,
    /// The bucket's highest-utilization resource.
    pub resource: String,
    /// That resource's utilization in the bucket.
    pub utilization: f64,
}

/// One byte-conservation ledger (a NIC direction or a drive channel).
#[derive(Clone, Debug)]
pub struct LedgerRow {
    /// Resource the ledger covers.
    pub resource: String,
    /// Bytes offered to the resource.
    pub offered: u64,
    /// Bytes the resource served.
    pub served: u64,
    /// Bytes refused (link down, drive failed).
    pub dropped: u64,
}

impl LedgerRow {
    /// The conservation invariant: `offered == served + dropped`.
    pub fn balanced(&self) -> bool {
        self.offered == self.served + self.dropped
    }
}

/// Everything the report knows, ready to render.
#[derive(Clone, Debug)]
pub struct BottleneckReport {
    /// Engine under test.
    pub system: SystemKind,
    /// RAID level.
    pub level: RaidLevel,
    /// Stripe width.
    pub width: usize,
    /// Chunk size in KiB.
    pub chunk_kib: u64,
    /// Warm-up length.
    pub warmup: SimTime,
    /// Measured-window length.
    pub measure: SimTime,
    /// Completed reads / writes in the window.
    pub reads: u64,
    /// Completed writes in the window.
    pub writes: u64,
    /// User bytes read.
    pub bytes_read: u64,
    /// User bytes written.
    pub bytes_written: u64,
    /// Aggregate bandwidth, decimal MB/s.
    pub bandwidth_mb_per_sec: f64,
    /// Aggregate throughput, KIOPS.
    pub kiops: f64,
    /// Read-latency summary (zeroes when no reads completed).
    pub read_latency: HistogramSummary,
    /// Write-latency summary (zeroes when no writes completed).
    pub write_latency: HistogramSummary,
    /// Per-class latency demand split into queueing and service.
    pub breakdown: Vec<ClassRow>,
    /// Whole-window utilization per resource, saturated first.
    pub utilization: Vec<UtilRow>,
    /// Per-bucket bottleneck attribution.
    pub bottlenecks: Vec<BottleneckRow>,
    /// Byte-conservation ledgers.
    pub ledgers: Vec<LedgerRow>,
    /// Trace events captured / dropped at the tracer's capacity bound.
    pub trace_events: u64,
    /// Events dropped after the tracer filled.
    pub trace_dropped: u64,
}

impl BottleneckReport {
    /// Whether every ledger balances (`offered == served + dropped`).
    pub fn reconciled(&self) -> bool {
        self.ledgers.iter().all(LedgerRow::balanced)
    }

    /// The saturated resource over the whole window, if anything ran.
    pub fn top_bottleneck(&self) -> Option<&UtilRow> {
        self.utilization.first()
    }
}

/// Runs the scenario and builds the report.
///
/// The driver keeps `job.queue_depth` I/Os outstanding, discards the warm-up,
/// then advances the engine bucket by bucket, sampling every resource's
/// clamped elapsed busy time at each boundary.
pub fn run_report(cfg: &ReportConfig) -> BottleneckReport {
    let mut array = build_array(&cfg.scenario);
    let mut engine: Engine<ArraySim> = Engine::new();
    Runner::start_closed_loop(&mut array, &mut engine, &cfg.job);

    // Discard the warm-up, then start a fresh trace and timeline for the
    // window and sample every resource at each bucket boundary.
    let timeline = RefCell::new(UtilizationTimeline::new(cfg.warmup));
    array.run_window(
        &mut engine,
        cfg.warmup,
        cfg.measure,
        cfg.buckets,
        |array| {
            array.enable_tracing(2_000_000);
            array
                .cluster
                .sample_busy(&mut timeline.borrow_mut(), cfg.warmup);
        },
        |array, t| array.cluster.sample_busy(&mut timeline.borrow_mut(), t),
    );
    let timeline = timeline.into_inner();

    let trace = array.take_trace().expect("tracing enabled above");
    let breakdown = trace
        .breakdown()
        .into_iter()
        .map(|(class, agg)| ClassRow {
            class: class.label(),
            steps: agg.steps,
            span: agg.total_span,
            queue: agg.queue,
            service: agg.service,
            bytes: agg.bytes,
        })
        .collect();

    let mut utilization: Vec<UtilRow> = timeline
        .names()
        .map(|name| {
            let busy = timeline.total_busy(name);
            UtilRow {
                resource: name.to_string(),
                busy,
                utilization: busy.as_secs_f64() / cfg.measure.as_secs_f64(),
            }
        })
        .collect();
    utilization.sort_by(|a, b| {
        b.utilization
            .partial_cmp(&a.utilization)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.resource.cmp(&b.resource))
    });

    let bottlenecks = timeline
        .bottlenecks()
        .into_iter()
        .map(|(bucket_end, resource, utilization)| BottleneckRow {
            end: bucket_end,
            resource,
            utilization,
        })
        .collect();

    let ledgers = collect_ledgers(&array);
    let stats = &mut array.stats;
    BottleneckReport {
        system: cfg.scenario.system,
        level: cfg.scenario.level,
        width: cfg.scenario.width,
        chunk_kib: cfg.scenario.chunk_kib,
        warmup: cfg.warmup,
        measure: cfg.measure,
        reads: stats.reads,
        writes: stats.writes,
        bytes_read: stats.bytes_read,
        bytes_written: stats.bytes_written,
        bandwidth_mb_per_sec: stats.bandwidth_mb_per_sec(cfg.measure),
        kiops: stats.kiops(cfg.measure),
        read_latency: stats.read_latency.summary(),
        write_latency: stats.write_latency.summary(),
        breakdown,
        utilization,
        bottlenecks,
        ledgers,
        trace_events: trace.events().len() as u64,
        trace_dropped: trace.dropped(),
    }
}

fn collect_ledgers(array: &ArraySim) -> Vec<LedgerRow> {
    let cluster = &array.cluster;
    let fabric = cluster.fabric();
    let mut nodes = vec![(cluster.host_node(), None)];
    for m in 0..array.config().width {
        let server = draid_block::ServerId(m);
        nodes.push((cluster.server_node(server), Some(server)));
    }
    let mut out = Vec::new();
    for (node, server) in nodes {
        let name = fabric.node_name(node);
        out.push(LedgerRow {
            resource: format!("net:{name}:egress"),
            offered: fabric.bytes_offered(node, LinkDir::Egress),
            served: fabric.bytes_sent(node),
            dropped: fabric.bytes_dropped(node, LinkDir::Egress),
        });
        out.push(LedgerRow {
            resource: format!("net:{name}:ingress"),
            offered: fabric.bytes_offered(node, LinkDir::Ingress),
            served: fabric.bytes_received(node),
            dropped: fabric.bytes_dropped(node, LinkDir::Ingress),
        });
        if let Some(server) = server {
            let drive = cluster.drive(server);
            out.push(LedgerRow {
                resource: format!("drive:{name}"),
                offered: drive.bytes_offered(),
                served: drive.bytes_served(),
                dropped: drive.bytes_dropped(),
            });
        }
    }
    out
}

fn level_label(level: RaidLevel) -> &'static str {
    match level {
        RaidLevel::Raid5 => "raid5",
        RaidLevel::Raid6 => "raid6",
    }
}

fn summary_json(s: &HistogramSummary) -> String {
    format!(
        "{{\"n\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
        s.n,
        s.mean.as_nanos(),
        s.p50.as_nanos(),
        s.p99.as_nanos(),
        s.min.as_nanos(),
        s.max.as_nanos()
    )
}

impl BottleneckReport {
    /// Renders the report as a JSON document matching
    /// `schema/report.schema.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str(&format!(
            "  \"scenario\": {{\"system\": \"{}\", \"level\": \"{}\", \"width\": {}, \"chunk_kib\": {}}},\n",
            json_str(self.system.label()),
            level_label(self.level),
            self.width,
            self.chunk_kib
        ));
        out.push_str(&format!(
            "  \"window\": {{\"warmup_ns\": {}, \"measure_ns\": {}, \"buckets\": {}}},\n",
            self.warmup.as_nanos(),
            self.measure.as_nanos(),
            self.bottlenecks.len()
        ));
        out.push_str(&format!(
            "  \"totals\": {{\"reads\": {}, \"writes\": {}, \"bytes_read\": {}, \"bytes_written\": {}, \
             \"bandwidth_mb_per_sec\": {:.3}, \"kiops\": {:.3}, \"read_latency\": {}, \"write_latency\": {}}},\n",
            self.reads,
            self.writes,
            self.bytes_read,
            self.bytes_written,
            self.bandwidth_mb_per_sec,
            self.kiops,
            summary_json(&self.read_latency),
            summary_json(&self.write_latency)
        ));
        out.push_str("  \"breakdown\": [\n");
        for (i, row) in self.breakdown.iter().enumerate() {
            let sep = if i + 1 == self.breakdown.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"class\": \"{}\", \"steps\": {}, \"span_ns\": {}, \"queue_ns\": {}, \"service_ns\": {}, \"bytes\": {}}}{sep}\n",
                row.class,
                row.steps,
                row.span.as_nanos(),
                row.queue.as_nanos(),
                row.service.as_nanos(),
                row.bytes
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"utilization\": [\n");
        for (i, row) in self.utilization.iter().enumerate() {
            let sep = if i + 1 == self.utilization.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"resource\": \"{}\", \"busy_ns\": {}, \"utilization\": {:.6}}}{sep}\n",
                json_str(&row.resource),
                row.busy.as_nanos(),
                row.utilization
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"bottlenecks\": [\n");
        for (i, row) in self.bottlenecks.iter().enumerate() {
            let sep = if i + 1 == self.bottlenecks.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"end_ns\": {}, \"resource\": \"{}\", \"utilization\": {:.6}}}{sep}\n",
                row.end.as_nanos(),
                json_str(&row.resource),
                row.utilization
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"ledgers\": [\n");
        for (i, row) in self.ledgers.iter().enumerate() {
            let sep = if i + 1 == self.ledgers.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"resource\": \"{}\", \"offered\": {}, \"served\": {}, \"dropped\": {}, \"balanced\": {}}}{sep}\n",
                json_str(&row.resource),
                row.offered,
                row.served,
                row.dropped,
                row.balanced()
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"reconciled\": {},\n", self.reconciled()));
        out.push_str(&format!(
            "  \"trace\": {{\"events\": {}, \"dropped\": {}}}\n",
            self.trace_events, self.trace_dropped
        ));
        out.push('}');
        out
    }

    /// Renders the report as aligned human-readable text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bottleneck report: {} {} x{} ({} KiB chunks), {} measured after {} warm-up\n\n",
            self.system.label(),
            level_label(self.level),
            self.width,
            self.chunk_kib,
            self.measure,
            self.warmup
        ));
        out.push_str(&format!(
            "totals: {} reads, {} writes, {:.0} MB/s, {:.1} KIOPS\n",
            self.reads, self.writes, self.bandwidth_mb_per_sec, self.kiops
        ));
        if self.read_latency.n > 0 {
            out.push_str(&format!("  read latency:  {}\n", self.read_latency));
        }
        if self.write_latency.n > 0 {
            out.push_str(&format!("  write latency: {}\n", self.write_latency));
        }
        out.push_str("\nlatency demand by resource class (queue vs. service):\n");
        out.push_str(&format!(
            "  {:<8} {:>8} {:>14} {:>14} {:>14} {:>14}\n",
            "class", "steps", "span", "queue", "service", "bytes"
        ));
        for row in &self.breakdown {
            if row.steps == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<8} {:>8} {:>14} {:>14} {:>14} {:>14}\n",
                row.class,
                row.steps,
                row.span.to_string(),
                row.queue.to_string(),
                row.service.to_string(),
                row.bytes
            ));
        }
        out.push_str("\nutilization over the window (saturated first):\n");
        for row in self.utilization.iter().take(8) {
            out.push_str(&format!(
                "  {:<24} {:>6.1}%  busy {}\n",
                row.resource,
                row.utilization * 100.0,
                row.busy
            ));
        }
        out.push_str("\nbottleneck per phase:\n");
        for row in &self.bottlenecks {
            out.push_str(&format!(
                "  up to {:<12} {:<24} {:>6.1}%\n",
                row.end.to_string(),
                row.resource,
                row.utilization * 100.0
            ));
        }
        out.push_str(&format!(
            "\nledgers: {} ({} entries)\n",
            if self.reconciled() {
                "all balanced (offered == served + dropped)"
            } else {
                "IMBALANCED"
            },
            self.ledgers.len()
        ));
        for row in self.ledgers.iter().filter(|r| !r.balanced()) {
            out.push_str(&format!(
                "  UNBALANCED {:<24} offered {} != served {} + dropped {}\n",
                row.resource, row.offered, row.served, row.dropped
            ));
        }
        if self.trace_dropped > 0 {
            out.push_str(&format!(
                "\nwarning: {} trace events dropped at capacity; breakdown is partial\n",
                self.trace_dropped
            ));
        }
        out
    }

    /// Renders the report's metrics in the Prometheus text exposition format
    /// via a [`MetricsRegistry`].
    pub fn to_prometheus(&self) -> String {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("draid_reads_total", self.reads);
        reg.counter_add("draid_writes_total", self.writes);
        reg.counter_add("draid_bytes_read_total", self.bytes_read);
        reg.counter_add("draid_bytes_written_total", self.bytes_written);
        reg.counter_add("draid_trace_events_total", self.trace_events);
        reg.counter_add("draid_trace_dropped_total", self.trace_dropped);
        reg.set_gauge("draid_bandwidth_mb_per_sec", self.bandwidth_mb_per_sec);
        reg.set_gauge("draid_kiops", self.kiops);
        for row in &self.utilization {
            reg.set_gauge(
                &format!("draid_utilization{{resource=\"{}\"}}", row.resource),
                row.utilization,
            );
        }
        for row in &self.ledgers {
            let name = &row.resource;
            reg.counter_add(
                &format!("draid_bytes_offered_total{{resource=\"{name}\"}}"),
                row.offered,
            );
            reg.counter_add(
                &format!("draid_bytes_served_total{{resource=\"{name}\"}}"),
                row.served,
            );
            reg.counter_add(
                &format!("draid_bytes_dropped_total{{resource=\"{name}\"}}"),
                row.dropped,
            );
        }
        for row in &self.breakdown {
            let class = row.class;
            reg.counter_add(
                &format!("draid_step_queue_ns_total{{class=\"{class}\"}}"),
                row.queue.as_nanos(),
            );
            reg.counter_add(
                &format!("draid_step_service_ns_total{{class=\"{class}\"}}"),
                row.service.as_nanos(),
            );
        }
        reg.render_prometheus()
    }
}

/// Escapes a string for a JSON document (delegates to [`crate::json`]).
fn json_str(s: &str) -> String {
    crate::json::escape(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_sane_and_reconciled() {
        let report = run_report(&ReportConfig::quick());
        assert!(report.writes > 0, "{report:?}");
        assert_eq!(report.reads, 0);
        assert!(report.reconciled(), "ledgers must balance: {report:?}");
        assert!(!report.utilization.is_empty());
        for row in &report.utilization {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&row.utilization),
                "{}: utilization {} out of range",
                row.resource,
                row.utilization
            );
        }
        // A saturating RMW write workload must name a bottleneck per bucket.
        assert_eq!(report.bottlenecks.len(), 4);
        let top = report.top_bottleneck().expect("has resources");
        assert!(top.utilization > 0.3, "load too light: {top:?}");
        // queue + service == span per class (the trace-span invariant).
        for row in &report.breakdown {
            assert_eq!(row.queue + row.service, row.span, "{}", row.class);
        }
        assert_eq!(report.trace_dropped, 0);
    }

    #[test]
    fn report_renders_all_three_formats() {
        let report = run_report(&ReportConfig::quick());
        let text = report.to_text();
        assert!(text.contains("bottleneck per phase"));
        assert!(text.contains("all balanced"));
        let json = report.to_json();
        let parsed = crate::json::parse(&json).expect("report JSON parses");
        assert_eq!(
            parsed
                .get("reconciled")
                .and_then(crate::json::Json::as_bool),
            Some(true)
        );
        let prom = report.to_prometheus();
        assert!(prom.contains("draid_writes_total"));
        assert!(prom.contains("draid_utilization{resource="));
    }
}
