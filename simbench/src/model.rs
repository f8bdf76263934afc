//! Model outputs: simulated, deterministic results of a run.
//!
//! They are not speed metrics. A change that only makes the simulator
//! faster must leave every one of them bit-identical, so runs of the same
//! seed are compared for exact equality.

use std::collections::BTreeMap;

use draid_block::ServerId;
use draid_core::trace::StepClass;
use draid_core::{ArraySim, SystemKind};
use draid_net::LinkDir;
use draid_sim::SimTime;
use draid_workload::RunReport;

/// Model outputs keyed `<system>.<name>`.
pub type Model = BTreeMap<String, f64>;

pub fn system_label(system: SystemKind) -> &'static str {
    match system {
        SystemKind::Draid => "draid",
        SystemKind::SpdkRaid => "spdk",
        SystemKind::LinuxMd => "linux",
    }
}

/// Fails unless every output in `expected` is present in `got` with the
/// same bits.
pub fn check_same(expected: &Model, got: &Model, what: &str) -> Result<(), String> {
    for (key, want) in expected {
        match got.get(key) {
            Some(v) if v.to_bits() == want.to_bits() => {}
            Some(v) => {
                return Err(format!(
                "{what}: model output {key} is {v:?}, another run of the same seed gave {want:?}"
            ))
            }
            None => return Err(format!("{what}: model output {key} is missing")),
        }
    }
    Ok(())
}

/// The outputs a [`RunReport`] carries.
pub fn from_report(system: SystemKind, r: &RunReport) -> Model {
    let s = system_label(system);
    [
        ("kiops", r.kiops),
        ("mb_per_s", r.bandwidth_mb_per_sec),
        ("mean_us", r.mean_latency_us),
        ("p50_us", r.p50_latency_us),
        ("p99_us", r.p99_latency_us),
        ("reads", r.reads as f64),
        ("writes", r.writes as f64),
        ("host_tx_bytes", r.host_tx_bytes as f64),
        ("host_rx_bytes", r.host_rx_bytes as f64),
        ("host_cpu.util", r.host_cpu),
        ("member_cpu.max_util", r.max_member_cpu),
        ("retries", r.retries as f64),
        ("timeouts", r.timeouts as f64),
        ("degraded_ios", r.degraded_ios as f64),
        ("failed_ios", r.failed_ios as f64),
    ]
    .into_iter()
    .map(|(k, v)| (format!("{s}.{k}"), v))
    .collect()
}

/// Reads the measured window off the array the way
/// `draid_workload::Runner` does, so the two agree bit for bit, and adds
/// what only the array itself can tell: drive utilization, host NIC bytes
/// per user byte, rebuilds and the step trace's queue/service split.
pub fn from_array(
    system: SystemKind,
    array: &mut ArraySim,
    now: SimTime,
    window: SimTime,
) -> Model {
    let stats = &mut array.stats;
    let mean_us = stats.mean_latency().as_micros_f64();
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
    let user_bytes = (stats.bytes_read + stats.bytes_written).max(1) as f64;
    let report = RunReport {
        bandwidth_mb_per_sec: stats.bandwidth_mb_per_sec(window),
        kiops: stats.kiops(window),
        mean_latency_us: mean_us,
        p50_latency_us: p50,
        p99_latency_us: p99,
        reads: stats.reads,
        writes: stats.writes,
        host_tx_bytes: 0,
        host_rx_bytes: 0,
        max_member_cpu: 0.0,
        host_cpu: 0.0,
        retries: stats.retries,
        timeouts: stats.timeouts,
        degraded_ios: stats.degraded_ios,
        failed_ios: stats.failed_ios,
        window,
    };
    let cluster = &array.cluster;
    let host = cluster.host_node();
    let width = array.config().width;
    let member_max =
        |f: &dyn Fn(ServerId) -> f64| (0..width).map(|m| f(ServerId(m))).fold(0.0f64, f64::max);
    let report = RunReport {
        host_tx_bytes: cluster.fabric().bytes_sent(host),
        host_rx_bytes: cluster.fabric().bytes_received(host),
        max_member_cpu: member_max(&|s| cluster.cpu(cluster.server_node(s)).utilization(now)),
        host_cpu: cluster.cpu(host).utilization(now),
        ..report
    };
    let mut model = from_report(system, &report);
    let s = system_label(system);
    let mut put = |k: &str, v: f64| {
        model.insert(format!("{s}.{k}"), v);
    };
    put(
        "drive.max_util",
        member_max(&|s| cluster.drive(s).utilization(now)),
    );
    put(
        "host_nic.tx_bytes_per_user_byte",
        report.host_tx_bytes as f64 / user_bytes,
    );
    put(
        "host_nic.rx_bytes_per_user_byte",
        report.host_rx_bytes as f64 / user_bytes,
    );
    put("rebuilds", array.fault_manager_rebuilds() as f64);
    if let Some(tracer) = array.trace() {
        for (class, agg) in tracer.breakdown() {
            if class == StepClass::Control {
                continue;
            }
            let steps = agg.steps.max(1) as f64;
            put(
                &format!("queue_ns.{}", class.label()),
                agg.queue.as_nanos() as f64 / steps,
            );
            put(
                &format!("service_ns.{}", class.label()),
                agg.service.as_nanos() as f64 / steps,
            );
        }
        put("trace.events", tracer.events().len() as f64);
    }
    model
}

/// Byte conservation on every NIC direction and drive channel, checked
/// through the public counters so it also holds in release builds (where
/// `ArraySim::audit_invariants` compiles to nothing).
pub fn check_ledgers(array: &ArraySim, servers: usize) -> Result<(), String> {
    array.audit_invariants();
    let cluster = &array.cluster;
    let fabric = cluster.fabric();
    let nodes = std::iter::once(cluster.host_node())
        .chain((0..servers).map(|s| cluster.server_node(ServerId(s))));
    for node in nodes {
        for (dir, served) in [
            (LinkDir::Egress, fabric.bytes_sent(node)),
            (LinkDir::Ingress, fabric.bytes_received(node)),
        ] {
            let (offered, dropped) = (
                fabric.bytes_offered(node, dir),
                fabric.bytes_dropped(node, dir),
            );
            if offered != served + dropped {
                return Err(format!(
                    "{node:?} {dir:?} ledger: offered {offered} != served {served} + dropped {dropped}"
                ));
            }
        }
    }
    for s in 0..servers {
        let d = cluster.drive(ServerId(s));
        if d.bytes_offered() != d.bytes_served() + d.bytes_dropped() {
            return Err(format!(
                "drive {s} ledger: offered {} != served {} + dropped {}",
                d.bytes_offered(),
                d.bytes_served(),
                d.bytes_dropped()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Model {
        [("draid.kiops", 98.25), ("draid.p99_us", 411.0)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    #[test]
    fn identical_outputs_pass() {
        assert_eq!(check_same(&model(), &model(), "t"), Ok(()));
    }

    #[test]
    fn a_perturbed_output_fails_the_determinism_check() {
        let mut got = model();
        let v = got.get_mut("draid.p99_us").expect("present");
        *v = f64::from_bits(v.to_bits() + 1);
        let err = check_same(&model(), &got, "t").expect_err("one ulp apart must fail");
        assert!(err.contains("draid.p99_us"), "{err}");
    }

    #[test]
    fn a_missing_output_fails_the_determinism_check() {
        let mut got = model();
        got.remove("draid.kiops");
        assert!(check_same(&model(), &got, "t").is_err());
    }
}
