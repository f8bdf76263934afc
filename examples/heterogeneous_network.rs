//! Bandwidth-aware reconstruction (§6.2): on a cluster mixing 25 Gbps and
//! 100 Gbps NICs, the water-filling reducer selection avoids overloading the
//! slow nodes and sustains markedly more degraded-read bandwidth at the same
//! latency than Theorem-1 random selection (Fig. 17b).
//!
//! ```text
//! cargo run --release --example heterogeneous_network
//! ```

use draid::block::{ClusterBuilder, CpuSpec, DriveSpec};
use draid::core::reducer::water_fill;
use draid::core::{ArrayConfig, ArraySim, DraidOptions, ReducerPolicy, SystemKind};
use draid::net::NicSpec;
use draid::workload::{FioJob, Runner};

fn build(policy: ReducerPolicy) -> ArraySim {
    // 8 storage servers: five on 100 Gbps NICs, three on 25 Gbps.
    let mut b = ClusterBuilder::new();
    b.host(NicSpec::cx5_100g(), CpuSpec::default());
    for i in 0..8 {
        let nic = if i >= 5 {
            NicSpec::cx5_25g()
        } else {
            NicSpec::cx5_100g()
        };
        b.server(nic, DriveSpec::default(), CpuSpec::default());
    }
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.draid = DraidOptions {
        reducer: policy,
        ..DraidOptions::default()
    };
    let mut array = ArraySim::new(b.build(), cfg).expect("valid config");
    array.fail_member(0); // rebuild-style load: every read reconstructs
    array
}

fn main() {
    // First, the optimizer itself: the §6.2 max-min program solved by
    // water-filling for one slow node among fast ones.
    let available = [100.0, 100.0, 100.0, 25.0];
    let probs = water_fill(&available, 60.0);
    println!("water-filling P_i for B = {available:?}, (n-1)L = 60: {probs:.3?}");

    // Then the end-to-end effect under a reconstruction-heavy workload.
    let runner = Runner::new();
    let job = FioJob::random_read(128 * 1024)
        .queue_depth(16)
        .target_member(0);
    println!("\ndegraded reads targeting the failed member, 3 of 8 nodes on 25 Gbps:");
    for (name, policy) in [
        ("random reducer", ReducerPolicy::Random),
        ("bandwidth-aware", ReducerPolicy::BandwidthAware),
    ] {
        let report = runner.run(build(policy), &job);
        println!(
            "  {name:<16} {:>7.0} MB/s at mean latency {:>5.0} us",
            report.bandwidth_mb_per_sec, report.mean_latency_us
        );
    }
    println!("\npaper (Fig. 17b): bandwidth-aware selection yields ~53% more read bandwidth");
}
