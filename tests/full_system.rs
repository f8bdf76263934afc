//! Whole-stack integration tests through the `draid` facade: workloads,
//! applications, failures and the paper's headline behaviours, end to end.

use draid::block::Cluster;
use draid::core::{
    ArrayConfig, ArraySim, DataMode, DraidOptions, RaidLevel, ReducerPolicy, SystemKind, UserIo,
};
use draid::sim::{DetRng, Engine, SimTime};
use draid::store::{AppRunner, Distribution, LsmStore, ObjectStore, YcsbGen, YcsbWorkload};
use draid::workload::{FioJob, Runner};

fn array_with(system: SystemKind, f: impl FnOnce(&mut ArrayConfig)) -> ArraySim {
    let mut cfg = ArrayConfig::paper_default(system);
    f(&mut cfg);
    ArraySim::new(Cluster::homogeneous(cfg.width), cfg).expect("valid config")
}

#[test]
fn fio_write_ranking_matches_paper() {
    // Fig. 10's ordering at the default setting: dRAID > SPDK > Linux.
    let job = FioJob::random_write(128 * 1024).queue_depth(32);
    let runner = Runner::quick();
    let linux = runner.run(array_with(SystemKind::LinuxMd, |_| {}), &job);
    let spdk = runner.run(array_with(SystemKind::SpdkRaid, |_| {}), &job);
    let draid = runner.run(array_with(SystemKind::Draid, |_| {}), &job);
    assert!(
        draid.bandwidth_mb_per_sec > spdk.bandwidth_mb_per_sec,
        "dRAID {:.0} <= SPDK {:.0}",
        draid.bandwidth_mb_per_sec,
        spdk.bandwidth_mb_per_sec
    );
    assert!(
        spdk.bandwidth_mb_per_sec > 2.0 * linux.bandwidth_mb_per_sec,
        "SPDK {:.0} <= 2x Linux {:.0}",
        spdk.bandwidth_mb_per_sec,
        linux.bandwidth_mb_per_sec
    );
    // And dRAID's host traffic is ~1 copy per user byte while SPDK's is ~4.
    let draid_copies =
        (draid.host_tx_bytes + draid.host_rx_bytes) as f64 / (draid.writes as f64 * 131_072.0);
    let spdk_copies =
        (spdk.host_tx_bytes + spdk.host_rx_bytes) as f64 / (spdk.writes as f64 * 131_072.0);
    assert!(draid_copies < 1.2, "draid copies {draid_copies:.2}");
    assert!(spdk_copies > 3.5, "spdk copies {spdk_copies:.2}");
}

#[test]
fn degraded_read_ranking_matches_paper() {
    // Fig. 15: dRAID ~ normal-state read; SPDK well below; Linux collapsed.
    let job = FioJob::random_read(128 * 1024).queue_depth(32);
    let runner = Runner::quick();
    let mut results = Vec::new();
    for system in [SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid] {
        let mut array = array_with(system, |_| {});
        array.fail_member(0);
        results.push(runner.run(array, &job).bandwidth_mb_per_sec);
    }
    let (linux, spdk, draid) = (results[0], results[1], results[2]);
    assert!(draid > 1.4 * spdk, "dRAID {draid:.0} vs SPDK {spdk:.0}");
    assert!(spdk > 2.0 * linux, "SPDK {spdk:.0} vs Linux {linux:.0}");
}

#[test]
fn raid6_stack_works_under_fio() {
    let job = FioJob::mixed(0.5, 128 * 1024).queue_depth(16);
    let runner = Runner::quick();
    let report = runner.run(
        array_with(SystemKind::Draid, |c| c.level = RaidLevel::Raid6),
        &job,
    );
    assert!(report.reads > 0 && report.writes > 0);
    assert_eq!(report.failed_ios, 0);
}

#[test]
fn mid_run_failure_is_absorbed() {
    // Fail a member *while* a workload is in flight; the array must keep
    // completing I/O (degraded) without losing any request.
    let mut array = array_with(SystemKind::Draid, |c| c.data_mode = DataMode::Full);
    let mut engine: Engine<ArraySim> = Engine::new();
    let mut rng = DetRng::new(5);
    let stripe = array.layout().stripe_data_bytes();
    let mut submitted = 0u64;
    for i in 0..40u64 {
        let mut buf = vec![0u8; 64 * 1024];
        rng.fill_bytes(&mut buf);
        array.submit(
            &mut engine,
            UserIo::write_bytes(i % 8 * stripe + (i / 8) * 65536, bytes::Bytes::from(buf)),
        );
        submitted += 1;
    }
    // Knock out member 3 while those writes are queued/in flight.
    engine.schedule_at(SimTime::from_micros(120), |w: &mut ArraySim, _| {
        w.fail_member(3);
    });
    engine.run(&mut array);
    let results = array.drain_completions();
    assert_eq!(results.len() as u64, submitted);
    assert!(
        results.iter().all(|r| r.is_ok()),
        "all writes absorbed the failure (retries: {})",
        array.stats.retries
    );
    assert!(array.is_degraded());

    // Every byte must read back correctly in degraded state.
    for i in 0..40u64 {
        array.submit(
            &mut engine,
            UserIo::read(i % 8 * stripe + (i / 8) * 65536, 65536),
        );
    }
    engine.run(&mut array);
    assert!(array.drain_completions().iter().all(|r| r.is_ok()));
}

#[test]
fn object_store_ycsb_all_workloads() {
    for workload in YcsbWorkload::ALL {
        let array = array_with(SystemKind::Draid, |_| {});
        let runner = AppRunner {
            concurrency: 16,
            warmup: SimTime::from_millis(5),
            measure: SimTime::from_millis(25),
        };
        let report = runner.run(
            array,
            ObjectStore::paper_default(),
            YcsbGen::with_distribution(workload, Distribution::Uniform, 50_000, 3),
        );
        assert!(report.ops > 50, "{workload:?}: {report:?}");
        assert!(report.kiops > 0.0);
    }
}

#[test]
fn lsm_store_stays_below_array_bandwidth() {
    // §9.6: a single KV instance uses a small fraction of array bandwidth.
    let array = array_with(SystemKind::Draid, |_| {});
    let runner = AppRunner {
        concurrency: 8,
        warmup: SimTime::from_millis(5),
        measure: SimTime::from_millis(50),
    };
    let report = runner.run(
        array,
        LsmStore::paper_default(),
        YcsbGen::new(YcsbWorkload::A, 100_000, 9),
    );
    assert!(report.ops > 100);
    assert!(
        report.host_bandwidth_fraction < 0.25,
        "KV instance used {:.0}% of host NIC capacity",
        report.host_bandwidth_fraction * 100.0
    );
}

#[test]
fn bandwidth_aware_beats_random_on_heterogeneous_network() {
    use draid::block::{ClusterBuilder, CpuSpec, DriveSpec};
    use draid::net::NicSpec;
    let build = |policy: ReducerPolicy| {
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
        let mut array = ArraySim::new(b.build(), cfg).expect("valid");
        array.fail_member(0);
        array
    };
    let job = FioJob::random_read(128 * 1024)
        .queue_depth(16)
        .target_member(0);
    let runner = Runner::quick();
    let random = runner.run(build(ReducerPolicy::Random), &job);
    let aware = runner.run(build(ReducerPolicy::BandwidthAware), &job);
    assert!(
        aware.bandwidth_mb_per_sec > 1.1 * random.bandwidth_mb_per_sec,
        "aware {:.0} vs random {:.0}",
        aware.bandwidth_mb_per_sec,
        random.bandwidth_mb_per_sec
    );
}

#[test]
fn ablations_cost_performance() {
    // Each disabled technique must not *help* — and the pipeline and
    // peer-to-peer ablations must measurably hurt.
    // Width 18 puts dRAID in the NIC-bound regime where the peer-to-peer
    // data path is load-bearing (at width 8 the drives bound everything and
    // the extra host hop has slack).
    let job = FioJob::random_write(128 * 1024).queue_depth(96);
    let runner = Runner::quick();
    let run_variant = |f: fn(&mut DraidOptions)| {
        let array = array_with(SystemKind::Draid, |c| {
            c.width = 18;
            f(&mut c.draid);
        });
        runner.run(array, &job).bandwidth_mb_per_sec
    };
    let full = run_variant(|_| {});
    let no_pipeline = run_variant(|d| d.pipeline = false);
    let no_p2p = run_variant(|d| d.peer_to_peer = false);
    let blocking = run_variant(|d| d.nonblocking = false);
    assert!(
        no_pipeline <= full * 1.02,
        "pipeline off helped? {no_pipeline:.0} vs {full:.0}"
    );
    assert!(
        no_p2p < full * 0.80,
        "p2p off should hurt: {no_p2p:.0} vs {full:.0}"
    );
    assert!(
        blocking <= full * 1.02,
        "barrier helped? {blocking:.0} vs {full:.0}"
    );
}
