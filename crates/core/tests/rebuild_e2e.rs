//! End-to-end tests of hot-spare rebuild: a faulty member is reconstructed
//! onto a spare drive from the shared pool while the array stays online.

use std::collections::BTreeSet;

use bytes::Bytes;
use draid_block::{Cluster, ServerId};
use draid_core::{
    ArrayConfig, ArraySim, DataMode, FaultSchedule, IoKind, RaidLevel, StepKind, SystemKind, UserIo,
};
use draid_net::NodeId;
use draid_sim::{DetRng, Engine, SimTime};

const KIB: u64 = 1024;

/// Array of width 5 over a 6-server cluster — server 5 is the pool spare.
fn array_with_spare(level: RaidLevel) -> (ArraySim, Engine<ArraySim>) {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = level;
    cfg.width = 5;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    let cluster = Cluster::homogeneous(6);
    (ArraySim::new(cluster, cfg).expect("valid"), Engine::new())
}

fn fill(array: &mut ArraySim, eng: &mut Engine<ArraySim>, stripes: u64, seed: u64) -> Vec<u8> {
    let bytes = stripes * array.layout().stripe_data_bytes();
    let mut rng = DetRng::new(seed);
    let mut data = vec![0u8; bytes as usize];
    rng.fill_bytes(&mut data);
    array.submit(eng, UserIo::write_bytes(0, Bytes::from(data.clone())));
    eng.run(array);
    assert!(array.drain_completions().iter().all(|r| r.is_ok()));
    data
}

#[test]
fn rebuild_restores_optimal_state_and_data() {
    for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
        let (mut array, mut eng) = array_with_spare(level);
        let stripes = 6u64;
        let data = fill(&mut array, &mut eng, stripes, 1);

        array.fail_member(2);
        assert!(array.is_degraded());

        array.start_rebuild(&mut eng, 2, ServerId(5), stripes, 2);
        assert!(array.rebuild_status().is_some());
        eng.run(&mut array);

        assert!(array.rebuild_status().is_none(), "rebuild finished");
        assert!(!array.is_degraded(), "{level:?}: member restored");

        // All data intact, now served from the spare without reconstruction.
        array.submit(&mut eng, UserIo::read(0, data.len() as u64));
        eng.run(&mut array);
        let res = array.drain_completions().pop().expect("read");
        assert_eq!(res.data.as_deref(), Some(&data[..]), "{level:?}");
        // Post-rebuild reads are normal-state (no degraded path).
        assert_eq!(array.stats.degraded_ios, 0);

        // The rebuilt member's stripes verify against stored parity.
        let store = array.store().expect("full mode");
        for s in 0..stripes {
            assert!(store.verify_stripe(s), "{level:?} stripe {s}");
        }
    }
}

#[test]
fn writes_during_rebuild_are_preserved() {
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    let stripes = 8u64;
    fill(&mut array, &mut eng, stripes, 2);
    array.fail_member(1);

    // Start the rebuild, then immediately overwrite data while it runs —
    // including chunks of the dead member.
    array.start_rebuild(&mut eng, 1, ServerId(5), stripes, 1);
    let mut rng = DetRng::new(3);
    let mut fresh = vec![0u8; (stripes * array.layout().stripe_data_bytes()) as usize];
    rng.fill_bytes(&mut fresh);
    array.submit(&mut eng, UserIo::write_bytes(0, Bytes::from(fresh.clone())));
    eng.run(&mut array);
    assert!(array.drain_completions().iter().all(|r| r.is_ok()));
    assert!(!array.is_degraded(), "rebuild completed");

    array.submit(&mut eng, UserIo::read(0, fresh.len() as u64));
    eng.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(res.data.as_deref(), Some(&fresh[..]), "no lost updates");
}

/// A rebuild at concurrency 3 of member 2 under a closed loop of 4 KiB
/// reads and writes (QD 8, never two on one slot) on that member's chunks,
/// with a transient on survivor 4 starting `transient_after` into the
/// rebuild; checks every read, then parity and the data at quiesce.
fn rebuild_under_load(level: RaidLevel, transient_after: SimTime) {
    const SLOT: u64 = 4 * KIB;
    const QD: usize = 8;
    const VICTIM: usize = 2;
    let (mut array, mut eng) = array_with_spare(level);
    let stripes = 24u64;
    let mut shadow = fill(&mut array, &mut eng, stripes, 6);
    let layout = *array.layout();
    let per_chunk = layout.chunk_size() / SLOT;
    let slots: Vec<u64> = (0..stripes)
        .filter_map(|s| {
            let k = layout.data_index_of(s, VICTIM)? as u64;
            Some(s * layout.stripe_data_bytes() + k * layout.chunk_size())
        })
        .flat_map(|chunk| (0..per_chunk).map(move |j| chunk + j * SLOT))
        .collect();
    array.fail_member(VICTIM);
    FaultSchedule::new()
        .transient(eng.now() + transient_after, 4, SimTime::from_micros(400))
        .install(&mut eng);
    array.start_rebuild(&mut eng, VICTIM, ServerId(5), stripes, 3);

    let what = format!("{level:?}, transient after {transient_after:?}");
    let mut rng = DetRng::new(7);
    let mut busy = BTreeSet::new();
    let mut mismatches = 0;
    let mut ops = 0;
    while array.rebuild_status().is_some() || !busy.is_empty() {
        for res in array.drain_completions() {
            assert!(res.is_ok(), "{what}: I/O at {} failed", res.offset);
            busy.remove(&res.offset);
            let expected = &shadow[res.offset as usize..(res.offset + res.len) as usize];
            if res.kind == IoKind::Read && res.data.as_deref() != Some(expected) {
                mismatches += 1;
            }
        }
        while array.rebuild_status().is_some() && busy.len() < QD {
            let offset = slots[rng.below(slots.len() as u64) as usize];
            if !busy.insert(offset) {
                continue;
            }
            ops += 1;
            if rng.chance(0.5) {
                let mut data = vec![0u8; SLOT as usize];
                rng.fill_bytes(&mut data);
                shadow[offset as usize..(offset + SLOT) as usize].copy_from_slice(&data);
                array.submit(&mut eng, UserIo::write_bytes(offset, Bytes::from(data)));
            } else {
                array.submit(&mut eng, UserIo::read(offset, SLOT));
            }
        }
        let next = eng.now() + SimTime::from_micros(20);
        eng.run_until(&mut array, next);
    }
    assert!(ops > 100, "{what}: only {ops} I/Os overlapped the rebuild");
    assert_eq!(mismatches, 0, "{what}: reads during the rebuild");
    assert!(!array.is_degraded(), "{what}: rebuild completed");
    assert!(
        array.store().expect("full mode").verify_all().is_empty(),
        "{what}: parity"
    );
    array.submit(&mut eng, UserIo::read(0, shadow.len() as u64));
    eng.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(res.data.as_deref(), Some(&shadow[..]), "{what}: readback");
}

#[test]
fn concurrent_rebuild_under_load_keeps_data_intact() {
    // With three stripes in flight, a transient fails some of them while
    // others complete, so stripes finish out of order and some are retried.
    // Both transient starts fall inside the rebuild, and on RAID-6 each
    // fails a stripe behind one that completes.
    for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
        for after_us in [0, 600] {
            rebuild_under_load(level, SimTime::from_micros(after_us));
        }
    }
}

#[test]
fn rebuild_keeps_host_nic_idle() {
    // The reconstruction data path is peer-to-peer: survivors -> reducer ->
    // spare. The host sees only commands and callbacks.
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    let stripes = 16u64;
    fill(&mut array, &mut eng, stripes, 4);
    array.fail_member(0);
    array.cluster.reset_counters(eng.now());

    array.start_rebuild(&mut eng, 0, ServerId(5), stripes, 4);
    eng.run(&mut array);
    assert!(!array.is_degraded());

    let host = array.cluster.host_node();
    let rebuilt_bytes = stripes * array.layout().chunk_size();
    let host_traffic =
        array.cluster.fabric().bytes_sent(host) + array.cluster.fabric().bytes_received(host);
    assert!(
        host_traffic < rebuilt_bytes / 4,
        "host moved {host_traffic} bytes for a {rebuilt_bytes}-byte rebuild"
    );
    // The spare's drive received every reconstructed chunk.
    assert_eq!(array.cluster.drive(ServerId(5)).writes(), stripes);
}

/// The servers and nodes the steps of one traced 4 KiB write touch.
fn write_touches(
    array: &mut ArraySim,
    eng: &mut Engine<ArraySim>,
    offset: u64,
) -> (BTreeSet<ServerId>, BTreeSet<NodeId>) {
    array.enable_tracing(1 << 10);
    array.submit(
        eng,
        UserIo::write_bytes(offset, Bytes::from(vec![7u8; 4096])),
    );
    eng.run(array);
    assert!(array.drain_completions().iter().all(|r| r.is_ok()));
    let trace = array.take_trace().expect("tracing on");
    let (mut servers, mut nodes) = (BTreeSet::new(), BTreeSet::new());
    for e in trace.events() {
        match e.kind {
            StepKind::DriveRead { server, .. } | StepKind::DriveWrite { server, .. } => {
                servers.insert(server);
            }
            StepKind::Transfer { from, to, .. } => {
                nodes.extend([from, to]);
            }
            _ => {}
        }
    }
    (servers, nodes)
}

#[test]
fn ops_after_the_spare_swap_target_the_spare() {
    // The same write before the failure and after the rebuild has the same
    // cached-plan key (healthy array, same rotation and segment), so the
    // swap must retire the plan that binds the lost drive and its node.
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    let stripes = 2u64;
    fill(&mut array, &mut eng, stripes, 6);
    let (victim, spare) = (2, ServerId(5));
    let (old_node, spare_node) = (
        array.cluster.server_node(ServerId(victim)),
        array.cluster.server_node(spare),
    );
    let k = array
        .layout()
        .data_index_of(0, victim)
        .expect("data member");
    let offset = k as u64 * array.layout().chunk_size();

    let (servers, nodes) = write_touches(&mut array, &mut eng, offset);
    assert!(servers.contains(&ServerId(victim)) && nodes.contains(&old_node));

    array.fail_member(victim);
    array.start_rebuild(&mut eng, victim, spare, stripes, 1);
    eng.run(&mut array);
    assert!(!array.is_degraded(), "rebuild finished");

    let (servers, nodes) = write_touches(&mut array, &mut eng, offset);
    assert!(servers.contains(&spare), "spare drive unused: {servers:?}");
    assert!(nodes.contains(&spare_node), "spare node unused: {nodes:?}");
    assert!(
        !servers.contains(&ServerId(victim)),
        "lost drive still targeted"
    );
    assert!(!nodes.contains(&old_node), "lost node still targeted");
}

#[test]
fn rebuild_progress_is_observable() {
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    let stripes = 12u64;
    fill(&mut array, &mut eng, stripes, 5);
    array.fail_member(3);
    array.start_rebuild(&mut eng, 3, ServerId(5), stripes, 1);
    let status = array.rebuild_status().expect("running");
    assert_eq!(status.member, 3);
    assert_eq!(status.total, stripes);
    assert_eq!(status.rebuilt, 0);
    assert_eq!(status.progress(), 0.0);

    // Run a slice of time, check partial progress.
    eng.run_until(&mut array, SimTime::from_millis(2));
    if let Some(mid) = array.rebuild_status() {
        assert!(mid.rebuilt <= stripes);
    }
    eng.run(&mut array);
    assert!(array.rebuild_status().is_none());
}

#[test]
#[should_panic(expected = "not faulty")]
fn rebuilding_healthy_member_rejected() {
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    array.start_rebuild(&mut eng, 0, ServerId(5), 4, 1);
}

#[test]
#[should_panic(expected = "already belongs")]
fn spare_must_be_outside_array() {
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    array.fail_member(0);
    array.start_rebuild(&mut eng, 0, ServerId(1), 4, 1);
}
