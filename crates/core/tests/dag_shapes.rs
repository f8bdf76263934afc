//! Structural tests of the per-system operation DAGs: the paper's data-path
//! claims, asserted on the graphs themselves (independent of timing).

use std::collections::BTreeSet;

use draid_block::ServerId;
use draid_core::{
    build_dag, ArrayConfig, BuildCtx, DraidOptions, Layout, Purpose, RaidLevel, StepKind,
    SystemKind, WriteMode, CALLBACK_BYTES, COMMAND_BYTES,
};
use draid_net::NodeId;

const KIB: u64 = 1024;

struct Fixture {
    cfg: ArrayConfig,
    layout: Layout,
    nodes: Vec<NodeId>,
    servers: Vec<ServerId>,
}

impl Fixture {
    fn new(system: SystemKind, level: RaidLevel) -> Self {
        let mut cfg = ArrayConfig::paper_default(system);
        cfg.level = level;
        cfg.width = 8;
        cfg.chunk_size = 512 * KIB;
        let layout = Layout::new(&cfg);
        Fixture {
            cfg,
            layout,
            // Host is node 0; member m lives on node m+1 (cluster layout).
            nodes: (1..=8).map(NodeId).collect(),
            servers: (0..8).map(ServerId).collect(),
        }
    }

    fn ctx<'a>(&'a self, faulty: &'a BTreeSet<usize>, reducer: Option<usize>) -> BuildCtx<'a> {
        BuildCtx {
            cfg: &self.cfg,
            layout: &self.layout,
            host: NodeId(0),
            nodes: &self.nodes,
            servers: &self.servers,
            faulty,
            reducer,
        }
    }
}

const HOST: NodeId = NodeId(0);

#[test]
fn draid_rmw_host_sends_only_new_data() {
    // §2.3/Table 1: the host NIC carries exactly the new data (plus tiny
    // commands) on a partial-stripe write; partial parities flow
    // peer-to-peer.
    let fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    let none = BTreeSet::new();
    let io = &fx.layout.map(0, 128 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReadModifyWrite,
            degraded: false,
        },
        io,
    );
    let sent = dag.bytes_sent_by(HOST);
    let recv = dag.bytes_received_by(HOST);
    assert!(
        sent < 128 * KIB + 4 * KIB,
        "host egress {sent} should be ~payload"
    );
    assert!(
        recv < 4 * KIB,
        "host ingress {recv} should be callbacks only"
    );
    // Exactly one peer transfer of the partial parity to the P bdev.
    let p_node = fx.nodes[fx.layout.p_member(0)];
    let peer_bytes = dag.bytes_received_by(p_node);
    assert_eq!(peer_bytes, 128 * KIB + COMMAND_BYTES);
}

#[test]
fn centralized_rmw_host_carries_four_copies() {
    let fx = Fixture::new(SystemKind::SpdkRaid, RaidLevel::Raid5);
    let none = BTreeSet::new();
    let io = &fx.layout.map(0, 128 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReadModifyWrite,
            degraded: false,
        },
        io,
    );
    // In: old data + old parity. Out: new data + new parity (+ commands).
    assert!(dag.bytes_received_by(HOST) >= 2 * 128 * KIB);
    assert!(dag.bytes_sent_by(HOST) >= 2 * 128 * KIB);
}

#[test]
fn draid_raid6_forwards_partials_to_p_and_q() {
    let fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid6);
    let none = BTreeSet::new();
    let io = &fx.layout.map(0, 128 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReadModifyWrite,
            degraded: false,
        },
        io,
    );
    let p_node = fx.nodes[fx.layout.p_member(0)];
    let q_node = fx.nodes[fx.layout.q_member(0).expect("raid6")];
    assert!(dag.bytes_received_by(p_node) >= 128 * KIB);
    assert!(dag.bytes_received_by(q_node) >= 128 * KIB);
    // The Q term is scaled by g^i on the data bdev before forwarding.
    assert!(dag.count_steps(|k| matches!(k, StepKind::GfMul { .. })) >= 1);
    // Host still sends only the data (+ capsules) — the RAID-6 advantage.
    assert!(dag.bytes_sent_by(HOST) < 128 * KIB + 4 * KIB);
}

#[test]
fn draid_rcw_reads_untouched_chunks_remotely() {
    let fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    let none = BTreeSet::new();
    // 2048 KiB = 4 of 7 chunks -> reconstruct write.
    let io = &fx.layout.map(0, 2048 * KIB)[0];
    assert_eq!(fx.layout.write_mode(io), WriteMode::ReconstructWrite);
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReconstructWrite,
            degraded: false,
        },
        io,
    );
    // 3 untouched members read full chunks; 4 touched write their segments.
    let reads = dag.count_steps(|k| matches!(k, StepKind::DriveRead { .. }));
    let writes = dag.count_steps(|k| matches!(k, StepKind::DriveWrite { .. }));
    assert_eq!(reads, 3, "untouched chunks read locally");
    assert_eq!(writes, 5, "4 data writes + parity write");
    // Untouched chunks never cross the host NIC.
    assert!(dag.bytes_received_by(HOST) < 4 * KIB);
}

#[test]
fn degraded_read_normal_segments_bypass_reducer() {
    // §6.1: normal read data goes straight to the host; only reconstruction
    // partials go to the reducer.
    let fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    let victim = fx.layout.data_member(0, 1);
    let faulty: BTreeSet<usize> = [victim].into();
    let reducer = fx.layout.p_member(0);
    // Read two chunks: one on the failed member, one healthy.
    let io = &fx.layout.map(0, 1024 * KIB)[0];
    assert!(io.segments.iter().any(|s| s.member == victim));
    let dag = build_dag(
        &fx.ctx(&faulty, Some(reducer)),
        Purpose::Read { degraded: true },
        io,
    );
    // Host receives: healthy segment (512 KiB) + reconstructed segment
    // (512 KiB) + nothing else.
    let recv = dag.bytes_received_by(HOST);
    assert_eq!(recv, 1024 * KIB);
    // The reducer receives one partial per other survivor (width-2 of them).
    let reducer_in = dag.bytes_received_by(fx.nodes[reducer]);
    assert_eq!(
        reducer_in,
        6 * 512 * KIB + COMMAND_BYTES,
        "6 peers stream partials to the reducer"
    );
    // The failed member is never touched.
    assert_eq!(
        dag.count_steps(|k| matches!(
            k,
            StepKind::DriveRead { server, .. } | StepKind::DriveWrite { server, .. }
            if *server == fx.servers[victim]
        )),
        0
    );
}

#[test]
fn centralized_degraded_read_pulls_survivors_to_host() {
    let fx = Fixture::new(SystemKind::SpdkRaid, RaidLevel::Raid5);
    let victim = fx.layout.data_member(0, 0);
    let faulty: BTreeSet<usize> = [victim].into();
    let io = &fx.layout.map(0, 512 * KIB)[0];
    let dag = build_dag(&fx.ctx(&faulty, None), Purpose::Read { degraded: true }, io);
    // Table 1 "Nx": all 7 survivors' extents land on the host.
    assert_eq!(dag.bytes_received_by(HOST), 7 * 512 * KIB);
}

#[test]
fn degraded_write_skips_dead_member_and_keeps_parity() {
    for system in [SystemKind::Draid, SystemKind::SpdkRaid] {
        let fx = Fixture::new(system, RaidLevel::Raid5);
        let victim = fx.layout.data_member(0, 0);
        let faulty: BTreeSet<usize> = [victim].into();
        let io = &fx.layout.map(0, 512 * KIB)[0]; // exactly the dead chunk
        let dag = build_dag(
            &fx.ctx(&faulty, None),
            Purpose::Write {
                mode: WriteMode::ReadModifyWrite,
                degraded: true,
            },
            io,
        );
        // No I/O on the dead drive; the parity drive is written.
        assert_eq!(
            dag.count_steps(|k| matches!(
                k,
                StepKind::DriveWrite { server, .. } if *server == fx.servers[victim]
            )),
            0,
            "{system:?}"
        );
        let p_server = fx.servers[fx.layout.p_member(0)];
        assert!(
            dag.count_steps(|k| matches!(
                k,
                StepKind::DriveWrite { server, .. } if *server == p_server
            )) == 1,
            "{system:?}: parity must be updated"
        );
    }
}

#[test]
fn full_stripe_write_has_no_remote_reads() {
    for system in [SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid] {
        let fx = Fixture::new(system, RaidLevel::Raid5);
        let none = BTreeSet::new();
        let io = &fx.layout.map(0, fx.layout.stripe_data_bytes())[0];
        let dag = build_dag(
            &fx.ctx(&none, None),
            Purpose::Write {
                mode: WriteMode::FullStripe,
                degraded: false,
            },
            io,
        );
        assert_eq!(
            dag.count_steps(|k| matches!(k, StepKind::DriveRead { .. })),
            0,
            "{system:?}: §3 — full stripe writes read nothing"
        );
        // Host computes parity and ships data + parity.
        assert!(dag.count_steps(|k| matches!(k, StepKind::Xor { node, .. } if *node == HOST)) == 1);
        assert_eq!(
            dag.count_steps(|k| matches!(k, StepKind::DriveWrite { .. })),
            8
        );
    }
}

#[test]
fn pipeline_ablation_serializes_and_drops_bdev_callbacks() {
    let fx_pipe = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    let mut fx_serial = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    fx_serial.cfg.draid = DraidOptions {
        pipeline: false,
        ..DraidOptions::default()
    };
    let none = BTreeSet::new();
    let io = &fx_pipe.layout.map(0, 128 * KIB)[0];
    let purpose = Purpose::Write {
        mode: WriteMode::ReadModifyWrite,
        degraded: false,
    };
    let piped = build_dag(&fx_pipe.ctx(&none, None), purpose, io);
    let serial = build_dag(&fx_serial.ctx(&none, None), purpose, io);
    // Pipelined: data bdev callback + parity callback. Serial: parity only.
    let cbs = |dag: &draid_core::Dag| {
        dag.count_steps(|k| {
            matches!(k, StepKind::Transfer { to, bytes, .. }
            if *to == HOST && *bytes == CALLBACK_BYTES)
        })
    };
    assert_eq!(cbs(&piped), 2);
    assert_eq!(cbs(&serial), 1);
}

#[test]
fn blocking_ablation_adds_barrier() {
    let mut fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    fx.cfg.draid = DraidOptions {
        nonblocking: false,
        ..DraidOptions::default()
    };
    let none = BTreeSet::new();
    let io = &fx.layout.map(0, 1024 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReadModifyWrite,
            degraded: false,
        },
        io,
    );
    assert!(
        dag.count_steps(|k| matches!(k, StepKind::Join)) >= 1,
        "barrier join present in blocking mode"
    );
}

#[test]
fn p2p_ablation_routes_partials_through_host() {
    let mut fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    fx.cfg.draid = DraidOptions {
        peer_to_peer: false,
        ..DraidOptions::default()
    };
    let none = BTreeSet::new();
    let io = &fx.layout.map(0, 128 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReadModifyWrite,
            degraded: false,
        },
        io,
    );
    // The partial parity now crosses the host: ingress grows by its size.
    assert!(dag.bytes_received_by(HOST) >= 128 * KIB);
}

#[test]
fn raid6_degraded_read_uses_q_when_p_is_lost() {
    let fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid6);
    let victim_data = fx.layout.data_member(0, 0);
    let victim_p = fx.layout.p_member(0);
    let q = fx.layout.q_member(0).expect("raid6");
    let faulty: BTreeSet<usize> = [victim_data, victim_p].into();
    let io = &fx.layout.map(0, 512 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&faulty, Some(q)),
        Purpose::Read { degraded: true },
        io,
    );
    // Q participates in the reconstruction (its drive is read)...
    assert!(
        dag.count_steps(|k| matches!(
            k,
            StepKind::DriveRead { server, .. } if *server == fx.servers[q]
        )) == 1,
        "Q must stand in for the lost P"
    );
    // ...and neither failed member is touched.
    for victim in [victim_data, victim_p] {
        assert_eq!(
            dag.count_steps(|k| matches!(
                k,
                StepKind::DriveRead { server, .. } | StepKind::DriveWrite { server, .. }
                if *server == fx.servers[victim]
            )),
            0
        );
    }
}
