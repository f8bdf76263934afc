//! Golden DAG test: every graph the builders emit, and the step traces of a
//! rebuild and a scrub, byte-diffed against `tests/golden/dags.txt`.
//!
//! The file pins step kinds, bytes, dependency lists and step order, so a
//! refactor of the builders that changes any graph fails here with the first
//! differing line. To regenerate after an intended model change, run
//! `DRAID_BLESS_DAGS=1 cargo test -p draid-core --test dag_golden`.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use draid_block::{Cluster, ServerId};
use draid_core::{
    build_dag, ArrayConfig, ArraySim, BuildCtx, Dag, DraidOptions, Layout, Purpose, RaidLevel,
    StepKind, StripeIo, SystemKind, WriteMode,
};
use draid_net::NodeId;
use draid_sim::Engine;

const KIB: u64 = 1024;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dags.txt");

/// Compact step encoding: kind letter, place, bytes, then `<deps`.
fn step(kind: &StepKind) -> String {
    match *kind {
        StepKind::Transfer { from, to, bytes } => format!("T{}>{}:{bytes}", from.0, to.0),
        StepKind::DriveRead { server, bytes } => format!("R{}:{bytes}", server.0),
        StepKind::DriveWrite { server, bytes } => format!("W{}:{bytes}", server.0),
        StepKind::Xor { node, bytes } => format!("X{}:{bytes}", node.0),
        StepKind::GfMul { node, bytes } => format!("G{}:{bytes}", node.0),
        StepKind::PerIo { node } => format!("P{}", node.0),
        StepKind::CoreBusy { node, duration } => format!("B{}:{}ns", node.0, duration.as_nanos()),
        StepKind::Delay { duration } => format!("D{}ns", duration.as_nanos()),
        StepKind::Join => "J".to_string(),
    }
}

fn encode(dag: &Dag) -> String {
    let mut out = String::new();
    for (_, s) in dag.iter() {
        out.push(' ');
        out.push_str(&step(&s.kind));
        if !s.deps.is_empty() {
            let deps: Vec<String> = s.deps.iter().map(|d| d.to_string()).collect();
            let _ = write!(out, "<{}", deps.join(","));
        }
    }
    out
}

/// The array variants of the grid: each system, plus each dRAID ablation.
fn variants() -> Vec<(&'static str, SystemKind, DraidOptions)> {
    let on = DraidOptions::default();
    vec![
        ("draid", SystemKind::Draid, on),
        (
            "draid-serial",
            SystemKind::Draid,
            DraidOptions {
                pipeline: false,
                ..on
            },
        ),
        (
            "draid-blocking",
            SystemKind::Draid,
            DraidOptions {
                nonblocking: false,
                ..on
            },
        ),
        (
            "draid-via-host",
            SystemKind::Draid,
            DraidOptions {
                peer_to_peer: false,
                ..on
            },
        ),
        (
            "draid-locked-read",
            SystemKind::Draid,
            DraidOptions {
                lockfree_read: false,
                ..on
            },
        ),
        ("spdk", SystemKind::SpdkRaid, on),
        ("linux", SystemKind::LinuxMd, on),
    ]
}

fn builder_grid(out: &mut String) {
    const STRIPE: u64 = 1;
    for (level, width) in [(RaidLevel::Raid5, 5), (RaidLevel::Raid6, 6)] {
        for (name, system, draid) in variants() {
            let mut cfg = ArrayConfig::paper_default(system);
            cfg.level = level;
            cfg.width = width;
            cfg.chunk_size = 64 * KIB;
            cfg.draid = draid;
            let layout = Layout::new(&cfg);
            // Host is node 0; member m lives on node m+1, server m.
            let nodes: Vec<NodeId> = (1..=width).map(NodeId).collect();
            let servers: Vec<ServerId> = (0..width).map(ServerId).collect();
            let base = STRIPE * layout.stripe_data_bytes();
            let extents = [
                ("sub", base + 4 * KIB, 8 * KIB),
                ("cross", base + 60 * KIB, 8 * KIB),
                ("full", base, layout.stripe_data_bytes()),
            ];
            let d0 = layout.data_member(STRIPE, 0);
            let dlast = layout.data_member(STRIPE, layout.data_chunks() - 1);
            let p = layout.p_member(STRIPE);
            let mut faults = vec![("d0", vec![d0]), ("dlast", vec![dlast]), ("p", vec![p])];
            if let Some(q) = layout.q_member(STRIPE) {
                faults.push(("q", vec![q]));
                faults.push(("p+d0", vec![p, d0]));
            }
            let healthy: [(&str, Purpose); 4] = [
                ("read", Purpose::Read { degraded: false }),
                (
                    "rmw",
                    Purpose::Write {
                        mode: WriteMode::ReadModifyWrite,
                        degraded: false,
                    },
                ),
                (
                    "rcw",
                    Purpose::Write {
                        mode: WriteMode::ReconstructWrite,
                        degraded: false,
                    },
                ),
                (
                    "fullwrite",
                    Purpose::Write {
                        mode: WriteMode::FullStripe,
                        degraded: false,
                    },
                ),
            ];
            let degraded: [(&str, Purpose); 2] = [
                ("dread", Purpose::Read { degraded: true }),
                (
                    "dwrite",
                    Purpose::Write {
                        mode: WriteMode::ReconstructWrite,
                        degraded: true,
                    },
                ),
            ];
            let mut cases: Vec<(&str, Purpose, &str, Vec<usize>)> = Vec::new();
            for (pname, purpose) in healthy {
                cases.push((pname, purpose, "none", Vec::new()));
            }
            for (pname, purpose) in degraded {
                for (fname, set) in &faults {
                    cases.push((pname, purpose, fname, set.clone()));
                }
            }
            for (pname, purpose, fname, set) in cases {
                let faulty: BTreeSet<usize> = set.into_iter().collect();
                let ctx = BuildCtx {
                    cfg: &cfg,
                    layout: &layout,
                    host: NodeId(0),
                    nodes: &nodes,
                    servers: &servers,
                    faulty: &faulty,
                    reducer: Some(p),
                };
                for (ename, offset, len) in extents {
                    let ios: Vec<StripeIo> = layout.map(offset, len);
                    assert_eq!(ios.len(), 1, "extent stays in one stripe");
                    let dag = build_dag(&ctx, purpose, &ios[0]);
                    let _ = writeln!(
                        out,
                        "{level:?} {name} {pname} fault={fname} {ename}:{}",
                        encode(&dag)
                    );
                }
            }
        }
    }
}

/// RAID-6, width 6, on a 7-server cluster: server 6 is the pool spare.
fn raid6_array() -> (ArraySim, Engine<ArraySim>) {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid6;
    cfg.width = 6;
    cfg.chunk_size = 64 * KIB;
    let cluster = Cluster::homogeneous(7);
    (ArraySim::new(cluster, cfg).expect("valid"), Engine::new())
}

fn write_trace(out: &mut String, label: &str, array: &mut ArraySim) {
    let trace = array.take_trace().expect("tracing enabled");
    assert_eq!(trace.dropped(), 0);
    for e in trace.events() {
        let _ = writeln!(
            out,
            "{label} op={} step={} {} issued={} completed={}",
            e.op,
            e.step,
            step(&e.kind),
            e.issued.as_nanos(),
            e.completed.as_nanos()
        );
    }
}

fn traced_rebuild_and_scrub(out: &mut String) {
    let (mut array, mut eng) = raid6_array();
    array.fail_member(2);
    array.enable_tracing(1 << 16);
    array.start_rebuild(&mut eng, 2, ServerId(6), 2, 2);
    eng.run(&mut array);
    assert!(array.rebuild_status().is_none(), "rebuild finished");
    write_trace(out, "rebuild", &mut array);

    let (mut array, mut eng) = raid6_array();
    array.enable_tracing(1 << 16);
    array.start_scrub(&mut eng, 4, 2);
    eng.run(&mut array);
    let report = array.take_scrub_report().expect("scrub ran");
    assert_eq!(report.checked, 4);
    write_trace(out, "scrub", &mut array);
}

#[test]
fn dags_match_golden_file() {
    let mut out = String::new();
    builder_grid(&mut out);
    traced_rebuild_and_scrub(&mut out);
    if std::env::var_os("DRAID_BLESS_DAGS").is_some() {
        std::fs::write(GOLDEN, &out).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    for (i, (want, got)) in golden.lines().zip(out.lines()).enumerate() {
        assert_eq!(want, got, "first difference at golden line {}", i + 1);
    }
    assert_eq!(golden.lines().count(), out.lines().count(), "line count");
}
