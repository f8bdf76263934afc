//! Layer replays: the op stream recorded by a traced round, pushed through
//! one layer at a time with nothing else running, timed in whole batches so
//! the clock reads cost nothing per call.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use draid_block::{Cluster, ServerId};
use draid_core::{
    build_dag, BuildCtx, ChunkStore, DataMode, IoKind, Layout, Purpose, StepKind, StripeIo,
};
use draid_net::NodeId;
use draid_sim::SimTime;
use draid_store::{BlockApp, LsmStore, YcsbOp};
use draid_workload::{FioJob, FioStream};

use crate::Recorded;

/// Repetitions of each cheap replay; the median is reported.
const REPS: usize = 3;

fn median_ns_per_call(calls: usize, mut batch: impl FnMut() -> u64) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let mut v: Vec<f64> = (0..REPS).map(|_| batch() as f64 / calls as f64).collect();
    v.sort_by(f64::total_cmp);
    v[REPS / 2]
}

fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// The purpose the array picks at launch for a first attempt, and the
/// reducer a degraded read needs (the lowest surviving member stands in
/// for the array's randomized or bandwidth-aware choice).
fn purpose(
    layout: &Layout,
    kind: IoKind,
    io: &StripeIo,
    faulty: &BTreeSet<usize>,
) -> (Purpose, Option<usize>) {
    match kind {
        IoKind::Read => {
            let degraded = io.segments.iter().any(|s| faulty.contains(&s.member));
            let reducer = degraded
                .then(|| (0..layout.width()).find(|m| !faulty.contains(m)))
                .flatten();
            (Purpose::Read { degraded }, reducer)
        }
        IoKind::Write => {
            let s = io.stripe;
            let degraded = faulty.contains(&layout.p_member(s))
                || layout.q_member(s).is_some_and(|q| faulty.contains(&q))
                || (0..layout.data_chunks()).any(|k| faulty.contains(&layout.data_member(s, k)));
            let mode = layout.write_mode(io);
            (Purpose::Write { mode, degraded }, None)
        }
    }
}

/// `Layout::map` per user I/O and `draid_core::build_dag` per stripe op.
pub fn layout_and_builders(recorded: &[Recorded], out: &mut BTreeMap<&'static str, f64>) {
    let (mut map_ns, mut ios, mut build_ns, mut stripe_ops, mut steps) = (0.0, 0, 0.0, 0, 0);
    for rec in recorded {
        let layout = Layout::new(&rec.cfg);
        let n = rec.submitted.len();
        map_ns += n as f64
            * median_ns_per_call(n, || {
                timed(|| {
                    for s in &rec.submitted {
                        black_box(layout.map(s.io.offset, s.io.len));
                    }
                })
            });
        ios += n;

        let ops: Vec<(Purpose, Option<usize>, StripeIo, &BTreeSet<usize>)> = rec
            .submitted
            .iter()
            .flat_map(|s| {
                layout.map(s.io.offset, s.io.len).into_iter().map(|sio| {
                    let (p, r) = purpose(&layout, s.io.kind, &sio, &s.faulty);
                    (p, r, sio, &s.faulty)
                })
            })
            .collect();
        let cluster = Cluster::homogeneous(rec.cluster_width);
        let servers: Vec<ServerId> = (0..rec.cfg.width).map(ServerId).collect();
        let nodes: Vec<NodeId> = servers.iter().map(|&s| cluster.server_node(s)).collect();
        let host = cluster.host_node();
        let mut count = 0;
        build_ns += ops.len() as f64
            * median_ns_per_call(ops.len(), || {
                count = 0;
                timed(|| {
                    for (purpose, reducer, sio, faulty) in &ops {
                        let ctx = BuildCtx {
                            cfg: &rec.cfg,
                            layout: &layout,
                            host,
                            nodes: &nodes,
                            servers: &servers,
                            faulty,
                            reducer: *reducer,
                        };
                        let dag = build_dag(&ctx, *purpose, sio);
                        count += dag.len();
                        black_box(dag);
                    }
                })
            });
        stripe_ops += ops.len();
        steps += count;
    }
    let per = |x: f64, n: usize| if n == 0 { 0.0 } else { x / n as f64 };
    out.insert("core.layout.map_ns", per(map_ns, ios));
    out.insert("core.layout.stripe_ops_per_io", per(stripe_ops as f64, ios));
    out.insert("core.builders.build_ns", per(build_ns, stripe_ops));
    out.insert("core.dag.steps_per_op", per(steps as f64, stripe_ops));
}

/// Each recorded resource step against a fresh cluster's fabric, drives and
/// cores, one resource class at a time, at the simulated time it was issued.
pub fn resources(recorded: &[Recorded], out: &mut BTreeMap<&'static str, f64>) {
    type Net = (SimTime, NodeId, NodeId, u64);
    type Disk = (SimTime, ServerId, bool, u64);
    let mut totals = [(0.0, 0usize); 3];
    for rec in recorded {
        let (mut net, mut disk, mut cpu): (Vec<Net>, Vec<Disk>, Vec<(SimTime, StepKind)>) =
            Default::default();
        for e in &rec.steps {
            match e.kind {
                StepKind::Transfer { from, to, bytes } => net.push((e.issued, from, to, bytes)),
                StepKind::DriveRead { server, bytes } => {
                    disk.push((e.issued, server, false, bytes))
                }
                StepKind::DriveWrite { server, bytes } => {
                    disk.push((e.issued, server, true, bytes))
                }
                StepKind::Xor { .. }
                | StepKind::GfMul { .. }
                | StepKind::PerIo { .. }
                | StepKind::CoreBusy { .. } => cpu.push((e.issued, e.kind)),
                StepKind::Delay { .. } | StepKind::Join => {}
            }
        }
        let fresh = || Cluster::homogeneous(rec.cluster_width);
        let net_ns = median_ns_per_call(net.len(), || {
            let mut c = fresh();
            timed(|| {
                for &(now, from, to, bytes) in &net {
                    black_box(c.try_transfer(now, from, to, bytes).ok());
                }
            })
        });
        let disk_ns = median_ns_per_call(disk.len(), || {
            let mut c = fresh();
            timed(|| {
                for &(now, server, write, bytes) in &disk {
                    let drive = c.drive_mut(server);
                    black_box(
                        if write {
                            drive.write(now, bytes)
                        } else {
                            drive.read(now, bytes)
                        }
                        .ok(),
                    );
                }
            })
        });
        let cpu_ns = median_ns_per_call(cpu.len(), || {
            let mut c = fresh();
            timed(|| {
                for &(now, kind) in &cpu {
                    black_box(match kind {
                        StepKind::Xor { node, bytes } => c.cpu_mut(node).xor(now, bytes),
                        StepKind::GfMul { node, bytes } => c.cpu_mut(node).gf_mul(now, bytes),
                        StepKind::PerIo { node } => c.cpu_mut(node).per_io(now),
                        StepKind::CoreBusy { node, duration } => {
                            c.cpu_mut(node).busy_for(now, duration)
                        }
                        _ => unreachable!("only core steps are queued here"),
                    });
                }
            })
        });
        for (slot, (ns, n)) in totals.iter_mut().zip([
            (net_ns, net.len()),
            (disk_ns, disk.len()),
            (cpu_ns, cpu.len()),
        ]) {
            slot.0 += ns * n as f64;
            slot.1 += n;
        }
    }
    for (name, (ns, n)) in [
        "net.fabric.transfer_ns",
        "block.drive.io_ns",
        "block.cpu.charge_ns",
    ]
    .into_iter()
    .zip(totals)
    {
        out.insert(name, if n == 0 { 0.0 } else { ns / n as f64 });
    }
}

/// The recorded stripe ops of a full-data run through a fresh `ChunkStore`,
/// in order and with the failed set each I/O saw. One pass: it is long and
/// each call is timed on its own.
pub fn datastore(recorded: &[Recorded], out: &mut BTreeMap<&'static str, f64>) {
    let (mut write_ns, mut writes, mut read_ns, mut reads) = (0u64, 0u64, 0u64, 0u64);
    for rec in recorded
        .iter()
        .filter(|r| r.cfg.data_mode == DataMode::Full)
    {
        let layout = Layout::new(&rec.cfg);
        let mut store = ChunkStore::new(layout);
        let mut buf = Vec::new();
        for s in &rec.submitted {
            for sio in layout.map(s.io.offset, s.io.len) {
                match (&s.io.data, s.io.kind) {
                    (Some(data), IoKind::Write) => {
                        let at = sio.buf_offset as usize;
                        let payload = &data[at..at + sio.bytes() as usize];
                        let mode = layout.write_mode(&sio);
                        write_ns += timed(|| store.apply_write(&sio, payload, mode, &s.faulty));
                        writes += 1;
                    }
                    (_, IoKind::Read) => {
                        read_ns += timed(|| store.read_into(&mut buf, &sio, &s.faulty));
                        reads += 1;
                    }
                    (None, IoKind::Write) => {}
                }
            }
        }
    }
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    out.insert("core.datastore.apply_write_ns", per(write_ns, writes));
    out.insert("core.datastore.read_ns", per(read_ns, reads));
}

/// `FioStream::next_io` on a fresh stream of the recorded job (the full-data
/// source draws its offsets from the same generator).
pub fn next_io(job: FioJob, calls: usize, layout: &Layout, out: &mut BTreeMap<&'static str, f64>) {
    let ns = median_ns_per_call(calls, || {
        let mut stream = FioStream::new(job);
        timed(|| {
            for _ in 0..calls {
                black_box(stream.next_io(layout));
            }
        })
    });
    out.insert("workload.next_io_ns", ns);
}

/// `YcsbGen::next_op` and `LsmStore::plan` over the recorded op stream.
pub fn store(seed: u64, ops: &[YcsbOp], out: &mut BTreeMap<&'static str, f64>) {
    let next_op = median_ns_per_call(ops.len(), || {
        let mut gen = crate::ycsb::gen(seed);
        timed(|| {
            for _ in 0..ops.len() {
                black_box(gen.next_op());
            }
        })
    });
    let plan = median_ns_per_call(ops.len(), || {
        let mut lsm = LsmStore::new(crate::ycsb::lsm_config(seed), crate::ycsb::DATA_REGION);
        timed(|| {
            for op in ops {
                black_box(lsm.plan(op));
            }
        })
    });
    out.insert("store.ycsb.next_op_ns", next_op);
    out.insert("store.plan_ns", plan);
}
