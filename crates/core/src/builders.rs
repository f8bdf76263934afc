//! DAG builders: compile one stripe operation — a user I/O, a rebuild of
//! one lost chunk, or a scrub of one stripe — into the dependency graph of
//! resource steps the executor schedules.
//!
//! This is where the paper's Table 1 data-movement asymmetry lives. The same
//! logical operation (say, a partial-stripe read-modify-write) compiles to
//! very different graphs per system:
//!
//! * **dRAID** (§5): the host ships only the new data plus command capsules;
//!   data bdevs compute partial parities locally and forward them
//!   peer-to-peer to the parity bdev, which reduces and persists. Degraded
//!   reads (§6) stream survivor extents to a chosen reducer rather than the
//!   host.
//! * **Centralized** (SPDK POC, Linux MD): every byte crosses the host NIC —
//!   old data and old parity in, new data and new parity out ("4x" in
//!   Table 1) — and parity math runs on the host cores.
//!
//! Rebuild ([`build_rebuild`]) and scrub ([`build_scrub`]) reconstruct or
//! verify at a member, peer-to-peer, for every system.
//!
//! Builders are pure functions of their inputs: the executor and the
//! trace-attribution tooling rebuild identical graphs from the same inputs
//! (step indices included), which is what lets
//! [`crate::trace::critical_path`] re-associate recorded events with steps.

use std::collections::BTreeSet;

use draid_block::ServerId;
use draid_net::NodeId;
use draid_sim::SimTime;

use crate::config::{ArrayConfig, SystemKind};
use crate::dag::{Dag, StepKind};
use crate::layout::{Layout, Segment, StripeIo, WriteMode};

/// Wire size of a command capsule, payload excluded. Fig. 5's capsule is
/// 64 B (80 B with RAID-6's extra command data); the model charges 128 B.
pub const COMMAND_BYTES: u64 = 128;
/// Wire size of a completion callback.
pub const CALLBACK_BYTES: u64 = 64;
/// Host-core cost of acquiring and releasing a stripe lock, paid by every
/// locked I/O (the small-I/O read gap of Fig. 9 that dRAID's lock-free read
/// avoids).
const LOCK_OVERHEAD: SimTime = SimTime::from_nanos(1200);
/// Linux MD's extra per-I/O cost of crossing the kernel block stack, on top
/// of the host core's base per-I/O cost.
const LINUX_PER_IO_EXTRA: SimTime = SimTime::from_micros(5);
/// Linux MD's stripe-cache handling cost per 4 KiB page, plus a per-member
/// increment: wider stripes mean more bookkeeping per stripe head, which
/// bends Linux's curves down as width grows (Figs. 12 and 16).
const LINUX_PAGE_COST: SimTime = SimTime::from_nanos(1500);
const LINUX_PAGE_COST_PER_WIDTH: SimTime = SimTime::from_nanos(160);

/// Everything a builder needs to know about the array at op-launch time.
pub struct BuildCtx<'a> {
    /// Array configuration (system kind, ablation toggles).
    pub cfg: &'a ArrayConfig,
    /// Stripe geometry.
    pub layout: &'a Layout,
    /// The host (coordinator) node.
    pub host: NodeId,
    /// Fabric node of each member, indexed by member.
    pub nodes: &'a [NodeId],
    /// Drive server of each member, indexed by member.
    pub servers: &'a [ServerId],
    /// Members currently marked faulty.
    pub faulty: &'a BTreeSet<usize>,
    /// Reducer member chosen for degraded reads and rebuild (§6), if
    /// applicable.
    pub reducer: Option<usize>,
}

/// What the operation is for, decided at launch from the array's health.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Purpose {
    /// A user read; `degraded` when any touched segment sits on a faulty
    /// member and must be reconstructed.
    Read {
        /// Whether reconstruction is required.
        degraded: bool,
    },
    /// A user (or internal resync) write in the given mode.
    Write {
        /// Parity-update strategy (§2.1).
        mode: WriteMode,
        /// Whether the stripe has faulty members.
        degraded: bool,
    },
}

/// Builds the operation DAG for `purpose` over the stripe portion `io`.
pub fn build(ctx: &BuildCtx, purpose: Purpose, io: &StripeIo) -> Dag {
    let mut b = Builder::new(ctx, purpose, io);
    let draid = ctx.cfg.system == SystemKind::Draid;
    match purpose {
        Purpose::Read { degraded } => b.read(io, degraded),
        Purpose::Write { degraded: true, .. } if draid => b.draid_degraded_write(io),
        Purpose::Write { degraded: true, .. } => b.central_degraded_write(io),
        Purpose::Write {
            mode: WriteMode::FullStripe,
            ..
        } => b.full_stripe_write(io),
        Purpose::Write { mode, .. } => {
            let rmw = mode == WriteMode::ReadModifyWrite;
            if draid {
                b.draid_partial_write(io, rmw)
            } else {
                b.central_partial_write(io, rmw)
            }
        }
    }
    b.dag
}

/// The rebuild DAG for `victim`'s chunk of `stripe`: survivors read their
/// chunks and stream them to `ctx.reducer` (§6 policy), which XORs and
/// forwards the reconstructed chunk straight to the `spare` on
/// `spare_node`, which persists it — the data never crosses the host NIC.
pub(crate) fn build_rebuild(
    ctx: &BuildCtx,
    stripe: u64,
    victim: usize,
    spare: ServerId,
    spare_node: NodeId,
) -> Dag {
    let mut b = Builder::bare(ctx);
    let l = ctx.layout;
    let chunk = l.chunk_size();
    let reducer = ctx.reducer.expect("rebuild needs a reducer");
    // Rebuild always reconstructs from data + P, whatever chunk was lost.
    let mut participants: Vec<usize> = (0..l.data_chunks())
        .map(|k| l.data_member(stripe, k))
        .chain(std::iter::once(l.p_member(stripe)))
        .filter(|&m| m != victim && b.healthy(m))
        .collect();
    participants.sort_unstable();
    let mut reduces = Vec::new();
    for &m in &participants {
        let arrival = if m == reducer {
            b.remote_read(m, chunk)
        } else {
            b.read_to(m, chunk, b.node(reducer))
        };
        reduces.push(b.math(b.node(reducer), chunk, false, &[arrival]));
    }
    let done = b.dag.add(StepKind::Join, &reduces);
    let to_spare = b.xfer(b.node(reducer), spare_node, chunk, &[done]);
    // The spare charges no PerIo.
    let write = b.dag.add(
        StepKind::DriveWrite {
            server: spare,
            bytes: chunk,
        },
        &[to_spare],
    );
    // Rebuild's callback charges no host PerIo.
    b.xfer(spare_node, ctx.host, CALLBACK_BYTES, &[write]);
    b.dag
}

/// The scrub DAG for one stripe: every healthy member reads its chunk and
/// streams it to the stripe's P member, which XOR-verifies; only a tiny
/// verdict message reaches the host.
pub(crate) fn build_scrub(ctx: &BuildCtx, stripe: u64) -> Dag {
    let mut b = Builder::bare(ctx);
    let chunk = ctx.layout.chunk_size();
    let verifier = ctx.layout.p_member(stripe);
    let mut checks = Vec::new();
    for m in (0..ctx.layout.width()).filter(|m| !ctx.faulty.contains(m)) {
        // Scrub's command charges no member PerIo.
        let cmd = b.xfer(ctx.host, b.node(m), COMMAND_BYTES, &[b.root]);
        let read = b.drive_read(m, chunk, cmd);
        let arrival = if m == verifier {
            read
        } else {
            b.xfer(b.node(m), b.node(verifier), chunk, &[read])
        };
        checks.push(b.math(b.node(verifier), chunk, false, &[arrival]));
    }
    let done = b.dag.add(StepKind::Join, &checks);
    // Scrub's verdict charges no host PerIo.
    b.xfer(b.node(verifier), ctx.host, CALLBACK_BYTES, &[done]);
    b.dag
}

/// Byte extent `[lo, hi)` within the chunk covering every touched segment —
/// the region a parity read-modify-write must cover.
pub(crate) fn parity_extent(io: &StripeIo) -> u64 {
    let lo = io.segments.iter().map(|s| s.offset).min().unwrap_or(0);
    let hi = io
        .segments
        .iter()
        .map(|s| s.offset + s.len)
        .max()
        .unwrap_or(0);
    hi - lo
}

/// Steps (and dependency edges) each DAG reserves up front, so a typical
/// graph — a 4 KiB RMW has about 20 steps — never reallocates while built.
const STEPS_RESERVED: usize = 32;

/// Per-parity-leg contributions: `(contributing member, arrival step)` for
/// each parity member, in leg order.
type Legs = Vec<Vec<(usize, usize)>>;

/// Internal builder state: the DAG under construction plus the admission
/// root every command capsule depends on.
struct Builder<'a, 'c> {
    ctx: &'a BuildCtx<'c>,
    dag: Dag,
    root: usize,
}

impl<'a, 'c> Builder<'a, 'c> {
    /// A DAG whose root is the host's per-I/O software cost alone.
    fn bare(ctx: &'a BuildCtx<'c>) -> Self {
        let mut dag = Dag::with_capacity(STEPS_RESERVED);
        let root = dag.add(StepKind::PerIo { node: ctx.host }, &[]);
        Builder { ctx, dag, root }
    }

    /// A user-op DAG: the host admission root plus the lock and kernel-path
    /// costs `purpose` pays on this system.
    fn new(ctx: &'a BuildCtx<'c>, purpose: Purpose, io: &StripeIo) -> Self {
        let mut b = Self::bare(ctx);
        let cfg = ctx.cfg;
        // Stripe-lock CPU cost: the centralized systems lock every I/O;
        // dRAID locks writes, and reads only under the lock-free-read
        // ablation (§8).
        let is_read = matches!(purpose, Purpose::Read { .. });
        let pays_lock = match cfg.system {
            SystemKind::SpdkRaid | SystemKind::LinuxMd => true,
            SystemKind::Draid => !is_read || !cfg.draid.lockfree_read,
        };
        if pays_lock {
            b.host_busy(LOCK_OVERHEAD);
        }
        // Linux MD kernel-path costs: block-stack crossing plus stripe-cache
        // page handling (grows with width; Figs. 12/16). Writes always pass
        // through the stripe cache; reads bypass it only while the array is
        // optimal — any degradation routes *every* read through `raid5d` and
        // the page cache (the Fig. 15 collapse).
        if cfg.system == SystemKind::LinuxMd {
            let pays_pages = !is_read || !ctx.faulty.is_empty();
            let mut busy = LINUX_PER_IO_EXTRA;
            if pays_pages {
                let pages = io.bytes().div_ceil(4096);
                let per_page = LINUX_PAGE_COST.as_nanos()
                    + cfg.width as u64 * LINUX_PAGE_COST_PER_WIDTH.as_nanos();
                busy += SimTime::from_nanos(pages * per_page);
            }
            b.host_busy(busy);
        }
        b
    }

    fn node(&self, member: usize) -> NodeId {
        self.ctx.nodes[member]
    }

    fn healthy(&self, member: usize) -> bool {
        !self.ctx.faulty.contains(&member)
    }

    /// Chains fixed host busy time onto the admission root.
    fn host_busy(&mut self, duration: SimTime) {
        let node = self.ctx.host;
        self.root = self
            .dag
            .add(StepKind::CoreBusy { node, duration }, &[self.root]);
    }

    /// Adds a fabric transfer, degenerating to a free `Join` when source and
    /// destination share a node.
    fn xfer(&mut self, from: NodeId, to: NodeId, bytes: u64, deps: &[usize]) -> usize {
        if from == to {
            self.dag.add(StepKind::Join, deps)
        } else {
            self.dag.add(StepKind::Transfer { from, to, bytes }, deps)
        }
    }

    /// After `dep`, the host sends a command capsule (carrying `payload`
    /// data bytes) to `member`, whose controller admits it. Returns the step
    /// every member-side work depends on.
    fn command(&mut self, member: usize, payload: u64, dep: usize) -> usize {
        let bytes = COMMAND_BYTES + payload;
        let cmd = self.xfer(self.ctx.host, self.node(member), bytes, &[dep]);
        let node = self.node(member);
        self.dag.add(StepKind::PerIo { node }, &[cmd])
    }

    fn drive_read(&mut self, member: usize, bytes: u64, dep: usize) -> usize {
        let server = self.ctx.servers[member];
        self.dag.add(StepKind::DriveRead { server, bytes }, &[dep])
    }

    fn drive_write(&mut self, member: usize, bytes: u64, deps: &[usize]) -> usize {
        let server = self.ctx.servers[member];
        self.dag.add(StepKind::DriveWrite { server, bytes }, deps)
    }

    /// A command from the admission root, then a drive read on `member`.
    fn remote_read(&mut self, member: usize, bytes: u64) -> usize {
        let ready = self.command(member, 0, self.root);
        self.drive_read(member, bytes, ready)
    }

    /// [`Builder::remote_read`], then the bytes shipped to `node`.
    fn read_to(&mut self, member: usize, bytes: u64, node: NodeId) -> usize {
        let read = self.remote_read(member, bytes);
        self.xfer(self.node(member), node, bytes, &[read])
    }

    /// Reads `bytes` on `member` to the host. Each returned payload is a
    /// completion the host stack must process (the per-verb software cost
    /// dRAID offloads to its controllers).
    fn pull(&mut self, member: usize, bytes: u64) -> usize {
        let arrival = self.read_to(member, bytes, self.ctx.host);
        let node = self.ctx.host;
        self.dag.add(StepKind::PerIo { node }, &[arrival])
    }

    /// An XOR pass, or a GF(256) pass when `gf`, over `bytes` on `node`.
    fn math(&mut self, node: NodeId, bytes: u64, gf: bool, deps: &[usize]) -> usize {
        let kind = if gf {
            StepKind::GfMul { node, bytes }
        } else {
            StepKind::Xor { node, bytes }
        };
        self.dag.add(kind, deps)
    }

    /// Completion callback from `member` to the host.
    fn callback(&mut self, member: usize, deps: &[usize]) -> usize {
        let bytes = CALLBACK_BYTES;
        let arrive = self.xfer(self.node(member), self.ctx.host, bytes, deps);
        // Completion processing on the host stack: every callback consumes a
        // per-I/O slice of the host core, whichever system sent it.
        let node = self.ctx.host;
        self.dag.add(StepKind::PerIo { node }, &[arrive])
    }

    /// `member` persists `bytes` after `deps` and acknowledges the host.
    fn write_and_ack(&mut self, member: usize, bytes: u64, deps: &[usize]) {
        let write = self.drive_write(member, bytes, deps);
        self.callback(member, &[write]);
    }

    /// After `dep`, the host ships `bytes` to `member`, which persists and
    /// acknowledges.
    fn push(&mut self, member: usize, bytes: u64, dep: usize) {
        let ready = self.command(member, bytes, dep);
        self.write_and_ack(member, bytes, &[ready]);
    }

    /// The stripe's parity members as `(member, is_q)`, P first; with
    /// `live_only`, faulty ones are left out.
    fn parity_legs(&self, stripe: u64, live_only: bool) -> Vec<(usize, bool)> {
        let l = self.ctx.layout;
        std::iter::once((l.p_member(stripe), false))
            .chain(l.q_member(stripe).map(|q| (q, true)))
            .filter(|&(m, _)| !live_only || self.healthy(m))
            .collect()
    }

    /// Data members of `io`'s stripe that no segment touches, in data-index
    /// order; with `live_only`, faulty ones are left out.
    fn untouched(&self, io: &StripeIo, live_only: bool) -> Vec<usize> {
        let l = self.ctx.layout;
        (0..l.data_chunks())
            .map(|k| l.data_member(io.stripe, k))
            .filter(|&m| !io.segments.iter().any(|s| s.member == m))
            .filter(|&m| !live_only || self.healthy(m))
            .collect()
    }

    /// Healthy members able to reconstruct `victim`'s chunk of `stripe`:
    /// the surviving data members plus as many parity members as the losses
    /// require (P first, then Q).
    fn reconstruction_set(&self, stripe: u64, victim: usize) -> Vec<usize> {
        let l = self.ctx.layout;
        let mut set: Vec<usize> = (0..l.data_chunks())
            .map(|k| l.data_member(stripe, k))
            .filter(|&m| m != victim && self.healthy(m))
            .collect();
        let mut needed = l.data_chunks() - set.len();
        for (pm, _) in self.parity_legs(stripe, false) {
            if needed == 0 {
                break;
            }
            if pm != victim && self.healthy(pm) {
                set.push(pm);
                needed -= 1;
            }
        }
        set.sort_unstable();
        set
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Reads: each segment that needs no reconstruction is a command, a
    /// drive read and the data straight back to the host (the data transfer
    /// is the completion; no separate callback). Under `degraded`, lost
    /// segments are rebuilt at a reducer (dRAID) or on the host.
    fn read(&mut self, io: &StripeIo, degraded: bool) {
        for seg in io.segments.iter().copied() {
            if !degraded || self.healthy(seg.member) {
                self.read_to(seg.member, seg.len, self.ctx.host);
                continue;
            }
            let set = self.reconstruction_set(io.stripe, seg.member);
            if self.ctx.cfg.system == SystemKind::Draid {
                self.draid_reconstruct(io.stripe, seg.len, &set);
            } else {
                // Every survivor's extent crosses the host NIC (Table 1
                // "Nx"); the host reconstructs, charging XOR even when Q is
                // in the set.
                let mut arrivals = Vec::new();
                for &m in &set {
                    arrivals.push(self.pull(m, seg.len));
                }
                let bytes = set.len() as u64 * seg.len;
                self.math(self.ctx.host, bytes, false, &arrivals);
            }
        }
    }

    /// dRAID degraded read of one lost segment (§6): survivors stream their
    /// extents to the reducer, which alone ships the rebuilt extent to the
    /// host. Survivors read their reconstruction extent separately from any
    /// segment of their own.
    fn draid_reconstruct(&mut self, stripe: u64, len: u64, set: &[usize]) {
        let reducer = self
            .ctx
            .reducer
            .filter(|r| self.healthy(*r))
            .or_else(|| set.first().copied())
            .expect("degraded read with no survivors");
        let q = self.ctx.layout.q_member(stripe);
        let r_ready = self.command(reducer, 0, self.root);
        let mut reduces = Vec::new();
        for &m in set {
            let arrival = if m == reducer {
                self.drive_read(m, len, r_ready)
            } else {
                self.read_to(m, len, self.node(reducer))
            };
            // Q-based recovery needs GF(256) math; plain survivors XOR.
            reduces.push(self.math(self.node(reducer), len, Some(m) == q, &[arrival, r_ready]));
        }
        let done = self.dag.add(StepKind::Join, &reduces);
        self.xfer(self.node(reducer), self.ctx.host, len, &[done]);
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Full-stripe write, shared by all systems (§3): the host holds every
    /// data chunk, computes parity locally, and ships data + parity with no
    /// reads anywhere.
    fn full_stripe_write(&mut self, io: &StripeIo) {
        let l = self.ctx.layout;
        let (host, root) = (self.ctx.host, self.root);
        let xor = self.math(host, l.stripe_data_bytes(), false, &[root]);
        let legs = self.parity_legs(io.stripe, false);
        let q_gen = legs
            .iter()
            .any(|&(_, gf)| gf)
            .then(|| self.math(host, l.stripe_data_bytes(), true, &[root]));
        for seg in io.segments.iter().copied() {
            self.push(seg.member, seg.len, root);
        }
        for (pm, gf) in legs {
            let dep = if gf { q_gen.unwrap_or(xor) } else { xor };
            self.push(pm, l.chunk_size(), dep);
        }
    }

    /// Where `seg`'s partial-parity contribution is read from after the
    /// host's command delivers its new data: RMW reads the old data for the
    /// delta; a reconstruct-write of a partial chunk forwards the full new
    /// chunk, so the complement is read locally.
    fn fetch_source(&mut self, seg: Segment, rmw: bool) -> usize {
        let chunk = self.ctx.layout.chunk_size();
        let fetch = self.command(seg.member, seg.len, self.root);
        if rmw {
            self.drive_read(seg.member, seg.len, fetch)
        } else if seg.covers_chunk(chunk) {
            fetch
        } else {
            self.drive_read(seg.member, chunk - seg.len, fetch)
        }
    }

    /// Forwards a partial-parity contribution from `from` to parity member
    /// `to`, peer-to-peer or detouring through the host under the ablation.
    fn forward(&mut self, from: usize, to: usize, bytes: u64, dep: usize) -> usize {
        if self.ctx.cfg.draid.peer_to_peer {
            self.xfer(self.node(from), self.node(to), bytes, &[dep])
        } else {
            let up = self.xfer(self.node(from), self.ctx.host, bytes, &[dep]);
            self.xfer(self.ctx.host, self.node(to), bytes, &[up])
        }
    }

    /// Data member `m` forwards its `bytes` contribution `src` to each
    /// parity leg: P as is, Q scaled by g^i on the data bdev (§5.2).
    fn fan_out(
        &mut self,
        m: usize,
        bytes: u64,
        src: usize,
        legs: &[(usize, bool)],
        out: &mut Legs,
    ) {
        for (slot, &(pm, gf)) in legs.iter().enumerate() {
            let contrib = if gf {
                self.math(self.node(m), bytes, true, &[src])
            } else {
                src
            };
            let fwd = self.forward(m, pm, bytes, contrib);
            out[slot].push((m, fwd));
        }
    }

    /// dRAID partial-stripe write (§5): host ships only new data; partial
    /// parities flow peer-to-peer to the parity bdev(s).
    fn draid_partial_write(&mut self, io: &StripeIo, rmw: bool) {
        let chunk = self.ctx.layout.chunk_size();
        let extent = if rmw { parity_extent(io) } else { chunk };
        let legs = self.parity_legs(io.stripe, false);

        // Parity-side admission; RMW additionally reads the old parity.
        let mut old_reads = Vec::new();
        for &(pm, _) in &legs {
            let ready = self.command(pm, 0, self.root);
            old_reads.push(rmw.then(|| self.drive_read(pm, extent, ready)));
        }

        // Data-side: each touched member fetches its new data, persists it,
        // and emits a partial-parity contribution; in reconstruct-write mode
        // the untouched members stream their (old) chunks as contributions.
        let mut fwds: Legs = vec![Vec::new(); legs.len()];
        for seg in io.segments.iter().copied() {
            let m = seg.member;
            let mut src = self.fetch_source(seg, rmw);
            if self.ctx.cfg.draid.pipeline {
                // §5.3: the drive-write and the parity forwarding both hang
                // off the fetch/read alone — and the data bdev acknowledges
                // the host as soon as its own write lands.
                self.write_and_ack(m, seg.len, &[src]);
            } else {
                // Serial NVMe-oF-style chain: fetch -> read -> write ->
                // forward, no per-bdev callback.
                src = self.drive_write(m, seg.len, &[src]);
            }
            let contrib = if rmw { seg.len } else { chunk };
            let delta = self.math(self.node(m), contrib, false, &[src]);
            self.fan_out(m, contrib, delta, &legs, &mut fwds);
        }
        if !rmw {
            for m in self.untouched(io, false) {
                let read = self.remote_read(m, chunk);
                self.fan_out(m, chunk, read, &legs, &mut fwds);
            }
        }

        // Parity-side reduction and persist. Non-blocking (§5.2): each
        // reduction depends only on its contribution's arrival; blocking
        // ablation: a barrier joins every arrival (and the old-parity read)
        // first.
        for (slot, &(pm, gf)) in legs.iter().enumerate() {
            let old_read = old_reads[slot];
            let barrier = (!self.ctx.cfg.draid.nonblocking).then(|| {
                let mut deps: Vec<usize> = fwds[slot].iter().map(|&(_, f)| f).collect();
                deps.extend(old_read);
                self.dag.add(StepKind::Join, &deps)
            });
            let mut reduces = Vec::new();
            for &(m, fwd) in &fwds[slot] {
                let seg_len = io
                    .segments
                    .iter()
                    .find(|s| s.member == m)
                    .map_or(extent, |s| s.len);
                let bytes = seg_len.min(extent).max(1);
                reduces.push(self.math(self.node(pm), bytes, gf, &[barrier.unwrap_or(fwd)]));
            }
            reduces.extend(old_read);
            self.write_and_ack(pm, extent, &reduces);
        }
    }

    /// dRAID degraded write: reconstruction-shaped regardless of the chosen
    /// mode. Healthy touched members persist their segments and contribute
    /// their full new chunks; untouched healthy members contribute resident
    /// chunks; segments on faulty members are shipped from the host straight
    /// to the surviving parity member(s), which recompute and persist —
    /// the lost chunk's content stays implied by parity until rebuild.
    fn draid_degraded_write(&mut self, io: &StripeIo) {
        let chunk = self.ctx.layout.chunk_size();
        let legs = self.parity_legs(io.stripe, true);
        let mut readies = Vec::new();
        for &(pm, _) in &legs {
            readies.push(self.command(pm, 0, self.root));
        }

        let mut fwds: Legs = vec![Vec::new(); legs.len()];
        for seg in io.segments.iter().copied() {
            let m = seg.member;
            if self.healthy(m) {
                let src = self.fetch_source(seg, false);
                self.write_and_ack(m, seg.len, &[src]);
                self.fan_out(m, chunk, src, &legs, &mut fwds);
            } else {
                // The dead member's new data goes straight to each parity.
                let bytes = COMMAND_BYTES + seg.len;
                for (slot, &(pm, _)) in legs.iter().enumerate() {
                    let fwd = self.xfer(self.ctx.host, self.node(pm), bytes, &[self.root]);
                    fwds[slot].push((m, fwd));
                }
            }
        }
        for m in self.untouched(io, true) {
            let read = self.remote_read(m, chunk);
            self.fan_out(m, chunk, read, &legs, &mut fwds);
        }

        // Every reduction waits on its parity member's command; there is no
        // blocking-ablation barrier on this path.
        for (slot, &(pm, gf)) in legs.iter().enumerate() {
            let mut reduces = Vec::new();
            for &(_, fwd) in &fwds[slot] {
                reduces.push(self.math(self.node(pm), chunk, gf, &[fwd, readies[slot]]));
            }
            self.write_and_ack(pm, chunk, &reduces);
        }
    }

    /// Centralized partial-stripe write: old data/parity (RMW) or untouched
    /// chunks (reconstruct) are pulled to the host, parity math runs on the
    /// host cores, and new data + parity are pushed back out — every byte
    /// crossing the host NIC twice.
    fn central_partial_write(&mut self, io: &StripeIo, rmw: bool) {
        let legs = self.parity_legs(io.stripe, false);
        let extent = if rmw {
            parity_extent(io)
        } else {
            self.ctx.layout.chunk_size()
        };
        let pulls = if rmw {
            let data = io.segments.iter().map(|s| (s.member, s.len));
            data.chain(legs.iter().map(|&(pm, _)| (pm, extent)))
                .collect()
        } else {
            self.rcw_reads(io, false)
        };
        // The parity pass streams every input operand through the core: the
        // new data plus everything that was pulled (old data and old parity
        // for RMW, the chunk complements for reconstruct-write).
        let pulled: u64 = pulls.iter().map(|&(_, bytes)| bytes).sum();
        self.central_write(io, &pulls, io.bytes() + pulled, &legs, extent, false);
    }

    /// Centralized degraded write: untouched healthy chunks are pulled to
    /// the host, parity is recomputed there, and new data (healthy members
    /// only) plus parity are pushed out. The parity pass is charged at new
    /// data plus one chunk, whatever was pulled.
    fn central_degraded_write(&mut self, io: &StripeIo) {
        let chunk = self.ctx.layout.chunk_size();
        let legs = self.parity_legs(io.stripe, true);
        let pulls = self.rcw_reads(io, true);
        self.central_write(io, &pulls, io.bytes() + chunk, &legs, chunk, true);
    }

    /// What a centralized reconstruct-write reads besides the new data:
    /// untouched data chunks, then the complements of partially covered
    /// chunks; with `live_only`, faulty members are skipped.
    fn rcw_reads(&self, io: &StripeIo, live_only: bool) -> Vec<(usize, u64)> {
        let chunk = self.ctx.layout.chunk_size();
        let mut reads: Vec<(usize, u64)> = self
            .untouched(io, live_only)
            .into_iter()
            .map(|m| (m, chunk))
            .collect();
        reads.extend(
            io.segments
                .iter()
                .filter(|s| (!live_only || self.healthy(s.member)) && !s.covers_chunk(chunk))
                .map(|s| (s.member, chunk - s.len)),
        );
        reads
    }

    /// The centralized two-phase write: `pulls` cross to the host, the host
    /// runs the parity pass over `math_bytes` (a GF pass too when Q is a
    /// leg), and only then pushes the new data (healthy members only under
    /// `live_only`) and `parity_bytes` to each parity leg — the old contents
    /// feed the parity, so nothing may be overwritten while phase one is in
    /// flight.
    fn central_write(
        &mut self,
        io: &StripeIo,
        pulls: &[(usize, u64)],
        math_bytes: u64,
        legs: &[(usize, bool)],
        parity_bytes: u64,
        live_only: bool,
    ) {
        let mut arrivals = Vec::new();
        for &(m, bytes) in pulls {
            arrivals.push(self.pull(m, bytes));
        }
        let host = self.ctx.host;
        let xor = self.math(host, math_bytes, false, &arrivals);
        let q_gen = legs
            .iter()
            .any(|&(_, gf)| gf)
            .then(|| self.math(host, math_bytes, true, &arrivals));
        for seg in io.segments.iter().copied() {
            if !live_only || self.healthy(seg.member) {
                self.push(seg.member, seg.len, xor);
            }
        }
        for &(pm, gf) in legs {
            let dep = if gf { q_gen.unwrap_or(xor) } else { xor };
            self.push(pm, parity_bytes, dep);
        }
    }
}
