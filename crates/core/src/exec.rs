//! The DAG executor: runs stripe-operation DAGs on the cluster's resources,
//! with per-op deadlines, failure propagation, and full-stripe retry (§5.4).

use draid_sim::{Engine, SimTime, TimerHandle};

use crate::array::ArraySim;
use crate::builders::{self, BuildCtx, Purpose};
use crate::dag::{Dag, StepKind};
use crate::io::{IoError, IoKind};
use crate::layout::{StripeIo, WriteMode};

/// Retries of one stripe op before its user I/O fails with
/// [`IoError::RetriesExhausted`].
const MAX_RETRIES: u32 = 4;

/// `OpState::unmet` marker of a completed step.
const STEP_DONE: u32 = u32::MAX;

/// Why a stripe operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpFailure {
    /// A member drive refused the I/O (transient or permanent).
    MemberError(usize),
    /// The explicit per-op deadline expired.
    Timeout,
}

/// One in-flight stripe operation.
pub(crate) struct OpState {
    /// Generation tag: events carry `(idx, gen)` and are ignored if the slot
    /// was recycled.
    pub gen: u64,
    pub user: u64,
    pub io: StripeIo,
    pub kind: IoKind,
    /// Decided at launch; `None` until then.
    pub purpose: Option<Purpose>,
    pub dag: Dag,
    /// Dependents as compressed sparse rows: step `i`'s dependents are
    /// `dependents[dep_off[i]..dep_off[i + 1]]`, in ascending step order.
    dep_off: Vec<u32>,
    dependents: Vec<u32>,
    /// Dependencies each step still waits for; [`STEP_DONE`] once it has
    /// completed.
    unmet: Vec<u32>,
    remaining: usize,
    pub holds_lock: bool,
    pub retries: u32,
    /// Set when this op is a background rebuild of the given member.
    pub rebuild_of: Option<usize>,
    /// Forces reconstruct-write mode (parity resync ops, §5.4).
    pub force_rcw: bool,
    /// Set when this op is a background scrub check.
    pub scrub: bool,
    /// The armed §5.4 deadline timer; canceled when the op finishes so dead
    /// timers stop occupying the event queue.
    pub deadline_timer: Option<TimerHandle>,
    /// The pending retry-backoff timer that will (re)launch this op. Held so
    /// a host crash can cancel the launch outright instead of relying on the
    /// fired closure to notice the slot was recycled.
    pub launch_timer: Option<TimerHandle>,
}

/// A tiny free-list of byte buffers backing the op data plane: the
/// apply-effect scratch space (gathered read bytes, zero payloads for
/// internal parity ops) is recycled across stripe operations instead of
/// allocated and freed once per op.
///
/// Public so the `draid-check` concurrency harness can stress its
/// take/return discipline directly.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
}

impl BufPool {
    /// Buffers kept across ops; excess returns are simply dropped.
    const MAX_POOLED: usize = 8;

    /// Creates an empty pool.
    pub fn new() -> Self {
        BufPool::default()
    }

    /// Number of buffers currently pooled (diagnostic/test aid).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Takes an empty (length 0) buffer, reusing pooled capacity when
    /// available.
    pub fn take(&mut self) -> Vec<u8> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Takes a zero-filled buffer of length `len`, reusing pooled capacity.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<u8> {
        let mut buf = self.take();
        buf.resize(len, 0);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < Self::MAX_POOLED && buf.capacity() > 0 {
            self.free.push(buf);
        }
    }
}

impl OpState {
    pub fn new(gen: u64, user: u64, io: StripeIo, kind: IoKind) -> Self {
        OpState {
            gen,
            user,
            io,
            kind,
            purpose: None,
            dag: Dag::new(),
            dep_off: Vec::new(),
            dependents: Vec::new(),
            unmet: Vec::new(),
            remaining: 0,
            holds_lock: false,
            retries: 0,
            rebuild_of: None,
            force_rcw: false,
            scrub: false,
            deadline_timer: None,
            launch_timer: None,
        }
    }

    fn install_dag(&mut self, dag: Dag) {
        let n = dag.len();
        // Step ids and per-step dependency counts are below `n`, so the
        // `as u32` casts below are lossless.
        assert!(u32::try_from(n).is_ok(), "{n} DAG steps overflow u32 ids");
        // Counting pass: step `d`'s dependent count lands in `dep_off[d + 2]`,
        // so after the prefix sum `dep_off[d + 1]` is where `d`'s run starts.
        // Filling advances that cursor to the run's end, which leaves
        // `dep_off[d]..dep_off[d + 1]` as `d`'s run and one spare entry.
        let mut dep_off = vec![0u32; n + 2];
        let mut unmet = Vec::with_capacity(n);
        for (_, step) in dag.iter() {
            unmet.push(step.deps.len() as u32);
            for &d in step.deps {
                dep_off[d + 2] += 1;
            }
        }
        for i in 2..n + 2 {
            dep_off[i] += dep_off[i - 1];
        }
        let mut dependents = vec![0u32; dep_off[n + 1] as usize];
        for (id, step) in dag.iter() {
            for &d in step.deps {
                let cursor = &mut dep_off[d + 1];
                dependents[*cursor as usize] = id as u32;
                *cursor += 1;
            }
        }
        dep_off.pop();
        self.dag = dag;
        self.dep_off = dep_off;
        self.dependents = dependents;
        self.unmet = unmet;
        self.remaining = n;
    }
}

impl ArraySim {
    /// Admits an op: decides the purpose from current array health, builds
    /// the system DAG, arms the deadline, and starts the root steps.
    pub(crate) fn launch_op(&mut self, eng: &mut Engine<ArraySim>, idx: usize) {
        let now = eng.now();
        if self.is_failed() {
            self.finish_op(eng, idx, Some(OpFailure::MemberError(0)), true);
            return;
        }
        let (io, kind, retries, force_rcw) = {
            let op = self.ops[idx].as_ref().expect("launch of missing op");
            // Cheap: the segment list is an `Arc<[Segment]>`, so this clone
            // is a reference-count bump, not an extent copy.
            (op.io.clone(), op.kind, op.retries, op.force_rcw)
        };
        let stripe = io.stripe;
        let stripe_degraded = self.stripe_degraded(stripe);
        let purpose = match kind {
            IoKind::Read => Purpose::Read {
                degraded: io.segments.iter().any(|s| self.faulty.contains(&s.member)),
            },
            IoKind::Write => {
                // §5.4: retries always run in the reconstruct-write ("full
                // stripe") mode to guarantee a consistent parity rewrite.
                let mode = if retries > 0 || force_rcw {
                    WriteMode::ReconstructWrite
                } else {
                    self.layout.write_mode(&io)
                };
                Purpose::Write {
                    mode,
                    degraded: stripe_degraded,
                }
            }
        };
        let reducer = match purpose {
            Purpose::Read { degraded: true } => {
                let r = self.choose_reducer(now, stripe);
                let lost: u64 = io
                    .segments
                    .iter()
                    .filter(|s| self.faulty.contains(&s.member))
                    .map(|s| s.len)
                    .sum();
                self.selector.record_load(lost);
                Some(r)
            }
            _ => None,
        };
        let dag = builders::build(&self.build_ctx(reducer), purpose, &io);
        {
            let op = self.ops[idx].as_mut().expect("op vanished");
            op.purpose = Some(purpose);
        }
        self.launch_prebuilt(eng, idx, dag);
    }

    /// The builders' view of the array as it stands now, with `reducer`
    /// chosen for a degraded read or a rebuild.
    pub(crate) fn build_ctx(&self, reducer: Option<usize>) -> BuildCtx<'_> {
        BuildCtx {
            cfg: &self.cfg,
            layout: &self.layout,
            host: self.cluster.host_node(),
            nodes: &self.member_nodes,
            servers: &self.member_servers,
            faulty: &self.faulty,
            reducer,
        }
    }

    /// Installs an already-built DAG on the op, arms the §5.4 deadline, and
    /// starts its root steps. User ops, rebuild stripes and scrub stripes
    /// all launch here, each with a DAG from [`crate::builders`].
    pub(crate) fn launch_prebuilt(&mut self, eng: &mut Engine<ArraySim>, idx: usize, dag: Dag) {
        let gen = {
            let op = self.ops[idx].as_mut().expect("op vanished");
            op.install_dag(dag);
            op.gen
        };
        // Arm the explicit timeout (§5.4) as a cancelable timer: the op
        // cancels it on completion instead of leaving a tombstone closure to
        // fire as a generation-checked no-op.
        let deadline = eng.schedule_timer_in(self.cfg.op_deadline, move |w: &mut ArraySim, eng| {
            w.on_timeout(eng, idx, gen);
        });
        self.ops[idx].as_mut().expect("op vanished").deadline_timer = Some(deadline);
        // Start every dependency-free step, in step order.
        let n = self.ops[idx].as_ref().expect("op vanished").dag.len();
        if n == 0 {
            self.finish_op(eng, idx, None, false);
            return;
        }
        for sid in 0..n {
            let op = self.ops[idx].as_ref().expect("op vanished");
            if !op.dag.step(sid).deps.is_empty() {
                continue;
            }
            self.start_step(eng, idx, sid);
            if !self.op_live(idx, gen) {
                return; // op failed and was reaped (slot may be recycled)
            }
        }
    }

    /// Whether slot `idx` still holds the op generation `gen` (a failed op's
    /// slot can be recycled by a retry or a newly admitted op mid-loop).
    fn op_live(&self, idx: usize, gen: u64) -> bool {
        matches!(&self.ops[idx], Some(op) if op.gen == gen)
    }

    fn stripe_degraded(&self, stripe: u64) -> bool {
        if self.faulty.is_empty() {
            return false;
        }
        let p = self.layout.p_member(stripe);
        if self.faulty.contains(&p) {
            return true;
        }
        if let Some(q) = self.layout.q_member(stripe) {
            if self.faulty.contains(&q) {
                return true;
            }
        }
        (0..self.layout.data_chunks())
            .any(|k| self.faulty.contains(&self.layout.data_member(stripe, k)))
    }

    fn start_step(&mut self, eng: &mut Engine<ArraySim>, idx: usize, sid: usize) {
        let now = eng.now();
        let (kind, gen) = {
            let op = self.ops[idx].as_ref().expect("step of missing op");
            (op.dag.step(sid).kind, op.gen)
        };
        // Each arm yields (service start, completion): `now..start` is the
        // step's resource queueing, `start..end` its service time.
        let (started, end) = match kind {
            StepKind::Transfer { from, to, bytes } => {
                match self.cluster.try_transfer(now, from, to, bytes) {
                    Ok(svc) => (svc.start, svc.end),
                    Err(e) => {
                        // A dead link surfaces like a member error when the
                        // lost endpoint is an array member's target; losing
                        // the host's own link blames nobody — the op simply
                        // fails and retries (§5.4 treats both as network
                        // faults discovered by the initiator).
                        let why = match self.member_of_node(e.node) {
                            Some(m) => OpFailure::MemberError(m),
                            None => OpFailure::Timeout,
                        };
                        self.op_failed(eng, idx, why);
                        return;
                    }
                }
            }
            StepKind::DriveRead { server, bytes } => {
                match self.cluster.drive_read(now, server, bytes) {
                    Ok(svc) => {
                        if let Some(m) = self.member_of(server) {
                            self.note_member_success(m, svc.latency_from(now));
                        }
                        (svc.start, svc.end)
                    }
                    Err(_) => {
                        let m = self.member_of(server).unwrap_or(usize::MAX);
                        self.op_failed(eng, idx, OpFailure::MemberError(m));
                        return;
                    }
                }
            }
            StepKind::DriveWrite { server, bytes } => {
                match self.cluster.drive_write(now, server, bytes) {
                    Ok(svc) => {
                        if let Some(m) = self.member_of(server) {
                            self.note_member_success(m, svc.latency_from(now));
                        }
                        (svc.start, svc.end)
                    }
                    Err(_) => {
                        let m = self.member_of(server).unwrap_or(usize::MAX);
                        self.op_failed(eng, idx, OpFailure::MemberError(m));
                        return;
                    }
                }
            }
            StepKind::Xor { node, bytes } => {
                let svc = self.cluster.cpu_mut(node).xor(now, bytes);
                (svc.start, svc.end)
            }
            StepKind::GfMul { node, bytes } => {
                let svc = self.cluster.cpu_mut(node).gf_mul(now, bytes);
                (svc.start, svc.end)
            }
            StepKind::PerIo { node } => {
                let svc = self.cluster.cpu_mut(node).per_io(now);
                (svc.start, svc.end)
            }
            StepKind::CoreBusy { node, duration } => {
                let svc = self.cluster.cpu_mut(node).busy_for(now, duration);
                (svc.start, svc.end)
            }
            StepKind::Delay { duration } => (now, now + duration),
            StepKind::Join => (now, now),
        };
        if let Some(tracer) = &mut self.tracer {
            let user = self.ops[idx].as_ref().map(|o| o.user).unwrap_or(0);
            tracer.record(crate::trace::TraceEvent {
                user,
                op: idx,
                step: sid,
                kind,
                issued: now,
                started,
                completed: end,
            });
        }
        eng.schedule_at(end, move |w: &mut ArraySim, eng| {
            w.on_step_done(eng, idx, gen, sid);
        });
    }

    fn on_step_done(&mut self, eng: &mut Engine<ArraySim>, idx: usize, gen: u64, sid: usize) {
        let (first, end, finished) = {
            let Some(op) = self.ops[idx].as_mut() else {
                return; // op already finished/retried
            };
            if op.gen != gen || op.unmet[sid] == STEP_DONE {
                return;
            }
            op.unmet[sid] = STEP_DONE;
            op.remaining -= 1;
            let (first, end) = (op.dep_off[sid] as usize, op.dep_off[sid + 1] as usize);
            (first, end, op.remaining == 0)
        };
        if finished {
            debug_assert_eq!(first, end, "the last step has no dependents");
            self.finish_op(eng, idx, None, false);
            return;
        }
        // Start each dependent whose last dependency this was, in step order.
        for k in first..end {
            let op = self.ops[idx].as_mut().expect("live op");
            let dep = op.dependents[k] as usize;
            op.unmet[dep] -= 1;
            if op.unmet[dep] != 0 {
                continue;
            }
            self.start_step(eng, idx, dep);
            if !self.op_live(idx, gen) {
                return;
            }
        }
    }

    /// Fires when a retry's backoff elapses: launches the waiting op. The
    /// generation check guards against the slot having been recycled (the
    /// timer is canceled on host crash, so in practice this only races
    /// hypothetical future reapers).
    fn on_retry_launch(&mut self, eng: &mut Engine<ArraySim>, idx: usize, gen: u64) {
        let Some(op) = self.ops[idx].as_mut() else {
            return;
        };
        if op.gen != gen {
            return;
        }
        op.launch_timer = None;
        self.launch_op(eng, idx);
    }

    fn on_timeout(&mut self, eng: &mut Engine<ArraySim>, idx: usize, gen: u64) {
        let expired = matches!(&self.ops[idx], Some(op) if op.gen == gen && op.remaining > 0);
        if expired {
            self.stats.timeouts += 1;
            self.op_failed(eng, idx, OpFailure::Timeout);
        }
    }

    fn op_failed(&mut self, eng: &mut Engine<ArraySim>, idx: usize, why: OpFailure) {
        if let OpFailure::MemberError(member) = why {
            self.note_member_error(eng.now(), member);
        }
        self.finish_op(eng, idx, Some(why), false);
    }

    /// Tears down an op: releases/transfers the stripe lock, applies the data
    /// plane effect on success, and drives retry or user completion.
    fn finish_op(
        &mut self,
        eng: &mut Engine<ArraySim>,
        idx: usize,
        failure: Option<OpFailure>,
        no_retry: bool,
    ) {
        let op = self.ops[idx].take().expect("finish of missing op");
        self.free_ops.push(idx);
        // Disarm the §5.4 deadline: the op reached a final state, so the
        // timer must not linger in the queue. (A no-op if the timer itself
        // expired and brought us here.)
        if let Some(h) = op.deadline_timer {
            eng.cancel(h);
        }

        if let Some(member) = op.rebuild_of {
            self.on_rebuild_op_done(eng, member, op.io.stripe, failure.is_some());
            return;
        }
        if op.scrub {
            self.on_scrub_op_done(eng, op.io.stripe, failure.is_some());
            return;
        }

        let retry = failure.is_some() && !no_retry && op.retries < MAX_RETRIES && !self.is_failed();
        if retry {
            self.stats.retries += 1;
            let gen = self.fresh_gen();
            let stripe = op.io.stripe;
            let holds_lock = op.holds_lock;
            // The finished op is owned here; its stripe I/O moves into the
            // retry op instead of being cloned.
            let mut next = OpState::new(gen, op.user, op.io, op.kind);
            next.retries = op.retries + 1;
            next.holds_lock = holds_lock;
            next.force_rcw = op.force_rcw;
            let new_idx = self.alloc_op(next);
            if holds_lock {
                self.locks.transfer(stripe, idx, new_idx);
            }
            // Back off before retrying so short transients clear (§5.4: the
            // host retries only after the op reaches a final state). The
            // jitter keeps ops that failed together from retrying together.
            let backoff = retry_backoff(self.cfg.op_deadline, op.retries, gen);
            let launch = eng.schedule_timer_in(backoff, move |w: &mut ArraySim, eng| {
                w.on_retry_launch(eng, new_idx, gen);
            });
            self.ops[new_idx]
                .as_mut()
                .expect("fresh retry op")
                .launch_timer = Some(launch);
            return;
        }

        if op.holds_lock {
            if let Some(next) = self.locks.release(op.io.stripe, idx) {
                self.launch_op(eng, next);
            }
        }
        if op.kind == IoKind::Write && failure.is_none() && !self.locks.is_locked(op.io.stripe) {
            // No writer holds or awaits the stripe: parity is persisted and
            // consistent; the write intent can be cleared (§5.4).
            self.bitmap.clear(op.io.stripe);
        }

        // An op that physically completed after the array lost more members
        // than the level tolerates has no consistent place to land — surface
        // the array failure rather than acknowledging a lost write.
        let array_failed = self.is_failed();
        if failure.is_none() && !array_failed {
            self.apply_effect(&op);
        }

        let user_id = op.user;
        let failure_error = if array_failed {
            IoError::ArrayFailed
        } else {
            IoError::RetriesExhausted
        };
        if let Some(user) = self.users.get_mut(&user_id) {
            if failure.is_some() || array_failed {
                user.error = Some(failure_error);
            }
            if matches!(
                op.purpose,
                Some(Purpose::Read { degraded: true })
                    | Some(Purpose::Write { degraded: true, .. })
            ) {
                user.degraded = true;
            }
            user.pending -= 1;
            if user.pending == 0 {
                self.complete_user(eng, user_id);
            }
        }

        // Sampled invariant audit: every 64th finished op re-checks
        // cluster-wide byte conservation. No-op unless invariants are on.
        self.ops_since_audit += 1;
        if draid_sim::invariants_enabled() && self.ops_since_audit.is_multiple_of(64) {
            self.cluster.audit_conservation();
        }

        // Op completions are the fault-management plane's clock: the engine
        // drains its queue, so a self-rescheduling tick would never let a
        // run terminate. Rate limiting lives inside the tick.
        self.maybe_tick_fault_manager(eng);
    }

    /// Applies the operation's semantic effect to the chunk store (full data
    /// mode only): writes store data + parity, reads gather (possibly
    /// reconstructed) bytes into the user buffer.
    fn apply_effect(&mut self, op: &OpState) {
        if self.store.is_none() {
            return;
        }
        // A member whose stripe is already rebuilt onto the spare stores
        // writes directly (the member index now maps to the spare drive).
        let effective_faulty: std::collections::BTreeSet<usize> = self
            .faulty
            .iter()
            .copied()
            .filter(|&m| !self.stripe_rebuilt(op.io.stripe, m))
            .collect();
        let Some(store) = &mut self.store else {
            return;
        };
        if self.faulty.len() > self.cfg.level.parity_count() {
            return; // array failed; nothing consistent to apply
        }
        // Internal ops (parity resync) have no user record; their writes
        // carry no payload and only refresh parity.
        match op.purpose {
            Some(Purpose::Write { mode, .. }) => {
                // The payload handle is `Arc`-backed `Bytes`: cloning it
                // shares the user's buffer, and `Bytes::slice` carves an
                // O(1) sub-view of this stripe's portion — the op path
                // copies no payload bytes.
                let payload = self.users.get(&op.user).and_then(|u| u.io.data.clone());
                match payload {
                    Some(data) => {
                        let lo = op.io.buf_offset as usize;
                        let hi = lo + op.io.bytes() as usize;
                        let sub = data.slice(lo..hi);
                        store.apply_write(&op.io, &sub, mode, &effective_faulty);
                    }
                    None => {
                        let zeros = self.buf_pool.take_zeroed(op.io.bytes() as usize);
                        store.apply_write(&op.io, &zeros, mode, &effective_faulty);
                        self.buf_pool.put(zeros);
                    }
                }
            }
            Some(Purpose::Read { .. }) => {
                let mut scratch = self.buf_pool.take();
                store.read_into(&mut scratch, &op.io, &self.faulty);
                let user = self.users.get_mut(&op.user);
                if let Some(buf) = user.and_then(|u| u.read_buf.as_mut()) {
                    let lo = op.io.buf_offset as usize;
                    buf[lo..lo + scratch.len()].copy_from_slice(&scratch);
                }
                self.buf_pool.put(scratch);
            }
            None => {}
        }

        // Sampled post-write parity re-verification: every 8th stripe write
        // on a stripe with no effectively-lost member is immediately checked
        // against its freshly stored parity. (A stripe with a lost member is
        // skipped: its dropped chunks read back as zeros by design, and only
        // parity encodes the data.) No-op unless invariants are on.
        if draid_sim::invariants_enabled()
            && effective_faulty.is_empty()
            && matches!(op.purpose, Some(Purpose::Write { .. }))
            && op.io.stripe.is_multiple_of(8)
        {
            if let Some(store) = &self.store {
                draid_sim::draid_invariant!(
                    store.verify_stripe(op.io.stripe),
                    "post-write parity mismatch on stripe {}",
                    op.io.stripe
                );
            }
        }
    }
}

/// The §5.4 retry backoff: a capped exponential ladder — `deadline/8`,
/// `/4`, `/2`, then one full deadline — with deterministic additive jitter
/// of up to 25%, derived from the retry op's generation, so ops that failed
/// in the same instant (one dead link kills a whole burst) don't hammer the
/// recovering resource in lockstep on every subsequent attempt. Jitter only
/// ever *lengthens* the wait: retrying earlier than the ladder would squeeze
/// extra failed attempts into a short transient and push an innocent member
/// over the fault threshold.
pub(crate) fn retry_backoff(deadline: SimTime, retries: u32, gen: u64) -> SimTime {
    let base = (deadline.as_nanos() / 8)
        .saturating_mul(1 << retries.min(3))
        .min(deadline.as_nanos());
    // splitmix64: full-avalanche mix of the generation into [1.0, 1.25).
    let mut z = gen.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 + 0.25 * unit;
    SimTime::from_nanos((base as f64 * factor).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::{retry_backoff, OpState};
    use crate::dag::{Dag, StepKind};
    use crate::io::IoKind;
    use crate::layout::StripeIo;
    use draid_sim::SimTime;

    #[test]
    fn installed_dependents_invert_the_deps_in_step_order() {
        // 0 -> {1, 2, 4}, 1 -> 3, 2 -> 3, {0, 3} -> 4; step 5 is a second
        // root with no dependents.
        let mut dag = Dag::new();
        dag.add(StepKind::Join, &[]);
        dag.add(StepKind::Join, &[0]);
        dag.add(StepKind::Join, &[0]);
        dag.add(StepKind::Join, &[2, 1]);
        dag.add(StepKind::Join, &[3, 0]);
        dag.add(StepKind::Join, &[]);
        let mut op = OpState::new(1, 0, StripeIo::new(0, 0, Vec::new()), IoKind::Read);
        op.install_dag(dag);
        let dependents =
            |i: usize| &op.dependents[op.dep_off[i] as usize..op.dep_off[i + 1] as usize];
        assert_eq!(op.dep_off.len(), 7);
        assert_eq!(dependents(0), [1, 2, 4]);
        assert_eq!(dependents(1), [3]);
        assert_eq!(dependents(2), [3]);
        assert_eq!(dependents(3), [4]);
        assert!(dependents(4).is_empty());
        assert!(dependents(5).is_empty());
        assert_eq!(op.unmet, [0, 1, 1, 2, 2, 0]);
        assert_eq!(op.remaining, 6);
    }

    const DEADLINE: SimTime = SimTime::from_millis(250);

    #[test]
    fn backoff_follows_capped_ladder_within_jitter() {
        for (retries, expect_ns) in [
            (0u32, DEADLINE.as_nanos() / 8),
            (1, DEADLINE.as_nanos() / 4),
            (2, DEADLINE.as_nanos() / 2),
            (3, DEADLINE.as_nanos()),
            // The ladder is capped: further retries keep the full deadline.
            (7, DEADLINE.as_nanos()),
        ] {
            for gen in 1..50u64 {
                let b = retry_backoff(DEADLINE, retries, gen).as_nanos() as f64;
                let base = expect_ns as f64;
                assert!(
                    (base..1.25 * base).contains(&b),
                    "retries {retries} gen {gen}: {b} outside jitter of {base}"
                );
            }
        }
    }

    #[test]
    fn colliding_ops_desynchronize() {
        // Two ops failing at the same instant with the same retry count get
        // distinct backoffs (their retry generations differ), and the spread
        // is wide enough to matter — at least 1% of the base delay.
        let a = retry_backoff(DEADLINE, 1, 101);
        let b = retry_backoff(DEADLINE, 1, 102);
        assert_ne!(a, b);
        let gap = a.as_nanos().abs_diff(b.as_nanos());
        assert!(
            gap * 100 > DEADLINE.as_nanos() / 4,
            "jitter gap {gap}ns too small to desynchronize"
        );
    }

    #[test]
    fn backoff_is_deterministic() {
        assert_eq!(retry_backoff(DEADLINE, 2, 7), retry_backoff(DEADLINE, 2, 7));
    }
}
