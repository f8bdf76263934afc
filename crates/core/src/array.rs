//! The simulated RAID array: world state, admission, completion, and member
//! health management.
//!
//! [`ArraySim`] is the discrete-event world. User I/Os are split into
//! per-stripe operations, admitted through the stripe lock table (§3), and
//! compiled to DAGs by the configured system's builder; the executor in
//! [`crate::exec`] runs the DAGs on the cluster's resources. Completions and
//! failures flow back here, driving retries (§5.4), member fault marking, and
//! user-visible results.

use std::collections::{BTreeSet, HashMap, VecDeque};

use draid_block::{Cluster, ServerId};
use draid_net::NodeId;
use draid_sim::{DetRng, Engine, SimTime};

use crate::config::{ArrayConfig, DataMode, ReducerPolicy, SystemKind};
use crate::datastore::ChunkStore;
use crate::exec::OpState;
use crate::health::{HealthMonitor, HealthState};
use crate::io::{IoError, IoId, IoKind, IoResult, UserIo};
use crate::layout::Layout;
use crate::lock::LockTable;
use crate::reducer::ReducerSelector;
use crate::stats::ArrayStats;

/// Callback invoked when a user I/O completes (drives closed-loop workloads).
pub type CompletionHook = Box<dyn FnOnce(&mut ArraySim, &mut Engine<ArraySim>, &IoResult)>;

pub(crate) struct UserState {
    pub io: UserIo,
    pub submitted: SimTime,
    pub pending: usize,
    pub degraded: bool,
    pub error: Option<IoError>,
    pub read_buf: Option<Vec<u8>>,
}

/// Window-based available-bandwidth probe feeding the §6.2 selector.
struct BwProbe {
    prev_busy: Vec<SimTime>,
    prev_time: SimTime,
    period: SimTime,
}

impl BwProbe {
    fn new(members: usize) -> Self {
        BwProbe {
            prev_busy: vec![SimTime::ZERO; members],
            prev_time: SimTime::ZERO,
            period: SimTime::from_millis(10),
        }
    }
}

/// The simulated RAID array over a [`Cluster`] — the world type of the
/// discrete-event engine.
pub struct ArraySim {
    /// The hardware substrate (public: experiments inspect resource
    /// counters and inject failures through it).
    pub cluster: Cluster,
    pub(crate) cfg: ArrayConfig,
    pub(crate) layout: Layout,
    pub(crate) member_nodes: Vec<NodeId>,
    pub(crate) member_servers: Vec<ServerId>,
    pub(crate) faulty: BTreeSet<usize>,
    pub(crate) health: HealthMonitor,
    pub(crate) locks: LockTable,
    pub(crate) ops: Vec<Option<OpState>>,
    /// Per op slot, the plan of its op, with the dependencies each step
    /// still waits for. Kept across the slot's ops so a launch allocates
    /// nothing.
    pub(crate) op_plans: Vec<crate::plan::Plan>,
    /// Compiled DAGs of this array's user ops (see [`crate::plan`]).
    pub(crate) plans: crate::plan::PlanCache,
    pub(crate) free_ops: Vec<usize>,
    pub(crate) next_gen: u64,
    pub(crate) users: HashMap<u64, UserState>,
    next_io: u64,
    pub(crate) store: Option<ChunkStore>,
    pub(crate) selector: ReducerSelector,
    bw_probe: BwProbe,
    pub(crate) rng: DetRng,
    /// Running user-level statistics.
    pub stats: ArrayStats,
    completions: VecDeque<IoResult>,
    pub(crate) hooks: HashMap<u64, CompletionHook>,
    pub(crate) rebuild: Option<crate::rebuild::RebuildState>,
    pub(crate) scrub: Option<crate::scrub::ScrubState>,
    pub(crate) tracer: Option<crate::trace::Tracer>,
    pub(crate) bitmap: crate::bitmap::WriteIntentBitmap,
    pub(crate) fault_mgr: Option<crate::fault::FaultManagerState>,
    /// Recycled scratch buffers for the op data plane (see
    /// [`crate::exec::BufPool`]).
    pub(crate) buf_pool: crate::exec::BufPool,
    /// Ops finished since the last sampled invariant audit (see
    /// [`ArraySim::audit_invariants`]).
    pub(crate) ops_since_audit: u64,
}

impl std::fmt::Debug for ArraySim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArraySim")
            .field("system", &self.cfg.system)
            .field("level", &self.cfg.level)
            .field("width", &self.cfg.width)
            .field("faulty", &self.faulty)
            .field("inflight_ops", &(self.ops.len() - self.free_ops.len()))
            .finish()
    }
}

impl ArraySim {
    /// Creates an array over the cluster.
    ///
    /// # Errors
    ///
    /// Returns a message if the configuration is inconsistent or the cluster
    /// has fewer servers than the stripe width.
    pub fn new(cluster: Cluster, cfg: ArrayConfig) -> Result<Self, String> {
        cfg.validate()?;
        if cluster.width() < cfg.width {
            return Err(format!(
                "cluster has {} servers but the array needs {}",
                cluster.width(),
                cfg.width
            ));
        }
        let layout = Layout::new(&cfg);
        let member_servers: Vec<ServerId> = (0..cfg.width).map(ServerId).collect();
        let member_nodes: Vec<NodeId> = member_servers
            .iter()
            .map(|&s| cluster.server_node(s))
            .collect();
        let store = (cfg.data_mode == DataMode::Full).then(|| ChunkStore::new(layout));
        Ok(ArraySim {
            cluster,
            layout,
            member_nodes,
            member_servers,
            faulty: BTreeSet::new(),
            health: HealthMonitor::new(cfg.width, cfg.op_deadline),
            locks: LockTable::new(),
            ops: Vec::new(),
            op_plans: Vec::new(),
            plans: crate::plan::PlanCache::default(),
            free_ops: Vec::new(),
            next_gen: 1,
            users: HashMap::new(),
            next_io: 1,
            store,
            selector: ReducerSelector::new(cfg.width),
            bw_probe: BwProbe::new(cfg.width),
            rng: DetRng::new(cfg.seed),
            stats: ArrayStats::new(),
            completions: VecDeque::new(),
            hooks: HashMap::new(),
            rebuild: None,
            scrub: None,
            tracer: None,
            bitmap: crate::bitmap::WriteIntentBitmap::new(),
            fault_mgr: None,
            buf_pool: crate::exec::BufPool::new(),
            ops_since_audit: 0,
            cfg,
        })
    }

    /// The array's configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// The stripe geometry.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Whether at least one member is faulty.
    pub fn is_degraded(&self) -> bool {
        !self.faulty.is_empty()
    }

    /// Whether more members failed than the level tolerates.
    pub fn is_failed(&self) -> bool {
        self.faulty.len() > self.cfg.level.parity_count()
    }

    /// Runs the runtime invariant checkers on demand: cluster-wide byte
    /// conservation on every NIC direction and drive channel. The executor
    /// also samples this automatically every 64 finished ops; call it at the
    /// end of a scenario for a final full audit. A no-op unless invariants
    /// are enabled (debug builds or the `strict-invariants` feature).
    ///
    /// # Panics
    ///
    /// Panics when a conservation ledger does not balance.
    pub fn audit_invariants(&self) {
        self.cluster.audit_conservation();
    }

    /// Currently faulty member indices.
    pub fn faulty_members(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.faulty.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// The chunk store, when running with a full data plane.
    pub fn store(&self) -> Option<&ChunkStore> {
        self.store.as_ref()
    }

    /// Mutable chunk-store access (fault injection in tests and examples).
    pub fn store_mut(&mut self) -> Option<&mut ChunkStore> {
        self.store.as_mut()
    }

    /// Submits a user I/O; the result is later available via
    /// [`ArraySim::drain_completions`].
    pub fn submit(&mut self, eng: &mut Engine<ArraySim>, io: UserIo) -> IoId {
        self.submit_with_hook(eng, io, None)
    }

    /// Submits a user I/O with a completion hook (closed-loop drivers).
    ///
    /// # Panics
    ///
    /// Panics if the I/O has zero length, or a full-data-mode write's payload
    /// length disagrees with `len`.
    pub fn submit_with_hook(
        &mut self,
        eng: &mut Engine<ArraySim>,
        io: UserIo,
        hook: Option<CompletionHook>,
    ) -> IoId {
        let id = self.next_io;
        self.next_io += 1;
        assert!(io.len > 0, "zero-length I/O");
        if let Some(data) = &io.data {
            assert_eq!(data.len() as u64, io.len, "payload length mismatch");
        }
        if let Some(h) = hook {
            self.hooks.insert(id, h);
        }

        if self.is_failed() {
            let user = UserState {
                submitted: eng.now(),
                pending: 0,
                degraded: false,
                error: Some(IoError::ArrayFailed),
                read_buf: None,
                io,
            };
            self.users.insert(id, user);
            eng.schedule_in(SimTime::ZERO, move |w: &mut ArraySim, eng| {
                w.complete_user(eng, id);
            });
            return IoId(id);
        }

        let stripe_ios = self.layout.map(io.offset, io.len);
        let needs_read_buf = io.kind == IoKind::Read && self.cfg.data_mode == DataMode::Full;
        let user = UserState {
            submitted: eng.now(),
            pending: stripe_ios.len(),
            degraded: false,
            error: None,
            read_buf: needs_read_buf.then(|| vec![0u8; io.len as usize]),
            io,
        };
        let kind = user.io.kind;
        self.users.insert(id, user);

        for sio in stripe_ios {
            let stripe = sio.stripe;
            if kind == IoKind::Write {
                // §5.4 host-failure recovery: record the write intent before
                // any remote I/O is issued.
                self.bitmap.mark(stripe);
            }
            let gen = self.fresh_gen();
            let idx = self.alloc_op(OpState::new(gen, id, sio, kind));
            let needs_lock = kind == IoKind::Write || self.reads_locked();
            if needs_lock {
                self.ops[idx].as_mut().expect("fresh op").holds_lock = true;
                if self.locks.acquire(stripe, idx) {
                    self.launch_op(eng, idx);
                }
                // else: launched when the holder releases.
            } else {
                self.launch_op(eng, idx);
            }
        }
        IoId(id)
    }

    /// Whether this configuration serializes reads through stripe locks.
    pub(crate) fn reads_locked(&self) -> bool {
        self.cfg.system != SystemKind::Draid || !self.cfg.draid.lockfree_read
    }

    /// Takes all completions produced so far.
    pub fn drain_completions(&mut self) -> Vec<IoResult> {
        self.completions.drain(..).collect()
    }

    /// Permanently fails a member: the drive errors out and the array enters
    /// degraded state immediately (the §9.4/§9.5 experiment setup).
    pub fn fail_member(&mut self, member: usize) {
        assert!(member < self.cfg.width, "member out of range");
        self.cluster
            .drive_mut(self.member_servers[member])
            .fail_permanently();
        self.mark_faulty(member);
    }

    /// Injects a transient failure (§5.4: network jitter / resets). The host
    /// discovers it through timeouts and retries; the member becomes faulty
    /// only if errors persist past the threshold.
    pub fn inject_transient(&mut self, now: SimTime, member: usize, duration: SimTime) {
        assert!(member < self.cfg.width, "member out of range");
        self.cluster
            .drive_mut(self.member_servers[member])
            .fail_transiently(now, duration);
    }

    pub(crate) fn mark_faulty(&mut self, member: usize) {
        if self.faulty.insert(member) {
            self.health.set_state(member, HealthState::Faulty);
            self.cluster
                .drive_mut(self.member_servers[member])
                .fail_permanently();
            if let Some(store) = &mut self.store {
                store.drop_member(member);
            }
        }
    }

    /// Per-member health: states, latency EWMAs, and error evidence.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// The member a server currently backs, if any (spares and already
    /// swapped-out drives back nobody).
    pub(crate) fn member_of(&self, server: ServerId) -> Option<usize> {
        self.member_servers.iter().position(|&s| s == server)
    }

    /// The member whose target currently sits at `node`, if any.
    pub(crate) fn member_of_node(&self, node: NodeId) -> Option<usize> {
        self.member_nodes.iter().position(|&n| n == node)
    }

    /// Records a drive error toward the §5.4 prolonged-failure detector.
    /// Errors within one op-deadline window count once (a single burst of
    /// failing retries is one piece of evidence, not many), and any
    /// successful drive I/O resets the count — so only failures that
    /// *persist* across several deadline windows fault the member. The
    /// evidence escalates through the [`HealthState`] ladder; reaching
    /// `Faulty` declares the member.
    pub(crate) fn note_member_error(&mut self, now: SimTime, member: usize) {
        if member >= self.cfg.width {
            return; // spare drives are outside the member health table
        }
        if self.health.record_error(member, now) == HealthState::Faulty {
            self.mark_faulty(member);
        }
    }

    /// A successful drive I/O proves the member is alive and feeds its
    /// latency EWMA (the fail-slow detector's signal).
    pub(crate) fn note_member_success(&mut self, member: usize, latency: SimTime) {
        if member < self.cfg.width {
            self.health.record_success(member, latency);
        }
    }

    pub(crate) fn reset_member_errors(&mut self, member: usize) {
        self.health.reset(member);
    }

    pub(crate) fn fresh_gen(&mut self) -> u64 {
        let g = self.next_gen;
        self.next_gen += 1;
        g
    }

    pub(crate) fn alloc_op(&mut self, op: OpState) -> usize {
        if let Some(idx) = self.free_ops.pop() {
            self.ops[idx] = Some(op);
            idx
        } else {
            self.ops.push(Some(op));
            self.op_plans.push(crate::plan::Plan::default());
            self.ops.len() - 1
        }
    }

    /// Chooses the reducer for a degraded read on `stripe` (§6): uniformly at
    /// random, or by the bandwidth-aware probabilities.
    pub(crate) fn choose_reducer(&mut self, now: SimTime, stripe: u64) -> usize {
        let mut eligible: Vec<usize> = (0..self.layout.data_chunks())
            .map(|k| self.layout.data_member(stripe, k))
            .chain(std::iter::once(self.layout.p_member(stripe)))
            .filter(|m| !self.faulty.contains(m))
            .collect();
        eligible.sort_unstable();
        assert!(!eligible.is_empty(), "no eligible reducer");
        match self.cfg.draid.reducer {
            ReducerPolicy::Random => eligible[self.rng.below(eligible.len() as u64) as usize],
            ReducerPolicy::BandwidthAware => {
                self.maybe_update_selector(now);
                self.selector.choose(&mut self.rng, &eligible)
            }
        }
    }

    fn maybe_update_selector(&mut self, now: SimTime) {
        let elapsed = now.saturating_sub(self.bw_probe.prev_time);
        if elapsed < self.bw_probe.period {
            return;
        }
        let mut available = Vec::with_capacity(self.cfg.width);
        for m in 0..self.cfg.width {
            let node = self.member_nodes[m];
            let busy = self.cluster.fabric().egress_busy(node);
            let delta = busy.saturating_sub(self.bw_probe.prev_busy[m]);
            let util = (delta.as_secs_f64() / elapsed.as_secs_f64()).min(1.0);
            let rate = self.cluster.fabric().node_rate(node).bytes_per_sec() as f64;
            available.push(rate * (1.0 - util));
            self.bw_probe.prev_busy[m] = busy;
        }
        self.bw_probe.prev_time = now;
        self.selector.update(now, &available);
    }

    /// Finishes bookkeeping for a completed user I/O and notifies hooks.
    pub(crate) fn complete_user(&mut self, eng: &mut Engine<ArraySim>, id: u64) {
        let user = self.users.remove(&id).expect("unknown user io");
        debug_assert_eq!(user.pending, 0);
        let now = eng.now();
        let latency = now.saturating_sub(user.submitted);
        if user.error.is_none() {
            match user.io.kind {
                IoKind::Read => {
                    self.stats.reads += 1;
                    self.stats.bytes_read += user.io.len;
                    self.stats.read_latency.record(latency);
                }
                IoKind::Write => {
                    self.stats.writes += 1;
                    self.stats.bytes_written += user.io.len;
                    self.stats.write_latency.record(latency);
                }
            }
            if user.degraded {
                self.stats.degraded_ios += 1;
            }
        } else {
            self.stats.failed_ios += 1;
        }
        let result = IoResult {
            id: IoId(id),
            kind: user.io.kind,
            offset: user.io.offset,
            len: user.io.len,
            submitted: user.submitted,
            completed: now,
            // O(1): `Bytes::from(Vec)` takes ownership of the gathered read
            // buffer without copying it, so completion delivery costs no
            // per-byte work regardless of I/O size.
            data: user.read_buf.map(bytes::Bytes::from),
            error: user.error,
        };
        if let Some(hook) = self.hooks.remove(&id) {
            hook(self, eng, &result);
        }
        self.completions.push_back(result);
    }

    /// The §5.4 write-intent bitmap (stripes whose writes are in flight).
    pub fn write_intent(&self) -> &crate::bitmap::WriteIntentBitmap {
        &self.bitmap
    }

    /// Simulates a host-controller crash and restart (§5.4 "host failures"):
    /// every in-flight operation and queued stripe lock is lost, outstanding
    /// user I/Os never complete (their issuer is gone), and the write-intent
    /// bitmap drives a parity resync of only the dirty stripes — no
    /// full-array scan. Returns the stripes being resynced.
    pub fn simulate_host_crash(&mut self, eng: &mut Engine<ArraySim>) -> Vec<u64> {
        // The crashed controller's state evaporates. Every armed deadline
        // and pending retry launch is canceled outright — a retry timer
        // firing on a recycled slot after the restart would double-launch
        // an unrelated op. Generation checks remain as the second line of
        // defense for in-flight step completions.
        for slot in &mut self.ops {
            if let Some(op) = slot.take() {
                if let Some(h) = op.deadline_timer {
                    eng.cancel(h);
                }
                if let Some(h) = op.launch_timer {
                    eng.cancel(h);
                }
            }
        }
        self.free_ops = (0..self.ops.len()).rev().collect();
        self.users.clear();
        self.hooks.clear();
        self.locks = LockTable::new();
        if let Some(r) = self.rebuild.take() {
            for h in r.backoff_timers {
                eng.cancel(h);
            }
        }
        self.scrub = None;

        let dirty = self.bitmap.dirty_stripes();
        for &stripe in &dirty {
            self.resync_stripe(eng, stripe);
        }
        dirty
    }

    /// Rewrites one stripe's parity from its data (md's `repair` sync
    /// action) — the follow-up to a scrub finding. Read-modify-write would
    /// *preserve* a corrupted parity chunk (it only applies deltas), so
    /// repair must re-encode from scratch, which is exactly the resync op.
    pub fn repair_stripe(&mut self, eng: &mut Engine<ArraySim>, stripe: u64) {
        self.resync_stripe(eng, stripe);
    }

    /// Launches a parity resync of one stripe: a reconstruct-write with no
    /// new data — every surviving data chunk is read and the parity
    /// rewritten from scratch, guaranteeing consistency regardless of where
    /// the crashed write stopped.
    fn resync_stripe(&mut self, eng: &mut Engine<ArraySim>, stripe: u64) {
        let io = crate::layout::StripeIo::new(stripe, 0, Vec::new());
        let gen = self.fresh_gen();
        let mut op = OpState::new(gen, 0, io, IoKind::Write);
        op.force_rcw = true;
        op.holds_lock = true;
        let idx = self.alloc_op(op);
        if self.locks.acquire(stripe, idx) {
            self.launch_op(eng, idx);
        }
    }

    /// Enables step-level tracing with a bounded buffer; see
    /// [`crate::trace::Tracer`].
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Some(crate::trace::Tracer::new(capacity));
    }

    /// The trace captured so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&crate::trace::Tracer> {
        self.tracer.as_ref()
    }

    /// Stops tracing and returns the captured trace.
    pub fn take_trace(&mut self) -> Option<crate::trace::Tracer> {
        self.tracer.take()
    }

    /// Resets measurement counters (stats + cluster resources) at the end of
    /// a warm-up phase. `now` marks the measurement-window start: resource
    /// work straddling the boundary keeps only its in-window share.
    pub fn reset_measurement(&mut self, now: SimTime) {
        self.stats.reset();
        self.cluster.reset_counters(now);
    }

    /// Runs the measured window every experiment uses, FIO's `ramp_time`
    /// then `runtime` (§9.1): runs to `warmup`, drains completions, resets
    /// measurement and calls `on_reset` once; then runs `measure` in
    /// `slices` equal steps ending at `warmup + measure * i / slices`,
    /// draining completions and calling `on_slice(array, t)` after each.
    /// Slicing only bounds completion memory and sets sampling points: the
    /// slice count never changes a result.
    ///
    /// # Panics
    ///
    /// Panics if `slices` is zero.
    pub fn run_window(
        &mut self,
        eng: &mut Engine<ArraySim>,
        warmup: SimTime,
        measure: SimTime,
        slices: u64,
        on_reset: impl FnOnce(&mut ArraySim),
        mut on_slice: impl FnMut(&mut ArraySim, SimTime),
    ) {
        assert!(slices > 0, "a measured window needs at least one slice");
        eng.run_until(self, warmup);
        self.completions.clear();
        self.reset_measurement(warmup);
        on_reset(self);
        for i in 1..=slices {
            let t = warmup + SimTime::from_nanos(measure.as_nanos() * i / slices);
            eng.run_until(self, t);
            self.completions.clear();
            on_slice(self, t);
        }
    }

    /// One past the highest user-I/O id issued so far (diagnostics).
    pub fn issued_ios(&self) -> u64 {
        self.next_io - 1
    }

    /// Number of stripe operations currently in flight.
    pub fn inflight_ops(&self) -> usize {
        self.ops.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    const IO: u64 = 16 * 1024;

    fn array() -> ArraySim {
        let cfg = ArrayConfig::paper_default(SystemKind::Draid);
        ArraySim::new(Cluster::homogeneous(cfg.width), cfg).expect("valid")
    }

    /// A closed loop of mixed 16 KiB reads and partial-stripe writes: each
    /// completion submits the next I/O, at an offset scrambled from its id.
    fn closed_loop(array: &mut ArraySim, eng: &mut Engine<ArraySim>) {
        let n = array.issued_ios();
        let offset = (n.wrapping_mul(0x9E37_79B9) % 4096) * IO;
        let io = if n.is_multiple_of(3) {
            UserIo::read(offset, IO)
        } else {
            UserIo::write(offset, IO)
        };
        array.submit_with_hook(eng, io, Some(Box::new(|a, e, _| closed_loop(a, e))));
    }

    /// Everything a report reads after a window, bit for bit.
    fn fingerprint(array: &ArraySim, end: SimTime) -> String {
        let cluster = &array.cluster;
        let host = cluster.host_node();
        let mut out = format!(
            "{:?} tx={} rx={} host_cpu={:#x}",
            array.stats,
            cluster.fabric().bytes_sent(host),
            cluster.fabric().bytes_received(host),
            cluster.cpu(host).utilization(end).to_bits()
        );
        for m in 0..array.config().width {
            let node = cluster.server_node(ServerId(m));
            out += &format!(
                " m{m}: cpu={:#x} drive={:#x}",
                cluster.cpu(node).utilization(end).to_bits(),
                cluster.drive(ServerId(m)).utilization(end).to_bits()
            );
        }
        out
    }

    #[test]
    fn slice_count_never_changes_a_result() {
        // A window length that neither 8 nor 200 divides evenly.
        let warmup = SimTime::from_millis(2);
        let measure = SimTime::from_nanos(10_000_007);

        // The state a plain run to `warmup` reaches, for the reset check.
        let mut reference = array();
        let mut eng = Engine::new();
        for _ in 0..16 {
            closed_loop(&mut reference, &mut eng);
        }
        eng.run_until(&mut reference, warmup);
        let issued_at_warmup = reference.issued_ios();

        let run = |slices: u64| {
            let mut array = array();
            let mut eng = Engine::new();
            for _ in 0..16 {
                closed_loop(&mut array, &mut eng);
            }
            let resets = Cell::new(0);
            let mut seen = Vec::new();
            array.run_window(
                &mut eng,
                warmup,
                measure,
                slices,
                |array| {
                    resets.set(resets.get() + 1);
                    assert_eq!(array.issued_ios(), issued_at_warmup);
                    assert_eq!(array.stats.total_ops(), 0);
                },
                |_, t| {
                    assert_eq!(resets.get(), 1, "on_reset runs before every slice");
                    seen.push(t);
                },
            );
            assert_eq!(resets.get(), 1);
            assert_eq!(seen.len() as u64, slices);
            assert!(seen.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(seen.last(), Some(&(warmup + measure)));
            assert!(array.stats.writes > 100 && array.stats.reads > 50);
            fingerprint(&array, warmup + measure)
        };
        let one = run(1);
        assert_eq!(one, run(8));
        assert_eq!(one, run(200));
    }
}
