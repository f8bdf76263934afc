//! Hot-spare rebuild: background reconstruction of a faulty member onto a
//! spare drive drawn from the shared storage pool.
//!
//! Table 1 contrasts dRAID's "hot spare: storage pool" with the dedicated
//! spares of single-machine RAID; §6 supplies the mechanism (disaggregated
//! reconstruction with reducer selection). The rebuilder walks the stripes,
//! reconstructing the lost chunk of each at a reducer chosen by the
//! configured §6 policy and writing it to the spare — peer-to-peer, without
//! the data ever crossing the host NIC. A bounded number of stripes rebuilds
//! concurrently so foreground I/O keeps flowing (§6.2's "RAID array is kept
//! online during recovery").
//!
//! Writes that land on already-rebuilt stripes are stored to the spare
//! directly; writes to stripes not yet rebuilt stay parity-encoded and are
//! picked up when their stripe is reconstructed, so the array is consistent
//! at every instant and fully healthy when the rebuild completes. Stripes
//! finish out of order (several are in flight, and a failed one is retried
//! after a backoff), so progress is tracked per stripe, not as a watermark.

use std::collections::BTreeSet;

use draid_block::ServerId;
use draid_sim::{Engine, SimTime, TimerHandle};

use crate::array::ArraySim;
use crate::builders;
use crate::exec::OpState;
use crate::io::IoKind;
use crate::layout::{Segment, StripeIo};

/// Progress of an in-flight rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RebuildStatus {
    /// Member being rebuilt.
    pub member: usize,
    /// Spare server receiving the reconstructed chunks.
    pub spare: ServerId,
    /// Stripes fully rebuilt so far.
    pub rebuilt: u64,
    /// Total stripes to rebuild.
    pub total: u64,
    /// Concurrent stripe reconstructions configured.
    pub concurrency: usize,
    /// When the rebuild started.
    pub started: SimTime,
}

impl RebuildStatus {
    /// Completion fraction in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.rebuilt as f64 / self.total as f64
        }
    }
}

pub(crate) struct RebuildState {
    pub member: usize,
    pub spare: ServerId,
    /// The first stripe the cursor has not launched yet.
    pub next_stripe: u64,
    /// Stripes whose op failed, relaunched (lowest first) before the
    /// cursor moves on.
    pub retry: BTreeSet<u64>,
    /// Whether each stripe's chunk is on the spare.
    pub rebuilt: Vec<bool>,
    /// Number of `true` entries in `rebuilt`.
    pub completed: u64,
    pub total: u64,
    pub inflight: usize,
    pub concurrency: usize,
    pub started: SimTime,
    pub failures: u64,
    /// Backoff timers armed by failed stripe ops. Canceled when the rebuild
    /// finishes, is abandoned, or a host crash wipes it, so a stale pump
    /// can never bleed an extra concurrency slot into a later rebuild.
    /// Fired timers leave stale handles behind; canceling those is a no-op.
    pub backoff_timers: Vec<TimerHandle>,
}

impl ArraySim {
    /// Starts rebuilding faulty `member` onto `spare` (a server beyond the
    /// array width, i.e. a drive from the shared pool). `stripes` is the
    /// extent of the used region; `concurrency` bounds simultaneous stripe
    /// reconstructions.
    ///
    /// Completion is observable via [`ArraySim::rebuild_status`] /
    /// [`ArraySim::is_degraded`]; when the last stripe lands, the member is
    /// remapped to the spare and leaves the faulty set.
    ///
    /// # Panics
    ///
    /// Panics if `member` is not faulty, a rebuild is already running, the
    /// spare is one of the array's members, or `concurrency == 0`.
    pub fn start_rebuild(
        &mut self,
        eng: &mut Engine<ArraySim>,
        member: usize,
        spare: ServerId,
        stripes: u64,
        concurrency: usize,
    ) {
        assert!(
            self.faulty.contains(&member),
            "member {member} is not faulty"
        );
        assert!(self.rebuild.is_none(), "a rebuild is already in progress");
        assert!(
            !self.member_servers.contains(&spare),
            "spare {spare:?} already belongs to the array"
        );
        assert!(spare.0 < self.cluster.width(), "spare not in the cluster");
        assert!(concurrency > 0, "rebuild concurrency must be positive");
        self.health
            .set_state(member, crate::health::HealthState::Rebuilding);
        self.rebuild = Some(RebuildState {
            member,
            spare,
            next_stripe: 0,
            retry: BTreeSet::new(),
            rebuilt: vec![false; stripes as usize],
            completed: 0,
            total: stripes,
            inflight: 0,
            concurrency,
            started: eng.now(),
            failures: 0,
            backoff_timers: Vec::new(),
        });
        if stripes == 0 {
            self.finish_rebuild(eng);
            return;
        }
        for _ in 0..concurrency.min(stripes as usize) {
            self.pump_rebuild(eng);
        }
    }

    /// Progress of the running rebuild, if any.
    pub fn rebuild_status(&self) -> Option<RebuildStatus> {
        self.rebuild.as_ref().map(|r| RebuildStatus {
            member: r.member,
            spare: r.spare,
            rebuilt: r.completed,
            total: r.total,
            concurrency: r.concurrency,
            started: r.started,
        })
    }

    /// Whether `stripe`'s copy of the rebuilding member is already on the
    /// spare (writes to such a stripe go straight to the spare).
    pub(crate) fn stripe_rebuilt(&self, stripe: u64, member: usize) -> bool {
        match &self.rebuild {
            Some(r) => {
                r.member == member && r.rebuilt.get(stripe as usize).copied().unwrap_or(false)
            }
            None => false,
        }
    }

    /// Launches reconstruction of the next stripe — a failed one awaiting
    /// its retry first, else the cursor's — if any remain.
    pub(crate) fn pump_rebuild(&mut self, eng: &mut Engine<ArraySim>) {
        let Some(r) = &mut self.rebuild else {
            return;
        };
        let stripe = match r.retry.pop_first() {
            Some(s) => s,
            None if r.next_stripe < r.total => {
                r.next_stripe += 1;
                r.next_stripe - 1
            }
            None => return,
        };
        r.inflight += 1;
        let member = r.member;
        let spare = r.spare;

        let reducer = self.choose_reducer(eng.now(), stripe);
        self.selector.record_load(self.layout.chunk_size());
        let spare_node = self.cluster.server_node(spare);
        let dag = builders::build_rebuild(
            &self.build_ctx(Some(reducer)),
            stripe,
            member,
            spare,
            spare_node,
        );
        let io = StripeIo::new(
            stripe,
            0,
            vec![Segment {
                data_index: self.layout.data_index_of(stripe, member).unwrap_or(0),
                member,
                offset: 0,
                len: self.layout.chunk_size(),
            }],
        );
        let gen = self.fresh_gen();
        let mut op = OpState::new(gen, 0, io, IoKind::Read);
        op.rebuild_of = Some(member);
        let idx = self.alloc_op(op);
        self.launch_prebuilt(eng, idx, dag);
    }

    /// Called by the executor when a rebuild stripe op finishes.
    pub(crate) fn on_rebuild_op_done(
        &mut self,
        eng: &mut Engine<ArraySim>,
        member: usize,
        stripe: u64,
        failed: bool,
    ) {
        // Materialize the reconstructed chunk in the data plane.
        if !failed {
            if let Some(store) = &mut self.store {
                store.rebuild_chunk(stripe, member, &self.faulty);
            }
        }
        let Some(r) = &mut self.rebuild else {
            return;
        };
        debug_assert_eq!(r.member, member);
        r.inflight -= 1;
        if failed {
            r.failures += 1;
            if r.failures > r.total.max(8) * 3 {
                // The spare (or too many survivors) keeps erroring: abandon
                // the rebuild; the member stays faulty. Pending backoff
                // pumps die with it.
                let r = self.rebuild.take().expect("rebuild state present");
                for h in r.backoff_timers {
                    eng.cancel(h);
                }
                self.health
                    .set_state(member, crate::health::HealthState::Faulty);
                return;
            }
            // Queue the stripe for a retry and back off first, exactly like
            // a §5.4 foreground retry — re-pumping immediately would grind
            // through the whole failure budget within a short transient
            // (drive errors are instantaneous) and abandon a salvageable
            // rebuild.
            r.retry.insert(stripe);
            let attempt = r.failures.min(3) as u32;
            let backoff =
                crate::exec::retry_backoff(self.cfg.op_deadline, attempt, self.fresh_gen());
            let h = eng.schedule_timer_in(backoff, |w: &mut ArraySim, eng| {
                w.pump_rebuild(eng);
            });
            if let Some(r) = &mut self.rebuild {
                r.backoff_timers.push(h);
            }
        } else {
            debug_assert!(!r.rebuilt[stripe as usize], "stripe {stripe} rebuilt twice");
            r.rebuilt[stripe as usize] = true;
            r.completed += 1;
            if r.completed == r.total {
                self.finish_rebuild(eng);
            } else {
                self.pump_rebuild(eng);
            }
        }
        self.maybe_tick_fault_manager(eng);
    }

    /// Final swap: the spare becomes the member, the member leaves the
    /// faulty set, and the array returns to optimal state. Any backoff pump
    /// still armed (a failure raced the final completions) is canceled.
    fn finish_rebuild(&mut self, eng: &mut Engine<ArraySim>) {
        let r = self.rebuild.take().expect("rebuild state present");
        for h in &r.backoff_timers {
            eng.cancel(*h);
        }
        self.member_servers[r.member] = r.spare;
        self.member_nodes[r.member] = self.cluster.server_node(r.spare);
        // Cached plans bind the old drive and node.
        self.plans.clear();
        self.faulty.remove(&r.member);
        self.reset_member_errors(r.member);
    }
}
