//! The fault-management plane: automatic detect → declare → rebuild, plus a
//! declarative fault-injection schedule for chaos tests.
//!
//! The paper's operational story (§5.4, §6) ends with "the array rebuilds
//! onto a spare from the storage pool" — but the seed code left drawing the
//! spare and calling [`ArraySim::start_rebuild`] to the test author. The
//! [`FaultManagerConfig`]-enabled manager closes the loop: whenever the
//! health plane declares a member faulty, the manager picks the first
//! healthy drive in the cluster's shared pool and starts the reconstruction
//! itself, then re-arms for the next failure.
//!
//! The engine drains its event queue to completion, so the manager cannot
//! run on a self-rescheduling timer (the run would never terminate).
//! Instead it ticks from op completions — every finished stripe op, rebuild
//! chunk, and scrub check offers a tick — and rate-limits itself to the
//! configured period. Under any live workload that converges to "the
//! manager runs at most once per period"; with no I/O at all there is
//! nothing to manage (and nothing to rebuild from, either).
//!
//! [`FaultSchedule`] is the other half: a deterministic, declarative script
//! of fault injections ("at 2 ms, kill member 3's drive; at 5 ms, flap
//! member 1's link") that compiles onto the same engine. Chaos tests state
//! their scenario up front instead of interleaving injection calls with the
//! workload loop.

use std::collections::BTreeSet;

use draid_block::ServerId;
use draid_net::LinkDir;
use draid_sim::{Engine, SimTime};

use crate::array::ArraySim;

/// Configuration of the automatic fault manager.
#[derive(Clone, Copy, Debug)]
pub struct FaultManagerConfig {
    /// Minimum spacing between management sweeps (fail-slow checks, spare
    /// draws). Sweeps are driven by op completions, so the effective period
    /// is `max(period, inter-completion gap)`.
    pub period: SimTime,
    /// Extent of the used region a rebuild must cover, in stripes.
    pub rebuild_stripes: u64,
    /// Concurrent stripe reconstructions per rebuild.
    pub rebuild_concurrency: usize,
}

impl Default for FaultManagerConfig {
    fn default() -> Self {
        FaultManagerConfig {
            period: SimTime::from_millis(1),
            rebuild_stripes: 0,
            rebuild_concurrency: 4,
        }
    }
}

pub(crate) struct FaultManagerState {
    pub cfg: FaultManagerConfig,
    pub last_tick: SimTime,
    pub auto_rebuilds: u64,
}

impl ArraySim {
    /// Enables the automatic fault manager: from now on, declared-faulty
    /// members are rebuilt onto pool spares without operator intervention,
    /// and the fail-slow detector sweeps at the configured period.
    pub fn enable_fault_manager(&mut self, cfg: FaultManagerConfig) {
        assert!(
            cfg.rebuild_concurrency > 0,
            "rebuild concurrency must be positive"
        );
        self.fault_mgr = Some(FaultManagerState {
            cfg,
            last_tick: SimTime::ZERO,
            auto_rebuilds: 0,
        });
    }

    /// Rebuilds the manager has started on its own.
    pub fn fault_manager_rebuilds(&self) -> u64 {
        self.fault_mgr.as_ref().map_or(0, |f| f.auto_rebuilds)
    }

    /// One management sweep, offered on every op completion and rate-limited
    /// to the configured period.
    pub(crate) fn maybe_tick_fault_manager(&mut self, eng: &mut Engine<ArraySim>) {
        let now = eng.now();
        let Some(fm) = &mut self.fault_mgr else {
            return;
        };
        if now.saturating_sub(fm.last_tick) < fm.cfg.period {
            return;
        }
        fm.last_tick = now;
        let cfg = fm.cfg;

        // Fail-slow sweep: gray members get quarantined (visible via
        // `health()`); declaration stays with the error-evidence path, so a
        // merely slow member never triggers a rebuild by itself.
        let skip: BTreeSet<usize> = self.faulty.iter().copied().collect();
        self.health.check_fail_slow(now, &skip);

        // Declared failures: draw a spare from the pool and reconstruct.
        // One rebuild at a time (the rebuilder's own constraint); the next
        // faulty member is picked up by a later sweep once this one lands.
        if self.rebuild.is_some() || self.is_failed() || self.faulty.is_empty() {
            return;
        }
        let member = *self.faulty.iter().min().expect("non-empty faulty set");
        if let Some(spare) = self.find_spare(now) {
            self.start_rebuild(
                eng,
                member,
                spare,
                cfg.rebuild_stripes,
                cfg.rebuild_concurrency,
            );
            if let Some(fm) = &mut self.fault_mgr {
                fm.auto_rebuilds += 1;
            }
        }
    }

    /// The first drive in the shared pool that backs no member and is
    /// healthy right now (Table 1: "hot spare: storage pool").
    fn find_spare(&self, now: SimTime) -> Option<ServerId> {
        (0..self.cluster.width()).map(ServerId).find(|&s| {
            self.member_of(s).is_none()
                && self.cluster.drive(s).state(now) == draid_block::DriveState::Healthy
        })
    }

    /// Fails a member's drive *without* telling the array — the §5.4
    /// detection path (timeouts, errored retries, windowed evidence) has to
    /// discover and declare it, unlike [`ArraySim::fail_member`] which
    /// declares immediately.
    pub fn inject_drive_failure(&mut self, member: usize) {
        assert!(member < self.cfg.width, "member out of range");
        self.cluster
            .drive_mut(self.member_servers[member])
            .fail_permanently();
    }

    /// Makes a member's drive fail-slow: every drive op serves `factor ×`
    /// slower, with no errors. `1.0` restores full speed.
    pub fn inject_fail_slow(&mut self, member: usize, factor: f64) {
        assert!(member < self.cfg.width, "member out of range");
        self.cluster
            .drive_mut(self.member_servers[member])
            .set_fail_slow(factor);
    }

    pub(crate) fn apply_fault(&mut self, eng: &mut Engine<ArraySim>, action: FaultAction) {
        let now = eng.now();
        match action {
            FaultAction::FailDrive { member } => self.inject_drive_failure(member),
            FaultAction::Transient { member, duration } => {
                self.inject_transient(now, member, duration)
            }
            FaultAction::FailSlow { member, factor } => self.inject_fail_slow(member, factor),
            FaultAction::LinkDown { member, duration } => {
                let node = self.member_nodes[member];
                match duration {
                    Some(d) => self
                        .cluster
                        .fabric_mut()
                        .schedule_link_down(node, now, now + d),
                    None => self.cluster.fabric_mut().set_link_down(node),
                }
            }
            FaultAction::FlapLink {
                member,
                down_for,
                up_for,
                cycles,
            } => {
                let node = self.member_nodes[member];
                self.cluster
                    .fabric_mut()
                    .flap_link(node, now, down_for, up_for, cycles);
            }
            FaultAction::DegradeLink {
                member,
                dir,
                factor,
                duration,
            } => {
                let node = self.member_nodes[member];
                self.cluster
                    .fabric_mut()
                    .degrade_link(node, dir, factor, now, now + duration);
            }
            FaultAction::Corrupt {
                stripe,
                member,
                byte,
            } => {
                if let Some(store) = self.store.as_mut() {
                    store.corrupt_chunk(stripe, member, byte);
                }
            }
        }
    }
}

/// One injected fault (see the [`FaultSchedule`] builder methods).
#[derive(Clone, Copy, Debug)]
pub enum FaultAction {
    /// Drive fails permanently; the host must *discover* it (§5.4).
    FailDrive {
        /// Member whose drive dies.
        member: usize,
    },
    /// Drive errors out for a bounded window, then recovers.
    Transient {
        /// Member affected.
        member: usize,
        /// How long the drive errors.
        duration: SimTime,
    },
    /// Drive serves `factor ×` slower with no errors (gray failure).
    FailSlow {
        /// Member affected.
        member: usize,
        /// Slowdown multiple (`1.0` restores full speed).
        factor: f64,
    },
    /// Member's network link drops, forever or for a bounded window.
    LinkDown {
        /// Member whose target's link drops.
        member: usize,
        /// `None` = until manually restored.
        duration: Option<SimTime>,
    },
    /// Member's link flaps: down/up cycles starting at the event time.
    FlapLink {
        /// Member whose target's link flaps.
        member: usize,
        /// Down time per cycle.
        down_for: SimTime,
        /// Up time per cycle.
        up_for: SimTime,
        /// Number of down/up cycles.
        cycles: u32,
    },
    /// Member's link runs at a fraction of its rate for a window.
    DegradeLink {
        /// Member whose target's link degrades.
        member: usize,
        /// Which direction degrades.
        dir: LinkDir,
        /// Remaining fraction of the link rate, in `(0, 1]`.
        factor: f64,
        /// How long the degradation lasts.
        duration: SimTime,
    },
    /// Flips one stored byte of a chunk (silent latent corruption for the
    /// scrubber to find). No-op in timing mode.
    Corrupt {
        /// Stripe holding the chunk.
        stripe: u64,
        /// Member holding the chunk.
        member: usize,
        /// Byte offset within the chunk to flip.
        byte: usize,
    },
}

/// A declarative, deterministic script of fault injections.
///
/// Build the scenario up front with the chainable methods, then
/// [`install`](FaultSchedule::install) it on the engine before running the
/// workload:
///
/// ```
/// use draid_core::FaultSchedule;
/// use draid_sim::SimTime;
///
/// let schedule = FaultSchedule::new()
///     .fail_drive(SimTime::from_millis(2), 3)
///     .flap_link(
///         SimTime::from_millis(5),
///         1,
///         SimTime::from_micros(300),
///         SimTime::from_micros(700),
///         4,
///     );
/// assert_eq!(schedule.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<(SimTime, FaultAction)>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of scheduled injections.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a raw action at `at`.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.events.push((at, action));
        self
    }

    /// At `at`, member `member`'s drive dies (detection path).
    pub fn fail_drive(self, at: SimTime, member: usize) -> Self {
        self.at(at, FaultAction::FailDrive { member })
    }

    /// At `at`, member `member` errors for `duration`, then recovers.
    pub fn transient(self, at: SimTime, member: usize, duration: SimTime) -> Self {
        self.at(at, FaultAction::Transient { member, duration })
    }

    /// At `at`, member `member` starts serving `factor ×` slower.
    pub fn fail_slow(self, at: SimTime, member: usize, factor: f64) -> Self {
        self.at(at, FaultAction::FailSlow { member, factor })
    }

    /// At `at`, member `member` returns to full speed.
    pub fn restore_speed(self, at: SimTime, member: usize) -> Self {
        self.at(
            at,
            FaultAction::FailSlow {
                member,
                factor: 1.0,
            },
        )
    }

    /// At `at`, member `member`'s link drops for `duration` (or forever).
    pub fn link_down(self, at: SimTime, member: usize, duration: Option<SimTime>) -> Self {
        self.at(at, FaultAction::LinkDown { member, duration })
    }

    /// At `at`, member `member`'s link starts `cycles` down/up flaps.
    pub fn flap_link(
        self,
        at: SimTime,
        member: usize,
        down_for: SimTime,
        up_for: SimTime,
        cycles: u32,
    ) -> Self {
        self.at(
            at,
            FaultAction::FlapLink {
                member,
                down_for,
                up_for,
                cycles,
            },
        )
    }

    /// At `at`, member `member`'s link serves at `factor ×` its rate in
    /// direction `dir` for `duration`.
    pub fn degrade_link(
        self,
        at: SimTime,
        member: usize,
        dir: LinkDir,
        factor: f64,
        duration: SimTime,
    ) -> Self {
        self.at(
            at,
            FaultAction::DegradeLink {
                member,
                dir,
                factor,
                duration,
            },
        )
    }

    /// At `at`, one byte of `(stripe, member)`'s stored chunk flips.
    pub fn corrupt(self, at: SimTime, stripe: u64, member: usize, byte: usize) -> Self {
        self.at(
            at,
            FaultAction::Corrupt {
                stripe,
                member,
                byte,
            },
        )
    }

    /// Schedules every injection on the engine. Call before (or while)
    /// running the workload; the events fire at their simulated times.
    pub fn install(self, eng: &mut Engine<ArraySim>) {
        for (at, action) in self.events {
            eng.schedule_at(at, move |w: &mut ArraySim, eng| {
                w.apply_fault(eng, action);
            });
        }
    }
}
