//! Background scrubbing (patrol read): periodically read every stripe and
//! verify its parity, catching latent corruption before a failure makes it
//! unrecoverable. Classic md/enterprise-array practice, built from the same
//! disaggregated machinery as §6 reconstruction: every member streams its
//! chunk to a reducer, which verifies the parity relation without the data
//! ever crossing the host NIC.

use draid_sim::Engine;

use crate::array::ArraySim;
use crate::builders;
use crate::exec::OpState;
use crate::io::IoKind;
use crate::layout::StripeIo;

/// Progress and findings of a scrub pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubStatus {
    /// Stripes checked so far.
    pub checked: u64,
    /// Total stripes in the pass.
    pub total: u64,
    /// Stripes whose stored parity did not match their data (data plane
    /// only; timing mode always verifies clean).
    pub mismatches: Vec<u64>,
}

pub(crate) struct ScrubState {
    pub next_stripe: u64,
    pub checked: u64,
    pub total: u64,
    pub inflight: usize,
    pub mismatches: Vec<u64>,
}

impl ArraySim {
    /// Starts a scrub pass over stripes `0..stripes` with the given
    /// concurrency. Runs alongside foreground I/O; findings are available
    /// from [`ArraySim::take_scrub_report`] when the pass drains.
    ///
    /// # Panics
    ///
    /// Panics if a scrub is already running, the array is failed, or
    /// `concurrency == 0`.
    pub fn start_scrub(&mut self, eng: &mut Engine<ArraySim>, stripes: u64, concurrency: usize) {
        assert!(self.scrub.is_none(), "a scrub is already in progress");
        assert!(!self.is_failed(), "cannot scrub a failed array");
        assert!(concurrency > 0, "scrub concurrency must be positive");
        self.scrub = Some(ScrubState {
            next_stripe: 0,
            checked: 0,
            total: stripes,
            inflight: 0,
            mismatches: Vec::new(),
        });
        if stripes == 0 {
            return;
        }
        for _ in 0..concurrency.min(stripes as usize) {
            self.pump_scrub(eng);
        }
    }

    /// Clears a completed scrub's findings; returns them.
    ///
    /// # Panics
    ///
    /// Panics if the scrub is still running.
    pub fn take_scrub_report(&mut self) -> Option<ScrubStatus> {
        if let Some(s) = &self.scrub {
            assert!(s.checked >= s.total, "scrub still running");
        }
        let s = self.scrub.take()?;
        Some(ScrubStatus {
            checked: s.checked,
            total: s.total,
            mismatches: s.mismatches,
        })
    }

    fn pump_scrub(&mut self, eng: &mut Engine<ArraySim>) {
        let Some(s) = &mut self.scrub else {
            return;
        };
        if s.next_stripe >= s.total {
            return;
        }
        let stripe = s.next_stripe;
        s.next_stripe += 1;
        s.inflight += 1;

        let dag = builders::build_scrub(&self.build_ctx(None), stripe);
        let gen = self.fresh_gen();
        let mut op = OpState::new(gen, 0, StripeIo::new(stripe, 0, Vec::new()), IoKind::Read);
        op.scrub = true;
        let idx = self.alloc_op(op);
        self.launch_prebuilt(eng, idx, dag);
    }

    /// Called by the executor when a scrub stripe op finishes.
    pub(crate) fn on_scrub_op_done(
        &mut self,
        eng: &mut Engine<ArraySim>,
        stripe: u64,
        failed: bool,
    ) {
        // Verify against the data plane (when present) at completion time.
        let clean = match &self.store {
            Some(store) => store.verify_stripe(stripe),
            None => true,
        };
        let Some(s) = &mut self.scrub else {
            return;
        };
        s.inflight -= 1;
        s.checked += 1;
        // Unreadable stripes count as findings too.
        let mismatch = failed || !clean;
        if mismatch {
            s.mismatches.push(stripe);
        }
        self.pump_scrub(eng);
        // md's `repair` sync action: a flagged stripe gets its parity
        // rewritten from the data immediately, so latent corruption never
        // survives until the next member failure makes it unrecoverable.
        if mismatch && !clean && !self.is_failed() {
            self.stats.scrub_repairs += 1;
            self.repair_stripe(eng, stripe);
        }
        self.maybe_tick_fault_manager(eng);
    }
}
