//! Per-member health monitoring: the state machine behind the
//! fault-management plane.
//!
//! Each array member carries a [`MemberHealth`] record tracking an EWMA of
//! its observed drive-op latency and a windowed error count (the §5.4
//! prolonged-failure evidence). Two detectors feed the state machine:
//!
//! * **fail-stop** — drive/link errors that persist across several
//!   op-deadline windows escalate `Healthy → Transient → Quarantined →
//!   Faulty` (the classic §5.4 path; three windowed errors declare the
//!   member faulty).
//! * **fail-slow** — a member that answers without errors but whose latency
//!   EWMA sits persistently at 3× the array median is a gray member: it is
//!   moved to `Quarantined` so operators (and the
//!   [`FaultManager`](crate::FaultManagerConfig)) can see it, without
//!   tripping a rebuild for what may be a transient brown-out.
//!
//! A member under reconstruction is `Rebuilding`; completion resets it to
//! `Healthy` with fresh statistics (it is a different physical drive).

use std::collections::BTreeSet;

use draid_sim::SimTime;

/// Health state of one array member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Serving normally.
    Healthy,
    /// Recent errors; watching for recovery or escalation.
    Transient,
    /// Persistent errors or fail-slow latency; suspect but not yet declared.
    Quarantined,
    /// Declared failed (§5.4 prolonged failure); a rebuild is required.
    Faulty,
    /// Being reconstructed onto a spare.
    Rebuilding,
}

/// Windowed errors that declare a member faulty (§5.4).
const FAULT_THRESHOLD: u32 = 3;
/// EWMA smoothing factor for latency samples (weight of the newest).
const EWMA_ALPHA: f64 = 0.25;
/// A member is fail-slow when its EWMA is at least this multiple of the
/// array median.
const FAIL_SLOW_FACTOR: f64 = 3.0;
/// Minimum latency samples before a member's EWMA is judged.
const MIN_SAMPLES: u64 = 8;

/// Health record of one member.
#[derive(Clone, Debug)]
pub struct MemberHealth {
    state: HealthState,
    ewma_ns: f64,
    samples: u64,
    errors: u32,
    last_error: SimTime,
    slow_since: Option<SimTime>,
}

impl MemberHealth {
    fn new() -> Self {
        MemberHealth {
            state: HealthState::Healthy,
            ewma_ns: 0.0,
            samples: 0,
            errors: 0,
            last_error: SimTime::ZERO,
            slow_since: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Smoothed drive-op latency observed for this member.
    pub fn ewma_latency(&self) -> SimTime {
        SimTime::from_nanos(self.ewma_ns.round() as u64)
    }

    /// Windowed error count toward the §5.4 threshold.
    pub fn error_count(&self) -> u32 {
        self.errors
    }

    /// Latency samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// The array-wide monitor: one [`MemberHealth`] per member plus the
/// detectors that drive state transitions.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    /// Errors closer together than this count as one piece of evidence.
    error_window: SimTime,
    /// How long the latency excess must persist before quarantine.
    fail_slow_grace: SimTime,
    members: Vec<MemberHealth>,
}

impl HealthMonitor {
    /// A monitor for `width` members whose thresholds follow the op
    /// deadline: the error window is an eighth of the deadline (the
    /// first-retry backoff), and fail-slow must persist for two deadlines
    /// before a member is quarantined. Three windowed errors declare a
    /// member faulty (§5.4).
    pub fn new(width: usize, op_deadline: SimTime) -> Self {
        HealthMonitor {
            error_window: SimTime::from_nanos(op_deadline.as_nanos() / 8),
            fail_slow_grace: SimTime::from_nanos(2 * op_deadline.as_nanos()),
            members: vec![MemberHealth::new(); width],
        }
    }

    /// A member's record.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    pub fn member(&self, member: usize) -> &MemberHealth {
        &self.members[member]
    }

    /// A member's state (shorthand).
    pub fn state(&self, member: usize) -> HealthState {
        self.members[member].state
    }

    /// Records a successful drive op and its observed latency. Success is
    /// proof of life: windowed errors clear, and an error-quarantined member
    /// (no latency excess on record) returns to healthy.
    pub fn record_success(&mut self, member: usize, latency: SimTime) {
        let m = &mut self.members[member];
        let sample = latency.as_nanos() as f64;
        m.ewma_ns = if m.samples == 0 {
            sample
        } else {
            EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * m.ewma_ns
        };
        m.samples += 1;
        m.errors = 0;
        m.last_error = SimTime::ZERO;
        if m.state == HealthState::Transient
            || (m.state == HealthState::Quarantined && m.slow_since.is_none())
        {
            m.state = HealthState::Healthy;
        }
    }

    /// Records a drive/link error toward the §5.4 prolonged-failure
    /// detector. Errors within one window count once; escalation runs
    /// `Transient` (first evidence) → `Quarantined` (halfway to the
    /// threshold) → `Faulty` (threshold reached). Returns the state after
    /// the error; the caller declares the member on `Faulty`.
    pub fn record_error(&mut self, member: usize, now: SimTime) -> HealthState {
        let m = &mut self.members[member];
        if matches!(m.state, HealthState::Faulty | HealthState::Rebuilding) {
            return m.state;
        }
        if m.errors > 0 && now.saturating_sub(m.last_error) < self.error_window {
            return m.state;
        }
        m.errors += 1;
        m.last_error = now;
        m.state = if m.errors >= FAULT_THRESHOLD {
            HealthState::Faulty
        } else if m.errors >= FAULT_THRESHOLD.div_ceil(2) {
            HealthState::Quarantined
        } else {
            HealthState::Transient
        };
        m.state
    }

    /// Sweeps the fail-slow detector: any member whose latency EWMA has sat
    /// at 3× the array median for longer than the grace period is
    /// quarantined. Members in `skip` (faulty/rebuilding) are excluded from
    /// both the median and the verdicts. Returns the members newly
    /// quarantined by this sweep.
    pub fn check_fail_slow(&mut self, now: SimTime, skip: &BTreeSet<usize>) -> Vec<usize> {
        let mut ewmas: Vec<f64> = self
            .members
            .iter()
            .enumerate()
            .filter(|(i, m)| !skip.contains(i) && m.samples >= MIN_SAMPLES)
            .map(|(_, m)| m.ewma_ns)
            .collect();
        // A median needs a population to compare against.
        if ewmas.len() < 3 {
            return Vec::new();
        }
        ewmas.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let median = ewmas[ewmas.len() / 2];
        if median <= 0.0 {
            return Vec::new();
        }
        let mut newly = Vec::new();
        for (i, m) in self.members.iter_mut().enumerate() {
            if skip.contains(&i)
                || m.samples < MIN_SAMPLES
                || matches!(m.state, HealthState::Faulty | HealthState::Rebuilding)
            {
                continue;
            }
            if m.ewma_ns >= FAIL_SLOW_FACTOR * median {
                let since = *m.slow_since.get_or_insert(now);
                if now.saturating_sub(since) >= self.fail_slow_grace
                    && matches!(m.state, HealthState::Healthy | HealthState::Transient)
                {
                    m.state = HealthState::Quarantined;
                    newly.push(i);
                }
            } else {
                m.slow_since = None;
                if m.state == HealthState::Quarantined && m.errors == 0 {
                    m.state = HealthState::Healthy;
                }
            }
        }
        newly
    }

    /// Forces a member's state (declaration, rebuild start).
    pub fn set_state(&mut self, member: usize, state: HealthState) {
        self.members[member].state = state;
    }

    /// Resets a member to a fresh healthy record (the spare that replaced it
    /// is a different physical drive).
    pub fn reset(&mut self, member: usize) {
        self.members[member] = MemberHealth::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEADLINE: SimTime = SimTime::from_millis(8);

    #[test]
    fn errors_escalate_transient_quarantined_faulty() {
        let mut h = HealthMonitor::new(4, DEADLINE);
        let w = h.error_window;
        // Three errors a window apart walk the whole ladder (threshold 3:
        // quarantine at ceil(3/2) = 2).
        assert_eq!(h.record_error(1, SimTime::ZERO), HealthState::Transient);
        assert_eq!(h.record_error(1, w), HealthState::Quarantined);
        assert_eq!(
            h.record_error(1, SimTime::from_nanos(2 * w.as_nanos())),
            HealthState::Faulty
        );
    }

    #[test]
    fn burst_errors_count_once() {
        let mut h = HealthMonitor::new(4, DEADLINE);
        for _ in 0..10 {
            h.record_error(0, SimTime::from_micros(1));
        }
        assert_eq!(h.member(0).error_count(), 1);
        assert_eq!(h.state(0), HealthState::Transient);
    }

    #[test]
    fn success_resets_error_evidence() {
        let mut h = HealthMonitor::new(4, DEADLINE);
        let w = h.error_window;
        h.record_error(2, SimTime::ZERO);
        h.record_error(2, w);
        assert_eq!(h.state(2), HealthState::Quarantined);
        h.record_success(2, SimTime::from_micros(100));
        assert_eq!(h.state(2), HealthState::Healthy);
        assert_eq!(h.member(2).error_count(), 0);
    }

    #[test]
    fn fail_slow_needs_persistence_then_quarantines() {
        let mut h = HealthMonitor::new(5, DEADLINE);
        let fast = SimTime::from_micros(100);
        let slow = SimTime::from_micros(1500);
        for _ in 0..20 {
            for m in 0..5 {
                h.record_success(m, if m == 3 { slow } else { fast });
            }
        }
        let none = BTreeSet::new();
        // First sighting starts the clock but does not quarantine.
        assert!(h.check_fail_slow(SimTime::from_millis(1), &none).is_empty());
        assert_eq!(h.state(3), HealthState::Healthy);
        // Persisting past the grace period quarantines exactly the gray one.
        let later = SimTime::from_millis(1) + h.fail_slow_grace;
        assert_eq!(h.check_fail_slow(later, &none), vec![3]);
        assert_eq!(h.state(3), HealthState::Quarantined);
        // Recovery un-quarantines once the EWMA converges back down.
        for _ in 0..200 {
            h.record_success(3, fast);
        }
        assert!(h
            .check_fail_slow(later + SimTime::from_millis(1), &none)
            .is_empty());
        assert_eq!(h.state(3), HealthState::Healthy);
    }

    #[test]
    fn rebuild_reset_gives_fresh_record() {
        let mut h = HealthMonitor::new(3, DEADLINE);
        h.record_error(0, SimTime::ZERO);
        h.set_state(0, HealthState::Rebuilding);
        // Errors against a rebuilding member are ignored.
        assert_eq!(
            h.record_error(0, SimTime::from_secs(1)),
            HealthState::Rebuilding
        );
        h.reset(0);
        assert_eq!(h.state(0), HealthState::Healthy);
        assert_eq!(h.member(0).samples(), 0);
    }
}
