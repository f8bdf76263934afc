//! The health monitor's thresholds follow the array's op deadline: the
//! error window is deadline/8 and fail-slow quarantine waits 2 × deadline.
//! Checked at two deadlines through the public API only.

use std::collections::BTreeSet;

use draid_core::{HealthMonitor, HealthState};
use draid_sim::SimTime;

const DEADLINES: [SimTime; 2] = [SimTime::from_millis(5), SimTime::from_millis(250)];

fn ns(n: u64) -> SimTime {
    SimTime::from_nanos(n)
}

#[test]
fn errors_inside_one_window_count_once() {
    for deadline in DEADLINES {
        let window = deadline.as_nanos() / 8;

        let mut h = HealthMonitor::new(4, deadline);
        h.record_error(0, SimTime::ZERO);
        h.record_error(0, ns(window - 1));
        assert_eq!(h.member(0).error_count(), 1, "deadline {deadline}");
        assert_eq!(h.state(0), HealthState::Transient);

        let mut h = HealthMonitor::new(4, deadline);
        h.record_error(0, SimTime::ZERO);
        h.record_error(0, ns(window));
        assert_eq!(h.member(0).error_count(), 2, "deadline {deadline}");
        assert_eq!(h.state(0), HealthState::Quarantined);
    }
}

#[test]
fn fail_slow_quarantine_waits_two_deadlines() {
    for deadline in DEADLINES {
        let mut h = HealthMonitor::new(5, deadline);
        let fast = SimTime::from_micros(100);
        let slow = SimTime::from_micros(300);
        for _ in 0..16 {
            for m in 0..5 {
                h.record_success(m, if m == 3 { slow } else { fast });
            }
        }
        let none = BTreeSet::new();
        let start = SimTime::from_millis(1);
        let grace = 2 * deadline.as_nanos();
        assert!(h.check_fail_slow(start, &none).is_empty());
        assert!(
            h.check_fail_slow(start + ns(grace - 1), &none).is_empty(),
            "deadline {deadline}: quarantined before 2 x deadline"
        );
        assert_eq!(h.state(3), HealthState::Healthy);
        assert_eq!(h.check_fail_slow(start + ns(grace), &none), vec![3]);
        assert_eq!(h.state(3), HealthState::Quarantined);
    }
}
