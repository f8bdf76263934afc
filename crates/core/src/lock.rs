//! Per-stripe admission control.
//!
//! "RAID does not allow concurrent writes to the same stripe. The host-side
//! controller only admits one write I/O on a stripe at a time and keeps the
//! others in a queue" (§3). The baselines additionally lock stripes during
//! normal reads (the SPDK POC behaviour dRAID's lock-free read improves on,
//! §8/§9.2).

use std::collections::{BTreeMap, VecDeque};

use draid_sim::draid_invariant;

/// Opaque ticket naming a queued operation (the executor's op slot).
pub type Ticket = usize;

/// A table of per-stripe FIFO locks.
///
/// Stripe queues live in a `BTreeMap` so any iteration (diagnostics, the
/// [`LockTable::waiting`] gauge) observes stripes in a deterministic order —
/// hash-map iteration order feeding stats would be a reproducibility bug.
#[derive(Debug, Default)]
pub struct LockTable {
    stripes: BTreeMap<u64, VecDeque<Ticket>>,
    acquired: u64,
    queued: u64,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire the stripe lock for `ticket`. Returns `true` if
    /// the lock was granted immediately; otherwise the ticket is queued and
    /// will be returned by a future [`LockTable::release`].
    pub fn acquire(&mut self, stripe: u64, ticket: Ticket) -> bool {
        let q = self.stripes.entry(stripe).or_default();
        draid_invariant!(
            !q.contains(&ticket),
            "ticket {} acquired stripe {} twice without release",
            ticket,
            stripe
        );
        q.push_back(ticket);
        if q.len() == 1 {
            self.acquired += 1;
            true
        } else {
            self.queued += 1;
            false
        }
    }

    /// Releases the stripe lock held by `ticket` and returns the next queued
    /// ticket to admit, if any.
    ///
    /// # Panics
    ///
    /// Panics if `ticket` does not hold the stripe's lock — releasing out of
    /// order would corrupt write ordering.
    pub fn release(&mut self, stripe: u64, ticket: Ticket) -> Option<Ticket> {
        let q = self
            .stripes
            .get_mut(&stripe)
            .unwrap_or_else(|| panic!("release of unlocked stripe {stripe}"));
        assert_eq!(
            q.front().copied(),
            Some(ticket),
            "ticket {ticket} does not hold the lock on stripe {stripe}"
        );
        q.pop_front();
        let next = q.front().copied();
        if q.is_empty() {
            self.stripes.remove(&stripe);
        } else {
            self.acquired += 1;
        }
        next
    }

    /// Re-names the current holder of a stripe lock (a retried operation
    /// keeps the stripe locked so queued writers cannot interleave with the
    /// §5.4 full-stripe retry).
    ///
    /// # Panics
    ///
    /// Panics if `from` does not hold the stripe's lock.
    pub fn transfer(&mut self, stripe: u64, from: Ticket, to: Ticket) {
        let q = self
            .stripes
            .get_mut(&stripe)
            .unwrap_or_else(|| panic!("transfer on unlocked stripe {stripe}"));
        assert_eq!(
            q.front().copied(),
            Some(from),
            "ticket {from} does not hold the lock on stripe {stripe}"
        );
        *q.front_mut().expect("non-empty queue") = to;
    }

    /// Whether any ticket holds or awaits the stripe.
    pub fn is_locked(&self, stripe: u64) -> bool {
        self.stripes.contains_key(&stripe)
    }

    /// Number of tickets waiting (not holding) across all stripes.
    pub fn waiting(&self) -> usize {
        self.stripes
            .values()
            .map(|q| q.len().saturating_sub(1))
            .sum()
    }

    /// Total grants so far (immediate + after queueing).
    pub fn grants(&self) -> u64 {
        self.acquired
    }

    /// Total acquisitions that had to queue — the contention signal behind
    /// the locked systems' small-I/O penalty (Fig. 9).
    pub fn contended(&self) -> u64 {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_admission() {
        let mut t = LockTable::new();
        assert!(t.acquire(7, 1));
        assert!(!t.acquire(7, 2));
        assert!(!t.acquire(7, 3));
        assert!(t.is_locked(7));
        assert_eq!(t.waiting(), 2);
        assert_eq!(t.release(7, 1), Some(2));
        assert_eq!(t.release(7, 2), Some(3));
        assert_eq!(t.release(7, 3), None);
        assert!(!t.is_locked(7));
        assert_eq!(t.grants(), 3);
        assert_eq!(t.contended(), 2);
    }

    #[test]
    fn stripes_are_independent() {
        let mut t = LockTable::new();
        assert!(t.acquire(1, 10));
        assert!(t.acquire(2, 20));
        assert!(!t.acquire(1, 11));
        assert_eq!(t.release(2, 20), None);
        assert_eq!(t.release(1, 10), Some(11));
    }

    #[test]
    #[should_panic(expected = "does not hold the lock")]
    fn out_of_order_release_panics() {
        let mut t = LockTable::new();
        t.acquire(1, 10);
        t.acquire(1, 11);
        t.release(1, 11);
    }

    #[test]
    // The check is a `draid_invariant!`: it exists only where
    // `draid_sim::invariants_enabled()` holds, i.e. under debug assertions
    // or the `strict-invariants` feature.
    #[cfg_attr(
        not(any(debug_assertions, feature = "strict-invariants")),
        ignore = "invariants are compiled out of this build"
    )]
    #[should_panic(expected = "acquired stripe 1 twice")]
    fn duplicate_acquire_trips_invariant() {
        let mut t = LockTable::new();
        t.acquire(1, 10);
        t.acquire(1, 10);
    }
}
