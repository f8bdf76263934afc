//! The fabric: nodes, their NICs, transfers.

use draid_sim::{RateResource, Service, SimTime};

use crate::NicSpec;

/// Identifies a node (server) in the fabric.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub usize);

/// Direction of traffic through a NIC, from the NIC owner's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkDir {
    /// Traffic leaving the node.
    Egress,
    /// Traffic arriving at the node.
    Ingress,
}

/// Error returned by [`Fabric::try_transfer`] when an endpoint's link is
/// down: the transfer never happens and the sender sees a failed verb, which
/// upper layers surface through their timeout/retry path (§5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkError {
    /// The node whose link refused the transfer.
    pub node: NodeId,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "link down at node {}", self.node.0)
    }
}

impl std::error::Error for LinkError {}

/// Fault state of one NIC direction: hard-down intervals (administrative or
/// scheduled flap windows) and degraded-rate windows (congestion, a flaky
/// transceiver, a mis-negotiated link speed).
#[derive(Debug, Default)]
struct LinkState {
    /// Administratively down until further notice.
    admin_down: bool,
    /// Scheduled outage windows `[from, until)` — link-flap injection.
    down_windows: Vec<(SimTime, SimTime)>,
    /// Degraded-rate windows `[from, until, factor)`: the NIC serves at
    /// `rate * factor` while the window is active.
    degraded: Vec<(SimTime, SimTime, f64)>,
}

impl LinkState {
    fn is_down(&self, now: SimTime) -> bool {
        self.admin_down
            || self
                .down_windows
                .iter()
                .any(|&(from, until)| now >= from && now < until)
    }

    /// The smallest active degradation factor (degradations stack by taking
    /// the worst), or 1.0 when the link is at full speed.
    fn rate_factor(&self, now: SimTime) -> f64 {
        self.degraded
            .iter()
            .filter(|&&(from, until, _)| now >= from && now < until)
            .map(|&(_, _, f)| f)
            .fold(1.0, f64::min)
    }
}

/// Byte-conservation ledger for one NIC direction: every byte presented to
/// the direction is either served by its rate resource or dropped by a fault,
/// so `offered == served + dropped` at all times (the `draid_invariant!`
/// checked by [`Fabric::audit_conservation`]).
#[derive(Debug, Default)]
struct DirLedger {
    offered: u64,
    dropped: u64,
}

#[derive(Debug)]
struct Nic {
    name: String,
    spec: NicSpec,
    egress: RateResource,
    ingress: RateResource,
    egress_link: LinkState,
    ingress_link: LinkState,
    egress_ledger: DirLedger,
    ingress_ledger: DirLedger,
}

impl Nic {
    fn ledger(&self, dir: LinkDir) -> &DirLedger {
        match dir {
            LinkDir::Egress => &self.egress_ledger,
            LinkDir::Ingress => &self.ingress_ledger,
        }
    }
}

/// The simulated datacenter network: one NIC per node, indexed by
/// [`NodeId`]. See the crate docs for the model.
#[derive(Debug, Default)]
pub struct Fabric {
    nics: Vec<Nic>,
}

impl Fabric {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given NIC and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, spec: NicSpec) -> NodeId {
        self.nics.push(Nic {
            name: name.into(),
            spec,
            egress: RateResource::new(spec.rate),
            ingress: RateResource::new(spec.rate),
            egress_link: LinkState::default(),
            ingress_link: LinkState::default(),
            egress_ledger: DirLedger::default(),
            ingress_ledger: DirLedger::default(),
        });
        NodeId(self.nics.len() - 1)
    }

    /// A node's human-readable name.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nics[node.0].name
    }

    /// Sends `bytes` from `from` to `to`. Returns the delivery window:
    /// `start` is when the first byte left the sender, `end` is when the last
    /// byte arrived at the receiver (the moment a completion event should
    /// fire). Fails fast when the sender's egress link or the receiver's
    /// ingress link is down, and serves at the degraded rate while a
    /// degradation window is active.
    ///
    /// The model pipelines egress and ingress: the receiver starts taking the
    /// stream one propagation delay after the sender starts emitting, and
    /// each direction independently serializes at its own NIC rate, so the
    /// slower direction and any queueing on either side gate completion.
    ///
    /// # Errors
    ///
    /// [`LinkError`] naming the endpoint whose link refused the transfer.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (loopback does not cross the fabric) or either
    /// id is out of range.
    pub fn try_transfer(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Result<Service, LinkError> {
        assert_ne!(from, to, "loopback transfers are not modelled");
        // Conservation ledger: the sender's egress direction is offered the
        // payload the moment the verb is posted; a refused transfer drops the
        // whole payload on that ledger (nothing ever reaches a rate server).
        self.nics[from.0].egress_ledger.offered += bytes;
        if self.nics[from.0].egress_link.is_down(now) {
            self.nics[from.0].egress_ledger.dropped += bytes;
            return Err(LinkError { node: from });
        }
        if self.nics[to.0].ingress_link.is_down(now) {
            self.nics[from.0].egress_ledger.dropped += bytes;
            return Err(LinkError { node: to });
        }
        let src = &mut self.nics[from.0];
        let eg_spec = src.spec;
        let eg_rate = eg_spec.rate.scaled(src.egress_link.rate_factor(now));
        let eg = src
            .egress
            .serve_with_setup(now, bytes, eg_spec.per_message, eg_rate);
        let arrive = eg.start + eg_spec.per_message + eg_spec.propagation;
        let dst = &mut self.nics[to.0];
        let in_rate = dst.spec.rate.scaled(dst.ingress_link.rate_factor(arrive));
        dst.ingress_ledger.offered += bytes.max(1);
        let ing = dst.ingress.serve_at_rate(arrive, bytes.max(1), in_rate);
        Ok(Service {
            start: eg.start,
            end: ing.end.max(eg.end),
        })
    }

    /// Takes a node's link administratively down, both directions:
    /// transfers touching it fail until [`Fabric::set_link_up`].
    pub fn set_link_down(&mut self, node: NodeId) {
        self.for_each_link(node, |l| l.admin_down = true);
    }

    /// Restores a node's link after [`Fabric::set_link_down`]. Scheduled
    /// flap windows are unaffected.
    pub fn set_link_up(&mut self, node: NodeId) {
        self.for_each_link(node, |l| l.admin_down = false);
    }

    /// Whether a node's link refuses traffic in `dir` at `now`.
    pub fn link_down(&self, node: NodeId, dir: LinkDir, now: SimTime) -> bool {
        let nic = &self.nics[node.0];
        match dir {
            LinkDir::Egress => nic.egress_link.is_down(now),
            LinkDir::Ingress => nic.ingress_link.is_down(now),
        }
    }

    /// Schedules an outage window `[from, until)` on a node's link, both
    /// directions — the building block of link-flap injection.
    pub fn schedule_link_down(&mut self, node: NodeId, from: SimTime, until: SimTime) {
        self.for_each_link(node, |l| l.down_windows.push((from, until)));
    }

    /// Schedules `cycles` down/up flaps on a node's link: down for
    /// `down_for` starting at `start`, up for `up_for`, repeating.
    pub fn flap_link(
        &mut self,
        node: NodeId,
        start: SimTime,
        down_for: SimTime,
        up_for: SimTime,
        cycles: u32,
    ) {
        let mut t = start;
        for _ in 0..cycles {
            self.schedule_link_down(node, t, t + down_for);
            t = t + down_for + up_for;
        }
    }

    /// Degrades one direction of a node's link to `factor` of nominal rate
    /// during `[from, until)` — gray-failure injection (fail-slow NIC,
    /// congested uplink, mis-negotiated speed). Overlapping windows take the
    /// worst factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    pub fn degrade_link(
        &mut self,
        node: NodeId,
        dir: LinkDir,
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        let nic = &mut self.nics[node.0];
        let link = match dir {
            LinkDir::Egress => &mut nic.egress_link,
            LinkDir::Ingress => &mut nic.ingress_link,
        };
        link.degraded.push((from, until, factor));
    }

    fn for_each_link(&mut self, node: NodeId, mut f: impl FnMut(&mut LinkState)) {
        let nic = &mut self.nics[node.0];
        f(&mut nic.egress_link);
        f(&mut nic.ingress_link);
    }

    /// Total bytes a node has sent.
    pub fn bytes_sent(&self, node: NodeId) -> u64 {
        self.nics[node.0].egress.bytes_served()
    }

    /// Total bytes a node has received.
    pub fn bytes_received(&self, node: NodeId) -> u64 {
        self.nics[node.0].ingress.bytes_served()
    }

    /// NIC goodput available to a node, per direction.
    pub fn node_rate(&self, node: NodeId) -> draid_sim::ByteRate {
        self.nics[node.0].spec.rate
    }

    /// Cumulative egress busy time of a node's NIC; sampling this over a
    /// window yields the utilization estimate the bandwidth-aware reducer
    /// selection feeds on (§6.2).
    pub fn egress_busy(&self, node: NodeId) -> SimTime {
        self.nics[node.0].egress.busy_time()
    }

    /// Elapsed busy time of a node's NIC by `at`, per direction — clamped to
    /// the sample instant (service scheduled beyond `at` is excluded), so
    /// utilization derived from successive samples never exceeds 1.0. This is
    /// what the observability timeline samples; [`Fabric::egress_busy`] keeps
    /// reporting charged demand for the §6.2 reducer selection.
    pub fn busy_elapsed(&self, node: NodeId, dir: LinkDir, at: SimTime) -> SimTime {
        let nic = &self.nics[node.0];
        match dir {
            LinkDir::Egress => nic.egress.busy_elapsed(at),
            LinkDir::Ingress => nic.ingress.busy_elapsed(at),
        }
    }

    /// Bytes a node's link dropped by refusing transfers (fault injection),
    /// per direction. With `LinkDir::Egress` this counts refusals blamed on
    /// either endpoint: the payload never left the sender, so it lands on the
    /// sender's egress ledger.
    pub fn bytes_dropped(&self, node: NodeId, dir: LinkDir) -> u64 {
        self.nics[node.0].ledger(dir).dropped
    }

    /// Bytes offered to a node's link (served + dropped), per direction.
    pub fn bytes_offered(&self, node: NodeId, dir: LinkDir) -> u64 {
        self.nics[node.0].ledger(dir).offered
    }

    /// Checks the byte-conservation invariant on every NIC direction:
    /// `offered == served + dropped`. A no-op unless invariants are enabled
    /// (debug builds or the `strict-invariants` feature).
    ///
    /// # Panics
    ///
    /// Panics when a ledger does not balance — that means a code path served
    /// or refused traffic without keeping the ledger, a determinism and
    /// accounting bug.
    pub fn audit_conservation(&self) {
        for (i, nic) in self.nics.iter().enumerate() {
            draid_sim::draid_invariant!(
                nic.egress_ledger.offered == nic.egress.bytes_served() + nic.egress_ledger.dropped,
                "NIC {} egress conservation: offered={} served={} dropped={}",
                i,
                nic.egress_ledger.offered,
                nic.egress.bytes_served(),
                nic.egress_ledger.dropped
            );
            draid_sim::draid_invariant!(
                nic.ingress_ledger.offered
                    == nic.ingress.bytes_served() + nic.ingress_ledger.dropped,
                "NIC {} ingress conservation: offered={} served={} dropped={}",
                i,
                nic.ingress_ledger.offered,
                nic.ingress.bytes_served(),
                nic.ingress_ledger.dropped
            );
        }
    }

    /// Resets every NIC's traffic counters at measurement-window start `now`
    /// (between warm-up and measurement). A transfer straddling the boundary
    /// keeps its in-window prorated share (see
    /// [`RateResource::reset_counters`]); the direction ledgers are re-seeded
    /// from the post-reset served bytes so `offered == served + dropped`
    /// keeps holding across the boundary.
    pub fn reset_counters(&mut self, now: SimTime) {
        for nic in &mut self.nics {
            nic.egress.reset_counters(now);
            nic.ingress.reset_counters(now);
            nic.egress_ledger = DirLedger {
                offered: nic.egress.bytes_served(),
                dropped: 0,
            };
            nic.ingress_ledger = DirLedger {
                offered: nic.ingress.bytes_served(),
                dropped: 0,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(0);
    const Z: NodeId = NodeId(1);

    fn two_node_fabric(rate_gbps: f64) -> Fabric {
        let mut f = Fabric::new();
        f.add_node("a", NicSpec::with_goodput_gbps(rate_gbps));
        f.add_node("z", NicSpec::with_goodput_gbps(rate_gbps));
        f
    }

    fn send(f: &mut Fabric, now: SimTime, from: NodeId, to: NodeId, bytes: u64) -> Service {
        f.try_transfer(now, from, to, bytes).expect("links are up")
    }

    #[test]
    fn uncontended_transfer_latency() {
        let mut f = two_node_fabric(8.0); // 1 GB/s
                                          // 1 MB -> 1 ms: per_message (0.5us) + propagation (2us) +
                                          // serialization (1ms).
        let svc = send(&mut f, SimTime::ZERO, A, Z, 1_000_000);
        assert_eq!(svc.end, SimTime::from_nanos(1_000_000 + 2_500));
    }

    #[test]
    fn egress_is_the_shared_bottleneck() {
        let mut f = Fabric::new();
        let host = f.add_node("host", NicSpec::with_goodput_gbps(8.0));
        let t1 = f.add_node("t1", NicSpec::with_goodput_gbps(8.0));
        let t2 = f.add_node("t2", NicSpec::with_goodput_gbps(8.0));
        let s1 = send(&mut f, SimTime::ZERO, host, t1, 1_000_000);
        let s2 = send(&mut f, SimTime::ZERO, host, t2, 1_000_000);
        // Second transfer queues behind the first on the host egress.
        assert!(s2.start >= s1.start + SimTime::from_millis(1));
        assert!(s2.end >= SimTime::from_millis(2));
    }

    #[test]
    fn ingress_contention_gates_completion() {
        let mut f = Fabric::new();
        let t1 = f.add_node("t1", NicSpec::with_goodput_gbps(8.0));
        let t2 = f.add_node("t2", NicSpec::with_goodput_gbps(8.0));
        let sink = f.add_node("sink", NicSpec::with_goodput_gbps(8.0));
        let s1 = send(&mut f, SimTime::ZERO, t1, sink, 1_000_000);
        let s2 = send(&mut f, SimTime::ZERO, t2, sink, 1_000_000);
        // Both leave their senders immediately but serialize into the sink.
        assert_eq!(s1.start, SimTime::ZERO);
        assert_eq!(s2.start, SimTime::ZERO);
        assert!(s2.end.saturating_sub(s1.end) >= SimTime::from_millis(1));
    }

    #[test]
    fn slow_receiver_gates_fast_sender() {
        let mut f = Fabric::new();
        let fast = f.add_node("fast", NicSpec::with_goodput_gbps(80.0));
        let slow = f.add_node("slow", NicSpec::with_goodput_gbps(8.0));
        let svc = send(&mut f, SimTime::ZERO, fast, slow, 1_000_000);
        // Dominated by the 1 GB/s receiving side.
        assert!(svc.end >= SimTime::from_millis(1));
        assert!(svc.end < SimTime::from_nanos(1_100_000));
    }

    #[test]
    fn traffic_accounting() {
        let mut f = two_node_fabric(92.0);
        send(&mut f, SimTime::ZERO, A, Z, 4096);
        send(&mut f, SimTime::ZERO, A, Z, 4096);
        assert_eq!(f.bytes_sent(NodeId(0)), 8192);
        assert_eq!(f.bytes_received(NodeId(1)), 8192);
        assert_eq!(f.bytes_sent(NodeId(1)), 0);
        f.reset_counters(SimTime::from_secs(1));
        assert_eq!(f.bytes_sent(NodeId(0)), 0);
    }

    #[test]
    fn admin_down_link_refuses_until_restored() {
        let mut f = two_node_fabric(8.0);
        f.set_link_down(NodeId(0));
        let err = f.try_transfer(SimTime::ZERO, A, Z, 4096).unwrap_err();
        assert_eq!(err.node, NodeId(0), "blames the dead sender");
        assert!(f.link_down(NodeId(0), LinkDir::Egress, SimTime::ZERO));
        f.set_link_up(NodeId(0));
        assert!(f.try_transfer(SimTime::ZERO, A, Z, 4096).is_ok());
        // A dead receiver is blamed too.
        f.set_link_down(NodeId(1));
        let err = f.try_transfer(SimTime::ZERO, A, Z, 4096).unwrap_err();
        assert_eq!(err.node, NodeId(1));
    }

    #[test]
    fn conservation_ledger_balances_under_faults() {
        let mut f = two_node_fabric(8.0);
        send(&mut f, SimTime::ZERO, A, Z, 4096);
        f.set_link_down(NodeId(1));
        assert!(f.try_transfer(SimTime::ZERO, A, Z, 1000).is_err());
        f.set_link_up(NodeId(1));
        f.set_link_down(NodeId(0));
        assert!(f.try_transfer(SimTime::ZERO, A, Z, 500).is_err());
        f.set_link_up(NodeId(0));
        send(&mut f, SimTime::from_millis(1), A, Z, 100);
        // offered = served + dropped on every direction.
        f.audit_conservation();
        assert_eq!(
            f.bytes_offered(NodeId(0), LinkDir::Egress),
            4096 + 1500 + 100
        );
        assert_eq!(f.bytes_dropped(NodeId(0), LinkDir::Egress), 1500);
        assert_eq!(f.bytes_sent(NodeId(0)), 4196);
        assert_eq!(f.bytes_offered(NodeId(1), LinkDir::Ingress), 4196);
        assert_eq!(f.bytes_dropped(NodeId(1), LinkDir::Ingress), 0);
        f.reset_counters(SimTime::from_secs(1));
        assert_eq!(f.bytes_offered(NodeId(0), LinkDir::Egress), 0);
        f.audit_conservation();

        // A reset in the middle of an in-flight transfer keeps the ledger
        // balanced: the straddling portion stays attributed to the window.
        send(&mut f, SimTime::from_secs(2), A, Z, 1_000_000); // ~1 ms service
        f.reset_counters(SimTime::from_secs(2) + SimTime::from_micros(500));
        f.audit_conservation();
        let kept = f.bytes_offered(NodeId(0), LinkDir::Egress);
        assert!(
            (1..1_000_000).contains(&kept),
            "straddling transfer prorated into the window, got {kept}"
        );
        assert_eq!(kept, f.bytes_sent(NodeId(0)));
    }

    #[test]
    fn flap_windows_alternate_down_and_up() {
        let mut f = two_node_fabric(8.0);
        let ms = SimTime::from_millis;
        f.flap_link(NodeId(0), ms(1), ms(1), ms(2), 3);
        // Down windows: [1,2), [4,5), [7,8) ms.
        for (t, down) in [
            (0, false),
            (1, true),
            (2, false),
            (4, true),
            (6, false),
            (7, true),
            (8, false),
            (20, false),
        ] {
            assert_eq!(
                f.link_down(NodeId(0), LinkDir::Egress, ms(t)),
                down,
                "at {t} ms"
            );
            assert_eq!(f.try_transfer(ms(t), A, Z, 1).is_err(), down, "at {t} ms");
        }
    }

    #[test]
    fn degraded_window_halves_throughput_then_recovers() {
        let mut f = two_node_fabric(8.0); // 1 GB/s
        f.degrade_link(
            NodeId(0),
            LinkDir::Egress,
            0.5,
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        // 1 MB at the degraded 0.5 GB/s: ~2 ms instead of ~1 ms.
        let svc = f.try_transfer(SimTime::ZERO, A, Z, 1_000_000).unwrap();
        assert!(svc.end >= SimTime::from_millis(2), "degraded: {}", svc.end);
        // Past the window the link is back to full rate.
        let svc = send(&mut f, SimTime::from_secs(2), A, Z, 1_000_000);
        let took = svc.end.saturating_sub(svc.start);
        assert!(took < SimTime::from_nanos(1_100_000), "recovered: {took}");
    }

    #[test]
    fn overlapping_degradations_take_the_worst_factor() {
        let mut f = two_node_fabric(8.0);
        let sec = SimTime::from_secs;
        f.degrade_link(NodeId(0), LinkDir::Egress, 0.5, sec(0), sec(10));
        f.degrade_link(NodeId(0), LinkDir::Egress, 0.25, sec(0), sec(10));
        // 1 MB at 0.25 GB/s: ~4 ms.
        let svc = f.try_transfer(SimTime::ZERO, A, Z, 1_000_000).unwrap();
        assert!(
            svc.end >= SimTime::from_millis(4),
            "worst factor: {}",
            svc.end
        );
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let mut f = Fabric::new();
        let n = f.add_node("n", NicSpec::cx5_100g());
        let _ = f.try_transfer(SimTime::ZERO, n, n, 4096);
    }
}
