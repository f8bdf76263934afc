//! Cluster assembly: a host plus storage servers on a fabric.

use draid_net::{Fabric, LinkDir, LinkError, NicSpec, NodeId};
use draid_sim::{Service, SimTime};

use crate::{Cpu, CpuSpec, Drive, DriveError, DriveSpec};

/// Identifies a storage server (and its drive) within a cluster; dense from
/// zero. Server `i` lives on fabric node `i + 1` (the host is node 0).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ServerId(pub usize);

/// The host's fabric node: [`ClusterBuilder::build`] adds it first.
const HOST: NodeId = NodeId(0);

/// Builder for a [`Cluster`].
///
/// ```
/// use draid_block::{ClusterBuilder, CpuSpec, DriveSpec};
/// use draid_net::NicSpec;
///
/// let mut b = ClusterBuilder::new();
/// b.host(NicSpec::cx5_100g(), CpuSpec::spdk_core());
/// for _ in 0..4 {
///     b.server(NicSpec::cx5_100g(), DriveSpec::default(), CpuSpec::spdk_core());
/// }
/// let cluster = b.build();
/// assert_eq!(cluster.width(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    host: Option<(NicSpec, CpuSpec)>,
    servers: Vec<(NicSpec, DriveSpec, CpuSpec)>,
}

impl ClusterBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Configures the host (the node where the virtual RAID device attaches).
    pub fn host(&mut self, nic: NicSpec, cpu: CpuSpec) -> &mut Self {
        self.host = Some((nic, cpu));
        self
    }

    /// Adds a storage server; returns its [`ServerId`].
    pub fn server(&mut self, nic: NicSpec, drive: DriveSpec, cpu: CpuSpec) -> ServerId {
        self.servers.push((nic, drive, cpu));
        ServerId(self.servers.len() - 1)
    }

    /// Builds the cluster: the host on fabric node 0, then each server in
    /// [`ServerId`] order. Every node can message every other (dRAID's
    /// server-side controllers talk to all other storage servers, §8).
    ///
    /// # Panics
    ///
    /// Panics unless a host and at least two servers were configured.
    pub fn build(self) -> Cluster {
        let (host_nic, host_cpu) = self.host.expect("cluster needs a host");
        assert!(
            self.servers.len() >= 2,
            "a RAID array needs at least two members"
        );
        let mut fabric = Fabric::new();
        fabric.add_node("host", host_nic);
        let mut cpus = vec![Cpu::new(host_cpu)];
        let mut drives = Vec::with_capacity(self.servers.len());
        for (i, (nic, drive, cpu)) in self.servers.into_iter().enumerate() {
            fabric.add_node(format!("server{i}"), nic);
            drives.push(Drive::new(drive));
            cpus.push(Cpu::new(cpu));
        }
        Cluster {
            fabric,
            drives,
            cpus,
        }
    }
}

/// A simulated storage cluster: one host and `width` storage servers on one
/// fabric, each node with one NIC and one CPU core, each server with one
/// drive.
#[derive(Debug)]
pub struct Cluster {
    fabric: Fabric,
    /// Indexed by [`ServerId`].
    drives: Vec<Drive>,
    /// Indexed by [`NodeId`]: the host's core first, then each server's.
    cpus: Vec<Cpu>,
}

impl Cluster {
    /// A host plus `width` identical servers, all on 100 Gbps NICs with the
    /// paper's default drive — the §9.1 testbed shape.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2`.
    pub fn homogeneous(width: usize) -> Cluster {
        let mut b = ClusterBuilder::new();
        b.host(NicSpec::cx5_100g(), CpuSpec::default());
        for _ in 0..width {
            b.server(
                NicSpec::cx5_100g(),
                DriveSpec::default(),
                CpuSpec::default(),
            );
        }
        b.build()
    }

    /// Number of storage servers (the RAID stripe width).
    pub fn width(&self) -> usize {
        self.drives.len()
    }

    /// The host's fabric node.
    pub fn host_node(&self) -> NodeId {
        HOST
    }

    /// A server's fabric node.
    pub fn server_node(&self, server: ServerId) -> NodeId {
        assert!(server.0 < self.drives.len(), "unknown server {server:?}");
        NodeId(server.0 + 1)
    }

    /// Sends `bytes` between two fabric nodes; fails fast with the refusing
    /// node when either endpoint's link is down (network fault injection).
    ///
    /// # Errors
    ///
    /// [`LinkError`] naming the endpoint whose link is down.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (loopback does not cross the fabric).
    pub fn try_transfer(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Result<Service, LinkError> {
        self.fabric.try_transfer(now, from, to, bytes)
    }

    /// Queues a read on a server's drive.
    ///
    /// # Errors
    ///
    /// Propagates the drive's failure state.
    pub fn drive_read(
        &mut self,
        now: SimTime,
        server: ServerId,
        bytes: u64,
    ) -> Result<Service, DriveError> {
        self.drives[server.0].read(now, bytes)
    }

    /// Queues a write on a server's drive.
    ///
    /// # Errors
    ///
    /// Propagates the drive's failure state.
    pub fn drive_write(
        &mut self,
        now: SimTime,
        server: ServerId,
        bytes: u64,
    ) -> Result<Service, DriveError> {
        self.drives[server.0].write(now, bytes)
    }

    /// The CPU core of a fabric node (host or server).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this cluster.
    pub fn cpu_mut(&mut self, node: NodeId) -> &mut Cpu {
        &mut self.cpus[node.0]
    }

    /// Immutable access to a node's CPU.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this cluster.
    pub fn cpu(&self, node: NodeId) -> &Cpu {
        &self.cpus[node.0]
    }

    /// Immutable access to a server's drive.
    pub fn drive(&self, server: ServerId) -> &Drive {
        &self.drives[server.0]
    }

    /// Mutable access to a server's drive (failure injection).
    pub fn drive_mut(&mut self, server: ServerId) -> &mut Drive {
        &mut self.drives[server.0]
    }

    /// The underlying fabric (traffic accounting, backlog probes).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Mutable fabric access.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Checks byte conservation across the whole cluster: every NIC direction
    /// in the fabric and every drive channel must satisfy
    /// `offered == served + dropped`. A no-op unless invariants are enabled.
    ///
    /// # Panics
    ///
    /// Panics when any ledger does not balance.
    pub fn audit_conservation(&self) {
        self.fabric.audit_conservation();
        for drive in &self.drives {
            drive.audit_conservation();
        }
    }

    /// Resets all traffic/busy counters across fabric, drives and CPUs at
    /// measurement-window start `now`; work straddling the boundary keeps
    /// its time-prorated in-window share on every resource.
    pub fn reset_counters(&mut self, now: SimTime) {
        self.fabric.reset_counters(now);
        for cpu in &mut self.cpus {
            cpu.reset_counters(now);
        }
        for drive in &mut self.drives {
            drive.reset_counters(now);
        }
    }

    /// Samples the clamped elapsed busy time of every contended resource —
    /// each node's NIC directions, each server's drive channel, each CPU —
    /// into `timeline` at instant `at`, under stable series names:
    /// `net:<node>:egress`, `net:<node>:ingress`, `drive:<node>`,
    /// `cpu:<node>`. Call at fixed bucket boundaries to build the
    /// observability plane's utilization timeline.
    pub fn sample_busy(&self, timeline: &mut draid_sim::UtilizationTimeline, at: SimTime) {
        let drives = std::iter::once(None).chain(self.drives.iter().map(Some));
        for (i, drive) in drives.enumerate() {
            let node = NodeId(i);
            let name = self.fabric.node_name(node);
            timeline.observe(
                &format!("net:{name}:egress"),
                at,
                self.fabric.busy_elapsed(node, LinkDir::Egress, at),
            );
            timeline.observe(
                &format!("net:{name}:ingress"),
                at,
                self.fabric.busy_elapsed(node, LinkDir::Ingress, at),
            );
            timeline.observe(&format!("cpu:{name}"), at, self.cpu(node).busy_elapsed(at));
            if let Some(drive) = drive {
                timeline.observe(&format!("drive:{name}"), at, drive.busy_elapsed(at));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_builds_mesh() {
        let mut c = Cluster::homogeneous(4);
        assert_eq!(c.width(), 4);
        let host = c.host_node();
        // Host to each server and server-to-server transfers all work.
        for i in 0..4 {
            let node = c.server_node(ServerId(i));
            c.try_transfer(SimTime::ZERO, host, node, 4096).unwrap();
            c.try_transfer(SimTime::ZERO, node, host, 4096).unwrap();
            for j in 0..4 {
                if i != j {
                    let peer = c.server_node(ServerId(j));
                    c.try_transfer(SimTime::ZERO, node, peer, 512).unwrap();
                }
            }
        }
        assert!(c.fabric().bytes_sent(host) > 0);
    }

    #[test]
    fn cpus_are_indexed_by_node() {
        // Every core gets a distinct per-I/O cost, so reading the host's
        // spec for a server (or a neighbour's) is caught.
        let spec = |us| CpuSpec {
            per_io: SimTime::from_micros(us),
            ..CpuSpec::default()
        };
        let mut b = ClusterBuilder::new();
        b.host(NicSpec::cx5_100g(), spec(100));
        for i in 0..3 {
            b.server(NicSpec::cx5_100g(), DriveSpec::default(), spec(i + 1));
        }
        let c = b.build();
        assert_eq!(*c.cpu(c.host_node()).spec(), spec(100));
        for i in 0..3 {
            let node = c.server_node(ServerId(i));
            assert_eq!(*c.cpu(node).spec(), spec(i as u64 + 1), "server {i}");
        }
    }

    #[test]
    fn drive_failure_visible_through_cluster() {
        let mut c = Cluster::homogeneous(2);
        c.drive_mut(ServerId(1)).fail_permanently();
        assert_eq!(
            c.drive_write(SimTime::ZERO, ServerId(1), 4096),
            Err(DriveError::Failed)
        );
        assert!(c.drive_write(SimTime::ZERO, ServerId(0), 4096).is_ok());
    }

    #[test]
    fn cpu_access_host_and_servers() {
        let mut c = Cluster::homogeneous(2);
        let host = c.host_node();
        let s0 = c.server_node(ServerId(0));
        c.cpu_mut(host).per_io(SimTime::ZERO);
        c.cpu_mut(s0).xor(SimTime::ZERO, 1 << 20);
        assert!(c.cpu(host).busy_time() > SimTime::ZERO);
        assert!(c.cpu(s0).busy_time() > c.cpu(host).busy_time());
    }

    #[test]
    fn cluster_audit_covers_fabric_and_drives() {
        let mut c = Cluster::homogeneous(3);
        let host = c.host_node();
        let n0 = c.server_node(ServerId(0));
        c.try_transfer(SimTime::ZERO, host, n0, 1 << 16).unwrap();
        c.drive_mut(ServerId(1)).fail_permanently();
        assert!(c.drive_write(SimTime::ZERO, ServerId(1), 4096).is_err());
        c.drive_write(SimTime::ZERO, ServerId(0), 4096).unwrap();
        c.audit_conservation();
        assert_eq!(c.drive(ServerId(1)).bytes_dropped(), 4096);
    }

    #[test]
    fn reset_clears_counters() {
        let mut c = Cluster::homogeneous(2);
        let host = c.host_node();
        let n0 = c.server_node(ServerId(0));
        c.try_transfer(SimTime::ZERO, host, n0, 1 << 20).unwrap();
        c.drive_write(SimTime::ZERO, ServerId(0), 1 << 20).unwrap();
        c.reset_counters(SimTime::from_secs(1));
        assert_eq!(c.fabric().bytes_sent(host), 0);
        assert_eq!(c.drive(ServerId(0)).bytes_served(), 0);
    }

    #[test]
    fn sample_busy_feeds_named_timeline_series() {
        let mut c = Cluster::homogeneous(2);
        let host = c.host_node();
        let n0 = c.server_node(ServerId(0));
        let mut tl = draid_sim::UtilizationTimeline::new(SimTime::ZERO);
        c.sample_busy(&mut tl, SimTime::ZERO);
        c.try_transfer(SimTime::ZERO, host, n0, 1 << 20).unwrap();
        c.drive_write(SimTime::ZERO, ServerId(0), 1 << 20).unwrap();
        c.sample_busy(&mut tl, SimTime::from_millis(1));
        let names: Vec<&str> = tl.names().collect();
        assert!(names.contains(&"net:host:egress"), "series: {names:?}");
        assert!(names.iter().any(|n| n.starts_with("drive:")));
        assert!(names.iter().any(|n| n.starts_with("cpu:")));
        for name in &names {
            for b in tl.buckets(name) {
                assert!(b.utilization() <= 1.0, "{name} over 100%");
            }
        }
        assert!(tl.total_busy("net:host:egress") > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_member_rejected() {
        let mut b = ClusterBuilder::new();
        b.host(NicSpec::cx5_100g(), CpuSpec::default());
        b.server(
            NicSpec::cx5_100g(),
            DriveSpec::default(),
            CpuSpec::default(),
        );
        b.build();
    }
}
