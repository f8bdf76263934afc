//! # draid-block — simulated block layer
//!
//! Stands in for the paper's storage hardware: enterprise NVMe SSDs (Dell Ent
//! NVMe AGN MU U.2 1.6 TB) attached to storage servers, plus the per-server
//! CPU core that SPDK/dRAID dedicates to I/O handling (§7 limits dRAID to one
//! core per SSD).
//!
//! * [`DriveSpec`] / [`Drive`] — an NVMe drive as a shared FIFO channel with
//!   direction-specific bandwidth and a fixed post-channel latency (modelling
//!   internal parallelism: latency overlaps, bandwidth is the contended
//!   resource). Drives support transient and permanent failure injection
//!   (§5.4's failure model).
//! * [`CpuSpec`] / [`Cpu`] — a polling core with byte-rate costs for XOR and
//!   GF(256) work (ISA-L-class throughput) and a fixed per-I/O software cost.
//! * [`Cluster`] / [`ClusterBuilder`] — a host plus storage servers on a
//!   [`draid_net::Fabric`], one NIC and one core per node; any node can
//!   message any other (host ↔ every server, server ↔ server, §3).
//!
//! ## Example
//!
//! ```
//! use draid_block::Cluster;
//! use draid_sim::SimTime;
//!
//! let mut cluster = Cluster::homogeneous(8);
//! let svc = cluster
//!     .drive_write(SimTime::ZERO, draid_block::ServerId(0), 128 * 1024)
//!     .unwrap();
//! assert!(svc.end > SimTime::ZERO);
//! assert_eq!(cluster.width(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod cpu;
mod drive;

pub use cluster::{Cluster, ClusterBuilder, ServerId};
pub use cpu::{Cpu, CpuSpec};
pub use drive::{Drive, DriveError, DriveSpec, DriveState};
