//! # draid-net — simulated datacenter fabric
//!
//! Stands in for the paper's RDMA network (Mellanox ConnectX-5 NICs over a
//! Dell Z9264 switch). The model captures exactly what the paper's analysis
//! depends on:
//!
//! * every node has one NIC, and any node can message any other with no
//!   connection setup — the testbed runs one active NIC per server, and
//!   Fig. 17b only swaps some servers to their 25 Gbps NIC;
//! * every NIC direction (egress/ingress) is a FIFO fluid rate server, so a
//!   node can move at most its NIC bandwidth per direction per second and
//!   concurrent flows queue;
//! * transfers are *pipelined streams*: a message starts arriving one
//!   propagation delay after it starts leaving, and completion is gated by
//!   the slower of the two directions;
//! * each message pays a fixed per-message processing cost (standing in for
//!   RDMA verbs/doorbell overhead);
//! * per-direction byte counters provide the traffic accounting behind
//!   Table 1.
//!
//! The fabric is passive: [`Fabric::try_transfer`] reserves resources and
//! returns the delivery [`Service`] window; the caller schedules the
//! completion event on its own [`draid_sim::Engine`]. A core-switch
//! bottleneck is deliberately not modelled — the paper's testbed switch is
//! non-blocking at the offered loads.
//!
//! ## Example
//!
//! ```
//! use draid_net::{Fabric, NicSpec};
//! use draid_sim::SimTime;
//!
//! let mut fabric = Fabric::new();
//! let host = fabric.add_node("host", NicSpec::cx5_100g());
//! let target = fabric.add_node("ssd0", NicSpec::cx5_100g());
//! let svc = fabric
//!     .try_transfer(SimTime::ZERO, host, target, 128 * 1024)
//!     .expect("links are up");
//! assert!(svc.end > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod spec;

pub use fabric::{Fabric, LinkDir, LinkError, NodeId};
pub use spec::NicSpec;

pub use draid_sim::Service;
