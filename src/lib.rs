//! # draid — Disaggregated RAID Storage in Modern Datacenters, reproduced
//!
//! A full-system Rust reproduction of **dRAID** (Shu et al., ASPLOS 2023):
//! a disaggregated RAID-5/6 architecture that offloads partial-parity
//! generation and movement to the storage servers, keeping the host NIC's
//! bandwidth consumption at one copy per user byte for partial-stripe writes
//! and degraded reads.
//!
//! The paper's testbed (19 CloudLab servers, ConnectX-5 RDMA NICs,
//! enterprise NVMe SSDs, SPDK) is replaced by a deterministic discrete-event
//! simulation; the RAID logic — data paths, parity math, write modes,
//! reducer selection, failure handling — is implemented for real and carries
//! real bytes when asked to. See `DESIGN.md` for the substitution map and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `draid-sim` | discrete-event kernel, rate resources, metrics |
//! | [`ec`] | `draid-ec` | GF(256), RAID-5/6 codecs, Reed-Solomon |
//! | [`net`] | `draid-net` | RDMA-style fabric model |
//! | [`block`] | `draid-block` | NVMe drive model, cluster builder |
//! | [`core`] | `draid-core` | dRAID + Linux-MD + SPDK-RAID engines |
//! | [`store`] | `draid-store` | object store, LSM KV, YCSB |
//! | [`workload`] | `draid-workload` | FIO-style jobs and closed-loop runner |
//!
//! ## Quickstart
//!
//! ```
//! use draid::block::Cluster;
//! use draid::core::{ArrayConfig, ArraySim, SystemKind, UserIo};
//! use draid::sim::Engine;
//!
//! // An 8-target RAID-5 dRAID array on a simulated 100 Gbps cluster.
//! let cfg = ArrayConfig::paper_default(SystemKind::Draid);
//! let mut array = ArraySim::new(Cluster::homogeneous(8), cfg)?;
//! let mut engine = Engine::new();
//!
//! array.submit(&mut engine, UserIo::write(0, 128 * 1024));
//! engine.run(&mut array);
//!
//! assert!(array.drain_completions().pop().expect("one result").is_ok());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use draid_block as block;
pub use draid_core as core;
pub use draid_ec as ec;
pub use draid_net as net;
pub use draid_sim as sim;
pub use draid_store as store;
pub use draid_workload as workload;
