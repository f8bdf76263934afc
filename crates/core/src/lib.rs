//! # draid-core — disaggregated RAID (dRAID, ASPLOS '23)
//!
//! A faithful reimplementation of the dRAID system from *"Disaggregated RAID
//! Storage in Modern Datacenters"* (Shu et al., ASPLOS 2023) over a
//! discrete-event hardware model, together with the paper's two comparison
//! baselines:
//!
//! * [`SystemKind::Draid`] — host-side coordinator + server-side controllers
//!   with peer-to-peer partial-parity movement, non-blocking multi-stage
//!   writes (§5), pipelined per-bdev I/O (§5.3), lock-free normal reads,
//!   degraded reads with randomized or bandwidth-aware reducer selection
//!   (§6), and timeout + full-stripe-retry failure handling (§5.4).
//! * [`SystemKind::SpdkRaid`] — the user-space centralized RAID the paper
//!   compares against (the Intel RAID-5 POC with ISA-L and RAID-6 added).
//! * [`SystemKind::LinuxMd`] — kernel-path software RAID with stripe-cache
//!   page handling costs.
//!
//! The crate exposes:
//!
//! * [`ArraySim`] — a virtual RAID block device over a simulated
//!   [`draid_block::Cluster`]; submit [`UserIo`]s, drive the
//!   [`draid_sim::Engine`], drain [`IoResult`]s.
//! * [`Layout`] — stripe geometry, parity rotation and write-mode selection.
//! * [`ChunkStore`] — the optional real-bytes data plane (writes store real
//!   parity; degraded reads reconstruct real data).
//! * [`reducer`] — Theorem-1 randomized selection and the §6.2
//!   bandwidth-aware water-filling optimizer.
//!
//! ## Example
//!
//! ```
//! use draid_block::Cluster;
//! use draid_core::{ArrayConfig, ArraySim, SystemKind, UserIo};
//! use draid_sim::Engine;
//!
//! let cluster = Cluster::homogeneous(8);
//! let cfg = ArrayConfig::paper_default(SystemKind::Draid);
//! let mut array = ArraySim::new(cluster, cfg)?;
//! let mut engine = Engine::new();
//! array.submit(&mut engine, UserIo::write(0, 128 * 1024));
//! engine.run(&mut array);
//! let done = array.drain_completions();
//! assert_eq!(done.len(), 1);
//! assert!(done[0].is_ok());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod bitmap;
mod builders;
mod config;
mod dag;
mod datastore;
mod exec;
mod fault;
mod health;
mod io;
mod layout;
mod lock;
mod plan;
mod rebuild;
pub mod reducer;
mod scrub;
mod stats;
pub mod trace;

pub use array::{ArraySim, CompletionHook};
pub use bitmap::WriteIntentBitmap;
pub use builders::{build as build_dag, BuildCtx, Purpose, CALLBACK_BYTES, COMMAND_BYTES};
pub use config::{ArrayConfig, DataMode, DraidOptions, RaidLevel, ReducerPolicy, SystemKind};
pub use dag::{Dag, Step, StepKind};
pub use datastore::ChunkStore;
pub use exec::BufPool;
pub use fault::{FaultAction, FaultManagerConfig, FaultSchedule};
pub use health::{HealthMonitor, HealthState, MemberHealth};
pub use io::{IoError, IoId, IoKind, IoResult, UserIo};
pub use layout::{Layout, Segment, StripeIo, WriteMode};
pub use lock::LockTable;
pub use rebuild::RebuildStatus;
pub use scrub::ScrubStatus;
pub use stats::ArrayStats;
