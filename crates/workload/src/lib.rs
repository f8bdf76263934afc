//! # draid-workload — FIO-style workload generation and benchmark running
//!
//! The paper evaluates raw block-device performance with FIO (§9.1): random
//! reads/writes of a given I/O size at a fixed queue depth against the
//! virtual RAID device. This crate reproduces that methodology on the
//! simulated array:
//!
//! * [`FioJob`] — the workload description (read ratio, I/O size, queue
//!   depth, working set, optional targeting of a failed member's chunks for
//!   rebuild-style experiments).
//! * [`Runner`] — a closed-loop driver: `queue_depth` outstanding I/Os, each
//!   completion immediately submitting the next, with a warm-up phase and a
//!   measured phase (counters reset in between, like FIO's `ramp_time`).
//! * [`RunReport`] — bandwidth/IOPS/latency plus resource-level measurements
//!   (host NIC traffic, per-core utilization, retries/timeouts) used by the
//!   figure harness.
//!
//! ## Example
//!
//! ```
//! use draid_block::Cluster;
//! use draid_core::{ArrayConfig, ArraySim, SystemKind};
//! use draid_workload::{FioJob, Runner};
//!
//! let cfg = ArrayConfig::paper_default(SystemKind::Draid);
//! let array = ArraySim::new(Cluster::homogeneous(8), cfg)?;
//! let job = FioJob::random_write(128 * 1024).queue_depth(8);
//! let report = Runner::quick().run(array, &job);
//! assert!(report.bandwidth_mb_per_sec > 0.0);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fio;
mod open_loop;
mod runner;

pub use fio::{FioJob, FioStream};
pub use open_loop::{ArrivalPattern, OpenLoopReport, OpenLoopRunner};
pub use runner::{RunReport, Runner};
