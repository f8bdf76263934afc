//! # draid-bench — the paper's evaluation, regenerated
//!
//! One experiment per table and figure of §9 and Appendix A of
//! *Disaggregated RAID Storage in Modern Datacenters* (ASPLOS '23). Each
//! figure is a [`Figure`]: a set of series over a sweep variable, printed as
//! the same rows the paper plots, together with the paper's headline claims
//! for that figure so a run is immediately comparable.
//!
//! The `all_figures` binary runs the whole evaluation, or the experiments
//! named by id (`all_figures fig10 table1`), and emits a Markdown report.
//! Criterion micro-benchmarks live in `benches/`.
//!
//! The `report` binary is the observability plane's front end: it runs a
//! reference scenario and attributes the bottleneck per phase, with JSON,
//! aligned-text and Prometheus outputs (see [`report`]).
//!
//! ## Example
//!
//! ```no_run
//! let fig = draid_bench::figures::by_id("fig10").expect("known figure").build();
//! println!("{fig}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod exp_app;
mod exp_fio;
mod exp_misc;
mod figure;
pub mod figures;
pub mod json;
pub mod machine;
pub mod parallel;
pub mod report;
mod setup;

pub use figure::{Figure, Point, Series};
pub use report::{run_report, BottleneckReport, ReportConfig};
pub use setup::{build_array, build_hetero_array, Scenario};
