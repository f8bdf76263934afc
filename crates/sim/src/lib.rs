//! # draid-sim — discrete-event simulation kernel
//!
//! The substrate underneath the whole dRAID reproduction. The paper evaluates
//! on a 19-server RDMA/NVMe testbed; we replace the hardware with a
//! deterministic discrete-event simulation whose three contended resources —
//! NIC direction bandwidth, NVMe drive channel bandwidth, and per-core CPU —
//! are modelled as FIFO *rate servers* ([`RateResource`]).
//!
//! The kernel is deliberately small and fully deterministic:
//!
//! * [`SimTime`] — nanosecond simulated clock.
//! * [`Engine`] — slab-backed event queue over a user world type `W`; events
//!   are `FnOnce(&mut W, &mut Engine<W>)` closures with FIFO tie-breaking, a
//!   same-instant fast path for completion chains, and cancelable timers
//!   ([`TimerHandle`]).
//! * [`RateResource`] — a fluid FIFO server: serving `b` bytes at rate `r`
//!   occupies the resource for `b / r`, queueing behind earlier work.
//! * [`DetRng`] — seeded deterministic RNG so every experiment replays.
//! * [`Histogram`] / [`Counter`] — exact or bucketed latency percentiles and
//!   counters.
//! * [`MetricsRegistry`] / [`UtilizationTimeline`] — named metrics with a
//!   Prometheus-style exporter, and windowed per-resource utilization buckets.
//!
//! ## Example
//!
//! ```
//! use draid_sim::{Engine, SimTime};
//!
//! struct World { fired: Vec<u64> }
//! let mut world = World { fired: Vec::new() };
//! let mut engine = Engine::new();
//! engine.schedule_in(SimTime::from_micros(5), |w: &mut World, _eng| {
//!     w.fired.push(5);
//! });
//! engine.schedule_in(SimTime::from_micros(2), |w: &mut World, eng| {
//!     w.fired.push(2);
//!     eng.schedule_in(SimTime::from_micros(1), |w: &mut World, _| w.fired.push(3));
//! });
//! engine.run(&mut world);
//! assert_eq!(world.fired, vec![2, 3, 5]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod invariant;
mod metrics;
mod rate;
mod registry;
mod rng;
mod time;

pub use engine::{CallFn, Engine, EngineStats, TimerHandle};
pub use invariant::invariants_enabled;
pub use metrics::{Counter, Histogram, HistogramSummary};
pub use rate::{ByteRate, RateResource, Service};
pub use registry::{MetricsRegistry, UtilBucket, UtilizationTimeline};
pub use rng::DetRng;
pub use time::SimTime;
