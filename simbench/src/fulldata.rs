//! `fulldata_raid6_faults`: the full data plane (`DataMode::Full`) on a
//! dRAID RAID-6 width-8 array over a 10-server cluster (two spares), 512 KiB
//! chunks. 64 KiB 50/50 reads/writes at QD 32 over a 64 MiB working set
//! carry seeded random payloads while a fault schedule injects transients,
//! one fail-slow member and one drive death; the fault manager rebuilds the
//! dead member onto a spare.
//!
//! It is the only workload where the datastore and EC layers do most of the
//! host work, and the only one that runs the fault, health and rebuild
//! paths. Every read is compared with a shadow copy of the device.

use std::collections::BTreeSet;
use std::time::Instant;

use bytes::Bytes;
use draid_block::Cluster;
use draid_core::{
    ArrayConfig, ArraySim, DataMode, FaultManagerConfig, FaultSchedule, IoKind, IoResult, Layout,
    RaidLevel, SystemKind, UserIo,
};
use draid_sim::{DetRng, Engine, SimTime};
use draid_workload::{FioJob, Runner};

use crate::drive::{self, Driven, Source};
use crate::model;
use crate::{span, Recorded, Round, Traced};

const SERVERS: usize = 10;
const WIDTH: usize = 8;
const CHUNK: u64 = 512 * 1024;
const IO_SIZE: u64 = 64 * 1024;
pub const WORKING_SET: u64 = 64 << 20;
const QUEUE_DEPTH: usize = 32;

/// Draws the offsets; reads and writes alternate (see [`Shadowed`]).
pub fn job(seed: u64) -> FioJob {
    FioJob::random_read(IO_SIZE)
        .queue_depth(QUEUE_DEPTH)
        .working_set(WORKING_SET)
        .seed(seed)
}

fn runner(measure: SimTime) -> Runner {
    Runner {
        warmup: SimTime::ZERO,
        measure,
    }
}

/// Simulated length of a benchmark round: long enough for the dead member
/// to be detected and rebuilt before the round ends.
const MEASURE: SimTime = SimTime::from_millis(400);

pub fn config(seed: u64) -> ArrayConfig {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid6;
    cfg.width = WIDTH;
    cfg.chunk_size = CHUNK;
    cfg.data_mode = DataMode::Full;
    // At 5 ms, ops queued behind the 4x fail-slow member under this load
    // time out until their retries run out; 20 ms keeps every I/O alive.
    cfg.op_deadline = SimTime::from_millis(20);
    cfg.seed = seed;
    cfg
}

/// The faults every round replays: a transient on member 3, member 2 turning
/// fail-slow, member 5's drive dying silently, and a late transient on
/// member 1 while the rebuild runs.
pub fn faults() -> FaultSchedule {
    FaultSchedule::new()
        .transient(SimTime::from_millis(1), 3, SimTime::from_micros(500))
        .fail_slow(SimTime::from_millis(2), 2, 4.0)
        .fail_drive(SimTime::from_millis(4), 5)
        .transient(SimTime::from_millis(9), 1, SimTime::from_micros(500))
}

/// Payload generator and shadow device. A slot (one 64 KiB extent) is never
/// in flight twice, so each read has exactly one expected content. Writes
/// and reads alternate, so every seed does the same number of each: a write
/// costs the host about ten times a read, and a random mix would make the
/// seed, not the simulator, move the host time.
pub struct Shadowed {
    job: FioJob,
    issued: u64,
    rng: DetRng,
    payloads: DetRng,
    shadow: Vec<u8>,
    busy: BTreeSet<u64>,
    stopped: bool,
    /// Offsets of the writes that completed.
    pub written: BTreeSet<u64>,
    pub failed: u64,
    pub mismatches: u64,
}

impl Shadowed {
    pub fn new(seed: u64) -> Self {
        Shadowed {
            job: job(seed),
            issued: 0,
            rng: DetRng::new(seed),
            payloads: DetRng::new(seed ^ 0x9E37_79B9_7F4A_7C15),
            shadow: vec![0; WORKING_SET as usize],
            busy: BTreeSet::new(),
            stopped: false,
            written: BTreeSet::new(),
            failed: 0,
            mismatches: 0,
        }
    }

    fn range(offset: u64, len: u64) -> std::ops::Range<usize> {
        offset as usize..(offset + len) as usize
    }
}

impl Source for Shadowed {
    fn next_io(&mut self, layout: &Layout) -> Option<UserIo> {
        if self.stopped {
            return None;
        }
        let io = loop {
            let io = self.job.next_io(&mut self.rng, layout);
            if self.busy.insert(io.offset) {
                break io;
            }
        };
        self.issued += 1;
        if self.issued.is_multiple_of(2) {
            return Some(io);
        }
        let mut data = vec![0u8; io.len as usize];
        self.payloads.fill_bytes(&mut data);
        self.shadow[Self::range(io.offset, io.len)].copy_from_slice(&data);
        Some(UserIo::write_bytes(io.offset, Bytes::from(data)))
    }

    fn complete(&mut self, res: &IoResult) {
        self.busy.remove(&res.offset);
        if !res.is_ok() {
            self.failed += 1;
        } else if res.kind == IoKind::Write {
            self.written.insert(res.offset);
        } else if res.data.as_deref() != Some(&self.shadow[Self::range(res.offset, res.len)]) {
            self.mismatches += 1;
        }
    }
}

pub struct Scenario {
    pub array: ArraySim,
    pub engine: Engine<ArraySim>,
}

/// Stripes the rebuild reconstructs at once. With more than one, stripes
/// finish out of order and the array mistakes how far the rebuild has got,
/// so writes can land stale on the rebuilt member: see
/// `tests::concurrent_rebuild_keeps_data_intact`, which fails until the
/// simulator is fixed.
const REBUILD_CONCURRENCY: usize = 1;

pub fn scenario(
    seed: u64,
    schedule: FaultSchedule,
    rebuild_concurrency: usize,
) -> Result<Scenario, String> {
    let cfg = config(seed);
    let mut array = ArraySim::new(Cluster::homogeneous(SERVERS), cfg)?;
    let stripes = WORKING_SET.div_ceil(array.layout().stripe_data_bytes());
    array.enable_fault_manager(FaultManagerConfig {
        period: SimTime::from_micros(500),
        rebuild_stripes: stripes,
        rebuild_concurrency,
    });
    let mut engine = Engine::new();
    schedule.install(&mut engine);
    Ok(Scenario { array, engine })
}

/// Runs the scenario's load for `measure` of simulated time.
pub fn run(sc: &mut Scenario, seed: u64, measure: SimTime, record: bool) -> Driven<Shadowed> {
    let engine = std::mem::replace(&mut sc.engine, Engine::new());
    drive::drive(
        &mut sc.array,
        engine,
        &runner(measure),
        QUEUE_DEPTH,
        Shadowed::new(seed),
        record,
    )
}

/// Stops the load, lets every in-flight I/O finish, and checks the data:
/// no I/O failed, every read matched the shadow, the array healed, parity
/// verifies on every stripe, and the whole device reads back as written.
pub fn quiesce_and_check(
    array: &mut ArraySim,
    driven: &mut Driven<Shadowed>,
) -> Result<(), String> {
    driven.state.borrow_mut().source.stopped = true;
    driven.engine.run(array);
    array.drain_completions();
    let st = driven.state.borrow();
    let src = &st.source;
    if src.failed > 0 {
        return Err(format!("{} user I/Os failed", src.failed));
    }
    if src.mismatches > 0 {
        return Err(format!(
            "{} reads differ from the shadow copy",
            src.mismatches
        ));
    }
    if array.is_degraded() {
        return Err(format!(
            "members {:?} still faulty at quiesce",
            array.faulty_members()
        ));
    }
    let bad = array.store().expect("full data mode").verify_all();
    if !bad.is_empty() {
        return Err(format!("parity check failed on stripes {bad:?}"));
    }
    array.submit(&mut driven.engine, UserIo::read(0, WORKING_SET));
    driven.engine.run(array);
    let res = array
        .drain_completions()
        .pop()
        .ok_or("readback did not complete")?;
    if res.data.as_deref() != Some(&src.shadow[..]) {
        return Err("readback of the working set differs from the shadow copy".into());
    }
    model::check_ledgers(array, SERVERS)
}

fn round_from(setup_s: f64, run_s: f64, array: &mut ArraySim, driven: &Driven<Shadowed>) -> Round {
    let r = runner(MEASURE);
    let m = model::from_array(SystemKind::Draid, array, r.warmup + r.measure, r.measure);
    let ops = (m["draid.reads"] + m["draid.writes"]) as u64;
    let failed = driven.state.borrow().source.failed;
    Round {
        setup_s,
        run_s,
        ops,
        attempted: ops + failed,
        failed,
        model: m,
        ..Round::default()
    }
}

/// One round; `record` keeps what the layer replays need. The counts and
/// the step trace cover the measured window, not the checks after it.
fn round(seed: u64, record: bool) -> Result<Traced, String> {
    let t0 = Instant::now();
    let mut sc = scenario(seed, faults(), REBUILD_CONCURRENCY)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut driven = {
        let _s = span::enter("workload.fulldata_raid6_faults.system");
        run(&mut sc, seed, MEASURE, record)
    };
    let run_s = t1.elapsed().as_secs_f64();
    let t = Instant::now();
    let round = {
        let _r = span::enter("core.stats.report");
        round_from(setup_s, run_s, &mut sc.array, &driven)
    };
    let report_ns = t.elapsed().as_nanos() as u64;
    let (completions, submitted) = {
        let mut st = driven.state.borrow_mut();
        (st.completions, std::mem::take(&mut st.submitted))
    };
    let traced = Traced {
        round: Round {
            peak_rss_mb: crate::peak_rss_mb()?,
            ..round
        },
        events: driven.engine.stats().events_fired,
        completions,
        report_ns: vec![report_ns],
        recorded: vec![Recorded {
            cfg: *sc.array.config(),
            cluster_width: SERVERS,
            submitted,
            steps: sc
                .array
                .take_trace()
                .map(|t| t.events().to_vec())
                .unwrap_or_default(),
        }],
        ..Traced::default()
    };
    quiesce_and_check(&mut sc.array, &mut driven)?;
    Ok(traced)
}

pub fn untraced(seed: u64) -> Result<Round, String> {
    round(seed, false).map(|t| t.round)
}

pub fn traced(seed: u64) -> Result<Traced, String> {
    round(seed, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 7;
    const SHORT: SimTime = SimTime::from_millis(2);

    fn short_run(schedule: FaultSchedule, measure: SimTime) -> (Scenario, Driven<Shadowed>) {
        let mut sc = scenario(SEED, schedule, REBUILD_CONCURRENCY).expect("valid config");
        let driven = run(&mut sc, SEED, measure, false);
        (sc, driven)
    }

    /// A data chunk holding a write that completed within `measure`.
    fn written_chunk(measure: SimTime) -> (u64, usize) {
        let (sc, driven) = short_run(FaultSchedule::new(), measure);
        let offset = *driven
            .state
            .borrow()
            .source
            .written
            .first()
            .expect("the run completed no write");
        let layout = sc.array.layout();
        let stripe = offset / layout.stripe_data_bytes();
        let k = (offset % layout.stripe_data_bytes()) / layout.chunk_size();
        (stripe, layout.data_member(stripe, k as usize))
    }

    #[test]
    fn the_benchmark_scenario_passes_the_data_checks() {
        let mut sc = scenario(5, faults(), REBUILD_CONCURRENCY).expect("valid config");
        let mut driven = run(&mut sc, 5, MEASURE, false);
        assert_eq!(quiesce_and_check(&mut sc.array, &mut driven), Ok(()));
        assert_eq!(sc.array.fault_manager_rebuilds(), 1);
    }

    /// Known simulator defect, left failing on purpose. The rebuild treats
    /// its count of finished stripes as a watermark (`stripe_rebuilt` in
    /// `crates/core/src/rebuild.rs`); with three stripes in flight they
    /// finish out of order, and a write to a stripe counted as rebuilt (or
    /// not) is stored as if the new member were healthy (or still faulty).
    /// On seed 6 two reads return data that differs from what was written.
    #[test]
    fn concurrent_rebuild_keeps_data_intact() {
        let mut sc = scenario(6, faults(), 3).expect("valid config");
        let mut driven = run(&mut sc, 6, MEASURE, false);
        assert_eq!(quiesce_and_check(&mut sc.array, &mut driven), Ok(()));
    }

    #[test]
    fn a_clean_run_passes_the_data_checks() {
        let (mut sc, mut driven) = short_run(FaultSchedule::new(), SHORT);
        assert_eq!(quiesce_and_check(&mut sc.array, &mut driven), Ok(()));
    }

    #[test]
    fn a_corrupted_chunk_fails_the_parity_check() {
        let (stripe, member) = written_chunk(SHORT);
        let (mut sc, mut driven) = short_run(FaultSchedule::new(), SHORT);
        sc.array
            .store_mut()
            .expect("full data mode")
            .corrupt_chunk(stripe, member, 17);
        let err = quiesce_and_check(&mut sc.array, &mut driven).expect_err("corruption must fail");
        assert!(err.contains("parity"), "{err}");
    }

    #[test]
    fn a_scheduled_corruption_mid_run_fails_the_checks() {
        // Runs of one seed agree up to the corruption, so the chunk found by
        // a run stopped at `half` holds data when the corruption fires.
        let half = SimTime::from_millis(1);
        let (stripe, member) = written_chunk(half);
        let at = half + SimTime::from_nanos(1);
        let schedule = FaultSchedule::new().corrupt(at, stripe, member, 3);
        let (mut sc, mut driven) = short_run(schedule, SHORT);
        assert!(quiesce_and_check(&mut sc.array, &mut driven).is_err());
    }
}
