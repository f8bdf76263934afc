//! `ycsb_a_degraded`: YCSB-A (50/50 read/update, zipfian, 1 M records) on
//! the LSM store through `draid_store::AppRunner` at concurrency 8, on a
//! RAID-5 width-8 array with member 0 failed, run on dRAID and SPDK in turn.
//!
//! Reads sit beside writes here: they are lock-free, take the degraded-read
//! DAGs and go through reducer selection. It is the only workload that runs
//! the store layer (LSM plan, YCSB generator, app driver).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use draid_block::Cluster;
use draid_core::{ArrayConfig, ArraySim, SystemKind};
use draid_sim::SimTime;
use draid_store::{
    AppReport, AppRunner, BlockApp, IoPlan, LsmConfig, LsmStore, YcsbGen, YcsbOp, YcsbWorkload,
};

use crate::model::{system_label, Model};
use crate::{span, Round, Traced};

const SYSTEMS: [SystemKind; 2] = [SystemKind::Draid, SystemKind::SpdkRaid];
const WIDTH: usize = 8;
pub const RECORDS: u64 = 1_000_000;

fn runner() -> AppRunner {
    AppRunner {
        measure: SimTime::from_secs(10),
        ..AppRunner::new(8)
    }
}

pub fn gen(seed: u64) -> YcsbGen {
    YcsbGen::new(YcsbWorkload::A, RECORDS, seed)
}

pub fn lsm_config(seed: u64) -> LsmConfig {
    LsmConfig {
        seed,
        ..LsmConfig::default()
    }
}

/// The data region `LsmStore::paper_default` uses.
pub const DATA_REGION: u64 = 32 << 30;

struct Setup {
    system: SystemKind,
    array: ArraySim,
    gen: YcsbGen,
    lsm: LsmStore,
}

fn setup(seed: u64) -> Result<Vec<Setup>, String> {
    SYSTEMS
        .iter()
        .map(|&system| {
            let mut cfg = ArrayConfig::paper_default(system);
            cfg.seed = seed;
            let mut array = ArraySim::new(Cluster::homogeneous(WIDTH), cfg)?;
            array.fail_member(0);
            Ok(Setup {
                system,
                array,
                gen: gen(seed),
                lsm: LsmStore::new(lsm_config(seed), DATA_REGION),
            })
        })
        .collect()
}

fn model_of(system: SystemKind, r: &AppReport) -> Model {
    let s = system_label(system);
    [
        ("kiops", r.kiops),
        ("mean_us", r.mean_latency_us),
        ("p99_us", r.p99_latency_us),
        ("ops", r.ops as f64),
        ("host_bandwidth_fraction", r.host_bandwidth_fraction),
    ]
    .into_iter()
    .map(|(k, v)| (format!("{s}.{k}"), v))
    .collect()
}

fn round_from(setup_s: f64, run_s: f64, reports: &[(SystemKind, AppReport)]) -> Round {
    let mut round = Round {
        setup_s,
        run_s,
        ..Round::default()
    };
    for (system, r) in reports {
        round.ops += r.ops;
        round.attempted += r.ops;
        round.model.extend(model_of(*system, r));
    }
    round
}

/// One round through `AppRunner`, as the figures run it.
pub fn untraced(seed: u64) -> Result<Round, String> {
    let t0 = Instant::now();
    let setups = setup(seed)?;
    let runner = runner();
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let reports: Vec<_> = setups
        .into_iter()
        .map(|s| (s.system, runner.run(s.array, s.lsm, s.gen)))
        .collect();
    let mut round = round_from(setup_s, t1.elapsed().as_secs_f64(), &reports);
    round.peak_rss_mb = crate::peak_rss_mb()?;
    Ok(round)
}

/// The LSM store behind a span around `plan`, recording every op it plans.
struct Observed {
    lsm: Rc<RefCell<LsmStore>>,
    ops: Rc<RefCell<Vec<YcsbOp>>>,
}

impl BlockApp for Observed {
    fn plan(&mut self, op: &YcsbOp) -> IoPlan {
        self.ops.borrow_mut().push(*op);
        let _s = span::enter("store.plan");
        self.lsm.borrow_mut().plan(op)
    }

    fn name(&self) -> &str {
        "lsm-kv"
    }
}

/// One round through `AppRunner` with the store observed. `AppRunner` owns
/// the engine and the array, so the layers below the store are not timed
/// on this workload.
pub fn traced(seed: u64) -> Result<Traced, String> {
    let t0 = Instant::now();
    let setups = setup(seed)?;
    let runner = runner();
    let setup_s = t0.elapsed().as_secs_f64();
    let mut traced = Traced::default();
    let mut reports = Vec::new();
    let t1 = Instant::now();
    for s in setups {
        let lsm = Rc::new(RefCell::new(s.lsm));
        let ops = Rc::new(RefCell::new(Vec::new()));
        let app = Observed {
            lsm: Rc::clone(&lsm),
            ops: Rc::clone(&ops),
        };
        let report = {
            let _s = span::enter("store.app_runner.run");
            runner.run(s.array, app, s.gen)
        };
        traced.app_ops += report.ops;
        if s.system == SystemKind::Draid {
            let lsm = lsm.borrow();
            traced.lsm_flushes = lsm.flushes();
            traced.lsm_compactions = lsm.compactions();
            traced.ycsb_ops = ops.take();
        }
        reports.push((s.system, report));
    }
    traced.round = round_from(setup_s, t1.elapsed().as_secs_f64(), &reports);
    Ok(traced)
}
