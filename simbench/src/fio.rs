//! `fio_rmw_4k`: 4 KiB random writes at QD 32 on the §9.1 default array
//! (RAID-5, width 8, 512 KiB chunks, 16 GiB working set), run on dRAID,
//! SPDK and Linux in turn for equal simulated time.
//!
//! Every write is a read-modify-write, the most engine events and DAG steps
//! per byte the simulator handles. It never touches EC or the datastore.

use std::time::Instant;

use draid_block::Cluster;
use draid_core::{ArrayConfig, ArraySim, IoResult, Layout, SystemKind, UserIo};
use draid_sim::Engine;
use draid_workload::{FioJob, FioStream, Runner};

use crate::drive::{self, Source};
use crate::model::{self, Model};
use crate::{span, Recorded, Round, Traced};

const SYSTEMS: [SystemKind; 3] = [SystemKind::Draid, SystemKind::SpdkRaid, SystemKind::LinuxMd];
const WIDTH: usize = 8;

pub fn job(seed: u64) -> FioJob {
    FioJob::random_write(4096).queue_depth(32).seed(seed)
}

fn setup(seed: u64) -> Result<Vec<(SystemKind, ArraySim)>, String> {
    SYSTEMS
        .iter()
        .map(|&system| {
            let mut cfg = ArrayConfig::paper_default(system);
            cfg.seed = seed;
            Ok((system, ArraySim::new(Cluster::homogeneous(WIDTH), cfg)?))
        })
        .collect()
}

fn round_from(setup_s: f64, run_s: f64, models: Vec<Model>) -> Round {
    let mut round = Round {
        setup_s,
        run_s,
        ..Round::default()
    };
    for m in models {
        for (k, v) in m {
            let field = k.rsplit('.').next().unwrap_or_default();
            match field {
                "reads" | "writes" => {
                    round.ops += v as u64;
                    round.attempted += v as u64;
                }
                "failed_ios" => {
                    round.attempted += v as u64;
                    round.failed += v as u64;
                }
                _ => {}
            }
            round.model.insert(k, v);
        }
    }
    round
}

/// One round through `draid_workload::Runner`, as the figures run it.
pub fn untraced(seed: u64) -> Result<Round, String> {
    let t0 = Instant::now();
    let arrays = setup(seed)?;
    let job = job(seed);
    let runner = Runner::new();
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let models: Vec<Model> = arrays
        .into_iter()
        .map(|(system, array)| model::from_report(system, &runner.run(array, &job)))
        .collect();
    let mut round = round_from(setup_s, t1.elapsed().as_secs_f64(), models);
    round.peak_rss_mb = crate::peak_rss_mb()?;
    Ok(round)
}

struct Stream(FioStream);

impl Source for Stream {
    fn next_io(&mut self, layout: &Layout) -> Option<UserIo> {
        Some(self.0.next_io(layout))
    }

    fn complete(&mut self, _res: &IoResult) {}
}

/// One round through the benchmark's own loop, recording what the layer
/// replays need and checking the ledgers.
pub fn traced(seed: u64) -> Result<Traced, String> {
    let t0 = Instant::now();
    let arrays = setup(seed)?;
    let job = job(seed);
    let runner = Runner::new();
    let setup_s = t0.elapsed().as_secs_f64();
    let mut traced = Traced::default();
    let mut models = Vec::new();
    let t1 = Instant::now();
    let mut finished = Vec::new();
    for (system, mut array) in arrays {
        let _s = span::enter("workload.fio_rmw_4k.system");
        let stream = Stream(FioStream::new(job));
        let driven = drive::drive(
            &mut array,
            Engine::new(),
            &runner,
            job.queue_depth,
            stream,
            true,
        );
        let t = Instant::now();
        let end = runner.warmup + runner.measure;
        let m = {
            let _r = span::enter("core.stats.report");
            model::from_array(system, &mut array, end, runner.measure)
        };
        traced.report_ns.push(t.elapsed().as_nanos() as u64);
        models.push(m);
        finished.push((array, driven));
    }
    let run_s = t1.elapsed().as_secs_f64();
    for (mut array, driven) in finished {
        model::check_ledgers(&array, WIDTH)?;
        traced.events += driven.engine.stats().events_fired;
        let mut st = driven.state.borrow_mut();
        traced.completions += st.completions;
        traced.recorded.push(Recorded {
            cfg: *array.config(),
            cluster_width: WIDTH,
            submitted: std::mem::take(&mut st.submitted),
            steps: array
                .take_trace()
                .map(|t| t.events().to_vec())
                .unwrap_or_default(),
        });
    }
    traced.round = round_from(setup_s, run_s, models);
    Ok(traced)
}
