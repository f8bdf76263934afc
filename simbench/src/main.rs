//! Host-throughput benchmark of the dRAID simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload fio_rmw_4k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! It repeats rounds of one workload for `--seconds`; each round sets the
//! workload up from `--seed` and drives it through the public API the
//! figures use. `--trace 0` prints the end-to-end metrics of untraced
//! rounds; `--trace 1` alternates untraced and traced rounds and prints the
//! per-layer metrics. Model outputs of every round of one seed must be
//! bit-identical. The last stdout line is the result object. See README.md.

#![forbid(unsafe_code)]

mod drive;
mod fio;
mod fulldata;
mod meta;
mod model;
mod replay;
mod span;
mod ycsb;

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use draid_core::trace::TraceEvent;
use draid_core::{ArrayConfig, Layout};
use draid_store::YcsbOp;

use drive::Submitted;
use model::Model;

/// One timed round of a workload.
#[derive(Default)]
pub struct Round {
    /// Host seconds to build the cluster, arrays and generators.
    pub setup_s: f64,
    /// Host seconds driving the simulation, warm-up included.
    pub run_s: f64,
    /// Simulated user ops completed in the measured windows.
    pub ops: u64,
    /// Peak resident memory of the process during the round, before any
    /// check ran.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub model: Model,
}

/// What one system's traced run leaves for the layer replays.
pub struct Recorded {
    pub cfg: ArrayConfig,
    pub cluster_width: usize,
    pub submitted: Vec<Submitted>,
    /// Resource steps of the measured window.
    pub steps: Vec<TraceEvent>,
}

/// A round through the benchmark's own loops.
#[derive(Default)]
pub struct Traced {
    pub round: Round,
    /// Engine events fired, warm-up included.
    pub events: u64,
    /// User I/Os completed, warm-up included.
    pub completions: u64,
    /// Host nanoseconds of each run-report build.
    pub report_ns: Vec<u64>,
    pub recorded: Vec<Recorded>,
    pub ycsb_ops: Vec<YcsbOp>,
    /// App ops `AppRunner` completed in the measured windows.
    pub app_ops: u64,
    pub lsm_flushes: u64,
    pub lsm_compactions: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    FioRmw4k,
    YcsbADegraded,
    FulldataRaid6Faults,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FioRmw4k,
        Workload::YcsbADegraded,
        Workload::FulldataRaid6Faults,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FioRmw4k => "fio_rmw_4k",
            Workload::YcsbADegraded => "ycsb_a_degraded",
            Workload::FulldataRaid6Faults => "fulldata_raid6_faults",
        }
    }

    fn untraced(self, seed: u64) -> Result<Round, String> {
        match self {
            Workload::FioRmw4k => fio::untraced(seed),
            Workload::YcsbADegraded => ycsb::untraced(seed),
            Workload::FulldataRaid6Faults => fulldata::untraced(seed),
        }
    }

    fn traced(self, seed: u64) -> Result<Traced, String> {
        match self {
            Workload::FioRmw4k => fio::traced(seed),
            Workload::YcsbADegraded => ycsb::traced(seed),
            Workload::FulldataRaid6Faults => fulldata::traced(seed),
        }
    }

    /// Replays of the layers this workload runs.
    fn replay(self, seed: u64, t: &Traced, out: &mut BTreeMap<&'static str, f64>) {
        replay::layout_and_builders(&t.recorded, out);
        replay::resources(&t.recorded, out);
        replay::datastore(&t.recorded, out);
        let job = match self {
            Workload::FioRmw4k => Some(fio::job(seed)),
            Workload::FulldataRaid6Faults => Some(fulldata::job(seed)),
            Workload::YcsbADegraded => None,
        };
        if let (Some(job), Some(r)) = (job, t.recorded.first()) {
            replay::next_io(job, r.submitted.len(), &Layout::new(&r.cfg), out);
        }
        if self == Workload::YcsbADegraded {
            replay::store(seed, &t.ycsb_ops, out);
            out.insert("store.lsm.flushes", t.lsm_flushes as f64);
            out.insert("store.lsm.compactions", t.lsm_compactions as f64);
        }
    }
}

/// Per-layer metrics: name, unit, better direction. The model outputs at
/// the end are dRAID's, from the traced rounds.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("sim.engine.events_per_op", "count", "lower"),
    ("sim.engine.ns_per_event", "ns", "lower"),
    ("sim.engine.run_ns_per_op", "ns", "lower"),
    ("core.array.submit_ns_per_op", "ns", "lower"),
    ("core.layout.map_ns", "ns", "lower"),
    ("core.layout.stripe_ops_per_io", "count", "lower"),
    ("core.builders.build_ns", "ns", "lower"),
    ("core.dag.steps_per_op", "count", "lower"),
    ("net.fabric.transfer_ns", "ns", "lower"),
    ("block.drive.io_ns", "ns", "lower"),
    ("block.cpu.charge_ns", "ns", "lower"),
    ("core.datastore.apply_write_ns", "ns", "lower"),
    ("core.datastore.read_ns", "ns", "lower"),
    ("workload.next_io_ns", "ns", "lower"),
    ("store.ycsb.next_op_ns", "ns", "lower"),
    ("store.plan_ns", "ns", "lower"),
    ("store.app_runner.run_ns_per_op", "ns", "lower"),
    ("store.lsm.flushes", "count", "lower"),
    ("store.lsm.compactions", "count", "lower"),
    ("core.stats.report_ns", "ns", "lower"),
    ("core.trace.overhead_ratio", "ratio", "lower"),
    ("model.kiops", "kIOPS", "higher"),
    ("model.mb_per_s", "MB/s", "higher"),
    ("model.p50_us", "us", "lower"),
    ("model.p99_us", "us", "lower"),
    ("model.host_nic.tx_bytes_per_user_byte", "B/B", "lower"),
    ("model.host_nic.rx_bytes_per_user_byte", "B/B", "lower"),
    ("model.host_cpu.util", "ratio", "lower"),
    ("model.member_cpu.max_util", "ratio", "lower"),
    ("model.drive.max_util", "ratio", "lower"),
    ("model.queue_ns.network", "ns", "lower"),
    ("model.queue_ns.drive", "ns", "lower"),
    ("model.queue_ns.cpu", "ns", "lower"),
    ("model.service_ns.network", "ns", "lower"),
    ("model.service_ns.drive", "ns", "lower"),
    ("model.service_ns.cpu", "ns", "lower"),
    ("model.retries", "count", "lower"),
    ("model.timeouts", "count", "lower"),
    ("model.degraded_ios", "count", "lower"),
    ("model.rebuilds", "count", "lower"),
];

/// End-to-end metrics: name, unit, better direction.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("sim_ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Rounds measured at least, whatever `--seconds` says, so medians exist.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| {
        get(name)?
            .parse::<u64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1 to 600".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Resets this process's peak resident set to its current size, so the next
/// [`peak_rss_mb`] covers one round.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Engine, array and report costs of one traced round, from its spans.
fn span_layers(t: &Traced, spans: &[span::Span]) -> BTreeMap<&'static str, f64> {
    let totals = span::totals(spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    let (run, submit) = (get("sim.engine.run_until"), get("core.array.submit"));
    let mut out = BTreeMap::new();
    out.insert("sim.engine.events_per_op", per(t.events, t.completions));
    out.insert("sim.engine.ns_per_event", per(run.self_ns, t.events));
    out.insert("sim.engine.run_ns_per_op", per(run.total_ns, t.completions));
    out.insert(
        "core.array.submit_ns_per_op",
        per(submit.total_ns, submit.count),
    );
    // `AppRunner` hides the engine and the array; what it spends outside
    // the store's `plan`, per app op, is the closest view below the store.
    let (app, plan) = (get("store.app_runner.run"), get("store.plan"));
    if app.count > 0 {
        out.insert(
            "store.app_runner.run_ns_per_op",
            per(app.total_ns - plan.total_ns, t.app_ops),
        );
    }
    out.insert(
        "core.stats.report_ns",
        median(t.report_ns.iter().map(|&n| n as f64).collect()),
    );
    out
}

/// The model outputs reported per layer: dRAID's, renamed `model.*`.
fn model_layers(model: &Model, out: &mut BTreeMap<&'static str, f64>) {
    for &(name, _, _) in PER_LAYER {
        if let Some(key) = name.strip_prefix("model.") {
            if let Some(v) = model.get(&format!("draid.{key}")) {
                out.insert(name, *v);
            }
        }
    }
}

struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    models: Model,
    spans: Vec<span::Span>,
}

fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let mut problems = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<(f64, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut last_traced: Option<Traced> = None;
    let mut last_spans = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();

    // Checks a round's model against the first untraced round of this seed.
    let check = |rounds: &[Round], model: &Model, what: &str, problems: &mut Vec<String>| {
        if let Some(first) = rounds.first() {
            if let Err(e) = model::check_same(&first.model, model, what) {
                problems.push(e);
            }
        }
    };

    while problems.is_empty() && (rounds.len() < MIN_ROUNDS || start.elapsed() < budget) {
        if let Err(e) = reset_peak_rss() {
            problems.push(e);
        }
        match w.untraced(args.seed) {
            Ok(r) => {
                eprintln!(
                    "round {}: setup {:.6} s, run {:.4} s, {} ops, {:.0} ops/s, peak {:.1} MB",
                    rounds.len(),
                    r.setup_s,
                    r.run_s,
                    r.ops,
                    r.ops as f64 / r.run_s,
                    r.peak_rss_mb
                );
                check(&rounds, &r.model, "untraced round", &mut problems);
                attempted += r.attempted;
                failed += r.failed;
                rounds.push(r);
            }
            Err(e) => problems.push(e),
        }
        if !args.trace || !problems.is_empty() {
            continue;
        }
        span::start();
        let t = w.traced(args.seed);
        let spans = span::finish();
        match t {
            Ok(t) => {
                check(&rounds, &t.round.model, "traced round", &mut problems);
                if let Some(prev) = &last_traced {
                    if let Err(e) =
                        model::check_same(&prev.round.model, &t.round.model, "traced round")
                    {
                        problems.push(e);
                    }
                }
                attempted += t.round.attempted;
                failed += t.round.failed;
                traced_rounds.push((t.round.run_s, span_layers(&t, &spans)));
                last_traced = Some(t);
                last_spans = spans;
            }
            Err(e) => problems.push(e),
        }
    }

    let mut metrics = Vec::new();
    if !args.trace {
        // One more round through the benchmark's own loop, outside the
        // timed ones, for the checks that need the array afterwards.
        match w.traced(args.seed) {
            Ok(t) => {
                check(&rounds, &t.round.model, "checked round", &mut problems);
                last_traced = Some(t);
            }
            Err(e) => problems.push(e),
        }
        let ops_per_s = median(rounds.iter().map(|r| r.ops as f64 / r.run_s).collect());
        let setup_s = median(rounds.iter().map(|r| r.setup_s).collect());
        let rss = median(rounds.iter().map(|r| r.peak_rss_mb).collect());
        for (&(name, unit, _), v) in END_TO_END.iter().zip([ops_per_s, setup_s, rss]) {
            metrics.push((name, unit, v));
        }
    } else if let Some(t) = &last_traced {
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let keys: BTreeSet<&'static str> = traced_rounds
            .iter()
            .flat_map(|(_, m)| m.keys().copied())
            .collect();
        for k in keys {
            layers.insert(
                k,
                median(
                    traced_rounds
                        .iter()
                        .filter_map(|(_, m)| m.get(k).copied())
                        .collect(),
                ),
            );
        }
        let traced_s = median(traced_rounds.iter().map(|(s, _)| *s).collect());
        let untraced_s = median(rounds.iter().map(|r| r.run_s).collect());
        layers.insert("core.trace.overhead_ratio", traced_s / untraced_s);
        w.replay(args.seed, t, &mut layers);
        model_layers(&t.round.model, &mut layers);
        for &(name, unit, _) in PER_LAYER {
            // Layers a workload does not run read 0.
            metrics.push((name, unit, layers.get(name).copied().unwrap_or(0.0)));
        }
    }
    for (name, _, v) in &metrics {
        if !v.is_finite() {
            problems.push(format!("metric {name} is not a finite number"));
        }
    }
    Outcome {
        problems,
        attempted,
        failed,
        metrics,
        models: last_traced.map(|t| t.round.model).unwrap_or_default(),
        spans: last_spans,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.problems.is_empty(),
        // The result format requires at least one attempt, even when the
        // first round failed before any I/O.
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// Writes the result with its metadata and model outputs, and the spans of
/// the last traced round, under `.bench_out/` in the working directory.
fn write_out(args: &Args, meta: &str, o: &Outcome, result: &str) -> std::io::Result<()> {
    use std::io::Write;
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let models: Vec<String> = o
        .models
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    let problems: Vec<String> = o.problems.iter().map(|p| json_str(p)).collect();
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!(
            "{{\"meta\": {meta}, \"result\": {result}, \"problems\": [{}], \"model\": {{{}}}}}\n",
            problems.join(", "),
            models.join(", ")
        ),
    )?;
    if !o.spans.is_empty() {
        let selfs = span::self_times(&o.spans);
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.spans.tsv")),
        )?);
        writeln!(f, "id\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, self_ns)) in o.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                f,
                "{i}\t{parent}\t{}\t{}\t{}\t{self_ns}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let meta = meta::json(args.workload.name(), args.seed, args.seconds, args.trace);
    println!("{{\"meta\": {meta}}}");
    let outcome = run(&args);
    for p in &outcome.problems {
        eprintln!("simbench: check failed: {p}");
    }
    for (name, unit, v) in &outcome.metrics {
        println!("{name} = {v} {unit}");
    }
    let result = result_line(&outcome);
    if let Err(e) = write_out(&args, &meta, &outcome, &result) {
        eprintln!("simbench: could not write .bench_out: {e}");
    }
    println!("{result}");
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_are_checked() {
        let ok = args(&[
            "--workload",
            "fio_rmw_4k",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::FioRmw4k, 3, 2, true)
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fio_rmw_4k",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "fio_rmw_4k", "--seed", "3"]).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let quoted = |s: &str| format!("\"name\": \"{s}\"");
        for w in Workload::ALL {
            assert!(
                text.contains(&quoted(w.name())),
                "workload {} missing",
                w.name()
            );
        }
        for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{}, \"unit\": \"{unit}\", \"better\": \"{better}\"",
                quoted(name)
            );
            assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn different_seeds_give_different_streams_of_the_same_shape() {
        use draid_core::{IoKind, UserIo};
        use drive::Source;
        let layout = Layout::new(&fulldata::config(0));
        let reads = |s: &[UserIo]| s.iter().filter(|io| io.kind == IoKind::Read).count();
        let fio = |seed| {
            let mut s = draid_workload::FioStream::new(fio::job(seed));
            (0..2000).map(|_| s.next_io(&layout)).collect::<Vec<_>>()
        };
        let full = |seed| {
            // No I/O completes here, so stay well below the 1024 slots.
            let mut s = fulldata::Shadowed::new(seed);
            (0..500)
                .map(|_| s.next_io(&layout).expect("running"))
                .collect::<Vec<_>>()
        };
        for (a, b, ws) in [
            (fio(1), fio(2), 16u64 << 30),
            (full(1), full(2), fulldata::WORKING_SET),
        ] {
            let offsets = |s: &[UserIo]| s.iter().map(|io| io.offset).collect::<Vec<_>>();
            assert_ne!(offsets(&a), offsets(&b));
            assert_eq!(reads(&a), reads(&b));
            for s in [&a, &b] {
                assert!(s.iter().all(|io| io.len == s[0].len
                    && io.offset % io.len == 0
                    && io.offset + io.len <= ws));
            }
        }
        let ops = |seed| {
            let mut g = ycsb::gen(seed);
            (0..2000).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        let (a, b) = (ops(1), ops(2));
        assert_ne!(a, b);
        let ycsb_reads =
            |s: &[YcsbOp]| s.iter().filter(|op| matches!(op, YcsbOp::Read(_))).count() as f64;
        assert!((ycsb_reads(&a) - ycsb_reads(&b)).abs() <= 0.05 * a.len() as f64);
        assert!(a.iter().chain(&b).all(|op| op.key() < ycsb::RECORDS));
    }
}
