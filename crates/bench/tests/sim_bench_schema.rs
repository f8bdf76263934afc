//! The checked-in `BENCH_sim.json` scheduler-throughput report must parse,
//! have the shape `simperf` promises, and carry a headline speedup at or
//! above the engine-overhaul acceptance bar. It and `BENCH_kernels.json`
//! must both record the machine they were measured on.

use draid_bench::json::{self, Json};

const BENCH: &str = include_str!("../../../BENCH_sim.json");
const KERNELS: &str = include_str!("../../../BENCH_kernels.json");

const SCENARIOS: [&str; 4] = [
    "heap_random_steady",
    "completion_chain_backlog",
    "timer_arm_cancel",
    "deadline_backlog",
];

#[test]
fn checked_in_reports_record_their_machine() {
    for (file, text) in [("BENCH_sim.json", BENCH), ("BENCH_kernels.json", KERNELS)] {
        let doc = json::parse(text).unwrap_or_else(|e| panic!("{file} parses: {e:?}"));
        let machine = doc
            .get("machine")
            .unwrap_or_else(|| panic!("{file}: machine record"));
        for key in ["cpu_model", "rustc", "git_rev"] {
            let value = machine.get(key).and_then(Json::as_str);
            assert!(
                value.is_some_and(|v| !v.is_empty()),
                "{file}: machine.{key} missing or empty"
            );
        }
        let nproc = machine.get("nproc").and_then(Json::as_num);
        assert!(
            nproc.is_some_and(|n| n >= 1.0),
            "{file}: machine.nproc missing or zero"
        );
    }
}

#[test]
fn checked_in_sim_bench_has_expected_shape() {
    let doc = json::parse(BENCH).expect("BENCH_sim.json parses");
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("simperf"));
    // The checked-in numbers must come from a full run, not a CI smoke.
    assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(false));

    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .expect("results array");
    assert_eq!(
        results.len(),
        SCENARIOS.len() * 2,
        "one row per (scenario, engine)"
    );
    for row in results {
        let scenario = row
            .get("scenario")
            .and_then(Json::as_str)
            .expect("result scenario");
        assert!(
            SCENARIOS.contains(&scenario),
            "unknown scenario {scenario:?}"
        );
        let engine = row.get("engine").and_then(Json::as_str).expect("engine");
        assert!(
            engine == "new" || engine == "baseline",
            "unknown engine {engine:?}"
        );
        let events = row.get("events").and_then(Json::as_num).expect("events");
        assert!(events > 0.0, "{scenario}/{engine}: no events retired");
        let rate = row
            .get("events_per_sec")
            .and_then(Json::as_num)
            .expect("events_per_sec");
        assert!(rate > 0.0, "{scenario}/{engine}: non-positive rate");
    }
    // Both engines retire the same event count per scenario by construction;
    // a mismatch means the benchmark measured different work.
    for scenario in SCENARIOS {
        let counts: Vec<f64> = results
            .iter()
            .filter(|r| r.get("scenario").and_then(Json::as_str) == Some(scenario))
            .filter_map(|r| r.get("events").and_then(Json::as_num))
            .collect();
        assert_eq!(counts.len(), 2, "{scenario}: measured on both engines");
        assert_eq!(counts[0], counts[1], "{scenario}: event counts differ");
    }

    let speedups = doc
        .get("speedups")
        .and_then(Json::as_arr)
        .expect("speedups array");
    assert_eq!(speedups.len(), SCENARIOS.len());
    for row in speedups {
        let scenario = row
            .get("scenario")
            .and_then(Json::as_str)
            .expect("speedup scenario");
        assert!(SCENARIOS.contains(&scenario));
        let x = row.get("speedup").and_then(Json::as_num).expect("speedup");
        assert!(x > 0.0, "{scenario}: non-positive speedup");
    }

    let macros = doc
        .get("macro")
        .and_then(Json::as_arr)
        .expect("macro array");
    assert!(!macros.is_empty(), "at least one macro wall-time entry");
    for row in macros {
        assert!(row.get("name").and_then(Json::as_str).is_some());
        let ms = row.get("wall_ms").and_then(Json::as_num).expect("wall_ms");
        assert!(ms > 0.0, "non-positive macro wall time");
    }
}

#[test]
fn headline_speedup_meets_acceptance_bar() {
    let doc = json::parse(BENCH).expect("BENCH_sim.json parses");
    let headline = doc
        .get("headline_speedup")
        .and_then(Json::as_num)
        .expect("headline_speedup");
    assert!(
        headline >= 3.0,
        "completion-chain speedup {headline} below the 3x acceptance bar"
    );
    // The headline is the completion-chain scenario's entry, verbatim.
    let from_list = doc
        .get("speedups")
        .and_then(Json::as_arr)
        .expect("speedups array")
        .iter()
        .find(|r| r.get("scenario").and_then(Json::as_str) == Some("completion_chain_backlog"))
        .and_then(|r| r.get("speedup").and_then(Json::as_num))
        .expect("completion_chain_backlog speedup");
    assert_eq!(headline, from_list, "headline not the chain scenario");
}
