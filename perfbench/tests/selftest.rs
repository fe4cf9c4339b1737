//! Fast self-test of the benchmark: every workload at tiny sizes, untraced
//! and traced, with all output checks live; the result line's shape; the
//! metric names and units against `BENCHMARK.json`; and one deliberately
//! wrong oracle to show a mismatch is counted and printed.

use std::path::PathBuf;

use perfbench::workload::{Workload, NAMES};
use perfbench::{cell, race, result_json, run, trace, Options, Tally};
use serde_json::Value;

/// The workload at self-test size: a handful of instances per phase,
/// small budgets.
fn tiny(name: &str) -> Workload {
    Workload {
        cell_instances: 6,
        cell_budgets: [2_000, 10, 200, 200],
        race_instances: 6,
        race_budget_ms: 20,
        serve_instances: 12,
        ..Workload::named(name).expect("known workload")
    }
}

fn options(name: &str, traced: bool) -> Options {
    Options {
        workload: tiny(name),
        seed: 7,
        seconds: 1.0,
        trace: traced,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{name}")),
    }
}

/// The repository's `BENCHMARK.json`.
fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `section` of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn emitted(report: &perfbench::Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_runs_clean_and_reports_the_declared_metrics() {
    let workloads: Vec<String> = benchmark_json()["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| w["name"].as_str().expect("name").to_string())
        .collect();
    assert_eq!(workloads, NAMES);
    for name in NAMES {
        let untraced = run(&options(name, false));
        assert!(
            untraced.correct && untraced.failed == 0,
            "{name}: {:#?}",
            untraced.lines
        );
        assert_eq!(emitted(&untraced), declared("end_to_end"), "{name}");
        for m in &untraced.metrics {
            assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
        }

        let traced = run(&options(name, true));
        assert!(
            traced.correct && traced.failed == 0,
            "{name}: {:#?}",
            traced.lines
        );
        assert_eq!(emitted(&traced), declared("per_layer"), "{name}");
        assert!(traced
            .lines
            .iter()
            .any(|l| l.starts_with("tracing overhead")));
        // Every span of the replayed miss path was recorded.
        let times = trace::layer_times(&traced.spans);
        for layer in [
            "serve.parse",
            "serve.key",
            "pool.get",
            "replay.solve",
            "store.commit",
            "serve.render",
            "sat.encode",
            "sat.build",
            "generic.encode",
            "csp2_dc.build",
            "race.race",
            "serve.miss",
            "serve.hit",
        ] {
            assert!(times.contains_key(layer), "{name}: no `{layer}` span");
        }
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let report = run(&options("small-cell", false));
    let line = result_json(&report);
    let v: Value = serde_json::from_str(&line).expect("result line is JSON");
    let Value::Object(fields) = &v else {
        panic!("result line is not an object: {line}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v["correct"].as_bool(), Some(true));
    assert!(v["attempted"].as_u64().unwrap_or(0) >= 1);
    assert_eq!(v["failed"].as_u64(), Some(0));
    for (name, unit) in declared("end_to_end") {
        assert_eq!(
            v["metrics"][name.as_str()]["unit"].as_str(),
            Some(unit.as_str())
        );
        assert!(
            v["metrics"][name.as_str()]["value"].as_f64().is_some(),
            "{name}"
        );
    }
}

#[test]
fn a_wrong_oracle_is_counted_as_failed_and_printed() {
    let w = tiny("paper-cell");
    let tracer = trace::Tracer::new(false);
    let mut tally = Tally::default();
    let cell_setup = cell::setup(&w, 7, &tracer);
    let mut truth = cell::CellRun::default();
    let n = cell_setup.problems.len();
    cell::chunk(&cell_setup, &w, 0..n, 0, &tracer, &mut truth, &mut tally);
    assert_eq!(tally.failed, 0, "{:?}", tally.failures);
    assert!(
        truth.verdicts.iter().any(Option::is_some),
        "nothing decided"
    );
    // An oracle that claims the opposite of every cell verdict: each race
    // that decides one of those instances must be flagged.
    let flipped: Vec<Option<bool>> = truth.verdicts.iter().map(|v| v.map(|f| !f)).collect();
    let race_setup = race::setup(&w, 7, &tracer);
    let mut run = race::RaceRun::new();
    let m = race_setup.problems.len();
    race::chunk(
        &race_setup,
        &w,
        0..m,
        0,
        &tracer,
        &flipped,
        &mut run,
        &mut tally,
    );
    assert!(tally.failed > 0, "no mismatch detected");
    assert_eq!(tally.failed as usize, tally.failures.len());
    assert!(tally
        .failures
        .iter()
        .all(|f| f.contains("but the cell phase decided")));
    let report = perfbench::Report {
        correct: false,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
        lines: Vec::new(),
        spans: Vec::new(),
    };
    assert!(result_json(&report).starts_with("{\"correct\": false"));
}
