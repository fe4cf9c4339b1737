//! The specialized CSP2 search (`csp2-dc`: D−C order, rules 1–2 and
//! constraint (9) pruning) on the paper's cell: the first 120 Table I
//! instances of seed 2009 (n = 10, m = 5, Tmax = 7) under a 20 000
//! decision budget each, the `cell` stream of perfbench's `paper-cell`
//! workload.
//!
//! The search is deterministic, so the decision and backtrack totals of a
//! pass are fixed; the bench fails when they move, which means the search
//! tree changed. Speed is reported, not gated: decisions per second as the
//! median, minimum and 90th percentile over the passes, written to
//! `bench/baselines/BENCH_csp2_search.json`.

use std::hint::black_box;
use std::time::Instant;

use mgrts_core::csp2::{Csp2Budget, Csp2Solver};
use mgrts_core::heuristics::TaskOrder;
use rt_gen::{GeneratorConfig, ProblemGenerator};

const SEED: u64 = 2009;
const INSTANCES: u64 = 120;
const DECISIONS: u64 = 20_000;
const PASSES: usize = 15;
/// The totals of one pass: the search tree of this stream.
const TOTAL_DECISIONS: u64 = 705_110;
const TOTAL_BACKTRACKS: u64 = 747_609;

fn main() {
    let problems = ProblemGenerator::new(GeneratorConfig::table1(), SEED).batch(INSTANCES);
    let budget = Csp2Budget {
        time: None,
        max_decisions: Some(DECISIONS),
    };
    // One pass over the stream; returns (decisions, backtracks).
    let pass = || -> (u64, u64) {
        problems.iter().fold((0, 0), |(d, b), p| {
            let res = Csp2Solver::new(&p.taskset, p.m)
                .expect("Table I instances are constrained-deadline")
                .with_order(TaskOrder::DeadlineMinusWcet)
                .with_budget(budget)
                .solve();
            let search = black_box(res).search.unwrap_or_default();
            (d + search.decisions, b + search.backtracks)
        })
    };

    let mut rates = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let start = Instant::now();
        let (decisions, backtracks) = pass();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            (decisions, backtracks),
            (TOTAL_DECISIONS, TOTAL_BACKTRACKS),
            "the csp2-dc search tree of the stream changed"
        );
        rates.push(decisions as f64 / secs);
    }
    rates.sort_by(f64::total_cmp);
    let median = rates[rates.len() / 2];
    let min = rates[0];
    // Nearest-rank 90th percentile of the ascending rates.
    let p90 = rates[(rates.len() * 9).div_ceil(10) - 1];
    println!(
        "csp2_search: {TOTAL_DECISIONS} decisions, {TOTAL_BACKTRACKS} backtracks per pass; \
         decisions/s median {median:.0}, min {min:.0}, p90 {p90:.0} over {PASSES} passes"
    );

    let json = format!(
        "{{\n  \"bench\": \"csp2_search\",\n  \
         \"stream\": \"first {INSTANCES} Table I instances, seed {SEED}, csp2-dc (D-C order), \
         {DECISIONS} decisions each\",\n  \
         \"decisions\": {TOTAL_DECISIONS},\n  \"backtracks\": {TOTAL_BACKTRACKS},\n  \
         \"passes\": {PASSES},\n  \
         \"decisions_per_s_median\": {median:.0},\n  \
         \"decisions_per_s_min\": {min:.0},\n  \
         \"decisions_per_s_p90\": {p90:.0}\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baselines/BENCH_csp2_search.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}\n{json}"),
    }
}
