//! The specialized CSP2 search (`csp2-dc`: D−C order, rules 1–2 and
//! constraint (9) pruning) on two streams:
//!
//! * the paper's cell: the first 120 Table I instances of seed 2009
//!   (n = 10, m = 5, Tmax = 7) on identical processors under a 20 000
//!   decision budget each, the `cell` stream of perfbench's `paper-cell`
//!   workload;
//! * the rate-matrix instances of `crates/core/tests/hetero_search_pinned.rs`
//!   on heterogeneous platforms (Section VI-A): the `hetero_smoke.toml`
//!   cell's eight instances and 100 instances at n = 6, m = 3, Tmax = 5,
//!   each on `RateMatrixGen::default()` drawn from its `platform` stream
//!   seed, under a 5 000 decision budget each.
//!
//! The search is deterministic, so the decision and backtrack totals of a
//! pass are fixed; the bench fails when they move, which means the search
//! tree changed. Speed is reported, not gated: decisions per second as the
//! median, minimum and 90th percentile over the passes, written to
//! `bench/baselines/BENCH_csp2_search.json`.

use std::hint::black_box;
use std::time::Instant;

use mgrts_core::csp2::{Csp2Engine, Csp2Solver};
use mgrts_core::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec};
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::SolveResult;
use rt_gen::{derive_stream_seed, GeneratorConfig, MSpec, ProblemGenerator, RateMatrixGen};
use rt_task::TaskSet;

const SEED: u64 = 2009;
const INSTANCES: u64 = 120;
const DECISIONS: u64 = 20_000;
const HETERO_DECISIONS: u64 = 5_000;
const PASSES: usize = 15;
/// The totals of one pass: the search tree of each stream.
const TOTAL_DECISIONS: u64 = 705_110;
const TOTAL_BACKTRACKS: u64 = 747_609;
const HETERO_TOTAL_DECISIONS: u64 = 190_833;
const HETERO_TOTAL_BACKTRACKS: u64 = 562_216;

/// Decisions per second over `PASSES` passes of `pass`, which returns
/// (decisions, backtracks) and must return `totals` every time:
/// (median, min, nearest-rank 90th percentile).
fn measure(name: &str, totals: (u64, u64), pass: impl Fn() -> (u64, u64)) -> (f64, f64, f64) {
    let mut rates = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let start = Instant::now();
        let counts = pass();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            counts, totals,
            "the csp2-dc search tree of the {name} stream changed"
        );
        rates.push(counts.0 as f64 / secs);
    }
    rates.sort_by(f64::total_cmp);
    let (median, min) = (rates[rates.len() / 2], rates[0]);
    let p90 = rates[(rates.len() * 9).div_ceil(10) - 1];
    println!(
        "csp2_search {name}: {} decisions, {} backtracks per pass; \
         decisions/s median {median:.0}, min {min:.0}, p90 {p90:.0} over {PASSES} passes",
        totals.0, totals.1
    );
    (median, min, p90)
}

/// Fold one pass's results into (decisions, backtracks).
fn tally(results: impl Iterator<Item = SolveResult>) -> (u64, u64) {
    results.fold((0, 0), |(d, b), res| {
        let search = black_box(res).search.unwrap_or_default();
        (d + search.decisions, b + search.backtracks)
    })
}

fn main() {
    let problems = ProblemGenerator::new(GeneratorConfig::table1(), SEED).batch(INSTANCES);
    let budget = Budget {
        max_decisions: Some(DECISIONS),
        ..Budget::unlimited()
    };
    let (median, min, p90) = measure("identical", (TOTAL_DECISIONS, TOTAL_BACKTRACKS), || {
        tally(problems.iter().map(|p| {
            Csp2Solver::new(&p.taskset, p.m)
                .expect("Table I instances are constrained-deadline")
                .with_order(TaskOrder::DeadlineMinusWcet)
                .with_budget(budget)
                .solve()
        }))
    });

    let small = GeneratorConfig {
        n: 6,
        m: MSpec::Fixed(3),
        t_max: 5,
        ..GeneratorConfig::table1()
    };
    let hetero: Vec<(TaskSet, PlatformSpec)> =
        ProblemGenerator::new(GeneratorConfig::table1(), SEED)
            .batch(8)
            .into_iter()
            .chain(ProblemGenerator::new(small, SEED).batch(100))
            .map(|p| {
                let rates = RateMatrixGen::default().generate(
                    p.taskset.len(),
                    p.m,
                    derive_stream_seed(p.seed, "platform"),
                );
                (p.taskset, PlatformSpec::Heterogeneous(rates))
            })
            .collect();
    let hetero_budget = Budget {
        max_decisions: Some(HETERO_DECISIONS),
        ..Budget::unlimited()
    };
    let dc = Csp2Engine {
        order: TaskOrder::DeadlineMinusWcet,
    };
    let cancel = CancelToken::new();
    let (h_median, h_min, h_p90) = measure(
        "hetero",
        (HETERO_TOTAL_DECISIONS, HETERO_TOTAL_BACKTRACKS),
        || {
            tally(hetero.iter().map(|(ts, spec)| {
                dc.solve_on(ts, spec, &hetero_budget, &cancel)
                    .expect("generated instances are constrained-deadline")
            }))
        },
    );

    let json = format!(
        "{{\n  \"bench\": \"csp2_search\",\n  \
         \"stream\": \"first {INSTANCES} Table I instances, seed {SEED}, csp2-dc (D-C order), \
         {DECISIONS} decisions each\",\n  \
         \"decisions\": {TOTAL_DECISIONS},\n  \"backtracks\": {TOTAL_BACKTRACKS},\n  \
         \"passes\": {PASSES},\n  \
         \"decisions_per_s_median\": {median:.0},\n  \
         \"decisions_per_s_min\": {min:.0},\n  \
         \"decisions_per_s_p90\": {p90:.0},\n  \
         \"hetero_stream\": \"hetero_smoke cell (8 instances) + 100 instances n=6 m=3 Tmax=5, \
         seed {SEED}, RateMatrixGen::default(), csp2-dc (D-C order), \
         {HETERO_DECISIONS} decisions each\",\n  \
         \"hetero_decisions\": {HETERO_TOTAL_DECISIONS},\n  \
         \"hetero_backtracks\": {HETERO_TOTAL_BACKTRACKS},\n  \
         \"hetero_decisions_per_s_median\": {h_median:.0},\n  \
         \"hetero_decisions_per_s_min\": {h_min:.0},\n  \
         \"hetero_decisions_per_s_p90\": {h_p90:.0}\n}}\n"
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
