//! The SAT route (`sat`: CSP1 → CNF → CDCL, pairwise at-most-one) on the
//! paper's cell: the first 120 Table I instances of seed 2009 (n = 10,
//! m = 5, Tmax = 7) under 20 conflicts each, the `sat` stream of
//! perfbench's `paper-cell` workload. At this size (about 23 000
//! variables and 92 000 clauses per instance) set-up, not search, sets the
//! cost, so every solve is also taken apart into four phases: encode
//! (`encode_cnf`), load (`SatSolver::new`), search (`solve`) and drop (the
//! solver, then the formula).
//!
//! The search is deterministic, so the conflict, decision and propagation
//! totals of a pass are fixed; the bench fails when the totals of
//! `Csp1SatEngine` or of the phase-by-phase route move, which means the
//! search tree changed. It fails too when the pass's totals of
//! `Cnf::num_vars` and `Cnf::num_clauses` move: the formula's meaning
//! (each pairwise at-most-one group counted as its pairs, though stored as
//! one group) must not drift. Speed is reported, not gated: for each phase and
//! for the whole engine solve, the mean time per instance of each pass, as
//! the median, minimum, 90th percentile and median absolute deviation
//! over the passes, written to `bench/baselines/BENCH_sat_route.json`.

use std::hint::black_box;
use std::time::Instant;

use mgrts_core::csp1_sat::encode_cnf;
use mgrts_core::engine::{Budget, CancelToken, Csp1SatEngine, FeasibilitySolver};
use mgrts_obs::SearchStats;
use rt_gen::{GeneratorConfig, ProblemGenerator};
use rt_sat::{AmoEncoding, SatConfig, SatSolver};

const SEED: u64 = 2009;
const INSTANCES: u64 = 120;
const CONFLICTS: u64 = 20;
const PASSES: usize = 15;
/// The totals of one pass: the search tree of the stream.
const TOTAL_CONFLICTS: u64 = 2_400;
const TOTAL_DECISIONS: u64 = 548_212;
const TOTAL_PROPAGATIONS: u64 = 4_561_292;
/// The formulas of one pass: variables and (pairwise) clauses.
const TOTAL_VARS: u64 = 2_761_901;
const TOTAL_CLAUSES: u64 = 11_051_990;

/// Phases of one solve, in order, then the whole engine solve.
const PHASES: [&str; 5] = ["encode", "load", "search", "drop", "engine"];

/// Add `s`'s (conflicts, decisions, propagations) to `totals`.
fn tally(totals: &mut (u64, u64, u64), s: &SearchStats) {
    totals.0 += s.conflicts;
    totals.1 += s.decisions;
    totals.2 += s.propagations;
}

/// Median, minimum, nearest-rank 90th percentile and median absolute
/// deviation of `xs`.
fn summary(mut xs: Vec<f64>) -> [f64; 4] {
    xs.sort_by(f64::total_cmp);
    let median = xs[xs.len() / 2];
    let p90 = xs[(xs.len() * 9).div_ceil(10) - 1];
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - median).abs()).collect();
    dev.sort_by(f64::total_cmp);
    [median, xs[0], p90, dev[dev.len() / 2]]
}

fn main() {
    let problems = ProblemGenerator::new(GeneratorConfig::table1(), SEED).batch(INSTANCES);
    let engine = Csp1SatEngine::default();
    let budget = Budget {
        max_conflicts: Some(CONFLICTS),
        ..Budget::unlimited()
    };
    let cfg = SatConfig {
        max_conflicts: Some(CONFLICTS),
        ..SatConfig::default()
    };
    let cancel = CancelToken::new();
    let expected = (TOTAL_CONFLICTS, TOTAL_DECISIONS, TOTAL_PROPAGATIONS);
    let per_instance = |secs: f64| secs * 1e6 / INSTANCES as f64;
    // Per phase, the mean microseconds per instance of each pass.
    let mut samples: [Vec<f64>; 5] = Default::default();
    for _ in 0..PASSES {
        let mut phase_s = [0.0f64; 4];
        let mut split = (0, 0, 0);
        let mut formulas = (0, 0);
        for p in &problems {
            let t0 = Instant::now();
            let (cnf, _layout) = encode_cnf(&p.taskset, p.m, AmoEncoding::Pairwise)
                .expect("Table I instances are constrained-deadline");
            let t1 = Instant::now();
            formulas.0 += u64::from(cnf.num_vars());
            formulas.1 += cnf.num_clauses() as u64;
            let mut solver = SatSolver::new(&cnf, cfg);
            let t2 = Instant::now();
            black_box(solver.solve());
            let t3 = Instant::now();
            tally(&mut split, &solver.stats());
            drop(solver);
            drop(cnf);
            let t4 = Instant::now();
            for (k, (a, b)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4)].iter().enumerate() {
                phase_s[k] += (*b - *a).as_secs_f64();
            }
        }
        assert_eq!(split, expected, "the phase-split SAT search tree changed");
        assert_eq!(
            formulas,
            (TOTAL_VARS, TOTAL_CLAUSES),
            "the formulas' variable or clause totals changed"
        );

        let mut whole = (0, 0, 0);
        let start = Instant::now();
        for p in &problems {
            let res = engine
                .solve(&p.taskset, p.m, &budget, &cancel)
                .expect("Table I instances are constrained-deadline");
            tally(&mut whole, &black_box(res).search.unwrap_or_default());
        }
        let engine_s = start.elapsed().as_secs_f64();
        assert_eq!(whole, expected, "the sat engine's search tree changed");

        for (k, s) in phase_s.into_iter().chain([engine_s]).enumerate() {
            samples[k].push(per_instance(s));
        }
    }

    let mut rows = Vec::new();
    for (name, xs) in PHASES.iter().zip(samples) {
        let [median, min, p90, mad] = summary(xs);
        println!(
            "sat_route {name:>6}: median {median:8.1} us/instance, min {min:8.1}, \
             p90 {p90:8.1}, MAD {mad:6.1} over {PASSES} passes"
        );
        rows.push(format!(
            "  \"{name}_us\": {{\"median\": {median:.1}, \"min\": {min:.1}, \
             \"p90\": {p90:.1}, \"mad\": {mad:.1}}}"
        ));
    }
    println!(
        "sat_route: {TOTAL_CONFLICTS} conflicts, {TOTAL_DECISIONS} decisions, \
         {TOTAL_PROPAGATIONS} propagations, {TOTAL_VARS} variables and \
         {TOTAL_CLAUSES} clauses per pass"
    );
    let json = format!(
        "{{\n  \"bench\": \"sat_route\",\n  \
         \"stream\": \"first {INSTANCES} Table I instances, seed {SEED}, sat (pairwise AMO), \
         {CONFLICTS} conflicts each\",\n  \
         \"conflicts\": {TOTAL_CONFLICTS},\n  \"decisions\": {TOTAL_DECISIONS},\n  \
         \"propagations\": {TOTAL_PROPAGATIONS},\n  \"variables\": {TOTAL_VARS},\n  \
         \"clauses\": {TOTAL_CLAUSES},\n  \"passes\": {PASSES},\n  \
         \"unit\": \"microseconds per instance, per pass\",\n{}\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baselines/BENCH_sat_route.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}\n{json}"),
    }
}
