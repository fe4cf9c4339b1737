//! The SAT route solves alike on fresh and on recycled buffers: a formula
//! and a solver dropped on a thread leave their buffers to the next ones
//! built there, and that must change nothing but the allocations.

use mgrts_core::engine::{Budget, CancelToken, Csp1SatEngine, FeasibilitySolver, PlatformSpec};
use mgrts_core::solve::Verdict;
use mgrts_obs::SearchStats;
use rt_gen::{derive_stream_seed, GeneratorConfig, Problem, ProblemGenerator, RateMatrixGen};

fn solve(p: &Problem) -> (Verdict, Option<SearchStats>) {
    let budget = Budget {
        max_conflicts: Some(20),
        ..Budget::unlimited()
    };
    let res = Csp1SatEngine::default()
        .solve(&p.taskset, p.m, &budget, &CancelToken::new())
        .unwrap();
    (res.verdict, res.search)
}

/// The first 24 Table I instances of seed 2009 at 20 conflicts each, once
/// each on a thread of its own and once in sequence on one thread:
/// verdicts, schedules and counters agree.
#[test]
fn sat_engine_solves_alike_on_recycled_buffers() {
    let problems = ProblemGenerator::new(GeneratorConfig::table1(), 2009).batch(24);
    let fresh: Vec<_> = problems
        .iter()
        .map(|p| std::thread::scope(|s| s.spawn(|| solve(p)).join().unwrap()))
        .collect();
    let recycled: Vec<_> = std::thread::scope(|s| {
        s.spawn(|| problems.iter().map(solve).collect())
            .join()
            .unwrap()
    });
    for (k, (a, b)) in fresh.iter().zip(&recycled).enumerate() {
        assert_eq!(a, b, "instance {k} solved differently on recycled buffers");
    }
    assert!(fresh
        .iter()
        .all(|(_, search)| search.as_ref().is_some_and(|s| s.conflicts > 0)));
}

/// The heterogeneous SAT route (`csp1_sat_hetero`: constraint (11) as a
/// pseudo-boolean equality) on the first 24 Table I instances of seed
/// 2009, each on `RateMatrixGen::default()` drawn from its `platform`
/// stream, at 20 conflicts each. Its search is deterministic, so the
/// totals below are its tree; they were recorded before at-most-one groups
/// became native constraints of the solver, and they must not move.
#[test]
fn hetero_sat_search_tree_is_pinned() {
    let budget = Budget {
        max_conflicts: Some(20),
        ..Budget::unlimited()
    };
    let mut totals = (0, 0, 0, 0, 0);
    for p in ProblemGenerator::new(GeneratorConfig::table1(), 2009).batch(24) {
        let platform = RateMatrixGen::default().generate(
            p.taskset.len(),
            p.m,
            derive_stream_seed(p.seed, "platform"),
        );
        let spec = PlatformSpec::Heterogeneous(platform);
        let res = Csp1SatEngine::default()
            .solve_on(&p.taskset, &spec, &budget, &CancelToken::new())
            .unwrap();
        let s = res.search.expect("the sat route reports its search");
        totals.0 += s.conflicts;
        totals.1 += s.decisions;
        totals.2 += s.propagations;
        totals.3 += u64::from(res.verdict.is_feasible());
        totals.4 += u64::from(res.verdict.is_infeasible());
    }
    assert_eq!(
        totals,
        (200, 744, 184_950, 0, 14),
        "(conflicts, decisions, propagations, feasible, infeasible)"
    );
}
