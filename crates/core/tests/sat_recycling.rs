//! The SAT route solves alike on fresh and on recycled buffers: a formula
//! and a solver dropped on a thread leave their buffers to the next ones
//! built there, and that must change nothing but the allocations.

use mgrts_core::engine::{Budget, CancelToken, Csp1SatEngine, FeasibilitySolver};
use mgrts_core::solve::Verdict;
use mgrts_obs::SearchStats;
use rt_gen::{GeneratorConfig, Problem, ProblemGenerator};

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
