//! The generic CSP routes solve alike on fresh and on recycled buffers: a
//! `csp_engine` solver dropped on a thread leaves its buffers to the next
//! one built there, and that must change nothing but the allocations.

use mgrts_core::engine::{
    Budget, CancelToken, Csp1Engine, Csp2GenericEngine, FeasibilitySolver, PlatformSpec,
};
use mgrts_core::solve::Verdict;
use mgrts_obs::SearchStats;
use rt_gen::{derive_stream_seed, GeneratorConfig, Problem, ProblemGenerator, RateMatrixGen};

/// One route: an engine on one kind of platform.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    Generic,
    Learn,
    Csp1,
    Csp1Hetero,
}

const ROUTES: [Route; 4] = [Route::Generic, Route::Learn, Route::Csp1, Route::Csp1Hetero];

fn solve(route: Route, p: &Problem) -> (Verdict, Option<SearchStats>) {
    let budget = Budget {
        max_decisions: Some(300),
        ..Budget::unlimited()
    };
    let cancel = CancelToken::new();
    let identical = PlatformSpec::Identical { m: p.m };
    let (engine, spec): (Box<dyn FeasibilitySolver>, PlatformSpec) = match route {
        Route::Generic => (Box::new(Csp2GenericEngine::default()), identical),
        Route::Learn => (
            Box::new(Csp2GenericEngine {
                learning: true,
                ..Csp2GenericEngine::default()
            }),
            identical,
        ),
        Route::Csp1 => (Box::new(Csp1Engine::default()), identical),
        Route::Csp1Hetero => {
            let platform = RateMatrixGen::default().generate(
                p.taskset.len(),
                p.m,
                derive_stream_seed(p.seed, "platform"),
            );
            (
                Box::new(Csp1Engine::default()),
                PlatformSpec::Heterogeneous(platform),
            )
        }
    };
    let res = engine
        .solve_on(&p.taskset, &spec, &budget, &cancel)
        .unwrap();
    (res.verdict, res.search)
}

/// The first 24 Table I instances of seed 2009 under a decision budget, on
/// `csp2-generic`, `csp2-learn` and `csp1` (identical and rate-matrix
/// platforms), once each on a thread of its own and once in sequence on
/// one thread, routes interleaved so that every solve inherits another
/// model's buffers: verdicts, schedules and counters agree.
#[test]
fn generic_routes_solve_alike_on_recycled_buffers() {
    let problems = ProblemGenerator::new(GeneratorConfig::table1(), 2009).batch(24);
    let runs: Vec<(Route, &Problem)> = problems
        .iter()
        .flat_map(|p| ROUTES.map(|r| (r, p)))
        .collect();
    let fresh: Vec<_> = runs
        .iter()
        .map(|&(r, p)| std::thread::scope(|s| s.spawn(|| solve(r, p)).join().unwrap()))
        .collect();
    let recycled: Vec<_> = std::thread::scope(|s| {
        s.spawn(|| runs.iter().map(|&(r, p)| solve(r, p)).collect())
            .join()
            .unwrap()
    });
    for (((r, p), a), b) in runs.iter().zip(&fresh).zip(&recycled) {
        assert_eq!(
            a, b,
            "{r:?} on instance seed {} solved differently on recycled buffers",
            p.seed
        );
    }
    for route in ROUTES {
        let searched = runs
            .iter()
            .zip(&fresh)
            .filter(|((r, _), _)| *r == route)
            .filter(|(_, (_, s))| s.as_ref().is_some_and(|s| s.decisions > 0))
            .count();
        assert!(searched > 0, "{route:?} never searched");
    }
}
