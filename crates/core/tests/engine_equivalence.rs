//! Engine-equivalence tests: every exact [`FeasibilitySolver`] backend
//! returns the same feasibility verdict on a corpus of small random
//! instances, each engine searches exactly as the engine that
//! [`SolverSpec`] builds for it (the path `solve`, race and serve callers
//! take), the `csp2-*` engines explore the same tree as the
//! [`Csp2Solver`] builder, and the generic engine's search path is pinned
//! on Table I instances. The other routes are pinned in
//! `route_search_pinned.rs`.

use proptest::prelude::*;

use mgrts_core::csp2::Csp2Solver;
use mgrts_core::engine::{
    Budget, CancelToken, Csp1Engine, Csp1SatEngine, Csp2Engine, Csp2GenericEngine,
    FeasibilitySolver, FlowEngine, LocalSearchEngine, SolverSpec,
};
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::local_search::LsStrategy;
use mgrts_core::verify::check_identical;
use rt_task::{checked_hyperperiod, Task, TaskSet};

fn arb_instance() -> impl Strategy<Value = (TaskSet, usize)> {
    let task = (1u64..=4)
        .prop_flat_map(|t| (Just(t), 1u64..=t))
        .prop_flat_map(|(t, d)| (Just(t), Just(d), 1u64..=d, 0u64..t))
        .prop_map(|(t, d, c, o)| Task::new(o, c, d, t).unwrap());
    (
        proptest::collection::vec(task, 1..=4).prop_filter("hyperperiod small", |tasks| {
            checked_hyperperiod(&tasks.iter().map(|t| t.period).collect::<Vec<_>>())
                .is_some_and(|h| h <= 12)
        }),
        1usize..=3,
    )
        .prop_map(|(tasks, m)| (TaskSet::new(tasks).unwrap(), m))
}

fn engine_verdict(
    engine: &dyn FeasibilitySolver,
    ts: &TaskSet,
    m: usize,
) -> mgrts_core::SolveResult {
    engine
        .solve(ts, m, &Budget::unlimited(), &CancelToken::new())
        .expect("valid instance")
}

/// An exact verdict from outside the engine under test: the specialized
/// CSP2 search with the paper's best heuristic.
fn reference_feasible(ts: &TaskSet, m: usize) -> bool {
    Csp2Solver::new(ts, m)
        .unwrap()
        .with_order(TaskOrder::DeadlineMinusWcet)
        .solve()
        .verdict
        .is_feasible()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    // The engines are the only solve entry of each backend; the tests below
    // keep the names they had when they compared each engine with the
    // backend's former free function, and now compare it with the engine
    // `SolverSpec` builds and with an exact verdict from another backend.

    #[test]
    fn csp1_engine_matches_solve_csp1((ts, m) in arb_instance()) {
        let engine = engine_verdict(&Csp1Engine::default(), &ts, m);
        let built = engine_verdict(SolverSpec::Csp1.build().as_ref(), &ts, m);
        prop_assert_eq!(
            engine.verdict.is_feasible(),
            built.verdict.is_feasible(),
            "csp1 spec engine diverged"
        );
        prop_assert_eq!(engine.verdict.is_infeasible(), built.verdict.is_infeasible());
        // Same seed + same deterministic engine ⇒ identical search counters.
        prop_assert_eq!(&engine.search, &built.search);
        prop_assert_eq!(engine.verdict.is_feasible(), reference_feasible(&ts, m));
        if let Some(s) = engine.verdict.schedule() {
            check_identical(&ts, m, s).unwrap();
        }
    }

    #[test]
    fn csp2_engine_matches_builder_under_every_heuristic((ts, m) in arb_instance()) {
        for order in TaskOrder::ALL {
            let legacy = Csp2Solver::new(&ts, m).unwrap().with_order(order).solve();
            let engine = engine_verdict(&Csp2Engine { order }, &ts, m);
            prop_assert_eq!(
                engine.verdict.is_feasible(),
                legacy.verdict.is_feasible(),
                "csp2 {:?} adapter diverged", order
            );
            prop_assert_eq!(&engine.search, &legacy.search,
                "csp2 {:?} explored a different tree", order);
            if let Some(s) = engine.verdict.schedule() {
                check_identical(&ts, m, s).unwrap();
            }
        }
    }

    #[test]
    fn sat_engine_matches_solve_csp1_sat((ts, m) in arb_instance()) {
        let engine = engine_verdict(&Csp1SatEngine::default(), &ts, m);
        let built = engine_verdict(SolverSpec::Csp1Sat.build().as_ref(), &ts, m);
        prop_assert_eq!(
            engine.verdict.is_feasible(),
            built.verdict.is_feasible(),
            "sat spec engine diverged"
        );
        prop_assert_eq!(&engine.search, &built.search);
        prop_assert_eq!(engine.verdict.is_feasible(), reference_feasible(&ts, m));
        if let Some(s) = engine.verdict.schedule() {
            check_identical(&ts, m, s).unwrap();
        }
    }

    #[test]
    fn csp2_generic_engine_matches_free_function((ts, m) in arb_instance()) {
        let engine = engine_verdict(&Csp2GenericEngine::default(), &ts, m);
        let built = engine_verdict(SolverSpec::Csp2Generic.build().as_ref(), &ts, m);
        prop_assert_eq!(
            engine.verdict.is_feasible(),
            built.verdict.is_feasible(),
            "csp2-generic spec engine diverged"
        );
        prop_assert_eq!(&engine.search, &built.search);
        prop_assert_eq!(engine.verdict.is_feasible(), reference_feasible(&ts, m));
        if let Some(s) = engine.verdict.schedule() {
            check_identical(&ts, m, s).unwrap();
        }
    }

    #[test]
    fn local_search_engine_matches_free_function((ts, m) in arb_instance()) {
        for (strategy, spec) in [
            (LsStrategy::MinConflicts, SolverSpec::Local),
            (LsStrategy::Tabu { tenure: 10 }, SolverSpec::LocalTabu),
        ] {
            let budget = Budget { max_decisions: Some(20_000), ..Budget::unlimited() };
            let engine = LocalSearchEngine { strategy, seed: 1 }
                .solve(&ts, m, &budget, &CancelToken::new())
                .unwrap();
            let built = spec
                .build()
                .solve(&ts, m, &budget, &CancelToken::new())
                .unwrap();
            // Same seed, same move budget: identical trajectories.
            prop_assert_eq!(
                engine.verdict.is_feasible(),
                built.verdict.is_feasible(),
                "local-search {:?} spec engine diverged", strategy
            );
            prop_assert_eq!(&engine.search, &built.search);
            // Incomplete: never claims infeasibility, and whatever it finds
            // is a valid schedule of a feasible instance.
            prop_assert!(!engine.verdict.is_infeasible());
            if let Some(s) = engine.verdict.schedule() {
                check_identical(&ts, m, s).unwrap();
                prop_assert!(reference_feasible(&ts, m));
            }
        }
    }

    #[test]
    fn all_exact_backends_agree_with_each_other((ts, m) in arb_instance()) {
        // One verdict per instance, checked through the trait.
        let engines: Vec<Box<dyn FeasibilitySolver>> = vec![
            Box::new(Csp1Engine::default()),
            Box::new(Csp1SatEngine::default()),
            Box::new(Csp2Engine { order: TaskOrder::DeadlineMinusWcet }),
            Box::new(Csp2GenericEngine::default()),
            Box::new(FlowEngine),
        ];
        let reference = engine_verdict(engines[0].as_ref(), &ts, m);
        for engine in &engines[1..] {
            let res = engine_verdict(engine.as_ref(), &ts, m);
            prop_assert!(!res.verdict.is_unknown(), "{} gave no verdict", engine.name());
            if let Some(s) = res.verdict.schedule() {
                check_identical(&ts, m, s).unwrap();
            }
            prop_assert_eq!(
                res.verdict.is_feasible(),
                reference.verdict.is_feasible(),
                "{} disagrees with csp1", engine.name()
            );
        }
    }
}

/// Golden search path of the generic engine's three routes (`csp1` with
/// seed 1, `csp2-generic`, `csp2-learn`) on the first six Table I
/// instances of seed 2009, each under a 500-decision budget: the verdict
/// and the exact search counters. Any change to the engine's search loop
/// that is meant to keep its behaviour must leave every row unchanged.
#[test]
fn generic_engine_search_path_is_pinned() {
    use rt_gen::{GeneratorConfig, ProblemGenerator};

    let engines: [(&str, Box<dyn FeasibilitySolver>); 3] = [
        ("csp1", Box::new(Csp1Engine { seed: 1 })),
        ("csp2-generic", Box::new(Csp2GenericEngine::default())),
        (
            "csp2-learn",
            Box::new(Csp2GenericEngine {
                learning: true,
                ..Csp2GenericEngine::default()
            }),
        ),
    ];
    let budget = Budget {
        max_decisions: Some(500),
        ..Budget::unlimited()
    };
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), 2009);
    let mut got = Vec::new();
    for (i, p) in gen.batch(6).iter().enumerate() {
        for (name, engine) in &engines {
            let res = engine
                .solve(&p.taskset, p.m, &budget, &CancelToken::new())
                .expect("valid instance");
            let verdict = match &res.verdict {
                v if v.is_feasible() => "feasible".to_string(),
                v if v.is_infeasible() => "infeasible".to_string(),
                v => format!("{v:?}"),
            };
            let s = res.search.expect("engine telemetry");
            got.push(format!(
                "{i} {name} {verdict} {} {} {} {} {} {} {} {}",
                s.decisions,
                s.backtracks,
                s.conflicts,
                s.restarts,
                s.learnt_clauses,
                s.propagations,
                s.backjump_sum,
                s.db_reductions,
            ));
        }
    }
    // instance engine verdict decisions backtracks conflicts restarts
    // learnt_clauses propagations backjump_sum db_reductions
    let expected = [
        "0 csp1 Unknown(DecisionLimit) 501 23 0 0 0 7425 0 0",
        "0 csp2-generic Unknown(DecisionLimit) 501 488 0 0 0 19678 0 0",
        "0 csp2-learn Unknown(DecisionLimit) 501 467 467 2 154 19230 154 0",
        "1 csp1 Unknown(DecisionLimit) 501 0 0 0 0 9874 0 0",
        "1 csp2-generic Unknown(DecisionLimit) 501 476 0 0 0 14166 0 0",
        "1 csp2-learn Unknown(DecisionLimit) 501 394 394 2 30 12585 71 0",
        "2 csp1 Unknown(DecisionLimit) 501 0 0 0 0 11575 0 0",
        "2 csp2-generic Unknown(DecisionLimit) 501 463 0 0 0 15528 0 0",
        "2 csp2-learn Unknown(DecisionLimit) 501 296 296 2 121 20056 255 0",
        "3 csp1 Unknown(DecisionLimit) 501 0 0 0 0 11930 0 0",
        "3 csp2-generic Unknown(DecisionLimit) 501 487 0 0 0 18460 0 0",
        "3 csp2-learn Unknown(DecisionLimit) 501 256 256 2 205 19743 374 0",
        "4 csp1 Unknown(DecisionLimit) 501 0 0 0 0 7414 0 0",
        "4 csp2-generic Unknown(DecisionLimit) 501 482 0 0 0 14273 0 0",
        "4 csp2-learn Unknown(DecisionLimit) 501 404 404 2 133 13603 191 0",
        "5 csp1 Unknown(DecisionLimit) 501 0 0 0 0 9087 0 0",
        "5 csp2-generic Unknown(DecisionLimit) 501 479 0 0 0 19559 0 0",
        "5 csp2-learn Unknown(DecisionLimit) 501 400 400 2 220 18487 265 0",
    ];
    assert_eq!(got, expected, "search path changed:\n{}", got.join("\n"));
}
