//! Cross-validation of all solvers on random instances — the paper's own
//! methodology industrialized: "the first implementation (CSP1 …) has
//! helped debugging the second implementation (CSP2) by comparing their
//! respective results: some bugs are rare and hardly noticeable"
//! (Section VII).
//!
//! Every solver must agree on feasibility, every definitive verdict must
//! match the exact max-flow oracle, every produced schedule must pass the
//! independent C1–C4 verifier, and the exact solvers must agree with the
//! necessary-condition prechecks.

use mgrts_core::csp2::Csp2Solver;
use mgrts_core::engine::{
    Budget, CancelToken, Csp1Engine, Csp2GenericEngine, FeasibilitySolver, LocalSearchEngine,
};
use mgrts_core::flow::FlowEngine;
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::verify::check_identical;
use mgrts_core::SolveResult;
use rt_gen::{GeneratorConfig, MSpec, ParamOrder, Problem, ProblemGenerator};
use rt_task::demand::{demand_precheck, Precheck};

fn small_config() -> GeneratorConfig {
    GeneratorConfig {
        n: 4,
        m: MSpec::Fixed(2),
        t_max: 4,
        order: ParamOrder::DeadlineFirst,
        synchronous: false,
    }
}

/// CSP1's decision budget in the default sweep. Unbudgeted, CSP1 needs
/// 16 million and 3 million decisions on two infeasible instances of the
/// stream (n = 4, m = 2, H = 12), about ten minutes of a debug build,
/// where CSP2 takes milliseconds. Under this budget the sweep costs CSP1
/// about 150 thousand decisions in all.
const CSP1_DECISIONS: u64 = 20_000;

/// Instances of the stream CSP1 decides within [`CSP1_DECISIONS`]: all
/// but the five that need more decisions.
const CSP1_DECIDED: usize = 195;

/// The exact verdict on `p`, from the max-flow backend: always definitive
/// on identical platforms, and its `Infeasible` carries a checked cut.
fn flow_verdict(p: &Problem) -> bool {
    let exact = FlowEngine
        .solve(&p.taskset, p.m, &Budget::unlimited(), &CancelToken::new())
        .unwrap();
    assert!(
        !exact.verdict.is_unknown(),
        "flow undecided on seed {}",
        p.seed
    );
    exact.verdict.is_feasible()
}

/// Assert that `res`, when definitive, matches the flow verdict `exact`.
fn agrees_with_flow(name: &str, res: &SolveResult, exact: bool, p: &Problem) {
    if !res.verdict.is_unknown() {
        assert_eq!(
            res.verdict.is_feasible(),
            exact,
            "{name} vs flow disagree on seed {}",
            p.seed
        );
    }
}

/// Solve the 200-instance stream with specialized CSP2, CSP1 (under
/// `csp1_decisions`, when given) and CSP2 on the generic engine. Every
/// verdict CSP1 reaches, and every generic verdict, must match CSP2's and
/// flow's, and every schedule must pass C1–C4. Returns how many instances
/// CSP1 decided.
fn exact_solvers_agree(csp1_decisions: Option<u64>) -> usize {
    let gen = ProblemGenerator::new(small_config(), 0xC5F1);
    let csp1_budget = Budget {
        max_decisions: csp1_decisions,
        ..Budget::unlimited()
    };
    let mut feasible = 0;
    let mut infeasible = 0;
    let mut csp1_decided = 0;
    for p in gen.batch(200) {
        let csp2 = Csp2Solver::new(&p.taskset, p.m)
            .unwrap()
            .with_order(TaskOrder::DeadlineMinusWcet)
            .solve();
        let csp1 = Csp1Engine::default()
            .solve(&p.taskset, p.m, &csp1_budget, &CancelToken::new())
            .unwrap();
        let generic = Csp2GenericEngine::default()
            .solve(&p.taskset, p.m, &Budget::unlimited(), &CancelToken::new())
            .unwrap();

        let f2 = csp2.verdict.is_feasible();
        if !csp1.verdict.is_unknown() {
            csp1_decided += 1;
            let f1 = csp1.verdict.is_feasible();
            assert_eq!(f1, f2, "CSP1 vs CSP2 disagree on seed {}", p.seed);
        }
        let fg = generic.verdict.is_feasible();
        assert_eq!(fg, f2, "generic CSP2 vs CSP2 disagree on seed {}", p.seed);

        let exact = flow_verdict(&p);
        for (name, res) in [("csp1", &csp1), ("csp2", &csp2), ("generic", &generic)] {
            agrees_with_flow(name, res, exact, &p);
            if let Some(s) = res.verdict.schedule() {
                check_identical(&p.taskset, p.m, s)
                    .unwrap_or_else(|e| panic!("{name} schedule invalid on seed {}: {e}", p.seed));
            }
        }
        if f2 {
            feasible += 1;
        } else {
            infeasible += 1;
        }
    }
    // The workload should exercise both verdicts, otherwise the test is
    // vacuous.
    assert!(feasible >= 20, "only {feasible} feasible instances");
    assert!(infeasible >= 20, "only {infeasible} infeasible instances");
    csp1_decided
}

#[test]
fn all_exact_solvers_agree_on_200_random_instances() {
    assert_eq!(exact_solvers_agree(Some(CSP1_DECISIONS)), CSP1_DECIDED);
}

/// The same sweep with CSP1 unbudgeted, so it must decide every instance:
/// about a minute in a release build, which is how CI runs it.
#[test]
#[ignore = "minutes of CSP1 search in a debug build; run with --release -- --ignored"]
fn all_exact_solvers_agree_on_200_random_instances_unbudgeted() {
    assert_eq!(exact_solvers_agree(None), 200);
}

#[test]
fn every_heuristic_agrees_with_the_reference() {
    let gen = ProblemGenerator::new(small_config(), 0xBEEF);
    for p in gen.batch(60) {
        let reference = Csp2Solver::new(&p.taskset, p.m).unwrap().solve();
        for order in TaskOrder::ALL {
            let res = Csp2Solver::new(&p.taskset, p.m)
                .unwrap()
                .with_order(order)
                .solve();
            assert_eq!(
                res.verdict.is_feasible(),
                reference.verdict.is_feasible(),
                "heuristic {order:?} changes the verdict on seed {}",
                p.seed
            );
            if let Some(s) = res.verdict.schedule() {
                check_identical(&p.taskset, p.m, s).unwrap();
            }
        }
    }
}

#[test]
fn prechecks_never_contradict_the_exact_solver() {
    let gen = ProblemGenerator::new(small_config(), 0xFEED);
    for p in gen.batch(150) {
        let res = Csp2Solver::new(&p.taskset, p.m).unwrap().solve();
        match demand_precheck(&p.taskset, p.m) {
            Precheck::UtilizationExceeded | Precheck::WindowOverload { .. } => {
                assert!(
                    res.verdict.is_infeasible(),
                    "precheck claimed infeasible but CSP2 found a schedule (seed {})",
                    p.seed
                );
            }
            Precheck::Unknown => {}
        }
    }
}

#[test]
fn local_search_only_finds_genuinely_feasible_instances() {
    let gen = ProblemGenerator::new(small_config(), 0xAB);
    for p in gen.batch(40) {
        let budget = Budget {
            max_decisions: Some(20_000),
            ..Budget::unlimited()
        };
        let ls = LocalSearchEngine::default()
            .solve(&p.taskset, p.m, &budget, &CancelToken::new())
            .unwrap();
        if let Some(s) = ls.verdict.schedule() {
            check_identical(&p.taskset, p.m, s).unwrap();
            let exact = Csp2Solver::new(&p.taskset, p.m).unwrap().solve();
            assert!(
                exact.verdict.is_feasible(),
                "local search found a schedule the exact solver says cannot exist (seed {})",
                p.seed
            );
        }
    }
}

#[test]
fn table1_sized_instances_solve_under_csp2_dc() {
    // The paper's workload shape: n = 10, m = 5, Tmax = 7. CSP2+(D-C)
    // should dispatch these fast; give each a generous decision budget and
    // demand a verdict (not Unknown) on a majority. A decision budget, not
    // a wall clock, so the outcome is the same on any machine and in any
    // build profile: the decided instances need at most ~45k decisions.
    // Every verdict it gives must match the exact max-flow oracle.
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), 0x2009);
    let mut decided = 0;
    let total = 30;
    for p in gen.batch(total) {
        let res = Csp2Solver::new(&p.taskset, p.m)
            .unwrap()
            .with_order(TaskOrder::DeadlineMinusWcet)
            .with_budget(Budget {
                max_decisions: Some(100_000),
                ..Budget::unlimited()
            })
            .solve();
        agrees_with_flow("csp2-dc", &res, flow_verdict(&p), &p);
        if !res.verdict.is_unknown() {
            decided += 1;
            if let Some(s) = res.verdict.schedule() {
                check_identical(&p.taskset, p.m, s).unwrap();
            }
        }
    }
    assert!(
        decided * 10 >= total * 7,
        "CSP2+(D-C) decided only {decided}/{total} paper-sized instances"
    );
}
