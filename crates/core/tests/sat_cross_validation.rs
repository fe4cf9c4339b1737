//! Cross-validation of the SAT route (CSP1 → CNF → CDCL) against the
//! specialized CSP2 solver and, at Table I size, the exact max-flow
//! oracle, extending the paper's debugging methodology to a third
//! independent implementation: solvers sharing no search code must agree
//! on every random instance.

use mgrts_core::csp2::Csp2Solver;
use mgrts_core::engine::{Budget, CancelToken, Csp1SatEngine, FeasibilitySolver};
use mgrts_core::flow::FlowEngine;
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::verify::check_identical;
use mgrts_core::SolveResult;
use rt_gen::{GeneratorConfig, MSpec, ParamOrder, Problem, ProblemGenerator};
use rt_sat::AmoEncoding;

fn solve_sat(p: &Problem, amo: AmoEncoding, budget: &Budget) -> SolveResult {
    Csp1SatEngine { amo }
        .solve(&p.taskset, p.m, budget, &CancelToken::new())
        .unwrap()
}

fn small_config() -> GeneratorConfig {
    GeneratorConfig {
        n: 4,
        m: MSpec::Fixed(2),
        t_max: 4,
        order: ParamOrder::DeadlineFirst,
        synchronous: false,
    }
}

#[test]
fn sat_route_agrees_with_csp2_on_200_random_instances() {
    let gen = ProblemGenerator::new(small_config(), 0x5A7);
    let mut feasible = 0;
    for p in gen.batch(200) {
        let csp2 = Csp2Solver::new(&p.taskset, p.m)
            .unwrap()
            .with_order(TaskOrder::DeadlineMinusWcet)
            .solve();
        let sat = solve_sat(&p, AmoEncoding::Pairwise, &Budget::unlimited());
        assert_eq!(
            sat.verdict.is_feasible(),
            csp2.verdict.is_feasible(),
            "SAT vs CSP2 disagree on seed {}",
            p.seed
        );
        if let Some(s) = sat.verdict.schedule() {
            check_identical(&p.taskset, p.m, s)
                .unwrap_or_else(|e| panic!("SAT schedule invalid on seed {}: {e}", p.seed));
            feasible += 1;
        }
    }
    assert!(feasible >= 20, "only {feasible} feasible instances");
}

#[test]
fn both_amo_encodings_agree() {
    let gen = ProblemGenerator::new(small_config(), 0xA770);
    for p in gen.batch(80) {
        let pairwise = solve_sat(&p, AmoEncoding::Pairwise, &Budget::unlimited());
        let ladder = solve_sat(&p, AmoEncoding::Ladder, &Budget::unlimited());
        assert_eq!(
            pairwise.verdict.is_feasible(),
            ladder.verdict.is_feasible(),
            "AMO encodings disagree on seed {}",
            p.seed
        );
        for res in [&pairwise, &ladder] {
            if let Some(s) = res.verdict.schedule() {
                check_identical(&p.taskset, p.m, s).unwrap();
            }
        }
    }
}

#[test]
fn sat_route_solves_paper_sized_instances() {
    // Table-I shape (n = 10, m = 5, Tmax = 7): the CDCL solver should
    // decide a clear majority within a modest conflict budget, every
    // feasible instance among them, and agree with the exact max-flow
    // oracle on each verdict it gives. The budget sits above the
    // conflicts any feasible instance of this stream needs (14 298 at
    // most) and below the infeasible stragglers' (23 550 and up).
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), 0x2009);
    let total = 20;
    let mut decided = 0;
    for p in gen.batch(total) {
        let budget = Budget {
            max_conflicts: Some(15_000),
            ..Budget::unlimited()
        };
        let res = solve_sat(&p, AmoEncoding::Pairwise, &budget);
        let exact = FlowEngine
            .solve(&p.taskset, p.m, &Budget::unlimited(), &CancelToken::new())
            .unwrap();
        assert!(
            !exact.verdict.is_unknown(),
            "flow undecided on seed {}",
            p.seed
        );
        if exact.verdict.is_feasible() {
            assert!(
                res.verdict.is_feasible(),
                "SAT route missed a feasible instance (seed {}): {:?}",
                p.seed,
                res.verdict
            );
        }
        if !res.verdict.is_unknown() {
            decided += 1;
            assert_eq!(
                res.verdict.is_feasible(),
                exact.verdict.is_feasible(),
                "SAT vs flow disagree on seed {}",
                p.seed
            );
            if let Some(s) = res.verdict.schedule() {
                check_identical(&p.taskset, p.m, s).unwrap();
            }
        }
    }
    assert!(
        decided * 10 >= total * 7,
        "SAT route decided only {decided}/{total} paper-sized instances"
    );
}
