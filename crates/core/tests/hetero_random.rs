//! Randomized cross-validation of the heterogeneous extension
//! (Section VI-A): the heterogeneous CSP1 encoding on the generic engine,
//! the specialized CSP2 search on rate matrices, and the SAT route with the
//! pseudo-boolean constraint (11) must all agree on random
//! (task set, rate matrix) pairs, and all schedules must satisfy the
//! rate-weighted completion constraint (11)/(12).

use mgrts_core::engine::{
    Budget, CancelToken, Csp1Engine, Csp1SatEngine, Csp2Engine, FeasibilitySolver, PlatformSpec,
};
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::verify::check_heterogeneous;
use mgrts_core::SolveResult;
use rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator, RateMatrixGen};
use rt_platform::Platform;
use rt_task::TaskSet;

fn solve(engine: &dyn FeasibilitySolver, ts: &TaskSet, platform: &Platform) -> SolveResult {
    let spec = PlatformSpec::Heterogeneous(platform.clone());
    engine
        .solve_on(ts, &spec, &Budget::unlimited(), &CancelToken::new())
        .unwrap()
}

/// The heterogeneous specialized search under the D-C heuristic.
const CSP2_DC: Csp2Engine = Csp2Engine {
    order: TaskOrder::DeadlineMinusWcet,
};

fn tiny_config() -> GeneratorConfig {
    GeneratorConfig {
        n: 3,
        m: MSpec::Fixed(2),
        t_max: 3,
        order: ParamOrder::DeadlineFirst,
        synchronous: false,
    }
}

#[test]
fn encodings_agree_on_random_heterogeneous_instances() {
    let gen = ProblemGenerator::new(tiny_config(), 0x4E7);
    let rates = RateMatrixGen {
        max_rate: 2,
        forbid_prob: 0.2,
    };
    let mut feasible = 0;
    let mut infeasible = 0;
    for (idx, p) in gen.batch(80).into_iter().enumerate() {
        let platform = rates.generate(p.taskset.len(), p.m, p.seed);
        let a = solve(&Csp1Engine { seed: p.seed }, &p.taskset, &platform);
        let b = solve(&CSP2_DC, &p.taskset, &platform);
        let c = solve(&Csp1SatEngine::default(), &p.taskset, &platform);
        assert_eq!(
            a.verdict.is_feasible(),
            b.verdict.is_feasible(),
            "hetero encodings disagree on instance {idx} (seed {})",
            p.seed
        );
        assert_eq!(
            c.verdict.is_feasible(),
            b.verdict.is_feasible(),
            "hetero SAT route disagrees on instance {idx} (seed {})",
            p.seed
        );
        for (name, res) in [("csp1", &a), ("csp2", &b), ("sat", &c)] {
            if let Some(s) = res.verdict.schedule() {
                check_heterogeneous(&p.taskset, &platform, s).unwrap_or_else(|e| {
                    panic!("{name} invalid hetero schedule on instance {idx}: {e}")
                });
            }
        }
        if a.verdict.is_feasible() {
            feasible += 1;
        } else {
            infeasible += 1;
        }
    }
    assert!(
        feasible >= 10,
        "only {feasible} feasible — workload too hard"
    );
    assert!(
        infeasible >= 10,
        "only {infeasible} infeasible — workload too easy"
    );
}

#[test]
fn unit_rate_matrices_match_identical_solver_when_fully_eligible() {
    // With si,j = 1 everywhere the heterogeneous search must reach the
    // identical-platform verdict under every heuristic. The trees differ:
    // the rate-matrix view keeps idle as an alternative in every slot,
    // where rule 1 auto-idles only an instant with no work left.
    use mgrts_core::csp2::Csp2Solver;
    use mgrts_core::verify::check_identical;
    let gen = ProblemGenerator::new(tiny_config(), 0x1D);
    for p in gen.batch(40) {
        let platform = Platform::identical(p.taskset.len(), p.m).unwrap();
        for order in TaskOrder::ALL {
            let hetero = solve(&Csp2Engine { order }, &p.taskset, &platform);
            let ident = Csp2Solver::new(&p.taskset, p.m)
                .unwrap()
                .with_order(order)
                .solve();
            assert_eq!(
                hetero.verdict.is_feasible(),
                ident.verdict.is_feasible(),
                "identical-rate reduction failed on seed {} under {order:?}",
                p.seed
            );
            if let Some(s) = hetero.verdict.schedule() {
                check_heterogeneous(&p.taskset, &platform, s).unwrap();
            }
            if let Some(s) = ident.verdict.schedule() {
                check_identical(&p.taskset, p.m, s).unwrap();
            }
        }
    }
}
