//! Randomized cross-validation of the heterogeneous extension
//! (Section VI-A): the heterogeneous CSP1 encoding on the generic engine,
//! the specialized heterogeneous CSP2 search, and the SAT route with the
//! pseudo-boolean constraint (11) must all agree on random
//! (task set, rate matrix) pairs, and all schedules must satisfy the
//! rate-weighted completion constraint (11)/(12).

use mgrts_core::csp1::Csp1Config;
use mgrts_core::csp1_sat_hetero::{solve_hetero_sat, HeteroSatConfig};
use mgrts_core::hetero::{solve_csp1_hetero, solve_csp2_hetero, Csp2HeteroConfig};
use mgrts_core::verify::check_heterogeneous;
use rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator, RateMatrixGen};

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
        let cfg = Csp1Config {
            seed: p.seed,
            ..Csp1Config::default()
        };
        let a = solve_csp1_hetero(&p.taskset, &platform, &cfg).unwrap();
        let b = solve_csp2_hetero(&p.taskset, &platform, &Csp2HeteroConfig::default()).unwrap();
        let c = solve_hetero_sat(&p.taskset, &platform, &HeteroSatConfig::default()).unwrap();
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
    // With si,j = 1 everywhere the heterogeneous machinery must agree with
    // the identical-platform CSP2 solver exactly.
    use mgrts_core::csp2::Csp2Solver;
    use rt_platform::Platform;
    let gen = ProblemGenerator::new(tiny_config(), 0x1D);
    for p in gen.batch(40) {
        let platform = Platform::identical(p.taskset.len(), p.m).unwrap();
        let hetero =
            solve_csp2_hetero(&p.taskset, &platform, &Csp2HeteroConfig::default()).unwrap();
        let ident = Csp2Solver::new(&p.taskset, p.m).unwrap().solve();
        assert_eq!(
            hetero.verdict.is_feasible(),
            ident.verdict.is_feasible(),
            "identical-rate reduction failed on seed {}",
            p.seed
        );
    }
}

#[test]
fn work_conserving_mode_is_a_sound_accelerator_for_sat() {
    // The aggressive idle-avoidance rule may miss feasible schedules (see
    // module docs) but must never fabricate one: anything it returns
    // verifies, and whenever it says feasible the complete search agrees.
    let gen = ProblemGenerator::new(tiny_config(), 0xAC);
    let rates = RateMatrixGen {
        max_rate: 2,
        forbid_prob: 0.15,
    };
    for p in gen.batch(50) {
        let platform = rates.generate(p.taskset.len(), p.m, p.seed ^ 1);
        let aggressive = solve_csp2_hetero(
            &p.taskset,
            &platform,
            &Csp2HeteroConfig {
                work_conserving: true,
                ..Default::default()
            },
        )
        .unwrap();
        if let Some(s) = aggressive.verdict.schedule() {
            check_heterogeneous(&p.taskset, &platform, s).unwrap();
            let complete =
                solve_csp2_hetero(&p.taskset, &platform, &Csp2HeteroConfig::default()).unwrap();
            assert!(complete.verdict.is_feasible());
        }
    }
}
