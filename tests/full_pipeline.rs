//! Whole-workspace pipeline test: generate → analyze → solve with every
//! exact solver → verify → probabilistic post-analysis. This is the
//! downstream-user path end to end, across all crates through the facade.

use mgrts::mgrts_core::csp2::Csp2Solver;
use mgrts::mgrts_core::engine::{
    Budget, CancelToken, Csp1Engine, Csp1SatEngine, FeasibilitySolver,
};
use mgrts::mgrts_core::heuristics::TaskOrder;
use mgrts::mgrts_core::verify::check_identical;
use mgrts::rt_analysis::{analyze, TestOutcome};
use mgrts::rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator};
use mgrts::rt_prob::{analyze_all, hyperperiod_miss_probability, ExecModel, McConfig};

#[test]
fn generate_analyze_solve_verify_probabilize() {
    let cfg = GeneratorConfig {
        n: 4,
        m: MSpec::Fixed(2),
        t_max: 4,
        order: ParamOrder::DeadlineFirst,
        synchronous: false,
    };
    let gen = ProblemGenerator::new(cfg, 0xF1FE);
    let mut feasible_seen = 0;
    let mut analytic_decided = 0;

    for p in gen.batch(60) {
        // 1. Analytic battery first.
        let report = analyze(&p.taskset, p.m);
        assert!(report.is_consistent(), "seed {}", p.seed);

        // 2. Exact solvers must agree with each other (and the battery).
        let csp2 = Csp2Solver::new(&p.taskset, p.m)
            .unwrap()
            .with_order(TaskOrder::DeadlineMinusWcet)
            .solve();
        let budget = Budget::unlimited();
        let csp1 = Csp1Engine::default()
            .solve(&p.taskset, p.m, &budget, &CancelToken::new())
            .unwrap();
        let sat = Csp1SatEngine::default()
            .solve(&p.taskset, p.m, &budget, &CancelToken::new())
            .unwrap();
        assert_eq!(
            csp1.verdict.is_feasible(),
            csp2.verdict.is_feasible(),
            "seed {}",
            p.seed
        );
        assert_eq!(
            sat.verdict.is_feasible(),
            csp2.verdict.is_feasible(),
            "seed {}",
            p.seed
        );
        match report.verdict() {
            TestOutcome::Feasible => {
                analytic_decided += 1;
                assert!(csp2.verdict.is_feasible(), "seed {}", p.seed);
            }
            TestOutcome::Infeasible => {
                analytic_decided += 1;
                assert!(csp2.verdict.is_infeasible(), "seed {}", p.seed);
            }
            _ => {}
        }

        // 3. Verify + probabilistic post-analysis on feasible instances.
        if let Some(schedule) = csp2.verdict.schedule() {
            feasible_seen += 1;
            check_identical(&p.taskset, p.m, schedule).unwrap();

            let model = ExecModel::with_overruns(&p.taskset, 0.1, 2.0);
            let timings = analyze_all(&p.taskset, schedule, &model).unwrap();
            let exact = hyperperiod_miss_probability(&timings);
            assert!(exact > 0.0 && exact < 1.0, "seed {}", p.seed);

            // Per-job miss probability under the two-point model is 0.1.
            for t in &timings {
                assert!((t.miss_prob - 0.1).abs() < 1e-9);
            }

            // Monte-Carlo agrees within loose sampling error.
            let mc = mgrts::rt_prob::monte_carlo_run(
                &p.taskset,
                schedule,
                &model,
                &McConfig {
                    rounds: 2_000,
                    seed: p.seed,
                },
            )
            .unwrap();
            assert!(
                (mc.hyperperiod_miss_rate() - exact).abs() < 0.08,
                "seed {}: mc {} vs exact {exact}",
                p.seed,
                mc.hyperperiod_miss_rate()
            );
        }
    }
    assert!(
        feasible_seen >= 10,
        "only {feasible_seen} feasible instances"
    );
    assert!(
        analytic_decided >= 10,
        "battery decided only {analytic_decided}"
    );
}

#[test]
fn quantile_budgets_integrate_with_exact_search() {
    use mgrts::rt_prob::{quantile_budgets, with_budgets};
    use mgrts::rt_task::TaskSet;

    // WCET-infeasible, quantile-recoverable.
    let ts = TaskSet::from_ocdt(&[(0, 2, 2, 2), (0, 2, 2, 2), (0, 2, 2, 2)]);
    assert!(Csp2Solver::new(&ts, 2)
        .unwrap()
        .solve()
        .verdict
        .is_infeasible());

    let model = ExecModel::uniform_to_wcet(&ts); // X ∈ {1, 2} uniformly
    let budgets = quantile_budgets(&model, 0.5);
    assert_eq!(budgets, vec![1, 1, 1]);
    let resized = with_budgets(&ts, &budgets).unwrap();
    let res = Csp2Solver::new(&resized, 2).unwrap().solve();
    let schedule = res.verdict.schedule().expect("resized instance feasible");
    check_identical(&resized, 2, schedule).unwrap();

    // The miss probability under the original model and reduced budgets is
    // exactly P(X = 2) = 0.5 per job.
    let timings = analyze_all(&resized, schedule, &model).unwrap();
    for t in &timings {
        assert!((t.miss_prob - 0.5).abs() < 1e-9);
    }
}
