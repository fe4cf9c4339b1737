//! Extension experiment: quantile budget sizing recovers infeasible
//! instances.
//!
//! Instances that are infeasible when every task is budgeted at its WCET
//! can become feasible at the 90th-percentile budget, at the price of a
//! bounded per-job overrun probability. This binary takes the Table-I
//! workload's infeasible instances (under a uniform(1, WCET) execution
//! model), sweeps the confidence level `q`, and reports the fraction
//! recovered — the feasibility-versus-confidence tradeoff curve.
//!
//! Run with: `cargo run --release -p mgrts-bench --bin ext_budget -- [flags]`

use mgrts_bench::runner::run;
use mgrts_bench::{Args, InstanceOutcome};
use mgrts_core::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec, SolverSpec};
use mgrts_core::heuristics::TaskOrder;
use rt_gen::{GeneratorConfig, ProblemGenerator};
use rt_prob::{quantile_budgets, with_budgets, ExecModel};
use rt_task::TaskSet;

/// The exact verdict of `engine` on `m` identical processors: `Some(true)`
/// feasible, `Some(false)` infeasible, `None` past the time limit.
fn feasible(engine: &dyn FeasibilitySolver, ts: &TaskSet, m: usize, args: &Args) -> Option<bool> {
    let budget = Budget::time_limit(args.time_limit);
    match run(
        ts,
        &PlatformSpec::identical(m),
        engine,
        &budget,
        &CancelToken::new(),
    )
    .0
    {
        InstanceOutcome::Solved => Some(true),
        InstanceOutcome::ProvedInfeasible => Some(false),
        _ => None,
    }
}

fn main() {
    let args = Args::parse();
    eprintln!(
        "EXT-BUDGET: {} instances (m=5, n=10, Tmax=7), seed {}",
        args.instances, args.seed
    );
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), args.seed);
    let exact = SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet).build();
    // Collect instances that are decidedly infeasible at WCET budgets.
    let mut infeasible = Vec::new();
    for p in gen.batch(args.instances) {
        if feasible(&*exact, &p.taskset, p.m, &args) == Some(false) {
            infeasible.push(p);
        }
    }
    eprintln!("{} WCET-infeasible instances", infeasible.len());

    println!("\nFEASIBILITY RECOVERED BY QUANTILE BUDGETS (uniform(1,WCET) model)\n");
    println!(
        "{:>6} {:>10} {:>12} {:>20}",
        "q", "recovered", "recovered %", "worst job overrun"
    );
    for q in [0.5, 0.7, 0.8, 0.9, 0.95, 1.0] {
        let mut recovered = 0u64;
        let mut worst = 0.0f64;
        for p in &infeasible {
            let model = ExecModel::uniform_to_wcet(&p.taskset);
            let budgets = quantile_budgets(&model, q);
            for (i, &b) in budgets.iter().enumerate() {
                worst = worst.max(model.pmf(i).exceedance(b));
            }
            let Ok(resized) = with_budgets(&p.taskset, &budgets) else {
                continue;
            };
            if feasible(&*exact, &resized, p.m, &args) == Some(true) {
                recovered += 1;
            }
        }
        println!(
            "{q:>6.2} {recovered:>10} {:>11.1}% {worst:>20.3}",
            100.0 * recovered as f64 / infeasible.len().max(1) as f64
        );
    }
}
