//! Extension experiment: filtering power of the polynomial schedulability
//! battery on the paper's Table-I workload.
//!
//! The paper filters only by `r > 1` (Table II). `rt-analysis` adds the
//! P-fair exact condition, the density test, GFB and the window-demand
//! filter; this binary measures how many of the 500 instances each test
//! decides, and audits every decision against the exact CSP2 solver.
//!
//! Run with: `cargo run --release -p mgrts-bench --bin ext_filter -- [flags]`

use std::collections::BTreeMap;

use mgrts_bench::runner::run;
use mgrts_bench::{Args, InstanceOutcome};
use mgrts_core::engine::{Budget, CancelToken, PlatformSpec, SolverSpec};
use mgrts_core::heuristics::TaskOrder;
use rt_analysis::{analyze, TestOutcome};
use rt_gen::{GeneratorConfig, ProblemGenerator};

fn main() {
    let args = Args::parse();
    eprintln!(
        "EXT-FILTER: {} instances (m=5, n=10, Tmax=7), seed {}",
        args.instances, args.seed
    );
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), args.seed);
    let problems = gen.batch(args.instances);
    let exact = SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet).build();
    let budget = Budget::time_limit(args.time_limit);

    let mut decided_by: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut feasible = 0u64;
    let mut infeasible = 0u64;
    let mut undecided = 0u64;
    let mut audited = 0u64;
    let mut audit_failures = 0u64;

    for p in &problems {
        let report = analyze(&p.taskset, p.m);
        assert!(report.is_consistent(), "battery contradiction");
        match report.verdict() {
            TestOutcome::Feasible | TestOutcome::Infeasible => {
                *decided_by.entry(report.decided_by().unwrap()).or_insert(0) += 1;
                if report.verdict() == TestOutcome::Feasible {
                    feasible += 1;
                } else {
                    infeasible += 1;
                }
                // Audit against the exact solver (budgeted; skip overruns).
                let (verdict, _, _) = run(
                    &p.taskset,
                    &PlatformSpec::identical(p.m),
                    &*exact,
                    &budget,
                    &CancelToken::new(),
                );
                if matches!(
                    verdict,
                    InstanceOutcome::Solved | InstanceOutcome::ProvedInfeasible
                ) {
                    audited += 1;
                    let claim_feasible = report.verdict() == TestOutcome::Feasible;
                    if claim_feasible != (verdict == InstanceOutcome::Solved) {
                        audit_failures += 1;
                        eprintln!("AUDIT FAILURE on seed {}", p.seed);
                    }
                }
            }
            _ => undecided += 1,
        }
    }

    let total = problems.len() as u64;
    println!("\nFILTERING POWER OF THE ANALYTIC BATTERY (Table-I workload)\n");
    println!("{:<16} {:>9}", "decided by", "instances");
    for (name, count) in &decided_by {
        println!("{name:<16} {count:>9}");
    }
    println!(
        "\ndecided {}/{} ({:.1}%): {} feasible, {} infeasible; {} left to exact search",
        total - undecided,
        total,
        100.0 * (total - undecided) as f64 / total as f64,
        feasible,
        infeasible,
        undecided
    );
    println!("audited against CSP2+(D-C): {audited} decided instances, {audit_failures} failures");
    assert_eq!(
        audit_failures, 0,
        "analytic battery contradicted the exact solver"
    );
}
