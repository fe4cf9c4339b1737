//! Extension experiment: local-search strategy ablation (the paper's
//! Section VIII first future-work bullet).
//!
//! On the Table-I workload, each incomplete strategy (min-conflicts, tabu,
//! simulated annealing) gets the same move budget; the exact CSP2+(D-C)
//! solver provides ground truth. Reported per strategy: how many feasible
//! instances it solves, and its mean move count on solved instances.
//! Local search never decides infeasible instances, so the interesting
//! denominator is the feasible subset.
//!
//! Run with: `cargo run --release -p mgrts-bench --bin ext_local -- [flags]`

use mgrts_bench::runner::run;
use mgrts_bench::{Args, InstanceOutcome};
use mgrts_core::engine::{Budget, CancelToken, PlatformSpec, SolverSpec};
use mgrts_core::heuristics::TaskOrder;
use rt_gen::{GeneratorConfig, ProblemGenerator};

fn main() {
    let args = Args::parse();
    eprintln!(
        "EXT-LOCAL: {} instances (m=5, n=10, Tmax=7), seed {}",
        args.instances, args.seed
    );
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), args.seed);
    let exact = SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet).build();
    let exact_budget = Budget::time_limit(args.time_limit);
    let mut feasible = Vec::new();
    for p in gen.batch(args.instances) {
        let spec = PlatformSpec::identical(p.m);
        let (verdict, _, _) = run(
            &p.taskset,
            &spec,
            &*exact,
            &exact_budget,
            &CancelToken::new(),
        );
        if verdict == InstanceOutcome::Solved {
            feasible.push(p);
        }
    }
    eprintln!("{} feasible instances form the benchmark", feasible.len());

    // Tabu tenure 10; annealing from t0 = 2.0, cooling 0.9995 per move.
    let strategies = [
        ("min-conflicts", SolverSpec::Local),
        ("tabu(10)", SolverSpec::LocalTabu),
        ("annealing", SolverSpec::LocalSa),
    ];
    let move_budget = Budget {
        max_decisions: Some(100_000),
        ..Budget::default()
    };

    println!(
        "\nLOCAL-SEARCH ABLATION on {} feasible instances\n",
        feasible.len()
    );
    println!(
        "{:<14} {:>7} {:>10} {:>16}",
        "strategy", "solved", "solve %", "mean moves"
    );
    for (label, strategy) in strategies {
        let mut solved = 0u64;
        let mut moves = 0u64;
        for p in &feasible {
            let (verdict, _, search) = run(
                &p.taskset,
                &PlatformSpec::identical(p.m),
                &*strategy.build_seeded(p.seed),
                &move_budget,
                &CancelToken::new(),
            );
            if verdict == InstanceOutcome::Solved {
                solved += 1;
                moves += search.map_or(0, |s| s.decisions);
            }
        }
        let pct = 100.0 * solved as f64 / feasible.len().max(1) as f64;
        let mean = if solved == 0 {
            0.0
        } else {
            moves as f64 / solved as f64
        };
        println!("{label:<14} {solved:>7} {pct:>9.1}% {mean:>16.0}");
    }
}
