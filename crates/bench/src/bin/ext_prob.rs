//! Extension experiment: probabilistic execution times on CSP schedules
//! (the paper's Section VIII long-term objective).
//!
//! Takes feasible Table-I instances, schedules them with CSP2+(D-C), then
//! sweeps a two-point overrun model (`P(overrun) = p`, overrun = 2×WCET)
//! and reports the mean per-hyperperiod deadline-miss probability, exact
//! and Monte-Carlo. Under the paper's idling policy the analysis is exact,
//! so the two columns must agree to sampling error.
//!
//! Run with: `cargo run --release -p mgrts-bench --bin ext_prob -- [flags]`

use mgrts_bench::Args;
use mgrts_core::engine::{Budget, CancelToken, PlatformSpec, SolverSpec};
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::verify;
use rt_gen::{GeneratorConfig, ProblemGenerator};
use rt_prob::{analyze_all, hyperperiod_miss_probability, ExecModel, McConfig};

fn main() {
    let args = Args::parse();
    let want = (args.instances / 10).clamp(5, 50) as usize;
    eprintln!(
        "EXT-PROB: first {want} feasible Table-I instances, seed {}",
        args.seed
    );
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), args.seed);
    let exact = SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet).build();
    let budget = Budget::time_limit(args.time_limit);
    let mut schedules = Vec::new();
    for p in gen.batch(args.instances) {
        if schedules.len() >= want {
            break;
        }
        let spec = PlatformSpec::identical(p.m);
        let res = exact
            .solve_on(&p.taskset, &spec, &budget, &CancelToken::new())
            .expect("generated instances are valid task sets");
        if let Some(s) = res.verdict.schedule() {
            verify::check(&p.taskset, &spec, s)
                .unwrap_or_else(|e| panic!("CSP2+(D-C) produced an invalid schedule: {e}"));
            schedules.push((p.taskset.clone(), s.clone()));
        }
    }
    eprintln!("collected {} schedules", schedules.len());

    println!("\nDEADLINE-MISS PROBABILITY vs OVERRUN PROBABILITY (overrun = 2x WCET)\n");
    println!(
        "{:>10} {:>16} {:>16}",
        "p(overrun)", "exact mean", "monte-carlo mean"
    );
    for p_over in [0.001, 0.01, 0.05, 0.1, 0.2] {
        let mut exact_sum = 0.0;
        let mut mc_sum = 0.0;
        for (ts, schedule) in &schedules {
            let model = ExecModel::with_overruns(ts, p_over, 2.0);
            let timings = analyze_all(ts, schedule, &model).expect("constrained");
            exact_sum += hyperperiod_miss_probability(&timings);
            let mc = rt_prob::monte_carlo_run(
                ts,
                schedule,
                &model,
                &McConfig {
                    rounds: 2_000,
                    seed: args.seed,
                },
            )
            .expect("constrained");
            mc_sum += mc.hyperperiod_miss_rate();
        }
        let k = schedules.len() as f64;
        println!(
            "{:>10.3} {:>16.6} {:>16.6}",
            p_over,
            exact_sum / k,
            mc_sum / k
        );
    }

    // Early-completion dividend: expected reclaimable idle under a
    // uniform(1, WCET) model.
    let mut idle_sum = 0.0;
    let mut slots_sum = 0.0;
    for (ts, schedule) in &schedules {
        let model = ExecModel::uniform_to_wcet(ts);
        let timings = analyze_all(ts, schedule, &model).expect("constrained");
        idle_sum += rt_prob::expected_idle_per_hyperperiod(&timings, &model);
        slots_sum += timings
            .iter()
            .map(|t| t.allocation.len() as f64)
            .sum::<f64>();
    }
    println!(
        "\nuniform(1,WCET) model: expected reclaimable idle = {:.1}% of allocated slots",
        100.0 * idle_sum / slots_sum
    );
}
