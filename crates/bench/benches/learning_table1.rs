//! Clause learning on the paper's own cell: `csp2-learn` (the generic
//! CSP2 model with lazy clause generation) on Table I instances
//! (n = 10, m = 5, Tmax = 7) under a 500-decision budget. Unlike the
//! synthetic pigeonhole cells of `csp-engine`'s `learning` bench, most
//! conflicts here are analyzed through the scope-snapshot fallback of
//! constraint (9), so this bench tracks the cost of conflict analysis
//! on the workload that matters. Each solve includes encoding and solver
//! construction. Besides the criterion median it prints conflicts per
//! second (the conflict count is deterministic, so only time varies).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mgrts_core::engine::{Budget, CancelToken, Csp2GenericEngine, FeasibilitySolver};
use rt_gen::{GeneratorConfig, ProblemGenerator};

const INSTANCES: u64 = 12;
const DECISIONS: u64 = 500;

fn bench_learning_table1(c: &mut Criterion) {
    let problems = ProblemGenerator::new(GeneratorConfig::table1(), 2009).batch(INSTANCES);
    let engine = Csp2GenericEngine {
        learning: true,
        ..Csp2GenericEngine::default()
    };
    let budget = Budget {
        max_decisions: Some(DECISIONS),
        ..Budget::unlimited()
    };
    // One pass over the instances; returns the conflicts analyzed.
    let solve_all = || -> u64 {
        problems
            .iter()
            .map(|p| {
                let res = engine
                    .solve(&p.taskset, p.m, &budget, &CancelToken::new())
                    .unwrap();
                res.search.map_or(0, |s| s.conflicts)
            })
            .sum()
    };
    let mut group = c.benchmark_group("learning_table1");
    group.sample_size(10);
    group.bench_function(format!("csp2_learn_{DECISIONS}dec_x{INSTANCES}"), |b| {
        b.iter(|| black_box(solve_all()));
    });
    group.finish();

    let mut conflicts = 0;
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            conflicts = solve_all();
            conflicts as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    assert!(conflicts > 0, "the cell must exercise conflict analysis");
    println!(
        "learning_table1: {conflicts} conflicts per pass, median {:.0} conflicts/s over {} passes",
        rates[rates.len() / 2],
        rates.len()
    );
}

criterion_group!(benches, bench_learning_table1);
criterion_main!(benches);
