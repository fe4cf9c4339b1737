//! Criterion ablation benches for the search-strategy ingredients of
//! Section V-C: value-ordering heuristics (the Table I columns) and the
//! eq. (10) symmetry-breaking constraint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mgrts_core::csp2::Csp2Solver;
use mgrts_core::engine::{Budget, CancelToken, Csp2GenericEngine, FeasibilitySolver};
use mgrts_core::heuristics::TaskOrder;
use rt_gen::{GeneratorConfig, ProblemGenerator};

fn bench_task_orders(c: &mut Criterion) {
    // A batch of paper-shaped instances (m = 5, n = 10, Tmax = 7), solved
    // by each Table I heuristic column.
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), 11);
    let problems: Vec<_> = gen
        .batch(40)
        .into_iter()
        .filter(|p| !p.filtered_out())
        .take(12)
        .collect();
    let mut group = c.benchmark_group("csp2_value_ordering");
    group.sample_size(10);
    for order in TaskOrder::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(order.label()),
            &order,
            |b, &order| {
                b.iter(|| {
                    for p in &problems {
                        let res = Csp2Solver::new(&p.taskset, p.m)
                            .unwrap()
                            .with_order(order)
                            .with_budget(Budget::time_limit(std::time::Duration::from_millis(250)))
                            .solve();
                        black_box(res.search);
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_symmetry_breaking(c: &mut Criterion) {
    // eq. (10) on/off on the generic CSP2 rendition: quantifies the m!
    // permutation collapse.
    let gen = ProblemGenerator::new(
        GeneratorConfig {
            n: 5,
            t_max: 4,
            ..GeneratorConfig::table1()
        },
        23,
    );
    let problems: Vec<_> = gen
        .batch(30)
        .into_iter()
        .filter(|p| !p.filtered_out())
        .take(6)
        .collect();
    let mut group = c.benchmark_group("eq10_symmetry");
    group.sample_size(10);
    for (name, sym) in [("with", true), ("without", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &sym, |b, &sym| {
            b.iter(|| {
                for p in &problems {
                    let engine = Csp2GenericEngine {
                        symmetry_breaking: sym,
                        ..Csp2GenericEngine::default()
                    };
                    let budget = Budget::time_limit(std::time::Duration::from_millis(500));
                    let res = engine
                        .solve(&p.taskset, p.m, &budget, &CancelToken::new())
                        .unwrap();
                    black_box(res.search);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_task_orders, bench_symmetry_breaking);
criterion_main!(benches);
