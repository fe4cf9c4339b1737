//! Criterion benches for the incomplete solvers and the analytic battery:
//! local-search strategy ablation (min-conflicts / tabu / annealing) and
//! the cost of the polynomial schedulability tests relative to one exact
//! solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mgrts_core::csp2::Csp2Solver;
use mgrts_core::engine::{Budget, CancelToken, FeasibilitySolver, LocalSearchEngine};
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::local_search::LsStrategy;
use rt_analysis::analyze;
use rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator};
use rt_task::TaskSet;

fn feasible_corpus(n: usize, count: usize) -> Vec<(TaskSet, usize)> {
    let cfg = GeneratorConfig {
        n,
        m: MSpec::MinUtilization,
        t_max: 5,
        order: ParamOrder::DeadlineFirst,
        synchronous: false,
    };
    let gen = ProblemGenerator::new(cfg, 99);
    let mut out = Vec::new();
    let mut idx = 0;
    while out.len() < count {
        let p = gen.nth(idx);
        idx += 1;
        let feasible = Csp2Solver::new(&p.taskset, p.m)
            .unwrap()
            .with_order(TaskOrder::DeadlineMinusWcet)
            .solve()
            .verdict
            .is_feasible();
        if feasible {
            out.push((p.taskset, p.m));
        }
    }
    out
}

fn bench_local_strategies(c: &mut Criterion) {
    let corpus = feasible_corpus(5, 4);
    let strategies: [(&str, LsStrategy); 3] = [
        ("min_conflicts", LsStrategy::MinConflicts),
        ("tabu", LsStrategy::Tabu { tenure: 10 }),
        (
            "annealing",
            LsStrategy::Annealing {
                t0: 2.0,
                cooling: 0.9995,
            },
        ),
    ];
    let mut group = c.benchmark_group("local_search_n5");
    group.sample_size(20);
    for (i, (ts, m)) in corpus.iter().enumerate() {
        for (label, strategy) in strategies {
            group.bench_with_input(BenchmarkId::new(label, i), ts, |b, ts| {
                b.iter(|| {
                    let engine = LocalSearchEngine {
                        strategy,
                        ..LocalSearchEngine::default()
                    };
                    let budget = Budget {
                        max_decisions: Some(500_000),
                        ..Budget::unlimited()
                    };
                    let res = engine.solve(ts, *m, &budget, &CancelToken::new()).unwrap();
                    assert!(black_box(res).verdict.is_feasible());
                });
            });
        }
    }
    group.finish();
}

fn bench_analysis_battery(c: &mut Criterion) {
    let corpus = feasible_corpus(8, 4);
    let mut group = c.benchmark_group("analysis_vs_exact_n8");
    for (i, (ts, m)) in corpus.iter().enumerate() {
        group.bench_with_input(BenchmarkId::new("battery", i), ts, |b, ts| {
            b.iter(|| black_box(analyze(ts, *m)));
        });
        group.bench_with_input(BenchmarkId::new("exact_csp2", i), ts, |b, ts| {
            b.iter(|| {
                black_box(
                    Csp2Solver::new(ts, *m)
                        .unwrap()
                        .with_order(TaskOrder::DeadlineMinusWcet)
                        .solve(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_local_strategies, bench_analysis_battery);
criterion_main!(benches);
