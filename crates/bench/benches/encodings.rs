//! Criterion micro-benchmarks: CSP1 vs CSP2 vs CSP2-on-generic-engine.
//!
//! The paper's headline comparison (Table I) in microbenchmark form: the
//! specialized chronological CSP2 search should beat the boolean CSP1
//! encoding on the generic solver by orders of magnitude, and the generic
//! rendition of CSP2 should land in between.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mgrts_core::csp1::encode as encode_csp1;
use mgrts_core::csp2::Csp2Solver;
use mgrts_core::engine::{Budget, CancelToken, Csp1Engine, Csp2GenericEngine, FeasibilitySolver};
use mgrts_core::heuristics::TaskOrder;
use rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator};
use rt_task::TaskSet;

fn feasible_corpus(n: usize, count: usize) -> Vec<(TaskSet, usize)> {
    // Pre-filter to feasible instances so every solver does comparable
    // work (finding a schedule, not proving infeasibility).
    let cfg = GeneratorConfig {
        n,
        m: MSpec::MinUtilization,
        t_max: 5,
        order: ParamOrder::DeadlineFirst,
        synchronous: false,
    };
    let gen = ProblemGenerator::new(cfg, 77);
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

fn bench_solvers(c: &mut Criterion) {
    let corpus = feasible_corpus(5, 8);
    let mut group = c.benchmark_group("solve_feasible_n5");
    group.sample_size(20);
    group.bench_function("csp2_dc", |b| {
        b.iter(|| {
            for (ts, m) in &corpus {
                let res = Csp2Solver::new(ts, *m)
                    .unwrap()
                    .with_order(TaskOrder::DeadlineMinusWcet)
                    .solve();
                black_box(res.verdict.is_feasible());
            }
        })
    });
    // The engine-backed solvers get a per-solve wall-clock cap: a single
    // unlucky instance can otherwise push one iteration into minutes and
    // the whole group into hours. Overruns count as completed iterations —
    // this *underestimates* how much slower the generic routes are, which
    // only strengthens the comparison's conclusion.
    let cap = Some(std::time::Duration::from_millis(250));
    group.bench_function("csp2_generic_engine", |b| {
        b.iter(|| {
            for (ts, m) in &corpus {
                let budget = Budget {
                    time: cap,
                    ..Budget::unlimited()
                };
                let res = Csp2GenericEngine::default()
                    .solve(ts, *m, &budget, &CancelToken::new())
                    .unwrap();
                black_box(res.verdict.is_feasible());
            }
        })
    });
    group.bench_function("csp1_generic_engine", |b| {
        b.iter(|| {
            for (ts, m) in &corpus {
                let budget = Budget {
                    time: cap,
                    ..Budget::unlimited()
                };
                let res = Csp1Engine::default()
                    .solve(ts, *m, &budget, &CancelToken::new())
                    .unwrap();
                black_box(res.verdict.is_feasible());
            }
        })
    });
    group.finish();
}

fn bench_encoding_cost(c: &mut Criterion) {
    // Pure model-construction cost of CSP1 as the hyperperiod grows — the
    // memory wall of Table IV in microcosm.
    let mut group = c.benchmark_group("csp1_encode");
    for t_max in [4u64, 6, 8] {
        let cfg = GeneratorConfig {
            n: 6,
            m: MSpec::Fixed(3),
            t_max,
            order: ParamOrder::DeadlineFirst,
            synchronous: false,
        };
        let p = ProblemGenerator::new(cfg, 3).nth(0);
        group.bench_with_input(BenchmarkId::from_parameter(t_max), &p, |b, p| {
            b.iter(|| black_box(encode_csp1(&p.taskset, p.m).unwrap().0.num_vars()))
        });
    }
    group.finish();
}

fn bench_infeasible_proof(c: &mut Criterion) {
    // Proving infeasibility (the paper notes this is the hard direction).
    let ts = TaskSet::from_ocdt(&[
        (0, 1, 1, 2),
        (0, 1, 1, 2),
        (0, 1, 1, 2),
        (0, 1, 2, 3),
        (0, 1, 2, 3),
    ]);
    let m = 2;
    let mut group = c.benchmark_group("prove_infeasible");
    group.bench_function("csp2_dc", |b| {
        b.iter(|| {
            let res = Csp2Solver::new(&ts, m)
                .unwrap()
                .with_order(TaskOrder::DeadlineMinusWcet)
                .solve();
            black_box(res.verdict.is_infeasible());
        })
    });
    group.bench_function("csp1", |b| {
        b.iter(|| {
            let res = Csp1Engine::default()
                .solve(&ts, m, &Budget::unlimited(), &CancelToken::new())
                .unwrap();
            black_box(res.verdict.is_infeasible());
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solvers,
    bench_encoding_cost,
    bench_infeasible_proof
);
criterion_main!(benches);
