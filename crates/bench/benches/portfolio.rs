//! Single-backend vs parallel-portfolio wall clock on the Table I roster.
//!
//! The paper runs its six solver configurations sequentially; the
//! portfolio races them on scoped threads with cooperative cancellation.
//! This bench quantifies what the race buys (and what thread overhead
//! costs on trivially easy instances) on a fixed mini-corpus drawn from
//! the Table I generator settings. The `portfolio-race` rows race the
//! roster alone; the `flow-then-roster` rows time the race as it is
//! deployed, where `flow` decides each identical instance before any
//! roster thread starts.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use mgrts_core::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec, SolverSpec};
use mgrts_core::portfolio::{race, race_cancellable, PortfolioResult};
use rt_gen::{GeneratorConfig, Problem, ProblemGenerator};
use rt_task::TaskSet;

fn corpus() -> Vec<Problem> {
    // Small Table-I-shaped instances: large enough that backends differ,
    // small enough for a benchmark loop.
    let gen = ProblemGenerator::new(
        GeneratorConfig {
            n: 5,
            t_max: 4,
            ..GeneratorConfig::table1()
        },
        0xBE5C,
    );
    gen.batch(6)
}

fn table1_roster() -> Vec<Box<dyn FeasibilitySolver>> {
    SolverSpec::TABLE1_ROSTER
        .iter()
        .map(|s| s.build())
        .collect()
}

fn budget() -> Budget {
    Budget::time_limit(Duration::from_secs(5))
}

/// Race `roster` alone on `m` identical processors (no flow first).
fn race_alone(roster: &[Box<dyn FeasibilitySolver>], ts: &TaskSet, m: usize) -> PortfolioResult {
    race_cancellable(
        None,
        roster,
        ts,
        &PlatformSpec::identical(m),
        &budget(),
        &CancelToken::new(),
    )
    .expect("valid instance")
}

/// Every roster member sequentially — the paper's evaluation shape.
fn bench_sequential_roster(c: &mut Criterion) {
    let problems = corpus();
    let roster = table1_roster();
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("sequential-roster", |b| {
        b.iter(|| {
            for p in &problems {
                for solver in &roster {
                    let res = solver
                        .solve(&p.taskset, p.m, &budget(), &CancelToken::new())
                        .expect("valid instance");
                    black_box(res.verdict.is_feasible());
                }
            }
        })
    });
    group.finish();
}

/// The single strongest backend (the paper's +(D-C) column).
fn bench_best_single(c: &mut Criterion) {
    let problems = corpus();
    let best = SolverSpec::Csp2(mgrts_core::heuristics::TaskOrder::DeadlineMinusWcet).build();
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("single-csp2-dc", |b| {
        b.iter(|| {
            for p in &problems {
                let res = best
                    .solve(&p.taskset, p.m, &budget(), &CancelToken::new())
                    .expect("valid instance");
                black_box(res.verdict.is_feasible());
            }
        })
    });
    group.finish();
}

/// The full roster raced in parallel with cancellation, alone and after
/// flow.
fn bench_portfolio_race(c: &mut Criterion) {
    let problems = corpus();
    let roster = table1_roster();
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("portfolio-race", |b| {
        b.iter(|| {
            for p in &problems {
                let r = race_alone(&roster, &p.taskset, p.m);
                black_box(r.result.verdict.is_feasible());
            }
        })
    });
    group.bench_function("flow-then-roster", |b| {
        b.iter(|| {
            for p in &problems {
                let r = race(&roster, &p.taskset, p.m, &budget()).expect("valid instance");
                black_box(r.result.verdict.is_feasible());
            }
        })
    });
    group.finish();
}

/// Race on one dense instance where backend runtimes genuinely diverge.
fn bench_portfolio_hard_instance(c: &mut Criterion) {
    let ts = TaskSet::from_ocdt(&[
        (0, 1, 2, 2),
        (1, 3, 4, 4),
        (0, 2, 3, 3),
        (0, 1, 3, 4),
        (2, 1, 2, 6),
    ]);
    let roster = table1_roster();
    let mut group = c.benchmark_group("hard-instance");
    group.sample_size(10);
    group.bench_function("portfolio-race", |b| {
        b.iter(|| {
            let r = race_alone(&roster, &ts, 3);
            black_box(r.winner);
        })
    });
    group.bench_function("flow-then-roster", |b| {
        b.iter(|| {
            let r = race(&roster, &ts, 3, &budget()).expect("valid instance");
            black_box(r.winner);
        })
    });
    group.bench_function("sequential-roster", |b| {
        b.iter(|| {
            for solver in &roster {
                let res = solver
                    .solve(&ts, 3, &budget(), &CancelToken::new())
                    .expect("valid instance");
                black_box(res.verdict.is_feasible());
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential_roster,
    bench_best_single,
    bench_portfolio_race,
    bench_portfolio_hard_instance
);
criterion_main!(benches);
