//! Criterion micro-benchmarks for the substrates: the CSP engine's trailed
//! store, the mod-H interval arithmetic, the problem generator, the clone
//! transform, the local-search alternative and the global simulators.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use csp_engine::{Constraint, Model, SolverConfig, Store};
use mgrts_core::engine::{Budget, CancelToken, FeasibilitySolver, LocalSearchEngine};
use rt_gen::{GeneratorConfig, ProblemGenerator};
use rt_sim::{simulate, Policy};
use rt_task::{clone_transform, JobInstants, Task, TaskSet};

fn bench_store(c: &mut Criterion) {
    c.bench_function("store_push_remove_backtrack", |b| {
        let mut s = Store::new();
        let vars: Vec<_> = (0..64).map(|_| s.new_var(0, 127)).collect();
        b.iter(|| {
            s.push_level();
            for (k, &v) in vars.iter().enumerate() {
                s.remove(v, (k % 128) as i32).unwrap();
            }
            s.backtrack();
        })
    });
}

fn bench_pigeonhole(c: &mut Criterion) {
    // Full UNSAT proof: 8 pigeons, 7 holes via AllDifferent.
    c.bench_function("engine_pigeonhole_8_7", |b| {
        b.iter(|| {
            let mut m = Model::new();
            let v = m.new_vars(8, 0, 6);
            m.post(Constraint::AllDifferent { vars: v });
            let mut solver = m.into_solver(SolverConfig::default());
            black_box(solver.solve().is_unsat());
        })
    });
}

fn bench_job_instants(c: &mut Criterion) {
    // The O(1) mod-H queries on a paper-scale system (Tmax = 15, H can hit
    // 360360).
    let tasks: Vec<Task> = (0..32)
        .map(|i| {
            let t = 7 + (i % 9) as u64;
            Task::ocdt(i as u64 % t, 1 + (i % 3) as u64, 3 + (i % 4) as u64, t)
        })
        .collect();
    let ts = TaskSet::new(tasks).unwrap();
    let ji = JobInstants::new(&ts).unwrap();
    let h = ji.hyperperiod();
    c.bench_function("job_at_sweep_32_tasks", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for t in (0..h).step_by((h / 10_000).max(1) as usize) {
                for i in 0..32 {
                    hits += u64::from(ji.job_at(i, t).is_some());
                }
            }
            black_box(hits)
        })
    });
}

fn bench_generator(c: &mut Criterion) {
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), 5);
    c.bench_function("generate_100_problems", |b| {
        b.iter(|| black_box(gen.batch(100).len()))
    });
}

fn bench_clone_transform(c: &mut Criterion) {
    let ts = TaskSet::new(
        (0..16)
            .map(|i| Task::new(i, 2, 9 + i % 5, 3 + i % 3).unwrap())
            .collect(),
    )
    .unwrap();
    c.bench_function("clone_transform_16_arbitrary", |b| {
        b.iter(|| black_box(clone_transform(&ts).unwrap().0.len()))
    });
}

fn bench_local_search(c: &mut Criterion) {
    let ts = TaskSet::running_example();
    c.bench_function("min_conflicts_running_example", |b| {
        b.iter(|| {
            let res = LocalSearchEngine::default()
                .solve(&ts, 2, &Budget::unlimited(), &CancelToken::new())
                .unwrap();
            black_box(res.verdict.is_feasible())
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let ts = TaskSet::from_ocdt(&[
        (0, 2, 3, 3),
        (1, 1, 2, 4),
        (0, 1, 3, 6),
        (2, 2, 4, 6),
        (0, 1, 2, 2),
    ]);
    c.bench_function("global_edf_simulate", |b| {
        b.iter(|| black_box(simulate(&ts, 3, &Policy::Edf, None).misses.len()))
    });
}

criterion_group!(
    benches,
    bench_store,
    bench_pigeonhole,
    bench_job_instants,
    bench_generator,
    bench_clone_transform,
    bench_local_search,
    bench_simulator
);
criterion_main!(benches);
