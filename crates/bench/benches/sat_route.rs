//! Criterion benches for the SAT route: CNF encoding cost, CDCL solve
//! time vs the specialized CSP2 search, the at-most-one encoding
//! ablation (pairwise vs ladder), and encoding vs solver construction on
//! the paper's Table I cell, where the hyperperiod makes set-up dominate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mgrts_core::csp1_sat::encode_cnf;
use mgrts_core::csp2::Csp2Solver;
use mgrts_core::engine::{Budget, CancelToken, Csp1SatEngine, FeasibilitySolver};
use mgrts_core::heuristics::TaskOrder;
use rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator};
use rt_sat::{AmoEncoding, SatConfig, SatSolver};
use rt_task::TaskSet;

fn feasible_corpus(n: usize, count: usize) -> Vec<(TaskSet, usize)> {
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

fn bench_encode(c: &mut Criterion) {
    let corpus = feasible_corpus(6, 4);
    let mut group = c.benchmark_group("cnf_encode_n6");
    for (i, (ts, m)) in corpus.iter().enumerate() {
        for (label, amo) in [
            ("pairwise", AmoEncoding::Pairwise),
            ("ladder", AmoEncoding::Ladder),
        ] {
            group.bench_with_input(BenchmarkId::new(label, i), ts, |b, ts| {
                b.iter(|| black_box(encode_cnf(ts, *m, amo).unwrap()));
            });
        }
    }
    group.finish();
}

fn bench_sat_vs_csp2(c: &mut Criterion) {
    let corpus = feasible_corpus(6, 4);
    let mut group = c.benchmark_group("sat_vs_csp2_n6");
    group.sample_size(20);
    for (i, (ts, m)) in corpus.iter().enumerate() {
        group.bench_with_input(BenchmarkId::new("sat_cdcl", i), ts, |b, ts| {
            b.iter(|| {
                let res = Csp1SatEngine::default()
                    .solve(ts, *m, &Budget::unlimited(), &CancelToken::new())
                    .unwrap();
                assert!(black_box(res).verdict.is_feasible());
            });
        });
        group.bench_with_input(BenchmarkId::new("csp2_dc", i), ts, |b, ts| {
            b.iter(|| {
                let res = Csp2Solver::new(ts, *m)
                    .unwrap()
                    .with_order(TaskOrder::DeadlineMinusWcet)
                    .solve();
                assert!(black_box(res).verdict.is_feasible());
            });
        });
    }
    group.finish();
}

/// `encode_cnf` and `SatSolver::new` timed apart on Table I instances
/// (n = 10, m = 5, Tmax = 7): about 23k variables and 92k clauses each,
/// so clause storage, not search, sets the cost.
fn bench_build_table1(c: &mut Criterion) {
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), 2009);
    let mut group = c.benchmark_group("sat_build_table1");
    group.sample_size(10);
    for i in 0..3 {
        let p = gen.nth(i);
        group.bench_with_input(BenchmarkId::new("encode_cnf", i), &p, |b, p| {
            b.iter(|| black_box(encode_cnf(&p.taskset, p.m, AmoEncoding::Pairwise).unwrap()));
        });
        let (cnf, _layout) = encode_cnf(&p.taskset, p.m, AmoEncoding::Pairwise).unwrap();
        group.bench_function(BenchmarkId::new("solver_new", i), |b| {
            b.iter(|| black_box(SatSolver::new(&cnf, SatConfig::default())));
        });
    }
    group.finish();
}

fn bench_raw_cdcl(c: &mut Criterion) {
    // Solver-only cost on a pre-built formula (excludes encoding).
    let corpus = feasible_corpus(8, 2);
    let mut group = c.benchmark_group("cdcl_solve_only_n8");
    group.sample_size(20);
    for (i, (ts, m)) in corpus.iter().enumerate() {
        let (cnf, _layout) = encode_cnf(ts, *m, AmoEncoding::Pairwise).unwrap();
        group.bench_function(BenchmarkId::new("cdcl", i), |b| {
            b.iter(|| {
                let mut solver = SatSolver::new(&cnf, SatConfig::default());
                black_box(solver.solve())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_sat_vs_csp2,
    bench_build_table1,
    bench_raw_cdcl
);
criterion_main!(benches);
