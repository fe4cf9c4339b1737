//! Clause-learning benchmark: the lazy-clause-generation solver
//! (`LearnConfig::on()`) against the plain chronological engine on
//! conflict-dense cells, paired run-for-run.
//!
//! Both cells share one shape — a *free prefix* of unconstrained
//! variables that the `Input` order decides first, followed by a
//! pigeonhole suffix (`p` pairwise-not-equal variables over `p-1`
//! values). The suffix is unsatisfiable on its own, so a chronological
//! solver re-refutes the identical pigeonhole subtree once per prefix
//! assignment: `d^f` refutations for a prefix of `f` variables with `d`
//! values each. The learning solver's 1-UIP analysis only ever meets
//! suffix predicates (the prefix is untouched by propagation), so its
//! conflicts resolve to prefix-independent nogoods whose assertion
//! levels sit *below* the prefix decisions — it backjumps across the
//! whole prefix, accumulates unit nogoods at the root, and proves the
//! model infeasible after roughly one refutation instead of `d^f`.
//!
//! * `php_wide` — 5 free ternary prefix variables (243 assignments)
//!   ahead of a 6-pigeon / 5-hole suffix: many cheap re-refutations.
//! * `php_deep` — 3 free quaternary prefix variables (64 assignments)
//!   ahead of a 7-pigeon / 6-hole suffix: fewer but deeper refutations.
//!
//! Besides the criterion timings, the harness writes a
//! `BENCH_learning.json` summary (paired median wall times, learn-off /
//! learn-on speedups, and perf-trend-compatible `campaign`/`wall_ms`
//! keys) into `bench/baselines/` and asserts the ≥1.5× acceptance floor
//! on both cells.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use csp_engine::{
    Budget, Constraint, LearnConfig, Model, RestartSchedule, SolverConfig, ValOrder, VarOrder,
};

// ---------------------------------------------------------------------------
// Cells: free prefix + pigeonhole suffix
// ---------------------------------------------------------------------------

/// `prefix` unconstrained variables with `prefix_dom` values each, then a
/// pigeonhole block of `pigeons` pairwise-distinct variables over
/// `pigeons - 1` values. The block alone is infeasible, so the whole
/// model is — but only after the prefix subspace is disposed of.
fn build_cell(prefix: usize, prefix_dom: i32, pigeons: usize) -> Model {
    let mut m = Model::with_capacity(prefix + pigeons, pigeons * (pigeons - 1) / 2);
    for _ in 0..prefix {
        m.new_var(0, prefix_dom - 1);
    }
    for _ in 0..pigeons {
        m.new_var(0, pigeons as i32 - 2);
    }
    // Pairwise decomposition on purpose: GAC all-different would refute
    // the block at the root and leave nothing for search (or learning)
    // to do. Forward checking on the clique keeps the conflicts deep.
    for i in 0..pigeons {
        for j in i + 1..pigeons {
            m.post(Constraint::NotEqual {
                a: prefix + i,
                b: prefix + j,
            });
        }
    }
    m
}

/// Wide cell: a large prefix subspace ahead of a small pigeonhole.
fn build_wide() -> Model {
    build_cell(5, 3, 6)
}

/// Deep cell: a small prefix subspace ahead of a larger pigeonhole.
fn build_deep() -> Model {
    build_cell(3, 4, 7)
}

/// Chronological `Input`/`Min` search; the only difference between the
/// two legs is the learning switch, so the pairing isolates its effect.
fn cfg(learn: bool) -> SolverConfig {
    SolverConfig {
        var_order: VarOrder::Input,
        val_order: ValOrder::Min,
        // The learning leg keeps `csp2-learn`'s Luby restarts; plain
        // chronological search never restarts.
        restarts: if learn {
            RestartSchedule::Luby { unit: 128 }
        } else {
            RestartSchedule::Never
        },
        seed: 1,
        learn: if learn {
            LearnConfig::on()
        } else {
            LearnConfig::default()
        },
        budget: Budget::default(),
    }
}

fn refute(model: &Model, learn: bool) -> bool {
    model.clone().into_solver(cfg(learn)).solve().is_unsat()
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn bench_cell(c: &mut Criterion, name: &str, model: &Model) {
    // Verdict sanity first: learning must reach the same (infeasible)
    // answer — a wrong nogood shows up here before any timing does.
    assert!(refute(model, false), "{name}: learn-off must refute");
    assert!(refute(model, true), "{name}: learn-on must refute");
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.bench_function("learn_on", |b| b.iter(|| black_box(refute(model, true))));
    g.bench_function("learn_off", |b| b.iter(|| black_box(refute(model, false))));
    g.finish();
}

fn bench_wide(c: &mut Criterion) {
    bench_cell(c, "php_prefix_wide", &build_wide());
}

fn bench_deep(c: &mut Criterion) {
    bench_cell(c, "php_prefix_deep", &build_deep());
}

/// Paired interleaved sampling: run both legs back-to-back within each
/// round and report (median learn-on ns, median learn-off ns, median of
/// the per-round off/on ratios) — frequency drift hits both legs of a
/// round equally and cancels out of the ratio.
fn paired<FI: FnMut() -> u128, FR: FnMut() -> u128>(
    rounds: usize,
    mut on: FI,
    mut off: FR,
) -> (u128, u128, f64) {
    let samples: Vec<(u128, u128)> = (0..rounds).map(|_| (on(), off())).collect();
    let mut ons: Vec<u128> = samples.iter().map(|&(o, _)| o).collect();
    let mut offs: Vec<u128> = samples.iter().map(|&(_, f)| f).collect();
    let mut ratios: Vec<f64> = samples.iter().map(|&(o, f)| f as f64 / o as f64).collect();
    ons.sort_unstable();
    offs.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    (
        ons[ons.len() / 2],
        offs[offs.len() / 2],
        ratios[ratios.len() / 2],
    )
}

fn time_ns<F: FnMut()>(mut f: F) -> u128 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos()
}

/// Emit `BENCH_learning.json` alongside the other perf baselines.
fn emit_summary(c: &mut Criterion) {
    let _ = c;
    let wide = build_wide();
    let deep = build_deep();
    let runs = 9;
    let (wide_on, wide_off, wide_speedup) = paired(
        runs,
        || {
            time_ns(|| {
                black_box(refute(&wide, true));
            })
        },
        || {
            time_ns(|| {
                black_box(refute(&wide, false));
            })
        },
    );
    let (deep_on, deep_off, deep_speedup) = paired(
        runs,
        || {
            time_ns(|| {
                black_box(refute(&deep, true));
            })
        },
        || {
            time_ns(|| {
                black_box(refute(&deep, false));
            })
        },
    );
    // `campaign`/`wall_ms`/`records`/`solvers` are the keys
    // scripts/perf_trend.sh aggregates; wall_ms covers all four legs so
    // the series tracks the whole paired workload.
    let wall_ms = (wide_on + wide_off + deep_on + deep_off) / 1_000_000;
    let json = format!(
        "{{\n  \"bench\": \"learning\",\n  \"campaign\": \"learning\",\n  \
         \"records\": 2,\n  \"wall_ms\": {},\n  \"runs\": {},\n  \
         \"wide_model\": \"prefix 5x3 + php 6/5\",\n  \
         \"wide_learn_on_ns\": {},\n  \"wide_learn_off_ns\": {},\n  \
         \"wide_speedup\": {:.3},\n  \
         \"deep_model\": \"prefix 3x4 + php 7/6\",\n  \
         \"deep_learn_on_ns\": {},\n  \"deep_learn_off_ns\": {},\n  \
         \"deep_speedup\": {:.3},\n  \
         \"solvers\": [[\"learn_on\", {{\"infeasible\": 2}}], [\"learn_off\", {{\"infeasible\": 2}}]]\n}}\n",
        wall_ms, runs, wide_on, wide_off, wide_speedup, deep_on, deep_off, deep_speedup
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baselines/BENCH_learning.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}\n{json}"),
    }
    assert!(
        wide_speedup >= 1.5,
        "learning did not clear the 1.5x floor on the wide cell ({wide_speedup:.3}x)"
    );
    assert!(
        deep_speedup >= 1.5,
        "learning did not clear the 1.5x floor on the deep cell ({deep_speedup:.3}x)"
    );
}

criterion_group!(benches, bench_wide, bench_deep, emit_summary);
criterion_main!(benches);
