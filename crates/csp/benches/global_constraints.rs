//! Global-constraint benchmark: Régin GAC `AllDifferent` and
//! residual-support `Table` against the retained stateless propagators.
//!
//! Two paper-scale cells, both deterministic (LCG-seeded structure, fixed
//! search configuration), each solved by both engines:
//!
//! * `alldiff` — quasigroup (Latin square) completion: a cyclic Latin
//!   square of order `Q` with a pseudo-random ~65% of the cells punched
//!   out, `2·Q` all-different constraints over rows and columns. This is
//!   the regime Régin's filter was built for: forward checking (the
//!   stateless form) only fires on fixed variables and thrashes, while
//!   matching + SCC filtering prunes Hall sets long before they bottom
//!   out. Both engines run decision-capped chronological search.
//! * `table` — a chain of overlapping ternary table constraints (a
//!   transition-relation encoding: each window of three consecutive
//!   variables must form an allowed triple). The stateless propagator
//!   rescans every row and rebuilds hash sets on each call; the residual
//!   engine revalidates one cached row per `(var, value)` and scans
//!   forward only when it died. Both engines count solutions to a cap.
//!
//! Besides the criterion timings, the harness writes a
//! `BENCH_global_constraints.json` summary (median wall times, speedups,
//! and perf-trend-compatible `campaign`/`wall_ms` keys) into
//! `bench/baselines/` and asserts the ≥1.5× acceptance floor on both
//! cells.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use csp_engine::reference::RefSolver;
use csp_engine::{
    Budget, Constraint, LearnConfig, Model, RestartSchedule, SolverConfig, ValOrder, VarOrder,
};

/// Deterministic LCG (Knuth MMIX constants) so the punched-out pattern and
/// the table rows are stable across runs and toolchains.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

// ---------------------------------------------------------------------------
// Cell 1: alldiff-heavy — quasigroup completion
// ---------------------------------------------------------------------------

/// Latin square order: Q² variables, 2·Q all-different constraints.
const Q: usize = 14;
/// Fraction (in 1/256ths) of cells pre-filled from the cyclic square.
const FILL_NUM: u64 = 90;

/// Quasigroup completion: punch pseudo-random holes into the cyclic Latin
/// square `L(i,j) = (i + j) mod Q` (so a completion is guaranteed to
/// exist) and constrain every row and column to be all-different.
fn build_alldiff_model() -> Model {
    let mut m = Model::with_capacity(Q * Q, 2 * Q);
    let mut rng = Lcg(0x5eed_cafe);
    for i in 0..Q {
        for j in 0..Q {
            if rng.next() % 256 < FILL_NUM {
                let v = ((i + j) % Q) as i32;
                m.new_var(v, v);
            } else {
                m.new_var(0, Q as i32 - 1);
            }
        }
    }
    for i in 0..Q {
        m.post(Constraint::AllDifferent {
            vars: (0..Q).map(|j| i * Q + j).collect(),
        });
    }
    for j in 0..Q {
        m.post(Constraint::AllDifferent {
            vars: (0..Q).map(|i| i * Q + j).collect(),
        });
    }
    m
}

/// Chronological completion search, decision-capped so a thrashing engine
/// does a bounded, deterministic amount of work.
fn alldiff_cfg() -> SolverConfig {
    SolverConfig {
        var_order: VarOrder::Input,
        val_order: ValOrder::Min,
        restarts: RestartSchedule::Never,
        seed: 1,
        learn: LearnConfig::default(),
        budget: Budget {
            max_decisions: Some(60_000),
            ..Budget::default()
        },
    }
}

// ---------------------------------------------------------------------------
// Cell 2: table-heavy — ternary transition chain
// ---------------------------------------------------------------------------

/// Chain length (variables) and per-variable domain width.
const CHAIN: usize = 48;
const DOM: i32 = 6;
/// Fraction (in 1/256ths) of the DOM³ triples allowed per window.
const ROW_NUM: u64 = 72;
/// Solution-count cap: both engines enumerate this many solutions.
const COUNT_CAP: u64 = 4_000;

/// Overlapping ternary tables over consecutive windows: every
/// `(x_i, x_{i+1}, x_{i+2})` must be one of the window's allowed triples.
fn build_table_model() -> Model {
    let mut m = Model::with_capacity(CHAIN, CHAIN - 2);
    for _ in 0..CHAIN {
        m.new_var(0, DOM - 1);
    }
    let mut rng = Lcg(0x0dd_b10b5);
    for i in 0..CHAIN - 2 {
        let mut rows = Vec::new();
        for a in 0..DOM {
            for b in 0..DOM {
                for c in 0..DOM {
                    // Keep the all-zero staircase unconditionally so the
                    // chain always admits solutions to count.
                    if (a, b, c) == (0, 0, 0) || rng.next() % 256 < ROW_NUM {
                        rows.push(vec![a, b, c]);
                    }
                }
            }
        }
        m.post(Constraint::Table {
            vars: vec![i, i + 1, i + 2],
            rows,
        });
    }
    m
}

fn table_cfg() -> SolverConfig {
    SolverConfig {
        var_order: VarOrder::Input,
        val_order: ValOrder::Min,
        restarts: RestartSchedule::Never,
        seed: 1,
        learn: LearnConfig::default(),
        budget: Budget::default(),
    }
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn alldiff_incremental(model: &Model) -> bool {
    model.clone().into_solver(alldiff_cfg()).solve().is_sat()
}

fn alldiff_reference(model: &Model) -> bool {
    RefSolver::from_model(model, alldiff_cfg()).solve().is_sat()
}

fn table_incremental(model: &Model) -> u64 {
    model
        .clone()
        .into_solver(table_cfg())
        .count_solutions(COUNT_CAP)
        .0
}

fn table_reference(model: &Model) -> u64 {
    RefSolver::from_model(model, table_cfg())
        .count_solutions(COUNT_CAP)
        .0
}

fn bench_alldiff(c: &mut Criterion) {
    let model = build_alldiff_model();
    // The cyclic square's completion exists; GAC must find one (Input/Min
    // is lex-deterministic, so if both finish in budget they agree too).
    assert!(
        alldiff_incremental(&model),
        "GAC engine must complete the quasigroup within the decision budget"
    );
    let mut g = c.benchmark_group("quasigroup_completion_alldiff");
    g.sample_size(10);
    g.bench_function("incremental", |b| {
        b.iter(|| black_box(alldiff_incremental(&model)))
    });
    g.bench_function("reference", |b| {
        b.iter(|| black_box(alldiff_reference(&model)))
    });
    g.finish();
}

fn bench_table(c: &mut Criterion) {
    let model = build_table_model();
    // Path-independent sanity: identical counts whatever the pruning.
    assert_eq!(
        table_incremental(&model),
        table_reference(&model),
        "engines must count the same solutions on the transition chain"
    );
    let mut g = c.benchmark_group("transition_chain_table");
    g.sample_size(10);
    g.bench_function("incremental", |b| {
        b.iter(|| black_box(table_incremental(&model)))
    });
    g.bench_function("reference", |b| {
        b.iter(|| black_box(table_reference(&model)))
    });
    g.finish();
}

/// Paired interleaved sampling: run both engines back-to-back within each
/// round and report (median incremental ns, median reference ns, median of
/// the per-round reference/incremental ratios) — frequency drift hits both
/// legs of a round equally and cancels out of the ratio.
fn paired<FI: FnMut() -> u128, FR: FnMut() -> u128>(
    rounds: usize,
    mut inc: FI,
    mut reference: FR,
) -> (u128, u128, f64) {
    let samples: Vec<(u128, u128)> = (0..rounds).map(|_| (inc(), reference())).collect();
    let mut incs: Vec<u128> = samples.iter().map(|&(i, _)| i).collect();
    let mut refs: Vec<u128> = samples.iter().map(|&(_, r)| r).collect();
    let mut ratios: Vec<f64> = samples.iter().map(|&(i, r)| r as f64 / i as f64).collect();
    incs.sort_unstable();
    refs.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    (
        incs[incs.len() / 2],
        refs[refs.len() / 2],
        ratios[ratios.len() / 2],
    )
}

fn time_ns<F: FnMut()>(mut f: F) -> u128 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos()
}

/// Emit `BENCH_global_constraints.json` alongside the other perf baselines.
fn emit_summary(c: &mut Criterion) {
    let _ = c;
    let alldiff_model = build_alldiff_model();
    let table_model = build_table_model();
    let runs = 9;
    let (ad_inc, ad_ref, ad_speedup) = paired(
        runs,
        || {
            time_ns(|| {
                black_box(alldiff_incremental(&alldiff_model));
            })
        },
        || {
            time_ns(|| {
                black_box(alldiff_reference(&alldiff_model));
            })
        },
    );
    let (tb_inc, tb_ref, tb_speedup) = paired(
        runs,
        || {
            time_ns(|| {
                black_box(table_incremental(&table_model));
            })
        },
        || {
            time_ns(|| {
                black_box(table_reference(&table_model));
            })
        },
    );
    // `campaign`/`wall_ms`/`records`/`solvers` are the keys
    // scripts/perf_trend.sh aggregates; wall_ms tracks the incremental
    // engine only (the reference legs are the fixed comparison baseline).
    let wall_ms = (ad_inc + tb_inc) / 1_000_000;
    let json = format!(
        "{{\n  \"bench\": \"global_constraints\",\n  \"campaign\": \"global-gac\",\n  \
         \"records\": 2,\n  \"wall_ms\": {},\n  \"runs\": {},\n  \
         \"alldiff_model\": \"quasigroup Q={} fill~{}%\",\n  \
         \"alldiff_incremental_ns\": {},\n  \"alldiff_reference_ns\": {},\n  \
         \"alldiff_speedup\": {:.3},\n  \
         \"table_model\": \"chain n={} dom={} rows~{}%\",\n  \
         \"table_incremental_ns\": {},\n  \"table_reference_ns\": {},\n  \
         \"table_speedup\": {:.3},\n  \
         \"solvers\": [[\"incremental\", {{\"solved\": 2}}], [\"reference\", {{\"solved\": 2}}]]\n}}\n",
        wall_ms,
        runs,
        Q,
        FILL_NUM * 100 / 256,
        ad_inc,
        ad_ref,
        ad_speedup,
        CHAIN,
        DOM,
        ROW_NUM * 100 / 256,
        tb_inc,
        tb_ref,
        tb_speedup
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baselines/BENCH_global_constraints.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}\n{json}"),
    }
    assert!(
        ad_speedup >= 1.5,
        "GAC alldiff did not clear the 1.5x floor over forward checking ({ad_speedup:.3}x)"
    );
    assert!(
        tb_speedup >= 1.5,
        "residual table did not clear the 1.5x floor over rescanning ({tb_speedup:.3}x)"
    );
}

criterion_group!(benches, bench_alldiff, bench_table, emit_summary);
criterion_main!(benches);
