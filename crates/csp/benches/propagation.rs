//! Old-vs-new propagation benchmark on a paper-scale CSP2 encoding.
//!
//! Builds the Section V formulation (processor-instant variables, one
//! all-different-except-idle per instant, one occurrence count per job,
//! symmetry-breaking chains) at the scale of the paper's experiments
//! (m = 5 processors, hyperperiod 210, ~1050 variables, ~1300 constraints)
//! and solves it with both engines:
//!
//! * `incremental` — [`csp_engine::Solver`]: stateful propagators with
//!   trailed state, event-filtered wakeups, entailment early-outs,
//!   sparse-set variable selection with cached dom/wdeg weights;
//! * `reference`   — [`csp_engine::reference::RefSolver`]: the retained
//!   stateless engine (full rescans, unfiltered wakeups, O(n·watchers)
//!   variable selection).
//!
//! Two search configurations are timed:
//!
//! * `chronological` (Input/Max): both engines walk the *identical* tree,
//!   so the comparison isolates pure propagation machinery;
//! * `domwdeg` (DomOverWDeg/Min, decision-capped): the generic solver's
//!   default — the configuration the paper ran CSP1/CSP2-generic under,
//!   where cached variable weights compound with incremental propagation.
//!
//! Besides the criterion timings, the harness writes a
//! `BENCH_propagation.json` summary (median wall times and speedup
//! factors) into `bench/baselines/` for the perf-trend tooling.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use csp_engine::reference::RefSolver;
use csp_engine::{
    Budget, Constraint, LearnConfig, Model, Outcome, RestartSchedule, SolverConfig, ValOrder,
    VarOrder,
};

/// Synthetic paper-scale task system: (wcet, period) with offset 0 and
/// deadline = period. lcm(5, 6, 7) = 210 instants; utilization ≈ 2.66 of 5,
/// so the chronological search solves it with moderate backtracking and
/// long forced-propagation cascades.
const TASKS: [(i64, i64); 6] = [(2, 5), (3, 6), (3, 7), (2, 5), (3, 6), (3, 7)];
const M: usize = 5;
const H: i64 = 210;

/// Build the CSP2 formulation: x_j(t) ∈ {-1} ∪ {0..n-1} at index t·m + j.
fn build_model() -> Model {
    let n = TASKS.len();
    let h = H as usize;
    let var = |j: usize, t: usize| t * M + j;
    let mut m = Model::with_capacity(h * M, h * (M + 1));
    for _ in 0..h * M {
        m.new_var(-1, n as i32 - 1);
    }
    // (8): distinct tasks per instant, idle exempt.
    for t in 0..h {
        m.post(Constraint::AllDifferentExcept {
            vars: (0..M).map(|j| var(j, t)).collect(),
            except: -1,
        });
    }
    // (9): exactly C_i occurrences of task i in each of its job windows.
    for (i, &(wcet, period)) in TASKS.iter().enumerate() {
        let jobs = H / period;
        for k in 0..jobs {
            let lo = (k * period) as usize;
            let hi = ((k + 1) * period) as usize;
            let mut vars = Vec::with_capacity((hi - lo) * M);
            for t in lo..hi {
                for j in 0..M {
                    vars.push(var(j, t));
                }
            }
            m.post(Constraint::CountEq {
                vars,
                value: i as i32,
                rhs: wcet as u32,
            });
        }
    }
    // (10): canonical ordering within each instant.
    for t in 0..h {
        for j in 0..M - 1 {
            m.post(Constraint::LeqVar {
                a: var(j, t),
                b: var(j + 1, t),
            });
        }
    }
    m
}

/// Chronological search (the Section V-C1 variable order); solves the
/// instance to SAT, both engines walking the identical tree.
fn chronological() -> SolverConfig {
    SolverConfig {
        var_order: VarOrder::Input,
        val_order: ValOrder::Max,
        restarts: RestartSchedule::Never,
        seed: 1,
        learn: LearnConfig::default(),
        budget: Budget {
            max_decisions: Some(200_000),
            ..Budget::default()
        },
    }
}

/// The generic engine's dom/wdeg default, capped to a fixed number of
/// decisions so both engines do a comparable, bounded amount of search.
fn domwdeg() -> SolverConfig {
    SolverConfig {
        var_order: VarOrder::DomOverWDeg,
        val_order: ValOrder::Min,
        restarts: RestartSchedule::Never,
        seed: 1,
        learn: LearnConfig::default(),
        budget: Budget {
            max_decisions: Some(50_000),
            ..Budget::default()
        },
    }
}

fn solve_incremental(model: &Model, cfg: SolverConfig) -> Outcome {
    model.clone().into_solver(cfg).solve()
}

fn solve_reference(model: &Model, cfg: SolverConfig) -> Outcome {
    RefSolver::from_model(model, cfg).solve()
}

fn bench_chronological(c: &mut Criterion) {
    let model = build_model();
    // Sanity: identical deterministic trees ⇒ identical outcomes.
    assert_eq!(
        solve_incremental(&model, chronological()),
        solve_reference(&model, chronological()),
        "engines must reach the same outcome on the chronological bench"
    );
    let mut g = c.benchmark_group("csp2_paper_scale_chronological");
    g.sample_size(10);
    g.bench_function("incremental", |b| {
        b.iter(|| black_box(solve_incremental(&model, chronological()).is_sat()))
    });
    g.bench_function("reference", |b| {
        b.iter(|| black_box(solve_reference(&model, chronological()).is_sat()))
    });
    g.finish();
}

fn bench_domwdeg(c: &mut Criterion) {
    let model = build_model();
    let mut g = c.benchmark_group("csp2_paper_scale_domwdeg");
    g.sample_size(10);
    g.bench_function("incremental", |b| {
        b.iter(|| black_box(solve_incremental(&model, domwdeg()).is_sat()))
    });
    g.bench_function("reference", |b| {
        b.iter(|| black_box(solve_reference(&model, domwdeg()).is_sat()))
    });
    g.finish();
}

fn bench_root_propagation(c: &mut Criterion) {
    let model = build_model();
    let mut g = c.benchmark_group("csp2_paper_scale_root_fixpoint");
    g.sample_size(10);
    g.bench_function("incremental", |b| {
        b.iter(|| {
            black_box(
                model
                    .clone()
                    .into_solver(chronological())
                    .root_fixpoint()
                    .is_some(),
            )
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            black_box(
                RefSolver::from_model(&model, chronological())
                    .root_fixpoint()
                    .is_some(),
            )
        })
    });
    g.finish();
}

/// Paired interleaved sampling: run both engines back-to-back within each
/// round and report (median incremental ns, median reference ns, median of
/// the per-round reference/incremental ratios). On a shared, frequency-
/// drifting machine the per-round ratio is far more stable than a ratio of
/// independently-sampled medians — drift hits both legs of a round equally
/// and cancels, and the median discards preemption outliers.
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

/// Emit `BENCH_propagation.json` alongside the other perf baselines.
fn emit_summary(c: &mut Criterion) {
    let _ = c;
    let model = build_model();
    let runs = 9;
    let (chrono_inc, chrono_ref, chrono_speedup) = paired(
        runs,
        || time_ns(|| drop(black_box(solve_incremental(&model, chronological())))),
        || time_ns(|| drop(black_box(solve_reference(&model, chronological())))),
    );
    let (dw_inc, dw_ref, speedup) = paired(
        runs,
        || time_ns(|| drop(black_box(solve_incremental(&model, domwdeg())))),
        || time_ns(|| drop(black_box(solve_reference(&model, domwdeg())))),
    );
    let json = format!(
        "{{\n  \"bench\": \"propagation\",\n  \"model\": \"csp2 n={} m={} H={}\",\n  \
         \"runs\": {},\n  \
         \"domwdeg_incremental_ns\": {},\n  \"domwdeg_reference_ns\": {},\n  \
         \"speedup\": {:.3},\n  \
         \"chronological_incremental_ns\": {},\n  \"chronological_reference_ns\": {},\n  \
         \"chronological_speedup\": {:.3}\n}}\n",
        TASKS.len(),
        M,
        H,
        runs,
        dw_inc,
        dw_ref,
        speedup,
        chrono_inc,
        chrono_ref,
        chrono_speedup
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baselines/BENCH_propagation.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}\n{json}"),
    }
    assert!(
        speedup >= 1.2,
        "incremental engine did not beat the stateless reference under dom/wdeg ({speedup:.3}x)"
    );
    // Chronological parity floor (0.9 leaves room for runner noise; the
    // committed baseline tracks the true ≥1.0 paired median).
    assert!(
        chrono_speedup >= 0.9,
        "incremental engine regressed on the chronological cell ({chrono_speedup:.3}x)"
    );
}

criterion_group!(
    benches,
    bench_chronological,
    bench_domwdeg,
    bench_root_propagation,
    emit_summary
);
criterion_main!(benches);
