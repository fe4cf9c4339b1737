//! Phase-split timing for the chronological CSP2 bench cell: separates
//! model cloning, solver construction, and pure search for both engines,
//! then reports paired end-to-end ratio quartiles. Diagnostic only — the
//! gated numbers live in `benches/propagation.rs`. Run with:
//! `cargo run --release -p csp-engine --example profile_chrono`

use std::time::Instant;

use csp_engine::reference::RefSolver;
use csp_engine::{
    Budget, Constraint, LearnConfig, Model, RestartSchedule, SolverConfig, ValOrder, VarOrder,
};

const TASKS: [(i64, i64); 6] = [(2, 5), (3, 6), (3, 7), (2, 5), (3, 6), (3, 7)];
const M: usize = 5;
const H: i64 = 210;

fn build_model() -> Model {
    let n = TASKS.len();
    let h = H as usize;
    let var = |j: usize, t: usize| t * M + j;
    let mut m = Model::with_capacity(h * M, h * (M + 1));
    for _ in 0..h * M {
        m.new_var(-1, n as i32 - 1);
    }
    for t in 0..h {
        m.post(Constraint::AllDifferentExcept {
            vars: (0..M).map(|j| var(j, t)).collect(),
            except: -1,
        });
    }
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

fn cfg() -> SolverConfig {
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

fn median<F: FnMut() -> u128>(runs: usize, mut f: F) -> u128 {
    let mut v: Vec<u128> = (0..runs).map(|_| f()).collect();
    v.sort_unstable();
    v[v.len() / 2]
}

fn main() {
    let model = build_model();
    let runs = 9;

    let clone_ns = median(runs, || {
        let t = Instant::now();
        std::hint::black_box(model.clone());
        t.elapsed().as_nanos()
    });
    let inc_build_ns = median(runs, || {
        let m = model.clone();
        let t = Instant::now();
        std::hint::black_box(m.into_solver(cfg()));
        t.elapsed().as_nanos()
    });
    let inc_search_ns = median(runs, || {
        let mut s = model.clone().into_solver(cfg());
        let t = Instant::now();
        let out = s.solve();
        let d = t.elapsed().as_nanos();
        assert!(out.is_sat());
        d
    });
    let ref_build_ns = median(runs, || {
        let t = Instant::now();
        std::hint::black_box(RefSolver::from_model(&model, cfg()));
        t.elapsed().as_nanos()
    });
    let ref_search_ns = median(runs, || {
        let mut s = RefSolver::from_model(&model, cfg());
        let t = Instant::now();
        let out = s.solve();
        let d = t.elapsed().as_nanos();
        assert!(out.is_sat());
        d
    });

    // Construction breakdown: rebuild the model with only one constraint
    // family at a time and time into_solver.
    for (name, keep) in [
        ("alldiff-only", 0usize),
        ("count-only", 1),
        ("leq-only", 2),
        ("no-constraints", 9),
    ] {
        let mut m2 = Model::with_capacity((H as usize) * M, 1400);
        for _ in 0..(H as usize) * M {
            m2.new_var(-1, TASKS.len() as i32 - 1);
        }
        let full = build_model();
        for c in full.constraints() {
            let family = match c {
                Constraint::AllDifferentExcept { .. } => 0,
                Constraint::CountEq { .. } => 1,
                Constraint::LeqVar { .. } => 2,
                _ => 3,
            };
            if family == keep {
                m2.post(c.clone());
            }
        }
        let ns = median(runs, || {
            let mc = m2.clone();
            let t = Instant::now();
            std::hint::black_box(mc.into_solver(cfg()));
            t.elapsed().as_nanos()
        });
        println!("build {name:<14}: {ns:>10} ns");
    }

    // Paired interleaved rounds: time both engines back-to-back per round
    // and look at the per-round ratio — frequency drift cancels.
    let mut ratios: Vec<f64> = (0..41)
        .map(|_| {
            let t = Instant::now();
            assert!(model.clone().into_solver(cfg()).solve().is_sat());
            let inc = t.elapsed().as_nanos();
            let t = Instant::now();
            assert!(RefSolver::from_model(&model, cfg()).solve().is_sat());
            let rf = t.elapsed().as_nanos();
            rf as f64 / inc as f64
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    println!(
        "paired end-to-end ratios: q1 {:.3} med {:.3} q3 {:.3}",
        ratios[ratios.len() / 4],
        ratios[ratios.len() / 2],
        ratios[3 * ratios.len() / 4]
    );

    let mut s = model.clone().into_solver(cfg());
    s.solve();
    println!("incremental stats: {:?}", s.stats());

    println!("model clone       : {:>10} ns", clone_ns);
    println!("inc build         : {:>10} ns", inc_build_ns);
    println!("inc search        : {:>10} ns", inc_search_ns);
    println!("ref build         : {:>10} ns", ref_build_ns);
    println!("ref search        : {:>10} ns", ref_search_ns);
    println!(
        "search-only speedup: {:.3}  end-to-end speedup: {:.3}",
        ref_search_ns as f64 / inc_search_ns as f64,
        (ref_build_ns + ref_search_ns) as f64 / (inc_build_ns + inc_search_ns) as f64
    );
}
