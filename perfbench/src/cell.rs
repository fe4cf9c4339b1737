//! The `cell` phase: the workload's generator stream run through four
//! backends one after another on one thread, each under a fixed work
//! budget (decisions for the CSP searches, conflicts for SAT).
//!
//! With deterministic work per solve, wall time measures the speed of
//! the search and encoding kernels (`mgrts_core::csp2`, `rt_sat`,
//! `csp_engine`); the store and serve layers are absent.

use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

use mgrts_core::csp2::Csp2Solver;
use mgrts_core::engine::{Budget, CancelToken, FeasibilitySolver, SolverSpec};
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::solve::{StopReason, Verdict};
use mgrts_core::verify::check_identical;
use mgrts_core::{csp1_sat, csp2_generic};
use mgrts_obs::SearchStats;
use rt_gen::{Problem, ProblemGenerator};
use rt_sat::{AmoEncoding, SatConfig, SatSolver};

use crate::trace::Tracer;
use crate::workload::Workload;
use crate::Tally;

/// Generous wall-clock safety cap per solve; hitting it is a failed
/// operation (the work budgets should always bind first).
pub const WALL_CAP: Duration = Duration::from_secs(10);

/// One backend of the phase.
#[derive(Debug, Clone, Copy)]
pub struct Backend {
    /// The engine.
    pub spec: SolverSpec,
    /// Metric prefix (`<key>.cell_s`).
    pub key: &'static str,
    /// Span name around its solve.
    pub solve_span: &'static str,
}

/// The four backends, in the order each instance visits them.
pub const BACKENDS: [Backend; 4] = [
    Backend {
        spec: SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet),
        key: "csp2_dc",
        solve_span: "csp2_dc.solve",
    },
    Backend {
        spec: SolverSpec::Csp1Sat,
        key: "sat",
        solve_span: "sat.solve",
    },
    Backend {
        spec: SolverSpec::Csp2Generic,
        key: "generic",
        solve_span: "generic.solve",
    },
    Backend {
        spec: SolverSpec::Csp2Learn,
        key: "learn",
        solve_span: "learn.solve",
    },
];

/// Instances and engines of the phase.
pub struct Setup {
    /// The first `cell_instances` instances of the seeded stream.
    pub problems: Vec<Problem>,
    engines: Vec<Box<dyn FeasibilitySolver>>,
}

/// Generate the stream and build the engines.
#[must_use]
pub fn setup(w: &Workload, seed: u64, tracer: &Tracer) -> Setup {
    let root = tracer.span("setup.cell", 0, 0);
    let gen = ProblemGenerator::new(w.gen, seed);
    let problems = {
        let mut sp = tracer.span("gen", 0, root.id());
        sp.set_items(w.cell_instances);
        (0..w.cell_instances).map(|i| gen.nth(i)).collect()
    };
    let engines = {
        let _sp = tracer.span("setup.engines", 0, root.id());
        BACKENDS.iter().map(|b| b.spec.build()).collect()
    };
    Setup { problems, engines }
}

/// What the phase measured. The stream is run twice, chunk by chunk at
/// different times of the run; counts and verdicts come from the first
/// attempt.
#[derive(Debug, Clone, Default)]
pub struct CellRun {
    /// Wall seconds of each backend on each chunk (verification
    /// included), per attempt.
    pub chunk_s: [Vec<[f64; 4]>; 2],
    /// Definitive verdicts summed over the four backends.
    pub decided: u64,
    /// Definitive verdicts per backend.
    pub decided_by: [u64; 4],
    /// Per instance: `Some(true)` feasible, `Some(false)` infeasible,
    /// `None` undecided by every backend.
    pub verdicts: Vec<Option<bool>>,
    /// Search telemetry per backend, summed over the stream.
    pub search: [SearchStats; 4],
    /// Feasible schedules re-verified against C1–C4.
    pub verified: u64,
    /// Schedules that failed verification.
    pub verify_failed: u64,
    /// CNF variables and clauses summed over the stream (traced runs).
    pub cnf_vars: u64,
    /// See `cnf_vars`.
    pub cnf_clauses: u64,
}

/// The fixed work budget of `backend`: `work` conflicts for SAT, `work`
/// decisions otherwise, under the wall-clock safety cap.
#[must_use]
fn budget(backend: &Backend, work: u64) -> Budget {
    let sat = backend.spec == SolverSpec::Csp1Sat;
    Budget {
        time: Some(WALL_CAP),
        max_decisions: (!sat).then_some(work),
        max_conflicts: sat.then_some(work),
        max_cells: None,
    }
}

impl CellRun {
    /// Each backend's wall seconds for the whole stream, in [`BACKENDS`]
    /// order: the sum over chunks of the faster of the chunk's two
    /// attempts, so a slow spell of the machine during one attempt does
    /// not count.
    #[must_use]
    pub fn cell_s(&self) -> [f64; 4] {
        let mut total = [0.0; 4];
        for (c, first) in self.chunk_s[0].iter().enumerate() {
            let second = self.chunk_s[1].get(c).unwrap_or(first);
            for b in 0..4 {
                total[b] += first[b].min(second[b]);
            }
        }
        total
    }
}

/// Run instances `range` of the stream through the four backends as
/// attempt `attempt` (0 or 1), accumulating into `run`. First attempts
/// must arrive in stream order.
pub fn chunk(
    setup: &Setup,
    w: &Workload,
    range: Range<usize>,
    attempt: usize,
    tracer: &Tracer,
    run: &mut CellRun,
    tally: &mut Tally,
) {
    let cancel = CancelToken::new();
    let first = attempt == 0;
    let mut times = [0.0f64; 4];
    for i in range {
        let p = &setup.problems[i];
        let trace = i as u64;
        let root = tracer.span("cell.instance", trace, 0);
        let mut feasible_by: Option<&str> = None;
        let mut infeasible_by: Option<&str> = None;
        for (b, (backend, engine)) in BACKENDS.iter().zip(&setup.engines).enumerate() {
            if tracer.enabled() && first {
                layer_calls(backend, p, tracer, trace, root.id(), run);
            }
            let budget = budget(backend, w.cell_budgets[b]);
            tally.attempted += 1;
            let t0 = Instant::now();
            let res = {
                let _sp = tracer.span(backend.solve_span, trace, root.id());
                engine.solve(&p.taskset, p.m, &budget, &cancel)
            };
            let res = match res {
                Ok(r) => r,
                Err(e) => {
                    tally.fail(format!("cell: {} on instance {i}: {e}", backend.key));
                    continue;
                }
            };
            let mut verdict_ok = true;
            if let Verdict::Feasible(s) = &res.verdict {
                let _sp = tracer.span("verify", trace, root.id());
                if let Err(e) = check_identical(&p.taskset, p.m, s) {
                    run.verify_failed += 1;
                    verdict_ok = false;
                    tally.fail(format!(
                        "cell: {} returned an invalid schedule on instance {i}: {e}",
                        backend.key
                    ));
                } else if first {
                    run.verified += 1;
                }
            }
            times[b] += t0.elapsed().as_secs_f64();
            match &res.verdict {
                Verdict::Feasible(_) if verdict_ok => feasible_by = Some(backend.key),
                Verdict::Infeasible => infeasible_by = Some(backend.key),
                Verdict::Unknown(StopReason::TimeLimit) => tally.fail(format!(
                    "cell: {} hit the {WALL_CAP:?} safety cap on instance {i}",
                    backend.key
                )),
                _ => {}
            }
            if !first {
                continue;
            }
            if verdict_ok && (res.verdict.is_feasible() || res.verdict.is_infeasible()) {
                run.decided_by[b] += 1;
                run.decided += 1;
            }
            if let Some(search) = &res.search {
                run.search[b].merge(search);
            }
        }
        if let (Some(f), Some(inf)) = (feasible_by, infeasible_by) {
            tally.fail(format!(
                "cell: backends disagree on instance {i}: {f} feasible, {inf} infeasible"
            ));
        }
        if first {
            run.verdicts.push(match (feasible_by, infeasible_by) {
                (Some(_), _) => Some(true),
                (None, Some(_)) => Some(false),
                (None, None) => None,
            });
        }
    }
    run.chunk_s[attempt.min(1)].push(times);
}

/// The layer entry points a backend's solve goes through, called on their
/// own so the trace can time them: `Csp2Solver::new` for `csp2-dc`, the
/// CNF encoder and `SatSolver::new` for `sat`, the CSP2 model encoder for
/// `csp2-generic`. The backend's solve repeats this work internally.
fn layer_calls(
    backend: &Backend,
    p: &Problem,
    tracer: &Tracer,
    trace: u64,
    parent: u64,
    run: &mut CellRun,
) {
    match backend.key {
        "csp2_dc" => {
            let _sp = tracer.span("csp2_dc.build", trace, parent);
            let _ = black_box(Csp2Solver::new(&p.taskset, p.m));
        }
        "sat" => {
            let encoded = {
                let _sp = tracer.span("sat.encode", trace, parent);
                black_box(csp1_sat::encode_cnf(
                    &p.taskset,
                    p.m,
                    AmoEncoding::default(),
                ))
            };
            if let Ok((cnf, _)) = &encoded {
                run.cnf_vars += u64::from(cnf.num_vars());
                run.cnf_clauses += cnf.num_clauses() as u64;
                let _sp = tracer.span("sat.build", trace, parent);
                black_box(SatSolver::new(cnf, SatConfig::default()));
            }
        }
        "generic" => {
            let _sp = tracer.span("generic.encode", trace, parent);
            let _ = black_box(csp2_generic::encode(&p.taskset, p.m, true));
        }
        _ => {}
    }
}
