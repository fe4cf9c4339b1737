//! CSP encoding #2 posted on the *generic* engine (constraints (7)–(10)).
//!
//! The paper solves CSP2 with a hand-written search; this module instead
//! hands the same formulation to [`csp_engine`], which serves two purposes:
//!
//! 1. **cross-validation** — the specialized solver ([`crate::csp2`]) and
//!    this generic rendition must agree on every instance, reproducing the
//!    paper's own methodology of debugging one implementation against the
//!    other ("some bugs are rare and hardly noticeable", Section VII);
//! 2. **ablation** — benchmarking it against the specialized search
//!    quantifies what the chronological ordering and rules 1–2 buy.
//!
//! Variables: `x_j(t) ∈ {-1} ∪ {0..n-1}` at index `j·H + t`… laid out
//! time-major (`t·m + j`) so the engine's `Input` ordering coincides with
//! the paper's chronological variable ordering.
//!
//! * (7) availability: out-of-window task values are removed up front;
//! * (8) no intra-task parallelism: pairwise
//!   [`Constraint::NotEqualUnless`] with the idle exemption;
//! * (9) exactly `Ci` per job: [`Constraint::CountEq`] over the job's
//!   instants across processors;
//! * (10) optional symmetry breaking: `x_j(t) ≤ x_{j+1}(t)` as
//!   [`Constraint::LeqVar`] chains (with idle = −1 the canonical form puts
//!   idles first; this is the constraint-level variant — the specialized
//!   solver's rule 1/2 combination is strictly stronger).

use std::time::{Duration, Instant};

use csp_engine::{Budget, Constraint, Model, Outcome, SolverConfig, VarId, VarOrder};
use rt_task::{JobId, JobInstants, TaskError, TaskId, TaskSet, Time};

use crate::csp1::{stop_reason, NEVER_RAISED};
use crate::engine::CancelToken;
use crate::schedule::Schedule;
use crate::solve::{SolveResult, SolveStats, StopReason, Verdict};

/// Configuration for the generic CSP2 solve.
#[derive(Debug, Clone, Copy)]
pub struct Csp2GenericConfig {
    /// Post the eq. (10) symmetry-breaking chain.
    pub symmetry_breaking: bool,
    /// Use chronological (input-order) variable selection rather than the
    /// engine default.
    pub chronological: bool,
    /// Conflict-driven nogood learning (lazy clause generation): 1-UIP
    /// conflict analysis, non-chronological backjumping, Luby restarts and
    /// phase saving on top of the chronological ordering.
    pub learning: bool,
    /// Wall-clock budget.
    pub time: Option<Duration>,
    /// Decision budget.
    pub max_decisions: Option<u64>,
    /// RNG seed (only relevant without `chronological`).
    pub seed: u64,
}

impl Default for Csp2GenericConfig {
    fn default() -> Self {
        Csp2GenericConfig {
            symmetry_breaking: true,
            chronological: true,
            learning: false,
            time: None,
            max_decisions: None,
            seed: 1,
        }
    }
}

/// Variable layout: `x_j(t)` at `t·m + j` (time-major, matching the
/// chronological search of Section V-C1).
#[derive(Debug, Clone)]
pub struct Csp2Layout {
    /// Processors.
    pub m: usize,
    /// Hyperperiod.
    pub h: Time,
}

impl Csp2Layout {
    /// Variable id of `x_j(t)`.
    #[must_use]
    pub fn var(&self, j: usize, t: Time) -> VarId {
        t as usize * self.m + j
    }
}

/// Build the generic CSP2 model.
pub fn encode(
    ts: &TaskSet,
    m: usize,
    symmetry_breaking: bool,
) -> Result<(Model, Csp2Layout), TaskError> {
    encode_polled(ts, m, symmetry_breaking, &CancelToken::new()).map(|e| e.expect(NEVER_RAISED))
}

/// [`encode`], polling `cancel` at each stage boundary: `Ok(None)` once it
/// is raised.
fn encode_polled(
    ts: &TaskSet,
    m: usize,
    symmetry_breaking: bool,
    cancel: &CancelToken,
) -> Result<Option<(Model, Csp2Layout)>, TaskError> {
    let ji = JobInstants::new(ts)?;
    let h = ji.hyperperiod();
    let n = ts.len() as i32;
    let layout = Csp2Layout { m, h };
    // Arity hints: m·H processor-instant variables; one (8) all-different
    // per instant, at most one (9) count per job, H·(m−1) (10) orderings.
    let mut model = Model::with_capacity(m * h as usize, h as usize * m + ts.len() * h as usize);

    // Variables x_j(t) ∈ {-1 .. n-1}, time-major.
    for _t in 0..h {
        for _j in 0..m {
            model.new_var(-1, n - 1);
        }
    }
    // (7): availability holes.
    if cancel.is_cancelled() {
        return Ok(None);
    }
    for t in 0..h {
        for i in 0..ts.len() {
            if ji.job_at(i, t).is_none() {
                for j in 0..m {
                    model.remove_value(layout.var(j, t), i as i32);
                }
            }
        }
    }
    // (8): processors never share a task (idle exempt) — posted as one
    // global all-different-except-idle per instant rather than m(m-1)/2
    // pairwise inequalities.
    if cancel.is_cancelled() {
        return Ok(None);
    }
    for t in 0..h {
        let vars: Vec<VarId> = (0..m).map(|j| layout.var(j, t)).collect();
        model.post(Constraint::AllDifferentExcept { vars, except: -1 });
    }
    // (9): exactly Ci occurrences of value i across the job's instants.
    if cancel.is_cancelled() {
        return Ok(None);
    }
    for i in 0..ts.len() {
        for k in 0..ji.jobs_of(i) {
            let mut vars = Vec::new();
            for t in ji.instants_mod(JobId { task: i, k }) {
                for j in 0..m {
                    vars.push(layout.var(j, t));
                }
            }
            model.post(Constraint::CountEq {
                vars,
                value: i as i32,
                rhs: u32::try_from(ts.task(i).wcet).expect("WCET fits u32"),
            });
        }
    }
    // (10): canonical ordering within each instant.
    if cancel.is_cancelled() {
        return Ok(None);
    }
    if symmetry_breaking {
        for t in 0..h {
            for j in 0..m.saturating_sub(1) {
                model.post(Constraint::LeqVar {
                    a: layout.var(j, t),
                    b: layout.var(j + 1, t),
                });
            }
        }
    }
    Ok(Some((model, layout)))
}

/// Decode an engine solution into a [`Schedule`].
#[must_use]
pub fn decode(layout: &Csp2Layout, solution: &[i32]) -> Schedule {
    let mut s = Schedule::idle(layout.m, layout.h);
    for t in 0..layout.h {
        for j in 0..layout.m {
            let v = solution[layout.var(j, t)];
            if v >= 0 {
                s.set(j, t, Some(v as TaskId));
            }
        }
    }
    s
}

/// Encode and solve CSP2 on the generic engine.
pub fn solve_csp2_generic(
    ts: &TaskSet,
    m: usize,
    cfg: &Csp2GenericConfig,
) -> Result<SolveResult, TaskError> {
    solve_csp2_generic_cancellable(ts, m, cfg, &CancelToken::new())
}

/// [`solve_csp2_generic`] with cooperative cancellation: `cancel` is polled
/// at each encoding stage, per propagator while the engine is built, and
/// at the engine's budget checkpoints.
pub fn solve_csp2_generic_cancellable(
    ts: &TaskSet,
    m: usize,
    cfg: &Csp2GenericConfig,
    cancel: &CancelToken,
) -> Result<SolveResult, TaskError> {
    let start = Instant::now();
    let Some((mut model, layout)) = encode_polled(ts, m, cfg.symmetry_breaking, cancel)? else {
        return Ok(SolveResult::stopped(StopReason::Cancelled, start.elapsed()));
    };
    model.set_interrupt(cancel.as_flag());
    let solver_cfg = if cfg.learning {
        SolverConfig::chronological_learning()
    } else if cfg.chronological {
        SolverConfig {
            var_order: VarOrder::Input,
            ..SolverConfig::default()
        }
    } else {
        SolverConfig::generic_randomized(cfg.seed)
    };
    let mut solver = model.into_solver(solver_cfg);
    // The time budget counts from solve entry: encoding and construction
    // draw on the same allowance as the search.
    solver.set_budget(Budget {
        time: cfg.time.map(|t| t.saturating_sub(start.elapsed())),
        max_decisions: cfg.max_decisions,
        max_failures: None,
    });
    let outcome = solver.solve();
    let st = solver.stats();
    let stats = SolveStats {
        decisions: st.decisions,
        failures: st.failures,
        elapsed_us: st.elapsed_us,
    };
    let verdict = match outcome {
        Outcome::Sat(sol) => Verdict::Feasible(decode(&layout, &sol)),
        Outcome::Unsat => Verdict::Infeasible,
        Outcome::Unknown(limit) => Verdict::Unknown(stop_reason(limit)),
    };
    Ok(SolveResult {
        verdict,
        stats,
        search: Some(crate::solve::search_from_csp(&st)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_identical;

    #[test]
    fn running_example_feasible() {
        let ts = TaskSet::running_example();
        for symmetry in [false, true] {
            let cfg = Csp2GenericConfig {
                symmetry_breaking: symmetry,
                ..Default::default()
            };
            let res = solve_csp2_generic(&ts, 2, &cfg).unwrap();
            let s = res.verdict.schedule().expect("feasible");
            check_identical(&ts, 2, s).unwrap();
        }
    }

    #[test]
    fn agrees_with_infeasible_cases() {
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let res = solve_csp2_generic(&ts, 2, &Csp2GenericConfig::default()).unwrap();
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn symmetry_breaking_reduces_or_preserves_search() {
        let ts = TaskSet::from_ocdt(&[(0, 1, 2, 2), (1, 3, 4, 4), (0, 2, 2, 3), (0, 1, 2, 4)]);
        // Infeasible-leaning hard instance on 2 processors; compare failure
        // counts with and without eq. (10).
        let with = solve_csp2_generic(
            &ts,
            2,
            &Csp2GenericConfig {
                symmetry_breaking: true,
                ..Default::default()
            },
        )
        .unwrap();
        let without = solve_csp2_generic(
            &ts,
            2,
            &Csp2GenericConfig {
                symmetry_breaking: false,
                ..Default::default()
            },
        )
        .unwrap();
        // Verdicts must agree (symmetry breaking preserves satisfiability).
        assert_eq!(
            with.verdict.is_feasible(),
            without.verdict.is_feasible(),
            "eq. (10) must not change the verdict"
        );
        assert!(with.stats.failures <= without.stats.failures.max(1) * 4);
    }

    #[test]
    fn non_chronological_randomized_mode() {
        let ts = TaskSet::running_example();
        let cfg = Csp2GenericConfig {
            chronological: false,
            seed: 5,
            ..Default::default()
        };
        let res = solve_csp2_generic(&ts, 2, &cfg).unwrap();
        let s = res.verdict.schedule().expect("feasible");
        check_identical(&ts, 2, s).unwrap();
    }

    #[test]
    fn learning_mode_agrees_on_both_verdicts() {
        let cfg = Csp2GenericConfig {
            learning: true,
            ..Default::default()
        };
        let ts = TaskSet::running_example();
        let res = solve_csp2_generic(&ts, 2, &cfg).unwrap();
        let s = res.verdict.schedule().expect("feasible");
        check_identical(&ts, 2, s).unwrap();
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let res = solve_csp2_generic(&ts, 2, &cfg).unwrap();
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn learning_is_deterministic_on_table1_instances() {
        use rt_gen::{GeneratorConfig, ProblemGenerator};
        // Learning is reproducible: repeated solves on freshly built
        // solvers learn the same nogoods and take the same steps.
        let cfg = Csp2GenericConfig {
            learning: true,
            max_decisions: Some(500),
            ..Default::default()
        };
        let gen = ProblemGenerator::new(GeneratorConfig::table1(), 0x2009);
        let mut conflicts = 0;
        for p in gen.batch(3) {
            let counts = |_| {
                let res = solve_csp2_generic(&p.taskset, p.m, &cfg).unwrap();
                let s = res.search.expect("engine telemetry");
                (
                    s.conflicts,
                    s.learnt_clauses,
                    s.backjump_sum,
                    s.restarts,
                    s.propagations,
                )
            };
            let runs: Vec<_> = (0..3).map(counts).collect();
            assert!(
                runs.iter().all(|r| *r == runs[0]),
                "instance {}: counts differ across repeats: {runs:?}",
                p.seed
            );
            conflicts += runs[0].0;
        }
        assert!(
            conflicts > 0,
            "the instances must exercise conflict analysis"
        );
    }

    #[test]
    fn layout_time_major() {
        let l = Csp2Layout { m: 3, h: 4 };
        assert_eq!(l.var(0, 0), 0);
        assert_eq!(l.var(2, 0), 2);
        assert_eq!(l.var(0, 1), 3);
        assert_eq!(l.var(2, 3), 11);
    }
}
