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

use csp_engine::{Constraint, Model, SolverConfig, VarId, VarOrder};
use rt_task::{JobId, JobInstants, TaskError, TaskId, TaskSet, Time};

use crate::csp1::NEVER_RAISED;
use crate::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec};
use crate::schedule::Schedule;
use crate::solve::{no_processors, search_model, SolveResult, StopReason};

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

/// [`encode`], polling `cancel` once per iteration of each constraint
/// family's outer loop and once more at the end: `Ok(None)` once it is
/// raised.
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
    // per instant, one (9) count per job, H·(m−1) (10) orderings.
    let mut model = Model::with_capacity(m * h as usize, h as usize * m + ji.total_jobs() as usize);

    // Variables x_j(t) ∈ {-1 .. n-1}, time-major.
    for _t in 0..h {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        for _j in 0..m {
            model.new_var(-1, n - 1);
        }
    }
    // (7): availability holes.
    for t in 0..h {
        if cancel.is_cancelled() {
            return Ok(None);
        }
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
    for t in 0..h {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        let vars: Vec<VarId> = (0..m).map(|j| layout.var(j, t)).collect();
        model.post(Constraint::AllDifferentExcept { vars, except: -1 });
    }
    // (9): exactly Ci occurrences of value i across the job's instants.
    for i in 0..ts.len() {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        let window = ts.task(i).deadline as usize;
        for k in 0..ji.jobs_of(i) {
            let mut vars = Vec::with_capacity(window * m);
            for t in ji.instants_mod_iter(JobId { task: i, k }) {
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
    if symmetry_breaking {
        for t in 0..h {
            if cancel.is_cancelled() {
                return Ok(None);
            }
            for j in 0..m.saturating_sub(1) {
                model.post(Constraint::LeqVar {
                    a: layout.var(j, t),
                    b: layout.var(j + 1, t),
                });
            }
        }
    }
    if cancel.is_cancelled() {
        return Ok(None);
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

/// CSP2 posted verbatim on the generic engine (the cross-validation
/// route), identical processors only: a heterogeneous platform gets
/// [`StopReason::Unsupported`].
///
/// Both modes branch chronologically (input order, smallest value first),
/// so the search is deterministic and needs no seed. `cancel` is polled
/// once per instant or task while encoding, per propagator while the
/// engine is built, and at the engine's budget checkpoints.
#[derive(Debug, Clone, Copy)]
pub struct Csp2GenericEngine {
    /// Post the eq. (10) symmetry-breaking chain.
    pub symmetry_breaking: bool,
    /// Conflict-driven nogood learning (lazy clause generation) with
    /// non-chronological backjumping, Luby restarts and phase saving.
    pub learning: bool,
}

impl Default for Csp2GenericEngine {
    fn default() -> Self {
        Csp2GenericEngine {
            symmetry_breaking: true,
            learning: false,
        }
    }
}

impl FeasibilitySolver for Csp2GenericEngine {
    fn name(&self) -> String {
        if self.learning {
            "csp2-learn".to_string()
        } else {
            "csp2-generic".to_string()
        }
    }

    fn solve_on(
        &self,
        ts: &TaskSet,
        spec: &PlatformSpec,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<SolveResult, TaskError> {
        let PlatformSpec::Identical { m } = *spec else {
            return Ok(SolveResult::stopped(
                StopReason::Unsupported,
                Duration::ZERO,
            ));
        };
        let start = Instant::now();
        if m == 0 {
            // The task set's errors come first, as on every other backend.
            JobInstants::new(ts)?;
            return Ok(no_processors(start));
        }
        let Some((model, layout)) = encode_polled(ts, m, self.symmetry_breaking, cancel)? else {
            return Ok(SolveResult::stopped(StopReason::Cancelled, start.elapsed()));
        };
        let config = if self.learning {
            SolverConfig::chronological_learning()
        } else {
            SolverConfig {
                var_order: VarOrder::Input,
                ..SolverConfig::default()
            }
        };
        Ok(search_model(model, config, budget, start, cancel, |sol| {
            decode(&layout, sol)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_identical;

    fn solve(ts: &TaskSet, m: usize, engine: Csp2GenericEngine, budget: &Budget) -> SolveResult {
        engine.solve(ts, m, budget, &CancelToken::new()).unwrap()
    }

    #[test]
    fn running_example_feasible() {
        let ts = TaskSet::running_example();
        for symmetry in [false, true] {
            let engine = Csp2GenericEngine {
                symmetry_breaking: symmetry,
                ..Default::default()
            };
            let res = solve(&ts, 2, engine, &Budget::unlimited());
            let s = res.verdict.schedule().expect("feasible");
            check_identical(&ts, 2, s).unwrap();
        }
    }

    #[test]
    fn agrees_with_infeasible_cases() {
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let res = solve(&ts, 2, Csp2GenericEngine::default(), &Budget::unlimited());
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn symmetry_breaking_reduces_or_preserves_search() {
        let ts = TaskSet::from_ocdt(&[(0, 1, 2, 2), (1, 3, 4, 4), (0, 2, 2, 3), (0, 1, 2, 4)]);
        // Infeasible-leaning hard instance on 2 processors; compare failure
        // counts with and without eq. (10).
        let with = solve(
            &ts,
            2,
            Csp2GenericEngine {
                symmetry_breaking: true,
                ..Default::default()
            },
            &Budget::unlimited(),
        );
        let without = solve(
            &ts,
            2,
            Csp2GenericEngine {
                symmetry_breaking: false,
                ..Default::default()
            },
            &Budget::unlimited(),
        );
        // Verdicts must agree (symmetry breaking preserves satisfiability).
        assert_eq!(
            with.verdict.is_feasible(),
            without.verdict.is_feasible(),
            "eq. (10) must not change the verdict"
        );
        assert!(with.search.unwrap().backtracks <= without.search.unwrap().backtracks.max(1) * 4);
    }

    #[test]
    fn learning_mode_agrees_on_both_verdicts() {
        let engine = Csp2GenericEngine {
            learning: true,
            ..Default::default()
        };
        let ts = TaskSet::running_example();
        let res = solve(&ts, 2, engine, &Budget::unlimited());
        let s = res.verdict.schedule().expect("feasible");
        check_identical(&ts, 2, s).unwrap();
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let res = solve(&ts, 2, engine, &Budget::unlimited());
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn learning_is_deterministic_on_table1_instances() {
        use rt_gen::{GeneratorConfig, ProblemGenerator};
        // Learning is reproducible: repeated solves on freshly built
        // solvers learn the same nogoods and take the same steps.
        let engine = Csp2GenericEngine {
            learning: true,
            ..Default::default()
        };
        let budget = Budget {
            max_decisions: Some(500),
            ..Budget::unlimited()
        };
        let gen = ProblemGenerator::new(GeneratorConfig::table1(), 0x2009);
        let mut conflicts = 0;
        for p in gen.batch(3) {
            let counts = |_| {
                let res = solve(&p.taskset, p.m, engine, &budget);
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
