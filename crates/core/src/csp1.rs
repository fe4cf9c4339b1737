//! CSP encoding #1 (Section IV): boolean variables on the generic solver.
//!
//! One 0/1 variable `x_{i,j}(t)` per task × processor × instant states
//! whether `τi` runs on `Pj` at `t`. The four constraint families map
//! one-to-one onto the paper:
//!
//! * (2) out-of-interval variables get the singleton domain `{0}` (the
//!   paper notes this is resolved by propagation before search — we resolve
//!   it at encoding time, which is the same pruning done sooner);
//! * (3) `Σ_i x_{i,j}(t) ≤ 1` — [`csp_engine::Constraint::AtMostOneTrue`];
//! * (4) `Σ_j x_{i,j}(t) ≤ 1` — likewise;
//! * (5) `Σ_{t∈Ii,k} Σ_j x_{i,j}(t) = Ci` —
//!   [`csp_engine::Constraint::BoolSumEq`] per job.
//!
//! The model is handed to the [`csp_engine`] solver in its randomized
//! generic configuration, mirroring the paper's use of Choco's default
//! strategy. Encoding size is `n·m·H` booleans; a guard refuses models past
//! a configurable cell budget, reproducing the paper's observation that
//! CSP1 "runs out of memory on large instances" (Section VII-E) as a clean
//! [`StopReason::EncodingTooLarge`] verdict instead of an abort.

use std::time::Instant;

use csp_engine::{Constraint, Model, SolverConfig, VarId};
use rt_task::{JobId, JobInstants, TaskError, TaskId, TaskSet, Time};

use crate::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec};
use crate::schedule::Schedule;
use crate::solve::{no_processors, search_model, SolveResult, StopReason};

/// Default refusal threshold: models beyond this many boolean cells are not
/// built (≈ a few hundred MB of solver state, the regime where the paper's
/// CSP1 died). [`Budget::max_cells`] overrides it.
pub const DEFAULT_MAX_CELLS: u64 = 4_000_000;

/// The size guard of the boolean encodings (`csp1` and `sat`, on either
/// platform): does the `n·m·H` cell grid exceed the budget's `max_cells`?
pub(crate) fn exceeds_max_cells(ts: &TaskSet, ji: &JobInstants, m: usize, budget: &Budget) -> bool {
    let cells = ts.len() as u64 * m as u64 * ji.hyperperiod();
    cells > budget.max_cells.unwrap_or(DEFAULT_MAX_CELLS)
}

/// Variable layout of an encoded CSP1 model: `x_{i,j}(t)` lives at index
/// `i·(m·H) + j·H + t`.
#[derive(Debug, Clone)]
pub struct Csp1Layout {
    /// Tasks.
    pub n: usize,
    /// Processors.
    pub m: usize,
    /// Hyperperiod.
    pub h: Time,
}

impl Csp1Layout {
    /// Variable id of `x_{i,j}(t)`.
    #[must_use]
    pub fn var(&self, i: TaskId, j: usize, t: Time) -> VarId {
        i * (self.m * self.h as usize) + j * self.h as usize + t as usize
    }

    /// Total variable count `n·m·H`.
    #[must_use]
    pub fn cells(&self) -> u64 {
        self.n as u64 * self.m as u64 * self.h
    }
}

/// Build the CSP1 model for an identical platform. Returns the model and
/// its layout, or the problem's `TaskError` if the task set is invalid.
pub fn encode(ts: &TaskSet, m: usize) -> Result<(Model, Csp1Layout), TaskError> {
    encode_polled(ts, m, &CancelToken::new()).map(|e| e.expect(NEVER_RAISED))
}

/// The `expect` message of an encoder's never-cancelled entry point.
pub(crate) const NEVER_RAISED: &str = "a fresh token is never raised";

/// [`encode`], polling `cancel` once per iteration of each constraint
/// family's outer loop and once more at the end: `Ok(None)` once it is
/// raised. A racing winner then waits for at most one task's or one
/// processor's worth of encoding, not a whole family's.
fn encode_polled(
    ts: &TaskSet,
    m: usize,
    cancel: &CancelToken,
) -> Result<Option<(Model, Csp1Layout)>, TaskError> {
    let ji = JobInstants::new(ts)?;
    let h = ji.hyperperiod();
    let n = ts.len();
    let layout = Csp1Layout { n, m, h };
    // Arity hints: n·m·H boolean cells, one (3) row per processor-instant,
    // at most one (4) row per task-instant plus one (5) sum per job.
    let mut model = Model::with_capacity(
        layout.cells() as usize,
        (m + n) * h as usize + ji.total_jobs() as usize,
    );

    // Variables with constraint (2) folded into the domains.
    for i in 0..n {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        for _j in 0..m {
            for t in 0..h {
                if ji.job_at(i, t).is_some() {
                    model.new_bool();
                } else {
                    model.new_var(0, 0);
                }
            }
        }
    }

    // (3): at most one task per processor-instant.
    for j in 0..m {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        for t in 0..h {
            let vars: Vec<VarId> = (0..n).map(|i| layout.var(i, j, t)).collect();
            model.post(Constraint::AtMostOneTrue { vars });
        }
    }
    // (4): at most one processor per task-instant (only where available).
    for i in 0..n {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        for t in 0..h {
            if ji.job_at(i, t).is_some() {
                let vars: Vec<VarId> = (0..m).map(|j| layout.var(i, j, t)).collect();
                model.post(Constraint::AtMostOneTrue { vars });
            }
        }
    }
    // (5): exactly Ci units per availability interval.
    for i in 0..n {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        let window = ts.task(i).deadline as usize;
        for k in 0..ji.jobs_of(i) {
            let mut vars = Vec::with_capacity(window * m);
            for t in ji.instants_mod_iter(JobId { task: i, k }) {
                for j in 0..m {
                    vars.push(layout.var(i, j, t));
                }
            }
            model.post(Constraint::BoolSumEq {
                vars,
                rhs: u32::try_from(ts.task(i).wcet).expect("WCET fits u32"),
            });
        }
    }
    if cancel.is_cancelled() {
        return Ok(None);
    }
    Ok(Some((model, layout)))
}

/// Decode an engine solution into a [`Schedule`].
#[must_use]
pub fn decode(layout: &Csp1Layout, solution: &[i32]) -> Schedule {
    let mut s = Schedule::idle(layout.m, layout.h);
    for i in 0..layout.n {
        for j in 0..layout.m {
            for t in 0..layout.h {
                if solution[layout.var(i, j, t)] == 1 {
                    debug_assert_eq!(s.at(j, t), None, "(3) guarantees one task per slot");
                    s.set(j, t, Some(i));
                }
            }
        }
    }
    s
}

/// CSP1 on the generic randomized engine (the paper's Choco setup), on
/// identical processors or, with constraint (11), on a heterogeneous
/// platform ([`crate::hetero`]).
///
/// Models past the [`Budget::max_cells`] size guard ([`DEFAULT_MAX_CELLS`]
/// by default) are refused with [`StopReason::EncodingTooLarge`]. `cancel`
/// is polled once per task or processor while encoding, every 1024
/// variables and once per propagator while the engine is built, and at the
/// engine's budget checkpoints.
#[derive(Debug, Clone, Copy)]
pub struct Csp1Engine {
    /// Seed for the randomized search strategy.
    pub seed: u64,
}

impl Default for Csp1Engine {
    fn default() -> Self {
        Csp1Engine { seed: 1 }
    }
}

impl FeasibilitySolver for Csp1Engine {
    fn name(&self) -> String {
        "csp1".to_string()
    }

    fn solve_on(
        &self,
        ts: &TaskSet,
        spec: &PlatformSpec,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<SolveResult, TaskError> {
        let start = Instant::now();
        // Size guard first, so huge instances fail fast and cleanly.
        let ji = JobInstants::new(ts)?;
        if exceeds_max_cells(ts, &ji, spec.num_processors(), budget) {
            return Ok(SolveResult::stopped(
                StopReason::EncodingTooLarge,
                start.elapsed(),
            ));
        }
        if spec.num_processors() == 0 {
            return Ok(no_processors(start));
        }
        let encoded = match spec {
            PlatformSpec::Identical { m } => encode_polled(ts, *m, cancel)?,
            PlatformSpec::Heterogeneous(p) => crate::hetero::encode_csp1_polled(ts, p, cancel)?,
        };
        let Some((model, layout)) = encoded else {
            return Ok(SolveResult::stopped(StopReason::Cancelled, start.elapsed()));
        };
        let config = SolverConfig::generic_randomized(self.seed);
        Ok(search_model(model, config, budget, start, cancel, |sol| {
            decode(&layout, sol)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::Verdict;
    use crate::verify::check_identical;

    fn solve(ts: &TaskSet, m: usize, engine: Csp1Engine, budget: &Budget) -> SolveResult {
        engine.solve(ts, m, budget, &CancelToken::new()).unwrap()
    }

    #[test]
    fn layout_is_a_bijection() {
        let layout = Csp1Layout { n: 3, m: 2, h: 5 };
        let mut seen = std::collections::HashSet::new();
        for i in 0..3 {
            for j in 0..2 {
                for t in 0..5 {
                    assert!(seen.insert(layout.var(i, j, t)));
                }
            }
        }
        assert_eq!(seen.len(), layout.cells() as usize);
        assert!(seen.iter().all(|&v| v < 30));
    }

    #[test]
    fn running_example_feasible() {
        let ts = TaskSet::running_example();
        let res = solve(&ts, 2, Csp1Engine::default(), &Budget::unlimited());
        let s = res.verdict.schedule().expect("feasible");
        check_identical(&ts, 2, s).unwrap();
    }

    #[test]
    fn model_size_matches_formula() {
        let ts = TaskSet::running_example();
        let (model, layout) = encode(&ts, 2).unwrap();
        assert_eq!(model.num_vars(), layout.cells() as usize); // 3·2·12 = 72
        assert_eq!(model.num_vars(), 72);
        // Constraints: (3) m·H = 24, (4) Σ_i available instants
        // (τ1: 12, τ2: 12, τ3: 8 → 32), (5) total jobs = 13 → 69.
        assert_eq!(model.num_constraints(), 24 + 32 + 13);
    }

    #[test]
    fn infeasible_overload() {
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let res = solve(&ts, 2, Csp1Engine::default(), &Budget::unlimited());
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn size_guard_refuses_large_models() {
        let ts = TaskSet::running_example();
        let budget = Budget {
            max_cells: Some(10),
            ..Budget::unlimited()
        };
        let res = solve(&ts, 2, Csp1Engine::default(), &budget);
        assert_eq!(res.verdict, Verdict::Unknown(StopReason::EncodingTooLarge));
    }

    #[test]
    fn different_seeds_still_sound() {
        let ts = TaskSet::from_ocdt(&[(0, 1, 2, 2), (0, 2, 3, 3)]);
        for seed in 0..4 {
            let res = solve(&ts, 2, Csp1Engine { seed }, &Budget::unlimited());
            let s = res.verdict.schedule().expect("feasible");
            check_identical(&ts, 2, s).unwrap();
        }
    }

    #[test]
    fn wrapped_interval_encoded_correctly() {
        // τ2-style wrap: (O=1, C=3, D=4, T=4) alone on one processor.
        let ts = TaskSet::from_ocdt(&[(1, 3, 4, 4)]);
        let res = solve(&ts, 1, Csp1Engine::default(), &Budget::unlimited());
        let s = res.verdict.schedule().expect("feasible");
        check_identical(&ts, 1, s).unwrap();
    }
}
