//! CSP1 as propositional satisfiability (Section IV).
//!
//! The paper chooses boolean variables for its first encoding precisely
//! "so that even boolean satisfiability (SAT) solvers could be used". This
//! module takes that route: the same `x_{i,j}(t)` variable layout as
//! [`crate::csp1`], translated to CNF and handed to the [`rt_sat`] CDCL
//! solver.
//!
//! Constraint translation:
//!
//! * (2) out-of-interval → unit clauses `¬x_{i,j}(t)`;
//! * (3) ≤1 task per processor-instant → at-most-one over the *available*
//!   tasks at `(j, t)`;
//! * (4) ≤1 processor per task-instant → at-most-one over processors;
//! * (5) exactly `Ci` per availability interval → Sinz sequential-counter
//!   `exactly_k` over per-instant aggregates.
//!
//! For (5) the encoding first defines `y_i(t) ⇔ ⋁_j x_{i,j}(t)` ("task i
//! runs somewhere at t" — well-defined as a 0/1 amount because (4) caps the
//! inner sum at one) and counts over the `y`s. Counting over the raw
//! `(j, t)` cells would feed groups of size `Di·m` to the sequential
//! counter and blow the formula up `m`-fold: on Table-IV-sized instances
//! the cell-level encoding produced 465 k variables where this aggregate
//! form needs ~60 k.
//!
//! The at-most-one groups can use either the pairwise (the default) or
//! the ladder encoding ([`rt_sat::AmoEncoding`]), selected per engine.
//! Aggregate and cardinality auxiliaries live *above* the `n·m·H` layout
//! block, so [`crate::csp1::Csp1Layout`] decodes a SAT model exactly like
//! a CSP solution.

use std::time::Instant;

use rt_sat::{
    at_most_one, exactly_k, AmoEncoding, Cnf, Lit, SatConfig, SatLimit, SatOutcome, SatSolver,
};
use rt_task::{JobId, JobInstants, TaskError, TaskSet};

use crate::csp1::{exceeds_max_cells, Csp1Layout, NEVER_RAISED};
use crate::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec};
use crate::schedule::Schedule;
use crate::solve::{SolveResult, StopReason, Verdict};

/// Map a CDCL stop reason onto the solver-facing one.
fn sat_stop_reason(limit: SatLimit) -> StopReason {
    match limit {
        SatLimit::Time => StopReason::TimeLimit,
        SatLimit::Conflicts => StopReason::DecisionLimit,
        SatLimit::Interrupted => StopReason::Cancelled,
    }
}

/// Build the CNF for an identical platform.
///
/// Returns the formula and the variable layout shared with the engine
/// route; the formula's variables `0..layout.cells()` are exactly the
/// `x_{i,j}(t)` grid (auxiliaries follow).
pub fn encode_cnf(
    ts: &TaskSet,
    m: usize,
    amo: AmoEncoding,
) -> Result<(Cnf, Csp1Layout), TaskError> {
    let ji = JobInstants::new(ts)?;
    Ok(encode_cnf_polled(ts, &ji, m, amo, &CancelToken::new()).expect(NEVER_RAISED))
}

/// [`encode_cnf`] over the job instants `ji` of `ts`, polling `cancel`
/// once per iteration of each constraint family's outer loop: `None` once
/// it is raised.
fn encode_cnf_polled(
    ts: &TaskSet,
    ji: &JobInstants,
    m: usize,
    amo: AmoEncoding,
    cancel: &CancelToken,
) -> Option<(Cnf, Csp1Layout)> {
    let h = ji.hyperperiod();
    let n = ts.len();
    let layout = Csp1Layout { n, m, h };
    let mut cnf = Cnf::new();
    let _ = cnf.new_vars(u32::try_from(layout.cells()).expect("cell count fits u32"));
    let lit = |i: usize, j: usize, t: u64| -> Lit {
        Lit::pos(u32::try_from(layout.var(i, j, t)).expect("var fits u32"))
    };
    // One buffer for every constraint group, refilled in place.
    let mut group: Vec<Lit> = Vec::with_capacity(n.max(m) + 1);

    // (2): out-of-interval variables are false.
    for i in 0..n {
        if cancel.is_cancelled() {
            return None;
        }
        for t in 0..h {
            if ji.job_at(i, t).is_none() {
                for j in 0..m {
                    cnf.add_unit(!lit(i, j, t));
                }
            }
        }
    }
    // (3): at most one *available* task per processor-instant.
    for j in 0..m {
        if cancel.is_cancelled() {
            return None;
        }
        for t in 0..h {
            group.clear();
            group.extend(
                (0..n)
                    .filter(|&i| ji.job_at(i, t).is_some())
                    .map(|i| lit(i, j, t)),
            );
            if group.len() > 1 {
                at_most_one(&mut cnf, &group, amo);
            }
        }
    }
    // (4): at most one processor per task-instant.
    for i in 0..n {
        if cancel.is_cancelled() {
            return None;
        }
        for t in 0..h {
            if ji.job_at(i, t).is_some() && m > 1 {
                group.clear();
                group.extend((0..m).map(|j| lit(i, j, t)));
                at_most_one(&mut cnf, &group, amo);
            }
        }
    }
    // (5): exactly Ci instants of work per availability interval, counted
    // through the aggregate y_i(t) ⇔ ⋁_j x_{i,j}(t). `group` holds the
    // forward clause ¬y ∨ ⋁_j x_{i,j}(t).
    let mut ys: Vec<Lit> = Vec::new();
    for i in 0..n {
        if cancel.is_cancelled() {
            return None;
        }
        let ci = u32::try_from(ts.task(i).wcet).expect("WCET fits u32");
        for k in 0..ji.jobs_of(i) {
            ys.clear();
            for t in ji.instants_mod_iter(JobId { task: i, k }) {
                let y = Lit::pos(cnf.new_var());
                group.clear();
                group.push(!y);
                group.extend((0..m).map(|j| lit(i, j, t)));
                for &x in &group[1..] {
                    cnf.add_binary(!x, y);
                }
                cnf.add_clause(&group);
                ys.push(y);
            }
            exactly_k(&mut cnf, &ys, ci);
        }
    }
    Some((cnf, layout))
}

/// Decode a SAT model into a [`Schedule`] via the shared layout.
#[must_use]
fn decode_model(layout: &Csp1Layout, model: &[bool]) -> Schedule {
    let mut s = Schedule::idle(layout.m, layout.h);
    for i in 0..layout.n {
        for j in 0..layout.m {
            for t in 0..layout.h {
                if model[layout.var(i, j, t)] {
                    debug_assert_eq!(s.at(j, t), None, "(3) guarantees one task per slot");
                    s.set(j, t, Some(i));
                }
            }
        }
    }
    s
}

/// CSP1 lowered to CNF on the CDCL solver (the paper's "even SAT solvers
/// could be used" route), on identical processors or, with the
/// pseudo-boolean constraint (11), on a heterogeneous platform
/// ([`crate::csp1_sat_hetero`]).
///
/// The solve shares the `csp1` size guard ([`Budget::max_cells`]) and reads
/// [`Budget::max_conflicts`]. `cancel` is polled while the CNF is encoded
/// and loaded into the CDCL solver (see [`SatSolver::with_interrupt`]) and
/// in the CDCL propagation loop. The time budget and the reported
/// `elapsed_us` run from solve entry, so they cover encoding and solver
/// construction as well as the search.
#[derive(Debug, Clone, Copy, Default)]
pub struct Csp1SatEngine {
    /// At-most-one encoding for constraint families (3)/(4).
    pub amo: AmoEncoding,
}

impl FeasibilitySolver for Csp1SatEngine {
    fn name(&self) -> String {
        "sat".to_string()
    }

    fn solve_on(
        &self,
        ts: &TaskSet,
        spec: &PlatformSpec,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<SolveResult, TaskError> {
        let start = Instant::now();
        let ji = JobInstants::new(ts)?;
        if exceeds_max_cells(ts, &ji, spec.num_processors(), budget) {
            return Ok(SolveResult::stopped(
                StopReason::EncodingTooLarge,
                start.elapsed(),
            ));
        }
        let encoded = match spec {
            PlatformSpec::Identical { m } => encode_cnf_polled(ts, &ji, *m, self.amo, cancel),
            PlatformSpec::Heterogeneous(p) => {
                crate::csp1_sat_hetero::encode_cnf_hetero_polled(ts, &ji, p, self.amo, cancel)
            }
        };
        let Some((cnf, layout)) = encoded else {
            return Ok(SolveResult::stopped(StopReason::Cancelled, start.elapsed()));
        };
        Ok(run_cdcl(&cnf, &layout, budget, start, cancel))
    }
}

/// Load `cnf` into a CDCL solver under `cancel` and search it within
/// `budget`'s conflicts, with its wall-clock allowance counted from
/// `start` (the solve's entry), so encoding and construction draw on the
/// same allowance as the search.
fn run_cdcl(
    cnf: &Cnf,
    layout: &Csp1Layout,
    budget: &Budget,
    start: Instant,
    cancel: &CancelToken,
) -> SolveResult {
    let sat_cfg = SatConfig {
        max_conflicts: budget.max_conflicts,
        // Almost all grid cells are false in any schedule (utilization < 1
        // per processor implies idle slots; each task occupies one cell per
        // unit of work), so deciding false-first finds models sooner.
        default_phase: false,
        ..SatConfig::default()
    };
    let mut solver = SatSolver::with_interrupt(cnf, sat_cfg, Some(cancel.as_flag()));
    let left = budget.time.map(|t| t.saturating_sub(start.elapsed()));
    if left.is_some_and(|d| d.is_zero()) {
        return SolveResult::stopped(StopReason::TimeLimit, start.elapsed());
    }
    solver.set_time_limit(left);
    let verdict = match solver.solve() {
        SatOutcome::Sat(model) => Verdict::Feasible(decode_model(layout, &model)),
        SatOutcome::Unsat => Verdict::Infeasible,
        SatOutcome::Unknown(limit) => Verdict::Unknown(sat_stop_reason(limit)),
    };
    SolveResult::searched(verdict, solver.stats(), start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csp1::Csp1Engine;
    use crate::verify::check_identical;

    fn solve(
        ts: &TaskSet,
        m: usize,
        engine: &dyn FeasibilitySolver,
        budget: &Budget,
    ) -> SolveResult {
        engine.solve(ts, m, budget, &CancelToken::new()).unwrap()
    }

    #[test]
    fn running_example_feasible_both_amo() {
        let ts = TaskSet::running_example();
        for amo in [AmoEncoding::Pairwise, AmoEncoding::Ladder] {
            let res = solve(&ts, 2, &Csp1SatEngine { amo }, &Budget::unlimited());
            let s = res.verdict.schedule().expect("feasible");
            check_identical(&ts, 2, s).unwrap();
        }
    }

    #[test]
    fn infeasible_overload() {
        // Three always-busy tasks, two processors.
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let res = solve(&ts, 2, &Csp1SatEngine::default(), &Budget::unlimited());
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn agrees_with_engine_route_on_small_instances() {
        // A handful of fixed instances covering SAT and UNSAT.
        type Spec = (Vec<(u64, u64, u64, u64)>, usize);
        let instances: Vec<Spec> = vec![
            (vec![(0, 1, 2, 2), (0, 2, 3, 3)], 2),
            (vec![(0, 2, 2, 2), (0, 2, 2, 2), (0, 1, 3, 3)], 2),
            (vec![(1, 3, 4, 4), (0, 1, 2, 2)], 1),
            (vec![(0, 2, 2, 4), (2, 2, 2, 4)], 1),
            (vec![(0, 2, 2, 2), (0, 2, 2, 2)], 1),
        ];
        for (spec, m) in instances {
            let ts = TaskSet::from_ocdt(&spec);
            let sat = solve(&ts, m, &Csp1SatEngine::default(), &Budget::unlimited());
            let engine = solve(&ts, m, &Csp1Engine::default(), &Budget::unlimited());
            assert_eq!(
                sat.verdict.is_feasible(),
                engine.verdict.is_feasible(),
                "disagreement on {spec:?} m={m}"
            );
            if let Some(s) = sat.verdict.schedule() {
                check_identical(&ts, m, s).unwrap();
            }
        }
    }

    #[test]
    fn size_guard_refuses_large_models() {
        let ts = TaskSet::running_example();
        let budget = Budget {
            max_cells: Some(10),
            ..Budget::unlimited()
        };
        let res = solve(&ts, 2, &Csp1SatEngine::default(), &budget);
        assert_eq!(res.verdict, Verdict::Unknown(StopReason::EncodingTooLarge));
    }

    #[test]
    fn wrapped_interval_handled() {
        let ts = TaskSet::from_ocdt(&[(1, 3, 4, 4)]);
        let res = solve(&ts, 1, &Csp1SatEngine::default(), &Budget::unlimited());
        let s = res.verdict.schedule().expect("feasible");
        check_identical(&ts, 1, s).unwrap();
    }

    #[test]
    fn conflict_budget_reports_unknown_or_decides() {
        let ts = TaskSet::from_ocdt(&[
            (0, 2, 3, 4),
            (0, 3, 4, 4),
            (1, 2, 3, 4),
            (0, 1, 2, 2),
            (0, 2, 4, 4),
        ]);
        let budget = Budget {
            max_conflicts: Some(1),
            ..Budget::unlimited()
        };
        // With one conflict allowed the solver either finishes by pure
        // propagation or reports Unknown — it must not misreport.
        let res = solve(&ts, 2, &Csp1SatEngine::default(), &budget);
        if let Some(s) = res.verdict.schedule() {
            check_identical(&ts, 2, s).unwrap();
        }
    }
}
