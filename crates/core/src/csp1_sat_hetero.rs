//! The SAT route on *heterogeneous* platforms (Section VI-A): CSP1 with
//! the rate-weighted completion constraint (11) lowered to CNF.
//!
//! Differences from the identical-platform lowering in
//! [`crate::csp1_sat`]:
//!
//! * cells with `si,j = 0` are forced false (the domain restriction of
//!   Section VI-A);
//! * constraint (11) `Σ si,j·x_{i,j}(t) = Ci` per job is a *pseudo-boolean*
//!   equality, encoded with [`rt_sat::pb_exactly`] (the weighted-counter /
//!   BDD decomposition). The identical case degenerates to unit weights,
//!   where `pb_exactly` and the sequential counter coincide in strength —
//!   the specialized [`crate::csp1_sat`] path remains preferable there
//!   because its per-instant aggregation keeps groups `m`× smaller.

use rt_platform::Platform;
use rt_sat::{at_most_one, pb_exactly, AmoEncoding, Cnf, Lit};
use rt_task::{JobId, JobInstants, TaskError, TaskSet};

use crate::csp1::{Csp1Layout, NEVER_RAISED};
use crate::engine::CancelToken;

/// Build the heterogeneous CNF.
pub fn encode_cnf_hetero(
    ts: &TaskSet,
    platform: &Platform,
    amo: AmoEncoding,
) -> Result<(Cnf, Csp1Layout), TaskError> {
    let ji = JobInstants::new(ts)?;
    Ok(encode_cnf_hetero_polled(ts, &ji, platform, amo, &CancelToken::new()).expect(NEVER_RAISED))
}

/// [`encode_cnf_hetero`] over the job instants `ji` of `ts`, polling
/// `cancel` once per iteration of each constraint family's outer loop:
/// `None` once it is raised. The `sat` engine's heterogeneous route
/// ([`crate::csp1_sat::Csp1SatEngine`]).
pub(crate) fn encode_cnf_hetero_polled(
    ts: &TaskSet,
    ji: &JobInstants,
    platform: &Platform,
    amo: AmoEncoding,
    cancel: &CancelToken,
) -> Option<(Cnf, Csp1Layout)> {
    assert_eq!(platform.num_tasks(), ts.len(), "rate matrix row count");
    let h = ji.hyperperiod();
    let n = ts.len();
    let m = platform.num_processors();
    let layout = Csp1Layout { n, m, h };
    let mut cnf = Cnf::new();
    let _ = cnf.new_vars(u32::try_from(layout.cells()).expect("cell count fits u32"));
    let lit = |i: usize, j: usize, t: u64| -> Lit {
        Lit::pos(u32::try_from(layout.var(i, j, t)).expect("var fits u32"))
    };
    // One buffer for every at-most-one group, refilled in place.
    let mut group: Vec<Lit> = Vec::with_capacity(n.max(m));

    // (2) + domain restriction: out-of-interval or forbidden cells false.
    for i in 0..n {
        if cancel.is_cancelled() {
            return None;
        }
        for t in 0..h {
            let available = ji.job_at(i, t).is_some();
            for j in 0..m {
                if !available || !platform.can_run(i, j) {
                    cnf.add_unit(!lit(i, j, t));
                }
            }
        }
    }
    // (3): at most one runnable task per processor-instant.
    for j in 0..m {
        if cancel.is_cancelled() {
            return None;
        }
        for t in 0..h {
            group.clear();
            group.extend(
                (0..n)
                    .filter(|&i| ji.job_at(i, t).is_some() && platform.can_run(i, j))
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
            if ji.job_at(i, t).is_some() {
                group.clear();
                group.extend(
                    (0..m)
                        .filter(|&j| platform.can_run(i, j))
                        .map(|j| lit(i, j, t)),
                );
                if group.len() > 1 {
                    at_most_one(&mut cnf, &group, amo);
                }
            }
        }
    }
    // (11): Σ si,j·x = Ci per job, as a PB equality over eligible cells.
    let mut cells: Vec<Lit> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    for i in 0..n {
        if cancel.is_cancelled() {
            return None;
        }
        let ci = ts.task(i).wcet;
        for k in 0..ji.jobs_of(i) {
            cells.clear();
            weights.clear();
            for t in ji.instants_mod_iter(JobId { task: i, k }) {
                for j in 0..m {
                    if platform.can_run(i, j) {
                        cells.push(lit(i, j, t));
                        weights.push(platform.rate(i, j));
                    }
                }
            }
            pb_exactly(&mut cnf, &cells, &weights, ci);
        }
    }
    Some((cnf, layout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csp1_sat::Csp1SatEngine;
    use crate::engine::{Budget, FeasibilitySolver, PlatformSpec};
    use crate::solve::{SolveResult, StopReason, Verdict};
    use crate::verify::check_heterogeneous;

    fn solve(ts: &TaskSet, platform: &Platform, budget: &Budget) -> SolveResult {
        let spec = PlatformSpec::Heterogeneous(platform.clone());
        Csp1SatEngine::default()
            .solve_on(ts, &spec, budget, &CancelToken::new())
            .unwrap()
    }

    #[test]
    fn identical_rates_reduce_to_the_plain_problem() {
        let ts = TaskSet::running_example();
        let platform = Platform::identical(3, 2).unwrap();
        let res = solve(&ts, &platform, &Budget::unlimited());
        let s = res.verdict.schedule().expect("feasible");
        check_heterogeneous(&ts, &platform, s).unwrap();
    }

    #[test]
    fn fast_processor_shortens_required_slots() {
        // One task (C=4, D=2, T=4): impossible at rate 1 (4 > 2 slots)…
        // actually C ≤ D is enforced, so use C=2, D=2 with a rate-2
        // processor: one slot on P1 completes it, leaving room for a
        // second such task on the same processor.
        let ts = TaskSet::from_ocdt(&[(0, 2, 2, 4), (0, 2, 2, 4)]);
        // Both tasks can run only on the single rate-2 processor.
        let platform = Platform::heterogeneous(vec![vec![2], vec![2]]).unwrap();
        let res = solve(&ts, &platform, &Budget::unlimited());
        let s = res.verdict.schedule().expect("rate 2 halves the demand");
        check_heterogeneous(&ts, &platform, &s.clone()).unwrap();
    }

    #[test]
    fn dedicated_processors_respected() {
        // τ1 can only run on P1, τ2 only on P2; both need the full window.
        let ts = TaskSet::from_ocdt(&[(0, 2, 2, 2), (0, 2, 2, 2)]);
        let platform = Platform::heterogeneous(vec![vec![1, 0], vec![0, 1]]).unwrap();
        let res = solve(&ts, &platform, &Budget::unlimited());
        let s = res.verdict.schedule().expect("dedicated split works");
        for (j, _t, task) in s.busy_iter() {
            assert_eq!(j, task, "task {task} strayed off its dedicated processor");
        }
        // Flip: both forbidden everywhere except one shared processor →
        // infeasible (two full-window tasks, one usable processor).
        let squeezed = Platform::heterogeneous(vec![vec![1, 0], vec![1, 0]]).unwrap();
        let res = solve(&ts, &squeezed, &Budget::unlimited());
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn rate_overshoot_makes_exact_completion_impossible() {
        // C = 3 on a single rate-2 processor: 1 slot gives 2, 2 slots give
        // 4 — the exact total 3 is unreachable, so infeasible (the exact-
        // completion semantics of constraint (11)).
        let ts = TaskSet::from_ocdt(&[(0, 3, 3, 3)]);
        let platform = Platform::heterogeneous(vec![vec![2]]).unwrap();
        let res = solve(&ts, &platform, &Budget::unlimited());
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn size_guard() {
        let ts = TaskSet::running_example();
        let platform = Platform::identical(3, 2).unwrap();
        let budget = Budget {
            max_cells: Some(5),
            ..Budget::unlimited()
        };
        let res = solve(&ts, &platform, &budget);
        assert_eq!(res.verdict, Verdict::Unknown(StopReason::EncodingTooLarge));
    }
}
