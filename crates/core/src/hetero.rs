//! Heterogeneous processors (Section VI-A) — described but *not implemented*
//! by the paper's authors; implemented here as the paper prescribes.
//!
//! On a heterogeneous platform every task-processor pair has an integer
//! execution rate `si,j` (0 = forbidden): a slot of `τi` on `Pj` completes
//! `si,j` units and constraint (C4) becomes the rate-weighted equality (11)
//! (CSP1) / (12) (CSP2). Both encodings change as follows:
//!
//! * domains — `x_{i,j}(t)` is pinned to 0 (CSP1), resp. value `i` is
//!   removed from `Dj(t)` (CSP2), whenever `si,j = 0`;
//! * CSP2 search — processors are visited in ascending *quality*
//!   `Q(Pj) = Σ_i si,j·Ci/Ti` (least capable first, to prune early);
//!   eligibility-poor tasks get higher value priority; the eq. (10)
//!   permutation symmetry is restricted to *identical* processors
//!   (eq. (13)).
//!
//! Equal columns have equal quality, but two distinct columns may tie in
//! quality too, and `quality_order` breaks ties by processor id. The
//! groups of identical processors can then interleave in the visit order,
//! and eq. (13) applies only between *adjacent* visited processors of one
//! group: the search prunes less there, and stays sound.
//!
//! This module holds the heterogeneous CSP1 encoding ([`encode_csp1`]); the
//! CSP2 search is [`crate::csp2`]'s, which reads the rate matrix through
//! its rate-matrix view. Callers reach these routes through the engines,
//! handing them a [`PlatformSpec::Heterogeneous`] spec: `csp1`
//! ([`Csp1Engine`]), every specialized CSP2 heuristic ([`Csp2Engine`]) and
//! `sat` ([`Csp1SatEngine`]).
//!
//! [`PlatformSpec::Heterogeneous`]: crate::engine::PlatformSpec::Heterogeneous
//! [`Csp1Engine`]: crate::csp1::Csp1Engine
//! [`Csp2Engine`]: crate::csp2::Csp2Engine
//! [`Csp1SatEngine`]: crate::csp1_sat::Csp1SatEngine
//!
//! ## Soundness note on the idle rule
//!
//! The identical-processor "never idle while work is available" rule is
//! justified by a unit-exchange argument that **breaks** under heterogeneous
//! rates with exact completion: forcing a task onto a slow processor now can
//! make the exact total `Ci` unreachable, while idling and using a faster
//! processor later succeeds. The paper carries the rule over without
//! comment; the CSP2 search keeps idling as a real alternative in every
//! slot of a heterogeneous platform, so it stays complete.

use csp_engine::{Constraint, Model};
use rt_platform::Platform;
use rt_task::{JobId, JobInstants, TaskError, TaskSet};

use crate::csp1::{Csp1Layout, NEVER_RAISED};
use crate::engine::CancelToken;

// ---------------------------------------------------------------------------
// CSP1 on heterogeneous platforms (constraint (11)).
// ---------------------------------------------------------------------------

/// Build the heterogeneous CSP1 model: booleans as in Section IV, domains
/// restricted by `si,j = 0`, and the rate-weighted completion equality (11).
pub fn encode_csp1(ts: &TaskSet, platform: &Platform) -> Result<(Model, Csp1Layout), TaskError> {
    encode_csp1_polled(ts, platform, &CancelToken::new()).map(|e| e.expect(NEVER_RAISED))
}

/// [`encode_csp1`], polling `cancel` once per iteration of each
/// constraint family's outer loop and once more at the end: `Ok(None)`
/// once it is raised. The `csp1` engine's heterogeneous route
/// ([`crate::csp1::Csp1Engine`]).
pub(crate) fn encode_csp1_polled(
    ts: &TaskSet,
    platform: &Platform,
    cancel: &CancelToken,
) -> Result<Option<(Model, Csp1Layout)>, TaskError> {
    assert_eq!(platform.num_tasks(), ts.len(), "rate matrix row count");
    let ji = JobInstants::new(ts)?;
    let h = ji.hyperperiod();
    let n = ts.len();
    let m = platform.num_processors();
    let layout = Csp1Layout { n, m, h };
    let mut model = Model::new();

    for i in 0..n {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        for j in 0..m {
            for t in 0..h {
                if ji.job_at(i, t).is_some() && platform.can_run(i, j) {
                    model.new_bool();
                } else {
                    model.new_var(0, 0);
                }
            }
        }
    }
    for j in 0..m {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        for t in 0..h {
            let vars = (0..n).map(|i| layout.var(i, j, t)).collect();
            model.post(Constraint::AtMostOneTrue { vars });
        }
    }
    for i in 0..n {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        for t in 0..h {
            if ji.job_at(i, t).is_some() {
                let vars = (0..m).map(|j| layout.var(i, j, t)).collect();
                model.post(Constraint::AtMostOneTrue { vars });
            }
        }
    }
    // (11): Σ_t Σ_j si,j · x_{i,j}(t) = Ci per job.
    for i in 0..n {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        let runs_on = (0..m).filter(|&j| platform.can_run(i, j)).count();
        let len = ts.task(i).deadline as usize * runs_on;
        for k in 0..ji.jobs_of(i) {
            let mut vars = Vec::with_capacity(len);
            let mut coeffs = Vec::with_capacity(len);
            for t in ji.instants_mod_iter(JobId { task: i, k }) {
                for j in 0..m {
                    if platform.can_run(i, j) {
                        vars.push(layout.var(i, j, t));
                        coeffs.push(platform.rate(i, j) as i64);
                    }
                }
            }
            model.post(Constraint::linear_eq(vars, coeffs, ts.task(i).wcet as i64));
        }
    }
    if cancel.is_cancelled() {
        return Ok(None);
    }
    Ok(Some((model, layout)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csp1::Csp1Engine;
    use crate::csp1_sat::Csp1SatEngine;
    use crate::csp2::Csp2Engine;
    use crate::engine::{Budget, FeasibilitySolver, PlatformSpec};
    use crate::heuristics::TaskOrder;
    use crate::solve::{SolveResult, StopReason, Verdict};
    use crate::verify::check_heterogeneous;
    use rt_platform::quality::qualities;
    use rt_platform::{identical_groups, quality_order};
    use rt_task::TaskSet;

    fn solve(
        ts: &TaskSet,
        p: &Platform,
        engine: &dyn FeasibilitySolver,
        budget: &Budget,
    ) -> SolveResult {
        let spec = PlatformSpec::Heterogeneous(p.clone());
        engine
            .solve_on(ts, &spec, budget, &CancelToken::new())
            .unwrap()
    }

    /// The heterogeneous `csp2-dc` route.
    fn solve_dc(ts: &TaskSet, p: &Platform) -> SolveResult {
        let dc = Csp2Engine {
            order: TaskOrder::DeadlineMinusWcet,
        };
        solve(ts, p, &dc, &Budget::unlimited())
    }

    #[test]
    fn identical_rates_reduce_to_base_case() {
        let ts = TaskSet::running_example();
        let platform = Platform::identical(3, 2).unwrap();
        let res = solve_dc(&ts, &platform);
        let s = res.verdict.schedule().expect("feasible");
        check_heterogeneous(&ts, &platform, s).unwrap();
    }

    #[test]
    fn fast_processor_halves_slots() {
        // Two tasks, each C = D = T = 2, on ONE processor: infeasible at
        // rate 1 (demand 4 > 2 slots per window), feasible at rate 2 (each
        // job completes its exact 2 units in a single slot).
        let ts = TaskSet::from_ocdt(&[(0, 2, 2, 2), (0, 2, 2, 2)]);
        let slow = Platform::heterogeneous(vec![vec![1], vec![1]]).unwrap();
        let res = solve_dc(&ts, &slow);
        assert!(res.verdict.is_infeasible());
        let fast = Platform::heterogeneous(vec![vec![2], vec![2]]).unwrap();
        let res = solve_dc(&ts, &fast);
        let s = res.verdict.schedule().expect("rate 2 fits both");
        check_heterogeneous(&ts, &fast, s).unwrap();
    }

    #[test]
    fn exactness_rejects_overshooting_rates() {
        // C = 3 on a single rate-2 processor: 2 slots give 4, 1 slot gives
        // 2 — the exact total 3 is unreachable (constraint (12)).
        let ts = TaskSet::from_ocdt(&[(0, 3, 4, 4)]);
        let p = Platform::heterogeneous(vec![vec![2]]).unwrap();
        let res = solve_dc(&ts, &p);
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn mixed_rates_reach_exact_total() {
        // C = 3, window of 4, rates [2, 1]: one slot on each processor at
        // different instants totals 3.
        let ts = TaskSet::from_ocdt(&[(0, 3, 4, 4)]);
        let p = Platform::heterogeneous(vec![vec![2, 1]]).unwrap();
        let res = solve_dc(&ts, &p);
        let s = res.verdict.schedule().expect("2 + 1 = 3");
        check_heterogeneous(&ts, &p, s).unwrap();
    }

    #[test]
    fn dedicated_processor_is_respected() {
        // Task 0 can only run on P0; task 1 only on P1; both need the full
        // window.
        let ts = TaskSet::from_ocdt(&[(0, 2, 2, 2), (0, 2, 2, 2)]);
        let p = Platform::heterogeneous(vec![vec![1, 0], vec![0, 1]]).unwrap();
        let res = solve_dc(&ts, &p);
        let s = res.verdict.schedule().expect("dedicated split works");
        check_heterogeneous(&ts, &p, s).unwrap();
        for t in 0..2 {
            assert_eq!(s.at(0, t), Some(0));
            assert_eq!(s.at(1, t), Some(1));
        }
    }

    #[test]
    fn csp1_hetero_agrees_with_csp2_hetero() {
        let ts = TaskSet::from_ocdt(&[(0, 2, 3, 3), (0, 2, 3, 3)]);
        for rates in [
            vec![vec![1, 1], vec![1, 1]],
            vec![vec![2, 1], vec![1, 1]],
            vec![vec![1, 0], vec![0, 1]],
            vec![vec![2, 2], vec![2, 2]],
        ] {
            let p = Platform::heterogeneous(rates.clone()).unwrap();
            let a = solve(&ts, &p, &Csp1Engine { seed: 3 }, &Budget::unlimited());
            let b = solve_dc(&ts, &p);
            assert_eq!(
                a.verdict.is_feasible(),
                b.verdict.is_feasible(),
                "encodings disagree on rates {rates:?}"
            );
            if let Some(s) = a.verdict.schedule() {
                check_heterogeneous(&ts, &p, s).unwrap();
            }
            if let Some(s) = b.verdict.schedule() {
                check_heterogeneous(&ts, &p, s).unwrap();
            }
        }
    }

    #[test]
    fn csp1_hetero_size_guard_refuses_large_models() {
        let ts = TaskSet::running_example();
        let p = Platform::identical(3, 2).unwrap();
        let budget = Budget {
            max_cells: Some(5),
            ..Budget::unlimited()
        };
        let res = solve(&ts, &p, &Csp1Engine::default(), &budget);
        assert_eq!(res.verdict, Verdict::Unknown(StopReason::EncodingTooLarge));
    }

    #[test]
    fn csp1_hetero_honours_the_decision_budget() {
        let ts = TaskSet::from_ocdt(&[
            (0, 2, 3, 4),
            (0, 3, 4, 4),
            (1, 2, 3, 4),
            (0, 1, 2, 2),
            (0, 2, 4, 4),
            (0, 1, 3, 3),
        ]);
        let p = Platform::identical(6, 2).unwrap();
        let budget = Budget {
            max_decisions: Some(1),
            ..Budget::unlimited()
        };
        let res = solve(&ts, &p, &Csp1Engine::default(), &budget);
        assert!(
            matches!(
                res.verdict,
                Verdict::Unknown(StopReason::DecisionLimit)
                    | Verdict::Feasible(_)
                    | Verdict::Infeasible
            ),
            "{:?}",
            res.verdict
        );
        // The engine stops at the first decision past the limit.
        let decisions = res.search.unwrap().decisions;
        assert!(decisions <= 2, "{decisions} decisions");
    }

    #[test]
    fn quality_ties_interleave_identical_groups_soundly() {
        // Tasks 0 and 1 weigh the same in Q (equal C/T) and task 2 runs at
        // rate 2 everywhere, so the columns (2,1,2), (1,2,2), (2,1,2) all
        // have quality 3w + 2u: P0 and P2 are identical, P1 is not, and
        // the tie break by id visits P0, P1, P2 — P0's group is split by
        // P1. An odd C2 is unreachable at rate 2 (12).
        let p = Platform::heterogeneous(vec![vec![2, 1, 2], vec![1, 2, 1], vec![2, 2, 2]]).unwrap();
        assert_eq!(identical_groups(&p), vec![vec![0, 2], vec![1]]);
        let (mut feasible, mut infeasible) = (0, 0);
        for tasks in [
            [(0, 2, 2, 2), (0, 2, 2, 2), (0, 2, 2, 2)],
            [(0, 1, 1, 1), (0, 1, 1, 1), (0, 1, 1, 1)],
            [(0, 2, 3, 4), (1, 2, 4, 4), (0, 1, 2, 2)],
            [(0, 4, 4, 4), (0, 4, 4, 4), (0, 2, 2, 2)],
            [(0, 3, 3, 3), (1, 3, 3, 3), (0, 2, 3, 3)],
            [(0, 2, 2, 2), (0, 2, 2, 2), (0, 3, 4, 4)],
        ] {
            let ts = TaskSet::from_ocdt(&tasks);
            let pairs: Vec<(u64, u64)> = ts.tasks().iter().map(|t| (t.wcet, t.period)).collect();
            let h = JobInstants::new(&ts).unwrap().hyperperiod();
            let q = qualities(&p, &pairs, h);
            assert!(q[0] == q[1] && q[1] == q[2], "{tasks:?}: qualities {q:?}");
            assert_eq!(quality_order(&p, &pairs, h), vec![0, 1, 2]);

            let dc = solve_dc(&ts, &p);
            let csp1 = solve(&ts, &p, &Csp1Engine::default(), &Budget::unlimited());
            let sat = solve(&ts, &p, &Csp1SatEngine::default(), &Budget::unlimited());
            for (name, res) in [("csp2-dc", &dc), ("csp1", &csp1), ("sat", &sat)] {
                assert!(!res.verdict.is_unknown(), "{name} on {tasks:?}");
                assert_eq!(
                    res.verdict.is_feasible(),
                    dc.verdict.is_feasible(),
                    "{name} and csp2-dc disagree on {tasks:?}"
                );
                if let Some(s) = res.verdict.schedule() {
                    check_heterogeneous(&ts, &p, s).unwrap();
                }
            }
            if dc.verdict.is_feasible() {
                feasible += 1;
            } else {
                infeasible += 1;
            }
        }
        assert!(
            feasible > 0 && infeasible > 0,
            "{feasible} feasible, {infeasible} infeasible"
        );
    }

    #[test]
    fn quality_ordering_groups_identical_processors() {
        // Two identical slow processors + one fast: visit order starts with
        // the slow group (lower quality).
        let ts = TaskSet::from_ocdt(&[(0, 1, 2, 2)]);
        let p = Platform::heterogeneous(vec![vec![1, 3, 1]]).unwrap();
        let res = solve_dc(&ts, &p);
        assert!(res.verdict.is_feasible());
    }
}
