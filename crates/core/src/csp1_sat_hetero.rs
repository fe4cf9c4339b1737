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

use std::time::{Duration, Instant};

use rt_platform::Platform;
use rt_sat::{at_most_one, pb_exactly, AmoEncoding, Cnf, Lit, SatConfig};
use rt_task::{JobId, JobInstants, TaskError, TaskSet};

use crate::csp1::{Csp1Layout, DEFAULT_MAX_CELLS, NEVER_RAISED};
use crate::csp1_sat::run_cdcl;
use crate::engine::CancelToken;
use crate::solve::{SolveResult, StopReason};

/// Configuration for the heterogeneous SAT route.
#[derive(Debug, Clone, Copy)]
pub struct HeteroSatConfig {
    /// At-most-one encoding for (3)/(4).
    pub amo: AmoEncoding,
    /// Wall-clock budget.
    pub time: Option<Duration>,
    /// Conflict budget.
    pub max_conflicts: Option<u64>,
    /// Encoding size guard on `n·m·H`.
    pub max_cells: u64,
}

impl Default for HeteroSatConfig {
    fn default() -> Self {
        HeteroSatConfig {
            amo: AmoEncoding::Pairwise,
            time: None,
            max_conflicts: None,
            max_cells: DEFAULT_MAX_CELLS,
        }
    }
}

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
/// `None` once it is raised.
fn encode_cnf_hetero_polled(
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
            for t in ji.instants_mod(JobId { task: i, k }) {
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

/// Encode and solve the heterogeneous instance on the CDCL solver.
pub fn solve_hetero_sat(
    ts: &TaskSet,
    platform: &Platform,
    cfg: &HeteroSatConfig,
) -> Result<SolveResult, TaskError> {
    solve_hetero_sat_cancellable(ts, platform, cfg, &CancelToken::new())
}

/// [`solve_hetero_sat`] with cooperative cancellation, polled during
/// encoding, solver construction and search; the time budget and the
/// reported `elapsed_us` run from this call's entry (as in
/// [`crate::csp1_sat::solve_csp1_sat_cancellable`]).
pub fn solve_hetero_sat_cancellable(
    ts: &TaskSet,
    platform: &Platform,
    cfg: &HeteroSatConfig,
    cancel: &CancelToken,
) -> Result<SolveResult, TaskError> {
    let start = Instant::now();
    let ji = JobInstants::new(ts)?;
    let cells = ts.len() as u64 * platform.num_processors() as u64 * ji.hyperperiod();
    if cells > cfg.max_cells {
        return Ok(SolveResult::stopped(
            StopReason::EncodingTooLarge,
            start.elapsed(),
        ));
    }
    let Some((cnf, layout)) = encode_cnf_hetero_polled(ts, &ji, platform, cfg.amo, cancel) else {
        return Ok(SolveResult::stopped(StopReason::Cancelled, start.elapsed()));
    };
    let sat_cfg = SatConfig {
        max_conflicts: cfg.max_conflicts,
        default_phase: false,
        ..SatConfig::default()
    };
    Ok(run_cdcl(&cnf, &layout, sat_cfg, cfg.time, start, cancel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::Verdict;
    use crate::verify::check_heterogeneous;

    #[test]
    fn identical_rates_reduce_to_the_plain_problem() {
        let ts = TaskSet::running_example();
        let platform = Platform::identical(3, 2).unwrap();
        let res = solve_hetero_sat(&ts, &platform, &HeteroSatConfig::default()).unwrap();
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
        let res = solve_hetero_sat(&ts, &platform, &HeteroSatConfig::default()).unwrap();
        let s = res.verdict.schedule().expect("rate 2 halves the demand");
        check_heterogeneous(&ts, &platform, &s.clone()).unwrap();
    }

    #[test]
    fn dedicated_processors_respected() {
        // τ1 can only run on P1, τ2 only on P2; both need the full window.
        let ts = TaskSet::from_ocdt(&[(0, 2, 2, 2), (0, 2, 2, 2)]);
        let platform = Platform::heterogeneous(vec![vec![1, 0], vec![0, 1]]).unwrap();
        let res = solve_hetero_sat(&ts, &platform, &HeteroSatConfig::default()).unwrap();
        let s = res.verdict.schedule().expect("dedicated split works");
        for (j, _t, task) in s.busy_iter() {
            assert_eq!(j, task, "task {task} strayed off its dedicated processor");
        }
        // Flip: both forbidden everywhere except one shared processor →
        // infeasible (two full-window tasks, one usable processor).
        let squeezed = Platform::heterogeneous(vec![vec![1, 0], vec![1, 0]]).unwrap();
        let res = solve_hetero_sat(&ts, &squeezed, &HeteroSatConfig::default()).unwrap();
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn rate_overshoot_makes_exact_completion_impossible() {
        // C = 3 on a single rate-2 processor: 1 slot gives 2, 2 slots give
        // 4 — the exact total 3 is unreachable, so infeasible (the exact-
        // completion semantics of constraint (11)).
        let ts = TaskSet::from_ocdt(&[(0, 3, 3, 3)]);
        let platform = Platform::heterogeneous(vec![vec![2]]).unwrap();
        let res = solve_hetero_sat(&ts, &platform, &HeteroSatConfig::default()).unwrap();
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn size_guard() {
        let ts = TaskSet::running_example();
        let platform = Platform::identical(3, 2).unwrap();
        let cfg = HeteroSatConfig {
            max_cells: 5,
            ..HeteroSatConfig::default()
        };
        let res = solve_hetero_sat(&ts, &platform, &cfg).unwrap();
        assert_eq!(res.verdict, Verdict::Unknown(StopReason::EncodingTooLarge));
    }
}
