//! Common result types shared by every MGRTS solver in this crate, plus the
//! arbitrary-deadline driver (Section VI-B).

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use csp_engine::{LimitReason, Model, Outcome, SolverConfig};
use rt_task::{clone_transform, TaskError, TaskSet};

use crate::engine::{Budget, CancelToken, FeasibilitySolver};
use crate::schedule::Schedule;

/// Three-way verdict on an MGRTS instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A feasible periodic schedule was found.
    Feasible(Schedule),
    /// The search space was exhausted: no feasible schedule exists.
    Infeasible,
    /// A resource budget ran out first (the paper's "overrun").
    Unknown(StopReason),
}

impl Verdict {
    /// The schedule, if feasible.
    #[must_use]
    pub fn schedule(&self) -> Option<&Schedule> {
        match self {
            Verdict::Feasible(s) => Some(s),
            _ => None,
        }
    }

    /// True when a schedule was found.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        matches!(self, Verdict::Feasible(_))
    }

    /// True when infeasibility was proven.
    #[must_use]
    pub fn is_infeasible(&self) -> bool {
        matches!(self, Verdict::Infeasible)
    }

    /// True when a budget ran out (an overrun in the paper's terms).
    #[must_use]
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown(_))
    }
}

/// Why a solver stopped without a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// Wall-clock budget exhausted.
    TimeLimit,
    /// Decision budget exhausted.
    DecisionLimit,
    /// The encoding would exceed the configured memory/size guard — the
    /// analogue of the paper's CSP1 runs that "ran out of memory on large
    /// instances" (Section VII-E).
    EncodingTooLarge,
    /// A portfolio [`crate::engine::CancelToken`] preempted the solver
    /// (another backend reached a definitive verdict first).
    Cancelled,
    /// The backend has no decision procedure for the requested platform
    /// (e.g. CSP2-on-generic-engine on a heterogeneous machine).
    Unsupported,
}

/// The wall clock of one solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Wall-clock time from the backend's `solve_on` entry to its verdict,
    /// in microseconds: it covers encoding, solver construction, search
    /// and decoding.
    pub elapsed_us: u64,
}

impl SolveStats {
    fn from_elapsed(elapsed: Duration) -> SolveStats {
        SolveStats {
            elapsed_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        }
    }

    /// Elapsed time as a [`Duration`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        Duration::from_micros(self.elapsed_us)
    }
}

/// Verdict plus counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveResult {
    /// The verdict.
    pub verdict: Verdict,
    /// The solve's wall clock.
    pub stats: SolveStats,
    /// Detailed search telemetry for this solve, when the backend collects
    /// it (`None` for backends without internal counters).
    pub search: Option<mgrts_obs::SearchStats>,
}

impl SolveResult {
    /// A solve that ran its search: the verdict, the search counters and
    /// the wall clock since `start`, the solve's entry.
    pub(crate) fn searched(
        verdict: Verdict,
        search: mgrts_obs::SearchStats,
        start: Instant,
    ) -> SolveResult {
        SolveResult {
            verdict,
            stats: SolveStats::from_elapsed(start.elapsed()),
            search: Some(search),
        }
    }

    /// A solve that stopped before its search: no verdict, no search
    /// counters, only the wall clock `elapsed` since the solve began.
    pub(crate) fn stopped(reason: StopReason, elapsed: Duration) -> SolveResult {
        SolveResult {
            verdict: Verdict::Unknown(reason),
            stats: SolveStats::from_elapsed(elapsed),
            search: None,
        }
    }
}

/// The verdict of an exact backend on zero processors, reached without a
/// search: every task needs `Ci ≥ 1` units of work and no processor can
/// serve one.
pub(crate) fn no_processors(start: Instant) -> SolveResult {
    let search = mgrts_obs::SearchStats {
        solves: 1,
        ..mgrts_obs::SearchStats::default()
    };
    SolveResult::searched(Verdict::Infeasible, search, start)
}

/// Search an encoded model on the generic engine and decode its solution:
/// the tail every model route (`csp1` on either platform, `csp2-generic`,
/// `csp2-learn`) shares. `cancel` interrupts the engine's construction and
/// its search; the time budget counts from `start`, the solve's entry, so
/// encoding and construction draw on the same allowance as the search.
pub(crate) fn search_model(
    mut model: Model,
    config: SolverConfig,
    budget: &Budget,
    start: Instant,
    cancel: &CancelToken,
    decode: impl FnOnce(&[i32]) -> Schedule,
) -> SolveResult {
    model.set_interrupt(cancel.as_flag());
    let mut solver = model.into_solver(config);
    solver.set_budget(csp_engine::Budget {
        time: budget.time.map(|t| t.saturating_sub(start.elapsed())),
        max_decisions: budget.max_decisions,
    });
    let verdict = match solver.solve() {
        Outcome::Sat(sol) => Verdict::Feasible(decode(&sol)),
        Outcome::Unsat => Verdict::Infeasible,
        Outcome::Unknown(LimitReason::Time) => Verdict::Unknown(StopReason::TimeLimit),
        Outcome::Unknown(LimitReason::Decisions) => Verdict::Unknown(StopReason::DecisionLimit),
        Outcome::Unknown(LimitReason::Interrupted) => Verdict::Unknown(StopReason::Cancelled),
    };
    SolveResult::searched(verdict, solver.stats(), start)
}

/// Solve an *arbitrary-deadline* system on identical processors by clone
/// transformation (Section VI-B) followed by any constrained-deadline
/// [`FeasibilitySolver`]: the engine receives the transformed (always
/// constrained) set on the same processor count.
///
/// The returned schedule is expressed over the **clone** task ids together
/// with the [`rt_task::CloneInfo`] mapping back to the original tasks; a
/// schedule of the original system is obtained by relabelling every clone to
/// its origin, which [`relabel_clones`] does.
pub fn solve_arbitrary_deadline(
    ts: &TaskSet,
    m: usize,
    solver: &dyn FeasibilitySolver,
    budget: &Budget,
    cancel: &CancelToken,
) -> Result<(SolveResult, rt_task::CloneInfo), TaskError> {
    let (clones, info) = clone_transform(ts)?;
    Ok((solver.solve(&clones, m, budget, cancel)?, info))
}

/// Relabel a schedule over clone ids into a schedule over original task
/// ids. Distinct clones of one task never overlap in time in a feasible
/// clone schedule (their availability intervals are disjoint *by
/// construction of the clone parameters*), so the relabelling preserves
/// C1–C4 of the original arbitrary-deadline system.
#[must_use]
pub fn relabel_clones(schedule: &Schedule, info: &rt_task::CloneInfo) -> Schedule {
    let mut out = Schedule::idle(schedule.num_processors(), schedule.horizon());
    for (j, t, clone) in schedule.busy_iter() {
        out.set(j, t, Some(info.original_of(clone)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accessors() {
        let s = Schedule::idle(1, 2);
        let v = Verdict::Feasible(s.clone());
        assert!(v.is_feasible());
        assert_eq!(v.schedule(), Some(&s));
        assert!(Verdict::Infeasible.is_infeasible());
        assert!(Verdict::Unknown(StopReason::TimeLimit).is_unknown());
        assert_eq!(Verdict::Infeasible.schedule(), None);
    }

    #[test]
    fn stats_elapsed() {
        let st = SolveStats { elapsed_us: 2500 };
        assert_eq!(st.elapsed(), Duration::from_micros(2500));
    }

    #[test]
    fn relabel_maps_clones_to_origins() {
        let info = rt_task::CloneInfo {
            origin: vec![(0, 0), (0, 1), (1, 0)],
            clone_counts: vec![2, 1],
        };
        let mut s = Schedule::idle(1, 3);
        s.set(0, 0, Some(1)); // clone 1 → task 0
        s.set(0, 1, Some(2)); // clone 2 → task 1
        let out = relabel_clones(&s, &info);
        assert_eq!(out.at(0, 0), Some(0));
        assert_eq!(out.at(0, 1), Some(1));
        assert_eq!(out.at(0, 2), None);
    }
}
