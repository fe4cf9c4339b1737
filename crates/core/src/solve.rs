//! Common result types shared by every MGRTS solver in this crate, plus the
//! arbitrary-deadline driver (Section VI-B).

use std::time::Duration;

use serde::{Deserialize, Serialize};

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

/// Search counters common to both encodings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Decisions (assignment choice points).
    pub decisions: u64,
    /// Failures / backtracks.
    pub failures: u64,
    /// Wall-clock duration of the solve, microseconds.
    pub elapsed_us: u64,
}

impl SolveStats {
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
    /// Search statistics.
    pub stats: SolveStats,
    /// Detailed search telemetry for this solve, when the backend collects
    /// it (`None` for backends without internal counters).
    pub search: Option<mgrts_obs::SearchStats>,
}

impl SolveResult {
    /// A solve that stopped before its search: no verdict, no search
    /// counters, only the wall clock `elapsed` since the solve began.
    pub(crate) fn stopped(reason: StopReason, elapsed: Duration) -> SolveResult {
        SolveResult {
            verdict: Verdict::Unknown(reason),
            stats: SolveStats {
                elapsed_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
                ..SolveStats::default()
            },
            search: None,
        }
    }
}

/// Convert one CSP-engine solve's counters into portable
/// [`mgrts_obs::SearchStats`] telemetry (one solve, so `solves == 1`).
#[must_use]
pub fn search_from_csp(st: &csp_engine::SolveStats) -> mgrts_obs::SearchStats {
    let kinds = csp_engine::PropKind::ALL
        .iter()
        .zip(st.kinds.iter())
        .filter(|(_, kc)| kc.wakes != 0 || kc.prunes != 0 || kc.entailments != 0)
        .map(|(k, kc)| mgrts_obs::KindStats {
            kind: k.name().to_string(),
            wakes: kc.wakes,
            prunes: kc.prunes,
            entailments: kc.entailments,
        })
        .collect();
    mgrts_obs::SearchStats {
        solves: 1,
        decisions: st.decisions,
        backtracks: st.failures,
        propagations: st.propagations,
        conflicts: st.conflicts,
        restarts: st.restarts,
        learnt_clauses: st.learned_nogoods,
        backjump_sum: st.backjump_sum,
        db_reductions: st.db_reductions,
        gac_rebuilds: st.gac_rebuilds,
        peak_trail: st.peak_trail as u64,
        peak_depth: st.max_depth as u64,
        kinds,
    }
}

/// Telemetry for backends that only track the common counters (the
/// specialized CSP2 searches, local search): decisions and backtracks.
#[must_use]
pub fn search_from_basic(st: &SolveStats) -> mgrts_obs::SearchStats {
    mgrts_obs::SearchStats {
        solves: 1,
        decisions: st.decisions,
        backtracks: st.failures,
        ..Default::default()
    }
}

/// Convert one SAT solve's counters into portable
/// [`mgrts_obs::SearchStats`] telemetry.
#[must_use]
pub fn search_from_sat(st: &rt_sat::SatStats) -> mgrts_obs::SearchStats {
    mgrts_obs::SearchStats {
        solves: 1,
        decisions: st.decisions,
        backtracks: st.conflicts,
        propagations: st.propagations,
        conflicts: st.conflicts,
        restarts: st.restarts,
        learnt_clauses: st.learnt_clauses,
        ..Default::default()
    }
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
        let st = SolveStats {
            elapsed_us: 2500,
            ..Default::default()
        };
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
