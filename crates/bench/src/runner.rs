//! The instance runner: one verified solve and its classified outcome.

use serde::{Deserialize, Serialize};

use mgrts_core::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec};
use mgrts_core::solve::{StopReason, Verdict};
use mgrts_core::verify;
use rt_task::TaskSet;

/// Classified outcome of one (instance, solver) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceOutcome {
    /// A feasible schedule was produced (and verified against C1–C4).
    Solved,
    /// Infeasibility was proven within the budget.
    ProvedInfeasible,
    /// The time budget elapsed — the paper's "overrun".
    Overrun,
    /// The encoding exceeded the size guard (CSP1 on large instances).
    TooLarge,
    /// A campaign-level cancellation preempted the run before a verdict.
    Cancelled,
    /// The backend has no decision procedure for the cell's platform
    /// (e.g. CSP2-on-generic-engine on a heterogeneous machine).
    Unsupported,
    /// The run failed outside the task model — the engine panicked or
    /// errored past its retry limit. Recorded by the serve layer so
    /// tickets settle instead of wedging; campaign shards park
    /// themselves rather than record this.
    Failed,
}

/// Map a solver verdict onto the recorded outcome taxonomy (shared by the
/// single-solver runner and the portfolio-race policy).
pub(crate) fn classify(verdict: &Verdict) -> InstanceOutcome {
    match verdict {
        Verdict::Feasible(_) => InstanceOutcome::Solved,
        Verdict::Infeasible => InstanceOutcome::ProvedInfeasible,
        Verdict::Unknown(StopReason::EncodingTooLarge) => InstanceOutcome::TooLarge,
        Verdict::Unknown(StopReason::Cancelled) => InstanceOutcome::Cancelled,
        Verdict::Unknown(StopReason::Unsupported) => InstanceOutcome::Unsupported,
        Verdict::Unknown(_) => InstanceOutcome::Overrun,
    }
}

/// Run a prebuilt engine on one instance over `spec` — the single-solver
/// path of the campaign policies, the serve workers and the extension
/// binaries. Every produced schedule is verified against the
/// independent C1–C4 checker ([`verify::check`]); an engine error or an
/// invalid schedule is a bug and panics with the backend's name. Returns
/// the classified outcome, the solve's wall clock (µs) and its search
/// telemetry (`None` for backends without counters).
#[must_use]
pub fn run(
    ts: &TaskSet,
    spec: &PlatformSpec,
    engine: &dyn FeasibilitySolver,
    budget: &Budget,
    cancel: &CancelToken,
) -> (InstanceOutcome, u64, Option<mgrts_obs::SearchStats>) {
    let res = engine
        .solve_on(ts, spec, budget, cancel)
        .unwrap_or_else(|e| panic!("solver {} failed: {e}", engine.name()));
    if let Verdict::Feasible(s) = &res.verdict {
        verify::check(ts, spec, s)
            .unwrap_or_else(|e| panic!("solver {} returned invalid schedule: {e}", engine.name()));
    }
    (classify(&res.verdict), res.stats.elapsed_us, res.search)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgrts_core::engine::SolverSpec;
    use mgrts_core::heuristics::TaskOrder;
    use mgrts_core::portfolio::race_cancellable;
    use mgrts_core::solve::{SolveResult, SolveStats};
    use mgrts_core::Schedule;
    use rt_task::TaskError;
    use std::time::Duration;

    #[test]
    fn roster_matches_paper_columns() {
        let labels: Vec<_> = SolverSpec::TABLE1_ROSTER
            .iter()
            .map(|s| s.label())
            .collect();
        assert_eq!(
            labels,
            vec!["CSP1", "CSP2", "+RM", "+DM", "+(T-C)", "+(D-C)"]
        );
    }

    #[test]
    fn run_solves_the_running_example() {
        let ts = TaskSet::running_example();
        for solver in SolverSpec::TABLE1_ROSTER {
            let (outcome, _, _) = run(
                &ts,
                &PlatformSpec::identical(2),
                &*solver.build(),
                &Budget::time_limit(Duration::from_secs(5)),
                &CancelToken::new(),
            );
            assert_eq!(outcome, InstanceOutcome::Solved, "{solver:?}");
        }
    }

    #[test]
    fn pre_cancelled_run_reports_cancelled() {
        // A dense instance that needs real search: a raised token classifies
        // as Cancelled, never as a (wrong) verdict.
        let ts = TaskSet::from_ocdt(&[
            (0, 2, 3, 4),
            (0, 3, 4, 4),
            (1, 2, 3, 4),
            (0, 1, 2, 2),
            (0, 2, 4, 4),
            (0, 1, 3, 3),
        ]);
        let cancel = CancelToken::new();
        cancel.cancel();
        let (outcome, _, _) = run(
            &ts,
            &PlatformSpec::identical(2),
            &*SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet).build(),
            &Budget::unlimited(),
            &cancel,
        );
        assert!(
            matches!(
                outcome,
                InstanceOutcome::Cancelled
                    | InstanceOutcome::Solved
                    | InstanceOutcome::ProvedInfeasible
            ),
            "{outcome:?}"
        );
    }

    /// Claims every instance feasible with an all-idle schedule, which
    /// breaks C4 on any task set with work to do.
    struct Liar;

    impl FeasibilitySolver for Liar {
        fn name(&self) -> String {
            "liar".to_string()
        }

        fn solve_on(
            &self,
            ts: &TaskSet,
            spec: &PlatformSpec,
            _budget: &Budget,
            _cancel: &CancelToken,
        ) -> Result<SolveResult, TaskError> {
            Ok(SolveResult {
                verdict: Verdict::Feasible(Schedule::idle(
                    spec.num_processors(),
                    ts.hyperperiod()?,
                )),
                stats: SolveStats::default(),
                search: None,
            })
        }
    }

    fn heterogeneous() -> PlatformSpec {
        PlatformSpec::Heterogeneous(
            rt_platform::Platform::heterogeneous(vec![vec![2, 1], vec![1, 1], vec![1, 2]]).unwrap(),
        )
    }

    fn run_liar(spec: &PlatformSpec) {
        let _ = run(
            &TaskSet::running_example(),
            spec,
            &Liar,
            &Budget::unlimited(),
            &CancelToken::new(),
        );
    }

    fn race_liar(spec: &PlatformSpec) {
        let roster: [Box<dyn FeasibilitySolver>; 1] = [Box::new(Liar)];
        // No flow engine: the liar races alone, on either platform.
        let _ = race_cancellable(
            None,
            &roster,
            &TaskSet::running_example(),
            spec,
            &Budget::unlimited(),
            &CancelToken::new(),
        );
    }

    #[test]
    #[should_panic(expected = "returned invalid schedule")]
    fn run_rejects_an_invalid_identical_schedule() {
        run_liar(&PlatformSpec::identical(2));
    }

    #[test]
    #[should_panic(expected = "returned invalid schedule")]
    fn run_rejects_an_invalid_heterogeneous_schedule() {
        run_liar(&heterogeneous());
    }

    #[test]
    #[should_panic(expected = "returned invalid schedule")]
    fn race_rejects_an_invalid_identical_schedule() {
        race_liar(&PlatformSpec::identical(2));
    }

    #[test]
    #[should_panic(expected = "returned invalid schedule")]
    fn race_rejects_an_invalid_heterogeneous_schedule() {
        race_liar(&heterogeneous());
    }
}
