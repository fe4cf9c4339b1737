//! Parallel solver portfolio: race backends, first definitive verdict wins.
//!
//! The paper's Table I compares six solver configurations *sequentially*;
//! on a multicore host the natural production shape is to race them. This
//! module runs any roster of [`FeasibilitySolver`]s on scoped threads over
//! the same instance. On identical processors the race can be settled
//! before any thread starts:
//!
//! * [`race`], and [`race_cancellable`] when the caller passes a `flow`
//!   engine (normally one built from [`SolverSpec::Flow`]; pooled callers
//!   pass theirs, so its counters are kept), first run that engine on the
//!   calling thread for a [`PlatformSpec::Identical`] spec. A definitive
//!   verdict from it is the race's result, its only [`BackendReport`] and
//!   its winner, and no roster thread is spawned. The roster races only
//!   what flow leaves unknown: a heterogeneous platform, a network too
//!   large for its indices, an exhausted time budget (the roster gets what
//!   is left of it) or a raised external token. A caller that passes no
//!   `flow` engine races exactly its roster, which is how the roster's
//!   backends are compared on identical instances (`mgrts portfolio
//!   --solvers`);
//! * every backend polls one shared [`CancelToken`]; the first thread to
//!   deliver a **definitive** verdict (`Feasible` or `Infeasible`) raises
//!   it, and the others stop at their next poll with
//!   [`StopReason::Cancelled`]. The token is polled while a backend
//!   encodes its model (at each constraint family, or each outer loop of
//!   one for the CSP1 and CNF encoders) and builds its solver (once per
//!   CSP-engine propagator, every 1024 CDCL clauses), not only in its
//!   search loop, so the race returns about when its winner does instead
//!   of waiting for the losers to finish building models whose result is
//!   never used;
//! * any feasible schedule, flow's included, is re-verified against the
//!   independent C1–C4 checker before it can win — an invalid schedule is
//!   a solver bug and panics loudly, exactly like the bench runner (flow's
//!   `Infeasible` has already passed [`crate::verify::check_cut`]);
//! * definitive verdicts are cross-checked: one backend proving `Feasible`
//!   while another proves `Infeasible` is unsound and panics;
//! * the reported winner is the backend whose verdict was *accepted
//!   first* (arrival order, the portfolio semantics); the final verdict
//!   itself is deterministic for exact backends because they must agree.
//!
//! Per-backend stats survive in [`PortfolioResult::backends`], so the racer
//! doubles as a comparative measurement harness when it races the roster
//! alone (`mgrts portfolio --solvers`, `benches/portfolio.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use rt_task::{TaskError, TaskSet};

use crate::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec, SolverSpec};
use crate::solve::{SolveResult, SolveStats, StopReason, Verdict};
use crate::verify;

/// One backend's contribution to a race.
#[derive(Debug, Clone)]
pub struct BackendReport {
    /// Backend name ([`FeasibilitySolver::name`]).
    pub name: String,
    /// The backend's own result (`Unknown(Cancelled)` when preempted), or
    /// the task-model error it raised.
    pub result: Result<SolveResult, TaskError>,
    /// Did this backend's verdict win the race?
    pub winner: bool,
}

/// Serializable per-backend race statistics — the shape campaign records
/// and bench tables persist (a [`BackendReport`] without the unserializable
/// schedule / error payloads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendStat {
    /// Backend name ([`FeasibilitySolver::name`]).
    pub name: String,
    /// Compact outcome label ([`BackendReport::outcome_label`]).
    pub outcome: String,
    /// Wall-clock of this backend's own solve, microseconds.
    pub time_us: u64,
    /// Decisions (assignment choice points).
    pub decisions: u64,
    /// Failures / backtracks.
    pub failures: u64,
    /// Did this backend's verdict win the race?
    pub winner: bool,
}

impl BackendReport {
    /// The backend's wall clock (zero when it errored out).
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.result.as_ref().map(|r| r.stats).unwrap_or_default()
    }

    /// Project onto the serializable [`BackendStat`] shape; the counters
    /// come from the backend's `search` block (zeros without one).
    #[must_use]
    pub fn stat(&self) -> BackendStat {
        let (decisions, failures) = match &self.result {
            Ok(SolveResult {
                search: Some(search),
                ..
            }) => (search.decisions, search.backtracks),
            _ => (0, 0),
        };
        BackendStat {
            name: self.name.clone(),
            outcome: self.outcome_label(),
            time_us: self.stats().elapsed_us,
            decisions,
            failures,
            winner: self.winner,
        }
    }

    /// Compact outcome label for tables.
    #[must_use]
    pub fn outcome_label(&self) -> String {
        match &self.result {
            Ok(r) => match &r.verdict {
                Verdict::Feasible(_) => "feasible".to_string(),
                Verdict::Infeasible => "infeasible".to_string(),
                Verdict::Unknown(StopReason::Cancelled) => "cancelled".to_string(),
                Verdict::Unknown(reason) => format!("unknown ({reason:?})"),
            },
            Err(e) => format!("error ({e})"),
        }
    }
}

/// Outcome of a portfolio race.
#[derive(Debug)]
pub struct PortfolioResult {
    /// Index into [`PortfolioResult::backends`] of the winning backend,
    /// when some backend reached a definitive verdict.
    pub winner: Option<usize>,
    /// The race's overall result: the winner's, or the deterministically
    /// first non-definitive result when nobody finished.
    pub result: SolveResult,
    /// Every backend's report, in roster order.
    pub backends: Vec<BackendReport>,
    /// Wall-clock time of the whole race, microseconds.
    pub elapsed_us: u64,
}

impl PortfolioResult {
    /// Name of the winning backend, if any.
    #[must_use]
    pub fn winner_name(&self) -> Option<&str> {
        self.winner.map(|i| self.backends[i].name.as_str())
    }

    /// Serializable per-backend stats, in roster order.
    #[must_use]
    pub fn backend_stats(&self) -> Vec<BackendStat> {
        self.backends.iter().map(BackendReport::stat).collect()
    }

    /// Cancellation latency: wall-clock between the winner's own verdict
    /// and the whole race returning (i.e. how long the losers took to
    /// notice the raised token and stop). `None` when nobody won.
    #[must_use]
    pub fn cancel_latency_us(&self) -> Option<u64> {
        self.winner.map(|i| {
            self.elapsed_us
                .saturating_sub(self.backends[i].stats().elapsed_us)
        })
    }
}

/// Race `roster` on `m` identical processors after a `flow` engine built
/// from [`SolverSpec::Flow`] (see the module docs for the
/// winning/cancellation semantics): the portfolio race as `mgrts
/// portfolio`, campaigns and the service run it.
///
/// The roster is any slice of owning solver pointers — `Box<dyn
/// FeasibilitySolver>` for one-shot rosters, `Arc<dyn FeasibilitySolver>`
/// for engines shared across calls (see [`crate::engine::EnginePool`]).
pub fn race<S>(
    roster: &[S],
    ts: &TaskSet,
    m: usize,
    budget: &Budget,
) -> Result<PortfolioResult, TaskError>
where
    S: std::ops::Deref<Target = dyn FeasibilitySolver> + Sync,
{
    let flow = SolverSpec::Flow.build();
    race_inner(
        Some(flow.as_ref()),
        roster,
        ts,
        &PlatformSpec::identical(m),
        budget,
        None,
    )
}

/// Race `roster` under an *external* cancellation token — the entry point
/// execution policies build on. On an identical platform `flow`, when
/// given, runs first on the calling thread and settles the race with a
/// definitive verdict; `None` races the roster alone. The race keeps its
/// own internal token (raised by the first definitive verdict), and a
/// monitor propagates the external token into it, so a campaign-level
/// cancellation preempts every backend at its next checkpoint; the overall
/// verdict then comes back `Unknown(Cancelled)` and the caller can requeue
/// the unit.
pub fn race_cancellable<S>(
    flow: Option<&dyn FeasibilitySolver>,
    roster: &[S],
    ts: &TaskSet,
    spec: &PlatformSpec,
    budget: &Budget,
    external: &CancelToken,
) -> Result<PortfolioResult, TaskError>
where
    S: std::ops::Deref<Target = dyn FeasibilitySolver> + Sync,
{
    race_inner(flow, roster, ts, spec, budget, Some(external))
}

/// Decrement the race's running-backend count when dropped and wake the
/// cancellation monitor once it reaches zero. Drop-based so the count
/// stays honest even when a backend thread panics (a soundness panic must
/// propagate out of the scope, not hang the monitor), and notify-based so
/// the monitor exits the moment the last backend returns instead of
/// serving out a poll tick — the monitor is joined inside the measured
/// window, so a sleep tail would inflate every race's `elapsed_us` (and
/// through it the recorded cancellation latency and adaptive-budget
/// samples).
struct RunningGuard<'a> {
    running: &'a AtomicUsize,
    wake: &'a (Mutex<()>, Condvar),
}

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        if self.running.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Acquire the monitor's mutex before notifying: the monitor
            // re-checks the count under this lock before waiting, so the
            // notify can never land in the gap between its check and wait.
            drop(self.wake.0.lock().unwrap_or_else(|e| e.into_inner()));
            self.wake.1.notify_all();
        }
    }
}

/// Is `res` definitive? A `Feasible` schedule must pass the C1–C4
/// checker first; an invalid one panics.
fn accept(
    ts: &TaskSet,
    spec: &PlatformSpec,
    solver: &dyn FeasibilitySolver,
    res: &SolveResult,
) -> bool {
    match &res.verdict {
        Verdict::Feasible(s) => {
            verify::check(ts, spec, s).unwrap_or_else(|e| {
                panic!(
                    "portfolio backend {} returned invalid schedule: {e}",
                    solver.name()
                )
            });
            true
        }
        Verdict::Infeasible => true,
        Verdict::Unknown(_) => false,
    }
}

fn race_inner<S>(
    flow: Option<&dyn FeasibilitySolver>,
    roster: &[S],
    ts: &TaskSet,
    spec: &PlatformSpec,
    budget: &Budget,
    external: Option<&CancelToken>,
) -> Result<PortfolioResult, TaskError>
where
    S: std::ops::Deref<Target = dyn FeasibilitySolver> + Sync,
{
    assert!(!roster.is_empty(), "portfolio roster must not be empty");
    let start = Instant::now();
    let cancel = CancelToken::new();
    if let (Some(flow), PlatformSpec::Identical { .. }) = (flow, spec) {
        // An error (a task-model error, an injected fault) falls through:
        // the roster meets it too and the race reports it as before.
        if let Ok(res) = flow.solve_on(ts, spec, budget, external.unwrap_or(&cancel)) {
            if accept(ts, spec, flow, &res) {
                return Ok(PortfolioResult {
                    winner: Some(0),
                    result: res.clone(),
                    backends: vec![BackendReport {
                        name: flow.name(),
                        result: Ok(res),
                        winner: true,
                    }],
                    elapsed_us: start.elapsed().as_micros() as u64,
                });
            }
        }
    }
    // The roster draws on what flow left of the wall-clock budget.
    let budget = &budget.capped(budget.time.map(|t| t.saturating_sub(start.elapsed())));
    // Winner slot: first definitive verdict to arrive claims it under the
    // lock and raises the shared token.
    let winner: Mutex<Option<usize>> = Mutex::new(None);
    let mut slots: Vec<Option<Result<SolveResult, TaskError>>> =
        (0..roster.len()).map(|_| None).collect();
    let running = AtomicUsize::new(roster.len());
    let wake = (Mutex::new(()), Condvar::new());

    std::thread::scope(|scope| {
        // External-cancellation monitor: polls the caller's token and
        // propagates it into the race's internal one, then exits as soon
        // as either fires or every backend has returned (the last
        // backend's [`RunningGuard`] wakes it immediately — no sleep tail
        // on the measured wall clock). Only spawned when an external token
        // exists; `race` callers pay nothing.
        if let Some(external) = external {
            let cancel = cancel.clone();
            let running = &running;
            let wake = &wake;
            let external = external.clone();
            scope.spawn(move || {
                // Exponential poll backoff (50 µs → 2 ms) for the
                // external-token checks; backend completion interrupts the
                // wait via the condvar instead of waiting out a tick.
                let mut tick = Duration::from_micros(50);
                loop {
                    if running.load(Ordering::Acquire) == 0 || cancel.is_cancelled() {
                        break;
                    }
                    if external.is_cancelled() {
                        cancel.cancel();
                        break;
                    }
                    let guard = wake.0.lock().unwrap_or_else(|e| e.into_inner());
                    if running.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    let _ = wake.1.wait_timeout(guard, tick);
                    tick = (tick * 2).min(Duration::from_millis(2));
                }
            });
        }
        let mut handles = Vec::with_capacity(roster.len());
        for (i, (solver, slot)) in roster.iter().zip(slots.iter_mut()).enumerate() {
            let cancel = cancel.clone();
            let winner = &winner;
            let running = &running;
            let wake = &wake;
            handles.push(scope.spawn(move || {
                let _running_guard = RunningGuard { running, wake };
                let res = solver.solve_on(ts, spec, budget, &cancel);
                // Verify before the verdict may cancel others.
                if res.as_ref().is_ok_and(|r| accept(ts, spec, &**solver, r)) {
                    let mut w = winner.lock().unwrap_or_else(|e| e.into_inner());
                    if w.is_none() {
                        *w = Some(i);
                        cancel.cancel();
                    }
                }
                *slot = Some(res);
            }));
        }
        // Joined here rather than by the scope, so a backend's panic (an
        // invalid schedule, an injected fault) reaches the caller with its
        // own message instead of the scope's generic one.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let mut backends: Vec<BackendReport> = roster
        .iter()
        .zip(slots)
        .map(|(solver, slot)| BackendReport {
            name: solver.name(),
            result: slot.expect("every worker stores its result"),
            winner: false,
        })
        .collect();

    // Soundness cross-check: exact backends may never disagree.
    let feasible_by = backends
        .iter()
        .position(|b| matches!(&b.result, Ok(r) if r.verdict.is_feasible()));
    let infeasible_by = backends
        .iter()
        .position(|b| matches!(&b.result, Ok(r) if r.verdict.is_infeasible()));
    if let (Some(f), Some(i)) = (feasible_by, infeasible_by) {
        panic!(
            "portfolio disagreement: {} proved feasible while {} proved infeasible",
            backends[f].name, backends[i].name
        );
    }

    let winner = *winner.lock().unwrap_or_else(|e| e.into_inner());
    let result = match winner {
        Some(i) => {
            backends[i].winner = true;
            backends[i]
                .result
                .clone()
                .expect("winner stored a successful result")
        }
        None => {
            // Nobody concluded. Propagate a task-model error if one
            // occurred (it would have hit every backend identically);
            // otherwise surface the first Unknown that actually *tried*
            // (skipping Unsupported so a capable backend's TimeLimit is
            // not masked), deterministically in roster order.
            if let Some(err) = backends.iter().find_map(|b| b.result.as_ref().err()) {
                return Err(err.clone());
            }
            let tried = backends.iter().find(|b| {
                !matches!(
                    &b.result,
                    Ok(r) if r.verdict == Verdict::Unknown(StopReason::Unsupported)
                )
            });
            tried
                .unwrap_or(&backends[0])
                .result
                .clone()
                .expect("no errors implies a result")
        }
    };

    Ok(PortfolioResult {
        winner,
        result,
        backends,
        elapsed_us: start.elapsed().as_micros() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SolverSpec;
    use std::time::Duration;

    fn roster(specs: &[SolverSpec]) -> Vec<Box<dyn FeasibilitySolver>> {
        specs.iter().map(|s| s.build()).collect()
    }

    /// Race `roster` alone on `m` identical processors: no flow engine
    /// settles the race first, so every roster thread runs.
    fn race_roster<S>(
        roster: &[S],
        ts: &TaskSet,
        m: usize,
        budget: &Budget,
    ) -> Result<PortfolioResult, TaskError>
    where
        S: std::ops::Deref<Target = dyn FeasibilitySolver> + Sync,
    {
        race_cancellable(
            None,
            roster,
            ts,
            &PlatformSpec::identical(m),
            budget,
            &CancelToken::new(),
        )
    }

    #[test]
    fn arc_roster_races_like_boxed() {
        // The race entry points are generic over the roster pointer type:
        // a pooled Arc roster (the resident-server shape) must behave
        // exactly like the one-shot boxed roster.
        let ts = TaskSet::running_example();
        let pool = crate::engine::EnginePool::new();
        let specs = [SolverSpec::Csp2(
            crate::heuristics::TaskOrder::Lexicographic,
        )];
        let shared = pool.roster(&specs, 1);
        let budget = Budget::time_limit(Duration::from_secs(5));
        let from_arc = race_roster(&shared, &ts, 2, &budget).unwrap();
        let from_box = race_roster(&roster(&specs), &ts, 2, &budget).unwrap();
        assert!(from_arc.result.verdict.is_feasible());
        assert_eq!(
            from_arc.result.verdict.is_feasible(),
            from_box.result.verdict.is_feasible()
        );
        // The pool built (and kept) exactly one engine for the roster.
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn race_finds_the_running_example_feasible() {
        let ts = TaskSet::running_example();
        let r = race(
            &roster(&SolverSpec::DEFAULT_PORTFOLIO),
            &ts,
            2,
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(r.result.verdict.is_feasible());
        let w = r.winner.expect("someone wins");
        assert!(r.backends[w].winner);
        assert_eq!(r.winner_name().unwrap(), r.backends[w].name);
        // Flow settles an identical race alone: the roster never starts.
        assert_eq!(r.backends.len(), 1);
        assert_eq!(r.winner_name(), Some("flow"));
    }

    #[test]
    fn race_proves_infeasibility() {
        // Local search cannot prove it; the roster's exact backends must.
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let r = race_roster(
            &roster(&SolverSpec::DEFAULT_PORTFOLIO),
            &ts,
            2,
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(r.result.verdict.is_infeasible());
        let name = r.winner_name().unwrap();
        assert!(
            !name.starts_with("local"),
            "{name} cannot prove infeasibility"
        );
    }

    #[test]
    fn cancellation_preempts_slow_backends() {
        // A harder instance: whoever wins, every loser must have stopped —
        // either with its own verdict or as Cancelled — and the race's
        // elapsed time must stay near the winner's, not the sum.
        let ts = TaskSet::from_ocdt(&[
            (0, 1, 2, 2),
            (1, 3, 4, 4),
            (0, 2, 3, 3),
            (0, 1, 3, 4),
            (2, 1, 2, 6),
        ]);
        let r = race_roster(
            &roster(&SolverSpec::DEFAULT_PORTFOLIO),
            &ts,
            3,
            &Budget::time_limit(Duration::from_secs(30)),
        )
        .unwrap();
        assert!(r.winner.is_some());
        assert_eq!(r.backends.len(), SolverSpec::DEFAULT_PORTFOLIO.len());
        for b in &r.backends {
            let res = b.result.as_ref().unwrap();
            match &res.verdict {
                Verdict::Feasible(_) | Verdict::Infeasible => {}
                Verdict::Unknown(reason) => {
                    assert!(
                        matches!(reason, StopReason::Cancelled | StopReason::DecisionLimit),
                        "{}: unexpected stop {reason:?}",
                        b.name
                    );
                }
            }
        }
    }

    #[test]
    fn single_backend_roster_degenerates_to_plain_solve() {
        let ts = TaskSet::running_example();
        let r = race_roster(
            &roster(&[SolverSpec::Csp2(
                crate::heuristics::TaskOrder::DeadlineMinusWcet,
            )]),
            &ts,
            2,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(r.winner, Some(0));
        assert!(r.result.verdict.is_feasible());
    }

    #[test]
    fn hetero_race_through_platform_spec() {
        let ts = TaskSet::from_ocdt(&[(0, 2, 3, 3), (0, 2, 3, 3)]);
        let platform = rt_platform::Platform::heterogeneous(vec![vec![2, 1], vec![1, 1]]).unwrap();
        let spec = PlatformSpec::Heterogeneous(platform);
        // Roster mixes hetero-capable and non-capable backends; the latter
        // report Unsupported and cannot win.
        let flow = SolverSpec::Flow.build();
        let r = race_cancellable(
            Some(flow.as_ref()),
            &roster(&[
                SolverSpec::Csp2(crate::heuristics::TaskOrder::DeadlineMinusWcet),
                SolverSpec::Csp1,
                SolverSpec::Csp1Sat,
                SolverSpec::Csp2Generic,
            ]),
            &ts,
            &spec,
            &Budget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap();
        assert!(r.result.verdict.is_feasible());
        // Flow does not take part on a heterogeneous platform.
        assert_eq!(r.backends.len(), 4);
        assert_ne!(r.winner_name().unwrap(), "csp2-generic");
        let generic = r
            .backends
            .iter()
            .find(|b| b.name == "csp2-generic")
            .unwrap();
        assert_eq!(
            generic.result.as_ref().unwrap().verdict,
            Verdict::Unknown(StopReason::Unsupported)
        );
    }

    #[test]
    fn external_token_preempts_and_stats_serialize() {
        // A dense instance that needs real search: a pre-raised external
        // token must stop every backend without producing a verdict (fast
        // instances may still decide inside the first checkpoint window —
        // what is forbidden is a *wrong* verdict).
        let ts = TaskSet::from_ocdt(&[
            (0, 2, 3, 4),
            (0, 3, 4, 4),
            (1, 2, 3, 4),
            (0, 1, 2, 2),
            (0, 2, 4, 4),
            (0, 1, 3, 3),
        ]);
        let external = CancelToken::new();
        external.cancel();
        // Flow polls the raised token at entry and declines, so the roster
        // still races.
        let flow = SolverSpec::Flow.build();
        let r = race_cancellable(
            Some(flow.as_ref()),
            &roster(&[
                SolverSpec::Csp2(crate::heuristics::TaskOrder::DeadlineMinusWcet),
                SolverSpec::Csp1,
            ]),
            &ts,
            &PlatformSpec::identical(2),
            &Budget::unlimited(),
            &external,
        )
        .unwrap();
        if r.winner.is_none() {
            assert_eq!(r.result.verdict, Verdict::Unknown(StopReason::Cancelled));
            assert_eq!(r.cancel_latency_us(), None);
        }
        // Per-backend stats project to the serializable shape and
        // round-trip through JSON.
        let stats = r.backend_stats();
        assert_eq!(stats.len(), 2);
        let json = serde_json::to_string(&stats).unwrap();
        let back: Vec<BackendStat> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn cancel_latency_is_race_minus_winner_time() {
        let ts = TaskSet::running_example();
        let r = race_roster(
            &roster(&SolverSpec::DEFAULT_PORTFOLIO),
            &ts,
            2,
            &Budget::unlimited(),
        )
        .unwrap();
        let w = r.winner.expect("someone wins");
        let lat = r.cancel_latency_us().expect("winner implies latency");
        assert_eq!(
            lat,
            r.elapsed_us
                .saturating_sub(r.backends[w].stats().elapsed_us)
        );
        // Exactly one backend carries the winner flag in the stats too.
        assert_eq!(r.backend_stats().iter().filter(|s| s.winner).count(), 1);
    }

    #[test]
    fn all_unknown_roster_reports_no_winner() {
        // Infeasible instance + only an incomplete backend: no definitive
        // verdict exists.
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let budget = Budget {
            max_decisions: Some(2_000),
            ..Budget::unlimited()
        };
        let r = race_roster(&roster(&[SolverSpec::Local]), &ts, 2, &budget).unwrap();
        assert_eq!(r.winner, None);
        assert!(r.result.verdict.is_unknown());
    }

    #[test]
    fn a_pooled_flow_engine_settles_the_race_and_keeps_its_counters() {
        // The caller's flow engine is the one that runs: its telemetry
        // (what serve's per-solver metrics read) counts the race.
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let pool = crate::engine::EnginePool::new();
        let flow = pool.get(SolverSpec::Flow, 0);
        let r = race_cancellable(
            Some(&*flow),
            &roster(&SolverSpec::DEFAULT_PORTFOLIO),
            &ts,
            &PlatformSpec::identical(2),
            &Budget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap();
        assert!(r.result.verdict.is_infeasible());
        assert_eq!(r.winner_name(), Some("flow"));
        assert_eq!(r.backends.len(), 1);
        assert_eq!(flow.stats().expect("pooled engines count").solves, 1);
    }
}
