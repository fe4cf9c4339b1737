//! The `race` phase: the workload's stream, one instance at a time, raced
//! with `SolverSpec::DEFAULT_PORTFOLIO` under a fixed wall-clock budget per
//! instance on this machine's real core count.
//!
//! It answers the user's question (how much of the cell is decided, and
//! how fast) and is the only phase where cancellation and CPU sharing
//! between backends decide the result.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mgrts_core::engine::{Budget, FeasibilitySolver, SolverSpec};
use mgrts_core::portfolio::race;
use mgrts_core::solve::{StopReason, Verdict};
use mgrts_core::verify::check_identical;
use rt_gen::{Problem, ProblemGenerator};

use crate::trace::Tracer;
use crate::workload::Workload;
use crate::Tally;

/// Instances and the racing roster.
pub struct Setup {
    /// The first `race_instances` instances of the seeded stream (a
    /// prefix of the `cell` stream).
    pub problems: Vec<Problem>,
    roster: Vec<Box<dyn FeasibilitySolver>>,
}

/// Generate the stream and build the roster.
#[must_use]
pub fn setup(w: &Workload, seed: u64, tracer: &Tracer) -> Setup {
    let root = tracer.span("setup.race", 0, 0);
    let gen = ProblemGenerator::new(w.gen, seed);
    let problems = {
        let mut sp = tracer.span("gen", 0, root.id());
        sp.set_items(w.race_instances);
        (0..w.race_instances).map(|i| gen.nth(i)).collect()
    };
    let roster = {
        let _sp = tracer.span("setup.engines", 0, root.id());
        SolverSpec::DEFAULT_PORTFOLIO
            .iter()
            .map(SolverSpec::build)
            .collect()
    };
    Setup { problems, roster }
}

/// What the phase measured. Every instance is raced twice, at different
/// times of the run; all but `ttv_ms` come from the first attempt.
#[derive(Debug, Clone, Default)]
pub struct RaceRun {
    /// Races won by some backend (a definitive verdict within budget).
    pub decided: u64,
    /// Per instance and attempt: race wall time when decided, milliseconds.
    pub attempts_ms: Vec<[Option<f64>; 2]>,
    /// The winner's own solve time, per decided race, milliseconds.
    pub winner_ms: Vec<f64>,
    /// Race wall time minus the winner's own solve time, per decided
    /// race, milliseconds (how long the losers took to stop).
    pub cancel_latency_ms: Vec<f64>,
    /// How far past the budget each undecided race returned, milliseconds.
    pub overrun_ms: Vec<f64>,
    /// Wins per roster backend, in `DEFAULT_PORTFOLIO` order.
    pub wins: Vec<(&'static str, u64)>,
    /// Races where `sat` was cancelled and reported a solve time of 0 µs.
    pub sat_cancelled_zero_time: u64,
    /// Races where `sat` was cancelled.
    pub sat_cancelled: u64,
}

impl RaceRun {
    /// Empty totals with a zero win count per roster backend.
    #[must_use]
    pub fn new() -> RaceRun {
        RaceRun {
            wins: SolverSpec::DEFAULT_PORTFOLIO
                .iter()
                .map(|s| (s.name(), 0))
                .collect(),
            ..RaceRun::default()
        }
    }

    /// Time to verdict of each instance decided on its first attempt, in
    /// milliseconds: the faster of its decided attempts, so a slow spell
    /// of the machine during one attempt does not count.
    #[must_use]
    pub fn ttv_ms(&self) -> Vec<f64> {
        self.attempts_ms
            .iter()
            .filter_map(|[a, b]| a.map(|a| b.map_or(a, |b| a.min(b))))
            .collect()
    }
}

/// Race instances `range` of the stream as attempt `attempt` (0 or 1),
/// accumulating into `run`. `cell_verdicts` (per instance of the shared
/// stream prefix) cross-checks the race's definitive verdicts.
#[allow(clippy::too_many_arguments)]
pub fn chunk(
    setup: &Setup,
    w: &Workload,
    range: Range<usize>,
    attempt: usize,
    tracer: &Tracer,
    cell_verdicts: &[Option<bool>],
    run: &mut RaceRun,
    tally: &mut Tally,
) {
    let budget = Budget::time_limit(Duration::from_millis(w.race_budget_ms));
    let first = attempt == 0;
    if run.attempts_ms.len() < setup.problems.len() {
        run.attempts_ms.resize(setup.problems.len(), [None, None]);
    }
    for i in range {
        let p = &setup.problems[i];
        let trace = i as u64;
        let root = tracer.span("race.instance", trace, 0);
        tally.attempted += 1;
        let t0 = Instant::now();
        let res = {
            let _sp = tracer.span("race.race", trace, root.id());
            catch_unwind(AssertUnwindSafe(|| {
                race(&setup.roster, &p.taskset, p.m, &budget)
            }))
        };
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let res = match res {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                tally.fail(format!("race: instance {i}: {e}"));
                continue;
            }
            Err(_) => {
                tally.fail(format!("race: instance {i}: the racer panicked"));
                continue;
            }
        };
        for b in res.backends.iter().filter(|_| first) {
            let cancelled = matches!(
                &b.result,
                Ok(r) if r.verdict == Verdict::Unknown(StopReason::Cancelled)
            );
            if b.name == "sat" && cancelled {
                run.sat_cancelled += 1;
                if b.stats().elapsed_us == 0 {
                    run.sat_cancelled_zero_time += 1;
                }
            }
        }
        let Some(winner) = res.winner else {
            if first {
                run.overrun_ms.push(wall_ms - w.race_budget_ms as f64);
            }
            continue;
        };
        let feasible = match &res.result.verdict {
            Verdict::Feasible(s) => {
                let _sp = tracer.span("verify", trace, root.id());
                if let Err(e) = check_identical(&p.taskset, p.m, s) {
                    tally.fail(format!("race: invalid schedule on instance {i}: {e}"));
                    continue;
                }
                true
            }
            Verdict::Infeasible => false,
            Verdict::Unknown(_) => {
                tally.fail(format!("race: instance {i} has a winner but no verdict"));
                continue;
            }
        };
        if let Some(Some(cell)) = cell_verdicts.get(i) {
            if *cell != feasible {
                tally.fail(format!(
                    "race: instance {i} decided {} but the cell phase decided {}",
                    verdict_word(feasible),
                    verdict_word(*cell)
                ));
                continue;
            }
        }
        run.attempts_ms[i][attempt.min(1)] = Some(wall_ms);
        if !first {
            continue;
        }
        let winner_ms = res.backends[winner].stats().elapsed_us as f64 / 1e3;
        run.decided += 1;
        run.winner_ms.push(winner_ms);
        run.cancel_latency_ms.push(wall_ms - winner_ms);
        if let Some(slot) = run
            .wins
            .iter_mut()
            .find(|(name, _)| *name == res.backends[winner].name)
        {
            slot.1 += 1;
        }
    }
}

fn verdict_word(feasible: bool) -> &'static str {
    if feasible {
        "feasible"
    } else {
        "infeasible"
    }
}
