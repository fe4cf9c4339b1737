//! Portfolio quickstart: race every kind of solver on one instance.
//!
//! The paper's Table I compares six solver configurations sequentially;
//! on a multicore host the `mgrts_core::portfolio` module races any roster
//! of [`FeasibilitySolver`]s on scoped threads. The first definitive
//! `Feasible`/`Infeasible` verdict cancels the rest cooperatively, and the
//! per-backend statistics survive for inspection.
//!
//! On identical processors the exact `flow` backend, when the caller
//! passes one, decides the instance on the calling thread before any
//! roster thread starts, so the three identical instances below show
//! `flow` as the only backend. The heterogeneous instance, which flow does
//! not support, races the roster, and the last race passes no flow engine
//! so the roster's backends compete on an identical instance.
//!
//! Run with: `cargo run --release --example portfolio`

use std::time::Duration;

use mgrts::mgrts_core::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec, SolverSpec};
use mgrts::mgrts_core::portfolio::{race_cancellable, PortfolioResult};
use mgrts::rt_platform::Platform;
use mgrts::rt_sim::render_schedule;
use mgrts::rt_task::TaskSet;

fn main() {
    // The paper's running example (m = 2, H = 12) plus a denser instance
    // where the backends genuinely diverge in runtime.
    let instances: Vec<(&str, TaskSet, usize)> = vec![
        ("running example", TaskSet::running_example(), 2),
        (
            "dense 5-task instance",
            TaskSet::from_ocdt(&[
                (0, 1, 2, 2),
                (1, 3, 4, 4),
                (0, 2, 3, 3),
                (0, 1, 3, 4),
                (2, 1, 2, 6),
            ]),
            3,
        ),
        (
            "overloaded (infeasible)",
            TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]),
            2,
        ),
    ];

    // Any roster works; SolverSpec::DEFAULT_PORTFOLIO mixes the strongest
    // CSP2 heuristic, both generic-engine routes, the CNF/CDCL route and a
    // local search.
    let roster: Vec<Box<dyn FeasibilitySolver>> = SolverSpec::DEFAULT_PORTFOLIO
        .iter()
        .map(|spec| spec.build())
        .collect();
    println!(
        "roster: {}",
        roster
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let budget = Budget::time_limit(Duration::from_secs(10));
    let mut races: Vec<(&str, TaskSet, PlatformSpec)> = instances
        .into_iter()
        .map(|(label, ts, m)| (label, ts, PlatformSpec::identical(m)))
        .collect();
    // Two tasks on a fast and a slow processor (rates per task and
    // processor): only the heterogeneous backends can answer.
    races.push((
        "heterogeneous 2-task instance",
        TaskSet::from_ocdt(&[(0, 2, 3, 3), (0, 2, 3, 3)]),
        PlatformSpec::Heterogeneous(
            Platform::heterogeneous(vec![vec![2, 1], vec![1, 1]]).expect("valid rates"),
        ),
    ));
    let flow = SolverSpec::Flow.build();
    for (label, ts, spec) in &races {
        println!("\n=== {label} (m = {}) ===", spec.num_processors());
        let outcome = race_cancellable(
            Some(flow.as_ref()),
            &roster,
            ts,
            spec,
            &budget,
            &CancelToken::new(),
        )
        .expect("valid instance");
        report(&outcome);
    }
    let (label, ts, spec) = &races[1];
    println!("\n=== {label}, roster alone ===");
    let outcome = race_cancellable(None, &roster, ts, spec, &budget, &CancelToken::new())
        .expect("valid instance");
    report(&outcome);
}

fn report(outcome: &PortfolioResult) {
    match outcome.winner_name() {
        Some(winner) => println!(
            "verdict: {:?} — won by `{winner}` in {:?}",
            verdict_word(&outcome.result),
            Duration::from_micros(outcome.elapsed_us),
        ),
        None => println!("no backend reached a definitive verdict"),
    }
    for report in &outcome.backends {
        println!(
            "  {:<14} {:<22} decisions={:<8} elapsed={:?}",
            format!("{}{}", report.name, if report.winner { " *" } else { "" }),
            report.outcome_label(),
            report.stat().decisions,
            report.stats().elapsed(),
        );
    }
    if let Some(schedule) = outcome.result.verdict.schedule() {
        println!("{}", render_schedule(schedule));
    }
}

fn verdict_word(result: &mgrts::mgrts_core::SolveResult) -> &'static str {
    if result.verdict.is_feasible() {
        "feasible"
    } else if result.verdict.is_infeasible() {
        "infeasible"
    } else {
        "unknown"
    }
}
