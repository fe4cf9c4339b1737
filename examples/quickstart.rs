//! Quickstart: the paper's running example end to end.
//!
//! Builds Example 1 (m = 2 processors, three tasks, hyperperiod 12),
//! renders its availability intervals (Figure 1), solves it with both CSP
//! encodings, verifies the schedules against conditions C1–C4, and prints
//! the result.
//!
//! Run with: `cargo run --example quickstart`

use mgrts::mgrts_core::csp2::Csp2Solver;
use mgrts::mgrts_core::engine::{Budget, CancelToken, Csp1Engine, FeasibilitySolver};
use mgrts::mgrts_core::heuristics::TaskOrder;
use mgrts::mgrts_core::verify::check_identical;
use mgrts::rt_sim::{render_intervals, render_schedule};
use mgrts::rt_task::TaskSet;

fn main() {
    let ts = TaskSet::running_example();
    let m = 2;

    println!("== Figure 1: availability intervals ==");
    println!("{}", render_intervals(&ts).unwrap());

    println!("== CSP2 + (D-C): specialized chronological search ==");
    let res = Csp2Solver::new(&ts, m)
        .unwrap()
        .with_order(TaskOrder::DeadlineMinusWcet)
        .solve();
    let schedule = res.verdict.schedule().expect("the example is feasible");
    check_identical(&ts, m, schedule).expect("C1–C4 hold");
    let search = res.search.unwrap_or_default();
    println!(
        "feasible in {} decisions, {} failures, {} µs",
        search.decisions, search.backtracks, res.stats.elapsed_us
    );
    println!("{}", render_schedule(schedule));

    println!("== CSP1: boolean encoding on the generic solver ==");
    let res = Csp1Engine::default()
        .solve(&ts, m, &Budget::unlimited(), &CancelToken::new())
        .unwrap();
    let schedule = res.verdict.schedule().expect("the example is feasible");
    check_identical(&ts, m, schedule).expect("C1–C4 hold");
    let search = res.search.unwrap_or_default();
    println!(
        "feasible in {} decisions, {} failures, {} µs",
        search.decisions, search.backtracks, res.stats.elapsed_us
    );
    println!("{}", render_schedule(schedule));
}
