//! Heterogeneous platforms (Section VI-A): dedicated processors and
//! execution rates.
//!
//! Builds a platform where one processor is twice as fast for some tasks
//! and another is forbidden for one task (`si,j = 0`), solves with the
//! CSP2 search on the rate matrix, cross-checks with the heterogeneous CSP1
//! encoding and the SAT route, and verifies the rate-weighted completion
//! constraint (12). Every route is the identical-platform engine handed a
//! heterogeneous `PlatformSpec`.
//!
//! Run with: `cargo run --example heterogeneous`

use mgrts::mgrts_core::engine::{
    Budget, CancelToken, Csp1Engine, Csp1SatEngine, Csp2Engine, FeasibilitySolver, PlatformSpec,
};
use mgrts::mgrts_core::heuristics::TaskOrder;
use mgrts::mgrts_core::verify::check_heterogeneous;
use mgrts::rt_platform::Platform;
use mgrts::rt_sim::render_schedule;
use mgrts::rt_task::TaskSet;

fn main() {
    // τ1 = (0, 4, 4, 4): four units per window — needs the fast processor.
    // τ2 = (0, 2, 3, 3): may not run on P1 (dedicated-processor modelling).
    // τ3 = (0, 1, 2, 2): runs anywhere.
    let ts = TaskSet::from_ocdt(&[(0, 4, 4, 4), (0, 2, 3, 3), (0, 1, 2, 2)]);
    // Rates: rows = tasks, columns = processors.
    //        P1 fast for τ1 (rate 2); P2 forbidden for τ2.
    let platform = Platform::heterogeneous(vec![
        vec![2, 1], // τ1
        vec![1, 0], // τ2 — P2 forbidden
        vec![1, 1], // τ3
    ])
    .unwrap();

    println!(
        "platform: {} processors, identical = {}, uniform = {}",
        platform.num_processors(),
        platform.is_identical(),
        platform.is_uniform()
    );

    let spec = PlatformSpec::Heterogeneous(platform.clone());
    let solve = |engine: &dyn FeasibilitySolver| {
        engine
            .solve_on(&ts, &spec, &Budget::unlimited(), &CancelToken::new())
            .unwrap()
    };

    println!("\n== specialized heterogeneous CSP2 search ==");
    let res = solve(&Csp2Engine {
        order: TaskOrder::DeadlineMinusWcet,
    });
    match res.verdict.schedule() {
        Some(s) => {
            check_heterogeneous(&ts, &platform, s).expect("constraint (12) holds");
            let search = res.search.clone().unwrap_or_default();
            println!(
                "feasible in {} decisions / {} failures:",
                search.decisions, search.backtracks
            );
            println!("{}", render_schedule(s));
        }
        None => println!("verdict: {:?}", res.verdict),
    }

    println!("== heterogeneous CSP1 on the generic solver (cross-check) ==");
    let res1 = solve(&Csp1Engine { seed: 7 });
    match res1.verdict.schedule() {
        Some(s) => {
            check_heterogeneous(&ts, &platform, s).expect("constraint (11) holds");
            println!("CSP1 agrees: feasible. One of its schedules:");
            println!("{}", render_schedule(s));
        }
        None => println!("CSP1 verdict: {:?}", res1.verdict),
    }

    println!("== SAT route with the pseudo-boolean constraint (11) ==");
    let res2 = solve(&Csp1SatEngine::default());
    match res2.verdict.schedule() {
        Some(s) => {
            check_heterogeneous(&ts, &platform, s).expect("constraint (11) holds");
            println!("CDCL agrees: feasible. One of its schedules:");
            println!("{}", render_schedule(s));
        }
        None => println!("SAT verdict: {:?}", res2.verdict),
    }
}
