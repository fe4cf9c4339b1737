//! The Dhall effect: why exact global scheduling matters.
//!
//! Priority-driven global schedulers (global EDF / DM) miss deadlines on an
//! instance whose utilization is far below the platform capacity, while the
//! CSP approach finds a feasible schedule immediately — the scheduling
//! anomaly that motivates the paper's exact method (Section I), plus the
//! Section VIII priority-assignment repair.
//!
//! Run with: `cargo run --example dhall_effect`

use mgrts::mgrts_core::csp2::Csp2Solver;
use mgrts::mgrts_core::heuristics::TaskOrder;
use mgrts::mgrts_core::priority::{dc_seed, dc_seeded_assignment};
use mgrts::rt_sim::{dhall_instance, fp_schedulable, render_schedule, simulate, Policy};

fn main() {
    let m = 2;
    let ts = dhall_instance(m, 8);
    println!(
        "Dhall instance on {m} processors: {} light tasks + 1 heavy, r = {:.3}",
        m,
        ts.utilization_ratio(m)
    );

    println!("\n== global EDF ==");
    let res = simulate(&ts, m, &Policy::Edf, None);
    match res.misses.first() {
        Some(miss) => println!(
            "DEADLINE MISS: task {} (released {}, due {}) still owes {} units",
            miss.task + 1,
            miss.release,
            miss.deadline,
            miss.remaining
        ),
        None => println!("schedulable (unexpected!)"),
    }

    println!("\n== CSP2 + (D-C) on the same instance ==");
    let res = Csp2Solver::new(&ts, m)
        .unwrap()
        .with_order(TaskOrder::DeadlineMinusWcet)
        .solve();
    let schedule = res.verdict.schedule().expect("the CSP finds it");
    println!(
        "feasible in {} decisions — schedule of one hyperperiod:",
        res.search.unwrap_or_default().decisions
    );
    println!("{}", render_schedule(schedule));

    println!("== Section VIII: (D-C)-seeded priority assignment ==");
    let seed = dc_seed(&ts);
    println!("(D-C) seed ordering (least slack first): {seed:?}");
    let (found, tested) = dc_seeded_assignment(&ts, |order| fp_schedulable(&ts, m, order));
    match found {
        Some(order) => println!(
            "fixed-priority order {order:?} schedules the instance ({tested} orderings tested)"
        ),
        None => println!("no nearby priority ordering works ({tested} tested)"),
    }
}
