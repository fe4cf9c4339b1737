//! Partitioned vs. global scheduling (Section VIII: "looking at
//! partitioning or mixed approaches").
//!
//! Shows the migration dividend on the classic instance — three tasks of
//! utilization 2/3 on two processors are globally feasible but provably
//! not partitionable — then measures, over a random corpus, how many
//! instances each approach schedules.
//!
//! Run with: `cargo run --release --example partitioned_vs_global`

use mgrts::mgrts_core::csp2::Csp2Solver;
use mgrts::mgrts_core::engine::Budget;
use mgrts::mgrts_core::heuristics::TaskOrder;
use mgrts::rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator};
use mgrts::rt_sim::{exhaustive_partition, partition, render_schedule, PackingStrategy};
use mgrts::rt_task::TaskSet;
use std::time::Duration;

fn main() {
    println!("== the classic witness: 3 × (C=2, D=T=3) on m = 2 ==");
    let ts = TaskSet::from_ocdt(&[(0, 2, 3, 3), (0, 2, 3, 3), (0, 2, 3, 3)]);
    let global = Csp2Solver::new(&ts, 2)
        .unwrap()
        .with_order(TaskOrder::DeadlineMinusWcet)
        .solve();
    println!(
        "global CSP2: {}",
        if global.verdict.is_feasible() {
            "FEASIBLE (migrating schedule below)"
        } else {
            "infeasible"
        }
    );
    if let Some(s) = global.verdict.schedule() {
        println!("{}", render_schedule(s));
    }
    println!(
        "exhaustive partitioned search: {}",
        match exhaustive_partition(&ts, 2) {
            Some(_) => "partition found (unexpected!)".to_string(),
            None => "NO partition exists — migration is essential".to_string(),
        }
    );

    println!("\n== random corpus: how often does each approach succeed? ==");
    let cfg = GeneratorConfig {
        n: 6,
        m: MSpec::Fixed(3),
        t_max: 5,
        order: ParamOrder::DeadlineFirst,
        synchronous: false,
    };
    let gen = ProblemGenerator::new(cfg, 7);
    let (mut global_ok, mut part_ok, mut gap, mut total) = (0, 0, 0, 0);
    for p in gen.batch(120) {
        if p.filtered_out() {
            continue;
        }
        total += 1;
        let g = Csp2Solver::new(&p.taskset, p.m)
            .unwrap()
            .with_order(TaskOrder::DeadlineMinusWcet)
            .with_budget(Budget::time_limit(Duration::from_millis(500)))
            .solve()
            .verdict
            .is_feasible();
        let pt = partition(&p.taskset, p.m, PackingStrategy::FirstFitDecreasing).is_some();
        global_ok += u32::from(g);
        part_ok += u32::from(pt);
        gap += u32::from(g && !pt);
        assert!(!pt || g, "a partitioned schedule is a global schedule");
    }
    println!("instances surviving the r ≤ 1 filter : {total}");
    println!("global CSP2 feasible                 : {global_ok}");
    println!("partitioned (FFD + per-core EDF)     : {part_ok}");
    println!("migration dividend (global \\ part.) : {gap}");
}
