//! The SAT route: CSP1 lowered to CNF and solved by the CDCL solver.
//!
//! Section IV of the paper picks boolean variables for its first encoding
//! "so that even boolean satisfiability (SAT) solvers could be used" —
//! this example does exactly that on the running example, prints the
//! formula statistics, and cross-checks the verdict and schedule against
//! the specialized CSP2 search.
//!
//! Run with: `cargo run --example sat_route`

use mgrts::mgrts_core::csp1_sat::encode_cnf;
use mgrts::mgrts_core::csp2::Csp2Solver;
use mgrts::mgrts_core::engine::{Budget, CancelToken, Csp1SatEngine, FeasibilitySolver};
use mgrts::mgrts_core::heuristics::TaskOrder;
use mgrts::mgrts_core::verify::check_identical;
use mgrts::rt_sat::AmoEncoding;
use mgrts::rt_sim::render_schedule;
use mgrts::rt_task::TaskSet;

fn main() {
    let ts = TaskSet::running_example();
    let m = 2;

    for amo in [AmoEncoding::Pairwise, AmoEncoding::Ladder] {
        let (cnf, layout) = encode_cnf(&ts, m, amo).expect("constrained task set");
        println!(
            "{amo:?} AMO: {} grid cells → {} variables, {} clauses",
            layout.cells(),
            cnf.num_vars(),
            cnf.num_clauses()
        );
    }

    let res = Csp1SatEngine::default()
        .solve(&ts, m, &Budget::unlimited(), &CancelToken::new())
        .expect("constrained task set");
    let schedule = res.verdict.schedule().expect("Example 1 is feasible");
    check_identical(&ts, m, schedule).expect("C1-C4 hold");
    let search = res.search.clone().unwrap_or_default();
    println!(
        "\nCDCL verdict: FEASIBLE in {} decisions / {} conflicts\n",
        search.decisions, search.conflicts
    );
    println!("{}", render_schedule(schedule));

    // Cross-check with the specialized search.
    let csp2 = Csp2Solver::new(&ts, m)
        .unwrap()
        .with_order(TaskOrder::DeadlineMinusWcet)
        .solve();
    assert_eq!(
        csp2.verdict.is_feasible(),
        res.verdict.is_feasible(),
        "exact solvers must agree"
    );
    println!("CSP2+(D-C) agrees: both found the instance feasible.");
}
