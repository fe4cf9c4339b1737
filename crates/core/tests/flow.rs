//! The `flow` backend on the paper's Table I stream: a golden verdict
//! split on the first 24 instances of seed 2009 (a tier-1 test) and an
//! `#[ignore]`d release sweep over 200 instances of seed 2009 and 1000 of
//! seed 4242. Every schedule goes through `verify::check_identical` here,
//! and the engine answers `Infeasible` only after its cut has passed
//! `verify::check_cut` (it panics otherwise), so each verdict is checked by
//! code that shares nothing with the flow network.
//!
//! ```text
//! cargo test --release -p mgrts-core --test flow -- --ignored
//! ```

use mgrts_core::engine::{Budget, CancelToken, SolverSpec};
use mgrts_core::solve::Verdict;
use mgrts_core::verify::check_identical;
use rt_gen::{GeneratorConfig, ProblemGenerator};

/// Verdict counts over a prefix of a Table I stream.
#[derive(Debug, Default, PartialEq, Eq)]
struct Split {
    feasible: usize,
    infeasible: usize,
    /// Infeasible instances with `U ≤ m`, which the utilization test alone
    /// cannot reject.
    infeasible_within_u: usize,
}

fn sweep(seed: u64, instances: u64) -> Split {
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), seed);
    let engine = SolverSpec::Flow.build();
    let mut split = Split::default();
    for i in 0..instances {
        let p = gen.nth(i);
        let (ts, m) = (&p.taskset, p.m);
        let res = engine
            .solve(ts, m, &Budget::unlimited(), &CancelToken::new())
            .unwrap();
        match &res.verdict {
            Verdict::Feasible(schedule) => {
                check_identical(ts, m, schedule)
                    .unwrap_or_else(|e| panic!("seed {seed} instance {i}: {e}"));
                split.feasible += 1;
            }
            Verdict::Infeasible => {
                split.infeasible += 1;
                if !ts.utilization_exceeds(m) {
                    split.infeasible_within_u += 1;
                }
            }
            Verdict::Unknown(reason) => panic!("seed {seed} instance {i}: stopped, {reason:?}"),
        }
    }
    split
}

#[test]
fn flow_splits_the_first_24_table1_instances() {
    let split = sweep(2009, 24);
    assert_eq!((split.feasible, split.infeasible), (8, 16), "{split:?}");
}

#[test]
#[ignore = "release sweep over 1 200 Table I instances"]
fn flow_decides_the_table1_streams_with_checked_certificates() {
    assert_eq!(
        sweep(2009, 200),
        Split {
            feasible: 105,
            infeasible: 95,
            infeasible_within_u: 12
        }
    );
    assert_eq!(
        sweep(4242, 1000),
        Split {
            feasible: 589,
            infeasible: 411,
            infeasible_within_u: 41
        }
    );
}
