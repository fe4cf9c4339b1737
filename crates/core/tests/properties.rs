//! Property tests over the core solvers and the verifier.

use proptest::prelude::*;

use mgrts_core::csp2::Csp2Solver;
use mgrts_core::engine::{Budget, CancelToken, Csp1Engine, FeasibilitySolver};
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::verify::check_identical;
use rt_task::{checked_hyperperiod, Task, TaskSet};

fn arb_instance() -> impl Strategy<Value = (TaskSet, usize)> {
    let task = (1u64..=4)
        .prop_flat_map(|t| (Just(t), 1u64..=t))
        .prop_flat_map(|(t, d)| (Just(t), Just(d), 1u64..=d, 0u64..t))
        .prop_map(|(t, d, c, o)| Task::new(o, c, d, t).unwrap());
    (
        proptest::collection::vec(task, 1..=4).prop_filter("hyperperiod small", |tasks| {
            checked_hyperperiod(&tasks.iter().map(|t| t.period).collect::<Vec<_>>())
                .is_some_and(|h| h <= 12)
        }),
        1usize..=3,
    )
        .prop_map(|(tasks, m)| (TaskSet::new(tasks).unwrap(), m))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn encodings_agree_and_schedules_verify((ts, m) in arb_instance()) {
        let csp2 = Csp2Solver::new(&ts, m)
            .unwrap()
            .with_order(TaskOrder::DeadlineMinusWcet)
            .solve();
        let csp1 = Csp1Engine::default()
            .solve(&ts, m, &Budget::unlimited(), &CancelToken::new())
            .unwrap();
        prop_assert_eq!(
            csp1.verdict.is_feasible(),
            csp2.verdict.is_feasible(),
            "CSP1 and CSP2 disagree"
        );
        for res in [&csp1, &csp2] {
            if let Some(s) = res.verdict.schedule() {
                prop_assert!(check_identical(&ts, m, s).is_ok());
            }
        }
    }

    #[test]
    fn every_single_slot_mutation_is_caught((ts, m) in arb_instance()) {
        // A feasible schedule satisfies "exactly Ci per window"; flipping
        // any one slot necessarily under- or over-serves some job (or
        // breaks C1/C3), so the independent verifier must reject every
        // single-slot mutation. This is mutation testing of the verifier
        // itself.
        let res = Csp2Solver::new(&ts, m).unwrap().solve();
        let Some(schedule) = res.verdict.schedule() else {
            return Ok(()); // infeasible instance: nothing to mutate
        };
        let h = schedule.horizon();
        let n = ts.len();
        for t in 0..h {
            for j in 0..m {
                let original = schedule.at(j, t);
                // Try every alternative content for this slot.
                for alt in (0..n).map(Some).chain([None]) {
                    if alt == original {
                        continue;
                    }
                    let mut mutated = schedule.clone();
                    mutated.set(j, t, alt);
                    prop_assert!(
                        check_identical(&ts, m, &mutated).is_err(),
                        "mutation at (proc {j}, t {t}) -> {alt:?} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn heuristics_never_change_the_verdict((ts, m) in arb_instance()) {
        let reference = Csp2Solver::new(&ts, m).unwrap().solve().verdict.is_feasible();
        for order in TaskOrder::ALL {
            let res = Csp2Solver::new(&ts, m).unwrap().with_order(order).solve();
            prop_assert_eq!(res.verdict.is_feasible(), reference, "{:?}", order);
        }
    }

    #[test]
    fn schedules_serde_round_trip((ts, m) in arb_instance()) {
        let res = Csp2Solver::new(&ts, m).unwrap().solve();
        if let Some(s) = res.verdict.schedule() {
            let json = serde_json::to_string(s).unwrap();
            let back: mgrts_core::Schedule = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(s, &back);
            prop_assert!(check_identical(&ts, m, &back).is_ok());
        }
    }

    #[test]
    fn feasibility_is_monotone_in_m((ts, m) in arb_instance()) {
        // Extra processors never hurt: if feasible on m, feasible on m+1.
        let small = Csp2Solver::new(&ts, m).unwrap().solve();
        if small.verdict.is_feasible() {
            let big = Csp2Solver::new(&ts, m + 1).unwrap().solve();
            prop_assert!(big.verdict.is_feasible());
        }
    }
}
