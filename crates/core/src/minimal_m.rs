//! Incremental search for the smallest feasible processor count
//! (Section VII-E: "It would be interesting to use an algorithm which
//! incrementally searches for the smallest number of processors m required
//! to schedule a given set of tasks.").
//!
//! Feasibility is monotone in `m` on identical platforms (extra processors
//! can simply idle), so scanning upward from the utilization lower bound
//! `mmin = ⌈Σ Ci/Ti⌉` and stopping at the first feasible count is exact.
//! `m = n` is always sufficient for a constrained-deadline system (each
//! task runs alone on its own processor, and `Ci ≤ Di` lets every job
//! complete inside its window), which bounds the scan.
//!
//! The scan takes any engine. On [`crate::flow::FlowEngine`] it is exact
//! and certified: every probe is one polynomial max-flow, and each
//! `Infeasible` below the answer has passed [`crate::verify::check_cut`].
//! On the paper's CSP2 solver it is the scan Section VII-E describes.

use std::time::Duration;

use rt_task::{TaskError, TaskSet};

use crate::engine::{Budget, CancelToken, FeasibilitySolver};
use crate::solve::{SolveResult, Verdict};

/// Result of the incremental minimum-`m` search.
#[derive(Debug, Clone)]
pub struct MinimalMResult {
    /// The smallest `m` found feasible, if the scan concluded.
    pub minimal_m: Option<usize>,
    /// Every `m` probed, with its verdict.
    pub probes: Vec<(usize, SolveResult)>,
}

/// Scan `m = mmin, mmin+1, …, n` with `solver` until feasible.
///
/// `per_probe_time` bounds each individual solve; a probe that stops
/// without a verdict aborts the scan with `minimal_m = None` (monotonicity
/// cannot be invoked on an unknown verdict). Incomplete engines
/// ([`FeasibilitySolver::is_exact`] `== false`) therefore abort at the
/// first infeasible-looking probe, which the caller opted into.
pub fn minimal_processors_with(
    ts: &TaskSet,
    solver: &dyn FeasibilitySolver,
    per_probe_time: Option<Duration>,
) -> Result<MinimalMResult, TaskError> {
    let mut probes = Vec::new();
    let lo = ts.min_processors();
    let hi = ts.len().max(lo);
    let budget = Budget {
        time: per_probe_time,
        ..Budget::unlimited()
    };
    let cancel = CancelToken::new();
    for m in lo..=hi {
        let res = solver.solve(ts, m, &budget, &cancel)?;
        let verdict = res.verdict.clone();
        probes.push((m, res));
        match verdict {
            Verdict::Feasible(_) => {
                return Ok(MinimalMResult {
                    minimal_m: Some(m),
                    probes,
                })
            }
            Verdict::Infeasible => continue,
            Verdict::Unknown(_) => {
                return Ok(MinimalMResult {
                    minimal_m: None,
                    probes,
                })
            }
        }
    }
    // Unreachable for valid constrained sets (m = n is always feasible),
    // but stay total.
    Ok(MinimalMResult {
        minimal_m: None,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csp1_sat::Csp1SatEngine;
    use crate::engine::{Csp2Engine, FlowEngine};
    use crate::heuristics::TaskOrder;
    use crate::verify::check_identical;

    const CSP2: Csp2Engine = Csp2Engine {
        order: TaskOrder::DeadlineMinusWcet,
    };

    /// The exact flow backend and the paper's CSP2 solver: every scan test
    /// runs on both.
    const ENGINES: [&dyn FeasibilitySolver; 2] = [&FlowEngine, &CSP2];

    /// The CDCL route over the CSP1 encoding, for the `sat_scan_*` tests.
    const SAT: Csp1SatEngine = Csp1SatEngine {
        amo: rt_sat::AmoEncoding::Pairwise,
    };

    /// Scan `ts` with `solver` and check what any concluded scan must
    /// hold: the probes climb one by one from `⌈U⌉`, the last one is
    /// feasible at `minimal_m` with a schedule that passes C1–C4, and every
    /// probe below it (in particular `minimal_m − 1`, when probed) is
    /// `Infeasible`.
    fn scan(ts: &TaskSet, solver: &dyn FeasibilitySolver) -> MinimalMResult {
        let res = minimal_processors_with(ts, solver, None).unwrap();
        let name = solver.name();
        let ms: Vec<usize> = res.probes.iter().map(|(m, _)| *m).collect();
        let lo = ts.min_processors();
        assert_eq!(ms, (lo..lo + ms.len()).collect::<Vec<_>>(), "{name}");
        if let Some(m) = res.minimal_m {
            let (last, feasible) = res.probes.last().unwrap();
            assert_eq!(*last, m, "{name}");
            check_identical(ts, m, feasible.verdict.schedule().unwrap()).unwrap();
            for (pm, r) in &res.probes[..res.probes.len() - 1] {
                assert!(r.verdict.is_infeasible(), "{name}: m = {pm}");
            }
        }
        res
    }

    #[test]
    fn running_example_needs_two() {
        let ts = TaskSet::running_example(); // U = 23/12 → mmin = 2
        for solver in ENGINES {
            let res = scan(&ts, solver);
            assert_eq!(res.minimal_m, Some(2));
            // First probe is already at the utilization bound.
            assert_eq!(res.probes.len(), 1);
        }
    }

    #[test]
    fn utilization_bound_can_be_strict() {
        // Three simultaneous (C=1, D=1, T=2) jobs: U = 3/2 → mmin = 2, but
        // the release instant forces m = 3.
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        for solver in ENGINES {
            let res = scan(&ts, solver);
            assert_eq!(res.minimal_m, Some(3));
            assert_eq!(res.probes.len(), 2); // m = 2 infeasible, m = 3 feasible
        }
    }

    #[test]
    fn scan_walks_past_infeasible_counts() {
        // Two jobs that need instant 0: U = 1 → mmin = 1, but m = 2.
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2)]);
        for solver in ENGINES {
            let res = scan(&ts, solver);
            assert_eq!(res.minimal_m, Some(2));
            assert_eq!(res.probes.len(), 2);
        }
    }

    #[test]
    fn single_task_needs_one() {
        let ts = TaskSet::from_ocdt(&[(0, 2, 3, 4)]);
        for solver in ENGINES {
            assert_eq!(scan(&ts, solver).minimal_m, Some(1));
        }
    }

    #[test]
    fn n_processors_always_suffice() {
        // Dense tasks: every task needs its own processor.
        let ts = TaskSet::from_ocdt(&[(0, 2, 2, 2), (0, 3, 3, 3), (0, 5, 5, 5)]);
        for solver in ENGINES {
            assert_eq!(scan(&ts, solver).minimal_m, Some(3));
        }
    }

    #[test]
    fn timeout_aborts_with_none() {
        // CSP2 only: flow polls its clock every 1024 steps, so on an
        // instance this small a zero budget never stops it.
        let ts = TaskSet::running_example();
        let res = minimal_processors_with(&ts, &CSP2, Some(Duration::ZERO)).unwrap();
        assert_eq!(res.minimal_m, None);
        assert!(res.probes[0].1.verdict.is_unknown());
    }

    #[test]
    fn agrees_with_csp2_scan_on_random_instances() {
        use rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator};
        let gen = ProblemGenerator::new(
            GeneratorConfig {
                n: 4,
                m: MSpec::Fixed(2),
                t_max: 4,
                order: ParamOrder::DeadlineFirst,
                synchronous: false,
            },
            0x315A7,
        );
        for p in gen.batch(40) {
            let flow = scan(&p.taskset, &FlowEngine);
            let csp2 = scan(&p.taskset, &CSP2);
            assert!(flow.minimal_m.is_some(), "flow concludes, seed {}", p.seed);
            assert_eq!(
                flow.minimal_m, csp2.minimal_m,
                "flow vs CSP2 minimal-m disagree on seed {}",
                p.seed
            );
        }
    }

    #[test]
    fn sat_scan_running_example_needs_two() {
        let res = scan(&TaskSet::running_example(), &SAT);
        assert_eq!(res.minimal_m, Some(2));
        assert_eq!(res.probes.len(), 1); // ⌈23/12⌉ = 2 starts the scan
    }

    #[test]
    fn sat_scan_reaches_n_processors() {
        // Three jobs all needing [0, 1): the scan climbs from ⌈3/2⌉ = 2
        // to m = n = 3 and never gives up below the ceiling.
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let res = scan(&ts, &SAT);
        assert_eq!(res.minimal_m, Some(3));
        assert_eq!(res.probes.len(), 2);
    }

    #[test]
    fn sat_scan_zero_budget_stops_cleanly() {
        // A zero per-probe budget: the CDCL probe either decides by
        // propagation alone or stops, and a stopped scan reports no m.
        let ts = TaskSet::running_example();
        let res = minimal_processors_with(&ts, &SAT, Some(Duration::ZERO)).unwrap();
        match res.minimal_m {
            Some(m) => assert_eq!(m, 2),
            None => assert!(res.probes.last().unwrap().1.verdict.is_unknown()),
        }
    }
}
