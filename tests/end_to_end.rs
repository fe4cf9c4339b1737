//! End-to-end pipeline tests through the `mgrts` facade: generate →
//! encode → solve → verify → render, across crates.

use mgrts::mgrts_core::csp2::Csp2Solver;
use mgrts::mgrts_core::engine::{Budget, CancelToken, Csp1Engine, FeasibilitySolver};
use mgrts::mgrts_core::heuristics::TaskOrder;
use mgrts::mgrts_core::verify::check_identical;
use mgrts::rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator};
use mgrts::rt_sim::{render_intervals, render_schedule};
use mgrts::rt_task::TaskSet;

#[test]
fn full_pipeline_on_the_running_example() {
    let ts = TaskSet::running_example();
    let fig = render_intervals(&ts).unwrap();
    assert!(fig.contains("T = 12"));

    let res = Csp2Solver::new(&ts, 2)
        .unwrap()
        .with_order(TaskOrder::DeadlineMinusWcet)
        .solve();
    let s = res.verdict.schedule().expect("feasible");
    check_identical(&ts, 2, s).unwrap();

    let rendered = render_schedule(s);
    assert_eq!(rendered.lines().count(), 3); // P1, P2, axis
    assert!(rendered.starts_with("P1"));
}

/// CSP1's decision budget in the default run. Unbudgeted, one infeasible
/// instance of the stream needs 6.5 million CSP1 decisions: 19 s of a
/// release build, minutes of a debug build.
const CSP1_DECISIONS: u64 = 25_000;

/// Solve 25 generated problems with CSP2 and CSP1 (under `csp1_decisions`,
/// when given): every verdict CSP1 reaches must match CSP2's, and every
/// schedule must pass C1–C4. Returns how many instances CSP1 decided.
fn both_encodings_agree(csp1_decisions: Option<u64>) -> usize {
    let cfg = GeneratorConfig {
        n: 5,
        m: MSpec::Fixed(3),
        t_max: 4,
        order: ParamOrder::DeadlineFirst,
        synchronous: false,
    };
    let csp1_budget = Budget {
        max_decisions: csp1_decisions,
        ..Budget::unlimited()
    };
    let gen = ProblemGenerator::new(cfg, 424242);
    let mut csp1_decided = 0;
    for p in gen.batch(25) {
        let a = Csp2Solver::new(&p.taskset, p.m).unwrap().solve();
        let b = Csp1Engine::default()
            .solve(&p.taskset, p.m, &csp1_budget, &CancelToken::new())
            .unwrap();
        if !b.verdict.is_unknown() {
            csp1_decided += 1;
            assert_eq!(
                a.verdict.is_feasible(),
                b.verdict.is_feasible(),
                "encodings disagree on seed {}",
                p.seed
            );
        }
        for res in [&a, &b] {
            if let Some(s) = res.verdict.schedule() {
                check_identical(&p.taskset, p.m, s).unwrap();
            }
        }
    }
    csp1_decided
}

#[test]
fn generated_problems_flow_through_both_encodings() {
    assert_eq!(both_encodings_agree(Some(CSP1_DECISIONS)), 24);
}

/// The same run with CSP1 unbudgeted, so it must decide every instance:
/// about 20 s in a release build, which is how CI runs it.
#[test]
#[ignore = "minutes of CSP1 search in a debug build; run with --release -- --ignored"]
fn generated_problems_flow_through_both_encodings_unbudgeted() {
    assert_eq!(both_encodings_agree(None), 25);
}

#[test]
fn theorem_1_periodic_extension_serves_every_job_forever() {
    // The schedule object extends periodically (σ(t) = σ(t + kH)); check
    // that *absolute-time* jobs across three hyperperiods each receive
    // exactly Ci units inside their window — the substance of Theorem 1.
    let ts = TaskSet::running_example();
    let res = Csp2Solver::new(&ts, 2).unwrap().solve();
    let s = res.verdict.schedule().unwrap();
    let h = s.horizon();
    for (i, task) in ts.iter() {
        let mut k = 0u64;
        loop {
            let release = task.offset + k * task.period;
            if release >= 3 * h {
                break;
            }
            let got = s.service(i, release, release + task.deadline);
            assert_eq!(
                got, task.wcet,
                "task {i} job released at {release} under-served"
            );
            k += 1;
        }
    }
}

#[test]
fn facade_reexports_cover_the_public_api() {
    // Compile-time façade audit: each sub-crate is reachable.
    let _ = mgrts::rt_task::TaskSet::running_example();
    let _ = mgrts::rt_platform::Platform::identical(2, 2).unwrap();
    let _ = mgrts::csp_engine::Model::new();
    let _ = mgrts::rt_gen::GeneratorConfig::table1();
    let _ = mgrts::rt_sim::dhall_instance(2, 8);
}
