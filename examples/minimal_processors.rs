//! Minimal-processor search on random workloads (Section VII-E).
//!
//! Generates random task sets with the paper's sampler and reports, for
//! each, the utilization lower bound `mmin = ⌈U⌉` and the true minimum
//! processor count found by the upward scan on the exact flow backend —
//! quantifying how often the utilization bound is tight. A second pass
//! runs the same scan on the paper's CSP2 solver (500 ms per probe) and
//! checks that it agrees with flow wherever it concludes.
//!
//! Run with: `cargo run --release --example minimal_processors`

use std::time::Duration;

use mgrts::mgrts_core::engine::{Csp2Engine, FlowEngine};
use mgrts::mgrts_core::heuristics::TaskOrder;
use mgrts::mgrts_core::minimal_m::minimal_processors_with;
use mgrts::rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator};

fn main() {
    let cfg = GeneratorConfig {
        n: 6,
        m: MSpec::MinUtilization,
        t_max: 6,
        order: ParamOrder::DeadlineFirst,
        synchronous: false,
    };
    let gen = ProblemGenerator::new(cfg, 2009);
    let count = 40;

    let csp2 = Csp2Engine {
        order: TaskOrder::DeadlineMinusWcet,
    };

    println!("instance |  U    | mmin | minimal m | probes");
    println!("---------+-------+------+-----------+-------");
    let mut tight = 0;
    let mut agreements = 0;
    let mut compared = 0;
    for idx in 0..count {
        let p = gen.nth(idx);
        let mmin = p.taskset.min_processors();
        let result = minimal_processors_with(&p.taskset, &FlowEngine, None).unwrap();
        let m = result.minimal_m.expect("flow decides every probe");
        if m == mmin {
            tight += 1;
        }
        println!(
            "{idx:8} | {:5.2} | {mmin:4} | {m:9} | {:?}",
            p.taskset.utilization(),
            result
                .probes
                .iter()
                .map(|(pm, r)| format!(
                    "m={pm}:{}",
                    if r.verdict.is_feasible() { "F" } else { "I" }
                ))
                .collect::<Vec<_>>()
        );

        // Cross-check the paper's CSP2 scan on the same instance.
        let by_csp2 =
            minimal_processors_with(&p.taskset, &csp2, Some(Duration::from_millis(500))).unwrap();
        if let Some(csp2_m) = by_csp2.minimal_m {
            compared += 1;
            if csp2_m == m {
                agreements += 1;
            }
        }
    }
    println!("\nutilization bound ⌈U⌉ was exact on {tight}/{count} instances");
    println!("CSP2 scan agreed with flow on {agreements}/{compared} concluded instances");
    assert_eq!(agreements, compared, "the scans must agree");
}
