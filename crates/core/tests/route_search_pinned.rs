//! Every solve route outside the specialized identical-platform CSP2
//! search and the generic engine's identical-platform routes (pinned in
//! `csp2_search_pinned.rs` and `engine_equivalence.rs`), pinned run for
//! run: the SAT route, the three local searches (seed 1), and the
//! heterogeneous `csp1`, `csp2-dc` and `sat` routes on random rate
//! matrices.
//!
//! Budgets are decisions or conflicts, never wall clock, so every line is
//! reproducible on any machine and in any build profile. A change to how a
//! backend reads its budget or reaches its search must leave this table
//! untouched.
//!
//! Each line is `<route> <stream> <index> <verdict> <counters> <schedule>`.
//! `<counters>` lists every `SearchStats` counter (`solves`, `decisions`,
//! `backtracks`, `propagations`, `conflicts`, `restarts`,
//! `learnt_clauses`, `backjump_sum`, `db_reductions`, `gac_rebuilds`,
//! `peak_trail`, `peak_depth`, then each propagator kind as
//! `kind:wakes/prunes/entailments`); `<schedule>` is the FNV-1a digest of
//! the full `m × H` grid of a feasible verdict (`-` otherwise).

use mgrts_core::engine::{Budget, CancelToken, PlatformSpec, SolverSpec};
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::schedule::Schedule;
use mgrts_core::solve::Verdict;
use mgrts_core::verify::{check_heterogeneous, check_identical};
use mgrts_obs::SearchStats;
use rt_gen::{GeneratorConfig, MSpec, ParamOrder, Problem, ProblemGenerator, RateMatrixGen};

const SEED: u64 = 2009;

/// FNV-1a over every slot of the grid, time-major, idle as `u64::MAX`.
fn digest(s: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in 0..s.horizon() {
        for j in 0..s.num_processors() {
            let v = s.at(j, t).map_or(u64::MAX, |i| i as u64);
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn counters(s: &SearchStats) -> String {
    let mut out = [
        s.solves,
        s.decisions,
        s.backtracks,
        s.propagations,
        s.conflicts,
        s.restarts,
        s.learnt_clauses,
        s.backjump_sum,
        s.db_reductions,
        s.gac_rebuilds,
        s.peak_trail,
        s.peak_depth,
    ]
    .map(|c| c.to_string())
    .join(",");
    for k in &s.kinds {
        out.push_str(&format!(
            ",{}:{}/{}/{}",
            k.kind, k.wakes, k.prunes, k.entailments
        ));
    }
    out
}

/// The small cell of the benchmark (`n = 8`, `m = 4`, `Tmax = 6`).
fn small_cell() -> ProblemGenerator {
    ProblemGenerator::new(
        GeneratorConfig {
            n: 8,
            m: MSpec::Fixed(4),
            t_max: 6,
            ..GeneratorConfig::table1()
        },
        SEED,
    )
}

/// A cell small enough for the heterogeneous encodings to finish.
fn hetero_cell() -> ProblemGenerator {
    ProblemGenerator::new(
        GeneratorConfig {
            n: 4,
            m: MSpec::Fixed(2),
            t_max: 4,
            order: ParamOrder::DeadlineFirst,
            synchronous: false,
        },
        SEED,
    )
}

/// Solve `p` with `spec` under `budget`, on its identical platform or on a
/// random rate matrix drawn from the instance's seed, and render the line.
fn pin(
    spec: SolverSpec,
    stream: &str,
    k: u64,
    p: &Problem,
    hetero: bool,
    budget: &Budget,
) -> String {
    let rates = RateMatrixGen {
        max_rate: 2,
        forbid_prob: 0.2,
    };
    let platform = if hetero {
        PlatformSpec::Heterogeneous(rates.generate(p.taskset.len(), p.m, p.seed))
    } else {
        PlatformSpec::identical(p.m)
    };
    let res = spec
        .build()
        .solve_on(&p.taskset, &platform, budget, &CancelToken::new())
        .expect("valid instance");
    let (kind, sched) = match &res.verdict {
        Verdict::Feasible(s) => {
            match &platform {
                PlatformSpec::Identical { m } => check_identical(&p.taskset, *m, s).unwrap(),
                PlatformSpec::Heterogeneous(pl) => check_heterogeneous(&p.taskset, pl, s).unwrap(),
            }
            ("feasible".to_string(), format!("{:016x}", digest(s)))
        }
        Verdict::Infeasible => ("infeasible".to_string(), "-".to_string()),
        Verdict::Unknown(reason) => (format!("unknown:{reason:?}"), "-".to_string()),
    };
    let search = res.search.expect("every route reports its search");
    let route = if hetero {
        format!("hetero-{spec}")
    } else {
        spec.to_string()
    };
    format!("{route} {stream} {k} {kind} {} {sched}", counters(&search))
}

fn table() -> Vec<String> {
    let conflicts = Budget {
        max_conflicts: Some(2_000),
        ..Budget::unlimited()
    };
    let decisions = Budget {
        max_decisions: Some(2_000),
        ..Budget::unlimited()
    };
    // Past local search's 5 000-move restart period.
    let moves = Budget {
        max_decisions: Some(6_000),
        ..Budget::unlimited()
    };
    let paper = ProblemGenerator::new(GeneratorConfig::table1(), SEED);
    let small = small_cell();
    let tiny = hetero_cell();
    let mut lines = Vec::new();
    for k in 0..4 {
        lines.push(pin(
            SolverSpec::Csp1Sat,
            "paper",
            k,
            &paper.nth(k),
            false,
            &conflicts,
        ));
    }
    for k in 0..8 {
        let p = small.nth(k);
        lines.push(pin(SolverSpec::Csp1Sat, "small", k, &p, false, &conflicts));
        for spec in [
            SolverSpec::Local,
            SolverSpec::LocalTabu,
            SolverSpec::LocalSa,
        ] {
            lines.push(pin(spec, "small", k, &p, false, &moves));
        }
    }
    for k in 0..12 {
        let p = tiny.nth(k);
        lines.push(pin(SolverSpec::Csp1, "tiny", k, &p, true, &decisions));
        lines.push(pin(
            SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet),
            "tiny",
            k,
            &p,
            true,
            &decisions,
        ));
        lines.push(pin(SolverSpec::Csp1Sat, "tiny", k, &p, true, &conflicts));
    }
    lines
}

#[test]
fn every_route_search_path_is_pinned() {
    let actual = table();
    let expected: Vec<&str> = EXPECTED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mismatches: Vec<String> = actual
        .iter()
        .zip(
            expected
                .iter()
                .copied()
                .chain(std::iter::repeat("<missing>")),
        )
        .filter(|(a, e)| a.as_str() != *e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    if !mismatches.is_empty() || actual.len() != expected.len() {
        println!("{}", actual.join("\n"));
    }
    assert_eq!(actual.len(), expected.len(), "table length");
    assert!(
        mismatches.is_empty(),
        "{} of {} solves left the pinned path:\n{}",
        mismatches.len(),
        actual.len(),
        mismatches.join("\n")
    );
}

const EXPECTED: &str = "
sat paper 0 unknown:DecisionLimit 1,32371,2000,174099,2000,13,1943,0,0,0,0,0 -
sat paper 1 unknown:DecisionLimit 1,193281,2000,1004325,2000,13,1821,0,0,0,0,0 -
sat paper 2 unknown:DecisionLimit 1,186275,2000,1553148,2000,13,1774,0,0,0,0,0 -
sat paper 3 feasible 1,26988,583,110429,583,5,582,0,0,0,0,0 ac43f9dda687dedd
sat small 0 unknown:DecisionLimit 1,23084,2000,143082,2000,13,1933,0,0,0,0,0 -
local small 0 unknown:DecisionLimit 1,6000,1,0,0,0,0,0,0,0,0,0 -
local-tabu small 0 unknown:DecisionLimit 1,6000,1,0,0,0,0,0,0,0,0,0 -
local-sa small 0 unknown:DecisionLimit 1,6000,0,0,0,0,0,0,0,0,0,0 -
sat small 1 feasible 1,4568,187,22241,187,2,167,0,0,0,0,0 ca21b68866cf6a2c
local small 1 feasible 1,80,0,0,0,0,0,0,0,0,0,0 8bff1fb1f1a0f08c
local-tabu small 1 feasible 1,80,0,0,0,0,0,0,0,0,0,0 8bff1fb1f1a0f08c
local-sa small 1 feasible 1,186,0,0,0,0,0,0,0,0,0,0 6c5b71e3ac97e46c
sat small 2 feasible 1,8328,832,45431,832,7,799,0,0,0,0,0 dce81cf967b35397
local small 2 feasible 1,41,0,0,0,0,0,0,0,0,0,0 5df559b0465fd7b7
local-tabu small 2 feasible 1,41,0,0,0,0,0,0,0,0,0,0 5df559b0465fd7b7
local-sa small 2 feasible 1,302,0,0,0,0,0,0,0,0,0,0 a81ba7c5c0e88097
sat small 3 feasible 1,6362,138,29920,138,2,103,0,0,0,0,0 cbf97701eadf21dd
local small 3 feasible 1,57,0,0,0,0,0,0,0,0,0,0 c84a48a8822cc89d
local-tabu small 3 feasible 1,57,0,0,0,0,0,0,0,0,0,0 c84a48a8822cc89d
local-sa small 3 feasible 1,168,0,0,0,0,0,0,0,0,0,0 97b3e1b799414bfd
sat small 4 infeasible 1,2665,279,14251,279,3,262,0,0,0,0,0 -
local small 4 unknown:DecisionLimit 1,6000,1,0,0,0,0,0,0,0,0,0 -
local-tabu small 4 unknown:DecisionLimit 1,6000,1,0,0,0,0,0,0,0,0,0 -
local-sa small 4 unknown:DecisionLimit 1,6000,1,0,0,0,0,0,0,0,0,0 -
sat small 5 infeasible 1,6049,428,31117,428,4,397,0,0,0,0,0 -
local small 5 unknown:DecisionLimit 1,6000,0,0,0,0,0,0,0,0,0,0 -
local-tabu small 5 unknown:DecisionLimit 1,6000,0,0,0,0,0,0,0,0,0,0 -
local-sa small 5 unknown:DecisionLimit 1,6000,0,0,0,0,0,0,0,0,0,0 -
sat small 6 feasible 1,6822,107,30661,107,2,50,0,0,0,0,0 0a8ab57ba252e455
local small 6 feasible 1,57,0,0,0,0,0,0,0,0,0,0 aec916a5569d4db5
local-tabu small 6 feasible 1,57,0,0,0,0,0,0,0,0,0,0 aec916a5569d4db5
local-sa small 6 feasible 1,141,0,0,0,0,0,0,0,0,0,0 9c0aa4396dce32f5
sat small 7 feasible 1,317,28,1686,28,1,28,0,0,0,0,0 523ab6be3fe79bdf
local small 7 feasible 1,42,0,0,0,0,0,0,0,0,0,0 67997a3926a46b3f
local-tabu small 7 feasible 1,33,0,0,0,0,0,0,0,0,0,0 f55b87cdd95a5fdf
local-sa small 7 feasible 1,55,0,0,0,0,0,0,0,0,0,0 f39d0cfc982f4b3f
hetero-csp1 tiny 0 infeasible 1,33,34,768,0,0,0,0,0,0,209,10,linear_eq:253/172/0,at_most_one:515/148/210 -
hetero-csp2-dc tiny 0 unknown:DecisionLimit 1,2001,5715,0,0,0,0,0,0,0,0,0 -
hetero-sat tiny 0 infeasible 1,96,45,1037,45,1,35,0,0,0,0,0 -
hetero-csp1 tiny 1 infeasible 1,0,0,64,0,0,0,0,0,0,0,0,linear_eq:1/6/0,at_most_one:63/0/0 -
hetero-csp2-dc tiny 1 infeasible 1,185,546,0,0,0,0,0,0,0,0,0 -
hetero-sat tiny 1 infeasible 1,0,0,33,0,0,0,0,0,0,0,0 -
hetero-csp1 tiny 2 infeasible 1,5,6,254,0,0,0,0,0,0,31,3,linear_eq:87/37/0,at_most_one:167/50/45 -
hetero-csp2-dc tiny 2 infeasible 1,173,677,0,0,0,0,0,0,0,0,0 -
hetero-sat tiny 2 infeasible 1,65,32,828,32,1,23,0,0,0,0,0 -
hetero-csp1 tiny 3 infeasible 1,0,0,65,0,0,0,0,0,0,0,0,linear_eq:7/14/0,at_most_one:58/0/0 -
hetero-csp2-dc tiny 3 infeasible 1,4,11,0,0,0,0,0,0,0,0,0 -
hetero-sat tiny 3 infeasible 1,0,0,61,0,0,0,0,0,0,0,0 -
hetero-csp1 tiny 4 infeasible 1,0,0,108,0,0,0,0,0,0,0,0,linear_eq:26/21/0,at_most_one:82/7/18 -
hetero-csp2-dc tiny 4 infeasible 1,1,4,0,0,0,0,0,0,0,0,0 -
hetero-sat tiny 4 infeasible 1,0,0,75,0,0,0,0,0,0,0,0 -
hetero-csp1 tiny 5 feasible 1,26,1,265,0,0,0,0,0,0,357,25,linear_eq:70/30/0,at_most_one:195/24/32 a3aae3cc9160435d
hetero-csp2-dc tiny 5 feasible 1,16,0,0,0,0,0,0,0,0,0,0 88b356a4a55a7086
hetero-sat tiny 5 feasible 1,212,80,1162,80,1,79,0,0,0,0,0 4bf3d9f8736c021d
hetero-csp1 tiny 6 feasible 1,23,0,272,0,0,0,0,0,0,384,23,linear_eq:82/24/0,at_most_one:190/29/42 5f99b000b08a924f
hetero-csp2-dc tiny 6 feasible 1,23,11,0,0,0,0,0,0,0,0,0 46dd5b310f1b208c
hetero-sat tiny 6 feasible 1,267,79,1640,79,1,76,0,0,0,0,0 b9c73067aec6589c
hetero-csp1 tiny 7 feasible 1,14,0,222,0,0,0,0,0,0,233,14,linear_eq:65/27/0,at_most_one:157/25/36 5b983bb5fb708555
hetero-csp2-dc tiny 7 feasible 1,26,25,0,0,0,0,0,0,0,0,0 aecd64e1a1ee154d
hetero-sat tiny 7 feasible 1,147,60,1013,60,1,57,0,0,0,0,0 d7bfd5502733159f
hetero-csp1 tiny 8 infeasible 1,0,0,18,0,0,0,0,0,0,0,0,linear_eq:1/2/0,at_most_one:17/0/0 -
hetero-csp2-dc tiny 8 infeasible 1,3,10,0,0,0,0,0,0,0,0,0 -
hetero-sat tiny 8 infeasible 1,0,0,25,0,0,0,0,0,0,0,0 -
hetero-csp1 tiny 9 infeasible 1,0,0,162,0,0,0,0,0,0,0,0,linear_eq:41/36/0,at_most_one:121/24/24 -
hetero-csp2-dc tiny 9 infeasible 1,116,344,0,0,0,0,0,0,0,0,0 -
hetero-sat tiny 9 infeasible 1,83,40,777,40,1,33,0,0,0,0,0 -
hetero-csp1 tiny 10 infeasible 1,0,0,37,0,0,0,0,0,0,0,0,linear_eq:5/1/0,at_most_one:32/0/0 -
hetero-csp2-dc tiny 10 infeasible 1,4,9,0,0,0,0,0,0,0,0,0 -
hetero-sat tiny 10 infeasible 1,0,0,40,0,0,0,0,0,0,0,0 -
hetero-csp1 tiny 11 feasible 1,7,4,261,0,0,0,0,0,0,111,4,linear_eq:70/37/0,at_most_one:191/46/64 079593ba9c6cf1c6
hetero-csp2-dc tiny 11 feasible 1,24,1,0,0,0,0,0,0,0,0,0 04a93795a702e9c6
hetero-sat tiny 11 feasible 1,44,15,584,15,1,12,0,0,0,0,0 a3c3103189d6f9c6
";
