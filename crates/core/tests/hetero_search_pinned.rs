//! The specialized CSP2 search on heterogeneous platforms (Section VI-A)
//! pinned node for node.
//!
//! Two streams of random rate matrices: the `hetero_smoke.toml` cell
//! (`n = 10`, `m = 5`, `Tmax = 7`, seed 2009, eight instances) and 100
//! instances of a smaller cell (`n = 6`, `m = 3`, `Tmax = 5`). Each
//! instance's platform is `RateMatrixGen::default()` drawn from the
//! instance's `platform` stream seed, as the campaign draws it. Every
//! instance runs under every [`TaskOrder`] with a fixed decision budget;
//! the verdict kind, the decision and backtrack counts and the schedule of
//! every feasible verdict must equal the recorded table.
//!
//! Each line is `<stream> <index> <order> <verdict> <decisions>
//! <backtracks> <schedule>`, where `<schedule>` is the FNV-1a digest of
//! the full `m × H` grid of a feasible verdict (`-` otherwise).

use mgrts_core::engine::{Budget, CancelToken, Csp2Engine, FeasibilitySolver, PlatformSpec};
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::schedule::Schedule;
use mgrts_core::solve::Verdict;
use mgrts_core::verify::check_heterogeneous;
use rt_gen::{derive_stream_seed, GeneratorConfig, MSpec, ProblemGenerator, RateMatrixGen};

const SEED: u64 = 2009;
const DECISIONS: u64 = 5_000;

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

fn order_name(order: TaskOrder) -> &'static str {
    match order {
        TaskOrder::Lexicographic => "lex",
        TaskOrder::RateMonotonic => "rm",
        TaskOrder::DeadlineMonotonic => "dm",
        TaskOrder::PeriodMinusWcet => "tc",
        TaskOrder::DeadlineMinusWcet => "dc",
    }
}

fn table_of(stream: &str, gen: &ProblemGenerator, instances: u64) -> Vec<String> {
    let budget = Budget {
        max_decisions: Some(DECISIONS),
        ..Budget::unlimited()
    };
    let mut lines = Vec::new();
    for k in 0..instances {
        let p = gen.nth(k);
        let platform = RateMatrixGen::default().generate(
            p.taskset.len(),
            p.m,
            derive_stream_seed(p.seed, "platform"),
        );
        let spec = PlatformSpec::Heterogeneous(platform.clone());
        for order in TaskOrder::ALL {
            let res = Csp2Engine { order }
                .solve_on(&p.taskset, &spec, &budget, &CancelToken::new())
                .unwrap();
            let search = res.search.expect("csp2 reports its search");
            let (kind, sched) = match &res.verdict {
                Verdict::Feasible(s) => {
                    check_heterogeneous(&p.taskset, &platform, s).unwrap();
                    ("feasible".to_string(), format!("{:016x}", digest(s)))
                }
                Verdict::Infeasible => ("infeasible".to_string(), "-".to_string()),
                Verdict::Unknown(reason) => (format!("unknown:{reason:?}"), "-".to_string()),
            };
            lines.push(format!(
                "{stream} {k} {} {kind} {} {} {sched}",
                order_name(order),
                search.decisions,
                search.backtracks
            ));
        }
    }
    lines
}

#[test]
fn hetero_search_tree_is_pinned() {
    let smoke = ProblemGenerator::new(GeneratorConfig::table1(), SEED);
    let small = ProblemGenerator::new(
        GeneratorConfig {
            n: 6,
            m: MSpec::Fixed(3),
            t_max: 5,
            ..GeneratorConfig::table1()
        },
        SEED,
    );
    let mut actual = table_of("smoke", &smoke, 8);
    actual.extend(table_of("small", &small, 100));
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
        "{} of {} searches left the pinned tree:\n{}",
        mismatches.len(),
        actual.len(),
        mismatches[..mismatches.len().min(10)].join("\n")
    );
}

const EXPECTED: &str = "
smoke 0 lex feasible 657 964 43ba891e4238cffb
smoke 0 rm feasible 597 815 20f70acef7d9464b
smoke 0 dm feasible 657 964 43ba891e4238cffb
smoke 0 tc feasible 687 1109 061ffa158f4ce93d
smoke 0 dc feasible 597 815 20f70acef7d9464b
smoke 1 lex unknown:DecisionLimit 5001 14426 -
smoke 1 rm unknown:DecisionLimit 5001 14618 -
smoke 1 dm unknown:DecisionLimit 5001 14618 -
smoke 1 tc unknown:DecisionLimit 5001 14426 -
smoke 1 dc unknown:DecisionLimit 5001 14614 -
smoke 2 lex unknown:DecisionLimit 5001 13528 -
smoke 2 rm unknown:DecisionLimit 5001 13528 -
smoke 2 dm unknown:DecisionLimit 5001 13528 -
smoke 2 tc unknown:DecisionLimit 5001 13528 -
smoke 2 dc unknown:DecisionLimit 5001 13528 -
smoke 3 lex infeasible 57 147 -
smoke 3 rm infeasible 57 147 -
smoke 3 dm infeasible 57 147 -
smoke 3 tc infeasible 57 147 -
smoke 3 dc infeasible 57 147 -
smoke 4 lex unknown:DecisionLimit 5001 12385 -
smoke 4 rm unknown:DecisionLimit 5001 12452 -
smoke 4 dm unknown:DecisionLimit 5001 12264 -
smoke 4 tc unknown:DecisionLimit 5001 12274 -
smoke 4 dc unknown:DecisionLimit 5001 12225 -
smoke 5 lex unknown:DecisionLimit 5001 14402 -
smoke 5 rm unknown:DecisionLimit 5001 13962 -
smoke 5 dm unknown:DecisionLimit 5001 13962 -
smoke 5 tc unknown:DecisionLimit 5001 13962 -
smoke 5 dc unknown:DecisionLimit 5001 14402 -
smoke 6 lex unknown:DecisionLimit 5001 15001 -
smoke 6 rm unknown:DecisionLimit 5001 14511 -
smoke 6 dm unknown:DecisionLimit 5001 14511 -
smoke 6 tc unknown:DecisionLimit 5001 14474 -
smoke 6 dc unknown:DecisionLimit 5001 14498 -
smoke 7 lex unknown:DecisionLimit 5001 15790 -
smoke 7 rm unknown:DecisionLimit 5001 15820 -
smoke 7 dm unknown:DecisionLimit 5001 15820 -
smoke 7 tc unknown:DecisionLimit 5001 15805 -
smoke 7 dc unknown:DecisionLimit 5001 15825 -
small 0 lex infeasible 5 15 -
small 0 rm infeasible 5 15 -
small 0 dm infeasible 5 15 -
small 0 tc infeasible 5 15 -
small 0 dc infeasible 5 15 -
small 1 lex infeasible 124 441 -
small 1 rm infeasible 124 441 -
small 1 dm infeasible 124 441 -
small 1 tc infeasible 124 441 -
small 1 dc infeasible 124 441 -
small 2 lex infeasible 2327 6095 -
small 2 rm infeasible 2327 6095 -
small 2 dm infeasible 2327 6095 -
small 2 tc infeasible 2327 6095 -
small 2 dc infeasible 2327 6095 -
small 3 lex infeasible 1 6 -
small 3 rm infeasible 1 6 -
small 3 dm infeasible 1 6 -
small 3 tc infeasible 1 6 -
small 3 dc infeasible 1 6 -
small 4 lex feasible 78 78 a2d9631ca4dd7abf
small 4 rm feasible 78 78 a2d9631ca4dd7abf
small 4 dm feasible 77 68 60ef24ca3b7bd70f
small 4 tc feasible 86 109 7f8a934c53327da7
small 4 dc feasible 86 109 7f8a934c53327da7
small 5 lex infeasible 43 123 -
small 5 rm infeasible 43 123 -
small 5 dm infeasible 43 123 -
small 5 tc infeasible 43 123 -
small 5 dc infeasible 43 123 -
small 6 lex infeasible 377 1238 -
small 6 rm infeasible 377 1238 -
small 6 dm infeasible 377 1238 -
small 6 tc infeasible 377 1238 -
small 6 dc infeasible 377 1238 -
small 7 lex infeasible 578 1622 -
small 7 rm infeasible 578 1622 -
small 7 dm infeasible 578 1622 -
small 7 tc infeasible 578 1622 -
small 7 dc infeasible 578 1622 -
small 8 lex infeasible 553 1714 -
small 8 rm infeasible 553 1714 -
small 8 dm infeasible 553 1714 -
small 8 tc infeasible 553 1714 -
small 8 dc infeasible 553 1714 -
small 9 lex infeasible 20 64 -
small 9 rm infeasible 20 64 -
small 9 dm infeasible 20 64 -
small 9 tc infeasible 20 64 -
small 9 dc infeasible 20 64 -
small 10 lex unknown:DecisionLimit 5001 18538 -
small 10 rm unknown:DecisionLimit 5001 18122 -
small 10 dm unknown:DecisionLimit 5001 18122 -
small 10 tc unknown:DecisionLimit 5001 18115 -
small 10 dc unknown:DecisionLimit 5001 18115 -
small 11 lex infeasible 44 130 -
small 11 rm infeasible 44 130 -
small 11 dm infeasible 44 130 -
small 11 tc infeasible 44 130 -
small 11 dc infeasible 44 130 -
small 12 lex unknown:DecisionLimit 5001 17023 -
small 12 rm unknown:DecisionLimit 5001 17023 -
small 12 dm unknown:DecisionLimit 5001 17023 -
small 12 tc unknown:DecisionLimit 5001 16897 -
small 12 dc unknown:DecisionLimit 5001 17023 -
small 13 lex feasible 34 0 2cc3137bb7d3fcb3
small 13 rm feasible 34 0 2cc3137bb7d3fcb3
small 13 dm feasible 34 0 2cc3137bb7d3fcb3
small 13 tc feasible 34 0 d143a51e9c71ccb3
small 13 dc feasible 34 0 d143a51e9c71ccb3
small 14 lex unknown:DecisionLimit 5001 13087 -
small 14 rm unknown:DecisionLimit 5001 13088 -
small 14 dm unknown:DecisionLimit 5001 13088 -
small 14 tc unknown:DecisionLimit 5001 13087 -
small 14 dc unknown:DecisionLimit 5001 13088 -
small 15 lex infeasible 3 8 -
small 15 rm infeasible 3 8 -
small 15 dm infeasible 3 8 -
small 15 tc infeasible 3 8 -
small 15 dc infeasible 3 8 -
small 16 lex feasible 3172 8492 a6e4d7725c783a04
small 16 rm feasible 3105 8267 46dee3f9f0ccb164
small 16 dm feasible 3172 8492 a6e4d7725c783a04
small 16 tc feasible 3261 8750 20d84d41ab0bc148
small 16 dc feasible 3172 8492 46dee3f9f0ccb164
small 17 lex feasible 121 2 1fbe5364bb7299cd
small 17 rm feasible 119 7 bd58c879fe3382ed
small 17 dm feasible 119 7 bd58c879fe3382ed
small 17 tc feasible 122 1 3665e57e905f8970
small 17 dc feasible 122 1 3665e57e905f8970
small 18 lex infeasible 1334 3851 -
small 18 rm infeasible 1334 3851 -
small 18 dm infeasible 1334 3851 -
small 18 tc infeasible 1334 3851 -
small 18 dc infeasible 1334 3851 -
small 19 lex unknown:DecisionLimit 5001 15346 -
small 19 rm unknown:DecisionLimit 5001 15330 -
small 19 dm unknown:DecisionLimit 5001 15346 -
small 19 tc unknown:DecisionLimit 5001 13719 -
small 19 dc unknown:DecisionLimit 5001 13717 -
small 20 lex infeasible 4 15 -
small 20 rm infeasible 4 15 -
small 20 dm infeasible 4 15 -
small 20 tc infeasible 4 15 -
small 20 dc infeasible 4 15 -
small 21 lex feasible 3224 8965 0075ad6f20a8aead
small 21 rm feasible 3740 10535 4c15f3b0cbf1a775
small 21 dm feasible 3740 10535 4c15f3b0cbf1a775
small 21 tc feasible 3361 9821 36ac0f964e33c185
small 21 dc feasible 3224 8965 0075ad6f20a8aead
small 22 lex feasible 31 0 4c45649418695916
small 22 rm feasible 33 6 5f0b0b0a31d9fcb6
small 22 dm feasible 33 6 5f0b0b0a31d9fcb6
small 22 tc feasible 31 0 4cbac6b8e615e396
small 22 dc feasible 31 0 4c45649418695916
small 23 lex infeasible 15 51 -
small 23 rm infeasible 15 51 -
small 23 dm infeasible 15 51 -
small 23 tc infeasible 15 51 -
small 23 dc infeasible 15 51 -
small 24 lex infeasible 673 1807 -
small 24 rm infeasible 673 1807 -
small 24 dm infeasible 673 1807 -
small 24 tc infeasible 673 1807 -
small 24 dc infeasible 673 1807 -
small 25 lex infeasible 14 39 -
small 25 rm infeasible 14 39 -
small 25 dm infeasible 14 39 -
small 25 tc infeasible 14 39 -
small 25 dc infeasible 14 39 -
small 26 lex infeasible 9 24 -
small 26 rm infeasible 9 24 -
small 26 dm infeasible 9 24 -
small 26 tc infeasible 9 24 -
small 26 dc infeasible 9 24 -
small 27 lex unknown:DecisionLimit 5001 14517 -
small 27 rm unknown:DecisionLimit 5001 14178 -
small 27 dm unknown:DecisionLimit 5001 14178 -
small 27 tc unknown:DecisionLimit 5001 14517 -
small 27 dc unknown:DecisionLimit 5001 14517 -
small 28 lex infeasible 148 557 -
small 28 rm infeasible 148 557 -
small 28 dm infeasible 148 557 -
small 28 tc infeasible 148 557 -
small 28 dc infeasible 148 557 -
small 29 lex unknown:DecisionLimit 5001 14119 -
small 29 rm unknown:DecisionLimit 5001 14119 -
small 29 dm unknown:DecisionLimit 5001 14119 -
small 29 tc unknown:DecisionLimit 5001 14119 -
small 29 dc unknown:DecisionLimit 5001 14119 -
small 30 lex infeasible 27 93 -
small 30 rm infeasible 27 93 -
small 30 dm infeasible 27 93 -
small 30 tc infeasible 27 93 -
small 30 dc infeasible 27 93 -
small 31 lex infeasible 125 312 -
small 31 rm infeasible 125 312 -
small 31 dm infeasible 125 312 -
small 31 tc infeasible 125 312 -
small 31 dc infeasible 125 312 -
small 32 lex infeasible 6 14 -
small 32 rm infeasible 6 14 -
small 32 dm infeasible 6 14 -
small 32 tc infeasible 6 14 -
small 32 dc infeasible 6 14 -
small 33 lex infeasible 7 18 -
small 33 rm infeasible 7 18 -
small 33 dm infeasible 7 18 -
small 33 tc infeasible 7 18 -
small 33 dc infeasible 7 18 -
small 34 lex unknown:DecisionLimit 5001 15603 -
small 34 rm unknown:DecisionLimit 5001 15631 -
small 34 dm unknown:DecisionLimit 5001 15631 -
small 34 tc unknown:DecisionLimit 5001 15631 -
small 34 dc unknown:DecisionLimit 5001 15631 -
small 35 lex unknown:DecisionLimit 5001 13672 -
small 35 rm unknown:DecisionLimit 5001 13672 -
small 35 dm unknown:DecisionLimit 5001 13672 -
small 35 tc unknown:DecisionLimit 5001 13672 -
small 35 dc unknown:DecisionLimit 5001 13672 -
small 36 lex unknown:DecisionLimit 5001 13235 -
small 36 rm unknown:DecisionLimit 5001 14028 -
small 36 dm unknown:DecisionLimit 5001 13235 -
small 36 tc unknown:DecisionLimit 5001 14039 -
small 36 dc unknown:DecisionLimit 5001 14039 -
small 37 lex unknown:DecisionLimit 5001 17163 -
small 37 rm unknown:DecisionLimit 5001 17163 -
small 37 dm unknown:DecisionLimit 5001 17163 -
small 37 tc unknown:DecisionLimit 5001 17163 -
small 37 dc unknown:DecisionLimit 5001 17163 -
small 38 lex unknown:DecisionLimit 5001 15214 -
small 38 rm feasible 350 668 ffe520f34194175f
small 38 dm feasible 350 668 ffe520f34194175f
small 38 tc unknown:DecisionLimit 5001 15252 -
small 38 dc unknown:DecisionLimit 5001 15251 -
small 39 lex infeasible 737 2110 -
small 39 rm infeasible 737 2110 -
small 39 dm infeasible 737 2110 -
small 39 tc infeasible 737 2110 -
small 39 dc infeasible 737 2110 -
small 40 lex infeasible 980 3843 -
small 40 rm infeasible 980 3843 -
small 40 dm infeasible 980 3843 -
small 40 tc infeasible 980 3843 -
small 40 dc infeasible 980 3843 -
small 41 lex infeasible 62 203 -
small 41 rm infeasible 62 203 -
small 41 dm infeasible 62 203 -
small 41 tc infeasible 62 203 -
small 41 dc infeasible 62 203 -
small 42 lex infeasible 64 166 -
small 42 rm infeasible 64 166 -
small 42 dm infeasible 64 166 -
small 42 tc infeasible 64 166 -
small 42 dc infeasible 64 166 -
small 43 lex unknown:DecisionLimit 5001 18418 -
small 43 rm unknown:DecisionLimit 5001 18560 -
small 43 dm unknown:DecisionLimit 5001 18560 -
small 43 tc unknown:DecisionLimit 5001 18560 -
small 43 dc unknown:DecisionLimit 5001 18560 -
small 44 lex unknown:DecisionLimit 5001 14282 -
small 44 rm unknown:DecisionLimit 5001 14284 -
small 44 dm unknown:DecisionLimit 5001 14280 -
small 44 tc unknown:DecisionLimit 5001 14284 -
small 44 dc unknown:DecisionLimit 5001 14280 -
small 45 lex feasible 116 176 6b8548c5d0f7bfc9
small 45 rm feasible 61 50 05619750ebc9b809
small 45 dm feasible 61 50 05619750ebc9b809
small 45 tc feasible 61 50 05619750ebc9b809
small 45 dc feasible 61 50 05619750ebc9b809
small 46 lex unknown:DecisionLimit 5001 13366 -
small 46 rm unknown:DecisionLimit 5001 13361 -
small 46 dm unknown:DecisionLimit 5001 13366 -
small 46 tc unknown:DecisionLimit 5001 13371 -
small 46 dc unknown:DecisionLimit 5001 13371 -
small 47 lex infeasible 367 1101 -
small 47 rm infeasible 367 1101 -
small 47 dm infeasible 367 1101 -
small 47 tc infeasible 367 1101 -
small 47 dc infeasible 367 1101 -
small 48 lex feasible 134 9 4c1d834fd9531f59
small 48 rm feasible 131 0 77ee4c573ff373d9
small 48 dm feasible 134 14 3da02ff1567c7439
small 48 tc feasible 131 0 77ee4c573ff373d9
small 48 dc feasible 134 14 3da02ff1567c7439
small 49 lex infeasible 984 2582 -
small 49 rm infeasible 984 2582 -
small 49 dm infeasible 984 2582 -
small 49 tc infeasible 984 2582 -
small 49 dc infeasible 984 2582 -
small 50 lex unknown:DecisionLimit 5001 15907 -
small 50 rm unknown:DecisionLimit 5001 16012 -
small 50 dm unknown:DecisionLimit 5001 16012 -
small 50 tc unknown:DecisionLimit 5001 15907 -
small 50 dc unknown:DecisionLimit 5001 15907 -
small 51 lex infeasible 711 2168 -
small 51 rm infeasible 711 2168 -
small 51 dm infeasible 711 2168 -
small 51 tc infeasible 711 2168 -
small 51 dc infeasible 711 2168 -
small 52 lex unknown:DecisionLimit 5001 14760 -
small 52 rm unknown:DecisionLimit 5001 14675 -
small 52 dm unknown:DecisionLimit 5001 14675 -
small 52 tc unknown:DecisionLimit 5001 14675 -
small 52 dc unknown:DecisionLimit 5001 14675 -
small 53 lex infeasible 306 831 -
small 53 rm infeasible 306 831 -
small 53 dm infeasible 306 831 -
small 53 tc infeasible 306 831 -
small 53 dc infeasible 306 831 -
small 54 lex infeasible 28 68 -
small 54 rm infeasible 28 68 -
small 54 dm infeasible 28 68 -
small 54 tc infeasible 28 68 -
small 54 dc infeasible 28 68 -
small 55 lex infeasible 7 20 -
small 55 rm infeasible 7 20 -
small 55 dm infeasible 7 20 -
small 55 tc infeasible 7 20 -
small 55 dc infeasible 7 20 -
small 56 lex feasible 176 71 e2f3dc5d217ae5a6
small 56 rm feasible 182 84 70de70b6e0899aac
small 56 dm feasible 178 69 b8bd680def6797ac
small 56 tc feasible 179 78 8572ba7df788d22c
small 56 dc feasible 179 78 8572ba7df788d22c
small 57 lex infeasible 105 518 -
small 57 rm infeasible 105 518 -
small 57 dm infeasible 105 518 -
small 57 tc infeasible 105 518 -
small 57 dc infeasible 105 518 -
small 58 lex infeasible 15 58 -
small 58 rm infeasible 15 58 -
small 58 dm infeasible 15 58 -
small 58 tc infeasible 15 58 -
small 58 dc infeasible 15 58 -
small 59 lex infeasible 299 794 -
small 59 rm infeasible 299 794 -
small 59 dm infeasible 299 794 -
small 59 tc infeasible 299 794 -
small 59 dc infeasible 299 794 -
small 60 lex infeasible 3970 11250 -
small 60 rm infeasible 3970 11250 -
small 60 dm infeasible 3970 11250 -
small 60 tc infeasible 3970 11250 -
small 60 dc infeasible 3970 11250 -
small 61 lex infeasible 4392 12232 -
small 61 rm infeasible 4392 12232 -
small 61 dm infeasible 4392 12232 -
small 61 tc infeasible 4392 12232 -
small 61 dc infeasible 4392 12232 -
small 62 lex unknown:DecisionLimit 5001 17952 -
small 62 rm unknown:DecisionLimit 5001 17952 -
small 62 dm unknown:DecisionLimit 5001 17952 -
small 62 tc unknown:DecisionLimit 5001 16796 -
small 62 dc unknown:DecisionLimit 5001 16796 -
small 63 lex infeasible 5 12 -
small 63 rm infeasible 5 12 -
small 63 dm infeasible 5 12 -
small 63 tc infeasible 5 12 -
small 63 dc infeasible 5 12 -
small 64 lex unknown:DecisionLimit 5001 14030 -
small 64 rm unknown:DecisionLimit 5001 13955 -
small 64 dm unknown:DecisionLimit 5001 13955 -
small 64 tc unknown:DecisionLimit 5001 13775 -
small 64 dc unknown:DecisionLimit 5001 13775 -
small 65 lex unknown:DecisionLimit 5001 14250 -
small 65 rm unknown:DecisionLimit 5001 14250 -
small 65 dm unknown:DecisionLimit 5001 14250 -
small 65 tc unknown:DecisionLimit 5001 14260 -
small 65 dc unknown:DecisionLimit 5001 14260 -
small 66 lex infeasible 4 17 -
small 66 rm infeasible 4 17 -
small 66 dm infeasible 4 17 -
small 66 tc infeasible 4 17 -
small 66 dc infeasible 4 17 -
small 67 lex unknown:DecisionLimit 5001 14302 -
small 67 rm unknown:DecisionLimit 5001 14302 -
small 67 dm unknown:DecisionLimit 5001 14302 -
small 67 tc unknown:DecisionLimit 5001 14302 -
small 67 dc unknown:DecisionLimit 5001 14302 -
small 68 lex infeasible 477 1455 -
small 68 rm infeasible 477 1455 -
small 68 dm infeasible 477 1455 -
small 68 tc infeasible 477 1455 -
small 68 dc infeasible 477 1455 -
small 69 lex infeasible 234 683 -
small 69 rm infeasible 234 683 -
small 69 dm infeasible 234 683 -
small 69 tc infeasible 234 683 -
small 69 dc infeasible 234 683 -
small 70 lex infeasible 8 23 -
small 70 rm infeasible 8 23 -
small 70 dm infeasible 8 23 -
small 70 tc infeasible 8 23 -
small 70 dc infeasible 8 23 -
small 71 lex feasible 94 21 c1ac29064a53470b
small 71 rm feasible 92 9 3411c3834d84860b
small 71 dm feasible 92 10 c1ac29064a53470b
small 71 tc feasible 92 9 3411c3834d84860b
small 71 dc feasible 92 9 3411c3834d84860b
small 72 lex infeasible 5 12 -
small 72 rm infeasible 5 12 -
small 72 dm infeasible 5 12 -
small 72 tc infeasible 5 12 -
small 72 dc infeasible 5 12 -
small 73 lex infeasible 239 742 -
small 73 rm infeasible 239 742 -
small 73 dm infeasible 239 742 -
small 73 tc infeasible 239 742 -
small 73 dc infeasible 239 742 -
small 74 lex infeasible 555 1663 -
small 74 rm infeasible 555 1663 -
small 74 dm infeasible 555 1663 -
small 74 tc infeasible 555 1663 -
small 74 dc infeasible 555 1663 -
small 75 lex infeasible 1322 2999 -
small 75 rm infeasible 1322 2999 -
small 75 dm infeasible 1322 2999 -
small 75 tc infeasible 1322 2999 -
small 75 dc infeasible 1322 2999 -
small 76 lex infeasible 165 561 -
small 76 rm infeasible 165 561 -
small 76 dm infeasible 165 561 -
small 76 tc infeasible 165 561 -
small 76 dc infeasible 165 561 -
small 77 lex feasible 183 58 6d0c77dfe4120f27
small 77 rm feasible 159 18 8ead1e8ba9aec6d7
small 77 dm feasible 170 50 fd12da89b43ca187
small 77 tc feasible 159 18 8ead1e8ba9aec6d7
small 77 dc feasible 170 50 fd12da89b43ca187
small 78 lex unknown:DecisionLimit 5001 14014 -
small 78 rm unknown:DecisionLimit 5001 14014 -
small 78 dm unknown:DecisionLimit 5001 14073 -
small 78 tc unknown:DecisionLimit 5001 14014 -
small 78 dc unknown:DecisionLimit 5001 14014 -
small 79 lex infeasible 7 20 -
small 79 rm infeasible 7 20 -
small 79 dm infeasible 7 20 -
small 79 tc infeasible 7 20 -
small 79 dc infeasible 7 20 -
small 80 lex infeasible 381 1253 -
small 80 rm infeasible 381 1253 -
small 80 dm infeasible 381 1253 -
small 80 tc infeasible 381 1253 -
small 80 dc infeasible 381 1253 -
small 81 lex infeasible 38 98 -
small 81 rm infeasible 38 98 -
small 81 dm infeasible 38 98 -
small 81 tc infeasible 38 98 -
small 81 dc infeasible 38 98 -
small 82 lex infeasible 15 61 -
small 82 rm infeasible 15 61 -
small 82 dm infeasible 15 61 -
small 82 tc infeasible 15 61 -
small 82 dc infeasible 15 61 -
small 83 lex feasible 38 1 34ebc0ff32eee5f2
small 83 rm feasible 38 0 34ebc0ff32eee5f2
small 83 dm feasible 38 0 34ebc0ff32eee5f2
small 83 tc feasible 38 0 50d92387647c45d2
small 83 dc feasible 38 0 50d92387647c45d2
small 84 lex infeasible 1 4 -
small 84 rm infeasible 1 4 -
small 84 dm infeasible 1 4 -
small 84 tc infeasible 1 4 -
small 84 dc infeasible 1 4 -
small 85 lex unknown:DecisionLimit 5001 16466 -
small 85 rm unknown:DecisionLimit 5001 16834 -
small 85 dm unknown:DecisionLimit 5001 16834 -
small 85 tc unknown:DecisionLimit 5001 16356 -
small 85 dc unknown:DecisionLimit 5001 16356 -
small 86 lex infeasible 53 163 -
small 86 rm infeasible 53 163 -
small 86 dm infeasible 53 163 -
small 86 tc infeasible 53 163 -
small 86 dc infeasible 53 163 -
small 87 lex infeasible 5 15 -
small 87 rm infeasible 5 15 -
small 87 dm infeasible 5 15 -
small 87 tc infeasible 5 15 -
small 87 dc infeasible 5 15 -
small 88 lex unknown:DecisionLimit 5001 17051 -
small 88 rm unknown:DecisionLimit 5001 16887 -
small 88 dm unknown:DecisionLimit 5001 16853 -
small 88 tc unknown:DecisionLimit 5001 16880 -
small 88 dc unknown:DecisionLimit 5001 16887 -
small 89 lex infeasible 14 43 -
small 89 rm infeasible 14 43 -
small 89 dm infeasible 14 43 -
small 89 tc infeasible 14 43 -
small 89 dc infeasible 14 43 -
small 90 lex infeasible 7 18 -
small 90 rm infeasible 7 18 -
small 90 dm infeasible 7 18 -
small 90 tc infeasible 7 18 -
small 90 dc infeasible 7 18 -
small 91 lex infeasible 241 643 -
small 91 rm infeasible 241 643 -
small 91 dm infeasible 241 643 -
small 91 tc infeasible 241 643 -
small 91 dc infeasible 241 643 -
small 92 lex infeasible 989 3007 -
small 92 rm infeasible 989 3007 -
small 92 dm infeasible 989 3007 -
small 92 tc infeasible 989 3007 -
small 92 dc infeasible 989 3007 -
small 93 lex infeasible 297 796 -
small 93 rm infeasible 297 796 -
small 93 dm infeasible 297 796 -
small 93 tc infeasible 297 796 -
small 93 dc infeasible 297 796 -
small 94 lex infeasible 60 184 -
small 94 rm infeasible 60 184 -
small 94 dm infeasible 60 184 -
small 94 tc infeasible 60 184 -
small 94 dc infeasible 60 184 -
small 95 lex unknown:DecisionLimit 5001 15828 -
small 95 rm unknown:DecisionLimit 5001 15828 -
small 95 dm unknown:DecisionLimit 5001 15828 -
small 95 tc unknown:DecisionLimit 5001 15864 -
small 95 dc unknown:DecisionLimit 5001 15868 -
small 96 lex infeasible 5 18 -
small 96 rm infeasible 5 18 -
small 96 dm infeasible 5 18 -
small 96 tc infeasible 5 18 -
small 96 dc infeasible 5 18 -
small 97 lex infeasible 517 1782 -
small 97 rm infeasible 517 1782 -
small 97 dm infeasible 517 1782 -
small 97 tc infeasible 517 1782 -
small 97 dc infeasible 517 1782 -
small 98 lex infeasible 2697 7421 -
small 98 rm infeasible 2697 7421 -
small 98 dm infeasible 2697 7421 -
small 98 tc infeasible 2697 7421 -
small 98 dc infeasible 2697 7421 -
small 99 lex unknown:DecisionLimit 5001 13129 -
small 99 rm unknown:DecisionLimit 5001 13129 -
small 99 dm unknown:DecisionLimit 5001 13129 -
small 99 tc unknown:DecisionLimit 5001 13134 -
small 99 dc unknown:DecisionLimit 5001 13134 -
";
