//! The specialized CSP2 search pinned node for node.
//!
//! Every instance runs under every [`TaskOrder`] with a fixed decision
//! budget; the verdict kind, the decision and backtrack counts and the
//! schedule of every feasible verdict must equal the recorded table. A
//! change to how `csp2::Search` is implemented must leave this table
//! untouched; a change to what it prunes or in which order it tries
//! candidates shows up here line by line.
//!
//! Each line is `<stream> <index> <order> <verdict> <decisions>
//! <backtracks> <schedule>`, where `<schedule>` is the FNV-1a digest of
//! the full `m × H` grid of a feasible verdict (`-` otherwise).

use mgrts_core::csp2::Csp2Solver;
use mgrts_core::engine::Budget;
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::schedule::Schedule;
use mgrts_core::solve::Verdict;
use mgrts_core::verify::check_identical;
use rt_gen::{GeneratorConfig, MSpec, ProblemGenerator};

const SEED: u64 = 2009;
const INSTANCES: u64 = 40;
const DECISIONS: u64 = 20_000;

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

fn table_of(stream: &str, gen: &ProblemGenerator) -> Vec<String> {
    let mut lines = Vec::new();
    for k in 0..INSTANCES {
        let p = gen.nth(k);
        for order in TaskOrder::ALL {
            let res = Csp2Solver::new(&p.taskset, p.m)
                .unwrap()
                .with_order(order)
                .with_budget(Budget {
                    max_decisions: Some(DECISIONS),
                    ..Budget::unlimited()
                })
                .solve();
            let search = res.search.expect("csp2 reports its search");
            let (kind, sched) = match &res.verdict {
                Verdict::Feasible(s) => {
                    check_identical(&p.taskset, p.m, s).unwrap();
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
fn csp2_search_tree_is_pinned() {
    let paper = ProblemGenerator::new(GeneratorConfig::table1(), SEED);
    let small = ProblemGenerator::new(
        GeneratorConfig {
            n: 8,
            m: MSpec::Fixed(4),
            t_max: 6,
            ..GeneratorConfig::table1()
        },
        SEED,
    );
    let mut actual = table_of("paper", &paper);
    actual.extend(table_of("small", &small));
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
paper 0 lex infeasible 562 659 -
paper 0 rm infeasible 491 583 -
paper 0 dm infeasible 435 510 -
paper 0 tc infeasible 383 453 -
paper 0 dc infeasible 369 439 -
paper 1 lex unknown:DecisionLimit 20001 25627 -
paper 1 rm unknown:DecisionLimit 20001 22471 -
paper 1 dm unknown:DecisionLimit 20001 22471 -
paper 1 tc unknown:DecisionLimit 20001 24461 -
paper 1 dc unknown:DecisionLimit 20001 22242 -
paper 2 lex feasible 2210 303 62e5aac652a1af20
paper 2 rm feasible 2141 222 e5ea77b139fa7a20
paper 2 dm feasible 2193 290 4fa9c05946304a50
paper 2 tc feasible 1988 0 68bdaabdae96a330
paper 2 dc feasible 1988 0 859fa6cf512de9b0
paper 3 lex feasible 1555 0 2a5d59458140286d
paper 3 rm feasible 1555 0 cd47fcbafa14402d
paper 3 dm feasible 1555 0 5455a4d77f24d8bd
paper 3 tc feasible 1555 0 0ef67334df39f96d
paper 3 dc feasible 1555 0 796ada4df254fbfd
paper 4 lex infeasible 38 41 -
paper 4 rm infeasible 34 37 -
paper 4 dm infeasible 42 47 -
paper 4 tc infeasible 33 34 -
paper 4 dc infeasible 33 34 -
paper 5 lex infeasible 994 1137 -
paper 5 rm infeasible 932 1075 -
paper 5 dm infeasible 938 1081 -
paper 5 tc infeasible 932 1075 -
paper 5 dc infeasible 843 986 -
paper 6 lex unknown:DecisionLimit 20001 24522 -
paper 6 rm unknown:DecisionLimit 20001 25540 -
paper 6 dm unknown:DecisionLimit 20001 25815 -
paper 6 tc unknown:DecisionLimit 20001 23912 -
paper 6 dc unknown:DecisionLimit 20001 24566 -
paper 7 lex infeasible 37 45 -
paper 7 rm infeasible 32 40 -
paper 7 dm infeasible 28 36 -
paper 7 tc infeasible 39 49 -
paper 7 dc infeasible 26 33 -
paper 8 lex infeasible 5932 7199 -
paper 8 rm infeasible 5575 6763 -
paper 8 dm infeasible 5125 6306 -
paper 8 tc infeasible 4609 5580 -
paper 8 dc infeasible 3806 4456 -
paper 9 lex feasible 1665 0 2fabe59dc423154f
paper 9 rm feasible 1665 0 5141f7bc5da2054f
paper 9 dm feasible 1665 0 4943e4ccbe2218ef
paper 9 tc feasible 1665 0 1cae6d0a5a069c0f
paper 9 dc feasible 1665 0 f032246221f0f1af
paper 10 lex feasible 1573 0 edf3e6240ae4420f
paper 10 rm feasible 1573 0 cc9f9f9edfcf625f
paper 10 dm feasible 1573 0 0e6946fd529b38ff
paper 10 tc feasible 1573 0 7295e78fd967f59f
paper 10 dc feasible 1573 0 69c94178e5f48b7f
paper 11 lex infeasible 29 33 -
paper 11 rm infeasible 25 26 -
paper 11 dm infeasible 25 26 -
paper 11 tc infeasible 26 29 -
paper 11 dc infeasible 25 26 -
paper 12 lex infeasible 5 5 -
paper 12 rm infeasible 5 5 -
paper 12 dm infeasible 5 5 -
paper 12 tc infeasible 5 5 -
paper 12 dc infeasible 5 5 -
paper 13 lex unknown:DecisionLimit 20001 23539 -
paper 13 rm unknown:DecisionLimit 20001 26505 -
paper 13 dm unknown:DecisionLimit 20001 26951 -
paper 13 tc unknown:DecisionLimit 20001 24486 -
paper 13 dc unknown:DecisionLimit 20001 23955 -
paper 14 lex unknown:DecisionLimit 20001 23171 -
paper 14 rm feasible 1023 0 e895f543a081acb9
paper 14 dm feasible 1023 0 5cbb9f1ccb08dad9
paper 14 tc feasible 1023 0 959852a572c22f89
paper 14 dc feasible 1023 0 1c5799fd7ddf9359
paper 15 lex unknown:DecisionLimit 20001 23698 -
paper 15 rm unknown:DecisionLimit 20001 24282 -
paper 15 dm unknown:DecisionLimit 20001 25388 -
paper 15 tc unknown:DecisionLimit 20001 24257 -
paper 15 dc unknown:DecisionLimit 20001 25415 -
paper 16 lex infeasible 3654 4479 -
paper 16 rm infeasible 2600 3360 -
paper 16 dm infeasible 2146 2754 -
paper 16 tc infeasible 2661 3460 -
paper 16 dc infeasible 2093 2701 -
paper 17 lex unknown:DecisionLimit 20001 22230 -
paper 17 rm feasible 419 0 89981e1519d1bbaf
paper 17 dm unknown:DecisionLimit 20001 22400 -
paper 17 tc feasible 419 0 5e1fec4194a948cf
paper 17 dc feasible 419 0 7cdbb3cbb563279f
paper 18 lex unknown:DecisionLimit 20001 22746 -
paper 18 rm unknown:DecisionLimit 20001 22507 -
paper 18 dm unknown:DecisionLimit 20001 22116 -
paper 18 tc unknown:DecisionLimit 20001 23809 -
paper 18 dc unknown:DecisionLimit 20001 23953 -
paper 19 lex infeasible 12 14 -
paper 19 rm infeasible 10 12 -
paper 19 dm infeasible 9 11 -
paper 19 tc infeasible 6 8 -
paper 19 dc infeasible 5 6 -
paper 20 lex feasible 234 0 36dcfd7fa28523bb
paper 20 rm feasible 234 0 e1eade795eb44cbb
paper 20 dm feasible 234 0 e6f7648bb0dcf49b
paper 20 tc feasible 234 0 51962e79e19fd7bb
paper 20 dc feasible 234 0 92fbd9bcde59e9db
paper 21 lex unknown:DecisionLimit 20001 24515 -
paper 21 rm unknown:DecisionLimit 20001 25391 -
paper 21 dm unknown:DecisionLimit 20001 25439 -
paper 21 tc unknown:DecisionLimit 20001 26409 -
paper 21 dc unknown:DecisionLimit 20001 25774 -
paper 22 lex feasible 1639 0 4c449aee099a8e5f
paper 22 rm feasible 1639 0 28037fb9fab9b6ff
paper 22 dm feasible 1639 0 b2626e47d20ce68f
paper 22 tc feasible 1639 0 59f000ccc747831f
paper 22 dc feasible 1639 0 47dea892fb63898f
paper 23 lex unknown:DecisionLimit 20001 24048 -
paper 23 rm unknown:DecisionLimit 20001 22954 -
paper 23 dm unknown:DecisionLimit 20001 23953 -
paper 23 tc unknown:DecisionLimit 20001 24769 -
paper 23 dc unknown:DecisionLimit 20001 24505 -
paper 24 lex feasible 407 0 018621c9cf2d0af7
paper 24 rm feasible 407 0 fb34afe6b42141b7
paper 24 dm feasible 407 0 f86098b1146550d7
paper 24 tc feasible 407 0 5f78eb02f9cc4817
paper 24 dc feasible 407 0 08a62ee8d2853e47
paper 25 lex feasible 1629 0 c81286d24ceb997d
paper 25 rm feasible 1629 0 2b084796fe051bcd
paper 25 dm feasible 1629 0 bbedd21df14b2fdd
paper 25 tc feasible 1629 0 2ddc00688438693d
paper 25 dc feasible 1629 0 78fc8fa7cfb059cd
paper 26 lex unknown:DecisionLimit 20001 23030 -
paper 26 rm unknown:DecisionLimit 20001 22960 -
paper 26 dm unknown:DecisionLimit 20001 22951 -
paper 26 tc unknown:DecisionLimit 20001 23180 -
paper 26 dc unknown:DecisionLimit 20001 23182 -
paper 27 lex feasible 737 0 07abcf248e66b89e
paper 27 rm feasible 737 0 c3ee942f61c6f65e
paper 27 dm feasible 737 0 57f59898857cf11e
paper 27 tc feasible 737 0 5b134a646f6df8ce
paper 27 dc feasible 737 0 3165319bd16ed91e
paper 28 lex feasible 964 0 6f529b6c0b5c70ab
paper 28 rm feasible 964 0 46edec9db23332bb
paper 28 dm feasible 964 0 5dda5dac1062583b
paper 28 tc feasible 964 0 0ef9222b4dd926db
paper 28 dc feasible 964 0 15c72b09db02d53b
paper 29 lex feasible 374 0 6f775df5c8683475
paper 29 rm feasible 374 0 3f6af0009cd8fcb5
paper 29 dm feasible 374 0 255e010a701fcf25
paper 29 tc feasible 374 0 ee89e7630363d9c5
paper 29 dc feasible 374 0 e34492ffbe23db95
paper 30 lex feasible 2069 0 4fa0f282be8445fc
paper 30 rm feasible 2069 0 d54d2ceced51973c
paper 30 dm feasible 2069 0 70ecbf285c6217dc
paper 30 tc feasible 2069 0 ab605895cfabc9dc
paper 30 dc feasible 2069 0 3e95c3e16f09545c
paper 31 lex feasible 996 0 c38fd394651b189d
paper 31 rm feasible 996 0 5e00dbbcbcba4cbd
paper 31 dm feasible 996 0 e39d4b52e8694f0d
paper 31 tc feasible 996 0 a009485a274fc6ed
paper 31 dc feasible 996 0 fe613c708eca498d
paper 32 lex feasible 351 0 3f13ffa1e5ba53f8
paper 32 rm feasible 351 0 57a34b52ca28ef58
paper 32 dm feasible 351 0 70470a3c5c581188
paper 32 tc feasible 351 0 63e493d767ca9db8
paper 32 dc feasible 351 0 fd9a2ac78e9aa9c8
paper 33 lex feasible 1663 0 0de347f60680ccbf
paper 33 rm feasible 1663 0 7684419bdb162ebf
paper 33 dm feasible 1663 0 5318fd1f6fd1a8ef
paper 33 tc feasible 1663 0 2f3f23bb2c45b77f
paper 33 dc feasible 1663 0 bd89d6ca24c2eeef
paper 34 lex feasible 2053 0 bc807173d70a1ce4
paper 34 rm feasible 2053 0 c36550d507f48904
paper 34 dm feasible 2053 0 d09f1dc95acf52d4
paper 34 tc feasible 2053 0 48d542c937a45474
paper 34 dc feasible 2053 0 6132f6ab34b31904
paper 35 lex infeasible 1325 1584 -
paper 35 rm infeasible 927 1114 -
paper 35 dm infeasible 906 1086 -
paper 35 tc infeasible 932 1119 -
paper 35 dc infeasible 858 1038 -
paper 36 lex feasible 1803 0 27c299ded785bb34
paper 36 rm feasible 1803 0 73ac97726dafae34
paper 36 dm feasible 1803 0 01c9261f98f2abc4
paper 36 tc feasible 1803 0 9d23d4a4fca14294
paper 36 dc feasible 1803 0 dbcb751aa95112f4
paper 37 lex feasible 342 0 31bdd487ed9dd315
paper 37 rm feasible 342 0 b01b195d2f7e9ff5
paper 37 dm feasible 342 0 782ee296dd424405
paper 37 tc feasible 342 0 22c64ae037a6cfd5
paper 37 dc feasible 342 0 8caef1b341226a15
paper 38 lex infeasible 34 51 -
paper 38 rm infeasible 17 30 -
paper 38 dm infeasible 14 27 -
paper 38 tc infeasible 24 42 -
paper 38 dc infeasible 14 27 -
paper 39 lex feasible 1559 0 499b69ced87ccae4
paper 39 rm feasible 1559 0 f1d5b6fd66be08d4
paper 39 dm feasible 1559 0 3233a5999e98a9b4
paper 39 tc feasible 1559 0 df039e13417598f4
paper 39 dc feasible 1559 0 251c4ae524c8a674
small 0 lex infeasible 3391 4017 -
small 0 rm infeasible 2687 3239 -
small 0 dm infeasible 2951 3577 -
small 0 tc infeasible 2445 3000 -
small 0 dc infeasible 2473 3024 -
small 1 lex feasible 209 0 8cb6180c27993c0c
small 1 rm feasible 209 0 9c856ca86b5a630c
small 1 dm feasible 209 0 2da492ba6b5a10ec
small 1 tc feasible 209 0 f8a509341bcb068c
small 1 dc feasible 209 0 bb082c896ea9194c
small 2 lex feasible 118 0 7109a41fb9eb7517
small 2 rm feasible 118 0 b5cca3279ad69cb7
small 2 dm feasible 118 0 f7c226236287e5b7
small 2 tc feasible 118 0 89ac8067ccaae3b7
small 2 dc feasible 118 0 c9f486b8a57f8277
small 3 lex feasible 207 0 0c0b791bb44f881d
small 3 rm feasible 207 0 cf4fe1523557057d
small 3 dm feasible 207 0 8a89a17b0f10863d
small 3 tc feasible 207 0 3cd3fb5598cb395d
small 3 dc feasible 207 0 9f21a96d142e79fd
small 4 lex infeasible 26 30 -
small 4 rm infeasible 17 20 -
small 4 dm infeasible 16 18 -
small 4 tc infeasible 18 21 -
small 4 dc infeasible 16 18 -
small 5 lex infeasible 33 36 -
small 5 rm infeasible 31 33 -
small 5 dm infeasible 31 32 -
small 5 tc infeasible 31 33 -
small 5 dc infeasible 31 33 -
small 6 lex feasible 194 0 742deb599d06e9d5
small 6 rm feasible 194 0 07fc3f58b44a5e35
small 6 dm feasible 194 0 542a381689b95f55
small 6 tc feasible 194 0 30a81fa9135da1f5
small 6 dc feasible 194 0 b84ea809a4f29595
small 7 lex feasible 87 0 0705c62bb977da3f
small 7 rm feasible 87 0 765813557404a97f
small 7 dm feasible 87 0 0711013d8e793c5f
small 7 tc feasible 87 0 f08b297a7b0ad6bf
small 7 dc feasible 87 0 6d1f479466de0b9f
small 8 lex feasible 228 0 df93adec361e46e3
small 8 rm feasible 228 0 f4587e5550c5c0e3
small 8 dm feasible 228 0 bef77ff46dceb303
small 8 tc feasible 228 0 88b574dbef771223
small 8 dc feasible 228 0 507ec6c9937836c3
small 9 lex infeasible 4 4 -
small 9 rm infeasible 4 4 -
small 9 dm infeasible 4 4 -
small 9 tc infeasible 4 4 -
small 9 dc infeasible 4 4 -
small 10 lex feasible 99 0 8dd6f25c7d50e55e
small 10 rm feasible 99 0 96c458cb6492189e
small 10 dm feasible 99 0 96c458cb6492189e
small 10 tc feasible 99 0 4a3a341468f4a9be
small 10 dc feasible 99 0 4a3a341468f4a9be
small 11 lex infeasible 8 11 -
small 11 rm infeasible 4 6 -
small 11 dm infeasible 6 8 -
small 11 tc infeasible 4 6 -
small 11 dc infeasible 4 6 -
small 12 lex infeasible 8 9 -
small 12 rm infeasible 8 9 -
small 12 dm infeasible 8 9 -
small 12 tc infeasible 8 9 -
small 12 dc infeasible 8 9 -
small 13 lex feasible 89 0 3c783c99ad3f710b
small 13 rm feasible 89 0 8df7f1d8dfcc176b
small 13 dm feasible 89 0 ec5fbbe5c6ea9b2b
small 13 tc feasible 89 0 409c6fde1370ac6b
small 13 dc feasible 89 0 67fd2fc512caed4b
small 14 lex feasible 45 0 484ca0cec70535ea
small 14 rm feasible 45 0 57044ed18522bb0a
small 14 dm feasible 45 0 37b84ee2d771678a
small 14 tc feasible 45 0 7626d7e9f64b1b2a
small 14 dc feasible 45 0 6b8aa1f12ba5860a
small 15 lex feasible 97 0 cf848063ca30f6ca
small 15 rm feasible 97 0 f4c653673c456fea
small 15 dm feasible 97 0 6f138a6d8b96390a
small 15 tc feasible 97 0 8625e18ad8e9dfea
small 15 dc feasible 97 0 8db8fd0b39da8a8a
small 16 lex feasible 221 0 ba0c6c4626ca69e8
small 16 rm feasible 221 0 6c939a470d2ebc08
small 16 dm feasible 222 2 5ea8e47f5fb611c8
small 16 tc feasible 221 0 34efe7f084825a88
small 16 dc feasible 221 0 6fb262addc4b7308
small 17 lex infeasible 7 9 -
small 17 rm infeasible 7 9 -
small 17 dm infeasible 8 10 -
small 17 tc infeasible 5 7 -
small 17 dc infeasible 4 6 -
small 18 lex feasible 115 0 1f5e4f1781c0ecdf
small 18 rm feasible 115 0 6ed34b36f5e5ee1f
small 18 dm feasible 115 0 6f9622c5c2d590df
small 18 tc feasible 115 0 fd1b9707fa3c619f
small 18 dc feasible 115 0 7f5c2fc74351225f
small 19 lex infeasible 39 53 -
small 19 rm infeasible 57 68 -
small 19 dm infeasible 47 58 -
small 19 tc infeasible 44 55 -
small 19 dc infeasible 35 46 -
small 20 lex feasible 182 0 bdbda2893b5914d5
small 20 rm feasible 182 0 9610e98357a45095
small 20 dm feasible 182 0 1ff1aa0afd3e79d5
small 20 tc feasible 182 0 19f9013c1c6a8575
small 20 dc feasible 182 0 b2a7e71fc607cfb5
small 21 lex infeasible 70 88 -
small 21 rm infeasible 51 66 -
small 21 dm infeasible 47 62 -
small 21 tc infeasible 49 64 -
small 21 dc infeasible 46 61 -
small 22 lex infeasible 169 193 -
small 22 rm infeasible 186 213 -
small 22 dm infeasible 208 254 -
small 22 tc infeasible 150 177 -
small 22 dc infeasible 141 165 -
small 23 lex infeasible 6 8 -
small 23 rm infeasible 6 8 -
small 23 dm infeasible 6 8 -
small 23 tc infeasible 4 6 -
small 23 dc infeasible 4 6 -
small 24 lex infeasible 128 143 -
small 24 rm infeasible 104 116 -
small 24 dm infeasible 106 121 -
small 24 tc infeasible 96 104 -
small 24 dc infeasible 96 104 -
small 25 lex feasible 222 0 8397f92f5ff91091
small 25 rm feasible 222 0 1c7cc0d759884bd1
small 25 dm unknown:DecisionLimit 20001 23366 -
small 25 tc feasible 222 0 5e12aac3dd231011
small 25 dc feasible 222 0 81c4813bf83630d1
small 26 lex infeasible 7430 8486 -
small 26 rm infeasible 7470 8526 -
small 26 dm infeasible 7192 8248 -
small 26 tc infeasible 7373 8562 -
small 26 dc infeasible 7014 8069 -
small 27 lex unknown:DecisionLimit 20001 22812 -
small 27 rm unknown:DecisionLimit 20001 22065 -
small 27 dm unknown:DecisionLimit 20001 21904 -
small 27 tc unknown:DecisionLimit 20001 22107 -
small 27 dc unknown:DecisionLimit 20001 22153 -
small 28 lex feasible 178 0 8f939d00c8759932
small 28 rm feasible 178 0 f1fbce2a19187552
small 28 dm feasible 178 0 98d53e7668089ad2
small 28 tc feasible 178 0 378764a645cce772
small 28 dc feasible 178 0 6374a3c3f067d5d2
small 29 lex feasible 195 0 c7e30e7eb466289c
small 29 rm feasible 195 0 e9b35ddae85e3d7c
small 29 dm feasible 195 0 48c6022738b1d95c
small 29 tc feasible 195 0 ba7b07fc2f23421c
small 29 dc feasible 195 0 30292d595df7491c
small 30 lex unknown:DecisionLimit 20001 24670 -
small 30 rm unknown:DecisionLimit 20001 25599 -
small 30 dm unknown:DecisionLimit 20001 25421 -
small 30 tc unknown:DecisionLimit 20001 25850 -
small 30 dc unknown:DecisionLimit 20001 26321 -
small 31 lex infeasible 31 36 -
small 31 rm infeasible 33 38 -
small 31 dm infeasible 35 40 -
small 31 tc infeasible 27 31 -
small 31 dc infeasible 27 31 -
small 32 lex feasible 187 0 e79c11984ed0827f
small 32 rm feasible 187 0 913d5f6cd688947f
small 32 dm feasible 187 0 de68c0842a34331f
small 32 tc feasible 187 0 5b9ff57d578b207f
small 32 dc feasible 187 0 09b3e72626bafa1f
small 33 lex feasible 193 0 87f1a7da0697834d
small 33 rm feasible 193 0 6424394f5449010d
small 33 dm feasible 193 0 d373df0038caa6cd
small 33 tc feasible 193 0 3cc58f53ee71c40d
small 33 dc feasible 193 0 29ceaa62837fae2d
small 34 lex feasible 169 0 460eb7c1318577ee
small 34 rm feasible 169 0 e48818173f3a792e
small 34 dm feasible 169 0 acbd5f2e29371c2e
small 34 tc feasible 169 0 0cc8783f336184ce
small 34 dc feasible 169 0 813cf7ce15daa30e
small 35 lex infeasible 439 504 -
small 35 rm infeasible 400 465 -
small 35 dm infeasible 391 457 -
small 35 tc infeasible 361 440 -
small 35 dc infeasible 330 390 -
small 36 lex infeasible 277 339 -
small 36 rm infeasible 286 348 -
small 36 dm infeasible 246 308 -
small 36 tc infeasible 267 311 -
small 36 dc infeasible 240 278 -
small 37 lex feasible 117 0 bfb59d3eb045606e
small 37 rm feasible 117 1 280656ca58b856ee
small 37 dm feasible 123 9 011b4fe03f290b6e
small 37 tc feasible 117 0 124be8514144a5ce
small 37 dc feasible 117 0 2dbe63f849c1030e
small 38 lex feasible 238 6 c461520bfd49a2d5
small 38 rm feasible 240 8 532c4f657657d6b5
small 38 dm feasible 239 6 0aca7c2614e20075
small 38 tc feasible 238 6 316612cbddb33275
small 38 dc feasible 238 5 1cee8e0570712075
small 39 lex infeasible 22 26 -
small 39 rm infeasible 24 27 -
small 39 dm infeasible 23 26 -
small 39 tc infeasible 22 25 -
small 39 dc infeasible 20 22 -
";
