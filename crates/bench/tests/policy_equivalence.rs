//! Execution-policy acceptance properties.
//!
//! 1. **Race/single parity** (proptest): a `portfolio-race` campaign over
//!    a deterministic exact roster yields, per `(cell, instance)` unit, a
//!    verdict identical to the best single-solver outcome of the same
//!    workload — straddle-tolerant, the same noise model as the queue
//!    multiworker test (under the comfortable budgets used here no run
//!    straddles, so the verdicts must actually be equal).
//! 2. **Adaptive budgets**: the quantile wrapper falls back to the
//!    manifest limit on an empty store and engages (recording
//!    `budget_source: Adaptive`) once a resume sees enough decided
//!    samples. The quantile math itself is pinned by unit tests in
//!    `mgrts_bench::policy`.
//! 3. **Backward compatibility**: a pre-policy (PR ≤ 4) segment file —
//!    record and checkpoint lines without the `policy` / `winner` /
//!    `budget_source` / `unix_ms` fields — still loads, with defaults.
//! 4. **All three policies end-to-end** at unit scale, including a
//!    dispatch/worker drain of a racing campaign with a partial
//!    ("killed") worker plus a fresh one resuming it.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;

use mgrts_bench::campaign::{
    parity, report, resume, run_fresh, CampaignOptions, Manifest, ReportKind,
};
use mgrts_bench::policy::{AdaptiveSpec, BudgetSource, PolicyKind};
use mgrts_bench::queue::{dispatch, run_worker, status, WorkerOptions};
use mgrts_bench::sink::{load_records, LocalStore, RecordStore};
use mgrts_bench::InstanceOutcome;
use mgrts_core::engine::CancelGroup;

fn manifest(name: &str, seed: u64, policy_section: &str) -> Manifest {
    Manifest::parse(&format!(
        r#"
[campaign]
name = "{name}"
seed = {seed}
time_limit_ms = 5000
instances_per_cell = 3
shard_size = 4

[grid]
n = [3, 4]
m = [2]
t_max = [4]
solvers = ["csp2-dc", "csp1", "sat"]
{policy_section}
"#
    ))
    .expect("valid manifest")
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mgrts-policy-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(threads: usize) -> CampaignOptions {
    CampaignOptions {
        threads,
        progress: false,
        max_shards: None,
    }
}

proptest! {
    // Each case runs one sequential and one racing campaign.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn race_verdicts_match_the_best_single_solver(seed in 0u64..1_000) {
        let single = manifest("parity-single", seed, "");
        let race = manifest("parity-race", seed, "[policy]\nmode = \"portfolio-race\"\n");
        prop_assert_eq!(single.workload_fingerprint(), race.workload_fingerprint());
        prop_assert_ne!(single.fingerprint(), race.fingerprint());

        let single_dir = tmp(&format!("parity-single-{seed}"));
        let race_dir = tmp(&format!("parity-race-{seed}"));
        let s = run_fresh(&single, &single_dir, &opts(2), &CancelGroup::new()).unwrap();
        let r = run_fresh(&race, &race_dir, &opts(2), &CancelGroup::new()).unwrap();
        prop_assert!(s.summary.completed);
        prop_assert!(r.summary.completed);
        // Racing collapses the solver axis: one unit per (cell, instance).
        prop_assert_eq!(r.summary.records, 2 * 3);
        prop_assert_eq!(s.summary.records, 2 * 3 * 3);

        let gate = parity(&race_dir, &single_dir).unwrap();
        prop_assert!(gate.ok, "parity failed:\n{}", gate.lines.join("\n"));

        // Per unit, the race verdict must equal every decided single-solver
        // verdict — straddle-tolerant: a pair where either side ran out of
        // wall clock is timing noise (CSP1's randomized search can
        // legitimately exhaust 5 s proving infeasibility), exactly the
        // tolerance of the queue multiworker test.
        let race_records = load_records(&race_dir).unwrap();
        let single_records = load_records(&single_dir).unwrap();
        for rr in &race_records {
            prop_assert_eq!(rr.policy_kind(), PolicyKind::PortfolioRace);
            // Flow settles every identical race alone.
            prop_assert!(rr
                .backends
                .as_ref()
                .is_some_and(|b| b.len() == 1 && b[0].name == "flow" && b[0].winner));
            prop_assert_eq!(rr.winner.as_deref(), Some("flow"));
            let decided = |o: InstanceOutcome| {
                matches!(o, InstanceOutcome::Solved | InstanceOutcome::ProvedInfeasible)
            };
            for sr in single_records
                .iter()
                .filter(|sr| sr.cell == rr.cell && sr.instance == rr.instance)
            {
                if decided(sr.outcome) && decided(rr.outcome) {
                    prop_assert_eq!(sr.outcome, rr.outcome,
                        "cell {} instance {}: race {:?} vs single {:?}",
                        rr.cell, rr.instance, rr.outcome, sr.outcome);
                }
            }
            if decided(rr.outcome) {
                prop_assert!(rr.winner.is_some(), "decided race unit without a winner");
            }
        }
        // The winners report renders a row per cell and counts every unit.
        let winners = report(&race_dir, ReportKind::Winners).unwrap();
        prop_assert!(winners.contains("WINNERS"), "{}", winners);
        prop_assert!(winners.contains("n=3/m=2/tmax=4"), "{}", winners);
        prop_assert!(winners.contains("flow"), "{}", winners);

        std::fs::remove_dir_all(&single_dir).ok();
        std::fs::remove_dir_all(&race_dir).ok();
    }
}

#[test]
fn adaptive_budgets_engage_on_resume_with_samples() {
    let m = manifest(
        "adaptive",
        42,
        "[policy]\nadaptive_quantile = 0.9\nadaptive_min_samples = 1\n",
    );
    assert_eq!(m.policy.mode, PolicyKind::Single);
    assert_eq!(
        m.policy.adaptive,
        Some(AdaptiveSpec {
            quantile: 0.9,
            min_samples: 1
        })
    );
    let dir = tmp("adaptive");
    // Fresh start: the store is empty when the policy snapshots it, so
    // every unit runs under the manifest limit.
    let partial = run_fresh(
        &m,
        &dir,
        &CampaignOptions {
            threads: 1,
            progress: false,
            max_shards: Some(1),
        },
        &CancelGroup::new(),
    )
    .unwrap();
    assert!(!partial.summary.completed);
    let first = load_records(&dir).unwrap();
    assert!(!first.is_empty());
    assert!(first
        .iter()
        .all(|r| r.budget_src() == BudgetSource::Manifest));

    // Resume: the policy snapshot now holds decided samples for the first
    // invocation's cells, so their remaining units run under the quantile
    // allowance — and because the policy re-snapshots on every shard
    // claim, cells first sampled *during the resume itself* may also go
    // adaptive once their own decided records land.
    let resumed = resume(&dir, &opts(1), &CancelGroup::new()).unwrap();
    assert!(resumed.summary.completed);
    let records = load_records(&dir).unwrap();
    let adaptive_cells: Vec<usize> = records
        .iter()
        .filter(|r| r.budget_src() == BudgetSource::Adaptive)
        .map(|r| r.cell)
        .collect();
    assert!(
        !adaptive_cells.is_empty(),
        "no unit recorded an adaptive budget after resume"
    );
    // An adaptive allowance is only ever derived from decided,
    // manifest-budget samples of the same cell (whichever invocation
    // recorded them).
    for cell in &adaptive_cells {
        assert!(
            records.iter().any(|r| r.cell == *cell
                && r.budget_src() == BudgetSource::Manifest
                && matches!(
                    r.outcome,
                    InstanceOutcome::Solved | InstanceOutcome::ProvedInfeasible
                )),
            "cell {cell} went adaptive without decided samples"
        );
    }
    // The pre-refresh guarantee still holds: every cell the first
    // invocation decided under the manifest budget goes adaptive on
    // resume (its samples are visible in the resume's very first
    // snapshot).
    for r in first.iter().filter(|r| {
        matches!(
            r.outcome,
            InstanceOutcome::Solved | InstanceOutcome::ProvedInfeasible
        )
    }) {
        assert!(
            adaptive_cells.contains(&r.cell),
            "cell {} had decided samples before the resume but never went adaptive",
            r.cell
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pre_policy_segment_files_load_with_defaults() {
    // Verbatim pre-PR-5 on-disk lines: no policy / winner / budget_source
    // / cancel_latency_us / backends on the record, no unix_ms on the
    // checkpoint.
    let dir = tmp("compat");
    std::fs::create_dir_all(&dir).unwrap();
    let mut records = std::fs::File::create(dir.join("records.jsonl")).unwrap();
    writeln!(
        records,
        r#"{{"shard":"00000000000000aa","cell":0,"instance":0,"global_instance":0,"solver":"Csp1","outcome":"Solved","time_us":123,"ratio":0.5,"filtered":false,"m":2,"n":3,"t_max":4,"hetero":false,"hyperperiod":12,"seed":7}}"#
    )
    .unwrap();
    writeln!(
        records,
        r#"{{"shard":"00000000000000aa","cell":0,"instance":1,"global_instance":1,"solver":{{"Csp2":"DeadlineMinusWcet"}},"outcome":"Overrun","time_us":999,"ratio":1.2,"filtered":true,"m":2,"n":3,"t_max":4,"hetero":false,"hyperperiod":12,"seed":8}}"#
    )
    .unwrap();
    let mut checkpoint = std::fs::File::create(dir.join("checkpoint.jsonl")).unwrap();
    writeln!(checkpoint, r#"{{"shard":"00000000000000aa","records":2}}"#).unwrap();

    let store = LocalStore::open(&dir).unwrap();
    assert_eq!(store.done_shards().unwrap().len(), 1);
    let loaded = store.load_records().unwrap();
    assert_eq!(loaded.len(), 2, "old lines must deserialize");
    for r in &loaded {
        assert_eq!(r.policy, None);
        assert_eq!(r.policy_kind(), PolicyKind::Single, "defaults to single");
        assert_eq!(r.budget_source, None);
        assert_eq!(r.budget_src(), BudgetSource::Manifest);
        assert_eq!(r.winner, None);
        assert_eq!(r.cancel_latency_us, None);
        assert!(r.backends.is_none());
    }
    assert_eq!(loaded[0].time_us, 123);
    // Untimestamped checkpoints contribute no throughput samples.
    let times = store.writer_checkpoints().unwrap();
    assert_eq!(times.len(), 1);
    assert!(
        times[0].1.is_empty(),
        "old checkpoint lines have no unix_ms"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn racing_campaign_drains_distributed_with_a_partial_worker() {
    let m = manifest("race-dist", 7, "[policy]\nmode = \"portfolio-race\"\n");
    let shared = tmp("race-dist");
    dispatch(&m, &shared, false).unwrap();
    let wopts = |id: &str, max: Option<u64>| WorkerOptions {
        id: id.to_string(),
        threads: 2,
        lease_ttl: Duration::from_millis(300),
        poll: Duration::from_millis(20),
        max_shards: max,
        progress: false,
    };
    // A worker commits one shard and exits (the "killed" incarnation)...
    let dead = run_worker(&shared, &wopts("w1", Some(1)), &CancelGroup::new()).unwrap();
    assert_eq!(dead.shards_committed, 1);
    assert!(!dead.summary.completed);
    // ...and a fresh worker resumes the plan to completion.
    let alive = run_worker(&shared, &wopts("w2", None), &CancelGroup::new()).unwrap();
    assert!(alive.summary.completed);
    let st = status(&shared).unwrap();
    assert!(st.complete);
    assert_eq!(st.records, 2 * 3);
    assert!(st.leases.is_empty());
    // Worker rates derive from timestamped checkpoints (both workers
    // committed, so both report samples).
    assert_eq!(st.rates.len(), 2);
    assert!(st.rates.iter().all(|r| r.shards > 0));
    assert_eq!(st.eta.shards_remaining, 0);
    assert_eq!(st.eta.eta_ms, None, "complete campaign has no ETA");
    // Summary of a racing campaign is the single `portfolio` row.
    assert_eq!(alive.summary.solvers.len(), 1);
    assert_eq!(alive.summary.solvers[0].0, "portfolio");
    std::fs::remove_dir_all(&shared).ok();
}

#[test]
fn worker_rates_feed_a_live_eta() {
    // Drain only part of the plan so shards remain, then inspect status
    // while the worker's presence lease is still fresh on disk: the live
    // worker's measured rate must produce a finite ETA.
    let m = manifest("eta", 11, "");
    let shared = tmp("eta");
    dispatch(&m, &shared, false).unwrap();
    let w = WorkerOptions {
        id: "w-eta".to_string(),
        threads: 1,
        lease_ttl: Duration::from_secs(60),
        poll: Duration::from_millis(20),
        max_shards: Some(2),
        progress: false,
    };
    run_worker(&shared, &w, &CancelGroup::new()).unwrap();
    // Re-plant the presence lease the finished worker released, as if it
    // were still attached and between shards.
    let board =
        mgrts_bench::queue::LeaseBoard::open(&shared, "w-eta", Duration::from_secs(60)).unwrap();
    assert!(board
        .try_claim(&mgrts_bench::queue::presence_key("w-eta"))
        .unwrap());
    // Let the rate window (first commit → now) grow past clock granularity.
    std::thread::sleep(Duration::from_millis(10));
    let st = status(&shared).unwrap();
    assert!(!st.complete);
    assert!(st.eta.shards_remaining > 0);
    assert_eq!(st.eta.live_workers, 1);
    assert!(st.eta.aggregate_shards_per_min > 0.0);
    let eta_ms = st.eta.eta_ms.expect("live rate implies an ETA");
    assert!(eta_ms > 0);
    // The JSON surface for orchestrators carries the same numbers.
    let json = serde_json::to_string(&st).unwrap();
    assert!(json.contains("\"eta\""), "{json}");
    assert!(json.contains("\"shards_remaining\""), "{json}");
    assert!(json.contains("\"aggregate_shards_per_min\""), "{json}");
    std::fs::remove_dir_all(&shared).ok();
}

#[test]
fn policy_manifests_round_trip_and_reshard() {
    let single = manifest("rt", 1, "");
    let race = manifest("rt", 1, "[policy]\nmode = \"portfolio-race\"\n");
    let adaptive = manifest(
        "rt",
        1,
        "[policy]\nmode = \"portfolio-race\"\nadaptive_quantile = 0.75\nadaptive_min_samples = 4\n",
    );
    for m in [&single, &race, &adaptive] {
        let back = Manifest::parse(&m.to_toml()).unwrap();
        assert_eq!(&back, m, "canonical TOML must round-trip the policy");
    }
    // Distinct fingerprints ⇒ distinct shard plans (policy changes
    // re-shard), while the workload stays shared.
    assert_ne!(single.fingerprint(), race.fingerprint());
    assert_ne!(race.fingerprint(), adaptive.fingerprint());
    assert_eq!(single.workload_fingerprint(), race.workload_fingerprint());
    assert_ne!(single.plan()[0].hash, race.plan()[0].hash);
    // The racing plan has one unit per (cell, instance).
    assert_eq!(race.total_runs(), 2 * 3);
    assert_eq!(single.total_runs(), 2 * 3 * 3);
    // Malformed policy sections are rejected.
    for bad in [
        "[policy]\nmode = \"nonsense\"\n",
        "[policy]\nadaptive_quantile = 1.5\n",
        "[policy]\nadaptive_quantile = 0\n",
        "[policy]\nadaptive_min_samples = 3\n",
    ] {
        let text = format!(
            "[campaign]\nname = \"x\"\ninstances_per_cell = 1\n\
             [grid]\nn = [2]\nm = [2]\nt_max = [3]\nsolvers = [\"csp1\"]\n{bad}"
        );
        assert!(Manifest::parse(&text).is_err(), "accepted: {bad}");
    }
    // Existing stores resume and dedupe on these bytes: the committed
    // manifests' fingerprints and shard plans under each policy never move.
    let manifests = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/manifests");
    let single = "mode = \"single\"";
    let race = "mode = \"portfolio-race\"";
    let adaptive = "mode = \"portfolio-race\"\nadaptive_quantile = 0.9";
    let smoke_fp = "seed=2009;limit_ms=1000;per_cell=24;shard=24;max_shard_ms=none;scan=200000;cells=[n=10/m=5/tmax=7/u=*/hetero=false];roster=[csp1,csp2,csp2-rm,csp2-dm,csp2-tc,csp2-dc]";
    let hetero_fp = "seed=2009;limit_ms=1000;per_cell=8;shard=8;max_shard_ms=none;scan=200000;cells=[n=10/m=5/tmax=7/u=*/hetero=true];roster=[csp1,csp2,csp2-rm,csp2-dm,csp2-tc,csp2-dc]";
    let pinned = [
        (
            "smoke.toml",
            single,
            smoke_fp.to_string(),
            6,
            "6acb171100bc82d3",
            "519d6cac4479957e",
        ),
        (
            "smoke.toml",
            race,
            format!("{smoke_fp};policy=portfolio-race"),
            1,
            "a2f0628332fab4a7",
            "a2f0628332fab4a7",
        ),
        (
            "smoke.toml",
            adaptive,
            format!("{smoke_fp};policy=portfolio-race+adaptive(q=0.9,min=8)"),
            1,
            "69e1fd81b1a90467",
            "69e1fd81b1a90467",
        ),
        (
            "hetero_smoke.toml",
            single,
            hetero_fp.to_string(),
            6,
            "9e90c9300b61b2fc",
            "7865f93e2f7847aa",
        ),
        (
            "hetero_smoke.toml",
            race,
            format!("{hetero_fp};policy=portfolio-race"),
            1,
            "deeb6babd37c55b0",
            "deeb6babd37c55b0",
        ),
        (
            "hetero_smoke.toml",
            adaptive,
            format!("{hetero_fp};policy=portfolio-race+adaptive(q=0.9,min=8)"),
            1,
            "30558733d1944118",
            "30558733d1944118",
        ),
    ];
    for (file, policy, fingerprint, shards, first, last) in pinned {
        let text = std::fs::read_to_string(format!("{manifests}/{file}")).unwrap();
        let m = Manifest::parse(&format!("{text}\n[policy]\n{policy}\n")).unwrap();
        assert_eq!(m.fingerprint(), fingerprint, "{file} under {policy}");
        let plan = m.plan();
        assert_eq!(plan.len(), shards, "{file} under {policy}");
        assert_eq!(plan[0].hash, first, "{file} under {policy}");
        assert_eq!(plan[shards - 1].hash, last, "{file} under {policy}");
    }
}
