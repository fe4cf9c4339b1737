//! Multi-worker drain determinism: several concurrent workers — including
//! one SIGKILLed mid-shard and restarted — must reconstruct exactly the
//! record set of a single-process `campaign run`. This is the acceptance
//! property of the distributed queue, stated over the canonical export
//! (wall-clock fields normalized — they are measurements, not results).
//!
//! "Killed mid-shard" is simulated at the storage + lease layer, which is
//! where a SIGKILL actually bites: the dead worker leaves (a) record
//! lines of a shard that never reached its checkpoint, (b) a truncated
//! trailing record line in its own segment, and (c) a stale lease whose
//! heartbeat stops. Live workers must ignore (a) and (b) via the loader
//! and reclaim (c) after expiry.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use proptest::prelude::*;

use mgrts_bench::campaign::{
    canonical_store_export, compact, report, run_fresh, CampaignError, CampaignOptions, Manifest,
    ReportKind,
};
use mgrts_bench::queue::{
    dispatch, now_unix_ms, run_worker, status, Lease, WorkerOptions, LEASE_DIR,
};
use mgrts_core::engine::CancelGroup;

fn manifest(seed: u64, shard_size: usize) -> Manifest {
    Manifest::parse(&format!(
        r#"
[campaign]
name = "queue-prop"
seed = {seed}
time_limit_ms = 5000
instances_per_cell = 4
shard_size = {shard_size}

[grid]
n = [3, 4]
m = [2]
t_max = [4]
solvers = ["csp2-dc", "csp2-rm", "sat"]
"#
    ))
    .expect("valid manifest")
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mgrts-queue-mw-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wopts(id: &str, max_shards: Option<u64>) -> WorkerOptions {
    WorkerOptions {
        id: id.to_string(),
        threads: 2,
        lease_ttl: Duration::from_millis(300),
        poll: Duration::from_millis(20),
        max_shards,
        progress: false,
    }
}

/// Leave the debris a SIGKILL mid-commit leaves in a worker's own
/// segment — record lines of a shard that never reached its checkpoint
/// (so the hash appears in no checkpoint segment), then a truncated
/// line — plus the dead worker's stale lease on the shard it was solving
/// (`victim`), heartbeat long stopped.
fn simulate_kill_mid_shard(store: &Path, worker: &str, victim: &str) {
    let mut raw = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(store.join(format!("records-{worker}.jsonl")))
        .expect("worker segment");
    let stale = r#"{"shard":"deadbeefdeadbeef","cell":0,"instance":0,"global_instance":0,"solver":"Csp1","outcome":"Solved","time_us":1,"ratio":0.5,"filtered":false,"m":2,"n":3,"t_max":4,"hetero":false,"hyperperiod":12,"seed":1}"#;
    writeln!(raw, "{stale}").unwrap();
    write!(raw, "{}", &stale[..stale.len() / 2]).unwrap();
    let lease = Lease {
        shard: victim.to_string(),
        worker: worker.to_string(),
        nonce: 1,
        heartbeat_unix_ms: now_unix_ms().saturating_sub(10_000),
        ttl_ms: 300,
    };
    std::fs::create_dir_all(store.join(LEASE_DIR)).unwrap();
    std::fs::write(
        store.join(LEASE_DIR).join(format!("{victim}.lease")),
        serde_json::to_string(&lease).unwrap(),
    )
    .unwrap();
}

proptest! {
    // Each case runs one single-process campaign plus a multi-worker
    // drain; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn concurrent_workers_with_kill_match_single_process_run(
        seed in 0u64..1_000,
        shard_size in 1usize..=6,
    ) {
        let m = manifest(seed, shard_size);
        let reference = tmp(&format!("ref-{seed}-{shard_size}"));
        let shared = tmp(&format!("dist-{seed}-{shard_size}"));

        // Single-process reference run.
        let full = run_fresh(
            &m,
            &reference,
            &CampaignOptions { threads: 2, progress: false, max_shards: None },
            &CancelGroup::new(),
        )
        .unwrap();
        prop_assert!(full.summary.completed);

        // Distributed drain: dispatch, let worker w1 "die" mid-shard
        // (one committed shard, then kill debris + a stale lease on the
        // next pending shard), then two live workers — one of them the
        // restarted w1 — drain concurrently.
        dispatch(&m, &shared, false).unwrap();
        let dead = run_worker(&shared, &wopts("w1", Some(1)), &CancelGroup::new()).unwrap();
        prop_assert!(dead.shards_committed >= 1);
        let done = mgrts_bench::sink::load_done_shards(&shared).unwrap();
        let victim = m
            .plan()
            .into_iter()
            .find(|s| !done.contains(&s.hash))
            .map(|s| s.hash)
            .expect("a pending shard remains after the partial drain");
        simulate_kill_mid_shard(&shared, "w1", &victim);

        let shared_a = shared.clone();
        let shared_b = shared.clone();
        let a = std::thread::spawn(move || {
            run_worker(&shared_a, &wopts("w1", None), &CancelGroup::new()).unwrap()
        });
        let b = std::thread::spawn(move || {
            run_worker(&shared_b, &wopts("w2", None), &CancelGroup::new()).unwrap()
        });
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        prop_assert!(ra.summary.completed);
        prop_assert!(rb.summary.completed);

        let st = status(&shared).unwrap();
        prop_assert!(st.complete);
        prop_assert!(st.leases.is_empty(), "leases left behind: {:?}", st.leases);

        let want = canonical_store_export(&reference).unwrap();
        let got = canonical_store_export(&shared).unwrap();
        prop_assert!(!want.is_empty());
        prop_assert_eq!(
            &want, &got,
            "multi-worker record set diverged (seed {}, shard_size {})",
            seed, shard_size
        );

        // Compaction drops the dead worker's stale copies without
        // changing the believable record set, and is idempotent.
        let before = got;
        let c1 = compact(&shared).unwrap();
        prop_assert_eq!(canonical_store_export(&shared).unwrap(), before.clone());
        prop_assert_eq!(
            std::fs::read_to_string(shared.join("canonical.jsonl")).unwrap(),
            before.clone()
        );
        let c2 = compact(&shared).unwrap();
        prop_assert_eq!(c1.records, c2.records);
        prop_assert_eq!(c2.segments_merged, 0, "second compact found segments");
        prop_assert_eq!(canonical_store_export(&shared).unwrap(), before);

        std::fs::remove_dir_all(&reference).ok();
        std::fs::remove_dir_all(&shared).ok();
    }
}

#[test]
fn dispatch_is_idempotent_and_guards_fingerprints() {
    let m = manifest(7, 4);
    let dir = tmp("dispatch");
    let first = dispatch(&m, &dir, false).unwrap();
    assert!(first.initialized);
    let again = dispatch(&m, &dir, false).unwrap();
    assert!(!again.initialized, "joining must not clear the store");
    // A different campaign over the same store is refused...
    let other = manifest(8, 4);
    assert!(dispatch(&other, &dir, false).is_err());
    // ...unless --fresh clears it.
    let fresh = dispatch(&other, &dir, true).unwrap();
    assert!(fresh.initialized);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_refuses_an_undispatched_store() {
    let dir = tmp("undispatched");
    std::fs::create_dir_all(&dir).unwrap();
    let err = run_worker(&dir, &wopts("w1", None), &CancelGroup::new());
    assert!(err.is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_refuses_a_store_whose_verdicts_split() {
    let dir = tmp("split");
    dispatch(&manifest(5, 64), &dir, false).unwrap();
    run_worker(&dir, &wopts("w1", None), &CancelGroup::new()).unwrap();
    // Flip one backend's Solved record: its unit now splits Solved /
    // ProvedInfeasible between backends, as a buggy backend would.
    let segment = dir.join("records-w1.jsonl");
    let text = std::fs::read_to_string(&segment).unwrap();
    let flipped = text.replacen("\"Solved\"", "\"ProvedInfeasible\"", 1);
    assert_ne!(flipped, text, "the campaign solved no instance");
    std::fs::write(&segment, flipped).unwrap();
    // The store is drained, so this worker only summarizes it.
    let err = run_worker(&dir, &wopts("w2", None), &CancelGroup::new()).unwrap_err();
    assert!(matches!(err, CampaignError::Conflicts(_)), "{err}");
    assert!(err.to_string().contains("VERDICT CONFLICT"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hetero_report_renders_unsupported_counts() {
    let m = Manifest::parse(
        r#"
[campaign]
name = "hetero-report"
seed = 11
time_limit_ms = 5000
instances_per_cell = 2

[grid]
n = [3]
m = [2]
t_max = [4]
hetero = [true]
solvers = ["csp2-dc", "csp2-generic"]
"#,
    )
    .unwrap();
    let dir = tmp("hetero");
    run_fresh(
        &m,
        &dir,
        &CampaignOptions {
            threads: 1,
            progress: false,
            max_shards: None,
        },
        &CancelGroup::new(),
    )
    .unwrap();
    let out = report(&dir, ReportKind::Hetero).unwrap();
    assert!(out.contains("HETERO"), "{out}");
    assert!(out.contains("hetero=true"), "{out}");
    assert!(out.contains("unsupported"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance criterion at full smoke scale: two workers drain
/// `bench/manifests/smoke.toml` concurrently, one of them killed after
/// its first shard and restarted, and the canonical export matches the
/// single-process `campaign run`'s.
///
/// One caveat is inherent to the *workload*, not the queue: the smoke
/// campaign deliberately uses a tight 1 s **wall-clock** budget on hard
/// instances, so whether a borderline run classifies as a decided
/// verdict or `Overrun` is machine- and load-dependent across any two
/// independent executions — single-process re-runs included. That is the
/// exact noise model the perf gate tolerates ("budget straddles"). The
/// sound property is therefore: identical unit sets, records identical
/// in every field except for outcome exchanges where one side is
/// `Overrun` — and *byte-identical* exports whenever no run straddled
/// (the property test above pins byte-identity under comfortable
/// budgets, where straddling cannot occur).
///
/// Minutes of solver time — ignored by default, runnable with
/// `cargo test --release -p mgrts-bench --test queue_multiworker -- --ignored`;
/// the CI `bench-smoke` job covers the same scale with real SIGKILLed
/// worker processes and the straddle-tolerant `gate` comparison.
#[test]
#[ignore = "smoke-scale acceptance; run with -- --ignored (minutes of solver time)"]
fn two_workers_drain_the_smoke_manifest_match_single_process() {
    use mgrts_bench::sink::CampaignRecord;
    use mgrts_bench::InstanceOutcome;
    use std::collections::BTreeMap;

    let smoke = Manifest::load(Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/manifests/smoke.toml"
    )))
    .unwrap();
    let reference = tmp("smoke-ref");
    let shared = tmp("smoke-dist");
    run_fresh(
        &smoke,
        &reference,
        &CampaignOptions::default(),
        &CancelGroup::new(),
    )
    .unwrap();

    dispatch(&smoke, &shared, false).unwrap();
    let dead = run_worker(&shared, &wopts("w1", Some(1)), &CancelGroup::new()).unwrap();
    assert!(dead.shards_committed >= 1);
    let done = mgrts_bench::sink::load_done_shards(&shared).unwrap();
    let victim = smoke
        .plan()
        .into_iter()
        .find(|s| !done.contains(&s.hash))
        .map(|s| s.hash)
        .expect("a pending shard remains after the partial drain");
    simulate_kill_mid_shard(&shared, "w1", &victim);
    let shared_a = shared.clone();
    let shared_b = shared.clone();
    let a = std::thread::spawn(move || {
        run_worker(&shared_a, &wopts("w1", None), &CancelGroup::new()).unwrap()
    });
    let b = std::thread::spawn(move || {
        run_worker(&shared_b, &wopts("w2", None), &CancelGroup::new()).unwrap()
    });
    assert!(a.join().unwrap().summary.completed);
    assert!(b.join().unwrap().summary.completed);

    let want = canonical_store_export(&reference).unwrap();
    let got = canonical_store_export(&shared).unwrap();
    let by_unit = |export: &str| -> BTreeMap<(usize, u64, String), CampaignRecord> {
        export
            .lines()
            .map(|l| serde_json::from_str::<CampaignRecord>(l).expect("canonical line"))
            .map(|r| ((r.cell, r.instance, r.solver.name().to_string()), r))
            .collect()
    };
    let (ra, rb) = (by_unit(&want), by_unit(&got));
    assert_eq!(
        ra.keys().collect::<Vec<_>>(),
        rb.keys().collect::<Vec<_>>(),
        "distributed drain covered a different unit set"
    );
    let mut straddles = 0u32;
    for (key, a) in &ra {
        let b = &rb[key];
        if a == b {
            continue;
        }
        // Only the outcome may differ, and only as a budget straddle:
        // one side decided, the other ran out of wall clock.
        let mut a_with_b_outcome = a.clone();
        a_with_b_outcome.outcome = b.outcome;
        assert_eq!(
            &a_with_b_outcome, b,
            "non-outcome divergence at {key:?} — a real determinism bug"
        );
        assert!(
            a.outcome == InstanceOutcome::Overrun || b.outcome == InstanceOutcome::Overrun,
            "verdict flip without an Overrun side at {key:?}: {:?} vs {:?}",
            a.outcome,
            b.outcome
        );
        straddles += 1;
    }
    eprintln!("smoke drain: {straddles} budget-straddle exchange(s) between runs");
    if straddles == 0 {
        assert_eq!(want, got, "no straddles, exports must be byte-identical");
        assert_eq!(
            report(&reference, ReportKind::Table1).unwrap(),
            report(&shared, ReportKind::Table1).unwrap()
        );
    }
    std::fs::remove_dir_all(&reference).ok();
    std::fs::remove_dir_all(&shared).ok();
}
