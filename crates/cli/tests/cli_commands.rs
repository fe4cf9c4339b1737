//! End-to-end tests of the CLI command functions, driven in-process with
//! temp files.

use std::io::Write;

use mgrts_cli::{run_command, Args, CliError};

fn args(tokens: &[&str]) -> Args {
    Args::parse(tokens.iter().map(ToString::to_string)).unwrap()
}

/// Write the paper's running example as an instance file.
fn example_file(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("example.json");
    let mut f = std::fs::File::create(&path).unwrap();
    write!(
        f,
        r#"{{"tasks":[
            {{"offset":0,"wcet":1,"deadline":2,"period":2}},
            {{"offset":1,"wcet":3,"deadline":4,"period":4}},
            {{"offset":0,"wcet":2,"deadline":2,"period":3}}
        ]}}"#
    )
    .unwrap();
    path
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mgrts-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn solve_every_solver_on_the_running_example() {
    let dir = tmpdir("solve");
    let file = example_file(&dir);
    let path = file.to_str().unwrap();
    for solver in [
        "csp1",
        "csp2",
        "csp2-generic",
        "sat",
        "local",
        "local-tabu",
        "local-sa",
    ] {
        let out = run_command("solve", &args(&[path, "--m", "2", "--solver", solver])).unwrap();
        assert!(out.starts_with("FEASIBLE"), "{solver}: {out}");
    }
}

#[test]
fn solve_reports_infeasible() {
    let dir = tmpdir("infeasible");
    let path = dir.join("overload.json");
    std::fs::write(
        &path,
        r#"{"tasks":[
            {"offset":0,"wcet":1,"deadline":1,"period":2},
            {"offset":0,"wcet":1,"deadline":1,"period":2},
            {"offset":0,"wcet":1,"deadline":1,"period":2}
        ]}"#,
    )
    .unwrap();
    let out = run_command("solve", &args(&[path.to_str().unwrap(), "--m", "2"])).unwrap();
    assert!(out.starts_with("INFEASIBLE"), "{out}");
}

#[test]
fn solve_gantt_and_json_render() {
    let dir = tmpdir("render");
    let file = example_file(&dir);
    let path = file.to_str().unwrap();
    let out = run_command("solve", &args(&[path, "--m", "2", "--gantt", "--json"])).unwrap();
    assert!(out.contains("FEASIBLE"));
    assert!(out.contains("P1"), "gantt output expected: {out}");
    assert!(out.contains("\"grid\""), "schedule json expected");
}

#[test]
fn analyze_prints_report() {
    let dir = tmpdir("analyze");
    let file = example_file(&dir);
    let out = run_command("analyze", &args(&[file.to_str().unwrap(), "--m", "2"])).unwrap();
    assert!(out.contains("verdict"));
    assert!(out.contains("density"));
}

#[test]
fn generate_then_solve_roundtrip() {
    let generated = run_command(
        "generate",
        &args(&[
            "--n", "4", "--tmax", "4", "--count", "3", "--seed", "9", "--m", "2",
        ]),
    )
    .unwrap();
    let lines: Vec<&str> = generated.trim().lines().collect();
    assert_eq!(lines.len(), 3);
    let dir = tmpdir("roundtrip");
    for (i, line) in lines.iter().enumerate() {
        let path = dir.join(format!("inst{i}.json"));
        std::fs::write(&path, line).unwrap();
        // m embedded in the generated problem: no --m needed.
        let out = run_command("solve", &args(&[path.to_str().unwrap()])).unwrap();
        assert!(
            out.starts_with("FEASIBLE") || out.starts_with("INFEASIBLE"),
            "{out}"
        );
    }
}

#[test]
fn generate_auto_m_uses_utilization_bound() {
    let out = run_command(
        "generate",
        &args(&[
            "--n", "5", "--tmax", "5", "--m", "auto", "--count", "4", "--seed", "2",
        ]),
    )
    .unwrap();
    for line in out.trim().lines() {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        let m = v["m"].as_u64().unwrap();
        assert!(m >= 1);
        // m = ⌈U⌉ implies the utilization filter passes.
        let tasks = v["taskset"]["tasks"].as_array().unwrap();
        let u: f64 = tasks
            .iter()
            .map(|t| t["wcet"].as_u64().unwrap() as f64 / t["period"].as_u64().unwrap() as f64)
            .sum();
        assert!(m as f64 >= u - 1e-9, "m={m} below U={u}");
    }
}

#[test]
fn gantt_with_m_appends_schedule() {
    let dir = tmpdir("gantt-m");
    let file = example_file(&dir);
    let out = run_command("gantt", &args(&[file.to_str().unwrap(), "--m", "2"])).unwrap();
    assert!(out.contains("P1"), "schedule rows expected: {out}");
    // Infeasible processor count renders the fallback note.
    let out1 = run_command("gantt", &args(&[file.to_str().unwrap(), "--m", "1"])).unwrap();
    assert!(out1.contains("no feasible schedule"), "{out1}");
}

#[test]
fn min_m_finds_two_for_the_example() {
    let dir = tmpdir("minm");
    let file = example_file(&dir);
    let out = run_command("min-m", &args(&[file.to_str().unwrap()])).unwrap();
    assert!(out.contains("minimal m = 2"), "{out}");
}

#[test]
fn gantt_shows_intervals() {
    let dir = tmpdir("gantt");
    let file = example_file(&dir);
    let out = run_command("gantt", &args(&[file.to_str().unwrap()])).unwrap();
    // Figure 1 content: three task rows over H = 12.
    assert!(
        out.contains("τ1") || out.contains("t1") || out.contains("T1"),
        "{out}"
    );
}

#[test]
fn prob_reports_miss_probability() {
    let dir = tmpdir("prob");
    let file = example_file(&dir);
    let out = run_command(
        "prob",
        &args(&[
            file.to_str().unwrap(),
            "--m",
            "2",
            "--overrun-p",
            "0.25",
            "--rounds",
            "2000",
        ]),
    )
    .unwrap();
    assert!(out.contains("exact hyperperiod miss probability"));
    assert!(out.contains("monte-carlo"));
}

#[test]
fn verify_accepts_solver_output_and_rejects_tampering() {
    let dir = tmpdir("verify");
    let file = example_file(&dir);
    let path = file.to_str().unwrap();
    let out = run_command("solve", &args(&[path, "--m", "2", "--json", "--quiet"])).unwrap();
    let json = out.lines().nth(1).expect("schedule json line");
    let sched_path = dir.join("schedule.json");
    std::fs::write(&sched_path, json).unwrap();
    let ok = run_command(
        "verify",
        &args(&[path, "--schedule", sched_path.to_str().unwrap()]),
    )
    .unwrap();
    assert!(ok.starts_with("VALID"), "{ok}");

    // Tamper: blank out instant 0 on both processors.
    let mut schedule: mgrts_core::Schedule = serde_json::from_str(json).unwrap();
    schedule.set(0, 0, None);
    schedule.set(1, 0, None);
    std::fs::write(&sched_path, serde_json::to_string(&schedule).unwrap()).unwrap();
    let bad = run_command(
        "verify",
        &args(&[path, "--schedule", sched_path.to_str().unwrap()]),
    )
    .unwrap();
    assert!(bad.starts_with("INVALID"), "{bad}");
}

#[test]
fn unknown_command_and_usage() {
    let err = run_command("frobnicate", &args(&[])).unwrap_err();
    assert!(matches!(err, CliError::Other(_)));
    let usage = run_command("help", &args(&[])).unwrap();
    assert!(usage.contains("solve"));
    assert!(usage.contains("generate"));
}

#[test]
fn missing_m_is_a_clear_error() {
    let dir = tmpdir("nom");
    let file = example_file(&dir);
    let err = run_command("solve", &args(&[file.to_str().unwrap()])).unwrap_err();
    assert!(err.to_string().contains("--m"), "{err}");
}

#[test]
fn zero_processors_is_a_clear_error() {
    let dir = tmpdir("zero-m");
    let file = example_file(&dir);
    let path = file.to_str().unwrap();
    let embedded = dir.join("embedded-zero.json");
    std::fs::write(
        &embedded,
        r#"{"taskset":{"tasks":[{"offset":0,"wcet":1,"deadline":2,"period":2}]},"m":0,"seed":1}"#,
    )
    .unwrap();
    let embedded = embedded.to_str().unwrap();
    for argv in [
        vec!["solve", path, "--m", "0"],
        vec!["solve", path, "--m", "0", "--solver", "sat"],
        vec!["solve", embedded],
        vec!["portfolio", path, "--m", "0"],
        vec!["gantt", path, "--m", "0"],
        vec!["gantt", embedded],
    ] {
        let err = run_command(argv[0], &args(&argv[1..])).unwrap_err();
        assert!(
            err.to_string().contains("m must be positive"),
            "{argv:?}: {err}"
        );
    }
}

#[test]
fn portfolio_races_default_roster() {
    let dir = tmpdir("portfolio");
    let file = example_file(&dir);
    let path = file.to_str().unwrap();
    let out = run_command("portfolio", &args(&[path, "--m", "2"])).unwrap();
    assert!(out.starts_with("FEASIBLE"), "{out}");
    assert!(out.contains("winner: "), "{out}");
    // Per-backend stats table lists the whole default roster.
    for name in ["csp2-dc", "csp1", "sat", "csp2-generic", "local"] {
        assert!(out.contains(name), "missing backend {name} in:\n{out}");
    }
}

#[test]
fn portfolio_with_explicit_roster_and_infeasible_instance() {
    let dir = tmpdir("portfolio-roster");
    let path = dir.join("overload.json");
    std::fs::write(
        &path,
        r#"{"tasks":[
            {"offset":0,"wcet":1,"deadline":1,"period":2},
            {"offset":0,"wcet":1,"deadline":1,"period":2},
            {"offset":0,"wcet":1,"deadline":1,"period":2}
        ]}"#,
    )
    .unwrap();
    let out = run_command(
        "portfolio",
        &args(&[
            path.to_str().unwrap(),
            "--m",
            "2",
            "--solvers",
            "csp1,csp2-dc,sat",
        ]),
    )
    .unwrap();
    assert!(out.starts_with("INFEASIBLE"), "{out}");
    assert!(out.contains("winner: "), "{out}");
    assert!(out.contains("csp2-dc"), "{out}");
}

/// A tiny campaign manifest for the bench-command tests.
fn campaign_manifest(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("mini.toml");
    std::fs::write(
        &path,
        r#"
[campaign]
name = "mini"
seed = 7
time_limit_ms = 2000
instances_per_cell = 3
shard_size = 2

[grid]
n = [3]
m = [2]
t_max = [4]
solvers = ["csp2-dc", "sat"]
"#,
    )
    .unwrap();
    path
}

#[test]
fn bench_campaign_run_report_and_resume() {
    let dir = tmpdir("bench-campaign");
    let manifest = campaign_manifest(&dir);
    let store = dir.join("store");
    let out = run_command(
        "bench",
        &args(&[
            "campaign",
            "run",
            "--manifest",
            manifest.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--quiet",
        ]),
    )
    .unwrap();
    assert!(out.contains("campaign mini"), "{out}");
    assert!(out.contains("(complete)"), "{out}");
    assert!(store.join("records.jsonl").exists());
    assert!(store.join("BENCH_mini.json").exists());

    let report = run_command(
        "bench",
        &args(&[
            "campaign",
            "report",
            "table1",
            "--out",
            store.to_str().unwrap(),
        ]),
    )
    .unwrap();
    assert!(report.contains("TABLE I"), "{report}");
    assert!(report.contains("TABLE II"), "{report}");

    // Resuming a complete campaign is a no-op.
    let resumed = run_command(
        "bench",
        &args(&[
            "campaign",
            "resume",
            "--out",
            store.to_str().unwrap(),
            "--quiet",
        ]),
    )
    .unwrap();
    assert!(resumed.contains("0 shard(s) committed"), "{resumed}");
}

#[test]
fn bench_campaign_dispatch_worker_status_compact() {
    let dir = tmpdir("bench-queue");
    let manifest = campaign_manifest(&dir);
    let store = dir.join("shared");
    let dispatched = run_command(
        "bench",
        &args(&[
            "campaign",
            "dispatch",
            "--manifest",
            manifest.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
        ]),
    )
    .unwrap();
    assert!(dispatched.contains("initialized"), "{dispatched}");
    assert!(dispatched.contains("shard(s) planned"), "{dispatched}");

    // Before any worker: incomplete, no leases.
    let idle = run_command(
        "bench",
        &args(&["campaign", "status", "--out", store.to_str().unwrap()]),
    )
    .unwrap();
    assert!(idle.contains("shards 0/"), "{idle}");
    assert!(idle.contains("0 lease(s) in flight"), "{idle}");

    // One worker drains the whole campaign.
    let worked = run_command(
        "bench",
        &args(&[
            "campaign",
            "worker",
            "--out",
            store.to_str().unwrap(),
            "--id",
            "cli-w1",
            "--threads",
            "2",
            "--poll-ms",
            "20",
            "--quiet",
        ]),
    )
    .unwrap();
    assert!(worked.contains("(complete)"), "{worked}");
    assert!(worked.contains("worker cli-w1"), "{worked}");
    assert!(store.join("records-cli-w1.jsonl").exists());
    assert!(store.join("BENCH_mini.json").exists());

    let status = run_command(
        "bench",
        &args(&["campaign", "status", "--out", store.to_str().unwrap()]),
    )
    .unwrap();
    assert!(status.contains("(complete)"), "{status}");
    assert!(status.contains("cli-w1"), "{status}");

    // A second dispatch of the same manifest joins without clearing.
    let joined = run_command(
        "bench",
        &args(&[
            "campaign",
            "dispatch",
            "--manifest",
            manifest.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
        ]),
    )
    .unwrap();
    assert!(joined.contains("joined"), "{joined}");

    // Compact merges the worker segment into the canonical pair.
    let compacted = run_command(
        "bench",
        &args(&["campaign", "compact", "--out", store.to_str().unwrap()]),
    )
    .unwrap();
    assert!(
        compacted.contains("1 worker segment(s) merged"),
        "{compacted}"
    );
    assert!(!store.join("records-cli-w1.jsonl").exists());
    assert!(store.join("records.jsonl").exists());
    assert!(store.join("canonical.jsonl").exists());

    // Reports still render over the compacted store, including hetero
    // (this grid has no hetero cells — the report must say so).
    let hetero = run_command(
        "bench",
        &args(&[
            "campaign",
            "report",
            "hetero",
            "--out",
            store.to_str().unwrap(),
        ]),
    )
    .unwrap();
    assert!(hetero.contains("no heterogeneous cells"), "{hetero}");
}

#[test]
fn bench_campaign_gate_passes_self_and_fails_regression() {
    let dir = tmpdir("bench-gate");
    let manifest = campaign_manifest(&dir);
    let store = dir.join("store");
    run_command(
        "bench",
        &args(&[
            "campaign",
            "run",
            "--manifest",
            manifest.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--quiet",
        ]),
    )
    .unwrap();
    let summary = store.join("BENCH_mini.json");
    let ok = run_command(
        "bench",
        &args(&[
            "campaign",
            "gate",
            "--summary",
            summary.to_str().unwrap(),
            "--baseline",
            summary.to_str().unwrap(),
        ]),
    )
    .unwrap();
    assert!(ok.starts_with("PERF GATE PASS"), "{ok}");

    // A baseline claiming everything ran instantly must fail the gate.
    let text = std::fs::read_to_string(&summary).unwrap();
    let tampered_text: String = text
        .lines()
        .map(|l| {
            if l.contains("\"wall_ms\"") {
                "  \"wall_ms\": 0,".to_string()
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let tampered = dir.join("tampered.json");
    std::fs::write(&tampered, tampered_text).unwrap();
    let err = run_command(
        "bench",
        &args(&[
            "campaign",
            "gate",
            "--summary",
            summary.to_str().unwrap(),
            "--baseline",
            tampered.to_str().unwrap(),
        ]),
    );
    // Fails only if this invocation took any measurable time; the verdict
    // path is what we assert on either way.
    if let Err(e) = err {
        assert!(e.to_string().contains("PERF GATE FAIL"), "{e}");
    }
}

#[test]
fn bench_rejects_malformed_invocations() {
    let err = run_command("bench", &args(&["campaign", "frobnicate"])).unwrap_err();
    assert!(err.to_string().contains("unknown campaign verb"), "{err}");
    let err = run_command("bench", &args(&["portfolio"])).unwrap_err();
    assert!(matches!(err, CliError::Other(_)));
    let err = run_command("bench", &args(&["campaign", "run"])).unwrap_err();
    assert!(err.to_string().contains("manifest"), "{err}");
}

#[test]
fn portfolio_rejects_unknown_solver_name() {
    let dir = tmpdir("portfolio-bad");
    let file = example_file(&dir);
    let err = run_command(
        "portfolio",
        &args(&[file.to_str().unwrap(), "--m", "2", "--solvers", "quantum"]),
    )
    .unwrap_err();
    assert!(matches!(err, CliError::Other(_)), "{err:?}");
}

#[test]
fn client_rejects_malformed_invocations() {
    let err = run_command("client", &args(&[])).unwrap_err();
    assert!(err.to_string().contains("verb"), "{err}");
    let err = run_command("client", &args(&["frobnicate"])).unwrap_err();
    assert!(err.to_string().contains("unknown client verb"), "{err}");
    let err = run_command("client", &args(&["poll"])).unwrap_err();
    assert!(err.to_string().contains("ticket"), "{err}");
    let err = run_command("client", &args(&["solve"])).unwrap_err();
    assert!(err.to_string().contains("instance"), "{err}");
    // An unreachable server fails within the bounded retry window.
    let err = run_command(
        "client",
        &args(&["stats", "--addr", "127.0.0.1:1", "--connect-ms", "1"]),
    )
    .unwrap_err();
    assert!(err.to_string().contains("cannot connect"), "{err}");
}

#[test]
fn client_round_trips_against_in_process_server() {
    let dir = tmpdir("client-serve");
    let file = example_file(&dir);
    let server = mgrts_bench::serve::Server::start(mgrts_bench::serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.join("serve-data"),
        ..Default::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    // Two sequential requests on one connection: a miss, then a hit.
    let out = run_command(
        "client",
        &args(&[
            "solve",
            file.to_str().unwrap(),
            "--addr",
            &addr,
            "--m",
            "2",
            "--solver",
            "csp2-dc",
            "--count",
            "2",
        ]),
    )
    .unwrap();
    let responses: Vec<serde_json::Value> = out
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(responses.len(), 2, "{out}");
    assert_eq!(responses[0]["cache"].as_str(), Some("miss"), "{out}");
    assert_eq!(responses[1]["cache"].as_str(), Some("hit"), "{out}");

    let stats = run_command("client", &args(&["stats", "--json", "--addr", &addr])).unwrap();
    let stats: serde_json::Value = serde_json::from_str(stats.trim()).unwrap();
    assert_eq!(stats["type"].as_str(), Some("stats"));
    assert_eq!(stats["cache_hits"].as_u64(), Some(1));

    // Without --json the same counters render as an aligned listing.
    let listing = run_command("client", &args(&["stats", "--addr", &addr])).unwrap();
    assert!(listing.contains("cache_hits"), "{listing}");
    assert!(!listing.contains('{'), "{listing}");

    // The metrics verb prints the Prometheus exposition body directly.
    let metrics = run_command("client", &args(&["metrics", "--addr", &addr])).unwrap();
    assert!(
        metrics.contains("# TYPE mgrts_serve_requests_total counter"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mgrts_serve_cache_hits_total 1"),
        "{metrics}"
    );
    server.shutdown();
}
