//! End-to-end tests of the resident serve loop over real TCP: in-flight
//! dedupe (exactly one solve for concurrent identical requests),
//! malformed-line resilience, admission control, the queue-spill + poll
//! path, and cache persistence across a server restart.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mgrts_bench::serve::{ServeConfig, Server};
use serde_json::Value;

/// Serialize the tests in this binary: the fault-injection case installs
/// a process-global fault plan that would panic any *other* test's solve
/// while it is active.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mgrts-serve-{tag}-{}-{:?}",
        std::process::id(),
        Instant::now()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(tag: &str) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: tmp_dir(tag),
        workers: 2,
        queue_cap: 16,
        default_budget_ms: 2_000,
        spill_tasks: 64,
        spill_budget_ms: 60_000,
        solve_delay_ms: 0,
        slow_ms: 0,
        job_retries: 2,
        deadline_slack_ms: 30_000,
    }
}

fn taskset_json() -> String {
    use serde::Serialize;
    serde_json::to_string(&rt_task::TaskSet::running_example().to_value()).unwrap()
}

fn solve_line(extra: &str) -> String {
    format!(
        "{{\"type\":\"solve\",\"taskset\":{},\"m\":2,\"solver\":\"csp2-dc\"{extra}}}",
        taskset_json()
    )
}

/// One request/response exchange on a fresh connection.
fn exchange(addr: std::net::SocketAddr, line: &str) -> Value {
    let stream = TcpStream::connect(addr).expect("connect");
    exchange_on(&stream, line)
}

/// One request/response exchange on an existing connection.
fn exchange_on(stream: &TcpStream, line: &str) -> Value {
    let mut out = stream.try_clone().expect("clone stream");
    out.write_all(format!("{line}\n").as_bytes()).expect("send");
    out.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("response line");
    serde_json::from_str(&response).expect("response parses")
}

#[test]
fn concurrent_identical_requests_coalesce_onto_one_solve() {
    let _serial = serial();
    let mut cfg = config("dedupe");
    cfg.solve_delay_ms = 300; // hold the in-flight window open
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    let threads: Vec<_> = (0..3)
        .map(|_| {
            let line = solve_line("");
            std::thread::spawn(move || exchange(addr, &line))
        })
        .collect();
    let responses: Vec<Value> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    let mut tags: Vec<String> = responses
        .iter()
        .map(|r| {
            assert_eq!(r["type"].as_str(), Some("result"), "got {r:?}");
            assert_eq!(r["outcome"].as_str(), Some("Solved"), "got {r:?}");
            r["cache"].as_str().unwrap().to_string()
        })
        .collect();
    tags.sort();
    // One creator, two coalesced joiners — and exactly one engine run.
    assert_eq!(tags, vec!["inflight", "inflight", "miss"]);
    assert_eq!(server.stats().solves, 1);

    // A repeat after settling is a store hit, still without a new solve.
    let repeat = exchange(addr, &solve_line(""));
    assert_eq!(repeat["cache"].as_str(), Some("hit"));
    assert_eq!(server.stats().solves, 1);
    server.shutdown();
}

#[test]
fn malformed_lines_get_errors_without_disconnect() {
    let _serial = serial();
    let server = Server::start(config("malformed")).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();

    let err = exchange_on(&stream, "this is not json");
    assert_eq!(err["type"].as_str(), Some("error"));
    let err = exchange_on(&stream, "{\"type\":\"solve\",\"m\":2}");
    assert_eq!(err["type"].as_str(), Some("error"));

    // The same connection still serves valid requests afterwards.
    let ok = exchange_on(&stream, &solve_line(""));
    assert_eq!(ok["type"].as_str(), Some("result"));
    assert_eq!(ok["outcome"].as_str(), Some("Solved"));

    let stats = exchange_on(&stream, "{\"type\":\"stats\"}");
    assert_eq!(stats["type"].as_str(), Some("stats"));
    assert_eq!(stats["errors"].as_u64(), Some(2));
    server.shutdown();
}

#[test]
fn invalid_taskset_gets_an_error_reply() {
    let _serial = serial();
    let server = Server::start(config("bad-taskset")).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    // `wcet > deadline`: the task set fails validation while parsing, so
    // no backend ever sees it.
    let err = exchange_on(
        &stream,
        r#"{"type":"solve","taskset":{"tasks":[{"offset":0,"wcet":3,"deadline":2,"period":4}]},"m":1}"#,
    );
    assert_eq!(err["type"].as_str(), Some("error"), "got {err:?}");
    let msg = err["error"].as_str().unwrap_or_default();
    assert!(
        msg.contains("bad `taskset`") && msg.contains("exceeds deadline"),
        "got {err:?}"
    );
    assert_eq!(server.stats().solves, 0);
    server.shutdown();
}

#[test]
fn oversized_request_resolves_via_spill_and_poll() {
    let _serial = serial();
    let mut cfg = config("spill");
    cfg.spill_tasks = 1; // every instance is "oversized"
    let data_dir = cfg.data_dir.clone();
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    let ticket_resp = exchange(addr, &solve_line(""));
    assert_eq!(
        ticket_resp["type"].as_str(),
        Some("ticket"),
        "{ticket_resp:?}"
    );
    let ticket = ticket_resp["ticket"].as_str().unwrap().to_string();
    assert_eq!(ticket_resp["status"].as_str(), Some("queued"));

    // Poll until the heavy worker settles it.
    let deadline = Instant::now() + Duration::from_secs(20);
    let done = loop {
        let poll = exchange(
            addr,
            &format!("{{\"type\":\"poll\",\"ticket\":\"{ticket}\"}}"),
        );
        assert_eq!(poll["type"].as_str(), Some("poll"), "{poll:?}");
        if poll["status"].as_str() == Some("done") {
            break poll;
        }
        assert!(Instant::now() < deadline, "spill job never settled");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(done["outcome"].as_str(), Some("Solved"));

    // The settled spill is now an ordinary cache hit.
    let repeat = exchange(addr, &solve_line(""));
    assert_eq!(repeat["type"].as_str(), Some("result"));
    assert_eq!(repeat["cache"].as_str(), Some("hit"));

    // Unknown tickets are structured errors.
    let unknown = exchange(addr, "{\"type\":\"poll\",\"ticket\":\"00000000000000aa\"}");
    assert_eq!(unknown["type"].as_str(), Some("error"));

    server.shutdown();
    // Clean shutdown leaves no leases behind.
    let leases = mgrts_bench::queue::list_leases(&data_dir.join("leases")).unwrap();
    assert!(leases.is_empty(), "orphaned leases: {leases:?}");
}

#[test]
fn full_queue_rejects_with_overloaded() {
    let _serial = serial();
    let mut cfg = config("overload");
    cfg.workers = 1;
    cfg.queue_cap = 1;
    cfg.solve_delay_ms = 400;
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // Four distinct requests (seed separates keys). Write them all before
    // reading any response, so they contend for the single queue slot
    // while the lone worker sits in its 400 ms delay.
    let streams: Vec<TcpStream> = (0..4)
        .map(|i| {
            let stream = TcpStream::connect(addr).unwrap();
            let line = solve_line(&format!(",\"seed\":{}", i + 1));
            (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            stream
        })
        .collect();
    let mut kinds: Vec<String> = streams
        .iter()
        .map(|s| {
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v: Value = serde_json::from_str(&line).unwrap();
            v["type"].as_str().unwrap().to_string()
        })
        .collect();
    kinds.sort();
    assert!(
        kinds.iter().any(|k| k == "overloaded"),
        "expected an admission rejection, got {kinds:?}"
    );
    assert!(server.stats().rejected >= 1);
    server.shutdown();
}

#[test]
fn metrics_request_returns_parseable_exposition() {
    let _serial = serial();
    let server = Server::start(config("metrics")).unwrap();
    let addr = server.addr();

    // Drive some traffic first so the counters are non-zero: one solve
    // (a cache miss) plus a stats probe.
    let first = exchange(addr, &solve_line(""));
    assert_eq!(first["type"].as_str(), Some("result"), "{first:?}");
    exchange(addr, "{\"type\":\"stats\"}");

    let resp = exchange(addr, "{\"type\":\"metrics\"}");
    assert_eq!(resp["type"].as_str(), Some("metrics"), "{resp:?}");
    assert_eq!(
        resp["content_type"].as_str(),
        Some("text/plain; version=0.0.4")
    );
    let body = resp["body"].as_str().expect("metrics body");

    // Structural checks of the exposition: every non-comment line is
    // `name{labels} value` with a finite numeric value.
    let mut names = std::collections::HashSet::new();
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').expect(line);
        let v: f64 = value.parse().expect(line);
        assert!(v.is_finite(), "{line}");
        let name = name_part.split(['{', ' ']).next().unwrap();
        names.insert(name.to_string());
    }

    // Request counter saw the traffic above.
    let requests = body
        .lines()
        .find(|l| l.starts_with("mgrts_serve_requests_total "))
        .expect("requests counter");
    let count: f64 = requests.rsplit_once(' ').unwrap().1.parse().unwrap();
    assert!(count >= 2.0, "{requests}");

    // Queue gauges and at least one latency histogram are exposed.
    assert!(names.contains("mgrts_serve_queue_depth"), "{names:?}");
    assert!(names.contains("mgrts_serve_heavy_queue_depth"), "{names:?}");
    assert!(
        body.contains("# TYPE mgrts_serve_request_duration_us histogram"),
        "{body}"
    );
    assert!(
        body.lines()
            .any(|l| l.starts_with("mgrts_serve_request_duration_us_bucket{le=\"+Inf\"}")),
        "{body}"
    );

    // Cache hits have their own server-side latency histogram.
    assert!(
        body.contains("# TYPE mgrts_serve_hit_duration_us histogram"),
        "{body}"
    );
    assert!(
        body.lines()
            .any(|l| l.starts_with("mgrts_serve_hit_duration_us_bucket{le=\"+Inf\"}")),
        "{body}"
    );

    // Per-solver search telemetry appears once an engine has run.
    assert!(body.contains("mgrts_solver_solves_total{solver="), "{body}");
    server.shutdown();
}

/// The `stats` key, metric name and `# TYPE` of every serve counter and
/// gauge: the wire protocol both surfaces promise.
const STATS_AS_METRICS: [(&str, &str, &str); 13] = [
    ("requests", "mgrts_serve_requests_total", "counter"),
    ("solves", "mgrts_serve_solves_total", "counter"),
    ("cache_hits", "mgrts_serve_cache_hits_total", "counter"),
    ("cache_misses", "mgrts_serve_cache_misses_total", "counter"),
    (
        "inflight_hits",
        "mgrts_serve_inflight_hits_total",
        "counter",
    ),
    ("rejected", "mgrts_serve_rejected_total", "counter"),
    ("spilled", "mgrts_serve_spilled_total", "counter"),
    ("polls", "mgrts_serve_polls_total", "counter"),
    ("errors", "mgrts_serve_errors_total", "counter"),
    ("failed", "mgrts_serve_failed_total", "counter"),
    ("queue_depth", "mgrts_serve_queue_depth", "gauge"),
    ("heavy_depth", "mgrts_serve_heavy_queue_depth", "gauge"),
    ("engines_cached", "mgrts_serve_engines_cached", "gauge"),
];

#[test]
fn stats_and_metrics_report_the_same_counters() {
    let _serial = serial();
    let server = Server::start(config("agree")).unwrap();
    let addr = server.addr();

    // Mixed traffic: a miss, a hit, a poll and a malformed line.
    let miss = exchange(addr, &solve_line(""));
    assert_eq!(miss["cache"].as_str(), Some("miss"), "{miss:?}");
    let hit = exchange(addr, &solve_line(""));
    assert_eq!(hit["cache"].as_str(), Some("hit"), "{hit:?}");
    let ticket = miss["ticket"].as_str().unwrap();
    exchange(
        addr,
        &format!("{{\"type\":\"poll\",\"ticket\":\"{ticket}\"}}"),
    );
    exchange(addr, "{not json");

    // Quiescent now: only the two probes below still count, as requests.
    let stats = exchange(addr, "{\"type\":\"stats\"}");
    let metrics = exchange(addr, "{\"type\":\"metrics\"}");
    let body = metrics["body"].as_str().expect("metrics body");
    let Value::Object(fields) = &stats else {
        panic!("stats reply is not an object: {stats:?}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = std::iter::once("type")
        .chain(STATS_AS_METRICS.iter().map(|(key, _, _)| *key))
        .collect();
    assert_eq!(keys, expected);
    for (key, metric, kind) in STATS_AS_METRICS {
        assert!(
            body.contains(&format!("\n# TYPE {metric} {kind}\n")),
            "{metric} is not a {kind}:\n{body}"
        );
        let sample = body
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{metric} ")))
            .unwrap_or_else(|| panic!("no {metric} sample:\n{body}"));
        let mut want = stats[key].as_u64().expect(key);
        if key == "requests" {
            want += 1; // the metrics request itself
        }
        assert_eq!(sample.parse::<u64>().ok(), Some(want), "{key} vs {metric}");
    }
    assert_eq!(stats["polls"].as_u64(), Some(1));
    assert_eq!(stats["errors"].as_u64(), Some(1));
    assert_eq!(stats["engines_cached"].as_u64(), Some(1));
    server.shutdown();
}

#[test]
fn slow_request_threshold_logs_and_dumps_flight_recording() {
    let _serial = serial();
    let mut cfg = config("slowlog");
    cfg.slow_ms = 1; // everything qualifies as slow
    let data_dir = cfg.data_dir.clone();
    cfg.solve_delay_ms = 5;
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();
    let resp = exchange(addr, &solve_line(""));
    assert_eq!(resp["type"].as_str(), Some("result"), "{resp:?}");
    let ticket = resp["ticket"].as_str().unwrap().to_string();
    server.shutdown();

    // The flight recording for the slow ticket was dumped as a store
    // artifact, and each line is a well-formed event.
    let artifact = data_dir.join(format!("flight-{ticket}.jsonl"));
    let dump = std::fs::read_to_string(&artifact).expect("flight artifact");
    assert!(!dump.trim().is_empty());
    for line in dump.lines() {
        let ev: Value = serde_json::from_str(line).expect(line);
        assert!(ev["name"].as_str().is_some(), "{line}");
    }
    assert!(dump.lines().any(|l| l.contains("request.solve")), "{dump}");
}

#[test]
fn cache_survives_restart_and_shutdown_request_stops_server() {
    let _serial = serial();
    let cfg = config("restart");
    let data_dir = cfg.data_dir.clone();
    let server = Server::start(cfg.clone()).unwrap();
    let first = exchange(server.addr(), &solve_line(""));
    assert_eq!(first["cache"].as_str(), Some("miss"));

    // A `shutdown` request acknowledges, then stops the server.
    let ack = exchange(server.addr(), "{\"type\":\"shutdown\"}");
    assert_eq!(ack["type"].as_str(), Some("ok"));
    let token = server.cancel_token();
    server.shutdown();
    assert!(token.is_cancelled());

    // A fresh server over the same store answers from the cache.
    let mut cfg2 = config("restart2");
    cfg2.data_dir = data_dir;
    let server = Server::start(cfg2).unwrap();
    let hit = exchange(server.addr(), &solve_line(""));
    assert_eq!(hit["cache"].as_str(), Some("hit"), "{hit:?}");
    assert_eq!(server.stats().solves, 0);
    server.shutdown();
}

#[test]
fn heavy_worker_panic_settles_ticket_failed_and_releases_lease() {
    let _serial = serial();
    let mut cfg = config("heavypanic");
    cfg.spill_tasks = 1; // every solve spills to the heavy queue
    cfg.job_retries = 1; // two attempts, both panic
    let data_dir = cfg.data_dir.clone();
    // Every engine execution panics under this plan — the poison job.
    let _plan = mgrts_fault::install_guarded(
        mgrts_fault::FaultPlan::parse("seed=9;engine.solve:panic:always").unwrap(),
    );
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    let ticket_resp = exchange(addr, &solve_line(""));
    assert_eq!(
        ticket_resp["type"].as_str(),
        Some("ticket"),
        "{ticket_resp:?}"
    );
    let ticket = ticket_resp["ticket"].as_str().unwrap().to_string();

    // The supervisor catches both panics, then settles the ticket as the
    // terminal `failed` — it never wedges in `pending`, and the poll
    // carries the Failed outcome.
    let deadline = Instant::now() + Duration::from_secs(20);
    let failed = loop {
        let poll = exchange(
            addr,
            &format!("{{\"type\":\"poll\",\"ticket\":\"{ticket}\"}}"),
        );
        assert_eq!(poll["type"].as_str(), Some("poll"), "{poll:?}");
        if poll["status"].as_str() == Some("failed") {
            break poll;
        }
        assert!(
            Instant::now() < deadline,
            "poison job never settled as failed: {poll:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(failed["outcome"].as_str(), Some("Failed"), "{failed:?}");
    assert!(server.stats().failed >= 1);

    // The `job-<ticket>` lease was released by the supervisor right away
    // (its TTL is 60 s — a leaked lease would still be visible here).
    let leases = mgrts_bench::queue::list_leases(&data_dir.join("leases")).unwrap();
    assert!(
        !leases.iter().any(|l| l.shard.contains(&ticket)),
        "job lease leaked past the panic: {leases:?}"
    );

    // The failure is durable: a restarted server (fault plan cleared)
    // reports the same terminal status instead of re-running the job.
    server.shutdown();
    drop(_plan);
    let mut cfg2 = config("heavypanic2");
    cfg2.data_dir = data_dir;
    let server = Server::start(cfg2).unwrap();
    let poll = exchange(
        server.addr(),
        &format!("{{\"type\":\"poll\",\"ticket\":\"{ticket}\"}}"),
    );
    assert_eq!(poll["status"].as_str(), Some("failed"), "{poll:?}");
    server.shutdown();
}

#[test]
fn undecided_race_reports_its_policy_fresh_and_after_restart() {
    let _serial = serial();
    let mut cfg = config("undecided-race");
    cfg.job_retries = 0;
    let data_dir = cfg.data_dir.clone();
    let race = format!(
        "{{\"type\":\"solve\",\"taskset\":{},\"m\":2,\"policy\":\"portfolio-race\"}}",
        taskset_json()
    );
    // Every racer panics, so the race settles `Failed` without a winner.
    let plan = mgrts_fault::install_guarded(
        mgrts_fault::FaultPlan::parse("seed=3;engine.solve:panic:always").unwrap(),
    );
    let server = Server::start(cfg).unwrap();
    let fresh = exchange(server.addr(), &race);
    assert_eq!(fresh["outcome"].as_str(), Some("Failed"), "{fresh:?}");
    assert_eq!(
        fresh["solver"].as_str(),
        Some("portfolio-race"),
        "{fresh:?}"
    );
    server.shutdown();
    drop(plan);

    // The reloaded record serves the same label.
    let mut cfg2 = config("undecided-race2");
    cfg2.data_dir = data_dir;
    let server = Server::start(cfg2).unwrap();
    let hit = exchange(server.addr(), &race);
    assert_eq!(hit["cache"].as_str(), Some("hit"), "{hit:?}");
    assert_eq!(hit["solver"].as_str(), Some("portfolio-race"), "{hit:?}");
    server.shutdown();
}
