//! The `serve` phase: `mgrts serve` started in-process on a fresh data
//! directory, with two closed-loop client connections over real TCP
//! sending `csp2-dc` requests.
//!
//! Each request is a distinct instance of the workload's generator with
//! utilization ratio `U/m` below `serve_r_max` (a generator-side property).
//! Every instance is sent once as a miss that writes to the store and once
//! more, a few requests later on the same connection, as a hit that reads
//! from the cache. Search is nearly absent, so parsing, queueing, the
//! in-memory cache and the durable store commit dominate.
//!
//! The traced run also replays the miss path in-process, timing each
//! layer call: `parse_request` → `request_key` → `EnginePool::get` →
//! solve → `verify` → `commit_shard` → `render_response`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mgrts_bench::policy::{BudgetSource, PolicyKind};
use mgrts_bench::runner::InstanceOutcome;
use mgrts_bench::serve::{
    parse_request, render_response, request_key, ticket_of, Request, ServeConfig, Server,
};
use mgrts_bench::shard::{RunUnit, Shard};
use mgrts_bench::sink::{CampaignRecord, LocalStore, RecordStore};
use mgrts_core::engine::{Budget, CancelToken, EnginePool, SolverSpec};
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::solve::{StopReason, Verdict};
use mgrts_core::verify::check_identical;
use rt_gen::{Problem, ProblemGenerator};
use serde::Serialize;
use serde_json::Value;

use crate::stats::{quantile, ratio};
use crate::trace::Tracer;
use crate::workload::Workload;
use crate::Tally;

/// The backend every request names.
pub const SPEC: SolverSpec = SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet);

/// Closed-loop client connections.
pub const CONNECTIONS: usize = 2;

/// On each connection, an instance's hit is sent this many misses after
/// its miss, so the miss has settled before the hit arrives.
const HIT_LAG: usize = 4;

/// Instances replayed in-process on the traced run.
const REPLAY_MAX: usize = 1000;

/// Instances, request lines and a started server.
pub struct Setup {
    /// The served instances.
    problems: Vec<Problem>,
    /// One request line per instance, newline-terminated.
    lines: Vec<String>,
    /// Raw generator instances scanned to find `problems`.
    scanned: u64,
    server: Server,
    data_dir: PathBuf,
}

/// Light worker threads of the server: the machine's core count.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Generate the served instances, render their request lines and start
/// the server on a fresh `data_dir`.
pub fn setup(w: &Workload, seed: u64, tracer: &Tracer, data_dir: &Path) -> std::io::Result<Setup> {
    remove_dir(data_dir)?;
    let root = tracer.span("setup.serve", 0, 0);
    let (problems, scanned) = {
        let mut sp = tracer.span("gen", 0, root.id());
        let gen = ProblemGenerator::new(w.gen, seed);
        let mut problems = Vec::new();
        let mut scanned = 0u64;
        while (problems.len() as u64) < w.serve_instances {
            let p = gen.nth(scanned);
            scanned += 1;
            if p.utilization_ratio() < w.serve_r_max {
                problems.push(p);
            }
        }
        sp.set_items(scanned);
        (problems, scanned)
    };
    let lines = {
        let _sp = tracer.span("setup.requests", 0, root.id());
        problems
            .iter()
            .map(|p| request_line(p, w.serve_budget_ms))
            .collect()
    };
    let server = {
        let _sp = tracer.span("setup.server_start", 0, root.id());
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: data_dir.to_path_buf(),
            workers: workers(),
            default_budget_ms: w.serve_budget_ms,
            ..ServeConfig::default()
        })?
    };
    Ok(Setup {
        problems,
        lines,
        scanned,
        server,
        data_dir: data_dir.to_path_buf(),
    })
}

/// Stop a set-up's server and delete its data directory.
pub fn discard(setup: Setup) -> std::io::Result<()> {
    setup.server.shutdown();
    remove_dir(&setup.data_dir)
}

fn remove_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The wire line of a `csp2-dc` solve request for `p`.
#[must_use]
pub fn request_line(p: &Problem, budget_ms: u64) -> String {
    format!(
        "{{\"type\":\"solve\",\"taskset\":{},\"m\":{},\"solver\":\"{}\",\"budget_ms\":{budget_ms},\"seed\":1}}\n",
        serde_json::to_string(&p.taskset).expect("task sets serialize"),
        p.m,
        SPEC.name()
    )
}

/// The recorded outcome of a verdict (the serve layer's taxonomy).
#[must_use]
pub fn outcome_of(verdict: &Verdict) -> InstanceOutcome {
    match verdict {
        Verdict::Feasible(_) => InstanceOutcome::Solved,
        Verdict::Infeasible => InstanceOutcome::ProvedInfeasible,
        Verdict::Unknown(StopReason::EncodingTooLarge) => InstanceOutcome::TooLarge,
        Verdict::Unknown(StopReason::Cancelled) => InstanceOutcome::Cancelled,
        Verdict::Unknown(StopReason::Unsupported) => InstanceOutcome::Unsupported,
        Verdict::Unknown(_) => InstanceOutcome::Overrun,
    }
}

/// One answered request, as the client saw it.
#[derive(Debug, Clone)]
struct Reply {
    instance: usize,
    hit: bool,
    latency_ms: f64,
    response: Value,
}

/// What the phase measured.
#[derive(Debug, Clone, Default)]
pub struct ServeRun {
    /// Raw generator instances scanned to find the served ones.
    pub scanned: u64,
    /// Requests sent.
    pub requests: u64,
    /// Summed wall seconds of the windows, first request to last response.
    pub wall_s: f64,
    /// Answered requests.
    pub answered: u64,
    /// Per window: requests answered per second.
    pub rps_by_window: Vec<f64>,
    /// Per window: p50, p90 and p99 of the misses' client latency,
    /// milliseconds.
    pub miss_by_window: Vec<[f64; 3]>,
    /// Per window: p50, p90 and p99 of the hits' client latency,
    /// milliseconds.
    pub hit_by_window: Vec<[f64; 3]>,
    /// Miss latency minus the response's own `time_us`, milliseconds.
    pub overhead_ms: Vec<f64>,
    /// Responses whose outcome differs from the direct solve only by one
    /// side running out of the wall-clock budget (not a failure).
    pub straddles: u64,
    /// The server's `stats` counters after the traffic.
    pub counters: Vec<(&'static str, u64)>,
    /// Cache reload from the store: `LocalStore::open` + `load_records`,
    /// milliseconds.
    pub load_ms: f64,
    /// Records reloaded.
    pub records_loaded: u64,
    /// Record-store bytes per committed record.
    pub bytes_per_record: f64,
}

/// The `stats` fields the phase reads back.
const COUNTERS: [&str; 6] = [
    "cache_hits",
    "cache_misses",
    "inflight_hits",
    "rejected",
    "errors",
    "engines_cached",
];

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }
}

/// The running phase: the server, its client connections and the replies
/// so far.
pub struct Session {
    setup: Setup,
    conns: Vec<Option<Conn>>,
    replies: Vec<Reply>,
    run: ServeRun,
}

impl Session {
    /// Open the client connections to the set-up's server.
    #[must_use]
    pub fn open(setup: Setup, tally: &mut Tally) -> Session {
        let addr = setup.server.addr();
        let conns = (0..CONNECTIONS)
            .map(|_| match Conn::open(addr) {
                Ok(c) => Some(c),
                Err(e) => {
                    tally.fail(format!("serve: cannot connect: {e}"));
                    None
                }
            })
            .collect();
        let run = ServeRun {
            scanned: setup.scanned,
            ..ServeRun::default()
        };
        Session {
            setup,
            conns,
            replies: Vec::new(),
            run,
        }
    }

    /// The request lines (for the traced replay).
    #[must_use]
    pub fn lines(&self) -> &[String] {
        &self.setup.lines
    }

    /// Serve instances `range` as one measurement window: each connection
    /// sends its share of them closed-loop, every instance as a miss and
    /// [`HIT_LAG`] misses later as a hit.
    pub fn chunk(&mut self, range: Range<usize>, tracer: &Tracer, tally: &mut Tally) {
        let lines = &self.setup.lines;
        let plans: Vec<Vec<(usize, bool)>> =
            (0..CONNECTIONS).map(|c| plan(range.clone(), c)).collect();
        let t0 = Instant::now();
        let results: Vec<std::io::Result<Vec<Reply>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&plans)
                .map(|(conn, plan)| {
                    scope.spawn(move || match conn {
                        Some(c) => exchange(c, lines, plan, tracer),
                        None => Err(std::io::Error::other("no connection")),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        self.run.wall_s += wall_s;
        let mut window_miss = Vec::new();
        let mut window_hit = Vec::new();
        for ((conn, plan), result) in self.conns.iter_mut().zip(&plans).zip(results) {
            self.run.requests += plan.len() as u64;
            tally.attempted += plan.len() as u64;
            let replies = match result {
                Ok(r) => r,
                Err(e) => {
                    if conn.take().is_some() {
                        tally.fail(format!("serve: connection failed: {e}"));
                    }
                    Vec::new()
                }
            };
            let unanswered = (plan.len() - replies.len()) as u64;
            if unanswered > 0 {
                tally.fail_many(
                    unanswered,
                    format!("serve: {unanswered} requests unanswered"),
                );
            }
            for r in &replies {
                if r.response["type"].as_str() != Some("result") {
                    continue; // refused or failed: counted as missing below
                }
                if r.hit {
                    window_hit.push(r.latency_ms);
                } else {
                    window_miss.push(r.latency_ms);
                    let own_ms = r.response["time_us"].as_u64().unwrap_or(0) as f64 / 1e3;
                    self.run.overhead_ms.push(r.latency_ms - own_ms);
                }
            }
            self.replies.extend(replies);
        }
        let answered = (window_miss.len() + window_hit.len()) as u64;
        self.run.answered += answered;
        self.run.rps_by_window.push(ratio(answered as f64, wall_s));
        let quantiles = |v: &[f64]| [0.5, 0.9, 0.99].map(|q| quantile(v, q));
        self.run.miss_by_window.push(quantiles(&window_miss));
        self.run.hit_by_window.push(quantiles(&window_hit));
    }

    /// Check every response against a direct solve and the server's
    /// counters against the clients' tally, stop the server and time a
    /// cache reload from its store.
    pub fn finish(mut self, w: &Workload, tally: &mut Tally) -> ServeRun {
        let expected = direct_outcomes(&self.setup.problems, w.serve_budget_ms);
        for r in &self.replies {
            let v = &r.response;
            let tag = if r.hit { "hit" } else { "miss" };
            if v["type"].as_str() != Some("result") {
                tally.fail(format!(
                    "serve: {tag} for instance {} answered {}",
                    r.instance,
                    render_response(v)
                ));
                continue;
            }
            if v["cache"].as_str() != Some(tag) {
                tally.fail(format!(
                    "serve: instance {} expected cache `{tag}`, got {:?}",
                    r.instance,
                    v["cache"].as_str()
                ));
            }
            let want = &expected[r.instance];
            if v["outcome"] == *want {
                continue;
            }
            let overrun = InstanceOutcome::Overrun.to_value();
            if v["outcome"] == overrun || *want == overrun {
                self.run.straddles += 1;
            } else {
                tally.fail(format!(
                    "serve: instance {} outcome {} but a direct {} solve gives {}",
                    r.instance,
                    render_response(&v["outcome"]),
                    SPEC.name(),
                    render_response(want)
                ));
            }
        }
        let served = self.setup.lines.len() as u64;
        let addr = self.setup.server.addr();
        check_counters(&mut self.run, addr, served, tally);
        drop(self.conns);
        let data_dir = self.setup.data_dir.clone();
        self.setup.server.shutdown();
        reload(&mut self.run, &data_dir, served, tally);
        if let Err(e) = remove_dir(&data_dir) {
            tally.fail(format!("serve: cannot remove {}: {e}", data_dir.display()));
        }
        self.run
    }
}

/// Direct `csp2-dc` solves of the served instances under the served
/// budget: the oracle every response outcome must equal.
fn direct_outcomes(problems: &[Problem], budget_ms: u64) -> Vec<Value> {
    let engine = SPEC.build();
    let budget = Budget::time_limit(Duration::from_millis(budget_ms));
    problems
        .iter()
        .map(
            |p| match engine.solve(&p.taskset, p.m, &budget, &CancelToken::new()) {
                Ok(r) => outcome_of(&r.verdict).to_value(),
                Err(e) => Value::String(format!("error: {e}")),
            },
        )
        .collect()
}

/// Request order on connection `conn` for instances `range`: its share of
/// them, each sent as a miss and again [`HIT_LAG`] misses later as a hit.
fn plan(range: Range<usize>, conn: usize) -> Vec<(usize, bool)> {
    let mine: Vec<usize> = range.filter(|i| i % CONNECTIONS == conn).collect();
    let mut seq = Vec::with_capacity(2 * mine.len());
    for (k, &inst) in mine.iter().enumerate() {
        seq.push((inst, false));
        if k >= HIT_LAG {
            seq.push((mine[k - HIT_LAG], true));
        }
    }
    for &inst in &mine[mine.len().saturating_sub(HIT_LAG)..] {
        seq.push((inst, true));
    }
    seq
}

/// Send `plan` on one connection, closed-loop: the next request only
/// after the previous response arrived.
fn exchange(
    conn: &mut Conn,
    lines: &[String],
    plan: &[(usize, bool)],
    tracer: &Tracer,
) -> std::io::Result<Vec<Reply>> {
    let mut replies = Vec::with_capacity(plan.len());
    let mut buf = String::new();
    for &(instance, hit) in plan {
        let sp = tracer.span(
            if hit { "serve.hit" } else { "serve.miss" },
            instance as u64,
            0,
        );
        let t0 = Instant::now();
        conn.writer.write_all(lines[instance].as_bytes())?;
        buf.clear();
        if conn.reader.read_line(&mut buf)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(sp);
        let response = serde_json::from_str::<Value>(&buf)
            .map_err(|e| std::io::Error::other(format!("unparseable response: {e}")))?;
        replies.push(Reply {
            instance,
            hit,
            latency_ms,
            response,
        });
    }
    Ok(replies)
}

/// Ask the server for its `stats` and check them against the client's own
/// tally: one miss and one hit per instance, nothing coalesced, rejected
/// or malformed.
fn check_counters(run: &mut ServeRun, addr: SocketAddr, instances: u64, tally: &mut Tally) {
    let stats = (|| -> std::io::Result<Value> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        s.write_all(b"{\"type\":\"stats\"}\n")?;
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line)?;
        serde_json::from_str::<Value>(&line).map_err(|e| std::io::Error::other(e.to_string()))
    })();
    let stats = match stats {
        Ok(v) => v,
        Err(e) => {
            tally.fail(format!("serve: stats request failed: {e}"));
            return;
        }
    };
    tally.attempted += 1;
    for name in COUNTERS {
        let got = stats[name].as_u64().unwrap_or(u64::MAX);
        run.counters.push((name, got));
        let want = match name {
            "cache_hits" | "cache_misses" => Some(instances),
            "inflight_hits" | "rejected" | "errors" => Some(0),
            _ => None,
        };
        if let Some(want) = want {
            if got != want {
                tally.fail(format!(
                    "serve: stats {name} = {got}, the clients expect {want}"
                ));
            }
        }
    }
}

/// Time a cache reload from the stopped server's store, and size it.
fn reload(run: &mut ServeRun, dir: &Path, instances: u64, tally: &mut Tally) {
    let t0 = Instant::now();
    let loaded = LocalStore::open(dir).and_then(|s| s.load_records());
    run.load_ms = t0.elapsed().as_secs_f64() * 1e3;
    tally.attempted += 1;
    match loaded {
        Ok(records) => {
            run.records_loaded = records.len() as u64;
            if run.records_loaded != instances {
                tally.fail(format!(
                    "serve: store holds {} records, expected one per instance ({instances})",
                    run.records_loaded
                ));
            }
        }
        Err(e) => tally.fail(format!("serve: reloading the store failed: {e}")),
    }
    run.bytes_per_record = ratio(record_bytes(dir) as f64, run.records_loaded as f64);
}

/// Bytes in the store's record segments (`records*.jsonl`).
fn record_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("records"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Replay the miss path in-process on a fresh store under `dir`, one span
/// per layer call.
pub fn replay(
    setup_lines: &[String],
    w: &Workload,
    tracer: &Tracer,
    dir: &Path,
    tally: &mut Tally,
) {
    if let Err(e) = replay_inner(setup_lines, w, tracer, dir, tally) {
        tally.fail(format!("serve replay: {e}"));
    }
    if let Err(e) = remove_dir(dir) {
        tally.fail(format!(
            "serve replay: cannot remove {}: {e}",
            dir.display()
        ));
    }
}

fn replay_inner(
    lines: &[String],
    w: &Workload,
    tracer: &Tracer,
    dir: &Path,
    tally: &mut Tally,
) -> std::io::Result<()> {
    remove_dir(dir)?;
    let store = LocalStore::open(dir)?;
    let mut writer = store.open_writer("replay")?;
    let pool = EnginePool::new();
    let budget = Budget::time_limit(Duration::from_millis(w.serve_budget_ms));
    for (j, line) in lines.iter().enumerate().take(REPLAY_MAX) {
        let trace = j as u64;
        let root = tracer.span("replay.request", trace, 0);
        tally.attempted += 1;
        let parsed = {
            let _sp = tracer.span("serve.parse", trace, root.id());
            parse_request(line.trim_end())
        };
        let Ok(Request::Solve(req)) = parsed else {
            tally.fail(format!(
                "serve replay: request {j} did not parse as a solve"
            ));
            continue;
        };
        let key = {
            let _sp = tracer.span("serve.key", trace, root.id());
            request_key(&req, w.serve_budget_ms)
        };
        let engine = {
            let _sp = tracer.span("pool.get", trace, root.id());
            pool.get(SPEC, req.seed)
        };
        let res = {
            let _sp = tracer.span("replay.solve", trace, root.id());
            engine.solve(&req.taskset, req.m, &budget, &CancelToken::new())
        };
        let res = match res {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("serve replay: request {j}: {e}"));
                continue;
            }
        };
        if let Verdict::Feasible(s) = &res.verdict {
            let _sp = tracer.span("verify", trace, root.id());
            if let Err(e) = check_identical(&req.taskset, req.m, s) {
                tally.fail(format!(
                    "serve replay: invalid schedule for request {j}: {e}"
                ));
                continue;
            }
        }
        let outcome = outcome_of(&res.verdict);
        let record = CampaignRecord {
            shard: ticket_of(key),
            cell: 0,
            instance: key,
            global_instance: key,
            solver: SPEC,
            outcome,
            time_us: res.stats.elapsed_us,
            ratio: req.taskset.utilization_ratio(req.m),
            filtered: req.taskset.utilization_exceeds(req.m),
            m: req.m,
            n: req.taskset.len(),
            t_max: req.taskset.max_period(),
            hetero: false,
            hyperperiod: req.taskset.hyperperiod().unwrap_or(0),
            seed: req.seed,
            policy: Some(PolicyKind::Single),
            winner: None,
            budget_source: Some(BudgetSource::Manifest),
            cancel_latency_us: None,
            backends: None,
            search: res.search.clone(),
        };
        let shard = Shard {
            index: 0,
            hash: ticket_of(key),
            units: vec![RunUnit {
                cell: 0,
                instance: key,
                solver: 0,
            }],
        };
        {
            let _sp = tracer.span("store.commit", trace, root.id());
            writer.commit_shard(&shard, &[record])?;
        }
        let response = Value::Object(vec![
            ("type".to_string(), Value::String("result".to_string())),
            ("ticket".to_string(), Value::String(ticket_of(key))),
            ("outcome".to_string(), outcome.to_value()),
            ("time_us".to_string(), Value::UInt(res.stats.elapsed_us)),
            ("solver".to_string(), Value::String(SPEC.name().to_string())),
            ("cache".to_string(), Value::String("miss".to_string())),
        ]);
        let _sp = tracer.span("serve.render", trace, root.id());
        std::hint::black_box(render_response(&response));
    }
    Ok(())
}
