//! `mgrts serve` — the resident feasibility service.
//!
//! Turns the batch engine into a long-running server speaking
//! line-delimited JSON over TCP: each request line is one JSON object,
//! each response line is one JSON object, connections stay open for any
//! number of exchanges. The server composes the pieces the batch stack
//! already proved out:
//!
//! * **Engine reuse** — solvers come from a shared
//!   [`EnginePool`], so construction happens once per `(spec, seed)`
//!   instead of once per request (the hoist ROADMAP item 1 calls out).
//! * **Response cache** — every settled solve is committed to the
//!   [`RecordStore`] as a single-unit shard keyed by the request's
//!   content hash; repeats are answered from the store (surviving
//!   restarts) with `"cache":"hit"`.
//! * **In-flight dedupe** — concurrent requests for the same instance
//!   coalesce onto one solve; joiners report `"cache":"inflight"`.
//! * **Admission control** — small requests run on a bounded worker
//!   pool behind a bounded queue; a full queue is an explicit
//!   `overloaded` rejection, never unbounded memory.
//! * **Queue spill** — requests above a size/budget threshold are
//!   published as store artifacts, claimed under PR-3 [`LeaseBoard`]
//!   leases by background heavy workers, and resolved by `poll`
//!   requests against the returned ticket.
//!
//! ## Protocol
//!
//! Requests (`type` selects the verb):
//!
//! ```json
//! {"type":"solve","taskset":{"tasks":[...]},"m":2,
//!  "solver":"csp2-dc","budget_ms":1000,"seed":1}
//! {"type":"solve","taskset":{"tasks":[...]},"m":2,"policy":"portfolio-race"}
//! {"type":"poll","ticket":"00f3ab..."}
//! {"type":"stats"}
//! {"type":"metrics"}
//! {"type":"shutdown"}
//! ```
//!
//! Omitting both `solver` and `policy` races the default portfolio.
//! Responses are `{"type":"result",...}` (with a `cache` field of
//! `hit` / `miss` / `inflight`), `{"type":"ticket",...}` for spilled
//! requests, `{"type":"poll",...}` (status `done`, `pending`, or the
//! terminal `failed` once a job exhausted its panic retries),
//! `{"type":"stats",...}`,
//! `{"type":"overloaded",...}` on admission rejection and
//! `{"type":"error",...}` for malformed input — a malformed line gets a
//! structured error, not a disconnect. A `metrics` request answers with
//! the server's counters, queue gauges, solve-latency histograms and
//! per-backend search telemetry in Prometheus text exposition format
//! (in the `body` field).

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value;

use mgrts_core::engine::{Budget, CancelToken, EnginePool, PlatformSpec, SolverSpec};
use mgrts_obs::{flight, render_sample, FlightRecorder, Histogram, Registry, SampleKind};
use rt_task::TaskSet;

use crate::campaign::panic_reason;
use crate::policy::{race_roster, BudgetSource, PolicyKind, UnitExecution};
use crate::queue::{list_leases, now_unix_ms, LeaseBoard, LEASE_DIR};
use crate::runner::{self, InstanceOutcome};
use crate::shard::{fnv1a, RunUnit, Shard};
use crate::sink::{CampaignRecord, LocalStore, RecordStore, ShardWriter};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tunables of one server instance (the CLI flags of `mgrts serve`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7077`. Port `0` binds an
    /// ephemeral port (tests); [`Server::addr`] reports the real one.
    pub addr: String,
    /// Record-store directory used as the response cache and the spill
    /// queue (created if missing).
    pub data_dir: PathBuf,
    /// Light worker pool size (small-request solvers).
    pub workers: usize,
    /// Admission control: pending small requests beyond this are
    /// rejected with an `overloaded` response.
    pub queue_cap: usize,
    /// Per-request wall-clock budget (ms) when the request names none.
    pub default_budget_ms: u64,
    /// Requests with more tasks than this spill to the heavy queue.
    pub spill_tasks: usize,
    /// Requests with a budget above this (ms) spill to the heavy queue.
    pub spill_budget_ms: u64,
    /// Testing knob: artificial delay (ms) inserted before every actual
    /// solve, so cache/inflight behaviour is deterministically
    /// observable. `0` in production.
    pub solve_delay_ms: u64,
    /// Slow-request threshold (ms): a solve at or above this logs one
    /// diagnosable line to stdout and dumps the flight-recorder timeline
    /// as a store artifact. `0` disables both.
    pub slow_ms: u64,
    /// Panicking or erroring solves retried this many times before the
    /// ticket settles as `failed` (tickets never wedge on a poison job).
    pub job_retries: u32,
    /// Per-request deadline slack (ms): how long past its effective
    /// budget a waiting connection holds on before giving up server-side.
    pub deadline_slack_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7077".to_string(),
            data_dir: PathBuf::from("target/serve"),
            workers: 4,
            queue_cap: 64,
            default_budget_ms: 1_000,
            spill_tasks: 12,
            spill_budget_ms: 10_000,
            solve_delay_ms: 0,
            slow_ms: 0,
            job_retries: 2,
            deadline_slack_ms: 30_000,
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// How a solve request wants to be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestMode {
    /// One named backend.
    Single(SolverSpec),
    /// Race [`SolverSpec::DEFAULT_PORTFOLIO`].
    Race,
}

impl RequestMode {
    /// Stable tag used in the content hash and in responses.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            RequestMode::Single(spec) => spec.name(),
            RequestMode::Race => "portfolio-race",
        }
    }
}

/// One parsed `solve` request.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The instance to decide.
    pub taskset: TaskSet,
    /// Processor count.
    pub m: usize,
    /// Seed for the randomized backends.
    pub seed: u64,
    /// Single backend or portfolio race.
    pub mode: RequestMode,
    /// Per-request budget override (ms).
    pub budget_ms: Option<u64>,
}

impl SolveRequest {
    /// The request's effective wall-clock budget under `default_ms`.
    #[must_use]
    pub fn effective_budget_ms(&self, default_ms: u64) -> u64 {
        self.budget_ms.unwrap_or(default_ms)
    }

    /// Serialize back to the wire shape (the spill artifact format).
    #[must_use]
    pub fn to_value(&self) -> Value {
        use serde::Serialize;
        let mut fields = vec![
            ("type".to_string(), Value::String("solve".to_string())),
            ("taskset".to_string(), self.taskset.to_value()),
            ("m".to_string(), Value::UInt(self.m as u64)),
            ("seed".to_string(), Value::UInt(self.seed)),
        ];
        match &self.mode {
            RequestMode::Single(spec) => {
                fields.push(("solver".to_string(), Value::String(spec.name().to_string())))
            }
            RequestMode::Race => fields.push((
                "policy".to_string(),
                Value::String("portfolio-race".to_string()),
            )),
        }
        if let Some(ms) = self.budget_ms {
            fields.push(("budget_ms".to_string(), Value::UInt(ms)));
        }
        Value::Object(fields)
    }
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Decide an instance.
    Solve(SolveRequest),
    /// Resolve a spill ticket.
    Poll {
        /// The ticket string from an earlier `ticket` response.
        ticket: String,
    },
    /// Server counters snapshot.
    Stats,
    /// Prometheus text exposition of the server's metrics.
    Metrics,
    /// Graceful shutdown.
    Shutdown,
}

/// Parse one request line. Errors are protocol errors to send back as
/// structured `error` responses — never a reason to drop the connection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    use serde::Deserialize;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let Some(kind) = v["type"].as_str() else {
        return Err("missing request field `type`".to_string());
    };
    match kind {
        "solve" => {
            let taskset = match v.get("taskset") {
                Some(ts) => TaskSet::from_value(ts).map_err(|e| format!("bad `taskset`: {e}"))?,
                None => return Err("solve request needs a `taskset`".to_string()),
            };
            let Some(m) = v["m"].as_u64() else {
                return Err("solve request needs a processor count `m`".to_string());
            };
            if m == 0 {
                return Err("`m` must be positive".to_string());
            }
            let seed = v["seed"].as_u64().unwrap_or(1);
            let budget_ms = v["budget_ms"].as_u64();
            let solver = match v["solver"].as_str() {
                Some(name) => Some(name.parse::<SolverSpec>()?),
                None => None,
            };
            let mode = match v["policy"].as_str() {
                Some("single") => {
                    RequestMode::Single(solver.unwrap_or(SolverSpec::DEFAULT_PORTFOLIO[0]))
                }
                Some("portfolio-race" | "portfolio" | "race") => RequestMode::Race,
                Some(other) => {
                    return Err(format!(
                        "unknown policy `{other}` (expected single|portfolio-race)"
                    ))
                }
                None => match solver {
                    Some(spec) => RequestMode::Single(spec),
                    None => RequestMode::Race,
                },
            };
            Ok(Request::Solve(SolveRequest {
                taskset,
                m: m as usize,
                seed,
                mode,
                budget_ms,
            }))
        }
        "poll" => match v["ticket"].as_str() {
            Some(t) => Ok(Request::Poll {
                ticket: t.to_string(),
            }),
            None => Err("poll request needs a `ticket`".to_string()),
        },
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown request type `{other}` (expected solve|poll|stats|metrics|shutdown)"
        )),
    }
}

/// Content hash of a solve request: the canonical task-set rendering plus
/// every field that changes the answer (platform size, execution mode,
/// effective budget, seed). Doubles as the cache key, the spill ticket
/// and the stored record's instance id.
#[must_use]
pub fn request_key(req: &SolveRequest, default_budget_ms: u64) -> u64 {
    use std::fmt::Write;
    let mut text = serde_json::to_string(&req.taskset).unwrap_or_default();
    write!(
        text,
        "|m={}|mode={}|budget_ms={}|seed={}",
        req.m,
        req.mode.tag(),
        req.effective_budget_ms(default_budget_ms),
        req.seed
    )
    .expect("writing to a String cannot fail");
    fnv1a(text.as_bytes())
}

/// Render a request key as the wire ticket (16 hex digits — the same
/// shape as a shard content hash).
#[must_use]
pub fn ticket_of(key: u64) -> String {
    format!("{key:016x}")
}

/// Parse a wire ticket back to the request key.
pub fn parse_ticket(ticket: &str) -> Result<u64, String> {
    if ticket.len() != 16 {
        return Err(format!("bad ticket `{ticket}`: expected 16 hex digits"));
    }
    u64::from_str_radix(ticket, 16).map_err(|_| format!("bad ticket `{ticket}`: not hex"))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: impl Into<String>) -> Value {
    Value::String(text.into())
}

/// Structured protocol error (the response to malformed lines).
#[must_use]
pub fn error_response(msg: &str) -> Value {
    obj(vec![("type", s("error")), ("error", s(msg))])
}

/// Render a response [`Value`] as one wire line (no trailing newline).
#[must_use]
pub fn render_response(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "{\"type\":\"error\"}".to_string())
}

// ---------------------------------------------------------------------------
// Server state
// ---------------------------------------------------------------------------

/// One settled solve, as cached in memory and in the record store.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Classified outcome.
    pub outcome: InstanceOutcome,
    /// Solve wall-clock, microseconds.
    pub time_us: u64,
    /// Backend that produced the verdict (race winner, or the single
    /// solver; the mode tag when nobody concluded).
    pub solver: String,
}

impl CachedResult {
    fn response(&self, key: u64, cache: &str) -> Value {
        use serde::Serialize;
        obj(vec![
            ("type", s("result")),
            ("ticket", s(ticket_of(key))),
            ("outcome", self.outcome.to_value()),
            ("time_us", Value::UInt(self.time_us)),
            ("solver", s(self.solver.clone())),
            ("cache", s(cache)),
        ])
    }
}

/// Declares [`ServeCounters`] and [`SERVE_METRICS`] from one list, so a
/// serve counter is named once: each row gives the field (which is also
/// the `stats` key), its exposition type, metric name and help text.
macro_rules! serve_counters {
    ($($(#[doc = $doc:literal])* $field:ident: $kind:ident, $metric:literal, $help:literal;)*) => {
        /// One consistent snapshot of the serving counters and gauges (the
        /// `stats` response, and the machine-readable surface the
        /// serve-smoke CI job asserts against).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServeCounters {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        /// Every serve counter and gauge. The `stats` response and the
        /// `metrics` exposition both render these rows, in this order,
        /// from one [`ServeStats::snapshot`].
        const SERVE_METRICS: &[ServeMetric] = &[$(ServeMetric {
            key: stringify!($field),
            metric: $metric,
            help: $help,
            kind: SampleKind::$kind,
            value: |c| c.$field,
        },)*];
    };
}

/// One row of [`SERVE_METRICS`]: the `stats` key, the exposition name,
/// help text and type, and the snapshot field it reads.
struct ServeMetric {
    key: &'static str,
    metric: &'static str,
    help: &'static str,
    kind: SampleKind,
    value: fn(&ServeCounters) -> u64,
}

serve_counters! {
    /// Request lines accepted (any verb).
    requests: Counter, "mgrts_serve_requests_total", "Request lines accepted";
    /// Actual engine executions (the dedupe instrumentation: coalesced
    /// and cached requests do not increment this).
    solves: Counter, "mgrts_serve_solves_total", "Actual engine executions";
    /// Answers served from the record-store cache.
    cache_hits: Counter, "mgrts_serve_cache_hits_total",
        "Answers served from the record-store cache";
    /// Solves actually performed for a requester (cache misses).
    cache_misses: Counter, "mgrts_serve_cache_misses_total", "Solves performed for a requester";
    /// Requests coalesced onto an in-flight solve.
    inflight_hits: Counter, "mgrts_serve_inflight_hits_total",
        "Requests coalesced onto an in-flight solve";
    /// Admission-control rejections.
    rejected: Counter, "mgrts_serve_rejected_total", "Admission-control rejections";
    /// Requests spilled to the heavy queue.
    spilled: Counter, "mgrts_serve_spilled_total", "Requests spilled to the heavy queue";
    /// Poll requests answered.
    polls: Counter, "mgrts_serve_polls_total", "Poll requests answered";
    /// Malformed or invalid request lines.
    errors: Counter, "mgrts_serve_errors_total", "Malformed or invalid request lines";
    /// Jobs settled as `failed` after exhausting their panic retries.
    failed: Counter, "mgrts_serve_failed_total",
        "Jobs settled as failed after exhausting panic retries";
    /// Current small-request queue length (gauge, tracked at push/pop).
    queue_depth: Gauge, "mgrts_serve_queue_depth", "Current small-request queue length";
    /// Current heavy-queue length (gauge, tracked at push/pop).
    heavy_depth: Gauge, "mgrts_serve_heavy_queue_depth", "Current heavy-queue length";
    /// Distinct engines in the shared pool (gauge, tracked where the pool
    /// hands engines out).
    engines_cached: Gauge, "mgrts_serve_engines_cached", "Distinct engines in the shared pool";
}

/// The server's counters behind one mutex, so a `stats` response reports
/// counters and queue-depth gauges from a single consistent snapshot
/// (they used to be separate atomics sampled at different instants: a
/// rejection could be counted while the queue it rejected from still
/// read as full-length, or vice versa). The lock is a leaf — it is taken
/// for a handful of integer writes and never while waiting on another
/// lock.
#[derive(Debug, Default)]
pub struct ServeStats {
    inner: Mutex<ServeCounters>,
}

impl ServeStats {
    fn with(&self, f: impl FnOnce(&mut ServeCounters)) {
        f(&mut self.inner.lock().unwrap_or_else(|e| e.into_inner()));
    }

    /// One consistent snapshot of every counter and gauge.
    #[must_use]
    pub fn snapshot(&self) -> ServeCounters {
        *self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn response(&self) -> Value {
        let c = self.snapshot();
        let mut fields = vec![("type", s("stats"))];
        fields.extend(
            SERVE_METRICS
                .iter()
                .map(|m| (m.key, Value::UInt((m.value)(&c)))),
        );
        obj(fields)
    }
}

/// The server's metrics-exposition surface: the [`SERVE_METRICS`] rows of
/// one counter snapshot (so the exposition inherits the snapshot's
/// consistency), then a registry holding the latency histograms, which
/// are observed live on the solve path, and the per-backend search
/// counters.
struct ServeMetrics {
    registry: Registry,
    solve_duration_us: Arc<Histogram>,
    request_duration_us: Arc<Histogram>,
}

impl ServeMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        ServeMetrics {
            solve_duration_us: registry.histogram(
                "mgrts_serve_solve_duration_us",
                "Wall-clock of actual engine executions, microseconds",
            ),
            request_duration_us: registry.histogram(
                "mgrts_serve_request_duration_us",
                "Wall-clock of request handling, microseconds",
            ),
            registry,
        }
    }

    /// Render a counter snapshot, then mirror the pool's per-backend
    /// search telemetry into the registry and render that.
    fn render(&self, counters: ServeCounters, pool: &EnginePool) -> String {
        let mut body = String::new();
        for m in SERVE_METRICS {
            render_sample(&mut body, m.metric, m.help, m.kind, (m.value)(&counters));
        }
        for (name, st) in pool.engine_stats() {
            let labels: &[(&str, &str)] = &[("solver", name.as_str())];
            let facets: [(&str, &str, u64); 5] = [
                ("solves", "Solves served by this backend", st.solves),
                ("decisions", "Search decisions", st.decisions),
                ("backtracks", "Backtracks / conflicts", st.backtracks),
                (
                    "propagations",
                    "Propagator or unit executions",
                    st.propagations,
                ),
                ("restarts", "Search restarts", st.restarts),
            ];
            for (facet, help, value) in facets {
                self.registry
                    .counter_with(&format!("mgrts_solver_{facet}_total"), help, labels)
                    .set(value);
            }
        }
        // Fault-injection telemetry: which sites have fired, so a chaos
        // run's scrape shows the injected load next to its effects.
        for (site, n) in mgrts_fault::injected_counts() {
            self.registry
                .counter_with(
                    "mgrts_fault_injections_total",
                    "Faults injected by the active fault plan",
                    &[("site", site.as_str())],
                )
                .set(n);
        }
        // The process-wide registry carries the robustness counters the
        // store / lease / supervisor layers maintain (quarantined lines,
        // commit retries, fail-overs, caught panics, parked shards).
        body.push_str(&self.registry.render());
        body.push_str(&mgrts_obs::global().render());
        body
    }
}

/// One in-flight solve that waiters (the requester and any coalesced
/// joiners) block on.
struct Flight {
    done: Mutex<Option<CachedResult>>,
    cv: Condvar,
}

struct ServerState {
    cfg: ServeConfig,
    store: LocalStore,
    pool: EnginePool,
    cancel: CancelToken,
    stats: ServeStats,
    /// In-memory view of the record-store cache, keyed by request hash.
    cache: Mutex<HashMap<u64, CachedResult>>,
    /// Coalescing table: one [`Flight`] per distinct in-flight key.
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    /// Bounded small-request queue (admission control caps its length).
    jobs: Mutex<VecDeque<(u64, SolveRequest)>>,
    jobs_cv: Condvar,
    /// Spilled requests awaiting a heavy worker.
    heavy_jobs: Mutex<VecDeque<(u64, SolveRequest)>>,
    heavy_cv: Condvar,
    /// Keys with a published spill artifact not yet settled.
    heavy_pending: Mutex<HashSet<u64>>,
    /// Serialized append handle into the store ("serve" writer segment).
    writer: Mutex<Box<dyn ShardWriter + Send>>,
    /// Metrics-exposition surface (the `metrics` request).
    metrics: ServeMetrics,
    /// Flight recorder: every worker thread records request spans into
    /// its ring; dumps happen on panic, cancellation and slow solves.
    flight: Arc<FlightRecorder>,
}

impl ServerState {
    fn cached(&self, key: u64) -> Option<CachedResult> {
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned()
    }

    /// Track the pool's size after it handed out engines. The pool only
    /// grows, so the largest size seen is the current one, whatever order
    /// concurrent solves record it in; reading it before taking the stats
    /// lock keeps that lock a leaf.
    fn count_engines(&self) {
        let engines = self.pool.len() as u64;
        self.stats
            .with(|c| c.engines_cached = c.engines_cached.max(engines));
    }

    /// Run the request's engines (the only place solves happen). The
    /// artificial delay precedes the solve so tests can observe the
    /// in-flight window deterministically.
    fn execute(&self, key: u64, req: &SolveRequest) -> CachedResult {
        let started = Instant::now();
        if self.cfg.solve_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.cfg.solve_delay_ms));
        }
        self.stats.with(|c| c.solves += 1);
        let ticket = ticket_of(key);
        let sp = flight::span("request.solve", &ticket);
        let budget_ms = req.effective_budget_ms(self.cfg.default_budget_ms);
        let budget = Budget::time_limit(Duration::from_millis(budget_ms));
        let platform = PlatformSpec::identical(req.m);
        let exec = match &req.mode {
            RequestMode::Single(spec) => {
                let engine = self.pool.get(*spec, req.seed);
                self.count_engines();
                UnitExecution::single(runner::run(
                    &req.taskset,
                    &platform,
                    &*engine,
                    &budget,
                    &self.cancel,
                ))
            }
            RequestMode::Race => {
                let roster = self.pool.roster(&SolverSpec::DEFAULT_PORTFOLIO, req.seed);
                self.count_engines();
                UnitExecution::race(
                    race_roster(&roster, &req.taskset, &platform, &budget, &self.cancel)
                        .expect("valid constrained instance"),
                )
            }
        };
        let result = self.settle(key, self.record_for(key, req, exec));
        self.finish_execute(&ticket, req, &result, started, sp);
        result
    }

    /// Post-solve observation: close the request span, feed the latency
    /// histogram, and — past the slow threshold or on cancellation — log
    /// one diagnosable stdout line and persist the flight-recorder
    /// timeline as a store artifact.
    fn finish_execute(
        &self,
        ticket: &str,
        req: &SolveRequest,
        result: &CachedResult,
        started: Instant,
        mut sp: flight::Span,
    ) {
        self.metrics.solve_duration_us.observe(result.time_us);
        sp.set_detail(&format!(
            "solver={} outcome={:?} elapsed_us={}",
            result.solver, result.outcome, result.time_us
        ));
        // Close the span *before* any dump below: spans hit the ring on
        // drop, and the slow-request timeline must include its own solve.
        drop(sp);
        // Wall clock of the whole execution, not the engine's own
        // measurement: queueing artifacts and artificial delays count
        // toward the user-visible latency this threshold guards.
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let slow = self.cfg.slow_ms > 0 && elapsed_us >= self.cfg.slow_ms.saturating_mul(1_000);
        let cancelled = result.outcome == InstanceOutcome::Cancelled;
        if slow {
            // Everything needed to reproduce and triage from stdout alone.
            println!(
                "serve: slow request ticket={ticket} solver={} policy={} elapsed_ms={} outcome={:?}",
                result.solver,
                req.mode.tag(),
                elapsed_us / 1_000,
                result.outcome
            );
        }
        if (slow || cancelled) && self.cfg.slow_ms > 0 {
            flight::event("request.slow", ticket, &format!("elapsed_us={elapsed_us}"));
            let dump = self.flight.dump();
            if dump.is_empty() {
                return;
            }
            let name = format!("flight-{ticket}.jsonl");
            match self.store.put_artifact(&name, &dump) {
                Ok(()) => eprintln!(
                    "serve: flight recorder dump ({}) -> {name}",
                    if cancelled { "cancelled" } else { "slow" }
                ),
                Err(e) => eprintln!("serve: failed to write flight dump {name}: {e}"),
            }
        }
    }

    /// The store record of one executed request: `exec` plus the
    /// request's provenance, as [`crate::campaign`] records a unit. Race
    /// records carry the roster head as their solver, like race units.
    fn record_for(&self, key: u64, req: &SolveRequest, exec: UnitExecution) -> CampaignRecord {
        let (kind, solver) = match req.mode {
            RequestMode::Single(spec) => (PolicyKind::Single, spec),
            RequestMode::Race => (PolicyKind::PortfolioRace, SolverSpec::DEFAULT_PORTFOLIO[0]),
        };
        CampaignRecord {
            shard: ticket_of(key),
            cell: 0,
            instance: key,
            global_instance: key,
            solver,
            outcome: exec.outcome,
            time_us: exec.time_us,
            ratio: req.taskset.utilization_ratio(req.m),
            filtered: req.taskset.utilization_exceeds(req.m),
            m: req.m,
            n: req.taskset.len(),
            t_max: req.taskset.max_period(),
            hetero: false,
            hyperperiod: req.taskset.hyperperiod().unwrap_or(0),
            seed: req.seed,
            policy: Some(kind),
            winner: exec.winner,
            budget_source: Some(BudgetSource::Manifest),
            cancel_latency_us: exec.cancel_latency_us,
            backends: exec.backends,
            search: exec.search,
        }
    }

    /// Commit a settled solve to the store (one single-unit shard per
    /// request key) and publish it in the in-memory cache. Cancelled
    /// outcomes (a shutdown mid-solve) are returned to their waiters but
    /// never cached — a restarted server must re-decide them.
    fn settle(&self, key: u64, record: CampaignRecord) -> CachedResult {
        let result = CachedResult {
            outcome: record.outcome,
            time_us: record.time_us,
            solver: record
                .winner
                .clone()
                .unwrap_or_else(|| record.solver.name().to_string()),
        };
        if record.outcome == InstanceOutcome::Cancelled {
            return result;
        }
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
            let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = writer.commit_shard(&shard, &[record]) {
                eprintln!("serve: failed to commit record for {}: {e}", ticket_of(key));
            }
        }
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, result.clone());
        result
    }

    /// [`execute`](Self::execute) under a panic supervisor: a panicking
    /// engine (injected chaos, a solver bug) is retried up to
    /// `job_retries` times, then the ticket settles as `failed` — a
    /// waiter always gets an answer and a poison job can never wedge its
    /// ticket or take the worker thread down.
    fn supervised_execute(&self, key: u64, req: &SolveRequest) -> CachedResult {
        let mut strikes = 0u32;
        loop {
            match catch_unwind(AssertUnwindSafe(|| self.execute(key, req))) {
                Ok(result) => return result,
                Err(payload) => {
                    strikes += 1;
                    mgrts_obs::global()
                        .counter(
                            "mgrts_worker_panics_total",
                            "Shard executions that panicked and were caught by the worker \
                             supervisor",
                        )
                        .inc();
                    let reason = panic_reason(payload.as_ref());
                    eprintln!(
                        "serve: solve {} panicked (strike {strikes}/{}): {reason}",
                        ticket_of(key),
                        self.cfg.job_retries + 1
                    );
                    if strikes > self.cfg.job_retries {
                        return self.settle_failed(key, req, &reason);
                    }
                }
            }
        }
    }

    /// Terminal failure: record [`InstanceOutcome::Failed`] durably (a
    /// restarted server sees the record and will not re-enqueue the
    /// poison job) and publish it so pollers get a `failed` status.
    fn settle_failed(&self, key: u64, req: &SolveRequest, reason: &str) -> CachedResult {
        eprintln!(
            "serve: job {} failed permanently after {} attempts: {reason}",
            ticket_of(key),
            self.cfg.job_retries + 1
        );
        self.stats.with(|c| c.failed += 1);
        let failed = UnitExecution::single((InstanceOutcome::Failed, 0, None));
        self.settle(key, self.record_for(key, req, failed))
    }

    /// Resolve a flight: publish the result to every waiter and retire
    /// the coalescing entry. The cache insert (in [`settle`]) happens
    /// before this, so a request can never miss both.
    fn finish_flight(&self, key: u64, flight: &Arc<Flight>, result: CachedResult) {
        *flight.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
        flight.cv.notify_all();
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key);
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

fn handle_solve(state: &ServerState, req: SolveRequest) -> Value {
    let key = request_key(&req, state.cfg.default_budget_ms);
    // 1. Response cache (the record store).
    if let Some(cached) = state.cached(key) {
        state.stats.with(|c| c.cache_hits += 1);
        return cached.response(key, "hit");
    }
    // 2. Heavy requests spill to the lease queue and get a ticket.
    let budget_ms = req.effective_budget_ms(state.cfg.default_budget_ms);
    if req.taskset.len() > state.cfg.spill_tasks || budget_ms > state.cfg.spill_budget_ms {
        return handle_spill(state, key, req);
    }
    // 3. Coalesce onto an in-flight solve, or admit a new one.
    let (flight, creator) = {
        let mut inflight = state.inflight.lock().unwrap_or_else(|e| e.into_inner());
        match inflight.get(&key) {
            Some(f) => (Arc::clone(f), false),
            None => {
                let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
                if jobs.len() >= state.cfg.queue_cap {
                    state.stats.with(|c| c.rejected += 1);
                    return obj(vec![
                        ("type", s("overloaded")),
                        ("queue_depth", Value::UInt(jobs.len() as u64)),
                        ("queue_cap", Value::UInt(state.cfg.queue_cap as u64)),
                    ]);
                }
                let f = Arc::new(Flight {
                    done: Mutex::new(None),
                    cv: Condvar::new(),
                });
                inflight.insert(key, Arc::clone(&f));
                jobs.push_back((key, req.clone()));
                state.stats.with(|c| c.queue_depth = jobs.len() as u64);
                state.jobs_cv.notify_one();
                (f, true)
            }
        }
    };
    // 4. Wait for the solve (bounded by the budget plus the configured
    // per-request deadline slack).
    let deadline = Duration::from_millis(
        budget_ms
            .saturating_add(state.cfg.solve_delay_ms)
            .saturating_add(state.cfg.deadline_slack_ms),
    );
    let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
    while done.is_none() {
        let (guard, timeout) = flight
            .cv
            .wait_timeout(done, deadline)
            .unwrap_or_else(|e| e.into_inner());
        done = guard;
        if done.is_some() {
            break;
        }
        if timeout.timed_out() {
            return error_response("solve timed out server-side");
        }
        if state.cancel.is_cancelled() {
            return error_response("server shutting down");
        }
    }
    let result = done.clone().expect("loop exits only with a result");
    if creator {
        state.stats.with(|c| c.cache_misses += 1);
        result.response(key, "miss")
    } else {
        state.stats.with(|c| c.inflight_hits += 1);
        result.response(key, "inflight")
    }
}

fn handle_spill(state: &ServerState, key: u64, req: SolveRequest) -> Value {
    let ticket = ticket_of(key);
    let mut pending = state
        .heavy_pending
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if pending.contains(&key) {
        // A repeat of a still-queued heavy request coalesces onto the
        // existing ticket.
        state.stats.with(|c| c.inflight_hits += 1);
        return obj(vec![
            ("type", s("ticket")),
            ("ticket", s(ticket)),
            ("status", s("pending")),
            ("cache", s("inflight")),
        ]);
    }
    // Publish the job as a store artifact (crash-safe: a restarted server
    // re-enqueues unresolved job artifacts), then queue it for the heavy
    // workers.
    let artifact = render_response(&req.to_value());
    if let Err(e) = state
        .store
        .put_artifact(&format!("job-{ticket}.json"), &artifact)
    {
        return error_response(&format!("failed to persist spill job: {e}"));
    }
    pending.insert(key);
    drop(pending);
    state.stats.with(|c| c.spilled += 1);
    {
        let mut heavy = state.heavy_jobs.lock().unwrap_or_else(|e| e.into_inner());
        heavy.push_back((key, req));
        state.stats.with(|c| c.heavy_depth = heavy.len() as u64);
    }
    state.heavy_cv.notify_one();
    obj(vec![
        ("type", s("ticket")),
        ("ticket", s(ticket)),
        ("status", s("queued")),
        ("cache", s("miss")),
    ])
}

fn handle_poll(state: &ServerState, ticket: &str) -> Value {
    state.stats.with(|c| c.polls += 1);
    let key = match parse_ticket(ticket) {
        Ok(k) => k,
        Err(e) => return error_response(&e),
    };
    if let Some(cached) = state.cached(key) {
        use serde::Serialize;
        // `failed` is terminal, distinct from `done`: the job exhausted
        // its retries and will not settle to a verdict. Pollers must
        // stop waiting, not retry forever.
        let status = if cached.outcome == InstanceOutcome::Failed {
            "failed"
        } else {
            "done"
        };
        return obj(vec![
            ("type", s("poll")),
            ("ticket", s(ticket)),
            ("status", s(status)),
            ("outcome", cached.outcome.to_value()),
            ("time_us", Value::UInt(cached.time_us)),
            ("solver", s(cached.solver)),
        ]);
    }
    let pending = state
        .heavy_pending
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .contains(&key);
    if pending {
        // Distinguish queued from running via the lease board.
        let lease_name = format!("job-{}", ticket_of(key));
        let now = now_unix_ms();
        let running = list_leases(&state.store.dir().join(LEASE_DIR))
            .unwrap_or_default()
            .iter()
            .any(|l| l.shard == lease_name && !l.is_expired(now));
        return obj(vec![
            ("type", s("poll")),
            ("ticket", s(ticket)),
            ("status", s("pending")),
            ("phase", s(if running { "running" } else { "queued" })),
        ]);
    }
    error_response(&format!("unknown ticket `{ticket}`"))
}

/// Handle one request line and produce the response line's [`Value`] —
/// shared by the TCP handler and the protocol unit tests. `None` means
/// "shutdown acknowledged": the caller sends the returned ack first.
fn handle_line(state: &ServerState, line: &str) -> (Value, bool) {
    let start = std::time::Instant::now();
    state.stats.with(|c| c.requests += 1);
    let out = match parse_request(line) {
        Ok(Request::Solve(req)) => (handle_solve(state, req), false),
        Ok(Request::Poll { ticket }) => (handle_poll(state, &ticket), false),
        Ok(Request::Stats) => (state.stats.response(), false),
        Ok(Request::Metrics) => (handle_metrics(state), false),
        Ok(Request::Shutdown) => (
            obj(vec![("type", s("ok")), ("msg", s("shutting down"))]),
            true,
        ),
        Err(e) => {
            state.stats.with(|c| c.errors += 1);
            (error_response(&e), false)
        }
    };
    state
        .metrics
        .request_duration_us
        .observe(start.elapsed().as_micros() as u64);
    out
}

/// The `metrics` request: Prometheus text exposition of the counters
/// (one consistent snapshot), queue gauges, latency histograms and
/// per-backend search telemetry, carried in the response's `body` field.
fn handle_metrics(state: &ServerState) -> Value {
    let body = state.metrics.render(state.stats.snapshot(), &state.pool);
    obj(vec![
        ("type", s("metrics")),
        ("content_type", s("text/plain; version=0.0.4")),
        ("body", s(body)),
    ])
}

// ---------------------------------------------------------------------------
// Worker pools
// ---------------------------------------------------------------------------

fn light_worker(state: &Arc<ServerState>, index: usize) {
    let _ring = flight::install(&state.flight, &format!("serve-light-{index}"));
    loop {
        let job = {
            let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = jobs.pop_front() {
                    state.stats.with(|c| c.queue_depth = jobs.len() as u64);
                    break Some(job);
                }
                if state.cancel.is_cancelled() {
                    break None;
                }
                let (guard, _) = state
                    .jobs_cv
                    .wait_timeout(jobs, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                jobs = guard;
            }
        };
        let Some((key, req)) = job else { break };
        // The key may have settled while queued (a racing flight that
        // re-solved, or a heavy worker): serve from cache without a solve.
        let result = match state.cached(key) {
            Some(cached) => cached,
            None => state.supervised_execute(key, &req),
        };
        let flight = state
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned();
        if let Some(flight) = flight {
            state.finish_flight(key, &flight, result);
        }
    }
}

/// Heavy worker: drains the spill queue under PR-3 leases, so the work
/// is observable (`poll` reports `running`), crash-safe (an expired
/// lease is reclaimable) and shareable with external drain processes.
fn heavy_worker(state: &Arc<ServerState>, index: usize) {
    let _ring = flight::install(&state.flight, &format!("serve-heavy-{index}"));
    let board = match LeaseBoard::open(
        state.store.dir(),
        &format!("serve-heavy-{index}"),
        Duration::from_secs(60),
    ) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("serve: heavy worker {index} failed to open lease board: {e}");
            return;
        }
    };
    loop {
        let job = {
            let mut jobs = state.heavy_jobs.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = jobs.pop_front() {
                    state.stats.with(|c| c.heavy_depth = jobs.len() as u64);
                    break Some(job);
                }
                if state.cancel.is_cancelled() {
                    break None;
                }
                let (guard, _) = state
                    .heavy_cv
                    .wait_timeout(jobs, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                jobs = guard;
            }
        };
        let Some((key, req)) = job else { break };
        let lease_name = format!("job-{}", ticket_of(key));
        match board.try_claim(&lease_name) {
            Ok(true) => {}
            Ok(false) => continue, // an external worker holds it
            Err(e) => {
                eprintln!("serve: lease claim failed for {lease_name}: {e}");
                continue;
            }
        }
        // The supervisor below catches engine panics, so control always
        // reaches the release: the `job-<ticket>` lease is dropped
        // immediately, never stranded until its TTL.
        let result = match state.cached(key) {
            Some(cached) => cached,
            None => state.supervised_execute(key, &req),
        };
        let _ = board.release(&lease_name);
        if result.outcome != InstanceOutcome::Cancelled {
            state
                .heavy_pending
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&key);
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// Split a receive buffer into complete lines, leaving any trailing
/// partial line in place — the framing the protocol tests pin down.
pub fn drain_lines(buf: &mut Vec<u8>) -> Vec<String> {
    let mut lines = Vec::new();
    let mut start = 0;
    while let Some(len) = buf[start..].iter().position(|&b| b == b'\n') {
        let mut line = &buf[start..start + len];
        while let [rest @ .., b'\r'] = line {
            line = rest;
        }
        lines.push(String::from_utf8_lossy(line).into_owned());
        start += len + 1;
    }
    buf.drain(..start);
    lines
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if state.cancel.is_cancelled() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client hung up
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        }
        for line in drain_lines(&mut buf) {
            if line.is_empty() {
                continue;
            }
            let (response, shutdown) = handle_line(state, &line);
            let mut text = render_response(&response);
            text.push('\n');
            if stream.write_all(text.as_bytes()).is_err() {
                return;
            }
            let _ = stream.flush();
            if shutdown {
                state.cancel.cancel();
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// A running serve instance: the listener, its worker pools and shared
/// state. Constructed by [`Server::start`], stopped by [`Server::shutdown`]
/// (or by cancelling [`Server::cancel_token`], e.g. from a SIGTERM
/// handler).
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind, reload the response cache from the store, recover any
    /// unresolved spill jobs, and spawn the accept loop plus worker
    /// pools.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let store = LocalStore::open(&cfg.data_dir)?;
        let writer = store.open_writer("serve")?;
        // Reload the cache: every believable record in the store is a
        // servable response (`instance` is the request key).
        let mut cache = HashMap::new();
        for r in store.load_records()? {
            cache.insert(
                r.instance,
                CachedResult {
                    outcome: r.outcome,
                    time_us: r.time_us,
                    solver: r
                        .winner
                        .clone()
                        .unwrap_or_else(|| r.solver.name().to_string()),
                },
            );
        }
        let flight_rec = FlightRecorder::new(512);
        flight_rec.install_panic_hook();
        let state = Arc::new(ServerState {
            store,
            pool: EnginePool::new(),
            cancel: CancelToken::new(),
            stats: ServeStats::default(),
            metrics: ServeMetrics::new(),
            flight: flight_rec,
            cache: Mutex::new(cache),
            inflight: Mutex::new(HashMap::new()),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            heavy_jobs: Mutex::new(VecDeque::new()),
            heavy_cv: Condvar::new(),
            heavy_pending: Mutex::new(HashSet::new()),
            writer: Mutex::new(writer),
            cfg,
        });
        Self::recover_spill_jobs(&state);
        let mut threads = Vec::new();
        for i in 0..state.cfg.workers.max(1) {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || light_worker(&state, i)));
        }
        {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || heavy_worker(&state, 0)));
        }
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let state = Arc::clone(&state);
            let conns = Arc::clone(&conns);
            threads.push(std::thread::spawn(move || loop {
                if state.cancel.is_cancelled() {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let state = Arc::clone(&state);
                        let handle = std::thread::spawn(move || handle_connection(&state, stream));
                        conns.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }));
        }
        Ok(Server {
            state,
            addr,
            threads,
            conns,
        })
    }

    /// Re-enqueue spill artifacts with no settled record (a crashed or
    /// SIGKILLed predecessor): the job files are the queue's durable
    /// form.
    fn recover_spill_jobs(state: &Arc<ServerState>) {
        let Ok(entries) = std::fs::read_dir(state.store.dir()) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(ticket) = name
                .strip_prefix("job-")
                .and_then(|rest| rest.strip_suffix(".json"))
            else {
                continue;
            };
            let Ok(key) = parse_ticket(ticket) else {
                continue;
            };
            if state.cached(key).is_some() {
                continue; // already settled in a previous life
            }
            let Ok(text) = std::fs::read_to_string(entry.path()) else {
                continue;
            };
            let Ok(Request::Solve(req)) = parse_request(&text) else {
                continue;
            };
            let mut pending = state
                .heavy_pending
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if pending.insert(key) {
                let mut heavy = state.heavy_jobs.lock().unwrap_or_else(|e| e.into_inner());
                heavy.push_back((key, req));
                state.stats.with(|c| c.heavy_depth = heavy.len() as u64);
            }
        }
    }

    /// The bound address (resolves port `0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's cancellation token; cancelling it initiates a
    /// graceful shutdown (stop accepting, preempt running solves,
    /// release leases).
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.state.cancel.clone()
    }

    /// One consistent counter snapshot (test instrumentation; the wire
    /// surfaces are the `stats` and `metrics` requests).
    #[must_use]
    pub fn stats(&self) -> ServeCounters {
        self.state.stats.snapshot()
    }

    /// Graceful shutdown: raise the token, join every worker and
    /// connection thread, and return a human-readable summary.
    pub fn shutdown(self) -> String {
        self.state.cancel.cancel();
        self.state.jobs_cv.notify_all();
        self.state.heavy_cv.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for t in conns {
            let _ = t.join();
        }
        let c = self.state.stats.snapshot();
        format!(
            "served {} requests ({} solves, {} cache hits, {} coalesced, \
             {} spilled, {} rejected, {} errors)",
            c.requests, c.solves, c.cache_hits, c.inflight_hits, c.spilled, c.rejected, c.errors,
        )
    }
}

/// Run a server until `external` is cancelled (SIGTERM/SIGINT via the
/// CLI's signal handler, or a `shutdown` request), then shut down
/// gracefully. Returns the serving summary. The "listening" line goes to
/// stderr immediately so callers can synchronize on it.
pub fn run(cfg: ServeConfig, external: &CancelToken) -> std::io::Result<String> {
    let server = Server::start(cfg)?;
    eprintln!("mgrts serve: listening on {}", server.addr());
    let token = server.cancel_token();
    while !external.is_cancelled() && !token.is_cancelled() {
        std::thread::sleep(Duration::from_millis(50));
    }
    token.cancel();
    Ok(server.shutdown())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn running_example_json() -> String {
        use serde::Serialize;
        serde_json::to_string(&TaskSet::running_example().to_value()).unwrap()
    }

    fn solve_line(extra: &str) -> String {
        format!(
            "{{\"type\":\"solve\",\"taskset\":{},\"m\":2{extra}}}",
            running_example_json()
        )
    }

    #[test]
    fn parses_solve_request_shapes() {
        let req = parse_request(&solve_line("")).unwrap();
        let Request::Solve(req) = req else {
            panic!("expected solve")
        };
        assert_eq!(req.m, 2);
        assert_eq!(req.mode, RequestMode::Race);
        assert_eq!(req.budget_ms, None);

        let req = parse_request(&solve_line(",\"solver\":\"csp2-dc\",\"budget_ms\":250")).unwrap();
        let Request::Solve(req) = req else {
            panic!("expected solve")
        };
        assert!(matches!(req.mode, RequestMode::Single(_)));
        assert_eq!(req.budget_ms, Some(250));

        let req = parse_request(&solve_line(",\"policy\":\"portfolio-race\"")).unwrap();
        let Request::Solve(req) = req else {
            panic!("expected solve")
        };
        assert_eq!(req.mode, RequestMode::Race);
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        for bad in [
            "not json at all",
            "{\"type\":\"conquer\"}",
            "{\"no_type\":1}",
            "{\"type\":\"solve\",\"m\":2}",
            "{\"type\":\"solve\",\"taskset\":{\"tasks\":[]},\"m\":0}",
            "{\"type\":\"poll\"}",
        ] {
            let err = match parse_request(bad) {
                Err(e) => e,
                Ok(r) => panic!("`{bad}` parsed as {r:?}"),
            };
            let resp = error_response(&err);
            let text = render_response(&resp);
            let back: Value = serde_json::from_str(&text).unwrap();
            assert_eq!(back["type"].as_str(), Some("error"), "for `{bad}`");
            assert!(back["error"].as_str().is_some(), "for `{bad}`");
        }
    }

    #[test]
    fn request_key_separates_what_matters() {
        let base = match parse_request(&solve_line("")).unwrap() {
            Request::Solve(r) => r,
            _ => unreachable!(),
        };
        let k = request_key(&base, 1_000);
        // Identical request → identical key.
        assert_eq!(k, request_key(&base.clone(), 1_000));
        // Platform size, mode, budget and seed all separate keys.
        let mut other = base.clone();
        other.m = 3;
        assert_ne!(k, request_key(&other, 1_000));
        let mut other = base.clone();
        other.mode = RequestMode::Single(SolverSpec::Csp1);
        assert_ne!(k, request_key(&other, 1_000));
        let mut other = base.clone();
        other.budget_ms = Some(2_000);
        assert_ne!(k, request_key(&other, 1_000));
        // An explicit budget equal to the default is the same request.
        let mut other = base.clone();
        other.budget_ms = Some(1_000);
        assert_eq!(k, request_key(&other, 1_000));
    }

    fn ticket_for(line: &str, default_budget_ms: u64) -> String {
        match parse_request(line).unwrap() {
            Request::Solve(r) => ticket_of(request_key(&r, default_budget_ms)),
            other => panic!("expected a solve request, got {other:?}"),
        }
    }

    /// Stores written by earlier builds keep serving hits only while the
    /// key function hashes the same bytes, so these tickets never change.
    #[test]
    fn request_keys_are_pinned() {
        // The `serve_roundtrip` request, under the default budget.
        let roundtrip = concat!(
            r#"{"type":"solve","taskset":{"tasks":[{"offset":0,"wcet":1,"deadline":2,"period":2},"#,
            r#"{"offset":1,"wcet":3,"deadline":4,"period":4},"#,
            r#"{"offset":0,"wcet":2,"deadline":2,"period":3}]},"m":2,"solver":"csp2-dc"}"#
        );
        assert_eq!(
            ticket_for(roundtrip, ServeConfig::default().default_budget_ms),
            "1695f5f87a8cc517"
        );
        // The first Table I instance of seed 2009 with U/m < 0.7 (generator
        // index 20), as the benchmark's serve phase sends it.
        let paper_cell = concat!(
            r#"{"type":"solve","taskset":{"tasks":[{"offset":1,"wcet":1,"deadline":1,"period":3},"#,
            r#"{"offset":0,"wcet":1,"deadline":7,"period":7},{"offset":3,"wcet":1,"deadline":5,"period":6},"#,
            r#"{"offset":4,"wcet":2,"deadline":7,"period":7},{"offset":0,"wcet":2,"deadline":3,"period":4},"#,
            r#"{"offset":0,"wcet":2,"deadline":4,"period":7},{"offset":2,"wcet":1,"deadline":2,"period":4},"#,
            r#"{"offset":5,"wcet":1,"deadline":6,"period":7},{"offset":1,"wcet":1,"deadline":1,"period":4},"#,
            r#"{"offset":4,"wcet":3,"deadline":4,"period":7}]},"m":5,"solver":"csp2-dc","budget_ms":20,"seed":1}"#
        );
        assert_eq!(ticket_for(paper_cell, 20), "830f1905c3671e5b");
    }

    #[test]
    fn request_keys_are_canonical() {
        let canonical = concat!(
            r#"{"type":"solve","taskset":{"tasks":[{"offset":0,"wcet":1,"deadline":2,"period":2},"#,
            r#"{"offset":1,"wcet":3,"deadline":4,"period":4}]},"m":2,"solver":"csp2-dc"}"#
        );
        let shuffled = concat!(
            " { \"solver\" : \"csp2-dc\" ,\n \"m\":2, \"taskset\" : {\"tasks\" : [ ",
            "{\"period\":2,\"deadline\":2,\"wcet\":1,\"offset\":0} ,\r\n",
            "{\"wcet\":3, \"offset\":1,\"period\":4,\"deadline\":4} ] } ,\t\"type\" : \"solve\" } "
        );
        assert_eq!(ticket_for(canonical, 1_000), ticket_for(shuffled, 1_000));
    }

    #[test]
    fn tickets_round_trip() {
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_ticket(&ticket_of(key)).unwrap(), key);
        }
        assert!(parse_ticket("xyz").is_err());
        assert!(parse_ticket("123").is_err());
        assert!(parse_ticket("zzzzzzzzzzzzzzzz").is_err());
    }

    #[test]
    fn framing_splits_complete_lines_only() {
        let mut buf = b"{\"a\":1}\n{\"b\":2}\r\n{\"part".to_vec();
        let lines = drain_lines(&mut buf);
        assert_eq!(
            lines,
            vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()]
        );
        assert_eq!(buf, b"{\"part".to_vec());
        buf.extend_from_slice(b"ial\":3}\n");
        let lines = drain_lines(&mut buf);
        assert_eq!(lines, vec!["{\"partial\":3}".to_string()]);
        assert!(buf.is_empty());
    }

    #[test]
    fn spill_request_round_trips_through_artifact_shape() {
        let req =
            match parse_request(&solve_line(",\"solver\":\"csp2\",\"budget_ms\":123")).unwrap() {
                Request::Solve(r) => r,
                _ => unreachable!(),
            };
        let text = render_response(&req.to_value());
        let back = match parse_request(&text).unwrap() {
            Request::Solve(r) => r,
            _ => unreachable!(),
        };
        assert_eq!(request_key(&req, 1_000), request_key(&back, 1_000));
        assert_eq!(back.budget_ms, Some(123));
        assert_eq!(back.mode, req.mode);
    }
}
