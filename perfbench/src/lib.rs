//! The repository benchmark of `mgrts`.
//!
//! Every run executes three phases on instances drawn from the workload's
//! generator under the run's seed:
//!
//! * `cell` — the stream through `csp2-dc`, `sat`, `csp2-generic` and
//!   `csp2-learn`, one backend after another, under fixed work budgets;
//! * `race` — the stream raced with `SolverSpec::DEFAULT_PORTFOLIO` under a
//!   fixed wall-clock budget per instance;
//! * `serve` — `mgrts serve` in-process with two closed-loop TCP clients,
//!   every instance sent once as a miss and once as a hit.
//!
//! The benchmark drives the program only through its public entry points
//! and measures each layer from outside, by timing the calls into it. An
//! untraced measurement gives the end-to-end metrics; a traced measurement
//! (see [`trace`]) gives the per-layer metrics.

pub mod cell;
pub mod race;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::{median, quantile, ratio};
use crate::trace::{layer_times, LayerTime, Span, Tracer};
use crate::workload::Workload;

/// Propagator kinds of the CSP2 model whose wakes are reported.
pub const KINDS: [&str; 4] = ["count", "alldiff_fc", "alldiff_gac", "leq_var"];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Operations attempted and failed, with the first failure messages.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted (solves, races, requests, checks).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Messages of the first failures.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one failed operation.
    pub fn fail(&mut self, msg: String) {
        self.fail_many(1, msg);
    }

    /// Count `n` failed operations under one message.
    pub fn fail_many(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.failures.len() < 50 {
            self.failures.push(msg);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 50 {
                self.failures.push(f);
            }
        }
    }
}

/// How to run the benchmark.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Target length of one measurement, seconds.
    pub seconds: f64,
    /// Emit per-layer metrics from a traced measurement.
    pub trace: bool,
    /// Scratch directory for server stores and the span file.
    pub out_dir: PathBuf,
}

/// Set-ups per phase in one measurement; `setup_s` reports their median.
pub const SETUP_REPS: usize = 5;

/// One measurement (untraced or traced) of all three phases.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced measurements only).
    pub layer: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Recorded spans (traced measurements only).
    pub spans: Vec<Span>,
    /// Operations and failures.
    pub tally: Tally,
}

/// The whole run: what the last output line reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Report lines printed before the result.
    pub lines: Vec<String>,
    /// Spans of the traced measurement.
    pub spans: Vec<Span>,
}

/// Run the benchmark. Untraced: one measurement, end-to-end metrics.
/// Traced: an untraced measurement, then a traced one; per-layer metrics
/// from the second and the tracing overhead as the difference of their
/// end-to-end metrics.
#[must_use]
pub fn run(opts: &Options) -> Report {
    let plain = measure(opts, false);
    let mut lines = plain.lines.clone();
    let mut tally = plain.tally.clone();
    if !opts.trace {
        return Report {
            correct: tally.failed == 0,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: plain.e2e,
            lines: with_failures(lines, &tally),
            spans: Vec::new(),
        };
    }
    let traced = measure(opts, true);
    lines.push(String::new());
    lines.extend(traced.lines.iter().cloned());
    lines.push(String::new());
    lines.push("tracing overhead (traced minus untraced measurement):".to_string());
    for (a, b) in plain.e2e.iter().zip(&traced.e2e) {
        lines.push(format!(
            "  {:<22} untraced {:>12.4} traced {:>12.4} diff {:>+11.4} {:<5} ({:+.1}%)",
            a.name,
            a.value,
            b.value,
            b.value - a.value,
            a.unit,
            100.0 * ratio(b.value - a.value, a.value)
        ));
    }
    tally.absorb(traced.tally);
    Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: traced.layer,
        lines: with_failures(lines, &tally),
        spans: traced.spans,
    }
}

fn with_failures(mut lines: Vec<String>, tally: &Tally) -> Vec<String> {
    if tally.failed > 0 {
        lines.push(format!("FAILED operations: {}", tally.failed));
        for f in &tally.failures {
            lines.push(format!("  FAILED {f}"));
        }
    }
    lines
}

/// Rounds a measurement is split into. Each round runs a slice of every
/// phase, so each metric's samples spread over the whole run instead of
/// one window of it. The `cell` and `race` streams are cut into
/// `ROUNDS / 2` chunks, each run in round `c` and again in round
/// `c + ROUNDS / 2`; `serve` sends a fresh tenth of its instances per round.
pub const ROUNDS: usize = 10;

/// Windows each round's `serve` traffic is split into; the serve metrics
/// are medians over all windows of the run.
pub const SERVE_WINDOWS: usize = 3;

/// Chunk `k` of `parts` of a stream of `n` instances.
fn slice(n: u64, k: usize, parts: usize) -> Range<usize> {
    let n = n as usize;
    n * k / parts..n * (k + 1) / parts
}

/// Seconds `f` takes, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// One measurement of the three phases, interleaved over [`ROUNDS`]
/// rounds.
#[must_use]
pub fn measure(opts: &Options, traced: bool) -> Measurement {
    let w = &opts.workload;
    let tracer = Tracer::new(traced);
    let mut tally = Tally::default();
    let pid = std::process::id();
    let tag = if traced { "t" } else { "u" };
    let serve_dir = |k: usize| opts.out_dir.join(format!("serve-{pid}-{tag}{k}"));

    // Set-ups: the first of each phase is the one measured; the others
    // are repeated one per round and discarded.
    let mut setup_times: [Vec<f64>; 3] = Default::default();
    let (t, cell_setup) = timed(|| cell::setup(w, opts.seed, &tracer));
    setup_times[0].push(t);
    let (t, race_setup) = timed(|| race::setup(w, opts.seed, &tracer));
    setup_times[1].push(t);
    let (t, serve_setup) = timed(|| serve::setup(w, opts.seed, &tracer, &serve_dir(0)));
    setup_times[2].push(t);
    let mut session = match serve_setup {
        Ok(s) => Some(serve::Session::open(s, &mut tally)),
        Err(e) => {
            tally.fail(format!("serve: set-up failed: {e}"));
            None
        }
    };

    let mut cell = cell::CellRun::default();
    let mut race = race::RaceRun::new();
    let half = ROUNDS / 2;
    for k in 0..ROUNDS {
        let (c, attempt) = (k % half, k / half);
        cell::chunk(
            &cell_setup,
            w,
            slice(w.cell_instances, c, half),
            attempt,
            &tracer,
            &mut cell,
            &mut tally,
        );
        race::chunk(
            &race_setup,
            w,
            slice(w.race_instances, c, half),
            attempt,
            &tracer,
            &cell.verdicts,
            &mut race,
            &mut tally,
        );
        if let Some(s) = session.as_mut() {
            for sub in 0..SERVE_WINDOWS {
                let part = slice(
                    w.serve_instances,
                    k * SERVE_WINDOWS + sub,
                    ROUNDS * SERVE_WINDOWS,
                );
                s.chunk(part, &tracer, &mut tally);
            }
        }
        if k + 1 < SETUP_REPS {
            let (t, _) = timed(|| cell::setup(w, opts.seed, &tracer));
            setup_times[0].push(t);
            let (t, _) = timed(|| race::setup(w, opts.seed, &tracer));
            setup_times[1].push(t);
            let (t, extra) = timed(|| serve::setup(w, opts.seed, &tracer, &serve_dir(k + 1)));
            setup_times[2].push(t);
            if let Err(e) = extra.and_then(serve::discard) {
                tally.fail(format!("serve: repeated set-up failed: {e}"));
            }
        }
    }
    drop((cell_setup, race_setup));
    let replay_lines = match (&session, traced) {
        (Some(s), true) => s.lines().to_vec(),
        _ => Vec::new(),
    };
    let serve = session.map_or_else(serve::ServeRun::default, |s| s.finish(w, &mut tally));
    if traced {
        let dir = opts.out_dir.join(format!("replay-{pid}"));
        serve::replay(&replay_lines, w, &tracer, &dir, &mut tally);
    }

    let [cell_setup_s, race_setup_s, serve_setup_s] = setup_times.each_ref().map(|t| median(t));
    let setup_s = cell_setup_s + race_setup_s + serve_setup_s;
    let cell_s = cell.cell_s();
    let ttv_ms = race.ttv_ms();
    let by_window =
        |rows: &[[f64; 3]], q: usize| median(&rows.iter().map(|r| r[q]).collect::<Vec<_>>());
    let mut e2e = vec![metric("setup_s", setup_s, "s")];
    for (backend, s) in cell::BACKENDS.iter().zip(cell_s) {
        e2e.push(metric(format!("{}.cell_s", backend.key), s, "s"));
    }
    e2e.extend([
        metric("cell.decided", cell.decided as f64, "count"),
        metric("race.decided", race.decided as f64, "count"),
        metric("race.ttv_p90_ms", quantile(&ttv_ms, 0.9), "ms"),
        metric("serve.hit_p50_ms", by_window(&serve.hit_by_window, 0), "ms"),
    ]);
    // Printed by every run and reported per layer, without a bound: on a
    // shared 2-core virtual machine they swing up to twofold from one run
    // to the next. The median race is mostly losers finishing work they
    // cannot cancel, six threads on two cores, so it follows the host's CPU
    // share; every miss waits for two `fdatasync`s on a shared virtual
    // disk; the serve tails follow the host's scheduling hiccups.
    let unbounded = [
        metric("race.ttv_p50_ms", median(&ttv_ms), "ms"),
        metric("serve.rps", median(&serve.rps_by_window), "1/s"),
        metric(
            "serve.miss_p50_ms",
            by_window(&serve.miss_by_window, 0),
            "ms",
        ),
        metric(
            "serve.miss_p90_ms",
            by_window(&serve.miss_by_window, 1),
            "ms",
        ),
        metric(
            "serve.miss_p99_ms",
            by_window(&serve.miss_by_window, 2),
            "ms",
        ),
        metric("serve.hit_p90_ms", by_window(&serve.hit_by_window, 1), "ms"),
        metric("serve.hit_p99_ms", by_window(&serve.hit_by_window, 2), "ms"),
    ];

    let mut lines = vec![format!(
        "perfbench workload={} seed={} seconds={} {} cores={} rounds={ROUNDS}",
        w.name,
        opts.seed,
        opts.seconds,
        if traced { "traced" } else { "untraced" },
        serve::workers()
    )];
    lines.push(format!(
        "setup: cell {:.4}s race {:.4}s serve {:.4}s (median of {} set-ups each)",
        cell_setup_s,
        race_setup_s,
        serve_setup_s,
        setup_times[0].len()
    ));
    lines.push(format!(
        "cell: {} instances x {} backends, work budgets {:?} (decisions; conflicts for sat), \
         decided by backend {:?}, {} schedules verified",
        w.cell_instances,
        cell::BACKENDS.len(),
        w.cell_budgets,
        cell::BACKENDS
            .iter()
            .zip(cell.decided_by)
            .map(|(b, d)| format!("{}={d}", b.key))
            .collect::<Vec<_>>(),
        cell.verified
    ));
    lines.push(format!(
        "race: {} instances, {} ms budget, {} decided ({} samples beyond p90), \
         {} undecided, sat cancelled {} times ({} reporting 0 us)",
        w.race_instances,
        w.race_budget_ms,
        race.decided,
        ttv_ms.len() - (0.9 * ttv_ms.len() as f64).ceil() as usize,
        race.overrun_ms.len(),
        race.sat_cancelled,
        race.sat_cancelled_zero_time
    ));
    lines.push(format!(
        "serve: {} distinct instances (r < {}, {} scanned), {} ms budget, {} connections, \
         {} workers, {} of {} requests answered in {:.3}s, rps and quantiles = median \
         over windows, {} budget straddles, {} records reloaded",
        w.serve_instances,
        w.serve_r_max,
        serve.scanned,
        w.serve_budget_ms,
        serve::CONNECTIONS,
        serve::workers(),
        serve.answered,
        serve.requests,
        serve.wall_s,
        serve.straddles,
        serve.records_loaded
    ));
    for m in e2e.iter().chain(&unbounded) {
        lines.push(format!("  {:<22} {:>14.6} {}", m.name, m.value, m.unit));
    }

    let spans = tracer.spans();
    let layer = if traced {
        let times = layer_times(&spans);
        lines.push(String::new());
        lines.push(
            "spans (per name: count, items, total and self time over the traced measurement):"
                .to_string(),
        );
        for (name, t) in &times {
            lines.push(format!(
                "  {:<20} count {:>7} items {:>7} total {:>10.4}s self {:>10.4}s",
                name, t.count, t.items, t.total_s, t.self_s
            ));
        }
        let mut layer = layer_metrics(w, &cell, &race, &serve, &times);
        layer.extend(unbounded.iter().cloned());
        lines.push(String::new());
        lines.push("per-layer metrics:".to_string());
        for m in &layer {
            lines.push(format!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit));
        }
        lines.push(format!(
            "  (verify.failed = {}, serve.inflight_hits/rejected/errors = {:?}: checked, must be 0)",
            cell.verify_failed,
            serve
                .counters
                .iter()
                .filter(|(n, _)| matches!(*n, "inflight_hits" | "rejected" | "errors"))
                .map(|(_, v)| *v)
                .collect::<Vec<_>>()
        ));
        lines.extend(NOT_FROM_OUTSIDE.iter().map(|s| format!("  note: {s}")));
        layer
    } else {
        Vec::new()
    };

    Measurement {
        e2e,
        layer,
        lines,
        spans,
        tally,
    }
}

/// Per-layer metrics the benchmark cannot time from outside, and how it
/// gets them instead.
pub const NOT_FROM_OUTSIDE: [&str; 5] = [
    "sat.search_s and generic.search_s are the backend solve span minus the \
     encoder span timed just before it: the solve encodes again internally, \
     and no public entry point separates encoding from search inside it",
    "decisions, backtracks, conflicts, propagations, wakes, prunes, nogoods, \
     backjumps, restarts and peak_trail are the engines' own SearchStats \
     counters: work counts cannot be observed from outside",
    "race.winner_solve_ms is the winner's own reported solve time; \
     race.cancel_latency_* is race wall time minus it, measured from outside \
     because a cancelled sat reports 0 us",
    "queue wait, the server's own commits and response rendering happen \
     inside `mgrts serve`; serve.parse_us, serve.key_us, pool.get_us, \
     store.commit_us and serve.render_us come from the in-process replay of \
     the miss path",
    "serve.overhead_ms is client latency minus the response's own time_us \
     on misses: protocol, queueing and the durable store commit together",
];

/// The per-layer metrics of a traced measurement, in `BENCHMARK.json`
/// order.
fn layer_metrics(
    w: &Workload,
    cell: &cell::CellRun,
    race: &race::RaceRun,
    serve: &serve::ServeRun,
    times: &BTreeMap<&'static str, LayerTime>,
) -> Vec<Metric> {
    let lt = |name: &str| times.get(name).cloned().unwrap_or_default();
    // Solve spans cover both attempts at the stream; encoder and
    // constructor spans only the first.
    let attempts = if cell.chunk_s[1].is_empty() { 1.0 } else { 2.0 };
    let solve_s = |name: &str| lt(name).total_s / attempts;
    let instances = w.cell_instances as f64;
    let [dc, sat, generic, learn] = &cell.search;
    let sat_search_s = solve_s("sat.solve") - lt("sat.encode").total_s;
    let generic_search_s = solve_s("generic.solve") - lt("generic.encode").total_s;
    let counter = |name: &str| {
        serve
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };

    let mut out = vec![
        metric("gen.us", lt("gen").us_per_item(), "us"),
        metric("csp2_dc.build_us", lt("csp2_dc.build").us_per_item(), "us"),
        metric("csp2_dc.decisions", dc.decisions as f64, "count"),
        metric("csp2_dc.backtracks", dc.backtracks as f64, "count"),
        metric(
            "csp2_dc.decisions_per_s",
            ratio(dc.decisions as f64, solve_s("csp2_dc.solve")),
            "1/s",
        ),
        metric("sat.encode_us", lt("sat.encode").us_per_item(), "us"),
        metric("sat.build_us", lt("sat.build").us_per_item(), "us"),
        metric(
            "sat.cnf_vars",
            ratio(cell.cnf_vars as f64, instances),
            "count",
        ),
        metric(
            "sat.cnf_clauses",
            ratio(cell.cnf_clauses as f64, instances),
            "count",
        ),
        metric("sat.search_s", sat_search_s, "s"),
        metric("sat.conflicts", sat.conflicts as f64, "count"),
        metric(
            "sat.conflicts_per_s",
            ratio(sat.conflicts as f64, sat_search_s),
            "1/s",
        ),
        metric("sat.propagations", sat.propagations as f64, "count"),
        metric(
            "generic.encode_us",
            lt("generic.encode").us_per_item(),
            "us",
        ),
        metric("generic.search_s", generic_search_s, "s"),
        metric(
            "generic.decisions_per_s",
            ratio(generic.decisions as f64, generic_search_s),
            "1/s",
        ),
        metric("generic.propagations", generic.propagations as f64, "count"),
    ];
    for kind in KINDS {
        let k = generic.kinds.iter().find(|k| k.kind == kind);
        let (wakes, prunes) = k.map_or((0, 0), |k| (k.wakes, k.prunes));
        out.push(metric(
            format!("generic.wakes.{kind}"),
            wakes as f64,
            "count",
        ));
        out.push(metric(
            format!("generic.prunes_per_wake.{kind}"),
            ratio(prunes as f64, wakes as f64),
            "ratio",
        ));
    }
    out.extend([
        metric("generic.peak_trail", generic.peak_trail as f64, "count"),
        metric("learn.conflicts", learn.conflicts as f64, "count"),
        metric(
            "learn.nogoods_per_conflict",
            ratio(learn.learnt_clauses as f64, learn.conflicts as f64),
            "ratio",
        ),
        metric(
            "learn.mean_backjump",
            ratio(learn.backjump_sum as f64, learn.conflicts as f64),
            "levels",
        ),
        metric("learn.restarts", learn.restarts as f64, "count"),
        metric("verify.us", lt("verify").us_per_item(), "us"),
        metric("verify.checked", lt("verify").count as f64, "count"),
        metric("race.winner_solve_ms", median(&race.winner_ms), "ms"),
        metric(
            "race.cancel_latency_p50_ms",
            median(&race.cancel_latency_ms),
            "ms",
        ),
        metric(
            "race.cancel_latency_p90_ms",
            quantile(&race.cancel_latency_ms, 0.9),
            "ms",
        ),
    ]);
    for (name, wins) in &race.wins {
        out.push(metric(format!("race.wins.{name}"), *wins as f64, "count"));
    }
    out.extend([
        metric("race.overrun_return_ms", median(&race.overrun_ms), "ms"),
        metric(
            "race.sat_cancelled_zero_time",
            race.sat_cancelled_zero_time as f64,
            "count",
        ),
        metric("pool.get_us", lt("pool.get").us_per_item(), "us"),
        metric("pool.engines", counter("engines_cached"), "count"),
        metric("serve.parse_us", lt("serve.parse").us_per_item(), "us"),
        metric("serve.key_us", lt("serve.key").us_per_item(), "us"),
        metric("serve.render_us", lt("serve.render").us_per_item(), "us"),
        metric("serve.overhead_ms", median(&serve.overhead_ms), "ms"),
        metric("serve.cache_hits", counter("cache_hits"), "count"),
        metric("serve.cache_misses", counter("cache_misses"), "count"),
        metric("store.commit_us", lt("store.commit").us_per_item(), "us"),
        metric("store.bytes_per_record", serve.bytes_per_record, "bytes"),
        metric("store.load_ms", serve.load_ms, "ms"),
    ]);
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics` (name → value and unit). A non-finite value is written
/// as 0 and makes the result incorrect.
#[must_use]
pub fn result_json(report: &Report) -> String {
    let mut correct = report.correct;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}
