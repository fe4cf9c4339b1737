//! Subcommand implementations. Every command is a pure function from
//! parsed arguments to output text, so the test suite drives them without
//! spawning processes.

use std::time::Duration;

use mgrts_core::csp2::Csp2Solver;
use mgrts_core::engine::{Budget, CancelToken, FeasibilitySolver, FlowEngine, SolverSpec};
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::minimal_m::minimal_processors_with;
use mgrts_core::verify::check_identical;
use mgrts_core::{SolveResult, Verdict};
use rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator};
use rt_prob::{analyze_all, hyperperiod_miss_probability, ExecModel, McConfig};
use rt_task::TaskSet;

use crate::args::{ArgError, Args};
use crate::io::{load_instance, CliError};

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Other(e.to_string())
    }
}

/// Resolve `m`: flag overrides file, file overrides nothing.
fn resolve_m(args: &Args, file_m: Option<usize>) -> Result<usize, CliError> {
    let m = match args.opt::<usize>("m", "a processor count")? {
        Some(m) => m,
        None => {
            file_m.ok_or_else(|| CliError::Other("no --m and the input file embeds none".into()))?
        }
    };
    positive_m(m)
}

/// Reject a platform without processors, as a served request does.
fn positive_m(m: usize) -> Result<usize, CliError> {
    if m == 0 {
        return Err(CliError::Other("m must be positive".into()));
    }
    Ok(m)
}

/// Check a solver's schedule against C1–C4 before it is printed or
/// analysed.
fn check_schedule(ts: &TaskSet, m: usize, s: &mgrts_core::Schedule) -> Result<(), CliError> {
    check_identical(ts, m, s)
        .map_err(|e| CliError::Other(format!("solver produced invalid schedule: {e}")))
}

fn parse_order(args: &Args) -> Result<TaskOrder, CliError> {
    Ok(match args.opt_str("order") {
        None | Some("dc") => TaskOrder::DeadlineMinusWcet,
        Some("input") => TaskOrder::Lexicographic,
        Some("rm") => TaskOrder::RateMonotonic,
        Some("dm") => TaskOrder::DeadlineMonotonic,
        Some("tc") => TaskOrder::PeriodMinusWcet,
        Some(other) => {
            return Err(CliError::Other(format!(
                "unknown --order {other} (expected input|rm|dm|tc|dc)"
            )))
        }
    })
}

fn time_budget(args: &Args) -> Result<Option<Duration>, CliError> {
    Ok(args
        .opt::<u64>("time-ms", "milliseconds")?
        .map(Duration::from_millis))
}

/// Resolve a `--solver` name to an engine. `csp2` honours the separate
/// `--order` flag, so the historical `--solver csp2 --order rm` spelling
/// keeps working next to the explicit `csp2-rm`.
fn resolve_engine(name: &str, order: TaskOrder) -> Result<Box<dyn FeasibilitySolver>, CliError> {
    if name == "csp2" {
        return Ok(SolverSpec::Csp2(order).build());
    }
    let spec: SolverSpec = name.parse().map_err(CliError::Other)?;
    Ok(spec.build())
}

fn run_solver(
    name: &str,
    ts: &TaskSet,
    m: usize,
    order: TaskOrder,
    time: Option<Duration>,
) -> Result<SolveResult, CliError> {
    let engine = resolve_engine(name, order)?;
    let budget = Budget {
        time,
        ..Budget::unlimited()
    };
    Ok(engine.solve(ts, m, &budget, &CancelToken::new())?)
}

/// `mgrts solve <instance> [--m N] [--solver S] [--order O] [--time-ms T]
/// [--gantt] [--json]`
pub fn cmd_solve(args: &Args) -> Result<String, CliError> {
    let inst = load_instance(args.positional(0, "instance")?)?;
    let m = resolve_m(args, inst.file_m)?;
    let solver = args.opt_str("solver").unwrap_or("csp2");
    let order = parse_order(args)?;
    let res = run_solver(solver, &inst.taskset, m, order, time_budget(args)?)?;

    let mut out = String::new();
    match &res.verdict {
        Verdict::Feasible(s) => {
            check_schedule(&inst.taskset, m, s)?;
            out.push_str("FEASIBLE\n");
            if args.switch("json") {
                out.push_str(&serde_json::to_string(s).expect("schedule serializes"));
                out.push('\n');
            }
            if args.switch("gantt") {
                out.push_str(&rt_sim::render_schedule(s));
            }
        }
        Verdict::Infeasible => out.push_str("INFEASIBLE\n"),
        Verdict::Unknown(r) => out.push_str(&format!("UNKNOWN ({r:?})\n")),
    }
    if !args.switch("quiet") {
        let search = res.search.unwrap_or_default();
        out.push_str(&format!(
            "decisions={} failures={} elapsed={:?}\n",
            search.decisions,
            search.backtracks,
            res.stats.elapsed()
        ));
    }
    Ok(out)
}

/// `mgrts analyze <instance> [--m N]`
pub fn cmd_analyze(args: &Args) -> Result<String, CliError> {
    let inst = load_instance(args.positional(0, "instance")?)?;
    let m = resolve_m(args, inst.file_m)?;
    let report = rt_analysis::analyze(&inst.taskset, m);
    Ok(report.to_string())
}

/// `mgrts generate --n N --tmax T [--m M] [--count K] [--seed S]
/// [--synchronous]` — emits one JSON problem per line.
pub fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let n = args.req::<usize>("n", "a task count")?;
    let t_max = args.req::<u64>("tmax", "a maximum period")?;
    let count = args.opt_or::<u64>("count", "an instance count", 1)?;
    let seed = args.opt_or::<u64>("seed", "a seed", 1)?;
    let m = match args.opt_str("m") {
        None => MSpec::UniformBelowN,
        Some("auto") => MSpec::MinUtilization,
        Some(v) => MSpec::Fixed(
            v.parse()
                .map_err(|_| CliError::Other(format!("--m {v}: expected an integer or 'auto'")))?,
        ),
    };
    let cfg = GeneratorConfig {
        n,
        m,
        t_max,
        order: ParamOrder::DeadlineFirst,
        synchronous: args.switch("synchronous"),
    };
    let gen = ProblemGenerator::new(cfg, seed);
    let mut out = String::new();
    for p in gen.batch(count) {
        out.push_str(&serde_json::to_string(&p).expect("problem serializes"));
        out.push('\n');
    }
    Ok(out)
}

/// `mgrts min-m <instance> [--time-ms T]` — the upward scan on the exact
/// flow backend; every `infeasible` line has passed its cut check.
pub fn cmd_min_m(args: &Args) -> Result<String, CliError> {
    let inst = load_instance(args.positional(0, "instance")?)?;
    let result = minimal_processors_with(&inst.taskset, &FlowEngine, time_budget(args)?)?;
    let mut out = String::new();
    for (m, res) in &result.probes {
        out.push_str(&format!(
            "m={m}: {}\n",
            match &res.verdict {
                Verdict::Feasible(_) => "feasible",
                Verdict::Infeasible => "infeasible",
                Verdict::Unknown(_) => "unknown (budget)",
            }
        ));
    }
    match result.minimal_m {
        Some(m) => out.push_str(&format!("minimal m = {m}\n")),
        None => out.push_str("minimal m not determined within budget\n"),
    }
    Ok(out)
}

/// `mgrts gantt <instance> [--m N]` — availability intervals, plus the
/// schedule when `m` resolves and the instance is feasible.
pub fn cmd_gantt(args: &Args) -> Result<String, CliError> {
    let inst = load_instance(args.positional(0, "instance")?)?;
    let mut out = rt_sim::render_intervals(&inst.taskset)?;
    let m = args
        .opt::<usize>("m", "a processor count")?
        .or(inst.file_m)
        .map(positive_m)
        .transpose()?;
    if let Some(m) = m {
        let res = Csp2Solver::new(&inst.taskset, m)?
            .with_order(TaskOrder::DeadlineMinusWcet)
            .solve();
        if let Some(s) = res.verdict.schedule() {
            check_schedule(&inst.taskset, m, s)?;
            out.push('\n');
            out.push_str(&rt_sim::render_schedule(s));
        } else {
            out.push_str("\n(no feasible schedule)\n");
        }
    }
    Ok(out)
}

/// `mgrts prob <instance> [--m N] [--overrun-p P] [--overrun-factor F]
/// [--rounds R]` — probabilistic analysis of the CSP2 schedule.
pub fn cmd_prob(args: &Args) -> Result<String, CliError> {
    let inst = load_instance(args.positional(0, "instance")?)?;
    let m = resolve_m(args, inst.file_m)?;
    let p_over = args.opt_or::<f64>("overrun-p", "a probability", 0.0)?;
    let factor = args.opt_or::<f64>("overrun-factor", "a factor", 2.0)?;
    let rounds = args.opt_or::<u64>("rounds", "a round count", 10_000)?;

    let res = Csp2Solver::new(&inst.taskset, m)?
        .with_order(TaskOrder::DeadlineMinusWcet)
        .solve();
    let Some(schedule) = res.verdict.schedule() else {
        return Err(CliError::Other(
            "instance has no feasible schedule to analyze".into(),
        ));
    };
    check_schedule(&inst.taskset, m, schedule)?;
    let model = if p_over > 0.0 {
        ExecModel::with_overruns(&inst.taskset, p_over, factor)
    } else {
        ExecModel::uniform_to_wcet(&inst.taskset)
    };
    let timings = analyze_all(&inst.taskset, schedule, &model)?;
    let mut out = String::new();
    out.push_str(&format!(
        "exact hyperperiod miss probability: {:.6}\n",
        hyperperiod_miss_probability(&timings)
    ));
    out.push_str(&format!(
        "expected reclaimable idle per hyperperiod: {:.3} slots\n",
        rt_prob::expected_idle_per_hyperperiod(&timings, &model)
    ));
    for t in &timings {
        out.push_str(&format!(
            "task {} job {}: miss={:.4} mean-response={}\n",
            t.job.task,
            t.job.k,
            t.miss_prob,
            t.mean_on_time_response()
                .map_or("-".to_string(), |r| format!("{r:.2}")),
        ));
    }
    let mc = rt_prob::monte_carlo_run(
        &inst.taskset,
        schedule,
        &model,
        &McConfig {
            rounds,
            ..McConfig::default()
        },
    )?;
    out.push_str(&format!(
        "monte-carlo ({rounds} rounds): hyperperiod miss rate {:.6}, mean idle {:.3}\n",
        mc.hyperperiod_miss_rate(),
        mc.mean_idle()
    ));
    Ok(out)
}

/// `mgrts portfolio <instance> [--m N] [--solvers a,b,c] [--time-ms T]
/// [--gantt] [--json]` — race a roster of engines with cooperative
/// cancellation; report the winner and per-backend stats. Without
/// `--solvers` the instance goes to `flow` first and the default roster
/// races only what flow leaves undecided; `--solvers` races exactly the
/// listed engines.
///
/// Routed through [`mgrts_bench::policy::race_roster`] — the same code
/// path the campaign engine's `portfolio-race` policy runs, so this
/// subcommand owns no race loop of its own.
pub fn cmd_portfolio(args: &Args) -> Result<String, CliError> {
    use mgrts_bench::policy::{race_roster, render_race};
    use mgrts_core::engine::PlatformSpec;

    let inst = load_instance(args.positional(0, "instance")?)?;
    let m = resolve_m(args, inst.file_m)?;
    let order = parse_order(args)?;
    let flow = SolverSpec::Flow.build();
    let (flow, roster): (_, Vec<Box<dyn FeasibilitySolver>>) = match args.opt_str("solvers") {
        None => (
            Some(flow.as_ref()),
            SolverSpec::DEFAULT_PORTFOLIO
                .iter()
                .map(|s| s.build())
                .collect(),
        ),
        Some(list) => {
            let mut roster = Vec::new();
            for name in list.split(',').filter(|s| !s.is_empty()) {
                // `csp2` honours --order, exactly like `solve --solver csp2`.
                roster.push(resolve_engine(name, order)?);
            }
            if roster.is_empty() {
                return Err(CliError::Other("--solvers lists no solver".into()));
            }
            (None, roster)
        }
    };
    let budget = Budget {
        time: time_budget(args)?,
        ..Budget::unlimited()
    };
    let (race, verdict) = race_roster(
        flow,
        &roster,
        &inst.taskset,
        &PlatformSpec::identical(m),
        &budget,
        &CancelToken::new(),
    )?;

    let mut out = String::new();
    match &verdict {
        Verdict::Feasible(s) => {
            out.push_str("FEASIBLE\n");
            if args.switch("json") {
                out.push_str(&serde_json::to_string(s).expect("schedule serializes"));
                out.push('\n');
            }
            if args.switch("gantt") {
                out.push_str(&rt_sim::render_schedule(s));
            }
        }
        Verdict::Infeasible => out.push_str("INFEASIBLE\n"),
        Verdict::Unknown(r) => out.push_str(&format!("UNKNOWN ({r:?})\n")),
    }
    out.push_str(&render_race(&race));
    Ok(out)
}

/// `mgrts bench campaign
/// <run|resume|dispatch|worker|status|compact|report|gate|parity>` — the
/// sharded, resumable (and distributable) experiment-campaign engine.
///
/// Execution-policy flags (on `run` and `dispatch`; override the
/// manifest's `[policy]` section before planning, and therefore re-shard):
///
/// * `--policy single|portfolio-race` — what runs per campaign unit: one
///   roster solver, or the whole roster raced with cooperative
///   cancellation;
/// * `--adaptive-quantile Q [--adaptive-min-samples N]` — wrap the policy
///   in adaptive budgets: cap each unit's wall clock at the cell's
///   recorded solve-time quantile once N decided samples exist.
///
/// Single-process verbs:
///
/// * `run --manifest FILE [--out DIR] [--threads N] [--max-shards K]
///   [--quiet]` — start fresh (clears the store), stream JSONL records +
///   checkpoints, emit `BENCH_<name>.json`;
/// * `resume [--out DIR] [--threads N] [--max-shards K] [--quiet]` —
///   continue a killed campaign exactly where it stopped (committed
///   shards are deduped by content hash);
///
/// Distributed verbs (N processes / machines sharing one store):
///
/// * `dispatch --manifest FILE [--out DIR] [--fresh]` — prepare (or
///   idempotently join) a shared store and sweep expired leases;
/// * `worker [--out DIR] [--id ID] [--threads N] [--lease-ttl-ms MS]
///   [--poll-ms MS] [--max-shards K] [--policy P] [--quiet]` — claim
///   shards via leases, heartbeat while solving, drain until the campaign
///   completes (`--policy` is a guard: refuse a store whose manifest
///   declares a different policy);
/// * `status [--out DIR] [--json]` — per-worker progress and throughput,
///   in-flight and stale leases, completion ETA (`--json` for
///   orchestrators / autoscalers);
/// * `compact [--out DIR]` — merge worker segments, drop superseded
///   copies, snapshot `canonical.jsonl`;
///
/// Reporting:
///
/// * `report <table1|table3|table4|hetero|winners|summary> [--out DIR]` —
///   render a table over the record store (`winners`: per-cell race
///   winner counts of a portfolio campaign);
/// * `gate --summary FILE --baseline FILE [--tolerance F]` — CI perf
///   gate: fail on > F wall-time regression (default 0.25) or any solver
///   verdict drift;
/// * `parity --race DIR --single DIR` — cross-policy gate: a
///   portfolio-race store's per-unit verdicts must match the best
///   single-solver verdict of the same workload (budget straddles warn).
pub fn cmd_bench(args: &Args) -> Result<String, CliError> {
    use mgrts_bench::campaign::{self, CampaignOptions, Manifest, ReportKind, Summary};
    use mgrts_bench::policy::{AdaptiveSpec, PolicyKind};
    use mgrts_bench::queue::{self, WorkerOptions};
    use mgrts_core::engine::CancelGroup;
    use std::path::PathBuf;

    if args.positional(0, "campaign")? != "campaign" {
        return Err(CliError::Other(
            "usage: mgrts bench campaign \
             <run|resume|dispatch|worker|status|compact|report|gate|parity> …"
                .into(),
        ));
    }
    let verb = args.positional(
        1,
        "run|resume|dispatch|worker|status|compact|report|gate|parity",
    )?;
    // Apply the policy-selection flags on top of a loaded manifest.
    let apply_policy = |manifest: &mut Manifest| -> Result<(), CliError> {
        if let Some(mode) = args.opt_str("policy") {
            manifest.policy.mode = mode.parse::<PolicyKind>().map_err(CliError::Other)?;
        }
        match args.opt::<f64>("adaptive-quantile", "a quantile in (0, 1]")? {
            Some(q) => {
                let min_samples = args.opt_or::<u64>(
                    "adaptive-min-samples",
                    "a sample count",
                    AdaptiveSpec::DEFAULT_MIN_SAMPLES,
                )?;
                manifest.policy.adaptive = Some(
                    AdaptiveSpec::new(q, min_samples)
                        .map_err(|e| CliError::Other(format!("--adaptive-quantile: {e}")))?,
                );
            }
            None => {
                if args.opt_str("adaptive-min-samples").is_some() {
                    return Err(CliError::Other(
                        "--adaptive-min-samples requires --adaptive-quantile".into(),
                    ));
                }
            }
        }
        Ok(())
    };
    let out_dir = |manifest: Option<&Manifest>| -> Result<PathBuf, CliError> {
        if let Some(dir) = args.opt_str("out") {
            return Ok(PathBuf::from(dir));
        }
        match manifest {
            Some(m) => {
                // The default store is keyed by campaign name *and* policy:
                // one manifest now yields different campaigns per policy,
                // and `run`'s fresh start clears the target directory — a
                // race re-run of the smoke manifest must not silently wipe
                // the single-solver store it will be compared against.
                let mut name = m.name.clone();
                if !m.policy.is_default() {
                    name.push('-');
                    name.push_str(m.policy.mode.name());
                    if m.policy.adaptive.is_some() {
                        name.push_str("-adaptive");
                    }
                }
                Ok(PathBuf::from(format!("target/campaigns/{name}")))
            }
            None => Err(CliError::Other(
                "no --out and no manifest to derive it from".into(),
            )),
        }
    };
    let opts = CampaignOptions {
        threads: args.opt_or::<usize>(
            "threads",
            "a thread count",
            CampaignOptions::default().threads,
        )?,
        progress: !args.switch("quiet"),
        max_shards: args.opt::<u64>("max-shards", "a shard count")?,
    };
    let campaign_err = |e: campaign::CampaignError| CliError::Other(e.to_string());

    match verb {
        "run" => {
            let path: String = args.req("manifest", "a manifest file")?;
            let mut manifest = Manifest::load(std::path::Path::new(&path)).map_err(campaign_err)?;
            apply_policy(&mut manifest)?;
            let dir = out_dir(Some(&manifest))?;
            let outcome = campaign::run_fresh(&manifest, &dir, &opts, &CancelGroup::new())
                .map_err(campaign_err)?;
            Ok(format!(
                "{}record store: {}\n",
                campaign::render_summary(&outcome.summary),
                dir.display()
            ))
        }
        "resume" => {
            let dir = out_dir(None)?;
            let outcome =
                campaign::resume(&dir, &opts, &CancelGroup::new()).map_err(campaign_err)?;
            Ok(format!(
                "{}resumed: {} shard(s) committed this invocation\n",
                campaign::render_summary(&outcome.summary),
                outcome.shards_committed
            ))
        }
        "dispatch" => {
            let path: String = args.req("manifest", "a manifest file")?;
            let mut manifest = Manifest::load(std::path::Path::new(&path)).map_err(campaign_err)?;
            apply_policy(&mut manifest)?;
            let dir = out_dir(Some(&manifest))?;
            let report =
                queue::dispatch(&manifest, &dir, args.switch("fresh")).map_err(campaign_err)?;
            Ok(format!(
                "{} store {}: {} shard(s) planned, {} done, {} expired lease(s) reclaimed\n\
                 workers join with: mgrts bench campaign worker --out {}\n",
                if report.initialized {
                    "initialized"
                } else {
                    "joined"
                },
                dir.display(),
                report.shards_total,
                report.shards_done,
                report.leases_reclaimed,
                dir.display(),
            ))
        }
        "worker" => {
            let dir = out_dir(None)?;
            // --policy on a worker is a guard, not an override: the policy
            // lives in the dispatched manifest (it shapes the shard plan),
            // so a worker started for the wrong policy must refuse early
            // rather than silently run whatever the store declares.
            if let Some(expect) = args.opt_str("policy") {
                use mgrts_bench::sink::{LocalStore, RecordStore};
                let expect = expect.parse::<PolicyKind>().map_err(CliError::Other)?;
                let store = LocalStore::open(&dir)?;
                let stored = Manifest::parse(
                    &store
                        .read_manifest()
                        .map_err(|e| CliError::Other(format!("store has no manifest: {e}")))?,
                )
                .map_err(campaign_err)?;
                if stored.policy.mode != expect {
                    return Err(CliError::Other(format!(
                        "store {} was dispatched with policy `{}`, worker expects `{expect}`",
                        dir.display(),
                        stored.policy.mode
                    )));
                }
            }
            let defaults = WorkerOptions::default();
            let wopts = WorkerOptions {
                id: args
                    .opt_str("id")
                    .map_or_else(|| defaults.id.clone(), ToString::to_string),
                threads: args.opt_or::<usize>("threads", "a thread count", defaults.threads)?,
                lease_ttl: args
                    .opt::<u64>("lease-ttl-ms", "milliseconds")?
                    .map_or(defaults.lease_ttl, Duration::from_millis),
                poll: args
                    .opt::<u64>("poll-ms", "milliseconds")?
                    .map_or(defaults.poll, Duration::from_millis),
                max_shards: args.opt::<u64>("max-shards", "a shard count")?,
                progress: !args.switch("quiet"),
            };
            let outcome =
                queue::run_worker(&dir, &wopts, &CancelGroup::new()).map_err(campaign_err)?;
            Ok(format!(
                "{}worker {}: {} shard(s) committed this invocation\n",
                campaign::render_summary(&outcome.summary),
                wopts.id,
                outcome.shards_committed
            ))
        }
        "status" => {
            let dir = out_dir(None)?;
            let report = queue::status(&dir).map_err(campaign_err)?;
            if args.switch("json") {
                let mut out = serde_json::to_string_pretty(&report)
                    .map_err(|e| CliError::Other(e.to_string()))?;
                out.push('\n');
                Ok(out)
            } else {
                Ok(queue::render_status(&report))
            }
        }
        "parity" => {
            let race: String = args.req("race", "a portfolio-race store directory")?;
            let single: String = args.req("single", "a single-solver store directory")?;
            let report =
                campaign::parity(std::path::Path::new(&race), std::path::Path::new(&single))
                    .map_err(campaign_err)?;
            let body = report
                .lines
                .iter()
                .map(|l| format!("  {l}\n"))
                .collect::<String>();
            if report.ok {
                Ok(format!("POLICY PARITY PASS\n{body}"))
            } else {
                Err(CliError::Other(format!("POLICY PARITY FAIL\n{body}")))
            }
        }
        "compact" => {
            let dir = out_dir(None)?;
            let report = campaign::compact(&dir).map_err(campaign_err)?;
            Ok(format!(
                "compacted {}: {} record line(s) -> {} record(s) over {} shard(s); \
                 {} worker segment(s) merged; canonical export snapshotted\n",
                dir.display(),
                report.lines_before,
                report.records,
                report.shards,
                report.segments_merged
            ))
        }
        "report" => {
            let kind: ReportKind = args
                .positional(2, "table1|table3|table4|hetero|winners|profile|summary")?
                .parse()
                .map_err(CliError::Other)?;
            let dir = out_dir(None)?;
            campaign::report(&dir, kind).map_err(campaign_err)
        }
        "gate" => {
            let load = |key: &str| -> Result<Summary, CliError> {
                let path: String = args.req(key, "a BENCH_*.json file")?;
                let text = std::fs::read_to_string(&path)?;
                serde_json::from_str(&text).map_err(|e| CliError::Parse(format!("{path}: {e}")))
            };
            let current = load("summary")?;
            let baseline = load("baseline")?;
            let tolerance = args.opt_or::<f64>("tolerance", "a fraction", 0.25)?;
            let report = campaign::gate(&current, &baseline, tolerance);
            let body = report
                .lines
                .iter()
                .map(|l| format!("  {l}\n"))
                .collect::<String>();
            if report.ok {
                Ok(format!("PERF GATE PASS\n{body}"))
            } else {
                Err(CliError::Other(format!("PERF GATE FAIL\n{body}")))
            }
        }
        other => Err(CliError::Other(format!(
            "unknown campaign verb {other:?} \
             (expected run|resume|dispatch|worker|status|compact|report|gate|parity)"
        ))),
    }
}

/// `mgrts verify <instance> --schedule <schedule.json> [--m N]`
pub fn cmd_verify(args: &Args) -> Result<String, CliError> {
    let inst = load_instance(args.positional(0, "instance")?)?;
    let sched_path: String = args.req("schedule", "a schedule file")?;
    let text = std::fs::read_to_string(&sched_path)?;
    let schedule: mgrts_core::Schedule =
        serde_json::from_str(&text).map_err(|e| CliError::Parse(format!("schedule file: {e}")))?;
    let m = args
        .opt::<usize>("m", "a processor count")?
        .or(inst.file_m)
        .unwrap_or_else(|| schedule.num_processors());
    match check_identical(&inst.taskset, m, &schedule) {
        Ok(()) => Ok("VALID: all conditions C1-C4 hold\n".to_string()),
        Err(e) => Ok(format!("INVALID: {e}\n")),
    }
}

/// `mgrts serve [--addr A] [--data-dir DIR] [--workers N] [--queue-cap N]
/// [--budget-ms MS] [--spill-tasks N] [--spill-budget-ms MS]
/// [--solve-delay-ms MS] [--slow-ms MS] [--job-retries N]
/// [--deadline-slack-ms MS]`
///
/// Runs until SIGTERM/SIGINT or a wire-level `shutdown` request.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let defaults = mgrts_bench::serve::ServeConfig::default();
    let cfg = mgrts_bench::serve::ServeConfig {
        addr: args.opt_str("addr").map_or(defaults.addr, str::to_string),
        data_dir: args
            .opt_str("data-dir")
            .map_or(defaults.data_dir, std::path::PathBuf::from),
        workers: args.opt_or("workers", "a worker count", defaults.workers)?,
        queue_cap: args.opt_or("queue-cap", "a queue depth", defaults.queue_cap)?,
        default_budget_ms: args.opt_or("budget-ms", "milliseconds", defaults.default_budget_ms)?,
        spill_tasks: args.opt_or("spill-tasks", "a task count", defaults.spill_tasks)?,
        spill_budget_ms: args.opt_or(
            "spill-budget-ms",
            "milliseconds",
            defaults.spill_budget_ms,
        )?,
        solve_delay_ms: args.opt_or("solve-delay-ms", "milliseconds", defaults.solve_delay_ms)?,
        slow_ms: args.opt_or("slow-ms", "milliseconds", defaults.slow_ms)?,
        job_retries: args.opt_or("job-retries", "a retry count", defaults.job_retries)?,
        deadline_slack_ms: args.opt_or(
            "deadline-slack-ms",
            "milliseconds",
            defaults.deadline_slack_ms,
        )?,
    };
    let token = crate::signal::install();
    let summary = mgrts_bench::serve::run(cfg, &token)?;
    Ok(format!("{summary}\n"))
}

/// Connect to a serve endpoint, retrying until `wait_ms` elapses (the
/// server may still be binding when CI fires the first client). Retries
/// back off exponentially with jitter so a fleet of clients hammering a
/// restarting server spreads out instead of thundering in lockstep.
fn client_connect(addr: &str, wait_ms: u64) -> Result<std::net::TcpStream, CliError> {
    let deadline = std::time::Instant::now() + Duration::from_millis(wait_ms);
    let salt = u64::from(std::process::id());
    let mut attempt = 0u32;
    loop {
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(CliError::Other(format!("cannot connect to {addr}: {e}")));
                }
                std::thread::sleep(mgrts_fault::backoff_delay(attempt, 25, 1_000, salt));
                attempt += 1;
            }
        }
    }
}

/// One line-delimited request/response exchange.
fn client_exchange(stream: &std::net::TcpStream, line: &str) -> Result<String, CliError> {
    use std::io::{BufRead, BufReader, Write};
    let mut out = stream.try_clone()?;
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    if response.is_empty() {
        return Err(CliError::Other("server closed the connection".into()));
    }
    Ok(response.trim_end().to_string())
}

/// Build the JSON `solve` request from client flags.
fn client_solve_line(args: &Args) -> Result<String, CliError> {
    use serde::Serialize;
    use serde_json::Value;
    let inst = load_instance(args.positional(1, "instance")?)?;
    let m = resolve_m(args, inst.file_m)?;
    let mut fields = vec![
        ("type".to_string(), Value::String("solve".into())),
        ("taskset".to_string(), inst.taskset.to_value()),
        ("m".to_string(), Value::UInt(m as u64)),
    ];
    if let Some(solver) = args.opt_str("solver") {
        fields.push(("solver".to_string(), Value::String(solver.to_string())));
    }
    if let Some(policy) = args.opt_str("policy") {
        fields.push(("policy".to_string(), Value::String(policy.to_string())));
    }
    if let Some(budget) = args.opt::<u64>("budget-ms", "milliseconds")? {
        fields.push(("budget_ms".to_string(), Value::UInt(budget)));
    }
    if let Some(seed) = args.opt::<u64>("seed", "a seed")? {
        fields.push(("seed".to_string(), Value::UInt(seed)));
    }
    serde_json::to_string(&Value::Object(fields)).map_err(|e| CliError::Other(e.to_string()))
}

/// Render a `stats` response as an aligned human-readable listing,
/// preserving the server's field order.
fn render_stats(response: &str) -> Result<String, CliError> {
    let v: serde_json::Value = serde_json::from_str(response)
        .map_err(|e| CliError::Parse(format!("server response: {e}")))?;
    let serde_json::Value::Object(fields) = v else {
        return Err(CliError::Parse(
            "server response: expected an object".into(),
        ));
    };
    let width = fields
        .iter()
        .filter(|(k, _)| k != "type")
        .map(|(k, _)| k.len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (k, v) in &fields {
        if k == "type" {
            continue;
        }
        let rendered = match v {
            serde_json::Value::UInt(n) => n.to_string(),
            serde_json::Value::String(s) => s.clone(),
            other => serde_json::to_string(other).unwrap_or_default(),
        };
        out.push_str(&format!("{k:width$}  {rendered}\n"));
    }
    Ok(out)
}

/// `mgrts client <solve|poll|stats|metrics> [...]` — a line-protocol
/// client for `mgrts serve`. Prints the raw response JSON, one line per
/// exchange (except `stats` without `--json`, which renders a listing,
/// and `metrics`, which prints the exposition body).
///
/// * `client solve <instance> [--m N] [--solver S | --policy P]`
///   `[--budget-ms MS] [--seed S] [--count K] [--parallel]`
/// * `client poll --ticket T [--wait-ms MS]` — with `--wait-ms`, retries
///   until the ticket settles or the wait elapses (then errors).
/// * `client stats [--json] [--watch SECS]` — `--watch` re-samples every
///   `SECS` seconds until interrupted.
/// * `client metrics` — Prometheus text exposition from the server.
///
/// All verbs accept `--addr HOST:PORT` (default `127.0.0.1:7077`) and
/// `--connect-ms MS` (connection-retry window, default 5000).
pub fn cmd_client(args: &Args) -> Result<String, CliError> {
    let addr = args.opt_str("addr").unwrap_or("127.0.0.1:7077").to_string();
    let connect_ms: u64 = args.opt_or("connect-ms", "milliseconds", 5_000)?;
    match args.positional(0, "verb")? {
        "solve" => {
            let line = client_solve_line(args)?;
            let count: usize = args.opt_or("count", "a repeat count", 1)?;
            if args.switch("parallel") && count > 1 {
                let handles: Vec<_> = (0..count)
                    .map(|_| {
                        let addr = addr.clone();
                        let line = line.clone();
                        std::thread::spawn(move || -> Result<String, CliError> {
                            let stream = client_connect(&addr, connect_ms)?;
                            client_exchange(&stream, &line)
                        })
                    })
                    .collect();
                let mut out = String::new();
                for handle in handles {
                    let response = handle
                        .join()
                        .map_err(|_| CliError::Other("client thread panicked".into()))??;
                    out.push_str(&response);
                    out.push('\n');
                }
                Ok(out)
            } else {
                let stream = client_connect(&addr, connect_ms)?;
                let mut out = String::new();
                for _ in 0..count {
                    out.push_str(&client_exchange(&stream, &line)?);
                    out.push('\n');
                }
                Ok(out)
            }
        }
        "poll" => {
            let ticket: String = args.req("ticket", "a ticket id")?;
            let wait_ms: u64 = args.opt_or("wait-ms", "milliseconds", 0)?;
            let line = format!("{{\"type\":\"poll\",\"ticket\":\"{ticket}\"}}");
            let deadline = std::time::Instant::now() + Duration::from_millis(wait_ms);
            let salt = u64::from(std::process::id());
            let mut attempt = 0u32;
            loop {
                let stream = client_connect(&addr, connect_ms)?;
                let response = client_exchange(&stream, &line)?;
                let v: serde_json::Value = serde_json::from_str(&response)
                    .map_err(|e| CliError::Parse(format!("server response: {e}")))?;
                // `done` and `failed` are both terminal: a failed job will
                // never settle to a verdict, so waiting on it is a hang.
                let pending = v["type"].as_str() == Some("poll")
                    && !matches!(v["status"].as_str(), Some("done" | "failed"));
                if !pending {
                    return Ok(format!("{response}\n"));
                }
                if std::time::Instant::now() >= deadline {
                    if wait_ms == 0 {
                        // Single-shot poll: report the pending status as-is.
                        return Ok(format!("{response}\n"));
                    }
                    return Err(CliError::Other(format!(
                        "ticket {ticket} still pending after {wait_ms} ms"
                    )));
                }
                std::thread::sleep(mgrts_fault::backoff_delay(attempt, 50, 2_000, salt));
                attempt += 1;
            }
        }
        "stats" => {
            let json = args.switch("json");
            let watch: u64 = args.opt_or("watch", "seconds", 0)?;
            loop {
                let stream = client_connect(&addr, connect_ms)?;
                let response = client_exchange(&stream, "{\"type\":\"stats\"}")?;
                let rendered = if json {
                    format!("{response}\n")
                } else {
                    render_stats(&response)?
                };
                if watch == 0 {
                    return Ok(rendered);
                }
                // Write directly (not via print!) so a closed pipe — the
                // consumer went away — ends the watch instead of panicking.
                use std::io::Write as _;
                let mut out = std::io::stdout();
                let sep = if json { "" } else { "\n" };
                if out
                    .write_all(rendered.as_bytes())
                    .and_then(|()| out.write_all(sep.as_bytes()))
                    .and_then(|()| out.flush())
                    .is_err()
                {
                    return Ok(String::new());
                }
                std::thread::sleep(Duration::from_secs(watch));
            }
        }
        "metrics" => {
            let stream = client_connect(&addr, connect_ms)?;
            let response = client_exchange(&stream, "{\"type\":\"metrics\"}")?;
            let v: serde_json::Value = serde_json::from_str(&response)
                .map_err(|e| CliError::Parse(format!("server response: {e}")))?;
            match v["body"].as_str() {
                Some(body) => Ok(body.to_string()),
                None => Ok(format!("{response}\n")),
            }
        }
        other => Err(CliError::Other(format!(
            "unknown client verb {other:?} (expected solve|poll|stats|metrics)"
        ))),
    }
}

/// Usage text.
#[must_use]
pub fn usage() -> String {
    "mgrts — global multiprocessor real-time scheduling as a CSP\n\
     \n\
     USAGE: mgrts <command> [args]\n\
     \n\
     COMMANDS\n\
       solve <instance>     decide feasibility and print a schedule\n\
                            [--m N] [--solver csp1|csp2|csp2-generic|csp2-learn|sat|\n\
                            flow|local|local-tabu|local-sa]\n\
                            [--order input|rm|dm|tc|dc] [--time-ms T] [--gantt] [--json]\n\
       analyze <instance>   run the polynomial schedulability battery [--m N]\n\
       generate             emit random instances (JSON, one per line)\n\
                            --n N --tmax T [--m M|auto] [--count K] [--seed S] [--synchronous]\n\
       min-m <instance>     smallest feasible m, scanned with the exact flow backend\n\
                            [--time-ms T]\n\
       gantt <instance>     render availability intervals (and schedule with --m)\n\
       prob <instance>      probabilistic execution-time analysis [--m N]\n\
                            [--overrun-p P] [--overrun-factor F] [--rounds R]\n\
       verify <instance>    check a schedule file against C1-C4 --schedule FILE\n\
       portfolio <instance> race engines in parallel; first definitive verdict wins\n\
                            [--m N] [--solvers csp1,csp2-dc,sat,...] [--time-ms T]\n\
                            [--gantt] [--json]\n\
       bench campaign run   execute a campaign manifest (sharded, resumable)\n\
                            --manifest FILE [--out DIR] [--threads N]\n\
                            [--max-shards K] [--quiet]\n\
                            [--policy single|portfolio-race]\n\
                            [--adaptive-quantile Q [--adaptive-min-samples N]]\n\
       bench campaign resume  continue a killed campaign --out DIR\n\
       bench campaign dispatch  prepare/join a shared store for workers\n\
                            --manifest FILE [--out DIR] [--fresh]\n\
                            [--policy P] [--adaptive-quantile Q]\n\
       bench campaign worker  claim + solve shards via leases until done\n\
                            --out DIR [--id ID] [--threads N]\n\
                            [--lease-ttl-ms MS] [--poll-ms MS]\n\
                            [--max-shards K] [--policy P] [--quiet]\n\
       bench campaign status  per-worker progress, throughput + ETA\n\
                            --out DIR [--json]\n\
       bench campaign compact  merge segments, drop stale copies --out DIR\n\
       bench campaign report  <table1|table3|table4|hetero|winners|profile\n\
                            |summary> --out DIR\n\
       bench campaign gate  compare BENCH summaries (CI perf gate)\n\
                            --summary FILE --baseline FILE [--tolerance F]\n\
       bench campaign parity  portfolio-race verdicts vs single-solver runs\n\
                            --race DIR --single DIR\n\
       serve                resident feasibility service (JSON lines over TCP)\n\
                            [--addr H:P] [--data-dir DIR] [--workers N]\n\
                            [--queue-cap N] [--budget-ms MS] [--spill-tasks N]\n\
                            [--spill-budget-ms MS]; SIGTERM shuts down cleanly\n\
       client solve <instance>  send a solve request to a running server\n\
                            [--addr H:P] [--m N] [--solver S | --policy P]\n\
                            [--budget-ms MS] [--seed S] [--count K] [--parallel]\n\
       client poll          resolve a spill ticket --ticket T [--wait-ms MS]\n\
       client stats         server counters (cache hits, queue depth, ...)\n\
                            [--json] [--watch SECS]\n\
       client metrics       Prometheus text exposition from the server\n\
     \n\
     Instances are JSON: {\"tasks\":[{\"offset\":0,\"wcet\":1,\"deadline\":2,\"period\":2},…]}\n\
     or the full problem objects produced by `mgrts generate`. `-` reads stdin.\n"
        .to_string()
}

/// Dispatch a full command line (without the program name).
pub fn dispatch(mut argv: std::env::Args) -> Result<String, CliError> {
    let _program = argv.next();
    let Some(command) = argv.next() else {
        return Ok(usage());
    };
    let args = Args::parse(argv)?;
    run_command(&command, &args)
}

/// Dispatch with explicit tokens (test entry point).
pub fn run_command(command: &str, args: &Args) -> Result<String, CliError> {
    if args.switch("help") {
        return Ok(usage());
    }
    match command {
        "solve" => cmd_solve(args),
        "analyze" => cmd_analyze(args),
        "generate" => cmd_generate(args),
        "min-m" => cmd_min_m(args),
        "gantt" => cmd_gantt(args),
        "prob" => cmd_prob(args),
        "portfolio" => cmd_portfolio(args),
        "bench" => cmd_bench(args),
        "verify" => cmd_verify(args),
        "serve" => cmd_serve(args),
        "client" => cmd_client(args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::Other(format!(
            "unknown command {other:?}; run `mgrts help`"
        ))),
    }
}
