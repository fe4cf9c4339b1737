//! Execution policies: *what runs, and with what budget*, for one
//! campaign unit.
//!
//! Before this module the campaign executor hard-wired one shape of work
//! into [`crate::campaign`]: every `(cell, instance, solver)` unit ran one
//! roster solver under the manifest's global `time_limit_ms`. The paper's
//! headline comparison (Table I) and both ROADMAP follow-ups — racing the
//! roster per instance, and sizing budgets from recorded solve times —
//! need different answers to the same two questions, so the seam is one
//! trait:
//!
//! * [`SingleSolver`] — the historical path: one unit per
//!   `(cell, instance, solver)`, each running `roster[solver]`;
//! * [`PortfolioRace`] — one unit per `(cell, instance)`, racing the whole
//!   roster via [`mgrts_core::portfolio`] with cooperative cancellation;
//!   the record keeps the winner label, every loser's serializable stats
//!   and the cancellation latency;
//! * [`AdaptiveBudget`] — a wrapper around either of the above that caps
//!   each unit's wall-clock allowance at a configurable quantile of the
//!   solve times already recorded in the [`RecordStore`], falling back to
//!   the manifest's `time_limit_ms` until enough samples exist.
//!
//! Policies are declared in the manifest's `[policy]` section (see
//! [`crate::campaign::Manifest`]), participate in the campaign fingerprint
//! (changing the policy re-shards), and are **resumable and lease-safe**:
//! a policy is built once per executor/worker process from the manifest
//! plus a snapshot of the store, so any number of workers can drain the
//! same plan. Adaptive allowances are re-derived per claimed shard via
//! [`ExecutionPolicy::refresh`] (so long-running workers see records
//! committed after they started) — a budget is a measurement-domain
//! quantity (like the wall clock itself), so two workers with different
//! snapshots still commit records that dedupe identically.

use std::str::FromStr;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use mgrts_core::engine::{
    Budget, CancelToken, EnginePool, FeasibilitySolver, PlatformSpec, SolverSpec,
};
use mgrts_core::portfolio::{self, BackendStat};
use mgrts_core::solve::Verdict;
use mgrts_obs::flight;
use rt_gen::Problem;
use rt_task::TaskSet;

use crate::campaign::{CampaignError, Manifest};
use crate::runner::{self, classify, InstanceOutcome};
use crate::sink::RecordStore;

// ---------------------------------------------------------------------------
// Declarative policy configuration (the manifest `[policy]` section)
// ---------------------------------------------------------------------------

/// Which executor shape produced a record (persisted per line; old
/// pre-policy segments deserialize as `None` and default to `Single`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// One roster solver per unit.
    Single,
    /// The whole roster raced per unit.
    PortfolioRace,
}

/// Where a unit's wall-clock allowance came from (persisted per line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetSource {
    /// The manifest's global `time_limit_ms`.
    Manifest,
    /// An [`AdaptiveBudget`] quantile over recorded solve times.
    Adaptive,
}

/// The base executor shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyMode {
    /// One roster solver per unit (the historical default).
    #[default]
    Single,
    /// Race the roster per instance.
    PortfolioRace,
}

impl PolicyMode {
    /// Stable manifest / CLI name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PolicyMode::Single => "single",
            PolicyMode::PortfolioRace => "portfolio-race",
        }
    }
}

impl std::fmt::Display for PolicyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PolicyMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "single" => PolicyMode::Single,
            "portfolio-race" | "portfolio" | "race" => PolicyMode::PortfolioRace,
            other => {
                return Err(format!(
                    "unknown policy mode `{other}` (expected single|portfolio-race)"
                ))
            }
        })
    }
}

/// Adaptive-budget wrapper configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSpec {
    /// Quantile of recorded decided solve times used as the per-cell
    /// allowance, in `(0, 1]`.
    pub quantile: f64,
    /// Decided samples a cell needs before the quantile applies; below it
    /// the manifest `time_limit_ms` is used unchanged.
    pub min_samples: u64,
}

impl AdaptiveSpec {
    /// Default sample floor before a quantile allowance engages.
    pub const DEFAULT_MIN_SAMPLES: u64 = 8;

    /// Validated constructor — the single place the quantile range rule
    /// lives (manifest parsing, the CLI flags and policy building all
    /// route through it / [`AdaptiveSpec::validate`]).
    pub fn new(quantile: f64, min_samples: u64) -> Result<Self, String> {
        let spec = AdaptiveSpec {
            quantile,
            min_samples,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Check the spec's invariants (quantile in `(0, 1]`).
    pub fn validate(&self) -> Result<(), String> {
        if self.quantile > 0.0 && self.quantile <= 1.0 {
            Ok(())
        } else {
            Err(format!("adaptive quantile {} out of (0, 1]", self.quantile))
        }
    }
}

/// The manifest's declarative policy: base mode plus the optional
/// adaptive-budget wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicySpec {
    /// Base executor shape.
    pub mode: PolicyMode,
    /// Optional adaptive-budget wrapper.
    pub adaptive: Option<AdaptiveSpec>,
}

impl PolicySpec {
    /// Is this the historical default (single solver, manifest budgets)?
    /// The default keeps fingerprints byte-identical to pre-policy
    /// campaigns, so existing stores and baselines stay valid.
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == PolicySpec::default()
    }

    /// Fingerprint component; policy changes re-shard because this feeds
    /// every shard's content hash (the default contributes nothing — see
    /// [`PolicySpec::is_default`]).
    #[must_use]
    pub fn tag(&self) -> String {
        let mut out = self.mode.name().to_string();
        if let Some(a) = &self.adaptive {
            out.push_str(&format!(
                "+adaptive(q={},min={})",
                a.quantile, a.min_samples
            ));
        }
        out
    }

    /// The [`PolicyKind`] recorded on every unit this policy executes.
    #[must_use]
    pub fn kind(&self) -> PolicyKind {
        match self.mode {
            PolicyMode::Single => PolicyKind::Single,
            PolicyMode::PortfolioRace => PolicyKind::PortfolioRace,
        }
    }

    /// Units contributed per `(cell, instance)`: the roster length under
    /// `Single`, one racing unit under `PortfolioRace`.
    #[must_use]
    pub fn units_per_instance(&self, roster_len: usize) -> usize {
        match self.mode {
            PolicyMode::Single => roster_len,
            PolicyMode::PortfolioRace => 1,
        }
    }

    /// Build the executable policy for `manifest` over a snapshot of
    /// `store` (the adaptive wrapper reads recorded solve times; the other
    /// policies ignore the store).
    pub fn build(
        &self,
        manifest: &Manifest,
        store: &dyn RecordStore,
    ) -> Result<Box<dyn ExecutionPolicy>, CampaignError> {
        let base: Box<dyn ExecutionPolicy> = match self.mode {
            PolicyMode::Single => Box::new(SingleSolver {
                roster: manifest.roster.clone(),
                time_limit: manifest.time_limit,
                pool: EnginePool::new(),
            }),
            PolicyMode::PortfolioRace => Box::new(PortfolioRace {
                roster: manifest.roster.clone(),
                time_limit: manifest.time_limit,
                pool: EnginePool::new(),
            }),
        };
        match &self.adaptive {
            None => Ok(base),
            Some(spec) => {
                spec.validate().map_err(CampaignError::Manifest)?;
                let budgets = adaptive_cell_budgets(manifest.cells.len(), store, spec)?;
                Ok(Box::new(AdaptiveBudget {
                    inner: base,
                    spec: *spec,
                    n_cells: manifest.cells.len(),
                    per_cell: std::sync::Mutex::new(budgets),
                }))
            }
        }
    }
}

/// Snapshot the per-cell quantile allowances from the records currently in
/// `store`. Samples only runs decided under the *manifest* limit: feeding
/// adaptively-capped times back into the quantile would ratchet allowances
/// downward with every resume / late-joining worker (slow-but-decided runs
/// turn into excluded Overruns under a cap, so a capped sample set is
/// biased fast).
fn adaptive_cell_budgets(
    n_cells: usize,
    store: &dyn RecordStore,
    spec: &AdaptiveSpec,
) -> Result<Vec<Option<Duration>>, CampaignError> {
    let mut per_cell: Vec<Vec<u64>> = vec![Vec::new(); n_cells];
    for r in store.load_records()? {
        if r.cell < per_cell.len()
            && r.budget_src() == BudgetSource::Manifest
            && matches!(
                r.outcome,
                InstanceOutcome::Solved | InstanceOutcome::ProvedInfeasible
            )
        {
            per_cell[r.cell].push(r.time_us);
        }
    }
    Ok(per_cell
        .into_iter()
        .map(|samples| budget_from_samples(samples, spec))
        .collect())
}

/// Nearest-rank quantile over an ascending-sorted sample set: the smallest
/// sample `x` such that at least `q·n` samples are `≤ x`. `None` on an
/// empty set.
#[must_use]
pub fn quantile_us(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1).min(sorted.len()) - 1])
}

/// The adaptive allowance of one cell: the configured quantile of its
/// decided solve times, or `None` (manifest fallback) below the sample
/// floor.
#[must_use]
pub fn budget_from_samples(mut samples: Vec<u64>, spec: &AdaptiveSpec) -> Option<Duration> {
    if (samples.len() as u64) < spec.min_samples.max(1) {
        return None;
    }
    samples.sort_unstable();
    quantile_us(&samples, spec.quantile).map(Duration::from_micros)
}

// ---------------------------------------------------------------------------
// The ExecutionPolicy trait
// ---------------------------------------------------------------------------

/// What executing one campaign unit produced (the policy-specific slice of
/// a [`crate::sink::CampaignRecord`]).
#[derive(Debug, Clone)]
pub struct UnitExecution {
    /// Classified outcome.
    pub outcome: InstanceOutcome,
    /// Wall-clock of the unit, microseconds (the whole race for
    /// `PortfolioRace`).
    pub time_us: u64,
    /// Winning backend name (`PortfolioRace` only).
    pub winner: Option<String>,
    /// Wall-clock between the winner's verdict and the last loser
    /// stopping (`PortfolioRace` with a winner only).
    pub cancel_latency_us: Option<u64>,
    /// Per-backend race stats, in roster order (`PortfolioRace` only).
    pub backends: Option<Vec<BackendStat>>,
    /// Search telemetry of the unit's solve (the winner's, for races),
    /// when the backend collects it.
    pub search: Option<mgrts_obs::SearchStats>,
}

impl UnitExecution {
    /// A single-solver unit from the `(outcome, time_us, search)` that
    /// [`runner::run`] returns.
    #[must_use]
    pub fn single(
        (outcome, time_us, search): (InstanceOutcome, u64, Option<mgrts_obs::SearchStats>),
    ) -> Self {
        UnitExecution {
            outcome,
            time_us,
            winner: None,
            cancel_latency_us: None,
            backends: None,
            search,
        }
    }

    /// A portfolio-race unit from its [`RaceRun`].
    #[must_use]
    pub fn race(run: RaceRun) -> Self {
        UnitExecution {
            outcome: classify(&run.verdict),
            time_us: run.elapsed_us,
            winner: run.winner,
            cancel_latency_us: run.cancel_latency_us,
            backends: Some(run.backends),
            search: run.search,
        }
    }
}

/// A pluggable cell executor: decides, per campaign unit, *what runs and
/// with what budget*. One policy object serves a whole executor / worker
/// process; implementations are immutable and shared across threads.
pub trait ExecutionPolicy: Send + Sync {
    /// The kind recorded on every unit.
    fn kind(&self) -> PolicyKind;

    /// The wall-clock budget (and its provenance) for a unit of `cell`.
    /// The executor further caps it by the shard's remaining allowance.
    fn unit_budget(&self, cell: usize) -> (Budget, BudgetSource);

    /// Execute one unit of instance `p` on the platform `spec` (built once
    /// per unit by the executor). `unit_solver` indexes the manifest roster
    /// (always 0 for racing policies, whose plan collapses the solver axis).
    /// Produced schedules are verified against the independent C1–C4
    /// checker; a verification failure is a solver bug and panics loudly.
    fn execute(
        &self,
        p: &Problem,
        spec: &PlatformSpec,
        unit_solver: usize,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> UnitExecution;

    /// Re-derive any store-dependent state (called by executors between
    /// shards, so long-running workers see records committed after they
    /// started). The default is a no-op: only [`AdaptiveBudget`]
    /// re-snapshots its quantile allowances.
    fn refresh(&self, store: &dyn RecordStore) -> Result<(), CampaignError> {
        let _ = store;
        Ok(())
    }
}

/// The historical inline path, extracted: one roster solver per unit.
///
/// Engines are served from a shared [`EnginePool`], so a long-lived
/// policy object (one per executor/worker process, or a resident server)
/// builds each `(spec, seed)` engine once instead of once per unit.
#[derive(Debug, Clone)]
pub struct SingleSolver {
    /// Manifest roster (indexed by the unit's solver position).
    pub roster: Vec<SolverSpec>,
    /// Manifest per-run wall-clock limit.
    pub time_limit: Duration,
    /// Engine cache shared across units (and across policy clones).
    pub pool: EnginePool,
}

impl ExecutionPolicy for SingleSolver {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Single
    }

    fn unit_budget(&self, _cell: usize) -> (Budget, BudgetSource) {
        (Budget::time_limit(self.time_limit), BudgetSource::Manifest)
    }

    fn execute(
        &self,
        p: &Problem,
        spec: &PlatformSpec,
        unit_solver: usize,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> UnitExecution {
        let engine = self.pool.get(self.roster[unit_solver], p.seed);
        UnitExecution::single(runner::run(&p.taskset, spec, &*engine, budget, cancel))
    }
}

/// Race the whole roster per `(cell, instance)` unit — the paper's Table I
/// as a single racing campaign.
#[derive(Debug, Clone)]
pub struct PortfolioRace {
    /// Manifest roster; every entry races on each unit.
    pub roster: Vec<SolverSpec>,
    /// Manifest per-run wall-clock limit (bounds the whole race).
    pub time_limit: Duration,
    /// Engine cache shared across units (and across policy clones).
    pub pool: EnginePool,
}

impl ExecutionPolicy for PortfolioRace {
    fn kind(&self) -> PolicyKind {
        PolicyKind::PortfolioRace
    }

    fn unit_budget(&self, _cell: usize) -> (Budget, BudgetSource) {
        (Budget::time_limit(self.time_limit), BudgetSource::Manifest)
    }

    fn execute(
        &self,
        p: &Problem,
        spec: &PlatformSpec,
        _unit_solver: usize,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> UnitExecution {
        // Engines come from the shared pool — constructed once per
        // (spec, seed), reused by every subsequent unit and request.
        let roster = self.pool.roster(&self.roster, p.seed);
        UnitExecution::race(
            race_roster(&roster, &p.taskset, spec, budget, cancel)
                .expect("valid constrained instance"),
        )
    }
}

/// Wrapper policy: delegate execution to `inner`, but cap each unit's
/// allowance at the cell's recorded-solve-time quantile. The snapshot is
/// taken at build time and *re-taken on every [`ExecutionPolicy::refresh`]*
/// (executors call it per claimed shard), so a long-running worker's
/// allowances track records committed after it started rather than
/// freezing at its start-up snapshot. The quantile only ever *tightens*
/// the manifest limit, and a budget is a measurement-domain quantity (like
/// the wall clock itself), so workers holding different snapshots still
/// commit records that dedupe identically — refresh is an accuracy
/// improvement, never a correctness requirement.
pub struct AdaptiveBudget {
    inner: Box<dyn ExecutionPolicy>,
    spec: AdaptiveSpec,
    n_cells: usize,
    per_cell: std::sync::Mutex<Vec<Option<Duration>>>,
}

impl AdaptiveBudget {
    /// The adaptive allowance of `cell`, when enough samples existed.
    #[must_use]
    pub fn cell_allowance(&self, cell: usize) -> Option<Duration> {
        self.per_cell
            .lock()
            .expect("allowance lock")
            .get(cell)
            .copied()
            .flatten()
    }
}

impl ExecutionPolicy for AdaptiveBudget {
    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }

    fn unit_budget(&self, cell: usize) -> (Budget, BudgetSource) {
        let (base, _) = self.inner.unit_budget(cell);
        match self.cell_allowance(cell) {
            Some(allowance) => (base.capped(Some(allowance)), BudgetSource::Adaptive),
            None => (base, BudgetSource::Manifest),
        }
    }

    fn execute(
        &self,
        p: &Problem,
        spec: &PlatformSpec,
        unit_solver: usize,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> UnitExecution {
        self.inner.execute(p, spec, unit_solver, budget, cancel)
    }

    fn refresh(&self, store: &dyn RecordStore) -> Result<(), CampaignError> {
        let budgets = adaptive_cell_budgets(self.n_cells, store, &self.spec)?;
        *self.per_cell.lock().expect("allowance lock") = budgets;
        self.inner.refresh(store)
    }
}

// ---------------------------------------------------------------------------
// The shared race entry point (campaign policy + CLI `portfolio`)
// ---------------------------------------------------------------------------

/// One roster race, reduced to the serializable parts every consumer
/// needs. The CLI `portfolio` subcommand and the [`PortfolioRace`] policy
/// both reduce to [`race_roster`] — there is exactly one race loop in the
/// repository ([`mgrts_core::portfolio::race_cancellable`]).
#[derive(Debug, Clone)]
pub struct RaceRun {
    /// The race's overall verdict (winner's, or the first non-definitive).
    pub verdict: Verdict,
    /// Winning backend name, if any backend reached a definitive verdict.
    pub winner: Option<String>,
    /// Wall-clock of the whole race, microseconds.
    pub elapsed_us: u64,
    /// Wall-clock between the winner's verdict and the last loser
    /// stopping, when there was a winner.
    pub cancel_latency_us: Option<u64>,
    /// Per-backend stats, in roster order.
    pub backends: Vec<BackendStat>,
    /// The winner's search telemetry, when its backend collects it.
    pub search: Option<mgrts_obs::SearchStats>,
}

/// Race a prebuilt roster on one instance under an external cancellation
/// token. Accepts any owning roster pointer (`Box` for one-shot callers,
/// pooled `Arc`s for resident ones), like the underlying racer.
pub fn race_roster<S>(
    roster: &[S],
    ts: &TaskSet,
    spec: &PlatformSpec,
    budget: &Budget,
    cancel: &CancelToken,
) -> Result<RaceRun, rt_task::TaskError>
where
    S: std::ops::Deref<Target = dyn FeasibilitySolver> + Sync,
{
    let mut sp = flight::span("race", "");
    let race = portfolio::race_cancellable(roster, ts, spec, budget, cancel)?;
    let run = RaceRun {
        verdict: race.result.verdict.clone(),
        winner: race.winner_name().map(ToString::to_string),
        elapsed_us: race.elapsed_us,
        cancel_latency_us: race.cancel_latency_us(),
        backends: race.backend_stats(),
        search: race.result.search.clone(),
    };
    // One lifecycle event per backend: how each contender ended (the
    // winner's verdict, cancelled losers, budget overruns).
    for b in &run.backends {
        flight::event(
            "race.backend",
            "",
            &format!(
                "{}{} outcome={} elapsed_us={}",
                b.name,
                if b.winner { " (winner)" } else { "" },
                b.outcome,
                b.time_us
            ),
        );
    }
    sp.set_detail(&match (&run.winner, run.cancel_latency_us) {
        (Some(w), Some(lat)) => format!("winner={w} cancel_latency_us={lat}"),
        (Some(w), None) => format!("winner={w}"),
        (None, _) => "winner=none".to_string(),
    });
    Ok(run)
}

/// Text rendering of a race: winner line, race wall-clock, per-backend
/// stats table (the CLI `portfolio` output body).
#[must_use]
pub fn render_race(run: &RaceRun) -> String {
    let mut out = String::new();
    match &run.winner {
        Some(name) => out.push_str(&format!("winner: {name}\n")),
        None => out.push_str("winner: none (no definitive verdict)\n"),
    }
    out.push_str(&format!(
        "race wall-clock: {:?}\n",
        Duration::from_micros(run.elapsed_us)
    ));
    if let Some(lat) = run.cancel_latency_us {
        out.push_str(&format!(
            "cancellation latency: {:?}\n",
            Duration::from_micros(lat)
        ));
    }
    out.push_str(&format!(
        "{:<14} {:<22} {:>10} {:>10} {:>12}\n",
        "backend", "outcome", "decisions", "failures", "elapsed"
    ));
    for b in &run.backends {
        out.push_str(&format!(
            "{:<14} {:<22} {:>10} {:>10} {:>12}\n",
            format!("{}{}", b.name, if b.winner { " *" } else { "" }),
            b.outcome,
            b.decisions,
            b.failures,
            format!("{:?}", Duration::from_micros(b.time_us)),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        assert_eq!(quantile_us(&[], 0.9), None, "empty sample set");
        assert_eq!(quantile_us(&[42], 0.9), Some(42), "single sample");
        // Known distribution 10..=100 step 10: p90 over 10 samples is the
        // 9th order statistic.
        let d: Vec<u64> = (1..=10).map(|k| k * 10).collect();
        assert_eq!(quantile_us(&d, 0.9), Some(90));
        assert_eq!(quantile_us(&d, 0.5), Some(50));
        assert_eq!(quantile_us(&d, 1.0), Some(100));
        assert_eq!(quantile_us(&d, 0.0), Some(10), "q=0 clamps to the min");
        assert_eq!(quantile_us(&d, 0.05), Some(10));
    }

    #[test]
    fn adaptive_allowance_needs_the_sample_floor() {
        let spec = AdaptiveSpec {
            quantile: 0.9,
            min_samples: 3,
        };
        assert_eq!(budget_from_samples(vec![], &spec), None, "empty store");
        assert_eq!(budget_from_samples(vec![500], &spec), None, "one sample");
        assert_eq!(
            budget_from_samples(vec![30, 10, 20], &spec),
            Some(Duration::from_micros(30)),
            "p90 of three samples is the max (unsorted input is sorted)"
        );
        // min_samples = 0 behaves like 1 (never divide-by-nothing).
        let loose = AdaptiveSpec {
            quantile: 0.5,
            min_samples: 0,
        };
        assert_eq!(
            budget_from_samples(vec![7], &loose),
            Some(Duration::from_micros(7))
        );
    }

    #[test]
    fn refresh_resnapshots_allowances_from_later_records() {
        use crate::sink::{CampaignRecord, LocalStore};

        let manifest = Manifest::parse(
            r#"
[campaign]
name = "refresh-prop"
seed = 1
time_limit_ms = 5000
instances_per_cell = 4
shard_size = 8

[grid]
n = [3]
m = [2]
t_max = [4]
solvers = ["csp2-dc"]

[policy]
adaptive_quantile = 0.9
adaptive_min_samples = 3
"#,
        )
        .expect("valid manifest");
        let dir = std::env::temp_dir().join(format!(
            "mgrts-policy-refresh-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = LocalStore::open(&dir).expect("store");

        // Built against an empty store: every cell falls back to the
        // manifest limit.
        let policy = manifest.build_policy(&store).expect("policy");
        assert_eq!(policy.unit_budget(0).1, BudgetSource::Manifest);

        // A peer worker commits three decided units for cell 0 *after*
        // this policy's build-time snapshot.
        let shards = manifest.plan();
        let shard = &shards[0];
        let records: Vec<CampaignRecord> = (0..3)
            .map(|i| CampaignRecord {
                shard: shard.hash.clone(),
                cell: 0,
                instance: i,
                global_instance: i,
                solver: "csp2-dc".parse().unwrap(),
                outcome: InstanceOutcome::Solved,
                time_us: (i + 1) * 1000,
                ratio: 0.5,
                filtered: false,
                m: 2,
                n: 3,
                t_max: 4,
                hetero: false,
                hyperperiod: 12,
                seed: 1,
                policy: Some(PolicyKind::Single),
                winner: None,
                budget_source: Some(BudgetSource::Manifest),
                cancel_latency_us: None,
                backends: None,
                search: None,
            })
            .collect();
        store
            .open_writer("peer")
            .expect("writer")
            .commit_shard(shard, &records)
            .expect("commit");

        // The stale snapshot still answers Manifest; refresh re-reads the
        // store, so the next claimed shard sees the later records.
        assert_eq!(policy.unit_budget(0).1, BudgetSource::Manifest);
        policy.refresh(&store).expect("refresh");
        let (budget, src) = policy.unit_budget(0);
        assert_eq!(src, BudgetSource::Adaptive);
        // p90 (nearest rank) of {1000, 2000, 3000} µs.
        assert_eq!(budget.time, Some(Duration::from_micros(3000)));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_spec_tags_and_defaults() {
        let d = PolicySpec::default();
        assert!(d.is_default());
        assert_eq!(d.tag(), "single");
        assert_eq!(d.units_per_instance(6), 6);
        let race = PolicySpec {
            mode: PolicyMode::PortfolioRace,
            adaptive: None,
        };
        assert!(!race.is_default());
        assert_eq!(race.tag(), "portfolio-race");
        assert_eq!(race.units_per_instance(6), 1);
        let adaptive = PolicySpec {
            mode: PolicyMode::Single,
            adaptive: Some(AdaptiveSpec {
                quantile: 0.9,
                min_samples: 8,
            }),
        };
        assert!(!adaptive.is_default());
        assert_eq!(adaptive.tag(), "single+adaptive(q=0.9,min=8)");
        assert_eq!(
            "portfolio-race".parse::<PolicyMode>().unwrap(),
            PolicyMode::PortfolioRace
        );
        assert_eq!("single".parse::<PolicyMode>().unwrap(), PolicyMode::Single);
        assert!("nonsense".parse::<PolicyMode>().is_err());
    }

    #[test]
    fn policy_kind_serde_round_trips_and_defaults_missing() {
        for k in [PolicyKind::Single, PolicyKind::PortfolioRace] {
            let json = serde_json::to_string(&k).unwrap();
            let back: PolicyKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, k);
        }
        for b in [BudgetSource::Manifest, BudgetSource::Adaptive] {
            let json = serde_json::to_string(&b).unwrap();
            let back: BudgetSource = serde_json::from_str(&json).unwrap();
            assert_eq!(back, b);
        }
    }
}
