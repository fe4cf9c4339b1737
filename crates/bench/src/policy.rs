//! Execution policies: *what runs, and with what budget*, for one
//! campaign unit.
//!
//! A campaign runs its roster in one of two shapes ([`PolicyKind`]):
//!
//! * `single` — one unit per `(cell, instance, solver)`, each running one
//!   roster solver through [`runner::run`];
//! * `portfolio-race` — one unit per `(cell, instance)`, racing the whole
//!   roster via [`mgrts_core::portfolio`] with cooperative cancellation;
//!   the record keeps the winner label, every loser's serializable stats
//!   and the cancellation latency. On identical cells the pool's `flow`
//!   engine decides the unit before the roster starts, so such records
//!   name `flow` as the winner and only backend; `single` compares the
//!   roster's backends there.
//!
//! Either shape may size its budgets adaptively ([`AdaptiveSpec`]): each
//! unit's wall-clock allowance is capped at a quantile of the solve times
//! already recorded in the [`RecordStore`], falling back to the manifest's
//! `time_limit_ms` until enough samples exist.
//!
//! [`run_unit`] executes one unit in either shape; the campaign's
//! [`Policy`] and the resident server both call it. Policies are declared
//! in the manifest's `[policy]` section (see [`crate::campaign::Manifest`]),
//! participate in the campaign fingerprint (changing the policy
//! re-shards), and are **resumable and lease-safe**: a [`Policy`] is built
//! once per executor/worker process from the manifest plus a snapshot of
//! the store, so any number of workers can drain the same plan. Adaptive
//! allowances are re-derived per claimed shard via [`Policy::refresh`] (so
//! long-running workers see records committed after they started) — a
//! budget is a measurement-domain quantity (like the wall clock itself),
//! so two workers with different snapshots still commit records that
//! dedupe identically.

use std::str::FromStr;
use std::sync::Mutex;
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

/// The executor shape: one roster solver per unit, or the whole roster
/// raced per unit. Declared in the manifest and persisted on every record
/// (old pre-policy segments deserialize as `None` and default to
/// `Single`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PolicyKind {
    /// One roster solver per unit (the historical default).
    #[default]
    Single,
    /// The whole roster raced per unit.
    PortfolioRace,
}

impl PolicyKind {
    /// Stable manifest / CLI / protocol name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Single => "single",
            PolicyKind::PortfolioRace => "portfolio-race",
        }
    }

    /// Units per `(cell, instance)`: the roster length under `Single`, one
    /// racing unit under `PortfolioRace`.
    #[must_use]
    pub fn units_per_instance(&self, roster_len: usize) -> usize {
        match self {
            PolicyKind::Single => roster_len,
            PolicyKind::PortfolioRace => 1,
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "single" => PolicyKind::Single,
            "portfolio-race" | "portfolio" | "race" => PolicyKind::PortfolioRace,
            other => {
                return Err(format!(
                    "unknown policy `{other}` (expected single|portfolio-race)"
                ))
            }
        })
    }
}

/// Where a unit's wall-clock allowance came from (persisted per line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetSource {
    /// The manifest's global `time_limit_ms`.
    Manifest,
    /// An adaptive quantile over recorded solve times.
    Adaptive,
}

/// Adaptive-budget configuration.
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

/// The manifest's declarative policy: executor shape plus optional
/// adaptive budgets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicySpec {
    /// Executor shape.
    pub mode: PolicyKind,
    /// Optional adaptive budgets.
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
// The campaign policy and the shared unit runner
// ---------------------------------------------------------------------------

/// What executing one unit produced (the policy-specific slice of a
/// [`crate::sink::CampaignRecord`]).
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
}

/// Execute one unit of instance `p` on the platform `spec` in the shape
/// `kind`: `Single` runs `roster[0]` through [`runner::run`],
/// `PortfolioRace` races the whole roster through [`race_roster`], after
/// the pool's `flow` engine on identical platforms. Engines come from
/// `pool`, so a long-lived caller builds each `(spec, seed)` engine once
/// and its counters see every unit. Produced schedules are verified against the independent
/// C1–C4 checker; a verification failure is a solver bug and panics
/// loudly, as does a task set every engine refuses (callers validate
/// their inputs first).
#[must_use]
pub fn run_unit(
    kind: PolicyKind,
    roster: &[SolverSpec],
    pool: &EnginePool,
    p: &Problem,
    spec: &PlatformSpec,
    budget: &Budget,
    cancel: &CancelToken,
) -> UnitExecution {
    match kind {
        PolicyKind::Single => {
            let engine = pool.get(roster[0], p.seed);
            UnitExecution::single(runner::run(&p.taskset, spec, &*engine, budget, cancel))
        }
        PolicyKind::PortfolioRace => {
            let flow = pool.get(SolverSpec::Flow, p.seed);
            let engines = pool.roster(roster, p.seed);
            race_roster(Some(&*flow), &engines, &p.taskset, spec, budget, cancel)
                .expect("valid constrained instance")
                .0
        }
    }
}

/// Per-cell adaptive allowances: the spec plus the latest snapshot.
#[derive(Debug)]
struct Allowances {
    spec: AdaptiveSpec,
    per_cell: Mutex<Vec<Option<Duration>>>,
}

/// A campaign's execution policy: decides, per unit, *what runs and with
/// what budget*. One policy serves a whole executor / worker process and
/// is shared across its threads.
///
/// The adaptive allowances are snapshotted at build time and *re-taken on
/// every [`Policy::refresh`]* (executors call it per claimed shard), so a
/// long-running worker's allowances track records committed after it
/// started rather than freezing at its start-up snapshot. The quantile
/// only ever *tightens* the manifest limit, and a budget is a
/// measurement-domain quantity, so workers holding different snapshots
/// still commit records that dedupe identically — refresh is an accuracy
/// improvement, never a correctness requirement.
#[derive(Debug)]
pub struct Policy {
    /// The executor shape, recorded on every unit.
    pub kind: PolicyKind,
    /// Manifest roster: indexed by a `single` unit's solver position,
    /// raced whole by `portfolio-race`.
    roster: Vec<SolverSpec>,
    /// Manifest per-run wall-clock limit (bounds a whole race).
    time_limit: Duration,
    /// Engine cache shared across units.
    pool: EnginePool,
    /// Adaptive per-cell allowances; `None` runs on manifest budgets.
    adaptive: Option<Allowances>,
}

impl Policy {
    /// Build the policy of `manifest` over a snapshot of `store` (only
    /// adaptive budgets read the store); see
    /// [`Manifest::build_policy`].
    pub(crate) fn new(
        manifest: &Manifest,
        store: &dyn RecordStore,
    ) -> Result<Policy, CampaignError> {
        let adaptive = match manifest.policy.adaptive {
            None => None,
            Some(spec) => {
                spec.validate().map_err(CampaignError::Manifest)?;
                let per_cell = adaptive_cell_budgets(manifest.cells.len(), store, &spec)?;
                Some(Allowances {
                    spec,
                    per_cell: Mutex::new(per_cell),
                })
            }
        };
        Ok(Policy {
            kind: manifest.policy.mode,
            roster: manifest.roster.clone(),
            time_limit: manifest.time_limit,
            pool: EnginePool::new(),
            adaptive,
        })
    }

    /// The wall-clock budget (and its provenance) for a unit of `cell`.
    /// The executor further caps it by the shard's remaining allowance.
    #[must_use]
    pub fn unit_budget(&self, cell: usize) -> (Budget, BudgetSource) {
        let base = Budget::time_limit(self.time_limit);
        let allowance = self.adaptive.as_ref().and_then(|a| {
            let per_cell = a.per_cell.lock().expect("allowance lock");
            per_cell.get(cell).copied().flatten()
        });
        match allowance {
            Some(allowance) => (base.capped(Some(allowance)), BudgetSource::Adaptive),
            None => (base, BudgetSource::Manifest),
        }
    }

    /// Execute one unit of instance `p` on the platform `spec` (built once
    /// per unit by the executor). `unit_solver` indexes the roster; a
    /// racing plan pins it to 0, so the race gets the whole roster.
    #[must_use]
    pub fn execute(
        &self,
        p: &Problem,
        spec: &PlatformSpec,
        unit_solver: usize,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> UnitExecution {
        let roster = &self.roster[unit_solver..];
        run_unit(self.kind, roster, &self.pool, p, spec, budget, cancel)
    }

    /// Re-snapshot the adaptive allowances from `store` (called by
    /// executors between shards); nothing to do without adaptive budgets.
    pub fn refresh(&self, store: &dyn RecordStore) -> Result<(), CampaignError> {
        if let Some(a) = &self.adaptive {
            let n_cells = a.per_cell.lock().expect("allowance lock").len();
            let per_cell = adaptive_cell_budgets(n_cells, store, &a.spec)?;
            *a.per_cell.lock().expect("allowance lock") = per_cell;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The shared race entry point (run_unit + CLI `portfolio`)
// ---------------------------------------------------------------------------

/// Race a prebuilt roster on one instance under an external cancellation
/// token, after `flow` on an identical platform when one is given,
/// returning the unit's record slice plus the race's overall verdict (the
/// winner's, or the first non-definitive). The CLI `portfolio` subcommand
/// and [`run_unit`] both reduce to this — there is exactly one race loop
/// in the repository ([`mgrts_core::portfolio::race_cancellable`]).
/// Accepts any owning roster pointer (`Box` for one-shot callers, pooled
/// `Arc`s for resident ones), like the underlying racer.
pub fn race_roster<S>(
    flow: Option<&dyn FeasibilitySolver>,
    roster: &[S],
    ts: &TaskSet,
    spec: &PlatformSpec,
    budget: &Budget,
    cancel: &CancelToken,
) -> Result<(UnitExecution, Verdict), rt_task::TaskError>
where
    S: std::ops::Deref<Target = dyn FeasibilitySolver> + Sync,
{
    let mut sp = flight::span("race", "");
    let race = portfolio::race_cancellable(flow, roster, ts, spec, budget, cancel)?;
    let backends = race.backend_stats();
    // One lifecycle event per backend: how each contender ended (the
    // winner's verdict, cancelled losers, budget overruns).
    for b in &backends {
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
    let exec = UnitExecution {
        outcome: classify(&race.result.verdict),
        time_us: race.elapsed_us,
        winner: race.winner_name().map(ToString::to_string),
        cancel_latency_us: race.cancel_latency_us(),
        backends: Some(backends),
        search: race.result.search.clone(),
    };
    sp.set_detail(&match (&exec.winner, exec.cancel_latency_us) {
        (Some(w), Some(lat)) => format!("winner={w} cancel_latency_us={lat}"),
        (Some(w), None) => format!("winner={w}"),
        (None, _) => "winner=none".to_string(),
    });
    Ok((exec, race.result.verdict))
}

/// Text rendering of a race: winner line, race wall-clock, per-backend
/// stats table (the CLI `portfolio` output body).
#[must_use]
pub fn render_race(race: &UnitExecution) -> String {
    let mut out = String::new();
    match &race.winner {
        Some(name) => out.push_str(&format!("winner: {name}\n")),
        None => out.push_str("winner: none (no definitive verdict)\n"),
    }
    out.push_str(&format!(
        "race wall-clock: {:?}\n",
        Duration::from_micros(race.time_us)
    ));
    if let Some(lat) = race.cancel_latency_us {
        out.push_str(&format!(
            "cancellation latency: {:?}\n",
            Duration::from_micros(lat)
        ));
    }
    out.push_str(&format!(
        "{:<14} {:<22} {:>10} {:>10} {:>12}\n",
        "backend", "outcome", "decisions", "failures", "elapsed"
    ));
    for b in race.backends.iter().flatten() {
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
        assert_eq!(d.mode.units_per_instance(6), 6);
        let race = PolicySpec {
            mode: PolicyKind::PortfolioRace,
            adaptive: None,
        };
        assert!(!race.is_default());
        assert_eq!(race.tag(), "portfolio-race");
        assert_eq!(race.mode.units_per_instance(6), 1);
        let adaptive = PolicySpec {
            mode: PolicyKind::Single,
            adaptive: Some(AdaptiveSpec {
                quantile: 0.9,
                min_samples: 8,
            }),
        };
        assert!(!adaptive.is_default());
        assert_eq!(adaptive.tag(), "single+adaptive(q=0.9,min=8)");
        for (name, kind) in [
            ("single", PolicyKind::Single),
            ("portfolio-race", PolicyKind::PortfolioRace),
            ("portfolio", PolicyKind::PortfolioRace),
            ("race", PolicyKind::PortfolioRace),
        ] {
            assert_eq!(name.parse::<PolicyKind>().unwrap(), kind);
        }
        assert!("nonsense".parse::<PolicyKind>().is_err());
        assert_eq!(PolicyKind::default(), PolicyKind::Single);
        assert_eq!(PolicyKind::PortfolioRace.to_string(), "portfolio-race");
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
