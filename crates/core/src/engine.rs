//! The unified solver engine: one trait over every feasibility backend.
//!
//! The paper's evaluation (Table I) races six solver configurations on the
//! same instances; before this module each backend had its own entry-point
//! shape (free function, builder, config struct), and every consumer —
//! the bench harness, the CLI, the minimal-`m` scan — re-implemented
//! budget/verdict plumbing. [`FeasibilitySolver`] is the single seam:
//!
//! * one [`Budget`] covering wall clock, decisions, conflicts and the
//!   encoding-size guard;
//! * one [`CancelToken`] for cooperative cancellation, threaded down into
//!   the CSP engine's budget checks, the CDCL propagation loop and the
//!   specialized chronological searches — the mechanism the
//!   [`crate::portfolio`] racer is built on;
//! * one [`PlatformSpec`] so heterogeneous platforms (Section VI-A) enter
//!   through the same door as identical ones;
//! * [`SolverSpec`], a declarative, parseable roster entry that builds
//!   boxed solvers — the factory the bench roster and the CLI `--solver`
//!   flags reduce to.
//!
//! Every backend of the repository implements the trait, in its own
//! module, as its one solve entry: CSP1 on the generic engine
//! ([`Csp1Engine`]), CSP1 lowered to CNF on the CDCL solver
//! ([`Csp1SatEngine`]), the specialized CSP2 search under each
//! value-ordering heuristic ([`Csp2Engine`]), CSP2 posted on the generic
//! engine ([`Csp2GenericEngine`]), the incomplete local searches
//! ([`LocalSearchEngine`]) and the maximum-flow decision procedure for
//! identical platforms ([`FlowEngine`]). Each reads the [`Budget`] fields
//! it has a counter for and reaches its heterogeneous variant, if it has
//! one, from the same `solve_on`.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use rt_platform::Platform;
use rt_task::{TaskError, TaskSet};

pub use crate::csp1::Csp1Engine;
pub use crate::csp1_sat::Csp1SatEngine;
pub use crate::csp2::Csp2Engine;
pub use crate::csp2_generic::Csp2GenericEngine;
pub use crate::flow::FlowEngine;
pub use crate::local_search::LocalSearchEngine;

use crate::heuristics::TaskOrder;
use crate::local_search::LsStrategy;
use crate::solve::SolveResult;

// ---------------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------------

/// Cooperative cancellation token.
///
/// Cloning shares the flag. Solvers poll it in every stage of a solve and
/// stop with an unknown verdict ([`StopReason::Cancelled`]) once raised;
/// the portfolio racer raises it when the first definitive verdict lands.
/// The polls:
///
/// * encoding — every model and CNF encoder once per iteration of each
///   constraint family's outer loop;
/// * construction — every 1024 variables and once per propagator while
///   the CSP engine is built, every 1024 clauses while the CDCL solver
///   sizes and loads its formula;
/// * search — before root propagation, then at every CSP-engine budget
///   check, every CDCL propagation round, every 1024 iterations of the
///   specialized CSP2 searches and every move of local search.
///
/// A solver whose construction was interrupted never searches: its
/// partial model could be satisfiable where the whole one is not.
///
/// [`StopReason::Cancelled`]: crate::solve::StopReason::Cancelled
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-raised token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the flag. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has the flag been raised?
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// The underlying shared flag, for handing to the substrate solvers
    /// (`csp_engine::Model::set_interrupt`, `rt_sat::SatSolver::
    /// with_interrupt`), which cannot depend on this crate.
    #[must_use]
    pub fn as_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.0)
    }
}

// ---------------------------------------------------------------------------
// CancelGroup
// ---------------------------------------------------------------------------

/// A group of [`CancelToken`]s with one master switch — the shard-scoped
/// cancellation plumbing of the campaign executor.
///
/// Each shard registers its own token; cancelling the group raises every
/// registered token (and every token registered afterwards), so a whole
/// campaign stops cooperatively at the next solver checkpoint while shards
/// keep independent tokens for their own budgets.
#[derive(Debug, Default)]
pub struct CancelGroup {
    cancelled: AtomicBool,
    members: Mutex<Vec<CancelToken>>,
}

impl CancelGroup {
    /// A fresh, un-cancelled group.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new member token. If the group is already cancelled the
    /// returned token comes back pre-raised, so late registrants stop at
    /// their first checkpoint.
    #[must_use]
    pub fn register(&self) -> CancelToken {
        let token = CancelToken::new();
        let mut members = self.members.lock().unwrap_or_else(|e| e.into_inner());
        if self.cancelled.load(Ordering::Relaxed) {
            token.cancel();
        }
        members.push(token.clone());
        token
    }

    /// Raise every member token, current and future. Idempotent.
    pub fn cancel_all(&self) {
        // Set the sticky flag under the lock so a concurrent `register`
        // either sees the flag or is visible in `members` here.
        let members = self.members.lock().unwrap_or_else(|e| e.into_inner());
        self.cancelled.store(true, Ordering::Relaxed);
        for t in members.iter() {
            t.cancel();
        }
    }

    /// Has the group been cancelled?
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Budget
// ---------------------------------------------------------------------------

/// Unified resource budget understood by every backend.
///
/// Fields a backend has no counter for are ignored (`max_conflicts` only
/// binds the SAT route, `max_decisions` binds the searches); `None` means
/// unlimited, except that local search falls back to 200 000 moves and the
/// boolean encodings (`csp1`, `sat`) to their default size guard
/// ([`crate::csp1::DEFAULT_MAX_CELLS`]), which `max_cells` overrides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit (the paper's 30 s "resolution time" cap).
    pub time: Option<Duration>,
    /// Decision / iteration limit for search backends.
    pub max_decisions: Option<u64>,
    /// Conflict limit for the CDCL backend.
    pub max_conflicts: Option<u64>,
    /// Encoding size guard override (`n·m·H` boolean cells).
    pub max_cells: Option<u64>,
}

impl Budget {
    /// No limits at all.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Only a wall-clock limit — the shape every paper experiment uses.
    #[must_use]
    pub fn time_limit(d: Duration) -> Self {
        Budget {
            time: Some(d),
            ..Budget::default()
        }
    }

    /// This budget with its wall-clock allowance capped by `remaining`
    /// (`None` leaves it unchanged). The campaign executor derives each
    /// run's budget from the per-run limit capped by what is left of the
    /// shard's overall allowance.
    #[must_use]
    pub fn capped(mut self, remaining: Option<Duration>) -> Self {
        if let Some(rem) = remaining {
            self.time = Some(self.time.map_or(rem, |t| t.min(rem)));
        }
        self
    }
}

// ---------------------------------------------------------------------------
// PlatformSpec
// ---------------------------------------------------------------------------

/// The machine an instance runs on: `m` identical processors (Sections
/// IV–V) or an explicit heterogeneous rate matrix (Section VI-A).
#[derive(Debug, Clone)]
pub enum PlatformSpec {
    /// `m` identical unit-rate processors.
    Identical {
        /// Processor count.
        m: usize,
    },
    /// Unrelated processors with per-task integer rates.
    Heterogeneous(Platform),
}

impl PlatformSpec {
    /// Spec for `m` identical processors.
    #[must_use]
    pub fn identical(m: usize) -> Self {
        PlatformSpec::Identical { m }
    }

    /// Number of processors in the spec.
    #[must_use]
    pub fn num_processors(&self) -> usize {
        match self {
            PlatformSpec::Identical { m } => *m,
            PlatformSpec::Heterogeneous(p) => p.num_processors(),
        }
    }
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// A feasibility decision procedure for MGRTS instances.
///
/// Implementations are cheap, immutable descriptions of a solver
/// configuration; `solve_on` may be called concurrently from racing threads
/// (the trait requires `Send + Sync`).
pub trait FeasibilitySolver: Send + Sync {
    /// Stable identifier (used in CLI flags, portfolio reports, bench
    /// tables).
    fn name(&self) -> String;

    /// Decide feasibility on the platform `spec` describes. Backends
    /// without a heterogeneous variant report an unknown verdict
    /// ([`StopReason::Unsupported`]) on a [`PlatformSpec::Heterogeneous`]
    /// spec.
    ///
    /// `cancel` is polled while the backend encodes its model and builds
    /// its solver as well as during the search (see [`CancelToken`] for
    /// where and how often). Once it is raised the solve returns an
    /// unknown verdict ([`StopReason::Cancelled`]) within one poll
    /// interval of whatever stage it is in; a solve stopped before its
    /// search reports no search telemetry (`search: None`).
    ///
    /// [`StopReason::Unsupported`]: crate::solve::StopReason::Unsupported
    /// [`StopReason::Cancelled`]: crate::solve::StopReason::Cancelled
    fn solve_on(
        &self,
        ts: &TaskSet,
        spec: &PlatformSpec,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<SolveResult, TaskError>;

    /// Shorthand for [`FeasibilitySolver::solve_on`] on `m` identical
    /// processors. Implementations do not override it, so decorators see
    /// every solve through `solve_on`.
    fn solve(
        &self,
        ts: &TaskSet,
        m: usize,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<SolveResult, TaskError> {
        self.solve_on(ts, &PlatformSpec::identical(m), budget, cancel)
    }

    /// Complete backends prove infeasibility; incomplete ones (local
    /// search) only ever find schedules.
    fn is_exact(&self) -> bool {
        true
    }

    /// Cumulative search telemetry over every solve served by this engine
    /// instance. The base implementation reports nothing; engines built
    /// through [`SolverSpec::build_seeded`] / [`SolverSpec::build_shared`]
    /// are wrapped in [`Instrumented`], which accumulates it.
    fn stats(&self) -> Option<mgrts_obs::SearchStats> {
        None
    }
}

/// Decorator accumulating per-solve [`mgrts_obs::SearchStats`] across the
/// lifetime of an engine instance, surfaced via
/// [`FeasibilitySolver::stats`]. Long-lived holders (the serve layer's
/// [`EnginePool`]) read the running totals for exposition without touching
/// the per-call path: accumulation is one short mutex acquisition per
/// solve, nothing inside the search itself.
pub struct Instrumented {
    inner: Box<dyn FeasibilitySolver>,
    total: Mutex<mgrts_obs::SearchStats>,
}

impl Instrumented {
    /// Wrap `inner`, starting from zeroed totals.
    #[must_use]
    pub fn new(inner: Box<dyn FeasibilitySolver>) -> Self {
        Instrumented {
            inner,
            total: Mutex::new(mgrts_obs::SearchStats::default()),
        }
    }

    fn record(&self, res: &SolveResult) {
        if let Some(search) = &res.search {
            self.total
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .merge(search);
        }
    }
}

impl fmt::Debug for Instrumented {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instrumented")
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl FeasibilitySolver for Instrumented {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn solve_on(
        &self,
        ts: &TaskSet,
        spec: &PlatformSpec,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<SolveResult, TaskError> {
        let res = self.inner.solve_on(ts, spec, budget, cancel)?;
        self.record(&res);
        Ok(res)
    }

    fn is_exact(&self) -> bool {
        self.inner.is_exact()
    }

    fn stats(&self) -> Option<mgrts_obs::SearchStats> {
        Some(self.total.lock().unwrap_or_else(|e| e.into_inner()).clone())
    }
}

/// Chaos decorator: consults the `engine.solve` fault site (see
/// `mgrts_fault`) before each solve. A triggered rule delays the solve,
/// panics (exercising the panic supervisors in the campaign/serve
/// layers), or fails with [`TaskError::EngineFailure`]. Interposed by
/// [`SolverSpec::build_seeded`] / [`SolverSpec::build_shared`] only when
/// a fault plan is active, so production builds never pay for it.
pub struct Chaos {
    inner: Box<dyn FeasibilitySolver>,
}

impl Chaos {
    /// Site name consulted once per solve.
    pub const SITE: &'static str = "engine.solve";

    /// Wrap `inner` with the chaos hook.
    #[must_use]
    pub fn new(inner: Box<dyn FeasibilitySolver>) -> Self {
        Chaos { inner }
    }

    fn roll(&self) -> Result<(), TaskError> {
        match mgrts_fault::fire(Chaos::SITE) {
            None | Some(mgrts_fault::FaultKind::Corrupt) => Ok(()),
            Some(mgrts_fault::FaultKind::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
            Some(mgrts_fault::FaultKind::Panic) => {
                panic!(
                    "injected panic at fault site `{}` (solver {})",
                    Chaos::SITE,
                    self.inner.name()
                )
            }
            Some(mgrts_fault::FaultKind::Error(kind)) => Err(TaskError::EngineFailure(format!(
                "injected {kind:?} fault at `{}`",
                Chaos::SITE
            ))),
        }
    }
}

impl fmt::Debug for Chaos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chaos")
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl FeasibilitySolver for Chaos {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn solve_on(
        &self,
        ts: &TaskSet,
        spec: &PlatformSpec,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<SolveResult, TaskError> {
        self.roll()?;
        self.inner.solve_on(ts, spec, budget, cancel)
    }

    fn is_exact(&self) -> bool {
        self.inner.is_exact()
    }

    fn stats(&self) -> Option<mgrts_obs::SearchStats> {
        self.inner.stats()
    }
}

/// Interpose [`Chaos`] only when a fault plan is installed.
fn chaos_wrap(inner: Box<dyn FeasibilitySolver>) -> Box<dyn FeasibilitySolver> {
    if mgrts_fault::active() {
        Box::new(Chaos::new(inner))
    } else {
        inner
    }
}

// ---------------------------------------------------------------------------
// SolverSpec — the declarative roster entry
// ---------------------------------------------------------------------------

/// A parseable, serializable description of one engine configuration; the
/// factory behind CLI `--solver` flags and bench/portfolio/campaign
/// rosters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SolverSpec {
    /// CSP1 on the generic randomized engine.
    Csp1,
    /// The CNF/CDCL route.
    Csp1Sat,
    /// Specialized CSP2 with a heuristic.
    Csp2(TaskOrder),
    /// CSP2 on the generic engine.
    Csp2Generic,
    /// CSP2 on the generic engine with conflict-driven nogood learning
    /// (lazy clause generation): 1-UIP analysis, non-chronological
    /// backjumping, Luby restarts and phase saving.
    Csp2Learn,
    /// Min-conflicts local search.
    Local,
    /// Tabu local search.
    LocalTabu,
    /// Simulated-annealing local search.
    LocalSa,
    /// The exact maximum-flow decision procedure for identical platforms
    /// ([`crate::flow`]).
    Flow,
}

impl SolverSpec {
    /// The paper's six Table I columns, in order.
    pub const TABLE1_ROSTER: [SolverSpec; 6] = [
        SolverSpec::Csp1,
        SolverSpec::Csp2(TaskOrder::Lexicographic),
        SolverSpec::Csp2(TaskOrder::RateMonotonic),
        SolverSpec::Csp2(TaskOrder::DeadlineMonotonic),
        SolverSpec::Csp2(TaskOrder::PeriodMinusWcet),
        SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet),
    ];

    /// A diverse default portfolio: the strongest CSP2 heuristic, both
    /// generic-engine routes, the SAT route and a local search.
    pub const DEFAULT_PORTFOLIO: [SolverSpec; 6] = [
        SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet),
        SolverSpec::Csp1,
        SolverSpec::Csp1Sat,
        SolverSpec::Csp2Generic,
        SolverSpec::Csp2Learn,
        SolverSpec::Local,
    ];

    /// Build the boxed engine, with `seed` for the randomized backends.
    /// The engine is wrapped in [`Instrumented`], so it accumulates
    /// [`mgrts_obs::SearchStats`] across its lifetime.
    #[must_use]
    pub fn build_seeded(&self, seed: u64) -> Box<dyn FeasibilitySolver> {
        Box::new(Instrumented::new(chaos_wrap(self.build_raw(seed))))
    }

    /// The bare backend, without the [`Instrumented`] wrapper.
    fn build_raw(&self, seed: u64) -> Box<dyn FeasibilitySolver> {
        match self {
            SolverSpec::Csp1 => Box::new(Csp1Engine { seed }),
            SolverSpec::Csp1Sat => Box::new(Csp1SatEngine::default()),
            SolverSpec::Csp2(order) => Box::new(Csp2Engine { order: *order }),
            SolverSpec::Csp2Generic => Box::new(Csp2GenericEngine::default()),
            SolverSpec::Csp2Learn => Box::new(Csp2GenericEngine {
                learning: true,
                ..Csp2GenericEngine::default()
            }),
            SolverSpec::Local => Box::new(LocalSearchEngine {
                strategy: LsStrategy::MinConflicts,
                seed,
            }),
            SolverSpec::LocalTabu => Box::new(LocalSearchEngine {
                strategy: LsStrategy::Tabu { tenure: 10 },
                seed,
            }),
            SolverSpec::LocalSa => Box::new(LocalSearchEngine {
                strategy: LsStrategy::Annealing {
                    t0: 2.0,
                    cooling: 0.9995,
                },
                seed,
            }),
            SolverSpec::Flow => Box::new(FlowEngine),
        }
    }

    /// Build with each backend's default seed.
    #[must_use]
    pub fn build(&self) -> Box<dyn FeasibilitySolver> {
        self.build_seeded(1)
    }

    /// Build a shareable engine, with `seed` for the randomized backends —
    /// the shape [`EnginePool`] caches and the portfolio racer accepts.
    /// Like [`SolverSpec::build_seeded`], the engine is wrapped in
    /// [`Instrumented`]: the pool's cached instances accumulate search
    /// telemetry across every request they serve.
    #[must_use]
    pub fn build_shared(&self, seed: u64) -> Arc<dyn FeasibilitySolver> {
        Arc::new(Instrumented::new(chaos_wrap(self.build_raw(seed))))
    }

    /// Does the built engine's behaviour depend on the seed?
    ///
    /// `Csp1` (randomized restarts) and the local-search family are
    /// seeded; the SAT, specialized-CSP2 and chronological generic-engine
    /// backends are deterministic, so [`EnginePool`] can serve one cached
    /// instance for every seed.
    #[must_use]
    pub fn seed_sensitive(&self) -> bool {
        match self {
            SolverSpec::Csp1 | SolverSpec::Local | SolverSpec::LocalTabu | SolverSpec::LocalSa => {
                true
            }
            SolverSpec::Csp1Sat
            | SolverSpec::Csp2(_)
            | SolverSpec::Csp2Generic
            | SolverSpec::Csp2Learn
            | SolverSpec::Flow => false,
        }
    }

    /// The engine's stable name (matches [`FeasibilitySolver::name`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SolverSpec::Csp1 => "csp1",
            SolverSpec::Csp1Sat => "sat",
            SolverSpec::Csp2(TaskOrder::Lexicographic) => "csp2",
            SolverSpec::Csp2(TaskOrder::RateMonotonic) => "csp2-rm",
            SolverSpec::Csp2(TaskOrder::DeadlineMonotonic) => "csp2-dm",
            SolverSpec::Csp2(TaskOrder::PeriodMinusWcet) => "csp2-tc",
            SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet) => "csp2-dc",
            SolverSpec::Csp2Generic => "csp2-generic",
            SolverSpec::Csp2Learn => "csp2-learn",
            SolverSpec::Local => "local",
            SolverSpec::LocalTabu => "local-tabu",
            SolverSpec::LocalSa => "local-sa",
            SolverSpec::Flow => "flow",
        }
    }

    /// The paper's table column label (`CSP1`, `CSP2`, `+RM`, …); backends
    /// outside the paper's evaluation reuse their stable name.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SolverSpec::Csp1 => "CSP1",
            SolverSpec::Csp1Sat => "SAT",
            SolverSpec::Csp2(order) => order.label(),
            other => other.name(),
        }
    }
}

impl fmt::Display for SolverSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SolverSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "csp1" => SolverSpec::Csp1,
            "sat" | "csp1-sat" => SolverSpec::Csp1Sat,
            "csp2" | "csp2-input" => SolverSpec::Csp2(TaskOrder::Lexicographic),
            "csp2-rm" => SolverSpec::Csp2(TaskOrder::RateMonotonic),
            "csp2-dm" => SolverSpec::Csp2(TaskOrder::DeadlineMonotonic),
            "csp2-tc" => SolverSpec::Csp2(TaskOrder::PeriodMinusWcet),
            "csp2-dc" => SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet),
            "csp2-generic" => SolverSpec::Csp2Generic,
            "csp2-learn" => SolverSpec::Csp2Learn,
            "local" => SolverSpec::Local,
            "local-tabu" => SolverSpec::LocalTabu,
            "local-sa" => SolverSpec::LocalSa,
            "flow" => SolverSpec::Flow,
            other => {
                return Err(format!(
                    "unknown solver `{other}` (expected csp1|sat|csp2|csp2-rm|csp2-dm|\
                     csp2-tc|csp2-dc|csp2-generic|csp2-learn|local|local-tabu|local-sa|flow)"
                ))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// EnginePool
// ---------------------------------------------------------------------------

/// A process-wide cache of built engines, keyed by `(spec, effective
/// seed)` — the hoist that takes solver construction out of the per-call
/// path for resident callers (`mgrts serve`, campaign policies).
///
/// Engines behind [`FeasibilitySolver`] are immutable and `Send + Sync`,
/// so one instance can serve any number of concurrent solves; the pool
/// hands out [`Arc`] clones instead of rebuilding per request. Seeds only
/// reach the key for [`SolverSpec::seed_sensitive`] specs — deterministic
/// backends share a single cached instance across all seeds.
///
/// The pool is cheaply cloneable (clones share one cache) and a clone is
/// what long-lived components should hold.
#[derive(Clone, Default)]
pub struct EnginePool {
    engines: Arc<Mutex<EngineMap>>,
}

type EngineMap = std::collections::HashMap<(SolverSpec, u64), Arc<dyn FeasibilitySolver>>;

impl fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnginePool")
            .field("cached", &self.len())
            .finish()
    }
}

impl EnginePool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached engine for `(spec, seed)`, building it on first use.
    #[must_use]
    pub fn get(&self, spec: SolverSpec, seed: u64) -> Arc<dyn FeasibilitySolver> {
        let key = (spec, if spec.seed_sensitive() { seed } else { 0 });
        let mut engines = self.engines.lock().unwrap_or_else(|e| e.into_inner());
        engines
            .entry(key)
            .or_insert_with(|| spec.build_shared(key.1))
            .clone()
    }

    /// A racing roster over `specs`, every entry served from the cache —
    /// the allocation-free analogue of mapping [`SolverSpec::build_seeded`].
    #[must_use]
    pub fn roster(&self, specs: &[SolverSpec], seed: u64) -> Vec<Arc<dyn FeasibilitySolver>> {
        specs.iter().map(|s| self.get(*s, seed)).collect()
    }

    /// Per-backend cumulative search telemetry, merged across seeds and
    /// sorted by engine name. Engines without telemetry are omitted.
    #[must_use]
    pub fn engine_stats(&self) -> Vec<(String, mgrts_obs::SearchStats)> {
        let engines: Vec<Arc<dyn FeasibilitySolver>> = self
            .engines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        let mut by_name: Vec<(String, mgrts_obs::SearchStats)> = Vec::new();
        for engine in engines {
            let Some(stats) = engine.stats() else {
                continue;
            };
            let name = engine.name();
            match by_name.iter_mut().find(|(n, _)| *n == name) {
                Some((_, acc)) => acc.merge(&stats),
                None => by_name.push((name, stats)),
            }
        }
        by_name.sort_by(|a, b| a.0.cmp(&b.0));
        by_name
    }

    /// Number of distinct engines currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.engines.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Is the cache empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{StopReason, Verdict};
    use crate::verify::check_identical;

    const ALL_SPECS: [SolverSpec; 13] = [
        SolverSpec::Csp1,
        SolverSpec::Csp1Sat,
        SolverSpec::Csp2(TaskOrder::Lexicographic),
        SolverSpec::Csp2(TaskOrder::RateMonotonic),
        SolverSpec::Csp2(TaskOrder::DeadlineMonotonic),
        SolverSpec::Csp2(TaskOrder::PeriodMinusWcet),
        SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet),
        SolverSpec::Csp2Generic,
        SolverSpec::Csp2Learn,
        SolverSpec::Local,
        SolverSpec::LocalTabu,
        SolverSpec::LocalSa,
        SolverSpec::Flow,
    ];

    #[test]
    fn every_backend_solves_the_running_example() {
        let ts = TaskSet::running_example();
        for spec in ALL_SPECS {
            let solver = spec.build();
            let res = solver
                .solve(&ts, 2, &Budget::unlimited(), &CancelToken::new())
                .unwrap();
            let s = res
                .verdict
                .schedule()
                .unwrap_or_else(|| panic!("{} failed", solver.name()));
            check_identical(&ts, 2, s).unwrap();
        }
    }

    #[test]
    fn exact_backends_prove_infeasibility() {
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        for spec in ALL_SPECS {
            let solver = spec.build();
            if !solver.is_exact() {
                continue;
            }
            let res = solver
                .solve(&ts, 2, &Budget::unlimited(), &CancelToken::new())
                .unwrap();
            assert!(res.verdict.is_infeasible(), "{}", solver.name());
        }
    }

    #[test]
    fn pre_raised_token_stops_search_backends() {
        // A dense instance that needs real search, and one of Table I's
        // size (n = 10, m = 5, H = 420) whose encodings are the largest a
        // race builds. A pre-raised token must stop every portfolio
        // backend before its first decision or conflict: the encoders and
        // solver constructors poll it too, not only the search loops.
        let dense = TaskSet::from_ocdt(&[
            (0, 2, 3, 4),
            (0, 3, 4, 4),
            (1, 2, 3, 4),
            (0, 1, 2, 2),
            (0, 2, 4, 4),
            (0, 1, 3, 3),
        ]);
        let table1 = TaskSet::from_ocdt(&[
            (0, 1, 2, 3),
            (1, 2, 3, 4),
            (0, 2, 4, 5),
            (2, 3, 5, 7),
            (0, 1, 3, 3),
            (1, 1, 2, 4),
            (0, 3, 5, 5),
            (0, 2, 6, 7),
            (1, 2, 3, 6),
            (0, 1, 2, 2),
        ]);
        assert_eq!(
            rt_task::JobInstants::new(&table1).unwrap().hyperperiod(),
            420
        );
        let cancel = CancelToken::new();
        cancel.cancel();
        for (ts, m) in [(&dense, 2), (&table1, 5)] {
            for spec in SolverSpec::DEFAULT_PORTFOLIO
                .into_iter()
                .chain([SolverSpec::Flow])
            {
                let res = spec
                    .build()
                    .solve(ts, m, &Budget::unlimited(), &cancel)
                    .unwrap();
                assert_eq!(
                    res.verdict,
                    Verdict::Unknown(StopReason::Cancelled),
                    "{spec} on n = {}",
                    ts.len()
                );
                if let Some(search) = &res.search {
                    assert_eq!(search.decisions, 0, "{spec}: decisions");
                    assert_eq!(search.backtracks, 0, "{spec}: backtracks");
                    assert_eq!(search.conflicts, 0, "{spec}: conflicts");
                }
                // The backends that encode a model stop while encoding, so
                // no solver is ever built and no search is reported; flow
                // stops at entry, before it lays out its network.
                let stops_before_search = matches!(
                    spec,
                    SolverSpec::Csp1
                        | SolverSpec::Csp1Sat
                        | SolverSpec::Csp2Generic
                        | SolverSpec::Csp2Learn
                        | SolverSpec::Flow
                );
                assert_eq!(
                    res.search.is_none(),
                    stops_before_search,
                    "{spec}: search telemetry"
                );
            }
        }
        // The heterogeneous routes, on the Table I instance's size: the
        // `csp1` and `sat` encoders stop before building a solver, the
        // specialized search before its first decision.
        let rates = vec![vec![2, 1, 1, 0, 1]; table1.len()];
        let hetero = PlatformSpec::Heterogeneous(Platform::heterogeneous(rates).unwrap());
        for spec in [
            SolverSpec::Csp1,
            SolverSpec::Csp1Sat,
            SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet),
        ] {
            let res = spec
                .build()
                .solve_on(&table1, &hetero, &Budget::unlimited(), &cancel)
                .unwrap();
            assert_eq!(
                res.verdict,
                Verdict::Unknown(StopReason::Cancelled),
                "hetero {spec}"
            );
            match &res.search {
                Some(search) => {
                    assert!(matches!(spec, SolverSpec::Csp2(_)), "hetero {spec}");
                    assert_eq!(search.decisions, 0, "hetero {spec}: decisions");
                }
                None => assert!(!matches!(spec, SolverSpec::Csp2(_)), "hetero {spec}"),
            }
        }
    }

    #[test]
    fn zero_processors_get_one_answer_from_every_backend() {
        // Every task needs Ci ≥ 1 units of work, so no schedule exists on
        // zero processors: the exact backends prove it, the incomplete
        // ones give up without a verdict.
        let ts = TaskSet::running_example();
        for spec in ALL_SPECS {
            let solver = spec.build();
            let res = solver
                .solve(&ts, 0, &Budget::unlimited(), &CancelToken::new())
                .unwrap();
            if solver.is_exact() {
                assert_eq!(res.verdict, Verdict::Infeasible, "{spec}");
            } else {
                assert!(res.verdict.is_unknown(), "{spec}: {:?}", res.verdict);
            }
        }
    }

    #[test]
    fn spec_names_round_trip_through_fromstr() {
        for spec in ALL_SPECS {
            let name = spec.name();
            let back: SolverSpec = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, spec, "{name}");
            // The spec's static name and the built engine's name agree.
            assert_eq!(spec.build().name(), name);
        }
        assert!("nonsense".parse::<SolverSpec>().is_err());
    }

    #[test]
    fn learning_spec_parses_labels_and_joins_the_portfolio() {
        let spec: SolverSpec = "csp2-learn".parse().unwrap();
        assert_eq!(spec, SolverSpec::Csp2Learn);
        assert_eq!(spec.name(), "csp2-learn");
        assert_eq!(spec.label(), "csp2-learn");
        // Both chronological generic-engine routes are deterministic.
        assert!(!spec.seed_sensitive() && !SolverSpec::Csp2Generic.seed_sensitive());
        assert_eq!(spec.build().name(), "csp2-learn");
        assert!(SolverSpec::DEFAULT_PORTFOLIO.contains(&SolverSpec::Csp2Learn));
        // The unknown-solver error advertises the learning roster entry.
        let err = "bogus".parse::<SolverSpec>().unwrap_err();
        assert!(err.contains("csp2-learn"), "{err}");
    }

    #[test]
    fn hetero_entry_point_dispatches() {
        let ts = TaskSet::from_ocdt(&[(0, 2, 3, 3), (0, 2, 3, 3)]);
        let spec = PlatformSpec::Heterogeneous(
            Platform::heterogeneous(vec![vec![2, 1], vec![1, 1]]).unwrap(),
        );
        for s in ALL_SPECS {
            let res = s
                .build()
                .solve_on(&ts, &spec, &Budget::unlimited(), &CancelToken::new())
                .unwrap();
            // CSP1, the SAT route and the specialized CSP2 searches have a
            // heterogeneous variant; every other backend reports Unsupported.
            if matches!(
                s,
                SolverSpec::Csp1 | SolverSpec::Csp1Sat | SolverSpec::Csp2(_)
            ) {
                assert!(
                    res.verdict.is_feasible(),
                    "{s} on hetero: {:?}",
                    res.verdict
                );
            } else {
                assert_eq!(
                    res.verdict,
                    Verdict::Unknown(StopReason::Unsupported),
                    "{s}"
                );
            }
        }
    }

    #[test]
    fn cancel_group_raises_members_and_late_registrants() {
        let group = CancelGroup::new();
        let early = group.register();
        assert!(!early.is_cancelled());
        group.cancel_all();
        assert!(group.is_cancelled());
        assert!(early.is_cancelled());
        // Tokens registered after cancellation come back pre-raised.
        let late = group.register();
        assert!(late.is_cancelled());
    }

    #[test]
    fn budget_capped_takes_the_minimum_time() {
        let b = Budget::time_limit(Duration::from_millis(500));
        assert_eq!(
            b.capped(Some(Duration::from_millis(100))).time,
            Some(Duration::from_millis(100))
        );
        assert_eq!(
            b.capped(Some(Duration::from_secs(5))).time,
            Some(Duration::from_millis(500))
        );
        assert_eq!(b.capped(None).time, Some(Duration::from_millis(500)));
        // An unlimited budget capped by a shard allowance becomes bounded.
        assert_eq!(
            Budget::unlimited()
                .capped(Some(Duration::from_millis(7)))
                .time,
            Some(Duration::from_millis(7))
        );
    }

    #[test]
    fn spec_serde_round_trips() {
        for spec in ALL_SPECS {
            let json = serde_json::to_string(&spec).unwrap();
            let back: SolverSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn engine_pool_reuses_instances() {
        let pool = EnginePool::new();
        let a = pool.get(SolverSpec::Csp1Sat, 1);
        let b = pool.get(SolverSpec::Csp1Sat, 99);
        // Seed-insensitive backend: one cached engine serves every seed.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(pool.len(), 1);
        // Seed-sensitive backend: distinct seeds get distinct engines,
        // repeats of the same seed share one.
        let c1 = pool.get(SolverSpec::Csp1, 1);
        let c2 = pool.get(SolverSpec::Csp1, 2);
        let c1_again = pool.get(SolverSpec::Csp1, 1);
        assert!(!Arc::ptr_eq(&c1, &c2));
        assert!(Arc::ptr_eq(&c1, &c1_again));
        assert_eq!(pool.len(), 3);
        // Clones share the cache.
        assert_eq!(pool.clone().len(), 3);
    }

    #[test]
    fn pooled_engines_match_fresh_builds() {
        let ts = TaskSet::running_example();
        let pool = EnginePool::new();
        for spec in ALL_SPECS {
            let budget = Budget::time_limit(Duration::from_secs(5));
            let fresh = spec
                .build_seeded(7)
                .solve(&ts, 2, &budget, &CancelToken::new())
                .unwrap();
            let pooled = pool
                .get(spec, 7)
                .solve(&ts, 2, &budget, &CancelToken::new())
                .unwrap();
            assert_eq!(
                fresh.verdict.is_feasible(),
                pooled.verdict.is_feasible(),
                "{spec:?}: pooled engine diverged from a fresh build"
            );
        }
    }

    #[test]
    fn budget_decision_limit_reaches_csp2() {
        let ts = TaskSet::from_ocdt(&[(0, 1, 2, 2), (1, 3, 4, 4), (0, 2, 2, 3), (0, 1, 3, 4)]);
        let budget = Budget {
            max_decisions: Some(1),
            ..Budget::unlimited()
        };
        let res = SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet)
            .build()
            .solve(&ts, 2, &budget, &CancelToken::new())
            .unwrap();
        assert_eq!(res.verdict, Verdict::Unknown(StopReason::DecisionLimit));
    }
}
