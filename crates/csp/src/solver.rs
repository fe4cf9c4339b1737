//! Systematic search: DFS with incremental propagation, heuristics,
//! restarts, budgets.
//!
//! The search core is event-driven: the store records *which* variables
//! changed and *how* ([`crate::EventMask`]), the solver wakes only the
//! propagators subscribed to those event kinds and hands each one its
//! changed variables, and the propagators ([`crate::propagators`]) keep
//! trailed incremental state (running sums, counters) instead of rescanning
//! their whole scope on every wake. Variable selection never rescans fixed
//! variables (the store maintains an unfixed sparse set) and dom/wdeg
//! weights are cached per variable, maintained at weight-bump time.
//! Wall-clock budget checks are amortized: `Instant::now()` is consulted
//! every ~1024 search steps rather than on every node and failure.

use std::cell::Cell;
use std::collections::VecDeque;
use std::mem::take;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mgrts_obs::recycle::{self, bytes, refill};
use mgrts_obs::{KindStats, SearchStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::constraints::Constraint;
use crate::nogood::{luby, ConflictInfo, LogEntry, Nogood, Pred, PredOp, Reason};
use crate::propagators::{build, state_cells, Prop, PropKind, Tables};
use crate::store::{EventMask, StateId, Store, Val, VarId};

/// Variable-ordering heuristics (Section III-B: "ordering the variables to
/// prune the search space more efficiently").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarOrder {
    /// Declaration order — what the chronological MGRTS encodings rely on.
    Input,
    /// Smallest current domain first ("most constrained variable").
    MinDomain,
    /// Smallest domain-size / constraint-failure-weight ratio first
    /// (dom/wdeg, the workhorse default of generic solvers such as Choco).
    #[default]
    DomOverWDeg,
    /// Uniformly random among unfixed variables.
    Random,
}

/// Value-ordering heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValOrder {
    /// Smallest value first.
    #[default]
    Min,
    /// Largest value first.
    Max,
    /// Uniformly random value from the current domain.
    Random,
}

/// Restart schedule: after a quota of failures the search restarts from
/// the root. Growing quotas keep the search complete on finite spaces.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RestartSchedule {
    /// Never restart.
    #[default]
    Never,
    /// `initial_failures` before the first restart, then a quota growing
    /// by `growth` (> 1 for completeness) per restart.
    Geometric {
        /// Failures allowed before the first restart.
        initial_failures: u64,
        /// Multiplicative quota growth per restart.
        growth: f64,
    },
    /// Restart `i` (from 0) comes after `luby(i) * unit` failures; a
    /// `unit` of 0 counts as 1.
    Luby {
        /// Failures per Luby-sequence unit.
        unit: u64,
    },
}

impl RestartSchedule {
    /// Failure quota of run `run` (0 before the first restart), given the
    /// quota of the run before it.
    pub(crate) fn quota(self, run: u64, prev: u64) -> u64 {
        match self {
            RestartSchedule::Never => u64::MAX,
            RestartSchedule::Geometric {
                initial_failures,
                growth,
            } => {
                if run == 0 {
                    initial_failures
                } else {
                    ((prev as f64) * growth).ceil() as u64
                }
            }
            RestartSchedule::Luby { unit } => luby(run) * unit.max(1),
        }
    }
}

/// Resource limits. `None` fields are unlimited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Wall-clock limit (the paper's 30 s "resolution time" cap).
    pub time: Option<Duration>,
    /// Decision limit.
    pub max_decisions: Option<u64>,
}

impl Budget {
    /// Only a wall-clock limit.
    #[must_use]
    pub fn time_limit(d: Duration) -> Self {
        Budget {
            time: Some(d),
            ..Budget::default()
        }
    }
}

/// Which budget was exhausted when a solve ends in [`Outcome::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitReason {
    /// Wall-clock budget exhausted (the paper's "overrun").
    Time,
    /// Decision budget exhausted.
    Decisions,
    /// An external interrupt flag was raised (portfolio cancellation).
    Interrupted,
}

/// Verdict of a solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A complete assignment satisfying every constraint (indexed by
    /// [`VarId`]).
    Sat(Vec<Val>),
    /// The search space was exhausted: no solution exists.
    Unsat,
    /// A budget ran out before a verdict.
    Unknown(LimitReason),
}

impl Outcome {
    /// True for [`Outcome::Sat`].
    #[must_use]
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }

    /// True for [`Outcome::Unsat`].
    #[must_use]
    pub fn is_unsat(&self) -> bool {
        matches!(self, Outcome::Unsat)
    }

    /// Extract the solution if SAT.
    #[must_use]
    pub fn solution(&self) -> Option<&[Val]> {
        match self {
            Outcome::Sat(s) => Some(s),
            _ => None,
        }
    }
}

/// Conflict-driven nogood learning (lazy clause generation). Disabled by
/// default; [`SolverConfig::chronological_learning`] turns it on with the
/// portfolio's `csp2-learn` settings. A learning search restarts on
/// [`SolverConfig::restarts`] like any other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnConfig {
    /// Master switch: record the implication log, analyze conflicts with
    /// 1-UIP resolution, backjump, propagate learned nogoods, and branch
    /// on the last value each variable was tried with while it is still
    /// in its domain (SAT-style phase saving).
    pub enabled: bool,
    /// Learned-nogood database bound: exceeding it triggers a reduction
    /// that evicts the worse (high-LBD, old) half. Glue nogoods
    /// (LBD ≤ 2) and nogoods locked as reasons are never evicted.
    pub db_max: usize,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            enabled: false,
            db_max: 4000,
        }
    }
}

impl LearnConfig {
    /// Learning on, with default knobs.
    #[must_use]
    pub fn on() -> Self {
        LearnConfig {
            enabled: true,
            ..LearnConfig::default()
        }
    }
}

/// Solver configuration. [`Solver::solve`] runs one depth-first search
/// under it; [`Solver::enumerate`] runs the same search with learning off
/// and without restarts.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Variable-ordering heuristic.
    pub var_order: VarOrder,
    /// Value-ordering heuristic.
    pub val_order: ValOrder,
    /// Restart schedule (quotas counted in failures).
    pub restarts: RestartSchedule,
    /// RNG seed for `Random` heuristics and restart diversification.
    pub seed: u64,
    /// Resource limits.
    pub budget: Budget,
    /// Conflict-driven nogood learning (off by default).
    pub learn: LearnConfig,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_order: VarOrder::DomOverWDeg,
            val_order: ValOrder::Min,
            restarts: RestartSchedule::Never,
            seed: 42,
            budget: Budget::default(),
            learn: LearnConfig::default(),
        }
    }
}

impl SolverConfig {
    /// The configuration used to emulate the paper's CSP1 setup: a generic
    /// solver with its default randomized strategy (dom/wdeg, random value
    /// choice, geometric restarts). Different seeds reproduce the paper's
    /// observation that runs on the same instance vary in duration.
    #[must_use]
    pub fn generic_randomized(seed: u64) -> Self {
        SolverConfig {
            var_order: VarOrder::DomOverWDeg,
            val_order: ValOrder::Random,
            restarts: RestartSchedule::Geometric {
                initial_failures: 128,
                growth: 1.5,
            },
            seed,
            budget: Budget::default(),
            learn: LearnConfig::default(),
        }
    }

    /// Chronological variable/value order with conflict-driven nogood
    /// learning, phase saving and Luby restarts of 128 failures per unit —
    /// the `csp2-learn` portfolio entry.
    #[must_use]
    pub fn chronological_learning() -> Self {
        SolverConfig {
            var_order: VarOrder::Input,
            val_order: ValOrder::Min,
            restarts: RestartSchedule::Luby { unit: 128 },
            seed: 42,
            budget: Budget::default(),
            learn: LearnConfig::on(),
        }
    }

    /// Set the budget (builder style).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// One propagator kind's wake/prune/entailment counters, indexed by
/// [`PropKind::index`]: the propagation loop's flat storage, folded into
/// [`SearchStats::kinds`] by [`Solver::stats`].
#[derive(Debug, Clone, Copy, Default)]
struct KindCounters {
    wakes: u64,
    prunes: u64,
    entailments: u64,
}

/// Interval (in budget-check calls) between actual `Instant::now()` polls.
/// SAT-solver style: the clock is read once per ~1024 nodes/failures
/// instead of on every one.
const BUDGET_CHECK_MASK: u64 = 1023;

/// Has an optional interrupt flag been raised? (A relaxed load; `None`
/// never is.)
pub(crate) fn raised(flag: Option<&AtomicBool>) -> bool {
    flag.is_some_and(|f| f.load(Ordering::Relaxed))
}

/// A frozen CSP ready to solve.
#[derive(Debug)]
pub struct Solver {
    store: Store,
    /// Original constraint descriptions, retained for final solution
    /// checking ([`Constraint::is_satisfied`]).
    constraints: Vec<Constraint>,
    /// Runtime propagators, index-aligned with `constraints`.
    props: Vec<Prop>,
    /// The propagators' derived tables and shared scratch.
    tables: Tables,
    /// Watched vars per propagator (with multiplicity) for wdeg bumps,
    /// in CSR layout: propagator `ci` watches
    /// `prop_var_entries[prop_var_starts[ci]..prop_var_starts[ci + 1]]`.
    prop_var_starts: Vec<u32>,
    prop_var_entries: Vec<VarId>,
    /// First of the trailed per-propagator stale flags (one consecutive
    /// block): non-zero forces a full re-propagation on the next run (see
    /// `abort_fixpoint`).
    stale: StateId,
    /// Trailed per-propagator entailment flags (where supported): while
    /// raised, events do not wake the propagator at all.
    entailed: Vec<Option<StateId>>,
    /// Per-propagator changed-variable lists consumed on each run. They
    /// are recycled with their capacity (a flat arena and a flat
    /// per-edge layout were both measured slower on the search path).
    pending: Vec<Vec<VarId>>,
    /// Per-propagator: does it consume `pending` at all? Propagators that
    /// re-derive from the domains skip the pending bookkeeping on dispatch.
    wants_pending: Vec<bool>,
    /// Per-propagator kind index (cached so the telemetry hot path never
    /// makes a virtual call).
    kind_of: Vec<u8>,
    /// Per-variable watcher lists with event filters, in CSR layout:
    /// variable `v`'s watchers are
    /// `watch_entries[watch_starts[v]..watch_starts[v + 1]]`. The flat
    /// layout is built with one counting-sort pass (a handful of
    /// allocations instead of one growing `Vec` per variable) and keeps
    /// the dispatch hot loop on contiguous memory.
    watch_starts: Vec<u32>,
    watch_entries: Vec<(u32, EventMask)>,
    /// dom/wdeg constraint failure weights.
    weights: Vec<u64>,
    /// Cached per-variable Σ of watcher weights, maintained at bump time.
    var_weight: Vec<u64>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    decisions: Vec<(VarId, Val)>,
    config: SolverConfig,
    rng: SmallRng,
    stats: SearchStats,
    kinds: [KindCounters; PropKind::COUNT],
    initially_inconsistent: bool,
    interrupt: Option<Arc<AtomicBool>>,
    /// False when the interrupt stopped construction before every
    /// propagator was built; such a solver never searches.
    loaded: bool,
    budget_ticks: u64,
    /// Value of [`Store::gac_rebuild_count`] when the current solve
    /// started; the stats report the difference.
    gac_base: u64,
    /// Set when a propagation fixpoint was aborted by a budget/interrupt
    /// check; forces the next `check_budget` to poll immediately instead of
    /// waiting out the amortization window (the domains may not be at
    /// fixpoint, so the search must not extract a solution first).
    abort_pending: bool,
    dirty_buf: Vec<(VarId, EventMask)>,
    /// Trailed cursor for `VarOrder::Input`: everything below it is fixed.
    /// Advances monotonically within a branch (amortized O(1) per node) and
    /// rewinds with the trail on backtrack.
    input_cursor: StateId,
    /// Learned-nogood database; `None` slots are tombstones left by DB
    /// reduction (ids stay stable, watch lists are cleaned lazily).
    nogoods: Vec<Option<Nogood>>,
    /// Live (non-tombstone) entries of `nogoods`.
    ng_live: usize,
    /// Per-variable nogood watch lists: `(nogood id, watch index)`.
    /// Orphaned entries (evicted nogood, moved watch) are dropped lazily
    /// during the scan.
    ng_watches: Vec<Vec<(u32, u8)>>,
    /// Variables with fresh events whose nogood watches must be
    /// re-examined (learning mode only).
    ng_dirty: Vec<VarId>,
    /// Last value each variable was branched on (phase saving; untrailed
    /// by design).
    saved_phase: Vec<Option<Val>>,
    /// Conflict-analysis buffers, reused across conflicts.
    scratch: AnalysisScratch,
    /// `reduce_db` marks: nogood ids locked as implication reasons.
    ng_locked: Vec<bool>,
    /// Construction scratch, kept only to be recycled with the rest.
    wake_masks: Vec<EventMask>,
    edge_masks: Vec<EventMask>,
    cursor: Vec<u32>,
}

/// Conflict-analysis scratch, indexed by implication-log position and
/// reused across conflicts. The resolution item set is a generation stamp
/// per position (`live[pos] == gen`), so emptying it between conflicts is
/// one increment, and live items carry their merged predicate in
/// `item[pos]`.
#[derive(Debug, Default)]
struct AnalysisScratch {
    gen: u32,
    /// `== gen`: the entry at this position is a live item.
    live: Vec<u32>,
    /// `== gen`: the entry at this position was already mapped as a
    /// scope-snapshot conjunct during the current analysis.
    mapped: Vec<u32>,
    /// Merged predicate of each live item.
    item: Vec<Pred>,
    /// Positions made live, in first-touched order.
    touched: Vec<u32>,
    /// Live items, and how many of them sit at the current level.
    n_live: usize,
    n_cur: usize,
    /// Explanation output: predicates to look up from their variable's
    /// chain head, and snapshot conjuncts given by their own log position.
    expl: Vec<Pred>,
    anchors: Vec<u32>,
    /// Levels of a learned nogood's conjuncts (for its LBD).
    levels: Vec<u32>,
}

impl AnalysisScratch {
    /// This scratch as a fresh solver's, keeping its capacity.
    fn reset_all(mut self) -> Self {
        let AnalysisScratch {
            gen,
            live,
            mapped,
            item,
            touched,
            n_live,
            n_cur,
            expl,
            anchors,
            levels,
        } = &mut self;
        *gen = 0;
        live.clear();
        mapped.clear();
        item.clear();
        touched.clear();
        *n_live = 0;
        *n_cur = 0;
        expl.clear();
        anchors.clear();
        levels.clear();
        self
    }

    /// Bytes of capacity held.
    fn bytes(&self) -> usize {
        bytes(&self.live)
            + bytes(&self.mapped)
            + bytes(&self.item)
            + bytes(&self.touched)
            + bytes(&self.expl)
            + bytes(&self.anchors)
            + bytes(&self.levels)
    }

    /// Empty the item set and make room for `log_len` positions.
    fn reset(&mut self, log_len: usize) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.live.fill(0);
            self.mapped.fill(0);
            self.gen = 1;
        }
        if self.live.len() < log_len {
            self.live.resize(log_len, 0);
            self.mapped.resize(log_len, 0);
            self.item.resize(log_len, Pred::eq(0, 0));
        }
        self.touched.clear();
        self.n_live = 0;
        self.n_cur = 0;
    }

    fn is_live(&self, pos: u32) -> bool {
        self.live[pos as usize] == self.gen
    }

    /// Add `q`, implied by log entry `e` at `pos`, to the item set. When
    /// several predicates map to one entry, the slot keeps a predicate
    /// implying all of them — the entry's own predicate always does, as
    /// the last resort.
    fn merge(&mut self, pos: u32, q: Pred, e: &LogEntry, cur_level: u32) {
        let p = pos as usize;
        if self.is_live(pos) {
            let cur = self.item[p];
            if !cur.implies(q) {
                self.item[p] = if q.implies(cur) { q } else { e.pred };
            }
        } else {
            self.live[p] = self.gen;
            self.item[p] = q;
            self.touched.push(pos);
            self.n_live += 1;
            if e.level == cur_level {
                self.n_cur += 1;
            }
        }
    }

    /// Drop the current-level item at `pos` from the set.
    fn remove_current(&mut self, pos: u32) {
        self.live[pos as usize] = 0;
        self.n_live -= 1;
        self.n_cur -= 1;
    }
}

/// Result of 1-UIP conflict analysis.
enum Analysis {
    /// An asserting nogood: the unique current-level predicate `uip` plus
    /// the lower-level conjuncts with their levels.
    Learned {
        uip: Pred,
        rest: Vec<(Pred, u32)>,
        assert_level: usize,
        lbd: u32,
    },
    /// Analysis could not produce a sound nogood (missing conflict
    /// context, propagator without a usable explanation chain, …): take a
    /// chronological step instead. Learning is an accelerator, never
    /// load-bearing.
    Fallback,
    /// The conflict follows from root facts alone: the model is UNSAT.
    RootUnsat,
}

/// Everything a [`Solver`] allocates, parked in [`SOLVER_BUFFERS`] when it
/// is dropped and taken back by the next [`crate::Model::into_solver`] on
/// the same thread (see "Construction and buffer reuse" in the crate
/// docs). Every buffer is emptied or refilled on construction.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    pub(crate) store: Store,
    props: Vec<Prop>,
    tables: Tables,
    prop_var_starts: Vec<u32>,
    prop_var_entries: Vec<VarId>,
    entailed: Vec<Option<StateId>>,
    pending: Vec<Vec<VarId>>,
    wants_pending: Vec<bool>,
    kind_of: Vec<u8>,
    watch_starts: Vec<u32>,
    watch_entries: Vec<(u32, EventMask)>,
    weights: Vec<u64>,
    var_weight: Vec<u64>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    decisions: Vec<(VarId, Val)>,
    dirty_buf: Vec<(VarId, EventMask)>,
    nogoods: Vec<Option<Nogood>>,
    ng_watches: Vec<Vec<(u32, u8)>>,
    ng_dirty: Vec<VarId>,
    saved_phase: Vec<Option<Val>>,
    scratch: AnalysisScratch,
    ng_locked: Vec<bool>,
    /// Construction scratch: per-variable wake-mask unions, per-edge
    /// event filters, CSR fill cursors.
    wake_masks: Vec<EventMask>,
    edge_masks: Vec<EventMask>,
    cursor: Vec<u32>,
}

impl Buffers {
    /// Bytes of capacity held.
    fn bytes(&self) -> usize {
        self.store.bytes()
            + self.tables.bytes()
            + bytes(&self.props)
            + bytes(&self.prop_var_starts)
            + bytes(&self.prop_var_entries)
            + bytes(&self.entailed)
            + bytes(&self.pending)
            + self.pending.iter().map(bytes).sum::<usize>()
            + bytes(&self.wants_pending)
            + bytes(&self.kind_of)
            + bytes(&self.watch_starts)
            + bytes(&self.watch_entries)
            + bytes(&self.weights)
            + bytes(&self.var_weight)
            + self.queue.capacity() * std::mem::size_of::<u32>()
            + bytes(&self.in_queue)
            + bytes(&self.decisions)
            + bytes(&self.dirty_buf)
            + bytes(&self.nogoods)
            + bytes(&self.ng_watches)
            + self.ng_watches.iter().map(bytes).sum::<usize>()
            + bytes(&self.ng_dirty)
            + bytes(&self.saved_phase)
            + self.scratch.bytes()
            + bytes(&self.ng_locked)
            + bytes(&self.wake_masks)
            + bytes(&self.edge_masks)
            + bytes(&self.cursor)
    }
}

thread_local! {
    /// This thread's parked solver buffers.
    pub(crate) static SOLVER_BUFFERS: Cell<Option<Buffers>> = const { Cell::new(None) };
}

impl Drop for Solver {
    /// Park the solver's buffers for the next model built on this thread.
    fn drop(&mut self) {
        // Learned nogoods own their predicates; they go now, the list's
        // capacity stays.
        self.nogoods.clear();
        let set = Buffers {
            store: take(&mut self.store),
            props: take(&mut self.props),
            tables: take(&mut self.tables),
            prop_var_starts: take(&mut self.prop_var_starts),
            prop_var_entries: take(&mut self.prop_var_entries),
            entailed: take(&mut self.entailed),
            pending: take(&mut self.pending),
            wants_pending: take(&mut self.wants_pending),
            kind_of: take(&mut self.kind_of),
            watch_starts: take(&mut self.watch_starts),
            watch_entries: take(&mut self.watch_entries),
            weights: take(&mut self.weights),
            var_weight: take(&mut self.var_weight),
            queue: take(&mut self.queue),
            in_queue: take(&mut self.in_queue),
            decisions: take(&mut self.decisions),
            dirty_buf: take(&mut self.dirty_buf),
            nogoods: take(&mut self.nogoods),
            ng_watches: take(&mut self.ng_watches),
            ng_dirty: take(&mut self.ng_dirty),
            saved_phase: take(&mut self.saved_phase),
            scratch: take(&mut self.scratch),
            ng_locked: take(&mut self.ng_locked),
            wake_masks: take(&mut self.wake_masks),
            edge_masks: take(&mut self.edge_masks),
            cursor: take(&mut self.cursor),
        };
        let size = set.bytes();
        recycle::put(&SOLVER_BUFFERS, set, size);
    }
}

impl Solver {
    /// Build a solver from the model's constraints over `bufs`, whose
    /// store holds the model's variables. `store_built` is false when the
    /// interrupt stopped the store's construction (the store is then
    /// empty); `initially_inconsistent` marks a store whose initial
    /// removals already wiped a domain out.
    pub(crate) fn from_parts(
        bufs: Buffers,
        store_built: bool,
        initially_inconsistent: bool,
        mut constraints: Vec<Constraint>,
        config: SolverConfig,
        interrupt: Option<Arc<AtomicBool>>,
    ) -> Self {
        // Destructured field by field: a buffer added to the set fails to
        // compile here until its refill is decided.
        let Buffers {
            mut store,
            mut props,
            mut tables,
            mut prop_var_starts,
            mut prop_var_entries,
            mut entailed,
            mut pending,
            mut wants_pending,
            mut kind_of,
            mut watch_starts,
            mut watch_entries,
            mut weights,
            mut var_weight,
            mut queue,
            mut in_queue,
            mut decisions,
            mut dirty_buf,
            mut nogoods,
            mut ng_watches,
            mut ng_dirty,
            mut saved_phase,
            scratch,
            mut ng_locked,
            mut wake_masks,
            mut edge_masks,
            mut cursor,
        } = bufs;
        // Model-building removals precede propagator construction; their
        // events are subsumed by the initial full propagation of every
        // propagator (all start stale).
        store.clear_dirty();
        tables.reset();
        props.clear();
        props.reserve(constraints.len());
        store.reserve_state(
            constraints.iter().map(state_cells).sum::<usize>() + constraints.len() + 1,
        );
        for c in &constraints {
            if !store_built || raised(interrupt.as_deref()) {
                break;
            }
            props.push(build(c, &mut store, &mut tables));
        }
        // An interrupted build keeps no constraints: the rest of the
        // construction is then trivial, and `loaded` bars the search.
        let loaded = store_built && props.len() == constraints.len();
        if !loaded {
            props.clear();
            constraints.clear();
        }
        let n_props = props.len();
        let stale = store.new_state_cells(n_props, 1);
        entailed.clear();
        entailed.extend(props.iter().map(Prop::entailed_flag));
        let input_cursor = store.new_state_cell(0);
        let n_vars = store.num_vars();
        // Per variable: the union of its watchers' event filters, and how
        // many watch edges it has (dom/wdeg starts every edge at weight 1).
        refill(&mut wake_masks, n_vars, EventMask::NONE);
        refill(&mut var_weight, n_vars, 0);
        let n_edges: usize = constraints.iter().map(|c| c.watched().len()).sum();
        prop_var_starts.clear();
        prop_var_starts.reserve(n_props + 1);
        prop_var_starts.push(0u32);
        prop_var_entries.clear();
        prop_var_entries.reserve(n_edges);
        edge_masks.clear();
        edge_masks.reserve(n_edges);
        for (p, c) in props.iter().zip(&constraints) {
            p.watches(c, &tables, |v, mask| {
                var_weight[v] += 1;
                wake_masks[v] |= mask;
                prop_var_entries.push(v);
                edge_masks.push(mask);
            });
            prop_var_starts.push(prop_var_entries.len() as u32);
        }
        // Counting sort of the (var, prop) watch edges into CSR form: a
        // prefix sum over per-variable counts gives the group boundaries,
        // then one placement pass scatters each edge into its slot. Total
        // cost is a handful of flat allocations — building one growing
        // `Vec` per variable instead costs thousands of scattered
        // reallocations on paper-scale models and dominated solver
        // construction time.
        watch_starts.clear();
        watch_starts.reserve(n_vars + 1);
        let mut acc = 0u32;
        watch_starts.push(0u32);
        for &c in &var_weight {
            acc += c as u32;
            watch_starts.push(acc);
        }
        cursor.clear();
        cursor.extend_from_slice(&watch_starts[..n_vars]);
        refill(
            &mut watch_entries,
            prop_var_entries.len(),
            (0u32, EventMask::NONE),
        );
        for ci in 0..n_props {
            let (s, e) = (
                prop_var_starts[ci] as usize,
                prop_var_starts[ci + 1] as usize,
            );
            for k in s..e {
                let v = prop_var_entries[k];
                let slot = cursor[v] as usize;
                cursor[v] += 1;
                watch_entries[slot] = (ci as u32, edge_masks[k]);
            }
        }
        // Events no propagator subscribed to are dropped inside the store —
        // they never reach the dirty queue, so the backtracking-heavy hot
        // path skips their bookkeeping entirely. Learning needs every
        // event (the store's default): nogood watches can sit on any
        // variable and the semantic log must see every change.
        if config.learn.enabled {
            store.set_learning(true);
        } else {
            store.set_wake_masks(&wake_masks);
        }
        wants_pending.clear();
        wants_pending.extend(props.iter().map(Prop::wants_pending));
        kind_of.clear();
        kind_of.extend(props.iter().map(|p| p.kind().index() as u8));
        pending.truncate(n_props);
        for p in &mut pending {
            p.clear();
        }
        pending.resize_with(n_props, Vec::new);
        refill(&mut weights, n_props, 1);
        queue.clear();
        refill(&mut in_queue, n_props, false);
        decisions.clear();
        dirty_buf.clear();
        nogoods.clear();
        ng_watches.truncate(n_vars);
        for w in &mut ng_watches {
            w.clear();
        }
        ng_watches.resize_with(n_vars, Vec::new);
        ng_dirty.clear();
        refill(&mut saved_phase, n_vars, None);
        ng_locked.clear();
        Solver {
            store,
            constraints,
            props,
            tables,
            prop_var_starts,
            prop_var_entries,
            stale,
            entailed,
            pending,
            wants_pending,
            kind_of,
            watch_starts,
            watch_entries,
            weights,
            var_weight,
            queue,
            in_queue,
            decisions,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            stats: SearchStats::default(),
            kinds: [KindCounters::default(); PropKind::COUNT],
            initially_inconsistent,
            interrupt,
            loaded,
            budget_ticks: 0,
            gac_base: 0,
            abort_pending: false,
            dirty_buf,
            input_cursor,
            nogoods,
            ng_live: 0,
            ng_watches,
            ng_dirty,
            saved_phase,
            scratch: scratch.reset_all(),
            ng_locked,
            wake_masks,
            edge_masks,
            cursor,
        }
    }

    /// Replace the resource budget for subsequent [`Solver::solve`] /
    /// [`Solver::enumerate`] calls — the hook for adaptive budgeting and
    /// for retrying a timed-out solver with a larger allowance (its
    /// trailed state recovers automatically).
    pub fn set_budget(&mut self, budget: Budget) {
        self.config.budget = budget;
    }

    /// Read-only view of the underlying domain store (diagnostics and
    /// tests).
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Live entries of the learned-nogood database, for auditing (e.g.
    /// checking no returned solution violates a learned nogood).
    pub fn learned_nogoods(&self) -> impl Iterator<Item = &Nogood> {
        self.nogoods.iter().filter_map(|slot| slot.as_ref())
    }

    /// Counters of the last [`Solver::solve`] or [`Solver::enumerate`]
    /// call, as one solve's [`SearchStats`].
    #[must_use]
    pub fn stats(&self) -> SearchStats {
        let kinds = PropKind::ALL
            .iter()
            .zip(&self.kinds)
            .filter(|(_, kc)| kc.wakes != 0 || kc.prunes != 0 || kc.entailments != 0)
            .map(|(k, kc)| KindStats {
                kind: k.name().to_string(),
                wakes: kc.wakes,
                prunes: kc.prunes,
                entailments: kc.entailments,
            })
            .collect();
        SearchStats {
            // Derived on read rather than maintained in the propagation
            // loop: the store's rebuild counter is monotone, so the delta
            // from the solve-start base is always current.
            gac_rebuilds: self.store.gac_rebuild_count().saturating_sub(self.gac_base),
            kinds,
            ..self.stats.clone()
        }
    }

    /// Run root propagation to fixpoint and return every variable's domain,
    /// or `None` when the model is already inconsistent at the root.
    ///
    /// Introspection hook for differential testing (the incremental engine
    /// and the [`crate::reference`] engine must agree on root fixpoints) and
    /// for diagnostics; [`Solver::solve`] may still be called afterwards.
    ///
    /// # Panics
    ///
    /// When the solver's construction was interrupted (see
    /// [`crate::Model::set_interrupt`]): it has no fixpoint to report.
    pub fn root_fixpoint(&mut self) -> Option<Vec<Vec<Val>>> {
        assert!(self.loaded, "root_fixpoint on an interrupted construction");
        if self.initially_inconsistent {
            return None;
        }
        // Diagnostics must return a true fixpoint: a time/interrupt abort
        // mid-propagation would silently yield half-propagated domains, so
        // both are suspended for this call.
        let saved_time = self.config.budget.time.take();
        let saved_interrupt = self.interrupt.take();
        let consistent = self.propagate_all(Instant::now());
        self.config.budget.time = saved_time;
        self.interrupt = saved_interrupt;
        if !consistent {
            return None;
        }
        Some(
            (0..self.store.num_vars())
                .map(|v| self.store.iter(v).collect())
                .collect(),
        )
    }

    /// Run the search to a verdict or a budget limit.
    pub fn solve(&mut self) -> Outcome {
        let SolverConfig {
            learn, restarts, ..
        } = self.config;
        self.search(learn.enabled, restarts, &mut |_| false)
    }

    /// Enumerate solutions by exhaustive DFS, invoking `on_solution` for
    /// each one, up to `limit` solutions. Returns `(count, complete)` where
    /// `complete` is true when the whole space was exhausted (so `count` is
    /// the exact solution count when `count < limit`).
    ///
    /// Enumeration never learns and never restarts (a restart would
    /// revisit solutions); budgets still apply and make `complete = false`.
    /// Already learned nogoods are model-implied, so their pruning cannot
    /// drop solutions.
    pub fn enumerate<F: FnMut(&[Val])>(&mut self, limit: u64, mut on_solution: F) -> (u64, bool) {
        let mut count = 0u64;
        let outcome = self.search(false, RestartSchedule::Never, &mut |sol| {
            on_solution(sol);
            count += 1;
            count < limit
        });
        (count, outcome.is_unsat())
    }

    /// The depth-first search behind [`Solver::solve`] and
    /// [`Solver::enumerate`]. `learn` turns on conflict analysis with
    /// backjumping and phase saving; `restarts` sets the failure quotas.
    /// Each complete assignment goes to `on_leaf`: `false` ends the search
    /// with it as [`Outcome::Sat`], `true` treats it as a dead end and
    /// searches on. [`Outcome::Unsat`] means the space is exhausted.
    ///
    /// A learning search starts from the root; any other resumes where the
    /// previous call stopped.
    fn search(
        &mut self,
        learn: bool,
        restarts: RestartSchedule,
        on_leaf: &mut dyn FnMut(&[Val]) -> bool,
    ) -> Outcome {
        let start = Instant::now();
        self.begin_solve();
        if self.stopped_at_entry() {
            return Outcome::Unknown(LimitReason::Interrupted);
        }
        if self.initially_inconsistent {
            return Outcome::Unsat;
        }
        if learn {
            // The implication log only covers levels pushed while it was
            // enabled, so state left behind by a previous non-logging call
            // must be unwound first.
            self.store.backtrack_to_root();
            self.decisions.clear();
        }
        self.store.set_learning(learn);
        if !self.propagate_all(start) {
            return Outcome::Unsat;
        }
        let mut quota = restarts.quota(0, 0);
        let mut failures = 0u64;
        loop {
            if let Some(r) = self.check_budget(start) {
                return Outcome::Unknown(r);
            }
            // Restart when the quota is hit (only above the root).
            if failures >= quota && !self.decisions.is_empty() {
                self.store.backtrack_to_root();
                self.decisions.clear();
                self.stats.restarts += 1;
                quota = restarts.quota(self.stats.restarts, quota);
                failures = 0;
                // Re-propagate from the root (cheap now: propagators with no
                // pending events are no-ops, but permanent refutations and
                // learned root facts may have left work behind).
                if !self.propagate_all(start) {
                    return Outcome::Unsat;
                }
                continue;
            }

            let mut ok = if let Some(var) = self.select_var() {
                let val = self.select_val(var, learn);
                self.store.push_level();
                self.decisions.push((var, val));
                if learn {
                    self.saved_phase[var] = Some(val);
                }
                self.stats.decisions += 1;
                self.stats.peak_depth = self.stats.peak_depth.max(self.decisions.len() as u64);
                self.stats.peak_trail = self.stats.peak_trail.max(self.store.trail_len() as u64);
                if self
                    .config
                    .budget
                    .max_decisions
                    .is_some_and(|mx| self.stats.decisions > mx)
                {
                    return Outcome::Unknown(LimitReason::Decisions);
                }
                self.store.set_reason(Reason::Decision);
                let applied = self.store.assign(var, val).is_ok();
                self.settle(applied, start)
            } else {
                let sol = self.extract();
                // The engine's own post-condition: never hand out a bogus
                // model.
                for c in &self.constraints {
                    assert!(
                        c.is_satisfied(&sol),
                        "internal error: solver produced an assignment violating {c:?}"
                    );
                }
                if !on_leaf(&sol) {
                    return Outcome::Sat(sol);
                }
                false
            };
            while !ok {
                self.stats.backtracks += 1;
                if learn {
                    self.stats.conflicts += 1;
                }
                failures += 1;
                if let Some(r) = self.check_budget(start) {
                    return Outcome::Unknown(r);
                }
                let Some(next) = self.recover(learn, start) else {
                    return Outcome::Unsat;
                };
                ok = next;
            }
        }
    }

    /// Step out of a failed node: `None` when the search space is
    /// exhausted, else whether the node it lands on is consistent. With
    /// `learn`, 1-UIP analysis learns a nogood and backjumps to the level
    /// where it asserts; otherwise, and whenever the analysis falls back,
    /// the deepest decision is refuted at its parent level.
    fn recover(&mut self, learn: bool, start: Instant) -> Option<bool> {
        if self.store.depth() == 0 {
            return None;
        }
        let analysis = if learn {
            self.analyze()
        } else {
            Analysis::Fallback
        };
        let applied = match analysis {
            Analysis::RootUnsat => return None,
            Analysis::Fallback => {
                let (v, val) = self.decisions.pop()?;
                self.store.backtrack();
                self.store.set_reason(Reason::PriorDecisions);
                self.store.remove(v, val).is_ok()
            }
            Analysis::Learned {
                uip,
                rest,
                assert_level,
                lbd,
            } => {
                self.stats.backjump_sum += (self.store.depth() - assert_level) as u64;
                while self.store.depth() > assert_level {
                    self.store.backtrack();
                    self.decisions.pop();
                }
                self.stats.learnt_clauses += 1;
                if rest.is_empty() {
                    // Unit nogood: ¬uip is a permanent root fact (root
                    // mutations are never logged, so the reason is
                    // irrelevant).
                    self.store.set_reason(Reason::Decision);
                } else {
                    let id = self.add_nogood(uip, &rest, lbd);
                    self.store.set_reason(Reason::Nogood { id });
                }
                self.enforce_negated(uip)
            }
        };
        Some(self.settle(applied, start))
    }

    /// Count solutions up to `limit`. Convenience wrapper over
    /// [`Solver::enumerate`].
    pub fn count_solutions(&mut self, limit: u64) -> (u64, bool) {
        self.enumerate(limit, |_| {})
    }

    /// Reset the per-solve counters and budget state: the counters then
    /// describe one solve from its start.
    fn begin_solve(&mut self) {
        self.stats = SearchStats {
            solves: 1,
            ..SearchStats::default()
        };
        self.kinds = [KindCounters::default(); PropKind::COUNT];
        self.budget_ticks = 0;
        self.abort_pending = false;
        self.gac_base = self.store.gac_rebuild_count();
    }

    /// The check before a solve's root propagation: a raised flag stops
    /// it there, and a solver whose construction was interrupted never
    /// gets further (its propagators are missing, so any verdict would be
    /// unsound).
    fn stopped_at_entry(&self) -> bool {
        !self.loaded || raised(self.interrupt.as_deref())
    }

    /// Amortized budget check: the interrupt flag (an atomic load) is
    /// polled on every call, but `Instant::now()` only every
    /// ~[`BUDGET_CHECK_MASK`]+1 calls.
    fn check_budget(&mut self, start: Instant) -> Option<LimitReason> {
        if self.abort_pending {
            // A fixpoint was abandoned mid-flight: the domains are not
            // propagated, so the limit must be confirmed before the search
            // is allowed to extract anything from them.
            self.abort_pending = false;
            if let Some(r) = self.check_budget_now(start) {
                return Some(r);
            }
        }
        if raised(self.interrupt.as_deref()) {
            return Some(LimitReason::Interrupted);
        }
        if let Some(t) = self.config.budget.time {
            let tick = self.budget_ticks;
            self.budget_ticks += 1;
            if tick & BUDGET_CHECK_MASK == 0 && start.elapsed() >= t {
                return Some(LimitReason::Time);
            }
        }
        None
    }

    /// Unamortized budget check, for the coarse-grained call sites that are
    /// already rate-limited by their caller.
    fn check_budget_now(&self, start: Instant) -> Option<LimitReason> {
        if raised(self.interrupt.as_deref()) {
            return Some(LimitReason::Interrupted);
        }
        if let Some(t) = self.config.budget.time {
            if start.elapsed() >= t {
                return Some(LimitReason::Time);
            }
        }
        None
    }

    fn enqueue(&mut self, ci: u32) {
        if !self.in_queue[ci as usize] {
            self.in_queue[ci as usize] = true;
            self.queue.push_back(ci);
        }
    }

    /// Route the store's accumulated change events to subscribed
    /// propagators: enqueue them and record the changed variable in their
    /// pending lists.
    fn dispatch_dirty(&mut self) {
        let mut buf = std::mem::take(&mut self.dirty_buf);
        buf.clear();
        self.store.drain_dirty(&mut buf);
        let learning = self.config.learn.enabled;
        for &(v, mask) in &buf {
            if learning {
                // Any event can make a nogood watch on `v` start holding.
                self.ng_dirty.push(v);
            }
            let (ws, we) = (
                self.watch_starts[v] as usize,
                self.watch_starts[v + 1] as usize,
            );
            for &(ci, filter) in &self.watch_entries[ws..we] {
                if mask.intersects(filter) {
                    let ci_us = ci as usize;
                    // Entailed propagators sleep through events; their
                    // trailed state rewinds with the flag on backtrack.
                    if self.entailed[ci_us].is_some_and(|cell| self.store.state(cell) != 0) {
                        continue;
                    }
                    if self.wants_pending[ci_us] {
                        self.pending[ci_us].push(v);
                    }
                    if !self.in_queue[ci_us] {
                        self.in_queue[ci_us] = true;
                        self.queue.push_back(ci);
                    }
                }
            }
        }
        self.dirty_buf = buf;
    }

    /// Abandon the current fixpoint after a *conflict*: flush the queue,
    /// pending lists and undelivered events without any stale marking.
    ///
    /// This is sound because every conflict is followed either by
    /// termination or by a backtrack past the conflict level, and all the
    /// discarded events (plus any partial trailed-state updates of the
    /// erroring propagator) belong to exactly that level — the backtrack
    /// rewinds domains and cached state together, leaving every propagator
    /// consistent again.
    fn abort_fixpoint_on_conflict(&mut self) {
        while let Some(ci) = self.queue.pop_front() {
            let ci = ci as usize;
            self.in_queue[ci] = false;
            self.pending[ci].clear();
        }
        self.store.clear_dirty();
        self.ng_dirty.clear();
    }

    /// Abandon the current fixpoint on a budget/interrupt check: flush the
    /// queue and mark every propagator with undelivered events *stale*
    /// (trailed), forcing a full re-propagation on its next run. Unlike the
    /// conflict path the search may continue from the current level, so
    /// lost events must be compensated; staleness is trailed because the
    /// events belong to the current level — backtracking past it restores
    /// both the domains and the flags, keeping cached state consistent.
    fn abort_fixpoint(&mut self) {
        while let Some(ci) = self.queue.pop_front() {
            let ci = ci as usize;
            self.in_queue[ci] = false;
            self.store.set_state(self.stale.offset(ci), 1);
            self.pending[ci].clear();
        }
        let mut buf = std::mem::take(&mut self.dirty_buf);
        buf.clear();
        self.store.drain_dirty(&mut buf);
        for &(v, mask) in &buf {
            let (ws, we) = (
                self.watch_starts[v] as usize,
                self.watch_starts[v + 1] as usize,
            );
            for &(ci, filter) in &self.watch_entries[ws..we] {
                if mask.intersects(filter) {
                    // Not queued, so nothing is pending for it.
                    self.store.set_state(self.stale.offset(ci as usize), 1);
                }
            }
        }
        self.dirty_buf = buf;
        // Nogood watch events are dropped too: harmless — nogoods are
        // redundant (model-implied), so a missed unit propagation only
        // costs pruning, never soundness.
        self.ng_dirty.clear();
    }

    fn bump_weight(&mut self, ci: usize) {
        self.weights[ci] += 1;
        let (s, e) = (
            self.prop_var_starts[ci] as usize,
            self.prop_var_starts[ci + 1] as usize,
        );
        for &v in &self.prop_var_entries[s..e] {
            self.var_weight[v] += 1;
        }
    }

    /// Run the propagation queue to fixpoint. Returns false on conflict.
    ///
    /// In learning mode, learned-nogood unit propagation is interleaved:
    /// the cheap watch scans drain before each (comparatively expensive)
    /// propagator run.
    fn propagate(&mut self, start: Instant) -> bool {
        let learning = self.config.learn.enabled;
        loop {
            if learning && !self.ng_dirty.is_empty() && !self.nogood_fixpoint() {
                // The failed enforcement left its conflict context in the
                // store; unwind exactly like a propagator conflict.
                if self.store.depth() == 0 {
                    self.abort_fixpoint();
                } else {
                    self.abort_fixpoint_on_conflict();
                }
                return false;
            }
            let Some(ci) = self.queue.pop_front() else {
                // Every pending list is empty once the queue is.
                return true;
            };
            let ci_us = ci as usize;
            self.in_queue[ci_us] = false;
            self.stats.propagations += 1;
            // Periodic time check: huge models can spend long in one
            // fixpoint (the paper's CSP1 instances do).
            if self.stats.propagations.is_multiple_of(4096)
                && self.check_budget_now(start).is_some()
            {
                // Leave the fixpoint unfinished; the caller notices the
                // limit at its next budget check. The popped propagator
                // never ran, so its pending events would otherwise survive
                // into deeper levels — stale-mark it like the queue rest.
                self.store.set_state(self.stale.offset(ci_us), 1);
                self.pending[ci_us].clear();
                self.abort_fixpoint();
                self.abort_pending = true;
                return true;
            }
            if learning {
                // Every prune of this run is explainable from the scope
                // state at `run_start` (see `explain_requested`).
                self.store.set_reason(Reason::Prop {
                    ci,
                    run_start: self.store.log_len(),
                });
            }
            let ki = usize::from(self.kind_of[ci_us]);
            let prunes_before = self.store.prune_count();
            let c = &self.constraints[ci_us];
            let stale = self.stale.offset(ci_us);
            let result = if self.store.state(stale) != 0 {
                self.store.set_state(stale, 0);
                self.pending[ci_us].clear();
                self.props[ci_us].propagate_full(c, &mut self.tables, &mut self.store)
            } else {
                let mut run = take(&mut self.pending[ci_us]);
                let r = self.props[ci_us].propagate_incremental(
                    c,
                    &mut self.tables,
                    &mut self.store,
                    &run,
                );
                run.clear();
                self.pending[ci_us] = run;
                r
            };
            let kc = &mut self.kinds[ki];
            kc.wakes += 1;
            kc.prunes += self.store.prune_count() - prunes_before;
            // Entailed propagators never reach the queue (dispatch skips
            // them, and the flag only rewinds together with a queue
            // flush), so entailment after the run IS the transition.
            if self.entailed[ci_us].is_some_and(|cell| self.store.state(cell) != 0) {
                kc.entailments += 1;
            }
            match result {
                Err(_) => {
                    self.bump_weight(ci_us);
                    if self.store.depth() == 0 {
                        // Root conflicts are never rewound (root writes are
                        // permanent) and the solver stays usable afterwards
                        // (`root_fixpoint`, repeated `solve`), so dropped
                        // events must be compensated by stale marks here.
                        self.store.set_state(self.stale.offset(ci_us), 1);
                        self.abort_fixpoint();
                    } else {
                        self.abort_fixpoint_on_conflict();
                    }
                    return false;
                }
                Ok(()) => self.dispatch_dirty(),
            }
        }
    }

    /// Propagate every constraint to fixpoint. Returns false on conflict.
    fn propagate_all(&mut self, start: Instant) -> bool {
        for ci in 0..self.constraints.len() {
            self.enqueue(ci as u32);
        }
        self.propagate(start)
    }

    /// Finish a search step: if its store mutation `applied` without a
    /// wipeout, route the events and propagate. Returns false on conflict.
    fn settle(&mut self, applied: bool, start: Instant) -> bool {
        applied && {
            self.dispatch_dirty();
            self.propagate(start)
        }
    }

    fn select_var(&mut self) -> Option<VarId> {
        match self.config.var_order {
            VarOrder::Input => {
                // Advance the trailed cursor over fixed variables; since
                // unfixing only happens by backtracking (which also rewinds
                // the cursor), everything below it stays fixed.
                let n = self.store.num_vars();
                let mut cur = self.store.state(self.input_cursor) as usize;
                while cur < n && self.store.is_fixed(cur) {
                    cur += 1;
                }
                self.store.set_state(self.input_cursor, cur as i64);
                (cur < n).then_some(cur)
            }
            VarOrder::MinDomain => {
                let store = &self.store;
                store.unfixed_vars().min_by_key(|&v| (store.size(v), v))
            }
            VarOrder::DomOverWDeg => {
                // Minimize size/weight ⇔ compare size·w_best vs size_best·w
                // in exact integer arithmetic; ties break on the smaller id
                // (matching an ascending scan over all variables).
                let mut best: Option<(u64, u64, VarId)> = None;
                for v in self.store.unfixed_vars() {
                    let size = u64::from(self.store.size(v));
                    let weight = self.var_weight[v].max(1);
                    let better = match best {
                        None => true,
                        Some((bs, bw, bv)) => {
                            let lhs = u128::from(size) * u128::from(bw);
                            let rhs = u128::from(bs) * u128::from(weight);
                            lhs < rhs || (lhs == rhs && v < bv)
                        }
                    };
                    if better {
                        best = Some((size, weight, v));
                    }
                }
                best.map(|(_, _, v)| v)
            }
            VarOrder::Random => {
                // Reservoir sampling over the unfixed sparse set: uniform,
                // and one RNG draw per unfixed variable.
                let mut chosen = None;
                for (seen, v) in self.store.unfixed_vars().enumerate() {
                    if self.rng.gen_range(0..=seen as u64) == 0 {
                        chosen = Some(v);
                    }
                }
                chosen
            }
        }
    }

    /// Value choice. A learning search first re-tries the last value
    /// branched on for this variable when it is still available (phase
    /// saving).
    fn select_val(&mut self, var: VarId, learn: bool) -> Val {
        if learn {
            if let Some(s) = self.saved_phase[var].filter(|&s| self.store.contains(var, s)) {
                return s;
            }
        }
        match self.config.val_order {
            ValOrder::Min => self.store.min(var),
            ValOrder::Max => self.store.max(var),
            ValOrder::Random => {
                let n = self.store.size(var);
                self.store.nth_value(var, self.rng.gen_range(0..n))
            }
        }
    }

    fn extract(&self) -> Vec<Val> {
        (0..self.store.num_vars())
            .map(|v| self.store.value(v))
            .collect()
    }

    /// Establish the negation of `p` in the store. False ⇒ wipeout (the
    /// store records the conflict context while learning).
    fn enforce_negated(&mut self, p: Pred) -> bool {
        let r = match p.op {
            PredOp::Ge => self.store.remove_above(p.var, p.val - 1).map(|_| ()),
            PredOp::Le => self.store.remove_below(p.var, p.val + 1).map(|_| ()),
            PredOp::Eq => self.store.remove(p.var, p.val).map(|_| ()),
            PredOp::Ne => self.store.assign(p.var, p.val).map(|_| ()),
        };
        r.is_ok()
    }

    /// Unit propagation over the learned-nogood database, SAT-style with
    /// two watched predicates per nogood (watch invariant on the *negated*
    /// literals: each watched predicate is non-holding, or some watched
    /// predicate is falsified — backtracking only un-holds predicates, so
    /// the watches need no trailing). Returns false on conflict, leaving
    /// the store's conflict context set by the failed enforcement.
    fn nogood_fixpoint(&mut self) -> bool {
        while let Some(v) = self.ng_dirty.pop() {
            let mut k = 0usize;
            while k < self.ng_watches[v].len() {
                let (id, wi) = self.ng_watches[v][k];
                let id_us = id as usize;
                let wi_us = wi as usize;
                let Some(ng) = self.nogoods[id_us].as_ref() else {
                    // Evicted by DB reduction: drop the orphaned entry.
                    self.ng_watches[v].swap_remove(k);
                    continue;
                };
                let (w0, w1) = (ng.watch[0], ng.watch[1]);
                let p = ng.preds[(if wi_us == 0 { w0 } else { w1 }) as usize];
                if p.var != v {
                    // This watch moved to another variable since the
                    // entry was queued.
                    self.ng_watches[v].swap_remove(k);
                    continue;
                }
                if !p.holds(&self.store) {
                    k += 1;
                    continue;
                }
                let po = ng.preds[(if wi_us == 0 { w1 } else { w0 }) as usize];
                if po.falsified(&self.store) {
                    // Some conjunct can never hold on this branch: the
                    // nogood is satisfied here.
                    k += 1;
                    continue;
                }
                // Try to move this watch onto a non-holding conjunct.
                let repl = ng.preds.iter().enumerate().find_map(|(j, q)| {
                    let j = j as u32;
                    (j != w0 && j != w1 && !q.holds(&self.store)).then_some((j, q.var))
                });
                if let Some((j, qv)) = repl {
                    self.nogoods[id_us].as_mut().expect("live").watch[wi_us] = j;
                    self.ng_watches[qv].push((id, wi));
                    self.ng_watches[v].swap_remove(k);
                    continue;
                }
                // Unit: every conjunct except `po` holds — enforce its
                // negation. If `po` holds too, the enforcement wipes out
                // and seeds conflict analysis with this nogood as reason.
                self.store.set_reason(Reason::Nogood { id });
                if !self.enforce_negated(po) {
                    return false;
                }
                self.dispatch_dirty();
                k += 1;
            }
        }
        true
    }

    /// Store a learned nogood `{uip} ∪ rest`, watching the asserting
    /// predicate and a deepest remaining conjunct (the pair that
    /// un-falsifies last on backtracking).
    fn add_nogood(&mut self, uip: Pred, rest: &[(Pred, u32)], lbd: u32) -> u32 {
        let mut preds = Vec::with_capacity(rest.len() + 1);
        preds.push(uip);
        preds.extend(rest.iter().map(|&(p, _)| p));
        let w1 = 1 + rest
            .iter()
            .enumerate()
            .max_by_key(|&(_, &(_, l))| l)
            .map(|(i, _)| i)
            .expect("rest is non-empty for stored nogoods") as u32;
        let id = self.nogoods.len() as u32;
        self.ng_watches[preds[0].var].push((id, 0));
        self.ng_watches[preds[w1 as usize].var].push((id, 1));
        self.nogoods.push(Some(Nogood {
            preds,
            lbd,
            watch: [0, w1],
        }));
        self.ng_live += 1;
        if self.ng_live > self.config.learn.db_max {
            self.reduce_db();
        }
        id
    }

    /// Evict the worse half of the evictable learned nogoods: highest LBD
    /// first, oldest first on ties. Glue nogoods (LBD ≤ 2) and nogoods
    /// currently locked as implication reasons are kept.
    fn reduce_db(&mut self) {
        let locked = &mut self.ng_locked;
        locked.clear();
        locked.resize(self.nogoods.len(), false);
        for e in self.store.log() {
            if let Reason::Nogood { id } = e.reason {
                locked[id as usize] = true;
            }
        }
        let mut cands: Vec<(u32, u32)> = self
            .nogoods
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|ng| (id as u32, ng.lbd)))
            .filter(|&(id, lbd)| lbd > 2 && !locked[id as usize])
            .map(|(id, lbd)| (lbd, id))
            .collect();
        cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let n = cands.len() / 2;
        for &(_, id) in &cands[..n] {
            self.nogoods[id as usize] = None;
            self.ng_live -= 1;
        }
        self.stats.db_reductions += 1;
    }

    /// 1-UIP conflict analysis over the store's implication log.
    ///
    /// The conflict's explanation is mapped onto log entries (the items),
    /// then the latest current-level item is resolved away — replaced by
    /// its own explanation — until one current-level item remains: the
    /// first unique implication point. Items live in the position-indexed
    /// [`AnalysisScratch`], so a conflict allocates nothing beyond the
    /// learned nogood. Log positions are ordered by level and each step
    /// adds only entries strictly before the one it resolved, so the next
    /// item to resolve is found by a cursor that only moves down from the
    /// log end (MiniSat's trail walk): one analysis costs time linear in
    /// the log suffix it resolves over. The nogood's conjuncts come out in
    /// first-touched order, so the learned nogoods — and the whole search
    /// — are deterministic.
    fn analyze(&mut self) -> Analysis {
        let Some(conf) = self.store.take_conflict() else {
            // A propagator-internal conflict (no failed store mutation):
            // nothing to resolve from.
            return Analysis::Fallback;
        };
        // Moved out for the analysis, so the explanation helpers can
        // borrow the solver while filling it.
        let mut sc = std::mem::take(&mut self.scratch);
        let analysis = self.resolve(conf, &mut sc);
        self.scratch = sc;
        analysis
    }

    /// The body of [`Solver::analyze`], over the taken-out scratch.
    fn resolve(&self, conf: ConflictInfo, sc: &mut AnalysisScratch) -> Analysis {
        let cur_level = self.store.depth() as u32;
        if cur_level == 0 {
            return Analysis::RootUnsat;
        }
        let log = self.store.log();
        let log_len = self.store.log_len();
        sc.reset(log.len());
        sc.expl.clear();
        sc.anchors.clear();
        let (expl, anchors) = (&mut sc.expl, &mut sc.anchors);
        if !self.explain_requested(conf.requested, conf.reason, cur_level, expl, anchors) {
            return Analysis::Fallback;
        }
        sc.expl.push(conf.holding);
        self.map_explanation(sc, log_len, cur_level);
        // Every live current-level item lies above every lower-level one,
        // so the cursor's next live position is the latest current-level
        // item. The guard bounds any pathological case.
        let mut cursor = log_len;
        let mut guard = 16 * u64::from(log_len) + 64;
        loop {
            if guard == 0 {
                return Analysis::Fallback;
            }
            guard -= 1;
            if sc.n_cur == 0 {
                // Without a current-level item there is no asserting
                // nogood; an empty set means the conflict follows from
                // root facts alone.
                return if sc.n_live == 0 {
                    Analysis::RootUnsat
                } else {
                    Analysis::Fallback
                };
            }
            cursor -= 1;
            while !sc.is_live(cursor) {
                cursor -= 1;
            }
            debug_assert_eq!(log[cursor as usize].level, cur_level);
            if sc.n_cur == 1 {
                break;
            }
            sc.remove_current(cursor);
            sc.expl.clear();
            sc.anchors.clear();
            if !self.explain_entry(cursor, &mut sc.expl, &mut sc.anchors) {
                return Analysis::Fallback;
            }
            self.map_explanation(sc, cursor, cur_level);
        }
        let uip = sc.item[cursor as usize];
        sc.remove_current(cursor);
        let mut rest = Vec::with_capacity(sc.n_live);
        sc.levels.clear();
        sc.levels.push(cur_level);
        for &pos in &sc.touched {
            // Clearing the stamp emits each live item exactly once.
            if sc.is_live(pos) {
                sc.live[pos as usize] = 0;
                let level = log[pos as usize].level;
                rest.push((sc.item[pos as usize], level));
                sc.levels.push(level);
            }
        }
        let assert_level = rest.iter().map(|&(_, l)| l).max().unwrap_or(0) as usize;
        sc.levels.sort_unstable();
        sc.levels.dedup();
        Analysis::Learned {
            uip,
            rest,
            assert_level,
            lbd: sc.levels.len() as u32,
        }
    }

    /// Map the explanation in `sc` onto log entries strictly before
    /// `limit` and merge them into the item set. Predicates with no
    /// implying entry held at the root already and resolve away.
    /// Snapshot conjuncts come first, as the explanation lists them: each
    /// is looked up from its own entry, which implies it and lies below
    /// `limit`, so the walk finds the same earliest entry as a walk from
    /// the chain head. A conjunct already mapped in this analysis is
    /// skipped — merging the same predicate into the same slot again
    /// changes nothing.
    fn map_explanation(&self, sc: &mut AnalysisScratch, limit: u32, cur_level: u32) {
        let log = self.store.log();
        for i in 0..sc.anchors.len() {
            let at = sc.anchors[i];
            if sc.mapped[at as usize] == sc.gen {
                continue;
            }
            sc.mapped[at as usize] = sc.gen;
            let q = log[at as usize].pred;
            if let Some(pos) = self.lookup(q, at, limit) {
                sc.merge(pos, q, &log[pos as usize], cur_level);
            }
        }
        for i in 0..sc.expl.len() {
            let q = sc.expl[i];
            if let Some(pos) = self.lookup(q, self.store.var_log_head(q.var), limit) {
                sc.merge(pos, q, &log[pos as usize], cur_level);
            }
        }
    }

    /// Earliest implication-log entry strictly before `limit` whose
    /// predicate implies `p`, walking `p.var`'s per-variable chain down
    /// from position `from`. `None` ⇒ `p` already held at the root (root
    /// facts are never logged and resolve away during analysis).
    fn lookup(&self, p: Pred, from: u32, limit: u32) -> Option<u32> {
        let log = self.store.log();
        let mut pos = from;
        let mut found = None;
        while pos != u32::MAX {
            let e = &log[pos as usize];
            if pos < limit && e.pred.implies(p) {
                found = Some(pos);
            }
            pos = e.prev;
        }
        found
    }

    /// Explain a log entry: append predicates that held strictly before
    /// it and together force `entry.pred` (snapshot conjuncts go to
    /// `anchors` by log position, see [`Solver::explain_requested`]).
    /// False ⇒ unexplainable (the whole analysis falls back to a
    /// chronological step).
    fn explain_entry(&self, eidx: u32, out: &mut Vec<Pred>, anchors: &mut Vec<u32>) -> bool {
        let e = self.store.log()[eidx as usize];
        let v = e.pred.var;
        match e.reason {
            Reason::Bound => match e.pred.op {
                // A min-raise recorded after removing `base − 1`: the old
                // bound plus the removed run of values force the new one.
                PredOp::Ge => {
                    out.push(Pred::ge(v, e.base - 1));
                    for k in (e.base - 1)..e.pred.val {
                        out.push(Pred::ne(v, k));
                    }
                    true
                }
                PredOp::Le => {
                    out.push(Pred::le(v, e.base + 1));
                    for k in (e.pred.val + 1)..=(e.base + 1) {
                        out.push(Pred::ne(v, k));
                    }
                    true
                }
                // A fix event: both bounds closed on the value.
                PredOp::Eq => {
                    out.push(Pred::ge(v, e.pred.val));
                    out.push(Pred::le(v, e.pred.val));
                    true
                }
                PredOp::Ne => false,
            },
            Reason::Decision => false,
            _ => {
                // The entry records the *result* of a requested mutation:
                // explain the requested cut, bridging any holes it skipped
                // with the removals that created them.
                let (req, lo, hi) = match e.pred.op {
                    PredOp::Ge => (Pred::ge(v, e.base), e.base, e.pred.val),
                    PredOp::Le => (Pred::le(v, e.base), e.pred.val + 1, e.base + 1),
                    _ => (e.pred, 0, 0),
                };
                if !self.explain_requested(req, e.reason, e.level, out, anchors) {
                    return false;
                }
                for k in lo..hi {
                    out.push(Pred::ne(v, k));
                }
                true
            }
        }
    }

    /// Explain why `req` was being enforced under `reason` (`level` is
    /// the decision level at play, for `PriorDecisions`): append
    /// predicates that held when the enforcement fired. The generic
    /// scope-snapshot fallback reads its conjuncts straight from the log
    /// and appends their positions to `anchors` instead. False ⇒ no
    /// usable explanation.
    fn explain_requested(
        &self,
        req: Pred,
        reason: Reason,
        level: u32,
        out: &mut Vec<Pred>,
        anchors: &mut Vec<u32>,
    ) -> bool {
        match reason {
            Reason::Decision | Reason::Bound => false,
            Reason::Prop { ci, run_start } => {
                let ci_us = ci as usize;
                let before = out.len();
                if self.props[ci_us].explain(&self.constraints[ci_us], &self.store, req, out) {
                    return true;
                }
                out.truncate(before);
                // Generic fallback: a propagator's prunes are a function
                // of its scope's domains when the run began, so the logged
                // predicates on scope variables before `run_start` form a
                // coarse but sound explanation.
                let (s, e) = (
                    self.prop_var_starts[ci_us] as usize,
                    self.prop_var_starts[ci_us + 1] as usize,
                );
                let log = self.store.log();
                for &sv in &self.prop_var_entries[s..e] {
                    let mut pos = self.store.var_log_head(sv);
                    while pos != u32::MAX {
                        if pos < run_start {
                            anchors.push(pos);
                        }
                        pos = log[pos as usize].prev;
                    }
                }
                true
            }
            Reason::Nogood { id } => {
                let Some(ng) = self.nogoods[id as usize].as_ref() else {
                    return false;
                };
                // At enforcement time every other conjunct held, and
                // branch mutations only ever strengthen domains — the
                // currently-holding conjuncts are exactly the reason.
                out.extend(ng.preds.iter().copied().filter(|q| q.holds(&self.store)));
                true
            }
            Reason::PriorDecisions => {
                // A chronological refutation is implied by the decisions
                // above it, all of which are logged `Eq` entries.
                let lvl = (level as usize).min(self.decisions.len());
                for &(dv, dval) in &self.decisions[..lvl] {
                    out.push(Pred::eq(dv, dval));
                }
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn all_configs() -> Vec<SolverConfig> {
        let mut cfgs = Vec::new();
        for var_order in [
            VarOrder::Input,
            VarOrder::MinDomain,
            VarOrder::DomOverWDeg,
            VarOrder::Random,
        ] {
            for val_order in [ValOrder::Min, ValOrder::Max, ValOrder::Random] {
                cfgs.push(SolverConfig {
                    var_order,
                    val_order,
                    restarts: RestartSchedule::Never,
                    seed: 7,
                    budget: Budget::default(),
                    learn: LearnConfig::default(),
                });
            }
        }
        cfgs.push(SolverConfig::generic_randomized(3));
        cfgs.push(SolverConfig::chronological_learning());
        cfgs.push(SolverConfig {
            var_order: VarOrder::DomOverWDeg,
            val_order: ValOrder::Min,
            restarts: RestartSchedule::Luby { unit: 2 }, // stress restarts
            seed: 5,
            budget: Budget::default(),
            learn: LearnConfig {
                enabled: true,
                db_max: 8, // stress DB reduction
            },
        });
        cfgs
    }

    fn simple_model() -> Model {
        // x + y + z = 6, all-different, domains [0,3] → {0,1,2,3} triples
        // summing to 6 with distinct values: permutations of (1,2,3) or (0,3,?)…
        let mut m = Model::new();
        let v = m.new_vars(3, 0, 3);
        m.post(Constraint::linear_eq(v.clone(), vec![1, 1, 1], 6));
        m.post(Constraint::AllDifferent { vars: v });
        m
    }

    #[test]
    fn sat_under_every_heuristic() {
        for cfg in all_configs() {
            let mut s = simple_model().into_solver(cfg);
            let out = s.solve();
            let sol = out.solution().unwrap_or_else(|| panic!("{cfg:?} failed"));
            assert_eq!(sol.iter().map(|&x| i64::from(x)).sum::<i64>(), 6);
        }
    }

    #[test]
    fn empty_scope_constraints_decide_by_their_right_hand_side() {
        // No variable can make an empty sum equal a nonzero constant; an
        // empty scope with rhs = 0 is trivially satisfied.
        for rhs in [1u32, 0] {
            let empty: [Constraint; 3] = [
                Constraint::BoolSumEq { vars: vec![], rhs },
                Constraint::CountEq {
                    vars: vec![],
                    value: 1,
                    rhs,
                },
                Constraint::linear_eq(vec![], vec![], i64::from(rhs)),
            ];
            for c in empty {
                let mut m = Model::new();
                m.new_bool();
                m.post(c.clone());
                let incremental = m.clone().into_solver(SolverConfig::default()).solve();
                let reference =
                    crate::reference::RefSolver::from_model(&m, SolverConfig::default()).solve();
                for out in [incremental, reference] {
                    assert_eq!(out.is_unsat(), rhs != 0, "{c:?}: {out:?}");
                    assert_eq!(out.solution().is_some(), rhs == 0, "{c:?}: {out:?}");
                }
            }
        }
    }

    #[test]
    fn unsat_under_every_heuristic() {
        for cfg in all_configs() {
            // Pigeonhole: 4 pigeons, 3 holes.
            let mut m = Model::new();
            let v = m.new_vars(4, 0, 2);
            m.post(Constraint::AllDifferent { vars: v });
            let mut s = m.into_solver(cfg);
            assert!(s.solve().is_unsat(), "{cfg:?} should prove UNSAT");
        }
    }

    #[test]
    fn magic_series_length_4() {
        // s[i] = #occurrences of i in s. Known solution: [1,2,1,0].
        let mut m = Model::new();
        let v = m.new_vars(4, 0, 4);
        for i in 0..4 {
            // CountEq can't bind a variable rhs; encode via channeling with
            // booleans: b[i][j] ⇔ (v[j] == i), Σ_j b[i][j] = v[i].
            let mut bools = Vec::new();
            for &vj in v.iter().take(4) {
                let b = m.new_bool();
                bools.push(b);
                // b=1 → v[j]=i is enforced by the linear link below only in
                // one direction; enforce equivalence with two linears:
                //   v[j] - i ≤ (4)(1-b)  and  i - v[j] ≤ (4)(1-b)
                m.post(Constraint::linear_leq(vec![vj, b], vec![1, 4], i + 4));
                m.post(Constraint::linear_leq(vec![vj, b], vec![-1, 4], 4 - i));
                // b=0 → v[j] ≠ i: |v[j] - i| ≥ 1 - … needs disjunction; we
                // instead force the count from the other side:
            }
            // Σ_j b[i][j] ≥ occurrences is implied; for exact counting add
            // CountEq on v with a fixed rhs … not expressible. Use the sum
            // identity Σ_i v[i] = 4 plus the ≤ links; final check via search.
            m.post(Constraint::linear_eq(
                {
                    let mut vs = bools.clone();
                    vs.push(v[i as usize]);
                    vs
                },
                {
                    let mut cs = vec![1i64; 4];
                    cs.push(-1);
                    cs
                },
                0,
            ));
        }
        m.post(Constraint::linear_eq(v.clone(), vec![1, 1, 1, 1], 4));
        let mut s = m.into_solver(SolverConfig::default());
        // The relaxed encoding admits the magic series; check the canonical
        // one is found satisfiable.
        let out = s.solve();
        assert!(out.is_sat());
    }

    #[test]
    fn random_seeds_change_the_path_but_not_the_verdict() {
        let mut solutions = Vec::new();
        for seed in 0..6 {
            let mut m = Model::new();
            let v = m.new_vars(8, 0, 7);
            m.post(Constraint::AllDifferent { vars: v });
            let mut s = m.into_solver(SolverConfig::generic_randomized(seed));
            match s.solve() {
                Outcome::Sat(sol) => solutions.push(sol),
                other => panic!("seed {seed}: expected SAT, got {other:?}"),
            }
        }
        // Not every pair of runs must differ, but at least two distinct
        // solutions demonstrate the randomized behaviour the paper
        // describes for the generic solver.
        solutions.sort();
        solutions.dedup();
        assert!(solutions.len() >= 2, "expected varied outcomes");
    }

    #[test]
    fn time_budget_reports_unknown() {
        // A model that root propagation cannot decide (GAC all-different
        // keeps a full permutation space; the sum constraint is
        // bounds-consistent at the root) with a 0 ms budget must report
        // Unknown before the first decision.
        let mut m = Model::new();
        let v = m.new_vars(8, 0, 7);
        m.post(Constraint::AllDifferent { vars: v.clone() });
        m.post(Constraint::linear_eq(v, vec![1; 8], 21));
        let cfg = SolverConfig::default().with_budget(Budget::time_limit(Duration::ZERO));
        let mut s = m.into_solver(cfg);
        assert_eq!(s.solve(), Outcome::Unknown(LimitReason::Time));
    }

    #[test]
    fn timed_out_solve_leaves_state_reusable() {
        // The same solver, retried with a larger budget after a timeout,
        // must still reach the correct verdict from its recovered state.
        // (Unsat, but not at the root: distinct values over [0,7] for 8
        // variables force the sum 28 ≠ 21, which only search uncovers.)
        let mut m = Model::new();
        let v = m.new_vars(8, 0, 7);
        m.post(Constraint::AllDifferent { vars: v.clone() });
        m.post(Constraint::linear_eq(v, vec![1; 8], 21));
        let cfg = SolverConfig::default().with_budget(Budget::time_limit(Duration::ZERO));
        let mut s = m.into_solver(cfg);
        assert_eq!(s.solve(), Outcome::Unknown(LimitReason::Time));
        s.set_budget(Budget::default());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn mid_fixpoint_abort_recovers_via_stale_flags() {
        // A propagation chain long enough that the root fixpoint passes
        // the 4096-propagation budget checkpoint mid-flight: with a zero
        // time budget the fixpoint is abandoned (stale-marking the queue)
        // strictly before the chain's contradiction is reached, and the
        // solve must report the limit rather than trust the unfinished
        // domains. Retried with an unlimited budget, the stale flags force
        // full re-propagation and the contradiction must be found.
        let n = 5000;
        let mut m = Model::new();
        let v = m.new_vars(n, 0, 10);
        m.post(Constraint::linear_eq(vec![v[0]], vec![1], 5));
        for i in 0..n - 1 {
            m.post(Constraint::LeqVar {
                a: v[i],
                b: v[i + 1],
            });
        }
        // Contradiction only reachable after the ≥5 bound ripples down
        // the whole chain (~n propagator runs, > 4096).
        m.post(Constraint::linear_eq(vec![v[n - 1]], vec![1], 0));
        let cfg = SolverConfig {
            var_order: VarOrder::Input,
            val_order: ValOrder::Min,
            restarts: RestartSchedule::Never,
            seed: 0,
            budget: Budget::time_limit(Duration::ZERO),
            learn: LearnConfig::default(),
        };
        let mut s = m.into_solver(cfg);
        let first = s.solve();
        assert_eq!(
            first,
            Outcome::Unknown(LimitReason::Time),
            "zero budget must abort the fixpoint, not mis-decide"
        );
        assert!(
            s.stats().propagations >= 4096,
            "abort must have happened mid-fixpoint (got {} runs)",
            s.stats().propagations
        );
        s.set_budget(Budget::default());
        assert!(
            s.solve().is_unsat(),
            "stale recovery must re-derive the contradiction"
        );
    }

    #[test]
    fn decision_budget_reports_unknown() {
        let mut m = Model::new();
        let v = m.new_vars(10, 0, 9);
        m.post(Constraint::AllDifferent { vars: v });
        let mut cfg = SolverConfig {
            var_order: VarOrder::Input,
            val_order: ValOrder::Min,
            restarts: RestartSchedule::Never,
            seed: 0,
            budget: Budget::default(),
            learn: LearnConfig::default(),
        };
        cfg.budget.max_decisions = Some(2);
        let mut s = m.into_solver(cfg);
        assert_eq!(s.solve(), Outcome::Unknown(LimitReason::Decisions));
    }

    #[test]
    fn stats_populated() {
        let mut s = simple_model().into_solver(SolverConfig::default());
        s.solve();
        let st = s.stats();
        assert!(st.propagations > 0);
        assert!(st.decisions >= 1);
    }

    #[test]
    fn empty_model_is_sat() {
        let m = Model::new();
        let mut s = m.into_solver(SolverConfig::default());
        assert_eq!(s.solve(), Outcome::Sat(vec![]));
    }

    #[test]
    fn restarts_preserve_soundness() {
        // Small unsat problem with an aggressive restart schedule still
        // proves UNSAT (growing quotas keep the search complete).
        let mut m = Model::new();
        let v = m.new_vars(5, 0, 3);
        m.post(Constraint::AllDifferent { vars: v });
        let cfg = SolverConfig {
            restarts: RestartSchedule::Geometric {
                initial_failures: 1,
                growth: 1.3,
            },
            val_order: ValOrder::Random,
            var_order: VarOrder::Random,
            seed: 11,
            budget: Budget::default(),
            learn: LearnConfig::default(),
        };
        let mut s = m.into_solver(cfg);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn enumerate_counts_exactly() {
        // x, y ∈ [0,2], x ≠ y → 6 solutions.
        let mut m = Model::new();
        let x = m.new_var(0, 2);
        let y = m.new_var(0, 2);
        m.post(Constraint::NotEqual { a: x, b: y });
        let mut s = m.into_solver(SolverConfig::default());
        let mut seen = Vec::new();
        let (count, complete) = s.enumerate(100, |sol| seen.push(sol.to_vec()));
        assert_eq!(count, 6);
        assert!(complete);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6, "no duplicate solutions");
    }

    #[test]
    fn search_paths_are_pinned() {
        // Decision and failure counts of fixed searches: enumeration (which
        // ignores the learning switch), geometric restarts and learning
        // with Luby restarts. A loop refactor must leave them unchanged.
        let distinct = |n: usize, hi: Val| {
            let mut m = Model::new();
            let v = m.new_vars(n, 0, hi);
            for i in 0..v.len() {
                for j in (i + 1)..v.len() {
                    m.post(Constraint::NotEqual { a: v[i], b: v[j] });
                }
            }
            m
        };
        let mut got = Vec::new();
        for cfg in [
            SolverConfig::default(),
            SolverConfig::chronological_learning(),
        ] {
            let mut s = distinct(4, 3).into_solver(cfg);
            let (count, complete) = s.count_solutions(1000);
            let st = s.stats();
            got.push((count, complete, st.decisions, st.backtracks));
        }
        for cfg in [
            SolverConfig::generic_randomized(3),
            SolverConfig::chronological_learning(),
        ] {
            let mut s = distinct(8, 6).into_solver(cfg);
            let unsat = s.solve().is_unsat();
            let st = s.stats();
            got.push((st.restarts, unsat, st.decisions, st.backtracks));
        }
        assert_eq!(
            got,
            vec![
                (24, true, 23, 24),
                (24, true, 23, 24),
                (8, true, 7646, 7626),
                (2, true, 323, 322),
            ]
        );
    }

    #[test]
    fn enumerate_respects_the_limit() {
        let mut m = Model::new();
        m.new_vars(4, 0, 3); // 256 unconstrained assignments
        let mut s = m.into_solver(SolverConfig::default());
        let (count, complete) = s.count_solutions(10);
        assert_eq!(count, 10);
        assert!(!complete);
    }

    #[test]
    fn enumerate_unsat_is_zero_complete() {
        let mut m = Model::new();
        let v = m.new_vars(3, 0, 1);
        m.post(Constraint::AllDifferent { vars: v });
        let mut s = m.into_solver(SolverConfig::default());
        assert_eq!(s.count_solutions(100), (0, true));
    }

    #[test]
    fn enumerate_unique_solution_via_propagation() {
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        m.post(Constraint::linear_eq(vec![x], vec![2], 6));
        let mut s = m.into_solver(SolverConfig::default());
        let mut seen = Vec::new();
        let (count, complete) = s.enumerate(100, |sol| seen.push(sol[0]));
        assert_eq!((count, complete), (1, true));
        assert_eq!(seen, vec![3]);
    }

    #[test]
    fn enumeration_count_matches_brute_force_independence() {
        // 3 vars over [0,2] with x0 ≤ x1 ≤ x2: C(5,3)=10 monotone triples.
        let mut m = Model::new();
        let v = m.new_vars(3, 0, 2);
        m.post(Constraint::LeqVar { a: v[0], b: v[1] });
        m.post(Constraint::LeqVar { a: v[1], b: v[2] });
        let mut s = m.into_solver(SolverConfig::default());
        assert_eq!(s.count_solutions(1000), (10, true));
    }

    #[test]
    fn solve_is_rerunnable() {
        // Calling solve twice returns consistent verdicts (state reset).
        let mut s = simple_model().into_solver(SolverConfig::default());
        let a = s.solve().is_sat();
        // After SAT the store is fully fixed; a second call must still
        // report SAT (all vars fixed → immediate extraction).
        let b = s.solve().is_sat();
        assert!(a && b);
    }

    /// Pairwise-not-equal pigeonhole (p vars, p−1 values): conflict-dense
    /// and invisible to bounds reasoning, so learning actually has to work.
    /// (Pairwise on purpose — the GAC all-different would refute it at the
    /// root and leave nothing to learn from.)
    fn pigeonhole_pairwise(p: i32) -> Model {
        let mut m = Model::new();
        let v = m.new_vars(p as usize, 0, p - 2);
        for i in 0..v.len() {
            for j in (i + 1)..v.len() {
                m.post(Constraint::NotEqual { a: v[i], b: v[j] });
            }
        }
        m
    }

    #[test]
    fn interrupted_construction_never_searches() {
        let flag = Arc::new(AtomicBool::new(true));
        let mut m = pigeonhole_pairwise(5);
        m.set_interrupt(flag.clone());
        let mut s = m.into_solver(SolverConfig::default());
        assert!(matches!(
            s.solve(),
            Outcome::Unknown(LimitReason::Interrupted)
        ));
        // No propagator was built, so the solver must not search even once
        // the flag is lowered: without its constraints the model is SAT.
        flag.store(false, Ordering::Relaxed);
        assert!(matches!(
            s.solve(),
            Outcome::Unknown(LimitReason::Interrupted)
        ));
        assert_eq!(s.count_solutions(10), (0, false));
        assert_eq!(s.stats().decisions, 0);
        // The same model under a flag that is never raised is still UNSAT.
        let mut m = pigeonhole_pairwise(5);
        m.set_interrupt(flag);
        assert!(m.into_solver(SolverConfig::default()).solve().is_unsat());
    }

    #[test]
    fn interrupted_store_build_keeps_no_variables() {
        // A raised flag stops the store before its first variable, even on
        // a model without constraints, whose solver would otherwise report
        // a solution over the missing variables once the flag is lowered.
        let flag = Arc::new(AtomicBool::new(true));
        let mut m = Model::new();
        let _ = m.new_vars(3000, 0, 1);
        m.set_interrupt(flag.clone());
        let mut s = m.into_solver(SolverConfig::default());
        assert_eq!(s.store().num_vars(), 0);
        flag.store(false, Ordering::Relaxed);
        assert!(matches!(
            s.solve(),
            Outcome::Unknown(LimitReason::Interrupted)
        ));
        // Under a lowered flag the same model builds every variable.
        let mut m = Model::new();
        let _ = m.new_vars(3000, 0, 1);
        m.set_interrupt(flag);
        let mut s = m.into_solver(SolverConfig::default());
        assert_eq!(s.store().num_vars(), 3000);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn learning_proves_pigeonhole_unsat_and_actually_learns() {
        let mut s = pigeonhole_pairwise(7).into_solver(SolverConfig::chronological_learning());
        assert!(s.solve().is_unsat());
        let st = s.stats();
        assert!(st.conflicts > 0, "expected conflicts, got {st:?}");
        assert!(
            st.learnt_clauses > 0,
            "expected learned nogoods, got {st:?}"
        );
        assert!(s.learned_nogoods().count() > 0);
    }

    #[test]
    fn learning_beats_chronological_on_pigeonhole_conflicts() {
        // The whole point of the PR: learning must cut the conflict count,
        // not just match the verdict.
        let chrono = SolverConfig {
            var_order: VarOrder::Input,
            val_order: ValOrder::Min,
            restarts: RestartSchedule::Never,
            seed: 42,
            budget: Budget::default(),
            learn: LearnConfig::default(),
        };
        let mut a = pigeonhole_pairwise(8).into_solver(chrono);
        assert!(a.solve().is_unsat());
        let mut b = pigeonhole_pairwise(8).into_solver(SolverConfig::chronological_learning());
        assert!(b.solve().is_unsat());
        assert!(
            b.stats().backtracks < a.stats().backtracks,
            "learning: {} failures, chronological: {}",
            b.stats().backtracks,
            a.stats().backtracks
        );
    }

    #[test]
    fn learned_nogoods_are_never_violated_by_solutions() {
        // SAT instance with real conflicts: pigeonhole-ish but feasible.
        let mut m = Model::new();
        let v = m.new_vars(7, 0, 6);
        for i in 0..v.len() {
            for j in (i + 1)..v.len() {
                m.post(Constraint::NotEqual { a: v[i], b: v[j] });
            }
        }
        m.post(Constraint::linear_eq(v, vec![1; 7], 21));
        let mut s = m.into_solver(SolverConfig::chronological_learning());
        let out = s.solve();
        let sol = out.solution().expect("feasible instance");
        for ng in s.learned_nogoods() {
            assert!(
                !ng.preds.iter().all(|p| p.satisfied_by(sol)),
                "solution satisfies every conjunct of learned nogood {ng:?}"
            );
        }
    }

    #[test]
    fn learning_solver_is_rerunnable_and_budget_recoverable() {
        let mut s = pigeonhole_pairwise(7).into_solver(
            SolverConfig::chronological_learning().with_budget(Budget::time_limit(Duration::ZERO)),
        );
        assert_eq!(s.solve(), Outcome::Unknown(LimitReason::Time));
        s.set_budget(Budget::default());
        assert!(s.solve().is_unsat());
        // And again, from the already-learned state.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn learning_then_enumerate_agrees_with_plain_enumeration() {
        // Learned nogoods are model-implied: enumeration after a learning
        // solve must still see every solution.
        let build = || {
            let mut m = Model::new();
            let v = m.new_vars(4, 0, 3);
            for i in 0..v.len() {
                for j in (i + 1)..v.len() {
                    m.post(Constraint::NotEqual { a: v[i], b: v[j] });
                }
            }
            m
        };
        let mut plain = build().into_solver(SolverConfig::default());
        let expected = plain.count_solutions(10_000);
        let mut s = build().into_solver(SolverConfig::chronological_learning());
        assert!(s.solve().is_sat());
        assert_eq!(s.count_solutions(10_000), expected);
    }

    #[test]
    fn learning_restarts_fire_under_a_tiny_luby_unit() {
        let mut cfg = SolverConfig::chronological_learning();
        cfg.restarts = RestartSchedule::Luby { unit: 1 };
        let mut s = pigeonhole_pairwise(7).into_solver(cfg);
        assert!(s.solve().is_unsat());
        assert!(s.stats().restarts > 0, "stats: {:?}", s.stats());
    }

    #[test]
    fn learning_db_reduction_keeps_the_verdict() {
        let mut cfg = SolverConfig::chronological_learning();
        cfg.learn.db_max = 4;
        let mut s = pigeonhole_pairwise(8).into_solver(cfg);
        assert!(s.solve().is_unsat());
    }
}

#[cfg(test)]
mod recycling_tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use mgrts_obs::recycle::{parked, put, MAX_RECYCLED_BYTES};
    use mgrts_obs::SearchStats;

    use super::*;
    use crate::model::Model;

    /// One model of the sequence.
    #[derive(Debug, Clone, Copy)]
    enum Case {
        /// Every constraint kind over `size` variables per family, under a
        /// decision budget.
        Zoo { size: usize, seed: u64, learn: bool },
        /// A model whose interrupt is raised before construction.
        Interrupted,
        /// A model whose interrupt another thread raises while it is built:
        /// where the build stops varies, the solve it leaves does not.
        CutMidBuild,
        /// A removal wipes a domain out before any propagator runs.
        RootInconsistent,
        /// Pairwise-not-equal pigeonhole: conflict-dense, for learning.
        Pigeonhole { holes: i32, learn: bool },
    }

    /// Larger, smaller, larger again, the interrupted builds, a
    /// root-inconsistent model, learning on then off, each followed by a
    /// solve that must not see what it left behind.
    const SEQUENCE: [Case; 12] = [
        Case::Zoo {
            size: 24,
            seed: 1,
            learn: false,
        },
        Case::Zoo {
            size: 10,
            seed: 2,
            learn: false,
        },
        Case::Zoo {
            size: 32,
            seed: 3,
            learn: false,
        },
        Case::Interrupted,
        Case::Zoo {
            size: 20,
            seed: 4,
            learn: true,
        },
        Case::CutMidBuild,
        Case::Zoo {
            size: 28,
            seed: 5,
            learn: false,
        },
        Case::RootInconsistent,
        Case::Pigeonhole {
            holes: 6,
            learn: true,
        },
        Case::Pigeonhole {
            holes: 6,
            learn: false,
        },
        Case::Zoo {
            size: 16,
            seed: 6,
            learn: true,
        },
        Case::Zoo {
            size: 24,
            seed: 1,
            learn: false,
        },
    ];

    /// A model posting every constraint kind (both all-different
    /// implementations, non-contiguous and duplicated scopes included),
    /// drawn from `seed`; `size` is at least 10.
    fn zoo(size: usize, mut seed: u64) -> Model {
        let mut next = move |bound: usize| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) as usize % bound
        };
        let mut m = Model::new();
        let ints = m.new_vars(size, 0, 9);
        let bools = m.new_vars(size, 0, 1);
        let tight = m.new_vars(5, 0, 5);
        m.remove_value(ints[0], 4);
        let pick = |next: &mut dyn FnMut(usize) -> usize, from: &[VarId], k: usize| {
            (0..k).map(|_| from[next(from.len())]).collect::<Vec<_>>()
        };
        for _ in 0..size / 6 {
            let vars = pick(&mut next, &ints, 3);
            m.post(Constraint::linear_leq(vars, vec![1, -2, 3], 20));
            let vars = pick(&mut next, &ints, 2);
            m.post(Constraint::linear_leq(vars, vec![1, 2], 20));
            m.post(Constraint::AtMostOneTrue {
                vars: pick(&mut next, &bools, 4),
            });
            m.post(Constraint::BoolSumEq {
                vars: pick(&mut next, &bools, 3),
                rhs: 1,
            });
            m.post(Constraint::CountEq {
                vars: pick(&mut next, &ints, 4),
                value: next(10) as Val,
                rhs: 1,
            });
            let (a, b) = (ints[next(size)], ints[next(size)]);
            m.post(Constraint::NotEqualUnless { a, b, except: 0 });
            let (a, b) = (bools[next(size)], ints[next(size)]);
            m.post(Constraint::ReifiedLeq { b: a, x: b, c: 5 });
            m.post(Constraint::Or {
                lits: vec![(bools[next(size)], true), (bools[next(size)], false)],
            });
        }
        m.post(Constraint::AllDifferent {
            vars: tight.clone(),
        });
        m.post(Constraint::AllDifferentExcept {
            vars: ints[..4].to_vec(),
            except: 0,
        });
        m.post(Constraint::LeqVar {
            a: ints[1],
            b: ints[2],
        });
        m.post(Constraint::Element {
            index: tight[0],
            array: vec![3, 1, 4, 1, 5, 9],
            value: ints[3],
        });
        m.post(Constraint::Table {
            vars: vec![tight[1], ints[5], tight[1]],
            rows: vec![vec![0, 2, 0], vec![1, 3, 1], vec![2, 2, 3], vec![4, 7, 4]],
        });
        m.post(Constraint::NotEqual {
            a: ints[6],
            b: ints[7],
        });
        m.post(Constraint::linear_eq(vec![ints[8], ints[9]], vec![1, 1], 9));
        m
    }

    fn pigeonhole(holes: i32) -> Model {
        let mut m = Model::new();
        let v = m.new_vars(holes as usize + 1, 0, holes - 1);
        for i in 0..v.len() {
            for j in (i + 1)..v.len() {
                m.post(Constraint::NotEqual { a: v[i], b: v[j] });
            }
        }
        m
    }

    fn config(learn: bool) -> SolverConfig {
        let cfg = if learn {
            SolverConfig::chronological_learning()
        } else {
            SolverConfig::generic_randomized(9)
        };
        cfg.with_budget(Budget {
            time: None,
            max_decisions: Some(2_000),
        })
    }

    /// The outcome and counters of one solve.
    type Run = (Outcome, SearchStats);

    fn solve(m: Model, learn: bool) -> Run {
        let mut s = m.into_solver(config(learn));
        (s.solve(), s.stats())
    }

    fn run(case: Case) -> Run {
        match case {
            Case::Zoo { size, seed, learn } => solve(zoo(size, seed), learn),
            Case::Interrupted => {
                let mut m = zoo(12, 7);
                m.set_interrupt(Arc::new(AtomicBool::new(true)));
                solve(m, false)
            }
            Case::CutMidBuild => {
                let mut m = zoo(400, 8);
                let flag = Arc::new(AtomicBool::new(false));
                m.set_interrupt(flag.clone());
                let raiser = std::thread::spawn(move || flag.store(true, Ordering::Relaxed));
                let mut s = m.into_solver(config(false));
                raiser.join().unwrap();
                (s.solve(), s.stats())
            }
            Case::RootInconsistent => {
                let mut m = zoo(10, 9);
                let x = m.new_var(2, 2);
                m.remove_value(x, 2);
                solve(m, false)
            }
            Case::Pigeonhole { holes, learn } => solve(pigeonhole(holes), learn),
        }
    }

    /// Each model of [`SEQUENCE`] once on a thread of its own, whose slot
    /// is empty, and once on one thread in sequence, where every build
    /// after the first starts from the buffers the previous solver left:
    /// outcomes, solutions and counters (per propagator kind included)
    /// agree.
    #[test]
    fn recycled_buffers_solve_like_fresh_ones() {
        let fresh: Vec<Run> = SEQUENCE
            .iter()
            .map(|&case| {
                std::thread::spawn(move || {
                    assert!(!parked(&SOLVER_BUFFERS));
                    run(case)
                })
                .join()
                .unwrap()
            })
            .collect();
        let recycled: Vec<Run> = std::thread::spawn(|| {
            let mut runs = Vec::new();
            for (k, &case) in SEQUENCE.iter().enumerate() {
                if k > 0 {
                    assert!(parked(&SOLVER_BUFFERS));
                }
                runs.push(run(case));
            }
            runs
        })
        .join()
        .unwrap();

        for ((case, a), b) in SEQUENCE.iter().zip(&fresh).zip(&recycled) {
            assert_eq!(a, b, "{case:?} solved differently on recycled buffers");
        }
        let outcome = |k: usize| &fresh[k].0;
        assert!(fresh.iter().any(|r| r.0.is_sat()));
        assert!(fresh.iter().any(|r| r.1.kinds.len() == PropKind::COUNT));
        assert_eq!(*outcome(3), Outcome::Unknown(LimitReason::Interrupted));
        assert_eq!(*outcome(5), Outcome::Unknown(LimitReason::Interrupted));
        assert_eq!(*outcome(7), Outcome::Unsat);
        assert_eq!(*outcome(8), Outcome::Unsat);
        assert!(fresh[8].1.learnt_clauses > 0);
        assert_eq!(*outcome(9), Outcome::Unsat);
        assert_eq!(fresh[11], fresh[0]);
    }

    /// A set above the cap is freed, not parked.
    #[test]
    fn sets_above_the_cap_are_not_kept() {
        std::thread::spawn(|| {
            put(&SOLVER_BUFFERS, Buffers::default(), MAX_RECYCLED_BYTES + 1);
            assert!(!parked(&SOLVER_BUFFERS));
            put(&SOLVER_BUFFERS, Buffers::default(), MAX_RECYCLED_BYTES);
            assert!(parked(&SOLVER_BUFFERS));
            // A solver's drop parks its set the same way.
            drop(Model::new().into_solver(SolverConfig::default()));
            assert!(parked(&SOLVER_BUFFERS));
        })
        .join()
        .unwrap();
    }
}
