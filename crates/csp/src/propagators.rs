//! Stateful propagator objects with trailed incremental state.
//!
//! A [`Propagator`] is the runtime form of a posted
//! [`Constraint`]: where the constraint is a passive
//! description, the propagator owns everything needed to run *incrementally*
//! — running sums, occurrence counters and caches kept in the store's
//! trailed state cells ([`Store::new_state_cell`]), plus per-variable event
//! subscriptions so it only wakes on changes it can react to.
//!
//! The contract with the solver:
//!
//! * [`Propagator::watches`] declares `(variable, event-filter)` pairs. The
//!   solver wakes the propagator only when a watched variable changes with
//!   an event intersecting the filter, and hands it the changed variables
//!   (`pending`) at the next run.
//! * [`Propagator::propagate_incremental`] may assume its trailed state is
//!   consistent with the store *except* for the `pending` variables, whose
//!   cached contribution it re-derives by diffing against the store (an
//!   idempotent operation, so duplicate or spurious pending entries are
//!   harmless).
//! * [`Propagator::propagate_full`] rebuilds all state from scratch and
//!   prunes. The solver calls it on the first run and whenever the
//!   propagator's trailed *stale* flag is raised (set when a propagation
//!   fixpoint is aborted mid-flight by a conflict or a budget check, the
//!   one situation where pending events can be lost or span decision
//!   levels).
//!
//! Because all incremental state lives in trailed cells, backtracking
//! rewinds it in lockstep with the domains — no explicit re-synchronization
//! on backtrack is ever needed.

use crate::constraints::{
    div_ceil, div_floor, propagate_all_different, propagate_all_different_except,
    propagate_leq_var, propagate_not_equal, propagate_reified_leq, Constraint,
};
use crate::graph::Scc;
use crate::matching::Matching;
use crate::nogood::{Pred, PredOp};
use crate::store::{EmptyDomain, EventMask, StateId, Store, Val, VarId};

/// Discriminates the propagator implementations for the per-kind
/// wake/prune/entailment telemetry ([`mgrts_obs::SearchStats::kinds`]).
///
/// The two all-different variants are distinct kinds on purpose: which one
/// `build` selected per scope (see `build_all_diff`) is exactly the sort
/// of question the telemetry exists to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropKind {
    /// Linear equality (bounds consistency).
    LinearEq,
    /// Linear inequality (bounds consistency).
    LinearLeq,
    /// At-most-one-true over booleans.
    AtMostOne,
    /// Boolean sum equality.
    BoolSum,
    /// Occurrence count.
    Count,
    /// All-different, fix-filtered (forward checking).
    AllDiffFc,
    /// All-different, Régin GAC (matching + SCC).
    AllDiffGac,
    /// Binary disequality.
    NotEqual,
    /// Binary ≤ between variables.
    LeqVar,
    /// Element (array access).
    Element,
    /// Positive table (residual supports).
    Table,
    /// Clause over literals (residual supports).
    Or,
    /// Reified bound (`b ⇔ x ≤ c`).
    ReifiedLeq,
}

impl PropKind {
    /// Number of distinct kinds.
    pub const COUNT: usize = 13;

    /// Every kind, in [`PropKind::index`] order.
    pub const ALL: [PropKind; Self::COUNT] = [
        PropKind::LinearEq,
        PropKind::LinearLeq,
        PropKind::AtMostOne,
        PropKind::BoolSum,
        PropKind::Count,
        PropKind::AllDiffFc,
        PropKind::AllDiffGac,
        PropKind::NotEqual,
        PropKind::LeqVar,
        PropKind::Element,
        PropKind::Table,
        PropKind::Or,
        PropKind::ReifiedLeq,
    ];

    /// Dense index into per-kind counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in serialized telemetry.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PropKind::LinearEq => "linear_eq",
            PropKind::LinearLeq => "linear_leq",
            PropKind::AtMostOne => "at_most_one",
            PropKind::BoolSum => "bool_sum",
            PropKind::Count => "count",
            PropKind::AllDiffFc => "alldiff_fc",
            PropKind::AllDiffGac => "alldiff_gac",
            PropKind::NotEqual => "not_equal",
            PropKind::LeqVar => "leq_var",
            PropKind::Element => "element",
            PropKind::Table => "table",
            PropKind::Or => "or",
            PropKind::ReifiedLeq => "reified_leq",
        }
    }
}

/// A constraint's runtime form: event subscriptions plus (optionally
/// stateful) pruning. See the module docs for the solver contract.
pub trait Propagator: std::fmt::Debug + Send {
    /// Which implementation this is, for per-kind telemetry.
    fn kind(&self) -> PropKind;

    /// The `(variable, event-filter)` subscriptions. Variables may repeat
    /// (a variable occurring twice in a sum is watched twice); filters must
    /// be wide enough that any event they exclude provably cannot change
    /// this propagator's output or cached state.
    fn watches(&self) -> Vec<(VarId, EventMask)>;

    /// Rebuild all trailed state from the current domains, then prune.
    /// `Err` means the constraint is violated under every completion.
    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain>;

    /// Prune after re-deriving the cached contribution of each variable in
    /// `pending` (watched variables whose domain changed since the last
    /// run). Stateless propagators simply defer to
    /// [`Propagator::propagate_full`].
    fn propagate_incremental(
        &mut self,
        store: &mut Store,
        pending: &[VarId],
    ) -> Result<(), EmptyDomain> {
        let _ = pending;
        self.propagate_full(store)
    }

    /// A trailed cell that is non-zero while the constraint is *entailed*
    /// on the current branch (satisfied by every completion of the current
    /// domains). The solver skips waking an entailed propagator altogether;
    /// backtracking rewinds the flag like any other trailed state. `None`
    /// when the propagator does not track entailment.
    fn entailed_flag(&self) -> Option<StateId> {
        None
    }

    /// Whether the propagator consumes the `pending` changed-variable list.
    /// Propagators that re-derive everything from the domains (the GAC
    /// all-different and the residual-support family) return `false`, and
    /// the solver skips recording pending variables for them on the
    /// event-dispatch hot path.
    fn wants_pending(&self) -> bool {
        true
    }

    /// Explain a pruning this propagator performed (learning mode): append
    /// to `out` predicates that currently hold and whose conjunction forces
    /// `prune` under this constraint. The cited predicates must already
    /// have held when the prune was made — within a branch domains only
    /// shrink, so predicates derived from the *causing* state satisfy this
    /// naturally. Return `false` to let the solver use its generic
    /// scope-snapshot explanation instead (always sound, less precise).
    fn explain(&self, store: &Store, prune: Pred, out: &mut Vec<Pred>) -> bool {
        let _ = (store, prune, out);
        false
    }
}

/// Build the propagator for a posted constraint, allocating its trailed
/// state cells in `store`.
pub(crate) fn build(c: &Constraint, store: &mut Store) -> Box<dyn Propagator> {
    match c {
        Constraint::LinearEq { vars, coeffs, rhs } => Box::new(LinearProp::new(
            vars.clone(),
            coeffs.clone(),
            *rhs,
            true,
            store,
        )),
        Constraint::LinearLeq { vars, coeffs, rhs } => Box::new(LinearProp::new(
            vars.clone(),
            coeffs.clone(),
            *rhs,
            false,
            store,
        )),
        Constraint::AtMostOneTrue { vars } => Box::new(AtMostOneProp::new(vars.clone(), store)),
        Constraint::BoolSumEq { vars, rhs } => {
            Box::new(BoolSumProp::new(vars.clone(), *rhs, store))
        }
        Constraint::CountEq { vars, value, rhs } => {
            Box::new(CountProp::new(vars.clone(), *value, *rhs, store))
        }
        Constraint::AllDifferent { vars } => build_all_diff(vars.clone(), None, store),
        Constraint::AllDifferentExcept { vars, except } => {
            build_all_diff(vars.clone(), Some(*except), store)
        }
        Constraint::NotEqual { a, b } => Box::new(NotEqualProp {
            a: *a,
            b: *b,
            except: None,
        }),
        Constraint::NotEqualUnless { a, b, except } => Box::new(NotEqualProp {
            a: *a,
            b: *b,
            except: Some(*except),
        }),
        Constraint::LeqVar { a, b } => Box::new(LeqVarProp { a: *a, b: *b }),
        Constraint::Element {
            index,
            array,
            value,
        } => Box::new(ElementProp::new(*index, array.clone(), *value, store)),
        Constraint::Table { vars, rows } => Box::new(TableProp::new(vars.clone(), rows, store)),
        Constraint::Or { lits } => Box::new(OrProp::new(lits.clone(), store)),
        Constraint::ReifiedLeq { b, x, c } => Box::new(ReifiedLeqProp {
            b: *b,
            x: *x,
            c: *c,
        }),
    }
}

/// Pick the all-different implementation by root tightness.
///
/// Régin's GAC filter ([`AllDiffGacProp`]) pays when the value capacity
/// barely covers the scope: Hall sets then form early and matching + SCC
/// prunes them long before forward checking would bottom out. On *loose*
/// scopes — few variables over many values, or an unlimited except value
/// (the CSP2 alldiff-except-idle shape) — almost every GAC run reproduces
/// exactly the forward-checking fixpoint, and repairing the matching plus
/// an SCC pass on every domain event is pure overhead over the fix-filtered
/// [`AllDiffProp`]. The capacity of the root value universe is its width,
/// with an in-universe except value contributing one slot per scope
/// variable instead of one; GAC is selected iff `capacity ≤ n + n/4 + 2`
/// over the `n` distinct scope variables. Both implementations are sound
/// and complete — the gate only decides how much pruning is bought per
/// wake, so it needs no revisiting during search.
fn build_all_diff(
    scope: Vec<VarId>,
    except: Option<Val>,
    store: &mut Store,
) -> Box<dyn Propagator> {
    let mut distinct: Vec<VarId> = Vec::with_capacity(scope.len());
    for &v in &scope {
        if !distinct.contains(&v) {
            distinct.push(v);
        }
    }
    let n = distinct.len();
    let (lo, hi) = distinct.iter().fold((Val::MAX, Val::MIN), |(lo, hi), &v| {
        (lo.min(store.min(v)), hi.max(store.max(v)))
    });
    let m = if n == 0 { 0 } else { (hi - lo) as usize + 1 };
    let except_in_universe = except.is_some_and(|e| n > 0 && e >= lo && e <= hi);
    let capacity = m + if except_in_universe { n - 1 } else { 0 };
    if capacity <= n + n / 4 + 2 {
        Box::new(AllDiffGacProp::new(scope, except, store))
    } else {
        Box::new(AllDiffProp {
            vars: scope,
            except,
        })
    }
}

/// Variable → occurrence-positions index for one constraint scope. Compact
/// sorted arrays with binary search — this sits on the per-event hot path,
/// where a hash map's per-lookup cost dominates the small scopes involved.
#[derive(Debug)]
struct PosIndex {
    /// When the scope is one contiguous run `base..base+n` (the common
    /// shape for machine-built models — window and row scopes), position
    /// lookup is a subtraction; the arrays below stay empty.
    contiguous: Option<(VarId, u32)>,
    /// Sorted distinct variable ids.
    vars: Vec<VarId>,
    /// Prefix offsets into `idxs`, one per entry of `vars` plus a final
    /// end marker.
    starts: Vec<u32>,
    /// Occurrence positions grouped by variable.
    idxs: Vec<u32>,
    /// Identity positions for `get` answers on the contiguous fast path
    /// (`get` returns a slice, so the positions must live somewhere).
    units: Vec<u32>,
}

impl PosIndex {
    fn new(scope: &[VarId]) -> Self {
        // Contiguous scopes need no sort, no grouping and no binary
        // search: variable `base + k` sits at position `k`.
        if !scope.is_empty() && scope.windows(2).all(|w| w[1] == w[0] + 1) {
            return PosIndex {
                contiguous: Some((scope[0], scope.len() as u32)),
                vars: Vec::new(),
                starts: Vec::new(),
                idxs: Vec::new(),
                units: (0..scope.len() as u32).collect(),
            };
        }
        // Strictly increasing scopes still skip the sort: every variable
        // occurs exactly once, already in order.
        let mut order: Vec<u32> = (0..scope.len() as u32).collect();
        if !scope.windows(2).all(|w| w[0] < w[1]) {
            order.sort_unstable_by_key(|&k| scope[k as usize]);
        }
        let mut vars = Vec::new();
        let mut starts = Vec::new();
        let mut idxs = Vec::with_capacity(scope.len());
        for &k in &order {
            let v = scope[k as usize];
            if vars.last() != Some(&v) {
                vars.push(v);
                starts.push(idxs.len() as u32);
            }
            idxs.push(k);
        }
        starts.push(idxs.len() as u32);
        PosIndex {
            contiguous: None,
            vars,
            starts,
            idxs,
            units: Vec::new(),
        }
    }

    /// Positions at which `v` occurs (empty if unwatched).
    fn get(&self, v: VarId) -> &[u32] {
        if let Some((base, n)) = self.contiguous {
            let k = v.wrapping_sub(base);
            return if k < n as usize {
                &self.units[k..=k]
            } else {
                &[]
            };
        }
        match self.vars.binary_search(&v) {
            Ok(i) => &self.idxs[self.starts[i] as usize..self.starts[i + 1] as usize],
            Err(_) => &[],
        }
    }
}

// ---------------------------------------------------------------------------
// LinearProp: Σ c_k·x_k (= | ≤) rhs with incremental running bounds
// ---------------------------------------------------------------------------

/// Bounds consistency for linear (in)equalities, keeping `Σ c·min` and
/// `Σ c·max` as trailed running sums updated by per-variable bound deltas
/// instead of re-summing the whole arity on every wake.
#[derive(Debug)]
struct LinearProp {
    vars: Vec<VarId>,
    coeffs: Vec<i64>,
    rhs: i64,
    equality: bool,
    /// Running `Σ` of per-term lower contributions.
    sum_lo: StateId,
    /// Running `Σ` of per-term upper contributions.
    sum_hi: StateId,
    /// Cached per-position term bounds (what `sum_lo`/`sum_hi` were built
    /// from).
    term_lo: Vec<StateId>,
    term_hi: Vec<StateId>,
    positions: PosIndex,
}

impl LinearProp {
    fn new(
        vars: Vec<VarId>,
        coeffs: Vec<i64>,
        rhs: i64,
        equality: bool,
        store: &mut Store,
    ) -> Self {
        let sum_lo = store.new_state_cell(0);
        let sum_hi = store.new_state_cell(0);
        let term_lo = vars.iter().map(|_| store.new_state_cell(0)).collect();
        let term_hi = vars.iter().map(|_| store.new_state_cell(0)).collect();
        let positions = PosIndex::new(&vars);
        LinearProp {
            vars,
            coeffs,
            rhs,
            equality,
            sum_lo,
            sum_hi,
            term_lo,
            term_hi,
            positions,
        }
    }

    /// Contribution bounds of position `k` under the current domains.
    fn term_bounds(&self, store: &Store, k: usize) -> (i64, i64) {
        let v = self.vars[k];
        let c = self.coeffs[k];
        let (lo, hi) = (i64::from(store.min(v)), i64::from(store.max(v)));
        if c >= 0 {
            (c * lo, c * hi)
        } else {
            (c * hi, c * lo)
        }
    }

    /// Fold position `k`'s current bounds into the running sums by delta.
    fn sync_position(&self, store: &mut Store, k: usize) {
        let (lo, hi) = self.term_bounds(store, k);
        let old_lo = store.state(self.term_lo[k]);
        if lo != old_lo {
            let s = store.state(self.sum_lo);
            store.set_state(self.sum_lo, s + lo - old_lo);
            store.set_state(self.term_lo[k], lo);
        }
        let old_hi = store.state(self.term_hi[k]);
        if hi != old_hi {
            let s = store.state(self.sum_hi);
            store.set_state(self.sum_hi, s + hi - old_hi);
            store.set_state(self.term_hi[k], hi);
        }
    }

    fn prune(&self, store: &mut Store) -> Result<(), EmptyDomain> {
        if store.state(self.sum_lo) > self.rhs
            || (self.equality && store.state(self.sum_hi) < self.rhs)
        {
            return Err(EmptyDomain(self.vars.first().copied().unwrap_or(0)));
        }
        // Fixpoint within this constraint: tighten each variable against the
        // residual slack, repeating while something moves. The running sums
        // are updated by delta after every tightening.
        let mut changed = true;
        while changed {
            changed = false;
            for k in 0..self.vars.len() {
                let c = self.coeffs[k];
                if c == 0 {
                    continue;
                }
                let v = self.vars[k];
                let (lo, hi) = (i64::from(store.min(v)), i64::from(store.max(v)));
                let t_lo = store.state(self.term_lo[k]);
                let t_hi = store.state(self.term_hi[k]);
                // Upper side (always active): c·x ≤ rhs - (sum_lo - t_lo)
                let ub_term = self.rhs - (store.state(self.sum_lo) - t_lo);
                // Lower side (equality only): c·x ≥ rhs - (sum_hi - t_hi)
                let lb_term = self.rhs - (store.state(self.sum_hi) - t_hi);
                let (new_lo, new_hi) = if c > 0 {
                    // c·x ≤ U ⇔ x ≤ ⌊U/c⌋; c·x ≥ L ⇔ x ≥ ⌈L/c⌉.
                    let hi_v = div_floor(ub_term, c);
                    let lo_v = if self.equality {
                        div_ceil(lb_term, c)
                    } else {
                        lo
                    };
                    (lo_v, hi_v)
                } else {
                    // c < 0: c·x ≤ U ⇔ x ≥ ⌈U/c⌉; c·x ≥ L ⇔ x ≤ ⌊L/c⌋.
                    let lo_v = div_ceil(ub_term, c);
                    let hi_v = if self.equality {
                        div_floor(lb_term, c)
                    } else {
                        hi
                    };
                    (lo_v, hi_v)
                };
                let mut moved = false;
                if new_lo > lo {
                    let val = Val::try_from(new_lo.min(i64::from(Val::MAX))).unwrap_or(Val::MAX);
                    if store.remove_below(v, val)? {
                        moved = true;
                    }
                }
                if new_hi < hi {
                    let val = Val::try_from(new_hi.max(i64::from(Val::MIN))).unwrap_or(Val::MIN);
                    if store.remove_above(v, val)? {
                        moved = true;
                    }
                }
                if moved {
                    changed = true;
                    // This variable may occur at several positions; refresh
                    // them all so the sums stay exact.
                    for &k2 in self.positions.get(v) {
                        self.sync_position(store, k2 as usize);
                    }
                    if store.state(self.sum_lo) > self.rhs
                        || (self.equality && store.state(self.sum_hi) < self.rhs)
                    {
                        return Err(EmptyDomain(v));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Propagator for LinearProp {
    fn kind(&self) -> PropKind {
        if self.equality {
            PropKind::LinearEq
        } else {
            PropKind::LinearLeq
        }
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        self.vars.iter().map(|&v| (v, EventMask::BOUNDS)).collect()
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        let mut total_lo = 0i64;
        let mut total_hi = 0i64;
        for k in 0..self.vars.len() {
            let (lo, hi) = self.term_bounds(store, k);
            store.set_state(self.term_lo[k], lo);
            store.set_state(self.term_hi[k], hi);
            total_lo += lo;
            total_hi += hi;
        }
        store.set_state(self.sum_lo, total_lo);
        store.set_state(self.sum_hi, total_hi);
        self.prune(store)
    }

    fn propagate_incremental(
        &mut self,
        store: &mut Store,
        pending: &[VarId],
    ) -> Result<(), EmptyDomain> {
        for &v in pending {
            for &k in self.positions.get(v) {
                self.sync_position(store, k as usize);
            }
        }
        self.prune(store)
    }
}

// ---------------------------------------------------------------------------
// BoolSumProp: exactly rhs of the 0/1 variables are 1
// ---------------------------------------------------------------------------

/// Cardinality on 0/1 variables with trailed `#fixed` / `#fixed-to-1`
/// counters: each fixing event is folded in once (a per-position `counted`
/// flag makes the fold idempotent under duplicate events).
#[derive(Debug)]
struct BoolSumProp {
    vars: Vec<VarId>,
    rhs: u32,
    n_fixed: StateId,
    n_true: StateId,
    /// 1 once the constraint is entailed on this branch (saturated and the
    /// value 1 swept from every other domain) — later wakes are O(1).
    swept: StateId,
    counted: Vec<StateId>,
    positions: PosIndex,
}

impl BoolSumProp {
    fn new(vars: Vec<VarId>, rhs: u32, store: &mut Store) -> Self {
        let n_fixed = store.new_state_cell(0);
        let n_true = store.new_state_cell(0);
        let swept = store.new_state_cell(0);
        let counted = vars.iter().map(|_| store.new_state_cell(0)).collect();
        let positions = PosIndex::new(&vars);
        BoolSumProp {
            vars,
            rhs,
            n_fixed,
            n_true,
            swept,
            counted,
            positions,
        }
    }

    fn count_position(&self, store: &mut Store, k: usize) {
        let v = self.vars[k];
        if store.state(self.counted[k]) == 0 && store.is_fixed(v) {
            store.set_state(self.counted[k], 1);
            store.set_state(self.n_fixed, store.state(self.n_fixed) + 1);
            if store.value(v) == 1 {
                store.set_state(self.n_true, store.state(self.n_true) + 1);
            }
        }
    }

    fn prune(&self, store: &mut Store) -> Result<(), EmptyDomain> {
        if store.state(self.swept) != 0 {
            // Entailed: exactly rhs ones and 1 removed everywhere else.
            return Ok(());
        }
        let fixed_true = store.state(self.n_true);
        let unfixed = self.vars.len() as i64 - store.state(self.n_fixed);
        let rhs = i64::from(self.rhs);
        if fixed_true > rhs || fixed_true + unfixed < rhs {
            return Err(EmptyDomain(self.vars.first().copied().unwrap_or(0)));
        }
        if fixed_true == rhs {
            for &v in &self.vars {
                if !store.is_fixed(v) {
                    // Saturated: the rest must avoid 1 (removal, not
                    // assignment of 0 — sound beyond 0/1 domains).
                    store.remove(v, 1)?;
                }
            }
            store.set_state(self.swept, 1);
        } else if fixed_true + unfixed == rhs {
            for &v in &self.vars {
                if !store.is_fixed(v) {
                    store.assign(v, 1)?;
                }
            }
        }
        Ok(())
    }
}

impl Propagator for BoolSumProp {
    fn kind(&self) -> PropKind {
        PropKind::BoolSum
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        self.vars.iter().map(|&v| (v, EventMask::FIX)).collect()
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        let mut n_fixed = 0i64;
        let mut n_true = 0i64;
        for (k, &v) in self.vars.iter().enumerate() {
            if store.is_fixed(v) {
                store.set_state(self.counted[k], 1);
                n_fixed += 1;
                if store.value(v) == 1 {
                    n_true += 1;
                }
            } else {
                store.set_state(self.counted[k], 0);
            }
        }
        store.set_state(self.n_fixed, n_fixed);
        store.set_state(self.n_true, n_true);
        store.set_state(self.swept, 0);
        self.prune(store)
    }

    fn propagate_incremental(
        &mut self,
        store: &mut Store,
        pending: &[VarId],
    ) -> Result<(), EmptyDomain> {
        if store.state(self.swept) != 0 {
            // Entailed: skipped events concern levels at or above the
            // sweep, which backtracking rewinds together with the flag.
            return Ok(());
        }
        for &v in pending {
            for &k in self.positions.get(v) {
                self.count_position(store, k as usize);
            }
        }
        self.prune(store)
    }

    fn entailed_flag(&self) -> Option<StateId> {
        Some(self.swept)
    }
}

// ---------------------------------------------------------------------------
// CountProp: exactly rhs of the variables take `value`
// ---------------------------------------------------------------------------

/// Per-position category for [`CountProp`].
const CAT_POSSIBLE: i64 = 0; // unfixed and still contains the counted value
const CAT_FIXED_TO: i64 = 1; // fixed to the counted value
const CAT_OUT: i64 = 2; // cannot take the counted value (or fixed elsewhere)

/// Occurrence counting with trailed `#fixed-to` / `#possible` counters,
/// updated per changed variable instead of rescanning the whole scope.
#[derive(Debug)]
struct CountProp {
    vars: Vec<VarId>,
    value: Val,
    rhs: u32,
    /// `n_fixed_to · 2³² + n_possible` in one trailed cell: a category
    /// flip adjusts both tallies with a single read-modify-write (and a
    /// single trail entry per level) instead of two.
    counts: StateId,
    /// 1 once the constraint is entailed on this branch (saturated and the
    /// counted value swept from every other domain) — later wakes are O(1).
    swept: StateId,
    /// Per-position trailed category cells. (A 2-bit-packed variant —
    /// 32 positions per cell — was tried here and measured slower on the
    /// CSP2 bench: the read-modify-write on every category flip in the
    /// `sync_position` hot path cost more than the saved cells and shared
    /// trail entries bought back.)
    cat: Vec<StateId>,
    positions: PosIndex,
}

impl CountProp {
    /// Per-category contribution to the packed `counts` word.
    fn contribution(cat: i64) -> i64 {
        match cat {
            CAT_FIXED_TO => 1 << 32,
            CAT_POSSIBLE => 1,
            _ => 0,
        }
    }

    fn new(vars: Vec<VarId>, value: Val, rhs: u32, store: &mut Store) -> Self {
        let counts = store.new_state_cell(0);
        let swept = store.new_state_cell(0);
        // Initial contents are irrelevant: propagators start stale, and the
        // first `propagate_full` rewrites every position.
        let cat = (0..vars.len()).map(|_| store.new_state_cell(0)).collect();
        let positions = PosIndex::new(&vars);
        CountProp {
            vars,
            value,
            rhs,
            counts,
            swept,
            cat,
            positions,
        }
    }

    fn cat_get(&self, store: &Store, k: usize) -> i64 {
        store.state(self.cat[k])
    }

    fn cat_set(&self, store: &mut Store, k: usize, cat: i64) {
        store.set_state(self.cat[k], cat);
    }

    fn category(&self, store: &Store, v: VarId) -> i64 {
        if store.is_fixed(v) {
            if store.value(v) == self.value {
                CAT_FIXED_TO
            } else {
                CAT_OUT
            }
        } else if store.contains(v, self.value) {
            CAT_POSSIBLE
        } else {
            CAT_OUT
        }
    }

    /// Re-derive position `k`'s category; returns whether it changed.
    fn sync_position(&self, store: &mut Store, k: usize) -> bool {
        let new = self.category(store, self.vars[k]);
        let old = self.cat_get(store, k);
        if new == old {
            return false;
        }
        // Distinct categories have distinct contributions, so any flip
        // moves `counts`.
        store.set_state(
            self.counts,
            store.state(self.counts) + Self::contribution(new) - Self::contribution(old),
        );
        self.cat_set(store, k, new);
        true
    }

    fn prune(&self, store: &mut Store) -> Result<(), EmptyDomain> {
        if store.state(self.swept) != 0 {
            // Entailed: exactly rhs occurrences and the value removed from
            // every other domain.
            return Ok(());
        }
        let packed = store.state(self.counts);
        let fixed_to = packed >> 32;
        let possible = packed & 0xffff_ffff;
        let rhs = i64::from(self.rhs);
        if fixed_to > rhs || fixed_to + possible < rhs {
            return Err(EmptyDomain(self.vars.first().copied().unwrap_or(0)));
        }
        if fixed_to == rhs {
            for &v in &self.vars {
                if !store.is_fixed(v) {
                    store.remove(v, self.value)?;
                }
            }
            store.set_state(self.swept, 1);
        } else if fixed_to + possible == rhs {
            for &v in &self.vars {
                if !store.is_fixed(v) && store.contains(v, self.value) {
                    store.assign(v, self.value)?;
                }
            }
        }
        Ok(())
    }
}

impl Propagator for CountProp {
    fn kind(&self) -> PropKind {
        PropKind::Count
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        // Any removal can take the counted value out of a domain, so no
        // event kind can be filtered.
        self.vars.iter().map(|&v| (v, EventMask::ANY)).collect()
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        let mut packed = 0i64;
        for k in 0..self.vars.len() {
            let cat = self.category(store, self.vars[k]);
            self.cat_set(store, k, cat);
            packed += Self::contribution(cat);
        }
        store.set_state(self.counts, packed);
        store.set_state(self.swept, 0);
        self.prune(store)
    }

    fn propagate_incremental(
        &mut self,
        store: &mut Store,
        pending: &[VarId],
    ) -> Result<(), EmptyDomain> {
        if store.state(self.swept) != 0 {
            // Entailed: skipped events concern levels at or above the
            // sweep, which backtracking rewinds together with the flag.
            return Ok(());
        }
        let mut changed = false;
        for &v in pending {
            for &k in self.positions.get(v) {
                changed |= self.sync_position(store, k as usize);
            }
        }
        if !changed {
            // No category flip ⇒ `counts` is exactly what the previous
            // completed run pruned against ⇒ `prune` would repeat a no-op.
            return Ok(());
        }
        self.prune(store)
    }

    fn entailed_flag(&self) -> Option<StateId> {
        Some(self.swept)
    }
}

// ---------------------------------------------------------------------------
// AtMostOneProp: at most one of the 0/1 variables is 1
// ---------------------------------------------------------------------------

/// At-most-one with a trailed "who is true" register: wakes only on fixing
/// events and does the O(arity) zero-out sweep exactly once per branch.
#[derive(Debug)]
struct AtMostOneProp {
    vars: Vec<VarId>,
    /// Occurrence positions (a duplicated variable fixed to 1 violates the
    /// constraint on its own).
    occurrences: PosIndex,
    /// Variable id fixed to 1, or -1 while none is.
    true_var: StateId,
    /// 1 once all other variables have been zeroed for the current
    /// `true_var`.
    cleared: StateId,
}

impl AtMostOneProp {
    fn new(vars: Vec<VarId>, store: &mut Store) -> Self {
        let true_var = store.new_state_cell(-1);
        let cleared = store.new_state_cell(0);
        let occurrences = PosIndex::new(&vars);
        AtMostOneProp {
            vars,
            occurrences,
            true_var,
            cleared,
        }
    }

    fn zero_others(&self, store: &mut Store) -> Result<(), EmptyDomain> {
        let t = store.state(self.true_var);
        if t >= 0 && store.state(self.cleared) == 0 {
            let t = t as VarId;
            for &w in &self.vars {
                if w != t {
                    // Removal of 1, not assignment of 0: sound on domains
                    // wider than 0/1.
                    store.remove(w, 1)?;
                }
            }
            store.set_state(self.cleared, 1);
        }
        Ok(())
    }
}

impl Propagator for AtMostOneProp {
    fn kind(&self) -> PropKind {
        PropKind::AtMostOne
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        self.vars.iter().map(|&v| (v, EventMask::FIX)).collect()
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        store.set_state(self.true_var, -1);
        store.set_state(self.cleared, 0);
        for &v in &self.vars {
            // Position-based: a second fixed-true occurrence is a conflict
            // even when it is the same variable listed twice.
            if store.is_fixed(v) && store.value(v) == 1 {
                if store.state(self.true_var) >= 0 {
                    // `v` is fixed to 1: the remove is a guaranteed wipeout
                    // and records the conflict context for learning.
                    store.remove(v, 1)?;
                    return Err(EmptyDomain(v));
                }
                store.set_state(self.true_var, v as i64);
            }
        }
        self.zero_others(store)
    }

    fn propagate_incremental(
        &mut self,
        store: &mut Store,
        pending: &[VarId],
    ) -> Result<(), EmptyDomain> {
        for &v in pending {
            if store.is_fixed(v) && store.value(v) == 1 {
                if self.occurrences.get(v).len() > 1 {
                    store.remove(v, 1)?;
                    return Err(EmptyDomain(v));
                }
                let t = store.state(self.true_var);
                if t >= 0 && t != v as i64 {
                    store.remove(v, 1)?;
                    return Err(EmptyDomain(v));
                }
                store.set_state(self.true_var, v as i64);
            }
        }
        self.zero_others(store)
    }

    fn entailed_flag(&self) -> Option<StateId> {
        // `cleared` is entailment: some variable is 1 and the value 1 has
        // been removed from every other scope variable.
        Some(self.cleared)
    }

    fn explain(&self, store: &Store, prune: Pred, out: &mut Vec<Pred>) -> bool {
        // `1 ∉ dom(w)` because the registered true variable is fixed to 1.
        if prune.op != PredOp::Ne || prune.val != 1 {
            return false;
        }
        let t = store.state(self.true_var);
        if t >= 0 {
            let t = t as VarId;
            if t != prune.var && store.is_fixed(t) && store.value(t) == 1 {
                out.push(Pred::eq(t, 1));
                return true;
            }
        }
        false
    }
}

// ---------------------------------------------------------------------------
// AllDiffGacProp: Régin's GAC all-different (matching + SCC filtering)
// ---------------------------------------------------------------------------

/// Sentinel for the [`AllDiffGacProp`] / residual-support version guards:
/// "never ran" (a live [`Store::version`] can realistically never reach it).
const NEVER_RAN: u64 = u64::MAX;

/// Forward-checking all-different (optionally sparing one exempt value),
/// the loose-scope arm of [`build_all_diff`]. Stateless, but subscribed to
/// fixing events only — interior removals in other variables can never
/// trigger new forward checks, so the propagator no longer wakes on them.
/// Incremental runs forward-check only the newly fixed variables; chains
/// (a removal fixing a further variable) re-wake it through its own events.
#[derive(Debug)]
struct AllDiffProp {
    vars: Vec<VarId>,
    except: Option<Val>,
}

impl Propagator for AllDiffProp {
    fn kind(&self) -> PropKind {
        PropKind::AllDiffFc
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        self.vars.iter().map(|&v| (v, EventMask::FIX)).collect()
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        match self.except {
            None => propagate_all_different(store, &self.vars),
            Some(e) => propagate_all_different_except(store, &self.vars, e),
        }
    }

    fn propagate_incremental(
        &mut self,
        store: &mut Store,
        pending: &[VarId],
    ) -> Result<(), EmptyDomain> {
        for &v in pending {
            if !store.is_fixed(v) {
                continue;
            }
            let val = store.value(v);
            if self.except == Some(val) {
                continue;
            }
            // Remove `val` everywhere else; skip exactly one occurrence of
            // `v` itself (a duplicated variable is a genuine conflict).
            let mut skipped_self = false;
            for &w in &self.vars {
                if w == v && !skipped_self {
                    skipped_self = true;
                    continue;
                }
                if store.contains(w, val) {
                    // A fixed `w` wipes out inside `remove`, which records
                    // the conflict context learning needs.
                    store.remove(w, val)?;
                }
            }
        }
        Ok(())
    }

    fn explain(&self, store: &Store, prune: Pred, out: &mut Vec<Pred>) -> bool {
        // Forward checking: `x ∉ dom(w)` because some other scope variable
        // is fixed to `x`.
        if prune.op != PredOp::Ne || self.except == Some(prune.val) {
            return false;
        }
        for &v in &self.vars {
            if v != prune.var && store.is_fixed(v) && store.value(v) == prune.val {
                out.push(Pred::eq(v, prune.val));
                return true;
            }
        }
        false
    }
}

/// Domain-consistent all-different (optionally with one unlimited-capacity
/// *except* value), per Régin: maintain a maximum variable→value matching in
/// trailed state cells ([`Matching`]), repair it incrementally on each wake,
/// then run one Tarjan SCC pass over the residual value graph ([`Scc`]) and
/// remove every `(variable, value)` edge that is neither matched nor inside
/// a strongly connected component — exactly the edges in *no* maximum
/// matching, so one pass prunes every arc-inconsistent value at once.
///
/// Free-capacity arcs are routed through a single sink node, which folds
/// Berge's two cases (alternating cycle / even path from a free vertex)
/// into plain SCC membership and makes the except value (capacity `n`
/// instead of one) an ordinary node with residual sink arcs in both
/// directions while it is partially used.
///
/// A duplicated variable in the scope must differ from itself: with no
/// except value the constraint is plainly unsatisfiable, otherwise every
/// duplicate is forced to the except value. The remaining (deduplicated)
/// scope is what the matching runs on.
///
/// Pruning is a pure function of the domains plus the trailed matching, so
/// an O(1) [`Store::version`] guard skips the re-run the solver triggers on
/// the propagator's own removals.
#[derive(Debug)]
struct AllDiffGacProp {
    matching: Matching,
    scc: Scc,
    /// Distinct variables occurring more than once in the original scope.
    dup_vars: Vec<VarId>,
    /// The original except *value* (needed for duplicate handling even when
    /// it lies outside the value universe).
    except_val: Option<Val>,
    /// Store version at the end of the last completed run ([`NEVER_RAN`]
    /// before the first).
    last_seen: u64,
    /// Scratch snapshot of one variable's domain words during pruning.
    words_buf: Vec<u64>,
}

impl AllDiffGacProp {
    fn new(scope: Vec<VarId>, except_val: Option<Val>, store: &mut Store) -> Self {
        let mut vars: Vec<VarId> = Vec::with_capacity(scope.len());
        let mut dup_vars = Vec::new();
        for &v in &scope {
            if vars.contains(&v) {
                if !dup_vars.contains(&v) {
                    dup_vars.push(v);
                }
            } else {
                vars.push(v);
            }
        }
        // Dense value universe from the root domains (supersets of every
        // later domain, so all reachable values index into it).
        let (lo, hi) = vars.iter().fold((Val::MAX, Val::MIN), |(lo, hi), &v| {
            (lo.min(store.min(v)), hi.max(store.max(v)))
        });
        let (lo, num_values) = if vars.is_empty() {
            (0, 0)
        } else {
            (lo, (hi - lo) as usize + 1)
        };
        // An except value outside the universe can never be taken; the
        // constraint degenerates to a plain all-different over the scope.
        let except = except_val
            .filter(|&e| e >= lo && e < lo + num_values as Val)
            .map(|e| (e - lo) as usize);
        AllDiffGacProp {
            matching: Matching::new(store, vars, lo, num_values, except),
            scc: Scc::new(),
            dup_vars,
            except_val,
            last_seen: NEVER_RAN,
            words_buf: Vec::new(),
        }
    }

    /// Node numbering in the residual graph: variables first, then the
    /// dense value universe, then the sink.
    fn val_node(&self, vi: usize) -> u32 {
        (self.matching.vars().len() + vi) as u32
    }

    fn run(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        if self.last_seen == store.version() {
            return Ok(()); // nothing changed since the last completed run
        }
        // A variable listed twice must equal itself *and* differ from
        // itself — impossible unless the shared value is the except value.
        for &d in &self.dup_vars {
            match self.except_val {
                None => return Err(EmptyDomain(d)),
                Some(e) => {
                    store.assign(d, e)?;
                }
            }
        }
        self.matching.repair(store)?;

        let n = self.matching.vars().len();
        let m = self.matching.num_values();
        let sink = (n + m) as u32;
        self.scc.reset(n + m + 1);
        let lo = self.matching.lo();
        for pos in 0..n {
            let var = self.matching.vars()[pos];
            let mi = self
                .matching
                .matched_index(store, pos)
                .expect("repair left a variable unmatched");
            let (base, words) = store.domain_words(var);
            let shift = (base - lo) as usize;
            for (wi, &word) in words.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let vi = shift + wi * 64 + b;
                    if vi == mi {
                        // Matched edge: residual arc value → variable.
                        self.scc.add_arc(self.val_node(vi), pos as u32);
                    } else {
                        self.scc.add_arc(pos as u32, self.val_node(vi));
                    }
                }
            }
        }
        // Sink arcs carry value-capacity residuals: used capacity flows
        // back (sink → value), spare capacity flows forward (value → sink).
        let except = self.matching.except();
        let except_uses = self.matching.except_uses(store);
        for vi in 0..m {
            if Some(vi) == except {
                if except_uses > 0 {
                    self.scc.add_arc(sink, self.val_node(vi));
                }
                if except_uses < n as i64 {
                    self.scc.add_arc(self.val_node(vi), sink);
                }
            } else if self.matching.owner_pos(store, vi).is_some() {
                self.scc.add_arc(sink, self.val_node(vi));
            } else {
                self.scc.add_arc(self.val_node(vi), sink);
            }
        }
        self.scc.run();

        // Prune: an unmatched edge whose endpoints fall in different
        // components is in no maximum matching (Berge via the sink).
        for pos in 0..n {
            let var = self.matching.vars()[pos];
            if store.size(var) == 1 {
                continue; // only the matched edge remains
            }
            let mi = self
                .matching
                .matched_index(store, pos)
                .expect("repair left a variable unmatched");
            let comp_var = self.scc.comp(pos as u32);
            let (base, words) = store.domain_words(var);
            let shift = (base - lo) as usize;
            self.words_buf.clear();
            self.words_buf.extend_from_slice(words);
            for wi in 0..self.words_buf.len() {
                let mut w = self.words_buf[wi];
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let vi = shift + wi * 64 + b;
                    if vi != mi && self.scc.comp(self.val_node(vi)) != comp_var {
                        store.remove(var, lo + vi as Val)?;
                    }
                }
            }
        }
        self.last_seen = store.version();
        Ok(())
    }
}

impl Propagator for AllDiffGacProp {
    fn kind(&self) -> PropKind {
        PropKind::AllDiffGac
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        // Every removal anywhere in the scope can break the matching or
        // split a component, so no event kind can be filtered.
        let mut ws: Vec<(VarId, EventMask)> = self
            .matching
            .vars()
            .iter()
            .map(|&v| (v, EventMask::ANY))
            .collect();
        ws.extend(self.dup_vars.iter().map(|&v| (v, EventMask::ANY)));
        ws
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        self.run(store)
    }

    fn wants_pending(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Thin stateless wrappers (already O(1) or value-based GAC scans)
// ---------------------------------------------------------------------------

/// `a ≠ b`, optionally sparing an exempt value. O(1) per run.
#[derive(Debug)]
struct NotEqualProp {
    a: VarId,
    b: VarId,
    except: Option<Val>,
}

impl Propagator for NotEqualProp {
    fn kind(&self) -> PropKind {
        PropKind::NotEqual
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        vec![(self.a, EventMask::FIX), (self.b, EventMask::FIX)]
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        propagate_not_equal(store, self.a, self.b, self.except)
    }

    fn explain(&self, store: &Store, prune: Pred, out: &mut Vec<Pred>) -> bool {
        // `x ∉ dom(w)` because the other side is fixed to `x`.
        if prune.op != PredOp::Ne || self.except == Some(prune.val) {
            return false;
        }
        let other = if prune.var == self.a {
            self.b
        } else if prune.var == self.b {
            self.a
        } else {
            return false;
        };
        if store.is_fixed(other) && store.value(other) == prune.val {
            out.push(Pred::eq(other, prune.val));
            return true;
        }
        false
    }
}

/// `a ≤ b`. Wakes only when `min(a)` rises or `max(b)` falls. (A trailed
/// entailment flag was tried here and measured slower on the CSP2 bench:
/// with 840 chain constraints the per-level trail writes and extra state
/// cells cost more than the skipped wakes they buy.)
#[derive(Debug)]
struct LeqVarProp {
    a: VarId,
    b: VarId,
}

impl Propagator for LeqVarProp {
    fn kind(&self) -> PropKind {
        PropKind::LeqVar
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        vec![(self.a, EventMask::MIN), (self.b, EventMask::MAX)]
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        propagate_leq_var(store, self.a, self.b)
    }

    fn explain(&self, store: &Store, prune: Pred, out: &mut Vec<Pred>) -> bool {
        // a ≤ b: `b ≥ c` because `a ≥ c`, and `a ≤ c` because `b ≤ c`.
        // Within a branch bounds only tighten, so the current bound still
        // certifies the cited predicate.
        if prune.var == self.b && prune.op == PredOp::Ge && store.min(self.a) >= prune.val {
            out.push(Pred::ge(self.a, prune.val));
            return true;
        }
        if prune.var == self.a && prune.op == PredOp::Le && store.max(self.b) <= prune.val {
            out.push(Pred::le(self.b, prune.val));
            return true;
        }
        false
    }
}

// ---------------------------------------------------------------------------
// ElementProp / TableProp: residual-support (GAC-3 with residues) pruning
// ---------------------------------------------------------------------------

/// `array[index] = value` with residual supports: per value of the `value`
/// variable, a precomputed list of producing indices plus an *unresidued*
/// cursor (`residue`) pointing at the support that worked last time.
/// Revalidating the residue is O(1); only when it died does the scan
/// continue forward (cyclically) through the list. Residues are untrailed
/// on purpose — a stale residue after backtracking costs at most one extra
/// scan and can never affect soundness, because a support is always
/// re-checked against the current domains before being trusted.
#[derive(Debug)]
struct ElementProp {
    index: VarId,
    array: Vec<Val>,
    value: VarId,
    /// Lowest array value of the support universe.
    lo: Val,
    /// Per dense value `w - lo`: indices `i` (valid at the root) with
    /// `array[i] == w`.
    supports: Vec<Vec<Val>>,
    /// Cursor into the corresponding support list (untrailed).
    residue: Vec<u32>,
    /// Store version at the end of the last completed run.
    last_seen: u64,
    /// Scratch snapshot of domain words during pruning.
    words_buf: Vec<u64>,
}

impl ElementProp {
    fn new(index: VarId, array: Vec<Val>, value: VarId, store: &Store) -> Self {
        let (lo, hi) = array
            .iter()
            .fold((Val::MAX, Val::MIN), |(lo, hi), &a| (lo.min(a), hi.max(a)));
        let width = if array.is_empty() {
            0
        } else {
            (hi - lo) as usize + 1
        };
        let mut supports = vec![Vec::new(); width];
        for (i, &a) in array.iter().enumerate() {
            let i_val = i as Val;
            if store.contains(index, i_val) {
                supports[(a - lo) as usize].push(i_val);
            }
        }
        ElementProp {
            index,
            array,
            value,
            lo,
            residue: vec![0; width],
            supports,
            last_seen: NEVER_RAN,
            words_buf: Vec::new(),
        }
    }
}

impl Propagator for ElementProp {
    fn kind(&self) -> PropKind {
        PropKind::Element
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        vec![(self.index, EventMask::ANY), (self.value, EventMask::ANY)]
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        if self.last_seen == store.version() {
            return Ok(());
        }
        // The index pass and the value pass feed each other (a removed
        // value invalidates indices mapping to it and vice versa), so
        // iterate both to a joint fixpoint before recording the guard.
        loop {
            let before = store.version();
            // Index side: drop indices that are out of range or whose array
            // entry left the value domain (direct membership tests, no sets).
            let (base, words) = store.domain_words(self.index);
            self.words_buf.clear();
            self.words_buf.extend_from_slice(words);
            for wi in 0..self.words_buf.len() {
                let mut w = self.words_buf[wi];
                while w != 0 {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    let i = base + (wi * 64) as Val + b as Val;
                    let alive = usize::try_from(i)
                        .ok()
                        .and_then(|i| self.array.get(i))
                        .is_some_and(|&a| store.contains(self.value, a));
                    if !alive {
                        store.remove(self.index, i)?;
                    }
                }
            }
            // Value side: residual supports.
            let (base, words) = store.domain_words(self.value);
            self.words_buf.clear();
            self.words_buf.extend_from_slice(words);
            for wi in 0..self.words_buf.len() {
                let mut w = self.words_buf[wi];
                while w != 0 {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    let val = base + (wi * 64) as Val + b as Val;
                    if val < self.lo || val >= self.lo + self.supports.len() as Val {
                        store.remove(self.value, val)?;
                        continue;
                    }
                    let vi = (val - self.lo) as usize;
                    let list = &self.supports[vi];
                    let start = self.residue[vi] as usize % list.len().max(1);
                    let found = (0..list.len())
                        .map(|k| (start + k) % list.len())
                        .find(|&k| store.contains(self.index, list[k]));
                    match found {
                        Some(k) => self.residue[vi] = k as u32,
                        None => {
                            store.remove(self.value, val)?;
                        }
                    }
                }
            }
            if store.version() == before {
                break;
            }
        }
        self.last_seen = store.version();
        Ok(())
    }

    fn wants_pending(&self) -> bool {
        false
    }
}

/// Positive table constraint with residual supports: per `(column, value)`
/// a precomputed list of rows using that value in that column, plus an
/// untrailed last-supporting-row cursor. A value survives iff some row in
/// its list is *live* (every column's cell still in-domain); the residue is
/// revalidated first and the scan continues forward cyclically only when it
/// died. Reaches the same fixpoint as exhaustive support scanning — one row
/// check is O(arity), and in the common case the residue is still alive so
/// a wake costs O(domain · arity) instead of O(rows · arity).
#[derive(Debug)]
struct TableProp {
    vars: Vec<VarId>,
    /// Live-at-root rows, flattened row-major with stride `vars.len()`.
    cells: Vec<Val>,
    /// Per column: lowest value of its root domain (dense support index 0).
    col_lo: Vec<Val>,
    /// Rows kept at construction (`cells.len() / arity`, tracked separately
    /// because zero-arity tables have no cells but may have rows).
    n_rows: u32,
    /// Per column: support row-id lists, indexed `[col][val - col_lo[col]]`.
    supports: Vec<Vec<Vec<u32>>>,
    /// Untrailed residues, parallel to `supports`.
    residue: Vec<Vec<u32>>,
    /// Store version at the end of the last completed run.
    last_seen: u64,
    /// Scratch snapshot of domain words during pruning.
    words_buf: Vec<u64>,
}

impl TableProp {
    fn new(vars: Vec<VarId>, rows: &[Vec<Val>], store: &Store) -> Self {
        let arity = vars.len();
        let col_lo: Vec<Val> = vars.iter().map(|&v| store.min(v)).collect();
        let widths: Vec<usize> = vars
            .iter()
            .map(|&v| (store.max(v) - store.min(v)) as usize + 1)
            .collect();
        let mut supports: Vec<Vec<Vec<u32>>> =
            widths.iter().map(|&w| vec![Vec::new(); w]).collect();
        let mut cells = Vec::new();
        let mut row_id = 0u32;
        for row in rows {
            // Rows of the wrong width, or using a value no root domain
            // holds, can never be live — drop them up front (exactly the
            // rows the stateless scanner can never select either).
            if row.len() != arity {
                continue;
            }
            if !vars
                .iter()
                .zip(row.iter())
                .all(|(&v, &r)| store.contains(v, r))
            {
                continue;
            }
            for (col, &r) in row.iter().enumerate() {
                supports[col][(r - col_lo[col]) as usize].push(row_id);
            }
            cells.extend_from_slice(row);
            row_id += 1;
        }
        let residue = supports.iter().map(|col| vec![0u32; col.len()]).collect();
        TableProp {
            vars,
            cells,
            col_lo,
            n_rows: row_id,
            supports,
            residue,
            last_seen: NEVER_RAN,
            words_buf: Vec::new(),
        }
    }

    /// Is row `row_id` still supported by every column's current domain?
    fn row_live(&self, store: &Store, row_id: u32) -> bool {
        let arity = self.vars.len();
        let row = &self.cells[row_id as usize * arity..(row_id as usize + 1) * arity];
        self.vars
            .iter()
            .zip(row.iter())
            .all(|(&v, &r)| store.contains(v, r))
    }
}

impl Propagator for TableProp {
    fn kind(&self) -> PropKind {
        PropKind::Table
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        self.vars.iter().map(|&v| (v, EventMask::ANY)).collect()
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        if self.last_seen == store.version() {
            return Ok(());
        }
        let arity = self.vars.len();
        if self.n_rows == 0 {
            // No row survived construction (dead at the root is dead
            // forever): unsatisfiable outright, matching the stateless
            // scanner's empty-live-set verdict.
            return Err(EmptyDomain(self.vars.first().copied().unwrap_or(0)));
        }
        // One column pass is not idempotent (pruning column i can kill the
        // rows supporting column j — most visibly when the same variable
        // appears in two columns), so iterate to an internal fixpoint before
        // recording the version guard.
        loop {
            let before = store.version();
            for col in 0..arity {
                let v = self.vars[col];
                let lo = self.col_lo[col];
                let width = self.supports[col].len() as Val;
                let (base, words) = store.domain_words(v);
                self.words_buf.clear();
                self.words_buf.extend_from_slice(words);
                for wi in 0..self.words_buf.len() {
                    let mut w = self.words_buf[wi];
                    while w != 0 {
                        let b = w.trailing_zeros();
                        w &= w - 1;
                        let val = base + (wi * 64) as Val + b as Val;
                        if val < lo || val >= lo + width {
                            store.remove(v, val)?;
                            continue;
                        }
                        let vi = (val - lo) as usize;
                        let list = &self.supports[col][vi];
                        if list.is_empty() {
                            store.remove(v, val)?;
                            continue;
                        }
                        let start = self.residue[col][vi] as usize % list.len();
                        let found = (0..list.len())
                            .map(|k| (start + k) % list.len())
                            .find(|&k| self.row_live(store, list[k]));
                        match found {
                            Some(k) => self.residue[col][vi] = k as u32,
                            None => {
                                store.remove(v, val)?;
                            }
                        }
                    }
                }
            }
            if store.version() == before {
                break;
            }
        }
        self.last_seen = store.version();
        Ok(())
    }

    fn wants_pending(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// OrProp: boolean clause with two watched literals
// ---------------------------------------------------------------------------

/// Clause over literals `(v, true) ⇔ v = 1` / `(v, false) ⇔ v ≠ 1`, with
/// two watched literals: as long as both watches are non-falsified the wake
/// is O(1) and nothing is scanned. Only when a watch falsifies does the
/// full scan run — finding a satisfied literal (→ trailed entailment, the
/// solver stops waking the propagator), a replacement pair of watches, a
/// unit to force, or a conflict. Watch positions are untrailed: backtracking
/// only ever un-falsifies literals, so a stale watch is still non-falsified
/// or triggers one harmless rescan.
#[derive(Debug)]
struct OrProp {
    lits: Vec<(VarId, bool)>,
    /// Watched positions into `lits` (untrailed hints; equal only when the
    /// clause has a single literal).
    watch: [usize; 2],
    /// Trailed entailment: non-zero once some literal is true.
    entailed: StateId,
}

impl OrProp {
    fn new(lits: Vec<(VarId, bool)>, store: &mut Store) -> Self {
        let entailed = store.new_state_cell(0);
        let watch = [0, 1.min(lits.len().saturating_sub(1))];
        OrProp {
            lits,
            watch,
            entailed,
        }
    }

    fn lit_true(&self, store: &Store, k: usize) -> bool {
        let (v, pol) = self.lits[k];
        if pol {
            store.is_fixed(v) && store.value(v) == 1
        } else {
            !store.contains(v, 1)
        }
    }

    fn lit_false(&self, store: &Store, k: usize) -> bool {
        let (v, pol) = self.lits[k];
        if pol {
            !store.contains(v, 1)
        } else {
            store.is_fixed(v) && store.value(v) == 1
        }
    }

    /// Make a non-falsified literal true (unit propagation).
    fn force(&self, store: &mut Store, k: usize) -> Result<(), EmptyDomain> {
        let (v, pol) = self.lits[k];
        if pol {
            store.assign(v, 1)?;
        } else {
            store.remove(v, 1)?;
        }
        Ok(())
    }
}

impl Propagator for OrProp {
    fn kind(&self) -> PropKind {
        PropKind::Or
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        // Literal truth is membership of value 1, which any removal can
        // change on general domains.
        self.lits
            .iter()
            .map(|&(v, _)| (v, EventMask::ANY))
            .collect()
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        if store.state(self.entailed) != 0 {
            return Ok(());
        }
        if self.lits.is_empty() {
            return Err(EmptyDomain(0));
        }
        let [w0, w1] = self.watch;
        // Fast path: both watches undecided — the clause can still go
        // either way and there is nothing to infer.
        if w0 != w1
            && !self.lit_false(store, w0)
            && !self.lit_false(store, w1)
            && !self.lit_true(store, w0)
            && !self.lit_true(store, w1)
        {
            return Ok(());
        }
        // Slow path: full scan for a satisfied literal / new watches.
        let mut open = [0usize; 2];
        let mut n_open = 0;
        for k in 0..self.lits.len() {
            if self.lit_true(store, k) {
                store.set_state(self.entailed, 1);
                return Ok(());
            }
            if !self.lit_false(store, k) {
                if n_open < 2 {
                    open[n_open] = k;
                }
                n_open += 1;
            }
        }
        match n_open {
            0 => Err(EmptyDomain(self.lits[0].0)),
            1 => {
                // Unit: forcing it satisfies the clause on this branch.
                self.force(store, open[0])?;
                store.set_state(self.entailed, 1);
                Ok(())
            }
            _ => {
                self.watch = open;
                Ok(())
            }
        }
    }

    fn entailed_flag(&self) -> Option<StateId> {
        Some(self.entailed)
    }

    fn wants_pending(&self) -> bool {
        false
    }
}

/// Reified bound `b = 1 ⇔ x ≤ c`.
#[derive(Debug)]
struct ReifiedLeqProp {
    b: VarId,
    x: VarId,
    c: Val,
}

impl Propagator for ReifiedLeqProp {
    fn kind(&self) -> PropKind {
        PropKind::ReifiedLeq
    }

    fn watches(&self) -> Vec<(VarId, EventMask)> {
        vec![(self.b, EventMask::ANY), (self.x, EventMask::BOUNDS)]
    }

    fn propagate_full(&mut self, store: &mut Store) -> Result<(), EmptyDomain> {
        propagate_reified_leq(store, self.b, self.x, self.c)
    }
}
