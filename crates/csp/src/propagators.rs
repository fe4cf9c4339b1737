//! Propagators: the runtime form of posted constraints, with trailed
//! incremental state.
//!
//! A propagator (`Prop`) is the runtime form of a posted
//! [`Constraint`]: where the constraint is a passive description, the
//! propagator holds what is needed to run it *incrementally* — running
//! sums, occurrence counters and caches kept in the store's trailed state
//! cells ([`Store::new_state_cell`]), plus per-variable event
//! subscriptions so it only wakes on changes it can react to.
//!
//! The contract with the solver:
//!
//! * `watches` declares `(variable, event-filter)` pairs. The solver wakes
//!   the propagator only when a watched variable changes with an event
//!   intersecting the filter, and hands it the changed variables
//!   (`pending`) at the next run.
//! * `propagate_incremental` may assume its trailed state is consistent
//!   with the store *except* for the `pending` variables, whose cached
//!   contribution it re-derives by diffing against the store (an
//!   idempotent operation, so duplicate or spurious pending entries are
//!   harmless).
//! * `propagate_full` rebuilds all state from scratch and prunes. The
//!   solver calls it on the first run and whenever the propagator's
//!   trailed *stale* flag is raised (set when a propagation fixpoint is
//!   aborted mid-flight by a conflict or a budget check, the one situation
//!   where pending events can be lost or span decision levels).
//!
//! Because all incremental state lives in trailed cells, backtracking
//! rewinds it in lockstep with the domains — no explicit re-synchronization
//! on backtrack is ever needed.
//!
//! # Flat storage
//!
//! A propagator owns no heap memory. Each is a small `Copy` value of the
//! `Prop` enum (one variant per kind), and the solver keeps them in one
//! vector. Everything else lives in shared storage:
//!
//! * the scope, coefficients, rows and constants are read from the posted
//!   [`Constraint`] itself, which the solver keeps for its solution check —
//!   each scope is stored once;
//! * per-position trailed cells (running terms, categories, matching
//!   cells) are consecutive blocks of [`Store`] cells, named by their first
//!   [`StateId`];
//! * derived tables (position indexes of scopes that are not one
//!   contiguous run, deduplicated all-different scopes, element and table
//!   support lists, residues) are slices of the solver's `Tables`;
//! * run-time scratch (the residual graph of the GAC all-different, its
//!   matching search, domain snapshots) is one set in `Tables`, since
//!   one propagator runs at a time.

use crate::constraints::{
    div_ceil, div_floor, propagate_all_different, propagate_all_different_except,
    propagate_leq_var, propagate_not_equal, propagate_reified_leq, Constraint,
};
use crate::graph::Scc;
use crate::matching::{MatchScratch, Matching};
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

/// Flat storage shared by every propagator of one solver: derived tables,
/// addressed by offsets the propagators keep, and run-time scratch. The
/// solver recycles it across models, so building a model's propagators
/// allocates only when the tables outgrow every earlier model's.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    /// Sorted distinct variables of position indexes, and deduplicated
    /// all-different scopes with their duplicated variables.
    vars: Vec<VarId>,
    /// Position-index groups, support-list boundaries and support rows.
    u32s: Vec<u32>,
    /// Element support indexes, table rows and per-column lows.
    vals: Vec<Val>,
    /// Untrailed residual-support cursors of element and table
    /// propagators (written while propagating).
    residue: Vec<u32>,
    /// `0, 1, 2, …`: the position answers of contiguous position indexes.
    iota: Vec<u32>,
    scratch: Scratch,
}

/// Run-time and build-time scratch shared by the propagators of a solver.
#[derive(Debug, Default)]
struct Scratch {
    /// Residual value graph of the GAC all-different.
    scc: Scc,
    /// Untrailed state of the GAC all-different's matching search.
    matching: MatchScratch,
    /// Snapshot of one variable's domain words during pruning.
    words: Vec<u64>,
    /// Build-time: a scope's positions in variable order, distinct
    /// all-different variables, support-list fill cursors.
    order: Vec<u32>,
    distinct: Vec<VarId>,
    cursor: Vec<u32>,
}

impl Tables {
    /// Empty every table and forget all scratch, keeping capacity.
    pub(crate) fn reset(&mut self) {
        let Tables {
            vars,
            u32s,
            vals,
            residue,
            iota,
            scratch,
        } = self;
        vars.clear();
        u32s.clear();
        vals.clear();
        residue.clear();
        iota.clear();
        let Scratch {
            scc: _,
            matching,
            words,
            order,
            distinct,
            cursor,
        } = scratch;
        // The residual graph is rebuilt from nothing on every run.
        matching.reset();
        words.clear();
        order.clear();
        distinct.clear();
        cursor.clear();
    }

    /// Bytes of capacity held.
    pub(crate) fn bytes(&self) -> usize {
        use mgrts_obs::recycle::bytes;
        let s = &self.scratch;
        bytes(&self.vars)
            + bytes(&self.u32s)
            + bytes(&self.vals)
            + bytes(&self.residue)
            + bytes(&self.iota)
            + s.scc.bytes()
            + s.matching.bytes()
            + bytes(&s.words)
            + bytes(&s.order)
            + bytes(&s.distinct)
            + bytes(&s.cursor)
    }
}

/// A run of one of the [`Tables`] vectors.
#[derive(Debug, Clone, Copy)]
struct Span {
    at: u32,
    len: u32,
}

impl Span {
    /// The run `v[at..]`.
    fn tail<T>(v: &[T], at: usize) -> Span {
        Span {
            at: at as u32,
            len: (v.len() - at) as u32,
        }
    }

    fn of<T>(self, v: &[T]) -> &[T] {
        &v[self.at as usize..(self.at + self.len) as usize]
    }
}

/// Build a propagator for a posted constraint, allocating its trailed
/// state cells in `store` and its derived tables in `tables`.
pub(crate) fn build(c: &Constraint, store: &mut Store, tables: &mut Tables) -> Prop {
    match c {
        Constraint::LinearEq { vars, .. } => {
            Prop::Linear(LinearProp::new(vars, true, store, tables))
        }
        Constraint::LinearLeq { vars, .. } => {
            Prop::Linear(LinearProp::new(vars, false, store, tables))
        }
        Constraint::AtMostOneTrue { vars } => {
            Prop::AtMostOne(AtMostOneProp::new(vars, store, tables))
        }
        Constraint::BoolSumEq { vars, .. } => Prop::BoolSum(BoolSumProp::new(vars, store, tables)),
        Constraint::CountEq { vars, .. } => Prop::Count(CountProp::new(vars, store, tables)),
        Constraint::AllDifferent { vars } => build_all_diff(vars, None, store, tables),
        Constraint::AllDifferentExcept { vars, except } => {
            build_all_diff(vars, Some(*except), store, tables)
        }
        Constraint::NotEqual { .. } | Constraint::NotEqualUnless { .. } => Prop::NotEqual,
        Constraint::LeqVar { .. } => Prop::LeqVar,
        Constraint::Element { index, array, .. } => {
            Prop::Element(ElementProp::new(*index, array, store, tables))
        }
        Constraint::Table { vars, rows } => Prop::Table(TableProp::new(vars, rows, store, tables)),
        Constraint::Or { lits } => Prop::Or(OrProp::new(lits, store)),
        Constraint::ReifiedLeq { .. } => Prop::ReifiedLeq,
    }
}

/// The state cells [`build`] allocates for `c`, for sizing the store up
/// front. Exact except for an all-different, which gets room for the GAC
/// matching of a universe as wide as its scope (the actual universe is
/// only known from the built domains).
pub(crate) fn state_cells(c: &Constraint) -> usize {
    match c {
        Constraint::LinearEq { vars, .. } | Constraint::LinearLeq { vars, .. } => {
            2 + 2 * vars.len()
        }
        Constraint::BoolSumEq { vars, .. } => 3 + vars.len(),
        Constraint::CountEq { vars, .. } => 2 + vars.len(),
        Constraint::AllDifferent { vars } | Constraint::AllDifferentExcept { vars, .. } => {
            1 + 2 * vars.len()
        }
        Constraint::AtMostOneTrue { .. } => 2,
        Constraint::Or { .. } => 1,
        Constraint::NotEqual { .. }
        | Constraint::NotEqualUnless { .. }
        | Constraint::LeqVar { .. }
        | Constraint::Element { .. }
        | Constraint::Table { .. }
        | Constraint::ReifiedLeq { .. } => 0,
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
/// [`Prop::AllDiffFc`]. The capacity of the root value universe is its
/// width, with an in-universe except value contributing one slot per scope
/// variable instead of one; GAC is selected iff `capacity ≤ n + n/4 + 2`
/// over the `n` distinct scope variables. Both implementations are sound
/// and complete — the gate only decides how much pruning is bought per
/// wake, so it needs no revisiting during search.
fn build_all_diff(
    scope: &[VarId],
    except: Option<Val>,
    store: &mut Store,
    tables: &mut Tables,
) -> Prop {
    let distinct = &mut tables.scratch.distinct;
    distinct.clear();
    for &v in scope {
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
        Prop::AllDiffGac(AllDiffGacProp::new(scope, except, store, tables))
    } else {
        Prop::AllDiffFc
    }
}

/// The runtime form of one posted constraint: which implementation runs
/// it, and its handles into the store's cells and the solver's
/// [`Tables`]. Every method takes the constraint it was built from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Prop {
    /// Linear (in)equality.
    Linear(LinearProp),
    /// Boolean sum equality.
    BoolSum(BoolSumProp),
    /// Occurrence count.
    Count(CountProp),
    /// At-most-one-true.
    AtMostOne(AtMostOneProp),
    /// Forward-checking all-different (optionally with an except value):
    /// stateless, subscribed to fixing events only — interior removals in
    /// other variables can never trigger new forward checks. Incremental
    /// runs forward-check only the newly fixed variables; chains (a
    /// removal fixing a further variable) re-wake it through its own
    /// events.
    AllDiffFc,
    /// Régin GAC all-different.
    AllDiffGac(AllDiffGacProp),
    /// `a ≠ b`, optionally sparing an exempt value. O(1) per run.
    NotEqual,
    /// `a ≤ b`. Wakes only when `min(a)` rises or `max(b)` falls. (A
    /// trailed entailment flag was tried here and measured slower on the
    /// CSP2 bench: with 840 chain constraints the per-level trail writes
    /// and extra state cells cost more than the skipped wakes they buy.)
    LeqVar,
    /// Element with residual supports.
    Element(ElementProp),
    /// Positive table with residual supports.
    Table(TableProp),
    /// Clause with two watched literals.
    Or(OrProp),
    /// Reified bound `b = 1 ⇔ x ≤ c`.
    ReifiedLeq,
}

/// A propagator was handed a constraint of another kind than the one it
/// was built from.
fn mismatch(c: &Constraint) -> ! {
    unreachable!("propagator run against a constraint of another kind: {c:?}")
}

/// The variable list of a constraint that has one.
fn scope(c: &Constraint) -> &[VarId] {
    match c {
        Constraint::LinearEq { vars, .. }
        | Constraint::LinearLeq { vars, .. }
        | Constraint::AtMostOneTrue { vars }
        | Constraint::BoolSumEq { vars, .. }
        | Constraint::CountEq { vars, .. }
        | Constraint::AllDifferent { vars }
        | Constraint::AllDifferentExcept { vars, .. }
        | Constraint::Table { vars, .. } => vars,
        _ => mismatch(c),
    }
}

/// Scope and except value of an all-different.
fn all_diff(c: &Constraint) -> (&[VarId], Option<Val>) {
    match c {
        Constraint::AllDifferent { vars } => (vars, None),
        Constraint::AllDifferentExcept { vars, except } => (vars, Some(*except)),
        _ => mismatch(c),
    }
}

/// Sides and except value of a disequality.
fn not_equal(c: &Constraint) -> (VarId, VarId, Option<Val>) {
    match c {
        Constraint::NotEqual { a, b } => (*a, *b, None),
        Constraint::NotEqualUnless { a, b, except } => (*a, *b, Some(*except)),
        _ => mismatch(c),
    }
}

impl Prop {
    /// Which implementation this is, for per-kind telemetry.
    pub(crate) fn kind(&self) -> PropKind {
        match self {
            Prop::Linear(p) if p.equality => PropKind::LinearEq,
            Prop::Linear(_) => PropKind::LinearLeq,
            Prop::BoolSum(_) => PropKind::BoolSum,
            Prop::Count(_) => PropKind::Count,
            Prop::AtMostOne(_) => PropKind::AtMostOne,
            Prop::AllDiffFc => PropKind::AllDiffFc,
            Prop::AllDiffGac(_) => PropKind::AllDiffGac,
            Prop::NotEqual => PropKind::NotEqual,
            Prop::LeqVar => PropKind::LeqVar,
            Prop::Element(_) => PropKind::Element,
            Prop::Table(_) => PropKind::Table,
            Prop::Or(_) => PropKind::Or,
            Prop::ReifiedLeq => PropKind::ReifiedLeq,
        }
    }

    /// Report the `(variable, event-filter)` subscriptions to `f`, in a
    /// fixed order. Variables may repeat (a variable occurring twice in a
    /// sum is watched twice); filters are wide enough that any event they
    /// exclude provably cannot change this propagator's output or cached
    /// state.
    pub(crate) fn watches(&self, c: &Constraint, t: &Tables, mut f: impl FnMut(VarId, EventMask)) {
        fn each(vars: &[VarId], mask: EventMask, f: &mut impl FnMut(VarId, EventMask)) {
            for &v in vars {
                f(v, mask);
            }
        }
        match self {
            Prop::Linear(_) => each(scope(c), EventMask::BOUNDS, &mut f),
            // Any removal can take the counted value out of a domain, so
            // no event kind can be filtered.
            Prop::Count(_) => each(scope(c), EventMask::ANY, &mut f),
            Prop::BoolSum(_) | Prop::AtMostOne(_) | Prop::AllDiffFc => {
                each(scope(c), EventMask::FIX, &mut f);
            }
            // Every removal anywhere in the scope can break the matching
            // or split a component, so no event kind can be filtered.
            Prop::AllDiffGac(p) => {
                each(p.vars.of(&t.vars), EventMask::ANY, &mut f);
                each(p.dups.of(&t.vars), EventMask::ANY, &mut f);
            }
            Prop::NotEqual => {
                let (a, b, _) = not_equal(c);
                f(a, EventMask::FIX);
                f(b, EventMask::FIX);
            }
            Prop::LeqVar => {
                let Constraint::LeqVar { a, b } = c else {
                    mismatch(c)
                };
                f(*a, EventMask::MIN);
                f(*b, EventMask::MAX);
            }
            Prop::Element(_) => {
                let Constraint::Element { index, value, .. } = c else {
                    mismatch(c)
                };
                f(*index, EventMask::ANY);
                f(*value, EventMask::ANY);
            }
            Prop::Table(_) => each(scope(c), EventMask::ANY, &mut f),
            // Literal truth is membership of value 1, which any removal
            // can change on general domains.
            Prop::Or(_) => {
                let Constraint::Or { lits } = c else {
                    mismatch(c)
                };
                for &(v, _) in lits {
                    f(v, EventMask::ANY);
                }
            }
            Prop::ReifiedLeq => {
                let Constraint::ReifiedLeq { b, x, .. } = c else {
                    mismatch(c)
                };
                f(*b, EventMask::ANY);
                f(*x, EventMask::BOUNDS);
            }
        }
    }

    /// Rebuild all trailed state from the current domains, then prune.
    /// `Err` means the constraint is violated under every completion.
    pub(crate) fn propagate_full(
        &mut self,
        c: &Constraint,
        t: &mut Tables,
        store: &mut Store,
    ) -> Result<(), EmptyDomain> {
        match self {
            Prop::Linear(p) => {
                let (Constraint::LinearEq { vars, coeffs, rhs }
                | Constraint::LinearLeq { vars, coeffs, rhs }) = c
                else {
                    mismatch(c)
                };
                p.propagate_full(vars, coeffs, *rhs, t, store)
            }
            Prop::BoolSum(p) => {
                let Constraint::BoolSumEq { vars, rhs } = c else {
                    mismatch(c)
                };
                p.propagate_full(vars, *rhs, store)
            }
            Prop::Count(p) => {
                let Constraint::CountEq { vars, value, rhs } = c else {
                    mismatch(c)
                };
                p.propagate_full(vars, *value, *rhs, store)
            }
            Prop::AtMostOne(p) => p.propagate_full(scope(c), store),
            Prop::AllDiffFc => match all_diff(c) {
                (vars, None) => propagate_all_different(store, vars),
                (vars, Some(e)) => propagate_all_different_except(store, vars, e),
            },
            Prop::AllDiffGac(p) => p.run(t, store),
            Prop::NotEqual => {
                let (a, b, except) = not_equal(c);
                propagate_not_equal(store, a, b, except)
            }
            Prop::LeqVar => {
                let Constraint::LeqVar { a, b } = c else {
                    mismatch(c)
                };
                propagate_leq_var(store, *a, *b)
            }
            Prop::Element(p) => {
                let Constraint::Element {
                    index,
                    array,
                    value,
                } = c
                else {
                    mismatch(c)
                };
                p.propagate(*index, array, *value, t, store)
            }
            Prop::Table(p) => p.propagate(scope(c), t, store),
            Prop::Or(p) => {
                let Constraint::Or { lits } = c else {
                    mismatch(c)
                };
                p.propagate(lits, store)
            }
            Prop::ReifiedLeq => {
                let Constraint::ReifiedLeq { b, x, c: bound } = c else {
                    mismatch(c)
                };
                propagate_reified_leq(store, *b, *x, *bound)
            }
        }
    }

    /// Prune after re-deriving the cached contribution of each variable in
    /// `pending` (watched variables whose domain changed since the last
    /// run). Stateless propagators simply run [`Prop::propagate_full`].
    pub(crate) fn propagate_incremental(
        &mut self,
        c: &Constraint,
        t: &mut Tables,
        store: &mut Store,
        pending: &[VarId],
    ) -> Result<(), EmptyDomain> {
        match self {
            Prop::Linear(p) => {
                let (Constraint::LinearEq { vars, coeffs, rhs }
                | Constraint::LinearLeq { vars, coeffs, rhs }) = c
                else {
                    mismatch(c)
                };
                p.propagate_incremental(vars, coeffs, *rhs, t, store, pending)
            }
            Prop::BoolSum(p) => {
                let Constraint::BoolSumEq { vars, rhs } = c else {
                    mismatch(c)
                };
                p.propagate_incremental(vars, *rhs, t, store, pending)
            }
            Prop::Count(p) => {
                let Constraint::CountEq { vars, value, rhs } = c else {
                    mismatch(c)
                };
                p.propagate_incremental(vars, *value, *rhs, t, store, pending)
            }
            Prop::AtMostOne(p) => p.propagate_incremental(scope(c), t, store, pending),
            Prop::AllDiffFc => {
                let (vars, except) = all_diff(c);
                all_diff_fc_incremental(vars, except, store, pending)
            }
            _ => self.propagate_full(c, t, store),
        }
    }

    /// A trailed cell that is non-zero while the constraint is *entailed*
    /// on the current branch (satisfied by every completion of the current
    /// domains). The solver skips waking an entailed propagator altogether;
    /// backtracking rewinds the flag like any other trailed state. `None`
    /// when the propagator does not track entailment.
    pub(crate) fn entailed_flag(&self) -> Option<StateId> {
        match self {
            Prop::BoolSum(p) => Some(p.swept),
            Prop::Count(p) => Some(p.swept),
            // `cleared` is entailment: some variable is 1 and the value 1
            // has been removed from every other scope variable.
            Prop::AtMostOne(p) => Some(p.cleared),
            Prop::Or(p) => Some(p.entailed),
            _ => None,
        }
    }

    /// Whether the propagator consumes the `pending` changed-variable list.
    /// Propagators that re-derive everything from the domains (the GAC
    /// all-different, the residual-support family and the stateless
    /// binary ones) return `false`, and the solver skips recording
    /// pending variables for them on the event-dispatch hot path.
    pub(crate) fn wants_pending(&self) -> bool {
        matches!(
            self,
            Prop::Linear(_)
                | Prop::BoolSum(_)
                | Prop::Count(_)
                | Prop::AtMostOne(_)
                | Prop::AllDiffFc
        )
    }

    /// Explain a pruning this propagator performed (learning mode): append
    /// to `out` predicates that currently hold and whose conjunction forces
    /// `prune` under this constraint. The cited predicates must already
    /// have held when the prune was made — within a branch domains only
    /// shrink, so predicates derived from the *causing* state satisfy this
    /// naturally. Return `false` to let the solver use its generic
    /// scope-snapshot explanation instead (always sound, less precise).
    pub(crate) fn explain(
        &self,
        c: &Constraint,
        store: &Store,
        prune: Pred,
        out: &mut Vec<Pred>,
    ) -> bool {
        match self {
            Prop::AtMostOne(p) => p.explain(store, prune, out),
            Prop::AllDiffFc => {
                // Forward checking: `x ∉ dom(w)` because some other scope
                // variable is fixed to `x`.
                let (vars, except) = all_diff(c);
                if prune.op != PredOp::Ne || except == Some(prune.val) {
                    return false;
                }
                for &v in vars {
                    if v != prune.var && store.is_fixed(v) && store.value(v) == prune.val {
                        out.push(Pred::eq(v, prune.val));
                        return true;
                    }
                }
                false
            }
            Prop::NotEqual => {
                // `x ∉ dom(w)` because the other side is fixed to `x`.
                let (a, b, except) = not_equal(c);
                if prune.op != PredOp::Ne || except == Some(prune.val) {
                    return false;
                }
                let other = if prune.var == a {
                    b
                } else if prune.var == b {
                    a
                } else {
                    return false;
                };
                if store.is_fixed(other) && store.value(other) == prune.val {
                    out.push(Pred::eq(other, prune.val));
                    return true;
                }
                false
            }
            Prop::LeqVar => {
                // a ≤ b: `b ≥ c` because `a ≥ c`, and `a ≤ c` because
                // `b ≤ c`. Within a branch bounds only tighten, so the
                // current bound still certifies the cited predicate.
                let Constraint::LeqVar { a, b } = c else {
                    mismatch(c)
                };
                let (a, b) = (*a, *b);
                if prune.var == b && prune.op == PredOp::Ge && store.min(a) >= prune.val {
                    out.push(Pred::ge(a, prune.val));
                    return true;
                }
                if prune.var == a && prune.op == PredOp::Le && store.max(b) <= prune.val {
                    out.push(Pred::le(b, prune.val));
                    return true;
                }
                false
            }
            _ => false,
        }
    }
}

/// Variable → occurrence-positions index for one constraint scope. Compact
/// sorted arrays with binary search — this sits on the per-event hot path,
/// where a hash map's per-lookup cost dominates the small scopes involved.
#[derive(Debug, Clone, Copy)]
enum PosIndex {
    /// The scope is one contiguous run `base..base+n` (the common shape
    /// for machine-built models — window and row scopes): position lookup
    /// is a subtraction, answered from [`Tables::iota`].
    Contiguous { base: VarId, n: u32 },
    /// Sorted distinct variables in [`Tables::vars`]; in
    /// [`Tables::u32s`], the occurrence positions grouped by variable
    /// (`idxs`) followed by one group start per variable plus a final end
    /// marker (`starts`, offsets into `idxs`).
    Sorted { vars: Span, idxs: u32, starts: u32 },
}

impl PosIndex {
    fn new(scope: &[VarId], t: &mut Tables) -> Self {
        // Contiguous scopes need no sort, no grouping and no binary
        // search: variable `base + k` sits at position `k`.
        if !scope.is_empty() && scope.windows(2).all(|w| w[1] == w[0] + 1) {
            let n = scope.len() as u32;
            while (t.iota.len() as u32) < n {
                t.iota.push(t.iota.len() as u32);
            }
            return PosIndex::Contiguous { base: scope[0], n };
        }
        // Strictly increasing scopes still skip the sort: every variable
        // occurs exactly once, already in order.
        let order = &mut t.scratch.order;
        order.clear();
        order.extend(0..scope.len() as u32);
        if !scope.windows(2).all(|w| w[0] < w[1]) {
            order.sort_unstable_by_key(|&k| scope[k as usize]);
        }
        let idxs = t.u32s.len() as u32;
        t.u32s.extend_from_slice(order);
        let starts = t.u32s.len() as u32;
        let at = t.vars.len();
        for (i, &k) in order.iter().enumerate() {
            let v = scope[k as usize];
            if t.vars.len() == at || t.vars.last() != Some(&v) {
                t.vars.push(v);
                t.u32s.push(i as u32);
            }
        }
        t.u32s.push(order.len() as u32);
        PosIndex::Sorted {
            vars: Span::tail(&t.vars, at),
            idxs,
            starts,
        }
    }

    /// Positions at which `v` occurs (empty if unwatched).
    fn get<'a>(&self, t: &'a Tables, v: VarId) -> &'a [u32] {
        match *self {
            PosIndex::Contiguous { base, n } => {
                let k = v.wrapping_sub(base);
                if k < n as usize {
                    &t.iota[k..=k]
                } else {
                    &[]
                }
            }
            PosIndex::Sorted { vars, idxs, starts } => match vars.of(&t.vars).binary_search(&v) {
                Ok(i) => {
                    let group = |j: usize| (idxs + t.u32s[starts as usize + j]) as usize;
                    &t.u32s[group(i)..group(i + 1)]
                }
                Err(_) => &[],
            },
        }
    }
}

// ---------------------------------------------------------------------------
// LinearProp: Σ c_k·x_k (= | ≤) rhs with incremental running bounds
// ---------------------------------------------------------------------------

/// Bounds consistency for linear (in)equalities, keeping `Σ c·min` and
/// `Σ c·max` as trailed running sums updated by per-variable bound deltas
/// instead of re-summing the whole arity on every wake.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinearProp {
    equality: bool,
    /// Running `Σ` of per-term lower contributions.
    sum_lo: StateId,
    /// Running `Σ` of per-term upper contributions.
    sum_hi: StateId,
    /// First of the cached per-position term bounds (what
    /// `sum_lo`/`sum_hi` were built from).
    term_lo: StateId,
    term_hi: StateId,
    positions: PosIndex,
}

impl LinearProp {
    fn new(vars: &[VarId], equality: bool, store: &mut Store, t: &mut Tables) -> Self {
        let n = vars.len();
        let sum_lo = store.new_state_cells(2 + 2 * n, 0);
        LinearProp {
            equality,
            sum_lo,
            sum_hi: sum_lo.offset(1),
            term_lo: sum_lo.offset(2),
            term_hi: sum_lo.offset(2 + n),
            positions: PosIndex::new(vars, t),
        }
    }

    /// Contribution bounds of position `k` under the current domains.
    fn term_bounds(vars: &[VarId], coeffs: &[i64], store: &Store, k: usize) -> (i64, i64) {
        let v = vars[k];
        let c = coeffs[k];
        let (lo, hi) = (i64::from(store.min(v)), i64::from(store.max(v)));
        if c >= 0 {
            (c * lo, c * hi)
        } else {
            (c * hi, c * lo)
        }
    }

    /// Fold position `k`'s current bounds into the running sums by delta.
    fn sync_position(&self, vars: &[VarId], coeffs: &[i64], store: &mut Store, k: usize) {
        let (lo, hi) = Self::term_bounds(vars, coeffs, store, k);
        let term_lo = self.term_lo.offset(k);
        let old_lo = store.state(term_lo);
        if lo != old_lo {
            let s = store.state(self.sum_lo);
            store.set_state(self.sum_lo, s + lo - old_lo);
            store.set_state(term_lo, lo);
        }
        let term_hi = self.term_hi.offset(k);
        let old_hi = store.state(term_hi);
        if hi != old_hi {
            let s = store.state(self.sum_hi);
            store.set_state(self.sum_hi, s + hi - old_hi);
            store.set_state(term_hi, hi);
        }
    }

    fn prune(
        &self,
        vars: &[VarId],
        coeffs: &[i64],
        rhs: i64,
        t: &Tables,
        store: &mut Store,
    ) -> Result<(), EmptyDomain> {
        if store.state(self.sum_lo) > rhs || (self.equality && store.state(self.sum_hi) < rhs) {
            return Err(EmptyDomain(vars.first().copied().unwrap_or(0)));
        }
        // Fixpoint within this constraint: tighten each variable against the
        // residual slack, repeating while something moves. The running sums
        // are updated by delta after every tightening.
        let mut changed = true;
        while changed {
            changed = false;
            for k in 0..vars.len() {
                let c = coeffs[k];
                if c == 0 {
                    continue;
                }
                let v = vars[k];
                let (lo, hi) = (i64::from(store.min(v)), i64::from(store.max(v)));
                let t_lo = store.state(self.term_lo.offset(k));
                let t_hi = store.state(self.term_hi.offset(k));
                // Upper side (always active): c·x ≤ rhs - (sum_lo - t_lo)
                let ub_term = rhs - (store.state(self.sum_lo) - t_lo);
                // Lower side (equality only): c·x ≥ rhs - (sum_hi - t_hi)
                let lb_term = rhs - (store.state(self.sum_hi) - t_hi);
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
                    for &k2 in self.positions.get(t, v) {
                        self.sync_position(vars, coeffs, store, k2 as usize);
                    }
                    if store.state(self.sum_lo) > rhs
                        || (self.equality && store.state(self.sum_hi) < rhs)
                    {
                        return Err(EmptyDomain(v));
                    }
                }
            }
        }
        Ok(())
    }

    fn propagate_full(
        &self,
        vars: &[VarId],
        coeffs: &[i64],
        rhs: i64,
        t: &Tables,
        store: &mut Store,
    ) -> Result<(), EmptyDomain> {
        let mut total_lo = 0i64;
        let mut total_hi = 0i64;
        for k in 0..vars.len() {
            let (lo, hi) = Self::term_bounds(vars, coeffs, store, k);
            store.set_state(self.term_lo.offset(k), lo);
            store.set_state(self.term_hi.offset(k), hi);
            total_lo += lo;
            total_hi += hi;
        }
        store.set_state(self.sum_lo, total_lo);
        store.set_state(self.sum_hi, total_hi);
        self.prune(vars, coeffs, rhs, t, store)
    }

    fn propagate_incremental(
        &self,
        vars: &[VarId],
        coeffs: &[i64],
        rhs: i64,
        t: &Tables,
        store: &mut Store,
        pending: &[VarId],
    ) -> Result<(), EmptyDomain> {
        for &v in pending {
            for &k in self.positions.get(t, v) {
                self.sync_position(vars, coeffs, store, k as usize);
            }
        }
        self.prune(vars, coeffs, rhs, t, store)
    }
}

// ---------------------------------------------------------------------------
// BoolSumProp: exactly rhs of the 0/1 variables are 1
// ---------------------------------------------------------------------------

/// Cardinality on 0/1 variables with trailed `#fixed` / `#fixed-to-1`
/// counters: each fixing event is folded in once (a per-position `counted`
/// flag makes the fold idempotent under duplicate events).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoolSumProp {
    n_fixed: StateId,
    n_true: StateId,
    /// 1 once the constraint is entailed on this branch (saturated and the
    /// value 1 swept from every other domain) — later wakes are O(1).
    swept: StateId,
    /// First of the per-position `counted` flags.
    counted: StateId,
    positions: PosIndex,
}

impl BoolSumProp {
    fn new(vars: &[VarId], store: &mut Store, t: &mut Tables) -> Self {
        let n_fixed = store.new_state_cells(3 + vars.len(), 0);
        BoolSumProp {
            n_fixed,
            n_true: n_fixed.offset(1),
            swept: n_fixed.offset(2),
            counted: n_fixed.offset(3),
            positions: PosIndex::new(vars, t),
        }
    }

    fn count_position(&self, vars: &[VarId], store: &mut Store, k: usize) {
        let v = vars[k];
        let counted = self.counted.offset(k);
        if store.state(counted) == 0 && store.is_fixed(v) {
            store.set_state(counted, 1);
            store.set_state(self.n_fixed, store.state(self.n_fixed) + 1);
            if store.value(v) == 1 {
                store.set_state(self.n_true, store.state(self.n_true) + 1);
            }
        }
    }

    fn prune(&self, vars: &[VarId], rhs: u32, store: &mut Store) -> Result<(), EmptyDomain> {
        if store.state(self.swept) != 0 {
            // Entailed: exactly rhs ones and 1 removed everywhere else.
            return Ok(());
        }
        let fixed_true = store.state(self.n_true);
        let unfixed = vars.len() as i64 - store.state(self.n_fixed);
        let rhs = i64::from(rhs);
        if fixed_true > rhs || fixed_true + unfixed < rhs {
            return Err(EmptyDomain(vars.first().copied().unwrap_or(0)));
        }
        if fixed_true == rhs {
            for &v in vars {
                if !store.is_fixed(v) {
                    // Saturated: the rest must avoid 1 (removal, not
                    // assignment of 0 — sound beyond 0/1 domains).
                    store.remove(v, 1)?;
                }
            }
            store.set_state(self.swept, 1);
        } else if fixed_true + unfixed == rhs {
            for &v in vars {
                if !store.is_fixed(v) {
                    store.assign(v, 1)?;
                }
            }
        }
        Ok(())
    }

    fn propagate_full(
        &self,
        vars: &[VarId],
        rhs: u32,
        store: &mut Store,
    ) -> Result<(), EmptyDomain> {
        let mut n_fixed = 0i64;
        let mut n_true = 0i64;
        for (k, &v) in vars.iter().enumerate() {
            if store.is_fixed(v) {
                store.set_state(self.counted.offset(k), 1);
                n_fixed += 1;
                if store.value(v) == 1 {
                    n_true += 1;
                }
            } else {
                store.set_state(self.counted.offset(k), 0);
            }
        }
        store.set_state(self.n_fixed, n_fixed);
        store.set_state(self.n_true, n_true);
        store.set_state(self.swept, 0);
        self.prune(vars, rhs, store)
    }

    fn propagate_incremental(
        &self,
        vars: &[VarId],
        rhs: u32,
        t: &Tables,
        store: &mut Store,
        pending: &[VarId],
    ) -> Result<(), EmptyDomain> {
        if store.state(self.swept) != 0 {
            // Entailed: skipped events concern levels at or above the
            // sweep, which backtracking rewinds together with the flag.
            return Ok(());
        }
        for &v in pending {
            for &k in self.positions.get(t, v) {
                self.count_position(vars, store, k as usize);
            }
        }
        self.prune(vars, rhs, store)
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
#[derive(Debug, Clone, Copy)]
pub(crate) struct CountProp {
    /// `n_fixed_to · 2³² + n_possible` in one trailed cell: a category
    /// flip adjusts both tallies with a single read-modify-write (and a
    /// single trail entry per level) instead of two.
    counts: StateId,
    /// 1 once the constraint is entailed on this branch (saturated and the
    /// counted value swept from every other domain) — later wakes are O(1).
    swept: StateId,
    /// First of the per-position trailed category cells. (A 2-bit-packed
    /// variant — 32 positions per cell — was tried here and measured
    /// slower on the CSP2 bench: the read-modify-write on every category
    /// flip in the `sync_position` hot path cost more than the saved cells
    /// and shared trail entries bought back.)
    cat: StateId,
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

    fn new(vars: &[VarId], store: &mut Store, t: &mut Tables) -> Self {
        // Initial contents are irrelevant: propagators start stale, and the
        // first `propagate_full` rewrites every position.
        let counts = store.new_state_cells(2 + vars.len(), 0);
        CountProp {
            counts,
            swept: counts.offset(1),
            cat: counts.offset(2),
            positions: PosIndex::new(vars, t),
        }
    }

    fn category(value: Val, store: &Store, v: VarId) -> i64 {
        if store.is_fixed(v) {
            if store.value(v) == value {
                CAT_FIXED_TO
            } else {
                CAT_OUT
            }
        } else if store.contains(v, value) {
            CAT_POSSIBLE
        } else {
            CAT_OUT
        }
    }

    /// Re-derive position `k`'s category; returns whether it changed.
    fn sync_position(&self, vars: &[VarId], value: Val, store: &mut Store, k: usize) -> bool {
        let new = Self::category(value, store, vars[k]);
        let cell = self.cat.offset(k);
        let old = store.state(cell);
        if new == old {
            return false;
        }
        // Distinct categories have distinct contributions, so any flip
        // moves `counts`.
        store.set_state(
            self.counts,
            store.state(self.counts) + Self::contribution(new) - Self::contribution(old),
        );
        store.set_state(cell, new);
        true
    }

    fn prune(
        &self,
        vars: &[VarId],
        value: Val,
        rhs: u32,
        store: &mut Store,
    ) -> Result<(), EmptyDomain> {
        if store.state(self.swept) != 0 {
            // Entailed: exactly rhs occurrences and the value removed from
            // every other domain.
            return Ok(());
        }
        let packed = store.state(self.counts);
        let fixed_to = packed >> 32;
        let possible = packed & 0xffff_ffff;
        let rhs = i64::from(rhs);
        if fixed_to > rhs || fixed_to + possible < rhs {
            return Err(EmptyDomain(vars.first().copied().unwrap_or(0)));
        }
        if fixed_to == rhs {
            for &v in vars {
                if !store.is_fixed(v) {
                    store.remove(v, value)?;
                }
            }
            store.set_state(self.swept, 1);
        } else if fixed_to + possible == rhs {
            for &v in vars {
                if !store.is_fixed(v) && store.contains(v, value) {
                    store.assign(v, value)?;
                }
            }
        }
        Ok(())
    }

    fn propagate_full(
        &self,
        vars: &[VarId],
        value: Val,
        rhs: u32,
        store: &mut Store,
    ) -> Result<(), EmptyDomain> {
        let mut packed = 0i64;
        for (k, &v) in vars.iter().enumerate() {
            let cat = Self::category(value, store, v);
            store.set_state(self.cat.offset(k), cat);
            packed += Self::contribution(cat);
        }
        store.set_state(self.counts, packed);
        store.set_state(self.swept, 0);
        self.prune(vars, value, rhs, store)
    }

    fn propagate_incremental(
        &self,
        vars: &[VarId],
        value: Val,
        rhs: u32,
        t: &Tables,
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
            for &k in self.positions.get(t, v) {
                changed |= self.sync_position(vars, value, store, k as usize);
            }
        }
        if !changed {
            // No category flip ⇒ `counts` is exactly what the previous
            // completed run pruned against ⇒ `prune` would repeat a no-op.
            return Ok(());
        }
        self.prune(vars, value, rhs, store)
    }
}

// ---------------------------------------------------------------------------
// AtMostOneProp: at most one of the 0/1 variables is 1
// ---------------------------------------------------------------------------

/// At-most-one with a trailed "who is true" register: wakes only on fixing
/// events and does the O(arity) zero-out sweep exactly once per branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AtMostOneProp {
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
    fn new(vars: &[VarId], store: &mut Store, t: &mut Tables) -> Self {
        let true_var = store.new_state_cell(-1);
        let cleared = store.new_state_cell(0);
        AtMostOneProp {
            occurrences: PosIndex::new(vars, t),
            true_var,
            cleared,
        }
    }

    fn zero_others(&self, vars: &[VarId], store: &mut Store) -> Result<(), EmptyDomain> {
        let t = store.state(self.true_var);
        if t >= 0 && store.state(self.cleared) == 0 {
            let t = t as VarId;
            for &w in vars {
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

    fn propagate_full(&self, vars: &[VarId], store: &mut Store) -> Result<(), EmptyDomain> {
        store.set_state(self.true_var, -1);
        store.set_state(self.cleared, 0);
        for &v in vars {
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
        self.zero_others(vars, store)
    }

    fn propagate_incremental(
        &self,
        vars: &[VarId],
        t: &Tables,
        store: &mut Store,
        pending: &[VarId],
    ) -> Result<(), EmptyDomain> {
        for &v in pending {
            if store.is_fixed(v) && store.value(v) == 1 {
                if self.occurrences.get(t, v).len() > 1 {
                    store.remove(v, 1)?;
                    return Err(EmptyDomain(v));
                }
                let tv = store.state(self.true_var);
                if tv >= 0 && tv != v as i64 {
                    store.remove(v, 1)?;
                    return Err(EmptyDomain(v));
                }
                store.set_state(self.true_var, v as i64);
            }
        }
        self.zero_others(vars, store)
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
// Forward-checking all-different
// ---------------------------------------------------------------------------

/// An incremental run of [`Prop::AllDiffFc`]: forward-check the newly
/// fixed variables of `pending`.
fn all_diff_fc_incremental(
    vars: &[VarId],
    except: Option<Val>,
    store: &mut Store,
    pending: &[VarId],
) -> Result<(), EmptyDomain> {
    for &v in pending {
        if !store.is_fixed(v) {
            continue;
        }
        let val = store.value(v);
        if except == Some(val) {
            continue;
        }
        // Remove `val` everywhere else; skip exactly one occurrence of
        // `v` itself (a duplicated variable is a genuine conflict).
        let mut skipped_self = false;
        for &w in vars {
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

// ---------------------------------------------------------------------------
// AllDiffGacProp: Régin's GAC all-different (matching + SCC filtering)
// ---------------------------------------------------------------------------

/// Sentinel for the [`AllDiffGacProp`] / residual-support version guards:
/// "never ran" (a live [`Store::version`] can realistically never reach it).
const NEVER_RAN: u64 = u64::MAX;

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
#[derive(Debug, Clone, Copy)]
pub(crate) struct AllDiffGacProp {
    matching: Matching,
    /// The deduplicated scope, in [`Tables::vars`].
    vars: Span,
    /// Distinct variables occurring more than once in the original scope,
    /// in [`Tables::vars`].
    dups: Span,
    /// The original except *value* (needed for duplicate handling even when
    /// it lies outside the value universe).
    except_val: Option<Val>,
    /// Store version at the end of the last completed run ([`NEVER_RAN`]
    /// before the first).
    last_seen: u64,
}

impl AllDiffGacProp {
    fn new(scope: &[VarId], except_val: Option<Val>, store: &mut Store, t: &mut Tables) -> Self {
        let at = t.vars.len();
        for &v in scope {
            if !t.vars[at..].contains(&v) {
                t.vars.push(v);
            }
        }
        let vars = Span::tail(&t.vars, at);
        let at = t.vars.len();
        for (i, &v) in scope.iter().enumerate() {
            if scope[..i].contains(&v) && !t.vars[at..].contains(&v) {
                t.vars.push(v);
            }
        }
        let dups = Span::tail(&t.vars, at);
        // Dense value universe from the root domains (supersets of every
        // later domain, so all reachable values index into it).
        let distinct = vars.of(&t.vars);
        let (lo, hi) = distinct.iter().fold((Val::MAX, Val::MIN), |(lo, hi), &v| {
            (lo.min(store.min(v)), hi.max(store.max(v)))
        });
        let (lo, num_values) = if distinct.is_empty() {
            (0, 0)
        } else {
            (lo, (hi - lo) as usize + 1)
        };
        // An except value outside the universe can never be taken; the
        // constraint degenerates to a plain all-different over the scope.
        let except = except_val
            .filter(|&e| e >= lo && e < lo + num_values as Val)
            .map(|e| (e - lo) as usize);
        let n = distinct.len();
        AllDiffGacProp {
            matching: Matching::new(store, &mut t.scratch.matching, n, lo, num_values, except),
            vars,
            dups,
            except_val,
            last_seen: NEVER_RAN,
        }
    }

    /// Node numbering in the residual graph: variables first, then the
    /// dense value universe, then the sink.
    fn val_node(&self, vi: usize) -> u32 {
        (self.vars.len as usize + vi) as u32
    }

    fn run(&mut self, t: &mut Tables, store: &mut Store) -> Result<(), EmptyDomain> {
        if self.last_seen == store.version() {
            return Ok(()); // nothing changed since the last completed run
        }
        let vars = self.vars.of(&t.vars);
        let scratch = &mut t.scratch;
        // A variable listed twice must equal itself *and* differ from
        // itself — impossible unless the shared value is the except value.
        for &d in self.dups.of(&t.vars) {
            match self.except_val {
                None => return Err(EmptyDomain(d)),
                Some(e) => {
                    store.assign(d, e)?;
                }
            }
        }
        self.matching.repair(vars, &mut scratch.matching, store)?;

        let n = vars.len();
        let m = self.matching.num_values();
        let sink = (n + m) as u32;
        let scc = &mut scratch.scc;
        scc.reset(n + m + 1);
        let lo = self.matching.lo();
        for (pos, &var) in vars.iter().enumerate() {
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
                        scc.add_arc(self.val_node(vi), pos as u32);
                    } else {
                        scc.add_arc(pos as u32, self.val_node(vi));
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
                    scc.add_arc(sink, self.val_node(vi));
                }
                if except_uses < n as i64 {
                    scc.add_arc(self.val_node(vi), sink);
                }
            } else if self.matching.owner_pos(store, vi).is_some() {
                scc.add_arc(sink, self.val_node(vi));
            } else {
                scc.add_arc(self.val_node(vi), sink);
            }
        }
        scc.run();

        // Prune: an unmatched edge whose endpoints fall in different
        // components is in no maximum matching (Berge via the sink).
        let words_buf = &mut scratch.words;
        for (pos, &var) in vars.iter().enumerate() {
            if store.size(var) == 1 {
                continue; // only the matched edge remains
            }
            let mi = self
                .matching
                .matched_index(store, pos)
                .expect("repair left a variable unmatched");
            let comp_var = scc.comp(pos as u32);
            let (base, words) = store.domain_words(var);
            let shift = (base - lo) as usize;
            words_buf.clear();
            words_buf.extend_from_slice(words);
            for (wi, &word) in words_buf.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let vi = shift + wi * 64 + b;
                    if vi != mi && scc.comp(self.val_node(vi)) != comp_var {
                        store.remove(var, lo + vi as Val)?;
                    }
                }
            }
        }
        self.last_seen = store.version();
        Ok(())
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
#[derive(Debug, Clone, Copy)]
pub(crate) struct ElementProp {
    /// Lowest array value of the support universe.
    lo: Val,
    /// Width of the support universe.
    width: u32,
    /// In [`Tables::u32s`], `width + 1` boundaries of the per-value
    /// support lists: the list of dense value `w - lo` is
    /// `Tables::vals[list + starts[w - lo]..list + starts[w - lo + 1]]`,
    /// the indices `i` (valid at the root) with `array[i] == w`.
    starts: u32,
    list: u32,
    /// First of the per-value cursors in [`Tables::residue`].
    residue: u32,
    /// Store version at the end of the last completed run.
    last_seen: u64,
}

impl ElementProp {
    fn new(index: VarId, array: &[Val], store: &Store, t: &mut Tables) -> Self {
        let (lo, hi) = array
            .iter()
            .fold((Val::MAX, Val::MIN), |(lo, hi), &a| (lo.min(a), hi.max(a)));
        let width = if array.is_empty() {
            0
        } else {
            (hi - lo) as usize + 1
        };
        let live = |i: usize| store.contains(index, i as Val);
        // Counting sort of the live indices by their value: list sizes,
        // boundaries, then one fill pass in index order.
        let starts = t.u32s.len();
        t.u32s.resize(starts + width + 1, 0);
        for (i, &a) in array.iter().enumerate() {
            if live(i) {
                t.u32s[starts + (a - lo) as usize + 1] += 1;
            }
        }
        for w in 0..width {
            t.u32s[starts + w + 1] += t.u32s[starts + w];
        }
        let list = t.vals.len();
        t.vals.resize(list + t.u32s[starts + width] as usize, 0);
        let cursor = &mut t.scratch.cursor;
        cursor.clear();
        cursor.extend_from_slice(&t.u32s[starts..starts + width]);
        for (i, &a) in array.iter().enumerate() {
            if live(i) {
                let slot = &mut cursor[(a - lo) as usize];
                t.vals[list + *slot as usize] = i as Val;
                *slot += 1;
            }
        }
        let residue = t.residue.len();
        t.residue.resize(residue + width, 0);
        ElementProp {
            lo,
            width: width as u32,
            starts: starts as u32,
            list: list as u32,
            residue: residue as u32,
            last_seen: NEVER_RAN,
        }
    }

    fn propagate(
        &mut self,
        index: VarId,
        array: &[Val],
        value: VarId,
        t: &mut Tables,
        store: &mut Store,
    ) -> Result<(), EmptyDomain> {
        if self.last_seen == store.version() {
            return Ok(());
        }
        let Tables {
            u32s,
            vals,
            residue,
            scratch,
            ..
        } = t;
        let words_buf = &mut scratch.words;
        let starts = &u32s[self.starts as usize..=(self.starts + self.width) as usize];
        let residue = &mut residue[self.residue as usize..(self.residue + self.width) as usize];
        // The index pass and the value pass feed each other (a removed
        // value invalidates indices mapping to it and vice versa), so
        // iterate both to a joint fixpoint before recording the guard.
        loop {
            let before = store.version();
            // Index side: drop indices that are out of range or whose array
            // entry left the value domain (direct membership tests, no sets).
            let (base, words) = store.domain_words(index);
            words_buf.clear();
            words_buf.extend_from_slice(words);
            for (wi, &word) in words_buf.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    let i = base + (wi * 64) as Val + b as Val;
                    let alive = usize::try_from(i)
                        .ok()
                        .and_then(|i| array.get(i))
                        .is_some_and(|&a| store.contains(value, a));
                    if !alive {
                        store.remove(index, i)?;
                    }
                }
            }
            // Value side: residual supports.
            let (base, words) = store.domain_words(value);
            words_buf.clear();
            words_buf.extend_from_slice(words);
            for (wi, &word) in words_buf.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    let val = base + (wi * 64) as Val + b as Val;
                    if val < self.lo || val >= self.lo + self.width as Val {
                        store.remove(value, val)?;
                        continue;
                    }
                    let vi = (val - self.lo) as usize;
                    let at = self.list as usize;
                    let list = &vals[at + starts[vi] as usize..at + starts[vi + 1] as usize];
                    let start = residue[vi] as usize % list.len().max(1);
                    let found = (0..list.len())
                        .map(|k| (start + k) % list.len())
                        .find(|&k| store.contains(index, list[k]));
                    match found {
                        Some(k) => residue[vi] = k as u32,
                        None => {
                            store.remove(value, val)?;
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
}

/// Positive table constraint with residual supports: per `(column, value)`
/// a precomputed list of rows using that value in that column, plus an
/// untrailed last-supporting-row cursor. A value survives iff some row in
/// its list is *live* (every column's cell still in-domain); the residue is
/// revalidated first and the scan continues forward cyclically only when it
/// died. Reaches the same fixpoint as exhaustive support scanning — one row
/// check is O(arity), and in the common case the residue is still alive so
/// a wake costs O(domain · arity) instead of O(rows · arity).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableProp {
    /// Rows kept at construction (tracked separately because zero-arity
    /// tables have no cells but may have rows).
    n_rows: u32,
    /// In [`Tables::vals`]: the live-at-root rows, flattened row-major with
    /// stride `arity`, and per column the lowest value of its root domain
    /// (dense support index 0).
    cells: u32,
    col_lo: u32,
    /// In [`Tables::u32s`]: `arity + 1` offsets of each column's first
    /// `(column, value)` key, the `keys + 1` boundaries of the per-key row
    /// lists, and the row lists themselves (ascending row ids).
    col_key: u32,
    starts: u32,
    rows: u32,
    /// First of the per-key cursors in [`Tables::residue`].
    residue: u32,
    /// Store version at the end of the last completed run.
    last_seen: u64,
}

impl TableProp {
    fn new(vars: &[VarId], rows: &[Vec<Val>], store: &Store, t: &mut Tables) -> Self {
        let arity = vars.len();
        let col_lo = t.vals.len();
        t.vals.extend(vars.iter().map(|&v| store.min(v)));
        let col_key = t.u32s.len();
        t.u32s.push(0);
        for &v in vars {
            let width = (store.max(v) - store.min(v)) as u32 + 1;
            t.u32s.push(t.u32s[t.u32s.len() - 1] + width);
        }
        let keys = t.u32s[col_key + arity] as usize;
        let key = |t: &Tables, col: usize, r: Val| {
            t.u32s[col_key + col] as usize + (r - t.vals[col_lo + col]) as usize
        };
        // Counting sort of the (column, value) occurrences of the live
        // rows: list sizes, boundaries, then one fill pass in row order.
        let starts = t.u32s.len();
        t.u32s.resize(starts + keys + 1, 0);
        let cells = t.vals.len();
        let mut n_rows = 0u32;
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
                let k = key(t, col, r);
                t.u32s[starts + k + 1] += 1;
            }
            t.vals.extend_from_slice(row);
            n_rows += 1;
        }
        for k in 0..keys {
            t.u32s[starts + k + 1] += t.u32s[starts + k];
        }
        let rows_at = t.u32s.len();
        t.u32s.resize(rows_at + n_rows as usize * arity, 0);
        let mut cursor = std::mem::take(&mut t.scratch.cursor);
        cursor.clear();
        cursor.extend_from_slice(&t.u32s[starts..starts + keys]);
        for row_id in 0..n_rows as usize {
            for col in 0..arity {
                let k = key(t, col, t.vals[cells + row_id * arity + col]);
                t.u32s[rows_at + cursor[k] as usize] = row_id as u32;
                cursor[k] += 1;
            }
        }
        t.scratch.cursor = cursor;
        let residue = t.residue.len();
        t.residue.resize(residue + keys, 0);
        TableProp {
            n_rows,
            cells: cells as u32,
            col_lo: col_lo as u32,
            col_key: col_key as u32,
            starts: starts as u32,
            rows: rows_at as u32,
            residue: residue as u32,
            last_seen: NEVER_RAN,
        }
    }

    fn propagate(
        &mut self,
        vars: &[VarId],
        t: &mut Tables,
        store: &mut Store,
    ) -> Result<(), EmptyDomain> {
        if self.last_seen == store.version() {
            return Ok(());
        }
        let arity = vars.len();
        if self.n_rows == 0 {
            // No row survived construction (dead at the root is dead
            // forever): unsatisfiable outright, matching the stateless
            // scanner's empty-live-set verdict.
            return Err(EmptyDomain(vars.first().copied().unwrap_or(0)));
        }
        let Tables {
            u32s,
            vals,
            residue,
            scratch,
            ..
        } = t;
        let words_buf = &mut scratch.words;
        let cells = &vals[self.cells as usize..self.cells as usize + self.n_rows as usize * arity];
        let col_lo = &vals[self.col_lo as usize..self.col_lo as usize + arity];
        let col_key = &u32s[self.col_key as usize..=self.col_key as usize + arity];
        let keys = col_key[arity] as usize;
        let starts = &u32s[self.starts as usize..=self.starts as usize + keys];
        let rows = &u32s[self.rows as usize..self.rows as usize + self.n_rows as usize * arity];
        let residue = &mut residue[self.residue as usize..self.residue as usize + keys];
        // Is row `row_id` still supported by every column's current domain?
        let row_live = |store: &Store, row_id: u32| {
            let row = &cells[row_id as usize * arity..(row_id as usize + 1) * arity];
            vars.iter()
                .zip(row.iter())
                .all(|(&v, &r)| store.contains(v, r))
        };
        // One column pass is not idempotent (pruning column i can kill the
        // rows supporting column j — most visibly when the same variable
        // appears in two columns), so iterate to an internal fixpoint before
        // recording the version guard.
        loop {
            let before = store.version();
            for col in 0..arity {
                let v = vars[col];
                let lo = col_lo[col];
                let width = (col_key[col + 1] - col_key[col]) as Val;
                let (base, words) = store.domain_words(v);
                words_buf.clear();
                words_buf.extend_from_slice(words);
                for (wi, &word) in words_buf.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        let b = w.trailing_zeros();
                        w &= w - 1;
                        let val = base + (wi * 64) as Val + b as Val;
                        if val < lo || val >= lo + width {
                            store.remove(v, val)?;
                            continue;
                        }
                        let k = col_key[col] as usize + (val - lo) as usize;
                        let list = &rows[starts[k] as usize..starts[k + 1] as usize];
                        if list.is_empty() {
                            store.remove(v, val)?;
                            continue;
                        }
                        let start = residue[k] as usize % list.len();
                        let found = (0..list.len())
                            .map(|j| (start + j) % list.len())
                            .find(|&j| row_live(store, list[j]));
                        match found {
                            Some(j) => residue[k] = j as u32,
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
#[derive(Debug, Clone, Copy)]
pub(crate) struct OrProp {
    /// Watched positions into the literals (untrailed hints; equal only
    /// when the clause has a single literal).
    watch: [usize; 2],
    /// Trailed entailment: non-zero once some literal is true.
    entailed: StateId,
}

fn lit_true(lits: &[(VarId, bool)], store: &Store, k: usize) -> bool {
    let (v, pol) = lits[k];
    if pol {
        store.is_fixed(v) && store.value(v) == 1
    } else {
        !store.contains(v, 1)
    }
}

fn lit_false(lits: &[(VarId, bool)], store: &Store, k: usize) -> bool {
    let (v, pol) = lits[k];
    if pol {
        !store.contains(v, 1)
    } else {
        store.is_fixed(v) && store.value(v) == 1
    }
}

impl OrProp {
    fn new(lits: &[(VarId, bool)], store: &mut Store) -> Self {
        OrProp {
            watch: [0, 1.min(lits.len().saturating_sub(1))],
            entailed: store.new_state_cell(0),
        }
    }

    /// Make a non-falsified literal true (unit propagation).
    fn force(lits: &[(VarId, bool)], store: &mut Store, k: usize) -> Result<(), EmptyDomain> {
        let (v, pol) = lits[k];
        if pol {
            store.assign(v, 1)?;
        } else {
            store.remove(v, 1)?;
        }
        Ok(())
    }

    fn propagate(&mut self, lits: &[(VarId, bool)], store: &mut Store) -> Result<(), EmptyDomain> {
        if store.state(self.entailed) != 0 {
            return Ok(());
        }
        if lits.is_empty() {
            return Err(EmptyDomain(0));
        }
        let [w0, w1] = self.watch;
        // Fast path: both watches undecided — the clause can still go
        // either way and there is nothing to infer.
        if w0 != w1
            && !lit_false(lits, store, w0)
            && !lit_false(lits, store, w1)
            && !lit_true(lits, store, w0)
            && !lit_true(lits, store, w1)
        {
            return Ok(());
        }
        // Slow path: full scan for a satisfied literal / new watches.
        let mut open = [0usize; 2];
        let mut n_open = 0;
        for k in 0..lits.len() {
            if lit_true(lits, store, k) {
                store.set_state(self.entailed, 1);
                return Ok(());
            }
            if !lit_false(lits, store, k) {
                if n_open < 2 {
                    open[n_open] = k;
                }
                n_open += 1;
            }
        }
        match n_open {
            0 => Err(EmptyDomain(lits[0].0)),
            1 => {
                // Unit: forcing it satisfies the clause on this branch.
                Self::force(lits, store, open[0])?;
                store.set_state(self.entailed, 1);
                Ok(())
            }
            _ => {
                self.watch = open;
                Ok(())
            }
        }
    }
}
