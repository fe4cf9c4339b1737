//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! A MiniSat-family solver: two-watched-literal unit propagation, first-UIP
//! conflict analysis with clause minimization, VSIDS variable ordering with
//! phase saving, Luby restarts, and activity-based learned-clause deletion.
//! Budgets (conflicts / wall clock) yield a three-way [`SatOutcome`] so the
//! scheduling experiments can report overruns exactly like the CSP solvers.
//!
//! ## Clause storage
//!
//! A clause of three or more literals lives MiniSat-style in one literal
//! arena: its literals sit back to back in a single `Vec<Lit>`, and the
//! clause itself is a small `Copy` header (`start`, `len`, activity,
//! learnt and deleted flags) indexed by its `ClauseRef`. A binary clause
//! (from the formula or learned) has a header too, holding its two
//! literals, but nothing in the arena: each of its two watchers carries
//! the other literal as its blocker and the binary kind in its clause
//! reference, so propagation decides it from the watcher alone. A
//! pairwise at-most-one group of the formula is one header whose members
//! sit in the arena, with one watcher per member. Loading a formula
//! appends each clause's undecided literals to the arena tail and keeps
//! them when three or more are left and none is true at the root; learned
//! clauses of three or more literals are appended the same way.
//!
//! ## Why groups and implicit binaries search the same tree
//!
//! A group stands for its pairwise clauses `¬a ∨ ¬b`, the clauses its
//! formula's DIMACS export holds. Loaded as those clauses, every binary
//! one in the arena like a long clause, the solver searches some tree; the
//! group and the arena-free binaries reproduce it step for step:
//!
//! * Loading. A group whose member is true at the root, when it is
//!   reached, loads as its pairs, through the clause path (its pairs give
//!   root units). Otherwise no pair of it is unit, so the root assignment
//!   stays put while it loads: pairs with a member false at the root are
//!   satisfied and would be dropped, so the group keeps only its
//!   undecided members (as a binary clause when two are left, as nothing
//!   when fewer).
//! * Watch order. Loaded as clauses, the pairs of a member form one
//!   unbroken block of its watch list (they are attached one after the
//!   other, and binary watchers never move); the group's one watcher sits
//!   where that block would. When the member becomes true, the watcher
//!   walks the other members in group order, as the block would: a false
//!   member is skipped (the pair's blocker is true), an undecided one is
//!   implied false with the pair as its reason, and a true one is a
//!   conflict.
//! * Analysis. Propagation normalizes a two-literal clause in the arena to
//!   `[implied, other]` when it implies a literal and to `[other, ¬p]`
//!   when it is the conflict found while propagating `p`; a binary clause
//!   or a pair reaches conflict analysis and clause minimization in that
//!   order.
//! * Activity. Every pair keeps its own activity, in a per-group slab of
//!   slots handed out the first time one of its pairs is bumped, and the
//!   rescale at 1e20 covers them; the learned-clause limit counts a
//!   group as its pairs.
//! * Reduction rebuilds every watch list in header order, which puts each
//!   group's watcher where its block of pairs would be.
//!
//! Every literal's watch list is a span of one slab (`watch::WatchSlab`).
//! Before loading, one counting pass over the formula gives each list
//! exactly the capacity its clauses need and sizes the arena, so loading
//! moves no list and regrows nothing; a list that fills up later (root
//! filtering can shift a watch to a later literal, and learned clauses add
//! watchers) moves to the slab's tail at double capacity. The header table
//! is reserved for the formula's items only (units never get a header);
//! learned clauses past that regrow it by doubling.
//!
//! Database reduction marks learned clauses deleted and then compacts the
//! arena: live clauses and groups slide down in header order, and only
//! their headers' `start` changes. Headers never move, so clause
//! references in watch lists and in `reason[]` stay valid without
//! remapping. The watch lists are then recounted and laid out afresh,
//! which also drops the garbage left by moved lists.
//!
//! All of these buffers, the per-variable arrays and the scratch of
//! conflict analysis and reduction are recycled per thread
//! ([`crate::MAX_RECYCLED_BYTES`]): a dropped solver leaves them to the
//! next one built on its thread, which takes them back cleared, so a
//! thread solving formula after formula neither allocates nor page-faults
//! per solve once it has seen its largest formula. Capacity a recycled
//! buffer brings along changes nothing but the allocations.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mgrts_obs::SearchStats;

use crate::cnf::{pairs, Cnf, Item};
use crate::heap::VarHeap;
use crate::recycle::{self, refill};
use crate::types::{LBool, Lit, Var};
use crate::watch::{ClauseRef, Kind, WatchSlab, Watcher};

/// Why a variable has its value: the clause that implied it and, for a
/// binary clause or a pair of a group, the clause's other literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reason {
    cref: ClauseRef,
    other: Lit,
}

impl Reason {
    /// `cref`, a long clause, implied its first literal.
    const fn long(cref: ClauseRef) -> Reason {
        Reason {
            cref,
            other: Lit::pos(0),
        }
    }
}

const NO_REASON: Reason = Reason::long(ClauseRef::NONE);

/// A clause that propagation found false; for a binary clause or a pair
/// of a group, also its literals `[other, ¬p]`.
#[derive(Debug, Clone, Copy)]
struct Conflict {
    cref: ClauseRef,
    lits: [Lit; 2],
}

/// A group's pairs have no activity slots yet.
const NO_SLOTS: u32 = u32::MAX;

/// Where a clause's literals sit, plus its bookkeeping.
#[derive(Debug, Clone, Copy)]
struct ClauseHeader {
    /// A long clause's or a group's first literal in the arena; a binary
    /// clause's first literal's code.
    start: u32,
    /// Their number; a binary clause's second literal's code.
    len: u32,
    /// The clause's activity; a group's pairs keep theirs in
    /// `pair_activity`.
    activity: f32,
    /// A group's first slot in `pair_activity`, or [`NO_SLOTS`].
    pair_slots: u32,
    kind: Kind,
    learnt: bool,
    deleted: bool,
}

impl ClauseHeader {
    fn new(start: u32, len: u32, kind: Kind, learnt: bool) -> ClauseHeader {
        ClauseHeader {
            start,
            len,
            activity: 0.0,
            pair_slots: NO_SLOTS,
            kind,
            learnt,
            deleted: false,
        }
    }

    /// Arena indices of a long clause's or a group's literals.
    fn range(self) -> std::ops::Range<usize> {
        debug_assert_ne!(self.kind, Kind::Binary);
        self.start as usize..(self.start + self.len) as usize
    }

    /// A binary clause's two literals.
    fn binary(self) -> [Lit; 2] {
        debug_assert_eq!(self.kind, Kind::Binary);
        [self.start, self.len].map(|code| Lit::from_code(code as usize))
    }
}

/// Result of a solve call.
#[derive(Debug, Clone, PartialEq)]
pub enum SatOutcome {
    /// Satisfiable, with a total model (`model[v]` = value of variable `v`).
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
    /// A budget ran out.
    Unknown(SatLimit),
}

impl SatOutcome {
    /// The model, when satisfiable.
    #[must_use]
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SatOutcome::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Which budget stopped the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatLimit {
    /// Conflict budget exhausted.
    Conflicts,
    /// Wall-clock budget exhausted.
    Time,
    /// An external interrupt flag was raised (portfolio cancellation).
    Interrupted,
}

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SatConfig {
    /// VSIDS activity decay factor (activity increment grows by `1/decay`).
    pub var_decay: f64,
    /// Clause activity decay factor.
    pub clause_decay: f32,
    /// Luby restart unit (conflicts).
    pub restart_unit: u64,
    /// Initial learned-clause capacity as a fraction of problem clauses.
    pub learntsize_factor: f64,
    /// Conflict budget (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Wall-clock budget (`None` = unlimited).
    pub time_limit: Option<Duration>,
    /// Default polarity assigned the first time a variable is decided
    /// (phase saving takes over afterwards). `false` suits encodings where
    /// most variables are false in any model, like CSP1's `x_{i,j}(t)`.
    pub default_phase: bool,
}

impl Default for SatConfig {
    fn default() -> Self {
        SatConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_unit: 100,
            learntsize_factor: 1.0 / 3.0,
            max_conflicts: None,
            time_limit: None,
            default_phase: false,
        }
    }
}

/// Call `f(list, watcher)` for every watcher of the live clauses and
/// groups in `clauses`, in header order: a long or binary clause watches
/// the negations of its first two literals, a group each of its members.
fn live_watchers(clauses: &[ClauseHeader], arena: &[Lit], mut f: impl FnMut(usize, Watcher)) {
    for (i, c) in clauses.iter().enumerate().filter(|(_, c)| !c.deleted) {
        let cref = ClauseRef::new(i, c.kind);
        let [a, b] = match c.kind {
            Kind::Binary => c.binary(),
            Kind::Long => [arena[c.start as usize], arena[c.start as usize + 1]],
            Kind::Group => {
                for &m in &arena[c.range()] {
                    f(m.code(), Watcher { cref, blocker: m });
                }
                continue;
            }
        };
        f((!a).code(), Watcher { cref, blocker: b });
        f((!b).code(), Watcher { cref, blocker: a });
    }
}

/// The CDCL solver.
#[derive(Debug)]
pub struct SatSolver {
    cfg: SatConfig,
    /// One header per clause or group ever attached, indexed by
    /// [`ClauseRef::index`].
    clauses: Vec<ClauseHeader>,
    /// The literals of every live long clause and group, back to back.
    arena: Vec<Lit>,
    /// The activity of every pair of the groups that have slots, each
    /// group's pairs `(i, j)`, `i < j`, in row order.
    pair_activity: Vec<f32>,
    /// Headers a pairwise expansion of the groups would add: each group of
    /// `g` members counts `g·(g−1)/2 − 1` more.
    extra_pairs: usize,
    watches: WatchSlab,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    order: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Conflict analysis: the first-UIP clause, then its minimization
    /// (the learned clause).
    learnt: Vec<Lit>,
    minimized: Vec<Lit>,
    /// Database reduction: the learned clauses' activities.
    acts: Vec<f32>,
    ok: bool,
    stats: SearchStats,
    interrupt: Option<Arc<AtomicBool>>,
    /// False when the interrupt stopped [`SatSolver::with_interrupt`]
    /// before every clause was loaded. A partial formula may be
    /// satisfiable where the whole one is not, so such a solver never
    /// searches.
    loaded: bool,
    /// Counter gating wall-clock polls (`Instant::now()` once per ~1024
    /// budget checks, SAT-solver style — same scheme as the CSP engine).
    budget_ticks: u64,
}

/// The buffers of a dropped solver, for the next one built on the same
/// thread, which empties and refills each of them.
#[derive(Default)]
pub(crate) struct SolverBuffers {
    clauses: Vec<ClauseHeader>,
    arena: Vec<Lit>,
    pair_activity: Vec<f32>,
    watches: WatchSlab,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    activity: Vec<f64>,
    order: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    learnt: Vec<Lit>,
    minimized: Vec<Lit>,
    acts: Vec<f32>,
}

impl SolverBuffers {
    fn bytes(&self) -> usize {
        recycle::bytes(&self.clauses)
            + recycle::bytes(&self.arena)
            + recycle::bytes(&self.pair_activity)
            + self.watches.bytes()
            + recycle::bytes(&self.assigns)
            + recycle::bytes(&self.level)
            + recycle::bytes(&self.reason)
            + recycle::bytes(&self.trail)
            + recycle::bytes(&self.trail_lim)
            + recycle::bytes(&self.activity)
            + self.order.bytes()
            + recycle::bytes(&self.phase)
            + recycle::bytes(&self.seen)
            + recycle::bytes(&self.learnt)
            + recycle::bytes(&self.minimized)
            + recycle::bytes(&self.acts)
    }
}

thread_local! {
    pub(crate) static SOLVER_BUFFERS: Cell<Option<SolverBuffers>> = const { Cell::new(None) };
}

impl Drop for SatSolver {
    fn drop(&mut self) {
        let set = SolverBuffers {
            clauses: std::mem::take(&mut self.clauses),
            arena: std::mem::take(&mut self.arena),
            pair_activity: std::mem::take(&mut self.pair_activity),
            watches: std::mem::take(&mut self.watches),
            assigns: std::mem::take(&mut self.assigns),
            level: std::mem::take(&mut self.level),
            reason: std::mem::take(&mut self.reason),
            trail: std::mem::take(&mut self.trail),
            trail_lim: std::mem::take(&mut self.trail_lim),
            activity: std::mem::take(&mut self.activity),
            order: std::mem::take(&mut self.order),
            phase: std::mem::take(&mut self.phase),
            seen: std::mem::take(&mut self.seen),
            learnt: std::mem::take(&mut self.learnt),
            minimized: std::mem::take(&mut self.minimized),
            acts: std::mem::take(&mut self.acts),
        };
        let bytes = set.bytes();
        recycle::put(&SOLVER_BUFFERS, set, bytes);
    }
}

/// Formula items loaded between two interrupt polls while a solver is
/// built.
const LOAD_POLL_INTERVAL: usize = 1024;

impl SatSolver {
    /// Build a solver from a formula.
    #[must_use]
    pub fn new(cnf: &Cnf, cfg: SatConfig) -> SatSolver {
        SatSolver::with_interrupt(cnf, cfg, None)
    }

    /// Build a solver from a formula under a cooperative interrupt flag
    /// (`None` never interrupts: this is [`SatSolver::new`]).
    ///
    /// The flag is polled every 1024 clauses or groups while the formula
    /// is sized and again while it loads, before the root propagation of
    /// each solve, and every propagation round of the search. When another
    /// thread raises it the search returns
    /// [`SatOutcome::Unknown`]([`SatLimit::Interrupted`]); a solver
    /// whose load was interrupted returns that from every solve, even if
    /// the flag is lowered later. Portfolio racing uses it to preempt the
    /// SAT route, whose formula alone can take longer to load than the
    /// winning backend takes to decide.
    #[must_use]
    pub fn with_interrupt(
        cnf: &Cnf,
        cfg: SatConfig,
        interrupt: Option<Arc<AtomicBool>>,
    ) -> SatSolver {
        let n = cnf.num_vars() as usize;
        let SolverBuffers {
            mut clauses,
            mut arena,
            mut pair_activity,
            mut watches,
            mut assigns,
            mut level,
            mut reason,
            mut trail,
            mut trail_lim,
            mut activity,
            mut order,
            mut phase,
            mut seen,
            mut learnt,
            mut minimized,
            mut acts,
        } = recycle::take(&SOLVER_BUFFERS).unwrap_or_default();
        clauses.clear();
        clauses.reserve(cnf.num_items());
        arena.clear();
        arena.reserve(cnf.num_lits());
        pair_activity.clear();
        watches.reset(2 * n);
        refill(&mut assigns, n, LBool::Undef);
        refill(&mut level, n, 0);
        refill(&mut reason, n, NO_REASON);
        trail.clear();
        trail.reserve(n);
        trail_lim.clear();
        refill(&mut activity, n, 0.0);
        order.reset(n);
        refill(&mut phase, n, cfg.default_phase);
        refill(&mut seen, n, false);
        learnt.clear();
        minimized.clear();
        acts.clear();
        let mut s = SatSolver {
            cfg,
            clauses,
            arena,
            pair_activity,
            extra_pairs: 0,
            watches,
            assigns,
            level,
            reason,
            trail,
            trail_lim,
            qhead: 0,
            activity,
            var_inc: 1.0,
            cla_inc: 1.0,
            order,
            phase,
            seen,
            learnt,
            minimized,
            acts,
            ok: true,
            stats: SearchStats::default(),
            interrupt,
            loaded: true,
            budget_ticks: 0,
        };
        s.order.rebuild(0..cnf.num_vars(), &s.activity);
        s.loaded = s.lay_out_watches(cnf);
        if !s.loaded {
            return s;
        }
        for (k, item) in cnf.items().enumerate() {
            if k % LOAD_POLL_INTERVAL == 0 && s.interrupted() {
                s.loaded = false;
                break;
            }
            match item {
                Item::Clause(c) => s.add_clause(c),
                Item::AtMostOne(members) => s.add_group(members),
            }
            if !s.ok {
                break;
            }
        }
        s
    }

    /// Give each watch list the capacity for the clauses whose first two
    /// literals watch it and for the groups that hold its literal, so
    /// loading rarely moves one: root-level filtering only drops literals
    /// (though it can shift a clause's watches to later ones). Returns
    /// false when the interrupt cut the pass.
    fn lay_out_watches(&mut self, cnf: &Cnf) -> bool {
        for (k, item) in cnf.items().enumerate() {
            if k % LOAD_POLL_INTERVAL == 0 && self.interrupted() {
                return false;
            }
            match item {
                Item::Clause(&[a, b, ..]) => {
                    self.watches.count((!a).code());
                    self.watches.count((!b).code());
                }
                Item::Clause(_) => {}
                Item::AtMostOne(members) => {
                    for m in members {
                        self.watches.count(m.code());
                    }
                }
            }
        }
        self.watches.lay_out();
        true
    }

    /// Convenience: build with the default configuration and solve.
    #[must_use]
    pub fn solve_cnf(cnf: &Cnf) -> SatOutcome {
        SatSolver::new(cnf, SatConfig::default()).solve()
    }

    /// Counters summed over every solve call so far. `learnt_clauses`
    /// counts the learned clauses currently in the database (reduction
    /// removes them again), and every conflict is also a backtrack.
    #[must_use]
    pub fn stats(&self) -> SearchStats {
        self.stats.clone()
    }

    /// Replace the wall-clock budget of subsequent solves — for callers
    /// whose allowance also paid for encoding and construction, so the
    /// search gets only what is left of it.
    pub fn set_time_limit(&mut self, limit: Option<Duration>) {
        self.cfg.time_limit = limit;
    }

    /// Poll the interrupt flag (cheap relaxed load; `None` ⇒ never).
    fn interrupted(&self) -> bool {
        self.interrupt
            .as_deref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Amortized wall-clock check: counts invocations and reads
    /// `Instant::now()` only once per ~1024 of them, so the conflict and
    /// decision loops can call it unconditionally.
    fn time_exhausted(&mut self, start: Instant) -> bool {
        let Some(limit) = self.cfg.time_limit else {
            return false;
        };
        let tick = self.budget_ticks;
        self.budget_ticks += 1;
        tick & 1023 == 0 && start.elapsed() >= limit
    }

    fn value(&self, l: Lit) -> LBool {
        self.assigns[l.var() as usize].under(l)
    }

    fn decision_level(&self) -> u32 {
        u32::try_from(self.trail_lim.len()).expect("levels fit u32")
    }

    /// Add a problem clause at the root level.
    ///
    /// `lits` comes from a [`Cnf`], so it is already sorted, duplicate-free
    /// and not a tautology. Unless a root-true literal satisfies it, its
    /// undecided literals are kept: none makes the formula unsatisfiable,
    /// one is a root unit, two are a binary clause, and three or more,
    /// copied to the arena tail, a long clause. A binary clause is settled
    /// without the arena.
    fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert!(lits.windows(2).all(|w| w[0] < w[1]));
        if !self.ok {
            return;
        }
        if let [a, b] = *lits {
            match (self.value(a), self.value(b)) {
                (LBool::True, _) | (_, LBool::True) => {}
                (LBool::False, LBool::False) => self.ok = false,
                (LBool::Undef, LBool::False) => self.add_root_unit(a),
                (LBool::False, LBool::Undef) => self.add_root_unit(b),
                (LBool::Undef, LBool::Undef) => {
                    self.attach_binary(a, b, false);
                }
            }
            return;
        }
        let start = self.arena.len();
        for &l in lits {
            match self.value(l) {
                LBool::True => {
                    self.arena.truncate(start);
                    return;
                }
                LBool::False => {}
                LBool::Undef => self.arena.push(l),
            }
        }
        match self.arena.len() - start {
            0 => self.ok = false,
            1 => {
                let unit = self.arena[start];
                self.arena.truncate(start);
                self.add_root_unit(unit);
            }
            2 => {
                let (a, b) = (self.arena[start], self.arena[start + 1]);
                self.arena.truncate(start);
                self.attach_binary(a, b, false);
            }
            _ => {
                self.attach(start, false);
            }
        }
    }

    /// Assert `unit` at the root level and propagate it.
    fn add_root_unit(&mut self, unit: Lit) {
        self.enqueue(unit, NO_REASON);
        self.ok = self.propagate().is_none();
    }

    /// Add the formula's at-most-one group `members` (three or more, of
    /// distinct variables) at the root level: as its pairs when a member
    /// is true, else over its undecided members (see the module docs).
    fn add_group(&mut self, members: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        if members.iter().any(|&m| self.value(m) == LBool::True) {
            for pair in pairs(members) {
                self.add_clause(&pair);
            }
            return;
        }
        let start = self.arena.len();
        for &m in members {
            if self.value(m) == LBool::Undef {
                self.arena.push(m);
            }
        }
        match self.arena.len() - start {
            0 | 1 => self.arena.truncate(start),
            2 => {
                let (a, b) = (self.arena[start], self.arena[start + 1]);
                self.arena.truncate(start);
                self.attach_binary(!a, !b, false);
            }
            g => {
                let cref = ClauseRef::new(self.clauses.len(), Kind::Group);
                let end = u32::try_from(self.arena.len()).expect("arena fits u32");
                for &m in &self.arena[start..] {
                    self.watches.push(m.code(), Watcher { cref, blocker: m });
                }
                let start = u32::try_from(start).expect("start within the arena");
                self.clauses
                    .push(ClauseHeader::new(start, end - start, Kind::Group, false));
                self.extra_pairs += g * (g - 1) / 2 - 1;
            }
        }
    }

    /// Make the arena tail `arena[start..]` (at least three literals) a
    /// clause and watch its first two literals.
    fn attach(&mut self, start: usize, learnt: bool) -> ClauseRef {
        // The end fits u32, so `start + len` in a header never overflows.
        let end = u32::try_from(self.arena.len()).expect("arena fits u32");
        let start = u32::try_from(start).expect("start within the arena");
        debug_assert!(end - start >= 3);
        let cref = ClauseRef::new(self.clauses.len(), Kind::Long);
        let (a, b) = (self.arena[start as usize], self.arena[start as usize + 1]);
        self.watches.push((!a).code(), Watcher { cref, blocker: b });
        self.watches.push((!b).code(), Watcher { cref, blocker: a });
        self.clauses
            .push(ClauseHeader::new(start, end - start, Kind::Long, learnt));
        if learnt {
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    /// Make `a ∨ b` a binary clause: a header holding the two literals,
    /// and a watcher on each whose blocker is the other.
    fn attach_binary(&mut self, a: Lit, b: Lit, learnt: bool) -> ClauseRef {
        let cref = ClauseRef::new(self.clauses.len(), Kind::Binary);
        self.watches.push((!a).code(), Watcher { cref, blocker: b });
        self.watches.push((!b).code(), Watcher { cref, blocker: a });
        let [a, b] = [a, b].map(|l| u32::try_from(l.code()).expect("literal code fits u32"));
        self.clauses
            .push(ClauseHeader::new(a, b, Kind::Binary, learnt));
        if learnt {
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var() as usize;
        self.assigns[v] = LBool::from(!l.is_neg());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = !l.is_neg();
        self.trail.push(l);
    }

    /// Two-watched-literal unit propagation. Returns the conflicting clause
    /// when one arises.
    ///
    /// The watchers of `p`'s list are compacted in place; a clause that
    /// finds a new watch moves to another literal's list, which never is
    /// `p`'s (the new watch is not false, `¬p` is), so `p`'s span stays
    /// put while other lists may move to the slab's tail. Binary and group
    /// watchers never move.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let std::ops::Range { start, end } = self.watches.spans[p.code()].range();
            let (mut i, mut j) = (start, start);
            let mut conflict = None;
            while i < end {
                let w = self.watches.slab[i];
                i += 1;
                match w.cref.kind() {
                    Kind::Binary => {
                        self.watches.slab[j] = w;
                        j += 1;
                        match self.value(w.blocker) {
                            LBool::True => {}
                            LBool::Undef => self.enqueue(
                                w.blocker,
                                Reason {
                                    cref: w.cref,
                                    other: !p,
                                },
                            ),
                            LBool::False => {
                                conflict = Some(Conflict {
                                    cref: w.cref,
                                    lits: [w.blocker, !p],
                                });
                                break;
                            }
                        }
                    }
                    Kind::Group => {
                        self.watches.slab[j] = w;
                        j += 1;
                        conflict = self.propagate_group(w.cref, p);
                        if conflict.is_some() {
                            break;
                        }
                    }
                    Kind::Long => {
                        // Fast path: blocker already true.
                        if self.value(w.blocker) == LBool::True {
                            self.watches.slab[j] = w;
                            j += 1;
                            continue;
                        }
                        let header = self.clauses[w.cref.index()];
                        if header.deleted {
                            continue; // lazily drop watchers of deleted clauses
                        }
                        let c = &mut self.arena[header.range()];
                        // Normalize: the false literal (¬p) at position 1.
                        if c[0] == !p {
                            c.swap(0, 1);
                        }
                        debug_assert_eq!(c[1], !p);
                        let first = c[0];
                        // Direct field access: `c` keeps `self.arena` borrowed.
                        let first_val = self.assigns[first.var() as usize].under(first);
                        if first != w.blocker && first_val == LBool::True {
                            self.watches.slab[j] = Watcher {
                                cref: w.cref,
                                blocker: first,
                            };
                            j += 1;
                            continue;
                        }
                        // Find a new literal to watch.
                        let mut moved = false;
                        for k in 2..c.len() {
                            if self.assigns[c[k].var() as usize].under(c[k]) != LBool::False {
                                c.swap(1, k);
                                let new_watch = c[1];
                                debug_assert_ne!((!new_watch).code(), p.code());
                                self.watches.push(
                                    (!new_watch).code(),
                                    Watcher {
                                        cref: w.cref,
                                        blocker: first,
                                    },
                                );
                                moved = true;
                                break;
                            }
                        }
                        if moved {
                            continue;
                        }
                        // Clause is unit or conflicting under the first literal.
                        self.watches.slab[j] = Watcher {
                            cref: w.cref,
                            blocker: first,
                        };
                        j += 1;
                        if first_val == LBool::False {
                            conflict = Some(Conflict {
                                cref: w.cref,
                                lits: [first, !p],
                            });
                            break;
                        }
                        self.enqueue(first, Reason::long(w.cref));
                    }
                }
            }
            if conflict.is_some() {
                // Keep the remaining watchers and bail out.
                self.watches.slab.copy_within(i..end, j);
                j += end - i;
                self.qhead = self.trail.len();
            }
            self.watches.spans[p.code()].len = (j - start) as u32;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// The member `p` of group `cref` became true: every other member must
    /// be false. Walk them in group order, as a block of `p`'s pairwise
    /// watchers would: skip the false ones, imply the undecided ones false
    /// and stop at a true one, the conflict `[¬m, ¬p]`.
    fn propagate_group(&mut self, cref: ClauseRef, p: Lit) -> Option<Conflict> {
        for k in self.clauses[cref.index()].range() {
            let m = self.arena[k];
            if m == p {
                continue;
            }
            match self.value(m) {
                LBool::False => {}
                LBool::Undef => self.enqueue(!m, Reason { cref, other: !p }),
                LBool::True => {
                    return Some(Conflict {
                        cref,
                        lits: [!m, !p],
                    })
                }
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    /// Bump a long or binary clause, or the pair `a ∨ b` of a group.
    fn bump_clause(&mut self, cref: ClauseRef, [a, b]: [Lit; 2]) {
        let header = &mut self.clauses[cref.index()];
        let act = if cref.kind() == Kind::Group {
            let members = &self.arena[header.range()];
            let pos = |l: Lit| {
                members
                    .iter()
                    .position(|m| m.var() == l.var())
                    .expect("a pair of the group")
            };
            let (i, j) = (pos(a), pos(b));
            let (i, j) = (i.min(j), i.max(j));
            let g = members.len();
            if header.pair_slots == NO_SLOTS {
                header.pair_slots =
                    u32::try_from(self.pair_activity.len()).expect("pair slots fit u32");
                self.pair_activity
                    .resize(self.pair_activity.len() + g * (g - 1) / 2, 0.0);
            }
            let slot = header.pair_slots as usize + i * (2 * g - i - 1) / 2 + (j - i - 1);
            &mut self.pair_activity[slot]
        } else {
            &mut header.activity
        };
        *act += self.cla_inc;
        if *act > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            for act in &mut self.pair_activity {
                *act *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Count `q`, a literal of a clause being resolved, into the learned
    /// clause: once per variable, root-level literals left out, those of
    /// the current level counted (returns 1) rather than kept.
    fn analyze_lit(&mut self, q: Lit) -> u32 {
        let v = q.var() as usize;
        if self.seen[v] || self.level[v] == 0 {
            return 0;
        }
        self.seen[v] = true;
        self.bump_var(q.var());
        if self.level[v] >= self.decision_level() {
            1
        } else {
            self.learnt.push(q);
            0
        }
    }

    /// First-UIP conflict analysis. Leaves the learned clause (asserting
    /// literal first) in `self.minimized` and returns the level to
    /// backtrack to.
    fn analyze(&mut self, confl: Conflict) -> u32 {
        self.learnt.clear();
        self.learnt.push(Lit::pos(0)); // placeholder for the UIP
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = confl.cref;

        loop {
            if cref.kind() == Kind::Long {
                self.bump_clause(cref, confl.lits);
                let range = self.clauses[cref.index()].range();
                let skip_first = usize::from(p.is_some());
                for k in range.start + skip_first..range.end {
                    counter += self.analyze_lit(self.arena[k]);
                }
            } else if let Some(lit) = p {
                // A binary reason or a pair: [implied, other].
                let other = self.reason[lit.var() as usize].other;
                self.bump_clause(cref, [lit, other]);
                counter += self.analyze_lit(other);
            } else {
                // The conflict, a binary clause or a pair: [other, ¬p].
                self.bump_clause(cref, confl.lits);
                counter += self.analyze_lit(confl.lits[0]);
                counter += self.analyze_lit(confl.lits[1]);
            }
            // Walk the trail back to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                self.learnt[0] = !lit;
                break;
            }
            p = Some(lit);
            cref = self.reason[lit.var() as usize].cref;
            debug_assert_ne!(cref, ClauseRef::NONE, "non-UIP literal must have a reason");
        }

        // Mark the kept literals for the redundancy check, then minimize.
        let learnt = std::mem::take(&mut self.learnt);
        for &l in &learnt[1..] {
            self.seen[l.var() as usize] = true;
        }
        self.minimized.clear();
        self.minimized.push(learnt[0]);
        for &l in &learnt[1..] {
            if !self.literal_redundant(l) {
                self.minimized.push(l);
            }
        }
        for &l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        self.seen[learnt[0].var() as usize] = false;
        self.learnt = learnt;

        // Backtrack level: highest level among the non-asserting literals;
        // put a literal of that level at index 1 (second watch).
        let minimized = &mut self.minimized;
        let mut bt = 0;
        if minimized.len() > 1 {
            let mut max_i = 1;
            for (i, &l) in minimized.iter().enumerate().skip(1) {
                if self.level[l.var() as usize] > self.level[minimized[max_i].var() as usize] {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            bt = self.level[minimized[1].var() as usize];
        }
        bt
    }

    /// Local redundancy check: `l` is redundant when it was propagated and
    /// every antecedent literal is already in the learned clause (seen) or
    /// fixed at the root level.
    fn literal_redundant(&self, l: Lit) -> bool {
        let reason = self.reason[l.var() as usize];
        if reason.cref == ClauseRef::NONE {
            return false;
        }
        let covered = |q: Lit| {
            q.var() == l.var() || self.seen[q.var() as usize] || self.level[q.var() as usize] == 0
        };
        match reason.cref.kind() {
            Kind::Long => self.arena[self.clauses[reason.cref.index()].range()]
                .iter()
                .all(|&q| covered(q)),
            Kind::Binary | Kind::Group => covered(reason.other),
        }
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for &l in &self.trail[lim..] {
            let v = l.var();
            self.assigns[v as usize] = LBool::Undef;
            self.reason[v as usize] = NO_REASON;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v as usize] == LBool::Undef {
                self.stats.decisions += 1;
                return Some(Lit::new(v, !self.phase[v as usize]));
            }
        }
        None
    }

    /// Delete the least active half of the learned long clauses (reason
    /// clauses are kept, binaries always), compact the arena, then rebuild
    /// the watch lists.
    ///
    /// A clause is a reason exactly when it implied its own first literal
    /// (`reason[var(c[0])] == cref`, MiniSat's `locked`): propagation and
    /// learning put the implied literal at position 0, nothing moves it
    /// while the clause stays a reason, and compaction keeps literal order.
    fn reduce_db(&mut self) {
        let deletable = |c: &ClauseHeader| c.kind == Kind::Long && c.learnt && !c.deleted;
        let mut acts = std::mem::take(&mut self.acts);
        acts.clear();
        acts.extend(
            self.clauses
                .iter()
                .filter(|c| deletable(c))
                .map(|c| c.activity),
        );
        if acts.len() < 2 {
            self.acts = acts;
            return;
        }
        acts.sort_by(f32::total_cmp);
        let threshold = acts[acts.len() / 2];
        self.acts = acts;
        for (i, c) in self.clauses.iter_mut().enumerate() {
            let cref = ClauseRef::new(i, Kind::Long);
            let locked = || self.reason[self.arena[c.start as usize].var() as usize].cref == cref;
            if deletable(c) && c.activity < threshold && !locked() {
                c.deleted = true;
                self.stats.learnt_clauses -= 1;
            }
        }
        // Slide the surviving clauses and groups down over the deleted
        // ones' literals; headers stay put, so clause references remain
        // valid.
        let mut end = 0u32;
        for c in self.clauses.iter_mut() {
            if c.kind != Kind::Binary && !c.deleted {
                self.arena.copy_within(c.range(), end as usize);
                c.start = end;
                end += c.len;
            }
        }
        self.arena.truncate(end as usize);
        debug_assert!(self.arena_is_compact());
        // Recount and lay out the watch lists, then refill them from the
        // surviving clauses in header order.
        self.watches.reset(2 * self.assigns.len());
        live_watchers(&self.clauses, &self.arena, |code, _| {
            self.watches.count(code);
        });
        self.watches.lay_out();
        live_watchers(&self.clauses, &self.arena, |code, w| {
            self.watches.push(code, w);
        });
    }

    /// True when the arena holds exactly the live clauses' and groups'
    /// literals, back to back in header order — the state
    /// [`SatSolver::reduce_db`] leaves.
    fn arena_is_compact(&self) -> bool {
        let mut end = 0;
        for c in self
            .clauses
            .iter()
            .filter(|c| c.kind != Kind::Binary && !c.deleted)
        {
            if c.start != end {
                return false;
            }
            end += c.len;
        }
        end as usize == self.arena.len()
    }

    /// The reluctant-doubling (Luby) sequence: 1, 1, 2, 1, 1, 2, 4, …
    fn luby(i: u64) -> u64 {
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < i + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        let mut i = i;
        let mut sz = size;
        let mut sq = seq;
        while sz - 1 != i {
            sz = (sz - 1) >> 1;
            sq -= 1;
            i %= sz;
        }
        1u64 << sq
    }

    /// Run the CDCL loop to a verdict or budget exhaustion.
    pub fn solve(&mut self) -> SatOutcome {
        let start = Instant::now();
        self.budget_ticks = 0;
        self.stats.solves += 1;
        let result = self.search(start);
        self.backtrack_to(0);
        result
    }

    /// Learn the clause [`SatSolver::analyze`] left in `self.minimized`,
    /// after the backjump, and assert its first literal.
    fn learn(&mut self) {
        let learnt = std::mem::take(&mut self.minimized);
        match learnt[..] {
            [unit] => self.enqueue(unit, NO_REASON),
            [a, b] => {
                let cref = self.attach_binary(a, b, true);
                self.bump_clause(cref, [a, b]);
                self.enqueue(a, Reason { cref, other: b });
            }
            _ => {
                let start = self.arena.len();
                self.arena.extend_from_slice(&learnt);
                let cref = self.attach(start, true);
                self.bump_clause(cref, [learnt[0], learnt[1]]);
                self.enqueue(learnt[0], Reason::long(cref));
            }
        }
        self.minimized = learnt;
    }

    fn search(&mut self, start: Instant) -> SatOutcome {
        if !self.loaded || self.interrupted() {
            return SatOutcome::Unknown(SatLimit::Interrupted);
        }
        if !self.ok {
            return SatOutcome::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SatOutcome::Unsat;
        }
        // The pairwise expansion's clause count, learned clauses included.
        let num_clauses = self.clauses.len() + self.extra_pairs;
        let mut max_learnts = (num_clauses as f64 * self.cfg.learntsize_factor).max(100.0);
        let mut restart = 0u64;
        loop {
            let budget = self.cfg.restart_unit * Self::luby(restart);
            restart += 1;
            self.stats.restarts += 1;
            let mut conflicts_here = 0u64;
            loop {
                // Cooperative cancellation: polled every propagation round
                // so a portfolio winner preempts this solver within one
                // propagation fixpoint, not one restart.
                if self.interrupted() {
                    return SatOutcome::Unknown(SatLimit::Interrupted);
                }
                if let Some(confl) = self.propagate() {
                    self.stats.conflicts += 1;
                    self.stats.backtracks += 1;
                    conflicts_here += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SatOutcome::Unsat;
                    }
                    let bt = self.analyze(confl);
                    self.backtrack_to(bt);
                    self.learn();
                    self.var_inc /= self.cfg.var_decay;
                    self.cla_inc /= self.cfg.clause_decay;

                    if let Some(max) = self.cfg.max_conflicts {
                        if self.stats.conflicts >= max {
                            return SatOutcome::Unknown(SatLimit::Conflicts);
                        }
                    }
                    if self.time_exhausted(start) {
                        return SatOutcome::Unknown(SatLimit::Time);
                    }
                } else {
                    if conflicts_here >= budget {
                        self.backtrack_to(0);
                        break; // restart
                    }
                    if self.stats.learnt_clauses as f64 >= max_learnts {
                        self.reduce_db();
                        max_learnts *= 1.1;
                    }
                    // Deep instances can make conflicts rare relative to
                    // decisions, so the wall clock is polled here too.
                    if self.time_exhausted(start) {
                        return SatOutcome::Unknown(SatLimit::Time);
                    }
                    match self.decide() {
                        None => {
                            let model: Vec<bool> =
                                self.assigns.iter().map(|&a| a.expect_bool()).collect();
                            return SatOutcome::Sat(model);
                        }
                        Some(l) => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(l, NO_REASON);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Lit;

    fn l(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn solve(clauses: &[&[i64]]) -> SatOutcome {
        let mut cnf = Cnf::new();
        for c in clauses {
            cnf.add_clause(&c.iter().map(|&d| l(d)).collect::<Vec<_>>());
        }
        SatSolver::solve_cnf(&cnf)
    }

    #[test]
    fn trivial_sat() {
        let out = solve(&[&[1, 2], &[-1, 2], &[1, -2]]);
        let m = out.model().expect("sat");
        assert!(m[0] && m[1]);
    }

    #[test]
    fn trivial_unsat() {
        assert_eq!(solve(&[&[1], &[-1]]), SatOutcome::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let cnf = Cnf::new();
        assert!(matches!(SatSolver::solve_cnf(&cnf), SatOutcome::Sat(_)));
    }

    #[test]
    fn all_binary_implications() {
        // Chain 1→2→3→4, plus unit 1: all forced true.
        let out = solve(&[&[1], &[-1, 2], &[-2, 3], &[-3, 4]]);
        let m = out.model().expect("sat");
        assert_eq!(m, vec![true; 4]);
    }

    #[test]
    fn unsat_chain() {
        assert_eq!(
            solve(&[&[1], &[-1, 2], &[-2, 3], &[-3], &[3, -2]]),
            SatOutcome::Unsat
        );
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{h,p}: pigeon p in hole h. Vars 1..=6 (2 holes × 3 pigeons).
        let var = |hole: i64, pigeon: i64| hole * 3 + pigeon + 1;
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for p in 0..3 {
            clauses.push((0..2).map(|h| var(h, p)).collect());
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in p1 + 1..3 {
                    clauses.push(vec![-var(h, p1), -var(h, p2)]);
                }
            }
        }
        let refs: Vec<&[i64]> = clauses.iter().map(Vec::as_slice).collect();
        assert_eq!(solve(&refs), SatOutcome::Unsat);
    }

    #[test]
    fn conflict_budget_reported() {
        // PHP(5,4) is hard enough to exceed one conflict.
        let cnf = pigeonhole(5, 4);
        let cfg = SatConfig {
            max_conflicts: Some(1),
            ..SatConfig::default()
        };
        let out = SatSolver::new(&cnf, cfg).solve();
        assert_eq!(out, SatOutcome::Unknown(SatLimit::Conflicts));
        // And without the budget it is proven unsat.
        assert_eq!(SatSolver::solve_cnf(&cnf), SatOutcome::Unsat);
    }

    /// PHP(pigeons → holes) as CNF: every pigeon in some hole, no hole
    /// shared. Unsatisfiable when `pigeons > holes`.
    fn pigeonhole(pigeons: i64, holes: i64) -> Cnf {
        let var = |h: i64, p: i64| h * pigeons + p + 1;
        let mut cnf = Cnf::new();
        for p in 0..pigeons {
            cnf.add_clause(&(0..holes).map(|h| l(var(h, p))).collect::<Vec<_>>());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    cnf.add_clause(&[l(-var(h, p1)), l(-var(h, p2))]);
                }
            }
        }
        cnf
    }

    #[test]
    fn interrupted_construction_never_reaches_a_verdict() {
        let php = pigeonhole(6, 5);
        // Raised before construction: nothing is loaded, and the empty
        // formula is satisfiable, so a search would answer `Sat`.
        let flag = Arc::new(AtomicBool::new(true));
        let mut s = SatSolver::with_interrupt(&php, SatConfig::default(), Some(flag.clone()));
        assert!(!s.loaded);
        assert_eq!(s.solve(), SatOutcome::Unknown(SatLimit::Interrupted));
        // Lowering the flag afterwards does not make the partial formula
        // searchable.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SatOutcome::Unknown(SatLimit::Interrupted));
        assert_eq!((s.stats().decisions, s.stats().conflicts), (0, 0));

        // Raised during construction: a satisfiable padding of several
        // poll intervals precedes the pigeonhole clauses, so a load cut
        // at any poll is satisfiable where the whole formula is not.
        let mut padded = Cnf::new();
        let base = 1 + 6 * 5;
        for k in 0..4 * LOAD_POLL_INTERVAL as i64 {
            padded.add_clause(&[l(base + k), l(base + k + 1)]);
        }
        for c in php.clauses() {
            padded.add_clause(&c);
        }
        for _ in 0..10 {
            let flag = Arc::new(AtomicBool::new(false));
            let raiser = {
                let flag = flag.clone();
                std::thread::spawn(move || flag.store(true, Ordering::Relaxed))
            };
            let mut s =
                SatSolver::with_interrupt(&padded, SatConfig::default(), Some(flag.clone()));
            raiser.join().unwrap();
            assert_eq!(s.solve(), SatOutcome::Unknown(SatLimit::Interrupted));
            flag.store(false, Ordering::Relaxed);
            // Whole formula loaded before the raise: the verdict stands.
            // Cut short: still never a verdict.
            let expected = if s.loaded {
                SatOutcome::Unsat
            } else {
                SatOutcome::Unknown(SatLimit::Interrupted)
            };
            assert_eq!(s.solve(), expected);
        }
    }

    #[test]
    fn never_raised_interrupt_leaves_the_verdict_alone() {
        let php = pigeonhole(6, 5);
        let flag = Arc::new(AtomicBool::new(false));
        let mut s = SatSolver::with_interrupt(&php, SatConfig::default(), Some(flag));
        assert!(s.loaded);
        assert_eq!(s.solve(), SatOutcome::Unsat);
        assert_eq!(
            SatSolver::new(&php, SatConfig::default()).solve(),
            SatOutcome::Unsat
        );
    }

    /// Solve `cnf` in slices of `step` conflicts, reducing the clause
    /// database between slices on top of the reductions the search makes
    /// itself. After each explicit reduction the arena must hold exactly
    /// the live clauses and groups, each with the literals it had before,
    /// and every watcher must point at a live clause. Returns the final
    /// verdict, the number of reductions that deleted clauses and the
    /// search counters.
    fn solve_reducing_every(cnf: &Cnf, step: u64) -> (SatOutcome, u32, SearchStats) {
        solve_reducing_until(cnf, step, u64::MAX)
    }

    /// [`solve_reducing_every`], given up as `Unknown(Conflicts)` once
    /// `limit` conflicts are spent: deleting learned clauses every few
    /// conflicts can keep a search from ever ending.
    fn solve_reducing_until(cnf: &Cnf, step: u64, limit: u64) -> (SatOutcome, u32, SearchStats) {
        let mut s = SatSolver::new(cnf, SatConfig::default());
        let mut reductions = 0;
        // A header's literals: a binary clause's pair, else its arena run.
        let lits = |s: &SatSolver, c: ClauseHeader| match c.kind {
            Kind::Binary => c.binary().to_vec(),
            Kind::Long | Kind::Group => s.arena[c.range()].to_vec(),
        };
        loop {
            s.cfg.max_conflicts = Some(s.stats().conflicts + step);
            match s.solve() {
                SatOutcome::Unknown(SatLimit::Conflicts) if s.stats().conflicts < limit => {}
                verdict => return (verdict, reductions, s.stats()),
            }
            let before: Vec<Option<Vec<Lit>>> = s
                .clauses
                .iter()
                .map(|&c| (!c.deleted).then(|| lits(&s, c)))
                .collect();
            let live_learnts = s.stats().learnt_clauses;
            s.reduce_db();
            if s.stats().learnt_clauses < live_learnts {
                reductions += 1;
            }
            assert!(s.arena_is_compact());
            let (mut live_lits, mut live_watchers) = (0, 0);
            for (&c, before) in s.clauses.iter().zip(&before) {
                if !c.deleted {
                    assert_eq!(Some(lits(&s, c)), *before);
                    if c.kind == Kind::Group {
                        live_lits += c.len as usize;
                        live_watchers += c.len as usize;
                    } else {
                        live_lits += if c.kind == Kind::Long {
                            c.len as usize
                        } else {
                            0
                        };
                        live_watchers += 2;
                    }
                }
            }
            assert_eq!(s.arena.len(), live_lits);
            let watchers: Vec<&Watcher> = s.watches.iter().collect();
            assert_eq!(watchers.len(), live_watchers);
            assert!(watchers.iter().all(|w| !s.clauses[w.cref.index()].deleted
                && w.cref.kind() == s.clauses[w.cref.index()].kind));
        }
    }

    #[test]
    fn reduce_db_compacts_the_arena_to_the_live_clauses() {
        let (verdict, reductions, _) = solve_reducing_every(&pigeonhole(8, 7), 150);
        assert_eq!(verdict, SatOutcome::Unsat);
        assert!(
            reductions >= 3,
            "only {reductions} reductions deleted clauses"
        );

        // Seeded random 3-SAT near the threshold, against brute force.
        let mut seed = 0x5eed_u64;
        let mut next = move |bound: u32| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            u32::try_from(seed >> 33).unwrap() % bound
        };
        for _ in 0..4 {
            let mut cnf = Cnf::new();
            let _ = cnf.new_vars(20);
            for _ in 0..86 {
                let c = [0; 3].map(|_| Lit::new(next(20), next(2) == 1));
                cnf.add_clause(&c);
            }
            let (verdict, _, _) = solve_reducing_every(&cnf, 5);
            match (verdict, cnf.brute_force()) {
                (SatOutcome::Sat(m), Some(_)) => assert!(cnf.eval(&m)),
                (SatOutcome::Unsat, None) => {}
                (verdict, oracle) => panic!("{verdict:?} against brute force {oracle:?}"),
            }
        }
    }

    /// [`pigeonhole`] with each hole's pairs posted as one at-most-one
    /// group: the same clauses, in the same order, once expanded.
    fn pigeonhole_groups(pigeons: i64, holes: i64) -> Cnf {
        let var = |h: i64, p: i64| h * pigeons + p + 1;
        let mut cnf = Cnf::new();
        for p in 0..pigeons {
            cnf.add_clause(&(0..holes).map(|h| l(var(h, p))).collect::<Vec<_>>());
        }
        for h in 0..holes {
            let hole: Vec<Lit> = (0..pigeons).map(|p| l(var(h, p))).collect();
            crate::at_most_one(&mut cnf, &hole, crate::AmoEncoding::Pairwise);
        }
        cnf
    }

    /// `pigeonhole(8, 7)` reduced every 150 conflicts, its pairs posted as
    /// binary clauses (which propagate from their watchers alone) and as
    /// groups. The counters are those of the solver that kept every
    /// binary clause in the arena, with no groups; they must not move.
    #[test]
    fn pigeonhole_search_tree_is_pinned() {
        let groups = pigeonhole_groups(8, 7);
        assert_eq!(groups.to_dimacs(), pigeonhole(8, 7).to_dimacs());
        for cnf in [pigeonhole(8, 7), groups] {
            let (verdict, reductions, stats) = solve_reducing_every(&cnf, 150);
            assert_eq!((verdict, reductions), (SatOutcome::Unsat, 58));
            let counters = (
                stats.solves,
                stats.decisions,
                stats.conflicts,
                stats.propagations,
                stats.restarts,
                stats.learnt_clauses,
            );
            assert_eq!(counters, (59, 11_531, 8_754, 109_931, 117, 203));
        }
    }

    /// A seeded random formula over `vars` variables that mixes units,
    /// binary and long clauses and pairwise at-most-one groups (some
    /// with a repeated variable, some also asking for at least one member).
    fn random_mixed(vars: u32, items: u32, mut seed: u64) -> Cnf {
        let mut next = move |bound: u32| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            u32::try_from(seed >> 33).unwrap() % bound
        };
        let mut cnf = Cnf::new();
        let _ = cnf.new_vars(vars);
        let mut lits: Vec<Lit> = Vec::new();
        for _ in 0..items {
            let kind = next(1000);
            let len = match kind {
                0..=5 => 1,
                6..=19 => 2,
                20..=44 => 3 + next(2),
                _ => 3,
            };
            lits.clear();
            for _ in 0..len {
                lits.push(Lit::new(next(vars), next(2) == 1));
            }
            match kind {
                0..=5 => cnf.add_unit(lits[0]),
                6..=19 => cnf.add_binary(lits[0], lits[1]),
                45.. => cnf.add_clause(&lits),
                _ => {
                    if next(3) == 0 {
                        cnf.add_clause(&lits);
                    }
                    crate::at_most_one(&mut cnf, &lits, crate::AmoEncoding::Pairwise);
                }
            }
        }
        cnf
    }

    /// Seeded random `colors`-colouring of a graph on `vertices` with
    /// `edges` random edges: each vertex takes at least one colour and at
    /// most one (a group), and no edge joins two vertices of one colour.
    fn random_colouring(vertices: u32, edges: u32, colors: u32, mut seed: u64) -> Cnf {
        let mut next = move |bound: u32| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            u32::try_from(seed >> 33).unwrap() % bound
        };
        let x = |v: u32, c: u32| Lit::pos(v * colors + c);
        let mut cnf = Cnf::new();
        let mut vertex: Vec<Lit> = Vec::new();
        for v in 0..vertices {
            vertex.clear();
            vertex.extend((0..colors).map(|c| x(v, c)));
            cnf.add_clause(&vertex);
            crate::at_most_one(&mut cnf, &vertex, crate::AmoEncoding::Pairwise);
        }
        for _ in 0..edges {
            let u = next(vertices);
            let v = (u + 1 + next(vertices - 1)) % vertices;
            for c in 0..colors {
                cnf.add_binary(!x(u, c), !x(v, c));
            }
        }
        cnf
    }

    /// Every clause activity of `s`, a group's pairs counted one by one
    /// (those without slots at 0), sorted; and the activity increment.
    /// The pairwise expansion of a formula must leave the same.
    fn clause_activities(s: &SatSolver) -> (Vec<f32>, f32) {
        let mut acts = Vec::new();
        for c in &s.clauses {
            if c.kind == Kind::Group {
                let g = c.len as usize;
                let pairs = g * (g - 1) / 2;
                if c.pair_slots == NO_SLOTS {
                    acts.extend(std::iter::repeat_n(0.0, pairs));
                } else {
                    acts.extend_from_slice(&s.pair_activity[c.pair_slots as usize..][..pairs]);
                }
            } else {
                acts.push(c.activity);
            }
        }
        acts.sort_by(f32::total_cmp);
        (acts, s.cla_inc)
    }

    /// Build a solver for `cnf`, start its clause activity increment at
    /// `cla_inc` (1 as usual; near 1e20 to rescale every activity within a
    /// few bumps) and solve under `max_conflicts`: the outcome, the
    /// counters and the clause activities.
    fn solve_from(
        cnf: &Cnf,
        cla_inc: f32,
        max_conflicts: u64,
    ) -> (SatOutcome, SearchStats, (Vec<f32>, f32)) {
        let cfg = SatConfig {
            max_conflicts: Some(max_conflicts),
            ..SatConfig::default()
        };
        let mut s = SatSolver::new(cnf, cfg);
        s.cla_inc = cla_inc;
        let outcome = s.solve();
        (outcome, s.stats(), clause_activities(&s))
    }

    /// A formula with native groups and its pairwise expansion (through
    /// DIMACS) search the same tree: same outcome, model and counters,
    /// plainly, with clause-activity rescales, and reduced every few
    /// conflicts. The formulas are seeded random mixes, pigeonhole formulas
    /// and graph colourings, where the pairs are most of the reasons and
    /// the learned-clause limit exceeds its floor.
    #[test]
    fn groups_search_like_their_pairwise_expansion() {
        let mixes = (0..120u64).map(|seed| {
            let (vars, items) = if seed % 10 == 9 {
                (120, 500)
            } else {
                (50 + seed % 4 * 10, 150 + seed % 4 * 30 + seed % 7 * 5)
            };
            let vars = u32::try_from(vars).unwrap();
            (random_mixed(vars, u32::try_from(items).unwrap(), seed), 3)
        });
        let holes = (3..=6).map(|h| (pigeonhole_groups(h + 1, h), 50));
        let colourings =
            (0..8).map(|seed| (random_colouring(60, 246 + 2 * seed, 4, seed.into()), 10));
        let (mut sat, mut unsat, mut conflicts, mut reductions) = (0, 0, 0, 0);
        for (k, (native, step)) in mixes.chain(holes).chain(colourings).enumerate() {
            let text = native.to_dimacs();
            let expanded = Cnf::from_dimacs(&text).unwrap();
            assert_eq!(expanded.to_dimacs(), text);
            assert_eq!(expanded.num_clauses(), native.num_clauses());
            for cla_inc in [1.0, 3e19] {
                let a = solve_from(&native, cla_inc, 1_000);
                assert_eq!(a, solve_from(&expanded, cla_inc, 1_000), "formula {k}");
                conflicts += a.1.conflicts;
                match &a.0 {
                    SatOutcome::Sat(m) => {
                        assert!(native.eval(m) && expanded.eval(m));
                        sat += 1;
                    }
                    SatOutcome::Unsat => unsat += 1,
                    SatOutcome::Unknown(_) => {}
                }
            }
            let a = solve_reducing_until(&native, step, 1_000);
            assert_eq!(
                a,
                solve_reducing_until(&expanded, step, 1_000),
                "formula {k}, reducing"
            );
            reductions += a.1;
        }
        assert!(sat > 100 && unsat > 100, "{sat} sat, {unsat} unsat");
        assert!(
            conflicts > 3_000 && reductions > 200,
            "{conflicts} conflicts, {reductions} reductions"
        );
    }

    /// Seeded random 3-SAT over 14 variables where every ninth clause
    /// also posts an at-most-one group over its literals: the verdicts
    /// agree with brute force, which evaluates each group as "at most one
    /// member true", not through its pairs.
    #[test]
    fn groups_agree_with_brute_force() {
        let (mut sat, mut unsat) = (0, 0);
        for mut seed in 0..120u64 {
            let mut next = move |bound: u32| {
                seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                u32::try_from(seed >> 33).unwrap() % bound
            };
            let mut cnf = Cnf::new();
            let _ = cnf.new_vars(14);
            for k in 0..40 {
                let c = [0; 3].map(|_| Lit::new(next(14), next(2) == 1));
                cnf.add_clause(&c);
                if k % 9 == 0 {
                    crate::at_most_one(&mut cnf, &c, crate::AmoEncoding::Pairwise);
                }
            }
            match (SatSolver::solve_cnf(&cnf), cnf.brute_force()) {
                (SatOutcome::Sat(m), Some(_)) => {
                    assert!(cnf.eval(&m));
                    sat += 1;
                }
                (SatOutcome::Unsat, None) => unsat += 1,
                (verdict, oracle) => panic!("{verdict:?} against brute force {oracle:?}"),
            }
        }
        assert!(sat > 20 && unsat > 20, "{sat} sat, {unsat} unsat");
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(SatSolver::luby).collect();
        assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn model_satisfies_formula() {
        // A small structured instance: parity-ish constraints.
        let clauses: Vec<Vec<i64>> = vec![
            vec![1, 2, 3],
            vec![-1, -2, 3],
            vec![-1, 2, -3],
            vec![1, -2, -3],
            vec![4, 5],
            vec![-4, -5],
            vec![3, 4],
        ];
        let mut cnf = Cnf::new();
        for c in &clauses {
            cnf.add_clause(&c.iter().map(|&d| l(d)).collect::<Vec<_>>());
        }
        match SatSolver::solve_cnf(&cnf) {
            SatOutcome::Sat(m) => assert!(cnf.eval(&m)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn stats_populated() {
        let mut cnf = Cnf::new();
        for d in 1..=6i64 {
            cnf.add_clause(&[l(d), l(-(d % 6 + 1))]);
        }
        let mut s = SatSolver::new(&cnf, SatConfig::default());
        let _ = s.solve();
        assert!(s.stats().restarts >= 1);
    }
}
