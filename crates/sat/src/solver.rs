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
//! Clauses live MiniSat-style in one literal arena: every clause's
//! literals sit back to back in a single `Vec<Lit>`, and the clause itself
//! is a small `Copy` header (`start`, `len`, activity, learnt and deleted
//! flags) indexed by its `ClauseRef`. Loading a formula appends each
//! clause's undecided literals to the arena tail and keeps them unless the
//! clause is satisfied or unit at the root; learned clauses are appended
//! the same way.
//!
//! Every literal's watch list is a span of one slab (`watch::WatchSlab`).
//! Before loading, one counting pass over the formula gives each list
//! exactly the capacity its clauses need and sizes the arena, so loading
//! moves no list and regrows nothing; a list that fills up later (root
//! filtering can shift a watch to a later literal, and learned clauses add
//! watchers) moves to the slab's tail at double capacity. The header table
//! is reserved for the problem clauses only (units never get a header);
//! learned clauses past that regrow it by doubling.
//!
//! Database reduction marks learned clauses deleted and then compacts the
//! arena: live clauses slide down in header order, and only their headers'
//! `start` changes. Headers never move, so clause references in watch
//! lists and in `reason[]` stay valid without remapping. The watch lists
//! are then recounted and laid out afresh, which also drops the garbage
//! left by moved lists.
//!
//! All of these buffers, and the per-variable arrays, are recycled per
//! thread ([`crate::MAX_RECYCLED_BYTES`]): a dropped solver leaves them to
//! the next one built on its thread, which takes them back cleared, so a
//! thread solving formula after formula neither allocates nor page-faults
//! per solve once it has seen its largest formula. Capacity a recycled
//! buffer brings along changes nothing but the allocations.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mgrts_obs::SearchStats;

use crate::cnf::Cnf;
use crate::heap::VarHeap;
use crate::recycle::{self, refill};
use crate::types::{LBool, Lit, Var};
use crate::watch::{ClauseRef, WatchSlab, Watcher};

const NO_REASON: ClauseRef = ClauseRef::MAX;

/// Where a clause's literals sit in the arena, plus its bookkeeping.
#[derive(Debug, Clone, Copy)]
struct ClauseHeader {
    start: u32,
    len: u32,
    activity: f32,
    learnt: bool,
    deleted: bool,
}

impl ClauseHeader {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
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

/// The CDCL solver.
#[derive(Debug)]
pub struct SatSolver {
    cfg: SatConfig,
    /// One header per clause ever attached, indexed by [`ClauseRef`].
    clauses: Vec<ClauseHeader>,
    /// The literals of every live clause, back to back.
    arena: Vec<Lit>,
    watches: WatchSlab,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    order: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
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
    watches: WatchSlab,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    activity: Vec<f64>,
    order: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
}

impl SolverBuffers {
    fn bytes(&self) -> usize {
        recycle::bytes(&self.clauses)
            + recycle::bytes(&self.arena)
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
        };
        let bytes = set.bytes();
        recycle::put(&SOLVER_BUFFERS, set, bytes);
    }
}

/// Clauses loaded between two interrupt polls while a solver is built.
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
    /// The flag is polled every 1024 clauses while the formula is sized and
    /// again while it loads, before the root propagation of each solve,
    /// and every propagation round of the search. When another thread
    /// raises it the search returns
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
        } = recycle::take(&SOLVER_BUFFERS).unwrap_or_default();
        clauses.clear();
        clauses.reserve(cnf.num_clauses());
        arena.clear();
        arena.reserve(cnf.num_lits());
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
        let mut s = SatSolver {
            cfg,
            clauses,
            arena,
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
        for (k, c) in cnf.clauses().enumerate() {
            if k % LOAD_POLL_INTERVAL == 0 && s.interrupted() {
                s.loaded = false;
                break;
            }
            s.add_clause(c);
            if !s.ok {
                break;
            }
        }
        s
    }

    /// Give each watch list the capacity for the clauses whose first two
    /// literals watch it, so loading rarely moves one: root-level
    /// filtering only drops literals (though it can shift a clause's
    /// watches to later ones). Returns false when the interrupt cut the
    /// pass.
    fn lay_out_watches(&mut self, cnf: &Cnf) -> bool {
        for (k, c) in cnf.clauses().enumerate() {
            if k % LOAD_POLL_INTERVAL == 0 && self.interrupted() {
                return false;
            }
            if let [a, b, ..] = *c {
                self.watches.count((!a).code());
                self.watches.count((!b).code());
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

    /// Add a problem clause at the root level. Returns false when the
    /// formula became trivially unsatisfiable.
    ///
    /// `lits` comes from a [`Cnf`], so it is already sorted, duplicate-free
    /// and not a tautology. Its undecided literals are copied to the arena
    /// tail, which becomes the clause unless a root-true literal satisfies
    /// it or at most one literal survives.
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert!(lits.windows(2).all(|w| w[0] < w[1]));
        if !self.ok {
            return false;
        }
        let start = self.arena.len();
        for &l in lits {
            match self.value(l) {
                LBool::True => {
                    self.arena.truncate(start);
                    return true;
                }
                LBool::False => {}
                LBool::Undef => self.arena.push(l),
            }
        }
        match self.arena.len() - start {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                let unit = self.arena[start];
                self.arena.truncate(start);
                self.enqueue(unit, NO_REASON);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach(start, false);
                true
            }
        }
    }

    /// Make the arena tail `arena[start..]` (at least two literals) a
    /// clause and watch its first two literals.
    fn attach(&mut self, start: usize, learnt: bool) -> ClauseRef {
        // The end fits u32, so `start + len` in a header never overflows.
        let end = u32::try_from(self.arena.len()).expect("arena fits u32");
        let start = u32::try_from(start).expect("start within the arena");
        debug_assert!(end - start >= 2);
        let cref = ClauseRef::try_from(self.clauses.len()).expect("clause count fits u32");
        let (a, b) = (self.arena[start as usize], self.arena[start as usize + 1]);
        self.watches.push((!a).code(), Watcher { cref, blocker: b });
        self.watches.push((!b).code(), Watcher { cref, blocker: a });
        self.clauses.push(ClauseHeader {
            start,
            len: end - start,
            activity: 0.0,
            learnt,
            deleted: false,
        });
        if learnt {
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    /// The literals of clause `cref`.
    fn lits(&self, cref: ClauseRef) -> &[Lit] {
        &self.arena[self.clauses[cref as usize].range()]
    }

    fn enqueue(&mut self, l: Lit, reason: ClauseRef) {
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
    /// put while other lists may move to the slab's tail.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let std::ops::Range { start, end } = self.watches.spans[p.code()].range();
            let (mut i, mut j) = (start, start);
            while i < end {
                let w = self.watches.slab[i];
                i += 1;
                // Fast path: blocker already true.
                if self.value(w.blocker) == LBool::True {
                    self.watches.slab[j] = w;
                    j += 1;
                    continue;
                }
                let header = self.clauses[w.cref as usize];
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
                if self.value(first) == LBool::False {
                    // Conflict: keep the remaining watchers and bail out.
                    self.watches.slab.copy_within(i..end, j);
                    j += end - i;
                    self.watches.spans[p.code()].len = (j - start) as u32;
                    self.qhead = self.trail.len();
                    return Some(w.cref);
                }
                self.enqueue(first, w.cref);
            }
            self.watches.spans[p.code()].len = (j - start) as u32;
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

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the level to backtrack to.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for the UIP
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            self.bump_clause(confl);
            let range = self.clauses[confl as usize].range();
            let skip_first = usize::from(p.is_some());
            for k in range.start + skip_first..range.end {
                let q = self.arena[k];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
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
                learnt[0] = !lit;
                break;
            }
            p = Some(lit);
            confl = self.reason[lit.var() as usize];
            debug_assert_ne!(confl, NO_REASON, "non-UIP literal must have a reason");
        }

        // Mark the kept literals for the redundancy check, then minimize.
        for &l in &learnt[1..] {
            self.seen[l.var() as usize] = true;
        }
        let mut minimized = vec![learnt[0]];
        for &l in &learnt[1..] {
            if !self.literal_redundant(l) {
                minimized.push(l);
            }
        }
        for &l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        self.seen[learnt[0].var() as usize] = false;

        // Backtrack level: highest level among the non-asserting literals;
        // put a literal of that level at index 1 (second watch).
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
        (minimized, bt)
    }

    /// Local redundancy check: `l` is redundant when it was propagated and
    /// every antecedent literal is already in the learned clause (seen) or
    /// fixed at the root level.
    fn literal_redundant(&self, l: Lit) -> bool {
        let reason = self.reason[l.var() as usize];
        if reason == NO_REASON {
            return false;
        }
        self.lits(reason).iter().all(|&q| {
            q.var() == l.var() || self.seen[q.var() as usize] || self.level[q.var() as usize] == 0
        })
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

    /// Delete the least active half of the learned clauses (reason clauses
    /// and binaries are kept), compact the arena, then rebuild the watch
    /// lists.
    ///
    /// A clause is a reason exactly when it implied its own first literal
    /// (`reason[var(c[0])] == cref`, MiniSat's `locked`): propagation and
    /// learning put the implied literal at position 0, nothing moves it
    /// while the clause stays a reason, and compaction keeps literal order.
    fn reduce_db(&mut self) {
        let mut acts: Vec<f32> = self
            .clauses
            .iter()
            .filter(|c| c.learnt && !c.deleted && c.len > 2)
            .map(|c| c.activity)
            .collect();
        if acts.len() < 2 {
            return;
        }
        acts.sort_by(f32::total_cmp);
        let threshold = acts[acts.len() / 2];
        for (i, c) in self.clauses.iter_mut().enumerate() {
            let cref = ClauseRef::try_from(i).expect("index fits");
            let locked = || self.reason[self.arena[c.start as usize].var() as usize] == cref;
            if c.learnt && !c.deleted && c.len > 2 && c.activity < threshold && !locked() {
                c.deleted = true;
                self.stats.learnt_clauses -= 1;
            }
        }
        // Slide the surviving clauses down over the deleted ones' literals;
        // headers stay put, so clause references remain valid.
        let mut end = 0u32;
        for c in self.clauses.iter_mut().filter(|c| !c.deleted) {
            self.arena.copy_within(c.range(), end as usize);
            c.start = end;
            end += c.len;
        }
        self.arena.truncate(end as usize);
        debug_assert!(self.arena_is_compact());
        // Recount and lay out the watch lists, then refill them from the
        // surviving clauses in header order.
        self.watches.reset(2 * self.assigns.len());
        for c in self.clauses.iter().filter(|c| !c.deleted) {
            let a = self.arena[c.start as usize];
            let b = self.arena[c.start as usize + 1];
            self.watches.count((!a).code());
            self.watches.count((!b).code());
        }
        self.watches.lay_out();
        for (i, c) in self.clauses.iter().enumerate() {
            if c.deleted {
                continue;
            }
            let cref = ClauseRef::try_from(i).expect("index fits");
            let (a, b) = (
                self.arena[c.start as usize],
                self.arena[c.start as usize + 1],
            );
            self.watches.push((!a).code(), Watcher { cref, blocker: b });
            self.watches.push((!b).code(), Watcher { cref, blocker: a });
        }
    }

    /// True when the arena holds exactly the live clauses' literals, back to
    /// back in header order — the state [`SatSolver::reduce_db`] leaves.
    fn arena_is_compact(&self) -> bool {
        let mut end = 0;
        for c in self.clauses.iter().filter(|c| !c.deleted) {
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
        let mut max_learnts = (self.clauses.len() as f64 * self.cfg.learntsize_factor).max(100.0);
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
                    let (learnt, bt) = self.analyze(confl);
                    self.backtrack_to(bt);
                    if learnt.len() == 1 {
                        self.enqueue(learnt[0], NO_REASON);
                    } else {
                        let start = self.arena.len();
                        self.arena.extend_from_slice(&learnt);
                        let cref = self.attach(start, true);
                        self.bump_clause(cref);
                        self.enqueue(learnt[0], cref);
                    }
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
            padded.add_clause(c);
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
    /// the live clauses, each with the literals it had before, and every
    /// watcher must point at a live clause. Returns the final verdict and
    /// the number of reductions that deleted clauses.
    fn solve_reducing_every(cnf: &Cnf, step: u64) -> (SatOutcome, u32) {
        let mut s = SatSolver::new(cnf, SatConfig::default());
        let mut reductions = 0;
        loop {
            s.cfg.max_conflicts = Some(s.stats().conflicts + step);
            match s.solve() {
                SatOutcome::Unknown(SatLimit::Conflicts) => {}
                verdict => return (verdict, reductions),
            }
            let crefs = 0..ClauseRef::try_from(s.clauses.len()).unwrap();
            let before: Vec<Option<Vec<Lit>>> = crefs
                .clone()
                .map(|c| (!s.clauses[c as usize].deleted).then(|| s.lits(c).to_vec()))
                .collect();
            let live_learnts = s.stats().learnt_clauses;
            s.reduce_db();
            if s.stats().learnt_clauses < live_learnts {
                reductions += 1;
            }
            assert!(s.arena_is_compact());
            let mut live_lits = 0;
            for cref in crefs {
                let c = s.clauses[cref as usize];
                if !c.deleted {
                    assert_eq!(Some(s.lits(cref)), before[cref as usize].as_deref());
                    live_lits += c.len as usize;
                }
            }
            assert_eq!(s.arena.len(), live_lits);
            let live = s.clauses.iter().filter(|c| !c.deleted).count();
            let watchers: Vec<&Watcher> = s.watches.iter().collect();
            assert_eq!(watchers.len(), 2 * live);
            assert!(watchers.iter().all(|w| !s.clauses[w.cref as usize].deleted));
        }
    }

    #[test]
    fn reduce_db_compacts_the_arena_to_the_live_clauses() {
        let (verdict, reductions) = solve_reducing_every(&pigeonhole(8, 7), 150);
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
            let (verdict, _) = solve_reducing_every(&cnf, 5);
            match (verdict, cnf.brute_force()) {
                (SatOutcome::Sat(m), Some(_)) => assert!(cnf.eval(&m)),
                (SatOutcome::Unsat, None) => {}
                (verdict, oracle) => panic!("{verdict:?} against brute force {oracle:?}"),
            }
        }
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
