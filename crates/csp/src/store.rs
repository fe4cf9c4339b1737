//! Trailed variable store: bitset domains with O(1) backtracking.
//!
//! All domains live in one flattened word array for cache locality. Every
//! destructive update saves the overwritten word (and the per-variable
//! min/max/size summary) to a trail the first time it is touched within the
//! current decision level; [`Store::backtrack`] replays the trail in reverse.
//! "First time this level" is detected with monotonically increasing stamps,
//! so stale level markers can never alias after deep backtracking.
//!
//! Beyond domains, the store owns two further pieces of trailed state that
//! the incremental propagation engine is built on:
//!
//! * **state cells** ([`Store::new_state_cell`]) — `i64` scratch registers
//!   that propagators use for running sums and counters. Writes go through
//!   the same stamp/trail machinery as domain words, so cached propagator
//!   state is rewound in lockstep with the domains it mirrors;
//! * an **unfixed-variable sparse set** ([`Store::unfixed_vars`]) maintained
//!   on every fixing operation and restored by the trail, so variable-
//!   selection heuristics never rescan already-fixed variables.
//!
//! Every domain change also records *what kind* of change it was (an
//! [`EventMask`]), letting the solver wake only the propagators that
//! subscribed to that event kind.

use crate::nogood::{ConflictInfo, LogEntry, Pred, Reason};

/// Index of a decision variable.
pub type VarId = usize;

/// Domain values. `i32` is wide enough for every client in this workspace
/// (booleans, task indices, small integers).
pub type Val = i32;

/// A bitmask of domain-change kinds, used both to describe what happened to
/// a variable (the store side) and to filter which changes wake a
/// propagator (the solver side).
///
/// Any change removes at least one value, so [`EventMask::REMOVE`] is set
/// on every event; the other bits refine it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EventMask(u8);

impl EventMask {
    /// The empty mask (no events).
    pub const NONE: EventMask = EventMask(0);
    /// At least one value was removed (set on every change).
    pub const REMOVE: EventMask = EventMask(1);
    /// The minimum increased.
    pub const MIN: EventMask = EventMask(2);
    /// The maximum decreased.
    pub const MAX: EventMask = EventMask(4);
    /// The domain became a singleton.
    pub const FIX: EventMask = EventMask(8);
    /// A bound moved or the variable was fixed — the subscription used by
    /// bounds-consistency propagators.
    pub const BOUNDS: EventMask = EventMask(2 | 4 | 8);
    /// Any change at all.
    pub const ANY: EventMask = EventMask(0xf);

    /// Do the two masks share an event kind?
    #[must_use]
    pub fn intersects(self, other: EventMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Is this the empty mask?
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for EventMask {
    type Output = EventMask;
    fn bitor(self, rhs: EventMask) -> EventMask {
        EventMask(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for EventMask {
    fn bitor_assign(&mut self, rhs: EventMask) {
        self.0 |= rhs.0;
    }
}

/// Handle to a trailed `i64` state cell allocated with
/// [`Store::new_state_cell`]. Propagators keep these for running sums,
/// counters and flags that must rewind together with the domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateId(u32);

impl StateId {
    /// The `k`-th cell of a block allocated by [`Store::new_state_cells`]
    /// starting at `self`.
    pub(crate) fn offset(self, k: usize) -> StateId {
        StateId(self.0 + k as u32)
    }
}

#[derive(Debug, Clone, Copy)]
struct VarMeta {
    /// First word of this domain in `words`.
    offset: u32,
    /// Number of words.
    nwords: u32,
    /// Value represented by bit 0 of word `offset`.
    base: Val,
    /// Current cardinality.
    size: u32,
    /// Current minimum value.
    min: Val,
    /// Current maximum value.
    max: Val,
}

#[derive(Debug, Clone, Copy)]
enum TrailEntry {
    Word {
        idx: u32,
        old: u64,
    },
    Meta {
        var: u32,
        size: u32,
        min: Val,
        max: Val,
    },
    State {
        idx: u32,
        old: i64,
    },
    UnfixedLen {
        len: u32,
    },
}

/// The store of all variable domains plus the backtracking trail.
#[derive(Debug, Clone)]
pub struct Store {
    words: Vec<u64>,
    word_stamp: Vec<u64>,
    vars: Vec<VarMeta>,
    var_stamp: Vec<u64>,
    trail: Vec<TrailEntry>,
    level_marks: Vec<usize>,
    stamp: u64,
    /// Variables modified since the queue was last drained (paired with the
    /// accumulated event kinds in `dirty_mask`); consumed by the solver to
    /// wake watching propagators.
    dirty: Vec<VarId>,
    dirty_mask: Vec<u8>,
    /// Trailed propagator state cells.
    state: Vec<i64>,
    state_stamp: Vec<u64>,
    /// Sparse set of unfixed variables: the active prefix
    /// `unfixed[..unfixed_len]` holds exactly the variables with domain
    /// size > 1. Only the length needs trailing — detached elements stay in
    /// place past the boundary, so restoring the length re-activates them.
    unfixed: Vec<u32>,
    unfixed_pos: Vec<u32>,
    unfixed_len: usize,
    unfixed_stamp: u64,
    /// Monotone counter bumped on every domain mutation *and* every
    /// backtrack. Equality of two [`Store::version`] reads proves the
    /// domains (and, because only backtracking rewinds them, all trailed
    /// state cells not written in between) are bit-identical — the O(1)
    /// fixpoint guard the residual-support propagators use to skip
    /// self-triggered re-runs.
    version: u64,
    /// Per-variable union of the event kinds any propagator subscribed to
    /// ([`Store::set_wake_masks`]). Events outside the mask are dropped at
    /// the source instead of being queued, drained and then filtered by
    /// the solver. Defaults to [`EventMask::ANY`] so a bare store (tests,
    /// the reference engine) sees every event.
    wake_mask: Vec<u8>,
    /// Monotone count of domain values removed by narrowing operations
    /// (never rewound by backtracking: un-done removals still happened).
    /// The solver diffs this around each propagator run for the per-kind
    /// prune telemetry.
    prunes: u64,
    /// Monotone count of GAC matching rebuilds
    /// ([`Store::note_gac_rebuild`]).
    gac_rebuilds: u64,
    /// When true, every non-root mutation appends semantic
    /// [`LogEntry`] records to `llog` for conflict analysis. Root writes
    /// are permanent facts and never logged (a log lookup miss therefore
    /// *means* "root fact" and is dropped from nogoods).
    learn: bool,
    /// The semantic prune log (learning mode only).
    llog: Vec<LogEntry>,
    /// Log marks parallel to `level_marks`: `llog.len()` at each
    /// [`Store::push_level`]. Maintained unconditionally (cheap) so the
    /// `learn` flag can be toggled between solves without desyncing.
    lmarks: Vec<u32>,
    /// Per-variable head of the intrusive latest-first chain through
    /// `llog` (`u32::MAX` = no entry).
    var_head: Vec<u32>,
    /// The reason attached to entries logged by the next mutations
    /// (installed by the solver before decisions, propagator runs and
    /// nogood enforcements).
    reason_ctx: Reason,
    /// Set on a wiped-out mutation while learning; consumed by conflict
    /// analysis.
    conflict: Option<ConflictInfo>,
}

/// Raised by a pruning operation that wipes a domain out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyDomain(pub VarId);

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Store {
            words: Vec::new(),
            word_stamp: Vec::new(),
            vars: Vec::new(),
            var_stamp: Vec::new(),
            trail: Vec::new(),
            level_marks: Vec::new(),
            stamp: 1,
            dirty: Vec::new(),
            dirty_mask: Vec::new(),
            state: Vec::new(),
            state_stamp: Vec::new(),
            unfixed: Vec::new(),
            unfixed_pos: Vec::new(),
            unfixed_len: 0,
            unfixed_stamp: 0,
            version: 0,
            wake_mask: Vec::new(),
            prunes: 0,
            gac_rebuilds: 0,
            learn: false,
            llog: Vec::new(),
            lmarks: Vec::new(),
            var_head: Vec::new(),
            reason_ctx: Reason::Decision,
            conflict: None,
        }
    }

    /// Empty the store back to [`Store::new`]'s state, keeping every
    /// buffer's capacity (the solver recycles stores across models).
    pub(crate) fn reset(&mut self) {
        // Destructured field by field: a field added to the store fails
        // to compile here until its reset is decided.
        let Store {
            words,
            word_stamp,
            vars,
            var_stamp,
            trail,
            level_marks,
            stamp,
            dirty,
            dirty_mask,
            state,
            state_stamp,
            unfixed,
            unfixed_pos,
            unfixed_len,
            unfixed_stamp,
            version,
            wake_mask,
            prunes,
            gac_rebuilds,
            learn,
            llog,
            lmarks,
            var_head,
            reason_ctx,
            conflict,
        } = self;
        words.clear();
        word_stamp.clear();
        vars.clear();
        var_stamp.clear();
        trail.clear();
        level_marks.clear();
        dirty.clear();
        dirty_mask.clear();
        state.clear();
        state_stamp.clear();
        unfixed.clear();
        unfixed_pos.clear();
        wake_mask.clear();
        llog.clear();
        lmarks.clear();
        var_head.clear();
        *stamp = 1;
        *unfixed_len = 0;
        *unfixed_stamp = 0;
        *version = 0;
        *prunes = 0;
        *gac_rebuilds = 0;
        *learn = false;
        *reason_ctx = Reason::Decision;
        *conflict = None;
    }

    /// Make room for `vars` more variables spanning `words` more domain
    /// words, so that creating them allocates nothing.
    pub(crate) fn reserve(&mut self, vars: usize, words: usize) {
        self.words.reserve(words);
        self.word_stamp.reserve(words);
        self.vars.reserve(vars);
        self.var_stamp.reserve(vars);
        self.dirty_mask.reserve(vars);
        self.wake_mask.reserve(vars);
        self.var_head.reserve(vars);
        self.unfixed.reserve(vars);
        self.unfixed_pos.reserve(vars);
        self.dirty.reserve(vars);
    }

    /// Make room for `cells` more state cells.
    pub(crate) fn reserve_state(&mut self, cells: usize) {
        self.state.reserve(cells);
        self.state_stamp.reserve(cells);
    }

    /// Bytes of capacity held by the store's buffers.
    pub(crate) fn bytes(&self) -> usize {
        use mgrts_obs::recycle::bytes;
        bytes(&self.words)
            + bytes(&self.word_stamp)
            + bytes(&self.vars)
            + bytes(&self.var_stamp)
            + bytes(&self.trail)
            + bytes(&self.level_marks)
            + bytes(&self.dirty)
            + bytes(&self.dirty_mask)
            + bytes(&self.state)
            + bytes(&self.state_stamp)
            + bytes(&self.unfixed)
            + bytes(&self.unfixed_pos)
            + bytes(&self.wake_mask)
            + bytes(&self.llog)
            + bytes(&self.lmarks)
            + bytes(&self.var_head)
    }

    /// Create a variable with domain `[lb, ub]` (inclusive). Panics if
    /// `lb > ub`. Variables should be created at the root level, before any
    /// [`Store::push_level`].
    pub fn new_var(&mut self, lb: Val, ub: Val) -> VarId {
        assert!(lb <= ub, "empty initial domain");
        let span = (ub - lb) as u64 + 1;
        let nwords = span.div_ceil(64) as u32;
        let offset = self.words.len() as u32;
        for w in 0..nwords {
            let lo = u64::from(w) * 64;
            let hi = (lo + 64).min(span);
            let word = if hi - lo == 64 {
                u64::MAX
            } else {
                (1u64 << (hi - lo)) - 1
            };
            self.words.push(word);
            self.word_stamp.push(0);
        }
        self.vars.push(VarMeta {
            offset,
            nwords,
            base: lb,
            size: span as u32,
            min: lb,
            max: ub,
        });
        self.var_stamp.push(0);
        self.dirty_mask.push(0);
        self.wake_mask.push(EventMask::ANY.0);
        self.var_head.push(u32::MAX);
        let v = self.vars.len() - 1;
        // Insert into the unfixed sparse set at the active boundary (the
        // tail may hold detached variables).
        let end = self.unfixed.len();
        self.unfixed.push(v as u32);
        self.unfixed_pos.push(end as u32);
        if end != self.unfixed_len {
            self.unfixed.swap(self.unfixed_len, end);
            let moved = self.unfixed[end] as usize;
            self.unfixed_pos[moved] = end as u32;
            self.unfixed_pos[v] = self.unfixed_len as u32;
        }
        self.unfixed_len += 1;
        if span == 1 {
            self.detach_unfixed(v);
        }
        v
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Current decision depth (0 at root).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.level_marks.len()
    }

    /// Current trail length (entries pending undo). The solver samples
    /// this at each decision for the peak-trail telemetry.
    #[must_use]
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// Monotone count of domain values removed so far (see the `prunes`
    /// field; backtracking does not decrement it).
    #[must_use]
    pub fn prune_count(&self) -> u64 {
        self.prunes
    }

    /// Monotone count of GAC matching rebuilds recorded so far.
    #[must_use]
    pub fn gac_rebuild_count(&self) -> u64 {
        self.gac_rebuilds
    }

    /// Record one GAC matching rebuild (called by the Régin all-different
    /// propagator when it recomputes its maximum matching).
    pub fn note_gac_rebuild(&mut self) {
        self.gac_rebuilds += 1;
    }

    /// Current minimum of `v`'s domain.
    #[must_use]
    pub fn min(&self, v: VarId) -> Val {
        self.vars[v].min
    }

    /// Current maximum of `v`'s domain.
    #[must_use]
    pub fn max(&self, v: VarId) -> Val {
        self.vars[v].max
    }

    /// Current cardinality of `v`'s domain.
    #[must_use]
    pub fn size(&self, v: VarId) -> u32 {
        self.vars[v].size
    }

    /// Is `v` fixed (singleton domain)?
    #[must_use]
    pub fn is_fixed(&self, v: VarId) -> bool {
        self.vars[v].size == 1
    }

    /// Value of a fixed variable. Panics if unfixed (callers check first).
    #[must_use]
    pub fn value(&self, v: VarId) -> Val {
        debug_assert!(self.is_fixed(v));
        self.vars[v].min
    }

    /// Monotone domain-state version: bumped on every successful domain
    /// mutation and on every backtrack, never decremented. Two equal reads
    /// bracket a window in which no domain changed at all — propagators
    /// whose pruning is a pure function of the domains use this to skip
    /// re-runs triggered by their own removals.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Install per-variable wake masks (the union, per variable, of every
    /// watching propagator's event subscription). Events a variable's mask
    /// does not cover are dropped at the source: they never enter the dirty
    /// queue, so the backtracking hot path skips their bookkeeping
    /// entirely. Called once by the solver after the watcher lists are
    /// built; `masks` must have one entry per variable.
    pub fn set_wake_masks(&mut self, masks: &[EventMask]) {
        assert_eq!(masks.len(), self.vars.len());
        for (slot, m) in self.wake_mask.iter_mut().zip(masks) {
            *slot = m.0;
        }
    }

    /// The raw domain bitset of `v`: the value represented by bit 0 of the
    /// first word, and the words themselves (64 values per word, ascending).
    /// This is the word-level access path the value-graph builders use to
    /// walk domains without per-value bounds checks.
    #[must_use]
    pub fn domain_words(&self, v: VarId) -> (Val, &[u64]) {
        let meta = &self.vars[v];
        let lo = meta.offset as usize;
        (meta.base, &self.words[lo..lo + meta.nwords as usize])
    }

    /// Does `v`'s domain contain `val`?
    #[must_use]
    pub fn contains(&self, v: VarId, val: Val) -> bool {
        let meta = &self.vars[v];
        if val < meta.min || val > meta.max {
            return false;
        }
        let bit = (val - meta.base) as u64;
        let w = meta.offset as usize + (bit / 64) as usize;
        self.words[w] >> (bit % 64) & 1 == 1
    }

    /// Iterate the current domain of `v` in ascending order.
    pub fn iter(&self, v: VarId) -> impl Iterator<Item = Val> + '_ {
        let meta = self.vars[v];
        (0..meta.nwords).flat_map(move |wi| {
            let word = self.words[(meta.offset + wi) as usize];
            BitIter { word }.map(move |b| meta.base + (wi * 64) as Val + b as Val)
        })
    }

    /// `n`-th (0-based) smallest value of the domain. Panics if out of range.
    #[must_use]
    pub fn nth_value(&self, v: VarId, mut n: u32) -> Val {
        let meta = self.vars[v];
        for wi in 0..meta.nwords {
            let word = self.words[(meta.offset + wi) as usize];
            let ones = word.count_ones();
            if n < ones {
                let b = select_bit(word, n);
                return meta.base + (wi * 64) as Val + b as Val;
            }
            n -= ones;
        }
        panic!("nth_value out of range");
    }

    // -- trailed state cells -------------------------------------------------

    /// Allocate a trailed `i64` state cell holding `init`. Writes after the
    /// root level are undone by [`Store::backtrack`] exactly like domain
    /// changes, which is what keeps incremental propagator state consistent
    /// with the domains across backtracking.
    pub fn new_state_cell(&mut self, init: i64) -> StateId {
        self.state.push(init);
        self.state_stamp.push(0);
        StateId((self.state.len() - 1) as u32)
    }

    /// Allocate `n` consecutive trailed state cells holding `init`; the
    /// first is returned, the `k`-th is its [`StateId::offset`]`(k)`.
    pub(crate) fn new_state_cells(&mut self, n: usize, init: i64) -> StateId {
        let first = StateId(self.state.len() as u32);
        self.state.resize(self.state.len() + n, init);
        self.state_stamp.resize(self.state_stamp.len() + n, 0);
        first
    }

    /// Current value of a state cell.
    #[must_use]
    pub fn state(&self, id: StateId) -> i64 {
        self.state[id.0 as usize]
    }

    /// Write a state cell (trailed; a no-op when the value is unchanged).
    pub fn set_state(&mut self, id: StateId, value: i64) {
        let idx = id.0 as usize;
        if self.state[idx] == value {
            return;
        }
        if !self.level_marks.is_empty() && self.state_stamp[idx] != self.stamp {
            self.state_stamp[idx] = self.stamp;
            self.trail.push(TrailEntry::State {
                idx: id.0,
                old: self.state[idx],
            });
        }
        self.state[idx] = value;
    }

    // -- unfixed sparse set --------------------------------------------------

    /// The variables whose domain currently has more than one value, in
    /// arbitrary order. Heuristics iterate this instead of rescanning all
    /// variables.
    pub fn unfixed_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.unfixed[..self.unfixed_len].iter().map(|&v| v as usize)
    }

    /// Number of unfixed variables.
    #[must_use]
    pub fn num_unfixed(&self) -> usize {
        self.unfixed_len
    }

    fn save_unfixed_len(&mut self) {
        if self.level_marks.is_empty() {
            return;
        }
        if self.unfixed_stamp != self.stamp {
            self.unfixed_stamp = self.stamp;
            self.trail.push(TrailEntry::UnfixedLen {
                len: self.unfixed_len as u32,
            });
        }
    }

    /// Remove `v` from the active prefix (called exactly when its domain
    /// transitions to a singleton).
    fn detach_unfixed(&mut self, v: VarId) {
        let p = self.unfixed_pos[v] as usize;
        debug_assert!(p < self.unfixed_len, "detach of already-fixed var");
        self.save_unfixed_len();
        let last = self.unfixed_len - 1;
        let w = self.unfixed[last] as usize;
        self.unfixed.swap(p, last);
        self.unfixed_pos[w] = p as u32;
        self.unfixed_pos[v] = last as u32;
        self.unfixed_len = last;
    }

    // -- levels and trail ----------------------------------------------------

    /// Open a new decision level.
    pub fn push_level(&mut self) {
        self.level_marks.push(self.trail.len());
        self.lmarks.push(self.llog.len() as u32);
        self.stamp += 1;
    }

    /// Undo all changes of the innermost decision level. Panics at root.
    ///
    /// The trail suffix is replayed in reverse as one batch (iterate, then a
    /// single `truncate`) rather than entry-by-entry `pop`s — on the
    /// conflict-dense chronological path this loop is hot and the batched
    /// form keeps it a straight scan with one length write at the end.
    pub fn backtrack(&mut self) {
        let mark = self.level_marks.pop().expect("backtrack at root");
        for i in (mark..self.trail.len()).rev() {
            match self.trail[i] {
                TrailEntry::Word { idx, old } => self.words[idx as usize] = old,
                TrailEntry::Meta {
                    var,
                    size,
                    min,
                    max,
                } => {
                    let m = &mut self.vars[var as usize];
                    m.size = size;
                    m.min = min;
                    m.max = max;
                }
                TrailEntry::State { idx, old } => self.state[idx as usize] = old,
                TrailEntry::UnfixedLen { len } => self.unfixed_len = len as usize,
            }
        }
        self.trail.truncate(mark);
        // Rewind the semantic prune log in lockstep: restore each entry's
        // variable chain head, then drop the suffix.
        let lmark = self.lmarks.pop().expect("lmarks desynced") as usize;
        for i in (lmark..self.llog.len()).rev() {
            let e = self.llog[i];
            self.var_head[e.pred.var] = e.prev;
        }
        self.llog.truncate(lmark);
        self.stamp += 1;
        self.version += 1;
        self.clear_dirty();
    }

    /// Undo everything back to the root level.
    pub fn backtrack_to_root(&mut self) {
        while !self.level_marks.is_empty() {
            self.backtrack();
        }
    }

    // -- semantic prune log (learning mode) ----------------------------------

    /// Enable/disable the semantic prune log. The level-mark bookkeeping is
    /// always maintained, so toggling between solves is safe at any depth.
    pub(crate) fn set_learning(&mut self, on: bool) {
        self.learn = on;
    }

    /// Install the reason recorded on entries logged by subsequent
    /// mutations.
    pub(crate) fn set_reason(&mut self, r: Reason) {
        self.reason_ctx = r;
    }

    /// Consume the conflict context captured by the last wiped-out
    /// mutation (learning mode only).
    pub(crate) fn take_conflict(&mut self) -> Option<ConflictInfo> {
        self.conflict.take()
    }

    /// The semantic prune log (learning mode only; empty otherwise).
    pub(crate) fn log(&self) -> &[LogEntry] {
        &self.llog
    }

    /// Current log length — recorded by the solver as each propagator
    /// run's `run_start`.
    pub(crate) fn log_len(&self) -> u32 {
        self.llog.len() as u32
    }

    /// Latest log position concerning `v` (`u32::MAX` = none).
    pub(crate) fn var_log_head(&self, v: VarId) -> u32 {
        self.var_head[v]
    }

    /// Append one log entry for `pred` (which just became true) at the
    /// current depth.
    fn log_pred(&mut self, pred: Pred, base: Val, reason: Reason) {
        let v = pred.var;
        let prev = self.var_head[v];
        self.var_head[v] = self.llog.len() as u32;
        self.llog.push(LogEntry {
            pred,
            base,
            reason,
            level: self.level_marks.len() as u32,
            prev,
        });
    }

    /// Move the modified-variable set, with the accumulated [`EventMask`]
    /// per variable, into `out` (appending). The solver wakes watching
    /// propagators from this.
    pub fn drain_dirty(&mut self, out: &mut Vec<(VarId, EventMask)>) {
        for &v in &self.dirty {
            out.push((v, EventMask(self.dirty_mask[v])));
            self.dirty_mask[v] = 0;
        }
        self.dirty.clear();
    }

    /// Discard any pending dirty events.
    pub fn clear_dirty(&mut self) {
        for i in 0..self.dirty.len() {
            let v = self.dirty[i];
            self.dirty_mask[v] = 0;
        }
        self.dirty.clear();
    }

    fn save_meta(&mut self, v: VarId) {
        if self.level_marks.is_empty() {
            return; // root-level changes are permanent
        }
        if self.var_stamp[v] != self.stamp {
            self.var_stamp[v] = self.stamp;
            let m = &self.vars[v];
            self.trail.push(TrailEntry::Meta {
                var: v as u32,
                size: m.size,
                min: m.min,
                max: m.max,
            });
        }
    }

    fn save_word(&mut self, idx: usize) {
        if self.level_marks.is_empty() {
            return;
        }
        if self.word_stamp[idx] != self.stamp {
            self.word_stamp[idx] = self.stamp;
            self.trail.push(TrailEntry::Word {
                idx: idx as u32,
                old: self.words[idx],
            });
        }
    }

    fn recompute_min(&mut self, v: VarId) {
        let meta = self.vars[v];
        for wi in ((meta.min - meta.base) as u64 / 64) as u32..meta.nwords {
            let word = self.words[(meta.offset + wi) as usize];
            if word != 0 {
                self.vars[v].min = meta.base + (wi * 64) as Val + word.trailing_zeros() as Val;
                return;
            }
        }
        unreachable!("recompute_min on empty domain");
    }

    fn recompute_max(&mut self, v: VarId) {
        let meta = self.vars[v];
        for wi in (0..=((meta.max - meta.base) as u64 / 64) as u32).rev() {
            let word = self.words[(meta.offset + wi) as usize];
            if word != 0 {
                self.vars[v].max =
                    meta.base + (wi * 64) as Val + (63 - word.leading_zeros()) as Val;
                return;
            }
        }
        unreachable!("recompute_max on empty domain");
    }

    fn mark_dirty(&mut self, v: VarId, ev: EventMask) {
        self.version += 1;
        let delivered = ev.0 & self.wake_mask[v];
        if delivered == 0 {
            return; // nobody subscribed to any of these event kinds
        }
        if self.dirty_mask[v] == 0 {
            self.dirty.push(v);
        }
        self.dirty_mask[v] |= delivered;
    }

    /// Remove `val` from `v`. Returns `Ok(true)` if the domain changed.
    pub fn remove(&mut self, v: VarId, val: Val) -> Result<bool, EmptyDomain> {
        if !self.contains(v, val) {
            return Ok(false);
        }
        if self.vars[v].size == 1 {
            if self.learn {
                self.conflict = Some(ConflictInfo {
                    requested: Pred::ne(v, val),
                    holding: Pred::eq(v, self.vars[v].min),
                    reason: self.reason_ctx,
                });
            }
            return Err(EmptyDomain(v));
        }
        self.save_meta(v);
        let meta = self.vars[v];
        let bit = (val - meta.base) as u64;
        let idx = meta.offset as usize + (bit / 64) as usize;
        self.save_word(idx);
        self.words[idx] &= !(1u64 << (bit % 64));
        self.vars[v].size -= 1;
        self.prunes += 1;
        let mut ev = EventMask::REMOVE;
        if val == meta.min {
            self.recompute_min(v);
            ev |= EventMask::MIN;
        }
        if val == meta.max {
            self.recompute_max(v);
            ev |= EventMask::MAX;
        }
        if self.vars[v].size == 1 {
            ev |= EventMask::FIX;
            self.detach_unfixed(v);
        }
        if self.learn && !self.level_marks.is_empty() {
            // Entry order matters: later entries may cite earlier positions
            // of the same mutation (the bound cites the removal, the fix
            // cites the bound).
            self.log_pred(Pred::ne(v, val), val, self.reason_ctx);
            if ev.intersects(EventMask::MIN) {
                self.log_pred(Pred::ge(v, self.vars[v].min), val + 1, Reason::Bound);
            }
            if ev.intersects(EventMask::MAX) {
                self.log_pred(Pred::le(v, self.vars[v].max), val - 1, Reason::Bound);
            }
            if ev.intersects(EventMask::FIX) {
                self.log_pred(Pred::eq(v, self.vars[v].min), val, Reason::Bound);
            }
        }
        self.mark_dirty(v, ev);
        Ok(true)
    }

    /// Fix `v` to `val`. Returns `Ok(true)` if the domain changed.
    pub fn assign(&mut self, v: VarId, val: Val) -> Result<bool, EmptyDomain> {
        if !self.contains(v, val) {
            if self.learn {
                let m = &self.vars[v];
                let holding = if val < m.min {
                    Pred::ge(v, m.min)
                } else if val > m.max {
                    Pred::le(v, m.max)
                } else {
                    Pred::ne(v, val)
                };
                self.conflict = Some(ConflictInfo {
                    requested: Pred::eq(v, val),
                    holding,
                    reason: self.reason_ctx,
                });
            }
            return Err(EmptyDomain(v));
        }
        if self.vars[v].size == 1 {
            return Ok(false);
        }
        self.save_meta(v);
        let meta = self.vars[v];
        let bit = (val - meta.base) as u64;
        let target_w = (bit / 64) as u32;
        for wi in 0..meta.nwords {
            let idx = (meta.offset + wi) as usize;
            let desired = if wi == target_w {
                1u64 << (bit % 64)
            } else {
                0
            };
            if self.words[idx] != desired {
                self.save_word(idx);
                self.words[idx] = desired;
            }
        }
        let mut ev = EventMask::REMOVE | EventMask::FIX;
        if meta.min != val {
            ev |= EventMask::MIN;
        }
        if meta.max != val {
            ev |= EventMask::MAX;
        }
        self.prunes += u64::from(meta.size - 1);
        let m = &mut self.vars[v];
        m.size = 1;
        m.min = val;
        m.max = val;
        self.detach_unfixed(v);
        if self.learn && !self.level_marks.is_empty() {
            // One Eq entry covers the whole assignment: Eq implies every
            // bound/disequality predicate the removals established.
            self.log_pred(Pred::eq(v, val), val, self.reason_ctx);
        }
        self.mark_dirty(v, ev);
        Ok(true)
    }

    /// Remove every value strictly below `val`.
    pub fn remove_below(&mut self, v: VarId, val: Val) -> Result<bool, EmptyDomain> {
        let meta = self.vars[v];
        if val <= meta.min {
            return Ok(false);
        }
        if val > meta.max {
            if self.learn {
                self.conflict = Some(ConflictInfo {
                    requested: Pred::ge(v, val),
                    holding: Pred::le(v, meta.max),
                    reason: self.reason_ctx,
                });
            }
            return Err(EmptyDomain(v));
        }
        self.save_meta(v);
        let cut = (val - meta.base) as u64;
        let mut removed = 0;
        for wi in 0..=(cut / 64) as u32 {
            let idx = (meta.offset + wi) as usize;
            let word = self.words[idx];
            let mask = if u64::from(wi) == cut / 64 {
                !((1u64 << (cut % 64)) - 1)
            } else {
                0
            };
            let kept = word & mask;
            if kept != word {
                self.save_word(idx);
                self.words[idx] = kept;
                removed += (word & !mask).count_ones();
            }
        }
        if removed == 0 {
            return Ok(false);
        }
        self.prunes += u64::from(removed);
        let m = &mut self.vars[v];
        m.size -= removed;
        debug_assert!(m.size > 0);
        self.recompute_min(v);
        let mut ev = EventMask::REMOVE | EventMask::MIN;
        if self.vars[v].size == 1 {
            ev |= EventMask::FIX;
            self.detach_unfixed(v);
        }
        if self.learn && !self.level_marks.is_empty() {
            // `base` records the requested cut; the resulting bound may be
            // tighter when it landed past holes (analysis bridges the gap
            // with the holes' earlier `Ne` entries).
            self.log_pred(Pred::ge(v, self.vars[v].min), val, self.reason_ctx);
            if ev.intersects(EventMask::FIX) {
                self.log_pred(Pred::eq(v, self.vars[v].min), val, Reason::Bound);
            }
        }
        self.mark_dirty(v, ev);
        Ok(true)
    }

    /// Remove every value strictly above `val`.
    pub fn remove_above(&mut self, v: VarId, val: Val) -> Result<bool, EmptyDomain> {
        let meta = self.vars[v];
        if val >= meta.max {
            return Ok(false);
        }
        if val < meta.min {
            if self.learn {
                self.conflict = Some(ConflictInfo {
                    requested: Pred::le(v, val),
                    holding: Pred::ge(v, meta.min),
                    reason: self.reason_ctx,
                });
            }
            return Err(EmptyDomain(v));
        }
        self.save_meta(v);
        let cut = (val - meta.base) as u64; // keep bits ≤ cut
        let mut removed = 0;
        for wi in (cut / 64) as u32..meta.nwords {
            let idx = (meta.offset + wi) as usize;
            let word = self.words[idx];
            let mask = if u64::from(wi) == cut / 64 {
                if cut % 64 == 63 {
                    u64::MAX
                } else {
                    (1u64 << (cut % 64 + 1)) - 1
                }
            } else {
                0
            };
            let kept = word & mask;
            if kept != word {
                self.save_word(idx);
                self.words[idx] = kept;
                removed += (word & !mask).count_ones();
            }
        }
        if removed == 0 {
            return Ok(false);
        }
        self.prunes += u64::from(removed);
        let m = &mut self.vars[v];
        m.size -= removed;
        debug_assert!(m.size > 0);
        self.recompute_max(v);
        let mut ev = EventMask::REMOVE | EventMask::MAX;
        if self.vars[v].size == 1 {
            ev |= EventMask::FIX;
            self.detach_unfixed(v);
        }
        if self.learn && !self.level_marks.is_empty() {
            self.log_pred(Pred::le(v, self.vars[v].max), val, self.reason_ctx);
            if ev.intersects(EventMask::FIX) {
                self.log_pred(Pred::eq(v, self.vars[v].min), val, Reason::Bound);
            }
        }
        self.mark_dirty(v, ev);
        Ok(true)
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            None
        } else {
            let b = self.word.trailing_zeros();
            self.word &= self.word - 1;
            Some(b)
        }
    }
}

/// Position of the `n`-th (0-based) set bit of `word`.
fn select_bit(mut word: u64, n: u32) -> u32 {
    for _ in 0..n {
        word &= word - 1;
    }
    word.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(s: &mut Store) -> Vec<(VarId, EventMask)> {
        let mut out = Vec::new();
        s.drain_dirty(&mut out);
        out
    }

    #[test]
    fn new_var_spans_words() {
        let mut s = Store::new();
        let v = s.new_var(-3, 130); // 134 values, 3 words
        assert_eq!(s.size(v), 134);
        assert_eq!(s.min(v), -3);
        assert_eq!(s.max(v), 130);
        assert!(s.contains(v, 0));
        assert!(s.contains(v, 130));
        assert!(!s.contains(v, 131));
        assert!(!s.contains(v, -4));
    }

    #[test]
    fn remove_updates_bounds() {
        let mut s = Store::new();
        let v = s.new_var(0, 5);
        assert!(s.remove(v, 0).unwrap());
        assert_eq!(s.min(v), 1);
        assert!(s.remove(v, 5).unwrap());
        assert_eq!(s.max(v), 4);
        assert!(!s.remove(v, 0).unwrap()); // already gone
        assert_eq!(s.size(v), 4);
    }

    #[test]
    fn remove_last_value_fails() {
        let mut s = Store::new();
        let v = s.new_var(7, 7);
        assert_eq!(s.remove(v, 7), Err(EmptyDomain(v)));
    }

    #[test]
    fn assign_and_value() {
        let mut s = Store::new();
        let v = s.new_var(0, 100);
        assert!(s.assign(v, 42).unwrap());
        assert!(s.is_fixed(v));
        assert_eq!(s.value(v), 42);
        assert!(!s.assign(v, 42).unwrap()); // no-op
        assert_eq!(s.assign(v, 3), Err(EmptyDomain(v)));
    }

    #[test]
    fn bounds_pruning() {
        let mut s = Store::new();
        let v = s.new_var(0, 9);
        assert!(s.remove_below(v, 3).unwrap());
        assert!(s.remove_above(v, 6).unwrap());
        assert_eq!((s.min(v), s.max(v), s.size(v)), (3, 6, 4));
        assert!(!s.remove_below(v, 3).unwrap());
        assert!(!s.remove_above(v, 6).unwrap());
        assert_eq!(s.remove_below(v, 7), Err(EmptyDomain(v)));
        assert_eq!(s.remove_above(v, 2), Err(EmptyDomain(v)));
    }

    #[test]
    fn bounds_pruning_with_holes() {
        let mut s = Store::new();
        let v = s.new_var(0, 9);
        s.remove(v, 4).unwrap();
        s.remove(v, 5).unwrap();
        // remove_below(4) must land min on 6 (4,5 are holes... min is 4→6).
        s.remove_below(v, 4).unwrap();
        assert_eq!(s.min(v), 6);
    }

    #[test]
    fn backtrack_restores_everything() {
        let mut s = Store::new();
        let v = s.new_var(0, 70); // two words
        let w = s.new_var(0, 3);
        s.push_level();
        s.remove(v, 0).unwrap();
        s.remove(v, 65).unwrap();
        s.assign(w, 2).unwrap();
        s.push_level();
        s.assign(v, 30).unwrap();
        assert_eq!(s.size(v), 1);
        s.backtrack();
        assert_eq!(s.size(v), 69);
        assert!(s.contains(v, 64));
        assert!(!s.contains(v, 65));
        assert_eq!(s.value(w), 2);
        s.backtrack();
        assert_eq!(s.size(v), 71);
        assert_eq!(s.size(w), 4);
        assert_eq!(s.min(v), 0);
        assert_eq!(s.max(v), 70);
    }

    #[test]
    fn root_changes_are_permanent() {
        let mut s = Store::new();
        let v = s.new_var(0, 5);
        s.remove(v, 3).unwrap(); // at root
        s.push_level();
        s.remove(v, 4).unwrap();
        s.backtrack();
        assert!(!s.contains(v, 3)); // root removal survives
        assert!(s.contains(v, 4));
    }

    #[test]
    fn stamps_do_not_alias_across_levels() {
        let mut s = Store::new();
        let v = s.new_var(0, 10);
        s.push_level();
        s.remove(v, 1).unwrap();
        s.backtrack();
        s.push_level();
        s.remove(v, 2).unwrap();
        s.backtrack();
        assert!(s.contains(v, 1));
        assert!(s.contains(v, 2));
        assert_eq!(s.size(v), 11);
    }

    #[test]
    fn iter_and_nth() {
        let mut s = Store::new();
        let v = s.new_var(0, 9);
        s.remove(v, 2).unwrap();
        s.remove(v, 7).unwrap();
        let vals: Vec<i32> = s.iter(v).collect();
        assert_eq!(vals, vec![0, 1, 3, 4, 5, 6, 8, 9]);
        for (n, &val) in vals.iter().enumerate() {
            assert_eq!(s.nth_value(v, n as u32), val);
        }
    }

    #[test]
    fn iter_across_word_boundary() {
        let mut s = Store::new();
        let v = s.new_var(60, 70);
        let vals: Vec<i32> = s.iter(v).collect();
        assert_eq!(vals, (60..=70).collect::<Vec<_>>());
    }

    #[test]
    fn dirty_tracking_with_events() {
        let mut s = Store::new();
        let v = s.new_var(0, 5);
        let w = s.new_var(0, 5);
        s.remove(v, 1).unwrap(); // interior removal: REMOVE only
        s.assign(w, 0).unwrap(); // fix at the min: REMOVE | FIX | MAX
        let d = drained(&mut s);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, v);
        assert_eq!(d[0].1, EventMask::REMOVE);
        assert_eq!(d[1].0, w);
        assert_eq!(d[1].1, EventMask::REMOVE | EventMask::FIX | EventMask::MAX);
        assert!(drained(&mut s).is_empty());
    }

    #[test]
    fn dirty_masks_accumulate() {
        let mut s = Store::new();
        let v = s.new_var(0, 5);
        s.remove(v, 0).unwrap(); // MIN
        s.remove(v, 5).unwrap(); // MAX
        let d = drained(&mut s);
        assert_eq!(d.len(), 1, "one entry per var, masks merged");
        assert!(d[0].1.intersects(EventMask::MIN));
        assert!(d[0].1.intersects(EventMask::MAX));
        assert!(!d[0].1.intersects(EventMask::FIX));
    }

    #[test]
    fn bound_removal_events() {
        let mut s = Store::new();
        let v = s.new_var(0, 9);
        s.remove_below(v, 3).unwrap();
        s.remove_above(v, 3).unwrap(); // fixes v
        let d = drained(&mut s);
        assert_eq!(
            d[0].1,
            EventMask::REMOVE | EventMask::MIN | EventMask::MAX | EventMask::FIX
        );
    }

    #[test]
    fn negative_domains() {
        let mut s = Store::new();
        let v = s.new_var(-5, 5);
        assert!(s.contains(v, -5));
        s.remove(v, -5).unwrap();
        assert_eq!(s.min(v), -4);
        s.remove_above(v, -1).unwrap();
        assert_eq!(s.max(v), -1);
        assert_eq!(s.iter(v).collect::<Vec<_>>(), vec![-4, -3, -2, -1]);
    }

    #[test]
    fn state_cells_trail_with_levels() {
        let mut s = Store::new();
        let c = s.new_state_cell(10);
        assert_eq!(s.state(c), 10);
        s.set_state(c, 20); // root: permanent
        s.push_level();
        s.set_state(c, 30);
        s.set_state(c, 40); // second write in the level: one trail entry
        assert_eq!(s.state(c), 40);
        s.push_level();
        s.set_state(c, 50);
        s.backtrack();
        assert_eq!(s.state(c), 40);
        s.backtrack();
        assert_eq!(s.state(c), 20, "root write survives, level writes undone");
    }

    #[test]
    fn unfixed_set_tracks_fixing_and_backtracking() {
        let mut s = Store::new();
        let a = s.new_var(0, 3);
        let b = s.new_var(5, 5); // born fixed
        let c = s.new_var(0, 3);
        let active = |s: &Store| {
            let mut v: Vec<VarId> = s.unfixed_vars().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(active(&s), vec![a, c]);
        assert_eq!(s.num_unfixed(), 2);
        let _ = b;
        s.push_level();
        s.assign(a, 1).unwrap();
        assert_eq!(active(&s), vec![c]);
        s.push_level();
        s.remove_below(c, 3).unwrap(); // fixes c via bound pruning
        assert_eq!(active(&s), Vec::<VarId>::new());
        s.backtrack();
        assert_eq!(active(&s), vec![c]);
        s.backtrack();
        assert_eq!(active(&s), vec![a, c]);
        // Root-level fixes are permanent.
        s.assign(c, 0).unwrap();
        assert_eq!(active(&s), vec![a]);
    }

    #[test]
    fn unfixed_set_handles_remove_to_singleton() {
        let mut s = Store::new();
        let v = s.new_var(0, 1);
        s.push_level();
        s.remove(v, 0).unwrap();
        assert_eq!(s.num_unfixed(), 0);
        s.backtrack();
        assert_eq!(s.num_unfixed(), 1);
        assert_eq!(s.unfixed_vars().next(), Some(v));
    }
}
