//! Incremental maximum bipartite matching with trailed repair, the flow
//! half of Régin's GAC `AllDifferent` filter.
//!
//! # The matching-repair invariant
//!
//! The matching (`matched value per variable`, `owning variable per value`)
//! lives in trailed [`Store`] state cells, so **backtracking rewinds the
//! matching in lockstep with the domains it was computed against**. A
//! matching that was maximum when it was stored can only be invalidated by
//! *new* domain removals — never by backtracking past them — so repair work
//! after a wakeup is proportional to the damage done since the last run on
//! this branch:
//!
//! 1. **Revalidate**: every variable whose matched value fell out of its
//!    domain is unmatched (and its value freed).
//! 2. **Re-augment**: each now-free variable searches for an augmenting
//!    alternating path (Kuhn's DFS with per-phase visit stamps). Matched
//!    pairs that survived step 1 are reused as-is — this is what makes the
//!    matching *incremental* rather than recomputed from scratch.
//! 3. If some variable admits no augmenting path the matching cannot cover
//!    all variables and the constraint is unsatisfiable (Hall violation) —
//!    the repair reports the offending variable.
//!
//! # The `except` value
//!
//! `AllDifferentExcept` gives one value unlimited capacity: any number of
//! variables may take it. In flow terms its value node has capacity `n`
//! instead of 1, and since at most `n` variables exist it always has spare
//! room — a free variable with the except value in its domain matches it
//! immediately, and the DFS never needs to displace anything from it. The
//! owner cell of the except value is unused; a trailed counter of how many
//! variables currently match it drives the residual sink arcs instead.

use crate::store::{EmptyDomain, StateId, Store, Val, VarId};

/// Cell value meaning "unmatched" (no value / no owner).
const FREE: i64 = -1;

/// A maximum matching between the variables of one `AllDifferent` scope and
/// their dense value universe `[lo, lo + num_values)`, stored in trailed
/// state cells so it survives (and rewinds across) backtracking.
///
/// The matching is a handful of handles: the scope itself is passed to
/// [`Matching::repair`] by its owner, and the untrailed search scratch is a
/// [`MatchScratch`] that every matching of a solver shares (one repair
/// runs at a time), so a propagator owns no heap memory.
#[derive(Debug, Clone, Copy)]
pub struct Matching {
    /// Number of (deduplicated) scope variables.
    n_vars: usize,
    /// Lowest value of the dense universe.
    lo: Val,
    /// Universe width: values are indexed `0..num_values` as `val - lo`.
    num_values: usize,
    /// Dense index of the unlimited-capacity value, if any.
    except: Option<usize>,
    /// First of the per-position cells: dense index of the matched value,
    /// or `FREE`.
    matched: StateId,
    /// First of the per-real-value cells: position of the owning
    /// variable, or `FREE`. Unused (stays `FREE`) for the except value.
    owner: StateId,
    /// Number of variables currently matched to the except value (trailed;
    /// meaningful only when `except` is set).
    except_uses: StateId,
}

/// Untrailed scratch of [`Matching::repair`], shared by every matching of
/// one solver.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Kuhn DFS visit stamps per value index, versioned so clearing between
    /// augmentation phases is O(1).
    visited: Vec<u64>,
    visit_stamp: u64,
    /// Variable positions needing augmentation.
    pending: Vec<usize>,
}

impl MatchScratch {
    /// Forget every visit, keeping the buffers' capacity.
    pub fn reset(&mut self) {
        self.visited.clear();
        self.visit_stamp = 0;
        self.pending.clear();
    }

    /// Bytes of capacity held.
    pub(crate) fn bytes(&self) -> usize {
        mgrts_obs::recycle::bytes(&self.visited) + mgrts_obs::recycle::bytes(&self.pending)
    }
}

impl Matching {
    /// Allocate the trailed cells for a scope of `n_vars` variables over
    /// the universe `[lo, lo + num_values)`, and make `scratch` wide
    /// enough for it. `except` is the unlimited-capacity value
    /// (dense-indexed), if the constraint has one. Must be called at the
    /// root level, before search starts.
    pub fn new(
        store: &mut Store,
        scratch: &mut MatchScratch,
        n_vars: usize,
        lo: Val,
        num_values: usize,
        except: Option<usize>,
    ) -> Self {
        let matched = store.new_state_cells(n_vars, FREE);
        let owner = store.new_state_cells(num_values, FREE);
        let except_uses = store.new_state_cells(1, 0);
        if scratch.visited.len() < num_values {
            // Zero is below every stamp an augmentation phase uses.
            scratch.visited.resize(num_values, 0);
        }
        Matching {
            n_vars,
            lo,
            num_values,
            except,
            matched,
            owner,
            except_uses,
        }
    }

    /// Lowest value of the universe.
    #[must_use]
    pub fn lo(&self) -> Val {
        self.lo
    }

    /// Universe width.
    #[must_use]
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// Dense index of the except value, if any.
    #[must_use]
    pub fn except(&self) -> Option<usize> {
        self.except
    }

    /// Dense index of the value the variable at `pos` is matched to
    /// (`None` if the matching is stale for that variable — call
    /// [`Matching::repair`] first).
    #[must_use]
    pub fn matched_index(&self, store: &Store, pos: usize) -> Option<usize> {
        let m = store.state(self.matched.offset(pos));
        usize::try_from(m).ok()
    }

    /// How many variables are matched to the except value.
    #[must_use]
    pub fn except_uses(&self, store: &Store) -> i64 {
        store.state(self.except_uses)
    }

    /// Position of the variable owning real value `vi`, if any. Always
    /// `None` for the except value (its capacity is tracked by
    /// [`Matching::except_uses`] instead).
    #[must_use]
    pub fn owner_pos(&self, store: &Store, vi: usize) -> Option<usize> {
        usize::try_from(store.state(self.owner.offset(vi))).ok()
    }

    /// Restore the matching of the scope `vars` (the one it was built
    /// for) to a maximum one under the current domains: revalidate every
    /// pair, then re-augment freed variables. Returns the variable that
    /// cannot be matched if the constraint is unsatisfiable.
    pub fn repair(
        &self,
        vars: &[VarId],
        scratch: &mut MatchScratch,
        store: &mut Store,
    ) -> Result<(), EmptyDomain> {
        debug_assert_eq!(vars.len(), self.n_vars);
        scratch.pending.clear();
        for (pos, &var) in vars.iter().enumerate() {
            let cell = self.matched.offset(pos);
            let m = store.state(cell);
            if m == FREE {
                scratch.pending.push(pos);
                continue;
            }
            let vi = m as usize;
            if store.contains(var, self.lo + vi as Val) {
                continue;
            }
            // Matched value fell out of the domain: unmatch.
            store.set_state(cell, FREE);
            if Some(vi) == self.except {
                let uses = store.state(self.except_uses);
                store.set_state(self.except_uses, uses - 1);
            } else {
                store.set_state(self.owner.offset(vi), FREE);
            }
            scratch.pending.push(pos);
        }
        if !scratch.pending.is_empty() {
            store.note_gac_rebuild();
        }
        for i in 0..scratch.pending.len() {
            let pos = scratch.pending[i];
            if store.state(self.matched.offset(pos)) != FREE {
                continue; // displaced and re-placed by an earlier augmentation
            }
            scratch.visit_stamp += 1;
            if !self.augment(vars, scratch, store, pos) {
                return Err(EmptyDomain(vars[pos]));
            }
        }
        Ok(())
    }

    /// Kuhn DFS from the free variable at `pos`: try to match it to some
    /// value, displacing current owners along an alternating path. The
    /// except value (always spare capacity for a free variable) is tried
    /// first because taking it never displaces anyone.
    fn augment(
        &self,
        vars: &[VarId],
        scratch: &mut MatchScratch,
        store: &mut Store,
        pos: usize,
    ) -> bool {
        let var = vars[pos];
        if let Some(e) = self.except {
            let ev = self.lo + e as Val;
            if store.contains(var, ev) {
                store.set_state(self.matched.offset(pos), e as i64);
                let uses = store.state(self.except_uses);
                store.set_state(self.except_uses, uses + 1);
                return true;
            }
        }
        let (base, words) = store.domain_words(var);
        debug_assert!(base >= self.lo);
        let shift = (base - self.lo) as usize;
        // Snapshot the domain words onto this DFS frame: the search below
        // mutates only state cells, never domains, so the copy stays valid,
        // and a per-frame copy (rather than shared scratch) survives the
        // recursive displacement calls. Domains wider than 512 values fall
        // back to a heap copy.
        let nwords = words.len();
        let mut stack_words = [0u64; 8];
        let heap_words: Vec<u64>;
        let cand: &[u64] = if nwords <= stack_words.len() {
            stack_words[..nwords].copy_from_slice(words);
            &stack_words[..nwords]
        } else {
            heap_words = words.to_vec();
            &heap_words
        };
        for (wi, &word) in cand.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                let vi = shift + wi * 64 + b;
                if Some(vi) == self.except || scratch.visited[vi] == scratch.visit_stamp {
                    continue;
                }
                scratch.visited[vi] = scratch.visit_stamp;
                if self.try_take(vars, scratch, store, pos, vi) {
                    return true;
                }
            }
        }
        false
    }

    /// Claim value `vi` for the variable at `pos`, recursively displacing
    /// its current owner if it has one and the owner can re-augment
    /// elsewhere.
    fn try_take(
        &self,
        vars: &[VarId],
        scratch: &mut MatchScratch,
        store: &mut Store,
        pos: usize,
        vi: usize,
    ) -> bool {
        let owner_cell = self.owner.offset(vi);
        let current = store.state(owner_cell);
        if current == FREE || self.displace(vars, scratch, store, current as usize) {
            store.set_state(owner_cell, pos as i64);
            store.set_state(self.matched.offset(pos), vi as i64);
            true
        } else {
            false
        }
    }

    /// Re-augment a displaced variable (its value is being claimed by the
    /// caller; the displaced variable must find another one).
    fn displace(
        &self,
        vars: &[VarId],
        scratch: &mut MatchScratch,
        store: &mut Store,
        pos: usize,
    ) -> bool {
        // Temporarily free it, then reuse the augment path. If it fails the
        // caller leaves the original assignment in place.
        let cell = self.matched.offset(pos);
        let prev = store.state(cell);
        store.set_state(cell, FREE);
        if self.augment(vars, scratch, store, pos) {
            true
        } else {
            store.set_state(cell, prev);
            false
        }
    }
}
