//! Predicates, implication-log entries and the learned-nogood database
//! backing the lazy-clause-generation search mode (see
//! [`crate::SolverConfig::learn`]).
//!
//! The vocabulary is the classic LCG one: every domain mutation is described
//! by *bound/assignment predicates* over one variable ([`Pred`]), the store
//! keeps a semantic log of which predicate became true when and why
//! (`LogEntry` / `Reason`), and conflict analysis resolves over that log
//! to produce a [`Nogood`] — a conjunction of predicates that can never all
//! hold. Nogoods are enforced by negation-propagation with two watched
//! predicates per nogood, SAT-style.

use crate::store::{Store, Val, VarId};

/// Predicate operator over one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredOp {
    /// `var ≥ val`.
    Ge,
    /// `var ≤ val`.
    Le,
    /// `var = val`.
    Eq,
    /// `var ≠ val`.
    Ne,
}

/// A bound/assignment predicate over a single variable — the atoms of
/// learned nogoods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pred {
    /// Subject variable.
    pub var: VarId,
    /// Comparison operator.
    pub op: PredOp,
    /// Comparison constant.
    pub val: Val,
}

impl Pred {
    /// `var ≥ val`.
    #[must_use]
    pub fn ge(var: VarId, val: Val) -> Self {
        Pred {
            var,
            op: PredOp::Ge,
            val,
        }
    }

    /// `var ≤ val`.
    #[must_use]
    pub fn le(var: VarId, val: Val) -> Self {
        Pred {
            var,
            op: PredOp::Le,
            val,
        }
    }

    /// `var = val`.
    #[must_use]
    pub fn eq(var: VarId, val: Val) -> Self {
        Pred {
            var,
            op: PredOp::Eq,
            val,
        }
    }

    /// `var ≠ val`.
    #[must_use]
    pub fn ne(var: VarId, val: Val) -> Self {
        Pred {
            var,
            op: PredOp::Ne,
            val,
        }
    }

    /// The logical negation (`¬(x ≥ c) ⇔ x ≤ c−1`, etc.).
    #[must_use]
    pub fn negate(self) -> Pred {
        match self.op {
            PredOp::Ge => Pred::le(self.var, self.val - 1),
            PredOp::Le => Pred::ge(self.var, self.val + 1),
            PredOp::Eq => Pred::ne(self.var, self.val),
            PredOp::Ne => Pred::eq(self.var, self.val),
        }
    }

    /// Does the predicate hold under the *current* domains (true under
    /// every completion)?
    #[must_use]
    pub fn holds(&self, store: &Store) -> bool {
        match self.op {
            PredOp::Ge => store.min(self.var) >= self.val,
            PredOp::Le => store.max(self.var) <= self.val,
            PredOp::Eq => store.is_fixed(self.var) && store.value(self.var) == self.val,
            PredOp::Ne => !store.contains(self.var, self.val),
        }
    }

    /// Is the predicate false under every completion of the current
    /// domains?
    #[must_use]
    pub fn falsified(&self, store: &Store) -> bool {
        match self.op {
            PredOp::Ge => store.max(self.var) < self.val,
            PredOp::Le => store.min(self.var) > self.val,
            PredOp::Eq => !store.contains(self.var, self.val),
            PredOp::Ne => store.is_fixed(self.var) && store.value(self.var) == self.val,
        }
    }

    /// Does this predicate logically imply `other` (same variable)?
    #[must_use]
    pub fn implies(self, other: Pred) -> bool {
        if self.var != other.var {
            return false;
        }
        match (self.op, other.op) {
            (PredOp::Eq, PredOp::Ge) => self.val >= other.val,
            (PredOp::Eq, PredOp::Le) => self.val <= other.val,
            (PredOp::Eq, PredOp::Ne) => self.val != other.val,
            (PredOp::Eq, PredOp::Eq) => self.val == other.val,
            (PredOp::Ge, PredOp::Ge) => self.val >= other.val,
            (PredOp::Ge, PredOp::Ne) => self.val > other.val,
            (PredOp::Le, PredOp::Le) => self.val <= other.val,
            (PredOp::Le, PredOp::Ne) => self.val < other.val,
            (PredOp::Ne, PredOp::Ne) => self.val == other.val,
            _ => false,
        }
    }

    /// Does a complete assignment satisfy the predicate? (For auditing
    /// learned nogoods against returned solutions.)
    #[must_use]
    pub fn satisfied_by(&self, sol: &[Val]) -> bool {
        let x = sol[self.var];
        match self.op {
            PredOp::Ge => x >= self.val,
            PredOp::Le => x <= self.val,
            PredOp::Eq => x == self.val,
            PredOp::Ne => x != self.val,
        }
    }
}

/// Why a log entry's predicate became true.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reason {
    /// A search decision (terminal in conflict resolution).
    Decision,
    /// Pruned by propagator `ci`; `run_start` is the log length when that
    /// propagator run began — its inference depends only on entries before
    /// that position.
    Prop { ci: u32, run_start: u32 },
    /// Unit-enforced negation from learned nogood `id`.
    Nogood { id: u32 },
    /// A bound/fix side-effect of the immediately preceding entries of the
    /// same mutation (explained from the entry's own fields).
    Bound,
    /// A chronological refutation: implied by the conjunction of all
    /// decisions up to the entry's level.
    PriorDecisions,
}

/// One record of the store's semantic prune log: `pred` became true at
/// `level` because of `reason`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogEntry {
    /// The predicate that became true.
    pub pred: Pred,
    /// Operator-specific auxiliary constant: for `Ge`/`Le` entries, the
    /// *requested* cut the mutation asked for (the resulting bound in
    /// `pred.val` may be tighter when it landed past holes). Unused for
    /// `Eq`/`Ne` entries.
    pub base: Val,
    /// Why the predicate became true.
    pub reason: Reason,
    /// Decision level (`Store::depth`) at which it became true.
    pub level: u32,
    /// Previous log position for the same variable (`u32::MAX` = none).
    pub prev: u32,
}

/// Captured by the store when a mutation wipes a domain out while learning
/// is enabled: the predicate the mutation tried to establish, the
/// currently-holding predicate contradicting it, and the reason behind the
/// request. Conflict analysis seeds from `explain(requested, reason) ∪
/// {holding}`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConflictInfo {
    /// The predicate the failed mutation tried to make true.
    pub requested: Pred,
    /// A predicate of the current domains contradicting `requested`.
    pub holding: Pred,
    /// Why `requested` was being enforced.
    pub reason: Reason,
}

/// A learned conjunction of predicates that can never all hold.
#[derive(Debug, Clone)]
pub struct Nogood {
    /// The conjuncts.
    pub preds: Vec<Pred>,
    /// Literal-block distance at learn time (distinct decision levels);
    /// nogoods with `lbd ≤ 2` ("glue") are never evicted.
    pub lbd: u32,
    /// Watched positions into `preds` (SAT convention on the negated
    /// literals: each watched predicate is non-holding, or some watched
    /// predicate is falsified). Untrailed — backtracking only un-holds
    /// predicates, which preserves the invariant.
    pub(crate) watch: [u32; 2],
}

/// The minisat restart sequence: 1,1,2,1,1,2,4,… (`i` is 0-based).
#[must_use]
pub(crate) fn luby(i: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut i = i;
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn luby_prefix_matches_the_classic_sequence() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn negation_is_involutive_on_eq_ne_and_shifts_bounds() {
        assert_eq!(Pred::eq(3, 5).negate(), Pred::ne(3, 5));
        assert_eq!(Pred::ne(3, 5).negate(), Pred::eq(3, 5));
        assert_eq!(Pred::ge(0, 4).negate(), Pred::le(0, 3));
        assert_eq!(Pred::le(0, 4).negate(), Pred::ge(0, 5));
    }

    #[test]
    fn holds_and_falsified_partition_under_fixed_domains() {
        let mut m = Model::new();
        let x = m.new_var(2, 6);
        let s = m.into_solver(crate::SolverConfig::default());
        let store = s.store();
        for p in [
            Pred::ge(x, 2),
            Pred::ge(x, 7),
            Pred::le(x, 6),
            Pred::le(x, 1),
            Pred::eq(x, 4),
            Pred::ne(x, 4),
            Pred::ne(x, 9),
        ] {
            // A predicate can be undecided, but never both.
            assert!(!(p.holds(store) && p.falsified(store)), "{p:?}");
        }
        assert!(Pred::ge(x, 2).holds(store));
        assert!(Pred::ge(x, 7).falsified(store));
        assert!(Pred::ne(x, 9).holds(store));
        assert!(!Pred::eq(x, 4).holds(store));
    }

    #[test]
    fn implication_table_is_sound_on_a_value_universe() {
        // Brute-force soundness: if p implies q then every value satisfying
        // p satisfies q.
        let ops = [PredOp::Ge, PredOp::Le, PredOp::Eq, PredOp::Ne];
        for &po in &ops {
            for pv in -3..=3 {
                for &qo in &ops {
                    for qv in -3..=3 {
                        let p = Pred {
                            var: 0,
                            op: po,
                            val: pv,
                        };
                        let q = Pred {
                            var: 0,
                            op: qo,
                            val: qv,
                        };
                        if p.implies(q) {
                            for x in -6..=6 {
                                if p.satisfied_by(&[x]) {
                                    assert!(q.satisfied_by(&[x]), "{p:?} => {q:?} violated at {x}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
