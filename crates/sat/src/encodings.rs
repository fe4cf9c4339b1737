//! Cardinality-constraint CNF encodings.
//!
//! CSP1's constraint families reduce to three cardinality shapes over
//! boolean variables: *at most one* (constraints (3) and (4)), and
//! *exactly k* (constraint (5) with `k = Ci`). This module provides the
//! standard encodings:
//!
//! * pairwise at-most-one — `O(n²)` binary clauses, no auxiliaries, best
//!   for small groups. The formula stores such a group as one item (its
//!   members) and the solver propagates it natively, while every CNF view
//!   of the formula (clause count, DIMACS, evaluation) still sees the
//!   binary clauses;
//! * ladder (sequential) at-most-one — `O(n)` clauses and auxiliaries,
//!   best for large groups;
//! * Sinz's sequential-counter at-most-k / at-least-k / exactly-k —
//!   `O(n·k)` clauses, arc-consistent under unit propagation.
//!
//! All encodings are *equisatisfiable* extensions: auxiliary variables are
//! functionally determined, so projected model counts over the original
//! variables are preserved (tested in this module).

use crate::cnf::Cnf;
use crate::types::Lit;

/// Which at-most-one encoding to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AmoEncoding {
    /// Pairwise `¬a ∨ ¬b` clauses; no auxiliary variables. Stored as one
    /// group of the formula (see [`crate::cnf`]).
    #[default]
    Pairwise,
    /// Ladder/sequential encoding; `n-1` auxiliary variables, `3n-4`
    /// clauses.
    Ladder,
}

/// Post "at most one of `lits` is true".
pub fn at_most_one(cnf: &mut Cnf, lits: &[Lit], enc: AmoEncoding) {
    match enc {
        AmoEncoding::Pairwise => cnf.add_at_most_one(lits),
        AmoEncoding::Ladder => at_most_one_ladder(cnf, lits),
    }
}

/// Ladder encoding: auxiliaries `s_i` mean "some literal among the first
/// `i+1` is true"; `x_{i+1} → ¬s_i`'s contrapositive chain forbids a second
/// true literal.
fn at_most_one_ladder(cnf: &mut Cnf, lits: &[Lit]) {
    let n = lits.len();
    if n <= 4 {
        // Auxiliaries don't pay for themselves below this size. The
        // ladder stays all clauses, so these pairs are clauses too.
        cnf.add_pairs(lits);
        return;
    }
    let first = cnf.new_vars(u32::try_from(n - 1).expect("group fits u32"));
    let s = |i: usize| Lit::pos(first + u32::try_from(i).expect("index fits u32"));
    for i in 0..n - 1 {
        // x_i → s_i
        cnf.add_binary(!lits[i], s(i));
        // s_{i-1} → s_i (monotone ladder)
        if i > 0 {
            cnf.add_binary(!s(i - 1), s(i));
        }
        // x_{i+1} ∧ s_i → ⊥
        cnf.add_binary(!lits[i + 1], !s(i));
    }
}

/// Post "exactly one of `lits` is true".
pub fn exactly_one(cnf: &mut Cnf, lits: &[Lit], enc: AmoEncoding) {
    cnf.add_clause(lits);
    at_most_one(cnf, lits, enc);
}

/// Post "at most `k` of `lits` are true" with Sinz's sequential counter.
///
/// `k = 0` forces every literal false; `k ≥ n` is a no-op.
pub fn at_most_k(cnf: &mut Cnf, lits: &[Lit], k: u32) {
    let n = lits.len();
    if k as usize >= n {
        return;
    }
    if k == 0 {
        for &l in lits {
            cnf.add_unit(!l);
        }
        return;
    }
    if k == 1 {
        // The ladder AMO is the k=1 special case of the counter with fewer
        // clauses.
        at_most_one(cnf, lits, AmoEncoding::Ladder);
        return;
    }
    let k = k as usize;
    // s[i][j] ⇔ "at least j+1 of lits[0..=i] are true" (partial sums),
    // i ∈ 0..n-1, j ∈ 0..k.
    let width = u32::try_from(k).expect("k fits u32");
    let rows = u32::try_from(n - 1).expect("group fits u32");
    let first = cnf.new_vars(rows * width);
    let s = |i: usize, j: usize| -> Lit {
        Lit::pos(first + u32::try_from(i).unwrap() * width + u32::try_from(j).unwrap())
    };

    // Row 0: s(0,0) ← x0; s(0,j) false for j ≥ 1.
    cnf.add_binary(!lits[0], s(0, 0));
    for j in 1..k {
        cnf.add_unit(!s(0, j));
    }
    #[allow(clippy::needless_range_loop)] // i indexes both lits and the s-grid
    for i in 1..n - 1 {
        // Sum carries over: s(i-1,j) → s(i,j).
        // New element increments: x_i ∧ s(i-1,j-1) → s(i,j); x_i → s(i,0).
        cnf.add_binary(!lits[i], s(i, 0));
        for j in 0..k {
            cnf.add_binary(!s(i - 1, j), s(i, j));
            if j > 0 {
                cnf.add_clause(&[!lits[i], !s(i - 1, j - 1), s(i, j)]);
            }
        }
        // Overflow: x_i ∧ s(i-1,k-1) → ⊥.
        cnf.add_binary(!lits[i], !s(i - 1, k - 1));
    }
    // Final element may not overflow either.
    cnf.add_binary(!lits[n - 1], !s(n - 2, k - 1));
}

/// Post "at least `k` of `lits` are true" (via at-most on the negations).
pub fn at_least_k(cnf: &mut Cnf, lits: &[Lit], k: u32) {
    let n = lits.len();
    if k == 0 {
        return;
    }
    if k as usize > n {
        // Unsatisfiable: demand more true literals than exist.
        cnf.add_clause(&[]);
        return;
    }
    if k == 1 {
        cnf.add_clause(lits);
        return;
    }
    let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
    at_most_k(cnf, &negated, u32::try_from(n).expect("group fits u32") - k);
}

/// Post "exactly `k` of `lits` are true".
pub fn exactly_k(cnf: &mut Cnf, lits: &[Lit], k: u32) {
    at_most_k(cnf, lits, k);
    at_least_k(cnf, lits, k);
}

/// Post the pseudo-boolean equality `Σ weights[i]·lits[i] = target` via a
/// forward reachability ("weighted counter" / BDD decomposition) encoding.
///
/// One auxiliary per reachable `(prefix, partial sum)` state; transitions
/// `state ∧ ±lit → next state`, infeasible transitions become conflict
/// clauses, and final states other than `target` are forbidden. Size is
/// `O(n · target)` — suitable for the small weighted cardinalities of the
/// heterogeneous scheduling constraint (11), not for large knapsacks.
///
/// Zero weights are rejected (filter those literals out first — for the
/// scheduling use they are exactly the `si,j = 0` forbidden cells).
///
/// # Panics
/// Panics when `lits` and `weights` differ in length or a weight is 0.
pub fn pb_exactly(cnf: &mut Cnf, lits: &[Lit], weights: &[u64], target: u64) {
    assert_eq!(lits.len(), weights.len(), "one weight per literal");
    assert!(weights.iter().all(|&w| w > 0), "zero weights not allowed");
    let n = lits.len();
    let total: u64 = weights.iter().sum();
    if target > total {
        cnf.add_clause(&[]); // unreachable
        return;
    }
    if target == 0 {
        for &l in lits {
            cnf.add_unit(!l);
        }
        return;
    }
    // Suffix sums: the most the remaining literals can still contribute.
    let mut suffix = vec![0u64; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1] + weights[i];
    }
    // state[l] maps partial sum s (reachable after l literals, completable
    // to `target`) to its auxiliary variable.
    let reachable = |l: usize, s: u64| s <= target && s + suffix[l] >= target;
    let mut prev: std::collections::BTreeMap<u64, Lit> = std::collections::BTreeMap::new();
    let root = Lit::pos(cnf.new_var());
    cnf.add_unit(root);
    prev.insert(0, root);
    for l in 0..n {
        let mut next: std::collections::BTreeMap<u64, Lit> = std::collections::BTreeMap::new();
        let node = |cnf: &mut Cnf, map: &mut std::collections::BTreeMap<u64, Lit>, s: u64| {
            *map.entry(s).or_insert_with(|| Lit::pos(cnf.new_var()))
        };
        for (&s, &state) in &prev {
            // Not taking literal l keeps the sum.
            if reachable(l + 1, s) {
                let nxt = node(cnf, &mut next, s);
                cnf.add_clause(&[!state, lits[l], nxt]);
            } else {
                // Skipping is fatal: the literal must be taken.
                cnf.add_binary(!state, lits[l]);
            }
            // Taking it adds the weight.
            let s2 = s + weights[l];
            if reachable(l + 1, s2) {
                let nxt = node(cnf, &mut next, s2);
                cnf.add_clause(&[!state, !lits[l], nxt]);
            } else {
                cnf.add_binary(!state, !lits[l]);
            }
        }
        prev = next;
    }
    // All surviving final states equal `target` by construction of
    // `reachable(n, s)`; nothing further to assert.
    debug_assert!(prev.keys().all(|&s| s == target));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn fresh(cnf: &mut Cnf, n: usize) -> (Vec<Lit>, Vec<Var>) {
        let vars: Vec<Var> = (0..n).map(|_| cnf.new_var()).collect();
        (vars.iter().map(|&v| Lit::pos(v)).collect(), vars)
    }

    fn binom(n: u64, k: u64) -> u64 {
        if k > n {
            return 0;
        }
        (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
    }

    /// Projected model count over the original variables must equal the
    /// number of 0/1 vectors satisfying the cardinality predicate.
    fn assert_counts(n: usize, post: impl Fn(&mut Cnf, &[Lit]), expected: u64) {
        let mut cnf = Cnf::new();
        let (lits, vars) = fresh(&mut cnf, n);
        post(&mut cnf, &lits);
        assert_eq!(cnf.count_models_projected(&vars), expected, "n={n}");
    }

    #[test]
    fn amo_counts_match() {
        for n in 1..=7 {
            let expected = n as u64 + 1; // all-false plus n singletons
            assert_counts(n, |c, l| at_most_one(c, l, AmoEncoding::Pairwise), expected);
            assert_counts(n, |c, l| at_most_one(c, l, AmoEncoding::Ladder), expected);
        }
    }

    #[test]
    fn exactly_one_counts_match() {
        for n in 1..=7 {
            assert_counts(n, |c, l| exactly_one(c, l, AmoEncoding::Pairwise), n as u64);
            assert_counts(n, |c, l| exactly_one(c, l, AmoEncoding::Ladder), n as u64);
        }
    }

    // Auxiliary variables cost (n-1)·k, and the brute-force oracle caps at
    // 24 variables total, hence n ≤ 5 here. `exactly_k` pays both counters,
    // hence n ≤ 4 there.
    #[test]
    fn at_most_k_counts_match() {
        for n in 1..=5usize {
            for k in 0..=n as u32 + 1 {
                let expected: u64 = (0..=k.min(n as u32) as u64)
                    .map(|j| binom(n as u64, j))
                    .sum();
                assert_counts(n, |c, l| at_most_k(c, l, k), expected);
            }
        }
    }

    #[test]
    fn at_least_k_counts_match() {
        for n in 1..=5usize {
            for k in 0..=n as u32 {
                let expected: u64 = (u64::from(k)..=n as u64).map(|j| binom(n as u64, j)).sum();
                assert_counts(n, |c, l| at_least_k(c, l, k), expected);
            }
        }
    }

    #[test]
    fn exactly_k_counts_match() {
        for n in 1..=4usize {
            for k in 0..=n as u32 {
                assert_counts(n, |c, l| exactly_k(c, l, k), binom(n as u64, u64::from(k)));
            }
        }
    }

    #[test]
    fn pb_exactly_counts_match() {
        // Compare the projected model count with direct enumeration of
        // weight subsets for several weight vectors and targets.
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![1, 1, 1], (0..=4).collect()),
            (vec![1, 2, 3], (0..=7).collect()),
            (vec![2, 2, 4], (0..=9).collect()),
            (vec![1, 1, 2, 3], (0..=8).collect()),
            (vec![5], vec![0, 3, 5, 6]),
        ];
        for (weights, targets) in cases {
            let n = weights.len();
            for &target in &targets {
                let expected = (0u64..1 << n)
                    .filter(|bits| {
                        let sum: u64 = (0..n)
                            .filter(|&i| bits >> i & 1 == 1)
                            .map(|i| weights[i])
                            .sum();
                        sum == target
                    })
                    .count() as u64;
                let mut cnf = Cnf::new();
                let (lits, vars) = fresh(&mut cnf, n);
                pb_exactly(&mut cnf, &lits, &weights, target);
                assert_eq!(
                    cnf.count_models_projected(&vars),
                    expected,
                    "weights {weights:?} target {target}"
                );
            }
        }
    }

    #[test]
    fn pb_exactly_reduces_to_exactly_k_on_unit_weights() {
        for n in 1..=5usize {
            for k in 0..=n as u64 {
                let mut cnf = Cnf::new();
                let (lits, vars) = fresh(&mut cnf, n);
                pb_exactly(&mut cnf, &lits, &vec![1; n], k);
                assert_eq!(
                    cnf.count_models_projected(&vars),
                    binom(n as u64, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn pb_exactly_unreachable_target_is_unsat() {
        let mut cnf = Cnf::new();
        let (lits, _) = fresh(&mut cnf, 2);
        pb_exactly(&mut cnf, &lits, &[2, 2], 3); // parity-unreachable
        assert!(cnf.brute_force().is_none());
        let mut cnf2 = Cnf::new();
        let (lits2, _) = fresh(&mut cnf2, 2);
        pb_exactly(&mut cnf2, &lits2, &[1, 1], 5); // above the total
        assert!(cnf2.brute_force().is_none());
    }

    #[test]
    fn at_least_more_than_n_is_unsat() {
        let mut cnf = Cnf::new();
        let (lits, _) = fresh(&mut cnf, 3);
        at_least_k(&mut cnf, &lits, 4);
        assert!(cnf.brute_force().is_none());
    }

    #[test]
    fn mixed_polarities() {
        // exactly 2 of {x0, ¬x1, x2}: check via brute force agreement.
        let mut cnf = Cnf::new();
        let a = Lit::pos(cnf.new_var());
        let b = Lit::neg(cnf.new_var());
        let c = Lit::pos(cnf.new_var());
        exactly_k(&mut cnf, &[a, b, c], 2);
        let n_base = 3usize;
        let mut count = 0u64;
        // Enumerate base assignments, check some completion exists.
        for bits in 0u64..8 {
            let base: Vec<bool> = (0..n_base).map(|v| bits >> v & 1 == 1).collect();
            let trues = [a, b, c]
                .iter()
                .filter(|l| base[l.var() as usize] != l.is_neg())
                .count();
            if trues == 2 {
                count += 1;
            }
        }
        assert_eq!(cnf.count_models_projected(&[0, 1, 2]), count);
        assert_eq!(count, 3);
    }
}
