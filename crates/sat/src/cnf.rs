//! CNF formula container with DIMACS import/export and reference
//! evaluation / brute-force solving (the oracle the solver is tested
//! against).
//!
//! Clauses are stored flat: one literal vector holding every clause back
//! to back, plus the end offset of each clause. Adding a clause appends
//! to that vector and normalizes the new tail in place, so building a
//! formula makes no heap allocation per clause; units and binaries, most
//! of an encoding, skip the general sort. The two vectors are recycled
//! per thread (up to [`crate::MAX_RECYCLED_BYTES`]): a formula dropped on
//! a thread lends its capacity to the next one built there.
//!
//! A pairwise at-most-one ([`crate::at_most_one`] with
//! [`crate::AmoEncoding::Pairwise`]) over `g ≥ 3` literals of distinct
//! variables is stored as one *group*: its members, in the order given,
//! in the same two vectors, with the end offset marked. The group means
//! its `g·(g−1)/2` clauses `¬a ∨ ¬b`, and everything that reads the
//! formula as CNF sees them: [`Cnf::num_clauses`], [`Cnf::clauses`],
//! [`Cnf::to_dimacs`], [`Cnf::eval`] and the brute-force oracles expand
//! it in place, pair by pair in member order, each pair stored as
//! [`Cnf::add_binary`] would store it. Only the solver loads the group as
//! it is (see [`crate::solver`]). Smaller groups, and groups with a
//! repeated variable, are stored as their clauses.

use std::cell::Cell;
use std::fmt::Write as _;

use crate::recycle;
use crate::types::{Lit, Var};

/// The literal and end vectors of a dropped formula.
pub(crate) type CnfBuffers = (Vec<Lit>, Vec<usize>);

thread_local! {
    pub(crate) static CNF_BUFFERS: Cell<Option<CnfBuffers>> = const { Cell::new(None) };
}

/// Marks an end offset that closes an at-most-one group.
const GROUP: usize = 1 << (usize::BITS - 1);

/// A formula in conjunctive normal form.
///
/// Every stored clause is sorted, duplicate-free and not a tautology
/// ([`Cnf::add_clause`] normalizes on entry); every stored at-most-one
/// group has at least three members, of distinct variables. The solver
/// relies on both.
#[derive(Debug, Clone)]
pub struct Cnf {
    num_vars: u32,
    /// The literals of every clause and group, back to back.
    lits: Vec<Lit>,
    /// `ends[k]` is one past the last literal of item `k` in `lits`; it
    /// carries [`GROUP`] when the item is an at-most-one group.
    ends: Vec<usize>,
    /// Clauses of the pairwise meaning: one per clause, `g·(g−1)/2` per
    /// group of `g` members.
    num_clauses: usize,
}

/// One stored item of a formula, in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Item<'a> {
    /// A clause, as its sorted literals.
    Clause(&'a [Lit]),
    /// At most one of these literals is true: the pairwise clauses over
    /// them, in member order.
    AtMostOne(&'a [Lit]),
}

/// A clause of a formula's CNF meaning: a stored clause, or one pair
/// `¬a ∨ ¬b` of an at-most-one group. Dereferences to its sorted
/// literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause<'a> {
    /// A clause stored as it is.
    Stored(&'a [Lit]),
    /// A pair of an at-most-one group.
    Pair([Lit; 2]),
}

impl std::ops::Deref for Clause<'_> {
    type Target = [Lit];

    fn deref(&self) -> &[Lit] {
        match self {
            Clause::Stored(lits) => lits,
            Clause::Pair(pair) => pair,
        }
    }
}

/// The pairwise clauses `¬a ∨ ¬b` over `lits`: `a` before `b` in `lits`,
/// pair by pair in order, each as its two literals in order.
pub(crate) fn pairs(lits: &[Lit]) -> impl Iterator<Item = [Lit; 2]> + '_ {
    lits.iter().enumerate().flat_map(move |(k, &a)| {
        lits[k + 1..].iter().map(move |&b| {
            let (x, y) = (!a, !b);
            if x < y {
                [x, y]
            } else {
                [y, x]
            }
        })
    })
}

/// Errors from DIMACS parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimacsError {
    /// The `p cnf <vars> <clauses>` header is missing or malformed.
    BadHeader(String),
    /// A token could not be parsed as a literal.
    BadLiteral(String),
    /// A clause references a variable beyond the header's declaration.
    VarOutOfRange {
        /// The offending variable (1-based as in the file).
        var: u64,
        /// Declared variable count.
        declared: u32,
    },
    /// The final clause is not `0`-terminated.
    UnterminatedClause,
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DimacsError::BadHeader(l) => write!(f, "malformed DIMACS header: {l:?}"),
            DimacsError::BadLiteral(t) => write!(f, "malformed DIMACS literal: {t:?}"),
            DimacsError::VarOutOfRange { var, declared } => {
                write!(f, "variable {var} out of declared range 1..={declared}")
            }
            DimacsError::UnterminatedClause => write!(f, "final clause not terminated by 0"),
        }
    }
}

impl std::error::Error for DimacsError {}

impl Default for Cnf {
    fn default() -> Cnf {
        Cnf::new()
    }
}

impl Drop for Cnf {
    fn drop(&mut self) {
        let (lits, ends) = (
            std::mem::take(&mut self.lits),
            std::mem::take(&mut self.ends),
        );
        let bytes = recycle::bytes(&lits) + recycle::bytes(&ends);
        recycle::put(&CNF_BUFFERS, (lits, ends), bytes);
    }
}

impl Cnf {
    /// An empty formula over zero variables.
    #[must_use]
    pub fn new() -> Cnf {
        let (mut lits, mut ends) = recycle::take(&CNF_BUFFERS).unwrap_or_default();
        lits.clear();
        ends.clear();
        Cnf {
            num_vars: 0,
            lits,
            ends,
            num_clauses: 0,
        }
    }

    /// Allocate a fresh variable and return it.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars;
        self.num_vars += 1;
        v
    }

    /// Allocate `k` fresh variables, returning the first.
    pub fn new_vars(&mut self, k: u32) -> Var {
        let first = self.num_vars;
        self.num_vars += k;
        first
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses, counting each at-most-one group as its pairs.
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Number of stored items: clauses, and groups counted once each.
    pub(crate) fn num_items(&self) -> usize {
        self.ends.len()
    }

    /// Number of stored literals over all clauses and groups.
    pub(crate) fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// The stored clauses and groups in insertion order.
    pub(crate) fn items(&self) -> impl Iterator<Item = Item<'_>> + '_ {
        let mut begin = 0;
        self.ends.iter().map(move |&end| {
            let lits = &self.lits[begin..end & !GROUP];
            begin = end & !GROUP;
            if end & GROUP == 0 {
                Item::Clause(lits)
            } else {
                Item::AtMostOne(lits)
            }
        })
    }

    /// The clauses in insertion order, each as its sorted literals, with
    /// every at-most-one group expanded in place into its pairs.
    pub fn clauses(&self) -> impl Iterator<Item = Clause<'_>> + '_ {
        self.items().flat_map(|item| {
            let (stored, members) = match item {
                Item::Clause(lits) => (Some(lits), &[][..]),
                Item::AtMostOne(members) => (None, members),
            };
            let pairs = pairs(members).map(Clause::Pair);
            stored.map(Clause::Stored).into_iter().chain(pairs)
        })
    }

    /// Add the clause `⋁ lits`, stored sorted and without duplicates. A
    /// tautology is silently dropped; the empty clause is kept (it makes
    /// the formula unsatisfiable); variables referenced beyond the current
    /// count grow the variable space.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        let start = self.lits.len();
        self.lits.extend_from_slice(lits);
        let tail = &mut self.lits[start..];
        tail.sort_unstable();
        let mut kept = 0;
        for k in 0..tail.len() {
            if kept == 0 || tail[k] != tail[kept - 1] {
                tail[kept] = tail[k];
                kept += 1;
            }
        }
        self.lits.truncate(start + kept);
        let clause = &self.lits[start..];
        // Sorted by code: complementary literals of a variable are
        // adjacent, and the last literal has the largest variable.
        if clause.windows(2).any(|w| w[0] == !w[1]) {
            self.lits.truncate(start);
            return;
        }
        if let Some(&last) = clause.last() {
            self.close_clause(last);
        } else {
            self.ends.push(self.lits.len());
            self.num_clauses += 1;
        }
    }

    /// End the clause just appended to `lits`, whose largest literal is
    /// `last`.
    fn close_clause(&mut self, last: Lit) {
        self.num_vars = self.num_vars.max(last.var() + 1);
        self.ends.push(self.lits.len());
        self.num_clauses += 1;
    }

    /// Add a unit clause.
    pub fn add_unit(&mut self, lit: Lit) {
        self.lits.push(lit);
        self.close_clause(lit);
    }

    /// Add the binary clause `a ∨ b`, stored as [`Cnf::add_clause`] would
    /// store it: a unit when `a == b`, nothing when `a == ¬b`, else the
    /// two literals in order.
    pub fn add_binary(&mut self, a: Lit, b: Lit) {
        if a == !b {
            return;
        }
        if a == b {
            return self.add_unit(a);
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.lits.extend_from_slice(&[lo, hi]);
        self.close_clause(hi);
    }

    /// Add the pairwise clauses `¬a ∨ ¬b` over `lits` ([`pairs`]), each
    /// through [`Cnf::add_binary`].
    pub(crate) fn add_pairs(&mut self, lits: &[Lit]) {
        for [a, b] in pairs(lits) {
            self.add_binary(a, b);
        }
    }

    /// Add "at most one of `lits` is true", meaning the clauses
    /// [`Cnf::add_pairs`] adds. Three or more literals of distinct
    /// variables are stored as one group, in the order given; anything
    /// else is stored as those clauses.
    pub(crate) fn add_at_most_one(&mut self, lits: &[Lit]) {
        let mut last = 0;
        for (k, a) in lits.iter().enumerate() {
            if lits[..k].iter().any(|b| b.var() == a.var()) {
                return self.add_pairs(lits);
            }
            last = last.max(a.var());
        }
        if lits.len() < 3 {
            return self.add_pairs(lits);
        }
        self.lits.extend_from_slice(lits);
        self.num_vars = self.num_vars.max(last + 1);
        self.ends.push(self.lits.len() | GROUP);
        self.num_clauses += lits.len() * (lits.len() - 1) / 2;
    }

    /// Evaluate under a total assignment (`assignment[v]` is the value of
    /// variable `v`). Returns true when every clause is satisfied.
    ///
    /// # Panics
    /// Panics when the assignment is shorter than the variable count.
    #[must_use]
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars as usize);
        let holds = |l: &Lit| assignment[l.var() as usize] != l.is_neg();
        self.items().all(|item| match item {
            Item::Clause(c) => c.iter().any(holds),
            Item::AtMostOne(members) => members.iter().filter(|l| holds(l)).count() <= 1,
        })
    }

    /// Exhaustive satisfiability check — the test oracle. Returns a model
    /// when one exists. Only usable for small variable counts.
    ///
    /// # Panics
    /// Panics when `num_vars > 24` (2^24 assignments is the sanity bound).
    #[must_use]
    pub fn brute_force(&self) -> Option<Vec<bool>> {
        assert!(self.num_vars <= 24, "brute force limited to 24 variables");
        let n = self.num_vars as usize;
        for bits in 0u64..(1u64 << n) {
            let assignment: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
            if self.eval(&assignment) {
                return Some(assignment);
            }
        }
        None
    }

    /// Count models exhaustively — used to validate encodings preserve
    /// solution counts. Same size restriction as [`Cnf::brute_force`].
    ///
    /// `project` restricts counting to distinct assignments of the given
    /// variables (auxiliary encoding variables are then ignored): a
    /// projected assignment is counted once if *some* completion satisfies
    /// the formula.
    #[must_use]
    pub fn count_models_projected(&self, project: &[Var]) -> u64 {
        assert!(self.num_vars <= 24, "brute force limited to 24 variables");
        let n = self.num_vars as usize;
        let mut seen = std::collections::HashSet::new();
        for bits in 0u64..(1u64 << n) {
            let assignment: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
            if self.eval(&assignment) {
                let key: Vec<bool> = project.iter().map(|&v| assignment[v as usize]).collect();
                seen.insert(key);
            }
        }
        seen.len() as u64
    }

    /// Serialize to DIMACS CNF.
    #[must_use]
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.num_clauses());
        for c in self.clauses() {
            for l in c.iter() {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Parse DIMACS CNF text. Comment lines (`c …`) are skipped; `%`
    /// end-markers (SATLIB convention) stop parsing.
    pub fn from_dimacs(text: &str) -> Result<Cnf, DimacsError> {
        let mut declared: Option<(u32, usize)> = None;
        let mut cnf = Cnf::new();
        let mut current: Vec<Lit> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if line.starts_with('%') {
                break;
            }
            if line.starts_with('p') {
                let mut it = line.split_whitespace();
                let (_p, fmt) = (it.next(), it.next());
                let nv = it.next().and_then(|s| s.parse::<u32>().ok());
                let nc = it.next().and_then(|s| s.parse::<usize>().ok());
                match (fmt, nv, nc) {
                    (Some("cnf"), Some(nv), Some(nc)) => declared = Some((nv, nc)),
                    _ => return Err(DimacsError::BadHeader(line.to_string())),
                }
                continue;
            }
            for tok in line.split_whitespace() {
                let d: i64 = tok
                    .parse()
                    .map_err(|_| DimacsError::BadLiteral(tok.to_string()))?;
                if d == 0 {
                    cnf.add_clause(&current);
                    current.clear();
                } else {
                    if let Some((nv, _)) = declared {
                        let v = d.unsigned_abs();
                        if v > u64::from(nv) {
                            return Err(DimacsError::VarOutOfRange {
                                var: v,
                                declared: nv,
                            });
                        }
                    }
                    current.push(Lit::from_dimacs(d));
                }
            }
        }
        if !current.is_empty() {
            return Err(DimacsError::UnterminatedClause);
        }
        if let Some((nv, _)) = declared {
            cnf.num_vars = cnf.num_vars.max(nv);
        }
        Ok(cnf)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn l(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn clause_dedup_and_tautology() {
        let mut f = Cnf::new();
        f.add_clause(&[Lit::pos(1), Lit::pos(0), Lit::pos(1)]);
        f.add_clause(&[Lit::pos(0), Lit::neg(0)]);
        f.add_clause(&[]);
        let clauses: Vec<Vec<Lit>> = f.clauses().map(|c| c.to_vec()).collect();
        assert_eq!(clauses, [vec![Lit::pos(0), Lit::pos(1)], vec![]]);
        assert_eq!(f.num_vars(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat store matches a naive per-clause normalization (sort,
        /// dedup, drop tautologies, keep the empty clause), including the
        /// variable count, and survives a DIMACS round trip unchanged.
        #[test]
        fn add_clause_matches_naive_normalization(
            raw in proptest::collection::vec(
                proptest::collection::vec((0u32..6, any::<bool>()), 0..=7),
                0..=12,
            )
        ) {
            let mut f = Cnf::new();
            let mut expected: Vec<Vec<Lit>> = Vec::new();
            let mut expected_vars = 0;
            for c in &raw {
                let lits: Vec<Lit> = c.iter().map(|&(v, neg)| Lit::new(v, neg)).collect();
                f.add_clause(&lits);
                let mut naive = lits.clone();
                naive.sort();
                naive.dedup();
                if naive.iter().any(|&x| naive.contains(&!x)) {
                    continue;
                }
                for x in &naive {
                    expected_vars = expected_vars.max(x.var() + 1);
                }
                expected.push(naive);
            }
            let stored: Vec<Vec<Lit>> = f.clauses().map(|c| c.to_vec()).collect();
            prop_assert_eq!(&stored, &expected);
            prop_assert_eq!(f.num_clauses(), expected.len());
            prop_assert_eq!(f.num_vars(), expected_vars);

            let text = f.to_dimacs();
            let g = Cnf::from_dimacs(&text).unwrap();
            let reparsed: Vec<Vec<Lit>> = g.clauses().map(|c| c.to_vec()).collect();
            prop_assert_eq!(&reparsed, &expected);
            prop_assert_eq!(g.num_vars(), f.num_vars());
            prop_assert_eq!(g.to_dimacs(), text);
        }
    }

    proptest! {
        /// `add_unit` and `add_binary` store what `add_clause` stores for
        /// the same literals, tautologies and repeated literals included.
        #[test]
        fn unit_and_binary_fast_paths_match_add_clause(
            raw in proptest::collection::vec(
                proptest::collection::vec((0u32..4, any::<bool>()), 1..=2),
                0..=16,
            )
        ) {
            let (mut fast, mut general) = (Cnf::new(), Cnf::new());
            for c in &raw {
                let lits: Vec<Lit> = c.iter().map(|&(v, neg)| Lit::new(v, neg)).collect();
                match lits[..] {
                    [a] => fast.add_unit(a),
                    [a, b] => fast.add_binary(a, b),
                    _ => unreachable!(),
                }
                general.add_clause(&lits);
            }
            prop_assert_eq!(fast.to_dimacs(), general.to_dimacs());
        }
    }

    proptest! {
        /// A formula holding at-most-one groups reads as its pairwise
        /// expansion everywhere: clauses, clause and variable counts,
        /// evaluation under every assignment, and DIMACS, which parses
        /// back into a clause-only formula that prints the same text.
        #[test]
        fn groups_read_and_round_trip_as_their_pairs(
            raw in proptest::collection::vec(
                (any::<bool>(), proptest::collection::vec((0u32..6, any::<bool>()), 0..=5)),
                0..=10,
            )
        ) {
            let (mut native, mut pairs) = (Cnf::new(), Cnf::new());
            for (amo, c) in &raw {
                let lits: Vec<Lit> = c.iter().map(|&(v, neg)| Lit::new(v, neg)).collect();
                if *amo {
                    native.add_at_most_one(&lits);
                    pairs.add_pairs(&lits);
                } else {
                    native.add_clause(&lits);
                    pairs.add_clause(&lits);
                }
            }
            prop_assert!(native.num_items() <= pairs.num_items());
            let clauses = |f: &Cnf| f.clauses().map(|c| c.to_vec()).collect::<Vec<_>>();
            prop_assert_eq!(clauses(&native), clauses(&pairs));
            prop_assert_eq!(native.num_clauses(), pairs.num_clauses());
            prop_assert_eq!(native.num_vars(), pairs.num_vars());
            let n = native.num_vars() as usize;
            for bits in 0u32..1 << n {
                let assignment: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
                prop_assert_eq!(native.eval(&assignment), pairs.eval(&assignment));
            }

            let text = native.to_dimacs();
            prop_assert_eq!(&text, &pairs.to_dimacs());
            let reparsed = Cnf::from_dimacs(&text).unwrap();
            prop_assert_eq!(reparsed.num_items(), reparsed.num_clauses());
            prop_assert_eq!(clauses(&reparsed), clauses(&native));
            prop_assert_eq!(reparsed.to_dimacs(), text);
        }
    }

    #[test]
    fn groups_are_stored_once() {
        let mut f = Cnf::new();
        let members = [l(1), l(-2), l(3), l(4)];
        f.add_at_most_one(&members);
        f.add_at_most_one(&[l(5), l(6)]);
        f.add_at_most_one(&[l(1), l(2), l(-1)]);
        // A group of four members; a pair; and, for a repeated variable,
        // two pairs (the third is a tautology).
        assert_eq!(f.num_items(), 1 + 1 + 2);
        assert_eq!(f.num_clauses(), 6 + 1 + 2);
        assert_eq!(f.num_lits(), 4 + 2 + 4);
        assert_eq!(f.items().next(), Some(Item::AtMostOne(&members[..])));
    }

    #[test]
    fn eval_and_brute_force() {
        let mut f = Cnf::new();
        f.add_clause(&[l(1), l(2)]);
        f.add_clause(&[l(-1), l(2)]);
        f.add_clause(&[l(1), l(-2)]);
        let m = f.brute_force().expect("sat");
        assert!(f.eval(&m));
        assert!(m[0] && m[1]);
    }

    #[test]
    fn unsat_brute_force() {
        let mut f = Cnf::new();
        f.add_clause(&[l(1)]);
        f.add_clause(&[l(-1)]);
        assert!(f.brute_force().is_none());
    }

    #[test]
    fn tautologies_dropped() {
        let mut f = Cnf::new();
        f.add_clause(&[l(1), l(-1)]);
        assert_eq!(f.num_clauses(), 0);
    }

    #[test]
    fn dimacs_roundtrip() {
        let mut f = Cnf::new();
        f.add_clause(&[l(1), l(-3)]);
        f.add_clause(&[l(2)]);
        let text = f.to_dimacs();
        let g = Cnf::from_dimacs(&text).unwrap();
        assert_eq!(g.num_vars(), 3);
        assert_eq!(g.num_clauses(), 2);
        assert_eq!(g.to_dimacs(), text);
    }

    #[test]
    fn dimacs_comments_and_header() {
        let text = "c a comment\np cnf 3 2\n1 -3 0\n2 0\n";
        let f = Cnf::from_dimacs(text).unwrap();
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
    }

    #[test]
    fn dimacs_errors() {
        assert!(matches!(
            Cnf::from_dimacs("p cnf x 2\n"),
            Err(DimacsError::BadHeader(_))
        ));
        assert!(matches!(
            Cnf::from_dimacs("p cnf 2 1\n1 zz 0\n"),
            Err(DimacsError::BadLiteral(_))
        ));
        assert!(matches!(
            Cnf::from_dimacs("p cnf 2 1\n1 5 0\n"),
            Err(DimacsError::VarOutOfRange {
                var: 5,
                declared: 2
            })
        ));
        assert!(matches!(
            Cnf::from_dimacs("p cnf 2 1\n1 2\n"),
            Err(DimacsError::UnterminatedClause)
        ));
    }

    #[test]
    fn projected_counting() {
        // x1 free, x2 forced true → 2 projected models over {x1}.
        let mut f = Cnf::new();
        f.add_clause(&[l(2)]);
        let _ = f.new_var(); // ensure both vars exist
        assert_eq!(f.count_models_projected(&[0]), 2);
        assert_eq!(f.count_models_projected(&[0, 1]), 2);
    }
}
