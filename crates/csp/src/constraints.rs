//! The constraint library and its propagators.
//!
//! Each constraint propagates to a locally consistent state when executed;
//! the solver runs all woken constraints to a global fixpoint. Propagators
//! are *sound* (never remove a value that belongs to some solution of the
//! constraint) and at least *checking* (they fail when all variables are
//! fixed to a violating assignment), which together guarantee that a
//! complete search returns only genuine solutions.

use crate::store::{EmptyDomain, Store, Val, VarId};

/// A posted constraint.
#[derive(Debug, Clone)]
pub enum Constraint {
    /// `Σ coeffs[k]·vars[k] = rhs` with bounds-consistent propagation.
    LinearEq {
        /// Variables in the sum.
        vars: Vec<VarId>,
        /// Integer coefficients, any sign.
        coeffs: Vec<i64>,
        /// Right-hand side.
        rhs: i64,
    },
    /// `Σ coeffs[k]·vars[k] ≤ rhs` with bounds-consistent propagation.
    LinearLeq {
        /// Variables in the sum.
        vars: Vec<VarId>,
        /// Integer coefficients, any sign.
        coeffs: Vec<i64>,
        /// Right-hand side.
        rhs: i64,
    },
    /// At most one of the 0/1 variables is 1 (paper constraints (3), (4)).
    AtMostOneTrue {
        /// Boolean (0/1) variables.
        vars: Vec<VarId>,
    },
    /// Exactly `rhs` of the 0/1 variables are 1 (paper constraint (5) on
    /// identical processors).
    BoolSumEq {
        /// Boolean (0/1) variables.
        vars: Vec<VarId>,
        /// Required count.
        rhs: u32,
    },
    /// Exactly `rhs` of the variables take `value` (paper constraint (9)).
    CountEq {
        /// Variables counted.
        vars: Vec<VarId>,
        /// The counted value.
        value: Val,
        /// Required number of occurrences.
        rhs: u32,
    },
    /// All variables take pairwise different values (forward-checking
    /// propagation on fixed variables).
    AllDifferent {
        /// Variables.
        vars: Vec<VarId>,
    },
    /// `a ≠ b`.
    NotEqual {
        /// Left variable.
        a: VarId,
        /// Right variable.
        b: VarId,
    },
    /// `a ≠ b` unless both equal `except` (paper constraint (8): two
    /// processors never run the same task, but may both be idle).
    NotEqualUnless {
        /// Left variable.
        a: VarId,
        /// Right variable.
        b: VarId,
        /// The exempted value (the idle marker `-1`).
        except: Val,
    },
    /// `a ≤ b` (paper constraint (10), symmetry breaking).
    LeqVar {
        /// Smaller side.
        a: VarId,
        /// Larger side.
        b: VarId,
    },
    /// All variables pairwise different, except that any number may take
    /// `except` — the global form of the paper's constraint (8): processors
    /// at one instant run distinct tasks but may all idle.
    AllDifferentExcept {
        /// Variables.
        vars: Vec<VarId>,
        /// The exempted value (the idle marker).
        except: Val,
    },
    /// `array[index] = value` for a constant array (element constraint).
    Element {
        /// Index variable (out-of-range indices are pruned).
        index: VarId,
        /// The constant array.
        array: Vec<Val>,
        /// Value variable.
        value: VarId,
    },
    /// The variable tuple must equal one of the listed rows (positive
    /// table constraint, generalized arc-consistent propagation).
    Table {
        /// Variables, one per column.
        vars: Vec<VarId>,
        /// Allowed rows; each row has `vars.len()` entries.
        rows: Vec<Vec<Val>>,
    },
    /// Boolean clause `⋁ lits` over 0/1 variables, where a literal is a
    /// variable id plus a polarity (`true` = positive). Unit propagation.
    /// The paper notes CSP1 "is a boolean encoding so that even boolean
    /// satisfiability (SAT) solvers could be used" — clauses make the
    /// engine a superset of that fragment.
    Or {
        /// The literals `(var, polarity)`.
        lits: Vec<(VarId, bool)>,
    },
    /// Reified bound: `b = 1 ⇔ x ≤ c` for a 0/1 variable `b`.
    ReifiedLeq {
        /// The 0/1 indicator.
        b: VarId,
        /// The bounded variable.
        x: VarId,
        /// The bound.
        c: Val,
    },
}

impl Constraint {
    /// Convenience constructor validating parallel array lengths.
    #[must_use]
    pub fn linear_eq(vars: Vec<VarId>, coeffs: Vec<i64>, rhs: i64) -> Self {
        assert_eq!(vars.len(), coeffs.len());
        Constraint::LinearEq { vars, coeffs, rhs }
    }

    /// Convenience constructor validating parallel array lengths.
    #[must_use]
    pub fn linear_leq(vars: Vec<VarId>, coeffs: Vec<i64>, rhs: i64) -> Self {
        assert_eq!(vars.len(), coeffs.len());
        Constraint::LinearLeq { vars, coeffs, rhs }
    }

    /// The variables this constraint watches (it is re-run whenever any of
    /// them changes), as a borrowed view — no per-call allocation.
    #[must_use]
    pub fn watched(&self) -> Watched<'_> {
        match self {
            Constraint::LinearEq { vars, .. }
            | Constraint::LinearLeq { vars, .. }
            | Constraint::AtMostOneTrue { vars }
            | Constraint::BoolSumEq { vars, .. }
            | Constraint::CountEq { vars, .. }
            | Constraint::AllDifferent { vars } => Watched::Vars(vars),
            Constraint::NotEqual { a, b }
            | Constraint::NotEqualUnless { a, b, .. }
            | Constraint::LeqVar { a, b } => Watched::Pair([*a, *b]),
            Constraint::AllDifferentExcept { vars, .. } => Watched::Vars(vars),
            Constraint::Element { index, value, .. } => Watched::Pair([*index, *value]),
            Constraint::Table { vars, .. } => Watched::Vars(vars),
            Constraint::Or { lits } => Watched::Lits(lits),
            Constraint::ReifiedLeq { b, x, .. } => Watched::Pair([*b, *x]),
        }
    }

    /// Run the propagator once. `Err` means the constraint is violated under
    /// every completion of the current domains.
    pub fn propagate(&self, store: &mut Store) -> Result<(), EmptyDomain> {
        match self {
            Constraint::LinearEq { vars, coeffs, rhs } => {
                propagate_linear(store, vars, coeffs, *rhs, true)
            }
            Constraint::LinearLeq { vars, coeffs, rhs } => {
                propagate_linear(store, vars, coeffs, *rhs, false)
            }
            Constraint::AtMostOneTrue { vars } => propagate_at_most_one(store, vars),
            Constraint::BoolSumEq { vars, rhs } => propagate_bool_sum_eq(store, vars, *rhs),
            Constraint::CountEq { vars, value, rhs } => {
                propagate_count_eq(store, vars, *value, *rhs)
            }
            Constraint::AllDifferent { vars } => propagate_all_different(store, vars),
            Constraint::NotEqual { a, b } => propagate_not_equal(store, *a, *b, None),
            Constraint::NotEqualUnless { a, b, except } => {
                propagate_not_equal(store, *a, *b, Some(*except))
            }
            Constraint::LeqVar { a, b } => propagate_leq_var(store, *a, *b),
            Constraint::AllDifferentExcept { vars, except } => {
                propagate_all_different_except(store, vars, *except)
            }
            Constraint::Element {
                index,
                array,
                value,
            } => propagate_element(store, *index, array, *value),
            Constraint::Table { vars, rows } => propagate_table(store, vars, rows),
            Constraint::Or { lits } => propagate_or(store, lits),
            Constraint::ReifiedLeq { b, x, c } => propagate_reified_leq(store, *b, *x, *c),
        }
    }

    /// Check the constraint against a complete assignment (used by tests and
    /// by debug assertions on solutions).
    #[must_use]
    pub fn is_satisfied(&self, assignment: &[Val]) -> bool {
        match self {
            Constraint::LinearEq { vars, coeffs, rhs } => {
                let s: i64 = vars
                    .iter()
                    .zip(coeffs)
                    .map(|(&v, &c)| c * i64::from(assignment[v]))
                    .sum();
                s == *rhs
            }
            Constraint::LinearLeq { vars, coeffs, rhs } => {
                let s: i64 = vars
                    .iter()
                    .zip(coeffs)
                    .map(|(&v, &c)| c * i64::from(assignment[v]))
                    .sum();
                s <= *rhs
            }
            Constraint::AtMostOneTrue { vars } => {
                vars.iter().filter(|&&v| assignment[v] == 1).count() <= 1
            }
            Constraint::BoolSumEq { vars, rhs } => {
                vars.iter().filter(|&&v| assignment[v] == 1).count() == *rhs as usize
            }
            Constraint::CountEq { vars, value, rhs } => {
                vars.iter().filter(|&&v| assignment[v] == *value).count() == *rhs as usize
            }
            Constraint::AllDifferent { vars } => all_distinct(vars, assignment, None),
            Constraint::NotEqual { a, b } => assignment[*a] != assignment[*b],
            Constraint::NotEqualUnless { a, b, except } => {
                assignment[*a] != assignment[*b] || assignment[*a] == *except
            }
            Constraint::LeqVar { a, b } => assignment[*a] <= assignment[*b],
            Constraint::AllDifferentExcept { vars, except } => {
                all_distinct(vars, assignment, Some(*except))
            }
            Constraint::Element {
                index,
                array,
                value,
            } => usize::try_from(assignment[*index])
                .ok()
                .and_then(|i| array.get(i))
                .is_some_and(|&a| a == assignment[*value]),
            Constraint::Table { vars, rows } => rows
                .iter()
                .any(|row| vars.iter().zip(row).all(|(&v, &r)| assignment[v] == r)),
            Constraint::Or { lits } => lits.iter().any(|&(v, pol)| (assignment[v] == 1) == pol),
            Constraint::ReifiedLeq { b, x, c } => (assignment[*b] == 1) == (assignment[*x] <= *c),
        }
    }
}

/// Borrowed view of the variables a constraint watches, returned by
/// [`Constraint::watched`]. Iterate it directly (`for v in c.watched()`)
/// or via [`Watched::iter`].
#[derive(Debug, Clone, Copy)]
pub enum Watched<'a> {
    /// The constraint watches a slice of variables.
    Vars(&'a [VarId]),
    /// The constraint watches exactly two variables.
    Pair([VarId; 2]),
    /// The constraint watches the variables of a literal list.
    Lits(&'a [(VarId, bool)]),
}

impl Watched<'_> {
    /// Number of watched entries (with multiplicity).
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Watched::Vars(v) => v.len(),
            Watched::Pair(_) => 2,
            Watched::Lits(l) => l.len(),
        }
    }

    /// Is the watch list empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the watched variable ids.
    #[must_use]
    pub fn iter(&self) -> WatchedIter<'_> {
        (*self).into_iter()
    }
}

impl<'a> IntoIterator for Watched<'a> {
    type Item = VarId;
    type IntoIter = WatchedIter<'a>;
    fn into_iter(self) -> WatchedIter<'a> {
        WatchedIter {
            inner: match self {
                Watched::Vars(v) => WatchedInner::Slice(v.iter()),
                Watched::Pair(p) => WatchedInner::Pair(p.into_iter()),
                Watched::Lits(l) => WatchedInner::Lits(l.iter()),
            },
        }
    }
}

/// Iterator over watched variable ids (see [`Watched`]).
#[derive(Debug)]
pub struct WatchedIter<'a> {
    inner: WatchedInner<'a>,
}

#[derive(Debug)]
enum WatchedInner<'a> {
    Slice(std::slice::Iter<'a, VarId>),
    Pair(std::array::IntoIter<VarId, 2>),
    Lits(std::slice::Iter<'a, (VarId, bool)>),
}

impl Iterator for WatchedIter<'_> {
    type Item = VarId;
    fn next(&mut self) -> Option<VarId> {
        match &mut self.inner {
            WatchedInner::Slice(it) => it.next().copied(),
            WatchedInner::Pair(it) => it.next(),
            WatchedInner::Lits(it) => it.next().map(|&(v, _)| v),
        }
    }
}

/// Pairwise-distinct check over a complete assignment via sort-and-scan —
/// no hash set allocation on the solution-validation path.
fn all_distinct(vars: &[VarId], assignment: &[Val], except: Option<Val>) -> bool {
    let mut vals: Vec<Val> = vars
        .iter()
        .map(|&v| assignment[v])
        .filter(|&x| except != Some(x))
        .collect();
    vals.sort_unstable();
    vals.windows(2).all(|w| w[0] != w[1])
}

/// `⌊a/b⌋` for any sign of `b ≠ 0` (Euclidean division is the floor only
/// for positive divisors).
pub(crate) fn div_floor(a: i64, b: i64) -> i64 {
    let q = a.div_euclid(b);
    if b < 0 && a.rem_euclid(b) != 0 {
        q - 1
    } else {
        q
    }
}

/// `⌈a/b⌉` for any sign of `b ≠ 0`.
pub(crate) fn div_ceil(a: i64, b: i64) -> i64 {
    let q = a.div_euclid(b);
    if b > 0 && a.rem_euclid(b) != 0 {
        q + 1
    } else {
        q
    }
}

/// Bounds consistency for `Σ c_k·x_k (= | ≤) rhs`.
pub(crate) fn propagate_linear(
    store: &mut Store,
    vars: &[VarId],
    coeffs: &[i64],
    rhs: i64,
    equality: bool,
) -> Result<(), EmptyDomain> {
    // Contribution bounds per term: coeff > 0 uses (min,max), < 0 swaps.
    let mut sum_min: i64 = 0;
    let mut sum_max: i64 = 0;
    for (&v, &c) in vars.iter().zip(coeffs) {
        let (lo, hi) = (i64::from(store.min(v)), i64::from(store.max(v)));
        if c >= 0 {
            sum_min += c * lo;
            sum_max += c * hi;
        } else {
            sum_min += c * hi;
            sum_max += c * lo;
        }
    }
    if sum_min > rhs || (equality && sum_max < rhs) {
        return Err(EmptyDomain(vars.first().copied().unwrap_or(0)));
    }
    // Fixpoint within this constraint: tighten each variable against the
    // residual slack, repeating while something moves.
    let mut changed = true;
    while changed {
        changed = false;
        for (&v, &c) in vars.iter().zip(coeffs) {
            if c == 0 {
                continue;
            }
            let (lo, hi) = (i64::from(store.min(v)), i64::from(store.max(v)));
            let (term_min, term_max) = if c >= 0 {
                (c * lo, c * hi)
            } else {
                (c * hi, c * lo)
            };
            // Upper side (always active): c·x ≤ rhs - (sum_min - term_min)
            let ub_term = rhs - (sum_min - term_min);
            // Lower side (equality only): c·x ≥ rhs - (sum_max - term_max)
            let lb_term = rhs - (sum_max - term_max);
            let (new_lo, new_hi) = if c > 0 {
                // c·x ≤ U ⇔ x ≤ ⌊U/c⌋; c·x ≥ L ⇔ x ≥ ⌈L/c⌉.
                let hi_v = div_floor(ub_term, c);
                let lo_v = if equality { div_ceil(lb_term, c) } else { lo };
                (lo_v, hi_v)
            } else {
                // c < 0: c·x ≤ U ⇔ x ≥ ⌈U/c⌉; c·x ≥ L ⇔ x ≤ ⌊L/c⌋.
                let lo_v = div_ceil(ub_term, c);
                let hi_v = if equality { div_floor(lb_term, c) } else { hi };
                (lo_v, hi_v)
            };
            if new_lo > lo {
                let val = Val::try_from(new_lo.min(i64::from(Val::MAX))).unwrap_or(Val::MAX);
                if store.remove_below(v, val)? {
                    changed = true;
                }
            }
            if new_hi < hi {
                let val = Val::try_from(new_hi.max(i64::from(Val::MIN))).unwrap_or(Val::MIN);
                if store.remove_above(v, val)? {
                    changed = true;
                }
            }
            if changed {
                // Recompute the running bounds after a tightening.
                sum_min = 0;
                sum_max = 0;
                for (&v2, &c2) in vars.iter().zip(coeffs) {
                    let (l2, h2) = (i64::from(store.min(v2)), i64::from(store.max(v2)));
                    if c2 >= 0 {
                        sum_min += c2 * l2;
                        sum_max += c2 * h2;
                    } else {
                        sum_min += c2 * h2;
                        sum_max += c2 * l2;
                    }
                }
                if sum_min > rhs || (equality && sum_max < rhs) {
                    return Err(EmptyDomain(v));
                }
            }
        }
    }
    Ok(())
}

pub(crate) fn propagate_at_most_one(store: &mut Store, vars: &[VarId]) -> Result<(), EmptyDomain> {
    // "Is 1" means fixed to 1. (On the documented 0/1 domains this equals
    // the cheaper `min == 1` test, but only the fixed-value form stays
    // sound when the constraint is posted on wider domains.)
    let mut first_true: Option<VarId> = None;
    for &v in vars {
        if store.is_fixed(v) && store.value(v) == 1 {
            if first_true.is_some() {
                return Err(EmptyDomain(v));
            }
            first_true = Some(v);
        }
    }
    if let Some(t) = first_true {
        for &v in vars {
            if v != t {
                // "Must be false" is the removal of value 1 — equivalent to
                // assigning 0 on 0/1 domains, but sound on wider ones.
                store.remove(v, 1)?;
            }
        }
    }
    Ok(())
}

pub(crate) fn propagate_bool_sum_eq(
    store: &mut Store,
    vars: &[VarId],
    rhs: u32,
) -> Result<(), EmptyDomain> {
    let mut fixed_true = 0u32;
    let mut unfixed = 0u32;
    for &v in vars {
        if store.is_fixed(v) {
            fixed_true += u32::from(store.value(v) == 1);
        } else {
            unfixed += 1;
        }
    }
    if fixed_true > rhs || fixed_true + unfixed < rhs {
        return Err(EmptyDomain(vars.first().copied().unwrap_or(0)));
    }
    if fixed_true == rhs {
        for &v in vars {
            if !store.is_fixed(v) {
                // Saturated: the rest must avoid 1 (not "equal 0", which
                // would overprune non-boolean domains).
                store.remove(v, 1)?;
            }
        }
    } else if fixed_true + unfixed == rhs {
        for &v in vars {
            if !store.is_fixed(v) {
                store.assign(v, 1)?;
            }
        }
    }
    Ok(())
}

pub(crate) fn propagate_count_eq(
    store: &mut Store,
    vars: &[VarId],
    value: Val,
    rhs: u32,
) -> Result<(), EmptyDomain> {
    let mut fixed_to = 0u32;
    let mut possible = 0u32;
    for &v in vars {
        if store.is_fixed(v) {
            fixed_to += u32::from(store.value(v) == value);
        } else if store.contains(v, value) {
            possible += 1;
        }
    }
    if fixed_to > rhs || fixed_to + possible < rhs {
        return Err(EmptyDomain(vars.first().copied().unwrap_or(0)));
    }
    if fixed_to == rhs {
        for &v in vars {
            if !store.is_fixed(v) {
                store.remove(v, value)?;
            }
        }
    } else if fixed_to + possible == rhs {
        for &v in vars {
            if !store.is_fixed(v) && store.contains(v, value) {
                store.assign(v, value)?;
            }
        }
    }
    Ok(())
}

pub(crate) fn propagate_all_different(
    store: &mut Store,
    vars: &[VarId],
) -> Result<(), EmptyDomain> {
    // Forward checking: each fixed value is removed from all other domains.
    // Iterate until stable because removals can fix further variables.
    let mut changed = true;
    while changed {
        changed = false;
        for idx in 0..vars.len() {
            let v = vars[idx];
            if !store.is_fixed(v) {
                continue;
            }
            let val = store.value(v);
            for (jdx, &w) in vars.iter().enumerate() {
                if jdx != idx && store.contains(w, val) {
                    // A fixed `w` wipes out inside `remove`, which records
                    // the conflict context learning needs.
                    store.remove(w, val)?;
                    changed = true;
                }
            }
        }
    }
    Ok(())
}

pub(crate) fn propagate_not_equal(
    store: &mut Store,
    a: VarId,
    b: VarId,
    except: Option<Val>,
) -> Result<(), EmptyDomain> {
    if store.is_fixed(a) {
        let val = store.value(a);
        if Some(val) != except && store.contains(b, val) {
            store.remove(b, val)?;
        }
    }
    if store.is_fixed(b) {
        let val = store.value(b);
        if Some(val) != except && store.contains(a, val) {
            store.remove(a, val)?;
        }
    }
    Ok(())
}

pub(crate) fn propagate_all_different_except(
    store: &mut Store,
    vars: &[VarId],
    except: Val,
) -> Result<(), EmptyDomain> {
    // Forward checking on fixed non-exempt values, iterated to a local
    // fixpoint (a removal can fix another variable).
    let mut changed = true;
    while changed {
        changed = false;
        for idx in 0..vars.len() {
            let v = vars[idx];
            if !store.is_fixed(v) {
                continue;
            }
            let val = store.value(v);
            if val == except {
                continue;
            }
            for (jdx, &w) in vars.iter().enumerate() {
                if jdx != idx && store.contains(w, val) {
                    store.remove(w, val)?;
                    changed = true;
                }
            }
        }
    }
    Ok(())
}

pub(crate) fn propagate_element(
    store: &mut Store,
    index: VarId,
    array: &[Val],
    value: VarId,
) -> Result<(), EmptyDomain> {
    // Prune indices whose array entry left the value domain…
    let bad: Vec<Val> = store
        .iter(index)
        .filter(|&i| {
            usize::try_from(i)
                .ok()
                .and_then(|i| array.get(i))
                .is_none_or(|&a| !store.contains(value, a))
        })
        .collect();
    for i in bad {
        store.remove(index, i)?;
    }
    // …and values no surviving index can produce.
    let reachable: std::collections::HashSet<Val> = store
        .iter(index)
        .filter_map(|i| usize::try_from(i).ok().and_then(|i| array.get(i)).copied())
        .collect();
    let dead: Vec<Val> = store
        .iter(value)
        .filter(|v| !reachable.contains(v))
        .collect();
    for v in dead {
        store.remove(value, v)?;
    }
    Ok(())
}

pub(crate) fn propagate_table(
    store: &mut Store,
    vars: &[VarId],
    rows: &[Vec<Val>],
) -> Result<(), EmptyDomain> {
    // Generalized arc consistency by support scanning: a value survives
    // only if some row using it is fully supported by the current domains.
    let live: Vec<&Vec<Val>> = rows
        .iter()
        .filter(|row| {
            row.len() == vars.len()
                && vars
                    .iter()
                    .zip(row.iter())
                    .all(|(&v, &r)| store.contains(v, r))
        })
        .collect();
    if live.is_empty() {
        return Err(EmptyDomain(*vars.first().unwrap_or(&0)));
    }
    for (col, &v) in vars.iter().enumerate() {
        let supported: std::collections::HashSet<Val> = live.iter().map(|row| row[col]).collect();
        let dead: Vec<Val> = store
            .iter(v)
            .filter(|val| !supported.contains(val))
            .collect();
        for val in dead {
            store.remove(v, val)?;
        }
    }
    Ok(())
}

/// A positive literal holds iff the variable equals 1; a negative literal
/// holds iff it differs from 1. This generalizes cleanly from 0/1 domains
/// to arbitrary ones.
pub(crate) fn propagate_or(store: &mut Store, lits: &[(VarId, bool)]) -> Result<(), EmptyDomain> {
    let mut pending: Option<(VarId, bool)> = None;
    let mut pending_count = 0;
    for &(v, pol) in lits {
        let can_be_one = store.contains(v, 1);
        let must_be_one = store.is_fixed(v) && store.value(v) == 1;
        let satisfied = if pol { must_be_one } else { !can_be_one };
        if satisfied {
            return Ok(());
        }
        let falsified = if pol { !can_be_one } else { must_be_one };
        if !falsified {
            pending = Some((v, pol));
            pending_count += 1;
        }
    }
    match (pending, pending_count) {
        // Every literal falsified.
        (None, _) => Err(EmptyDomain(lits.first().map_or(0, |&(v, _)| v))),
        // Unit: force the last undecided literal.
        (Some((v, pol)), 1) => {
            if pol {
                store.assign(v, 1)?;
            } else {
                store.remove(v, 1)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

pub(crate) fn propagate_reified_leq(
    store: &mut Store,
    b: VarId,
    x: VarId,
    c: Val,
) -> Result<(), EmptyDomain> {
    // "b is true" means b = 1; any other value is false (general domains).
    let b_must_one = store.is_fixed(b) && store.value(b) == 1;
    let b_can_one = store.contains(b, 1);
    if b_must_one {
        store.remove_above(x, c)?;
        return Ok(());
    }
    if !b_can_one {
        // b is surely false → x > c.
        let Some(c1) = c.checked_add(1) else {
            // x ≤ Val::MAX always holds: the constraint demands b = 1.
            return Err(EmptyDomain(b));
        };
        store.remove_below(x, c1)?;
        return Ok(());
    }
    // b undecided: infer it from x where possible.
    if store.max(x) <= c {
        store.assign(b, 1)?;
    } else if store.min(x) > c {
        store.remove(b, 1)?;
    }
    Ok(())
}

pub(crate) fn propagate_leq_var(store: &mut Store, a: VarId, b: VarId) -> Result<(), EmptyDomain> {
    // a ≤ b: max(a) ≤ max(b), min(b) ≥ min(a).
    store.remove_above(a, store.max(b))?;
    store.remove_below(b, store.min(a))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(n: usize, lb: Val, ub: Val) -> (Store, Vec<VarId>) {
        let mut s = Store::new();
        let vars = (0..n).map(|_| s.new_var(lb, ub)).collect();
        (s, vars)
    }

    #[test]
    fn linear_eq_tightens_bounds() {
        // x + y = 5, x,y ∈ [0,10] → both ≤ 5.
        let (mut s, v) = fresh(2, 0, 10);
        let c = Constraint::linear_eq(v.clone(), vec![1, 1], 5);
        c.propagate(&mut s).unwrap();
        assert_eq!(s.max(v[0]), 5);
        assert_eq!(s.max(v[1]), 5);
    }

    #[test]
    fn linear_eq_with_negative_coeff() {
        // x - y = 2, x ∈ [0,4], y ∈ [0,4] → x ≥ 2, y ≤ 2.
        let (mut s, v) = fresh(2, 0, 4);
        let c = Constraint::linear_eq(v.clone(), vec![1, -1], 2);
        c.propagate(&mut s).unwrap();
        assert_eq!(s.min(v[0]), 2);
        assert_eq!(s.max(v[1]), 2);
    }

    #[test]
    fn linear_eq_detects_failure() {
        let (mut s, v) = fresh(2, 0, 2);
        let c = Constraint::linear_eq(v, vec![1, 1], 9);
        assert!(c.propagate(&mut s).is_err());
    }

    #[test]
    fn linear_eq_rounds_division_correctly() {
        // 2x = 5 has no integer solution: propagation must fail or empty.
        let (mut s, v) = fresh(1, 0, 10);
        let c = Constraint::linear_eq(v.clone(), vec![2], 5);
        // Bounds reasoning gives x ∈ [ceil(5/2), floor(5/2)] = [3,2] → fail.
        assert!(c.propagate(&mut s).is_err());
    }

    #[test]
    fn linear_leq_only_upper() {
        let (mut s, v) = fresh(2, 0, 10);
        let c = Constraint::linear_leq(v.clone(), vec![1, 1], 4);
        c.propagate(&mut s).unwrap();
        assert_eq!(s.max(v[0]), 4);
        assert_eq!(s.min(v[0]), 0); // lower side untouched
    }

    #[test]
    fn linear_leq_negative_coeff_raises_lower_bound() {
        // -x ≤ -3  ⇔  x ≥ 3.
        let (mut s, v) = fresh(1, 0, 10);
        let c = Constraint::linear_leq(v.clone(), vec![-1], -3);
        c.propagate(&mut s).unwrap();
        assert_eq!(s.min(v[0]), 3);
    }

    #[test]
    fn at_most_one_true() {
        let (mut s, v) = fresh(3, 0, 1);
        s.assign(v[1], 1).unwrap();
        let c = Constraint::AtMostOneTrue { vars: v.clone() };
        c.propagate(&mut s).unwrap();
        assert_eq!(s.value(v[0]), 0);
        assert_eq!(s.value(v[2]), 0);
        // Two fixed true → failure.
        let (mut s, v) = fresh(2, 0, 1);
        s.assign(v[0], 1).unwrap();
        s.assign(v[1], 1).unwrap();
        let c = Constraint::AtMostOneTrue { vars: v };
        assert!(c.propagate(&mut s).is_err());
    }

    #[test]
    fn bool_sum_eq_forces_both_directions() {
        // 3 booleans summing to 3 → all true.
        let (mut s, v) = fresh(3, 0, 1);
        let c = Constraint::BoolSumEq {
            vars: v.clone(),
            rhs: 3,
        };
        c.propagate(&mut s).unwrap();
        assert!(v.iter().all(|&x| s.value(x) == 1));
        // Sum to 0 → all false.
        let (mut s, v) = fresh(3, 0, 1);
        let c = Constraint::BoolSumEq {
            vars: v.clone(),
            rhs: 0,
        };
        c.propagate(&mut s).unwrap();
        assert!(v.iter().all(|&x| s.value(x) == 0));
    }

    #[test]
    fn bool_sum_eq_failure_cases() {
        let (mut s, v) = fresh(2, 0, 1);
        s.assign(v[0], 1).unwrap();
        s.assign(v[1], 1).unwrap();
        let c = Constraint::BoolSumEq { vars: v, rhs: 1 };
        assert!(c.propagate(&mut s).is_err());
        let (mut s, v) = fresh(2, 0, 1);
        let c = Constraint::BoolSumEq { vars: v, rhs: 3 };
        assert!(c.propagate(&mut s).is_err());
    }

    #[test]
    fn count_eq_saturation() {
        // 3 vars over {0,1,2}; exactly 2 must equal 1; two vars fixed to 1
        // → third must not be 1.
        let (mut s, v) = fresh(3, 0, 2);
        s.assign(v[0], 1).unwrap();
        s.assign(v[1], 1).unwrap();
        let c = Constraint::CountEq {
            vars: v.clone(),
            value: 1,
            rhs: 2,
        };
        c.propagate(&mut s).unwrap();
        assert!(!s.contains(v[2], 1));
    }

    #[test]
    fn count_eq_forcing() {
        // 3 vars; exactly 3 must equal 1 → all assigned 1.
        let (mut s, v) = fresh(3, 0, 2);
        let c = Constraint::CountEq {
            vars: v.clone(),
            value: 1,
            rhs: 3,
        };
        c.propagate(&mut s).unwrap();
        assert!(v.iter().all(|&x| s.value(x) == 1));
    }

    #[test]
    fn count_eq_counts_only_possible() {
        let (mut s, v) = fresh(2, 0, 2);
        s.remove(v[0], 1).unwrap();
        s.remove(v[1], 1).unwrap();
        let c = Constraint::CountEq {
            vars: v,
            value: 1,
            rhs: 1,
        };
        assert!(c.propagate(&mut s).is_err());
    }

    #[test]
    fn all_different_chains() {
        let (mut s, v) = fresh(3, 0, 2);
        s.assign(v[0], 0).unwrap();
        s.remove(v[1], 2).unwrap(); // v1 ∈ {0,1} → after removing 0 → fixed 1
        let c = Constraint::AllDifferent { vars: v.clone() };
        c.propagate(&mut s).unwrap();
        assert_eq!(s.value(v[1]), 1);
        assert_eq!(s.value(v[2]), 2);
    }

    #[test]
    fn not_equal_basic() {
        let (mut s, v) = fresh(2, 0, 3);
        s.assign(v[0], 2).unwrap();
        let c = Constraint::NotEqual { a: v[0], b: v[1] };
        c.propagate(&mut s).unwrap();
        assert!(!s.contains(v[1], 2));
    }

    #[test]
    fn not_equal_unless_spares_exception() {
        let (mut s, v) = fresh(2, -1, 3);
        s.assign(v[0], -1).unwrap();
        let c = Constraint::NotEqualUnless {
            a: v[0],
            b: v[1],
            except: -1,
        };
        c.propagate(&mut s).unwrap();
        assert!(s.contains(v[1], -1), "-1 = idle stays allowed");
        // But a real task value is propagated.
        let (mut s, v) = fresh(2, -1, 3);
        s.assign(v[0], 2).unwrap();
        let c = Constraint::NotEqualUnless {
            a: v[0],
            b: v[1],
            except: -1,
        };
        c.propagate(&mut s).unwrap();
        assert!(!s.contains(v[1], 2));
    }

    #[test]
    fn leq_var_bounds() {
        let (mut s, v) = fresh(2, 0, 9);
        s.remove_above(v[1], 4).unwrap();
        s.remove_below(v[0], 2).unwrap();
        let c = Constraint::LeqVar { a: v[0], b: v[1] };
        c.propagate(&mut s).unwrap();
        assert_eq!(s.max(v[0]), 4);
        assert_eq!(s.min(v[1]), 2);
    }

    #[test]
    fn all_different_except_spares_the_marker() {
        let (mut s, v) = fresh(3, -1, 2);
        s.assign(v[0], -1).unwrap();
        s.assign(v[1], -1).unwrap();
        let c = Constraint::AllDifferentExcept {
            vars: v.clone(),
            except: -1,
        };
        c.propagate(&mut s).unwrap();
        assert!(s.contains(v[2], -1), "two idles must not forbid a third");
        // A real value still propagates.
        let (mut s, v) = fresh(3, -1, 2);
        s.assign(v[0], 1).unwrap();
        let c = Constraint::AllDifferentExcept {
            vars: v.clone(),
            except: -1,
        };
        c.propagate(&mut s).unwrap();
        assert!(!s.contains(v[1], 1));
        assert!(!s.contains(v[2], 1));
    }

    #[test]
    fn all_different_except_detects_conflict() {
        let (mut s, v) = fresh(2, 0, 3);
        s.assign(v[0], 2).unwrap();
        s.assign(v[1], 2).unwrap();
        let c = Constraint::AllDifferentExcept {
            vars: v,
            except: -1,
        };
        assert!(c.propagate(&mut s).is_err());
    }

    #[test]
    fn element_prunes_both_sides() {
        // array = [5, 7, 5, 9]; value ∈ {5, 9} → index loses 1;
        // index ∈ {0..3} → value keeps {5, 9}.
        let mut s = Store::new();
        let index = s.new_var(0, 3);
        let value = s.new_var(5, 9);
        s.remove(value, 6).unwrap();
        s.remove(value, 7).unwrap();
        s.remove(value, 8).unwrap();
        let c = Constraint::Element {
            index,
            array: vec![5, 7, 5, 9],
            value,
        };
        c.propagate(&mut s).unwrap();
        assert!(!s.contains(index, 1), "array[1]=7 unsupported");
        assert!(s.contains(index, 0) && s.contains(index, 2) && s.contains(index, 3));
        // Fixing the index pins the value.
        s.assign(index, 3).unwrap();
        c.propagate(&mut s).unwrap();
        assert_eq!(s.value(value), 9);
    }

    #[test]
    fn element_out_of_range_index_pruned() {
        let mut s = Store::new();
        let index = s.new_var(-2, 5);
        let value = s.new_var(0, 10);
        let c = Constraint::Element {
            index,
            array: vec![1, 2],
            value,
        };
        c.propagate(&mut s).unwrap();
        assert_eq!(s.min(index), 0);
        assert_eq!(s.max(index), 1);
        assert_eq!(s.iter(value).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn table_gac_propagation() {
        let (mut s, v) = fresh(2, 0, 2);
        let c = Constraint::Table {
            vars: v.clone(),
            rows: vec![vec![0, 1], vec![1, 2], vec![2, 2]],
        };
        c.propagate(&mut s).unwrap();
        // Column 1 support: {1, 2} — value 0 dies.
        assert!(!s.contains(v[1], 0));
        // Fix column 0 to 0 → column 1 must be 1.
        s.assign(v[0], 0).unwrap();
        c.propagate(&mut s).unwrap();
        assert_eq!(s.value(v[1]), 1);
    }

    #[test]
    fn table_with_no_live_row_fails() {
        let (mut s, v) = fresh(2, 0, 1);
        let c = Constraint::Table {
            vars: v,
            rows: vec![vec![5, 5]],
        };
        assert!(c.propagate(&mut s).is_err());
    }

    #[test]
    fn or_unit_propagation() {
        // (¬a ∨ b): fixing a = 1 forces b = 1.
        let (mut s, v) = fresh(2, 0, 1);
        s.assign(v[0], 1).unwrap();
        let c = Constraint::Or {
            lits: vec![(v[0], false), (v[1], true)],
        };
        c.propagate(&mut s).unwrap();
        assert_eq!(s.value(v[1]), 1);
    }

    #[test]
    fn or_satisfied_clause_is_inert() {
        let (mut s, v) = fresh(2, 0, 1);
        s.assign(v[0], 1).unwrap();
        let c = Constraint::Or {
            lits: vec![(v[0], true), (v[1], true)],
        };
        c.propagate(&mut s).unwrap();
        assert!(!s.is_fixed(v[1]), "satisfied clause must not touch b");
    }

    #[test]
    fn or_all_false_fails() {
        let (mut s, v) = fresh(2, 0, 1);
        s.assign(v[0], 0).unwrap();
        s.assign(v[1], 0).unwrap();
        let c = Constraint::Or {
            lits: vec![(v[0], true), (v[1], true)],
        };
        assert!(c.propagate(&mut s).is_err());
    }

    #[test]
    fn reified_leq_both_directions() {
        // Forward: b = 1 prunes x above c.
        let mut s = Store::new();
        let b = s.new_var(0, 1);
        let x = s.new_var(0, 9);
        s.assign(b, 1).unwrap();
        let c = Constraint::ReifiedLeq { b, x, c: 4 };
        c.propagate(&mut s).unwrap();
        assert_eq!(s.max(x), 4);
        // Forward negative: b = 0 prunes x at or below c.
        let mut s = Store::new();
        let b = s.new_var(0, 1);
        let x = s.new_var(0, 9);
        s.assign(b, 0).unwrap();
        let c = Constraint::ReifiedLeq { b, x, c: 4 };
        c.propagate(&mut s).unwrap();
        assert_eq!(s.min(x), 5);
        // Backward: x ≤ c everywhere fixes b = 1.
        let mut s = Store::new();
        let b = s.new_var(0, 1);
        let x = s.new_var(0, 3);
        let c = Constraint::ReifiedLeq { b, x, c: 4 };
        c.propagate(&mut s).unwrap();
        assert_eq!(s.value(b), 1);
        // Backward: x > c everywhere fixes b = 0.
        let mut s = Store::new();
        let b = s.new_var(0, 1);
        let x = s.new_var(6, 9);
        let c = Constraint::ReifiedLeq { b, x, c: 4 };
        c.propagate(&mut s).unwrap();
        assert_eq!(s.value(b), 0);
    }

    #[test]
    fn is_satisfied_spot_checks() {
        let c = Constraint::linear_eq(vec![0, 1], vec![1, 2], 5);
        assert!(c.is_satisfied(&[1, 2]));
        assert!(!c.is_satisfied(&[1, 1]));
        let c = Constraint::AllDifferent {
            vars: vec![0, 1, 2],
        };
        assert!(c.is_satisfied(&[3, 1, 2]));
        assert!(!c.is_satisfied(&[3, 1, 3]));
        let c = Constraint::NotEqualUnless {
            a: 0,
            b: 1,
            except: -1,
        };
        assert!(c.is_satisfied(&[-1, -1]));
        assert!(!c.is_satisfied(&[2, 2]));
        let c = Constraint::LeqVar { a: 0, b: 1 };
        assert!(c.is_satisfied(&[1, 1]));
        assert!(!c.is_satisfied(&[2, 1]));
    }
}
