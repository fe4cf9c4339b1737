//! Model builder: declare variables and post constraints, then hand off to a
//! [`crate::Solver`].

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use mgrts_obs::recycle;

use crate::constraints::Constraint;
use crate::solver::{raised, Solver, SolverConfig, SOLVER_BUFFERS};
use crate::store::{Store, Val, VarId};

/// A CSP under construction.
#[derive(Debug, Default, Clone)]
pub struct Model {
    domains: Vec<(Val, Val)>,
    removals: Vec<(VarId, Val)>,
    constraints: Vec<Constraint>,
    interrupt: Option<Arc<AtomicBool>>,
}

impl Model {
    /// An empty model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty model with capacity hints — encoders that know their size
    /// up front (`n·m·H` cells, one constraint family per instant) pass the
    /// expected variable and constraint counts to avoid reallocation while
    /// building paper-scale models.
    #[must_use]
    pub fn with_capacity(vars: usize, constraints: usize) -> Self {
        Model {
            domains: Vec::with_capacity(vars),
            removals: Vec::new(),
            constraints: Vec::with_capacity(constraints),
            interrupt: None,
        }
    }

    /// Install a cooperative interrupt flag, polled from
    /// [`Model::into_solver`] on: every 1024 variables while the domain
    /// store is built, once per propagator while the solver is built, then
    /// at the search's budget checks. When another thread raises it the
    /// search stops with [`crate::LimitReason::Interrupted`]; a solver
    /// whose construction was interrupted reports that from every solve,
    /// even if the flag is lowered later, because it lacks its variables
    /// or propagators. Used by portfolio racing.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Declare a variable with inclusive domain `[lb, ub]`.
    pub fn new_var(&mut self, lb: Val, ub: Val) -> VarId {
        assert!(lb <= ub, "empty initial domain");
        self.domains.push((lb, ub));
        self.domains.len() - 1
    }

    /// Declare a 0/1 variable.
    pub fn new_bool(&mut self) -> VarId {
        self.new_var(0, 1)
    }

    /// Declare `n` variables with the same domain.
    pub fn new_vars(&mut self, n: usize, lb: Val, ub: Val) -> Vec<VarId> {
        (0..n).map(|_| self.new_var(lb, ub)).collect()
    }

    /// Punch a hole in a variable's initial domain (e.g. paper constraints
    /// (2)/(7): out-of-interval values are removed before search).
    pub fn remove_value(&mut self, var: VarId, val: Val) {
        self.removals.push((var, val));
    }

    /// Post a constraint.
    pub fn post(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Number of declared variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.domains.len()
    }

    /// Number of posted constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sum over variables of (domain size − 1) — a rough search-space gauge
    /// used by encoders to refuse absurdly large models gracefully.
    #[must_use]
    pub fn domain_mass(&self) -> u64 {
        self.domains.iter().map(|&(lb, ub)| (ub - lb) as u64).sum()
    }

    /// The constraints posted so far.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Materialize the declared domains (with initial removals applied)
    /// into a fresh store. The boolean is true when a removal already
    /// wiped a domain out.
    pub(crate) fn build_store(&self) -> (Store, bool) {
        let mut store = Store::new();
        let inconsistent = self
            .fill_store(&mut store, None)
            .expect("an absent interrupt flag is never raised");
        (store, inconsistent)
    }

    /// Empty `store` and materialize the declared domains into it, sized
    /// up front, polling `interrupt` every 1024 variables: `None` (and an
    /// empty store) once it is raised, else whether a removal already
    /// wiped a domain out.
    fn fill_store(&self, store: &mut Store, interrupt: Option<&AtomicBool>) -> Option<bool> {
        store.reset();
        let words = self
            .domains
            .iter()
            .map(|&(lb, ub)| ((ub - lb) as u64 + 1).div_ceil(64) as usize)
            .sum();
        store.reserve(self.domains.len(), words);
        for (k, &(lb, ub)) in self.domains.iter().enumerate() {
            if k % 1024 == 0 && raised(interrupt) {
                store.reset();
                return None;
            }
            store.new_var(lb, ub);
        }
        let mut initially_inconsistent = false;
        for &(var, val) in &self.removals {
            if store.remove(var, val).is_err() {
                initially_inconsistent = true;
            }
        }
        Some(initially_inconsistent)
    }

    /// Freeze the model into a solver (see [`Model::set_interrupt`] for
    /// how an interrupt flag reaches it). The solver is built in the
    /// buffers the last solver dropped on this thread left behind, when
    /// there are any.
    #[must_use]
    pub fn into_solver(self, config: SolverConfig) -> Solver {
        let mut bufs = recycle::take(&SOLVER_BUFFERS).unwrap_or_default();
        let built = self.fill_store(&mut bufs.store, self.interrupt.as_deref());
        Solver::from_parts(
            bufs,
            built.is_some(),
            built == Some(true),
            self.constraints,
            config,
            self.interrupt,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Outcome;

    #[test]
    fn builder_counts() {
        let mut m = Model::new();
        let x = m.new_var(0, 4);
        let b = m.new_bool();
        let more = m.new_vars(3, -1, 2);
        assert_eq!(m.num_vars(), 5);
        assert_eq!(more[2], 4);
        m.post(Constraint::NotEqual { a: x, b });
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.domain_mass(), 4 + 1 + 3 * 3);
    }

    #[test]
    fn initial_removal_can_prove_unsat() {
        let mut m = Model::new();
        let x = m.new_var(3, 3);
        m.remove_value(x, 3);
        let mut s = m.into_solver(SolverConfig::default());
        assert!(matches!(s.solve(), Outcome::Unsat));
    }
}
