//! Retained stateless reference engine — the executable specification the
//! incremental solver is differentially tested against.
//!
//! [`RefSolver`] is the pre-incremental propagation core, kept verbatim in
//! spirit: every woken constraint re-runs its full stateless propagator
//! ([`Constraint::propagate`]), any change to a watched variable wakes all
//! of its watchers regardless of event kind, variable selection rescans
//! every variable, and the wall clock is read on every budget check. It is
//! deliberately *not* a performance path — `crates/csp/benches/
//! propagation.rs` measures the incremental engine against it, and
//! `crates/csp/tests/incremental_equivalence.rs` asserts both engines reach
//! identical fixpoints and verdicts on random models.

use std::collections::VecDeque;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::constraints::Constraint;
use crate::model::Model;
use mgrts_obs::SearchStats;

use crate::solver::{LimitReason, Outcome, SolverConfig, ValOrder, VarOrder};
use crate::store::{EventMask, Store, Val, VarId};

/// The stateless reference solver. Build one with
/// [`RefSolver::from_model`]; the API mirrors the subset of
/// [`crate::Solver`] the differential tests need.
#[derive(Debug)]
pub struct RefSolver {
    store: Store,
    constraints: Vec<Constraint>,
    watchers: Vec<Vec<u32>>,
    weights: Vec<u64>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    decisions: Vec<(VarId, Val)>,
    config: SolverConfig,
    rng: SmallRng,
    stats: SearchStats,
    initially_inconsistent: bool,
    dirty_buf: Vec<(VarId, EventMask)>,
}

impl RefSolver {
    /// Freeze a model into a reference solver (the model itself is not
    /// consumed, so the same model can also feed the incremental engine).
    #[must_use]
    pub fn from_model(model: &Model, config: SolverConfig) -> Self {
        let (store, initially_inconsistent) = model.build_store();
        let constraints = model.constraints().to_vec();
        let mut watchers = vec![Vec::new(); store.num_vars()];
        for (ci, c) in constraints.iter().enumerate() {
            for v in c.watched() {
                watchers[v].push(ci as u32);
            }
        }
        let n_constraints = constraints.len();
        RefSolver {
            store,
            constraints,
            watchers,
            weights: vec![1; n_constraints],
            queue: VecDeque::new(),
            in_queue: vec![false; n_constraints],
            decisions: Vec::new(),
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            stats: SearchStats::default(),
            initially_inconsistent,
            dirty_buf: Vec::new(),
        }
    }

    /// Statistics of the last solve call.
    #[must_use]
    pub fn stats(&self) -> SearchStats {
        self.stats.clone()
    }

    /// Run root propagation to fixpoint and return every variable's domain,
    /// or `None` when the model is inconsistent at the root. Counterpart of
    /// [`crate::Solver::root_fixpoint`].
    pub fn root_fixpoint(&mut self) -> Option<Vec<Vec<Val>>> {
        if self.initially_inconsistent {
            return None;
        }
        for ci in 0..self.constraints.len() {
            self.enqueue(ci as u32);
        }
        if !self.propagate(Instant::now()) {
            return None;
        }
        Some(
            (0..self.store.num_vars())
                .map(|v| self.store.iter(v).collect())
                .collect(),
        )
    }

    /// Run the search to a verdict or a budget limit.
    pub fn solve(&mut self) -> Outcome {
        let start = Instant::now();
        self.stats = SearchStats {
            solves: 1,
            ..SearchStats::default()
        };
        if self.initially_inconsistent {
            return Outcome::Unsat;
        }
        for ci in 0..self.constraints.len() {
            self.enqueue(ci as u32);
        }
        if !self.propagate(start) {
            return Outcome::Unsat;
        }
        if let Some(r) = self.check_budget(start) {
            return Outcome::Unknown(r);
        }

        let mut restart_quota = self.config.restarts.quota(0, 0);
        let mut failures_since_restart = 0u64;

        loop {
            if let Some(r) = self.check_budget(start) {
                return Outcome::Unknown(r);
            }
            if failures_since_restart >= restart_quota && !self.decisions.is_empty() {
                self.store.backtrack_to_root();
                self.decisions.clear();
                self.stats.restarts += 1;
                failures_since_restart = 0;
                restart_quota = self
                    .config
                    .restarts
                    .quota(self.stats.restarts, restart_quota);
                for ci in 0..self.constraints.len() {
                    self.enqueue(ci as u32);
                }
                if !self.propagate(start) {
                    return Outcome::Unsat;
                }
                continue;
            }

            let Some(var) = self.select_var() else {
                return Outcome::Sat(self.extract());
            };
            let val = self.select_val(var);
            self.store.push_level();
            self.decisions.push((var, val));
            self.stats.decisions += 1;
            self.stats.peak_depth = self.stats.peak_depth.max(self.decisions.len() as u64);
            if self
                .config
                .budget
                .max_decisions
                .is_some_and(|mx| self.stats.decisions > mx)
            {
                return Outcome::Unknown(LimitReason::Decisions);
            }

            let mut ok = self.enact(var, val, start);
            while !ok {
                self.stats.backtracks += 1;
                failures_since_restart += 1;
                if let Some(r) = self.check_budget(start) {
                    return Outcome::Unknown(r);
                }
                let Some((v, val)) = self.decisions.pop() else {
                    return Outcome::Unsat;
                };
                self.store.backtrack();
                ok = match self.store.remove(v, val) {
                    Err(_) => false,
                    Ok(_) => {
                        self.drain_and_wake();
                        self.propagate(start)
                    }
                };
            }
        }
    }

    /// Enumerate solutions by exhaustive DFS; see
    /// [`crate::Solver::enumerate`] for the semantics mirrored here.
    pub fn enumerate<F: FnMut(&[Val])>(&mut self, limit: u64, mut on_solution: F) -> (u64, bool) {
        let start = Instant::now();
        self.stats = SearchStats {
            solves: 1,
            ..SearchStats::default()
        };
        if self.initially_inconsistent {
            return (0, true);
        }
        for ci in 0..self.constraints.len() {
            self.enqueue(ci as u32);
        }
        if !self.propagate(start) {
            return (0, true);
        }
        let mut count = 0u64;
        loop {
            if self.check_budget(start).is_some() {
                return (count, false);
            }
            let next_var = self.select_var();
            if let Some(var) = next_var {
                let val = self.select_val(var);
                self.store.push_level();
                self.decisions.push((var, val));
                self.stats.decisions += 1;
                if self
                    .config
                    .budget
                    .max_decisions
                    .is_some_and(|mx| self.stats.decisions > mx)
                {
                    return (count, false);
                }
                if self.enact(var, val, start) {
                    continue;
                }
            } else {
                let sol = self.extract();
                on_solution(&sol);
                count += 1;
                if count >= limit {
                    return (count, false);
                }
            }
            loop {
                self.stats.backtracks += 1;
                let Some((v, val)) = self.decisions.pop() else {
                    return (count, true);
                };
                self.store.backtrack();
                let ok = match self.store.remove(v, val) {
                    Err(_) => false,
                    Ok(_) => {
                        self.drain_and_wake();
                        self.propagate(start)
                    }
                };
                if ok {
                    break;
                }
            }
        }
    }

    /// Count solutions up to `limit`.
    pub fn count_solutions(&mut self, limit: u64) -> (u64, bool) {
        self.enumerate(limit, |_| {})
    }

    /// Unamortized budget check — the reference reads the clock every time.
    fn check_budget(&self, start: Instant) -> Option<LimitReason> {
        if let Some(t) = self.config.budget.time {
            if start.elapsed() >= t {
                return Some(LimitReason::Time);
            }
        }
        None
    }

    fn enqueue(&mut self, ci: u32) {
        if !self.in_queue[ci as usize] {
            self.in_queue[ci as usize] = true;
            self.queue.push_back(ci);
        }
    }

    /// Wake all watchers of every dirty variable, ignoring event kinds —
    /// the pre-incremental wake-up rule.
    fn drain_and_wake(&mut self) {
        let mut buf = std::mem::take(&mut self.dirty_buf);
        buf.clear();
        self.store.drain_dirty(&mut buf);
        for &(v, _mask) in &buf {
            for i in 0..self.watchers[v].len() {
                let ci = self.watchers[v][i];
                if !self.in_queue[ci as usize] {
                    self.in_queue[ci as usize] = true;
                    self.queue.push_back(ci);
                }
            }
        }
        self.dirty_buf = buf;
    }

    fn drain_queue(&mut self) {
        while let Some(ci) = self.queue.pop_front() {
            self.in_queue[ci as usize] = false;
        }
    }

    fn propagate(&mut self, start: Instant) -> bool {
        while let Some(ci) = self.queue.pop_front() {
            self.in_queue[ci as usize] = false;
            self.stats.propagations += 1;
            if self.stats.propagations.is_multiple_of(4096) && self.check_budget(start).is_some() {
                self.drain_queue();
                self.store.clear_dirty();
                return true;
            }
            match self.constraints[ci as usize].propagate(&mut self.store) {
                Err(_) => {
                    self.weights[ci as usize] += 1;
                    self.drain_queue();
                    self.store.clear_dirty();
                    return false;
                }
                Ok(()) => self.drain_and_wake(),
            }
        }
        true
    }

    fn enact(&mut self, var: VarId, val: Val, start: Instant) -> bool {
        match self.store.assign(var, val) {
            Err(_) => false,
            Ok(_) => {
                self.drain_and_wake();
                self.propagate(start)
            }
        }
    }

    /// Stateless variable selection: a full scan over all variables, as the
    /// engine did before the unfixed sparse set existed.
    fn select_var(&mut self) -> Option<VarId> {
        let n = self.store.num_vars();
        match self.config.var_order {
            VarOrder::Input => (0..n).find(|&v| !self.store.is_fixed(v)),
            VarOrder::MinDomain => {
                let mut best: Option<(u32, VarId)> = None;
                for v in 0..n {
                    if !self.store.is_fixed(v) {
                        let s = self.store.size(v);
                        if best.is_none_or(|(bs, _)| s < bs) {
                            best = Some((s, v));
                        }
                    }
                }
                best.map(|(_, v)| v)
            }
            VarOrder::DomOverWDeg => {
                let mut best: Option<(u64, u64, VarId)> = None;
                for v in 0..n {
                    if self.store.is_fixed(v) {
                        continue;
                    }
                    let size = u64::from(self.store.size(v));
                    let weight: u64 = self.watchers[v]
                        .iter()
                        .map(|&ci| self.weights[ci as usize])
                        .sum::<u64>()
                        .max(1);
                    let better = match best {
                        None => true,
                        Some((bs, bw, _)) => {
                            (u128::from(size) * u128::from(bw))
                                < (u128::from(bs) * u128::from(weight))
                        }
                    };
                    if better {
                        best = Some((size, weight, v));
                    }
                }
                best.map(|(_, _, v)| v)
            }
            VarOrder::Random => {
                let mut chosen = None;
                let mut seen = 0u64;
                for v in 0..n {
                    if !self.store.is_fixed(v) {
                        seen += 1;
                        if self.rng.gen_range(0..seen) == 0 {
                            chosen = Some(v);
                        }
                    }
                }
                chosen
            }
        }
    }

    fn select_val(&mut self, var: VarId) -> Val {
        match self.config.val_order {
            ValOrder::Min => self.store.min(var),
            ValOrder::Max => self.store.max(var),
            ValOrder::Random => {
                let n = self.store.size(var);
                self.store.nth_value(var, self.rng.gen_range(0..n))
            }
        }
    }

    fn extract(&self) -> Vec<Val> {
        (0..self.store.num_vars())
            .map(|v| self.store.value(v))
            .collect()
    }
}
