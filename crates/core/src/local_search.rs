//! Local search over the CSP2 state space (Section VIII, first future-work
//! bullet: "using the same CSP formalizations with local search
//! algorithms, although they won't be able to prove that a given instance
//! is infeasible").
//!
//! The state is a *complete* assignment: every job owns exactly `Ci` slots
//! (instant, processor) inside its availability window — so constraints
//! (C1) and (C4) hold by construction and the search minimizes violations of
//! (C2) slot collisions and (C3) intra-task parallelism. Zero total
//! conflict is a feasible schedule.
//!
//! Three neighbourhood strategies share that state ([`LsStrategy`]):
//!
//! * **min-conflicts** — move a random conflicted unit to the in-window
//!   slot with the fewest conflicts (ties uniform), with stagnation
//!   restarts;
//! * **tabu** — the same greedy move, but slots recently vacated are tabu
//!   for a fixed tenure unless the move reaches a new global best
//!   (aspiration);
//! * **simulated annealing** — a random in-window move accepted when it
//!   does not increase conflicts, or with probability `exp(−Δ/T)` under a
//!   geometric cooling schedule, re-heated on restart.
//!
//! As the paper warns, all three are incomplete: they return
//! [`Verdict::Unknown`] when the iteration budget runs out, never
//! `Infeasible`.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mgrts_obs::SearchStats;
use rt_task::{JobId, JobInstants, TaskError, TaskSet, Time};

use crate::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec};
use crate::schedule::Schedule;
use crate::solve::{SolveResult, StopReason, Verdict};

/// Neighbourhood strategy for the local search.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LsStrategy {
    /// Greedy min-conflicts with stagnation restarts.
    #[default]
    MinConflicts,
    /// Min-conflicts with a tabu memory on vacated slots.
    Tabu {
        /// Iterations a vacated `(job, instant, processor)` slot stays
        /// forbidden.
        tenure: u64,
    },
    /// Simulated annealing with geometric cooling.
    Annealing {
        /// Initial temperature (conflict units).
        t0: f64,
        /// Multiplicative cooling per iteration, in `(0, 1)`.
        cooling: f64,
    },
}

/// Moves without improvement after which the state is re-randomized.
const RESTART_AFTER: u64 = 5_000;

/// The move budget when [`Budget::max_decisions`] sets none.
const DEFAULT_MAX_MOVES: u64 = 200_000;

/// Min-conflicts / tabu / annealing local search (Section VIII), identical
/// processors only: a heterogeneous platform gets
/// [`StopReason::Unsupported`]. Incomplete: it never proves
/// infeasibility.
///
/// [`Budget::max_decisions`] caps the moves (200 000 when unset) and
/// [`Budget::time`] the wall clock, checked every 512 moves; `cancel` is
/// polled on every move.
#[derive(Debug, Clone, Copy)]
pub struct LocalSearchEngine {
    /// Neighbourhood strategy.
    pub strategy: LsStrategy,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LocalSearchEngine {
    fn default() -> Self {
        LocalSearchEngine {
            strategy: LsStrategy::MinConflicts,
            seed: 1,
        }
    }
}

impl FeasibilitySolver for LocalSearchEngine {
    fn name(&self) -> String {
        match self.strategy {
            LsStrategy::MinConflicts => "local".to_string(),
            LsStrategy::Tabu { .. } => "local-tabu".to_string(),
            LsStrategy::Annealing { .. } => "local-sa".to_string(),
        }
    }

    fn solve_on(
        &self,
        ts: &TaskSet,
        spec: &PlatformSpec,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<SolveResult, TaskError> {
        let PlatformSpec::Identical { m } = *spec else {
            return Ok(SolveResult::stopped(
                StopReason::Unsupported,
                Duration::ZERO,
            ));
        };
        let start = Instant::now();
        let ji = JobInstants::new(ts)?;
        if m == 0 {
            // No processor slot to place a unit in.
            return Ok(SolveResult::stopped(
                StopReason::Unsupported,
                start.elapsed(),
            ));
        }
        Ok(search(self, ts, m, &ji, budget, cancel, start))
    }

    fn is_exact(&self) -> bool {
        false
    }
}

/// One execution unit of one job, placed at `(instant, processor)`.
#[derive(Debug, Clone, Copy)]
struct Unit {
    job: usize,
    t: Time,
    proc: usize,
}

struct State {
    m: usize,
    /// All placed units; `unit_of_job[j]` indexes into `units`.
    units: Vec<Unit>,
    /// Per-job instants cache.
    job_instants: Vec<Vec<Time>>,
    /// Job table: (task, k).
    jobs: Vec<JobId>,
    /// Slot occupancy count: `occ[t*m + proc]`.
    occ: Vec<u32>,
    /// Task-instant occupancy: `par[task*h + t]`.
    par: Vec<u32>,
    h: Time,
}

impl State {
    fn random(ji: &JobInstants, ts: &TaskSet, m: usize, rng: &mut SmallRng) -> Self {
        let h = ji.hyperperiod();
        let n = ts.len();
        let mut jobs = Vec::new();
        let mut job_instants = Vec::new();
        for i in 0..n {
            for k in 0..ji.jobs_of(i) {
                let id = JobId { task: i, k };
                jobs.push(id);
                job_instants.push(ji.instants_mod(id));
            }
        }
        let mut st = State {
            m,
            units: Vec::new(),
            job_instants,
            jobs,
            occ: vec![0; m * h as usize],
            par: vec![0; n * h as usize],
            h,
        };
        for j in 0..st.jobs.len() {
            let c = ji.wcet(st.jobs[j].task);
            // Place Ci units on distinct in-window instants (random
            // processors): distinct instants keep (C3) violations from
            // being structural.
            let mut instants = st.job_instants[j].clone();
            debug_assert!(instants.len() >= c as usize, "Ci ≤ Di validated upstream");
            for _ in 0..c {
                let idx = rng.gen_range(0..instants.len());
                let t = instants.swap_remove(idx);
                let proc = rng.gen_range(0..m);
                st.place(Unit { job: j, t, proc });
            }
        }
        st
    }

    fn place(&mut self, u: Unit) {
        self.occ[u.t as usize * self.m + u.proc] += 1;
        self.par[self.jobs[u.job].task * self.h as usize + u.t as usize] += 1;
        self.units.push(u);
    }

    fn conflicts_of(&self, u: Unit) -> u32 {
        // Collisions on the slot (other units) + other units of the same
        // task at the same instant.
        let slot = self.occ[u.t as usize * self.m + u.proc] - 1;
        let par = self.par[self.jobs[u.job].task * self.h as usize + u.t as usize] - 1;
        slot + par
    }

    fn total_conflicts(&self) -> u64 {
        let mut total: u64 = 0;
        for &c in &self.occ {
            total += u64::from(c.saturating_sub(1));
        }
        for &c in &self.par {
            total += u64::from(c.saturating_sub(1));
        }
        total
    }

    /// Cost of hypothetically placing unit `u`'s job at `(t, proc)`.
    fn cost_at(&self, job: usize, t: Time, proc: usize) -> u32 {
        self.occ[t as usize * self.m + proc]
            + self.par[self.jobs[job].task * self.h as usize + t as usize]
    }

    fn move_unit(&mut self, idx: usize, t: Time, proc: usize) {
        let u = self.units[idx];
        self.occ[u.t as usize * self.m + u.proc] -= 1;
        self.par[self.jobs[u.job].task * self.h as usize + u.t as usize] -= 1;
        let nu = Unit {
            job: u.job,
            t,
            proc,
        };
        self.occ[t as usize * self.m + proc] += 1;
        self.par[self.jobs[u.job].task * self.h as usize + t as usize] += 1;
        self.units[idx] = nu;
    }

    fn to_schedule(&self) -> Schedule {
        let mut s = Schedule::idle(self.m, self.h);
        for u in &self.units {
            s.set(u.proc, u.t, Some(self.jobs[u.job].task));
        }
        s
    }
}

/// Valid move targets for `u`: in-window instants not used by a sibling
/// unit of the same job, all processors, excluding the no-op.
fn candidate_targets(state: &State, u: Unit) -> Vec<(Time, usize)> {
    let used: Vec<Time> = state
        .units
        .iter()
        .filter(|v| v.job == u.job)
        .map(|v| v.t)
        .collect();
    let mut out = Vec::new();
    for &t in &state.job_instants[u.job] {
        if t != u.t && used.contains(&t) {
            continue;
        }
        for proc in 0..state.m {
            if t == u.t && proc == u.proc {
                continue;
            }
            out.push((t, proc));
        }
    }
    out
}

/// Cost of moving `u` to `(t, proc)`, comparable with
/// [`State::conflicts_of`] for the current position.
fn target_cost(state: &State, u: Unit, t: Time, proc: usize) -> u32 {
    let mut cost = state.cost_at(u.job, t, proc);
    if t == u.t {
        // Same instant: our own unit is counted in `par`; subtract it.
        cost -= 1;
    }
    cost
}

/// Run `engine`'s search from a random state. Returns `Feasible` (with a
/// schedule satisfying C1–C4) or `Unknown` on budget exhaustion.
fn search(
    engine: &LocalSearchEngine,
    ts: &TaskSet,
    m: usize,
    ji: &JobInstants,
    budget: &Budget,
    cancel: &CancelToken,
    start: Instant,
) -> SolveResult {
    let max_moves = budget.max_decisions.unwrap_or(DEFAULT_MAX_MOVES);
    let mut rng = SmallRng::seed_from_u64(engine.seed);
    let mut search = SearchStats {
        solves: 1,
        ..SearchStats::default()
    };
    let mut state = State::random(ji, ts, m, &mut rng);
    let mut best = state.total_conflicts();
    let mut since_improvement: u64 = 0;
    // Tabu memory: slot → iteration when it stops being tabu.
    let mut tabu: std::collections::HashMap<(usize, Time, usize), u64> =
        std::collections::HashMap::new();
    let mut temperature = match engine.strategy {
        LsStrategy::Annealing { t0, .. } => t0,
        _ => 0.0,
    };

    let (verdict, iters) = 'search: {
        for it in 0..max_moves {
            // The token is one relaxed load, so it is polled on every move;
            // the clock read is amortized over 512 moves.
            if cancel.is_cancelled() {
                break 'search (Verdict::Unknown(StopReason::Cancelled), it);
            }
            if it % 512 == 0 && budget.time.is_some_and(|limit| start.elapsed() >= limit) {
                break 'search (Verdict::Unknown(StopReason::TimeLimit), it);
            }
            let total = state.total_conflicts();
            if total == 0 {
                break 'search (Verdict::Feasible(state.to_schedule()), it);
            }
            if total < best {
                best = total;
                since_improvement = 0;
            } else {
                since_improvement += 1;
                if since_improvement >= RESTART_AFTER {
                    state = State::random(ji, ts, m, &mut rng);
                    best = state.total_conflicts();
                    since_improvement = 0;
                    search.backtracks += 1; // count restarts as failures
                    tabu.clear();
                    if let LsStrategy::Annealing { t0, .. } = engine.strategy {
                        temperature = t0; // re-heat
                    }
                    continue;
                }
            }
            // Pick a random conflicted unit.
            let conflicted: Vec<usize> = (0..state.units.len())
                .filter(|&i| state.conflicts_of(state.units[i]) > 0)
                .collect();
            let idx = conflicted[rng.gen_range(0..conflicted.len())];
            let u = state.units[idx];

            match engine.strategy {
                LsStrategy::MinConflicts | LsStrategy::Tabu { .. } => {
                    let tenure = match engine.strategy {
                        LsStrategy::Tabu { tenure } => tenure,
                        _ => 0,
                    };
                    let mut best_cost = u32::MAX;
                    let mut choices: Vec<(Time, usize)> = Vec::new();
                    for (t, proc) in candidate_targets(&state, u) {
                        let cost = target_cost(&state, u, t, proc);
                        if tenure > 0 {
                            let is_tabu =
                                tabu.get(&(u.job, t, proc)).is_some_and(|&until| it < until);
                            // Aspiration: a move that reaches a new global
                            // best overrides its tabu status.
                            let aspires = u64::from(cost) < best;
                            if is_tabu && !aspires {
                                continue;
                            }
                        }
                        match cost.cmp(&best_cost) {
                            std::cmp::Ordering::Less => {
                                best_cost = cost;
                                choices.clear();
                                choices.push((t, proc));
                            }
                            std::cmp::Ordering::Equal => choices.push((t, proc)),
                            std::cmp::Ordering::Greater => {}
                        }
                    }
                    if !choices.is_empty() {
                        let (t, proc) = choices[rng.gen_range(0..choices.len())];
                        if tenure > 0 {
                            tabu.insert((u.job, u.t, u.proc), it + tenure);
                            if tabu.len() > 4 * state.units.len() {
                                tabu.retain(|_, &mut until| until > it);
                            }
                        }
                        state.move_unit(idx, t, proc);
                    }
                }
                LsStrategy::Annealing { cooling, .. } => {
                    let targets = candidate_targets(&state, u);
                    if !targets.is_empty() {
                        let (t, proc) = targets[rng.gen_range(0..targets.len())];
                        let old = state.conflicts_of(u);
                        let new = target_cost(&state, u, t, proc);
                        let delta = f64::from(new) - f64::from(old);
                        let accept = delta <= 0.0
                            || (temperature > 0.0
                                && rng.gen::<f64>() < (-delta / temperature).exp());
                        if accept {
                            state.move_unit(idx, t, proc);
                        }
                    }
                    temperature *= cooling;
                }
            }
        }
        (Verdict::Unknown(StopReason::DecisionLimit), max_moves)
    };
    search.decisions = iters;
    SolveResult::searched(verdict, search, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_identical;

    fn solve(ts: &TaskSet, m: usize, engine: LocalSearchEngine, moves: u64) -> SolveResult {
        let budget = Budget {
            max_decisions: Some(moves),
            ..Budget::unlimited()
        };
        engine.solve(ts, m, &budget, &CancelToken::new()).unwrap()
    }

    fn with(strategy: LsStrategy) -> LocalSearchEngine {
        LocalSearchEngine {
            strategy,
            ..LocalSearchEngine::default()
        }
    }

    #[test]
    fn solves_the_running_example() {
        let ts = TaskSet::running_example();
        let res = solve(&ts, 2, LocalSearchEngine::default(), DEFAULT_MAX_MOVES);
        let s = res.verdict.schedule().expect("min-conflicts finds it");
        check_identical(&ts, 2, s).unwrap();
    }

    #[test]
    fn trivial_instance_is_immediate() {
        let ts = TaskSet::from_ocdt(&[(0, 1, 2, 2)]);
        let res = solve(&ts, 1, LocalSearchEngine::default(), DEFAULT_MAX_MOVES);
        let s = res.verdict.schedule().unwrap();
        check_identical(&ts, 1, s).unwrap();
    }

    #[test]
    fn infeasible_instance_reports_unknown_not_infeasible() {
        // Incomplete search must never claim infeasibility.
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let res = solve(&ts, 2, LocalSearchEngine::default(), 3_000);
        assert_eq!(res.verdict, Verdict::Unknown(StopReason::DecisionLimit));
    }

    #[test]
    fn deterministic_per_seed() {
        let ts = TaskSet::running_example();
        let a = solve(&ts, 2, LocalSearchEngine::default(), DEFAULT_MAX_MOVES);
        let b = solve(&ts, 2, LocalSearchEngine::default(), DEFAULT_MAX_MOVES);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.search, b.search);
    }

    #[test]
    fn different_seeds_may_take_different_paths() {
        let ts = TaskSet::running_example();
        let mut iters = Vec::new();
        for seed in 0..4 {
            let engine = LocalSearchEngine {
                seed,
                ..LocalSearchEngine::default()
            };
            let res = solve(&ts, 2, engine, DEFAULT_MAX_MOVES);
            assert!(res.verdict.is_feasible());
            iters.push(res.search.unwrap().decisions);
        }
        iters.dedup();
        assert!(iters.len() > 1, "expected some variation across seeds");
    }

    #[test]
    fn tabu_solves_the_running_example() {
        let ts = TaskSet::running_example();
        let res = solve(
            &ts,
            2,
            with(LsStrategy::Tabu { tenure: 8 }),
            DEFAULT_MAX_MOVES,
        );
        let s = res.verdict.schedule().expect("tabu finds it");
        check_identical(&ts, 2, s).unwrap();
    }

    #[test]
    fn annealing_solves_the_running_example() {
        let ts = TaskSet::running_example();
        let annealing = with(LsStrategy::Annealing {
            t0: 2.0,
            cooling: 0.999,
        });
        let res = solve(&ts, 2, annealing, 500_000);
        let s = res.verdict.schedule().expect("annealing finds it");
        check_identical(&ts, 2, s).unwrap();
    }

    #[test]
    fn all_strategies_sound_on_random_instances() {
        use rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator};
        let gen = ProblemGenerator::new(
            GeneratorConfig {
                n: 3,
                m: MSpec::Fixed(2),
                t_max: 3,
                order: ParamOrder::DeadlineFirst,
                synchronous: false,
            },
            0x7AB0,
        );
        let strategies = [
            LsStrategy::MinConflicts,
            LsStrategy::Tabu { tenure: 10 },
            LsStrategy::Annealing {
                t0: 2.0,
                cooling: 0.999,
            },
        ];
        for p in gen.batch(25) {
            let exact = crate::csp2::Csp2Solver::new(&p.taskset, p.m)
                .unwrap()
                .solve();
            for strategy in strategies {
                let res = solve(&p.taskset, p.m, with(strategy), 30_000);
                if let Some(s) = res.verdict.schedule() {
                    check_identical(&p.taskset, p.m, s).unwrap();
                    assert!(
                        exact.verdict.is_feasible(),
                        "{strategy:?} found a schedule CSP2 disproves (seed {})",
                        p.seed
                    );
                }
            }
        }
    }

    #[test]
    fn tabu_and_annealing_reproducible_per_seed() {
        let ts = TaskSet::running_example();
        for strategy in [
            LsStrategy::Tabu { tenure: 5 },
            LsStrategy::Annealing {
                t0: 1.0,
                cooling: 0.995,
            },
        ] {
            let a = solve(&ts, 2, with(strategy), DEFAULT_MAX_MOVES);
            let b = solve(&ts, 2, with(strategy), DEFAULT_MAX_MOVES);
            assert_eq!(a.verdict, b.verdict, "{strategy:?}");
            assert_eq!(a.search, b.search, "{strategy:?}");
        }
    }

    #[test]
    fn dense_full_utilization_instance() {
        // Every slot of both processors must be busy: a stress test for the
        // move operator.
        let ts = TaskSet::from_ocdt(&[(0, 2, 2, 2), (0, 3, 3, 3)]);
        let res = solve(&ts, 2, LocalSearchEngine::default(), 500_000);
        let s = res.verdict.schedule().expect("feasible dense instance");
        check_identical(&ts, 2, s).unwrap();
    }
}
