//! CSP encoding #2 and its specialized chronological search (Section V).
//!
//! Variables are `x_j(t) ∈ {-1, 0..n-1}` — which task (or none) runs on
//! processor `j` at instant `t` — explored **chronologically** (time-major,
//! processor-minor), so "new decisions are taken given the knowledge of most
//! past events". The searcher implements, exactly as the paper prescribes:
//!
//! * **value ordering** by a task-priority heuristic
//!   ([`TaskOrder`]: lexicographic, RM, DM, T-C, D-C);
//! * **rule 1** — the idle value is allowed only when no task is available
//!   for running (work conservation, sound on identical processors);
//! * **rule 2 / eq. (10)** — within a time instant, tasks are assigned to
//!   processors in ascending priority order only, collapsing the up-to-`m!`
//!   permutations of each instant to one canonical representative;
//! * **constraint (9) propagation** — per active job, `remaining` execution
//!   is compared against the job's remaining schedulable instants
//!   (`slots_left`): `remaining > slots_left` fails immediately and
//!   `remaining == slots_left` makes the task *mandatory* at the current
//!   instant, pruning every branch that skips it.
//!
//! The search is exact and fully deterministic (Section VII-B), and returns
//! [`Verdict::Infeasible`] only after exhausting the (symmetry-reduced)
//! space.

use std::time::{Duration, Instant};

use mgrts_obs::SearchStats;
use rt_task::{JobId, JobInstants, TaskError, TaskId, TaskSet, Time};

use crate::engine::CancelToken;
use crate::heuristics::TaskOrder;
use crate::schedule::Schedule;
use crate::solve::{SolveResult, StopReason, Verdict};

/// Resource limits for the CSP2 search.
#[derive(Debug, Clone, Copy, Default)]
pub struct Csp2Budget {
    /// Wall-clock limit (the paper's 30 s cap).
    pub time: Option<Duration>,
    /// Decision limit.
    pub max_decisions: Option<u64>,
}

/// The specialized CSP2 solver for identical processors.
#[derive(Debug)]
pub struct Csp2Solver<'a> {
    ts: &'a TaskSet,
    m: usize,
    ji: JobInstants,
    order: TaskOrder,
    budget: Csp2Budget,
    cancel: CancelToken,
}

impl<'a> Csp2Solver<'a> {
    /// Prepare a solver. Fails when the task set is not constrained-deadline
    /// or its hyperperiod overflows (arbitrary deadlines go through the
    /// clone transform first, see [`crate::solve::solve_arbitrary_deadline`]).
    pub fn new(ts: &'a TaskSet, m: usize) -> Result<Self, TaskError> {
        assert!(m >= 1, "at least one processor");
        let ji = JobInstants::new(ts)?;
        Ok(Csp2Solver {
            ts,
            m,
            ji,
            order: TaskOrder::default(),
            budget: Csp2Budget::default(),
            cancel: CancelToken::new(),
        })
    }

    /// Select the value-ordering heuristic (builder style).
    #[must_use]
    pub fn with_order(mut self, order: TaskOrder) -> Self {
        self.order = order;
        self
    }

    /// Set resource limits (builder style).
    #[must_use]
    pub fn with_budget(mut self, budget: Csp2Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Install a cooperative cancellation token (builder style), polled at
    /// the same amortized cadence as the wall-clock budget.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Run the search to a verdict.
    #[must_use]
    pub fn solve(&self) -> SolveResult {
        self.solve_since(Instant::now())
    }

    /// [`Csp2Solver::solve`] with the time budget and the reported wall
    /// clock counted from `start`, the caller's solve entry.
    pub(crate) fn solve_since(&self, start: Instant) -> SolveResult {
        Search::new(self).run(start)
    }
}

/// One choice point: the candidate tasks (by rank) for a slot, and which
/// candidate is currently enacted (`next - 1`).
struct ChoicePoint {
    slot: usize,
    cands: Vec<TaskId>,
    next: usize,
}

struct Search<'s, 'a> {
    solver: &'s Csp2Solver<'a>,
    h: Time,
    n: usize,
    m: usize,
    /// `priority[rank] = task` under the configured heuristic.
    priority: Vec<TaskId>,
    /// `rank[task]`.
    rank: Vec<usize>,
    /// Executed units of each job: `done[task][k]`.
    done: Vec<Vec<u32>>,
    /// Flat assignment grid, `grid[t*m + j]`, `-1` = idle/unassigned.
    grid: Vec<i32>,
    stack: Vec<ChoicePoint>,
    cur_slot: usize,
    stats: SearchStats,
}

impl<'s, 'a> Search<'s, 'a> {
    fn new(solver: &'s Csp2Solver<'a>) -> Self {
        let h = solver.ji.hyperperiod();
        let n = solver.ts.len();
        let m = solver.m;
        let priority = solver.order.priorities(solver.ts);
        let rank = solver.order.ranks(solver.ts);
        let done = (0..n)
            .map(|i| vec![0u32; solver.ji.jobs_of(i) as usize])
            .collect();
        Search {
            solver,
            h,
            n,
            m,
            priority,
            rank,
            done,
            grid: vec![-1; m * h as usize],
            stack: Vec::new(),
            cur_slot: 0,
            stats: SearchStats {
                solves: 1,
                ..SearchStats::default()
            },
        }
    }

    /// Task `i`'s active job at `t` with remaining work, if any.
    fn active_job(&self, i: TaskId, t: Time) -> Option<(JobId, Time)> {
        let job = self.solver.ji.job_at(i, t)?;
        let rem = self.solver.ji.wcet(i) - Time::from(self.done[i][job.k as usize]);
        (rem > 0).then_some((job, rem))
    }

    fn assign(&mut self, slot: usize, task: TaskId) {
        let t = (slot / self.m) as Time;
        let job = self.solver.ji.job_at(task, t).expect("candidate is active");
        self.grid[slot] = task as i32;
        self.done[task][job.k as usize] += 1;
    }

    fn unassign(&mut self, slot: usize, task: TaskId) {
        let t = (slot / self.m) as Time;
        let job = self.solver.ji.job_at(task, t).expect("was active");
        self.grid[slot] = -1;
        self.done[task][job.k as usize] -= 1;
    }

    /// Constraint (9) propagation at the start of instant `t`: every active
    /// job must satisfy `remaining ≤ slots_left`.
    fn laxity_ok(&self, t: Time) -> bool {
        let mut mandatory = 0usize;
        for i in 0..self.n {
            if let Some((job, rem)) = self.active_job(i, t) {
                let left = self.solver.ji.slots_at_or_after(job, t);
                if rem > left {
                    return false;
                }
                if rem == left {
                    mandatory += 1;
                }
            }
        }
        mandatory <= self.m
    }

    /// Candidates for slot `(t, j)` under rules 1–2 and mandatory pruning.
    /// `None` means "fail this branch"; `Some(vec![])` means "auto-idle the
    /// rest of the instant" (no available unscheduled work).
    fn candidates(&self, slot: usize) -> Option<Vec<TaskId>> {
        let t = (slot / self.m) as Time;
        let j = slot % self.m;
        let step_base = (slot / self.m) * self.m;
        let prev_rank: Option<usize> = if j == 0 {
            None
        } else {
            let prev = self.grid[slot - 1];
            debug_assert!(prev >= 0, "idle slots auto-fill to the step end");
            Some(self.rank[prev as usize])
        };

        // Unscheduled available tasks, and the mandatory subset.
        let mut unscheduled: Vec<TaskId> = Vec::new();
        let mut min_mand_rank: Option<usize> = None;
        let mut mand_count = 0usize;
        for i in 0..self.n {
            let Some((job, rem)) = self.active_job(i, t) else {
                continue;
            };
            if self.grid[step_base..slot].contains(&(i as i32)) {
                continue; // already running at t (C3)
            }
            unscheduled.push(i);
            if rem == self.solver.ji.slots_at_or_after(job, t) {
                mand_count += 1;
                let r = self.rank[i];
                if min_mand_rank.is_none_or(|mr| r < mr) {
                    min_mand_rank = Some(r);
                }
            }
        }

        let slots_left_in_step = self.m - j;
        if mand_count > slots_left_in_step {
            return None; // some mandatory job must miss its deadline
        }
        if let (Some(mr), Some(pr)) = (min_mand_rank, prev_rank) {
            if mr <= pr {
                return None; // ascending order already skipped a mandatory task
            }
        }

        if unscheduled.is_empty() {
            return Some(Vec::new()); // genuine idle: rule 1 satisfied
        }

        // Candidate ranks: above the previous processor's rank (rule 2),
        // at most the lowest mandatory rank (skipping mandatory work is a
        // guaranteed dead end), and non-mandatory choices only while slots
        // outnumber mandatory jobs.
        let only_mandatory = mand_count == slots_left_in_step;
        let mut cands: Vec<(usize, TaskId)> = Vec::new();
        for &i in &unscheduled {
            let r = self.rank[i];
            if prev_rank.is_some_and(|pr| r <= pr) {
                continue;
            }
            if let Some(mr) = min_mand_rank {
                if r > mr {
                    continue;
                }
                if only_mandatory && r < mr {
                    continue;
                }
            }
            cands.push((r, i));
        }
        if cands.is_empty() {
            // Available work exists but none is admissible here. If the
            // inadmissibility comes from rule 2 (all ranks ≤ prev), letting
            // the processor idle would violate rule 1 — but an equivalent
            // canonical branch (a different earlier choice) covers the
            // schedule, so failing is sound symmetry breaking.
            return None;
        }
        cands.sort_unstable();
        Some(cands.into_iter().map(|(_, i)| i).collect())
    }

    fn backtrack(&mut self) -> bool {
        loop {
            let Some(cp) = self.stack.last_mut() else {
                return false;
            };
            let slot = cp.slot;
            let prev_task = cp.cands[cp.next - 1];
            let next = cp.next;
            let has_more = next < cp.cands.len();
            let next_task = if has_more { Some(cp.cands[next]) } else { None };
            if has_more {
                cp.next += 1;
            } else {
                self.stack.pop();
            }
            self.unassign(slot, prev_task);
            self.stats.backtracks += 1;
            if let Some(task) = next_task {
                self.assign(slot, task);
                self.cur_slot = slot + 1;
                return true;
            }
        }
    }

    fn run(mut self, start: Instant) -> SolveResult {
        let total = self.m * self.h as usize;
        let mut iter: u64 = 0;
        let verdict = loop {
            // Budget checks: the time syscall is amortized over iterations.
            iter += 1;
            if iter % 1024 == 1 {
                if self.solver.cancel.is_cancelled() {
                    break Verdict::Unknown(StopReason::Cancelled);
                }
                if let Some(limit) = self.solver.budget.time {
                    if start.elapsed() >= limit {
                        break Verdict::Unknown(StopReason::TimeLimit);
                    }
                }
            }
            if self
                .solver
                .budget
                .max_decisions
                .is_some_and(|mx| self.stats.decisions > mx)
            {
                break Verdict::Unknown(StopReason::DecisionLimit);
            }

            if self.cur_slot == total {
                break Verdict::Feasible(self.extract());
            }
            let t = (self.cur_slot / self.m) as Time;
            let j = self.cur_slot % self.m;
            if j == 0 && !self.laxity_ok(t) {
                if self.backtrack() {
                    continue;
                }
                break Verdict::Infeasible;
            }
            match self.candidates(self.cur_slot) {
                None => {
                    if self.backtrack() {
                        continue;
                    }
                    break Verdict::Infeasible;
                }
                Some(cands) if cands.is_empty() => {
                    // Auto-idle to the end of the instant (rule 1 honoured:
                    // nothing is available).
                    self.cur_slot = (self.cur_slot / self.m + 1) * self.m;
                }
                Some(cands) => {
                    let slot = self.cur_slot;
                    let first = cands[0];
                    self.stack.push(ChoicePoint {
                        slot,
                        cands,
                        next: 1,
                    });
                    self.assign(slot, first);
                    self.cur_slot = slot + 1;
                    self.stats.decisions += 1;
                }
            }
        };
        SolveResult::searched(verdict, self.stats, start)
    }

    fn extract(&self) -> Schedule {
        // Every job must have received exactly its WCET — guaranteed by the
        // laxity propagation; the debug assertion documents the invariant.
        debug_assert!((0..self.n).all(|i| {
            self.done[i]
                .iter()
                .all(|&d| Time::from(d) == self.solver.ji.wcet(i))
        }));
        let grid = self
            .grid
            .iter()
            .map(|&e| (e >= 0).then_some(e as TaskId))
            .collect();
        Schedule::from_grid(self.m, self.h, grid)
    }
}

// `priority` is consumed only through `rank`, but keeping it simplifies
// debugging sessions; silence the field-never-read lint in release checks.
impl<'s, 'a> Search<'s, 'a> {
    #[allow(dead_code)]
    fn priority_order(&self) -> &[TaskId] {
        &self.priority
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_identical;
    use rt_task::TaskSet;

    fn solve_with(ts: &TaskSet, m: usize, order: TaskOrder) -> SolveResult {
        Csp2Solver::new(ts, m).unwrap().with_order(order).solve()
    }

    #[test]
    fn running_example_is_feasible_under_every_heuristic() {
        let ts = TaskSet::running_example();
        for order in TaskOrder::ALL {
            let res = solve_with(&ts, 2, order);
            let s = res
                .verdict
                .schedule()
                .unwrap_or_else(|| panic!("{order:?} failed"));
            check_identical(&ts, 2, s).unwrap();
        }
    }

    #[test]
    fn single_task_single_processor() {
        let ts = TaskSet::from_ocdt(&[(0, 1, 2, 3)]);
        let res = solve_with(&ts, 1, TaskOrder::DeadlineMinusWcet);
        let s = res.verdict.schedule().unwrap();
        check_identical(&ts, 1, s).unwrap();
        assert_eq!(s.busy_slots(), 1);
    }

    #[test]
    fn overloaded_instant_is_infeasible() {
        // Three simultaneous (C=1, D=1) jobs on two processors.
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        let res = solve_with(&ts, 2, TaskOrder::DeadlineMinusWcet);
        assert!(res.verdict.is_infeasible());
        // …but three processors suffice.
        let res = solve_with(&ts, 3, TaskOrder::DeadlineMinusWcet);
        assert!(res.verdict.is_feasible());
    }

    #[test]
    fn utilization_bound_infeasible() {
        // U = 3/2 on one processor.
        let ts = TaskSet::from_ocdt(&[(0, 3, 4, 4), (0, 3, 4, 4)]);
        let res = solve_with(&ts, 1, TaskOrder::RateMonotonic);
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn full_utilization_exactly_fits() {
        // Two tasks with C = T = D on one processor each… globally m = 2,
        // U = 2 exactly: feasible.
        let ts = TaskSet::from_ocdt(&[(0, 2, 2, 2), (0, 3, 3, 3)]);
        let res = solve_with(&ts, 2, TaskOrder::Lexicographic);
        let s = res.verdict.schedule().unwrap();
        check_identical(&ts, 2, s).unwrap();
        assert_eq!(s.busy_slots(), 12); // every slot busy, H = 6
    }

    #[test]
    fn migration_required_instance() {
        // Classic global-scheduling example: two processors, three tasks
        // each with C = 2, D = T = 3: U = 2, feasible only with migration
        // (no partition of three 2/3 tasks onto two processors works).
        let ts = TaskSet::from_ocdt(&[(0, 2, 3, 3), (0, 2, 3, 3), (0, 2, 3, 3)]);
        let res = solve_with(&ts, 2, TaskOrder::DeadlineMinusWcet);
        let s = res.verdict.schedule().expect("feasible with migration");
        check_identical(&ts, 2, s).unwrap();
        // Some task must run on both processors across the hyperperiod.
        let migrates = (0..3).any(|i| {
            let procs: std::collections::HashSet<_> =
                (0..3).filter_map(|t| s.processor_of(i, t)).collect();
            procs.len() > 1
        });
        assert!(migrates, "schedule should exhibit task migration:\n{s:?}");
    }

    #[test]
    fn deterministic_across_runs() {
        let ts = TaskSet::running_example();
        let a = solve_with(&ts, 2, TaskOrder::DeadlineMinusWcet);
        let b = solve_with(&ts, 2, TaskOrder::DeadlineMinusWcet);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.search, b.search);
    }

    #[test]
    fn decision_budget_reports_unknown() {
        // A moderately hard instance with a 1-decision budget.
        let ts = TaskSet::from_ocdt(&[(0, 1, 2, 2), (1, 3, 4, 4), (0, 2, 2, 3), (0, 1, 3, 4)]);
        let res = Csp2Solver::new(&ts, 2)
            .unwrap()
            .with_budget(Csp2Budget {
                time: None,
                max_decisions: Some(1),
            })
            .solve();
        assert_eq!(res.verdict, Verdict::Unknown(StopReason::DecisionLimit));
    }

    #[test]
    fn offsets_and_wrapping_jobs() {
        // τ2-style task whose last interval wraps the hyperperiod boundary,
        // alone on one processor.
        let ts = TaskSet::from_ocdt(&[(1, 3, 4, 4)]);
        let res = solve_with(&ts, 1, TaskOrder::Lexicographic);
        let s = res.verdict.schedule().unwrap();
        check_identical(&ts, 1, s).unwrap();
    }

    #[test]
    fn work_conservation_rule_is_visible() {
        // With one always-available task on two processors, P1 never idles
        // while the task is schedulable — but C3 forbids doubling up, so P2
        // idles. Checks rule 1 semantics don't force parallelism.
        let ts = TaskSet::from_ocdt(&[(0, 2, 2, 2)]);
        let res = solve_with(&ts, 2, TaskOrder::Lexicographic);
        let s = res.verdict.schedule().unwrap();
        check_identical(&ts, 2, s).unwrap();
        for t in 0..2 {
            assert_eq!(s.at(0, t), Some(0));
            assert_eq!(s.at(1, t), None);
        }
    }

    #[test]
    fn stats_are_populated() {
        let ts = TaskSet::running_example();
        let res = solve_with(&ts, 2, TaskOrder::DeadlineMinusWcet);
        assert!(res.search.unwrap().decisions > 0);
    }
}
