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
//! The same search runs on heterogeneous platforms (Section VI-A,
//! [`crate::hetero`]), seen through a platform view that sets four rules
//! (identical view / rate-matrix view):
//!
//! * **visit order** — processors by id / by ascending quality `Q(Pj)`,
//!   and tasks with fewer eligible processors rank first;
//! * **symmetry** — eq. (10) across all processors / eq. (13) between
//!   adjacent visited processors of one identical group;
//! * **completion** — unit rates / a slot completes `si,j` units: the
//!   laxity bound scales by the task's largest rate, overshooting
//!   candidates are skipped and each job's exact total (12) is checked
//!   after its last instant;
//! * **idling** — rule 1 and in-instant mandatory pruning / idle is the
//!   last candidate of every slot (the soundness note of [`crate::hetero`]).
//!
//! The search is exact and fully deterministic (Section VII-B), and returns
//! [`Verdict::Infeasible`] only after exhausting the (symmetry-reduced)
//! space.

use std::time::Instant;

use mgrts_obs::SearchStats;
use rt_platform::{identical_groups, quality_order, Platform};
use rt_task::{JobInstants, TaskError, TaskId, TaskSet, Time};

use crate::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec};
use crate::heuristics::TaskOrder;
use crate::schedule::Schedule;
use crate::solve::{no_processors, SolveResult, StopReason, Verdict};

/// The specialized chronological CSP2 search under one value-ordering
/// heuristic, on identical processors or, with the rate-weighted
/// constraint (12), on a heterogeneous platform. It reads
/// [`Budget::time`] and [`Budget::max_decisions`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Csp2Engine {
    /// Value-ordering heuristic (a paper Table I column).
    pub order: TaskOrder,
}

impl FeasibilitySolver for Csp2Engine {
    fn name(&self) -> String {
        match self.order {
            TaskOrder::Lexicographic => "csp2".to_string(),
            TaskOrder::RateMonotonic => "csp2-rm".to_string(),
            TaskOrder::DeadlineMonotonic => "csp2-dm".to_string(),
            TaskOrder::PeriodMinusWcet => "csp2-tc".to_string(),
            TaskOrder::DeadlineMinusWcet => "csp2-dc".to_string(),
        }
    }

    fn solve_on(
        &self,
        ts: &TaskSet,
        spec: &PlatformSpec,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<SolveResult, TaskError> {
        let start = Instant::now();
        let solver = Csp2Solver::new(ts, spec.num_processors())?
            .with_order(self.order)
            .with_budget(*budget)
            .with_cancel(cancel.clone());
        Ok(match spec {
            PlatformSpec::Identical { .. } => solver.solve_since(start),
            PlatformSpec::Heterogeneous(p) => {
                assert_eq!(p.num_tasks(), ts.len(), "rate matrix row count");
                let view = RateMatrix::new(ts, p, solver.ji.hyperperiod());
                Search::new(&solver, view).run(start)
            }
        })
    }
}

/// The specialized CSP2 solver for identical processors.
#[derive(Debug)]
pub struct Csp2Solver<'a> {
    ts: &'a TaskSet,
    m: usize,
    ji: JobInstants,
    order: TaskOrder,
    budget: Budget,
    cancel: CancelToken,
}

impl<'a> Csp2Solver<'a> {
    /// Prepare a solver. Fails when the task set is not constrained-deadline
    /// or its hyperperiod overflows (arbitrary deadlines go through the
    /// clone transform first, see [`crate::solve::solve_arbitrary_deadline`]).
    pub fn new(ts: &'a TaskSet, m: usize) -> Result<Self, TaskError> {
        let ji = JobInstants::new(ts)?;
        Ok(Csp2Solver {
            ts,
            m,
            ji,
            order: TaskOrder::default(),
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
        })
    }

    /// Select the value-ordering heuristic (builder style).
    #[must_use]
    pub fn with_order(mut self, order: TaskOrder) -> Self {
        self.order = order;
        self
    }

    /// Set resource limits (builder style): the search reads
    /// [`Budget::time`] and [`Budget::max_decisions`].
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
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
    fn solve_since(&self, start: Instant) -> SolveResult {
        if self.m == 0 {
            return no_processors(start);
        }
        Search::new(self, Identical).run(start)
    }
}

/// The platform as the search visits it, by visit position `j`.
trait View {
    /// Rule 1 and in-instant mandatory pruning; otherwise idle is the last
    /// candidate of every slot and exact completion is checked.
    const WORK_CONSERVING: bool;
    /// Units a slot of `task` on the `j`-th visited processor completes
    /// (0 = forbidden).
    fn rate(&self, task: TaskId, j: usize) -> Time;
    /// The largest rate of `task`, the constraint (9) bound's factor.
    fn max_rate(&self, task: TaskId) -> Time;
    /// Whether eq. (10)/(13) orders the `(j−1)`-th and `j`-th visited
    /// processors' tasks by ascending rank.
    fn same_group(&self, j: usize) -> bool;
    /// Processor id of the `j`-th visited processor.
    fn processor(&self, j: usize) -> usize;
}

/// Identical processors: unit rates, one group, visited in id order.
struct Identical;

impl View for Identical {
    const WORK_CONSERVING: bool = true;
    fn rate(&self, _: TaskId, _: usize) -> Time {
        1
    }
    fn max_rate(&self, _: TaskId) -> Time {
        1
    }
    fn same_group(&self, _: usize) -> bool {
        true
    }
    fn processor(&self, j: usize) -> usize {
        j
    }
}

/// A heterogeneous rate matrix (Section VI-A), columns in visit order:
/// ascending quality `Q(Pj)`, ties by id.
struct RateMatrix {
    m: usize,
    visit: Vec<usize>,
    /// `rates[task * m + j]`: the rate on the `j`-th visited processor.
    rates: Vec<Time>,
    max_rate: Vec<Time>,
    /// Identical-processor group of each visit position.
    group: Vec<usize>,
}

impl RateMatrix {
    fn new(ts: &TaskSet, platform: &Platform, h: Time) -> Self {
        let m = platform.num_processors();
        let pairs: Vec<(u64, u64)> = ts.tasks().iter().map(|t| (t.wcet, t.period)).collect();
        let visit = quality_order(platform, &pairs, h);
        let groups = identical_groups(platform);
        let rates: Vec<Time> = (0..ts.len())
            .flat_map(|i| visit.iter().map(move |&p| platform.rate(i, p)))
            .collect();
        RateMatrix {
            m,
            max_rate: rates
                .chunks(m)
                .map(|r| r.iter().copied().max().unwrap_or(0))
                .collect(),
            group: visit
                .iter()
                .map(|p| groups.iter().position(|g| g.contains(p)).expect("grouped"))
                .collect(),
            visit,
            rates,
        }
    }
}

impl View for RateMatrix {
    const WORK_CONSERVING: bool = false;
    fn rate(&self, task: TaskId, j: usize) -> Time {
        self.rates[task * self.m + j]
    }
    fn max_rate(&self, task: TaskId) -> Time {
        self.max_rate[task]
    }
    fn same_group(&self, j: usize) -> bool {
        self.group[j] == self.group[j - 1]
    }
    fn processor(&self, j: usize) -> usize {
        self.visit[j]
    }
}

/// Marks "no job at this instant" in [`Active::job`].
const NO_JOB: usize = usize::MAX;

/// One task seen from the instant the search sits at (the per-instant job
/// cache). Entries are kept in priority-rank order.
#[derive(Debug, Clone, Copy)]
struct Active {
    task: TaskId,
    wcet: Time,
    /// Flat index of the task's first job in `Search::done`.
    base: usize,
    /// Flat `done` index of the job available at the instant, or
    /// [`NO_JOB`].
    job: usize,
    /// `slots_at_or_after(job, t)` for that job.
    left: Time,
    /// Already running at the instant (C3).
    running: bool,
}

/// A candidate on the shared choice stack: the task and the flat `done`
/// index of its job at the choice point's instant, or [`Cand::IDLE`].
#[derive(Debug, Clone, Copy)]
struct Cand {
    task: TaskId,
    job: usize,
}

impl Cand {
    /// Leave the slot idle (a candidate of the rate-matrix view only).
    const IDLE: Cand = Cand {
        task: 0,
        job: NO_JOB,
    };
}

/// One choice point: slot `(t, j)`, its candidates `cands[start..end]`
/// in ascending rank, and which one is enacted (`next - 1`).
struct ChoicePoint {
    t: Time,
    j: usize,
    start: usize,
    next: usize,
    end: usize,
}

struct Search<'s, 'a, V> {
    solver: &'s Csp2Solver<'a>,
    view: V,
    h: Time,
    m: usize,
    /// `rank[task]`: fewer eligible processors first (Section VI-A), then
    /// the configured heuristic.
    rank: Vec<usize>,
    /// The tasks in rank order, their jobs at instant `at`.
    active: Vec<Active>,
    /// The instant `active` describes (`Time::MAX` before the first).
    at: Time,
    /// Executed units of each job, flat: task `i`'s job `k` at
    /// `active[rank[i]].base + k`.
    done: Vec<u32>,
    /// Flat assignment grid by visit position, `grid[t*m + j]`, `-1` =
    /// idle/unassigned.
    grid: Vec<i32>,
    /// Candidates of every open choice point, one range each.
    cands: Vec<Cand>,
    stack: Vec<ChoicePoint>,
    /// The slot to decide next, `(t, j)`.
    t: Time,
    j: usize,
    stats: SearchStats,
}

impl<'s, 'a, V: View> Search<'s, 'a, V> {
    fn new(solver: &'s Csp2Solver<'a>, view: V) -> Self {
        let ji = &solver.ji;
        let h = ji.hyperperiod();
        let m = solver.m;
        let base_rank = solver.order.ranks(solver.ts);
        let mut priorities: Vec<TaskId> = (0..base_rank.len()).collect();
        let eligible = |i| (0..m).filter(|&j| view.rate(i, j) > 0).count();
        priorities.sort_by_key(|&i| (eligible(i), base_rank[i]));
        let mut rank = vec![0; priorities.len()];
        for (r, &i) in priorities.iter().enumerate() {
            rank[i] = r;
        }
        let mut base = vec![0; rank.len()];
        let mut jobs = 0;
        for (i, b) in base.iter_mut().enumerate() {
            *b = jobs;
            jobs += ji.jobs_of(i) as usize;
        }
        let active = priorities
            .into_iter()
            .map(|task| Active {
                task,
                wcet: ji.wcet(task),
                base: base[task],
                job: NO_JOB,
                left: 0,
                running: false,
            })
            .collect();
        Search {
            solver,
            view,
            h,
            m,
            rank,
            active,
            at: Time::MAX,
            done: vec![0; jobs],
            grid: vec![-1; m * h as usize],
            cands: Vec::new(),
            stack: Vec::new(),
            t: 0,
            j: 0,
            stats: SearchStats {
                solves: 1,
                ..SearchStats::default()
            },
        }
    }

    /// Point the job cache at instant `t`: each task's job and its
    /// remaining schedulable instants, and which tasks row `t` of the
    /// grid already runs (every slot past the cursor is unassigned).
    fn enter(&mut self, t: Time) {
        let ji = &self.solver.ji;
        for a in &mut self.active {
            match ji.job_at(a.task, t) {
                Some(job) => {
                    a.job = a.base + job.k as usize;
                    a.left = ji.slots_at_or_after(job, t);
                }
                None => a.job = NO_JOB,
            }
            a.running = false;
        }
        let row = t as usize * self.m;
        for &e in &self.grid[row..row + self.m] {
            if e >= 0 {
                self.active[self.rank[e as usize]].running = true;
            }
        }
        self.at = t;
    }

    /// Remaining work of `a`'s job at the cached instant, if it has one
    /// with work left.
    fn remaining(&self, a: &Active) -> Option<Time> {
        if a.job == NO_JOB {
            return None;
        }
        let rem = a.wcet - Time::from(self.done[a.job]);
        (rem > 0).then_some(rem)
    }

    fn is_idle(c: Cand) -> bool {
        !V::WORK_CONSERVING && c.job == NO_JOB
    }

    fn assign(&mut self, t: Time, j: usize, c: Cand) {
        if Self::is_idle(c) {
            return;
        }
        self.grid[t as usize * self.m + j] = c.task as i32;
        self.done[c.job] += self.view.rate(c.task, j) as u32;
        if t == self.at {
            self.active[self.rank[c.task]].running = true;
        }
    }

    fn unassign(&mut self, t: Time, j: usize, c: Cand) {
        if Self::is_idle(c) {
            return;
        }
        self.grid[t as usize * self.m + j] = -1;
        self.done[c.job] -= self.view.rate(c.task, j) as u32;
        if t == self.at {
            self.active[self.rank[c.task]].running = false;
        }
    }

    /// Constraint (9) propagation at the start of the cached instant:
    /// every active job must satisfy `remaining ≤ max_rate · slots_left`;
    /// it is mandatory at the instant when it must run now to keep that.
    fn laxity_ok(&self) -> bool {
        let mut mandatory = 0usize;
        for a in &self.active {
            if let Some(rem) = self.remaining(a) {
                let rate = self.view.max_rate(a.task);
                if rem > rate * a.left {
                    return false;
                }
                if rem > rate * a.left.saturating_sub(1) {
                    mandatory += 1;
                }
            }
        }
        mandatory <= self.m
    }

    /// Whether every job whose last instant is `t − 1` received exactly
    /// its WCET (12). With idle a candidate and rates above 1 the laxity
    /// bound cannot guarantee it; under rule 1 it always holds.
    fn completed_before(&self, t: Time) -> bool {
        if V::WORK_CONSERVING || t == 0 {
            return true;
        }
        let ji = &self.solver.ji;
        self.active.iter().all(|a| match ji.job_at(a.task, t - 1) {
            Some(job) if ji.slots_at_or_after(job, t - 1) == 1 => {
                Time::from(self.done[a.base + job.k as usize]) == a.wcet
            }
            _ => true,
        })
    }

    /// Push the candidates for the cursor slot onto `cands`, in ascending
    /// rank and, in the rate-matrix view, idle last. `None` means "fail
    /// this branch" (nothing pushed); `Some(0)` means "auto-idle the rest
    /// of the instant" (rule 1: no available unscheduled work).
    fn candidates(&mut self) -> Option<usize> {
        let j = self.j;
        // eq. (10)/(13): ascending rank across consecutive processors of
        // one group.
        let prev_rank: Option<usize> = if j > 0 && self.view.same_group(j) {
            let prev = self.grid[self.t as usize * self.m + j - 1];
            if prev < 0 {
                // The previous identical processor idles, so this one
                // does too.
                debug_assert!(!V::WORK_CONSERVING, "idle slots auto-fill to the step end");
                self.cands.push(Cand::IDLE);
                return Some(1);
            }
            Some(self.rank[prev as usize])
        } else {
            None
        };
        let mut lo = prev_rank.map_or(0, |pr| pr + 1);
        let mut end = self.active.len();

        if V::WORK_CONSERVING {
            // Available tasks not yet running at t, and the mandatory
            // subset; the scan runs in rank order, so the first mandatory
            // rank is the lowest.
            let mut available = false;
            let mut min_mand_rank: Option<usize> = None;
            let mut mand_count = 0usize;
            for (r, a) in self.active.iter().enumerate() {
                if a.running {
                    continue; // already running at t (C3)
                }
                let Some(rem) = self.remaining(a) else {
                    continue;
                };
                available = true;
                if rem == a.left {
                    mand_count += 1;
                    min_mand_rank.get_or_insert(r);
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
            if !available {
                return Some(0); // genuine idle: rule 1 satisfied
            }
            // Candidate ranks stop at the lowest mandatory rank (skipping
            // mandatory work is a guaranteed dead end), and start there
            // once mandatory jobs fill the remaining slots.
            if let Some(mr) = min_mand_rank {
                if mand_count == slots_left_in_step {
                    lo = mr;
                }
                end = mr + 1;
            }
        }

        let start = self.cands.len();
        for r in lo..end {
            let a = self.active[r];
            // Not running yet (C3), with work left that a slot here
            // neither is forbidden for nor overshoots (12).
            let rate = self.view.rate(a.task, j);
            if !a.running
                && self
                    .remaining(&a)
                    .is_some_and(|rem| (1..=rem).contains(&rate))
            {
                self.cands.push(Cand {
                    task: a.task,
                    job: a.job,
                });
            }
        }
        if !V::WORK_CONSERVING {
            self.cands.push(Cand::IDLE);
        }
        let count = self.cands.len() - start;
        // Available work may exist with none of it admissible here. If
        // the inadmissibility comes from rule 2 (all ranks ≤ prev),
        // letting the processor idle would violate rule 1 — but an
        // equivalent canonical branch (a different earlier choice) covers
        // the schedule, so failing is sound symmetry breaking.
        (count > 0).then_some(count)
    }

    /// Move the cursor one slot on.
    fn advance(&mut self) {
        self.j += 1;
        if self.j == self.m {
            self.j = 0;
            self.t += 1;
        }
    }

    fn backtrack(&mut self) -> bool {
        while let Some(cp) = self.stack.last_mut() {
            let (t, j) = (cp.t, cp.j);
            let prev = self.cands[cp.next - 1];
            let next = (cp.next < cp.end).then(|| {
                cp.next += 1;
                self.cands[cp.next - 1]
            });
            if next.is_none() {
                self.cands.truncate(cp.start);
                self.stack.pop();
            }
            self.unassign(t, j, prev);
            self.stats.backtracks += 1;
            if let Some(c) = next {
                self.assign(t, j, c);
                (self.t, self.j) = (t, j);
                self.advance();
                return true;
            }
        }
        false
    }

    fn run(mut self, start: Instant) -> SolveResult {
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

            if self.t < self.h && self.t != self.at {
                self.enter(self.t);
            }
            // At an instant's first slot: the jobs that ended before it
            // are complete, and constraint (9) holds for the instant.
            let consistent = self.j > 0
                || (self.completed_before(self.t) && (self.t == self.h || self.laxity_ok()));
            if consistent && self.t == self.h {
                break Verdict::Feasible(self.extract());
            }
            let count = if consistent { self.candidates() } else { None };
            match count {
                None => {
                    if self.backtrack() {
                        continue;
                    }
                    break Verdict::Infeasible;
                }
                Some(0) => {
                    // Auto-idle to the end of the instant (rule 1 honoured:
                    // nothing is available).
                    self.t += 1;
                    self.j = 0;
                }
                Some(count) => {
                    let first = self.cands.len() - count;
                    let (t, j) = (self.t, self.j);
                    self.stack.push(ChoicePoint {
                        t,
                        j,
                        start: first,
                        next: first + 1,
                        end: first + count,
                    });
                    self.assign(t, j, self.cands[first]);
                    self.advance();
                    // Idle comes last: a choice point is a decision iff
                    // it has a non-idle candidate.
                    if !Self::is_idle(self.cands[first]) {
                        self.stats.decisions += 1;
                    }
                }
            }
        };
        SolveResult::searched(verdict, self.stats, start)
    }

    fn extract(&self) -> Schedule {
        // Every job must have received exactly its WCET — guaranteed by the
        // laxity propagation and the completion check; the debug assertion
        // documents the invariant.
        debug_assert!(self.active.iter().all(|a| {
            let jobs = self.solver.ji.jobs_of(a.task) as usize;
            self.done[a.base..a.base + jobs]
                .iter()
                .all(|&d| Time::from(d) == a.wcet)
        }));
        let mut grid = vec![None; self.grid.len()];
        for (slot, &e) in self.grid.iter().enumerate() {
            let (t, j) = (slot / self.m, slot % self.m);
            grid[t * self.m + self.view.processor(j)] = (e >= 0).then_some(e as TaskId);
        }
        Schedule::from_grid(self.m, self.h, grid)
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
            .with_budget(Budget {
                max_decisions: Some(1),
                ..Budget::unlimited()
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
