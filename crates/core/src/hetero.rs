//! Heterogeneous processors (Section VI-A) — described but *not implemented*
//! by the paper's authors; implemented here as the paper prescribes.
//!
//! On a heterogeneous platform every task-processor pair has an integer
//! execution rate `si,j` (0 = forbidden): a slot of `τi` on `Pj` completes
//! `si,j` units and constraint (C4) becomes the rate-weighted equality (11)
//! (CSP1) / (12) (CSP2). Both encodings change as follows:
//!
//! * domains — `x_{i,j}(t)` is pinned to 0 (CSP1), resp. value `i` is
//!   removed from `Dj(t)` (CSP2), whenever `si,j = 0`;
//! * CSP2 search — processors are visited in ascending *quality*
//!   `Q(Pj) = Σ_i si,j·Ci/Ti` (least capable first, to prune early);
//!   eligibility-poor tasks get higher value priority; the eq. (10)
//!   permutation symmetry is restricted to *identical* processors
//!   (eq. (13)), which the quality ordering conveniently groups together.
//!
//! Callers reach these routes through the engines, handing them a
//! [`PlatformSpec::Heterogeneous`] spec: `csp1` ([`Csp1Engine`]), every
//! specialized CSP2 heuristic ([`Csp2Engine`]) and `sat`
//! ([`Csp1SatEngine`]).
//!
//! [`PlatformSpec::Heterogeneous`]: crate::engine::PlatformSpec::Heterogeneous
//! [`Csp1Engine`]: crate::csp1::Csp1Engine
//! [`Csp2Engine`]: crate::csp2::Csp2Engine
//! [`Csp1SatEngine`]: crate::csp1_sat::Csp1SatEngine
//!
//! ## Soundness note on the idle rule
//!
//! The identical-processor "never idle while work is available" rule is
//! justified by a unit-exchange argument that **breaks** under heterogeneous
//! rates with exact completion: forcing a task onto a slow processor now can
//! make the exact total `Ci` unreachable, while idling and using a faster
//! processor later succeeds. The paper carries the rule over without
//! comment; the search here keeps idling as a real alternative in every
//! slot, so it stays complete.

use std::time::Instant;

use csp_engine::{Constraint, Model};
use mgrts_obs::SearchStats;
use rt_platform::{identical_groups, quality_order, Platform};
use rt_task::{JobId, JobInstants, TaskError, TaskId, TaskSet, Time};

use crate::csp1::{Csp1Layout, NEVER_RAISED};
use crate::engine::{Budget, CancelToken};
use crate::heuristics::TaskOrder;
use crate::schedule::Schedule;
use crate::solve::{SolveResult, StopReason, Verdict};

// ---------------------------------------------------------------------------
// CSP1 on heterogeneous platforms (constraint (11)).
// ---------------------------------------------------------------------------

/// Build the heterogeneous CSP1 model: booleans as in Section IV, domains
/// restricted by `si,j = 0`, and the rate-weighted completion equality (11).
pub fn encode_csp1(ts: &TaskSet, platform: &Platform) -> Result<(Model, Csp1Layout), TaskError> {
    encode_csp1_polled(ts, platform, &CancelToken::new()).map(|e| e.expect(NEVER_RAISED))
}

/// [`encode_csp1`], polling `cancel` once per iteration of each
/// constraint family's outer loop and once more at the end: `Ok(None)`
/// once it is raised. The `csp1` engine's heterogeneous route
/// ([`crate::csp1::Csp1Engine`]).
pub(crate) fn encode_csp1_polled(
    ts: &TaskSet,
    platform: &Platform,
    cancel: &CancelToken,
) -> Result<Option<(Model, Csp1Layout)>, TaskError> {
    assert_eq!(platform.num_tasks(), ts.len(), "rate matrix row count");
    let ji = JobInstants::new(ts)?;
    let h = ji.hyperperiod();
    let n = ts.len();
    let m = platform.num_processors();
    let layout = Csp1Layout { n, m, h };
    let mut model = Model::new();

    for i in 0..n {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        for j in 0..m {
            for t in 0..h {
                if ji.job_at(i, t).is_some() && platform.can_run(i, j) {
                    model.new_bool();
                } else {
                    model.new_var(0, 0);
                }
            }
        }
    }
    for j in 0..m {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        for t in 0..h {
            let vars = (0..n).map(|i| layout.var(i, j, t)).collect();
            model.post(Constraint::AtMostOneTrue { vars });
        }
    }
    for i in 0..n {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        for t in 0..h {
            if ji.job_at(i, t).is_some() {
                let vars = (0..m).map(|j| layout.var(i, j, t)).collect();
                model.post(Constraint::AtMostOneTrue { vars });
            }
        }
    }
    // (11): Σ_t Σ_j si,j · x_{i,j}(t) = Ci per job.
    for i in 0..n {
        if cancel.is_cancelled() {
            return Ok(None);
        }
        for k in 0..ji.jobs_of(i) {
            let mut vars = Vec::new();
            let mut coeffs = Vec::new();
            for t in ji.instants_mod(JobId { task: i, k }) {
                for j in 0..m {
                    if platform.can_run(i, j) {
                        vars.push(layout.var(i, j, t));
                        coeffs.push(platform.rate(i, j) as i64);
                    }
                }
            }
            model.post(Constraint::linear_eq(vars, coeffs, ts.task(i).wcet as i64));
        }
    }
    if cancel.is_cancelled() {
        return Ok(None);
    }
    Ok(Some((model, layout)))
}

// ---------------------------------------------------------------------------
// CSP2 specialized search on heterogeneous platforms.
// ---------------------------------------------------------------------------

/// The specialized chronological search on `platform` under the base
/// heuristic `order`, within `budget`'s time (counted from `start`, the
/// solve's entry) and decisions: the heterogeneous route of
/// [`crate::csp2::Csp2Engine`].
pub(crate) fn solve_csp2(
    ts: &TaskSet,
    platform: &Platform,
    order: TaskOrder,
    budget: &Budget,
    cancel: &CancelToken,
    start: Instant,
) -> Result<SolveResult, TaskError> {
    assert_eq!(platform.num_tasks(), ts.len(), "rate matrix row count");
    let ji = JobInstants::new(ts)?;
    Ok(HeteroSearch::new(ts, platform, ji, order, budget, cancel.clone()).run(start))
}

struct HeteroSearch<'a> {
    ji: JobInstants,
    platform: &'a Platform,
    budget: Budget,
    n: usize,
    m: usize,
    h: Time,
    /// Processor visit order: ascending quality (Section VI-A).
    proc_order: Vec<usize>,
    /// `group_id[slot_j]`: identical-processor group of the j-th *visited*
    /// processor; eq. (13) applies between consecutive visited processors of
    /// equal group.
    group_of_visit: Vec<usize>,
    /// Task priority rank (eligibility-poor first, then the base heuristic).
    rank: Vec<usize>,
    /// Max rate per task (for the laxity bound).
    max_rate: Vec<Time>,
    /// Remaining (unserved) execution per job.
    done: Vec<Vec<Time>>,
    /// `grid[t*m + visit_j]` = task or -1 (note: indexed by *visit position*).
    grid: Vec<i32>,
    stack: Vec<HChoice>,
    cur_slot: usize,
    stats: SearchStats,
    cancel: CancelToken,
}

struct HChoice {
    slot: usize,
    /// Candidates: task id, or `IDLE_CAND` for an explicit idle decision.
    cands: Vec<usize>,
    next: usize,
}

const IDLE_CAND: usize = usize::MAX;

impl<'a> HeteroSearch<'a> {
    fn new(
        ts: &TaskSet,
        platform: &'a Platform,
        ji: JobInstants,
        order: TaskOrder,
        budget: &Budget,
        cancel: CancelToken,
    ) -> Self {
        let n = ts.len();
        let m = platform.num_processors();
        let h = ji.hyperperiod();
        let pairs: Vec<(u64, u64)> = ts.tasks().iter().map(|t| (t.wcet, t.period)).collect();
        let proc_order = quality_order(platform, &pairs, h);
        // Group ids in visit order.
        let groups = identical_groups(platform);
        let mut group_id = vec![0usize; m];
        for (gid, g) in groups.iter().enumerate() {
            for &p in g {
                group_id[p] = gid;
            }
        }
        let group_of_visit = proc_order.iter().map(|&p| group_id[p]).collect();
        // Value priority: fewer eligible processors first (Section VI-A),
        // then the base heuristic key, then id.
        let base = order.ranks(ts);
        let mut order: Vec<TaskId> = (0..n).collect();
        order.sort_by_key(|&i| (platform.eligibility_count(i), base[i], i));
        let mut rank = vec![0usize; n];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        let max_rate = (0..n)
            .map(|i| (0..m).map(|j| platform.rate(i, j)).max().unwrap_or(0))
            .collect();
        let done = (0..n).map(|i| vec![0; ji.jobs_of(i) as usize]).collect();
        HeteroSearch {
            platform,
            budget: *budget,
            n,
            m,
            h,
            proc_order,
            group_of_visit,
            rank,
            max_rate,
            done,
            grid: vec![-1; m * h as usize],
            stack: Vec::new(),
            cur_slot: 0,
            stats: SearchStats {
                solves: 1,
                ..SearchStats::default()
            },
            cancel,
            ji,
        }
    }

    fn wcet(&self, i: TaskId) -> Time {
        self.ji.wcet(i)
    }

    fn active_job(&self, i: TaskId, t: Time) -> Option<(JobId, Time)> {
        let job = self.ji.job_at(i, t)?;
        let rem = self.wcet(i) - self.done[i][job.k as usize];
        (rem > 0).then_some((job, rem))
    }

    fn laxity_ok(&self, t: Time) -> bool {
        let mut mandatory = 0usize;
        for i in 0..self.n {
            if let Some((job, rem)) = self.active_job(i, t) {
                let left = self.ji.slots_at_or_after(job, t);
                if rem > self.max_rate[i] * left {
                    return false;
                }
                if rem > self.max_rate[i] * left.saturating_sub(1) {
                    mandatory += 1;
                }
            }
        }
        mandatory <= self.m
    }

    fn candidates(&self, slot: usize) -> Option<Vec<usize>> {
        let t = (slot / self.m) as Time;
        let visit_j = slot % self.m;
        let proc = self.proc_order[visit_j];
        let step_base = (slot / self.m) * self.m;

        // eq. (13): lower bound on rank within an identical group.
        let group_floor: Option<usize> = (visit_j > 0
            && self.group_of_visit[visit_j] == self.group_of_visit[visit_j - 1])
            .then(|| {
                let prev = self.grid[slot - 1];
                if prev < 0 {
                    usize::MAX // previous identical processor idles → so do we
                } else {
                    self.rank[prev as usize]
                }
            });
        if group_floor == Some(usize::MAX) {
            return Some(vec![IDLE_CAND]);
        }

        let mut cands: Vec<(usize, usize)> = Vec::new();
        for i in 0..self.n {
            let Some((_job, rem)) = self.active_job(i, t) else {
                continue;
            };
            if self.grid[step_base..slot].contains(&(i as i32)) {
                continue; // C3
            }
            let rate = self.platform.rate(i, proc);
            if rate == 0 {
                continue;
            }
            if rate > rem {
                continue; // would overshoot the exact total (12)
            }
            if group_floor.is_some_and(|f| self.rank[i] <= f) {
                continue;
            }
            cands.push((self.rank[i], i));
        }
        cands.sort_unstable();
        let mut out: Vec<usize> = cands.into_iter().map(|(_, i)| i).collect();
        // Idle is always a real alternative (see the module docs).
        out.push(IDLE_CAND);
        Some(out)
    }

    fn assign(&mut self, slot: usize, cand: usize) {
        if cand == IDLE_CAND {
            self.grid[slot] = -1;
            return;
        }
        let t = (slot / self.m) as Time;
        let proc = self.proc_order[slot % self.m];
        let job = self.ji.job_at(cand, t).expect("candidate is active");
        self.grid[slot] = cand as i32;
        self.done[cand][job.k as usize] += self.platform.rate(cand, proc);
    }

    fn unassign(&mut self, slot: usize, cand: usize) {
        if cand == IDLE_CAND {
            return;
        }
        let t = (slot / self.m) as Time;
        let proc = self.proc_order[slot % self.m];
        let job = self.ji.job_at(cand, t).expect("was active");
        self.grid[slot] = -1;
        self.done[cand][job.k as usize] -= self.platform.rate(cand, proc);
    }

    fn backtrack(&mut self) -> bool {
        loop {
            let Some(cp) = self.stack.last_mut() else {
                return false;
            };
            let slot = cp.slot;
            let prev = cp.cands[cp.next - 1];
            let has_more = cp.next < cp.cands.len();
            let next_cand = has_more.then(|| cp.cands[cp.next]);
            if has_more {
                cp.next += 1;
            } else {
                self.stack.pop();
            }
            self.unassign(slot, prev);
            self.stats.backtracks += 1;
            if let Some(c) = next_cand {
                self.assign(slot, c);
                self.cur_slot = slot + 1;
                return true;
            }
        }
    }

    /// End-of-instant completion check: jobs whose *last* instant is `t`
    /// must be exactly complete (the laxity bound alone cannot guarantee
    /// exactness under rates > 1).
    fn completion_ok_at_end_of(&self, t: Time) -> bool {
        for i in 0..self.n {
            if let Some(job) = self.ji.job_at(i, t) {
                if self.ji.slots_at_or_after(job, t) == 1 {
                    let rem = self.wcet(i) - self.done[i][job.k as usize];
                    if rem != 0 {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn run(mut self, start: Instant) -> SolveResult {
        let total = self.m * self.h as usize;
        let mut iter: u64 = 0;
        let verdict = loop {
            iter += 1;
            if iter % 1024 == 1 {
                if self.cancel.is_cancelled() {
                    break Verdict::Unknown(StopReason::Cancelled);
                }
                if let Some(limit) = self.budget.time {
                    if start.elapsed() >= limit {
                        break Verdict::Unknown(StopReason::TimeLimit);
                    }
                }
            }
            if self
                .budget
                .max_decisions
                .is_some_and(|mx| self.stats.decisions > mx)
            {
                break Verdict::Unknown(StopReason::DecisionLimit);
            }
            if self.cur_slot == total {
                // Jobs whose last instant is H-1 get their completion
                // audited here (all earlier instants are audited on entry
                // to their successor).
                if self.completion_ok_at_end_of(self.h - 1) {
                    break Verdict::Feasible(self.extract());
                }
                if self.backtrack() {
                    continue;
                }
                break Verdict::Infeasible;
            }
            let t = (self.cur_slot / self.m) as Time;
            let j = self.cur_slot % self.m;
            let fail = if j == 0 {
                !self.laxity_ok(t) || (t > 0 && !self.completion_ok_at_end_of(t - 1))
            } else {
                false
            };
            if fail {
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
                Some(cands) => {
                    debug_assert!(!cands.is_empty(), "idle is always representable");
                    let slot = self.cur_slot;
                    let first = cands[0];
                    let single = cands.len() == 1;
                    self.stack.push(HChoice {
                        slot,
                        cands,
                        next: 1,
                    });
                    self.assign(slot, first);
                    self.cur_slot = slot + 1;
                    if !single {
                        self.stats.decisions += 1;
                    }
                }
            }
        };
        SolveResult::searched(verdict, self.stats, start)
    }

    fn extract(&self) -> Schedule {
        debug_assert!(self.completion_ok_at_end_of(self.h - 1));
        let mut s = Schedule::idle(self.m, self.h);
        for t in 0..self.h {
            for vj in 0..self.m {
                let e = self.grid[t as usize * self.m + vj];
                if e >= 0 {
                    s.set(self.proc_order[vj], t, Some(e as TaskId));
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csp1::Csp1Engine;
    use crate::csp2::Csp2Engine;
    use crate::engine::{FeasibilitySolver, PlatformSpec};
    use crate::verify::check_heterogeneous;
    use rt_task::TaskSet;

    fn solve(
        ts: &TaskSet,
        p: &Platform,
        engine: &dyn FeasibilitySolver,
        budget: &Budget,
    ) -> SolveResult {
        let spec = PlatformSpec::Heterogeneous(p.clone());
        engine
            .solve_on(ts, &spec, budget, &CancelToken::new())
            .unwrap()
    }

    /// The heterogeneous `csp2-dc` route.
    fn solve_dc(ts: &TaskSet, p: &Platform) -> SolveResult {
        let dc = Csp2Engine {
            order: TaskOrder::DeadlineMinusWcet,
        };
        solve(ts, p, &dc, &Budget::unlimited())
    }

    #[test]
    fn identical_rates_reduce_to_base_case() {
        let ts = TaskSet::running_example();
        let platform = Platform::identical(3, 2).unwrap();
        let res = solve_dc(&ts, &platform);
        let s = res.verdict.schedule().expect("feasible");
        check_heterogeneous(&ts, &platform, s).unwrap();
    }

    #[test]
    fn fast_processor_halves_slots() {
        // Two tasks, each C = D = T = 2, on ONE processor: infeasible at
        // rate 1 (demand 4 > 2 slots per window), feasible at rate 2 (each
        // job completes its exact 2 units in a single slot).
        let ts = TaskSet::from_ocdt(&[(0, 2, 2, 2), (0, 2, 2, 2)]);
        let slow = Platform::heterogeneous(vec![vec![1], vec![1]]).unwrap();
        let res = solve_dc(&ts, &slow);
        assert!(res.verdict.is_infeasible());
        let fast = Platform::heterogeneous(vec![vec![2], vec![2]]).unwrap();
        let res = solve_dc(&ts, &fast);
        let s = res.verdict.schedule().expect("rate 2 fits both");
        check_heterogeneous(&ts, &fast, s).unwrap();
    }

    #[test]
    fn exactness_rejects_overshooting_rates() {
        // C = 3 on a single rate-2 processor: 2 slots give 4, 1 slot gives
        // 2 — the exact total 3 is unreachable (constraint (12)).
        let ts = TaskSet::from_ocdt(&[(0, 3, 4, 4)]);
        let p = Platform::heterogeneous(vec![vec![2]]).unwrap();
        let res = solve_dc(&ts, &p);
        assert!(res.verdict.is_infeasible());
    }

    #[test]
    fn mixed_rates_reach_exact_total() {
        // C = 3, window of 4, rates [2, 1]: one slot on each processor at
        // different instants totals 3.
        let ts = TaskSet::from_ocdt(&[(0, 3, 4, 4)]);
        let p = Platform::heterogeneous(vec![vec![2, 1]]).unwrap();
        let res = solve_dc(&ts, &p);
        let s = res.verdict.schedule().expect("2 + 1 = 3");
        check_heterogeneous(&ts, &p, s).unwrap();
    }

    #[test]
    fn dedicated_processor_is_respected() {
        // Task 0 can only run on P0; task 1 only on P1; both need the full
        // window.
        let ts = TaskSet::from_ocdt(&[(0, 2, 2, 2), (0, 2, 2, 2)]);
        let p = Platform::heterogeneous(vec![vec![1, 0], vec![0, 1]]).unwrap();
        let res = solve_dc(&ts, &p);
        let s = res.verdict.schedule().expect("dedicated split works");
        check_heterogeneous(&ts, &p, s).unwrap();
        for t in 0..2 {
            assert_eq!(s.at(0, t), Some(0));
            assert_eq!(s.at(1, t), Some(1));
        }
    }

    #[test]
    fn csp1_hetero_agrees_with_csp2_hetero() {
        let ts = TaskSet::from_ocdt(&[(0, 2, 3, 3), (0, 2, 3, 3)]);
        for rates in [
            vec![vec![1, 1], vec![1, 1]],
            vec![vec![2, 1], vec![1, 1]],
            vec![vec![1, 0], vec![0, 1]],
            vec![vec![2, 2], vec![2, 2]],
        ] {
            let p = Platform::heterogeneous(rates.clone()).unwrap();
            let a = solve(&ts, &p, &Csp1Engine { seed: 3 }, &Budget::unlimited());
            let b = solve_dc(&ts, &p);
            assert_eq!(
                a.verdict.is_feasible(),
                b.verdict.is_feasible(),
                "encodings disagree on rates {rates:?}"
            );
            if let Some(s) = a.verdict.schedule() {
                check_heterogeneous(&ts, &p, s).unwrap();
            }
            if let Some(s) = b.verdict.schedule() {
                check_heterogeneous(&ts, &p, s).unwrap();
            }
        }
    }

    #[test]
    fn csp1_hetero_size_guard_refuses_large_models() {
        let ts = TaskSet::running_example();
        let p = Platform::identical(3, 2).unwrap();
        let budget = Budget {
            max_cells: Some(5),
            ..Budget::unlimited()
        };
        let res = solve(&ts, &p, &Csp1Engine::default(), &budget);
        assert_eq!(res.verdict, Verdict::Unknown(StopReason::EncodingTooLarge));
    }

    #[test]
    fn csp1_hetero_honours_the_decision_budget() {
        let ts = TaskSet::from_ocdt(&[
            (0, 2, 3, 4),
            (0, 3, 4, 4),
            (1, 2, 3, 4),
            (0, 1, 2, 2),
            (0, 2, 4, 4),
            (0, 1, 3, 3),
        ]);
        let p = Platform::identical(6, 2).unwrap();
        let budget = Budget {
            max_decisions: Some(1),
            ..Budget::unlimited()
        };
        let res = solve(&ts, &p, &Csp1Engine::default(), &budget);
        assert!(
            matches!(
                res.verdict,
                Verdict::Unknown(StopReason::DecisionLimit)
                    | Verdict::Feasible(_)
                    | Verdict::Infeasible
            ),
            "{:?}",
            res.verdict
        );
        // The engine stops at the first decision past the limit.
        let decisions = res.search.unwrap().decisions;
        assert!(decisions <= 2, "{decisions} decisions");
    }

    #[test]
    fn quality_ordering_groups_identical_processors() {
        // Two identical slow processors + one fast: visit order starts with
        // the slow group (lower quality).
        let ts = TaskSet::from_ocdt(&[(0, 1, 2, 2)]);
        let p = Platform::heterogeneous(vec![vec![1, 3, 1]]).unwrap();
        let res = solve_dc(&ts, &p);
        assert!(res.verdict.is_feasible());
    }
}
