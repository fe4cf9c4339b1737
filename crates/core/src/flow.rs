//! Exact feasibility on identical processors as a maximum flow.
//!
//! On `m` identical processors the paper's problem (C1–C4 over one
//! hyperperiod, integer job windows, migration allowed, no intra-job
//! parallelism) is a bipartite flow problem (W. A. Horn, "Some simple
//! scheduling algorithms", *Naval Research Logistics Quarterly* 21(1),
//! 1974):
//!
//! * source → job, capacity `Ci`;
//! * job → each mod-H instant of its window, capacity 1;
//! * instant → sink, capacity `m`.
//!
//! The instance is feasible iff the maximum flow saturates every job. An
//! integral flow is a schedule: each instant's units fill its processors
//! in order, and no task runs twice at one instant because the windows of
//! one task's jobs are disjoint mod H (`Di ≤ Ti`). A failed augmenting
//! search is a certificate instead: the set `S` of instants it reached
//! must absorb more forced work than its `m·|S|` processor slots, and
//! [`crate::verify::check_cut`] re-derives that inequality from the task
//! parameters before the engine answers `Infeasible`.
//!
//! The network is never built as a graph. Each job keeps its flow as a
//! flat bitset over its window (any `Di`), and a CSR array lists the jobs
//! whose window contains each instant. [`FlowEngine`]:
//!
//! 1. rejects `U > m` exactly ([`TaskSet::utilization_exceeds`]); the cut
//!    is every instant;
//! 2. warm-starts greedily: at each instant, in chronological mod-H order,
//!    the `m` unfinished jobs of least laxity get one unit each;
//! 3. repairs: from each job still short of `Ci`, a breadth-first search
//!    over instants looks for an augmenting path (move a job that runs at a
//!    full instant to a free instant of its window, and so on, until some
//!    instant has a free processor). A search that reaches no such instant
//!    ends the solve with the instants it reached as the cut.

use std::time::{Duration, Instant};

use mgrts_obs::SearchStats;
use rt_task::{JobId, JobInstants, TaskError, TaskId, TaskSet, Time};

use crate::engine::{Budget, CancelToken, FeasibilitySolver, PlatformSpec};
use crate::schedule::Schedule;
use crate::solve::{SolveResult, StopReason, Verdict};
use crate::verify;

/// The exact polynomial backend for identical platforms (`"flow"`).
///
/// It reads [`Budget::time`]. Its one size guard is the network's `u32`
/// indices: past `u32::MAX` job–instant pairs (`Σ (H/Ti)·Di`) it answers
/// [`StopReason::EncodingTooLarge`]. The network takes about four bytes
/// per pair (at most `n·H` pairs), and no bound below the index limit is
/// imposed, as `csp2-dc` imposes none on its `m·H` grid. The
/// [`CancelToken`] is polled at entry and every 1024 steps (jobs laid out,
/// instants warm-started, instants visited by the augmenting searches).
/// Heterogeneous specs get [`StopReason::Unsupported`].
///
/// Its [`SearchStats`] read: `solves` = 1, `propagations` = units placed by
/// the greedy warm start, `decisions` = augmenting paths found by the
/// repair (0 when the warm start alone schedules every job), all other
/// counters 0. A solve stopped at entry reports no search block.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowEngine;

impl FeasibilitySolver for FlowEngine {
    fn name(&self) -> String {
        "flow".to_string()
    }

    fn solve_on(
        &self,
        ts: &TaskSet,
        spec: &PlatformSpec,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Result<SolveResult, TaskError> {
        let start = Instant::now();
        let PlatformSpec::Identical { m } = *spec else {
            return Ok(SolveResult::stopped(
                StopReason::Unsupported,
                start.elapsed(),
            ));
        };
        let (decision, search) = decide(ts, m, budget, cancel)?;
        let verdict = match decision {
            Decision::Feasible(schedule) => Verdict::Feasible(schedule),
            Decision::Infeasible { cut } => {
                verify::check_cut(ts, m, &cut)
                    .unwrap_or_else(|e| panic!("flow returned an invalid cut: {e}"));
                Verdict::Infeasible
            }
            Decision::Stopped(reason) => Verdict::Unknown(reason),
        };
        Ok(SolveResult {
            search,
            ..SolveResult::searched(verdict, SearchStats::default(), start)
        })
    }
}

/// What [`decide`] concluded, with its certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Decision {
    /// Every job gets its `Ci` units: the schedule (unverified; the race
    /// and the bench runner check it with [`crate::verify::check`]).
    Feasible(Schedule),
    /// No schedule exists. `cut` is a set of mod-H instants, sorted, that
    /// [`crate::verify::check_cut`] accepts.
    Infeasible {
        /// The instants of the cut.
        cut: Vec<Time>,
    },
    /// Stopped before a verdict.
    Stopped(StopReason),
}

/// Decide feasibility of `ts` on `m` identical processors by maximum flow
/// (see the module docs), with the budget and polling of [`FlowEngine`].
/// The search block is `None` when the solve stopped at entry (a raised
/// token, the size guard). Errors are the task set's own: an
/// unconstrained deadline or an overflowing hyperperiod.
fn decide(
    ts: &TaskSet,
    m: usize,
    budget: &Budget,
    cancel: &CancelToken,
) -> Result<(Decision, Option<SearchStats>), TaskError> {
    let mut clock = Clock {
        start: Instant::now(),
        limit: budget.time,
        cancel,
        steps: 0,
    };
    if cancel.is_cancelled() {
        return Ok((Decision::Stopped(StopReason::Cancelled), None));
    }
    let ji = JobInstants::new(ts)?;
    let pairs = (0..ts.len())
        .map(|i| ji.jobs_of(i).saturating_mul(ts.task(i).deadline))
        .fold(0, u64::saturating_add);
    if pairs > u64::from(u32::MAX) {
        return Ok((Decision::Stopped(StopReason::EncodingTooLarge), None));
    }
    let mut search = SearchStats {
        solves: 1,
        ..SearchStats::default()
    };
    if ts.utilization_exceeds(m) {
        let cut = (0..ji.hyperperiod()).collect();
        return Ok((Decision::Infeasible { cut }, Some(search)));
    }
    let decision = match Network::new(ts, &ji, m, &mut clock) {
        Ok(mut net) => net.solve(&mut clock, &mut search),
        Err(reason) => Decision::Stopped(reason),
    };
    Ok((decision, Some(search)))
}

/// The wall-clock budget and cancellation token, checked every 1024 steps.
struct Clock<'a> {
    start: Instant,
    limit: Option<Duration>,
    cancel: &'a CancelToken,
    steps: u64,
}

impl Clock<'_> {
    fn tick(&mut self) -> Result<(), StopReason> {
        self.steps += 1;
        if self.steps.is_multiple_of(1024) {
            if self.cancel.is_cancelled() {
                return Err(StopReason::Cancelled);
            }
            if self.limit.is_some_and(|l| self.start.elapsed() >= l) {
                return Err(StopReason::TimeLimit);
            }
        }
        Ok(())
    }
}

/// One job of the hyperperiod: its window is the mod-H instants
/// `release, release + 1, …` (`len` of them, wrapping past `H`), and its
/// flow is bits `bit..bit + len` of [`Network::flow`].
#[derive(Debug, Clone, Copy)]
struct Job {
    task: TaskId,
    release: usize,
    len: usize,
    wcet: usize,
    got: usize,
    bit: usize,
}

impl Job {
    /// Window instants whose mod-H value is at least `t` (`t` inside the
    /// window): what is left of the window when a chronological pass
    /// stands at `t`. A wrapped head (`t < release`) is followed by the
    /// whole tail.
    fn slots_from(&self, t: usize, h: usize) -> usize {
        if t >= self.release {
            (self.release + self.len).min(h) - t
        } else {
            self.len - t
        }
    }
}

/// Sentinel for "no instant" in the augmenting searches' parent links.
const NONE: u32 = u32::MAX;

/// The implicit job–instant network and its current integral flow.
struct Network {
    h: usize,
    m: usize,
    jobs: Vec<Job>,
    /// CSR over instants: the jobs whose window contains instant `t` are
    /// `active[first[t]..first[t + 1]]`, in job order.
    first: Vec<u32>,
    active: Vec<u32>,
    /// Per-job flow bitsets, concatenated.
    flow: Vec<u64>,
    /// Units of flow through each instant (busy processors).
    load: Vec<u32>,
    // Augmenting-search state, reused across searches; marks hold the
    // number of the search that last touched an instant or a job.
    epoch: u32,
    seen_instant: Vec<u32>,
    seen_job: Vec<u32>,
    parent_instant: Vec<u32>,
    parent_job: Vec<u32>,
    queue: Vec<u32>,
}

impl Network {
    fn new(
        ts: &TaskSet,
        ji: &JobInstants,
        m: usize,
        clock: &mut Clock<'_>,
    ) -> Result<Network, StopReason> {
        let h = ji.hyperperiod() as usize;
        let mut jobs = Vec::with_capacity(ji.total_jobs() as usize);
        let mut bit = 0;
        for (i, task) in ts.iter() {
            for k in 0..ji.jobs_of(i) {
                clock.tick()?;
                let len = task.deadline as usize;
                jobs.push(Job {
                    task: i,
                    release: ji.release_mod(JobId { task: i, k }) as usize,
                    len,
                    wcet: task.wcet as usize,
                    got: 0,
                    bit,
                });
                bit += len;
            }
        }
        let mut first = vec![0u32; h + 1];
        for job in &jobs {
            for t in window(job, h) {
                first[t + 1] += 1;
            }
        }
        for t in 0..h {
            first[t + 1] += first[t];
        }
        let mut fill = first.clone();
        let mut active = vec![0u32; bit];
        for (j, job) in jobs.iter().enumerate() {
            for t in window(job, h) {
                active[fill[t] as usize] = j as u32;
                fill[t] += 1;
            }
        }
        let n_jobs = jobs.len();
        Ok(Network {
            h,
            m,
            jobs,
            first,
            active,
            flow: vec![0; bit.div_ceil(64)],
            load: vec![0; h],
            epoch: 0,
            seen_instant: vec![0; h],
            seen_job: vec![0; n_jobs],
            parent_instant: vec![NONE; h],
            parent_job: vec![NONE; h],
            queue: Vec::new(),
        })
    }

    fn solve(&mut self, clock: &mut Clock<'_>, search: &mut SearchStats) -> Decision {
        if let Err(reason) = self.warm_start(clock, search) {
            return Decision::Stopped(reason);
        }
        for j in 0..self.jobs.len() {
            while self.jobs[j].got < self.jobs[j].wcet {
                match self.augment(j, clock) {
                    Ok(true) => search.decisions += 1,
                    Ok(false) => {
                        let mut cut: Vec<Time> =
                            self.queue.iter().map(|&t| Time::from(t)).collect();
                        cut.sort_unstable();
                        return Decision::Infeasible { cut };
                    }
                    Err(reason) => return Decision::Stopped(reason),
                }
            }
        }
        Decision::Feasible(self.schedule())
    }

    fn jobs_at(&self, t: usize) -> &[u32] {
        &self.active[self.first[t] as usize..self.first[t + 1] as usize]
    }

    /// Index of job `j`'s flow bit at instant `t` of its window.
    fn bit(&self, j: usize, t: usize) -> usize {
        let job = &self.jobs[j];
        let offset = if t >= job.release {
            t - job.release
        } else {
            t + self.h - job.release
        };
        job.bit + offset
    }

    fn runs(&self, j: usize, t: usize) -> bool {
        let b = self.bit(j, t);
        self.flow[b / 64] >> (b % 64) & 1 == 1
    }

    fn toggle(&mut self, j: usize, t: usize) {
        let b = self.bit(j, t);
        self.flow[b / 64] ^= 1 << (b % 64);
    }

    /// Greedy least-laxity-first pass over the instants: the `m`
    /// unfinished jobs with the fewest spare window instants run.
    fn warm_start(
        &mut self,
        clock: &mut Clock<'_>,
        search: &mut SearchStats,
    ) -> Result<(), StopReason> {
        let mut ready: Vec<(isize, u32)> = Vec::new();
        for t in 0..self.h {
            clock.tick()?;
            ready.clear();
            for &j in self.jobs_at(t) {
                let job = &self.jobs[j as usize];
                let rem = job.wcet - job.got;
                if rem > 0 {
                    ready.push((job.slots_from(t, self.h) as isize - rem as isize, j));
                }
            }
            if ready.len() > self.m {
                ready.select_nth_unstable(self.m);
                ready.truncate(self.m);
            }
            for &(_, j) in &ready {
                self.toggle(j as usize, t);
                self.jobs[j as usize].got += 1;
            }
            self.load[t] = ready.len() as u32;
            search.propagations += ready.len() as u64;
        }
        Ok(())
    }

    /// Breadth-first search for an augmenting path from job `j`, which is
    /// short of its `Ci`. On success the flow is moved along the path and
    /// `j` gains one unit; on failure `queue` holds every instant reached,
    /// each of them full.
    fn augment(&mut self, j: usize, clock: &mut Clock<'_>) -> Result<bool, StopReason> {
        self.epoch += 1;
        let epoch = self.epoch;
        self.queue.clear();
        self.seen_job[j] = epoch;
        if let Some(end) = self.expand(j, NONE) {
            self.shift(end);
            self.jobs[j].got += 1;
            return Ok(true);
        }
        let mut head = 0;
        while head < self.queue.len() {
            clock.tick()?;
            let t = self.queue[head] as usize;
            head += 1;
            for idx in self.first[t] as usize..self.first[t + 1] as usize {
                let k = self.active[idx] as usize;
                if self.seen_job[k] == epoch || !self.runs(k, t) {
                    continue;
                }
                self.seen_job[k] = epoch;
                if let Some(end) = self.expand(k, t as u32) {
                    self.shift(end);
                    self.jobs[j].got += 1;
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Enqueue every unseen instant of job `k`'s window where `k` does not
    /// run, reached from instant `from` (`NONE` for the search's root job).
    /// Returns the first such instant with a free processor.
    fn expand(&mut self, k: usize, from: u32) -> Option<usize> {
        let epoch = self.epoch;
        for t in window(&self.jobs[k], self.h) {
            if self.seen_instant[t] == epoch || self.runs(k, t) {
                continue;
            }
            self.seen_instant[t] = epoch;
            self.parent_instant[t] = from;
            self.parent_job[t] = k as u32;
            if (self.load[t] as usize) < self.m {
                return Some(t);
            }
            self.queue.push(t as u32);
        }
        None
    }

    /// Move the flow along the path ending at free instant `end`: each job
    /// on it starts running at the instant it reached and stops at the one
    /// it came from; only `end` gains a busy processor.
    fn shift(&mut self, end: usize) {
        self.load[end] += 1;
        let mut t = end;
        loop {
            let k = self.parent_job[t] as usize;
            self.toggle(k, t);
            let from = self.parent_instant[t];
            if from == NONE {
                break;
            }
            t = from as usize;
            self.toggle(k, t);
        }
    }

    /// The flow as a schedule: each instant's jobs on processors 0, 1, ….
    fn schedule(&self) -> Schedule {
        let mut grid = vec![None; self.m * self.h];
        for t in 0..self.h {
            let row = &mut grid[t * self.m..(t + 1) * self.m];
            let running = self
                .jobs_at(t)
                .iter()
                .filter(|&&j| self.runs(j as usize, t));
            for (slot, &j) in row.iter_mut().zip(running) {
                *slot = Some(self.jobs[j as usize].task);
            }
        }
        Schedule::from_grid(self.m, self.h as Time, grid)
    }
}

/// The mod-H instants of `job`'s window, in window order.
fn window(job: &Job, h: usize) -> impl Iterator<Item = usize> {
    (job.release..job.release + job.len).map(move |t| if t >= h { t - h } else { t })
}
