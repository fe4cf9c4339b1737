//! Availability intervals and the mod-H instant machinery.
//!
//! For a constrained-deadline task `τi`, job `k` (0-based here) is available
//! during `[Oi + k·Ti, Oi + k·Ti + Di)`. Because the schedule we search for is
//! periodic with period `H = lcm(Ti)` (Theorem 1 of the paper), both CSP
//! encodings work with time instants *modulo H*. An interval may straddle the
//! hyperperiod boundary (e.g. τ2 = (1,3,4,4) of the running example, whose
//! third interval is `[9, 13)` with `H = 12`, wrapping to instant 0); in that
//! case the job occupies mod-H instants `{9, 10, 11, 0}`.
//!
//! For `Di ≤ Ti` the mod-H instant sets of a task's jobs are pairwise
//! disjoint, so every instant `t ∈ [0, H)` belongs to at most one job of each
//! task and membership can be decided with O(1) arithmetic — no per-instant
//! tables, which matters because the paper's scaling experiment (Table IV)
//! reaches `H = 360 360` and `n = 256`.

use serde::{Deserialize, Serialize};

use crate::task::TaskId;
use crate::taskset::TaskSet;
use crate::time::Time;
use crate::TaskError;

/// Identifies one job in the hyperperiod: task index plus 0-based job index
/// `k ∈ [0, H/Ti)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId {
    /// Task index in the task set.
    pub task: TaskId,
    /// 0-based job index within one hyperperiod.
    pub k: u64,
}

/// One availability interval `Ii,k = [release, release + Di)` in *absolute*
/// (non-wrapped) time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AvailabilityInterval {
    /// The job this interval belongs to.
    pub job: JobId,
    /// Release instant `Oi + k·Ti`.
    pub release: Time,
    /// Exclusive end `release + Di` (the paper writes the inclusive form
    /// `[…, release + Di - 1]`).
    pub end: Time,
}

impl AvailabilityInterval {
    /// Number of instants in the interval (= `Di`).
    #[must_use]
    pub fn len(&self) -> Time {
        self.end - self.release
    }

    /// Whether the interval is empty (never true for validated tasks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end == self.release
    }

    /// Does absolute instant `t` fall inside the interval?
    #[must_use]
    pub fn contains(&self, t: Time) -> bool {
        self.release <= t && t < self.end
    }
}

/// Per-task geometry used for O(1) mod-H queries.
#[derive(Debug, Clone, Copy)]
struct TaskGeometry {
    /// Offset normalized into `[0, Ti)`; the mod-H release set is invariant
    /// under this normalization.
    offset: Time,
    wcet: Time,
    deadline: Time,
    period: Time,
    /// Jobs per hyperperiod: `H / Ti`.
    jobs: u64,
}

/// Precomputed mod-H availability structure for a constrained-deadline task
/// set. Built once per problem; all queries are O(1).
#[derive(Debug, Clone)]
pub struct JobInstants {
    hyperperiod: Time,
    geo: Vec<TaskGeometry>,
}

impl JobInstants {
    /// Build the structure. Fails if the set is empty, any task violates
    /// `Di ≤ Ti`, or the hyperperiod overflows.
    pub fn new(ts: &TaskSet) -> Result<Self, TaskError> {
        let h = ts.hyperperiod()?;
        let mut geo = Vec::with_capacity(ts.len());
        for task in ts.tasks() {
            if !task.is_constrained() {
                return Err(TaskError::DeadlineExceedsPeriod {
                    deadline: task.deadline,
                    period: task.period,
                });
            }
            geo.push(TaskGeometry {
                offset: task.offset % task.period,
                wcet: task.wcet,
                deadline: task.deadline,
                period: task.period,
                jobs: h / task.period,
            });
        }
        Ok(JobInstants {
            hyperperiod: h,
            geo,
        })
    }

    /// The hyperperiod `H`.
    #[must_use]
    pub fn hyperperiod(&self) -> Time {
        self.hyperperiod
    }

    /// Number of tasks.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.geo.len()
    }

    /// Number of jobs of task `i` in one hyperperiod (`H / Ti`).
    #[must_use]
    pub fn jobs_of(&self, task: TaskId) -> u64 {
        self.geo[task].jobs
    }

    /// Total number of jobs across all tasks in one hyperperiod.
    #[must_use]
    pub fn total_jobs(&self) -> u64 {
        self.geo.iter().map(|g| g.jobs).sum()
    }

    /// WCET of task `i` (the per-interval execution requirement).
    #[must_use]
    pub fn wcet(&self, task: TaskId) -> Time {
        self.geo[task].wcet
    }

    /// Which job of task `i` (if any) is available at mod-H instant `t`.
    ///
    /// O(1): with normalized offset `O < T`, job `k` covers the *unwrapped*
    /// phase window `[k·T, k·T + D)` where the phase is `(t - O) mod H`.
    #[must_use]
    pub fn job_at(&self, task: TaskId, t: Time) -> Option<JobId> {
        let g = &self.geo[task];
        debug_assert!(t < self.hyperperiod);
        let phase = (t + self.hyperperiod - g.offset) % self.hyperperiod;
        let k = phase / g.period;
        if phase - k * g.period < g.deadline {
            Some(JobId { task, k })
        } else {
            None
        }
    }

    /// Mod-H release instant of job `(task, k)`.
    #[must_use]
    pub fn release_mod(&self, job: JobId) -> Time {
        let g = &self.geo[job.task];
        debug_assert!(job.k < g.jobs);
        // With O < T and k < H/T: O + k·T < H, no reduction needed.
        g.offset + job.k * g.period
    }

    /// Number of instants of `job` whose mod-H value is ≥ `t` — i.e. how many
    /// decision slots remain for this job when a chronological search sits at
    /// instant `t`. The wrapped head of a boundary-straddling job lies at
    /// *small* mod values and is decided *before* its tail, which this
    /// accounting captures exactly.
    #[must_use]
    pub fn slots_at_or_after(&self, job: JobId, t: Time) -> Time {
        let g = &self.geo[job.task];
        let release = self.release_mod(job);
        let end = release + g.deadline; // absolute, may exceed H
        if end <= self.hyperperiod {
            // No wrap: instants are [release, end).
            if t >= end {
                0
            } else if t <= release {
                g.deadline
            } else {
                end - t
            }
        } else {
            // Wraps: head [0, end - H), tail [release, H).
            let head_end = end - self.hyperperiod;
            let tail_len = self.hyperperiod - release;
            if t < head_end {
                (head_end - t) + tail_len
            } else if t < release {
                tail_len
            } else {
                self.hyperperiod - t
            }
        }
    }

    /// All mod-H instants of `job`, in increasing mod order (head of a
    /// wrapped job first). Mainly for encoders and verification; the search
    /// hot path uses [`Self::job_at`] / [`Self::slots_at_or_after`].
    #[must_use]
    pub fn instants_mod(&self, job: JobId) -> Vec<Time> {
        self.instants_mod_iter(job).collect()
    }

    /// [`Self::instants_mod`] without the allocation: the same instants in
    /// the same order.
    pub fn instants_mod_iter(&self, job: JobId) -> impl Iterator<Item = Time> {
        let g = &self.geo[job.task];
        let release = self.release_mod(job);
        let end = release + g.deadline;
        let (head, tail) = if end <= self.hyperperiod {
            (0..0, release..end)
        } else {
            (0..end - self.hyperperiod, release..self.hyperperiod)
        };
        head.chain(tail)
    }

    /// Absolute-time availability intervals of task `i` in one hyperperiod
    /// (for display and verification).
    #[must_use]
    pub fn intervals_of(&self, task: TaskId) -> Vec<AvailabilityInterval> {
        let g = &self.geo[task];
        (0..g.jobs)
            .map(|k| {
                let release = g.offset + k * g.period;
                AvailabilityInterval {
                    job: JobId { task, k },
                    release,
                    end: release + g.deadline,
                }
            })
            .collect()
    }

    /// All intervals of all tasks, ordered by (task, k).
    #[must_use]
    pub fn all_intervals(&self) -> Vec<AvailabilityInterval> {
        (0..self.geo.len())
            .flat_map(|i| self.intervals_of(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

    fn running_example() -> TaskSet {
        TaskSet::new(vec![
            Task::ocdt(0, 1, 2, 2),
            Task::ocdt(1, 3, 4, 4),
            Task::ocdt(0, 2, 2, 3),
        ])
        .unwrap()
    }

    #[test]
    fn hyperperiod_and_job_counts() {
        let ji = JobInstants::new(&running_example()).unwrap();
        assert_eq!(ji.hyperperiod(), 12);
        assert_eq!(ji.jobs_of(0), 6);
        assert_eq!(ji.jobs_of(1), 3);
        assert_eq!(ji.jobs_of(2), 4);
        assert_eq!(ji.total_jobs(), 13);
    }

    #[test]
    fn job_at_matches_figure_1() {
        let ji = JobInstants::new(&running_example()).unwrap();
        // τ1 = (0,1,2,2): available at every instant (D = T = 2).
        for t in 0..12 {
            assert!(ji.job_at(0, t).is_some(), "τ1 should cover t={t}");
        }
        // τ2 = (1,3,4,4): intervals [1,5), [5,9), [9,13)→wraps to 0.
        assert!(ji.job_at(1, 0).is_some(), "wrapped head of third interval");
        assert_eq!(ji.job_at(1, 0).unwrap().k, 2);
        assert!(ji.job_at(1, 1).is_some());
        assert_eq!(ji.job_at(1, 1).unwrap().k, 0);
        assert!(ji.job_at(1, 4).is_some());
        assert!(ji.job_at(1, 9).is_some());
        assert_eq!(ji.job_at(1, 9).unwrap().k, 2);
        // τ3 = (0,2,2,3): available at 0,1, 3,4, 6,7, 9,10; not at 2,5,8,11.
        for t in [0u64, 1, 3, 4, 6, 7, 9, 10] {
            assert!(ji.job_at(2, t).is_some(), "τ3 should cover t={t}");
        }
        for t in [2u64, 5, 8, 11] {
            assert!(ji.job_at(2, t).is_none(), "τ3 should not cover t={t}");
        }
    }

    #[test]
    fn wrapped_instants_mod() {
        let ji = JobInstants::new(&running_example()).unwrap();
        // Third job of τ2: interval [9,13) → mod-H instants {0, 9, 10, 11}.
        let job = JobId { task: 1, k: 2 };
        assert_eq!(ji.instants_mod(job), vec![0, 9, 10, 11]);
        assert_eq!(ji.release_mod(job), 9);
    }

    #[test]
    fn slots_at_or_after_no_wrap() {
        let ji = JobInstants::new(&running_example()).unwrap();
        let job = JobId { task: 1, k: 0 }; // interval [1,5)
        assert_eq!(ji.slots_at_or_after(job, 0), 4);
        assert_eq!(ji.slots_at_or_after(job, 1), 4);
        assert_eq!(ji.slots_at_or_after(job, 3), 2);
        assert_eq!(ji.slots_at_or_after(job, 4), 1);
        assert_eq!(ji.slots_at_or_after(job, 5), 0);
        assert_eq!(ji.slots_at_or_after(job, 11), 0);
    }

    #[test]
    fn slots_at_or_after_wrap() {
        let ji = JobInstants::new(&running_example()).unwrap();
        let job = JobId { task: 1, k: 2 }; // mod instants {0, 9, 10, 11}
        assert_eq!(ji.slots_at_or_after(job, 0), 4);
        assert_eq!(ji.slots_at_or_after(job, 1), 3);
        assert_eq!(ji.slots_at_or_after(job, 8), 3);
        assert_eq!(ji.slots_at_or_after(job, 9), 3);
        assert_eq!(ji.slots_at_or_after(job, 11), 1);
    }

    #[test]
    fn slots_agree_with_instants_everywhere() {
        let ji = JobInstants::new(&running_example()).unwrap();
        for task in 0..3 {
            for k in 0..ji.jobs_of(task) {
                let job = JobId { task, k };
                let inst = ji.instants_mod(job);
                for t in 0..12 {
                    let expect = inst.iter().filter(|&&x| x >= t).count() as Time;
                    assert_eq!(
                        ji.slots_at_or_after(job, t),
                        expect,
                        "task {task} job {k} t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn job_at_agrees_with_instants() {
        let ji = JobInstants::new(&running_example()).unwrap();
        for task in 0..3 {
            let mut owner = [None; 12];
            for k in 0..ji.jobs_of(task) {
                for t in ji.instants_mod(JobId { task, k }) {
                    assert!(owner[t as usize].is_none(), "overlap at {t}");
                    owner[t as usize] = Some(k);
                }
            }
            for t in 0..12u64 {
                assert_eq!(ji.job_at(task, t).map(|j| j.k), owner[t as usize]);
            }
        }
    }

    #[test]
    fn rejects_arbitrary_deadline() {
        let ts = TaskSet::new(vec![Task::new(0, 1, 5, 3).unwrap()]).unwrap();
        assert!(matches!(
            JobInstants::new(&ts),
            Err(TaskError::DeadlineExceedsPeriod { .. })
        ));
    }

    #[test]
    fn offset_normalization_preserves_mod_structure() {
        // O = 7, T = 4 behaves like O = 3 mod H.
        let a = TaskSet::new(vec![Task::ocdt(7, 2, 3, 4)]).unwrap();
        let b = TaskSet::new(vec![Task::ocdt(3, 2, 3, 4)]).unwrap();
        let ja = JobInstants::new(&a).unwrap();
        let jb = JobInstants::new(&b).unwrap();
        for t in 0..4 {
            assert_eq!(ja.job_at(0, t).is_some(), jb.job_at(0, t).is_some());
        }
    }

    #[test]
    fn interval_contains() {
        let iv = AvailabilityInterval {
            job: JobId { task: 0, k: 0 },
            release: 3,
            end: 7,
        };
        assert_eq!(iv.len(), 4);
        assert!(!iv.is_empty());
        assert!(!iv.contains(2));
        assert!(iv.contains(3));
        assert!(iv.contains(6));
        assert!(!iv.contains(7));
    }
}
