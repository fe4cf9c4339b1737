//! Independent feasibility checker for conditions C1–C4 (Section III-C).
//!
//! This module shares no code with any solver: it re-derives availability
//! from the task parameters and audits a [`Schedule`] directly, so a bug in
//! an encoder or search cannot hide behind itself. Every solver output in
//! this workspace is expected to pass [`check`], which picks
//! `check_identical` or `check_heterogeneous` (for rate matrices) from the
//! platform.

use rt_platform::Platform;
use rt_task::{JobInstants, TaskId, TaskSet, Time};

use crate::engine::PlatformSpec;
use crate::schedule::Schedule;

/// A violated feasibility condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The schedule's shape does not match the problem.
    ShapeMismatch {
        /// What was expected, human-readable.
        expected: String,
    },
    /// C1 violated: a task runs outside every availability interval.
    OutsideInterval {
        /// Offending task.
        task: TaskId,
        /// Offending instant.
        t: Time,
    },
    /// C3 violated: a task runs on two processors at one instant
    /// (intra-task parallelism is forbidden).
    Parallelism {
        /// Offending task.
        task: TaskId,
        /// Offending instant.
        t: Time,
    },
    /// C4 violated: a job does not receive exactly `Ci` units.
    WrongExecution {
        /// Offending task.
        task: TaskId,
        /// 0-based job index within the hyperperiod.
        job: u64,
        /// Units actually received.
        got: Time,
        /// Units required (`Ci`).
        want: Time,
    },
    /// A task id outside `0..n` appears in the schedule.
    UnknownTask {
        /// The bogus id.
        task: TaskId,
    },
    /// Heterogeneous only: a task is placed on a processor with rate 0.
    ForbiddenProcessor {
        /// Offending task.
        task: TaskId,
        /// Offending processor.
        proc: usize,
        /// Offending instant.
        t: Time,
    },
    /// The task set itself is invalid (empty / overflow / unconstrained).
    BadTaskSet(rt_task::TaskError),
    /// An infeasibility cut does not need more work than its instants
    /// offer.
    WeakCut {
        /// Units the jobs must run inside the cut.
        forced: u64,
        /// Processor slots the cut offers (`m·|S|`).
        capacity: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::ShapeMismatch { expected } => write!(f, "shape mismatch: {expected}"),
            VerifyError::OutsideInterval { task, t } => {
                write!(f, "C1 violated: task {task} runs at {t} outside its window")
            }
            VerifyError::Parallelism { task, t } => {
                write!(f, "C3 violated: task {task} runs on two processors at {t}")
            }
            VerifyError::WrongExecution {
                task,
                job,
                got,
                want,
            } => write!(
                f,
                "C4 violated: task {task} job {job} received {got} units, needs exactly {want}"
            ),
            VerifyError::UnknownTask { task } => write!(f, "unknown task id {task}"),
            VerifyError::ForbiddenProcessor { task, proc, t } => write!(
                f,
                "task {task} placed on forbidden processor {proc} at {t} (rate 0)"
            ),
            VerifyError::BadTaskSet(e) => write!(f, "invalid task set: {e}"),
            VerifyError::WeakCut { forced, capacity } => write!(
                f,
                "cut rejected: it forces {forced} units into {capacity} processor slots"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Check C1–C4 on the platform `spec` describes: the one verification
/// site every accepted `Feasible` verdict passes through.
pub fn check(ts: &TaskSet, spec: &PlatformSpec, s: &Schedule) -> Result<(), VerifyError> {
    match spec {
        PlatformSpec::Identical { m } => check_identical(ts, *m, s),
        PlatformSpec::Heterogeneous(p) => check_heterogeneous(ts, p, s),
    }
}

/// Check C1–C4 on an identical platform. C2 (one task per processor-instant)
/// holds structurally because [`Schedule`] stores one entry per slot.
pub fn check_identical(ts: &TaskSet, m: usize, s: &Schedule) -> Result<(), VerifyError> {
    let ji = JobInstants::new(ts).map_err(VerifyError::BadTaskSet)?;
    check_shape(ts, m, &ji, s)?;
    check_c1_c3(&ji, s)?;
    // C4: exactly Ci slots per job (unit rates).
    check_c4(ts, &ji, s, |_, _| 1)
}

/// Check an infeasibility certificate on `m` identical processors: a set
/// `S` of mod-H instants (`cut`; repeats count once) that must absorb more
/// work than it has processor slots. Job `j` runs `Cj` units inside its
/// window `Wj`, so at least `max(0, Cj − |Wj \ S|)` of them fall in `S`;
/// the cut is accepted iff `Σj max(0, Cj − |Wj \ S|) > m·|S|`, which
/// proves that no schedule exists. Instants outside `[0, H)` are a
/// [`VerifyError::ShapeMismatch`].
pub fn check_cut(ts: &TaskSet, m: usize, cut: &[Time]) -> Result<(), VerifyError> {
    let ji = JobInstants::new(ts).map_err(VerifyError::BadTaskSet)?;
    let h = ji.hyperperiod();
    let mut in_cut = vec![false; h as usize];
    for &t in cut {
        if t >= h {
            return Err(VerifyError::ShapeMismatch {
                expected: format!("cut instants below the hyperperiod {h}, got {t}"),
            });
        }
        in_cut[t as usize] = true;
    }
    let size = in_cut.iter().filter(|&&inside| inside).count() as u64;
    let mut forced: u64 = 0;
    for (i, task) in ts.iter() {
        for k in 0..ji.jobs_of(i) {
            let outside = ji
                .instants_mod(rt_task::JobId { task: i, k })
                .into_iter()
                .filter(|&t| !in_cut[t as usize])
                .count() as Time;
            forced = forced.saturating_add(task.wcet.saturating_sub(outside));
        }
    }
    let capacity = (m as u64).saturating_mul(size);
    if forced > capacity {
        Ok(())
    } else {
        Err(VerifyError::WeakCut { forced, capacity })
    }
}

/// Check the heterogeneous variant: C1–C3 as before; C4 becomes
/// `Σ si,j over assigned slots = Ci` (constraint (11)/(12)), and rate-0
/// placements are rejected.
pub fn check_heterogeneous(
    ts: &TaskSet,
    platform: &Platform,
    s: &Schedule,
) -> Result<(), VerifyError> {
    let ji = JobInstants::new(ts).map_err(VerifyError::BadTaskSet)?;
    check_shape(ts, platform.num_processors(), &ji, s)?;
    if platform.num_tasks() != ts.len() {
        return Err(VerifyError::ShapeMismatch {
            expected: format!(
                "rate matrix with {} rows, got {}",
                ts.len(),
                platform.num_tasks()
            ),
        });
    }
    check_c1_c3(&ji, s)?;
    for t in 0..ji.hyperperiod() {
        for (j, entry) in s.row(t).into_iter().enumerate() {
            if let Some(i) = entry {
                if !platform.can_run(i, j) {
                    return Err(VerifyError::ForbiddenProcessor {
                        task: i,
                        proc: j,
                        t,
                    });
                }
            }
        }
    }
    check_c4(ts, &ji, s, |i, j| platform.rate(i, j))
}

fn check_shape(ts: &TaskSet, m: usize, ji: &JobInstants, s: &Schedule) -> Result<(), VerifyError> {
    if s.num_processors() != m || s.horizon() != ji.hyperperiod() {
        return Err(VerifyError::ShapeMismatch {
            expected: format!(
                "{m} processors × horizon {}, got {} × {}",
                ji.hyperperiod(),
                s.num_processors(),
                s.horizon()
            ),
        });
    }
    for (_, t_abs, task) in s.busy_iter() {
        let _ = t_abs;
        if task >= ts.len() {
            return Err(VerifyError::UnknownTask { task });
        }
    }
    Ok(())
}

/// C1 (inside an availability interval) and C3 (no intra-task parallelism).
/// Violations are reported for the earliest instant and, within it, the
/// lowest task id; C3 before C1 for one task.
fn check_c1_c3(ji: &JobInstants, s: &Schedule) -> Result<(), VerifyError> {
    let mut running: Vec<TaskId> = Vec::with_capacity(s.num_processors());
    for t in 0..ji.hyperperiod() {
        running.clear();
        running.extend((0..s.num_processors()).filter_map(|j| s.at(j, t)));
        running.sort_unstable();
        for (idx, &i) in running.iter().enumerate() {
            if idx > 0 && running[idx - 1] == i {
                continue;
            }
            if running.get(idx + 1) == Some(&i) {
                return Err(VerifyError::Parallelism { task: i, t });
            }
            if ji.job_at(i, t).is_none() {
                return Err(VerifyError::OutsideInterval { task: i, t });
            }
        }
    }
    Ok(())
}

/// C4: every job receives exactly `Ci` units, where a slot of task `i` on
/// processor `j` completes `rate(i, j)` of them. Needs C1 (every busy slot
/// lies in some job's window). Reports the first job in (task, job) order.
fn check_c4(
    ts: &TaskSet,
    ji: &JobInstants,
    s: &Schedule,
    rate: impl Fn(TaskId, usize) -> Time,
) -> Result<(), VerifyError> {
    let mut first_job = Vec::with_capacity(ts.len());
    let mut jobs = 0;
    for i in 0..ts.len() {
        first_job.push(jobs);
        jobs += ji.jobs_of(i) as usize;
    }
    let mut got: Vec<Time> = vec![0; jobs];
    for (j, t, i) in s.busy_iter() {
        let job = ji.job_at(i, t).expect("C1 holds");
        got[first_job[i] + job.k as usize] += rate(i, j);
    }
    for (i, task) in ts.iter() {
        for k in 0..ji.jobs_of(i) {
            let got = got[first_job[i] + k as usize];
            if got != task.wcet {
                return Err(VerifyError::WrongExecution {
                    task: i,
                    job: k,
                    got,
                    want: task.wcet,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_task::Task;

    /// A hand-made feasible schedule for the running example
    /// (m = 2, H = 12), checked on paper:
    ///
    /// ```text
    /// t   0   1   2   3   4   5   6   7   8   9  10  11
    /// P0  τ1  τ3  τ1  τ3  τ1  τ2  τ1  τ3  τ1  τ3  τ3  τ1
    /// P1  τ3  τ2  τ2  τ2  τ3  --  τ3  τ2  τ2  τ2  τ2  τ2
    /// ```
    ///
    /// τ1 gets 1 unit in every `[2k, 2k+2)`, τ3 gets 2 in every
    /// `[3k, 3k+2)`, τ2 gets 3 in `[1,5)`, `[5,9)` and the wrapped
    /// `[9,13)` (instants 9, 10, 11).
    fn feasible_example_schedule() -> Schedule {
        const P0: [usize; 12] = [0, 2, 0, 2, 0, 1, 0, 2, 0, 2, 2, 0];
        let mut s = Schedule::idle(2, 12);
        for (t, &task) in P0.iter().enumerate() {
            s.set(0, t as Time, Some(task));
        }
        const IDLE: usize = usize::MAX;
        const P1: [usize; 12] = [2, 1, 1, 1, 2, IDLE, 2, 1, 1, 1, 1, 1];
        for (t, &task) in P1.iter().enumerate() {
            if task != IDLE {
                s.set(1, t as Time, Some(task));
            }
        }
        s
    }

    #[test]
    fn accepts_feasible_schedule() {
        let ts = TaskSet::running_example();
        let s = feasible_example_schedule();
        check_identical(&ts, 2, &s).unwrap();
    }

    #[test]
    fn detects_missing_execution() {
        let ts = TaskSet::running_example();
        let mut s = feasible_example_schedule();
        // Steal one unit of τ1's job at t = 4.
        s.set(0, 4, None);
        match check_identical(&ts, 2, &s) {
            Err(VerifyError::WrongExecution {
                task: 0,
                got: 0,
                want: 1,
                ..
            }) => {}
            other => panic!("expected WrongExecution, got {other:?}"),
        }
    }

    #[test]
    fn detects_over_execution() {
        let ts = TaskSet::running_example();
        let mut s = feasible_example_schedule();
        // The only idle slot is (P1, t=5), inside τ1's window [4,6): giving
        // τ1 a second unit there over-executes its third job.
        assert_eq!(s.at(1, 5), None);
        s.set(1, 5, Some(0));
        match check_identical(&ts, 2, &s) {
            Err(VerifyError::WrongExecution {
                task: 0,
                got: 2,
                want: 1,
                ..
            }) => {}
            other => panic!("expected WrongExecution, got {other:?}"),
        }
    }

    #[test]
    fn detects_parallelism() {
        let ts = TaskSet::running_example();
        let mut s = feasible_example_schedule();
        // Run τ2 on both processors at t = 3 (legal window, illegal C3)
        // after clearing its other service to keep C4 from masking it.
        let t = 3;
        s.set(0, t, Some(1));
        s.set(1, t, Some(1));
        match check_identical(&ts, 2, &s) {
            Err(VerifyError::Parallelism { task: 1, t: 3 }) => {}
            other => panic!("expected Parallelism, got {other:?}"),
        }
    }

    #[test]
    fn detects_out_of_window_execution() {
        // τ3 = (0,2,2,3) is unavailable at t = 2.
        let ts = TaskSet::running_example();
        let mut s = Schedule::idle(2, 12);
        s.set(0, 2, Some(2));
        match check_identical(&ts, 2, &s) {
            Err(VerifyError::OutsideInterval { task: 2, t: 2 }) => {}
            other => panic!("expected OutsideInterval, got {other:?}"),
        }
    }

    #[test]
    fn detects_unknown_task_and_shape() {
        let ts = TaskSet::running_example();
        let mut s = Schedule::idle(2, 12);
        s.set(0, 0, Some(9));
        assert!(matches!(
            check_identical(&ts, 2, &s),
            Err(VerifyError::UnknownTask { task: 9 })
        ));
        let s = Schedule::idle(3, 12);
        assert!(matches!(
            check_identical(&ts, 2, &s),
            Err(VerifyError::ShapeMismatch { .. })
        ));
        let s = Schedule::idle(2, 6);
        assert!(matches!(
            check_identical(&ts, 2, &s),
            Err(VerifyError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn heterogeneous_rate_weighting() {
        // One task (C=2, D=2, T=2), one fast processor (rate 2): a single
        // slot per window suffices.
        let ts = TaskSet::new(vec![Task::ocdt(0, 2, 2, 2)]).unwrap();
        let platform = Platform::heterogeneous(vec![vec![2]]).unwrap();
        let mut s = Schedule::idle(1, 2);
        s.set(0, 0, Some(0));
        check_heterogeneous(&ts, &platform, &s).unwrap();
        // Two slots would over-execute (4 > 2).
        s.set(0, 1, Some(0));
        assert!(matches!(
            check_heterogeneous(&ts, &platform, &s),
            Err(VerifyError::WrongExecution {
                got: 4,
                want: 2,
                ..
            })
        ));
    }

    #[test]
    fn heterogeneous_forbidden_processor() {
        let ts = TaskSet::new(vec![Task::ocdt(0, 1, 2, 2), Task::ocdt(0, 1, 2, 2)]).unwrap();
        // Task 0 cannot run on P1.
        let platform = Platform::heterogeneous(vec![vec![1, 0], vec![1, 1]]).unwrap();
        let mut s = Schedule::idle(2, 2);
        s.set(1, 0, Some(0));
        s.set(0, 0, Some(1));
        assert!(matches!(
            check_heterogeneous(&ts, &platform, &s),
            Err(VerifyError::ForbiddenProcessor {
                task: 0,
                proc: 1,
                t: 0
            })
        ));
    }

    #[test]
    fn cut_check_accepts_a_real_cut_and_rejects_its_neighbours() {
        // Three unit jobs share instant 0 of H = 2 on two processors: {0}
        // forces 3 units into 2 slots.
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 2)]);
        check_cut(&ts, 2, &[0]).unwrap();
        // Adding instant 1 adds two slots and no forced work; removing 0
        // leaves nothing forced.
        assert_eq!(
            check_cut(&ts, 2, &[0, 1]),
            Err(VerifyError::WeakCut {
                forced: 3,
                capacity: 4
            })
        );
        assert_eq!(
            check_cut(&ts, 2, &[]),
            Err(VerifyError::WeakCut {
                forced: 0,
                capacity: 0
            })
        );
        // The same jobs fit on three processors.
        assert!(check_cut(&ts, 3, &[0]).is_err());
        assert!(matches!(
            check_cut(&ts, 2, &[2]),
            Err(VerifyError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn cut_check_counts_wrapped_windows() {
        // τ0 = (2, 2, 2, 3) wraps to instants {2, 0}; τ1 = (0, 2, 2, 3)
        // needs {0, 1}. On one processor, {0} forces 1 unit of each (their
        // windows keep one instant outside): 2 > 1. {1} forces only τ1's
        // 1, and {1, 2} forces 2 into 2 slots.
        let ts = TaskSet::from_ocdt(&[(2, 2, 2, 3), (0, 2, 2, 3)]);
        check_cut(&ts, 1, &[0]).unwrap();
        check_cut(&ts, 1, &[0, 1, 2]).unwrap();
        assert!(check_cut(&ts, 1, &[1]).is_err());
        assert!(check_cut(&ts, 1, &[1, 2]).is_err());
    }

    #[test]
    fn error_display() {
        let e = VerifyError::WrongExecution {
            task: 1,
            job: 2,
            got: 3,
            want: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("C4") && msg.contains('3') && msg.contains('4'));
    }
}
