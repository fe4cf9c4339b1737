//! A single periodic task `τi = (Oi, Ci, Di, Ti)`.

use serde::json::{ReadError, Reader};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::error::TaskError;
use crate::time::Time;

/// Index of a task within a [`crate::TaskSet`] (0-based; the paper numbers
/// tasks from 1, we translate at display time only).
pub type TaskId = usize;

/// A periodic task, Section II of the paper.
///
/// A task releases job `k` (k = 1, 2, …) at time `Oi + (k-1)·Ti`; the job must
/// receive exactly `Ci` units of execution within the availability interval
/// `[Oi + (k-1)·Ti, Oi + (k-1)·Ti + Di)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Task {
    /// Offset `Oi`: release time of the first job.
    pub offset: Time,
    /// Worst-case execution time `Ci`.
    pub wcet: Time,
    /// Relative deadline `Di`.
    pub deadline: Time,
    /// Period `Ti`.
    pub period: Time,
}

/// Parsed through [`Task::new`], so a task read from JSON is as valid as
/// one built in code.
impl Deserialize for Task {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        use serde::__private::field;
        Task::new(
            field(v, "offset")?,
            field(v, "wcet")?,
            field(v, "deadline")?,
            field(v, "period")?,
        )
        .map_err(|e| DeError::new(e.to_string()))
    }

    /// The same rules read straight from the tokenizer: the first of
    /// duplicate members wins and unknown members are skipped, as
    /// [`Task::from_value`] finds its fields in the tree.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ReadError> {
        if !r.begin_object()? {
            return Err(ReadError::Invalid);
        }
        let mut fields: [Option<Time>; 4] = [None; 4];
        while let Some(key) = r.next_key()? {
            let slot = match &*key {
                "offset" => 0,
                "wcet" => 1,
                "deadline" => 2,
                "period" => 3,
                _ => {
                    r.skip_value()?;
                    continue;
                }
            };
            if fields[slot].is_some() {
                r.skip_value()?;
            } else {
                fields[slot] = Some(Time::read_json(r)?);
            }
        }
        let [Some(offset), Some(wcet), Some(deadline), Some(period)] = fields else {
            return Err(ReadError::Invalid);
        };
        Task::new(offset, wcet, deadline, period).map_err(|_| ReadError::Invalid)
    }
}

impl Task {
    /// Build a validated task. Requires `1 ≤ Ci ≤ Di` and `Ti ≥ 1`.
    ///
    /// Arbitrary deadlines (`Di > Ti`) are allowed here; constrained-deadline
    /// contexts check separately with [`Task::is_constrained`].
    pub fn new(offset: Time, wcet: Time, deadline: Time, period: Time) -> Result<Self, TaskError> {
        if wcet == 0 {
            return Err(TaskError::ZeroWcet);
        }
        if period == 0 {
            return Err(TaskError::ZeroPeriod);
        }
        if deadline == 0 {
            return Err(TaskError::ZeroDeadline);
        }
        if wcet > deadline {
            return Err(TaskError::WcetExceedsDeadline { wcet, deadline });
        }
        Ok(Task {
            offset,
            wcet,
            deadline,
            period,
        })
    }

    /// Shorthand used pervasively in tests: `(O, C, D, T)` order as in the
    /// paper. Panics on invalid parameters.
    #[must_use]
    pub fn ocdt(offset: Time, wcet: Time, deadline: Time, period: Time) -> Self {
        Self::new(offset, wcet, deadline, period).expect("invalid task parameters")
    }

    /// `Di ≤ Ti` — the constrained-deadline condition of Sections II–V.
    #[must_use]
    pub fn is_constrained(&self) -> bool {
        self.deadline <= self.period
    }

    /// `Di = Ti` — the implicit-deadline special case.
    #[must_use]
    pub fn is_implicit(&self) -> bool {
        self.deadline == self.period
    }

    /// Task utilization `Ci / Ti` as a rational numerator/denominator pair.
    #[must_use]
    pub fn utilization_ratio(&self) -> (Time, Time) {
        (self.wcet, self.period)
    }

    /// Task utilization `Ci / Ti` as an `f64` (for reporting only; exact
    /// comparisons use [`crate::TaskSet::utilization_exceeds`]).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.wcet as f64 / self.period as f64
    }

    /// Release time of job `k` (1-based, matching the paper): `Oi + (k-1)·Ti`.
    #[must_use]
    pub fn release(&self, k: u64) -> Time {
        debug_assert!(k >= 1, "jobs are 1-based");
        self.offset + (k - 1) * self.period
    }

    /// Absolute deadline of job `k`: `release(k) + Di`.
    #[must_use]
    pub fn absolute_deadline(&self, k: u64) -> Time {
        self.release(k) + self.deadline
    }

    /// Slack of the task: `Di - Ci`, the D-C quantity of the paper's value
    /// heuristic (Section V-C2).
    #[must_use]
    pub fn slack(&self) -> Time {
        self.deadline - self.wcet
    }

    /// `Ti - Ci`, the T-C quantity of the paper's value heuristic.
    ///
    /// For arbitrary-deadline tasks `Ci` may exceed `Ti`; saturates at 0.
    #[must_use]
    pub fn period_slack(&self) -> Time {
        self.period.saturating_sub(self.wcet)
    }
}

/// Fluent builder for [`Task`], mainly for examples and doc clarity.
///
/// ```
/// use rt_task::TaskBuilder;
/// let t = TaskBuilder::new().wcet(2).deadline(4).period(5).build().unwrap();
/// assert_eq!(t.offset, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskBuilder {
    offset: Time,
    wcet: Time,
    deadline: Option<Time>,
    period: Option<Time>,
}

impl TaskBuilder {
    /// Start a builder with offset 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the offset `Oi` (defaults to 0).
    #[must_use]
    pub fn offset(mut self, offset: Time) -> Self {
        self.offset = offset;
        self
    }

    /// Set the WCET `Ci`.
    #[must_use]
    pub fn wcet(mut self, wcet: Time) -> Self {
        self.wcet = wcet;
        self
    }

    /// Set the relative deadline `Di` (defaults to the period if unset).
    #[must_use]
    pub fn deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the period `Ti`.
    #[must_use]
    pub fn period(mut self, period: Time) -> Self {
        self.period = Some(period);
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<Task, TaskError> {
        let period = self.period.ok_or(TaskError::ZeroPeriod)?;
        let deadline = self.deadline.unwrap_or(period);
        Task::new(self.offset, self.wcet, deadline, period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_parameters() {
        assert_eq!(Task::new(0, 0, 1, 1), Err(TaskError::ZeroWcet));
        assert_eq!(Task::new(0, 1, 1, 0), Err(TaskError::ZeroPeriod));
        assert_eq!(Task::new(0, 1, 0, 1), Err(TaskError::ZeroDeadline));
        assert_eq!(
            Task::new(0, 3, 2, 5),
            Err(TaskError::WcetExceedsDeadline {
                wcet: 3,
                deadline: 2
            })
        );
    }

    #[test]
    fn json_tasks_are_validated() {
        let parse = |json: &str| serde_json::from_str::<Task>(json).map_err(|e| e.to_string());
        assert_eq!(
            parse(r#"{"offset":1,"wcet":3,"deadline":4,"period":4}"#),
            Ok(Task::ocdt(1, 3, 4, 4))
        );
        for (json, error) in [
            (
                r#"{"offset":0,"wcet":0,"deadline":1,"period":1}"#,
                TaskError::ZeroWcet,
            ),
            (
                r#"{"offset":0,"wcet":1,"deadline":1,"period":0}"#,
                TaskError::ZeroPeriod,
            ),
            (
                r#"{"offset":0,"wcet":1,"deadline":0,"period":1}"#,
                TaskError::ZeroDeadline,
            ),
            (
                r#"{"offset":0,"wcet":3,"deadline":2,"period":5}"#,
                TaskError::WcetExceedsDeadline {
                    wcet: 3,
                    deadline: 2,
                },
            ),
        ] {
            let err = parse(json).expect_err(json);
            assert!(err.contains(&error.to_string()), "{json}: {err}");
        }
    }

    #[test]
    fn accepts_running_example_tasks() {
        // Example 1: τ1=(0,1,2,2), τ2=(1,3,4,4), τ3=(0,2,2,3).
        let t1 = Task::ocdt(0, 1, 2, 2);
        let t2 = Task::ocdt(1, 3, 4, 4);
        let t3 = Task::ocdt(0, 2, 2, 3);
        assert!(t1.is_constrained() && t2.is_constrained() && t3.is_constrained());
        assert!(t1.is_implicit());
        assert!(!t3.is_implicit());
    }

    #[test]
    fn arbitrary_deadline_allowed() {
        let t = Task::new(0, 2, 7, 3).unwrap();
        assert!(!t.is_constrained());
        assert_eq!(t.slack(), 5);
        assert_eq!(t.period_slack(), 1);
    }

    #[test]
    fn releases_and_deadlines() {
        let t2 = Task::ocdt(1, 3, 4, 4);
        assert_eq!(t2.release(1), 1);
        assert_eq!(t2.release(2), 5);
        assert_eq!(t2.release(3), 9);
        assert_eq!(t2.absolute_deadline(3), 13);
    }

    #[test]
    fn heuristic_quantities() {
        let t = Task::ocdt(0, 2, 5, 8);
        assert_eq!(t.slack(), 3); // D - C
        assert_eq!(t.period_slack(), 6); // T - C
        assert_eq!(t.utilization_ratio(), (2, 8));
    }

    #[test]
    fn builder_defaults_deadline_to_period() {
        let t = TaskBuilder::new().wcet(1).period(4).build().unwrap();
        assert_eq!(t.deadline, 4);
        assert!(TaskBuilder::new().wcet(1).build().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let t = Task::ocdt(1, 3, 4, 4);
        let s = serde_json::to_string(&t).unwrap();
        let back: Task = serde_json::from_str(&s).unwrap();
        assert_eq!(t, back);
    }
}
