//! Task sets: validated collections of periodic tasks.

use serde::json::{ReadError, Reader};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::error::TaskError;
use crate::task::{Task, TaskId};
use crate::time::{checked_hyperperiod, Time};

/// A validated, non-empty collection of periodic tasks.
///
/// The task set owns no platform information; pair it with an
/// `rt-platform` platform to state a full MGRTS problem.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

/// Parsed through [`TaskSet::new`] (and each task through [`Task::new`]),
/// so a task set read from JSON is as valid as one built in code.
impl Deserialize for TaskSet {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        TaskSet::new(serde::__private::field(v, "tasks")?).map_err(|e| DeError::new(e.to_string()))
    }

    /// The same rules read straight from the tokenizer, each task through
    /// [`Task`]'s reader: a served request's task set is built without a
    /// tree.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, ReadError> {
        if !r.begin_object()? {
            return Err(ReadError::Invalid);
        }
        let mut tasks = None;
        while let Some(key) = r.next_key()? {
            if key == "tasks" && tasks.is_none() {
                tasks = Some(Vec::<Task>::read_json(r)?);
            } else {
                r.skip_value()?;
            }
        }
        TaskSet::new(tasks.ok_or(ReadError::Invalid)?).map_err(|_| ReadError::Invalid)
    }
}

impl TaskSet {
    /// Build a task set. Fails on an empty list (individual tasks are
    /// already validated by [`Task::new`]).
    pub fn new(tasks: Vec<Task>) -> Result<Self, TaskError> {
        if tasks.is_empty() {
            return Err(TaskError::EmptyTaskSet);
        }
        Ok(TaskSet { tasks })
    }

    /// Convenience constructor from `(O, C, D, T)` tuples; panics on invalid
    /// parameters (intended for tests and examples).
    #[must_use]
    pub fn from_ocdt(rows: &[(Time, Time, Time, Time)]) -> Self {
        Self::new(
            rows.iter()
                .map(|&(o, c, d, t)| Task::ocdt(o, c, d, t))
                .collect(),
        )
        .expect("non-empty rows")
    }

    /// The running example of the paper (Example 1): `m = 2`, three tasks,
    /// hyperperiod 12.
    #[must_use]
    pub fn running_example() -> Self {
        Self::from_ocdt(&[(0, 1, 2, 2), (1, 3, 4, 4), (0, 2, 2, 3)])
    }

    /// Number of tasks `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always false: task sets are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Borrow the tasks.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Borrow one task.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id]
    }

    /// Iterate over `(TaskId, &Task)`.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate()
    }

    /// Are all tasks constrained-deadline (`Di ≤ Ti`)?
    #[must_use]
    pub fn is_constrained(&self) -> bool {
        self.tasks.iter().all(Task::is_constrained)
    }

    /// Hyperperiod `H = lcm(T1..Tn)`.
    pub fn hyperperiod(&self) -> Result<Time, TaskError> {
        checked_hyperperiod(&self.tasks.iter().map(|t| t.period).collect::<Vec<_>>())
            .ok_or(TaskError::HyperperiodOverflow)
    }

    /// Utilization factor `U = Σ Ci/Ti` as an `f64` (reporting only).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Utilization ratio `r = U / m` (Section II), `f64` for reporting.
    #[must_use]
    pub fn utilization_ratio(&self, m: usize) -> f64 {
        self.utilization() / m as f64
    }

    /// Exact test `U > m` (the paper's `r > 1` pruning filter, Table II),
    /// computed in integer arithmetic over a common denominator so no
    /// floating-point edge case can misclassify an instance.
    #[must_use]
    pub fn utilization_exceeds(&self, m: usize) -> bool {
        // U > m  ⇔  Σ Ci·(L/Ti) > m·L with L = lcm(Ti); overflow-checked
        // via u128 (Ci·L/Ti ≤ Ci·L ≤ 2^64·2^64).
        let l = match self.hyperperiod() {
            Ok(l) => u128::from(l),
            // If the hyperperiod overflows u64 fall back to f64 (only
            // reachable for adversarial inputs, not the paper's workloads).
            Err(_) => return self.utilization() > m as f64,
        };
        let sum: u128 = self
            .tasks
            .iter()
            .map(|t| u128::from(t.wcet) * (l / u128::from(t.period)))
            .sum();
        sum > m as u128 * l
    }

    /// Minimum processor count that survives the `r ≤ 1` necessary
    /// condition: `mmin = ⌈Σ Ci/Ti⌉` (Section VII-E).
    #[must_use]
    pub fn min_processors(&self) -> usize {
        let Ok(l) = self.hyperperiod() else {
            return self.utilization().ceil().max(1.0) as usize;
        };
        let l = u128::from(l);
        let sum: u128 = self
            .tasks
            .iter()
            .map(|t| u128::from(t.wcet) * (l / u128::from(t.period)))
            .sum();
        // ceil(sum / l), at least 1.
        (sum.div_ceil(l)).max(1) as usize
    }

    /// Largest period `Tmax` (Section II).
    #[must_use]
    pub fn max_period(&self) -> Time {
        self.tasks.iter().map(|t| t.period).max().unwrap_or(0)
    }

    /// Total execution demand in one hyperperiod: `Σ Ci · H/Ti`.
    pub fn demand_per_hyperperiod(&self) -> Result<Time, TaskError> {
        let h = self.hyperperiod()?;
        let mut total: Time = 0;
        for t in &self.tasks {
            total = total
                .checked_add(t.wcet * (h / t.period))
                .ok_or(TaskError::HyperperiodOverflow)?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_task_sets_are_validated() {
        let parse = |json: &str| serde_json::from_str::<TaskSet>(json).map_err(|e| e.to_string());
        let ts = TaskSet::running_example();
        assert_eq!(parse(&serde_json::to_string(&ts).unwrap()), Ok(ts));
        let err = parse(r#"{"tasks":[]}"#).unwrap_err();
        assert!(err.contains(&TaskError::EmptyTaskSet.to_string()), "{err}");
        // An invalid row fails the whole set, naming the field it sits in.
        let err =
            parse(r#"{"tasks":[{"offset":0,"wcet":0,"deadline":1,"period":1}]}"#).unwrap_err();
        assert!(err.contains("field `tasks`"), "{err}");
        assert!(err.contains(&TaskError::ZeroWcet.to_string()), "{err}");
    }

    #[test]
    fn running_example_properties() {
        let ts = TaskSet::running_example();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.hyperperiod().unwrap(), 12);
        // U = 1/2 + 3/4 + 2/3 = 23/12 ≈ 1.9167
        assert!((ts.utilization() - 23.0 / 12.0).abs() < 1e-12);
        assert!(!ts.utilization_exceeds(2)); // 23/12 < 2
        assert!(ts.utilization_exceeds(1)); // 23/12 > 1
        assert_eq!(ts.min_processors(), 2);
        assert_eq!(ts.max_period(), 4);
        // demand per hyperperiod: 1·6 + 3·3 + 2·4 = 23
        assert_eq!(ts.demand_per_hyperperiod().unwrap(), 23);
    }

    #[test]
    fn exact_utilization_boundary() {
        // U = exactly 2 on m = 2: not "exceeds" (necessary condition holds).
        let ts = TaskSet::from_ocdt(&[(0, 1, 1, 1), (0, 1, 1, 1)]);
        assert!(!ts.utilization_exceeds(2));
        assert!(ts.utilization_exceeds(1));
        assert_eq!(ts.min_processors(), 2);
    }

    #[test]
    fn min_processors_rounds_up() {
        // U = 3/2 → mmin = 2.
        let ts = TaskSet::from_ocdt(&[(0, 3, 4, 4), (0, 3, 4, 4)]);
        assert_eq!(ts.min_processors(), 2);
        // U = 1/2 → mmin = 1 (never 0).
        let ts = TaskSet::from_ocdt(&[(0, 1, 2, 2)]);
        assert_eq!(ts.min_processors(), 1);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(TaskSet::new(vec![]), Err(TaskError::EmptyTaskSet));
    }

    #[test]
    fn constrained_detection() {
        assert!(TaskSet::running_example().is_constrained());
        let ts = TaskSet::new(vec![Task::new(0, 1, 6, 4).unwrap()]).unwrap();
        assert!(!ts.is_constrained());
    }

    #[test]
    fn serde_round_trip() {
        let ts = TaskSet::running_example();
        let s = serde_json::to_string(&ts).unwrap();
        let back: TaskSet = serde_json::from_str(&s).unwrap();
        assert_eq!(ts, back);
    }
}
