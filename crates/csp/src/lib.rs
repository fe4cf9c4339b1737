#![warn(missing_docs)]
//! # csp-engine — a generic finite-domain constraint satisfaction solver
//!
//! This crate is the stand-in for the generic CSP solver (Choco) used by the
//! paper for its first encoding. It is a classical systematic solver in the
//! sense of Section III-B:
//!
//! * finite integer domains stored as bitsets with trail-based backtracking
//!   ([`store::Store`]), which also hosts trailed *state cells* and the
//!   unfixed-variable sparse set the incremental machinery relies on;
//! * **incremental** constraint propagation to fixpoint through an
//!   event-filtered watcher queue: each posted [`constraints::Constraint`]
//!   (linear (in)equalities, boolean cardinality, occurrence counting,
//!   pairwise difference, ordering) is compiled into a
//!   [`propagators::Propagator`] that subscribes to the event kinds
//!   ([`store::EventMask`]) it can react to and keeps running sums /
//!   counters in trailed cells, updated by per-variable deltas instead of
//!   rescanning its scope on every wake (the pre-incremental engine is
//!   retained as [`reference::RefSolver`] for differential testing);
//! * **domain-consistent global constraints**: `AllDifferent` /
//!   `AllDifferentExcept` filter with Régin's algorithm — an incrementally
//!   repaired maximum matching in trailed cells ([`matching::Matching`])
//!   plus Tarjan SCC filtering of the residual value graph ([`graph::Scc`])
//!   — while `Table` / `Element` use residual supports and `Or` two watched
//!   literals with trailed entailment;
//! * depth-first search with pluggable variable/value ordering heuristics,
//!   seeded randomization and geometric restarts ([`solver::Solver`]), so the
//!   randomized behaviour the paper observed with Choco ("multiple executions
//!   … may return different outcomes", Section VII-B) is reproducible here
//!   under an explicit seed; no heuristic rescans fixed variables, and
//!   dom/wdeg weights are cached per variable;
//! * node / failure / wall-clock budgets with a three-way verdict
//!   ([`solver::Outcome`]): `Sat`, `Unsat` (search space exhausted), or
//!   `Unknown` (budget exceeded — the paper's "overrun").
//!
//! The engine is problem-agnostic and tested on classic CSPs independently of
//! the scheduling encodings built on top of it in `mgrts-core`.
//!
//! ## Example
//!
//! ```
//! use csp_engine::{Model, Constraint, SolverConfig, Outcome};
//!
//! // x + y = 5, x ≠ y, x,y ∈ [0,4]
//! let mut m = Model::new();
//! let x = m.new_var(0, 4);
//! let y = m.new_var(0, 4);
//! m.post(Constraint::linear_eq(vec![x, y], vec![1, 1], 5));
//! m.post(Constraint::NotEqual { a: x, b: y });
//! let mut solver = m.into_solver(SolverConfig::default());
//! match solver.solve() {
//!     Outcome::Sat(sol) => {
//!         assert_eq!(sol[x] + sol[y], 5);
//!         assert_ne!(sol[x], sol[y]);
//!     }
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! ```

pub mod constraints;
pub mod graph;
pub mod matching;
pub mod model;
pub mod nogood;
pub mod propagators;
pub mod reference;
pub mod solver;
pub mod store;

pub use constraints::{Constraint, Watched};
pub use model::Model;
pub use nogood::{Nogood, Pred, PredOp};
pub use propagators::{PropKind, Propagator};
pub use solver::{
    Budget, LearnConfig, LimitReason, Outcome, RestartSchedule, Solver, SolverConfig, ValOrder,
    VarOrder,
};
pub use store::{EventMask, StateId, Store, VarId};
