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
//!   pairwise difference, ordering) is compiled into a propagator (see
//!   [`propagators`]) that subscribes to the event kinds
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
//! ## Construction and buffer reuse
//!
//! A Table I model posts thousands of constraints (about 3 100 for CSP2
//! and 7 000 for CSP1), and a solve under a decision budget searches for
//! about a millisecond, so building and dropping the solver must not cost
//! per constraint. [`Model::into_solver`] therefore makes no heap
//! allocation per constraint, and dropping the [`Solver`] frees nothing
//! but the model's own constraints:
//!
//! * **flat**: each propagator is a small `Copy` value in one vector. It
//!   reads its scope, coefficients and constants from the posted
//!   [`Constraint`], which the solver keeps anyway to check every
//!   solution, so each scope is stored once. Its per-position trailed
//!   cells are one consecutive block of store cells. Derived tables
//!   (position indexes of scopes that are not one contiguous run,
//!   deduplicated all-different scopes, element and table supports and
//!   residues) are slices of a few shared vectors, and run-time scratch
//!   (the GAC residual graph and matching search, domain snapshots) is
//!   one set per solver. The watch lists, the per-propagator pending
//!   lists, stale flags, queue flags and weights are flat vectors too;
//! * **recycled**: a dropped solver parks every one of those vectors, and
//!   the store's (domains, stamps, trail, state cells, unfixed set,
//!   implication log), in a slot of the current thread. The next
//!   `into_solver` on that thread takes them back, empties or refills each
//!   one, sizes them from the model and builds in place, so a thread that
//!   solves one model after another allocates only when a model outgrows
//!   every earlier one. Only learned nogoods, which search creates, keep
//!   their own predicate lists;
//! * **capped**: a slot keeps one set of at most
//!   [`mgrts_obs::recycle::MAX_RECYCLED_BYTES`] (32 MiB) of capacity,
//!   shared with `rt_sat`'s slots; a larger set is freed on drop. The
//!   largest Table I solver set (CSP1 over 21 000 variables at H = 420)
//!   takes about 9 MB;
//! * **thread-local**: engines are shared across the portfolio's and the
//!   campaign's worker threads, so a per-thread slot needs no lock, never
//!   hands one thread's buffers to another mid-solve, and is freed when
//!   its thread exits.
//!
//! Recycling changes no search: every buffer is emptied or refilled on
//! construction, which the recycling tests check by solving a sequence of
//! models on one thread and each on a fresh one.
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
pub use propagators::PropKind;
pub use solver::{
    Budget, LearnConfig, LimitReason, Outcome, RestartSchedule, Solver, SolverConfig, ValOrder,
    VarOrder,
};
pub use store::{EventMask, StateId, Store, VarId};
