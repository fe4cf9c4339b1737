#![warn(missing_docs)]
//! # rt-sat — a CDCL boolean satisfiability solver
//!
//! Section IV of the reproduced paper motivates CSP1's all-boolean shape:
//! "focusing on boolean variables so that even boolean satisfiability (SAT)
//! solvers could be used". This crate is that substrate — a self-contained
//! conflict-driven clause-learning solver in the MiniSat lineage:
//!
//! * [`types`] — variables, literals (MiniSat packing), ternary values;
//! * [`cnf`] — CNF container, DIMACS import/export, and the brute-force
//!   oracle the solver is validated against. Clauses are stored flat, all
//!   literals in one vector plus each clause's end offset, and
//!   [`Cnf::add_clause`] takes a slice, so encoding allocates nothing per
//!   clause. A pairwise at-most-one is stored once, as a group of its
//!   members, and read back as its pairs by every CNF view
//!   ([`Cnf::num_clauses`], [`Cnf::clauses`], DIMACS, evaluation);
//! * [`encodings`] — cardinality encodings (pairwise / ladder at-most-one,
//!   Sinz sequential counter for at-most-k / exactly-k) used by the CSP1 →
//!   CNF translation in `mgrts-core`;
//! * [`solver`] — two-watched-literal propagation, first-UIP learning with
//!   clause minimization, VSIDS + phase saving, Luby restarts,
//!   activity-driven clause deletion, and conflict/time budgets reported as
//!   a three-way outcome matching the scheduling experiments' overruns.
//!   Its clause database is a MiniSat-style literal arena with a small
//!   header per clause, compacted when learned clauses are deleted, and
//!   its watch lists share one slab. Binary clauses propagate from their
//!   watchers alone and at-most-one groups natively, on the same search
//!   tree as the pairwise clauses they stand for.
//!
//! A formula and a solver dropped on a thread leave their buffers to the
//! next ones built on it (up to [`MAX_RECYCLED_BYTES`] each), so a thread
//! that solves formula after formula stops allocating once it has seen
//! its largest.
//!
//! ## Example
//!
//! ```
//! use rt_sat::{Cnf, Lit, SatSolver, SatOutcome};
//!
//! let mut f = Cnf::new();
//! let x = f.new_var();
//! let y = f.new_var();
//! f.add_clause(&[Lit::pos(x), Lit::pos(y)]);
//! f.add_clause(&[Lit::neg(x), Lit::pos(y)]);
//! match SatSolver::solve_cnf(&f) {
//!     SatOutcome::Sat(model) => assert!(model[y as usize]),
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! ```

pub mod cnf;
pub mod encodings;
pub mod heap;
mod recycle;
pub mod solver;
pub mod types;
mod watch;

pub use cnf::{Clause, Cnf, DimacsError};
pub use encodings::{
    at_least_k, at_most_k, at_most_one, exactly_k, exactly_one, pb_exactly, AmoEncoding,
};
pub use recycle::MAX_RECYCLED_BYTES;
pub use solver::{SatConfig, SatLimit, SatOutcome, SatSolver};
pub use types::{LBool, Lit, Var};
