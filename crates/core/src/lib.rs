#![warn(missing_docs)]
//! # mgrts-core — global multiprocessor real-time scheduling as a CSP
//!
//! The primary contribution of the reproduced paper (Cucu-Grosjean & Buffet,
//! ICPP 2009): deciding feasibility of a periodic task system on `m`
//! processors under **global preemptive scheduling** by solving an
//! equivalent finite CSP over one hyperperiod.
//!
//! * [`csp1`] — encoding #1 (Section IV): `n·m·H` boolean variables on the
//!   generic [`csp_engine`] solver, constraints (2)–(5).
//! * [`csp1_sat`] — the same encoding lowered to CNF and solved by the
//!   [`rt_sat`] CDCL solver, the "even SAT solvers could be used" route
//!   Section IV motivates.
//! * [`csp2`] — encoding #2 (Section V): the specialized chronological
//!   solver with value-ordering heuristics (RM / DM / T-C / D-C), the
//!   "no idle while work is available" rule and the ascending-permutation
//!   symmetry breaking (eq. 10), plus laxity-based propagation of
//!   constraint (9); one search for both platforms, reading a
//!   heterogeneous rate matrix through its Section VI-A rules.
//! * [`csp2_generic`] — encoding #2 posted on the generic engine
//!   (constraints (7)–(10) verbatim), used to cross-validate the
//!   specialized solver, mirroring the paper's own debugging methodology.
//! * [`hetero`] and [`csp1_sat_hetero`] — Section VI-A: the CSP1 encoding
//!   and its CNF lowering on heterogeneous platforms (rate-weighted
//!   constraint (11)); [`hetero`] also documents the CSP2 search's
//!   heterogeneous rules (quality-ordered processors, group-restricted
//!   symmetry (13), rate-weighted completion (12)).
//! * [`clones`-driven arbitrary deadlines] — Section VI-B, via
//!   [`solve::solve_arbitrary_deadline`].
//! * [`schedule`] / [`verify`] — the periodic schedule object of Theorem 1
//!   and an independent checker of feasibility conditions C1–C4.
//! * [`engine`] — the [`FeasibilitySolver`] trait unifying every backend
//!   behind one `solve_on(ts, &platform_spec, budget, cancel)` shape, with
//!   [`engine::SolverSpec`] as the parseable factory.
//! * [`flow`] — the exact polynomial decision procedure for identical
//!   processors: the problem as a job–instant maximum flow (Horn, 1974),
//!   with a schedule or a cut ([`verify::check_cut`]) as its certificate.
//! * [`portfolio`] — parallel racing of any solver roster with cooperative
//!   cancellation: first definitive verdict wins, the rest are preempted;
//!   given a [`flow`] engine, the racer settles identical instances with
//!   it before the roster starts.
//! * [`minimal_m`] — the incremental minimum-processor search suggested in
//!   Section VII-E: one upward scan over any engine, exact and certified
//!   on [`flow`].
//! * [`local_search`] — min-conflicts local search over the CSP2 state
//!   space (Section VIII, future work).
//! * [`priority`] — the (D-C)-seeded priority-assignment viewpoint
//!   (Section VIII, future work).
//!
//! ## One entry point per backend
//!
//! Each backend module defines one engine, its only way to solve:
//! [`csp1::Csp1Engine`], [`csp1_sat::Csp1SatEngine`], [`csp2::Csp2Engine`],
//! [`csp2_generic::Csp2GenericEngine`], [`local_search::LocalSearchEngine`]
//! and [`flow::FlowEngine`] (all re-exported from [`engine`]).
//! Each reads the one [`Budget`] directly and reaches its heterogeneous
//! variant, if it has one, through [`PlatformSpec::Heterogeneous`]. The
//! encoders (`csp1::encode`, `csp1_sat::encode_cnf`,
//! `csp2_generic::encode`, …) and the [`csp2::Csp2Solver`] builder stay
//! public for callers that time encoding, set-up and search apart.
//!
//! ## Quickstart
//!
//! ```
//! use rt_task::TaskSet;
//! use mgrts_core::engine::{Budget, CancelToken, Csp2Engine, FeasibilitySolver};
//! use mgrts_core::{heuristics::TaskOrder, verify};
//!
//! let ts = TaskSet::running_example(); // m = 2, H = 12
//! let dc = Csp2Engine { order: TaskOrder::DeadlineMinusWcet };
//! let budget = Budget { max_decisions: Some(10_000), ..Budget::unlimited() };
//! let result = dc.solve(&ts, 2, &budget, &CancelToken::new()).unwrap();
//! let schedule = result.verdict.schedule().expect("the example is feasible");
//! verify::check_identical(&ts, 2, schedule).expect("C1–C4 hold");
//! ```

pub mod csp1;
pub mod csp1_sat;
pub mod csp1_sat_hetero;
pub mod csp2;
pub mod csp2_generic;
pub mod engine;
pub mod flow;
pub mod hetero;
pub mod heuristics;
pub mod local_search;
pub mod minimal_m;
pub mod portfolio;
pub mod priority;
pub mod schedule;
pub mod solve;
pub mod verify;

pub use engine::{
    Budget, CancelToken, EnginePool, FeasibilitySolver, Instrumented, PlatformSpec, SolverSpec,
};
pub use portfolio::{race, BackendReport, PortfolioResult};
pub use schedule::Schedule;
pub use solve::{SolveResult, SolveStats, Verdict};
pub use verify::VerifyError;
