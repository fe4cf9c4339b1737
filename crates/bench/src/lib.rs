#![warn(missing_docs)]
//! # mgrts-bench — experiment harness regenerating the paper's evaluation
//!
//! The heart of the crate is the **campaign engine** ([`campaign`]): a
//! declarative manifest (scenario grid × budgets × solver roster) expands
//! into content-hashed [`shard`]s, drained by lease-claiming worker
//! threads with per-shard budgets and cooperative cancellation, streaming
//! JSONL records plus checkpoints to a record store ([`sink`]) so a killed
//! campaign resumes exactly where it stopped. The paper's Tables I–IV are
//! *reports* over that store; each run also emits a machine-readable
//! `BENCH_<name>.json` summary that seeds the perf trajectory (and backs
//! the CI perf gate).
//!
//! *What* each campaign unit runs is decided by the campaign's
//! [`policy::Policy`]: one roster solver per unit (the default) or a
//! portfolio race of the whole roster per instance ([`PolicyKind`]),
//! either on the manifest's budget or on adaptive quantile-sized budgets
//! — so the same manifest grid executes under either shape (`[policy]`
//! manifest section / `--policy` CLI flag). The resident server runs its
//! requests through the same unit runner ([`policy::run_unit`]).
//!
//! The one executor is the [`queue`] module's drain loop: `campaign
//! run|resume` is simply its in-process worker. The same loop turns one
//! campaign into a *distributed* job: the [`sink::RecordStore`] trait
//! abstracts the store behind append-only per-writer segments (local
//! directory today, the seam for an object store), and leases let any
//! number of worker processes — or machines sharing a mount —
//! cooperatively drain one manifest with crash-safe reclaim of dead
//! workers' shards (`mgrts bench campaign dispatch|worker|status`).
//!
//! One binary per table/figure of Section VII, each a thin manifest +
//! report pairing over the engine:
//!
//! * `figure1` — the availability-interval pattern of the running example;
//! * `table1` — Tables I and II (overrun counts per solver, 500 random
//!   problems, m = 5, n = 10, Tmax = 7);
//! * `table3` — Table III (instance distribution and mean resolution time
//!   per utilization-ratio bucket);
//! * `table4` — Table IV (scaling with n ∈ {4 … 256}, Tmax = 15,
//!   m = ⌈U⌉).
//!
//! Every solver-roster experiment runs through the campaign store: the
//! SAT route as a seventh Table I column is `bench/manifests/ext_sat.toml`
//! plus `campaign report summary`. The `ext_*` binaries are the analyses
//! that are not roster × grid campaigns (analytic filters, quantile
//! budgets, probabilistic schedule analysis, local-search ablation); they
//! solve through [`runner::run`] too.
//!
//! Shared machinery lives here: the per-instance runner
//! ([`runner::run`]), the campaign executor, the `table*` binaries' body
//! ([`cli::run_and_report`]), and plain-text table formatting. All runs are deterministic given the manifest seed;
//! wall-clock *classifications* (overrun vs solved) depend on the machine,
//! exactly as in the paper.

pub mod campaign;
pub mod cli;
pub mod policy;
pub mod queue;
pub mod runner;
pub mod serve;
pub mod shard;
pub mod sink;
pub mod tables;

pub use cli::Args;
pub use mgrts_core::engine::SolverSpec;
pub use policy::{Policy, PolicyKind, PolicySpec};
pub use runner::InstanceOutcome;
