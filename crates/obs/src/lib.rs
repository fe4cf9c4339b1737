//! Zero-dependency telemetry for the MGRTS stack.
//!
//! Three pillars, one per module:
//!
//! * [`stats`] — [`stats::SearchStats`]: plain-counter search statistics
//!   (decisions, backtracks, per-propagator-kind wakes/prunes/entailments,
//!   GAC matching rebuilds, peak trail depth, SAT conflicts/restarts)
//!   accumulated by the solver backends, merged across runs, and recorded
//!   into campaign records as an optional `search` block.
//! * [`flight`] — a lightweight span/event API backed by a fixed-size
//!   ring buffer per worker thread (the *flight recorder*). Recording is
//!   a thread-local no-op until a recorder is installed; the accumulated
//!   timeline is dumped as JSONL on panic, cancellation, or when a solve
//!   crosses a slow-threshold.
//! * [`metrics`] — a registry of counters, gauges and log-bucketed
//!   latency histograms rendered in the Prometheus text exposition
//!   format (the serve layer's `{"type":"metrics"}` response).
//!
//! Beside them, [`recycle`] holds the per-thread buffer slots the solver
//! crates (`rt_sat`, `csp_engine`) park their buffers in between solves:
//! this crate is the one dependency those two share.
//!
//! The crate is hand-rolled against the vendored `serde` shim — no
//! `tracing`, `prometheus` or `metrics` dependencies — mirroring how the
//! workspace vendored its other infrastructure.

pub mod flight;
pub mod metrics;
pub mod recycle;
pub mod stats;

pub use flight::{FlightRecorder, ThreadRing};
pub use metrics::{render_sample, Counter, Gauge, Histogram, Registry, SampleKind};
pub use stats::{KindStats, SearchStats};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide metric registry.
///
/// Library layers that have no registry handy (the record store's
/// quarantine, the lease board's retry loop, panic supervisors) count
/// into this one; surfaces that expose metrics (`mgrts serve`) render it
/// alongside their own registry. Registration is idempotent, so
/// counting is as simple as
/// `mgrts_obs::global().counter(name, help).inc()`.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}
