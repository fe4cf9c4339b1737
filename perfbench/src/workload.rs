//! The benchmark's workloads: the generator cell every phase draws its
//! instances from, and the size and budget of each phase.

use rt_gen::{GeneratorConfig, MSpec};

/// One workload. Every run executes the three phases (`cell`, `race`,
/// `serve`) on instances drawn from `gen` under the run's seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Instance generator (seeded per run).
    pub gen: GeneratorConfig,
    /// Instances in the `cell` stream (each run through four backends).
    pub cell_instances: u64,
    /// Work budget of each `cell` backend, in `cell::BACKENDS` order:
    /// decisions for the CSP searches, conflicts for SAT. A `csp2-dc`
    /// decision costs a tenth to a thirtieth of a generic-engine one, so
    /// each backend gets its own.
    pub cell_budgets: [u64; 4],
    /// Instances raced in the `race` phase.
    pub race_instances: u64,
    /// Wall-clock budget per race, milliseconds.
    pub race_budget_ms: u64,
    /// Distinct instances sent to the server (each once as a miss, once
    /// more as a hit).
    pub serve_instances: u64,
    /// Wall-clock budget of each served solve, milliseconds.
    pub serve_budget_ms: u64,
    /// Only instances with utilization ratio `U/m` below this are served.
    /// On the Table I generator about 0.6% of instances below 0.85 take
    /// `csp2-dc` from 10 ms to over a second; below 0.7 about 0.06% do,
    /// so search stays nearly absent from the served traffic.
    pub serve_r_max: f64,
}

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 2] = ["paper-cell", "small-cell"];

/// Run length, seconds, the phase sizes below are set for on a 2-core
/// machine; [`Workload::scaled`] scales them to other lengths.
pub const REFERENCE_SECONDS: f64 = 35.0;

impl Workload {
    /// The workload called `name`.
    #[must_use]
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            // The paper's Table I cell (n = 10, m = 5, Tmax = 7), the
            // stream of `bench/manifests/smoke.toml` for seed 2009.
            "paper-cell" => Some(Workload {
                name: "paper-cell",
                gen: GeneratorConfig::table1(),
                cell_instances: 120,
                cell_budgets: [20_000, 20, 500, 500],
                race_instances: 150,
                race_budget_ms: 50,
                serve_instances: 6000,
                serve_budget_ms: 20,
                serve_r_max: 0.7,
            }),
            // A smaller cell (n = 8, m = 4, Tmax = 6): hyperperiods of at
            // most 60 instead of 420, so encoding, verification, protocol
            // and store costs weigh more against search.
            "small-cell" => Some(Workload {
                name: "small-cell",
                gen: GeneratorConfig {
                    n: 8,
                    m: MSpec::Fixed(4),
                    t_max: 6,
                    ..GeneratorConfig::table1()
                },
                cell_instances: 700,
                cell_budgets: [20_000, 20, 500, 300],
                race_instances: 1200,
                race_budget_ms: 20,
                serve_instances: 12_000,
                serve_budget_ms: 20,
                serve_r_max: 0.7,
            }),
            _ => None,
        }
    }

    /// The same workload with its instance counts scaled from
    /// [`REFERENCE_SECONDS`] to a run of `seconds`.
    #[must_use]
    pub fn scaled(self, seconds: f64) -> Workload {
        let f = seconds / REFERENCE_SECONDS;
        let scale = |n: u64, min: u64| ((n as f64 * f).round() as u64).max(min);
        Workload {
            cell_instances: scale(self.cell_instances, 1),
            race_instances: scale(self.race_instances, 1),
            serve_instances: scale(self.serve_instances, 2),
            ..self
        }
    }
}
