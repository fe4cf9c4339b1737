//! Deterministic shard planning for experiment campaigns.
//!
//! A campaign manifest expands to a *grid* of [`Cell`]s (scenario points);
//! each cell contributes `instances_per_cell × roster` run units. The
//! planner chunks the unit stream into [`Shard`]s — the campaign's unit of
//! scheduling, checkpointing and resumption — and names each shard by a
//! **content hash** over everything that determines its work: the campaign
//! fingerprint (seed, time limit, grid, roster) plus the shard's own unit
//! list. Replaying a shard therefore reproduces the same hash, which is
//! what lets a resumed campaign dedupe work it already committed.

use mgrts_core::engine::SolverSpec;
use rt_gen::{GeneratorConfig, MSpec, ParamOrder};

use crate::policy::PolicyKind;

/// Processor-count rule of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellM {
    /// Fixed `m` (Table I style).
    Fixed(usize),
    /// `m = ⌈Σ Ci/Ti⌉`, the minimum passing the utilization filter
    /// (Table IV style; `m = "auto"` in the manifest).
    Auto,
}

/// One point of the scenario grid: task count × processor rule × maximum
/// period × utilization band × platform heterogeneity.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Number of tasks `n`.
    pub n: usize,
    /// Processor-count rule.
    pub m: CellM,
    /// Maximum period `Tmax`.
    pub t_max: u64,
    /// Optional utilization-ratio band `[lo, hi)`; instances are drawn from
    /// the cell stream by deterministic rejection sampling.
    pub band: Option<(f64, f64)>,
    /// Run on a random heterogeneous rate matrix instead of identical
    /// processors.
    pub hetero: bool,
}

impl Cell {
    /// Canonical cell tag: part of shard hashes, progress lines and record
    /// provenance.
    #[must_use]
    pub fn tag(&self) -> String {
        let m = match self.m {
            CellM::Fixed(m) => m.to_string(),
            CellM::Auto => "auto".to_string(),
        };
        let band = match self.band {
            Some((lo, hi)) => format!("{lo}..{hi}"),
            None => "*".to_string(),
        };
        format!(
            "n={}/m={}/tmax={}/u={}/hetero={}",
            self.n, m, self.t_max, band, self.hetero
        )
    }

    /// The generator configuration this cell samples from.
    #[must_use]
    pub fn generator_config(&self) -> GeneratorConfig {
        GeneratorConfig {
            n: self.n,
            m: match self.m {
                CellM::Fixed(m) => MSpec::Fixed(m),
                CellM::Auto => MSpec::MinUtilization,
            },
            t_max: self.t_max,
            order: ParamOrder::DeadlineFirst,
            synchronous: false,
        }
    }
}

/// One (cell, instance, solver) run — the atom of campaign work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunUnit {
    /// Index into the manifest's cell list.
    pub cell: usize,
    /// Instance index within the cell's stream.
    pub instance: u64,
    /// Index into the manifest's solver roster.
    pub solver: usize,
}

/// A content-hashed chunk of run units: the unit of scheduling and
/// checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// Position in the campaign's deterministic shard order.
    pub index: u64,
    /// Content hash (16 hex digits) over the campaign fingerprint and the
    /// shard's unit list.
    pub hash: String,
    /// The units, in deterministic (cell, instance, solver) order.
    pub units: Vec<RunUnit>,
}

/// FNV-1a over a byte string; the stable, dependency-free content hash
/// behind shard identities.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a`] over text fed in pieces, so the hashed text is never built:
/// a JSON [`Sink`](serde::json::Sink) and a [`std::fmt::Write`] target.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    /// Hash `bytes` after everything fed so far.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of everything fed.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl serde::json::Sink for Fnv1a {
    fn push_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Split a campaign into shards: enumerate run units in (cell, instance,
/// solver) order — or (cell, instance) order with the solver axis
/// collapsed (solver index pinned to 0) when `kind` races the roster —
/// chunk into `shard_size` units, and hash each chunk together with the
/// campaign `fingerprint`.
#[must_use]
pub fn plan_shards(
    cells: &[Cell],
    instances_per_cell: u64,
    roster: &[SolverSpec],
    shard_size: usize,
    fingerprint: &str,
    kind: PolicyKind,
) -> Vec<Shard> {
    let solver_slots = kind.units_per_instance(roster.len());
    let mut units = Vec::new();
    for (ci, _) in cells.iter().enumerate() {
        for i in 0..instances_per_cell {
            for si in 0..solver_slots {
                units.push(RunUnit {
                    cell: ci,
                    instance: i,
                    solver: si,
                });
            }
        }
    }
    units
        .chunks(shard_size.max(1))
        .enumerate()
        .map(|(index, chunk)| {
            let mut desc = format!("{fingerprint}\nshard {index}\n");
            for u in chunk {
                let label = match kind {
                    PolicyKind::Single => roster[u.solver].name(),
                    PolicyKind::PortfolioRace => "race",
                };
                desc.push_str(&format!(
                    "{}|{}|{}\n",
                    cells[u.cell].tag(),
                    u.instance,
                    label
                ));
            }
            Shard {
                index: index as u64,
                hash: format!("{:016x}", fnv1a(desc.as_bytes())),
                units: chunk.to_vec(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<Cell> {
        vec![
            Cell {
                n: 4,
                m: CellM::Fixed(2),
                t_max: 5,
                band: None,
                hetero: false,
            },
            Cell {
                n: 6,
                m: CellM::Auto,
                t_max: 5,
                band: Some((0.5, 1.5)),
                hetero: true,
            },
        ]
    }

    #[test]
    fn planning_is_deterministic_and_covers_every_unit() {
        let roster = [SolverSpec::Csp1, SolverSpec::Csp1Sat];
        let a = plan_shards(&cells(), 3, &roster, 4, "fp", PolicyKind::Single);
        let b = plan_shards(&cells(), 3, &roster, 4, "fp", PolicyKind::Single);
        assert_eq!(a, b);
        let total: usize = a.iter().map(|s| s.units.len()).sum();
        assert_eq!(total, 2 * 3 * 2);
        // Ceil division: 12 units over shards of 4.
        assert_eq!(a.len(), 3);
        // Hashes are pairwise distinct and stable in length.
        for s in &a {
            assert_eq!(s.hash.len(), 16);
        }
        assert_ne!(a[0].hash, a[1].hash);
    }

    #[test]
    fn hash_depends_on_fingerprint_and_content() {
        let roster = [SolverSpec::Csp1];
        let a = plan_shards(&cells(), 2, &roster, 2, "fp-a", PolicyKind::Single);
        let b = plan_shards(&cells(), 2, &roster, 2, "fp-b", PolicyKind::Single);
        assert_ne!(a[0].hash, b[0].hash);
        let c = plan_shards(
            &cells(),
            2,
            &[SolverSpec::Csp1Sat],
            2,
            "fp-a",
            PolicyKind::Single,
        );
        assert_ne!(a[0].hash, c[0].hash);
    }

    #[test]
    fn per_instance_shape_collapses_the_solver_axis() {
        let roster = [SolverSpec::Csp1, SolverSpec::Csp1Sat];
        let per_solver = plan_shards(&cells(), 3, &roster, 4, "fp", PolicyKind::Single);
        let per_instance = plan_shards(&cells(), 3, &roster, 4, "fp", PolicyKind::PortfolioRace);
        let total = |plan: &[Shard]| plan.iter().map(|s| s.units.len()).sum::<usize>();
        assert_eq!(total(&per_solver), 2 * 3 * 2);
        assert_eq!(total(&per_instance), 2 * 3);
        assert!(per_instance
            .iter()
            .flat_map(|s| &s.units)
            .all(|u| u.solver == 0));
        // Same fingerprint, different shape ⇒ different hashes (a policy
        // switch re-shards even before the fingerprint suffix kicks in).
        assert_ne!(per_solver[0].hash, per_instance[0].hash);
    }

    #[test]
    fn cell_tags_are_canonical() {
        let cs = cells();
        assert_eq!(cs[0].tag(), "n=4/m=2/tmax=5/u=*/hetero=false");
        assert_eq!(cs[1].tag(), "n=6/m=auto/tmax=5/u=0.5..1.5/hetero=true");
    }

    #[test]
    fn generator_config_mirrors_the_cell() {
        let cfg = cells()[1].generator_config();
        assert_eq!(cfg.n, 6);
        assert_eq!(cfg.m, MSpec::MinUtilization);
        assert_eq!(cfg.t_max, 5);
    }
}
