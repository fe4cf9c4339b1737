//! Aggregation and formatting of the paper's Tables I–IV from campaign
//! [`CampaignRecord`]s. Instances are keyed by
//! [`CampaignRecord::global_instance`], unique across a campaign's cells.

use std::collections::HashSet;

use mgrts_core::engine::SolverSpec;

use crate::runner::InstanceOutcome;
use crate::sink::CampaignRecord;

/// Instances solved (feasible schedule found) by at least one solver.
#[must_use]
pub fn solved_by_someone(records: &[CampaignRecord]) -> HashSet<u64> {
    records
        .iter()
        .filter(|r| r.outcome == InstanceOutcome::Solved)
        .map(|r| r.global_instance)
        .collect()
}

fn overruns(
    records: &[CampaignRecord],
    solver: SolverSpec,
    pred: impl Fn(&CampaignRecord) -> bool,
) -> usize {
    records
        .iter()
        .filter(|r| r.solver == solver && r.outcome == InstanceOutcome::Overrun && pred(r))
        .count()
}

/// Table I: per solver, the number of runs reaching the time limit, split
/// by whether the instance was solved by at least one solver.
#[must_use]
pub fn table1(records: &[CampaignRecord], roster: &[SolverSpec], total_instances: u64) -> String {
    let solved = solved_by_someone(records);
    let mut out = String::from("# overruns |");
    for s in roster {
        out.push_str(&format!(" {:>7}", s.label()));
    }
    out.push_str(" |  Total\n");
    let width = out.lines().next().unwrap().chars().count();
    out.push_str(&format!("{}\n", "-".repeat(width)));
    for (name, in_solved) in [("solved", true), ("unsolved", false)] {
        out.push_str(&format!("{name:<10} |"));
        for &s in roster {
            let n = overruns(records, s, |r| {
                solved.contains(&r.global_instance) == in_solved
            });
            out.push_str(&format!(" {n:>7}"));
        }
        let total = if in_solved {
            solved.len()
        } else {
            total_instances as usize - solved.len()
        };
        out.push_str(&format!(" | {total:>6}\n"));
    }
    out
}

/// Table II: the unsolved-instance overruns of Table I split by the
/// `r > 1` utilization filter.
#[must_use]
pub fn table2(records: &[CampaignRecord], roster: &[SolverSpec]) -> String {
    let solved = solved_by_someone(records);
    let unsolved_instances: HashSet<u64> = records
        .iter()
        .map(|r| r.global_instance)
        .filter(|i| !solved.contains(i))
        .collect();
    let mut filtered_total = 0usize;
    let mut unfiltered_total = 0usize;
    for &i in &unsolved_instances {
        let filtered = records
            .iter()
            .find(|r| r.global_instance == i)
            .is_some_and(|r| r.filtered);
        if filtered {
            filtered_total += 1;
        } else {
            unfiltered_total += 1;
        }
    }
    let mut out = String::from("# overruns |");
    for s in roster {
        out.push_str(&format!(" {:>7}", s.label()));
    }
    out.push_str(" |  Total\n");
    let width = out.lines().next().unwrap().chars().count();
    out.push_str(&format!("{}\n", "-".repeat(width)));
    for (name, want_filtered, total) in [
        ("filtered", true, filtered_total),
        ("unfiltered", false, unfiltered_total),
    ] {
        out.push_str(&format!("{name:<10} |"));
        for &s in roster {
            let n = overruns(records, s, |r| {
                !solved.contains(&r.global_instance) && r.filtered == want_filtered
            });
            out.push_str(&format!(" {n:>7}"));
        }
        out.push_str(&format!(" | {total:>6}\n"));
    }
    out
}

/// The paper's Table III utilization-ratio buckets.
pub const RATIO_BUCKETS: [(f64, f64); 15] = [
    (0.0, 0.4),
    (0.4, 0.5),
    (0.5, 0.6),
    (0.6, 0.7),
    (0.7, 0.8),
    (0.8, 0.9),
    (0.9, 1.0),
    (1.0, 1.1),
    (1.1, 1.2),
    (1.2, 1.3),
    (1.3, 1.4),
    (1.4, 1.5),
    (1.5, 1.6),
    (1.6, 1.7),
    (1.7, 2.0),
];

/// Table III: instance distribution over `r` buckets and mean resolution
/// time (over all solvers; an overrun contributes its full measured time,
/// ≈ the limit — the paper does the same by construction).
#[must_use]
pub fn table3(records: &[CampaignRecord]) -> String {
    let mut out = String::from("rmin–rmax  | #instances |  t_res (ms)\n");
    out.push_str("-----------+------------+------------\n");
    for (lo, hi) in RATIO_BUCKETS {
        let in_bucket: Vec<&CampaignRecord> = records
            .iter()
            .filter(|r| r.ratio >= lo && r.ratio < hi)
            .collect();
        let instances: HashSet<u64> = in_bucket.iter().map(|r| r.global_instance).collect();
        if instances.is_empty() {
            out.push_str(&format!("{lo:.1}–{hi:.1}    | {:>10} |          –\n", 0));
            continue;
        }
        let mean_ms = in_bucket.iter().map(|r| r.time_us as f64).sum::<f64>()
            / in_bucket.len() as f64
            / 1000.0;
        out.push_str(&format!(
            "{lo:.1}–{hi:.1}    | {:>10} | {mean_ms:>10.1}\n",
            instances.len()
        ));
    }
    out
}

/// One aggregated row of Table IV.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Number of tasks.
    pub n: usize,
    /// Mean utilization ratio.
    pub mean_r: f64,
    /// Mean processor count.
    pub mean_m: f64,
    /// Mean hyperperiod (raw ticks; the paper prints thousands).
    pub mean_h: f64,
    /// (solved fraction, mean time ms, all-too-large) per roster solver.
    pub per_solver: Vec<(f64, f64, bool)>,
}

/// Format Table IV rows with the paper's column layout.
#[must_use]
pub fn table4(rows: &[Table4Row], roster: &[SolverSpec]) -> String {
    let mut out = String::from("   n |    r  |     m  |  H(1000) |");
    for s in roster {
        out.push_str(&format!(" {:>8} solved  t(ms) |", s.label()));
    }
    out.push('\n');
    let width = out.lines().next().unwrap().chars().count();
    out.push_str(&format!("{}\n", "-".repeat(width)));
    for row in rows {
        out.push_str(&format!(
            "{:>4} | {:>5.2} | {:>6.2} | {:>8.2} |",
            row.n,
            row.mean_r,
            row.mean_m,
            row.mean_h / 1000.0
        ));
        for &(solved, t_ms, too_large) in &row.per_solver {
            if too_large {
                out.push_str(&format!(" {:>8}      –      – |", ""));
            } else {
                out.push_str(&format!(
                    " {:>8} {:>5.0}% {:>6.1} |",
                    "",
                    solved * 100.0,
                    t_ms
                ));
            }
        }
        out.push('\n');
    }
    out
}

/// One grid cell's race-winner tally (the `report winners` row shape).
#[derive(Debug, Clone)]
pub struct WinnerRow {
    /// Canonical cell tag.
    pub cell: String,
    /// Units won per roster backend, in roster order.
    pub wins: Vec<u64>,
    /// Units nobody won (no definitive verdict within budget).
    pub none: u64,
    /// Total race units of the cell.
    pub units: u64,
}

/// Format per-cell winner counts of a racing campaign: one line per cell,
/// one column per roster backend, plus the undecided tally.
#[must_use]
pub fn winners(rows: &[WinnerRow], roster: &[SolverSpec]) -> String {
    if rows.is_empty() {
        return "no records in this campaign\n".to_string();
    }
    let cell_width = rows.iter().map(|r| r.cell.len()).max().unwrap_or(4).max(4);
    let mut out = format!("{:<cell_width$} |", "cell");
    for s in roster {
        out.push_str(&format!(" {:>7}", s.label()));
    }
    out.push_str(" |    none   units\n");
    let width = out.lines().next().unwrap().chars().count();
    out.push_str(&format!("{}\n", "-".repeat(width)));
    let mut totals = vec![0u64; roster.len()];
    let (mut total_none, mut total_units) = (0u64, 0u64);
    for row in rows {
        out.push_str(&format!("{:<cell_width$} |", row.cell));
        for (i, n) in row.wins.iter().enumerate() {
            out.push_str(&format!(" {n:>7}"));
            totals[i] += n;
        }
        out.push_str(&format!(" | {:>7} {:>7}\n", row.none, row.units));
        total_none += row.none;
        total_units += row.units;
    }
    if rows.len() > 1 {
        out.push_str(&format!("{:<cell_width$} |", "total"));
        for n in &totals {
            out.push_str(&format!(" {n:>7}"));
        }
        out.push_str(&format!(" | {total_none:>7} {total_units:>7}\n"));
    }
    out
}

/// One grid cell's aggregated search telemetry (the `report profile`
/// row shape): every recorded [`mgrts_obs::SearchStats`] of the cell,
/// merged.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Canonical cell tag.
    pub cell: String,
    /// Units of the cell that carried a `search` block.
    pub with_stats: u64,
    /// Units of the cell without one (pre-telemetry segments, backends
    /// without counters).
    pub without_stats: u64,
    /// The cell's merged search telemetry.
    pub stats: mgrts_obs::SearchStats,
}

/// Format per-cell aggregated search statistics: one line per cell with
/// the merged throughput counters, then a per-propagator-kind breakdown
/// summed over every cell.
#[must_use]
pub fn profile(rows: &[ProfileRow]) -> String {
    if rows.iter().all(|r| r.with_stats == 0) {
        return "no recorded search statistics in this campaign \
                (records predate telemetry, or the backends carry no counters)\n"
            .to_string();
    }
    let cell_width = rows.iter().map(|r| r.cell.len()).max().unwrap_or(4).max(4);
    let mut out = format!(
        "{:<cell_width$} | {:>6} {:>12} {:>12} {:>13} {:>9} {:>9} {:>8} {:>7} {:>7} {:>6} {:>10} {:>10}\n",
        "cell",
        "solves",
        "decisions",
        "backtracks",
        "propagations",
        "restarts",
        "gac_reb",
        "conflict",
        "nogoods",
        "mean_bj",
        "db_red",
        "peak_trail",
        "peak_depth",
    );
    let width = out.lines().next().unwrap().chars().count();
    out.push_str(&format!("{}\n", "-".repeat(width)));
    let mut kinds = mgrts_obs::SearchStats::default();
    for row in rows {
        if row.with_stats == 0 {
            continue;
        }
        let st = &row.stats;
        // Mean levels skipped per analyzed conflict (0.0 = chronological).
        let mean_bj = if st.conflicts == 0 {
            0.0
        } else {
            st.backjump_sum as f64 / st.conflicts as f64
        };
        out.push_str(&format!(
            "{:<cell_width$} | {:>6} {:>12} {:>12} {:>13} {:>9} {:>9} {:>8} {:>7} {:>7.1} {:>6} {:>10} {:>10}\n",
            row.cell,
            st.solves,
            st.decisions,
            st.backtracks,
            st.propagations,
            st.restarts,
            st.gac_rebuilds,
            st.conflicts,
            st.learnt_clauses,
            mean_bj,
            st.db_reductions,
            st.peak_trail,
            st.peak_depth,
        ));
        kinds.merge(st);
    }
    let uncounted: u64 = rows.iter().map(|r| r.without_stats).sum();
    if uncounted > 0 {
        out.push_str(&format!(
            "({uncounted} units carry no search telemetry and are excluded)\n"
        ));
    }
    if !kinds.kinds.is_empty() {
        out.push_str("\npropagator kinds (all cells)\n");
        let kw = kinds
            .kinds
            .iter()
            .map(|k| k.kind.len())
            .max()
            .unwrap_or(4)
            .max(4);
        out.push_str(&format!(
            "{:<kw$} | {:>12} {:>12} {:>12}\n",
            "kind", "wakes", "prunes", "entailments"
        ));
        for k in &kinds.kinds {
            out.push_str(&format!(
                "{:<kw$} | {:>12} {:>12} {:>12}\n",
                k.kind, k.wakes, k.prunes, k.entailments
            ));
        }
    }
    out
}

/// Per-solver verdict counts of one heterogeneous cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeteroCounts {
    /// Total runs.
    pub runs: u64,
    /// Verified feasible schedules.
    pub solved: u64,
    /// Infeasibility proofs.
    pub infeasible: u64,
    /// Budget overruns.
    pub overrun: u64,
    /// Runs where the backend has no decision procedure for the cell's
    /// heterogeneous platform.
    pub unsupported: u64,
}

/// One heterogeneous grid cell with its per-roster-solver counts.
#[derive(Debug, Clone)]
pub struct HeteroRow {
    /// Canonical cell tag.
    pub cell: String,
    /// Counts per roster solver, in roster order.
    pub per_solver: Vec<HeteroCounts>,
}

/// Format the heterogeneity report: one block per hetero cell, one line
/// per solver, making the per-backend `unsupported` counts visible.
#[must_use]
pub fn hetero(rows: &[HeteroRow], roster: &[SolverSpec]) -> String {
    if rows.is_empty() {
        return "no heterogeneous cells in this campaign\n".to_string();
    }
    let mut out = String::new();
    for row in rows {
        out.push_str(&format!("cell {}\n", row.cell));
        out.push_str(&format!(
            "  {:<14} {:>6} {:>7} {:>10} {:>8} {:>11}\n",
            "solver", "runs", "solved", "infeasible", "overrun", "unsupported"
        ));
        for (s, c) in roster.iter().zip(&row.per_solver) {
            out.push_str(&format!(
                "  {:<14} {:>6} {:>7} {:>10} {:>8} {:>11}\n",
                s.name(),
                c.runs,
                c.solved,
                c.infeasible,
                c.overrun,
                c.unsupported
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgrts_core::heuristics::TaskOrder;

    fn rec(
        instance: u64,
        solver: SolverSpec,
        outcome: InstanceOutcome,
        ratio: f64,
        filtered: bool,
    ) -> CampaignRecord {
        CampaignRecord {
            shard: String::new(),
            cell: 0,
            instance,
            global_instance: instance,
            solver,
            outcome,
            time_us: 1000,
            ratio,
            filtered,
            m: 5,
            n: 10,
            t_max: 7,
            hetero: false,
            hyperperiod: 420,
            seed: instance,
            policy: None,
            winner: None,
            budget_source: None,
            cancel_latency_us: None,
            backends: None,
            search: None,
        }
    }

    const CSP1: SolverSpec = SolverSpec::Csp1;
    const DC: SolverSpec = SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet);

    #[test]
    fn table1_counts_overruns_by_solved_partition() {
        // Instance 0: solved by DC, overrun by CSP1 → "solved" overrun.
        // Instance 1: overrun by both → "unsolved" overruns.
        let records = vec![
            rec(0, CSP1, InstanceOutcome::Overrun, 0.9, false),
            rec(0, DC, InstanceOutcome::Solved, 0.9, false),
            rec(1, CSP1, InstanceOutcome::Overrun, 1.2, true),
            rec(1, DC, InstanceOutcome::Overrun, 1.2, true),
        ];
        let out = table1(&records, &[CSP1, DC], 2);
        let lines: Vec<&str> = out.lines().collect();
        // solved row: CSP1 = 1, DC = 0, total solved instances = 1.
        assert!(lines[2].contains('1'));
        assert!(lines[2].trim_end().ends_with('1'));
        // unsolved row: CSP1 = 1, DC = 1, total = 1.
        assert!(lines[3].starts_with("unsolved"));
    }

    #[test]
    fn table2_partitions_by_filter() {
        let records = vec![
            rec(0, CSP1, InstanceOutcome::Overrun, 1.3, true),
            rec(0, DC, InstanceOutcome::ProvedInfeasible, 1.3, true),
            rec(1, CSP1, InstanceOutcome::Overrun, 0.98, false),
            rec(1, DC, InstanceOutcome::Overrun, 0.98, false),
        ];
        let out = table2(&records, &[CSP1, DC]);
        assert!(out.contains("filtered"));
        assert!(out.contains("unfiltered"));
        let filtered_line = out.lines().nth(2).unwrap();
        // CSP1 overran the filtered instance, DC did not.
        assert!(filtered_line.contains("1") && filtered_line.contains("0"));
    }

    #[test]
    fn table3_buckets_cover_the_paper_range() {
        assert_eq!(RATIO_BUCKETS.len(), 15);
        assert_eq!(RATIO_BUCKETS[0], (0.0, 0.4));
        assert_eq!(RATIO_BUCKETS[14], (1.7, 2.0));
        let records = vec![
            rec(0, DC, InstanceOutcome::Solved, 0.95, false),
            rec(1, DC, InstanceOutcome::Solved, 0.97, false),
            rec(2, DC, InstanceOutcome::Overrun, 1.45, true),
        ];
        let out = table3(&records);
        let bucket_09 = out.lines().find(|l| l.starts_with("0.9–1.0")).unwrap();
        assert!(bucket_09.contains('2'), "{bucket_09}");
    }

    #[test]
    fn table4_renders_dashes_for_too_large() {
        let rows = vec![Table4Row {
            n: 64,
            mean_r: 0.98,
            mean_m: 25.8,
            mean_h: 345_950.0,
            per_solver: vec![(0.0, 0.0, true), (0.25, 3.2, false)],
        }];
        let out = table4(&rows, &[CSP1, DC]);
        assert!(out.contains('–'));
        assert!(out.contains("25%"));
        assert!(out.contains("345.95"));
    }

    #[test]
    fn profile_golden_output_with_learning_counters() {
        let rows = vec![
            ProfileRow {
                cell: "learn-cell".to_string(),
                with_stats: 1,
                without_stats: 0,
                stats: mgrts_obs::SearchStats {
                    solves: 2,
                    decisions: 100,
                    backtracks: 40,
                    propagations: 900,
                    conflicts: 8,
                    restarts: 3,
                    learnt_clauses: 6,
                    backjump_sum: 20,
                    db_reductions: 1,
                    peak_trail: 50,
                    peak_depth: 12,
                    ..Default::default()
                },
            },
            ProfileRow {
                cell: "chrono".to_string(),
                with_stats: 1,
                without_stats: 1,
                stats: mgrts_obs::SearchStats {
                    solves: 1,
                    decisions: 30,
                    backtracks: 10,
                    propagations: 200,
                    peak_trail: 20,
                    peak_depth: 5,
                    ..Default::default()
                },
            },
        ];
        let out = profile(&rows);
        let expected = "\
cell       | solves    decisions   backtracks  propagations  restarts   gac_reb conflict nogoods mean_bj db_red peak_trail peak_depth\n\
-------------------------------------------------------------------------------------------------------------------------------------\n\
learn-cell |      2          100           40           900         3         0        8       6     2.5      1         50         12\n\
chrono     |      1           30           10           200         0         0        0       0     0.0      0         20          5\n\
(1 units carry no search telemetry and are excluded)\n";
        assert_eq!(out, expected, "golden mismatch:\n{out}");
    }

    #[test]
    fn hetero_renders_unsupported_counts_per_cell() {
        let rows = vec![HeteroRow {
            cell: "n=6/m=auto/tmax=5/u=*/hetero=true".to_string(),
            per_solver: vec![
                HeteroCounts {
                    runs: 4,
                    solved: 1,
                    infeasible: 0,
                    overrun: 0,
                    unsupported: 3,
                },
                HeteroCounts {
                    runs: 4,
                    solved: 2,
                    infeasible: 2,
                    overrun: 0,
                    unsupported: 0,
                },
            ],
        }];
        let out = hetero(&rows, &[CSP1, DC]);
        assert!(out.contains("unsupported"));
        assert!(out.contains("hetero=true"));
        let csp1_line = out.lines().find(|l| l.trim().starts_with("csp1")).unwrap();
        assert!(csp1_line.trim().ends_with('3'), "{csp1_line}");
        assert!(hetero(&[], &[CSP1]).contains("no heterogeneous cells"));
    }

    #[test]
    fn winners_tallies_per_cell_and_totals() {
        let rows = vec![
            WinnerRow {
                cell: "n=10/m=5/tmax=7/u=*/hetero=false".to_string(),
                wins: vec![3, 15],
                none: 6,
                units: 24,
            },
            WinnerRow {
                cell: "n=12/m=5/tmax=7/u=*/hetero=false".to_string(),
                wins: vec![1, 2],
                none: 0,
                units: 3,
            },
        ];
        let out = winners(&rows, &[CSP1, DC]);
        assert!(out.contains("CSP1"), "{out}");
        assert!(out.contains("+(D-C)"), "{out}");
        assert!(out.contains("none"), "{out}");
        let total = out.lines().find(|l| l.starts_with("total")).unwrap();
        assert!(total.contains("4"), "{total}");
        assert!(total.contains("17"), "{total}");
        assert!(total.contains("27"), "{total}");
        assert!(winners(&[], &[CSP1]).contains("no records"));
    }

    #[test]
    fn solved_by_someone_dedups() {
        let records = vec![
            rec(0, CSP1, InstanceOutcome::Solved, 0.5, false),
            rec(0, DC, InstanceOutcome::Solved, 0.5, false),
        ];
        assert_eq!(solved_by_someone(&records).len(), 1);
    }

    #[test]
    fn instances_are_keyed_campaign_wide() {
        // Instance 0 of cell 1 is global instance 24, not instance 0 of
        // cell 0.
        let other_cell = CampaignRecord {
            cell: 1,
            global_instance: 24,
            ..rec(0, DC, InstanceOutcome::Solved, 0.5, false)
        };
        let records = vec![rec(0, DC, InstanceOutcome::Solved, 0.5, false), other_cell];
        assert_eq!(solved_by_someone(&records).len(), 2);
    }
}
