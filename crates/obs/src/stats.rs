//! Search-statistics counters shared by every solver backend.
//!
//! [`SearchStats`] is the one counter type of the telemetry pipeline: the
//! CSP and SAT engines and the specialized searches count into one per
//! solve, engines accumulate them across solves, campaign records persist
//! them as an optional `search` block, and `report profile` merges them
//! per experiment cell. All fields are plain saturating-free `u64`
//! counters — cheap to bump, cheap to merge, loss-free to serialize.

use serde::{DeError, Deserialize, Serialize, Value};

/// Counters for one propagator kind (the CSP engine's per-kind telemetry).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindStats {
    /// Propagator kind name (e.g. `"alldiff_gac"`, `"linear_eq"`).
    pub kind: String,
    /// Times a propagator of this kind was woken and run.
    pub wakes: u64,
    /// Domain values removed by propagators of this kind.
    pub prunes: u64,
    /// Times a propagator of this kind raised its entailment flag.
    pub entailments: u64,
}

/// Aggregated search statistics for one or more solves.
///
/// A single solve from a CSP backend populates the decision/propagation
/// counters plus the per-kind table; a SAT backend populates the
/// conflict/restart/learnt counters. [`SearchStats::merge`] folds two
/// blocks together (sums for throughput counters, maxima for peaks), so
/// the same type serves per-run, per-engine-lifetime and per-cell roles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Solver runs aggregated into this block.
    pub solves: u64,
    /// Decisions (search-tree nodes / SAT decisions).
    pub decisions: u64,
    /// Backtracks (CSP failures / SAT conflicts both count as dead ends).
    pub backtracks: u64,
    /// Propagator executions (CSP) or propagated literals (SAT).
    pub propagations: u64,
    /// SAT conflicts analyzed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// CSP nogoods learned; for SAT, learned clauses still in the database
    /// (database reduction removes them again).
    pub learnt_clauses: u64,
    /// Levels jumped over by non-chronological backtracking, summed over
    /// all conflicts (0 for chronological search). Serde-additive: absent
    /// in pre-learning records and omitted from output while zero (see the
    /// hand-written impls below).
    pub backjump_sum: u64,
    /// Learned-nogood database reductions performed. Serde-additive like
    /// `backjump_sum`.
    pub db_reductions: u64,
    /// Régin all-different matching rebuilds (GAC propagator).
    pub gac_rebuilds: u64,
    /// Deepest trail length observed (CSP store entries).
    pub peak_trail: u64,
    /// Deepest decision stack observed.
    pub peak_depth: u64,
    /// Per-propagator-kind wake/prune/entailment counters, sorted by kind
    /// name. Kinds that never woke are omitted.
    pub kinds: Vec<KindStats>,
}

// Hand-written (de)serialization instead of the derives: the learning
// counters must be *absent* keys — not zeros, not nulls — whenever they are
// zero, so blocks written by non-learning backends stay byte-identical to
// pre-learning records (campaign fingerprints pin this), while records that
// predate the fields still load with zero defaults.
impl Serialize for SearchStats {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("solves".to_string(), self.solves.to_value()),
            ("decisions".to_string(), self.decisions.to_value()),
            ("backtracks".to_string(), self.backtracks.to_value()),
            ("propagations".to_string(), self.propagations.to_value()),
            ("conflicts".to_string(), self.conflicts.to_value()),
            ("restarts".to_string(), self.restarts.to_value()),
            ("learnt_clauses".to_string(), self.learnt_clauses.to_value()),
        ];
        if self.backjump_sum != 0 {
            pairs.push(("backjump_sum".to_string(), self.backjump_sum.to_value()));
        }
        if self.db_reductions != 0 {
            pairs.push(("db_reductions".to_string(), self.db_reductions.to_value()));
        }
        pairs.push(("gac_rebuilds".to_string(), self.gac_rebuilds.to_value()));
        pairs.push(("peak_trail".to_string(), self.peak_trail.to_value()));
        pairs.push(("peak_depth".to_string(), self.peak_depth.to_value()));
        pairs.push(("kinds".to_string(), self.kinds.to_value()));
        Value::Object(pairs)
    }
}

impl Deserialize for SearchStats {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let opt = |name: &str| -> Result<u64, DeError> {
            Ok(serde::__private::field::<Option<u64>>(v, name)?.unwrap_or(0))
        };
        Ok(SearchStats {
            solves: serde::__private::field(v, "solves")?,
            decisions: serde::__private::field(v, "decisions")?,
            backtracks: serde::__private::field(v, "backtracks")?,
            propagations: serde::__private::field(v, "propagations")?,
            conflicts: serde::__private::field(v, "conflicts")?,
            restarts: serde::__private::field(v, "restarts")?,
            learnt_clauses: serde::__private::field(v, "learnt_clauses")?,
            backjump_sum: opt("backjump_sum")?,
            db_reductions: opt("db_reductions")?,
            gac_rebuilds: serde::__private::field(v, "gac_rebuilds")?,
            peak_trail: serde::__private::field(v, "peak_trail")?,
            peak_depth: serde::__private::field(v, "peak_depth")?,
            kinds: serde::__private::field(v, "kinds")?,
        })
    }
}

impl SearchStats {
    /// True when every counter is zero (nothing was recorded).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == SearchStats::default()
    }

    /// Fold `other` into `self`: throughput counters add, peak counters
    /// take the maximum, and per-kind rows merge by kind name (keeping the
    /// table sorted for deterministic serialization).
    pub fn merge(&mut self, other: &SearchStats) {
        self.solves += other.solves;
        self.decisions += other.decisions;
        self.backtracks += other.backtracks;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
        self.backjump_sum += other.backjump_sum;
        self.db_reductions += other.db_reductions;
        self.gac_rebuilds += other.gac_rebuilds;
        self.peak_trail = self.peak_trail.max(other.peak_trail);
        self.peak_depth = self.peak_depth.max(other.peak_depth);
        for k in &other.kinds {
            match self.kinds.iter_mut().find(|mine| mine.kind == k.kind) {
                Some(mine) => {
                    mine.wakes += k.wakes;
                    mine.prunes += k.prunes;
                    mine.entailments += k.entailments;
                }
                None => self.kinds.push(k.clone()),
            }
        }
        self.kinds.sort_by(|a, b| a.kind.cmp(&b.kind));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(name: &str, wakes: u64, prunes: u64, entailments: u64) -> KindStats {
        KindStats {
            kind: name.to_string(),
            wakes,
            prunes,
            entailments,
        }
    }

    #[test]
    fn merge_sums_counters_and_maxes_peaks() {
        let mut a = SearchStats {
            solves: 1,
            decisions: 10,
            backtracks: 3,
            peak_trail: 100,
            peak_depth: 7,
            ..SearchStats::default()
        };
        let b = SearchStats {
            solves: 2,
            decisions: 5,
            backtracks: 4,
            peak_trail: 60,
            peak_depth: 9,
            ..SearchStats::default()
        };
        a.merge(&b);
        assert_eq!(a.solves, 3);
        assert_eq!(a.decisions, 15);
        assert_eq!(a.backtracks, 7);
        assert_eq!(a.peak_trail, 100);
        assert_eq!(a.peak_depth, 9);
    }

    #[test]
    fn merge_joins_kind_tables_by_name_sorted() {
        let mut a = SearchStats {
            kinds: vec![kind("linear_eq", 2, 1, 0), kind("alldiff_gac", 1, 5, 1)],
            ..SearchStats::default()
        };
        let b = SearchStats {
            kinds: vec![kind("alldiff_gac", 3, 2, 0), kind("table", 1, 1, 1)],
            ..SearchStats::default()
        };
        a.merge(&b);
        let names: Vec<&str> = a.kinds.iter().map(|k| k.kind.as_str()).collect();
        assert_eq!(names, vec!["alldiff_gac", "linear_eq", "table"]);
        let gac = &a.kinds[0];
        assert_eq!((gac.wakes, gac.prunes, gac.entailments), (4, 7, 1));
    }

    #[test]
    fn empty_detection_and_json_round_trip() {
        assert!(SearchStats::default().is_empty());
        let mut s = SearchStats {
            solves: 1,
            ..SearchStats::default()
        };
        s.kinds.push(kind("or", 4, 2, 2));
        assert!(!s.is_empty());
        let text = serde_json::to_string(&s).expect("serialize");
        let back: SearchStats = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, s);
    }

    #[test]
    fn learning_counters_merge_and_stay_serde_additive() {
        let mut a = SearchStats {
            conflicts: 4,
            learnt_clauses: 3,
            backjump_sum: 9,
            db_reductions: 1,
            ..SearchStats::default()
        };
        a.merge(&SearchStats {
            backjump_sum: 2,
            db_reductions: 1,
            ..SearchStats::default()
        });
        assert_eq!((a.backjump_sum, a.db_reductions), (11, 2));

        // Pre-learning records (no backjump_sum / db_reductions keys) must
        // still load; this JSON shape is pinned — do not extend it.
        let legacy = r#"{"solves":1,"decisions":8,"backtracks":2,
            "propagations":30,"conflicts":0,"restarts":0,
            "learnt_clauses":0,"gac_rebuilds":0,"peak_trail":12,
            "peak_depth":4,"kinds":[]}"#;
        let back: SearchStats = serde_json::from_str(legacy).expect("legacy parse");
        assert_eq!(back.backjump_sum, 0);
        assert_eq!(back.db_reductions, 0);

        // Zero learning counters serialize to the legacy byte shape, so
        // non-learning campaign fingerprints are unchanged.
        let text = serde_json::to_string(&SearchStats::default()).expect("serialize");
        assert!(!text.contains("backjump_sum"), "{text}");
        assert!(!text.contains("db_reductions"), "{text}");
    }
}
