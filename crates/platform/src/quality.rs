//! Processor quality and identical-processor grouping (Section VI-A).
//!
//! For heterogeneous platforms the paper suggests ordering the *search
//! variables* so that less capable processors come first, measuring
//! processor quality as `Q(Pj) = Σ_i si,j · Ci/Ti`, and restricting the
//! permutation-symmetry constraint (eq. 10) to pairs of *identical*
//! processors (eq. 13). Equal columns have equal quality, but distinct
//! columns can tie with them, and ties break by processor id: a group of
//! identical processors need not be contiguous in the quality order, so a
//! search that applies eq. 13 between adjacent visited processors only
//! prunes less there.

use crate::platform::{Platform, ProcId};

/// Quality of a processor expressed as an exact rational with a common
/// denominator, so ordering is total and reproducible: the pair
/// `(numerator, denominator)` represents `Σ_i si,j·Ci·(L/Ti) / L` where
/// `L = lcm(Ti)` is folded into the numerator by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QualityKey {
    /// `Σ_i si,j · Ci · (L / Ti)` for a common multiple `L` of the periods.
    pub weighted_demand: u128,
}

/// Compute `Q(Pj)` for every processor as exact integers over a common
/// period multiple `common_l` (`lcm` of the task periods; pass the
/// hyperperiod). `tasks` supplies `(Ci, Ti)` pairs.
#[must_use]
pub fn qualities(platform: &Platform, tasks: &[(u64, u64)], common_l: u64) -> Vec<QualityKey> {
    (0..platform.num_processors())
        .map(|j| {
            let weighted_demand = tasks
                .iter()
                .enumerate()
                .map(|(i, &(c, t))| {
                    u128::from(platform.rate(i, j)) * u128::from(c) * u128::from(common_l / t)
                })
                .sum();
            QualityKey { weighted_demand }
        })
        .collect()
}

/// Processor ordering for heterogeneous search: ascending quality (least
/// capable first, Section VI-A), ties broken by processor id for
/// determinism. Returns the permutation (a list of processor ids).
#[must_use]
pub fn quality_order(platform: &Platform, tasks: &[(u64, u64)], common_l: u64) -> Vec<ProcId> {
    let q = qualities(platform, tasks, common_l);
    let mut order: Vec<ProcId> = (0..platform.num_processors()).collect();
    order.sort_by_key(|&j| (q[j], j));
    order
}

/// Partition processors into groups of mutually identical processors
/// (equal rate-matrix columns). Within a group, eq. 13 symmetry breaking is
/// sound. Groups are returned in first-occurrence order; each group lists
/// processor ids in ascending order.
#[must_use]
pub fn identical_groups(platform: &Platform) -> Vec<Vec<ProcId>> {
    let mut groups: Vec<(Vec<u64>, Vec<ProcId>)> = Vec::new();
    for j in 0..platform.num_processors() {
        let sig = platform.signature(j);
        if let Some(g) = groups.iter_mut().find(|(s, _)| *s == sig) {
            g.1.push(j);
        } else {
            groups.push((sig, vec![j]));
        }
    }
    groups.into_iter().map(|(_, ids)| ids).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_platform_is_one_group() {
        let p = Platform::identical(3, 4).unwrap();
        assert_eq!(identical_groups(&p), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn groups_follow_signatures() {
        let p = Platform::heterogeneous(vec![vec![1, 2, 1, 2], vec![1, 1, 1, 1]]).unwrap();
        assert_eq!(identical_groups(&p), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn quality_orders_least_capable_first() {
        // Two tasks (C=1, T=2) each; P0 fast (rate 4), P1 slow (rate 1).
        let p = Platform::heterogeneous(vec![vec![4, 1], vec![4, 1]]).unwrap();
        let tasks = [(1u64, 2u64), (1, 2)];
        let order = quality_order(&p, &tasks, 2);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn quality_is_exact_rational() {
        // Q(P0) = 1·1/3, Q(P1) = 1·1/2 over L = 6: 2 vs 3.
        let p = Platform::heterogeneous(vec![vec![1, 0], vec![0, 1]]).unwrap();
        let tasks = [(1u64, 3u64), (1, 2)];
        let q = qualities(&p, &tasks, 6);
        assert_eq!(q[0].weighted_demand, 2);
        assert_eq!(q[1].weighted_demand, 3);
    }

    #[test]
    fn ties_broken_by_id() {
        let p = Platform::identical(2, 3).unwrap();
        let tasks = [(1u64, 2u64), (1, 4)];
        assert_eq!(quality_order(&p, &tasks, 4), vec![0, 1, 2]);
    }

    #[test]
    fn identical_processors_have_equal_quality() {
        let p = Platform::heterogeneous(vec![vec![2, 1, 2], vec![1, 3, 1]]).unwrap();
        let tasks = [(1u64, 2u64), (2, 3)];
        let q = qualities(&p, &tasks, 6);
        assert_eq!(q[0], q[2]);
        assert_ne!(q[0], q[1]);
    }
}
