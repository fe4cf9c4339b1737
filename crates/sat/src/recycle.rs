//! Per-thread recycling of formula and solver buffers.
//!
//! At the paper's Table I size one SAT solve builds a formula of about
//! 92 000 clauses and a solver over it, and allocating, page-faulting and
//! freeing those buffers costs more than a short search. So a
//! [`crate::Cnf`] and a [`crate::SatSolver`] hand their buffers to a slot
//! of the current thread when they are dropped, and the next construction
//! on that thread takes them back: a thread that solves one formula after
//! another allocates only when a formula outgrows every earlier one. The
//! slot helpers and the cap, [`MAX_RECYCLED_BYTES`], are
//! [`mgrts_obs::recycle`]'s, shared with `csp_engine`.

pub use mgrts_obs::recycle::MAX_RECYCLED_BYTES;
pub(crate) use mgrts_obs::recycle::{bytes, put, refill, take};

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use mgrts_obs::recycle::parked;
    use mgrts_obs::SearchStats;

    use super::*;
    use crate::cnf::CNF_BUFFERS;
    use crate::solver::SOLVER_BUFFERS;
    use crate::{at_most_one, AmoEncoding, Cnf, Lit, SatConfig, SatLimit, SatOutcome, SatSolver};

    /// One solve of the sequence.
    #[derive(Debug, Clone, Copy)]
    enum Case {
        /// Seeded random 3-SAT under a conflict budget.
        Random {
            vars: u32,
            clauses: u32,
            seed: u64,
        },
        /// A formula whose interrupt is raised before construction.
        Interrupted,
        /// A formula whose interrupt another thread raises while it loads:
        /// where the load stops varies, so only the outcome is compared.
        CutMidLoad,
        /// Contradictory units: unsatisfiable while loading.
        RootUnsat,
        Empty,
        /// Pigeonhole with at-most-one groups, under the conflict budget.
        Pigeonhole {
            pigeons: u32,
            holes: u32,
        },
    }

    /// Larger, smaller, larger again, the interrupted loads, a root-UNSAT
    /// formula, the empty one and formulas with groups, each followed by a
    /// solve that must not see what it left behind.
    const SEQUENCE: [Case; 13] = [
        Case::Random {
            vars: 200,
            clauses: 850,
            seed: 1,
        },
        Case::Random {
            vars: 30,
            clauses: 120,
            seed: 2,
        },
        Case::Random {
            vars: 260,
            clauses: 1100,
            seed: 3,
        },
        Case::Interrupted,
        Case::Random {
            vars: 220,
            clauses: 930,
            seed: 4,
        },
        Case::CutMidLoad,
        Case::Random {
            vars: 240,
            clauses: 1000,
            seed: 5,
        },
        Case::RootUnsat,
        Case::Empty,
        Case::Random {
            vars: 180,
            clauses: 770,
            seed: 6,
        },
        Case::Pigeonhole {
            pigeons: 8,
            holes: 7,
        },
        Case::Pigeonhole {
            pigeons: 6,
            holes: 5,
        },
        Case::Random {
            vars: 200,
            clauses: 850,
            seed: 1,
        },
    ];

    fn random_3sat(vars: u32, clauses: u32, mut seed: u64) -> Cnf {
        let mut next = move |bound: u32| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            u32::try_from(seed >> 33).unwrap() % bound
        };
        let mut cnf = Cnf::new();
        let _ = cnf.new_vars(vars);
        for _ in 0..clauses {
            cnf.add_clause(&[0; 3].map(|_| Lit::new(next(vars), next(2) == 1)));
        }
        cnf
    }

    /// `pigeons` pigeons in `holes` holes, each hole an at-most-one group:
    /// the pairs of the groups keep their activities in a solver buffer
    /// of their own.
    fn pigeonhole(pigeons: u32, holes: u32) -> Cnf {
        let x = |h: u32, p: u32| Lit::pos(h * pigeons + p);
        let mut cnf = Cnf::new();
        for p in 0..pigeons {
            cnf.add_clause(&(0..holes).map(|h| x(h, p)).collect::<Vec<_>>());
        }
        for h in 0..holes {
            let hole: Vec<Lit> = (0..pigeons).map(|p| x(h, p)).collect();
            at_most_one(&mut cnf, &hole, AmoEncoding::Pairwise);
        }
        cnf
    }

    /// The outcome, counters and stored clauses of one solve.
    type Run = (SatOutcome, SearchStats, Vec<Vec<Lit>>);

    fn run(case: Case) -> Run {
        let cfg = SatConfig {
            max_conflicts: Some(3_000),
            ..SatConfig::default()
        };
        let clauses = |cnf: &Cnf| cnf.clauses().map(|c| c.to_vec()).collect();
        match case {
            Case::Random {
                vars,
                clauses: count,
                seed,
            } => {
                let cnf = random_3sat(vars, count, seed);
                let mut s = SatSolver::new(&cnf, cfg);
                (s.solve(), s.stats(), clauses(&cnf))
            }
            Case::Interrupted => {
                let cnf = random_3sat(150, 640, 7);
                let flag = Some(Arc::new(AtomicBool::new(true)));
                let mut s = SatSolver::with_interrupt(&cnf, cfg, flag);
                (s.solve(), s.stats(), clauses(&cnf))
            }
            Case::CutMidLoad => {
                let cnf = random_3sat(3_000, 12_000, 8);
                let flag = Arc::new(AtomicBool::new(false));
                let raiser = {
                    let flag = flag.clone();
                    std::thread::spawn(move || flag.store(true, Ordering::Relaxed))
                };
                let mut s = SatSolver::with_interrupt(&cnf, cfg, Some(flag));
                raiser.join().unwrap();
                (s.solve(), SearchStats::default(), clauses(&cnf))
            }
            Case::RootUnsat => {
                let mut cnf = random_3sat(100, 300, 9);
                cnf.add_unit(Lit::pos(3));
                cnf.add_binary(Lit::neg(3), Lit::pos(4));
                cnf.add_unit(Lit::neg(4));
                let mut s = SatSolver::new(&cnf, cfg);
                (s.solve(), s.stats(), clauses(&cnf))
            }
            Case::Empty => {
                let cnf = Cnf::new();
                let mut s = SatSolver::new(&cnf, cfg);
                (s.solve(), s.stats(), clauses(&cnf))
            }
            Case::Pigeonhole { pigeons, holes } => {
                let cnf = pigeonhole(pigeons, holes);
                let mut s = SatSolver::new(&cnf, cfg);
                (s.solve(), s.stats(), clauses(&cnf))
            }
        }
    }

    /// Each solve of [`SEQUENCE`] once on a thread of its own, whose
    /// slots are empty, and once on one thread in sequence, where every
    /// solve after the first starts from the buffers the previous one left:
    /// outcomes, models, counters and stored clauses agree.
    #[test]
    fn recycled_buffers_solve_like_fresh_ones() {
        let fresh: Vec<Run> = SEQUENCE
            .iter()
            .map(|&case| {
                std::thread::spawn(move || {
                    assert!(!parked(&CNF_BUFFERS) && !parked(&SOLVER_BUFFERS));
                    run(case)
                })
                .join()
                .unwrap()
            })
            .collect();
        let recycled: Vec<Run> = std::thread::spawn(|| {
            let mut runs = Vec::new();
            for (k, &case) in SEQUENCE.iter().enumerate() {
                if k > 0 {
                    assert!(parked(&CNF_BUFFERS) && parked(&SOLVER_BUFFERS));
                }
                runs.push(run(case));
            }
            runs
        })
        .join()
        .unwrap();

        for ((case, a), b) in SEQUENCE.iter().zip(&fresh).zip(&recycled) {
            assert_eq!(a, b, "{case:?} solved differently on recycled buffers");
        }
        let outcomes: Vec<&SatOutcome> = fresh.iter().map(|r| &r.0).collect();
        assert!(outcomes.iter().any(|o| matches!(o, SatOutcome::Sat(_))));
        assert!(outcomes.contains(&&SatOutcome::Unknown(SatLimit::Conflicts)));
        assert_eq!(*outcomes[3], SatOutcome::Unknown(SatLimit::Interrupted));
        assert_eq!(*outcomes[5], SatOutcome::Unknown(SatLimit::Interrupted));
        assert_eq!(*outcomes[7], SatOutcome::Unsat);
        assert_eq!(*outcomes[8], SatOutcome::Sat(Vec::new()));
        assert_eq!(*outcomes[10], SatOutcome::Unknown(SatLimit::Conflicts));
        assert_eq!(*outcomes[11], SatOutcome::Unsat);
        assert_eq!(fresh[12], fresh[0]);
    }

    /// A set above the cap is freed, not parked.
    #[test]
    fn sets_above_the_cap_are_not_kept() {
        std::thread::spawn(|| {
            put(&CNF_BUFFERS, Default::default(), MAX_RECYCLED_BYTES + 1);
            assert!(!parked(&CNF_BUFFERS));
            put(&CNF_BUFFERS, Default::default(), MAX_RECYCLED_BYTES);
            assert!(parked(&CNF_BUFFERS));
        })
        .join()
        .unwrap();
    }
}
