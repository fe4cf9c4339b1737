//! Differential validation of the CDCL solver against exhaustive search on
//! random formulas, plus structured families with known status.

use proptest::prelude::*;

use rt_sat::{at_most_k, exactly_k, AmoEncoding, Cnf, Lit, SatConfig, SatOutcome, SatSolver};

/// A random clause set over `n` vars: each clause 1–4 literals.
fn arb_cnf(max_vars: u32, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    let clause = proptest::collection::vec((0..max_vars, any::<bool>()), 1..=4);
    proptest::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| {
        let mut cnf = Cnf::new();
        let _ = cnf.new_vars(max_vars);
        for c in clauses {
            cnf.add_clause(
                &c.into_iter()
                    .map(|(v, neg)| Lit::new(v, neg))
                    .collect::<Vec<_>>(),
            );
        }
        cnf
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// CDCL and brute force must agree on satisfiability, and any model
    /// returned must actually satisfy the formula.
    #[test]
    fn agrees_with_brute_force(cnf in arb_cnf(8, 24)) {
        let expected = cnf.brute_force();
        match SatSolver::solve_cnf(&cnf) {
            SatOutcome::Sat(model) => {
                prop_assert!(expected.is_some(), "CDCL SAT but formula is UNSAT");
                prop_assert!(cnf.eval(&model), "CDCL model does not satisfy formula");
            }
            SatOutcome::Unsat => prop_assert!(expected.is_none(), "CDCL UNSAT but formula is SAT"),
            SatOutcome::Unknown(r) => prop_assert!(false, "unbudgeted solve returned Unknown: {:?}", r),
        }
    }

    /// Cardinality encodings solved by CDCL match the predicate semantics:
    /// the model restricted to the base variables satisfies the bound.
    #[test]
    fn cardinality_models_respect_bounds(n in 3usize..10, k in 0u32..6, lo in 0u32..4) {
        let mut cnf = Cnf::new();
        let vars: Vec<u32> = (0..n).map(|_| cnf.new_var()).collect();
        let lits: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
        at_most_k(&mut cnf, &lits, k);
        rt_sat::at_least_k(&mut cnf, &lits, lo);
        let sat_expected = u64::from(lo) <= (k as u64).min(n as u64) && lo as usize <= n;
        match SatSolver::solve_cnf(&cnf) {
            SatOutcome::Sat(model) => {
                let trues = vars.iter().filter(|&&v| model[v as usize]).count() as u32;
                // k ≥ n makes the at-most constraint vacuous.
                prop_assert!(trues <= k || k as usize >= n);
                prop_assert!(trues >= lo);
                prop_assert!(sat_expected);
            }
            SatOutcome::Unsat => prop_assert!(!sat_expected, "lo={} k={} n={} should be SAT", lo, k, n),
            SatOutcome::Unknown(_) => prop_assert!(false),
        }
    }

    /// DIMACS round-trip preserves solver verdicts.
    #[test]
    fn dimacs_roundtrip_preserves_verdict(cnf in arb_cnf(6, 16)) {
        let text = cnf.to_dimacs();
        let parsed = Cnf::from_dimacs(&text).unwrap();
        let a = matches!(SatSolver::solve_cnf(&cnf), SatOutcome::Sat(_));
        let b = matches!(SatSolver::solve_cnf(&parsed), SatOutcome::Sat(_));
        prop_assert_eq!(a, b);
    }
}

/// Pigeonhole PHP(n+1, n): always UNSAT, a classic resolution-hard family
/// that exercises clause learning.
fn pigeonhole(holes: u32, pigeons: u32) -> Cnf {
    let mut cnf = Cnf::new();
    let var = |h: u32, p: u32| h * pigeons + p;
    let _ = cnf.new_vars(holes * pigeons);
    for p in 0..pigeons {
        cnf.add_clause(&(0..holes).map(|h| Lit::pos(var(h, p))).collect::<Vec<_>>());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                cnf.add_binary(Lit::neg(var(h, p1)), Lit::neg(var(h, p2)));
            }
        }
    }
    cnf
}

#[test]
fn pigeonhole_family_unsat() {
    for holes in 2..=6 {
        let cnf = pigeonhole(holes, holes + 1);
        assert_eq!(
            SatSolver::solve_cnf(&cnf),
            SatOutcome::Unsat,
            "PHP({}, {holes})",
            holes + 1
        );
    }
}

#[test]
fn pigeonhole_exact_fit_sat() {
    for holes in 2..=6 {
        let mut cnf = pigeonhole(holes, holes);
        // Also demand each hole used at most once is already there; feasible.
        match SatSolver::solve_cnf(&cnf) {
            SatOutcome::Sat(m) => assert!(cnf.eval(&m)),
            other => panic!("PHP({holes},{holes}) must be SAT, got {other:?}"),
        }
        // Forcing pigeon 0 out of every hole flips it to UNSAT.
        for h in 0..holes {
            cnf.add_unit(Lit::neg(h * holes));
        }
        assert_eq!(SatSolver::solve_cnf(&cnf), SatOutcome::Unsat);
    }
}

/// Random 3-SAT at the phase-transition ratio (4.26 clauses/var): both
/// verdicts occur and every SAT model checks out. Uses a fixed seed series
/// for reproducibility.
#[test]
fn random_3sat_phase_transition() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let n_vars = 40u32;
    let n_clauses = 170usize;
    let mut sat_seen = 0;
    let mut unsat_seen = 0;
    for seed in 0..30u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cnf = Cnf::new();
        let _ = cnf.new_vars(n_vars);
        for _ in 0..n_clauses {
            let mut lits = Vec::with_capacity(3);
            while lits.len() < 3 {
                let v = rng.gen_range(0..n_vars);
                let l = Lit::new(v, rng.gen());
                if !lits.contains(&l) && !lits.contains(&!l) {
                    lits.push(l);
                }
            }
            cnf.add_clause(&lits);
        }
        match SatSolver::solve_cnf(&cnf) {
            SatOutcome::Sat(m) => {
                assert!(cnf.eval(&m), "seed {seed}: bad model");
                sat_seen += 1;
            }
            SatOutcome::Unsat => unsat_seen += 1,
            SatOutcome::Unknown(r) => panic!("seed {seed}: unexpected {r:?}"),
        }
    }
    assert!(sat_seen > 0, "phase transition should yield some SAT");
    assert!(unsat_seen > 0, "phase transition should yield some UNSAT");
}

/// The `exactly_k` encoding composed per row/column solves a small exact
/// cover: a 4×4 permutation-matrix problem (exactly one true per row and
/// column) has a model, and demanding 2 per row with 1 per column is UNSAT.
#[test]
fn permutation_matrix() {
    let n = 4u32;
    let mut cnf = Cnf::new();
    let var = |r: u32, c: u32| r * n + c;
    let _ = cnf.new_vars(n * n);
    for r in 0..n {
        let row: Vec<Lit> = (0..n).map(|c| Lit::pos(var(r, c))).collect();
        exactly_k(&mut cnf, &row, 1);
    }
    for c in 0..n {
        let col: Vec<Lit> = (0..n).map(|r| Lit::pos(var(r, c))).collect();
        rt_sat::exactly_one(&mut cnf, &col, AmoEncoding::Ladder);
    }
    match SatSolver::solve_cnf(&cnf) {
        SatOutcome::Sat(m) => {
            for r in 0..n {
                let trues = (0..n).filter(|&c| m[var(r, c) as usize]).count();
                assert_eq!(trues, 1, "row {r}");
            }
        }
        other => panic!("expected SAT, got {other:?}"),
    }

    // Overconstrain: rows want 2 each (8 total) but columns allow 4.
    let mut cnf2 = Cnf::new();
    let _ = cnf2.new_vars(n * n);
    for r in 0..n {
        let row: Vec<Lit> = (0..n).map(|c| Lit::pos(var(r, c))).collect();
        exactly_k(&mut cnf2, &row, 2);
    }
    for c in 0..n {
        let col: Vec<Lit> = (0..n).map(|r| Lit::pos(var(r, c))).collect();
        exactly_k(&mut cnf2, &col, 1);
    }
    assert_eq!(SatSolver::solve_cnf(&cnf2), SatOutcome::Unsat);
}

/// Budgeted solves on a hard instance report `Unknown` and never lie.
#[test]
fn budget_never_lies() {
    let cnf = pigeonhole(7, 8);
    let cfg = SatConfig {
        max_conflicts: Some(10),
        ..SatConfig::default()
    };
    match SatSolver::new(&cnf, cfg).solve() {
        SatOutcome::Unknown(_) | SatOutcome::Unsat => {}
        SatOutcome::Sat(_) => panic!("PHP(8,7) cannot be SAT"),
    }
}
