//! Core SAT types: variables, literals and ternary truth values.
//!
//! A variable is a dense index `0..num_vars`; a literal packs the variable
//! and its polarity into one `u32` (`lit = var·2 + sign`), the layout used
//! by MiniSat-family solvers so that a literal indexes watch lists directly.

use std::fmt;

/// A propositional variable, a dense index starting at 0.
pub type Var = u32;

/// A literal: a variable together with a polarity.
///
/// Internally `code = var·2 + (negated as u32)`, so `Lit` values of the
/// same variable are adjacent and `lit ^ 1` is the complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    #[must_use]
    pub const fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of `v`.
    #[must_use]
    pub fn neg(v: Var) -> Lit {
        Lit((v << 1) | 1)
    }

    /// Build from a variable and a sign (`true` = negated).
    #[must_use]
    pub fn new(v: Var, negated: bool) -> Lit {
        Lit((v << 1) | u32::from(negated))
    }

    /// The underlying variable.
    #[must_use]
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// True when the literal is negative (`¬v`).
    #[must_use]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// The packed code, suitable for indexing watch lists.
    #[must_use]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Lit::code`].
    #[must_use]
    pub fn from_code(code: usize) -> Lit {
        Lit(u32::try_from(code).expect("literal code fits u32"))
    }

    /// DIMACS form: 1-based, negative when the literal is negated.
    #[must_use]
    pub fn to_dimacs(self) -> i64 {
        let v = i64::from(self.var()) + 1;
        if self.is_neg() {
            -v
        } else {
            v
        }
    }

    /// Parse a DIMACS literal (nonzero, 1-based).
    ///
    /// # Panics
    /// Panics when `d == 0`.
    #[must_use]
    pub fn from_dimacs(d: i64) -> Lit {
        assert!(d != 0, "DIMACS literal must be nonzero");
        let v = Var::try_from(d.unsigned_abs() - 1).expect("variable fits u32");
        Lit::new(v, d < 0)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negate()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// Ternary assignment value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    Undef,
}

impl LBool {
    /// The truth value of `lit` given this value of its variable.
    #[must_use]
    pub fn under(self, lit: Lit) -> LBool {
        match (self, lit.is_neg()) {
            (LBool::Undef, _) => LBool::Undef,
            (LBool::True, false) | (LBool::False, true) => LBool::True,
            (LBool::True, true) | (LBool::False, false) => LBool::False,
        }
    }

    /// Convert to a `bool`, panicking on `Undef`.
    #[must_use]
    pub fn expect_bool(self) -> bool {
        match self {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => panic!("LBool::Undef has no boolean value"),
        }
    }
}

impl From<bool> for LBool {
    fn from(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_roundtrip() {
        for v in [0u32, 1, 5, 1000] {
            assert_eq!(Lit::pos(v).var(), v);
            assert_eq!(Lit::neg(v).var(), v);
            assert!(!Lit::pos(v).is_neg());
            assert!(Lit::neg(v).is_neg());
            assert_eq!(!Lit::pos(v), Lit::neg(v));
            assert_eq!(!!Lit::pos(v), Lit::pos(v));
            assert_eq!(Lit::from_code(Lit::neg(v).code()), Lit::neg(v));
        }
    }

    #[test]
    fn dimacs_roundtrip() {
        for d in [1i64, -1, 7, -42] {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
        assert_eq!(Lit::pos(0).to_dimacs(), 1);
        assert_eq!(Lit::neg(0).to_dimacs(), -1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn dimacs_zero_rejected() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn lbool_under() {
        assert_eq!(LBool::True.under(Lit::pos(0)), LBool::True);
        assert_eq!(LBool::True.under(Lit::neg(0)), LBool::False);
        assert_eq!(LBool::False.under(Lit::pos(0)), LBool::False);
        assert_eq!(LBool::False.under(Lit::neg(0)), LBool::True);
        assert_eq!(LBool::Undef.under(Lit::pos(0)), LBool::Undef);
    }
}
