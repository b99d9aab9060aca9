//! Provenance polynomials N\[X\] — the most general tuple-based provenance
//! (Green, Karvounarakis, Tannen, PODS 2007), which the paper's graphs
//! encode. Every other semiring in Table 1 is a homomorphic image of this
//! one; the property tests exploit that.

use proql_common::{Error, Result};
use std::collections::BTreeMap;
use std::fmt;

/// The error a product raises when an exponent would pass `u32::MAX`.
pub(crate) fn exponent_overflow() -> Error {
    Error::Overflow("polynomial exponent overflow".into())
}

/// A monomial: a multiset of variables (variable → exponent).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Monomial(pub BTreeMap<String, u32>);

impl Monomial {
    /// The empty monomial (multiplicative unit).
    pub fn one() -> Self {
        Monomial::default()
    }

    /// A single variable.
    pub fn var(name: impl Into<String>) -> Self {
        let mut m = BTreeMap::new();
        m.insert(name.into(), 1);
        Monomial(m)
    }

    /// Product of two monomials (exponents add). An exponent past
    /// `u32::MAX` is [`Error::Overflow`].
    pub fn mul(&self, other: &Monomial) -> Result<Monomial> {
        let mut out = self.0.clone();
        for (v, e) in &other.0 {
            let slot = out.entry(v.clone()).or_insert(0);
            *slot = slot.checked_add(*e).ok_or_else(exponent_overflow)?;
        }
        Ok(Monomial(out))
    }

    /// Total degree.
    pub fn degree(&self) -> u32 {
        self.0.values().sum()
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "1");
        }
        for (i, (v, e)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            if *e == 1 {
                write!(f, "{v}")?;
            } else {
                write!(f, "{v}^{e}")?;
            }
        }
        Ok(())
    }
}

/// A provenance polynomial with natural-number coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Polynomial {
    /// monomial → coefficient (no zero coefficients stored).
    terms: BTreeMap<Monomial, u64>,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial::default()
    }

    /// The unit polynomial `1`.
    pub fn one() -> Self {
        Polynomial::constant(1)
    }

    /// A constant polynomial.
    pub fn constant(c: u64) -> Self {
        let mut terms = BTreeMap::new();
        if c != 0 {
            terms.insert(Monomial::one(), c);
        }
        Polynomial { terms }
    }

    /// The polynomial `x` for a single variable.
    pub fn var(name: impl Into<String>) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(Monomial::var(name), 1);
        Polynomial { terms }
    }

    /// True iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Sum.
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let mut out = self.terms.clone();
        for (m, c) in &other.terms {
            let e = out.entry(m.clone()).or_insert(0);
            *e = e.saturating_add(*c);
        }
        Polynomial { terms: out }
    }

    /// Product. Coefficients saturate; an exponent past `u32::MAX` is
    /// [`Error::Overflow`].
    pub fn mul(&self, other: &Polynomial) -> Result<Polynomial> {
        let mut out: BTreeMap<Monomial, u64> = BTreeMap::new();
        for (m1, c1) in &self.terms {
            for (m2, c2) in &other.terms {
                let m = m1.mul(m2)?;
                let e = out.entry(m).or_insert(0);
                *e = e.saturating_add(c1.saturating_mul(*c2));
            }
        }
        Ok(Polynomial { terms: out })
    }

    /// Build from `(monomial, coefficient)` terms with nonzero, distinct
    /// monomials (the compact tag decoder's output).
    pub(crate) fn from_terms(terms: impl IntoIterator<Item = (Monomial, u64)>) -> Polynomial {
        Polynomial {
            terms: terms.into_iter().collect(),
        }
    }

    /// The terms, by value.
    pub(crate) fn into_terms(self) -> BTreeMap<Monomial, u64> {
        self.terms
    }

    /// The terms (monomial → coefficient).
    pub fn terms(&self) -> &BTreeMap<Monomial, u64> {
        &self.terms
    }

    /// Number of monomials.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Evaluate under a valuation of the variables into `u64` (counting
    /// homomorphism; saturating arithmetic).
    pub fn eval_counting(&self, valuation: &dyn Fn(&str) -> u64) -> u64 {
        let mut total: u64 = 0;
        for (m, c) in &self.terms {
            let mut prod: u64 = *c;
            for (v, e) in &m.0 {
                for _ in 0..*e {
                    prod = prod.saturating_mul(valuation(v));
                }
            }
            total = total.saturating_add(prod);
        }
        total
    }

    /// Evaluate under a boolean valuation (derivability homomorphism).
    pub fn eval_bool(&self, valuation: &dyn Fn(&str) -> bool) -> bool {
        self.terms
            .iter()
            .any(|(m, _)| m.0.keys().all(|v| valuation(v)))
    }

    /// Evaluate into the tropical (weight/cost) semiring: coefficients are
    /// ignored beyond existence, monomials sum their variables' weights, and
    /// alternatives take the minimum.
    pub fn eval_tropical(&self, valuation: &dyn Fn(&str) -> f64) -> f64 {
        let mut best = f64::INFINITY;
        for m in self.terms.keys() {
            let mut w = 0.0;
            for (v, e) in &m.0 {
                w += valuation(v) * f64::from(*e);
            }
            best = best.min(w);
        }
        best
    }

    /// All distinct variables (the lineage homomorphism maps a polynomial
    /// to this set).
    pub fn variables(&self) -> std::collections::BTreeSet<String> {
        self.terms
            .keys()
            .flat_map(|m| m.0.keys().cloned())
            .collect()
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (m, c)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if *c != 1 || m.0.is_empty() {
                write!(f, "{c}")?;
                if !m.0.is_empty() {
                    write!(f, "·")?;
                }
            }
            if !m.0.is_empty() {
                write!(f, "{m}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Polynomial {
        Polynomial::var("x")
    }
    fn y() -> Polynomial {
        Polynomial::var("y")
    }

    fn mul(a: &Polynomial, b: &Polynomial) -> Polynomial {
        a.mul(b).unwrap()
    }

    #[test]
    fn ring_identities() {
        let p = x().add(&y());
        assert_eq!(p.add(&Polynomial::zero()), p);
        assert_eq!(mul(&p, &Polynomial::one()), p);
        assert!(mul(&p, &Polynomial::zero()).is_zero());
    }

    #[test]
    fn distributivity() {
        let lhs = mul(&x(), &y().add(&Polynomial::one()));
        let rhs = mul(&x(), &y()).add(&x());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn exponent_overflow_is_an_error() {
        let mut big = BTreeMap::new();
        big.insert("x".to_string(), u32::MAX);
        let m = Monomial(big);
        assert!(matches!(
            m.mul(&Monomial::var("x")),
            Err(Error::Overflow(_))
        ));
        assert!(m.mul(&Monomial::var("y")).is_ok());
        let p = Polynomial::from_terms([(m, 1)]);
        assert!(matches!(p.mul(&x()), Err(Error::Overflow(_))));
    }

    #[test]
    fn display_formats() {
        // (x + y)^2 = x^2 + 2xy + y^2
        let p = x().add(&y());
        let sq = mul(&p, &p);
        // BTreeMap term order: {x:1,y:1} sorts before {x:2}.
        assert_eq!(sq.to_string(), "2·x·y + x^2 + y^2");
        assert_eq!(Polynomial::zero().to_string(), "0");
        assert_eq!(Polynomial::one().to_string(), "1");
    }

    #[test]
    fn counting_homomorphism() {
        // 2xy + x at x=3, y=2 → 2*3*2 + 3 = 15
        let p = mul(&mul(&Polynomial::constant(2), &x()), &y()).add(&x());
        assert_eq!(p.eval_counting(&|v| if v == "x" { 3 } else { 2 }), 15);
    }

    #[test]
    fn bool_homomorphism() {
        let p = mul(&x(), &y()).add(&x());
        // x true suffices via the second monomial.
        assert!(p.eval_bool(&|v| v == "x"));
        assert!(!p.eval_bool(&|v| v == "y"));
        assert!(!Polynomial::zero().eval_bool(&|_| true));
        assert!(Polynomial::one().eval_bool(&|_| false));
    }

    #[test]
    fn tropical_homomorphism() {
        // min over monomials of summed weights: xy + x with w(x)=2, w(y)=5
        let p = mul(&x(), &y()).add(&x());
        let w = |v: &str| if v == "x" { 2.0 } else { 5.0 };
        assert_eq!(p.eval_tropical(&w), 2.0);
        assert_eq!(Polynomial::zero().eval_tropical(&w), f64::INFINITY);
    }

    #[test]
    fn variables_collects_lineage() {
        let p = mul(&x(), &y()).add(&x());
        let vars = p.variables();
        assert_eq!(vars.len(), 2);
        assert!(vars.contains("x") && vars.contains("y"));
    }

    #[test]
    fn monomial_degree_and_mul() {
        let m = Monomial::var("x")
            .mul(&Monomial::var("x"))
            .and_then(|m| m.mul(&Monomial::var("y")))
            .unwrap();
        assert_eq!(m.degree(), 3);
        assert_eq!(m.to_string(), "x^2·y");
    }
}
