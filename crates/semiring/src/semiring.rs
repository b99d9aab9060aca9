//! The semiring operations of Table 1, plus mapping functions.

use crate::annotation::{minimize_dnf, Annotation, Dnf, SecurityLevel};
use crate::polynomial::Polynomial;
use proql_common::{Error, Result};
use std::collections::BTreeSet;
use std::fmt;

/// The semirings ProQL can evaluate (Table 1 + provenance polynomials).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemiringKind {
    /// Boolean derivability: base `true`, ∧ / ∨.
    Derivability,
    /// Trust: like derivability but base values come from trust conditions
    /// and mappings may distrust.
    Trust,
    /// Confidentiality levels: `more_secure` / `less_secure`.
    Confidentiality,
    /// Weight/cost (tropical): `+` / `min`.
    Weight,
    /// Lineage: set of contributing base tuples, ∪ / ∪.
    Lineage,
    /// Probabilistic event expressions: ∩ / ∪ over events (PosBool).
    Probability,
    /// Number of derivations: `·` / `+` over naturals.
    Counting,
    /// Provenance polynomials N\[X\] (the universal semiring).
    Polynomial,
}

impl SemiringKind {
    /// Parse the name used in `EVALUATE <name> OF`.
    pub fn parse(s: &str) -> Option<SemiringKind> {
        match s.to_ascii_uppercase().as_str() {
            "DERIVABILITY" => Some(SemiringKind::Derivability),
            "TRUST" => Some(SemiringKind::Trust),
            "CONFIDENTIALITY" => Some(SemiringKind::Confidentiality),
            "WEIGHT" | "COST" => Some(SemiringKind::Weight),
            "LINEAGE" => Some(SemiringKind::Lineage),
            "PROBABILITY" => Some(SemiringKind::Probability),
            "COUNT" | "COUNTING" | "DERIVATIONS" => Some(SemiringKind::Counting),
            "POLYNOMIAL" | "HOW" => Some(SemiringKind::Polynomial),
            _ => None,
        }
    }

    /// The ⊕-identity (annihilator of ⊗).
    pub fn zero(&self) -> Annotation {
        match self {
            SemiringKind::Derivability | SemiringKind::Trust => Annotation::Bool(false),
            SemiringKind::Confidentiality => Annotation::Level(SecurityLevel::TopSecret),
            SemiringKind::Weight => Annotation::Weight(f64::INFINITY),
            SemiringKind::Lineage => Annotation::Lineage(None),
            SemiringKind::Probability => Annotation::Event(Dnf::new()),
            SemiringKind::Counting => Annotation::Count(0),
            SemiringKind::Polynomial => Annotation::Poly(Polynomial::zero()),
        }
    }

    /// The ⊗-identity.
    pub fn one(&self) -> Annotation {
        match self {
            SemiringKind::Derivability | SemiringKind::Trust => Annotation::Bool(true),
            SemiringKind::Confidentiality => Annotation::Level(SecurityLevel::Public),
            SemiringKind::Weight => Annotation::Weight(0.0),
            SemiringKind::Lineage => Annotation::Lineage(Some(BTreeSet::new())),
            SemiringKind::Probability => {
                let mut d = Dnf::new();
                d.insert(BTreeSet::new());
                Annotation::Event(d)
            }
            SemiringKind::Counting => Annotation::Count(1),
            SemiringKind::Polynomial => Annotation::Poly(Polynomial::one()),
        }
    }

    /// The default **base value** for a leaf tuple labeled `label`
    /// (Table 1's "base value" column): the tuple's own id/variable for
    /// lineage, probability, and polynomials; the ⊗-identity otherwise.
    pub fn default_leaf(&self, label: &str) -> Annotation {
        match self {
            SemiringKind::Lineage => {
                let mut s = BTreeSet::new();
                s.insert(label.to_string());
                Annotation::Lineage(Some(s))
            }
            SemiringKind::Probability => {
                let mut conj = BTreeSet::new();
                conj.insert(label.to_string());
                let mut d = Dnf::new();
                d.insert(conj);
                Annotation::Event(d)
            }
            SemiringKind::Polynomial => Annotation::Poly(Polynomial::var(label)),
            _ => self.one(),
        }
    }

    /// ⊕ is idempotent (`a ⊕ a = a`).
    pub fn idempotent(&self) -> bool {
        !matches!(self, SemiringKind::Counting | SemiringKind::Polynomial)
    }

    /// Absorption holds (`a ⊕ (a ⊗ b) = a`). Weight absorption assumes
    /// non-negative weights. Lineage is idempotent but *not* absorptive
    /// (`{a} ∪ ({a} ∪ {b}) = {a,b}`); it still converges on cycles because
    /// its value lattice is finite.
    pub fn absorptive(&self) -> bool {
        self.idempotent() && !matches!(self, SemiringKind::Lineage)
    }

    /// Fixpoint iteration over a cyclic graph converges: all idempotent
    /// semirings here (the paper's first five Table 1 rows).
    pub fn converges_on_cycles(&self) -> bool {
        self.idempotent()
    }

    /// Abstract sum ⊕.
    pub fn plus(&self, a: &Annotation, b: &Annotation) -> Result<Annotation> {
        use Annotation::*;
        Ok(match (self, a, b) {
            (SemiringKind::Derivability | SemiringKind::Trust, Bool(x), Bool(y)) => Bool(*x || *y),
            (SemiringKind::Confidentiality, Level(x), Level(y)) => {
                // less_secure = min
                Level(*x.min(y))
            }
            (SemiringKind::Weight, Weight(x), Weight(y)) => Weight(x.min(*y)),
            (SemiringKind::Lineage, Lineage(x), Lineage(y)) => Lineage(match (x, y) {
                (None, o) | (o, None) => o.clone(),
                (Some(x), Some(y)) => Some(x.union(y).cloned().collect()),
            }),
            (SemiringKind::Probability, Event(x), Event(y)) => {
                Event(minimize_dnf(&x.union(y).cloned().collect()))
            }
            (SemiringKind::Counting, Count(x), Count(y)) => Count(
                x.checked_add(*y)
                    .ok_or_else(|| Error::Overflow("derivation count overflow".into()))?,
            ),
            (SemiringKind::Polynomial, Poly(x), Poly(y)) => Poly(x.add(y)),
            _ => return Err(type_error(self, a, b, "⊕")),
        })
    }

    /// Abstract product ⊗.
    pub fn times(&self, a: &Annotation, b: &Annotation) -> Result<Annotation> {
        use Annotation::*;
        Ok(match (self, a, b) {
            (SemiringKind::Derivability | SemiringKind::Trust, Bool(x), Bool(y)) => Bool(*x && *y),
            (SemiringKind::Confidentiality, Level(x), Level(y)) => {
                // more_secure = max
                Level(*x.max(y))
            }
            (SemiringKind::Weight, Weight(x), Weight(y)) => Weight(x + y),
            (SemiringKind::Lineage, Lineage(x), Lineage(y)) => Lineage(match (x, y) {
                (None, _) | (_, None) => None,
                (Some(x), Some(y)) => Some(x.union(y).cloned().collect()),
            }),
            (SemiringKind::Probability, Event(x), Event(y)) => {
                if x.is_empty() || y.is_empty() {
                    Event(Dnf::new())
                } else {
                    let mut out = Dnf::new();
                    for cx in x {
                        for cy in y {
                            out.insert(cx.union(cy).cloned().collect());
                        }
                    }
                    Event(minimize_dnf(&out))
                }
            }
            (SemiringKind::Counting, Count(x), Count(y)) => Count(
                x.checked_mul(*y)
                    .ok_or_else(|| Error::Overflow("derivation count overflow".into()))?,
            ),
            (SemiringKind::Polynomial, Poly(x), Poly(y)) => Poly(x.mul(y)?),
            _ => return Err(type_error(self, a, b, "⊗")),
        })
    }

    /// Fold ⊕ over an iterator.
    pub fn sum<'a>(&self, items: impl IntoIterator<Item = &'a Annotation>) -> Result<Annotation> {
        let mut acc = self.zero();
        for x in items {
            acc = self.plus(&acc, x)?;
        }
        Ok(acc)
    }

    /// Fold ⊗ over an iterator.
    pub fn product<'a>(
        &self,
        items: impl IntoIterator<Item = &'a Annotation>,
    ) -> Result<Annotation> {
        let mut acc = self.one();
        for x in items {
            acc = self.times(&acc, x)?;
        }
        Ok(acc)
    }

    /// Type-check that `a` is a value of this semiring.
    pub fn check_value(&self, a: &Annotation) -> Result<()> {
        let ok = matches!(
            (self, a),
            (
                SemiringKind::Derivability | SemiringKind::Trust,
                Annotation::Bool(_)
            ) | (SemiringKind::Confidentiality, Annotation::Level(_))
                | (SemiringKind::Weight, Annotation::Weight(_))
                | (SemiringKind::Lineage, Annotation::Lineage(_))
                | (SemiringKind::Probability, Annotation::Event(_))
                | (SemiringKind::Counting, Annotation::Count(_))
                | (SemiringKind::Polynomial, Annotation::Poly(_))
        );
        if ok {
            Ok(())
        } else {
            Err(Error::Semiring(format!(
                "value {a} does not belong to the {self} semiring"
            )))
        }
    }
}

impl fmt::Display for SemiringKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SemiringKind::Derivability => "DERIVABILITY",
            SemiringKind::Trust => "TRUST",
            SemiringKind::Confidentiality => "CONFIDENTIALITY",
            SemiringKind::Weight => "WEIGHT",
            SemiringKind::Lineage => "LINEAGE",
            SemiringKind::Probability => "PROBABILITY",
            SemiringKind::Counting => "COUNT",
            SemiringKind::Polynomial => "POLYNOMIAL",
        };
        f.write_str(s)
    }
}

fn type_error(k: &SemiringKind, a: &Annotation, b: &Annotation, op: &str) -> Error {
    Error::Semiring(format!("cannot apply {k}.{op} to {a} and {b}"))
}

/// A unary **mapping function**: the per-mapping transformation of
/// annotations (paper §2.1: "mappings themselves can affect the resulting
/// annotation, e.g., an untrusted mapping may produce false on all inputs").
///
/// ProQL restricts these functions to ones with `f(0) = 0` that commute
/// with sums; `f(x) = c ⊗ x` satisfies both in any semiring by
/// distributivity, and covers all the paper's examples:
/// * the *neutral* function `Nm` is `TimesConst(1)` (or [`MapFn::Identity`]),
/// * the *distrust* function `Dm` is `TimesConst(false)` = [`MapFn::zero`],
/// * weight offsets (`SET $z + 3`) are `TimesConst(Weight(3))`,
/// * count scaling is `TimesConst(Count(k))`.
#[derive(Debug, Clone, PartialEq)]
pub enum MapFn {
    /// `f(x) = x` (the default).
    Identity,
    /// `f(x) = c ⊗ x`.
    TimesConst(Annotation),
}

impl MapFn {
    /// The annihilating function `f(x) = 0` (distrust).
    pub fn zero(kind: SemiringKind) -> MapFn {
        MapFn::TimesConst(kind.zero())
    }

    /// Apply to a value.
    pub fn apply(&self, kind: SemiringKind, x: &Annotation) -> Result<Annotation> {
        match self {
            MapFn::Identity => Ok(x.clone()),
            MapFn::TimesConst(c) => kind.times(c, x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [SemiringKind; 8] = [
        SemiringKind::Derivability,
        SemiringKind::Trust,
        SemiringKind::Confidentiality,
        SemiringKind::Weight,
        SemiringKind::Lineage,
        SemiringKind::Probability,
        SemiringKind::Counting,
        SemiringKind::Polynomial,
    ];

    #[test]
    fn identities_hold_in_every_semiring() {
        for k in ALL {
            let x = k.default_leaf("x");
            assert_eq!(k.plus(&k.zero(), &x).unwrap(), x, "{k}: 0 ⊕ x");
            assert_eq!(k.times(&k.one(), &x).unwrap(), x, "{k}: 1 ⊗ x");
            assert_eq!(k.times(&k.zero(), &x).unwrap(), k.zero(), "{k}: 0 ⊗ x");
        }
    }

    #[test]
    fn idempotence_matches_declaration() {
        for k in ALL {
            let x = k.default_leaf("x");
            let doubled = k.plus(&x, &x).unwrap();
            if k.idempotent() {
                assert_eq!(doubled, x, "{k} should be ⊕-idempotent");
            } else {
                assert_ne!(doubled, x, "{k} should not be ⊕-idempotent");
            }
        }
    }

    #[test]
    fn absorption_in_declared_semirings() {
        for k in ALL.iter().filter(|k| k.absorptive()) {
            let a = k.default_leaf("a");
            let b = k.default_leaf("b");
            let ab = k.times(&a, &b).unwrap();
            assert_eq!(k.plus(&a, &ab).unwrap(), a, "{k}: a ⊕ (a ⊗ b) must equal a");
        }
    }

    #[test]
    fn table_1_derivability() {
        let k = SemiringKind::Derivability;
        let t = Annotation::Bool(true);
        let f = Annotation::Bool(false);
        assert_eq!(k.times(&t, &f).unwrap(), f);
        assert_eq!(k.plus(&t, &f).unwrap(), t);
    }

    #[test]
    fn table_1_confidentiality() {
        let k = SemiringKind::Confidentiality;
        let publ = Annotation::Level(SecurityLevel::Public);
        let secr = Annotation::Level(SecurityLevel::Secret);
        // Join of tuples takes the most secure level...
        assert_eq!(k.times(&publ, &secr).unwrap(), secr);
        // ...union takes the least secure required.
        assert_eq!(k.plus(&publ, &secr).unwrap(), publ);
    }

    #[test]
    fn table_1_weight() {
        let k = SemiringKind::Weight;
        let a = Annotation::Weight(2.0);
        let b = Annotation::Weight(5.0);
        assert_eq!(k.times(&a, &b).unwrap(), Annotation::Weight(7.0));
        assert_eq!(k.plus(&a, &b).unwrap(), Annotation::Weight(2.0));
    }

    #[test]
    fn table_1_counting() {
        let k = SemiringKind::Counting;
        assert_eq!(
            k.times(&Annotation::Count(2), &Annotation::Count(3))
                .unwrap(),
            Annotation::Count(6)
        );
        assert_eq!(
            k.plus(&Annotation::Count(2), &Annotation::Count(3))
                .unwrap(),
            Annotation::Count(5)
        );
    }

    #[test]
    fn counting_overflow_is_an_error() {
        let k = SemiringKind::Counting;
        let big = Annotation::Count(u64::MAX);
        assert!(k.plus(&big, &Annotation::Count(1)).is_err());
        assert!(k.times(&big, &Annotation::Count(2)).is_err());
    }

    #[test]
    fn polynomial_exponent_overflow_is_an_error() {
        let k = SemiringKind::Polynomial;
        let mut p = k.default_leaf("x");
        for _ in 0..31 {
            p = k.times(&p, &p).unwrap();
        }
        assert_eq!(p.to_string(), "x^2147483648");
        assert!(matches!(k.times(&p, &p), Err(Error::Overflow(_))));
    }

    #[test]
    fn lineage_zero_annihilates() {
        let k = SemiringKind::Lineage;
        let x = k.default_leaf("x");
        assert_eq!(k.times(&k.zero(), &x).unwrap(), k.zero());
        // But ⊕ with zero passes through.
        assert_eq!(k.plus(&k.zero(), &x).unwrap(), x);
    }

    #[test]
    fn probability_events_multiply_by_intersection() {
        let k = SemiringKind::Probability;
        let x = k.default_leaf("x");
        let y = k.default_leaf("y");
        let xy = k.times(&x, &y).unwrap();
        assert_eq!(xy.to_string(), "x∧y");
        let or = k.plus(&x, &y).unwrap();
        assert_eq!(or.to_string(), "x ∨ y");
        // Absorption through minimization: x + x∧y = x.
        assert_eq!(k.plus(&x, &xy).unwrap(), x);
    }

    #[test]
    fn polynomial_tracks_how_provenance() {
        let k = SemiringKind::Polynomial;
        let x = k.default_leaf("x");
        let y = k.default_leaf("y");
        let p = k.plus(&k.times(&x, &y).unwrap(), &x).unwrap();
        assert_eq!(p.to_string(), "x + x·y");
    }

    #[test]
    fn type_mismatch_is_error() {
        let k = SemiringKind::Weight;
        assert!(k
            .plus(&Annotation::Bool(true), &Annotation::Weight(1.0))
            .is_err());
        assert!(k.check_value(&Annotation::Bool(true)).is_err());
        assert!(k.check_value(&Annotation::Weight(1.0)).is_ok());
    }

    #[test]
    fn map_fn_identity_and_zero() {
        let k = SemiringKind::Trust;
        let x = Annotation::Bool(true);
        assert_eq!(MapFn::Identity.apply(k, &x).unwrap(), x);
        assert_eq!(
            MapFn::zero(k).apply(k, &x).unwrap(),
            Annotation::Bool(false)
        );
    }

    #[test]
    fn map_fn_weight_offset_commutes_with_sums() {
        let k = SemiringKind::Weight;
        let f = MapFn::TimesConst(Annotation::Weight(3.0));
        let a = Annotation::Weight(2.0);
        let b = Annotation::Weight(5.0);
        let lhs = f.apply(k, &k.plus(&a, &b).unwrap()).unwrap();
        let rhs = k
            .plus(&f.apply(k, &a).unwrap(), &f.apply(k, &b).unwrap())
            .unwrap();
        assert_eq!(lhs, rhs);
        // f(0) = 0.
        assert_eq!(f.apply(k, &k.zero()).unwrap(), k.zero());
    }

    #[test]
    fn parse_names() {
        assert_eq!(SemiringKind::parse("trust"), Some(SemiringKind::Trust));
        assert_eq!(SemiringKind::parse("WEIGHT"), Some(SemiringKind::Weight));
        assert_eq!(SemiringKind::parse("cost"), Some(SemiringKind::Weight));
        assert_eq!(SemiringKind::parse("bogus"), None);
    }

    #[test]
    fn sum_and_product_fold() {
        let k = SemiringKind::Counting;
        let items = [
            Annotation::Count(2),
            Annotation::Count(3),
            Annotation::Count(4),
        ];
        assert_eq!(k.sum(items.iter()).unwrap(), Annotation::Count(9));
        assert_eq!(k.product(items.iter()).unwrap(), Annotation::Count(24));
        assert_eq!(k.sum([].iter()).unwrap(), k.zero());
        assert_eq!(k.product([].iter()).unwrap(), k.one());
    }
}
