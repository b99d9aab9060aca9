//! Compact provenance tokens for the set-valued semirings.
//!
//! Lineage, probability events and provenance polynomials are sets (or
//! multisets) of base-tuple labels. Folding them as `BTreeSet<String>`
//! clones and re-sorts heap strings at every ⊕/⊗; here an evaluation
//! interns each distinct label string once into a `u32` token
//! ([`Tokens`]) and folds sorted vectors of tokens instead. A [`Tag`] is
//! decoded back into the public [`Annotation`] types only when a value is
//! read, so strings are rebuilt for the rows an answer returns and for
//! nothing else.
//!
//! Every tag is kept canonical — sorted, deduplicated, DNFs absorption-
//! minimal, no zero coefficients — so structural equality is semantic
//! equality (the fixpoint's convergence test relies on it), and decoding
//! a tag ⊕/⊗ equals [`SemiringKind::plus`]/[`SemiringKind::times`] of the
//! decoded operands.

use crate::annotation::{Annotation, Dnf};
use crate::polynomial::{exponent_overflow, Monomial, Polynomial};
use crate::semiring::SemiringKind;
use proql_common::{Error, Result};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A monomial over tokens: `(token, exponent)` sorted by token.
type Mono = Vec<(u32, u32)>;

/// The token table of one evaluation: one `u32` per distinct label.
#[derive(Debug, Default)]
pub(crate) struct Tokens {
    ids: HashMap<String, u32>,
}

impl Tokens {
    fn intern(&mut self, label: String) -> u32 {
        if let Some(&id) = self.ids.get(&label) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(label, id);
        id
    }

    /// Token → label, consuming the table (the strings move, none is
    /// copied).
    pub(crate) fn into_names(self) -> Vec<String> {
        let mut names = vec![String::new(); self.ids.len()];
        for (label, id) in self.ids {
            names[id as usize] = label;
        }
        names
    }
}

/// True for the semirings whose values are tags during an evaluation.
pub(crate) fn is_tagged(kind: SemiringKind) -> bool {
    matches!(
        kind,
        SemiringKind::Lineage | SemiringKind::Probability | SemiringKind::Polynomial
    )
}

/// A set-valued semiring value over tokens.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tag {
    /// Sorted, deduplicated tokens; `None` is the lineage zero.
    Lineage(Option<Vec<u32>>),
    /// Sorted, deduplicated, absorption-minimal conjuncts of sorted
    /// tokens. `[]` is *false*, `[[]]` is *true*.
    Event(Vec<Vec<u32>>),
    /// Terms sorted by monomial, coefficients nonzero and saturating.
    Poly(Vec<(Mono, u64)>),
}

impl Tag {
    /// The ⊕-identity of `kind` (a tagged kind).
    pub(crate) fn zero(kind: SemiringKind) -> Tag {
        match kind {
            SemiringKind::Lineage => Tag::Lineage(None),
            SemiringKind::Probability => Tag::Event(Vec::new()),
            _ => Tag::Poly(Vec::new()),
        }
    }

    /// The ⊗-identity of `kind` (a tagged kind).
    pub(crate) fn one(kind: SemiringKind) -> Tag {
        match kind {
            SemiringKind::Lineage => Tag::Lineage(Some(Vec::new())),
            SemiringKind::Probability => Tag::Event(vec![Vec::new()]),
            _ => Tag::Poly(vec![(Vec::new(), 1)]),
        }
    }

    /// Encode a value of `kind`, interning its labels.
    pub(crate) fn encode(
        kind: SemiringKind,
        value: Annotation,
        tokens: &mut Tokens,
    ) -> Result<Tag> {
        kind.check_value(&value)?;
        Ok(match value {
            Annotation::Lineage(set) => Tag::Lineage(set.map(|s| {
                let mut ids: Vec<u32> = s.into_iter().map(|l| tokens.intern(l)).collect();
                ids.sort_unstable();
                ids
            })),
            Annotation::Event(dnf) => Tag::Event(normalize_dnf(
                dnf.into_iter()
                    .map(|conj| {
                        let mut ids: Vec<u32> =
                            conj.into_iter().map(|l| tokens.intern(l)).collect();
                        ids.sort_unstable();
                        ids
                    })
                    .collect(),
            )),
            Annotation::Poly(p) => Tag::Poly(normalize_poly(
                p.into_terms()
                    .into_iter()
                    .map(|(m, c)| {
                        let mut mono: Mono =
                            m.0.into_iter()
                                .map(|(l, e)| (tokens.intern(l), e))
                                .collect();
                        mono.sort_unstable();
                        (mono, c)
                    })
                    .collect(),
            )),
            other => unreachable!("check_value admitted {other:?} to a tagged semiring"),
        })
    }

    /// Decode into the public annotation type, `names` indexed by token.
    pub(crate) fn decode(&self, names: &[String]) -> Annotation {
        let name = |id: &u32| names[*id as usize].clone();
        match self {
            Tag::Lineage(set) => {
                Annotation::Lineage(set.as_ref().map(|s| s.iter().map(name).collect()))
            }
            Tag::Event(dnf) => Annotation::Event(
                dnf.iter()
                    .map(|conj| conj.iter().map(name).collect::<BTreeSet<String>>())
                    .collect::<Dnf>(),
            ),
            Tag::Poly(terms) => {
                Annotation::Poly(Polynomial::from_terms(terms.iter().map(|(m, c)| {
                    let vars: BTreeMap<String, u32> =
                        m.iter().map(|(id, e)| (name(id), *e)).collect();
                    (Monomial(vars), *c)
                })))
            }
        }
    }

    /// Abstract sum ⊕.
    pub(crate) fn plus(self, other: Tag) -> Result<Tag> {
        Ok(match (self, other) {
            (Tag::Lineage(None), o) | (o, Tag::Lineage(None)) => o,
            (Tag::Lineage(Some(a)), Tag::Lineage(Some(b))) => Tag::Lineage(Some(union(&a, &b))),
            (Tag::Event(a), Tag::Event(b)) => {
                if a.is_empty() {
                    Tag::Event(b)
                } else if b.is_empty() {
                    Tag::Event(a)
                } else {
                    let mut all = a;
                    all.extend(b);
                    Tag::Event(normalize_dnf(all))
                }
            }
            (Tag::Poly(a), Tag::Poly(b)) => {
                if a.is_empty() {
                    Tag::Poly(b)
                } else if b.is_empty() {
                    Tag::Poly(a)
                } else {
                    let mut all = a;
                    all.extend(b);
                    Tag::Poly(normalize_poly(all))
                }
            }
            (a, b) => return Err(mismatch(&a, &b)),
        })
    }

    /// Abstract product ⊗.
    pub(crate) fn times(self, other: &Tag) -> Result<Tag> {
        Ok(match (self, other) {
            (Tag::Lineage(Some(a)), Tag::Lineage(Some(b))) => Tag::Lineage(Some(if a.is_empty() {
                b.clone()
            } else {
                union(&a, b)
            })),
            (Tag::Lineage(_), Tag::Lineage(_)) => Tag::Lineage(None),
            (Tag::Event(a), Tag::Event(b)) => {
                if a.is_empty() || b.is_empty() {
                    Tag::Event(Vec::new())
                } else if a.len() == 1 && a[0].is_empty() {
                    Tag::Event(b.clone())
                } else if b.len() == 1 && b[0].is_empty() {
                    Tag::Event(a)
                } else {
                    let mut out = Vec::with_capacity(a.len() * b.len());
                    for x in &a {
                        for y in b {
                            out.push(union(x, y));
                        }
                    }
                    Tag::Event(normalize_dnf(out))
                }
            }
            (Tag::Poly(a), Tag::Poly(b)) => {
                let is_one = |p: &[(Mono, u64)]| matches!(p, [(m, 1)] if m.is_empty());
                if is_one(&a) {
                    Tag::Poly(b.clone())
                } else if is_one(b) {
                    Tag::Poly(a)
                } else {
                    let mut out = Vec::with_capacity(a.len() * b.len());
                    for (m1, c1) in &a {
                        for (m2, c2) in b {
                            out.push((mono_mul(m1, m2)?, c1.saturating_mul(*c2)));
                        }
                    }
                    Tag::Poly(normalize_poly(out))
                }
            }
            (a, b) => return Err(mismatch(&a, b)),
        })
    }
}

fn mismatch(a: &Tag, b: &Tag) -> Error {
    Error::Semiring(format!("cannot combine tags {a:?} and {b:?}"))
}

/// Union of two sorted, deduplicated token lists.
fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// `a ⊆ b` for sorted, deduplicated token lists.
fn is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut rest = b.iter();
    a.iter().all(|x| rest.any(|y| y == x))
}

/// Sort, deduplicate and absorption-minimise conjuncts (`x + x·y = x`).
fn normalize_dnf(mut conj: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    conj.sort_unstable();
    conj.dedup();
    if conj.len() < 2 {
        return conj;
    }
    // Distinct conjuncts: a subset of another is strictly shorter.
    let absorbed: Vec<bool> = conj
        .iter()
        .map(|c| conj.iter().any(|o| o.len() < c.len() && is_subset(o, c)))
        .collect();
    let mut keep = absorbed.into_iter().map(|a| !a);
    conj.retain(|_| keep.next().expect("one flag per conjunct"));
    conj
}

/// Sort terms by monomial and merge equal monomials (saturating sum).
fn normalize_poly(mut terms: Vec<(Mono, u64)>) -> Vec<(Mono, u64)> {
    terms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(Mono, u64)> = Vec::with_capacity(terms.len());
    for (m, c) in terms {
        match out.last_mut() {
            Some((last, acc)) if *last == m => *acc = acc.saturating_add(c),
            _ => out.push((m, c)),
        }
    }
    out
}

/// Product of two monomials: exponents of shared tokens add, checked.
fn mono_mul(a: &[(u32, u32)], b: &[(u32, u32)]) -> Result<Mono> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                let e = a[i].1.checked_add(b[j].1).ok_or_else(exponent_overflow)?;
                out.push((a[i].0, e));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql_common::rng::SplitMix64;

    const TAGGED: [SemiringKind; 3] = [
        SemiringKind::Lineage,
        SemiringKind::Probability,
        SemiringKind::Polynomial,
    ];

    /// A random value of `kind` built through the reference operations:
    /// zero, one, leaves over a small alphabet, sums and products, and
    /// for polynomials coefficients near the saturation point.
    fn arb(kind: SemiringKind, rng: &mut SplitMix64, depth: usize) -> Annotation {
        const LEAVES: [&str; 6] = ["p", "q", "r", "s", "t", "R(1,a)"];
        let shape = rng.gen_range_usize(0, if depth == 0 { 4 } else { 6 });
        match shape {
            0 => kind.zero(),
            1 => kind.one(),
            2 if kind == SemiringKind::Polynomial => {
                let c = u64::MAX - rng.gen_range_i64(0, 3) as u64;
                Annotation::Poly(Polynomial::constant(c))
            }
            2 | 3 => kind.default_leaf(LEAVES[rng.gen_range_usize(0, LEAVES.len())]),
            4 => {
                let (a, b) = (arb(kind, rng, depth - 1), arb(kind, rng, depth - 1));
                kind.plus(&a, &b).unwrap()
            }
            _ => {
                let (a, b) = (arb(kind, rng, depth - 1), arb(kind, rng, depth - 1));
                kind.times(&a, &b).unwrap()
            }
        }
    }

    #[test]
    fn tag_operations_decode_to_the_reference_operations() {
        let mut rng = SplitMix64::seed_from_u64(0x7A65);
        for case in 0..600 {
            let kind = TAGGED[case % TAGGED.len()];
            let a = arb(kind, &mut rng, 3);
            let b = arb(kind, &mut rng, 3);
            // Intern a seeded permutation of the alphabet first, so token
            // order disagrees with label order.
            let mut tokens = Tokens::default();
            for l in ["t", "R(1,a)", "q", "s", "p", "r"] {
                if rng.gen_range_usize(0, 2) == 0 {
                    tokens.intern(l.to_string());
                }
            }
            let ta = Tag::encode(kind, a.clone(), &mut tokens).unwrap();
            let tb = Tag::encode(kind, b.clone(), &mut tokens).unwrap();
            let names = tokens.into_names();
            assert_eq!(ta.decode(&names), a, "case {case}: round trip");
            let sum = ta.clone().plus(tb.clone()).unwrap();
            assert_eq!(
                sum.decode(&names),
                kind.plus(&a, &b).unwrap(),
                "case {case}: {kind} {a} ⊕ {b}"
            );
            let product = ta.times(&tb).unwrap();
            assert_eq!(
                product.decode(&names),
                kind.times(&a, &b).unwrap(),
                "case {case}: {kind} {a} ⊗ {b}"
            );
        }
    }

    #[test]
    fn identities_are_canonical() {
        for kind in TAGGED {
            let mut tokens = Tokens::default();
            assert_eq!(
                Tag::encode(kind, kind.zero(), &mut tokens).unwrap(),
                Tag::zero(kind)
            );
            assert_eq!(
                Tag::encode(kind, kind.one(), &mut tokens).unwrap(),
                Tag::one(kind)
            );
            let x = Tag::encode(kind, kind.default_leaf("x"), &mut tokens).unwrap();
            assert_eq!(Tag::zero(kind).plus(x.clone()).unwrap(), x);
            assert_eq!(Tag::one(kind).times(&x).unwrap(), x);
            assert_eq!(Tag::zero(kind).times(&x).unwrap(), Tag::zero(kind));
        }
    }

    #[test]
    fn exponent_overflow_is_an_error() {
        let big = Tag::Poly(vec![(vec![(0, u32::MAX)], 1)]);
        let x = Tag::Poly(vec![(vec![(0, 1)], 1)]);
        assert!(matches!(big.times(&x), Err(Error::Overflow(_))));
    }

    #[test]
    fn wrong_value_type_is_rejected() {
        let mut tokens = Tokens::default();
        assert!(Tag::encode(SemiringKind::Lineage, Annotation::Bool(true), &mut tokens).is_err());
    }
}
