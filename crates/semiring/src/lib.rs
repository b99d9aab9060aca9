//! # proql-semiring
//!
//! Semiring provenance (paper §2.1, Table 1). Provenance graphs encode
//! provenance polynomials; instantiating the base values, the abstract
//! product ⊗, and the abstract sum ⊕ yields the annotation computations of
//! Table 1:
//!
//! | Use case            | base value     | `R ⊗ S`          | `R ⊕ S`          |
//! |---------------------|----------------|------------------|------------------|
//! | Derivability        | `true`         | `R ∧ S`          | `R ∨ S`          |
//! | Trust               | trust condition| `R ∧ S`          | `R ∨ S`          |
//! | Confidentiality     | access level   | `more_secure`    | `less_secure`    |
//! | Weight/cost         | tuple weight   | `R + S`          | `min(R, S)`      |
//! | Lineage             | tuple id       | `R ∪ S`          | `R ∪ S`          |
//! | Probability         | event          | `R ∩ S`          | `R ∪ S`          |
//! | # derivations       | `1`            | `R · S`          | `R + S`          |
//!
//! plus the most general **provenance polynomials** N\[X\] of Green et al.,
//! used here as the reference semiring for property tests.
//!
//! [`eval`] evaluates a [`ProvGraph`] — whole, or the [`Region`] an
//! answer reads — bottom-up in any of these semirings; cyclic regions
//! (recursive mappings) are handled by Kleene fixpoint iteration for the
//! idempotent + absorptive semirings — the first five rows of Table 1,
//! exactly as the paper states. The set-valued semirings fold compact
//! `u32` token tags and decode to [`Annotation`]s only when read.
//!
//! [`ProvGraph`]: proql_provgraph::ProvGraph

pub mod annotation;
pub mod eval;
pub mod polynomial;
pub mod probability;
pub mod semiring;
mod tag;

pub use annotation::{Annotation, SecurityLevel};
pub use eval::{evaluate, evaluate_region, evaluate_with, Assignment, Evaluation, Region};
pub use polynomial::{Monomial, Polynomial};
pub use probability::{event_probability, event_probability_mc};
pub use semiring::{MapFn, SemiringKind};
