//! # proql-datalog
//!
//! A Datalog engine specialized for data exchange with provenance:
//!
//! * [`ast`] — terms, atoms, rules (with multi-atom heads and Skolem
//!   functions, covering the paper's GLAV/tgd mappings, §2 footnote 1),
//! * [`parse`] — a text syntax matching the paper's notation
//!   (`m1: C(i, n) :- A(i, s, _), N(i, n, false)`),
//! * [`compile`] — rule bodies compiled to relational [`Plan`]s over the
//!   storage engine, and [`delta_variant`]: the semi-naive variant of a
//!   body with one atom reading delta rows inline — the one delta join
//!   both the exchange and `proql`'s cache maintainer run,
//! * [`eval`] — semi-naive bottom-up evaluation to fixpoint on the batch
//!   executor, with a per-firing hook used by `proql-provgraph` to record
//!   provenance,
//! * [`unfold`] — rule unfolding (substituting body atoms by the rules
//!   deriving them; the core of ProQL's translation, §4.2.4) and unification,
//! * [`homomorphism`] — body-to-body homomorphisms (`findHomomorphism` of
//!   the paper's Figure 4, used by ASR rewriting).
//!
//! [`Plan`]: proql_storage::Plan

pub mod ast;
pub mod compile;
pub mod eval;
pub mod homomorphism;
pub mod parse;
pub mod unfold;

pub use ast::{Atom, Program, Rule, Term};
pub use compile::{compile_body, delta_variant, delta_variants, BodyPlan};
pub use eval::{run_program, run_program_seeded, Bindings, EvalStats, FiringHook, NoopHook};
pub use homomorphism::find_homomorphism;
pub use parse::{parse_program, parse_rule};
pub use unfold::{rename_apart, substitute_atom, substitute_rule, unify_atoms, Subst};
