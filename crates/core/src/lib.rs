//! # proql
//!
//! **ProQL** — the provenance query language of *Karvounarakis, Ives,
//! Tannen: "Querying Data Provenance", SIGMOD 2010* — implemented over an
//! embedded relational engine.
//!
//! A ProQL query has two parts (paper §3):
//!
//! 1. **Graph projection** — path expressions over the provenance graph:
//!
//! ```text
//! FOR [O $x] <-+ [A $y]
//! WHERE $x.h >= 5
//! INCLUDE PATH [$x] <-+ [$y]
//! RETURN $x, $y
//! ```
//!
//! 2. **Annotation computation** — evaluating the projected subgraph in a
//!    semiring:
//!
//! ```text
//! EVALUATE TRUST OF {
//!   FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
//! } ASSIGNING EACH leaf_node $y {
//!   CASE $y in C : SET true
//!   CASE $y in A and $y.len >= 6 : SET false
//!   DEFAULT : SET true
//! } ASSIGNING EACH mapping $p($z) {
//!   CASE $p = m4 : SET false
//!   DEFAULT : SET $z
//! }
//! ```
//!
//! Queries are parsed ([`parser`]), matched against the provenance schema
//! graph and unfolded into conjunctive rules over provenance relations
//! ([`mod@translate`], paper §4.2), executed as relational plans ([`exec`]),
//! and optionally evaluated in a semiring ([`annotate`]). [`engine`] ties
//! it together behind [`Engine`].

pub mod annotate;
pub mod ast;
pub mod engine;
pub mod exec;
pub mod lexer;
pub mod maintain;
pub mod parser;
pub mod shape;
pub mod translate;

pub use annotate::AnnotatedResult;
pub use ast::Query;
pub use engine::{Engine, EngineOptions, PreparedQuery, QueryOutput, Strategy};
pub use exec::{
    prepare_rule, prepare_rule_with, prepare_rules, run_projection, run_projection_opts,
    run_projection_prepared, run_projection_with, PreparedRule, ProjectionResult,
};
pub use maintain::{
    maintain_output, maintain_outputs, EntryOutcome, FallbackReason, MaintainEntry,
    MaintainOutcome, MaintainResult, MaintainState,
};
pub use parser::parse_query;
pub use translate::{translate, BodyRewriter, QueryRule, TranslateStats, Translation};
