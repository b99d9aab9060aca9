//! # proql-common
//!
//! Shared foundation types for the ProQL reproduction: dynamically typed
//! [`Value`]s, [`Tuple`]s, relation [`Schema`]s, identifier newtypes, and the
//! crate-spanning [`Error`] type.
//!
//! Everything in the workspace — the relational engine, the Datalog
//! evaluator, the provenance graph, and ProQL itself — speaks in terms of
//! these types, so they are deliberately small, totally ordered, and hashable
//! (tuples must be usable as keys of hash and B-tree indexes).

pub mod error;
pub mod ids;
pub mod par;
pub mod rng;
pub mod schema;
pub mod sync;
pub mod trace;
pub mod tuple;
pub mod value;

pub use error::{Error, Result};
pub use ids::{DerivationId, MappingId, PeerId, RelationId, TupleId};
pub use par::Parallelism;
pub use schema::{Attribute, Schema};
pub use tuple::Tuple;
pub use value::{Value, ValueType};
