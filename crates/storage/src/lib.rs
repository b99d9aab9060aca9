//! # proql-storage
//!
//! An embedded, in-memory relational engine. This is the substrate standing
//! in for the RDBMS (DB2) the paper runs on: ProQL queries are translated to
//! unions of conjunctive queries plus a grouping/aggregation step, and those
//! plans execute here.
//!
//! The engine provides:
//! * typed [`Table`]s with primary keys and secondary hash/B-tree [`Index`]es,
//! * a [`Database`] catalog with virtual [views](Database::create_view)
//!   (used for *superfluous* provenance relations, paper §4.1),
//! * a relational-algebra [`Plan`] language — scan, filter, project,
//!   inner/left/right/full hash joins, union (all/distinct), aggregation —
//!   mirroring the `SELECT..FROM..WHERE`, `UNION ALL`, and `GROUP
//!   BY..HAVING` blocks the paper generates,
//! * a **columnar batch executor** ([`batch_exec`], the default): typed
//!   column vectors ([`batch::Column`] / [`RecordBatch`]), vectorized
//!   predicate evaluation, hash equi-joins with optimizer-picked build
//!   sides, and hash-grouped aggregation — with an optional
//!   **morsel-driven parallel** mode ([`Parallelism`], via
//!   [`execute_batch_opts`]) that is bit-identical to the serial pass,
//! * a row-at-a-time [executor](exec::execute) (hash-join or nested-loop
//!   [`JoinAlgo`]) kept as the equivalence oracle and ablation baseline —
//!   pick one via [`ExecMode`] / [`execute_with`],
//! * an incrementally-maintained [statistics subsystem](stats) (per-table
//!   row counts, per-column NDV/min-max) feeding a **cost-based
//!   multi-pass [optimizer](optimize::optimize_with)** — selection
//!   pushdown, index conversion, join reordering over equi-join chains,
//!   build-side selection — plus an `EXPLAIN`-style
//!   [SQL renderer](explain::to_sql) and
//!   [operator-tree renderer](explain::explain_tree) with estimated rows
//!   per operator.

pub mod batch;
pub mod batch_exec;
pub mod database;
pub mod dict;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod index;
pub mod optimize;
pub mod plan;
pub mod stats;
pub mod table;
pub mod zone;

pub use batch::{Column, RecordBatch};
pub use batch_exec::{
    execute_batch, execute_batch_opts, execute_batch_profiled, execute_with, execute_with_opts,
    ExecMode, OpStat,
};
pub use database::Database;
pub use dict::Dictionary;
pub use exec::{execute, JoinAlgo, Relation};
pub use expr::{BinOp, Expr};
pub use index::{Index, IndexKind};
pub use optimize::{OptimizerConfig, Pass};
pub use plan::{AggFunc, Aggregate, BuildSide, JoinType, Plan};
pub use proql_common::Parallelism;
pub use stats::{ColumnStats, TableStats};
pub use table::Table;
