//! The cost-based optimizer: an ordered pipeline of plan-rewrite passes.
//!
//! The paper relies on the backing DBMS for "goal-directed computation such
//! that we only evaluate provenance for the selected tuples … intuitively,
//! this resembles pushing selections through joins" (§4.2). This module is
//! that DBMS layer: a multi-pass framework
//!
//! 1. **Filter pushdown** — each conjunct of a selection moves through
//!    projections, unions, views, and joins down to the scans it
//!    constrains, and a conjunct over inner-equi-join keys is mirrored
//!    onto the other side of the join (see [`Pass::PushFilters`]).
//! 2. **Index conversion** — `Filter(Scan)` with equality bindings becomes
//!    [`Plan::IndexLookup`] (executors fall back to a filtered scan when no
//!    physical index exists, so the rewrite is always safe).
//! 3. **Cost-based join reordering** — maximal chains of inner equi-joins
//!    are flattened, re-ordered greedily by estimated intermediate
//!    cardinality (the cardinality model below), rebuilt left-deep, and
//!    wrapped in a projection restoring the original column order, so the
//!    rewrite is invisible to every consumer.
//! 4. **Build-side selection** — each hash join builds on its estimated
//!    smaller input.
//!
//! Cardinalities come from the **statistics subsystem**
//! ([`crate::stats`]): per-table live row counts and per-column NDV/min-max
//! maintained incrementally on every insert/delete. Estimates order
//! performance-neutral choices only — they never affect correctness, which
//! is what makes cached plans safe to reuse across data changes.

use crate::database::Database;
use crate::expr::{BinOp, Expr};
use crate::plan::{BuildSide, JoinType, Plan};
use crate::stats::ColumnStats;
use proql_common::{Value, ValueType};
use std::collections::HashMap;

/// One optimizer pass. [`OptimizerConfig`] orders them; the optimizer
/// property tests ablate individual passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Push each conjunct of a selection as deep as it can go:
    ///
    /// * through a `Union` into every branch, and through a `Project`
    ///   when every output column it reads is a plain column reference;
    /// * into the side of an **inner** join it references, and — for an
    ///   outer join — only into the preserved side (left of a left outer
    ///   join, right of a right outer join; never through a full outer
    ///   join), since NULL padding makes the other moves unsound;
    /// * **mirrored** across an inner equi-join when every column it reads
    ///   is a join key whose counterpart has the same declared type:
    ///   `l.k = r.k ∧ l.k ∈ [lo, hi) ⇒ r.k ∈ [lo, hi)`, so both inputs
    ///   shrink before the join (never into an outer join's
    ///   null-supplying side);
    /// * through a `Scan` of a view, by replacing the scan with the view's
    ///   body so the conjunct reaches the base table underneath.
    ///
    /// Join arities, key types, and view bodies come from the catalog;
    /// the catalog-free [`optimize`] runs the same pass knowing only the
    /// arities a plan states itself, so it skips what it cannot decide.
    PushFilters,
    /// Convert `Filter(Scan)` equality bindings into [`Plan::IndexLookup`].
    IndexScans,
    /// Reorder inner equi-join chains by estimated cardinality.
    ReorderJoins,
    /// Build each hash join on its estimated smaller input.
    PickBuildSides,
}

/// An ordered pass pipeline.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Passes, applied in order.
    pub passes: Vec<Pass>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            passes: vec![
                Pass::PushFilters,
                Pass::IndexScans,
                Pass::ReorderJoins,
                Pass::PickBuildSides,
            ],
        }
    }
}

impl OptimizerConfig {
    /// The default pipeline minus one pass (ablation).
    pub fn without(pass: Pass) -> Self {
        let mut cfg = OptimizerConfig::default();
        cfg.passes.retain(|&p| p != pass);
        cfg
    }
}

/// Catalog-free optimization: filter pushdown (as far as the plan's own
/// arities decide it) and index conversion only.
pub fn optimize(plan: Plan) -> Plan {
    index_scans(push_filters(None, plan))
}

/// The full default pipeline: [`optimize`] plus catalog-aware passes —
/// cost-based join reordering and hash-join build-side selection from the
/// stats-backed cardinality model.
pub fn optimize_with(db: &Database, plan: Plan) -> Plan {
    optimize_with_config(db, plan, &OptimizerConfig::default())
}

/// Run an explicit pass pipeline.
pub fn optimize_with_config(db: &Database, plan: Plan, cfg: &OptimizerConfig) -> Plan {
    let mut plan = plan;
    for pass in &cfg.passes {
        plan = match pass {
            Pass::PushFilters => push_filters(Some(db), plan),
            Pass::IndexScans => index_scans(plan),
            Pass::ReorderJoins => reorder_joins(db, plan),
            Pass::PickBuildSides => pick_build_sides(db, plan),
        };
    }
    plan
}

// ---------------------------------------------------------------------------
// Cardinality model
// ---------------------------------------------------------------------------

/// Default selectivity of a predicate the model cannot analyze (the
/// historical "filters keep a third of their input" assumption).
const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// Estimated output rows of a plan, from the incrementally-maintained
/// table statistics. Heuristic, only used to order performance-neutral
/// choices — never for correctness.
pub fn estimate_rows(db: &Database, plan: &Plan) -> usize {
    est(db, plan, 0).round().min(u64::MAX as f64) as usize
}

fn est(db: &Database, plan: &Plan, depth: usize) -> f64 {
    // Views may reference views; a cyclic definition (which the executors
    // reject with an error) must not overflow the estimator's stack.
    if depth > crate::exec::MAX_VIEW_DEPTH {
        return 0.0;
    }
    match plan {
        Plan::Scan { table } => {
            if let Ok(t) = db.table(table) {
                t.len() as f64
            } else if let Some(v) = db.view(table) {
                est(db, &v.plan, depth + 1)
            } else {
                0.0
            }
        }
        Plan::Values { rows, .. } => rows.len() as f64,
        Plan::Filter { input, predicate } => {
            est(db, input, depth) * selectivity(db, input, predicate, depth)
        }
        Plan::IndexLookup {
            table,
            columns,
            residual,
            ..
        } => {
            let Ok(t) = db.table(table) else { return 0.0 };
            let rows = t.len() as f64;
            // A physical index knows its exact distinct-key count; without
            // one, the per-column NDVs from the stats subsystem stand in.
            let keys = match t.find_index(columns) {
                Some(ix) => ix.distinct_keys() as f64,
                None => columns
                    .iter()
                    .map(|&c| t.stats().column(c).map(|s| s.ndv()).unwrap_or(1).max(1) as f64)
                    .product::<f64>()
                    .min(rows),
            };
            let mut out = rows / keys.max(1.0);
            if let Some(r) = residual {
                out *= selectivity(db, &Plan::scan(table.clone()), r, depth);
            }
            out
        }
        Plan::Project { input, .. } | Plan::Distinct { input } | Plan::Sort { input, .. } => {
            est(db, input, depth)
        }
        Plan::Limit { input, n } => est(db, input, depth).min(*n as f64),
        Plan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            ..
        } => {
            let l = est(db, left, depth);
            let r = est(db, right, depth);
            let inner = join_est(db, left, l, right, r, left_keys, right_keys, depth);
            // Outer joins additionally keep every unmatched padded row.
            match join_type {
                JoinType::Inner => inner,
                JoinType::LeftOuter => inner.max(l),
                JoinType::RightOuter => inner.max(r),
                JoinType::FullOuter => inner.max(l).max(r),
            }
        }
        Plan::Union { inputs, .. } => inputs.iter().map(|p| est(db, p, depth)).sum(),
        Plan::Aggregate {
            input, group_by, ..
        } => {
            let n = est(db, input, depth);
            if group_by.is_empty() {
                1.0
            } else {
                // Groups are bounded by the product of the grouping
                // columns' NDVs, when derivable.
                let groups: f64 = group_by
                    .iter()
                    .map(|&c| col_ndv(db, input, c, depth).unwrap_or(n / 2.0).max(1.0))
                    .product();
                groups.min(n).max(1.0)
            }
        }
    }
}

/// Estimated inner-equi-join output: |L|·|R| divided by the product over
/// key pairs of max(ndv(lk), ndv(rk)) — the classic containment-of-values
/// model. Unknown NDVs fall back to the side's row estimate.
#[allow(clippy::too_many_arguments)]
fn join_est(
    db: &Database,
    left: &Plan,
    l_rows: f64,
    right: &Plan,
    r_rows: f64,
    left_keys: &[usize],
    right_keys: &[usize],
    depth: usize,
) -> f64 {
    let mut out = l_rows * r_rows;
    for (&lk, &rk) in left_keys.iter().zip(right_keys) {
        // Containment of values: divide by the larger key *domain*. The
        // domain size deliberately stays unclamped by the side's row
        // estimate, so the divisor is invariant under join reordering.
        let nl = col_ndv(db, left, lk, depth).unwrap_or(l_rows);
        let nr = col_ndv(db, right, rk, depth).unwrap_or(r_rows);
        out /= nl.max(nr).max(1.0);
    }
    out
}

/// Distinct values of output column `col`, traced through order- and
/// column-preserving operators down to a base table's statistics.
///
/// A filter on the column itself shrinks its domain by the selectivity of
/// the conjuncts that read only that column. This is what keeps a range
/// mirrored onto every leaf of a join chain from being counted once per
/// leaf: both inputs of each join then carry the *same* reduced domain,
/// so [`join_est`] divides by it and the range's selectivity applies once
/// to the chain, not once per leaf.
///
/// For dictionary-encoded string columns the per-column stats key their
/// value→count map by interned `u32` code instead of by owned [`Value`]
/// ([`crate::stats`]), so this NDV **is** the dictionary cardinality —
/// same number, cheaper bookkeeping, and estimates stay bit-identical
/// whether or not `PROQL_DICT` encoding is enabled.
fn col_ndv(db: &Database, plan: &Plan, col: usize, depth: usize) -> Option<f64> {
    if depth > crate::exec::MAX_VIEW_DEPTH {
        return None;
    }
    match plan {
        Plan::Scan { table } => {
            if let Ok(t) = db.table(table) {
                Some(t.stats().column(col)?.ndv() as f64)
            } else {
                col_ndv(db, &db.view(table)?.plan, col, depth + 1)
            }
        }
        Plan::IndexLookup { table, columns, .. } => {
            if columns.contains(&col) {
                return Some(1.0);
            }
            let t = db.table(table).ok()?;
            Some(t.stats().column(col)?.ndv() as f64)
        }
        Plan::Filter { input, predicate } => {
            let ndv = col_ndv(db, input, col, depth)?;
            let mut on_col = 1.0;
            for_each_conjunct(predicate, &mut |c| {
                if c.col_range() == Some((col, col)) {
                    on_col *= pred_selectivity(db, input, c, depth);
                }
            });
            Some((ndv * on_col.clamp(0.0, 1.0)).max(1.0))
        }
        Plan::Distinct { input } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            col_ndv(db, input, col, depth)
        }
        Plan::Project { input, exprs, .. } => match exprs.get(col)? {
            Expr::Col(i) => col_ndv(db, input, *i, depth),
            Expr::Lit(_) | Expr::Param { .. } => Some(1.0),
            _ => None,
        },
        Plan::Join { left, right, .. } => {
            let la = plan_arity(Some(db), left, depth)?;
            if col < la {
                col_ndv(db, left, col, depth)
            } else {
                col_ndv(db, right, col - la, depth)
            }
        }
        _ => None,
    }
}

/// Visit the conjuncts of `pred` (nested `And`s flattened) by reference.
fn for_each_conjunct<'e>(pred: &'e Expr, f: &mut impl FnMut(&'e Expr)) {
    match pred {
        Expr::And(ps) => ps.iter().for_each(|p| for_each_conjunct(p, f)),
        p => f(p),
    }
}

/// Estimated fraction of `input`'s rows that satisfy `predicate`.
fn selectivity(db: &Database, input: &Plan, predicate: &Expr, depth: usize) -> f64 {
    let s = pred_selectivity(db, input, predicate, depth);
    s.clamp(0.0, 1.0)
}

fn pred_selectivity(db: &Database, input: &Plan, pred: &Expr, depth: usize) -> f64 {
    match pred {
        Expr::And(ps) => ps
            .iter()
            .map(|p| pred_selectivity(db, input, p, depth))
            .product(),
        Expr::Or(ps) => {
            // Independence assumption: 1 - Π(1 - sᵢ).
            1.0 - ps
                .iter()
                .map(|p| 1.0 - pred_selectivity(db, input, p, depth))
                .product::<f64>()
        }
        Expr::Not(p) => 1.0 - pred_selectivity(db, input, p, depth),
        Expr::Lit(Value::Bool(true)) => 1.0,
        Expr::Lit(Value::Bool(false)) => 0.0,
        Expr::Bin(op, a, b) => {
            let (col, operand) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), v @ (Expr::Lit(_) | Expr::Param { .. }))
                | (v @ (Expr::Lit(_) | Expr::Param { .. }), Expr::Col(i)) => (*i, v),
                _ => return DEFAULT_SELECTIVITY,
            };
            let Some(stats) = col_stats(db, input, col, depth) else {
                return DEFAULT_SELECTIVITY;
            };
            match operand {
                Expr::Param { sel_log2, .. } => param_selectivity(stats, *op, *sel_log2),
                Expr::Lit(v) => cmp_selectivity(stats, *op, v),
                _ => unreachable!("matched a literal or a parameter above"),
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Estimated fraction of a column's rows satisfying `column op value`,
/// from the column's statistics: `1/ndv` for equality, the uniform
/// fraction of `[min, max]` on the matching side for a range (at least
/// one value's worth), the historical default otherwise.
fn cmp_selectivity(stats: &ColumnStats, op: BinOp, value: &Value) -> f64 {
    let ndv = stats.ndv().max(1) as f64;
    match op {
        BinOp::Eq => 1.0 / ndv,
        BinOp::Ne => 1.0 - 1.0 / ndv,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let Some(below) = stats.fraction_below(value) else {
                return DEFAULT_SELECTIVITY;
            };
            match op {
                BinOp::Lt | BinOp::Le => below.max(1.0 / ndv),
                _ => (1.0 - below).max(1.0 / ndv),
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// log₂ bucket of a selectivity: `floor(log₂ s)` for `s` in `(0, 1]`,
/// `i8::MIN` for 0. `None` stats (no column to read) give the bucket of
/// the default selectivity. A plan template is optimized for one bucket
/// per literal slot ([`Expr::Param`]).
pub fn selectivity_bucket(stats: Option<&ColumnStats>, op: BinOp, value: &Value) -> i8 {
    let s = stats.map_or(DEFAULT_SELECTIVITY, |st| cmp_selectivity(st, op, value));
    if s <= 0.0 {
        i8::MIN
    } else {
        s.clamp(0.0, 1.0).log2().floor().max(-63.0) as i8
    }
}

/// The estimate for `column op ?slot`: equality does not depend on the
/// value, so it reads the column like a literal would; a range takes the
/// geometric middle of its bucket, `2^(sel_log2 + ½)`, capped at 1.
fn param_selectivity(stats: &ColumnStats, op: BinOp, sel_log2: i8) -> f64 {
    let ndv = stats.ndv().max(1) as f64;
    match op {
        BinOp::Eq => 1.0 / ndv,
        BinOp::Ne => 1.0 - 1.0 / ndv,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge if sel_log2 == i8::MIN => 1.0 / ndv,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            2f64.powf(f64::from(sel_log2) + 0.5).min(1.0).max(1.0 / ndv)
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Column statistics of `plan`'s output column `col`, when it traces to a
/// base table.
fn col_stats<'a>(
    db: &'a Database,
    plan: &Plan,
    col: usize,
    depth: usize,
) -> Option<&'a crate::stats::ColumnStats> {
    let (t, c) = base_col(db, plan, None, col, depth)?;
    t.stats().column(c)
}

/// Declared type of `plan`'s output column `col`: `None` when it does not
/// trace to a base-table column or that column is untyped (view schemas
/// are untyped, so views are traced through their bodies). `arity` is
/// `plan`'s output arity when the caller already knows it.
fn col_type(db: &Database, plan: &Plan, arity: Option<usize>, col: usize) -> Option<ValueType> {
    let (t, c) = base_col(db, plan, arity, col, 0)?;
    let ty = t.schema().attributes().get(c)?.ty;
    (ty != ValueType::Null).then_some(ty)
}

/// The base-table column behind `plan`'s output column `col`, traced
/// through row-filtering operators, plain-column projections, join sides,
/// and view bodies. A known output `arity` spares re-deriving the arity of
/// a join's left input from its leaves at every level of a left-deep
/// chain (the right input is usually a single scan).
fn base_col<'a>(
    db: &'a Database,
    plan: &Plan,
    arity: Option<usize>,
    col: usize,
    depth: usize,
) -> Option<(&'a crate::table::Table, usize)> {
    if depth > crate::exec::MAX_VIEW_DEPTH {
        return None;
    }
    match plan {
        Plan::Scan { table } => {
            if let Ok(t) = db.table(table) {
                Some((t, col))
            } else {
                base_col(db, &db.view(table)?.plan, None, col, depth + 1)
            }
        }
        Plan::IndexLookup { table, .. } => Some((db.table(table).ok()?, col)),
        Plan::Filter { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => base_col(db, input, arity, col, depth),
        Plan::Project { input, exprs, .. } => match exprs.get(col)? {
            Expr::Col(i) => base_col(db, input, None, *i, depth),
            _ => None,
        },
        Plan::Join { left, right, .. } => {
            let (la, ra) = join_arities(Some(db), left, right, arity)?;
            if col < la {
                base_col(db, left, Some(la), col, depth)
            } else {
                base_col(db, right, Some(ra), col - la, depth)
            }
        }
        _ => None,
    }
}

/// Arities of a join's inputs. When the join's own output arity is known,
/// the left input's follows from the right's — one catalog lookup on a
/// left-deep chain instead of one per leaf below.
fn join_arities(
    db: Option<&Database>,
    left: &Plan,
    right: &Plan,
    total: Option<usize>,
) -> Option<(usize, usize)> {
    let ra = plan_arity(db, right, 0)?;
    let la = match total {
        Some(t) => t.checked_sub(ra)?,
        None => plan_arity(db, left, 0)?,
    };
    Some((la, ra))
}

/// Output arity of a plan. With a catalog, scans and index lookups take
/// theirs from the table or view schema; without one (the catalog-free
/// [`optimize`]) they are unknown and only operators that state their own
/// arity — projections, inline values, aggregates — answer.
fn plan_arity(db: Option<&Database>, plan: &Plan, depth: usize) -> Option<usize> {
    if depth > crate::exec::MAX_VIEW_DEPTH {
        return None;
    }
    match plan {
        Plan::Scan { table } => {
            let db = db?;
            if let Ok(t) = db.table(table) {
                Some(t.schema().arity())
            } else {
                Some(db.view(table)?.schema.arity())
            }
        }
        Plan::IndexLookup { table, .. } => Some(db?.table(table).ok()?.schema().arity()),
        Plan::Values { schema, .. } => Some(schema.arity()),
        Plan::Project { exprs, .. } => Some(exprs.len()),
        Plan::Filter { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => plan_arity(db, input, depth),
        Plan::Union { inputs, .. } => plan_arity(db, inputs.first()?, depth),
        Plan::Join { left, right, .. } => {
            Some(plan_arity(db, left, depth)? + plan_arity(db, right, depth)?)
        }
        Plan::Aggregate { group_by, aggs, .. } => Some(group_by.len() + aggs.len()),
    }
}

/// Catalog-aware output column names, replicating the executors' naming
/// (including the join `_N` duplicate disambiguation) so a reordering
/// projection can restore the exact original schema.
fn plan_names_cat(db: &Database, plan: &Plan, depth: usize) -> Option<Vec<String>> {
    if depth > crate::exec::MAX_VIEW_DEPTH {
        return None;
    }
    let schema_names =
        |s: &proql_common::Schema| s.attributes().iter().map(|a| a.name.clone()).collect();
    match plan {
        Plan::Scan { table } => {
            if let Ok(t) = db.table(table) {
                Some(schema_names(t.schema()))
            } else {
                Some(schema_names(&db.view(table)?.schema))
            }
        }
        Plan::IndexLookup { table, .. } => Some(schema_names(db.table(table).ok()?.schema())),
        Plan::Values { schema, .. } => Some(schema_names(schema)),
        Plan::Project { names, .. } => Some(names.clone()),
        Plan::Filter { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => plan_names_cat(db, input, depth),
        Plan::Union { inputs, .. } => plan_names_cat(db, inputs.first()?, depth),
        Plan::Join { left, right, .. } => {
            let l = plan_names_cat(db, left, depth)?;
            let r = plan_names_cat(db, right, depth)?;
            Some(crate::exec::join_names(l, &r))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let inner = plan_names_cat(db, input, depth)?;
            let mut names: Vec<String> = group_by
                .iter()
                .map(|&c| inner.get(c).cloned().unwrap_or_else(|| format!("c{c}")))
                .collect();
            names.extend(aggs.iter().map(|a| a.name.clone()));
            Some(names)
        }
    }
}

// ---------------------------------------------------------------------------
// Pass: cost-based join reordering
// ---------------------------------------------------------------------------

/// Reorder maximal inner-equi-join chains by estimated cardinality. The
/// rewrite preserves the output **multiset and schema** exactly (a final
/// projection restores the original column order); only row order within
/// the multiset may change, so subtrees under order-sensitive operators
/// (`Sort`, `Limit`) are left untouched.
fn reorder_joins(db: &Database, plan: Plan) -> Plan {
    match plan {
        // Order-sensitive operators freeze their whole subtree: reordering
        // below them could change which rows a LIMIT keeps or how ties
        // settle under a stable sort.
        frozen @ (Plan::Sort { .. } | Plan::Limit { .. }) => frozen,
        Plan::Join {
            join_type: JoinType::Inner,
            ..
        } => match try_reorder_chain(db, plan) {
            Ok(reordered) => reordered,
            Err(original) => descend(db, original),
        },
        other => descend(db, other),
    }
}

/// Apply [`reorder_joins`] to every child.
fn descend(db: &Database, plan: Plan) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(reorder_joins(db, *input)),
            predicate,
        },
        Plan::Project {
            input,
            exprs,
            names,
        } => Plan::Project {
            input: Box::new(reorder_joins(db, *input)),
            exprs,
            names,
        },
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            build,
        } => Plan::Join {
            left: Box::new(reorder_joins(db, *left)),
            right: Box::new(reorder_joins(db, *right)),
            join_type,
            left_keys,
            right_keys,
            build,
        },
        Plan::Union { inputs, distinct } => Plan::Union {
            inputs: inputs.into_iter().map(|p| reorder_joins(db, p)).collect(),
            distinct,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(reorder_joins(db, *input)),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => Plan::Aggregate {
            input: Box::new(reorder_joins(db, *input)),
            group_by,
            aggs,
            having,
        },
        leaf => leaf,
    }
}

/// A flattened inner-equi-join chain.
struct Chain {
    /// The chain's base relations (non-inner-join subplans), in original
    /// left-to-right order.
    leaves: Vec<Plan>,
    /// Global output-column offset of each leaf.
    offsets: Vec<usize>,
    /// Arity of each leaf.
    arities: Vec<usize>,
    /// Equality predicates as pairs of global columns (left subtree col,
    /// right subtree col).
    preds: Vec<(usize, usize)>,
    /// Total output arity.
    total: usize,
    /// True while every flattened join node had a leaf right child. Only
    /// a left-deep original is structurally reproduced by an identity
    /// left-deep rebuild; right-deep/bushy originals need the restoring
    /// projection even on bail-out, because `join_names` duplicate
    /// disambiguation is not associative.
    left_deep: bool,
}

impl Chain {
    /// The leaf owning global column `g`.
    fn leaf_of(&self, g: usize) -> usize {
        match self.offsets.binary_search(&g) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }
}

/// Attempt to flatten and reorder the inner-join chain rooted at `plan`.
/// Returns the original plan on any bail-out (underivable arity, fewer
/// than three leaves, no connecting predicate).
fn try_reorder_chain(db: &Database, plan: Plan) -> Result<Plan, Plan> {
    let names = match plan_names_cat(db, &plan, 0) {
        Some(n) => n,
        None => return Err(plan),
    };
    let mut chain = Chain {
        leaves: Vec::new(),
        offsets: Vec::new(),
        arities: Vec::new(),
        preds: Vec::new(),
        total: 0,
        left_deep: true,
    };
    // Flattening consumes the plan; on failure, rebuild is impossible, so
    // flatten a borrowed view first and only then consume.
    if !flatten_ok(db, &plan) {
        return Err(plan);
    }
    flatten(db, plan, &mut chain);
    if chain.leaves.len() < 3 || chain.preds.is_empty() {
        return Err(rebuild_original(chain, names));
    }

    // Greedy ordering: start from the connected pair with the smallest
    // estimated join output, then repeatedly add the connected leaf whose
    // join with the accumulated set is estimated cheapest.
    let leaf_est: Vec<f64> = chain.leaves.iter().map(|l| est(db, l, 0)).collect();
    // The greedy asks for the NDVs of the same few key columns O(n²)
    // times; each answer walks a leaf down to the catalog, so look them
    // up once.
    let key_ndv: HashMap<usize, Option<f64>> = chain
        .preds
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .map(|g| (g, leaf_global_ndv(db, &chain, g)))
        .collect();
    let ndv = |g: usize| key_ndv.get(&g).copied().flatten();
    let pair_est = |i: usize, j: usize| -> Option<f64> {
        let keys = connecting_keys(&chain, &[i], j);
        if keys.is_empty() {
            return None;
        }
        let mut out = leaf_est[i] * leaf_est[j];
        for &(gi, gj) in &keys {
            let ni = ndv(gi).unwrap_or(leaf_est[i]);
            let nj = ndv(gj).unwrap_or(leaf_est[j]);
            out /= ni.max(nj).max(1.0);
        }
        Some(out)
    };
    let n = chain.leaves.len();
    let mut best: Option<(f64, usize, usize)> = None;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if let Some(e) = pair_est(i, j) {
                let cand = (e, i, j);
                if best.map(|b| cand.0 < b.0).unwrap_or(true) {
                    best = Some(cand);
                }
            }
        }
    }
    let Some((_, first, second)) = best else {
        return Err(rebuild_original(chain, names));
    };
    let mut order = vec![first, second];
    let mut placed = vec![false; n];
    placed[first] = true;
    placed[second] = true;
    let mut set_est = pair_est(first, second).unwrap_or(leaf_est[first] * leaf_est[second]);
    while order.len() < n {
        let mut pick: Option<(f64, usize, bool)> = None; // (est, leaf, connected)
        for j in 0..n {
            if placed[j] {
                continue;
            }
            let keys = connecting_keys(&chain, &order, j);
            let connected = !keys.is_empty();
            let mut e = set_est * leaf_est[j];
            for &(gs, gj) in &keys {
                let ns = ndv(gs).unwrap_or(set_est);
                let nj = ndv(gj).unwrap_or(leaf_est[j]);
                e /= ns.max(nj).max(1.0);
            }
            let better = match pick {
                None => true,
                // Connected candidates always beat cross products.
                Some((pe, _, pc)) => (connected && !pc) || (connected == pc && e < pe),
            };
            if better {
                pick = Some((e, j, connected));
            }
        }
        let (e, j, _) = pick.expect("an unplaced leaf exists");
        set_est = e;
        order.push(j);
        placed[j] = true;
    }

    // Identity order: the original plan is already the greedy choice.
    if order.iter().enumerate().all(|(k, &l)| k == l) {
        // On a left-deep chain every sub-chain is a prefix of this one
        // and the greedy would walk it in the same (identity) order, so
        // there is nothing left to try below: the leaves were reordered
        // by `flatten`, and the rebuild reproduces the joins as they were.
        let left_deep = chain.left_deep;
        let rebuilt = rebuild_original(chain, names);
        return if left_deep { Ok(rebuilt) } else { Err(rebuilt) };
    }

    Ok(build_ordered(chain, names, &order))
}

/// True when every node of the chain has derivable arity (flattening will
/// succeed without consuming the plan first).
fn flatten_ok(db: &Database, plan: &Plan) -> bool {
    match plan {
        Plan::Join {
            join_type: JoinType::Inner,
            left,
            right,
            ..
        } => flatten_ok(db, left) && flatten_ok(db, right),
        leaf => plan_arity(Some(db), leaf, 0).is_some(),
    }
}

/// Flatten `plan` into `chain`, assigning global column offsets in-order.
/// Non-inner-join nodes become leaves (recursively reordered themselves).
fn flatten(db: &Database, plan: Plan, chain: &mut Chain) {
    match plan {
        Plan::Join {
            join_type: JoinType::Inner,
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => {
            if matches!(
                right.as_ref(),
                Plan::Join {
                    join_type: JoinType::Inner,
                    ..
                }
            ) {
                chain.left_deep = false;
            }
            let left_base = chain.total;
            flatten(db, *left, chain);
            let right_base = chain.total;
            flatten(db, *right, chain);
            for (lk, rk) in left_keys.into_iter().zip(right_keys) {
                chain.preds.push((left_base + lk, right_base + rk));
            }
        }
        leaf => {
            let arity = plan_arity(Some(db), &leaf, 0).expect("checked by flatten_ok");
            chain.offsets.push(chain.total);
            chain.arities.push(arity);
            chain.leaves.push(reorder_joins(db, leaf));
            chain.total += arity;
        }
    }
}

/// Key pairs `(global col in placed set, global col in leaf j)` for the
/// predicates connecting `j` to the placed leaves.
fn connecting_keys(chain: &Chain, placed: &[usize], j: usize) -> Vec<(usize, usize)> {
    let mut keys = Vec::new();
    for &(a, b) in &chain.preds {
        let (la, lb) = (chain.leaf_of(a), chain.leaf_of(b));
        if la == j && placed.contains(&lb) {
            keys.push((b, a));
        } else if lb == j && placed.contains(&la) {
            keys.push((a, b));
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// NDV of the leaf-local column behind global column `g`.
fn leaf_global_ndv(db: &Database, chain: &Chain, g: usize) -> Option<f64> {
    let l = chain.leaf_of(g);
    col_ndv(db, &chain.leaves[l], g - chain.offsets[l], 0)
}

/// Rebuild the chain in its original order (used on bail-out after the
/// plan was already consumed by flattening). A left-deep original is
/// reproduced structurally (no projection needed); a right-deep/bushy
/// original gets the restoring projection, because a left-deep identity
/// rebuild would re-associate the joins and `join_names` duplicate
/// disambiguation is not associative.
fn rebuild_original(chain: Chain, names: Vec<String>) -> Plan {
    let n = chain.leaves.len();
    let order: Vec<usize> = (0..n).collect();
    let skip_projection = chain.left_deep;
    build_ordered_inner(chain, names, &order, skip_projection)
}

/// Rebuild the chain joining leaves in `order`, then restore the original
/// column order (and executor-visible names) with a projection.
fn build_ordered(chain: Chain, names: Vec<String>, order: &[usize]) -> Plan {
    build_ordered_inner(chain, names, order, false)
}

fn build_ordered_inner(
    mut chain: Chain,
    names: Vec<String>,
    order: &[usize],
    skip_projection: bool,
) -> Plan {
    let total = chain.total;
    // colmap[g] = current output position of original global column g.
    let mut colmap: Vec<Option<usize>> = vec![None; total];
    let mut placed: Vec<usize> = Vec::with_capacity(order.len());
    let mut acc: Option<Plan> = None;
    let mut acc_arity = 0usize;
    let mut leaf_slots: Vec<Option<Plan>> = chain.leaves.drain(..).map(Some).collect();
    for &l in order {
        let leaf = leaf_slots[l].take().expect("each leaf placed once");
        let (off, ar) = (chain.offsets[l], chain.arities[l]);
        match acc.take() {
            None => {
                for (g, slot) in colmap.iter_mut().enumerate().skip(off).take(ar) {
                    *slot = Some(g - off);
                }
                acc = Some(leaf);
                acc_arity = ar;
            }
            Some(a) => {
                let mut left_keys = Vec::new();
                let mut right_keys = Vec::new();
                for (gs, gj) in connecting_keys(&chain, &placed, l) {
                    left_keys.push(colmap[gs].expect("placed column has a position"));
                    right_keys.push(gj - off);
                }
                for (g, slot) in colmap.iter_mut().enumerate().skip(off).take(ar) {
                    *slot = Some(acc_arity + (g - off));
                }
                acc = Some(Plan::Join {
                    left: Box::new(a),
                    right: Box::new(leaf),
                    join_type: JoinType::Inner,
                    left_keys,
                    right_keys,
                    build: BuildSide::Auto,
                });
                acc_arity += ar;
            }
        }
        placed.push(l);
    }
    let joined = acc.expect("chain has at least one leaf");
    if skip_projection {
        // Left-deep identity rebuild: positions are already 0..total and
        // the structure matches the original; no projection needed.
        return joined;
    }
    let exprs: Vec<Expr> = (0..total)
        .map(|g| Expr::Col(colmap[g].expect("every column placed")))
        .collect();
    Plan::Project {
        input: Box::new(joined),
        exprs,
        names,
    }
}

// ---------------------------------------------------------------------------
// Pass: build-side selection
// ---------------------------------------------------------------------------

/// Set each hash join's build side to its (estimated) smaller input.
fn pick_build_sides(db: &Database, plan: Plan) -> Plan {
    match plan {
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            build,
        } => {
            let left = Box::new(pick_build_sides(db, *left));
            let right = Box::new(pick_build_sides(db, *right));
            let build = if build == BuildSide::Auto {
                if estimate_rows(db, &left) < estimate_rows(db, &right) {
                    BuildSide::Left
                } else {
                    BuildSide::Right
                }
            } else {
                build
            };
            Plan::Join {
                left,
                right,
                join_type,
                left_keys,
                right_keys,
                build,
            }
        }
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(pick_build_sides(db, *input)),
            predicate,
        },
        Plan::Project {
            input,
            exprs,
            names,
        } => Plan::Project {
            input: Box::new(pick_build_sides(db, *input)),
            exprs,
            names,
        },
        Plan::Union { inputs, distinct } => Plan::Union {
            inputs: inputs
                .into_iter()
                .map(|p| pick_build_sides(db, p))
                .collect(),
            distinct,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(pick_build_sides(db, *input)),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => Plan::Aggregate {
            input: Box::new(pick_build_sides(db, *input)),
            group_by,
            aggs,
            having,
        },
        Plan::Sort { input, by } => Plan::Sort {
            input: Box::new(pick_build_sides(db, *input)),
            by,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(pick_build_sides(db, *input)),
            n,
        },
        leaf => leaf,
    }
}

// ---------------------------------------------------------------------------
// Pass: filter pushdown
// ---------------------------------------------------------------------------

/// Split a predicate into conjuncts.
fn conjuncts(pred: Expr) -> Vec<Expr> {
    match pred {
        Expr::And(ps) => ps.into_iter().flat_map(conjuncts).collect(),
        p => vec![p],
    }
}

/// Recombine conjuncts. The conjunction lands in a plan that prepared
/// queries keep cached — one per leaf after pushdown — so it keeps no
/// spare capacity.
fn recombine(mut preds: Vec<Expr>) -> Option<Expr> {
    match preds.len() {
        0 => None,
        1 => Some(preds.pop().unwrap()),
        _ => {
            preds.shrink_to_fit();
            Some(Expr::And(preds))
        }
    }
}

/// Apply [`push_pred_into`] at every `Filter` of the plan, bottom-up.
/// `db` is the pass's view of the catalog (`None` for the catalog-free
/// [`optimize`]).
fn push_filters(db: Option<&Database>, plan: Plan) -> Plan {
    let rec = |p: Box<Plan>| Box::new(push_filters(db, *p));
    match plan {
        Plan::Filter { input, predicate } => {
            push_pred_into(db, push_filters(db, *input), predicate, None, 0)
        }
        Plan::Project {
            input,
            exprs,
            names,
        } => Plan::Project {
            input: rec(input),
            exprs,
            names,
        },
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            build,
        } => Plan::Join {
            left: rec(left),
            right: rec(right),
            join_type,
            left_keys,
            right_keys,
            build,
        },
        Plan::Union { inputs, distinct } => Plan::Union {
            inputs: inputs.into_iter().map(|p| push_filters(db, p)).collect(),
            distinct,
        },
        Plan::Distinct { input } => Plan::Distinct { input: rec(input) },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => Plan::Aggregate {
            input: rec(input),
            group_by,
            aggs,
            having,
        },
        Plan::Sort { input, by } => Plan::Sort {
            input: rec(input),
            by,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: rec(input),
            n,
        },
        leaf => leaf,
    }
}

/// `input` filtered by the conjunction of `preds` (no filter when empty).
fn filtered(input: Plan, preds: Vec<Expr>) -> Plan {
    match recombine(preds) {
        Some(predicate) => Plan::Filter {
            input: Box::new(input),
            predicate,
        },
        None => input,
    }
}

/// Push `predicate` as deep as possible into `input` (the rules are
/// listed on [`Pass::PushFilters`]). `arity` is `input`'s output arity
/// when the caller knows it (a join knows its inputs'). `view_depth`
/// counts the view scans expanded on the way down, so a cyclic view
/// definition stops expanding and is left for the executors to reject.
fn push_pred_into(
    db: Option<&Database>,
    input: Plan,
    predicate: Expr,
    arity: Option<usize>,
    view_depth: usize,
) -> Plan {
    let push = |plan: Plan, preds: Vec<Expr>, arity: Option<usize>| match recombine(preds) {
        Some(p) => push_pred_into(db, plan, p, arity, view_depth),
        None => plan,
    };
    match input {
        // Filter(Filter(x)) -> Filter(x) with merged predicate.
        Plan::Filter {
            input: inner,
            predicate: p2,
        } => {
            let merged = Expr::and(vec![p2, predicate]);
            push_pred_into(db, *inner, merged, arity, view_depth)
        }
        // Push through a union into every branch.
        Plan::Union { inputs, distinct } => Plan::Union {
            inputs: inputs
                .into_iter()
                .map(|p| push_pred_into(db, p, predicate.clone(), arity, view_depth))
                .collect(),
            distinct,
        },
        // A conjunct passes below a projection when every output column
        // it reads is a plain column of the projection's input.
        Plan::Project {
            input,
            exprs,
            names,
        } => {
            let plain = |i: usize| match exprs.get(i) {
                Some(Expr::Col(j)) => Some(*j),
                _ => None,
            };
            let (mut below, mut keep) = (Vec::new(), Vec::new());
            for c in conjuncts(predicate) {
                match c.try_map_cols(&plain) {
                    Some(moved) => below.push(moved),
                    None => keep.push(c),
                }
            }
            let projected = Plan::Project {
                input: Box::new(push(*input, below, None)),
                exprs,
                names,
            };
            filtered(projected, keep)
        }
        // Each conjunct goes into the join side it reads — any side of an
        // inner join, only the preserved side of an outer join — and a
        // conjunct over inner-join keys is mirrored onto the other side.
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            build,
        } => {
            let (into_left, into_right) = match join_type {
                JoinType::Inner => (true, true),
                JoinType::LeftOuter => (true, false),
                JoinType::RightOuter => (false, true),
                JoinType::FullOuter => (false, false),
            };
            let inner = into_left && into_right;
            let arities = join_arities(db, &left, &right, arity);
            let (l_side, r_side) = (
                (&*left, arities.map(|a| a.0), &left_keys[..]),
                (&*right, arities.map(|a| a.1), &right_keys[..]),
            );
            let (mut left_preds, mut right_preds, mut keep) = (Vec::new(), Vec::new(), Vec::new());
            for c in conjuncts(predicate) {
                // Constant conjuncts and ones spanning both sides stay on
                // top; so does everything when an arity is unknown.
                match (c.col_range(), arities) {
                    (Some((_, hi)), Some((la, _))) if into_left && hi < la => {
                        if inner {
                            right_preds.extend(mirrored(db, &c, l_side, r_side));
                        }
                        left_preds.push(c);
                    }
                    (Some((lo, hi)), Some((la, ra))) if into_right && lo >= la && hi < la + ra => {
                        let c = c.map_cols(&|i| i - la);
                        if inner {
                            left_preds.extend(mirrored(db, &c, r_side, l_side));
                        }
                        right_preds.push(c);
                    }
                    _ => keep.push(c),
                }
            }
            let joined = Plan::Join {
                left: Box::new(push(*left, left_preds, arities.map(|a| a.0))),
                right: Box::new(push(*right, right_preds, arities.map(|a| a.1))),
                join_type,
                left_keys,
                right_keys,
                build,
            };
            filtered(joined, keep)
        }
        // A view scan is replaced by the view's body, so the predicate
        // reaches the base table underneath.
        Plan::Scan { table } => match db.and_then(|db| view_body(db, &table, view_depth)) {
            Some(body) => push_pred_into(db, body, predicate, arity, view_depth + 1),
            None => filtered(Plan::Scan { table }, vec![predicate]),
        },
        other => filtered(other, vec![predicate]),
    }
}

/// `conjunct` (over the columns of join input `from`) restated over the
/// other input `to`, when the join's key equalities imply it there:
///
/// * every column it reads is a key of `from`, so on any matched pair the
///   counterpart key in `to` holds an equal value, and equal values
///   compare alike against everything ([`Value`]'s order is total);
/// * it is *total* — built from comparisons, `IS NULL` and boolean
///   connectives only — so running it over rows of `to` the join would
///   have dropped anyway cannot raise an error the original plan did not;
/// * each key pair has the same declared type (an untyped column —
///   provenance relations declare none — goes with any type).
fn mirrored(db: Option<&Database>, conjunct: &Expr, from: JoinSide, to: JoinSide) -> Option<Expr> {
    let db = db?;
    if !is_total(conjunct) {
        return None;
    }
    let (from, from_arity, from_keys) = from;
    let (to, to_arity, to_keys) = to;
    let counterpart = |col: usize| {
        from_keys.iter().zip(to_keys).find_map(|(&fk, &tk)| {
            let same_type = || {
                let (a, b) = (
                    col_type(db, from, from_arity, fk),
                    col_type(db, to, to_arity, tk),
                );
                a.zip(b).is_none_or(|(a, b)| a == b)
            };
            (fk == col && same_type()).then_some(tk)
        })
    };
    conjunct.try_map_cols(&counterpart)
}

/// One input of a join as [`mirrored`] sees it: the plan, its arity when
/// known, and its key columns.
type JoinSide<'a> = (&'a Plan, Option<usize>, &'a [usize]);

/// True when evaluating `e` as a predicate cannot fail whatever values its
/// columns hold: comparisons and `IS NULL` over columns and literals,
/// combined with `AND`/`OR`/`NOT`.
fn is_total(e: &Expr) -> bool {
    let operand = |e: &Expr| matches!(e, Expr::Col(_) | Expr::Lit(_) | Expr::Param { .. });
    match e {
        Expr::Bin(op, a, b) => {
            use BinOp::*;
            matches!(op, Eq | Ne | Lt | Le | Gt | Ge) && operand(a) && operand(b)
        }
        Expr::IsNull(a) => operand(a),
        Expr::And(ps) | Expr::Or(ps) => ps.iter().all(is_total),
        Expr::Not(p) => is_total(p),
        Expr::Lit(v) => matches!(v, Value::Bool(_)),
        Expr::Col(_) | Expr::Param { .. } => false,
    }
}

/// The plan a scan of view `table` expands to, or `None` when `table` is
/// not a view, expansion would change the scan's output schema, or
/// `view_depth` says the definition is cyclic. The executors name a view's
/// columns after its schema: a `Project` body takes those names (no extra
/// node), any other body must already produce them.
fn view_body(db: &Database, table: &str, view_depth: usize) -> Option<Plan> {
    if view_depth >= crate::exec::MAX_VIEW_DEPTH || db.has_table(table) {
        return None;
    }
    let view = db.view(table)?;
    let schema_names = || view.schema.attributes().iter().map(|a| &a.name);
    match &view.plan {
        Plan::Project { input, exprs, .. } if exprs.len() == view.schema.arity() => {
            Some(Plan::Project {
                input: input.clone(),
                exprs: exprs.clone(),
                names: schema_names().cloned().collect(),
            })
        }
        Plan::Project { .. } => None,
        body => plan_names_cat(db, body, 0)
            .is_some_and(|names| names.iter().eq(schema_names()))
            .then(|| body.clone()),
    }
}

// ---------------------------------------------------------------------------
// Pass: index conversion
// ---------------------------------------------------------------------------

/// A plan template bound to one request: `plan` cloned with every
/// [`Expr::Param`] slot replaced by its value in `values`, then index
/// conversion over the filters binding made equality-bound — the one
/// pass whose output depends on literal values rather than estimates.
pub fn bind_params(plan: &Plan, values: &[Value]) -> Plan {
    index_scans(substitute(plan, values))
}

fn substitute(plan: &Plan, values: &[Value]) -> Plan {
    let rec = |p: &Plan| Box::new(substitute(p, values));
    match plan {
        Plan::Filter { input, predicate } => Plan::Filter {
            input: rec(input),
            predicate: predicate.bind_params(values),
        },
        Plan::Project {
            input,
            exprs,
            names,
        } => Plan::Project {
            input: rec(input),
            exprs: exprs.iter().map(|e| e.bind_params(values)).collect(),
            names: names.clone(),
        },
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            build,
        } => Plan::Join {
            left: rec(left),
            right: rec(right),
            join_type: *join_type,
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            build: *build,
        },
        Plan::Union { inputs, distinct } => Plan::Union {
            inputs: inputs.iter().map(|p| substitute(p, values)).collect(),
            distinct: *distinct,
        },
        Plan::Distinct { input } => Plan::Distinct { input: rec(input) },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => Plan::Aggregate {
            input: rec(input),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            having: having.as_ref().map(|h| h.bind_params(values)),
        },
        Plan::Sort { input, by } => Plan::Sort {
            input: rec(input),
            by: by.clone(),
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: rec(input),
            n: *n,
        },
        Plan::IndexLookup {
            table,
            columns,
            key,
            residual,
        } => Plan::IndexLookup {
            table: table.clone(),
            columns: columns.clone(),
            key: key.clone(),
            residual: residual.as_ref().map(|r| r.bind_params(values)),
        },
        Plan::Scan { .. } | Plan::Values { .. } => plan.clone(),
    }
}

/// Rewrite `Filter(Scan)` into `IndexLookup` when every equality-bound
/// column set could be served by an index (the executor falls back to a
/// filtered scan when no physical index exists, so this is always safe).
fn index_scans(plan: Plan) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => {
            if let Plan::Scan { table } = input.as_ref() {
                let bindings = predicate.equality_bindings();
                if !bindings.is_empty() {
                    let columns: Vec<usize> = bindings.iter().map(|(c, _)| *c).collect();
                    let key: Vec<Value> = bindings.iter().map(|(_, v)| v.clone()).collect();
                    // Anything that is not a bare col=lit conjunct stays as a
                    // residual predicate.
                    let residual = residual_of(&predicate);
                    return Plan::IndexLookup {
                        table: table.clone(),
                        columns,
                        key,
                        residual,
                    };
                }
            }
            Plan::Filter {
                input: Box::new(index_scans(*input)),
                predicate,
            }
        }
        Plan::Project {
            input,
            exprs,
            names,
        } => Plan::Project {
            input: Box::new(index_scans(*input)),
            exprs,
            names,
        },
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            build,
        } => Plan::Join {
            left: Box::new(index_scans(*left)),
            right: Box::new(index_scans(*right)),
            join_type,
            left_keys,
            right_keys,
            build,
        },
        Plan::Union { inputs, distinct } => Plan::Union {
            inputs: inputs.into_iter().map(index_scans).collect(),
            distinct,
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(index_scans(*input)),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => Plan::Aggregate {
            input: Box::new(index_scans(*input)),
            group_by,
            aggs,
            having,
        },
        Plan::Sort { input, by } => Plan::Sort {
            input: Box::new(index_scans(*input)),
            by,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(index_scans(*input)),
            n,
        },
        leaf => leaf,
    }
}

/// The conjuncts of `pred` that are *not* simple `col = literal` bindings.
fn residual_of(pred: &Expr) -> Option<Expr> {
    let parts: Vec<Expr> = match pred {
        Expr::And(ps) => ps.clone(),
        p => vec![p.clone()],
    };
    let residual: Vec<Expr> = parts
        .into_iter()
        .filter(|p| !is_simple_binding(p))
        .collect();
    recombine(residual)
}

fn is_simple_binding(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Bin(crate::expr::BinOp::Eq, a, b)
            if matches!((a.as_ref(), b.as_ref()),
                (Expr::Col(_), Expr::Lit(_)) | (Expr::Lit(_), Expr::Col(_)))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::exec::execute;
    use crate::expr::BinOp;
    use crate::index::IndexKind;
    use proql_common::{tup, Schema, ValueType};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            Schema::build("T", &[("a", ValueType::Int), ("b", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        for i in 0..10 {
            db.insert("T", tup![i, i * 10]).unwrap();
        }
        db
    }

    #[test]
    fn filter_scan_becomes_index_lookup() {
        let p = Plan::scan("T").filter(Expr::col(0).eq(Expr::lit(3)));
        let opt = optimize(p);
        match &opt {
            Plan::IndexLookup {
                table,
                columns,
                key,
                residual,
            } => {
                assert_eq!(table, "T");
                assert_eq!(columns, &[0]);
                assert_eq!(key, &[Value::Int(3)]);
                assert!(residual.is_none());
            }
            other => panic!("expected IndexLookup, got {other:?}"),
        }
        assert_eq!(execute(&db(), &opt).unwrap().rows, vec![tup![3, 30]]);
    }

    #[test]
    fn a_bound_template_is_the_literal_plan() {
        // `c0 = ?0 AND c1 < ?1`: optimized with slots, no index lookup can
        // form; binding substitutes the literals and converts the now
        // equality-bound filter like the literal pipeline does.
        let d = db();
        let slot = |slot| Expr::Param { slot, sel_log2: -1 };
        let template = Plan::scan("T").filter(Expr::And(vec![
            Expr::col(0).eq(slot(0)),
            Expr::cmp(BinOp::Lt, Expr::col(1), slot(1)),
        ]));
        let literal = Plan::scan("T").filter(Expr::And(vec![
            Expr::col(0).eq(Expr::lit(3)),
            Expr::cmp(BinOp::Lt, Expr::col(1), Expr::lit(100)),
        ]));
        let optimized = optimize_with(&d, template);
        assert!(matches!(optimized, Plan::Filter { .. }), "{optimized:?}");
        assert!(
            execute(&d, &optimized).is_err(),
            "unbound slots must not run"
        );
        let bound = bind_params(&optimized, &[Value::Int(3), Value::Int(100)]);
        assert_eq!(bound, optimize_with(&d, literal));
        assert_eq!(execute(&d, &bound).unwrap().rows, vec![tup![3, 30]]);
        // A range slot is estimated from its bucket, an equality from NDV.
        let stats = d.table("T").unwrap().stats().column(1).unwrap();
        assert_eq!(
            selectivity_bucket(Some(stats), BinOp::Lt, &Value::Int(50)),
            -1
        );
        assert_eq!(
            selectivity_bucket(Some(stats), BinOp::Eq, &Value::Int(50)),
            -4
        );
        assert_eq!(selectivity_bucket(None, BinOp::Lt, &Value::Int(50)), -2);
    }

    #[test]
    fn residual_predicate_preserved() {
        let p = Plan::scan("T").filter(Expr::And(vec![
            Expr::col(0).eq(Expr::lit(3)),
            Expr::cmp(BinOp::Gt, Expr::col(1), Expr::lit(100)),
        ]));
        let opt = optimize(p);
        match &opt {
            Plan::IndexLookup { residual, .. } => assert!(residual.is_some()),
            other => panic!("expected IndexLookup, got {other:?}"),
        }
        assert!(execute(&db(), &opt).unwrap().is_empty());
    }

    #[test]
    fn stacked_filters_merge() {
        let p = Plan::scan("T")
            .filter(Expr::col(0).eq(Expr::lit(3)))
            .filter(Expr::cmp(BinOp::Lt, Expr::col(1), Expr::lit(100)));
        let opt = optimize(p.clone());
        // Optimized and unoptimized agree.
        assert_eq!(
            execute(&db(), &opt).unwrap().sorted_rows(),
            execute(&db(), &p).unwrap().sorted_rows()
        );
    }

    #[test]
    fn pushdown_through_union() {
        let p = Plan::Union {
            inputs: vec![Plan::scan("T"), Plan::scan("T")],
            distinct: false,
        }
        .filter(Expr::col(0).eq(Expr::lit(1)));
        let opt = optimize(p.clone());
        // Both branches now index lookups under the union.
        match &opt {
            Plan::Union { inputs, .. } => {
                assert!(matches!(inputs[0], Plan::IndexLookup { .. }));
                assert!(matches!(inputs[1], Plan::IndexLookup { .. }));
            }
            other => panic!("expected Union, got {other:?}"),
        }
        assert_eq!(
            execute(&db(), &opt).unwrap().sorted_rows(),
            execute(&db(), &p).unwrap().sorted_rows()
        );
    }

    #[test]
    fn pushdown_through_projected_join_sides() {
        // Join of two projections (arity known), filter references left col.
        let left = Plan::scan("T").project(vec![Expr::col(0), Expr::col(1)]);
        let right = Plan::scan("T").project(vec![Expr::col(0)]);
        let p = left
            .join(right, vec![0], vec![0])
            .filter(Expr::col(2).eq(Expr::lit(5)));
        let opt = optimize(p.clone());
        assert_eq!(
            execute(&db(), &opt).unwrap().sorted_rows(),
            execute(&db(), &p).unwrap().sorted_rows()
        );
    }

    #[test]
    fn outer_join_filters_not_pushed() {
        let p = Plan::scan("T")
            .join_as(Plan::scan("T"), JoinType::LeftOuter, vec![0], vec![0])
            .filter(Expr::IsNull(Box::new(Expr::col(2))));
        let opt = optimize(p.clone());
        assert_eq!(
            execute(&db(), &opt).unwrap().sorted_rows(),
            execute(&db(), &p).unwrap().sorted_rows()
        );
    }

    /// `chain_db`: the shape of an unfolded ProQL rule — `n`-row relations
    /// sharing the key `k` in column 0: untyped provenance tables `P1`/`P2`
    /// (as `ProvSpec::schema` declares them), typed base tables `A` (Int
    /// key, Str payload) and `F` (Float key), and the view `V` projecting
    /// `A`'s key, like `P_L_*` does.
    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        for name in ["P1", "P2"] {
            db.create_table(Schema::build(name, &[("k", ValueType::Null)], &[0]).unwrap())
                .unwrap();
        }
        db.create_table(
            Schema::build("A", &[("k", ValueType::Int), ("s", ValueType::Str)], &[0]).unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build("F", &[("k", ValueType::Float), ("v", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        for i in 0..n {
            db.insert("P1", tup![i]).unwrap();
            db.insert("P2", tup![i]).unwrap();
            db.insert("A", tup![i, format!("s{}", i % 7)]).unwrap();
            db.insert("F", tup![i as f64, i * 2]).unwrap();
        }
        db.create_view(
            "V",
            Plan::scan("A").project_named(vec![Expr::col(0)], vec!["k".into()]),
            Schema::build("V", &[("k", ValueType::Null)], &[0]).unwrap(),
        )
        .unwrap();
        db
    }

    fn range(col: usize, lo: i64, hi: i64) -> Expr {
        Expr::And(vec![
            Expr::cmp(BinOp::Ge, Expr::col(col), Expr::lit(lo)),
            Expr::cmp(BinOp::Lt, Expr::col(col), Expr::lit(hi)),
        ])
    }

    fn push_only(db: &Database, plan: Plan) -> Plan {
        let cfg = OptimizerConfig {
            passes: vec![Pass::PushFilters],
        };
        optimize_with_config(db, plan, &cfg)
    }

    /// Every scan leaf of `plan` (views unexpanded), with the predicate of
    /// the filter directly above it, if any.
    fn leaves(plan: &Plan) -> Vec<(String, Option<Expr>)> {
        fn walk(plan: &Plan, above: Option<&Expr>, out: &mut Vec<(String, Option<Expr>)>) {
            match plan {
                Plan::Scan { table } => out.push((table.clone(), above.cloned())),
                Plan::Filter { input, predicate } => walk(input, Some(predicate), out),
                Plan::Project { input, .. } => walk(input, None, out),
                Plan::Join { left, right, .. } => {
                    walk(left, None, out);
                    walk(right, None, out);
                }
                other => panic!("unexpected node {other:?}"),
            }
        }
        let mut out = Vec::new();
        walk(plan, None, &mut out);
        out
    }

    #[test]
    fn range_reaches_every_leaf_of_a_same_key_chain() {
        // The regression this pass exists for: joins over *bare scans*
        // (arity only the catalog knows), a view, untyped provenance
        // tables next to a typed base table.
        let db = chain_db(200);
        let plan = Plan::scan("P1")
            .join(Plan::scan("P2"), vec![0], vec![0])
            .join(Plan::scan("V"), vec![0], vec![0])
            .join(Plan::scan("A"), vec![0], vec![0])
            .filter(range(0, 11, 19));
        let want = execute(&db, &plan).unwrap();
        assert_eq!(want.rows.len(), 8);
        let opt = push_only(&db, plan.clone());
        // No filter is left above the joins, the view scan became its body
        // over the base table, and all four leaves carry the range.
        assert!(matches!(opt, Plan::Join { .. }), "{opt:?}");
        let got: Vec<(String, Option<Expr>)> = leaves(&opt);
        let names: Vec<&str> = got.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(names, ["P1", "P2", "A", "A"]);
        for (table, pred) in &got {
            assert_eq!(pred.as_ref(), Some(&range(0, 11, 19)), "leaf {table}");
        }
        let run = execute(&db, &opt).unwrap();
        assert_eq!((run.names, run.rows), (want.names, want.rows));
        // The catalog-free pass cannot know the scans' arities: it leaves
        // the filter where it was.
        assert_eq!(optimize(plan.clone()), plan);
    }

    #[test]
    fn mirroring_needs_matching_declared_key_types_and_total_conjuncts() {
        let db = chain_db(50);
        // Int key ⋈ Float key: pushed into its own side, not mirrored.
        let plan = Plan::scan("A")
            .join(Plan::scan("F"), vec![0], vec![0])
            .filter(range(0, 5, 9));
        let opt = push_only(&db, plan.clone());
        assert_eq!(
            leaves(&opt),
            vec![("A".into(), Some(range(0, 5, 9))), ("F".into(), None)]
        );
        assert_eq!(
            execute(&db, &opt).unwrap().rows,
            execute(&db, &plan).unwrap().rows
        );
        // Arithmetic can fail on values the other side holds: pushed, not
        // mirrored, even between same-typed keys.
        let arith = Expr::cmp(
            BinOp::Lt,
            Expr::cmp(BinOp::Add, Expr::col(0), Expr::lit(1)),
            Expr::lit(9),
        );
        let plan = Plan::scan("A")
            .join(Plan::scan("A"), vec![0], vec![0])
            .filter(arith.clone());
        assert_eq!(
            leaves(&push_only(&db, plan)),
            vec![("A".into(), Some(arith)), ("A".into(), None)]
        );
        // A conjunct over a non-key column is not implied on the other
        // side either; one over the right side's key mirrors leftwards.
        let plan = Plan::scan("A")
            .join(Plan::scan("A"), vec![0], vec![0])
            .filter(Expr::And(vec![
                Expr::col(1).eq(Expr::lit("s3")),
                Expr::col(2).eq(Expr::lit(3)),
            ]));
        assert_eq!(
            leaves(&push_only(&db, plan)),
            vec![
                (
                    "A".into(),
                    Some(Expr::And(vec![
                        Expr::col(1).eq(Expr::lit("s3")),
                        Expr::col(0).eq(Expr::lit(3))
                    ]))
                ),
                ("A".into(), Some(Expr::col(0).eq(Expr::lit(3))))
            ]
        );
    }

    #[test]
    fn outer_joins_take_filters_on_the_preserved_side_only() {
        let db = chain_db(20);
        // One conjunct per side, both over join keys (so an inner join
        // would also mirror them), above sides that already carry a filter.
        let on_left = Expr::cmp(BinOp::Lt, Expr::col(0), Expr::lit(5));
        let on_right = Expr::cmp(BinOp::Lt, Expr::col(2), Expr::lit(9));
        let has = |pred: &Option<Expr>, c: &Expr| {
            pred.as_ref().map_or(0, |p| conjuncts(p.clone()).len()) == 2
                && pred
                    .as_ref()
                    .is_some_and(|p| conjuncts(p.clone()).contains(c))
        };
        for (join_type, left_gets, right_gets) in [
            (JoinType::LeftOuter, true, false),
            (JoinType::RightOuter, false, true),
            (JoinType::FullOuter, false, false),
        ] {
            let plan = Plan::scan("A")
                .filter(Expr::cmp(BinOp::Ge, Expr::col(0), Expr::lit(3)))
                .join_as(
                    Plan::scan("A").filter(Expr::cmp(BinOp::Ge, Expr::col(0), Expr::lit(1))),
                    join_type,
                    vec![0],
                    vec![0],
                )
                .filter(Expr::And(vec![on_left.clone(), on_right.clone()]));
            let opt = push_only(&db, plan.clone());
            // The conjunct over the null-supplying side stays above.
            let Plan::Filter { input, predicate } = &opt else {
                panic!("{join_type:?}: {opt:?}");
            };
            let kept = conjuncts(predicate.clone());
            assert_eq!(kept.contains(&on_left), !left_gets, "{join_type:?}");
            assert_eq!(kept.contains(&on_right), !right_gets, "{join_type:?}");
            // Each side holds its own filter plus at most the conjunct
            // that reads it — never a mirrored one.
            let l = leaves(input);
            assert_eq!(has(&l[0].1, &on_left), left_gets, "{join_type:?}");
            let moved = Expr::cmp(BinOp::Lt, Expr::col(0), Expr::lit(9));
            assert_eq!(has(&l[1].1, &moved), right_gets, "{join_type:?}");
            for (_, pred) in &l {
                let n = pred.as_ref().map_or(0, |p| conjuncts(p.clone()).len());
                assert!(
                    n <= 2,
                    "{join_type:?}: mirrored into an outer join: {opt:?}"
                );
            }
            assert_eq!(
                execute(&db, &opt).unwrap().rows,
                execute(&db, &plan).unwrap().rows,
                "{join_type:?}"
            );
        }
    }

    #[test]
    fn filters_pass_projections_and_views_only_over_plain_columns() {
        let db = chain_db(30);
        // Output 0 is computed, output 1 is plain column 0.
        let plan = Plan::scan("A")
            .project(vec![
                Expr::cmp(BinOp::Add, Expr::col(0), Expr::lit(100)),
                Expr::col(0),
            ])
            .filter(Expr::And(vec![
                Expr::cmp(BinOp::Lt, Expr::col(0), Expr::lit(110)),
                Expr::cmp(BinOp::Ge, Expr::col(1), Expr::lit(4)),
            ]));
        let opt = push_only(&db, plan.clone());
        let Plan::Filter { input, predicate } = &opt else {
            panic!("computed-column conjunct must stay above: {opt:?}");
        };
        assert_eq!(
            predicate,
            &Expr::cmp(BinOp::Lt, Expr::col(0), Expr::lit(110))
        );
        assert_eq!(
            leaves(input),
            vec![(
                "A".into(),
                Some(Expr::cmp(BinOp::Ge, Expr::col(0), Expr::lit(4)))
            )]
        );
        assert_eq!(
            execute(&db, &opt).unwrap().rows,
            execute(&db, &plan).unwrap().rows
        );

        // A view over a view, the outer one renaming its column: the scan
        // expands through both bodies and keeps the outer schema's names.
        let mut db = db;
        db.create_view(
            "W",
            Plan::scan("V").project_named(vec![Expr::col(0)], vec!["inner".into()]),
            Schema::build("W", &[("key", ValueType::Null)], &[0]).unwrap(),
        )
        .unwrap();
        let plan = Plan::scan("W").filter(range(0, 2, 6));
        let want = execute(&db, &plan).unwrap();
        let opt = push_only(&db, plan);
        assert_eq!(leaves(&opt), vec![("A".into(), Some(range(0, 2, 6)))]);
        let got = execute(&db, &opt).unwrap();
        assert_eq!(got.names, vec!["key".to_string()]);
        assert_eq!((got.names, got.rows), (want.names, want.rows));
        // Unfiltered view scans stay scans (nothing to push, nothing to
        // retain).
        assert_eq!(push_only(&db, Plan::scan("W")), Plan::scan("W"));
    }

    #[test]
    fn mirrored_ranges_are_estimated_once_per_chain() {
        // q-error on the target-query shape: with the range on every
        // leaf, each join must still be estimated near its actual size —
        // not range-selectivity^leaves, which used to print `~0 rows`.
        let db = chain_db(200);
        let plan = Plan::scan("P1")
            .join(Plan::scan("P2"), vec![0], vec![0])
            .join(Plan::scan("V"), vec![0], vec![0])
            .join(Plan::scan("A"), vec![0], vec![0])
            .join(Plan::scan("P2"), vec![0], vec![0])
            .filter(range(0, 11, 19));
        let opt = optimize_with(&db, plan);
        fn check(db: &Database, plan: &Plan, joins: &mut usize) {
            if let Plan::Join { left, right, .. } = plan {
                *joins += 1;
                let actual = execute(db, plan).unwrap().rows.len() as f64;
                let est = estimate_rows(db, plan) as f64;
                let q = (est.max(1.0) / actual.max(1.0)).max(actual.max(1.0) / est.max(1.0));
                assert!(q <= 4.0, "estimated {est} rows, actual {actual}: {plan:?}");
                check(db, left, joins);
                check(db, right, joins);
            }
        }
        let mut joins = 0;
        check(&db, &opt, &mut joins);
        assert_eq!(joins, 4);
        // And a range on one side only keeps the other side's domain.
        let one_sided =
            Plan::scan("A")
                .filter(range(0, 11, 19))
                .join(Plan::scan("F"), vec![0], vec![0]);
        let est = estimate_rows(&db, &one_sided) as f64;
        assert!(
            (2.0..=32.0).contains(&est),
            "estimated {est} rows, actual 8"
        );
    }

    #[test]
    fn build_side_picked_from_estimates() {
        let mut db = db(); // T has 10 rows
        db.create_table(
            proql_common::Schema::build("Small", &[("a", proql_common::ValueType::Int)], &[0])
                .unwrap(),
        )
        .unwrap();
        db.insert("Small", proql_common::tup![1]).unwrap();
        let opt = optimize_with(
            &db,
            Plan::scan("Small").join(Plan::scan("T"), vec![0], vec![0]),
        );
        match opt {
            Plan::Join { build, .. } => assert_eq!(build, BuildSide::Left),
            other => panic!("expected Join, got {other:?}"),
        }
        let opt = optimize_with(
            &db,
            Plan::scan("T").join(Plan::scan("Small"), vec![0], vec![0]),
        );
        match opt {
            Plan::Join { build, .. } => assert_eq!(build, BuildSide::Right),
            other => panic!("expected Join, got {other:?}"),
        }
    }

    #[test]
    fn estimator_survives_cyclic_views() {
        // The executors reject cyclic views with an error; the estimator
        // must not stack-overflow on them either.
        let mut db = db();
        let schema =
            proql_common::Schema::build("V", &[("id", proql_common::ValueType::Int)], &[]).unwrap();
        db.create_view("V", Plan::scan("W"), schema.clone())
            .unwrap();
        db.create_view("W", Plan::scan("V"), schema).unwrap();
        let plan = Plan::scan("V").join(Plan::scan("T"), vec![0], vec![0]);
        let opt = optimize_with(&db, plan);
        assert!(matches!(opt, Plan::Join { .. }));
        assert_eq!(estimate_rows(&db, &Plan::scan("V")), 0);
    }

    #[test]
    fn index_lookup_estimate_uses_distinct_keys() {
        // Regression for the fixed len/8 guess: a lookup on a 2-distinct-
        // value column of a 10-row table returns ~5 rows, not 10/8 = 2.
        let mut db = Database::new();
        db.create_table(
            Schema::build("S", &[("id", ValueType::Int), ("g", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        for i in 0..10 {
            db.insert("S", tup![i, i % 2]).unwrap();
        }
        db.table_mut("S")
            .unwrap()
            .create_index("by_g", vec![1], IndexKind::Hash)
            .unwrap();
        let lookup = Plan::IndexLookup {
            table: "S".into(),
            columns: vec![1],
            key: vec![Value::Int(0)],
            residual: None,
        };
        assert_eq!(estimate_rows(&db, &lookup), 5);
        // And on the (unique) primary column, ~1 row.
        let pk_lookup = Plan::IndexLookup {
            table: "S".into(),
            columns: vec![0],
            key: vec![Value::Int(3)],
            residual: None,
        };
        // No physical index on column 0: the column-NDV fallback applies.
        assert_eq!(estimate_rows(&db, &pk_lookup), 1);
    }

    #[test]
    fn filter_estimates_use_column_stats() {
        let db = db(); // T: 10 rows, col 0 = 0..10 (NDV 10), col 1 = 0..90
                       // Equality on a unique column: ~1 row.
        let eq = Plan::scan("T").filter(Expr::col(0).eq(Expr::lit(3)));
        assert_eq!(estimate_rows(&db, &eq), 1);
        // Range: b < 45 covers half the 0..=90 domain.
        let half = Plan::scan("T").filter(Expr::cmp(BinOp::Lt, Expr::col(1), Expr::lit(45)));
        assert_eq!(estimate_rows(&db, &half), 5);
    }

    #[test]
    fn join_estimate_uses_key_ndv() {
        // FK-shaped join: Child has 100 rows over 10 parents.
        let mut db = Database::new();
        db.create_table(Schema::build("Parent", &[("id", ValueType::Int)], &[0]).unwrap())
            .unwrap();
        db.create_table(
            Schema::build(
                "Child",
                &[("id", ValueType::Int), ("pid", ValueType::Int)],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
        for i in 0..10 {
            db.insert("Parent", tup![i]).unwrap();
        }
        for i in 0..100 {
            db.insert("Child", tup![i, i % 10]).unwrap();
        }
        let j = Plan::scan("Child").join(Plan::scan("Parent"), vec![1], vec![0]);
        // 100 * 10 / max(10, 10) = 100: the FK join keeps the child side.
        assert_eq!(estimate_rows(&db, &j), 100);
    }

    #[test]
    fn reorder_picks_selective_leaf_first_and_preserves_results() {
        // big ⋈ big first is quadratic; the tiny filtered leaf should be
        // joined early by the cost-based pass.
        let mut db = Database::new();
        db.create_table(
            Schema::build("A", &[("x", ValueType::Int), ("y", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build("B", &[("y", ValueType::Int), ("z", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build("C", &[("z", ValueType::Int), ("w", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        for i in 0..60 {
            db.insert("A", tup![i, i % 3]).unwrap();
            db.insert("B", tup![i, i % 4]).unwrap();
        }
        for i in 0..4 {
            db.insert("C", tup![i, i]).unwrap();
        }
        // ((A ⋈ B on A.y=B.y) ⋈ C on B.z=C.z) filtered to one C row.
        let plan = Plan::scan("A")
            .join(Plan::scan("B"), vec![1], vec![0])
            .join(
                Plan::scan("C").filter(Expr::col(0).eq(Expr::lit(2))),
                vec![3],
                vec![0],
            );
        let opt = optimize_with(&db, plan.clone());
        // The reordering pass must have restructured the chain (a
        // restoring projection appears at the top).
        assert!(
            matches!(opt, Plan::Project { .. }),
            "expected reordered chain, got {opt:?}"
        );
        let want = execute(&db, &plan).unwrap();
        let got = execute(&db, &opt).unwrap();
        assert_eq!(want.names, got.names);
        assert_eq!(want.sorted_rows(), got.sorted_rows());
        // And the reordered chain is estimated cheaper at the top.
        assert!(estimate_rows(&db, &opt) <= estimate_rows(&db, &plan));
    }

    #[test]
    fn reorder_skips_order_sensitive_subtrees() {
        let db = db();
        let chain = Plan::scan("T")
            .join(Plan::scan("T"), vec![0], vec![0])
            .join(Plan::scan("T"), vec![0], vec![0]);
        let plan = Plan::Limit {
            input: Box::new(chain.clone()),
            n: 3,
        };
        let opt = optimize_with_config(
            &db,
            plan.clone(),
            &OptimizerConfig {
                passes: vec![Pass::ReorderJoins],
            },
        );
        // The subtree under LIMIT is untouched.
        assert_eq!(opt, plan);
    }

    #[test]
    fn right_deep_chain_bailout_preserves_schema_names() {
        // Regression: `join_names` duplicate disambiguation is not
        // associative, so a right-deep original (`A ⋈ (B ⋈ C)`) rebuilt
        // left-deep on the bail-out path must keep the restoring
        // projection — the greedy lands on the identity order here
        // (all leaves the same size), which is exactly that path.
        let db = db();
        let plan = Plan::scan("T").join(
            Plan::scan("T").join(Plan::scan("T"), vec![0], vec![0]),
            vec![0],
            vec![0],
        );
        let want = execute(&db, &plan).unwrap();
        let opt = optimize_with_config(
            &db,
            plan,
            &OptimizerConfig {
                passes: vec![Pass::ReorderJoins],
            },
        );
        let got = execute(&db, &opt).unwrap();
        assert_eq!(want.names, got.names, "schema names must be preserved");
        assert_eq!(want.sorted_rows(), got.sorted_rows());
    }

    #[test]
    fn reorder_bails_without_connecting_predicates() {
        let db = db();
        // Pure cross products: nothing to reorder by.
        let plan = Plan::scan("T").join(Plan::scan("T"), vec![], vec![]).join(
            Plan::scan("T"),
            vec![],
            vec![],
        );
        let opt = optimize_with_config(
            &db,
            plan.clone(),
            &OptimizerConfig {
                passes: vec![Pass::ReorderJoins],
            },
        );
        assert_eq!(
            execute(&db, &opt).unwrap().sorted_rows(),
            execute(&db, &plan).unwrap().sorted_rows()
        );
    }

    #[test]
    fn pass_ablation_configs_agree_on_results() {
        let db = db();
        let plan = Plan::scan("T")
            .join(Plan::scan("T"), vec![0], vec![0])
            .join(Plan::scan("T"), vec![1], vec![0])
            .filter(Expr::cmp(BinOp::Le, Expr::col(0), Expr::lit(6)));
        let want = execute(&db, &plan).unwrap().sorted_rows();
        for cfg in [
            OptimizerConfig::default(),
            OptimizerConfig::without(Pass::ReorderJoins),
            OptimizerConfig::without(Pass::PushFilters),
            OptimizerConfig::without(Pass::IndexScans),
            OptimizerConfig::without(Pass::PickBuildSides),
            OptimizerConfig { passes: vec![] },
        ] {
            let opt = optimize_with_config(&db, plan.clone(), &cfg);
            assert_eq!(
                execute(&db, &opt).unwrap().sorted_rows(),
                want,
                "cfg {cfg:?}"
            );
        }
    }
}
