//! The columnar batch executor.
//!
//! Operator-at-a-time evaluation over [`RecordBatch`]es: every plan node
//! consumes whole batches and produces a whole batch, with vectorized
//! predicate/projection evaluation ([`crate::batch`]), hash equi-joins with
//! build-side selection, and hash-based grouped aggregation. Results are
//! bit-identical to the row executor ([`crate::exec`]) — property tests in
//! the workspace assert equivalence on randomized instances — but the
//! columnar layout avoids per-row `Tuple` allocation on the hot provenance
//! workloads (dense integer `P_m` chains).
//!
//! # Morsel-driven parallelism
//!
//! Every data-parallel operator also has a **morsel-driven parallel** path
//! selected by [`Parallelism`] (default [`Parallelism::Serial`]): scans,
//! filters, and projections split their input into [`MORSEL_ROWS`]-sized
//! morsels evaluated on scoped worker threads and reassembled in morsel
//! order; hash joins run two-phase (parallel partition-by-hash of both
//! sides, then per-partition build+probe in parallel, then a canonical
//! `(left, right)` sort); grouped aggregation computes per-morsel partial
//! group tables merged deterministically in morsel index order. All merge
//! orders are fixed by morsel/partition index, so parallel output is
//! **bit-identical** to serial output — including `f64` SUM results, whose
//! accumulation order is the global row order in both paths.

use crate::batch::{eval_expr, eval_mask, Column, RecordBatch};
use crate::database::Database;
use crate::exec::{join_names, JoinAlgo, Relation, MAX_VIEW_DEPTH};
use crate::expr::{BinOp, Expr};
use crate::plan::{AggFunc, Aggregate, BuildSide, JoinType, Plan};
use crate::zone::ZonePred;
use proql_common::par::{morsel_ranges, par_map, MORSEL_ROWS};
use proql_common::sync::lock;
use proql_common::{trace, Error, Parallelism, Result, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which executor [`execute_with`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Columnar batch pipeline (the default).
    #[default]
    Batch,
    /// Row-at-a-time with hash joins (the pre-batch executor).
    Row,
    /// Row-at-a-time with nested-loop joins (ablation baseline).
    NestedLoop,
}

/// Execute `plan` under the selected executor, materializing a row
/// [`Relation`] either way (callers downstream are row-oriented).
pub fn execute_with(db: &Database, plan: &Plan, mode: ExecMode) -> Result<Relation> {
    execute_with_opts(db, plan, mode, Parallelism::Serial)
}

/// [`execute_with`] plus a [`Parallelism`] knob. Only the batch executor
/// parallelizes; the row executors are serial oracles kept bit-for-bit
/// stable.
pub fn execute_with_opts(
    db: &Database,
    plan: &Plan,
    mode: ExecMode,
    par: Parallelism,
) -> Result<Relation> {
    match mode {
        ExecMode::Batch => {
            let batch = execute_batch_opts(db, plan, par)?;
            Ok(Relation {
                names: batch.names.clone(),
                rows: batch.to_rows(),
            })
        }
        ExecMode::Row => crate::exec::execute_rows(db, plan, JoinAlgo::Hash),
        ExecMode::NestedLoop => crate::exec::execute_rows(db, plan, JoinAlgo::NestedLoop),
    }
}

/// Execute `plan`, producing a columnar batch.
pub fn execute_batch(db: &Database, plan: &Plan) -> Result<RecordBatch> {
    execute_batch_opts(db, plan, Parallelism::Serial)
}

/// [`execute_batch`] with morsel-driven parallelism. Output is guaranteed
/// bit-identical to the serial run for every plan shape.
pub fn execute_batch_opts(db: &Database, plan: &Plan, par: Parallelism) -> Result<RecordBatch> {
    Ok(exec_inner(db, plan, 0, par.resolved(), None)?.materialize())
}

/// Actual row count and wall time of one plan operator, recorded by
/// [`execute_batch_profiled`]. Stats are indexed in the **pre-order** the
/// plan renderer walks ([`crate::explain::explain_tree`]): node first,
/// then children (Join: left, then right), with view bodies excluded —
/// so `stats[i]` annotates the `i`-th rendered plan line.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStat {
    /// Rows the operator produced.
    pub rows: u64,
    /// Wall time of the operator *including* its inputs, in nanoseconds
    /// (the tree renderer shows inclusive time, like the plan's nesting).
    pub nanos: u64,
    /// Morsel-sized zones a zone-map-pruned scan skipped without reading
    /// (non-zero only on `Scan` operators fused under a `Filter`).
    pub morsels_skipped: u64,
    /// Fraction of input rows surviving a row-dropping operator (filter,
    /// distinct, limit): selection-vector length over underlying rows,
    /// or — for a filter fused into a late-materialising scan, which
    /// never builds the non-survivors — survivors over rows scanned.
    /// `None` for operators that drop nothing.
    pub sel_density: Option<f64>,
}

/// Collector for per-operator actuals. Slots are reserved at operator
/// entry (pre-order) and filled at operator exit; a `Mutex` only because
/// the profile is shared with the morsel worker scope — plan recursion
/// itself stays on one thread.
struct PlanProfile {
    slots: Mutex<Vec<OpStat>>,
}

impl PlanProfile {
    fn new() -> PlanProfile {
        PlanProfile {
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Reserve the next pre-order slot.
    fn reserve(&self) -> usize {
        let mut s = lock(&self.slots);
        s.push(OpStat::default());
        s.len() - 1
    }

    fn record(&self, idx: usize, stat: OpStat) {
        let mut s = lock(&self.slots);
        if let Some(slot) = s.get_mut(idx) {
            *slot = stat;
        }
    }

    fn into_stats(self) -> Vec<OpStat> {
        self.slots.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// Execute `plan` collecting per-operator actual row counts and timings
/// (the `EXPLAIN ANALYZE` backend). The stats vector is ordered exactly
/// like the rendered plan tree; pass it to
/// [`crate::explain::explain_tree_analyzed`].
pub fn execute_batch_profiled(
    db: &Database,
    plan: &Plan,
    par: Parallelism,
) -> Result<(RecordBatch, Vec<OpStat>)> {
    let prof = PlanProfile::new();
    let batch = exec_inner(db, plan, 0, par.resolved(), Some(&prof))?.materialize();
    Ok((batch, prof.into_stats()))
}

/// A batch plus an optional **selection vector**: strictly ascending row
/// indices into `batch` that survive upstream row-dropping operators.
/// Filters, DISTINCT, and LIMIT emit a selection instead of copying the
/// survivors; selection-aware consumers (joins, grouping, sort) iterate
/// the selected rows in place, and everything else
/// [`materialize`](SelBatch::materialize)s. The ascending invariant is
/// what keeps selection-aware operators bit-identical to the dense paths:
/// ascending underlying indices order exactly like dense positions, so
/// every canonical sort and first-seen order is unchanged.
struct SelBatch {
    batch: RecordBatch,
    /// `None` = all rows selected.
    sel: Option<Vec<u32>>,
    /// Set by the late-materialising fused scan, which drops the
    /// non-survivors itself instead of emitting a selection: the candidate
    /// rows it read and the zones it skipped. Telemetry only (`EXPLAIN
    /// ANALYZE` density, span fields).
    fused: Option<FusedScan>,
}

/// What a fused `Filter(Scan)` read to produce its (dense) output.
#[derive(Debug, Clone, Copy)]
struct FusedScan {
    /// Live rows in unpruned zones — the rows the predicate ran over.
    scanned: usize,
    /// Morsel-sized zones the zone maps ruled out.
    skipped: u64,
}

impl SelBatch {
    fn dense(batch: RecordBatch) -> SelBatch {
        SelBatch {
            batch,
            sel: None,
            fused: None,
        }
    }

    /// `batch` restricted to the (ascending) row indices `sel`.
    fn selected(batch: RecordBatch, sel: Vec<u32>) -> SelBatch {
        SelBatch {
            batch,
            sel: Some(sel),
            fused: None,
        }
    }

    /// Survivors over rows read, for operators that dropped rows.
    fn density(&self) -> Option<f64> {
        let (kept, of) = match (&self.sel, self.fused) {
            (Some(sel), _) => (sel.len(), self.batch.len()),
            (None, Some(fused)) => (self.batch.len(), fused.scanned),
            (None, None) => return None,
        };
        Some(if of == 0 {
            1.0
        } else {
            kept as f64 / of as f64
        })
    }

    /// Logical row count (selected rows, not underlying rows).
    fn len(&self) -> usize {
        self.sel.as_ref().map_or(self.batch.len(), Vec::len)
    }

    /// The selected row indices: borrowed when a selection exists, the
    /// identity permutation otherwise.
    fn rows(&self) -> Cow<'_, [u32]> {
        match &self.sel {
            Some(s) => Cow::Borrowed(s.as_slice()),
            None => Cow::Owned((0..self.batch.len() as u32).collect()),
        }
    }

    /// Gather the selected rows into a dense batch (free when dense).
    fn materialize(self) -> RecordBatch {
        match self.sel {
            Some(sel) => self.batch.gather(&sel),
            None => self.batch,
        }
    }
}

/// Static trace-span name for a plan operator.
fn op_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. } => "op.scan",
        Plan::Values { .. } => "op.values",
        Plan::Filter { .. } => "op.filter",
        Plan::Project { .. } => "op.project",
        Plan::Join { .. } => "op.join",
        Plan::Union { .. } => "op.union",
        Plan::Distinct { .. } => "op.distinct",
        Plan::Aggregate { .. } => "op.aggregate",
        Plan::Sort { .. } => "op.sort",
        Plan::Limit { .. } => "op.limit",
        Plan::IndexLookup { .. } => "op.index_lookup",
    }
}

/// Observability shim around [`exec_node`]: reserves the operator's
/// pre-order profile slot on entry, times the node inclusively, opens a
/// per-operator trace span, and stamps both with the actual row count on
/// exit. With profiling off and tracing disabled this reduces to two
/// cheap branches per node.
fn exec_inner(
    db: &Database,
    plan: &Plan,
    depth: usize,
    par: Parallelism,
    prof: Option<&PlanProfile>,
) -> Result<SelBatch> {
    if prof.is_none() && !trace::enabled() {
        return exec_node(db, plan, depth, par, prof);
    }
    let slot = prof.map(|p| p.reserve());
    let mut sp = trace::span(op_name(plan));
    let start = Instant::now();
    let result = exec_node(db, plan, depth, par, prof);
    if let Ok(sb) = &result {
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if let (Some(p), Some(idx)) = (prof, slot) {
            p.record(
                idx,
                OpStat {
                    rows: sb.len() as u64,
                    nanos,
                    morsels_skipped: 0,
                    sel_density: sb.density(),
                },
            );
        }
        if sp.id().is_some() {
            sp.field("rows", sb.len().to_string());
            if let Some(fused) = sb.fused {
                sp.field("scanned", fused.scanned.to_string());
                if fused.skipped > 0 {
                    sp.field("morsels_skipped", fused.skipped.to_string());
                }
            }
        }
    } else {
        sp.field("error", "true");
    }
    result
}

/// True when `rows` is big enough (and `par` parallel enough) that cutting
/// into morsels beats a serial pass.
fn go_parallel(par: Parallelism, rows: usize) -> bool {
    par.threads() > 1 && rows > MORSEL_ROWS
}

/// Concatenate per-morsel result batches in morsel index order.
fn concat_batches(parts: Vec<Result<RecordBatch>>) -> Result<RecordBatch> {
    let mut iter = parts.into_iter();
    let mut acc = iter
        .next()
        .ok_or_else(|| Error::Storage("empty morsel set".into()))??;
    for part in iter {
        let batch = part?;
        let rows = acc.len() + batch.len();
        let names = std::mem::take(&mut acc.names);
        let cols = std::mem::take(&mut acc.columns)
            .into_iter()
            .zip(batch.columns)
            .map(|(a, b)| a.append(b))
            .collect();
        acc = RecordBatch::new(names, cols, rows);
    }
    Ok(acc)
}

fn exec_node(
    db: &Database,
    plan: &Plan,
    depth: usize,
    par: Parallelism,
    prof: Option<&PlanProfile>,
) -> Result<SelBatch> {
    if depth > MAX_VIEW_DEPTH {
        return Err(Error::Storage(
            "view expansion too deep (cyclic view definition?)".into(),
        ));
    }
    match plan {
        Plan::Scan { table } => {
            if let Ok(t) = db.table(table) {
                if t.has_dict() || !go_parallel(par, t.len()) {
                    // Columnar scan: dictionary columns come out as code
                    // memcpys, everything else decodes as from_rows would.
                    Ok(SelBatch::dense(t.to_batch()))
                } else {
                    // Parallel transpose: each morsel of rows becomes its
                    // own column chunk, appended in morsel order.
                    let names = t.column_names();
                    let rows: Vec<&proql_common::Tuple> = t.iter().collect();
                    let ranges = morsel_ranges(rows.len());
                    let parts = par_map(ranges.len(), par.threads(), |i| {
                        Ok(RecordBatch::from_rows(
                            names.clone(),
                            rows[ranges[i].clone()].iter().copied(),
                        ))
                    });
                    Ok(SelBatch::dense(concat_batches(parts)?))
                }
            } else if let Some(v) = db.view(table) {
                // View bodies are not rendered by the plan tree, so they
                // take no profile slots (keeps pre-order indices aligned).
                let mut batch = exec_inner(db, &v.plan, depth + 1, par, None)?.materialize();
                let names: Vec<String> = v
                    .schema
                    .attributes()
                    .iter()
                    .map(|a| a.name.clone())
                    .collect();
                if names.len() != batch.arity() {
                    return Err(Error::Storage(format!(
                        "view {table} schema arity mismatch"
                    )));
                }
                batch.names = names;
                Ok(SelBatch::dense(batch))
            } else {
                Err(Error::NotFound(format!("relation {table}")))
            }
        }
        Plan::Values { schema, rows } => {
            let names = schema.attributes().iter().map(|a| a.name.clone()).collect();
            Ok(SelBatch::dense(RecordBatch::from_rows(names, rows.iter())))
        }
        Plan::Filter { input, predicate } => {
            // Fused filter+scan: a filter directly over a base-table scan
            // consults the table's zone maps and skips whole morsels its
            // comparison conjuncts rule out, then evaluates the full
            // predicate only over surviving zones.
            if let Plan::Scan { table } = input.as_ref() {
                if let Ok(t) = db.table(table) {
                    return fused_filter_scan(t, predicate, par, prof);
                }
            }
            let input = exec_inner(db, input, depth, par, prof)?;
            let batch = input.materialize();
            let sel = filter_sel(&batch, predicate, par)?;
            Ok(SelBatch::selected(batch, sel))
        }
        Plan::Project {
            input,
            exprs,
            names,
        } => {
            let batch = exec_inner(db, input, depth, par, prof)?.materialize();
            if names.len() != exprs.len() {
                return Err(Error::Storage("project names/exprs length mismatch".into()));
            }
            if go_parallel(par, batch.len()) {
                let ranges = morsel_ranges(batch.len());
                let parts = par_map(ranges.len(), par.threads(), |i| {
                    let m = batch.slice(ranges[i].clone());
                    let columns: Vec<Column> = exprs
                        .iter()
                        .map(|e| eval_expr(e, &m))
                        .collect::<Result<_>>()?;
                    let rows = m.len();
                    Ok(RecordBatch::new(names.clone(), columns, rows))
                });
                Ok(SelBatch::dense(concat_batches(parts)?))
            } else {
                let columns: Vec<Column> = exprs
                    .iter()
                    .map(|e| eval_expr(e, &batch))
                    .collect::<Result<_>>()?;
                Ok(SelBatch::dense(RecordBatch::new(
                    names.clone(),
                    columns,
                    batch.len(),
                )))
            }
        }
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            build,
        } => {
            let l = exec_inner(db, left, depth, par, prof)?;
            let r = exec_inner(db, right, depth, par, prof)?;
            batch_join(&l, &r, *join_type, left_keys, right_keys, *build, par).map(SelBatch::dense)
        }
        Plan::Union { inputs, distinct } => {
            if inputs.is_empty() {
                return Ok(SelBatch::dense(RecordBatch::empty(vec![])));
            }
            let mut acc = exec_inner(db, &inputs[0], depth, par, prof)?.materialize();
            for p in &inputs[1..] {
                let batch = exec_inner(db, p, depth, par, prof)?.materialize();
                if batch.arity() != acc.arity() {
                    return Err(Error::Storage(format!(
                        "union arity mismatch: {} vs {}",
                        acc.arity(),
                        batch.arity()
                    )));
                }
                let rows = acc.len() + batch.len();
                let names = std::mem::take(&mut acc.names);
                let cols = std::mem::take(&mut acc.columns)
                    .into_iter()
                    .zip(batch.columns)
                    .map(|(a, b)| a.append(b))
                    .collect();
                acc = RecordBatch::new(names, cols, rows);
            }
            if *distinct {
                let all: Vec<u32> = (0..acc.len() as u32).collect();
                let keep = batch_distinct(&acc, &all);
                return Ok(SelBatch::selected(acc, keep));
            }
            Ok(SelBatch::dense(acc))
        }
        Plan::Distinct { input } => {
            let input = exec_inner(db, input, depth, par, prof)?;
            let keep = batch_distinct(&input.batch, &input.rows());
            Ok(SelBatch::selected(input.batch, keep))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => {
            let input = exec_inner(db, input, depth, par, prof)?;
            batch_aggregate_sel(
                &input.batch,
                input.sel.as_deref(),
                group_by,
                aggs,
                having.as_ref(),
                par,
            )
            .map(SelBatch::dense)
        }
        Plan::Sort { input, by } => {
            let input = exec_inner(db, input, depth, par, prof)?;
            if let Some(&c) = by.iter().find(|&&c| c >= input.batch.arity()) {
                return Err(Error::Storage(format!("sort column {c} out of range")));
            }
            let mut idx: Vec<u32> = input.rows().into_owned();
            let batch = &input.batch;
            // Stable sort over ascending underlying indices: ties keep
            // selection order, exactly like sorting a materialized batch.
            idx.sort_by(|&a, &b| {
                for &c in by {
                    let col = &batch.columns[c];
                    let ord = col.value(a as usize).cmp(&col.value(b as usize));
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(SelBatch::dense(input.batch.gather(&idx)))
        }
        Plan::Limit { input, n } => {
            let mut input = exec_inner(db, input, depth, par, prof)?;
            if input.len() <= *n {
                return Ok(input);
            }
            match &mut input.sel {
                Some(sel) => sel.truncate(*n),
                None => input.sel = Some((0..*n as u32).collect()),
            }
            Ok(input)
        }
        Plan::IndexLookup { .. } => {
            // Index lookups touch few rows; reuse the row executor's logic
            // and transpose.
            let rel = crate::exec::execute(db, plan)?;
            Ok(SelBatch::dense(RecordBatch::from_rows(
                rel.names,
                rel.rows.iter(),
            )))
        }
    }
}

/// The fused `Filter(Scan)` path, **late-materialising**: after zone-map
/// pruning only the predicate's columns are read for every candidate row;
/// the remaining columns are read at the surviving positions alone, so a
/// selective filter over a wide table never transposes the rows it drops.
/// The result is dense (survivors in physical order — exactly the rows
/// and order a full scan + selection vector would materialize).
///
/// Fusion bypasses [`exec_inner`] for the scan child. It is one physical
/// operator and traces as one span — the enclosing `op.filter`, which
/// carries the fused scan's `scanned` / `morsels_skipped` counts — but
/// the rendered plan has a `Scan` line, so under `EXPLAIN ANALYZE` this
/// reserves that line's pre-order profile slot and reports on it the
/// candidate rows whose predicate columns were read.
fn fused_filter_scan(
    t: &crate::table::Table,
    predicate: &Expr,
    par: Parallelism,
    prof: Option<&PlanProfile>,
) -> Result<SelBatch> {
    let arity = t.schema().arity();
    let mut pred_cols: Vec<usize> = Vec::new();
    predicate.for_each_col(&mut |c| pred_cols.push(c));
    if let Some(c) = pred_cols.iter().find(|&&c| c >= arity) {
        return Err(Error::Storage(format!("column {c} out of range")));
    }
    pred_cols.sort_unstable();
    pred_cols.dedup();
    let names = t.column_names();

    // Scan: candidate positions, then the predicate's columns only.
    let slot = prof.map(|p| (p, p.reserve(), Instant::now()));
    let (positions, skipped) = t.scan_positions(Some(&zone_preds(predicate, arity)));
    let narrow = RecordBatch::new(
        pred_cols.iter().map(|&c| names[c].clone()).collect(),
        pred_cols
            .iter()
            .map(|&c| t.scan_column(c, &positions))
            .collect(),
        positions.len(),
    );
    if let Some((p, idx, start)) = slot {
        p.record(
            idx,
            OpStat {
                rows: positions.len() as u64,
                nanos: start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                morsels_skipped: skipped,
                sel_density: None,
            },
        );
    }

    // Filter over the narrow batch (column i of it is `pred_cols[i]`),
    // then materialize the survivors: predicate columns are gathered from
    // the narrow batch, the rest read from the table.
    let local = predicate.map_cols(&|c| {
        pred_cols
            .binary_search(&c)
            .expect("pred_cols holds every column of the predicate")
    });
    let sel = filter_sel(&narrow, &local, par)?;
    let survivors: Vec<u32> = sel.iter().map(|&i| positions[i as usize]).collect();
    let columns = (0..arity)
        .map(|c| match pred_cols.binary_search(&c) {
            Ok(i) => narrow.columns[i].gather(&sel),
            Err(_) => t.scan_column(c, &survivors),
        })
        .collect();
    Ok(SelBatch {
        batch: RecordBatch::new(names, columns, survivors.len()),
        sel: None,
        fused: Some(FusedScan {
            scanned: positions.len(),
            skipped,
        }),
    })
}

/// Evaluate `predicate` over `batch` and return the surviving row indices
/// (ascending). The parallel path evaluates per-morsel masks on worker
/// threads and concatenates survivors in morsel order.
fn filter_sel(batch: &RecordBatch, predicate: &Expr, par: Parallelism) -> Result<Vec<u32>> {
    if go_parallel(par, batch.len()) {
        let ranges = morsel_ranges(batch.len());
        let parts = par_map(ranges.len(), par.threads(), |i| {
            let r = ranges[i].clone();
            let m = batch.slice(r.clone());
            let mask = eval_mask(predicate, &m)?;
            Ok(mask
                .iter()
                .enumerate()
                .filter_map(|(j, &keep)| keep.then_some((r.start + j) as u32))
                .collect::<Vec<u32>>())
        });
        let mut sel = Vec::new();
        for part in parts {
            sel.extend(part?);
        }
        Ok(sel)
    } else {
        let mask = eval_mask(predicate, batch)?;
        Ok(mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i as u32))
            .collect())
    }
}

/// Collect the zone-testable conjuncts of `e`: comparisons between a
/// column and a literal (either orientation) and `col IS NULL`, walked
/// through top-level ANDs. Everything else contributes nothing — the full
/// predicate still runs over every surviving zone, so missing a conjunct
/// only costs pruning, never correctness.
fn zone_preds(e: &Expr, arity: usize) -> Vec<ZonePred> {
    fn flip(op: BinOp) -> BinOp {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Gt => BinOp::Lt,
            BinOp::Le => BinOp::Ge,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }
    fn walk(e: &Expr, arity: usize, out: &mut Vec<ZonePred>) {
        match e {
            Expr::And(ps) => {
                for p in ps {
                    walk(p, arity, out);
                }
            }
            Expr::IsNull(inner) => {
                if let Expr::Col(c) = inner.as_ref() {
                    if *c < arity {
                        out.push(ZonePred::IsNull(*c));
                    }
                }
            }
            Expr::Bin(op, a, b)
                if matches!(
                    op,
                    BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                ) =>
            {
                match (a.as_ref(), b.as_ref()) {
                    (Expr::Col(c), Expr::Lit(v)) if *c < arity => {
                        out.push(ZonePred::Cmp(*c, *op, v.clone()));
                    }
                    (Expr::Lit(v), Expr::Col(c)) if *c < arity => {
                        out.push(ZonePred::Cmp(*c, flip(*op), v.clone()));
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(e, arity, &mut out);
    out
}

/// Matched pairs + NULL-padded rows of a join, in the canonical order both
/// join cores produce: `out_l`/`out_r` sorted by `(left, right)` row index,
/// pads sorted ascending.
struct JoinRows {
    out_l: Vec<u32>,
    out_r: Vec<u32>,
    pad_l: Vec<u32>,
    pad_r: Vec<u32>,
}

/// Per-key-column comparison scheme for one join, fixed before hashing.
/// When **both** sides of a key column are dictionary-encoded, hashing and
/// equality run on `u32` codes instead of decoded strings; differing
/// dictionaries are bridged by translating probe codes into the build
/// dictionary up front ([`crate::dict::translation`]), with untranslatable
/// probe values mapped to the reserved [`crate::dict::NULL_CODE`] sentinel
/// no real build code can equal. Any other column pairing falls back to
/// decoded-value hashing/equality.
enum KeyCol<'a> {
    /// General path: decoded-value hashing and equality.
    Value,
    /// Code comparison: build-side codes, probe-side codes (translated
    /// into the build dictionary when the `Arc`s differ).
    Codes { b: &'a [u32], p: Cow<'a, [u32]> },
}

/// Pick the comparison scheme for each key-column pair.
fn key_cols<'a>(
    b: &'a RecordBatch,
    b_keys: &[usize],
    p: &'a RecordBatch,
    p_keys: &[usize],
) -> Vec<KeyCol<'a>> {
    b_keys
        .iter()
        .zip(p_keys)
        .map(
            |(&bk, &pk)| match (b.columns[bk].dict_parts(), p.columns[pk].dict_parts()) {
                (Some((bc, bd)), Some((pc, pd))) => {
                    if Arc::ptr_eq(bd, pd) {
                        KeyCol::Codes {
                            b: bc,
                            p: Cow::Borrowed(pc),
                        }
                    } else {
                        let trans = crate::dict::translation(pd, bd);
                        KeyCol::Codes {
                            b: bc,
                            p: Cow::Owned(
                                pc.iter()
                                    .map(|&c| trans[c as usize].unwrap_or(crate::dict::NULL_CODE))
                                    .collect(),
                            ),
                        }
                    }
                }
                _ => KeyCol::Value,
            },
        )
        .collect()
}

/// Key hashes for each row in `rows` on one join side, positionally
/// aligned with `rows`. Code-scheme columns hash the `u32` code with the
/// same byte stream on both sides, so hashing can never separate a pair
/// the equality check would accept; the hash function is operator-local
/// and never influences output order.
fn hash_join_side(
    batch: &RecordBatch,
    keys: &[usize],
    kc: &[KeyCol],
    rows: &[u32],
    build: bool,
    par: Parallelism,
) -> Vec<u64> {
    let hash_one = |row: u32| -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (i, k) in kc.iter().enumerate() {
            match k {
                KeyCol::Value => batch.columns[keys[i]].hash_value_into(row as usize, &mut h),
                KeyCol::Codes { b, p } => {
                    let code = if build {
                        b[row as usize]
                    } else {
                        p[row as usize]
                    };
                    h.write_u8(3);
                    h.write_u32(code);
                }
            }
        }
        h.finish()
    };
    if go_parallel(par, rows.len()) {
        let ranges = morsel_ranges(rows.len());
        let parts = par_map(ranges.len(), par.threads(), |i| {
            rows[ranges[i].clone()]
                .iter()
                .map(|&r| hash_one(r))
                .collect::<Vec<u64>>()
        });
        let mut out = Vec::with_capacity(rows.len());
        for part in parts {
            out.extend(part);
        }
        out
    } else {
        rows.iter().map(|&r| hash_one(r)).collect()
    }
}

/// Key equality between a probe row and a build row under the per-column
/// schemes. `keys_eq` semantics for `Value` columns; pure `u32` compares
/// for `Codes` columns.
fn join_keys_eq(
    p: &RecordBatch,
    p_keys: &[usize],
    p_row: u32,
    b: &RecordBatch,
    b_keys: &[usize],
    b_row: u32,
    kc: &[KeyCol],
) -> bool {
    kc.iter().enumerate().all(|(i, k)| match k {
        KeyCol::Value => {
            p.columns[p_keys[i]].value_eq(p_row as usize, &b.columns[b_keys[i]], b_row as usize)
        }
        KeyCol::Codes { b: bc, p: pc } => pc[p_row as usize] == bc[b_row as usize],
    })
}

/// Hash equi-join over (possibly selection-filtered) batches. `build`
/// selects the hash-table side; `Auto` builds on the smaller input. The
/// parallel core partitions both sides by key hash and runs per-partition
/// build+probe on worker threads; the canonical `(left, right)` output
/// sort makes it bit-identical to the serial core.
fn batch_join(
    l: &SelBatch,
    r: &SelBatch,
    join_type: JoinType,
    left_keys: &[usize],
    right_keys: &[usize],
    build: BuildSide,
    par: Parallelism,
) -> Result<RecordBatch> {
    if left_keys.len() != right_keys.len() {
        return Err(Error::Storage("join key arity mismatch".into()));
    }
    // Malformed plans must surface as errors, not index panics, so the
    // service worker pool survives bad requests.
    if let Some(&k) = left_keys.iter().find(|&&k| k >= l.batch.arity()) {
        return Err(Error::Storage(format!("left join key {k} out of range")));
    }
    if let Some(&k) = right_keys.iter().find(|&&k| k >= r.batch.arity()) {
        return Err(Error::Storage(format!("right join key {k} out of range")));
    }
    let names = join_names(l.batch.names.clone(), &r.batch.names);
    let build_left = match build {
        BuildSide::Left => true,
        BuildSide::Right => false,
        BuildSide::Auto => l.len() < r.len(),
    };
    let l_rows = l.rows();
    let r_rows = r.rows();
    let (b, b_rows, b_keys, p, p_rows, p_keys) = if build_left {
        (
            &l.batch,
            &l_rows[..],
            left_keys,
            &r.batch,
            &r_rows[..],
            right_keys,
        )
    } else {
        (
            &r.batch,
            &r_rows[..],
            right_keys,
            &l.batch,
            &l_rows[..],
            left_keys,
        )
    };
    let kc = key_cols(b, b_keys, p, p_keys);
    let pad_left_rows = matches!(join_type, JoinType::LeftOuter | JoinType::FullOuter);
    let pad_right_rows = matches!(join_type, JoinType::RightOuter | JoinType::FullOuter);

    let rows = if go_parallel(par, b_rows.len() + p_rows.len()) {
        parallel_join_core(
            b,
            b_rows,
            b_keys,
            p,
            p_rows,
            p_keys,
            &kc,
            build_left,
            pad_left_rows,
            pad_right_rows,
            par,
        )
    } else {
        serial_join_core(
            b,
            b_rows,
            b_keys,
            p,
            p_rows,
            p_keys,
            &kc,
            build_left,
            pad_left_rows,
            pad_right_rows,
        )
    };
    assemble_join(&l.batch, &r.batch, names, rows)
}

/// Single-threaded build+probe (the original executor). `b_rows`/`p_rows`
/// are the selected (ascending) underlying row indices of each side; all
/// emitted indices are underlying.
#[allow(clippy::too_many_arguments)]
fn serial_join_core(
    b: &RecordBatch,
    b_rows: &[u32],
    b_keys: &[usize],
    p: &RecordBatch,
    p_rows: &[u32],
    p_keys: &[usize],
    kc: &[KeyCol],
    build_left: bool,
    pad_left_rows: bool,
    pad_right_rows: bool,
) -> JoinRows {
    // Build: hash → positions into b_rows (NULL keys never match).
    let b_hashes = hash_join_side(b, b_keys, kc, b_rows, true, Parallelism::Serial);
    let mut table: HashMap<u64, Vec<u32>> = HashMap::with_capacity(b_rows.len());
    for (pos, &bi) in b_rows.iter().enumerate() {
        if b.key_has_null(b_keys, bi as usize) {
            continue;
        }
        table.entry(b_hashes[pos]).or_default().push(pos as u32);
    }

    // Probe: emit (left row, right row) index pairs for matched rows and
    // collect rows needing NULL padding.
    let p_hashes = hash_join_side(p, p_keys, kc, p_rows, false, Parallelism::Serial);
    let mut matched_build = vec![false; b_rows.len()];
    let mut out_l: Vec<u32> = Vec::new();
    let mut out_r: Vec<u32> = Vec::new();
    let mut pad_l: Vec<u32> = Vec::new();
    let mut pad_r: Vec<u32> = Vec::new();
    for (ppos, &pi) in p_rows.iter().enumerate() {
        let mut any = false;
        if !p.key_has_null(p_keys, pi as usize) {
            if let Some(cands) = table.get(&p_hashes[ppos]) {
                for &bpos in cands {
                    let bi = b_rows[bpos as usize];
                    if join_keys_eq(p, p_keys, pi, b, b_keys, bi, kc) {
                        any = true;
                        matched_build[bpos as usize] = true;
                        if build_left {
                            out_l.push(bi);
                            out_r.push(pi);
                        } else {
                            out_l.push(pi);
                            out_r.push(bi);
                        }
                    }
                }
            }
        }
        if !any {
            // The probe side is left when building right, and vice versa.
            if build_left {
                if pad_right_rows {
                    pad_r.push(pi);
                }
            } else if pad_left_rows {
                pad_l.push(pi);
            }
        }
    }
    for (bpos, &m) in matched_build.iter().enumerate() {
        if !m {
            if build_left {
                if pad_left_rows {
                    pad_l.push(b_rows[bpos]);
                }
            } else if pad_right_rows {
                pad_r.push(b_rows[bpos]);
            }
        }
    }
    // When the build side is the left input, matched pairs were emitted in
    // probe (= right) major order; restore the canonical left-major order.
    // (Building right already emits sorted by (left, right).)
    if build_left && !out_l.is_empty() {
        let mut perm: Vec<usize> = (0..out_l.len()).collect();
        perm.sort_by_key(|&i| (out_l[i], out_r[i]));
        out_l = perm.iter().map(|&i| out_l[i]).collect();
        out_r = perm.iter().map(|&i| out_r[i]).collect();
    }
    pad_l.sort_unstable();
    pad_r.sort_unstable();
    JoinRows {
        out_l,
        out_r,
        pad_l,
        pad_r,
    }
}

/// Two-phase parallel build+probe: partition both sides by key hash, then
/// build+probe each partition on a worker thread. A build row and every
/// probe row that can match it land in the same partition, so partitions
/// are independent; the final global `(left, right)` sort restores the
/// serial core's exact row order.
#[allow(clippy::too_many_arguments)]
fn parallel_join_core(
    b: &RecordBatch,
    b_rows: &[u32],
    b_keys: &[usize],
    p: &RecordBatch,
    p_rows: &[u32],
    p_keys: &[usize],
    kc: &[KeyCol],
    build_left: bool,
    pad_left_rows: bool,
    pad_right_rows: bool,
    par: Parallelism,
) -> JoinRows {
    let threads = par.threads();
    let b_hashes = hash_join_side(b, b_keys, kc, b_rows, true, par);
    let p_hashes = hash_join_side(p, p_keys, kc, p_rows, false, par);
    // Power-of-two partition count a bit above the thread count, so one
    // slow partition does not serialize the tail.
    let n_parts = (threads * 4).next_power_of_two();
    let mask = n_parts - 1;

    let mut b_parts: Vec<Vec<u32>> = vec![Vec::new(); n_parts];
    for (pos, &bi) in b_rows.iter().enumerate() {
        if !b.key_has_null(b_keys, bi as usize) {
            b_parts[(b_hashes[pos] as usize) & mask].push(pos as u32);
        }
    }
    let mut p_parts: Vec<Vec<u32>> = vec![Vec::new(); n_parts];
    // NULL-keyed probe rows never match: straight to the unmatched list.
    let mut unmatched_probe: Vec<u32> = Vec::new();
    for (pos, &pi) in p_rows.iter().enumerate() {
        if p.key_has_null(p_keys, pi as usize) {
            unmatched_probe.push(pi);
        } else {
            p_parts[(p_hashes[pos] as usize) & mask].push(pos as u32);
        }
    }

    // (matched (build,probe) underlying pairs, matched build positions,
    // unmatched probe underlying rows) per partition.
    type PartOut = (Vec<(u32, u32)>, Vec<u32>, Vec<u32>);
    let parts: Vec<PartOut> = par_map(n_parts, threads, |part| {
        let mut table: HashMap<u64, Vec<u32>> = HashMap::with_capacity(b_parts[part].len());
        for &bpos in &b_parts[part] {
            table.entry(b_hashes[bpos as usize]).or_default().push(bpos);
        }
        let mut pairs = Vec::new();
        let mut matched = Vec::new();
        let mut unmatched = Vec::new();
        for &ppos in &p_parts[part] {
            let pi = p_rows[ppos as usize];
            let mut any = false;
            if let Some(cands) = table.get(&p_hashes[ppos as usize]) {
                for &bpos in cands {
                    let bi = b_rows[bpos as usize];
                    if join_keys_eq(p, p_keys, pi, b, b_keys, bi, kc) {
                        any = true;
                        pairs.push((bi, pi));
                        matched.push(bpos);
                    }
                }
            }
            if !any {
                unmatched.push(pi);
            }
        }
        (pairs, matched, unmatched)
    });

    let mut matched_build = vec![false; b_rows.len()];
    let mut lr: Vec<(u32, u32)> = Vec::new();
    for (pairs, matched, unmatched) in parts {
        for (bi, pi) in pairs {
            lr.push(if build_left { (bi, pi) } else { (pi, bi) });
        }
        for bpos in matched {
            matched_build[bpos as usize] = true;
        }
        unmatched_probe.extend(unmatched);
    }
    // Canonical order: (left, right) ascending; pairs are unique, so the
    // unstable sort is deterministic.
    lr.sort_unstable();
    let (out_l, out_r) = lr.into_iter().unzip();

    let mut pad_l: Vec<u32> = Vec::new();
    let mut pad_r: Vec<u32> = Vec::new();
    for &pi in &unmatched_probe {
        if build_left {
            if pad_right_rows {
                pad_r.push(pi);
            }
        } else if pad_left_rows {
            pad_l.push(pi);
        }
    }
    for (bpos, &m) in matched_build.iter().enumerate() {
        if !m {
            if build_left {
                if pad_left_rows {
                    pad_l.push(b_rows[bpos]);
                }
            } else if pad_right_rows {
                pad_r.push(b_rows[bpos]);
            }
        }
    }
    pad_l.sort_unstable();
    pad_r.sort_unstable();
    JoinRows {
        out_l,
        out_r,
        pad_l,
        pad_r,
    }
}

/// Assemble the output in the row executor's exact order: a left-major
/// merge of matched pairs and NULL-padded unmatched left rows (a left row
/// is either matched or padded, never both), then unmatched right rows.
/// `None` gathers as NULL.
fn assemble_join(
    l: &RecordBatch,
    r: &RecordBatch,
    names: Vec<String>,
    rows: JoinRows,
) -> Result<RecordBatch> {
    let JoinRows {
        out_l,
        out_r,
        pad_l,
        pad_r,
    } = rows;
    let total = out_l.len() + pad_l.len() + pad_r.len();
    let mut fin_l: Vec<Option<u32>> = Vec::with_capacity(total);
    let mut fin_r: Vec<Option<u32>> = Vec::with_capacity(total);
    let (mut i, mut j) = (0usize, 0usize);
    while i < out_l.len() || j < pad_l.len() {
        let take_matched = match (out_l.get(i), pad_l.get(j)) {
            (Some(&m), Some(&pad)) => m < pad,
            (Some(_), None) => true,
            _ => false,
        };
        if take_matched {
            fin_l.push(Some(out_l[i]));
            fin_r.push(Some(out_r[i]));
            i += 1;
        } else {
            fin_l.push(Some(pad_l[j]));
            fin_r.push(None);
            j += 1;
        }
    }
    for &ri in &pad_r {
        fin_l.push(None);
        fin_r.push(Some(ri));
    }

    let mut columns = Vec::with_capacity(l.arity() + r.arity());
    for c in &l.columns {
        columns.push(c.gather_opt(&fin_l));
    }
    for c in &r.columns {
        columns.push(c.gather_opt(&fin_r));
    }
    Ok(RecordBatch::new(names, columns, total))
}

/// Hashes of the `cols` key of each selected row, positionally aligned
/// with `rows`. Dictionary-encoded columns hash their `u32` code instead
/// of the decoded string — safe for operator-local grouping/distinct
/// because group order is first-seen (row order) and equality is always
/// re-checked, so the hash function never leaks into results.
fn local_key_hashes(
    batch: &RecordBatch,
    cols: &[usize],
    rows: &[u32],
    par: Parallelism,
) -> Vec<u64> {
    let hash_one = |row: u32| -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for &c in cols {
            match batch.columns[c].dict_parts() {
                Some((codes, _)) => {
                    h.write_u8(3);
                    h.write_u32(codes[row as usize]);
                }
                None => batch.columns[c].hash_value_into(row as usize, &mut h),
            }
        }
        h.finish()
    };
    if go_parallel(par, rows.len()) {
        let ranges = morsel_ranges(rows.len());
        let parts = par_map(ranges.len(), par.threads(), |i| {
            rows[ranges[i].clone()]
                .iter()
                .map(|&r| hash_one(r))
                .collect::<Vec<u64>>()
        });
        let mut out = Vec::with_capacity(rows.len());
        for part in parts {
            out.extend(part);
        }
        out
    } else {
        rows.iter().map(|&r| hash_one(r)).collect()
    }
}

/// Hash-based distinct over the selected rows, preserving first-occurrence
/// order. Returns the kept underlying row indices (ascending, since `rows`
/// is ascending).
fn batch_distinct(batch: &RecordBatch, rows: &[u32]) -> Vec<u32> {
    let all: Vec<usize> = (0..batch.arity()).collect();
    let hashes = local_key_hashes(batch, &all, rows, Parallelism::Serial);
    let mut seen: HashMap<u64, Vec<u32>> = HashMap::with_capacity(rows.len());
    let mut keep: Vec<u32> = Vec::new();
    'rows: for (pos, &row) in rows.iter().enumerate() {
        let bucket = seen.entry(hashes[pos]).or_default();
        for &j in bucket.iter() {
            if batch.keys_eq(&all, row as usize, batch, &all, j as usize) {
                continue 'rows;
            }
        }
        bucket.push(row);
        keep.push(row);
    }
    keep
}

/// Hash-grouped aggregation over a selection: only the rows in `sel`
/// (ascending underlying indices; `None` = all rows) participate. Groups
/// preserve first-seen order (matching the row executor); aggregates run
/// with typed fast paths over dense columns. Under parallelism each
/// morsel builds a partial group table and partials merge in morsel index
/// order (so group ids, representative rows, and member order — hence
/// `f64` SUM accumulation order — are identical to the serial pass), then
/// aggregate folding parallelizes over chunks of groups.
fn batch_aggregate_sel(
    batch: &RecordBatch,
    sel: Option<&[u32]>,
    group_by: &[usize],
    aggs: &[Aggregate],
    having: Option<&Expr>,
    par: Parallelism,
) -> Result<RecordBatch> {
    let par = par.resolved();
    if let Some(&c) = group_by.iter().find(|&&c| c >= batch.arity()) {
        return Err(Error::Storage(format!("group column {c} out of range")));
    }
    if let Some(c) = aggs
        .iter()
        .filter_map(|a| a.func.input_column())
        .find(|&c| c >= batch.arity())
    {
        return Err(Error::Storage(format!(
            "aggregate input column {c} out of range"
        )));
    }
    let rows: Cow<'_, [u32]> = match sel {
        Some(s) => Cow::Borrowed(s),
        None => Cow::Owned((0..batch.len() as u32).collect()),
    };
    let hashes = local_key_hashes(batch, group_by, &rows, par);
    let (mut group_first, mut members) = if go_parallel(par, rows.len()) {
        parallel_grouping(batch, group_by, &rows, &hashes, par)
    } else {
        serial_grouping(batch, group_by, &rows, &hashes)
    };
    // Global aggregate over empty input still yields one row.
    if group_by.is_empty() && rows.is_empty() {
        group_first.push(0);
        members.push(Vec::new());
    }

    let mut names: Vec<String> = group_by
        .iter()
        .map(|&c| {
            batch
                .names
                .get(c)
                .cloned()
                .unwrap_or_else(|| format!("c{c}"))
        })
        .collect();
    names.extend(aggs.iter().map(|a| a.name.clone()));

    let n_groups = group_first.len();
    let mut columns: Vec<Column> = Vec::with_capacity(group_by.len() + aggs.len());
    for &c in group_by {
        columns.push(batch.columns[c].gather(&group_first));
    }
    for agg in aggs {
        columns.push(fold_agg_column_par(agg.func, &members, batch, par)?);
    }
    let mut out = RecordBatch::new(names, columns, n_groups);
    if let Some(pred) = having {
        let mask = eval_mask(pred, &out)?;
        out = out.filter(&mask);
    }
    Ok(out)
}

/// First-seen-order group assignment, shared by the serial pass, the
/// per-morsel workers, and the partial-table merge (one implementation so
/// group equality can never diverge between the serial and parallel
/// paths).
#[derive(Default)]
struct GroupTable {
    /// hash → (representative row, gid) entries.
    buckets: HashMap<u64, Vec<(u32, u32)>>,
    /// gid → representative (first-seen) underlying row.
    firsts: Vec<u32>,
    /// gid → the representative's key hash (lets the partial-table merge
    /// re-insert representatives without a positional hash lookup).
    first_hash: Vec<u64>,
    /// gid → member underlying rows, in insertion order.
    members: Vec<Vec<u32>>,
}

impl GroupTable {
    /// The gid of `row`'s group, creating the group (with `row` as its
    /// representative) on first sight.
    fn gid(&mut self, batch: &RecordBatch, group_by: &[usize], hash: u64, row: u32) -> u32 {
        let bucket = self.buckets.entry(hash).or_default();
        for &(first, g) in bucket.iter() {
            if batch.keys_eq(group_by, row as usize, batch, group_by, first as usize) {
                return g;
            }
        }
        let g = self.firsts.len() as u32;
        bucket.push((row, g));
        self.firsts.push(row);
        self.first_hash.push(hash);
        self.members.push(Vec::new());
        g
    }
}

/// Assign group ids in first-seen order over the selected rows; returns
/// (gid → representative underlying row, gid → member underlying rows in
/// ascending order). `hashes` is positionally aligned with `rows`.
fn serial_grouping(
    batch: &RecordBatch,
    group_by: &[usize],
    rows: &[u32],
    hashes: &[u64],
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut table = GroupTable::default();
    for (pos, &row) in rows.iter().enumerate() {
        let g = table.gid(batch, group_by, hashes[pos], row);
        table.members[g as usize].push(row);
    }
    (table.firsts, table.members)
}

/// Morsel-parallel grouping: per-morsel partial group tables (built on
/// worker threads) merged serially in morsel index order. The merge visits
/// each morsel's groups in local first-seen order, so global group order
/// equals the serial first-seen order and member lists stay ascending.
fn parallel_grouping(
    batch: &RecordBatch,
    group_by: &[usize],
    rows: &[u32],
    hashes: &[u64],
    par: Parallelism,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let ranges = morsel_ranges(rows.len());
    let parts: Vec<GroupTable> = par_map(ranges.len(), par.threads(), |mi| {
        let mut local = GroupTable::default();
        for pos in ranges[mi].clone() {
            let g = local.gid(batch, group_by, hashes[pos], rows[pos]);
            local.members[g as usize].push(rows[pos]);
        }
        local
    });

    let mut table = GroupTable::default();
    for local in parts {
        for (local_gid, &first) in local.firsts.iter().enumerate() {
            let g = table.gid(batch, group_by, local.first_hash[local_gid], first);
            table.members[g as usize].extend_from_slice(&local.members[local_gid]);
        }
    }
    (table.firsts, table.members)
}

fn sum_overflow() -> Error {
    Error::Overflow("integer SUM overflowed i64 (derivation counts too large?)".into())
}

/// [`fold_agg_column`] parallelized over chunks of groups. Every group's
/// fold visits its members in the same (ascending row) order as the serial
/// pass, so results — floats included — are bit-identical; chunks merely
/// spread independent groups over threads.
fn fold_agg_column_par(
    func: AggFunc,
    members: &[Vec<u32>],
    batch: &RecordBatch,
    par: Parallelism,
) -> Result<Column> {
    if !go_parallel(par, members.len()) {
        return fold_agg_column(func, members, batch);
    }
    let ranges = morsel_ranges(members.len());
    let parts = par_map(ranges.len(), par.threads(), |i| {
        fold_agg_column(func, &members[ranges[i].clone()], batch)
    });
    let mut iter = parts.into_iter();
    let mut acc = iter
        .next()
        .ok_or_else(|| Error::Storage("empty aggregate chunk set".into()))??;
    for part in iter {
        acc = acc.append(part?);
    }
    Ok(acc)
}

/// Evaluate one aggregate for every group. Integer SUM uses checked
/// arithmetic: overflow surfaces as [`Error::Overflow`] (matching the
/// semiring graph walk's contract) instead of silently wrapping.
fn fold_agg_column(func: AggFunc, members: &[Vec<u32>], batch: &RecordBatch) -> Result<Column> {
    match func {
        AggFunc::Count => Ok(Column::Int(
            members.iter().map(|m| m.len() as i64).collect(),
        )),
        AggFunc::Sum(c) => {
            let col = &batch.columns[c];
            match col {
                // Dense fast paths: no NULLs possible.
                Column::Int(v) => {
                    let mut out = Vec::with_capacity(members.len());
                    for m in members {
                        if m.is_empty() {
                            out.push(Value::Null);
                        } else {
                            let mut acc = 0i64;
                            for &i in m {
                                acc = acc.checked_add(v[i as usize]).ok_or_else(sum_overflow)?;
                            }
                            out.push(Value::Int(acc));
                        }
                    }
                    Ok(Column::from_value_vec(out))
                }
                Column::Float(v) => Ok(Column::from_value_vec(
                    members
                        .iter()
                        .map(|m| {
                            if m.is_empty() {
                                Value::Null
                            } else {
                                Value::Float(m.iter().map(|&i| v[i as usize]).sum())
                            }
                        })
                        .collect(),
                )),
                _ => {
                    let mut out = Vec::with_capacity(members.len());
                    for m in members {
                        let mut int_sum: i64 = 0;
                        let mut float_sum: f64 = 0.0;
                        let mut any_float = false;
                        let mut any = false;
                        for &i in m {
                            match col.value(i as usize) {
                                Value::Int(v) => {
                                    int_sum = int_sum.checked_add(v).ok_or_else(sum_overflow)?;
                                    any = true;
                                }
                                Value::Float(v) => {
                                    float_sum += v;
                                    any_float = true;
                                    any = true;
                                }
                                Value::Null => {}
                                other => {
                                    return Err(Error::Storage(format!(
                                        "SUM over non-numeric {other}"
                                    )))
                                }
                            }
                        }
                        out.push(if !any {
                            Value::Null
                        } else if any_float {
                            Value::Float(float_sum + int_sum as f64)
                        } else {
                            Value::Int(int_sum)
                        });
                    }
                    Ok(Column::from_value_vec(out))
                }
            }
        }
        AggFunc::Min(c) | AggFunc::Max(c) => {
            let col = &batch.columns[c];
            let want_min = matches!(func, AggFunc::Min(_));
            let mut out = Vec::with_capacity(members.len());
            for m in members {
                let mut best: Option<Value> = None;
                for &i in m {
                    let v = col.value(i as usize);
                    if v.is_null() {
                        continue;
                    }
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let keep_new = if want_min { v < b } else { v > b };
                            if keep_new {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                out.push(best.unwrap_or(Value::Null));
            }
            Ok(Column::from_value_vec(out))
        }
        AggFunc::BoolOr(c) | AggFunc::BoolAnd(c) => {
            let col = &batch.columns[c];
            let is_or = matches!(func, AggFunc::BoolOr(_));
            let mut out = Vec::with_capacity(members.len());
            for m in members {
                let mut acc: Option<bool> = None;
                for &i in m {
                    match col.value(i as usize) {
                        Value::Bool(b) => {
                            acc = Some(match acc {
                                None => b,
                                Some(a) if is_or => a || b,
                                Some(a) => a && b,
                            });
                        }
                        Value::Null => {}
                        other => {
                            return Err(Error::Storage(format!(
                                "boolean aggregate over non-boolean {other}"
                            )))
                        }
                    }
                }
                out.push(acc.map(Value::Bool).unwrap_or(Value::Null));
            }
            Ok(Column::from_value_vec(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use proql_common::rng::SplitMix64;
    use proql_common::{tup, Schema, Tuple, ValueType};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            Schema::build(
                "A",
                &[
                    ("id", ValueType::Int),
                    ("sn", ValueType::Str),
                    ("len", ValueType::Int),
                ],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build(
                "C",
                &[("id", ValueType::Int), ("name", ValueType::Str)],
                &[0, 1],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("A", tup![1, "sn1", 7]).unwrap();
        db.insert("A", tup![2, "sn1", 5]).unwrap();
        db.insert("C", tup![2, "cn2"]).unwrap();
        db.insert("C", tup![3, "cn3"]).unwrap();
        db
    }

    /// Batch and row executors agree (rows order-insensitively, names
    /// exactly) on a plan — under every parallelism setting.
    fn assert_equivalent(db: &Database, plan: &Plan) {
        let row = execute(db, plan).expect("row executor");
        let nested = execute_with(db, plan, ExecMode::NestedLoop).expect("nested loop");
        assert_eq!(row.sorted_rows(), nested.sorted_rows());
        for par in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(8),
        ] {
            let batch = execute_with_opts(db, plan, ExecMode::Batch, par).expect("batch executor");
            assert_eq!(row.names, batch.names, "par {par:?}");
            assert_eq!(row.sorted_rows(), batch.sorted_rows(), "par {par:?}");
        }
    }

    #[test]
    fn scan_filter_project_match_row_executor() {
        let db = db();
        assert_equivalent(&db, &Plan::scan("A"));
        assert_equivalent(&db, &Plan::scan("A").filter(Expr::col(2).eq(Expr::lit(5))));
        assert_equivalent(
            &db,
            &Plan::scan("A").project(vec![
                Expr::col(0),
                Expr::cmp(crate::expr::BinOp::Add, Expr::col(2), Expr::lit(1)),
            ]),
        );
    }

    #[test]
    fn joins_match_row_executor_for_all_types_and_build_sides() {
        let db = db();
        for jt in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::RightOuter,
            JoinType::FullOuter,
        ] {
            for build in [BuildSide::Auto, BuildSide::Left, BuildSide::Right] {
                let plan = Plan::Join {
                    left: Box::new(Plan::scan("A")),
                    right: Box::new(Plan::scan("C")),
                    join_type: jt,
                    left_keys: vec![0],
                    right_keys: vec![0],
                    build,
                };
                assert_equivalent(&db, &plan);
            }
        }
    }

    #[test]
    fn join_row_order_matches_row_executor_exactly() {
        let db = db();
        for jt in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::RightOuter,
            JoinType::FullOuter,
        ] {
            for build in [BuildSide::Auto, BuildSide::Left, BuildSide::Right] {
                let plan = Plan::Join {
                    left: Box::new(Plan::scan("A")),
                    right: Box::new(Plan::scan("C")),
                    join_type: jt,
                    left_keys: vec![0],
                    right_keys: vec![0],
                    build,
                };
                let row = execute(&db, &plan).unwrap();
                let batch = execute_with(&db, &plan, ExecMode::Batch).unwrap();
                assert_eq!(row.rows, batch.rows, "jt={jt:?} build={build:?}");
            }
        }
    }

    #[test]
    fn limit_over_outer_join_is_order_stable_across_executors() {
        // Regression: unmatched left rows must interleave in left-scan
        // order (as the row executor emits them), not append at the end —
        // otherwise order-sensitive consumers like LIMIT diverge.
        let db = db();
        let plan = Plan::Limit {
            input: Box::new(Plan::scan("A").join_as(
                Plan::scan("C"),
                JoinType::LeftOuter,
                vec![0],
                vec![0],
            )),
            n: 1,
        };
        let row = execute(&db, &plan).unwrap();
        let batch = execute_with(&db, &plan, ExecMode::Batch).unwrap();
        assert_eq!(row.rows, batch.rows);
        // A(1) has no C match, so the first output row is its padded row.
        assert!(batch.rows[0].get(3).is_null());
    }

    #[test]
    fn union_distinct_sort_limit_match() {
        let db = db();
        let union = Plan::Union {
            inputs: vec![
                Plan::scan("A").project(vec![Expr::col(0)]),
                Plan::scan("C").project(vec![Expr::col(0)]),
            ],
            distinct: false,
        };
        assert_equivalent(&db, &union);
        assert_equivalent(&db, &union.clone().distinct());
        assert_equivalent(
            &db,
            &Plan::Sort {
                input: Box::new(union.clone()),
                by: vec![0],
            },
        );
        assert_equivalent(
            &db,
            &Plan::Limit {
                input: Box::new(Plan::Sort {
                    input: Box::new(union),
                    by: vec![0],
                }),
                n: 2,
            },
        );
    }

    #[test]
    fn aggregates_match() {
        let db = db();
        let p = Plan::Aggregate {
            input: Box::new(Plan::scan("A")),
            group_by: vec![1],
            aggs: vec![
                Aggregate::new(AggFunc::Count, "n"),
                Aggregate::new(AggFunc::Sum(2), "total"),
                Aggregate::new(AggFunc::Min(2), "lo"),
                Aggregate::new(AggFunc::Max(2), "hi"),
            ],
            having: Some(Expr::cmp(
                crate::expr::BinOp::Ge,
                Expr::col(2),
                Expr::lit(12),
            )),
        };
        assert_equivalent(&db, &p);
        // Global aggregate over empty input.
        let p = Plan::Aggregate {
            input: Box::new(Plan::scan("A").filter(Expr::lit(false))),
            group_by: vec![],
            aggs: vec![
                Aggregate::new(AggFunc::Count, "n"),
                Aggregate::new(AggFunc::Sum(2), "s"),
            ],
            having: None,
        };
        assert_equivalent(&db, &p);
    }

    #[test]
    fn null_join_keys_never_match_in_batch() {
        let mut db = Database::new();
        db.create_table(Schema::build("L", &[("k", ValueType::Int)], &[]).unwrap())
            .unwrap();
        db.create_table(Schema::build("R", &[("k", ValueType::Int)], &[]).unwrap())
            .unwrap();
        db.table_mut("L")
            .unwrap()
            .insert(Tuple::new(vec![Value::Null]))
            .unwrap();
        db.table_mut("L").unwrap().insert(tup![1]).unwrap();
        db.table_mut("R")
            .unwrap()
            .insert(Tuple::new(vec![Value::Null]))
            .unwrap();
        db.table_mut("R").unwrap().insert(tup![1]).unwrap();
        for jt in [JoinType::Inner, JoinType::FullOuter] {
            let p = Plan::scan("L").join_as(Plan::scan("R"), jt, vec![0], vec![0]);
            assert_equivalent(&db, &p);
        }
    }

    #[test]
    fn views_and_index_lookups_match() {
        let mut db = db();
        let schema = Schema::build("V", &[("id", ValueType::Int)], &[]).unwrap();
        db.create_view("V", Plan::scan("A").project(vec![Expr::col(0)]), schema)
            .unwrap();
        assert_equivalent(&db, &Plan::scan("V"));
        let p = Plan::IndexLookup {
            table: "A".into(),
            columns: vec![1],
            key: vec![Value::str("sn1")],
            residual: Some(Expr::col(2).eq(Expr::lit(7))),
        };
        assert_equivalent(&db, &p);
    }

    #[test]
    fn randomized_plans_agree_across_executors() {
        let mut rng = SplitMix64::seed_from_u64(0xBA7C4);
        for round in 0..20 {
            let mut db = Database::new();
            db.create_table(
                Schema::build("S", &[("a", ValueType::Int), ("b", ValueType::Int)], &[]).unwrap(),
            )
            .unwrap();
            db.create_table(
                Schema::build("T", &[("a", ValueType::Int), ("c", ValueType::Int)], &[]).unwrap(),
            )
            .unwrap();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.gen_range_usize(0, 40) {
                let t = (rng.gen_range_i64(0, 10), rng.gen_range_i64(0, 10));
                if seen.insert(("S", t)) {
                    db.insert("S", tup![t.0, t.1]).unwrap();
                }
            }
            for _ in 0..rng.gen_range_usize(0, 40) {
                let t = (rng.gen_range_i64(0, 10), rng.gen_range_i64(0, 10));
                if seen.insert(("T", t)) {
                    db.insert("T", tup![t.0, t.1]).unwrap();
                }
            }
            let probe = rng.gen_range_i64(0, 10);
            let plan = Plan::scan("S")
                .join(Plan::scan("T"), vec![0], vec![0])
                .filter(Expr::cmp(
                    crate::expr::BinOp::Le,
                    Expr::col(1),
                    Expr::lit(probe),
                ));
            assert_equivalent(&db, &plan);
            let agg = Plan::Aggregate {
                input: Box::new(plan),
                group_by: vec![0],
                aggs: vec![
                    Aggregate::new(AggFunc::Count, "n"),
                    Aggregate::new(AggFunc::Sum(3), "s"),
                ],
                having: None,
            };
            assert_equivalent(&db, &agg);
            let _ = round;
        }
    }

    /// Large instances that actually cross the morsel threshold: parallel
    /// scans/filters/projections/joins/aggregations must be bit-identical
    /// (exact row order included) to the serial batch run.
    #[test]
    fn parallel_morsel_paths_are_bit_identical_to_serial() {
        let mut db = Database::new();
        db.create_table(
            Schema::build("S", &[("a", ValueType::Int), ("b", ValueType::Int)], &[]).unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build("T", &[("a", ValueType::Int), ("c", ValueType::Int)], &[]).unwrap(),
        )
        .unwrap();
        let mut rng = SplitMix64::seed_from_u64(0x05EE_DA11);
        let n = MORSEL_ROWS * 3 + 17;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let t = (rng.gen_range_i64(0, 500), rng.gen_range_i64(0, 1000));
            if seen.insert(("S", t)) {
                db.insert("S", tup![t.0, t.1]).unwrap();
            }
            let t = (rng.gen_range_i64(0, 500), rng.gen_range_i64(0, 1000));
            if seen.insert(("T", t)) {
                db.insert("T", tup![t.0, t.1]).unwrap();
            }
        }
        let plans = [
            Plan::scan("S"),
            Plan::scan("S").filter(Expr::cmp(
                crate::expr::BinOp::Le,
                Expr::col(1),
                Expr::lit(700),
            )),
            Plan::scan("S").project(vec![
                Expr::col(0),
                Expr::cmp(crate::expr::BinOp::Add, Expr::col(1), Expr::lit(3)),
            ]),
            Plan::scan("S").join_as(Plan::scan("T"), JoinType::FullOuter, vec![0], vec![0]),
            Plan::Aggregate {
                input: Box::new(Plan::scan("S").join(Plan::scan("T"), vec![0], vec![0])),
                group_by: vec![0],
                aggs: vec![
                    Aggregate::new(AggFunc::Count, "n"),
                    Aggregate::new(AggFunc::Sum(3), "s"),
                    Aggregate::new(AggFunc::Min(1), "lo"),
                ],
                having: None,
            },
        ];
        for plan in &plans {
            let serial = execute_batch(&db, plan).unwrap();
            for threads in [2, 8] {
                let par = execute_batch_opts(&db, plan, Parallelism::Threads(threads)).unwrap();
                assert_eq!(serial.names, par.names);
                assert_eq!(serial.to_rows(), par.to_rows(), "threads {threads}");
            }
        }
    }

    #[test]
    fn malformed_plans_error_instead_of_panicking() {
        // The service worker pool executes plans built from untrusted
        // request text; out-of-range columns must be errors, not panics.
        let db = db();
        let bad_plans = [
            Plan::Join {
                left: Box::new(Plan::scan("A")),
                right: Box::new(Plan::scan("C")),
                join_type: JoinType::Inner,
                left_keys: vec![9],
                right_keys: vec![0],
                build: BuildSide::Auto,
            },
            Plan::Join {
                left: Box::new(Plan::scan("A")),
                right: Box::new(Plan::scan("C")),
                join_type: JoinType::FullOuter,
                left_keys: vec![0],
                right_keys: vec![7],
                build: BuildSide::Auto,
            },
            Plan::Aggregate {
                input: Box::new(Plan::scan("A")),
                group_by: vec![8],
                aggs: vec![],
                having: None,
            },
            Plan::Aggregate {
                input: Box::new(Plan::scan("A")),
                group_by: vec![],
                aggs: vec![Aggregate::new(AggFunc::Sum(9), "s")],
                having: None,
            },
            Plan::Sort {
                input: Box::new(Plan::scan("A")),
                by: vec![9],
            },
            Plan::scan("A").filter(Expr::col(9).eq(Expr::lit(1))),
            Plan::IndexLookup {
                table: "A".into(),
                columns: vec![9],
                key: vec![Value::Int(1)],
                residual: None,
            },
            Plan::IndexLookup {
                table: "A".into(),
                columns: vec![0, 1],
                key: vec![Value::Int(1)],
                residual: None,
            },
        ];
        for plan in &bad_plans {
            for mode in [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop] {
                for par in [Parallelism::Serial, Parallelism::Threads(4)] {
                    let res = execute_with_opts(&db, plan, mode, par);
                    assert!(res.is_err(), "mode {mode:?} par {par:?}: {plan:?}");
                }
            }
        }
    }

    #[test]
    fn integer_sum_overflow_is_an_error_in_every_executor() {
        // Regression for the batch/graph divergence: batch SUM used to wrap
        // silently while the graph walk's checked arithmetic errored.
        let p = Plan::Aggregate {
            input: Box::new(Plan::Values {
                schema: crate::plan::anon_schema("v", &["x".into()]),
                rows: vec![tup![i64::MAX], tup![1]],
            }),
            group_by: vec![],
            aggs: vec![Aggregate::new(AggFunc::Sum(0), "s")],
            having: None,
        };
        let db = Database::new();
        for mode in [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop] {
            for par in [Parallelism::Serial, Parallelism::Threads(4)] {
                let err = execute_with_opts(&db, &p, mode, par).unwrap_err();
                assert!(
                    matches!(err, Error::Overflow(_)),
                    "mode {mode:?} par {par:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn float_sum_accumulation_order_is_identical_across_paths() {
        // Order-sensitive float sums: 1e16 + 1.0 + ... loses the small
        // addends exactly the same way in every executor path only if the
        // accumulation order is identical.
        let n = MORSEL_ROWS * 2 + 31;
        let mut rows = Vec::with_capacity(n);
        let mut rng = SplitMix64::seed_from_u64(0xF10A7);
        for i in 0..n {
            let v = if i % 97 == 0 {
                1e16
            } else {
                rng.gen_range_i64(1, 1000) as f64 / 7.0
            };
            rows.push(Tuple::new(vec![
                Value::Int(rng.gen_range_i64(0, 5)),
                Value::Float(v),
            ]));
        }
        let p = Plan::Aggregate {
            input: Box::new(Plan::Values {
                schema: crate::plan::anon_schema("v", &["g".into(), "x".into()]),
                rows,
            }),
            group_by: vec![0],
            aggs: vec![Aggregate::new(AggFunc::Sum(1), "s")],
            having: None,
        };
        let db = Database::new();
        let want = execute(&db, &p).unwrap();
        for mode in [ExecMode::Batch, ExecMode::NestedLoop] {
            for par in [
                Parallelism::Serial,
                Parallelism::Threads(2),
                Parallelism::Threads(8),
            ] {
                let got = execute_with_opts(&db, &p, mode, par).unwrap();
                // Exact equality: Value::Float compares bit patterns via
                // total order, so any reassociation would fail here.
                assert_eq!(want.rows, got.rows, "mode {mode:?} par {par:?}");
            }
        }
    }
}
