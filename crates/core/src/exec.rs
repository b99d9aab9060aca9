//! Executing graph-projection queries (paper §4.2.4).
//!
//! Each unfolded [`QueryRule`] compiles to a conjunctive plan over
//! provenance relations; plans are optimized (selection pushdown / index
//! lookups) and executed; every result row contributes (a) derivation rows
//! to the output subgraph and (b) a binding tuple for the RETURN variables.
//!
//! A second, bottom-up strategy walks the in-memory provenance graph
//! backwards from the matched tuples. It handles **cyclic** provenance
//! (where unfolding is cut off) and serves as the ablation baseline the
//! paper's §8 sketches ("execute the set of rules in bottom-up fashion").

use crate::ast::{CmpOp, Condition, Query, StepPattern};
use crate::translate::{QueryRule, Translation, VarCond};
use proql_common::par::par_map;
use proql_common::{trace, Error, Parallelism, Result, Tuple, Value};
use proql_datalog::ast::Term;
use proql_datalog::compile::compile_body;
use proql_provgraph::{ProvGraph, ProvenanceSystem};
use proql_storage::batch::{Column, RecordBatch};
use proql_storage::{
    execute_batch_opts, execute_batch_profiled, execute_with, explain,
    optimize::optimize_with_config, Database, ExecMode, Expr, OpStat, OptimizerConfig,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// The result of a graph-projection query: the output subgraph (encoded
/// relationally, one row-set per provenance relation) plus the binding
/// tuples of the distinguished variables.
#[derive(Debug, Clone, Default)]
pub struct ProjectionResult {
    /// Output subgraph: mapping name → set of `P_mapping` rows.
    pub derivations: BTreeMap<String, BTreeSet<Tuple>>,
    /// Distinguished-variable bindings: each row maps a RETURN variable to
    /// a `(relation, key)` node reference.
    pub bindings: BTreeSet<BTreeMap<String, (String, Tuple)>>,
    /// Execution metrics.
    pub metrics: ExecMetrics,
    /// For graph-strategy answers, the provenance graph the derivations
    /// were read from: annotation evaluates over it instead of decoding
    /// the rows again. [`crate::engine::Engine::execute`] drops it before
    /// returning, so a cached answer never pins the engine's graph.
    pub(crate) graph: Option<GraphHandle>,
}

/// A shared handle on a provenance graph; `Debug` prints its size, not
/// its contents.
#[derive(Clone)]
pub(crate) struct GraphHandle(pub(crate) Arc<ProvGraph>);

impl std::fmt::Debug for GraphHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphHandle")
            .field("tuples", &self.0.tuple_count())
            .field("derivations", &self.0.derivation_count())
            .finish()
    }
}

/// Execution metrics reported by the benchmarks.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Rules (conjunctive queries) executed.
    pub rules_executed: usize,
    /// Total join operators across all executed plans.
    pub total_joins: usize,
    /// Total bytes of the generated SQL (the paper's DB2-limit proxy).
    pub sql_bytes: usize,
    /// Result rows across all rules.
    pub rows: usize,
}

impl ProjectionResult {
    /// Total derivation rows in the output subgraph.
    pub fn derivation_count(&self) -> usize {
        self.derivations.values().map(BTreeSet::len).sum()
    }

    /// Decode the output subgraph into an in-memory [`ProvGraph`].
    pub fn to_graph(&self, sys: &ProvenanceSystem) -> Result<ProvGraph> {
        let mut g = ProvGraph::new();
        for (mapping, rows) in &self.derivations {
            let spec = sys
                .spec_for(mapping)
                .ok_or_else(|| Error::NotFound(format!("mapping {mapping}")))?;
            let rule = sys
                .rule_for(mapping)
                .ok_or_else(|| Error::NotFound(format!("mapping {mapping}")))?;
            let is_base = rule
                .body
                .first()
                .map(|a| sys.is_local_relation(&a.relation))
                .unwrap_or(false);
            for row in rows {
                g.add_derivation_from_row(sys, spec, row, is_base)?;
            }
        }
        Ok(g)
    }
}

/// A rule compiled and optimized **once**: the plan (after the full
/// cost-based pass pipeline) plus the variable → output-column map.
/// Executing a prepared rule skips compilation and optimization entirely;
/// [`crate::engine::PreparedQuery`] holds one per unfolded rule.
#[derive(Debug, Clone)]
pub struct PreparedRule {
    /// The optimized plan. Its output schema is identical to the
    /// unoptimized compilation, so `var_cols` stays valid.
    pub plan: proql_storage::Plan,
    /// First output column binding each variable the rule's output
    /// recipes name (provenance-record terms and node-binding keys).
    pub var_cols: HashMap<String, usize>,
}

/// Compile and optimize one unfolded rule with the default pass pipeline.
pub fn prepare_rule(sys: &ProvenanceSystem, rule: &QueryRule) -> Result<PreparedRule> {
    prepare_rule_with(sys, rule, &OptimizerConfig::default())
}

/// [`prepare_rule`] under an explicit pass pipeline — the ablation entry
/// point: every pipeline yields the same answers, so tests and benches
/// compare a pass against its absence through this.
pub fn prepare_rule_with(
    sys: &ProvenanceSystem,
    rule: &QueryRule,
    passes: &OptimizerConfig,
) -> Result<PreparedRule> {
    compile_rule(sys, rule, passes, None)
}

/// Compile and optimize one rule. With `buckets`, every `WHERE` literal
/// becomes the [`Expr::Param`] slot it came from, estimated from its
/// bucket: a plan template for every request whose literals fall in the
/// same buckets (see [`crate::shape`]).
pub(crate) fn compile_rule(
    sys: &ProvenanceSystem,
    rule: &QueryRule,
    passes: &OptimizerConfig,
    buckets: Option<&[i8]>,
) -> Result<PreparedRule> {
    let bp = compile_body(&sys.db, &rule.atoms)?;
    let mut plan = bp.plan;
    if let Some(cond) = &rule.condition {
        plan = plan.filter(cond_to_expr(cond, &bp.var_cols, buckets)?);
    }
    Ok(PreparedRule {
        plan: optimize_with_config(&sys.db, plan, passes),
        var_cols: output_var_cols(sys, rule, bp.var_cols)?,
    })
}

/// `var_cols` cut down to the variables executing the rule resolves: the
/// terms of its provenance records and the key terms of its node bindings
/// (see [`merge_rule_batch`]). A result-cache entry keeps its prepared
/// rules alive, and the full map has an entry per attribute of every body
/// atom.
fn output_var_cols(
    sys: &ProvenanceSystem,
    rule: &QueryRule,
    mut var_cols: HashMap<String, usize>,
) -> Result<HashMap<String, usize>> {
    let mut terms: Vec<&Term> = rule.prov_records.iter().flat_map(|r| &r.terms).collect();
    for nb in rule.node_bindings.values() {
        let key = sys.db.schema_of(&nb.relation)?.effective_key();
        terms.extend(key.iter().filter_map(|&pos| nb.terms.get(pos)));
    }
    let used: HashSet<&str> = terms
        .into_iter()
        .filter_map(|term| match term {
            Term::Var(v) => Some(v.as_str()),
            _ => None,
        })
        .collect();
    var_cols.retain(|v, _| used.contains(v.as_str()));
    var_cols.shrink_to_fit();
    Ok(var_cols)
}

/// Compile and optimize every rule of a translation.
pub fn prepare_rules(
    sys: &ProvenanceSystem,
    translation: &Translation,
) -> Result<Vec<PreparedRule>> {
    translation
        .rules
        .iter()
        .map(|r| prepare_rule(sys, r))
        .collect()
}

/// Execute the unfolded rules of a translation with the default (batch)
/// executor.
pub fn run_projection(
    sys: &ProvenanceSystem,
    translation: &Translation,
) -> Result<ProjectionResult> {
    run_projection_with(sys, translation, ExecMode::Batch)
}

/// Execute the unfolded rules of a translation under a chosen executor.
pub fn run_projection_with(
    sys: &ProvenanceSystem,
    translation: &Translation,
    mode: ExecMode,
) -> Result<ProjectionResult> {
    run_projection_opts(sys, translation, mode, Parallelism::Serial)
}

/// [`run_projection_with`] plus a [`Parallelism`] knob. Compiles and
/// optimizes every rule, then runs them; callers that already hold
/// prepared rules use [`run_projection_prepared`] to skip that step.
pub fn run_projection_opts(
    sys: &ProvenanceSystem,
    translation: &Translation,
    mode: ExecMode,
    par: Parallelism,
) -> Result<ProjectionResult> {
    let prepared = prepare_rules(sys, translation)?;
    run_projection_prepared(sys, translation, &prepared, mode, par)
}

/// Execute already-prepared rules.
///
/// The unfolded rules of a translation are independent conjunctive
/// queries, so with parallelism enabled and more than one rule, rules
/// themselves fan out over worker threads (each executing its plan
/// serially); partial results merge into order-insensitive sets, making
/// the output identical to the serial pass. A single-rule translation
/// instead forwards the knob into the batch executor's morsel-parallel
/// operators. Errors resolve to the first failing rule in rule order.
pub fn run_projection_prepared(
    sys: &ProvenanceSystem,
    translation: &Translation,
    prepared: &[PreparedRule],
    mode: ExecMode,
    par: Parallelism,
) -> Result<ProjectionResult> {
    let par = par.resolved();
    let rules = &translation.rules;
    if rules.len() != prepared.len() {
        return Err(Error::Query(format!(
            "prepared {} rules for a {}-rule translation",
            prepared.len(),
            rules.len()
        )));
    }
    if par.is_parallel() && rules.len() > 1 {
        let partials = par_map(rules.len(), par.threads(), |i| {
            let mut partial = ProjectionResult::default();
            run_rule(
                &sys.db,
                &rules[i],
                &prepared[i],
                &translation.return_vars,
                mode,
                Parallelism::Serial,
                &mut partial,
            )
            .map(|()| partial)
        });
        let mut out = ProjectionResult::default();
        for partial in partials {
            let partial = partial?;
            for (mapping, rows) in partial.derivations {
                out.derivations.entry(mapping).or_default().extend(rows);
            }
            out.bindings.extend(partial.bindings);
            out.metrics.rules_executed += partial.metrics.rules_executed;
            out.metrics.total_joins += partial.metrics.total_joins;
            out.metrics.sql_bytes += partial.metrics.sql_bytes;
            out.metrics.rows += partial.metrics.rows;
        }
        Ok(out)
    } else {
        let mut out = ProjectionResult::default();
        for (rule, prep) in rules.iter().zip(prepared) {
            run_rule(
                &sys.db,
                rule,
                prep,
                &translation.return_vars,
                mode,
                par,
                &mut out,
            )?;
        }
        Ok(out)
    }
}

/// [`run_projection_prepared`] with per-operator actuals — the `EXPLAIN
/// ANALYZE` execution path. Rules run **serially** (this is a measurement
/// pass; rule fan-out would overlap their wall times), each under the
/// profiled batch executor; `par` still drives morsel parallelism inside
/// operators. Returns the projection result (identical to a plain run)
/// plus one stats vector per rule, aligned with `translation.rules`.
pub fn run_projection_prepared_profiled(
    sys: &ProvenanceSystem,
    translation: &Translation,
    prepared: &[PreparedRule],
    mode: ExecMode,
    par: Parallelism,
) -> Result<(ProjectionResult, Vec<Vec<OpStat>>)> {
    let par = par.resolved();
    let rules = &translation.rules;
    if rules.len() != prepared.len() {
        return Err(Error::Query(format!(
            "prepared {} rules for a {}-rule translation",
            prepared.len(),
            rules.len()
        )));
    }
    let mut out = ProjectionResult::default();
    let mut per_rule = Vec::with_capacity(rules.len());
    for (rule, prep) in rules.iter().zip(prepared) {
        per_rule.push(run_rule_profiled(
            &sys.db,
            rule,
            prep,
            &translation.return_vars,
            mode,
            par,
            &mut out,
        )?);
    }
    Ok((out, per_rule))
}

/// A resolved output term: either a constant or a reference into a batch
/// column. Resolving terms once per rule (instead of once per row × term)
/// is what lets the batch path materialize results column-at-a-time.
enum Resolved<'a> {
    Const(Value),
    Col(&'a Column),
}

impl Resolved<'_> {
    fn value(&self, row: usize) -> Value {
        match self {
            Resolved::Const(v) => v.clone(),
            Resolved::Col(c) => c.value(row),
        }
    }
}

fn resolve_term<'a>(
    term: &Term,
    batch: &'a RecordBatch,
    var_cols: &HashMap<String, usize>,
) -> Result<Resolved<'a>> {
    match term {
        Term::Const(v) => Ok(Resolved::Const(v.clone())),
        Term::Var(v) => {
            let col = var_cols
                .get(v)
                .ok_or_else(|| Error::Query(format!("variable {v} missing from compiled rule")))?;
            Ok(Resolved::Col(&batch.columns[*col]))
        }
        Term::Skolem(..) => Err(Error::Query(
            "Skolem terms cannot appear in projection output".into(),
        )),
    }
}

/// Execute one prepared rule against `db` and merge its derivation rows
/// and bindings into `out`. Takes the database rather than the system so
/// the incremental maintainer can run delta-seeded variants of a rule
/// against scratch-augmented database clones.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rule(
    db: &Database,
    rule: &QueryRule,
    prepared: &PreparedRule,
    return_vars: &[String],
    mode: ExecMode,
    par: Parallelism,
    out: &mut ProjectionResult,
) -> Result<()> {
    let mut sp = trace::span("rule");
    let plan = &prepared.plan;
    out.metrics.rules_executed += 1;
    out.metrics.total_joins += plan.count_joins();
    out.metrics.sql_bytes += explain::sql_len(plan);

    // Materialize the rule's result as a columnar batch. The legacy row
    // executors produce rows that are transposed once here; the batch
    // executor is columnar end to end.
    let batch = match mode {
        ExecMode::Batch => execute_batch_opts(db, plan, par)?,
        row_mode => {
            let rel = execute_with(db, plan, row_mode)?;
            RecordBatch::from_rows(rel.names, rel.rows.iter())
        }
    };
    if sp.id().is_some() {
        sp.field("rows", batch.len().to_string());
    }
    merge_rule_batch(db, rule, prepared, return_vars, batch, out)
}

/// Profiled twin of [`run_rule`]: executes the rule's plan under
/// [`execute_batch_profiled`] (the `EXPLAIN ANALYZE` backend) and returns
/// the per-operator actuals alongside merging the result into `out`.
/// Non-batch executors report no operator breakdown (empty stats).
fn run_rule_profiled(
    db: &Database,
    rule: &QueryRule,
    prepared: &PreparedRule,
    return_vars: &[String],
    mode: ExecMode,
    par: Parallelism,
    out: &mut ProjectionResult,
) -> Result<Vec<OpStat>> {
    let mut sp = trace::span("rule");
    let plan = &prepared.plan;
    out.metrics.rules_executed += 1;
    out.metrics.total_joins += plan.count_joins();
    out.metrics.sql_bytes += explain::sql_len(plan);
    let (batch, stats) = match mode {
        ExecMode::Batch => execute_batch_profiled(db, plan, par)?,
        row_mode => {
            let rel = execute_with(db, plan, row_mode)?;
            (RecordBatch::from_rows(rel.names, rel.rows.iter()), vec![])
        }
    };
    if sp.id().is_some() {
        sp.field("rows", batch.len().to_string());
    }
    merge_rule_batch(db, rule, prepared, return_vars, batch, out)?;
    Ok(stats)
}

/// Merge one rule's materialized result batch into the projection output:
/// derivation rows per output provenance record, then RETURN-variable
/// binding tuples.
fn merge_rule_batch(
    db: &Database,
    rule: &QueryRule,
    prepared: &PreparedRule,
    return_vars: &[String],
    batch: RecordBatch,
    out: &mut ProjectionResult,
) -> Result<()> {
    out.metrics.rows += batch.len();
    if batch.is_empty() {
        return Ok(());
    }

    // Resolve every output recipe against batch columns once per rule.
    for rec in rule.prov_records.iter() {
        if !rec.output {
            continue;
        }
        let cols: Vec<Resolved> = rec
            .terms
            .iter()
            .map(|t| resolve_term(t, &batch, &prepared.var_cols))
            .collect::<Result<_>>()?;
        let target = out.derivations.entry(rec.mapping.clone()).or_default();
        for row in 0..batch.len() {
            target.insert(Tuple::new(cols.iter().map(|c| c.value(row)).collect()));
        }
    }

    // Bindings: resolve each RETURN variable's key recipe column-wise.
    let mut binding_cols: Vec<(&String, &str, Vec<Resolved>)> = Vec::new();
    for v in return_vars {
        let nb = rule
            .node_bindings
            .get(v)
            .ok_or_else(|| Error::Query(format!("RETURN variable ${v} unbound in rule")))?;
        let schema = db.schema_of(&nb.relation)?;
        let cols: Vec<Resolved> = schema
            .effective_key()
            .iter()
            .map(|&pos| resolve_term(&nb.terms[pos], &batch, &prepared.var_cols))
            .collect::<Result<_>>()?;
        binding_cols.push((v, nb.relation.as_str(), cols));
    }
    for row in 0..batch.len() {
        let mut binding = BTreeMap::new();
        for (v, relation, cols) in &binding_cols {
            binding.insert(
                (*v).clone(),
                (
                    relation.to_string(),
                    Tuple::new(cols.iter().map(|c| c.value(row)).collect()),
                ),
            );
        }
        out.bindings.insert(binding);
    }
    Ok(())
}

/// Lower a rule's residual variable condition to a storage [`Expr`] over
/// the compiled body's output columns: literals stay literals, or become
/// their slots when `buckets` gives each slot's selectivity bucket.
pub(crate) fn cond_to_expr(
    cond: &VarCond,
    var_cols: &HashMap<String, usize>,
    buckets: Option<&[i8]>,
) -> Result<Expr> {
    let all = |parts: &[VarCond]| -> Result<Vec<Expr>> {
        parts
            .iter()
            .map(|p| cond_to_expr(p, var_cols, buckets))
            .collect()
    };
    Ok(match cond {
        VarCond::Lit(b) => Expr::lit(*b),
        VarCond::Cmp {
            var,
            op,
            value,
            slot,
        } => {
            let col = var_cols.get(var).ok_or_else(|| {
                Error::Query(format!("condition variable {var} not in rule body"))
            })?;
            let operand = match buckets {
                Some(b) => Expr::Param {
                    slot: *slot,
                    sel_log2: b.get(*slot).copied().unwrap_or(0),
                },
                None => Expr::Lit(value.clone()),
            };
            Expr::cmp(op.to_binop(), Expr::col(*col), operand)
        }
        VarCond::And(parts) => Expr::And(all(parts)?),
        VarCond::Or(parts) => Expr::Or(all(parts)?),
        VarCond::Not(p) => Expr::Not(Box::new(cond_to_expr(p, var_cols, buckets)?)),
    })
}

/// The graph walk's one query shape — FOR/INCLUDE paths `[R $x]` or
/// `[R $x] <-+ []` over a single variable, with conjunctive attribute
/// conditions on it — as `(R, $x, conditions)`. Prepare checks it (a
/// graph answer's read set starts at `R`), and so does
/// [`run_projection_graph`], so both reject the same queries.
pub(crate) fn graph_pattern(query: &Query) -> Result<(String, String, Vec<AttrCond>)> {
    let proj = &query.projection;
    let mut start_rel: Option<String> = None;
    let mut start_var: Option<String> = None;
    for p in proj.for_paths.iter().chain(&proj.include_paths) {
        if let Some(r) = &p.start.relation {
            start_rel = Some(r.clone());
        }
        if let Some(v) = &p.start.var {
            if let Some(prev) = &start_var {
                if prev != v {
                    return Err(Error::Query(
                        "graph strategy supports a single distinguished variable".into(),
                    ));
                }
            }
            start_var = Some(v.clone());
        }
        for (step, node) in &p.steps {
            if !matches!(step, StepPattern::Plus) || !node.is_any() {
                return Err(Error::Query(
                    "graph strategy supports only `[R $x] <-+ []` patterns".into(),
                ));
            }
        }
    }
    let rel =
        start_rel.ok_or_else(|| Error::Query("graph strategy needs a start relation".into()))?;
    let var =
        start_var.ok_or_else(|| Error::Query("graph strategy needs a start variable".into()))?;
    // Attribute conditions on the start variable filter the roots.
    let conds = collect_attr_conds(proj.where_cond.as_ref(), &var, &rel)?;
    Ok((rel, var, conds))
}

/// Bottom-up (graph-walk) strategy: supports queries whose FOR/INCLUDE
/// paths are of the shape `[R $x]` or `[R $x] <-+ []`, which covers the
/// annotation use cases Q5–Q10 — including **cyclic** provenance graphs.
/// The result keeps a handle on `full` for annotation.
pub fn run_projection_graph(
    sys: &ProvenanceSystem,
    full: &Arc<ProvGraph>,
    query: &Query,
) -> Result<ProjectionResult> {
    let (start_rel, start_var, attr_conds) = graph_pattern(query)?;

    let mut out = ProjectionResult::default();
    let mut visited_t: BTreeSet<proql_common::TupleId> = BTreeSet::new();
    let mut queue: Vec<proql_common::TupleId> = Vec::new();
    for t in full.tuple_ids() {
        let node = full.tuple(t);
        if node.relation != start_rel {
            continue;
        }
        if !attr_conds_hold(sys, &attr_conds, node)? {
            continue;
        }
        let mut binding = BTreeMap::new();
        binding.insert(start_var.clone(), (node.relation.clone(), node.key.clone()));
        out.bindings.insert(binding);
        if visited_t.insert(t) {
            queue.push(t);
        }
    }
    while let Some(t) = queue.pop() {
        for &d in full.derivations_of(t) {
            let dn = full.derivation(d);
            out.derivations
                .entry(dn.mapping.clone())
                .or_default()
                .insert(dn.prov_row.clone());
            for &s in &dn.sources {
                if visited_t.insert(s) {
                    queue.push(s);
                }
            }
        }
    }
    out.metrics.rules_executed = 0;
    out.graph = Some(GraphHandle(Arc::clone(full)));
    Ok(out)
}

/// One attribute comparison on the graph walk's start variable.
type AttrCond = (String, CmpOp, Value);

/// The attribute comparisons on `var`, whose roots all lie in `rel`. A
/// `$var in R` test holds on every root when `R` is `rel`; any other `R`
/// contradicts the `FOR` pattern, which Unfold rejects the same way.
fn collect_attr_conds(cond: Option<&Condition>, var: &str, rel: &str) -> Result<Vec<AttrCond>> {
    let mut out = Vec::new();
    let Some(cond) = cond else {
        return Ok(out);
    };
    fn walk(c: &Condition, var: &str, rel: &str, out: &mut Vec<AttrCond>) -> Result<()> {
        match c {
            Condition::And(parts) => {
                for p in parts {
                    walk(p, var, rel, out)?;
                }
                Ok(())
            }
            Condition::AttrCmp {
                var: v,
                attr,
                op,
                value,
            } if v == var => {
                out.push((attr.clone(), *op, value.clone()));
                Ok(())
            }
            Condition::InRelation { var: v, relation } if v == var => {
                if relation == rel {
                    Ok(())
                } else {
                    Err(Error::Query(format!(
                        "variable ${var} constrained to both {rel} and {relation}"
                    )))
                }
            }
            other => Err(Error::Query(format!(
                "graph strategy supports only conjunctive attribute conditions, got {other:?}"
            ))),
        }
    }
    walk(cond, var, rel, &mut out)?;
    Ok(out)
}

fn attr_conds_hold(
    sys: &ProvenanceSystem,
    conds: &[AttrCond],
    node: &proql_provgraph::TupleNode,
) -> Result<bool> {
    if conds.is_empty() {
        return Ok(true);
    }
    let schema = sys.db.schema_of(&node.relation)?;
    let Some(values) = &node.values else {
        return Ok(false);
    };
    for (attr, op, lit) in conds {
        let pos = schema.position(attr).ok_or_else(|| {
            Error::Query(format!(
                "relation {} has no attribute {attr}",
                node.relation
            ))
        })?;
        let v = values.get(pos);
        let ok = match op {
            CmpOp::Eq => v == lit,
            CmpOp::Ne => v != lit,
            CmpOp::Lt => v < lit,
            CmpOp::Le => v <= lit,
            CmpOp::Gt => v > lit,
            CmpOp::Ge => v >= lit,
        };
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::translate::{translate, TranslateOptions};
    use proql_common::tup;
    use proql_provgraph::system::example_2_1;

    fn project(q: &str) -> (ProvenanceSystem, ProjectionResult) {
        let sys = example_2_1().unwrap();
        let t = translate(
            &sys,
            &parse_query(q).unwrap(),
            None,
            &TranslateOptions::default(),
        )
        .unwrap();
        let r = run_projection(&sys, &t).unwrap();
        (sys, r)
    }

    #[test]
    fn q1_returns_all_o_tuples_with_derivations() {
        let (_, r) = project("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x");
        // Four O tuples: sn1, sn2, cn1, cn2.
        let bound: BTreeSet<&Tuple> = r.bindings.iter().map(|b| &b.get("x").unwrap().1).collect();
        assert_eq!(bound.len(), 4);
        // Output subgraph includes m4, m5 and local derivations.
        assert!(r.derivations.contains_key("m4"));
        assert!(r.derivations.contains_key("m5"));
        assert!(r.derivations.keys().any(|k| k.starts_with("L_")));
        assert!(r.metrics.rules_executed > 0);
        assert!(r.metrics.sql_bytes > 0);
    }

    #[test]
    fn q2_only_includes_paths_touching_a() {
        let (_, r) = project("FOR [O $x] <-+ [A $y] INCLUDE PATH [$x] <-+ [$y] RETURN $x");
        assert!(!r.bindings.is_empty());
        // Derivations on A-involving paths: m4 and m5 qualify.
        assert!(r.derivations.contains_key("m4") || r.derivations.contains_key("m5"));
    }

    #[test]
    fn where_filters_bindings() {
        let (_, r) = project("FOR [O $x] INCLUDE PATH [$x] <-+ [] WHERE $x.h >= 6 RETURN $x");
        let bound: BTreeSet<&Tuple> = r.bindings.iter().map(|b| &b.get("x").unwrap().1).collect();
        // Only O tuples with h = 7 (sn1 and cn1).
        assert_eq!(
            bound,
            [tup!["sn1"], tup!["cn1"]].iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn q4_common_provenance_pairs() {
        let (_, r) = project(
            "FOR [O $x] <-+ [$z], [C $y] <-+ [$z]
             INCLUDE PATH [$x] <-+ [], [$y] <-+ []
             RETURN $x, $y",
        );
        // O(cn2) and C(2,cn2) share provenance (A(2) / C(2,cn2) itself).
        assert!(!r.bindings.is_empty());
        let has_cn2_pair = r
            .bindings
            .iter()
            .any(|b| b["x"].1 == tup!["cn2"] && b["y"].0 == "C");
        assert!(has_cn2_pair, "bindings: {:?}", r.bindings);
    }

    #[test]
    fn projection_graph_matches_unfolded_projection() {
        let sys = example_2_1().unwrap();
        let q = parse_query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x").unwrap();
        let full = Arc::new(ProvGraph::from_system(&sys).unwrap());
        let via_graph = run_projection_graph(&sys, &full, &q).unwrap();
        let t = translate(&sys, &q, None, &TranslateOptions::default()).unwrap();
        let via_rules = run_projection(&sys, &t).unwrap();
        assert_eq!(via_graph.bindings, via_rules.bindings);
        // The graph walk reaches every derivation backward-reachable from O.
        // The unfolded route cuts cyclic re-derivations (paper: acyclic
        // focus), so it may see a subset of derivations.
        for (m, rows) in &via_rules.derivations {
            let graph_rows = via_graph
                .derivations
                .get(m)
                .unwrap_or_else(|| panic!("graph route missing mapping {m}"));
            assert!(rows.is_subset(graph_rows), "mapping {m}");
        }
    }

    #[test]
    fn graph_strategy_keeps_a_handle_that_debug_does_not_print() {
        let sys = example_2_1().unwrap();
        let q = parse_query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x").unwrap();
        let full = Arc::new(ProvGraph::from_system(&sys).unwrap());
        let r = run_projection_graph(&sys, &full, &q).unwrap();
        assert!(r.graph.as_ref().is_some_and(|h| Arc::ptr_eq(&h.0, &full)));
        assert_eq!(Arc::strong_count(&full), 2);
        let printed = format!("{r:?}");
        assert!(printed.contains("GraphHandle { tuples: "), "{printed}");
        assert!(!printed.contains("TupleNode"), "{printed}");
        drop(r);
        assert_eq!(Arc::strong_count(&full), 1);
    }

    #[test]
    fn graph_strategy_respects_where() {
        let sys = example_2_1().unwrap();
        let q =
            parse_query("FOR [O $x] INCLUDE PATH [$x] <-+ [] WHERE $x.h >= 6 RETURN $x").unwrap();
        let full = Arc::new(ProvGraph::from_system(&sys).unwrap());
        let r = run_projection_graph(&sys, &full, &q).unwrap();
        assert_eq!(r.bindings.len(), 2);
    }

    #[test]
    fn graph_strategy_rejects_complex_patterns() {
        let sys = example_2_1().unwrap();
        let full = Arc::new(ProvGraph::from_system(&sys).unwrap());
        let q = parse_query("FOR [O $x] <m5 [C $y] RETURN $x").unwrap();
        assert!(run_projection_graph(&sys, &full, &q).is_err());
    }

    #[test]
    fn to_graph_round_trips_subgraph() {
        let (sys, r) = project("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x");
        let g = r.to_graph(&sys).unwrap();
        assert!(g.derivation_count() > 0);
        assert!(g.find_tuple("O", &tup!["cn2"]).is_some());
        // Base derivations flagged.
        let a = g.find_tuple("A", &tup![2]).unwrap();
        assert!(g.is_base(a));
    }
}
