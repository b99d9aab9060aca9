//! Incremental view maintenance: patching a cached [`QueryOutput`]
//! forward across a `(snapshot, delta)` write instead of recomputing it.
//!
//! The maintainer runs each unfolded rule of the prepared query in
//! **semi-naive delta form** — the exchange's own [`delta_variants`]: for
//! additions, one run per (rule, atom) pair with that atom reading only
//! the delta's added rows inline (full new state everywhere else); for
//! removals, the DRed discipline — the same delta runs against the *old*
//! snapshot produce over-deletion candidates, which a re-derivation
//! check against the new state then rescues or confirms. For annotation
//! (`EVALUATE`) queries in scalar semirings, a per-entry
//! [`MaintainState`] carries the decoded graph of the projection; each
//! round patches it with the projection diff and evaluates it through the
//! same evaluator a fresh unfold answer uses, so the maintained
//! annotation equals the fresh one by construction.
//!
//! Maintenance is never a correctness risk: any shape the maintainer
//! cannot localize — graph-strategy answers, set-valued semirings,
//! broken delta chains, oversized deltas — reports
//! [`MaintainResult::Fallback`] and the caller evicts, exactly as the
//! pre-maintenance write path did. An annotation a fresh computation
//! cannot produce either (counting on a cyclic graph) is an error,
//! which callers treat as evict too. By construction (and by test) a
//! maintained output is digest-equal to a from-scratch recomputation at
//! the new version.

use crate::annotate::annotate_on;
use crate::engine::{Engine, PreparedQuery, QueryOutput, Strategy};
use crate::exec::{cond_to_expr, run_rule, PreparedRule, ProjectionResult};
use crate::translate::QueryRule;
use proql_common::{Parallelism, Result, Tuple};
use proql_datalog::compile::delta_variants;
use proql_provgraph::{DeltaOp, ProvGraph, ProvenanceSystem};
use proql_semiring::{Region, SemiringKind};
use proql_storage::{optimize::optimize_with, Expr};
use std::collections::{BTreeSet, HashMap};

/// Localization cap: a delta touching more stored rows than this falls
/// back to eviction — patching would not beat recomputation.
const MAX_DELTA_ROWS: usize = 4096;

/// Cap on over-deletion candidates fed to the re-derivation check (the
/// candidates become one OR-of-conjuncts filter per rule).
const MAX_CANDIDATES: usize = 1024;

/// Per-entry carry-over of annotation maintenance: the decoded graph of
/// the entry's projection at its version — what
/// [`ProjectionResult::to_graph`] would give — patched in place each
/// round (derivation rows added and removed, tuple values refreshed) and
/// compacted when tombstones pile up.
#[derive(Debug)]
pub struct MaintainState {
    graph: ProvGraph,
}

/// What [`maintain_output`] decided.
#[derive(Debug)]
pub enum MaintainResult {
    /// The cached output was patched to the new version.
    Maintained {
        /// The patched output, digest-equal to a fresh recomputation.
        output: Box<QueryOutput>,
        /// Projection rows (derivations + bindings) added or removed.
        rows_patched: u64,
        /// Annotation carry-over for the next maintenance round (`None`
        /// for pure-projection queries).
        state: Option<Box<MaintainState>>,
    },
    /// The delta could not be localized; the caller must evict and
    /// recompute. The payload says why (surfaced in service stats and
    /// logs).
    Fallback(&'static str),
}

/// Signed net row changes per relation, split into adds and removes.
#[derive(Debug, Default)]
struct NetChanges {
    adds: HashMap<String, Vec<Tuple>>,
    removes: HashMap<String, Vec<Tuple>>,
    /// `(relation, key)` pairs whose stored values changed — the
    /// annotation maintainer refreshes matching graph nodes.
    set_values: BTreeSet<(String, Tuple)>,
    total_rows: usize,
}

/// Patch `previous` — a query output computed against `old`'s snapshot —
/// forward to `new`'s snapshot, using the delta chain `(old.version,
/// new.version]`. `prior_state` is the annotation carry-over returned by
/// the previous maintenance round for this entry, if any.
///
/// Returns [`MaintainResult::Fallback`] whenever the change cannot be
/// localized; errors also mean "evict and recompute". Both engines must
/// share history: `new` must be a descendant snapshot of `old`.
pub fn maintain_output(
    old: &Engine,
    new: &Engine,
    prepared: &PreparedQuery,
    previous: &QueryOutput,
    prior_state: Option<Box<MaintainState>>,
) -> Result<MaintainResult> {
    let mut sp = proql_common::trace::span("maintain");
    let result = maintain_output_inner(old, new, prepared, previous, prior_state);
    match &result {
        Ok(MaintainResult::Maintained { rows_patched, .. }) => {
            sp.field("outcome", "maintained");
            sp.field("rows_patched", rows_patched.to_string());
        }
        Ok(MaintainResult::Fallback(reason)) => {
            sp.field("outcome", "fallback");
            sp.field("reason", *reason);
        }
        Err(_) => sp.field("outcome", "error"),
    }
    result
}

fn maintain_output_inner(
    old: &Engine,
    new: &Engine,
    prepared: &PreparedQuery,
    previous: &QueryOutput,
    prior_state: Option<Box<MaintainState>>,
) -> Result<MaintainResult> {
    if previous.plan.is_some() {
        return Ok(MaintainResult::Fallback("explain output"));
    }
    if prepared.strategy != Strategy::Unfold {
        return Ok(MaintainResult::Fallback("graph-walk strategy"));
    }
    let Some(unfold) = &prepared.unfold else {
        return Ok(MaintainResult::Fallback("no unfolded rules"));
    };
    if let Some(spec) = &prepared.query.evaluate {
        match spec.semiring {
            SemiringKind::Derivability
            | SemiringKind::Trust
            | SemiringKind::Confidentiality
            | SemiringKind::Weight
            | SemiringKind::Counting => {}
            SemiringKind::Lineage | SemiringKind::Probability | SemiringKind::Polynomial => {
                return Ok(MaintainResult::Fallback("set-valued semiring"));
            }
        }
    }
    let (from, to) = (old.sys.version(), new.sys.version());
    let net = {
        let Some(entries) = new.sys.delta_entries(from, to) else {
            return Ok(MaintainResult::Fallback("delta chain unavailable"));
        };
        collect_net_changes(&new.sys, entries)
    };
    if net.total_rows > MAX_DELTA_ROWS {
        return Ok(MaintainResult::Fallback("delta too large"));
    }
    // Every rule atom must be a stored table or a known provenance view,
    // else we cannot decide whether its contents changed.
    for rule in &unfold.translation.rules {
        for atom in &rule.atoms {
            if !new.sys.db.has_table(&atom.relation)
                && !new
                    .sys
                    .specs()
                    .iter()
                    .any(|s| s.superfluous && s.prov_rel == atom.relation)
            {
                return Ok(MaintainResult::Fallback("non-localizable view atom"));
            }
        }
    }

    let rules = &unfold.translation.rules;
    let return_vars = &unfold.translation.return_vars;

    // Phase A: additions. Semi-naive delta runs against the NEW state —
    // every new firing involves at least one added row, so redirecting
    // each atom in turn to the added rows (full new state elsewhere)
    // enumerates exactly the new firings.
    let added = run_delta_rules(new, rules, return_vars, &net.adds)?;

    // Phase B: removals (DRed over-delete). The same delta runs against
    // the OLD state — where the removed rows still exist — enumerate
    // every old firing involving a removed row. Those are removal
    // *candidates*; alternative derivations rescue them below.
    let candidates = run_delta_rules(old, rules, return_vars, &net.removes)?;
    let n_candidates = candidates.derivation_count() + candidates.bindings.len();
    if n_candidates > MAX_CANDIDATES {
        return Ok(MaintainResult::Fallback("too many removal candidates"));
    }
    let rescued = if n_candidates > 0 {
        recheck_candidates(new, unfold, &candidates)?
    } else {
        ProjectionResult::default()
    };

    // Assemble the patched projection: (previous ∪ added) minus the
    // candidates that neither phase A nor the recheck re-derived.
    let mut projection = previous.projection.clone();
    let mut rows_patched = 0u64;
    for (mapping, rows) in &added.derivations {
        let target = projection.derivations.entry(mapping.clone()).or_default();
        for row in rows {
            if target.insert(row.clone()) {
                rows_patched += 1;
            }
        }
    }
    for (mapping, rows) in &candidates.derivations {
        let added_rows = added.derivations.get(mapping);
        let rescued_rows = rescued.derivations.get(mapping);
        if let Some(target) = projection.derivations.get_mut(mapping) {
            for row in rows {
                if added_rows.is_some_and(|s| s.contains(row))
                    || rescued_rows.is_some_and(|s| s.contains(row))
                {
                    continue;
                }
                if target.remove(row) {
                    rows_patched += 1;
                }
            }
        }
    }
    projection.derivations.retain(|_, rows| !rows.is_empty());
    for b in &added.bindings {
        if projection.bindings.insert(b.clone()) {
            rows_patched += 1;
        }
    }
    for b in &candidates.bindings {
        if added.bindings.contains(b) || rescued.bindings.contains(b) {
            continue;
        }
        if projection.bindings.remove(b) {
            rows_patched += 1;
        }
    }

    // Annotation maintenance: bring the carried graph to the patched
    // projection (or decode it on the entry's first round), then evaluate
    // it exactly as a fresh unfold answer is evaluated.
    let (annotated, state) = match &prepared.query.evaluate {
        Some(spec) => {
            let graph = match prior_state {
                Some(state) => {
                    let mut graph = state.graph;
                    patch_graph(
                        &mut graph,
                        &new.sys,
                        &previous.projection,
                        &projection,
                        &net.set_values,
                    )?;
                    graph
                }
                None => projection.to_graph(&new.sys)?,
            };
            let region = Region::all(&graph);
            let annotated = annotate_on(
                &new.sys,
                &graph,
                &region,
                &projection,
                spec,
                Parallelism::Serial,
            )?;
            (Some(annotated), Some(Box::new(MaintainState { graph })))
        }
        None => (None, None),
    };

    Ok(MaintainResult::Maintained {
        output: Box::new(QueryOutput {
            projection,
            annotated,
            stats: previous.stats.clone(),
            touched: previous.touched.clone(),
            plan: None,
        }),
        rows_patched,
        state,
    })
}

/// Fold the delta chain into per-relation net row changes. A row whose
/// adds and removes cancel out over the span changed nothing observable.
fn collect_net_changes<'a>(
    sys: &ProvenanceSystem,
    entries: impl Iterator<Item = &'a proql_provgraph::GraphDelta>,
) -> NetChanges {
    let mut signed: HashMap<(String, Tuple), i64> = HashMap::new();
    let mut net = NetChanges::default();
    for entry in entries {
        for rc in &entry.rows {
            *signed
                .entry((rc.table.clone(), rc.row.clone()))
                .or_default() += if rc.added { 1 } else { -1 };
        }
        for op in &entry.ops {
            match op {
                // Superfluous provenance relations are views — their row
                // changes never hit stored-table tracking, but the graph
                // ops record them exactly. Materialized `P_m` tables are
                // covered by the raw row records; counting their ops too
                // would double-book.
                DeltaOp::AddDerivation { mapping, row }
                | DeltaOp::RemoveDerivation { mapping, row } => {
                    if let Some(spec) = sys.spec_for(mapping) {
                        if spec.superfluous {
                            let added = matches!(op, DeltaOp::AddDerivation { .. });
                            *signed
                                .entry((spec.prov_rel.clone(), row.clone()))
                                .or_default() += if added { 1 } else { -1 };
                        }
                    }
                }
                DeltaOp::SetValues { relation, key } => {
                    net.set_values.insert((relation.clone(), key.clone()));
                }
            }
        }
    }
    for ((table, row), n) in signed {
        if n > 0 {
            net.adds.entry(table).or_default().push(row);
            net.total_rows += 1;
        } else if n < 0 {
            net.removes.entry(table).or_default().push(row);
            net.total_rows += 1;
        }
    }
    net
}

/// Run every (rule, atom) delta variant ([`delta_variants`]): atom `j`
/// reading `delta[atom.relation]` inline, all other atoms reading
/// `engine`'s snapshot in full. Merges all partial results.
fn run_delta_rules(
    engine: &Engine,
    rules: &[QueryRule],
    return_vars: &[String],
    delta: &HashMap<String, Vec<Tuple>>,
) -> Result<ProjectionResult> {
    let db = &engine.sys.db;
    let mut out = ProjectionResult::default();
    for rule in rules {
        for bp in delta_variants(db, &rule.atoms, delta)? {
            let mut plan = bp.plan;
            if let Some(cond) = &rule.condition {
                plan = plan.filter(cond_to_expr(cond, &bp.var_cols)?);
            }
            let prepared = PreparedRule {
                plan: optimize_with(db, plan),
                var_cols: bp.var_cols,
            };
            run_rule(
                db,
                rule,
                &prepared,
                return_vars,
                engine.options.exec_mode,
                Parallelism::Serial,
                &mut out,
            )?;
        }
    }
    Ok(out)
}

/// The DRed re-derivation check: run each rule against the NEW state
/// filtered down to rows that could produce one of the removal
/// candidates. Everything these runs emit is still derivable and must
/// not be removed.
fn recheck_candidates(
    new: &Engine,
    unfold: &crate::engine::PreparedUnfold,
    candidates: &ProjectionResult,
) -> Result<ProjectionResult> {
    let mut out = ProjectionResult::default();
    for (rule, prep) in unfold.translation.rules.iter().zip(&unfold.rules) {
        let mut or_parts: Vec<Expr> = Vec::new();
        // A candidate derivation row is re-derivable through this rule
        // iff some output provenance record of the same mapping can emit
        // it: constants must match statically, variables become
        // column-equality conjuncts.
        for (mapping, rows) in &candidates.derivations {
            for rec in &rule.prov_records {
                if !rec.output || &rec.mapping != mapping {
                    continue;
                }
                'row: for row in rows {
                    let mut conj: Vec<Expr> = Vec::new();
                    for (k, term) in rec.terms.iter().enumerate() {
                        match term {
                            proql_datalog::ast::Term::Const(v) => {
                                if v != row.get(k) {
                                    continue 'row;
                                }
                            }
                            proql_datalog::ast::Term::Var(name) => {
                                let Some(&col) = prep.var_cols.get(name) else {
                                    continue 'row;
                                };
                                conj.push(Expr::col(col).eq(Expr::Lit(row.get(k).clone())));
                            }
                            proql_datalog::ast::Term::Skolem(..) => continue 'row,
                        }
                    }
                    or_parts.push(Expr::and(conj));
                }
            }
        }
        // A candidate binding is re-derivable through this rule iff the
        // rule binds every RETURN variable to the same relation and the
        // key columns can equal the candidate's key.
        'binding: for b in &candidates.bindings {
            let mut conj: Vec<Expr> = Vec::new();
            for (var, (relation, key)) in b {
                let Some(nb) = rule.node_bindings.get(var) else {
                    continue 'binding;
                };
                if &nb.relation != relation {
                    continue 'binding;
                }
                let schema = new.sys.db.schema_of(&nb.relation)?;
                for (i, &pos) in schema.effective_key().iter().enumerate() {
                    match &nb.terms[pos] {
                        proql_datalog::ast::Term::Const(v) => {
                            if v != key.get(i) {
                                continue 'binding;
                            }
                        }
                        proql_datalog::ast::Term::Var(name) => {
                            let Some(&col) = prep.var_cols.get(name) else {
                                continue 'binding;
                            };
                            conj.push(Expr::col(col).eq(Expr::Lit(key.get(i).clone())));
                        }
                        proql_datalog::ast::Term::Skolem(..) => continue 'binding,
                    }
                }
            }
            or_parts.push(Expr::and(conj));
        }
        if or_parts.is_empty() {
            continue;
        }
        let plan = optimize_with(&new.sys.db, prep.plan.clone().filter(Expr::Or(or_parts)));
        let filtered = PreparedRule {
            plan,
            var_cols: prep.var_cols.clone(),
        };
        run_rule(
            &new.sys.db,
            rule,
            &filtered,
            &unfold.translation.return_vars,
            new.options.exec_mode,
            Parallelism::Serial,
            &mut out,
        )?;
    }
    Ok(out)
}

/// Patch `graph` — the decoded subgraph of `before` — into the decoded
/// subgraph of `after`: add the new derivation rows, remove the dropped
/// ones, refresh the stored values of changed tuples, then compact. Tuple
/// values resolve against `sys`, the state `after` was computed at.
fn patch_graph(
    graph: &mut ProvGraph,
    sys: &ProvenanceSystem,
    before: &ProjectionResult,
    after: &ProjectionResult,
    set_values: &BTreeSet<(String, Tuple)>,
) -> Result<()> {
    let empty = BTreeSet::new();
    for (mapping, rows) in &after.derivations {
        let Some(spec) = sys.spec_for(mapping) else {
            continue;
        };
        let is_base = sys
            .rule_for(mapping)
            .and_then(|r| r.body.first())
            .is_some_and(|a| sys.is_local_relation(&a.relation));
        for row in rows.difference(before.derivations.get(mapping).unwrap_or(&empty)) {
            graph.add_derivation_from_row(sys, spec, row, is_base)?;
        }
    }
    for (mapping, rows) in &before.derivations {
        for row in rows.difference(after.derivations.get(mapping).unwrap_or(&empty)) {
            graph.remove_derivation_row(mapping, row);
        }
    }
    for (relation, key) in set_values {
        graph.refresh_values(sys, relation, key);
    }
    graph.maybe_compact();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineOptions};
    use proql_common::{tup, Schema, ValueType};

    /// Acyclic fixture: `X → Y` through the superfluous `my`, `X ⋈ Y → Z`
    /// through the materialized `P_mz`. `Strategy::Auto` resolves to
    /// `Unfold`, which is what maintenance requires.
    fn acyclic_system() -> ProvenanceSystem {
        let mut sys = ProvenanceSystem::new();
        for name in ["X", "Y"] {
            sys.add_relation_with_local(
                Schema::build(name, &[("id", ValueType::Int), ("w", ValueType::Int)], &[0])
                    .unwrap(),
            )
            .unwrap();
        }
        sys.add_relation(
            Schema::build(
                "Z",
                &[
                    ("id", ValueType::Int),
                    ("a", ValueType::Int),
                    ("b", ValueType::Int),
                ],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
        sys.add_mapping_text("my: Y(i, w) :- X(i, w)").unwrap();
        sys.add_mapping_text("mz: Z(i, a, b) :- X(i, a), Y(i, b)")
            .unwrap();
        for i in 0..4i64 {
            sys.insert_local("X", tup![i, i * 10]).unwrap();
        }
        sys.run_exchange().unwrap();
        sys
    }

    const PROJ_Q: &str = "FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
    const WEIGHT_Q: &str = "EVALUATE WEIGHT OF {
           FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x
         } ASSIGNING EACH leaf_node $y {
           CASE $y in X : SET 2
           DEFAULT : SET 1
         } ASSIGNING EACH mapping $p($z) {
           CASE $p = mz : SET $z + 5
           DEFAULT : SET $z
         }";

    /// Execute `q` at a base version, mutate a cloned system, maintain the
    /// cached output forward, and return it with a fresh recomputation.
    fn roundtrip(
        q: &str,
        mutate: impl FnOnce(&mut ProvenanceSystem),
    ) -> (QueryOutput, QueryOutput, u64) {
        let old = Engine::new(acyclic_system());
        let prepared = old.prepare(q).unwrap();
        let previous = old.execute(&prepared).unwrap();
        let mut sys2 = old.sys.clone();
        mutate(&mut sys2);
        let new = Engine::with_options(sys2, old.options.clone());
        match maintain_output(&old, &new, &prepared, &previous, None).unwrap() {
            MaintainResult::Maintained {
                output,
                rows_patched,
                ..
            } => {
                let fresh = new.execute(&prepared).unwrap();
                (*output, fresh, rows_patched)
            }
            MaintainResult::Fallback(reason) => panic!("unexpected fallback: {reason}"),
        }
    }

    fn assert_projection_eq(a: &QueryOutput, b: &QueryOutput) {
        assert_eq!(a.projection.derivations, b.projection.derivations);
        assert_eq!(a.projection.bindings, b.projection.bindings);
    }

    #[test]
    fn insert_is_maintained_to_match_recompute() {
        let (maintained, fresh, patched) = roundtrip(PROJ_Q, |sys| {
            sys.insert_local("X", tup![9, 90]).unwrap();
            sys.run_exchange().unwrap();
        });
        assert_projection_eq(&maintained, &fresh);
        assert!(patched > 0, "the insert must reach the cached answer");
        assert!(maintained
            .projection
            .bindings
            .iter()
            .any(|b| b["x"].1 == tup![9]));
    }

    #[test]
    fn tracked_delete_is_maintained_via_dred() {
        let (maintained, fresh, patched) = roundtrip(PROJ_Q, |sys| {
            sys.delete_row_tracked("X_l", &tup![1]).unwrap();
            assert!(sys.commit_tracked_mutation());
        });
        assert_projection_eq(&maintained, &fresh);
        assert!(patched > 0, "the delete must reach the cached answer");
    }

    #[test]
    fn mixed_write_is_maintained() {
        let (maintained, fresh, _) = roundtrip(PROJ_Q, |sys| {
            sys.delete_row_tracked("X_l", &tup![2]).unwrap();
            assert!(sys.commit_tracked_mutation());
            sys.insert_local("X", tup![7, 70]).unwrap();
            sys.insert_local("Y", tup![8, 80]).unwrap();
            sys.run_exchange().unwrap();
        });
        assert_projection_eq(&maintained, &fresh);
    }

    #[test]
    fn weight_annotation_is_maintained_across_two_rounds() {
        let old = Engine::new(acyclic_system());
        let prepared = old.prepare(WEIGHT_Q).unwrap();
        let previous = old.execute(&prepared).unwrap();

        // Round 1: an insert, bootstrapping the annotation state.
        let mut sys2 = old.sys.clone();
        sys2.insert_local("X", tup![9, 90]).unwrap();
        sys2.run_exchange().unwrap();
        let mid = Engine::with_options(sys2, old.options.clone());
        let MaintainResult::Maintained {
            output: out1,
            state: state1,
            ..
        } = maintain_output(&old, &mid, &prepared, &previous, None).unwrap()
        else {
            panic!("round 1 fell back");
        };
        let fresh1 = mid.execute(&prepared).unwrap();
        assert_projection_eq(&out1, &fresh1);
        assert_eq!(
            out1.annotated.as_ref().unwrap().rows,
            fresh1.annotated.as_ref().unwrap().rows
        );

        // Round 2: a delete, reusing the carried state (no re-bootstrap).
        let mut sys3 = mid.sys.clone();
        sys3.delete_row_tracked("X_l", &tup![1]).unwrap();
        assert!(sys3.commit_tracked_mutation());
        let new = Engine::with_options(sys3, mid.options.clone());
        let MaintainResult::Maintained { output: out2, .. } =
            maintain_output(&mid, &new, &prepared, &out1, state1).unwrap()
        else {
            panic!("round 2 fell back");
        };
        let fresh2 = new.execute(&prepared).unwrap();
        assert_projection_eq(&out2, &fresh2);
        assert_eq!(
            out2.annotated.as_ref().unwrap().rows,
            fresh2.annotated.as_ref().unwrap().rows
        );
    }

    #[test]
    fn carried_graph_stays_compact_across_many_rounds() {
        // Regression: the carried graph was never compacted, so every
        // insert/delete pair left tombstones behind for good.
        let mut engine = Engine::new(acyclic_system());
        let prepared = engine.prepare(WEIGHT_Q).unwrap();
        let mut output = engine.execute(&prepared).unwrap();
        let mut state = None;
        for round in 0..200i64 {
            let mut sys = engine.sys.clone();
            let k = 100 + round / 2;
            if round % 2 == 0 {
                sys.insert_local("X", tup![k, k]).unwrap();
                sys.run_exchange().unwrap();
            } else {
                proql_cdss::update::delete_local(&mut sys, "X", &tup![k]).unwrap();
            }
            let next = Engine::with_options(sys, engine.options.clone());
            let MaintainResult::Maintained {
                output: patched,
                state: next_state,
                ..
            } = maintain_output(&engine, &next, &prepared, &output, state).unwrap()
            else {
                panic!("round {round} fell back");
            };
            let graph = &next_state.as_ref().unwrap().graph;
            let (bound, live) = (graph.tuple_id_bound(), graph.tuple_count());
            assert!(
                3 * bound <= 4 * live + 48,
                "round {round}: {bound} tuple ids for {live} live tuples"
            );
            (engine, output, state) = (next, *patched, next_state);
        }
        let fresh = engine.execute(&prepared).unwrap();
        assert_eq!(
            output.annotated.unwrap().rows,
            fresh.annotated.unwrap().rows
        );
    }

    #[test]
    fn broken_delta_chain_falls_back() {
        let old = Engine::new(acyclic_system());
        let prepared = old.prepare(PROJ_Q).unwrap();
        let previous = old.execute(&prepared).unwrap();
        let mut sys2 = old.sys.clone();
        sys2.db.insert("Y", tup![50, 50]).unwrap();
        sys2.bump_version();
        let new = Engine::with_options(sys2, old.options.clone());
        match maintain_output(&old, &new, &prepared, &previous, None).unwrap() {
            MaintainResult::Fallback(reason) => {
                assert_eq!(reason, "delta chain unavailable")
            }
            MaintainResult::Maintained { .. } => panic!("must not maintain across a broken chain"),
        }
    }

    #[test]
    fn graph_strategy_and_set_valued_semirings_fall_back() {
        let opts = EngineOptions {
            strategy: Strategy::Graph,
            ..EngineOptions::default()
        };
        let old = Engine::with_options(acyclic_system(), opts);
        let prepared = old.prepare(PROJ_Q).unwrap();
        let previous = old.execute(&prepared).unwrap();
        match maintain_output(&old, &old, &prepared, &previous, None).unwrap() {
            MaintainResult::Fallback(reason) => assert_eq!(reason, "graph-walk strategy"),
            MaintainResult::Maintained { .. } => panic!("graph strategy must fall back"),
        }

        let unfold = Engine::new(acyclic_system());
        let q = "EVALUATE LINEAGE OF { FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x }";
        let prepared = unfold.prepare(q).unwrap();
        let previous = unfold.execute(&prepared).unwrap();
        match maintain_output(&unfold, &unfold, &prepared, &previous, None).unwrap() {
            MaintainResult::Fallback(reason) => assert_eq!(reason, "set-valued semiring"),
            MaintainResult::Maintained { .. } => panic!("set-valued semirings must fall back"),
        }
    }

    #[test]
    fn explain_outputs_fall_back() {
        let old = Engine::new(acyclic_system());
        let prepared = old
            .prepare("EXPLAIN FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        let previous = old.execute(&prepared).unwrap();
        match maintain_output(&old, &old, &prepared, &previous, None).unwrap() {
            MaintainResult::Fallback(reason) => assert_eq!(reason, "explain output"),
            MaintainResult::Maintained { .. } => panic!("EXPLAIN output must fall back"),
        }
    }

    #[test]
    fn untouched_span_is_a_no_op_patch() {
        let (maintained, fresh, patched) = roundtrip(PROJ_Q, |sys| {
            // A duplicate insert is a set-semantics no-op: nothing is
            // staged, no version bump, an empty delta span.
            let inserted = sys.insert_local("X", tup![0, 0]).unwrap();
            assert!(!inserted);
        });
        assert_projection_eq(&maintained, &fresh);
        assert_eq!(patched, 0);
    }
}
