//! Annotation computation (paper §3.2.2): evaluating the projected
//! subgraph in a semiring, driven by the query's `ASSIGNING EACH` clauses.

use crate::ast::{Condition, Evaluate, SetValue};
use crate::exec::ProjectionResult;
use proql_common::{Error, Parallelism, Result, Tuple, TupleId, Value};
use proql_provgraph::{ProvGraph, ProvenanceSystem, TupleNode};
use proql_semiring::eval::leaf_label;
use proql_semiring::{
    evaluate_region, Annotation, Assignment, MapFn, Region, SecurityLevel, SemiringKind,
};
use std::collections::{HashMap, HashSet};

/// One annotated distinguished node.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedRow {
    /// The RETURN variable.
    pub var: String,
    /// The node's relation.
    pub relation: String,
    /// The node's key.
    pub key: Tuple,
    /// Its computed annotation.
    pub annotation: Annotation,
}

/// The result of `EVALUATE <semiring> OF { ... }`.
#[derive(Debug, Clone)]
pub struct AnnotatedResult {
    /// The semiring used.
    pub semiring: SemiringKind,
    /// Annotations of the distinguished nodes.
    pub rows: Vec<AnnotatedRow>,
    /// For the probability semiring: per-leaf probabilities collected from
    /// numeric `SET` clauses (feed these to
    /// [`proql_semiring::event_probability`]).
    pub leaf_probs: HashMap<String, f64>,
}

impl AnnotatedResult {
    /// Look up the annotation of a specific node.
    pub fn annotation_of(&self, relation: &str, key: &Tuple) -> Option<&Annotation> {
        self.rows
            .iter()
            .find(|r| r.relation == relation && &r.key == key)
            .map(|r| &r.annotation)
    }
}

/// Run the annotation computation over a projection result.
pub fn run_annotation(
    sys: &ProvenanceSystem,
    projection: &ProjectionResult,
    spec: &Evaluate,
) -> Result<AnnotatedResult> {
    run_annotation_opts(sys, projection, spec, Parallelism::Serial)
}

/// [`run_annotation`] with a [`Parallelism`] knob, forwarded to the
/// level-parallel graph walk.
///
/// A graph-strategy projection is evaluated over the graph it was read
/// from, on the region its distinguished nodes reach backward; an unfold
/// projection decodes its derivation rows into a graph of their own
/// (no other graph exists for them) and evaluates all of it.
pub fn run_annotation_opts(
    sys: &ProvenanceSystem,
    projection: &ProjectionResult,
    spec: &Evaluate,
    par: Parallelism,
) -> Result<AnnotatedResult> {
    match &projection.graph {
        Some(handle) => {
            let graph = &handle.0;
            // A node without derivations is in the projected subgraph only
            // when a derivation there reads it, so it seeds nothing.
            let roots = projection
                .bindings
                .iter()
                .flat_map(|binding| binding.values())
                .filter_map(|(relation, key)| graph.find_tuple(relation, key))
                .filter(|&t| !graph.derivations_of(t).is_empty());
            let region = Region::backward_from(graph, roots);
            annotate_on(sys, graph, &region, projection, spec, par)
        }
        None => {
            let graph = projection.to_graph(sys)?;
            annotate_on(sys, &graph, &Region::all(&graph), projection, spec, par)
        }
    }
}

/// The one annotation evaluator: fold `spec`'s semiring over `region` of
/// `graph` and read off the projection's distinguished nodes. `graph`
/// holds the projection's subgraph — the engine's whole graph for
/// graph-strategy answers, or a graph of exactly the projection's
/// derivation rows (decoded, or carried across maintenance rounds).
/// Distinguished nodes outside the region annotate as zero.
pub(crate) fn annotate_on(
    sys: &ProvenanceSystem,
    graph: &ProvGraph,
    region: &Region,
    projection: &ProjectionResult,
    spec: &Evaluate,
    par: Parallelism,
) -> Result<AnnotatedResult> {
    let kind = spec.semiring;

    // A leaf CASE ladder runs eagerly over every node of the projected
    // subgraph: leaf probabilities are collected as its side effect, and
    // its errors surface even for leaves no distinguished node reads.
    // Without one, every leaf gets its default value when the walk asks.
    let mut leaf_probs: HashMap<String, f64> = HashMap::new();
    let mut leaf_values: HashMap<String, Annotation> = HashMap::new();
    if spec.leaf_assign.is_some() {
        for t in subgraph_tuples(graph, projection) {
            let node = graph.tuple(t);
            let label = leaf_label(node);
            let (value, prob) = leaf_value_for(sys, spec, kind, node, &label)?;
            if let Some(p) = prob {
                leaf_probs.insert(label.clone(), p);
            }
            leaf_values.insert(label, value);
        }
    }
    let leaf = |_node: &TupleNode, label: &str| {
        leaf_values
            .get(label)
            .cloned()
            .unwrap_or_else(|| kind.default_leaf(label))
    };

    let mut assignment = Assignment::default_for(kind).with_leaf(leaf);
    if spec.map_assign.is_some() {
        let map_fns: HashMap<String, MapFn> = sys
            .specs()
            .iter()
            .map(|s| map_fn_for(spec, kind, &s.mapping).map(|f| (s.mapping.clone(), f)))
            .collect::<Result<_>>()?;
        assignment =
            assignment.with_map_fn(move |m| map_fns.get(m).cloned().unwrap_or(MapFn::Identity));
    }
    let values = evaluate_region(graph, region, &assignment, par)?;

    // The distinguished nodes, once per (variable, node), in binding order.
    let mut seen = HashSet::new();
    let mut rows = Vec::new();
    for binding in &projection.bindings {
        for (var, (relation, key)) in binding {
            if seen.insert((var, relation, key)) {
                let annotation = graph
                    .find_tuple(relation, key)
                    .and_then(|t| values.get(t))
                    .unwrap_or_else(|| kind.zero());
                rows.push(AnnotatedRow {
                    var: var.clone(),
                    relation: relation.clone(),
                    key: key.clone(),
                    annotation,
                });
            }
        }
    }
    Ok(AnnotatedResult {
        semiring: kind,
        rows,
        leaf_probs,
    })
}

/// The tuple nodes of a projection's subgraph: all of `graph` when it
/// holds exactly the projection's derivation rows (unfold answers),
/// else those rows' endpoints in the engine's graph, in the order decoding
/// the rows would create them ([`ProjectionResult::to_graph`]).
fn subgraph_tuples(graph: &ProvGraph, projection: &ProjectionResult) -> Vec<TupleId> {
    if projection.graph.is_none() {
        return graph.tuple_ids().collect();
    }
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (mapping, rows) in &projection.derivations {
        for row in rows {
            let Some(d) = graph.find_derivation(mapping, row) else {
                continue;
            };
            let node = graph.derivation(d);
            for &t in node.sources.iter().chain(&node.targets) {
                if seen.insert(t) {
                    out.push(t);
                }
            }
        }
    }
    out
}

/// Evaluate the leaf CASE ladder for one node. Returns the annotation and,
/// for numeric SETs under the probability semiring, the leaf probability.
fn leaf_value_for(
    sys: &ProvenanceSystem,
    spec: &Evaluate,
    kind: SemiringKind,
    node: &TupleNode,
    label: &str,
) -> Result<(Annotation, Option<f64>)> {
    let Some(assign) = &spec.leaf_assign else {
        return Ok((kind.default_leaf(label), None));
    };
    for (cond, set) in &assign.cases {
        if leaf_cond_holds(sys, cond, &assign.var, node)? {
            return set_to_leaf(kind, set, label);
        }
    }
    match &assign.default {
        Some(set) => set_to_leaf(kind, set, label),
        // Paper: without DEFAULT, unmatched leaves get the ⊗-identity.
        None => Ok((kind.one(), None)),
    }
}

fn set_to_leaf(
    kind: SemiringKind,
    set: &SetValue,
    label: &str,
) -> Result<(Annotation, Option<f64>)> {
    match set {
        SetValue::Lit(Value::Bool(b)) => match kind {
            SemiringKind::Derivability | SemiringKind::Trust => Ok((Annotation::Bool(*b), None)),
            _ => Err(Error::Query(format!(
                "boolean SET value is invalid in the {kind} semiring"
            ))),
        },
        SetValue::Lit(v @ (Value::Int(_) | Value::Float(_))) => {
            let f = v.as_float().expect("numeric");
            match kind {
                SemiringKind::Weight => Ok((Annotation::Weight(f), None)),
                SemiringKind::Counting => Ok((count_of(f)?, None)),
                // Probability: the leaf keeps its event variable; the
                // number is the base event's probability.
                SemiringKind::Probability => Ok((kind.default_leaf(label), Some(f))),
                _ => Err(Error::Query(format!(
                    "numeric SET value is invalid in the {kind} semiring"
                ))),
            }
        }
        SetValue::Lit(Value::Str(s)) => match kind {
            SemiringKind::Confidentiality => {
                let lvl = SecurityLevel::parse(s)
                    .ok_or_else(|| Error::Query(format!("unknown confidentiality level {s}")))?;
                Ok((Annotation::Level(lvl), None))
            }
            _ => Err(Error::Query(format!(
                "string SET value is invalid in the {kind} semiring"
            ))),
        },
        SetValue::Lit(Value::Null) => Ok((kind.zero(), None)),
        SetValue::Input | SetValue::InputPlus(_) | SetValue::InputTimes(_) => Err(Error::Query(
            "leaf SET values cannot reference the input variable".into(),
        )),
    }
}

/// A COUNT `SET` constant. The counting semiring is ℕ: a negative or
/// fractional number is an error, not a silent truncation.
fn count_of(n: f64) -> Result<Annotation> {
    if n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64 {
        Ok(Annotation::Count(n as u64))
    } else {
        Err(Error::Query(format!(
            "COUNT SET value {n} is not a natural number"
        )))
    }
}

fn leaf_cond_holds(
    sys: &ProvenanceSystem,
    cond: &Condition,
    leaf_var: &str,
    node: &TupleNode,
) -> Result<bool> {
    match cond {
        Condition::And(parts) => {
            for p in parts {
                if !leaf_cond_holds(sys, p, leaf_var, node)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Condition::Or(parts) => {
            for p in parts {
                if leaf_cond_holds(sys, p, leaf_var, node)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Condition::Not(inner) => Ok(!leaf_cond_holds(sys, inner, leaf_var, node)?),
        Condition::InRelation { var, relation } => {
            check_var(var, leaf_var)?;
            Ok(node.relation == *relation)
        }
        Condition::AttrCmp {
            var,
            attr,
            op,
            value,
        } => {
            check_var(var, leaf_var)?;
            let schema = sys.db.schema_of(&node.relation)?;
            let Some(pos) = schema.position(attr) else {
                // Attribute of a different relation: the case simply does
                // not apply (e.g. `$y.height >= 6` tested on a C tuple).
                return Ok(false);
            };
            let Some(values) = &node.values else {
                return Ok(false);
            };
            let v = values.get(pos);
            Ok(match op {
                crate::ast::CmpOp::Eq => v == value,
                crate::ast::CmpOp::Ne => v != value,
                crate::ast::CmpOp::Lt => v < value,
                crate::ast::CmpOp::Le => v <= value,
                crate::ast::CmpOp::Gt => v > value,
                crate::ast::CmpOp::Ge => v >= value,
            })
        }
        Condition::MappingIs { .. } => Err(Error::Query(
            "mapping conditions are invalid in leaf_node CASE clauses".into(),
        )),
    }
}

fn check_var(var: &str, leaf_var: &str) -> Result<()> {
    if var == leaf_var {
        Ok(())
    } else {
        Err(Error::Query(format!(
            "CASE condition references ${var}, expected ${leaf_var}"
        )))
    }
}

/// Build the mapping function for one mapping from the `ASSIGNING EACH
/// mapping` ladder.
fn map_fn_for(spec: &Evaluate, kind: SemiringKind, mapping: &str) -> Result<MapFn> {
    let Some(assign) = &spec.map_assign else {
        return Ok(MapFn::Identity);
    };
    for (cond, set) in &assign.cases {
        if map_cond_holds(cond, &assign.pvar, mapping)? {
            return set_to_map_fn(kind, set, &assign.zvar);
        }
    }
    match &assign.default {
        Some(set) => set_to_map_fn(kind, set, &assign.zvar),
        None => Ok(MapFn::Identity),
    }
}

fn map_cond_holds(cond: &Condition, pvar: &str, mapping: &str) -> Result<bool> {
    match cond {
        Condition::And(parts) => {
            for p in parts {
                if !map_cond_holds(p, pvar, mapping)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Condition::Or(parts) => {
            for p in parts {
                if map_cond_holds(p, pvar, mapping)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Condition::Not(inner) => Ok(!map_cond_holds(inner, pvar, mapping)?),
        Condition::MappingIs {
            var,
            mapping: m,
            positive,
        } => {
            check_var(var, pvar)?;
            Ok((m == mapping) == *positive)
        }
        other => Err(Error::Query(format!(
            "unsupported condition in mapping CASE clause: {other:?}"
        ))),
    }
}

fn set_to_map_fn(kind: SemiringKind, set: &SetValue, _zvar: &str) -> Result<MapFn> {
    match set {
        SetValue::Input => Ok(MapFn::Identity),
        SetValue::Lit(Value::Bool(false)) | SetValue::Lit(Value::Null) => Ok(MapFn::zero(kind)),
        SetValue::Lit(Value::Bool(true)) => match kind {
            // `SET true` would violate f(0)=0 unless read as the neutral
            // function; the paper's restriction forbids constant-nonzero.
            SemiringKind::Derivability | SemiringKind::Trust => Ok(MapFn::Identity),
            _ => Err(Error::Query(format!(
                "boolean mapping SET is invalid in the {kind} semiring"
            ))),
        },
        SetValue::InputPlus(c) => match kind {
            SemiringKind::Weight => Ok(MapFn::TimesConst(Annotation::Weight(*c))),
            _ => Err(Error::Query(format!(
                "`SET $z + c` is only meaningful in the WEIGHT semiring, not {kind}"
            ))),
        },
        SetValue::InputTimes(k) => match kind {
            SemiringKind::Counting => Ok(MapFn::TimesConst(count_of(*k)?)),
            _ => Err(Error::Query(format!(
                "`SET $z * k` is only meaningful in the COUNT semiring, not {kind}"
            ))),
        },
        SetValue::Lit(v @ (Value::Int(_) | Value::Float(_))) => {
            let f = v.as_float().expect("numeric");
            match kind {
                SemiringKind::Weight => Ok(MapFn::TimesConst(Annotation::Weight(f))),
                SemiringKind::Counting => Ok(MapFn::TimesConst(count_of(f)?)),
                _ => Err(Error::Query(format!(
                    "numeric mapping SET is invalid in the {kind} semiring"
                ))),
            }
        }
        SetValue::Lit(Value::Str(s)) => match kind {
            SemiringKind::Confidentiality => {
                let lvl = SecurityLevel::parse(s)
                    .ok_or_else(|| Error::Query(format!("unknown confidentiality level {s}")))?;
                Ok(MapFn::TimesConst(Annotation::Level(lvl)))
            }
            _ => Err(Error::Query(format!(
                "string mapping SET is invalid in the {kind} semiring"
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::translate::{translate, TranslateOptions};
    use proql_common::tup;
    use proql_provgraph::system::example_2_1;

    fn annotate(q: &str) -> AnnotatedResult {
        let sys = example_2_1().unwrap();
        let query = parse_query(q).unwrap();
        let t = translate(&sys, &query, None, &TranslateOptions::default()).unwrap();
        let proj = crate::exec::run_projection(&sys, &t).unwrap();
        run_annotation(&sys, &proj, query.evaluate.as_ref().unwrap()).unwrap()
    }

    #[test]
    fn q5_derivability_default_assignment() {
        let r = annotate(
            "EVALUATE DERIVABILITY OF {
               FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
             }",
        );
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            assert_eq!(row.annotation, Annotation::Bool(true), "{:?}", row.key);
        }
    }

    #[test]
    fn q6_lineage() {
        let r = annotate(
            "EVALUATE LINEAGE OF {
               FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
             }",
        );
        let cn2 = r.annotation_of("O", &tup!["cn2"]).unwrap();
        let lineage = cn2.as_lineage().unwrap();
        assert!(lineage.contains("A(2)"));
        assert!(lineage.contains("C(2,cn2)"));
    }

    #[test]
    fn graph_strategy_node_without_derivations_reads_as_zero() {
        // R has no local table: R(1), written straight into the database,
        // is a graph node only as the source of S(1)'s derivation. Its own
        // projected subgraph is empty, so it annotates as zero — the value
        // decoding that (empty) subgraph gives — not as a leaf.
        use crate::engine::{Engine, Strategy};
        use proql_common::{Schema, ValueType};
        let mut sys = ProvenanceSystem::new();
        sys.add_relation(Schema::build("R", &[("k", ValueType::Int)], &[0]).unwrap())
            .unwrap();
        sys.add_relation_with_local(Schema::build("S", &[("k", ValueType::Int)], &[0]).unwrap())
            .unwrap();
        sys.add_mapping_text("ms: S(k) :- R(k)").unwrap();
        sys.db.insert("R", tup![1]).unwrap();
        sys.run_exchange().unwrap();
        let mut e = Engine::new(sys);
        e.options.strategy = Strategy::Graph;
        assert!(e.graph().unwrap().find_tuple("R", &tup![1]).is_some());
        for (kind, zero) in [
            ("LINEAGE", Annotation::Lineage(None)),
            ("DERIVABILITY", Annotation::Bool(false)),
        ] {
            let out = e
                .query(&format!(
                    "EVALUATE {kind} OF {{ FOR [R $x] INCLUDE PATH [$x] <-+ [] RETURN $x }}"
                ))
                .unwrap();
            assert!(out.projection.derivations.is_empty());
            let ann = out.annotated.unwrap();
            assert_eq!(ann.annotation_of("R", &tup![1]), Some(&zero), "{kind}");
        }
    }

    #[test]
    fn q7_trust_policy_from_paper() {
        // Paper Q7 adapted to our schema: distrust A tuples with len >= 6,
        // trust C, distrust m4.
        let r = annotate(
            "EVALUATE TRUST OF {
               FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
             } ASSIGNING EACH leaf_node $y {
               CASE $y in C : SET true
               CASE $y in A AND $y.len >= 6 : SET false
               DEFAULT : SET true
             } ASSIGNING EACH mapping $p($z) {
               CASE $p = m4 : SET false
               DEFAULT : SET $z
             }",
        );
        assert_eq!(
            r.annotation_of("O", &tup!["sn1"]),
            Some(&Annotation::Bool(false))
        );
        assert_eq!(
            r.annotation_of("O", &tup!["cn2"]),
            Some(&Annotation::Bool(true))
        );
        assert_eq!(
            r.annotation_of("O", &tup!["cn1"]),
            Some(&Annotation::Bool(false))
        );
        // O(sn2): only derivation is via the distrusted m4 from A(2):
        // untrusted even though A(2) is trusted.
        assert_eq!(
            r.annotation_of("O", &tup!["sn2"]),
            Some(&Annotation::Bool(false))
        );
    }

    #[test]
    fn q8_weight_with_mapping_cost() {
        let r = annotate(
            "EVALUATE WEIGHT OF {
               FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
             } ASSIGNING EACH leaf_node $y {
               CASE $y in A : SET 10
               DEFAULT : SET 1
             } ASSIGNING EACH mapping $p($z) {
               CASE $p = m5 : SET $z + 2
               DEFAULT : SET $z
             }",
        );
        // O(cn2) via m5: A(2)=10 ⊗ C(2,cn2)=1 plus m5 cost 2 → 13.
        assert_eq!(
            r.annotation_of("O", &tup!["cn2"]),
            Some(&Annotation::Weight(13.0))
        );
        // O(sn2) via m4 from A(2): 10.
        assert_eq!(
            r.annotation_of("O", &tup!["sn2"]),
            Some(&Annotation::Weight(10.0))
        );
    }

    #[test]
    fn q9_probability_collects_leaf_probs() {
        let r = annotate(
            "EVALUATE PROBABILITY OF {
               FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
             } ASSIGNING EACH leaf_node $y {
               CASE $y in A : SET 0.9
               DEFAULT : SET 0.5
             }",
        );
        assert_eq!(r.leaf_probs.get("A(2)"), Some(&0.9));
        assert_eq!(r.leaf_probs.get("C(2,cn2)"), Some(&0.5));
        let ev = r
            .annotation_of("O", &tup!["cn2"])
            .unwrap()
            .as_event()
            .unwrap();
        let p = proql_semiring::event_probability(ev, &|e| *r.leaf_probs.get(e).unwrap_or(&1.0))
            .unwrap();
        assert!((p - 0.45).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn q10_confidentiality() {
        let r = annotate(
            "EVALUATE CONFIDENTIALITY OF {
               FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
             } ASSIGNING EACH leaf_node $y {
               CASE $y in A : SET secret
               DEFAULT : SET public
             }",
        );
        // Every O tuple requires an A tuple: secret.
        for row in &r.rows {
            assert_eq!(
                row.annotation,
                Annotation::Level(SecurityLevel::Secret),
                "{:?}",
                row.key
            );
        }
    }

    #[test]
    fn missing_default_uses_one() {
        let r = annotate(
            "EVALUATE TRUST OF {
               FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
             } ASSIGNING EACH leaf_node $y {
               CASE $y in A AND $y.len >= 100 : SET false
             }",
        );
        // No case matches and no DEFAULT: everything gets `one` = true.
        for row in &r.rows {
            assert_eq!(row.annotation, Annotation::Bool(true));
        }
    }

    #[test]
    fn type_mismatched_set_is_error() {
        let sys = example_2_1().unwrap();
        let query = parse_query(
            "EVALUATE WEIGHT OF {
               FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
             } ASSIGNING EACH leaf_node $y {
               DEFAULT : SET true
             }",
        )
        .unwrap();
        let t = translate(&sys, &query, None, &TranslateOptions::default()).unwrap();
        let proj = crate::exec::run_projection(&sys, &t).unwrap();
        assert!(run_annotation(&sys, &proj, query.evaluate.as_ref().unwrap()).is_err());
    }

    fn try_annotate(q: &str) -> Result<AnnotatedResult> {
        let sys = example_2_1().unwrap();
        let query = parse_query(q)?;
        let t = translate(&sys, &query, None, &TranslateOptions::default())?;
        let proj = crate::exec::run_projection(&sys, &t)?;
        run_annotation(&sys, &proj, query.evaluate.as_ref().unwrap())
    }

    #[test]
    fn count_set_values_must_be_natural_numbers() {
        // Regression: COUNT SET values were cast with `as u64`, so 2.5
        // read as 2, -3 as 0, and `$z * -2` zeroed every derivation.
        let leaf = |v: &str| {
            try_annotate(&format!(
                "EVALUATE COUNT OF {{ FOR [O $x] <-+ [A $y] INCLUDE PATH [$x] <-+ [$y] RETURN $x }} \
                 ASSIGNING EACH leaf_node $y {{ DEFAULT : SET {v} }}"
            ))
        };
        let mapping = |v: &str| {
            try_annotate(&format!(
                "EVALUATE COUNT OF {{ FOR [O $x] <-+ [A $y] INCLUDE PATH [$x] <-+ [$y] RETURN $x }} \
                 ASSIGNING EACH mapping $p($z) {{ DEFAULT : SET {v} }}"
            ))
        };
        for bad in [
            leaf("2.5"),
            leaf("-3"),
            mapping("$z * -2"),
            mapping("$z * 1.5"),
        ] {
            match bad {
                Err(Error::Query(msg)) => assert!(msg.contains("natural number"), "{msg}"),
                other => panic!("expected a query error, got {other:?}"),
            }
        }
        // O(sn2) has the single derivation m4 from A(2).
        let osn2 = |r: AnnotatedResult| r.annotation_of("O", &tup!["sn2"]).cloned();
        assert_eq!(osn2(leaf("3").unwrap()), Some(Annotation::Count(3)));
        assert_eq!(osn2(leaf("2.0").unwrap()), Some(Annotation::Count(2)));
        assert_eq!(osn2(mapping("$z * 2").unwrap()), Some(Annotation::Count(2)));
    }
}
