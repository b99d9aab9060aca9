//! Semiring evaluation through the batch grouped-aggregation operator.
//!
//! The paper evaluates annotation computations in SQL: each tuple's
//! annotation is the semiring sum (⊕) of its alternative derivations'
//! values, computed with `GROUP BY target ... SUM/MIN/BOOL_OR` (§4.2.4).
//! This module reproduces that shape over the in-memory engine: the
//! projected provenance graph is processed level by level (sources before
//! targets), and every level's ⊕ runs through
//! [`proql_storage::batch_exec::batch_aggregate`] — the same columnar
//! grouped-aggregation operator the relational plans use.
//!
//! Supported for the semirings whose ⊕ is a SQL aggregate over a scalar
//! encoding (derivability/trust → `BOOL_OR`, weight and confidentiality →
//! `MIN`, counting → `SUM`) on acyclic graphs; other semirings (lineage,
//! probability, polynomials) and cyclic graphs fall back to the direct
//! graph walk in `proql-semiring`.

use proql_common::{Error, Parallelism, Result, TupleId, Value};
use proql_provgraph::{ProvGraph, TupleNode};
use proql_semiring::eval::{leaf_label, level_order};
use proql_semiring::{Annotation, Evaluation, MapFn, Region, SecurityLevel, SemiringKind};
use proql_storage::batch::{Column, RecordBatch};
use proql_storage::batch_exec::batch_aggregate_opts;
use proql_storage::{AggFunc, Aggregate};

/// Scalar encoding of one semiring into batch columns.
struct Encoding {
    agg: fn(usize) -> AggFunc,
    encode: fn(&Annotation) -> Option<Value>,
    decode: fn(&Value) -> Option<Annotation>,
    /// False when a value is too large for the operator's fixed-width
    /// arithmetic — the whole evaluation then falls back to the direct
    /// walk, whose checked arithmetic reports overflow as an error.
    safe: fn(&Annotation) -> bool,
}

fn always_safe(_: &Annotation) -> bool {
    true
}

fn encoding_for(kind: SemiringKind) -> Option<Encoding> {
    match kind {
        SemiringKind::Derivability | SemiringKind::Trust => Some(Encoding {
            agg: AggFunc::BoolOr,
            encode: |a| a.as_bool().map(Value::Bool),
            decode: |v| v.as_bool().map(Annotation::Bool),
            safe: always_safe,
        }),
        // ⊕ = min over weights.
        SemiringKind::Weight => Some(Encoding {
            agg: AggFunc::Min,
            encode: |a| match a {
                Annotation::Weight(w) => Some(Value::Float(*w)),
                _ => None,
            },
            decode: |v| v.as_float().map(Annotation::Weight),
            safe: always_safe,
        }),
        // ⊕ = less_secure = min of the ordinal.
        SemiringKind::Confidentiality => Some(Encoding {
            agg: AggFunc::Min,
            encode: |a| match a {
                Annotation::Level(l) => Some(Value::Int(*l as i64)),
                _ => None,
            },
            decode: |v| {
                Some(Annotation::Level(match v.as_int()? {
                    0 => SecurityLevel::Public,
                    1 => SecurityLevel::Confidential,
                    2 => SecurityLevel::Secret,
                    _ => SecurityLevel::TopSecret,
                }))
            },
            safe: always_safe,
        }),
        // ⊕ = + over derivation counts.
        SemiringKind::Counting => Some(Encoding {
            agg: AggFunc::Sum,
            encode: |a| match a {
                Annotation::Count(c) => Some(Value::Int(*c as i64)),
                _ => None,
            },
            decode: |v| Some(Annotation::Count(v.as_int()?.max(0) as u64)),
            // The operator sums counts with i64 arithmetic; keep per-value
            // magnitude small enough (< 2^32) that no realistic row count
            // (< 2^31 per level) can wrap the i64 sum.
            safe: |a| matches!(a, Annotation::Count(c) if *c <= u32::MAX as u64),
        }),
        SemiringKind::Lineage | SemiringKind::Probability | SemiringKind::Polynomial => None,
    }
}

/// Evaluate annotations for every tuple of `region`, computing each
/// level's semiring sums via the batch grouped-aggregation operator.
///
/// Returns `Ok(None)` when this strategy does not apply (cyclic region, or
/// a semiring without a scalar aggregate encoding); callers fall back to
/// [`proql_semiring::evaluate_region`]. When it applies, results are
/// identical to the direct walk — asserted by property tests. `par` is
/// forwarded to the grouped-aggregation operator, whose morsel-parallel
/// path is itself bit-identical to its serial path.
pub fn evaluate_via_aggregation<'r>(
    graph: &ProvGraph,
    region: &'r Region,
    kind: SemiringKind,
    leaf: &dyn Fn(&TupleNode, &str) -> Annotation,
    map_fn: &dyn Fn(&str) -> MapFn,
    par: Parallelism,
) -> Result<Option<Evaluation<'r>>> {
    let Some(enc) = encoding_for(kind) else {
        return Ok(None);
    };
    if region.is_cyclic() {
        return Ok(None);
    }

    let by_level = level_order(graph, region);

    let checked_leaf = |tn: &TupleNode| -> Result<Annotation> {
        let v = leaf(tn, &leaf_label(tn));
        kind.check_value(&v)?;
        Ok(v)
    };
    let slot = |t: TupleId| region.slot(t).expect("region tuple");

    let mut vals: Vec<Option<Annotation>> = vec![None; region.len()];
    for tuples in &by_level {
        // One (target slot, derivation value) row per alternative
        // derivation of this level's tuples; the grouped aggregation
        // computes every ⊕ of the level in one operator call.
        let mut targets: Vec<i64> = Vec::new();
        let mut deriv_vals: Vec<Value> = Vec::new();
        for &t in tuples {
            let derivs = graph.derivations_of(t);
            if derivs.is_empty() {
                // Dangling leaf of the projected subgraph.
                vals[slot(t)] = Some(checked_leaf(graph.tuple(t))?);
                continue;
            }
            for &d in derivs {
                let node = graph.derivation(d);
                let inner = if node.is_base {
                    let target = node
                        .targets
                        .first()
                        .ok_or_else(|| Error::Semiring("base derivation without target".into()))?;
                    checked_leaf(graph.tuple(*target))?
                } else {
                    let mut acc = kind.one();
                    for &s in &node.sources {
                        acc = match region.slot(s).and_then(|i| vals[i].as_ref()) {
                            Some(sv) => kind.times(&acc, sv)?,
                            None => kind.times(&acc, &kind.zero())?,
                        };
                    }
                    acc
                };
                let mapped = map_fn(&node.mapping).apply(kind, &inner)?;
                if !(enc.safe)(&mapped) {
                    // Value too large for the operator's fixed-width sum:
                    // let the direct walk (checked arithmetic) handle it.
                    return Ok(None);
                }
                let encoded = (enc.encode)(&mapped).ok_or_else(|| {
                    Error::Semiring(format!(
                        "annotation {mapped:?} has no scalar encoding in {kind}"
                    ))
                })?;
                targets.push(slot(t) as i64);
                deriv_vals.push(encoded);
            }
        }
        if targets.is_empty() {
            continue;
        }
        let rows = targets.len();
        let batch = RecordBatch::new(
            vec!["t".into(), "v".into()],
            vec![Column::Int(targets), Column::from_value_vec(deriv_vals)],
            rows,
        );
        let summed = batch_aggregate_opts(
            &batch,
            &[0],
            &[Aggregate::new((enc.agg)(1), "sum")],
            None,
            par,
        )?;
        for row in 0..summed.len() {
            let t = summed.columns[0]
                .value(row)
                .as_int()
                .expect("group key is the tuple's slot") as usize;
            let v = summed.columns[1].value(row);
            let ann = (enc.decode)(&v)
                .ok_or_else(|| Error::Semiring(format!("cannot decode aggregate {v} in {kind}")))?;
            vals[t] = Some(ann);
        }
    }
    Ok(Some(Evaluation::from_values(region, vals)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql_provgraph::system::example_2_1;
    use proql_semiring::{evaluate, Assignment};

    /// Acyclic projection of the running example (base + m4 + m5).
    fn acyclic_graph() -> ProvGraph {
        let g = ProvGraph::from_system(&example_2_1().unwrap()).unwrap();
        let derivs: Vec<_> = g
            .derivation_ids()
            .filter(|&d| {
                let n = g.derivation(d);
                n.is_base || n.mapping == "m4" || n.mapping == "m5"
            })
            .collect();
        g.project(derivs)
    }

    fn assert_matches_direct_walk(
        g: &ProvGraph,
        kind: SemiringKind,
        leaf: impl Fn(&TupleNode, &str) -> Annotation + Clone + Send + Sync + 'static,
        map_fn: impl Fn(&str) -> MapFn + Clone + Send + Sync + 'static,
    ) {
        let region = Region::all(g);
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let via_agg =
                evaluate_via_aggregation(g, &region, kind, &leaf.clone(), &map_fn.clone(), par)
                    .unwrap()
                    .expect("aggregation path applies")
                    .into_map();
            let assign = Assignment::default_for(kind)
                .with_leaf(leaf.clone())
                .with_map_fn(map_fn.clone());
            let direct = evaluate(g, &assign).unwrap();
            assert_eq!(via_agg.len(), direct.len(), "{kind}");
            for (t, v) in &direct {
                assert_eq!(
                    via_agg.get(t),
                    Some(v),
                    "{kind} ({par:?}): {}",
                    leaf_label(g.tuple(*t))
                );
            }
        }
    }

    #[test]
    fn aggregation_matches_walk_for_all_scalar_semirings() {
        let g = acyclic_graph();
        for kind in [
            SemiringKind::Derivability,
            SemiringKind::Trust,
            SemiringKind::Weight,
            SemiringKind::Confidentiality,
            SemiringKind::Counting,
        ] {
            let leaf = move |_: &TupleNode, label: &str| kind.default_leaf(label);
            assert_matches_direct_walk(&g, kind, leaf, |_| MapFn::Identity);
        }
    }

    #[test]
    fn aggregation_respects_leaf_and_mapping_assignments() {
        let g = acyclic_graph();
        // Trust: distrust long A tuples and mapping m4 (paper Q7 shape).
        let leaf = |node: &TupleNode, _: &str| {
            if node.relation == "A" {
                let len = node
                    .values
                    .as_ref()
                    .and_then(|v| v.get(2).as_int())
                    .unwrap_or(0);
                Annotation::Bool(len < 6)
            } else {
                Annotation::Bool(true)
            }
        };
        let map_fn = |m: &str| {
            if m == "m4" {
                MapFn::zero(SemiringKind::Trust)
            } else {
                MapFn::Identity
            }
        };
        assert_matches_direct_walk(&g, SemiringKind::Trust, leaf, map_fn);
        // Weight: leaves cost 10/1, m5 adds 2.
        let leaf = |node: &TupleNode, _: &str| {
            Annotation::Weight(if node.relation == "A" { 10.0 } else { 1.0 })
        };
        let map_fn = |m: &str| {
            if m == "m5" {
                MapFn::TimesConst(Annotation::Weight(2.0))
            } else {
                MapFn::Identity
            }
        };
        assert_matches_direct_walk(&g, SemiringKind::Weight, leaf, map_fn);
    }

    #[test]
    fn aggregation_over_a_backward_region_matches_the_walk() {
        let g = acyclic_graph();
        let ocn2 = g.find_tuple("O", &proql_common::tup!["cn2"]).unwrap();
        let region = Region::backward_from(&g, [ocn2]);
        assert!(region.tuples().len() < g.tuple_count());
        for kind in [SemiringKind::Counting, SemiringKind::Weight] {
            let leaf = move |_: &TupleNode, label: &str| kind.default_leaf(label);
            let map_fn = |_: &str| MapFn::Identity;
            let assign = Assignment::default_for(kind);
            let walked =
                proql_semiring::evaluate_region(&g, &region, &assign, Parallelism::Serial).unwrap();
            let via_agg =
                evaluate_via_aggregation(&g, &region, kind, &leaf, &map_fn, Parallelism::Serial)
                    .unwrap()
                    .expect("aggregation path applies");
            for &t in region.tuples() {
                assert_eq!(via_agg.get(t), walked.get(t), "{kind}");
            }
            assert_eq!(
                via_agg.get(ocn2),
                evaluate(&g, &assign).unwrap().get(&ocn2).cloned()
            );
        }
    }

    #[test]
    fn cyclic_graphs_are_declined() {
        let g = ProvGraph::from_system(&example_2_1().unwrap()).unwrap();
        assert!(g.is_cyclic());
        let leaf = |_: &TupleNode, l: &str| SemiringKind::Derivability.default_leaf(l);
        let region = Region::all(&g);
        let out = evaluate_via_aggregation(
            &g,
            &region,
            SemiringKind::Derivability,
            &leaf,
            &|_| MapFn::Identity,
            Parallelism::Serial,
        )
        .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn set_semirings_are_declined() {
        let g = acyclic_graph();
        let leaf = |_: &TupleNode, l: &str| SemiringKind::Lineage.default_leaf(l);
        let region = Region::all(&g);
        let out = evaluate_via_aggregation(
            &g,
            &region,
            SemiringKind::Lineage,
            &leaf,
            &|_| MapFn::Identity,
            Parallelism::Serial,
        )
        .unwrap();
        assert!(out.is_none());
    }
}
