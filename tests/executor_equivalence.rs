//! Executor-equivalence properties: the columnar batch pipeline, the row
//! hash-join executor, and the nested-loop ablation baseline must produce
//! identical query results on randomized provenance instances — and the
//! grouped-aggregation annotation path must agree with the direct semiring
//! graph walk (including under input permutations, i.e. the ⊕ laws hold
//! through the aggregation operator).

use proql::agg_eval::evaluate_via_aggregation;
use proql::engine::{Engine, EngineOptions, Strategy};
use proql::translate::{translate, TranslateOptions};
use proql::{parse_query, run_projection_opts, run_projection_with};
use proql_cdss::topology::{build_system, target_query, CdssConfig, Topology};
use proql_common::rng::SplitMix64;
use proql_common::{tup, Parallelism};
use proql_provgraph::{ProvGraph, TupleNode};
use proql_semiring::{evaluate, Annotation, Assignment, MapFn, Region, SemiringKind};
use proql_storage::batch::{Column, RecordBatch};
use proql_storage::batch_exec::batch_aggregate;
use proql_storage::{AggFunc, Aggregate, ExecMode};

/// The parallelism settings every sweep covers: serial, under-subscribed,
/// over-subscribed, and hardware-sized.
const PAR_SWEEP: [Parallelism; 4] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
    Parallelism::Auto,
];

/// Random CDSS instances: all three executors — under every parallelism
/// setting — agree on the projection result (derivations, bindings, and
/// row counts).
#[test]
fn executors_agree_on_randomized_cdss_instances() {
    let mut rng = SplitMix64::seed_from_u64(0xE0E0);
    for case in 0..6 {
        let peers = rng.gen_range_usize(3, 6);
        let base = rng.gen_range_usize(5, 40);
        let (topo, cfg) = if rng.gen_range_usize(0, 2) == 0 {
            (Topology::Chain, CdssConfig::upstream_data(peers, 2, base))
        } else {
            (
                Topology::Branched,
                CdssConfig::new(peers.max(4), vec![peers.max(4) - 1, peers.max(4) - 2], base),
            )
        };
        let sys = build_system(topo, &cfg).unwrap();
        let q = parse_query(target_query()).unwrap();
        let t = translate(&sys, &q, None, &TranslateOptions::default()).unwrap();
        let batch = run_projection_with(&sys, &t, ExecMode::Batch).unwrap();
        let row = run_projection_with(&sys, &t, ExecMode::Row).unwrap();
        let nested = run_projection_with(&sys, &t, ExecMode::NestedLoop).unwrap();
        assert_eq!(
            batch.bindings, row.bindings,
            "case {case}: bindings (batch vs row)"
        );
        assert_eq!(
            batch.bindings, nested.bindings,
            "case {case}: bindings (batch vs nl)"
        );
        assert_eq!(
            batch.derivations, row.derivations,
            "case {case}: derivations (batch vs row)"
        );
        assert_eq!(
            batch.derivations, nested.derivations,
            "case {case}: derivations (batch vs nl)"
        );
        assert_eq!(
            batch.metrics.rows, row.metrics.rows,
            "case {case}: row counts"
        );
        // Parallel runs must be bit-identical to the serial batch run —
        // derivations, bindings, and metrics included.
        for par in PAR_SWEEP {
            for mode in [ExecMode::Batch, ExecMode::Row] {
                let p = run_projection_opts(&sys, &t, mode, par).unwrap();
                assert_eq!(
                    batch.bindings, p.bindings,
                    "case {case}: bindings under {par:?}/{mode:?}"
                );
                assert_eq!(
                    batch.derivations, p.derivations,
                    "case {case}: derivations under {par:?}/{mode:?}"
                );
                assert_eq!(
                    batch.metrics.rows, p.metrics.rows,
                    "case {case}: row counts under {par:?}/{mode:?}"
                );
            }
        }
    }
}

/// End-to-end through the engine: every exec mode and both strategies give
/// the same annotations on the paper's running example.
#[test]
fn engine_modes_agree_on_annotated_query() {
    let q = "EVALUATE TRUST OF {
               FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
             } ASSIGNING EACH leaf_node $y {
               CASE $y in A AND $y.len >= 6 : SET false
               DEFAULT : SET true
             } ASSIGNING EACH mapping $p($z) {
               CASE $p = m4 : SET false
               DEFAULT : SET $z
             }";
    let mut expected: Option<Vec<(String, proql_common::Tuple, Annotation)>> = None;
    for mode in [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop] {
        for par in PAR_SWEEP {
            let mut e = Engine::new(proql_provgraph::system::example_2_1().unwrap());
            e.options.strategy = Strategy::Unfold;
            e.options.exec_mode = mode;
            e.options.parallelism = par;
            let out = e.query(q).unwrap();
            let mut rows: Vec<_> = out
                .annotated
                .unwrap()
                .rows
                .into_iter()
                .map(|r| (r.relation, r.key, r.annotation))
                .collect();
            rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            match &expected {
                None => expected = Some(rows),
                Some(want) => assert_eq!(want, &rows, "mode {mode:?} par {par:?} diverged"),
            }
        }
    }
}

/// Random acyclic DAG whose shape exercises shared subtrees and multiple
/// alternative derivations.
fn random_dag(rng: &mut SplitMix64) -> ProvGraph {
    let mut g = ProvGraph::new();
    let mut prev: Vec<proql_common::TupleId> = (0..3)
        .map(|i| {
            let t = g.add_tuple("L0", tup![i as i64], None);
            g.add_derivation("base", tup![i as i64], vec![], vec![t], true);
            t
        })
        .collect();
    let mut key = 100i64;
    for layer in 1..rng.gen_range_usize(2, 5) {
        let mut nodes = Vec::new();
        for _ in 0..rng.gen_range_usize(2, 6) {
            let t = g.add_tuple(&format!("L{layer}"), tup![key], None);
            key += 1;
            for d in 0..rng.gen_range_usize(1, 3) {
                let nsrc = rng.gen_range_usize(1, prev.len() + 1);
                let start = rng.gen_range_usize(0, prev.len());
                let sources: Vec<_> = (0..nsrc).map(|s| prev[(start + s) % prev.len()]).collect();
                g.add_derivation(
                    &format!("m{layer}"),
                    tup![key, d as i64],
                    sources,
                    vec![t],
                    false,
                );
            }
            nodes.push(t);
        }
        prev = nodes;
    }
    g
}

/// The grouped-aggregation annotation path equals the direct graph walk on
/// random DAGs for every scalar-encodable semiring.
#[test]
fn aggregation_path_matches_graph_walk_on_random_dags() {
    let mut rng = SplitMix64::seed_from_u64(0xA66);
    for case in 0..12 {
        let g = random_dag(&mut rng);
        let weight_seed = rng.gen_range_i64(1, 9) as f64;
        for kind in [
            SemiringKind::Derivability,
            SemiringKind::Trust,
            SemiringKind::Weight,
            SemiringKind::Confidentiality,
            SemiringKind::Counting,
        ] {
            let leaf = move |node: &TupleNode, label: &str| match kind {
                SemiringKind::Weight => {
                    Annotation::Weight(weight_seed + node.key.get(0).as_int().unwrap_or(0) as f64)
                }
                _ => kind.default_leaf(label),
            };
            let map_fn = |_: &str| MapFn::Identity;
            let direct = evaluate(
                &g,
                &Assignment::default_for(kind)
                    .with_leaf(leaf)
                    .with_map_fn(map_fn),
            )
            .unwrap();
            let region = Region::all(&g);
            for par in PAR_SWEEP {
                let via_agg = evaluate_via_aggregation(&g, &region, kind, &leaf, &map_fn, par)
                    .unwrap()
                    .expect("acyclic scalar semiring")
                    .into_map();
                assert_eq!(via_agg.len(), direct.len());
                for (t, v) in &direct {
                    assert_eq!(via_agg.get(t), Some(v), "case {case}: {kind} ({par:?})");
                }
            }
        }
    }
}

/// ⊕-laws through the aggregation operator: grouped semiring sums are
/// invariant under permutations of the input rows (associativity +
/// commutativity) and match a pairwise left fold.
#[test]
fn aggregation_operator_respects_semiring_sum_laws() {
    let mut rng = SplitMix64::seed_from_u64(0x5E417);
    type AggCtor = fn(usize) -> AggFunc;
    let cases: [(SemiringKind, AggCtor); 3] = [
        (SemiringKind::Counting, AggFunc::Sum),
        (SemiringKind::Weight, AggFunc::Min),
        (SemiringKind::Derivability, AggFunc::BoolOr),
    ];
    for (kind, agg) in cases {
        for case in 0..8 {
            let n = rng.gen_range_usize(1, 30);
            let groups: Vec<i64> = (0..n).map(|_| rng.gen_range_i64(0, 4)).collect();
            let (vals, anns): (Vec<proql_common::Value>, Vec<Annotation>) = (0..n)
                .map(|_| match kind {
                    SemiringKind::Counting => {
                        let v = rng.gen_range_i64(0, 9);
                        (proql_common::Value::Int(v), Annotation::Count(v as u64))
                    }
                    SemiringKind::Weight => {
                        let v = rng.gen_range_i64(0, 9) as f64;
                        (proql_common::Value::Float(v), Annotation::Weight(v))
                    }
                    _ => {
                        let v = rng.gen_range_usize(0, 2) == 1;
                        (proql_common::Value::Bool(v), Annotation::Bool(v))
                    }
                })
                .unzip();
            // Pairwise ⊕-fold per group (reference semantics).
            let mut reference: std::collections::BTreeMap<i64, Annotation> = Default::default();
            for (g, a) in groups.iter().zip(&anns) {
                let acc = reference.entry(*g).or_insert_with(|| kind.zero());
                *acc = kind.plus(acc, a).unwrap();
            }
            // Aggregate the rows, then a random permutation of the rows.
            let run = |perm: &[usize]| {
                let batch = RecordBatch::new(
                    vec!["g".into(), "v".into()],
                    vec![
                        Column::Int(perm.iter().map(|&i| groups[i]).collect()),
                        Column::from_value_vec(perm.iter().map(|&i| vals[i].clone()).collect()),
                    ],
                    perm.len(),
                );
                let out =
                    batch_aggregate(&batch, &[0], &[Aggregate::new(agg(1), "s")], None).unwrap();
                let mut m: std::collections::BTreeMap<i64, proql_common::Value> =
                    Default::default();
                for row in 0..out.len() {
                    m.insert(
                        out.columns[0].value(row).as_int().unwrap(),
                        out.columns[1].value(row),
                    );
                }
                m
            };
            let id: Vec<usize> = (0..n).collect();
            let mut shuffled = id.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range_usize(0, i + 1));
            }
            let plain = run(&id);
            let permuted = run(&shuffled);
            assert_eq!(
                plain, permuted,
                "case {case}: {kind} not permutation-invariant"
            );
            // And the operator's sums equal the pairwise semiring fold.
            for (g, ann) in &reference {
                let got = &plain[g];
                let want = match ann {
                    Annotation::Count(c) => proql_common::Value::Int(*c as i64),
                    Annotation::Weight(w) => proql_common::Value::Float(*w),
                    Annotation::Bool(b) => proql_common::Value::Bool(*b),
                    other => panic!("unexpected annotation {other:?}"),
                };
                assert_eq!(got, &want, "case {case}: {kind} group {g}");
            }
        }
    }
}

/// The batch path and the legacy row path agree on ASR-rewritten queries
/// too (the rewriter changes rule bodies, not results).
#[test]
fn batch_executor_agrees_with_asr_rewriting() {
    use proql_asr::{advise, AsrKind, AsrRegistry};
    use std::sync::Arc;
    let sys = build_system(Topology::Chain, &CdssConfig::upstream_data(5, 2, 20)).unwrap();
    let mut baseline = Engine::new(sys.clone());
    baseline.options.strategy = Strategy::Unfold;
    let want = baseline.query(target_query()).unwrap();
    let mut sys2 = sys.clone();
    let mut reg = AsrRegistry::new();
    for def in advise(&sys2, "R0a", 3, AsrKind::Complete) {
        reg.build(&mut sys2, def).unwrap();
    }
    for mode in [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop] {
        let opts = EngineOptions {
            strategy: Strategy::Unfold,
            exec_mode: mode,
            rewriter: Some(Arc::new(reg.clone())),
            ..Default::default()
        };
        let e = Engine::with_options(sys2.clone(), opts);
        let out = e.query(target_query()).unwrap();
        assert_eq!(
            out.projection.bindings, want.projection.bindings,
            "mode {mode:?} with ASRs changed the result"
        );
    }
}
