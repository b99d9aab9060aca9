//! Executor-equivalence properties: the columnar batch pipeline, the row
//! hash-join executor, and the nested-loop ablation baseline must produce
//! identical query results on randomized provenance instances — and the
//! grouped-aggregation operator must compute semiring ⊕-sums (under input
//! permutations too, i.e. the ⊕ laws hold through it).

use proql::engine::{Engine, EngineOptions, Strategy};
use proql::translate::{translate, TranslateOptions};
use proql::{parse_query, run_projection_opts, run_projection_with};
use proql_cdss::topology::{build_system, target_query, CdssConfig, Topology};
use proql_common::rng::SplitMix64;
use proql_common::{Parallelism, Tuple, Value};
use proql_semiring::{Annotation, SemiringKind};
use proql_storage::plan::anon_schema;
use proql_storage::{execute_batch, AggFunc, Aggregate, Database, ExecMode, Plan};

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

/// ⊕-laws through the aggregation operator: an `Aggregate` plan's grouped
/// semiring sums are invariant under permutations of the input rows
/// (associativity + commutativity) and match a pairwise left fold.
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
            let (vals, anns): (Vec<Value>, Vec<Annotation>) = (0..n)
                .map(|_| match kind {
                    SemiringKind::Counting => {
                        let v = rng.gen_range_i64(0, 9);
                        (Value::Int(v), Annotation::Count(v as u64))
                    }
                    SemiringKind::Weight => {
                        let v = rng.gen_range_i64(0, 9) as f64;
                        (Value::Float(v), Annotation::Weight(v))
                    }
                    _ => {
                        let v = rng.gen_range_usize(0, 2) == 1;
                        (Value::Bool(v), Annotation::Bool(v))
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
                let plan = Plan::Aggregate {
                    input: Box::new(Plan::Values {
                        schema: anon_schema("v", &["g".into(), "v".into()]),
                        rows: perm
                            .iter()
                            .map(|&i| Tuple::new(vec![Value::Int(groups[i]), vals[i].clone()]))
                            .collect(),
                    }),
                    group_by: vec![0],
                    aggs: vec![Aggregate::new(agg(1), "s")],
                    having: None,
                };
                let out = execute_batch(&Database::new(), &plan).unwrap();
                let mut m: std::collections::BTreeMap<i64, Value> = Default::default();
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
                    Annotation::Count(c) => Value::Int(*c as i64),
                    Annotation::Weight(w) => Value::Float(*w),
                    Annotation::Bool(b) => Value::Bool(*b),
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
