//! Integration: the full CDSS pipeline — topology building, exchange,
//! querying with and without ASRs, and incremental deletion.

use proql::engine::{Engine, EngineOptions, QueryOutput, Strategy};
use proql_asr::{advise, AsrKind, AsrRegistry};
use proql_cdss::topology::{build_system, target_query, CdssConfig, Topology};
use proql_cdss::{delete_local, remains_derivable};
use proql_common::tup;
use std::sync::Arc;

#[test]
fn chain_pipeline_with_all_asr_kinds() {
    let sys = build_system(Topology::Chain, &CdssConfig::upstream_data(6, 2, 50)).unwrap();
    let mut plain = Engine::new(sys.clone());
    plain.options.strategy = Strategy::Unfold;
    let baseline = plain.query(target_query()).unwrap();
    assert_eq!(baseline.projection.bindings.len(), 50);

    for kind in [
        AsrKind::Complete,
        AsrKind::Subpath,
        AsrKind::Prefix,
        AsrKind::Suffix,
    ] {
        let mut sys2 = sys.clone();
        let mut reg = AsrRegistry::new();
        for def in advise(&sys2, "R0a", 3, kind) {
            reg.build(&mut sys2, def).unwrap();
        }
        let mut opts = EngineOptions {
            strategy: Strategy::Unfold,
            ..Default::default()
        };
        opts.rewriter = Some(Arc::new(reg));
        let e = Engine::with_options(sys2, opts);
        let out = e.query(target_query()).unwrap();
        assert_eq!(
            out.projection.bindings, baseline.projection.bindings,
            "{kind:?} changed the result"
        );
        assert!(
            out.stats.total_joins <= baseline.stats.total_joins,
            "{kind:?} did not reduce joins"
        );
    }
}

#[test]
fn branched_pipeline_annotations() {
    let sys = build_system(
        Topology::Branched,
        &CdssConfig::new(7, vec![3, 4, 5, 6], 20),
    )
    .unwrap();
    let mut e = Engine::new(sys);
    e.options.strategy = Strategy::Unfold;
    // Every target tuple has two derivation branches: count them.
    let out = e
        .query("EVALUATE COUNT OF { FOR [R0a $x] INCLUDE PATH [$x] <-+ [] RETURN $x }")
        .unwrap()
        .annotated
        .unwrap();
    for row in &out.rows {
        let n = row.annotation.as_count().unwrap();
        assert!(n >= 2, "tuple {} has {} derivations", row.key, n);
    }
}

#[test]
fn exchange_then_delete_then_requery() {
    let mut sys = build_system(Topology::Chain, &CdssConfig::new(4, vec![3], 10)).unwrap();
    assert!(remains_derivable(&sys, "R0a", &tup![3]).unwrap());
    delete_local(&mut sys, "R3a", &tup![3]).unwrap();
    assert!(!remains_derivable(&sys, "R0a", &tup![3]).unwrap());
    let mut e = Engine::new(sys);
    e.options.strategy = Strategy::Unfold;
    let out = e.query(target_query()).unwrap();
    assert_eq!(out.projection.bindings.len(), 9);
}

#[test]
fn unfold_and_graph_strategies_agree_on_acyclic_cdss() {
    let sys = build_system(Topology::Chain, &CdssConfig::upstream_data(5, 2, 25)).unwrap();
    let mut a = Engine::new(sys.clone());
    a.options.strategy = Strategy::Unfold;
    let mut b = Engine::new(sys);
    b.options.strategy = Strategy::Graph;
    let ra = a.query(target_query()).unwrap();
    let rb = b.query(target_query()).unwrap();
    assert_eq!(ra.projection.bindings, rb.projection.bindings);
    assert_eq!(ra.projection.derivations, rb.projection.derivations);
}

/// Annotation under `Strategy::Graph` — the region of the engine's own
/// graph the answer reads, token tags for the set-valued semirings —
/// digest-equals the unfold strategy, which decodes its derivation rows
/// and evaluates them: for every semiring, with and without `ASSIGNING`
/// ladders, down to row order, leaf probabilities and leaf `CASE` errors.
#[test]
fn graph_and_unfold_annotations_agree_for_every_semiring() {
    use proql_service::proto::result_digest;

    let sys = build_system(
        Topology::Branched,
        &CdssConfig::new(7, vec![3, 4, 5, 6], 12),
    )
    .unwrap();
    let engine = |strategy| {
        let mut e = Engine::new(sys.clone());
        e.options.strategy = strategy;
        e
    };
    let (unfold, graph) = (engine(Strategy::Unfold), engine(Strategy::Graph));
    let body = "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k >= 2 AND $x.k < 9 RETURN $x";
    let trust = "ASSIGNING EACH leaf_node $y {
                   CASE $y in R3a AND $y.a0 >= 500000000 : SET false
                   DEFAULT : SET true
                 } ASSIGNING EACH mapping $p($z) { CASE $p = m2 : SET false DEFAULT : SET $z }";
    let ladders = [
        ("DERIVABILITY", trust),
        ("TRUST", trust),
        (
            "CONFIDENTIALITY",
            "ASSIGNING EACH leaf_node $y { CASE $y in R4b : SET secret DEFAULT : SET public }
             ASSIGNING EACH mapping $p($z) { CASE $p = m1 : SET confidential DEFAULT : SET $z }",
        ),
        (
            "WEIGHT",
            "ASSIGNING EACH leaf_node $y { CASE $y in R5a : SET 10 DEFAULT : SET 1 }
             ASSIGNING EACH mapping $p($z) { CASE $p = m2 : SET $z + 3 DEFAULT : SET $z }",
        ),
        (
            "COUNT",
            "ASSIGNING EACH leaf_node $y { CASE $y in R6a : SET 2 DEFAULT : SET 1 }
             ASSIGNING EACH mapping $p($z) { CASE $p = m1 : SET $z * 2 DEFAULT : SET $z }",
        ),
        (
            "LINEAGE",
            "ASSIGNING EACH leaf_node $y { CASE $y in R3b : SET null }
             ASSIGNING EACH mapping $p($z) { CASE $p = m6 : SET false DEFAULT : SET $z }",
        ),
        (
            "PROBABILITY",
            "ASSIGNING EACH leaf_node $y { CASE $y in R3a : SET 0.9 DEFAULT : SET 0.5 }
             ASSIGNING EACH mapping $p($z) { CASE $p = m6 : SET false DEFAULT : SET $z }",
        ),
        (
            "POLYNOMIAL",
            "ASSIGNING EACH leaf_node $y { CASE $y in R5b : SET null }
             ASSIGNING EACH mapping $p($z) { CASE $p = m4 : SET false DEFAULT : SET $z }",
        ),
    ];
    let mut answered = 0;
    for (kind, ladder) in ladders {
        for text in [
            format!("EVALUATE {kind} OF {{ {body} }}"),
            format!("EVALUATE {kind} OF {{ {body} }} {ladder}"),
        ] {
            match (unfold.query(&text), graph.query(&text)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(result_digest(&a), result_digest(&b), "{text}");
                    let (a, b) = (a.annotated.unwrap(), b.annotated.unwrap());
                    assert_eq!(a.rows.len(), 7, "{text}");
                    assert_eq!(a.rows, b.rows, "{text}");
                    assert_eq!(a.leaf_probs, b.leaf_probs, "{text}");
                    if text.contains("SET 0.9") {
                        assert!(!a.leaf_probs.is_empty());
                    }
                    answered += 1;
                }
                (a, b) => panic!("{text}: unfold {:?} vs graph {:?}", a.err(), b.err()),
            }
        }
    }
    assert_eq!(answered, 16);
    // A ladder that fails on some leaf fails identically.
    let bad = format!(
        "EVALUATE WEIGHT OF {{ {body} }} ASSIGNING EACH leaf_node $y {{
           CASE $y in R6b : SET true DEFAULT : SET 1 }}"
    );
    let (a, b) = (unfold.query(&bad), graph.query(&bad));
    assert_eq!(a.unwrap_err().to_string(), b.unwrap_err().to_string());
}

/// The selection of the paper's target query reaches every scan — through
/// the inner joins (mirrored over the shared key) and through the `P_L_*`
/// views — and moving it changes nothing a client can observe: the
/// answer, its digest and the read set equal a run of the same rules
/// optimized without `PushFilters`.
#[test]
fn target_query_selection_is_pushed_to_the_scans_and_changes_nothing() {
    use proql::{parse_query, prepare_rule_with, run_projection_prepared, translate};
    use proql_common::Parallelism;
    use proql_service::proto::result_digest;
    use proql_storage::{ExecMode, OptimizerConfig, Pass};

    let sys = build_system(Topology::Chain, &CdssConfig::upstream_data(4, 2, 60)).unwrap();
    let mut e = Engine::new(sys);
    e.options.strategy = Strategy::Unfold;
    let text = "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k >= 11 AND $x.k < 19 RETURN $x";

    let explain = e.query(&format!("EXPLAIN {text}")).unwrap().plan.unwrap();
    let lines: Vec<&str> = explain.lines().collect();
    let (mut scans, mut rules) = (0, 0);
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with("rule ") {
            rules += 1;
            // The rule's root is a join, not the filter it was compiled under.
            assert!(lines[i + 1].starts_with("InnerJoin"), "{explain}");
        }
        let op = line.trim_start();
        if op.starts_with("Scan ") {
            scans += 1;
            assert!(
                !op.starts_with("Scan P_L_"),
                "view left unexpanded:\n{explain}"
            );
            let above = lines[i - 1].trim_start();
            assert!(
                above.starts_with("Filter ((c0 >= 11) AND (c0 < 19))"),
                "scan without the range directly above it:\n{explain}"
            );
        }
    }
    assert!(rules >= 4 && scans >= 6 * rules, "{explain}");

    let served = e.query(text).unwrap();
    assert_eq!(served.projection.bindings.len(), 8);
    // The read set still names the views the plans no longer scan: a
    // write to `R2a_l` must invalidate this answer through `P_L_R2a` too.
    for rel in ["P_L_R2a", "R2a_l", "P_m1", "R0a"] {
        assert!(served.touched.contains(rel), "{:?}", served.touched);
    }

    let translation = translate(
        &e.sys,
        &parse_query(text).unwrap(),
        None,
        &Default::default(),
    )
    .unwrap();
    let unpushed: Vec<_> = translation
        .rules
        .iter()
        .map(|r| prepare_rule_with(&e.sys, r, &OptimizerConfig::without(Pass::PushFilters)))
        .collect::<Result<_, _>>()
        .unwrap();
    assert!(unpushed
        .iter()
        .all(|r| matches!(r.plan, proql_storage::Plan::Filter { .. })));
    let projection = run_projection_prepared(
        &e.sys,
        &translation,
        &unpushed,
        ExecMode::Batch,
        Parallelism::Serial,
    )
    .unwrap();
    assert_eq!(projection.bindings, served.projection.bindings);
    assert_eq!(projection.derivations, served.projection.derivations);
    let oracle = QueryOutput {
        projection,
        annotated: None,
        stats: served.stats.clone(),
        touched: e.prepare(text).unwrap().touched,
        plan: None,
    };
    assert_eq!(oracle.touched, served.touched);
    assert_eq!(result_digest(&oracle), result_digest(&served));
}
