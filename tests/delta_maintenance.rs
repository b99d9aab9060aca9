//! PRNG property suite for delta-maintained provenance graphs.
//!
//! Replays random mutation interleavings — local inserts, (incremental)
//! exchanges, CDSS deletes through both the plain and the cached-graph
//! path, and out-of-band direct-db writes with a bare version bump — and
//! asserts after **every** mutation that the engine's delta-patched graph
//! is digest-identical to a from-scratch `ProvGraph::from_system` rebuild.
//! The whole replay sweeps ExecMode × Parallelism, replaying query
//! results against a fresh engine at matching configuration.

use proql::engine::{Engine, EngineOptions, Strategy};
use proql_cdss::update::{delete_local, delete_local_with_graph};
use proql_common::rng::SplitMix64;
use proql_common::{tup, Parallelism, Schema, Tuple, Value, ValueType};
use proql_provgraph::{ProvGraph, ProvenanceSystem};
use proql_service::result_digest;
use proql_storage::ExecMode;

/// Two mapping families over five relations:
///
/// * acyclic: `X → Y` (superfluous) and `X ⋈ Y → Z` (materialized `P_mz`),
/// * cyclic:  `U → V ↔ W` (the V/W loop exercises fixpoint evaluation and
///   makes `Strategy::Auto` resolve to the graph walk).
fn build_system() -> ProvenanceSystem {
    let mut sys = ProvenanceSystem::new();
    for name in ["X", "Y", "U", "V", "W"] {
        sys.add_relation_with_local(
            Schema::build(name, &[("id", ValueType::Int), ("w", ValueType::Int)], &[0]).unwrap(),
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
    sys.add_mapping_text("mv: V(i, w) :- U(i, w)").unwrap();
    sys.add_mapping_text("mw: W(i, w) :- V(i, w)").unwrap();
    sys.add_mapping_text("mv2: V(i, w) :- W(i, w)").unwrap();
    for i in 0..4i64 {
        sys.insert_local("X", tup![i, i * 10]).unwrap();
        sys.insert_local("U", tup![i, i * 10]).unwrap();
    }
    sys.run_exchange().unwrap();
    sys
}

const QUERIES: [&str; 3] = [
    "FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
    "FOR [V $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
    "EVALUATE DERIVABILITY OF { FOR [W $x] INCLUDE PATH [$x] <-+ [] RETURN $x }",
];

fn assert_graph_matches_rebuild(engine: &Engine, step: &str) {
    let patched = engine.graph().expect("graph maintains");
    let rebuilt = ProvGraph::from_system(&engine.sys).expect("rebuild");
    assert_eq!(
        patched.digest(),
        rebuilt.digest(),
        "delta-maintained graph diverged from rebuild after {step}"
    );
    assert_eq!(patched.tuple_count(), rebuilt.tuple_count(), "after {step}");
    assert_eq!(
        patched.derivation_count(),
        rebuilt.derivation_count(),
        "after {step}"
    );
}

fn assert_queries_match_fresh(engine: &Engine, step: &str) {
    let fresh = Engine::with_options(engine.sys.clone(), engine.options.clone());
    fresh.invalidate_cache();
    for q in QUERIES {
        let a = engine.query(q).expect("delta-engine query");
        let b = fresh.query(q).expect("fresh-engine query");
        assert_eq!(
            result_digest(&a),
            result_digest(&b),
            "query {q} diverged after {step}"
        );
    }
}

fn replay(seed: u64, exec_mode: ExecMode, parallelism: Parallelism) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut engine = Engine::with_options(
        build_system(),
        EngineOptions {
            strategy: Strategy::Auto, // cyclic schema graph → graph walk
            exec_mode,
            parallelism,
            ..EngineOptions::default()
        },
    );
    // Live local keys per insertable relation, for delete targeting.
    let rels = ["X", "U", "V"];
    let mut live: Vec<Vec<i64>> = vec![vec![0, 1, 2, 3], vec![0, 1, 2, 3], vec![]];
    let mut next_key = 100i64;
    let mut pending_exchange = false;

    for step in 0..40 {
        let op = rng.gen_range_usize(0, 10);
        let label;
        match op {
            // Insert a fresh local row (60% weight keeps the graph growing),
            // usually exchanging right away, sometimes leaving it pending.
            0..=5 => {
                let r = rng.gen_range_usize(0, rels.len());
                let k = next_key;
                next_key += 1;
                engine
                    .sys
                    .insert_local(rels[r], tup![k, k * 7])
                    .expect("insert");
                live[r].push(k);
                if rng.gen_range_usize(0, 4) > 0 {
                    engine.sys.run_exchange().expect("exchange");
                    pending_exchange = false;
                    label = format!("step {step}: insert {}+exchange", rels[r]);
                } else {
                    pending_exchange = true;
                    label = format!("step {step}: insert {} (pending)", rels[r]);
                }
            }
            // Exchange whatever is pending (possibly a no-op).
            6 => {
                engine.sys.run_exchange().expect("exchange");
                pending_exchange = false;
                label = format!("step {step}: exchange");
            }
            // CDSS delete via the plain path or the cached-graph path.
            7 | 8 => {
                let r = rng.gen_range_usize(0, rels.len());
                if live[r].is_empty() {
                    continue;
                }
                let at = rng.gen_range_usize(0, live[r].len());
                let k = live[r].swap_remove(at);
                if op == 7 {
                    delete_local(&mut engine.sys, rels[r], &tup![k]).expect("delete");
                    label = format!("step {step}: delete {}({k})", rels[r]);
                } else {
                    let graph = engine.graph().expect("pre-delete graph");
                    delete_local_with_graph(&mut engine.sys, rels[r], &tup![k], &graph)
                        .expect("delete with graph");
                    label = format!("step {step}: cached-graph delete {}({k})", rels[r]);
                }
                pending_exchange = false;
            }
            // Out-of-band write: direct db mutation + bare version bump
            // breaks the delta chain; the engine must fall back to a full
            // rebuild and still agree.
            _ => {
                let k = next_key;
                next_key += 1;
                engine
                    .sys
                    .db
                    .insert("Y", Tuple::new(vec![Value::Int(k), Value::Int(k)]))
                    .expect("direct insert");
                engine.sys.bump_version();
                label = format!("step {step}: direct-db insert + bump");
            }
        }
        assert_graph_matches_rebuild(&engine, &label);
        if step % 8 == 7 {
            assert_queries_match_fresh(&engine, &label);
        }
    }
    let _ = pending_exchange;
    assert!(
        engine.graph_patch_count() > 0,
        "the replay must actually exercise delta patching \
         (patches={}, builds={})",
        engine.graph_patch_count(),
        engine.graph_build_count()
    );
}

/// Chain-break property test for incremental view maintenance: replay a
/// random interleaving of maintainable writes (insert+exchange, CDSS
/// deletes) and chain-breaking ones (out-of-band db write + bare
/// `bump_version`, schema additions), carrying a set of maintained query
/// outputs across every step. Maintainable steps must patch
/// ([`proql::MaintainResult::Maintained`]) and chain-breaking steps must
/// fall back — and in **both** cases the answer served afterwards must be
/// digest-equal to a fresh serial [`Engine`] evaluation of the new state.
#[test]
fn maintained_outputs_survive_chain_breaks_via_fallback() {
    use proql::engine::{EngineOptions, PreparedQuery, QueryOutput};
    use proql::{maintain_output, MaintainResult, MaintainState};

    // Only the acyclic X/Y/Z family: force the unfold strategy so the
    // outputs are maintainable at all. Every scalar semiring, with leaf
    // CASEs on a stored attribute (so refreshed tuple values matter) and a
    // scaling mapping function.
    const MAINT_QUERIES: [&str; 6] = [
        "FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
        "EVALUATE WEIGHT OF { FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x } \
         ASSIGNING EACH leaf_node $y { DEFAULT : SET 1 }",
        "EVALUATE DERIVABILITY OF { FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x }",
        "EVALUATE TRUST OF { FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x } \
         ASSIGNING EACH leaf_node $y { CASE $y in X AND $y.w >= 1500 : SET false \
         DEFAULT : SET true }",
        "EVALUATE CONFIDENTIALITY OF { FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x } \
         ASSIGNING EACH leaf_node $y { CASE $y in Y AND $y.w >= 1500 : SET secret \
         DEFAULT : SET public }",
        "EVALUATE COUNT OF { FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x } \
         ASSIGNING EACH mapping $p($z) { CASE $p = mz : SET $z * 2 DEFAULT : SET $z }",
    ];
    let opts = EngineOptions {
        strategy: Strategy::Unfold,
        ..EngineOptions::default()
    };
    let mut engine = Engine::with_options(build_system(), opts.clone());
    let mut entries: Vec<(PreparedQuery, QueryOutput, Option<Box<MaintainState>>)> = MAINT_QUERIES
        .iter()
        .map(|q| {
            let prepared = engine.prepare(q).expect("prepare");
            let output = engine.execute(&prepared).expect("execute");
            (prepared, output, None)
        })
        .collect();

    let mut rng = SplitMix64::seed_from_u64(0xBADC0DE);
    let mut live: Vec<i64> = vec![0, 1, 2, 3];
    let mut dead: Vec<i64> = Vec::new();
    let mut next_key = 200i64;
    let mut schema_seq = 0usize;
    let (mut maintained_steps, mut fallback_steps) = (0u32, 0u32);

    for step in 0..30 {
        let old = engine;
        let mut sys = old.sys.clone();
        let op = rng.gen_range_usize(0, 8);
        let breaks_chain = op >= 6;
        match op {
            // Maintainable: CDSS delete (insert instead if nothing lives).
            4 | 5 if !live.is_empty() => {
                let at = rng.gen_range_usize(0, live.len());
                let k = live.swap_remove(at);
                delete_local(&mut sys, "X", &tup![k]).expect("delete");
                dead.push(k);
            }
            // Maintainable: insert + incremental exchange — sometimes of a
            // deleted key with a different attribute value.
            0..=5 => {
                let (k, w) = match dead.pop() {
                    Some(k) if op == 3 => (k, 1500 + step as i64),
                    other => {
                        dead.extend(other);
                        next_key += 1;
                        (next_key - 1, (next_key - 1) * 7)
                    }
                };
                sys.insert_local("X", tup![k, w]).expect("insert");
                sys.run_exchange().expect("exchange");
                live.push(k);
            }
            // Chain break: out-of-band db write + bare version bump.
            6 => {
                let k = next_key;
                next_key += 1;
                sys.db
                    .insert("Y", Tuple::new(vec![Value::Int(k), Value::Int(k)]))
                    .expect("direct insert");
                sys.bump_version();
            }
            // Chain break: schema change (a new relation) + bump.
            _ => {
                schema_seq += 1;
                sys.add_relation(
                    Schema::build(&format!("S{schema_seq}"), &[("id", ValueType::Int)], &[0])
                        .unwrap(),
                )
                .expect("add relation");
                sys.bump_version();
            }
        }
        let new = Engine::with_options(sys, opts.clone());
        for (prepared, output, state) in &mut entries {
            let outcome = maintain_output(&old, &new, prepared, output, state.take())
                .expect("maintain never errors here");
            match outcome {
                MaintainResult::Maintained {
                    output: patched,
                    state: next_state,
                    ..
                } => {
                    assert!(
                        !breaks_chain,
                        "step {step}: a chain-breaking write must not be maintained"
                    );
                    *output = *patched;
                    *state = next_state;
                    maintained_steps += 1;
                }
                MaintainResult::Fallback(reason) => {
                    assert!(
                        breaks_chain,
                        "step {step}: localizable write unexpectedly fell back ({reason})"
                    );
                    assert_eq!(reason, "delta chain unavailable", "step {step}");
                    // Post-fallback the caller recomputes: do the same.
                    *output = new.execute(prepared).expect("recompute");
                    *state = None;
                    fallback_steps += 1;
                }
            }
            // Maintained or recomputed, the served answer must equal a
            // fresh serial evaluation of the new state.
            let fresh = Engine::with_options(new.sys.clone(), opts.clone());
            assert_eq!(
                result_digest(output),
                result_digest(&fresh.execute(prepared).expect("fresh")),
                "step {step}: served answer diverged from fresh evaluation"
            );
        }
        engine = new;
    }
    assert!(
        maintained_steps > 0 && fallback_steps > 0,
        "the replay must exercise both paths (maintained={maintained_steps}, \
         fallbacks={fallback_steps})"
    );
}

/// The cyclic U → V ↔ W family under a forced unfold strategy: its
/// projections decode to cyclic graphs. An idempotent semiring (TRUST)
/// reaches its fixpoint on the carried graph and is maintained; COUNT,
/// which diverges on cycles, errors exactly as a fresh compute does.
#[test]
fn cyclic_annotations_are_maintained_or_error_like_a_fresh_compute() {
    use proql::engine::{EngineOptions, Strategy};
    use proql::{maintain_output, MaintainResult};

    const TRUST_Q: &str = "EVALUATE TRUST OF { FOR [V $x] INCLUDE PATH [$x] <-+ [] RETURN $x } \
         ASSIGNING EACH leaf_node $y { CASE $y in U AND $y.w >= 710 : SET false \
         DEFAULT : SET true }";
    const COUNT_Q: &str = "EVALUATE COUNT OF { FOR [V $x] INCLUDE PATH [$x] <-+ [] RETURN $x }";
    let opts = EngineOptions {
        strategy: Strategy::Unfold,
        ..EngineOptions::default()
    };
    // Prepare while U has local rows (unfolding only reads local
    // contributions that exist), then delete them all: every V projection
    // is empty, so COUNT has a cached answer to maintain at all.
    let base = Engine::with_options(build_system(), opts.clone());
    let trust = base.prepare(TRUST_Q).expect("prepare");
    let count = base.prepare(COUNT_Q).expect("prepare");
    let mut sys = base.sys.clone();
    for k in 0..4i64 {
        delete_local(&mut sys, "U", &tup![k]).expect("delete");
    }
    let mut engine = Engine::with_options(sys, opts.clone());
    let mut trust_out = engine.execute(&trust).expect("execute");
    let count_out = engine.execute(&count).expect("an empty projection counts");
    let mut state = None;

    for (step, k) in [100i64, 101, 102].into_iter().enumerate() {
        let mut sys = engine.sys.clone();
        sys.insert_local("U", tup![k, k * 7]).expect("insert");
        sys.run_exchange().expect("exchange");
        if step == 2 {
            delete_local(&mut sys, "U", &tup![100]).expect("delete");
        }
        let new = Engine::with_options(sys, opts.clone());
        let fresh = Engine::with_options(new.sys.clone(), opts.clone());
        match maintain_output(&engine, &new, &trust, &trust_out, state.take()) {
            Ok(MaintainResult::Maintained {
                output,
                state: next,
                ..
            }) => {
                let want = fresh.execute(&trust).expect("fresh TRUST");
                assert_eq!(result_digest(&output), result_digest(&want), "step {step}");
                assert!(output
                    .annotated
                    .as_ref()
                    .is_some_and(|a| !a.rows.is_empty()));
                (trust_out, state) = (*output, next);
            }
            other => panic!("step {step}: TRUST must be maintained, got {other:?}"),
        }
        if step == 0 {
            let maintained = maintain_output(&engine, &new, &count, &count_out, None)
                .expect_err("COUNT diverges on the cycle");
            let fresh_err = fresh.execute(&count).expect_err("so does a fresh compute");
            assert_eq!(maintained.to_string(), fresh_err.to_string());
        }
        engine = new;
    }
}

#[test]
fn random_interleavings_batch_serial() {
    replay(0xA11CE, ExecMode::Batch, Parallelism::Serial);
}

#[test]
fn random_interleavings_batch_threads() {
    replay(0xB0B, ExecMode::Batch, Parallelism::Threads(2));
}

#[test]
fn random_interleavings_row_serial() {
    replay(0xC0FFEE, ExecMode::Row, Parallelism::Serial);
}

#[test]
fn random_interleavings_row_threads() {
    replay(0xD00D, ExecMode::Row, Parallelism::Threads(2));
}

#[test]
fn random_interleavings_nested_loop_serial() {
    replay(0xE66, ExecMode::NestedLoop, Parallelism::Serial);
}

#[test]
fn random_interleavings_nested_loop_threads() {
    replay(0xF00D, ExecMode::NestedLoop, Parallelism::Threads(2));
}
