//! End-to-end observability properties: span trees emitted by traced
//! query execution are well-formed across every executor × parallelism
//! combination on randomized instances, `EXPLAIN ANALYZE` actuals agree
//! exactly with digest-checked result sizes, and a pipelined binary
//! batch reconstructs as a single trace retrievable over the `TRACE`
//! wire verb, whose payload parses as JSON, and an `INSERT`'s trace
//! breaks its write path into the clone, maintenance, install and
//! fan-out steps. A query whose shape the plan cache holds binds its
//! literals without preparing, and `STATS` counts it.
//!
//! These tests only ever *enable* tracing (never disable it), so they
//! are safe under the parallel test harness: each asserts exclusively
//! on spans carrying its own trace id.

use proql::engine::{Engine, EngineOptions};
use proql::parse_query;
use proql_cdss::topology::{build_system, target_query, CdssConfig, Topology};
use proql_common::rng::SplitMix64;
use proql_common::{trace, Parallelism};
use proql_common::{tup, Schema, ValueType};
use proql_provgraph::ProvenanceSystem;
use proql_service::frame::verb;
use proql_service::proto::{json_str_field, json_u64_field, result_digest};
use proql_service::{serve, BinClient, ServiceCore};
use proql_storage::ExecMode;
use std::sync::Arc;

/// Every span in `spans` must form one sane forest: unique ids, no
/// dangling parents, and child intervals contained in their parents'.
fn assert_well_formed(spans: &[trace::SpanRecord], trace_id: u64) {
    assert!(!spans.is_empty(), "traced run must record spans");
    let mut ids = std::collections::HashSet::new();
    for s in spans {
        assert_eq!(s.trace_id, trace_id, "span {} leaked across traces", s.name);
        assert!(ids.insert(s.span_id), "duplicate span id {}", s.span_id);
        assert!(
            s.end_ns >= s.start_ns,
            "span {} ends before it starts",
            s.name
        );
    }
    for s in spans {
        if s.parent_id == 0 {
            continue;
        }
        let parent = spans
            .iter()
            .find(|p| p.span_id == s.parent_id)
            .unwrap_or_else(|| panic!("span {} has a dangling parent", s.name));
        assert!(
            s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns,
            "span {} [{}, {}] escapes its parent {} [{}, {}]",
            s.name,
            s.start_ns,
            s.end_ns,
            parent.name,
            parent.start_ns,
            parent.end_ns
        );
    }
}

/// Randomized CDSS instances swept across ExecMode × Parallelism: every
/// traced run yields a well-formed span tree under one root, and the
/// batch executor additionally records per-operator spans that survive
/// the morsel worker pool's context hand-off.
#[test]
fn span_trees_are_well_formed_across_executors_and_parallelism() {
    trace::set_enabled(true);
    let mut rng = SplitMix64::seed_from_u64(0x0B5E);
    const MODES: [ExecMode; 3] = [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop];
    const PARS: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Threads(4)];
    for _case in 0..3 {
        let peers = rng.gen_range_usize(3, 5);
        let base = rng.gen_range_usize(8, 30);
        let sys =
            build_system(Topology::Chain, &CdssConfig::upstream_data(peers, 2, base)).unwrap();
        for mode in MODES {
            for par in PARS {
                let engine = Engine::with_options(
                    sys.clone(),
                    EngineOptions {
                        exec_mode: mode,
                        parallelism: par,
                        ..EngineOptions::default()
                    },
                );
                let root = trace::span("test.case");
                let trace_id = root.trace_id().expect("tracing is enabled");
                let out = engine.query(target_query()).unwrap();
                assert!(!out.projection.bindings.is_empty());
                drop(root);
                let spans = trace::spans_for_trace(trace_id);
                assert_well_formed(&spans, trace_id);
                assert!(
                    spans.iter().any(|s| s.name == "execute"),
                    "engine must record an execute span ({mode:?}, {par:?})"
                );
                assert!(
                    spans.iter().any(|s| s.name == "rule"),
                    "unfold execution must record rule spans ({mode:?}, {par:?})"
                );
                if mode == ExecMode::Batch {
                    assert!(
                        spans.iter().any(|s| s.name.starts_with("op.")),
                        "batch execution must record operator spans ({par:?})"
                    );
                }
            }
        }
    }
}

/// `EXPLAIN ANALYZE` actuals agree exactly with the result sizes of a
/// plain run — which itself is digest-checked against a second plain
/// run, so the counts being compared are the counts being served.
#[test]
fn explain_analyze_actuals_match_digest_checked_result_sizes() {
    let sys = build_system(Topology::Chain, &CdssConfig::upstream_data(4, 2, 20)).unwrap();
    let engine = Engine::new(sys);
    let q = target_query();
    let a = engine.query(q).unwrap();
    let b = engine.query(q).unwrap();
    assert_eq!(
        result_digest(&a),
        result_digest(&b),
        "plain runs must agree"
    );

    let analyzed = engine.query(&format!("EXPLAIN ANALYZE {q}")).unwrap();
    let plan = analyzed.plan.expect("EXPLAIN ANALYZE renders a plan");
    // Per-operator annotations: estimates and actuals side by side.
    assert!(plan.contains("~"), "estimates missing: {plan}");
    assert!(plan.contains(" actual "), "actuals missing: {plan}");
    // The footer's totals must match the served result exactly.
    let footer = plan
        .lines()
        .find(|l| l.starts_with("actual: "))
        .unwrap_or_else(|| panic!("no actual totals footer: {plan}"));
    let nums: Vec<u64> = footer
        .split(|c: char| !c.is_ascii_digit())
        .filter(|t| !t.is_empty())
        .take(2)
        .map(|t| t.parse().unwrap())
        .collect();
    assert_eq!(
        nums[0],
        a.projection.bindings.len() as u64,
        "binding rows diverge: {footer}"
    );
    assert_eq!(
        nums[1],
        a.projection.derivation_count() as u64,
        "derivation rows diverge: {footer}"
    );
    // ANALYZE is still an EXPLAIN: it must not serve result rows.
    assert!(analyzed.projection.bindings.is_empty());

    // Parsing accepts the keyword only after EXPLAIN.
    assert!(
        parse_query(&format!("EXPLAIN ANALYZE {q}"))
            .unwrap()
            .analyze
    );
    assert!(!parse_query(&format!("EXPLAIN {q}")).unwrap().analyze);
    assert!(parse_query(&format!("ANALYZE {q}")).is_err());
}

/// A pipelined binary batch — executed out of order on the worker pool
/// and reordered by the reorder buffer — must reconstruct as one span
/// tree under the connection's trace, retrievable via the TRACE verb.
#[test]
fn pipelined_binary_batch_reconstructs_as_one_trace() {
    trace::set_enabled(true);
    let sys = build_system(Topology::Chain, &CdssConfig::upstream_data(3, 2, 12)).unwrap();
    let core = Arc::new(ServiceCore::new(sys, EngineOptions::default()));
    let server = serve(Arc::clone(&core), "127.0.0.1:0", 4).unwrap();

    const PIPELINED: usize = 6;
    let mut client = BinClient::connect(server.addr()).unwrap();
    // Distinct WHERE bounds keep every request a genuine execution (no
    // result-cache hit), so each request span carries a full subtree.
    let queries: Vec<String> = (0..PIPELINED)
        .map(|i| format!("FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k >= {i} RETURN $x"))
        .collect();
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    // One batched write; responses drain in request order, so by the
    // last recv every request span has been recorded.
    let payloads = client.pipeline_queries(&refs).unwrap();
    assert_eq!(payloads.len(), PIPELINED);
    for p in &payloads {
        assert_eq!(json_str_field(p, "cache").as_deref(), Some("miss"));
    }

    // The server runs in-process: find the connection's trace in the
    // ring — the one holding this batch's request spans — and check it
    // is a single well-formed tree with every request at the root.
    let all = trace::snapshot();
    let trace_id = all
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.trace_id)
        .find(|&t| {
            all.iter()
                .filter(|s| s.name == "request" && s.trace_id == t)
                .count()
                >= PIPELINED
        })
        .expect("the batch's requests must share one trace id");
    let spans = trace::spans_for_trace(trace_id);
    assert_well_formed(&spans, trace_id);
    let requests: Vec<_> = spans.iter().filter(|s| s.name == "request").collect();
    assert!(requests.len() >= PIPELINED);
    for r in &requests {
        assert_eq!(r.parent_id, 0, "request spans root at the connection");
        assert!(
            spans
                .iter()
                .any(|s| s.parent_id == r.span_id && s.name == "service.query"),
            "each request must nest its service.query span"
        );
    }

    // And the same tree is visible over the wire.
    let traces = client.trace(8).unwrap();
    assert!(
        json_is_wellformed(&traces),
        "TRACE reply must parse as JSON: {traces}"
    );
    assert!(traces.starts_with("{\"traces\": ["), "{traces}");
    assert!(traces.contains("\"name\": \"request\""), "{traces}");
    assert!(
        traces.contains(&format!("\"trace_id\": {trace_id}")),
        "{traces}"
    );
    drop(client);
    server.shutdown();
}

/// The four steps of a served write, each a child of `service.write`.
const WRITE_STEPS: [&str; 4] = [
    "service.write.clone",
    "service.publish.maintain",
    "service.publish.install",
    "service.publish.fan_out",
];

/// One `INSERT` over the wire: its `service.write` span sits directly
/// under the request root, holds one span per write step, and the same
/// parent links come back over the `TRACE` verb.
#[test]
fn an_insert_traces_each_write_step_under_its_root() {
    trace::set_enabled(true);
    let mut sys = ProvenanceSystem::new();
    for name in ["X", "Y"] {
        let schema =
            Schema::build(name, &[("id", ValueType::Int), ("w", ValueType::Int)], &[0]).unwrap();
        sys.add_relation_with_local(schema).unwrap();
    }
    sys.add_mapping_text("mxy: Y(i, w) :- X(i, w)").unwrap();
    for i in 0..5 {
        sys.insert_local("X", tup![i, i * 10]).unwrap();
    }
    sys.run_exchange().unwrap();
    let core = Arc::new(ServiceCore::new(sys, EngineOptions::default()));
    let server = serve(Arc::clone(&core), "127.0.0.1:0", 2).unwrap();
    let mut client = BinClient::connect(server.addr()).unwrap();
    // A cached answer the write reaches, so maintenance has work.
    client
        .query("EVALUATE COUNT OF { FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x }")
        .unwrap();
    let reply = client.request(verb::INSERT, b"X 9,90").unwrap();
    let reply = String::from_utf8(reply.payload).unwrap();
    let version = json_u64_field(&reply, "version").expect("INSERT replies its version");
    assert_eq!(core.stats().cache.maint_hits, 1, "{reply}");

    // The server runs in-process: this core's write at `version` is the
    // `service.write` span carrying that version under a request root.
    let all = trace::snapshot();
    let write = all
        .iter()
        .find(|s| {
            s.name == "service.write"
                && s.fields
                    .iter()
                    .any(|(k, v)| *k == "version" && *v == version.to_string())
                && all
                    .iter()
                    .any(|p| p.span_id == s.parent_id && p.name == "request" && p.parent_id == 0)
        })
        .expect("the INSERT's service.write span nests under its request root");
    let spans = trace::spans_for_trace(write.trace_id);
    assert_well_formed(&spans, write.trace_id);
    let steps: Vec<_> = WRITE_STEPS
        .iter()
        .map(|name| {
            spans
                .iter()
                .find(|s| s.name == *name && s.parent_id == write.span_id)
                .unwrap_or_else(|| panic!("{name} must be a child of service.write"))
        })
        .collect();
    for pair in steps.windows(2) {
        assert!(pair[0].end_ns <= pair[1].start_ns, "steps run in order");
    }
    // Maintenance decisions nest under their step.
    assert!(spans
        .iter()
        .any(|s| s.name == "maintain" && s.parent_id == steps[1].span_id));

    // The same links over the wire.
    let traces = client.trace(32).unwrap();
    assert!(json_is_wellformed(&traces), "{traces}");
    for step in &steps {
        let linked = format!(
            "\"name\": \"{}\", \"id\": {}, \"parent\": {}",
            step.name, step.span_id, write.span_id
        );
        assert!(traces.contains(&linked), "{linked} missing from {traces}");
    }
    drop(client);
    server.shutdown();
}

/// A query whose shape the plan cache holds binds its literals and
/// prepares nothing: its `service.query` span says `plan_cache=bound` and
/// holds a `prepare.bind` child, and no `prepare` span runs under it.
/// `STATS` reports the cached plans and the shape hit.
#[test]
fn a_shape_hit_binds_under_its_query_span_and_prepares_nothing() {
    trace::set_enabled(true);
    // The exchange's operator spans nest under one setup root rather than
    // each starting a trace of its own, which would crowd other tests'
    // traces out of `TRACE`'s most recent few.
    let setup = trace::span("test.setup");
    let sys = build_system(Topology::Chain, &CdssConfig::upstream_data(3, 2, 12)).unwrap();
    drop(setup);
    let core = ServiceCore::new(sys, EngineOptions::default());
    let query = |lo: i64| {
        let root = trace::span("test.shape_hit");
        let trace_id = root.trace_id().expect("tracing is enabled");
        let q = format!("FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k >= {lo} RETURN $x");
        core.query(&q).unwrap();
        drop(root);
        let spans = trace::spans_for_trace(trace_id);
        assert_well_formed(&spans, trace_id);
        spans
    };
    let field = |s: &trace::SpanRecord, key: &str| {
        s.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    let first = query(1);
    assert!(first.iter().any(|s| s.name == "prepare"));
    let spans = query(2);
    let served = spans
        .iter()
        .find(|s| s.name == "service.query")
        .expect("the query records its service.query span");
    assert_eq!(field(served, "plan_cache").as_deref(), Some("bound"));
    assert!(
        spans
            .iter()
            .any(|s| s.name == "prepare.bind" && s.parent_id == served.span_id),
        "binding nests under service.query"
    );
    assert!(
        !spans.iter().any(|s| s.name == "prepare"),
        "a shape hit prepares nothing"
    );

    let stats = core.stats().to_json();
    assert_eq!(json_u64_field(&stats, "plan_entries"), Some(1), "{stats}");
    assert_eq!(json_u64_field(&stats, "shape_entries"), Some(1), "{stats}");
    assert_eq!(
        json_u64_field(&stats, "plan_cache_shape_hits"),
        Some(1),
        "{stats}"
    );
}

#[test]
fn json_validator_rejects_malformed_payloads() {
    for ok in [
        "{}",
        "[]",
        "{\"a\": [1, -2.5e3, true, false, null, \"s\\\"t\"]} ",
        "{\"traces\": [{\"trace_id\": 7, \"spans\": []}]}",
    ] {
        assert!(json_is_wellformed(ok), "{ok}");
    }
    for bad in [
        "",
        "{",
        "{\"a\" 1}",
        "{\"a\": 1,}",
        "[1 2]",
        "{\"a\": tru}",
        "\"open",
        "{} {}",
    ] {
        assert!(!json_is_wellformed(bad), "{bad}");
    }
}

/// Minimal recursive-descent JSON validity check (the workspace has no
/// serde): accepts exactly one value plus trailing whitespace.
fn json_is_wellformed(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let ok = json_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    ok && pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn json_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => json_seq(b, pos, b'}', true),
        Some(b'[') => json_seq(b, pos, b']', false),
        Some(b'"') => json_string(b, pos),
        Some(b't') => json_lit(b, pos, b"true"),
        Some(b'f') => json_lit(b, pos, b"false"),
        Some(b'n') => json_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => json_number(b, pos),
        _ => false,
    }
}

/// Object (`close`=`}`; members are `"key": value`) or array bodies.
fn json_seq(b: &[u8], pos: &mut usize, close: u8, keyed: bool) -> bool {
    *pos += 1; // opener
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return true;
    }
    loop {
        if keyed {
            skip_ws(b, pos);
            if !json_string(b, pos) {
                return false;
            }
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return false;
            }
            *pos += 1;
        }
        if !json_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(c) if *c == close => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn json_string(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return true,
            b'\\' => *pos += 1, // escape: skip the escaped byte
            _ => {}
        }
    }
    false
}

fn json_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    while let Some(&c) = b.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    *pos > start
}

fn json_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}
