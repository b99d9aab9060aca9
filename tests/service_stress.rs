//! Concurrency stress test for the query service: N reader threads issue
//! a mix of cached (hot) and uncached (per-iteration) queries against a
//! shared [`ServiceCore`] while a writer thread applies CDSS deletions.
//! Every response carries the system version it is valid at; afterwards
//! each response is checked **bit-identical** (via the canonical result
//! digest) against a serial [`Engine`] replay of the same deletion
//! sequence at the corresponding version.

use proql::engine::{Engine, EngineOptions};
use proql_cdss::topology::{build_system_with_island, CdssConfig, Topology};
use proql_cdss::update::delete_local;
use proql_common::{tup, Parallelism, Tuple};
use proql_service::frame::verb;
use proql_service::proto::{json_str_field, json_u64_field};
use proql_service::{result_digest, serve, BinClient, ServiceCore};
use std::collections::HashMap;
use std::sync::Arc;

const READERS: usize = 4;
const ITERATIONS: usize = 30;

/// The fixed query pool: the first half are "hot" (every reader repeats
/// them, so they hit the cache), the rest are window variants that
/// different readers interleave.
fn query_pool() -> Vec<String> {
    let mut pool = vec![
        "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] RETURN $x".to_string(),
        "EVALUATE DERIVABILITY OF { FOR [R0a $x] INCLUDE PATH [$x] <-+ [] RETURN $x }".to_string(),
    ];
    for lo in [4, 8, 12, 16] {
        pool.push(format!(
            "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k >= {lo} RETURN $x"
        ));
    }
    pool
}

#[test]
fn concurrent_responses_match_serial_replay_at_their_version() {
    let sys =
        build_system_with_island(Topology::Chain, &CdssConfig::new(4, vec![3], 24), 8).unwrap();
    let v0 = sys.version();
    let pool = query_pool();

    // The writer's deterministic deletion sequence: chain deletions (which
    // invalidate every hot entry) interleaved with island deletions (which
    // must invalidate nothing).
    let deletes: Vec<(&str, Tuple)> = vec![
        ("Island", tup![0]),
        ("R3a", tup![23]),
        ("Island", tup![1]),
        ("R3a", tup![22]),
        ("Island", tup![2]),
        ("R3a", tup![21]),
    ];

    let core = Arc::new(ServiceCore::new(sys.clone(), EngineOptions::default()));
    let responses: Vec<(String, u64, u64)> = std::thread::scope(|s| {
        let mut readers = Vec::new();
        for r in 0..READERS {
            let core = Arc::clone(&core);
            let pool = pool.clone();
            readers.push(s.spawn(move || {
                let mut seen = Vec::with_capacity(ITERATIONS);
                for i in 0..ITERATIONS {
                    // Hot queries dominate; the offset walks each reader
                    // through the whole pool so cold entries get built
                    // under contention too.
                    let q = &pool[(r + i) % pool.len()];
                    let resp = core.query(q).unwrap();
                    seen.push((q.clone(), resp.version, result_digest(&resp.output)));
                }
                seen
            }));
        }
        let writer_core = Arc::clone(&core);
        let writer_deletes = deletes.clone();
        let writer = s.spawn(move || {
            for (relation, key) in &writer_deletes {
                let (v, _) = writer_core.delete(relation, key).unwrap();
                assert!(v > v0);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        writer.join().unwrap();
        readers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // Serial replay: state k = the system after the first k deletions.
    // Each deletion bumps the version exactly once, so state k lives at
    // version v0 + k.
    let mut expected: HashMap<(u64, String), u64> = HashMap::new();
    let mut state = sys;
    for k in 0..=deletes.len() {
        if k > 0 {
            let (relation, key) = &deletes[k - 1];
            delete_local(&mut state, relation, key).unwrap();
        }
        assert_eq!(state.version(), v0 + k as u64, "replay version drift");
        let engine = Engine::new(state.clone());
        for q in &pool {
            let out = engine.query(q).unwrap();
            expected.insert((state.version(), q.clone()), result_digest(&out));
        }
    }

    assert_eq!(responses.len(), READERS * ITERATIONS);
    for (q, version, digest) in &responses {
        let want = expected
            .get(&(*version, q.clone()))
            .unwrap_or_else(|| panic!("response at unknown version {version}"));
        assert_eq!(
            digest, want,
            "response for {q:?} at version {version} diverged from serial replay"
        );
    }

    // The workload must actually have exercised the cache: with 4 readers
    // replaying a 6-query pool 30 times, most lookups are repeats.
    let stats = core.stats();
    assert_eq!(stats.queries, (READERS * ITERATIONS) as u64);
    assert!(
        stats.cache.hits > 0,
        "stress run never hit the cache: {stats:?}"
    );
    assert_eq!(stats.writes, deletes.len() as u64);
    assert_eq!(stats.version, v0 + deletes.len() as u64);
}

/// The concurrency check again, but end to end over the wire in binary
/// mode: reader threads pipeline whole query batches through
/// [`BinClient`]s while a writer applies deletions over its own binary
/// connection. Every `OK` payload carries the version it was answered
/// at; afterwards each (query, version) digest must be bit-identical to
/// a serial [`Engine`] replay — pipelining and out-of-order worker
/// completion must never leak a torn or misordered answer.
#[test]
fn pipelined_binary_responses_match_serial_replay() {
    let sys =
        build_system_with_island(Topology::Chain, &CdssConfig::new(4, vec![3], 24), 8).unwrap();
    let v0 = sys.version();
    let pool = query_pool();
    // Single-column integer keys so the wire payload is just the digits.
    let deletes: Vec<(&str, i64)> = vec![("Island", 0), ("R3a", 23), ("Island", 1), ("R3a", 22)];

    let core = Arc::new(ServiceCore::new(sys.clone(), EngineOptions::default()));
    let handle = serve(Arc::clone(&core), "127.0.0.1:0", 4).unwrap();
    let addr = handle.addr();

    let responses: Vec<(String, u64, u64)> = std::thread::scope(|s| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            let pool = pool.clone();
            readers.push(s.spawn(move || {
                let mut c = BinClient::connect(addr).unwrap();
                let mut seen = Vec::new();
                for _ in 0..8 {
                    // One pipelined batch per round: the whole pool in a
                    // single write, responses collected in order.
                    let refs: Vec<&str> = pool.iter().map(String::as_str).collect();
                    let payloads = c.pipeline_queries(&refs).unwrap();
                    for (q, json) in pool.iter().zip(payloads) {
                        let version = json_u64_field(&json, "version").unwrap();
                        let digest: u64 = json_str_field(&json, "digest").unwrap().parse().unwrap();
                        seen.push((q.clone(), version, digest));
                    }
                }
                seen
            }));
        }
        let writer_deletes = deletes.clone();
        let writer = s.spawn(move || {
            let mut w = BinClient::connect(addr).unwrap();
            for (relation, key) in &writer_deletes {
                let payload = format!("{relation} {key}");
                let f = w.request(verb::DELETE, payload.as_bytes()).unwrap();
                assert_eq!(f.verb, verb::OK, "{:?}", f.text());
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        writer.join().unwrap();
        readers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    handle.shutdown();

    let mut expected: HashMap<(u64, String), u64> = HashMap::new();
    let mut state = sys;
    for k in 0..=deletes.len() {
        if k > 0 {
            let (relation, key) = &deletes[k - 1];
            delete_local(&mut state, relation, &tup![*key]).unwrap();
        }
        assert_eq!(state.version(), v0 + k as u64, "replay version drift");
        let engine = Engine::new(state.clone());
        for q in &pool {
            let out = engine.query(q).unwrap();
            expected.insert((state.version(), q.clone()), result_digest(&out));
        }
    }

    assert_eq!(responses.len(), READERS * 8 * pool.len());
    for (q, version, digest) in &responses {
        let want = expected
            .get(&(*version, q.clone()))
            .unwrap_or_else(|| panic!("response at unknown version {version}"));
        assert_eq!(
            digest, want,
            "binary response for {q:?} at version {version} diverged from serial replay"
        );
    }
}

/// The same service used synchronously: interleaved reads and writes see
/// exact version progression; a touching write now *patches* the cached
/// entry forward (incremental view maintenance) instead of evicting it.
#[test]
fn serial_session_versions_progress_exactly() {
    let sys =
        build_system_with_island(Topology::Chain, &CdssConfig::new(3, vec![2], 8), 4).unwrap();
    let v0 = sys.version();
    let core = ServiceCore::new(sys, EngineOptions::default());
    let q = "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] RETURN $x";

    let r1 = core.query(q).unwrap();
    assert_eq!(r1.version, v0);
    assert!(!r1.cache_hit);

    // Island delete: version moves, cached entry survives untouched.
    let (v1, _) = core.delete("Island", &tup![0]).unwrap();
    assert_eq!(v1, v0 + 1);
    let r2 = core.query(q).unwrap();
    assert!(r2.cache_hit);
    assert_eq!(r2.version, v1);
    assert_eq!(result_digest(&r1.output), result_digest(&r2.output));

    // Chain delete: the entry is maintained — still a cache hit, now at
    // the new version, bit-identical to a fresh recomputation.
    let (v2, _) = core.delete("R2a", &tup![7]).unwrap();
    let r3 = core.query(q).unwrap();
    assert!(
        r3.cache_hit,
        "a localizable chain delete must be maintained"
    );
    assert_eq!(r3.version, v2);
    assert_ne!(result_digest(&r1.output), result_digest(&r3.output));
    assert_eq!(
        r3.output.projection.bindings.len(),
        r1.output.projection.bindings.len() - 1
    );
    let fresh = Engine::new(core.snapshot().engine.sys.clone());
    assert_eq!(
        result_digest(&r3.output),
        result_digest(&fresh.query(q).unwrap()),
        "maintained answer must match a fresh serial evaluation"
    );
    let stats = core.stats();
    assert_eq!(stats.cache.maint_hits, 1);
    assert_eq!(stats.cache.maint_fallbacks, 0);
}

/// Sustained touching writes: every round deletes a chain tuple that all
/// four hot entries depend on, then re-reads them. Each re-read must be
/// a cache hit at the write's version (the entry was maintained, not
/// evicted) and digest-equal to a fresh serial [`Engine`] over a replay
/// of the same deletions.
#[test]
fn sustained_touching_writes_keep_every_hot_entry_maintained() {
    const HOT_QUERIES: [&str; 4] = [
        "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
        "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k >= 10 RETURN $x",
        "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k < 5 RETURN $x",
        "EVALUATE DERIVABILITY OF { FOR [R0a $x] INCLUDE PATH [$x] <-+ [] RETURN $x }",
    ];
    const ROUNDS: i64 = 12;
    let sys =
        build_system_with_island(Topology::Chain, &CdssConfig::new(4, vec![3], 200), 64).unwrap();
    let core = ServiceCore::new(sys.clone(), EngineOptions::default());
    for q in HOT_QUERIES {
        assert!(!core.query(q).unwrap().cache_hit);
    }
    let serial = EngineOptions {
        parallelism: Parallelism::Serial,
        ..Default::default()
    };
    let mut state = sys;
    for round in 0..ROUNDS {
        let key = tup![198 - round];
        let (version, _) = core.delete("R3a", &key).unwrap();
        delete_local(&mut state, "R3a", &key).unwrap();
        assert_eq!(state.version(), version, "replay version drift");
        let fresh = Engine::with_options(state.clone(), serial.clone());
        for q in HOT_QUERIES {
            let served = core.query(q).unwrap();
            assert!(
                served.cache_hit,
                "round {round}: a touching write must be maintained: {q}"
            );
            assert_eq!(served.version, version, "round {round}: {q}");
            assert_eq!(
                result_digest(&served.output),
                result_digest(&fresh.query(q).unwrap()),
                "round {round}: maintained answer diverged from serial replay: {q}"
            );
        }
    }
    let stats = core.stats();
    assert_eq!(stats.cache.maint_fallbacks, 0, "{stats:?}");
    assert_eq!(stats.cache.stale_evictions, 0, "{stats:?}");
    assert_eq!(stats.cache.hits, (ROUNDS as u64) * HOT_QUERIES.len() as u64);
}

/// Chain-break property test: interleave maintained writes with
/// out-of-band mutations (direct db write + bare `bump_version`, which
/// breaks the delta chain) and INVALIDATE storms. After every step the
/// served answer — maintained or recomputed after the forced fallback —
/// must be digest-equal to a fresh serial [`Engine`] evaluation of the
/// current snapshot, and chain-breaking steps must show up as
/// maintenance fallbacks, never as wrong answers.
#[test]
fn chain_breaks_fall_back_to_eviction_never_to_wrong_answers() {
    use proql_cdss::SwissProtLike;
    use proql_common::rng::SplitMix64;
    let config = CdssConfig::new(3, vec![2], 16);
    let sys = build_system_with_island(Topology::Chain, &config, 8).unwrap();
    let core = ServiceCore::new(sys, EngineOptions::default());
    let queries = query_pool();
    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    let mut gen = SwissProtLike::new(config.seed ^ 1, config.attrs);
    let mut live: Vec<i64> = (0..16).collect();
    let mut next_key = 500i64;

    for step in 0..24 {
        // Keep every pool entry warm so each write exercises maintenance.
        for q in &queries {
            core.query(q).unwrap();
        }
        match rng.gen_range_usize(0, 5) {
            // Maintained chain delete.
            0 | 1 if !live.is_empty() => {
                let at = rng.gen_range_usize(0, live.len());
                let k = live.swap_remove(at);
                core.delete("R2a", &tup![k]).unwrap();
            }
            // Maintained insert + exchange: the pair-unit mapping needs
            // both halves, so the second insert fires the cascade.
            0..=2 => {
                let k = next_key;
                next_key += 1;
                let (ta, tb) = gen.entry(k);
                core.insert_and_exchange("R2a", ta).unwrap();
                core.insert_and_exchange("R2b", tb).unwrap();
                live.push(k);
            }
            // Out-of-band schema-level churn through INVALIDATE: every
            // entry dies; the next round rebuilds from scratch.
            3 => {
                core.invalidate();
            }
            // Island delete: must not disturb the chain entries at all.
            _ => {
                let k = step as i64 % 8;
                let _ = core.delete("Island", &tup![k]);
            }
        }
        // Every answer the service gives after the write must equal a
        // fresh serial evaluation at the published snapshot.
        let fresh = Engine::new(core.snapshot().engine.sys.clone());
        for q in &queries {
            let served = core.query(q).unwrap();
            assert_eq!(
                result_digest(&served.output),
                result_digest(&fresh.query(q).unwrap()),
                "step {step}: served answer for {q:?} diverged from fresh evaluation"
            );
        }
    }
    let stats = core.stats();
    assert!(
        stats.cache.maint_hits > 0,
        "the interleaving must actually exercise maintenance: {stats:?}"
    );
}
