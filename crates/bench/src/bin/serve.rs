//! `serve` — load generator for the `proql-service` TCP stack (beyond
//! the paper: the ROADMAP's production-service trajectory).
//!
//! Starts a [`proql_service::ServiceCore`] over a CDSS chain (plus the
//! disconnected `Island` family), exposes it on a loopback TCP port,
//! and drives it in four phases:
//!
//! 1. **Load**: `PROQL_CLIENTS` concurrent connections replay a small
//!    set of hot target-peer queries while a writer deletes island
//!    tuples over the same wire — writes whose write sets share no
//!    relation with any hot query, so the dependency-tracked cache must
//!    keep serving hits throughout.
//! 2. **Maintenance demo** (serial): one unrelated write followed by a
//!    re-query (asserted to be a cache **hit**), then one write inside
//!    the chain followed by a re-query — with incremental view
//!    maintenance the touched entry is patched forward, so this is
//!    asserted to be a **hit** too, at the new version.
//! 3. **Sustained touching writes** (serial): every round deletes a
//!    chain tuple that intersects all hot entries, then replays the hot
//!    set; the effective hit rate under this adversarial write stream is
//!    the maintenance payoff. Afterwards the maintained answers are
//!    checked digest-equal to fresh recomputation (`INVALIDATE` + serve
//!    from scratch, which also demonstrates prepared-plan reuse), and a
//!    second in-process core with maintenance disabled reproduces the
//!    old evict-on-write contract as the ablation baseline.
//! 4. **High connection count**: `PROQL_HICONN_CLIENTS` connections
//!    (≥ 8× the worker threads) replay the hot set against a fresh
//!    server in pipelined binary mode — many more connections than
//!    workers, multiplexed by the one event loop. Throughput is
//!    reported; the server-side latency percentiles, the shed count and
//!    the decoded-frame count come from the transport's own metrics via
//!    `STATS`, and every pipelined frame is asserted decoded.
//!
//! Reports throughput, client-observed latency percentiles, cache hit
//! rate, maintenance counters, and the demo outcomes; `PROQL_JSON=1`
//! emits one machine-readable line. `PROQL_MIN_HIT_RATE=<0..1>` gates
//! the phase-1 rate and `PROQL_MIN_MAINT_HIT_RATE=<0..1>` gates the
//! phase-3 rate so CI catches both eviction and maintenance regressions.

use proql::engine::EngineOptions;
use proql_bench::{banner, json_output, percentile, scaled};
use proql_cdss::topology::{build_system_with_island, CdssConfig, Topology};
use proql_common::tup;
use proql_service::proto::{json_f64_field, json_str_field, json_u64_field};
use proql_service::{serve, BinClient, Client, ServiceCore};
use std::sync::Arc;
use std::time::Instant;

const HOT_QUERIES: [&str; 4] = [
    "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
    "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k >= 10 RETURN $x",
    "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k < 5 RETURN $x",
    "EVALUATE DERIVABILITY OF { FOR [R0a $x] INCLUDE PATH [$x] <-+ [] RETURN $x }",
];

fn main() {
    banner(
        "serve: concurrent query service under mixed read/write load",
        "beyond the paper; ROADMAP production-service trajectory",
    );

    // This bench measures the *transport and cache*, so the span layer
    // must not pollute it. `obs_bench` owns the tracing-overhead
    // measurement. Set before any core exists so every
    // `trace::init_from_env` call honors it.
    std::env::set_var("PROQL_TRACE", "0");
    proql_common::trace::set_enabled(false);

    let clients = env_usize("PROQL_CLIENTS", 4);
    let requests_per_client = env_usize("PROQL_REQUESTS", scaled(60, 400));
    let peers = scaled(4, 8);
    let base = scaled(200, 2000);
    let island = 64;

    let sys = build_system_with_island(
        Topology::Chain,
        &CdssConfig::new(peers, vec![peers - 1], base),
        island,
    )
    .expect("topology builds");
    let chain_rel = format!("R{}a", peers - 1);
    let core = Arc::new(ServiceCore::new(sys, EngineOptions::default()));
    let server = serve(Arc::clone(&core), "127.0.0.1:0", clients + 2).expect("server starts");
    let addr = server.addr();

    // Phase 1: concurrent load + unrelated writes.
    let t0 = Instant::now();
    let mut all_latencies: Vec<f64> = Vec::new();
    let mut write_latencies: Vec<f64> = Vec::new();
    let mut island_deletes = 0usize;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..clients {
            handles.push(s.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut latencies = Vec::with_capacity(requests_per_client);
                for r in 0..requests_per_client {
                    let q = HOT_QUERIES[(c + r) % HOT_QUERIES.len()];
                    let t = Instant::now();
                    let json = client.query(q).expect("query succeeds");
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                    assert!(
                        json_u64_field(&json, "version").is_some(),
                        "bad reply: {json}"
                    );
                }
                latencies
            }));
        }
        let writer = s.spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            let mut latencies = Vec::with_capacity(16);
            for k in 0..16 {
                let t = Instant::now();
                let resp = client
                    .request(&format!("DELETE Island {k}"))
                    .expect("delete request");
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                assert!(resp.starts_with("OK "), "island delete failed: {resp}");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            latencies
        });
        for h in handles {
            all_latencies.extend(h.join().expect("client thread"));
        }
        write_latencies = writer.join().expect("writer thread");
        island_deletes = write_latencies.len();
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // Phase 2 (serial): the maintenance contract, end to end over TCP.
    let mut demo = Client::connect(addr).expect("demo client");
    demo.query(HOT_QUERIES[0]).expect("warm");
    let unrelated = demo
        .request(&format!("DELETE Island {}", island - 1))
        .expect("unrelated delete");
    assert!(unrelated.starts_with("OK "), "{unrelated}");
    let after_unrelated = demo.query(HOT_QUERIES[0]).expect("re-query");
    let unrelated_write_hit = json_str_field(&after_unrelated, "cache").as_deref() == Some("hit");
    assert!(
        unrelated_write_hit,
        "a write to an untouched relation must keep the entry: {after_unrelated}"
    );
    let touching = demo
        .request(&format!("DELETE {chain_rel} {}", base - 1))
        .expect("touching delete");
    assert!(touching.starts_with("OK "), "{touching}");
    let touch_version = json_u64_field(&touching, "version").expect("write reply has a version");
    let after_touching = demo.query(HOT_QUERIES[0]).expect("re-query");
    let touching_write_hit = json_str_field(&after_touching, "cache").as_deref() == Some("hit");
    assert!(
        touching_write_hit,
        "a localizable write to a touched relation must be maintained, not evicted: \
         {after_touching}"
    );
    assert_eq!(
        json_u64_field(&after_touching, "version"),
        Some(touch_version),
        "the maintained entry must be re-stamped to the write's version: {after_touching}"
    );

    // Phase 3 (serial): sustained touching-write load. Every round kills a
    // chain tuple that every hot entry depends on; with maintenance the
    // entries are patched forward and keep hitting.
    for q in HOT_QUERIES {
        demo.query(q).expect("warm hot set");
    }
    let rounds = env_usize("PROQL_MAINT_ROUNDS", scaled(12, 32));
    let mut maint_requests = 0u64;
    let mut maint_hits_observed = 0u64;
    for round in 0..rounds {
        let resp = demo
            .request(&format!("DELETE {chain_rel} {}", base - 2 - round))
            .expect("sustained chain delete");
        assert!(resp.starts_with("OK "), "chain delete failed: {resp}");
        for q in HOT_QUERIES {
            let json = demo.query(q).expect("hot re-query");
            maint_requests += 1;
            if json_str_field(&json, "cache").as_deref() == Some("hit") {
                maint_hits_observed += 1;
            }
        }
    }
    let maint_hit_rate = maint_hits_observed as f64 / maint_requests.max(1) as f64;

    // Digest-equality: every maintained answer must be bit-identical to a
    // from-scratch recomputation of the same query at the same snapshot.
    // The fresh re-execution after INVALIDATE also demonstrates that a
    // result miss reuses the cached prepared plan.
    let maintained: Vec<(String, u64)> = HOT_QUERIES
        .iter()
        .map(|q| {
            let json = demo.query(q).expect("maintained read");
            (
                q.to_string(),
                json_u64_field(&json, "digest").expect("reply has a digest"),
            )
        })
        .collect();
    let inval = demo.request("INVALIDATE").expect("invalidate");
    assert!(inval.starts_with("OK "), "{inval}");
    let mut maint_digest_match = true;
    let mut fresh_requery_plan_hit = true;
    for (q, maintained_digest) in &maintained {
        let json = demo.query(q).expect("fresh recompute");
        assert_eq!(
            json_str_field(&json, "cache").as_deref(),
            Some("miss"),
            "INVALIDATE must force a recompute: {json}"
        );
        fresh_requery_plan_hit &= json_str_field(&json, "plan_cache").as_deref() == Some("hit");
        maint_digest_match &= json_u64_field(&json, "digest") == Some(*maintained_digest);
    }
    assert!(
        maint_digest_match,
        "a maintained answer diverged from fresh recomputation"
    );
    assert!(
        fresh_requery_plan_hit,
        "a result miss must re-execute from the cached prepared plan"
    );

    let stats_json = demo.stats().expect("stats");
    drop(demo);
    server.shutdown();

    // Ablation baseline (in-process, no TCP): with maintenance disabled
    // the same touching write evicts instead of patching.
    let ablation_touching_write_miss = {
        let sys = build_system_with_island(Topology::Chain, &CdssConfig::new(3, vec![2], 8), 4)
            .expect("ablation topology");
        let core = ServiceCore::new(sys, EngineOptions::default()).with_maintenance(false);
        core.query(HOT_QUERIES[0]).expect("warm");
        core.delete("R2a", &tup![7]).expect("touching delete");
        let resp = core.query(HOT_QUERIES[0]).expect("re-query");
        assert!(
            !resp.cache_hit,
            "with maintenance disabled a touching write must evict"
        );
        let stats = core.stats();
        assert_eq!(stats.cache.maint_hits, 0, "ablation must never maintain");
        assert_eq!(stats.cache.stale_evictions, 1);
        !resp.cache_hit
    };

    // Phase 4: high connection count — pipelined binary clients,
    // connections ≥ 8x workers, all multiplexed by the one event loop.
    let hc_workers = env_usize("PROQL_HICONN_WORKERS", 2);
    let hc_conns = env_usize("PROQL_HICONN_CLIENTS", hc_workers * 8).max(hc_workers * 8);
    let hc_requests = env_usize("PROQL_HICONN_REQUESTS", scaled(40, 150));
    let (eventloop_qps, eventloop_stats) = hiconn_phase(hc_workers, hc_conns, hc_requests);
    // Server-side latency percentiles from the transport histogram.
    let server_p50 = json_f64_field(&eventloop_stats, "latency_p50_ms").unwrap_or(0.0);
    let server_p95 = json_f64_field(&eventloop_stats, "latency_p95_ms").unwrap_or(0.0);
    let server_p99 = json_f64_field(&eventloop_stats, "latency_p99_ms").unwrap_or(0.0);
    let hc_frames_in = json_u64_field(&eventloop_stats, "frames_in").unwrap_or(0);
    let hc_shed = json_u64_field(&eventloop_stats, "shed_count").unwrap_or(0);
    assert!(
        json_u64_field(&eventloop_stats, "requests_recorded").unwrap_or(0) > 0,
        "the transport histogram must have recorded the phase: {eventloop_stats}"
    );
    assert!(
        hc_frames_in >= (hc_conns * hc_requests) as u64,
        "every pipelined frame must be decoded: {eventloop_stats}"
    );

    let total_requests = clients * requests_per_client;
    let throughput = total_requests as f64 / wall_s;
    all_latencies.sort_by(|a, b| a.total_cmp(b));
    let (p50, p95, p99) = (
        percentile(&all_latencies, 0.50),
        percentile(&all_latencies, 0.95),
        percentile(&all_latencies, 0.99),
    );
    // Client-observed write (DELETE) latency percentiles.
    write_latencies.sort_by(|a, b| a.total_cmp(b));
    let (write_p50, write_p95) = (
        percentile(&write_latencies, 0.50),
        percentile(&write_latencies, 0.95),
    );
    // The server's own hit-rate definition is the single source of truth.
    let hit_rate = json_f64_field(&stats_json, "cache_hit_rate").unwrap_or(0.0);
    let plan_hit_rate = json_f64_field(&stats_json, "plan_cache_hit_rate").unwrap_or(0.0);
    assert!(
        plan_hit_rate > 0.0,
        "plan cache must report a nonzero hit rate: {stats_json}"
    );
    let maint_hits = json_u64_field(&stats_json, "maint_hits").unwrap_or(0);
    let maint_fallbacks = json_u64_field(&stats_json, "maint_fallbacks").unwrap_or(0);
    let maint_rows_patched = json_u64_field(&stats_json, "maint_rows_patched").unwrap_or(0);
    assert!(
        maint_hits > 0,
        "the sustained phase must exercise maintenance: {stats_json}"
    );

    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "clients", "requests", "qps", "p50 (ms)", "p95 (ms)", "p99 (ms)", "hit rate", "writes"
    );
    println!(
        "{:>10} {:>10} {:>12.1} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8}",
        clients,
        total_requests,
        throughput,
        p50,
        p95,
        p99,
        hit_rate,
        island_deletes + 2 + rounds
    );
    println!("   write latency: p50 {write_p50:.3} ms, p95 {write_p95:.3} ms");
    println!("   unrelated-write re-query: hit  (entry survived)");
    println!(
        "   touching-write re-query:  hit  (entry maintained, re-stamped to v{touch_version})"
    );
    println!(
        "   sustained touching writes: {rounds} rounds, effective hit rate {maint_hit_rate:.3}"
    );
    println!(
        "   maintenance: {maint_hits} patches ({maint_rows_patched} rows), \
         {maint_fallbacks} fallbacks; digests match fresh recompute"
    );
    println!("   ablation (maintenance off): touching write evicts");
    println!("   plan-cache hit rate: {plan_hit_rate:.3}");
    println!(
        "   high-conn ({hc_conns} conns / {hc_workers} workers, {hc_requests} req each): \
         event loop {eventloop_qps:.1} qps"
    );
    println!(
        "   server-side latency (histogram): p50 {server_p50:.4} ms, p95 {server_p95:.4} ms, \
         p99 {server_p99:.4} ms; {hc_shed} shed"
    );
    println!("   server stats: {stats_json}");

    if json_output() {
        println!(
            "{{\"fig\": \"serve\", \"clients\": {clients}, \"requests\": {total_requests}, \
             \"wall_s\": {wall_s:.6}, \"throughput_qps\": {throughput:.1}, \
             \"p50_ms\": {p50:.4}, \"p95_ms\": {p95:.4}, \"p99_ms\": {p99:.4}, \
             \"write_p50_ms\": {write_p50:.4}, \"write_p95_ms\": {write_p95:.4}, \
             \"cache_hit_rate\": {hit_rate:.6}, \"plan_cache_hit_rate\": {plan_hit_rate:.6}, \
             \"writes\": {}, \"unrelated_write_hit\": {unrelated_write_hit}, \
             \"touching_write_hit\": {touching_write_hit}, \
             \"maint_rounds\": {rounds}, \"maint_hit_rate\": {maint_hit_rate:.6}, \
             \"maint_hits\": {maint_hits}, \"maint_fallbacks\": {maint_fallbacks}, \
             \"maint_rows_patched\": {maint_rows_patched}, \
             \"maint_digest_match\": {maint_digest_match}, \
             \"fresh_requery_plan_hit\": {fresh_requery_plan_hit}, \
             \"ablation_touching_write_miss\": {ablation_touching_write_miss}, \
             \"hiconn_clients\": {hc_conns}, \"hiconn_workers\": {hc_workers}, \
             \"eventloop_qps\": {eventloop_qps:.1}, \
             \"server_p50_ms\": {server_p50:.4}, \"server_p95_ms\": {server_p95:.4}, \
             \"server_p99_ms\": {server_p99:.4}, \"shed_count\": {hc_shed}, \
             \"stale_evictions\": {}, \"version\": {}}}",
            island_deletes + 2 + rounds,
            json_u64_field(&stats_json, "stale_evictions").unwrap_or(0),
            json_u64_field(&stats_json, "version").unwrap_or(0),
        );
    }

    if let Ok(min) = std::env::var("PROQL_MIN_HIT_RATE") {
        let min: f64 = min.parse().expect("PROQL_MIN_HIT_RATE parses");
        assert!(
            hit_rate >= min,
            "cache hit rate {hit_rate:.3} below the PROQL_MIN_HIT_RATE={min} gate \
             (stats: {stats_json})"
        );
        println!("   hit-rate gate passed: {hit_rate:.3} >= {min}");
    }
    if let Ok(min) = std::env::var("PROQL_MIN_MAINT_HIT_RATE") {
        let min: f64 = min.parse().expect("PROQL_MIN_MAINT_HIT_RATE parses");
        assert!(
            maint_hit_rate >= min,
            "maintenance effective hit rate {maint_hit_rate:.3} below the \
             PROQL_MIN_MAINT_HIT_RATE={min} gate (stats: {stats_json})"
        );
        println!("   maintenance hit-rate gate passed: {maint_hit_rate:.3} >= {min}");
    }
}

/// The phase-4 run: a fresh core behind a fresh event-loop server, with
/// `conns` concurrent client threads each replaying `requests` hot
/// queries in pipelined binary batches. Returns (throughput qps, final
/// STATS payload).
fn hiconn_phase(workers: usize, conns: usize, requests: usize) -> (f64, String) {
    let sys = build_system_with_island(Topology::Chain, &CdssConfig::new(3, vec![2], 64), 8)
        .expect("hiconn topology builds");
    let core = Arc::new(ServiceCore::new(sys, EngineOptions::default()));
    let server = serve(Arc::clone(&core), "127.0.0.1:0", workers).expect("server starts");
    let addr = server.addr();
    // Warm the two hot entries so the phase measures the transport, not
    // first-evaluation cost.
    {
        let mut warm = Client::connect(addr).expect("warm client");
        for q in &HOT_QUERIES[..2] {
            warm.query(q).expect("warm query");
        }
    }
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..conns {
            s.spawn(move || {
                let mut client = BinClient::connect(addr).expect("bin client connects");
                let mut done = 0usize;
                while done < requests {
                    let batch = (requests - done).min(16);
                    let qs: Vec<&str> = (0..batch)
                        .map(|i| HOT_QUERIES[(c + done + i) % 2])
                        .collect();
                    let payloads = client.pipeline_queries(&qs).expect("pipelined batch");
                    assert_eq!(payloads.len(), batch, "batch answered in full");
                    done += batch;
                }
            });
        }
    });
    let qps = (conns * requests) as f64 / t0.elapsed().as_secs_f64();
    let mut stats_client = Client::connect(addr).expect("stats client");
    let stats = stats_client.stats().expect("stats");
    drop(stats_client);
    server.shutdown();
    (qps, stats)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
