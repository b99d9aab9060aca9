//! `scale_bench` — scale-out reads: delta-streaming replicas and
//! hash-sharded scatter-gather routing, measured across real processes
//! (beyond the paper: the ROADMAP's production-service trajectory).
//!
//! The orchestrator hosts the primary in-process and re-executes its
//! own binary (`--replica-node` / `--shard-node`) to spawn follower and
//! shard processes, each serving the binary wire protocol on its own
//! loopback port. Phases:
//!
//! 1. **Single-node baseline**: client threads replay family-local hot
//!    queries against the primary alone.
//! 2. **Replicated reads**: N replica processes subscribe to the
//!    primary's delta stream; the same client load fans across primary
//!    plus replicas while a writer applies touching deletes on the
//!    primary. Aggregate read qps vs the baseline is the scale-out
//!    ratio (`PROQL_MIN_SCALEOUT` gates it in CI — on a single-core
//!    host the processes share one CPU and the ratio is honest but
//!    meaningless, so the gate stays off locally).
//! 3. **Convergence + digest identity**: after the writes quiesce,
//!    every replica must reach the primary's version and answer every
//!    hot query with the digest of a from-scratch serial recomputation
//!    (`INVALIDATE` on the primary, then compare). Replica apply-lag
//!    p99 comes from each replica's own `STATS` histogram and is gated
//!    by `PROQL_MAX_REPLICA_LAG_MS`.
//! 4. **Broken-chain recovery**: the primary runs with a deliberately
//!    tiny delta log, so a replica joining after the write burst finds
//!    the chain trimmed past its version — the stream must fall back
//!    to a full snapshot transfer (counted on both ends, never silent)
//!    and still converge to digest identity.
//! 5. **Sharded reads**: shard processes each load only the relation
//!    families they own (same deterministic `ShardMap` on every node);
//!    routers in the client threads forward each family-local query to
//!    its owning shard with zero fan-out. Aggregate routed qps vs a
//!    fat single node holding all families is the shard ratio, and
//!    every routed answer must be digest-identical to the fat node's.
//!
//! `PROQL_JSON=1` emits one machine-readable line.

use proql::engine::EngineOptions;
use proql_bench::{banner, json_output, scaled};
use proql_common::{tup, Schema, Tuple, Value, ValueType};
use proql_provgraph::ProvenanceSystem;
use proql_service::proto::{json_f64_field, json_str_field, json_u64_field};
use proql_service::{
    result_digest, serve, start_replica, BinClient, ReplicaConfig, RetryPolicy, Router,
    ServiceCore, ShardMap,
};
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Delta-log retention on every node in this bench: small enough that
/// the post-burst late joiner *must* take the snapshot path.
const DELTA_LOG_CAP: usize = 8;

/// Replica processes following the primary.
const REPLICAS: usize = 2;

/// Shard processes behind the routers.
const SHARDS: usize = 2;

/// Independent mapping families (see [`build_families_filtered`]).
const FAMILIES: usize = 4;

/// Client threads per endpoint in each read phase.
const CLIENTS_PER: usize = 2;

/// Independent mapping families `In{f} → Mid{f}`, `In{f} ⋈ Mid{f} →
/// Out{f}`, loading data only for the families
/// `keep` accepts — the schema (and therefore the shard map) is
/// identical on every node, the data is partitioned.
fn build_families_filtered(
    families: usize,
    rows: usize,
    keep: impl Fn(usize) -> bool,
) -> ProvenanceSystem {
    let mut sys = ProvenanceSystem::new();
    for f in 0..families {
        for prefix in ["In", "Mid"] {
            sys.add_relation_with_local(
                Schema::build(
                    &format!("{prefix}{f}"),
                    &[("k", ValueType::Int), ("v", ValueType::Int)],
                    &[0],
                )
                .unwrap(),
            )
            .unwrap();
        }
        sys.add_relation_with_local(
            Schema::build(
                &format!("Out{f}"),
                &[
                    ("k", ValueType::Int),
                    ("a", ValueType::Int),
                    ("b", ValueType::Int),
                ],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
        sys.add_mapping_text(&format!("mm{f}: Mid{f}(k, v) :- In{f}(k, v)"))
            .unwrap();
        sys.add_mapping_text(&format!(
            "mo{f}: Out{f}(k, a, b) :- In{f}(k, a), Mid{f}(k, b)"
        ))
        .unwrap();
    }
    for f in (0..families).filter(|f| keep(*f)) {
        for k in 0..rows {
            sys.insert_local(
                &format!("In{f}"),
                Tuple::new(vec![Value::Int(k as i64), Value::Int((k * 3 + f) as i64)]),
            )
            .unwrap();
        }
    }
    sys.run_exchange().unwrap();
    sys
}

fn build_families(families: usize, rows: usize) -> ProvenanceSystem {
    build_families_filtered(families, rows, |_| true)
}

/// The shard map every node derives independently: families are
/// canonical-named by their `In{f}` relation (it sorts first), and the
/// family index modulo the shard count places it — deterministic and
/// perfectly balanced for this bench's synthetic schema.
fn scale_shard_map(schema: &ProvenanceSystem, shards: usize) -> ShardMap {
    ShardMap::from_system_with(schema, shards, |canonical| {
        let digits: String = canonical.chars().filter(|c| c.is_ascii_digit()).collect();
        digits.parse::<usize>().unwrap_or(0) % shards
    })
}

fn hot_query(family: usize) -> String {
    format!("FOR [Out{family} $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
}

// ---------------------------------------------------------------------------
// Child-node modes: this binary re-executes itself for each node role.
// ---------------------------------------------------------------------------

/// `--replica-node <primary_addr> <families> <rows>`: build the same
/// seed system, serve it, follow the primary, and park until killed.
fn replica_node(args: &[String]) -> ! {
    let primary: SocketAddr = args[0].parse().expect("primary addr");
    let families: usize = args[1].parse().expect("families");
    let rows: usize = args[2].parse().expect("rows");
    let mut sys = build_families(families, rows);
    sys.set_delta_log_capacity(DELTA_LOG_CAP);
    let core = Arc::new(ServiceCore::new(sys, EngineOptions::default()));
    let server = serve(Arc::clone(&core), "127.0.0.1:0", 2).expect("replica serves");
    let _stream = start_replica(core, primary, ReplicaConfig::default());
    println!("READY {}", server.addr());
    std::io::stdout().flush().expect("flush READY");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// `--shard-node <idx> <shards> <families> <rows>`: full schema, data
/// only for owned families, serve, park until killed.
fn shard_node(args: &[String]) -> ! {
    let idx: usize = args[0].parse().expect("shard idx");
    let shards: usize = args[1].parse().expect("shards");
    let families: usize = args[2].parse().expect("families");
    let rows: usize = args[3].parse().expect("rows");
    let sys = build_families_filtered(families, rows, |f| f % shards == idx);
    let core = Arc::new(ServiceCore::new(sys, EngineOptions::default()));
    let server = serve(core, "127.0.0.1:0", 2).expect("shard serves");
    println!("READY {}", server.addr());
    std::io::stdout().flush().expect("flush READY");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// A spawned node process; killed on drop so a panicking orchestrator
/// never leaks children.
struct ChildNode {
    child: Child,
    addr: SocketAddr,
}

impl ChildNode {
    fn spawn(mode: &str, args: &[String]) -> ChildNode {
        let exe = std::env::current_exe().expect("current exe");
        let mut child = Command::new(exe)
            .arg(mode)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn child node");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read READY");
        let addr = line
            .trim()
            .strip_prefix("READY ")
            .unwrap_or_else(|| panic!("child spoke {line:?}, expected READY <addr>"))
            .parse()
            .expect("child addr");
        ChildNode { child, addr }
    }
}

impl Drop for ChildNode {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Orchestrator helpers
// ---------------------------------------------------------------------------

fn stats_of(addr: SocketAddr) -> String {
    let mut c = BinClient::connect(addr).expect("stats client");
    c.stats().expect("stats")
}

/// Poll a node's `STATS` until its published version reaches `target`.
fn wait_node_version(addr: SocketAddr, target: u64, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if json_u64_field(&stats_of(addr), "version").unwrap_or(0) >= target {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Aggregate read throughput: `clients_per` threads per endpoint, each
/// replaying the hot set against its endpoint. Returns qps.
fn read_load(addrs: &[SocketAddr], clients_per: usize, requests: usize, hot: &[String]) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for &addr in addrs {
            for c in 0..clients_per {
                let hot = &hot;
                s.spawn(move || {
                    let mut client = BinClient::connect(addr).expect("load client");
                    for r in 0..requests {
                        let json = client.query(&hot[(c + r) % hot.len()]).expect("query");
                        assert!(
                            json_u64_field(&json, "version").is_some(),
                            "bad reply {json}"
                        );
                    }
                });
            }
        }
    });
    (addrs.len() * clients_per * requests) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    match argv.get(1).map(String::as_str) {
        Some("--replica-node") => replica_node(&argv[2..]),
        Some("--shard-node") => shard_node(&argv[2..]),
        _ => {}
    }

    banner(
        "scale_bench: replicated and sharded read scale-out across processes",
        "beyond the paper; ROADMAP production-service trajectory",
    );
    std::env::set_var("PROQL_TRACE", "0");
    proql_common::trace::set_enabled(false);

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rows = scaled(48, 200);
    let requests = scaled(40, 200);
    let write_rounds = scaled(12, 24).min(rows.saturating_sub(4));
    let hot: Vec<String> = (0..FAMILIES).map(hot_query).collect();
    println!("   detected CPUs: {cpus} (scale-out ratios need >1 to mean anything)");

    // Primary: in-process, tiny delta log (phase 4 relies on trimming).
    let mut sys = build_families(FAMILIES, rows);
    sys.set_delta_log_capacity(DELTA_LOG_CAP);
    let primary = Arc::new(ServiceCore::new(sys, EngineOptions::default()));
    let server = serve(
        Arc::clone(&primary),
        "127.0.0.1:0",
        CLIENTS_PER * (REPLICAS + 1) + 2,
    )
    .expect("primary serves");
    let primary_addr = server.addr();

    // Phase 1: single-node baseline (warmed).
    for q in &hot {
        primary.query(q).expect("warm");
    }
    let single_qps = read_load(&[primary_addr], CLIENTS_PER, requests, &hot);
    println!("   single-node baseline: {single_qps:.1} qps");

    // Phase 2: replicated reads under touching writes.
    let fam_args = vec![
        primary_addr.to_string(),
        FAMILIES.to_string(),
        rows.to_string(),
    ];
    let replica_nodes: Vec<ChildNode> = (0..REPLICAS)
        .map(|_| ChildNode::spawn("--replica-node", &fam_args))
        .collect();
    for node in &replica_nodes {
        assert!(
            wait_node_version(node.addr, primary.version(), Duration::from_secs(60)),
            "replica {} never joined the stream",
            node.addr
        );
    }
    let mut endpoints = vec![primary_addr];
    endpoints.extend(replica_nodes.iter().map(|n| n.addr));
    let (replicated_qps, writes_applied) = std::thread::scope(|s| {
        let primary = &primary;
        let writer = s.spawn(move || {
            let mut applied = 0u64;
            for k in 0..write_rounds {
                primary
                    .delete("In0", &tup![k as i64])
                    .expect("touching delete");
                applied += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            applied
        });
        let qps = read_load(&endpoints, CLIENTS_PER, requests, &hot);
        (qps, writer.join().expect("writer"))
    });
    let replica_speedup = replicated_qps / single_qps.max(1e-9);
    println!(
        "   replicated ({} endpoints, {writes_applied} touching writes): \
         {replicated_qps:.1} qps ({replica_speedup:.2}x)",
        endpoints.len()
    );

    // Phase 3: convergence, digest identity vs serial recompute, lag.
    let target = primary.version();
    for node in &replica_nodes {
        assert!(
            wait_node_version(node.addr, target, Duration::from_secs(60)),
            "replica {} never converged to v{target}",
            node.addr
        );
    }
    // Serial mirror: drop every cached answer on the primary and
    // recompute each hot query from scratch at the converged version.
    primary.invalidate();
    let serial: Vec<(String, u64, String)> = hot
        .iter()
        .map(|q| {
            let resp = primary.query(q).expect("serial recompute");
            assert!(!resp.cache_hit, "INVALIDATE must force a recompute");
            (
                q.clone(),
                resp.version,
                result_digest(&resp.output).to_string(),
            )
        })
        .collect();
    let mut digest_identity = true;
    let mut lag_p99_max: f64 = 0.0;
    let mut deltas_applied_total = 0u64;
    for node in &replica_nodes {
        let mut c = BinClient::connect(node.addr).expect("replica client");
        for (q, version, digest) in &serial {
            let json = c.query(q).expect("replica query");
            let ok = json_u64_field(&json, "version") == Some(*version)
                && json_str_field(&json, "digest").as_deref() == Some(digest.as_str());
            if !ok {
                eprintln!(
                    "   DIGEST MISMATCH on {}: {json} (want v{version} {digest})",
                    node.addr
                );
            }
            digest_identity &= ok;
        }
        let stats = c.stats().expect("replica stats");
        lag_p99_max = lag_p99_max.max(json_f64_field(&stats, "repl_lag_p99_ms").unwrap_or(0.0));
        deltas_applied_total += json_u64_field(&stats, "repl_deltas_applied").unwrap_or(0);
    }
    assert!(
        digest_identity,
        "replica answers diverged from the serial mirror"
    );
    assert!(
        deltas_applied_total >= writes_applied,
        "replicas applied {deltas_applied_total} deltas for {writes_applied} writes"
    );
    println!(
        "   convergence: digest identity at v{target}; replica apply-lag p99 max \
         {lag_p99_max:.3} ms; {deltas_applied_total} deltas applied"
    );

    // Phase 4: broken chain — the burst exceeded the delta-log cap, so
    // a late joiner must recover over the snapshot path.
    assert!(
        write_rounds > DELTA_LOG_CAP,
        "bench invariant: the write burst must out-run the delta log"
    );
    let late = ChildNode::spawn("--replica-node", &fam_args);
    assert!(
        wait_node_version(late.addr, target, Duration::from_secs(60)),
        "late joiner never converged"
    );
    let late_stats = stats_of(late.addr);
    let late_snapshots = json_u64_field(&late_stats, "repl_snapshots_installed").unwrap_or(0);
    assert!(
        late_snapshots >= 1,
        "a joiner past log retention must take the snapshot path: {late_stats}"
    );
    let mut late_client = BinClient::connect(late.addr).expect("late client");
    for (q, version, digest) in &serial {
        let json = late_client.query(q).expect("late query");
        assert_eq!(json_u64_field(&json, "version"), Some(*version), "{json}");
        assert_eq!(
            json_str_field(&json, "digest").as_deref(),
            Some(digest.as_str()),
            "late joiner diverged after snapshot recovery: {json}"
        );
    }
    let primary_stats = stats_of(primary_addr);
    let snapshots_streamed = json_u64_field(&primary_stats, "repl_snapshots_streamed").unwrap_or(0);
    assert!(
        snapshots_streamed >= 1,
        "the primary must have counted the snapshot transfer: {primary_stats}"
    );
    println!(
        "   broken-chain recovery: late joiner installed {late_snapshots} snapshot(s) \
         (primary streamed {snapshots_streamed}) and converged to digest identity"
    );
    drop(late);
    drop(replica_nodes);

    // Phase 5: sharded reads behind scatter-gather routers.
    let schema_only = build_families_filtered(FAMILIES, rows, |_| false);
    let map = scale_shard_map(&schema_only, SHARDS);
    let shard_args: Vec<Vec<String>> = (0..SHARDS)
        .map(|i| {
            vec![
                i.to_string(),
                SHARDS.to_string(),
                FAMILIES.to_string(),
                rows.to_string(),
            ]
        })
        .collect();
    let shard_nodes: Vec<ChildNode> = shard_args
        .iter()
        .map(|a| ChildNode::spawn("--shard-node", a))
        .collect();
    let shard_addrs: Vec<SocketAddr> = shard_nodes.iter().map(|n| n.addr).collect();

    // Fat-node baseline: every family on one node (fresh, no deletes).
    let fat = Arc::new(ServiceCore::new(
        build_families(FAMILIES, rows),
        EngineOptions::default(),
    ));
    let fat_server =
        serve(Arc::clone(&fat), "127.0.0.1:0", CLIENTS_PER * SHARDS + 2).expect("fat node serves");
    for q in &hot {
        fat.query(q).expect("warm fat");
    }
    let fat_qps = read_load(&[fat_server.addr()], CLIENTS_PER * SHARDS, requests, &hot);

    // Routed: the same total client count, each thread owning a router.
    let router_threads = CLIENTS_PER * SHARDS;
    let mut zero_fanout = true;
    let mut routed_digest_identity = true;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..router_threads)
            .map(|c| {
                let map = map.clone();
                let schema = schema_only.clone();
                let shard_addrs = &shard_addrs;
                let hot = &hot;
                s.spawn(move || {
                    let mut router =
                        Router::connect(schema, map, shard_addrs, RetryPolicy::default())
                            .expect("router connects");
                    for r in 0..requests {
                        let q = &hot[(c + r) % hot.len()];
                        let json = router.query(q).expect("routed query");
                        assert!(
                            json_u64_field(&json, "version").is_some(),
                            "bad reply {json}"
                        );
                    }
                    router.counters()
                })
            })
            .collect();
        for h in handles {
            let counters = h.join().expect("router thread");
            zero_fanout &= counters.scattered == 0 && counters.single_shard == requests as u64;
        }
    });
    let routed_qps = (router_threads * requests) as f64 / t0.elapsed().as_secs_f64();
    let shard_speedup = routed_qps / fat_qps.max(1e-9);
    assert!(
        zero_fanout,
        "family-local queries must route with zero fan-out"
    );
    // Routed answers are digest-identical to the fat node's.
    {
        let mut router = Router::connect(
            schema_only.clone(),
            map.clone(),
            &shard_addrs,
            RetryPolicy::default(),
        )
        .expect("verifier");
        for q in &hot {
            let routed = router.query(q).expect("routed");
            let fat_resp = fat.query(q).expect("fat");
            let ok = json_str_field(&routed, "digest")
                == Some(result_digest(&fat_resp.output).to_string());
            if !ok {
                eprintln!("   SHARD DIGEST MISMATCH on {q}: {routed}");
            }
            routed_digest_identity &= ok;
        }
    }
    assert!(
        routed_digest_identity,
        "routed answers diverged from the fat node"
    );
    println!(
        "   sharded ({SHARDS} shards, {FAMILIES} families): routed {routed_qps:.1} qps vs \
         fat node {fat_qps:.1} qps ({shard_speedup:.2}x), zero fan-out, digests identical"
    );
    fat_server.shutdown();
    drop(shard_nodes);
    server.shutdown();

    if json_output() {
        println!(
            "{{\"fig\": \"scale\", \"cpus\": {cpus}, \"replicas\": {REPLICAS}, \
             \"shards\": {SHARDS}, \"families\": {FAMILIES}, \"rows\": {rows}, \
             \"single_qps\": {single_qps:.1}, \"replicated_qps\": {replicated_qps:.1}, \
             \"replica_speedup\": {replica_speedup:.4}, \"writes\": {writes_applied}, \
             \"digest_identity\": {digest_identity}, \"lag_p99_ms_max\": {lag_p99_max:.4}, \
             \"deltas_applied\": {deltas_applied_total}, \
             \"late_joiner_snapshots\": {late_snapshots}, \
             \"snapshots_streamed\": {snapshots_streamed}, \
             \"fat_qps\": {fat_qps:.1}, \"routed_qps\": {routed_qps:.1}, \
             \"shard_speedup\": {shard_speedup:.4}, \"zero_fanout\": {zero_fanout}, \
             \"routed_digest_identity\": {routed_digest_identity}}}"
        );
    }

    // Like fig7's parallel gate: scale-out ratios are pure scheduling
    // noise when every process shares one core, so the throughput gates
    // only apply on multi-core hosts. The correctness assertions above
    // (digest identity, snapshot recovery, zero fan-out) ran regardless.
    if let Ok(min) = std::env::var("PROQL_MIN_SCALEOUT") {
        let min: f64 = min.parse().expect("PROQL_MIN_SCALEOUT parses");
        if cpus == 1 {
            println!("   scale-out gate skipped on a single-core host");
        } else {
            assert!(
                replica_speedup >= min,
                "replica scale-out {replica_speedup:.2}x below the PROQL_MIN_SCALEOUT={min} gate \
                 ({replicated_qps:.1} qps vs {single_qps:.1} qps on {cpus} CPUs)"
            );
            println!("   scale-out gate passed: {replica_speedup:.2}x >= {min}");
        }
    }
    if let Ok(max) = std::env::var("PROQL_MAX_REPLICA_LAG_MS") {
        let max: f64 = max.parse().expect("PROQL_MAX_REPLICA_LAG_MS parses");
        assert!(
            lag_p99_max <= max,
            "replica apply-lag p99 {lag_p99_max:.3} ms above the \
             PROQL_MAX_REPLICA_LAG_MS={max} gate"
        );
        println!("   replica-lag gate passed: {lag_p99_max:.3} ms <= {max} ms");
    }
    if let Ok(min) = std::env::var("PROQL_MIN_SHARD_SCALEOUT") {
        let min: f64 = min.parse().expect("PROQL_MIN_SHARD_SCALEOUT parses");
        if cpus == 1 {
            println!("   shard scale-out gate skipped on a single-core host");
        } else {
            assert!(
                shard_speedup >= min,
                "shard scale-out {shard_speedup:.2}x below the PROQL_MIN_SHARD_SCALEOUT={min} gate"
            );
            println!("   shard scale-out gate passed: {shard_speedup:.2}x >= {min}");
        }
    }
}
