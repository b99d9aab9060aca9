//! Wire-level tests for the event-loop transport: binary-framing
//! robustness under fuzzed garbage (text lines included) and byte-split
//! partial reads, admission-control shedding with no silent drops, the
//! response/PUSH interleaving the pipelined server makes possible, and
//! served frames matching the in-process dispatcher.

use proql::engine::EngineOptions;
use proql_cdss::topology::{build_system_with_island, CdssConfig, Topology};
use proql_common::rng::SplitMix64;
use proql_common::{tup, Schema, ValueType};
use proql_provgraph::system::example_2_1;
use proql_provgraph::ProvenanceSystem;
use proql_service::frame::{self, verb};
use proql_service::proto::{
    dispatch, error_payload, json_str_field, json_u64_field, push_json, subscribe_json,
};
use proql_service::server::{serve_with, ServerConfig};
use proql_service::{serve, BinClient, ServiceCore};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const Q: &str = "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x";

fn start(workers: usize) -> (Arc<ServiceCore>, proql_service::ServerHandle) {
    let core = Arc::new(ServiceCore::new(
        example_2_1().unwrap(),
        EngineOptions::default(),
    ));
    let handle = serve(Arc::clone(&core), "127.0.0.1:0", workers).unwrap();
    (core, handle)
}

/// An X → Y system whose cached entries are maintained on writes, so
/// subscriptions push deltas.
fn subscription_system(rows: i64) -> ProvenanceSystem {
    let mut sys = ProvenanceSystem::new();
    for name in ["X", "Y"] {
        sys.add_relation_with_local(
            Schema::build(name, &[("id", ValueType::Int), ("w", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
    }
    sys.add_mapping_text("mxy: Y(i, w) :- X(i, w)").unwrap();
    for i in 0..rows {
        sys.insert_local("X", tup![i, i * 10]).unwrap();
    }
    sys.run_exchange().unwrap();
    sys
}

/// A condition nested far past the parser's limit (20,000 `NOT`s, about
/// 80 KB) is a clean `ERR parse` over the wire, not a stack overflow that
/// aborts the server from a worker thread, and the same server keeps
/// answering. At the limit the query runs end to end on a worker and
/// answers exactly like its un-negated form.
#[test]
fn deeply_nested_condition_is_a_parse_error_not_a_crash() {
    let core = Arc::new(ServiceCore::new(
        subscription_system(12),
        EngineOptions::default(),
    ));
    let handle = serve(core, "127.0.0.1:0", 2).unwrap();
    let mut bin = BinClient::connect(handle.addr()).unwrap();
    let negated = |n: usize| {
        format!(
            "FOR [Y $x] INCLUDE PATH [$x] <-+ [] WHERE {}$x.id < 5 RETURN $x",
            "NOT ".repeat(n)
        )
    };
    let reply = bin
        .request(verb::QUERY, negated(20_000).as_bytes())
        .unwrap();
    assert_eq!(reply.verb, verb::ERR);
    let payload = reply.text().unwrap();
    assert!(payload.starts_with("parse: "), "{payload}");
    let plain = bin.query(&negated(0)).unwrap();
    let at_limit = bin.query(&negated(256)).unwrap();
    assert!(json_u64_field(&plain, "digest").is_some(), "{plain}");
    assert_eq!(
        json_u64_field(&at_limit, "digest"),
        json_u64_field(&plain, "digest")
    );
    let served = bin
        .query("FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
        .unwrap();
    assert!(json_u64_field(&served, "version").is_some(), "{served}");
    drop(bin);
    handle.shutdown();
}

/// Garbage on the wire must drop that connection cleanly — no panic, no
/// hang, no lost worker — and the server must keep serving fresh
/// connections. Fuzzed with a deterministic PRNG. A text request line is
/// garbage too: the server speaks frames only, so its first byte is a
/// bad magic byte.
#[test]
fn fuzzed_garbage_drops_the_connection_but_not_the_server() {
    const KINDS: usize = 5;
    const ROUNDS: usize = 10 * KINDS;
    let (core, handle) = start(2);
    let mut rng = SplitMix64::seed_from_u64(0xBADF00D);
    for round in 0..ROUNDS {
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.set_nodelay(true).unwrap();
        let garbage: Vec<u8> = match round % KINDS {
            // Magic byte then random junk. The flags byte is forced
            // nonzero so the stream is provably corrupt (pure random
            // junk can spell a valid frame prefix, which would make the
            // server legitimately wait for more bytes).
            0 => {
                let n = rng.gen_range_usize(4, 64);
                let mut g: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                g[0] = frame::MAGIC;
                g[2] = 0xFF;
                g
            }
            // A valid frame followed by a bad-magic byte.
            1 => {
                let mut g = frame::encode(verb::PING, 1, b"");
                g.push(0x00);
                g
            }
            // An oversized declared length.
            2 => {
                let mut g = frame::encode(verb::QUERY, 2, b"x");
                g[4..8].copy_from_slice(&(frame::MAX_PAYLOAD + 1).to_le_bytes());
                g
            }
            // Reserved flags set.
            3 => {
                let mut g = frame::encode(verb::QUERY, 3, b"x");
                g[2] = 0xFF;
                g
            }
            // A text request line instead of a frame.
            _ => format!("QUERY {Q}\n").into_bytes(),
        };
        s.write_all(&garbage).unwrap();
        // The server must close this connection (EOF), not hang or panic.
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink); // drains any pre-corruption responses
    }
    // Every framing error was counted and the server still answers.
    let stats = core.stats();
    assert!(
        stats.transport.protocol_errors >= ROUNDS as u64,
        "protocol errors: {}",
        stats.transport.protocol_errors
    );
    let mut c = BinClient::connect(handle.addr()).unwrap();
    assert!(c.query(Q).is_ok());
    handle.shutdown();
}

/// A frame delivered one byte at a time — a partial read at every
/// possible boundary — must decode exactly once and get its answer.
#[test]
fn partial_reads_split_at_every_byte_boundary() {
    let (_core, handle) = start(1);
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    let bytes = frame::encode(verb::QUERY, 99, Q.as_bytes());
    for b in &bytes {
        s.write_all(std::slice::from_ref(b)).unwrap();
        s.flush().unwrap();
    }
    // Read the one response frame off the raw socket.
    let mut rbuf = Vec::new();
    let mut scratch = [0u8; 4096];
    let reply = loop {
        if let Some((f, n)) = frame::decode(&rbuf).unwrap() {
            rbuf.drain(..n);
            break f;
        }
        let n = s.read(&mut scratch).unwrap();
        assert!(n > 0, "server closed before answering");
        rbuf.extend_from_slice(&scratch[..n]);
    };
    assert_eq!(reply.verb, verb::OK);
    assert_eq!(reply.id, 99);
    assert_eq!(json_u64_field(reply.text().unwrap(), "bindings"), Some(4));
    drop(s);
    handle.shutdown();
}

/// Saturate a 1-worker, 2-in-flight server with one pipelined batch:
/// shedding must engage, and every request must still get exactly one
/// response (OK or OVERLOADED) in request order — nothing silently
/// dropped.
#[test]
fn shedding_engages_and_no_accepted_request_is_dropped() {
    let sys =
        build_system_with_island(Topology::Chain, &CdssConfig::new(4, vec![3], 24), 8).unwrap();
    let core = Arc::new(ServiceCore::new(sys, EngineOptions::default()));
    let handle = serve_with(
        Arc::clone(&core),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            max_inflight: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Distinct uncached queries, so nothing completes instantly off the
    // cache while the batch is still being decoded.
    let queries: Vec<String> = (0..64)
        .map(|i| format!("FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE $x.k >= {i} RETURN $x"))
        .collect();
    let mut c = BinClient::connect(handle.addr()).unwrap();
    let reqs: Vec<(u8, &[u8])> = queries
        .iter()
        .map(|q| (verb::QUERY, q.as_bytes()))
        .collect();
    let ids = c.send_batch(&reqs).unwrap();

    let mut ok = 0u64;
    let mut shed = 0u64;
    for id in &ids {
        let f = c.recv_response().unwrap();
        assert_eq!(f.id, *id, "responses must arrive in request order");
        match f.verb {
            verb::OK => ok += 1,
            verb::OVERLOADED => shed += 1,
            other => panic!("unexpected verb {other} for request {id}"),
        }
    }
    assert_eq!(ok + shed, ids.len() as u64, "every request answered once");
    assert!(
        shed > 0,
        "a 1-worker 2-in-flight server must shed this batch"
    );
    assert!(ok > 0, "admitted requests must still execute");

    let stats = core.stats();
    assert_eq!(stats.transport.shed_count, shed);
    assert_eq!(stats.queries, ok, "exactly the admitted requests executed");
    drop(c);
    handle.shutdown();
}

/// Regression (a client's push reader once dropped responses): a PUSH
/// arriving between a request and its response must be stashed on both
/// read paths, never lost, in either order of retrieval.
#[test]
fn push_and_response_interleaving_loses_neither() {
    let core = Arc::new(ServiceCore::new(
        subscription_system(40),
        EngineOptions::default(),
    ));
    let handle = serve(Arc::clone(&core), "127.0.0.1:0", 2).unwrap();
    let qy = "FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x";

    let mut sub = BinClient::connect(handle.addr()).unwrap();
    let mut writer = BinClient::connect(handle.addr()).unwrap();
    let ack = sub.subscribe(qy).unwrap();
    let sub_id = json_u64_field(&ack, "subscription").unwrap();

    for i in 0..10 {
        // The write fires an asynchronous PUSH at the subscriber while
        // the subscriber races its own request down the same socket.
        let del = writer
            .request(verb::DELETE, format!("X {i}").as_bytes())
            .unwrap();
        assert_eq!(del.verb, verb::OK, "{del:?}");
        let resp = sub.query(qy).unwrap();
        assert!(json_u64_field(&resp, "bindings").is_some());
        // The push must be retrievable afterwards whether it raced the
        // response or not, and carry this subscription's id.
        let push = sub.next_push().unwrap();
        assert_eq!(push.id, sub_id);
        let push = push.text().unwrap();
        assert_eq!(json_u64_field(push, "subscription"), Some(sub_id));
        assert_eq!(json_str_field(push, "event").as_deref(), Some("delta"));
    }
    drop(sub);
    drop(writer);
    handle.shutdown();
}

/// Binary-mode pushes arrive as out-of-band PUSH frames, in write order
/// per connection, with versions strictly increasing.
#[test]
fn binary_pushes_are_ordered_per_connection() {
    let core = Arc::new(ServiceCore::new(
        subscription_system(40),
        EngineOptions::default(),
    ));
    let handle = serve(Arc::clone(&core), "127.0.0.1:0", 2).unwrap();
    let qy = "FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x";

    let mut sub = BinClient::connect(handle.addr()).unwrap();
    let ack = sub.subscribe(qy).unwrap();
    let sub_id = json_u64_field(&ack, "subscription").unwrap();

    let mut writer = BinClient::connect(handle.addr()).unwrap();
    for i in 0..8 {
        let del = writer
            .request(verb::DELETE, format!("X {i}").as_bytes())
            .unwrap();
        assert_eq!(del.verb, verb::OK, "{del:?}");
    }
    let mut last_version = 0u64;
    for _ in 0..8 {
        let push = sub.next_push().unwrap();
        assert_eq!(push.verb, verb::PUSH);
        assert_eq!(push.id, sub_id);
        let json = push.text().unwrap();
        let version = json_u64_field(json, "version").unwrap();
        assert!(
            version > last_version,
            "push versions must increase in order: {version} after {last_version}"
        );
        last_version = version;
    }
    drop(sub);
    drop(writer);
    handle.shutdown();
}

/// Read one frame off a raw socket (blocking until complete).
fn read_raw_frame(s: &mut TcpStream, rbuf: &mut Vec<u8>) -> frame::Frame {
    let mut scratch = [0u8; 4096];
    loop {
        if let Some((f, n)) = frame::decode(rbuf).unwrap() {
            rbuf.drain(..n);
            return f;
        }
        let n = s.read(&mut scratch).unwrap();
        assert!(n > 0, "server closed before answering");
        rbuf.extend_from_slice(&scratch[..n]);
    }
}

/// The `HELLO` handshake: the server advertises its protocol version,
/// refuses versions it cannot serve with a clean per-request error, and
/// the connection survives every outcome.
#[test]
fn hello_handshake_negotiates_and_rejects_cleanly() {
    let (_core, handle) = start(1);
    let mut bin = BinClient::connect(handle.addr()).unwrap();

    // The happy path: the helper sends this build's version.
    let ok = bin.hello().unwrap();
    assert_eq!(
        json_u64_field(&ok, "protocol"),
        Some(u64::from(frame::PROTOCOL_VERSION))
    );

    // A future-but-in-window version is a clean ERR, not a disconnect.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    let mut rbuf = Vec::new();
    s.write_all(&frame::encode(verb::HELLO, 1, b"5")).unwrap();
    let reply = read_raw_frame(&mut s, &mut rbuf);
    assert_eq!(reply.verb, verb::ERR);
    assert!(reply.text().unwrap().contains("unsupported"), "{reply:?}");

    // Outside the window or garbage: parse errors, still no disconnect.
    for payload in [b"0".as_slice(), b"99".as_slice(), b"banana".as_slice()] {
        s.write_all(&frame::encode(verb::HELLO, 2, payload))
            .unwrap();
        let reply = read_raw_frame(&mut s, &mut rbuf);
        assert_eq!(reply.verb, verb::ERR, "payload {payload:?}");
    }

    // The same connection keeps serving queries afterwards.
    s.write_all(&frame::encode(verb::QUERY, 3, Q.as_bytes()))
        .unwrap();
    let reply = read_raw_frame(&mut s, &mut rbuf);
    assert_eq!(reply.verb, verb::OK);
    assert_eq!(reply.id, 3);

    drop(bin);
    drop(s);
    handle.shutdown();
}

/// A well-formed frame stamped with a future protocol version that is
/// still inside the decoder's window gets a clean per-frame ERR — the
/// connection, its pipeline, and the protocol-error counter are all
/// untouched. Beyond the window the byte can only be corruption, so the
/// connection is dropped and counted.
#[test]
fn in_window_future_frame_versions_err_cleanly_without_dropping() {
    let (core, handle) = start(1);
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    let mut rbuf = Vec::new();

    // Patch the header's version byte to an in-window future version.
    let mut bytes = frame::encode(verb::QUERY, 41, Q.as_bytes());
    bytes[2] = frame::PROTOCOL_VERSION + 1;
    assert!(bytes[2] <= frame::VERSION_WINDOW);
    s.write_all(&bytes).unwrap();
    let reply = read_raw_frame(&mut s, &mut rbuf);
    assert_eq!(reply.verb, verb::ERR);
    assert_eq!(reply.id, 41, "the ERR must answer the offending frame's id");
    assert!(
        reply.text().unwrap().contains("frame protocol version"),
        "{reply:?}"
    );

    // The connection is still healthy: a normal frame right behind it.
    s.write_all(&frame::encode(verb::QUERY, 42, Q.as_bytes()))
        .unwrap();
    let reply = read_raw_frame(&mut s, &mut rbuf);
    assert_eq!(reply.verb, verb::OK);
    assert_eq!(reply.id, 42);
    assert_eq!(
        core.stats().transport.protocol_errors,
        0,
        "an in-window version is not a protocol error"
    );

    // Beyond the window: framing corruption — dropped and counted.
    let mut bad = frame::encode(verb::QUERY, 43, Q.as_bytes());
    bad[2] = frame::VERSION_WINDOW + 1;
    s.write_all(&bad).unwrap();
    let mut scratch = [0u8; 256];
    loop {
        match s.read(&mut scratch) {
            Ok(0) => break,
            Ok(_) => continue, // drain anything already queued
            Err(_) => break,
        }
    }
    assert_eq!(core.stats().transport.protocol_errors, 1);

    handle.shutdown();
}

/// How a parity row's two replies are compared.
#[derive(Clone, Copy)]
enum Same {
    /// Payload bytes equal.
    Bytes,
    /// Payloads equal once every number is masked: `STATS` carries
    /// latency percentiles, which are measurements.
    Shape,
    /// Same reply kind and error kind only: an unknown verb is named by
    /// a byte on the wire and by a word in process.
    ErrorKind,
    /// Both payloads open with this text: `TRACE` dumps the process-wide
    /// span ring, whose ids and timings are nobody's to predict.
    Opens(&'static str),
}

fn mask_numbers(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_number = false;
    for c in s.chars() {
        if c.is_ascii_digit() || (in_number && c == '.') {
            if !in_number {
                out.push('#');
            }
            in_number = true;
        } else {
            in_number = false;
            out.push(c);
        }
    }
    out
}

/// Served frames equal the in-process dispatcher. The same request
/// sequence against two identically built cores — one served and asked
/// over [`BinClient`], one asked through [`dispatch`] in process — must
/// produce the same reply kind and the same payload bytes, for every
/// verb, for decoder- and dispatcher-level errors, and for the PUSH a
/// touching write fires. `SUBSCRIBE` needs a connection to push down, so
/// in process it registers a collecting sink with the core directly, as
/// the server does for its connection. (`REPL_SUBSCRIBE`'s stream is
/// `tests/replication.rs`'s.)
#[test]
fn served_frames_match_in_process_dispatch() {
    let qy = "FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
    let fresh = || {
        Arc::new(ServiceCore::new(
            subscription_system(12),
            EngineOptions::default(),
        ))
    };
    let (served, local) = (fresh(), fresh());
    let server = serve(served, "127.0.0.1:0", 1).unwrap();
    let mut bin = BinClient::connect(server.addr()).unwrap();
    let local_pushes = Arc::new(Mutex::new(Vec::new()));

    let explain = format!("EXPLAIN {qy}");
    let table: Vec<(&str, u8, &str, Same)> = vec![
        ("PING", verb::PING, "", Same::Bytes),
        ("HELLO", verb::HELLO, "1", Same::Bytes),
        ("HELLO", verb::HELLO, "5", Same::Bytes),
        ("HELLO", verb::HELLO, "banana", Same::Bytes),
        ("QUERY", verb::QUERY, qy, Same::Bytes),
        ("QUERY", verb::QUERY, qy, Same::Bytes), // the cache hit
        ("QUERY", verb::QUERY, &explain, Same::Bytes),
        ("QUERY", verb::QUERY, "FOR [Y $x RETURN $x", Same::Bytes),
        ("QUERY", verb::QUERY, "", Same::Bytes),
        ("SUBSCRIBE", verb::SUBSCRIBE, qy, Same::Bytes),
        (
            "SUBSCRIBE",
            verb::SUBSCRIBE,
            "FOR [Y $x RETURN $x",
            Same::Bytes,
        ),
        ("INSERT", verb::INSERT, "X 100,1000", Same::Bytes),
        ("INSERT", verb::INSERT, "X 100,1000", Same::Bytes), // the no-op
        ("INSERT", verb::INSERT, "X", Same::Bytes),
        ("DELETE", verb::DELETE, "X 3", Same::Bytes),
        ("DELETE", verb::DELETE, "X 999", Same::Bytes),
        ("DELETE", verb::DELETE, "Nope 1", Same::Bytes),
        ("STATS", verb::STATS, "", Same::Shape),
        ("STATS", verb::STATS, "TEXT", Same::Shape),
        ("TRACE", verb::TRACE, "", Same::Opens("{\"traces\": [")),
        ("TRACE", verb::TRACE, "4", Same::Opens("{\"traces\": [")),
        ("TRACE", verb::TRACE, "four", Same::Bytes),
        ("INVALIDATE", verb::INVALIDATE, "", Same::Bytes),
        ("FROB", 77, "x", Same::ErrorKind),
    ];
    for (word, byte, text, same) in table {
        let row = format!("{word} {text:?}");
        let in_process = if byte == verb::SUBSCRIBE {
            let pushes = Arc::clone(&local_pushes);
            local
                .subscribe_sink(
                    text,
                    Box::new(move |id, event| {
                        pushes.lock().unwrap().push(push_json(id, &event));
                        true
                    }),
                )
                .map(|(id, resp)| subscribe_json(id, &resp))
        } else {
            dispatch(&local, word, text)
        }
        .map_err(|e| error_payload(&e));
        let f = bin.request(byte, text.as_bytes()).unwrap();
        let bin_payload = f.text().unwrap();
        let local_payload = match (f.verb, &in_process) {
            (verb::OK, Ok(json)) => json.as_str(),
            (verb::ERR, Err(msg)) => msg.as_str(),
            (other, _) => panic!("{row}: reply verb {other}, in process {in_process:?}"),
        };
        match same {
            Same::Bytes => assert_eq!(bin_payload, local_payload, "{row}"),
            Same::Shape => assert_eq!(
                mask_numbers(bin_payload),
                mask_numbers(local_payload),
                "{row}"
            ),
            Same::Opens(prefix) => {
                assert!(bin_payload.starts_with(prefix), "{row}: {bin_payload}");
                assert!(local_payload.starts_with(prefix), "{row}: {local_payload}");
            }
            Same::ErrorKind => {
                assert_eq!(f.verb, verb::ERR, "{row}");
                assert_eq!(
                    bin_payload.split_once(": ").unwrap().0,
                    local_payload.split_once(": ").unwrap().0,
                    "{row}"
                );
            }
        }
    }

    // Two rows published a write the subscription's read set intersects
    // (the INSERT and the DELETE that succeeded; the no-op and the
    // failures publish nothing): one PUSH each, byte for byte what the
    // in-process sink received.
    let local_pushes = local_pushes.lock().unwrap().clone();
    assert_eq!(local_pushes.len(), 2, "{local_pushes:?}");
    for local_push in &local_pushes {
        let bin_push = bin.next_push().unwrap();
        assert_eq!(bin_push.verb, verb::PUSH);
        assert_eq!(bin_push.text().unwrap(), local_push);
    }
    drop(bin);
    server.shutdown();
}
