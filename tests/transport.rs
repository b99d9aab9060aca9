//! Wire-level tests for the event-loop transport: binary-framing
//! robustness under fuzzed garbage and byte-split partial reads,
//! admission-control shedding with no silent drops, and the
//! response/PUSH interleaving the pipelined server makes possible.

use proql::engine::EngineOptions;
use proql_cdss::topology::{build_system_with_island, CdssConfig, Topology};
use proql_common::rng::SplitMix64;
use proql_common::{tup, Schema, ValueType};
use proql_provgraph::system::example_2_1;
use proql_provgraph::ProvenanceSystem;
use proql_service::frame::{self, verb};
use proql_service::proto::{json_str_field, json_u64_field};
use proql_service::server::{serve_with, ServerConfig};
use proql_service::{serve, BinClient, Client, ServiceCore};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
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

/// Garbage after the binary-mode magic byte must drop that connection
/// cleanly — no panic, no lost worker — and the server must keep serving
/// fresh connections. Fuzzed with a deterministic PRNG.
#[test]
fn fuzzed_garbage_drops_the_connection_but_not_the_server() {
    let (core, handle) = start(2);
    let mut rng = SplitMix64::seed_from_u64(0xBADF00D);
    for round in 0..40 {
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.set_nodelay(true).unwrap();
        let garbage: Vec<u8> = match round % 4 {
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
            _ => {
                let mut g = frame::encode(verb::QUERY, 3, b"x");
                g[2] = 0xFF;
                g
            }
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
        stats.transport.protocol_errors >= 40,
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

/// Regression (previously `next_push` dropped response lines): a PUSH
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

    let mut sub = Client::connect(handle.addr()).unwrap();
    let mut writer = Client::connect(handle.addr()).unwrap();
    let ack = sub.subscribe(qy).unwrap();
    let sub_id = json_u64_field(&ack, "subscription").unwrap();

    for i in 0..10 {
        // The write fires an asynchronous PUSH at the subscriber while
        // the subscriber races its own request down the same socket.
        let del = writer.request(&format!("DELETE X {i}")).unwrap();
        assert!(del.starts_with("OK "), "{del}");
        let resp = sub.query(qy).unwrap();
        assert!(json_u64_field(&resp, "bindings").is_some());
        // The push must be retrievable afterwards whether it raced the
        // response or not, and carry this subscription's id.
        let push = sub.next_push().unwrap();
        assert_eq!(json_u64_field(&push, "subscription"), Some(sub_id));
        assert_eq!(json_str_field(&push, "event").as_deref(), Some("delta"));
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

    let mut writer = Client::connect(handle.addr()).unwrap();
    for i in 0..8 {
        let del = writer.request(&format!("DELETE X {i}")).unwrap();
        assert!(del.starts_with("OK "), "{del}");
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

/// The line protocol still works over the same port, auto-detected, with
/// both protocol clients connected at once.
#[test]
fn line_and_binary_clients_share_one_server() {
    let (_core, handle) = start(2);
    let mut line = Client::connect(handle.addr()).unwrap();
    let mut bin = BinClient::connect(handle.addr()).unwrap();
    let a = line.query(Q).unwrap();
    let b = bin.query(Q).unwrap();
    assert_eq!(json_str_field(&a, "digest"), json_str_field(&b, "digest"));
    let pong = line.request("PING").unwrap();
    assert!(pong.starts_with("OK"), "{pong}");
    drop(line);
    drop(bin);
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

/// The handshake and replication verbs reach the one dispatcher from a
/// line connection too: `HELLO` answers the same version JSON a binary
/// client gets, and `REPL_SUBSCRIBE` — whose stream is binary frames a
/// line connection cannot carry — is refused with a clean `ERR`. (Both
/// used to answer `unknown verb`.)
#[test]
fn line_mode_hello_and_repl_subscribe_reach_the_dispatcher() {
    let (core, handle) = start(1);
    let mut line = Client::connect(handle.addr()).unwrap();
    let mut bin = BinClient::connect(handle.addr()).unwrap();

    let hello = line
        .request(&format!("HELLO {}", frame::PROTOCOL_VERSION))
        .unwrap();
    assert_eq!(hello, format!("OK {}", bin.hello().unwrap()));
    assert!(line.request("hello 5").unwrap().contains("unsupported"));

    let refused = line.request("REPL_SUBSCRIBE 0").unwrap();
    assert_eq!(
        refused,
        "ERR error: unsupported: REPL_SUBSCRIBE requires the binary framing"
    );
    assert_eq!(core.repl_subscriber_count(), 0);
    // The connection survives the refusal.
    assert!(line.request("PING").unwrap().starts_with("OK "));

    // The usage message names every verb a line may start with.
    let unknown = line.request("FROB x").unwrap();
    for word in [
        "QUERY",
        "DELETE",
        "INSERT",
        "STATS",
        "INVALIDATE",
        "PING",
        "SUBSCRIBE",
        "TRACE",
        "HELLO",
        "REPL_SUBSCRIBE",
    ] {
        assert!(unknown.contains(word), "{word} missing from: {unknown}");
    }
    drop(line);
    drop(bin);
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
    /// a word on one wire and a byte on the other.
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

/// Protocol parity: the two wire formats are two spellings of one
/// protocol. The same request sequence against identically built cores
/// must produce the same reply kind and the same payload bytes whether
/// it travels as lines or as frames — for every verb, for decoder- and
/// dispatcher-level errors, and for the PUSH a touching write fires.
/// (`REPL_SUBSCRIBE` is the one verb with no line spelling to compare:
/// `line_mode_hello_and_repl_subscribe_reach_the_dispatcher` holds its
/// refusal.)
#[test]
fn line_and_binary_replies_are_byte_identical() {
    let qy = "FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
    let serve_fresh = || {
        let core = Arc::new(ServiceCore::new(
            subscription_system(12),
            EngineOptions::default(),
        ));
        serve(core, "127.0.0.1:0", 1).unwrap()
    };
    let (line_server, bin_server) = (serve_fresh(), serve_fresh());
    let mut line = Client::connect(line_server.addr()).unwrap();
    let mut bin = BinClient::connect(bin_server.addr()).unwrap();

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
        let reply = line.request(format!("{word} {text}").trim_end()).unwrap();
        let (line_kind, line_payload) = reply.split_once(' ').unwrap();
        let f = bin.request(byte, text.as_bytes()).unwrap();
        let bin_payload = f.text().unwrap();
        match f.verb {
            verb::OK => assert_eq!(line_kind, "OK", "{row}: {reply}"),
            verb::ERR => assert_eq!(line_kind, "ERR", "{row}: {reply}"),
            other => panic!("{row}: unexpected reply verb {other}"),
        }
        match same {
            Same::Bytes => assert_eq!(line_payload, bin_payload, "{row}"),
            Same::Shape => assert_eq!(
                mask_numbers(line_payload),
                mask_numbers(bin_payload),
                "{row}"
            ),
            Same::Opens(prefix) => {
                assert!(line_payload.starts_with(prefix), "{row}: {reply}");
                assert!(bin_payload.starts_with(prefix), "{row}: {bin_payload}");
            }
            Same::ErrorKind => {
                assert_eq!(f.verb, verb::ERR, "{row}");
                assert_eq!(
                    line_payload.split_once(": ").unwrap().0,
                    bin_payload.split_once(": ").unwrap().0,
                    "{row}"
                );
            }
        }
    }

    // Two rows published a write the subscription's read set intersects
    // (the INSERT and the DELETE that succeeded; the no-op and the
    // failures publish nothing): one PUSH each, byte for byte the same
    // on both wires.
    for _ in 0..2 {
        let line_push = line.next_push().unwrap();
        let bin_push = bin.next_push().unwrap();
        assert_eq!(bin_push.verb, verb::PUSH);
        assert_eq!(line_push, bin_push.text().unwrap());
    }
    drop(line);
    drop(bin);
    line_server.shutdown();
    bin_server.shutdown();
}
