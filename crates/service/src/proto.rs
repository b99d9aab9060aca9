//! The protocol: verbs, the one dispatcher, and the one reply encoder.
//!
//! A request is a verb byte from [`crate::frame::verb`] plus argument
//! text, carried as they are by the binary framing ([`crate::frame`]).
//! `execute` runs it against a [`ServiceCore`]; the JSON (or error) it
//! returns becomes an `OK` (or `ERR`) frame through `reply`. The verbs
//! also have words ([`dispatch`] takes one), used for naming verbs in
//! errors and for in-process callers.
//!
//! Replies are either `OK` with a JSON object or `ERR` with `<kind>:
//! <message>` (message newlines flattened). Verbs:
//!
//! | verb | args | reply payload |
//! |---|---|---|
//! | `QUERY` | ProQL text | version, cache hit/miss, plan cache hit/bound/planned/miss, result sizes, digest; `EXPLAIN <query>` adds the rendered plan |
//! | `DELETE` | `<relation> <v1,v2,...>` | version, delete stats |
//! | `INSERT` | `<relation> <v1,v2,...>` | version, write-set size |
//! | `STATS` | `[TEXT]` | [`crate::stats::ServiceStats`] JSON; with `TEXT`, the `name value` line rendering inside `{"text": ...}` |
//! | `INVALIDATE` | — | number of dropped cache entries |
//! | `PING` | — | `{"pong": true}` |
//! | `SUBSCRIBE` | ProQL text | like `QUERY` plus a `subscription` id; the server then pushes `PUSH` frames on writes |
//! | `TRACE` | `[n]` | the `n` (default 8, max 64) most recent span trees from the telemetry ring as JSON |
//! | `QUIT` | — | no reply: the connection closes once pending responses drain |
//! | `HELLO` | protocol version | `{"protocol": n}` — the version this server speaks |
//! | `REPL_SUBSCRIBE` | `<from_version> [SNAPSHOT]` | `{"repl_subscription": id, "version": n}`; replication frames follow out-of-band |
//!
//! Tuple values in `DELETE`/`INSERT` are comma-separated and typed by
//! shape: `true`/`false` → bool, integers → int, decimals → float,
//! `NULL` → null, everything else → string.
//!
//! `SUBSCRIBE` breaks the strict request/response lockstep: after the
//! `OK` reply, the server may interleave asynchronous `PUSH` frames —
//! a `"delta"` event when the subscribed answer was patched forward by
//! incremental maintenance (carrying the new version, patched row count,
//! and the answer's digest) or a `"resync"` event when the client must
//! re-issue the query. Pushes are a frame verb of their own, so
//! [`crate::client::BinClient`] stashes them apart from responses.

use crate::core::{PlanReuse, QueryResponse, ServiceCore};
use crate::fanout::SubscriptionEvent;
use crate::frame::{self, verb};
use crate::server::ConnShared;
use proql::engine::QueryOutput;
use proql_common::{trace, Error, Tuple, Value};
use std::sync::Arc;

/// Parse a comma-separated value list into a [`Tuple`].
pub fn parse_values(text: &str) -> Result<Tuple, Error> {
    if text.trim().is_empty() {
        return Err(Error::Parse("empty value list".into()));
    }
    let vals = text.split(',').map(parse_value).collect();
    Ok(Tuple::new(vals))
}

fn parse_value(raw: &str) -> Value {
    let raw = raw.trim();
    if raw.eq_ignore_ascii_case("null") {
        return Value::Null;
    }
    if raw == "true" {
        return Value::Bool(true);
    }
    if raw == "false" {
        return Value::Bool(false);
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Value::Float(f);
    }
    Value::from(raw)
}

/// A stable 64-bit digest of a query answer (FNV-1a over a canonical
/// rendering of bindings, derivations, and annotations). Two outputs
/// digest equal iff their observable content is identical — the
/// concurrency stress test and the wire protocol both use this to check
/// bit-identical results without shipping whole result sets. Every reply
/// to a `QUERY` computes it, so rows are rendered straight into the hash
/// rather than into a string each.
pub fn result_digest(out: &QueryOutput) -> u64 {
    let mut h = Fnv1a::default();
    for (mapping, rows) in &out.projection.derivations {
        h.field(format_args!("D"));
        h.field(format_args!("{mapping}"));
        for row in rows {
            h.field(format_args!("{row:?}"));
        }
    }
    for binding in &out.projection.bindings {
        h.field(format_args!("B"));
        for (var, (rel, key)) in binding {
            h.field(format_args!("{var}"));
            h.field(format_args!("{rel}"));
            h.field(format_args!("{key:?}"));
        }
    }
    if let Some(ann) = &out.annotated {
        h.field(format_args!("A"));
        // Annotation row order is an implementation detail; sort a
        // canonical rendering so the digest is order-insensitive.
        let mut rows: Vec<String> = ann
            .rows
            .iter()
            .map(|r| format!("{}{:?}={}", r.relation, r.key, r.annotation))
            .collect();
        rows.sort();
        for r in rows {
            h.field(format_args!("{r}"));
        }
    }
    h.0
}

/// FNV-1a over the bytes written to it.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Fnv1a {
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }

    /// Hash one rendered field, then the field separator.
    fn field(&mut self, args: std::fmt::Arguments<'_>) {
        let _ = std::fmt::Write::write_fmt(self, args);
        self.byte(0x1f);
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        s.bytes().for_each(|b| self.byte(b));
        Ok(())
    }
}

/// JSON string literal escaping for the hand-rolled encoders.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a `QUERY` reply payload. `plan_cache` reports how the plans
/// were obtained ([`PlanReuse::name`]; `miss` on a result-cache hit, which
/// consults no plan); `EXPLAIN` queries additionally carry the rendered
/// plan text in a `plan` field.
pub fn query_json(resp: &QueryResponse) -> String {
    let out = &resp.output;
    let mut json = format!(
        "{{\"version\": {}, \"cache\": {}, \"plan_cache\": {}, \"bindings\": {}, \
         \"derivations\": {}, \"annotations\": {}, \"touched\": {}, \"digest\": {}",
        resp.version,
        json_str(if resp.cache_hit { "hit" } else { "miss" }),
        json_str(resp.plan_cache.map_or("miss", PlanReuse::name)),
        out.projection.bindings.len(),
        out.projection.derivation_count(),
        out.annotated.as_ref().map(|a| a.rows.len()).unwrap_or(0),
        out.touched.len(),
        json_str(&result_digest(out).to_string()),
    );
    if let Some(plan) = &out.plan {
        json.push_str(&format!(", \"plan\": {}", json_str(plan)));
    }
    json.push('}');
    json
}

/// Render a `SUBSCRIBE` reply payload: the initial answer (as in
/// [`query_json`]) prefixed with the subscription id the pushed events
/// will be tagged with.
pub fn subscribe_json(id: u64, resp: &QueryResponse) -> String {
    let inner = query_json(resp);
    format!(
        "{{\"subscription\": {id}, {}",
        inner.strip_prefix('{').unwrap_or(&inner)
    )
}

/// Render one pushed subscription event (the payload after `PUSH `).
pub fn push_json(id: u64, event: &SubscriptionEvent) -> String {
    match event {
        SubscriptionEvent::Delta {
            version,
            rows_patched,
            digest,
        } => format!(
            "{{\"subscription\": {id}, \"event\": \"delta\", \"version\": {version}, \
             \"rows_patched\": {rows_patched}, \"digest\": {}}}",
            json_str(&digest.to_string()),
        ),
        SubscriptionEvent::Resync { version } => {
            format!("{{\"subscription\": {id}, \"event\": \"resync\", \"version\": {version}}}")
        }
    }
}

/// Extract an unsigned-integer field from one of this protocol's own
/// flat JSON payloads. Not a general JSON parser — fields are scanned
/// textually — but sufficient for clients of this wire format.
pub fn json_u64_field(json: &str, key: &str) -> Option<u64> {
    let token: String = extract_token(json, key)?;
    token.parse().ok()
}

/// Extract a float field (also accepts integer tokens).
pub fn json_f64_field(json: &str, key: &str) -> Option<f64> {
    extract_token(json, key)?.parse().ok()
}

/// Extract a string field (returns the unescaped inner text).
pub fn json_str_field(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": ");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    if !rest.starts_with('"') {
        return None;
    }
    let mut out = String::new();
    let mut chars = rest[1..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                // `json_str` emits control characters as \u00XX escapes
                // (EXPLAIN plan text contains newlines); decode them.
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                esc => out.push(esc),
            },
            c => out.push(c),
        }
    }
    None
}

fn extract_token(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": ");
    let start = json.find(&needle)? + needle.len();
    let token: String = json[start..]
        .chars()
        .take_while(|c| !matches!(c, ',' | '}' | ' '))
        .collect();
    // Digests travel as JSON strings to avoid 53-bit integer truncation
    // in consumers; accept both bare and quoted tokens.
    Some(token.trim_matches('"').to_string())
}

/// The request verbs by their words. `QUIT` is absent on purpose: it
/// closes the connection instead of executing, so the frame decoder acts
/// on it before a request exists.
const VERB_WORDS: [(&str, u8); 10] = [
    ("QUERY", verb::QUERY),
    ("DELETE", verb::DELETE),
    ("INSERT", verb::INSERT),
    ("STATS", verb::STATS),
    ("INVALIDATE", verb::INVALIDATE),
    ("PING", verb::PING),
    ("SUBSCRIBE", verb::SUBSCRIBE),
    ("TRACE", verb::TRACE),
    ("HELLO", verb::HELLO),
    ("REPL_SUBSCRIBE", verb::REPL_SUBSCRIBE),
];

/// The verb byte a verb word (any case) names.
fn verb_of_word(word: &str) -> Result<u8, Error> {
    VERB_WORDS
        .iter()
        .find(|(w, _)| word.eq_ignore_ascii_case(w))
        .map(|&(_, v)| v)
        .ok_or_else(|| {
            let words: Vec<&str> = VERB_WORDS.iter().map(|&(w, _)| w).collect();
            Error::Parse(format!(
                "unknown verb {:?}; expected {}",
                word.to_ascii_uppercase(),
                words.join("/")
            ))
        })
}

/// The `PING` reply's payload.
pub(crate) const PONG: &str = "{\"pong\": true}";

/// Execute one request — a verb byte plus its argument text — against a
/// service, returning the reply's JSON payload. This is the only
/// dispatcher: the TCP server's workers call it with the requesting
/// connection, and [`dispatch`] calls it with none (the two subscription
/// verbs need a connection to push down).
pub(crate) fn execute(
    core: &ServiceCore,
    conn: Option<&Arc<ConnShared>>,
    verb: u8,
    text: &str,
) -> Result<String, Error> {
    let text = text.trim();
    match verb {
        verb::QUERY => query_cmd(core, text),
        verb::DELETE => delete_cmd(core, text),
        verb::INSERT => insert_cmd(core, text),
        verb::STATS if text.eq_ignore_ascii_case("TEXT") => Ok(format!(
            "{{\"text\": {}}}",
            json_str(&core.stats().to_text())
        )),
        verb::STATS => Ok(core.stats().to_json()),
        verb::INVALIDATE => Ok(format!("{{\"cleared\": {}}}", core.invalidate())),
        verb::PING => Ok(PONG.to_string()),
        verb::TRACE => trace_cmd(text),
        verb::HELLO => hello_cmd(text),
        verb::SUBSCRIBE | verb::REPL_SUBSCRIBE => {
            let conn = conn.ok_or_else(|| {
                Error::Other(
                    "subscriptions require a streaming connection (served over TCP only)".into(),
                )
            })?;
            if verb == verb::SUBSCRIBE {
                conn.subscribe(core, text)
            } else {
                conn.repl_subscribe(core, text)
            }
        }
        other => Err(Error::Parse(format!("unknown frame verb {other}"))),
    }
}

/// `execute` by verb *word*, outside any connection — the in-process
/// front of the dispatcher the server runs.
pub fn dispatch(core: &ServiceCore, verb: &str, rest: &str) -> Result<String, Error> {
    execute(core, None, verb_of_word(verb)?, rest)
}

/// Spell the answer to request `id` as a frame: `OK` with the JSON, or
/// `ERR` with the rendered error.
pub(crate) fn reply(id: u64, result: Result<String, String>) -> Vec<u8> {
    match result {
        Ok(json) => frame::encode(verb::OK, id, json.as_bytes()),
        Err(msg) => frame::encode(verb::ERR, id, msg.as_bytes()),
    }
}

/// Number of span trees a `TRACE` reply returns when the client names no
/// limit.
pub const TRACE_DEFAULT_LIMIT: usize = 8;

/// Hard cap on the span trees one `TRACE` reply serializes (the ring can
/// hold thousands of spans; an unbounded dump would stall the server).
pub const TRACE_MAX_LIMIT: usize = 64;

fn trace_cmd(rest: &str) -> Result<String, Error> {
    let limit = if rest.is_empty() {
        TRACE_DEFAULT_LIMIT
    } else {
        rest.parse::<usize>()
            .map_err(|_| Error::Parse(format!("TRACE limit must be a number, got {rest:?}")))?
            .min(TRACE_MAX_LIMIT)
    };
    Ok(trace::traces_json(limit))
}

/// Answer a `HELLO` handshake: the payload is the client's protocol
/// version as decimal text. A version this server cannot serve is a
/// clean error (the client may retry with a lower version on the same
/// connection); garbage is a parse error. The OK payload reports the
/// server's version either way the client can proceed.
fn hello_cmd(text: &str) -> Result<String, Error> {
    let client: u8 = text
        .parse()
        .map_err(|_| Error::Parse(format!("HELLO payload {text:?} is not a version number")))?;
    if client == 0 || client > frame::VERSION_WINDOW {
        return Err(Error::Parse(format!(
            "HELLO version {client} is outside the valid window 1..={}",
            frame::VERSION_WINDOW
        )));
    }
    if client > frame::PROTOCOL_VERSION {
        return Err(Error::Other(format!(
            "unsupported: protocol version {client} (this server speaks {})",
            frame::PROTOCOL_VERSION
        )));
    }
    Ok(format!("{{\"protocol\": {}}}", frame::PROTOCOL_VERSION))
}

/// Render an error as the `ERR` reply's payload: `<kind>: <message>`,
/// newlines flattened.
pub fn error_payload(e: &Error) -> String {
    format!("{}: {}", e.kind(), e.message().replace(['\n', '\r'], " "))
}

fn query_cmd(core: &ServiceCore, text: &str) -> Result<String, Error> {
    if text.is_empty() {
        return Err(Error::Parse("QUERY needs a ProQL query".into()));
    }
    Ok(query_json(&core.query(text)?))
}

fn split_relation_values(rest: &str) -> Result<(&str, &str), Error> {
    rest.split_once(char::is_whitespace)
        .map(|(r, v)| (r, v.trim()))
        .ok_or_else(|| Error::Parse("expected `<relation> <v1,v2,...>`".into()))
}

fn delete_cmd(core: &ServiceCore, rest: &str) -> Result<String, Error> {
    let (relation, values) = split_relation_values(rest)?;
    let key = parse_values(values)?;
    let (version, stats) = core.delete(relation, &key)?;
    Ok(format!(
        "{{\"version\": {}, \"tuples_deleted\": {}, \"prov_rows_deleted\": {}, \"touched\": {}}}",
        version,
        stats.tuples_deleted,
        stats.prov_rows_deleted,
        stats.touched.len()
    ))
}

fn insert_cmd(core: &ServiceCore, rest: &str) -> Result<String, Error> {
    let (relation, values) = split_relation_values(rest)?;
    let tuple = parse_values(values)?;
    let (version, write_set) = core.insert_and_exchange(relation, tuple)?;
    Ok(format!(
        "{{\"version\": {}, \"write_set\": {}}}",
        version,
        write_set.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql_common::tup;

    #[test]
    fn values_parse_by_shape() {
        assert_eq!(
            parse_values("1, sn1, true, 2.5, NULL").unwrap(),
            Tuple::new(vec![
                Value::Int(1),
                Value::from("sn1"),
                Value::Bool(true),
                Value::Float(2.5),
                Value::Null,
            ])
        );
        assert!(parse_values("   ").is_err());
    }

    #[test]
    fn digest_distinguishes_results_and_is_stable() {
        use proql::engine::Engine;
        use proql_provgraph::system::example_2_1;
        let e = Engine::new(example_2_1().unwrap());
        let a = e
            .query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        let b = e
            .query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        assert_eq!(result_digest(&a), result_digest(&b));
        let filtered = e
            .query("FOR [O $x] INCLUDE PATH [$x] <-+ [] WHERE $x.h >= 6 RETURN $x")
            .unwrap();
        assert_ne!(result_digest(&a), result_digest(&filtered));
    }

    /// The digest as first defined: every field rendered to a `String`,
    /// then hashed. Digests are compared across replicas and against
    /// stored values, so the streamed form must agree with it bit for
    /// bit.
    fn rendered_digest(out: &QueryOutput) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |s: &str| {
            for b in s.bytes().chain([0x1f]) {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for (mapping, rows) in &out.projection.derivations {
            eat("D");
            eat(mapping);
            for row in rows {
                eat(&format!("{row:?}"));
            }
        }
        for binding in &out.projection.bindings {
            eat("B");
            for (var, (rel, key)) in binding {
                eat(var);
                eat(rel);
                eat(&format!("{key:?}"));
            }
        }
        if let Some(ann) = &out.annotated {
            eat("A");
            let mut rows: Vec<String> = ann
                .rows
                .iter()
                .map(|r| format!("{}{:?}={}", r.relation, r.key, r.annotation))
                .collect();
            rows.sort();
            for r in rows {
                eat(&r);
            }
        }
        h
    }

    #[test]
    fn streamed_digest_equals_the_rendered_one() {
        use proql::engine::Engine;
        use proql_provgraph::system::example_2_1;
        let e = Engine::new(example_2_1().unwrap());
        for q in [
            "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
            "FOR [O $x] INCLUDE PATH [$x] <-+ [] WHERE $x.h >= 6 RETURN $x",
            "EVALUATE LINEAGE OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }",
            "EVALUATE DERIVABILITY OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }",
            "EXPLAIN FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
        ] {
            let out = e.query(q).unwrap();
            assert_eq!(result_digest(&out), rendered_digest(&out), "{q}");
        }
    }

    #[test]
    fn json_field_extraction_round_trips() {
        let json = "{\"version\": 12, \"cache\": \"hit\", \"rate\": 0.75, \"digest\": \"18446744073709551615\"}";
        assert_eq!(json_u64_field(json, "version"), Some(12));
        assert_eq!(json_str_field(json, "cache").as_deref(), Some("hit"));
        assert_eq!(json_f64_field(json, "rate"), Some(0.75));
        assert_eq!(json_u64_field(json, "digest"), Some(u64::MAX));
        assert_eq!(json_u64_field(json, "missing"), None);
    }

    /// [`dispatch`], with an error rendered as its `ERR` payload.
    fn call(core: &ServiceCore, verb: &str, rest: &str) -> Result<String, String> {
        dispatch(core, verb, rest).map_err(|e| error_payload(&e))
    }

    fn example_core() -> ServiceCore {
        use proql::engine::EngineOptions;
        use proql_provgraph::system::example_2_1;
        ServiceCore::new(example_2_1().unwrap(), EngineOptions::default())
    }

    #[test]
    fn unknown_verb_and_bad_args_report_err() {
        let core = example_core();
        assert!(call(&core, "FROB", "x").unwrap_err().starts_with("parse:"));
        assert!(call(&core, "QUERY", "").unwrap_err().starts_with("parse:"));
        assert!(call(&core, "DELETE", "C")
            .unwrap_err()
            .starts_with("parse:"));
        assert!(call(&core, "DELETE", "C 99,zz")
            .unwrap_err()
            .starts_with("not found:"));
    }

    /// Verb words match in any case, and the usage message for an
    /// unknown one names every verb a request may carry.
    #[test]
    fn unknown_verb_names_every_verb() {
        let core = example_core();
        assert_eq!(
            call(&core, "hello", "1").unwrap(),
            format!("{{\"protocol\": {}}}", frame::PROTOCOL_VERSION)
        );
        assert!(call(&core, "hello", "5")
            .unwrap_err()
            .contains("unsupported"));
        let unknown = call(&core, "FROB", "x").unwrap_err();
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
    }

    #[test]
    fn protocol_session_against_example() {
        let core = example_core();
        let q = "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
        let first = call(&core, "QUERY", q).unwrap();
        assert_eq!(json_str_field(&first, "cache").as_deref(), Some("miss"));
        assert_eq!(json_u64_field(&first, "bindings"), Some(4));
        let second = call(&core, "QUERY", q).unwrap();
        assert_eq!(json_str_field(&second, "cache").as_deref(), Some("hit"));
        assert_eq!(
            json_str_field(&first, "digest"),
            json_str_field(&second, "digest")
        );

        let del = call(&core, "DELETE", "C 2,cn2").unwrap();
        assert!(json_u64_field(&del, "tuples_deleted").unwrap() > 0);

        let third = call(&core, "QUERY", q).unwrap();
        assert_eq!(json_str_field(&third, "cache").as_deref(), Some("miss"));
        assert_eq!(json_u64_field(&third, "bindings"), Some(3));

        let stats = call(&core, "STATS", "").unwrap();
        assert_eq!(json_u64_field(&stats, "cache_hits"), Some(1));
        assert_eq!(json_u64_field(&stats, "writes"), Some(1));
        // Example 2.1 is cyclic → graph strategy → the delete's
        // maintenance attempt fell back to eviction, and STATS says so.
        assert_eq!(json_u64_field(&stats, "maint_fallbacks"), Some(1));
        assert_eq!(json_u64_field(&stats, "maint_hits"), Some(0));
        assert!(json_u64_field(&stats, "delta_compactions").is_some());

        let inv = call(&core, "INVALIDATE", "").unwrap();
        assert_eq!(json_u64_field(&inv, "cleared"), Some(1));
        let pong = call(&core, "PING", "").unwrap();
        assert_eq!(json_u64_field(&pong, "pong"), None); // bool field
        assert_eq!(pong, PONG);

        // Deleting the A-grounded tuple works over the wire too.
        let _ = core.delete("A", &tup![1]).unwrap();
    }

    #[test]
    fn stats_text_and_trace_verbs_answer() {
        let core = example_core();
        core.query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        let text = call(&core, "STATS", "TEXT").unwrap();
        assert!(text.starts_with("{\"text\":"), "{text}");
        let inner = json_str_field(&text, "text").unwrap();
        assert!(inner.contains("queries 1\n"), "{inner}");
        assert!(inner.contains("graph_builds "), "{inner}");
        // TRACE always answers well-formed JSON (empty when tracing is
        // off); a bad limit is a parse error.
        let tr = call(&core, "TRACE", "4").unwrap();
        assert!(tr.starts_with("{\"traces\": ["), "{tr}");
        assert!(call(&core, "TRACE", "four")
            .unwrap_err()
            .starts_with("parse:"));
    }

    #[test]
    fn explain_over_the_wire_carries_plan_text() {
        let core = example_core();
        let reply = call(
            &core,
            "QUERY",
            "EXPLAIN FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
        )
        .unwrap();
        let plan = json_str_field(&reply, "plan").expect("plan field");
        // Example 2.1 is cyclic, so the graph strategy is chosen.
        assert!(plan.contains("strategy: graph-walk"), "{plan}");
        assert!(plan.contains("reads: A,"), "newlines must decode: {plan}");
        assert_eq!(json_u64_field(&reply, "bindings"), Some(0));
        // Plain queries carry no plan field.
        let plain = call(
            &core,
            "QUERY",
            "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
        )
        .unwrap();
        assert!(json_str_field(&plain, "plan").is_none());
        assert_eq!(
            json_str_field(&plain, "plan_cache").as_deref(),
            Some("miss")
        );
    }
}
