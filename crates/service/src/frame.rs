//! The pipelined length-prefixed binary framing layer.
//!
//! A frame is a fixed 16-byte little-endian header followed by a
//! payload:
//!
//! ```text
//! offset  size  field
//! 0       1     magic (0xB1, outside ASCII)
//! 1       1     verb tag
//! 2       1     protocol version (0 = legacy pre-versioning, else
//!               1..=VERSION_WINDOW; greater is framing corruption)
//! 3       1     flags (reserved, must be 0)
//! 4       4     payload length (bytes; <= MAX_PAYLOAD)
//! 8       8     request id
//! 16      len   payload
//! ```
//!
//! Byte 2 was a reserved must-be-zero flags byte through protocol
//! version 0 and now carries the sender's protocol version, which the
//! [`verb::HELLO`] handshake negotiates explicitly. The split keeps
//! corruption detection sharp: a version inside the [`VERSION_WINDOW`]
//! is a *well-formed* frame some future peer could legitimately send —
//! the server answers an unsupported one with a clean per-frame ERR —
//! while a byte beyond the window (say a flipped 0xFF) is framing
//! corruption and still drops the connection.
//!
//! This is the server's only wire format: every connection's bytes,
//! from the first, must be frames. Requests carry a client-chosen
//! `request id` that the matching response echoes, so clients may
//! pipeline arbitrarily many frames before reading a single response;
//! the server answers a connection's requests **in order**. Server-push
//! frames ([`verb::PUSH`], carrying the subscription id in the request-id
//! slot) and load-shed notices ([`verb::OVERLOADED`]) are out-of-band
//! frame types of their own, so asynchronous pushes can never corrupt an
//! in-flight response stream.
//!
//! Payloads are protocol text ([`crate::proto`]): for requests, the
//! verb's argument text (`QUERY` → ProQL, `DELETE`/`INSERT` →
//! `<relation> <v1,v2,...>`); for responses, JSON after `OK`, or
//! `<kind>: <message>` after `ERR`. Malformed framing (a bad magic byte,
//! which any text line starts with; nonzero flags; an oversized length)
//! is unrecoverable by design — the decoder reports [`DecodeError`] and
//! the server drops the connection — while a *well-formed* frame with an
//! unknown verb or bogus payload gets an ordinary [`verb::ERR`]
//! response.

/// First byte of every binary frame. 0xB1 is outside ASCII, so no text
/// line can start with it.
pub const MAGIC: u8 = 0xB1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Maximum payload size the decoder accepts (16 MiB). Larger lengths are
/// treated as framing corruption, not as a request to buffer.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// The protocol version this build speaks (stamped into every encoded
/// frame's version byte).
pub const PROTOCOL_VERSION: u8 = 1;

/// Highest version byte the decoder treats as a *well-formed* frame from
/// a future peer (answered with a clean ERR when unsupported). Anything
/// greater is indistinguishable from corruption and drops the connection.
pub const VERSION_WINDOW: u8 = 7;

/// Frame verb tags.
pub mod verb {
    /// Request: ProQL query (payload: query text).
    pub const QUERY: u8 = 1;
    /// Request: CDSS deletion (payload: `<relation> <v1,v2,...>`).
    pub const DELETE: u8 = 2;
    /// Request: insert + incremental exchange (payload like DELETE).
    pub const INSERT: u8 = 3;
    /// Request: service statistics (empty payload).
    pub const STATS: u8 = 4;
    /// Request: drop all cached results (empty payload).
    pub const INVALIDATE: u8 = 5;
    /// Request: liveness check (empty payload).
    pub const PING: u8 = 6;
    /// Request: subscribe to a query (payload: query text); PUSH frames
    /// follow out-of-band.
    pub const SUBSCRIBE: u8 = 7;
    /// Request: close the connection after pending responses drain
    /// (empty payload, no response).
    pub const QUIT: u8 = 8;
    /// Request: recent span trees from the telemetry ring (optional
    /// payload: max trace count as decimal text).
    pub const TRACE: u8 = 9;
    /// Request: protocol handshake (payload: the client's protocol
    /// version as decimal text, e.g. `"1"`). The OK payload reports the
    /// server's version; a version the server cannot serve gets a clean
    /// ERR, never a connection drop. Optional — clients that skip it are
    /// treated as version 0 (legacy).
    pub const HELLO: u8 = 10;
    /// Request: subscribe to the replication stream (payload:
    /// `<from_version> [SNAPSHOT]` as decimal text; `SNAPSHOT` forces a
    /// full-state transfer, the digest-mismatch recovery path).
    /// [`REPL_DELTA`] / [`REPL_SNAPSHOT`] frames follow out-of-band.
    pub const REPL_SUBSCRIBE: u8 = 11;
    /// Response: success (payload: JSON).
    pub const OK: u8 = 0x80;
    /// Response: error (payload: `<kind>: <message>`).
    pub const ERR: u8 = 0x81;
    /// Out-of-band push for a subscription; the request-id slot carries
    /// the subscription id (payload: event JSON).
    pub const PUSH: u8 = 0x82;
    /// Response: the request was shed by admission control before
    /// execution (empty payload; the id echoes the shed request). The
    /// request was *not* executed — retry after draining responses.
    pub const OVERLOADED: u8 = 0x83;
    /// Out-of-band replication push: one sealed graph delta (payload:
    /// `proql_provgraph::encode::wire` delta bytes; the id slot is
    /// unused — the payload carries the version ordering).
    pub const REPL_DELTA: u8 = 0x84;
    /// Out-of-band replication push: a full state snapshot (payload:
    /// wire snapshot bytes) — the broken-chain / forced-recovery
    /// fallback.
    pub const REPL_SNAPSHOT: u8 = 0x85;
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Verb tag (see [`verb`]).
    pub verb: u8,
    /// The sender's protocol version byte (0 for legacy peers that
    /// predate versioning; this build sends [`PROTOCOL_VERSION`]).
    pub proto: u8,
    /// Request id (echoed in responses; subscription id in PUSH frames).
    pub id: u64,
    /// Payload bytes (protocol text).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Payload as UTF-8 text, if valid.
    pub fn text(&self) -> Option<&str> {
        std::str::from_utf8(&self.payload).ok()
    }
}

/// Unrecoverable framing corruption: the byte stream cannot be resynced,
/// so the connection must be dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// First byte of a frame was not [`MAGIC`].
    BadMagic(u8),
    /// Reserved flags bits were set, or the version byte fell outside
    /// the [`VERSION_WINDOW`] (low byte = version, high byte = flags).
    BadFlags(u16),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02x}"),
            DecodeError::BadFlags(x) => write!(f, "reserved frame flags 0x{x:04x} set"),
            DecodeError::Oversized(n) => {
                write!(
                    f,
                    "frame payload {n} bytes exceeds the {MAX_PAYLOAD}-byte cap"
                )
            }
        }
    }
}

/// Encode a frame into a fresh buffer.
pub fn encode(verb: u8, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_into(&mut buf, verb, id, payload);
    buf
}

/// Append a frame's bytes to `buf` (for batching pipelined requests into
/// one write).
pub fn encode_into(buf: &mut Vec<u8>, verb: u8, id: u64, payload: &[u8]) {
    debug_assert!(payload.len() as u64 <= MAX_PAYLOAD as u64);
    buf.push(MAGIC);
    buf.push(verb);
    buf.push(PROTOCOL_VERSION);
    buf.push(0); // reserved flags
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(Some((frame, consumed)))` — a complete frame; the caller should
///   advance by `consumed` bytes.
/// * `Ok(None)` — the bytes so far are a valid prefix; read more.
/// * `Err(_)` — framing corruption; drop the connection.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf[0] != MAGIC {
        return Err(DecodeError::BadMagic(buf[0]));
    }
    if buf.len() >= 4 {
        // Byte 2 is the version (bounded by the window — beyond it the
        // byte can only be corruption); byte 3 stays reserved must-be-0.
        if buf[2] > VERSION_WINDOW || buf[3] != 0 {
            return Err(DecodeError::BadFlags(u16::from_le_bytes([buf[2], buf[3]])));
        }
    }
    if buf.len() >= 8 {
        let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        if len > MAX_PAYLOAD {
            return Err(DecodeError::Oversized(len));
        }
        let total = HEADER_LEN + len as usize;
        if buf.len() >= total {
            let id = u64::from_le_bytes(buf[8..16].try_into().expect("8-byte slice"));
            return Ok(Some((
                Frame {
                    verb: buf[1],
                    proto: buf[2],
                    id,
                    payload: buf[HEADER_LEN..total].to_vec(),
                },
                total,
            )));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql_common::rng::SplitMix64;

    #[test]
    fn roundtrip_with_payload_and_empty() {
        for (v, id, payload) in [
            (verb::QUERY, 7u64, b"FOR [O $x] RETURN $x".as_slice()),
            (verb::PING, u64::MAX, b"".as_slice()),
            (verb::PUSH, 0, b"{\"event\": \"delta\"}".as_slice()),
        ] {
            let bytes = encode(v, id, payload);
            let (frame, consumed) = decode(&bytes).unwrap().expect("complete frame");
            assert_eq!(consumed, bytes.len());
            assert_eq!(frame.verb, v);
            assert_eq!(frame.proto, PROTOCOL_VERSION);
            assert_eq!(frame.id, id);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn every_strict_prefix_needs_more_bytes() {
        let bytes = encode(verb::QUERY, 42, b"hello world");
        for cut in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes must ask for more"
            );
        }
    }

    #[test]
    fn batched_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        for i in 0..5u64 {
            encode_into(&mut buf, verb::QUERY, i, format!("q{i}").as_bytes());
        }
        let mut off = 0;
        for i in 0..5u64 {
            let (frame, consumed) = decode(&buf[off..]).unwrap().expect("frame");
            assert_eq!(frame.id, i);
            assert_eq!(frame.payload, format!("q{i}").into_bytes());
            off += consumed;
        }
        assert_eq!(off, buf.len());
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        assert_eq!(decode(&[0x51]), Err(DecodeError::BadMagic(0x51))); // 'Q'
                                                                       // A version byte beyond the window is corruption…
        let mut bad_version = encode(verb::QUERY, 1, b"x");
        bad_version[2] = 0xFF;
        assert!(matches!(
            decode(&bad_version),
            Err(DecodeError::BadFlags(0xFF))
        ));
        // …and the reserved byte 3 is still must-be-zero.
        let mut bad_flags = encode(verb::QUERY, 1, b"x");
        bad_flags[3] = 1;
        assert!(matches!(decode(&bad_flags), Err(DecodeError::BadFlags(_))));
        let mut oversized = encode(verb::QUERY, 1, b"x");
        oversized[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(decode(&oversized), Err(DecodeError::Oversized(_))));
    }

    #[test]
    fn in_window_future_versions_stay_well_formed() {
        // A plausible future peer (version within the window) must
        // decode cleanly — the server answers it with an ERR, it is not
        // framing corruption.
        for v in 0..=VERSION_WINDOW {
            let mut bytes = encode(verb::QUERY, 9, b"q");
            bytes[2] = v;
            let (frame, _) = decode(&bytes).unwrap().expect("well-formed");
            assert_eq!(frame.proto, v);
        }
        for v in VERSION_WINDOW + 1..=255 {
            let mut bytes = encode(verb::QUERY, 9, b"q");
            bytes[2] = v;
            assert!(
                matches!(decode(&bytes), Err(DecodeError::BadFlags(_))),
                "version {v} must be treated as corruption"
            );
        }
    }

    #[test]
    fn fuzz_decoder_never_panics_and_roundtrips_survive_mutation_detection() {
        let mut rng = SplitMix64::seed_from_u64(0xF7A3E);
        for _ in 0..2000 {
            // Random well-formed frame.
            let verb = (rng.next_u64() % 200) as u8;
            let id = rng.next_u64();
            let len = rng.gen_range_usize(0, 64);
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let bytes = encode(verb, id, &payload);
            let (frame, n) = decode(&bytes).unwrap().expect("well-formed");
            assert_eq!((frame.verb, frame.id, frame.payload), (verb, id, payload));
            assert_eq!(n, bytes.len());

            // Random mutation: decode must return Ok(Some)/Ok(None)/Err,
            // never panic, and never read past the declared length.
            let mut mutated = bytes.clone();
            let idx = rng.gen_range_usize(0, mutated.len());
            mutated[idx] ^= (rng.next_u64() % 255 + 1) as u8;
            let _ = decode(&mutated);

            // Random garbage of random length.
            let glen = rng.gen_range_usize(0, 48);
            let garbage: Vec<u8> = (0..glen).map(|_| rng.next_u64() as u8).collect();
            let _ = decode(&garbage);
        }
    }
}
