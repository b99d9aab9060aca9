//! The blocking client for the binary framing — what the integration
//! tests, `scale_bench`, the replica stream and the shard router talk to
//! a [`crate::server`] with.

use crate::frame::{self, verb};
use proql_common::{Error, Result};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub(crate) fn io_err(e: io::Error) -> Error {
    Error::Other(format!("io: {e}"))
}

/// A blocking client for the binary framing layer with pipelining:
/// requests carry client-chosen ids, any number may be sent (or batched
/// into a single write) before reading responses, and out-of-band frames
/// (`PUSH`, replication) are stashed: responses and pushes can interleave
/// arbitrarily on the wire (the event loop pushes the instant an event
/// fires, not between requests), so each reader gets the next frame of
/// its own class, and whatever else arrives first waits on the queue its
/// reader expects — never dropped.
#[derive(Debug)]
pub struct BinClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Frames read past while looking for another class, by [`Class`].
    stashed: [VecDeque<frame::Frame>; 3],
    next_id: u64,
}

/// Who reads a frame: the three kinds of traffic a server sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// The answer to a request: `OK` / `ERR` / `OVERLOADED`.
    Response,
    /// A subscription event.
    Push,
    /// `REPL_DELTA` / `REPL_SNAPSHOT`.
    Repl,
}

impl Class {
    fn of(verb: u8) -> Class {
        match verb {
            verb::PUSH => Class::Push,
            verb::REPL_DELTA | verb::REPL_SNAPSHOT => Class::Repl,
            _ => Class::Response,
        }
    }
}

impl BinClient {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> Result<BinClient> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        Ok(BinClient {
            stream,
            rbuf: Vec::new(),
            stashed: Default::default(),
            next_id: 1,
        })
    }

    /// Send one request frame (auto-assigned id, returned) without
    /// waiting for the response — the pipelining primitive.
    pub fn send(&mut self, verb: u8, payload: &[u8]) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = frame::encode(verb, id, payload);
        self.stream.write_all(&bytes).map_err(io_err)?;
        Ok(id)
    }

    /// Encode a whole batch of requests into one buffer and send it with
    /// a single write. Returns the assigned ids in order.
    pub fn send_batch(&mut self, reqs: &[(u8, &[u8])]) -> Result<Vec<u64>> {
        let mut buf = Vec::new();
        let mut ids = Vec::with_capacity(reqs.len());
        for &(verb, payload) in reqs {
            let id = self.next_id;
            self.next_id += 1;
            frame::encode_into(&mut buf, verb, id, payload);
            ids.push(id);
        }
        self.stream.write_all(&buf).map_err(io_err)?;
        Ok(ids)
    }

    /// One decode/read step. `Ok(None)` means the socket read timed out
    /// (only possible while a read timeout is set); any partial frame
    /// stays buffered for the next call.
    fn read_frame_step(&mut self) -> Result<Option<frame::Frame>> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match frame::decode(&self.rbuf) {
                Ok(Some((f, n))) => {
                    self.rbuf.drain(..n);
                    return Ok(Some(f));
                }
                Ok(None) => {}
                Err(e) => return Err(Error::Other(format!("framing: {e}"))),
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(Error::Other("server closed the connection".into())),
                Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// The next frame of `class`: a stashed one if available, else read
    /// the wire, stashing frames of the other classes for their readers.
    /// Without a `timeout` this blocks until one arrives. With one it
    /// makes a single read step bounded by it, and answers `Ok(None)`
    /// when that step produced no frame of `class` (a quiet wire, or a
    /// frame for another reader).
    fn next_of(&mut self, class: Class, timeout: Option<Duration>) -> Result<Option<frame::Frame>> {
        if let Some(f) = self.stashed[class as usize].pop_front() {
            return Ok(Some(f));
        }
        loop {
            let stepped = match timeout {
                None => self.read_frame_step()?,
                Some(_) => {
                    self.stream.set_read_timeout(timeout).map_err(io_err)?;
                    let stepped = self.read_frame_step();
                    self.stream.set_read_timeout(None).map_err(io_err)?;
                    stepped?
                }
            };
            match stepped {
                Some(f) if Class::of(f.verb) == class => return Ok(Some(f)),
                Some(f) => self.stashed[Class::of(f.verb) as usize].push_back(f),
                None => {}
            }
            if timeout.is_some() {
                return Ok(None);
            }
        }
    }

    /// [`Self::next_of`] without a timeout: a frame or an error.
    fn next_blocking(&mut self, class: Class) -> Result<frame::Frame> {
        let frame = self.next_of(class, None)?;
        Ok(frame.expect("an unbounded read ends with a frame or an error"))
    }

    /// Next response frame (`OK` / `ERR` / `OVERLOADED`), stashing any
    /// out-of-band frames for [`BinClient::next_push`] /
    /// [`BinClient::next_repl`].
    pub fn recv_response(&mut self) -> Result<frame::Frame> {
        self.next_blocking(Class::Response)
    }

    /// Next `PUSH` frame, stashing any other frames encountered.
    pub fn next_push(&mut self) -> Result<frame::Frame> {
        self.next_blocking(Class::Push)
    }

    /// Next replication frame (`REPL_DELTA` / `REPL_SNAPSHOT`), stashing
    /// any other frames encountered. Blocks until one arrives.
    pub fn next_repl(&mut self) -> Result<frame::Frame> {
        self.next_blocking(Class::Repl)
    }

    /// Like [`BinClient::next_repl`], but waits at most `timeout` for
    /// bytes, returning `Ok(None)` on a quiet wire — the replica loop
    /// uses this to recheck its shutdown flag between waits.
    pub fn next_repl_timeout(&mut self, timeout: Duration) -> Result<Option<frame::Frame>> {
        self.next_of(Class::Repl, Some(timeout))
    }

    /// Send one request and wait for its response frame.
    pub fn request(&mut self, verb: u8, payload: &[u8]) -> Result<frame::Frame> {
        self.send(verb, payload)?;
        self.recv_response()
    }

    /// `QUERY` helper: OK payload JSON or the server's error.
    pub fn query(&mut self, proql: &str) -> Result<String> {
        expect_ok_frame(self.request(verb::QUERY, proql.as_bytes())?)
    }

    /// `STATS` helper.
    pub fn stats(&mut self) -> Result<String> {
        expect_ok_frame(self.request(verb::STATS, b"")?)
    }

    /// `TRACE` helper: the `limit` most recent span trees as JSON.
    pub fn trace(&mut self, limit: usize) -> Result<String> {
        expect_ok_frame(self.request(verb::TRACE, limit.to_string().as_bytes())?)
    }

    /// `SUBSCRIBE` helper: returns the `OK` JSON payload.
    pub fn subscribe(&mut self, proql: &str) -> Result<String> {
        expect_ok_frame(self.request(verb::SUBSCRIBE, proql.as_bytes())?)
    }

    /// `HELLO` handshake: advertise this build's protocol version and
    /// return the server's. A server that cannot serve our version
    /// answers with a clean error (the connection survives).
    pub fn hello(&mut self) -> Result<String> {
        expect_ok_frame(self.request(verb::HELLO, frame::PROTOCOL_VERSION.to_string().as_bytes())?)
    }

    /// `REPL_SUBSCRIBE` helper: join the replication stream from
    /// `from_version` (set `force_snapshot` for the digest-mismatch
    /// recovery path). Catch-up and live frames arrive out-of-band via
    /// [`BinClient::next_repl`]. Returns the `OK` JSON payload.
    pub fn repl_subscribe(&mut self, from_version: u64, force_snapshot: bool) -> Result<String> {
        let payload = if force_snapshot {
            format!("{from_version} SNAPSHOT")
        } else {
            from_version.to_string()
        };
        expect_ok_frame(self.request(verb::REPL_SUBSCRIBE, payload.as_bytes())?)
    }

    /// Pipeline `queries` in one batched write, then collect every OK
    /// payload in request order (errors and sheds become `Err`).
    pub fn pipeline_queries(&mut self, queries: &[&str]) -> Result<Vec<String>> {
        let reqs: Vec<(u8, &[u8])> = queries
            .iter()
            .map(|q| (verb::QUERY, q.as_bytes()))
            .collect();
        let ids = self.send_batch(&reqs)?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let f = self.recv_response()?;
            if f.id != id {
                return Err(Error::Other(format!(
                    "response id {} for request {id}: pipelined order violated",
                    f.id
                )));
            }
            out.push(expect_ok_frame(f)?);
        }
        Ok(out)
    }

    /// Ask the server to close the connection once responses drain.
    pub fn quit(&mut self) -> Result<()> {
        self.send(verb::QUIT, b"")?;
        Ok(())
    }
}

fn expect_ok_frame(f: frame::Frame) -> Result<String> {
    let text = f.text().unwrap_or("<non-utf8 payload>").to_string();
    match f.verb {
        verb::OK => Ok(text),
        verb::ERR => Err(Error::Other(text)),
        verb::OVERLOADED => Err(Error::Other("overloaded".into())),
        other => Err(Error::Other(format!("unexpected frame verb {other}"))),
    }
}
