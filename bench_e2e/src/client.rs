//! The load generator's side of the pipelined binary protocol: one
//! blocking connection type, and the closed-loop and open-loop drivers
//! built on it. Frames are built and parsed with the service's own
//! `frame::encode_into` / `frame::decode`.

use proql_service::frame::{self, verb, Frame};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A reply slower than this is a failed request and ends its connection.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Request ids from here up belong to the generator's own `PING`s.
const NUDGE_IDS: u64 = u64::MAX - (1 << 32);

/// One binary-protocol connection.
///
/// The server's event loop can miss a worker's wake-up: `Waker::drain`
/// clears the coalescing flag and then reads the socket empty, so the
/// byte of a wake that lands in between is swallowed with the flag left
/// set, and later completions wait for the next socket event. A client
/// whose requests are all in flight sends nothing, so nothing arrives,
/// and its replies stay queued in the server. Whenever a reply is
/// overdue by `nudge_after` the connection therefore sends a `PING`,
/// which makes the loop turn; the wait is measured as it happened and
/// the pings are counted ([`Conn::nudges`]), not hidden.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    nudge_after: Duration,
    nudges: u64,
}

impl Conn {
    /// Connect; a reply overdue by `nudge_after` is prompted with a
    /// `PING` (pass [`REPLY_TIMEOUT`] for a connection that never pings).
    pub fn connect(addr: SocketAddr, nudge_after: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(nudge_after.min(REPLY_TIMEOUT)))?;
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(64 * 1024),
            rpos: 0,
            wbuf: Vec::with_capacity(4 * 1024),
            nudge_after,
            nudges: 0,
        })
    }

    /// A second handle on the same socket, so one thread can send on
    /// schedule while another reads replies. Only the first of the pair
    /// writes: the reading half never pings.
    pub fn split(self) -> io::Result<(Conn, Conn)> {
        let other = self.stream.try_clone()?;
        other.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = Conn {
            stream: other,
            rbuf: self.rbuf,
            rpos: self.rpos,
            wbuf: Vec::new(),
            nudge_after: REPLY_TIMEOUT,
            nudges: 0,
        };
        let writer = Conn {
            stream: self.stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: self.wbuf,
            nudge_after: self.nudge_after,
            nudges: 0,
        };
        Ok((writer, reader))
    }

    /// `PING`s this connection sent to prompt overdue replies.
    pub fn nudges(&self) -> u64 {
        self.nudges
    }

    /// Queue one request frame; [`Conn::flush`] sends what is queued.
    pub fn queue(&mut self, verb: u8, id: u64, payload: &[u8]) {
        debug_assert!(id < NUDGE_IDS);
        frame::encode_into(&mut self.wbuf, verb, id, payload);
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// Send one `PING` now (its reply is skipped by [`Conn::recv`]).
    pub fn nudge(&mut self) -> io::Result<()> {
        frame::encode_into(&mut self.wbuf, verb::PING, NUDGE_IDS + self.nudges, b"");
        self.nudges += 1;
        self.flush()
    }

    /// Next reply frame (blocking, up to [`REPLY_TIMEOUT`]), pinging the
    /// server each time `nudge_after` passes without one.
    pub fn recv(&mut self) -> io::Result<Frame> {
        let begun = Instant::now();
        loop {
            match self.recv_once() {
                Ok(f) if f.id >= NUDGE_IDS => {}
                Ok(f) => return Ok(f),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) && begun.elapsed() + self.nudge_after <= REPLY_TIMEOUT =>
                {
                    self.nudge()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Next frame off the wire, or the socket's timeout error.
    fn recv_once(&mut self) -> io::Result<Frame> {
        loop {
            match frame::decode(&self.rbuf[self.rpos..]) {
                Ok(Some((f, used))) => {
                    self.rpos += used;
                    if self.rpos == self.rbuf.len() {
                        self.rbuf.clear();
                        self.rpos = 0;
                    }
                    return Ok(f);
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
            if self.rpos > 0 {
                self.rbuf.drain(..self.rpos);
                self.rpos = 0;
            }
            let len = self.rbuf.len();
            self.rbuf.resize(len + 16 * 1024, 0);
            let got = self.stream.read(&mut self.rbuf[len..]);
            self.rbuf.truncate(len + *got.as_ref().unwrap_or(&0));
            if got? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
    }

    /// One request, one reply.
    pub fn round_trip(&mut self, verb: u8, id: u64, payload: &[u8]) -> io::Result<Frame> {
        self.queue(verb, id, payload);
        self.flush()?;
        self.recv()
    }
}

/// Unsigned field of one of the protocol's flat JSON payloads, bare or
/// quoted (digests travel as strings). Scans bytes; no allocation.
pub fn field_u64(payload: &[u8], key: &str) -> Option<u64> {
    let key = key.as_bytes();
    let mut i = 0;
    while i + key.len() + 4 <= payload.len() {
        if payload[i] == b'"'
            && payload[i + 1..].starts_with(key)
            && payload[i + 1 + key.len()..].starts_with(b"\": ")
        {
            let mut j = i + key.len() + 4;
            if payload.get(j) == Some(&b'"') {
                j += 1;
            }
            let start = j;
            let mut v: u64 = 0;
            while let Some(d) = payload.get(j).filter(|d| d.is_ascii_digit()) {
                v = v.checked_mul(10)?.checked_add((d - b'0') as u64)?;
                j += 1;
            }
            return (j > start).then_some(v);
        }
        i += 1;
    }
    None
}

/// What the generator keeps of one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// An `OK` frame carrying a version (and, for reads, a digest).
    Ok { version: u64, digest: u64 },
    /// `ERR`, `OVERLOADED`, an unexpected verb or id, or a payload
    /// without a version.
    Failed,
}

/// Classify a reply frame to request `id`.
pub fn classify(f: &Frame, id: u64) -> Reply {
    if f.verb != verb::OK || f.id != id {
        return Reply::Failed;
    }
    match field_u64(&f.payload, "version") {
        Some(version) => Reply::Ok {
            version,
            digest: field_u64(&f.payload, "digest").unwrap_or(0),
        },
        None => Reply::Failed,
    }
}

/// One finished request as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position in the connection's operation sequence.
    pub op: u64,
    /// Completion time, seconds since the run's origin.
    pub done_s: f64,
    pub latency_ms: f64,
    pub reply: Reply,
}

/// Closed loop, one request in flight: send, wait for the reply, repeat
/// until `stop` is set. `next` yields `(op index, verb, payload)`.
/// A timeout or I/O error fails the request in flight and ends the loop.
pub fn closed_loop(
    conn: &mut Conn,
    origin: Instant,
    stop: &AtomicBool,
    mut next: impl FnMut() -> (u64, u8, String),
) -> Vec<Sample> {
    let mut out = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let (op, verb, payload) = next();
        let sent = Instant::now();
        let answer = conn.round_trip(verb, op, payload.as_bytes());
        let done = Instant::now();
        out.push(Sample {
            op,
            done_s: (done - origin).as_secs_f64(),
            latency_ms: (done - sent).as_secs_f64() * 1e3,
            reply: answer.as_ref().map_or(Reply::Failed, |f| classify(f, op)),
        });
        if answer.is_err() {
            break;
        }
    }
    out
}

/// Closed loop with `depth` requests in flight on one connection (the
/// saturation phase of `hot_read`): every reply received sends the next
/// request, so the window stays full.
pub fn pipelined_loop<'a>(
    conn: &mut Conn,
    origin: Instant,
    stop: &AtomicBool,
    depth: usize,
    mut next: impl FnMut() -> (u64, &'a str),
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut sent_at: std::collections::VecDeque<(u64, Instant)> = Default::default();
    let mut alive = true;
    while alive {
        let stopping = stop.load(Ordering::Relaxed);
        if stopping && sent_at.is_empty() {
            break;
        }
        if !stopping {
            while sent_at.len() < depth {
                let (op, payload) = next();
                conn.queue(verb::QUERY, op, payload.as_bytes());
                sent_at.push_back((op, Instant::now()));
            }
            alive = conn.flush().is_ok();
        }
        let Some((op, sent)) = sent_at.pop_front() else {
            continue;
        };
        let reply = match conn.recv() {
            Ok(f) => classify(&f, op),
            Err(_) => {
                alive = false;
                Reply::Failed
            }
        };
        let done = Instant::now();
        out.push(Sample {
            op,
            done_s: (done - origin).as_secs_f64(),
            latency_ms: (done - sent).as_secs_f64() * 1e3,
            reply,
        });
    }
    // Whatever is still unanswered on a dead connection failed too.
    for (op, sent) in sent_at {
        out.push(Sample {
            op,
            done_s: origin.elapsed().as_secs_f64(),
            latency_ms: sent.elapsed().as_secs_f64() * 1e3,
            reply: Reply::Failed,
        });
    }
    out
}

/// Requests the open-loop sender keeps on the wire at most. The server
/// sheds a connection's 65th unanswered request; a client that knows the
/// limit queues on its own side instead, and the wait still counts,
/// because latency runs from the intended send time. The slack below 64
/// is room for the sender's `PING`s, of which at most
/// [`MAX_PENDING_NUDGES`] go out between two replies.
pub const OPEN_LOOP_WINDOW: u64 = 56;
const MAX_PENDING_NUDGES: u64 = 7;

/// Outcome of one open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// `(completion offset s, latency from the intended send time ms)`.
    pub samples: Vec<(f64, f64)>,
    /// Actual minus intended send time, per request, ms.
    pub lateness_ms: Vec<f64>,
    pub failed: u64,
    /// Requests due but unanswered when the schedule ended.
    pub backlog_at_end: u64,
    /// `PING`s sent to prompt overdue replies.
    pub nudges: u64,
}

/// Pure pacing rule of the open-loop sender: given the schedule, how
/// many requests were sent and answered, and the time now, how many more
/// go out in this burst. The schedule never waits for replies: a stall
/// (the generator's or the server's) makes the next burst larger, up to
/// the connection window. Kept apart from the sockets so the accounting
/// can be tested.
pub fn due_now(schedule_s: &[f64], sent: usize, received: u64, now_s: f64) -> usize {
    let room = OPEN_LOOP_WINDOW.saturating_sub(sent as u64 - received) as usize;
    schedule_s[sent..]
        .iter()
        .take(room)
        .take_while(|&&t| t <= now_s)
        .count()
}

/// Latency of a request from its intended send time.
pub fn intended_latency_ms(intended_s: f64, done_s: f64) -> f64 {
    (done_s - intended_s) * 1e3
}

/// Open loop at the arrival times in `schedule_s` (seconds from now):
/// the calling thread sends on schedule, a second thread reads replies.
/// `payload(i)` is request `i`'s query text and `check(i, reply)` says
/// whether its reply is acceptable.
pub fn open_loop(
    conn: Conn,
    schedule_s: &[f64],
    payload: impl Fn(usize) -> String,
    check: impl Fn(usize, Reply) -> bool + Sync,
) -> io::Result<OpenLoopRun> {
    let (mut tx, mut rx) = conn.split()?;
    let total = schedule_s.len();
    let received = AtomicU64::new(0);
    let reader_done = AtomicBool::new(false);
    let origin = Instant::now();
    let mut run = OpenLoopRun::default();
    let mut send_error = None;
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut samples = Vec::with_capacity(total);
            let mut failed = 0u64;
            for (i, &intended_s) in schedule_s.iter().enumerate() {
                match rx.recv() {
                    Ok(f) => {
                        let done_s = origin.elapsed().as_secs_f64();
                        if check(i, classify(&f, i as u64)) {
                            samples.push((done_s, intended_latency_ms(intended_s, done_s)));
                        } else {
                            failed += 1;
                        }
                        received.store(i as u64 + 1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        // Timed out or disconnected: everything still
                        // outstanding failed.
                        failed += (total - i) as u64;
                        break;
                    }
                }
            }
            reader_done.store(true, Ordering::Release);
            (samples, failed)
        });
        let mut sent = 0usize;
        let mut last_progress = (0u64, Instant::now());
        let mut pending_nudges = 0;
        while !reader_done.load(Ordering::Acquire) {
            let got = received.load(Ordering::Relaxed);
            if got != last_progress.0 {
                last_progress = (got, Instant::now());
                pending_nudges = 0;
            }
            let now_s = origin.elapsed().as_secs_f64();
            let burst = if sent < total {
                due_now(schedule_s, sent, got, now_s)
            } else {
                0
            };
            if burst > 0 {
                for (i, intended_s) in (sent..).zip(&schedule_s[sent..sent + burst]) {
                    tx.queue(verb::QUERY, i as u64, payload(i).as_bytes());
                    run.lateness_ms.push((now_s - intended_s) * 1e3);
                }
                if let Err(e) = tx.flush() {
                    send_error = Some(e);
                    break;
                }
                sent += burst;
                if sent == total {
                    run.backlog_at_end = sent as u64 - received.load(Ordering::Relaxed);
                }
                continue;
            }
            let wait = schedule_s.get(sent).map_or(f64::INFINITY, |t| t - now_s);
            if wait > 150e-6 && wait.is_finite() && sent as u64 == got {
                // Idle and nothing outstanding: sleep until the next
                // arrival is nearly due.
                std::thread::sleep(Duration::from_secs_f64(wait - 100e-6));
                continue;
            }
            // Replies are outstanding, or the window is full.
            if sent as u64 > got
                && pending_nudges < MAX_PENDING_NUDGES
                && last_progress.1.elapsed() >= tx.nudge_after
            {
                if tx.nudge().is_err() {
                    break;
                }
                pending_nudges += 1;
                last_progress.1 = Instant::now();
            }
            std::thread::sleep(Duration::from_secs_f64(wait.clamp(20e-6, 100e-6)));
        }
        if send_error.is_some() {
            // Nothing more will be answered; end the reader's wait.
            let _ = tx.stream.shutdown(std::net::Shutdown::Both);
        }
        let (samples, failed) = reader.join().expect("open-loop reader thread");
        run.samples = samples;
        run.failed = failed;
        run.nudges = tx.nudges();
    });
    match send_error {
        Some(e) => Err(e),
        None => Ok(run),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_fields_of_reply_payloads() {
        let p =
            br#"{"version": 17, "cache": "hit", "bindings": 3, "digest": "18446744073709551615"}"#;
        assert_eq!(field_u64(p, "version"), Some(17));
        assert_eq!(field_u64(p, "digest"), Some(u64::MAX));
        assert_eq!(field_u64(p, "bindings"), Some(3));
        assert_eq!(field_u64(p, "cache"), None);
        assert_eq!(field_u64(p, "absent"), None);
        assert_eq!(
            field_u64(br#"{"digest": "184467440737095516150"}"#, "digest"),
            None
        );
        assert_eq!(field_u64(b"", "version"), None);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_that_waited_behind_it() {
        // 1 kHz schedule; the generator (or the server it waits on)
        // stalls from t=10ms to t=30ms.
        let schedule: Vec<f64> = (0..100).map(|i| i as f64 * 1e-3).collect();
        assert_eq!(due_now(&schedule, 0, 0, 0.0), 1);
        assert_eq!(due_now(&schedule, 10, 10, 0.0095), 0);
        // After the stall every request whose time has passed goes out in
        // one burst...
        assert_eq!(due_now(&schedule, 10, 10, 0.030), 21);
        // ...and each is timed from when it was due, not from the burst:
        // request 10 was due at 10 ms and answered at 31 ms.
        assert!((intended_latency_ms(schedule[10], 0.031) - 21.0).abs() < 1e-9);
        assert!((intended_latency_ms(schedule[30], 0.031) - 1.0).abs() < 1e-9);
        // Lateness is what the sender reports for them.
        let lateness: Vec<f64> = (10..31).map(|i| (0.030 - schedule[i]) * 1e3).collect();
        assert!((lateness[0] - 20.0).abs() < 1e-9 && lateness[20].abs() < 1e-9);
    }

    #[test]
    fn the_sender_never_exceeds_the_connection_window() {
        let w = OPEN_LOOP_WINDOW as usize;
        let schedule: Vec<f64> = (0..500).map(|i| i as f64 * 1e-6).collect();
        // Everything is due, nothing answered: only the window goes out.
        assert_eq!(due_now(&schedule, 0, 0, 1.0), w);
        assert_eq!(due_now(&schedule, w, 0, 1.0), 0);
        assert_eq!(due_now(&schedule, w, 25, 1.0), 25);
        // The tail of the schedule bounds the burst too.
        assert_eq!(due_now(&schedule, 490, 490, 1.0), 10);
    }
}
