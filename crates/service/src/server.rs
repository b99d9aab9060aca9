//! A zero-dependency TCP front end over [`ServiceCore`], built around a
//! nonblocking readiness-driven event loop.
//!
//! One loop thread owns every connection socket: it [`crate::net::poll`]s
//! for readiness, accepts, reads into per-connection buffers, decodes
//! requests, and hands them to a fixed worker pool through a job queue
//! — except writes (`INSERT`, `DELETE`), which go to one dedicated
//! writer thread (see `dispatch_request`). Workers never touch sockets
//! — they execute the request and enqueue the encoded response on the
//! connection's outbound queue (a seq-numbered reorder buffer, so
//! pipelined requests complete out of order on the pool but flush
//! strictly in order), then wake the loop via [`crate::net::Waker`].
//! The pool size bounds *concurrent request execution*, not
//! connections.
//!
//! The server speaks one wire format, the binary framing layer
//! ([`crate::frame`]): pipelining, out-of-band `PUSH` frames, and
//! explicit `OVERLOADED` shedding. A connection whose bytes do not
//! decode as frames — a wrong first byte included — is dropped and
//! counted in `protocol_errors`. A request's path is one: the frame
//! decoder, admission control, the worker pool, `proto::execute`, the
//! reorder buffer, and a reply frame.
//!
//! Backpressure and admission control are per connection: more than
//! [`ServerConfig::max_inflight`] unanswered requests, or an outbound
//! queue past [`ServerConfig::out_high_water`], sheds new requests with
//! an `OVERLOADED` frame *without executing them*; past
//! [`ServerConfig::out_hard_cap`] the loop stops reading the connection
//! entirely so TCP flow control pushes back on the client. Shedding and latency are recorded in
//! [`crate::metrics::TransportMetrics`], surfaced through `STATS`.

use crate::client::io_err;
use crate::core::ServiceCore;
use crate::fanout::{ReplFrameKind, SubscriptionEvent};
use crate::frame::{self, verb};
use crate::metrics::TransportMetrics;
use crate::net::{poll, PollFd, WakeReceiver, Waker, POLLHUP, POLLIN, POLLOUT};
use crate::proto::{error_payload, execute, push_json, reply, subscribe_json, PONG};
use proql_common::sync::lock;
use proql_common::{trace, Error, Result};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning for the event-loop server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Request-executor threads (bounds concurrent execution). Writes
    /// run on one more thread of their own.
    pub workers: usize,
    /// Per-connection cap on decoded-but-unanswered requests; beyond it
    /// new requests are shed with `OVERLOADED`.
    pub max_inflight: usize,
    /// Outbound-queue size (bytes) beyond which new requests are shed.
    pub out_high_water: usize,
    /// Outbound-queue size (bytes) beyond which the loop stops reading
    /// the connection (TCP backpressure).
    pub out_hard_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            max_inflight: 64,
            out_high_water: 1 << 20,
            out_hard_cap: 4 << 20,
        }
    }
}

/// A running server: connection details plus shutdown control. Dropping
/// the handle shuts the server down and joins every thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    waker: Arc<Waker>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every connection, and join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // One wake makes the loop observe `stop`; it closes every
        // connection on its way out, and dropping its `Ctx` ends the
        // workers.
        self.waker.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
/// `core` on the event loop with `workers` executor threads and default
/// backpressure limits.
pub fn serve(core: Arc<ServiceCore>, addr: &str, workers: usize) -> Result<ServerHandle> {
    serve_with(
        core,
        addr,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
}

/// [`serve`] with explicit [`ServerConfig`] limits.
pub fn serve_with(core: Arc<ServiceCore>, addr: &str, cfg: ServerConfig) -> Result<ServerHandle> {
    let listener = TcpListener::bind(addr).map_err(io_err)?;
    let addr = listener.local_addr().map_err(io_err)?;
    listener.set_nonblocking(true).map_err(io_err)?;
    let metrics = Arc::new(TransportMetrics::new());
    core.set_transport_metrics(Arc::clone(&metrics));
    let (waker, wake_rx) = Waker::pair().map_err(io_err)?;
    let waker = Arc::new(waker);
    let stop = Arc::new(AtomicBool::new(false));
    let pool = Arc::new(JobQueue::new(cfg.workers.max(1)));
    let writer = Arc::new(JobQueue::new(1));

    let mut threads = Vec::new();
    for queue in std::iter::repeat_n(&pool, cfg.workers.max(1)).chain([&writer]) {
        let core = Arc::clone(&core);
        let queue = Arc::clone(queue);
        threads.push(std::thread::spawn(move || worker_loop(core, queue)));
    }

    let ctx = Ctx {
        core,
        cfg,
        metrics,
        pool,
        writer,
        waker: Arc::clone(&waker),
    };
    let loop_stop = Arc::clone(&stop);
    threads.push(std::thread::spawn(move || {
        event_loop(ctx, listener, loop_stop, wake_rx)
    }));

    Ok(ServerHandle {
        addr,
        stop,
        threads,
        waker,
    })
}

/// Loop-wide context shared by dispatch helpers. Dropping it (when the
/// event loop returns) closes both job queues, which ends every worker
/// and the writer.
struct Ctx {
    core: Arc<ServiceCore>,
    cfg: ServerConfig,
    metrics: Arc<TransportMetrics>,
    /// The worker pool's queue: every request but a write.
    pool: Arc<JobQueue>,
    /// The writer thread's queue: `INSERT` and `DELETE`.
    writer: Arc<JobQueue>,
    waker: Arc<Waker>,
}

impl Drop for Ctx {
    fn drop(&mut self) {
        self.pool.close();
        self.writer.close();
    }
}

/// One decoded request traveling to the worker pool.
struct Request {
    /// A request verb from [`frame::verb`].
    verb: u8,
    /// The id the reply echoes.
    id: u64,
    /// The verb's argument text, as received: a frame's payload is
    /// checked for UTF-8 by the worker that executes it, so the loop
    /// thread — the one resource every connection shares — never walks
    /// payload bytes. Or, when the decoder itself refused the request (a
    /// frame from a future protocol version), the `ERR` payload it is
    /// answered with: in its sequence slot like any reply, without
    /// executing.
    text: std::result::Result<Vec<u8>, String>,
}

impl Request {
    /// The frame decoder's second half: [`frame::decode`] has split the
    /// bytes; this checks the version they were stamped with.
    fn from_frame(f: frame::Frame) -> Request {
        // A well-formed frame from a future protocol (version inside the
        // decoder's window but beyond ours) gets a clean per-frame ERR —
        // the connection and its pipeline stay healthy. Version 0 is a
        // legacy peer and fine.
        let text = if f.proto > frame::PROTOCOL_VERSION {
            Err(format!(
                "unsupported: frame protocol version {} (this server speaks {})",
                f.proto,
                frame::PROTOCOL_VERSION
            ))
        } else {
            Ok(f.payload)
        };
        Request {
            verb: f.verb,
            id: f.id,
            text,
        }
    }
}

struct Job {
    conn: Arc<ConnShared>,
    seq: u64,
    req: Request,
    started: Instant,
}

/// The connection state shared with workers and subscription push sinks.
#[derive(Debug)]
pub(crate) struct ConnShared {
    out: Mutex<OutBuf>,
    /// Set once the loop has torn the connection down; sinks and workers
    /// stop enqueueing.
    closed: AtomicBool,
    /// Decoded-but-unanswered requests (admission control input).
    in_flight: AtomicUsize,
    /// Subscription ids to drop when the connection closes.
    subs: Mutex<Vec<u64>>,
    /// Replication subscription ids to drop when the connection closes.
    repl_subs: Mutex<Vec<u64>>,
    /// This connection's trace anchor (when tracing is enabled at
    /// accept): every request executed on the worker pool opens its
    /// span as a child of this context, so a pipelined batch
    /// reconstructs as one span tree no matter which workers ran it or
    /// in what order the reorder buffer released the responses.
    trace_ctx: Option<trace::Context>,
    waker: Arc<Waker>,
    metrics: Arc<TransportMetrics>,
}

impl ConnShared {
    fn new(waker: Arc<Waker>, metrics: Arc<TransportMetrics>) -> ConnShared {
        ConnShared {
            out: Mutex::new(OutBuf::default()),
            closed: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            subs: Mutex::new(Vec::new()),
            repl_subs: Mutex::new(Vec::new()),
            trace_ctx: trace::new_trace(),
            waker,
            metrics,
        }
    }

    /// Enqueue an out-of-band message (a push) and wake the loop, unless
    /// the connection is gone — the `false` that prunes its sink. Pushes
    /// bypass the reorder buffer: they are ordered with respect to each
    /// other and with already-completed responses, which is exactly the
    /// per-subscription in-order guarantee.
    fn push_oob(&self, kind: u8, id: u64, payload: &[u8]) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        lock(&self.out).append(frame::encode(kind, id, payload));
        self.metrics.frames_out.fetch_add(1, Ordering::Relaxed);
        self.waker.wake();
        true
    }

    /// The `SUBSCRIBE` verb: register a subscription whose sink writes
    /// `PUSH` replies straight into this connection's outbound queue.
    /// Returns the `OK` payload JSON.
    pub(crate) fn subscribe(self: &Arc<Self>, core: &ServiceCore, query: &str) -> Result<String> {
        let conn = Arc::clone(self);
        let (id, resp) = core.subscribe_sink(
            query,
            Box::new(move |id, event: SubscriptionEvent| {
                conn.push_oob(verb::PUSH, id, push_json(id, &event).as_bytes())
            }),
        )?;
        lock(&self.subs).push(id);
        Ok(subscribe_json(id, &resp))
    }

    /// The `REPL_SUBSCRIBE` verb: register a replication subscription
    /// whose sink writes `REPL_DELTA` / `REPL_SNAPSHOT` frames straight
    /// into this connection's outbound queue. Payload: `<from_version>
    /// [SNAPSHOT]` — `SNAPSHOT` forces a full-state transfer (the
    /// digest-mismatch recovery path). Returns the `OK` payload JSON.
    pub(crate) fn repl_subscribe(
        self: &Arc<Self>,
        core: &ServiceCore,
        args: &str,
    ) -> Result<String> {
        let mut parts = args.split_whitespace();
        let from_version: u64 = parts.next().unwrap_or("").parse().map_err(|_| {
            Error::Parse(format!(
                "REPL_SUBSCRIBE payload {args:?}: expected <from_version> [SNAPSHOT]"
            ))
        })?;
        let force_snapshot = match parts.next() {
            None => false,
            Some(s) if s.eq_ignore_ascii_case("SNAPSHOT") => true,
            Some(other) => {
                return Err(Error::Parse(format!(
                    "REPL_SUBSCRIBE: unexpected argument {other:?}"
                )))
            }
        };
        let conn = Arc::clone(self);
        let id = core.repl_subscribe_sink(
            from_version,
            force_snapshot,
            Box::new(move |kind, payload| {
                let verb = match kind {
                    ReplFrameKind::Delta => verb::REPL_DELTA,
                    ReplFrameKind::Snapshot => verb::REPL_SNAPSHOT,
                };
                // Replication frames are out-of-band like PUSH; the id
                // slot is unused — the frame payload itself carries the
                // version ordering.
                conn.push_oob(verb, 0, payload)
            }),
        );
        lock(&self.repl_subs).push(id);
        Ok(format!(
            "{{\"repl_subscription\": {id}, \"version\": {}}}",
            core.version()
        ))
    }
}

/// Outbound bytes for one connection: a flush queue fed in seq order by
/// a reorder buffer, so out-of-order worker completions never reorder
/// responses on the wire.
#[derive(Debug, Default)]
struct OutBuf {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue.front()` already written to the socket.
    head_written: usize,
    /// Total unwritten bytes (queue + pending), for backpressure.
    bytes: usize,
    /// Completed responses waiting for their predecessors.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Next seq eligible to enter `queue`.
    next_release: u64,
}

impl OutBuf {
    /// A response for request `seq` is ready; release it (and any
    /// unblocked successors) to the flush queue in order.
    fn complete(&mut self, seq: u64, bytes: Vec<u8>) {
        self.bytes += bytes.len();
        self.pending.insert(seq, bytes);
        while let Some(b) = self.pending.remove(&self.next_release) {
            self.queue.push_back(b);
            self.next_release += 1;
        }
    }

    /// Append out-of-band bytes (pushes) directly to the flush queue.
    fn append(&mut self, bytes: Vec<u8>) {
        self.bytes += bytes.len();
        self.queue.push_back(bytes);
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.pending.is_empty()
    }
}

/// Loop-local per-connection state (the loop thread exclusively owns the
/// socket).
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    rbuf: Vec<u8>,
    /// Next request seq to assign (paired with `OutBuf::next_release`).
    next_seq: u64,
    /// QUIT received: read no more; close once responses drain.
    closing: bool,
    /// Tear down at the end of this loop iteration.
    dead: bool,
}

/// Largest buffered input per connection: one max frame.
const MAX_INPUT_BUFFER: usize = frame::MAX_PAYLOAD as usize + frame::HEADER_LEN;

/// Per-iteration read budget per connection, so one firehose connection
/// cannot starve the rest of the loop.
const READ_BUDGET: usize = 256 * 1024;

fn event_loop(ctx: Ctx, listener: TcpListener, stop: Arc<AtomicBool>, mut wake_rx: WakeReceiver) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        // Build the poll set: waker, listener, then one entry per
        // connection. Backpressure is expressed here — a connection past
        // its hard cap is simply not polled for reads.
        let mut fds = Vec::with_capacity(2 + conns.len());
        fds.push(PollFd::new(wake_rx.fd(), POLLIN));
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        for c in &conns {
            let (out_empty, out_bytes) = {
                let out = lock(&c.shared.out);
                (out.queue.is_empty(), out.bytes)
            };
            let mut events = 0i16;
            if !c.closing && out_bytes < ctx.cfg.out_hard_cap {
                events |= POLLIN;
            }
            if !out_empty {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(c.stream.as_raw_fd(), events));
        }
        if poll(&mut fds, None).is_err() {
            // EINTR is retried inside poll; anything else here is a
            // broken descriptor that the per-connection handling below
            // will surface. Yield briefly to avoid a hot error loop.
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        wake_rx.drain(&ctx.waker);
        if stop.load(Ordering::SeqCst) {
            break;
        }

        // Connections accepted below have no entry in this iteration's
        // poll set; only the polled prefix is serviced here.
        let polled = fds.len() - 2;
        if fds[1].ready(POLLIN) || fds[1].broken() {
            accept_new(&ctx, &listener, &mut conns);
        }

        for (i, c) in conns.iter_mut().take(polled).enumerate() {
            let pf = fds[2 + i];
            if pf.broken() {
                c.dead = true;
                continue;
            }
            if !c.closing && !c.dead && pf.ready(POLLIN | POLLHUP) {
                read_and_process(&ctx, c, &mut scratch);
            }
        }

        // Flush everything with queued output (new completions included,
        // whether or not POLLOUT was reported — WouldBlock is a no-op),
        // then reap finished connections.
        conns.retain_mut(|c| {
            if !c.dead && !flush_conn(c) {
                c.dead = true;
            }
            if !c.dead
                && c.closing
                && c.shared.in_flight.load(Ordering::Acquire) == 0
                && lock(&c.shared.out).is_empty()
            {
                c.dead = true;
            }
            if c.dead {
                close_conn(c, &ctx);
                false
            } else {
                true
            }
        });
    }
    for mut c in conns {
        close_conn(&mut c, &ctx);
    }
}

fn accept_new(ctx: &Ctx, listener: &TcpListener, conns: &mut Vec<Conn>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                ctx.metrics
                    .connections_total
                    .fetch_add(1, Ordering::Relaxed);
                ctx.metrics.connections_open.fetch_add(1, Ordering::Relaxed);
                conns.push(Conn {
                    stream,
                    shared: Arc::new(ConnShared::new(
                        Arc::clone(&ctx.waker),
                        Arc::clone(&ctx.metrics),
                    )),
                    rbuf: Vec::new(),
                    next_seq: 0,
                    closing: false,
                    dead: false,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

fn read_and_process(ctx: &Ctx, c: &mut Conn, scratch: &mut [u8]) {
    let mut total = 0;
    loop {
        match c.stream.read(scratch) {
            Ok(0) => {
                c.dead = true;
                break;
            }
            Ok(n) => {
                c.rbuf.extend_from_slice(&scratch[..n]);
                total += n;
                if total >= READ_BUDGET {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                break;
            }
        }
    }
    process_input(ctx, c);
}

/// Decode and dispatch every whole frame buffered on `c`. Bytes that are
/// not a frame — from the first byte on — drop the connection as a
/// protocol error.
fn process_input(ctx: &Ctx, c: &mut Conn) {
    let mut consumed = 0;
    while !c.closing && !c.dead {
        match frame::decode(&c.rbuf[consumed..]) {
            Ok(Some((f, n))) => {
                consumed += n;
                if f.verb == verb::QUIT {
                    c.closing = true;
                } else {
                    dispatch_request(ctx, c, Request::from_frame(f));
                }
            }
            Ok(None) => break,
            Err(_) => {
                ctx.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                c.dead = true;
            }
        }
    }
    c.rbuf.drain(..consumed);
    if c.rbuf.len() > MAX_INPUT_BUFFER {
        ctx.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
        c.dead = true;
    }
    if c.closing || c.dead {
        c.rbuf.clear();
    }
}

/// Admission control, then hand-off: a request past the in-flight or
/// outbound-bytes limit is answered `OVERLOADED` through its seq slot
/// (so shed notices keep wire order too) without executing. A `PING`
/// needs no worker: it is answered in its slot here, so it never takes
/// an in-flight slot from a query (only the outbound limit sheds it).
///
/// Writes go to the writer thread, everything else to the pool. Writes
/// serialize on the core's write gate anyway, so one thread costs them
/// no concurrency. What it buys is that each thread keeps one role. If
/// the pool took writes too, the worker that had just run a write would
/// often be the next read's worker. On a box with as many busy threads
/// as cores, the scheduler tends to wake such a thread on the core it
/// last ran on, where the next write is running, and the read waits out
/// the writer's time slice: 1–4 ms, for about 1.4 % of `bench_e2e`'s
/// `read_mixed` reads on two cores.
fn dispatch_request(ctx: &Ctx, c: &mut Conn, req: Request) {
    ctx.metrics.frames_in.fetch_add(1, Ordering::Relaxed);
    let seq = c.next_seq;
    c.next_seq += 1;
    let id = req.id;
    let ping = req.verb == verb::PING;
    let in_flight = c.shared.in_flight.load(Ordering::Acquire);
    let out_bytes = lock(&c.shared.out).bytes;
    if (!ping && in_flight >= ctx.cfg.max_inflight) || out_bytes >= ctx.cfg.out_high_water {
        ctx.metrics.shed_count.fetch_add(1, Ordering::Relaxed);
        lock(&c.shared.out).complete(seq, frame::encode(verb::OVERLOADED, id, b""));
        ctx.metrics.frames_out.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if ping {
        let pong = reply(id, req.text.map(|_| PONG.to_string()));
        lock(&c.shared.out).complete(seq, pong);
        ctx.metrics.frames_out.fetch_add(1, Ordering::Relaxed);
        return;
    }
    c.shared.in_flight.fetch_add(1, Ordering::AcqRel);
    let job = Job {
        conn: Arc::clone(&c.shared),
        seq,
        req,
        started: Instant::now(),
    };
    let queue = match job.req.verb {
        verb::INSERT | verb::DELETE => &ctx.writer,
        _ => &ctx.pool,
    };
    if queue.push(job).is_err() {
        // Workers gone (can only happen mid-shutdown): answer in place.
        c.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        let notice = frame::encode(verb::ERR, id, b"internal: worker pool unavailable");
        lock(&c.shared.out).complete(seq, notice);
    }
}

/// Write queued output until the socket blocks. Returns false when the
/// connection is broken.
fn flush_conn(c: &mut Conn) -> bool {
    let mut out = lock(&c.shared.out);
    loop {
        let (front_len, res) = {
            let Some(front) = out.queue.front() else {
                return true;
            };
            (front.len(), c.stream.write(&front[out.head_written..]))
        };
        match res {
            Ok(0) => return false,
            Ok(n) => {
                out.head_written += n;
                out.bytes = out.bytes.saturating_sub(n);
                if out.head_written == front_len {
                    out.head_written = 0;
                    out.queue.pop_front();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

fn close_conn(c: &mut Conn, ctx: &Ctx) {
    c.shared.closed.store(true, Ordering::Release);
    for id in lock(&c.shared.subs).drain(..) {
        ctx.core.unsubscribe(id);
    }
    for id in lock(&c.shared.repl_subs).drain(..) {
        ctx.core.repl_unsubscribe(id);
    }
    ctx.metrics.connections_open.fetch_sub(1, Ordering::Relaxed);
}

/// Jobs for a set of executor threads. A job goes to the thread that
/// went idle **last**, so a lone client's requests keep landing on the
/// same warm thread. (A first-come hand-off passes each request to the
/// thread that has waited longest: a closed loop's requests then
/// alternate across the pool, and each one wakes a colder thread. On
/// two cores that cost `read_mixed` several percent of its p50.)
struct JobQueue {
    state: Mutex<QueueState>,
}

struct QueueState {
    /// Jobs no thread has taken yet, oldest first.
    jobs: VecDeque<Job>,
    /// Threads waiting for a job, the most recently idle last.
    idle: Vec<Arc<Handoff>>,
    /// Threads still serving this queue; a push with none is refused.
    live: usize,
    closed: bool,
}

/// Where one idle thread waits for its next job.
#[derive(Default)]
struct Handoff {
    slot: Mutex<Slot>,
    filled: Condvar,
}

#[derive(Default)]
enum Slot {
    #[default]
    Empty,
    Job(Job),
    Closed,
}

impl JobQueue {
    /// A queue that `threads` threads will serve.
    fn new(threads: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                idle: Vec::new(),
                live: threads,
                closed: false,
            }),
        }
    }

    /// Hand `job` to the most recently idle thread, or queue it when
    /// none waits. Gives the job back once the queue is closed or every
    /// thread serving it is gone.
    fn push(&self, job: Job) -> std::result::Result<(), Job> {
        let mut state = lock(&self.state);
        if state.closed || state.live == 0 {
            return Err(job);
        }
        match state.idle.pop() {
            Some(idle) => {
                drop(state);
                idle.fill(Slot::Job(job));
            }
            None => state.jobs.push_back(job),
        }
        Ok(())
    }

    /// The next job for the thread waiting at `handoff`; `None` once the
    /// queue is closed and drained.
    fn pop(&self, handoff: &Arc<Handoff>) -> Option<Job> {
        {
            let mut state = lock(&self.state);
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state.idle.push(Arc::clone(handoff));
        }
        match handoff.wait() {
            Slot::Job(job) => Some(job),
            Slot::Empty | Slot::Closed => None,
        }
    }

    /// Refuse further jobs and release every idle thread. Jobs already
    /// queued are still served.
    fn close(&self) {
        let idle = {
            let mut state = lock(&self.state);
            state.closed = true;
            std::mem::take(&mut state.idle)
        };
        for handoff in idle {
            handoff.fill(Slot::Closed);
        }
    }
}

impl Handoff {
    fn fill(&self, slot: Slot) {
        *lock(&self.slot) = slot;
        self.filled.notify_one();
    }

    fn wait(&self) -> Slot {
        let mut slot = lock(&self.slot);
        loop {
            match std::mem::take(&mut *slot) {
                Slot::Empty => {
                    slot = self
                        .filled
                        .wait(slot)
                        .unwrap_or_else(PoisonError::into_inner)
                }
                filled => return filled,
            }
        }
    }
}

/// Counts a thread out of its queue when it ends, panicking or not.
struct Serving(Arc<JobQueue>);

impl Drop for Serving {
    fn drop(&mut self) {
        lock(&self.0.state).live -= 1;
    }
}

fn worker_loop(core: Arc<ServiceCore>, queue: Arc<JobQueue>) {
    let serving = Serving(queue);
    let handoff = Arc::new(Handoff::default());
    while let Some(job) = serving.0.pop(&handoff) {
        let Job {
            conn,
            seq,
            req,
            started,
        } = job;
        // The explicit context hand-off: this worker thread has no span
        // stack of its own, so the request span is parented on the
        // connection's trace anchor — every engine span opened below
        // nests under it via the thread-local stack.
        let mut sp = trace::span_child_of("request", conn.trace_ctx);
        if sp.id().is_some() {
            sp.field("seq", seq.to_string());
        }
        let result = req.text.and_then(|bytes| {
            let text = std::str::from_utf8(&bytes)
                .map_err(|_| "parse: frame payload is not valid UTF-8".to_string())?;
            execute(&core, Some(&conn), req.verb, text).map_err(|e| error_payload(&e))
        });
        let bytes = reply(req.id, result);
        let span_id = sp.id();
        drop(sp); // record the finished span before rendering its tree
        let elapsed = started.elapsed();
        log_slow_query(span_id, elapsed);
        lock(&conn.out).complete(seq, bytes);
        conn.in_flight.fetch_sub(1, Ordering::AcqRel);
        conn.metrics.latency.record(elapsed);
        conn.metrics.frames_out.fetch_add(1, Ordering::Relaxed);
        conn.waker.wake();
    }
}

/// Parsed `PROQL_SLOW_QUERY_MS` threshold, read once. Unset (or
/// unparsable) disables the slow-query log.
fn slow_query_threshold_ms() -> Option<u64> {
    static THRESHOLD: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var("PROQL_SLOW_QUERY_MS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
    })
}

/// Slow-query log: when a request outlives the `PROQL_SLOW_QUERY_MS`
/// threshold, write its full span tree to stderr (span trees need
/// tracing enabled; without it the outlier is still logged, treeless).
fn log_slow_query(span_id: Option<u64>, elapsed: std::time::Duration) {
    let Some(threshold) = slow_query_threshold_ms() else {
        return;
    };
    let ms = elapsed.as_millis().min(u64::MAX as u128) as u64;
    if ms < threshold {
        return;
    }
    match span_id.and_then(trace::render_span_tree) {
        Some(tree) => eprintln!("[slow-query] {ms} ms (threshold {threshold} ms)\n{tree}"),
        None => eprintln!(
            "[slow-query] {ms} ms (threshold {threshold} ms); set PROQL_TRACE=1 for span trees"
        ),
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::BinClient;
    use crate::proto::{json_str_field, json_u64_field};
    use proql::engine::EngineOptions;
    use proql_provgraph::system::example_2_1;

    fn start(workers: usize) -> (Arc<ServiceCore>, ServerHandle) {
        let core = Arc::new(ServiceCore::new(
            example_2_1().unwrap(),
            EngineOptions::default(),
        ));
        let handle = serve(Arc::clone(&core), "127.0.0.1:0", workers).unwrap();
        (core, handle)
    }

    const Q: &str = "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x";

    #[test]
    fn wire_session_query_delete_stats() {
        let (_core, handle) = start(2);
        let mut c = BinClient::connect(handle.addr()).unwrap();

        let first = c.query(Q).unwrap();
        assert_eq!(json_u64_field(&first, "bindings"), Some(4));
        assert_eq!(json_str_field(&first, "cache").as_deref(), Some("miss"));

        let second = c.query(Q).unwrap();
        assert_eq!(json_str_field(&second, "cache").as_deref(), Some("hit"));
        assert_eq!(
            json_str_field(&first, "digest"),
            json_str_field(&second, "digest")
        );

        let del = c.request(verb::DELETE, b"C 2,cn2").unwrap();
        assert_eq!(del.verb, verb::OK, "{del:?}");

        let third = c.query(Q).unwrap();
        assert_eq!(json_u64_field(&third, "bindings"), Some(3));

        let stats = c.stats().unwrap();
        assert_eq!(json_u64_field(&stats, "writes"), Some(1));
        assert!(json_u64_field(&stats, "cache_hits").unwrap() >= 1);
        // Transport counters flow through STATS.
        assert_eq!(json_u64_field(&stats, "connections_open"), Some(1));
        assert!(json_u64_field(&stats, "frames_in").unwrap() >= 5);

        let err = c.request(verb::QUERY, b"FOR [O $x RETURN $x").unwrap();
        assert_eq!(err.verb, verb::ERR, "{err:?}");
        assert!(err.text().unwrap().starts_with("parse:"), "{err:?}");

        assert_eq!(c.request(verb::INVALIDATE, b"").unwrap().verb, verb::OK);
        drop(c);
        handle.shutdown();
    }

    #[test]
    fn concurrent_clients_share_the_cache() {
        let (core, handle) = start(4);
        let addr = handle.addr();
        let results: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        let mut c = BinClient::connect(addr).unwrap();
                        let mut digests = Vec::new();
                        for _ in 0..5 {
                            let json = c.query(Q).unwrap();
                            digests.push(
                                json_str_field(&json, "digest")
                                    .unwrap()
                                    .parse::<u64>()
                                    .unwrap(),
                            );
                        }
                        digests
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(results.len(), 20);
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        let stats = core.stats();
        assert_eq!(stats.queries, 20);
        assert!(stats.cache.hits >= 16, "stats: {stats:?}");
        handle.shutdown();
    }

    #[test]
    fn subscribe_pushes_deltas_and_resyncs_over_the_wire() {
        use proql_common::{tup, Schema, ValueType};
        use proql_provgraph::ProvenanceSystem;
        // An acyclic X → Y family: unfold strategy, so writes are
        // maintained and subscribers get deltas (not just resyncs).
        let mut sys = ProvenanceSystem::new();
        for name in ["X", "Y"] {
            sys.add_relation_with_local(
                Schema::build(name, &[("id", ValueType::Int), ("w", ValueType::Int)], &[0])
                    .unwrap(),
            )
            .unwrap();
        }
        sys.add_mapping_text("mxy: Y(i, w) :- X(i, w)").unwrap();
        for i in 0..5 {
            sys.insert_local("X", tup![i, i * 10]).unwrap();
        }
        sys.run_exchange().unwrap();
        let core = Arc::new(ServiceCore::new(sys, EngineOptions::default()));
        let handle = serve(Arc::clone(&core), "127.0.0.1:0", 2).unwrap();
        let qy = "FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x";

        let mut c = BinClient::connect(handle.addr()).unwrap();
        let sub = c.subscribe(qy).unwrap();
        let sub_id = json_u64_field(&sub, "subscription").expect("subscription id");
        assert_eq!(json_u64_field(&sub, "bindings"), Some(5));

        // A touching write from another client: the maintained entry's
        // delta is pushed to the subscriber.
        let mut w = BinClient::connect(handle.addr()).unwrap();
        let del = w.request(verb::DELETE, b"X 0").unwrap();
        assert_eq!(del.verb, verb::OK, "{del:?}");
        let push = c.next_push().unwrap();
        assert_eq!(push.id, sub_id);
        let push = push.text().unwrap();
        assert_eq!(json_u64_field(push, "subscription"), Some(sub_id));
        assert_eq!(json_str_field(push, "event").as_deref(), Some("delta"));
        assert!(json_u64_field(push, "rows_patched").unwrap() > 0);
        let pushed_digest = json_u64_field(push, "digest").unwrap();

        // The pushed digest is exactly what a re-query serves (a cache
        // hit on the patched entry).
        let requery = c.query(qy).unwrap();
        assert_eq!(json_str_field(&requery, "cache").as_deref(), Some("hit"));
        assert_eq!(json_u64_field(&requery, "bindings"), Some(4));
        assert_eq!(json_u64_field(&requery, "digest"), Some(pushed_digest));

        // Kill the entry, then write again: the subscriber must resync.
        assert_eq!(c.request(verb::INVALIDATE, b"").unwrap().verb, verb::OK);
        let del2 = w.request(verb::DELETE, b"X 1").unwrap();
        assert_eq!(del2.verb, verb::OK, "{del2:?}");
        let push2 = c.next_push().unwrap();
        assert_eq!(
            json_str_field(push2.text().unwrap(), "event").as_deref(),
            Some("resync")
        );

        // Closing the subscriber's connection unsubscribes it.
        drop(c);
        for _ in 0..250 {
            if core.subscription_count() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(core.subscription_count(), 0);
        drop(w);
        handle.shutdown();
    }

    #[test]
    fn quit_closes_cleanly_and_server_survives() {
        let (_core, handle) = start(1);
        {
            let mut c = BinClient::connect(handle.addr()).unwrap();
            c.query(Q).unwrap();
            // QUIT gets no response; the connection just closes.
            assert!(c.request(verb::QUIT, b"").is_err());
        }
        // The worker pool must be free again for the next connection.
        let mut c2 = BinClient::connect(handle.addr()).unwrap();
        assert!(c2.query(Q).is_ok());
        drop(c2);
        handle.shutdown();
    }

    #[test]
    fn binary_mode_roundtrips_and_pipelines_in_order() {
        let (_core, handle) = start(2);
        let mut c = BinClient::connect(handle.addr()).unwrap();

        let pong = c.request(verb::PING, b"").unwrap();
        assert_eq!(pong.verb, verb::OK);

        let first = c.query(Q).unwrap();
        assert_eq!(json_u64_field(&first, "bindings"), Some(4));

        // A pipelined batch answers every request, in request order.
        let queries = [Q; 8];
        let payloads = c.pipeline_queries(&queries).unwrap();
        assert_eq!(payloads.len(), 8);
        for p in &payloads {
            assert_eq!(
                json_str_field(p, "digest"),
                json_str_field(&first, "digest")
            );
        }

        // Errors come back as ERR frames with the request id, not drops.
        let bad = c.request(verb::QUERY, b"FOR [O $x RETURN $x").unwrap();
        assert_eq!(bad.verb, verb::ERR);
        assert!(
            bad.text().unwrap().starts_with("parse:"),
            "{:?}",
            bad.text()
        );

        let unknown = c.request(77, b"").unwrap();
        assert_eq!(unknown.verb, verb::ERR);

        // So does a payload that is not text (the worker checks, not the
        // decoder), and the connection keeps serving.
        let binary = c.request(verb::QUERY, &[0xff, 0xfe]).unwrap();
        assert_eq!(binary.verb, verb::ERR);
        assert_eq!(
            binary.text(),
            Some("parse: frame payload is not valid UTF-8")
        );
        assert_eq!(c.request(verb::PING, b"").unwrap().verb, verb::OK);

        c.quit().unwrap();
        handle.shutdown();
    }

    /// Shutdown must not wait on clients: with two connections open and
    /// idle (each has spoken, one a query and one a `PING`), it closes
    /// both and returns promptly.
    #[test]
    fn shutdown_with_idle_clients_of_both_protocols_is_fast() {
        let (_core, handle) = start(2);
        let mut querier = BinClient::connect(handle.addr()).unwrap();
        let mut bin = BinClient::connect(handle.addr()).unwrap();
        assert_eq!(
            json_u64_field(&querier.query(Q).unwrap(), "bindings"),
            Some(4)
        );
        assert_eq!(bin.request(verb::PING, b"").unwrap().verb, verb::OK);
        let t = Instant::now();
        handle.shutdown();
        assert!(
            t.elapsed() < std::time::Duration::from_secs(2),
            "shutdown with idle clients took {:?}",
            t.elapsed()
        );
        // Both clients observe the close instead of hanging.
        assert!(querier.request(verb::PING, b"").is_err());
        assert!(bin.request(verb::PING, b"").is_err());
    }

    /// A loop-side connection over a real socket pair, plus the loop
    /// context to dispatch on. The context's worker and writer queues
    /// are **closed**: every hand-off fails, as it would with the pool
    /// gone mid-shutdown.
    fn orphaned_loop() -> (Ctx, Conn, TcpStream) {
        let (ctx, conn, peer) = test_loop();
        ctx.pool.close();
        ctx.writer.close();
        (ctx, conn, peer)
    }

    /// [`orphaned_loop`] with open queues that no thread serves: what
    /// is dispatched stays queued.
    fn test_loop() -> (Ctx, Conn, TcpStream) {
        let core = Arc::new(ServiceCore::new(
            example_2_1().unwrap(),
            EngineOptions::default(),
        ));
        let (waker, _wake_rx) = Waker::pair().unwrap();
        let waker = Arc::new(waker);
        let metrics = Arc::new(TransportMetrics::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let conn = Conn {
            stream,
            shared: Arc::new(ConnShared::new(Arc::clone(&waker), Arc::clone(&metrics))),
            rbuf: Vec::new(),
            next_seq: 0,
            closing: false,
            dead: false,
        };
        let ctx = Ctx {
            core,
            cfg: ServerConfig::default(),
            metrics,
            pool: Arc::new(JobQueue::new(1)),
            writer: Arc::new(JobQueue::new(1)),
            waker,
        };
        (ctx, conn, peer)
    }

    /// Writes go to the writer thread's queue and nothing else does, so a
    /// pool worker never runs a write.
    #[test]
    fn writes_are_queued_for_the_writer_and_the_rest_for_the_pool() {
        let (ctx, mut conn, _peer) = test_loop();
        let requests = [
            (verb::QUERY, Q),
            (verb::INSERT, "A 9,sn9,4"),
            (verb::STATS, ""),
            (verb::DELETE, "A 9"),
            (verb::INVALIDATE, ""),
        ];
        for (id, (v, text)) in requests.into_iter().enumerate() {
            let bytes = frame::encode(v, id as u64, text.as_bytes());
            let req = Request::from_frame(frame::decode(&bytes).unwrap().unwrap().0);
            dispatch_request(&ctx, &mut conn, req);
        }
        let verbs = |q: &JobQueue| {
            let state = lock(&q.state);
            state.jobs.iter().map(|j| j.req.verb).collect::<Vec<_>>()
        };
        assert_eq!(verbs(&ctx.writer), [verb::INSERT, verb::DELETE]);
        assert_eq!(
            verbs(&ctx.pool),
            [verb::QUERY, verb::STATS, verb::INVALIDATE]
        );
        assert_eq!(conn.shared.in_flight.load(Ordering::Acquire), 5);
    }

    /// A job goes to the thread that went idle last; closing releases
    /// the rest, and a closed queue hands jobs back.
    #[test]
    fn the_most_recently_idle_thread_takes_the_next_job() {
        let (ctx, mut conn, _peer) = test_loop();
        let (first, last) = (Arc::new(Handoff::default()), Arc::new(Handoff::default()));
        lock(&ctx.pool.state)
            .idle
            .extend([Arc::clone(&first), Arc::clone(&last)]);
        let bytes = frame::encode(verb::QUERY, 1, Q.as_bytes());
        dispatch_request(
            &ctx,
            &mut conn,
            Request::from_frame(frame::decode(&bytes).unwrap().unwrap().0),
        );
        assert!(matches!(last.wait(), Slot::Job(job) if job.req.id == 1));
        ctx.pool.close();
        assert!(matches!(first.wait(), Slot::Closed));
        assert!(lock(&ctx.pool.state).jobs.is_empty());
        dispatch_request(
            &ctx,
            &mut conn,
            Request::from_frame(frame::decode(&bytes).unwrap().unwrap().0),
        );
        assert!(lock(&ctx.pool.state).jobs.is_empty(), "refused, not queued");
    }

    /// Regression: with the worker pool gone, a connection's sequence
    /// slot used to be filled with unframed text on a framed stream. The
    /// in-place answer is an `ERR` frame echoing the request's id.
    #[test]
    fn worker_pool_loss_is_answered_in_the_connections_own_wire_format() {
        let (ctx, mut conn, _peer) = orphaned_loop();
        let req = Request::from_frame(
            frame::decode(&frame::encode(verb::QUERY, 7, Q.as_bytes()))
                .unwrap()
                .unwrap()
                .0,
        );
        dispatch_request(&ctx, &mut conn, req);
        let queued = lock(&conn.shared.out).queue.pop_front().unwrap();
        let (reply, used) = frame::decode(&queued).unwrap().expect("a whole frame");
        assert_eq!(used, queued.len(), "nothing but the frame");
        assert_eq!((reply.verb, reply.id), (verb::ERR, 7));
        assert_eq!(reply.text(), Some("internal: worker pool unavailable"));
        assert_eq!(conn.shared.in_flight.load(Ordering::Acquire), 0);
    }

    /// Regression: a `PING` used to take an in-flight slot and a worker,
    /// so a client's liveness probes could push its own queries past the
    /// admission limit. At the limit, a `PING` is still answered — in its
    /// sequence slot, without a slot of its own — and the next query is
    /// still shed.
    #[test]
    fn ping_at_the_admission_limit_is_answered_in_order_and_takes_no_slot() {
        let (ctx, mut conn, _peer) = orphaned_loop();
        let full = ctx.cfg.max_inflight;
        conn.shared.in_flight.store(full, Ordering::Release);
        let frame_req = |v, id, payload: &[u8]| {
            Request::from_frame(
                frame::decode(&frame::encode(v, id, payload))
                    .unwrap()
                    .unwrap()
                    .0,
            )
        };
        dispatch_request(&ctx, &mut conn, frame_req(verb::PING, 1, b""));
        dispatch_request(&ctx, &mut conn, frame_req(verb::QUERY, 2, Q.as_bytes()));
        let mut out = lock(&conn.shared.out);
        let replies: Vec<frame::Frame> = out
            .queue
            .drain(..)
            .map(|bytes| frame::decode(&bytes).unwrap().unwrap().0)
            .collect();
        drop(out);
        assert_eq!(replies.len(), 2);
        assert_eq!((replies[0].verb, replies[0].id), (verb::OK, 1));
        assert_eq!(replies[0].text(), Some(PONG));
        assert_eq!((replies[1].verb, replies[1].id), (verb::OVERLOADED, 2));
        assert_eq!(conn.shared.in_flight.load(Ordering::Acquire), full);
    }
}
