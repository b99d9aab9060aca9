//! Set-up and the timed, untraced run of each workload.

use crate::client::{self, Conn, OpenLoopRun, Reply, Sample};
use crate::gen::{self, Spec, Workload, Zipf};
use crate::stats::{self, Summary};
use crate::verify::{self, Verdict};
use proql::engine::EngineOptions;
use proql_common::{Error, Result};
use proql_service::frame::verb;
use proql_service::{serve, ReplFrameKind, ServerHandle, ServiceCore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seconds of traffic before a closed-loop window opens (connections,
/// allocator arenas and lazily built statistics settle; not measured).
pub const WARMUP_S: f64 = 1.0;

/// Parts a window is cut into; the median over the parts is reported.
pub const SLICES: usize = 5;

/// Requests each `hot_read` saturation connection keeps in flight.
pub const PIPELINE_DEPTH: usize = 8;

/// `hot_read` open-loop arrival rates, requests per second: about 25,
/// 50 and 75 % of the closed-loop capacity measured at the seed commit
/// on the 2-core reference box. Frozen so a later commit is measured
/// against the same offered load.
pub const OPEN_LOOP_RATES: [f64; 3] = [6_000.0, 12_000.0, 18_000.0];

/// How overdue a reply must be before a connection pings the server
/// (see [`Conn`]): far beyond any latency the workload produces when the
/// server's loop is awake, so a ping marks a missed wake-up.
const NUDGE_CLOSED: Duration = Duration::from_millis(50);
/// The same for `hot_read`, whose replies take well under a millisecond.
const NUDGE_HOT: Duration = Duration::from_millis(1);

/// `lat_p99_ms` limit a rate must meet to count for `max_rate_ok`.
pub const LATENCY_LIMIT_MS: f64 = 5.0;

/// How the run's seconds are shared between `hot_read`'s phases: the
/// closed-loop saturation, whose numbers are the reported ones, then the
/// three open-loop rates.
const HOT_PHASE_SHARE: [f64; 4] = [0.4, 0.2, 0.2, 0.2];

pub fn io_err(e: std::io::Error) -> Error {
    Error::Other(format!("i/o: {e}"))
}

pub fn engine_options(spec: &Spec) -> EngineOptions {
    EngineOptions {
        strategy: spec.strategy,
        ..EngineOptions::default()
    }
}

/// Replication frames a mixed run's primary streamed, kept for the
/// follower check after the window. The sink only stores the shared
/// payload, so the acknowledgement pays for encoding (as with any
/// replica attached) but not for the apply, which is asynchronous to it.
pub type FrameLog = Arc<Mutex<Vec<Arc<Vec<u8>>>>>;

/// A served instance, ready for traffic.
pub struct Instance {
    pub core: Arc<ServiceCore>,
    pub server: ServerHandle,
    pub frames: FrameLog,
    /// Stored rows after the initial exchange (tables and provenance).
    pub rows: usize,
}

/// Build the instance from the seed, run the initial exchange, start the
/// server and warm what the workload keeps warm. `setup_s` times this.
pub fn set_up(workload: Workload, seed: u64, workers: usize) -> Result<Instance> {
    let spec = workload.spec();
    let sys = gen::build_instance(seed, &spec)?;
    let rows = sys.db.total_rows();
    let core = Arc::new(ServiceCore::new(sys, engine_options(&spec)));
    let server = serve(Arc::clone(&core), "127.0.0.1:0", workers)?;
    let frames: FrameLog = Arc::default();
    match workload {
        Workload::MissUnfold => {}
        // The graph strategy walks the materialized provenance graph.
        Workload::MissGraph => drop(core.snapshot().engine.graph()?),
        Workload::HotRead => {
            for q in gen::hot_queries(seed) {
                core.query(&q)?;
            }
        }
        Workload::WriteMixed | Workload::ReadMixed => {
            for q in gen::mixed_queries(seed) {
                core.query(&q)?;
            }
            // Deletions analyse derivability over the cached graph.
            drop(core.snapshot().engine.graph()?);
            let log = Arc::clone(&frames);
            core.repl_subscribe_sink(
                core.version(),
                false,
                Box::new(move |kind, payload| {
                    if kind == ReplFrameKind::Delta {
                        log.lock().expect("frame log").push(Arc::clone(payload));
                    }
                    true
                }),
            );
        }
    }
    Ok(Instance {
        core,
        server,
        frames,
        rows,
    })
}

/// What a timed run hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub notes: Vec<String>,
    /// The workload's reported operation: latency and rate.
    pub primary: Summary,
    /// Named extras, already rendered as JSON values.
    pub diagnostics: Vec<(String, String)>,
}

fn count_failed(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| s.reply == Reply::Failed).count() as u64
}

/// Samples whose request was sent inside the window, as
/// `(completion offset from the window start, latency)` pairs.
fn in_window(samples: &[Sample]) -> Vec<(f64, f64)> {
    samples
        .iter()
        .filter(|s| s.done_s - s.latency_ms / 1e3 >= WARMUP_S)
        .map(|s| (s.done_s - WARMUP_S, s.latency_ms))
        .collect()
}

fn summary_json(s: &Summary) -> String {
    crate::json::object(&[
        ("samples".into(), s.samples.to_string()),
        ("p50_ms".into(), crate::json::num(s.p50_ms)),
        ("tail_ms".into(), crate::json::num(s.tail_ms)),
        ("tail_q".into(), crate::json::num(s.tail_q)),
        ("per_s".into(), crate::json::num(s.per_s)),
    ])
}

fn fold_verdict(
    v: Verdict,
    failed: &mut u64,
    notes: &mut Vec<String>,
    diag: &mut Vec<(String, String)>,
) {
    *failed += v.mismatches;
    notes.extend(v.notes);
    diag.push(("verified".into(), v.checked.to_string()));
    diag.push(("mismatches".into(), v.mismatches.to_string()));
}

/// What one generator connection did: its samples, and the `PING`s it
/// had to send to prompt overdue replies.
type ConnLog = (Vec<Sample>, u64);

/// A closed-loop generator: runs from the shared origin until the flag.
type Generator<'a> = Box<dyn FnOnce(Instant, &AtomicBool) -> Result<ConnLog> + Send + 'a>;

/// Run closed-loop generator threads against the instance for the
/// warm-up plus `seconds`, returning each thread's log in order.
fn drive(seconds: f64, loops: Vec<Generator<'_>>) -> Result<Vec<ConnLog>> {
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    std::thread::scope(|s| {
        let stop = &stop;
        let handles: Vec<_> = loops
            .into_iter()
            .map(|f| s.spawn(move || f(origin, stop)))
            .collect();
        std::thread::sleep(Duration::from_secs_f64(WARMUP_S + seconds));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// `miss_unfold` / `miss_graph`: closed loop, every request a text the
/// service has never seen.
pub fn run_miss(
    workload: Workload,
    seed: u64,
    inst: &Instance,
    seconds: f64,
    conns: usize,
) -> Result<Outcome> {
    let addr = inst.server.addr();
    let hits_before = inst.core.stats().cache.hits;
    let loops = (0..conns as u64)
        .map(|c| {
            Box::new(move |origin: Instant, stop: &AtomicBool| {
                let mut conn = Conn::connect(addr, NUDGE_CLOSED).map_err(io_err)?;
                let mut i = 0u64;
                let samples = client::closed_loop(&mut conn, origin, stop, || {
                    let g = i * conns as u64 + c;
                    i += 1;
                    (g, verb::QUERY, gen::miss_query(workload, seed, g))
                });
                Ok((samples, conn.nudges()))
            }) as Generator
        })
        .collect();
    let per_conn = drive(seconds, loops)?;
    let hits = inst.core.stats().cache.hits - hits_before;

    let nudges: u64 = per_conn.iter().map(|(_, n)| n).sum();
    let all: Vec<Sample> = per_conn.into_iter().flat_map(|(s, _)| s).collect();
    let mut failed = count_failed(&all);
    let mut notes = Vec::new();
    let mut diagnostics = Vec::new();
    if hits != 0 {
        notes.push(format!("{hits} cache hits on a workload built to miss"));
    }
    // A fixed-size sample, evenly spread over the run, is recomputed
    // from scratch; checking every reply would double the run's length.
    let stride = (all.len() / verify::VERIFY_READS).max(1);
    let sampled = all
        .iter()
        .step_by(stride)
        .filter(|s| s.reply != Reply::Failed)
        .map(|s| (gen::miss_query(workload, seed, s.op), s.reply));
    let verdict = verify::verify_reads(seed, &workload.spec(), sampled)?;
    fold_verdict(verdict, &mut failed, &mut notes, &mut diagnostics);
    diagnostics.push(("cache_hits".into(), hits.to_string()));
    diagnostics.push(("nudges".into(), nudges.to_string()));
    Ok(Outcome {
        attempted: all.len() as u64,
        failed,
        notes,
        primary: stats::summarize(&in_window(&all), seconds, SLICES),
        diagnostics,
    })
}

/// `write_mixed` / `read_mixed`: one writer connection cycling inserts
/// and deletes, one reader connection replaying the 16-query hot set;
/// the two workloads report the writer's and the reader's side of the
/// same traffic.
pub fn run_mixed(workload: Workload, seed: u64, inst: &Instance, seconds: f64) -> Result<Outcome> {
    let addr = inst.server.addr();
    let spec = workload.spec();
    let hot = gen::mixed_queries(seed);
    let before = inst.core.stats();
    let writer = Box::new(move |origin: Instant, stop: &AtomicBool| {
        let mut conn = Conn::connect(addr, NUDGE_CLOSED).map_err(io_err)?;
        let mut ops = gen::WriteSeq::new(seed, spec).enumerate();
        let samples = client::closed_loop(&mut conn, origin, stop, || {
            let (i, op) = ops.next().expect("the write sequence is endless");
            let verb = if op.insert {
                verb::INSERT
            } else {
                verb::DELETE
            };
            (i as u64, verb, op.wire_text())
        });
        Ok((samples, conn.nudges()))
    });
    let reader_hot = hot.clone();
    let reader = Box::new(move |origin: Instant, stop: &AtomicBool| {
        let mut conn = Conn::connect(addr, NUDGE_CLOSED).map_err(io_err)?;
        let mut i = 0u64;
        let samples = client::closed_loop(&mut conn, origin, stop, || {
            let text = reader_hot[i as usize % reader_hot.len()].clone();
            i += 1;
            (i - 1, verb::QUERY, text)
        });
        Ok((samples, conn.nudges()))
    });
    let mut per_conn = drive(seconds, vec![writer, reader])?;
    let (reads, reader_nudges) = per_conn.pop().expect("reader log");
    let (writes, writer_nudges) = per_conn.pop().expect("writer log");
    let after = inst.core.stats();

    let mut failed = count_failed(&reads) + count_failed(&writes);
    let mut notes = Vec::new();
    let mut diagnostics = Vec::new();
    for (who, samples) in [("writer", &writes), ("reader", &reads)] {
        if !verify::versions_monotone(samples) {
            failed += 1;
            notes.push(format!("the {who}'s connection saw a version go backwards"));
        }
    }
    let frames = inst.frames.lock().expect("frame log").clone();
    let verdict = verify::verify_mixed(seed, &spec, &hot, &writes, &reads, &frames, &inst.core)?;
    fold_verdict(verdict, &mut failed, &mut notes, &mut diagnostics);

    let write_sum = stats::summarize(&in_window(&writes), seconds, SLICES);
    let read_sum = stats::summarize(&in_window(&reads), seconds, SLICES);
    let maintained = after.cache.maint_hits - before.cache.maint_hits;
    let fallbacks = after.cache.maint_fallbacks - before.cache.maint_fallbacks;
    diagnostics.extend([
        ("writes".to_string(), summary_json(&write_sum)),
        ("reads".to_string(), summary_json(&read_sum)),
        (
            "maint_ok_frac".to_string(),
            crate::json::num(maintained as f64 / (maintained + fallbacks).max(1) as f64),
        ),
        (
            "read_hit_frac".to_string(),
            crate::json::num(
                (after.cache.hits - before.cache.hits) as f64 / reads.len().max(1) as f64,
            ),
        ),
        (
            "delta_compactions".to_string(),
            (after.delta_compactions - before.delta_compactions).to_string(),
        ),
        (
            "graph_patches".to_string(),
            (after.graph_patches - before.graph_patches).to_string(),
        ),
        ("repl_frames".to_string(), frames.len().to_string()),
        (
            "nudges".to_string(),
            (reader_nudges + writer_nudges).to_string(),
        ),
    ]);
    Ok(Outcome {
        attempted: (reads.len() + writes.len()) as u64,
        failed,
        notes,
        primary: if workload == Workload::WriteMixed {
            write_sum
        } else {
            read_sum
        },
        diagnostics,
    })
}

/// One open-loop phase's numbers.
struct RatePoint {
    rate: f64,
    run: OpenLoopRun,
    summary: Summary,
    lateness_p99_ms: f64,
    ok: bool,
}

/// `hot_read`: a 64-text Zipf hot set that stays resident. A closed-loop
/// saturation phase (every connection's pipeline kept full) gives the
/// reported latency and rate; three open-loop phases at fixed arrival
/// rates give latency from the intended send time. Those tails turned
/// out too unsteady on the two-core reference box to carry a bound
/// (spread over ten seeds above a fifth), so they are printed, with
/// `max_rate_ok`, as diagnostics.
pub fn run_hot(seed: u64, inst: &Instance, seconds: f64, conns: usize) -> Result<Outcome> {
    let addr = inst.server.addr();
    let texts = gen::hot_queries(seed);
    let oracle = verify::oracle_engine(seed, &Workload::HotRead.spec())?;
    let version = oracle.sys.version();
    let expected: Vec<u64> = texts
        .iter()
        .map(|t| verify::oracle_digest(&oracle, t))
        .collect::<Result<_>>()?;
    let acceptable = |rank: usize, reply: Reply| {
        reply
            == Reply::Ok {
                version,
                digest: expected[rank],
            }
    };
    let before = inst.core.stats();

    // Saturation: every connection keeps its pipeline full. The op id
    // carries the text's rank in its low byte.
    let sat_s = seconds * HOT_PHASE_SHARE[0];
    let loops = (0..conns as u64)
        .map(|c| {
            let texts = &texts;
            Box::new(move |origin: Instant, stop: &AtomicBool| {
                let mut conn = Conn::connect(addr, NUDGE_HOT).map_err(io_err)?;
                let mut zipf = Zipf::new(texts.len(), seed ^ (c + 1));
                let mut i = 0u64;
                let samples =
                    client::pipelined_loop(&mut conn, origin, stop, PIPELINE_DEPTH, || {
                        let rank = zipf.next_rank();
                        i += 1;
                        ((i << 8) | rank as u64, texts[rank].as_str())
                    });
                Ok((samples, conn.nudges()))
            }) as Generator
        })
        .collect();
    let per_conn = drive(sat_s, loops)?;
    let mut nudges: u64 = per_conn.iter().map(|(_, n)| n).sum();
    let saturation: Vec<Sample> = per_conn.into_iter().flat_map(|(s, _)| s).collect();
    let mut attempted = saturation.len() as u64;
    let mut failed = saturation
        .iter()
        .filter(|s| !acceptable((s.op & 0xff) as usize, s.reply))
        .count() as u64;
    let sat_sum = stats::summarize(&in_window(&saturation), sat_s, SLICES);

    // Open loop: one connection, a sender on schedule and a reader.
    let mut points = Vec::new();
    for (phase, &rate) in OPEN_LOOP_RATES.iter().enumerate() {
        let dur = seconds * HOT_PHASE_SHARE[phase + 1];
        let schedule = gen::arrivals(rate, dur, seed ^ (0x0FE0 + phase as u64));
        let mut zipf = Zipf::new(texts.len(), seed ^ (0xA0 + phase as u64));
        let ranks: Vec<usize> = schedule.iter().map(|_| zipf.next_rank()).collect();
        let conn = Conn::connect(addr, NUDGE_HOT).map_err(io_err)?;
        let run = client::open_loop(
            conn,
            &schedule,
            |i| texts[ranks[i]].clone(),
            |i, reply| acceptable(ranks[i], reply),
        )
        .map_err(io_err)?;
        attempted += schedule.len() as u64;
        failed += run.failed;
        nudges += run.nudges;
        let summary = stats::summarize(&run.samples, dur, SLICES);
        let mut lateness = run.lateness_ms.clone();
        lateness.sort_by(f64::total_cmp);
        // Arrivals of one latency limit's worth of time may be in flight.
        let backlog_limit = rate * LATENCY_LIMIT_MS / 1e3;
        let ok = run.failed == 0
            && summary.tail_q >= 0.99
            && summary.tail_ms <= LATENCY_LIMIT_MS
            && (run.backlog_at_end as f64) <= backlog_limit;
        points.push(RatePoint {
            rate,
            lateness_p99_ms: stats::quantile(&lateness, 0.99),
            run,
            summary,
            ok,
        });
    }
    let after = inst.core.stats();

    let mut notes = Vec::new();
    let misses = after.cache.misses - before.cache.misses;
    if misses != 0 {
        notes.push(format!("{misses} cache misses on a resident hot set"));
    }
    let max_rate_ok = points
        .iter()
        .filter(|p| p.ok)
        .map(|p| p.rate)
        .fold(0.0, f64::max);
    let rates_json: Vec<String> = points
        .iter()
        .map(|p| {
            crate::json::object(&[
                ("rate_per_s".into(), crate::json::num(p.rate)),
                ("latency".into(), summary_json(&p.summary)),
                (
                    "lateness_p99_ms".into(),
                    crate::json::num(p.lateness_p99_ms),
                ),
                ("backlog_at_end".into(), p.run.backlog_at_end.to_string()),
                ("failed".into(), p.run.failed.to_string()),
                ("nudges".into(), p.run.nudges.to_string()),
                ("meets_limit".into(), p.ok.to_string()),
            ])
        })
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        notes,
        primary: sat_sum,
        diagnostics: vec![
            (
                "open_loop".to_string(),
                format!("[{}]", rates_json.join(", ")),
            ),
            ("max_rate_ok".to_string(), crate::json::num(max_rate_ok)),
            (
                "latency_limit_ms".to_string(),
                crate::json::num(LATENCY_LIMIT_MS),
            ),
            ("verified".to_string(), attempted.to_string()),
            ("mismatches".to_string(), failed.to_string()),
            ("cache_misses".to_string(), misses.to_string()),
            ("nudges".to_string(), nudges.to_string()),
        ],
    })
}
