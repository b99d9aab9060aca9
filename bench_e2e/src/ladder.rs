//! The traced run: a single-threaded, in-process replay of the first
//! [`TRACE_OPS`] operations of a workload's sequence through the layer
//! ladder, measured **from outside** — every layer's number comes from
//! timing a call into one of its existing public functions; nothing in
//! the program is instrumented for this.
//!
//! Per operation the replay records
//!
//! * the whole call against the served core — `proto::dispatch` of the
//!   `QUERY` (what a server worker executes: `ServiceCore::query` plus
//!   the reply encoding) as span `service.request`, or
//!   `ServiceCore::insert_and_exchange` / `::delete` as `service.write`;
//! * the ladder: the same work done again through the layers' own public
//!   functions (for writes on a shadow engine kept in step with the
//!   core), each call a span that is then laid inside the whole call as
//!   its child — so the whole call's self time is what the ladder does
//!   not explain, and `trace_coverage` is ladder / whole;
//! * the layers outside the call: framing, the TCP round trip, and for
//!   writes the replica side of the replication stream.

use crate::client::Conn;
use crate::gen::{self, Workload, WriteOp};
use crate::json::{num, object};
use crate::run;
use crate::spans::{self, Recorder};
use proql::annotate::run_annotation_opts;
use proql::engine::{Engine, EngineOptions, PreparedQuery, QueryOutput, Strategy};
use proql::exec::run_projection_graph;
use proql::{
    maintain_output, parse_query, prepare_rules, run_projection_prepared, translate,
    MaintainResult, MaintainState,
};
use proql_cdss::update::delete_local_with_graph;
use proql_common::{Error, Result};
use proql_provgraph::encode::wire;
use proql_service::frame::{self, verb};
use proql_service::proto::{dispatch, json_str, json_str_field, query_json};
use proql_service::{result_digest, ReplApplyOutcome, ServiceCore};
use proql_storage::execute_batch_opts;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations replayed per traced run. Fixed, so the counts repeat.
pub const TRACE_OPS: usize = 200;

/// Reads that follow each write in the mixed workloads' merged sequence
/// (the timed run's reader and writer are concurrent; a single-threaded
/// replay has to pick an interleaving).
const READS_PER_WRITE: usize = 4;

/// The layers of the issue's ladder, in ladder order; each becomes a
/// `<layer>.self_us` metric on every workload (0 where the workload does
/// not enter the layer).
pub const LAYERS: [&str; 20] = [
    "core.parse",
    "core.translate",
    "storage.plan",
    "core.prepare",
    "storage.exec",
    "core.project",
    "provgraph.graph",
    "semiring.annotate",
    "service.cache",
    "service.encode",
    "service.request",
    "service.frame",
    "service.transport",
    "datalog.exchange",
    "cdss.delete",
    "core.maintain",
    "provgraph.wire",
    "service.replica_apply",
    "service.publish",
    "service.write",
];

/// What the traced run hands back to `main`.
pub struct Report {
    pub table: String,
    pub ops: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub span_file: String,
    /// `(name, value, unit)` of every per-layer metric.
    pub metrics: Vec<(String, f64, String)>,
    pub layers_json: String,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty()
    }
}

/// One operation of a workload's replay sequence.
enum Op {
    Read(String),
    Write(WriteOp),
}

fn sequence(workload: Workload, seed: u64) -> Vec<Op> {
    match workload {
        // Connection 0 and 1 of the timed run, interleaved.
        Workload::MissUnfold | Workload::MissGraph => (0..TRACE_OPS as u64)
            .map(|g| Op::Read(gen::miss_query(workload, seed, g)))
            .collect(),
        Workload::HotRead => {
            let texts = gen::hot_queries(seed);
            let mut zipf = gen::Zipf::new(texts.len(), seed ^ 1);
            (0..TRACE_OPS)
                .map(|_| Op::Read(texts[zipf.next_rank()].clone()))
                .collect()
        }
        Workload::WriteMixed | Workload::ReadMixed => {
            let hot = gen::mixed_queries(seed);
            let mut writes = gen::WriteSeq::new(seed, workload.spec());
            let mut reads = hot.iter().cycle();
            let mut ops = Vec::with_capacity(TRACE_OPS);
            while ops.len() < TRACE_OPS {
                ops.push(Op::Write(writes.next().expect("endless")));
                for _ in 0..READS_PER_WRITE {
                    ops.push(Op::Read(reads.next().expect("cycle").clone()));
                }
            }
            ops.truncate(TRACE_OPS);
            ops
        }
    }
}

/// Counts taken at the layer boundaries; they repeat exactly from run
/// to run and are reported as counts, never as speed-ups.
#[derive(Debug, Default)]
struct Counts {
    rules: u64,
    joins: u64,
    rows_out: u64,
    reply_bytes: u64,
    wire_bytes: u64,
    cache_hits: u64,
    reads: u64,
    maint_candidates: u64,
    maint_ok: u64,
}

/// A hot query as the shadow of the service's cache keeps it.
struct ShadowEntry {
    text: String,
    prepared: Arc<PreparedQuery>,
    output: QueryOutput,
    state: Option<Box<MaintainState>>,
    resident: bool,
}

/// The benchmark's own copy of the write path's state: an engine kept
/// at the served core's version by applying the same writes through the
/// same public functions, the hot entries maintenance patches, and a
/// follower that applies the replication frames. The follower serves no
/// reads, so its cache is empty and an apply is the replay, the graph
/// patch, the digest check and the publish, without cache maintenance
/// (whose candidate order, a hash map's, would not repeat).
struct Shadow {
    engine: Engine,
    options: EngineOptions,
    entries: Vec<ShadowEntry>,
    follower: ServiceCore,
}

impl Shadow {
    fn new(workload: Workload, seed: u64) -> Result<Shadow> {
        let spec = workload.spec();
        let options = run::engine_options(&spec);
        let engine = Engine::with_options(gen::build_instance(seed, &spec)?, options.clone());
        let follower = ServiceCore::new(gen::build_instance(seed, &spec)?, options.clone());
        follower.set_read_only(true);
        let mut entries = Vec::new();
        if workload.is_mixed() {
            for text in gen::mixed_queries(seed) {
                let prepared = Arc::new(engine.prepare(&text)?);
                let output = engine.execute(&prepared)?;
                entries.push(ShadowEntry {
                    text,
                    prepared,
                    output,
                    state: None,
                    resident: true,
                });
            }
            drop(engine.graph()?);
        }
        Ok(Shadow {
            engine,
            options,
            entries,
            follower,
        })
    }

    /// A read missed in the served cache and was re-executed from its
    /// cached plan; do the same here.
    fn refresh(&mut self, text: &str) -> Result<()> {
        if let Some(e) = self.entries.iter_mut().find(|e| e.text == text) {
            e.output = self.engine.execute(&e.prepared)?;
            e.state = None;
            e.resident = true;
        }
        Ok(())
    }
}

/// Everything one replay needs.
struct Replay<'a> {
    rec: Recorder,
    core: &'a ServiceCore,
    conn: Conn,
    shadow: Shadow,
    counts: Counts,
    failed: u64,
    notes: Vec<String>,
    /// While set, [`Replay::probe`] runs its call without recording it:
    /// the served request did not do that work (it reused a cached
    /// plan), the replay only needs the result.
    muted: bool,
}

impl Replay<'_> {
    /// Time `f` as a top-level span, then lay it inside `whole` at the
    /// running `offset` (see the module docs).
    fn probe<T>(
        &mut self,
        name: &'static str,
        req: u32,
        whole: u32,
        offset: &mut u64,
        f: impl FnOnce(&mut Shadow) -> Result<(T, u64, u64)>,
    ) -> Result<T> {
        if self.muted {
            return f(&mut self.shadow).map(|o| o.0);
        }
        let id = self.rec.begin(name, 0, req);
        let out = f(&mut self.shadow);
        let (units_in, units_out) = out.as_ref().map_or((0, 0), |o| (o.1, o.2));
        self.rec.end(id, units_in, units_out);
        self.rec.adopt_probe(whole, id, *offset);
        *offset += self.rec.spans[id as usize - 1].duration_ns();
        out.map(|o| o.0)
    }

    fn read(&mut self, req: u32, text: &str) -> Result<()> {
        let request = self.rec.begin("bench.request", 0, req);
        let mut whole = self.rec.begin("service.request", request, req);
        let served = dispatch(self.core, "QUERY", text)?;
        self.rec.end(whole, text.len() as u64, served.len() as u64);
        let hit = json_str_field(&served, "cache").as_deref() == Some("hit");
        let plan_hit = json_str_field(&served, "plan_cache").as_deref() == Some("hit");
        if hit {
            // A hit leaves the service as it found it, so the call can be
            // repeated: the first one (which also told us it is a hit)
            // ran on caches the previous operation's probes left cold,
            // the ladder below runs warm. Measure the whole call warm too.
            self.rec.spans[whole as usize - 1].name = "bench.peek";
            whole = self.rec.begin("service.request", request, req);
            dispatch(self.core, "QUERY", text)?;
            self.rec.end(whole, text.len() as u64, served.len() as u64);
        }
        self.counts.reads += 1;
        self.counts.cache_hits += hit as u64;
        self.counts.reply_bytes += served.len() as u64;

        let core = self.core;
        let snap = core.snapshot();
        let sys = &snap.engine.sys;
        let opts = self.shadow.options.clone();
        let par = opts.parallelism;
        let mut at = 0u64;
        let mut rebuilt = None;
        if !hit {
            // `Engine::prepare` is parse + translate + plan plus what
            // only it does (read set, statistics fingerprint): time it
            // whole, then its parts, which become its children.
            // A miss that reused a cached plan did none of this; the
            // replay still needs the plans, but records nothing.
            self.muted = plan_hit;
            let prepare = if plan_hit {
                0
            } else {
                let prepare = self.rec.begin("core.prepare", 0, req);
                let prepared = snap.engine.prepare(text)?;
                self.rec
                    .end(prepare, text.len() as u64, prepared.touched.len() as u64);
                prepare
            };
            let mut in_prepare = 0u64;
            let query = self.probe("core.parse", req, prepare, &mut in_prepare, |_| {
                Ok((parse_query(text)?, text.len() as u64, 1))
            })?;
            let unfold = match opts.strategy {
                Strategy::Unfold => true,
                Strategy::Graph => false,
                Strategy::Auto => !sys.schema_graph().is_cyclic(),
            };
            let planned = if unfold {
                let translation =
                    self.probe("core.translate", req, prepare, &mut in_prepare, |_| {
                        let t = translate(sys, &query, None, &opts.translate)?;
                        let (rules, atoms) = (t.stats.rules as u64, t.stats.total_atoms as u64);
                        Ok((t, atoms, rules))
                    })?;
                self.counts.rules += translation.stats.rules as u64;
                let rules = self.probe("storage.plan", req, prepare, &mut in_prepare, |_| {
                    let rules = prepare_rules(sys, &translation)?;
                    let joins: usize = rules.iter().map(|r| r.plan.count_joins()).sum();
                    Ok((rules, translation.rules.len() as u64, joins as u64))
                })?;
                Some((translation, rules))
            } else {
                None
            };
            self.muted = false;
            if !plan_hit {
                self.rec.adopt_probe(whole, prepare, at);
                at += self.rec.spans[prepare as usize - 1].duration_ns();
            }

            let projection = match &planned {
                Some((translation, rules)) => {
                    let project = self.rec.begin("core.project", 0, req);
                    let projection =
                        run_projection_prepared(sys, translation, rules, opts.exec_mode, par)?;
                    let out_rows = projection.bindings.len() + projection.derivation_count();
                    self.rec
                        .end(project, projection.metrics.rows as u64, out_rows as u64);
                    self.counts.joins += projection.metrics.total_joins as u64;
                    self.counts.rows_out += projection.metrics.rows as u64;
                    // The batch executor runs inside that call; its share
                    // is a second execution of the same plans.
                    let exec = self.rec.begin("storage.exec", 0, req);
                    let mut rows = 0;
                    for rule in rules {
                        rows += execute_batch_opts(&sys.db, &rule.plan, par)?.len();
                    }
                    self.rec.end(exec, rules.len() as u64, rows as u64);
                    self.rec.adopt_probe(project, exec, 0);
                    self.rec.adopt_probe(whole, project, at);
                    at += self.rec.spans[project as usize - 1].duration_ns();
                    projection
                }
                None => self.probe("provgraph.graph", req, whole, &mut at, |_| {
                    let graph = snap.engine.graph()?;
                    let p = run_projection_graph(sys, &graph, &query)?;
                    let out_rows = p.bindings.len() + p.derivation_count();
                    Ok((p, graph.tuple_count() as u64, out_rows as u64))
                })?,
            };
            let annotated = match &query.evaluate {
                Some(spec) => Some(self.probe("semiring.annotate", req, whole, &mut at, |_| {
                    let a = run_annotation_opts(sys, &projection, spec, par)?;
                    let rows = a.rows.len() as u64;
                    Ok((a, projection.derivation_count() as u64, rows))
                })?),
                None => None,
            };
            rebuilt = Some(QueryOutput {
                projection,
                annotated,
                stats: Default::default(),
                touched: BTreeSet::new(),
                plan: None,
            });
            self.shadow.refresh(text)?;
        }
        // The key is resident now (it was a hit, or the miss inserted it).
        let resp = self.probe("service.cache", req, whole, &mut at, |_| {
            let again = core.query(text)?;
            let hit = again.cache_hit as u64;
            Ok((again, 1, hit))
        })?;
        // The ladder must have rebuilt the served answer.
        if rebuilt.is_some_and(|r| result_digest(&r) != result_digest(&resp.output)) {
            self.failed += 1;
            self.notes.push(format!(
                "{text}: the ladder's answer differs from the served one"
            ));
        }
        let json = self.probe("service.encode", req, whole, &mut at, |_| {
            let json = query_json(&resp);
            let bytes = json.len() as u64;
            Ok((json, 1, bytes))
        })?;

        // Outside the dispatched request: framing and the transport.
        let id = req as u64;
        self.rec.time("service.frame", request, req, || {
            let mut wire_bytes = Vec::with_capacity(text.len() + json.len() + 64);
            frame::encode_into(&mut wire_bytes, verb::QUERY, id, text.as_bytes());
            let request_len = wire_bytes.len();
            frame::encode_into(&mut wire_bytes, verb::OK, id, json.as_bytes());
            let decoded = frame::decode(&wire_bytes[..request_len]).is_ok_and(|f| f.is_some())
                && frame::decode(&wire_bytes[request_len..]).is_ok_and(|f| f.is_some());
            ((), 2, wire_bytes.len() as u64 * decoded as u64)
        });
        // One round trip of the now-resident request, minus the same
        // request dispatched in-process, is what the transport adds.
        let trip = self.rec.begin("service.transport", request, req);
        let reply = self
            .conn
            .round_trip(verb::QUERY, id, text.as_bytes())
            .map_err(run::io_err)?;
        self.rec
            .end(trip, text.len() as u64, reply.payload.len() as u64);
        let t = Instant::now();
        dispatch(core, "QUERY", text)?;
        self.rec.shorten(trip, t.elapsed().as_nanos() as u64);
        self.rec.end(request, 0, 0);
        Ok(())
    }

    fn write(&mut self, req: u32, op: &WriteOp) -> Result<()> {
        let request = self.rec.begin("bench.request", 0, req);
        let whole = self.rec.begin("service.write", request, req);
        let version = if op.insert {
            self.core
                .insert_and_exchange(&op.relation, op.tuple.clone())?
                .0
        } else {
            self.core.delete(&op.relation, &op.tuple)?.0
        };
        self.rec.end(whole, 1, 1);

        // The same write through the layers' public functions, on the
        // shadow engine: what `ServiceCore::write` and `::publish` do.
        let mut at = 0u64;
        let mut sys = self.probe("service.publish", req, whole, &mut at, |sh| {
            Ok((sh.engine.sys.clone(), 0, 0))
        })?;
        let from_version = sys.version();
        let write_set = if op.insert {
            self.probe("datalog.exchange", req, whole, &mut at, |_| {
                sys.insert_local(&op.relation, op.tuple.clone())?;
                let stats = sys.run_exchange()?;
                let set = sys.write_set_since(from_version).unwrap_or_default();
                Ok((set, 1, stats.inserted as u64))
            })?
        } else {
            let graph = self.probe("provgraph.graph", req, whole, &mut at, |sh| {
                let g = sh.engine.graph()?;
                let n = g.tuple_count() as u64;
                Ok((g, n, n))
            })?;
            self.probe("cdss.delete", req, whole, &mut at, |_| {
                let stats = delete_local_with_graph(&mut sys, &op.relation, &op.tuple, &graph)?;
                let rows = (stats.tuples_deleted + stats.prov_rows_deleted) as u64;
                Ok((stats.touched, 1, rows))
            })?
        };
        if sys.version() != version {
            self.failed += 1;
            self.notes.push(format!(
                "write {req}: the shadow is at version {}, the served core at {version}",
                sys.version()
            ));
        }
        let next = self.probe("service.publish", req, whole, &mut at, |sh| {
            let next = Engine::with_options(sys, sh.options.clone());
            next.adopt_graph_cache(&sh.engine);
            Ok((next, 0, 0))
        })?;
        for i in 0..self.shadow.entries.len() {
            let e = &self.shadow.entries[i];
            if !e.resident || !e.prepared.touched.iter().any(|r| write_set.contains(r)) {
                continue;
            }
            self.counts.maint_candidates += 1;
            let outcome = self.probe("core.maintain", req, whole, &mut at, |sh| {
                let state = sh.entries[i].state.take();
                let e = &sh.entries[i];
                let outcome = maintain_output(&sh.engine, &next, &e.prepared, &e.output, state);
                let rows = match &outcome {
                    Ok(MaintainResult::Maintained { rows_patched, .. }) => *rows_patched,
                    _ => 0,
                };
                Ok((outcome, 1, rows))
            })?;
            match outcome {
                Ok(MaintainResult::Maintained { output, state, .. }) => {
                    self.counts.maint_ok += 1;
                    // `publish` digests every maintained answer for its
                    // subscribers while it holds the cache lock.
                    self.probe("service.publish", req, whole, &mut at, |sh| {
                        sh.entries[i].output = *output;
                        sh.entries[i].state = state;
                        Ok((result_digest(&sh.entries[i].output), 1, 1))
                    })?;
                }
                Ok(MaintainResult::Fallback(_)) | Err(_) => self.shadow.entries[i].resident = false,
            }
        }
        // With a replica attached the primary digests the patched graph
        // and encodes one frame per sealed version before it answers.
        let digest = self.probe("provgraph.graph", req, whole, &mut at, |_| {
            let g = next.graph()?;
            Ok((g.digest(), 1, g.tuple_count() as u64))
        })?;
        let to_version = next.sys.version();
        let payloads = self.probe("provgraph.wire", req, whole, &mut at, |_| {
            let entries = next
                .sys
                .delta_entries(from_version, to_version)
                .ok_or_else(|| Error::Other("the delta log lost the write's span".into()))?;
            let mut payloads = Vec::new();
            for (i, delta) in entries.enumerate() {
                let v = from_version + i as u64 + 1;
                let d = if v == to_version { digest } else { 0 };
                payloads.push(wire::encode_delta_parts(v, d, 0, delta));
            }
            let bytes: usize = payloads.iter().map(Vec::len).sum();
            Ok((payloads, (to_version - from_version), bytes as u64))
        })?;
        self.counts.wire_bytes += payloads.iter().map(Vec::len).sum::<usize>() as u64;

        // Off the acknowledgement's path: the replica's side.
        let mut frames = Vec::new();
        self.rec.time("provgraph.wire", request, req, || {
            for p in &payloads {
                frames.push(wire::decode_delta_frame(p));
            }
            ((), payloads.len() as u64, frames.len() as u64)
        });
        for f in frames {
            let f = f?;
            let outcome = self.rec.time("service.replica_apply", request, req, || {
                (self.shadow.follower.apply_repl_delta_frame(&f), 1, 1)
            })?;
            if !matches!(outcome, ReplApplyOutcome::Applied { .. }) {
                self.failed += 1;
                self.notes
                    .push(format!("follower refused a frame: {outcome:?}"));
            }
        }
        self.shadow.engine = next;
        self.rec.end(request, 0, 0);
        Ok(())
    }
}

/// The untraced replay: the same whole calls, nothing else; its total is
/// the base of `trace_overhead_pct`.
fn untraced_total(workload: Workload, seed: u64, workers: usize, ops: &[Op]) -> Result<Duration> {
    let inst = run::set_up(workload, seed, workers)?;
    let mut total = Duration::ZERO;
    for op in ops {
        let t = Instant::now();
        match op {
            Op::Read(text) => drop(dispatch(&inst.core, "QUERY", text)?),
            Op::Write(w) if w.insert => drop(
                inst.core
                    .insert_and_exchange(&w.relation, w.tuple.clone())?,
            ),
            Op::Write(w) => drop(inst.core.delete(&w.relation, &w.tuple)?),
        }
        total += t.elapsed();
        // The traced replay re-reads every key once (its `service.cache`
        // probe), which keeps LRU order and counters in step; mirror it.
        if let Op::Read(text) = op {
            inst.core.query(text)?;
        }
    }
    Ok(total)
}

pub fn trace_workload(workload: Workload, seed: u64, workers: usize) -> Result<Report> {
    let ops = sequence(workload, seed);
    let untraced = untraced_total(workload, seed, workers, &ops)?;

    let inst = run::set_up(workload, seed, workers)?;
    let conn =
        Conn::connect(inst.server.addr(), crate::client::REPLY_TIMEOUT).map_err(run::io_err)?;
    let mut replay = Replay {
        rec: Recorder::new(),
        core: &inst.core,
        conn,
        shadow: Shadow::new(workload, seed)?,
        counts: Counts::default(),
        failed: 0,
        notes: Vec::new(),
        muted: false,
    };
    let before = inst.core.stats();
    crate::alloc::set_enabled(true);
    let replayed = ops.iter().enumerate().try_for_each(|(i, op)| match op {
        Op::Read(text) => replay.read(i as u32, text),
        Op::Write(w) => replay.write(i as u32, w),
    });
    crate::alloc::set_enabled(false);
    replayed?;
    let after = inst.core.stats();
    let Replay {
        rec,
        counts,
        failed,
        notes,
        ..
    } = replay;

    // Aggregate.
    let rows = spans::layer_table(&rec.spans);
    let row = |name: &str| rows.iter().find(|r| r.name == name);
    let self_ms = |name: &str| row(name).map_or(0.0, |r| r.self_ms);
    let whole_ms: f64 = ["service.request", "service.write"]
        .iter()
        .map(|n| row(n).map_or(0.0, |r| r.busy_ms))
        .sum();
    // Ladder / whole, where the ladder is every child laid inside a whole
    // call (children are laid end to end, so a ladder longer than its
    // call shows as coverage above 1, not as overlap).
    let ladder: Vec<&spans::Span> = rec
        .spans
        .iter()
        .filter(|s| {
            s.parent != 0
                && matches!(
                    rec.spans[s.parent as usize - 1].name,
                    "service.request" | "service.write"
                )
        })
        .collect();
    let ladder_ms: f64 = ladder.iter().map(|s| s.duration_ns() as f64 / 1e6).sum();
    // Allocations of the ladder: what the layers' public calls allocate
    // to do the operation again. (The served write itself maintains its
    // cache entries in a hash map's order, so its own count wanders by a
    // few allocations in millions; the ladder's order is fixed.)
    let allocs: u64 = ladder.iter().map(|s| s.alloc_count).sum();
    let alloc_bytes: u64 = ladder.iter().map(|s| s.alloc_bytes).sum();
    let coverage = ladder_ms / whole_ms;
    let overhead_pct = (whole_ms / 1e3 / untraced.as_secs_f64() - 1.0) * 100.0;
    // A ratio of two timings is not a correctness verdict: outside the
    // band the run says so, loudly, and stays as correct as its digests.
    if !(0.9..=1.1).contains(&coverage) {
        eprintln!(
            "bench_e2e: {}: trace_coverage {coverage:.3} is outside 0.9..=1.1",
            workload.name()
        );
    }

    let n = ops.len() as f64;

    let table = render_table(workload, seed, ops.len(), &rows, coverage, overhead_pct);

    // Metrics for machines: the same set on every workload.
    let mut metrics: Vec<(String, f64, String)> = LAYERS
        .iter()
        .map(|l| {
            (
                format!("{l}.self_us"),
                self_ms(l) * 1e3 / n,
                "us".to_string(),
            )
        })
        .collect();
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    metrics.extend(
        [
            ("trace_coverage", coverage, "ratio"),
            ("trace_overhead_pct", overhead_pct, "%"),
            ("alloc_count_per_op", allocs as f64 / n, "count"),
            ("alloc_bytes_per_op", alloc_bytes as f64 / n, "B"),
            ("rules_per_op", counts.rules as f64 / n, "count"),
            ("joins_per_op", counts.joins as f64 / n, "count"),
            ("rows_out_per_op", counts.rows_out as f64 / n, "count"),
            ("reply_bytes_per_op", counts.reply_bytes as f64 / n, "B"),
            ("wire_bytes_per_op", counts.wire_bytes as f64 / n, "B"),
            (
                "cache_hit_frac",
                frac(counts.cache_hits, counts.reads),
                "ratio",
            ),
            (
                "maint_ok_frac",
                frac(counts.maint_ok, counts.maint_candidates),
                "ratio",
            ),
            (
                "cache_evictions",
                (after.cache.capacity_evictions + after.cache.stale_evictions
                    - before.cache.capacity_evictions
                    - before.cache.stale_evictions) as f64,
                "count",
            ),
            (
                "graph_builds",
                (after.graph_builds - before.graph_builds) as f64,
                "count",
            ),
            (
                "graph_patches",
                (after.graph_patches - before.graph_patches) as f64,
                "count",
            ),
        ]
        .map(|(name, v, unit)| (name.to_string(), v, unit.to_string())),
    );

    let layers_json = format!(
        "[{}]",
        rows.iter()
            .map(|r| {
                object(&[
                    ("layer".into(), json_str(r.name)),
                    ("calls".into(), r.calls.to_string()),
                    ("busy_ms".into(), num(r.busy_ms)),
                    ("self_ms".into(), num(r.self_ms)),
                    ("p50_us".into(), num(r.p50_us)),
                    ("units_in".into(), r.units_in.to_string()),
                    ("units_out".into(), r.units_out.to_string()),
                    ("alloc_count".into(), r.alloc_count.to_string()),
                    ("alloc_bytes".into(), r.alloc_bytes.to_string()),
                ])
            })
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Spans are written out only now that the replay is over.
    let span_file = write_spans(workload, seed, &rec)?;
    drop(inst);
    Ok(Report {
        table,
        ops: ops.len() as u64,
        failed,
        notes,
        span_file,
        metrics,
        layers_json,
    })
}

/// The per-layer table for people. `bench.*` rows are the harness and
/// carry no share.
fn render_table(
    workload: Workload,
    seed: u64,
    ops: usize,
    rows: &[spans::LayerRow],
    coverage: f64,
    overhead_pct: f64,
) -> String {
    let measured = || rows.iter().filter(|r| !r.name.starts_with("bench."));
    let total_self: f64 = measured().map(|r| r.self_ms).sum();
    let mut table = format!(
        "# {} — traced replay of {ops} operations (seed {seed}); self time is a span's \
         duration minus its children's cover\n{:<22} {:>6} {:>10} {:>10} {:>7} {:>9} {:>10} {:>10} {:>9} {:>11}\n",
        workload.name(),
        "layer",
        "calls",
        "busy_ms",
        "self_ms",
        "share",
        "p50_us",
        "units_in",
        "units_out",
        "allocs",
        "alloc_bytes"
    );
    for r in rows {
        let share = if r.name.starts_with("bench.") {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * r.self_ms / total_self)
        };
        table.push_str(&format!(
            "{:<22} {:>6} {:>10.3} {:>10.3} {:>7} {:>9.1} {:>10} {:>10} {:>9} {:>11}\n",
            r.name,
            r.calls,
            r.busy_ms,
            r.self_ms,
            share,
            r.p50_us,
            r.units_in,
            r.units_out,
            r.alloc_count,
            r.alloc_bytes
        ));
    }
    let mut groups: Vec<(&str, f64)> = Vec::new();
    for r in measured() {
        let group = r.name.split('.').next().expect("split yields one item");
        match groups.iter_mut().find(|(g, _)| *g == group) {
            Some((_, ms)) => *ms += r.self_ms,
            None => groups.push((group, r.self_ms)),
        }
    }
    // What the write path's own layers explain of `service.write`.
    if let Some(w) = rows.iter().find(|r| r.name == "service.write") {
        table.push_str(&format!(
            "write-path spans hold {:.1}% of service.write\n",
            100.0 * (1.0 - w.self_ms / w.busy_ms)
        ));
    }
    table.push_str(&format!(
        "shares of self time: {}; trace_coverage {coverage:.3}; trace_overhead_pct {overhead_pct:.1}",
        groups
            .iter()
            .map(|(g, ms)| format!("{g}.* {:.1}%", 100.0 * ms / total_self))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    table
}

/// Write the span file under `bench_e2e_out/` in the working directory
/// (the checkout; `.gitignore` names it) and return its path.
fn write_spans(workload: Workload, seed: u64, rec: &Recorder) -> Result<String> {
    let path = format!("bench_e2e_out/spans-{}-{seed}.json", workload.name());
    std::fs::create_dir_all("bench_e2e_out")
        .and_then(|()| std::fs::write(&path, spans::spans_json(&rec.spans)))
        .map_err(|e| Error::Other(format!("writing {path}: {e}")))?;
    Ok(path)
}
