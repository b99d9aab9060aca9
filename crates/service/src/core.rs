//! The shared, thread-safe query service.
//!
//! # Locking discipline
//!
//! * Readers never block readers, and never block behind a running
//!   write: [`ServiceCore::query`] grabs the **current snapshot**
//!   (an `Arc<Snapshot>` behind a briefly-held `RwLock`) and runs the
//!   whole query against that immutable snapshot.
//! * Writers serialize through `write_gate` and publish `(snapshot,
//!   delta)` pairs: the next system is a **copy-on-write** clone
//!   (pointer copies: tables, sealed delta-log entries and the mapping
//!   program are shared; only mutated tables materialize), the
//!   mutation seals a [`proql_provgraph::GraphDelta`] in the system's
//!   delta log, the write set recorded in the result cache is derived
//!   from that delta, and the published engine adopts the previous
//!   snapshot's provenance graph so the first graph query after the
//!   write patches instead of rebuilding. In-flight readers keep their
//!   `Arc` to the old snapshot and finish with a consistent view.
//! * The cache's freshness rule (see [`crate::cache`]) makes the
//!   reader/writer races benign: a result computed against a snapshot
//!   that a concurrent write has outdated is rejected at insert time,
//!   and a cache hit's reported version is read under the cache lock —
//!   writers record the write set *before* publishing, so an entry that
//!   survives the epoch check is valid at the version the reader
//!   reports.

use crate::cache::{PlanCache, ResultCache};
use crate::fanout::{wall_micros, KeptEntry, ReplSink, SinkList, Subscription};
use crate::metrics::{LatencyHistogram, TransportMetrics};
use crate::stats::ServiceStats;
use proql::engine::{Engine, EngineOptions, PreparedQuery, QueryOutput};
use proql::parse_query;
use proql::shape::lift_literals;
use proql::{maintain_outputs, EntryOutcome, FallbackReason, MaintainEntry, MaintainOutcome};
use proql_cdss::update::{delete_local_with_graph, DeleteStats};
use proql_common::sync::{lock, read_lock, write_lock};
use proql_common::{trace, Error, Result, Tuple};
use proql_provgraph::encode::wire;
use proql_provgraph::ProvenanceSystem;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One immutable published version of the system: queries run against a
/// snapshot end-to-end, so a write landing mid-query cannot tear results.
#[derive(Debug)]
pub struct Snapshot {
    /// The [`ProvenanceSystem::version`] this snapshot was published at.
    pub version: u64,
    /// A read-only engine over the snapshot's system.
    pub engine: Engine,
}

impl Snapshot {
    /// This snapshot's provenance-graph digest, or 0 — "unchecked" on the
    /// replication wire — when the graph cannot be built.
    pub(crate) fn graph_digest(&self) -> u64 {
        self.engine.graph().map(|g| g.digest()).unwrap_or(0)
    }
}

/// A query answer plus the service-level context it was produced in.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The system version this answer is valid at: a serial [`Engine`]
    /// replay against the system state of this version returns a
    /// bit-identical result.
    pub version: u64,
    /// Whether the answer came from the result cache.
    pub cache_hit: bool,
    /// How the query's plans were obtained; `None` on result-cache hits,
    /// which never consult the plan cache.
    pub plan_cache: Option<PlanReuse>,
    /// The answer.
    pub output: Arc<QueryOutput>,
}

/// How a result-cache miss obtained its prepared query (the `plan_cache`
/// field of the reply and of the `service.query` span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanReuse {
    /// The prepared query last bound for the same text: nothing parsed,
    /// bound or planned.
    Hit,
    /// The shape and the plan template of the request's plan key were
    /// cached: the request's literals were bound to them.
    Bound,
    /// The shape was cached but the plan key was new: plans were
    /// compiled for it, then bound.
    Planned,
    /// The shape was prepared from scratch.
    Miss,
}

impl PlanReuse {
    /// The name replies and spans report.
    pub fn name(self) -> &'static str {
        match self {
            PlanReuse::Hit => "hit",
            PlanReuse::Bound => "bound",
            PlanReuse::Planned => "planned",
            PlanReuse::Miss => "miss",
        }
    }
}

/// What applying one replication frame did to a replica's state (see
/// [`ServiceCore::apply_repl_delta_frame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplApplyOutcome {
    /// The frame was applied and published; the node now serves `version`.
    Applied {
        /// The version the node now serves.
        version: u64,
    },
    /// The frame sealed a version at or below the node's — a benign
    /// re-delivery (the subscribe/write race) — and was ignored.
    Stale {
        /// The node's (unchanged) version.
        version: u64,
    },
    /// The frame does not chain onto the node's version: the replica
    /// must resubscribe (the primary falls back to a snapshot when its
    /// log cannot bridge the gap).
    Gap {
        /// The node's version.
        local: u64,
        /// The version the rejected frame seals.
        frame: u64,
    },
    /// The replayed state's digest differs from the primary's — the
    /// frame was **discarded before publishing** (corrupt state is never
    /// served) and the replica must force a snapshot resubscribe.
    DigestMismatch {
        /// The version whose digests disagreed.
        version: u64,
        /// The primary's digest.
        expected: u64,
        /// The locally replayed digest.
        actual: u64,
    },
}

/// A shared, thread-safe ProQL query service over a [`ProvenanceSystem`]:
/// single-writer / multi-reader with versioned snapshots and a
/// dependency-tracked result cache.
#[derive(Debug)]
pub struct ServiceCore {
    state: RwLock<Arc<Snapshot>>,
    write_gate: Mutex<()>,
    cache: Mutex<ResultCache>,
    plans: Mutex<PlanCache>,
    options: EngineOptions,
    queries: AtomicU64,
    writes: AtomicU64,
    /// Graph build/patch counts accumulated from **retired** snapshots:
    /// each published engine counts only its own lifetime (a write
    /// installs a fresh engine), so the write path folds the outgoing
    /// snapshot's counters in here before publishing. `stats()` reports
    /// accumulated + current-snapshot counts.
    graph_builds: AtomicU64,
    graph_patches: AtomicU64,
    /// `SUBSCRIBE` listeners (see [`crate::fanout`]).
    pub(crate) subs: Mutex<SinkList<Subscription>>,
    /// Metrics of the attached TCP front end, if any (installed by
    /// `serve`); folded into [`ServiceStats`].
    transport: Mutex<Option<Arc<TransportMetrics>>>,
    /// Replica listeners: every published write streams its sealed
    /// delta (or a snapshot, on a broken chain) to each sink.
    pub(crate) repl: Mutex<SinkList<ReplSink>>,
    pub(crate) repl_deltas_streamed: AtomicU64,
    pub(crate) repl_snapshots_streamed: AtomicU64,
    repl_deltas_applied: AtomicU64,
    repl_snapshots_installed: AtomicU64,
    repl_digest_mismatches: AtomicU64,
    repl_resubscribes: AtomicU64,
    /// Primary-seal → replica-publish latency (meaningful on replicas).
    repl_lag: LatencyHistogram,
    /// Replica mode: local mutations are refused so the node's state
    /// only ever advances by replication frames from its primary.
    read_only: AtomicBool,
}

/// Default bound on live cache entries.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Default bound on cached prepared plans.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

impl ServiceCore {
    /// Serve `sys` with engine `options` and the default cache capacities.
    pub fn new(sys: ProvenanceSystem, options: EngineOptions) -> Self {
        // Honor PROQL_TRACE before the first query can record a span.
        // Idempotent, so repeated cores are fine.
        trace::init_from_env();
        let version = sys.version();
        let engine = Engine::with_options(sys, options.clone());
        ServiceCore {
            state: RwLock::new(Arc::new(Snapshot { version, engine })),
            write_gate: Mutex::new(()),
            cache: Mutex::new(ResultCache::new(DEFAULT_CACHE_CAPACITY)),
            plans: Mutex::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
            options,
            queries: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            graph_builds: AtomicU64::new(0),
            graph_patches: AtomicU64::new(0),
            subs: Mutex::default(),
            transport: Mutex::new(None),
            repl: Mutex::default(),
            repl_deltas_streamed: AtomicU64::new(0),
            repl_snapshots_streamed: AtomicU64::new(0),
            repl_deltas_applied: AtomicU64::new(0),
            repl_snapshots_installed: AtomicU64::new(0),
            repl_digest_mismatches: AtomicU64::new(0),
            repl_resubscribes: AtomicU64::new(0),
            repl_lag: LatencyHistogram::new(),
            read_only: AtomicBool::new(false),
        }
    }

    /// Attach a transport's metrics so `STATS` reports them. The server
    /// installs its block at startup; a later `serve` over the same core
    /// replaces it (last front end wins).
    pub fn set_transport_metrics(&self, metrics: Arc<TransportMetrics>) {
        *lock(&self.transport) = Some(metrics);
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&read_lock(&self.state))
    }

    /// The currently published system version.
    pub fn version(&self) -> u64 {
        self.snapshot().version
    }

    /// Cache keys are whitespace-normalized query text, so reformatted
    /// copies of the same query share an entry. Normalization mirrors
    /// the ProQL lexer: single-quoted string literals are preserved
    /// verbatim (whitespace inside them is significant) and `--` line
    /// comments are stripped. A leading `EXPLAIN` keyword — which the
    /// parser matches case-insensitively — is canonicalized to an
    /// explicit uppercase flag, so `explain q` and `EXPLAIN q` share one
    /// entry that is always distinct from `q`'s (an `EXPLAIN` answer has
    /// no result rows; conflating the two keys would serve an empty
    /// projection for the real query or vice versa). A following
    /// `ANALYZE` keyword is canonicalized the same way — the query path
    /// uses the `EXPLAIN ANALYZE ` prefix to bypass the result cache,
    /// since a cached analyze answer would replay stale timings.
    pub fn cache_key(text: &str) -> String {
        let normalized = Self::normalize_text(text);
        match normalized.split_once(' ') {
            Some((head, rest)) if head.eq_ignore_ascii_case("EXPLAIN") => {
                match rest.split_once(' ') {
                    Some((next, tail)) if next.eq_ignore_ascii_case("ANALYZE") => {
                        format!("EXPLAIN ANALYZE {tail}")
                    }
                    _ => format!("EXPLAIN {rest}"),
                }
            }
            _ => normalized,
        }
    }

    /// Whether a canonical cache key is an `EXPLAIN ANALYZE` query, which
    /// must re-execute every time (its payload is measured timings).
    fn is_analyze_key(key: &str) -> bool {
        key.starts_with("EXPLAIN ANALYZE ")
    }

    /// Whitespace/comment normalization behind [`Self::cache_key`].
    fn normalize_text(text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let mut chars = text.chars().peekable();
        let mut pending_space = false;
        let emit = |c: char, out: &mut String, pending: &mut bool| {
            if *pending && !out.is_empty() {
                out.push(' ');
            }
            *pending = false;
            out.push(c);
        };
        while let Some(c) = chars.next() {
            match c {
                '\'' => {
                    emit('\'', &mut out, &mut pending_space);
                    for c in chars.by_ref() {
                        out.push(c);
                        if c == '\'' {
                            break;
                        }
                    }
                }
                '-' if chars.peek() == Some(&'-') => {
                    for c in chars.by_ref() {
                        if c == '\n' {
                            break;
                        }
                    }
                    pending_space = true;
                }
                c if c.is_whitespace() => pending_space = true,
                c => emit(c, &mut out, &mut pending_space),
            }
        }
        out
    }

    /// Serve one ProQL query: from the result cache when a fresh entry
    /// exists; otherwise via the prepared-plan cache — the same text's
    /// bound plans, or its shape's, with the request's literals bound
    /// (both validated against statistics drift), skip translate →
    /// optimize — executing against the current snapshot and caching the
    /// answer keyed by its read set.
    pub fn query(&self, text: &str) -> Result<QueryResponse> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut sp = trace::span("service.query");
        let key = ServiceCore::cache_key(text);
        // EXPLAIN ANALYZE answers are measurements, not results: always
        // re-execute (plan-cache reuse is still fine — it's what the
        // measurement is *of*).
        let analyze = ServiceCore::is_analyze_key(&key);
        if !analyze {
            let mut cache = lock(&self.cache);
            // Read the published version while holding the cache lock:
            // writers record their write set before publishing, so an
            // entry that passes the epoch check is valid at `version`.
            let version = read_lock(&self.state).version;
            if let Some(output) = cache.lookup(&key) {
                sp.field("cache", "hit");
                return Ok(QueryResponse {
                    version,
                    cache_hit: true,
                    plan_cache: None,
                    output,
                });
            }
        }
        sp.field("cache", if analyze { "bypass" } else { "miss" });
        let snap = self.snapshot();
        // Result miss: reuse what the plan cache holds while its
        // statistics are still current (the fingerprint guards
        // cost-optimality, and catches a row in a relation unfolding
        // pruned on).
        let cached = lock(&self.plans).lookup_text(&key, snap.version, |touched| {
            snap.engine.stats_fingerprint(touched)
        });
        let (prepared, reuse) = match cached {
            Some(p) => (p, PlanReuse::Hit),
            None => self.prepare(&snap, text, &key)?,
        };
        sp.field("plan_cache", reuse.name());
        let output = Arc::new(snap.engine.execute(&prepared)?);
        if !analyze {
            lock(&self.cache).insert(
                key,
                snap.version,
                Arc::clone(&output),
                Arc::clone(&prepared),
            );
        }
        Ok(QueryResponse {
            version: snap.version,
            cache_hit: false,
            plan_cache: Some(reuse),
            output,
        })
    }

    /// Prepare `text` (result-cache key `key`) through the plan cache:
    /// bind its literals to its shape and to the plan template of its plan
    /// key, preparing whichever is missing. Preparation runs outside the
    /// plan lock: translation can be slow and must not serialize other
    /// queries' lookups. A racing duplicate prepare is benign (last insert
    /// wins).
    fn prepare(
        &self,
        snap: &Snapshot,
        text: &str,
        key: &str,
    ) -> Result<(Arc<PreparedQuery>, PlanReuse)> {
        let engine = &snap.engine;
        let query = parse_query(text)?;
        let (shape_key, literals) = lift_literals(&query);
        let shape_key: Arc<str> = shape_key.into();
        let cached = lock(&self.plans).lookup_shape(&shape_key, snap.version, |touched| {
            engine.stats_fingerprint(touched)
        });
        let (shape, mut reuse) = match cached {
            Some(shape) => (shape, PlanReuse::Bound),
            None => {
                let shape = Arc::new(engine.prepare_shape(&query)?);
                let mut plans = lock(&self.plans);
                plans.insert_shape(Arc::clone(&shape_key), Arc::clone(&shape), snap.version);
                (shape, PlanReuse::Miss)
            }
        };
        let _bind = trace::span("prepare.bind");
        let bound = engine.bind_shape(&shape, query, literals)?;
        let cached = lock(&self.plans).lookup_template(&shape_key, &shape, &bound.plan_key);
        let template = match cached {
            Some(template) => template,
            None => {
                let template = Arc::new(engine.plan_template(&shape, &bound)?);
                let plan_key = bound.plan_key.clone();
                let mut plans = lock(&self.plans);
                plans.insert_template(&shape_key, &shape, plan_key, Arc::clone(&template));
                if reuse == PlanReuse::Bound {
                    reuse = PlanReuse::Planned;
                }
                template
            }
        };
        let prepared = Arc::new(engine.bind_plans(&shape, bound, &template));
        let mut plans = lock(&self.plans);
        plans.insert_bound(key.to_string(), shape_key, &shape, Arc::clone(&prepared));
        Ok((prepared, reuse))
    }

    /// Apply a mutation through the single-writer path: clone the
    /// current system **copy-on-write**, run `mutate` on the clone, then
    /// publish the result as the next snapshot. The clone copies
    /// pointers only: one per relation, one per sealed delta-log entry,
    /// and one for the mapping program; the tables the mutation touches
    /// materialize on first write (the `service.write.clone` span times
    /// it). The published engine **adopts** the previous snapshot's
    /// cached provenance graph, so the first graph query after the write
    /// pays a delta patch instead of a from-scratch rebuild.
    ///
    /// `mutate` returns the write set — the relations it modified —
    /// which is recorded in the cache *before* the new snapshot becomes
    /// visible; returning `None` reports a no-op (nothing is published,
    /// no entry is evicted).
    ///
    /// Before publishing, every **fresh** cache entry whose read set
    /// intersects the write set goes through incremental view
    /// maintenance ([`proql::maintain_outputs`], see [`Self::publish`]):
    /// an entry no changed row can reach is kept as it is, and the
    /// others are patched to the new version in O(delta). Entries the
    /// maintainer cannot localize (graph-walk answers, set-valued
    /// semirings the write reaches, broken delta chains, oversized
    /// deltas) fall back to the old behavior — eviction — so maintenance
    /// is never a correctness risk. The results are installed, the write
    /// epoch recorded, and the snapshot published under one cache lock
    /// acquisition, so no reader can observe a new-version answer at the
    /// old published version.
    fn write<T>(
        &self,
        mutate: impl FnOnce(&Snapshot, &mut ProvenanceSystem) -> Result<Option<(BTreeSet<String>, T)>>,
    ) -> Result<Option<(u64, T)>> {
        let _gate = lock(&self.write_gate);
        if self.read_only.load(Ordering::Relaxed) {
            return Err(Error::Other(
                "read-only replica: writes must go to the primary".into(),
            ));
        }
        let mut sp = trace::span("service.write");
        let current = self.snapshot();
        let mut sys = {
            let _clone = trace::span("service.write.clone");
            current.engine.sys.clone()
        };
        let Some((write_set, value)) = mutate(&current, &mut sys)? else {
            return Ok(None);
        };
        debug_assert!(
            sys.version() > current.version,
            "mutations must bump the version"
        );
        let next = self
            .seal_and_verify(&current, sys, true, 0)?
            .expect("a local write vouches no digest, so nothing can mismatch");
        let version = next.version;
        self.publish(&current, next, &write_set);
        self.writes.fetch_add(1, Ordering::Relaxed);
        if sp.id().is_some() {
            sp.field("version", version.to_string());
        }
        Ok(Some((version, value)))
    }

    /// Seal `sys` — the copy-on-write successor of `current` — as the
    /// next snapshot, and verify it before anything is published. With
    /// `adopt_graph` the new engine takes over the outgoing snapshot's
    /// cached provenance graph, so the next graph use is a delta patch;
    /// without it (table state replaced wholesale) the graph rebuilds
    /// from scratch. A nonzero `vouched_digest` is the primary's graph
    /// digest at this version: the replayed graph must match it, or the
    /// state is discarded unpublished and the mismatch counted — corrupt
    /// state is never served. Zero means unchecked.
    fn seal_and_verify(
        &self,
        current: &Snapshot,
        sys: ProvenanceSystem,
        adopt_graph: bool,
        vouched_digest: u64,
    ) -> Result<std::result::Result<Arc<Snapshot>, ReplApplyOutcome>> {
        let version = sys.version();
        let engine = Engine::with_options(sys, self.options.clone());
        if adopt_graph {
            engine.adopt_graph_cache(&current.engine);
        }
        if vouched_digest != 0 {
            let actual = engine.graph()?.digest();
            if actual != vouched_digest {
                self.repl_digest_mismatches.fetch_add(1, Ordering::Relaxed);
                return Ok(Err(ReplApplyOutcome::DigestMismatch {
                    version,
                    expected: vouched_digest,
                    actual,
                }));
            }
        }
        Ok(Ok(Arc::new(Snapshot { version, engine })))
    }

    /// Retire `current` and make `next` the published snapshot. The
    /// caller passes the **held** cache lock: the write epoch is recorded
    /// and the state swapped under it (on top of whatever the caller did
    /// to the entries under the same acquisition), so no reader can see
    /// a new-version answer at the old published version.
    fn retire_and_swap(
        &self,
        cache: &mut ResultCache,
        current: &Snapshot,
        next: &Arc<Snapshot>,
        write_set: &BTreeSet<String>,
    ) {
        cache.record_write(write_set.iter().map(String::as_str), next.version);
        // The outgoing snapshot's engine retires here: fold its graph
        // counters into the service-lifetime accumulators (stragglers
        // still reading it may add a few more — an acceptable
        // undercount for monotonic service-level counters).
        self.graph_builds
            .fetch_add(current.engine.graph_build_count(), Ordering::Relaxed);
        self.graph_patches
            .fetch_add(current.engine.graph_patch_count(), Ordering::Relaxed);
        *write_lock(&self.state) = Arc::clone(next);
    }

    /// The shared publish tail of every maintained state transition —
    /// local writes and replicated deltas alike. Caller holds the write
    /// gate. Three steps, each under its own span:
    ///
    /// * `service.publish.maintain` runs incremental maintenance over
    ///   intersecting cache entries in one [`proql::maintain_outputs`]
    ///   call, so entries whose queries share a projection share one set
    ///   of delta runs.
    /// * `service.publish.install` installs the results + write epoch +
    ///   snapshot under one cache lock: unchanged entries keep their
    ///   output and are only re-stamped, patched ones swap it, fallbacks
    ///   are evicted. Nothing is digested here, so the lock is held for
    ///   bookkeeping only.
    /// * `service.publish.fan_out` ([`Self::fan_out`]) tells query
    ///   subscribers and replicas, after the lock is released. It gets
    ///   each kept entry's answer, and digests only those a live
    ///   subscription names.
    fn publish(&self, current: &Snapshot, next: Arc<Snapshot>, write_set: &BTreeSet<String>) {
        let version = next.version;
        // Maintenance runs outside the cache lock (it executes delta
        // plans); the write gate keeps the candidate set stable against
        // other writers, and racing readers still see the old entries at
        // the old published version. An entry whose prepared rules miss
        // an alternative at the new snapshot is evicted, not maintained.
        let maintain = trace::span("service.publish.maintain");
        let (mut candidates, outdated): (Vec<_>, Vec<_>) = lock(&self.cache)
            .take_maintenance_candidates(write_set)
            .into_iter()
            .partition(|c| c.prepared.complete_at(&next.engine.sys));
        let outcomes = maintain_outputs(
            &current.engine,
            &next.engine,
            candidates
                .iter_mut()
                .map(|c| MaintainEntry {
                    prepared: &c.prepared,
                    previous: &c.previous,
                    state: c.state.take(),
                })
                .collect(),
        );
        drop(maintain);
        // Entries that fell back are not listed: their subscribers get a
        // `Resync`, as for any other intersecting write.
        let mut kept: Vec<KeptEntry> = Vec::new();
        {
            let _install = trace::span("service.publish.install");
            let mut cache = lock(&self.cache);
            for c in outdated {
                cache.maintenance_fallback(&c.key, Some(FallbackReason::Pruned), false);
            }
            for (c, EntryOutcome { outcome, shared }) in candidates.into_iter().zip(outcomes) {
                match outcome {
                    Ok(MaintainOutcome::Unchanged { state }) => {
                        if cache.apply_unchanged(&c.key, state, version, shared) {
                            kept.push(KeptEntry::new(c.key, c.previous, 0));
                        }
                    }
                    Ok(MaintainOutcome::Patched {
                        output,
                        rows_patched,
                        state,
                    }) => {
                        let output = Arc::new(*output);
                        cache.apply_maintained(
                            &c.key,
                            Arc::clone(&output),
                            state,
                            version,
                            rows_patched,
                            shared,
                        );
                        kept.push(KeptEntry::new(c.key, output, rows_patched));
                    }
                    Ok(MaintainOutcome::Fallback(reason)) => {
                        cache.maintenance_fallback(&c.key, Some(reason), shared)
                    }
                    Err(_) => cache.maintenance_fallback(&c.key, None, shared),
                }
            }
            self.retire_and_swap(&mut cache, current, &next, write_set);
        }
        self.fan_out(current.version, &next, write_set, &kept);
    }

    /// CDSS deletion: remove a tuple from `relation`'s local table and
    /// garbage-collect everything no longer derivable. The derivability
    /// analysis runs against the current snapshot's cached provenance
    /// graph (building it once if absent — later deletes patch it
    /// forward), so a delete costs the cascade, not a graph rebuild.
    /// Returns the new version and the deletion stats (whose `touched`
    /// set drove cache invalidation).
    pub fn delete(&self, relation: &str, key: &Tuple) -> Result<(u64, DeleteStats)> {
        let published = self.write(|snap, sys| {
            let graph = snap.engine.graph()?;
            let stats = delete_local_with_graph(sys, relation, key, &graph)?;
            Ok(Some((stats.touched.clone(), stats)))
        })?;
        Ok(published.expect("a successful deletion is never a no-op"))
    }

    /// Insert a tuple into `relation`'s local table and re-run the
    /// exchange (incrementally — seeded with just this row). The write
    /// set rides the sealed graph deltas: exactly the base tables the
    /// insert and its exchange touched. A duplicate insert is a no-op
    /// under set semantics: nothing is published, no cache entry dies,
    /// and the current version is returned with an empty write set.
    pub fn insert_and_exchange(
        &self,
        relation: &str,
        tuple: Tuple,
    ) -> Result<(u64, BTreeSet<String>)> {
        let published = self.write(|_snap, sys| {
            let v0 = sys.version();
            if !sys.insert_local(relation, tuple)? {
                return Ok(None);
            }
            sys.run_exchange()?;
            // Derive the write set from the mutation's own delta entries;
            // if the log cannot bridge the span (it always should for a
            // tracked insert+exchange), fail safe to "everything".
            let write_set = sys
                .write_set_since(v0)
                .unwrap_or_else(|| sys.db.table_names().map(str::to_string).collect());
            Ok(Some((write_set.clone(), write_set)))
        })?;
        Ok(published.unwrap_or_else(|| (self.version(), BTreeSet::new())))
    }

    /// Drop every cached result (the `INVALIDATE` verb). Returns how many
    /// entries were dropped. Prepared plans survive — only statistics
    /// drift (checked on every reuse) retires them.
    pub fn invalidate(&self) -> usize {
        lock(&self.cache).clear()
    }

    /// The published provenance graph's digest — the bit-identity check
    /// replicas replay against (0 when the graph cannot be built, which
    /// downgrades the check to "unchecked" rather than failing writes).
    pub fn graph_digest(&self) -> u64 {
        self.snapshot().graph_digest()
    }

    /// Switch replica mode on or off: a read-only node refuses local
    /// mutations ([`Self::delete`] / [`Self::insert_and_exchange`]), so
    /// its state only ever advances by replication frames.
    pub fn set_read_only(&self, read_only: bool) {
        self.read_only.store(read_only, Ordering::Relaxed);
    }

    /// Whether this node is in replica (read-only) mode.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Relaxed)
    }

    /// Break the delta chain without changing data (the admin/test lever
    /// behind broken-chain recovery): bumps the version out-of-band,
    /// which resets the delta log, so the **next** replication event
    /// falls back to a full snapshot transfer. Returns the new version.
    pub fn rotate_delta_chain(&self) -> Result<u64> {
        let published = self.write(|_snap, sys| {
            sys.bump_version();
            Ok(Some((BTreeSet::new(), ())))
        })?;
        Ok(published.expect("rotation always publishes").0)
    }

    /// Record that this node's replica loop re-subscribed to its primary
    /// (a reconnect or digest-mismatch recovery).
    pub fn note_repl_resubscribe(&self) {
        self.repl_resubscribes.fetch_add(1, Ordering::Relaxed);
    }

    /// Apply one replicated delta frame (the replica-side write path).
    /// The frame must chain directly onto the node's version; the
    /// replayed provenance graph's digest is checked against the
    /// primary's **before** publishing, so corrupt state is never
    /// served. On success the transition runs the same publish tail as
    /// a local write — cache maintenance, subscriber pushes, and
    /// streaming to this node's own replica subscribers all behave
    /// identically.
    pub fn apply_repl_delta_frame(&self, frame: &wire::DeltaFrame) -> Result<ReplApplyOutcome> {
        let _gate = lock(&self.write_gate);
        let current = self.snapshot();
        if frame.version <= current.version {
            return Ok(ReplApplyOutcome::Stale {
                version: current.version,
            });
        }
        if frame.version != current.version + 1 {
            return Ok(ReplApplyOutcome::Gap {
                local: current.version,
                frame: frame.version,
            });
        }
        let mut sys = current.engine.sys.clone();
        sys.apply_replica_delta(frame.version, &frame.delta)?;
        let next = match self.seal_and_verify(&current, sys, true, frame.digest)? {
            Ok(next) => next,
            Err(mismatch) => return Ok(mismatch),
        };
        self.publish(&current, next, &frame.delta.touched);
        self.record_repl_lag(frame.sealed_at_micros);
        self.repl_deltas_applied.fetch_add(1, Ordering::Relaxed);
        Ok(ReplApplyOutcome::Applied {
            version: frame.version,
        })
    }

    /// Install a full snapshot frame (the broken-chain / forced-recovery
    /// path). Replaces every stored table wholesale, so the graph
    /// rebuilds from scratch, the result cache is cleared rather than
    /// maintained, and every subscriber is told to resync. The installed
    /// state's digest is checked before publishing, exactly like the
    /// delta path.
    pub fn install_repl_snapshot_frame(
        &self,
        frame: &wire::SnapshotFrame,
    ) -> Result<ReplApplyOutcome> {
        let _gate = lock(&self.write_gate);
        let current = self.snapshot();
        if frame.version < current.version {
            return Ok(ReplApplyOutcome::Stale {
                version: current.version,
            });
        }
        let mut sys = current.engine.sys.clone();
        sys.install_snapshot(frame.version, &frame.tables)?;
        let next = match self.seal_and_verify(&current, sys, false, frame.digest)? {
            Ok(next) => next,
            Err(mismatch) => return Ok(mismatch),
        };
        let write_set: BTreeSet<String> = next
            .engine
            .sys
            .db
            .table_names()
            .map(str::to_string)
            .collect();
        {
            let mut cache = lock(&self.cache);
            cache.clear();
            self.retire_and_swap(&mut cache, &current, &next, &write_set);
        }
        self.fan_out(current.version, &next, &write_set, &[]);
        self.record_repl_lag(frame.sealed_at_micros);
        self.repl_snapshots_installed
            .fetch_add(1, Ordering::Relaxed);
        Ok(ReplApplyOutcome::Applied {
            version: frame.version,
        })
    }

    /// Record primary-seal → local-publish latency. Meaningful when the
    /// primary shares this node's clock domain (the multi-process
    /// benchmark's setup); clock skew can only inflate the number, never
    /// hide real lag on one host.
    fn record_repl_lag(&self, sealed_at_micros: u64) {
        if sealed_at_micros == 0 {
            return;
        }
        let now = wall_micros();
        let lag_micros = now.saturating_sub(sealed_at_micros);
        self.repl_lag.record_nanos(lag_micros.saturating_mul(1000));
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ServiceStats {
        let (entries, counters) = {
            let cache = lock(&self.cache);
            (cache.len() as u64, cache.counters())
        };
        let (plan_entries, shape_entries, plan_counters) = {
            let plans = lock(&self.plans);
            (plans.len() as u64, plans.shapes() as u64, plans.counters())
        };
        let transport = lock(&self.transport)
            .as_ref()
            .map(|m| m.snapshot())
            .unwrap_or_default();
        let snap = self.snapshot();
        let lag = self.repl_lag.snapshot();
        ServiceStats {
            version: snap.version,
            queries: self.queries.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            cache_entries: entries,
            cache: counters,
            plan_entries,
            shape_entries,
            plans: plan_counters,
            delta_compactions: snap.engine.sys.delta_compactions(),
            graph_builds: self.graph_builds.load(Ordering::Relaxed)
                + snap.engine.graph_build_count(),
            graph_patches: self.graph_patches.load(Ordering::Relaxed)
                + snap.engine.graph_patch_count(),
            transport,
            delta_log_depth: snap.engine.sys.delta_log_depth() as u64,
            delta_log_base: snap.engine.sys.delta_log_base(),
            delta_log_cap: snap.engine.sys.delta_log_capacity() as u64,
            repl_subscribers: self.repl_subscriber_count() as u64,
            repl_deltas_streamed: self.repl_deltas_streamed.load(Ordering::Relaxed),
            repl_snapshots_streamed: self.repl_snapshots_streamed.load(Ordering::Relaxed),
            repl_deltas_applied: self.repl_deltas_applied.load(Ordering::Relaxed),
            repl_snapshots_installed: self.repl_snapshots_installed.load(Ordering::Relaxed),
            repl_digest_mismatches: self.repl_digest_mismatches.load(Ordering::Relaxed),
            repl_resubscribes: self.repl_resubscribes.load(Ordering::Relaxed),
            repl_lag_count: lag.count(),
            repl_lag_p50_ms: lag.percentile_ms(0.50),
            repl_lag_p99_ms: lag.percentile_ms(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::{PushSink, ReplFrameKind, SubscriptionEvent};
    use crate::proto::result_digest;
    use proql_common::{tup, Schema, ValueType};
    use std::sync::mpsc;

    /// Two disconnected mapping families: X → Y (via mxy) and U → V (via
    /// muv). A query over one family must not be invalidated by writes to
    /// the other.
    fn two_island_system() -> ProvenanceSystem {
        let mut sys = ProvenanceSystem::new();
        for name in ["X", "Y", "U", "V"] {
            sys.add_relation_with_local(
                Schema::build(name, &[("id", ValueType::Int), ("w", ValueType::Int)], &[0])
                    .unwrap(),
            )
            .unwrap();
        }
        sys.add_mapping_text("mxy: Y(i, w) :- X(i, w)").unwrap();
        sys.add_mapping_text("muv: V(i, w) :- U(i, w)").unwrap();
        for i in 0..5 {
            sys.insert_local("X", tup![i, i * 10]).unwrap();
            sys.insert_local("U", tup![i, i * 10]).unwrap();
        }
        sys.run_exchange().unwrap();
        sys
    }

    const Q_Y: &str = "FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
    const Q_V: &str = "FOR [V $x] INCLUDE PATH [$x] <-+ [] RETURN $x";

    #[test]
    fn repeat_query_hits_cache() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let first = core.query(Q_Y).unwrap();
        assert!(!first.cache_hit);
        let second = core.query(Q_Y).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.version, second.version);
        assert_eq!(
            first.output.projection.bindings,
            second.output.projection.bindings
        );
        let stats = core.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.queries, 2);
    }

    #[test]
    fn whitespace_variants_share_a_cache_entry() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        core.query(Q_Y).unwrap();
        let reformatted = "FOR   [Y $x]\n  INCLUDE PATH [$x] <-+ []\n  RETURN $x";
        assert!(core.query(reformatted).unwrap().cache_hit);
    }

    #[test]
    fn cache_key_preserves_string_literals_and_strips_comments() {
        // Whitespace inside single-quoted literals is significant: these
        // are different predicates and must not share a cache entry.
        let a = ServiceCore::cache_key("FOR [Y $x] WHERE $x.n = 'a b' RETURN $x");
        let b = ServiceCore::cache_key("FOR [Y $x] WHERE $x.n = 'a  b' RETURN $x");
        assert_ne!(a, b);
        // `--` line comments are insignificant, like in the lexer.
        let c = ServiceCore::cache_key("FOR [Y $x] -- note\n RETURN $x");
        assert_eq!(c, "FOR [Y $x] RETURN $x");
        // The `<-+` arrow is untouched by comment stripping.
        assert_eq!(ServiceCore::cache_key("[$x]  <-+   []"), "[$x] <-+ []");
    }

    #[test]
    fn write_to_unrelated_relation_keeps_entry_hot() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let before = core.query(Q_Y).unwrap();
        // Delete in the U/V island: the Y answer depends only on X/Y.
        let (v, stats) = core.delete("U", &tup![0]).unwrap();
        assert!(v > before.version);
        assert!(!stats.touched.contains("X_l"));
        let after = core.query(Q_Y).unwrap();
        assert!(after.cache_hit, "unrelated write must not evict");
        assert_eq!(after.version, v, "hit must report the current version");
        assert_eq!(
            before.output.projection.bindings,
            after.output.projection.bindings
        );
    }

    #[test]
    fn write_to_touched_relation_maintains_entry() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let before = core.query(Q_Y).unwrap();
        assert_eq!(before.output.projection.bindings.len(), 5);
        let (v, _) = core.delete("X", &tup![0]).unwrap();
        let after = core.query(Q_Y).unwrap();
        assert!(
            after.cache_hit,
            "a localizable write must patch the entry, not evict it"
        );
        assert_eq!(after.version, v);
        assert_eq!(after.output.projection.bindings.len(), 4);
        // The patched answer is bit-identical to a fresh recomputation.
        let fresh = core.snapshot().engine.query(Q_Y).unwrap();
        assert_eq!(result_digest(&after.output), result_digest(&fresh));
        let stats = core.stats();
        assert_eq!(stats.cache.maint_hits, 1);
        assert_eq!(stats.cache.maint_fallbacks, 0);
        assert!(stats.cache.maint_rows_patched > 0);
        assert_eq!(stats.cache.stale_evictions, 0);
    }

    #[test]
    fn irrelevant_write_keeps_entries_and_counts_why() {
        use crate::proto::json_u64_field;
        use proql::FallbackReason;
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let low = "FOR [Y $x] INCLUDE PATH [$x] <-+ [] WHERE $x.id < 3 RETURN $x";
        let texts = [
            low.to_string(),
            format!("EVALUATE COUNT OF {{ {low} }}"),
            format!("EVALUATE LINEAGE OF {{ {low} }}"),
            Q_Y.to_string(),
            format!("EVALUATE COUNT OF {{ {Q_Y} }}"),
        ];
        for q in &texts {
            core.query(q).unwrap();
        }
        // X(9, 90) lies outside `id < 3`: the three entries over that
        // range are unchanged, LINEAGE included. The two unfiltered
        // entries share one set of delta runs.
        core.insert_and_exchange("X", tup![9, 90]).unwrap();
        let stats = core.stats().cache;
        assert_eq!(stats.maint_hits, 5);
        assert_eq!(stats.maint_unchanged, 3);
        assert_eq!(stats.maint_shared, 1);
        assert_eq!(stats.maint_fallbacks, 0);
        for q in &texts {
            let served = core.query(q).unwrap();
            assert!(served.cache_hit, "{q}");
            let fresh = core.snapshot().engine.query(q).unwrap();
            assert_eq!(result_digest(&served.output), result_digest(&fresh), "{q}");
        }
        // Deleting X(1) reaches every entry: LINEAGE is evicted, and each
        // group's runs serve all of its members.
        core.delete("X", &tup![1]).unwrap();
        let stats = core.stats();
        assert_eq!(stats.cache.maint_fallbacks, 1);
        assert_eq!(stats.cache.fallbacks_for(FallbackReason::SetValued), 1);
        assert_eq!(stats.cache.maint_unchanged, 3);
        let json = stats.to_json();
        assert_eq!(json_u64_field(&json, "maint_unchanged"), Some(3));
        assert_eq!(json_u64_field(&json, "maint_shared"), Some(4));
        assert_eq!(json_u64_field(&json, "maint_fallback_set_valued"), Some(1));
        assert_eq!(json_u64_field(&json, "maint_fallback_error"), Some(0));
    }

    #[test]
    fn graph_answers_survive_writes_they_cannot_reach() {
        // Example 2.1 is cyclic, so `Strategy::Auto` walks the graph.
        let sys = proql_provgraph::system::example_2_1_with_island(3).unwrap();
        let core = ServiceCore::new(sys, EngineOptions::default());
        let q_o = "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
        let q_c = "FOR [C $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
        let (sink, log) = recording_sink(true);
        core.subscribe_sink(q_o, sink).unwrap();
        core.query(q_c).unwrap();
        let graph_walk = || core.stats().cache.fallbacks_for(FallbackReason::GraphWalk);
        let served_fresh = |q: &str| {
            let served = core.query(q).unwrap();
            let fresh = core.snapshot().engine.query(q).unwrap();
            assert_eq!(result_digest(&served.output), result_digest(&fresh), "{q}");
            served.cache_hit
        };
        // The Island is outside both backward closures.
        core.insert_and_exchange("Island", tup![9, 63]).unwrap();
        assert_eq!(graph_walk(), 0);
        assert!(
            lock(&log).is_empty(),
            "an unreachable write must not notify"
        );
        assert!(served_fresh(q_o) && served_fresh(q_c));
        // O is outside C's closure {A, C, N}; O's own answer falls back.
        core.insert_and_exchange("O", tup!["x1", 3, false]).unwrap();
        assert_eq!(graph_walk(), 1);
        assert!(served_fresh(q_c));
        assert!(!served_fresh(q_o));
        // A feeds both.
        core.insert_and_exchange("A", tup![8, "sn8", 2]).unwrap();
        assert_eq!(graph_walk(), 3);
        assert!(!served_fresh(q_o) && !served_fresh(q_c));
    }

    #[test]
    fn write_to_a_pruned_relation_recomputes_the_answer() {
        use proql_cdss::topology::{build_system, target_query, CdssConfig, Topology};
        // Chain 0 ← 1 ← 2 ← 3 with data at peer 3 only: unfolding the
        // target query prunes the alternatives through peer 1's empty
        // local tables, so the first row there must not be maintained
        // against the prepared rules, and the plan must be prepared again.
        let config = CdssConfig::new(4, vec![3], 5);
        let sys = build_system(Topology::Chain, &config).unwrap();
        let core = ServiceCore::new(sys, EngineOptions::default());
        let q = target_query();
        assert_eq!(core.query(q).unwrap().output.projection.bindings.len(), 5);
        let (a, b) = proql_cdss::SwissProtLike::new(1, config.attrs).entry(100);
        core.insert_and_exchange("R1a", a).unwrap();
        core.insert_and_exchange("R1b", b).unwrap();
        assert_eq!(core.stats().cache.fallbacks_for(FallbackReason::Pruned), 1);
        let served = core.query(q).unwrap();
        assert!(
            served.plan_cache == Some(PlanReuse::Miss),
            "the outdated plan must be re-prepared"
        );
        let fresh = core.snapshot().engine.query(q).unwrap();
        assert_eq!(result_digest(&served.output), result_digest(&fresh));
        assert_eq!(served.output.projection.bindings.len(), 6);
    }

    #[test]
    fn insert_and_exchange_maintains_dependent_entries() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        core.query(Q_Y).unwrap();
        core.query(Q_V).unwrap();
        let (_, write_set) = core.insert_and_exchange("X", tup![9, 90]).unwrap();
        assert!(write_set.contains("X_l"));
        assert!(write_set.contains("Y"), "write set: {write_set:?}");
        assert!(!write_set.contains("V"), "write set: {write_set:?}");
        let y = core.query(Q_Y).unwrap();
        assert!(y.cache_hit, "insert+exchange must patch the Y entry");
        assert_eq!(y.output.projection.bindings.len(), 6);
        let fresh = core.snapshot().engine.query(Q_Y).unwrap();
        assert_eq!(result_digest(&y.output), result_digest(&fresh));
        assert!(core.query(Q_V).unwrap().cache_hit);
        assert_eq!(core.stats().cache.maint_hits, 1);
    }

    #[test]
    fn maintained_annotation_entry_carries_state_across_rounds() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let q = "EVALUATE WEIGHT OF { FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x } \
                 ASSIGNING EACH leaf_node $y { DEFAULT : SET 1 }";
        core.query(q).unwrap();
        // Two maintenance rounds: the second reuses the carry-over state.
        core.insert_and_exchange("X", tup![7, 70]).unwrap();
        let r1 = core.query(q).unwrap();
        assert!(r1.cache_hit, "round 1 must maintain");
        core.delete("X", &tup![1]).unwrap();
        let r2 = core.query(q).unwrap();
        assert!(r2.cache_hit, "round 2 must maintain");
        let fresh = core.snapshot().engine.query(q).unwrap();
        assert_eq!(result_digest(&r2.output), result_digest(&fresh));
        assert_eq!(core.stats().cache.maint_hits, 2);
    }

    #[test]
    fn duplicate_insert_is_a_noop_and_evicts_nothing() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        core.query(Q_Y).unwrap();
        let v0 = core.version();
        // X_l already holds (0, 0): set semantics make this a no-op.
        let (v, write_set) = core.insert_and_exchange("X", tup![0, 0]).unwrap();
        assert_eq!(v, v0, "no-op insert must not publish a new version");
        assert!(write_set.is_empty());
        assert!(
            core.query(Q_Y).unwrap().cache_hit,
            "no-op must evict nothing"
        );
        assert_eq!(core.stats().writes, 0);
    }

    #[test]
    fn result_miss_reuses_cached_plan() {
        // A lineage answer is set-valued, so a write that reaches it is
        // evicted rather than maintained: the next read is a result miss.
        let q = format!("EVALUATE LINEAGE OF {{ {Q_Y} }}");
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let first = core.query(&q).unwrap();
        assert!(!first.cache_hit && first.plan_cache == Some(PlanReuse::Miss));
        // A write to a dependency evicts the result but not the plan: the
        // point delete stays within the stats fingerprint's buckets.
        core.delete("X", &tup![0]).unwrap();
        assert_eq!(
            core.stats().cache.fallbacks_for(FallbackReason::SetValued),
            1
        );
        let second = core.query(&q).unwrap();
        assert!(!second.cache_hit, "result must re-execute after the write");
        assert_eq!(
            second.plan_cache,
            Some(PlanReuse::Hit),
            "plan must be reused"
        );
        assert_eq!(second.output.projection.bindings.len(), 4);
        let stats = core.stats();
        assert_eq!(stats.plans.hits, 1);
        assert_eq!(stats.plans.misses, 1);
        assert_eq!(stats.plan_entries, 1);
    }

    #[test]
    fn invalidate_keeps_plans_hot() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        core.query(Q_Y).unwrap();
        core.invalidate();
        let again = core.query(Q_Y).unwrap();
        assert!(!again.cache_hit);
        assert_eq!(
            again.plan_cache,
            Some(PlanReuse::Hit),
            "INVALIDATE must not drop plans"
        );
        assert_eq!(again.output.projection.bindings.len(), 5);
    }

    #[test]
    fn explain_over_the_service_reports_plan() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let resp = core
            .query("EXPLAIN FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        let plan = resp.output.plan.as_deref().expect("EXPLAIN plan text");
        assert!(plan.contains("strategy:"), "{plan}");
        assert!(resp.output.projection.bindings.is_empty());
        // EXPLAIN and the plain query are distinct cache keys.
        assert!(!core.query(Q_Y).unwrap().cache_hit);
    }

    #[test]
    fn explain_flag_is_canonical_in_cache_keys() {
        // The parser matches keywords case-insensitively, so every case
        // variant of EXPLAIN is the same query and must share one entry…
        assert_eq!(
            ServiceCore::cache_key("explain FOR [Y $x] RETURN $x"),
            ServiceCore::cache_key("EXPLAIN  FOR [Y $x] RETURN $x")
        );
        assert_eq!(
            ServiceCore::cache_key("Explain -- plan?\n FOR [Y $x] RETURN $x"),
            ServiceCore::cache_key("EXPLAIN FOR [Y $x] RETURN $x")
        );
        // …that is never conflated with the plain query's entry: an
        // EXPLAIN answer has no result rows, so sharing a key would serve
        // an empty projection for the real query.
        assert_ne!(
            ServiceCore::cache_key("EXPLAIN FOR [Y $x] RETURN $x"),
            ServiceCore::cache_key("FOR [Y $x] RETURN $x")
        );
        // End to end: a lowercase `explain` hits the uppercase entry and
        // still leaves the plain query a miss.
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        core.query(&format!("EXPLAIN {Q_Y}")).unwrap();
        let variant = core.query(&format!("explain {Q_Y}")).unwrap();
        assert!(
            variant.cache_hit,
            "case variant of EXPLAIN must share the entry"
        );
        assert!(!core.query(Q_Y).unwrap().cache_hit);
    }

    #[test]
    fn explain_analyze_is_canonical_and_bypasses_the_result_cache() {
        // Case variants canonicalize to one key, distinct from plain
        // EXPLAIN (different payload: measured vs estimated).
        assert_eq!(
            ServiceCore::cache_key("explain analyze FOR [Y $x] RETURN $x"),
            ServiceCore::cache_key("EXPLAIN  ANALYZE  FOR [Y $x] RETURN $x")
        );
        assert_ne!(
            ServiceCore::cache_key("EXPLAIN ANALYZE FOR [Y $x] RETURN $x"),
            ServiceCore::cache_key("EXPLAIN FOR [Y $x] RETURN $x")
        );
        // End to end: analyze re-executes every time (its payload is
        // measured timings), but still reuses the prepared plan.
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let q = format!("EXPLAIN ANALYZE {Q_Y}");
        let first = core.query(&q).unwrap();
        assert!(!first.cache_hit);
        assert!(first.output.plan.as_deref().unwrap().contains("actual"));
        let second = core.query(&q).unwrap();
        assert!(!second.cache_hit, "analyze must bypass the result cache");
        assert_eq!(
            second.plan_cache,
            Some(PlanReuse::Hit),
            "analyze still reuses the plan"
        );
    }

    #[test]
    fn stats_text_and_json_come_from_one_registry() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        core.query(Q_Y).unwrap();
        core.query(Q_Y).unwrap();
        core.delete("X", &tup![0]).unwrap();
        core.query(Q_Y).unwrap();
        let stats = core.stats();
        // Graph counters survive snapshot turnover: the first query built
        // the graph on the retired snapshot, the post-write query patched
        // (or rebuilt) on the current one.
        assert!(stats.graph_builds >= 1);
        let registry = stats.registry();
        assert_eq!(stats.to_json(), registry.to_json());
        assert_eq!(stats.to_text(), registry.to_text());
        // Every registry entry appears in both renderings with the same
        // rendered value — the two surfaces cannot drift.
        let json = stats.to_json();
        let text = stats.to_text();
        for (name, _) in registry.entries() {
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("{name} ")))
                .unwrap_or_else(|| panic!("{name} missing from text"));
            let value = line.split_once(' ').unwrap().1;
            assert!(
                json.contains(&format!("\"{name}\": {value}")),
                "{name}={value} missing from JSON"
            );
        }
    }

    type EventLog = Arc<Mutex<Vec<(u64, SubscriptionEvent)>>>;

    /// A subscription sink that records every event it is handed and
    /// answers `alive`.
    fn recording_sink(alive: bool) -> (PushSink, EventLog) {
        let log = EventLog::default();
        let sink_log = Arc::clone(&log);
        let sink: PushSink = Box::new(move |id, event| {
            lock(&sink_log).push((id, event));
            alive
        });
        (sink, log)
    }

    #[test]
    fn subscriptions_receive_deltas_and_resyncs() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let (sink, log) = recording_sink(true);
        let (id, initial) = core.subscribe_sink(Q_Y, sink).unwrap();
        assert_eq!(initial.output.projection.bindings.len(), 5);
        assert_eq!(core.subscription_count(), 1);

        // Unrelated write: no event.
        core.delete("U", &tup![0]).unwrap();
        assert!(lock(&log).is_empty(), "unrelated write must not notify");

        // Touching write: maintained → a Delta event with the patched
        // answer's digest.
        let (v, _) = core.delete("X", &tup![0]).unwrap();
        let (got_id, event) = lock(&log).pop().expect("touching write must notify");
        assert_eq!(got_id, id);
        match event {
            SubscriptionEvent::Delta {
                version,
                rows_patched,
                digest,
            } => {
                assert_eq!(version, v);
                assert!(rows_patched > 0);
                let served = core.query(Q_Y).unwrap();
                assert!(served.cache_hit);
                assert_eq!(digest, result_digest(&served.output));
            }
            other => panic!("expected Delta, got {other:?}"),
        }

        // INVALIDATE then a touching write: the entry is gone, so the
        // subscriber is told to resync.
        core.invalidate();
        let (v2, _) = core.delete("X", &tup![1]).unwrap();
        match lock(&log).pop() {
            Some((_, SubscriptionEvent::Resync { version })) => assert_eq!(version, v2),
            other => panic!("expected Resync, got {other:?}"),
        }

        assert!(core.unsubscribe(id));
        assert!(!core.unsubscribe(id));
        assert_eq!(core.subscription_count(), 0);
    }

    #[test]
    fn unchanged_entries_push_a_zero_patch_delta_with_the_fresh_digest() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let low = "FOR [Y $x] INCLUDE PATH [$x] <-+ [] WHERE $x.id < 3 RETURN $x";
        let counted = format!("EVALUATE COUNT OF {{ {low} }}");
        let (sink_a, log_a) = recording_sink(true);
        let (sink_b, log_b) = recording_sink(true);
        let (sink_c, log_c) = recording_sink(true);
        let (a, _) = core.subscribe_sink(low, sink_a).unwrap();
        let (b, _) = core.subscribe_sink(low, sink_b).unwrap();
        let (c, _) = core.subscribe_sink(&counted, sink_c).unwrap();
        // X(9, 90) lies outside `id < 3`: the relevance filter keeps both
        // entries as they are, and each subscriber still hears a Delta.
        let (v, _) = core.insert_and_exchange("X", tup![9, 90]).unwrap();
        assert_eq!(core.stats().cache.maint_unchanged, 2);
        let snap = core.snapshot();
        assert_eq!(snap.version, v);
        let mut digests = Vec::new();
        for (log, id, q) in [(&log_a, a, low), (&log_b, b, low), (&log_c, c, &counted)] {
            let events = std::mem::take(&mut *lock(log));
            assert_eq!(events.len(), 1, "{q}");
            let (got, event) = events[0];
            assert_eq!(got, id);
            let fresh = result_digest(&snap.engine.query(q).unwrap());
            match event {
                SubscriptionEvent::Delta {
                    version,
                    rows_patched,
                    digest,
                } => {
                    assert_eq!((version, rows_patched), (v, 0), "{q}");
                    assert_eq!(digest, fresh, "{q}");
                    digests.push(digest);
                }
                other => panic!("expected Delta, got {other:?}"),
            }
        }
        assert_eq!(digests[0], digests[1], "one key, one digest");
        assert_ne!(digests[0], digests[2]);
    }

    #[test]
    fn dropped_subscribers_are_pruned_on_notify() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let (sink, log) = recording_sink(false);
        core.subscribe_sink(Q_Y, sink).unwrap();
        assert_eq!(core.subscription_count(), 1);
        core.delete("X", &tup![0]).unwrap();
        assert_eq!(
            core.subscription_count(),
            0,
            "a sink answering false must be pruned"
        );
        // Pruned means gone: the next touching write is not offered to it.
        core.delete("X", &tup![1]).unwrap();
        assert_eq!(lock(&log).len(), 1);
    }

    #[test]
    fn invalidate_clears_everything() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        core.query(Q_Y).unwrap();
        core.query(Q_V).unwrap();
        assert_eq!(core.invalidate(), 2);
        assert!(!core.query(Q_Y).unwrap().cache_hit);
    }

    #[test]
    fn query_errors_are_not_cached() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        assert!(core.query("FOR [Y $x RETURN $x").is_err());
        assert_eq!(core.stats().cache_entries, 0);
    }

    #[test]
    fn failed_write_leaves_version_and_snapshot_unchanged() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let v0 = core.version();
        assert!(core.delete("X", &tup![99]).is_err());
        assert_eq!(core.version(), v0);
        assert_eq!(core.query(Q_Y).unwrap().output.projection.bindings.len(), 5);
    }

    #[test]
    fn writes_publish_shared_structure_snapshots() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        let before = core.snapshot();
        core.insert_and_exchange("X", tup![9, 90]).unwrap();
        let after = core.snapshot();
        // The U/V island was untouched: its tables are shared pointers.
        assert!(before
            .engine
            .sys
            .db
            .shares_table_storage(&after.engine.sys.db, "U"));
        assert!(before
            .engine
            .sys
            .db
            .shares_table_storage(&after.engine.sys.db, "V"));
        // The written family was materialized copy-on-write.
        assert!(!before
            .engine
            .sys
            .db
            .shares_table_storage(&after.engine.sys.db, "X_l"));
        assert_eq!(before.engine.sys.db.table("X_l").unwrap().len(), 5);
        assert_eq!(after.engine.sys.db.table("X_l").unwrap().len(), 6);
    }

    #[test]
    fn deletes_ride_the_cached_graph_and_deltas() {
        let core = ServiceCore::new(two_island_system(), EngineOptions::default());
        // First delete builds the graph once; the published snapshots
        // adopt and patch it, so no further full builds happen.
        core.delete("U", &tup![0]).unwrap();
        core.delete("U", &tup![1]).unwrap();
        core.delete("X", &tup![0]).unwrap();
        let snap = core.snapshot();
        let g = snap.engine.graph().unwrap();
        assert_eq!(
            snap.engine.graph_build_count(),
            0,
            "published engines must patch the adopted graph, not rebuild"
        );
        assert_eq!(
            g.digest(),
            proql_provgraph::ProvGraph::from_system(&snap.engine.sys)
                .unwrap()
                .digest(),
            "patched service graph must match a from-scratch rebuild"
        );
        // And query results over it are correct.
        let y = core.query(Q_Y).unwrap();
        assert_eq!(y.output.projection.bindings.len(), 4);
        let v = core.query(Q_V).unwrap();
        assert_eq!(v.output.projection.bindings.len(), 3);
    }

    #[test]
    fn service_core_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServiceCore>();
    }

    type ReplQueue = mpsc::Receiver<(ReplFrameKind, Arc<Vec<u8>>)>;

    /// A queueing replica sink plus a drain that applies everything it
    /// received to `core`, mimicking the replica loop in-process.
    fn repl_queue() -> (ReplSink, ReplQueue) {
        let (tx, rx) = mpsc::channel();
        let sink: ReplSink =
            Box::new(move |kind, payload| tx.send((kind, Arc::clone(payload))).is_ok());
        (sink, rx)
    }

    fn drain_apply(
        core: &ServiceCore,
        rx: &mpsc::Receiver<(ReplFrameKind, Arc<Vec<u8>>)>,
    ) -> Vec<ReplApplyOutcome> {
        let mut out = Vec::new();
        while let Ok((kind, payload)) = rx.try_recv() {
            let outcome = match kind {
                ReplFrameKind::Delta => core
                    .apply_repl_delta_frame(&wire::decode_delta_frame(&payload).unwrap())
                    .unwrap(),
                ReplFrameKind::Snapshot => core
                    .install_repl_snapshot_frame(&wire::decode_snapshot_frame(&payload).unwrap())
                    .unwrap(),
            };
            out.push(outcome);
        }
        out
    }

    #[test]
    fn replica_follows_primary_with_digest_identity() {
        let primary = ServiceCore::new(two_island_system(), EngineOptions::default());
        let replica = ServiceCore::new(two_island_system(), EngineOptions::default());
        replica.set_read_only(true);
        let (sink, rx) = repl_queue();
        primary.repl_subscribe_sink(replica.version(), false, sink);
        assert_eq!(primary.repl_subscriber_count(), 1);
        assert!(
            rx.try_recv().is_err(),
            "same-version join needs no catch-up"
        );

        primary.insert_and_exchange("X", tup![9, 90]).unwrap();
        primary.delete("U", &tup![0]).unwrap();
        let outcomes = drain_apply(&replica, &rx);
        assert!(!outcomes.is_empty());
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, ReplApplyOutcome::Applied { .. })));
        assert_eq!(replica.version(), primary.version());
        assert_eq!(replica.graph_digest(), primary.graph_digest());
        // Served answers are bit-identical across the two processes.
        let p = primary.query(Q_Y).unwrap();
        let r = replica.query(Q_Y).unwrap();
        assert_eq!(p.version, r.version);
        assert_eq!(result_digest(&p.output), result_digest(&r.output));
        assert!(replica.stats().repl_deltas_applied >= 2);
        assert_eq!(replica.stats().repl_snapshots_installed, 0);
        // Replica mode refuses local mutations.
        assert!(replica.delete("X", &tup![1]).is_err());
    }

    #[test]
    fn replica_maintains_its_own_cache_across_applied_deltas() {
        let primary = ServiceCore::new(two_island_system(), EngineOptions::default());
        let replica = ServiceCore::new(two_island_system(), EngineOptions::default());
        replica.set_read_only(true);
        let (sink, rx) = repl_queue();
        primary.repl_subscribe_sink(replica.version(), false, sink);
        // Warm the replica's cache, then replicate a touching write: the
        // apply path must run the same incremental maintenance a local
        // write would.
        replica.query(Q_Y).unwrap();
        primary.delete("X", &tup![0]).unwrap();
        drain_apply(&replica, &rx);
        let after = replica.query(Q_Y).unwrap();
        assert!(after.cache_hit, "replicated write must patch, not evict");
        assert_eq!(after.output.projection.bindings.len(), 4);
        assert_eq!(replica.stats().cache.maint_hits, 1);
    }

    #[test]
    fn rotated_chain_falls_back_to_snapshot_transfer() {
        let primary = ServiceCore::new(two_island_system(), EngineOptions::default());
        let replica = ServiceCore::new(two_island_system(), EngineOptions::default());
        replica.set_read_only(true);
        let (sink, rx) = repl_queue();
        primary.repl_subscribe_sink(replica.version(), false, sink);
        primary.rotate_delta_chain().unwrap();
        let outcomes = drain_apply(&replica, &rx);
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0], ReplApplyOutcome::Applied { .. }));
        assert_eq!(replica.stats().repl_snapshots_installed, 1);
        assert!(primary.stats().repl_snapshots_streamed >= 1);
        assert_eq!(replica.version(), primary.version());
        assert_eq!(replica.graph_digest(), primary.graph_digest());
        // Streaming resumes with deltas after the snapshot resync.
        primary.insert_and_exchange("X", tup![8, 80]).unwrap();
        let outcomes = drain_apply(&replica, &rx);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, ReplApplyOutcome::Applied { .. })));
        assert_eq!(replica.stats().repl_snapshots_installed, 1);
        assert_eq!(replica.graph_digest(), primary.graph_digest());
    }

    #[test]
    fn late_joiner_catches_up_from_the_delta_log() {
        let primary = ServiceCore::new(two_island_system(), EngineOptions::default());
        let replica = ServiceCore::new(two_island_system(), EngineOptions::default());
        let joined_at = replica.version();
        primary.insert_and_exchange("X", tup![7, 70]).unwrap();
        primary.delete("U", &tup![1]).unwrap();
        let (sink, rx) = repl_queue();
        primary.repl_subscribe_sink(joined_at, false, sink);
        let outcomes = drain_apply(&replica, &rx);
        assert!(!outcomes.is_empty());
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, ReplApplyOutcome::Applied { .. })));
        assert_eq!(replica.stats().repl_snapshots_installed, 0);
        assert_eq!(replica.version(), primary.version());
        assert_eq!(replica.graph_digest(), primary.graph_digest());
    }

    #[test]
    fn late_joiner_past_log_retention_gets_a_snapshot() {
        let mut sys = two_island_system();
        sys.set_delta_log_capacity(1);
        let primary = ServiceCore::new(sys, EngineOptions::default());
        let replica = ServiceCore::new(two_island_system(), EngineOptions::default());
        let joined_at = replica.version();
        // Two writes with a one-entry log: the span back to `joined_at`
        // is no longer bridgeable.
        primary.insert_and_exchange("X", tup![7, 70]).unwrap();
        primary.insert_and_exchange("X", tup![8, 80]).unwrap();
        let (sink, rx) = repl_queue();
        primary.repl_subscribe_sink(joined_at, false, sink);
        let outcomes = drain_apply(&replica, &rx);
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0], ReplApplyOutcome::Applied { .. }));
        assert_eq!(replica.stats().repl_snapshots_installed, 1);
        assert_eq!(replica.graph_digest(), primary.graph_digest());
    }

    #[test]
    fn gapped_and_stale_frames_are_rejected_without_state_change() {
        let primary = ServiceCore::new(two_island_system(), EngineOptions::default());
        let replica = ServiceCore::new(two_island_system(), EngineOptions::default());
        let (sink, rx) = repl_queue();
        primary.repl_subscribe_sink(replica.version(), false, sink);
        primary.insert_and_exchange("X", tup![7, 70]).unwrap();
        let mut frames = Vec::new();
        while let Ok((kind, payload)) = rx.try_recv() {
            assert_eq!(kind, ReplFrameKind::Delta);
            frames.push(wire::decode_delta_frame(&payload).unwrap());
        }
        assert!(!frames.is_empty());
        let v0 = replica.version();
        // A frame from the future: gap, nothing applied.
        let mut gapped = frames[0].clone();
        gapped.version = v0 + 10;
        match replica.apply_repl_delta_frame(&gapped).unwrap() {
            ReplApplyOutcome::Gap { local, frame } => {
                assert_eq!(local, v0);
                assert_eq!(frame, v0 + 10);
            }
            other => panic!("expected Gap, got {other:?}"),
        }
        assert_eq!(replica.version(), v0);
        // Apply the real frames, then re-deliver them: stale no-ops.
        for f in &frames {
            assert!(matches!(
                replica.apply_repl_delta_frame(f).unwrap(),
                ReplApplyOutcome::Applied { .. }
            ));
        }
        let v1 = replica.version();
        for f in &frames {
            assert!(matches!(
                replica.apply_repl_delta_frame(f).unwrap(),
                ReplApplyOutcome::Stale { .. }
            ));
        }
        assert_eq!(replica.version(), v1);
        assert_eq!(replica.graph_digest(), primary.graph_digest());
    }

    #[test]
    fn digest_mismatch_is_detected_before_publish_and_snapshot_recovers() {
        let primary = ServiceCore::new(two_island_system(), EngineOptions::default());
        let replica = ServiceCore::new(two_island_system(), EngineOptions::default());
        let (sink, rx) = repl_queue();
        primary.repl_subscribe_sink(replica.version(), false, sink);
        primary.insert_and_exchange("X", tup![7, 70]).unwrap();
        let mut frames = Vec::new();
        while let Ok((kind, payload)) = rx.try_recv() {
            assert_eq!(kind, ReplFrameKind::Delta);
            frames.push(wire::decode_delta_frame(&payload).unwrap());
        }
        // Only the head frame of the span vouches a digest; apply the
        // intermediate frames cleanly, then tamper the head's digest.
        let mut head = frames.pop().unwrap();
        assert_ne!(head.digest, 0, "live head frames must carry the digest");
        for f in &frames {
            assert!(matches!(
                replica.apply_repl_delta_frame(f).unwrap(),
                ReplApplyOutcome::Applied { .. }
            ));
        }
        let v0 = replica.version();
        head.digest ^= 1;
        match replica.apply_repl_delta_frame(&head).unwrap() {
            ReplApplyOutcome::DigestMismatch { version, .. } => assert_eq!(version, v0 + 1),
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
        assert_eq!(replica.version(), v0, "corrupt state must never publish");
        assert_eq!(replica.stats().repl_digest_mismatches, 1);
        // Recovery: force a snapshot resubscribe (re-streaming the same
        // deltas would replay the same mismatch).
        let (sink2, rx2) = repl_queue();
        replica.note_repl_resubscribe();
        primary.repl_subscribe_sink(replica.version(), true, sink2);
        let outcomes = drain_apply(&replica, &rx2);
        assert!(matches!(outcomes[0], ReplApplyOutcome::Applied { .. }));
        assert_eq!(replica.version(), primary.version());
        assert_eq!(replica.graph_digest(), primary.graph_digest());
        assert_eq!(replica.stats().repl_resubscribes, 1);
    }

    /// The shared sink list's other entrance: a replica sink that reports
    /// itself dead while being caught up is never registered, so the
    /// next write is not offered to it.
    #[test]
    fn replica_sink_dead_during_catch_up_is_never_registered() {
        let primary = ServiceCore::new(two_island_system(), EngineOptions::default());
        let joined_at = primary.version();
        primary.insert_and_exchange("X", tup![7, 70]).unwrap();
        let offered = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&offered);
        let id = primary.repl_subscribe_sink(
            joined_at,
            false,
            Box::new(move |_, _| {
                seen.fetch_add(1, Ordering::Relaxed);
                false
            }),
        );
        assert_eq!(
            offered.load(Ordering::Relaxed),
            1,
            "catch-up stops at false"
        );
        assert_eq!(primary.repl_subscriber_count(), 0);
        assert!(!primary.repl_unsubscribe(id), "never registered");
        primary.insert_and_exchange("X", tup![8, 80]).unwrap();
        assert_eq!(offered.load(Ordering::Relaxed), 1);
        // The id was still consumed: a later subscriber gets a fresh one.
        let (sink, _rx) = repl_queue();
        assert!(primary.repl_subscribe_sink(primary.version(), false, sink) > id);
    }

    #[test]
    fn hung_up_replica_sinks_are_pruned() {
        let primary = ServiceCore::new(two_island_system(), EngineOptions::default());
        let (sink, rx) = repl_queue();
        let id = primary.repl_subscribe_sink(primary.version(), false, sink);
        drop(rx);
        primary.insert_and_exchange("X", tup![7, 70]).unwrap();
        assert_eq!(primary.repl_subscriber_count(), 0);
        assert!(!primary.repl_unsubscribe(id), "already pruned");
    }
}
