//! The dependency-tracked result cache and the prepared-plan cache.
//!
//! Every cached [`QueryOutput`] is kept with the [`PreparedQuery`] it was
//! computed from, whose [`PreparedQuery::touched`] is the answer's **read
//! set** (stored once per entry), and the version it was computed at. Instead of invalidating entries eagerly, the cache
//! keeps a per-relation **last-write epoch**: writers record the version
//! of each write's write set, and an entry is fresh exactly when no
//! relation in its read set has been written after the entry was built.
//!
//! This makes freshness a pure function of `(entry, last_write)` with no
//! ordering hazard between readers and writers: a reader that computed a
//! result against an old snapshot and tries to insert it after a
//! conflicting write finds `last_write[dep] > built_version` and the
//! insert is rejected; a write to a relation **no** entry depends on
//! changes nothing, so unrelated updates keep hot entries alive.
//!
//! The [`PlanCache`] sits **beneath** the result cache: a result-cache
//! miss (typically caused by a write to a read-set relation) reuses the
//! prepared query last bound for the same text, or binds the request's
//! `WHERE` literals to its cached query shape and plan template, skipping
//! translate → optimize (see [`proql::shape`]). Optimizer choices never
//! change results, so the staleness rule is about cost: a shape whose
//! [`PreparedShape::stats_version`] matches the published snapshot is
//! trivially current, and on version drift it is revalidated by
//! recomputing the bucketed stats fingerprint over its read set. Only
//! statistics drift (order-of-magnitude data change) forces a
//! re-preparation — and so does the first row in a relation unfolding
//! pruned on as empty, since 0 rows is a bucket of its own.

use proql::engine::{PreparedQuery, QueryOutput};
use proql::shape::{PlanTemplate, PreparedShape};
use proql::{FallbackReason, MaintainState};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Weak};

/// Monotonic counters the cache keeps about itself (reported by the
/// service's `STATS` verb).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries dropped because a write touched one of their dependencies.
    pub stale_evictions: u64,
    /// Entries dropped to respect the capacity bound (LRU).
    pub capacity_evictions: u64,
    /// Inserts rejected because the result was already stale when it
    /// arrived (a write raced the query that computed it).
    pub rejected_inserts: u64,
    /// Entries a write would have killed that incremental maintenance
    /// kept servable instead: patched forward, or found unchanged.
    pub maint_hits: u64,
    /// The part of `maint_hits` the write could not reach: nothing was
    /// patched and the entry kept its output.
    pub maint_unchanged: u64,
    /// Maintenance rounds — kept or evicted — that consumed delta runs
    /// another entry with the same projection already paid for in the
    /// same write.
    pub maint_shared: u64,
    /// Maintenance attempts that could not localize the delta and fell
    /// back to eviction.
    pub maint_fallbacks: u64,
    /// `maint_fallbacks` by reason, indexed like [`FallbackReason::ALL`].
    pub maint_fallback_reasons: [u64; FallbackReason::ALL.len()],
    /// The part of `maint_fallbacks` where maintenance returned an error.
    pub maint_errors: u64,
    /// Projection and annotation rows patched across all maintained
    /// entries (the O(delta) work actually done).
    pub maint_rows_patched: u64,
}

// `maint_fallback_reasons` is indexed by discriminant: `ALL` must list
// the reasons in declaration order.
const _: () = {
    let mut i = 0;
    while i < FallbackReason::ALL.len() {
        assert!(FallbackReason::ALL[i] as usize == i);
        i += 1;
    }
};

impl CacheCounters {
    /// Fallbacks counted for `reason`.
    pub fn fallbacks_for(&self, reason: FallbackReason) -> u64 {
        self.maint_fallback_reasons[reason as usize]
    }

    /// Hit rate over all lookups (0.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct CacheEntry {
    built_version: u64,
    result: Arc<QueryOutput>,
    /// The prepared query the result was computed from — what the
    /// maintainer re-runs in delta form when a write touches its read
    /// set, [`PreparedQuery::touched`], which is also the entry's read set.
    prepared: Arc<PreparedQuery>,
    /// Annotation carry-over from the last maintenance round (the
    /// projected provenance graph plus its semiring values). `None`
    /// until the entry is first maintained under an `EVALUATE` query.
    state: Option<Box<MaintainState>>,
    last_used: u64,
}

/// A fresh cache entry whose read set intersects a pending write set,
/// handed to the writer for incremental maintenance (outside the cache
/// lock). Taking a candidate moves its [`MaintainState`] out of the
/// entry; [`ResultCache::apply_maintained`] puts the successor back.
#[derive(Debug)]
pub struct MaintenanceCandidate {
    /// The entry's cache key.
    pub key: String,
    /// The prepared query to re-run in delta form.
    pub prepared: Arc<PreparedQuery>,
    /// The cached output to patch forward.
    pub previous: Arc<QueryOutput>,
    /// Annotation carry-over from the previous round, if any.
    pub state: Option<Box<MaintainState>>,
}

/// A bounded result cache keyed by normalized query text, invalidated by
/// relation-level write epochs.
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<String, CacheEntry>,
    /// Relation name → version of the latest write whose write set
    /// contained it. Absent means "never written since service start".
    last_write: HashMap<String, u64>,
    capacity: usize,
    tick: u64,
    counters: CacheCounters,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            last_write: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            counters: CacheCounters::default(),
        }
    }

    fn is_fresh(last_write: &HashMap<String, u64>, entry: &CacheEntry) -> bool {
        entry
            .prepared
            .touched
            .iter()
            .all(|d| last_write.get(d).is_none_or(|&w| w <= entry.built_version))
    }

    /// Look up a fresh entry. A stale entry found here is evicted on the
    /// spot. Counts a hit or a miss.
    pub fn lookup(&mut self, key: &str) -> Option<Arc<QueryOutput>> {
        self.tick += 1;
        let fresh = match self.entries.get(key) {
            Some(e) => Self::is_fresh(&self.last_write, e),
            None => {
                self.counters.misses += 1;
                return None;
            }
        };
        if !fresh {
            self.entries.remove(key);
            self.counters.stale_evictions += 1;
            self.counters.misses += 1;
            return None;
        }
        let e = self.entries.get_mut(key).expect("checked above");
        e.last_used = self.tick;
        self.counters.hits += 1;
        Some(Arc::clone(&e.result))
    }

    /// Store a result computed at `built_version` from `prepared`, whose
    /// read set the entry depends on. Rejected (and counted) when a write
    /// newer than `built_version` already touched one of the dependencies
    /// — the result is stale on arrival and caching it would serve wrong
    /// answers.
    pub fn insert(
        &mut self,
        key: String,
        built_version: u64,
        result: Arc<QueryOutput>,
        prepared: Arc<PreparedQuery>,
    ) {
        self.tick += 1;
        let entry = CacheEntry {
            built_version,
            result,
            prepared,
            state: None,
            last_used: self.tick,
        };
        if !Self::is_fresh(&self.last_write, &entry) {
            self.counters.rejected_inserts += 1;
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // Evict the least-recently-used entry to stay within bounds.
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.counters.capacity_evictions += 1;
            }
        }
        self.counters.insertions += 1;
        self.entries.insert(key, entry);
    }

    /// Take the maintenance candidates for a pending write: every
    /// **fresh** entry whose read set intersects `write_set`. Entries
    /// already stale from an earlier write are skipped (they die lazily
    /// on lookup, exactly as before). Each candidate's annotation
    /// carry-over is moved out; a successful maintenance round returns
    /// its successor via [`Self::apply_maintained`], a failed one drops
    /// the entry via [`Self::maintenance_fallback`].
    pub fn take_maintenance_candidates(
        &mut self,
        write_set: &BTreeSet<String>,
    ) -> Vec<MaintenanceCandidate> {
        let last_write = &self.last_write;
        self.entries
            .iter_mut()
            .filter(|(_, e)| {
                e.prepared.touched.iter().any(|d| write_set.contains(d))
                    && Self::is_fresh(last_write, e)
            })
            .map(|(key, e)| MaintenanceCandidate {
                key: key.clone(),
                prepared: Arc::clone(&e.prepared),
                previous: Arc::clone(&e.result),
                state: e.state.take(),
            })
            .collect()
    }

    /// Install a maintained result: swap the payload, store the next
    /// annotation carry-over, and re-stamp the entry's build version to
    /// the maintaining write's — so the write's own epoch (recorded via
    /// [`Self::record_write`] in the same critical section) no longer
    /// outdates it. `shared` says the round reused another entry's delta
    /// runs. A no-op if the entry vanished meanwhile (a racing reader's
    /// capacity eviction).
    pub fn apply_maintained(
        &mut self,
        key: &str,
        result: Arc<QueryOutput>,
        state: Option<Box<MaintainState>>,
        version: u64,
        rows_patched: u64,
        shared: bool,
    ) {
        if self.restamp(key, state, version, shared) {
            self.entries.get_mut(key).expect("just re-stamped").result = result;
            self.counters.maint_rows_patched += rows_patched;
        }
    }

    /// Keep an entry the write could not reach: its result stays, its
    /// carry-over goes back, and it is re-stamped to `version` like a
    /// maintained entry. Returns false if the entry vanished meanwhile.
    pub fn apply_unchanged(
        &mut self,
        key: &str,
        state: Option<Box<MaintainState>>,
        version: u64,
        shared: bool,
    ) -> bool {
        let kept = self.restamp(key, state, version, shared);
        self.counters.maint_unchanged += u64::from(kept);
        kept
    }

    fn restamp(
        &mut self,
        key: &str,
        state: Option<Box<MaintainState>>,
        version: u64,
        shared: bool,
    ) -> bool {
        let Some(e) = self.entries.get_mut(key) else {
            return false;
        };
        e.state = state;
        e.built_version = version;
        self.counters.maint_hits += 1;
        self.counters.maint_shared += u64::from(shared);
        true
    }

    /// Count a maintenance fallback — `None` for an error — and evict the
    /// entry eagerly (the write's epoch would kill it lazily anyway;
    /// eager removal lets subscriptions observe the resync immediately).
    /// `shared` says the round reused another entry's delta runs.
    pub fn maintenance_fallback(
        &mut self,
        key: &str,
        reason: Option<FallbackReason>,
        shared: bool,
    ) {
        if self.entries.remove(key).is_some() {
            self.counters.maint_fallbacks += 1;
            self.counters.maint_shared += u64::from(shared);
            match reason {
                Some(reason) => self.counters.maint_fallback_reasons[reason as usize] += 1,
                None => self.counters.maint_errors += 1,
            }
            self.counters.stale_evictions += 1;
        }
    }

    /// Record a write: every relation in `write_set` was modified by the
    /// write that produced `version`.
    pub fn record_write<'a>(&mut self, write_set: impl IntoIterator<Item = &'a str>, version: u64) {
        for rel in write_set {
            let slot = self.last_write.entry(rel.to_string()).or_insert(0);
            *slot = (*slot).max(version);
        }
    }

    /// Drop every entry, returning how many were dropped.
    pub fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        n
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }
}

/// Monotonic counters of the prepared-plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheCounters {
    /// Lookups that reused the prepared query of the same text: nothing
    /// parsed, bound or planned.
    pub hits: u64,
    /// Lookups that found the query's shape: the request's literals were
    /// bound to its cached expansion.
    pub shape_hits: u64,
    /// Lookups that prepared the query's shape from scratch.
    pub misses: u64,
    /// Plan templates compiled: a plan key no template held yet.
    pub plan_misses: u64,
    /// Plan templates stored.
    pub insertions: u64,
    /// Shapes dropped because their statistics fingerprint drifted (the
    /// optimizer would now choose differently, or a relation unfolding
    /// pruned on has rows; the shape re-prepares).
    pub reprepares: u64,
    /// Shapes, templates and bound texts dropped to respect the capacity
    /// bound (LRU).
    pub capacity_evictions: u64,
}

impl PlanCacheCounters {
    /// Share of lookups that prepared nothing from scratch: same-text and
    /// shape hits over all lookups (0.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let reused = self.hits + self.shape_hits;
        let total = reused + self.misses;
        if total == 0 {
            0.0
        } else {
            reused as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct ShapeEntry {
    shape: Arc<PreparedShape>,
    /// Plan key → optimized plans with literal slots.
    templates: HashMap<String, TemplateEntry>,
    /// Latest published version this entry was validated at: matching the
    /// current version skips the fingerprint recomputation.
    valid_at: u64,
    last_used: u64,
}

#[derive(Debug)]
struct TemplateEntry {
    template: Arc<PlanTemplate>,
    last_used: u64,
}

/// The prepared query last bound for one exact text. It lives as long as
/// the shape it was bound to is the one cached under its key.
#[derive(Debug)]
struct BoundEntry {
    shape_key: Arc<str>,
    shape: Weak<PreparedShape>,
    prepared: Arc<PreparedQuery>,
    last_used: u64,
}

/// A bounded prepared-plan cache keyed by **query shape** (see
/// [`proql::shape`]): each shape keeps its expansion and one plan template
/// per plan key, so a request with fresh `WHERE` literals costs a bind,
/// not a prepare. The prepared query bound for each recent text is kept
/// too, so repeating a text (a re-execution after a write evicted its
/// answer) binds nothing. Shapes, templates and bound texts are each held
/// to `capacity` entries, least recently used first out.
///
/// A capacity of 0 disables the cache entirely (every lookup misses,
/// inserts are dropped).
#[derive(Debug)]
pub struct PlanCache {
    shapes: HashMap<Arc<str>, ShapeEntry>,
    /// Exact text (the result cache's key) → its last bound query.
    bound: HashMap<String, BoundEntry>,
    capacity: usize,
    tick: u64,
    counters: PlanCacheCounters,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` of each kind of entry
    /// (0 disables).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            shapes: HashMap::new(),
            bound: HashMap::new(),
            capacity,
            tick: 0,
            counters: PlanCacheCounters::default(),
        }
    }

    /// The prepared query last bound for exactly `key`, while its shape is
    /// still valid (see [`Self::lookup_shape`]). Counts a hit; a miss is
    /// counted by the shape lookup that follows it.
    pub fn lookup_text(
        &mut self,
        key: &str,
        version: u64,
        fingerprint: impl FnOnce(&BTreeSet<String>) -> u64,
    ) -> Option<Arc<PreparedQuery>> {
        self.tick += 1;
        let entry = self.bound.get_mut(key)?;
        let valid = validate(
            &mut self.shapes,
            &mut self.counters,
            &entry.shape_key,
            version,
            fingerprint,
        ) && std::ptr::eq(
            entry.shape.as_ptr(),
            Arc::as_ptr(&self.shapes[&entry.shape_key].shape),
        );
        if !valid {
            self.bound.remove(key);
            return None;
        }
        entry.last_used = self.tick;
        self.counters.hits += 1;
        Some(Arc::clone(&entry.prepared))
    }

    /// The shape cached under `shape_key`, validated against the currently
    /// published `version`. On version drift, `fingerprint` recomputes the
    /// stats fingerprint of the shape's read set against the current
    /// snapshot: unchanged ⇒ the entry is re-stamped and reused; drifted
    /// ⇒ the shape and its templates die and the caller re-prepares.
    pub fn lookup_shape(
        &mut self,
        shape_key: &str,
        version: u64,
        fingerprint: impl FnOnce(&BTreeSet<String>) -> u64,
    ) -> Option<Arc<PreparedShape>> {
        self.tick += 1;
        if !validate(
            &mut self.shapes,
            &mut self.counters,
            shape_key,
            version,
            fingerprint,
        ) {
            self.counters.misses += 1;
            return None;
        }
        let e = self.shapes.get_mut(shape_key).expect("validated");
        e.last_used = self.tick;
        self.counters.shape_hits += 1;
        Some(Arc::clone(&e.shape))
    }

    /// Store a shape prepared against `version`.
    pub fn insert_shape(&mut self, shape_key: Arc<str>, shape: Arc<PreparedShape>, version: u64) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.shapes.len() >= self.capacity && !self.shapes.contains_key(&shape_key) {
            if let Some(victim) = lru(&self.shapes, |e| e.last_used) {
                self.shapes.remove(&victim);
                self.counters.capacity_evictions += 1;
            }
        }
        self.shapes.insert(
            shape_key,
            ShapeEntry {
                shape,
                templates: HashMap::new(),
                valid_at: version,
                last_used: self.tick,
            },
        );
    }

    /// The template for `plan_key` under `shape_key`, if `shape` (the shape
    /// the plan key was derived from) is still the one cached there: a
    /// re-prepared shape may number its alternatives differently. Counts
    /// a plan miss when there is none.
    pub fn lookup_template(
        &mut self,
        shape_key: &str,
        shape: &Arc<PreparedShape>,
        plan_key: &str,
    ) -> Option<Arc<PlanTemplate>> {
        self.tick += 1;
        let found = self
            .shapes
            .get_mut(shape_key)
            .filter(|e| Arc::ptr_eq(&e.shape, shape))
            .and_then(|e| e.templates.get_mut(plan_key));
        match found {
            Some(t) => {
                t.last_used = self.tick;
                Some(Arc::clone(&t.template))
            }
            None => {
                self.counters.plan_misses += 1;
                None
            }
        }
    }

    /// Store the template for `plan_key` of `shape` under `shape_key`
    /// (dropped when another shape is cached there meanwhile).
    pub fn insert_template(
        &mut self,
        shape_key: &str,
        shape: &Arc<PreparedShape>,
        plan_key: String,
        template: Arc<PlanTemplate>,
    ) {
        let current = self.shapes.get(shape_key);
        if self.capacity == 0 || !current.is_some_and(|e| Arc::ptr_eq(&e.shape, shape)) {
            return;
        }
        self.tick += 1;
        if self.len() >= self.capacity {
            let victim = self
                .shapes
                .iter()
                .flat_map(|(s, e)| e.templates.iter().map(move |(p, t)| (t.last_used, s, p)))
                .min()
                .map(|(_, s, p)| (Arc::clone(s), p.clone()));
            if let Some((s, p)) = victim {
                self.shapes
                    .get_mut(&s)
                    .expect("found above")
                    .templates
                    .remove(&p);
                self.counters.capacity_evictions += 1;
            }
        }
        let entry = TemplateEntry {
            template,
            last_used: self.tick,
        };
        let shape = self.shapes.get_mut(shape_key).expect("checked above");
        shape.templates.insert(plan_key, entry);
        self.counters.insertions += 1;
    }

    /// Remember the prepared query bound for text `key` to `shape`, cached
    /// under `shape_key`.
    pub fn insert_bound(
        &mut self,
        key: String,
        shape_key: Arc<str>,
        shape: &Arc<PreparedShape>,
        prepared: Arc<PreparedQuery>,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.bound.len() >= self.capacity && !self.bound.contains_key(&key) {
            if let Some(victim) = lru(&self.bound, |e| e.last_used) {
                self.bound.remove(&victim);
                self.counters.capacity_evictions += 1;
            }
        }
        self.bound.insert(
            key,
            BoundEntry {
                shape_key,
                shape: Arc::downgrade(shape),
                prepared,
                last_used: self.tick,
            },
        );
    }

    /// Live plan templates.
    pub fn len(&self) -> usize {
        self.shapes.values().map(|e| e.templates.len()).sum()
    }

    /// Live shapes.
    pub fn shapes(&self) -> usize {
        self.shapes.len()
    }

    /// True when no shapes are cached.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Drop every shape, template and bound text, returning how many
    /// templates were dropped.
    pub fn clear(&mut self) -> usize {
        let n = self.len();
        self.shapes.clear();
        self.bound.clear();
        n
    }

    /// Counter snapshot.
    pub fn counters(&self) -> PlanCacheCounters {
        self.counters
    }
}

/// Whether `shape_key` holds a shape still valid at `version`; a drifted
/// one is dropped with its templates. (A free function, so a caller can
/// hold a bound-text entry while the shapes are validated.)
fn validate(
    shapes: &mut HashMap<Arc<str>, ShapeEntry>,
    counters: &mut PlanCacheCounters,
    shape_key: &str,
    version: u64,
    fingerprint: impl FnOnce(&BTreeSet<String>) -> u64,
) -> bool {
    let Some(e) = shapes.get_mut(shape_key) else {
        return false;
    };
    if e.valid_at != version {
        if fingerprint(&e.shape.touched) != e.shape.stats_fingerprint {
            shapes.remove(shape_key);
            counters.reprepares += 1;
            return false;
        }
        e.valid_at = version;
    }
    true
}

/// The key of the least recently used entry of `map`.
fn lru<K: Clone, V>(map: &HashMap<K, V>, last_used: impl Fn(&V) -> u64) -> Option<K> {
    map.iter()
        .min_by_key(|(_, e)| last_used(e))
        .map(|(k, _)| k.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql::engine::QueryOutput;
    use proql::exec::ProjectionResult;

    fn output() -> Arc<QueryOutput> {
        Arc::new(QueryOutput {
            projection: ProjectionResult::default(),
            annotated: None,
            stats: Default::default(),
            touched: BTreeSet::new(),
            plan: None,
        })
    }

    fn prepared() -> Arc<PreparedQuery> {
        use proql::engine::Engine;
        use proql_provgraph::system::example_2_1;
        let e = Engine::new(example_2_1().unwrap());
        Arc::new(
            e.prepare("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
                .unwrap(),
        )
    }

    /// A prepared query whose read set is `names`.
    fn reading(names: &[&str]) -> Arc<PreparedQuery> {
        let mut p = (*prepared()).clone();
        p.touched = names.iter().map(|s| s.to_string()).collect();
        Arc::new(p)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = ResultCache::new(8);
        assert!(c.lookup("q1").is_none());
        c.insert("q1".into(), 1, output(), reading(&["A"]));
        assert!(c.lookup("q1").is_some());
        let counters = c.counters();
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.misses, 1);
    }

    #[test]
    fn write_to_dependency_evicts_unrelated_write_does_not() {
        let mut c = ResultCache::new(8);
        c.insert("qa".into(), 1, output(), reading(&["A", "P_m1"]));
        c.insert("qb".into(), 1, output(), reading(&["B"]));
        c.record_write(["B"], 2);
        // qa untouched by the write to B.
        assert!(c.lookup("qa").is_some());
        // qb's dependency was written after it was built.
        assert!(c.lookup("qb").is_none());
        assert_eq!(c.counters().stale_evictions, 1);
    }

    #[test]
    fn write_older_than_entry_keeps_it() {
        let mut c = ResultCache::new(8);
        c.record_write(["A"], 3);
        // Built at version 5, after the write: still fresh.
        c.insert("q".into(), 5, output(), reading(&["A"]));
        assert!(c.lookup("q").is_some());
    }

    #[test]
    fn stale_on_arrival_insert_is_rejected() {
        let mut c = ResultCache::new(8);
        c.record_write(["A"], 7);
        // A reader computed this against version 5, then the write at 7
        // landed before the insert: must not be cached.
        c.insert("q".into(), 5, output(), reading(&["A"]));
        assert!(c.lookup("q").is_none());
        assert_eq!(c.counters().rejected_inserts, 1);
        assert_eq!(c.counters().insertions, 0);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert("q1".into(), 1, output(), reading(&["A"]));
        c.insert("q2".into(), 1, output(), reading(&["A"]));
        assert!(c.lookup("q1").is_some()); // q2 is now the LRU entry
        c.insert("q3".into(), 1, output(), reading(&["A"]));
        assert_eq!(c.len(), 2);
        assert!(c.lookup("q1").is_some());
        assert!(c.lookup("q2").is_none());
        assert!(c.lookup("q3").is_some());
        assert_eq!(c.counters().capacity_evictions, 1);
    }

    #[test]
    fn maintenance_candidates_follow_the_prepared_read_set() {
        let mut c = ResultCache::new(8);
        c.insert("qa".into(), 1, output(), reading(&["A", "P_m1"]));
        c.insert("qb".into(), 1, output(), reading(&["B"]));
        c.insert("qc".into(), 1, output(), reading(&["A"]));
        c.record_write(["A"], 2);
        let write_set = ["P_m1".to_string()].into_iter().collect();
        // qc is already stale (written at 2 after its build at 1); qb does
        // not read P_m1.
        let keys: Vec<String> = c
            .take_maintenance_candidates(&write_set)
            .into_iter()
            .map(|m| m.key)
            .collect();
        assert!(keys.is_empty(), "{keys:?}");
        c.insert("qd".into(), 3, output(), reading(&["A", "P_m1"]));
        let keys: Vec<String> = c
            .take_maintenance_candidates(&write_set)
            .into_iter()
            .map(|m| m.key)
            .collect();
        assert_eq!(keys, ["qd"]);
    }

    #[test]
    fn clear_drops_everything() {
        let mut c = ResultCache::new(8);
        c.insert("q1".into(), 1, output(), reading(&["A"]));
        c.insert("q2".into(), 1, output(), reading(&["B"]));
        assert_eq!(c.clear(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn hit_rate_reported() {
        let mut c = ResultCache::new(8);
        c.insert("q".into(), 1, output(), reading(&["A"]));
        assert!(c.lookup("q").is_some());
        assert!(c.lookup("q").is_some());
        assert!(c.lookup("other").is_none());
        let rate = c.counters().hit_rate();
        assert!((rate - 2.0 / 3.0).abs() < 1e-9, "rate = {rate}");
    }

    /// A shape, the template of its one plan key, and a prepared query
    /// bound through them, for `q` over Example 2.1 under unfolding.
    fn shaped(
        q: &str,
    ) -> (
        Arc<str>,
        Arc<PreparedShape>,
        String,
        Arc<PlanTemplate>,
        Arc<PreparedQuery>,
    ) {
        use proql::engine::{Engine, EngineOptions, Strategy};
        use proql::shape::lift_literals;
        use proql_provgraph::system::example_2_1;
        let options = EngineOptions {
            strategy: Strategy::Unfold,
            ..EngineOptions::default()
        };
        let e = Engine::with_options(example_2_1().unwrap(), options);
        let query = proql::parse_query(q).unwrap();
        let (shape_key, literals) = lift_literals(&query);
        let shape = e.prepare_shape(&query).unwrap();
        let bound = e.bind_shape(&shape, query, literals).unwrap();
        let template = e.plan_template(&shape, &bound).unwrap();
        let plan_key = bound.plan_key.clone();
        let prepared = e.bind_plans(&shape, bound, &template);
        (
            shape_key.into(),
            Arc::new(shape),
            plan_key,
            Arc::new(template),
            Arc::new(prepared),
        )
    }

    #[test]
    fn plan_cache_fast_path_revalidation_and_drift() {
        let q = "FOR [O $x] INCLUDE PATH [$x] <-+ [] WHERE $x.h >= 6 RETURN $x";
        let (sk, shape, pk, template, prepared) = shaped(q);
        let (v, fp) = (shape.stats_version, shape.stats_fingerprint);
        let mut c = PlanCache::new(8);
        assert!(c.lookup_text(q, v, |_| 0).is_none());
        assert!(c.lookup_shape(&sk, v, |_| 0).is_none());
        c.insert_shape(sk.clone(), Arc::clone(&shape), v);
        assert!(c.lookup_template(&sk, &shape, &pk).is_none());
        c.insert_template(&sk, &shape, pk.clone(), template);
        c.insert_bound(q.into(), sk.clone(), &shape, Arc::clone(&prepared));
        // Same version: the fingerprint closure must not run.
        assert!(c.lookup_text(q, v, |_| panic!("fresh entry")).is_some());
        assert!(c.lookup_shape(&sk, v, |_| panic!("fresh entry")).is_some());
        assert!(c.lookup_template(&sk, &shape, &pk).is_some());
        // Version drift, unchanged fingerprint: revalidated and re-stamped.
        assert!(c.lookup_text(q, v + 1, |_| fp).is_some());
        assert!(c
            .lookup_shape(&sk, v + 1, |_| panic!("re-stamped"))
            .is_some());
        // Fingerprint drift: the shape dies with its template, and the
        // text bound through it stops hitting; the caller re-prepares.
        assert!(c.lookup_text(q, v + 2, |_| fp ^ 1).is_none());
        assert!(c.lookup_shape(&sk, v + 2, |_| fp).is_none());
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        // A request still holding the dropped shape can neither plant its
        // template nor its bound text under the shape prepared next: the
        // new one may number its alternatives differently.
        let (_, next, _, next_template, _) = shaped(q);
        c.insert_shape(sk.clone(), Arc::clone(&next), v + 2);
        c.insert_template(&sk, &shape, pk.clone(), Arc::clone(&next_template));
        assert!(c.lookup_template(&sk, &next, &pk).is_none());
        c.insert_template(&sk, &next, pk.clone(), next_template);
        assert!(c.lookup_template(&sk, &shape, &pk).is_none());
        c.insert_bound(q.into(), sk.clone(), &shape, Arc::clone(&prepared));
        assert!(c.lookup_text(q, v + 2, |_| panic!("fresh shape")).is_none());
        let counters = c.counters();
        assert_eq!(counters.hits, 2);
        assert_eq!(counters.shape_hits, 2);
        assert_eq!(counters.misses, 2);
        assert_eq!(counters.plan_misses, 3);
        assert_eq!(counters.reprepares, 1);
        assert!((counters.hit_rate() - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn plan_cache_capacity_zero_disables() {
        let q = "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
        let (sk, shape, pk, template, prepared) = shaped(q);
        let v = shape.stats_version;
        let mut c = PlanCache::new(0);
        c.insert_shape(sk.clone(), Arc::clone(&shape), v);
        c.insert_template(&sk, &shape, pk.clone(), template);
        c.insert_bound(q.into(), sk.clone(), &shape, prepared);
        assert!(c.lookup_text(q, v, |_| 0).is_none());
        assert!(c.lookup_shape(&sk, v, |_| 0).is_none());
        assert!(c.lookup_template(&sk, &shape, &pk).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn plan_cache_evicts_lru() {
        let q = "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
        let (_, shape, _, template, prepared) = shaped(q);
        let v = shape.stats_version;
        let mut c = PlanCache::new(2);
        for s in ["s1", "s2"] {
            c.insert_shape(s.into(), Arc::clone(&shape), v);
        }
        assert!(c.lookup_shape("s1", v, |_| 0).is_some()); // s2 is now LRU
        c.insert_shape("s3".into(), Arc::clone(&shape), v);
        assert_eq!(c.shapes(), 2);
        assert!(c.lookup_shape("s2", v, |_| 0).is_none());
        assert!(c.lookup_shape("s1", v, |_| 0).is_some());
        // Templates are bounded across shapes, bound texts on their own.
        for (s, p) in [("s1", "a"), ("s3", "b"), ("s1", "c")] {
            c.insert_template(s, &shape, p.into(), Arc::clone(&template));
        }
        assert_eq!(c.len(), 2);
        assert!(c.lookup_template("s1", &shape, "a").is_none());
        for t in ["t1", "t2", "t3"] {
            c.insert_bound(t.into(), "s1".into(), &shape, Arc::clone(&prepared));
        }
        assert!(c.lookup_text("t1", v, |_| 0).is_none());
        assert!(c.lookup_text("t3", v, |_| 0).is_some());
        assert_eq!(c.counters().capacity_evictions, 3);
    }
}
