//! The provenance system: database + mappings + provenance capture.
//!
//! [`ProvenanceSystem`] owns the relational [`Database`], the mapping
//! program, and the per-mapping provenance specs. Running
//! [`ProvenanceSystem::run_exchange`] materializes all public relations
//! (data exchange, §2) while recording one provenance row per derivation
//! through the Datalog engine's firing hook.
//!
//! # The delta-tracked write path
//!
//! Every mutation through this type's API stages a [`GraphDelta`] — the
//! exact change it makes to the decoded provenance graph — and **seals**
//! it when the mutation completes: the version counter bumps by one and
//! the delta is appended to a bounded [`DeltaLog`]. Consumers holding a
//! graph built at an older version patch it forward through
//! [`ProvenanceSystem::delta_entries`] instead of rebuilding; the query
//! service derives write sets from the same entries
//! ([`ProvenanceSystem::write_set_since`]). Out-of-band mutations
//! (writing `db` directly + [`ProvenanceSystem::bump_version`], schema
//! changes) break the chain, forcing one full rebuild.
//!
//! Repeated exchanges are **incremental**: once a fixpoint has been
//! reached, later [`ProvenanceSystem::run_exchange`] calls seed the
//! semi-naive evaluation with only the local rows inserted since, so the
//! cost of exchanging a point write is proportional to what it derives,
//! not to the database.

use crate::delta::{DeltaLog, DeltaOp, GraphDelta};
use crate::encode::{create_prov_relation, spec_for_rule, ProvSpec};
use crate::schema_graph::SchemaGraph;
use proql_common::{Error, Result, Schema, Tuple, Value};
use proql_datalog::ast::{Program, Rule, Term};
use proql_datalog::eval::{run_program, run_program_seeded, Bindings, EvalStats, FiringHook};
use proql_datalog::parse::parse_rule;
use proql_storage::Database;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Suffix of local-contribution tables: relation `A` gets `A_l`.
pub const LOCAL_SUFFIX: &str = "_l";

/// A CDSS-style provenance system.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceSystem {
    /// The backing database: public relations, local contribution tables,
    /// and provenance relations (tables or views).
    pub db: Database,
    /// The schema-level state, shared by every clone until a DDL call
    /// changes it (`Arc::make_mut`): a write's clone copies one pointer.
    mappings: Arc<Mappings>,
    exchanged: bool,
    version: u64,
    /// Ops staged by the mutation currently in progress.
    staged: GraphDelta,
    /// Sealed per-version deltas (bounded history).
    deltas: DeltaLog,
    /// False when some superfluous mapping could not be compiled into a
    /// matcher: deltas would be incomplete, so sealing resets the chain.
    trackable: bool,
    /// Local rows inserted since the last exchange — the seeds of the
    /// next incremental exchange round.
    pending_exchange: Vec<(String, Tuple)>,
    /// True when the database is known to be at the program's fixpoint
    /// modulo `pending_exchange` (enables incremental exchange).
    at_fixpoint: bool,
}

/// What only DDL changes: the mapping program and everything derived
/// from it when a relation or mapping is registered.
#[derive(Debug, Clone, Default)]
struct Mappings {
    program: Program,
    /// The schema graph of `program`, kept in step with it.
    schema: SchemaGraph,
    /// Provenance specs, parallel to `program.rules`.
    specs: Vec<ProvSpec>,
    local_rels: HashSet<String>,
    /// Row-level matchers for superfluous (view-backed) provenance
    /// relations: given a base-table row, produce the view row it
    /// contributes, so writes to the base table translate to graph deltas.
    matchers: Vec<SuperfluousMatcher>,
}

impl ProvenanceSystem {
    /// Empty system.
    pub fn new() -> Self {
        ProvenanceSystem {
            trackable: true,
            ..ProvenanceSystem::default()
        }
    }

    /// Monotonically increasing mutation counter. Every mutation through
    /// this type's API bumps it; consumers that cache anything derived
    /// from the system (the engine's provenance graph, the query
    /// service's result cache) compare versions instead of relying on
    /// explicit invalidation calls.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Record an out-of-band mutation (a caller writing through the
    /// public `db` field directly). Bumps [`ProvenanceSystem::version`]
    /// so cached derived state is dropped on next use, and **breaks the
    /// delta chain** — the next graph consumer rebuilds from scratch, and
    /// the next exchange runs a full bootstrap.
    pub fn bump_version(&mut self) {
        self.version += 1;
        self.staged = GraphDelta::default();
        self.deltas.reset(self.version);
        self.at_fixpoint = false;
        self.pending_exchange.clear();
    }

    /// A version bump for tracked schema-level changes (rare, setup-time):
    /// the graph delta chain restarts, but incremental-exchange state is
    /// preserved by the caller where sound.
    fn bump_untracked(&mut self) {
        self.version += 1;
        self.staged = GraphDelta::default();
        self.deltas.reset(self.version);
        self.at_fixpoint = false;
    }

    /// Seal the staged delta: bump the version once (unconditionally —
    /// callers that want a no-op to skip the bump guard with
    /// [`ProvenanceSystem::commit_tracked_mutation`]) and append the
    /// entry covering it. An untrackable or op-overflowed entry resets
    /// the chain instead — consumers rebuild once.
    fn seal_delta(&mut self) {
        self.version += 1;
        let staged = std::mem::take(&mut self.staged);
        if self.trackable && !staged.overflowed {
            self.deltas.push(self.version, staged);
        } else {
            self.deltas.reset(self.version);
        }
    }

    /// Seal the staged delta **iff** the current tracked mutation changed
    /// anything, bumping the version exactly once. Multi-step mutators
    /// (CDSS deletion propagation) route every row change through
    /// [`ProvenanceSystem::delete_row_tracked`] and call this at the end —
    /// on the error path too, so partially applied cascades still
    /// invalidate version-checked caches. Returns whether a bump happened.
    pub fn commit_tracked_mutation(&mut self) -> bool {
        if self.staged.is_empty() {
            return false;
        }
        self.seal_delta();
        true
    }

    /// Caller asserts the database is at the mapping program's fixpoint
    /// (modulo pending local inserts), re-enabling **seeded** incremental
    /// exchanges after tracked deletions cleared the flag. CDSS deletion
    /// calls this when its cascade completes cleanly: the remaining
    /// instance is closed under the (monotone) mappings — every firing
    /// over surviving tuples derives a tuple whose derivation's sources
    /// survived, hence derivable, hence kept by the garbage collection.
    /// Asserting this on a state that is *not* a fixpoint makes later
    /// seeded exchanges silently diverge from a full bootstrap.
    pub fn assert_exchange_fixpoint(&mut self) {
        if self.exchanged {
            self.at_fixpoint = true;
        }
    }

    /// Bucketed fingerprint of the optimizer statistics behind
    /// `relations` (see [`proql_storage::stats`]). Consumers caching
    /// anything cost-derived (prepared query plans) pair this with
    /// [`ProvenanceSystem::version`]: same version ⇒ trivially fresh;
    /// version drift with an unchanged fingerprint ⇒ the cached artifact
    /// is stale in time but still cost-optimal, so it can be revalidated
    /// instead of rebuilt. Views hash by name only — their statistics
    /// derive from base tables, which callers include by passing a read
    /// set expanded down to base tables.
    pub fn stats_fingerprint<'a>(&self, relations: impl IntoIterator<Item = &'a str>) -> u64 {
        proql_storage::stats::db_fingerprint(&self.db, relations)
    }

    /// The sealed graph deltas covering `(from, to]`, or `None` when the
    /// chain cannot bridge that span (history trimmed or broken by an
    /// untracked mutation) — the caller then rebuilds from scratch.
    pub fn delta_entries(&self, from: u64, to: u64) -> Option<impl Iterator<Item = &GraphDelta>> {
        self.deltas.span(from, to)
    }

    /// Lifetime count of delta-log entries dropped to stay within the
    /// retention budget (see [`DeltaLog`]). Surfaced through service
    /// statistics as the delta-log compaction count.
    pub fn delta_compactions(&self) -> u64 {
        self.deltas.compactions()
    }

    /// Union of the write sets of every mutation after `from` (up to the
    /// current version), straight off the delta log. `None` when the log
    /// cannot bridge the span; callers should then assume everything was
    /// written.
    pub fn write_set_since(&self, from: u64) -> Option<BTreeSet<String>> {
        let mut out = BTreeSet::new();
        for entry in self.deltas.span(from, self.version)? {
            out.extend(entry.touched.iter().cloned());
        }
        Some(out)
    }

    /// Retained delta-log depth (sealed entries currently held).
    pub fn delta_log_depth(&self) -> usize {
        self.deltas.depth()
    }

    /// The delta log's trimmed low watermark: the oldest version the log
    /// can still patch (or replicate) **from**.
    pub fn delta_log_base(&self) -> u64 {
        self.deltas.base()
    }

    /// The delta log's configured retention bound, in entries.
    pub fn delta_log_capacity(&self) -> usize {
        self.deltas.capacity()
    }

    /// Change the delta log's retention bound (minimum 1), trimming
    /// retained history immediately if it exceeds the new bound.
    pub fn set_delta_log_capacity(&mut self, max_entries: usize) {
        self.deltas.set_capacity(max_entries);
    }

    /// Apply one replicated delta sealed by a primary at `to_version`.
    ///
    /// This is the replica-side write path: the raw [`crate::RowChange`]s are
    /// patched into the stored tables (CoW-shared tables split here, not
    /// on the read path), the version adopts the primary's, and the delta
    /// is appended to the local chain so graph consumers patch forward
    /// with [`crate::ProvGraph::apply_delta`] exactly as they would after
    /// a local write. No exchange runs — the delta already carries the
    /// fixpoint the primary computed.
    ///
    /// Fails without modifying anything when the delta is not contiguous
    /// with the local version (`to_version != version + 1`) or was
    /// op-overflowed at the primary; the caller must then fall back to a
    /// snapshot transfer.
    pub fn apply_replica_delta(&mut self, to_version: u64, delta: &GraphDelta) -> Result<()> {
        if to_version != self.version + 1 {
            return Err(Error::Other(format!(
                "replica delta gap: local version {} cannot apply delta sealing version {}",
                self.version, to_version
            )));
        }
        if delta.is_overflowed() {
            return Err(Error::Other(format!(
                "replica delta for version {to_version} overflowed at the primary; \
                 snapshot transfer required"
            )));
        }
        for rc in &delta.rows {
            let table = self.db.table_mut(&rc.table)?;
            if rc.added {
                table.insert(rc.row.clone())?;
            } else {
                let key = table.schema().key_of(&rc.row);
                table.delete_by_key(&key);
            }
        }
        self.version = to_version;
        self.staged = GraphDelta::default();
        self.deltas.push(to_version, delta.clone());
        self.pending_exchange.clear();
        self.at_fixpoint = true;
        Ok(())
    }

    /// Full contents of every stored table — the payload of a replication
    /// snapshot transfer.
    pub fn snapshot_tables(&self) -> Vec<(String, Vec<Tuple>)> {
        let mut names: Vec<String> = self.db.table_names().map(|s| s.to_string()).collect();
        names.sort();
        names
            .into_iter()
            .filter_map(|n| {
                let rows = self.db.table(&n).ok()?.scan();
                Some((n, rows))
            })
            .collect()
    }

    /// Replace every stored table's contents with a primary's snapshot and
    /// adopt its `version`. The delta chain restarts at `version` (the
    /// replica can stream contiguously from here); graph consumers rebuild
    /// once. The schema and mapping program are **not** shipped — replicas
    /// bootstrap them identically and only the data is transferred; a
    /// snapshot naming an unknown table is an error.
    pub fn install_snapshot(
        &mut self,
        version: u64,
        tables: &[(String, Vec<Tuple>)],
    ) -> Result<()> {
        for (name, _) in tables {
            self.db.table(name)?; // validate before mutating anything
        }
        for (name, rows) in tables {
            let table = self.db.table_mut(name)?;
            table.truncate();
            for row in rows {
                table.insert(row.clone())?;
            }
        }
        self.version = version;
        self.staged = GraphDelta::default();
        self.deltas.reset(version);
        self.pending_exchange.clear();
        self.exchanged = true;
        self.at_fixpoint = true;
        Ok(())
    }

    /// Register a public relation together with its local-contribution table
    /// (named `{name}_l`) and the copying rule `L_{name}` (the paper's
    /// `L1..L4` rules).
    pub fn add_relation_with_local(&mut self, schema: Schema) -> Result<()> {
        let name = schema.name().to_string();
        let local = format!("{name}{LOCAL_SUFFIX}");
        self.bump_untracked();
        self.db.create_table(schema.clone())?;
        self.db.create_table(schema.renamed(&local))?;
        Arc::make_mut(&mut self.mappings)
            .local_rels
            .insert(local.clone());
        let vars: Vec<String> = (0..schema.arity()).map(|i| format!("x{i}")).collect();
        let rule = parse_rule(&format!(
            "L_{name}: {name}({args}) :- {local}({args})",
            args = vars.join(", ")
        ))?;
        self.register_mapping(rule)
    }

    /// Register a public relation with no local contributions (a purely
    /// derived relation).
    pub fn add_relation(&mut self, schema: Schema) -> Result<()> {
        self.bump_untracked();
        self.db.create_table(schema)
    }

    /// Register a schema mapping from its paper-style text form, e.g.
    /// `"m5: O(n, h, true) :- A(i, _, h), C(i, n)"`.
    pub fn add_mapping_text(&mut self, text: &str) -> Result<()> {
        self.register_mapping(parse_rule(text)?)
    }

    /// Register a schema mapping.
    pub fn add_mapping(&mut self, rule: Rule) -> Result<()> {
        self.register_mapping(rule)
    }

    fn register_mapping(&mut self, rule: Rule) -> Result<()> {
        if self.exchanged {
            return Err(Error::Other(
                "cannot add mappings after exchange has run".into(),
            ));
        }
        let spec = spec_for_rule(&self.db, &rule)?;
        if self.spec_for(&spec.mapping).is_some() {
            return Err(Error::AlreadyExists(format!("mapping {}", spec.mapping)));
        }
        create_prov_relation(&mut self.db, &spec, &rule)?;
        let mappings = Arc::make_mut(&mut self.mappings);
        if spec.superfluous {
            match SuperfluousMatcher::build(&spec, &rule) {
                Some(m) => mappings.matchers.push(m),
                // No row-level matcher ⇒ deltas for this mapping cannot be
                // captured; fall back to full rebuilds forever.
                None => self.trackable = false,
            }
        }
        mappings.specs.push(spec);
        let local = rule.name.as_ref().is_some_and(|n| n.starts_with("L_"));
        mappings.schema.add_rule(&rule, local);
        mappings.program.rules.push(rule);
        self.bump_untracked();
        Ok(())
    }

    /// Insert a tuple into a relation's local-contribution table.
    pub fn insert_local(&mut self, relation: &str, tuple: Tuple) -> Result<bool> {
        let local = format!("{relation}{LOCAL_SUFFIX}");
        if !self.mappings.local_rels.contains(&local) {
            return Err(Error::NotFound(format!(
                "relation {relation} has no local-contribution table"
            )));
        }
        let inserted = self.db.insert(&local, tuple.clone())?;
        // A duplicate insert is a no-op under set semantics: nothing
        // changed, so version-checked caches stay valid.
        if inserted {
            record_row_change(
                &self.db,
                &self.mappings,
                &mut self.staged,
                &local,
                &tuple,
                true,
            );
            self.pending_exchange.push((local, tuple));
            self.seal_delta();
        }
        Ok(inserted)
    }

    /// Delete one row from a base table, staging the graph-delta ops and
    /// write-set entry it implies. Does **not** bump the version: callers
    /// performing a multi-step mutation (CDSS deletion propagation) batch
    /// any number of tracked deletes and then seal once with
    /// [`ProvenanceSystem::commit_tracked_mutation`].
    pub fn delete_row_tracked(&mut self, table: &str, key: &Tuple) -> Result<Option<Tuple>> {
        let Some(removed) = self.db.table_mut(table)?.delete_by_key(key) else {
            return Ok(None);
        };
        // A pending incremental-exchange seed for this exact row must die
        // with it, or the next seeded exchange would derive from a local
        // row that no longer exists.
        self.pending_exchange
            .retain(|(rel, row)| !(rel == table && row == &removed));
        // A bare row deletion invalidates the fixpoint assumption the
        // seeded exchange relies on: a full bootstrap would re-derive a
        // still-derivable row, a seeded one would not. CDSS deletion
        // garbage-collects exactly the underivable rows and re-asserts
        // the fixpoint when its cascade completes cleanly.
        self.at_fixpoint = false;
        record_row_change(
            &self.db,
            &self.mappings,
            &mut self.staged,
            table,
            &removed,
            false,
        );
        Ok(Some(removed))
    }

    /// The write set staged by the tracked mutation currently in progress
    /// (sealed — and cleared — by
    /// [`ProvenanceSystem::commit_tracked_mutation`]).
    pub fn staged_write_set(&self) -> BTreeSet<String> {
        self.staged.touched.clone()
    }

    /// The provenance rows `row` contributes to superfluous (view-backed)
    /// provenance relations whose definition reads `table`, as
    /// `(mapping, view row)` pairs. CDSS deletion uses this to mask the
    /// seed's `+` derivations out of a cached graph instead of rebuilding.
    pub fn superfluous_prov_rows(&self, table: &str, row: &Tuple) -> Vec<(String, Tuple)> {
        self.mappings
            .matchers
            .iter()
            .filter(|m| m.body_rel == table)
            .filter_map(|m| m.project(row).map(|r| (m.mapping.clone(), r)))
            .collect()
    }

    /// Run data exchange: evaluate all mappings to fixpoint, recording
    /// provenance. Can be called repeatedly (e.g. after more local
    /// inserts). Once a fixpoint exists, later rounds are **incremental**:
    /// semi-naive evaluation is seeded with only the local rows inserted
    /// since the previous exchange, so a point write's exchange touches
    /// what it derives, not the whole database.
    pub fn run_exchange(&mut self) -> Result<EvalStats> {
        let mut hook = ProvenanceHook {
            mappings: &self.mappings,
            staged: GraphDelta::default(),
        };
        let seeds = if self.exchanged && self.at_fixpoint {
            let mut by_rel: HashMap<String, Vec<Tuple>> = HashMap::new();
            for (rel, row) in self.pending_exchange.drain(..) {
                by_rel.entry(rel).or_default().push(row);
            }
            Some(by_rel)
        } else {
            self.pending_exchange.clear();
            None
        };
        let result = match seeds {
            Some(seeds) => {
                run_program_seeded(&mut self.db, &self.mappings.program, &mut hook, seeds)
            }
            None => run_program(&mut self.db, &self.mappings.program, &mut hook),
        };
        let hook_staged = hook.staged;
        self.staged.ops.extend(hook_staged.ops);
        self.staged.rows.extend(hook_staged.rows);
        self.staged.touched.extend(hook_staged.touched);
        if hook_staged.overflowed {
            // The hook dropped records; the merged entry is incomplete and
            // must reset the chain when sealed.
            self.staged.overflowed = true;
        }
        match result {
            Ok(stats) => {
                self.exchanged = true;
                self.at_fixpoint = true;
                self.seal_delta();
                Ok(stats)
            }
            Err(e) => {
                // Partial head insertions may have landed; the staged ops
                // cannot be trusted to describe them exactly, so bump and
                // break the chain (consumers rebuild once).
                self.bump_version();
                Err(e)
            }
        }
    }

    /// The mapping program (local rules + schema mappings).
    pub fn program(&self) -> &Program {
        &self.mappings.program
    }

    /// All provenance specs, parallel to `program().rules`.
    pub fn specs(&self) -> &[ProvSpec] {
        &self.mappings.specs
    }

    /// The spec of a mapping by name.
    pub fn spec_for(&self, mapping: &str) -> Option<&ProvSpec> {
        self.mappings.specs.iter().find(|s| s.mapping == mapping)
    }

    /// The rule of a mapping by name.
    pub fn rule_for(&self, mapping: &str) -> Option<&Rule> {
        self.mappings.program.rule_named(mapping)
    }

    /// True iff `relation` is a local-contribution table.
    pub fn is_local_relation(&self, relation: &str) -> bool {
        self.mappings.local_rels.contains(relation)
    }

    /// Local-contribution table name of a public relation, if registered.
    pub fn local_of(&self, relation: &str) -> Option<String> {
        let local = format!("{relation}{LOCAL_SUFFIX}");
        self.mappings.local_rels.contains(&local).then_some(local)
    }

    /// The provenance schema graph (Figure 3) of this system's mappings.
    pub fn schema_graph(&self) -> &SchemaGraph {
        &self.mappings.schema
    }

    /// Names of all public relations that have local tables.
    pub fn relations_with_locals(&self) -> Vec<String> {
        self.mappings
            .local_rels
            .iter()
            .map(|l| l.trim_end_matches(LOCAL_SUFFIX).to_string())
            .collect()
    }

    /// A clone with **no** shared table storage (the old O(database)
    /// write-path clone, as opposed to the O(#relations) copy-on-write
    /// [`Clone`]). `bench_e2e`'s oracle recomputes answers on one, so
    /// they share no storage with the served snapshot.
    pub fn deep_clone(&self) -> ProvenanceSystem {
        let mut out = self.clone();
        out.db = self.db.deep_clone();
        out
    }

    /// Total provenance rows stored (materialized `P_m` tables only; views
    /// contribute zero storage — that is the point of superfluity).
    pub fn provenance_rows(&self) -> usize {
        self.mappings
            .specs
            .iter()
            .filter(|s| !s.superfluous)
            .filter_map(|s| self.db.table(&s.prov_rel).ok())
            .map(|t| t.len())
            .sum()
    }
}

/// Row-level compilation of a superfluous provenance view: decides whether
/// a base-table row qualifies under the single body atom's constants and
/// repeated variables, and projects it onto the spec's columns.
#[derive(Debug, Clone)]
struct SuperfluousMatcher {
    mapping: String,
    body_rel: String,
    /// `(position, constant)` equality requirements.
    consts: Vec<(usize, Value)>,
    /// Repeated-variable equality requirements `(first, other)`.
    eqs: Vec<(usize, usize)>,
    /// For each spec column: the body position holding its value.
    cols: Vec<usize>,
}

impl SuperfluousMatcher {
    fn build(spec: &ProvSpec, rule: &Rule) -> Option<SuperfluousMatcher> {
        let atom = rule.body.first()?;
        let mut first_pos: HashMap<&str, usize> = HashMap::new();
        let mut consts = Vec::new();
        let mut eqs = Vec::new();
        for (i, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(v) => consts.push((i, v.clone())),
                Term::Var(v) => {
                    if let Some(&p) = first_pos.get(v.as_str()) {
                        eqs.push((p, i));
                    } else {
                        first_pos.insert(v, i);
                    }
                }
                Term::Skolem(..) => return None,
            }
        }
        let cols = spec
            .columns
            .iter()
            .map(|c| first_pos.get(c.as_str()).copied())
            .collect::<Option<Vec<_>>>()?;
        Some(SuperfluousMatcher {
            mapping: spec.mapping.clone(),
            body_rel: atom.relation.clone(),
            consts,
            eqs,
            cols,
        })
    }

    /// The view row `row` contributes, or `None` when it does not qualify.
    fn project(&self, row: &Tuple) -> Option<Tuple> {
        for (i, v) in &self.consts {
            if row.try_get(*i) != Some(v) {
                return None;
            }
        }
        for (a, b) in &self.eqs {
            if row.try_get(*a) != row.try_get(*b) {
                return None;
            }
        }
        Some(Tuple::new(
            self.cols.iter().map(|&i| row.get(i).clone()).collect(),
        ))
    }
}

/// Stage the graph-delta ops implied by one base-table row change:
/// materialized provenance rows map to derivation ops directly, rows of
/// tables read by superfluous views map through the matchers, and public
/// rows additionally refresh their tuple node's resolved values.
fn record_row_change(
    db: &Database,
    mappings: &Mappings,
    staged: &mut GraphDelta,
    table: &str,
    row: &Tuple,
    added: bool,
) {
    staged.touched.insert(table.to_string());
    // The raw row-level record: what incremental view maintenance seeds
    // delta evaluation with. Recorded for every stored-table change —
    // graph ops below only cover the decoded provenance graph.
    staged.push_row(table, row, added);
    let make = |mapping: &str, row: Tuple| -> DeltaOp {
        if added {
            DeltaOp::AddDerivation {
                mapping: mapping.to_string(),
                row,
            }
        } else {
            DeltaOp::RemoveDerivation {
                mapping: mapping.to_string(),
                row,
            }
        }
    };
    let mut is_prov = false;
    if let Some(spec) = mappings
        .specs
        .iter()
        .find(|s| !s.superfluous && s.prov_rel == table)
    {
        is_prov = true;
        staged.push_op(make(&spec.mapping, row.clone()));
    }
    for m in mappings.matchers.iter().filter(|m| m.body_rel == table) {
        if let Some(prow) = m.project(row) {
            staged.push_op(make(&m.mapping, prow));
        }
    }
    if !is_prov && !mappings.local_rels.contains(table) {
        if let Ok(t) = db.table(table) {
            staged.push_op(DeltaOp::SetValues {
                relation: table.to_string(),
                key: t.schema().key_of(row),
            });
        }
    }
}

/// The firing hook: one provenance row per firing of a non-superfluous
/// mapping, plus delta capture — newly inserted head tuples and provenance
/// rows are staged as graph-delta ops. Idempotent because provenance
/// relations are keyed on all columns.
struct ProvenanceHook<'a> {
    mappings: &'a Mappings,
    staged: GraphDelta,
}

impl FiringHook for ProvenanceHook<'_> {
    fn on_firing(
        &mut self,
        db: &mut Database,
        rule_index: usize,
        rule: &Rule,
        bindings: &Bindings<'_>,
    ) -> Result<()> {
        // Head tuples the evaluator is about to insert: the hook runs just
        // before the insertion, so "key absent now" means "this firing adds
        // the row" (set semantics; the first writer wins).
        for h in &rule.heads {
            let tuple = bindings.instantiate(h)?;
            let t = db.table(&h.relation)?;
            if t.schema().check(&tuple).is_ok()
                && t.get_by_key(&t.schema().key_of(&tuple)).is_none()
            {
                record_row_change(
                    db,
                    self.mappings,
                    &mut self.staged,
                    &h.relation,
                    &tuple,
                    true,
                );
            }
        }
        let spec = &self.mappings.specs[rule_index];
        if spec.superfluous {
            return Ok(()); // the view covers it
        }
        let mut vals = Vec::with_capacity(spec.columns.len());
        for var in &spec.columns {
            vals.push(bindings.get(var)?.clone());
        }
        let row = Tuple::new(vals);
        if db.table_mut(&spec.prov_rel)?.insert(row.clone())? {
            record_row_change(
                db,
                self.mappings,
                &mut self.staged,
                &spec.prov_rel,
                &row,
                true,
            );
        }
        Ok(())
    }
}

/// Build the complete running example of the paper (Example 2.1 + Figure 1):
/// relations `A`, `C`, `N`, `O` with local tables, mappings `m1..m5`, and
/// the base data of Figure 1, exchanged with provenance.
///
/// Used by tests, examples, and the Table 1 bench.
pub fn example_2_1() -> Result<ProvenanceSystem> {
    example_2_1_with_island(0)
}

/// [`example_2_1`] plus one disconnected family when `island_size > 0`:
/// `Island(k, v)` with `island_size` local rows, feeding `IslandOut`
/// through the mapping `misl`. Nothing the example's relations derive
/// from reads the island.
pub fn example_2_1_with_island(island_size: usize) -> Result<ProvenanceSystem> {
    use proql_common::ValueType::*;
    let mut sys = ProvenanceSystem::new();
    sys.add_relation_with_local(Schema::build(
        "A",
        &[("id", Int), ("sn", Str), ("len", Int)],
        &[0],
    )?)?;
    sys.add_relation_with_local(Schema::build("C", &[("id", Int), ("name", Str)], &[0, 1])?)?;
    sys.add_relation_with_local(Schema::build(
        "N",
        &[("id", Int), ("name", Str), ("canon", Bool)],
        &[0, 1],
    )?)?;
    sys.add_relation_with_local(Schema::build(
        "O",
        &[("name", Str), ("h", Int), ("animal", Bool)],
        &[0],
    )?)?;
    sys.add_mapping_text("m1: C(i, n) :- A(i, s, _), N(i, n, false)")?;
    sys.add_mapping_text("m2: N(i, n, true) :- A(i, n, _)")?;
    sys.add_mapping_text("m3: N(i, n, false) :- C(i, n)")?;
    sys.add_mapping_text("m4: O(n, h, true) :- A(i, n, h)")?;
    sys.add_mapping_text("m5: O(n, h, true) :- A(i, _, h), C(i, n)")?;
    if island_size > 0 {
        for name in ["Island", "IslandOut"] {
            sys.add_relation_with_local(Schema::build(name, &[("k", Int), ("v", Int)], &[0])?)?;
        }
        sys.add_mapping_text("misl: IslandOut(k, v) :- Island(k, v)")?;
        for k in 0..island_size as i64 {
            sys.insert_local("Island", proql_common::tup![k, k * 7])?;
        }
    }

    // Base data of Figure 1 (boldface tuples).
    use proql_common::tup;
    sys.insert_local("A", tup![1, "sn1", 7])?;
    sys.insert_local("A", tup![2, "sn2", 5])?;
    sys.insert_local("N", tup![1, "cn1", false])?;
    sys.insert_local("C", tup![2, "cn2"])?;
    sys.run_exchange()?;
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql_common::tup;
    use proql_storage::{execute, Plan};

    #[test]
    fn example_exchange_materializes_views() {
        let sys = example_2_1().unwrap();
        // O receives sn1/sn2 via m4 and cn1/cn2 via m5.
        let o = sys.db.table("O").unwrap();
        assert!(o.contains(&tup!["sn1", 7, true]));
        assert!(o.contains(&tup!["sn2", 5, true]));
        assert!(o.contains(&tup!["cn1", 7, true]));
        assert!(o.contains(&tup!["cn2", 5, true]));
        // N gets canonical names via m2 and non-canonical via m3.
        let n = sys.db.table("N").unwrap();
        assert!(n.contains(&tup![1, "sn1", true]));
        assert!(n.contains(&tup![1, "cn1", false]));
        assert!(n.contains(&tup![2, "cn2", false]));
        // C gets cn1 via m1 (A(1) join N(1,cn1,false)).
        let c = sys.db.table("C").unwrap();
        assert!(c.contains(&tup![1, "cn1"]));
        assert!(c.contains(&tup![2, "cn2"]));
    }

    #[test]
    fn a_write_clone_shares_mappings_until_ddl() {
        let sys = example_2_1().unwrap();
        let mut copy = sys.clone();
        copy.insert_local("A", tup![9, "sn9", 4]).unwrap();
        copy.run_exchange().unwrap();
        assert!(Arc::ptr_eq(&sys.mappings, &copy.mappings));
        // DDL on a clone splits it off; the original keeps its program.
        let mut ddl = ProvenanceSystem::new();
        ddl.add_relation_with_local(sys.db.table("A").unwrap().schema().renamed("Z"))
            .unwrap();
        let before = ddl.clone();
        ddl.add_relation_with_local(sys.db.table("A").unwrap().schema().renamed("W"))
            .unwrap();
        assert!(!Arc::ptr_eq(&before.mappings, &ddl.mappings));
        assert_eq!(before.program().rules.len(), 1);
        assert_eq!(ddl.program().rules.len(), 2);
    }

    #[test]
    fn provenance_relations_match_figure_2() {
        let sys = example_2_1().unwrap();
        // P_m1 and P_m5 are materialized; P_m2/P_m3/P_m4 are views.
        assert!(sys.db.has_table("P_m1"));
        assert!(sys.db.has_table("P_m5"));
        assert!(!sys.db.has_table("P_m2"));
        assert!(sys.db.has_relation("P_m2"));
        let p1 = execute(&sys.db, &Plan::scan("P_m1")).unwrap();
        assert_eq!(p1.sorted_rows(), vec![tup![1, "cn1"], tup![2, "cn2"]]);
        let p5 = execute(&sys.db, &Plan::scan("P_m5")).unwrap();
        assert_eq!(p5.sorted_rows(), vec![tup![1, "cn1"], tup![2, "cn2"]]);
    }

    #[test]
    fn local_rules_are_superfluous_views() {
        let sys = example_2_1().unwrap();
        assert!(sys.db.has_relation("P_L_A"));
        assert!(!sys.db.has_table("P_L_A"));
        let pla = execute(&sys.db, &Plan::scan("P_L_A")).unwrap();
        assert_eq!(pla.len(), 2); // two locally inserted A tuples
    }

    #[test]
    fn exchange_is_idempotent() {
        let mut sys = example_2_1().unwrap();
        let before = sys.db.total_rows();
        let stats = sys.run_exchange().unwrap();
        assert_eq!(stats.inserted, 0);
        assert_eq!(sys.db.total_rows(), before);
    }

    #[test]
    fn incremental_local_insert_propagates() {
        let mut sys = example_2_1().unwrap();
        sys.insert_local("A", tup![3, "sn3", 9]).unwrap();
        sys.run_exchange().unwrap();
        assert!(sys.db.table("O").unwrap().contains(&tup!["sn3", 9, true]));
    }

    #[test]
    fn incremental_exchange_matches_full_bootstrap() {
        // The incremental (seeded) exchange must reach exactly the state a
        // full re-bootstrap reaches — including through the m1/m3 cycle.
        let mut inc = example_2_1().unwrap();
        let mut full = example_2_1().unwrap();
        for t in [tup![3, "sn3", 9], tup![4, "sn4", 9]] {
            inc.insert_local("A", t.clone()).unwrap();
            full.insert_local("A", t).unwrap();
        }
        inc.insert_local("N", tup![3, "cn3", false]).unwrap();
        full.insert_local("N", tup![3, "cn3", false]).unwrap();
        inc.run_exchange().unwrap(); // seeded with the three new rows
        full.bump_version(); // chain break ⇒ full bootstrap
        full.run_exchange().unwrap();
        for rel in ["A", "C", "N", "O", "P_m1", "P_m5"] {
            let a = execute(&inc.db, &Plan::scan(rel)).unwrap().sorted_rows();
            let b = execute(&full.db, &Plan::scan(rel)).unwrap().sorted_rows();
            assert_eq!(a, b, "relation {rel} diverged");
        }
    }

    #[test]
    fn tracked_delete_disables_seeded_exchange() {
        // Deleting a still-derivable PUBLIC row outside the CDSS cascade
        // leaves the instance below the fixpoint: the next exchange must
        // bootstrap fully and re-derive it (a seeded run would not).
        let mut sys = example_2_1().unwrap();
        let key = tup!["sn1"];
        assert!(sys.db.table("O").unwrap().get_by_key(&key).is_some());
        sys.delete_row_tracked("O", &key).unwrap().unwrap();
        sys.commit_tracked_mutation();
        sys.insert_local("A", tup![9, "sn9", 4]).unwrap();
        sys.run_exchange().unwrap();
        assert!(
            sys.db.table("O").unwrap().get_by_key(&key).is_some(),
            "the exchange after a bare tracked delete must re-derive"
        );
    }

    #[test]
    fn duplicate_mapping_name_rejected() {
        let mut sys = example_2_1().unwrap();
        // Already exchanged: adding mappings is rejected outright.
        assert!(sys
            .add_mapping_text("m1: C(i, n) :- N(i, n, false)")
            .is_err());
    }

    #[test]
    fn insert_local_requires_local_table() {
        let mut sys = ProvenanceSystem::new();
        sys.add_relation(
            Schema::build("X", &[("id", proql_common::ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        assert!(sys.insert_local("X", tup![1]).is_err());
    }

    #[test]
    fn provenance_rows_counts_materialized_only() {
        let sys = example_2_1().unwrap();
        // P_m1 has 2 rows, P_m5 has 2 rows; views don't count.
        assert_eq!(sys.provenance_rows(), 4);
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut sys = ProvenanceSystem::new();
        assert_eq!(sys.version(), 0);
        sys.add_relation_with_local(
            Schema::build("X", &[("id", proql_common::ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
        let after_schema = sys.version();
        assert!(after_schema > 0);
        sys.insert_local("X", tup![1]).unwrap();
        let after_insert = sys.version();
        assert!(after_insert > after_schema);
        sys.run_exchange().unwrap();
        let after_exchange = sys.version();
        assert!(after_exchange > after_insert);
        sys.bump_version();
        assert_eq!(sys.version(), after_exchange + 1);
        // Clones carry the version.
        assert_eq!(sys.clone().version(), sys.version());
    }

    #[test]
    fn deltas_cover_tracked_mutations_only() {
        let mut sys = example_2_1().unwrap();
        let v0 = sys.version();
        sys.insert_local("A", tup![7, "sn7", 3]).unwrap();
        sys.run_exchange().unwrap();
        let v1 = sys.version();
        assert_eq!(v1, v0 + 2, "insert + exchange seal one entry each");
        let entries: Vec<_> = sys.delta_entries(v0, v1).unwrap().collect();
        assert_eq!(entries.len(), 2);
        // The insert's entry carries the local base derivation.
        assert!(entries[0]
            .ops
            .iter()
            .any(|op| matches!(op, DeltaOp::AddDerivation { mapping, .. } if mapping == "L_A")));
        assert!(entries[0].touched.contains("A_l"));
        // The exchange's entry touches the public tables it filled.
        assert!(entries[1].touched.contains("A"));
        assert!(entries[1].touched.contains("O"));
        // Write sets ride the same entries.
        let ws = sys.write_set_since(v0).unwrap();
        assert!(ws.contains("A_l") && ws.contains("O"));
        // An untracked bump breaks the chain.
        sys.bump_version();
        assert!(sys.delta_entries(v0, sys.version()).is_none());
        assert!(sys.write_set_since(v0).is_none());
        assert!(sys.delta_entries(sys.version(), sys.version()).is_some());
    }

    #[test]
    fn deltas_record_raw_row_changes() {
        let mut sys = example_2_1().unwrap();
        let v0 = sys.version();
        sys.insert_local("A", tup![7, "sn7", 3]).unwrap();
        sys.run_exchange().unwrap();
        let v1 = sys.version();
        let entries: Vec<_> = sys.delta_entries(v0, v1).unwrap().collect();
        // The insert's entry carries the raw local row.
        assert!(entries[0]
            .rows
            .iter()
            .any(|r| r.table == "A_l" && r.row == tup![7, "sn7", 3] && r.added));
        // The exchange's entry carries the public rows it derived, plus the
        // materialized provenance rows.
        assert!(entries[1]
            .rows
            .iter()
            .any(|r| r.table == "A" && r.row == tup![7, "sn7", 3] && r.added));
        assert!(entries[1].rows.iter().any(|r| r.table == "O" && r.added));
        // Tracked deletes stage removals.
        let v2 = sys.version();
        sys.delete_row_tracked("A_l", &tup![7]).unwrap().unwrap();
        sys.commit_tracked_mutation();
        let entries: Vec<_> = sys.delta_entries(v2, sys.version()).unwrap().collect();
        assert!(entries[0]
            .rows
            .iter()
            .any(|r| r.table == "A_l" && r.row == tup![7, "sn7", 3] && !r.added));
    }

    #[test]
    fn tracked_delete_stages_until_committed() {
        let mut sys = example_2_1().unwrap();
        let v0 = sys.version();
        let removed = sys.delete_row_tracked("A_l", &tup![1]).unwrap().unwrap();
        assert_eq!(removed, tup![1, "sn1", 7]);
        assert_eq!(sys.version(), v0, "tracked deletes do not bump eagerly");
        assert!(sys.commit_tracked_mutation());
        assert_eq!(sys.version(), v0 + 1);
        let entries: Vec<_> = sys.delta_entries(v0, v0 + 1).unwrap().collect();
        assert!(entries[0]
            .ops
            .iter()
            .any(|op| matches!(op, DeltaOp::RemoveDerivation { mapping, .. } if mapping == "L_A")));
        // Nothing staged ⇒ no bump.
        assert!(!sys.commit_tracked_mutation());
        assert_eq!(sys.version(), v0 + 1);
        // Deleting a missing row stages nothing.
        assert!(sys.delete_row_tracked("A_l", &tup![99]).unwrap().is_none());
        assert!(!sys.commit_tracked_mutation());
    }

    #[test]
    fn superfluous_rows_projected_through_matchers() {
        let sys = example_2_1().unwrap();
        // m4: O(n, h, true) :- A(i, n, h) — P_m4 columns are (i, n, h)?
        // Columns are the distinct key vars: A's key (i), O's key (n).
        let rows = sys.superfluous_prov_rows("A", &tup![1, "sn1", 7]);
        assert!(rows.iter().any(|(m, _)| m == "m4"));
        assert!(rows.iter().any(|(m, _)| m == "m2"));
        // Local table rows feed the L_A view.
        let rows = sys.superfluous_prov_rows("A_l", &tup![1, "sn1", 7]);
        assert!(rows.iter().any(|(m, _)| m == "L_A"));
        // m3 reads C: every C row qualifies (projection on its key).
        let rows = sys.superfluous_prov_rows("C", &tup![2, "cn2"]);
        assert!(rows.iter().any(|(m, r)| m == "m3" && *r == tup![2, "cn2"]));

        // Constant filters in the body atom gate the projection.
        let mut sys = ProvenanceSystem::new();
        use proql_common::ValueType::*;
        sys.add_relation_with_local(
            Schema::build("N2", &[("id", Int), ("canon", Bool)], &[0]).unwrap(),
        )
        .unwrap();
        sys.add_relation(Schema::build("X", &[("id", Int)], &[0]).unwrap())
            .unwrap();
        sys.add_mapping_text("mc: X(i) :- N2(i, false)").unwrap();
        assert!(!sys
            .superfluous_prov_rows("N2", &tup![1, true])
            .iter()
            .any(|(m, _)| m == "mc"));
        assert!(sys
            .superfluous_prov_rows("N2", &tup![1, false])
            .iter()
            .any(|(m, _)| m == "mc"));
    }

    #[test]
    fn spec_and_rule_lookup() {
        let sys = example_2_1().unwrap();
        assert!(sys.spec_for("m5").is_some());
        assert!(sys.rule_for("m5").is_some());
        assert!(sys.spec_for("m99").is_none());
        assert!(sys.is_local_relation("A_l"));
        assert_eq!(sys.local_of("A"), Some("A_l".into()));
        assert_eq!(sys.local_of("P_m1"), None);
    }

    #[test]
    fn cow_clone_shares_until_written() {
        let sys = example_2_1().unwrap();
        let mut snap = sys.clone();
        assert!(sys.db.shares_table_storage(&snap.db, "A"));
        snap.insert_local("A", tup![9, "sn9", 1]).unwrap();
        assert!(!sys.db.shares_table_storage(&snap.db, "A_l"));
        assert!(sys.db.shares_table_storage(&snap.db, "O"));
        let deep = sys.deep_clone();
        assert!(!sys.db.shares_table_storage(&deep.db, "O"));
    }
}
