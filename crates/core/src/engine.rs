//! The ProQL engine: parse → **prepare** (translate + optimize) →
//! **execute** → annotate.
//!
//! Preparation and execution are split: [`Engine::prepare`] produces a
//! [`PreparedQuery`] — the parsed AST, every unfolded rule's optimized
//! plan, and the query's read set — and [`Engine::execute`] runs it.
//! A `PreparedQuery` is plain data (no references into the engine), so a
//! query service can cache it and execute it against later snapshots:
//! plans never affect correctness, only cost. The one data-dependent
//! part of a translation is goal-directed pruning of alternatives through
//! empty relations; those relations are in the read set, and a row in any
//! of them moves the fingerprint stamp. The stamps therefore say when
//! reuse stops being cost-optimal, or stops being complete.

use crate::annotate::{run_annotation_opts, AnnotatedResult};
use crate::ast::Query;
use crate::exec::{
    graph_pattern, prepare_rules, run_projection_graph, run_projection_prepared,
    run_projection_prepared_profiled, PreparedRule, ProjectionResult,
};
use crate::parser::parse_query;
use crate::translate::{translate, BodyRewriter, TranslateOptions, TranslateStats, Translation};
use proql_common::sync::{read_lock, write_lock};
use proql_common::{trace, Parallelism, Result};
use proql_provgraph::{ProvGraph, ProvenanceSystem};
use proql_storage::{
    explain::{explain_tree, explain_tree_analyzed},
    optimize::estimate_rows,
    ExecMode, OpStat,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Which execution strategy to use for graph projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Choose automatically: the paper's unfold-to-SQL strategy for acyclic
    /// mapping topologies, the bottom-up graph walk for cyclic ones.
    #[default]
    Auto,
    /// Always unfold into conjunctive queries (paper §4.2; acyclic focus).
    ///
    /// Unfolding never repeats a mapping along one branch, so on a cyclic
    /// schema it returns a subset of the graph walk's derivations: a
    /// derivation that needs a mapping twice on one path (for example
    /// `m3` in `FOR [O $x] INCLUDE PATH [$x] <-+ []` over Example 2.1) is
    /// missing. `Graph`, and `Auto` on cyclic schemas, serve the full
    /// fixpoint.
    Unfold,
    /// Always walk the materialized provenance graph bottom-up (the
    /// alternative scheme sketched in the paper's §8; handles cycles).
    Graph,
}

/// Engine configuration.
#[derive(Clone)]
pub struct EngineOptions {
    /// Execution strategy.
    pub strategy: Strategy,
    /// Plan executor for the unfold strategy: the columnar batch pipeline
    /// (default), or the row-at-a-time hash-join / nested-loop baselines
    /// kept for equivalence testing and ablation benchmarks.
    pub exec_mode: ExecMode,
    /// Morsel-driven parallelism for plan execution and annotation
    /// evaluation. Defaults to the `PROQL_THREADS` environment variable
    /// (serial when unset), and is guaranteed result-identical to
    /// [`Parallelism::Serial`] at every setting.
    pub parallelism: Parallelism,
    /// Unfolding limits.
    pub translate: TranslateOptions,
    /// Optional rule rewriter (ASR optimization plugs in here).
    pub rewriter: Option<Arc<dyn BodyRewriter + Send + Sync>>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            strategy: Strategy::default(),
            exec_mode: ExecMode::default(),
            parallelism: Parallelism::from_env(),
            translate: TranslateOptions::default(),
            rewriter: None,
        }
    }
}

impl std::fmt::Debug for EngineOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineOptions")
            .field("strategy", &self.strategy)
            .field("exec_mode", &self.exec_mode)
            .field("parallelism", &self.parallelism)
            .field("translate", &self.translate)
            .field("rewriter", &self.rewriter.as_ref().map(|_| "<dyn>"))
            .finish()
    }
}

/// Timing and size statistics of one query execution — the quantities the
/// paper's experiments report (unfolding time, evaluation time, number of
/// unfolded rules).
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Time spent matching + unfolding (the paper's "unfolding time").
    pub unfold_time: Duration,
    /// Time spent executing plans (the paper's "evaluation time").
    pub eval_time: Duration,
    /// Unfolded-rule statistics.
    pub translate: TranslateStats,
    /// Join operators across all executed plans.
    pub total_joins: usize,
    /// Bytes of generated SQL.
    pub sql_bytes: usize,
}

/// The output of [`Engine::query`].
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The projected subgraph and bindings.
    pub projection: ProjectionResult,
    /// The annotation computation result, when the query had an
    /// `EVALUATE` wrapper.
    pub annotated: Option<AnnotatedResult>,
    /// Statistics.
    pub stats: QueryStats,
    /// Every relation (base table or view, expanded down to the base
    /// tables views read) whose contents this query's answer depends on.
    /// The query service's result cache keeps a cached answer alive
    /// exactly until a write touches one of these.
    pub touched: BTreeSet<String>,
    /// `EXPLAIN` output: the chosen plans with estimated rows per
    /// operator. `Some` exactly when the query carried the `EXPLAIN`
    /// prefix (the projection is then empty).
    pub plan: Option<String>,
}

/// A query prepared once — parsed, translated, and optimized — and
/// executable many times via [`Engine::execute`].
///
/// Holds no references into the engine it was prepared on, so services
/// cache it across snapshots. Optimizer choices never change results;
/// the `stats_version` / `stats_fingerprint` stamps say when the plan
/// stops being cost-optimal and deserves re-preparation. They also cover
/// the relations unfolding pruned on because they were empty: a row in
/// one moves the fingerprint, and only then does reuse miss answers.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The parsed query.
    pub query: Query,
    /// The resolved execution strategy (`Auto` is resolved at prepare
    /// time from the schema graph, which writes cannot change).
    pub(crate) strategy: Strategy,
    /// Unfold-strategy artifacts: the translation plus one optimized plan
    /// per unfolded rule. `None` under the graph strategy.
    pub(crate) unfold: Option<PreparedUnfold>,
    /// The read set: every relation the answer depends on.
    pub touched: BTreeSet<String>,
    /// [`ProvenanceSystem::version`] at prepare time.
    pub stats_version: u64,
    /// Bucketed statistics fingerprint over the read set (see
    /// [`proql_storage::stats`]): unchanged fingerprint ⇒ the cached plan
    /// is still the plan the optimizer would pick.
    pub stats_fingerprint: u64,
    /// Time spent translating + optimizing (the paper's "unfolding time").
    pub prepare_time: Duration,
}

impl PreparedQuery {
    /// Whether executing this query on `sys` still answers it in full:
    /// false once a relation unfolding pruned on as empty has rows, when
    /// the query must be prepared again.
    pub fn complete_at(&self, sys: &ProvenanceSystem) -> bool {
        self.unfold.as_ref().is_none_or(|u| {
            u.translation
                .pruned_on
                .iter()
                .all(|r| sys.db.table(r).is_ok_and(|t| t.is_empty()))
        })
    }
}

#[derive(Debug, Clone)]
pub(crate) struct PreparedUnfold {
    pub(crate) translation: Translation,
    pub(crate) rules: Vec<PreparedRule>,
}

/// The ProQL query engine over a [`ProvenanceSystem`].
///
/// Read queries take `&self`: the lazily built provenance graph lives
/// behind interior mutability and is **version-stamped** — it is rebuilt
/// automatically whenever [`ProvenanceSystem::version`] no longer matches
/// the version it was built at, so callers that mutate `sys` between
/// queries never observe stale graph results. An `Engine` is therefore
/// `Send + Sync` and can serve many concurrent readers (see the
/// `proql-service` crate).
#[derive(Debug)]
pub struct Engine {
    /// The underlying system (database + mappings + provenance).
    pub sys: ProvenanceSystem,
    /// Configuration.
    pub options: EngineOptions,
    cached_graph: RwLock<Option<(u64, Arc<ProvGraph>)>>,
    graph_builds: AtomicU64,
    graph_patches: AtomicU64,
}

impl Engine {
    /// Wrap a provenance system with default options.
    pub fn new(sys: ProvenanceSystem) -> Self {
        Engine::with_options(sys, EngineOptions::default())
    }

    /// Wrap with options.
    pub fn with_options(sys: ProvenanceSystem, options: EngineOptions) -> Self {
        Engine {
            sys,
            options,
            cached_graph: RwLock::new(None),
            graph_builds: AtomicU64::new(0),
            graph_patches: AtomicU64::new(0),
        }
    }

    /// Parse, prepare and run a ProQL query.
    pub fn query(&self, text: &str) -> Result<QueryOutput> {
        self.execute(&self.prepare(text)?)
    }

    /// The in-memory provenance graph for the **current** system version.
    ///
    /// Built on first use and shared via `Arc`. When the system's version
    /// counter shows mutations happened since the cached graph was built,
    /// the engine prefers **patching**: if the system's delta log covers
    /// the span, the cached graph absorbs the per-mutation
    /// [`proql_provgraph::GraphDelta`]s (copy-on-write when older readers
    /// still hold it, in place otherwise) instead of being rebuilt from
    /// the relational encoding. Only a broken or trimmed delta chain —
    /// out-of-band `db` writes, schema changes, long-idle caches — falls
    /// back to a full rebuild.
    ///
    /// Concurrent callers at the same version are **coalesced**: one
    /// builds/patches while holding the cache's write lock, the rest wait
    /// and share the published `Arc`.
    pub fn graph(&self) -> Result<Arc<ProvGraph>> {
        let version = self.sys.version();
        if let Some((built_at, g)) = read_lock(&self.cached_graph).as_ref() {
            if *built_at == version {
                return Ok(Arc::clone(g));
            }
        }
        let mut slot = write_lock(&self.cached_graph);
        // Re-check under the write lock: a racing caller may have already
        // built this version while we waited (rebuild coalescing).
        if let Some((built_at, g)) = slot.as_ref() {
            if *built_at == version {
                return Ok(Arc::clone(g));
            }
        }
        let next = match slot.take() {
            Some((built_at, arc)) if self.sys.delta_entries(built_at, version).is_some() => {
                match self.patch_graph(built_at, version, arc) {
                    Ok(patched) => {
                        self.graph_patches.fetch_add(1, Ordering::Relaxed);
                        patched
                    }
                    // A delta that no longer decodes (e.g. its mapping
                    // vanished) falls back to a full rebuild.
                    Err(_) => self.build_graph()?,
                }
            }
            _ => self.build_graph()?,
        };
        *slot = Some((version, Arc::clone(&next)));
        Ok(next)
    }

    fn build_graph(&self) -> Result<Arc<ProvGraph>> {
        let _sp = trace::span("graph.build");
        self.graph_builds.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(ProvGraph::from_system(&self.sys)?))
    }

    /// Apply the delta chain `(built_at, version]` to `arc`. In-place when
    /// this engine is the only holder; copy-on-write when in-flight
    /// readers still share the graph at the old version.
    fn patch_graph(
        &self,
        built_at: u64,
        version: u64,
        mut arc: Arc<ProvGraph>,
    ) -> Result<Arc<ProvGraph>> {
        let _sp = trace::span("graph.patch");
        let g = Arc::make_mut(&mut arc);
        let entries = self
            .sys
            .delta_entries(built_at, version)
            .expect("caller checked the span");
        for entry in entries {
            g.apply_delta(&self.sys, entry)?;
        }
        g.maybe_compact();
        Ok(arc)
    }

    /// Full graph rebuilds performed (delta chain unavailable).
    pub fn graph_build_count(&self) -> u64 {
        self.graph_builds.load(Ordering::Relaxed)
    }

    /// Incremental graph patches performed (writes absorbed without a
    /// rebuild).
    pub fn graph_patch_count(&self) -> u64 {
        self.graph_patches.load(Ordering::Relaxed)
    }

    /// Steal `prev`'s cached provenance graph (with its version stamp)
    /// into this engine. The single-writer service calls this when
    /// publishing a new snapshot: the next graph query then pays a delta
    /// patch instead of a from-scratch rebuild. `prev` is left without a
    /// cached graph — if a straggling reader of the old snapshot still
    /// needs one, it rebuilds at its own version, which stays correct.
    pub fn adopt_graph_cache(&self, prev: &Engine) {
        if let Some(entry) = write_lock(&prev.cached_graph).take() {
            *write_lock(&self.cached_graph) = Some(entry);
        }
    }

    /// Parse and prepare a query without executing it.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery> {
        self.prepare_parsed(&parse_query(text)?)
    }

    /// Prepare a parsed query: resolve the strategy, translate, and run
    /// the optimizer's full pass pipeline over every unfolded rule. The
    /// read set comes from one function, `read_set`, under both strategies.
    pub fn prepare_parsed(&self, q: &Query) -> Result<PreparedQuery> {
        let mut sp = trace::span("prepare");
        let strategy = self.resolved_strategy();
        let t0 = Instant::now();
        let (unfold, touched) = match strategy {
            Strategy::Unfold => {
                let translation =
                    translate(&self.sys, q, self.rewriter(), &self.options.translate)?;
                let touched = translation.read_set(&self.sys);
                let rules = prepare_rules(&self.sys, &translation)?;
                (Some(PreparedUnfold { translation, rules }), touched)
            }
            Strategy::Graph | Strategy::Auto => {
                // The walk visits only what can derive the start relation.
                let (start, _, _) = graph_pattern(q)?;
                let (relations, mappings) = self.sys.schema_graph().backward_closure(&start);
                let touched = read_set(&self.sys, relations, mappings);
                (None, touched)
            }
        };
        if sp.id().is_some() {
            sp.field("strategy", format!("{strategy:?}"));
            if let Some(u) = &unfold {
                sp.field("rules", u.rules.len().to_string());
            }
        }
        Ok(PreparedQuery {
            query: q.clone(),
            strategy,
            unfold,
            stats_version: self.sys.version(),
            stats_fingerprint: self.stats_fingerprint(&touched),
            touched,
            prepare_time: t0.elapsed(),
        })
    }

    /// The configured body rewriter, if any.
    pub(crate) fn rewriter(&self) -> Option<&dyn BodyRewriter> {
        self.options
            .rewriter
            .as_deref()
            .map(|r| r as &dyn BodyRewriter)
    }

    /// The configured strategy with `Auto` resolved from the schema graph
    /// (which writes cannot change): the graph walk on cyclic schemas,
    /// unfolding otherwise.
    pub(crate) fn resolved_strategy(&self) -> Strategy {
        match self.options.strategy {
            Strategy::Auto if self.sys.schema_graph().is_cyclic() => Strategy::Graph,
            Strategy::Auto => Strategy::Unfold,
            s => s,
        }
    }

    /// Bucketed statistics fingerprint of `relations` against the current
    /// system (see [`proql_storage::stats`]). Plan caches compare this to
    /// [`PreparedQuery::stats_fingerprint`] to decide whether a cached
    /// plan is still the one the optimizer would choose.
    pub fn stats_fingerprint(&self, relations: &BTreeSet<String>) -> u64 {
        self.sys
            .stats_fingerprint(relations.iter().map(String::as_str))
    }

    /// Execute a prepared query. `EXPLAIN` queries render the chosen
    /// plans instead of running them; `EXPLAIN ANALYZE` executes for real
    /// and annotates the plans with actual rows and timings.
    pub fn execute(&self, p: &PreparedQuery) -> Result<QueryOutput> {
        let mut stats = QueryStats {
            unfold_time: p.prepare_time,
            ..QueryStats::default()
        };
        if let Some(u) = &p.unfold {
            stats.translate = u.translation.stats.clone();
        }
        if p.query.explain {
            if p.query.analyze {
                return self.execute_analyze(p, stats);
            }
            return Ok(QueryOutput {
                projection: ProjectionResult::default(),
                annotated: None,
                stats,
                touched: p.touched.clone(),
                plan: Some(self.render_plan(p, None)),
            });
        }
        let mut sp = trace::span("execute");
        let mut projection = match &p.unfold {
            Some(u) => {
                let t1 = Instant::now();
                let proj = run_projection_prepared(
                    &self.sys,
                    &u.translation,
                    &u.rules,
                    self.options.exec_mode,
                    self.options.parallelism,
                )?;
                stats.eval_time = t1.elapsed();
                stats.total_joins = proj.metrics.total_joins;
                stats.sql_bytes = proj.metrics.sql_bytes;
                proj
            }
            None => {
                let graph = self.graph()?;
                let t1 = Instant::now();
                let proj = run_projection_graph(&self.sys, &graph, &p.query)?;
                stats.eval_time = t1.elapsed();
                proj
            }
        };
        if sp.id().is_some() {
            sp.field("strategy", format!("{:?}", p.strategy));
            sp.field("rows", projection.metrics.rows.to_string());
            sp.field("bindings", projection.bindings.len().to_string());
        }
        let annotated = match &p.query.evaluate {
            Some(spec) => Some(run_annotation_opts(
                &self.sys,
                &projection,
                spec,
                self.options.parallelism,
            )?),
            None => None,
        };
        // A cached output must not pin the graph: the next write's patch
        // would then copy the whole graph instead of patching it in place.
        projection.graph = None;
        Ok(QueryOutput {
            projection,
            annotated,
            stats,
            touched: p.touched.clone(),
            plan: None,
        })
    }

    /// The `EXPLAIN ANALYZE` path: execute the query for real (rules run
    /// serially under the profiled batch executor), then render the plan
    /// trees annotated with actual per-operator rows and inclusive wall
    /// times next to the optimizer's estimates. The reported totals come
    /// from the very projection that was executed, so they match a plain
    /// run of the same query exactly; the projection itself is withheld
    /// from the output (like `EXPLAIN`, the plan text *is* the result).
    fn execute_analyze(&self, p: &PreparedQuery, mut stats: QueryStats) -> Result<QueryOutput> {
        let mut sp = trace::span("execute");
        sp.field("analyze", "true");
        let t1 = Instant::now();
        let (projection, per_rule) = match &p.unfold {
            Some(u) => {
                let (proj, per_rule) = run_projection_prepared_profiled(
                    &self.sys,
                    &u.translation,
                    &u.rules,
                    self.options.exec_mode,
                    self.options.parallelism,
                )?;
                (proj, Some(per_rule))
            }
            None => {
                let graph = self.graph()?;
                (run_projection_graph(&self.sys, &graph, &p.query)?, None)
            }
        };
        let exec_time = t1.elapsed();
        stats.eval_time = exec_time;
        stats.total_joins = projection.metrics.total_joins;
        stats.sql_bytes = projection.metrics.sql_bytes;
        if sp.id().is_some() {
            sp.field("rows", projection.metrics.rows.to_string());
            sp.field("bindings", projection.bindings.len().to_string());
        }
        let actuals = Actuals {
            per_rule: per_rule.as_deref(),
            projection: &projection,
            exec_time,
        };
        let plan = self.render_plan(p, Some(actuals));
        Ok(QueryOutput {
            projection: ProjectionResult::default(),
            annotated: None,
            stats,
            touched: p.touched.clone(),
            plan: Some(plan),
        })
    }

    /// Render a prepared query's plans: the strategy, each unfolded
    /// rule's operator tree with the optimizer's estimated rows per
    /// operator, and the read set. Large unions show the first few rules.
    /// Given the actuals of an analyze run, every operator line also
    /// carries `actual <rows> rows in <ms>`, and a final `actual:` footer
    /// reports the executed result sizes and wall time.
    fn render_plan(&self, p: &PreparedQuery, actuals: Option<Actuals<'_>>) -> String {
        const SHOWN_RULES: usize = 5;
        let mut out = String::new();
        match &p.unfold {
            Some(u) => {
                let _ = writeln!(
                    out,
                    "strategy: unfold ({} rules, {} dropped statically)",
                    u.translation.stats.rules, u.translation.stats.dropped
                );
                let per_rule = actuals.and_then(|a| a.per_rule);
                for (i, rule) in u.rules.iter().take(SHOWN_RULES).enumerate() {
                    let _ = writeln!(
                        out,
                        "rule {i}: ~{} rows",
                        estimate_rows(&self.sys.db, &rule.plan)
                    );
                    out.push_str(&match per_rule.and_then(|stats| stats.get(i)) {
                        Some(rstats) => explain_tree_analyzed(&self.sys.db, &rule.plan, rstats),
                        None => explain_tree(&self.sys.db, &rule.plan),
                    });
                }
                if u.rules.len() > SHOWN_RULES {
                    let _ = writeln!(out, "… {} more rules", u.rules.len() - SHOWN_RULES);
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "strategy: graph-walk over the materialized provenance graph"
                );
            }
        }
        let reads: Vec<&str> = p.touched.iter().map(String::as_str).collect();
        let _ = writeln!(out, "reads: {}", reads.join(", "));
        // Row estimates above are recomputed from *current* statistics;
        // the stamps below describe when the plan itself was chosen.
        let _ = writeln!(
            out,
            "prepared at: version {} (stats fingerprint {:x})",
            p.stats_version, p.stats_fingerprint
        );
        if let Some(a) = actuals {
            let _ = writeln!(
                out,
                "actual: {} binding rows, {} derivation rows in {:.3} ms",
                a.projection.bindings.len(),
                a.projection.derivation_count(),
                a.exec_time.as_secs_f64() * 1e3
            );
        }
        out
    }

    /// Drop the cached provenance graph. Mutations through
    /// [`ProvenanceSystem`]'s API are detected automatically via its
    /// version counter, so calling this is only needed after mutating
    /// `sys.db` directly without [`ProvenanceSystem::bump_version`].
    pub fn invalidate_cache(&self) {
        *write_lock(&self.cached_graph) = None;
    }
}

/// What an `EXPLAIN ANALYZE` run measured, for [`Engine::render_plan`].
#[derive(Clone, Copy)]
struct Actuals<'a> {
    per_rule: Option<&'a [Vec<OpStat>]>,
    projection: &'a ProjectionResult,
    exec_time: Duration,
}

/// The read set of an answer: every relation (base table or view) whose
/// contents it depends on. Its inputs are the relations the answer scans
/// and the mappings whose derivations it may report. The result holds
/// each relation, plus each mapping's provenance relation and the
/// relations of its atom recipes (sources and targets, which the
/// annotation phase reads for leaf values), all expanded through view
/// definitions down to base tables, so that a write set of base tables
/// can be intersected against it.
///
/// An unfold answer passes its rule atoms, the relations pruning found
/// empty, and the mappings its rules witness. A graph answer passes the
/// schema graph's backward closure of its start relation. Either may
/// over-approximate, never under-approximate.
pub(crate) fn read_set<'a>(
    sys: &ProvenanceSystem,
    relations: impl IntoIterator<Item = &'a str>,
    mappings: impl IntoIterator<Item = &'a str>,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for rel in relations {
        insert_with_view_deps(sys, rel, &mut out);
    }
    for mapping in mappings {
        if let Some(spec) = sys.spec_for(mapping) {
            insert_with_view_deps(sys, &spec.prov_rel, &mut out);
            for recipe in &spec.atoms {
                insert_with_view_deps(sys, &recipe.relation, &mut out);
            }
        }
    }
    out
}

/// Insert `rel` and, when it is a view, every relation its definition
/// scans (recursively — views may read other views).
fn insert_with_view_deps(sys: &ProvenanceSystem, rel: &str, out: &mut BTreeSet<String>) {
    if out.contains(rel) {
        return;
    }
    out.insert(rel.to_string());
    if let Some(v) = sys.db.view(rel) {
        let mut scanned = BTreeSet::new();
        v.plan.collect_scanned(&mut scanned);
        for r in scanned {
            insert_with_view_deps(sys, &r, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql_common::tup;
    use proql_provgraph::system::example_2_1;
    use proql_semiring::Annotation;

    fn engine(strategy: Strategy) -> Engine {
        let mut e = Engine::new(example_2_1().unwrap());
        e.options.strategy = strategy;
        e
    }

    #[test]
    fn auto_picks_graph_for_cyclic_example() {
        // Example 2.1's schema graph is cyclic (m1/m3).
        let e = engine(Strategy::Auto);
        let out = e
            .query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        assert_eq!(out.projection.bindings.len(), 4);
        assert!(out.annotated.is_none());
    }

    #[test]
    fn in_relation_conditions_hold_under_every_strategy() {
        // `$x in A` contradicts `[O $x]`: every strategy rejects it, as
        // Unfold always did. `$x in O` restates the pattern.
        let q = |cond: &str| format!("FOR [O $x] INCLUDE PATH [$x] <-+ [] {cond} RETURN $x");
        for strategy in [Strategy::Unfold, Strategy::Graph, Strategy::Auto] {
            let e = engine(strategy);
            let err = e.query(&q("WHERE $x in A")).unwrap_err();
            assert!(
                err.to_string().contains("constrained to both O and A"),
                "{strategy:?}: {err}"
            );
            let all = e.query(&q("")).unwrap();
            let same = e.query(&q("WHERE $x in O")).unwrap();
            assert_eq!(same.projection.bindings, all.projection.bindings);
            assert_eq!(same.projection.derivations, all.projection.derivations);
        }
    }

    #[test]
    fn unfold_strategy_reports_stats() {
        let e = engine(Strategy::Unfold);
        let out = e
            .query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        assert!(out.stats.translate.rules > 0);
        assert!(out.stats.sql_bytes > 0);
        assert!(out.stats.total_joins > 0);
    }

    #[test]
    fn trust_query_end_to_end_both_strategies() {
        let q = "EVALUATE TRUST OF {
                   FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
                 } ASSIGNING EACH leaf_node $y {
                   CASE $y in A AND $y.len >= 6 : SET false
                   DEFAULT : SET true
                 } ASSIGNING EACH mapping $p($z) {
                   CASE $p = m4 : SET false
                   DEFAULT : SET $z
                 }";
        for strategy in [Strategy::Unfold, Strategy::Graph] {
            let e = engine(strategy);
            let out = e.query(q).unwrap();
            let ann = out.annotated.unwrap();
            assert_eq!(
                ann.annotation_of("O", &tup!["cn2"]),
                Some(&Annotation::Bool(true)),
                "{strategy:?}"
            );
            assert_eq!(
                ann.annotation_of("O", &tup!["sn1"]),
                Some(&Annotation::Bool(false)),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn parse_errors_surface() {
        let e = engine(Strategy::Auto);
        assert!(e.query("FOR [O $x RETURN $x").is_err());
    }

    #[test]
    fn stale_graph_auto_invalidates_on_mutation() {
        // Regression for the stale-graph footgun: mutate the system after
        // a Graph-strategy query and re-query WITHOUT calling
        // invalidate_cache — the version stamp must force a rebuild.
        let mut e = engine(Strategy::Graph);
        let q = "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
        let before = e.query(q).unwrap().projection.bindings.len();
        e.sys.insert_local("A", tup![8, "sn8", 2]).unwrap();
        e.sys.run_exchange().unwrap();
        let after = e.query(q).unwrap().projection.bindings.len();
        assert!(
            after > before,
            "stale cached graph served: {after} <= {before}"
        );
    }

    #[test]
    fn graph_patches_forward_through_deltas() {
        let mut e = engine(Strategy::Graph);
        let g0 = e.graph().unwrap();
        let builds = e.graph_build_count();
        e.sys.insert_local("A", tup![8, "sn8", 2]).unwrap();
        e.sys.run_exchange().unwrap();
        let g1 = e.graph().unwrap();
        assert_eq!(
            e.graph_build_count(),
            builds,
            "a covered delta span must patch, not rebuild"
        );
        assert!(e.graph_patch_count() >= 1);
        assert!(g1.find_tuple("O", &tup!["sn8"]).is_some());
        // The patched graph is content-identical to a from-scratch rebuild.
        let rebuilt = ProvGraph::from_system(&e.sys).unwrap();
        assert_eq!(g1.digest(), rebuilt.digest());
        // The still-held old Arc was copy-on-write protected.
        assert!(g0.find_tuple("O", &tup!["sn8"]).is_none());
    }

    #[test]
    fn graph_strategy_output_does_not_pin_the_graph() {
        let mut e = engine(Strategy::Graph);
        let g = e.graph().unwrap();
        let held = Arc::strong_count(&g);
        let out = e
            .query("EVALUATE LINEAGE OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }")
            .unwrap();
        assert_eq!(out.annotated.as_ref().map(|a| a.rows.len()), Some(4));
        assert!(out.projection.graph.is_none());
        assert_eq!(Arc::strong_count(&g), held);
        let at = Arc::as_ptr(&g);
        drop(g);
        // With the answer still alive, the next write patches the cached
        // graph in place: no rebuild, and no copy-on-write clone.
        let builds = e.graph_build_count();
        e.sys.insert_local("A", tup![8, "sn8", 2]).unwrap();
        e.sys.run_exchange().unwrap();
        let g1 = e.graph().unwrap();
        assert_eq!(e.graph_build_count(), builds);
        assert_eq!(e.graph_patch_count(), 1);
        assert_eq!(Arc::as_ptr(&g1), at, "the patch copied the graph");
        assert!(g1.find_tuple("O", &tup!["sn8"]).is_some());
        drop(out);
    }

    #[test]
    fn broken_delta_chain_falls_back_to_rebuild() {
        let mut e = engine(Strategy::Graph);
        e.graph().unwrap();
        let builds = e.graph_build_count();
        e.sys.db.insert("A", tup![42, "oob", 1]).unwrap();
        e.sys.bump_version();
        e.graph().unwrap();
        assert_eq!(e.graph_build_count(), builds + 1);
    }

    #[test]
    fn concurrent_same_version_builds_coalesce() {
        let e = engine(Strategy::Graph);
        let mut graphs: Vec<Arc<ProvGraph>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| e.graph().unwrap())).collect();
            for h in handles {
                graphs.push(h.join().unwrap());
            }
        });
        assert_eq!(
            e.graph_build_count(),
            1,
            "racing readers at one version must share a single build"
        );
        for g in &graphs[1..] {
            assert!(Arc::ptr_eq(&graphs[0], g));
        }
    }

    #[test]
    fn adopted_graph_cache_patches_across_engines() {
        // The service write path: clone the system copy-on-write, mutate,
        // wrap in a fresh engine, adopt the previous engine's graph.
        let e = engine(Strategy::Graph);
        e.graph().unwrap();
        let mut sys2 = e.sys.clone();
        sys2.insert_local("A", tup![8, "sn8", 2]).unwrap();
        sys2.run_exchange().unwrap();
        let e2 = Engine::with_options(sys2, e.options.clone());
        e2.adopt_graph_cache(&e);
        let g2 = e2.graph().unwrap();
        assert_eq!(e2.graph_build_count(), 0, "adoption must avoid a rebuild");
        assert_eq!(e2.graph_patch_count(), 1);
        assert_eq!(
            g2.digest(),
            ProvGraph::from_system(&e2.sys).unwrap().digest()
        );
        // The previous engine gave its cache up; querying it again rebuilds
        // at its own (older) version and stays correct.
        let old = e.graph().unwrap();
        assert!(old.find_tuple("O", &tup!["sn8"]).is_none());
    }

    #[test]
    fn graph_is_shared_until_version_changes() {
        let mut e = engine(Strategy::Graph);
        let g1 = e.graph().unwrap();
        let g2 = e.graph().unwrap();
        assert!(Arc::ptr_eq(&g1, &g2), "same version must share the graph");
        e.sys.bump_version();
        let g3 = e.graph().unwrap();
        assert!(!Arc::ptr_eq(&g1, &g3), "version bump must rebuild");
    }

    #[test]
    fn touched_relations_cover_unfold_dependencies() {
        let e = engine(Strategy::Unfold);
        let out = e
            .query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        // The unfolded rules bottom out in local tables and provenance
        // relations; view-expansion pulls in the base tables views read.
        assert!(out.touched.contains("A_l"), "touched: {:?}", out.touched);
        assert!(out.touched.contains("P_m1"), "touched: {:?}", out.touched);
        // P_m4 is superfluous (a view over A_l): its base must appear too.
        assert!(out.touched.contains("P_m4"), "touched: {:?}", out.touched);
        // Spec atom relations (annotation leaf values) are included.
        assert!(out.touched.contains("O"), "touched: {:?}", out.touched);
    }

    #[test]
    fn touched_relations_graph_strategy_is_the_backward_closure() {
        let e = engine(Strategy::Graph);
        let out = e
            .query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        for rel in ["A", "A_l", "O", "P_m1", "P_m5"] {
            assert!(out.touched.contains(rel), "missing {rel}");
        }
        // C's closure is {A, C, N} with their locals and the mappings
        // L_A, L_C, L_N, m1, m2, m3: O and its mappings are not read.
        let c = e.prepare("FOR [C $x] INCLUDE PATH [$x] <-+ [] RETURN $x");
        let touched = c.unwrap().touched;
        let expect = [
            "A", "A_l", "C", "C_l", "N", "N_l", "P_L_A", "P_L_C", "P_L_N", "P_m1", "P_m2", "P_m3",
        ];
        assert_eq!(touched, expect.iter().map(|r| r.to_string()).collect());
        // The closure never exceeds "every table and view".
        let mut all: BTreeSet<String> = e.sys.db.table_names().map(str::to_string).collect();
        all.extend(e.sys.db.view_names().map(str::to_string));
        assert!(touched.is_subset(&all));
    }

    #[test]
    fn touched_relations_include_what_unfolding_pruned_on() {
        // O_l is empty, so unfolding drops O's local alternative: the
        // answer still depends on O_l staying empty.
        let mut e = engine(Strategy::Unfold);
        let q = "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
        let prepared = e.prepare(q).unwrap();
        assert!(prepared.touched.contains("O_l"), "{:?}", prepared.touched);
        assert!(prepared.complete_at(&e.sys));
        e.sys.insert_local("O", tup!["x1", 3, false]).unwrap();
        e.sys.run_exchange().unwrap();
        // The translation now misses the local alternative, and the first
        // row moves the statistics fingerprint, so plan caches re-prepare.
        assert!(!prepared.complete_at(&e.sys));
        assert_ne!(
            e.stats_fingerprint(&prepared.touched),
            prepared.stats_fingerprint
        );
        let stale = e.execute(&prepared).unwrap().projection.bindings.len();
        let fresh = e.query(q).unwrap().projection.bindings.len();
        assert_eq!((stale, fresh), (4, 5));
    }

    #[test]
    fn explain_rejects_what_the_graph_walk_cannot_run() {
        // Auto resolves to the graph walk on Example 2.1. A query it cannot
        // run fails at prepare, so EXPLAIN reports the same error as
        // running it, and no plan cache can hold a query that never runs.
        let e = engine(Strategy::Auto);
        for (q, err) in [
            (
                "FOR [O $x] <m4 [A $y] RETURN $x",
                "graph strategy supports only `[R $x] <-+ []` patterns",
            ),
            (
                "FOR [$x] INCLUDE PATH [$x] <-+ [] RETURN $x",
                "graph strategy needs a start relation",
            ),
        ] {
            for text in [q.to_string(), format!("EXPLAIN {q}")] {
                let got = e.query(&text).unwrap_err().to_string();
                assert!(got.contains(err), "{text}: {got}");
                assert!(e.prepare(&text).is_err(), "{text}");
            }
        }
    }

    #[test]
    fn unfold_is_a_strict_subset_of_graph_on_cyclic_schemas() {
        // Unfolding never repeats a mapping along a branch; the graph walk
        // serves the full fixpoint. On Example 2.1 (cyclic via m1/m3) every
        // unfold row is a graph row, and the graph walk finds one more
        // derivation from each start relation.
        let (unfold, graph) = (engine(Strategy::Unfold), engine(Strategy::Graph));
        for (rel, counts) in [("O", (11, 12)), ("C", (7, 8)), ("N", (9, 10))] {
            let q = format!("FOR [{rel} $x] INCLUDE PATH [$x] <-+ [] RETURN $x");
            let u = unfold.query(&q).unwrap().projection;
            let g = graph.query(&q).unwrap().projection;
            assert_eq!((u.derivation_count(), g.derivation_count()), counts, "{q}");
            assert!(u.bindings.is_subset(&g.bindings), "{q}");
            for (mapping, rows) in &u.derivations {
                assert!(rows.is_subset(&g.derivations[mapping]), "{q}: {mapping}");
            }
        }
    }

    #[test]
    fn prepared_query_executes_identically_to_direct_query() {
        let e = engine(Strategy::Unfold);
        let q = "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
        let direct = e.query(q).unwrap();
        let prepared = e.prepare(q).unwrap();
        let first = e.execute(&prepared).unwrap();
        let second = e.execute(&prepared).unwrap();
        assert_eq!(direct.projection.bindings, first.projection.bindings);
        assert_eq!(direct.projection.derivations, first.projection.derivations);
        assert_eq!(first.projection.bindings, second.projection.bindings);
        assert_eq!(prepared.touched, direct.touched);
        assert_eq!(prepared.stats_version, e.sys.version());
    }

    #[test]
    fn stale_prepared_plan_still_returns_correct_results() {
        // Reusing a plan prepared before a write is always correct —
        // optimizer choices never affect results, only cost.
        let mut e = engine(Strategy::Unfold);
        let q = "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
        let prepared = e.prepare(q).unwrap();
        let before = e.execute(&prepared).unwrap().projection.bindings.len();
        e.sys.insert_local("A", tup![8, "sn8", 2]).unwrap();
        e.sys.run_exchange().unwrap();
        let stale = e.execute(&prepared).unwrap().projection.bindings.len();
        let fresh = e.query(q).unwrap().projection.bindings.len();
        assert!(stale > before);
        assert_eq!(stale, fresh, "stale plan must still see current data");
    }

    #[test]
    fn explain_surfaces_plan_with_estimates() {
        let e = engine(Strategy::Unfold);
        let out = e
            .query("EXPLAIN FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        let plan = out.plan.expect("EXPLAIN returns a plan");
        assert!(plan.contains("strategy: unfold"), "{plan}");
        assert!(plan.contains("rows"), "{plan}");
        assert!(plan.contains("reads:"), "{plan}");
        assert!(out.projection.bindings.is_empty());
        assert!(
            !out.touched.is_empty(),
            "EXPLAIN still reports its read set"
        );
        // Non-EXPLAIN queries carry no plan text.
        assert!(e
            .query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap()
            .plan
            .is_none());
    }

    #[test]
    fn explain_graph_strategy_reports_walk() {
        let e = engine(Strategy::Graph);
        let out = e
            .query("EXPLAIN FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        assert!(out.plan.unwrap().contains("graph-walk"));
    }

    #[test]
    fn stats_fingerprint_survives_point_writes_but_not_growth() {
        let mut e = engine(Strategy::Unfold);
        let q = "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
        let prepared = e.prepare(q).unwrap();
        // A single insert stays within the log2 stats buckets.
        e.sys.insert_local("A", tup![8, "sn8", 2]).unwrap();
        e.sys.run_exchange().unwrap();
        assert_eq!(
            e.stats_fingerprint(&prepared.touched),
            prepared.stats_fingerprint,
            "point write must not drift the fingerprint"
        );
        // Growing the read-set tables by an order of magnitude drifts it.
        for i in 100..300 {
            e.sys.insert_local("A", tup![i, "snX", 1]).unwrap();
        }
        e.sys.run_exchange().unwrap();
        assert_ne!(
            e.stats_fingerprint(&prepared.touched),
            prepared.stats_fingerprint
        );
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }

    #[test]
    fn cache_invalidation_sees_new_data() {
        let mut e = engine(Strategy::Graph);
        let before = e
            .query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap()
            .projection
            .bindings
            .len();
        e.sys.insert_local("A", tup![9, "sn9", 1]).unwrap();
        e.sys.run_exchange().unwrap();
        e.invalidate_cache();
        let after = e
            .query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap()
            .projection
            .bindings
            .len();
        assert!(after > before);
    }
}
