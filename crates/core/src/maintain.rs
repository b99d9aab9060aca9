//! Incremental view maintenance: patching cached [`QueryOutput`]s
//! forward across a `(snapshot, delta)` write instead of recomputing them.
//!
//! [`maintain_outputs`] takes every cache entry a write may reach and
//! decides each one in four steps:
//!
//! 1. **Net changes.** The write's delta chain folds into net added and
//!    removed rows per relation, plus the `(relation, key)` pairs whose
//!    stored values changed. This happens once per write.
//! 2. **Relevance.** Entries are grouped by their query's projection
//!    (translation depends on nothing else), and for each group every
//!    delta row is tested against every rule atom that reads its
//!    relation. A row stays for atom *j* unless it contradicts one of the
//!    atom's constants or a variable the atom repeats, or makes the rule's
//!    `WHERE` condition definitely false. The condition is evaluated in
//!    three-valued logic, with the variables atom *j* does not bind
//!    unknown. An atom left with no rows compiles no variant.
//! 3. **Delta runs, once per group.** Each surviving `(rule, atom)` pair
//!    runs in **semi-naive delta form** — the exchange's own
//!    [`delta_variant`], with atom *j* reading its rows inline and full
//!    state everywhere else. Additions run against the new snapshot;
//!    removals follow the DRed discipline: the same runs against the
//!    *old* snapshot give over-deletion candidates, which a re-derivation
//!    check against the new state rescues or confirms.
//! 4. **Per entry.** The group's runs are diffed against the entry's
//!    answer. When they change no row and no changed value names a tuple
//!    of the entry's annotated subgraph, the entry is
//!    [`MaintainOutcome::Unchanged`]: it keeps its output and carried
//!    state, and nothing is cloned, patched or re-walked. Only an entry the
//!    write does reach is judged by its semiring: set-valued semirings
//!    (LINEAGE, PROBABILITY, POLYNOMIAL) fall back; scalar ones patch the
//!    carried [`MaintainState`] graph and evaluate it through the same
//!    evaluator a fresh unfold answer uses, so the maintained annotation
//!    equals the fresh one by construction.
//!
//! Maintenance is never a correctness risk: any shape the maintainer
//! cannot localize — graph-strategy answers, set-valued semirings the
//! write reaches, broken delta chains, oversized deltas — reports a
//! [`FallbackReason`] and the caller evicts, exactly as the
//! pre-maintenance write path did. An annotation a fresh computation
//! cannot produce either (counting on a cyclic graph) is an error, which
//! callers treat as evict too. By construction (and by test) a
//! maintained or unchanged output is digest-equal to executing the same
//! prepared query at the new version, which is a from-scratch
//! recomputation whenever [`PreparedQuery::complete_at`] holds there;
//! callers evict entries for which it does not
//! ([`FallbackReason::Pruned`]). [`maintain_output`] is the one-entry
//! case.

use crate::annotate::annotate_on;
use crate::engine::{Engine, PreparedQuery, PreparedUnfold, QueryOutput, Strategy};
use crate::exec::{cond_to_expr, run_rule, PreparedRule, ProjectionResult};
use crate::translate::{static_cmp, QueryRule, VarCond};
use proql_common::{trace, Parallelism, Result, Tuple, Value};
use proql_datalog::ast::{Atom, Term};
use proql_datalog::compile::delta_variant;
use proql_provgraph::{DeltaOp, ProvGraph, ProvenanceSystem};
use proql_semiring::{Region, SemiringKind};
use proql_storage::{optimize::optimize_with, Expr};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Localization cap: when more delta rows than this can reach a query's
/// rules, the entry falls back to eviction — patching would not beat
/// recomputation. Rows the relevance filter drops do not count.
const MAX_DELTA_ROWS: usize = 4096;

/// Cap on over-deletion candidates fed to the re-derivation check (the
/// candidates become one OR-of-conjuncts filter per rule).
const MAX_CANDIDATES: usize = 1024;

/// Per-entry carry-over of annotation maintenance: the decoded graph of
/// the entry's projection at its version — what
/// [`ProjectionResult::to_graph`] would give — patched in place each
/// round (derivation rows added and removed, tuple values refreshed) and
/// compacted when tombstones pile up.
#[derive(Debug)]
pub struct MaintainState {
    graph: ProvGraph,
}

/// What [`maintain_output`] decided.
#[derive(Debug)]
pub enum MaintainResult {
    /// The cached output was patched to the new version.
    Maintained {
        /// The patched output, digest-equal to a fresh recomputation.
        output: Box<QueryOutput>,
        /// Projection rows (derivations + bindings) added or removed.
        rows_patched: u64,
        /// Annotation carry-over for the next maintenance round (`None`
        /// for pure-projection queries).
        state: Option<Box<MaintainState>>,
    },
    /// The delta could not be localized; the caller must evict and
    /// recompute. The payload says why (surfaced in service stats and
    /// logs).
    Fallback(&'static str),
}

/// Why an entry could not be maintained; the caller evicts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The cached output is `EXPLAIN` text, not an answer.
    Explain,
    /// Graph-walk answers have no unfolded rules to run in delta form.
    GraphWalk,
    /// The prepared query carries no unfolded rules.
    NoUnfold,
    /// The delta log cannot bridge the two versions.
    ChainUnavailable,
    /// A rule reads a view whose row changes the delta log does not
    /// record.
    ViewAtom,
    /// More than `MAX_DELTA_ROWS` delta rows can reach the rules.
    DeltaTooLarge,
    /// More than `MAX_CANDIDATES` over-deletion candidates.
    TooManyCandidates,
    /// The write reaches an answer in a set-valued semiring (LINEAGE,
    /// PROBABILITY, POLYNOMIAL), which has no incremental evaluation.
    SetValued,
    /// A relation the translation pruned on as empty now has rows, so
    /// the prepared rules miss alternatives (see
    /// [`PreparedQuery::complete_at`]). The caller checks this before
    /// maintaining; the maintainer itself patches relative to the
    /// prepared rules.
    Pruned,
}

impl FallbackReason {
    /// Every reason, in declaration order.
    pub const ALL: [FallbackReason; 9] = [
        FallbackReason::Explain,
        FallbackReason::GraphWalk,
        FallbackReason::NoUnfold,
        FallbackReason::ChainUnavailable,
        FallbackReason::ViewAtom,
        FallbackReason::DeltaTooLarge,
        FallbackReason::TooManyCandidates,
        FallbackReason::SetValued,
        FallbackReason::Pruned,
    ];

    /// The human-readable reason [`MaintainResult::Fallback`] carries.
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackReason::Explain => "explain output",
            FallbackReason::GraphWalk => "graph-walk strategy",
            FallbackReason::NoUnfold => "no unfolded rules",
            FallbackReason::ChainUnavailable => "delta chain unavailable",
            FallbackReason::ViewAtom => "non-localizable view atom",
            FallbackReason::DeltaTooLarge => "delta too large",
            FallbackReason::TooManyCandidates => "too many removal candidates",
            FallbackReason::SetValued => "set-valued semiring",
            FallbackReason::Pruned => "pruned relation now has rows",
        }
    }
}

/// One cached answer handed to [`maintain_outputs`].
#[derive(Debug)]
pub struct MaintainEntry<'a> {
    /// The prepared query the answer was computed from.
    pub prepared: &'a PreparedQuery,
    /// The answer at the old snapshot.
    pub previous: &'a QueryOutput,
    /// Annotation carry-over from the entry's previous round, if any.
    pub state: Option<Box<MaintainState>>,
}

/// What maintenance decided for one entry.
#[derive(Debug)]
pub enum MaintainOutcome {
    /// Nothing the write changed reaches the answer: the previous output
    /// is already the answer at the new version. The carry-over comes
    /// back untouched.
    Unchanged {
        /// The entry's carry-over, as it was handed in.
        state: Option<Box<MaintainState>>,
    },
    /// The answer was patched to the new version.
    Patched {
        /// The patched output, digest-equal to a fresh recomputation.
        output: Box<QueryOutput>,
        /// Projection rows (derivations + bindings) added or removed.
        rows_patched: u64,
        /// Annotation carry-over for the next round (`None` for
        /// pure-projection queries).
        state: Option<Box<MaintainState>>,
    },
    /// The write could not be localized; the caller must evict.
    Fallback(FallbackReason),
}

/// One entry's result from [`maintain_outputs`].
#[derive(Debug)]
pub struct EntryOutcome {
    /// The decision; an error also means "evict and recompute".
    pub outcome: Result<MaintainOutcome>,
    /// True when the entry consumed delta runs an earlier entry of the
    /// same projection already paid for.
    pub shared: bool,
}

/// Net row changes over a delta span, split into adds and removes.
#[derive(Debug, Default)]
struct NetChanges {
    adds: HashMap<String, Vec<Tuple>>,
    removes: HashMap<String, Vec<Tuple>>,
    /// Keys, per relation, whose stored values changed — the annotation
    /// maintainer refreshes matching graph nodes.
    set_values: SetValues,
}

type SetValues = HashMap<String, BTreeSet<Tuple>>;

/// A group's delta runs, computed once and diffed against every entry of
/// the group.
#[derive(Debug, Default)]
struct DeltaRuns {
    /// Firings involving an added row, at the new snapshot.
    added: ProjectionResult,
    /// Firings involving a removed row, at the old snapshot.
    candidates: ProjectionResult,
    /// Candidates the new snapshot still derives.
    rescued: ProjectionResult,
    /// Delta variants executed (0 when no row reached the rules).
    variants: usize,
}

/// Patch `previous` — a query output computed against `old`'s snapshot —
/// forward to `new`'s snapshot, using the delta chain `(old.version,
/// new.version]`. `prior_state` is the annotation carry-over returned by
/// the previous maintenance round for this entry, if any. The one-entry
/// case of [`maintain_outputs`]; an unchanged answer comes back as a copy
/// with `rows_patched == 0`.
///
/// Returns [`MaintainResult::Fallback`] whenever the change cannot be
/// localized; errors also mean "evict and recompute". Both engines must
/// share history: `new` must be a descendant snapshot of `old`.
pub fn maintain_output(
    old: &Engine,
    new: &Engine,
    prepared: &PreparedQuery,
    previous: &QueryOutput,
    prior_state: Option<Box<MaintainState>>,
) -> Result<MaintainResult> {
    let entry = MaintainEntry {
        prepared,
        previous,
        state: prior_state,
    };
    let outcome = maintain_outputs(old, new, vec![entry])
        .pop()
        .expect("one outcome per entry")
        .outcome?;
    Ok(match outcome {
        MaintainOutcome::Unchanged { state } => MaintainResult::Maintained {
            output: Box::new(previous.clone()),
            rows_patched: 0,
            state,
        },
        MaintainOutcome::Patched {
            output,
            rows_patched,
            state,
        } => MaintainResult::Maintained {
            output,
            rows_patched,
            state,
        },
        MaintainOutcome::Fallback(reason) => MaintainResult::Fallback(reason.as_str()),
    })
}

/// Maintain every entry across the write `(old.version, new.version]`,
/// returning one outcome per entry, in order. Entries whose queries share
/// a projection share one set of delta runs. Both engines must share
/// history: `new` must be a descendant snapshot of `old`.
pub fn maintain_outputs(
    old: &Engine,
    new: &Engine,
    entries: Vec<MaintainEntry<'_>>,
) -> Vec<EntryOutcome> {
    let mut outcomes: Vec<Option<EntryOutcome>> = entries.iter().map(|_| None).collect();
    let mut groups: Vec<(&PreparedUnfold, Vec<(usize, MaintainEntry<'_>)>)> = Vec::new();
    for (i, entry) in entries.into_iter().enumerate() {
        match localizable(entry.prepared, entry.previous) {
            Err(reason) => {
                outcomes[i] = Some(EntryOutcome {
                    outcome: traced(|| Ok(MaintainOutcome::Fallback(reason))),
                    shared: false,
                });
            }
            Ok(unfold) => {
                let projection = &entry.prepared.query.projection;
                match groups
                    .iter_mut()
                    .find(|(_, members)| members[0].1.prepared.query.projection == *projection)
                {
                    Some((_, members)) => members.push((i, entry)),
                    None => groups.push((unfold, vec![(i, entry)])),
                }
            }
        }
    }
    if !groups.is_empty() {
        let (from, to) = (old.sys.version(), new.sys.version());
        let net = new
            .sys
            .delta_entries(from, to)
            .map(|entries| collect_net_changes(&new.sys, entries));
        let no_values = SetValues::new();
        let set_values = net.as_ref().map_or(&no_values, |net| &net.set_values);
        for (unfold, members) in groups {
            let runs = match &net {
                Some(net) => group_runs(old, new, unfold, net),
                None => Ok(Err(FallbackReason::ChainUnavailable)),
            };
            let shared = matches!(&runs, Ok(Ok(runs)) if runs.variants > 0);
            for (k, (i, entry)) in members.into_iter().enumerate() {
                let outcome = traced(|| match &runs {
                    Ok(Ok(runs)) => finish_entry(new, entry, runs, set_values),
                    Ok(Err(reason)) => Ok(MaintainOutcome::Fallback(*reason)),
                    Err(e) => Err(e.clone()),
                });
                outcomes[i] = Some(EntryOutcome {
                    outcome,
                    shared: shared && k > 0,
                });
            }
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every entry is decided"))
        .collect()
}

/// Run one entry's decision under a `maintain` span that records it.
fn traced(decide: impl FnOnce() -> Result<MaintainOutcome>) -> Result<MaintainOutcome> {
    let mut sp = trace::span("maintain");
    let result = decide();
    match &result {
        Ok(MaintainOutcome::Unchanged { .. }) => sp.field("outcome", "unchanged"),
        Ok(MaintainOutcome::Patched { rows_patched, .. }) => {
            sp.field("outcome", "maintained");
            if sp.id().is_some() {
                sp.field("rows_patched", rows_patched.to_string());
            }
        }
        Ok(MaintainOutcome::Fallback(reason)) => {
            sp.field("outcome", "fallback");
            sp.field("reason", reason.as_str());
        }
        Err(_) => sp.field("outcome", "error"),
    }
    result
}

/// The unfolded rules of an entry the maintainer can localize at all,
/// whatever the write.
fn localizable<'p>(
    prepared: &'p PreparedQuery,
    previous: &QueryOutput,
) -> std::result::Result<&'p PreparedUnfold, FallbackReason> {
    if previous.plan.is_some() {
        return Err(FallbackReason::Explain);
    }
    if prepared.strategy != Strategy::Unfold {
        return Err(FallbackReason::GraphWalk);
    }
    prepared.unfold.as_ref().ok_or(FallbackReason::NoUnfold)
}

/// The delta runs of one projection's rules: the relevance filter, then
/// the additions, the DRed over-delete and the recheck.
fn group_runs(
    old: &Engine,
    new: &Engine,
    unfold: &PreparedUnfold,
    net: &NetChanges,
) -> Result<std::result::Result<DeltaRuns, FallbackReason>> {
    let rules = &unfold.translation.rules;
    let return_vars = &unfold.translation.return_vars;
    // Every rule atom must be a stored table or a known provenance view,
    // else we cannot decide whether its contents changed.
    for rule in rules {
        for atom in rule.atoms.iter() {
            if !new.sys.db.has_table(&atom.relation)
                && !new
                    .sys
                    .specs()
                    .iter()
                    .any(|s| s.superfluous && s.prov_rel == atom.relation)
            {
                return Ok(Err(FallbackReason::ViewAtom));
            }
        }
    }
    let (adds, added_rows) = relevant_deltas(rules, &net.adds);
    let (removes, removed_rows) = relevant_deltas(rules, &net.removes);
    if added_rows + removed_rows > MAX_DELTA_ROWS {
        return Ok(Err(FallbackReason::DeltaTooLarge));
    }
    let mut runs = DeltaRuns {
        variants: adds.len() + removes.len(),
        ..DeltaRuns::default()
    };
    if runs.variants == 0 {
        return Ok(Ok(runs));
    }
    let mut sp = trace::span("maintain.delta");
    if sp.id().is_some() {
        sp.field("variants", runs.variants.to_string());
    }

    // Additions. Semi-naive delta runs against the NEW state — every new
    // firing involves at least one added row, so redirecting each atom in
    // turn to the added rows (full new state elsewhere) enumerates
    // exactly the new firings.
    runs.added = run_delta_rules(new, rules, return_vars, &adds)?;

    // Removals (DRed over-delete). The same delta runs against the OLD
    // state — where the removed rows still exist — enumerate every old
    // firing involving a removed row. Those are removal *candidates*;
    // alternative derivations rescue them below.
    runs.candidates = run_delta_rules(old, rules, return_vars, &removes)?;
    let n_candidates = runs.candidates.derivation_count() + runs.candidates.bindings.len();
    if n_candidates > MAX_CANDIDATES {
        return Ok(Err(FallbackReason::TooManyCandidates));
    }
    if n_candidates > 0 {
        runs.rescued = recheck_candidates(new, unfold, &runs.candidates)?;
    }
    Ok(Ok(runs))
}

/// Decide one entry of a group from the group's delta runs.
fn finish_entry(
    new: &Engine,
    entry: MaintainEntry<'_>,
    runs: &DeltaRuns,
    set_values: &SetValues,
) -> Result<MaintainOutcome> {
    let MaintainEntry {
        prepared,
        previous,
        state,
    } = entry;
    let patch = Patch::between(&previous.projection, runs);
    let spec = prepared.query.evaluate.as_ref();
    if patch.is_empty()
        && (spec.is_none()
            || !values_reach(&new.sys, &previous.projection, state.as_deref(), set_values))
    {
        return Ok(MaintainOutcome::Unchanged { state });
    }
    if let Some(spec) = spec {
        if matches!(
            spec.semiring,
            SemiringKind::Lineage | SemiringKind::Probability | SemiringKind::Polynomial
        ) {
            return Ok(MaintainOutcome::Fallback(FallbackReason::SetValued));
        }
    }
    let mut projection = previous.projection.clone();
    let rows_patched = patch.apply(&mut projection);

    // Annotation maintenance: bring the carried graph to the patched
    // projection (or decode it on the entry's first round), then evaluate
    // it exactly as a fresh unfold answer is evaluated.
    let (annotated, state) = match spec {
        Some(spec) => {
            let graph = match state {
                Some(state) => {
                    let mut graph = state.graph;
                    patch_graph(
                        &mut graph,
                        &new.sys,
                        &previous.projection,
                        &projection,
                        set_values,
                    )?;
                    graph
                }
                None => projection.to_graph(&new.sys)?,
            };
            let region = Region::all(&graph);
            let annotated = annotate_on(
                &new.sys,
                &graph,
                &region,
                &projection,
                spec,
                Parallelism::Serial,
            )?;
            (Some(annotated), Some(Box::new(MaintainState { graph })))
        }
        None => (None, None),
    };

    Ok(MaintainOutcome::Patched {
        output: Box::new(QueryOutput {
            projection,
            annotated,
            stats: previous.stats.clone(),
            touched: previous.touched.clone(),
            plan: None,
        }),
        rows_patched,
        state,
    })
}

type Binding = BTreeMap<String, (String, Tuple)>;

/// The rows a group's delta runs change in one entry's projection.
#[derive(Default)]
struct Patch<'r> {
    add_derivations: Vec<(&'r String, &'r Tuple)>,
    remove_derivations: Vec<(&'r String, &'r Tuple)>,
    add_bindings: Vec<&'r Binding>,
    remove_bindings: Vec<&'r Binding>,
}

impl<'r> Patch<'r> {
    /// `previous ∪ added` minus the candidates that neither the additions
    /// nor the recheck re-derived, as row edits against `previous`.
    fn between(previous: &ProjectionResult, runs: &'r DeltaRuns) -> Self {
        let mut patch = Patch::default();
        for (mapping, rows) in &runs.added.derivations {
            let have = previous.derivations.get(mapping);
            for row in rows {
                if !have.is_some_and(|s| s.contains(row)) {
                    patch.add_derivations.push((mapping, row));
                }
            }
        }
        for (mapping, rows) in &runs.candidates.derivations {
            let Some(have) = previous.derivations.get(mapping) else {
                continue;
            };
            let added = runs.added.derivations.get(mapping);
            let rescued = runs.rescued.derivations.get(mapping);
            for row in rows {
                if have.contains(row)
                    && !added.is_some_and(|s| s.contains(row))
                    && !rescued.is_some_and(|s| s.contains(row))
                {
                    patch.remove_derivations.push((mapping, row));
                }
            }
        }
        patch.add_bindings = (runs.added.bindings.iter())
            .filter(|b| !previous.bindings.contains(*b))
            .collect();
        patch.remove_bindings = (runs.candidates.bindings.iter())
            .filter(|b| {
                previous.bindings.contains(*b)
                    && !runs.added.bindings.contains(*b)
                    && !runs.rescued.bindings.contains(*b)
            })
            .collect();
        patch
    }

    fn is_empty(&self) -> bool {
        self.add_derivations.is_empty()
            && self.remove_derivations.is_empty()
            && self.add_bindings.is_empty()
            && self.remove_bindings.is_empty()
    }

    /// Apply the edits; returns how many rows they touched.
    fn apply(&self, projection: &mut ProjectionResult) -> u64 {
        for &(mapping, row) in &self.add_derivations {
            let rows = projection.derivations.entry(mapping.clone()).or_default();
            rows.insert(row.clone());
        }
        for &(mapping, row) in &self.remove_derivations {
            if let Some(rows) = projection.derivations.get_mut(mapping) {
                rows.remove(row);
            }
        }
        projection.derivations.retain(|_, rows| !rows.is_empty());
        for &b in &self.add_bindings {
            projection.bindings.insert(b.clone());
        }
        for &b in &self.remove_bindings {
            projection.bindings.remove(b);
        }
        (self.add_derivations.len()
            + self.remove_derivations.len()
            + self.add_bindings.len()
            + self.remove_bindings.len()) as u64
    }
}

/// Whether a changed stored value names a tuple of the annotated
/// subgraph: a node of the carried graph, or without one, an endpoint of
/// a derivation row. A binding with no derivation is no node of the
/// graph and annotates to zero whatever its values.
fn values_reach(
    sys: &ProvenanceSystem,
    previous: &ProjectionResult,
    state: Option<&MaintainState>,
    set_values: &SetValues,
) -> bool {
    if set_values.is_empty() {
        return false;
    }
    match state {
        Some(state) => set_values.iter().any(|(relation, keys)| {
            keys.iter()
                .any(|key| state.graph.find_tuple(relation, key).is_some())
        }),
        None => previous.derivations.iter().any(|(mapping, rows)| {
            sys.spec_for(mapping).is_none_or(|spec| {
                spec.atoms.iter().any(|recipe| {
                    // A write revalues a handful of keys: compare them in
                    // place rather than build one key per answer row.
                    set_values.get(&recipe.relation).is_some_and(|keys| {
                        rows.iter()
                            .any(|row| keys.iter().any(|key| recipe.key_matches(row, key)))
                    })
                })
            })
        }),
    }
}

/// Fold the delta chain into per-relation net row changes. A row whose
/// adds and removes cancel out over the span changed nothing observable.
fn collect_net_changes<'a>(
    sys: &ProvenanceSystem,
    entries: impl Iterator<Item = &'a proql_provgraph::GraphDelta>,
) -> NetChanges {
    let mut signed: HashMap<(String, Tuple), i64> = HashMap::new();
    let mut net = NetChanges::default();
    for entry in entries {
        for rc in &entry.rows {
            *signed
                .entry((rc.table.clone(), rc.row.clone()))
                .or_default() += if rc.added { 1 } else { -1 };
        }
        for op in &entry.ops {
            match op {
                // Superfluous provenance relations are views — their row
                // changes never hit stored-table tracking, but the graph
                // ops record them exactly. Materialized `P_m` tables are
                // covered by the raw row records; counting their ops too
                // would double-book.
                DeltaOp::AddDerivation { mapping, row }
                | DeltaOp::RemoveDerivation { mapping, row } => {
                    if let Some(spec) = sys.spec_for(mapping) {
                        if spec.superfluous {
                            let added = matches!(op, DeltaOp::AddDerivation { .. });
                            *signed
                                .entry((spec.prov_rel.clone(), row.clone()))
                                .or_default() += if added { 1 } else { -1 };
                        }
                    }
                }
                DeltaOp::SetValues { relation, key } => {
                    net.set_values
                        .entry(relation.clone())
                        .or_default()
                        .insert(key.clone());
                }
            }
        }
    }
    for ((table, row), n) in signed {
        if n > 0 {
            net.adds.entry(table).or_default().push(row);
        } else if n < 0 {
            net.removes.entry(table).or_default().push(row);
        }
    }
    net
}

/// The input of one `(rule, atom)` delta variant: the delta rows that can
/// bind the atom.
#[derive(Debug)]
struct DeltaInput {
    rule: usize,
    atom: usize,
    rows: Vec<Tuple>,
}

/// Filter `delta` against every rule atom that reads a changed relation
/// ([`can_bind`]). Returns the variant inputs left with rows, and how many
/// distinct delta rows survive for at least one atom.
fn relevant_deltas(
    rules: &[QueryRule],
    delta: &HashMap<String, Vec<Tuple>>,
) -> (Vec<DeltaInput>, usize) {
    let mut inputs = Vec::new();
    let mut reached: HashMap<&str, Vec<bool>> = HashMap::new();
    for (r, rule) in rules.iter().enumerate() {
        for (j, atom) in rule.atoms.iter().enumerate() {
            let Some(all) = delta.get(&atom.relation) else {
                continue;
            };
            let hit = reached
                .entry(atom.relation.as_str())
                .or_insert_with(|| vec![false; all.len()]);
            let rows: Vec<Tuple> = all
                .iter()
                .zip(hit.iter_mut())
                .filter(|(row, _)| can_bind(atom, rule.condition.as_ref(), row))
                .map(|(row, hit)| {
                    *hit = true;
                    row.clone()
                })
                .collect();
            if !rows.is_empty() {
                inputs.push(DeltaInput {
                    rule: r,
                    atom: j,
                    rows,
                });
            }
        }
    }
    let survivors = reached.values().flatten().filter(|&&hit| hit).count();
    (inputs, survivors)
}

/// Whether `row` can bind `atom` in a firing of a rule with `condition`:
/// false when the row contradicts one of the atom's constants or a
/// variable the atom repeats, or makes the condition definitely false.
/// These are the checks the variant's plan would apply to the row.
fn can_bind(atom: &Atom, condition: Option<&VarCond>, row: &Tuple) -> bool {
    if row.arity() != atom.terms.len() {
        return true; // compiling the variant reports the mismatch
    }
    let value_of = |var: &str| {
        (atom.terms.iter())
            .position(|t| matches!(t, Term::Var(v) if v == var))
            .map(|pos| row.get(pos))
    };
    let atom_holds = atom.terms.iter().enumerate().all(|(pos, term)| match term {
        Term::Const(c) => row.get(pos) == c,
        Term::Var(v) => value_of(v).is_none_or(|first| first == row.get(pos)),
        Term::Skolem(..) => true,
    });
    atom_holds && condition.is_none_or(|c| truth(c, &value_of) != Some(false))
}

/// Three-valued truth of `cond` with variables bound by `value_of`:
/// `None` when it depends on a variable `value_of` does not bind.
fn truth<'v>(cond: &VarCond, value_of: &impl Fn(&str) -> Option<&'v Value>) -> Option<bool> {
    match cond {
        VarCond::Lit(b) => Some(*b),
        VarCond::Cmp { var, op, value, .. } => value_of(var).map(|v| static_cmp(v, *op, value)),
        VarCond::And(parts) => {
            let mut acc = Some(true);
            for part in parts {
                match truth(part, value_of) {
                    Some(false) => return Some(false),
                    None => acc = None,
                    Some(true) => {}
                }
            }
            acc
        }
        VarCond::Or(parts) => {
            let mut acc = Some(false);
            for part in parts {
                match truth(part, value_of) {
                    Some(true) => return Some(true),
                    None => acc = None,
                    Some(false) => {}
                }
            }
            acc
        }
        VarCond::Not(inner) => truth(inner, value_of).map(|b| !b),
    }
}

/// Run every `(rule, atom)` delta variant in `inputs`: atom `j` reading
/// its rows inline, all other atoms reading `engine`'s snapshot in full.
/// Merges all partial results.
fn run_delta_rules(
    engine: &Engine,
    rules: &[QueryRule],
    return_vars: &[String],
    inputs: &[DeltaInput],
) -> Result<ProjectionResult> {
    let db = &engine.sys.db;
    let mut out = ProjectionResult::default();
    for input in inputs {
        let rule = &rules[input.rule];
        let bp = delta_variant(db, &rule.atoms, input.atom, &input.rows)?;
        let mut plan = bp.plan;
        if let Some(cond) = &rule.condition {
            plan = plan.filter(cond_to_expr(cond, &bp.var_cols, None)?);
        }
        let prepared = PreparedRule {
            plan: optimize_with(db, plan),
            var_cols: bp.var_cols,
        };
        run_rule(
            db,
            rule,
            &prepared,
            return_vars,
            engine.options.exec_mode,
            Parallelism::Serial,
            &mut out,
        )?;
    }
    Ok(out)
}

/// The DRed re-derivation check: run each rule against the NEW state
/// filtered down to rows that could produce one of the removal
/// candidates. Everything these runs emit is still derivable and must
/// not be removed.
fn recheck_candidates(
    new: &Engine,
    unfold: &crate::engine::PreparedUnfold,
    candidates: &ProjectionResult,
) -> Result<ProjectionResult> {
    let mut out = ProjectionResult::default();
    for (rule, prep) in unfold.translation.rules.iter().zip(&unfold.rules) {
        let mut or_parts: Vec<Expr> = Vec::new();
        // A candidate derivation row is re-derivable through this rule
        // iff some output provenance record of the same mapping can emit
        // it: constants must match statically, variables become
        // column-equality conjuncts.
        for (mapping, rows) in &candidates.derivations {
            for rec in rule.prov_records.iter() {
                if !rec.output || &rec.mapping != mapping {
                    continue;
                }
                'row: for row in rows {
                    let mut conj: Vec<Expr> = Vec::new();
                    for (k, term) in rec.terms.iter().enumerate() {
                        match term {
                            proql_datalog::ast::Term::Const(v) => {
                                if v != row.get(k) {
                                    continue 'row;
                                }
                            }
                            proql_datalog::ast::Term::Var(name) => {
                                let Some(&col) = prep.var_cols.get(name) else {
                                    continue 'row;
                                };
                                conj.push(Expr::col(col).eq(Expr::Lit(row.get(k).clone())));
                            }
                            proql_datalog::ast::Term::Skolem(..) => continue 'row,
                        }
                    }
                    or_parts.push(Expr::and(conj));
                }
            }
        }
        // A candidate binding is re-derivable through this rule iff the
        // rule binds every RETURN variable to the same relation and the
        // key columns can equal the candidate's key.
        'binding: for b in &candidates.bindings {
            let mut conj: Vec<Expr> = Vec::new();
            for (var, (relation, key)) in b {
                let Some(nb) = rule.node_bindings.get(var) else {
                    continue 'binding;
                };
                if &nb.relation != relation {
                    continue 'binding;
                }
                let schema = new.sys.db.schema_of(&nb.relation)?;
                for (i, &pos) in schema.effective_key().iter().enumerate() {
                    match &nb.terms[pos] {
                        proql_datalog::ast::Term::Const(v) => {
                            if v != key.get(i) {
                                continue 'binding;
                            }
                        }
                        proql_datalog::ast::Term::Var(name) => {
                            let Some(&col) = prep.var_cols.get(name) else {
                                continue 'binding;
                            };
                            conj.push(Expr::col(col).eq(Expr::Lit(key.get(i).clone())));
                        }
                        proql_datalog::ast::Term::Skolem(..) => continue 'binding,
                    }
                }
            }
            or_parts.push(Expr::and(conj));
        }
        if or_parts.is_empty() {
            continue;
        }
        let plan = optimize_with(&new.sys.db, prep.plan.clone().filter(Expr::Or(or_parts)));
        let filtered = PreparedRule {
            plan,
            var_cols: prep.var_cols.clone(),
        };
        run_rule(
            &new.sys.db,
            rule,
            &filtered,
            &unfold.translation.return_vars,
            new.options.exec_mode,
            Parallelism::Serial,
            &mut out,
        )?;
    }
    Ok(out)
}

/// Patch `graph` — the decoded subgraph of `before` — into the decoded
/// subgraph of `after`: add the new derivation rows, remove the dropped
/// ones, refresh the stored values of changed tuples, then compact. Tuple
/// values resolve against `sys`, the state `after` was computed at.
fn patch_graph(
    graph: &mut ProvGraph,
    sys: &ProvenanceSystem,
    before: &ProjectionResult,
    after: &ProjectionResult,
    set_values: &SetValues,
) -> Result<()> {
    let empty = BTreeSet::new();
    for (mapping, rows) in &after.derivations {
        let Some(spec) = sys.spec_for(mapping) else {
            continue;
        };
        let is_base = sys
            .rule_for(mapping)
            .and_then(|r| r.body.first())
            .is_some_and(|a| sys.is_local_relation(&a.relation));
        for row in rows.difference(before.derivations.get(mapping).unwrap_or(&empty)) {
            graph.add_derivation_from_row(sys, spec, row, is_base)?;
        }
    }
    for (mapping, rows) in &before.derivations {
        for row in rows.difference(after.derivations.get(mapping).unwrap_or(&empty)) {
            graph.remove_derivation_row(mapping, row);
        }
    }
    for (relation, keys) in set_values {
        for key in keys {
            graph.refresh_values(sys, relation, key);
        }
    }
    graph.maybe_compact();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineOptions};
    use proql_common::{tup, Schema, ValueType};

    /// Acyclic fixture: `X → Y` through the superfluous `my`, `X ⋈ Y → Z`
    /// through the materialized `P_mz`. `Strategy::Auto` resolves to
    /// `Unfold`, which is what maintenance requires.
    fn acyclic_system() -> ProvenanceSystem {
        let mut sys = ProvenanceSystem::new();
        for name in ["X", "Y"] {
            sys.add_relation_with_local(
                Schema::build(name, &[("id", ValueType::Int), ("w", ValueType::Int)], &[0])
                    .unwrap(),
            )
            .unwrap();
        }
        sys.add_relation(
            Schema::build(
                "Z",
                &[
                    ("id", ValueType::Int),
                    ("a", ValueType::Int),
                    ("b", ValueType::Int),
                ],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
        sys.add_mapping_text("my: Y(i, w) :- X(i, w)").unwrap();
        sys.add_mapping_text("mz: Z(i, a, b) :- X(i, a), Y(i, b)")
            .unwrap();
        for i in 0..4i64 {
            sys.insert_local("X", tup![i, i * 10]).unwrap();
        }
        sys.run_exchange().unwrap();
        sys
    }

    const PROJ_Q: &str = "FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
    const WEIGHT_Q: &str = "EVALUATE WEIGHT OF {
           FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x
         } ASSIGNING EACH leaf_node $y {
           CASE $y in X : SET 2
           DEFAULT : SET 1
         } ASSIGNING EACH mapping $p($z) {
           CASE $p = mz : SET $z + 5
           DEFAULT : SET $z
         }";

    /// Execute `q` at a base version, mutate a cloned system, maintain the
    /// cached output forward, and return it with a fresh recomputation.
    fn roundtrip(
        q: &str,
        mutate: impl FnOnce(&mut ProvenanceSystem),
    ) -> (QueryOutput, QueryOutput, u64) {
        let old = Engine::new(acyclic_system());
        let prepared = old.prepare(q).unwrap();
        let previous = old.execute(&prepared).unwrap();
        let mut sys2 = old.sys.clone();
        mutate(&mut sys2);
        let new = Engine::with_options(sys2, old.options.clone());
        match maintain_output(&old, &new, &prepared, &previous, None).unwrap() {
            MaintainResult::Maintained {
                output,
                rows_patched,
                ..
            } => {
                let fresh = new.execute(&prepared).unwrap();
                (*output, fresh, rows_patched)
            }
            MaintainResult::Fallback(reason) => panic!("unexpected fallback: {reason}"),
        }
    }

    fn assert_projection_eq(a: &QueryOutput, b: &QueryOutput) {
        assert_eq!(a.projection.derivations, b.projection.derivations);
        assert_eq!(a.projection.bindings, b.projection.bindings);
    }

    #[test]
    fn insert_is_maintained_to_match_recompute() {
        let (maintained, fresh, patched) = roundtrip(PROJ_Q, |sys| {
            sys.insert_local("X", tup![9, 90]).unwrap();
            sys.run_exchange().unwrap();
        });
        assert_projection_eq(&maintained, &fresh);
        assert!(patched > 0, "the insert must reach the cached answer");
        assert!(maintained
            .projection
            .bindings
            .iter()
            .any(|b| b["x"].1 == tup![9]));
    }

    #[test]
    fn tracked_delete_is_maintained_via_dred() {
        let (maintained, fresh, patched) = roundtrip(PROJ_Q, |sys| {
            sys.delete_row_tracked("X_l", &tup![1]).unwrap();
            assert!(sys.commit_tracked_mutation());
        });
        assert_projection_eq(&maintained, &fresh);
        assert!(patched > 0, "the delete must reach the cached answer");
    }

    #[test]
    fn mixed_write_is_maintained() {
        let (maintained, fresh, _) = roundtrip(PROJ_Q, |sys| {
            sys.delete_row_tracked("X_l", &tup![2]).unwrap();
            assert!(sys.commit_tracked_mutation());
            sys.insert_local("X", tup![7, 70]).unwrap();
            sys.insert_local("Y", tup![8, 80]).unwrap();
            sys.run_exchange().unwrap();
        });
        assert_projection_eq(&maintained, &fresh);
    }

    #[test]
    fn weight_annotation_is_maintained_across_two_rounds() {
        let old = Engine::new(acyclic_system());
        let prepared = old.prepare(WEIGHT_Q).unwrap();
        let previous = old.execute(&prepared).unwrap();

        // Round 1: an insert, bootstrapping the annotation state.
        let mut sys2 = old.sys.clone();
        sys2.insert_local("X", tup![9, 90]).unwrap();
        sys2.run_exchange().unwrap();
        let mid = Engine::with_options(sys2, old.options.clone());
        let MaintainResult::Maintained {
            output: out1,
            state: state1,
            ..
        } = maintain_output(&old, &mid, &prepared, &previous, None).unwrap()
        else {
            panic!("round 1 fell back");
        };
        let fresh1 = mid.execute(&prepared).unwrap();
        assert_projection_eq(&out1, &fresh1);
        assert_eq!(
            out1.annotated.as_ref().unwrap().rows,
            fresh1.annotated.as_ref().unwrap().rows
        );

        // Round 2: a delete, reusing the carried state (no re-bootstrap).
        let mut sys3 = mid.sys.clone();
        sys3.delete_row_tracked("X_l", &tup![1]).unwrap();
        assert!(sys3.commit_tracked_mutation());
        let new = Engine::with_options(sys3, mid.options.clone());
        let MaintainResult::Maintained { output: out2, .. } =
            maintain_output(&mid, &new, &prepared, &out1, state1).unwrap()
        else {
            panic!("round 2 fell back");
        };
        let fresh2 = new.execute(&prepared).unwrap();
        assert_projection_eq(&out2, &fresh2);
        assert_eq!(
            out2.annotated.as_ref().unwrap().rows,
            fresh2.annotated.as_ref().unwrap().rows
        );
    }

    #[test]
    fn carried_graph_stays_compact_across_many_rounds() {
        // Regression: the carried graph was never compacted, so every
        // insert/delete pair left tombstones behind for good.
        let mut engine = Engine::new(acyclic_system());
        let prepared = engine.prepare(WEIGHT_Q).unwrap();
        let mut output = engine.execute(&prepared).unwrap();
        let mut state = None;
        for round in 0..200i64 {
            let mut sys = engine.sys.clone();
            let k = 100 + round / 2;
            if round % 2 == 0 {
                sys.insert_local("X", tup![k, k]).unwrap();
                sys.run_exchange().unwrap();
            } else {
                proql_cdss::update::delete_local(&mut sys, "X", &tup![k]).unwrap();
            }
            let next = Engine::with_options(sys, engine.options.clone());
            let MaintainResult::Maintained {
                output: patched,
                state: next_state,
                ..
            } = maintain_output(&engine, &next, &prepared, &output, state).unwrap()
            else {
                panic!("round {round} fell back");
            };
            let graph = &next_state.as_ref().unwrap().graph;
            let (bound, live) = (graph.tuple_id_bound(), graph.tuple_count());
            assert!(
                3 * bound <= 4 * live + 48,
                "round {round}: {bound} tuple ids for {live} live tuples"
            );
            (engine, output, state) = (next, *patched, next_state);
        }
        let fresh = engine.execute(&prepared).unwrap();
        assert_eq!(
            output.annotated.unwrap().rows,
            fresh.annotated.unwrap().rows
        );
    }

    #[test]
    fn broken_delta_chain_falls_back() {
        let old = Engine::new(acyclic_system());
        let prepared = old.prepare(PROJ_Q).unwrap();
        let previous = old.execute(&prepared).unwrap();
        let mut sys2 = old.sys.clone();
        sys2.db.insert("Y", tup![50, 50]).unwrap();
        sys2.bump_version();
        let new = Engine::with_options(sys2, old.options.clone());
        match maintain_output(&old, &new, &prepared, &previous, None).unwrap() {
            MaintainResult::Fallback(reason) => {
                assert_eq!(reason, "delta chain unavailable")
            }
            MaintainResult::Maintained { .. } => panic!("must not maintain across a broken chain"),
        }
    }

    #[test]
    fn graph_strategy_and_set_valued_semirings_fall_back() {
        let opts = EngineOptions {
            strategy: Strategy::Graph,
            ..EngineOptions::default()
        };
        let old = Engine::with_options(acyclic_system(), opts);
        let prepared = old.prepare(PROJ_Q).unwrap();
        let previous = old.execute(&prepared).unwrap();
        match maintain_output(&old, &old, &prepared, &previous, None).unwrap() {
            MaintainResult::Fallback(reason) => assert_eq!(reason, "graph-walk strategy"),
            MaintainResult::Maintained { .. } => panic!("graph strategy must fall back"),
        }

        // A set-valued answer the write reaches is evicted.
        let q = "EVALUATE LINEAGE OF { FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x }";
        let old = Engine::new(acyclic_system());
        let prepared = old.prepare(q).unwrap();
        let previous = old.execute(&prepared).unwrap();
        let mut sys = old.sys.clone();
        sys.insert_local("X", tup![9, 90]).unwrap();
        sys.run_exchange().unwrap();
        let new = Engine::with_options(sys, old.options.clone());
        match maintain_output(&old, &new, &prepared, &previous, None).unwrap() {
            MaintainResult::Fallback(reason) => assert_eq!(reason, "set-valued semiring"),
            MaintainResult::Maintained { .. } => panic!("set-valued semirings must fall back"),
        }
    }

    #[test]
    fn irrelevant_write_keeps_set_valued_entry() {
        // The insert's key lies outside the WHERE range, so no delta row
        // can bind any atom that carries `i`: the answer stays resident.
        let q = "EVALUATE LINEAGE OF {
                   FOR [Z $x] INCLUDE PATH [$x] <-+ [] WHERE $x.id < 3 RETURN $x
                 }";
        let old = Engine::new(acyclic_system());
        let prepared = old.prepare(q).unwrap();
        let previous = old.execute(&prepared).unwrap();
        let mut sys = old.sys.clone();
        sys.insert_local("X", tup![9, 90]).unwrap();
        sys.run_exchange().unwrap();
        let new = Engine::with_options(sys, old.options.clone());
        let entry = MaintainEntry {
            prepared: &prepared,
            previous: &previous,
            state: None,
        };
        let outcome = maintain_outputs(&old, &new, vec![entry]).pop().unwrap();
        assert!(!outcome.shared);
        assert!(
            matches!(
                outcome.outcome,
                Ok(MaintainOutcome::Unchanged { state: None })
            ),
            "{:?}",
            outcome.outcome
        );
        let fresh = new.execute(&prepared).unwrap();
        assert_projection_eq(&previous, &fresh);
        assert_eq!(
            previous.annotated.unwrap().rows,
            fresh.annotated.unwrap().rows
        );
    }

    #[test]
    fn relevance_filter_drops_rows_that_cannot_bind() {
        let engine = Engine::new(acyclic_system());
        let rules_of = |q: &str| {
            let prepared = engine.prepare(q).unwrap();
            prepared.unfold.unwrap().translation.rules
        };
        // The rules read `P_mz(i)`, `P_L_X(i)`, `X_l(i, a)` and `P_my(i)`.
        let delta: HashMap<String, Vec<Tuple>> = [
            ("X_l".to_string(), vec![tup![1, 5], tup![9, 90]]),
            ("P_my".to_string(), vec![tup![9]]),
        ]
        .into_iter()
        .collect();
        let survivors = |cond: &str| {
            let q = format!("FOR [Z $x] INCLUDE PATH [$x] <-+ [] {cond} RETURN $x");
            relevant_deltas(&rules_of(&q), &delta)
        };
        assert_eq!(survivors("").1, 3);
        let (inputs, n) = survivors("WHERE $x.id < 3");
        assert_eq!(n, 1);
        assert!(inputs.iter().all(|i| i.rows == [tup![1, 5]]));
        // `P_my` binds no `a`: the disjunct is unknown, so the row stays.
        assert_eq!(survivors("WHERE $x.id < 3 OR $x.a >= 50").1, 3);
        assert_eq!(survivors("WHERE $x.id < 3 AND $x.a >= 50").1, 0);
        assert_eq!(survivors("WHERE NOT $x.id < 3").1, 2);
    }

    #[test]
    fn explain_outputs_fall_back() {
        let old = Engine::new(acyclic_system());
        let prepared = old
            .prepare("EXPLAIN FOR [Z $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
            .unwrap();
        let previous = old.execute(&prepared).unwrap();
        match maintain_output(&old, &old, &prepared, &previous, None).unwrap() {
            MaintainResult::Fallback(reason) => assert_eq!(reason, "explain output"),
            MaintainResult::Maintained { .. } => panic!("EXPLAIN output must fall back"),
        }
    }

    #[test]
    fn untouched_span_is_a_no_op_patch() {
        let (maintained, fresh, patched) = roundtrip(PROJ_Q, |sys| {
            // A duplicate insert is a set-semantics no-op: nothing is
            // staged, no version bump, an empty delta span.
            let inserted = sys.insert_local("X", tup![0, 0]).unwrap();
            assert!(!inserted);
        });
        assert_projection_eq(&maintained, &fresh);
        assert_eq!(patched, 0);
    }
}
