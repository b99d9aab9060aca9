//! ProQL → conjunctive rules over provenance relations (paper §4.2).
//!
//! The pipeline: match the query's path expressions against the provenance
//! schema graph, then **unfold** (§4.2.4): every public-relation atom is
//! repeatedly replaced by the alternatives that derive it — the relation's
//! local-contribution table, or `P_m` + source atoms for each mapping `m`
//! deriving it — until only provenance-relation and local-contribution
//! atoms remain. Each complete alternative becomes one conjunctive
//! [`QueryRule`]; the union of all rules is the query.
//!
//! The number of unfolded rules grows exponentially with the number of
//! peers holding local data (paper Figures 7–8) — that is inherent to the
//! approach, not an implementation artifact.

use crate::ast::{CmpOp, Condition, NodePattern, PathExpr, Query, StepPattern};
use proql_common::{Error, Result, Value};
use proql_datalog::ast::{Atom, Term};
use proql_datalog::unfold::{apply_term, rename_apart, unify_atoms, Subst};
use proql_provgraph::{ProvenanceSystem, SchemaGraph};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// One provenance-relation occurrence inside a rule: executing the rule and
/// resolving `terms` against a result row yields one `P_mapping` row — one
/// derivation node of the output subgraph.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvRecord {
    /// Mapping name.
    pub mapping: String,
    /// The provenance-relation columns as terms over the rule's variables.
    pub terms: Vec<Term>,
    /// True when this record belongs to an INCLUDE PATH expression (it is
    /// copied to the output graph).
    pub output: bool,
}

/// Where a pattern variable is bound inside a rule.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeBinding {
    /// The node's relation.
    pub relation: String,
    /// The full term vector of the node's tuple (positionally matching the
    /// relation's attributes).
    pub terms: Vec<Term>,
}

/// A runtime condition over rule variables (compiled to a plan filter).
#[derive(Debug, Clone, PartialEq)]
pub enum VarCond {
    /// Statically known truth value.
    Lit(bool),
    /// `var op value`.
    Cmp {
        /// Rule variable.
        var: String,
        /// Operator.
        op: CmpOp,
        /// Literal.
        value: Value,
        /// Which literal of the WHERE clause `value` is: the position of
        /// its comparison among the clause's `$x.attr op literal`
        /// comparisons, in reading order (see [`crate::shape`]).
        slot: usize,
    },
    /// Conjunction.
    And(Vec<VarCond>),
    /// Disjunction.
    Or(Vec<VarCond>),
    /// Negation.
    Not(Box<VarCond>),
}

impl VarCond {
    fn simplify(self) -> VarCond {
        match self {
            VarCond::And(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    match p.simplify() {
                        VarCond::Lit(true) => {}
                        VarCond::Lit(false) => return VarCond::Lit(false),
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => VarCond::Lit(true),
                    1 => out.pop().unwrap(),
                    _ => VarCond::And(out),
                }
            }
            VarCond::Or(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    match p.simplify() {
                        VarCond::Lit(false) => {}
                        VarCond::Lit(true) => return VarCond::Lit(true),
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => VarCond::Lit(false),
                    1 => out.pop().unwrap(),
                    _ => VarCond::Or(out),
                }
            }
            VarCond::Not(inner) => match inner.simplify() {
                VarCond::Lit(b) => VarCond::Lit(!b),
                other => VarCond::Not(Box::new(other)),
            },
            leaf => leaf,
        }
    }
}

/// One unfolded conjunctive rule. Everything but the condition comes from
/// the unfolded alternative alone and is shared, not copied, by every
/// rule built from it (one per query of a shape, see [`crate::shape`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRule {
    /// Body atoms: provenance relations, local-contribution tables, and
    /// (for single-step patterns) public relations.
    pub atoms: Arc<[Atom]>,
    /// Provenance occurrences (the derivation nodes this rule witnesses).
    pub prov_records: Arc<[ProvRecord]>,
    /// Pattern-variable bindings.
    pub node_bindings: Arc<HashMap<String, NodeBinding>>,
    /// Derivation-variable bindings (`$p` → mapping name).
    pub mapping_bindings: Arc<HashMap<String, String>>,
    /// Residual WHERE condition (statically undecidable parts).
    pub condition: Option<VarCond>,
}

/// Rewrites rule bodies before compilation — the hook ASR rewriting plugs
/// into (paper §5.2, `unfoldASRs`).
pub trait BodyRewriter {
    /// Rewrite a body; must preserve semantics and keep every variable that
    /// occurs in the input body occurring in the output.
    fn rewrite(&self, body: Vec<Atom>) -> Result<Vec<Atom>>;
}

/// Translation statistics (the paper's "number of unfolded rules" and the
/// inputs to its Figures 7–8).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TranslateStats {
    /// Unfolded conjunctive rules produced.
    pub rules: usize,
    /// Rules dropped by static WHERE evaluation.
    pub dropped: usize,
    /// Total body atoms across rules.
    pub total_atoms: usize,
}

/// The result of translation.
#[derive(Debug, Clone, PartialEq)]
pub struct Translation {
    /// The unfolded rules.
    pub rules: Vec<QueryRule>,
    /// Statistics.
    pub stats: TranslateStats,
    /// The query's RETURN variables.
    pub return_vars: Vec<String>,
    /// Relations found empty by goal-directed pruning: an alternative
    /// through them was dropped. The translation read them, and it no
    /// longer holds once any of them has a row.
    pub pruned_on: BTreeSet<String>,
}

impl Translation {
    /// The read set of an answer computed from this translation: its rule
    /// atoms, the relations pruning found empty, and the mappings its
    /// rules witness (see [`crate::engine::read_set`]).
    pub(crate) fn read_set(&self, sys: &ProvenanceSystem) -> BTreeSet<String> {
        crate::engine::read_set(
            sys,
            self.rules
                .iter()
                .flat_map(|r| r.atoms.iter().map(|a| a.relation.as_str()))
                .chain(self.pruned_on.iter().map(String::as_str)),
            self.rules
                .iter()
                .flat_map(|r| r.prov_records.iter().map(|p| p.mapping.as_str())),
        )
    }
}

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct TranslateOptions {
    /// Abort when more rules than this would be produced.
    pub max_rules: usize,
    /// Maximum unfolding depth along one branch.
    pub max_depth: usize,
    /// Maximum `<-+` linear-path length when the endpoint is constrained.
    pub max_plus_len: usize,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions {
            max_rules: 200_000,
            max_depth: 64,
            max_plus_len: 24,
        }
    }
}

/// Translate a parsed query against a provenance system: expand its path
/// patterns into alternatives, then apply its `WHERE` clause to each.
pub fn translate(
    sys: &ProvenanceSystem,
    query: &Query,
    rewriter: Option<&dyn BodyRewriter>,
    opts: &TranslateOptions,
) -> Result<Translation> {
    Ok(expand(sys, query, opts)?.bind(sys, query, rewriter)?.0)
}

/// The literal-free part of translation: match and unfold the query's
/// path patterns and merge them on shared variables. Everything here
/// depends on the patterns, the relation constraints (`[R $x]`, `$x in
/// R`) and the system, never on a `WHERE` literal, so every query of one
/// shape (see [`crate::shape`]) shares one expansion.
pub(crate) fn expand(
    sys: &ProvenanceSystem,
    query: &Query,
    opts: &TranslateOptions,
) -> Result<Expansion> {
    let mut tr = Translator {
        sys,
        graph: sys.schema_graph(),
        fresh: 0,
        opts,
        produced: 0,
        pruned_on: BTreeSet::new(),
    };
    let alternatives = tr
        .expand(query)?
        .into_iter()
        .map(|p| Alternative {
            atoms: p.atoms.into_iter().flatten().collect(),
            prov: p.prov.into(),
            nodes: Arc::new(p.nodes),
            maps: Arc::new(p.maps),
        })
        .collect();
    Ok(Expansion {
        alternatives,
        pruned_on: tr.pruned_on,
    })
}

/// A query's unfolded alternatives before its `WHERE` clause applies.
#[derive(Debug, Clone)]
pub(crate) struct Expansion {
    alternatives: Vec<Alternative>,
    pruned_on: BTreeSet<String>,
}

/// One complete unfolded alternative: the parts of every rule built from
/// it except the condition.
#[derive(Debug, Clone)]
struct Alternative {
    atoms: Arc<[Atom]>,
    prov: Arc<[ProvRecord]>,
    nodes: Arc<HashMap<String, NodeBinding>>,
    maps: Arc<HashMap<String, String>>,
}

impl Expansion {
    /// Apply `query`'s `WHERE` clause to every alternative and finalize
    /// the survivors into rules: exactly the [`Translation`] of `query`.
    /// Comparisons against constant terms are decided here, per call, and
    /// an alternative they make false is dropped. Also returns the index
    /// of each kept alternative, in rule order.
    pub(crate) fn bind(
        &self,
        sys: &ProvenanceSystem,
        query: &Query,
        rewriter: Option<&dyn BodyRewriter>,
    ) -> Result<(Translation, Vec<usize>)> {
        let proj = &query.projection;
        let mut rules = Vec::new();
        let mut kept = Vec::new();
        let mut stats = TranslateStats::default();
        for (i, alt) in self.alternatives.iter().enumerate() {
            let cond = match &proj.where_cond {
                None => None,
                Some(c) => {
                    let vc = lower_condition(sys, c, alt, &mut 0)?.simplify();
                    match vc {
                        VarCond::Lit(false) => {
                            stats.dropped += 1;
                            continue;
                        }
                        VarCond::Lit(true) => None,
                        other => Some(other),
                    }
                }
            };
            // Check RETURN vars are bound in this alternative.
            if !proj.return_vars.iter().all(|v| alt.nodes.contains_key(v)) {
                stats.dropped += 1;
                continue;
            }
            let atoms = match rewriter {
                Some(rw) => rw.rewrite(alt.atoms.to_vec())?.into(),
                None => Arc::clone(&alt.atoms),
            };
            stats.total_atoms += atoms.len();
            rules.push(QueryRule {
                atoms,
                prov_records: Arc::clone(&alt.prov),
                node_bindings: Arc::clone(&alt.nodes),
                mapping_bindings: Arc::clone(&alt.maps),
                condition: cond,
            });
            kept.push(i);
        }
        stats.rules = rules.len();
        let translation = Translation {
            rules,
            stats,
            return_vars: proj.return_vars.clone(),
            pruned_on: self.pruned_on.clone(),
        };
        Ok((translation, kept))
    }

    /// Every relation any alternative scans (after `rewriter`, as
    /// [`Self::bind`] applies it) or pruned on, and every mapping any
    /// alternative witnesses: what the widest binding reads.
    pub(crate) fn reads(
        &self,
        rewriter: Option<&dyn BodyRewriter>,
    ) -> Result<(BTreeSet<String>, BTreeSet<&str>)> {
        let mut relations = self.pruned_on.clone();
        let mut mappings = BTreeSet::new();
        for alt in &self.alternatives {
            match rewriter {
                Some(rw) => {
                    let rewritten = rw.rewrite(alt.atoms.to_vec())?;
                    relations.extend(rewritten.into_iter().map(|a| a.relation));
                }
                None => relations.extend(alt.atoms.iter().map(|a| a.relation.clone())),
            }
            mappings.extend(alt.prov.iter().map(|r| r.mapping.as_str()));
        }
        Ok((relations, mappings))
    }

    /// The column a `$var.attr` comparison reads in the first alternative
    /// that binds `var`: its node relation and the attribute's position.
    pub(crate) fn node_column(
        &self,
        sys: &ProvenanceSystem,
        var: &str,
        attr: &str,
    ) -> Option<(String, usize)> {
        let b = self.alternatives.iter().find_map(|a| a.nodes.get(var))?;
        let pos = sys.db.schema_of(&b.relation).ok()?.position(attr)?;
        Some((b.relation.clone(), pos))
    }
}

/// A rule under construction. Atoms use tombstones so indices stay stable
/// across unfolding steps.
#[derive(Debug, Clone, Default)]
struct Partial {
    atoms: Vec<Option<Atom>>,
    prov: Vec<ProvRecord>,
    nodes: HashMap<String, NodeBinding>,
    maps: HashMap<String, String>,
}

impl Partial {
    fn apply_subst(&mut self, s: &Subst) {
        for atom in self.atoms.iter_mut().flatten() {
            *atom = proql_datalog::unfold::substitute_atom(s, atom);
        }
        for rec in &mut self.prov {
            for t in &mut rec.terms {
                *t = apply_term(s, t);
            }
        }
        for nb in self.nodes.values_mut() {
            for t in &mut nb.terms {
                *t = apply_term(s, t);
            }
        }
    }

    fn push_atom(&mut self, atom: Atom) -> usize {
        self.atoms.push(Some(atom));
        self.atoms.len() - 1
    }

    fn atom(&self, idx: usize) -> &Atom {
        self.atoms[idx].as_ref().expect("atom index must be live")
    }
}

struct Translator<'a> {
    sys: &'a ProvenanceSystem,
    graph: &'a SchemaGraph,
    fresh: usize,
    opts: &'a TranslateOptions,
    produced: usize,
    pruned_on: BTreeSet<String>,
}

impl<'a> Translator<'a> {
    fn fresh_suffix(&mut self) -> String {
        self.fresh += 1;
        format!("u{}", self.fresh)
    }

    fn fresh_var(&mut self) -> String {
        self.fresh += 1;
        format!("v{}", self.fresh)
    }

    fn budget(&mut self, n: usize) -> Result<()> {
        self.produced += n;
        if self.produced > self.opts.max_rules {
            return Err(Error::Query(format!(
                "query unfolds into more than {} rules; narrow the pattern \
                 or raise TranslateOptions::max_rules",
                self.opts.max_rules
            )));
        }
        Ok(())
    }

    fn expand(&mut self, query: &Query) -> Result<Vec<Partial>> {
        let proj = &query.projection;
        // Pre-pass: relation constraints per variable, from node patterns
        // across all paths and from top-level `$x in R` conjuncts.
        let mut rel_constraints: HashMap<String, String> = HashMap::new();
        for p in proj.for_paths.iter().chain(&proj.include_paths) {
            collect_relation_constraints(p, &mut rel_constraints)?;
        }
        if let Some(cond) = &proj.where_cond {
            collect_where_constraints(cond, &mut rel_constraints)?;
        }

        // A single-node FOR path whose variable also occurs in an INCLUDE
        // path is subsumed by that path's expansion (its relation
        // constraint was already collected); expanding it separately would
        // only add a redundant join with the public relation.
        let include_vars: Vec<&str> = proj.include_paths.iter().flat_map(path_vars).collect();
        let all_paths: Vec<(&PathExpr, bool)> = proj
            .for_paths
            .iter()
            .filter(|p| {
                !(p.steps.is_empty()
                    && p.start
                        .var
                        .as_deref()
                        .is_some_and(|v| include_vars.contains(&v)))
            })
            .map(|p| (p, proj.include_paths.is_empty()))
            .chain(proj.include_paths.iter().map(|p| (p, true)))
            .collect();

        // Expand every path and merge on shared variables.
        let mut combined: Option<Vec<Partial>> = None;
        for (p, output) in &all_paths {
            let expansions = self.expand_path(p, *output, &rel_constraints)?;
            combined = Some(match combined {
                None => expansions,
                Some(done) => self.merge(done, expansions)?,
            });
        }
        Ok(combined.unwrap_or_default())
    }

    /// All public relations (not local contributions, not provenance).
    fn public_relations(&self) -> Vec<String> {
        self.graph
            .relations()
            .iter()
            .filter(|r| !self.sys.is_local_relation(r) && !r.starts_with("P_"))
            .cloned()
            .collect()
    }

    fn start_candidates(
        &self,
        pattern: &NodePattern,
        constraints: &HashMap<String, String>,
    ) -> Vec<String> {
        if let Some(r) = &pattern.relation {
            return vec![r.clone()];
        }
        if let Some(v) = &pattern.var {
            if let Some(r) = constraints.get(v) {
                return vec![r.clone()];
            }
        }
        self.public_relations()
    }

    fn expand_path(
        &mut self,
        path: &PathExpr,
        output: bool,
        constraints: &HashMap<String, String>,
    ) -> Result<Vec<Partial>> {
        // Seed: one partial per candidate start relation.
        let mut frontier_states: Vec<(Partial, usize)> = Vec::new();
        for rel in self.start_candidates(&path.start, constraints) {
            if !self.graph.has_relation(&rel) {
                continue;
            }
            let arity = match self.sys.db.schema_of(&rel) {
                Ok(s) => s.arity(),
                Err(_) => continue,
            };
            let mut partial = Partial::default();
            let terms: Vec<Term> = (0..arity).map(|_| Term::var(self.fresh_var())).collect();
            let idx = partial.push_atom(Atom::new(rel.clone(), terms.clone()));
            if let Some(v) = &path.start.var {
                partial.nodes.insert(
                    v.clone(),
                    NodeBinding {
                        relation: rel.clone(),
                        terms,
                    },
                );
            }
            frontier_states.push((partial, idx));
        }

        for (step_idx, (step, node)) in path.steps.iter().enumerate() {
            let is_last = step_idx + 1 == path.steps.len();
            let mut next: Vec<(Partial, usize)> = Vec::new();
            let mut finished: Vec<Partial> = Vec::new();
            match step {
                StepPattern::Single(dp) => {
                    for (partial, fidx) in frontier_states {
                        let rel = partial.atom(fidx).relation.clone();
                        let mappings: Vec<String> = self
                            .graph
                            .mappings_deriving(&rel)
                            .into_iter()
                            .map(str::to_string)
                            .collect();
                        for m in mappings {
                            if self.graph.is_local_mapping(&m) {
                                continue;
                            }
                            if let Some(want) = &dp.mapping {
                                if *want != m {
                                    continue;
                                }
                            }
                            if let Some((p2, srcs)) =
                                self.unfold_via(partial.clone(), fidx, &m, output)?
                            {
                                for sidx in srcs {
                                    let srel = p2.atom(sidx).relation.clone();
                                    if !node_matches(node, &srel, constraints) {
                                        continue;
                                    }
                                    let mut p3 = p2.clone();
                                    if let Some(dv) = &dp.var {
                                        if let Some(prev) = p3.maps.get(dv) {
                                            if *prev != m {
                                                continue;
                                            }
                                        }
                                        p3.maps.insert(dv.clone(), m.clone());
                                    }
                                    bind_node(&mut p3, node, sidx)?;
                                    next.push((p3, sidx));
                                }
                            }
                        }
                    }
                }
                StepPattern::Plus => {
                    if node.is_any() {
                        // Full derivation closure to the leaves.
                        if !is_last {
                            return Err(Error::Query(
                                "`<-+ []` must be the final step of a path expression".into(),
                            ));
                        }
                        for (partial, fidx) in frontier_states {
                            let closed =
                                self.close_fully(partial, fidx, &mut Vec::new(), 0, output)?;
                            finished.extend(closed);
                        }
                        return Ok(finished);
                    }
                    // Constrained endpoint: enumerate linear mapping paths.
                    for (partial, fidx) in frontier_states {
                        let mut layer: Vec<(Partial, usize, Vec<String>)> =
                            vec![(partial, fidx, Vec::new())];
                        for _depth in 0..self.opts.max_plus_len {
                            let mut next_layer = Vec::new();
                            for (p, fi, used) in layer {
                                let rel = p.atom(fi).relation.clone();
                                let mappings: Vec<String> = self
                                    .graph
                                    .mappings_deriving(&rel)
                                    .into_iter()
                                    .map(str::to_string)
                                    .collect();
                                for m in mappings {
                                    if self.graph.is_local_mapping(&m) || used.contains(&m) {
                                        continue;
                                    }
                                    if let Some((p2, srcs)) =
                                        self.unfold_via(p.clone(), fi, &m, output)?
                                    {
                                        for sidx in srcs {
                                            let srel = p2.atom(sidx).relation.clone();
                                            // Emit if the endpoint matches.
                                            if node_matches(node, &srel, constraints) {
                                                let mut done = p2.clone();
                                                bind_node(&mut done, node, sidx)?;
                                                self.budget(1)?;
                                                next.push((done, sidx));
                                            }
                                            // And keep walking deeper.
                                            let mut used2 = used.clone();
                                            used2.push(m.clone());
                                            next_layer.push((p2.clone(), sidx, used2));
                                        }
                                    }
                                }
                            }
                            layer = next_layer;
                            if layer.is_empty() {
                                break;
                            }
                        }
                    }
                }
            }
            frontier_states = next;
        }
        Ok(frontier_states.into_iter().map(|(p, _)| p).collect())
    }

    /// Replace `partial.atoms[fidx]` (a public-relation atom) by the
    /// translation body of mapping `m` (paper Example 4.2): the `P_m` atom
    /// plus `m`'s source atoms, under the unifier of `m`'s head with the
    /// replaced atom. Returns the new source-atom indices.
    fn unfold_via(
        &mut self,
        mut partial: Partial,
        fidx: usize,
        mapping: &str,
        output: bool,
    ) -> Result<Option<(Partial, Vec<usize>)>> {
        let rule = self
            .sys
            .rule_for(mapping)
            .ok_or_else(|| Error::NotFound(format!("mapping {mapping}")))?;
        let spec = self
            .sys
            .spec_for(mapping)
            .ok_or_else(|| Error::NotFound(format!("spec for {mapping}")))?;
        // Goal-directed pruning: a materialized but empty provenance table
        // cannot witness any derivation.
        if !spec.superfluous {
            if let Ok(t) = self.sys.db.table(&spec.prov_rel) {
                if t.is_empty() {
                    self.pruned_on.insert(spec.prov_rel.clone());
                    return Ok(None);
                }
            }
        }
        let suffix = self.fresh_suffix();
        let renamed = rename_apart(rule, &suffix);
        let target = partial.atom(fidx).clone();
        let Some(head) = renamed.heads.iter().find(|h| h.relation == target.relation) else {
            return Ok(None);
        };
        let Some(subst) = unify_atoms(&target, head) else {
            return Ok(None);
        };
        partial.apply_subst(&subst);
        partial.atoms[fidx] = None;

        let p_terms: Vec<Term> = spec
            .columns
            .iter()
            .map(|c| apply_term(&subst, &Term::var(format!("{c}#{suffix}"))))
            .collect();
        partial.push_atom(Atom::new(spec.prov_rel.clone(), p_terms.clone()));
        partial.prov.push(ProvRecord {
            mapping: mapping.to_string(),
            terms: p_terms,
            output,
        });
        let mut src_idxs = Vec::new();
        for b in &renamed.body {
            let b = proql_datalog::unfold::substitute_atom(&subst, b);
            src_idxs.push(partial.push_atom(b));
        }
        Ok(Some((partial, src_idxs)))
    }

    /// Fully unfold the atom at `fidx` down to local contributions,
    /// returning one partial per complete alternative.
    fn close_fully(
        &mut self,
        partial: Partial,
        fidx: usize,
        _branch: &mut Vec<String>,
        _depth: usize,
        output: bool,
    ) -> Result<Vec<Partial>> {
        let mut pending = std::collections::VecDeque::new();
        pending.push_back((fidx, std::rc::Rc::new(Vec::new())));
        self.close_worklist(partial, pending, 0, output)
    }

    /// Worklist closure: unfold every pending public atom until only
    /// provenance/local atoms remain. Each pending entry carries its
    /// ancestor-mapping set (prevents cycling along one derivation branch,
    /// as in the paper's pattern matching). Atoms coalesced away by the
    /// key-functional-dependency rule (see [`coalesce_atoms`]) are skipped
    /// — this is what keeps pair-unit (multi-head) mappings from unfolding
    /// their shared subtree twice.
    fn close_worklist(
        &mut self,
        partial: Partial,
        mut pending: std::collections::VecDeque<(usize, std::rc::Rc<Vec<String>>)>,
        depth: usize,
        output: bool,
    ) -> Result<Vec<Partial>> {
        if depth > self.opts.max_depth {
            return Err(Error::Query(format!(
                "unfolding exceeded depth {} (cyclic mappings?)",
                self.opts.max_depth
            )));
        }
        // Breadth-first: siblings are processed before their descendants so
        // that a second head of a pair mapping coalesces against the still
        // pending first subtree instead of re-expanding it. Skip tombstoned
        // (coalesced) atoms.
        let (fidx, ancestors) = loop {
            match pending.pop_front() {
                None => return Ok(vec![partial]),
                Some((i, anc)) => {
                    if partial.atoms[i].is_some() {
                        break (i, anc);
                    }
                }
            }
        };
        let rel = partial.atom(fidx).relation.clone();
        if rel.starts_with("P_") || self.sys.is_local_relation(&rel) {
            // Already a leaf (can happen after coalescing).
            return self.close_worklist(partial, pending, depth, output);
        }
        let mut alternatives: Vec<Partial> = Vec::new();

        // Alternative 1: the tuple is a local contribution (only when the
        // peer actually has local data — goal-directed, and the source of
        // the paper's "number of peers with data" scaling).
        if let Some(local) = self.sys.local_of(&rel) {
            let nonempty = self
                .sys
                .db
                .table(&local)
                .map(|t| !t.is_empty())
                .unwrap_or(false);
            if nonempty {
                let lname = format!("L_{rel}");
                if let Some((mut p2, srcs)) =
                    self.unfold_via(partial.clone(), fidx, &lname, output)?
                {
                    debug_assert_eq!(srcs.len(), 1);
                    if coalesce_atoms(self.sys, &mut p2) {
                        self.budget(1)?;
                        alternatives.extend(self.close_worklist(
                            p2,
                            pending.clone(),
                            depth + 1,
                            output,
                        )?);
                    }
                }
            } else {
                self.pruned_on.insert(local);
            }
        }

        // Alternative 2..k: unfold through each non-local mapping not yet
        // used on this branch.
        let mappings: Vec<String> = self
            .graph
            .mappings_deriving(&rel)
            .into_iter()
            .map(str::to_string)
            .filter(|m| !self.graph.is_local_mapping(m) && !ancestors.contains(m))
            .collect();
        for m in mappings {
            if let Some((mut p2, srcs)) = self.unfold_via(partial.clone(), fidx, &m, output)? {
                if !coalesce_atoms(self.sys, &mut p2) {
                    continue; // key conflict: alternative infeasible
                }
                let mut anc2 = (*ancestors).clone();
                anc2.push(m.clone());
                let anc2 = std::rc::Rc::new(anc2);
                let mut next_pending = pending.clone();
                for s in srcs {
                    next_pending.push_back((s, anc2.clone()));
                }
                alternatives.extend(self.close_worklist(p2, next_pending, depth + 1, output)?);
            }
        }
        Ok(alternatives)
    }

    /// Merge two expansion sets on shared variables (tuple variables unify
    /// their atoms' terms; derivation variables must agree on the mapping).
    fn merge(&mut self, left: Vec<Partial>, right: Vec<Partial>) -> Result<Vec<Partial>> {
        let mut out = Vec::new();
        for l in &left {
            for r in &right {
                if let Some(merged) = merge_pair(self.sys, l, r)? {
                    out.push(merged);
                }
            }
        }
        self.budget(out.len())?;
        Ok(out)
    }
}

fn merge_pair(sys: &ProvenanceSystem, l: &Partial, r: &Partial) -> Result<Option<Partial>> {
    // Derivation variables must agree.
    for (v, m) in &r.maps {
        if let Some(prev) = l.maps.get(v) {
            if prev != m {
                return Ok(None);
            }
        }
    }
    let mut merged = l.clone();
    let offset_prov = merged.prov.len();
    let _ = offset_prov;
    merged.atoms.extend(r.atoms.iter().cloned());
    merged.prov.extend(r.prov.iter().cloned());
    for (v, m) in &r.maps {
        merged.maps.insert(v.clone(), m.clone());
    }
    // Unify shared tuple variables.
    let shared: Vec<String> = r
        .nodes
        .keys()
        .filter(|v| l.nodes.contains_key(*v))
        .cloned()
        .collect();
    for v in &shared {
        let lb = merged.nodes.get(v).cloned().expect("left binding");
        let rb = r.nodes.get(v).expect("right binding");
        if lb.relation != rb.relation {
            return Ok(None);
        }
        // Bring the right binding's terms into merged space (they were
        // copied verbatim — variables are globally fresh, so no capture).
        let la = Atom::new(lb.relation.clone(), lb.terms.clone());
        let ra = Atom::new(rb.relation.clone(), rb.terms.clone());
        let Some(subst) = unify_atoms(&ra, &la) else {
            return Ok(None);
        };
        merged.apply_subst(&subst);
    }
    for (v, b) in &r.nodes {
        if !merged.nodes.contains_key(v) {
            merged.nodes.insert(v.clone(), b.clone());
        }
    }
    // Coalesce duplicate atoms introduced by unification (e.g. a bare FOR
    // single-node atom merged into an INCLUDE expansion of the same node).
    if !coalesce_atoms(sys, &mut merged) {
        return Ok(None);
    }
    Ok(Some(merged))
}

/// Coalesce atoms denoting the same tuple. Under set semantics a
/// relation's key functionally determines the tuple, so two atoms of the
/// same relation whose *key* terms are syntactically equal must match the
/// same row: their remaining terms are unified and one atom is dropped.
/// Returns `false` when the unification fails (two different constants in
/// a non-key position with the same key), which makes the whole rule
/// unsatisfiable.
///
/// Besides shrinking plans, this is what lets multi-head ("pair") mappings
/// unfold as a unit: the second head's unfolding re-creates the same
/// `P_m` atom and the same source atoms, and they all collapse here.
fn coalesce_atoms(sys: &ProvenanceSystem, p: &mut Partial) -> bool {
    loop {
        let live: Vec<usize> = (0..p.atoms.len())
            .filter(|&i| p.atoms[i].is_some())
            .collect();
        let mut action: Option<(usize, usize)> = None;
        'outer: for (pos, &i) in live.iter().enumerate() {
            for &j in &live[pos + 1..] {
                let a = p.atom(i);
                let b = p.atom(j);
                if a.relation != b.relation || a.arity() != b.arity() {
                    continue;
                }
                if a == b {
                    action = Some((i, j));
                    break 'outer;
                }
                let Ok(schema) = sys.db.schema_of(&a.relation) else {
                    continue;
                };
                if schema.arity() != a.arity() {
                    continue;
                }
                let key = schema.effective_key();
                if key.len() < a.arity() && key.iter().all(|&k| a.terms[k] == b.terms[k]) {
                    action = Some((i, j));
                    break 'outer;
                }
            }
        }
        match action {
            None => return true,
            Some((i, j)) => {
                let a = p.atom(i).clone();
                let b = p.atom(j).clone();
                if a == b {
                    p.atoms[j] = None;
                    continue;
                }
                match unify_atoms(&a, &b) {
                    Some(subst) => {
                        p.apply_subst(&subst);
                        p.atoms[j] = None;
                    }
                    None => return false,
                }
            }
        }
    }
}

fn node_matches(
    pattern: &NodePattern,
    relation: &str,
    constraints: &HashMap<String, String>,
) -> bool {
    if let Some(r) = &pattern.relation {
        if r != relation {
            return false;
        }
    }
    if let Some(v) = &pattern.var {
        if let Some(r) = constraints.get(v) {
            if r != relation {
                return false;
            }
        }
    }
    true
}

fn bind_node(partial: &mut Partial, pattern: &NodePattern, atom_idx: usize) -> Result<()> {
    if let Some(v) = &pattern.var {
        let atom = partial.atom(atom_idx).clone();
        if let Some(existing) = partial.nodes.get(v) {
            // Re-binding the same variable: unify (same node).
            if existing.relation != atom.relation {
                return Err(Error::Query(format!(
                    "variable ${v} bound to two different relations"
                )));
            }
            let ea = Atom::new(existing.relation.clone(), existing.terms.clone());
            if let Some(subst) = unify_atoms(&atom, &ea) {
                partial.apply_subst(&subst);
            }
        } else {
            partial.nodes.insert(
                v.clone(),
                NodeBinding {
                    relation: atom.relation,
                    terms: atom.terms,
                },
            );
        }
    }
    Ok(())
}

/// All variables a path expression binds.
fn path_vars(path: &PathExpr) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    if let Some(v) = &path.start.var {
        out.push(v);
    }
    for (step, node) in &path.steps {
        if let StepPattern::Single(d) = step {
            if let Some(v) = &d.var {
                out.push(v);
            }
        }
        if let Some(v) = &node.var {
            out.push(v);
        }
    }
    out
}

fn collect_relation_constraints(path: &PathExpr, out: &mut HashMap<String, String>) -> Result<()> {
    let mut add = |var: &Option<String>, rel: &Option<String>| -> Result<()> {
        if let (Some(v), Some(r)) = (var, rel) {
            if let Some(prev) = out.get(v) {
                if prev != r {
                    return Err(Error::Query(format!(
                        "variable ${v} constrained to both {prev} and {r}"
                    )));
                }
            }
            out.insert(v.clone(), r.clone());
        }
        Ok(())
    };
    add(&path.start.var, &path.start.relation)?;
    for (_, node) in &path.steps {
        add(&node.var, &node.relation)?;
    }
    Ok(())
}

fn collect_where_constraints(cond: &Condition, out: &mut HashMap<String, String>) -> Result<()> {
    match cond {
        Condition::And(parts) => {
            for p in parts {
                collect_where_constraints(p, out)?;
            }
            Ok(())
        }
        Condition::InRelation { var, relation } => {
            if let Some(prev) = out.get(var) {
                if prev != relation {
                    return Err(Error::Query(format!(
                        "variable ${var} constrained to both {prev} and {relation}"
                    )));
                }
            }
            out.insert(var.clone(), relation.clone());
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Lower a WHERE condition into a [`VarCond`] for one rule alternative,
/// folding statically decidable parts. `slots` counts the literal
/// comparisons lowered so far (each `Cmp` records its own position).
fn lower_condition(
    sys: &ProvenanceSystem,
    cond: &Condition,
    alt: &Alternative,
    slots: &mut usize,
) -> Result<VarCond> {
    Ok(match cond {
        Condition::And(parts) => VarCond::And(
            parts
                .iter()
                .map(|p| lower_condition(sys, p, alt, slots))
                .collect::<Result<_>>()?,
        ),
        Condition::Or(parts) => VarCond::Or(
            parts
                .iter()
                .map(|p| lower_condition(sys, p, alt, slots))
                .collect::<Result<_>>()?,
        ),
        Condition::Not(inner) => VarCond::Not(Box::new(lower_condition(sys, inner, alt, slots)?)),
        Condition::MappingIs {
            var,
            mapping,
            positive,
        } => {
            let bound = alt
                .maps
                .get(var)
                .ok_or_else(|| Error::Query(format!("derivation variable ${var} is not bound")))?;
            VarCond::Lit((bound == mapping) == *positive)
        }
        Condition::InRelation { var, relation } => {
            let b = alt
                .nodes
                .get(var)
                .ok_or_else(|| Error::Query(format!("tuple variable ${var} is not bound")))?;
            VarCond::Lit(&b.relation == relation)
        }
        Condition::AttrCmp {
            var,
            attr,
            op,
            value,
        } => {
            let slot = *slots;
            *slots += 1;
            let b = alt
                .nodes
                .get(var)
                .ok_or_else(|| Error::Query(format!("tuple variable ${var} is not bound")))?;
            let schema = sys.db.schema_of(&b.relation)?;
            let pos = schema.position(attr).ok_or_else(|| {
                Error::Query(format!("relation {} has no attribute {attr}", b.relation))
            })?;
            match &b.terms[pos] {
                Term::Var(v) => VarCond::Cmp {
                    var: v.clone(),
                    op: *op,
                    value: value.clone(),
                    slot,
                },
                Term::Const(c) => VarCond::Lit(static_cmp(c, *op, value)),
                Term::Skolem(..) => {
                    return Err(Error::Query(
                        "cannot compare a Skolem-valued attribute".into(),
                    ))
                }
            }
        }
    })
}

/// `a op b` under the `Value` ordering plan filters use
/// (`proql_storage::expr::eval_bin`).
pub(crate) fn static_cmp(a: &Value, op: CmpOp, b: &Value) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use proql_provgraph::system::example_2_1;

    fn translate_str(q: &str) -> Translation {
        let sys = example_2_1().unwrap();
        translate(
            &sys,
            &parse_query(q).unwrap(),
            None,
            &TranslateOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn q1_unfolds_all_derivations_of_o() {
        let t = translate_str("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x");
        assert!(t.stats.rules > 0);
        // Every rule bottoms out at provenance/local atoms only.
        for rule in &t.rules {
            for a in rule.atoms.iter() {
                assert!(
                    a.relation.starts_with("P_") || a.relation.ends_with("_l"),
                    "unexpected public atom {} in {:?}",
                    a.relation,
                    rule.atoms
                );
            }
            assert!(rule.node_bindings.contains_key("x"));
            assert!(!rule.prov_records.is_empty());
        }
        // O has derivations via m4 (from A) and m5 (from A+C, with C itself
        // via local or m1): at least 3 alternatives.
        assert!(t.stats.rules >= 3, "got {} rules", t.stats.rules);
    }

    #[test]
    fn q2_restricts_to_paths_involving_a() {
        let t = translate_str("FOR [O $x] <-+ [A $y] INCLUDE PATH [$x] <-+ [$y] RETURN $x");
        assert!(t.stats.rules > 0);
        for rule in &t.rules {
            assert_eq!(rule.node_bindings["y"].relation, "A");
        }
    }

    #[test]
    fn named_step_unfolds_once() {
        let t = translate_str("FOR [O $x] <m5 [C $y] RETURN $x, $y");
        assert_eq!(t.stats.rules, 1);
        let rule = &t.rules[0];
        // P_m5 + A + C atoms; C stays public (single step only).
        let rels: Vec<&str> = rule.atoms.iter().map(|a| a.relation.as_str()).collect();
        assert!(rels.contains(&"P_m5"));
        assert!(rels.contains(&"C"));
        assert_eq!(rule.prov_records.len(), 1);
        assert_eq!(rule.prov_records[0].mapping, "m5");
    }

    #[test]
    fn where_mapping_condition_filters_alternatives() {
        // Q3-style: derivations via m1 or m2 only.
        let t = translate_str("FOR [$x] <$p [] WHERE $p = m1 OR $p = m2 RETURN $x");
        assert!(t.stats.rules > 0);
        for rule in &t.rules {
            let m = &rule.mapping_bindings["p"];
            assert!(m == "m1" || m == "m2", "unexpected mapping {m}");
        }
        assert!(t.stats.dropped > 0, "m3/m4/m5 alternatives must be dropped");
    }

    #[test]
    fn where_attr_condition_becomes_runtime_filter() {
        let t = translate_str("FOR [O $x] INCLUDE PATH [$x] <-+ [] WHERE $x.h >= 6 RETURN $x");
        for rule in &t.rules {
            match rule.condition.as_ref().expect("runtime condition") {
                VarCond::Cmp { op, value, .. } => {
                    assert_eq!(*op, CmpOp::Ge);
                    assert_eq!(value, &Value::Int(6));
                }
                other => panic!("expected Cmp, got {other:?}"),
            }
        }
    }

    #[test]
    fn where_attr_on_constant_column_is_static() {
        // O.animal is the constant true in m4/m5 heads: statically decided.
        let t =
            translate_str("FOR [O $x] INCLUDE PATH [$x] <-+ [] WHERE $x.animal = false RETURN $x");
        // All alternatives produce animal=true; condition false everywhere.
        assert_eq!(t.stats.rules, 0);
        assert!(t.stats.dropped > 0);
    }

    #[test]
    fn q4_common_provenance_joins_on_shared_var() {
        let t = translate_str("FOR [O $x] <-+ [$z], [C $y] <-+ [$z] RETURN $x, $y");
        assert!(t.stats.rules > 0);
        for rule in &t.rules {
            // $z bound to a single node shared by both paths.
            assert!(rule.node_bindings.contains_key("z"));
        }
    }

    #[test]
    fn plus_to_any_must_be_final() {
        let sys = example_2_1().unwrap();
        let q = parse_query("FOR [O $x] <-+ [] <- [A $y] RETURN $x").unwrap();
        assert!(translate(&sys, &q, None, &TranslateOptions::default()).is_err());
    }

    #[test]
    fn rule_budget_enforced() {
        let sys = example_2_1().unwrap();
        let q = parse_query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x").unwrap();
        let opts = TranslateOptions {
            max_rules: 1,
            ..Default::default()
        };
        assert!(translate(&sys, &q, None, &opts).is_err());
    }

    #[test]
    fn unknown_attr_in_where_is_error() {
        let sys = example_2_1().unwrap();
        let q = parse_query("FOR [O $x] WHERE $x.bogus = 1 RETURN $x").unwrap();
        assert!(translate(&sys, &q, None, &TranslateOptions::default()).is_err());
    }
}
