//! The in-memory provenance graph (paper Figure 1).
//!
//! A bipartite graph of **tuple nodes** (rectangles: a tuple of some public
//! relation, identified by relation + key) and **derivation nodes**
//! (ellipses: one firing of a mapping, with edges from its source tuples and
//! to its target tuples). Derivations of local-contribution rules are the
//! `+` ovals: they have no source tuple nodes and mark their target as base
//! data.
//!
//! The graph is decoded from the relational encoding (`P_m` rows) and is
//! what the semiring evaluator walks bottom-up.
//!
//! # Incremental maintenance
//!
//! Adjacency is a **patchable CSR**: a frozen compressed-sparse-row core
//! plus a sparse patch map holding the full neighbor list of every node
//! whose edges changed since the last compaction. Bulk construction
//! ([`ProvGraph::from_system`], [`ProvGraph::project`]) compacts ([`ProvGraph::freeze`])
//! once at the end; [`ProvGraph::apply_delta`] patches the CSR
//! incrementally and triggers compaction only when the patch or the
//! tombstone population grows past a fixed fraction of the graph
//! ([`ProvGraph::maybe_compact`]). Removed nodes are tombstoned (cheap)
//! and physically dropped at compaction; [`ProvGraph::digest`] is a
//! canonical content hash that ignores node numbering and tombstones, so
//! a delta-maintained graph can be checked bit-for-bit against a
//! from-scratch rebuild.

use crate::delta::{DeltaOp, GraphDelta};
use crate::system::ProvenanceSystem;
use proql_common::TupleId;
use proql_common::{DerivationId, Error, Result, Tuple, Value};
use proql_storage::batch::RecordBatch;
use proql_storage::{execute_batch, Plan};
use std::collections::{HashMap, HashSet};

/// Compressed-sparse-row adjacency with a sparse patch overlay.
///
/// `targets[offsets[i]..offsets[i+1]]` are node `i`'s neighbors in the
/// frozen core; nodes in `patched` shadow their frozen row with a full
/// (possibly longer or shorter) neighbor list. New nodes beyond the frozen
/// range live purely in the patch. [`CsrAdj::freeze`] merges the patch
/// back into flat vectors.
#[derive(Debug, Clone, Default)]
struct CsrAdj {
    offsets: Vec<u32>,
    targets: Vec<DerivationId>,
    /// Node → full neighbor list, shadowing the frozen row.
    patched: HashMap<u32, Vec<DerivationId>>,
    /// Total edges held in `patched` (compaction policy input).
    patched_edges: usize,
}

impl CsrAdj {
    fn frozen_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    fn frozen_row(&self, i: usize) -> &[DerivationId] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn neighbors(&self, i: usize) -> &[DerivationId] {
        if let Some(row) = self.patched.get(&(i as u32)) {
            return row;
        }
        if i < self.frozen_nodes() {
            self.frozen_row(i)
        } else {
            &[]
        }
    }

    fn degree(&self, i: usize) -> usize {
        self.neighbors(i).len()
    }

    /// Move node `n`'s row into the patch (no-op if already there).
    fn patch_row(&mut self, n: u32) -> &mut Vec<DerivationId> {
        if !self.patched.contains_key(&n) {
            let base: Vec<DerivationId> = if (n as usize) < self.frozen_nodes() {
                self.frozen_row(n as usize).to_vec()
            } else {
                Vec::new()
            };
            self.patched_edges += base.len();
            self.patched.insert(n, base);
        }
        self.patched.get_mut(&n).expect("just inserted")
    }

    fn add_edge(&mut self, n: u32, d: DerivationId) {
        self.patch_row(n).push(d);
        self.patched_edges += 1;
    }

    /// Drop every edge of node `n` pointing at a derivation in `dead`.
    fn remove_edges(&mut self, n: u32, dead: &HashSet<DerivationId>) {
        let row = self.patch_row(n);
        let before = row.len();
        row.retain(|d| !dead.contains(d));
        self.patched_edges -= before - row.len();
    }

    /// Merge the patch into a fresh frozen core covering `n_nodes` nodes.
    fn freeze(&mut self, n_nodes: usize) {
        let mut offsets = Vec::with_capacity(n_nodes + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for i in 0..n_nodes {
            targets.extend_from_slice(self.neighbors(i));
            offsets.push(targets.len() as u32);
        }
        self.offsets = offsets;
        self.targets = targets;
        self.patched.clear();
        self.patched_edges = 0;
    }
}

/// Node lookup keyed by name (relation or mapping) first, then by tuple,
/// so a lookup borrows both halves of its key and allocates nothing.
#[derive(Debug, Clone)]
struct NodeIndex<Id>(HashMap<String, HashMap<Tuple, Id>>);

impl<Id> Default for NodeIndex<Id> {
    fn default() -> Self {
        NodeIndex(HashMap::new())
    }
}

impl<Id: Copy> NodeIndex<Id> {
    fn get(&self, name: &str, key: &Tuple) -> Option<Id> {
        self.0.get(name)?.get(key).copied()
    }

    fn insert(&mut self, name: &str, key: Tuple, id: Id) {
        match self.0.get_mut(name) {
            Some(by_key) => {
                by_key.insert(key, id);
            }
            None => {
                self.0.insert(name.to_string(), HashMap::from([(key, id)]));
            }
        }
    }

    fn remove(&mut self, name: &str, key: &Tuple) {
        if let Some(by_key) = self.0.get_mut(name) {
            by_key.remove(key);
        }
    }
}

/// A tuple node.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleNode {
    /// Public relation the tuple belongs to.
    pub relation: String,
    /// Primary-key projection identifying the tuple.
    pub key: Tuple,
    /// Full tuple values when resolvable from the database (used by
    /// `ASSIGNING EACH leaf_node` attribute conditions).
    pub values: Option<Tuple>,
}

/// A derivation node: one row of some provenance relation.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivationNode {
    /// Mapping that produced this derivation.
    pub mapping: String,
    /// The provenance-relation row (variable bindings).
    pub prov_row: Tuple,
    /// Source tuple nodes (joined by the mapping); empty for base (`+`)
    /// derivations.
    pub sources: Vec<TupleId>,
    /// Target tuple nodes.
    pub targets: Vec<TupleId>,
    /// True for local-contribution (`+`) derivations.
    pub is_base: bool,
}

/// The provenance graph.
///
/// Node ids are dense indexes into internal vectors; removed nodes are
/// tombstoned until [`ProvGraph::maybe_compact`] re-packs the graph, so a
/// live id stays valid across delta application. Iteration
/// ([`ProvGraph::tuple_ids`], [`ProvGraph::derivation_ids`]) yields live
/// nodes only; dense side tables should be sized by
/// [`ProvGraph::tuple_id_bound`] / [`ProvGraph::derivation_id_bound`],
/// which cover tombstones too.
#[derive(Debug, Clone, Default)]
pub struct ProvGraph {
    tuples: Vec<TupleNode>,
    tuple_live: Vec<bool>,
    live_tuples: usize,
    tuple_index: NodeIndex<TupleId>,
    derivations: Vec<DerivationNode>,
    deriv_live: Vec<bool>,
    live_derivs: usize,
    deriv_index: NodeIndex<DerivationId>,
    /// Incoming adjacency: tuple → derivations deriving it.
    derived: CsrAdj,
    /// Outgoing adjacency: tuple → derivations consuming it.
    consumed: CsrAdj,
}

impl ProvGraph {
    /// Empty graph.
    pub fn new() -> Self {
        ProvGraph::default()
    }

    /// Number of **live** tuple nodes.
    pub fn tuple_count(&self) -> usize {
        self.live_tuples
    }

    /// Number of **live** derivation nodes.
    pub fn derivation_count(&self) -> usize {
        self.live_derivs
    }

    /// Exclusive upper bound on tuple ids (live + tombstoned). Dense
    /// side tables indexed by [`TupleId`] must use this, not
    /// [`ProvGraph::tuple_count`].
    pub fn tuple_id_bound(&self) -> usize {
        self.tuples.len()
    }

    /// Exclusive upper bound on derivation ids (live + tombstoned).
    pub fn derivation_id_bound(&self) -> usize {
        self.derivations.len()
    }

    /// Intern a tuple node.
    pub fn add_tuple(&mut self, relation: &str, key: Tuple, values: Option<Tuple>) -> TupleId {
        if let Some(id) = self.tuple_index.get(relation, &key) {
            if values.is_some() && self.tuples[id.index()].values.is_none() {
                self.tuples[id.index()].values = values;
            }
            return id;
        }
        let id = TupleId(self.tuples.len() as u32);
        self.tuple_index.insert(relation, key.clone(), id);
        self.tuples.push(TupleNode {
            relation: relation.to_string(),
            key,
            values,
        });
        self.tuple_live.push(true);
        self.live_tuples += 1;
        id
    }

    /// Add a derivation node (idempotent on (mapping, prov_row)).
    pub fn add_derivation(
        &mut self,
        mapping: &str,
        prov_row: Tuple,
        sources: Vec<TupleId>,
        targets: Vec<TupleId>,
        is_base: bool,
    ) -> DerivationId {
        if let Some(id) = self.deriv_index.get(mapping, &prov_row) {
            return id;
        }
        let id = DerivationId(self.derivations.len() as u32);
        self.deriv_index.insert(mapping, prov_row.clone(), id);
        for &s in &sources {
            self.consumed.add_edge(s.0, id);
        }
        for &t in &targets {
            self.derived.add_edge(t.0, id);
        }
        self.derivations.push(DerivationNode {
            mapping: mapping.to_string(),
            prov_row,
            sources,
            targets,
            is_base,
        });
        self.deriv_live.push(true);
        self.live_derivs += 1;
        id
    }

    /// Tuple node accessor.
    pub fn tuple(&self, id: TupleId) -> &TupleNode {
        &self.tuples[id.index()]
    }

    /// Derivation node accessor.
    pub fn derivation(&self, id: DerivationId) -> &DerivationNode {
        &self.derivations[id.index()]
    }

    /// Find a live tuple node by relation and key.
    pub fn find_tuple(&self, relation: &str, key: &Tuple) -> Option<TupleId> {
        self.tuple_index.get(relation, key)
    }

    /// Find a live derivation node by mapping and provenance row.
    pub fn find_derivation(&self, mapping: &str, prov_row: &Tuple) -> Option<DerivationId> {
        self.deriv_index.get(mapping, prov_row)
    }

    /// Derivations deriving a tuple (its alternatives — union). Served
    /// from the patchable CSR adjacency.
    pub fn derivations_of(&self, id: TupleId) -> &[DerivationId] {
        self.derived.neighbors(id.index())
    }

    /// Derivations consuming a tuple.
    pub fn consumers_of(&self, id: TupleId) -> &[DerivationId] {
        self.consumed.neighbors(id.index())
    }

    /// All live tuple ids.
    pub fn tuple_ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.tuple_live
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| l.then_some(TupleId(i as u32)))
    }

    /// All live derivation ids.
    pub fn derivation_ids(&self) -> impl Iterator<Item = DerivationId> + '_ {
        self.deriv_live
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| l.then_some(DerivationId(i as u32)))
    }

    /// A tuple is a **leaf** when it has no incoming derivations at all, or
    /// only base (`+`) derivations. Leaves are where `ASSIGNING EACH
    /// leaf_node` values plug in.
    pub fn is_leaf(&self, id: TupleId) -> bool {
        self.derivations_of(id)
            .iter()
            .all(|&d| self.derivations[d.index()].is_base)
    }

    /// True iff the tuple is backed by base data (has a `+` derivation).
    pub fn is_base(&self, id: TupleId) -> bool {
        self.derivations_of(id)
            .iter()
            .any(|&d| self.derivations[d.index()].is_base)
    }

    /// Topological order of live tuple nodes (sources before targets
    /// through derivations), or `None` if the graph is cyclic. Derivations
    /// are ordered implicitly: a derivation is ready when all its sources
    /// are.
    pub fn topo_order(&self) -> Option<Vec<TupleId>> {
        // In-degree of each derivation = #sources not yet emitted;
        // in-degree of each tuple = #derivations not yet emitted.
        let mut deriv_pending: Vec<usize> =
            self.derivations.iter().map(|d| d.sources.len()).collect();
        let mut tuple_pending: Vec<usize> = (0..self.tuples.len())
            .map(|i| self.derived.degree(i))
            .collect();
        let mut ready: Vec<TupleId> = Vec::new();
        let mut order = Vec::with_capacity(self.live_tuples);
        for (i, &p) in tuple_pending.iter().enumerate() {
            if p == 0 && self.tuple_live[i] {
                ready.push(TupleId(i as u32));
            }
        }
        // Base derivations have zero sources: fire them immediately.
        let mut deriv_ready: Vec<DerivationId> = deriv_pending
            .iter()
            .enumerate()
            .filter(|&(i, &p)| p == 0 && self.deriv_live[i])
            .map(|(i, _)| DerivationId(i as u32))
            .collect();
        loop {
            // Fire ready derivations: they decrement their targets.
            while let Some(d) = deriv_ready.pop() {
                for &t in &self.derivations[d.index()].targets {
                    tuple_pending[t.index()] -= 1;
                    if tuple_pending[t.index()] == 0 {
                        ready.push(t);
                    }
                }
            }
            match ready.pop() {
                None => break,
                Some(t) => {
                    order.push(t);
                    for &d in self.consumed.neighbors(t.index()) {
                        deriv_pending[d.index()] -= 1;
                        if deriv_pending[d.index()] == 0 {
                            deriv_ready.push(d);
                        }
                    }
                }
            }
        }
        (order.len() == self.live_tuples).then_some(order)
    }

    /// True iff the graph contains a derivation cycle.
    pub fn is_cyclic(&self) -> bool {
        self.topo_order().is_none()
    }

    /// Compact both adjacency directions: merge patch rows into fresh
    /// frozen CSR cores. Bulk constructors call this once at the end;
    /// [`ProvGraph::maybe_compact`] calls it when the patch outgrows its
    /// budget.
    pub fn freeze(&mut self) {
        let n = self.tuples.len();
        self.derived.freeze(n);
        self.consumed.freeze(n);
    }

    /// Apply the compaction policy after delta application:
    ///
    /// * tombstones above ¼ of either node population → rebuild the graph
    ///   densely (drops tombstones, re-numbers ids),
    /// * otherwise, CSR patch rows above ¼ of the frozen edges → freeze
    ///   the adjacency in place (ids stable).
    pub fn maybe_compact(&mut self) {
        let dead_t = self.tuples.len() - self.live_tuples;
        let dead_d = self.derivations.len() - self.live_derivs;
        if dead_t * 4 > self.tuples.len().max(16) || dead_d * 4 > self.derivations.len().max(16) {
            self.rebuild_dense();
            return;
        }
        let patched = self.derived.patched_edges + self.consumed.patched_edges;
        let frozen = self.derived.targets.len() + self.consumed.targets.len();
        if patched * 4 > frozen.max(64) {
            self.freeze();
        }
    }

    /// Re-pack the graph without tombstones (ids are re-assigned).
    fn rebuild_dense(&mut self) {
        let mut g = ProvGraph::new();
        for (i, d) in self.derivations.iter().enumerate() {
            if !self.deriv_live[i] {
                continue;
            }
            let sources = d
                .sources
                .iter()
                .map(|&s| {
                    let t = &self.tuples[s.index()];
                    g.add_tuple(&t.relation, t.key.clone(), t.values.clone())
                })
                .collect();
            let targets = d
                .targets
                .iter()
                .map(|&s| {
                    let t = &self.tuples[s.index()];
                    g.add_tuple(&t.relation, t.key.clone(), t.values.clone())
                })
                .collect();
            g.add_derivation(&d.mapping, d.prov_row.clone(), sources, targets, d.is_base);
        }
        g.freeze();
        *self = g;
    }

    /// Remove the derivation decoded from `(mapping, prov_row)`, if
    /// present: tombstone the node, drop its edges, and tombstone any
    /// tuple node left with no live derivations or consumers (it would
    /// not exist in a from-scratch rebuild either).
    pub fn remove_derivation_row(&mut self, mapping: &str, prov_row: &Tuple) {
        let Some(id) = self.find_derivation(mapping, prov_row) else {
            return;
        };
        self.deriv_index.remove(mapping, prov_row);
        self.deriv_live[id.index()] = false;
        self.live_derivs -= 1;
        let dead: HashSet<DerivationId> = [id].into_iter().collect();
        let node = &mut self.derivations[id.index()];
        let sources = std::mem::take(&mut node.sources);
        let targets = std::mem::take(&mut node.targets);
        for &s in &sources {
            self.consumed.remove_edges(s.0, &dead);
        }
        for &t in &targets {
            self.derived.remove_edges(t.0, &dead);
        }
        for t in sources.into_iter().chain(targets) {
            let i = t.index();
            if self.tuple_live[i] && self.derived.degree(i) == 0 && self.consumed.degree(i) == 0 {
                self.tuple_live[i] = false;
                self.live_tuples -= 1;
                let node = &self.tuples[i];
                self.tuple_index.remove(&node.relation, &node.key);
            }
        }
    }

    /// Patch this graph with one sealed [`GraphDelta`], replayed against
    /// the system state **at the target version** (tuple values and
    /// mapping specs are resolved from `sys`, matching what a
    /// from-scratch rebuild at that version would see). Ops are applied
    /// in the order they were recorded.
    pub fn apply_delta(&mut self, sys: &ProvenanceSystem, delta: &GraphDelta) -> Result<()> {
        for op in &delta.ops {
            match op {
                DeltaOp::AddDerivation { mapping, row } => {
                    let spec = sys
                        .spec_for(mapping)
                        .ok_or_else(|| Error::NotFound(format!("mapping {mapping} in delta")))?;
                    let is_base = sys
                        .rule_for(mapping)
                        .and_then(|r| r.body.first())
                        .map(|a| sys.is_local_relation(&a.relation))
                        .unwrap_or(false);
                    self.add_derivation_from_row(sys, spec, row, is_base)?;
                }
                DeltaOp::RemoveDerivation { mapping, row } => {
                    self.remove_derivation_row(mapping, row);
                }
                DeltaOp::SetValues { relation, key } => {
                    self.refresh_values(sys, relation, key);
                }
            }
        }
        Ok(())
    }

    /// Re-resolve the stored values of the tuple node `(relation, key)`
    /// from the database at its current state. Returns the node's id when
    /// the graph holds such a tuple (callers use it to mark the node dirty
    /// for annotation re-evaluation), `None` when the graph does not
    /// reference that row at all.
    pub fn refresh_values(
        &mut self,
        sys: &ProvenanceSystem,
        relation: &str,
        key: &Tuple,
    ) -> Option<TupleId> {
        let id = self.find_tuple(relation, key)?;
        self.tuples[id.index()].values = sys
            .db
            .table(relation)
            .ok()
            .and_then(|t| t.get_by_key(key))
            .cloned();
        Some(id)
    }

    /// A canonical content digest: a commutative hash over live tuple
    /// nodes (relation, key, values) and live derivation nodes (mapping,
    /// row, base flag, source/target tuple contents in recipe order).
    /// Invariant under node numbering, adjacency layout, tombstones, and
    /// application order — a delta-maintained graph and a from-scratch
    /// rebuild of the same system version digest identically.
    pub fn digest(&self) -> u64 {
        let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
        for t in self.tuple_ids() {
            let node = self.tuple(t);
            let mut h = Fnv::new();
            h.str(&node.relation);
            h.tuple(&node.key);
            match &node.values {
                Some(v) => {
                    h.u8(1);
                    h.tuple(v);
                }
                None => h.u8(0),
            }
            acc = acc.wrapping_add(h.finish());
        }
        for d in self.derivation_ids() {
            let node = self.derivation(d);
            let mut h = Fnv::new();
            h.str(&node.mapping);
            h.tuple(&node.prov_row);
            h.u8(node.is_base as u8);
            for &s in &node.sources {
                let t = self.tuple(s);
                h.str(&t.relation);
                h.tuple(&t.key);
            }
            h.u8(0xfe);
            for &t in &node.targets {
                let t = self.tuple(t);
                h.str(&t.relation);
                h.tuple(&t.key);
            }
            acc = acc.wrapping_add(h.finish().rotate_left(17));
        }
        acc ^ ((self.live_tuples as u64) << 32 | self.live_derivs as u64)
    }

    /// Decode the full provenance graph of a system from its provenance
    /// relations. Each `P_m` relation is scanned through the columnar
    /// batch executor and decoded column-at-a-time.
    pub fn from_system(sys: &ProvenanceSystem) -> Result<ProvGraph> {
        let mut g = ProvGraph::new();
        for (rule, spec) in sys.program().rules.iter().zip(sys.specs()) {
            let batch = execute_batch(&sys.db, &Plan::scan(spec.prov_rel.clone()))?;
            let is_base = rule
                .body
                .first()
                .map(|a| sys.is_local_relation(&a.relation))
                .unwrap_or(false);
            g.add_derivations_from_batch(sys, spec, &batch, is_base)?;
        }
        g.freeze();
        Ok(g)
    }

    /// Decode a whole batch of provenance rows. Key columns are gathered
    /// once per atom recipe instead of once per row × term.
    pub fn add_derivations_from_batch(
        &mut self,
        sys: &ProvenanceSystem,
        spec: &crate::encode::ProvSpec,
        batch: &RecordBatch,
        is_base: bool,
    ) -> Result<()> {
        use crate::encode::RecipeTerm;
        if batch.is_empty() {
            return Ok(());
        }
        // Resolve every recipe term to a column reference or constant once.
        struct Recipe<'a> {
            relation: &'a str,
            is_source: bool,
            cols: Vec<ResolvedKey<'a>>,
        }
        enum ResolvedKey<'a> {
            Col(&'a proql_storage::batch::Column),
            Const(&'a Value),
        }
        let mut recipes: Vec<Recipe> = Vec::with_capacity(spec.atoms.len());
        for recipe in &spec.atoms {
            if recipe.is_source && is_base {
                // Local-contribution source: not a graph node; the `+`
                // derivation's target carries the base flag.
                continue;
            }
            recipes.push(Recipe {
                relation: &recipe.relation,
                is_source: recipe.is_source,
                cols: recipe
                    .key_recipe
                    .iter()
                    .map(|r| match r {
                        RecipeTerm::Col(c) => ResolvedKey::Col(&batch.columns[*c]),
                        RecipeTerm::Const(v) => ResolvedKey::Const(v),
                    })
                    .collect(),
            });
        }
        for row in 0..batch.len() {
            let mut sources = Vec::new();
            let mut targets = Vec::new();
            for r in &recipes {
                let key = Tuple::new(
                    r.cols
                        .iter()
                        .map(|c| match c {
                            ResolvedKey::Col(col) => col.value(row),
                            ResolvedKey::Const(v) => (*v).clone(),
                        })
                        .collect(),
                );
                let values = sys
                    .db
                    .table(r.relation)
                    .ok()
                    .and_then(|t| t.get_by_key(&key))
                    .cloned();
                let id = self.add_tuple(r.relation, key, values);
                if r.is_source {
                    sources.push(id);
                } else {
                    targets.push(id);
                }
            }
            self.add_derivation(&spec.mapping, batch.row(row), sources, targets, is_base);
        }
        Ok(())
    }

    /// Decode one provenance row into a derivation node (shared by
    /// `from_system`, delta application, and projected-subgraph
    /// construction in `proql`).
    pub fn add_derivation_from_row(
        &mut self,
        sys: &ProvenanceSystem,
        spec: &crate::encode::ProvSpec,
        row: &Tuple,
        is_base: bool,
    ) -> Result<DerivationId> {
        let mut sources = Vec::new();
        let mut targets = Vec::new();
        for recipe in &spec.atoms {
            let key = recipe.key_of(row);
            if recipe.is_source && is_base {
                // Local-contribution source: not a graph node; the `+`
                // derivation's target carries the base flag.
                continue;
            }
            let values = sys
                .db
                .table(&recipe.relation)
                .ok()
                .and_then(|t| t.get_by_key(&key))
                .cloned();
            let id = self.add_tuple(&recipe.relation, key, values);
            if recipe.is_source {
                sources.push(id);
            } else {
                targets.push(id);
            }
        }
        Ok(self.add_derivation(&spec.mapping, row.clone(), sources, targets, is_base))
    }

    /// Project the graph onto a set of derivation ids: the result keeps
    /// those derivations with **all** their source and target tuple nodes
    /// (the paper's requirement that derivation nodes stay "inseparable"
    /// from their endpoints).
    pub fn project(&self, derivs: impl IntoIterator<Item = DerivationId>) -> ProvGraph {
        let mut g = ProvGraph::new();
        for d in derivs {
            let node = &self.derivations[d.index()];
            let sources = node
                .sources
                .iter()
                .map(|&s| {
                    let t = &self.tuples[s.index()];
                    g.add_tuple(&t.relation, t.key.clone(), t.values.clone())
                })
                .collect();
            let targets = node
                .targets
                .iter()
                .map(|&s| {
                    let t = &self.tuples[s.index()];
                    g.add_tuple(&t.relation, t.key.clone(), t.values.clone())
                })
                .collect();
            g.add_derivation(
                &node.mapping,
                node.prov_row.clone(),
                sources,
                targets,
                node.is_base,
            );
        }
        g.freeze();
        g
    }

    /// Render as DOT (GraphViz) for the interactive-browser use case the
    /// paper motivates (§1 "Interactive provenance browsers and viewers").
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph provenance {\n  rankdir=RL;\n");
        for i in self.tuple_ids() {
            let t = self.tuple(i);
            let label = match &t.values {
                Some(v) => format!("{}{}", t.relation, v),
                None => format!("{}{}", t.relation, t.key),
            };
            let style = if self.is_base(i) { ", style=bold" } else { "" };
            let _ = writeln!(s, "  t{} [shape=box, label=\"{label}\"{style}];", i.index());
        }
        for i in self.derivation_ids() {
            let d = self.derivation(i);
            let shape = if d.is_base { "circle" } else { "ellipse" };
            let label = if d.is_base { "+" } else { d.mapping.as_str() };
            let i = i.index();
            let _ = writeln!(s, "  d{i} [shape={shape}, label=\"{label}\"];");
            for src in &d.sources {
                let _ = writeln!(s, "  t{} -> d{i};", src.index());
            }
            for tgt in &d.targets {
                let _ = writeln!(s, "  d{i} -> t{};", tgt.index());
            }
        }
        s.push_str("}\n");
        s
    }
}

/// FNV-1a with tagged, length-delimited encoding of values — the stable
/// hasher behind [`ProvGraph::digest`] (std's `DefaultHasher` makes no
/// cross-version stability promise).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u8(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.u8(b);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.u8(1);
                self.u64(*i as u64);
            }
            Value::Float(f) => {
                self.u8(2);
                self.u64(f.to_bits());
            }
            Value::Str(s) => {
                self.u8(3);
                self.str(s);
            }
            Value::Bool(b) => {
                self.u8(4);
                self.u8(*b as u8);
            }
            Value::Null => self.u8(5),
        }
    }

    fn tuple(&mut self, t: &Tuple) {
        self.u64(t.arity() as u64);
        for v in t.iter() {
            self.value(v);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::example_2_1;
    use proql_common::tup;

    #[test]
    fn figure_1_graph_shape() {
        let sys = example_2_1().unwrap();
        let g = ProvGraph::from_system(&sys).unwrap();
        // Base tuples are flagged.
        let a1 = g.find_tuple("A", &tup![1]).unwrap();
        assert!(g.is_base(a1));
        assert!(g.is_leaf(a1));
        // O(cn2, 5) is derived via m5 from A(2) and C(2, cn2).
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        let derivs = g.derivations_of(ocn2);
        assert!(!derivs.is_empty());
        let via_m5 = derivs
            .iter()
            .map(|&d| g.derivation(d))
            .find(|d| d.mapping == "m5")
            .expect("O(cn2) must have an m5 derivation");
        assert_eq!(via_m5.sources.len(), 2);
        let src_rels: Vec<&str> = via_m5
            .sources
            .iter()
            .map(|&s| g.tuple(s).relation.as_str())
            .collect();
        assert!(src_rels.contains(&"A") && src_rels.contains(&"C"));
    }

    #[test]
    fn full_example_graph_is_cyclic() {
        // C(2,cn2) -> m3 -> N(2,cn2,false) -> m1 -> C(2,cn2).
        let sys = example_2_1().unwrap();
        let g = ProvGraph::from_system(&sys).unwrap();
        assert!(g.is_cyclic());
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn acyclic_projection_topo_orders() {
        let sys = example_2_1().unwrap();
        let g = ProvGraph::from_system(&sys).unwrap();
        // Project onto only the m5 and base derivations: acyclic.
        let derivs: Vec<_> = g
            .derivation_ids()
            .filter(|&d| {
                let n = g.derivation(d);
                n.is_base || n.mapping == "m5"
            })
            .collect();
        let sub = g.project(derivs);
        let order = sub.topo_order().expect("projection is acyclic");
        assert_eq!(order.len(), sub.tuple_count());
        // Sources appear before targets.
        let pos: HashMap<TupleId, usize> = order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for d in sub.derivation_ids() {
            let n = sub.derivation(d);
            for &s in &n.sources {
                for &t in &n.targets {
                    assert!(pos[&s] < pos[&t], "source after target");
                }
            }
        }
    }

    #[test]
    fn tuple_nodes_are_interned() {
        let mut g = ProvGraph::new();
        let a = g.add_tuple("R", tup![1], None);
        let b = g.add_tuple("R", tup![1], Some(tup![1, 2]));
        assert_eq!(a, b);
        assert_eq!(g.tuple_count(), 1);
        // Values are backfilled on re-add.
        assert_eq!(g.tuple(a).values, Some(tup![1, 2]));
    }

    #[test]
    fn derivations_are_idempotent() {
        let mut g = ProvGraph::new();
        let t = g.add_tuple("R", tup![1], None);
        let d1 = g.add_derivation("m", tup![1], vec![], vec![t], true);
        let d2 = g.add_derivation("m", tup![1], vec![], vec![t], true);
        assert_eq!(d1, d2);
        assert_eq!(g.derivation_count(), 1);
        assert_eq!(g.derivations_of(t).len(), 1);
    }

    #[test]
    fn leaf_means_only_base_derivations() {
        let sys = example_2_1().unwrap();
        let g = ProvGraph::from_system(&sys).unwrap();
        // N(1, sn1, true) is derived by m2 (not base): not a leaf.
        let n = g.find_tuple("N", &tup![1, "sn1"]).unwrap();
        assert!(!g.is_leaf(n));
        // A tuples are pure base.
        let a = g.find_tuple("A", &tup![2]).unwrap();
        assert!(g.is_leaf(a));
    }

    #[test]
    fn values_resolved_from_public_tables() {
        let sys = example_2_1().unwrap();
        let g = ProvGraph::from_system(&sys).unwrap();
        let a = g.find_tuple("A", &tup![1]).unwrap();
        assert_eq!(g.tuple(a).values, Some(tup![1, "sn1", 7]));
    }

    #[test]
    fn dot_rendering_mentions_nodes() {
        let sys = example_2_1().unwrap();
        let g = ProvGraph::from_system(&sys).unwrap();
        let dot = g.to_dot();
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("m5"));
        assert!(dot.contains("label=\"+\""));
    }

    #[test]
    fn mutation_after_freeze_rebuilds_adjacency() {
        // Regression: traversal reads the patchable CSR; mutating the
        // graph after a freeze must patch the frozen rows so later
        // traversals see the new edges instead of a stale frozen copy.
        let mut g = ProvGraph::new();
        let t1 = g.add_tuple("R", tup![1], None);
        let d1 = g.add_derivation("m", tup![1], vec![], vec![t1], true);
        g.freeze();
        assert_eq!(g.derivations_of(t1), &[d1]);
        assert!(g.consumers_of(t1).is_empty());
        assert!(g.topo_order().is_some());

        // Mutate: a new tuple derived *from* t1, plus a second alternative
        // derivation of t1 itself.
        let t2 = g.add_tuple("R", tup![2], None);
        let d2 = g.add_derivation("m2", tup![2], vec![t1], vec![t2], false);
        let d3 = g.add_derivation("m3", tup![3], vec![], vec![t1], true);

        // Post-mutation traversals reflect the new edges.
        assert_eq!(g.derivations_of(t1), &[d1, d3]);
        assert_eq!(g.consumers_of(t1), &[d2]);
        assert_eq!(g.derivations_of(t2), &[d2]);
        let order = g.topo_order().expect("still acyclic");
        assert_eq!(order.len(), 2);
        let pos: HashMap<TupleId, usize> = order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        assert!(pos[&t1] < pos[&t2], "source must precede target");
        // And the values backfill path (which must not rebuild edges) still
        // leaves adjacency consistent.
        let t1_again = g.add_tuple("R", tup![1], Some(tup![1, 9]));
        assert_eq!(t1_again, t1);
        assert_eq!(g.derivations_of(t1), &[d1, d3]);
    }

    #[test]
    fn consumers_tracked() {
        let sys = example_2_1().unwrap();
        let g = ProvGraph::from_system(&sys).unwrap();
        let a2 = g.find_tuple("A", &tup![2]).unwrap();
        // A(2) feeds m2, m4, m5 derivations (and m1 via N(2,cn2,false)).
        assert!(!g.consumers_of(a2).is_empty());
    }

    #[test]
    fn remove_derivation_tombstones_and_orphans() {
        let mut g = ProvGraph::new();
        let t1 = g.add_tuple("R", tup![1], None);
        let t2 = g.add_tuple("S", tup![2], None);
        g.add_derivation("base", tup![1], vec![], vec![t1], true);
        g.add_derivation("m", tup![9], vec![t1], vec![t2], false);
        g.freeze();
        assert_eq!((g.tuple_count(), g.derivation_count()), (2, 2));

        // Removing m orphans t2 (no remaining references) but keeps t1.
        g.remove_derivation_row("m", &tup![9]);
        assert_eq!((g.tuple_count(), g.derivation_count()), (1, 1));
        assert!(g.find_tuple("S", &tup![2]).is_none());
        assert!(g.find_tuple("R", &tup![1]).is_some());
        assert!(g.find_derivation("m", &tup![9]).is_none());
        assert!(g.consumers_of(t1).is_empty());
        // Iteration skips tombstones.
        assert_eq!(g.tuple_ids().count(), 1);
        assert_eq!(g.derivation_ids().count(), 1);
        // Removing the base derivation empties the graph.
        g.remove_derivation_row("base", &tup![1]);
        assert_eq!((g.tuple_count(), g.derivation_count()), (0, 0));
        assert!(g.topo_order().unwrap().is_empty());
        // Removing an unknown row is a no-op.
        g.remove_derivation_row("nope", &tup![0]);
    }

    #[test]
    fn digest_ignores_numbering_and_tombstones() {
        let mut a = ProvGraph::new();
        let t1 = a.add_tuple("R", tup![1], Some(tup![1, 5]));
        let t2 = a.add_tuple("S", tup![2], None);
        a.add_derivation("base", tup![1], vec![], vec![t1], true);
        a.add_derivation("m", tup![7], vec![t1], vec![t2], false);

        // Same content built in a different order, with an extra node that
        // is then removed (leaving a tombstone).
        let mut b = ProvGraph::new();
        let u1 = b.add_tuple("R", tup![1], Some(tup![1, 5]));
        let u3 = b.add_tuple("X", tup![9], None);
        b.add_derivation("mx", tup![0], vec![], vec![u3], true);
        let u2 = b.add_tuple("S", tup![2], None);
        b.add_derivation("m", tup![7], vec![u1], vec![u2], false);
        b.add_derivation("base", tup![1], vec![], vec![u1], true);
        b.remove_derivation_row("mx", &tup![0]);

        assert_eq!(a.digest(), b.digest());
        // Content changes change the digest.
        b.remove_derivation_row("m", &tup![7]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn rebuild_dense_compaction_preserves_content() {
        let mut g = ProvGraph::new();
        let mut keep = ProvGraph::new();
        for i in 0..20i64 {
            let t = g.add_tuple("R", tup![i], None);
            g.add_derivation("base", tup![i], vec![], vec![t], true);
            if i >= 15 {
                let t = keep.add_tuple("R", tup![i], None);
                keep.add_derivation("base", tup![i], vec![], vec![t], true);
            }
        }
        g.freeze();
        for i in 0..15i64 {
            g.remove_derivation_row("base", &tup![i]);
        }
        let before = g.digest();
        g.maybe_compact(); // 75% tombstones: must rebuild densely
        assert_eq!(g.tuple_id_bound(), 5, "compaction must drop tombstones");
        assert_eq!(g.digest(), before);
        assert_eq!(g.digest(), keep.digest());
    }

    #[test]
    fn apply_delta_matches_rebuild_after_insert() {
        let mut sys = example_2_1().unwrap();
        let mut g = ProvGraph::from_system(&sys).unwrap();
        let v0 = sys.version();
        sys.insert_local("A", tup![8, "sn8", 2]).unwrap();
        sys.run_exchange().unwrap();
        for entry in sys
            .delta_entries(v0, sys.version())
            .expect("delta chain available")
        {
            g.apply_delta(&sys, entry).unwrap();
        }
        g.maybe_compact();
        let rebuilt = ProvGraph::from_system(&sys).unwrap();
        assert_eq!(g.digest(), rebuilt.digest());
        assert_eq!(g.tuple_count(), rebuilt.tuple_count());
        assert_eq!(g.derivation_count(), rebuilt.derivation_count());
    }
}
