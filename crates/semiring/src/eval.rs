//! Bottom-up annotation evaluation over provenance graphs (paper §2.1).
//!
//! An evaluation covers a [`Region`] of a graph: the whole graph
//! ([`Region::all`]), or the tuples reachable backward from an answer's
//! bound nodes ([`Region::backward_from`]) — all the answer's values
//! depend on. Acyclic regions are evaluated in one topological pass.
//! Cyclic regions (recursive mappings — the paper's future-work case,
//! which this implementation supports) use Kleene fixpoint iteration over
//! the region, valid exactly for the idempotent semirings (Table 1's
//! first five rows); counting and polynomial annotations on cyclic
//! regions are reported as divergent.
//!
//! One walk serves every semiring, generic over the value it folds: the
//! scalar semirings fold plain [`Annotation`]s, the set-valued ones
//! (lineage, probability events, polynomials) fold compact token tags
//! (see `tag.rs`). Tags become strings again only when a value is read
//! through [`Evaluation::get`] — for the rows an answer returns.

use crate::annotation::Annotation;
use crate::semiring::{MapFn, SemiringKind};
use crate::tag::{is_tagged, Tag, Tokens};
use proql_common::par::par_map;
use proql_common::{DerivationId, Error, Parallelism, Result, TupleId};
use proql_provgraph::{DerivationNode, ProvGraph, TupleNode};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// A boxed leaf-assignment closure. `Send + Sync` so the level-parallel
/// evaluator can call it from worker threads.
pub type LeafFn<'a> = Box<dyn Fn(&TupleNode, &str) -> Annotation + Send + Sync + 'a>;

/// The value/function assignment of an annotation computation: which
/// semiring, what each leaf gets, and each mapping's unary function.
pub struct Assignment<'a> {
    /// The semiring to evaluate in.
    pub kind: SemiringKind,
    /// Base value of a leaf tuple node. Receives the node and its label
    /// (`"R(k1,k2)"`). Defaults should fall back to
    /// [`SemiringKind::default_leaf`].
    pub leaf: LeafFn<'a>,
    /// Unary function of each mapping (by name); default is identity.
    pub map_fn: Box<dyn Fn(&str) -> MapFn + Send + Sync + 'a>,
    /// Value of *dangling* leaves — tuple nodes with no derivations at all
    /// in the (projected) graph. `None` (the default) applies the `leaf`
    /// assignment, per the paper's projected-subgraph semantics; update
    /// exchange sets this to the semiring zero so tuples that lost every
    /// derivation are recognized as underivable.
    pub dangling: Option<Annotation>,
    /// Derivations to evaluate **as if removed**: they contribute nothing
    /// to their targets' ⊕, and a tuple whose every derivation is masked
    /// counts as dangling. CDSS deletion uses this to ask "what remains
    /// derivable without these `+` derivations?" against a shared,
    /// unmodified graph instead of cloning or rebuilding it. Ids are only
    /// meaningful for the graph being evaluated.
    pub masked: Option<HashSet<DerivationId>>,
}

impl<'a> Assignment<'a> {
    /// The default assignment: every leaf gets the semiring's default base
    /// value, every mapping is neutral.
    pub fn default_for(kind: SemiringKind) -> Assignment<'static> {
        Assignment {
            kind,
            leaf: Box::new(move |_, label| kind.default_leaf(label)),
            map_fn: Box::new(|_| MapFn::Identity),
            dangling: None,
            masked: None,
        }
    }

    /// Override the leaf assignment.
    pub fn with_leaf(
        mut self,
        f: impl Fn(&TupleNode, &str) -> Annotation + Send + Sync + 'a,
    ) -> Assignment<'a> {
        self.leaf = Box::new(f);
        self
    }

    /// Override the mapping-function assignment.
    pub fn with_map_fn(mut self, f: impl Fn(&str) -> MapFn + Send + Sync + 'a) -> Assignment<'a> {
        self.map_fn = Box::new(f);
        self
    }

    /// Give dangling leaves (no derivations at all) a fixed value.
    pub fn with_dangling(mut self, v: Annotation) -> Assignment<'a> {
        self.dangling = Some(v);
        self
    }

    /// Evaluate as if the given derivations were removed from the graph.
    pub fn with_masked(mut self, masked: HashSet<DerivationId>) -> Assignment<'a> {
        self.masked = Some(masked);
        self
    }

    fn is_masked(&self, d: DerivationId) -> bool {
        self.masked.as_ref().is_some_and(|m| m.contains(&d))
    }
}

/// The canonical label of a tuple node: `R(k1,k2)`.
pub fn leaf_label(node: &TupleNode) -> String {
    let mut label = String::with_capacity(node.relation.len() + 2 + 4 * node.key.arity());
    label.push_str(&node.relation);
    label.push('(');
    for (i, v) in node.key.iter().enumerate() {
        if i > 0 {
            label.push(',');
        }
        let _ = write!(label, "{v}");
    }
    label.push(')');
    label
}

/// The tuples one evaluation covers, in evaluation order, with the slot
/// each one's value occupies in the evaluation's side tables.
#[derive(Debug, Clone)]
pub struct Region {
    /// Sources before targets when the region is acyclic.
    order: Vec<TupleId>,
    slots: Slots,
    cyclic: bool,
}

#[derive(Debug, Clone)]
enum Slots {
    /// The whole graph: a tuple's slot is its id (tables cover
    /// tombstones too, like the graph's own dense tables).
    Dense(usize),
    /// A backward closure: slots numbered in discovery order.
    Sparse(HashMap<TupleId, u32>),
}

impl Region {
    /// Every live tuple of `graph`.
    pub fn all(graph: &ProvGraph) -> Region {
        let slots = Slots::Dense(graph.tuple_id_bound());
        match graph.topo_order() {
            Some(order) => Region {
                order,
                slots,
                cyclic: false,
            },
            None => Region {
                order: graph.tuple_ids().collect(),
                slots,
                cyclic: true,
            },
        }
    }

    /// The tuples reachable backward from `roots` through derivations
    /// (each tuple's derivations and their sources, transitively). The
    /// order comes from a depth-first search over the region alone; an
    /// edge back into the search stack marks the region cyclic.
    pub fn backward_from(graph: &ProvGraph, roots: impl IntoIterator<Item = TupleId>) -> Region {
        let mut slots: HashMap<TupleId, u32> = HashMap::new();
        let mut done: Vec<bool> = Vec::new();
        let mut order = Vec::new();
        let mut cyclic = false;
        // Frames: (tuple, next derivation, next source of that derivation).
        let mut stack: Vec<(TupleId, usize, usize)> = Vec::new();
        for root in roots {
            if slots.contains_key(&root) {
                continue;
            }
            slots.insert(root, done.len() as u32);
            done.push(false);
            stack.push((root, 0, 0));
            while let Some(frame) = stack.last_mut() {
                let (t, di, si) = *frame;
                let derivs = graph.derivations_of(t);
                let Some(&d) = derivs.get(di) else {
                    done[slots[&t] as usize] = true;
                    order.push(t);
                    stack.pop();
                    continue;
                };
                let Some(&s) = graph.derivation(d).sources.get(si) else {
                    *frame = (t, di + 1, 0);
                    continue;
                };
                frame.2 += 1;
                match slots.get(&s) {
                    Some(&slot) => cyclic |= !done[slot as usize],
                    None => {
                        slots.insert(s, done.len() as u32);
                        done.push(false);
                        stack.push((s, 0, 0));
                    }
                }
            }
        }
        Region {
            order,
            slots: Slots::Sparse(slots),
            cyclic,
        }
    }

    /// The region's tuples in evaluation order (topological when acyclic).
    pub fn tuples(&self) -> &[TupleId] {
        &self.order
    }

    /// True when a derivation cycle runs inside the region.
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// Size of a side table indexed by [`Region::slot`].
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::Dense(bound) => *bound,
            Slots::Sparse(slots) => slots.len(),
        }
    }

    /// True when the region holds no tuple.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The side-table slot of `t`, `None` outside the region.
    pub fn slot(&self, t: TupleId) -> Option<usize> {
        match &self.slots {
            Slots::Dense(bound) => (t.index() < *bound).then_some(t.index()),
            Slots::Sparse(slots) => slots.get(&t).map(|&s| s as usize),
        }
    }
}

/// The values of one evaluation, read per tuple.
#[derive(Debug)]
pub struct Evaluation<'r> {
    region: &'r Region,
    values: Values,
}

#[derive(Debug)]
enum Values {
    Plain(Vec<Option<Annotation>>),
    /// Tags plus the label of each token.
    Tagged(Vec<Option<Tag>>, Vec<String>),
}

impl<'r> Evaluation<'r> {
    /// The value of `t` (decoded from its tag for the set-valued
    /// semirings); `None` outside the region.
    pub fn get(&self, t: TupleId) -> Option<Annotation> {
        let slot = self.region.slot(t)?;
        match &self.values {
            Values::Plain(vals) => vals.get(slot)?.clone(),
            Values::Tagged(vals, names) => vals.get(slot)?.as_ref().map(|tag| tag.decode(names)),
        }
    }

    /// Every region tuple's value.
    pub fn into_map(self) -> HashMap<TupleId, Annotation> {
        let region = self.region;
        match self.values {
            Values::Plain(mut vals) => region
                .order
                .iter()
                .filter_map(|&t| Some((t, vals[region.slot(t)?].take()?)))
                .collect(),
            Values::Tagged(vals, names) => region
                .order
                .iter()
                .filter_map(|&t| Some((t, vals[region.slot(t)?].as_ref()?.decode(&names))))
                .collect(),
        }
    }
}

/// Evaluate annotations for every tuple node of `graph`.
///
/// Dispatches to the single-pass algorithm on acyclic graphs and to
/// fixpoint iteration otherwise.
pub fn evaluate(
    graph: &ProvGraph,
    assign: &Assignment<'_>,
) -> Result<HashMap<TupleId, Annotation>> {
    evaluate_with(graph, assign, Parallelism::Serial)
}

/// [`evaluate`] with a [`Parallelism`] knob: [`evaluate_region`] over
/// [`Region::all`].
pub fn evaluate_with(
    graph: &ProvGraph,
    assign: &Assignment<'_>,
    par: Parallelism,
) -> Result<HashMap<TupleId, Annotation>> {
    let region = Region::all(graph);
    Ok(evaluate_region(graph, &region, assign, par)?.into_map())
}

/// Evaluate the tuples of `region`. Every tuple a region tuple reads is in
/// the region, so its values equal a whole-graph evaluation's (and, for a
/// backward region, an evaluation of the decoded subgraph the region's
/// derivations form).
///
/// With parallelism enabled, an acyclic region is walked **level by
/// level**: a tuple's level is one past its deepest source, so tuples of
/// one level are independent and evaluate on worker threads, with results
/// merged deterministically. Values are identical to the serial walk —
/// each tuple's fold still visits its derivations and sources in the same
/// order — and a failing evaluation re-runs serially so even the surfaced
/// error is the serial one. Cyclic regions use the (serial) fixpoint
/// under every knob.
pub fn evaluate_region<'r>(
    graph: &ProvGraph,
    region: &'r Region,
    assign: &Assignment<'_>,
    par: Parallelism,
) -> Result<Evaluation<'r>> {
    if region.is_cyclic() && !assign.kind.converges_on_cycles() {
        return Err(Error::Semiring(format!(
            "the {} semiring may diverge on cyclic provenance graphs \
             (not idempotent/absorptive); the paper's Table 1 limits cycles \
             to the first five semirings",
            assign.kind
        )));
    }
    let values = if is_tagged(assign.kind) {
        let mut tokens = Tokens::default();
        let fold = TagFold::new(graph, region, assign, &mut tokens)?;
        Values::Tagged(walk(graph, &fold, region, par)?, tokens.into_names())
    } else {
        Values::Plain(walk(graph, &PlainFold { graph, assign }, region, par)?)
    };
    Ok(Evaluation { region, values })
}

/// One semiring's values as the walk folds them.
trait Fold: Sync {
    type V: Clone + PartialEq + Send + Sync;
    fn zero(&self) -> Self::V;
    fn one(&self) -> Self::V;
    fn plus(&self, acc: Self::V, x: Self::V) -> Result<Self::V>;
    fn times(&self, acc: Self::V, x: &Self::V) -> Result<Self::V>;
    /// Apply derivation `d`'s mapping function.
    fn map(&self, d: DerivationId, node: &DerivationNode, x: Self::V) -> Result<Self::V>;
    /// The base value of leaf tuple `t`.
    fn leaf(&self, t: TupleId) -> Result<Self::V>;
    /// The fixed value of a tuple with no unmasked derivation, if any.
    fn dangling(&self) -> Option<&Self::V>;
    fn masked(&self, d: DerivationId) -> bool;
}

/// The scalar semirings: plain annotations, leaves assigned on demand.
struct PlainFold<'g, 'a> {
    graph: &'g ProvGraph,
    assign: &'g Assignment<'a>,
}

impl Fold for PlainFold<'_, '_> {
    type V = Annotation;

    fn zero(&self) -> Annotation {
        self.assign.kind.zero()
    }

    fn one(&self) -> Annotation {
        self.assign.kind.one()
    }

    fn plus(&self, acc: Annotation, x: Annotation) -> Result<Annotation> {
        self.assign.kind.plus(&acc, &x)
    }

    fn times(&self, acc: Annotation, x: &Annotation) -> Result<Annotation> {
        self.assign.kind.times(&acc, x)
    }

    fn map(&self, _: DerivationId, node: &DerivationNode, x: Annotation) -> Result<Annotation> {
        match (self.assign.map_fn)(&node.mapping) {
            MapFn::Identity => Ok(x),
            MapFn::TimesConst(c) => self.assign.kind.times(&c, &x),
        }
    }

    fn leaf(&self, t: TupleId) -> Result<Annotation> {
        let tn = self.graph.tuple(t);
        let v = (self.assign.leaf)(tn, &leaf_label(tn));
        self.assign.kind.check_value(&v)?;
        Ok(v)
    }

    fn dangling(&self) -> Option<&Annotation> {
        self.assign.dangling.as_ref()
    }

    fn masked(&self, d: DerivationId) -> bool {
        self.assign.is_masked(d)
    }
}

/// The set-valued semirings: tags over the evaluation's tokens. Leaf
/// values and mapping constants are encoded once, before the walk, so the
/// walk itself interns nothing and can run on worker threads.
struct TagFold<'g, 'a> {
    assign: &'g Assignment<'a>,
    /// Leaf tag per tuple the walk asks for (labelled once each).
    leaves: HashMap<TupleId, Tag>,
    /// Constants of the derivations whose mapping function is not the
    /// identity.
    maps: HashMap<DerivationId, Tag>,
    dangling: Option<Tag>,
}

impl<'g, 'a> TagFold<'g, 'a> {
    fn new(
        graph: &ProvGraph,
        region: &Region,
        assign: &'g Assignment<'a>,
        tokens: &mut Tokens,
    ) -> Result<TagFold<'g, 'a>> {
        let kind = assign.kind;
        let dangling = match &assign.dangling {
            Some(v) => Some(Tag::encode(kind, v.clone(), tokens)?),
            None => None,
        };
        let mut leaves: HashMap<TupleId, Tag> = HashMap::new();
        let mut maps: HashMap<DerivationId, Tag> = HashMap::new();
        let mut add_leaf = |t: TupleId, tokens: &mut Tokens| -> Result<()> {
            if let Entry::Vacant(slot) = leaves.entry(t) {
                let tn = graph.tuple(t);
                slot.insert(Tag::encode(
                    kind,
                    (assign.leaf)(tn, &leaf_label(tn)),
                    tokens,
                )?);
            }
            Ok(())
        };
        // The walk's own decisions, made ahead of it: a tuple left without
        // derivations reads its leaf; a `+` derivation reads its target's.
        for &t in region.tuples() {
            let derivs = graph.derivations_of(t);
            if derivs.iter().all(|&d| assign.is_masked(d)) {
                if dangling.is_none() {
                    add_leaf(t, tokens)?;
                }
                continue;
            }
            for &d in derivs {
                if assign.is_masked(d) {
                    continue;
                }
                let node = graph.derivation(d);
                if node.is_base {
                    if let Some(&target) = node.targets.first() {
                        add_leaf(target, tokens)?;
                    }
                }
                if let MapFn::TimesConst(c) = (assign.map_fn)(&node.mapping) {
                    maps.insert(d, Tag::encode(kind, c, tokens)?);
                }
            }
        }
        Ok(TagFold {
            assign,
            leaves,
            maps,
            dangling,
        })
    }
}

impl Fold for TagFold<'_, '_> {
    type V = Tag;

    fn zero(&self) -> Tag {
        Tag::zero(self.assign.kind)
    }

    fn one(&self) -> Tag {
        Tag::one(self.assign.kind)
    }

    fn plus(&self, acc: Tag, x: Tag) -> Result<Tag> {
        acc.plus(x)
    }

    fn times(&self, acc: Tag, x: &Tag) -> Result<Tag> {
        acc.times(x)
    }

    fn map(&self, d: DerivationId, _: &DerivationNode, x: Tag) -> Result<Tag> {
        match self.maps.get(&d) {
            Some(c) => c.clone().times(&x),
            None => Ok(x),
        }
    }

    fn leaf(&self, t: TupleId) -> Result<Tag> {
        self.leaves
            .get(&t)
            .cloned()
            .ok_or_else(|| Error::Semiring(format!("no leaf value encoded for {t}")))
    }

    fn dangling(&self) -> Option<&Tag> {
        self.dangling.as_ref()
    }

    fn masked(&self, d: DerivationId) -> bool {
        self.assign.is_masked(d)
    }
}

fn derivation_value<F: Fold>(
    graph: &ProvGraph,
    fold: &F,
    region: &Region,
    d: DerivationId,
    vals: &[Option<F::V>],
) -> Result<F::V> {
    let node = graph.derivation(d);
    let inner = if node.is_base {
        // A `+` derivation: its value is the leaf assignment of its target.
        let target = node
            .targets
            .first()
            .ok_or_else(|| Error::Semiring("base derivation without target".into()))?;
        fold.leaf(*target)?
    } else {
        let mut acc = fold.one();
        for &s in &node.sources {
            acc = match region.slot(s).and_then(|i| vals[i].as_ref()) {
                Some(sv) => fold.times(acc, sv)?,
                None => fold.times(acc, &fold.zero())?,
            };
        }
        acc
    };
    fold.map(d, node, inner)
}

fn tuple_value<F: Fold>(
    graph: &ProvGraph,
    fold: &F,
    region: &Region,
    t: TupleId,
    vals: &[Option<F::V>],
) -> Result<F::V> {
    let derivs = graph.derivations_of(t);
    if derivs.iter().all(|&d| fold.masked(d)) {
        // Dangling leaf (possibly only after masking): gets the configured
        // value or a leaf assignment.
        return match fold.dangling() {
            Some(v) => Ok(v.clone()),
            None => fold.leaf(t),
        };
    }
    let mut acc = fold.zero();
    for &d in derivs {
        if fold.masked(d) {
            continue;
        }
        let dv = derivation_value(graph, fold, region, d, vals)?;
        acc = fold.plus(acc, dv)?;
    }
    Ok(acc)
}

/// The walk: values of every region tuple, indexed by slot.
fn walk<F: Fold>(
    graph: &ProvGraph,
    fold: &F,
    region: &Region,
    par: Parallelism,
) -> Result<Vec<Option<F::V>>> {
    let par = par.resolved();
    if region.is_cyclic() {
        walk_fixpoint(graph, fold, region)
    } else if par.is_parallel() {
        walk_by_levels(graph, fold, region, par)
    } else {
        walk_in_order(graph, fold, region)
    }
}

fn walk_in_order<F: Fold>(
    graph: &ProvGraph,
    fold: &F,
    region: &Region,
) -> Result<Vec<Option<F::V>>> {
    let mut vals: Vec<Option<F::V>> = vec![None; region.len()];
    for &t in region.tuples() {
        let v = tuple_value(graph, fold, region, t, &vals)?;
        vals[region.slot(t).expect("region tuple")] = Some(v);
    }
    Ok(vals)
}

/// Levels below which a level evaluates serially anyway (thread handoff
/// costs more than a handful of folds).
const PAR_LEVEL_MIN: usize = 64;

/// Bucket an acyclic region's tuples by **derivation depth**: a tuple's
/// level is one past the deepest source feeding any of its derivations
/// (base derivations contribute level 0), so tuples of one level depend
/// only on strictly lower levels. Within a level, tuples keep the region's
/// (topological) order.
fn level_order(graph: &ProvGraph, region: &Region) -> Vec<Vec<TupleId>> {
    let mut level: Vec<u32> = vec![0; region.len()];
    let mut max_level = 0u32;
    for &t in region.tuples() {
        let mut lvl = 0;
        for &d in graph.derivations_of(t) {
            for &s in &graph.derivation(d).sources {
                if let Some(i) = region.slot(s) {
                    lvl = lvl.max(level[i] + 1);
                }
            }
        }
        level[region.slot(t).expect("region tuple")] = lvl;
        max_level = max_level.max(lvl);
    }
    let mut by_level: Vec<Vec<TupleId>> = vec![Vec::new(); max_level as usize + 1];
    for &t in region.tuples() {
        by_level[level[region.slot(t).expect("region tuple")] as usize].push(t);
    }
    by_level
}

/// Level-parallel bottom-up pass over an acyclic region: group tuples by
/// derivation depth, then evaluate each level's tuples concurrently (they
/// only read values of strictly lower levels).
fn walk_by_levels<F: Fold>(
    graph: &ProvGraph,
    fold: &F,
    region: &Region,
    par: Parallelism,
) -> Result<Vec<Option<F::V>>> {
    let by_level = level_order(graph, region);
    let mut vals: Vec<Option<F::V>> = vec![None; region.len()];
    for tuples in &by_level {
        let results: Vec<Result<F::V>> = if tuples.len() < PAR_LEVEL_MIN {
            tuples
                .iter()
                .map(|&t| tuple_value(graph, fold, region, t, &vals))
                .collect()
        } else {
            par_map(tuples.len(), par.threads(), |i| {
                tuple_value(graph, fold, region, tuples[i], &vals)
            })
        };
        for (&t, v) in tuples.iter().zip(results) {
            match v {
                Ok(v) => vals[region.slot(t).expect("region tuple")] = Some(v),
                // Level order visits failures in a different order than
                // the serial topo walk; re-run serially so the surfaced
                // error is exactly the serial one (per-tuple folds are
                // deterministic, so the serial pass must fail too).
                Err(_) => return walk_in_order(graph, fold, region),
            }
        }
    }
    Ok(vals)
}

/// Kleene iteration from zero until no region value changes. Callers
/// check [`SemiringKind::converges_on_cycles`] first.
fn walk_fixpoint<F: Fold>(
    graph: &ProvGraph,
    fold: &F,
    region: &Region,
) -> Result<Vec<Option<F::V>>> {
    let edges: usize = region
        .tuples()
        .iter()
        .map(|&t| graph.derivations_of(t).len())
        .sum();
    let rounds = region.tuples().len() + edges + 2;
    let mut vals: Vec<Option<F::V>> = vec![Some(fold.zero()); region.len()];
    for _ in 0..rounds {
        let mut changed = false;
        for &t in region.tuples() {
            let v = tuple_value(graph, fold, region, t, &vals)?;
            let slot = region.slot(t).expect("region tuple");
            if vals[slot].as_ref() != Some(&v) {
                vals[slot] = Some(v);
                changed = true;
            }
        }
        if !changed {
            return Ok(vals);
        }
    }
    Err(Error::Semiring(
        "fixpoint iteration did not converge (non-monotone assignment?)".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::SecurityLevel;
    use proql_common::tup;
    use proql_provgraph::system::example_2_1;

    fn example_graph() -> ProvGraph {
        ProvGraph::from_system(&example_2_1().unwrap()).unwrap()
    }

    #[test]
    fn masked_derivations_evaluate_as_removed() {
        let g = example_graph();
        // Mask the `+` derivation grounding C(2,cn2): the C/N cycle loses
        // its only ground support, so the cn2 family becomes underivable
        // without mutating the shared graph.
        let c2 = g.find_tuple("C", &tup![2, "cn2"]).unwrap();
        let base = g
            .derivations_of(c2)
            .iter()
            .copied()
            .find(|&d| g.derivation(d).is_base)
            .expect("C(2,cn2) is locally grounded");
        let assign = Assignment::default_for(SemiringKind::Derivability)
            .with_dangling(Annotation::Bool(false))
            .with_masked([base].into_iter().collect());
        let vals = evaluate(&g, &assign).unwrap();
        assert_eq!(vals.get(&c2), Some(&Annotation::Bool(false)));
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals.get(&ocn2), Some(&Annotation::Bool(false)));
        // Tuples grounded elsewhere survive the mask.
        let osn1 = g.find_tuple("O", &tup!["sn1"]).unwrap();
        assert_eq!(vals.get(&osn1), Some(&Annotation::Bool(true)));
        // The same graph unmasked still derives everything.
        let assign = Assignment::default_for(SemiringKind::Derivability)
            .with_dangling(Annotation::Bool(false));
        let vals = evaluate(&g, &assign).unwrap();
        assert_eq!(vals.get(&c2), Some(&Annotation::Bool(true)));
    }

    #[test]
    fn derivability_on_cyclic_example() {
        // The full Figure 1 graph is cyclic; derivability converges by
        // fixpoint and everything is derivable.
        let g = example_graph();
        let vals = evaluate(&g, &Assignment::default_for(SemiringKind::Derivability)).unwrap();
        for t in g.tuple_ids() {
            assert_eq!(
                vals[&t],
                Annotation::Bool(true),
                "{} should be derivable",
                leaf_label(g.tuple(t))
            );
        }
    }

    #[test]
    fn counting_errors_on_cyclic_graph() {
        let g = example_graph();
        let err = evaluate(&g, &Assignment::default_for(SemiringKind::Counting)).unwrap_err();
        assert!(err.to_string().contains("diverge"));
    }

    #[test]
    fn counting_on_acyclic_projection() {
        let g = example_graph();
        // Keep base + m4 + m5 derivations: acyclic, O tuples countable.
        let derivs: Vec<_> = g
            .derivation_ids()
            .filter(|&d| {
                let n = g.derivation(d);
                n.is_base || n.mapping == "m4" || n.mapping == "m5"
            })
            .collect();
        let sub = g.project(derivs);
        let vals = evaluate(&sub, &Assignment::default_for(SemiringKind::Counting)).unwrap();
        // O(sn1): only via m4 from A(1) => 1 derivation... but A(1) itself
        // has one base derivation, so count(O(sn1)) = 1.
        let osn1 = sub.find_tuple("O", &tup!["sn1"]).unwrap();
        assert_eq!(vals[&osn1], Annotation::Count(1));
        // O(cn2) via m5 from A(2) and C(2,cn2) (both base) = 1.
        let ocn2 = sub.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals[&ocn2], Annotation::Count(1));
    }

    #[test]
    fn q7_trust_policy() {
        // Paper Q7: distrust A tuples with len >= 6, distrust mapping m4,
        // trust everything else. O(sn1,7) comes only via m4 (distrusted) or
        // from A(1) (len 7, distrusted): untrusted. O(cn2,5) via m5 from
        // A(2) (len 5, trusted) and C(2,cn2) (trusted): trusted.
        let g = example_graph();
        let assign = Assignment::default_for(SemiringKind::Trust)
            .with_leaf(|node, _| {
                if node.relation == "A" {
                    let len = node
                        .values
                        .as_ref()
                        .and_then(|v| v.get(2).as_int())
                        .unwrap_or(0);
                    Annotation::Bool(len < 6)
                } else {
                    Annotation::Bool(true)
                }
            })
            .with_map_fn(|m| {
                if m == "m4" {
                    MapFn::zero(SemiringKind::Trust)
                } else {
                    MapFn::Identity
                }
            });
        let vals = evaluate(&g, &assign).unwrap();
        let osn1 = g.find_tuple("O", &tup!["sn1"]).unwrap();
        assert_eq!(vals[&osn1], Annotation::Bool(false));
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals[&ocn2], Annotation::Bool(true));
        // cn1 depends on A(1) (len 7): untrusted through every path.
        let ocn1 = g.find_tuple("O", &tup!["cn1"]).unwrap();
        assert_eq!(vals[&ocn1], Annotation::Bool(false));
    }

    #[test]
    fn lineage_collects_base_tuples() {
        let g = example_graph();
        let vals = evaluate(&g, &Assignment::default_for(SemiringKind::Lineage)).unwrap();
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        let lineage = vals[&ocn2].as_lineage().unwrap();
        assert!(lineage.contains("A(2)"));
        assert!(lineage.contains("C(2,cn2)"));
        assert!(!lineage.contains("A(1)"));
    }

    #[test]
    fn weight_takes_cheapest_path() {
        let g = example_graph();
        // Leaf weights: A tuples cost 10, others cost 1.
        let assign = Assignment::default_for(SemiringKind::Weight)
            .with_leaf(|node, _| Annotation::Weight(if node.relation == "A" { 10.0 } else { 1.0 }));
        let vals = evaluate(&g, &assign).unwrap();
        // O(cn2) via m5 needs A(2) + C(2,cn2): 10 + 1 = 11.
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals[&ocn2], Annotation::Weight(11.0));
        // O(sn2) via m4 from A(2) alone: 10.
        let osn2 = g.find_tuple("O", &tup!["sn2"]).unwrap();
        assert_eq!(vals[&osn2], Annotation::Weight(10.0));
    }

    #[test]
    fn confidentiality_levels_combine() {
        let g = example_graph();
        let assign = Assignment::default_for(SemiringKind::Confidentiality).with_leaf(|node, _| {
            Annotation::Level(if node.relation == "A" {
                SecurityLevel::Secret
            } else {
                SecurityLevel::Public
            })
        });
        let vals = evaluate(&g, &assign).unwrap();
        // Every O tuple requires some A tuple: at least Secret.
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals[&ocn2], Annotation::Level(SecurityLevel::Secret));
    }

    #[test]
    fn probability_events_compose() {
        let g = example_graph();
        let vals = evaluate(&g, &Assignment::default_for(SemiringKind::Probability)).unwrap();
        let ocn2 = g.find_tuple("O", &tup!["cn2"]).unwrap();
        let ev = vals[&ocn2].as_event().unwrap();
        // Single minimal conjunct {A(2), C(2,cn2)}.
        assert_eq!(ev.len(), 1);
        let conj = ev.iter().next().unwrap();
        assert!(conj.contains("A(2)") && conj.contains("C(2,cn2)"));
    }

    #[test]
    fn polynomial_how_provenance_on_acyclic_projection() {
        let g = example_graph();
        let derivs: Vec<_> = g
            .derivation_ids()
            .filter(|&d| {
                let n = g.derivation(d);
                n.is_base || n.mapping == "m4" || n.mapping == "m5"
            })
            .collect();
        let sub = g.project(derivs);
        let vals = evaluate(&sub, &Assignment::default_for(SemiringKind::Polynomial)).unwrap();
        let ocn2 = sub.find_tuple("O", &tup!["cn2"]).unwrap();
        assert_eq!(vals[&ocn2].to_string(), "A(2)·C(2,cn2)");
    }

    #[test]
    fn untrusted_leaf_breaks_derivability_chain() {
        let g = example_graph();
        // Distrust everything: nothing is derivable as trusted.
        let assign =
            Assignment::default_for(SemiringKind::Trust).with_leaf(|_, _| Annotation::Bool(false));
        let vals = evaluate(&g, &assign).unwrap();
        for t in g.tuple_ids() {
            assert_eq!(vals[&t], Annotation::Bool(false));
        }
    }

    #[test]
    fn leaf_type_mismatch_is_error() {
        let g = example_graph();
        let assign =
            Assignment::default_for(SemiringKind::Weight).with_leaf(|_, _| Annotation::Bool(true));
        assert!(evaluate(&g, &assign).is_err());
    }

    #[test]
    fn level_parallel_evaluation_matches_serial_walk() {
        // A wide acyclic DAG (> PAR_LEVEL_MIN tuples per level) so the
        // parallel path actually fans out.
        let mut g = ProvGraph::new();
        let width = super::PAR_LEVEL_MIN * 2;
        let mut prev: Vec<proql_common::TupleId> = (0..width as i64)
            .map(|i| {
                let t = g.add_tuple("L0", tup![i], None);
                g.add_derivation("base", tup![i], vec![], vec![t], true);
                t
            })
            .collect();
        for layer in 1..4 {
            let mut nodes = Vec::new();
            for j in 0..width as i64 {
                let t = g.add_tuple(&format!("L{layer}"), tup![j], None);
                let sources = vec![
                    prev[j as usize % prev.len()],
                    prev[(j as usize + 7) % prev.len()],
                ];
                g.add_derivation(&format!("m{layer}"), tup![j], sources, vec![t], false);
                nodes.push(t);
            }
            prev = nodes;
        }
        for kind in [
            SemiringKind::Counting,
            SemiringKind::Weight,
            SemiringKind::Derivability,
            SemiringKind::Polynomial,
        ] {
            let serial = evaluate(&g, &Assignment::default_for(kind)).unwrap();
            for par in [Parallelism::Threads(2), Parallelism::Threads(8)] {
                let parallel = evaluate_with(&g, &Assignment::default_for(kind), par).unwrap();
                assert_eq!(serial, parallel, "{kind} under {par:?}");
            }
        }
    }

    #[test]
    fn counting_overflow_errors_identically_in_serial_and_parallel() {
        // A doubling chain: count(L_k) = 2^k, overflowing u64 at k = 64.
        let mut g = ProvGraph::new();
        let mut prev = g.add_tuple("L", tup![0], None);
        g.add_derivation("base", tup![0], vec![], vec![prev], true);
        for k in 1..=70i64 {
            let t = g.add_tuple("L", tup![k], None);
            g.add_derivation(&format!("a{k}"), tup![k], vec![prev], vec![t], false);
            g.add_derivation(&format!("b{k}"), tup![k], vec![prev], vec![t], false);
            prev = t;
        }
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let err = evaluate_with(&g, &Assignment::default_for(SemiringKind::Counting), par)
                .unwrap_err();
            assert!(
                matches!(err, Error::Overflow(_)),
                "expected overflow under {par:?}, got {err}"
            );
        }
    }

    #[test]
    fn dangling_leaves_in_projection_get_assignments() {
        let g = example_graph();
        // Project only m5 derivations (no base): sources A, C become
        // dangling leaves and receive leaf values.
        let derivs: Vec<_> = g
            .derivation_ids()
            .filter(|&d| g.derivation(d).mapping == "m5")
            .collect();
        let sub = g.project(derivs);
        let vals = evaluate(&sub, &Assignment::default_for(SemiringKind::Lineage)).unwrap();
        let a2 = sub.find_tuple("A", &tup![2]).unwrap();
        assert_eq!(vals[&a2].as_lineage().unwrap().len(), 1);
    }

    const KINDS: [SemiringKind; 8] = [
        SemiringKind::Derivability,
        SemiringKind::Trust,
        SemiringKind::Confidentiality,
        SemiringKind::Weight,
        SemiringKind::Lineage,
        SemiringKind::Probability,
        SemiringKind::Counting,
        SemiringKind::Polynomial,
    ];

    const PARS: [Parallelism; 3] = [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ];

    /// A random graph: the first third of the tuples are leaves (a quarter
    /// of them with no derivation at all, i.e. dangling), the rest derive
    /// from lower-numbered tuples — or, when `cyclic`, occasionally from
    /// any tuple. Some derivations also target a higher-numbered tuple.
    fn random_graph(rng: &mut proql_common::rng::SplitMix64, cyclic: bool) -> ProvGraph {
        let mut g = ProvGraph::new();
        let n = rng.gen_range_usize(6, 40);
        let ts: Vec<TupleId> = (0..n)
            .map(|i| g.add_tuple(&format!("R{}", i % 3), tup![i as i64], None))
            .collect();
        let leaves = n / 3;
        for (i, &t) in ts.iter().enumerate().take(leaves) {
            if rng.gen_range_usize(0, 4) != 0 {
                g.add_derivation("base", tup![i as i64], vec![], vec![t], true);
            }
        }
        for i in leaves..n {
            for d in 0..rng.gen_range_usize(1, 3) {
                let sources = (0..rng.gen_range_usize(1, 3))
                    .map(|_| {
                        let hi = if cyclic && rng.gen_range_usize(0, 5) == 0 {
                            n
                        } else {
                            i
                        };
                        ts[rng.gen_range_usize(0, hi)]
                    })
                    .collect();
                let mut targets = vec![ts[i]];
                if i + 1 < n && rng.gen_range_usize(0, 6) == 0 {
                    targets.push(ts[rng.gen_range_usize(i + 1, n)]);
                }
                g.add_derivation(
                    &format!("m{d}"),
                    tup![i as i64, d as i64],
                    sources,
                    targets,
                    false,
                );
            }
        }
        g.freeze();
        g
    }

    /// Leaves with values that tell tuples apart in every semiring.
    fn keyed_assignment(kind: SemiringKind) -> Assignment<'static> {
        Assignment::default_for(kind).with_leaf(move |node, label| {
            let k = node.key.get(0).as_int().unwrap_or(0);
            match kind {
                SemiringKind::Weight => Annotation::Weight(k as f64),
                SemiringKind::Confidentiality => {
                    Annotation::Level(SecurityLevel::ALL[k as usize % 4])
                }
                SemiringKind::Trust => Annotation::Bool(k % 5 != 0),
                _ => kind.default_leaf(label),
            }
        })
    }

    #[test]
    fn region_evaluation_matches_whole_graph_at_the_roots() {
        let mut rng = proql_common::rng::SplitMix64::seed_from_u64(0x004E_610A);
        for case in 0..48 {
            let g = random_graph(&mut rng, case % 2 == 1);
            let roots: Vec<TupleId> = (0..rng.gen_range_usize(1, 5))
                .map(|_| TupleId(rng.gen_range_usize(0, g.tuple_id_bound()) as u32))
                .collect();
            let masked: HashSet<DerivationId> = if case % 3 == 0 {
                g.derivation_ids()
                    .filter(|_| rng.gen_range_usize(0, 7) == 0)
                    .collect()
            } else {
                HashSet::new()
            };
            let region = Region::backward_from(&g, roots.iter().copied());
            // The decoded subgraph of the region's derivations: what the
            // projection of these roots decodes to.
            let sub = g.project(
                region
                    .tuples()
                    .iter()
                    .flat_map(|&t| g.derivations_of(t).iter().copied()),
            );
            assert_eq!(sub.is_cyclic(), region.is_cyclic(), "case {case}");
            for kind in KINDS {
                for par in PARS {
                    let mut assign = keyed_assignment(kind);
                    if case % 4 == 1 {
                        assign = assign.with_dangling(kind.zero());
                    }
                    let plain = evaluate_region(&g, &region, &assign, par);
                    if !masked.is_empty() {
                        assign = assign.with_masked(masked.clone());
                    }
                    let part = evaluate_region(&g, &region, &assign, par);
                    let at = format!("case {case}: {kind} under {par:?}");
                    match evaluate_with(&g, &assign, par) {
                        Ok(whole) => {
                            let part = part.unwrap_or_else(|e| panic!("{at}: {e}"));
                            for &r in &roots {
                                assert_eq!(part.get(r).as_ref(), whole.get(&r), "{at}");
                            }
                        }
                        Err(e) => {
                            assert!(g.is_cyclic() && !kind.converges_on_cycles(), "{at}: {e}");
                            assert_eq!(part.is_ok(), !region.is_cyclic(), "{at}");
                        }
                    }
                    // Unmasked, the region also equals the decoded subgraph.
                    match evaluate_with(&sub, &assign_without_mask(kind, case), par) {
                        Ok(decoded) => {
                            let plain = plain.unwrap_or_else(|e| panic!("{at}: {e}"));
                            for &r in &roots {
                                let node = g.tuple(r);
                                let Some(s) = sub.find_tuple(&node.relation, &node.key) else {
                                    continue; // not in the decoded subgraph at all
                                };
                                assert_eq!(plain.get(r).as_ref(), decoded.get(&s), "{at}");
                            }
                        }
                        Err(_) => assert!(plain.is_err(), "{at}"),
                    }
                }
            }
        }
    }

    fn assign_without_mask(kind: SemiringKind, case: usize) -> Assignment<'static> {
        let assign = keyed_assignment(kind);
        if case % 4 == 1 {
            assign.with_dangling(kind.zero())
        } else {
            assign
        }
    }

    #[test]
    fn acyclic_region_of_a_cyclic_graph_counts_and_multiplies() {
        // X and Y derive each other; B derives from A twice, apart from
        // the cycle.
        let mut g = ProvGraph::new();
        let x = g.add_tuple("X", tup![1], None);
        let y = g.add_tuple("Y", tup![1], None);
        g.add_derivation("bx", tup![1], vec![], vec![x], true);
        g.add_derivation("xy", tup![1], vec![x], vec![y], false);
        g.add_derivation("yx", tup![1], vec![y], vec![x], false);
        let a = g.add_tuple("A", tup![1], None);
        g.add_derivation("ba", tup![1], vec![], vec![a], true);
        let b = g.add_tuple("B", tup![1], None);
        g.add_derivation("ab", tup![1], vec![a, a], vec![b], false);
        g.freeze();
        assert!(g.is_cyclic());
        let region = Region::backward_from(&g, [b]);
        assert!(!region.is_cyclic());
        assert_eq!(region.tuples(), &[a, b]);
        for par in PARS {
            let count = Assignment::default_for(SemiringKind::Counting);
            assert!(evaluate_with(&g, &count, par).is_err());
            let vals = evaluate_region(&g, &region, &count, par).unwrap();
            assert_eq!(vals.get(b), Some(Annotation::Count(1)));
            let poly = Assignment::default_for(SemiringKind::Polynomial);
            let vals = evaluate_region(&g, &region, &poly, par).unwrap();
            assert_eq!(vals.get(b).unwrap().to_string(), "A(1)^2");
            assert_eq!(vals.get(x), None, "outside the region");
        }
        // The cycle's own region diverges for counting, converges for
        // lineage.
        let cyc = Region::backward_from(&g, [y]);
        assert!(cyc.is_cyclic());
        let count = Assignment::default_for(SemiringKind::Counting);
        assert!(evaluate_region(&g, &cyc, &count, Parallelism::Serial).is_err());
        let lineage = Assignment::default_for(SemiringKind::Lineage);
        let vals = evaluate_region(&g, &cyc, &lineage, Parallelism::Serial).unwrap();
        assert_eq!(vals.get(y).unwrap().to_string(), "{X(1)}");
    }

    #[test]
    fn squaring_chain_overflows_polynomial_exponents() {
        // poly(L_k) = x^(2^k): the exponent passes u32::MAX at k = 32.
        let mut g = ProvGraph::new();
        let mut prev = g.add_tuple("L", tup![0], None);
        g.add_derivation("base", tup![0], vec![], vec![prev], true);
        for k in 1..=33i64 {
            let t = g.add_tuple("L", tup![k], None);
            g.add_derivation(&format!("sq{k}"), tup![k], vec![prev, prev], vec![t], false);
            prev = t;
        }
        let poly = Assignment::default_for(SemiringKind::Polynomial);
        let region = Region::backward_from(&g, [prev]);
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let err = evaluate_with(&g, &poly, par).unwrap_err();
            assert!(matches!(err, Error::Overflow(_)), "{par:?}: {err}");
            let err = evaluate_region(&g, &region, &poly, par).unwrap_err();
            assert!(matches!(err, Error::Overflow(_)), "{par:?}: {err}");
        }
        // One level short of the overflow evaluates.
        let region = Region::backward_from(&g, [TupleId(31)]);
        let vals = evaluate_region(&g, &region, &poly, Parallelism::Serial).unwrap();
        assert_eq!(
            vals.get(TupleId(31)).unwrap().to_string(),
            "L(0)^2147483648"
        );
    }
}
