//! CDSS mapping topologies (paper Figures 5 and 6).
//!
//! Peers are numbered; peer 0 is the **target peer** every mapping
//! ultimately propagates data to. Each peer `i` hosts two relations
//! `R{i}a(k, ...)` / `R{i}b(k, ...)` (the partitioned universal relation),
//! and each mapping is the pair-unit GLAV mapping
//!
//! ```text
//! m{c}: R{p}a(k, x...), R{p}b(k, y...) :- R{c}a(k, x...), R{c}b(k, y...)
//! ```
//!
//! from child peer `c` to parent peer `p` — "a join between two such
//! relations in the body and another join between two relations in the
//! head" (§6.1.1).

use crate::workload::SwissProtLike;
use proql_common::Result;
use proql_provgraph::ProvenanceSystem;

/// Which mapping graph to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Peers in a line: `0 ← 1 ← 2 ← ...` (Figure 5).
    Chain,
    /// A binary tree rooted at peer 0: peer `i` receives from `2i+1` and
    /// `2i+2` (Figure 6).
    Branched,
}

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct CdssConfig {
    /// Number of peers.
    pub peers: usize,
    /// Peers holding local (base) data.
    pub data_peers: Vec<usize>,
    /// Entries inserted locally at each data peer (the paper's
    /// "base size").
    pub base_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Attributes of the universal relation (25 in the paper).
    pub attrs: usize,
}

impl CdssConfig {
    /// A chain/branched setting with data at the `data_peers` listed.
    pub fn new(peers: usize, data_peers: Vec<usize>, base_size: usize) -> Self {
        CdssConfig {
            peers,
            data_peers,
            base_size,
            seed: 0xC0FFEE,
            attrs: 25,
        }
    }

    /// Data at every peer (the paper's Figure 7 stress test).
    pub fn all_data(peers: usize, base_size: usize) -> Self {
        CdssConfig::new(peers, (0..peers).collect(), base_size)
    }

    /// Data at the `n` most upstream peers (paper §6.3: "data at a few of
    /// the peers near the right-hand side of the topologies").
    pub fn upstream_data(peers: usize, n: usize, base_size: usize) -> Self {
        CdssConfig::new(peers, (peers.saturating_sub(n)..peers).collect(), base_size)
    }
}

/// The parent of peer `i` under a topology, if any (peer 0 is the root).
pub fn parent_of(topology: Topology, i: usize) -> Option<usize> {
    if i == 0 {
        return None;
    }
    Some(match topology {
        Topology::Chain => i - 1,
        Topology::Branched => (i - 1) / 2,
    })
}

/// Build the system: relations and local tables for every peer, mappings
/// along the topology, local data at the configured peers, exchanged with
/// provenance.
pub fn build_system(topology: Topology, config: &CdssConfig) -> Result<ProvenanceSystem> {
    assemble(topology, config, 0)
}

/// Like [`build_system`], plus one **disconnected** relation family:
/// `Island(k, v)` (with local data, `island_size` tuples keyed `0..n`)
/// feeding `IslandOut` through the mapping `misl`. No target-query read
/// set overlaps the island, so island writes are provably unrelated —
/// the query service's cache tests use them to show that unrelated
/// updates keep cached answers hot.
/// `island_size` of 0 omits the island entirely (identical to
/// [`build_system`]).
pub fn build_system_with_island(
    topology: Topology,
    config: &CdssConfig,
    island_size: usize,
) -> Result<ProvenanceSystem> {
    assemble(topology, config, island_size)
}

fn assemble(
    topology: Topology,
    config: &CdssConfig,
    island_size: usize,
) -> Result<ProvenanceSystem> {
    let mut sys = ProvenanceSystem::new();
    let mut gen = SwissProtLike::new(config.seed, config.attrs);
    let (na, nb) = gen.split();

    for i in 0..config.peers {
        sys.add_relation_with_local(gen.schema_a(&format!("R{i}a")))?;
        sys.add_relation_with_local(gen.schema_b(&format!("R{i}b")))?;
    }

    let xs: Vec<String> = (0..na).map(|j| format!("x{j}")).collect();
    let ys: Vec<String> = (0..nb).map(|j| format!("y{j}")).collect();
    for c in 1..config.peers {
        let p = parent_of(topology, c).expect("non-root");
        let rule = format!(
            "m{c}: R{p}a(k, {xs}), R{p}b(k, {ys}) :- R{c}a(k, {xs}), R{c}b(k, {ys})",
            xs = xs.join(", "),
            ys = ys.join(", "),
        );
        sys.add_mapping_text(&rule)?;
    }

    if island_size > 0 {
        use proql_common::{Schema, Tuple, Value, ValueType};
        for name in ["Island", "IslandOut"] {
            sys.add_relation_with_local(Schema::build(
                name,
                &[("k", ValueType::Int), ("v", ValueType::Int)],
                &[0],
            )?)?;
        }
        sys.add_mapping_text("misl: IslandOut(k, v) :- Island(k, v)")?;
        for k in 0..island_size {
            sys.insert_local(
                "Island",
                Tuple::new(vec![Value::Int(k as i64), Value::Int(k as i64 * 7)]),
            )?;
        }
    }

    for &peer in &config.data_peers {
        for e in 0..config.base_size {
            let (ta, tb) = gen.entry(e as i64);
            sys.insert_local(&format!("R{peer}a"), ta)?;
            sys.insert_local(&format!("R{peer}b"), tb)?;
        }
    }
    sys.run_exchange()?;
    Ok(sys)
}

/// The paper's **target query** (§6.1.2): all derivations of the target
/// peer's relation, traversing every mapping path to its end.
pub fn target_query() -> &'static str {
    "FOR [R0a $x] INCLUDE PATH [$x] <-+ [] RETURN $x"
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql::engine::{Engine, Strategy};

    #[test]
    fn chain_exchange_propagates_to_target() {
        // 4-peer chain, data at the far end only.
        let sys = build_system(Topology::Chain, &CdssConfig::new(4, vec![3], 5)).unwrap();
        assert_eq!(sys.db.table("R0a").unwrap().len(), 5);
        assert_eq!(sys.db.table("R0b").unwrap().len(), 5);
        // Each hop recorded provenance: 3 mappings × 5 keys.
        assert_eq!(sys.provenance_rows(), 15);
    }

    #[test]
    fn branched_tree_parents() {
        assert_eq!(parent_of(Topology::Branched, 1), Some(0));
        assert_eq!(parent_of(Topology::Branched, 2), Some(0));
        assert_eq!(parent_of(Topology::Branched, 5), Some(2));
        assert_eq!(parent_of(Topology::Branched, 0), None);
        assert_eq!(parent_of(Topology::Chain, 7), Some(6));
    }

    #[test]
    fn branched_exchange_merges_branches() {
        // 7-peer tree, data at the four leaves with the same key space:
        // target gets base_size tuples (set semantics dedups).
        let sys =
            build_system(Topology::Branched, &CdssConfig::new(7, vec![3, 4, 5, 6], 4)).unwrap();
        assert_eq!(sys.db.table("R0a").unwrap().len(), 4);
    }

    #[test]
    fn target_query_runs_on_chain() {
        let sys = build_system(Topology::Chain, &CdssConfig::new(4, vec![3], 5)).unwrap();
        let mut e = Engine::new(sys);
        e.options.strategy = Strategy::Unfold;
        let out = e.query(target_query()).unwrap();
        assert_eq!(out.projection.bindings.len(), 5);
        // One unfolded rule: the only derivation bottoms at peer 3.
        assert_eq!(out.stats.translate.rules, 1);
        // Its derivations span all three mappings plus the leaf locals.
        assert!(out.projection.derivations.contains_key("m1"));
        assert!(out.projection.derivations.contains_key("m3"));
    }

    #[test]
    fn unfolded_rules_grow_with_data_peers() {
        // The paper's Figure 8 effect: more data peers, more rules.
        let mut previous = 0;
        for k in 1..=3 {
            let cfg = CdssConfig::upstream_data(5, k, 2);
            let sys = build_system(Topology::Chain, &cfg).unwrap();
            let mut e = Engine::new(sys);
            e.options.strategy = Strategy::Unfold;
            let out = e.query(target_query()).unwrap();
            assert!(
                out.stats.translate.rules > previous,
                "k={k}: {} rules",
                out.stats.translate.rules
            );
            previous = out.stats.translate.rules;
        }
    }

    #[test]
    fn pair_mappings_unfold_as_units() {
        // All-data 3-peer chain: rule bodies stay linear in chain length
        // (the coalescing keeps the pair subtree shared).
        let sys = build_system(Topology::Chain, &CdssConfig::all_data(3, 2)).unwrap();
        let mut e = Engine::new(sys);
        e.options.strategy = Strategy::Unfold;
        let out = e.query(target_query()).unwrap();
        for _ in 0..1 {
            // every rule's atoms ≤ 2 atoms per chain level + slack
            let max_atoms = out.stats.translate.total_atoms / out.stats.translate.rules;
            assert!(max_atoms <= 10, "avg atoms per rule = {max_atoms}");
        }
        // Query answers are the union of all alternatives: 2 tuples.
        assert_eq!(out.projection.bindings.len(), 2);
    }

    #[test]
    fn island_family_is_disconnected_from_the_chain() {
        let sys =
            build_system_with_island(Topology::Chain, &CdssConfig::new(3, vec![2], 4), 6).unwrap();
        assert_eq!(sys.db.table("IslandOut").unwrap().len(), 6);
        // The target query's read set never mentions the island.
        let e = Engine::new(sys);
        let out = e.query(target_query()).unwrap();
        assert!(!out.touched.iter().any(|r| r.contains("Island")));
        assert_eq!(out.projection.bindings.len(), 4);
    }

    #[test]
    fn instance_size_grows_linearly_with_peers() {
        // Figure 10's effect.
        let s4 = build_system(Topology::Chain, &CdssConfig::new(4, vec![3], 10)).unwrap();
        let s8 = build_system(Topology::Chain, &CdssConfig::new(8, vec![7], 10)).unwrap();
        let r4 = s4.db.total_rows();
        let r8 = s8.db.total_rows();
        assert!(r8 > r4);
        // Roughly proportional to peer count (within 2x slack).
        assert!(r8 < r4 * 3);
    }
}
