//! The provenance schema graph (paper §4.2.1, Figure 3).
//!
//! Relation nodes and mapping nodes; a mapping points at the relations it
//! derives (targets) and is pointed at by the relations it reads (sources).
//! ProQL path patterns are matched against this graph to decide which
//! mappings participate in a query.

use proql_datalog::ast::{Program, Rule};
use std::collections::{HashMap, HashSet};

/// The schema-level provenance graph.
#[derive(Debug, Clone, Default)]
pub struct SchemaGraph {
    relations: Vec<String>,
    rel_idx: HashMap<String, usize>,
    mappings: Vec<String>,
    map_idx: HashMap<String, usize>,
    /// mapping index → source relation indices (body atoms).
    sources_of: Vec<Vec<usize>>,
    /// mapping index → target relation indices (head atoms).
    targets_of: Vec<Vec<usize>>,
    /// relation index → mappings that derive it.
    derived_by: Vec<Vec<usize>>,
    /// relation index → mappings that consume it.
    feeds: Vec<Vec<usize>>,
    /// mappings that are local-contribution copies (`L_*` rules).
    is_local: Vec<bool>,
}

impl SchemaGraph {
    /// Build from a program, marking rules in `local_rules` as local copies.
    pub fn from_program(program: &Program, local_rules: &HashSet<String>) -> Self {
        let mut g = SchemaGraph::default();
        for rule in &program.rules {
            let local = rule.name.as_ref().is_some_and(|n| local_rules.contains(n));
            g.add_rule(rule, local);
        }
        g
    }

    /// Add one mapping and its edges; `local` marks a local-contribution
    /// copy (`L_R: R :- R_l`), whose `_l` source is how patterns reach
    /// EDB leaves.
    pub fn add_rule(&mut self, rule: &Rule, local: bool) {
        let mi = self.intern_mapping(rule.name.as_deref().unwrap_or("?"));
        self.is_local[mi] = local;
        for atom in &rule.body {
            let ri = self.intern_relation(&atom.relation);
            if !self.sources_of[mi].contains(&ri) {
                self.sources_of[mi].push(ri);
                self.feeds[ri].push(mi);
            }
        }
        for atom in &rule.heads {
            let ri = self.intern_relation(&atom.relation);
            if !self.targets_of[mi].contains(&ri) {
                self.targets_of[mi].push(ri);
                self.derived_by[ri].push(mi);
            }
        }
    }

    fn intern_relation(&mut self, name: &str) -> usize {
        if let Some(&i) = self.rel_idx.get(name) {
            return i;
        }
        let i = self.relations.len();
        self.relations.push(name.to_string());
        self.rel_idx.insert(name.to_string(), i);
        self.derived_by.push(Vec::new());
        self.feeds.push(Vec::new());
        i
    }

    fn intern_mapping(&mut self, name: &str) -> usize {
        if let Some(&i) = self.map_idx.get(name) {
            return i;
        }
        let i = self.mappings.len();
        self.mappings.push(name.to_string());
        self.map_idx.insert(name.to_string(), i);
        self.sources_of.push(Vec::new());
        self.targets_of.push(Vec::new());
        self.is_local.push(false);
        i
    }

    /// All relation names.
    pub fn relations(&self) -> &[String] {
        &self.relations
    }

    /// All mapping names.
    pub fn mappings(&self) -> &[String] {
        &self.mappings
    }

    /// True iff the mapping is a local-contribution copy rule.
    pub fn is_local_mapping(&self, mapping: &str) -> bool {
        self.map_idx
            .get(mapping)
            .map(|&i| self.is_local[i])
            .unwrap_or(false)
    }

    /// Names of mappings deriving `relation` (incoming edges).
    pub fn mappings_deriving(&self, relation: &str) -> Vec<&str> {
        self.rel_idx
            .get(relation)
            .map(|&ri| {
                self.derived_by[ri]
                    .iter()
                    .map(|&mi| self.mappings[mi].as_str())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Names of mappings consuming `relation` (outgoing edges).
    pub fn mappings_using(&self, relation: &str) -> Vec<&str> {
        self.rel_idx
            .get(relation)
            .map(|&ri| {
                self.feeds[ri]
                    .iter()
                    .map(|&mi| self.mappings[mi].as_str())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Source relations of a mapping.
    pub fn sources_of(&self, mapping: &str) -> Vec<&str> {
        self.map_idx
            .get(mapping)
            .map(|&mi| {
                self.sources_of[mi]
                    .iter()
                    .map(|&ri| self.relations[ri].as_str())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Target relations of a mapping.
    pub fn targets_of(&self, mapping: &str) -> Vec<&str> {
        self.map_idx
            .get(mapping)
            .map(|&mi| {
                self.targets_of[mi]
                    .iter()
                    .map(|&ri| self.relations[ri].as_str())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// True iff `relation` exists in the graph.
    pub fn has_relation(&self, relation: &str) -> bool {
        self.rel_idx.contains_key(relation)
    }

    /// True iff `mapping` exists in the graph.
    pub fn has_mapping(&self, mapping: &str) -> bool {
        self.map_idx.contains_key(mapping)
    }

    /// All relations and mappings backward-reachable from `relation`
    /// (everything that can contribute to its derivations). Returns
    /// `(relations, mappings)` including `relation` itself.
    pub fn backward_reachable(&self, relation: &str) -> (Vec<String>, Vec<String>) {
        let (rels, maps) = self.backward_closure(relation);
        let sorted = |names: Vec<&str>| {
            let mut names: Vec<String> = names.into_iter().map(str::to_string).collect();
            names.sort();
            names
        };
        (sorted(rels), sorted(maps))
    }

    /// [`Self::backward_reachable`] without copying or sorting the names.
    pub fn backward_closure(&self, relation: &str) -> (Vec<&str>, Vec<&str>) {
        let mut rel_seen = vec![false; self.relations.len()];
        let mut map_seen = vec![false; self.mappings.len()];
        let mut rels = Vec::new();
        let mut maps = Vec::new();
        if let Some(&ri) = self.rel_idx.get(relation) {
            rel_seen[ri] = true;
            rels.push(ri);
        }
        let mut next = 0;
        while let Some(&ri) = rels.get(next) {
            next += 1;
            for &mi in &self.derived_by[ri] {
                if !std::mem::replace(&mut map_seen[mi], true) {
                    maps.push(mi);
                    for &si in &self.sources_of[mi] {
                        if !std::mem::replace(&mut rel_seen[si], true) {
                            rels.push(si);
                        }
                    }
                }
            }
        }
        (
            rels.iter().map(|&i| self.relations[i].as_str()).collect(),
            maps.iter().map(|&i| self.mappings[i].as_str()).collect(),
        )
    }

    /// True iff the schema graph has a directed cycle (recursive mappings).
    pub fn is_cyclic(&self) -> bool {
        // DFS over relation nodes through mapping nodes.
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            White,
            Grey,
            Black,
        }
        let mut state = vec![State::White; self.relations.len()];
        for start in 0..self.relations.len() {
            if state[start] != State::White {
                continue;
            }
            // Iterative DFS with an explicit stack of (node, next-child).
            let mut stack = vec![(start, 0usize)];
            state[start] = State::Grey;
            while let Some(&mut (ri, ref mut child)) = stack.last_mut() {
                // successors of relation ri: targets of mappings it feeds.
                let succs: Vec<usize> = self.feeds[ri]
                    .iter()
                    .flat_map(|&mi| self.targets_of[mi].iter().copied())
                    .collect();
                if *child < succs.len() {
                    let next = succs[*child];
                    *child += 1;
                    match state[next] {
                        State::Grey => return true,
                        State::White => {
                            state[next] = State::Grey;
                            stack.push((next, 0));
                        }
                        State::Black => {}
                    }
                } else {
                    state[ri] = State::Black;
                    stack.pop();
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::example_2_1;
    use proql_datalog::parse::parse_program;

    #[test]
    fn figure_3_structure() {
        let sys = example_2_1().unwrap();
        let g = sys.schema_graph();
        // O derived by m4, m5; N by m2, m3 (+local); C by m1 (+local).
        let mut o = g.mappings_deriving("O");
        o.sort();
        assert_eq!(o, vec!["L_O", "m4", "m5"]);
        assert_eq!(g.sources_of("m5"), vec!["A", "C"]);
        assert_eq!(g.targets_of("m5"), vec!["O"]);
        assert!(g.is_local_mapping("L_A"));
        assert!(!g.is_local_mapping("m1"));
    }

    #[test]
    fn backward_reachability_from_o() {
        let sys = example_2_1().unwrap();
        let g = sys.schema_graph();
        let (rels, maps) = g.backward_reachable("O");
        // All public relations and local tables reach O.
        for r in ["O", "A", "C", "N", "A_l", "C_l", "N_l", "O_l"] {
            assert!(rels.contains(&r.to_string()), "missing {r}");
        }
        for m in ["m1", "m2", "m3", "m4", "m5", "L_A"] {
            assert!(maps.contains(&m.to_string()), "missing {m}");
        }
    }

    #[test]
    fn example_2_1_is_cyclic_via_m1_m3() {
        // C -> m3 -> N -> m1 -> C is a schema-level cycle.
        let sys = example_2_1().unwrap();
        assert!(sys.schema_graph().is_cyclic());
    }

    #[test]
    fn chain_program_is_acyclic() {
        let p = parse_program(
            "m1: B(x) :- A(x)
             m2: Cc(x) :- B(x)",
        )
        .unwrap();
        let g = SchemaGraph::from_program(&p, &HashSet::new());
        assert!(!g.is_cyclic());
        let (rels, maps) = g.backward_reachable("Cc");
        assert_eq!(rels, vec!["A", "B", "Cc"]);
        assert_eq!(maps, vec!["m1", "m2"]);
    }

    #[test]
    fn unknown_names_are_safe() {
        let sys = example_2_1().unwrap();
        let g = sys.schema_graph();
        assert!(g.mappings_deriving("Zzz").is_empty());
        assert!(g.sources_of("m99").is_empty());
        assert!(!g.has_relation("Zzz"));
        assert!(!g.has_mapping("m99"));
        let (rels, maps) = g.backward_reachable("Zzz");
        assert!(rels.is_empty() && maps.is_empty());
    }

    #[test]
    fn mappings_using_tracks_outgoing_edges() {
        let sys = example_2_1().unwrap();
        let g = sys.schema_graph();
        let mut using_a = g.mappings_using("A");
        using_a.sort();
        assert_eq!(using_a, vec!["m1", "m2", "m4", "m5"]);
    }
}
