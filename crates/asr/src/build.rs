//! Materializing ASRs as relational tables.
//!
//! An ASR over path `[m0, ..., mk]` is stored as one table whose columns
//! are the concatenated provenance-relation columns (`m0_i, m0_n, m1_i,
//! ...`). Each indexed segment `(i, j)` contributes the inner join of
//! `P_{mi} ⋈ ... ⋈ P_{mj}` padded with NULLs outside the segment; the
//! table is the distinct union of all segments.

use crate::def::AsrDefinition;
use proql_common::{Attribute, Error, Result, Schema, Value, ValueType};
use proql_datalog::ast::{Atom, Term};
use proql_provgraph::encode::{ProvSpec, RecipeTerm};
use proql_provgraph::ProvenanceSystem;
use proql_storage::{execute_batch, Expr, IndexKind, Plan};
use std::collections::HashMap;

/// A materialized ASR plus the metadata rewriting needs.
#[derive(Debug, Clone)]
pub struct BuiltAsr {
    /// The definition.
    pub def: AsrDefinition,
    /// Column names of the ASR table.
    pub columns: Vec<String>,
    /// Per path position: (first column, number of columns).
    pub spans: Vec<(usize, usize)>,
    /// Per indexed segment of length ≥ 2: the conjunctive pattern (P atoms
    /// with unified join variables) and the full-width ASR head terms
    /// (NULL constants outside the segment).
    pub seg_patterns: Vec<SegPattern>,
    /// Rows materialized.
    pub rows: usize,
}

/// One rewritable segment.
#[derive(Debug, Clone)]
pub struct SegPattern {
    /// Segment bounds (inclusive path positions).
    pub range: (usize, usize),
    /// Pattern body to match in unfolded rules.
    pub pattern: Vec<Atom>,
    /// ASR-atom terms (pattern variables inside the segment, NULLs outside).
    pub head_terms: Vec<Term>,
}

/// The ASR registry: builds, stores, refreshes, and (via
/// [`proql::BodyRewriter`]) applies ASRs.
#[derive(Debug, Clone, Default)]
pub struct AsrRegistry {
    asrs: Vec<BuiltAsr>,
}

impl AsrRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        AsrRegistry::default()
    }

    /// The built ASRs.
    pub fn asrs(&self) -> &[BuiltAsr] {
        &self.asrs
    }

    /// Validate, materialize, and register an ASR.
    pub fn build(&mut self, sys: &mut ProvenanceSystem, def: AsrDefinition) -> Result<&BuiltAsr> {
        def.validate(sys)?;
        for existing in &self.asrs {
            if existing.def.overlaps(&def) {
                return Err(Error::Asr(format!(
                    "ASR {} overlaps {}; only non-overlapping ASR definitions \
                     are supported (paper §5.2)",
                    def.name, existing.def.name
                )));
            }
            if existing.def.name == def.name {
                return Err(Error::AlreadyExists(format!("ASR {}", def.name)));
            }
        }
        let built = materialize(sys, def)?;
        self.asrs.push(built);
        Ok(self.asrs.last().expect("just pushed"))
    }

    /// Re-materialize every ASR (call after further exchanges).
    pub fn refresh(&mut self, sys: &mut ProvenanceSystem) -> Result<()> {
        let defs: Vec<AsrDefinition> = self.asrs.drain(..).map(|b| b.def).collect();
        for def in defs {
            sys.db.drop_relation(&def.name)?;
            let built = materialize(sys, def)?;
            self.asrs.push(built);
        }
        Ok(())
    }

    /// Drop all ASR tables and clear the registry.
    pub fn clear(&mut self, sys: &mut ProvenanceSystem) -> Result<()> {
        for b in self.asrs.drain(..) {
            sys.db.drop_relation(&b.def.name)?;
        }
        Ok(())
    }

    /// Total rows across all ASR tables (storage-overhead metric).
    pub fn total_rows(&self) -> usize {
        self.asrs.iter().map(|b| b.rows).sum()
    }
}

/// Template variable for path position `t`, column `c`.
fn tvar(t: usize, c: &str) -> String {
    format!("a{t}_{c}")
}

fn materialize(sys: &mut ProvenanceSystem, def: AsrDefinition) -> Result<BuiltAsr> {
    let specs: Vec<&ProvSpec> = def
        .path
        .iter()
        .map(|m| {
            sys.spec_for(m)
                .ok_or_else(|| Error::Asr(format!("unknown mapping {m}")))
        })
        .collect::<Result<_>>()?;
    if def
        .path
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len()
        != def.path.len()
    {
        return Err(Error::Asr(format!(
            "ASR {} repeats a mapping in its path",
            def.name
        )));
    }

    // Columns and spans.
    let mut columns = Vec::new();
    let mut spans = Vec::new();
    for (t, spec) in specs.iter().enumerate() {
        spans.push((columns.len(), spec.columns.len()));
        for c in &spec.columns {
            columns.push(format!("{}_{}", def.path[t], c));
        }
    }

    // Adjacent join equalities over template terms.
    let mut pair_eqs: Vec<Vec<(Term, Term)>> = Vec::new();
    for t in 0..specs.len() - 1 {
        pair_eqs.push(join_terms(&def, specs[t], specs[t + 1], t)?);
    }

    // Template atoms.
    let templates: Vec<Atom> = specs
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            Atom::new(
                spec.prov_rel.clone(),
                spec.columns.iter().map(|c| Term::var(tvar(t, c))).collect(),
            )
        })
        .collect();

    // Build per-segment patterns and plans.
    let all_segments = def.kind.segments(def.path.len());
    let mut seg_patterns = Vec::new();
    let mut branch_plans: Vec<Plan> = Vec::new();
    for &(i, j) in &all_segments {
        let Some((pattern, head_terms)) =
            segment_pattern(&templates, &pair_eqs, &spans, &columns, i, j)
        else {
            continue; // statically contradictory constants: no rows
        };
        branch_plans.push(segment_plan(
            sys,
            &specs,
            &pair_eqs,
            &spans,
            columns.len(),
            i,
            j,
        )?);
        if j > i {
            seg_patterns.push(SegPattern {
                range: (i, j),
                pattern,
                head_terms,
            });
        }
    }

    let union = Plan::Union {
        inputs: branch_plans,
        distinct: true,
    };
    let rows = execute_batch(&sys.db, &union)?.to_rows();

    // Create and fill the table: all columns, all-key (rows are identities).
    let schema = Schema::new(
        &def.name,
        columns
            .iter()
            .map(|c| Attribute::new(c.clone(), ValueType::Null))
            .collect(),
        (0..columns.len()).collect(),
    )?;
    sys.db.create_table(schema)?;
    let table = sys.db.table_mut(&def.name)?;
    let rows = table.insert_all(rows)?;
    // Index the first mapping's columns: lookups by the downstream key are
    // the common access path.
    let (s0, l0) = spans[0];
    table.create_index(
        format!("{}_down", def.name),
        (s0..s0 + l0).collect(),
        IndexKind::Hash,
    )?;
    // Per-segment indexes on the NULL-padding columns: the rewriting pins
    // out-of-segment columns to NULL, and these indexes let the executor's
    // IndexLookup select exactly that segment's rows (the paper's
    // "relational indices on key columns of the ASRs", §5).
    for seg in &seg_patterns {
        let (i, j) = seg.range;
        let null_cols: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(t, _)| *t < i || *t > j)
            .flat_map(|(_, &(start, len))| start..start + len)
            .collect();
        if !null_cols.is_empty() {
            table.create_index(
                format!("{}_seg_{i}_{j}", def.name),
                null_cols,
                IndexKind::Hash,
            )?;
        }
    }

    Ok(BuiltAsr {
        def,
        columns,
        spans,
        seg_patterns,
        rows,
    })
}

/// The join equalities between consecutive provenance relations: the key of
/// the shared relation, once as reconstructed by the downstream mapping's
/// source recipe and once by the upstream mapping's target recipe.
fn join_terms(
    def: &AsrDefinition,
    down: &ProvSpec,
    up: &ProvSpec,
    t: usize,
) -> Result<Vec<(Term, Term)>> {
    for src in down.sources() {
        for tgt in up.targets() {
            if src.relation != tgt.relation {
                continue;
            }
            let mut eqs = Vec::new();
            for (a, b) in src.key_recipe.iter().zip(&tgt.key_recipe) {
                let ta = recipe_to_term(a, t, down);
                let tb = recipe_to_term(b, t + 1, up);
                eqs.push((ta, tb));
            }
            return Ok(eqs);
        }
    }
    Err(Error::Asr(format!(
        "ASR {}: no shared relation between {} and {}",
        def.name, down.mapping, up.mapping
    )))
}

fn recipe_to_term(r: &RecipeTerm, t: usize, spec: &ProvSpec) -> Term {
    match r {
        RecipeTerm::Col(c) => Term::var(tvar(t, &spec.columns[*c])),
        RecipeTerm::Const(v) => Term::Const(v.clone()),
    }
}

/// Build the conjunctive pattern of segment `(i, j)`: templates with the
/// adjacent join equalities applied as a substitution. Returns `None` when
/// two constants clash.
fn segment_pattern(
    templates: &[Atom],
    pair_eqs: &[Vec<(Term, Term)>],
    spans: &[(usize, usize)],
    columns: &[String],
    i: usize,
    j: usize,
) -> Option<(Vec<Atom>, Vec<Term>)> {
    let mut subst: HashMap<String, Term> = HashMap::new();
    for eqs in pair_eqs.iter().take(j).skip(i) {
        for (l, r) in eqs {
            let l = proql_datalog::unfold::apply_term(&subst, l);
            let r = proql_datalog::unfold::apply_term(&subst, r);
            match (&l, &r) {
                (Term::Var(v), other) => {
                    subst.insert(v.clone(), other.clone());
                }
                (other, Term::Var(v)) => {
                    subst.insert(v.clone(), other.clone());
                }
                (Term::Const(a), Term::Const(b)) => {
                    if a != b {
                        return None;
                    }
                }
                _ => return None,
            }
        }
    }
    let pattern: Vec<Atom> = templates[i..=j]
        .iter()
        .map(|a| proql_datalog::unfold::substitute_atom(&subst, a))
        .collect();
    let mut head_terms = Vec::with_capacity(columns.len());
    for (t, &(_start, len)) in spans.iter().enumerate() {
        for c in 0..len {
            if t >= i && t <= j {
                let term = &templates[t].terms[c];
                head_terms.push(proql_datalog::unfold::apply_term(&subst, term));
            } else {
                head_terms.push(Term::Const(Value::Null));
            }
        }
    }
    Some((pattern, head_terms))
}

/// The relational plan of one segment: inner joins of the segment's
/// provenance relations projected to full ASR width with NULL padding.
fn segment_plan(
    sys: &ProvenanceSystem,
    specs: &[&ProvSpec],
    pair_eqs: &[Vec<(Term, Term)>],
    spans: &[(usize, usize)],
    width: usize,
    i: usize,
    j: usize,
) -> Result<Plan> {
    let _ = sys;
    // Offsets of each in-segment position in the join output.
    let mut plan = Plan::scan(specs[i].prov_rel.clone());
    let mut offsets: HashMap<usize, usize> = HashMap::new();
    offsets.insert(i, 0);
    let mut acc_width = specs[i].columns.len();
    let mut filters: Vec<Expr> = Vec::new();
    for t in i + 1..=j {
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for (l, r) in &pair_eqs[t - 1] {
            match (
                term_col(l, t - 1, specs, &offsets, 0),
                term_col(r, t, specs, &offsets, acc_width),
            ) {
                (TermCol::Col(lc), TermCol::Col(rc)) => {
                    left_keys.push(lc);
                    right_keys.push(rc - acc_width);
                }
                (TermCol::Col(lc), TermCol::Const(v)) => {
                    filters.push(Expr::col(lc).eq(Expr::Lit(v)));
                }
                (TermCol::Const(v), TermCol::Col(rc)) => {
                    filters.push(Expr::col(rc).eq(Expr::Lit(v)));
                }
                (TermCol::Const(a), TermCol::Const(b)) => {
                    if a != b {
                        filters.push(Expr::lit(false));
                    }
                }
            }
        }
        plan = plan.join(Plan::scan(specs[t].prov_rel.clone()), left_keys, right_keys);
        offsets.insert(t, acc_width);
        acc_width += specs[t].columns.len();
    }
    if !filters.is_empty() {
        plan = plan.filter(Expr::and(filters));
    }
    // Project to full width.
    let mut exprs = Vec::with_capacity(width);
    let mut names = Vec::with_capacity(width);
    for (t, &(start, len)) in spans.iter().enumerate() {
        for c in 0..len {
            names.push(format!("c{}", start + c));
            if t >= i && t <= j {
                exprs.push(Expr::col(offsets[&t] + c));
            } else {
                exprs.push(Expr::Lit(Value::Null));
            }
        }
    }
    Ok(plan.project_named(exprs, names))
}

enum TermCol {
    Col(usize),
    Const(Value),
}

/// Resolve a join term to a column in the (eventual) join output. `t` is
/// the path position the term belongs to; for the right side of the join
/// the caller subtracts the accumulated width again.
fn term_col(
    term: &Term,
    t: usize,
    specs: &[&ProvSpec],
    offsets: &HashMap<usize, usize>,
    right_base: usize,
) -> TermCol {
    match term {
        Term::Const(v) => TermCol::Const(v.clone()),
        Term::Var(v) => {
            // v has the shape "a{t}_{col}"; find the column index.
            let spec = specs[t];
            let col = spec
                .columns
                .iter()
                .position(|c| v == &tvar(t, c))
                .expect("template variable must resolve");
            let base = offsets.get(&t).copied().unwrap_or(right_base);
            TermCol::Col(base + col)
        }
        Term::Skolem(..) => unreachable!("no Skolems in provenance columns"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::AsrKind;
    use proql_common::tup;
    use proql_provgraph::system::example_2_1;

    #[test]
    fn complete_asr_over_m5_m1() {
        let mut sys = example_2_1().unwrap();
        let mut reg = AsrRegistry::new();
        let built = reg
            .build(
                &mut sys,
                AsrDefinition::new(vec!["m5".into(), "m1".into()], AsrKind::Complete),
            )
            .unwrap()
            .clone();
        assert_eq!(built.columns, vec!["m5_i", "m5_n", "m1_i", "m1_n"]);
        // P_m5 = {(1,cn1),(2,cn2)}, P_m1 = {(1,cn1),(2,cn2)}; join on C key
        // (i, n): both pairs align.
        let t = sys.db.table(&built.def.name).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.contains(&tup![1, "cn1", 1, "cn1"]));
        assert!(t.contains(&tup![2, "cn2", 2, "cn2"]));
        assert_eq!(built.rows, 2);
        // Complete kind: one rewritable segment.
        assert_eq!(built.seg_patterns.len(), 1);
        assert_eq!(built.seg_patterns[0].range, (0, 1));
        assert_eq!(built.seg_patterns[0].pattern.len(), 2);
    }

    #[test]
    fn subpath_asr_includes_padded_singles() {
        let mut sys = example_2_1().unwrap();
        let mut reg = AsrRegistry::new();
        let built = reg
            .build(
                &mut sys,
                AsrDefinition::new(vec!["m5".into(), "m1".into()], AsrKind::Subpath),
            )
            .unwrap()
            .clone();
        let t = sys.db.table(&built.def.name).unwrap();
        // 2 complete rows + 2 m5-only rows + 2 m1-only rows.
        assert_eq!(t.len(), 6);
        let nulls = t
            .iter()
            .filter(|r| r.values().iter().any(Value::is_null))
            .count();
        assert_eq!(nulls, 4);
        // Only the length-2 segment is rewritable.
        assert_eq!(built.seg_patterns.len(), 1);
    }

    #[test]
    fn prefix_and_suffix_differ_in_padding_side() {
        let mut sys = example_2_1().unwrap();
        let mut reg = AsrRegistry::new();
        let pre = reg
            .build(
                &mut sys,
                AsrDefinition {
                    name: "PRE".into(),
                    path: vec!["m5".into(), "m1".into()],
                    kind: AsrKind::Prefix,
                },
            )
            .unwrap()
            .clone();
        let t = sys.db.table("PRE").unwrap();
        // complete rows + m5-only rows (upstream padded).
        assert_eq!(t.len(), 4);
        for row in t.iter() {
            if row.get(2).is_null() {
                assert!(!row.get(0).is_null(), "prefix pads the upstream side");
            }
        }
        assert_eq!(pre.spans, vec![(0, 2), (2, 2)]);
    }

    #[test]
    fn overlapping_asrs_rejected() {
        let mut sys = example_2_1().unwrap();
        let mut reg = AsrRegistry::new();
        reg.build(
            &mut sys,
            AsrDefinition::new(vec!["m5".into(), "m1".into()], AsrKind::Complete),
        )
        .unwrap();
        let err = reg
            .build(
                &mut sys,
                AsrDefinition::new(vec!["m1".into(), "m3".into()], AsrKind::Complete),
            )
            .unwrap_err();
        assert!(err.to_string().contains("overlaps"));
    }

    #[test]
    fn refresh_sees_new_data() {
        let mut sys = example_2_1().unwrap();
        let mut reg = AsrRegistry::new();
        reg.build(
            &mut sys,
            AsrDefinition::new(vec!["m5".into(), "m1".into()], AsrKind::Complete),
        )
        .unwrap();
        sys.insert_local("A", tup![3, "sn3", 1]).unwrap();
        sys.insert_local("N", tup![3, "cn3", false]).unwrap();
        sys.run_exchange().unwrap();
        reg.refresh(&mut sys).unwrap();
        let t = sys.db.table("ASR_complete_m5_m1").unwrap();
        assert!(t.contains(&tup![3, "cn3", 3, "cn3"]));
    }

    #[test]
    fn clear_drops_tables() {
        let mut sys = example_2_1().unwrap();
        let mut reg = AsrRegistry::new();
        reg.build(
            &mut sys,
            AsrDefinition::new(vec!["m5".into(), "m1".into()], AsrKind::Complete),
        )
        .unwrap();
        reg.clear(&mut sys).unwrap();
        assert!(!sys.db.has_relation("ASR_complete_m5_m1"));
        assert_eq!(reg.total_rows(), 0);
    }
}
