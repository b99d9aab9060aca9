//! Compile rule bodies into relational plans.
//!
//! A conjunctive body `B1, ..., Bk` becomes a left-deep tree of hash
//! equi-joins over the atoms' relations: shared variables become join keys,
//! constants and repeated variables within one atom become filters. This is
//! the plan shape the paper's ProQL→SQL translation produces for each
//! unfolded rule (§4.2.4).

use crate::ast::{Atom, Term};
use proql_common::{Error, Result, Tuple};
use proql_storage::{Database, Expr, Plan};
use std::collections::HashMap;

/// A compiled rule body: the plan plus the mapping from variable name to
/// output column position. Executing `plan` yields one row per satisfying
/// assignment of the body (bag of bindings, deduplicated only if the caller
/// adds `Distinct`).
#[derive(Debug, Clone)]
pub struct BodyPlan {
    /// The relational plan; output columns are the concatenation of all
    /// atoms' columns in body order.
    pub plan: Plan,
    /// First column position binding each variable.
    pub var_cols: HashMap<String, usize>,
    /// Total output arity.
    pub arity: usize,
}

impl BodyPlan {
    /// Column of a variable.
    pub fn col(&self, var: &str) -> Result<usize> {
        self.var_cols
            .get(var)
            .copied()
            .ok_or_else(|| Error::Datalog(format!("variable {var} not bound by body")))
    }
}

/// Compile `body` against the catalog `db` (schemas are needed to know each
/// atom's arity). Atoms' relations must exist as tables or views.
pub fn compile_body(db: &Database, body: &[Atom]) -> Result<BodyPlan> {
    compile_atoms(db, body, None)
}

/// Every semi-naive variant of `body` for `delta` (rows keyed by
/// relation): for each atom `j` whose relation has delta rows, the
/// [`delta_variant`] of atom `j` over those rows. Atoms whose relation
/// has no delta rows yield no variant.
pub fn delta_variants(
    db: &Database,
    body: &[Atom],
    delta: &HashMap<String, Vec<Tuple>>,
) -> Result<Vec<BodyPlan>> {
    let mut variants = Vec::new();
    for (j, atom) in body.iter().enumerate() {
        if let Some(rows) = delta.get(&atom.relation).filter(|rows| !rows.is_empty()) {
            variants.push(delta_variant(db, body, j, rows)?);
        }
    }
    Ok(variants)
}

/// One semi-naive variant: `body` compiled with atom `j` reading `rows`
/// inline as a [`Plan::Values`] leaf and every other atom reading `db`.
/// This is the one place a delta join is built: the exchange's fixpoint
/// loop (through [`delta_variants`]) and the cache maintainer, which
/// hands each atom only the rows that can match it, both run its output.
pub fn delta_variant(db: &Database, body: &[Atom], j: usize, rows: &[Tuple]) -> Result<BodyPlan> {
    compile_atoms(db, body, Some((j, rows)))
}

/// Compile `body`, with atom `j` of `delta = Some((j, rows))` reading
/// `rows` instead of its relation.
fn compile_atoms(
    db: &Database,
    body: &[Atom],
    delta: Option<(usize, &[Tuple])>,
) -> Result<BodyPlan> {
    if body.is_empty() {
        return Err(Error::Datalog("cannot compile empty body".into()));
    }
    let mut var_cols: HashMap<String, usize> = HashMap::new();
    let mut plan: Option<Plan> = None;
    let mut arity = 0usize;

    for (atom_idx, atom) in body.iter().enumerate() {
        let schema = db.schema_of(&atom.relation)?;
        if schema.arity() != atom.arity() {
            return Err(Error::Datalog(format!(
                "atom {atom} has arity {} but relation {} has arity {}",
                atom.arity(),
                atom.relation,
                schema.arity()
            )));
        }
        let mut atom_plan = match delta {
            Some((j, rows)) if j == atom_idx => Plan::Values {
                schema: schema.clone(),
                rows: rows.to_vec(),
            },
            _ => Plan::scan(atom.relation.clone()),
        };

        // Local constraints: constants and repeated variables inside this atom.
        let mut local_vars: HashMap<&str, usize> = HashMap::new();
        let mut local_preds: Vec<Expr> = Vec::new();
        for (pos, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(v) => {
                    local_preds.push(Expr::col(pos).eq(Expr::Lit(v.clone())));
                }
                Term::Var(name) => {
                    if let Some(&first) = local_vars.get(name.as_str()) {
                        local_preds.push(Expr::col(pos).eq(Expr::col(first)));
                    } else {
                        local_vars.insert(name, pos);
                    }
                }
                Term::Skolem(..) => {
                    return Err(Error::Datalog(format!(
                        "Skolem term in body atom {atom} is not supported"
                    )));
                }
            }
        }
        if !local_preds.is_empty() {
            atom_plan = atom_plan.filter(Expr::and(local_preds));
        }

        match plan.take() {
            None => {
                plan = Some(atom_plan);
                for (name, pos) in local_vars {
                    var_cols.insert(name.to_string(), pos);
                }
                arity = atom.arity();
            }
            Some(acc) => {
                // Join keys: variables this atom shares with the accumulator.
                let mut left_keys = Vec::new();
                let mut right_keys = Vec::new();
                for (name, &pos) in &local_vars {
                    if let Some(&lcol) = var_cols.get(*name) {
                        left_keys.push(lcol);
                        right_keys.push(pos);
                    }
                }
                plan = Some(acc.join(atom_plan, left_keys, right_keys));
                for (name, pos) in local_vars {
                    var_cols.entry(name.to_string()).or_insert(arity + pos);
                }
                arity += atom.arity();
            }
        }
    }

    Ok(BodyPlan {
        plan: plan.expect("body is non-empty"),
        var_cols,
        arity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_rule;
    use proql_common::{tup, Schema, ValueType};
    use proql_storage::{execute, execute_batch};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            Schema::build(
                "A",
                &[
                    ("id", ValueType::Int),
                    ("sn", ValueType::Str),
                    ("len", ValueType::Int),
                ],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build(
                "N",
                &[
                    ("id", ValueType::Int),
                    ("name", ValueType::Str),
                    ("c", ValueType::Bool),
                ],
                &[0, 1],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("A", tup![1, "sn1", 7]).unwrap();
        db.insert("A", tup![2, "sn1", 5]).unwrap();
        db.insert("N", tup![1, "cn1", false]).unwrap();
        db.insert("N", tup![2, "cn2", true]).unwrap();
        db
    }

    #[test]
    fn single_atom_body() {
        let db = db();
        let r = parse_rule("H(i) :- A(i, s, l)").unwrap();
        let bp = compile_body(&db, &r.body).unwrap();
        assert_eq!(bp.col("i").unwrap(), 0);
        assert_eq!(bp.col("l").unwrap(), 2);
        assert_eq!(execute(&db, &bp.plan).unwrap().len(), 2);
    }

    #[test]
    fn join_on_shared_variable() {
        let db = db();
        // m1-style: join A and N on id, filter N.c = false
        let r = parse_rule("H(i, n) :- A(i, s, _), N(i, n, false)").unwrap();
        let bp = compile_body(&db, &r.body).unwrap();
        let rel = execute(&db, &bp.plan).unwrap();
        assert_eq!(rel.len(), 1);
        let row = &rel.rows[0];
        assert_eq!(row.get(bp.col("i").unwrap()), &proql_common::Value::Int(1));
        assert_eq!(
            row.get(bp.col("n").unwrap()),
            &proql_common::Value::str("cn1")
        );
    }

    #[test]
    fn constant_filters_apply() {
        let db = db();
        let r = parse_rule("H(i) :- A(i, 'sn1', 5)").unwrap();
        let bp = compile_body(&db, &r.body).unwrap();
        let rel = execute(&db, &bp.plan).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.rows[0].get(0), &proql_common::Value::Int(2));
    }

    #[test]
    fn repeated_var_within_atom() {
        let mut db = db();
        db.insert("A", tup![3, "3", 3]).unwrap();
        // id = len (both var x)
        let r = parse_rule("H(x) :- A(x, s, x)").unwrap();
        let bp = compile_body(&db, &r.body).unwrap();
        let rel = execute(&db, &bp.plan).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.rows[0].get(0), &proql_common::Value::Int(3));
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        let db = db();
        let r = parse_rule("H(a, b) :- A(a, _, _), N(b, _, _)").unwrap();
        let bp = compile_body(&db, &r.body).unwrap();
        assert_eq!(execute(&db, &bp.plan).unwrap().len(), 4);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let db = db();
        let r = parse_rule("H(i) :- A(i, s)").unwrap();
        assert!(compile_body(&db, &r.body).is_err());
    }

    #[test]
    fn missing_relation_rejected() {
        let db = db();
        let r = parse_rule("H(i) :- Zzz(i)").unwrap();
        assert!(compile_body(&db, &r.body).is_err());
    }

    #[test]
    fn delta_rows_are_read_inline() {
        let db = db();
        let r = parse_rule("H(i) :- A(i, s, l)").unwrap();
        let delta = HashMap::from([("A".to_string(), vec![tup![9, "x", 1]])]);
        let variants = delta_variants(&db, &r.body, &delta).unwrap();
        assert_eq!(variants.len(), 1);
        let rows = execute_batch(&db, &variants[0].plan).unwrap().to_rows();
        assert_eq!(rows, vec![tup![9, "x", 1]]);
        // The catalog is untouched: no scratch relation was created.
        assert_eq!(db.table_names().count(), 2);
    }

    fn leaves(plan: &Plan) -> Vec<&str> {
        match plan {
            Plan::Scan { table } => vec![table.as_str()],
            Plan::Values { .. } => vec!["<delta>"],
            Plan::Filter { input, .. } => leaves(input),
            Plan::Join { left, right, .. } => [leaves(left), leaves(right)].concat(),
            other => panic!("unexpected plan node {other:?}"),
        }
    }

    #[test]
    fn self_join_yields_one_variant_per_delta_atom() {
        let mut db = db();
        db.create_table(
            Schema::build(
                "E",
                &[("src", ValueType::Int), ("dst", ValueType::Int)],
                &[0, 1],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("E", tup![1, 2]).unwrap();
        db.insert("E", tup![3, 4]).unwrap();
        let r = parse_rule("H(x, z) :- E(x, y), E(y, z)").unwrap();
        let delta = HashMap::from([("E".to_string(), vec![tup![2, 3]])]);
        let variants = delta_variants(&db, &r.body, &delta).unwrap();
        assert_eq!(variants.len(), 2);
        assert_eq!(leaves(&variants[0].plan), vec!["<delta>", "E"]);
        assert_eq!(leaves(&variants[1].plan), vec!["E", "<delta>"]);
        // Delta at atom 0 joins E(2,3) with E(3,4); delta at atom 1 joins
        // E(1,2) with E(2,3).
        let ends: Vec<Vec<Tuple>> = variants
            .iter()
            .map(|bp| {
                let (x, z) = (bp.col("x").unwrap(), bp.col("z").unwrap());
                execute_batch(&db, &bp.plan)
                    .unwrap()
                    .to_rows()
                    .iter()
                    .map(|row| Tuple::new(vec![row.get(x).clone(), row.get(z).clone()]))
                    .collect()
            })
            .collect();
        assert_eq!(ends, vec![vec![tup![2, 4]], vec![tup![1, 3]]]);
    }

    #[test]
    fn absent_or_empty_delta_yields_no_variant() {
        let db = db();
        let r = parse_rule("H(i, n) :- A(i, s, _), N(i, n, false)").unwrap();
        let none = HashMap::from([("Unread".to_string(), vec![tup![1]])]);
        assert!(delta_variants(&db, &r.body, &none).unwrap().is_empty());
        let empty = HashMap::from([("A".to_string(), Vec::new())]);
        assert!(delta_variants(&db, &r.body, &empty).unwrap().is_empty());
        // Only the atom with rows gets a variant, and it keeps the other
        // atom's constant filter.
        let delta = HashMap::from([
            ("A".to_string(), Vec::new()),
            (
                "N".to_string(),
                vec![tup![1, "cn9", false], tup![2, "cn8", false]],
            ),
        ]);
        let variants = delta_variants(&db, &r.body, &delta).unwrap();
        assert_eq!(variants.len(), 1);
        assert_eq!(leaves(&variants[0].plan), vec!["A", "<delta>"]);
        assert_eq!(execute_batch(&db, &variants[0].plan).unwrap().len(), 2);
    }

    #[test]
    fn three_way_join_chains() {
        let mut db = db();
        db.create_table(
            Schema::build(
                "E",
                &[("src", ValueType::Int), ("dst", ValueType::Int)],
                &[0, 1],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("E", tup![1, 2]).unwrap();
        db.insert("E", tup![2, 3]).unwrap();
        db.insert("E", tup![3, 4]).unwrap();
        let r = parse_rule("H(a, d) :- E(a, b), E(b, c), E(c, d)").unwrap();
        let bp = compile_body(&db, &r.body).unwrap();
        let rel = execute(&db, &bp.plan).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(
            rel.rows[0].get(bp.col("a").unwrap()),
            &proql_common::Value::Int(1)
        );
        assert_eq!(
            rel.rows[0].get(bp.col("d").unwrap()),
            &proql_common::Value::Int(4)
        );
    }
}
