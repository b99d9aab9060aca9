//! Plan executor.
//!
//! Materializing, operator-at-a-time evaluation: each node produces a full
//! [`Relation`]. This matches the paper's execution model — the generated
//! SQL is a union of conjunctive blocks evaluated by the backing DBMS — and
//! is plenty for the benchmark scales while keeping the engine auditable.

use crate::database::Database;
use crate::expr::Expr;
use crate::plan::{AggFunc, JoinType, Plan};
use proql_common::{Error, Result, Tuple, Value};
use std::collections::HashMap;

/// A materialized query result: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Output column names.
    pub names: Vec<String>,
    /// Rows, each of arity `names.len()`.
    pub rows: Vec<Tuple>,
}

impl Relation {
    /// Empty relation with the given column names.
    pub fn empty(names: Vec<String>) -> Self {
        Relation {
            names,
            rows: Vec::new(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.names.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of a named column.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Rows sorted (for order-insensitive comparisons in tests).
    pub fn sorted_rows(&self) -> Vec<Tuple> {
        let mut r = self.rows.clone();
        r.sort();
        r
    }
}

/// Maximum view-expansion depth (views may reference views; provenance view
/// chains are shallow, so a small bound catches accidental cycles).
pub(crate) const MAX_VIEW_DEPTH: usize = 32;

/// Join algorithm of the row-at-a-time executor. The nested-loop variant is
/// the ablation baseline the batch executor is benchmarked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAlgo {
    /// Build a hash table on the right input (the historical default).
    #[default]
    Hash,
    /// Compare every pair of rows (O(n·m)); results are identical.
    NestedLoop,
}

/// Execute `plan` against `db`, materializing the result.
pub fn execute(db: &Database, plan: &Plan) -> Result<Relation> {
    exec_inner(db, plan, 0, JoinAlgo::Hash)
}

/// Execute with an explicit row-executor join algorithm.
pub fn execute_rows(db: &Database, plan: &Plan, algo: JoinAlgo) -> Result<Relation> {
    exec_inner(db, plan, 0, algo)
}

fn exec_inner(db: &Database, plan: &Plan, depth: usize, algo: JoinAlgo) -> Result<Relation> {
    if depth > MAX_VIEW_DEPTH {
        return Err(Error::Storage(
            "view expansion too deep (cyclic view definition?)".into(),
        ));
    }
    match plan {
        Plan::Scan { table } => {
            if let Ok(t) = db.table(table) {
                Ok(Relation {
                    names: t
                        .schema()
                        .attributes()
                        .iter()
                        .map(|a| a.name.clone())
                        .collect(),
                    rows: t.scan(),
                })
            } else if let Some(v) = db.view(table) {
                let mut rel = exec_inner(db, &v.plan, depth + 1, algo)?;
                rel.names = v
                    .schema
                    .attributes()
                    .iter()
                    .map(|a| a.name.clone())
                    .collect();
                if rel.names.len() != rel.arity() {
                    return Err(Error::Storage(format!(
                        "view {table} schema arity mismatch"
                    )));
                }
                Ok(rel)
            } else {
                Err(Error::NotFound(format!("relation {table}")))
            }
        }
        Plan::Values { schema, rows } => Ok(Relation {
            names: schema.attributes().iter().map(|a| a.name.clone()).collect(),
            rows: rows.clone(),
        }),
        Plan::Filter { input, predicate } => {
            let rel = exec_inner(db, input, depth, algo)?;
            let mut rows = Vec::new();
            for row in rel.rows {
                if predicate.eval_bool(&row)? {
                    rows.push(row);
                }
            }
            Ok(Relation {
                names: rel.names,
                rows,
            })
        }
        Plan::Project {
            input,
            exprs,
            names,
        } => {
            let rel = exec_inner(db, input, depth, algo)?;
            if names.len() != exprs.len() {
                return Err(Error::Storage("project names/exprs length mismatch".into()));
            }
            let mut rows = Vec::with_capacity(rel.rows.len());
            for row in &rel.rows {
                let mut out = Vec::with_capacity(exprs.len());
                for e in exprs {
                    out.push(e.eval(row)?);
                }
                rows.push(Tuple::new(out));
            }
            Ok(Relation {
                names: names.clone(),
                rows,
            })
        }
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            ..
        } => {
            let l = exec_inner(db, left, depth, algo)?;
            let r = exec_inner(db, right, depth, algo)?;
            exec_join(&l, &r, *join_type, left_keys, right_keys, algo)
        }
        Plan::Union { inputs, distinct } => {
            if inputs.is_empty() {
                return Ok(Relation::empty(vec![]));
            }
            let mut first = exec_inner(db, &inputs[0], depth, algo)?;
            for p in &inputs[1..] {
                let rel = exec_inner(db, p, depth, algo)?;
                if rel.arity() != first.arity() {
                    return Err(Error::Storage(format!(
                        "union arity mismatch: {} vs {}",
                        first.arity(),
                        rel.arity()
                    )));
                }
                first.rows.extend(rel.rows);
            }
            if *distinct {
                dedup(&mut first.rows);
            }
            Ok(first)
        }
        Plan::Distinct { input } => {
            let mut rel = exec_inner(db, input, depth, algo)?;
            dedup(&mut rel.rows);
            Ok(rel)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            having,
        } => {
            let rel = exec_inner(db, input, depth, algo)?;
            exec_aggregate(&rel, group_by, aggs, having.as_ref())
        }
        Plan::Sort { input, by } => {
            let mut rel = exec_inner(db, input, depth, algo)?;
            if let Some(&c) = by.iter().find(|&&c| c >= rel.arity()) {
                return Err(Error::Storage(format!("sort column {c} out of range")));
            }
            rel.rows.sort_by(|a, b| {
                for &c in by {
                    let ord = a.get(c).cmp(b.get(c));
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(rel)
        }
        Plan::Limit { input, n } => {
            let mut rel = exec_inner(db, input, depth, algo)?;
            rel.rows.truncate(*n);
            Ok(rel)
        }
        Plan::IndexLookup {
            table,
            columns,
            key,
            residual,
        } => {
            let t = db.table(table)?;
            if columns.len() != key.len() {
                return Err(Error::Storage(format!(
                    "index lookup on {table}: {} columns vs {} key values",
                    columns.len(),
                    key.len()
                )));
            }
            if let Some(&c) = columns.iter().find(|&&c| c >= t.schema().arity()) {
                return Err(Error::Storage(format!(
                    "index lookup column {c} out of range for {table}"
                )));
            }
            let key_t = Tuple::new(key.clone());
            let rows = match t.find_index(columns) {
                Some(ix) => {
                    // The index may store columns in a different order than
                    // the lookup; align the key with the index's order. A
                    // lookup column missing from the index is a malformed
                    // plan, reported instead of panicking the caller.
                    let mut reorder = Vec::with_capacity(ix.columns().len());
                    for c in ix.columns() {
                        let pos = columns.iter().position(|x| x == c).ok_or_else(|| {
                            Error::Storage(format!(
                                "index {} on {table} does not match lookup columns {columns:?}",
                                ix.name()
                            ))
                        })?;
                        reorder.push(pos);
                    }
                    let aligned = key_t.project(&reorder);
                    t.index_lookup(ix, &aligned)
                }
                None => {
                    // Degrade gracefully to a filtered scan.
                    t.iter()
                        .filter(|row| {
                            columns
                                .iter()
                                .zip(key.iter())
                                .all(|(&c, v)| row.get(c) == v)
                        })
                        .cloned()
                        .collect()
                }
            };
            let names = t
                .schema()
                .attributes()
                .iter()
                .map(|a| a.name.clone())
                .collect();
            let rows = match residual {
                Some(pred) => {
                    let mut kept = Vec::with_capacity(rows.len());
                    for row in rows {
                        if pred.eval_bool(&row)? {
                            kept.push(row);
                        }
                    }
                    kept
                }
                None => rows,
            };
            Ok(Relation { names, rows })
        }
    }
}

fn dedup(rows: &mut Vec<Tuple>) {
    let mut seen = std::collections::HashSet::with_capacity(rows.len());
    rows.retain(|r| seen.insert(r.clone()));
}

fn null_padding(n: usize) -> Tuple {
    Tuple::new(vec![Value::Null; n])
}

/// Output column names of a join: left names, then right names with
/// duplicates disambiguated by `_N` suffixes (the smallest `N >= 1` that
/// is still free). Shared with the batch executor and the optimizer so
/// every path reports identical schemas.
///
/// Names are only ever added, so once `n_1..n_i` are taken they stay
/// taken: a set of the names so far plus, per duplicated name, the next
/// suffix to try gives the same answer as rescanning the output for every
/// candidate — in time linear in the number of columns.
pub(crate) fn join_names(mut left: Vec<String>, right: &[String]) -> Vec<String> {
    use std::collections::HashSet;
    let mut seen: HashSet<&str> = left.iter().map(String::as_str).collect();
    // Generated names live in `fresh`, which keeps growing, so the set of
    // them owns its strings.
    let mut generated: HashSet<String> = HashSet::new();
    let mut next_suffix: HashMap<&str, usize> = HashMap::new();
    let mut fresh: Vec<String> = Vec::with_capacity(right.len());
    for n in right {
        if seen.insert(n) && !generated.contains(n.as_str()) {
            fresh.push(n.clone());
            continue;
        }
        let i = next_suffix.entry(n).or_insert(1);
        let cand = loop {
            let cand = format!("{n}_{i}");
            *i += 1;
            if !seen.contains(cand.as_str()) && !generated.contains(&cand) {
                break cand;
            }
        };
        generated.insert(cand.clone());
        fresh.push(cand);
    }
    drop(seen);
    left.extend(fresh);
    left
}

fn exec_join(
    l: &Relation,
    r: &Relation,
    join_type: JoinType,
    left_keys: &[usize],
    right_keys: &[usize],
    algo: JoinAlgo,
) -> Result<Relation> {
    if left_keys.len() != right_keys.len() {
        return Err(Error::Storage("join key arity mismatch".into()));
    }
    // Malformed plans must surface as errors, not index panics: key
    // columns are validated against both inputs up front.
    if let Some(&k) = left_keys.iter().find(|&&k| k >= l.arity()) {
        return Err(Error::Storage(format!("left join key {k} out of range")));
    }
    if let Some(&k) = right_keys.iter().find(|&&k| k >= r.arity()) {
        return Err(Error::Storage(format!("right join key {k} out of range")));
    }
    let names = join_names(l.names.clone(), &r.names);

    let mut matched_right = vec![false; r.rows.len()];
    let mut rows = Vec::new();
    match algo {
        JoinAlgo::Hash => {
            // Build hash table on the right side.
            let mut table: HashMap<Tuple, Vec<usize>> = HashMap::with_capacity(r.rows.len());
            for (i, row) in r.rows.iter().enumerate() {
                let key = row.project(right_keys);
                if key.has_null() {
                    continue; // SQL semantics: NULL keys never match.
                }
                table.entry(key).or_default().push(i);
            }
            for lrow in &l.rows {
                let key = lrow.project(left_keys);
                let matches = if key.has_null() {
                    None
                } else {
                    table.get(&key)
                };
                match matches {
                    Some(idxs) => {
                        for &i in idxs {
                            matched_right[i] = true;
                            rows.push(lrow.concat(&r.rows[i]));
                        }
                    }
                    None => {
                        if matches!(join_type, JoinType::LeftOuter | JoinType::FullOuter) {
                            rows.push(lrow.concat(&null_padding(r.arity())));
                        }
                    }
                }
            }
        }
        JoinAlgo::NestedLoop => {
            // The ablation baseline: compare every pair of rows.
            for lrow in &l.rows {
                let lkey = lrow.project(left_keys);
                let mut any = false;
                if !lkey.has_null() {
                    for (i, rrow) in r.rows.iter().enumerate() {
                        let rkey = rrow.project(right_keys);
                        if !rkey.has_null() && lkey == rkey {
                            any = true;
                            matched_right[i] = true;
                            rows.push(lrow.concat(rrow));
                        }
                    }
                }
                if !any && matches!(join_type, JoinType::LeftOuter | JoinType::FullOuter) {
                    rows.push(lrow.concat(&null_padding(r.arity())));
                }
            }
        }
    }
    if matches!(join_type, JoinType::RightOuter | JoinType::FullOuter) {
        let pad = null_padding(l.arity());
        for (i, rrow) in r.rows.iter().enumerate() {
            if !matched_right[i] {
                rows.push(pad.concat(rrow));
            }
        }
    }
    Ok(Relation { names, rows })
}

fn exec_aggregate(
    rel: &Relation,
    group_by: &[usize],
    aggs: &[crate::plan::Aggregate],
    having: Option<&Expr>,
) -> Result<Relation> {
    if let Some(&c) = group_by.iter().find(|&&c| c >= rel.arity()) {
        return Err(Error::Storage(format!("group column {c} out of range")));
    }
    if let Some(c) = aggs
        .iter()
        .filter_map(|a| a.func.input_column())
        .find(|&c| c >= rel.arity())
    {
        return Err(Error::Storage(format!(
            "aggregate input column {c} out of range"
        )));
    }
    // Group rows preserving first-seen order.
    let mut order: Vec<Tuple> = Vec::new();
    let mut groups: HashMap<Tuple, Vec<usize>> = HashMap::new();
    for (i, row) in rel.rows.iter().enumerate() {
        let key = row.project(group_by);
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(i);
    }
    // Global aggregate over empty input still yields one row.
    if group_by.is_empty() && rel.rows.is_empty() {
        order.push(Tuple::empty());
        groups.insert(Tuple::empty(), vec![]);
    }

    let mut names: Vec<String> = group_by
        .iter()
        .map(|&c| rel.names.get(c).cloned().unwrap_or_else(|| format!("c{c}")))
        .collect();
    names.extend(aggs.iter().map(|a| a.name.clone()));

    let mut rows = Vec::with_capacity(order.len());
    for key in order {
        let members = &groups[&key];
        let mut out: Vec<Value> = key.values().to_vec();
        for agg in aggs {
            out.push(fold_agg(agg.func, members, &rel.rows)?);
        }
        let row = Tuple::new(out);
        match having {
            Some(pred) if !pred.eval_bool(&row)? => {}
            _ => rows.push(row),
        }
    }
    Ok(Relation { names, rows })
}

fn fold_agg(func: AggFunc, members: &[usize], rows: &[Tuple]) -> Result<Value> {
    match func {
        AggFunc::Count => Ok(Value::Int(members.len() as i64)),
        AggFunc::Sum(c) => {
            let mut int_sum: i64 = 0;
            let mut float_sum: f64 = 0.0;
            let mut any_float = false;
            let mut any = false;
            for &i in members {
                match rows[i].get(c) {
                    Value::Int(v) => {
                        // Checked: both executors surface integer SUM
                        // overflow as Error::Overflow instead of wrapping.
                        int_sum = int_sum.checked_add(*v).ok_or_else(|| {
                            Error::Overflow(
                                "integer SUM overflowed i64 (derivation counts too large?)".into(),
                            )
                        })?;
                        any = true;
                    }
                    Value::Float(v) => {
                        float_sum += v;
                        any_float = true;
                        any = true;
                    }
                    Value::Null => {}
                    other => return Err(Error::Storage(format!("SUM over non-numeric {other}"))),
                }
            }
            if !any {
                Ok(Value::Null)
            } else if any_float {
                Ok(Value::Float(float_sum + int_sum as f64))
            } else {
                Ok(Value::Int(int_sum))
            }
        }
        AggFunc::Min(c) | AggFunc::Max(c) => {
            let mut best: Option<Value> = None;
            for &i in members {
                let v = rows[i].get(c);
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v.clone(),
                    Some(b) => {
                        let keep_new = match func {
                            AggFunc::Min(_) => *v < b,
                            _ => *v > b,
                        };
                        if keep_new {
                            v.clone()
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        AggFunc::BoolOr(c) | AggFunc::BoolAnd(c) => {
            let mut acc: Option<bool> = None;
            for &i in members {
                match rows[i].get(c) {
                    Value::Bool(b) => {
                        acc = Some(match (acc, func) {
                            (None, _) => *b,
                            (Some(a), AggFunc::BoolOr(_)) => a || *b,
                            (Some(a), _) => a && *b,
                        });
                    }
                    Value::Null => {}
                    other => {
                        return Err(Error::Storage(format!(
                            "boolean aggregate over non-boolean {other}"
                        )))
                    }
                }
            }
            Ok(acc.map(Value::Bool).unwrap_or(Value::Null))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Aggregate;
    use proql_common::{tup, Schema, ValueType};

    /// The original `join_names`: rescan the output for every right name
    /// and every `_N` candidate. Kept as the oracle for the set-based one.
    fn join_names_by_rescan(left: &[String], right: &[String]) -> Vec<String> {
        let mut names = left.to_vec();
        for n in right {
            if names.iter().any(|x| x == n) {
                let mut i = 1;
                loop {
                    let cand = format!("{n}_{i}");
                    if !names.contains(&cand) {
                        names.push(cand);
                        break;
                    }
                    i += 1;
                }
            } else {
                names.push(n.clone());
            }
        }
        names
    }

    #[test]
    fn join_names_equals_the_rescanning_original() {
        // A tiny name pool forces duplicates on both sides, and the pool
        // itself contains `_N`-shaped names, so generated candidates
        // collide with given names, with each other, and chain (`k_1_1`).
        const POOL: [&str; 8] = ["k", "k_1", "k_2", "k_1_1", "x", "x_1", "y", "k_3"];
        let mut rng = proql_common::rng::SplitMix64::seed_from_u64(0x0101_AAE5);
        let mut pick = |max: usize| -> Vec<String> {
            let n = rng.gen_range_usize(0, max);
            (0..n)
                .map(|_| POOL[rng.gen_range_usize(0, POOL.len())].to_string())
                .collect()
        };
        for round in 0..500 {
            let (left, right) = (pick(12), pick(12));
            assert_eq!(
                join_names(left.clone(), &right),
                join_names_by_rescan(&left, &right),
                "round {round}: {left:?} ⋈ {right:?}"
            );
        }
        // The accumulating shape of a join chain: the output of one join
        // is the left input of the next.
        let leaf: Vec<String> = ["k", "x", "y"].iter().map(|s| s.to_string()).collect();
        let (mut fast, mut slow) = (leaf.clone(), leaf.clone());
        for _ in 0..12 {
            fast = join_names(fast, &leaf);
            slow = join_names_by_rescan(&slow, &leaf);
            assert_eq!(fast, slow);
        }
        assert_eq!(fast[3..6], ["k_1", "x_1", "y_1"]);
        assert_eq!(fast.last().map(String::as_str), Some("y_12"));
    }

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
                "C",
                &[("id", ValueType::Int), ("name", ValueType::Str)],
                &[0, 1],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("A", tup![1, "sn1", 7]).unwrap();
        db.insert("A", tup![2, "sn1", 5]).unwrap();
        db.insert("C", tup![2, "cn2"]).unwrap();
        db.insert("C", tup![3, "cn3"]).unwrap();
        db
    }

    #[test]
    fn scan_and_filter() {
        let db = db();
        let rel = execute(&db, &Plan::scan("A").filter(Expr::col(2).eq(Expr::lit(5)))).unwrap();
        assert_eq!(rel.rows, vec![tup![2, "sn1", 5]]);
        assert_eq!(rel.names, vec!["id", "sn", "len"]);
    }

    #[test]
    fn project_computes_expressions() {
        let db = db();
        let rel = execute(
            &db,
            &Plan::scan("A").project(vec![
                Expr::col(0),
                Expr::cmp(crate::expr::BinOp::Add, Expr::col(2), Expr::lit(1)),
            ]),
        )
        .unwrap();
        assert_eq!(rel.sorted_rows(), vec![tup![1, 8], tup![2, 6]]);
    }

    #[test]
    fn inner_join() {
        let db = db();
        let rel = execute(
            &db,
            &Plan::scan("A").join(Plan::scan("C"), vec![0], vec![0]),
        )
        .unwrap();
        assert_eq!(rel.rows, vec![tup![2, "sn1", 5, 2, "cn2"]]);
        // Right-side duplicate column name is disambiguated.
        assert_eq!(rel.names, vec!["id", "sn", "len", "id_1", "name"]);
    }

    #[test]
    fn left_outer_join_pads_nulls() {
        let db = db();
        let rel = execute(
            &db,
            &Plan::scan("A").join_as(Plan::scan("C"), JoinType::LeftOuter, vec![0], vec![0]),
        )
        .unwrap();
        assert_eq!(rel.len(), 2);
        let unmatched: Vec<_> = rel.rows.iter().filter(|r| r.get(3).is_null()).collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0].get(0), &Value::Int(1));
    }

    #[test]
    fn full_outer_join_keeps_both_sides() {
        let db = db();
        let rel = execute(
            &db,
            &Plan::scan("A").join_as(Plan::scan("C"), JoinType::FullOuter, vec![0], vec![0]),
        )
        .unwrap();
        // match (2), left-only (1), right-only (3)
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn right_outer_join() {
        let db = db();
        let rel = execute(
            &db,
            &Plan::scan("A").join_as(Plan::scan("C"), JoinType::RightOuter, vec![0], vec![0]),
        )
        .unwrap();
        assert_eq!(rel.len(), 2);
        let right_only: Vec<_> = rel.rows.iter().filter(|r| r.get(0).is_null()).collect();
        assert_eq!(right_only.len(), 1);
        assert_eq!(right_only[0].get(4), &Value::str("cn3"));
    }

    #[test]
    fn null_join_keys_do_not_match() {
        let mut db = Database::new();
        db.create_table(Schema::build("L", &[("k", ValueType::Int)], &[]).unwrap())
            .unwrap();
        db.create_table(Schema::build("R", &[("k", ValueType::Int)], &[]).unwrap())
            .unwrap();
        db.table_mut("L")
            .unwrap()
            .insert(Tuple::new(vec![Value::Null]))
            .unwrap();
        db.table_mut("R")
            .unwrap()
            .insert(Tuple::new(vec![Value::Null]))
            .unwrap();
        let inner = execute(
            &db,
            &Plan::scan("L").join(Plan::scan("R"), vec![0], vec![0]),
        )
        .unwrap();
        assert!(inner.is_empty());
        let full = execute(
            &db,
            &Plan::scan("L").join_as(Plan::scan("R"), JoinType::FullOuter, vec![0], vec![0]),
        )
        .unwrap();
        assert_eq!(full.len(), 2);
    }

    #[test]
    fn union_all_and_distinct() {
        let db = db();
        let p = Plan::Union {
            inputs: vec![
                Plan::scan("A").project(vec![Expr::col(0)]),
                Plan::scan("C").project(vec![Expr::col(0)]),
            ],
            distinct: false,
        };
        let rel = execute(&db, &p).unwrap();
        assert_eq!(rel.len(), 4);
        let p2 = Plan::Union {
            inputs: match p {
                Plan::Union { inputs, .. } => inputs,
                _ => unreachable!(),
            },
            distinct: true,
        };
        let rel2 = execute(&db, &p2).unwrap();
        assert_eq!(rel2.sorted_rows(), vec![tup![1], tup![2], tup![3]]);
    }

    #[test]
    fn union_arity_mismatch_errors() {
        let db = db();
        let p = Plan::union_all(vec![Plan::scan("A"), Plan::scan("C")]);
        assert!(execute(&db, &p).is_err());
    }

    #[test]
    fn aggregate_group_by_having() {
        let db = db();
        // GROUP BY sn: count + sum(len), HAVING sum >= 12
        let p = Plan::Aggregate {
            input: Box::new(Plan::scan("A")),
            group_by: vec![1],
            aggs: vec![
                Aggregate::new(AggFunc::Count, "n"),
                Aggregate::new(AggFunc::Sum(2), "total"),
            ],
            having: Some(Expr::cmp(
                crate::expr::BinOp::Ge,
                Expr::col(2),
                Expr::lit(12),
            )),
        };
        let rel = execute(&db, &p).unwrap();
        assert_eq!(rel.rows, vec![tup!["sn1", 2, 12]]);
        assert_eq!(rel.names, vec!["sn", "n", "total"]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let db = db();
        let p = Plan::Aggregate {
            input: Box::new(Plan::scan("A").filter(Expr::lit(false))),
            group_by: vec![],
            aggs: vec![
                Aggregate::new(AggFunc::Count, "n"),
                Aggregate::new(AggFunc::Sum(2), "s"),
                Aggregate::new(AggFunc::Min(2), "m"),
            ],
            having: None,
        };
        let rel = execute(&db, &p).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.rows[0].get(0), &Value::Int(0));
        assert!(rel.rows[0].get(1).is_null());
        assert!(rel.rows[0].get(2).is_null());
    }

    #[test]
    fn min_max_bool_aggregates() {
        let db = db();
        let p = Plan::Aggregate {
            input: Box::new(Plan::scan("A")),
            group_by: vec![1],
            aggs: vec![
                Aggregate::new(AggFunc::Min(2), "lo"),
                Aggregate::new(AggFunc::Max(2), "hi"),
            ],
            having: None,
        };
        let rel = execute(&db, &p).unwrap();
        assert_eq!(rel.rows, vec![tup!["sn1", 5, 7]]);
    }

    #[test]
    fn sort_and_limit() {
        let db = db();
        let p = Plan::Sort {
            input: Box::new(Plan::scan("A")),
            by: vec![2],
        };
        let rel = execute(&db, &p).unwrap();
        assert_eq!(rel.rows[0].get(2), &Value::Int(5));
        let p = Plan::Limit {
            input: Box::new(p),
            n: 1,
        };
        assert_eq!(execute(&db, &p).unwrap().len(), 1);
    }

    #[test]
    fn views_execute_their_plan() {
        let mut db = db();
        let schema = Schema::build("V", &[("id", ValueType::Int)], &[]).unwrap();
        db.create_view("V", Plan::scan("A").project(vec![Expr::col(0)]), schema)
            .unwrap();
        let rel = execute(&db, &Plan::scan("V")).unwrap();
        assert_eq!(rel.sorted_rows(), vec![tup![1], tup![2]]);
        assert_eq!(rel.names, vec!["id"]);
    }

    #[test]
    fn cyclic_views_are_detected() {
        let mut db = Database::new();
        let schema = Schema::build("V", &[("id", ValueType::Int)], &[]).unwrap();
        db.create_view("V", Plan::scan("W"), schema.clone())
            .unwrap();
        db.create_view("W", Plan::scan("V"), schema).unwrap();
        assert!(execute(&db, &Plan::scan("V")).is_err());
    }

    #[test]
    fn index_lookup_with_and_without_index() {
        let mut db = db();
        let p = Plan::IndexLookup {
            table: "A".into(),
            columns: vec![1],
            key: vec![Value::str("sn1")],
            residual: None,
        };
        // No index: falls back to scan+filter.
        assert_eq!(execute(&db, &p).unwrap().len(), 2);
        db.table_mut("A")
            .unwrap()
            .create_index("by_sn", vec![1], crate::index::IndexKind::Hash)
            .unwrap();
        assert_eq!(execute(&db, &p).unwrap().len(), 2);
        // Residual predicate filters further.
        let p2 = Plan::IndexLookup {
            table: "A".into(),
            columns: vec![1],
            key: vec![Value::str("sn1")],
            residual: Some(Expr::col(2).eq(Expr::lit(7))),
        };
        assert_eq!(execute(&db, &p2).unwrap().len(), 1);
    }

    #[test]
    fn values_plan() {
        let db = Database::new();
        let p = Plan::Values {
            schema: crate::plan::anon_schema("v", &["x".into()]),
            rows: vec![tup![1], tup![2]],
        };
        assert_eq!(execute(&db, &p).unwrap().len(), 2);
    }
}
