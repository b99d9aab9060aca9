//! Columnar batches: typed column vectors plus [`RecordBatch`].
//!
//! This is the data layout of the batch executor ([`crate::batch_exec`]).
//! A column is stored as a typed vector when every value shares one type
//! and no NULLs occur (`Int`/`Float`/`Bool`/`Str`), and degrades to a boxed
//! [`Value`] vector (`Any`) otherwise — dynamically typed plans (anonymous
//! schemas, outer-join padding) stay correct while the hot provenance
//! workload (dense integer `P_m` columns) runs on flat `Vec<i64>`s.
//!
//! Expression evaluation is vectorized: [`eval_expr`] produces a whole
//! column per operator, and [`eval_mask`] produces a selection mask with
//! SQL filter semantics (NULL counts as false).

use crate::dict::Dictionary;
use crate::expr::{BinOp, Expr};
use proql_common::{Error, Result, Tuple, Value};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A column of values, typed when homogeneous and non-null.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Dense 64-bit integers.
    Int(Vec<i64>),
    /// Dense 64-bit floats.
    Float(Vec<f64>),
    /// Dense booleans.
    Bool(Vec<bool>),
    /// Dense strings (shared, like [`Value::Str`]).
    Str(Vec<Arc<str>>),
    /// Dictionary-encoded strings: `u32` codes into a shared dictionary.
    /// Null-free like `Str`; scans of nullable string columns degrade to
    /// `Any`. Decodes to the same `Value::Str` values as the `Str`
    /// representation — only comparisons get cheaper.
    Dict {
        /// Per-row codes; every code is valid in `dict`.
        codes: Vec<u32>,
        /// The interning table the codes point into.
        dict: Arc<Dictionary>,
    },
    /// Mixed-typed or nullable fallback.
    Any(Vec<Value>),
}

impl Column {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
            Column::Any(v) => v.len(),
        }
    }

    /// True iff no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row` (clones; `Str`/`Any` clones are refcount bumps).
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Float(v) => Value::Float(v[row]),
            Column::Bool(v) => Value::Bool(v[row]),
            Column::Str(v) => Value::Str(v[row].clone()),
            Column::Dict { codes, dict } => Value::Str(dict.get(codes[row]).clone()),
            Column::Any(v) => v[row].clone(),
        }
    }

    /// True iff the value at `row` is NULL.
    pub fn is_null(&self, row: usize) -> bool {
        match self {
            Column::Any(v) => v[row].is_null(),
            _ => false,
        }
    }

    /// Build a column from an iterator of values, choosing the densest
    /// representation that fits.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Column {
        let vals: Vec<Value> = values.into_iter().collect();
        Column::from_value_vec(vals)
    }

    /// Build from an owned value vector (see [`Column::from_values`]).
    pub fn from_value_vec(vals: Vec<Value>) -> Column {
        fn all<T>(vals: &[Value], f: impl Fn(&Value) -> Option<T>) -> Option<Vec<T>> {
            vals.iter().map(f).collect()
        }
        if vals.is_empty() {
            return Column::Any(vals);
        }
        match &vals[0] {
            Value::Int(_) => {
                if let Some(v) = all(&vals, Value::as_int) {
                    return Column::Int(v);
                }
            }
            Value::Float(_) => {
                if let Some(v) = all(&vals, |x| match x {
                    Value::Float(f) => Some(*f),
                    _ => None,
                }) {
                    return Column::Float(v);
                }
            }
            Value::Bool(_) => {
                if let Some(v) = all(&vals, Value::as_bool) {
                    return Column::Bool(v);
                }
            }
            Value::Str(_) => {
                if let Some(v) = all(&vals, |x| match x {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                }) {
                    return Column::Str(v);
                }
            }
            Value::Null => {}
        }
        Column::Any(vals)
    }

    /// Keep the rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Column {
        fn keep<T: Clone>(v: &[T], mask: &[bool]) -> Vec<T> {
            v.iter()
                .zip(mask)
                .filter(|&(_, &m)| m)
                .map(|(x, _)| x.clone())
                .collect()
        }
        match self {
            Column::Int(v) => Column::Int(keep(v, mask)),
            Column::Float(v) => Column::Float(keep(v, mask)),
            Column::Bool(v) => Column::Bool(keep(v, mask)),
            Column::Str(v) => Column::Str(keep(v, mask)),
            Column::Dict { codes, dict } => Column::Dict {
                codes: keep(codes, mask),
                dict: dict.clone(),
            },
            Column::Any(v) => Column::Any(keep(v, mask)),
        }
    }

    /// Take the rows at `indices` (in order, repeats allowed).
    pub fn gather(&self, indices: &[u32]) -> Column {
        fn take<T: Clone>(v: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&i| v[i as usize].clone()).collect()
        }
        match self {
            Column::Int(v) => Column::Int(take(v, indices)),
            Column::Float(v) => Column::Float(take(v, indices)),
            Column::Bool(v) => Column::Bool(take(v, indices)),
            Column::Str(v) => Column::Str(take(v, indices)),
            Column::Dict { codes, dict } => Column::Dict {
                codes: take(codes, indices),
                dict: dict.clone(),
            },
            Column::Any(v) => Column::Any(take(v, indices)),
        }
    }

    /// Copy out the contiguous row range `r` (used by morsel-parallel
    /// operators; representation is preserved).
    pub fn slice(&self, r: std::ops::Range<usize>) -> Column {
        match self {
            Column::Int(v) => Column::Int(v[r].to_vec()),
            Column::Float(v) => Column::Float(v[r].to_vec()),
            Column::Bool(v) => Column::Bool(v[r].to_vec()),
            Column::Str(v) => Column::Str(v[r].to_vec()),
            Column::Dict { codes, dict } => Column::Dict {
                codes: codes[r].to_vec(),
                dict: dict.clone(),
            },
            Column::Any(v) => Column::Any(v[r].to_vec()),
        }
    }

    /// Take the rows at `indices`, producing NULL for `None`. All-`Some`
    /// index vectors keep the typed representation.
    pub fn gather_opt(&self, indices: &[Option<u32>]) -> Column {
        if indices.iter().all(Option::is_some) {
            let dense: Vec<u32> = indices.iter().map(|i| i.expect("checked")).collect();
            return self.gather(&dense);
        }
        Column::Any(
            indices
                .iter()
                .map(|i| match i {
                    Some(i) => self.value(*i as usize),
                    None => Value::Null,
                })
                .collect(),
        )
    }

    /// Append `other`'s values, degrading the representation if the types
    /// differ.
    pub fn append(self, other: Column) -> Column {
        match (self, other) {
            (Column::Int(mut a), Column::Int(b)) => {
                a.extend(b);
                Column::Int(a)
            }
            (Column::Float(mut a), Column::Float(b)) => {
                a.extend(b);
                Column::Float(a)
            }
            (Column::Bool(mut a), Column::Bool(b)) => {
                a.extend(b);
                Column::Bool(a)
            }
            (Column::Str(mut a), Column::Str(b)) => {
                a.extend(b);
                Column::Str(a)
            }
            (
                Column::Dict { mut codes, dict },
                Column::Dict {
                    codes: bc,
                    dict: bd,
                },
            ) if Arc::ptr_eq(&dict, &bd) => {
                codes.extend(bc);
                Column::Dict { codes, dict }
            }
            // Mixed string representations decode the dictionary side so
            // the result stays a plain string column (as it would be with
            // dictionaries disabled).
            (a, b) if a.is_string() && b.is_string() => {
                if a.is_empty() {
                    return b;
                }
                if b.is_empty() {
                    return a;
                }
                let mut s = a.to_str_vec();
                s.extend(b.to_str_vec());
                Column::Str(s)
            }
            (a, b) => {
                // Empty columns adopt the other side's representation so a
                // union of an empty branch does not degrade to Any.
                if a.is_empty() {
                    return b;
                }
                if b.is_empty() {
                    return a;
                }
                let mut vals: Vec<Value> = (0..a.len()).map(|i| a.value(i)).collect();
                vals.extend((0..b.len()).map(|i| b.value(i)));
                Column::Any(vals)
            }
        }
    }

    /// A column of `n` NULLs.
    pub fn nulls(n: usize) -> Column {
        Column::Any(vec![Value::Null; n])
    }

    /// True for both null-free string representations.
    fn is_string(&self) -> bool {
        matches!(self, Column::Str(_) | Column::Dict { .. })
    }

    /// Decode a string column (either representation) to shared strings.
    fn to_str_vec(&self) -> Vec<Arc<str>> {
        match self {
            Column::Str(v) => v.clone(),
            Column::Dict { codes, dict } => codes.iter().map(|&c| dict.get(c).clone()).collect(),
            _ => unreachable!("to_str_vec on non-string column"),
        }
    }

    /// Hash the value at `row` consistently with [`Value`]'s `Hash` impl.
    pub(crate) fn hash_value_into<H: Hasher>(&self, row: usize, state: &mut H) {
        match self {
            Column::Int(v) => Value::Int(v[row]).hash(state),
            Column::Float(v) => Value::Float(v[row]).hash(state),
            Column::Bool(v) => Value::Bool(v[row]).hash(state),
            Column::Str(v) => {
                state.write_u8(3);
                v[row].hash(state);
            }
            Column::Dict { codes, dict } => {
                state.write_u8(3);
                dict.get(codes[row]).hash(state);
            }
            Column::Any(v) => v[row].hash(state),
        }
    }

    /// The code vector and dictionary, for dictionary-encoded columns.
    pub(crate) fn dict_parts(&self) -> Option<(&[u32], &Arc<Dictionary>)> {
        match self {
            Column::Dict { codes, dict } => Some((codes, dict)),
            _ => None,
        }
    }

    /// Value equality between two column cells, matching [`Value`]'s `Eq`.
    pub fn value_eq(&self, row: usize, other: &Column, other_row: usize) -> bool {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a[row] == b[other_row],
            (Column::Str(a), Column::Str(b)) => a[row] == b[other_row],
            (Column::Bool(a), Column::Bool(b)) => a[row] == b[other_row],
            (Column::Dict { codes: a, dict: da }, Column::Dict { codes: b, dict: db }) => {
                if Arc::ptr_eq(da, db) {
                    a[row] == b[other_row]
                } else {
                    da.get(a[row]) == db.get(b[other_row])
                }
            }
            (Column::Dict { codes, dict }, Column::Str(b)) => *dict.get(codes[row]) == b[other_row],
            (Column::Str(a), Column::Dict { codes, dict }) => a[row] == *dict.get(codes[other_row]),
            _ => self.value(row) == other.value(other_row),
        }
    }
}

/// A batch of rows in columnar layout.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    /// Output column names.
    pub names: Vec<String>,
    /// Columns, all of length [`RecordBatch::len`].
    pub columns: Vec<Column>,
    rows: usize,
}

impl RecordBatch {
    /// Build from columns (all must share one length).
    pub fn new(names: Vec<String>, columns: Vec<Column>, rows: usize) -> RecordBatch {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        debug_assert_eq!(names.len(), columns.len());
        RecordBatch {
            names,
            columns,
            rows,
        }
    }

    /// An empty batch with the given column names.
    pub fn empty(names: Vec<String>) -> RecordBatch {
        let columns = names.iter().map(|_| Column::Any(Vec::new())).collect();
        RecordBatch {
            names,
            columns,
            rows: 0,
        }
    }

    /// Transpose a row-oriented relation into columns.
    pub fn from_rows<'a>(names: Vec<String>, rows: impl Iterator<Item = &'a Tuple>) -> RecordBatch {
        let arity = names.len();
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::new()).collect();
        let mut n = 0;
        for row in rows {
            n += 1;
            for (c, v) in row.iter().enumerate() {
                cols[c].push(v.clone());
            }
        }
        RecordBatch {
            names,
            columns: cols.into_iter().map(Column::from_value_vec).collect(),
            rows: n,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Materialize one row.
    pub fn row(&self, i: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Transpose back into row orientation.
    pub fn to_rows(&self) -> Vec<Tuple> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Keep the rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> RecordBatch {
        let rows = mask.iter().filter(|&&m| m).count();
        RecordBatch {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c.filter(mask)).collect(),
            rows,
        }
    }

    /// Take the rows at `indices`.
    pub fn gather(&self, indices: &[u32]) -> RecordBatch {
        RecordBatch {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c.gather(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// Copy out the contiguous row range `r` as its own batch.
    pub fn slice(&self, r: std::ops::Range<usize>) -> RecordBatch {
        RecordBatch {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c.slice(r.clone())).collect(),
            rows: r.len(),
        }
    }

    /// Per-row hashes of the key columns, consistent with `Tuple` hashing
    /// semantics (equal values hash equal regardless of representation).
    pub fn key_hashes(&self, keys: &[usize]) -> Vec<u64> {
        self.key_hashes_range(keys, 0..self.rows)
    }

    /// [`RecordBatch::key_hashes`] restricted to a row range (the unit of
    /// morsel-parallel hashing; hashes depend only on values, so the
    /// parallel concatenation equals the serial whole-batch pass).
    pub fn key_hashes_range(&self, keys: &[usize], r: std::ops::Range<usize>) -> Vec<u64> {
        let cols: Vec<&Column> = keys.iter().map(|&k| &self.columns[k]).collect();
        r.map(|row| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            for c in &cols {
                c.hash_value_into(row, &mut h);
            }
            h.finish()
        })
        .collect()
    }

    /// Parallel [`RecordBatch::key_hashes`]: morsels hashed on worker
    /// threads, concatenated in morsel order.
    pub fn key_hashes_par(&self, keys: &[usize], par: proql_common::Parallelism) -> Vec<u64> {
        use proql_common::par::{morsel_ranges, par_map, MORSEL_ROWS};
        let threads = par.threads();
        if threads <= 1 || self.rows <= MORSEL_ROWS {
            return self.key_hashes(keys);
        }
        let ranges = morsel_ranges(self.rows);
        let parts = par_map(ranges.len(), threads, |i| {
            self.key_hashes_range(keys, ranges[i].clone())
        });
        let mut out = Vec::with_capacity(self.rows);
        for p in parts {
            out.extend(p);
        }
        out
    }

    /// True iff any key column holds NULL at `row`.
    pub fn key_has_null(&self, keys: &[usize], row: usize) -> bool {
        keys.iter().any(|&k| self.columns[k].is_null(row))
    }

    /// Key equality between a row of `self` and a row of `other`.
    pub fn keys_eq(
        &self,
        keys: &[usize],
        row: usize,
        other: &RecordBatch,
        other_keys: &[usize],
        other_row: usize,
    ) -> bool {
        keys.iter()
            .zip(other_keys)
            .all(|(&a, &b)| self.columns[a].value_eq(row, &other.columns[b], other_row))
    }
}

/// Evaluate `expr` over every row of `batch`, producing one column.
pub fn eval_expr(expr: &Expr, batch: &RecordBatch) -> Result<Column> {
    let n = batch.len();
    match expr {
        Expr::Col(i) => batch
            .columns
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::Storage(format!("column {i} out of range"))),
        Expr::Lit(v) => Ok(match v {
            Value::Int(x) => Column::Int(vec![*x; n]),
            Value::Float(x) => Column::Float(vec![*x; n]),
            Value::Bool(x) => Column::Bool(vec![*x; n]),
            Value::Str(s) => Column::Str(vec![s.clone(); n]),
            Value::Null => Column::nulls(n),
        }),
        Expr::Bin(op, a, b) => {
            let ca = eval_expr(a, batch)?;
            let cb = eval_expr(b, batch)?;
            eval_bin_columns(*op, &ca, &cb)
        }
        Expr::And(ps) => {
            let mut acc = vec![true; n];
            for p in ps {
                let m = eval_mask(p, batch)?;
                for (a, b) in acc.iter_mut().zip(&m) {
                    *a = *a && *b;
                }
            }
            Ok(Column::Bool(acc))
        }
        Expr::Or(ps) => {
            let mut acc = vec![false; n];
            for p in ps {
                let m = eval_mask(p, batch)?;
                for (a, b) in acc.iter_mut().zip(&m) {
                    *a = *a || *b;
                }
            }
            Ok(Column::Bool(acc))
        }
        Expr::Not(p) => {
            let m = eval_mask(p, batch)?;
            Ok(Column::Bool(m.into_iter().map(|b| !b).collect()))
        }
        Expr::IsNull(e) => {
            let c = eval_expr(e, batch)?;
            Ok(Column::Bool((0..n).map(|i| c.is_null(i)).collect()))
        }
        Expr::Param { slot, .. } => Err(crate::expr::unbound(*slot)),
    }
}

/// Evaluate a predicate into a selection mask. SQL filter semantics: NULL
/// counts as false; non-boolean non-null results are errors.
pub fn eval_mask(expr: &Expr, batch: &RecordBatch) -> Result<Vec<bool>> {
    match eval_expr(expr, batch)? {
        Column::Bool(v) => Ok(v),
        Column::Any(v) => v
            .iter()
            .map(|x| match x {
                Value::Bool(b) => Ok(*b),
                Value::Null => Ok(false),
                other => Err(Error::Storage(format!(
                    "predicate evaluated to non-boolean {other}"
                ))),
            })
            .collect(),
        other if other.is_empty() => Ok(Vec::new()),
        other => Err(Error::Storage(format!(
            "predicate evaluated to non-boolean column {other:?}"
        ))),
    }
}

fn eval_bin_columns(op: BinOp, a: &Column, b: &Column) -> Result<Column> {
    use BinOp::*;
    let n = a.len().max(b.len());
    // Typed fast path: both dense Int.
    if let (Column::Int(x), Column::Int(y)) = (a, b) {
        return Ok(match op {
            Eq => Column::Bool(x.iter().zip(y).map(|(p, q)| p == q).collect()),
            Ne => Column::Bool(x.iter().zip(y).map(|(p, q)| p != q).collect()),
            Lt => Column::Bool(x.iter().zip(y).map(|(p, q)| p < q).collect()),
            Le => Column::Bool(x.iter().zip(y).map(|(p, q)| p <= q).collect()),
            Gt => Column::Bool(x.iter().zip(y).map(|(p, q)| p > q).collect()),
            Ge => Column::Bool(x.iter().zip(y).map(|(p, q)| p >= q).collect()),
            Add => Column::Int(x.iter().zip(y).map(|(p, q)| p.wrapping_add(*q)).collect()),
            Sub => Column::Int(x.iter().zip(y).map(|(p, q)| p.wrapping_sub(*q)).collect()),
            Mul => Column::Int(x.iter().zip(y).map(|(p, q)| p.wrapping_mul(*q)).collect()),
        });
    }
    // Dictionary fast path: equality against a broadcast string literal or
    // a same-dictionary column runs on u32 codes, no string compares.
    if matches!(op, Eq | Ne) {
        if let Some(out) = dict_eq_columns(op == Eq, a, b) {
            return Ok(out);
        }
    }
    // Generic path: elementwise over values, with the row executor's exact
    // semantics (total Eq, NULL-propagating arithmetic).
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(crate::expr::eval_bin(op, &a.value(i), &b.value(i))?);
    }
    Ok(Column::from_value_vec(out))
}

/// Code-compare fast path for `=` / `<>` involving a dictionary column.
/// Returns `None` when the shapes don't allow it (the generic path is
/// value-identical, just slower).
fn dict_eq_columns(eq: bool, a: &Column, b: &Column) -> Option<Column> {
    let (codes, dict, other) = match (a.dict_parts(), b.dict_parts()) {
        (Some((ca, da)), Some((cb, db))) => {
            if Arc::ptr_eq(da, db) {
                let out = ca.iter().zip(cb).map(|(x, y)| (x == y) == eq).collect();
                return Some(Column::Bool(out));
            }
            // Differing dictionaries: equal codes still mean equal strings
            // only within one dictionary, so fall back.
            return None;
        }
        (Some((c, d)), None) => (c, d, b),
        (None, Some((c, d))) => (c, d, a),
        (None, None) => return None,
    };
    match other {
        Column::Str(s) if s.is_empty() => Some(Column::Bool(Vec::new())),
        // A literal broadcast by `eval_expr` clones one Arc per row; a
        // single `code_of` lookup then decides every row.
        Column::Str(s) if s.iter().all(|x| Arc::ptr_eq(x, &s[0])) => {
            let out = match dict.code_of(&s[0]) {
                Some(k) => codes.iter().map(|&c| (c == k) == eq).collect(),
                None => vec![!eq; codes.len()],
            };
            Some(Column::Bool(out))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql_common::tup;

    fn batch() -> RecordBatch {
        let rows = [tup![1, "a", 1.5], tup![2, "b", 2.5], tup![3, "a", 3.5]];
        RecordBatch::from_rows(vec!["id".into(), "s".into(), "f".into()], rows.iter())
    }

    #[test]
    fn typed_columns_are_inferred() {
        let b = batch();
        assert!(matches!(b.columns[0], Column::Int(_)));
        assert!(matches!(b.columns[1], Column::Str(_)));
        assert!(matches!(b.columns[2], Column::Float(_)));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn mixed_or_null_columns_degrade_to_any() {
        let rows = [tup![1], Tuple::new(vec![Value::Null])];
        let b = RecordBatch::from_rows(vec!["x".into()], rows.iter());
        assert!(matches!(b.columns[0], Column::Any(_)));
        assert!(b.columns[0].is_null(1));
    }

    #[test]
    fn round_trip_rows() {
        let b = batch();
        assert_eq!(
            b.to_rows(),
            vec![tup![1, "a", 1.5], tup![2, "b", 2.5], tup![3, "a", 3.5]]
        );
    }

    #[test]
    fn filter_and_gather() {
        let b = batch();
        let f = b.filter(&[true, false, true]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.row(1), tup![3, "a", 3.5]);
        let g = b.gather(&[2, 0, 2]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.row(0), tup![3, "a", 3.5]);
        assert_eq!(g.row(1), tup![1, "a", 1.5]);
    }

    #[test]
    fn vectorized_predicates() {
        let b = batch();
        let mask = eval_mask(&Expr::col(0).eq(Expr::lit(2)), &b).unwrap();
        assert_eq!(mask, vec![false, true, false]);
        let mask = eval_mask(&Expr::cmp(BinOp::Ge, Expr::col(2), Expr::lit(2.0)), &b).unwrap();
        assert_eq!(mask, vec![false, true, true]);
    }

    #[test]
    fn vectorized_arithmetic_matches_row_eval() {
        let b = batch();
        let c = eval_expr(&Expr::cmp(BinOp::Add, Expr::col(0), Expr::lit(10)), &b).unwrap();
        assert_eq!(c, Column::Int(vec![11, 12, 13]));
        // Int + Float widens.
        let c = eval_expr(&Expr::cmp(BinOp::Mul, Expr::col(0), Expr::col(2)), &b).unwrap();
        assert_eq!(c, Column::Float(vec![1.5, 5.0, 10.5]));
    }

    #[test]
    fn null_predicate_is_false_in_mask() {
        let rows = [Tuple::new(vec![Value::Null]), tup![1]];
        let b = RecordBatch::from_rows(vec!["x".into()], rows.iter());
        let mask = eval_mask(&Expr::col(0).eq(Expr::lit(1)), &b).unwrap();
        // NULL = 1 is plain false under total Eq; 1 = 1 is true.
        assert_eq!(mask, vec![false, true]);
        let mask = eval_mask(&Expr::IsNull(Box::new(Expr::col(0))), &b).unwrap();
        assert_eq!(mask, vec![true, false]);
    }

    #[test]
    fn key_hashes_agree_across_representations() {
        // Same logical values, one dense Int column, one Any column.
        let dense = RecordBatch::new(vec!["k".into()], vec![Column::Int(vec![1, 2, 3])], 3);
        let boxed = RecordBatch::new(
            vec!["k".into()],
            vec![Column::Any(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
            ])],
            3,
        );
        assert_eq!(dense.key_hashes(&[0]), boxed.key_hashes(&[0]));
        assert!(dense.keys_eq(&[0], 1, &boxed, &[0], 1));
    }

    #[test]
    fn append_preserves_typed_columns() {
        let a = Column::Int(vec![1, 2]);
        let b = Column::Int(vec![3]);
        assert_eq!(a.append(b), Column::Int(vec![1, 2, 3]));
        let mixed = Column::Int(vec![1]).append(Column::Str(vec![Arc::from("x")]));
        assert!(matches!(mixed, Column::Any(_)));
        // Appending to an empty column adopts the non-empty side.
        let e = Column::Any(Vec::new()).append(Column::Int(vec![7]));
        assert_eq!(e, Column::Int(vec![7]));
    }
}
