//! Scalar expressions evaluated against a single tuple.
//!
//! These are the `WHERE`-clause and projection expressions of the generated
//! plans. Column references are positional; the translator resolves names to
//! positions when it builds plans.

use proql_common::{Error, Result, Tuple, Value};
use std::fmt;

/// Binary operators over [`Value`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Equality (total, `NULL = NULL` is true — see [`Value`] semantics).
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Numeric addition (int + int = int; anything with a float = float).
    Add,
    /// Numeric subtraction.
    Sub,
    /// Numeric multiplication.
    Mul,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
        };
        f.write_str(s)
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Positional column reference.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction (empty = true).
    And(Vec<Expr>),
    /// Logical disjunction (empty = false).
    Or(Vec<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// True iff the operand is NULL.
    IsNull(Box<Expr>),
    /// A literal slot of a plan template, replaced by the request's value
    /// before execution ([`Expr::bind_params`]). The optimizer estimates a
    /// range comparison against it from `sel_log2`, the log₂ bucket of its
    /// selectivity ([`crate::optimize::selectivity_bucket`]), and never
    /// treats it as a known value. Evaluating an unbound slot is an error.
    Param {
        /// Index into the values a request binds.
        slot: usize,
        /// log₂ selectivity bucket the plan was optimized for.
        sel_log2: i8,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Eq, Box::new(self), Box::new(other))
    }

    /// Compare two expressions with `op`.
    pub fn cmp(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Conjunction of predicates, flattening nested `And`s.
    pub fn and(preds: Vec<Expr>) -> Expr {
        let mut flat = Vec::new();
        for p in preds {
            match p {
                Expr::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().unwrap()
        } else {
            Expr::And(flat)
        }
    }

    /// Evaluate against `tuple`.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        match self {
            Expr::Col(i) => tuple
                .try_get(*i)
                .cloned()
                .ok_or_else(|| Error::Storage(format!("column {i} out of range"))),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Bin(op, a, b) => {
                let av = a.eval(tuple)?;
                let bv = b.eval(tuple)?;
                eval_bin(*op, &av, &bv)
            }
            Expr::And(ps) => {
                for p in ps {
                    if !p.eval_bool(tuple)? {
                        return Ok(Value::Bool(false));
                    }
                }
                Ok(Value::Bool(true))
            }
            Expr::Or(ps) => {
                for p in ps {
                    if p.eval_bool(tuple)? {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(Value::Bool(false))
            }
            Expr::Not(p) => Ok(Value::Bool(!p.eval_bool(tuple)?)),
            Expr::IsNull(e) => Ok(Value::Bool(e.eval(tuple)?.is_null())),
            Expr::Param { slot, .. } => Err(unbound(*slot)),
        }
    }

    /// Evaluate as a predicate. NULL results count as false (SQL-style
    /// filtering), non-boolean non-null results are errors.
    pub fn eval_bool(&self, tuple: &Tuple) -> Result<bool> {
        match self.eval(tuple)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(Error::Storage(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }

    /// Visit every column reference, in evaluation order.
    pub fn for_each_col(&self, f: &mut impl FnMut(usize)) {
        match self {
            Expr::Col(i) => f(*i),
            Expr::Lit(_) | Expr::Param { .. } => {}
            Expr::Bin(_, a, b) => {
                a.for_each_col(f);
                b.for_each_col(f);
            }
            Expr::And(ps) | Expr::Or(ps) => ps.iter().for_each(|p| p.for_each_col(f)),
            Expr::Not(p) | Expr::IsNull(p) => p.for_each_col(f),
        }
    }

    /// The smallest and largest column index referenced, if any (decides
    /// which join side a predicate belongs to).
    pub fn col_range(&self) -> Option<(usize, usize)> {
        let mut range: Option<(usize, usize)> = None;
        self.for_each_col(&mut |c| {
            range = Some(range.map_or((c, c), |(lo, hi)| (lo.min(c), hi.max(c))));
        });
        range
    }

    /// The largest column index referenced, if any (used to validate plans).
    pub fn max_col(&self) -> Option<usize> {
        self.col_range().map(|(_, hi)| hi)
    }

    /// Rewrite every column reference through `f` (used when an expression
    /// moves across a join side, a projection, or into a narrower batch).
    pub fn map_cols(&self, f: &impl Fn(usize) -> usize) -> Expr {
        self.try_map_cols(&|c| Some(f(c)))
            .expect("an infallible mapping cannot fail")
    }

    /// [`Expr::map_cols`] through a partial mapping: `None` as soon as `f`
    /// has no image for a referenced column.
    pub fn try_map_cols(&self, f: &impl Fn(usize) -> Option<usize>) -> Option<Expr> {
        let all =
            |ps: &[Expr]| -> Option<Vec<Expr>> { ps.iter().map(|p| p.try_map_cols(f)).collect() };
        Some(match self {
            Expr::Col(i) => Expr::Col(f(*i)?),
            Expr::Lit(_) | Expr::Param { .. } => self.clone(),
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(a.try_map_cols(f)?),
                Box::new(b.try_map_cols(f)?),
            ),
            Expr::And(ps) => Expr::And(all(ps)?),
            Expr::Or(ps) => Expr::Or(all(ps)?),
            Expr::Not(p) => Expr::Not(Box::new(p.try_map_cols(f)?)),
            Expr::IsNull(p) => Expr::IsNull(Box::new(p.try_map_cols(f)?)),
        })
    }

    /// This expression with every [`Expr::Param`] slot replaced by its
    /// value in `values` (a slot past the end stays unbound).
    pub fn bind_params(&self, values: &[Value]) -> Expr {
        let all = |ps: &[Expr]| ps.iter().map(|p| p.bind_params(values)).collect();
        match self {
            Expr::Param { slot, .. } => match values.get(*slot) {
                Some(v) => Expr::Lit(v.clone()),
                None => self.clone(),
            },
            Expr::Col(_) | Expr::Lit(_) => self.clone(),
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(a.bind_params(values)),
                Box::new(b.bind_params(values)),
            ),
            Expr::And(ps) => Expr::And(all(ps)),
            Expr::Or(ps) => Expr::Or(all(ps)),
            Expr::Not(p) => Expr::Not(Box::new(p.bind_params(values))),
            Expr::IsNull(p) => Expr::IsNull(Box::new(p.bind_params(values))),
        }
    }

    /// Shift every column reference by `delta` (used when an expression moves
    /// to the right side of a join output).
    pub fn shift_cols(&self, delta: usize) -> Expr {
        self.map_cols(&|c| c + delta)
    }

    /// If this predicate (possibly a conjunction) pins a set of columns to
    /// literal values, return the `(column, value)` pairs. Used for index
    /// pushdown.
    pub fn equality_bindings(&self) -> Vec<(usize, Value)> {
        let mut out = Vec::new();
        self.collect_equalities(&mut out);
        out
    }

    fn collect_equalities(&self, out: &mut Vec<(usize, Value)>) {
        match self {
            Expr::Bin(BinOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(i)) => {
                    out.push((*i, v.clone()));
                }
                _ => {}
            },
            Expr::And(ps) => {
                for p in ps {
                    p.collect_equalities(out);
                }
            }
            _ => {}
        }
    }
}

/// Evaluate a binary operator over two values (shared with the batch
/// executor's generic column path).
pub(crate) fn eval_bin(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Eq => Ok(Value::Bool(a == b)),
        Ne => Ok(Value::Bool(a != b)),
        Lt => Ok(Value::Bool(a < b)),
        Le => Ok(Value::Bool(a <= b)),
        Gt => Ok(Value::Bool(a > b)),
        Ge => Ok(Value::Bool(a >= b)),
        Add | Sub | Mul => {
            if a.is_null() || b.is_null() {
                return Ok(Value::Null);
            }
            match (a, b) {
                (Value::Int(x), Value::Int(y)) => Ok(Value::Int(match op {
                    Add => x.wrapping_add(*y),
                    Sub => x.wrapping_sub(*y),
                    Mul => x.wrapping_mul(*y),
                    _ => unreachable!(),
                })),
                _ => {
                    let (x, y) = (
                        a.as_float().ok_or_else(|| non_numeric(a))?,
                        b.as_float().ok_or_else(|| non_numeric(b))?,
                    );
                    Ok(Value::Float(match op {
                        Add => x + y,
                        Sub => x - y,
                        Mul => x * y,
                        _ => unreachable!(),
                    }))
                }
            }
        }
    }
}

/// The error for evaluating a plan template before binding it.
pub(crate) fn unbound(slot: usize) -> Error {
    Error::Storage(format!("parameter ?{slot} is unbound"))
}

fn non_numeric(v: &Value) -> Error {
    Error::Storage(format!("arithmetic on non-numeric value {v}"))
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "c{i}"),
            Expr::Lit(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Bin(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::And(ps) => {
                if ps.is_empty() {
                    return write!(f, "TRUE");
                }
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Expr::Or(ps) => {
                if ps.is_empty() {
                    return write!(f, "FALSE");
                }
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Expr::Not(p) => write!(f, "NOT {p}"),
            Expr::IsNull(p) => write!(f, "{p} IS NULL"),
            Expr::Param { slot, .. } => write!(f, "?{slot}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql_common::tup;

    #[test]
    fn comparisons() {
        let t = tup![5, "abc"];
        assert_eq!(
            Expr::col(0).eq(Expr::lit(5)).eval(&t).unwrap(),
            Value::Bool(true)
        );
        assert!(Expr::cmp(BinOp::Lt, Expr::col(0), Expr::lit(10))
            .eval_bool(&t)
            .unwrap());
        assert!(Expr::cmp(BinOp::Ge, Expr::col(1), Expr::lit("abc"))
            .eval_bool(&t)
            .unwrap());
    }

    #[test]
    fn arithmetic() {
        let t = tup![5, 2.5];
        assert_eq!(
            Expr::cmp(BinOp::Add, Expr::col(0), Expr::lit(3))
                .eval(&t)
                .unwrap(),
            Value::Int(8)
        );
        assert_eq!(
            Expr::cmp(BinOp::Mul, Expr::col(0), Expr::col(1))
                .eval(&t)
                .unwrap(),
            Value::Float(12.5)
        );
        assert!(Expr::cmp(BinOp::Add, Expr::col(0), Expr::lit("x"))
            .eval(&t)
            .is_err());
    }

    #[test]
    fn arithmetic_with_null_is_null() {
        let t = proql_common::Tuple::new(vec![Value::Null, Value::Int(1)]);
        assert_eq!(
            Expr::cmp(BinOp::Add, Expr::col(0), Expr::col(1))
                .eval(&t)
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn boolean_connectives_short_circuit() {
        let t = tup![1];
        let tru = Expr::lit(true);
        let fls = Expr::lit(false);
        assert!(Expr::And(vec![tru.clone(), tru.clone()])
            .eval_bool(&t)
            .unwrap());
        assert!(!Expr::And(vec![tru.clone(), fls.clone()])
            .eval_bool(&t)
            .unwrap());
        assert!(Expr::Or(vec![fls.clone(), tru.clone()])
            .eval_bool(&t)
            .unwrap());
        assert!(!Expr::Or(vec![]).eval_bool(&t).unwrap());
        assert!(Expr::And(vec![]).eval_bool(&t).unwrap());
        assert!(Expr::Not(Box::new(fls)).eval_bool(&t).unwrap());
    }

    #[test]
    fn null_predicate_is_false() {
        let t = proql_common::Tuple::new(vec![Value::Null]);
        // c0 = 1 where c0 is NULL: our Eq is total so NULL = 1 is plain false.
        assert!(!Expr::col(0).eq(Expr::lit(1)).eval_bool(&t).unwrap());
        assert!(Expr::IsNull(Box::new(Expr::col(0))).eval_bool(&t).unwrap());
    }

    #[test]
    fn out_of_range_column_errors() {
        assert!(Expr::col(3).eval(&tup![1]).is_err());
    }

    #[test]
    fn shift_and_max_col() {
        let e = Expr::And(vec![
            Expr::col(1).eq(Expr::lit(1)),
            Expr::cmp(BinOp::Lt, Expr::col(4), Expr::col(0)),
        ]);
        assert_eq!(e.max_col(), Some(4));
        assert_eq!(e.col_range(), Some((0, 4)));
        assert_eq!(e.shift_cols(2).col_range(), Some((2, 6)));
        assert_eq!(Expr::lit(1).col_range(), None);
        assert_eq!(e.try_map_cols(&|c| (c != 4).then_some(c)), None);
        assert_eq!(e.try_map_cols(&|c| Some(c + 2)), Some(e.shift_cols(2)));
        let mut seen = Vec::new();
        e.for_each_col(&mut |c| seen.push(c));
        assert_eq!(seen, vec![1, 4, 0]);
    }

    #[test]
    fn equality_bindings_found_through_and() {
        let e = Expr::And(vec![
            Expr::col(2).eq(Expr::lit(7)),
            Expr::lit("x").eq(Expr::col(0)),
            Expr::cmp(BinOp::Lt, Expr::col(1), Expr::lit(3)),
        ]);
        let mut b = e.equality_bindings();
        b.sort_by_key(|(i, _)| *i);
        assert_eq!(b, vec![(0, Value::str("x")), (2, Value::Int(7))]);
    }

    #[test]
    fn and_flattens() {
        let e = Expr::and(vec![
            Expr::And(vec![Expr::lit(true), Expr::lit(true)]),
            Expr::lit(false),
        ]);
        match e {
            Expr::And(ps) => assert_eq!(ps.len(), 3),
            _ => panic!("expected And"),
        }
    }

    #[test]
    fn params_bind_to_literals_and_fail_unbound() {
        let e = Expr::And(vec![
            Expr::cmp(
                BinOp::Ge,
                Expr::col(0),
                Expr::Param {
                    slot: 1,
                    sel_log2: -2,
                },
            ),
            Expr::Not(Box::new(Expr::col(0).eq(Expr::Param {
                slot: 0,
                sel_log2: 0,
            }))),
        ]);
        assert_eq!(e.to_string(), "((c0 >= ?1) AND NOT (c0 = ?0))");
        assert!(e.eval_bool(&tup![5]).is_err());
        let bound = e.bind_params(&[Value::Int(5), Value::Int(3)]);
        assert_eq!(bound.to_string(), "((c0 >= 3) AND NOT (c0 = 5))");
        assert!(!bound.eval_bool(&tup![5]).unwrap());
        assert!(bound.eval_bool(&tup![4]).unwrap());
    }

    #[test]
    fn display_renders_sqlish() {
        let e = Expr::col(0).eq(Expr::lit("a"));
        assert_eq!(e.to_string(), "(c0 = 'a')");
    }
}
