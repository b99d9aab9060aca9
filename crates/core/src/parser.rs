//! ProQL parser (recursive descent over the token stream).

use crate::ast::*;
use crate::lexer::{lex, Tok};
use proql_common::{Error, Result, Value};
use proql_semiring::{SecurityLevel, SemiringKind};

/// A parsed CASE ladder: the cases plus the optional DEFAULT.
type CaseBlock = (Vec<(Condition, SetValue)>, Option<SetValue>);

/// Deepest `NOT` / `(` nesting a condition may have. The parser, and
/// every consumer of the parsed condition (lowering, evaluation, drop),
/// recurses once per level, so the bound keeps a hostile query from
/// overflowing a worker thread's stack. Real conditions nest a handful
/// of levels.
const MAX_CONDITION_DEPTH: usize = 256;

/// Parse a full ProQL query.
pub fn parse_query(src: &str) -> Result<Query> {
    let toks = lex(src)?;
    let mut p = P {
        toks,
        pos: 0,
        depth: 0,
    };
    let q = p.query()?;
    if !p.at_end() {
        return Err(p.err("trailing input after query"));
    }
    validate(&q)?;
    Ok(q)
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
    /// Current `NOT` / `(` nesting inside a condition.
    depth: usize,
}

impl P {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: &str) -> Error {
        Error::Parse(format!("{msg} (at token {} = {:?})", self.pos, self.peek()))
    }

    fn eat_tok(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, t: &Tok) -> Result<()> {
        if self.eat_tok(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {t:?}")))
        }
    }

    /// Case-insensitive keyword.
    fn eat_kw(&mut self, kw: &str) -> bool {
        match self.peek() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                true
            }
            _ => false,
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected keyword {kw}")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn var(&mut self) -> Result<String> {
        match self.bump() {
            Some(Tok::Var(v)) => Ok(v),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected $variable"))
            }
        }
    }

    fn query(&mut self) -> Result<Query> {
        let explain = self.eat_kw("EXPLAIN");
        let analyze = explain && self.eat_kw("ANALYZE");
        let mut q = self.query_body()?;
        q.explain = explain;
        q.analyze = analyze;
        Ok(q)
    }

    fn query_body(&mut self) -> Result<Query> {
        if self.eat_kw("EVALUATE") {
            let name = self.ident()?;
            let semiring = SemiringKind::parse(&name)
                .ok_or_else(|| Error::Parse(format!("unknown semiring {name}")))?;
            self.expect_kw("OF")?;
            self.expect_tok(&Tok::LBrace)?;
            let projection = self.projection()?;
            self.expect_tok(&Tok::RBrace)?;
            let mut leaf_assign = None;
            let mut map_assign = None;
            while self.eat_kw("ASSIGNING") {
                self.expect_kw("EACH")?;
                if self.eat_kw("leaf_node") {
                    if leaf_assign.is_some() {
                        return Err(self.err("duplicate leaf_node assignment"));
                    }
                    leaf_assign = Some(self.leaf_assign()?);
                } else if self.eat_kw("mapping") {
                    if map_assign.is_some() {
                        return Err(self.err("duplicate mapping assignment"));
                    }
                    map_assign = Some(self.map_assign()?);
                } else {
                    return Err(self.err("expected `leaf_node` or `mapping`"));
                }
            }
            Ok(Query {
                explain: false,
                analyze: false,
                evaluate: Some(Evaluate {
                    semiring,
                    leaf_assign,
                    map_assign,
                }),
                projection,
            })
        } else {
            Ok(Query {
                explain: false,
                analyze: false,
                evaluate: None,
                projection: self.projection()?,
            })
        }
    }

    fn projection(&mut self) -> Result<Projection> {
        self.expect_kw("FOR")?;
        let mut for_paths = vec![self.path_expr()?];
        while self.eat_tok(&Tok::Comma) {
            for_paths.push(self.path_expr()?);
        }
        // WHERE and INCLUDE PATH may appear in either order.
        let mut where_cond = None;
        let mut include_paths = Vec::new();
        loop {
            if self.eat_kw("WHERE") {
                if where_cond.replace(self.condition()?).is_some() {
                    return Err(self.err("duplicate WHERE clause"));
                }
            } else if self.eat_kw("INCLUDE") {
                self.expect_kw("PATH")?;
                if !include_paths.is_empty() {
                    return Err(self.err("duplicate INCLUDE PATH clause"));
                }
                include_paths.push(self.path_expr()?);
                while self.eat_tok(&Tok::Comma) {
                    include_paths.push(self.path_expr()?);
                }
            } else {
                break;
            }
        }
        self.expect_kw("RETURN")?;
        let mut return_vars = vec![self.var()?];
        while self.eat_tok(&Tok::Comma) {
            return_vars.push(self.var()?);
        }
        Ok(Projection {
            for_paths,
            where_cond,
            include_paths,
            return_vars,
        })
    }

    fn path_expr(&mut self) -> Result<PathExpr> {
        let start = self.node_pattern()?;
        let mut steps = Vec::new();
        loop {
            let step = match self.peek() {
                Some(Tok::ArrowPlus) => {
                    self.pos += 1;
                    StepPattern::Plus
                }
                Some(Tok::Arrow) => {
                    self.pos += 1;
                    StepPattern::Single(DerivPattern::default())
                }
                Some(Tok::Lt) => {
                    self.pos += 1;
                    match self.bump() {
                        Some(Tok::Ident(m)) => StepPattern::Single(DerivPattern {
                            mapping: Some(m),
                            var: None,
                        }),
                        Some(Tok::Var(v)) => StepPattern::Single(DerivPattern {
                            mapping: None,
                            var: Some(v),
                        }),
                        _ => return Err(self.err("expected mapping name or $var after `<`")),
                    }
                }
                _ => break,
            };
            let node = self.node_pattern()?;
            steps.push((step, node));
        }
        Ok(PathExpr { start, steps })
    }

    fn node_pattern(&mut self) -> Result<NodePattern> {
        self.expect_tok(&Tok::LBracket)?;
        let mut pat = NodePattern::default();
        match self.peek() {
            Some(Tok::Ident(_)) => {
                pat.relation = Some(self.ident()?);
                if let Some(Tok::Var(_)) = self.peek() {
                    pat.var = Some(self.var()?);
                }
            }
            Some(Tok::Var(_)) => {
                pat.var = Some(self.var()?);
            }
            _ => {}
        }
        self.expect_tok(&Tok::RBracket)?;
        Ok(pat)
    }

    /// condition := disjunct (OR disjunct)*
    fn condition(&mut self) -> Result<Condition> {
        let mut parts = vec![self.conjunction()?];
        while self.eat_kw("OR") {
            parts.push(self.conjunction()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Condition::Or(parts)
        })
    }

    fn conjunction(&mut self) -> Result<Condition> {
        let mut parts = vec![self.atom_condition()?];
        while self.eat_kw("AND") {
            parts.push(self.atom_condition()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Condition::And(parts)
        })
    }

    fn atom_condition(&mut self) -> Result<Condition> {
        if self.eat_kw("NOT") {
            let inner = self.nested(Self::atom_condition)?;
            return Ok(Condition::Not(Box::new(inner)));
        }
        if self.eat_tok(&Tok::LParen) {
            let c = self.nested(Self::condition)?;
            self.expect_tok(&Tok::RParen)?;
            return Ok(c);
        }
        let var = self.var()?;
        match self.peek() {
            Some(Tok::Dot) => {
                self.pos += 1;
                let attr = self.ident()?;
                let op = self.cmp_op()?;
                let value = self.literal()?;
                Ok(Condition::AttrCmp {
                    var,
                    attr,
                    op,
                    value,
                })
            }
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("in") => {
                self.pos += 1;
                let relation = self.ident()?;
                Ok(Condition::InRelation { var, relation })
            }
            Some(Tok::Eq) => {
                self.pos += 1;
                let mapping = self.ident()?;
                Ok(Condition::MappingIs {
                    var,
                    mapping,
                    positive: true,
                })
            }
            Some(Tok::Ne) => {
                self.pos += 1;
                let mapping = self.ident()?;
                Ok(Condition::MappingIs {
                    var,
                    mapping,
                    positive: false,
                })
            }
            _ => Err(self.err("expected `.attr`, `in`, `=`, or `<>` after variable")),
        }
    }

    /// Parse one `NOT` / `(` level deeper with `f`, refusing to go past
    /// `MAX_CONDITION_DEPTH`.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Condition>) -> Result<Condition> {
        if self.depth == MAX_CONDITION_DEPTH {
            return Err(self.err(&format!(
                "condition nested deeper than {MAX_CONDITION_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        let op = match self.peek() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            _ => return Err(self.err("expected comparison operator")),
        };
        self.pos += 1;
        Ok(op)
    }

    fn literal(&mut self) -> Result<Value> {
        match self.bump() {
            Some(Tok::Int(i)) => Ok(Value::Int(i)),
            Some(Tok::Float(f)) => Ok(Value::Float(f)),
            Some(Tok::Str(s)) => Ok(Value::str(s)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected literal"))
            }
        }
    }

    fn leaf_assign(&mut self) -> Result<LeafAssign> {
        let var = self.var()?;
        self.expect_tok(&Tok::LBrace)?;
        let (cases, default) = self.case_block()?;
        Ok(LeafAssign {
            var,
            cases,
            default,
        })
    }

    fn map_assign(&mut self) -> Result<MapAssign> {
        let pvar = self.var()?;
        self.expect_tok(&Tok::LParen)?;
        let zvar = self.var()?;
        self.expect_tok(&Tok::RParen)?;
        self.expect_tok(&Tok::LBrace)?;
        let (cases, default) = self.case_block()?;
        Ok(MapAssign {
            pvar,
            zvar,
            cases,
            default,
        })
    }

    fn case_block(&mut self) -> Result<CaseBlock> {
        let mut cases = Vec::new();
        let mut default = None;
        loop {
            if self.eat_kw("CASE") {
                let cond = self.condition()?;
                self.expect_tok(&Tok::Colon)?;
                self.expect_kw("SET")?;
                cases.push((cond, self.set_value()?));
            } else if self.eat_kw("DEFAULT") {
                self.expect_tok(&Tok::Colon)?;
                self.expect_kw("SET")?;
                if default.replace(self.set_value()?).is_some() {
                    return Err(self.err("duplicate DEFAULT"));
                }
            } else if self.eat_tok(&Tok::RBrace) {
                return Ok((cases, default));
            } else {
                return Err(self.err("expected CASE, DEFAULT, or `}`"));
            }
        }
    }

    fn set_value(&mut self) -> Result<SetValue> {
        match self.peek() {
            Some(Tok::Var(_)) => {
                self.var()?;
                if self.eat_tok(&Tok::PlusSign) {
                    let v = self.number()?;
                    Ok(SetValue::InputPlus(v))
                } else if self.eat_tok(&Tok::Star) {
                    let v = self.number()?;
                    Ok(SetValue::InputTimes(v))
                } else {
                    Ok(SetValue::Input)
                }
            }
            Some(Tok::Ident(s)) if SecurityLevel::parse(s).is_some() => {
                let lvl = s.clone();
                self.pos += 1;
                Ok(SetValue::Lit(Value::str(lvl)))
            }
            _ => Ok(SetValue::Lit(self.literal()?)),
        }
    }

    fn number(&mut self) -> Result<f64> {
        match self.bump() {
            Some(Tok::Int(i)) => Ok(i as f64),
            Some(Tok::Float(f)) => Ok(f),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected number"))
            }
        }
    }
}

/// Static validation: RETURN variables must be bound by FOR paths.
fn validate(q: &Query) -> Result<()> {
    let mut bound: Vec<&str> = Vec::new();
    for p in &q.projection.for_paths {
        if let Some(v) = &p.start.var {
            bound.push(v);
        }
        for (step, node) in &p.steps {
            if let StepPattern::Single(d) = step {
                if let Some(v) = &d.var {
                    bound.push(v);
                }
            }
            if let Some(v) = &node.var {
                bound.push(v);
            }
        }
    }
    for rv in &q.projection.return_vars {
        if !bound.contains(&rv.as_str()) {
            return Err(Error::Query(format!(
                "RETURN variable ${rv} is not bound in the FOR clause"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q1() {
        let q = parse_query("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x").unwrap();
        assert!(q.evaluate.is_none());
        assert_eq!(q.projection.for_paths.len(), 1);
        assert_eq!(
            q.projection.for_paths[0].start.relation.as_deref(),
            Some("O")
        );
        assert_eq!(q.projection.include_paths.len(), 1);
        assert_eq!(q.projection.return_vars, vec!["x"]);
        assert!(matches!(
            q.projection.include_paths[0].steps[0].0,
            StepPattern::Plus
        ));
    }

    #[test]
    fn parses_q2_with_endpoint_relation() {
        let q = parse_query("FOR [O $x] <-+ [A $y] INCLUDE PATH [$x] <-+ [$y] RETURN $x").unwrap();
        let path = &q.projection.for_paths[0];
        assert_eq!(path.steps.len(), 1);
        assert_eq!(path.steps[0].1.relation.as_deref(), Some("A"));
        assert_eq!(path.steps[0].1.var.as_deref(), Some("y"));
    }

    #[test]
    fn parses_q3_with_mapping_vars_and_where() {
        let q = parse_query(
            "FOR [$x] <$p [], [$y] <- [$x]
             WHERE $p = m1 OR $p = m2
             INCLUDE PATH [$y] <- [$x]
             RETURN $y",
        )
        .unwrap();
        assert_eq!(q.projection.for_paths.len(), 2);
        match q.projection.where_cond.as_ref().unwrap() {
            Condition::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn parses_q4_common_provenance() {
        let q = parse_query(
            "FOR [O $x] <-+ [$z], [C $y] <-+ [$z]
             INCLUDE PATH [$x] <-+ [], [$y] <-+ []
             RETURN $x, $y",
        )
        .unwrap();
        assert_eq!(q.projection.return_vars, vec!["x", "y"]);
        assert_eq!(q.projection.include_paths.len(), 2);
    }

    #[test]
    fn parses_q7_trust_evaluation() {
        let q = parse_query(
            "EVALUATE TRUST OF {
               FOR [O $x]
               INCLUDE PATH [$x] <-+ []
               RETURN $x
             } ASSIGNING EACH leaf_node $y {
               CASE $y in C : SET true
               CASE $y in A AND $y.height >= 6 : SET false
               DEFAULT : SET true
             } ASSIGNING EACH mapping $p($z) {
               CASE $p = m4 : SET false
               DEFAULT : SET $z
             }",
        )
        .unwrap();
        let ev = q.evaluate.unwrap();
        assert_eq!(ev.semiring, SemiringKind::Trust);
        let leaf = ev.leaf_assign.unwrap();
        assert_eq!(leaf.cases.len(), 2);
        assert_eq!(leaf.default, Some(SetValue::Lit(Value::Bool(true))));
        let map = ev.map_assign.unwrap();
        assert_eq!(map.pvar, "p");
        assert_eq!(map.zvar, "z");
        assert_eq!(map.default, Some(SetValue::Input));
        assert_eq!(map.cases[0].1, SetValue::Lit(Value::Bool(false)));
    }

    #[test]
    fn parses_weight_offsets() {
        let q = parse_query(
            "EVALUATE WEIGHT OF {
               FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
             } ASSIGNING EACH mapping $p($z) {
               CASE $p = m5 : SET $z + 2.5
               DEFAULT : SET $z
             }",
        )
        .unwrap();
        let map = q.evaluate.unwrap().map_assign.unwrap();
        assert_eq!(map.cases[0].1, SetValue::InputPlus(2.5));
    }

    #[test]
    fn parses_named_mapping_step() {
        let q = parse_query("FOR [O $x] <m5 [C $y] RETURN $x").unwrap();
        match &q.projection.for_paths[0].steps[0].0 {
            StepPattern::Single(d) => assert_eq!(d.mapping.as_deref(), Some("m5")),
            other => panic!("expected single step, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unbound_return_var() {
        assert!(parse_query("FOR [O $x] RETURN $zzz").is_err());
    }

    #[test]
    fn rejects_unknown_semiring() {
        assert!(parse_query("EVALUATE KARMA OF { FOR [O $x] RETURN $x }").is_err());
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse_query("FOR [O $x] RETURN $x garbage!").is_err());
    }

    #[test]
    fn where_in_relation_condition() {
        let q = parse_query("FOR [$x] <- [] WHERE $x in O RETURN $x").unwrap();
        match q.projection.where_cond.unwrap() {
            Condition::InRelation { var, relation } => {
                assert_eq!(var, "x");
                assert_eq!(relation, "O");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn security_level_set_values_parse() {
        let q = parse_query(
            "EVALUATE CONFIDENTIALITY OF {
               FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
             } ASSIGNING EACH leaf_node $y {
               CASE $y in A : SET secret
               DEFAULT : SET public
             }",
        )
        .unwrap();
        let leaf = q.evaluate.unwrap().leaf_assign.unwrap();
        assert_eq!(leaf.cases[0].1, SetValue::Lit(Value::str("secret")));
    }

    /// `FOR [O $x] WHERE` + `n` copies of `open` before one comparison
    /// and of `close` after it.
    fn nested_where(n: usize, open: &str, close: &str) -> String {
        let (open, close) = (open.repeat(n), close.repeat(n));
        format!("FOR [O $x] WHERE {open}$x.k < 1{close} RETURN $x")
    }

    /// The three nestings: `NOT`, parentheses, and both (two levels per
    /// copy, sharing one budget), each as (open, close, levels per copy).
    const NESTINGS: [(&str, &str, usize); 3] = [("NOT ", "", 1), ("(", ")", 1), ("NOT (", ")", 2)];

    #[test]
    fn condition_nesting_at_the_limit_parses() {
        for (open, close, per) in NESTINGS {
            let q = parse_query(&nested_where(MAX_CONDITION_DEPTH / per, open, close));
            assert!(q.is_ok(), "{open:?}: {q:?}");
        }
        let q = parse_query(&nested_where(MAX_CONDITION_DEPTH, "NOT ", "")).unwrap();
        let mut c = q.projection.where_cond.as_ref().unwrap();
        let mut depth = 0;
        while let Condition::Not(inner) = c {
            depth += 1;
            c = inner;
        }
        assert_eq!(depth, MAX_CONDITION_DEPTH);
    }

    #[test]
    fn condition_nesting_past_the_limit_is_a_parse_error() {
        for (open, close, per) in NESTINGS {
            for n in [MAX_CONDITION_DEPTH / per + 1, 20_000] {
                match parse_query(&nested_where(n, open, close)) {
                    Err(Error::Parse(msg)) => assert!(msg.contains("nested"), "{msg}"),
                    other => panic!("{n} x {open:?}: {other:?}"),
                }
            }
        }
    }
}
