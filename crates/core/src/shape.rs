//! Prepare once per query shape, bind `WHERE` literals per request.
//!
//! A query's **shape** is the query with every `$x.attr op literal`
//! comparison's literal lifted out ([`lift_literals`]). Translation
//! (paper §4.2) depends on the shape alone up to its last step: matching
//! and unfolding the path patterns into alternatives reads the patterns,
//! the relation constraints and the system, never a literal. Only then
//! does `WHERE` apply, and comparisons against constant terms are decided
//! statically, dropping the alternatives they make false. So preparation
//! splits in three:
//!
//! 1. [`Engine::prepare_shape`] unfolds once per shape ([`PreparedShape`]).
//! 2. [`Engine::bind_shape`] applies one request's `WHERE` to the shared
//!    alternatives: the [`Translation`] it yields *equals*
//!    [`crate::translate::translate`] of the literal text, static
//!    decisions included. It also yields the request's **plan key**: which
//!    alternatives survived, their conditions with each literal replaced
//!    by its slot, and per slot the literal's type and the log₂ bucket of
//!    its selectivity ([`selectivity_bucket`]) on the column it compares.
//! 3. [`Engine::plan_template`] optimizes the surviving rules once per plan
//!    key, with every literal an [`Expr::Param`] slot estimated from its
//!    bucket ([`PlanTemplate`]); [`Engine::bind_plans`] clones the plans
//!    and substitutes the request's literals, so executors, zone maps and
//!    dictionary lookups see literals exactly as in a literal prepare.
//!
//! Different static outcomes give different plan keys, so a template never
//! serves a request whose alternatives differ from its own. Plans only
//! ever change cost, never answers.
//!
//! [`Expr::Param`]: proql_storage::Expr::Param

use crate::ast::{CmpOp, Condition, Query};
use crate::engine::{read_set, Engine, PreparedQuery, PreparedUnfold, Strategy};
use crate::exec::{compile_rule, graph_pattern, PreparedRule};
use crate::translate::{expand, Expansion, Translation, VarCond};
use proql_common::{trace, Error, Result, Value, ValueType};
use proql_storage::optimize::{bind_params, selectivity_bucket};
use proql_storage::OptimizerConfig;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// Split `query` into its shape and its literals: the shape key is the
/// query with each `WHERE` comparison's literal blanked, and the literals
/// come in slot order, the order [`mod@crate::translate`] numbers them in.
pub fn lift_literals(query: &Query) -> (String, Vec<Value>) {
    let mut shape = query.clone();
    let mut literals = Vec::new();
    if let Some(cond) = &mut shape.projection.where_cond {
        for_each_literal(cond, &mut |value| {
            literals.push(std::mem::replace(value, Value::Null));
        });
    }
    (format!("{shape:?}"), literals)
}

/// Visit the literal of every `$x.attr op literal` comparison, in reading
/// order.
fn for_each_literal(cond: &mut Condition, f: &mut impl FnMut(&mut Value)) {
    match cond {
        Condition::And(parts) | Condition::Or(parts) => {
            parts.iter_mut().for_each(|p| for_each_literal(p, f));
        }
        Condition::Not(inner) => for_each_literal(inner, f),
        Condition::AttrCmp { value, .. } => f(value),
        Condition::InRelation { .. } | Condition::MappingIs { .. } => {}
    }
}

/// One literal slot of a shape: the comparison it sits in and the column
/// its selectivity is read from.
#[derive(Debug)]
struct Slot {
    op: CmpOp,
    /// The compared attribute in the first alternative binding its
    /// variable: `(relation, position)`. `None` when no alternative binds
    /// it (binding then fails with the translator's own error).
    column: Option<(String, usize)>,
}

/// The literal-free part of preparing a query, shared by every query of
/// one shape. Cached by the query service next to the plan templates of
/// its plan keys.
#[derive(Debug)]
pub struct PreparedShape {
    strategy: Strategy,
    /// The unfolded alternatives (unfold strategy only).
    expansion: Option<Expansion>,
    slots: Vec<Slot>,
    /// What every query of this shape may read: each alternative's
    /// relations and mappings (expanded like [`PreparedQuery::touched`]),
    /// or the graph walk's backward closure. A bound query reads a subset.
    pub touched: BTreeSet<String>,
    /// [`proql_provgraph::ProvenanceSystem::version`] at prepare time.
    pub stats_version: u64,
    /// Bucketed statistics fingerprint over [`Self::touched`]: while it
    /// holds, so does the expansion (a row in a relation unfolding pruned
    /// on as empty moves it) and every plan template built under it.
    pub stats_fingerprint: u64,
}

/// One request bound to its shape's alternatives: the request's
/// translation and its plan key.
#[derive(Debug)]
pub struct BoundShape {
    query: Query,
    literals: Vec<Value>,
    /// The request's translation (unfold strategy only).
    unfold: Option<Translation>,
    buckets: Vec<i8>,
    /// Which plan template serves this request, within its shape.
    pub plan_key: String,
    started: Instant,
}

impl BoundShape {
    /// The request's translation: equal to
    /// [`crate::translate::translate`] of its literal text. `None` under
    /// the graph strategy.
    pub fn translation(&self) -> Option<&Translation> {
        self.unfold.as_ref()
    }
}

/// Optimized plans for one plan key of a shape, with `WHERE` literals as
/// slots, plus what every request under the key shares: its read set and
/// the statistics the plans were chosen on.
#[derive(Debug)]
pub struct PlanTemplate {
    rules: Vec<PreparedRule>,
    touched: BTreeSet<String>,
    stats_version: u64,
    stats_fingerprint: u64,
}

impl Engine {
    /// Prepare the literal-free part of `query`: resolve the strategy and,
    /// under unfolding, expand its path patterns into alternatives. The
    /// graph walk's read set is literal-free as it is.
    pub fn prepare_shape(&self, query: &Query) -> Result<PreparedShape> {
        let mut sp = trace::span("prepare");
        let strategy = self.resolved_strategy();
        let (expansion, touched) = match strategy {
            Strategy::Unfold => {
                let expansion = expand(&self.sys, query, &self.options.translate)?;
                let (relations, mappings) = expansion.reads(self.rewriter())?;
                let touched = read_set(&self.sys, relations.iter().map(String::as_str), mappings);
                (Some(expansion), touched)
            }
            Strategy::Graph | Strategy::Auto => {
                let (start, _, _) = graph_pattern(query)?;
                let (relations, mappings) = self.sys.schema_graph().backward_closure(&start);
                (None, read_set(&self.sys, relations, mappings))
            }
        };
        if sp.id().is_some() {
            sp.field("strategy", format!("{strategy:?}"));
        }
        let mut slots = Vec::new();
        if let Some(cond) = &query.projection.where_cond {
            collect_slots(
                cond,
                &mut |var, attr, op| Slot {
                    op,
                    column: expansion
                        .as_ref()
                        .and_then(|e| e.node_column(&self.sys, var, attr)),
                },
                &mut slots,
            );
        }
        Ok(PreparedShape {
            strategy,
            expansion,
            slots,
            stats_version: self.sys.version(),
            stats_fingerprint: self.stats_fingerprint(&touched),
            touched,
        })
    }

    /// Bind `query` (of `shape`'s shape, with `literals` from
    /// [`lift_literals`]) to the shape's alternatives: apply its `WHERE`
    /// clause and derive its plan key.
    pub fn bind_shape(
        &self,
        shape: &PreparedShape,
        query: Query,
        literals: Vec<Value>,
    ) -> Result<BoundShape> {
        let started = Instant::now();
        if literals.len() != shape.slots.len() {
            return Err(Error::Query(format!(
                "{} literals for a shape with {} slots",
                literals.len(),
                shape.slots.len()
            )));
        }
        let Some(expansion) = &shape.expansion else {
            return Ok(BoundShape {
                query,
                literals,
                unfold: None,
                buckets: Vec::new(),
                plan_key: String::new(),
                started,
            });
        };
        let (translation, kept) = expansion.bind(&self.sys, &query, self.rewriter())?;
        let mut plan_key = String::new();
        let mut used = vec![false; literals.len()];
        for (rule, alternative) in translation.rules.iter().zip(&kept) {
            let _ = write!(plan_key, "{alternative}:");
            if let Some(cond) = &rule.condition {
                skeleton(cond, &mut plan_key, &mut used);
            }
            plan_key.push(';');
        }
        let mut buckets = vec![0; literals.len()];
        for (i, value) in literals.iter().enumerate().filter(|&(i, _)| used[i]) {
            let slot = &shape.slots[i];
            let stats = slot.column.as_ref().and_then(|(rel, pos)| {
                self.sys
                    .db
                    .table(rel)
                    .ok()
                    .and_then(|t| t.stats().column(*pos))
            });
            buckets[i] = selectivity_bucket(stats, slot.op.to_binop(), value);
            let _ = write!(plan_key, "|{i}{}{}", type_tag(value), buckets[i]);
        }
        Ok(BoundShape {
            query,
            literals,
            unfold: Some(translation),
            buckets,
            plan_key,
            started,
        })
    }

    /// Optimize `bound`'s rules with its literals as slots: the template of
    /// its plan key.
    pub fn plan_template(&self, shape: &PreparedShape, bound: &BoundShape) -> Result<PlanTemplate> {
        let _sp = trace::span("prepare.plan");
        let Some(translation) = &bound.unfold else {
            return Ok(PlanTemplate {
                rules: Vec::new(),
                touched: shape.touched.clone(),
                stats_version: shape.stats_version,
                stats_fingerprint: shape.stats_fingerprint,
            });
        };
        let passes = OptimizerConfig::default();
        let rules = translation
            .rules
            .iter()
            .map(|r| compile_rule(&self.sys, r, &passes, Some(&bound.buckets)))
            .collect::<Result<_>>()?;
        let touched = translation.read_set(&self.sys);
        Ok(PlanTemplate {
            rules,
            stats_version: self.sys.version(),
            stats_fingerprint: self.stats_fingerprint(&touched),
            touched,
        })
    }

    /// The prepared query of `bound`: `template`'s plans with the request's
    /// literals substituted for their slots.
    pub fn bind_plans(
        &self,
        shape: &PreparedShape,
        bound: BoundShape,
        template: &PlanTemplate,
    ) -> PreparedQuery {
        let unfold = bound.unfold.map(|translation| PreparedUnfold {
            translation,
            rules: template
                .rules
                .iter()
                .map(|r| PreparedRule {
                    plan: bind_params(&r.plan, &bound.literals),
                    var_cols: r.var_cols.clone(),
                })
                .collect(),
        });
        PreparedQuery {
            // A tight copy: the parsed query keeps its parser's spare
            // capacity, and a cached answer keeps its prepared query alive.
            query: bound.query.clone(),
            strategy: shape.strategy,
            unfold,
            touched: template.touched.clone(),
            stats_version: template.stats_version,
            stats_fingerprint: template.stats_fingerprint,
            prepare_time: bound.started.elapsed(),
        }
    }
}

/// Build one [`Slot`] per `$x.attr op literal` comparison, in reading
/// order.
fn collect_slots(
    cond: &Condition,
    slot: &mut impl FnMut(&str, &str, CmpOp) -> Slot,
    out: &mut Vec<Slot>,
) {
    match cond {
        Condition::And(parts) | Condition::Or(parts) => {
            parts.iter().for_each(|p| collect_slots(p, slot, out));
        }
        Condition::Not(inner) => collect_slots(inner, slot, out),
        Condition::AttrCmp { var, attr, op, .. } => out.push(slot(var, attr, *op)),
        Condition::InRelation { .. } | Condition::MappingIs { .. } => {}
    }
}

/// Render a residual condition with each literal as its slot, marking the
/// slots it uses. Variables are not rendered: a slot's variable in an
/// alternative is fixed by the shape.
fn skeleton(cond: &VarCond, out: &mut String, used: &mut [bool]) {
    let list = |parts: &[VarCond], op: char, out: &mut String, used: &mut [bool]| {
        out.push(op);
        out.push('(');
        for p in parts {
            skeleton(p, out, used);
            out.push(',');
        }
        out.push(')');
    };
    match cond {
        VarCond::Lit(b) => out.push(if *b { 'T' } else { 'F' }),
        VarCond::Cmp { slot, .. } => {
            if let Some(u) = used.get_mut(*slot) {
                *u = true;
            }
            let _ = write!(out, "?{slot}");
        }
        VarCond::And(parts) => list(parts, '&', out, used),
        VarCond::Or(parts) => list(parts, '|', out, used),
        VarCond::Not(inner) => {
            out.push('!');
            skeleton(inner, out, used);
        }
    }
}

/// One letter per value type: `5` and `'5'` never share a plan key.
fn type_tag(v: &Value) -> char {
    match v.value_type() {
        ValueType::Int => 'i',
        ValueType::Float => 'f',
        ValueType::Str => 's',
        ValueType::Bool => 'b',
        ValueType::Null => 'n',
    }
}
