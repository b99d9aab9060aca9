//! Semi-naive bottom-up evaluation.
//!
//! This drives the paper's *data exchange* step (§2): materializing every
//! peer's public relations by running the schema mappings to fixpoint. A
//! [`FiringHook`] observes every rule firing with its full variable
//! bindings; `proql-provgraph` uses it to populate the provenance relations
//! (one row per derivation, §4.1).
//!
//! The engine uses delta-driven evaluation: each round runs every rule's
//! [`delta_variants`] on the batch executor — one body atom reading the
//! tuples newly derived in the previous round inline, the remaining atoms
//! scanning the full relations — so no scratch relation is ever created.
//! This can enumerate a firing more than once (set semantics make that
//! harmless), so **hooks must be idempotent** — the provenance hook is,
//! because provenance relations are keyed by their full column set.

use crate::ast::{Program, Rule, Term};
use crate::compile::delta_variants;
use proql_common::{Error, Result, Tuple, Value};
use proql_storage::{execute_batch, Database, Plan};
use std::collections::HashMap;

/// Variable bindings of one rule firing.
pub struct Bindings<'a> {
    row: &'a Tuple,
    var_cols: &'a HashMap<String, usize>,
}

impl<'a> Bindings<'a> {
    /// Value bound to `var`.
    pub fn get(&self, var: &str) -> Result<&'a Value> {
        let col = self
            .var_cols
            .get(var)
            .ok_or_else(|| Error::Datalog(format!("unbound variable {var}")))?;
        Ok(self.row.get(*col))
    }

    /// Resolve a term to a value under these bindings: constants pass
    /// through, variables look up, Skolem terms build a labeled null.
    pub fn resolve(&self, term: &Term) -> Result<Value> {
        match term {
            Term::Const(v) => Ok(v.clone()),
            Term::Var(v) => self.get(v).cloned(),
            Term::Skolem(name, args) => {
                let mut s = format!("⟨{name}(");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&self.resolve(a)?.to_string());
                }
                s.push_str(")⟩");
                Ok(Value::str(s))
            }
        }
    }

    /// Build the tuple an atom produces under these bindings.
    pub fn instantiate(&self, atom: &crate::ast::Atom) -> Result<Tuple> {
        let mut vals = Vec::with_capacity(atom.arity());
        for t in &atom.terms {
            vals.push(self.resolve(t)?);
        }
        Ok(Tuple::new(vals))
    }
}

/// Observer of rule firings during evaluation.
///
/// The hook receives mutable access to the database so it can record
/// side tables (this is how provenance relations are populated); it must
/// not modify the relations the program reads or writes.
pub trait FiringHook {
    /// Called once (or more — see module docs) per rule firing.
    /// `rule_index` is the rule's position in the program.
    fn on_firing(
        &mut self,
        db: &mut Database,
        rule_index: usize,
        rule: &Rule,
        bindings: &Bindings<'_>,
    ) -> Result<()>;
}

/// Hook that does nothing.
pub struct NoopHook;

impl FiringHook for NoopHook {
    fn on_firing(&mut self, _: &mut Database, _: usize, _: &Rule, _: &Bindings<'_>) -> Result<()> {
        Ok(())
    }
}

impl<F> FiringHook for F
where
    F: FnMut(&mut Database, usize, &Rule, &Bindings<'_>) -> Result<()>,
{
    fn on_firing(&mut self, db: &mut Database, i: usize, r: &Rule, b: &Bindings<'_>) -> Result<()> {
        self(db, i, r, b)
    }
}

/// Evaluation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Hook invocations (an upper bound on distinct firings).
    pub firings: usize,
    /// New tuples inserted into head relations.
    pub inserted: usize,
}

/// Hard cap on fixpoint rounds: Skolem functions can make the chase diverge
/// (standard data-exchange caveat); this converts divergence into an error.
const MAX_ROUNDS: usize = 10_000;

/// Run `program` to fixpoint over `db`.
///
/// Every relation named in a rule head must already exist as a base table;
/// body relations may be tables or views (views are treated as static —
/// their contents participate only in the bootstrap round).
pub fn run_program(
    db: &mut Database,
    program: &Program,
    hook: &mut dyn FiringHook,
) -> Result<EvalStats> {
    run_program_from(db, program, hook, None)
}

/// Run `program` **incrementally**: instead of bootstrapping the
/// semi-naive deltas with the full contents of every body relation, seed
/// them with only the given rows (keyed by relation; rows for relations no
/// rule reads are ignored).
///
/// Sound exactly when `db` is already at the program's fixpoint modulo the
/// seed rows: monotone rules mean any new firing must involve at least one
/// seeded (or subsequently derived) fact, which is precisely what the
/// delta joins enumerate. The cost of re-exchanging a point write then
/// scales with what the write derives, not with the database.
///
/// **Seeds model additions only.** If rows were *removed* from a relation
/// some rule body reads, the fixpoint precondition is violated in a way no
/// seeded run can repair: a derived tuple whose only remaining support
/// involved a removed row silently survives (derived-tuple
/// under-counting — set semantics keep no support counts to decrement).
/// Retractions therefore go through CDSS deletion (`proql-cdss`), which
/// garbage-collects underivable tuples through the provenance graph
/// before re-asserting the fixpoint.
pub fn run_program_seeded(
    db: &mut Database,
    program: &Program,
    hook: &mut dyn FiringHook,
    seeds: HashMap<String, Vec<Tuple>>,
) -> Result<EvalStats> {
    run_program_from(db, program, hook, Some(seeds))
}

fn run_program_from(
    db: &mut Database,
    program: &Program,
    hook: &mut dyn FiringHook,
    seeds: Option<HashMap<String, Vec<Tuple>>>,
) -> Result<EvalStats> {
    program.check_safety()?;
    for rule in &program.rules {
        for h in &rule.heads {
            if !db.has_table(&h.relation) {
                return Err(Error::Datalog(format!(
                    "head relation {} is not a base table",
                    h.relation
                )));
            }
        }
        for b in &rule.body {
            if !db.has_relation(&b.relation) {
                return Err(Error::NotFound(format!("body relation {}", b.relation)));
            }
        }
    }

    // Relations appearing in bodies.
    let mut body_rels: Vec<String> = Vec::new();
    for rule in &program.rules {
        for b in &rule.body {
            if !body_rels.contains(&b.relation) {
                body_rels.push(b.relation.clone());
            }
        }
    }

    // Bootstrap deltas: everything currently in each body relation, or —
    // when continuing from a known fixpoint — just the seed rows.
    let mut delta: HashMap<String, Vec<Tuple>> = HashMap::new();
    match seeds {
        Some(mut seeds) => {
            for rel in &body_rels {
                delta.insert(rel.clone(), seeds.remove(rel).unwrap_or_default());
            }
        }
        None => {
            for rel in &body_rels {
                let rows = if db.has_table(rel) {
                    db.table(rel)?.scan()
                } else {
                    execute_batch(db, &Plan::scan(rel.clone()))?.to_rows()
                };
                delta.insert(rel.clone(), rows);
            }
        }
    }
    run_loop(db, program, hook, delta)
}

/// Semi-naive rounds: each round runs every rule's [`delta_variants`] for
/// the tuples the previous round derived, until a round derives nothing.
fn run_loop(
    db: &mut Database,
    program: &Program,
    hook: &mut dyn FiringHook,
    mut delta: HashMap<String, Vec<Tuple>>,
) -> Result<EvalStats> {
    let mut stats = EvalStats::default();
    loop {
        if delta.values().all(Vec::is_empty) {
            return Ok(stats);
        }
        stats.rounds += 1;
        if stats.rounds > MAX_ROUNDS {
            return Err(Error::Datalog(format!(
                "evaluation did not reach fixpoint within {MAX_ROUNDS} rounds \
                 (diverging Skolem chase?)"
            )));
        }

        let mut next_delta: HashMap<String, Vec<Tuple>> = HashMap::new();
        for (rule_index, rule) in program.rules.iter().enumerate() {
            for bp in delta_variants(db, &rule.body, &delta)? {
                let rows = execute_batch(db, &bp.plan)?.to_rows();
                for row in &rows {
                    let bindings = Bindings {
                        row,
                        var_cols: &bp.var_cols,
                    };
                    hook.on_firing(db, rule_index, rule, &bindings)?;
                    stats.firings += 1;
                    for h in &rule.heads {
                        let tuple = bindings.instantiate(h)?;
                        if db.table_mut(&h.relation)?.insert(tuple.clone())? {
                            stats.inserted += 1;
                            next_delta
                                .entry(h.relation.clone())
                                .or_default()
                                .push(tuple);
                        }
                    }
                }
            }
        }
        delta = next_delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;
    use proql_common::{tup, Schema, ValueType};

    fn edge_db() -> Database {
        let mut db = Database::new();
        for name in ["E", "Path"] {
            db.create_table(
                Schema::build(
                    name,
                    &[("src", ValueType::Int), ("dst", ValueType::Int)],
                    &[0, 1],
                )
                .unwrap(),
            )
            .unwrap();
        }
        db.insert("E", tup![1, 2]).unwrap();
        db.insert("E", tup![2, 3]).unwrap();
        db.insert("E", tup![3, 4]).unwrap();
        db
    }

    #[test]
    fn transitive_closure() {
        let mut db = edge_db();
        let program = parse_program(
            "Path(x, y) :- E(x, y)
             Path(x, z) :- Path(x, y), E(y, z)",
        )
        .unwrap();
        let stats = run_program(&mut db, &program, &mut NoopHook).unwrap();
        let path = db.table("Path").unwrap();
        assert_eq!(path.len(), 6); // 1-2,2-3,3-4,1-3,2-4,1-4
        assert!(path.contains(&tup![1, 4]));
        assert!(stats.rounds >= 3);
        assert_eq!(stats.inserted, 6);
    }

    #[test]
    fn cyclic_edges_terminate() {
        let mut db = edge_db();
        db.insert("E", tup![4, 1]).unwrap();
        let program = parse_program(
            "Path(x, y) :- E(x, y)
             Path(x, z) :- Path(x, y), E(y, z)",
        )
        .unwrap();
        run_program(&mut db, &program, &mut NoopHook).unwrap();
        assert_eq!(db.table("Path").unwrap().len(), 16); // complete on {1..4}
    }

    #[test]
    fn hook_sees_bindings() {
        let mut db = edge_db();
        let program = parse_program("Path(x, y) :- E(x, y)").unwrap();
        let mut seen: Vec<(i64, i64)> = Vec::new();
        {
            let mut hook = |_: &mut Database, _: usize, _: &Rule, b: &Bindings<'_>| {
                seen.push((
                    b.get("x").unwrap().as_int().unwrap(),
                    b.get("y").unwrap().as_int().unwrap(),
                ));
                Ok(())
            };
            run_program(&mut db, &program, &mut hook).unwrap();
        }
        seen.sort();
        assert_eq!(seen, vec![(1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn multi_head_rules_insert_both() {
        let mut db = edge_db();
        db.create_table(Schema::build("L", &[("v", ValueType::Int)], &[0]).unwrap())
            .unwrap();
        db.create_table(Schema::build("R", &[("v", ValueType::Int)], &[0]).unwrap())
            .unwrap();
        let program = parse_program("L(x), R(y) :- E(x, y)").unwrap();
        run_program(&mut db, &program, &mut NoopHook).unwrap();
        assert_eq!(db.table("L").unwrap().len(), 3);
        assert_eq!(db.table("R").unwrap().len(), 3);
    }

    #[test]
    fn skolems_produce_labeled_nulls() {
        let mut db = edge_db();
        db.create_table(
            Schema::build(
                "S",
                &[("src", ValueType::Int), ("lbl", ValueType::Str)],
                &[0, 1],
            )
            .unwrap(),
        )
        .unwrap();
        let program = parse_program("S(x, !f(x)) :- E(x, y)").unwrap();
        run_program(&mut db, &program, &mut NoopHook).unwrap();
        let s = db.table("S").unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.contains(&tup![1, "⟨f(1)⟩"]));
    }

    #[test]
    fn constants_in_heads() {
        let mut db = edge_db();
        db.create_table(
            Schema::build(
                "T",
                &[("v", ValueType::Int), ("flag", ValueType::Bool)],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
        let program = parse_program("T(x, true) :- E(x, _)").unwrap();
        run_program(&mut db, &program, &mut NoopHook).unwrap();
        assert!(db.table("T").unwrap().contains(&tup![1, true]));
    }

    #[test]
    fn missing_head_table_is_error() {
        let mut db = edge_db();
        let program = parse_program("Nope(x) :- E(x, _)").unwrap();
        assert!(run_program(&mut db, &program, &mut NoopHook).is_err());
    }

    #[test]
    fn missing_body_relation_is_error() {
        let mut db = edge_db();
        let program = parse_program("Path(x, x) :- Zzz(x)").unwrap();
        assert!(run_program(&mut db, &program, &mut NoopHook).is_err());
    }

    #[test]
    fn relations_named_like_scratch_tables_are_left_alone() {
        let mut db = edge_db();
        db.create_table(
            Schema::build(
                "__delta__Path",
                &[("src", ValueType::Int), ("dst", ValueType::Int)],
                &[0, 1],
            )
            .unwrap(),
        )
        .unwrap();
        let relations = |db: &Database| -> Vec<String> {
            db.table_names()
                .chain(db.view_names())
                .map(str::to_string)
                .collect()
        };
        let before = relations(&db);
        let program = parse_program(
            "Path(x, y) :- E(x, y)
             Path(x, z) :- Path(x, y), E(y, z)",
        )
        .unwrap();
        run_program(&mut db, &program, &mut NoopHook).unwrap();
        assert_eq!(db.table("Path").unwrap().len(), 6);
        assert_eq!(relations(&db), before);
        assert!(db.table("__delta__Path").unwrap().is_empty());
    }

    #[test]
    fn views_participate_in_bootstrap() {
        let mut db = edge_db();
        db.create_view(
            "Evw",
            proql_storage::Plan::scan("E"),
            Schema::build(
                "Evw",
                &[("src", ValueType::Int), ("dst", ValueType::Int)],
                &[0, 1],
            )
            .unwrap(),
        )
        .unwrap();
        let program = parse_program("Path(x, y) :- Evw(x, y)").unwrap();
        run_program(&mut db, &program, &mut NoopHook).unwrap();
        assert_eq!(db.table("Path").unwrap().len(), 3);
    }

    #[test]
    fn seeded_run_continues_from_fixpoint() {
        let mut db = edge_db();
        let program = parse_program(
            "Path(x, y) :- E(x, y)
             Path(x, z) :- Path(x, y), E(y, z)",
        )
        .unwrap();
        run_program(&mut db, &program, &mut NoopHook).unwrap();
        // One new edge, seeded incrementally from the fixpoint.
        db.insert("E", tup![4, 5]).unwrap();
        let seeds = HashMap::from([("E".to_string(), vec![tup![4, 5]])]);
        let stats = run_program_seeded(&mut db, &program, &mut NoopHook, seeds).unwrap();
        // New paths: 4-5, 3-5, 2-5, 1-5 — and nothing rederived.
        assert_eq!(stats.inserted, 4);
        assert!(db.table("Path").unwrap().contains(&tup![1, 5]));
        // A full run afterwards finds nothing left to derive.
        let stats = run_program(&mut db, &program, &mut NoopHook).unwrap();
        assert_eq!(stats.inserted, 0);
        // Seeds for relations no rule reads are ignored.
        let seeds = HashMap::from([("Nope".to_string(), vec![tup![1, 1]])]);
        let stats = run_program_seeded(&mut db, &program, &mut NoopHook, seeds).unwrap();
        assert_eq!(stats.inserted, 0);
    }

    #[test]
    fn retraction_seeds_fall_back_explicitly() {
        let mut db = edge_db();
        let program = parse_program(
            "Path(x, y) :- E(x, y)
             Path(x, z) :- Path(x, y), E(y, z)",
        )
        .unwrap();
        run_program(&mut db, &program, &mut NoopHook).unwrap();

        // Demonstrate the under-counting a naive delete-seeded run leaves
        // behind: remove E(2,3) and run seeded with no adds — Path(1,3)
        // lost its only support, but the seeded run cannot retract it.
        db.table_mut("E")
            .unwrap()
            .delete_by_key(&tup![2, 3])
            .unwrap();
        let stats = run_program_seeded(&mut db, &program, &mut NoopHook, HashMap::new()).unwrap();
        assert_eq!(stats.inserted, 0);
        assert!(
            db.table("Path").unwrap().contains(&tup![1, 3]),
            "the stale derived tuple survives — this is the hazard"
        );

        // The explicit fallback: clear derived state and re-evaluate fully.
        db.table_mut("Path").unwrap().truncate();
        run_program(&mut db, &program, &mut NoopHook).unwrap();
        let path = db.table("Path").unwrap();
        assert!(!path.contains(&tup![1, 3]));
        assert!(path.contains(&tup![1, 2]));
        assert!(path.contains(&tup![3, 4]));
    }

    #[test]
    fn evaluation_is_idempotent() {
        let mut db = edge_db();
        let program = parse_program(
            "Path(x, y) :- E(x, y)
             Path(x, z) :- Path(x, y), E(y, z)",
        )
        .unwrap();
        run_program(&mut db, &program, &mut NoopHook).unwrap();
        let before = db.table("Path").unwrap().len();
        let stats = run_program(&mut db, &program, &mut NoopHook).unwrap();
        assert_eq!(db.table("Path").unwrap().len(), before);
        assert_eq!(stats.inserted, 0);
    }
}
