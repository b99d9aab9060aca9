//! PRNG-driven property suite for the cost-based optimizer.
//!
//! The contract under test: **no optimizer pass — and no combination of
//! passes — ever changes query results.** Random databases (skewed key
//! distributions, random secondary indexes, NULLs) and random plans
//! (join chains with every key topology the rule compiler emits, filters
//! above and below joins, aggregates) are executed unoptimized as the
//! oracle, then under every pass configuration × executor × parallelism
//! setting; the result multiset and the output schema must match
//! exactly. The sweep also checks that the join-reordering pass actually
//! fires (at least one plan in the run is restructured) so the property
//! is not vacuously true.

use proql_common::rng::SplitMix64;
use proql_common::{tup, Parallelism, Schema, Tuple, Value, ValueType};
use proql_storage::optimize::{
    optimize, optimize_with, optimize_with_config, OptimizerConfig, Pass,
};
use proql_storage::{
    execute, execute_with_opts, Database, ExecMode, Expr, IndexKind, JoinType, Plan,
};

/// Random 2-column int table with skewed second column.
fn random_db(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    for (name, key_range, val_range) in
        [("R", 40i64, 6i64), ("S", 40, 10), ("T", 12, 6), ("U", 6, 4)]
    {
        db.create_table(
            Schema::build(name, &[("a", ValueType::Int), ("b", ValueType::Int)], &[]).unwrap(),
        )
        .unwrap();
        let rows = rng.gen_range_usize(0, 50);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..rows {
            let a = rng.gen_range_i64(0, key_range);
            // Occasional NULLs exercise the join/filter NULL semantics.
            let b = if rng.gen_range_usize(0, 20) == 0 {
                Value::Null
            } else {
                Value::Int(rng.gen_range_i64(0, val_range))
            };
            if seen.insert((a, format!("{b:?}"))) {
                db.table_mut(name)
                    .unwrap()
                    .insert(Tuple::new(vec![Value::Int(a), b]))
                    .unwrap();
            }
        }
        if rng.gen_range_usize(0, 2) == 0 {
            let col = rng.gen_range_usize(0, 2);
            let kind = if rng.gen_range_usize(0, 2) == 0 {
                IndexKind::Hash
            } else {
                IndexKind::BTree
            };
            db.table_mut(name)
                .unwrap()
                .create_index("ix", vec![col], kind)
                .unwrap();
        }
    }
    db
}

/// A random join chain over 2–4 of the tables, with filters sprinkled
/// below and above the joins and an optional aggregate on top.
fn random_plan(rng: &mut SplitMix64) -> Plan {
    let names = ["R", "S", "T", "U"];
    let n = rng.gen_range_usize(2, 5);
    let leaf = |rng: &mut SplitMix64, i: usize| -> Plan {
        let mut p = Plan::scan(names[i % names.len()]);
        if rng.gen_range_usize(0, 3) == 0 {
            let col = rng.gen_range_usize(0, 2);
            let lit = rng.gen_range_i64(0, 8);
            p = p.filter(Expr::col(col).eq(Expr::lit(lit)));
        }
        p
    };
    let mut plan = leaf(rng, 0);
    let mut arity = 2;
    for i in 1..n {
        let next = leaf(rng, i);
        // Join on a random accumulated column vs a random leaf column;
        // sometimes keyless (cross product), sometimes two keys.
        let keys = rng.gen_range_usize(0, 5);
        let (acc_keys, leaf_keys) = match keys {
            0 => (vec![], vec![]),
            4 => (
                vec![rng.gen_range_usize(0, arity), rng.gen_range_usize(0, arity)],
                vec![0, 1],
            ),
            _ => (
                vec![rng.gen_range_usize(0, arity)],
                vec![rng.gen_range_usize(0, 2)],
            ),
        };
        // Grow left-deep or right-deep: right-deep/bushy shapes exercise
        // the reorder pass's flatten + bail-out rebuild paths, where
        // join-name disambiguation is order-sensitive.
        if rng.gen_range_usize(0, 3) == 0 {
            plan = next.join(plan, leaf_keys, acc_keys);
        } else {
            plan = plan.join(next, acc_keys, leaf_keys);
        }
        arity += 2;
    }
    if rng.gen_range_usize(0, 3) == 0 {
        let col = rng.gen_range_usize(0, arity);
        let op = match rng.gen_range_usize(0, 3) {
            0 => proql_storage::BinOp::Le,
            1 => proql_storage::BinOp::Gt,
            _ => proql_storage::BinOp::Ne,
        };
        plan = plan.filter(Expr::cmp(
            op,
            Expr::col(col),
            Expr::lit(rng.gen_range_i64(0, 6)),
        ));
    }
    if rng.gen_range_usize(0, 4) == 0 {
        plan = Plan::Aggregate {
            input: Box::new(plan),
            group_by: vec![rng.gen_range_usize(0, arity)],
            aggs: vec![
                proql_storage::Aggregate::new(proql_storage::AggFunc::Count, "n"),
                proql_storage::Aggregate::new(
                    proql_storage::AggFunc::Sum(rng.gen_range_usize(0, arity)),
                    "s",
                ),
            ],
            having: None,
        };
    }
    plan
}

/// The pass pipelines every property is checked under.
fn configs() -> Vec<OptimizerConfig> {
    vec![
        OptimizerConfig::default(),
        OptimizerConfig::without(Pass::ReorderJoins),
        OptimizerConfig::without(Pass::PushFilters),
        OptimizerConfig::without(Pass::IndexScans),
        OptimizerConfig::without(Pass::PickBuildSides),
        OptimizerConfig {
            passes: vec![Pass::PushFilters],
        },
        OptimizerConfig {
            passes: vec![Pass::PushFilters, Pass::PushFilters],
        },
        OptimizerConfig {
            passes: vec![Pass::ReorderJoins],
        },
        OptimizerConfig {
            passes: vec![Pass::ReorderJoins, Pass::ReorderJoins],
        },
    ]
}

/// The property itself: `plan` unoptimized under the row executor is the
/// oracle; the catalog-free pass and every pass configuration × executor ×
/// parallelism must reproduce its schema and row multiset (or fail when it
/// fails). Returns how many configurations restructured a join plan.
fn assert_all_configurations_agree(db: &Database, plan: &Plan, round: usize) -> usize {
    let configs = configs();
    let want = match execute(db, plan) {
        Ok(rel) => rel,
        // Randomized plans may be malformed (e.g. key vs arity);
        // every optimized variant must then fail too, not panic.
        Err(_) => {
            for cfg in &configs {
                let opt = optimize_with_config(db, plan.clone(), cfg);
                assert!(
                    execute(db, &opt).is_err(),
                    "round {round}: optimizer resurrected a failing plan"
                );
            }
            return 0;
        }
    };
    let catalog_free = optimize(plan.clone());
    assert_eq!(
        execute(db, &catalog_free).unwrap().sorted_rows(),
        want.sorted_rows(),
        "round {round}: catalog-free optimize changed results"
    );
    let mut restructured = 0;
    for cfg in &configs {
        let opt = optimize_with_config(db, plan.clone(), cfg);
        if opt.count_joins() > 0 && format!("{opt:?}") != format!("{:?}", plan) {
            restructured += 1;
        }
        if cfg.passes.contains(&Pass::PushFilters) {
            assert_no_single_side_conjunct_above_inner_join(db, &opt, round);
        }
        for mode in [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop] {
            for par in [Parallelism::Serial, Parallelism::Threads(4)] {
                let got = execute_with_opts(db, &opt, mode, par).unwrap_or_else(|e| {
                    panic!("round {round} cfg {cfg:?} mode {mode:?} par {par:?}: {e}\n{opt:?}")
                });
                assert_eq!(
                    got.names, want.names,
                    "round {round} cfg {cfg:?} mode {mode:?}: schema changed"
                );
                assert_eq!(
                    got.sorted_rows(),
                    want.sorted_rows(),
                    "round {round} cfg {cfg:?} mode {mode:?} par {par:?}: rows changed\n{opt:?}"
                );
            }
        }
    }
    restructured
}

/// Output arity of a plan over the test catalogs (scans and projections
/// and joins of them are all the shapes pushdown produces here).
fn arity(db: &Database, plan: &Plan) -> usize {
    match plan {
        Plan::Scan { table } | Plan::IndexLookup { table, .. } => {
            db.schema_of(table).unwrap().arity()
        }
        Plan::Project { exprs, .. } => exprs.len(),
        Plan::Filter { input, .. } => arity(db, input),
        Plan::Join { left, right, .. } => arity(db, left) + arity(db, right),
        Plan::Aggregate { group_by, aggs, .. } => group_by.len() + aggs.len(),
        other => panic!("arity of {other:?}"),
    }
}

/// Structural half of the pushdown contract: once `PushFilters` ran, a
/// filter sitting directly on an inner join holds only conjuncts that
/// read both sides (or none) — everything that reads one side moved in.
fn assert_no_single_side_conjunct_above_inner_join(db: &Database, plan: &Plan, round: usize) {
    fn conjuncts(e: &Expr) -> Vec<&Expr> {
        match e {
            Expr::And(ps) => ps.iter().flat_map(conjuncts).collect(),
            p => vec![p],
        }
    }
    let mut children: Vec<&Plan> = Vec::new();
    match plan {
        Plan::Filter { input, predicate } => {
            if let Plan::Join {
                left,
                right,
                join_type: JoinType::Inner,
                ..
            } = input.as_ref()
            {
                let (la, total) = (arity(db, left), arity(db, left) + arity(db, right));
                for c in conjuncts(predicate) {
                    if let Some((lo, hi)) = c.col_range() {
                        assert!(
                            lo < la && hi >= la || hi >= total,
                            "round {round}: single-side conjunct {c} left above an inner join"
                        );
                    }
                }
            }
            children.push(input);
        }
        Plan::Project { input, .. }
        | Plan::Distinct { input }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => children.push(input),
        Plan::Join { left, right, .. } => children.extend([left.as_ref(), right.as_ref()]),
        Plan::Union { inputs, .. } => children.extend(inputs),
        Plan::Scan { .. } | Plan::Values { .. } | Plan::IndexLookup { .. } => {}
    }
    for child in children {
        assert_no_single_side_conjunct_above_inner_join(db, child, round);
    }
}

#[test]
fn no_pass_configuration_ever_changes_results() {
    let mut rng = SplitMix64::seed_from_u64(0x0071_817E_5EED);
    let mut reordered_plans = 0usize;
    for round in 0..40 {
        let db = random_db(&mut rng);
        let plan = random_plan(&mut rng);
        reordered_plans += assert_all_configurations_agree(&db, &plan, round);
    }
    assert!(
        reordered_plans > 0,
        "the sweep never restructured a plan — the property is vacuous"
    );
}

/// [`random_db`] plus what filter pushdown has to get right: a `Float`-keyed
/// table `F` (joins against the `Int` keys match numerically, but a range
/// must not be mirrored across the type change), NULLs in join-key
/// columns, an untyped table `P` like the provenance relations, and views —
/// `VR` projecting and reordering `R`'s columns, `VS` filtering `S` without
/// a projection, and `VV` a renaming view over `VR`.
fn pushdown_db(rng: &mut SplitMix64) -> Database {
    let mut db = random_db(rng);
    db.create_table(
        Schema::build("F", &[("a", ValueType::Float), ("b", ValueType::Int)], &[]).unwrap(),
    )
    .unwrap();
    db.create_table(
        Schema::build("P", &[("a", ValueType::Null), ("b", ValueType::Null)], &[]).unwrap(),
    )
    .unwrap();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..rng.gen_range_usize(10, 60) {
        let a = rng.gen_range_i64(0, 12);
        let b = rng.gen_range_i64(0, 6);
        if !seen.insert((a, b)) {
            continue;
        }
        // Whole floats equal their ints; halves match nothing.
        let fa = a as f64
            + if rng.gen_range_usize(0, 4) == 0 {
                0.5
            } else {
                0.0
            };
        let null_key = rng.gen_range_usize(0, 10) == 0;
        let key = |v: Value| if null_key { Value::Null } else { v };
        db.table_mut("F")
            .unwrap()
            .insert(Tuple::new(vec![key(Value::Float(fa)), Value::Int(b)]))
            .unwrap();
        db.table_mut("P")
            .unwrap()
            .insert(Tuple::new(vec![key(Value::Int(a)), Value::Int(b)]))
            .unwrap();
    }
    let untyped = |name: &str, cols: [&str; 2]| {
        Schema::build(
            name,
            &[(cols[0], ValueType::Null), (cols[1], ValueType::Null)],
            &[],
        )
        .unwrap()
    };
    db.create_view(
        "VR",
        Plan::scan("R").project_named(
            vec![Expr::col(1), Expr::col(0)],
            vec!["b".into(), "a".into()],
        ),
        untyped("VR", ["b", "a"]),
    )
    .unwrap();
    db.create_view(
        "VS",
        Plan::scan("S").filter(Expr::cmp(
            proql_storage::BinOp::Lt,
            Expr::col(0),
            Expr::lit(30),
        )),
        untyped("VS", ["a", "b"]),
    )
    .unwrap();
    db.create_view(
        "VV",
        Plan::scan("VR").project_named(
            vec![Expr::col(0), Expr::col(1)],
            vec!["x".into(), "y".into()],
        ),
        untyped("VV", ["vb", "va"]),
    )
    .unwrap();
    db
}

/// A random predicate over columns `0..arity`: ranges, `OR`s within one
/// column and across columns (hence across join sides), column-to-column
/// comparisons, `IS NULL`, negation, arithmetic, and constants.
fn random_predicate(rng: &mut SplitMix64, arity: usize) -> Expr {
    use proql_storage::BinOp::*;
    let col = |rng: &mut SplitMix64| Expr::col(rng.gen_range_usize(0, arity));
    let lit = |rng: &mut SplitMix64| Expr::lit(rng.gen_range_i64(0, 8));
    let cmp_op = |rng: &mut SplitMix64| [Eq, Ne, Lt, Le, Gt, Ge][rng.gen_range_usize(0, 6)];
    let atom = |rng: &mut SplitMix64| match rng.gen_range_usize(0, 8) {
        0 => {
            let c = rng.gen_range_usize(0, arity);
            let lo = rng.gen_range_i64(0, 6);
            Expr::And(vec![
                Expr::cmp(Ge, Expr::col(c), Expr::lit(lo)),
                Expr::cmp(Lt, Expr::col(c), Expr::lit(lo + rng.gen_range_i64(2, 12))),
            ])
        }
        1 => {
            let c = rng.gen_range_usize(0, arity);
            Expr::Or(vec![
                Expr::col(c).eq(lit(rng)),
                Expr::cmp(Gt, Expr::col(c), lit(rng)),
            ])
        }
        2 => Expr::Or(vec![col(rng).eq(lit(rng)), col(rng).eq(lit(rng))]),
        3 => Expr::cmp(cmp_op(rng), col(rng), col(rng)),
        4 => Expr::IsNull(Box::new(col(rng))),
        5 => Expr::Not(Box::new(Expr::cmp(cmp_op(rng), col(rng), lit(rng)))),
        6 => Expr::cmp(Lt, Expr::cmp(Add, col(rng), Expr::lit(1)), lit(rng)),
        _ => Expr::cmp(cmp_op(rng), col(rng), lit(rng)),
    };
    match rng.gen_range_usize(0, 6) {
        0 => Expr::And(vec![atom(rng), atom(rng), Expr::lit(true)]),
        1 => Expr::And(vec![atom(rng), atom(rng)]),
        2 => Expr::Or(vec![atom(rng), atom(rng)]),
        _ => atom(rng),
    }
}

/// Joins of 2–4 bare scans — tables of all three key types and views —
/// under every join type, keyed on random columns, with a random
/// predicate on top and sometimes one in the middle of the chain.
fn random_pushdown_plan(rng: &mut SplitMix64) -> Plan {
    let names = ["R", "S", "T", "U", "F", "P", "VR", "VS", "VV"];
    let scan = |rng: &mut SplitMix64| Plan::scan(names[rng.gen_range_usize(0, names.len())]);
    let mut plan = scan(rng);
    let mut arity = 2;
    for _ in 1..rng.gen_range_usize(2, 5) {
        let join_type = match rng.gen_range_usize(0, 8) {
            0 => JoinType::LeftOuter,
            1 => JoinType::RightOuter,
            2 => JoinType::FullOuter,
            _ => JoinType::Inner,
        };
        // Mostly the shared key in column 0, so chains propagate a range.
        let acc_key = if rng.gen_range_usize(0, 3) == 0 {
            rng.gen_range_usize(0, arity)
        } else {
            0
        };
        let leaf_key = usize::from(rng.gen_range_usize(0, 4) == 0);
        plan = if rng.gen_range_usize(0, 4) == 0 {
            scan(rng).join_as(plan, join_type, vec![leaf_key], vec![acc_key])
        } else {
            plan.join_as(scan(rng), join_type, vec![acc_key], vec![leaf_key])
        };
        arity += 2;
        if rng.gen_range_usize(0, 4) == 0 {
            plan = plan.filter(random_predicate(rng, arity));
        }
    }
    plan.filter(random_predicate(rng, arity))
}

#[test]
fn pushdown_through_joins_views_and_outer_joins_never_changes_results() {
    let mut rng = SplitMix64::seed_from_u64(0x09D5_4D0E);
    let (mut restructured, mut non_empty) = (0usize, 0usize);
    for round in 0..120 {
        let db = pushdown_db(&mut rng);
        let plan = random_pushdown_plan(&mut rng);
        restructured += assert_all_configurations_agree(&db, &plan, round);
        non_empty += usize::from(execute(&db, &plan).is_ok_and(|rel| !rel.rows.is_empty()));
    }
    assert!(restructured > 0, "the sweep never moved a filter");
    assert!(
        non_empty >= 40,
        "only {non_empty} of 120 plans returned rows — the property is near-vacuous"
    );
}

/// Every scan leaf of an optimized join chain with the predicate of the
/// filter directly above it.
fn leaf_filters(plan: &Plan, above: Option<&Expr>, out: &mut Vec<(String, Option<Expr>)>) {
    match plan {
        Plan::Scan { table } => out.push((table.clone(), above.cloned())),
        Plan::Filter { input, predicate } => leaf_filters(input, Some(predicate), out),
        Plan::Project { input, .. } => leaf_filters(input, None, out),
        Plan::Join { left, right, .. } => {
            leaf_filters(left, None, out);
            leaf_filters(right, None, out);
        }
        other => panic!("unexpected node {other:?}"),
    }
}

#[test]
fn a_range_on_the_shared_key_lands_on_every_leaf_of_the_chain() {
    let mut rng = SplitMix64::seed_from_u64(0x0C4A_11ED);
    let db = pushdown_db(&mut rng);
    // All on column 0 = `a` of the tables, which is column 1 of `VR`/`VV`;
    // `F` is Float-keyed, so it takes no mirrored range and ends the test
    // chain's same-typed run when it is present.
    for (tables, filtered_leaves) in [
        (vec!["R", "S", "T", "U"], 4),
        (vec!["P", "R", "VS", "P"], 4),
        (vec!["R", "F", "S"], 2),
    ] {
        let mut plan = Plan::scan(tables[0]);
        for t in &tables[1..] {
            plan = plan.join(Plan::scan(*t), vec![0], vec![0]);
        }
        let bounds = [
            Expr::cmp(proql_storage::BinOp::Ge, Expr::col(0), Expr::lit(2)),
            Expr::cmp(proql_storage::BinOp::Lt, Expr::col(0), Expr::lit(9)),
        ];
        let plan = plan.filter(Expr::And(bounds.to_vec()));
        let opt = optimize_with_config(
            &db,
            plan.clone(),
            &OptimizerConfig::without(Pass::ReorderJoins),
        );
        let mut leaves = Vec::new();
        leaf_filters(&opt, None, &mut leaves);
        assert_eq!(leaves.len(), tables.len(), "{opt:?}");
        let carrying = leaves
            .iter()
            .filter(|(_, pred)| {
                matches!(pred, Some(Expr::And(ps)) if bounds.iter().all(|b| ps.contains(b)))
            })
            .count();
        assert_eq!(carrying, filtered_leaves, "{tables:?}: {opt:?}");
        assert_all_configurations_agree(&db, &plan, 0);
    }
}

#[test]
fn full_pipeline_equals_unoptimized_on_fk_shaped_chains() {
    // Deterministic FK-shaped 3-way chains (the shape rule compilation
    // emits) across every join-order choice the greedy can make.
    let mut db = Database::new();
    for name in ["P1", "P2", "P3"] {
        db.create_table(
            Schema::build(name, &[("x", ValueType::Int), ("y", ValueType::Int)], &[]).unwrap(),
        )
        .unwrap();
    }
    for i in 0..30 {
        db.insert("P1", tup![i, i % 5]).unwrap();
        db.insert("P2", tup![i % 5, i % 3]).unwrap();
    }
    for i in 0..3 {
        db.insert("P3", tup![i, i]).unwrap();
    }
    for (f1, f2) in [(0, 0), (2, 1), (4, 2)] {
        let plan = Plan::scan("P1")
            .join(Plan::scan("P2"), vec![1], vec![0])
            .join(
                Plan::scan("P3").filter(Expr::col(0).eq(Expr::lit(f1))),
                vec![3],
                vec![0],
            )
            .filter(Expr::cmp(
                proql_storage::BinOp::Ge,
                Expr::col(0),
                Expr::lit(f2),
            ));
        let want = execute(&db, &plan).unwrap();
        let opt = optimize_with(&db, plan);
        for mode in [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop] {
            for par in [Parallelism::Serial, Parallelism::Threads(4)] {
                let got = execute_with_opts(&db, &opt, mode, par).unwrap();
                assert_eq!(got.names, want.names);
                assert_eq!(got.sorted_rows(), want.sorted_rows());
            }
        }
    }
}
