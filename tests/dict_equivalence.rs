//! Dictionary-encoding equivalence properties: execution over
//! dictionary-encoded string columns (code-keyed filters, joins, grouping,
//! zone-map skipping, selection vectors) must be **bit-identical** to the
//! plain decoded path — same rows in the same order, same optimizer
//! estimates — across every executor and parallelism setting. Dictionaries
//! are maintained incrementally under inserts/deletes/truncates, and the
//! dictionary-encoded snapshot wire format round-trips and never panics on
//! corrupt bytes.

use proql_common::rng::SplitMix64;
use proql_common::{Parallelism, Schema, Tuple, Value, ValueType};
use proql_provgraph::encode::wire::{decode_snapshot_frame, encode_snapshot_frame, SnapshotFrame};
use proql_storage::explain::explain_tree;
use proql_storage::optimize::optimize_with;
use proql_storage::{execute_with_opts, AggFunc, Aggregate, Database, ExecMode, Expr, Plan};

const PAR_SWEEP: [Parallelism; 3] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

const MODES: [ExecMode; 3] = [ExecMode::Batch, ExecMode::Row, ExecMode::NestedLoop];

/// A small pool of strings with heavy repetition — the regime dictionary
/// encoding targets.
fn word(rng: &mut SplitMix64) -> String {
    const POOL: [&str; 7] = [
        "alpha",
        "beta",
        "gamma",
        "delta-very-long-shared-suffix",
        "epsilon",
        "zeta",
        "eta",
    ];
    POOL[rng.gen_range_usize(0, POOL.len())].to_string()
}

/// Build a pair of databases with identical contents: one with dictionary
/// encoding enabled, one with it disabled. Tables: `S(id, name, w)` and
/// `T(id, name, grp)` — string-keyed, with enough rows to span several
/// zone-map morsels in the larger cases.
fn twin_dbs(rng: &mut SplitMix64, rows_s: usize, rows_t: usize) -> (Database, Database) {
    let mut on = Database::new();
    on.set_dict_encoding(true);
    let mut off = Database::new();
    off.set_dict_encoding(false);
    for db in [&mut on, &mut off] {
        db.create_table(
            Schema::build(
                "S",
                &[
                    ("id", ValueType::Int),
                    ("name", ValueType::Str),
                    ("w", ValueType::Int),
                ],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build(
                "T",
                &[
                    ("id", ValueType::Int),
                    ("name", ValueType::Str),
                    ("grp", ValueType::Int),
                ],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
    }
    for i in 0..rows_s {
        let t = proql_common::tup![i as i64, word(rng), rng.gen_range_i64(0, 50)];
        on.insert("S", t.clone()).unwrap();
        off.insert("S", t).unwrap();
    }
    for i in 0..rows_t {
        let t = proql_common::tup![i as i64, word(rng), rng.gen_range_i64(0, 5)];
        on.insert("T", t.clone()).unwrap();
        off.insert("T", t).unwrap();
    }
    (on, off)
}

/// The plan shapes the sweep covers: string-equality filter (zone-prunable
/// fused scan), string-keyed join between two dictionary tables,
/// aggregation grouped by a string column, distinct, and sort+limit.
fn plan_sweep(rng: &mut SplitMix64) -> Vec<Plan> {
    let needle = word(rng);
    let lt = rng.gen_range_i64(1, 40);
    vec![
        Plan::scan("S").filter(Expr::col(1).eq(Expr::lit(needle.clone()))),
        Plan::scan("S").filter(Expr::and(vec![
            Expr::col(1).eq(Expr::lit(needle.clone())),
            Expr::cmp(proql_storage::BinOp::Lt, Expr::col(2), Expr::lit(lt)),
        ])),
        Plan::scan("S").join(Plan::scan("T"), vec![1], vec![1]),
        Plan::Aggregate {
            input: Box::new(Plan::scan("S")),
            group_by: vec![1],
            aggs: vec![
                Aggregate::new(AggFunc::Count, "n"),
                Aggregate::new(AggFunc::Sum(2), "sw"),
            ],
            having: None,
        },
        Plan::scan("S").project(vec![Expr::col(1)]).distinct(),
        Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(Plan::scan("S").join(Plan::scan("T"), vec![1], vec![1])),
                by: vec![1, 0],
            }),
            n: 17,
        },
        Plan::Union {
            inputs: vec![
                Plan::scan("S").filter(Expr::col(1).eq(Expr::lit(needle))),
                Plan::scan("S").filter(Expr::cmp(
                    proql_storage::BinOp::Ge,
                    Expr::col(2),
                    Expr::lit(45i64),
                )),
            ],
            distinct: true,
        },
    ]
}

/// Order-preserving digest of a result, so divergence in row *order* (not
/// just content) is caught.
fn digest(names: &[String], rows: &[Tuple]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    names.hash(&mut h);
    for r in rows {
        for v in r.values() {
            format!("{v:?}").hash(&mut h);
        }
    }
    h.finish()
}

#[test]
fn dict_on_and_off_are_bit_identical_across_modes_and_parallelism() {
    let mut rng = SplitMix64::seed_from_u64(0xD1C7);
    for case in 0..3 {
        // Case sizes straddle the morsel threshold so both the serial and
        // the morsel-parallel batch paths run, and the biggest case spans
        // multiple zones.
        let rows_s = [40, 300, 2600][case];
        let rows_t = [30, 200, 900][case];
        let (on, off) = twin_dbs(&mut rng, rows_s, rows_t);
        // The nested-loop oracle is O(n²) on joins — small cases only.
        let modes: &[ExecMode] = if rows_s <= 300 { &MODES } else { &MODES[..2] };
        for (pi, plan) in plan_sweep(&mut rng).into_iter().enumerate() {
            // Optimizer estimates key NDV off interned codes; the chosen
            // plan and its EXPLAIN rendering must not depend on the knob.
            let opt_on = optimize_with(&on, plan.clone());
            let opt_off = optimize_with(&off, plan.clone());
            assert_eq!(
                format!("{opt_on:?}"),
                format!("{opt_off:?}"),
                "case {case} plan {pi}: optimizer chose different plans"
            );
            assert_eq!(
                explain_tree(&on, &opt_on),
                explain_tree(&off, &opt_off),
                "case {case} plan {pi}: EXPLAIN estimates diverged"
            );
            let mut want: Option<(Vec<String>, Vec<Tuple>, u64)> = None;
            for &mode in modes {
                for par in PAR_SWEEP {
                    for (db, knob) in [(&on, "on"), (&off, "off")] {
                        let r = execute_with_opts(db, &opt_on, mode, par).unwrap();
                        let d = digest(&r.names, &r.rows);
                        match &want {
                            None => want = Some((r.names, r.rows, d)),
                            Some((names, rows, wd)) => {
                                assert_eq!(
                                    (&r.names, &d),
                                    (names, wd),
                                    "case {case} plan {pi}: dict {knob} {mode:?} {par:?} diverged"
                                );
                                assert_eq!(
                                    &r.rows, rows,
                                    "case {case} plan {pi}: dict {knob} {mode:?} {par:?} rows"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The late-materialising fused scan — predicate columns read for every
/// candidate row, the rest only at the survivors — returns exactly the
/// rows, in exactly the order, of a full scan filtered row by row: with
/// dictionaries on and off, over a **nullable** string predicate column
/// (which scans as a plain value column, not as codes), tombstoned rows,
/// and tables spanning several zones so pruning skips some of them.
#[test]
fn late_materialised_scans_match_a_row_wise_filter_over_the_full_scan() {
    use proql_storage::BinOp::{Ge, Lt};
    let mut rng = SplitMix64::seed_from_u64(0x01A7_E3A7);
    let schema = || {
        Schema::build(
            "N",
            &[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("w", ValueType::Int),
                ("tag", ValueType::Str),
            ],
            &[0],
        )
        .unwrap()
    };
    let (mut on, mut off) = (Database::new(), Database::new());
    on.set_dict_encoding(true);
    off.set_dict_encoding(false);
    on.create_table(schema()).unwrap();
    off.create_table(schema()).unwrap();
    // 3,000 rows = three zones; ids ascend, so id ranges prune zones.
    for i in 0..3000i64 {
        let name = if rng.gen_range_usize(0, 6) == 0 {
            Value::Null
        } else {
            Value::str(word(&mut rng))
        };
        let t = Tuple::new(vec![
            Value::Int(i),
            name,
            Value::Int(rng.gen_range_i64(0, 50)),
            Value::str(word(&mut rng)),
        ]);
        on.insert("N", t.clone()).unwrap();
        off.insert("N", t).unwrap();
    }
    // Tombstone a third of the rows (below the compaction threshold), a
    // whole stretch of zone 1 among them.
    for i in (0..3000i64).filter(|i| i % 4 == 1 || (1100..1500).contains(i)) {
        let key = proql_common::tup![i];
        assert!(on.table_mut("N").unwrap().delete_by_key(&key).is_some());
        assert!(off.table_mut("N").unwrap().delete_by_key(&key).is_some());
    }
    let needle = || Expr::col(1).eq(Expr::lit("gamma"));
    let id_in = |lo: i64, hi: i64| {
        Expr::And(vec![
            Expr::cmp(Ge, Expr::col(0), Expr::lit(lo)),
            Expr::cmp(Lt, Expr::col(0), Expr::lit(hi)),
        ])
    };
    let predicates = vec![
        needle(),
        Expr::IsNull(Box::new(Expr::col(1))),
        id_in(1000, 1030),
        Expr::and(vec![id_in(900, 2100), needle()]),
        Expr::and(vec![
            id_in(2050, 2999),
            Expr::IsNull(Box::new(Expr::col(1))),
            Expr::col(3).eq(Expr::lit("beta")),
        ]),
        Expr::Or(vec![needle(), Expr::cmp(Lt, Expr::col(2), Expr::lit(3i64))]),
        // Columns compared with each other, and a predicate that keeps
        // nothing at all.
        Expr::col(1).eq(Expr::col(3)),
        id_in(5000, 6000),
        Expr::lit(true),
    ];
    for (pi, predicate) in predicates.into_iter().enumerate() {
        let oracle: Vec<Tuple> = off
            .table("N")
            .unwrap()
            .scan()
            .into_iter()
            .filter(|row| predicate.eval_bool(row).unwrap())
            .collect();
        let plan = Plan::scan("N").filter(predicate);
        for mode in [ExecMode::Batch, ExecMode::Row] {
            for par in PAR_SWEEP {
                for (db, knob) in [(&on, "on"), (&off, "off")] {
                    let got = execute_with_opts(db, &plan, mode, par).unwrap();
                    assert_eq!(
                        got.rows, oracle,
                        "predicate {pi}: dict {knob} {mode:?} {par:?}"
                    );
                    assert_eq!(got.names, ["id", "name", "w", "tag"], "predicate {pi}");
                }
            }
        }
    }
    // The pruned, late-materialised scan really skipped zones.
    // (ids 1030..1060 sit in zone 1 alone; a quarter of them is deleted.)
    let plan = Plan::scan("N").filter(id_in(1030, 1060));
    let (batch, stats) =
        proql_storage::execute_batch_profiled(&on, &plan, Parallelism::Serial).unwrap();
    assert_eq!(batch.len(), 23);
    assert_eq!(stats[1].morsels_skipped, 2, "{stats:?}");
    assert!(stats[1].rows < 1024, "{stats:?}");
    assert_eq!(stats[0].sel_density, Some(23.0 / stats[1].rows as f64));
}

/// Dictionaries are maintained incrementally: interleaved inserts, deletes,
/// and truncates leave the dictionary-encoded table scanning out the exact
/// same rows as its plain twin, and the decode-on-output batch equals the
/// row storage.
#[test]
fn dictionary_maintenance_under_insert_delete_truncate() {
    let mut rng = SplitMix64::seed_from_u64(0x9A13);
    let (mut on, mut off) = twin_dbs(&mut rng, 0, 0);
    let mut next_id: i64 = 0;
    for round in 0..6 {
        // A burst of inserts (some overwriting existing keys)...
        for _ in 0..rng.gen_range_usize(50, 1500) {
            let id = if next_id > 0 && rng.gen_range_usize(0, 4) == 0 {
                rng.gen_range_i64(0, next_id)
            } else {
                next_id += 1;
                next_id - 1
            };
            let t = proql_common::tup![id, word(&mut rng), rng.gen_range_i64(0, 50)];
            on.insert("S", t.clone()).unwrap();
            off.insert("S", t).unwrap();
        }
        // ...then a burst of deletes...
        for _ in 0..rng.gen_range_usize(0, 200) {
            if next_id == 0 {
                break;
            }
            let key = proql_common::tup![rng.gen_range_i64(0, next_id)];
            let a = on.table_mut("S").unwrap().delete_by_key(&key);
            let b = off.table_mut("S").unwrap().delete_by_key(&key);
            assert_eq!(a, b, "round {round}: delete diverged");
        }
        // ...and occasionally a truncate.
        if rng.gen_range_usize(0, 5) == 0 {
            on.table_mut("S").unwrap().truncate();
            off.table_mut("S").unwrap().truncate();
        }
        let ton = on.table("S").unwrap();
        let toff = off.table("S").unwrap();
        assert_eq!(
            ton.scan(),
            toff.scan(),
            "round {round}: row storage diverged"
        );
        // Decode-on-output: the dictionary-encoded batch materializes the
        // exact values the plain table holds.
        let bon = ton.to_batch();
        let boff = toff.to_batch();
        assert_eq!(bon.len(), boff.len(), "round {round}: batch length");
        for c in 0..bon.arity() {
            for r in 0..bon.len() {
                assert_eq!(
                    bon.columns[c].value(r),
                    boff.columns[c].value(r),
                    "round {round}: cell ({r},{c})"
                );
            }
        }
        // The dictionary stays consistent with the column it encodes:
        // every resident string is interned exactly once.
        if let Some(dict) = ton.dictionary(1) {
            let mut seen = std::collections::BTreeSet::new();
            for s in dict.values() {
                assert!(
                    seen.insert(s.clone()),
                    "round {round}: duplicate dict entry {s}"
                );
            }
            for row in ton.iter() {
                if let Value::Str(s) = row.get(1) {
                    assert!(
                        dict.code_of(s.as_ref()).is_some(),
                        "round {round}: resident string {s:?} missing from dictionary"
                    );
                }
            }
        }
        // Query equivalence holds at every intermediate state, not just
        // the final one.
        let needle = word(&mut rng);
        let plan = Plan::scan("S").filter(Expr::col(1).eq(Expr::lit(needle)));
        let a = execute_with_opts(&on, &plan, ExecMode::Batch, Parallelism::Threads(4)).unwrap();
        let b = execute_with_opts(&off, &plan, ExecMode::Row, Parallelism::Serial).unwrap();
        assert_eq!(a.rows, b.rows, "round {round}: filter diverged");
    }
}

/// Dictionary-bearing snapshot frames round-trip exactly, and arbitrary
/// byte corruption or truncation never panics the decoder.
#[test]
fn snapshot_wire_roundtrips_and_corruption_never_panics() {
    let mut rng = SplitMix64::seed_from_u64(0x51A9);
    for case in 0..10 {
        let n_tables = rng.gen_range_usize(1, 4);
        let mut tables = Vec::new();
        for t in 0..n_tables {
            let n_rows = rng.gen_range_usize(0, 60);
            let rows: Vec<Tuple> = (0..n_rows)
                .map(|i| {
                    proql_common::tup![
                        i as i64,
                        word(&mut rng),
                        rng.gen_range_i64(0, 3) == 0,
                        word(&mut rng)
                    ]
                })
                .collect();
            tables.push((format!("T{t}"), rows));
        }
        let f = SnapshotFrame {
            version: rng.next_u64(),
            digest: rng.next_u64(),
            sealed_at_micros: rng.next_u64(),
            tables,
        };
        let bytes = encode_snapshot_frame(&f);
        assert_eq!(decode_snapshot_frame(&bytes).unwrap(), f, "case {case}");
        // Every strict prefix fails cleanly (all counts are declared up
        // front, so a cut payload is always detectably short).
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                decode_snapshot_frame(&bytes[..cut]).is_err(),
                "case {case}: prefix {cut} decoded"
            );
        }
        // Random single-byte corruption: the decoder may reject or may
        // produce a different (still well-formed) frame, but must never
        // panic or over-allocate.
        for _ in 0..200 {
            let mut bad = bytes.clone();
            let pos = rng.gen_range_usize(0, bad.len());
            bad[pos] ^= (rng.next_u64() % 255 + 1) as u8;
            let _ = decode_snapshot_frame(&bad);
        }
    }
}
