//! Prepare once per query shape: the oracles behind the service's
//! shape-keyed plan cache.
//!
//! * Binding a request to a shape prepared for other literals yields the
//!   translation `translate()` gives the literal text, static `WHERE`
//!   decisions on constant-term columns included, and the same read set
//!   as a literal prepare.
//! * Every answer served through a bound shape digest-equals a fresh
//!   `Engine::query`, under every semiring, with literals spread over
//!   several selectivity buckets.
//! * Shapes, plan keys and answers are told apart where they must be.

use proql::engine::{Engine, EngineOptions, Strategy};
use proql::parse_query;
use proql::shape::lift_literals;
use proql::translate::{translate, TranslateOptions};
use proql_cdss::topology::{build_system, CdssConfig, Topology};
use proql_common::rng::SplitMix64;
use proql_common::{tup, Schema, ValueType};
use proql_provgraph::system::example_2_1;
use proql_provgraph::ProvenanceSystem;
use proql_service::{result_digest, PlanReuse, ServiceCore};
use std::collections::{BTreeMap, BTreeSet};

const SEMIRINGS: [&str; 8] = [
    "DERIVABILITY",
    "TRUST",
    "CONFIDENTIALITY",
    "WEIGHT",
    "LINEAGE",
    "PROBABILITY",
    "COUNT",
    "POLYNOMIAL",
];

fn unfold() -> EngineOptions {
    EngineOptions {
        strategy: Strategy::Unfold,
        ..EngineOptions::default()
    }
}

/// One literal's domain in a generated condition.
#[derive(Debug, Clone, Copy)]
enum Lit {
    /// An integer in `lo..hi`.
    Int(i64, i64),
    /// `true` or `false`.
    Bool,
    /// One of a few strings, some of them present in the data.
    Str(&'static [&'static str]),
}

/// A condition with its literals still to be drawn: the shape of a family
/// of `WHERE` clauses.
#[derive(Debug, Clone)]
enum Cond {
    Cmp(&'static str, &'static str, Lit),
    And(Vec<Cond>),
    Or(Vec<Cond>),
    Not(Box<Cond>),
}

impl Cond {
    fn random(rng: &mut SplitMix64, attrs: &[(&'static str, Lit)], depth: usize) -> Cond {
        const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
        let pick = rng.gen_range_usize(0, if depth == 0 { 1 } else { 4 });
        let sub = |rng: &mut SplitMix64| Cond::random(rng, attrs, depth - 1);
        match pick {
            0 => {
                let (attr, lit) = attrs[rng.gen_range_usize(0, attrs.len())];
                let op = match lit {
                    Lit::Int(..) => OPS[rng.gen_range_usize(0, OPS.len())],
                    Lit::Bool | Lit::Str(_) => OPS[rng.gen_range_usize(0, 2)],
                };
                Cond::Cmp(attr, op, lit)
            }
            1 => Cond::And(vec![sub(rng), sub(rng)]),
            2 => Cond::Or(vec![sub(rng), sub(rng)]),
            _ => Cond::Not(Box::new(sub(rng))),
        }
    }

    /// Render with fresh literals.
    fn text(&self, rng: &mut SplitMix64) -> String {
        match self {
            Cond::Cmp(attr, op, lit) => {
                let value = match *lit {
                    Lit::Int(lo, hi) => rng.gen_range_i64(lo, hi).to_string(),
                    Lit::Bool => ["true", "false"][rng.gen_range_usize(0, 2)].to_string(),
                    Lit::Str(options) => {
                        format!("'{}'", options[rng.gen_range_usize(0, options.len())])
                    }
                };
                format!("$x.{attr} {op} {value}")
            }
            Cond::And(parts) => {
                let parts: Vec<String> = parts.iter().map(|p| p.text(rng)).collect();
                format!("({})", parts.join(" AND "))
            }
            Cond::Or(parts) => {
                let parts: Vec<String> = parts.iter().map(|p| p.text(rng)).collect();
                format!("({})", parts.join(" OR "))
            }
            Cond::Not(inner) => format!("NOT {}", inner.text(rng)),
        }
    }
}

/// A topology under test: its system, the relation queries start from,
/// and the attributes conditions compare.
struct Case {
    name: &'static str,
    sys: ProvenanceSystem,
    relation: &'static str,
    attrs: Vec<(&'static str, Lit)>,
}

fn chain_or_tree(topology: Topology) -> ProvenanceSystem {
    let config = CdssConfig {
        attrs: 4,
        ..CdssConfig::upstream_data(5, 3, 40)
    };
    build_system(topology, &config).unwrap()
}

/// `Island` and `Shore` feed `IslandOut` through mappings whose heads
/// set `hot` to a constant, so `$x.hot = …` is decided statically per
/// alternative and prunes the other mapping's.
fn island() -> ProvenanceSystem {
    let mut sys = ProvenanceSystem::new();
    for name in ["Island", "Shore"] {
        sys.add_relation_with_local(
            Schema::build(name, &[("k", ValueType::Int), ("v", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
    }
    sys.add_relation_with_local(
        Schema::build(
            "IslandOut",
            &[
                ("k", ValueType::Int),
                ("v", ValueType::Int),
                ("hot", ValueType::Bool),
            ],
            &[0],
        )
        .unwrap(),
    )
    .unwrap();
    sys.add_mapping_text("misl: IslandOut(k, v, true) :- Island(k, v)")
        .unwrap();
    sys.add_mapping_text("mshore: IslandOut(k, v, false) :- Shore(k, v)")
        .unwrap();
    for k in 0..40i64 {
        sys.insert_local("Island", tup![k, k * 7]).unwrap();
        sys.insert_local("Shore", tup![100 + k, k * 3]).unwrap();
    }
    sys.run_exchange().unwrap();
    sys
}

fn cases() -> Vec<Case> {
    let keyed = vec![("k", Lit::Int(-5, 45)), ("a0", Lit::Int(-50, 50))];
    vec![
        Case {
            name: "chain",
            sys: chain_or_tree(Topology::Chain),
            relation: "R0a",
            attrs: keyed.clone(),
        },
        Case {
            name: "branched",
            sys: chain_or_tree(Topology::Branched),
            relation: "R0a",
            attrs: keyed,
        },
        Case {
            name: "island",
            sys: island(),
            relation: "IslandOut",
            attrs: vec![
                ("k", Lit::Int(-5, 145)),
                ("v", Lit::Int(0, 280)),
                ("hot", Lit::Bool),
            ],
        },
        Case {
            // Example 2.1 unfolded: `animal` is the constant `true` in both
            // of O's mapping heads.
            name: "example",
            sys: example_2_1().unwrap(),
            relation: "O",
            attrs: vec![
                ("h", Lit::Int(0, 10)),
                ("animal", Lit::Bool),
                ("name", Lit::Str(&["sn1", "cn2", "zz"])),
            ],
        },
    ]
}

fn projection(relation: &str, cond: &str) -> String {
    format!("FOR [{relation} $x] INCLUDE PATH [$x] <-+ [] WHERE {cond} RETURN $x")
}

#[test]
fn bound_translations_equal_translate_of_the_literal_text() {
    let mut rng = SplitMix64::seed_from_u64(0x5A9E);
    let opts = TranslateOptions::default();
    for case in cases() {
        let engine = Engine::with_options(case.sys, unfold());
        let (mut bound_static, mut checked) = (0, 0);
        for _ in 0..6 {
            let cond = Cond::random(&mut rng, &case.attrs, 2);
            // The shape is prepared for the first literals and bound to
            // every later set.
            let first = parse_query(&projection(case.relation, &cond.text(&mut rng))).unwrap();
            let shape = engine.prepare_shape(&first).unwrap();
            let (shape_key, _) = lift_literals(&first);
            for _ in 0..8 {
                let text = projection(case.relation, &cond.text(&mut rng));
                let query = parse_query(&text).unwrap();
                let (key, literals) = lift_literals(&query);
                assert_eq!(key, shape_key, "{}: {text}", case.name);
                let expected = translate(&engine.sys, &query, None, &opts);
                let bound = engine.bind_shape(&shape, query, literals);
                let (expected, bound) = match (expected, bound) {
                    (Ok(e), Ok(b)) => (e, b),
                    (Err(e), Err(b)) => {
                        assert_eq!(e.to_string(), b.to_string(), "{}: {text}", case.name);
                        continue;
                    }
                    (e, b) => panic!("{}: {text}: {e:?} vs {b:?}", case.name),
                };
                assert_eq!(
                    bound.translation(),
                    Some(&expected),
                    "{}: {text}",
                    case.name
                );
                bound_static += expected.stats.dropped;
                checked += 1;
                // The read set a bound query serves under is the literal one.
                let template = engine.plan_template(&shape, &bound).unwrap();
                let prepared = engine.bind_plans(&shape, bound, &template);
                assert_eq!(
                    prepared.touched,
                    engine.prepare(&text).unwrap().touched,
                    "{}: {text}",
                    case.name
                );
            }
        }
        assert!(checked > 20, "{}: only {checked} bindings", case.name);
        if matches!(case.name, "island" | "example") {
            assert!(bound_static > 0, "{}: nothing pruned statically", case.name);
        }
    }
}

#[test]
fn served_answers_digest_equal_a_fresh_query_under_every_semiring() {
    let mut rng = SplitMix64::seed_from_u64(0xD16E);
    for case in cases() {
        let core = ServiceCore::new(case.sys, unfold());
        let oracle = Engine::with_options(core.snapshot().engine.sys.clone(), unfold());
        // Plan keys seen per shape, split into the alternatives' part and
        // the per-slot buckets.
        let mut keys: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        // A boolean attribute, where the topology has one: a constant in
        // every mapping head, so its literal decides alternatives.
        let flag = case.attrs.iter().find(|(_, lit)| matches!(lit, Lit::Bool));
        for round in 0..4 {
            let cond = match (round, flag) {
                // One range shape over the key, so constants land in
                // several buckets.
                (0, _) => Cond::Cmp(case.attrs[0].0, ">=", case.attrs[0].1),
                // Requests of one shape that keep different alternatives.
                (1, Some(&(attr, lit))) => Cond::Or(vec![
                    Cond::Cmp(attr, "=", lit),
                    Cond::Cmp(case.attrs[0].0, "<", case.attrs[0].1),
                ]),
                _ => Cond::random(&mut rng, &case.attrs, 1),
            };
            for _ in 0..6 {
                let cond = cond.text(&mut rng);
                let plain = projection(case.relation, &cond);
                let texts = std::iter::once(plain.clone()).chain(
                    SEMIRINGS
                        .iter()
                        .map(|s| format!("EVALUATE {s} OF {{ {plain} }}")),
                );
                for text in texts {
                    let fresh = oracle.query(&text);
                    let served = core.query(&text);
                    let (fresh, served) = match (fresh, served) {
                        (Ok(f), Ok(s)) => (f, s),
                        (Err(f), Err(s)) => {
                            assert_eq!(f.to_string(), s.to_string(), "{}: {text}", case.name);
                            continue;
                        }
                        (f, s) => panic!("{}: {text}: {f:?} vs {s:?}", case.name),
                    };
                    assert_eq!(
                        result_digest(&served.output),
                        result_digest(&fresh),
                        "{}: {text}",
                        case.name
                    );
                    assert_eq!(
                        served.output.touched, fresh.touched,
                        "{}: {text}",
                        case.name
                    );
                    let query = parse_query(&text).unwrap();
                    let (shape_key, literals) = lift_literals(&query);
                    let shape = oracle.prepare_shape(&query).unwrap();
                    let bound = oracle.bind_shape(&shape, query, literals).unwrap();
                    keys.entry(shape_key).or_default().insert(bound.plan_key);
                }
            }
        }
        let stats = core.stats();
        assert!(
            stats.plans.shape_hits > 0,
            "{}: {:?}",
            case.name,
            stats.plans
        );
        // Some shape met the same alternatives with literals in different
        // buckets, and got a plan for each.
        let bucketed = keys.values().any(|plan_keys| {
            let by_alternatives: BTreeMap<&str, usize> =
                plan_keys.iter().fold(BTreeMap::new(), |mut m, k| {
                    *m.entry(k.split('|').next().unwrap()).or_default() += 1;
                    m
                });
            by_alternatives.values().any(|&n| n >= 2)
        });
        assert!(bucketed, "{}: no two buckets under one shape", case.name);
    }
}

#[test]
fn whitespace_in_a_string_literal_shares_the_shape_not_the_answer() {
    let mut sys = example_2_1().unwrap();
    sys.insert_local("A", tup![9, "a b", 3]).unwrap();
    sys.run_exchange().unwrap();
    let core = ServiceCore::new(sys, unfold());
    let q = |name: &str| projection("O", &format!("$x.name = '{name}'"));
    let one = core.query(&q("a b")).unwrap();
    let two = core.query(&q("a  b")).unwrap();
    assert_eq!(one.plan_cache, Some(PlanReuse::Miss));
    assert!(!two.cache_hit, "the result cache keys by exact text");
    assert_eq!(two.plan_cache, Some(PlanReuse::Bound));
    assert_eq!(one.output.projection.bindings.len(), 1);
    assert!(two.output.projection.bindings.is_empty());
    let stats = core.stats();
    assert_eq!((stats.shape_entries, stats.plan_entries), (1, 1));
}

#[test]
fn an_int_and_a_string_literal_do_not_share_a_plan() {
    let core = ServiceCore::new(example_2_1().unwrap(), unfold());
    let int = core.query(&projection("O", "$x.h = 5")).unwrap();
    let text = core.query(&projection("O", "$x.h = '5'")).unwrap();
    assert_eq!(int.plan_cache, Some(PlanReuse::Miss));
    assert_eq!(text.plan_cache, Some(PlanReuse::Planned));
    assert!(!int.output.projection.bindings.is_empty());
    assert!(text.output.projection.bindings.is_empty());
    let stats = core.stats();
    assert_eq!((stats.shape_entries, stats.plan_entries), (1, 2));
}

#[test]
fn explain_of_a_bound_query_prints_the_request_constants() {
    let core = ServiceCore::new(example_2_1().unwrap(), unfold());
    // Both literals lie past every `h`, so both fall in one bucket.
    let explain = |h: i64| format!("EXPLAIN {}", projection("O", &format!("$x.h >= {h}")));
    core.query(&explain(1_234_567)).unwrap();
    let resp = core.query(&explain(7_654_321)).unwrap();
    assert_eq!(resp.plan_cache, Some(PlanReuse::Bound));
    let plan = resp.output.plan.as_deref().expect("EXPLAIN returns a plan");
    assert!(plan.contains(">= 7654321"), "{plan}");
    assert!(!plan.contains("1234567") && !plan.contains('?'), "{plan}");
}

#[test]
fn fresh_constants_cost_one_plan_per_shape_and_bucket() {
    // `miss_unfold`'s pattern: five query kinds over one range predicate,
    // every text fresh.
    let sys = build_system(
        Topology::Chain,
        &CdssConfig {
            attrs: 4,
            ..CdssConfig::upstream_data(4, 2, 60)
        },
    )
    .unwrap();
    let core = ServiceCore::new(sys, EngineOptions::default());
    let kinds = ["", "DERIVABILITY", "TRUST", "COUNT", "LINEAGE"];
    let mut texts = BTreeSet::new();
    for g in 0..50u64 {
        let semiring = kinds[(g % 5) as usize];
        let lo = (g * 37) % 52;
        let plain = projection("R0a", &format!("$x.k >= {lo} AND $x.k < {}", lo + 8));
        let text = if semiring.is_empty() {
            plain
        } else {
            format!("EVALUATE {semiring} OF {{ {plain} }}")
        };
        assert!(texts.insert(text.clone()), "texts must be fresh");
        let fresh = core.snapshot().engine.query(&text).unwrap();
        let served = core.query(&text).unwrap();
        assert_eq!(
            result_digest(&served.output),
            result_digest(&fresh),
            "{text}"
        );
    }
    let stats = core.stats();
    assert_eq!(stats.cache.hits, 0);
    assert_eq!((stats.plans.misses, stats.plans.shape_hits), (5, 45));
    assert_eq!(stats.shape_entries, 5);
    // One compile per (shape, plan key), never two.
    assert_eq!(stats.plans.plan_misses, stats.plan_entries);
    assert_eq!(stats.plans.capacity_evictions, 0);
    assert!(
        stats.plan_entries < 50,
        "bucketed keys must be shared: {}",
        stats.plan_entries
    );
}
