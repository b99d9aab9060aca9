//! PRNG property suite for relevance-filtered, grouped cache maintenance.
//!
//! Seeded chain and branched CDSS topologies carry a pool of cached
//! answers over the target relation: random `WHERE` ranges on the key
//! and on a non-key attribute (with `AND`, `OR` and `NOT`), each under a
//! plain projection and under every semiring. Random inserts, deletes
//! and value-changing replacements are applied one write at a time, and
//! after every write:
//!
//! * all entries are maintained together through [`maintain_outputs`],
//!   and every unchanged or patched entry must be digest-equal to a
//!   fresh computation at the new version;
//! * a second copy of every entry is maintained alone through
//!   [`maintain_output`], and must reach the same decision and the same
//!   answer as the grouped path.
//!
//! A second loop checks the read sets those entries are kept by. Chain
//! and branched topologies with an `Island` family, and Example 2.1 (a
//! cyclic family) with an `Island`, take random inserts and deletes.
//! Under both strategies, whenever a write set is disjoint from an
//! answer's prepared read set, a fresh computation at the new version
//! must be digest-equal to the answer at the old one.

use proql::engine::{Engine, EngineOptions, PreparedQuery, QueryOutput, Strategy};
use proql::{
    maintain_output, maintain_outputs, MaintainEntry, MaintainOutcome, MaintainResult,
    MaintainState,
};
use proql_cdss::topology::{build_system, build_system_with_island, CdssConfig, Topology};
use proql_cdss::update::delete_local;
use proql_cdss::SwissProtLike;
use proql_common::rng::SplitMix64;
use proql_common::{tup, Tuple, Value};
use proql_provgraph::system::example_2_1_with_island;
use proql_provgraph::ProvenanceSystem;
use proql_service::result_digest;
use std::collections::BTreeSet;

const ATTRS: usize = 4;
const BASE: usize = 12;
const MID: i64 = 500_000_000;

/// `None` for a plain projection, else a semiring and its `ASSIGNING`
/// clause: every semiring, the scalar ones with a leaf ladder on a stored
/// value, so that a value change alone moves the annotation.
fn wrappers() -> Vec<Option<(&'static str, String)>> {
    let leaf = |yes: &str, no: &str| {
        format!(
            "ASSIGNING EACH leaf_node $y {{ CASE $y.a0 < {MID} : SET {yes} DEFAULT : SET {no} }}"
        )
    };
    vec![
        None,
        Some(("DERIVABILITY", String::new())),
        Some(("TRUST", leaf("false", "true"))),
        Some(("CONFIDENTIALITY", leaf("secret", "public"))),
        Some(("WEIGHT", leaf("3", "1"))),
        Some(("COUNT", leaf("2", "1"))),
        Some(("LINEAGE", String::new())),
        Some(("PROBABILITY", String::new())),
        Some(("POLYNOMIAL", String::new())),
    ]
}

/// A random `WHERE` condition over `$x.k` and `$x.a0`.
fn random_condition(rng: &mut SplitMix64) -> String {
    let k = |rng: &mut SplitMix64| rng.gen_range_i64(0, 120);
    match rng.gen_range_usize(0, 6) {
        0 => format!("$x.k < {}", k(rng)),
        1 => format!("$x.k >= {}", k(rng)),
        2 => {
            let lo = k(rng);
            format!("$x.k >= {lo} AND $x.k < {}", lo + rng.gen_range_i64(1, 20))
        }
        3 => format!("$x.k < {} OR $x.k >= {}", k(rng) % 10, k(rng)),
        4 => format!("NOT $x.k < {} AND $x.a0 < {MID}", k(rng)),
        _ => format!("$x.a0 >= {MID} OR $x.k < {}", k(rng) % 12),
    }
}

fn query_text(cond: &str, wrapper: &Option<(&str, String)>) -> String {
    let projection = format!("FOR [R0a $x] INCLUDE PATH [$x] <-+ [] WHERE {cond} RETURN $x");
    match wrapper {
        None => projection,
        Some((semiring, assign)) => format!("EVALUATE {semiring} OF {{ {projection} }} {assign}"),
    }
}

/// One cached answer and its carry-over.
struct Cached {
    output: QueryOutput,
    state: Option<Box<MaintainState>>,
}

/// The writes: fresh inserts, deletes of live keys, and replacements
/// that delete a key and insert it again with a different `a0`, so the
/// provenance rows cancel out and only stored values change.
struct Writer {
    rng: SplitMix64,
    gen: SwissProtLike,
    peers: Vec<usize>,
    live: Vec<(usize, i64)>,
    next_key: i64,
}

impl Writer {
    fn insert(sys: &mut ProvenanceSystem, peer: usize, a: Tuple, b: Tuple) {
        sys.insert_local(&format!("R{peer}a"), a).unwrap();
        sys.insert_local(&format!("R{peer}b"), b).unwrap();
        sys.run_exchange().unwrap();
    }

    /// Apply one random write to `sys`; returns what it was.
    fn write(&mut self, sys: &mut ProvenanceSystem) -> String {
        let pick = self.rng.gen_range_usize(0, 10);
        if self.live.is_empty() || pick < 4 {
            let peer = self.peers[self.rng.gen_range_usize(0, self.peers.len())];
            let k = self.next_key;
            self.next_key += 1 + self.rng.gen_range_i64(0, 30);
            let (a, b) = self.gen.entry(k);
            Self::insert(sys, peer, a, b);
            self.live.push((peer, k));
            return format!("insert R{peer} k={k}");
        }
        let at = self.rng.gen_range_usize(0, self.live.len());
        let (peer, k) = self.live[at];
        let rel = format!("R{peer}a");
        if pick < 7 {
            self.live.swap_remove(at);
            delete_local(sys, &rel, &tup![k]).unwrap();
            return format!("delete R{peer} k={k}");
        }
        let local = format!("R{peer}a_l");
        let old = sys.db.table(&local).unwrap().get_by_key(&tup![k]).cloned();
        let old = old.expect("a live key has a local row");
        let mut values = old.values().to_vec();
        values[1] = Value::Int(match values[1] {
            Value::Int(v) if v < MID => MID + v,
            _ => 7,
        });
        let b = sys
            .db
            .table(&format!("R{peer}b_l"))
            .unwrap()
            .get_by_key(&tup![k])
            .cloned();
        delete_local(sys, &rel, &tup![k]).unwrap();
        // The b side survives the delete, so re-inserting it is a no-op.
        Self::insert(sys, peer, Tuple::new(values), b.expect("b side"));
        format!("replace R{peer} k={k}")
    }
}

fn digest_eq(a: &QueryOutput, b: &QueryOutput) -> bool {
    result_digest(a) == result_digest(b)
}

#[derive(Default, Debug)]
struct Tally {
    unchanged: usize,
    patched: usize,
    values_only: usize,
    fallbacks: usize,
    shared: usize,
}

fn run(topology: Topology, peers: usize, data_peers: Vec<usize>, seed: u64, steps: usize) -> Tally {
    let mut config = CdssConfig::new(peers, data_peers.clone(), BASE);
    config.attrs = ATTRS;
    config.seed = seed;
    let mut engine = Engine::new(build_system(topology, &config).unwrap());
    let mut rng = SplitMix64::seed_from_u64(seed);

    // Several queries share each condition, so groups form.
    let mut prepared: Vec<PreparedQuery> = Vec::new();
    for _ in 0..4 {
        let cond = random_condition(&mut rng);
        for wrapper in wrappers() {
            if rng.gen_range_usize(0, 3) > 0 {
                prepared.push(engine.prepare(&query_text(&cond, &wrapper)).unwrap());
            }
        }
    }
    let fresh = |engine: &Engine, p: &PreparedQuery| Cached {
        output: engine.execute(p).unwrap(),
        state: None,
    };
    let mut grouped: Vec<Cached> = prepared.iter().map(|p| fresh(&engine, p)).collect();
    let mut single: Vec<Cached> = prepared.iter().map(|p| fresh(&engine, p)).collect();

    let mut writer = Writer {
        rng: SplitMix64::seed_from_u64(seed ^ 0x5EED),
        gen: SwissProtLike::new(seed ^ 1, ATTRS),
        peers: data_peers,
        live: (0..BASE as i64)
            .map(|k| (config.data_peers[0], k))
            .collect(),
        next_key: 40,
    };
    let mut tally = Tally::default();
    for step in 0..steps {
        let mut sys = engine.sys.clone();
        let what = writer.write(&mut sys);
        let next = Engine::with_options(sys, engine.options.clone());
        let entries = prepared
            .iter()
            .zip(grouped.iter_mut())
            .map(|(p, c)| MaintainEntry {
                prepared: p,
                previous: &c.output,
                state: c.state.take(),
            })
            .collect();
        let outcomes = maintain_outputs(&engine, &next, entries);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let p = &prepared[i];
            let ctx = format!("seed {seed} step {step} ({what}) query {:?}", p.query);
            let truth = next.execute(p).unwrap();
            tally.shared += usize::from(outcome.shared);
            let (g_patched, g_reason) = match outcome.outcome.unwrap() {
                MaintainOutcome::Unchanged { state } => {
                    tally.unchanged += 1;
                    grouped[i].state = state;
                    (Some(0), None)
                }
                MaintainOutcome::Patched {
                    output,
                    rows_patched,
                    state,
                } => {
                    tally.patched += 1;
                    tally.values_only += usize::from(rows_patched == 0);
                    grouped[i] = Cached {
                        output: *output,
                        state,
                    };
                    (Some(rows_patched), None)
                }
                MaintainOutcome::Fallback(reason) => {
                    tally.fallbacks += 1;
                    grouped[i] = fresh(&next, p);
                    (None, Some(reason.as_str()))
                }
            };
            assert!(digest_eq(&grouped[i].output, &truth), "grouped: {ctx}");

            let state = single[i].state.take();
            let alone = maintain_output(&engine, &next, p, &single[i].output, state).unwrap();
            match alone {
                MaintainResult::Maintained {
                    output,
                    rows_patched,
                    state,
                } => {
                    assert_eq!(Some(rows_patched), g_patched, "per entry: {ctx}");
                    single[i] = Cached {
                        output: *output,
                        state,
                    };
                }
                MaintainResult::Fallback(reason) => {
                    assert_eq!(Some(reason), g_reason, "per entry: {ctx}");
                    single[i] = fresh(&next, p);
                }
            }
            assert!(
                digest_eq(&single[i].output, &grouped[i].output),
                "per entry: {ctx}"
            );
        }
        engine = next;
    }
    tally
}

#[test]
fn grouped_relevance_maintenance_matches_fresh_and_per_entry() {
    let mut total = Tally::default();
    for seed in [3u64, 11] {
        for (topology, peers, data) in [
            (Topology::Chain, 4, vec![3]),
            (Topology::Branched, 5, vec![3, 4]),
        ] {
            let t = run(topology, peers, data, seed, 14);
            total.unchanged += t.unchanged;
            total.patched += t.patched;
            total.values_only += t.values_only;
            total.fallbacks += t.fallbacks;
            total.shared += t.shared;
        }
    }
    // The suite must exercise every outcome it checks.
    assert!(total.unchanged > 0, "{total:?}");
    assert!(total.patched > 0, "{total:?}");
    assert!(total.values_only > 0, "no value-only round: {total:?}");
    assert!(total.fallbacks > 0, "{total:?}");
    assert!(total.shared > 0, "{total:?}");
}

/// A relation family the read-set loop writes to: the local rows an
/// insert of key `k` adds (exchanged together), and the `(relation, key)`
/// a delete of `k` removes.
struct Source {
    rows: Box<dyn FnMut(i64) -> Vec<(String, Tuple)>>,
    key_of: Box<dyn Fn(i64) -> (String, Tuple)>,
    keys: std::ops::Range<i64>,
    live: Vec<i64>,
}

impl Source {
    fn new(
        keys: std::ops::Range<i64>,
        rows: impl FnMut(i64) -> Vec<(String, Tuple)> + 'static,
        key_of: impl Fn(i64) -> (String, Tuple) + 'static,
    ) -> Self {
        Source {
            rows: Box::new(rows),
            key_of: Box::new(key_of),
            keys,
            live: Vec::new(),
        }
    }

    /// Insert a key not yet written, or delete a live one.
    fn write(&mut self, rng: &mut SplitMix64, sys: &mut ProvenanceSystem) -> String {
        let k = rng.gen_range_i64(self.keys.start, self.keys.end);
        if let Some(at) = self.live.iter().position(|&l| l == k) {
            self.live.swap_remove(at);
            let (rel, key) = (self.key_of)(k);
            delete_local(sys, &rel, &key).unwrap();
            return format!("delete {rel}{key}");
        }
        self.live.push(k);
        let rows = (self.rows)(k);
        let what = format!("insert {:?}", rows[0]);
        for (rel, row) in rows {
            sys.insert_local(&rel, row).unwrap();
        }
        sys.run_exchange().unwrap();
        what
    }
}

fn island(keys: std::ops::Range<i64>) -> Source {
    Source::new(
        keys,
        |k| vec![("Island".into(), tup![k, k * 7])],
        |k| ("Island".into(), tup![k]),
    )
}

/// Random writes over `sources`; after each, every query is prepared on
/// the old snapshot under both strategies. Returns how many answers the
/// write could not reach by their read sets.
fn check_read_sets(
    mut sys: ProvenanceSystem,
    mut sources: Vec<Source>,
    queries: &[String],
    seed: u64,
    steps: usize,
) -> usize {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let engine = |sys: &ProvenanceSystem, strategy| {
        let options = EngineOptions {
            strategy,
            ..EngineOptions::default()
        };
        Engine::with_options(sys.clone(), options)
    };
    let mut disjoint = 0;
    for step in 0..steps {
        let mut next = sys.clone();
        let at = rng.gen_range_usize(0, sources.len());
        let what = sources[at].write(&mut rng, &mut next);
        let write_set = next.write_set_since(sys.version()).expect("tracked writes");
        assert!(!write_set.is_empty(), "{what}");
        for strategy in [Strategy::Unfold, Strategy::Graph] {
            let (old, new) = (engine(&sys, strategy), engine(&next, strategy));
            // The graph read set never exceeds the "every table and view"
            // set graph answers used to declare.
            let mut everything: BTreeSet<String> =
                sys.db.table_names().map(str::to_string).collect();
            everything.extend(sys.db.view_names().map(str::to_string));
            for q in queries {
                let p = old.prepare(q).unwrap();
                if strategy == Strategy::Graph {
                    assert!(p.touched.is_subset(&everything), "{q}");
                }
                if p.touched.is_disjoint(&write_set) {
                    disjoint += 1;
                    let before = old.execute(&p).unwrap();
                    let after = new.query(q).unwrap();
                    assert!(
                        digest_eq(&before, &after),
                        "seed {seed} step {step} ({what}, writes {write_set:?}) \
                         {strategy:?} {q}: reads {:?}",
                        p.touched
                    );
                }
            }
        }
        sys = next;
    }
    disjoint
}

#[test]
fn write_sets_disjoint_from_read_sets_change_no_answer() {
    let projections = |relations: &[&str]| -> Vec<String> {
        let mut out = Vec::new();
        for r in relations {
            let q = format!("FOR [{r} $x] INCLUDE PATH [$x] <-+ [] RETURN $x");
            out.push(format!("EVALUATE LINEAGE OF {{ {q} }}"));
            out.push(q);
        }
        out
    };
    for seed in [5u64, 17] {
        let mut disjoint = 0;
        for (topology, peers, data) in [
            (Topology::Chain, 4, vec![3]),
            (Topology::Branched, 5, vec![3, 4]),
        ] {
            let mut config = CdssConfig::new(peers, data.clone(), 6);
            config.attrs = ATTRS;
            config.seed = seed;
            let sys = build_system_with_island(topology, &config, 4).unwrap();
            let mut sources = vec![island(4..12)];
            for peer in data {
                let mut gen = SwissProtLike::new(seed ^ peer as u64, ATTRS);
                sources.push(Source::new(
                    40..60,
                    move |k| {
                        let (a, b) = gen.entry(k);
                        vec![(format!("R{peer}a"), a), (format!("R{peer}b"), b)]
                    },
                    move |k| (format!("R{peer}a"), tup![k]),
                ));
            }
            let queries = projections(&["R0a", "R1a", "IslandOut"]);
            disjoint += check_read_sets(sys, sources, &queries, seed, 10);
        }
        // Example 2.1's m1/m3 cycle, both strategies; keys 3.. are free.
        let sources = vec![
            island(4..10),
            Source::new(
                3..9,
                |k| vec![("A".into(), tup![k, format!("sn{k}"), 5 + k % 3])],
                |k| ("A".into(), tup![k]),
            ),
            Source::new(
                1..7,
                |k| vec![("N".into(), tup![k, format!("nn{k}"), false])],
                |k| ("N".into(), tup![k, format!("nn{k}")]),
            ),
            Source::new(
                3..9,
                |k| vec![("C".into(), tup![k, format!("cn{k}")])],
                |k| ("C".into(), tup![k, format!("cn{k}")]),
            ),
            Source::new(
                0..6,
                |k| vec![("O".into(), tup![format!("o{k}"), k, false])],
                |k| ("O".into(), tup![format!("o{k}")]),
            ),
        ];
        let sys = example_2_1_with_island(4).unwrap();
        let queries = projections(&["O", "C", "N", "A", "IslandOut"]);
        disjoint += check_read_sets(sys, sources, &queries, seed, 16);
        assert!(disjoint > 0, "seed {seed} never wrote outside a read set");
    }
}
