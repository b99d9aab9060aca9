//! Everything derived from `--seed`: the CDSS instance, the query texts
//! and the operation sequences. The program under test sees only these
//! generated inputs, never the seed.

use proql::engine::Strategy;
use proql_cdss::workload::SwissProtLike;
use proql_common::rng::SplitMix64;
use proql_common::{Result, Schema, Tuple, Value, ValueType};
use proql_provgraph::ProvenanceSystem;

/// The benchmark's workloads; `BENCHMARK.json` lists the same names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MissUnfold,
    MissGraph,
    HotRead,
    WriteMixed,
    ReadMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MissUnfold,
        Workload::MissGraph,
        Workload::HotRead,
        Workload::WriteMixed,
        Workload::ReadMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MissUnfold => "miss_unfold",
            Workload::MissGraph => "miss_graph",
            Workload::HotRead => "hot_read",
            Workload::WriteMixed => "write_mixed",
            Workload::ReadMixed => "read_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload issues writes (the mixed pair shares one
    /// traffic mix and differs in whose latency it reports).
    pub fn is_mixed(self) -> bool {
        matches!(self, Workload::WriteMixed | Workload::ReadMixed)
    }

    /// Instance sizes. They are small on purpose: every timed operation
    /// type must reach 1,100 samples inside one window on two cores, and
    /// a write maintains every hot cache entry before it is acknowledged.
    pub fn spec(self) -> Spec {
        match self {
            // Chain and branched topology side by side; 4 and 5 unfolded
            // rules for the two target queries.
            Workload::MissUnfold | Workload::HotRead => Spec {
                chain: 4,
                chain_data: 2,
                tree: 5,
                base: 200,
                island: 0,
                strategy: Strategy::Auto,
            },
            Workload::MissGraph => Spec {
                chain: 0,
                chain_data: 0,
                tree: 7,
                base: 200,
                island: 0,
                strategy: Strategy::Graph,
            },
            Workload::WriteMixed | Workload::ReadMixed => Spec {
                chain: 3,
                chain_data: 1,
                tree: 0,
                base: 50,
                island: 64,
                strategy: Strategy::Auto,
            },
        }
    }
}

/// Shape of one generated CDSS instance.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Chain peers `R0 <- R1 <- ...` (paper Figure 5); 0 omits the chain.
    pub chain: usize,
    /// How many of the most upstream chain peers hold base data.
    pub chain_data: usize,
    /// Branched peers `T{i} <- T{2i+1}, T{2i+2}` (paper Figure 6) with
    /// base data at the leaves; 0 omits the tree.
    pub tree: usize,
    /// Entries per data peer (the paper's base size).
    pub base: usize,
    /// Tuples in the disconnected `Island -> IslandOut` family.
    pub island: usize,
    /// Engine strategy the service runs with.
    pub strategy: Strategy,
}

impl Spec {
    /// The most upstream chain peer, where `write_mixed` writes.
    pub fn top_peer(&self) -> usize {
        self.chain - 1
    }
}

/// Build the instance: both topologies in one system (they share no
/// relation, so neither query family reads the other's tables), local
/// data at the configured peers, exchanged with provenance. The peer
/// schemas and mappings are those of `proql_cdss::topology`; only the
/// relation prefixes differ so chain and tree can coexist.
pub fn build_instance(seed: u64, spec: &Spec) -> Result<ProvenanceSystem> {
    let mut sys = ProvenanceSystem::new();
    let mut gen = SwissProtLike::new(seed, SwissProtLike::ATTRS);
    let (na, nb) = gen.split();
    let xs: Vec<String> = (0..na).map(|j| format!("x{j}")).collect();
    let ys: Vec<String> = (0..nb).map(|j| format!("y{j}")).collect();
    let (xs, ys) = (xs.join(", "), ys.join(", "));
    for (pfx, peers, branched) in [("R", spec.chain, false), ("T", spec.tree, true)] {
        for i in 0..peers {
            sys.add_relation_with_local(gen.schema_a(&format!("{pfx}{i}a")))?;
            sys.add_relation_with_local(gen.schema_b(&format!("{pfx}{i}b")))?;
        }
        for c in 1..peers {
            let p = if branched { (c - 1) / 2 } else { c - 1 };
            sys.add_mapping_text(&format!(
                "m{pfx}{c}: {pfx}{p}a(k, {xs}), {pfx}{p}b(k, {ys}) :- \
                 {pfx}{c}a(k, {xs}), {pfx}{c}b(k, {ys})"
            ))?;
        }
    }
    if spec.island > 0 {
        for name in ["Island", "IslandOut"] {
            sys.add_relation_with_local(Schema::build(
                name,
                &[("k", ValueType::Int), ("v", ValueType::Int)],
                &[0],
            )?)?;
        }
        sys.add_mapping_text("misl: IslandOut(k, v) :- Island(k, v)")?;
        for k in 0..spec.island as i64 {
            sys.insert_local("Island", island_tuple(k))?;
        }
    }
    let chain_data = spec.chain - spec.chain_data..spec.chain;
    let tree_data = spec.tree / 2..spec.tree;
    for (pfx, peers) in [("R", chain_data), ("T", tree_data)] {
        for peer in peers {
            for e in 0..spec.base {
                let (ta, tb) = gen.entry(e as i64);
                sys.insert_local(&format!("{pfx}{peer}a"), ta)?;
                sys.insert_local(&format!("{pfx}{peer}b"), tb)?;
            }
        }
    }
    sys.run_exchange()?;
    Ok(sys)
}

fn island_tuple(k: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::Int(k * 7)])
}

/// Comma-separated rendering the `INSERT`/`DELETE` verbs parse back.
fn values_text(t: &Tuple) -> String {
    let vals: Vec<String> = (0..t.arity()).map(|i| t.get(i).to_string()).collect();
    vals.join(",")
}

const PATH: &str = "INCLUDE PATH [$x] <-+ []";

fn projection(rel: &str, cond: &str) -> String {
    format!("FOR [{rel} $x] {PATH} WHERE {cond} RETURN $x")
}

fn evaluate(semiring: &str, rel: &str, cond: &str) -> String {
    format!("EVALUATE {semiring} OF {{ {} }}", projection(rel, cond))
}

/// Request `g` of a cache-missing workload. Every text within a run of
/// 14,000 consecutive requests is distinct (the `(lo, width)` pair walks
/// a full cycle per query kind), which is far more than the 1,024 result
/// entries and 256 plans the service keeps, so both caches miss on every
/// request. Result sizes stay within 8..=24 bindings.
pub fn miss_query(workload: Workload, seed: u64, g: u64) -> String {
    let base = workload.spec().base as u64;
    let kinds: [(&str, &str); 5] = match workload {
        Workload::MissGraph => [
            ("LINEAGE", "T0a"),
            ("PROBABILITY", "T0a"),
            ("POLYNOMIAL", "T0a"),
            ("LINEAGE", "T0b"),
            ("PROBABILITY", "T0b"),
        ],
        _ => [
            ("", "R0a"),
            ("", "T0a"),
            ("DERIVABILITY", "R0a"),
            ("TRUST", "T0a"),
            ("COUNT", "T0a"),
        ],
    };
    let n = kinds.len() as u64;
    let (semiring, rel) = kinds[((g + seed) % n) as usize];
    let j = g / n;
    let starts = base - 24;
    // 37 is coprime to `starts` (176), so `lo` visits every start once
    // per cycle before `width` moves on.
    let lo = (j * 37 + seed * 11) % starts;
    let width = 8 + (j / starts) % 17;
    let cond = format!("$x.k >= {lo} AND $x.k < {}", lo + width);
    if semiring.is_empty() {
        projection(rel, &cond)
    } else {
        evaluate(semiring, rel, &cond)
    }
}

/// Texts kept resident by `hot_read`: 64 < 1,024 result-cache entries.
pub const HOT_SET: usize = 64;

/// The `hot_read` query texts, in popularity-rank order (rank 0 is the
/// most popular). Rank `r` is always of kind `r % 8`, so each kind draws
/// the same share of the traffic whatever the seed; the seed rotates
/// which of a kind's eight key ranges (all 16 bindings wide) sits at
/// which rank, and fills the instance the ranges select from.
pub fn hot_queries(seed: u64) -> Vec<String> {
    const KINDS: [(&str, &str); 8] = [
        ("", "R0a"),
        ("", "T0a"),
        ("", "R0b"),
        ("", "T0b"),
        ("DERIVABILITY", "R0a"),
        ("TRUST", "T0a"),
        ("COUNT", "T0a"),
        ("LINEAGE", "R0a"),
    ];
    (0..HOT_SET as u64)
        .map(|rank| {
            let (semiring, rel) = KINDS[rank as usize % KINDS.len()];
            let lo = (rank / 8 + seed) % 8 * 20;
            let cond = format!("$x.k >= {lo} AND $x.k < {}", lo + 16);
            if semiring.is_empty() {
                projection(rel, &cond)
            } else {
                evaluate(semiring, rel, &cond)
            }
        })
        .collect()
}

/// Size of the hot set the mixed workloads' reader replays.
pub const MIXED_HOT_SET: usize = 16;

/// The mixed workloads' hot set: 12 queries incremental maintenance can
/// patch across a write, then 4 (`LINEAGE` / `PROBABILITY`, set-valued
/// semirings) that fall back to eviction by design, in a seeded order.
pub fn mixed_queries(seed: u64) -> Vec<String> {
    let mut out = vec![
        projection("R0a", "$x.k >= 0"),
        projection("R0a", "$x.k >= 10"),
        projection("R0a", "$x.k < 50"),
        projection("R1a", "$x.k >= 0"),
        projection("R0b", "$x.k < 20"),
        projection("R1b", "$x.k >= 30"),
        evaluate("DERIVABILITY", "R0a", "$x.k >= 0"),
        evaluate("DERIVABILITY", "R0a", "$x.k < 30"),
        evaluate("TRUST", "R0a", "$x.k >= 0"),
        evaluate("COUNT", "R0a", "$x.k >= 0"),
        evaluate("COUNT", "R1a", "$x.k < 40"),
        evaluate("WEIGHT", "R0a", "$x.k < 40"),
        evaluate("LINEAGE", "R0a", "$x.k < 16"),
        evaluate("LINEAGE", "R1a", "$x.k < 16"),
        evaluate("PROBABILITY", "R0a", "$x.k < 16"),
        evaluate("PROBABILITY", "R1a", "$x.k < 16"),
    ];
    debug_assert_eq!(out.len(), MIXED_HOT_SET);
    shuffle(&mut out, seed);
    out
}

fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5EED_0BDE);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range_usize(0, i + 1));
    }
}

/// Zipf(1.0) sampler over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    rng: SplitMix64,
}

impl Zipf {
    pub fn new(n: usize, seed: u64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf {
            cdf,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    pub fn next_rank(&mut self) -> usize {
        let u = self.rng.gen_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Poisson arrival offsets (seconds from phase start) at `rate` per
/// second, up to `duration_s`.
pub fn arrivals(rate: f64, duration_s: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = Vec::with_capacity((rate * duration_s) as usize + 16);
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; 1-u is in (0, 1].
        t += -(1.0 - rng.gen_f64()).ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

/// One write of the mixed workloads, in wire and in typed form.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteOp {
    pub insert: bool,
    pub relation: String,
    /// The full tuple for an insert, the key for a delete.
    pub tuple: Tuple,
}

impl WriteOp {
    /// Argument text of the `INSERT` / `DELETE` verb.
    pub fn wire_text(&self) -> String {
        format!("{} {}", self.relation, values_text(&self.tuple))
    }
}

/// The mixed workloads' write sequence: `INSERT R{n}a`, `INSERT R{n}b`,
/// `DELETE R{n}a`, `DELETE R{n}b` of one fresh entry at the most
/// upstream chain peer (so the instance stays the same size while the
/// delta log and the graph compact many times), and every 8th write an
/// `INSERT` or `DELETE` in the disconnected `Island`, which no hot query
/// reads.
#[derive(Debug)]
pub struct WriteSeq {
    gen: SwissProtLike,
    spec: Spec,
    index: u64,
    chain_step: u64,
    island_step: u64,
    entry: Option<(Tuple, Tuple)>,
}

impl WriteSeq {
    pub fn new(seed: u64, spec: Spec) -> WriteSeq {
        WriteSeq {
            gen: SwissProtLike::new(seed ^ 0xA11CE, SwissProtLike::ATTRS),
            spec,
            index: 0,
            chain_step: 0,
            island_step: 0,
            entry: None,
        }
    }
}

impl Iterator for WriteSeq {
    type Item = WriteOp;

    fn next(&mut self) -> Option<WriteOp> {
        self.index += 1;
        if self.index.is_multiple_of(8) {
            let k = self.spec.island as i64 + (self.island_step / 2) as i64;
            let insert = self.island_step.is_multiple_of(2);
            self.island_step += 1;
            return Some(WriteOp {
                insert,
                relation: "Island".to_string(),
                tuple: if insert {
                    island_tuple(k)
                } else {
                    Tuple::new(vec![Value::Int(k)])
                },
            });
        }
        let key = self.spec.base as i64 + (self.chain_step / 4) as i64;
        let phase = self.chain_step % 4;
        self.chain_step += 1;
        if phase == 0 {
            self.entry = Some(self.gen.entry(key));
        }
        let (ta, tb) = self.entry.clone().expect("phase 0 generated the entry");
        let top = self.spec.top_peer();
        let side = if phase.is_multiple_of(2) { "a" } else { "b" };
        Some(WriteOp {
            insert: phase < 2,
            relation: format!("R{top}{side}"),
            tuple: match phase {
                0 => ta,
                1 => tb,
                _ => Tuple::new(vec![Value::Int(key)]),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equal_seeds_give_equal_sequences_and_different_seeds_differ() {
        let take = |seed: u64| -> Vec<usize> {
            let mut z = Zipf::new(HOT_SET, seed);
            (0..500).map(|_| z.next_rank()).collect()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));

        let spec = Workload::WriteMixed.spec();
        let writes = |seed: u64| -> Vec<WriteOp> { WriteSeq::new(seed, spec).take(64).collect() };
        assert_eq!(writes(3), writes(3));
        assert_ne!(writes(3), writes(4));

        let reads = |seed: u64| -> Vec<String> {
            (0..64)
                .map(|g| miss_query(Workload::MissUnfold, seed, g))
                .collect()
        };
        assert_eq!(reads(1), reads(1));
        assert_ne!(reads(1), reads(2));
        assert_eq!(hot_queries(5), hot_queries(5));
        assert_ne!(hot_queries(5), hot_queries(6));
        assert_eq!(arrivals(1000.0, 1.0, 9), arrivals(1000.0, 1.0, 9));
        assert_ne!(arrivals(1000.0, 1.0, 9), arrivals(1000.0, 1.0, 10));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut z = Zipf::new(HOT_SET, 1);
        let mut counts = [0usize; HOT_SET];
        for _ in 0..20_000 {
            counts[z.next_rank()] += 1;
        }
        // Rank 0 carries 1/H(64) = 21% of the mass, rank 63 a 64th of that.
        assert!(counts[0] > 3_500 && counts[0] < 5_000, "{}", counts[0]);
        assert!(counts[0] > 20 * counts[63]);
    }

    #[test]
    fn miss_texts_do_not_repeat_within_the_cache_horizon() {
        for w in [Workload::MissUnfold, Workload::MissGraph] {
            let texts: HashSet<String> = (0..14_000).map(|g| miss_query(w, 3, g)).collect();
            assert_eq!(texts.len(), 14_000);
        }
    }

    #[test]
    fn write_cycle_keeps_the_instance_stationary() {
        let spec = Workload::WriteMixed.spec();
        let ops: Vec<WriteOp> = WriteSeq::new(1, spec).take(16).collect();
        let shape: Vec<(bool, &str)> = ops
            .iter()
            .map(|o| (o.insert, o.relation.as_str()))
            .collect();
        assert_eq!(
            &shape[..8],
            &[
                (true, "R2a"),
                (true, "R2b"),
                (false, "R2a"),
                (false, "R2b"),
                (true, "R2a"),
                (true, "R2b"),
                (false, "R2a"),
                (true, "Island"),
            ]
        );
        assert_eq!(shape[15], (false, "Island"));
        // Inserted and deleted keys pair up.
        assert_eq!(ops[0].tuple.get(0), ops[2].tuple.get(0));
        assert_eq!(ops[0].wire_text().split(',').count(), 14);
    }

    #[test]
    fn poisson_arrivals_hit_the_rate() {
        let a = arrivals(10_000.0, 2.0, 4);
        assert!((a.len() as f64 - 20_000.0).abs() < 600.0, "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
