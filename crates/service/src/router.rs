//! Hash-sharded scatter-gather read routing.
//!
//! Sharding exploits the same structure the result cache and the
//! incremental maintainer already lean on: a CDSS schema decomposes
//! into **relation families** — connected components of the "appears in
//! the same mapping rule" graph. Provenance edges only ever connect
//! relations inside one family (a derivation crosses a mapping, and
//! mappings define the components), so a family is a self-contained
//! provenance island: a shard holding a family's base data answers any
//! path query over that family exactly as a fat single node would.
//!
//! [`ShardMap`] computes the families by union-find over the system's
//! datalog program (locals `R_l` are tied to their base `R`, and the
//! translated provenance relations ride along because they appear in
//! the same rules) and assigns each family to a shard by FNV-1a hash of
//! its canonical (lexicographically smallest) member — deterministic
//! across processes, so every router and shard derives the identical
//! map from the schema alone.
//!
//! [`Router`] routes by the answer's read set: it prepares each incoming
//! query on an engine over the schema the map was built from, and folds
//! the prepared [`proql::engine::PreparedQuery::touched`] — the read set
//! the result cache keys freshness on — to the owning shard set
//! (memoized per query text). A read set stays inside the families of
//! the relations the query's paths start from, and preparing needs no
//! rows: goal-directed pruning puts the empty relations it pruned on
//! into the read set, so a schema with no data still routes each path to
//! its family. The router therefore keeps no data. A relation named only
//! in an annotation test (`CASE $y in R`) is not read, so it does not
//! pull in `R`'s shard. The common case — every relation in one family — is
//! forwarded to that single shard verbatim: **zero fan-out**, one hop,
//! and the shard's answer (digest included) is byte-identical to a fat
//! node's. Queries whose read set spans families are scattered to the
//! owning shards and gathered into a reply that carries each shard's
//! sub-answer under a `"shards"` array. The gather is deliberately
//! *not* presented as a composed relational answer: ProQL queries are
//! conjunctive, and a cross-family conjunction does not decompose into
//! a union of per-shard runs — composing it would require row-level
//! transfer, which this summary protocol does not carry. Clients that
//! need a true cross-family join run it against an unsharded node;
//! everything family-local scales out linearly with the shard count.

use crate::client::BinClient;
use crate::proto::{json_str, json_u64_field};
use crate::retry::{retry_with, RetryPolicy};
use proql::engine::Engine;
use proql_common::{Error, Result};
use proql_provgraph::ProvenanceSystem;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::SocketAddr;

/// FNV-1a 64-bit — the deterministic, dependency-free hash every node
/// uses to agree on family placement.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Deterministic relation → shard assignment derived from the schema.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
    owner: BTreeMap<String, usize>,
    families: Vec<(usize, Vec<String>)>,
}

impl ShardMap {
    /// Compute families from `sys`'s program and place each on
    /// `fnv64(canonical member) % shards`.
    pub fn from_system(sys: &ProvenanceSystem, shards: usize) -> ShardMap {
        ShardMap::from_system_with(sys, shards, |canonical| {
            (fnv64(canonical.as_bytes()) % shards.max(1) as u64) as usize
        })
    }

    /// Same family computation, custom placement (`assign` maps a
    /// family's canonical relation name to a shard index) — the seam
    /// for explicit rebalancing and for tests that need families on
    /// distinct shards regardless of how the hash falls.
    pub fn from_system_with(
        sys: &ProvenanceSystem,
        shards: usize,
        assign: impl Fn(&str) -> usize,
    ) -> ShardMap {
        let shards = shards.max(1);
        // Collect every relation name the program mentions plus the
        // declared base/local pairs.
        let mut names: BTreeSet<String> = BTreeSet::new();
        for rule in &sys.program().rules {
            for atom in rule.heads.iter().chain(rule.body.iter()) {
                names.insert(atom.relation.clone());
            }
        }
        for base in sys.relations_with_locals() {
            if let Some(local) = sys.local_of(&base) {
                names.insert(local);
            }
            names.insert(base);
        }
        // Provenance relations (`P_m1`, `P_L_X`, ...) live outside the
        // program's rules but inside their mapping's family.
        for spec in sys.specs() {
            names.insert(spec.prov_rel.clone());
            for recipe in &spec.atoms {
                names.insert(recipe.relation.clone());
            }
        }
        let index: BTreeMap<&str, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut parent: Vec<usize> = (0..names.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let union = |parent: &mut [usize], a: usize, b: usize| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        };
        // Every rule welds its relations into one family; the declared
        // local of each base is welded on explicitly (a base with no
        // rules yet still owns its local).
        for rule in &sys.program().rules {
            let mut atoms = rule.heads.iter().chain(rule.body.iter());
            if let Some(first) = atoms.next() {
                let f = index[first.relation.as_str()];
                for atom in atoms {
                    union(&mut parent, f, index[atom.relation.as_str()]);
                }
            }
        }
        for base in sys.relations_with_locals() {
            if let Some(local) = sys.local_of(&base) {
                union(&mut parent, index[base.as_str()], index[local.as_str()]);
            }
        }
        for spec in sys.specs() {
            let p = index[spec.prov_rel.as_str()];
            for recipe in &spec.atoms {
                union(&mut parent, p, index[recipe.relation.as_str()]);
            }
        }
        // Group by root, pick the lexicographically smallest member as
        // the family's canonical name, and place it.
        let ordered: Vec<&String> = names.iter().collect();
        let mut groups: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (i, name) in ordered.iter().enumerate() {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push((*name).clone());
        }
        let mut owner = BTreeMap::new();
        let mut families = Vec::new();
        for members in groups.into_values() {
            // BTreeSet iteration order makes members[0] the canonical
            // (lexicographically smallest) relation.
            let shard = assign(&members[0]).min(shards - 1);
            for m in &members {
                owner.insert(m.clone(), shard);
            }
            families.push((shard, members));
        }
        ShardMap {
            shards,
            owner,
            families,
        }
    }

    /// Number of shards this map distributes over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Owning shard of `relation`, `None` if the schema never mentions
    /// it (callers must then fan out conservatively).
    pub fn owner_of(&self, relation: &str) -> Option<usize> {
        self.owner.get(relation).copied()
    }

    /// The families and their placements: `(shard, members)` with
    /// members sorted, canonical first.
    pub fn families(&self) -> &[(usize, Vec<String>)] {
        &self.families
    }

    /// Fold a read set to the owning shards. An unmapped relation
    /// means the planner knows something the map does not — scatter to
    /// every shard rather than silently missing data.
    pub fn shard_set<'a>(&self, touched: impl IntoIterator<Item = &'a str>) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for rel in touched {
            match self.owner_of(rel) {
                Some(s) => {
                    out.insert(s);
                }
                None => return (0..self.shards).collect(),
            }
        }
        if out.is_empty() {
            // A read set the planner could not attribute (or an empty
            // one) has no owner; any shard can answer it.
            out.insert(0);
        }
        out
    }
}

/// Fan-out counters a router accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Queries forwarded to exactly one shard (zero fan-out).
    pub single_shard: u64,
    /// Queries scattered to two or more shards.
    pub scattered: u64,
    /// Route-cache entries evicted to stay within capacity.
    pub route_evictions: u64,
}

/// Default bound on the per-query-text route memo. Routing is cheap to
/// recompute (one parse), so the cache only needs to cover the working
/// set of repeated query texts, not every text ever seen.
pub const ROUTE_CACHE_CAPACITY: usize = 1024;

/// A scatter-gather read router: a shard map derived from the schema,
/// one binary connection per shard, no local data.
#[derive(Debug)]
pub struct Router {
    map: ShardMap,
    /// Prepares queries over the map's schema to learn their read sets.
    schema: Engine,
    conns: Vec<BinClient>,
    route_cache: HashMap<String, Vec<usize>>,
    /// Insertion order of `route_cache` keys — FIFO eviction queue.
    route_order: std::collections::VecDeque<String>,
    route_cache_capacity: usize,
    counters: RouterCounters,
}

impl Router {
    /// Connect to every shard (jittered-backoff dial, then the `HELLO`
    /// version handshake). `schema` is the system `map` was built from;
    /// routing prepares queries on it. A copy without data routes to the
    /// same shards, so pass one.
    pub fn connect(
        schema: ProvenanceSystem,
        map: ShardMap,
        addrs: &[SocketAddr],
        retry: RetryPolicy,
    ) -> Result<Router> {
        if addrs.len() != map.shards() {
            return Err(Error::Other(format!(
                "shard map expects {} shards, got {} addresses",
                map.shards(),
                addrs.len()
            )));
        }
        let mut conns = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let mut c = retry_with(retry.clone(), std::thread::sleep, || {
                BinClient::connect(*addr)
            })?;
            c.hello()?;
            conns.push(c);
        }
        Ok(Router {
            map,
            schema: Engine::new(schema),
            conns,
            route_cache: HashMap::new(),
            route_order: std::collections::VecDeque::new(),
            route_cache_capacity: ROUTE_CACHE_CAPACITY,
            counters: RouterCounters::default(),
        })
    }

    /// Override the route-cache bound (0 disables memoization). Evicts
    /// oldest entries immediately if the cache is already over the new
    /// capacity.
    pub fn set_route_cache_capacity(&mut self, capacity: usize) {
        self.route_cache_capacity = capacity;
        while self.route_cache.len() > capacity {
            self.evict_oldest_route();
        }
    }

    fn evict_oldest_route(&mut self) {
        if let Some(oldest) = self.route_order.pop_front() {
            self.route_cache.remove(&oldest);
            self.counters.route_evictions += 1;
        }
    }

    /// The map this router routes by.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Fan-out counters so far.
    pub fn counters(&self) -> RouterCounters {
        self.counters
    }

    /// The shards owning what `proql` reads (memoized per query text).
    pub fn shard_set_for(&mut self, proql: &str) -> Result<Vec<usize>> {
        if let Some(hit) = self.route_cache.get(proql) {
            return Ok(hit.clone());
        }
        let prepared = self.schema.prepare(proql)?;
        let set: Vec<usize> = self
            .map
            .shard_set(prepared.touched.iter().map(String::as_str))
            .into_iter()
            .collect();
        if self.route_cache_capacity > 0 {
            while self.route_cache.len() >= self.route_cache_capacity {
                self.evict_oldest_route();
            }
            if self
                .route_cache
                .insert(proql.to_string(), set.clone())
                .is_none()
            {
                self.route_order.push_back(proql.to_string());
            }
        }
        Ok(set)
    }

    /// Route one query. Single-owner read sets forward verbatim and
    /// return the shard's payload untouched; multi-family read sets
    /// scatter to the owning shards and gather each sub-answer under a
    /// `"shards"` array (see the module docs for why the gather does
    /// not pretend to compose a conjunctive cross-family answer).
    pub fn query(&mut self, proql: &str) -> Result<String> {
        let targets = self.shard_set_for(proql)?;
        if targets.len() == 1 {
            self.counters.single_shard += 1;
            return self.conns[targets[0]].query(proql);
        }
        self.counters.scattered += 1;
        // Scatter: one pipelined send per shard connection, then gather
        // in shard order.
        for &s in &targets {
            self.conns[s].send(crate::frame::verb::QUERY, proql.as_bytes())?;
        }
        let mut subs = Vec::with_capacity(targets.len());
        let mut version_max = 0u64;
        let mut bindings = 0u64;
        for &s in &targets {
            let f = self.conns[s].recv_response()?;
            let payload = match f.verb {
                crate::frame::verb::OK => f.text().unwrap_or("").to_string(),
                crate::frame::verb::ERR => {
                    return Err(Error::Other(format!(
                        "shard {s}: {}",
                        f.text().unwrap_or("<non-utf8>")
                    )))
                }
                other => return Err(Error::Other(format!("shard {s}: unexpected verb {other}"))),
            };
            version_max = version_max.max(json_u64_field(&payload, "version").unwrap_or(0));
            bindings += json_u64_field(&payload, "bindings").unwrap_or(0);
            subs.push(format!("{{\"shard\": {s}, \"answer\": {payload}}}"));
        }
        Ok(format!(
            "{{\"version\": {version_max}, \"fanout\": {}, \"bindings\": {bindings}, \
             \"shards\": [{}]}}",
            targets.len(),
            subs.join(", ")
        ))
    }

    /// Gather `STATS` from every shard: `[{"shard": i, "stats": {...}}]`.
    pub fn stats(&mut self) -> Result<String> {
        let mut subs = Vec::with_capacity(self.conns.len());
        for (s, conn) in self.conns.iter_mut().enumerate() {
            let payload = conn.stats()?;
            subs.push(format!("{{\"shard\": {s}, \"stats\": {payload}}}"));
        }
        Ok(format!(
            "{{\"shards\": {}, \"single_shard\": {}, \"scattered\": {}, \
             \"route_cache\": {}, \"route_evictions\": {}, \"per_shard\": [{}]}}",
            self.conns.len(),
            self.counters.single_shard,
            self.counters.scattered,
            self.route_cache.len(),
            self.counters.route_evictions,
            subs.join(", ")
        ))
    }

    /// Describe the routing table itself (families and placements).
    pub fn describe(&self) -> String {
        let fams: Vec<String> = self
            .map
            .families()
            .iter()
            .map(|(shard, members)| {
                let names: Vec<String> = members.iter().map(|m| json_str(m)).collect();
                format!(
                    "{{\"shard\": {shard}, \"relations\": [{}]}}",
                    names.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"shards\": {}, \"families\": [{}]}}",
            self.map.shards(),
            fams.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServiceCore;
    use crate::server::serve;
    use proql::engine::EngineOptions;
    use proql_common::{tup, Schema, ValueType};
    use std::sync::Arc;

    /// Two disconnected mapping families, optionally loading each
    /// island's data: X → Y (mxy) and U → V (muv).
    fn island_system(with_xy_data: bool, with_uv_data: bool) -> ProvenanceSystem {
        let mut sys = ProvenanceSystem::new();
        for name in ["X", "Y", "U", "V"] {
            sys.add_relation_with_local(
                Schema::build(name, &[("id", ValueType::Int), ("w", ValueType::Int)], &[0])
                    .unwrap(),
            )
            .unwrap();
        }
        sys.add_mapping_text("mxy: Y(i, w) :- X(i, w)").unwrap();
        sys.add_mapping_text("muv: V(i, w) :- U(i, w)").unwrap();
        for i in 0..5 {
            if with_xy_data {
                sys.insert_local("X", tup![i, i * 10]).unwrap();
            }
            if with_uv_data {
                sys.insert_local("U", tup![i, i * 100]).unwrap();
            }
        }
        sys.run_exchange().unwrap();
        sys
    }

    /// Deterministic two-shard placement: the U/V island on shard 0,
    /// the X/Y island on shard 1.
    fn split_map(sys: &ProvenanceSystem) -> ShardMap {
        // The canonical member of the X/Y family is its provenance
        // relation `P_L_X` (it sorts first), hence `contains`.
        ShardMap::from_system_with(sys, 2, |canonical| usize::from(canonical.contains('X')))
    }

    const Q_Y: &str = "FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x";
    const Q_BOTH: &str = "FOR [Y $x] <-+ [], [V $y] <-+ [] RETURN $x, $y";

    #[test]
    fn families_are_connected_components_with_locals_attached() {
        let sys = island_system(true, true);
        let map = ShardMap::from_system(&sys, 4);
        for (a, b) in [("X", "Y"), ("X", "X_l"), ("Y", "Y_l"), ("U", "V")] {
            assert_eq!(map.owner_of(a), map.owner_of(b), "{a} and {b} must co-own");
        }
        assert_eq!(map.families().len(), 2, "{:?}", map.families());
        assert_eq!(map.owner_of("nope"), None);
        // An unmapped relation in a read set forces full fan-out.
        assert_eq!(map.shard_set(["X", "nope"]).len(), 4);
        // Determinism: recomputing from the same schema reproduces the
        // exact placement every process agrees on.
        let again = ShardMap::from_system(&sys, 4);
        assert_eq!(map.owner, again.owner);
    }

    #[test]
    fn single_family_queries_route_to_one_shard_and_match_a_fat_node() {
        // Shard 0 holds U/V data, shard 1 holds X/Y data; the schema is
        // identical everywhere.
        let sys = island_system(true, true);
        let map = split_map(&sys);
        let shard0 = Arc::new(ServiceCore::new(
            island_system(false, true),
            EngineOptions::default(),
        ));
        let shard1 = Arc::new(ServiceCore::new(
            island_system(true, false),
            EngineOptions::default(),
        ));
        let s0 = serve(Arc::clone(&shard0), "127.0.0.1:0", 2).unwrap();
        let s1 = serve(Arc::clone(&shard1), "127.0.0.1:0", 2).unwrap();
        let fat = ServiceCore::new(island_system(true, true), EngineOptions::default());

        let mut router = Router::connect(
            island_system(false, false),
            map,
            &[s0.addr(), s1.addr()],
            RetryPolicy::default(),
        )
        .unwrap();

        assert_eq!(router.shard_set_for(Q_Y).unwrap(), vec![1]);
        let routed = router.query(Q_Y).unwrap();
        let serial = fat.query(Q_Y).unwrap();
        assert_eq!(
            json_u64_field(&routed, "bindings").unwrap(),
            serial.output.projection.bindings.len() as u64
        );
        // Byte-level digest identity with the fat node: the owning
        // shard holds the family's complete data.
        assert_eq!(
            crate::proto::json_str_field(&routed, "digest").unwrap(),
            crate::proto::result_digest(&serial.output).to_string()
        );
        assert_eq!(
            router.counters(),
            RouterCounters {
                single_shard: 1,
                scattered: 0,
                route_evictions: 0
            }
        );
        // Zero fan-out goes to the *right* shard: only shard 1 (X/Y)
        // saw a query.
        assert_eq!(shard1.stats().queries, 1);
        assert_eq!(shard0.stats().queries, 0);

        s0.shutdown();
        s1.shutdown();
    }

    #[test]
    fn cross_family_queries_scatter_and_gather_per_shard_answers() {
        let sys = island_system(true, true);
        let map = split_map(&sys);
        let shard0 = Arc::new(ServiceCore::new(
            island_system(false, true),
            EngineOptions::default(),
        ));
        let shard1 = Arc::new(ServiceCore::new(
            island_system(true, false),
            EngineOptions::default(),
        ));
        let s0 = serve(shard0, "127.0.0.1:0", 2).unwrap();
        let s1 = serve(shard1, "127.0.0.1:0", 2).unwrap();
        let mut router = Router::connect(
            island_system(false, false),
            map,
            &[s0.addr(), s1.addr()],
            RetryPolicy::default(),
        )
        .unwrap();

        assert_eq!(router.shard_set_for(Q_BOTH).unwrap(), vec![0, 1]);
        let gathered = router.query(Q_BOTH).unwrap();
        assert_eq!(json_u64_field(&gathered, "fanout"), Some(2));
        assert!(gathered.contains("\"shards\": ["), "{gathered}");
        assert_eq!(router.counters().scattered, 1);

        let stats = router.stats().unwrap();
        assert_eq!(json_u64_field(&stats, "shards"), Some(2));
        assert_eq!(json_u64_field(&stats, "route_evictions"), Some(0));
        let desc = router.describe();
        assert!(desc.contains("\"families\""), "{desc}");

        s0.shutdown();
        s1.shutdown();
    }

    #[test]
    fn annotation_tests_do_not_widen_the_route() {
        // `$y in V` names the U/V family, but only tests each leaf's
        // relation: the answer reads X/Y alone.
        const Q_TEST_V: &str = "EVALUATE TRUST OF {
              FOR [Y $x] INCLUDE PATH [$x] <-+ [] RETURN $x
            } ASSIGNING EACH leaf_node $y {
              CASE $y in V : SET false
              DEFAULT : SET true
            }";
        let sys = island_system(true, true);
        let map = split_map(&sys);
        let shard0 = Arc::new(ServiceCore::new(
            island_system(false, true),
            EngineOptions::default(),
        ));
        let shard1 = Arc::new(ServiceCore::new(
            island_system(true, false),
            EngineOptions::default(),
        ));
        let s0 = serve(Arc::clone(&shard0), "127.0.0.1:0", 2).unwrap();
        let s1 = serve(shard1, "127.0.0.1:0", 2).unwrap();
        let fat = ServiceCore::new(sys, EngineOptions::default());
        let mut router = Router::connect(
            island_system(false, false),
            map,
            &[s0.addr(), s1.addr()],
            RetryPolicy::default(),
        )
        .unwrap();

        assert_eq!(router.shard_set_for(Q_TEST_V).unwrap(), vec![1]);
        let routed = router.query(Q_TEST_V).unwrap();
        assert_eq!(
            crate::proto::json_str_field(&routed, "digest").unwrap(),
            crate::proto::result_digest(&fat.query(Q_TEST_V).unwrap().output).to_string()
        );
        assert_eq!(shard0.stats().queries, 0);

        s0.shutdown();
        s1.shutdown();
    }

    #[test]
    fn route_cache_is_bounded_with_fifo_eviction() {
        let sys = island_system(true, true);
        let map = split_map(&sys);
        let shard0 = Arc::new(ServiceCore::new(
            island_system(false, true),
            EngineOptions::default(),
        ));
        let shard1 = Arc::new(ServiceCore::new(
            island_system(true, false),
            EngineOptions::default(),
        ));
        let s0 = serve(shard0, "127.0.0.1:0", 2).unwrap();
        let s1 = serve(shard1, "127.0.0.1:0", 2).unwrap();
        let mut router = Router::connect(
            island_system(false, false),
            map,
            &[s0.addr(), s1.addr()],
            RetryPolicy::default(),
        )
        .unwrap();
        router.set_route_cache_capacity(2);

        // Three distinct query texts through a 2-entry cache: the first
        // (oldest) is evicted, the last two stay resident.
        let texts = [
            "FOR [Y $x] RETURN $x",
            "FOR [V $x] RETURN $x",
            "FOR [X $x] RETURN $x",
        ];
        for t in &texts {
            router.shard_set_for(t).unwrap();
        }
        assert_eq!(router.counters().route_evictions, 1);
        // Re-resolving the cached texts evicts nothing further...
        router.shard_set_for(texts[1]).unwrap();
        router.shard_set_for(texts[2]).unwrap();
        assert_eq!(router.counters().route_evictions, 1);
        // ...and the evicted text re-enters by displacing the oldest
        // (texts[1], which then misses and displaces texts[2] in turn).
        router.shard_set_for(texts[0]).unwrap();
        assert_eq!(router.counters().route_evictions, 2);
        // Routing answers stay correct across eviction and re-entry.
        assert_eq!(router.shard_set_for(texts[0]).unwrap(), vec![1]);
        assert_eq!(router.shard_set_for(texts[1]).unwrap(), vec![0]);
        assert_eq!(router.counters().route_evictions, 3);
        // Shrinking the capacity evicts down immediately.
        router.set_route_cache_capacity(0);
        assert_eq!(router.counters().route_evictions, 5);
        let stats = router.stats().unwrap();
        assert_eq!(json_u64_field(&stats, "route_cache"), Some(0));
        assert_eq!(json_u64_field(&stats, "route_evictions"), Some(5));

        s0.shutdown();
        s1.shutdown();
    }
}
