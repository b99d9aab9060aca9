//! Ablation (beyond the paper): the unfold-to-SQL strategy (§4.2) versus
//! the bottom-up provenance-graph walk (§8's sketched alternative), on the
//! same annotation workload. Shows where each wins: unfolding is
//! goal-directed (cheap for selective queries), the graph walk amortizes
//! across queries and handles cycles.

use proql::engine::{Engine, Strategy};
use proql_bench::{banner, build_timed, json_output, scaled};
use proql_cdss::topology::{target_query, CdssConfig, Topology};
use proql_service::proto::json_str;
use std::time::Instant;

fn main() {
    banner(
        "Ablation: unfold strategy vs bottom-up graph strategy",
        "not in the paper; quantifies §8's proposed alternative",
    );
    let peers = scaled(10, 20);
    let base = scaled(2_000, 50_000);
    let (sys, _) = build_timed(Topology::Chain, &CdssConfig::upstream_data(peers, 2, base));
    let instance_rows = sys.db.total_rows();
    println!("{:>10} {:>14} {:>12}", "strategy", "time (s)", "bindings");
    for (name, strategy) in [("unfold", Strategy::Unfold), ("graph", Strategy::Graph)] {
        let mut engine = Engine::new(sys.clone());
        engine.options.strategy = strategy;
        let t0 = Instant::now();
        let out = engine.query(target_query()).expect("query runs");
        let total_s = t0.elapsed().as_secs_f64();
        println!(
            "{:>10} {:>14.4} {:>12}",
            name,
            total_s,
            out.projection.bindings.len()
        );
        if json_output() {
            println!(
                "{{\"fig\": {}, \"strategy\": {}, \"peers\": {peers}, \
                 \"instance_rows\": {instance_rows}, \"total_s\": {total_s:.6}, \
                 \"bindings\": {}, \"rules\": {}}}",
                json_str("ablation_eval"),
                json_str(name),
                out.projection.bindings.len(),
                out.stats.translate.rules,
            );
        }
    }
}
