//! Figure 9 — chain and branched topologies of 20 peers, varying base size
//! (tuples per data peer). Expected shape: instance size and query
//! processing time grow **linearly** with base size.
//!
//! With `PROQL_JSON=1` one JSON line per configuration is printed
//! (machine-readable perf trajectory for future PRs).

use proql::engine::EngineOptions;
use proql_bench::{banner, build_timed, json_output, measure_target_query, scaled};
use proql_cdss::topology::{CdssConfig, Topology};
use proql_service::proto::json_str;

fn main() {
    banner(
        "Figure 9: 20 peers, varying base size",
        "query time and instance size vs base size (linear), chain + branched",
    );
    let peers = scaled(10, 20);
    let steps: Vec<usize> = if proql_bench::full_scale() {
        (1..=8).map(|i| i * 10_000).collect()
    } else {
        (1..=8).map(|i| i * 500).collect()
    };
    println!(
        "{:>10} {:>9} {:>14} {:>14} {:>14}",
        "base", "topology", "total (s)", "instance", "rules"
    );
    for &base in &steps {
        for (name, topo, data) in [
            (
                "chain",
                Topology::Chain,
                CdssConfig::upstream_data(peers, 2, base),
            ),
            (
                "branched",
                Topology::Branched,
                CdssConfig::new(peers, vec![peers - 1, peers - 2, peers - 3], base),
            ),
        ] {
            let (sys, _) = build_timed(topo, &data);
            let m = measure_target_query(&sys, EngineOptions::default());
            println!(
                "{:>10} {:>9} {:>14.4} {:>14} {:>14}",
                base,
                name,
                m.total_s(),
                m.instance_rows,
                m.rules
            );
            if json_output() {
                println!(
                    "{}",
                    m.to_json(&[
                        format!("\"fig\": {}", json_str("fig9")),
                        format!("\"base\": {base}"),
                        format!("\"topology\": {}", json_str(name)),
                    ])
                );
            }
        }
    }
}
