//! Figure 7 — query processing times and unfolded rules for a chain of
//! varying length with data at **every** peer (the stress test). Expected
//! shape: the number of unfolded rules, unfolding time, and evaluation
//! time all grow exponentially with the number of peers.
//!
//! Each configuration is measured under the columnar batch executor (serial
//! and morsel-parallel via [`Parallelism::Auto`]) and the legacy
//! nested-loop baseline; with `PROQL_JSON=1` one JSON line per
//! (peers, mode) is printed plus a `speedup` line carrying both the
//! batch-vs-nested-loop ablation and the `parallel_speedup` field, giving
//! future PRs a machine-readable perf trajectory. Set
//! `PROQL_MIN_PARALLEL_SPEEDUP=<x>` to gate the run on the best observed
//! parallel speedup (CI uses a lenient floor so single-core runners — where
//! `Auto` resolves to one thread — never flake).

use proql::engine::EngineOptions;
use proql_bench::{banner, build_timed, json_output, measure_target_query, scaled};
use proql_cdss::topology::{CdssConfig, Topology};
use proql_common::Parallelism;
use proql_service::proto::json_str;
use proql_storage::ExecMode;

fn main() {
    banner(
        "Figure 7: chain of varying length, data at every peer",
        "evaluation/unfolding time and #unfolded rules vs #peers (exponential)",
    );
    let base = scaled(100, 1000);
    let max_peers = scaled(6, 8);
    let worker_threads = Parallelism::Auto.threads();
    println!(
        "{:>6} {:>12} {:>12} {:>14} {:>14} {:>10}",
        "peers", "mode", "rules", "unfold (s)", "eval (s)", "bindings"
    );
    let mut best_parallel_speedup = 0.0f64;
    for peers in 2..=max_peers {
        let cfg = CdssConfig::all_data(peers, base);
        let (sys, _) = build_timed(Topology::Chain, &cfg);
        let mut batch_eval = 0.0;
        let mut parallel_eval = 0.0;
        let mut nested_eval = 0.0;
        for (name, mode, par) in [
            ("batch", ExecMode::Batch, Parallelism::Serial),
            ("parallel", ExecMode::Batch, Parallelism::Auto),
            ("nestedloop", ExecMode::NestedLoop, Parallelism::Serial),
        ] {
            let opts = EngineOptions {
                exec_mode: mode,
                parallelism: par,
                ..Default::default()
            };
            let m = measure_target_query(&sys, opts);
            match name {
                "batch" => batch_eval = m.eval_s,
                "parallel" => parallel_eval = m.eval_s,
                _ => nested_eval = m.eval_s,
            }
            println!(
                "{:>6} {:>12} {:>12} {:>14.4} {:>14.4} {:>10}",
                peers, name, m.rules, m.unfold_s, m.eval_s, m.bindings
            );
            if json_output() {
                println!(
                    "{}",
                    m.to_json(&[
                        format!("\"fig\": {}", json_str("fig7")),
                        format!("\"peers\": {peers}"),
                        format!("\"mode\": {}", json_str(name)),
                    ])
                );
            }
        }
        let speedup = if batch_eval > 0.0 {
            nested_eval / batch_eval
        } else {
            0.0
        };
        let parallel_speedup = if parallel_eval > 0.0 {
            batch_eval / parallel_eval
        } else {
            0.0
        };
        best_parallel_speedup = best_parallel_speedup.max(parallel_speedup);
        println!(
            "{:>6} {:>12} speedup batch vs nested-loop: {speedup:.2}x, \
             parallel ({worker_threads} threads) vs serial: {parallel_speedup:.2}x",
            peers, ""
        );
        if json_output() {
            println!(
                "{{\"fig\": {}, \"peers\": {peers}, \"batch_eval_s\": {batch_eval:.6}, \
                 \"nestedloop_eval_s\": {nested_eval:.6}, \"speedup\": {speedup:.3}, \
                 \"parallel_eval_s\": {parallel_eval:.6}, \
                 \"parallel_threads\": {worker_threads}, \
                 \"parallel_speedup\": {parallel_speedup:.3}}}",
                json_str("fig7_speedup")
            );
        }
    }
    if let Ok(min) = std::env::var("PROQL_MIN_PARALLEL_SPEEDUP") {
        let min: f64 = min.parse().expect("PROQL_MIN_PARALLEL_SPEEDUP is a float");
        if worker_threads <= 1 {
            // With one worker thread the "parallel" run executes the serial
            // code path, so the ratio is pure timing noise around 1.0 —
            // comparing it against a gate would flake with no code defect.
            println!("(parallel-speedup gate skipped: single worker thread)");
        } else {
            assert!(
                best_parallel_speedup >= min,
                "best parallel speedup {best_parallel_speedup:.3}x is below the \
                 gate of {min}x ({worker_threads} worker threads)"
            );
        }
    }
}
