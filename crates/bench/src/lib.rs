//! # proql-bench
//!
//! Benchmark harnesses reproducing every table and figure of the paper's
//! evaluation (§6). Each `fig*` binary prints the same rows/series the
//! paper reports; `table1` demonstrates the Table 1 semirings on the
//! running example. See EXPERIMENTS.md for paper-vs-measured notes.
//!
//! Scales default to CI-friendly sizes; set `PROQL_SCALE=full` to run the
//! paper's original parameters (minutes, not seconds).

use proql::engine::{Engine, EngineOptions, Strategy};
use proql_cdss::topology::{build_system, target_query, CdssConfig, Topology};
use proql_provgraph::ProvenanceSystem;
use std::time::Instant;

/// One measured run of the target query.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Unfolding (translation) time, seconds.
    pub unfold_s: f64,
    /// Evaluation time, seconds.
    pub eval_s: f64,
    /// Unfolded rules.
    pub rules: usize,
    /// Distinguished bindings returned.
    pub bindings: usize,
    /// Total instance size (rows in all base tables).
    pub instance_rows: usize,
    /// Generated SQL bytes (the paper's DB2 size-limit proxy).
    pub sql_bytes: usize,
    /// Result rows across all executed rules.
    pub rows: usize,
    /// Join operators across all executed plans.
    pub joins: usize,
}

impl Measurement {
    /// Total query processing time (the paper's unfold + evaluation sum).
    pub fn total_s(&self) -> f64 {
        self.unfold_s + self.eval_s
    }

    /// Render as one JSON object (hand-rolled; the build environment has no
    /// registry access, so no serde). `extra` is a list of already-encoded
    /// `"key": value` fragments prepended to the object.
    pub fn to_json(&self, extra: &[String]) -> String {
        let mut fields = extra.to_vec();
        fields.push(format!("\"unfold_s\": {:.6}", self.unfold_s));
        fields.push(format!("\"eval_s\": {:.6}", self.eval_s));
        fields.push(format!("\"total_s\": {:.6}", self.total_s()));
        fields.push(format!("\"rules\": {}", self.rules));
        fields.push(format!("\"bindings\": {}", self.bindings));
        fields.push(format!("\"instance_rows\": {}", self.instance_rows));
        fields.push(format!("\"sql_bytes\": {}", self.sql_bytes));
        fields.push(format!("\"rows\": {}", self.rows));
        fields.push(format!("\"joins\": {}", self.joins));
        format!("{{{}}}", fields.join(", "))
    }
}

/// `true` when machine-readable JSON lines should be printed alongside the
/// human tables (`PROQL_JSON=1`). Future PRs diff these for the perf
/// trajectory.
pub fn json_output() -> bool {
    std::env::var("PROQL_JSON")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// `true` when `PROQL_SCALE=full` (run the paper's original sizes).
pub fn full_scale() -> bool {
    std::env::var("PROQL_SCALE")
        .map(|v| v == "full")
        .unwrap_or(false)
}

/// Pick `quick` normally, `full` under `PROQL_SCALE=full`.
pub fn scaled(quick: usize, full: usize) -> usize {
    if full_scale() {
        full
    } else {
        quick
    }
}

/// Run the target query with the unfold strategy, returning a measurement.
/// `options` lets callers attach an ASR rewriter or pick an executor
/// ([`proql_storage::ExecMode`]) for batch-vs-baseline ablations.
pub fn measure_target_query(sys: &ProvenanceSystem, options: EngineOptions) -> Measurement {
    let mut opts = options;
    opts.strategy = Strategy::Unfold;
    let instance_rows = sys.db.total_rows();
    let engine = Engine::with_options(sys.clone(), opts);
    let out = engine.query(target_query()).expect("target query must run");
    Measurement {
        unfold_s: out.stats.unfold_time.as_secs_f64(),
        eval_s: out.stats.eval_time.as_secs_f64(),
        rules: out.stats.translate.rules,
        bindings: out.projection.bindings.len(),
        instance_rows,
        sql_bytes: out.stats.sql_bytes,
        rows: out.projection.metrics.rows,
        joins: out.stats.total_joins,
    }
}

/// Build a topology, timing the exchange.
pub fn build_timed(topology: Topology, cfg: &CdssConfig) -> (ProvenanceSystem, f64) {
    let t0 = Instant::now();
    let sys = build_system(topology, cfg).expect("topology builds");
    (sys, t0.elapsed().as_secs_f64())
}

/// Print a header line for a figure harness.
pub fn banner(title: &str, paper: &str) {
    println!("== {title}");
    println!("   paper: {paper}");
    if !full_scale() {
        println!("   (scaled-down run; PROQL_SCALE=full for paper-scale sizes)");
    }
    println!();
}

/// Shared driver for the ASR experiments (Figures 11–13): measure the
/// target query without ASRs and then with each ASR type at each maximum
/// path length, printing one row per configuration.
pub fn asr_sweep(topology: Topology, cfg: &CdssConfig, lengths: &[usize]) {
    use proql_asr::{advise, AsrKind, AsrRegistry};
    use std::sync::Arc;

    let (sys, _) = build_timed(topology, cfg);
    let baseline = measure_target_query(&sys, EngineOptions::default());
    println!(
        "{:>10} {:>8} {:>14} {:>12} {:>12}",
        "type", "len", "total (s)", "rules", "asr rows"
    );
    println!(
        "{:>10} {:>8} {:>14.4} {:>12} {:>12}",
        "none",
        "-",
        baseline.total_s(),
        baseline.rules,
        0
    );
    for kind in [
        AsrKind::Complete,
        AsrKind::Subpath,
        AsrKind::Prefix,
        AsrKind::Suffix,
    ] {
        for &len in lengths {
            let mut sys2 = sys.clone();
            let mut reg = AsrRegistry::new();
            let defs = advise(&sys2, "R0a", len, kind);
            for d in defs {
                if let Err(e) = reg.build(&mut sys2, d) {
                    eprintln!("   (skipping ASR: {e})");
                }
            }
            let rows = reg.total_rows();
            let opts = EngineOptions {
                rewriter: Some(Arc::new(reg)),
                ..Default::default()
            };
            let m = measure_target_query(&sys2, opts);
            assert_eq!(
                m.bindings, baseline.bindings,
                "ASR rewriting must not change results"
            );
            println!(
                "{:>10} {:>8} {:>14.4} {:>12} {:>12}",
                kind.name(),
                len,
                m.total_s(),
                m.rules,
                rows
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_runs_on_small_chain() {
        let (sys, _) = build_timed(Topology::Chain, &CdssConfig::new(3, vec![2], 4));
        let m = measure_target_query(&sys, EngineOptions::default());
        assert_eq!(m.bindings, 4);
        assert!(m.rules >= 1);
        assert!(m.total_s() >= 0.0);
        assert!(m.instance_rows > 0);
    }

    #[test]
    fn scaled_respects_env_default() {
        std::env::remove_var("PROQL_SCALE");
        assert_eq!(scaled(3, 100), 3);
    }
}
