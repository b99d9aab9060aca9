//! Point-in-time service statistics: the `STATS` verb's payload and the
//! one metrics registry both of its renderings draw from.

use crate::cache::{CacheCounters, PlanCacheCounters};
use crate::metrics::{Metrics, TransportSnapshot};
use proql::FallbackReason;

/// Point-in-time service statistics (the `STATS` verb's payload).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Currently published system version.
    pub version: u64,
    /// Queries served (hits + misses + errors).
    pub queries: u64,
    /// Writes applied (deletions + insert/exchange rounds).
    pub writes: u64,
    /// Live cache entries.
    pub cache_entries: u64,
    /// Cache counters.
    pub cache: CacheCounters,
    /// Live plan templates (one per cached plan key).
    pub plan_entries: u64,
    /// Live query shapes in the plan cache.
    pub shape_entries: u64,
    /// Prepared-plan cache counters.
    pub plans: PlanCacheCounters,
    /// Delta-log compactions in the published system (sealed entries
    /// merged to bound log growth; see `proql_provgraph::DeltaLog`).
    pub delta_compactions: u64,
    /// Provenance-graph builds from scratch, accumulated across every
    /// published snapshot plus the current one.
    pub graph_builds: u64,
    /// Provenance-graph delta patches, accumulated the same way.
    pub graph_patches: u64,
    /// Transport counters and latency percentiles, when a TCP front end
    /// is attached (zeros otherwise).
    pub transport: TransportSnapshot,
    /// Sealed entries currently retained in the published system's delta
    /// log (bounded by `delta_log_cap`).
    pub delta_log_depth: u64,
    /// The delta log's trimmed low watermark: the oldest version the log
    /// can still replicate **from**.
    pub delta_log_base: u64,
    /// The delta log's configured retention bound, in entries
    /// ([`proql_provgraph::delta::DEFAULT_MAX_ENTRIES`] unless the
    /// system set its own).
    pub delta_log_cap: u64,
    /// Live replica subscriptions on this node.
    pub repl_subscribers: u64,
    /// `REPL_DELTA` frames streamed to replica subscribers.
    pub repl_deltas_streamed: u64,
    /// `REPL_SNAPSHOT` frames streamed to replica subscribers (each one
    /// is a broken-chain fallback — never silent).
    pub repl_snapshots_streamed: u64,
    /// Replicated deltas applied on this node (replica mode).
    pub repl_deltas_applied: u64,
    /// Full snapshots installed on this node (replica mode).
    pub repl_snapshots_installed: u64,
    /// Replayed-digest mismatches detected **before** publishing (each
    /// one triggers a forced snapshot resubscribe).
    pub repl_digest_mismatches: u64,
    /// Times this node's replica loop re-subscribed to its primary
    /// (reconnects and digest-mismatch recoveries).
    pub repl_resubscribes: u64,
    /// Replication apply-lag observations (primary seal → replica
    /// publish, same clock domain).
    pub repl_lag_count: u64,
    /// Apply-lag p50 in milliseconds.
    pub repl_lag_p50_ms: f64,
    /// Apply-lag p99 in milliseconds.
    pub repl_lag_p99_ms: f64,
}

impl ServiceStats {
    /// Assemble the unified metrics registry — the **single** source both
    /// the JSON (`STATS`) and text (`STATS TEXT`) renderings draw from,
    /// so the two surfaces can never drift apart.
    pub fn registry(&self) -> Metrics {
        let mut m = Metrics::new();
        m.push_u64("version", self.version);
        m.push_u64("queries", self.queries);
        m.push_u64("writes", self.writes);
        m.push_u64("cache_entries", self.cache_entries);
        m.push_u64("cache_hits", self.cache.hits);
        m.push_u64("cache_misses", self.cache.misses);
        m.push_f64("cache_hit_rate", self.cache.hit_rate(), 6);
        m.push_u64("stale_evictions", self.cache.stale_evictions);
        m.push_u64("capacity_evictions", self.cache.capacity_evictions);
        m.push_u64("rejected_inserts", self.cache.rejected_inserts);
        m.push_u64("maint_hits", self.cache.maint_hits);
        m.push_u64("maint_unchanged", self.cache.maint_unchanged);
        m.push_u64("maint_shared", self.cache.maint_shared);
        m.push_u64("maint_fallbacks", self.cache.maint_fallbacks);
        for reason in FallbackReason::ALL {
            m.push_u64(fallback_metric(reason), self.cache.fallbacks_for(reason));
        }
        m.push_u64("maint_fallback_error", self.cache.maint_errors);
        m.push_u64("maint_rows_patched", self.cache.maint_rows_patched);
        m.push_u64("delta_compactions", self.delta_compactions);
        m.push_u64("graph_builds", self.graph_builds);
        m.push_u64("graph_patches", self.graph_patches);
        m.push_u64("plan_entries", self.plan_entries);
        m.push_u64("shape_entries", self.shape_entries);
        m.push_u64("plan_cache_hits", self.plans.hits);
        m.push_u64("plan_cache_shape_hits", self.plans.shape_hits);
        m.push_u64("plan_cache_misses", self.plans.misses);
        m.push_u64("plan_cache_plan_misses", self.plans.plan_misses);
        m.push_f64("plan_cache_hit_rate", self.plans.hit_rate(), 6);
        m.push_u64("plan_reprepares", self.plans.reprepares);
        m.push_u64("connections_open", self.transport.connections_open);
        m.push_u64("connections_total", self.transport.connections_total);
        m.push_u64("frames_in", self.transport.frames_in);
        m.push_u64("frames_out", self.transport.frames_out);
        m.push_u64("shed_count", self.transport.shed_count);
        m.push_u64("protocol_errors", self.transport.protocol_errors);
        m.push_u64("requests_recorded", self.transport.requests_recorded);
        m.push_f64("latency_p50_ms", self.transport.latency_p50_ms, 4);
        m.push_f64("latency_p95_ms", self.transport.latency_p95_ms, 4);
        m.push_f64("latency_p99_ms", self.transport.latency_p99_ms, 4);
        m.push_u64("delta_log_depth", self.delta_log_depth);
        m.push_u64("delta_log_base", self.delta_log_base);
        m.push_u64("delta_log_cap", self.delta_log_cap);
        m.push_u64("repl_subscribers", self.repl_subscribers);
        m.push_u64("repl_deltas_streamed", self.repl_deltas_streamed);
        m.push_u64("repl_snapshots_streamed", self.repl_snapshots_streamed);
        m.push_u64("repl_deltas_applied", self.repl_deltas_applied);
        m.push_u64("repl_snapshots_installed", self.repl_snapshots_installed);
        m.push_u64("repl_digest_mismatches", self.repl_digest_mismatches);
        m.push_u64("repl_resubscribes", self.repl_resubscribes);
        m.push_u64("repl_lag_count", self.repl_lag_count);
        m.push_f64("repl_lag_p50_ms", self.repl_lag_p50_ms, 4);
        m.push_f64("repl_lag_p99_ms", self.repl_lag_p99_ms, 4);
        m
    }

    /// Single-line JSON rendering of [`Self::registry`] (the workspace
    /// has no serde).
    pub fn to_json(&self) -> String {
        self.registry().to_json()
    }

    /// `name value` line rendering of [`Self::registry`] (the `STATS
    /// TEXT` payload).
    pub fn to_text(&self) -> String {
        self.registry().to_text()
    }
}

/// The `STATS` name of one fallback reason's counter.
fn fallback_metric(reason: FallbackReason) -> &'static str {
    match reason {
        FallbackReason::Explain => "maint_fallback_explain",
        FallbackReason::GraphWalk => "maint_fallback_graph_walk",
        FallbackReason::NoUnfold => "maint_fallback_no_unfold",
        FallbackReason::ChainUnavailable => "maint_fallback_chain",
        FallbackReason::ViewAtom => "maint_fallback_view_atom",
        FallbackReason::DeltaTooLarge => "maint_fallback_too_large",
        FallbackReason::TooManyCandidates => "maint_fallback_candidates",
        FallbackReason::SetValued => "maint_fallback_set_valued",
        FallbackReason::Pruned => "maint_fallback_pruned",
    }
}
