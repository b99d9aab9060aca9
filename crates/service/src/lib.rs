//! # proql-service
//!
//! A concurrent provenance query service over a
//! [`proql_provgraph::ProvenanceSystem`]: the long-lived shared system a
//! CDSS implies, answering many ProQL queries between update exchanges.
//!
//! Three layers:
//!
//! * [`core::ServiceCore`] — single-writer / multi-reader semantics.
//!   Queries run against an immutable **versioned snapshot**
//!   (`Arc<Snapshot>`); CDSS updates (deletions, insert+exchange) build
//!   the next snapshot copy-on-write and publish it atomically.
//! * [`cache::ResultCache`] — a dependency-tracked result cache. Every
//!   answer carries the set of relations it reads
//!   ([`proql::engine::QueryOutput::touched`]); writes record their
//!   write set per relation, and an entry dies exactly when a write
//!   touches an overlapping relation — unrelated updates keep hot
//!   entries alive. Beneath it, [`cache::PlanCache`] keeps each query's
//!   [`proql::engine::PreparedQuery`]: a result-cache miss reuses the
//!   cached optimized plan (validated against statistics drift), so
//!   hot-template traffic skips parse → translate → optimize entirely.
//! * [`server`] — a zero-dependency `std::net` TCP front end built
//!   around a nonblocking readiness-driven event loop ([`net`] supplies
//!   the `poll(2)` shim and cross-thread waker). It speaks one wire
//!   format, the pipelined length-prefixed binary framing layer
//!   ([`frame`]) with out-of-band `PUSH` frames and explicit
//!   `OVERLOADED` load shedding. Every request runs through the one
//!   dispatcher and is answered through the one reply encoder
//!   ([`proto`]). The matching blocking client is [`BinClient`]
//!   ([`client`], pipelining).
//!   Per-connection admission control and an allocation-free latency
//!   histogram ([`metrics`]) ride along.
//!
//! Writes do not simply evict intersecting cache entries: the write path
//! first tries **incremental view maintenance** ([`proql::maintain_outputs`])
//! — keeping the entries no changed row can reach as they are, and
//! re-running the others' unfolded rules in delta form over the
//! published `(snapshot, delta)` pair, once per projection, to patch the
//! cached answers forward in O(delta). Only non-localizable shapes
//! (graph-walk answers, set-valued semirings the write reaches, broken
//! delta chains, oversized deltas) fall back to eviction. `SUBSCRIBE` clients ride the same machinery: maintained
//! entries push result deltas, fallbacks push a resync notice. They and
//! replicas are listeners on one fan-out ([`fanout`]), the last step of
//! every published write.
//!
//! `bench_e2e` (its own workspace) serves workloads over this stack end
//! to end and reports client-observed latency, throughput and cache hit
//! rates, digest-checked against a serial recompute.

pub mod cache;
pub mod client;
pub mod core;
pub mod fanout;
pub mod frame;
pub mod metrics;
pub mod net;
pub mod proto;
pub mod replica;
pub mod retry;
pub mod router;
pub mod server;
pub mod stats;

pub use crate::core::{PlanReuse, QueryResponse, ReplApplyOutcome, ServiceCore, Snapshot};
pub use cache::{CacheCounters, MaintenanceCandidate, PlanCache, PlanCacheCounters, ResultCache};
pub use client::BinClient;
pub use fanout::{PushSink, ReplFrameKind, ReplSink, SubscriptionEvent};
pub use metrics::{HistogramSnapshot, LatencyHistogram, TransportMetrics, TransportSnapshot};
pub use proto::result_digest;
pub use replica::{start_replica, wait_for_version, ReplicaConfig, ReplicaHandle};
pub use retry::{retry, retry_with, Backoff, RetryPolicy};
pub use router::{Router, RouterCounters, ShardMap};
pub use server::{serve, serve_with, ServerConfig, ServerHandle};
pub use stats::ServiceStats;
