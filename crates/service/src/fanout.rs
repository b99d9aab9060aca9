//! Fan a published write out to listeners.
//!
//! `SUBSCRIBE` clients and replicas are the same thing to the write
//! path: sinks that must hear about every published transition until
//! they report themselves dead. Both live in a `SinkList` — an
//! id-allocating list that prunes a sink the moment a delivery returns
//! `false` — and both are fed from `ServiceCore::fan_out`, the last
//! step of every state transition (local writes and replicated applies
//! alike). Query subscribers get a [`SubscriptionEvent`] when the write
//! intersects their answer's read set; replicas get the sealed delta
//! (or, on a broken chain, a full snapshot) as encoded
//! [`wire`] frames.

use crate::core::{QueryResponse, ServiceCore, Snapshot};
use crate::proto::result_digest;
use proql::engine::QueryOutput;
use proql_common::sync::lock;
use proql_common::{trace, Result};
use proql_provgraph::encode::wire;
use proql_provgraph::ProvenanceSystem;
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Live sinks under the ids they were registered with. Ids start at 1
/// and are never reused.
pub(crate) struct SinkList<S> {
    last_id: u64,
    live: Vec<(u64, S)>,
}

impl<S> Default for SinkList<S> {
    fn default() -> Self {
        SinkList {
            last_id: 0,
            live: Vec::new(),
        }
    }
}

/// Sinks are bare `dyn Fn`s, so `Debug` shows the live ids only.
impl<S> std::fmt::Debug for SinkList<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids: Vec<u64> = self.live.iter().map(|(id, _)| *id).collect();
        f.debug_struct("SinkList")
            .field("last_id", &self.last_id)
            .field("live", &ids)
            .finish()
    }
}

impl<S> SinkList<S> {
    /// Allocate the next id (whether or not a sink ends up registered
    /// under it).
    pub(crate) fn alloc_id(&mut self) -> u64 {
        self.last_id += 1;
        self.last_id
    }

    pub(crate) fn insert(&mut self, id: u64, sink: S) {
        self.live.push((id, sink));
    }

    /// Drop the sink registered under `id`. Returns whether it was live.
    pub(crate) fn remove(&mut self, id: u64) -> bool {
        let before = self.live.len();
        self.live.retain(|(i, _)| *i != id);
        self.live.len() < before
    }

    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Offer every live sink to `deliver`; a sink it returns `false` for
    /// is pruned.
    pub(crate) fn deliver(&mut self, mut deliver: impl FnMut(u64, &S) -> bool) {
        self.live.retain(|(id, sink)| deliver(*id, sink));
    }
}

/// What happened to a subscribed query's answer after a write (pushed to
/// `SUBSCRIBE` clients, tagged with the subscription id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriptionEvent {
    /// The cached answer was carried forward by incremental maintenance
    /// (patched, or kept unchanged with `rows_patched` 0): the
    /// subscriber's view is current again at `version` without a
    /// recompute. `digest` is the canonical result digest of the answer
    /// now cached (what a re-`QUERY` would report); `rows_patched` is how
    /// many projection/annotation rows actually changed. The digest is
    /// computed for subscribers only, once per cache key per write, after
    /// the cache lock is released: an entry nobody subscribes to costs
    /// no digest.
    Delta {
        /// The version the patched answer is valid at.
        version: u64,
        /// Projection and annotation rows added, removed, or revalued.
        rows_patched: u64,
        /// Canonical digest of the patched answer.
        digest: u64,
    },
    /// The write could not be maintained (fallback or the entry was
    /// gone): the cached answer died and the subscriber must re-issue
    /// the query to resynchronize.
    Resync {
        /// The version the subscriber should re-query at (or later).
        version: u64,
    },
}

/// Where subscription events are delivered: called with `(subscription
/// id, event)` on every intersecting write, returning whether the
/// subscriber is still alive (`false` prunes the subscription). Sinks
/// run on the writer's thread and must be cheap and non-blocking — the
/// TCP server's sink appends a pre-rendered PUSH frame to the
/// connection's outbound queue and wakes the event loop.
pub type PushSink = Box<dyn Fn(u64, SubscriptionEvent) -> bool + Send + Sync>;

/// One live subscription: where to push events for a cache key.
pub(crate) struct Subscription {
    key: String,
    /// The answer's read set at subscribe time — a write intersecting it
    /// triggers an event even if the cache entry itself has vanished.
    deps: BTreeSet<String>,
    sink: PushSink,
}

/// A cache entry a write kept, unchanged or patched, as the fan-out
/// step needs it: the answer now served under `key`, and how many of
/// its rows the write changed (0 for an unchanged entry).
pub(crate) struct KeptEntry {
    key: String,
    output: Arc<QueryOutput>,
    rows_patched: u64,
    /// The answer's digest, computed by the first subscriber that needs
    /// it.
    digest: OnceCell<u64>,
}

impl KeptEntry {
    pub(crate) fn new(key: String, output: Arc<QueryOutput>, rows_patched: u64) -> Self {
        KeptEntry {
            key,
            output,
            rows_patched,
            digest: OnceCell::new(),
        }
    }
}

/// The payload kind of a replication frame (selects the transport verb:
/// `REPL_DELTA` vs `REPL_SNAPSHOT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplFrameKind {
    /// A [`wire`]-encoded [`wire::DeltaFrame`].
    Delta,
    /// A [`wire`]-encoded [`wire::SnapshotFrame`] (broken-chain or
    /// forced-recovery fallback).
    Snapshot,
}

/// Where replication frames are delivered: called with `(kind, encoded
/// payload)` on every published write, returning whether the subscriber
/// is still alive (`false` prunes the subscription). Payloads are
/// encoded once and shared across subscribers; like [`PushSink`], sinks
/// run on the writer's thread and must be cheap and non-blocking.
pub type ReplSink = Box<dyn Fn(ReplFrameKind, &Arc<Vec<u8>>) -> bool + Send + Sync>;

type ReplFrames = Vec<(ReplFrameKind, Arc<Vec<u8>>)>;

/// Primary wall clock in microseconds since the UNIX epoch — stamped on
/// outgoing replication frames so replicas (on the same clock domain) can
/// measure apply lag.
pub(crate) fn wall_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Encode one `REPL_DELTA` frame per sealed log entry bridging `from` →
/// `to`, or `None` when the log cannot (chain broken by an out-of-band
/// bump, an oversized mutation, or retention trimming). Only the head
/// frame carries the graph digest — intermediate versions' graphs are
/// never materialized — so replicas check bit-identity exactly at the
/// versions the primary vouches for.
fn delta_frames(
    sys: &ProvenanceSystem,
    from: u64,
    to: u64,
    head_digest: u64,
    now: u64,
) -> Option<ReplFrames> {
    let entries: Vec<_> = sys.delta_entries(from, to)?.collect();
    if entries.len() as u64 != to - from || entries.iter().any(|d| d.is_overflowed()) {
        return None;
    }
    let n = entries.len();
    Some(
        entries
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let version = from + i as u64 + 1;
                let digest = if i + 1 == n { head_digest } else { 0 };
                let payload = wire::encode_delta_parts(version, digest, now, d);
                (ReplFrameKind::Delta, Arc::new(payload))
            })
            .collect(),
    )
}

/// The frames that carry a listener from `from_version` to `snap`: the
/// delta log's entries when it bridges the span and `force_snapshot` is
/// unset, one full snapshot otherwise (the counted, never-silent
/// fallback); nothing when the listener is already there.
fn transition_frames(snap: &Snapshot, from_version: u64, force_snapshot: bool) -> ReplFrames {
    if from_version == snap.version && !force_snapshot {
        return Vec::new();
    }
    let now = wall_micros();
    let digest = snap.graph_digest();
    let sys = &snap.engine.sys;
    let bridged = if force_snapshot || from_version > snap.version {
        None
    } else {
        delta_frames(sys, from_version, snap.version, digest, now)
    };
    bridged.unwrap_or_else(|| {
        let payload =
            wire::encode_snapshot_parts(snap.version, digest, now, &sys.snapshot_tables());
        vec![(ReplFrameKind::Snapshot, Arc::new(payload))]
    })
}

impl ServiceCore {
    /// Subscribe to a query (the `SUBSCRIBE` verb): runs it once (warming
    /// the cache entry maintenance keeps patched) and registers `sink`
    /// to be called with `(subscription id, event)` on every write that
    /// intersects the answer's read set — [`SubscriptionEvent::Delta`]
    /// when the answer was patched forward, [`SubscriptionEvent::Resync`]
    /// when the subscriber must re-query. The event-loop server's sink
    /// writes PUSH replies straight into a connection's outbound queue —
    /// no per-subscription channel, no polling cadence. The sink
    /// returning `false` prunes the subscription.
    pub fn subscribe_sink(&self, text: &str, sink: PushSink) -> Result<(u64, QueryResponse)> {
        let resp = self.query(text)?;
        let mut subs = lock(&self.subs);
        let id = subs.alloc_id();
        subs.insert(
            id,
            Subscription {
                key: ServiceCore::cache_key(text),
                deps: resp.output.touched.clone(),
                sink,
            },
        );
        Ok((id, resp))
    }

    /// Drop a subscription. Returns whether it was live.
    pub fn unsubscribe(&self, id: u64) -> bool {
        lock(&self.subs).remove(id)
    }

    /// Live subscriptions.
    pub fn subscription_count(&self) -> usize {
        lock(&self.subs).len()
    }

    /// Subscribe a replica: `sink` receives every future published write
    /// as encoded replication frames (see [`wire`]), after being caught
    /// up from `from_version` to the current version — via the delta log
    /// when it can bridge the span, via a full snapshot otherwise (or
    /// when `force_snapshot` is set: the digest-mismatch recovery path,
    /// where re-streaming deltas from the same version would replay the
    /// same corruption). A sink that reports itself dead during catch-up
    /// is never registered. Returns the subscription id.
    pub fn repl_subscribe_sink(
        &self,
        from_version: u64,
        force_snapshot: bool,
        sink: ReplSink,
    ) -> u64 {
        // Lock order matters: taking the repl lock *before* reading the
        // snapshot means a write publishing after our read blocks on
        // this lock and re-delivers its frames once we are registered —
        // no transition can fall between catch-up and live streaming.
        // Replicas treat re-delivered versions as stale no-ops.
        let mut repl = lock(&self.repl);
        let id = repl.alloc_id();
        let snap = self.snapshot();
        let catch_up = transition_frames(&snap, from_version, force_snapshot);
        if self.send_frames(&sink, &catch_up) {
            repl.insert(id, sink);
        }
        id
    }

    /// Drop a replica subscription. Returns whether it was live.
    pub fn repl_unsubscribe(&self, id: u64) -> bool {
        lock(&self.repl).remove(id)
    }

    /// Live replica subscriptions.
    pub fn repl_subscriber_count(&self) -> usize {
        lock(&self.repl).len()
    }

    /// Deliver `frames` to one replica sink in order, counting each as
    /// streamed. Returns whether the sink is still alive.
    fn send_frames(&self, sink: &ReplSink, frames: &ReplFrames) -> bool {
        frames.iter().all(|(kind, payload)| {
            match kind {
                ReplFrameKind::Delta => &self.repl_deltas_streamed,
                ReplFrameKind::Snapshot => &self.repl_snapshots_streamed,
            }
            .fetch_add(1, Ordering::Relaxed);
            sink(*kind, payload)
        })
    }

    /// The fan-out step of a just-published transition `from_version` →
    /// `next`.
    ///
    /// Query subscribers: every subscription whose read set `write_set`
    /// intersects gets this write's outcome — a `Delta` when its entry
    /// is in `kept`, a `Resync` otherwise (fallback, eviction, or
    /// snapshot install). A `Delta`'s digest is computed here, on first
    /// use, once per key: kept entries no live subscription names are
    /// never digested. The caller has released the cache lock.
    ///
    /// Replicas: delta frames when the log bridges the transition, one
    /// full snapshot otherwise. Payloads are encoded once and shared
    /// across subscribers. Chained topologies compose: a replica applying
    /// a delta re-seals it in its own log, so its downstream gets deltas
    /// too, while a snapshot install resets the log and cascades a
    /// snapshot.
    pub(crate) fn fan_out(
        &self,
        from_version: u64,
        next: &Snapshot,
        write_set: &BTreeSet<String>,
        kept: &[KeptEntry],
    ) {
        let _sp = trace::span("service.publish.fan_out");
        lock(&self.subs).deliver(|id, sub| {
            if !sub.deps.iter().any(|d| write_set.contains(d)) {
                return true;
            }
            let event = match kept.iter().find(|k| k.key == sub.key) {
                Some(k) => SubscriptionEvent::Delta {
                    version: next.version,
                    rows_patched: k.rows_patched,
                    digest: *k.digest.get_or_init(|| result_digest(&k.output)),
                },
                None => SubscriptionEvent::Resync {
                    version: next.version,
                },
            };
            (sub.sink)(id, event)
        });
        let mut repl = lock(&self.repl);
        if repl.is_empty() {
            return; // nobody to encode for
        }
        let frames = transition_frames(next, from_version, false);
        repl.deliver(|_, sink| self.send_frames(sink, &frames));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_list_allocates_ids_and_prunes_on_false() {
        let mut list: SinkList<bool> = SinkList::default();
        let a = list.alloc_id();
        list.insert(a, true);
        let skipped = list.alloc_id(); // allocated, never registered
        let b = list.alloc_id();
        list.insert(b, false);
        assert_eq!((a, skipped, b), (1, 2, 3));
        assert_eq!(list.len(), 2);
        let mut seen = Vec::new();
        list.deliver(|id, alive| {
            seen.push(id);
            *alive
        });
        assert_eq!(seen, [1, 3]);
        assert_eq!(list.len(), 1, "the sink that answered false is pruned");
        assert!(!list.remove(b), "already pruned");
        assert!(!list.remove(skipped));
        assert!(list.remove(a));
        assert_eq!(list.alloc_id(), 4, "ids are never reused");
    }
}
