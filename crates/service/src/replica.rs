//! Replica side of delta-streaming replication.
//!
//! [`start_replica`] turns a local [`ServiceCore`] into a read-only
//! follower of a primary: a background thread dials the primary's
//! binary port, performs the `HELLO` version handshake, subscribes to
//! the replication stream from the replica's current version, and
//! applies every `REPL_DELTA` / `REPL_SNAPSHOT` frame in order. Reads
//! keep flowing against the replica's published snapshot the whole
//! time — only the stream thread touches the write gate.
//!
//! Failure handling is the interesting part, and every path funnels
//! into one of two outcomes:
//!
//! * **Reconnect & resubscribe from the local version** — connection
//!   loss, or a version *gap* (the primary trimmed its delta log past
//!   us, or frames were lost). The primary's subscribe path then either
//!   replays the missing deltas from its log or falls back to a full
//!   snapshot; either way the replica converges.
//! * **Reconnect & force a snapshot** — digest mismatch or an undecodable
//!   frame. The replica's replayed graph digest disagreeing with the
//!   primary's means the delta chain can no longer be trusted, so the
//!   replica refuses to publish (the check happens *before* publish)
//!   and asks for a fresh snapshot instead. Counted in
//!   `repl_resubscribes` / `repl_digest_mismatches`, never silent.
//!
//! Reconnects use the jittered capped backoff from [`mod@crate::retry`], so
//! a restarting primary is not met by a thundering herd of replicas.

use crate::client::BinClient;
use crate::core::{ReplApplyOutcome, ServiceCore};
use crate::frame::verb;
use crate::retry::{Backoff, RetryPolicy};
use proql_provgraph::encode::wire;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning for the replica stream thread.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Backoff between reconnect attempts (the replica never gives up;
    /// the policy's `max_attempts` is ignored, only the delay schedule
    /// is used).
    pub retry: RetryPolicy,
    /// How long one quiet-wire wait lasts before the loop rechecks the
    /// shutdown flag. Bounds `stop()` latency, not apply latency: a
    /// frame that is already in flight wakes the read immediately.
    pub poll: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            retry: RetryPolicy::default(),
            poll: Duration::from_millis(25),
        }
    }
}

/// Handle to a running replica stream thread.
#[derive(Debug)]
pub struct ReplicaHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ReplicaHandle {
    /// Signal the stream thread to exit and wait for it. The core stays
    /// read-only and keeps serving its last published snapshot.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start following `primary`: marks `core` read-only (local writes are
/// refused with a clean error pointing at the primary) and spawns the
/// stream thread. Returns immediately; use [`wait_for_version`] to
/// block until the replica has caught up to a known point.
pub fn start_replica(
    core: Arc<ServiceCore>,
    primary: SocketAddr,
    cfg: ReplicaConfig,
) -> ReplicaHandle {
    core.set_read_only(true);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = thread::Builder::new()
        .name("proql-replica".into())
        .spawn(move || replica_loop(&core, primary, &cfg, &stop2))
        .expect("spawn replica thread");
    ReplicaHandle {
        stop,
        thread: Some(thread),
    }
}

/// Poll `core` until its published version reaches `version` or
/// `timeout` elapses. Returns whether it caught up.
pub fn wait_for_version(core: &ServiceCore, version: u64, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while core.version() < version {
        if Instant::now() >= deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(1));
    }
    true
}

enum StreamEnd {
    Stopped,
    Reconnect,
}

enum FrameAction {
    Applied,
    Resubscribe { snapshot: bool },
}

fn replica_loop(core: &ServiceCore, primary: SocketAddr, cfg: &ReplicaConfig, stop: &AtomicBool) {
    let mut backoff = Backoff::new(cfg.retry.clone());
    let mut force_snapshot = false;
    while !stop.load(Ordering::Relaxed) {
        match run_stream(core, primary, cfg, stop, &mut force_snapshot, &mut backoff) {
            StreamEnd::Stopped => break,
            StreamEnd::Reconnect => sleep_interruptibly(stop, backoff.next_delay(), cfg.poll),
        }
    }
}

/// One connection's lifetime: dial, handshake, subscribe, apply frames
/// until the wire breaks, the chain breaks, or we are told to stop.
fn run_stream(
    core: &ServiceCore,
    primary: SocketAddr,
    cfg: &ReplicaConfig,
    stop: &AtomicBool,
    force_snapshot: &mut bool,
    backoff: &mut Backoff,
) -> StreamEnd {
    let mut client = match BinClient::connect(primary) {
        Ok(c) => c,
        Err(_) => return StreamEnd::Reconnect,
    };
    if client.hello().is_err() {
        return StreamEnd::Reconnect;
    }
    if client
        .repl_subscribe(core.version(), *force_snapshot)
        .is_err()
    {
        return StreamEnd::Reconnect;
    }
    loop {
        if stop.load(Ordering::Relaxed) {
            return StreamEnd::Stopped;
        }
        let f = match client.next_repl_timeout(cfg.poll) {
            Ok(Some(f)) => f,
            Ok(None) => continue,
            Err(_) => return StreamEnd::Reconnect,
        };
        match apply_frame(core, f.verb, &f.payload) {
            FrameAction::Applied => {
                // A clean apply proves the chain and the wire are
                // healthy again: restart the backoff schedule and drop
                // any pending snapshot demand.
                *force_snapshot = false;
                backoff.reset();
            }
            FrameAction::Resubscribe { snapshot } => {
                *force_snapshot |= snapshot;
                core.note_repl_resubscribe();
                return StreamEnd::Reconnect;
            }
        }
    }
}

/// Decode and apply one replication frame, classifying every failure as
/// either recoverable-from-the-log (plain resubscribe) or
/// chain-breaking (snapshot resubscribe).
fn apply_frame(core: &ServiceCore, frame_verb: u8, payload: &[u8]) -> FrameAction {
    match frame_verb {
        verb::REPL_DELTA => match wire::decode_delta_frame(payload) {
            Ok(df) => match core.apply_repl_delta_frame(&df) {
                Ok(ReplApplyOutcome::Applied { .. }) | Ok(ReplApplyOutcome::Stale { .. }) => {
                    FrameAction::Applied
                }
                Ok(ReplApplyOutcome::Gap { .. }) => FrameAction::Resubscribe { snapshot: false },
                Ok(ReplApplyOutcome::DigestMismatch { .. }) | Err(_) => {
                    FrameAction::Resubscribe { snapshot: true }
                }
            },
            Err(_) => FrameAction::Resubscribe { snapshot: true },
        },
        verb::REPL_SNAPSHOT => match wire::decode_snapshot_frame(payload) {
            Ok(sf) => match core.install_repl_snapshot_frame(&sf) {
                Ok(_) => FrameAction::Applied,
                Err(_) => FrameAction::Resubscribe { snapshot: true },
            },
            Err(_) => FrameAction::Resubscribe { snapshot: true },
        },
        _ => FrameAction::Applied,
    }
}

/// Sleep for `total`, waking every `slice` to honor the stop flag.
fn sleep_interruptibly(stop: &AtomicBool, total: Duration, slice: Duration) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        thread::sleep((deadline - now).min(slice));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServiceCore;
    use crate::server::serve;
    use proql::engine::EngineOptions;
    use proql_common::tup;
    use proql_provgraph::system::example_2_1;
    use std::time::Duration;

    fn core_from_example() -> Arc<ServiceCore> {
        Arc::new(ServiceCore::new(
            example_2_1().expect("example system"),
            EngineOptions::default(),
        ))
    }

    fn quick_cfg() -> ReplicaConfig {
        ReplicaConfig {
            retry: RetryPolicy {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(20),
                max_attempts: 8,
                seed: 42,
            },
            poll: Duration::from_millis(5),
        }
    }

    #[test]
    fn replica_follows_a_live_primary_over_tcp() {
        let primary = core_from_example();
        let server = serve(Arc::clone(&primary), "127.0.0.1:0", 2).expect("serve primary");

        let replica = core_from_example();
        let handle = start_replica(Arc::clone(&replica), server.addr(), quick_cfg());

        primary.delete("C", &tup![2, "cn2"]).expect("delete");
        let target = primary.version();
        assert!(
            wait_for_version(&replica, target, Duration::from_secs(10)),
            "replica never reached version {target}"
        );
        assert_eq!(replica.graph_digest(), primary.graph_digest());
        assert!(replica.is_read_only());
        let err = replica
            .delete("A", &tup![1, "sn1", 7])
            .expect_err("replica must refuse local writes");
        assert!(err.to_string().contains("read-only replica"), "{err}");

        handle.stop();
        server.shutdown();
    }

    #[test]
    fn replica_survives_a_primary_restart() {
        let primary = core_from_example();
        let server = serve(Arc::clone(&primary), "127.0.0.1:0", 2).expect("serve primary");
        let addr = server.addr();

        let replica = core_from_example();
        let handle = start_replica(Arc::clone(&replica), addr, quick_cfg());

        primary.delete("C", &tup![2, "cn2"]).expect("delete");
        assert!(wait_for_version(
            &replica,
            primary.version(),
            Duration::from_secs(10)
        ));

        // Kill the primary's listener, then bring it back on the same
        // port: the replica must reconnect and resume the stream.
        server.shutdown();
        let server = loop {
            match serve(Arc::clone(&primary), &addr.to_string(), 2) {
                Ok(s) => break s,
                Err(_) => thread::sleep(Duration::from_millis(5)),
            }
        };
        primary.delete("N", &tup![1, "cn1"]).expect("delete 2");
        assert!(
            wait_for_version(&replica, primary.version(), Duration::from_secs(10)),
            "replica did not recover after primary restart"
        );
        assert_eq!(replica.graph_digest(), primary.graph_digest());

        handle.stop();
        server.shutdown();
    }
}
