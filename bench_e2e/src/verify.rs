//! The correctness oracle: every answer the service gave must carry the
//! digest a serial, from-scratch `Engine` computes over an instance this
//! module builds for itself from the seed — never over the server's own
//! state, except for the final-version check, which says so.

use crate::client::{Reply, Sample};
use crate::gen::{build_instance, Spec, WriteSeq};
use proql::engine::Engine;
use proql_cdss::update::delete_local;
use proql_common::Result;
use proql_provgraph::encode::wire;
use proql_provgraph::{ProvGraph, ProvenanceSystem};
use proql_service::{result_digest, ReplApplyOutcome, ServiceCore};
use std::collections::BTreeMap;

/// Reads re-computed from scratch per cache-missing run.
pub const VERIFY_READS: usize = 400;

/// Writes replayed (and `(version, query, digest)` triples checked, one
/// per replayed version) per mixed run.
pub const VERIFY_WRITES: usize = 300;

/// What a verification pass found.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: u64,
    pub mismatches: u64,
    /// Human-readable reasons, one per kind of failure.
    pub notes: Vec<String>,
}

impl Verdict {
    fn mismatch(&mut self, note: String) {
        self.mismatches += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// A serial engine with the shipped default options over a fresh build
/// of the instance.
pub fn oracle_engine(seed: u64, spec: &Spec) -> Result<Engine> {
    Ok(Engine::new(build_instance(seed, spec)?))
}

/// The digest a from-scratch serial evaluation gives `text`.
pub fn oracle_digest(engine: &Engine, text: &str) -> Result<u64> {
    Ok(result_digest(&engine.query(text)?))
}

/// Check `(text, reply)` pairs of a read-only workload against the
/// oracle at the instance's one version.
pub fn verify_reads(
    seed: u64,
    spec: &Spec,
    replies: impl Iterator<Item = (String, Reply)>,
) -> Result<Verdict> {
    let engine = oracle_engine(seed, spec)?;
    let version = engine.sys.version();
    let mut verdict = Verdict::default();
    for (text, reply) in replies {
        verdict.checked += 1;
        let want = oracle_digest(&engine, &text)?;
        match reply {
            Reply::Ok { version: v, digest } if v == version && digest == want => {}
            other => verdict.mismatch(format!(
                "{text}: served {other:?}, oracle digest {want} at version {version}"
            )),
        }
    }
    Ok(verdict)
}

/// Apply one generated write the plain way: local insert plus exchange,
/// or a deletion that rebuilds the provenance graph from the relational
/// encoding first.
fn apply_write(sys: &mut ProvenanceSystem, op: &crate::gen::WriteOp) -> Result<()> {
    if op.insert {
        sys.insert_local(&op.relation, op.tuple.clone())?;
        sys.run_exchange()?;
    } else {
        delete_local(sys, &op.relation, &op.tuple)?;
    }
    Ok(())
}

/// Verify a mixed run:
///
/// 1. replay the first [`VERIFY_WRITES`] writes of the log serially over
///    a fresh instance; after each, the oracle's version must be the one
///    the server acknowledged, and one reader reply stamped with that
///    version is re-computed by a fresh engine and compared;
/// 2. a follower fed the collected replication frames up to that point
///    must accept every one and land on the replayed graph's digest;
/// 3. at the server's final version, every hot query's served answer
///    must equal a fresh engine's over a deep clone of the final state.
pub fn verify_mixed(
    seed: u64,
    spec: &Spec,
    hot: &[String],
    acks: &[Sample],
    reads: &[Sample],
    frames: &[std::sync::Arc<Vec<u8>>],
    core: &ServiceCore,
) -> Result<Verdict> {
    let mut verdict = Verdict::default();
    let mut sys = build_instance(seed, spec)?;
    let follower = ServiceCore::new(build_instance(seed, spec)?, Default::default());
    follower.set_read_only(true);

    // Reader replies grouped by the version they were valid at.
    let mut by_version: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for r in reads {
        if let Reply::Ok { version, .. } = r.reply {
            by_version.entry(version).or_default().push(r);
        }
    }

    let mut frames = frames.iter();
    let ops = WriteSeq::new(seed, *spec);
    for (i, (op, ack)) in ops.zip(acks).take(VERIFY_WRITES).enumerate() {
        apply_write(&mut sys, &op)?;
        let Reply::Ok { version, .. } = ack.reply else {
            continue; // already counted as a failed request
        };
        verdict.checked += 1;
        if sys.version() != version {
            verdict.mismatch(format!(
                "write {i} ({} {}): acknowledged at version {version}, replay is at {}",
                if op.insert { "INSERT" } else { "DELETE" },
                op.relation,
                sys.version()
            ));
            return Ok(verdict); // later versions cannot line up either
        }
        // One reader reply at this version, rotating through the hot set.
        if let Some(replies) = by_version.get(&version) {
            let r = replies[i % replies.len()];
            let text = &hot[r.op as usize % hot.len()];
            let want = oracle_digest(&Engine::new(sys.clone()), text)?;
            verdict.checked += 1;
            if r.reply
                != (Reply::Ok {
                    version,
                    digest: want,
                })
            {
                verdict.mismatch(format!(
                    "{text}: served {:?}, oracle digest {want} at version {version}",
                    r.reply
                ));
            }
        }
        // Feed the follower the frames that seal versions up to here.
        while follower.version() < version {
            let Some(bytes) = frames.next() else {
                verdict.mismatch(format!("replication stream ends before version {version}"));
                return Ok(verdict);
            };
            let frame = wire::decode_delta_frame(bytes)?;
            verdict.checked += 1;
            match follower.apply_repl_delta_frame(&frame)? {
                ReplApplyOutcome::Applied { .. } => {}
                other => {
                    verdict.mismatch(format!("follower refused a frame: {other:?}"));
                    return Ok(verdict);
                }
            }
        }
    }
    verdict.checked += 1;
    let replayed = ProvGraph::from_system(&sys)?.digest();
    if follower.version() == sys.version() && follower.graph_digest() != replayed {
        verdict.mismatch(format!(
            "follower graph digest {} differs from the replayed {replayed}",
            follower.graph_digest()
        ));
    }

    // Final version: served (cached, maintained or re-executed) answers
    // against a fresh engine over a deep clone of the final state.
    let snap = core.snapshot();
    let fresh = Engine::new(snap.engine.sys.deep_clone());
    for text in hot {
        verdict.checked += 1;
        let served = core.query(text)?;
        let want = oracle_digest(&fresh, text)?;
        if served.version != snap.version || result_digest(&served.output) != want {
            verdict.mismatch(format!(
                "{text}: final answer at version {} differs from a fresh engine's",
                served.version
            ));
        }
    }
    Ok(verdict)
}

/// Versions a connection saw must never go backwards.
pub fn versions_monotone(samples: &[Sample]) -> bool {
    let mut last = 0;
    samples.iter().all(|s| match s.reply {
        Reply::Ok { version, .. } => {
            let ok = version >= last;
            last = version;
            ok
        }
        Reply::Failed => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    fn sample(version: u64) -> Sample {
        Sample {
            op: 0,
            done_s: 0.0,
            latency_ms: 0.0,
            reply: Reply::Ok { version, digest: 1 },
        }
    }

    #[test]
    fn a_version_going_backwards_is_caught() {
        assert!(versions_monotone(&[sample(3), sample(3), sample(5)]));
        assert!(!versions_monotone(&[sample(3), sample(5), sample(4)]));
    }

    #[test]
    fn the_oracle_rejects_a_wrong_digest_and_a_wrong_version() {
        let w = Workload::WriteMixed;
        let spec = w.spec();
        let engine = oracle_engine(1, &spec).unwrap();
        let text = crate::gen::mixed_queries(1)[0].clone();
        let good = oracle_digest(&engine, &text).unwrap();
        let version = engine.sys.version();
        let run = |reply| {
            verify_reads(1, &spec, std::iter::once((text.clone(), reply)))
                .unwrap()
                .mismatches
        };
        assert_eq!(
            run(Reply::Ok {
                version,
                digest: good
            }),
            0
        );
        assert_eq!(
            run(Reply::Ok {
                version,
                digest: good ^ 1
            }),
            1
        );
        assert_eq!(
            run(Reply::Ok {
                version: version + 1,
                digest: good
            }),
            1
        );
        assert_eq!(run(Reply::Failed), 1);
    }
}
