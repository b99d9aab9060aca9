//! Graph deltas: the unit of incremental provenance-graph maintenance.
//!
//! Every mutation of a [`ProvenanceSystem`] — local inserts, update
//! exchange, CDSS deletion propagation — stages a [`GraphDelta`]
//! describing exactly how the decoded provenance graph changes: which
//! derivation rows appeared or disappeared, and which tuple nodes'
//! resolved values must be refreshed. Sealing a mutation bumps the
//! system's version counter and appends the staged delta to the bounded
//! [`DeltaLog`], so a consumer holding a graph built at version `v` can
//! patch it forward to version `w` by applying the contiguous entries of
//! `(v, w]` instead of rebuilding from the relational encoding.
//!
//! Out-of-band mutations ([`ProvenanceSystem::bump_version`], schema
//! changes) **reset** the log: the chain is broken at that version and
//! consumers fall back to a full rebuild once.
//!
//! [`ProvenanceSystem`]: crate::ProvenanceSystem
//! [`ProvenanceSystem::bump_version`]: crate::ProvenanceSystem::bump_version

use proql_common::Tuple;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// One atomic change to the decoded provenance graph.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// A provenance row appeared: decode it into a derivation node (and
    /// any tuple nodes it references). `row` is the `P_m` row of
    /// `mapping`, whether materialized or served by a superfluous view.
    AddDerivation {
        /// The mapping whose provenance relation gained the row.
        mapping: String,
        /// The provenance row (full variable binding).
        row: Tuple,
    },
    /// A provenance row disappeared: remove its derivation node and any
    /// tuple nodes left unreferenced.
    RemoveDerivation {
        /// The mapping whose provenance relation lost the row.
        mapping: String,
        /// The provenance row that was removed.
        row: Tuple,
    },
    /// A base-table row appeared or disappeared: re-resolve the values of
    /// the tuple node `(relation, key)` from the database at apply time.
    SetValues {
        /// The public relation whose row changed.
        relation: String,
        /// Primary key of the changed row.
        key: Tuple,
    },
}

/// One physical row-level change to a stored table: the raw material of
/// incremental view maintenance. Unlike [`DeltaOp`] — which describes the
/// decoded provenance *graph* — a `RowChange` records exactly which stored
/// row appeared or disappeared in which table, so a maintainer can seed
/// delta evaluation of an unfolded query with precisely the changed rows.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChange {
    /// The stored table (public, local `*_l`, or materialized `P_m`).
    pub table: String,
    /// The full row that was inserted or deleted.
    pub row: Tuple,
    /// `true` for an insert, `false` for a delete.
    pub added: bool,
}

/// The staged/sealed change set of one system mutation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    /// Graph changes, in the order they happened.
    pub ops: Vec<DeltaOp>,
    /// Raw row-level changes to stored tables, in the order they happened.
    /// Shares the per-entry ops budget (`ENTRY_OPS_CAP`) with `ops`.
    pub rows: Vec<RowChange>,
    /// Every base table the mutation physically modified — the mutation's
    /// **write set**, which the query service intersects with cached
    /// answers' read sets.
    pub touched: BTreeSet<String>,
    /// Set when the mutation staged more ops than [`ENTRY_OPS_CAP`]: the
    /// ops were dropped (a bulk load patches no faster than a rebuild)
    /// and sealing resets the chain instead of pushing. `touched` stays
    /// exact either way.
    pub(crate) overflowed: bool,
}

/// Per-mutation op budget: a single mutation staging more than this many
/// graph ops (a bulk load, a full exchange bootstrap) stops recording and
/// marks the delta overflowed — patching such an entry would not beat a
/// rebuild, and the bounded [`DeltaLog`] could not retain it anyway.
pub(crate) const ENTRY_OPS_CAP: usize = 32_768;

impl GraphDelta {
    /// True when the mutation changed nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.rows.is_empty() && self.touched.is_empty()
    }

    /// Combined record count, charged against [`ENTRY_OPS_CAP`] and the
    /// [`DeltaLog`] op budget.
    pub(crate) fn weight(&self) -> usize {
        self.ops.len() + self.rows.len()
    }

    fn overflow(&mut self) {
        self.overflowed = true;
        self.ops = Vec::new();
        self.rows = Vec::new();
    }

    /// Stage one op, honoring [`ENTRY_OPS_CAP`].
    pub(crate) fn push_op(&mut self, op: DeltaOp) {
        if self.overflowed {
            return;
        }
        if self.weight() >= ENTRY_OPS_CAP {
            self.overflow();
            return;
        }
        self.ops.push(op);
    }

    /// True when the mutation staged more ops than the per-entry budget
    /// and the recorded ops were dropped. An overflowed delta cannot be
    /// replayed (on a replica or a cached graph) — consumers must fall
    /// back to a rebuild / snapshot transfer.
    pub fn is_overflowed(&self) -> bool {
        self.overflowed
    }

    /// Stage one raw row change, honoring the shared [`ENTRY_OPS_CAP`].
    pub(crate) fn push_row(&mut self, table: &str, row: &Tuple, added: bool) {
        if self.overflowed {
            return;
        }
        if self.weight() >= ENTRY_OPS_CAP {
            self.overflow();
            return;
        }
        self.rows.push(RowChange {
            table: table.to_string(),
            row: row.clone(),
            added,
        });
    }
}

/// Default cap on retained entries; spans falling off the log fall back
/// to a full graph rebuild (or, for replicas, a snapshot transfer).
pub const DEFAULT_MAX_ENTRIES: usize = 256;

/// Op budget retained per log entry slot: the total-op cap scales with
/// the entry cap so one capacity sets both.
const OPS_PER_ENTRY: usize = 256;

/// A bounded, contiguous log of sealed [`GraphDelta`]s.
///
/// Entry `i` describes the mutation that took the system from version
/// `base + i` to `base + i + 1`.
///
/// A sealed entry never changes, so entries are held behind `Arc`s:
/// cloning the log (every copy-on-write clone of a
/// [`crate::ProvenanceSystem`] does) copies one pointer per entry, not
/// the entries' ops and rows.
///
/// The retention bound defaults to [`DEFAULT_MAX_ENTRIES`] and is
/// configurable per instance via [`DeltaLog::with_capacity`] /
/// [`DeltaLog::set_capacity`]. Deeper logs let replicas catch up over
/// longer disconnections without a snapshot transfer, at the cost of
/// retained memory.
#[derive(Debug, Clone)]
pub struct DeltaLog {
    base: u64,
    entries: VecDeque<Arc<GraphDelta>>,
    total_ops: usize,
    compactions: u64,
    max_entries: usize,
    max_ops: usize,
}

impl Default for DeltaLog {
    fn default() -> Self {
        DeltaLog::with_capacity(DEFAULT_MAX_ENTRIES)
    }
}

impl DeltaLog {
    /// An empty log retaining at most `max_entries` entries (minimum 1)
    /// and `max_entries * 256` total ops.
    pub fn with_capacity(max_entries: usize) -> Self {
        let max_entries = max_entries.max(1);
        DeltaLog {
            base: 0,
            entries: VecDeque::new(),
            total_ops: 0,
            compactions: 0,
            max_entries,
            max_ops: max_entries.saturating_mul(OPS_PER_ENTRY),
        }
    }

    /// Oldest version the log can patch **from**.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Retained entry count (the log's current depth).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// The configured retention bound, in entries.
    pub fn capacity(&self) -> usize {
        self.max_entries
    }

    /// Change the retention bound (minimum 1), trimming immediately if
    /// the retained history exceeds the new bound.
    pub fn set_capacity(&mut self, max_entries: usize) {
        self.max_entries = max_entries.max(1);
        self.max_ops = self.max_entries.saturating_mul(OPS_PER_ENTRY);
        self.trim();
    }

    /// Newest version the log can patch **to**.
    pub fn head(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Lifetime count of entries dropped to stay within the retention
    /// budget (each drop shrinks the patchable span by one version).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Drop all history and restart the chain at `version` (an untracked
    /// mutation happened — consumers must rebuild once).
    pub fn reset(&mut self, version: u64) {
        self.base = version;
        self.entries.clear();
        self.total_ops = 0;
    }

    /// Append the delta that produced `to_version`. If the log is not
    /// contiguous with it (should not happen through the system's API),
    /// the chain conservatively restarts at `to_version`.
    pub fn push(&mut self, to_version: u64, delta: GraphDelta) {
        if self.head() + 1 != to_version {
            self.reset(to_version);
            return;
        }
        self.total_ops += delta.weight();
        self.entries.push_back(Arc::new(delta));
        self.trim();
    }

    fn trim(&mut self) {
        while self.entries.len() > self.max_entries || self.total_ops > self.max_ops {
            if let Some(dropped) = self.entries.pop_front() {
                self.total_ops -= dropped.weight();
                self.base += 1;
                self.compactions += 1;
            } else {
                break;
            }
        }
    }

    /// The contiguous entries covering `(from, to]`, or `None` when the
    /// log cannot bridge that span (history trimmed, or the chain was
    /// broken by an untracked mutation).
    pub fn span(&self, from: u64, to: u64) -> Option<impl Iterator<Item = &GraphDelta>> {
        if from < self.base || to > self.head() || from > to {
            return None;
        }
        let a = (from - self.base) as usize;
        let b = (to - self.base) as usize;
        Some(self.entries.range(a..b).map(|d| &**d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(n_ops: usize) -> GraphDelta {
        GraphDelta {
            ops: (0..n_ops)
                .map(|i| DeltaOp::SetValues {
                    relation: "R".into(),
                    key: Tuple::new(vec![proql_common::Value::Int(i as i64)]),
                })
                .collect(),
            rows: Vec::new(),
            touched: ["R".to_string()].into_iter().collect(),
            overflowed: false,
        }
    }

    #[test]
    fn push_op_caps_and_overflows() {
        let mut d = GraphDelta::default();
        for i in 0..(ENTRY_OPS_CAP + 10) {
            d.push_op(DeltaOp::SetValues {
                relation: "R".into(),
                key: Tuple::new(vec![proql_common::Value::Int(i as i64)]),
            });
        }
        assert!(d.overflowed);
        assert!(d.ops.is_empty(), "overflowed ops are dropped, not kept");
        assert!(!d.is_empty() || d.touched.is_empty());
    }

    #[test]
    fn rows_share_the_op_budget() {
        let mut d = GraphDelta::default();
        let row = Tuple::new(vec![proql_common::Value::Int(1)]);
        for _ in 0..(ENTRY_OPS_CAP / 2) {
            d.push_op(DeltaOp::SetValues {
                relation: "R".into(),
                key: row.clone(),
            });
            d.push_row("R", &row, true);
        }
        assert!(!d.overflowed);
        // One more record of either kind tips the shared budget over.
        d.push_row("R", &row, false);
        assert!(d.overflowed);
        assert!(d.ops.is_empty() && d.rows.is_empty());
        // Further pushes stay ignored.
        d.push_op(DeltaOp::SetValues {
            relation: "R".into(),
            key: row.clone(),
        });
        assert!(d.ops.is_empty());
    }

    #[test]
    fn contiguous_push_and_span() {
        let mut log = DeltaLog::default();
        log.reset(10);
        log.push(11, delta(1));
        log.push(12, delta(2));
        assert_eq!(log.base(), 10);
        assert_eq!(log.head(), 12);
        assert_eq!(log.span(10, 12).unwrap().count(), 2);
        assert_eq!(log.span(11, 12).unwrap().count(), 1);
        assert_eq!(log.span(12, 12).unwrap().count(), 0);
        assert!(log.span(9, 12).is_none());
        assert!(log.span(10, 13).is_none());
    }

    #[test]
    fn clones_share_sealed_entries() {
        let mut log = DeltaLog::default();
        log.reset(0);
        log.push(1, delta(3));
        let copy = log.clone();
        log.push(2, delta(1));
        assert!(Arc::ptr_eq(&log.entries[0], &copy.entries[0]));
        assert_eq!(copy.head(), 1, "a clone does not see later pushes");
        assert_eq!(
            log.span(0, 1).unwrap().next(),
            copy.span(0, 1).unwrap().next()
        );
    }

    #[test]
    fn non_contiguous_push_resets() {
        let mut log = DeltaLog::default();
        log.reset(0);
        log.push(1, delta(1));
        log.push(5, delta(1)); // gap: chain restarts at 5
        assert_eq!(log.base(), 5);
        assert_eq!(log.head(), 5);
        assert!(log.span(0, 1).is_none());
    }

    #[test]
    fn trimming_advances_base() {
        let mut log = DeltaLog::default();
        log.reset(0);
        for v in 1..=(DEFAULT_MAX_ENTRIES as u64 + 10) {
            log.push(v, delta(0));
        }
        assert_eq!(log.head(), DEFAULT_MAX_ENTRIES as u64 + 10);
        assert_eq!(log.base(), 10);
        assert!(log.span(0, log.head()).is_none());
        assert!(log.span(log.base(), log.head()).is_some());
    }

    #[test]
    fn op_budget_trims() {
        let mut log = DeltaLog::default();
        log.reset(0);
        log.push(1, delta(DEFAULT_MAX_ENTRIES * OPS_PER_ENTRY - 1));
        log.push(2, delta(2));
        assert_eq!(log.base(), 1, "oversized history must drop the oldest");
    }

    #[test]
    fn configured_capacity_bounds_depth_and_shrinking_trims() {
        let mut log = DeltaLog::with_capacity(4);
        assert_eq!(log.capacity(), 4);
        log.reset(0);
        for v in 1..=10u64 {
            log.push(v, delta(1));
        }
        assert_eq!(log.depth(), 4);
        assert_eq!(log.base(), 6, "base is the trimmed low watermark");
        assert!(log.span(5, 10).is_none());
        assert!(log.span(6, 10).is_some());
        // Shrinking the bound trims retained history immediately.
        log.set_capacity(2);
        assert_eq!(log.depth(), 2);
        assert_eq!(log.base(), 8);
    }
}
