//! Tables: schema + rows + primary-key map + secondary indexes, plus the
//! incrementally-maintained columnar side-structures the batch executor
//! scans through: per-column string [dictionaries](crate::dict) and
//! per-morsel [zone maps](crate::zone).

use crate::batch::{Column, RecordBatch};
use crate::dict::{Dictionary, NULL_CODE};
use crate::index::{Index, IndexKind};
use crate::stats::TableStats;
use crate::zone::{ZoneMaps, ZonePred, ZONE_ROWS};
use proql_common::{Error, Result, Schema, Tuple, Value, ValueType};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-process default for dictionary encoding, from the `PROQL_DICT`
/// environment variable (`0` disables — the ablation knob). Read at
/// table-creation time; [`crate::database::Database`] carries its own copy
/// so tests can flip it per database without races.
pub fn dict_default() -> bool {
    std::env::var("PROQL_DICT")
        .map(|v| v != "0")
        .unwrap_or(true)
}

/// Dictionary encoding of one `Str`-typed column: codes aligned with the
/// table's physical row vector (tombstones included, `NULL_CODE` for NULL)
/// plus the shared interning table.
#[derive(Debug, Clone)]
struct ColDict {
    codes: Vec<u32>,
    dict: Arc<Dictionary>,
}

/// A stored table with set semantics on the primary key.
///
/// Inserting a tuple whose key already exists is a no-op returning `false`
/// (set semantics, as in the paper's data-exchange instances); the first
/// writer wins. Rows are append-only except for [`Table::delete_by_key`],
/// which is used by incremental update exchange.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: Vec<Tuple>,
    /// key tuple -> row position; tombstoned rows are removed from this map.
    pk: HashMap<Tuple, usize>,
    /// live-row flags aligned with `rows` (deletion tombstones).
    live: Vec<bool>,
    indexes: Vec<Index>,
    tombstones: usize,
    /// Optimizer statistics, maintained incrementally on insert/delete.
    stats: TableStats,
    /// One entry per column: `Some` iff the column is `Str`-typed and
    /// dictionary encoding is enabled for this table.
    dicts: Vec<Option<ColDict>>,
    /// Per-morsel min/max/null-count, maintained like `stats`.
    zones: ZoneMaps,
}

impl Table {
    /// Create an empty table (dictionary encoding per [`dict_default`]).
    pub fn new(schema: Schema) -> Self {
        Table::with_dict(schema, dict_default())
    }

    /// Create an empty table, explicitly enabling or disabling dictionary
    /// encoding for its string columns.
    pub fn with_dict(schema: Schema, dict: bool) -> Self {
        let arity = schema.arity();
        let dicts = schema
            .attributes()
            .iter()
            .map(|a| {
                (dict && a.ty == ValueType::Str).then(|| ColDict {
                    codes: Vec::new(),
                    dict: Arc::new(Dictionary::new()),
                })
            })
            .collect();
        Table {
            schema,
            rows: Vec::new(),
            pk: HashMap::new(),
            live: Vec::new(),
            indexes: Vec::new(),
            tombstones: 0,
            stats: TableStats::new(arity),
            dicts,
            zones: ZoneMaps::new(arity),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Optimizer statistics over the live rows: row count plus per-column
    /// NDV and min/max, kept exact by incremental maintenance.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.pk.len()
    }

    /// True iff no live rows.
    pub fn is_empty(&self) -> bool {
        self.pk.is_empty()
    }

    /// Insert a tuple. Returns `Ok(true)` if it was new, `Ok(false)` if a
    /// row with the same key already existed.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.schema.check(&tuple)?;
        let key = self.schema.key_of(&tuple);
        if self.pk.contains_key(&key) {
            return Ok(false);
        }
        let pos = self.rows.len();
        for ix in &mut self.indexes {
            ix.insert(&tuple, pos);
        }
        self.pk.insert(key, pos);
        let codes = self.encode_row(&tuple);
        self.stats.add_row_coded(&tuple, &codes);
        self.zones.add_row(pos, &tuple);
        self.rows.push(tuple);
        self.live.push(true);
        Ok(true)
    }

    /// Intern the row's string cells into the per-column dictionaries and
    /// append their codes; returns the codes for stats keying (empty when
    /// no column is dictionary-encoded).
    fn encode_row(&mut self, tuple: &Tuple) -> Vec<Option<u32>> {
        if self.dicts.iter().all(Option::is_none) {
            return Vec::new();
        }
        let mut out = vec![None; self.dicts.len()];
        for (c, slot) in self.dicts.iter_mut().enumerate() {
            let Some(cd) = slot else { continue };
            let code = match &tuple.values()[c] {
                Value::Str(s) => Arc::make_mut(&mut cd.dict).intern(s),
                Value::Null => NULL_CODE,
                other => unreachable!("schema-checked Str column holds {other}"),
            };
            cd.codes.push(code);
            if code != NULL_CODE {
                out[c] = Some(code);
            }
        }
        out
    }

    /// The stats-keying codes of the physical row at `pos`.
    fn codes_at(&self, pos: usize) -> Vec<Option<u32>> {
        if self.dicts.iter().all(Option::is_none) {
            return Vec::new();
        }
        self.dicts
            .iter()
            .map(|slot| {
                slot.as_ref().and_then(|cd| {
                    let c = cd.codes[pos];
                    (c != NULL_CODE).then_some(c)
                })
            })
            .collect()
    }

    /// Bulk insert; returns how many were new.
    pub fn insert_all(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> Result<usize> {
        let mut n = 0;
        for t in tuples {
            if self.insert(t)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Fetch the live row with primary key `key`.
    pub fn get_by_key(&self, key: &Tuple) -> Option<&Tuple> {
        self.pk.get(key).map(|&pos| &self.rows[pos])
    }

    /// True iff a live row with this exact tuple's key exists **and** equals it.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        let key = self.schema.key_of(tuple);
        self.get_by_key(&key) == Some(tuple)
    }

    /// Delete the row with primary key `key`. Returns the removed tuple.
    /// Secondary indexes are rebuilt lazily on the next scan-through if the
    /// tombstone fraction exceeds 1/2 (compaction).
    pub fn delete_by_key(&mut self, key: &Tuple) -> Option<Tuple> {
        let pos = self.pk.remove(key)?;
        self.live[pos] = false;
        self.tombstones += 1;
        let removed = self.rows[pos].clone();
        let codes = self.codes_at(pos);
        self.stats.remove_row_coded(&removed, &codes);
        self.zones.remove_row(pos, &removed);
        if self.tombstones * 2 > self.rows.len() {
            self.compact();
        }
        Some(removed)
    }

    fn compact(&mut self) {
        // Compact the code vectors with the same live filter (codes stay
        // valid — the dictionary is append-only and untouched).
        for cd in self.dicts.iter_mut().flatten() {
            cd.codes = cd
                .codes
                .iter()
                .zip(&self.live)
                .filter(|&(_, &l)| l)
                .map(|(&c, _)| c)
                .collect();
        }
        let mut new_rows = Vec::with_capacity(self.pk.len());
        for (pos, row) in self.rows.iter().enumerate() {
            if self.live[pos] {
                new_rows.push(row.clone());
            }
        }
        self.rows = new_rows;
        self.live = vec![true; self.rows.len()];
        self.tombstones = 0;
        self.pk.clear();
        for (pos, row) in self.rows.iter().enumerate() {
            self.pk.insert(self.schema.key_of(row), pos);
        }
        for ix in &mut self.indexes {
            ix.rebuild(&self.rows);
        }
        // Zone bounds went loose under the deletes; rebuild them tight on
        // the compacted positions.
        self.zones.clear();
        for (pos, row) in self.rows.iter().enumerate() {
            self.zones.add_row(pos, row);
        }
    }

    /// Iterate over live rows.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.rows
            .iter()
            .zip(self.live.iter())
            .filter_map(|(r, &l)| l.then_some(r))
    }

    /// Materialize all live rows.
    pub fn scan(&self) -> Vec<Tuple> {
        self.iter().cloned().collect()
    }

    /// Create a secondary index on `columns`. Errors if a same-named index
    /// exists.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        columns: Vec<usize>,
        kind: IndexKind,
    ) -> Result<()> {
        let name = name.into();
        if self.indexes.iter().any(|ix| ix.name() == name) {
            return Err(Error::AlreadyExists(format!("index {name}")));
        }
        for &c in &columns {
            if c >= self.schema.arity() {
                return Err(Error::Storage(format!(
                    "index column {c} out of range for {}",
                    self.schema.name()
                )));
            }
        }
        let mut ix = Index::new(name, columns, kind);
        ix.rebuild(&self.rows);
        // Rebuild indexes see tombstoned rows too; lookups filter on `live`.
        self.indexes.push(ix);
        Ok(())
    }

    /// Find an index covering exactly the given column set (order-insensitive).
    pub fn find_index(&self, columns: &[usize]) -> Option<&Index> {
        self.indexes.iter().find(|ix| {
            ix.columns().len() == columns.len() && ix.columns().iter().all(|c| columns.contains(c))
        })
    }

    /// All indexes.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Rows matching `key` on the columns of `index` (live rows only).
    pub fn index_lookup(&self, index: &Index, key: &Tuple) -> Vec<Tuple> {
        index
            .lookup(key)
            .iter()
            .filter(|&&pos| self.live[pos])
            .map(|&pos| self.rows[pos].clone())
            .collect()
    }

    /// Clear all rows, keeping schema and (empty) indexes. Dictionaries
    /// reset to empty — codes do not survive a truncate.
    pub fn truncate(&mut self) {
        self.rows.clear();
        self.pk.clear();
        self.live.clear();
        self.tombstones = 0;
        self.stats.clear();
        for cd in self.dicts.iter_mut().flatten() {
            cd.codes.clear();
            cd.dict = Arc::new(Dictionary::new());
        }
        self.zones.clear();
        for ix in &mut self.indexes {
            ix.rebuild(&[]);
        }
    }

    /// The dictionary backing column `c`, when it is dictionary-encoded.
    pub fn dictionary(&self, c: usize) -> Option<&Arc<Dictionary>> {
        self.dicts.get(c)?.as_ref().map(|cd| &cd.dict)
    }

    /// True iff any column is dictionary-encoded.
    pub fn has_dict(&self) -> bool {
        self.dicts.iter().any(Option::is_some)
    }

    /// The table's zone maps.
    pub fn zones(&self) -> &ZoneMaps {
        &self.zones
    }

    /// Columnar scan of all live rows. Dictionary-encoded NULL-free string
    /// columns come out as [`Column::Dict`] (a code memcpy — no string
    /// clones); every other column decodes exactly as
    /// [`RecordBatch::from_rows`] would.
    pub fn to_batch(&self) -> RecordBatch {
        self.to_batch_pruned(None).0
    }

    /// Zone-pruned columnar scan: zones that [`ZoneMaps::can_skip`] proves
    /// cannot satisfy `preds` are skipped wholesale. Returns the batch and
    /// the number of zones (morsels) skipped. With `preds = None` this is a
    /// full scan.
    pub fn to_batch_pruned(&self, preds: Option<&[ZonePred]>) -> (RecordBatch, u64) {
        let (positions, skipped) = self.scan_positions(preds);
        let columns = (0..self.schema.arity())
            .map(|c| self.scan_column(c, &positions))
            .collect();
        let batch = RecordBatch::new(self.column_names(), columns, positions.len());
        (batch, skipped)
    }

    /// The table's column names, in schema order.
    pub(crate) fn column_names(&self) -> Vec<String> {
        self.schema
            .attributes()
            .iter()
            .map(|a| a.name.clone())
            .collect()
    }

    /// Physical positions (ascending) of the live rows a scan under `preds`
    /// must read — every live row outside the zones
    /// [`ZoneMaps::can_skip`] rules out — plus the number of zones
    /// skipped. A late-materialising scan reads only the predicate's
    /// columns at these positions ([`Table::scan_column`]), filters, and
    /// reads the remaining columns at the survivors.
    pub(crate) fn scan_positions(&self, preds: Option<&[ZonePred]>) -> (Vec<u32>, u64) {
        let mut skipped = 0u64;
        let mut positions: Vec<u32> = Vec::with_capacity(self.pk.len());
        match preds {
            Some(preds) => {
                let zone_n = self.rows.len().div_ceil(ZONE_ROWS);
                for z in 0..zone_n {
                    if self.zones.can_skip(z, preds) {
                        skipped += 1;
                        continue;
                    }
                    let end = ((z + 1) * ZONE_ROWS).min(self.rows.len());
                    for pos in z * ZONE_ROWS..end {
                        if self.live[pos] {
                            positions.push(pos as u32);
                        }
                    }
                }
            }
            None => {
                for (pos, &alive) in self.live.iter().enumerate() {
                    if alive {
                        positions.push(pos as u32);
                    }
                }
            }
        }
        (positions, skipped)
    }

    /// Column `c` at the given physical positions (from
    /// [`Table::scan_positions`]). Dictionary-encoded NULL-free string
    /// columns come out as [`Column::Dict`]; every other column takes the
    /// densest representation its values at `positions` allow.
    pub(crate) fn scan_column(&self, c: usize, positions: &[u32]) -> Column {
        let dict_ok =
            self.dicts[c].is_some() && self.stats.column(c).is_some_and(|s| s.null_count() == 0);
        if dict_ok {
            let cd = self.dicts[c].as_ref().expect("checked");
            return Column::Dict {
                codes: positions.iter().map(|&p| cd.codes[p as usize]).collect(),
                dict: cd.dict.clone(),
            };
        }
        Column::from_values(
            positions
                .iter()
                .map(|&p| self.rows[p as usize].values()[c].clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql_common::{tup, ValueType};

    fn table() -> Table {
        Table::new(
            Schema::build(
                "N",
                &[
                    ("id", ValueType::Int),
                    ("name", ValueType::Str),
                    ("canon", ValueType::Bool),
                ],
                &[0, 1],
            )
            .unwrap(),
        )
    }

    #[test]
    fn insert_and_set_semantics() {
        let mut t = table();
        assert!(t.insert(tup![1, "cn1", false]).unwrap());
        assert!(!t.insert(tup![1, "cn1", true]).unwrap()); // same key: no-op
        assert!(t.insert(tup![1, "cn2", false]).unwrap()); // different key
        assert_eq!(t.len(), 2);
        // first writer wins
        assert_eq!(t.get_by_key(&tup![1, "cn1"]), Some(&tup![1, "cn1", false]));
    }

    #[test]
    fn schema_violation_rejected() {
        let mut t = table();
        assert!(t.insert(tup![1, 2, false]).is_err());
        assert!(t.insert(tup![1]).is_err());
    }

    #[test]
    fn contains_checks_full_tuple() {
        let mut t = table();
        t.insert(tup![1, "a", true]).unwrap();
        assert!(t.contains(&tup![1, "a", true]));
        assert!(!t.contains(&tup![1, "a", false]));
    }

    #[test]
    fn delete_and_scan() {
        let mut t = table();
        t.insert(tup![1, "a", true]).unwrap();
        t.insert(tup![2, "b", false]).unwrap();
        let removed = t.delete_by_key(&tup![1, "a"]).unwrap();
        assert_eq!(removed, tup![1, "a", true]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.scan(), vec![tup![2, "b", false]]);
        assert!(t.delete_by_key(&tup![1, "a"]).is_none());
    }

    #[test]
    fn reinsert_after_delete() {
        let mut t = table();
        t.insert(tup![1, "a", true]).unwrap();
        t.delete_by_key(&tup![1, "a"]).unwrap();
        assert!(t.insert(tup![1, "a", false]).unwrap());
        assert_eq!(t.get_by_key(&tup![1, "a"]), Some(&tup![1, "a", false]));
    }

    #[test]
    fn compaction_preserves_contents_and_indexes() {
        let mut t = table();
        t.create_index("by_name", vec![1], IndexKind::Hash).unwrap();
        for i in 0..10 {
            t.insert(tup![i, "x", true]).unwrap();
        }
        for i in 0..8 {
            t.delete_by_key(&tup![i, "x"]);
        }
        assert_eq!(t.len(), 2);
        let ix = t.find_index(&[1]).unwrap();
        let hits = t.index_lookup(ix, &tup!["x"]);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn index_lookup_skips_tombstones() {
        let mut t = table();
        t.create_index("by_name", vec![1], IndexKind::BTree)
            .unwrap();
        t.insert(tup![1, "a", true]).unwrap();
        t.insert(tup![2, "a", true]).unwrap();
        t.insert(tup![3, "b", true]).unwrap();
        t.delete_by_key(&tup![1, "a"]);
        let ix = t.find_index(&[1]).unwrap();
        assert_eq!(t.index_lookup(ix, &tup!["a"]), vec![tup![2, "a", true]]);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = table();
        t.create_index("i", vec![0], IndexKind::Hash).unwrap();
        assert!(t.create_index("i", vec![1], IndexKind::Hash).is_err());
    }

    #[test]
    fn find_index_is_order_insensitive() {
        let mut t = table();
        t.create_index("i", vec![1, 0], IndexKind::Hash).unwrap();
        assert!(t.find_index(&[0, 1]).is_some());
        assert!(t.find_index(&[0]).is_none());
    }

    #[test]
    fn stats_follow_inserts_and_deletes() {
        let mut t = table();
        t.insert(tup![1, "a", true]).unwrap();
        t.insert(tup![2, "a", false]).unwrap();
        t.insert(tup![3, "b", true]).unwrap();
        let s = t.stats();
        assert_eq!(s.rows(), 3);
        assert_eq!(s.column(0).unwrap().ndv(), 3);
        assert_eq!(s.column(1).unwrap().ndv(), 2);
        t.delete_by_key(&tup![3, "b"]);
        let s = t.stats();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.column(1).unwrap().ndv(), 1);
        // Compaction must not disturb the incrementally-maintained stats.
        for i in 10..20 {
            t.insert(tup![i, "x", true]).unwrap();
        }
        for i in 10..20 {
            t.delete_by_key(&tup![i, "x"]);
        }
        assert_eq!(t.stats().rows(), t.len());
        assert_eq!(t.stats().column(1).unwrap().ndv(), 1);
        t.truncate();
        assert_eq!(t.stats().rows(), 0);
        assert_eq!(t.stats().column(0).unwrap().ndv(), 0);
    }

    #[test]
    fn truncate_empties() {
        let mut t = table();
        t.insert(tup![1, "a", true]).unwrap();
        t.truncate();
        assert!(t.is_empty());
        assert!(t.insert(tup![1, "a", true]).unwrap());
    }

    #[test]
    fn dictionary_is_maintained_across_insert_delete_truncate() {
        // Pin the knob on: this test is about dictionary maintenance, so
        // it must not go vacuous under the `PROQL_DICT=0` ablation run.
        let mut t = Table::with_dict(table().schema().clone(), true);
        assert!(t.has_dict());
        t.insert(tup![1, "a", true]).unwrap();
        t.insert(tup![2, "b", true]).unwrap();
        t.insert(tup![3, "a", true]).unwrap();
        let d = t.dictionary(1).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.code_of("a"), Some(0));
        // Deletes leave the dictionary alone (codes are append-only) but
        // stats NDV tracks live values exactly.
        t.delete_by_key(&tup![2, "b"]);
        assert_eq!(t.dictionary(1).unwrap().len(), 2);
        assert_eq!(t.stats().column(1).unwrap().ndv(), 1);
        // Compaction keeps codes aligned with the surviving rows.
        for i in 10..30 {
            t.insert(tup![i, "x", false]).unwrap();
        }
        for i in 10..30 {
            t.delete_by_key(&tup![i, "x"]);
        }
        let b = t.to_batch();
        assert_eq!(b.to_rows(), t.scan());
        t.truncate();
        assert_eq!(t.dictionary(1).unwrap().len(), 0);
        assert!(t.to_batch().is_empty());
    }

    #[test]
    fn to_batch_matches_from_rows_with_and_without_dict() {
        use crate::batch::Column;
        for dict in [true, false] {
            let mut t = Table::with_dict(table().schema().clone(), dict);
            t.insert(tup![1, "a", true]).unwrap();
            t.insert(tup![2, "b", false]).unwrap();
            t.insert(tup![3, "a", true]).unwrap();
            t.delete_by_key(&tup![2, "b"]);
            let b = t.to_batch();
            assert_eq!(b.to_rows(), t.scan());
            assert!(matches!(b.columns[0], Column::Int(_)));
            match (&b.columns[1], dict) {
                (Column::Dict { codes, .. }, true) => assert_eq!(codes, &vec![0, 0]),
                (Column::Str(_), false) => {}
                other => panic!("unexpected string column shape {other:?}"),
            }
        }
    }

    #[test]
    fn nullable_string_columns_degrade_on_scan() {
        let mut t = Table::with_dict(
            Schema::build("S", &[("id", ValueType::Int), ("s", ValueType::Str)], &[0]).unwrap(),
            true,
        );
        t.insert(tup![1, "a"]).unwrap();
        t.insert(Tuple::new(vec![Value::Int(2), Value::Null]))
            .unwrap();
        let b = t.to_batch();
        assert!(matches!(b.columns[1], crate::batch::Column::Any(_)));
        assert_eq!(b.to_rows(), t.scan());
        // Once the NULL is deleted the dictionary path is live again.
        t.delete_by_key(&tup![2]);
        assert!(matches!(
            t.to_batch().columns[1],
            crate::batch::Column::Dict { .. }
        ));
    }

    #[test]
    fn zone_pruned_scan_is_exact() {
        use crate::expr::BinOp;
        let mut t = Table::with_dict(
            Schema::build("Z", &[("id", ValueType::Int), ("s", ValueType::Str)], &[0]).unwrap(),
            true,
        );
        let n = ZONE_ROWS * 3 + 17;
        for i in 0..n {
            t.insert(tup![i as i64, format!("s{}", i % 7)]).unwrap();
        }
        // id < ZONE_ROWS/2 lives entirely in zone 0: two zones skip.
        let preds = vec![ZonePred::Cmp(
            0,
            BinOp::Lt,
            Value::Int(ZONE_ROWS as i64 / 2),
        )];
        let (b, skipped) = t.to_batch_pruned(Some(&preds));
        assert_eq!(skipped, 3);
        assert_eq!(b.len(), ZONE_ROWS);
        // The surviving zone still contains every candidate row.
        let all: Vec<_> = t
            .scan()
            .into_iter()
            .filter(|r| r.values()[0] < Value::Int(ZONE_ROWS as i64 / 2))
            .collect();
        let got: Vec<_> = b
            .to_rows()
            .into_iter()
            .filter(|r| r.values()[0] < Value::Int(ZONE_ROWS as i64 / 2))
            .collect();
        assert_eq!(got, all);
    }
}
