//! Relational encoding of provenance (paper §4.1).
//!
//! Each schema mapping `m` gets a provenance relation `P_m` with **one row
//! per derivation**. Columns are the distinct variables occurring in a key
//! position of any source or target atom — attributes constrained by the
//! mapping to be equal are stored once. Constants in key positions are not
//! stored: they are reconstructed from the mapping definition.
//!
//! When a mapping has a single source atom (a projection, like the paper's
//! `m2`), its provenance relation is *superfluous*: it is exactly a
//! projection of the source relation and is created as a virtual view
//! instead of a table.

use proql_common::{Attribute, Error, Result, Schema, Tuple, Value, ValueType};
use proql_datalog::ast::{Atom, Rule, Term};
use proql_datalog::compile::compile_body;
use proql_storage::{Database, Expr, Plan};

/// How to reconstruct one key attribute of an atom from a `P_m` row.
#[derive(Debug, Clone, PartialEq)]
pub enum RecipeTerm {
    /// Read the provenance-relation column at this position.
    Col(usize),
    /// The mapping pins this key attribute to a constant.
    Const(Value),
}

/// How to reconstruct the key of one atom (source or target) of a mapping
/// from a row of its provenance relation.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomRecipe {
    /// The atom's relation.
    pub relation: String,
    /// True for body (source) atoms, false for head (target) atoms.
    pub is_source: bool,
    /// One entry per key attribute of `relation`, in key order.
    pub key_recipe: Vec<RecipeTerm>,
}

impl AtomRecipe {
    /// Reconstruct the atom's key from a provenance row.
    pub fn key_of(&self, prov_row: &Tuple) -> Tuple {
        Tuple::new(
            self.key_recipe
                .iter()
                .map(|r| match r {
                    RecipeTerm::Col(c) => prov_row.get(*c).clone(),
                    RecipeTerm::Const(v) => v.clone(),
                })
                .collect(),
        )
    }

    /// Whether [`Self::key_of`] `prov_row` equals `key`, without building
    /// the key.
    pub fn key_matches(&self, prov_row: &Tuple, key: &Tuple) -> bool {
        key.arity() == self.key_recipe.len()
            && (self.key_recipe.iter().zip(key.values())).all(|(r, v)| match r {
                RecipeTerm::Col(c) => prov_row.get(*c) == v,
                RecipeTerm::Const(c) => c == v,
            })
    }
}

/// The provenance-relation specification of one mapping.
#[derive(Debug, Clone)]
pub struct ProvSpec {
    /// Mapping name (`m1`, `L1`, ...).
    pub mapping: String,
    /// Name of the provenance relation (`P_m1`).
    pub prov_rel: String,
    /// Column variables, in order.
    pub columns: Vec<String>,
    /// Reconstruction recipes: sources first (body order), then targets.
    pub atoms: Vec<AtomRecipe>,
    /// True when `P_m` is a view over the single source relation.
    pub superfluous: bool,
}

impl ProvSpec {
    /// The schema of the provenance relation: all columns, all-key (a
    /// derivation is identified by its full variable binding).
    pub fn schema(&self) -> Schema {
        Schema::new(
            &self.prov_rel,
            self.columns
                .iter()
                .map(|c| Attribute::new(c.clone(), ValueType::Null))
                .collect(),
            (0..self.columns.len()).collect(),
        )
        .expect("provenance schema construction cannot fail")
    }

    /// Column index of a variable.
    pub fn column_of(&self, var: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == var)
    }

    /// Recipes of the source atoms.
    pub fn sources(&self) -> impl Iterator<Item = &AtomRecipe> {
        self.atoms.iter().filter(|a| a.is_source)
    }

    /// Recipes of the target atoms.
    pub fn targets(&self) -> impl Iterator<Item = &AtomRecipe> {
        self.atoms.iter().filter(|a| !a.is_source)
    }

    /// The body atoms of the ProQL-translation rule for this mapping: the
    /// provenance atom `P_m(columns...)` followed by the source atoms with
    /// their original terms (paper Example 4.2:
    /// `O(n,h,true) :- P5(i,n), A(i,_,h), C(i,n)`).
    pub fn translation_body(&self, rule: &Rule) -> Vec<Atom> {
        let mut body = Vec::with_capacity(1 + rule.body.len());
        body.push(Atom::new(
            self.prov_rel.clone(),
            self.columns.iter().map(|c| Term::var(c.clone())).collect(),
        ));
        body.extend(rule.body.iter().cloned());
        body
    }
}

/// Compute the provenance spec for `rule`. Every atom's relation must exist
/// in `db` (needed for key positions), and no key position may hold a Skolem
/// term (its value would not be reconstructible from stored columns).
pub fn spec_for_rule(db: &Database, rule: &Rule) -> Result<ProvSpec> {
    let name = rule
        .name
        .clone()
        .ok_or_else(|| Error::Datalog("mappings must be named".into()))?;
    let mut columns: Vec<String> = Vec::new();
    let mut atoms: Vec<AtomRecipe> = Vec::new();

    // First pass: collect distinct key variables, body atoms first.
    let all_atoms: Vec<(&Atom, bool)> = rule
        .body
        .iter()
        .map(|a| (a, true))
        .chain(rule.heads.iter().map(|a| (a, false)))
        .collect();
    for (atom, _) in &all_atoms {
        let schema = db.schema_of(&atom.relation)?;
        if schema.arity() != atom.arity() {
            return Err(Error::Datalog(format!(
                "atom {atom} arity mismatch with relation {}",
                atom.relation
            )));
        }
        for &kpos in &schema.effective_key() {
            match &atom.terms[kpos] {
                Term::Var(v) => {
                    if !columns.contains(v) {
                        columns.push(v.clone());
                    }
                }
                Term::Const(_) => {}
                Term::Skolem(..) => {
                    return Err(Error::Datalog(format!(
                        "mapping {name}: Skolem term in key position of {atom}; \
                         provenance would not be reconstructible"
                    )));
                }
            }
        }
    }

    // Second pass: build recipes.
    for (atom, is_source) in &all_atoms {
        let schema = db.schema_of(&atom.relation)?;
        let key_recipe = schema
            .effective_key()
            .iter()
            .map(|&kpos| match &atom.terms[kpos] {
                Term::Var(v) => RecipeTerm::Col(
                    columns
                        .iter()
                        .position(|c| c == v)
                        .expect("collected above"),
                ),
                Term::Const(v) => RecipeTerm::Const(v.clone()),
                Term::Skolem(..) => unreachable!("rejected above"),
            })
            .collect();
        atoms.push(AtomRecipe {
            relation: atom.relation.clone(),
            is_source: *is_source,
            key_recipe,
        });
    }

    Ok(ProvSpec {
        prov_rel: format!("P_{name}"),
        mapping: name,
        columns,
        atoms,
        superfluous: rule.body.len() == 1,
    })
}

/// Create the provenance relation for `spec` in `db`: a base table for
/// multi-source mappings, or a view over the single source relation for
/// superfluous ones.
pub fn create_prov_relation(db: &mut Database, spec: &ProvSpec, rule: &Rule) -> Result<()> {
    if !spec.superfluous {
        db.create_table(spec.schema())?;
        return Ok(());
    }
    // View: project the single body atom onto the spec's columns.
    let bp = compile_body(db, &rule.body)?;
    let exprs: Vec<Expr> = spec
        .columns
        .iter()
        .map(|v| bp.col(v).map(Expr::Col))
        .collect::<Result<_>>()?;
    let plan = Plan::Project {
        input: Box::new(bp.plan),
        exprs,
        names: spec.columns.clone(),
    };
    db.create_view(&spec.prov_rel, plan, spec.schema())
}

pub mod wire {
    //! Byte-level wire encoding of sealed [`GraphDelta`]s and snapshot
    //! transfers — the payload format of the replication stream's
    //! `REPL_DELTA` / `REPL_SNAPSHOT` frames (see `proql-service`).
    //!
    //! All integers are little-endian and fixed-width; strings are
    //! length-prefixed UTF-8. Every payload starts with a one-byte format
    //! version ([`WIRE_VERSION`]) so the stream format can evolve
    //! independently of the frame-layer protocol version. Decoding is
    //! total: truncated or corrupt payloads yield `Err`, never a panic —
    //! replicas treat a decode failure like a broken chain and fall back
    //! to a snapshot transfer.
    //!
    //! A delta frame carries `(version, digest, sealed_at_micros,
    //! GraphDelta)` where `digest` is the primary's provenance-graph
    //! digest **at** `version` (0 when not computed, e.g. mid-catch-up)
    //! and `sealed_at_micros` is the primary's wall clock at send time
    //! (for apply-lag measurement). The delta's `touched` set doubles as
    //! the mutation's write set — replicas feed it to their result-cache
    //! maintenance exactly like a local write's.
    //!
    //! Since wire v2, snapshot frames are **dictionary-encoded**: each
    //! table is prefixed with its distinct strings (first-occurrence
    //! order) and string cells in rows are 4-byte code references (tag 5)
    //! into that dictionary, so a snapshot ships every distinct string
    //! exactly once — mirroring the storage layer's dictionary-encoded
    //! columns. Delta frames are small and keep inline strings.

    use super::{Error, Result, Tuple, Value};
    use crate::delta::{DeltaOp, GraphDelta, RowChange};

    /// Format version byte leading every wire payload.
    pub const WIRE_VERSION: u8 = 2;

    /// A decoded `REPL_DELTA` payload.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DeltaFrame {
        /// The version this delta seals (applies on top of `version - 1`).
        pub version: u64,
        /// Provenance-graph digest at `version`; 0 when not computed.
        pub digest: u64,
        /// Primary wall clock (µs since the UNIX epoch) at send time.
        pub sealed_at_micros: u64,
        /// The sealed change set (its `touched` set is the write set).
        pub delta: GraphDelta,
    }

    /// A decoded `REPL_SNAPSHOT` payload: full stored-table contents.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SnapshotFrame {
        /// The version the snapshot captures.
        pub version: u64,
        /// Provenance-graph digest at `version`; 0 when not computed.
        pub digest: u64,
        /// Primary wall clock (µs since the UNIX epoch) at send time.
        pub sealed_at_micros: u64,
        /// Every stored table's full contents, sorted by name.
        pub tables: Vec<(String, Vec<Tuple>)>,
    }

    fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_str(buf: &mut Vec<u8>, s: &str) {
        put_u32(buf, s.len() as u32);
        buf.extend_from_slice(s.as_bytes());
    }

    fn put_value(buf: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => buf.push(0),
            Value::Bool(b) => {
                buf.push(1);
                buf.push(*b as u8);
            }
            Value::Int(i) => {
                buf.push(2);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                buf.push(3);
                buf.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                buf.push(4);
                put_str(buf, s);
            }
        }
    }

    fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
        put_u32(buf, t.arity() as u32);
        for v in t.values() {
            put_value(buf, v);
        }
    }

    fn put_delta(buf: &mut Vec<u8>, d: &GraphDelta) {
        put_u32(buf, d.ops.len() as u32);
        for op in &d.ops {
            match op {
                DeltaOp::AddDerivation { mapping, row } => {
                    buf.push(0);
                    put_str(buf, mapping);
                    put_tuple(buf, row);
                }
                DeltaOp::RemoveDerivation { mapping, row } => {
                    buf.push(1);
                    put_str(buf, mapping);
                    put_tuple(buf, row);
                }
                DeltaOp::SetValues { relation, key } => {
                    buf.push(2);
                    put_str(buf, relation);
                    put_tuple(buf, key);
                }
            }
        }
        put_u32(buf, d.rows.len() as u32);
        for rc in &d.rows {
            put_str(buf, &rc.table);
            buf.push(rc.added as u8);
            put_tuple(buf, &rc.row);
        }
        put_u32(buf, d.touched.len() as u32);
        for t in &d.touched {
            put_str(buf, t);
        }
    }

    /// A bounds-checked little-endian reader over a wire payload.
    struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
            let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
            let end = end.ok_or_else(|| Error::Other("truncated replication payload".into()))?;
            let out = &self.buf[self.pos..end];
            self.pos = end;
            Ok(out)
        }

        fn u8(&mut self) -> Result<u8> {
            Ok(self.bytes(1)?[0])
        }

        fn u32(&mut self) -> Result<u32> {
            Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
        }

        fn u64(&mut self) -> Result<u64> {
            Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
        }

        /// A collection length, sanity-capped against the bytes actually
        /// remaining so corrupt lengths cannot trigger huge allocations.
        fn len(&mut self, min_elem_bytes: usize) -> Result<usize> {
            let n = self.u32()? as usize;
            let remaining = self.buf.len() - self.pos;
            if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
                return Err(Error::Other(format!(
                    "replication payload declares {n} elements with {remaining} bytes left"
                )));
            }
            Ok(n)
        }

        fn str(&mut self) -> Result<String> {
            let n = self.len(1)?;
            let raw = self.bytes(n)?;
            String::from_utf8(raw.to_vec())
                .map_err(|_| Error::Other("non-UTF-8 string in replication payload".into()))
        }

        fn value(&mut self) -> Result<Value> {
            Ok(match self.u8()? {
                0 => Value::Null,
                1 => Value::Bool(self.u8()? != 0),
                2 => Value::Int(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap())),
                3 => Value::Float(f64::from_bits(self.u64()?)),
                4 => Value::Str(self.str()?.into()),
                t => {
                    return Err(Error::Other(format!(
                        "unknown value tag {t} in replication payload"
                    )))
                }
            })
        }

        fn tuple(&mut self) -> Result<Tuple> {
            let n = self.len(1)?;
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                vals.push(self.value()?);
            }
            Ok(Tuple::new(vals))
        }

        /// A value in snapshot-row context, where tag 5 is a code
        /// reference into the table's string dictionary. Out-of-range
        /// codes are a decode error, never a panic.
        fn value_coded(&mut self, dict: &[Value]) -> Result<Value> {
            if self.buf.get(self.pos) == Some(&5) {
                self.pos += 1;
                let code = self.u32()? as usize;
                return dict.get(code).cloned().ok_or_else(|| {
                    Error::Other(format!(
                        "snapshot dictionary code {code} out of range ({} entries)",
                        dict.len()
                    ))
                });
            }
            self.value()
        }

        fn tuple_coded(&mut self, dict: &[Value]) -> Result<Tuple> {
            let n = self.len(1)?;
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                vals.push(self.value_coded(dict)?);
            }
            Ok(Tuple::new(vals))
        }

        fn delta(&mut self) -> Result<GraphDelta> {
            let mut d = GraphDelta::default();
            let n_ops = self.len(5)?;
            for _ in 0..n_ops {
                let tag = self.u8()?;
                let name = self.str()?;
                let t = self.tuple()?;
                d.ops.push(match tag {
                    0 => DeltaOp::AddDerivation {
                        mapping: name,
                        row: t,
                    },
                    1 => DeltaOp::RemoveDerivation {
                        mapping: name,
                        row: t,
                    },
                    2 => DeltaOp::SetValues {
                        relation: name,
                        key: t,
                    },
                    x => {
                        return Err(Error::Other(format!(
                            "unknown delta op tag {x} in replication payload"
                        )))
                    }
                });
            }
            let n_rows = self.len(6)?;
            for _ in 0..n_rows {
                let table = self.str()?;
                let added = self.u8()? != 0;
                let row = self.tuple()?;
                d.rows.push(RowChange { table, row, added });
            }
            let n_touched = self.len(5)?;
            for _ in 0..n_touched {
                d.touched.insert(self.str()?);
            }
            Ok(d)
        }

        fn header(&mut self, what: &str) -> Result<(u64, u64, u64)> {
            let ver = self.u8()?;
            if ver != WIRE_VERSION {
                return Err(Error::Other(format!(
                    "unsupported {what} wire format version {ver} (expected {WIRE_VERSION})"
                )));
            }
            Ok((self.u64()?, self.u64()?, self.u64()?))
        }
    }

    /// Encode a `REPL_DELTA` payload from borrowed parts — the streaming
    /// hot path, which must not clone the sealed delta per subscriber.
    /// The delta must not be overflowed (overflowed entries carry no ops
    /// and cannot be replayed; primaries ship a snapshot instead).
    pub fn encode_delta_parts(
        version: u64,
        digest: u64,
        sealed_at_micros: u64,
        delta: &GraphDelta,
    ) -> Vec<u8> {
        debug_assert!(!delta.is_overflowed());
        let mut buf = Vec::with_capacity(64);
        buf.push(WIRE_VERSION);
        put_u64(&mut buf, version);
        put_u64(&mut buf, digest);
        put_u64(&mut buf, sealed_at_micros);
        put_delta(&mut buf, delta);
        buf
    }

    /// Encode a `REPL_DELTA` payload (see [`encode_delta_parts`]).
    pub fn encode_delta_frame(f: &DeltaFrame) -> Vec<u8> {
        encode_delta_parts(f.version, f.digest, f.sealed_at_micros, &f.delta)
    }

    /// Decode a `REPL_DELTA` payload.
    pub fn decode_delta_frame(buf: &[u8]) -> Result<DeltaFrame> {
        let mut r = Reader::new(buf);
        let (version, digest, sealed_at_micros) = r.header("delta")?;
        let delta = r.delta()?;
        Ok(DeltaFrame {
            version,
            digest,
            sealed_at_micros,
            delta,
        })
    }

    /// Encode a `REPL_SNAPSHOT` payload from borrowed parts.
    ///
    /// Each table is dictionary-encoded: its distinct strings are written
    /// once, in first-occurrence order across the table's rows, and every
    /// string cell in a row is a 4-byte code reference (tag 5) into that
    /// dictionary. A snapshot therefore ships each distinct string exactly
    /// once per table regardless of how many rows repeat it.
    pub fn encode_snapshot_parts(
        version: u64,
        digest: u64,
        sealed_at_micros: u64,
        tables: &[(String, Vec<Tuple>)],
    ) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        buf.push(WIRE_VERSION);
        put_u64(&mut buf, version);
        put_u64(&mut buf, digest);
        put_u64(&mut buf, sealed_at_micros);
        put_u32(&mut buf, tables.len() as u32);
        for (name, rows) in tables {
            put_str(&mut buf, name);
            let mut index: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
            let mut dict: Vec<&str> = Vec::new();
            for row in rows {
                for v in row.values() {
                    if let Value::Str(s) = v {
                        index.entry(s.as_ref()).or_insert_with(|| {
                            dict.push(s.as_ref());
                            (dict.len() - 1) as u32
                        });
                    }
                }
            }
            put_u32(&mut buf, dict.len() as u32);
            for s in &dict {
                put_str(&mut buf, s);
            }
            put_u32(&mut buf, rows.len() as u32);
            for row in rows {
                put_u32(&mut buf, row.arity() as u32);
                for v in row.values() {
                    match v {
                        Value::Str(s) => {
                            buf.push(5);
                            put_u32(&mut buf, index[s.as_ref()]);
                        }
                        other => put_value(&mut buf, other),
                    }
                }
            }
        }
        buf
    }

    /// Encode a `REPL_SNAPSHOT` payload (see [`encode_snapshot_parts`]).
    pub fn encode_snapshot_frame(f: &SnapshotFrame) -> Vec<u8> {
        encode_snapshot_parts(f.version, f.digest, f.sealed_at_micros, &f.tables)
    }

    /// Decode a `REPL_SNAPSHOT` payload. Code references are resolved
    /// against the table's dictionary, so the returned frame holds plain
    /// [`Value::Str`] tuples; rows that repeat a string share one
    /// allocation.
    pub fn decode_snapshot_frame(buf: &[u8]) -> Result<SnapshotFrame> {
        let mut r = Reader::new(buf);
        let (version, digest, sealed_at_micros) = r.header("snapshot")?;
        let n_tables = r.len(8)?;
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let name = r.str()?;
            let n_dict = r.len(4)?;
            let mut dict: Vec<Value> = Vec::with_capacity(n_dict);
            for _ in 0..n_dict {
                dict.push(Value::Str(r.str()?.into()));
            }
            let n_rows = r.len(4)?;
            let mut rows = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                rows.push(r.tuple_coded(&dict)?);
            }
            tables.push((name, rows));
        }
        Ok(SnapshotFrame {
            version,
            digest,
            sealed_at_micros,
            tables,
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use proql_common::tup;

        fn sample_delta() -> GraphDelta {
            let mut d = GraphDelta::default();
            d.ops.push(DeltaOp::AddDerivation {
                mapping: "m1".into(),
                row: tup![1, "x", 2.5],
            });
            d.ops.push(DeltaOp::RemoveDerivation {
                mapping: "m2".into(),
                row: tup![3],
            });
            d.ops.push(DeltaOp::SetValues {
                relation: "A".into(),
                key: tup![7, true],
            });
            d.rows.push(RowChange {
                table: "A_l".into(),
                row: tup![7, true, "payload"],
                added: true,
            });
            d.rows.push(RowChange {
                table: "P_m1".into(),
                row: Tuple::new(vec![Value::Null, Value::Float(f64::NAN)]),
                added: false,
            });
            d.touched.insert("A".into());
            d.touched.insert("A_l".into());
            d
        }

        #[test]
        fn delta_frame_roundtrips() {
            let f = DeltaFrame {
                version: 42,
                digest: 0xDEAD_BEEF_CAFE_F00D,
                sealed_at_micros: 1_700_000_000_000_000,
                delta: sample_delta(),
            };
            let bytes = encode_delta_frame(&f);
            let back = decode_delta_frame(&bytes).unwrap();
            assert_eq!(back.version, f.version);
            assert_eq!(back.digest, f.digest);
            assert_eq!(back.sealed_at_micros, f.sealed_at_micros);
            assert_eq!(back.delta, f.delta);
        }

        #[test]
        fn snapshot_frame_roundtrips() {
            let f = SnapshotFrame {
                version: 9,
                digest: 17,
                sealed_at_micros: 3,
                tables: vec![
                    ("A".into(), vec![tup![1, "a"], tup![2, "b"]]),
                    ("B".into(), vec![]),
                ],
            };
            let bytes = encode_snapshot_frame(&f);
            assert_eq!(decode_snapshot_frame(&bytes).unwrap(), f);
        }

        #[test]
        fn truncation_and_corruption_error_cleanly() {
            let f = DeltaFrame {
                version: 1,
                digest: 2,
                sealed_at_micros: 3,
                delta: sample_delta(),
            };
            let bytes = encode_delta_frame(&f);
            for cut in 0..bytes.len() {
                assert!(
                    decode_delta_frame(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes must fail to decode"
                );
            }
            let mut wrong_ver = bytes.clone();
            wrong_ver[0] = WIRE_VERSION + 1;
            assert!(decode_delta_frame(&wrong_ver).is_err());
            // A corrupt length cannot trigger a huge allocation.
            let mut huge = bytes;
            let off = 25; // first collection length (ops count)
            huge[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_delta_frame(&huge).is_err());
        }

        #[test]
        fn snapshot_dictionary_ships_each_string_once() {
            let shared = "a-reasonably-long-shared-string-value";
            let rows: Vec<Tuple> = (0..500).map(|i| tup![i, shared]).collect();
            let f = SnapshotFrame {
                version: 5,
                digest: 6,
                sealed_at_micros: 7,
                tables: vec![("A".into(), rows)],
            };
            let bytes = encode_snapshot_frame(&f);
            assert_eq!(decode_snapshot_frame(&bytes).unwrap(), f);
            // Inline encoding would pay the string body per row; the
            // dictionary pays it once plus a 4-byte code per row.
            assert!(
                bytes.len() < 500 * shared.len(),
                "dictionary-encoded snapshot is {} bytes, inline floor is {}",
                bytes.len(),
                500 * shared.len()
            );
        }

        #[test]
        fn snapshot_truncation_and_corruption_error_cleanly() {
            let f = SnapshotFrame {
                version: 1,
                digest: 2,
                sealed_at_micros: 3,
                tables: vec![
                    ("A".into(), vec![tup![1, "x"], tup![2, "y"], tup![3, "x"]]),
                    ("B".into(), vec![tup![true, 2.5, "z"]]),
                ],
            };
            let bytes = encode_snapshot_frame(&f);
            assert_eq!(decode_snapshot_frame(&bytes).unwrap(), f);
            for cut in 0..bytes.len() {
                assert!(
                    decode_snapshot_frame(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes must fail to decode"
                );
            }
            // The last cell of the last row is a string, so the payload
            // ends with its 4-byte dictionary code; an out-of-range code
            // must be a clean error, never a panic or wrong string.
            let mut bad_code = bytes.clone();
            let n = bad_code.len();
            bad_code[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_snapshot_frame(&bad_code).is_err());
            let mut wrong_ver = bytes;
            wrong_ver[0] = WIRE_VERSION + 1;
            assert!(decode_snapshot_frame(&wrong_ver).is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql_common::tup;
    use proql_datalog::parse::parse_rule;
    use proql_storage::execute;

    /// The running-example catalog: A(id*, sn, len), C(id*, name*),
    /// N(id*, name*, canon), O(name*, h, isAnimal).
    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            Schema::build(
                "A",
                &[
                    ("id", ValueType::Int),
                    ("sn", ValueType::Str),
                    ("len", ValueType::Int),
                ],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build(
                "C",
                &[("id", ValueType::Int), ("name", ValueType::Str)],
                &[0, 1],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build(
                "N",
                &[
                    ("id", ValueType::Int),
                    ("name", ValueType::Str),
                    ("c", ValueType::Bool),
                ],
                &[0, 1],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::build(
                "O",
                &[
                    ("name", ValueType::Str),
                    ("h", ValueType::Int),
                    ("an", ValueType::Bool),
                ],
                &[0],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn m1_spec_matches_paper_figure_2() {
        // m1: C(i, n) :- A(i, s, _), N(i, n, false)  =>  P_m1(i, n)
        let db = db();
        let rule = parse_rule("m1: C(i, n) :- A(i, s, _), N(i, n, false)").unwrap();
        let spec = spec_for_rule(&db, &rule).unwrap();
        assert_eq!(spec.prov_rel, "P_m1");
        assert_eq!(spec.columns, vec!["i", "n"]);
        assert!(!spec.superfluous); // two source atoms
                                    // Recipes: A's key is (i) -> Col(0); N's key (i, n) -> Col(0), Col(1);
                                    // target C's key (i, n).
        assert_eq!(spec.atoms.len(), 3);
        assert_eq!(spec.atoms[0].key_recipe, vec![RecipeTerm::Col(0)]);
        assert_eq!(
            spec.atoms[1].key_recipe,
            vec![RecipeTerm::Col(0), RecipeTerm::Col(1)]
        );
        assert!(!spec.atoms[2].is_source);
    }

    #[test]
    fn m5_spec_matches_paper_figure_2() {
        // m5: O(n, h, true) :- A(i, _, h), C(i, n)  =>  P_m5(i, n)
        let db = db();
        let rule = parse_rule("m5: O(n, h, true) :- A(i, _, h), C(i, n)").unwrap();
        let spec = spec_for_rule(&db, &rule).unwrap();
        assert_eq!(spec.columns, vec!["i", "n"]);
        assert!(!spec.superfluous);
        // O's key is (name) = var n -> Col(1).
        let target = spec.targets().next().unwrap();
        assert_eq!(target.key_recipe, vec![RecipeTerm::Col(1)]);
    }

    #[test]
    fn m2_is_superfluous_projection_view() {
        // m2: N(i, n, true) :- A(i, n, _) — single source, view over A.
        let mut db = db();
        db.insert("A", tup![1, "sn1", 7]).unwrap();
        db.insert("A", tup![2, "sn2", 5]).unwrap();
        let rule = parse_rule("m2: N(i, n, true) :- A(i, n, _)").unwrap();
        let spec = spec_for_rule(&db, &rule).unwrap();
        assert!(spec.superfluous);
        assert_eq!(spec.columns, vec!["i", "n"]);
        create_prov_relation(&mut db, &spec, &rule).unwrap();
        assert!(!db.has_table("P_m2")); // it is a view
        let rel = execute(&db, &Plan::scan("P_m2")).unwrap();
        assert_eq!(rel.sorted_rows(), vec![tup![1, "sn1"], tup![2, "sn2"]]);
    }

    #[test]
    fn constants_in_key_positions_are_reconstructed_not_stored() {
        let db = db();
        // Target N key includes the constant-less pair (i, n); source uses a
        // constant in C's key position `name`.
        let rule = parse_rule("mx: O(n, 1, true) :- C(i, n), N(i, n, false)").unwrap();
        let spec = spec_for_rule(&db, &rule).unwrap();
        assert_eq!(spec.columns, vec!["i", "n"]);
        let row = tup![42, "cn"];
        assert_eq!(spec.atoms[0].key_of(&row), tup![42, "cn"]);
        // Constant key example: target O's key is (n).
        let t = spec.targets().next().unwrap();
        assert_eq!(t.key_of(&row), tup!["cn"]);
    }

    #[test]
    fn constant_key_recipe() {
        let db = db();
        let rule = parse_rule("mc: O('fixed', h, true) :- A(i, s, h)").unwrap();
        let spec = spec_for_rule(&db, &rule).unwrap();
        let t = spec.targets().next().unwrap();
        assert_eq!(t.key_recipe, vec![RecipeTerm::Const(Value::str("fixed"))]);
        assert_eq!(t.key_of(&tup![9]), tup!["fixed"]);
        assert!(t.key_matches(&tup![9], &tup!["fixed"]));
        assert!(!t.key_matches(&tup![9], &tup!["other"]));
        assert!(!t.key_matches(&tup![9], &tup!["fixed", 1]), "arity differs");
        let row = tup![42, "cn"];
        let rule = parse_rule("mx: O(n, 1, true) :- C(i, n), N(i, n, false)").unwrap();
        let atom = &spec_for_rule(&db, &rule).unwrap().atoms[0];
        assert!(atom.key_matches(&row, &tup![42, "cn"]));
        assert!(!atom.key_matches(&row, &tup![42, "sn"]));
    }

    #[test]
    fn skolem_in_key_position_rejected() {
        let db = db();
        let rule = parse_rule("ms: O(!f(i), h, true) :- A(i, s, h)").unwrap();
        assert!(spec_for_rule(&db, &rule).is_err());
    }

    #[test]
    fn unnamed_mapping_rejected() {
        let db = db();
        let rule = parse_rule("O(n, h, true) :- A(i, n, h)").unwrap();
        assert!(spec_for_rule(&db, &rule).is_err());
    }

    #[test]
    fn prov_schema_keys_all_columns() {
        let db = db();
        let rule = parse_rule("m5: O(n, h, true) :- A(i, _, h), C(i, n)").unwrap();
        let spec = spec_for_rule(&db, &rule).unwrap();
        let schema = spec.schema();
        assert_eq!(schema.name(), "P_m5");
        assert_eq!(schema.key(), &[0, 1]);
    }

    #[test]
    fn translation_body_prepends_prov_atom() {
        let db = db();
        let rule = parse_rule("m5: O(n, h, true) :- A(i, _dc, h), C(i, n)").unwrap();
        let spec = spec_for_rule(&db, &rule).unwrap();
        let body = spec.translation_body(&rule);
        assert_eq!(body.len(), 3);
        assert_eq!(body[0].to_string(), "P_m5(i, n)");
        assert_eq!(body[1].relation, "A");
    }

    #[test]
    fn superfluous_view_applies_constant_filters() {
        let mut db = db();
        db.insert("N", tup![1, "x", true]).unwrap();
        db.insert("N", tup![2, "y", false]).unwrap();
        // m3-like with a constant in the body: only canon=false rows derive.
        let rule = parse_rule("m3: C(i, n) :- N(i, n, false)").unwrap();
        let spec = spec_for_rule(&db, &rule).unwrap();
        create_prov_relation(&mut db, &spec, &rule).unwrap();
        let rel = execute(&db, &Plan::scan("P_m3")).unwrap();
        assert_eq!(rel.rows, vec![tup![2, "y"]]);
    }
}
