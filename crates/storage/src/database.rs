//! The catalog: named tables and virtual views.

use crate::plan::Plan;
use crate::table::Table;
use proql_common::{Error, Result, Schema, Tuple};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An in-memory database: a set of named [`Table`]s plus virtual views.
///
/// Views exist to implement the paper's **superfluous provenance relations**
/// (§4.1): when a mapping is a pure projection, its provenance relation is
/// not materialized but defined as a view over the source relation.
///
/// # Shared-structure snapshots
///
/// Tables are stored behind `Arc`s, so [`Clone`] is a **snapshot**: it costs
/// O(#relations) pointer bumps, and the clone shares every table's storage
/// with the original. Mutation goes through [`Database::table_mut`], which
/// copy-on-writes at table granularity — only the tables a write actually
/// touches are materialized in the new version. This is what makes the
/// single-writer service's clone-mutate-publish write path proportional to
/// the delta instead of the database.
#[derive(Debug, Clone)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
    views: Arc<BTreeMap<String, View>>,
    /// Whether tables created through this catalog dictionary-encode their
    /// string columns (seeded from `PROQL_DICT`, overridable per database).
    dict_default: bool,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            tables: BTreeMap::new(),
            views: Arc::new(BTreeMap::new()),
            dict_default: crate::table::dict_default(),
        }
    }
}

/// A named virtual view: a plan plus the schema its output rows follow.
#[derive(Debug, Clone)]
pub struct View {
    /// Definition; may reference base tables and other views (acyclically).
    pub plan: Plan,
    /// Output schema.
    pub schema: Schema,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Override the dictionary-encoding default for tables created from
    /// now on (existing tables keep their encoding). Tests and benches use
    /// this to sweep dict-on vs dict-off without touching the environment.
    pub fn set_dict_encoding(&mut self, enabled: bool) {
        self.dict_default = enabled;
    }

    /// Whether newly created tables dictionary-encode string columns.
    pub fn dict_encoding(&self) -> bool {
        self.dict_default
    }

    /// Create a table with `schema` named after the schema.
    pub fn create_table(&mut self, schema: Schema) -> Result<()> {
        let name = schema.name().to_string();
        if self.tables.contains_key(&name) || self.views.contains_key(&name) {
            return Err(Error::AlreadyExists(format!("relation {name}")));
        }
        self.tables
            .insert(name, Arc::new(Table::with_dict(schema, self.dict_default)));
        Ok(())
    }

    /// Create (or replace) a virtual view.
    pub fn create_view(
        &mut self,
        name: impl Into<String>,
        plan: Plan,
        schema: Schema,
    ) -> Result<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(Error::AlreadyExists(format!(
                "relation {name} exists as a base table"
            )));
        }
        Arc::make_mut(&mut self.views).insert(name, View { plan, schema });
        Ok(())
    }

    /// Drop a table or view.
    pub fn drop_relation(&mut self, name: &str) -> Result<()> {
        if self.tables.remove(name).is_some() {
            Ok(())
        } else if self.views.contains_key(name) {
            Arc::make_mut(&mut self.views).remove(name);
            Ok(())
        } else {
            Err(Error::NotFound(format!("relation {name}")))
        }
    }

    /// Access a base table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| Error::NotFound(format!("table {name}")))
    }

    /// Mutable access to a base table. When the table's storage is shared
    /// with another snapshot, it is materialized (deep-copied) first —
    /// copy-on-write at table granularity.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| Error::NotFound(format!("table {name}")))
    }

    /// Access a view definition.
    pub fn view(&self, name: &str) -> Option<&View> {
        self.views.get(name)
    }

    /// True iff `name` is a base table or a view.
    pub fn has_relation(&self, name: &str) -> bool {
        self.tables.contains_key(name) || self.views.contains_key(name)
    }

    /// True iff `name` is a base table.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Schema of a table or view.
    pub fn schema_of(&self, name: &str) -> Result<&Schema> {
        if let Some(t) = self.tables.get(name) {
            Ok(t.schema())
        } else if let Some(v) = self.views.get(name) {
            Ok(&v.schema)
        } else {
            Err(Error::NotFound(format!("relation {name}")))
        }
    }

    /// Insert a tuple into a base table.
    pub fn insert(&mut self, table: &str, tuple: Tuple) -> Result<bool> {
        self.table_mut(table)?.insert(tuple)
    }

    /// Names of all base tables.
    pub fn table_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.tables.keys().map(String::as_str)
    }

    /// Names of all views.
    pub fn view_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.views.keys().map(String::as_str)
    }

    /// True iff `name`'s storage is physically shared (same `Arc`) between
    /// `self` and `other`. Snapshot tests use this to assert that
    /// copy-on-write only materializes what a write touched.
    pub fn shares_table_storage(&self, other: &Database, name: &str) -> bool {
        match (self.tables.get(name), other.tables.get(name)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// A clone with **no** shared structure: every table is materialized.
    /// This is the old O(database) write-path clone, kept as a reference:
    /// `bench_e2e`'s oracle recomputes answers on a deep clone, so they
    /// share no storage with the served snapshot.
    pub fn deep_clone(&self) -> Database {
        let mut out = self.clone();
        let names: Vec<String> = out.table_names().map(str::to_string).collect();
        for name in names {
            let _ = out.table_mut(&name);
        }
        out
    }

    /// Total number of live rows across all base tables (the paper's
    /// "instance size" metric in Figures 9–10).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proql_common::{tup, ValueType};

    fn schema(name: &str) -> Schema {
        Schema::build(name, &[("id", ValueType::Int)], &[0]).unwrap()
    }

    #[test]
    fn create_and_insert() {
        let mut db = Database::new();
        db.create_table(schema("A")).unwrap();
        assert!(db.insert("A", tup![1]).unwrap());
        assert!(!db.insert("A", tup![1]).unwrap());
        assert_eq!(db.table("A").unwrap().len(), 1);
        assert_eq!(db.total_rows(), 1);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut db = Database::new();
        db.create_table(schema("A")).unwrap();
        assert!(db.create_table(schema("A")).is_err());
        assert!(db.create_view("A", Plan::scan("B"), schema("A")).is_err());
    }

    #[test]
    fn views_are_relations_but_not_tables() {
        let mut db = Database::new();
        db.create_table(schema("A")).unwrap();
        db.create_view("V", Plan::scan("A"), schema("V")).unwrap();
        assert!(db.has_relation("V"));
        assert!(!db.has_table("V"));
        assert_eq!(db.schema_of("V").unwrap().name(), "V");
        assert!(db.table("V").is_err());
    }

    #[test]
    fn drop_relation() {
        let mut db = Database::new();
        db.create_table(schema("A")).unwrap();
        db.drop_relation("A").unwrap();
        assert!(!db.has_relation("A"));
        assert!(db.drop_relation("A").is_err());
    }

    #[test]
    fn missing_table_errors() {
        let db = Database::new();
        assert!(db.table("nope").is_err());
        assert!(db.schema_of("nope").is_err());
    }

    #[test]
    fn clone_shares_storage_until_written() {
        let mut db = Database::new();
        db.create_table(schema("A")).unwrap();
        db.create_table(schema("B")).unwrap();
        db.insert("A", tup![1]).unwrap();
        db.insert("B", tup![1]).unwrap();

        let mut snap = db.clone();
        assert!(db.shares_table_storage(&snap, "A"));
        assert!(db.shares_table_storage(&snap, "B"));

        // Writing to A in the snapshot materializes only A.
        snap.insert("A", tup![2]).unwrap();
        assert!(!db.shares_table_storage(&snap, "A"));
        assert!(db.shares_table_storage(&snap, "B"));

        // The original is untouched (copy-on-write, not in-place).
        assert_eq!(db.table("A").unwrap().len(), 1);
        assert_eq!(snap.table("A").unwrap().len(), 2);
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let mut db = Database::new();
        db.create_table(schema("A")).unwrap();
        db.insert("A", tup![1]).unwrap();
        let deep = db.deep_clone();
        assert!(!db.shares_table_storage(&deep, "A"));
        assert_eq!(deep.table("A").unwrap().len(), 1);
    }

    #[test]
    fn view_map_is_cow_too() {
        let mut db = Database::new();
        db.create_table(schema("A")).unwrap();
        db.create_view("V", Plan::scan("A"), schema("V")).unwrap();
        let mut snap = db.clone();
        snap.create_view("W", Plan::scan("A"), schema("W")).unwrap();
        assert!(db.view("W").is_none());
        assert!(snap.view("W").is_some());
        assert!(snap.view("V").is_some());
    }
}
