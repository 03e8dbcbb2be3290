//! The database: a named collection of tables, doubling as the
//! `db2-fn:xmlcolumn` collection provider.

use std::collections::HashMap;
use std::sync::Arc;

use xqdb_pager::Pager;
use xqdb_xdm::{ErrorCode, FaultInjector, Item, Sequence, XdmError};
use xqdb_xqeval::CollectionProvider;

use crate::table::{RowId, Table};
use crate::value::SqlValue;

/// Write-ahead persistence: the durability layer installs one of these so
/// every mutation is logged **before** it is applied. A hook that returns
/// an error vetoes the mutation — in-memory state never runs ahead of the
/// log, which is what makes replayed state a faithful prefix of history.
///
/// The trait lives in `xqdb-storage` (the layer that owns mutation) while
/// the implementation lives above it (`xqdb-core`'s durability module), so
/// storage stays free of any WAL dependency.
pub trait PersistenceHook: std::fmt::Debug + Send + Sync {
    /// A table is about to be created (validation already passed).
    fn log_create_table(&self, table: &Table) -> Result<(), XdmError>;
    /// A conformed row is about to be appended to `table`.
    fn log_insert(&self, table: &str, row: &[SqlValue]) -> Result<(), XdmError>;
    /// The listed rows are about to be deleted from `table` (all ids
    /// validated live). One log record covers the whole statement.
    fn log_delete(&self, table: &str, rowids: &[u64]) -> Result<(), XdmError>;
    /// Row `rowid` of `table` is about to be replaced by the conformed
    /// `row`.
    fn log_replace(&self, table: &str, rowid: u64, row: &[SqlValue]) -> Result<(), XdmError>;
    /// An index is about to be created (validation already passed).
    fn log_create_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
        pattern: &str,
        ty: &str,
    ) -> Result<(), XdmError>;
}

/// A database whose table rows live in heap pages behind one shared
/// buffer pool.
#[derive(Debug)]
pub struct Database {
    tables: HashMap<String, Table>,
    /// The shared pager all tables' heap pages live in — in-memory by
    /// default, file-backed for durable sessions.
    pager: Arc<Pager>,
    /// Next heap table id to hand out (0 is reserved for free-standing
    /// tables not yet adopted by a database).
    next_table_id: u32,
    /// Chaos-testing hook: when set, each document fetched from an XML
    /// column is an injection point. A fired fault surfaces as a typed
    /// `StorageFault` error — document data has no fallback, so the engine
    /// reports it rather than degrading.
    fault_injector: Option<Arc<FaultInjector>>,
    /// Durability hook: when set, mutations are logged write-ahead.
    persistence: Option<Arc<dyn PersistenceHook>>,
}

impl Default for Database {
    fn default() -> Self {
        Database::with_pager(Arc::new(Pager::new_mem(xqdb_pager::buffer_pages_from_env())))
    }
}

impl Database {
    /// Create an empty database over a fresh in-memory pager sized from
    /// `XQDB_BUFFER_PAGES`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty database over a specific pager (file-backed for
    /// durable sessions, or a small in-memory pool in eviction tests).
    pub fn with_pager(pager: Arc<Pager>) -> Self {
        Database {
            tables: HashMap::new(),
            pager,
            next_table_id: 1,
            fault_injector: None,
            persistence: None,
        }
    }

    /// The pager that backs this database's tables.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Install (or clear) the storage fault injector.
    pub fn set_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        self.fault_injector = injector;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault_injector.as_ref()
    }

    /// Install (or clear) the write-ahead persistence hook.
    pub fn set_persistence(&mut self, hook: Option<Arc<dyn PersistenceHook>>) {
        self.persistence = hook;
    }

    /// The installed persistence hook, if any.
    pub fn persistence(&self) -> Option<&Arc<dyn PersistenceHook>> {
        self.persistence.as_ref()
    }

    /// Register a table. Fails if a table of that name exists. With a
    /// persistence hook installed the DDL is logged write-ahead: a log
    /// failure vetoes the creation.
    ///
    /// The table is re-homed onto the database's shared pager under a
    /// fresh table id (any rows it already holds migrate), so every
    /// catalog table competes for the same bounded pool of frames.
    pub fn create_table(&mut self, table: Table) -> Result<(), XdmError> {
        let name = table.name.clone();
        if self.tables.contains_key(&name) {
            return Err(XdmError::new(
                ErrorCode::SqlType,
                format!("table {name} already exists"),
            ));
        }
        if let Some(hook) = &self.persistence {
            hook.log_create_table(&table)?;
        }
        let table_id = self.next_table_id;
        self.next_table_id += 1;
        let mut homed =
            Table::with_pager(&name, table.columns.clone(), Arc::clone(&self.pager), table_id);
        for item in table.scan() {
            let (_, row) = item?;
            homed.push_row(row)?;
        }
        self.tables.insert(name, homed);
        Ok(())
    }

    /// Register a table recovered from persistent pages, keeping its pager
    /// and table id (it already lives in the shared page file). Bumps the
    /// id allocator past it so later CREATE TABLEs don't collide.
    pub fn adopt_recovered_table(&mut self, table: Table) -> Result<(), XdmError> {
        let name = table.name.clone();
        if self.tables.contains_key(&name) {
            return Err(XdmError::new(
                ErrorCode::SqlType,
                format!("table {name} already exists"),
            ));
        }
        self.next_table_id = self.next_table_id.max(table.table_id() + 1);
        self.tables.insert(name, table);
        Ok(())
    }

    /// Borrow a table by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_uppercase())
    }

    /// Mutably borrow a table.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(&name.to_ascii_uppercase())
    }

    /// Insert a row, returning its id. Ordering with a persistence hook:
    /// conform first (so only rows that will actually be applied reach the
    /// log), then log write-ahead, then apply.
    pub fn insert(&mut self, table: &str, values: Vec<SqlValue>) -> Result<RowId, XdmError> {
        let upper = table.to_ascii_uppercase();
        let t = self.tables.get(&upper).ok_or_else(|| {
            XdmError::new(ErrorCode::SqlType, format!("unknown table {table}"))
        })?;
        let row = t.conform_row(values)?;
        if let Some(hook) = &self.persistence {
            hook.log_insert(&upper, &row)?;
        }
        let t = self.tables.get_mut(&upper).ok_or_else(|| {
            XdmError::internal(format!("table {table} vanished during insert"))
        })?;
        t.push_row(row)
    }

    /// Delete rows by id. Validation → write-ahead log → apply, mirroring
    /// [`Database::insert`]: every id must name a live row before anything
    /// is logged, so the WAL never records a delete that was refused.
    /// Returns each deleted row with its id, as [`Table::delete_row`]
    /// decoded it (a repeated id is deleted once).
    pub fn delete(
        &mut self,
        table: &str,
        rowids: &[u64],
    ) -> Result<Vec<(u64, Vec<SqlValue>)>, XdmError> {
        let upper = table.to_ascii_uppercase();
        let t = self.tables.get(&upper).ok_or_else(|| {
            XdmError::new(ErrorCode::SqlType, format!("unknown table {table}"))
        })?;
        for &id in rowids {
            let id = id as RowId;
            if id >= t.len() || t.is_deleted(id) {
                return Err(XdmError::new(
                    ErrorCode::SqlType,
                    format!("DELETE from {upper}: no live row {id}"),
                ));
            }
        }
        if let Some(hook) = &self.persistence {
            hook.log_delete(&upper, rowids)?;
        }
        let t = self.tables.get_mut(&upper).ok_or_else(|| {
            XdmError::internal(format!("table {table} vanished during delete"))
        })?;
        let mut removed = Vec::with_capacity(rowids.len());
        for &id in rowids {
            if let Some(row) = t.delete_row(id as RowId)? {
                removed.push((id, row));
            }
        }
        Ok(removed)
    }

    /// Replace one row's contents under its existing rowid (document
    /// REPLACE). Conform → validate → log → apply, like
    /// [`Database::insert`]. `old` is the row's current contents (see
    /// [`Table::replace_row`]).
    pub fn replace(
        &mut self,
        table: &str,
        rowid: u64,
        old: &[SqlValue],
        values: Vec<SqlValue>,
    ) -> Result<(), XdmError> {
        let upper = table.to_ascii_uppercase();
        let t = self.tables.get(&upper).ok_or_else(|| {
            XdmError::new(ErrorCode::SqlType, format!("unknown table {table}"))
        })?;
        let row = t.conform_row(values)?;
        let id = rowid as RowId;
        if id >= t.len() || t.is_deleted(id) {
            return Err(XdmError::new(
                ErrorCode::SqlType,
                format!("UPDATE {upper}: no live row {id}"),
            ));
        }
        if let Some(hook) = &self.persistence {
            hook.log_replace(&upper, rowid, &row)?;
        }
        let t = self.tables.get_mut(&upper).ok_or_else(|| {
            XdmError::internal(format!("table {table} vanished during replace"))
        })?;
        t.replace_row(id, old, row)
    }

    /// Stored XML documents parsed by row decodes across every table
    /// (monotone; statements charge themselves the delta).
    pub fn xml_docs_parsed(&self) -> u64 {
        self.tables.values().map(Table::xml_docs_parsed).sum()
    }

    /// All table names, sorted (for catalog listings).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Resolve a `TABLE.COLUMN` reference to `(table, column-index)`.
    pub fn resolve_xml_column(&self, spec: &str) -> Result<(&Table, usize), XdmError> {
        let (tname, cname) = spec.split_once('.').ok_or_else(|| {
            XdmError::new(
                ErrorCode::XPST0008,
                format!("xmlcolumn argument {spec:?} must be TABLE.COLUMN"),
            )
        })?;
        let table = self.table(tname).ok_or_else(|| {
            XdmError::new(ErrorCode::XPST0008, format!("unknown table {tname:?}"))
        })?;
        let col = table.column_index(cname).ok_or_else(|| {
            XdmError::new(
                ErrorCode::XPST0008,
                format!("unknown column {cname:?} in table {tname:?}"),
            )
        })?;
        Ok((table, col))
    }
}

impl CollectionProvider for Database {
    fn xmlcolumn(&self, name: &str) -> Result<Sequence, XdmError> {
        let (table, col) = self.resolve_xml_column(name)?;
        let mut out = Vec::with_capacity(table.len());
        for item in table.scan_masked(0, table.len(), table.column_mask(col)) {
            let (rowid, row) = item?;
            if let Some(inj) = &self.fault_injector {
                if inj.should_fail() {
                    return Err(XdmError::storage_fault(format!(
                        "injected fault fetching document at row {rowid} of {name}"
                    )));
                }
            }
            let cell = row.get(col).and_then(Option::as_ref).ok_or_else(|| {
                XdmError::internal(format!("row {rowid} of {name} is missing column {col}"))
            })?;
            match cell {
                SqlValue::Xml(n) => out.push(Item::Node(n.clone())),
                SqlValue::Null => {} // NULL documents contribute nothing
                other => {
                    return Err(XdmError::new(
                        ErrorCode::SqlType,
                        format!("column {name} is not an XML column (found {other:?})"),
                    ))
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use crate::value::SqlType;

    fn db_with_orders(docs: &[&str]) -> Database {
        let mut db = Database::new();
        db.create_table(Table::new(
            "orders",
            vec![Column::new("ordid", SqlType::Integer), Column::new("orddoc", SqlType::Xml)],
        ))
        .unwrap();
        for (i, d) in docs.iter().enumerate() {
            let doc = xqdb_xmlparse::parse_document(d).unwrap();
            db.insert(
                "orders",
                vec![SqlValue::Integer(i as i64), SqlValue::Xml(doc.root())],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn xmlcolumn_returns_documents_in_row_order() {
        let db = db_with_orders(&["<order id=\"1\"/>", "<order id=\"2\"/>"]);
        let seq = db.xmlcolumn("ORDERS.ORDDOC").unwrap();
        assert_eq!(seq.len(), 2);
        let first = seq[0].as_node().unwrap();
        let order = first.children().next().unwrap();
        assert_eq!(order.attributes().next().unwrap().string_value(), "1");
    }

    #[test]
    fn null_xml_skipped() {
        let mut db = db_with_orders(&["<order/>"]);
        db.insert("orders", vec![SqlValue::Integer(9), SqlValue::Null]).unwrap();
        assert_eq!(db.xmlcolumn("ORDERS.ORDDOC").unwrap().len(), 1);
    }

    #[test]
    fn non_xml_column_rejected() {
        let db = db_with_orders(&["<order/>"]);
        assert!(db.xmlcolumn("ORDERS.ORDID").is_err());
        assert!(db.xmlcolumn("ORDERS.MISSING").is_err());
        assert!(db.xmlcolumn("NOPE.ORDDOC").is_err());
        assert!(db.xmlcolumn("badspec").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db_with_orders(&[]);
        let err = db
            .create_table(Table::new("ORDERS", vec![]))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::SqlType);
    }

    #[test]
    fn tables_share_the_database_pager() {
        let mut db = db_with_orders(&["<order/>"]);
        db.create_table(Table::new("other", vec![Column::new("x", SqlType::Integer)]))
            .unwrap();
        let a = db.table("orders").unwrap();
        let b = db.table("other").unwrap();
        assert!(Arc::ptr_eq(a.pager(), db.pager()));
        assert!(Arc::ptr_eq(b.pager(), db.pager()));
        assert_ne!(a.table_id(), b.table_id());
    }

    #[test]
    fn injected_storage_fault_is_typed_error() {
        use xqdb_xdm::FaultMode;
        let mut db = db_with_orders(&["<order/>", "<order/>", "<order/>"]);
        db.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultMode::Nth(2)))));
        let err = db.xmlcolumn("ORDERS.ORDDOC").unwrap_err();
        assert_eq!(err.code, ErrorCode::StorageFault);
        // The injector already consumed its Nth shot; later scans succeed.
        assert_eq!(db.xmlcolumn("ORDERS.ORDDOC").unwrap().len(), 3);
    }

    #[test]
    fn end_to_end_xquery_over_database() {
        let db = db_with_orders(&[
            r#"<order><lineitem price="250"/></order>"#,
            r#"<order><lineitem price="50"/></order>"#,
        ]);
        let q = xqdb_xquery::parse_query(
            "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]",
        )
        .unwrap();
        let out =
            xqdb_xqeval::eval_query(&q, &db, &xqdb_xqeval::DynamicContext::new()).unwrap();
        assert_eq!(out.len(), 1);
    }
}
