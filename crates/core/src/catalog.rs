//! The catalog: tables plus their XML indexes, with index maintenance on
//! insert, delete and replace.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xqdb_obs::{Counter, Obs};
use xqdb_xdm::{ErrorCode, FaultInjector, NodeHandle, NodeKind, XdmError};
use xqdb_xmlindex::XmlIndex;
use xqdb_storage::{Database, RowId, SqlValue, Table};

use crate::eligibility::CostModel;
use crate::engine::QueryPlan;
use crate::plancache::{CacheEpoch, PlanCache};

/// A database plus its XML indexes.
#[derive(Debug, Default)]
pub struct Catalog {
    /// The row store.
    pub db: Database,
    /// Indexes by name.
    indexes: HashMap<String, XmlIndex>,
    /// Observability handle for index-maintenance counters (entries built on
    /// back-fill and insert). Defaults to the free disabled handle.
    pub obs: Obs,
    /// Monotone DDL epoch: bumped by `CREATE TABLE` / `CREATE INDEX`, read
    /// by the plan caches to invalidate plans built against older schema.
    ddl_epoch: AtomicU64,
    /// Monotone statistics epoch: bumped when a table's live row count
    /// drifts ≥25% from its baseline, so costed plans are re-costed
    /// against the shifted synopsis histograms instead of served stale.
    stats_epoch: AtomicU64,
    /// Per-table live row count at the last stats-epoch bump (or first
    /// sighting) — the drift baseline.
    stats_baseline: Mutex<HashMap<String, u64>>,
    /// LRU cache of compiled XQuery plans, keyed by query text.
    plan_cache: Mutex<PlanCache<QueryPlan>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// `CREATE TABLE`.
    pub fn create_table(&mut self, table: Table) -> Result<(), XdmError> {
        self.db.create_table(table)?;
        self.bump_ddl_epoch();
        Ok(())
    }

    /// The current DDL epoch (see the field docs).
    pub fn ddl_epoch(&self) -> u64 {
        self.ddl_epoch.load(Ordering::Acquire)
    }

    fn bump_ddl_epoch(&self) {
        self.ddl_epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// The current statistics epoch (see the field docs).
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch.load(Ordering::Acquire)
    }

    /// The full plan-validation epoch pair (DDL shape + statistics).
    pub fn plan_epoch(&self) -> CacheEpoch {
        CacheEpoch::new(self.ddl_epoch(), self.stats_epoch())
    }

    /// Record post-DML row-count drift for `table`: a ≥25% move from the
    /// baseline bumps the stats epoch (invalidating costed cached plans)
    /// and resets the baseline to the current count.
    fn note_stats_drift(&self, table_upper: &str) {
        let Some(t) = self.db.table(table_upper) else { return };
        let cur = t.live_len() as u64;
        let Ok(mut base) = self.stats_baseline.lock() else { return };
        let entry = base.entry(table_upper.to_string()).or_insert(cur);
        let drift = cur.abs_diff(*entry);
        if drift > 0 && drift * 4 >= (*entry).max(1) {
            *entry = cur;
            self.stats_epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Planning-time statistics for one `TABLE.COLUMN` source, or `None`
    /// when the table is unknown or its synopsis lacks complete value
    /// statistics (e.g. rows adopted from a manifest without re-parsing —
    /// the planner then falls back to rule-based index choice).
    pub fn cost_model_for(&self, source: &str) -> Option<CostModel<'_>> {
        let (t, _) = self.db.resolve_xml_column(source).ok()?;
        let synopsis = t.synopsis();
        if !synopsis.stats_complete() {
            return None;
        }
        Some(CostModel {
            docs: t.live_len() as u64,
            pages: t.heap_pages().len() as u64,
            synopsis,
            labels: t.labels(),
        })
    }

    /// Look up a cached plan for this exact query text, if one was built
    /// under the current epoch pair.
    pub fn cached_plan(&self, text: &str) -> Option<Arc<QueryPlan>> {
        let epoch = self.plan_epoch();
        match self.plan_cache.lock() {
            Ok(mut cache) => cache.get(text, epoch),
            Err(_) => None,
        }
    }

    /// Cache a plan under the current epoch pair.
    pub fn cache_plan(&self, text: &str, plan: Arc<QueryPlan>) {
        let epoch = self.plan_epoch();
        if let Ok(mut cache) = self.plan_cache.lock() {
            cache.insert(text.to_string(), plan, epoch);
        }
    }

    /// Validate index DDL against the catalog: an empty index plus the
    /// indexed column's position.
    fn new_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
        xmlpattern: &str,
        ty: &str,
    ) -> Result<(XmlIndex, usize), XdmError> {
        let upper = name.to_ascii_uppercase();
        if self.indexes.contains_key(&upper) {
            return Err(XdmError::new(
                ErrorCode::SqlType,
                format!("index {upper} already exists"),
            ));
        }
        let t = self.db.table(table).ok_or_else(|| {
            XdmError::new(ErrorCode::SqlType, format!("unknown table {table:?}"))
        })?;
        let col = t.column_index(column).ok_or_else(|| {
            XdmError::new(
                ErrorCode::SqlType,
                format!("unknown column {column:?} on table {table:?}"),
            )
        })?;
        Ok((XmlIndex::create(name, table, column, xmlpattern, ty)?, col))
    }

    /// Recovery: install an index bulk-loaded from a checkpoint's key
    /// snapshot (`keys` in tree order) instead of back-filling it from
    /// every document. Nothing is logged — the manifest already holds the
    /// DDL; the `verify_derived_state` oracle rebuilds from the documents
    /// and diffs against the loaded tree.
    #[allow(clippy::too_many_arguments)]
    pub fn load_index<'k>(
        &mut self,
        name: &str,
        table: &str,
        column: &str,
        xmlpattern: &str,
        ty: &str,
        keys: impl IntoIterator<Item = &'k [u8]>,
        skipped_nodes: usize,
    ) -> Result<(), XdmError> {
        let (mut index, _) = self.new_index(name, table, column, xmlpattern, ty)?;
        index.load_sorted(keys, skipped_nodes)?;
        self.indexes.insert(index.name.clone(), index);
        self.bump_ddl_epoch();
        Ok(())
    }

    /// `CREATE INDEX name ON table(column) USING XMLPATTERN 'p' AS type` —
    /// also back-fills the index from existing rows.
    pub fn create_index(
        &mut self,
        name: &str,
        table: &str,
        column: &str,
        xmlpattern: &str,
        ty: &str,
    ) -> Result<(), XdmError> {
        let upper = name.to_ascii_uppercase();
        let (mut index, col) = self.new_index(name, table, column, xmlpattern, ty)?;
        let t = self.db.table(table).ok_or_else(|| {
            XdmError::new(ErrorCode::SqlType, format!("unknown table {table:?}"))
        })?;
        // Write-ahead: with a persistence hook installed the DDL is logged
        // (in canonical spelling, so replay reproduces it exactly) after
        // validation but before the index becomes visible. A log failure
        // vetoes the creation.
        if let Some(hook) = self.db.persistence() {
            hook.log_create_index(
                &upper,
                &index.table,
                &index.column,
                &index.pattern.to_string(),
                &index.ty.to_string(),
            )?;
        }
        for item in t.scan_masked(0, t.len(), t.column_mask(col)) {
            let (row, values) = item?;
            if let Some(SqlValue::Xml(doc)) = &values[col] {
                index.insert_document(row as u64, doc);
            }
        }
        self.obs.add(Counter::IndexEntriesBuilt, index.len() as u64);
        self.indexes.insert(upper, index);
        self.bump_ddl_epoch();
        Ok(())
    }

    /// Install (or clear) a fault injector on every index probe path. New
    /// indexes created afterwards do NOT inherit it; chaos tests install
    /// injectors after schema setup.
    pub fn set_index_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        for idx in self.indexes.values_mut() {
            idx.set_fault_injector(injector.clone());
        }
    }

    /// `INSERT`, maintaining every index on the table.
    pub fn insert(&mut self, table: &str, values: Vec<SqlValue>) -> Result<RowId, XdmError> {
        let table_upper = table.to_ascii_uppercase();
        let new_cells = self.indexed_cells(&table_upper, &values);
        let row = self.db.insert(table, values)?;
        let new_cells = match new_cells {
            Some(cells) => cells,
            None => self.stored_cells(&table_upper, row as u64)?,
        };
        self.index_cells(&table_upper, row as u64, &[], &new_cells);
        self.note_stats_drift(&table_upper);
        Ok(row)
    }

    /// `DELETE`, maintaining every index on the table. Each rowid must
    /// name a live row (validated inside [`Database::delete`] before the
    /// statement is logged). Each row is decoded once, by the table as it
    /// retires the row's synopsis contribution, and its XML cells then
    /// tell the indexes which entries to drop. Index removal re-extracts
    /// entries from the stored document, which yields exactly the keys
    /// insertion built: node ids are per-document pre-order positions,
    /// deterministic across re-parses of the same stored bytes. Returns
    /// rows deleted.
    pub fn delete(&mut self, table: &str, rowids: &[u64]) -> Result<u64, XdmError> {
        let table_upper = table.to_ascii_uppercase();
        let removed = self.db.delete(&table_upper, rowids)?;
        for (row, values) in &removed {
            if let Some(cells) = self.indexed_cells(&table_upper, values) {
                self.index_cells(&table_upper, *row, &cells, &[]);
            }
        }
        let n = removed.len() as u64;
        self.obs.add(Counter::RowsDeleted, n);
        self.note_stats_drift(&table_upper);
        Ok(n)
    }

    /// Document REPLACE (`UPDATE t SET … WHERE …`, resolved to one rowid),
    /// maintaining every index: the old document's entries are removed and
    /// the new document's inserted under the same rowid. Decodes the old
    /// row; [`Catalog::replace_decoded`] takes it from a caller that
    /// already has it.
    pub fn replace(
        &mut self,
        table: &str,
        rowid: u64,
        values: Vec<SqlValue>,
    ) -> Result<(), XdmError> {
        let t = self.db.table(table).ok_or_else(|| {
            XdmError::new(ErrorCode::SqlType, format!("unknown table {table}"))
        })?;
        let old = t.row(rowid as RowId)?.ok_or_else(|| {
            XdmError::new(ErrorCode::SqlType, format!("UPDATE {}: no live row {rowid}", t.name))
        })?;
        self.replace_decoded(table, rowid, &old, values)
    }

    /// [`Catalog::replace`] given the row's current contents `old`, as
    /// [`Table::row`] returns them. The old row is not decoded again, and
    /// the new row is indexed from `values` themselves, so a one-row
    /// UPDATE parses only the stored document its SET list read.
    pub fn replace_decoded(
        &mut self,
        table: &str,
        rowid: u64,
        old: &[SqlValue],
        values: Vec<SqlValue>,
    ) -> Result<(), XdmError> {
        let table_upper = table.to_ascii_uppercase();
        let old_cells = self.indexed_cells(&table_upper, old).unwrap_or_default();
        let new_cells = self.indexed_cells(&table_upper, &values);
        self.db.replace(&table_upper, rowid, old, values)?;
        let new_cells = match new_cells {
            Some(cells) => cells,
            None => self.stored_cells(&table_upper, rowid)?,
        };
        self.index_cells(&table_upper, rowid, &old_cells, &new_cells);
        self.obs.incr(Counter::DocsReplaced);
        self.note_stats_drift(&table_upper);
        Ok(())
    }

    /// The XML cells of `row` that some index on `table` covers, by column
    /// name — `Some(empty)` when no index covers any. `None` when such a
    /// cell is not a parsed document (a node an `XMLQUERY` selected or
    /// constructed): its node ids need not be the stored form's, so the
    /// caller indexes the row as stored instead ([`Catalog::stored_cells`]).
    fn indexed_cells(&self, table: &str, row: &[SqlValue]) -> Option<Vec<(String, NodeHandle)>> {
        let t = self.db.table(table)?;
        let mut cells = Vec::new();
        for (c, v) in t.columns.iter().zip(row) {
            let SqlValue::Xml(n) = v else { continue };
            if !self.indexes.values().any(|i| i.table == t.name && i.column == c.name) {
                continue;
            }
            if n.kind() != NodeKind::Document {
                return None;
            }
            cells.push((c.name.clone(), n.clone()));
        }
        Some(cells)
    }

    /// [`Catalog::indexed_cells`] of row `rowid` as stored, decoding only
    /// the indexed columns.
    fn stored_cells(&self, table: &str, rowid: u64) -> Result<Vec<(String, NodeHandle)>, XdmError> {
        let t = self.db.table(table).ok_or_else(|| {
            XdmError::internal(format!("table {table} vanished during maintenance"))
        })?;
        let mask: Vec<bool> = t
            .columns
            .iter()
            .map(|c| self.indexes.values().any(|i| i.table == t.name && i.column == c.name))
            .collect();
        let row = t.row_masked(rowid as RowId, &mask)?.unwrap_or_default();
        let mut cells = Vec::new();
        for (c, v) in t.columns.iter().zip(row) {
            if let Some(SqlValue::Xml(n)) = v {
                cells.push((c.name.clone(), n));
            }
        }
        Ok(cells)
    }

    /// Move row `rowid`'s index entries from the documents `old` to the
    /// documents `new` (cells by column name, as [`Catalog::indexed_cells`]
    /// lists them).
    fn index_cells(
        &mut self,
        table: &str,
        rowid: u64,
        old: &[(String, NodeHandle)],
        new: &[(String, NodeHandle)],
    ) {
        for idx in self.indexes.values_mut().filter(|i| i.table == table) {
            let column = idx.column.clone();
            for (_, doc) in old.iter().filter(|(col, _)| *col == column) {
                idx.remove_document(rowid, doc);
            }
            for (_, doc) in new.iter().filter(|(col, _)| *col == column) {
                let before = idx.len();
                idx.insert_document(rowid, doc);
                self.obs.add(Counter::IndexEntriesBuilt, (idx.len() - before) as u64);
            }
        }
    }

    /// Indexes on a given `TABLE.COLUMN` source key, sorted by name so
    /// the rule-based "first eligible" choice is deterministic and
    /// matches the catalog-listing order (`all_indexes`, EXPLAIN).
    pub fn indexes_for_source(&self, source: &str) -> Vec<&XmlIndex> {
        let mut v: Vec<&XmlIndex> = self
            .indexes
            .values()
            .filter(|i| format!("{}.{}", i.table, i.column) == source)
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// All indexes (for EXPLAIN/catalog listings), sorted by name.
    pub fn all_indexes(&self) -> Vec<&XmlIndex> {
        let mut v: Vec<&XmlIndex> = self.indexes.values().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Look up one index.
    pub fn index(&self, name: &str) -> Option<&XmlIndex> {
        self.indexes.get(&name.to_ascii_uppercase())
    }

    /// Aggregate buffer-pool counters across every pool this catalog owns:
    /// the row store's shared page file plus each index's private node pool.
    /// Monotone, so two snapshots bracket a query's physical page traffic
    /// (`PoolStats::delta_since`).
    pub fn pool_stats(&self) -> xqdb_pager::PoolStats {
        let mut total = self.db.pager().pool_stats();
        for idx in self.indexes.values() {
            total.add(&idx.pool_stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqdb_storage::{Column, SqlType};

    fn orders_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(Table::new(
            "orders",
            vec![Column::new("ordid", SqlType::Integer), Column::new("orddoc", SqlType::Xml)],
        ))
        .unwrap();
        c
    }

    fn insert_order(c: &mut Catalog, id: i64, xml: &str) {
        let doc = xqdb_xmlparse::parse_document(xml).unwrap();
        c.insert("orders", vec![SqlValue::Integer(id), SqlValue::Xml(doc.root())])
            .unwrap();
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut c = orders_catalog();
        c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
            .unwrap();
        insert_order(&mut c, 1, r#"<order><lineitem price="250"/></order>"#);
        insert_order(&mut c, 2, r#"<order><lineitem price="50"/></order>"#);
        assert_eq!(c.index("LI_PRICE").unwrap().len(), 2);
    }

    #[test]
    fn index_backfilled_on_create() {
        let mut c = orders_catalog();
        insert_order(&mut c, 1, r#"<order><lineitem price="250"/></order>"#);
        c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
            .unwrap();
        assert_eq!(c.index("li_price").unwrap().len(), 1);
    }

    #[test]
    fn duplicate_index_rejected() {
        let mut c = orders_catalog();
        c.create_index("i1", "orders", "orddoc", "//a", "double").unwrap();
        assert!(c.create_index("I1", "orders", "orddoc", "//b", "double").is_err());
    }

    #[test]
    fn unknown_table_or_column_rejected() {
        let mut c = orders_catalog();
        assert!(c.create_index("x", "nope", "orddoc", "//a", "double").is_err());
        assert!(c.create_index("x", "orders", "nope", "//a", "double").is_err());
    }

    #[test]
    fn invalid_xml_through_production_insert_is_a_typed_error_not_a_panic() {
        // The only `parse_document(..).unwrap()` in this file is the
        // `insert_order` test helper above, which feeds known-good fixture
        // XML. The production ingest path parses through
        // `SqlSession::eval_insert_row`, which must surface malformed input
        // as a typed error — never a panic.
        let mut s = crate::sqlxml::SqlSession::new();
        s.execute("create table t (id integer, doc XML)").unwrap();
        let err = s
            .execute("INSERT INTO t VALUES (1, '<broken')")
            .expect_err("malformed XML is rejected");
        assert_eq!(err.code, xqdb_xdm::ErrorCode::XPST0003);
        // And a document over the session parse limits gets the limit code.
        let mut s = crate::sqlxml::SqlSession::new();
        s.parse_limits = s.parse_limits.with_max_doc_bytes(8);
        s.execute("create table t (id integer, doc XML)").unwrap();
        let err = s
            .execute("INSERT INTO t VALUES (1, '<a>0123456789</a>')")
            .expect_err("oversized XML is rejected");
        assert_eq!(err.code, xqdb_xdm::ErrorCode::ParseLimit);
    }

    #[test]
    fn ddl_bumps_epoch_and_invalidates_cached_plans() {
        let mut c = orders_catalog();
        let e0 = c.ddl_epoch();
        insert_order(&mut c, 1, "<order><custid>c1</custid></order>");
        assert_eq!(c.ddl_epoch(), e0, "DML must not bump the DDL epoch");
        let parsed = xqdb_xquery::parse_query("1").unwrap();
        let plan =
            Arc::new(crate::engine::plan_query(&c, parsed, &crate::AnalysisEnv::new()));
        c.cache_plan("q", Arc::clone(&plan));
        assert!(c.cached_plan("q").is_some());
        c.create_index("i9", "orders", "orddoc", "//a", "double").unwrap();
        assert!(c.ddl_epoch() > e0);
        assert!(c.cached_plan("q").is_none(), "DDL invalidates cached plans");
    }

    #[test]
    fn stats_drift_recosts_cached_plans_after_delete_churn() {
        let mut c = orders_catalog();
        for i in 0..8 {
            insert_order(&mut c, i, r#"<order><lineitem price="9"/></order>"#);
        }
        let e = c.ddl_epoch();
        let parsed = xqdb_xquery::parse_query("1").unwrap();
        let plan =
            Arc::new(crate::engine::plan_query(&c, parsed, &crate::AnalysisEnv::new()));
        c.cache_plan("q", Arc::clone(&plan));
        assert!(c.cached_plan("q").is_some());
        // Dropping half the rows is a ≥25% drift: the stats epoch bumps,
        // the cached plan is re-costed — but the DDL epoch is untouched.
        c.delete("orders", &[0, 1, 2, 3]).unwrap();
        assert_eq!(c.ddl_epoch(), e, "DML must not bump the DDL epoch");
        assert!(c.cached_plan("q").is_none(), "heavy churn invalidates cached plans");
        // Re-caching under the new epoch works, and light churn keeps it.
        c.cache_plan("q", plan);
        assert!(c.cached_plan("q").is_some(), "plan re-cached under new stats epoch");
    }

    #[test]
    fn indexes_for_source_filters() {
        let mut c = orders_catalog();
        c.create_index("i1", "orders", "orddoc", "//a", "double").unwrap();
        assert_eq!(c.indexes_for_source("ORDERS.ORDDOC").len(), 1);
        assert!(c.indexes_for_source("ORDERS.OTHER").is_empty());
    }
}
