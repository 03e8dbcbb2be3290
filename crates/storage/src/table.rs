//! Tables: paged row stores supporting INSERT, DELETE and REPLACE.
//!
//! Rows no longer live in a `Vec` — they are encoded through
//! [`crate::rowcodec`] into a slotted-page [`HeapFile`] behind a buffer
//! pool, so a table bigger than the pool's frame budget still works (the
//! pool evicts clean pages and writes back dirty ones). What stays in
//! memory per row is deliberately small and fixed-size:
//!
//! * the heap [`RecordId`] directory (rowid → record address);
//! * the cell of every INTEGER column (16 bytes each, NULL for a NULL
//!   cell and for a deleted row), which lets a scalar `WHERE` over such a
//!   column pick its rows without reading a page;
//! * the row's entry (8 bytes) in the posting list of each rooted path
//!   its documents hold, which the prefilter and the twig join read.
//!
//! All three are derived from the stored records: inserts, deletes and
//! replaces maintain them. Recovery rebuilds the first two in one walk
//! over the record headers and integer cells, parsing no XML, and takes
//! the postings from the checkpoint manifest.
//!
//! Scans decode rows on the fly, which re-parses XML cells into fresh
//! document trees. That is semantically safe for the same reason WAL
//! replay is: parse order equals row order, so document identities are
//! assigned monotonically within a scan, and Definition 1 observes
//! content, not identity.

use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xqdb_pager::{HeapFile, PageId, Pager, RecordId};
use xqdb_xdm::{ErrorCode, NodeKind, XdmError};

use xqdb_twig::{LabelEntry, LabelStore};

use crate::rowcodec::{decode_int_cells, decode_row_masked, decode_rowid, encode_row};
use crate::synopsis::{
    hash_rendered_path, observe_document, observe_document_labeled, PathSynopsis,
};
use crate::value::{SqlType, SqlValue};

/// A column definition.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name, stored upper-cased (SQL identifier semantics).
    pub name: String,
    /// Column type.
    pub ty: SqlType,
}

impl Column {
    /// Define a column (name canonicalized to upper case).
    pub fn new(name: impl AsRef<str>, ty: SqlType) -> Self {
        Column { name: name.as_ref().to_ascii_uppercase(), ty }
    }
}

/// Row identifier: dense insertion ordinal. Stable for the lifetime of
/// the table — DELETE retires an id without renumbering survivors, and
/// REPLACE reuses the id for the new document, so ids in WAL records and
/// index entries never shift meaning.
pub type RowId = usize;

/// A row store backed by heap pages. Rows append at the tail; DELETE and
/// REPLACE retire earlier rows in place (tombstones on mutable pages,
/// logical delete sets over frozen ones).
pub struct Table {
    /// Table name, upper-cased.
    pub name: String,
    /// Column definitions.
    pub columns: Vec<Column>,
    heap: HeapFile,
    /// rowid → heap record address.
    directory: Vec<RecordId>,
    /// The cells of every INTEGER column, in column order.
    ints: Vec<IntColumn>,
    /// Dictionary of distinct rooted paths observed across all rows.
    synopsis: PathSynopsis,
    /// Per-path posting lists (the rows holding each path, over all the
    /// row's XML cells) and per-row (pre, post, level) label runs.
    /// Postings are checkpointed in the manifest; runs are not, so a
    /// recovery that skips XML parsing drops them and the planner declines
    /// twig joins for the table.
    labels: LabelStore,
    /// Rowids retired by DELETE. Their directory slots remain
    /// (ids stay dense) but every read path treats them as absent. Rows
    /// whose heap record sat on an unfrozen page are also physically
    /// tombstoned; for frozen pages this set is the only record of the
    /// delete, so it is persisted in the checkpoint manifest.
    deleted: BTreeSet<RowId>,
    /// Rowids whose pre-REPLACE copies survive on frozen pages, each with
    /// the pages holding those copies. Recovery must expect two (or more)
    /// heap records for exactly these ids and keep the one on the live
    /// copy's page, which the checkpoint manifest persists with the id; a
    /// duplicate rowid *not* in this set is corruption. An entry leaves
    /// once relocation has vacated every page holding one of its copies.
    stale: BTreeMap<RowId, Vec<PageId>>,
    /// Stored XML documents parsed by row decodes so far (monotone). Only
    /// columns a decode materializes are parsed, so this counts physical
    /// parse work, not rows visited.
    xml_parsed: AtomicU64,
}

/// The in-memory cells of one INTEGER column: one per rowid, `None` for a
/// NULL cell and for every deleted row, so a reader deciding a comparison
/// never has to consult the delete set (NULL never compares TRUE).
#[derive(Debug)]
struct IntColumn {
    /// The column's position in the row.
    col: usize,
    cells: Vec<Option<i64>>,
}

impl IntColumn {
    /// One empty cell list per INTEGER column of `columns`.
    fn for_columns(columns: &[Column]) -> Vec<IntColumn> {
        columns
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c.ty, SqlType::Integer))
            .map(|(col, _)| IntColumn { col, cells: Vec::new() })
            .collect()
    }

    /// The cell `row` stores in this column.
    fn cell_of(&self, row: &[SqlValue]) -> Option<i64> {
        match row.get(self.col) {
            Some(SqlValue::Integer(i)) => Some(*i),
            _ => None,
        }
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("columns", &self.columns)
            .field("rows", &self.directory.len())
            .field("deleted", &self.deleted.len())
            .field("heap_pages", &self.heap.pages().len())
            .finish()
    }
}

impl Table {
    /// Create an empty table over its own private in-memory pager (sized
    /// from `XQDB_BUFFER_PAGES`). Used by unit tests and ad-hoc callers;
    /// the catalog re-homes tables onto its shared pager at CREATE TABLE.
    pub fn new(name: impl AsRef<str>, columns: Vec<Column>) -> Self {
        let pager = Arc::new(Pager::new_mem(xqdb_pager::buffer_pages_from_env()));
        Table::with_pager(name, columns, pager, 0)
    }

    /// Create an empty table whose rows live in `pager` under `table_id`.
    pub fn with_pager(
        name: impl AsRef<str>,
        columns: Vec<Column>,
        pager: Arc<Pager>,
        table_id: u32,
    ) -> Self {
        let ints = IntColumn::for_columns(&columns);
        Table {
            name: name.as_ref().to_ascii_uppercase(),
            columns,
            heap: HeapFile::create(pager, table_id),
            directory: Vec::new(),
            ints,
            synopsis: PathSynopsis::default(),
            labels: LabelStore::default(),
            deleted: BTreeSet::new(),
            stale: BTreeMap::new(),
            xml_parsed: AtomicU64::new(0),
        }
    }

    /// Reopen a table from its surviving heap pages (recovery). Rows with
    /// rowid `>= row_count` are ignored: they were inserted after the
    /// checkpoint that produced the manifest, and the WAL suffix re-creates
    /// them through [`Table::push_row`]. The directory comes from record
    /// headers and integer cells from the records' INTEGER columns, read
    /// in the same walk with every other column skipped by its length —
    /// no XML is parsed here, which is what makes suffix-only recovery
    /// fast. `paths` is the manifest's path summary, `(rendered path,
    /// sorted rows holding it)`: it names the synopsis paths and becomes
    /// the label store's postings. Adopted rows have no label runs, so the
    /// store drops them (see [`Table::observe_adopted_rows`] for a
    /// manifest that carries no summary).
    ///
    /// `deleted` lists rowids logically deleted while their record sat on a
    /// frozen page (the bytes survive but must be ignored); `stale` lists
    /// rowids REPLACEd after their original copy froze, each with the page
    /// of its live copy — recovery keeps the copy on that page, or the
    /// highest-page copy when the page is `None` (manifests from before
    /// pages below the watermark were reused). A duplicate rowid outside
    /// `stale`, or a missing live rowid, is reported as page corruption,
    /// never patched over. Copies not adopted are retired from the heap's
    /// live-byte counts, so the pages holding them relocate once sparse.
    //
    // The parameter list mirrors the manifest's per-table fields one-for-one;
    // bundling them into a struct here would just restate the WAL's manifest
    // type in a crate that must not depend on the WAL.
    #[allow(clippy::too_many_arguments)]
    pub fn from_pages(
        name: impl AsRef<str>,
        columns: Vec<Column>,
        pager: Arc<Pager>,
        table_id: u32,
        pages: Vec<PageId>,
        row_count: u64,
        deleted: &[u64],
        stale: &[(u64, Option<PageId>)],
        paths: &[(String, Vec<u64>)],
    ) -> Result<Self, XdmError> {
        let name = name.as_ref().to_ascii_uppercase();
        let mut heap = HeapFile::open(pager, table_id, pages)?;
        let mut ints = IntColumn::for_columns(&columns);
        for ic in &mut ints {
            ic.cells = vec![None; row_count as usize];
        }
        // Reads the integer cells of an adopted record (`rowid < row_count`).
        let mut adopt_cells = |rowid: u64, bytes: &[u8]| {
            decode_int_cells(
                bytes,
                |col| columns.get(col).is_some_and(|c| matches!(c.ty, SqlType::Integer)),
                |col, cell| {
                    if let Some(ic) = ints.iter_mut().find(|ic| ic.col == col) {
                        ic.cells[rowid as usize] = cell;
                    }
                },
            )
        };
        let deleted: BTreeSet<RowId> = deleted.iter().map(|&r| r as RowId).collect();
        let live_page: BTreeMap<RowId, Option<PageId>> =
            stale.iter().map(|&(r, page)| (r as RowId, page)).collect();
        // Pages of the superseded copies found, per stale-listed rowid.
        let mut stale: BTreeMap<RowId, Vec<PageId>> = BTreeMap::new();
        // Best surviving copy per rowid. Only stale-listed rowids may have
        // more than one copy (pre-REPLACE records on frozen pages).
        let mut best: BTreeMap<u64, RecordId> = BTreeMap::new();
        let mut dead: Vec<RecordId> = Vec::new();
        for pid in heap.pages().to_vec() {
            for (rid, bytes) in heap.page_records(pid)? {
                let rowid = decode_rowid(&bytes)?;
                let not_live = match live_page.get(&(rowid as RowId)) {
                    Some(Some(page)) => rid.page != *page,
                    _ => false,
                };
                if rowid >= row_count || deleted.contains(&(rowid as RowId)) || not_live {
                    if not_live {
                        stale.entry(rowid as RowId).or_default().push(rid.page);
                    }
                    dead.push(rid);
                    continue;
                }
                match best.entry(rowid) {
                    btree_map::Entry::Vacant(e) => {
                        e.insert(rid);
                        adopt_cells(rowid, &bytes)?;
                    }
                    btree_map::Entry::Occupied(mut e) => {
                        if live_page.get(&(rowid as RowId)) != Some(&None) {
                            return Err(XdmError::page_corrupt(format!(
                                "table {name}: rowid {rowid} appears on pages {} and {} but is not marked stale",
                                e.get().page, rid.page
                            )));
                        }
                        // Without a recorded page the highest one wins.
                        let loser = if rid.page > e.get().page {
                            adopt_cells(rowid, &bytes)?;
                            e.insert(rid)
                        } else {
                            rid
                        };
                        stale.entry(rowid as RowId).or_default().push(loser.page);
                        dead.push(loser);
                    }
                }
            }
        }
        for rid in dead {
            heap.retire(rid)?;
        }
        let mut directory = Vec::with_capacity(row_count as usize);
        for rowid in 0..row_count {
            if deleted.contains(&(rowid as RowId)) {
                // Keep ids dense: park an address on the meta page (never a
                // heap page, so an accidental fetch fails loudly) behind
                // the `deleted` guard every read path checks first.
                directory.push(RecordId { page: 0, slot: 0 });
                continue;
            }
            let Some(rid) = best.remove(&rowid) else {
                return Err(XdmError::page_corrupt(format!(
                    "table {name}: heap pages are missing row {rowid} of {row_count}"
                )));
            };
            directory.push(rid);
        }
        // Adopted rows were never re-parsed, so their label runs do not
        // exist: the twig planner falls back to navigation (always
        // correct) until a full re-ingest. Their postings come from the
        // manifest.
        let mut labels = LabelStore::default();
        if !directory.is_empty() {
            labels.drop_runs();
        }
        for (path, rows) in paths {
            labels.install_posting(hash_rendered_path(path), rows.clone());
        }
        Ok(Table {
            name,
            columns,
            heap,
            directory,
            ints,
            synopsis: PathSynopsis::from_paths(paths.iter().map(|(p, _)| p.as_str())),
            labels,
            deleted,
            stale,
            xml_parsed: AtomicU64::new(0),
        })
    }

    /// Re-derive the synopsis and labels of adopted rows by parsing them
    /// (recovery from a manifest older than `XQMANIF3`, which persisted
    /// no path summary): every live row is observed in rowid order, the
    /// way [`Table::push_row`] observed it, and a deleted rowid keeps an
    /// empty run, so the value statistics, runs and postings come out
    /// complete. Returns the number of rows parsed.
    pub fn observe_adopted_rows(&mut self) -> Result<usize, XdmError> {
        self.synopsis = PathSynopsis::default();
        self.labels = LabelStore::default();
        let mask: Vec<bool> = self.columns.iter().map(|c| matches!(c.ty, SqlType::Xml)).collect();
        let mut parsed = 0;
        for id in 0..self.directory.len() {
            match self.row_masked(id, &mask)? {
                Some(row) => {
                    let row: Vec<SqlValue> = row.into_iter().flatten().collect();
                    self.observe_row(id as u64, &row);
                    parsed += 1;
                }
                None => self.labels.write_run(id as u64, []),
            }
        }
        Ok(parsed)
    }

    /// The pager this table's heap pages live in.
    pub fn pager(&self) -> &Arc<Pager> {
        self.heap.pager()
    }

    /// The heap's table id (tag on its pages, recorded in the manifest).
    pub fn table_id(&self) -> u32 {
        self.heap.table_id()
    }

    /// Index of the named column (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let upper = name.to_ascii_uppercase();
        self.columns.iter().position(|c| c.name == upper)
    }

    /// Append a row after type-conforming every value. Returns the new
    /// row's id.
    pub fn insert(&mut self, values: Vec<SqlValue>) -> Result<RowId, XdmError> {
        let row = self.conform_row(values)?;
        self.push_row(row)
    }

    /// Validate and type-conform a candidate row without applying it. Split
    /// from [`Table::insert`] so the write-ahead path can validate → log →
    /// apply, in that order: only rows that will actually be appended reach
    /// the log.
    pub fn conform_row(&self, values: Vec<SqlValue>) -> Result<Vec<SqlValue>, XdmError> {
        if values.len() != self.columns.len() {
            return Err(XdmError::new(
                ErrorCode::SqlType,
                format!(
                    "INSERT into {} supplies {} values for {} columns",
                    self.name,
                    values.len(),
                    self.columns.len()
                ),
            ));
        }
        let mut row = Vec::with_capacity(values.len());
        for (v, c) in values.into_iter().zip(&self.columns) {
            row.push(v.conform(&c.ty)?);
        }
        Ok(row)
    }

    /// Append an already-conformed row (see [`Table::conform_row`]).
    ///
    /// The single choke point every insert path goes through (direct
    /// inserts, catalog inserts, WAL replay), so the row's postings and
    /// the table synopsis stay consistent with the stored documents.
    pub fn push_row(&mut self, row: Vec<SqlValue>) -> Result<RowId, XdmError> {
        let rowid = self.directory.len() as u64;
        self.observe_row(rowid, &row);
        let bytes = encode_row(rowid, &row);
        let rid = self.heap.insert(&bytes)?;
        self.directory.push(rid);
        for ic in &mut self.ints {
            ic.cells.push(ic.cell_of(&row));
        }
        Ok(rowid as RowId)
    }

    /// Delete a row, maintaining every derived structure incrementally:
    /// the synopsis value statistics lose the row's values, the row leaves
    /// every posting list and its label run is emptied, and its integer
    /// cells are set to NULL. The heap record is tombstoned in
    /// place when its page is still mutable; a frozen page gets a logical
    /// delete only (persisted via the manifest's deleted list). Returns
    /// the removed row, decoded once here so the caller can retire its
    /// index entries without fetching it again, or `None` if the row was
    /// already deleted — the operation is idempotent, which WAL replay
    /// relies on.
    pub fn delete_row(&mut self, id: RowId) -> Result<Option<Vec<SqlValue>>, XdmError> {
        if id >= self.directory.len() {
            return Err(XdmError::new(
                ErrorCode::SqlType,
                format!("DELETE from {}: no row {id}", self.name),
            ));
        }
        if self.deleted.contains(&id) {
            return Ok(None);
        }
        let row = self.row(id)?.ok_or_else(|| {
            XdmError::internal(format!("table {}: live row {id} has no heap record", self.name))
        })?;
        self.retire_row_stats(&row);
        self.labels.prune_row(id as u64);
        let rid = self.directory[id];
        if self.heap.pager().is_frozen(rid.page) {
            self.heap.retire(rid)?;
        } else {
            self.heap.delete(rid)?;
        }
        self.deleted.insert(id);
        self.stale.remove(&id); // any older copies are ignored wholesale now
        for ic in &mut self.ints {
            ic.cells[id] = None;
        }
        Ok(Some(row))
    }

    /// Replace a row's contents under the same rowid (document REPLACE:
    /// `UPDATE t SET xmlcol = …`). The old record is tombstoned (mutable
    /// page) or marked stale (frozen page — recovery then keeps the
    /// highest-page copy), the new record appended, and all derived state
    /// swapped: value statistics and postings move from the old documents'
    /// paths to the new ones, the row's label run is rewritten while the
    /// store keeps runs, and the integer cells are recomputed. The
    /// row must be live; `row` must already be conformed, and `old` must
    /// be the row's current contents as [`Table::row`] returns them — the
    /// caller has decoded them anyway (an UPDATE reads the old row to
    /// evaluate its SET list), so they are not parsed a second time here.
    pub fn replace_row(
        &mut self,
        id: RowId,
        old: &[SqlValue],
        row: Vec<SqlValue>,
    ) -> Result<(), XdmError> {
        if id >= self.directory.len() || self.deleted.contains(&id) {
            return Err(XdmError::new(
                ErrorCode::SqlType,
                format!("UPDATE {}: no live row {id}", self.name),
            ));
        }
        self.retire_row_stats(old);
        let rowid = id as u64;
        self.labels.prune_row(rowid);
        self.observe_row(rowid, &row);
        let old_rid = self.directory[id];
        if self.heap.pager().is_frozen(old_rid.page) {
            self.heap.retire(old_rid)?;
            self.stale.entry(id).or_default().push(old_rid.page);
        } else {
            self.heap.delete(old_rid)?;
        }
        let bytes = encode_row(rowid, &row);
        let rid = self.heap.insert(&bytes)?;
        self.directory[id] = rid;
        for ic in &mut self.ints {
            ic.cells[id] = ic.cell_of(&row);
        }
        Ok(())
    }

    /// Observe an incoming row's XML cells (INSERT/REPLACE): add them to
    /// the synopsis and write the row's labels (its postings, and its run
    /// while the store keeps runs). A cell that is not a parsed document —
    /// a node an `XMLQUERY` selected or constructed — is labeled from the
    /// document its serialization parses to, which is the form the record
    /// stores and every later decode sees: the node's own arena ids are
    /// not that document's. Its paths and values are the same either way.
    fn observe_row(&mut self, rowid: u64, row: &[SqlValue]) {
        let mut run = Vec::new();
        let mut cell = 0u32;
        for v in row {
            let SqlValue::Xml(n) = v else { continue };
            let reparsed = (n.kind() != NodeKind::Document)
                .then(|| xqdb_xmlparse::parse_document(&xqdb_xmlparse::serialize_node(n)).ok())
                .flatten()
                .map(|d| d.root());
            let n = reparsed.as_ref().unwrap_or(n);
            let this_cell = cell;
            observe_document_labeled(n, &mut self.synopsis, &mut |path, pre, post, level| {
                run.push((path, LabelEntry { cell: this_cell, pre, post, level }));
            });
            cell += 1;
        }
        self.labels.write_run(rowid, run);
    }

    /// Remove an outgoing row's value statistics (DELETE/REPLACE): one
    /// scratch observation per XML cell yields exactly the counts the
    /// insert path recorded, which are then subtracted so the maintained
    /// statistics stay equal to a rebuild over the surviving documents.
    fn retire_row_stats(&mut self, row: &[SqlValue]) {
        for v in row {
            if let SqlValue::Xml(n) = v {
                let mut scratch = PathSynopsis::default();
                observe_document(n, &mut scratch);
                self.synopsis.subtract_stats_of(&scratch);
            }
        }
    }

    /// Compact tombstoned records out of this table's mutable heap pages
    /// (checkpoint runs this before freezing them). Returns the number of
    /// records reclaimed.
    pub fn reclaim_tombstones(&mut self) -> Result<u64, XdmError> {
        self.heap.reclaim_tombstones()
    }

    /// Checkpoint-time reclamation of dead space on frozen pages: every
    /// sparse frozen heap page ([`HeapFile::sparse_frozen_pages`]) has its
    /// live records copied verbatim — same bytes, same rowid — into
    /// mutable pages, and only the directory learns the new addresses: no
    /// decode, nothing logged. Returns the vacated page ids (heap pages
    /// plus their records' overflow chains); they still hold the old
    /// copies, which a crash before the next manifest needs, so the pager
    /// keeps them until a manifest listing them is durable. Stale rows
    /// whose superseded copies were all on vacated pages stop being stale.
    pub fn relocate_sparse_pages(&mut self) -> Result<Vec<PageId>, XdmError> {
        let sparse = self.heap.sparse_frozen_pages();
        if sparse.is_empty() {
            return Ok(Vec::new());
        }
        let on_sparse: BTreeSet<PageId> = sparse.iter().copied().collect();
        for id in 0..self.directory.len() {
            let rid = self.directory[id];
            if self.deleted.contains(&id) || !on_sparse.contains(&rid.page) {
                continue;
            }
            let bytes = self.heap.get(rid)?;
            self.directory[id] = self.heap.insert(&bytes)?;
        }
        let vacated = self.heap.vacate(&sparse)?;
        // Superseded copies on the vacated pages are gone with them.
        self.stale.retain(|_, pages| {
            pages.retain(|p| !on_sparse.contains(p));
            !pages.is_empty()
        });
        Ok(vacated)
    }

    /// The in-memory cells of column `col`, one per rowid (see
    /// [`Table::len`]): `None` for a NULL cell and for a deleted row.
    /// `None` when `col` is not an INTEGER column.
    pub fn int_cells(&self, col: usize) -> Option<&[Option<i64>]> {
        self.ints.iter().find(|ic| ic.col == col).map(|ic| ic.cells.as_slice())
    }

    /// True if `id` names a row that existed and was deleted.
    pub fn is_deleted(&self, id: RowId) -> bool {
        self.deleted.contains(&id)
    }

    /// Rowids logically deleted while frozen or not — the manifest persists
    /// this whole set so recovery can ignore surviving frozen copies.
    pub fn deleted_rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.deleted.iter().map(|&r| r as u64)
    }

    /// Rowids whose pre-REPLACE copy survives on a frozen page, each with
    /// the page of its live copy (the manifest persists these so recovery
    /// expects the duplicates and knows which copy is live).
    pub fn stale_rows(&self) -> impl Iterator<Item = (u64, Option<PageId>)> + '_ {
        self.stale.keys().map(|&r| (r as u64, Some(self.directory[r].page)))
    }

    /// The table's path-synopsis dictionary.
    pub fn synopsis(&self) -> &PathSynopsis {
        &self.synopsis
    }

    /// The table's structural labels: postings for the prefilter and the
    /// twig join, runs for the join. Check [`LabelStore::runs_complete_for`]
    /// against [`Table::len`] before trusting the runs.
    pub fn labels(&self) -> &LabelStore {
        &self.labels
    }

    /// The path summary the checkpoint manifest persists: `(rendered path,
    /// sorted rows holding it)` for every path some row holds, sorted by
    /// path. A path's row count is its list's length.
    pub fn path_rows(&self) -> Vec<(String, Vec<u64>)> {
        let mut out: Vec<(String, Vec<u64>)> = self
            .labels
            .postings()
            .filter_map(|(hash, rows)| Some((self.synopsis.path(hash)?.to_string(), rows.to_vec())))
            .collect();
        out.sort_unstable();
        out
    }

    /// Size of the rowid domain: every id in `0..len()` was assigned at
    /// some point, though deleted ids no longer resolve to rows. Scan
    /// bounds and label-store completeness are defined over this domain.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Number of live (non-deleted) rows.
    pub fn live_len(&self) -> usize {
        self.directory.len() - self.deleted.len()
    }

    /// True if the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// Bytes of this table's live records on its heap pages, slot entries
    /// included; the rest of the bytes its pages use is dead space.
    pub fn live_bytes(&self) -> u64 {
        self.heap.live_bytes()
    }

    /// Bytes of records and slot entries on this table's heap pages, dead
    /// ones included.
    pub fn used_bytes(&self) -> u64 {
        self.heap.used_bytes()
    }

    /// Heap pages of this table, in allocation order.
    pub fn heap_pages(&self) -> &[PageId] {
        self.heap.pages()
    }

    /// Fetch a row from its heap page. `Ok(None)` for out-of-range or
    /// deleted ids; decode or page errors are typed.
    pub fn row(&self, id: RowId) -> Result<Option<Vec<SqlValue>>, XdmError> {
        let all = vec![true; self.columns.len()];
        Ok(self.row_masked(id, &all)?.map(|row| row.into_iter().flatten().collect()))
    }

    /// Fetch the columns `mask` selects (see
    /// [`crate::rowcodec::decode_row_masked`]): unselected columns are
    /// `None` and their bytes are skipped, not parsed.
    pub fn row_masked(
        &self,
        id: RowId,
        mask: &[bool],
    ) -> Result<Option<Vec<Option<SqlValue>>>, XdmError> {
        if self.deleted.contains(&id) {
            return Ok(None);
        }
        let Some(rid) = self.directory.get(id) else { return Ok(None) };
        let bytes = self.heap.get(*rid)?;
        self.decode(&bytes, mask).map(Some)
    }

    /// Stored XML documents parsed by this table's row decodes so far.
    pub fn xml_docs_parsed(&self) -> u64 {
        self.xml_parsed.load(Ordering::Relaxed)
    }

    fn decode(&self, bytes: &[u8], mask: &[bool]) -> Result<Vec<Option<SqlValue>>, XdmError> {
        let (_, row) = decode_row_masked(bytes, mask)?;
        let parsed = row.iter().filter(|v| matches!(v, Some(SqlValue::Xml(_)))).count();
        self.xml_parsed.fetch_add(parsed as u64, Ordering::Relaxed);
        Ok(row)
    }

    /// Iterate `(RowId, row)` pairs — the full table scan. Rows decode
    /// lazily from their heap pages, so only the pages the iterator has
    /// reached occupy pool frames.
    pub fn scan(&self) -> impl Iterator<Item = Result<(RowId, Vec<SqlValue>), XdmError>> + '_ {
        self.scan_range(0, self.directory.len())
    }

    /// Iterate `(RowId, row)` pairs for live rows in `[start, end)`.
    /// Deleted rows are skipped (their ids simply don't appear);
    /// out-of-range bounds are clamped.
    pub fn scan_range(
        &self,
        start: RowId,
        end: RowId,
    ) -> impl Iterator<Item = Result<(RowId, Vec<SqlValue>), XdmError>> + '_ {
        self.scan_masked(start, end, vec![true; self.columns.len()])
            .map(|item| item.map(|(id, row)| (id, row.into_iter().flatten().collect())))
    }

    /// [`Table::scan_range`] decoding only the columns `mask` selects (see
    /// [`Table::row_masked`]).
    pub fn scan_masked(
        &self,
        start: RowId,
        end: RowId,
        mask: Vec<bool>,
    ) -> impl Iterator<Item = Result<(RowId, Vec<Option<SqlValue>>), XdmError>> + '_ {
        let end = end.min(self.directory.len());
        let start = start.min(end);
        (start..end).filter_map(move |id| {
            if self.deleted.contains(&id) {
                return None;
            }
            Some((|| {
                let bytes = self.heap.get(self.directory[id])?;
                Ok((id, self.decode(&bytes, &mask)?))
            })())
        })
    }

    /// A mask selecting the single column `col` (see [`Table::row_masked`]).
    pub fn column_mask(&self, col: usize) -> Vec<bool> {
        (0..self.columns.len()).map(|c| c == col).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders() -> Table {
        Table::new(
            "orders",
            vec![Column::new("ordid", SqlType::Integer), Column::new("orddoc", SqlType::Xml)],
        )
    }

    #[test]
    fn insert_and_scan() {
        let mut t = orders();
        let doc = xqdb_xmlparse::parse_document("<order/>").unwrap();
        let id = t
            .insert(vec![SqlValue::Integer(1), SqlValue::Xml(doc.root())])
            .unwrap();
        assert_eq!(id, 0);
        assert_eq!(t.len(), 1);
        let rows: Vec<_> = t.scan().collect::<Result<_, _>>().unwrap();
        assert_eq!(rows.len(), 1);
        assert!(matches!(rows[0].1[0], SqlValue::Integer(1)));
    }

    #[test]
    fn scan_range_matches_full_scan_slices() {
        let mut t = orders();
        for i in 0..5 {
            let doc = xqdb_xmlparse::parse_document("<order/>").unwrap();
            t.insert(vec![SqlValue::Integer(i), SqlValue::Xml(doc.root())]).unwrap();
        }
        let all: Vec<RowId> = t.scan().map(|r| r.unwrap().0).collect();
        let mid: Vec<RowId> = t.scan_range(1, 4).map(|r| r.unwrap().0).collect();
        assert_eq!(mid, all[1..4]);
        // Clamped bounds: past-the-end and inverted ranges are empty/safe.
        assert_eq!(
            t.scan_range(3, 99).map(|r| r.unwrap().0).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert!(t.scan_range(4, 2).next().is_none());
    }

    #[test]
    fn column_lookup_case_insensitive() {
        let t = orders();
        assert_eq!(t.column_index("ORDDOC"), Some(1));
        assert_eq!(t.column_index("orddoc"), Some(1));
        assert_eq!(t.column_index("nope"), None);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = orders();
        let err = t.insert(vec![SqlValue::Integer(1)]).unwrap_err();
        assert_eq!(err.code, ErrorCode::SqlType);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = orders();
        let err = t
            .insert(vec![SqlValue::Varchar("x".into()), SqlValue::Null])
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::SqlType);
    }

    #[test]
    fn rows_survive_tiny_pool_eviction() {
        // 2 frames over hundreds of multi-KiB rows: every scan step evicts.
        let pager = Arc::new(Pager::new_mem(2));
        let mut t = Table::with_pager(
            "big",
            vec![Column::new("id", SqlType::Integer), Column::new("doc", SqlType::Xml)],
            pager,
            1,
        );
        for i in 0..100i64 {
            let xml = format!("<row n=\"{i}\">{}</row>", "payload ".repeat(200));
            let doc = xqdb_xmlparse::parse_document(&xml).unwrap();
            t.insert(vec![SqlValue::Integer(i), SqlValue::Xml(doc.root())]).unwrap();
        }
        let mut seen = 0;
        for item in t.scan() {
            let (id, row) = item.unwrap();
            assert!(matches!(row[0], SqlValue::Integer(n) if n == id as i64));
            seen += 1;
        }
        assert_eq!(seen, 100);
        // Point fetches after a full scan still work (pages re-fault in).
        let row = t.row(42).unwrap().unwrap();
        assert!(matches!(row[0], SqlValue::Integer(42)));
    }

    #[test]
    fn from_pages_rebuilds_directory_and_signatures() {
        let pager = Arc::new(Pager::new_mem(8));
        let cols =
            vec![Column::new("id", SqlType::Integer), Column::new("doc", SqlType::Xml)];
        let mut t = Table::with_pager("t", cols.clone(), Arc::clone(&pager), 5);
        for i in 0..30i64 {
            let doc = xqdb_xmlparse::parse_document(&format!("<d><k{i}/></d>")).unwrap();
            t.insert(vec![SqlValue::Integer(i), SqlValue::Xml(doc.root())]).unwrap();
        }
        let pages = t.heap_pages().to_vec();
        // Reopen keeping only the first 20 rows (as if rows 20.. were
        // post-checkpoint and will be replayed from the WAL suffix), with
        // the path summary a checkpoint at row 20 would have written.
        let summary: Vec<(String, Vec<u64>)> = t
            .path_rows()
            .into_iter()
            .map(|(p, rows)| (p, rows.into_iter().filter(|&r| r < 20).collect::<Vec<_>>()))
            .filter(|(_, rows)| !rows.is_empty())
            .collect();
        let mut r =
            Table::from_pages("t", cols, pager, 5, pages, 20, &[], &[], &summary).unwrap();
        assert_eq!(r.len(), 20);
        assert_eq!(r.xml_docs_parsed(), 0);
        for i in 0..20usize {
            let row = r.row(i).unwrap().unwrap();
            assert!(matches!(row[0], SqlValue::Integer(n) if n == i as i64));
        }
        assert!(r.row(20).unwrap().is_none());
        // The postings survive; the runs were never persisted.
        assert_eq!(r.path_rows(), summary);
        assert!(!r.labels().runs_complete_for(20));
        // Parsing the adopted rows rebuilds the same postings, and runs.
        assert_eq!(r.observe_adopted_rows().unwrap(), 20);
        assert_eq!(r.path_rows(), summary);
        assert!(r.labels().runs_complete_for(20));
        assert!(r.synopsis().stats_complete());
    }

    #[test]
    fn int_cells_follow_insert_delete_and_replace() {
        let mut t = Table::new(
            "t",
            vec![
                Column::new("id", SqlType::Integer),
                Column::new("doc", SqlType::Xml),
                Column::new("n", SqlType::Integer),
            ],
        );
        let row = |i: i64, n: SqlValue| {
            let doc = xqdb_xmlparse::parse_document("<d/>").unwrap();
            vec![SqlValue::Integer(i), SqlValue::Xml(doc.root()), n]
        };
        for i in 0..4 {
            let n = if i == 2 { SqlValue::Null } else { SqlValue::Integer(10 * i) };
            t.insert(row(i, n)).unwrap();
        }
        assert_eq!(t.int_cells(0).unwrap(), &[Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(t.int_cells(2).unwrap(), &[Some(0), Some(10), None, Some(30)]);
        assert!(t.int_cells(1).is_none(), "an XML column has no integer cells");
        t.delete_row(1).unwrap();
        let old = t.row(3).unwrap().unwrap();
        t.replace_row(3, &old, row(7, SqlValue::Integer(-5))).unwrap();
        assert_eq!(t.int_cells(0).unwrap(), &[Some(0), None, Some(2), Some(7)]);
        assert_eq!(t.int_cells(2).unwrap(), &[Some(0), None, None, Some(-5)]);
    }

    fn doc_row(i: i64, xml: &str) -> Vec<SqlValue> {
        let doc = xqdb_xmlparse::parse_document(xml).unwrap();
        vec![SqlValue::Integer(i), SqlValue::Xml(doc.root())]
    }

    #[test]
    fn delete_hides_row_and_decrements_synopsis() {
        let mut t = orders();
        t.insert(doc_row(0, "<order><gone/></order>")).unwrap();
        t.insert(doc_row(1, "<order><kept/></order>")).unwrap();
        let before = t.path_rows().len();
        assert!(t.delete_row(0).unwrap().is_some());
        assert!(t.delete_row(0).unwrap().is_none(), "second delete is an idempotent no-op");
        assert!(t.row(0).unwrap().is_none());
        assert!(t.path_rows().iter().all(|(_, rows)| !rows.contains(&0)));
        assert_eq!(t.len(), 2, "rowid domain keeps the retired id");
        assert_eq!(t.live_len(), 1);
        let seen: Vec<RowId> = t.scan().map(|r| r.unwrap().0).collect();
        assert_eq!(seen, vec![1]);
        // /order/gone left the summary; /order and /order/kept remain.
        assert!(t.path_rows().len() < before);
        // Rebuild oracle: re-inserting the surviving row into a fresh table
        // yields the same paths with the same row counts.
        let mut oracle = orders();
        oracle.insert(doc_row(1, "<order><kept/></order>")).unwrap();
        let counts = |t: &Table| -> Vec<(String, usize)> {
            t.path_rows().into_iter().map(|(p, rows)| (p, rows.len())).collect()
        };
        assert_eq!(counts(&t), counts(&oracle));
    }

    #[test]
    fn replace_swaps_content_under_same_rowid() {
        let mut t = orders();
        t.insert(doc_row(0, "<order><old/></order>")).unwrap();
        t.insert(doc_row(1, "<order/>")).unwrap();
        let old = t.row(0).unwrap().unwrap();
        t.replace_row(0, &old, t.conform_row(doc_row(7, "<order><new/></order>")).unwrap())
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.live_len(), 2);
        let row = t.row(0).unwrap().unwrap();
        assert!(matches!(row[0], SqlValue::Integer(7)));
        // Synopsis matches a from-scratch rebuild of the current contents.
        let mut oracle = orders();
        oracle.insert(doc_row(7, "<order><new/></order>")).unwrap();
        oracle.insert(doc_row(1, "<order/>")).unwrap();
        assert_eq!(t.path_rows(), oracle.path_rows());
        // Replacing a deleted row is refused.
        t.delete_row(1).unwrap();
        assert!(t.replace_row(1, &old, doc_row(9, "<x/>")).is_err());
    }

    #[test]
    fn from_pages_honors_deleted_and_stale_lists() {
        let pager = Arc::new(Pager::new_mem(8));
        let cols =
            vec![Column::new("id", SqlType::Integer), Column::new("doc", SqlType::Xml)];
        let mut t = Table::with_pager("t", cols.clone(), Arc::clone(&pager), 5);
        for i in 0..10i64 {
            t.insert(doc_row(i, &format!("<d><k{i}/></d>"))).unwrap();
        }
        // Freeze everything, then delete row 3 and replace row 5: both hit
        // frozen records, so the delete is logical and the replace marks
        // its old copy stale.
        pager.flush_all().unwrap();
        pager.freeze().unwrap();
        t.delete_row(3).unwrap();
        let old5 = t.row(5).unwrap().unwrap();
        t.replace_row(5, &old5, t.conform_row(doc_row(55, "<d><new5/></d>")).unwrap()).unwrap();
        pager.flush_all().unwrap();
        pager.freeze().unwrap();
        let deleted: Vec<u64> = t.deleted_rows().collect();
        let stale: Vec<(u64, Option<PageId>)> = t.stale_rows().collect();
        assert_eq!(deleted, vec![3]);
        assert_eq!(stale.iter().map(|s| s.0).collect::<Vec<_>>(), vec![5]);
        let pages = t.heap_pages().to_vec();
        let r = Table::from_pages(
            "t",
            cols.clone(),
            Arc::clone(&pager),
            5,
            pages.clone(),
            10,
            &deleted,
            &stale,
            &t.path_rows(),
        )
        .unwrap();
        assert!(r.row(3).unwrap().is_none(), "deleted row stays deleted");
        let row5 = r.row(5).unwrap().unwrap();
        assert!(matches!(row5[0], SqlValue::Integer(55)), "newest copy wins");
        assert_eq!(r.live_len(), 9);
        for i in [0usize, 4, 9] {
            assert!(r.row(i).unwrap().is_some());
        }
        // The in-memory cells come back from the records: NULL for the
        // deleted row, the replacement's value for the stale one.
        let cells = r.int_cells(0).unwrap();
        assert_eq!(cells.len(), 10);
        assert_eq!(cells[3], None);
        assert_eq!(cells[5], Some(55));
        assert_eq!(cells, t.int_cells(0).unwrap());
        // Without the stale annotation the duplicate rowid is corruption.
        let err =
            Table::from_pages("t", cols, pager, 5, pages, 10, &deleted, &[], &[]).unwrap_err();
        assert!(err.to_string().contains("not marked stale"), "{err}");
    }
}
