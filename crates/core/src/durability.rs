//! Durability: the mapping between engine state and the write-ahead log.
//!
//! `xqdb-wal` knows only records, frames, segments and manifests; this
//! module gives those records meaning. [`Durability`] implements the
//! storage layer's [`PersistenceHook`] so every catalog mutation is
//! appended to the log **before** it is applied. A checkpoint flushes the
//! dirty pages of the shared page file (`pages.xqp`), freezes them, writes
//! the metadata manifest and cuts the log; [`recover_catalog`] then adopts
//! the checkpointed rows straight from heap pages (a record-header scan),
//! bulk-loads each index from the key snapshot the manifest carries, and
//! replays only the WAL *suffix* through the ordinary DDL/DML code paths.
//!
//! Correctness is judged by the paper's Definition 1 oracle: a recovered
//! catalog must answer every query byte-identically to an in-memory
//! catalog that executed the same durable prefix of statements. The
//! chaos-recovery matrix in `tests/chaos_recovery.rs` asserts exactly
//! that, across crash points, fsync modes and injected faults.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xqdb_obs::{Counter, Obs, Trace};
use xqdb_pager::{buffer_pages_from_env, discover_heap_pages, frozen_heap_pages, Pager};
use xqdb_storage::{Column, Database, PersistenceHook, SqlType, SqlValue, Table};
use xqdb_wal::{
    load_manifest, replay, write_manifest, CrashInjector, IndexSnapshot, Manifest, ManifestTable,
    WalConfig, WalRecord, WalValue, WalWriter,
};
use xqdb_xdm::XdmError;

use crate::catalog::Catalog;

/// The page file's name within a data directory (next to the WAL
/// segments and the checkpoint manifest).
pub const PAGES_FILE: &str = "pages.xqp";

// ------------------------------------------------------- value conversion

/// Encode a stored value for the log. Lossless for everything the engine
/// stores: doubles keep their exact bits, temporal values round-trip
/// through their lexical form, XML documents through serialization.
fn to_wal_value(v: &SqlValue) -> WalValue {
    match v {
        SqlValue::Null => WalValue::Null,
        SqlValue::Integer(i) => WalValue::Integer(*i),
        SqlValue::Double(d) => WalValue::Double(*d),
        SqlValue::Varchar(s) => WalValue::Varchar(s.clone()),
        SqlValue::Date(d) => WalValue::Date(d.to_string()),
        SqlValue::Timestamp(t) => WalValue::Timestamp(t.to_string()),
        SqlValue::Xml(n) => WalValue::Xml(xqdb_xmlparse::serialize_node(n)),
    }
}

/// Decode a logged value back into a stored value. XML text is re-parsed
/// into a fresh document tree (node identity is not durable — only
/// content is, which is all Definition 1 observes).
fn from_wal_value(v: &WalValue) -> Result<SqlValue, XdmError> {
    Ok(match v {
        WalValue::Null => SqlValue::Null,
        WalValue::Integer(i) => SqlValue::Integer(*i),
        WalValue::Double(d) => SqlValue::Double(*d),
        WalValue::Varchar(s) => SqlValue::Varchar(s.clone()),
        WalValue::Date(s) => SqlValue::Date(xqdb_xdm::Date::parse(s)?),
        WalValue::Timestamp(s) => SqlValue::Timestamp(xqdb_xdm::DateTime::parse(s)?),
        WalValue::Xml(s) => {
            let doc = xqdb_xmlparse::parse_document(s).map_err(|e| {
                XdmError::wal_corrupt(format!("logged XML document no longer parses: {e}"))
            })?;
            SqlValue::Xml(doc.root())
        }
    })
}

// ------------------------------------------------------------ the hook

/// The persistence hook: owns the [`WalWriter`] and appends one logical
/// record per mutation. Installed on a [`Catalog`]'s database as an
/// `Arc<dyn PersistenceHook>`; an append failure vetoes the mutation, so
/// in-memory state never runs ahead of the log.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    writer: Mutex<WalWriter>,
    /// Observability handle; swapped when the session's handle changes.
    obs: Mutex<Obs>,
}

/// A poisoned lock means a panic mid-append — the writer state is suspect,
/// so refuse further work with a typed error instead of unwrapping.
fn lock_err(what: &str) -> XdmError {
    XdmError::internal(format!("durability {what} lock poisoned by an earlier panic"))
}

impl Durability {
    /// Open (or create) the log in `dir`, continuing after `last_seq` (the
    /// highest sequence a preceding [`recover_catalog`] returned; 0 for a
    /// fresh directory).
    pub fn open(dir: &Path, config: WalConfig, last_seq: u64) -> Result<Durability, XdmError> {
        let writer = WalWriter::open(dir, config, last_seq)?;
        Ok(Durability {
            dir: dir.to_path_buf(),
            writer: Mutex::new(writer),
            obs: Mutex::new(Obs::disabled()),
        })
    }

    /// The data directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Swap the observability handle (sessions install theirs on attach).
    pub fn set_obs(&self, obs: Obs) {
        if let Ok(mut slot) = self.obs.lock() {
            *slot = obs;
        }
    }

    /// Arm (or disarm) deterministic crash simulation on the writer.
    pub fn set_crash_injector(&self, crash: Option<CrashInjector>) -> Result<(), XdmError> {
        self.writer.lock().map_err(|_| lock_err("writer"))?.set_crash_injector(crash);
        Ok(())
    }

    /// Flush any batched appends to the OS (and disk, per the fsync mode).
    pub fn flush(&self) -> Result<(), XdmError> {
        self.writer.lock().map_err(|_| lock_err("writer"))?.flush()
    }

    fn append(&self, rec: &WalRecord) -> Result<(), XdmError> {
        let (_seq, bytes) =
            self.writer.lock().map_err(|_| lock_err("writer"))?.append(rec)?;
        if let Ok(obs) = self.obs.lock() {
            obs.incr(Counter::WalRecordsAppended);
            obs.add(Counter::WalBytes, bytes);
        }
        Ok(())
    }

    /// Checkpoint: flush the log, reclaim tombstoned heap records from
    /// still-mutable pages, relocate the live records of sparse frozen
    /// pages, flush every dirty page and freeze the page file, write the
    /// metadata manifest, free the vacated pages, then cut the log —
    /// rotate, append a [`WalRecord::Checkpoint`] marker and prune the
    /// covered segments.
    ///
    /// Reclamation runs before the freeze so frozen pages never carry
    /// tombstones; dead records on frozen pages (logical deletes and
    /// pre-REPLACE copies, described by the manifest's deleted/stale
    /// lists) are reclaimed by relocation once their page falls below
    /// half full. Relocated records are copied verbatim and the vacated
    /// pages keep their bytes until the new manifest — which lists them as
    /// free — is durable: a crash before it recovers from the old
    /// manifest, whose pages are untouched. Apart from relocations no live
    /// row is re-serialized, and each index is written as its keys in tree
    /// order, so a checkpoint costs O(dirty pages + index entries) rather
    /// than O(database). Returns the covered sequence (0 when the log is
    /// still empty — nothing to checkpoint).
    pub fn checkpoint(&self, catalog: &mut Catalog) -> Result<u64, XdmError> {
        let mut writer = self.writer.lock().map_err(|_| lock_err("writer"))?;
        writer.flush()?;
        let covers = writer.next_seq().saturating_sub(1);
        if covers == 0 {
            return Ok(0);
        }
        let names: Vec<String> =
            catalog.db.table_names().into_iter().map(String::from).collect();
        let mut reclaimed = 0u64;
        for name in &names {
            if let Some(t) = catalog.db.table_mut(name) {
                reclaimed += t.reclaim_tombstones()?;
                t.relocate_sparse_pages()?;
            }
        }
        if let Ok(obs) = self.obs.lock() {
            obs.add(Counter::TombstonesReclaimed, reclaimed);
        }
        let pager = catalog.db.pager();
        let frozen_below = pager.freeze()?;
        write_manifest(&self.dir, &build_manifest(catalog, covers, frozen_below))?;
        pager.release_vacated()?;
        writer.rotate()?;
        writer.append(&WalRecord::Checkpoint { covers })?;
        writer.prune(covers)?;
        Ok(covers)
    }
}

/// Collect the checkpoint metadata pages don't carry: table DDL + heap
/// table ids + row counts + path summaries, the free page ids below
/// the watermark, and each index's DDL with a snapshot of its keys.
fn build_manifest(catalog: &Catalog, covers: u64, frozen_below: u64) -> Manifest {
    let mut tables = Vec::new();
    for name in catalog.db.table_names() {
        let Some(t) = catalog.db.table(name) else { continue };
        tables.push(ManifestTable {
            name: t.name.clone(),
            table_id: t.table_id(),
            columns: t.columns.iter().map(|c| (c.name.clone(), c.ty.to_string())).collect(),
            row_count: t.len() as u64,
            paths: Some(t.path_rows()),
            deleted: t.deleted_rows().collect(),
            stale: t.stale_rows().collect(),
        });
    }
    let mut indexes = Vec::new();
    let mut snapshots = Vec::new();
    for idx in catalog.all_indexes() {
        indexes.push(WalRecord::CreateIndex {
            name: idx.name.clone(),
            table: idx.table.clone(),
            column: idx.column.clone(),
            pattern: idx.pattern.to_string(),
            ty: idx.ty.to_string(),
        });
        let mut snap =
            IndexSnapshot { skipped_nodes: idx.skipped_nodes as u64, ..IndexSnapshot::default() };
        for key in idx.keys() {
            snap.push(&key);
        }
        snapshots.push(snap);
    }
    let free_pages = catalog.db.pager().thawed();
    Manifest { covers, frozen_below, tables, indexes, snapshots, free_pages }
}

impl PersistenceHook for Durability {
    fn log_create_table(&self, table: &Table) -> Result<(), XdmError> {
        self.append(&WalRecord::CreateTable {
            name: table.name.clone(),
            columns: table
                .columns
                .iter()
                .map(|c| (c.name.clone(), c.ty.to_string()))
                .collect(),
        })
    }

    fn log_insert(&self, table: &str, row: &[SqlValue]) -> Result<(), XdmError> {
        self.append(&WalRecord::Insert {
            table: table.to_string(),
            values: row.iter().map(to_wal_value).collect(),
        })
    }

    fn log_delete(&self, table: &str, rowids: &[u64]) -> Result<(), XdmError> {
        self.append(&WalRecord::Delete {
            table: table.to_string(),
            rowids: rowids.to_vec(),
        })
    }

    fn log_replace(&self, table: &str, rowid: u64, row: &[SqlValue]) -> Result<(), XdmError> {
        self.append(&WalRecord::Replace {
            table: table.to_string(),
            rowid,
            values: row.iter().map(to_wal_value).collect(),
        })
    }

    fn log_create_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
        pattern: &str,
        ty: &str,
    ) -> Result<(), XdmError> {
        self.append(&WalRecord::CreateIndex {
            name: name.to_string(),
            table: table.to_string(),
            column: column.to_string(),
            pattern: pattern.to_string(),
            ty: ty.to_string(),
        })
    }
}

// ---------------------------------------------------- snapshot and replay

/// Dump a catalog as the minimal record sequence that rebuilds it:
/// table DDL (name order), then every row (table order, row order), then
/// index DDL last — so replayed `CREATE INDEX` back-fills from the full
/// row set, exactly like a live one. Legacy snapshot format — live
/// checkpoints write manifests instead, but replay still accepts
/// snapshot files from older data directories. Deleted rows are compacted
/// away (survivors renumber), which is content-faithful only because a
/// snapshot is a full-state dump: legacy directories predate DML, so no
/// WAL suffix can reference the old rowids.
pub fn snapshot_records(catalog: &Catalog) -> Result<Vec<WalRecord>, XdmError> {
    let mut out = Vec::new();
    let names: Vec<String> =
        catalog.db.table_names().into_iter().map(String::from).collect();
    for name in &names {
        let Some(t) = catalog.db.table(name) else { continue };
        out.push(WalRecord::CreateTable {
            name: t.name.clone(),
            columns: t.columns.iter().map(|c| (c.name.clone(), c.ty.to_string())).collect(),
        });
    }
    for name in &names {
        let Some(t) = catalog.db.table(name) else { continue };
        for item in t.scan() {
            let (_row, values) = item?;
            out.push(WalRecord::Insert {
                table: t.name.clone(),
                values: values.iter().map(to_wal_value).collect(),
            });
        }
    }
    for idx in catalog.all_indexes() {
        out.push(WalRecord::CreateIndex {
            name: idx.name.clone(),
            table: idx.table.clone(),
            column: idx.column.clone(),
            pattern: idx.pattern.to_string(),
            ty: idx.ty.to_string(),
        });
    }
    Ok(out)
}

/// Apply one logged record through the ordinary catalog code paths.
fn apply_record(catalog: &mut Catalog, rec: &WalRecord) -> Result<(), XdmError> {
    match rec {
        WalRecord::CreateTable { name, columns } => {
            let mut cols = Vec::with_capacity(columns.len());
            for (cname, cty) in columns {
                cols.push(Column::new(cname, SqlType::parse(cty)?));
            }
            catalog.create_table(Table::new(name, cols))
        }
        WalRecord::CreateIndex { name, table, column, pattern, ty } => {
            catalog.create_index(name, table, column, pattern, ty)
        }
        WalRecord::Insert { table, values } => {
            let mut row = Vec::with_capacity(values.len());
            for v in values {
                row.push(from_wal_value(v)?);
            }
            catalog.insert(table, row).map(|_| ())
        }
        WalRecord::Delete { table, rowids } => catalog.delete(table, rowids).map(|_| ()),
        WalRecord::Replace { table, rowid, values } => {
            let mut row = Vec::with_capacity(values.len());
            for v in values {
                row.push(from_wal_value(v)?);
            }
            catalog.replace(table, *rowid, row)
        }
        // Checkpoint markers mutate nothing; recovery counts them to
        // verify the suffix-only property.
        WalRecord::Checkpoint { .. } => Ok(()),
    }
}

/// What recovery found and rebuilt — the `xqdb recover` report.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Sequence the loaded snapshot covers (0: recovered from the log alone).
    pub snapshot_covers: u64,
    /// Records applied from the snapshot.
    pub snapshot_records: usize,
    /// Sequence the checkpoint manifest covers (0: no manifest — no paged
    /// checkpoint has run in this directory yet).
    pub manifest_covers: u64,
    /// Tables adopted from the page file via the manifest.
    pub manifest_tables: usize,
    /// Rows adopted directly from heap pages (a header scan, no XML
    /// parsing and no replay).
    pub manifest_rows: usize,
    /// Checkpoint markers found in the log suffix (skipped, not applied).
    pub checkpoint_markers: u64,
    /// Records applied from log segments after the snapshot/manifest cover
    /// (suffix-only when a checkpoint ran: excludes markers).
    pub wal_records_replayed: u64,
    /// True when the page file had a torn trailing page (trimmed away; the
    /// WAL suffix re-creates whatever it held).
    pub page_file_torn: bool,
    /// Torn tails truncated away (crash artifacts, self-healed).
    pub torn_tail_truncations: u64,
    /// Segment files scanned.
    pub segments_scanned: usize,
    /// Highest sequence recovered; the writer continues from here.
    pub last_seq: u64,
    /// Wall-clock recovery time.
    pub duration_ns: u64,
    /// Tables in the rebuilt catalog.
    pub tables: usize,
    /// Rows across all tables.
    pub rows: usize,
    /// Indexes recovered (bulk-loaded from the manifest's snapshots, or
    /// rebuilt by back-fill).
    pub indexes: usize,
    /// Stored XML documents parsed while recovering (index back-fills, the
    /// adopted rows of a manifest older than `XQMANIF3`, and the row reads
    /// of replayed DML; 0 when every index had a snapshot, the manifest a
    /// path summary, and the log suffix is empty).
    pub xml_docs_parsed: u64,
}

impl RecoveryReport {
    /// Human-readable rendering for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::from("RECOVERY\n");
        if self.manifest_covers > 0 {
            out.push_str(&format!(
                "  checkpoint: manifest covers seq {} ({} table(s), {} row(s) from pages)\n",
                self.manifest_covers, self.manifest_tables, self.manifest_rows
            ));
        } else if self.snapshot_covers > 0 {
            out.push_str(&format!(
                "  snapshot: covers seq {} ({} records)\n",
                self.snapshot_covers, self.snapshot_records
            ));
        } else {
            out.push_str("  checkpoint: none (full log replay)\n");
        }
        out.push_str(&format!(
            "  wal: {} record(s) replayed from {} segment(s)\n",
            self.wal_records_replayed, self.segments_scanned
        ));
        if self.checkpoint_markers > 0 {
            out.push_str(&format!(
                "  checkpoint markers skipped: {}\n",
                self.checkpoint_markers
            ));
        }
        if self.page_file_torn {
            out.push_str("  warning: torn trailing page trimmed from the page file\n");
        }
        if self.torn_tail_truncations > 0 {
            out.push_str(&format!(
                "  warning: {} torn tail(s) truncated (unsynced writes lost in a crash)\n",
                self.torn_tail_truncations
            ));
        }
        out.push_str(&format!("  last sequence: {}\n", self.last_seq));
        out.push_str(&format!(
            "  rebuilt: {} table(s), {} row(s), {} index(es) in {:.3} ms\n",
            self.tables,
            self.rows,
            self.indexes,
            self.duration_ns as f64 / 1e6
        ));
        out.push_str(&format!("  xml docs parsed: {}\n", self.xml_docs_parsed));
        out
    }
}

/// Page usage as of a directory's newest checkpoint (the `xqdb pages`
/// report).
#[derive(Debug, Clone, Default)]
pub struct CheckpointPages {
    /// The freeze watermark.
    pub frozen_below: u64,
    /// Free-listed page ids below it (free or vacated at the checkpoint;
    /// recovery discards them), ascending.
    pub free_pages: Vec<u64>,
    /// Per checkpointed table: its heap pages below the watermark.
    pub tables: Vec<TablePages>,
}

/// One table's frozen heap pages (see [`CheckpointPages`]).
#[derive(Debug, Clone)]
pub struct TablePages {
    /// Table name.
    pub name: String,
    /// Heap table id.
    pub table_id: u32,
    /// Heap pages below the watermark and off the free list.
    pub pages: usize,
    /// Bytes of records and slot entries on them.
    pub used_bytes: u64,
    /// The part of `used_bytes` that holds live rows; the rest is dead
    /// space a checkpoint relocates away once a page is under half full.
    pub live_bytes: u64,
}

/// Read `dir`'s checkpoint manifest and adopt each checkpointed table
/// from the frozen heap pages behind `pager`, the same record-header scan
/// recovery runs — but nothing is discarded, replayed or written, and the
/// manifest's temporary file is left alone, so a directory a server has
/// open can be inspected. `Ok(None)` when no checkpoint has run yet.
pub fn checkpoint_pages(
    dir: &Path,
    pager: &Arc<Pager>,
) -> Result<Option<CheckpointPages>, XdmError> {
    let Some(manifest) = load_manifest(dir)? else { return Ok(None) };
    let mut free_pages = manifest.free_pages.clone();
    free_pages.sort_unstable();
    let mut heap_pages = frozen_heap_pages(pager, manifest.frozen_below, &free_pages)?;
    let mut tables = Vec::with_capacity(manifest.tables.len());
    for mt in &manifest.tables {
        let mut cols = Vec::with_capacity(mt.columns.len());
        for (cn, ct) in &mt.columns {
            cols.push(Column::new(cn, SqlType::parse(ct)?));
        }
        let pages = heap_pages.remove(&mt.table_id).unwrap_or_default();
        let table = Table::from_pages(
            &mt.name,
            cols,
            Arc::clone(pager),
            mt.table_id,
            pages,
            mt.row_count,
            &mt.deleted,
            &mt.stale,
            mt.paths.as_deref().unwrap_or_default(),
        )?;
        tables.push(TablePages {
            name: table.name.clone(),
            table_id: mt.table_id,
            pages: table.heap_pages().len(),
            used_bytes: table.used_bytes(),
            live_bytes: table.live_bytes(),
        });
    }
    Ok(Some(CheckpointPages { frozen_below: manifest.frozen_below, free_pages, tables }))
}

/// Rebuild a catalog from a data directory. The span tree lands under a
/// `recovery` span on `trace`; counters on `obs`.
pub fn recover_catalog(
    dir: &Path,
    trace: &Trace,
    obs: &Obs,
) -> Result<(Catalog, RecoveryReport), XdmError> {
    let t0 = Instant::now();
    let mut root = trace.span("recovery");

    let recovered = {
        let mut span = root.child("scan log");
        let r = replay(dir)?;
        span.add_count(r.wal_records.len() as u64);
        span.tag_with("segments", || r.segments_scanned.to_string());
        r
    };

    // Open the page file under the manifest's freeze watermark: everything
    // below it is immutable checkpointed state; anything damaged above it
    // is a crash artifact the WAL suffix re-creates.
    let frozen_below = recovered.manifest.as_ref().map_or(0, |m| m.frozen_below);
    let (pager, page_file_torn) = {
        let mut span = root.child("open pages");
        std::fs::create_dir_all(dir).map_err(|e| {
            XdmError::storage_fault(format!("create {}: {e}", dir.display()))
        })?;
        let (p, torn) =
            Pager::open_file(&dir.join(PAGES_FILE), buffer_pages_from_env(), frozen_below)?;
        // Drop every page above the watermark before discovery, intact or
        // not: the WAL suffix re-creates that state, and replaying next to
        // a stale partially-flushed copy would duplicate live rowids. The
        // manifest's free pages below the watermark go with them: they
        // were vacated or free at the checkpoint, and anything written to
        // them since is post-checkpoint state too.
        if let Some(m) = &recovered.manifest {
            p.thaw(&m.free_pages);
        }
        let dropped = p.discard_unfrozen()?;
        span.tag_with("pages", || p.page_count().to_string());
        span.tag_with("discarded", || dropped.to_string());
        (Arc::new(p), torn)
    };

    let mut catalog = Catalog::new();
    catalog.obs = obs.clone();
    catalog.db = Database::with_pager(Arc::clone(&pager));

    // Manifest path: adopt checkpointed tables straight from heap pages (a
    // record-header scan — no XML parsing, no replay) with their path
    // summaries, then bulk-load each index from its key snapshot (an
    // `XQMANIF1` manifest has none: those indexes are rebuilt by back-fill,
    // exactly like a live CREATE INDEX).
    let (mut manifest_tables, mut manifest_rows) = (0usize, 0usize);
    if let Some(manifest) = &recovered.manifest {
        let mut span = root.child("adopt pages");
        let mut heap_pages = discover_heap_pages(&pager)?;
        for mt in &manifest.tables {
            let mut cols = Vec::with_capacity(mt.columns.len());
            for (cn, ct) in &mt.columns {
                cols.push(Column::new(cn, SqlType::parse(ct)?));
            }
            let pages = heap_pages.remove(&mt.table_id).unwrap_or_default();
            let mut table = Table::from_pages(
                &mt.name,
                cols,
                Arc::clone(&pager),
                mt.table_id,
                pages,
                mt.row_count,
                &mt.deleted,
                &mt.stale,
                mt.paths.as_deref().unwrap_or_default(),
            )?;
            if mt.paths.is_none() {
                // No path summary before `XQMANIF3`: parse the rows once.
                table.observe_adopted_rows()?;
            }
            manifest_tables += 1;
            manifest_rows += table.live_len();
            catalog.db.adopt_recovered_table(table)?;
        }
        span.add_count(manifest_rows as u64);
        drop(span);
        let mut span = root.child("load indexes");
        for (i, rec) in manifest.indexes.iter().enumerate() {
            match (rec, manifest.snapshots.get(i)) {
                (WalRecord::CreateIndex { name, table, column, pattern, ty }, Some(snap)) => {
                    let skipped = usize::try_from(snap.skipped_nodes).unwrap_or(usize::MAX);
                    catalog.load_index(name, table, column, pattern, ty, snap.keys(), skipped)?;
                }
                _ => apply_record(&mut catalog, rec)?,
            }
        }
        span.add_count(catalog.all_indexes().iter().map(|idx| idx.len() as u64).sum());
    }

    {
        let mut span = root.child("apply snapshot");
        for rec in &recovered.snapshot_records {
            apply_record(&mut catalog, rec)?;
        }
        span.add_count(recovered.snapshot_records.len() as u64);
    }
    let mut checkpoint_markers = 0u64;
    let mut replayed = 0u64;
    {
        let mut span = root.child("replay wal");
        for (_seq, rec) in &recovered.wal_records {
            if matches!(rec, WalRecord::Checkpoint { .. }) {
                checkpoint_markers += 1;
                continue;
            }
            apply_record(&mut catalog, rec)?;
            replayed += 1;
        }
        span.add_count(replayed);
    }

    let duration_ns =
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    obs.add(Counter::WalRecordsReplayed, replayed);
    obs.add(Counter::TornTailTruncations, recovered.torn_tail_truncations);
    obs.add(Counter::RecoveryNanos, duration_ns);
    root.add_count(replayed);

    let tables = catalog.db.table_names().len();
    let rows = catalog
        .db
        .table_names()
        .iter()
        .filter_map(|n| catalog.db.table(n))
        .map(Table::live_len)
        .sum();
    let report = RecoveryReport {
        snapshot_covers: recovered.snapshot_covers,
        snapshot_records: recovered.snapshot_records.len(),
        manifest_covers: recovered.manifest.as_ref().map_or(0, |m| m.covers),
        manifest_tables,
        manifest_rows,
        checkpoint_markers,
        wal_records_replayed: replayed,
        page_file_torn,
        torn_tail_truncations: recovered.torn_tail_truncations,
        segments_scanned: recovered.segments_scanned,
        last_seq: recovered.last_seq,
        duration_ns,
        tables,
        rows,
        indexes: catalog.all_indexes().len(),
        xml_docs_parsed: catalog.db.xml_docs_parsed(),
    };
    Ok((catalog, report))
}

/// Open a data directory as a durable catalog: recover whatever is there,
/// then attach a fresh [`Durability`] hook continuing the sequence. The
/// common entry point for sessions and tests.
pub fn open_durable_catalog(
    dir: &Path,
    config: WalConfig,
    trace: &Trace,
    obs: &Obs,
) -> Result<(Catalog, Arc<Durability>, RecoveryReport), XdmError> {
    let (mut catalog, report) = recover_catalog(dir, trace, obs)?;
    let durability = Arc::new(Durability::open(dir, config, report.last_seq)?);
    durability.set_obs(obs.clone());
    catalog.db.set_persistence(Some(durability.clone()));
    Ok((catalog, durability, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh data directory path under `target/test-tmp`, removed when
    /// the guard drops — unless the thread is panicking, so a failing test
    /// keeps its files for inspection.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(label: &str) -> TempDir {
            static N: AtomicU64 = AtomicU64::new(0);
            let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/test-tmp"))
                .join(format!(
                    "{label}_{}_{}",
                    std::process::id(),
                    N.fetch_add(1, Ordering::Relaxed)
                ));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TempDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    fn temp_dir(label: &str) -> TempDir {
        TempDir::new(&format!("dur_{label}"))
    }

    fn open(dir: &Path) -> (Catalog, Arc<Durability>, RecoveryReport) {
        open_durable_catalog(
            dir,
            WalConfig::default(),
            &Trace::disabled(),
            &Obs::disabled(),
        )
        .unwrap()
    }

    fn populate(catalog: &mut Catalog) {
        catalog
            .create_table(Table::new(
                "orders",
                vec![
                    Column::new("ordid", SqlType::Integer),
                    Column::new("orddoc", SqlType::Xml),
                ],
            ))
            .unwrap();
        for i in 0..4 {
            let doc = xqdb_xmlparse::parse_document(&format!(
                r#"<order><lineitem price="{}"/></order>"#,
                100 + i
            ))
            .unwrap();
            catalog
                .insert("orders", vec![SqlValue::Integer(i), SqlValue::Xml(doc.root())])
                .unwrap();
        }
        catalog
            .create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
            .unwrap();
    }

    #[test]
    fn log_apply_recover_roundtrip() {
        let dir = temp_dir("roundtrip");
        {
            let (mut catalog, durability, report) = open(&dir);
            assert_eq!(report.last_seq, 0);
            populate(&mut catalog);
            durability.flush().unwrap();
        }
        let (catalog, _d, report) = open(&dir);
        assert_eq!(report.wal_records_replayed, 6); // 1 DDL + 4 rows + 1 index
        assert_eq!(report.tables, 1);
        assert_eq!(report.rows, 4);
        assert_eq!(report.indexes, 1);
        // The index was rebuilt by back-fill, not read from disk.
        assert_eq!(catalog.index("li_price").unwrap().len(), 4);
    }

    #[test]
    fn checkpoint_bounds_replay_and_prunes() {
        let dir = temp_dir("checkpoint");
        {
            let (mut catalog, durability, _) = open(&dir);
            populate(&mut catalog);
            let covers = durability.checkpoint(&mut catalog).unwrap();
            assert_eq!(covers, 6);
            // One more row after the checkpoint.
            let doc = xqdb_xmlparse::parse_document("<order/>").unwrap();
            catalog
                .insert("orders", vec![SqlValue::Integer(9), SqlValue::Xml(doc.root())])
                .unwrap();
            durability.flush().unwrap();
        }
        let (catalog, _d, report) = open(&dir);
        assert_eq!(report.snapshot_covers, 0, "paged checkpoints write no snapshot");
        assert_eq!(report.manifest_covers, 6);
        assert_eq!(report.manifest_tables, 1);
        assert_eq!(report.manifest_rows, 4, "checkpointed rows come from pages");
        assert_eq!(report.checkpoint_markers, 1);
        assert_eq!(report.wal_records_replayed, 1, "suffix-only replay");
        assert_eq!(report.rows, 5);
        assert_eq!(catalog.index("li_price").unwrap().len(), 4);
    }

    #[test]
    fn empty_checkpoint_is_a_noop() {
        let dir = temp_dir("empty_ckpt");
        let (mut catalog, durability, _) = open(&dir);
        assert_eq!(durability.checkpoint(&mut catalog).unwrap(), 0);
        let (_, _, report) = open(&dir);
        assert_eq!(report.snapshot_covers, 0);
        assert_eq!(report.manifest_covers, 0);
        assert_eq!(report.last_seq, 0);
    }

    #[test]
    fn repeated_checkpoints_keep_suffix_replay_exact() {
        let dir = temp_dir("re_ckpt");
        {
            let (mut catalog, durability, _) = open(&dir);
            populate(&mut catalog);
            durability.checkpoint(&mut catalog).unwrap();
            for i in 10..13 {
                let doc = xqdb_xmlparse::parse_document(&format!(
                    r#"<order><lineitem price="{i}"/></order>"#
                ))
                .unwrap();
                catalog
                    .insert("orders", vec![SqlValue::Integer(i), SqlValue::Xml(doc.root())])
                    .unwrap();
            }
            durability.checkpoint(&mut catalog).unwrap();
            durability.flush().unwrap();
        }
        let (catalog, _d, report) = open(&dir);
        assert_eq!(report.manifest_rows, 7);
        assert_eq!(report.wal_records_replayed, 0, "second checkpoint covers everything");
        assert_eq!(report.checkpoint_markers, 1, "only the newest marker survives pruning");
        assert_eq!(report.rows, 7);
        assert_eq!(catalog.index("li_price").unwrap().len(), 7);
        let t = catalog.db.table("orders").unwrap();
        let (_rid, row) = t.scan().nth(5).unwrap().unwrap();
        assert!(matches!(row[0], SqlValue::Integer(11)));
    }

    #[test]
    fn wal_values_roundtrip_through_conversion() {
        let doc = xqdb_xmlparse::parse_document(r#"<a b="1">t&amp;x</a>"#).unwrap();
        let vals = vec![
            SqlValue::Null,
            SqlValue::Integer(-7),
            SqlValue::Double(0.1 + 0.2), // bit-exact through to_bits
            SqlValue::Varchar("abc  ".into()),
            SqlValue::Date(xqdb_xdm::Date::parse("2006-09-12").unwrap()),
            SqlValue::Timestamp(xqdb_xdm::DateTime::parse("2006-09-12T10:00:00").unwrap()),
            SqlValue::Xml(doc.root()),
        ];
        for v in &vals {
            let back = from_wal_value(&to_wal_value(v)).unwrap();
            match (v, &back) {
                (SqlValue::Double(a), SqlValue::Double(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits())
                }
                (SqlValue::Xml(a), SqlValue::Xml(b)) => assert_eq!(
                    xqdb_xmlparse::serialize_node(a),
                    xqdb_xmlparse::serialize_node(b)
                ),
                (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            }
        }
    }
}
