//! Rebuild-oracle verification of derived state.
//!
//! DELETE and REPLACE maintain four derived structures incrementally —
//! B+Tree index entries, the per-table path synopsis, the path postings
//! and twig-join label runs, and the in-memory INTEGER cells of the scalar
//! filter. The contract for every one of them is
//! *rebuild equality*: the incrementally-maintained structure must hold
//! exactly what a from-scratch rebuild over the surviving rows would
//! produce. [`verify_derived_state`] checks that contract, and the
//! chaos/property suites run it after every recovery and every random
//! interleaving.
//!
//! The pass streams: one walk over a table's live rows feeds every
//! rebuild at once, and each row's documents are dropped before the next
//! row is decoded, so its memory follows the rebuilt state (index keys,
//! synopsis, postings, runs when they are compared), never the table's
//! documents.
//!
//! Mismatches are **verdicts**, not errors: the pass inspects as much as
//! it can, collects every discrepancy it finds, and only returns `Err`
//! when the storage layer itself fails (a page fault mid-scan). It never
//! panics on inconsistent state — `xqdb verify` runs it against
//! arbitrary on-disk directories.

use std::collections::{BTreeMap, BTreeSet};

use xqdb_storage::{observe_document_labeled, PathSynopsis, SqlType, SqlValue, Table, ValueStats};
use xqdb_twig::{LabelEntry, LabelStore};
use xqdb_xdm::XdmError;

use xqdb_xmlindex::XmlIndex;

use crate::catalog::Catalog;

/// Verification outcome for one table (indexes on the table included).
#[derive(Debug)]
pub struct TableVerdict {
    /// Table name.
    pub table: String,
    /// Live rows inspected.
    pub rows: usize,
    /// Every discrepancy found (empty = the table verified clean).
    pub issues: Vec<String>,
}

impl TableVerdict {
    /// True if no discrepancy was found.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// The full report of a [`verify_derived_state`] pass.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Per-table verdicts, sorted by table name.
    pub tables: Vec<TableVerdict>,
}

impl VerifyReport {
    /// True if every table verified clean.
    pub fn is_clean(&self) -> bool {
        self.tables.iter().all(TableVerdict::is_clean)
    }

    /// Total discrepancies across all tables.
    pub fn issue_count(&self) -> usize {
        self.tables.iter().map(|t| t.issues.len()).sum()
    }

    /// Render per-table verdicts, `xqdb verify`'s output format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            if t.is_clean() {
                out.push_str(&format!("table {}: OK ({} live row(s))\n", t.table, t.rows));
            } else {
                out.push_str(&format!(
                    "table {}: {} issue(s) over {} live row(s)\n",
                    t.table,
                    t.issues.len(),
                    t.rows
                ));
                for issue in &t.issues {
                    out.push_str(&format!("  - {issue}\n"));
                }
            }
        }
        out
    }
}

/// Verify every table's derived state against a from-scratch rebuild over
/// its live rows: path postings, value statistics (when complete), label
/// runs (when the store keeps every row's), in-memory INTEGER cells, index
/// keys and skip counters, and the live-row bookkeeping itself.
pub fn verify_derived_state(catalog: &Catalog) -> Result<VerifyReport, XdmError> {
    let mut report = VerifyReport::default();
    let mut names: Vec<String> =
        catalog.db.table_names().into_iter().map(str::to_string).collect();
    names.sort();
    for name in names {
        report.tables.push(verify_table(catalog, &name)?);
    }
    Ok(report)
}

fn verify_table(catalog: &Catalog, name: &str) -> Result<TableVerdict, XdmError> {
    let t = catalog
        .db
        .table(name)
        .ok_or_else(|| XdmError::internal(format!("table {name} vanished during verify")))?;
    let mut issues = Vec::new();

    // One pass over the live rows rebuilds everything at once, in rowid
    // order — the order ingest observed them in. Postings are always
    // rebuilt; runs only when the store claims every row's run, the one
    // case they are compared.
    let mut synopsis = PathSynopsis::default();
    let mut labels = LabelStore::default();
    let check_runs = t.labels().runs_complete_for(t.len() as u64);
    if !check_runs {
        labels.drop_runs();
    }
    // Each index on the table, with the keys and skips its rebuild
    // extracts as the rows stream by.
    let mut rebuilds: Vec<IndexRebuild<'_>> = catalog
        .all_indexes()
        .into_iter()
        .filter(|idx| idx.table == t.name)
        .map(|idx| IndexRebuild {
            idx,
            col: t.column_index(&idx.column),
            keys: Vec::new(),
            skipped: 0,
        })
        .collect();
    // The in-memory cells of each INTEGER column, diffed against the
    // cells the records hold.
    let mut int_cells: Vec<(usize, &[Option<i64>])> = Vec::new();
    for (col, c) in t.columns.iter().enumerate() {
        if !matches!(c.ty, SqlType::Integer) {
            continue;
        }
        match t.int_cells(col) {
            Some(cells) if cells.len() == t.len() => int_cells.push((col, cells)),
            Some(cells) => issues.push(format!(
                "column {}: {} in-memory cell(s) for {} row id(s)",
                c.name,
                cells.len(),
                t.len()
            )),
            None => issues.push(format!("column {}: no in-memory integer cells", c.name)),
        }
    }
    let mut live = 0usize;
    for item in t.scan() {
        let (rid, values) = item?;
        live += 1;
        if t.is_deleted(rid) {
            issues.push(format!("row {rid}: deleted row surfaced in scan"));
        }
        let mut run = Vec::new();
        let mut cell = 0u32;
        for v in &values {
            if let SqlValue::Xml(n) = v {
                let this_cell = cell;
                observe_document_labeled(n, &mut synopsis, &mut |path, pre, post, level| {
                    run.push((path, LabelEntry { cell: this_cell, pre, post, level }));
                });
                cell += 1;
            }
        }
        labels.write_run(rid as u64, run);
        for (col, cells) in &int_cells {
            let stored = match values.get(*col) {
                Some(SqlValue::Integer(i)) => Some(*i),
                _ => None,
            };
            let held = cells.get(rid).copied().flatten();
            if held != stored {
                issues.push(format!(
                    "row {rid}: in-memory {} cell {held:?} differs from the record's {stored:?}",
                    t.columns[*col].name
                ));
            }
        }
        for r in &mut rebuilds {
            if let Some(SqlValue::Xml(n)) = r.col.and_then(|col| values.get(col)) {
                let extracted = r.idx.extract_entries(rid as u64, n);
                r.skipped += extracted.skipped;
                r.keys.extend(extracted.keys);
            }
        }
    }

    // Live-row bookkeeping.
    if live != t.live_len() {
        issues.push(format!(
            "live_len() reports {} but the scan produced {live} row(s)",
            t.live_len()
        ));
    }
    for rid in t.deleted_rows() {
        for (col, cells) in &int_cells {
            if let Some(Some(held)) = cells.get(rid as usize) {
                issues.push(format!(
                    "row {rid}: deleted row still holds {} cell {held}",
                    t.columns[*col].name
                ));
            }
        }
    }

    // Postings: path for path, the rows a rebuild finds holding it — a
    // row left behind after its last document lost the path shows up
    // here. Compared whenever the table exists, recovered tables included:
    // the store keeps postings for every row at all times.
    issues.extend(diff_postings(t, &synopsis, &labels));

    // Value statistics: the same contract one level deeper — when the
    // store vouches for the stats (never after a manifest rehydration,
    // whose adopted rows were not re-parsed), every per-path histogram,
    // occurrence count and distinct sketch must equal the rebuild's. The
    // cost model prices plans off these numbers; drift here silently
    // mis-costs every future plan, which is exactly why it is a verdict.
    if t.synopsis().stats_complete() {
        let stored: BTreeMap<&str, &ValueStats> =
            t.synopsis().stats_entries().into_iter().collect();
        let rebuilt: BTreeMap<&str, &ValueStats> =
            synopsis.stats_entries().into_iter().collect();
        let total = |s: Option<&&ValueStats>| s.map_or(0, |s| s.total());
        let buckets = |s: Option<&&ValueStats>| s.map_or(0, |s| s.buckets().count());
        for p in stored.keys().chain(rebuilt.keys()).collect::<BTreeSet<_>>() {
            let (st, reb) = (stored.get(p), rebuilt.get(p));
            if st != reb {
                issues.push(format!(
                    "value stats at {p} differ from rebuild \
                     (stored {} value(s) in {} bucket(s), rebuilt {} in {})",
                    total(st),
                    buckets(st),
                    total(reb),
                    buckets(reb),
                ));
            }
        }
    }

    // Runs: only when the store claims every row's run — a store that
    // dropped them is honestly unusable for the join and the planner
    // already declines it, so there is nothing to verify against. Runs are
    // compared by content (path hashes, not the ids either store interned).
    if check_runs {
        issues.extend(diff_runs(t.labels(), &labels, t.len() as u64));
    }

    // Indexes on this table: the tree must hold exactly the keys a
    // rebuild over the live rows extracts, and the skip counter must
    // match the rebuild's skips.
    for IndexRebuild { idx, col, mut keys, skipped } in rebuilds {
        if col.is_none() {
            issues.push(format!("index {}: column {} not on table", idx.name, idx.column));
            continue;
        }
        keys.sort_unstable();
        let stored = idx.all_keys();
        if stored != keys {
            issues.push(format!(
                "index {}: tree holds {} key(s), rebuild produced {}",
                idx.name,
                stored.len(),
                keys.len()
            ));
        }
        if idx.skipped_nodes != skipped {
            issues.push(format!(
                "index {}: skipped_nodes is {} but rebuild skipped {}",
                idx.name, idx.skipped_nodes, skipped
            ));
        }
    }

    Ok(TableVerdict { table: t.name.clone(), rows: live, issues })
}

/// One index's rebuild, accumulated over the verifying row pass.
struct IndexRebuild<'c> {
    idx: &'c XmlIndex,
    /// The indexed column's position (`None`: not on the table).
    col: Option<usize>,
    keys: Vec<Vec<u8>>,
    skipped: usize,
}

/// Every row whose stored label run differs from its rebuild, over the
/// table's `rows` rowids.
fn diff_runs(stored: &LabelStore, rebuilt: &LabelStore, rows: u64) -> Vec<String> {
    let mut issues = Vec::new();
    for row in 0..rows {
        let (s, r): (Vec<_>, Vec<_>) = (stored.run(row).collect(), rebuilt.run(row).collect());
        if s != r {
            issues.push(format!(
                "row {row}: label run of {} label(s) differs from {} rebuilt",
                s.len(),
                r.len()
            ));
        }
    }
    issues
}

/// Every way the table's posting lists differ from the rebuilt ones, and
/// every stored posting whose path the synopsis cannot name (the manifest
/// could not persist it).
fn diff_postings(t: &Table, synopsis: &PathSynopsis, rebuilt: &LabelStore) -> Vec<String> {
    let name = |hash: u64| {
        synopsis
            .path(hash)
            .or_else(|| t.synopsis().path(hash))
            .map_or_else(|| format!("{hash:#x}"), str::to_string)
    };
    let stored: BTreeMap<u64, &[u64]> = t.labels().postings().collect();
    let rebuilt: BTreeMap<u64, &[u64]> = rebuilt.postings().collect();
    let mut issues = Vec::new();
    for (&hash, rows) in &rebuilt {
        match stored.get(&hash) {
            None => issues.push(format!(
                "label posting {}: missing from store ({} row(s) rebuilt)",
                name(hash),
                rows.len()
            )),
            Some(s) if s != rows => issues.push(format!(
                "label posting {}: {} stored row(s) differ from {} rebuilt",
                name(hash),
                s.len(),
                rows.len()
            )),
            Some(_) => {}
        }
    }
    for (&hash, rows) in &stored {
        if !rebuilt.contains_key(&hash) {
            issues.push(format!(
                "label posting {}: {} row(s) stored but not rebuilt",
                name(hash),
                rows.len()
            ));
        }
        if t.synopsis().path(hash).is_none() {
            issues.push(format!("label posting {hash:#x}: no path in the synopsis"));
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqdb_storage::{Column, SqlType, Table};

    fn seeded_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(Table::new(
            "orders",
            vec![Column::new("ordid", SqlType::Integer), Column::new("orddoc", SqlType::Xml)],
        ))
        .unwrap();
        c.create_index("idx_price", "orders", "orddoc", "//price", "double").unwrap();
        for i in 0..6i64 {
            let doc = xqdb_xmlparse::parse_document(&format!(
                "<order id='{i}'><price>{}</price></order>",
                10 * i + 5
            ))
            .unwrap();
            c.insert("orders", vec![SqlValue::Integer(i), SqlValue::Xml(doc.root())])
                .unwrap();
        }
        c
    }

    #[test]
    fn verifies_clean_after_mixed_dml() {
        let mut c = seeded_catalog();
        c.delete("orders", &[1, 4]).unwrap();
        let doc = xqdb_xmlparse::parse_document(
            "<order id='2'><price>999</price><rush/></order>",
        )
        .unwrap();
        c.replace("orders", 2, vec![SqlValue::Integer(2), SqlValue::Xml(doc.root())])
            .unwrap();
        let report = verify_derived_state(&c).unwrap();
        assert!(report.is_clean(), "unexpected issues:\n{}", report.render());
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].rows, 4);
        assert!(report.render().contains("table ORDERS: OK"));
    }

    /// Overwrite every occurrence of `from` with `to` (same length) on the
    /// table's heap pages, behind the table's back: the stored records
    /// change while the in-memory derived state does not. Returns the
    /// number of occurrences rewritten.
    fn rewrite_records(c: &Catalog, table: &str, from: &[u8], to: &[u8]) -> usize {
        assert_eq!(from.len(), to.len());
        let mut n = 0;
        for &pid in c.db.table(table).unwrap().heap_pages() {
            c.db.pager()
                .with_page_mut(pid, |buf| {
                    let mut at = 0;
                    while let Some(pos) = buf[at..].windows(from.len()).position(|w| w == from) {
                        buf[at + pos..at + pos + to.len()].copy_from_slice(to);
                        at += pos + to.len();
                        n += 1;
                    }
                })
                .unwrap();
        }
        n
    }

    #[test]
    fn detects_a_stale_label() {
        let c = seeded_catalog();
        // Row 1's document now reads `<prize>` where the label store (and
        // the synopsis and index) still describe `<price>`.
        assert_eq!(rewrite_records(&c, "ORDERS", b"price>15</price", b"prize>15</prize"), 1);
        let report = verify_derived_state(&c).unwrap();
        let rendered = report.render();
        assert!(
            rendered.contains("label posting /order/price: 6 stored row(s) differ from 5 rebuilt"),
            "report: {rendered}"
        );
        assert!(rendered.contains("index IDX_PRICE"), "report: {rendered}");
        assert!(rendered.contains("row 1: label run"), "report: {rendered}");
        assert!(rendered.contains("label posting"), "report: {rendered}");
    }

    #[test]
    fn a_selected_element_stored_by_update_verifies_clean() {
        // The SET value is an element of the old document, not a parsed
        // document: its arena ids are not those of the stored text it
        // re-parses to, which is what its labels must describe.
        let mut s = crate::SqlSession::new();
        for stmt in [
            "create table t (id integer, doc XML)",
            "create index ik on t(doc) using xmlpattern '//b/@k' as double",
            "insert into t values (1, '<r><a><b k=\"1\"/><b k=\"2\"/></a></r>')",
            "insert into t values (2, '<r><a><b k=\"3\"/></a></r>')",
            "update t set doc = XMLQUERY('$d/r/a' passing doc as \"d\") where id = 1",
        ] {
            s.execute(stmt).unwrap();
        }
        let report = verify_derived_state(&s.catalog).unwrap();
        assert!(report.is_clean(), "unexpected issues:\n{}", report.render());
        let t = s.catalog.db.table("T").unwrap();
        let run: Vec<_> = t.labels().run(0).map(|(_, e)| (e.pre, e.level)).collect();
        // <a> is the stored document's root element: arena id 1, level 1.
        assert_eq!(run.first(), Some(&(1, 1)), "run: {run:?}");
    }

    #[test]
    fn detects_an_integer_cell_that_differs_from_its_record() {
        let mut c = seeded_catalog();
        let planted = 0x0123_4567_89AB_CDEFi64;
        let doc = xqdb_xmlparse::parse_document("<order><price>1</price></order>").unwrap();
        c.insert("orders", vec![SqlValue::Integer(planted), SqlValue::Xml(doc.root())]).unwrap();
        assert!(verify_derived_state(&c).unwrap().is_clean());
        // Row 6's record now holds 77; its in-memory cell still the old id.
        assert_eq!(
            rewrite_records(&c, "ORDERS", &planted.to_le_bytes(), &77i64.to_le_bytes()),
            1
        );
        let report = verify_derived_state(&c).unwrap();
        let rendered = report.render();
        assert_eq!(report.issue_count(), 1, "report: {rendered}");
        assert!(
            rendered.contains(&format!(
                "row 6: in-memory ORDID cell Some({planted}) differs from the record's Some(77)"
            )),
            "report: {rendered}"
        );
    }

    #[test]
    fn detects_posting_drift_on_a_recovered_table() {
        use xqdb_obs::{Obs, Trace};
        let dir = std::path::PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/test-tmp/verify_posting_drift"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let recover =
            || crate::recover_catalog(&dir, &Trace::disabled(), &Obs::disabled()).unwrap().0;
        {
            let (mut s, _) = crate::SqlSession::open_durable(&dir, Default::default()).unwrap();
            for stmt in [
                "create table t (id integer, doc XML)",
                "insert into t values (0, '<r><a/></r>')",
                "insert into t values (1, '<r><b/></r>')",
                "insert into t values (2, '<r><a/><b/></r>')",
            ] {
                s.execute(stmt).unwrap();
            }
            s.checkpoint().unwrap();
        }
        // Recovered from the manifest: postings without runs, verified clean.
        let c = recover();
        let t = c.db.table("T").unwrap();
        assert!(!t.labels().runs_complete_for(3));
        assert_eq!(t.labels().postings().count(), 3);
        assert!(verify_derived_state(&c).unwrap().is_clean());
        drop(c);
        // Plant: the manifest's `/r/a` posting loses row 2.
        let mut m = xqdb_wal::read_manifest(&dir).unwrap().unwrap();
        let paths = m.tables[0].paths.as_mut().unwrap();
        let (_, rows) = paths.iter_mut().find(|(p, _)| p == "/r/a").unwrap();
        rows.retain(|&r| r != 2);
        xqdb_wal::write_manifest(&dir, &m).unwrap();
        let report = verify_derived_state(&recover()).unwrap();
        let rendered = report.render();
        assert_eq!(report.issue_count(), 1, "report: {rendered}");
        assert!(
            rendered.contains("label posting /r/a: 1 stored row(s) differ from 2 rebuilt"),
            "report: {rendered}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn detects_a_stale_index_entry() {
        let mut c = seeded_catalog();
        // Delete a row behind the catalog's back (index not maintained).
        c.db.delete("ORDERS", &[3]).unwrap();
        let report = verify_derived_state(&c).unwrap();
        assert!(!report.is_clean());
        let rendered = report.render();
        assert!(rendered.contains("index IDX_PRICE"), "report: {rendered}");
    }
}
