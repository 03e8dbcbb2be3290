//! The XML value index.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

use xqdb_btree::{keyenc, BPlusTree, PoolStats};
use xqdb_xdm::{
    cast, AtomicType, AtomicValue, Budget, ErrorCode, FaultInjector, NodeHandle, XdmError,
};
use xqdb_xquery::{parse_pattern, Pattern};

use crate::matcher::PatternMatcher;

/// The four index data types of the paper's `CREATE INDEX ... AS type` DDL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexType {
    /// `AS varchar` — contains **every** matching node (string() always
    /// succeeds), hence usable for purely structural predicates.
    Varchar,
    /// `AS double`
    Double,
    /// `AS date`
    Date,
    /// `AS timestamp`
    Timestamp,
}

impl IndexType {
    /// Parse the DDL keyword.
    pub fn parse(s: &str) -> Option<IndexType> {
        match s.to_ascii_lowercase().as_str() {
            "varchar" => Some(IndexType::Varchar),
            "double" => Some(IndexType::Double),
            "date" => Some(IndexType::Date),
            "timestamp" => Some(IndexType::Timestamp),
            _ => None,
        }
    }

    /// The XDM type an indexed value is cast to.
    pub fn atomic_type(self) -> AtomicType {
        match self {
            IndexType::Varchar => AtomicType::String,
            IndexType::Double => AtomicType::Double,
            IndexType::Date => AtomicType::Date,
            IndexType::Timestamp => AtomicType::DateTime,
        }
    }
}

impl fmt::Display for IndexType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IndexType::Varchar => "varchar",
            IndexType::Double => "double",
            IndexType::Date => "date",
            IndexType::Timestamp => "timestamp",
        };
        f.write_str(s)
    }
}

/// Fixed suffix: 8-byte row id + 4-byte node id.
const SUFFIX_LEN: usize = 12;

/// A value range to probe, in XDM values. `Unbounded`/`Unbounded` is the
/// full structural scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRange {
    /// Lower bound on the indexed value.
    pub lo: Bound<AtomicValue>,
    /// Upper bound on the indexed value.
    pub hi: Bound<AtomicValue>,
}

impl ProbeRange {
    /// Equality probe.
    pub fn eq(v: AtomicValue) -> Self {
        ProbeRange { lo: Bound::Included(v.clone()), hi: Bound::Included(v) }
    }

    /// Full scan (structural predicate).
    pub fn all() -> Self {
        ProbeRange { lo: Bound::Unbounded, hi: Bound::Unbounded }
    }
}

/// Statistics from one probe, used by the benchmarks to show scan effort
/// (e.g. the Section 3.10 single-range vs two-scan-intersection gap).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Index entries touched by the scan.
    pub entries_scanned: usize,
    /// Distinct rows produced.
    pub rows_matched: usize,
    /// Individual index probes performed (set by the condition executor;
    /// a compound condition may probe several times).
    pub probes: usize,
    /// B+Tree nodes touched: root-to-leaf descent plus leaf-chain advances.
    pub nodes_touched: usize,
    /// Docid-set intersections performed when AND-combining probes.
    pub intersections: usize,
}

/// Encoded index keys extracted from one document, plus the count of
/// pattern-matching nodes skipped by tolerant indexing. Produced by
/// [`XmlIndex::extract_entries`], consumed by [`XmlIndex::insert_entries`].
#[derive(Debug, Clone, Default)]
pub struct ExtractedEntries {
    /// Encoded keys (value prefix + row/node suffix), in document order.
    pub keys: Vec<Vec<u8>>,
    /// Matching nodes whose value did not cast to the index type.
    pub skipped: usize,
}

/// One XML value index over a table's XML column.
#[derive(Debug)]
pub struct XmlIndex {
    /// Index name (upper-cased).
    pub name: String,
    /// Owning table (upper-cased).
    pub table: String,
    /// Indexed XML column (upper-cased).
    pub column: String,
    /// The XMLPATTERN.
    pub pattern: Pattern,
    /// The index data type.
    pub ty: IndexType,
    matcher: PatternMatcher,
    tree: BPlusTree<()>,
    /// Nodes that matched the pattern but did not cast (skipped —
    /// "tolerant" indexing). Kept as a counter for observability.
    pub skipped_nodes: usize,
    /// Chaos-testing hook: when set, each guarded probe is an injection
    /// point. A fired fault makes [`XmlIndex::probe_guarded`] return a
    /// `StorageFault` error, which the engine answers by degrading to a
    /// full collection scan (correct by Definition 1).
    fault_injector: Option<Arc<FaultInjector>>,
}

impl XmlIndex {
    /// Create an empty index from DDL parts.
    pub fn create(
        name: &str,
        table: &str,
        column: &str,
        xmlpattern: &str,
        ty: &str,
    ) -> Result<XmlIndex, XdmError> {
        let pattern = parse_pattern(xmlpattern).map_err(|e| {
            XdmError::new(ErrorCode::XPST0003, format!("invalid XMLPATTERN: {e}"))
        })?;
        let ty = IndexType::parse(ty).ok_or_else(|| {
            XdmError::new(
                ErrorCode::SqlType,
                format!("invalid index type {ty:?}: expected varchar|double|date|timestamp"),
            )
        })?;
        let matcher = PatternMatcher::new(&pattern);
        Ok(XmlIndex {
            name: name.to_ascii_uppercase(),
            table: table.to_ascii_uppercase(),
            column: column.to_ascii_uppercase(),
            pattern,
            ty,
            matcher,
            tree: BPlusTree::new(),
            skipped_nodes: 0,
            fault_injector: None,
        })
    }

    /// Install (or clear) the probe fault injector.
    pub fn set_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        self.fault_injector = injector;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault_injector.as_ref()
    }

    /// Number of index entries.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Approximate index size in bytes (pages allocated by the node store).
    pub fn approx_bytes(&self) -> usize {
        self.tree.approx_bytes()
    }

    /// Buffer-pool counters of the index's node store (monotone).
    pub fn pool_stats(&self) -> PoolStats {
        self.tree.pool_stats()
    }

    /// Resize the index's node-store buffer pool (eviction-pressure tests).
    pub fn set_pool_pages(&self, capacity: usize) {
        self.tree.set_pool_pages(capacity);
    }

    /// Index one stored document: insert an entry per matching node whose
    /// value casts to the index type; nodes that fail the cast are skipped
    /// without error (Section 2.1's tolerance, the enabler of schema
    /// evolution and of broad `//@*` indexes).
    pub fn insert_document(&mut self, row: u64, root: &NodeHandle) {
        let extracted = self.extract_entries(row, root);
        self.insert_entries(extracted);
    }

    /// The read-only half of [`XmlIndex::insert_document`]: walk the
    /// document and build its encoded index keys without touching the tree.
    /// Workers extract in parallel during an index back-fill; the merge into
    /// the B+Tree happens serially via [`XmlIndex::insert_entries`] so the
    /// resulting tree is identical to a serial build.
    pub fn extract_entries(&self, row: u64, root: &NodeHandle) -> ExtractedEntries {
        let mut entries: Vec<Vec<u8>> = Vec::new();
        let mut skipped = 0usize;
        let ty = self.ty;
        self.matcher.walk(root, &mut |node| {
            let typed = match node.typed_value() {
                Ok(v) => v,
                Err(_) => {
                    skipped += 1;
                    return;
                }
            };
            match cast::cast(&typed, ty.atomic_type()) {
                Ok(v) => {
                    let mut key = Vec::with_capacity(24);
                    if encode_value(&v, &mut key).is_err() {
                        skipped += 1;
                        return;
                    }
                    key.extend_from_slice(&keyenc::encode_u64(row));
                    key.extend_from_slice(&node.id.0.to_be_bytes());
                    entries.push(key);
                }
                Err(_) => skipped += 1,
            }
        });
        ExtractedEntries { keys: entries, skipped }
    }

    /// Replace the tree with one bulk-loaded from `keys` (a snapshot taken
    /// through [`XmlIndex::keys`], so in strictly ascending order) and set
    /// the skipped-node counter. Keys out of order mean a damaged
    /// snapshot: a typed `WalCorrupt` error, the index left unchanged.
    pub fn load_sorted<'k>(
        &mut self,
        keys: impl IntoIterator<Item = &'k [u8]>,
        skipped_nodes: usize,
    ) -> Result<(), XdmError> {
        let tree = BPlusTree::from_sorted(keys.into_iter().map(|k| (k.to_vec(), ())))
            .ok_or_else(|| {
                XdmError::wal_corrupt(format!("index {}: snapshot keys out of order", self.name))
            })?;
        self.tree = tree;
        self.skipped_nodes = skipped_nodes;
        Ok(())
    }

    /// The write half of [`XmlIndex::insert_document`]: merge extracted
    /// entries into the tree, in the order they were extracted.
    pub fn insert_entries(&mut self, extracted: ExtractedEntries) {
        for k in extracted.keys {
            self.tree.insert(k, ());
        }
        self.skipped_nodes += extracted.skipped;
    }

    /// Remove every entry a stored document contributed (row DELETE /
    /// document REPLACE): the document's keys are re-extracted exactly the
    /// way [`XmlIndex::insert_document`] built them, then deleted from the
    /// tree. `skipped_nodes` gives the document's skips back, so the
    /// counter always equals what a rebuild over the remaining documents
    /// would report.
    pub fn remove_document(&mut self, row: u64, root: &NodeHandle) {
        let extracted = self.extract_entries(row, root);
        for k in &extracted.keys {
            self.tree.remove(k);
        }
        self.skipped_nodes = self.skipped_nodes.saturating_sub(extracted.skipped);
    }

    /// Every encoded key in tree order, one at a time — what a checkpoint
    /// snapshots without holding a second copy of the index.
    pub fn keys(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        self.tree.iter().map(|(k, ())| k)
    }

    /// [`XmlIndex::keys`] collected: the rebuild-oracle comparison surface
    /// (`verify_derived_state` checks a maintained or snapshot-loaded tree
    /// holds exactly the keys a from-scratch rebuild produces).
    pub fn all_keys(&self) -> Vec<Vec<u8>> {
        self.keys().collect()
    }

    /// Probe the index with a value range, returning the matching row set.
    /// The probe value is cast to the index type first; an impossible cast
    /// yields the empty set (the value cannot occur in this index).
    ///
    /// Infallible variant: no fault injection, no budget. The engine's
    /// execution path uses [`XmlIndex::probe_guarded`] instead.
    pub fn probe(&self, range: &ProbeRange) -> (BTreeSet<u64>, ProbeStats) {
        // With no budget the scan cannot fail.
        self.scan_rows(range, None).unwrap_or_default()
    }

    /// Budget-governed, fault-injectable probe. Fails with `StorageFault`
    /// when the injector fires and with `ResourceExhausted`/`Cancelled`
    /// when the budget trips mid-scan.
    pub fn probe_guarded(
        &self,
        range: &ProbeRange,
        budget: &Budget,
    ) -> Result<(BTreeSet<u64>, ProbeStats), XdmError> {
        if let Some(inj) = &self.fault_injector {
            if inj.should_fail() {
                return Err(XdmError::storage_fault(format!(
                    "injected fault probing index {}",
                    self.name
                )));
            }
        }
        self.scan_rows(range, Some(budget))
    }

    fn scan_rows(
        &self,
        range: &ProbeRange,
        budget: Option<&Budget>,
    ) -> Result<(BTreeSet<u64>, ProbeStats), XdmError> {
        let lo = match encode_bound(&range.lo, self.ty, true) {
            Ok(b) => b,
            Err(()) => return Ok((BTreeSet::new(), ProbeStats::default())),
        };
        let hi = match encode_bound(&range.hi, self.ty, false) {
            Ok(b) => b,
            Err(()) => return Ok((BTreeSet::new(), ProbeStats::default())),
        };
        let mut rows = BTreeSet::new();
        let mut stats = ProbeStats::default();
        let lob = as_bound_slice(&lo);
        let hib = as_bound_slice(&hi);
        let mut it = self.tree.range(lob, hib);
        for (key, ()) in it.by_ref() {
            stats.entries_scanned += 1;
            if let Some(b) = budget {
                b.charge_index_entries(1)?;
            }
            if let Some((row, _node)) = decode_suffix(&key) {
                rows.insert(row);
            }
        }
        stats.nodes_touched = it.nodes_touched();
        stats.rows_matched = rows.len();
        Ok((rows, stats))
    }

    /// Probe returning `(row, node-id)` pairs — node-level results, used
    /// for node-level ANDing of multiple predicates.
    pub fn probe_nodes(&self, range: &ProbeRange) -> (BTreeSet<(u64, u32)>, ProbeStats) {
        let lo = match encode_bound(&range.lo, self.ty, true) {
            Ok(b) => b,
            Err(()) => return (BTreeSet::new(), ProbeStats::default()),
        };
        let hi = match encode_bound(&range.hi, self.ty, false) {
            Ok(b) => b,
            Err(()) => return (BTreeSet::new(), ProbeStats::default()),
        };
        let mut out = BTreeSet::new();
        let mut stats = ProbeStats::default();
        let mut it = self.tree.range(as_bound_slice(&lo), as_bound_slice(&hi));
        for (key, ()) in it.by_ref() {
            stats.entries_scanned += 1;
            if let Some(pair) = decode_suffix(&key) {
                out.insert(pair);
            }
        }
        stats.nodes_touched = it.nodes_touched();
        stats.rows_matched = out.iter().map(|(r, _)| *r).collect::<BTreeSet<_>>().len();
        (out, stats)
    }
}

/// Split the fixed 12-byte `(row, node)` suffix off an index key. `None`
/// only for malformed (too-short) keys, which the probes then ignore
/// instead of panicking.
fn decode_suffix(key: &[u8]) -> Option<(u64, u32)> {
    if key.len() < SUFFIX_LEN {
        return None;
    }
    let row: [u8; 8] = key[key.len() - SUFFIX_LEN..key.len() - 4].try_into().ok()?;
    let node: [u8; 4] = key[key.len() - 4..].try_into().ok()?;
    Some((u64::from_be_bytes(row), u32::from_be_bytes(node)))
}

/// Encode an already-cast value as its key prefix. Index types cast to
/// exactly the four encodings below; any other value reaching here is an
/// engine bug, reported as a typed error rather than a panic.
fn encode_value(v: &AtomicValue, out: &mut Vec<u8>) -> Result<(), XdmError> {
    match v {
        AtomicValue::Double(d) => out.extend_from_slice(&keyenc::encode_f64(*d)),
        AtomicValue::String(s) => keyenc::encode_str(s, out),
        AtomicValue::Date(d) => out.extend_from_slice(&keyenc::encode_i64(d.days_since_epoch())),
        AtomicValue::DateTime(dt) => {
            out.extend_from_slice(&keyenc::encode_i64(dt.millis_since_epoch()))
        }
        other => {
            return Err(XdmError::internal(format!("unencodable index value {other:?}")));
        }
    }
    Ok(())
}

/// Encode a probe bound. `Err(())` means the value cannot be cast into the
/// index's value space, so the probe matches nothing.
fn encode_bound(
    bound: &Bound<AtomicValue>,
    ty: IndexType,
    is_lower: bool,
) -> Result<Bound<Vec<u8>>, ()> {
    let v = match bound {
        Bound::Unbounded => return Ok(Bound::Unbounded),
        Bound::Included(v) | Bound::Excluded(v) => v,
    };
    let cast_v = cast::cast(v, ty.atomic_type()).map_err(|_| ())?;
    let mut enc = Vec::with_capacity(24);
    encode_value(&cast_v, &mut enc).map_err(|_| ())?;
    let inclusive = matches!(bound, Bound::Included(_));
    // Composite keys carry a 12-byte (row, node) suffix; pad bounds so the
    // value range covers every suffix.
    Ok(match (is_lower, inclusive) {
        (true, true) => Bound::Included(enc),
        (true, false) => {
            enc.extend_from_slice(&[0xFF; SUFFIX_LEN]);
            Bound::Excluded(enc)
        }
        (false, true) => {
            enc.extend_from_slice(&[0xFF; SUFFIX_LEN]);
            Bound::Included(enc)
        }
        (false, false) => Bound::Excluded(enc),
    })
}

fn as_bound_slice(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(v.as_slice()),
        Bound::Excluded(v) => Bound::Excluded(v.as_slice()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqdb_xmlparse::parse_document;

    fn li_price() -> XmlIndex {
        XmlIndex::create("li_price", "orders", "orddoc", "//lineitem/@price", "double").unwrap()
    }

    fn index_docs(idx: &mut XmlIndex, docs: &[&str]) {
        for (i, d) in docs.iter().enumerate() {
            let doc = parse_document(d).unwrap();
            idx.insert_document(i as u64, &doc.root());
        }
    }

    #[test]
    fn equality_and_range_probes() {
        let mut idx = li_price();
        index_docs(
            &mut idx,
            &[
                r#"<order><lineitem price="99.50"/></order>"#,
                r#"<order><lineitem price="250"/><lineitem price="50"/></order>"#,
                r#"<order><note/></order>"#,
            ],
        );
        assert_eq!(idx.len(), 3);
        let (rows, _) = idx.probe(&ProbeRange::eq(AtomicValue::Double(99.5)));
        assert_eq!(rows.into_iter().collect::<Vec<_>>(), vec![0]);
        // > 100
        let (rows, stats) = idx.probe(&ProbeRange {
            lo: Bound::Excluded(AtomicValue::Double(100.0)),
            hi: Bound::Unbounded,
        });
        assert_eq!(rows.into_iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(stats.entries_scanned, 1);
    }

    #[test]
    fn tolerant_indexing_skips_uncastable() {
        // Section 2.1: "20 USD" never enters a double index, and the
        // document is NOT rejected.
        let mut idx = li_price();
        index_docs(
            &mut idx,
            &[r#"<order><lineitem price="20 USD"/><lineitem price="30"/></order>"#],
        );
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.skipped_nodes, 1);
    }

    #[test]
    fn varchar_index_contains_everything() {
        let mut idx =
            XmlIndex::create("p_str", "orders", "orddoc", "//lineitem/@price", "varchar").unwrap();
        index_docs(
            &mut idx,
            &[r#"<order><lineitem price="20 USD"/><lineitem price="30"/></order>"#],
        );
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.skipped_nodes, 0);
        // Structural probe: full scan finds the document.
        let (rows, _) = idx.probe(&ProbeRange::all());
        assert_eq!(rows.len(), 1);
        // String equality works on the non-numeric value.
        let (rows, _) =
            idx.probe(&ProbeRange::eq(AtomicValue::String("20 USD".into())));
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn varchar_cannot_see_numeric_equivalence() {
        // 1E3 = 1000 numerically, but a varchar index keeps them apart —
        // the Section 3.1 reason varchar indexes can't serve numeric joins.
        let mut idx =
            XmlIndex::create("p_str", "orders", "orddoc", "//price", "varchar").unwrap();
        index_docs(&mut idx, &[r#"<o><price>1E3</price><price>1000</price></o>"#]);
        let (rows, stats) =
            idx.probe(&ProbeRange::eq(AtomicValue::String("1000".into())));
        assert_eq!(rows.len(), 1);
        assert_eq!(stats.entries_scanned, 1); // only the literal "1000"
        // A double index unifies them.
        let mut didx = XmlIndex::create("p_d", "orders", "orddoc", "//price", "double").unwrap();
        index_docs(&mut didx, &[r#"<o><price>1E3</price><price>1000</price></o>"#]);
        let (_, stats) = didx.probe(&ProbeRange::eq(AtomicValue::Double(1000.0)));
        assert_eq!(stats.entries_scanned, 2);
    }

    #[test]
    fn date_index() {
        let mut idx =
            XmlIndex::create("o_date", "orders", "orddoc", "/order/date", "date").unwrap();
        index_docs(
            &mut idx,
            &[
                r#"<order><date>2001-01-01</date></order>"#,
                r#"<order><date>2003-06-15</date></order>"#,
                r#"<order><date>January 1, 2001</date></order>"#, // skipped
            ],
        );
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.skipped_nodes, 1);
        let (rows, _) = idx.probe(&ProbeRange {
            lo: Bound::Included(AtomicValue::UntypedAtomic("2002-01-01".into())),
            hi: Bound::Unbounded,
        });
        assert_eq!(rows.into_iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn probe_value_that_cannot_cast_matches_nothing() {
        let mut idx = li_price();
        index_docs(&mut idx, &[r#"<order><lineitem price="10"/></order>"#]);
        let (rows, _) =
            idx.probe(&ProbeRange::eq(AtomicValue::String("not a number".into())));
        assert!(rows.is_empty());
    }

    #[test]
    fn node_level_probes_and_intersection() {
        // Section 3.10: between via intersection of two scans.
        let mut idx = li_price();
        index_docs(
            &mut idx,
            &[
                r#"<order><lineitem price="250"/><lineitem price="50"/></order>"#,
                r#"<order><lineitem price="150"/></order>"#,
            ],
        );
        let (gt100, s1) = idx.probe_nodes(&ProbeRange {
            lo: Bound::Excluded(AtomicValue::Double(100.0)),
            hi: Bound::Unbounded,
        });
        let (lt200, s2) = idx.probe_nodes(&ProbeRange {
            lo: Bound::Unbounded,
            hi: Bound::Excluded(AtomicValue::Double(200.0)),
        });
        // Node-level intersection: only the 150 lineitem is in both.
        let both: Vec<_> = gt100.intersection(&lt200).collect();
        assert_eq!(both.len(), 1);
        assert_eq!(both[0].0, 1);
        // Document-level intersection would wrongly keep row 0 as well.
        let rows1: BTreeSet<u64> = gt100.iter().map(|(r, _)| *r).collect();
        let rows2: BTreeSet<u64> = lt200.iter().map(|(r, _)| *r).collect();
        assert_eq!(rows1.intersection(&rows2).count(), 2);
        // The two scans together touch more entries than the single range
        // scan a true between does.
        let (_, single) = idx.probe(&ProbeRange {
            lo: Bound::Excluded(AtomicValue::Double(100.0)),
            hi: Bound::Excluded(AtomicValue::Double(200.0)),
        });
        assert!(s1.entries_scanned + s2.entries_scanned > single.entries_scanned);
    }

    #[test]
    fn element_value_index_uses_string_value() {
        // Section 3.8: a //price varchar index stores "99.50USD" for mixed
        // content, NOT "99.50".
        let mut idx = XmlIndex::create("pt", "orders", "orddoc", "//price", "varchar").unwrap();
        index_docs(
            &mut idx,
            &[r#"<order><lineitem><price>99.50<currency>USD</currency></price></lineitem></order>"#],
        );
        let (rows, _) = idx.probe(&ProbeRange::eq(AtomicValue::String("99.50".into())));
        assert!(rows.is_empty(), "the index entry is 99.50USD");
        let (rows, _) =
            idx.probe(&ProbeRange::eq(AtomicValue::String("99.50USD".into())));
        assert_eq!(rows.len(), 1);
        // A //price/text() index stores the text node "99.50".
        let mut tidx =
            XmlIndex::create("ptt", "orders", "orddoc", "//price/text()", "varchar").unwrap();
        index_docs(
            &mut tidx,
            &[r#"<order><lineitem><price>99.50<currency>USD</currency></price></lineitem></order>"#],
        );
        let (rows, _) =
            tidx.probe(&ProbeRange::eq(AtomicValue::String("99.50".into())));
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn broad_numeric_attribute_index() {
        // The administrator's //@* AS double from Section 2.1.
        let mut idx = XmlIndex::create("all_nums", "orders", "orddoc", "//@*", "double").unwrap();
        index_docs(
            &mut idx,
            &[r#"<order id="1" status="open"><lineitem price="99.50" qty="2"/></order>"#],
        );
        // id, price, qty are numeric; status is skipped.
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.skipped_nodes, 1);
    }

    #[test]
    fn remove_document_undoes_insert_exactly() {
        let mut idx = li_price();
        let docs = [
            r#"<order><lineitem price="99.50"/></order>"#,
            r#"<order><lineitem price="250"/><lineitem price="20 USD"/></order>"#,
            r#"<order><lineitem price="50"/></order>"#,
        ];
        index_docs(&mut idx, &docs);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.skipped_nodes, 1);
        // Snapshot without row 1, then remove row 1 from the full index.
        let mut oracle = li_price();
        let d0 = parse_document(docs[0]).unwrap();
        let d2 = parse_document(docs[2]).unwrap();
        oracle.insert_document(0, &d0.root());
        oracle.insert_document(2, &d2.root());
        let d1 = parse_document(docs[1]).unwrap();
        idx.remove_document(1, &d1.root());
        assert_eq!(idx.all_keys(), oracle.all_keys());
        assert_eq!(idx.skipped_nodes, oracle.skipped_nodes);
        let (rows, _) = idx.probe(&ProbeRange::all());
        assert_eq!(rows.into_iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn rejects_bad_ddl() {
        assert!(XmlIndex::create("x", "t", "c", "//a[b]", "double").is_err());
        assert!(XmlIndex::create("x", "t", "c", "//a", "float").is_err());
    }
}
