//! Path synopsis: a per-table dictionary of observed rooted paths, with
//! value statistics per path.
//!
//! A *rooted path* is the chain of expanded element names from the document
//! root down to an element, optionally ending in one attribute name
//! (`/order/lineitem/@price`). Namespace URIs participate in path identity
//! (the paper's Tip 9: `<order>` and `<o:order>` are different names), so
//! every component hashes its namespace URI alongside its local name.
//!
//! The synopsis names each path (hash → rendered form) and keeps the value
//! statistics the cost model reads. Which rows hold a path is the table's
//! label store's job: its posting lists are the exact path summary the
//! prefilter and the twig join read, and a path's row count is its
//! posting's length.
//!
//! The synopsis is **derived state**: it is recomputed from document trees
//! in [`crate::table::Table::push_row`], which both direct inserts and WAL
//! replay go through.

use std::collections::{BTreeMap, HashMap};

use xqdb_xdm::{ExpandedName, NodeHandle, NodeKind};

/// FNV-1a 64-bit offset basis: the seed every rooted-path hash starts from.
pub const PATH_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn mix_name(h: u64, name: &ExpandedName) -> u64 {
    // The namespace URI is part of path identity (Tip 9). `{uri}` framing
    // keeps `{a}b` distinct from a no-namespace name spelled "ab".
    let h = match &name.ns {
        Some(ns) => mix_bytes(mix_bytes(mix_bytes(h, b"{"), ns.as_bytes()), b"}"),
        None => h,
    };
    mix_bytes(h, name.local.as_bytes())
}

/// Hash a rendered rooted path (the `/{ns}a/b/@c` clark form emitted by
/// [`render_component`]). Byte-identical to the incremental
/// [`extend_element`]/[`extend_attribute`] chain — [`extend_element`]
/// mixes `/` then the clark-form name, which is exactly what
/// [`render_component`] appends — so a synopsis persisted as rendered
/// strings (the checkpoint manifest) rehydrates to the same hash keys.
pub fn hash_rendered_path(path: &str) -> u64 {
    mix_bytes(PATH_HASH_SEED, path.as_bytes())
}

/// Extend a rooted-path hash by one child **element** step.
pub fn extend_element(h: u64, name: &ExpandedName) -> u64 {
    mix_name(mix_bytes(h, b"/"), name)
}

/// Extend a rooted-path hash by one **attribute** step (always terminal).
pub fn extend_attribute(h: u64, name: &ExpandedName) -> u64 {
    mix_name(mix_bytes(h, b"/@"), name)
}

/// Render one path component the way [`document_paths`] does, so the
/// query-side extractor and tests can compare exact path strings.
pub fn render_component(out: &mut String, attribute: bool, name: &ExpandedName) {
    out.push('/');
    if attribute {
        out.push('@');
    }
    out.push_str(&name.clark());
}

/// Number of slots in the linear-counting distinct sketch.
pub const DISTINCT_SLOTS: usize = 64;

/// Largest histogram bucket magnitude: biased exponent 2046 (the top finite
/// f64 range) × 4 sub-buckets + top mantissa bits + 1.
const MAX_BUCKET_MAG: i16 = 2046 * 4 + 3 + 1;

/// Histogram bucket of a finite double: 0 for zero, otherwise a signed
/// magnitude built from the biased exponent and the top two mantissa bits —
/// four buckets per power of two, so bucket bounds are value-independent
/// and an incrementally-maintained histogram (insert increments, delete
/// decrements) is exactly equal to one rebuilt from the surviving values.
pub fn value_bucket(v: f64) -> i16 {
    if v == 0.0 || !v.is_finite() {
        return 0;
    }
    let bits = v.abs().to_bits();
    let exp = (bits >> 52) & 0x7ff;
    let man2 = (bits >> 50) & 0b11;
    let mag = (exp * 4 + man2) as i16 + 1;
    if v < 0.0 {
        -mag
    } else {
        mag
    }
}

fn bucket_mag_lo(mag: i16) -> f64 {
    let m = (mag - 1) as u64;
    f64::from_bits(((m / 4) << 52) | ((m % 4) << 50))
}

/// The value range `[lo, hi)` a histogram bucket covers (negative buckets
/// return negative bounds with `lo < hi`). Bucket 0 is the point mass at
/// zero (and non-finite values), returned as `(0.0, 0.0)`.
pub fn bucket_bounds(bucket: i16) -> (f64, f64) {
    if bucket == 0 {
        return (0.0, 0.0);
    }
    let mag = bucket.abs();
    let lo = bucket_mag_lo(mag);
    let hi = if mag >= MAX_BUCKET_MAG { f64::MAX } else { bucket_mag_lo(mag + 1) };
    if bucket > 0 {
        (lo, hi)
    } else {
        (-hi, -lo)
    }
}

/// Incrementally-maintained statistics over the values observed at one
/// rooted path: occurrence counts, a fixed-width histogram of the numeric
/// values (log-scale bucket bounds, so maintenance under DELETE is exact),
/// and a linear-counting sketch estimating the number of distinct lexical
/// values. All fields are pure occurrence counters, so a document's
/// contribution can be subtracted exactly on DELETE/REPLACE and the result
/// equals a rebuild over the surviving documents — the property
/// `verify_derived_state` checks.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueStats {
    /// Values observed (one per node occurrence, not per document).
    total: u64,
    /// Values that parse as finite doubles (histogram population).
    numeric: u64,
    /// Histogram: bucket id → occurrence count. Zero-count buckets are
    /// removed so incremental == rebuilt, entry for entry.
    buckets: BTreeMap<i16, u64>,
    /// Occupancy per hash slot; a slot is "live" while any value hashing
    /// to it survives, making `distinct_estimate` delete-safe.
    distinct: [u64; DISTINCT_SLOTS],
}

impl Default for ValueStats {
    fn default() -> Self {
        ValueStats {
            total: 0,
            numeric: 0,
            buckets: BTreeMap::new(),
            distinct: [0; DISTINCT_SLOTS],
        }
    }
}

impl ValueStats {
    /// Record one observed value.
    pub fn observe(&mut self, value: &str) {
        self.total += 1;
        if let Some(v) = parse_numeric(value) {
            self.numeric += 1;
            *self.buckets.entry(value_bucket(v)).or_insert(0) += 1;
        }
        self.distinct[distinct_slot(value)] += 1;
    }

    /// Remove one previously-observed value (the exact inverse of
    /// [`ValueStats::observe`] — parsing is deterministic, so the same
    /// lexical value always hits the same counters).
    pub fn remove(&mut self, value: &str) {
        self.total = self.total.saturating_sub(1);
        if let Some(v) = parse_numeric(value) {
            self.numeric = self.numeric.saturating_sub(1);
            let b = value_bucket(v);
            if let Some(n) = self.buckets.get_mut(&b) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    self.buckets.remove(&b);
                }
            }
        }
        let slot = distinct_slot(value);
        self.distinct[slot] = self.distinct[slot].saturating_sub(1);
    }

    /// Subtract another stats object's counts (a freshly-observed scratch
    /// document on DELETE/REPLACE).
    pub fn subtract(&mut self, other: &ValueStats) {
        self.total = self.total.saturating_sub(other.total);
        self.numeric = self.numeric.saturating_sub(other.numeric);
        for (b, n) in &other.buckets {
            if let Some(mine) = self.buckets.get_mut(b) {
                *mine = mine.saturating_sub(*n);
                if *mine == 0 {
                    self.buckets.remove(b);
                }
            }
        }
        for (mine, theirs) in self.distinct.iter_mut().zip(&other.distinct) {
            *mine = mine.saturating_sub(*theirs);
        }
    }

    /// Merge another stats object's counts (REPLACE's insert half goes
    /// through `observe`; this is for tools that aggregate across paths).
    pub fn merge(&mut self, other: &ValueStats) {
        self.total += other.total;
        self.numeric += other.numeric;
        for (b, n) in &other.buckets {
            *self.buckets.entry(*b).or_insert(0) += *n;
        }
        for (mine, theirs) in self.distinct.iter_mut().zip(&other.distinct) {
            *mine += *theirs;
        }
    }

    /// True when no value survives.
    pub fn is_empty(&self) -> bool {
        self.total == 0 && self.numeric == 0 && self.buckets.is_empty()
    }

    /// Total observed values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Values that entered the numeric histogram.
    pub fn numeric(&self) -> u64 {
        self.numeric
    }

    /// Histogram entries as `(bucket, count)` in bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (i16, u64)> + '_ {
        self.buckets.iter().map(|(b, n)| (*b, *n))
    }

    /// Linear-counting estimate of the number of distinct lexical values:
    /// `m · ln(m / z)` with `m` slots and `z` empty slots; saturates near
    /// `m · ln(2m)` when every slot is occupied.
    pub fn distinct_estimate(&self) -> f64 {
        let m = DISTINCT_SLOTS as f64;
        let zeros = self.distinct.iter().filter(|&&n| n == 0).count();
        if self.total == 0 {
            return 0.0;
        }
        if zeros == 0 {
            return m * (2.0 * m).ln();
        }
        let est = m * (m / zeros as f64).ln();
        est.max(1.0)
    }

    /// Estimated number of occurrences whose numeric value falls in
    /// `[lo, hi]` (either bound optional). Full buckets count whole;
    /// partially-overlapped buckets contribute a linear fraction of their
    /// width. Zero values (bucket 0) count when the range covers 0.
    pub fn estimate_range(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let qlo = lo.unwrap_or(f64::MIN);
        let qhi = hi.unwrap_or(f64::MAX);
        if qlo > qhi {
            return 0.0;
        }
        let mut est = 0.0;
        for (&b, &n) in &self.buckets {
            if b == 0 {
                if qlo <= 0.0 && qhi >= 0.0 {
                    est += n as f64;
                }
                continue;
            }
            let (blo, bhi) = bucket_bounds(b);
            let ov_lo = qlo.max(blo);
            let ov_hi = qhi.min(bhi);
            if ov_hi <= ov_lo {
                continue;
            }
            let width = bhi - blo;
            let frac = if width > 0.0 { ((ov_hi - ov_lo) / width).min(1.0) } else { 1.0 };
            est += n as f64 * frac;
        }
        est
    }

    /// Estimated occurrences equal to one numeric value: the value's bucket
    /// population divided by the estimated distinct values sharing it,
    /// bounded by the bucket count.
    pub fn estimate_eq(&self, v: f64) -> f64 {
        let in_bucket = self.buckets.get(&value_bucket(v)).copied().unwrap_or(0) as f64;
        if in_bucket == 0.0 {
            return 0.0;
        }
        let per_value = self.total as f64 / self.distinct_estimate().max(1.0);
        per_value.min(in_bucket).max(1.0)
    }

    /// Estimated occurrences equal to one non-numeric lexical value.
    pub fn estimate_eq_lexical(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.total as f64 / self.distinct_estimate().max(1.0)).max(1.0)
    }
}

/// Parse a value the way the double index's tolerant cast does for
/// estimation purposes: trimmed, finite doubles only.
fn parse_numeric(s: &str) -> Option<f64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    t.parse::<f64>().ok().filter(|v| v.is_finite())
}

fn distinct_slot(value: &str) -> usize {
    (mix_bytes(PATH_HASH_SEED, value.as_bytes()) % DISTINCT_SLOTS as u64) as usize
}

/// Per-table dictionary of distinct rooted paths observed at insert time,
/// interned by path hash, plus per-path [`ValueStats`] over the
/// attribute/text values observed at the path — the raw material of the
/// cost-based planner. The dictionary only grows: a path whose last row
/// was deleted keeps its name, and its posting list is empty.
#[derive(Debug, Clone)]
pub struct PathSynopsis {
    paths: HashMap<u64, String>,
    stats: HashMap<u64, ValueStats>,
    /// Value statistics are *derived state rebuilt through the insert
    /// path*: a synopsis rehydrated from the checkpoint manifest has path
    /// names but no values (adopted rows are never re-parsed), so its
    /// stats are sticky-incomplete and the cost model declines to them.
    stats_complete: bool,
}

impl Default for PathSynopsis {
    fn default() -> Self {
        PathSynopsis { paths: HashMap::new(), stats: HashMap::new(), stats_complete: true }
    }
}

impl PathSynopsis {
    /// Number of distinct rooted paths observed.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True if no path was ever observed.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterate `(rendered path, hash key)` in unspecified order. The key
    /// is [`hash_rendered_path`] of the rendered path, stored rather than
    /// recomputed.
    pub fn keyed_paths(&self) -> impl Iterator<Item = (&str, u64)> {
        self.paths.iter().map(|(&h, p)| (p.as_str(), h))
    }

    /// The rendered path with this hash key, if observed.
    pub fn path(&self, hash: u64) -> Option<&str> {
        self.paths.get(&hash).map(String::as_str)
    }

    /// Rebuild a synopsis from persisted rendered paths, re-deriving each
    /// hash key via [`hash_rendered_path`]. The manifest persists no
    /// values, so the resulting stats are marked incomplete; WAL-suffix
    /// replay re-observes only the replayed documents.
    pub fn from_paths<'p>(paths: impl IntoIterator<Item = &'p str>) -> PathSynopsis {
        let paths = paths.into_iter().map(|p| (hash_rendered_path(p), p.to_string())).collect();
        PathSynopsis { paths, stats: HashMap::new(), stats_complete: false }
    }

    /// Record one observed value at a path (insert-side maintenance; the
    /// [`Walker`] is the only caller, keeping histogram construction inside
    /// this crate).
    fn record_value(&mut self, hash: u64, value: &str) {
        self.stats.entry(hash).or_default().observe(value);
    }

    /// Per-path value statistics, when any value was observed at the path.
    pub fn value_stats(&self, hash: u64) -> Option<&ValueStats> {
        self.stats.get(&hash)
    }

    /// True when the value statistics cover every live document — false for
    /// synopses rehydrated from a checkpoint manifest, whose adopted rows
    /// were never re-parsed.
    pub fn stats_complete(&self) -> bool {
        self.stats_complete
    }

    /// `(rendered path, value stats)` for every path with statistics,
    /// sorted by path.
    pub fn stats_entries(&self) -> Vec<(&str, &ValueStats)> {
        let mut out: Vec<(&str, &ValueStats)> = self
            .stats
            .iter()
            .filter_map(|(h, s)| Some((self.paths.get(h)?.as_str(), s)))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Subtract a scratch synopsis's value statistics — the delete-side
    /// twin of the insert-path value observation: re-observe the outgoing
    /// document into a scratch, then remove exactly those counts. Stats
    /// entries whose counts all reach zero are dropped so an
    /// incrementally-maintained synopsis stays equal, entry for entry, to
    /// one rebuilt from the surviving documents.
    pub fn subtract_stats_of(&mut self, scratch: &PathSynopsis) {
        for (hash, theirs) in &scratch.stats {
            if let Some(mine) = self.stats.get_mut(hash) {
                mine.subtract(theirs);
                if mine.is_empty() {
                    self.stats.remove(hash);
                }
            }
        }
    }
}

/// Record a document's distinct rooted paths and their values into
/// `synopsis`. `root` may be a document node (stored XML columns) or an
/// element (constructed values); anything else records nothing.
pub fn observe_document(root: &NodeHandle, synopsis: &mut PathSynopsis) {
    observe_impl(root, synopsis, None);
}

/// [`observe_document`] plus structural labeling: `sink` receives
/// `(path hash, pre, post, level)` for **every** element and attribute
/// node (no per-document dedup — label runs need each occurrence).
/// `pre` is the node's arena id, `post` the arena id of its last
/// descendant (its own id for attributes), `level` its depth with the
/// root element at 1. This is the ingest side of the label store's runs
/// and postings (see `xqdb-twig`).
pub fn observe_document_labeled(
    root: &NodeHandle,
    synopsis: &mut PathSynopsis,
    sink: &mut dyn FnMut(u64, u32, u32, u32),
) {
    observe_impl(root, synopsis, Some(sink));
}

fn observe_impl(
    root: &NodeHandle,
    synopsis: &mut PathSynopsis,
    sink: Option<&mut dyn FnMut(u64, u32, u32, u32)>,
) {
    let mut walker = Walker { synopsis, sink, components: Vec::new() };
    match root.kind() {
        NodeKind::Document => {
            for child in root.children() {
                if child.kind() == NodeKind::Element {
                    walker.element(&child, PATH_HASH_SEED);
                }
            }
        }
        NodeKind::Element => walker.element(root, PATH_HASH_SEED),
        _ => {}
    }
}

/// Enumerate a document's distinct rooted paths as rendered strings
/// (`/{ns}a/{ns}b/@c` clark form). Exact — no hashing — for the
/// zero-false-negative property tests.
pub fn document_paths(root: &NodeHandle) -> std::collections::BTreeSet<String> {
    let mut synopsis = PathSynopsis::default();
    observe_document(root, &mut synopsis);
    synopsis.paths.into_values().collect()
}

/// Depth-first synopsis walk: names each path the first time it is seen,
/// records values per occurrence and hands every node's label to the sink.
struct Walker<'a, 's> {
    synopsis: &'a mut PathSynopsis,
    sink: Option<&'s mut dyn FnMut(u64, u32, u32, u32)>,
    components: Vec<(bool, ExpandedName)>,
}

impl Walker<'_, '_> {
    fn visit(&mut self, hash: u64) {
        let components = &self.components;
        self.synopsis.paths.entry(hash).or_insert_with(|| {
            let mut out = String::new();
            for (attr, name) in components {
                render_component(&mut out, *attr, name);
            }
            out
        });
    }

    fn element(&mut self, el: &NodeHandle, parent_hash: u64) {
        let Some(name) = el.name().cloned() else { return };
        let h = extend_element(parent_hash, &name);
        self.components.push((false, name));
        self.visit(h);
        if let Some(sink) = self.sink.as_mut() {
            let post = el.doc.node(el.id).subtree_end.0;
            sink(h, el.id.0, post, self.components.len() as u32);
        }
        // Value statistics mirror what a value index stores: the XDM
        // string value, recorded per occurrence. Only elements with direct
        // text content contribute — purely structural elements (an <order>
        // wrapping its lineitems) carry no value a predicate would compare.
        if el.children().any(|c| c.kind() == NodeKind::Text) {
            self.synopsis.record_value(h, &el.string_value());
        }
        for attr in el.attributes() {
            if let Some(aname) = attr.name().cloned() {
                let ah = extend_attribute(h, &aname);
                self.components.push((true, aname));
                self.visit(ah);
                if let Some(sink) = self.sink.as_mut() {
                    sink(ah, attr.id.0, attr.id.0, self.components.len() as u32);
                }
                self.synopsis.record_value(ah, &attr.string_value());
                self.components.pop();
            }
        }
        for child in el.children() {
            if child.kind() == NodeKind::Element {
                self.element(&child, h);
            }
        }
        self.components.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(xml: &str) -> std::sync::Arc<xqdb_xdm::Document> {
        xqdb_xmlparse::parse_document(xml).unwrap()
    }

    fn hash_path(parts: &[&str]) -> u64 {
        let mut h = PATH_HASH_SEED;
        for p in parts {
            if let Some(attr) = p.strip_prefix('@') {
                h = extend_attribute(h, &ExpandedName::local(attr));
            } else {
                h = extend_element(h, &ExpandedName::local(*p));
            }
        }
        h
    }

    /// A one-column XML table holding `docs`, rowid `i` for `docs[i]`.
    fn table_of(docs: &[&str]) -> crate::table::Table {
        use crate::table::{Column, Table};
        use crate::value::{SqlType, SqlValue};
        let mut t = Table::new("t", vec![Column::new("doc", SqlType::Xml)]);
        for xml in docs {
            t.insert(vec![SqlValue::Xml(doc(xml).root())]).unwrap();
        }
        t
    }

    #[test]
    fn signature_contains_observed_paths() {
        // The posting list of every path the document holds lists its row.
        let t = table_of(&["<order id=\"1\"><lineitem price=\"2\"><product/></lineitem></order>"]);
        for path in [
            vec!["order"],
            vec!["order", "@id"],
            vec!["order", "lineitem"],
            vec!["order", "lineitem", "@price"],
            vec!["order", "lineitem", "product"],
        ] {
            assert_eq!(t.labels().posting(hash_path(&path)), &[0], "missing {path:?}");
        }
        assert!(t.labels().posting(hash_path(&["order", "missing"])).is_empty());
    }

    #[test]
    fn containment_is_subset_of_bits() {
        // A group keeps exactly the rows in every one of its paths' postings.
        let t = table_of(&["<a><b/><c/></a>", "<a><b/></a>", "<a><c/></a>"]);
        let rows = |paths: &[&[&str]]| {
            let lists: Vec<Vec<&[u64]>> =
                paths.iter().map(|p| vec![t.labels().posting(hash_path(p))]).collect();
            xqdb_twig::intersect_postings(&lists, None)
        };
        assert_eq!(rows(&[&["a", "b"]]), vec![0, 1]);
        assert_eq!(rows(&[&["a", "b"], &["a", "c"]]), vec![0]);
        assert_eq!(rows(&[&["a", "b"], &["a", "nope"]]), Vec::<u64>::new());
        assert_eq!(rows(&[&["a"]]), vec![0, 1, 2]);
    }

    #[test]
    fn namespaces_split_path_identity() {
        let t = table_of(&[
            "<order><id/></order>",
            "<o:order xmlns:o=\"http://example.com/o\"><o:id/></o:order>",
        ]);
        let ns = ExpandedName::ns("http://example.com/o", "order");
        let h_plain = extend_element(PATH_HASH_SEED, &ExpandedName::local("order"));
        let h_ns = extend_element(PATH_HASH_SEED, &ns);
        assert_ne!(h_plain, h_ns);
        assert_eq!(t.labels().posting(h_plain), &[0]);
        assert_eq!(t.labels().posting(h_ns), &[1]);
    }

    #[test]
    fn a_path_sharing_a_signature_bit_is_counted_per_document() {
        // `/r/qN` has the same hash modulo 256 as `/r/p` (it would have set
        // the same bit of a 256-bit signature); its row count, the posting
        // length of `/r/p`, stays exact through a delete.
        let p = hash_path(&["r", "p"]);
        let q = (0..)
            .map(|i| format!("q{i}"))
            .find(|q| hash_path(&["r", q]) % 256 == p % 256)
            .unwrap();
        let mut t = table_of(&["<r><p/></r>", &format!("<r><{q}/><p/></r>")]);
        t.delete_row(1).unwrap();
        assert_eq!(t.labels().posting(p), &[0]);
        assert!(t.labels().posting(hash_path(&["r", &q])).is_empty());
    }

    #[test]
    fn synopsis_interns_distinct_paths_once() {
        let mut syn = PathSynopsis::default();
        let d = doc("<a><b/><b/><b x=\"1\"/></a>");
        observe_document(&d.root(), &mut syn);
        let paths: std::collections::BTreeSet<&str> = syn.keyed_paths().map(|(p, _)| p).collect();
        assert_eq!(
            paths.into_iter().collect::<Vec<_>>(),
            vec!["/a", "/a/b", "/a/b/@x"]
        );
    }

    #[test]
    fn document_paths_render_clark_form() {
        let d = doc("<o:a xmlns:o=\"urn:x\"><b/></o:a>");
        let paths = document_paths(&d.root());
        assert!(paths.contains("/{urn:x}a"));
        assert!(paths.contains("/{urn:x}a/b"));
    }

    #[test]
    fn keyed_paths_key_is_the_rendered_hash() {
        let mut syn = PathSynopsis::default();
        let d = doc("<o:a xmlns:o=\"urn:x\" k=\"1\"><b><c/></b></o:a>");
        observe_document(&d.root(), &mut syn);
        let keyed: Vec<(&str, u64)> = syn.keyed_paths().collect();
        assert_eq!(keyed.len(), 4);
        for (rendered, hash) in keyed {
            assert_eq!(hash, hash_rendered_path(rendered), "{rendered}");
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [0.5, 1.0, 1.3, 2.0, 99.5, 250.0, 1e300, 5e-324, -7.25, -1e9] {
            let b = value_bucket(v);
            let (lo, hi) = bucket_bounds(b);
            assert!(lo <= v && v < hi || v == f64::MAX, "{v} outside [{lo}, {hi}) of bucket {b}");
        }
        assert_eq!(value_bucket(0.0), 0);
        assert_eq!(bucket_bounds(0), (0.0, 0.0));
        // Sign symmetry.
        assert_eq!(value_bucket(-3.0), -value_bucket(3.0));
    }

    #[test]
    fn value_stats_observed_per_occurrence() {
        let mut syn = PathSynopsis::default();
        let d = doc(r#"<o><li price="250"/><li price="50"/><note>hi</note></o>"#);
        observe_document(&d.root(), &mut syn);
        let price = hash_path(&["o", "li", "@price"]);
        let stats = syn.value_stats(price).unwrap();
        assert_eq!(stats.total(), 2);
        assert_eq!(stats.numeric(), 2);
        assert!(stats.estimate_range(Some(100.0), None) >= 1.0);
        assert!(stats.estimate_range(Some(1000.0), None) < 0.5);
        let note = hash_path(&["o", "note"]);
        let nstats = syn.value_stats(note).unwrap();
        assert_eq!(nstats.total(), 1);
        assert_eq!(nstats.numeric(), 0);
        // The structural wrapper has no direct text, hence no stats.
        assert!(syn.value_stats(hash_path(&["o"])).is_none());
        assert!(syn.stats_complete());
    }

    #[test]
    fn subtract_stats_restores_exactly() {
        let mut syn = PathSynopsis::default();
        let d1 = doc(r#"<o><li price="250"/></o>"#);
        let d2 = doc(r#"<o><li price="50"/><li price="250"/></o>"#);
        observe_document(&d1.root(), &mut syn);
        observe_document(&d2.root(), &mut syn);
        // Remove d2's contribution via a scratch observation.
        let mut scratch = PathSynopsis::default();
        observe_document(&d2.root(), &mut scratch);
        syn.subtract_stats_of(&scratch);
        // What remains must equal a fresh observation of d1 alone.
        let mut oracle = PathSynopsis::default();
        observe_document(&d1.root(), &mut oracle);
        let price = hash_path(&["o", "li", "@price"]);
        assert_eq!(syn.value_stats(price), oracle.value_stats(price));
        // Remove d1 too: the stats entry disappears entirely.
        let mut scratch1 = PathSynopsis::default();
        observe_document(&d1.root(), &mut scratch1);
        syn.subtract_stats_of(&scratch1);
        assert!(syn.value_stats(price).is_none());
    }

    #[test]
    fn distinct_estimate_tracks_cardinality() {
        let mut stats = ValueStats::default();
        for i in 0..20 {
            stats.observe(&format!("v{i}"));
            stats.observe(&format!("v{i}")); // duplicate occurrences
        }
        let est = stats.distinct_estimate();
        assert!((5.0..80.0).contains(&est), "estimate {est} for 20 distinct");
        // Repeats don't inflate the estimate: same slots stay occupied.
        let mut rep = ValueStats::default();
        for _ in 0..40 {
            rep.observe("only");
        }
        assert!(rep.distinct_estimate() <= 3.0);
        assert!(rep.estimate_eq_lexical() > 10.0);
    }

    #[test]
    fn manifest_rehydration_marks_stats_incomplete() {
        let mut syn = PathSynopsis::default();
        let d = doc(r#"<a x="1"/>"#);
        observe_document(&d.root(), &mut syn);
        let rehydrated = PathSynopsis::from_paths(syn.keyed_paths().map(|(p, _)| p));
        assert!(!rehydrated.stats_complete());
        assert!(rehydrated.value_stats(hash_path(&["a", "@x"])).is_none());
        let mut keyed: Vec<(&str, u64)> = rehydrated.keyed_paths().collect();
        let mut want: Vec<(&str, u64)> = syn.keyed_paths().collect();
        keyed.sort_unstable();
        want.sort_unstable();
        assert_eq!(keyed, want);
    }

    #[test]
    fn mixed_content_element_value_is_string_value() {
        // Mirrors the index: <price>99.50<currency>USD</currency></price>
        // stores "99.50USD" (Section 3.8), which does not parse as numeric.
        let mut syn = PathSynopsis::default();
        let d = doc("<o><price>99.50<currency>USD</currency></price></o>");
        observe_document(&d.root(), &mut syn);
        let price = hash_path(&["o", "price"]);
        let stats = syn.value_stats(price).unwrap();
        assert_eq!(stats.total(), 1);
        assert_eq!(stats.numeric(), 0);
        let cur = hash_path(&["o", "price", "currency"]);
        assert_eq!(syn.value_stats(cur).unwrap().numeric(), 0);
    }

    #[test]
    fn non_element_root_is_empty() {
        let d = doc("<a>text</a>");
        let mut syn = PathSynopsis::default();
        observe_document(&d.root(), &mut syn);
        assert_eq!(syn.len(), 1);
        // A text node is not a document/element root: it records nothing.
        let text = d.root().children().next().unwrap().children().next().unwrap();
        assert_eq!(text.kind(), NodeKind::Text);
        let mut empty = PathSynopsis::default();
        observe_document(&text, &mut empty);
        assert!(empty.is_empty());
    }
}
