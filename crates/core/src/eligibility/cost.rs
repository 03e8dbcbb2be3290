//! Selectivity estimation from the path synopsis (ROADMAP item 1).
//!
//! The eligibility check (Definition 1) is binary: an index either covers a
//! candidate path or it does not. When several indexes are eligible the
//! rule-based planner takes the first by catalog order, so a broad `//@*`
//! index can beat a narrow one purely by CREATE INDEX order. This module
//! supplies the missing quantity: for each eligible index, *how many index
//! entries would the probe touch*, estimated from the per-path value
//! histograms the table's [`PathSynopsis`] maintains incrementally on
//! INSERT/DELETE/REPLACE.
//!
//! Every estimate is advisory: probes remain conservative pre-filters, so a
//! misestimate can only cost time, never rows (Definition 1). That is what
//! makes the costed planner safe to switch off (`AccessConfig::cost`) and to
//! compare byte-for-byte against the rule-based one in
//! `tests/access_oracle.rs`.

use std::ops::Bound;

use xqdb_storage::PathSynopsis;
use xqdb_twig::LabelStore;
use xqdb_xdm::AtomicValue;
use xqdb_xmlindex::{IndexType, ProbeRange, XmlIndex};
use xqdb_xquery::ast::{Axis, KindTest, LocalTest, NameTest, NodeTest, NsTest};
use xqdb_xquery::PatternStep;

use super::containment::path_contained_in;

/// Planning-time statistics for one collection (a `TABLE.COLUMN` source).
///
/// Built by the catalog only when the table's synopsis has complete value
/// statistics — after manifest adoption of unparsed rows the stats are
/// sticky-incomplete and the planner falls back to rule-based choice.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    /// Live documents in the collection (rows minus tombstones).
    pub docs: u64,
    /// Heap pages backing the table — the I/O proxy for the scan side of
    /// the three-way probe / prefilter-scan / full-scan choice.
    pub pages: u64,
    /// The owning table's path synopsis with per-path value histograms.
    pub synopsis: &'a PathSynopsis,
    /// The owning table's labels: a path's posting length is its
    /// document count.
    pub labels: &'a LabelStore,
}

/// An estimate attached to a compiled access condition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Est {
    /// Estimated index entries touched by the probe(s).
    pub entries: f64,
    /// Estimated documents surviving the probe(s) (rows fetched).
    pub rows: f64,
}

/// Estimate how many index entries a probe of `idx` with `range` scans.
///
/// Sums per-path estimates over every synopsis path whose nodes the index
/// pattern covers; a path without value statistics contributes its full
/// document count (conservative — overestimates never starve the index of
/// use, they only push the choice toward the scan).
pub fn estimate_probe_entries(
    model: &CostModel<'_>,
    idx: &XmlIndex,
    range: &ProbeRange,
) -> f64 {
    let mut paths: Vec<(&str, u64)> = model.synopsis.keyed_paths().collect();
    paths.sort_unstable();
    let mut total = 0.0;
    for (path, hash) in paths {
        let docs = model.labels.posting(hash).len();
        if docs == 0 {
            continue;
        }
        let Some(steps) = rendered_path_steps(path) else { continue };
        if !pattern_covers(&steps, &idx.pattern.steps) {
            continue;
        }
        total += match model.synopsis.value_stats(hash) {
            Some(s) => estimate_in_range(s, range, idx.ty),
            None => docs as f64,
        };
    }
    total
}

/// Does the index pattern cover nodes at this (fully concrete, linear)
/// synopsis path? Containment of a concrete path in a pattern *is* the
/// match test, so the Definition 1 checker doubles as the matcher. A
/// trailing `text()` retry aligns element-valued synopsis paths with
/// `/text()` index patterns (the Section 3.8 pairing).
fn pattern_covers(path: &[PatternStep], pattern: &[PatternStep]) -> bool {
    if path_contained_in(path, pattern) {
        return true;
    }
    let mut with_text = path.to_vec();
    with_text.push(PatternStep {
        axis: Axis::Child,
        test: NodeTest::Kind(KindTest::Text),
    });
    path_contained_in(&with_text, pattern)
}

/// Parse a synopsis-rendered path (`/a/{uri}b/@c`) back into linear
/// pattern steps. URIs may contain `/`, so components are scanned, not
/// split: a `{` after the step prefix runs to its closing `}`.
fn rendered_path_steps(path: &str) -> Option<Vec<PatternStep>> {
    let mut steps = Vec::new();
    let bytes = path.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'/' {
            return None;
        }
        i += 1;
        let attribute = bytes.get(i) == Some(&b'@');
        if attribute {
            i += 1;
        }
        let mut ns = NsTest::NoNamespace;
        if bytes.get(i) == Some(&b'{') {
            let close = path[i..].find('}').map(|p| i + p)?;
            ns = NsTest::Uri(path[i + 1..close].into());
            i = close + 1;
        }
        let start = i;
        while i < bytes.len() && bytes[i] != b'/' {
            i += 1;
        }
        if start == i {
            return None;
        }
        steps.push(PatternStep {
            axis: if attribute { Axis::Attribute } else { Axis::Child },
            test: NodeTest::Name(NameTest {
                ns,
                local: LocalTest::Name(path[start..i].into()),
            }),
        });
    }
    if steps.is_empty() {
        None
    } else {
        Some(steps)
    }
}

fn bound_f64(b: &Bound<AtomicValue>) -> Option<f64> {
    match b {
        Bound::Included(v) | Bound::Excluded(v) => {
            v.as_f64().or_else(|| v.lexical().trim().parse::<f64>().ok())
        }
        Bound::Unbounded => None,
    }
}

/// Estimate entries in `range` against one path's value statistics.
fn estimate_in_range(s: &xqdb_storage::ValueStats, range: &ProbeRange, ty: IndexType) -> f64 {
    let unb_lo = matches!(range.lo, Bound::Unbounded);
    let unb_hi = matches!(range.hi, Bound::Unbounded);
    if unb_lo && unb_hi {
        // Structural scan: every entry under the path.
        return s.total() as f64;
    }
    // Point probe?
    if let (Bound::Included(lo), Bound::Included(hi)) = (&range.lo, &range.hi) {
        if lo == hi {
            return match ty {
                IndexType::Double => match bound_f64(&range.lo) {
                    Some(v) => s.estimate_eq(v),
                    None => s.estimate_eq_lexical(),
                },
                _ => s.estimate_eq_lexical(),
            };
        }
    }
    // Open or closed range. The histogram is numeric; lexical ranges
    // (varchar/date/timestamp indexes) get a fixed 1/3 selectivity
    // heuristic, as do numeric ranges whose bound does not parse.
    if ty == IndexType::Double {
        let lo = bound_f64(&range.lo);
        let hi = bound_f64(&range.hi);
        if (lo.is_some() || unb_lo) && (hi.is_some() || unb_hi) {
            return s.estimate_range(lo, hi);
        }
    }
    s.total() as f64 / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqdb_xquery::parse_pattern;

    #[test]
    fn rendered_paths_parse_to_steps() {
        let steps = rendered_path_steps("/a/b/@c").expect("parses");
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[2].axis, Axis::Attribute);
        let ns = rendered_path_steps("/{http://ex.com/ns}a/b").expect("parses");
        match &ns[0].test {
            NodeTest::Name(NameTest { ns: NsTest::Uri(u), local: LocalTest::Name(l) }) => {
                assert_eq!(&**u, "http://ex.com/ns");
                assert_eq!(&**l, "a");
            }
            other => panic!("unexpected test: {other:?}"),
        }
        assert!(rendered_path_steps("").is_none());
        assert!(rendered_path_steps("no-slash").is_none());
    }

    #[test]
    fn concrete_paths_match_patterns_via_containment() {
        let path = rendered_path_steps("/items/item/@price").expect("parses");
        assert!(pattern_covers(&path, &parse_pattern("//@price").expect("p").steps));
        assert!(pattern_covers(&path, &parse_pattern("//item/@price").expect("p").steps));
        assert!(!pattern_covers(&path, &parse_pattern("//item/@qty").expect("p").steps));
        // Element path with a /text() index pattern (Section 3.8 pairing).
        let el = rendered_path_steps("/items/item/price").expect("parses");
        assert!(pattern_covers(&el, &parse_pattern("//price/text()").expect("p").steps));
    }
}
