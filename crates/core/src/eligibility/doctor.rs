//! The query doctor: maps eligibility failures to the paper's Tips.
//!
//! The eligibility analysis (Definition 1) already records *that* a
//! candidate predicate found no serving index, and the extractor records
//! *that* a predicate sat in a non-filtering position. The doctor closes the
//! loop with the paper's usability catalogue: every rejection and note is
//! classified as a [`Pitfall`] carrying the Tip number and rule name from
//! Sections 3.1–3.9, so `EXPLAIN ANALYZE` and traces can print a one-line
//! "index `idx` not used: <Tip N reason>" diagnosis instead of leaving the
//! user to intuit why a full scan happened.
//!
//! Containment failures are refined by *re-running* the Definition 1 check
//! on relaxed inputs: if the query path fits the pattern once namespaces
//! are wildcarded, the pitfall is namespace misalignment (Tip 10); if both
//! sides agree after aligning the final `text()` step, it is text-step
//! misalignment (Tip 11); an attribute-axis disagreement on the final step
//! is Tip 12. Only when no relaxation helps does the generic Definition 1
//! diagnosis remain.

use std::fmt;

use xqdb_xquery::ast::{Axis, KindTest, NameTest, NodeTest, NsTest};
use xqdb_xquery::PatternStep;

use super::candidates::Note;
use super::containment::path_contained_in;

/// A classified eligibility pitfall, keyed to the paper's Tips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pitfall {
    /// Section 3.1 — the comparison's dynamic type does not match the index
    /// type (e.g. a numeric predicate against a `varchar` index).
    TypeMismatch,
    /// Section 3.2 — an indexable predicate sits in the XMLQUERY select
    /// list, where emptiness cannot eliminate rows.
    SelectListPredicate,
    /// Section 3.2 — the XMLEXISTS argument returns a boolean, which is
    /// never empty, so XMLEXISTS is constant-true.
    BooleanXmlExists,
    /// Section 3.2 — a predicate sits in an XMLTABLE column expression
    /// instead of the row-producing expression.
    XmlTableColumnPredicate,
    /// Sections 3.4/3.6 — the predicate is guarded by a node constructor
    /// (or an unconsumed `let`), so empty results survive construction.
    ConstructionBarrier,
    /// Section 3.7 — the query path and the XMLPATTERN disagree only on
    /// namespaces.
    NamespaceMismatch,
    /// Section 3.8 — the query path and the XMLPATTERN disagree on the
    /// trailing `text()` step.
    TextStepMismatch,
    /// Section 3.9 — the query targets an attribute the pattern's final
    /// step does not index (or vice versa).
    AttributeAxisMismatch,
    /// Definition 1 — the query path is simply not contained in the
    /// XMLPATTERN (no specific tip applies).
    PathNotContained,
    /// A `!=` predicate: its matches are a range complement, which one
    /// B+Tree scan cannot produce.
    NotEqualsPredicate,
    /// No XML index exists on the source at all.
    NoIndex,
    /// An indexable predicate in some other non-filtering position.
    NonFilteringContext,
    /// A cached plan's cardinality estimate was >4× off the actual row
    /// count: the synopsis statistics it was costed against may no longer
    /// describe the data.
    Misestimate,
    /// A plan costed in this statement was >4× off. Its statistics are
    /// current (maintained on every insert and delete), so the gap is the
    /// estimator's resolution, not staleness.
    CoarseEstimate,
}

impl Pitfall {
    /// The paper Tip this pitfall corresponds to, if one does.
    pub fn tip(self) -> Option<u8> {
        match self {
            Pitfall::TypeMismatch => Some(1),
            Pitfall::SelectListPredicate => Some(2),
            Pitfall::BooleanXmlExists => Some(3),
            Pitfall::XmlTableColumnPredicate => Some(4),
            Pitfall::ConstructionBarrier => Some(9),
            Pitfall::NamespaceMismatch => Some(10),
            Pitfall::TextStepMismatch => Some(11),
            Pitfall::AttributeAxisMismatch => Some(12),
            Pitfall::PathNotContained
            | Pitfall::NotEqualsPredicate
            | Pitfall::NoIndex
            | Pitfall::NonFilteringContext
            | Pitfall::Misestimate
            | Pitfall::CoarseEstimate => None,
        }
    }

    /// Stable rule name (used in traces and the DESIGN.md doctor table).
    pub fn rule_name(self) -> &'static str {
        match self {
            Pitfall::TypeMismatch => "type-mismatch",
            Pitfall::SelectListPredicate => "select-list-predicate",
            Pitfall::BooleanXmlExists => "boolean-xmlexists",
            Pitfall::XmlTableColumnPredicate => "xmltable-column-predicate",
            Pitfall::ConstructionBarrier => "construction-barrier",
            Pitfall::NamespaceMismatch => "namespace-mismatch",
            Pitfall::TextStepMismatch => "text-step-mismatch",
            Pitfall::AttributeAxisMismatch => "attribute-axis-mismatch",
            Pitfall::PathNotContained => "path-not-contained",
            Pitfall::NotEqualsPredicate => "not-equals-predicate",
            Pitfall::NoIndex => "no-index",
            Pitfall::NonFilteringContext => "non-filtering-context",
            Pitfall::Misestimate => "cost-misestimate",
            Pitfall::CoarseEstimate => "cost-resolution",
        }
    }

    /// The paper's advice, one line.
    pub fn advice(self) -> &'static str {
        match self {
            Pitfall::TypeMismatch => {
                "match the comparison type to the index type, e.g. via an explicit cast (Tip 1, Section 3.1)"
            }
            Pitfall::SelectListPredicate => {
                "move the predicate out of the select list; filter in XMLEXISTS or use standalone XQuery (Tip 2, Section 3.2)"
            }
            Pitfall::BooleanXmlExists => {
                "XMLEXISTS needs a node sequence, not a boolean; drop the comparison into a path predicate (Tip 3, Section 3.2)"
            }
            Pitfall::XmlTableColumnPredicate => {
                "put the predicate in the XMLTABLE row-producing expression, not a column expression (Tip 4, Section 3.2)"
            }
            Pitfall::ConstructionBarrier => {
                "apply predicates before constructing new nodes (Tip 9, Section 3.6; see also Tip 7, Section 3.4)"
            }
            Pitfall::NamespaceMismatch => {
                "align the query's namespaces with the XMLPATTERN's (Tip 10, Section 3.7)"
            }
            Pitfall::TextStepMismatch => {
                "use the same text() step in the query and the XMLPATTERN (Tip 11, Section 3.8)"
            }
            Pitfall::AttributeAxisMismatch => {
                "index attributes with an attribute-axis XMLPATTERN such as //@* (Tip 12, Section 3.9)"
            }
            Pitfall::PathNotContained => {
                "the index would miss nodes the query can reach; create an index whose XMLPATTERN contains the query path (Definition 1)"
            }
            Pitfall::NotEqualsPredicate => {
                "a != predicate selects a range complement; no single index range scan answers it"
            }
            Pitfall::NoIndex => "create an XML index on this column to pre-filter the collection",
            Pitfall::NonFilteringContext => {
                "move the predicate into a position where an empty result removes the document (Sections 3.2-3.6)"
            }
            Pitfall::Misestimate => {
                "the cardinality estimate is >4x off; statistics may be stale — heavy churn re-costs cached plans automatically"
            }
            Pitfall::CoarseEstimate => {
                "the cardinality estimate is >4x off on current statistics: the log-scale histogram (4 buckets per power of two) and the distinct sketch cannot resolve this range more finely"
            }
        }
    }

    /// The `Tip N`/rule label used in one-line diagnoses.
    pub fn label(self) -> String {
        match self.tip() {
            Some(n) => format!("Tip {n}"),
            None => format!("rule {}", self.rule_name()),
        }
    }
}

/// One structured rejection reason: the classified pitfall plus the
/// human-readable detail the eligibility check produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectReason {
    /// The classified pitfall.
    pub pitfall: Pitfall,
    /// The index that could not serve the predicate (`None` when no index
    /// exists on the source at all).
    pub index: Option<String>,
    /// Human-readable detail (index name prefix included, as EXPLAIN
    /// renders reasons verbatim).
    pub detail: String,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

/// One doctor diagnosis, printable as
/// `index `idx` not used: <Tip N reason>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// The classified pitfall.
    pub pitfall: Pitfall,
    /// The index that was not used, when one was considered.
    pub index: Option<String>,
    /// The predicate or candidate the diagnosis is about.
    pub subject: String,
    /// Whether the run actually probed an index. Only a misestimate can
    /// come with one; a rejection always describes an index left unused.
    pub index_used: bool,
}

impl Diagnosis {
    /// Render the one-line diagnosis.
    pub fn render(&self) -> String {
        let head = match (&self.index, self.pitfall) {
            (_, Pitfall::Misestimate | Pitfall::CoarseEstimate) if self.index_used => {
                "index used, misestimated".to_string()
            }
            (_, Pitfall::Misestimate | Pitfall::CoarseEstimate) => "index not used".to_string(),
            (Some(idx), _) => format!("index `{idx}` not used"),
            (None, _) => "no index used".to_string(),
        };
        format!(
            "{head}: {} ({}) on {} — {}",
            self.pitfall.label(),
            self.pitfall.rule_name(),
            self.subject,
            self.pitfall.advice()
        )
    }
}

/// Classify a Definition 1 containment failure by re-checking relaxed
/// variants of the query path against the pattern.
pub fn classify_containment_failure(
    query: &[PatternStep],
    pattern: &[PatternStep],
) -> Pitfall {
    // Tip 12: the final steps disagree on the attribute axis — the pattern
    // indexes no attributes (or only attributes) while the query targets
    // the other kind.
    if targets_attribute(query) != targets_attribute(pattern) {
        return Pitfall::AttributeAxisMismatch;
    }
    // Tip 11: stripping a trailing text() step from whichever side has one
    // makes containment hold.
    let q_text = ends_with_text(query);
    let p_text = ends_with_text(pattern);
    if q_text != p_text {
        let q_stripped = strip_trailing_text(query);
        let p_stripped = strip_trailing_text(pattern);
        if path_contained_in(&q_stripped, &p_stripped) {
            return Pitfall::TextStepMismatch;
        }
    }
    // Tip 10: wildcarding every namespace constraint on both sides makes
    // containment hold — the paths agree except for namespaces.
    let q_nons = wildcard_namespaces(query);
    let p_nons = wildcard_namespaces(pattern);
    if path_contained_in(&q_nons, &p_nons) {
        return Pitfall::NamespaceMismatch;
    }
    Pitfall::PathNotContained
}

/// Classify an analyzer [`Note`] (non-filtering diagnostics).
pub fn classify_note(note: &Note) -> Pitfall {
    match note {
        Note::BooleanXmlExists => Pitfall::BooleanXmlExists,
        Note::ConstructionBarrier { .. } => Pitfall::ConstructionBarrier,
        Note::NonFilteringContext { place, .. } => match *place {
            "XMLQUERY select list" => Pitfall::SelectListPredicate,
            "XMLTABLE column expression" => Pitfall::XmlTableColumnPredicate,
            _ => Pitfall::NonFilteringContext,
        },
    }
}

/// The subject string of a note (what the diagnosis is about).
pub fn note_subject(note: &Note) -> String {
    match note {
        Note::BooleanXmlExists => "the XMLEXISTS argument".to_string(),
        Note::ConstructionBarrier { detail } => detail.clone(),
        Note::NonFilteringContext { detail, .. } => detail.clone(),
    }
}

fn is_attribute_step(step: &PatternStep) -> bool {
    step.axis == Axis::Attribute
        || matches!(step.test, NodeTest::Kind(KindTest::Attribute(_)))
}

fn targets_attribute(steps: &[PatternStep]) -> bool {
    steps.last().is_some_and(is_attribute_step)
}

fn ends_with_text(steps: &[PatternStep]) -> bool {
    matches!(steps.last().map(|s| &s.test), Some(NodeTest::Kind(KindTest::Text)))
}

fn strip_trailing_text(steps: &[PatternStep]) -> Vec<PatternStep> {
    let mut out = steps.to_vec();
    if ends_with_text(&out) {
        out.pop();
    }
    out
}

fn wildcard_namespaces(steps: &[PatternStep]) -> Vec<PatternStep> {
    steps
        .iter()
        .map(|s| {
            let test = match &s.test {
                NodeTest::Name(nt) => {
                    NodeTest::Name(NameTest { ns: NsTest::Any, local: nt.local.clone() })
                }
                NodeTest::Kind(KindTest::Element(Some(nt))) => NodeTest::Kind(
                    KindTest::Element(Some(NameTest { ns: NsTest::Any, local: nt.local.clone() })),
                ),
                NodeTest::Kind(KindTest::Attribute(Some(nt))) => NodeTest::Kind(
                    KindTest::Attribute(Some(NameTest {
                        ns: NsTest::Any,
                        local: nt.local.clone(),
                    })),
                ),
                other => other.clone(),
            };
            PatternStep { axis: s.axis, test }
        })
        .collect()
}

/// Flag a costed plan whose estimate diverged >4× from the actual row
/// count in either direction. Tiny absolute gaps (both sides < 8 rows) are
/// noise from histogram granularity, not staleness, and stay silent.
/// `index_used` says whether the run probed an index (its `index_probes`
/// counter), which picks the headline. `fresh` says the plan was costed in
/// this statement rather than taken from a plan cache: its statistics are
/// then current, so the gap is blamed on estimator resolution
/// ([`Pitfall::CoarseEstimate`]); only a cached plan can be stale
/// ([`Pitfall::Misestimate`]).
pub fn diagnose_misestimate(
    est: u64,
    actual: u64,
    index_used: bool,
    fresh: bool,
) -> Option<Diagnosis> {
    let hi = est.max(actual);
    let lo = est.min(actual);
    if hi < 8 || hi <= lo.saturating_mul(4) {
        return None;
    }
    Some(Diagnosis {
        pitfall: if fresh { Pitfall::CoarseEstimate } else { Pitfall::Misestimate },
        index: None,
        subject: format!("cost estimate {est} row(s) vs actual {actual}"),
        index_used,
    })
}

/// All diagnoses for a planned query: one per rejection reason, one per
/// non-filtering note.
pub fn diagnose(rejections: &[super::Rejection], notes: &[Note]) -> Vec<Diagnosis> {
    let mut out = Vec::new();
    for r in rejections {
        for reason in &r.reasons {
            out.push(Diagnosis {
                pitfall: reason.pitfall,
                index: reason.index.clone(),
                subject: r.candidate.clone(),
                index_used: false,
            });
        }
    }
    for n in notes {
        out.push(Diagnosis {
            pitfall: classify_note(n),
            index: None,
            subject: note_subject(n),
            index_used: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqdb_xquery::parse_pattern;

    fn steps(p: &str) -> Vec<PatternStep> {
        parse_pattern(p).expect("test pattern parses").steps
    }

    #[test]
    fn tips_map_to_expected_numbers() {
        assert_eq!(Pitfall::TypeMismatch.tip(), Some(1));
        assert_eq!(Pitfall::SelectListPredicate.tip(), Some(2));
        assert_eq!(Pitfall::BooleanXmlExists.tip(), Some(3));
        assert_eq!(Pitfall::XmlTableColumnPredicate.tip(), Some(4));
        assert_eq!(Pitfall::ConstructionBarrier.tip(), Some(9));
        assert_eq!(Pitfall::NamespaceMismatch.tip(), Some(10));
        assert_eq!(Pitfall::TextStepMismatch.tip(), Some(11));
        assert_eq!(Pitfall::AttributeAxisMismatch.tip(), Some(12));
        assert_eq!(Pitfall::NoIndex.tip(), None);
    }

    #[test]
    fn text_step_mismatch_is_tip_11() {
        // Query compares //comment/text(), pattern indexes //comment.
        let q = steps("//comment/text()");
        let p = steps("//comment");
        assert!(!path_contained_in(&q, &p));
        assert_eq!(classify_containment_failure(&q, &p), Pitfall::TextStepMismatch);
        // And the other orientation.
        let q = steps("//comment");
        let p = steps("//comment/text()");
        assert_eq!(classify_containment_failure(&q, &p), Pitfall::TextStepMismatch);
    }

    #[test]
    fn attribute_axis_mismatch_is_tip_12() {
        let q = steps("//lineitem/@price");
        let p = steps("//lineitem/price");
        assert_eq!(classify_containment_failure(&q, &p), Pitfall::AttributeAxisMismatch);
    }

    #[test]
    fn unrelated_paths_stay_generic() {
        let q = steps("//customer/name");
        let p = steps("//order/id");
        assert_eq!(classify_containment_failure(&q, &p), Pitfall::PathNotContained);
    }

    #[test]
    fn diagnosis_renders_one_line() {
        let d = Diagnosis {
            pitfall: Pitfall::TypeMismatch,
            index: Some("li_price".to_string()),
            subject: "//lineitem/@price > 100".to_string(),
            index_used: false,
        };
        let line = d.render();
        assert!(line.starts_with("index `li_price` not used: Tip 1 (type-mismatch)"));
        assert!(line.contains("Section 3.1"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn misestimate_headline_says_whether_an_index_ran() {
        let used = diagnose_misestimate(106, 10, true, false).expect("10x off");
        assert!(
            used.render().starts_with("index used, misestimated: rule cost-misestimate"),
            "{}",
            used.render()
        );
        let scan = diagnose_misestimate(106, 10, false, false).expect("10x off");
        assert!(
            scan.render().starts_with("index not used: rule cost-misestimate"),
            "{}",
            scan.render()
        );
        assert!(diagnose_misestimate(10, 12, true, false).is_none());
    }

    #[test]
    fn only_a_cached_plan_is_called_stale() {
        let cached = diagnose_misestimate(307, 27, true, false).expect("11x off").render();
        assert!(cached.contains("rule cost-misestimate") && cached.contains("stale"), "{cached}");
        let fresh = diagnose_misestimate(307, 27, true, true).expect("11x off").render();
        assert!(fresh.contains("rule cost-resolution") && !fresh.contains("stale"), "{fresh}");
        assert!(fresh.starts_with("index used, misestimated"), "{fresh}");
    }

    #[test]
    fn note_classification() {
        assert_eq!(classify_note(&Note::BooleanXmlExists), Pitfall::BooleanXmlExists);
        assert_eq!(
            classify_note(&Note::ConstructionBarrier { detail: "x".into() }),
            Pitfall::ConstructionBarrier
        );
        assert_eq!(
            classify_note(&Note::NonFilteringContext {
                place: "XMLQUERY select list",
                detail: "x".into()
            }),
            Pitfall::SelectListPredicate
        );
        assert_eq!(
            classify_note(&Note::NonFilteringContext {
                place: "XMLTABLE column expression",
                detail: "x".into()
            }),
            Pitfall::XmlTableColumnPredicate
        );
    }
}
