//! Index eligibility: matching extracted conditions against the catalog's
//! XML indexes (Definition 1 of the paper).

pub mod candidates;
pub mod containment;
pub mod cost;
pub mod doctor;

use std::collections::BTreeSet;
use std::ops::Bound;

use xqdb_xdm::compare::CompareOp;
use xqdb_xdm::{Budget, XdmError};
use xqdb_xmlindex::{ProbeRange, ProbeStats, XmlIndex};

pub use candidates::{render_cond, render_steps, AnalysisEnv, Candidate, CmpTarget, Cond, Note};
pub use containment::path_contained_in;
pub use cost::{estimate_probe_entries, CostModel, Est};
pub use doctor::{diagnose, diagnose_misestimate, Diagnosis, Pitfall, RejectReason};

/// A compiled index-access condition for one collection.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexCond {
    /// One B+Tree range scan.
    Probe {
        /// Index name.
        index: String,
        /// Value range.
        range: ProbeRange,
        /// Human-readable description for EXPLAIN.
        desc: String,
    },
    /// Row-set intersection.
    And(Vec<IndexCond>),
    /// Row-set union.
    Or(Vec<IndexCond>),
}

impl IndexCond {
    /// Render for EXPLAIN output.
    pub fn render(&self) -> String {
        match self {
            IndexCond::Probe { index, desc, .. } => format!("PROBE {index} [{desc}]"),
            IndexCond::And(cs) => {
                let parts: Vec<String> = cs.iter().map(IndexCond::render).collect();
                format!("AND({})", parts.join(", "))
            }
            IndexCond::Or(cs) => {
                let parts: Vec<String> = cs.iter().map(IndexCond::render).collect();
                format!("OR({})", parts.join(", "))
            }
        }
    }

    /// Evaluate against the given indexes, producing the matching rows.
    ///
    /// Fallible by design: a probe can trip the budget (`ResourceExhausted`
    /// / `Cancelled`), hit an injected or real index fault
    /// (`StorageFault`), or reference an index missing from the catalog
    /// (`Internal` — a planner bug, reported instead of panicking). The
    /// engine degrades `StorageFault` to a collection scan.
    pub fn execute(
        &self,
        indexes: &[&XmlIndex],
        stats: &mut ProbeStats,
        budget: &Budget,
    ) -> Result<BTreeSet<u64>, XdmError> {
        match self {
            IndexCond::Probe { index, range, .. } => {
                let idx = indexes.iter().find(|i| i.name == *index).ok_or_else(|| {
                    XdmError::internal(format!(
                        "compiled probe references unknown index {index}"
                    ))
                })?;
                let (rows, s) = idx.probe_guarded(range, budget)?;
                stats.entries_scanned += s.entries_scanned;
                stats.nodes_touched += s.nodes_touched;
                stats.probes += 1;
                Ok(rows)
            }
            IndexCond::And(cs) => {
                let mut iter = cs.iter();
                let mut acc = match iter.next() {
                    Some(c) => c.execute(indexes, stats, budget)?,
                    None => BTreeSet::new(),
                };
                for c in iter {
                    if acc.is_empty() {
                        break;
                    }
                    let rows = c.execute(indexes, stats, budget)?;
                    acc = acc.intersection(&rows).copied().collect();
                    stats.intersections += 1;
                }
                Ok(acc)
            }
            IndexCond::Or(cs) => {
                let mut acc = BTreeSet::new();
                for c in cs {
                    acc.extend(c.execute(indexes, stats, budget)?);
                }
                Ok(acc)
            }
        }
    }
}

/// Why a candidate could not be served by any index.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// Rendering of the candidate.
    pub candidate: String,
    /// Per-index failure reasons (or a blanket "no indexes on source"),
    /// each classified by the query doctor.
    pub reasons: Vec<RejectReason>,
}

/// Result of compiling a condition for one collection.
#[derive(Debug, Clone, Default)]
pub struct Compilation {
    /// The access condition, if any index combination pre-filters.
    pub access: Option<IndexCond>,
    /// Candidates that could not be served, with reasons.
    pub rejections: Vec<Rejection>,
    /// (candidate, eligible index) pairs scored by the cost model.
    pub candidates_costed: u64,
    /// Estimated rows fetched by `access`, when a cost model was supplied.
    pub est_rows: Option<u64>,
    /// Costing decisions, rendered into EXPLAIN plan notes.
    pub cost_notes: Vec<String>,
}

/// Keep only the parts of `cond` that constrain documents of `source`;
/// everything else becomes `Any` (conservative).
pub fn restrict_to_source(cond: &Cond, source: &str) -> Cond {
    let restrict = |cs: &[Cond]| cs.iter().map(|c| restrict_to_source(c, source)).collect();
    match cond {
        Cond::Pred(Candidate { source: s, .. }) | Cond::Exists { source: s, .. } if s == source => {
            cond.clone()
        }
        Cond::And(cs) => Cond::and(restrict(cs)),
        Cond::Or(cs) => Cond::or(restrict(cs)),
        _ => Cond::Any,
    }
}

/// Mutable costing context threaded through compilation. With no model the
/// compiler is the original rule-based one: first eligible index wins and
/// every [`Est`] stays at its zero default.
struct CostCx<'m, 'a> {
    model: Option<&'m CostModel<'a>>,
    candidates_costed: u64,
    notes: Vec<String>,
}

/// Compile a (source-restricted) condition against that source's indexes.
///
/// With a [`CostModel`], eligible indexes are scored by estimated entries
/// scanned (lowest wins), and the finished access is weighed against the
/// scan it would pre-filter — a probe expected to touch far more index
/// entries than a sequential pass over the collection's documents and pages
/// is declined entirely (three-way choice: probe / prefilter-scan / scan).
pub fn compile(cond: &Cond, indexes: &[&XmlIndex], model: Option<&CostModel<'_>>) -> Compilation {
    let mut cx = CostCx { model, candidates_costed: 0, notes: Vec::new() };
    let mut rejections = Vec::new();
    let compiled = compile_cond(cond, indexes, &mut rejections, &mut cx);
    let mut out = Compilation {
        access: None,
        rejections,
        candidates_costed: cx.candidates_costed,
        est_rows: None,
        cost_notes: cx.notes,
    };
    if let Some((ic, est)) = compiled {
        if let Some(model) = model {
            let scan_cost = (model.docs + model.pages) as f64;
            if est.entries > scan_cost * 3.0 + 64.0 {
                out.cost_notes.push(format!(
                    "cost: declined index access (est {:.0} entries vs {} docs) — scan is cheaper",
                    est.entries, model.docs
                ));
                return out;
            }
            out.est_rows = Some(est.rows.round() as u64);
        }
        out.access = Some(ic);
    }
    out
}

fn compile_cond(
    cond: &Cond,
    indexes: &[&XmlIndex],
    rejections: &mut Vec<Rejection>,
    cx: &mut CostCx<'_, '_>,
) -> Option<(IndexCond, Est)> {
    match cond {
        Cond::Any => None,
        Cond::Pred(c) => compile_pred(c, indexes, rejections, cx),
        Cond::Exists { source, steps } => compile_exists(source, steps, indexes, cx),
        Cond::And(cs) => {
            // Between-merge first (Section 3.10), then compile children and
            // keep whichever succeed — any subset of a conjunction is still
            // a necessary condition.
            let merged = merge_between(cs);
            let mut compiled = Vec::new();
            let mut value_preds = 0usize;
            for child in &merged {
                if let MergedCond::Range { lo, hi, sample } = child {
                    let range = ProbeRange { lo: lo.clone(), hi: hi.clone() };
                    if let Some(probe) =
                        compile_range_probe(sample, range, indexes, rejections, true, cx)
                    {
                        compiled.push(probe);
                        value_preds += 1;
                    }
                    continue;
                }
                let MergedCond::Plain(child) = child else { continue };
                match child {
                    Cond::Exists { .. } => {} // second pass below
                    other => {
                        if let Some(ic) = compile_cond(other, indexes, rejections, cx) {
                            if !matches!(other, Cond::Exists { .. }) {
                                value_preds += 1;
                            }
                            compiled.push(ic);
                        }
                    }
                }
            }
            // Structural Exists probes are whole-index scans; only worth it
            // when no value predicate already filters (Section 2.2: "the
            // main benefit of indexes will come from supporting the value
            // predicates").
            if value_preds == 0 {
                for child in &merged {
                    if let MergedCond::Plain(Cond::Exists { source, steps }) = child {
                        if let Some(ic) = compile_exists(source, steps, indexes, cx) {
                            compiled.push(ic);
                            break;
                        }
                    }
                }
            }
            match compiled.len() {
                0 => None,
                1 => compiled.into_iter().next(),
                _ => {
                    // Docid-set intersection: every probe runs (entries add
                    // up), survivors are the least-selective lower bound.
                    let est = Est {
                        entries: compiled.iter().map(|(_, e)| e.entries).sum(),
                        rows: compiled
                            .iter()
                            .map(|(_, e)| e.rows)
                            .fold(f64::INFINITY, f64::min),
                    };
                    Some((IndexCond::And(compiled.into_iter().map(|(c, _)| c).collect()), est))
                }
            }
        }
        Cond::Or(cs) => {
            // Every branch must be answerable, else no pre-filtering.
            let mut compiled = Vec::with_capacity(cs.len());
            for c in cs {
                match compile_cond(c, indexes, rejections, cx) {
                    Some(ic) => compiled.push(ic),
                    None => return None,
                }
            }
            // Docid-set union: entries and surviving rows both add up.
            let est = Est {
                entries: compiled.iter().map(|(_, e)| e.entries).sum(),
                rows: compiled.iter().map(|(_, e)| e.rows).sum(),
            };
            Some((IndexCond::Or(compiled.into_iter().map(|(c, _)| c).collect()), est))
        }
    }
}

/// Children of a conjunction after between-merging.
#[allow(clippy::large_enum_variant)] // short-lived planning value, clarity over size
enum MergedCond<'a> {
    Plain(&'a Cond),
    Range {
        lo: Bound<xqdb_xdm::AtomicValue>,
        hi: Bound<xqdb_xdm::AtomicValue>,
        /// A representative candidate (for index matching).
        sample: Candidate,
    },
}

/// Detect `x > lo and x < hi` pairs that are provably a single-value
/// "between" (value comparisons, attribute paths, or shared context item)
/// and merge them into one range scan.
fn merge_between<'a>(children: &'a [Cond]) -> Vec<MergedCond<'a>> {
    let mut used = vec![false; children.len()];
    let mut out = Vec::new();
    for i in 0..children.len() {
        if used[i] {
            continue;
        }
        let Cond::Pred(a) = &children[i] else {
            out.push(MergedCond::Plain(&children[i]));
            continue;
        };
        let a_is_lower = matches!(a.op, CompareOp::Gt | CompareOp::Ge);
        let a_is_upper = matches!(a.op, CompareOp::Lt | CompareOp::Le);
        if !a_is_lower && !a_is_upper {
            out.push(MergedCond::Plain(&children[i]));
            continue;
        }
        let mut merged = false;
        for j in (i + 1)..children.len() {
            if used[j] {
                continue;
            }
            let Cond::Pred(b) = &children[j] else { continue };
            let opposite = if a_is_lower {
                matches!(b.op, CompareOp::Lt | CompareOp::Le)
            } else {
                matches!(b.op, CompareOp::Gt | CompareOp::Ge)
            };
            if !opposite {
                continue;
            }
            if a.source != b.source || a.steps != b.steps || a.target != b.target {
                continue;
            }
            // The Section 3.10 singleton requirement: both sides compare
            // the same single value.
            let same_value = (a.singleton && b.singleton)
                || (a.group.is_some() && a.group == b.group);
            if !same_value {
                continue;
            }
            let (lo_c, hi_c) = if a_is_lower { (a, b) } else { (b, a) };
            let lo = match lo_c.op {
                CompareOp::Gt => Bound::Excluded(lo_c.value.clone()),
                CompareOp::Ge => Bound::Included(lo_c.value.clone()),
                _ => unreachable!("lower side is Gt/Ge"),
            };
            let hi = match hi_c.op {
                CompareOp::Lt => Bound::Excluded(hi_c.value.clone()),
                CompareOp::Le => Bound::Included(hi_c.value.clone()),
                _ => unreachable!("upper side is Lt/Le"),
            };
            out.push(MergedCond::Range { lo, hi, sample: a.clone() });
            used[i] = true;
            used[j] = true;
            merged = true;
            break;
        }
        if !merged {
            out.push(MergedCond::Plain(&children[i]));
        }
    }
    out
}

fn probe_range_for(c: &Candidate) -> Option<ProbeRange> {
    let v = c.value.clone();
    Some(match c.op {
        CompareOp::Eq => ProbeRange::eq(v),
        CompareOp::Gt => ProbeRange { lo: Bound::Excluded(v), hi: Bound::Unbounded },
        CompareOp::Ge => ProbeRange { lo: Bound::Included(v), hi: Bound::Unbounded },
        CompareOp::Lt => ProbeRange { lo: Bound::Unbounded, hi: Bound::Excluded(v) },
        CompareOp::Le => ProbeRange { lo: Bound::Unbounded, hi: Bound::Included(v) },
        // `!=` is a range complement; a single scan cannot answer it.
        CompareOp::Ne => return None,
    })
}

fn index_type_serves(idx: &XmlIndex, target: CmpTarget) -> bool {
    matches!(
        (idx.ty, target),
        (xqdb_xmlindex::IndexType::Double, CmpTarget::Double)
            | (xqdb_xmlindex::IndexType::Varchar, CmpTarget::String)
            | (xqdb_xmlindex::IndexType::Date, CmpTarget::Date)
            | (xqdb_xmlindex::IndexType::Timestamp, CmpTarget::Timestamp)
    )
}

fn compile_pred(
    c: &Candidate,
    indexes: &[&XmlIndex],
    rejections: &mut Vec<Rejection>,
    cx: &mut CostCx<'_, '_>,
) -> Option<(IndexCond, Est)> {
    let Some(range) = probe_range_for(c) else {
        rejections.push(Rejection {
            candidate: c.render(),
            reasons: vec![RejectReason {
                pitfall: Pitfall::NotEqualsPredicate,
                index: None,
                detail: "'!=' predicates cannot be answered by a range scan".into(),
            }],
        });
        return None;
    };
    compile_range_probe(c, range, indexes, rejections, false, cx)
}

/// Pick the serving index among all eligible ones: first by catalog order
/// without a cost model, lowest estimated entries scanned with one (ties
/// keep catalog order, so costing is deterministic).
fn choose_costed<'i>(
    eligible: Vec<&'i XmlIndex>,
    range: &ProbeRange,
    subject: &str,
    cx: &mut CostCx<'_, '_>,
) -> (&'i XmlIndex, f64) {
    let Some(model) = cx.model else {
        return (eligible[0], 0.0);
    };
    let scored: Vec<(&XmlIndex, f64)> = eligible
        .into_iter()
        .map(|idx| {
            let est = estimate_probe_entries(model, idx, range);
            (idx, est)
        })
        .collect();
    cx.candidates_costed += scored.len() as u64;
    let mut best = 0usize;
    for i in 1..scored.len() {
        if scored[i].1 < scored[best].1 {
            best = i;
        }
    }
    if scored.len() > 1 {
        let losers: Vec<String> = scored
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != best)
            .map(|(_, (idx, e))| format!("{} (est {:.0})", idx.name, e))
            .collect();
        cx.notes.push(format!(
            "cost: {subject}: chose {} (est {:.0} entries) over {}",
            scored[best].0.name,
            scored[best].1,
            losers.join(", ")
        ));
    }
    scored[best]
}

fn compile_range_probe(
    c: &Candidate,
    range: ProbeRange,
    indexes: &[&XmlIndex],
    rejections: &mut Vec<Rejection>,
    between: bool,
    cx: &mut CostCx<'_, '_>,
) -> Option<(IndexCond, Est)> {
    let mut reasons = Vec::new();
    let mut eligible: Vec<&XmlIndex> = Vec::new();
    for idx in indexes {
        let key = format!("{}.{}", idx.table, idx.column);
        if key != c.source {
            continue;
        }
        if !index_type_serves(idx, c.target) {
            reasons.push(RejectReason {
                pitfall: Pitfall::TypeMismatch,
                index: Some(idx.name.clone()),
                detail: format!(
                    "{}: index type '{}' cannot serve a {} comparison (Section 3.1)",
                    idx.name, idx.ty, c.target
                ),
            });
            continue;
        }
        if !path_contained_in(&c.steps, &idx.pattern.steps) {
            // The doctor refines the generic Definition 1 failure into the
            // specific pitfall (namespace / text() / attribute-axis tips).
            let pitfall = doctor::classify_containment_failure(&c.steps, &idx.pattern.steps);
            reasons.push(RejectReason {
                pitfall,
                index: Some(idx.name.clone()),
                detail: format!(
                    "{}: query path {} is not contained in XMLPATTERN '{}' (Definition 1)",
                    idx.name,
                    render_steps(&c.steps),
                    idx.pattern
                ),
            });
            continue;
        }
        eligible.push(idx);
        if cx.model.is_none() {
            break; // rule-based: first eligible wins, stop looking
        }
    }
    if eligible.is_empty() {
        if reasons.is_empty() {
            reasons.push(RejectReason {
                pitfall: Pitfall::NoIndex,
                index: None,
                detail: format!("no XML index on {}", c.source),
            });
        }
        rejections.push(Rejection {
            candidate: c.render(),
            reasons,
        });
        return None;
    }
    let subject = render_steps(&c.steps);
    let (chosen, est_entries) = choose_costed(eligible, &range, &subject, cx);
    let desc = if between {
        format!("{} between-range on {}", c.target, subject)
    } else {
        format!(
            "{} {} {} on {}",
            c.target,
            c.op.general_symbol(),
            c.value.lexical(),
            subject
        )
    };
    let est = match cx.model {
        Some(m) => Est { entries: est_entries, rows: est_entries.min(m.docs as f64) },
        None => Est::default(),
    };
    Some((IndexCond::Probe { index: chosen.name.clone(), range, desc }, est))
}

fn compile_exists(
    source: &str,
    steps: &[xqdb_xquery::PatternStep],
    indexes: &[&XmlIndex],
    cx: &mut CostCx<'_, '_>,
) -> Option<(IndexCond, Est)> {
    // A varchar index "by definition includes all matching values", so a
    // full range scan answers the structural predicate (Section 2.2).
    let eligible: Vec<&XmlIndex> = indexes
        .iter()
        .copied()
        .filter(|idx| {
            format!("{}.{}", idx.table, idx.column) == source
                && idx.ty == xqdb_xmlindex::IndexType::Varchar
                && path_contained_in(steps, &idx.pattern.steps)
        })
        .collect();
    if eligible.is_empty() {
        return None;
    }
    let range = ProbeRange::all();
    let eligible = if cx.model.is_none() { vec![eligible[0]] } else { eligible };
    let subject = render_steps(steps);
    let (chosen, est_entries) = choose_costed(eligible, &range, &subject, cx);
    let est = match cx.model {
        Some(m) => Est { entries: est_entries, rows: est_entries.min(m.docs as f64) },
        None => Est::default(),
    };
    Some((
        IndexCond::Probe {
            index: chosen.name.clone(),
            range,
            desc: format!("structural scan for {subject}"),
        },
        est,
    ))
}
