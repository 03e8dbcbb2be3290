//! The vocabulary of index candidates: what the query walk
//! ([`crate::walk`]) extracts from an XQuery body and the compiler matches
//! against the catalog's indexes.
//!
//! A [`Cond`] is a **necessary condition** over source documents: a
//! boolean combination of value/structural predicates such that any
//! document violating it provably contributes nothing to the query result.
//! Pre-filtering the collection with it therefore preserves
//! `Q(D) = Q(I(P, D))` — the paper's Definition 1 — because the surviving
//! documents are re-run through the full query. Predicates found in
//! positions that cannot filter are reported as [`Note`]s instead, so
//! EXPLAIN can answer "why is my index not used?" — the usability gap the
//! paper closes with its tips.

use std::collections::HashMap;
use std::fmt;

use xqdb_xdm::compare::CompareOp;
use xqdb_xdm::{AtomicType, AtomicValue, ExpandedName};
use xqdb_xquery::ast::{Axis, Expr, KindTest, NodeTest};
use xqdb_xquery::parser::atomic_type_by_name;
use xqdb_xquery::PatternStep;

/// The dynamic comparison type an eligible index must serve (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpTarget {
    /// Numeric comparison — a `double` index applies.
    Double,
    /// String comparison — a `varchar` index applies.
    String,
    /// Date comparison.
    Date,
    /// Timestamp (dateTime) comparison.
    Timestamp,
}

impl fmt::Display for CmpTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpTarget::Double => "double",
            CmpTarget::String => "varchar",
            CmpTarget::Date => "date",
            CmpTarget::Timestamp => "timestamp",
        };
        f.write_str(s)
    }
}

/// One indexable value predicate: `some node on <steps> of <source>
/// satisfies (node <op> <value>)` under comparison type `target`.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Collection key, e.g. `ORDERS.ORDDOC`.
    pub source: String,
    /// Linear path from the document root to the compared node.
    pub steps: Vec<PatternStep>,
    /// Comparison operator, normalized to `node op value`.
    pub op: CompareOp,
    /// The constant side.
    pub value: AtomicValue,
    /// Comparison type.
    pub target: CmpTarget,
    /// True if the compared sequence is provably a singleton per candidate
    /// item (value comparison, or an exact-name attribute of a singleton
    /// context) — the Section 3.10 "between" precondition.
    pub singleton: bool,
    /// Identifier of the shared context item for `x[. > a and . < b]`
    /// shapes — two candidates with the same group compare the *same* value.
    pub group: Option<u32>,
}

impl Candidate {
    /// Render for notes and EXPLAIN: `SOURCE:/path op value`.
    pub fn render(&self) -> String {
        let (steps, op) = (render_steps(&self.steps), self.op.general_symbol());
        format!("{}:{} {} {}", self.source, steps, op, self.value.lexical())
    }
}

/// A necessary filtering condition over one collection's documents.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Cond {
    /// No filtering possible: every document may be needed.
    #[default]
    Any,
    /// A value predicate.
    Pred(Candidate),
    /// A structural predicate: some node matches `steps` (answerable by a
    /// full-range scan of a containing varchar index — Section 2.2).
    Exists {
        /// Collection key.
        source: String,
        /// The structural path.
        steps: Vec<PatternStep>,
    },
    /// Conjunction — any subset may be used for pre-filtering.
    And(Vec<Cond>),
    /// Disjunction — all branches must be answerable to pre-filter.
    Or(Vec<Cond>),
}

impl Cond {
    /// Conjunction: `Any` parts drop out, nested conjunctions flatten.
    pub(crate) fn and(conds: Vec<Cond>) -> Cond {
        Cond::join(conds, true)
    }

    /// Disjunction: one unfilterable (`Any`) branch makes the whole
    /// disjunction unfilterable; nested disjunctions flatten.
    pub(crate) fn or(conds: Vec<Cond>) -> Cond {
        Cond::join(conds, false)
    }

    fn join(conds: Vec<Cond>, and: bool) -> Cond {
        let mut flat = Vec::new();
        for c in conds {
            match (c, and) {
                (Cond::Any, true) => {}
                (Cond::Any, false) => return Cond::Any,
                (Cond::And(inner), true) | (Cond::Or(inner), false) => flat.extend(inner),
                (other, _) => flat.push(other),
            }
        }
        match flat.len() {
            0 => Cond::Any,
            1 => flat.pop().unwrap_or(Cond::Any),
            _ if and => Cond::And(flat),
            _ => Cond::Or(flat),
        }
    }
}

/// Diagnostics explaining missed index opportunities (surfaced by EXPLAIN).
#[derive(Debug, Clone, PartialEq)]
pub enum Note {
    /// An indexable-looking predicate sits in a position that cannot
    /// eliminate documents.
    NonFilteringContext {
        /// Where it was found ("XMLQUERY select list", "let binding",
        /// "constructor content", "XMLTABLE column expression").
        place: &'static str,
        /// Rendering of the predicate path.
        detail: String,
    },
    /// The XQuery inside XMLEXISTS returns a boolean, so XMLEXISTS is
    /// constant-true (Query 9 of the paper).
    BooleanXmlExists,
    /// A predicate was found under an element constructor (Section 3.6).
    ConstructionBarrier {
        /// Rendering of the predicate path.
        detail: String,
    },
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Note::NonFilteringContext { place, detail } => {
                write!(f, "predicate {detail} found in non-filtering context ({place})")
            }
            Note::BooleanXmlExists => f.write_str(
                "XMLEXISTS argument returns a boolean; the predicate never filters \
                 (wrap it in a path or FLWOR — Tip 3)",
            ),
            Note::ConstructionBarrier { detail } => {
                write!(f, "predicate {detail} is guarded by a node constructor (Tip 7/9)")
            }
        }
    }
}

/// Variables bound outside the query: the SQL/XML `PASSING` clause
/// (`passing orddoc as "order"` ⇒ `$order` denotes documents of
/// `ORDERS.ORDDOC`).
#[derive(Debug, Clone, Default)]
pub struct AnalysisEnv {
    vars: HashMap<ExpandedName, String>,
}

impl AnalysisEnv {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-bind a variable to a collection's documents.
    pub fn bind_docs(&mut self, var: ExpandedName, source: impl AsRef<str>) {
        self.vars.insert(var, source.as_ref().to_ascii_uppercase());
    }

    /// The bound variables and their collection keys.
    pub(crate) fn vars(&self) -> impl Iterator<Item = (&ExpandedName, &String)> {
        self.vars.iter()
    }
}

/// Statically evaluate a constant expression (literals, casts of literals,
/// `xs:date("...")` constructor calls, unary minus).
pub fn const_value(expr: &Expr) -> Option<AtomicValue> {
    match expr.unparen() {
        Expr::Literal(v) => Some(v.clone()),
        Expr::UnaryMinus(e) => match const_value(e)? {
            AtomicValue::Integer(i) => Some(AtomicValue::Integer(-i)),
            AtomicValue::Double(d) => Some(AtomicValue::Double(-d)),
            AtomicValue::Decimal(d) => Some(AtomicValue::Decimal(-d)),
            _ => None,
        },
        Expr::CastAs { expr, target, .. } => {
            let v = const_value(expr)?;
            xqdb_xdm::cast::cast(&v, *target).ok()
        }
        Expr::FunctionCall { name, args } => {
            let target = atomic_type_by_name(name)?;
            match args.as_slice() {
                [arg] => {
                    let v = const_value(arg)?;
                    xqdb_xdm::cast::cast(&v, target).ok()
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// The cast target of an `xs:*` constructor-function name, when it maps to
/// an index-servable comparison type.
pub(crate) fn cast_target_of_function(name: &ExpandedName) -> Option<CmpTarget> {
    let t = atomic_type_by_name(name)?;
    match t {
        AtomicType::Double | AtomicType::Integer | AtomicType::Decimal => Some(CmpTarget::Double),
        AtomicType::String => Some(CmpTarget::String),
        AtomicType::Date => Some(CmpTarget::Date),
        AtomicType::DateTime => Some(CmpTarget::Timestamp),
        _ => None,
    }
}

/// Can `value` participate in a comparison of type `target`?
pub(crate) fn const_compatible(value: &AtomicValue, target: CmpTarget) -> bool {
    let ty = match target {
        CmpTarget::Double => AtomicType::Double,
        CmpTarget::String => AtomicType::String,
        CmpTarget::Date => AtomicType::Date,
        CmpTarget::Timestamp => AtomicType::DateTime,
    };
    xqdb_xdm::cast::castable(value, ty)
}

/// Render a condition for notes/EXPLAIN.
pub fn render_cond(cond: &Cond) -> String {
    match cond {
        Cond::Any => "true".to_string(),
        Cond::Pred(c) => c.render(),
        Cond::Exists { source, steps } => {
            format!("exists({}:{})", source, render_steps(steps))
        }
        Cond::And(cs) => {
            let parts: Vec<String> = cs.iter().map(render_cond).collect();
            format!("({})", parts.join(" and "))
        }
        Cond::Or(cs) => {
            let parts: Vec<String> = cs.iter().map(render_cond).collect();
            format!("({})", parts.join(" or "))
        }
    }
}

/// Render pattern steps as a path string.
pub fn render_steps(steps: &[PatternStep]) -> String {
    let mut out = String::new();
    let mut skip_next_sep = false;
    for step in steps {
        if matches!(
            (step.axis, &step.test),
            (Axis::DescendantOrSelf, NodeTest::Kind(KindTest::AnyKind))
        ) {
            out.push_str("//");
            skip_next_sep = true;
            continue;
        }
        if !skip_next_sep {
            out.push('/');
        }
        skip_next_sep = false;
        match step.axis {
            Axis::Attribute => out.push('@'),
            Axis::SelfAxis => out.push_str("self::"),
            Axis::Descendant => out.push_str("descendant::"),
            Axis::DescendantOrSelf => out.push_str("descendant-or-self::"),
            Axis::Child | Axis::Parent => {}
        }
        out.push_str(&step.test.to_string());
    }
    if out.is_empty() {
        out.push('/');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqdb_xquery::parse_query;

    fn analyze(q: &str) -> crate::walk::Walked {
        let parsed = parse_query(q).expect("test query parses");
        crate::walk::walk(&parsed.body, &AnalysisEnv::new(), crate::walk::Body::Query)
    }

    fn preds_of(cond: &Cond) -> Vec<&Candidate> {
        let mut out = Vec::new();
        fn walk<'a>(c: &'a Cond, out: &mut Vec<&'a Candidate>) {
            match c {
                Cond::Pred(p) => out.push(p),
                Cond::And(cs) | Cond::Or(cs) => cs.iter().for_each(|c| walk(c, out)),
                _ => {}
            }
        }
        walk(cond, &mut out);
        out
    }

    #[test]
    fn and_or_algebra_flattens() {
        let c = Cond::and(vec![Cond::Any, Cond::Any]);
        assert_eq!(c, Cond::Any);
        let p = Cond::Exists { source: "T.C".into(), steps: vec![] };
        let c = Cond::and(vec![Cond::Any, p.clone()]);
        assert_eq!(c, p);
        // An Any branch absorbs the whole disjunction.
        let c = Cond::or(vec![p.clone(), Cond::Any]);
        assert_eq!(c, Cond::Any);
        // Nested conjunctions flatten.
        let c = Cond::and(vec![p.clone(), Cond::And(vec![p.clone(), p.clone()])]);
        match c {
            Cond::And(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn extraction_finds_candidate_with_types() {
        let a = analyze("db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 100]");
        let preds = preds_of(&a.cond);
        assert_eq!(preds.len(), 1);
        let c = preds[0];
        assert_eq!(c.source, "ORDERS.ORDDOC");
        assert_eq!(c.target, CmpTarget::Double);
        assert_eq!(c.op, CompareOp::Gt);
        // lineitem is a child step (may repeat), so @price is NOT a
        // per-order singleton — which is why Query 30 nests the between
        // inside lineitem[...].
        assert!(!c.singleton);
        assert_eq!(render_steps(&c.steps), "//order/lineitem/@price");
    }

    #[test]
    fn string_literal_gives_string_target() {
        let a = analyze("db2-fn:xmlcolumn('O.D')//a[b > \"100\"]");
        let preds = preds_of(&a.cond);
        assert_eq!(preds[0].target, CmpTarget::String);
    }

    #[test]
    fn flipped_comparison_normalizes() {
        // constant on the left: 100 < path ≡ path > 100.
        let a = analyze("db2-fn:xmlcolumn('O.D')//a[100 < b]");
        let preds = preds_of(&a.cond);
        assert_eq!(preds[0].op, CompareOp::Gt);
    }

    #[test]
    fn cast_wins_over_constant_type() {
        let a = analyze("db2-fn:xmlcolumn('O.D')/a[b/xs:string(.) = 'x']");
        assert_eq!(preds_of(&a.cond)[0].target, CmpTarget::String);
        let a = analyze("db2-fn:xmlcolumn('O.D')/a[b/xs:double(.) = 7]");
        assert_eq!(preds_of(&a.cond)[0].target, CmpTarget::Double);
        // Incompatible constant under a cast: no candidate.
        let a = analyze("db2-fn:xmlcolumn('O.D')/a[b/xs:double(.) = 'not a number']");
        assert!(preds_of(&a.cond).is_empty());
    }

    #[test]
    fn let_binding_alone_produces_no_condition() {
        let a = analyze(
            "for $d in db2-fn:xmlcolumn('O.D') let $x := $d//a[b > 1] return <r>{$x}</r>",
        );
        assert!(preds_of(&a.cond).is_empty());
    }

    #[test]
    fn or_condition_structure() {
        let a = analyze("db2-fn:xmlcolumn('O.D')//a[b > 1 or c > 2]");
        match &a.cond {
            Cond::And(children) => {
                assert!(children.iter().any(|c| matches!(c, Cond::Or(_))));
            }
            Cond::Or(_) => {}
            other => panic!("expected Or inside, got {other:?}"),
        }
        assert_eq!(preds_of(&a.cond).len(), 2);
    }

    #[test]
    fn group_assigned_for_context_item_between() {
        let a = analyze("db2-fn:xmlcolumn('O.D')//p/data()[. > 1 and . < 2]");
        let preds = preds_of(&a.cond);
        assert_eq!(preds.len(), 2);
        assert!(preds[0].group.is_some());
        assert_eq!(preds[0].group, preds[1].group);
    }

    #[test]
    fn multi_step_element_path_not_singleton() {
        let a = analyze("db2-fn:xmlcolumn('O.D')//order[lineitem/price > 1]");
        let preds = preds_of(&a.cond);
        assert!(!preds[0].singleton, "element children may repeat");
    }

    #[test]
    fn const_value_evaluates_casts_and_negation() {
        use xqdb_xquery::parse_query;
        let q = parse_query("-5").unwrap();
        assert_eq!(const_value(&q.body), Some(AtomicValue::Integer(-5)));
        let q = parse_query("xs:date('2001-01-01')").unwrap();
        assert!(matches!(const_value(&q.body), Some(AtomicValue::Date(_))));
        let q = parse_query("'x' cast as xs:string").unwrap();
        assert!(matches!(const_value(&q.body), Some(AtomicValue::String(_))));
        let q = parse_query("$x").unwrap();
        assert_eq!(const_value(&q.body), None);
    }

    #[test]
    fn notes_emitted_for_constructor_predicates() {
        let a = analyze(
            "for $o in db2-fn:xmlcolumn('O.D')/order return <r>{$o/a[b > 1]}</r>",
        );
        assert!(a
            .notes
            .iter()
            .any(|n| matches!(n, Note::ConstructionBarrier { .. })), "{:?}", a.notes);
    }

    #[test]
    fn render_steps_shapes() {
        let a = analyze("db2-fn:xmlcolumn('O.D')/a/b[c/@d = 1]");
        let preds = preds_of(&a.cond);
        assert_eq!(render_steps(&preds[0].steps), "/a/b/c/@d");
    }
}
