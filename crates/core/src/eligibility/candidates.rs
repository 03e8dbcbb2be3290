//! Extraction of indexable predicate candidates from XQuery ASTs.
//!
//! The extractor computes, for a query expression, a **necessary condition**
//! over source documents: a boolean combination of value/structural
//! predicates such that any document violating the condition provably
//! contributes nothing to the query result. Pre-filtering the collection
//! with that condition therefore preserves `Q(D) = Q(I(P, D))` — the
//! paper's Definition 1 — because the surviving documents are re-run
//! through the full query.
//!
//! The analysis distinguishes the contexts Sections 3.2–3.6 of the paper
//! catalogue:
//!
//! * `for`-bindings, `where` clauses, path predicates, and bind-out results
//!   **filter** (empty ⇒ the document's tuples vanish);
//! * `let`-bindings and constructor content do **not** (empty sequences are
//!   preserved), unless a later `where` consumes the bound variable;
//! * boolean-valued expressions are never empty, so a caller like
//!   `XMLEXISTS` over one is constant-true ([`Note::BooleanXmlExists`]).
//!
//! Predicates discovered in non-filtering positions are recorded as
//! [`Note`]s so EXPLAIN can answer the user's "why is my index not used?" —
//! the usability gap the paper closes with its tips.

use std::collections::HashMap;
use std::fmt;

use xqdb_xdm::compare::CompareOp;
use xqdb_xdm::{AtomicType, AtomicValue, ExpandedName};
use xqdb_xquery::ast::{
    Axis, ConstructorContent, Expr, FlworClause, KindTest, NodeTest, QuantKind, Step,
};
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

/// A necessary filtering condition over one collection's documents.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// No filtering possible: every document may be needed.
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
    fn and(conds: Vec<Cond>) -> Cond {
        let mut flat = Vec::new();
        for c in conds {
            match c {
                Cond::Any => {}
                Cond::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Cond::Any,
            1 => flat.pop().unwrap_or(Cond::Any),
            _ => Cond::And(flat),
        }
    }

    fn or(conds: Vec<Cond>) -> Cond {
        let mut flat = Vec::new();
        for c in conds {
            match c {
                // One unfilterable branch makes the whole disjunction
                // unfilterable.
                Cond::Any => return Cond::Any,
                Cond::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Cond::Any,
            1 => flat.pop().unwrap_or(Cond::Any),
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

/// What a variable is known to denote.
#[derive(Debug, Clone)]
enum Binding {
    /// Nodes reached from a collection's documents via a linear path.
    Docs {
        source: String,
        steps: Vec<PatternStep>,
        /// True when bound by `for` (singleton per tuple).
        per_tuple: bool,
        /// Necessary condition for the binding to be non-empty (used when a
        /// `where` consumes a `let` variable — Query 21).
        nonempty: Cond,
    },
    /// Anything else.
    Opaque,
}

/// Extraction result.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// The necessary condition.
    pub cond: Cond,
    /// Diagnostics for EXPLAIN.
    pub notes: Vec<Note>,
}

/// Variable environment for the analysis.
#[derive(Debug, Clone, Default)]
pub struct AnalysisEnv {
    vars: HashMap<ExpandedName, BindingPublic>,
}

/// Public form of a binding, used by the SQL layer to pre-bind `PASSING`
/// variables (`passing orddoc as "order"` ⇒ `$order` denotes documents of
/// `ORDERS.ORDDOC`).
#[derive(Debug, Clone)]
pub struct BindingPublic {
    /// Collection key.
    pub source: String,
    /// Path from the document root (empty = the document itself).
    pub steps: Vec<PatternStep>,
}

impl AnalysisEnv {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-bind a variable to a collection's documents.
    pub fn bind_docs(&mut self, var: ExpandedName, source: impl AsRef<str>) {
        self.vars.insert(
            var,
            BindingPublic { source: source.as_ref().to_ascii_uppercase(), steps: Vec::new() },
        );
    }

    /// Iterate the variables bound to whole documents of a collection (the
    /// PASSING-clause bindings) — consumed by the structural pre-filter's
    /// required-path extractor.
    pub fn doc_bindings(&self) -> impl Iterator<Item = (&ExpandedName, &BindingPublic)> {
        self.vars.iter().filter(|(_, b)| b.steps.is_empty())
    }
}

/// Analyze an expression whose *emptiness* filters — the XMLEXISTS argument
/// and the XMLTABLE row producer. A top-level boolean-valued expression is
/// never empty, so it cannot filter at all (Query 9).
pub fn analyze_filtering(expr: &Expr, env: &AnalysisEnv) -> Analysis {
    let mut cx = Cx::new(env);
    let cond = cx.nonempty(expr, &mut Env::new(env));
    // Boolean-result detection (Query 9): a top-level expression that
    // always yields exactly one item makes "non-empty" vacuous.
    if always_singleton(expr) {
        cx.notes.push(Note::BooleanXmlExists);
        return Analysis { cond: Cond::Any, notes: cx.notes };
    }
    Analysis { cond, notes: cx.notes }
}

/// Analyze a standalone query root: documents failing the condition cannot
/// change the query result (no non-emptiness caveat — a top-level
/// `count(...)` still benefits from pre-filtering its argument).
pub fn analyze_query_root(expr: &Expr, env: &AnalysisEnv) -> Analysis {
    let mut cx = Cx::new(env);
    let cond = cx.nonempty(expr, &mut Env::new(env));
    Analysis { cond, notes: cx.notes }
}

/// Analyze an expression in a non-filtering position (XMLQUERY select list,
/// XMLTABLE column expressions): no condition, only diagnostics.
pub fn analyze_non_filtering(expr: &Expr, env: &AnalysisEnv, place: &'static str) -> Analysis {
    analyze_non_filtering_with_ctx(expr, env, place, None)
}

/// Like [`analyze_non_filtering`], with an explicit context-item binding —
/// XMLTABLE column paths evaluate with each row-producer item as context.
pub fn analyze_non_filtering_with_ctx(
    expr: &Expr,
    env: &AnalysisEnv,
    place: &'static str,
    ctx: Option<BindingPublic>,
) -> Analysis {
    let mut cx = Cx::new(env);
    let mut e = Env::new(env);
    if let Some(b) = ctx {
        let group = cx.fresh_group();
        e.ctx = Some((b.source, b.steps, group));
    }
    cx.scavenge(expr, &mut e, place);
    Analysis { cond: Cond::Any, notes: cx.notes }
}

/// Resolve an expression to a documents-rooted path, for callers that need
/// to establish a context binding (the XMLTABLE row producer).
pub fn resolve_docs_path(expr: &Expr, env: &AnalysisEnv) -> Option<BindingPublic> {
    let mut cx = Cx::new(env);
    let mut e = Env::new(env);
    let rp = cx.resolve_path(expr, &mut e)?;
    if rp.cast.is_some() {
        return None;
    }
    Some(BindingPublic { source: rp.source, steps: rp.steps })
}

/// True if the expression statically always produces exactly one item —
/// which makes `XMLEXISTS` constant-true.
fn always_singleton(expr: &Expr) -> bool {
    match expr.unparen() {
        Expr::GeneralCmp(..)
        | Expr::ValueCmp(..)
        | Expr::Or(..)
        | Expr::And(..)
        | Expr::Quantified { .. }
        | Expr::InstanceOf(..)
        | Expr::CastableAs { .. }
        | Expr::Literal(_)
        | Expr::DirectElement(_)
        | Expr::ComputedElement { .. }
        | Expr::ComputedDocument(_) => true,
        Expr::FunctionCall { name, args: _ } => matches!(
            &*name.local,
            "true" | "false" | "not" | "boolean" | "exists" | "empty" | "count" | "string"
                | "number" | "contains" | "starts-with" | "ends-with" | "between"
        ),
        _ => false,
    }
}

/// Internal per-analysis state.
struct Cx<'a> {
    notes: Vec<Note>,
    next_group: u32,
    #[allow(dead_code)]
    external: &'a AnalysisEnv,
}

/// Scoped variable bindings during the walk.
struct Env {
    vars: HashMap<ExpandedName, Binding>,
    /// Context-item meaning inside predicates: (source, steps, group).
    ctx: Option<(String, Vec<PatternStep>, u32)>,
}

impl Env {
    fn new(external: &AnalysisEnv) -> Env {
        let mut vars = HashMap::new();
        for (name, b) in &external.vars {
            vars.insert(
                name.clone(),
                Binding::Docs {
                    source: b.source.clone(),
                    steps: b.steps.clone(),
                    per_tuple: true,
                    nonempty: Cond::Any,
                },
            );
        }
        Env { vars, ctx: None }
    }
}

/// A resolved node path relative to the document roots of one collection.
struct ResolvedPath {
    source: String,
    steps: Vec<PatternStep>,
    /// Explicit cast applied by the query (e.g. `xs:double(.)`).
    cast: Option<CmpTarget>,
    /// Whole path provably yields ≤ 1 node per base item.
    singleton: bool,
    /// Group id when the path is (casts of) the predicate context item.
    group: Option<u32>,
    /// Conditions contributed by predicates embedded in the path.
    extra: Vec<Cond>,
}

impl<'a> Cx<'a> {
    fn new(external: &'a AnalysisEnv) -> Self {
        Cx { notes: Vec::new(), next_group: 0, external }
    }

    fn fresh_group(&mut self) -> u32 {
        self.next_group += 1;
        self.next_group
    }

    // -------------------------------------------------- filtering analysis

    /// Necessary condition for `expr` to produce at least one item.
    fn nonempty(&mut self, expr: &Expr, env: &mut Env) -> Cond {
        match expr.unparen() {
            Expr::Literal(_) => Cond::Any,
            Expr::ContextItem => Cond::Any,
            Expr::Root => Cond::Any,
            Expr::VarRef(name) => match env.vars.get(name) {
                Some(Binding::Docs { nonempty, .. }) => nonempty.clone(),
                _ => Cond::Any,
            },
            Expr::Sequence(items) => {
                // Non-empty iff any part is; necessary condition is the OR.
                self.cond_or_scavenge(items, env, |cx, e, env| cx.nonempty(e, env))
            }
            Expr::Path { .. } | Expr::Filter { .. } => match self.resolve_path(expr, env) {
                Some(rp) => {
                    let mut conds = rp.extra;
                    conds.push(Cond::Exists { source: rp.source, steps: rp.steps });
                    Cond::and(conds)
                }
                None => {
                    // Unresolvable paths (e.g. over constructed nodes) can't
                    // filter; still scavenge for diagnostics.
                    self.scavenge(expr, env, "unresolvable path");
                    Cond::Any
                }
            },
            Expr::Flwor(f) => self.flwor_cond(f, env),
            Expr::If { cond, then, els } => {
                // Result non-empty requires (then non-empty) or (else
                // non-empty); we cannot know which branch runs, and the
                // if-condition itself is NOT necessary for non-emptiness.
                self.scavenge(cond, env, "if condition");
                Cond::or(vec![self.nonempty(then, env), self.nonempty(els, env)])
            }
            // Boolean-valued and constructor expressions are always
            // non-empty.
            Expr::GeneralCmp(..)
            | Expr::ValueCmp(..)
            | Expr::NodeCmp(..)
            | Expr::Or(..)
            | Expr::And(..)
            | Expr::Quantified { .. }
            | Expr::InstanceOf(..)
            | Expr::CastableAs { .. } => {
                self.scavenge(expr, env, "boolean result");
                Cond::Any
            }
            Expr::DirectElement(_)
            | Expr::ComputedElement { .. }
            | Expr::ComputedAttribute { .. }
            | Expr::ComputedText(_)
            | Expr::ComputedDocument(_) => {
                self.scavenge_constructor(expr, env);
                Cond::Any
            }
            Expr::FunctionCall { name, args } => match (&*name.local, args.as_slice()) {
                ("data", [arg]) | ("exists", [arg]) | ("distinct-values", [arg])
                | ("reverse", [arg]) => self.nonempty(arg, env),
                // Pure sequence functions: their value depends only on the
                // argument sequence, so a document contributing nothing to
                // the argument cannot change the result — the predicate
                // inside `avg(//lineitem[@price > X]/...)` filters. Extra
                // arguments must be constants (no document can reach them).
                (
                    "count" | "sum" | "avg" | "min" | "max" | "string-join" | "subsequence"
                    | "empty" | "not" | "boolean" | "number" | "string",
                    [first, rest @ ..],
                ) if rest.iter().all(|a| const_value(a).is_some()) => {
                    self.nonempty(first, env)
                }
                ("xmlcolumn", _) => Cond::Any,
                _ => {
                    for a in args {
                        self.scavenge(a, env, "function argument");
                    }
                    Cond::Any
                }
            },
            Expr::CastAs { expr, .. } | Expr::TreatAs(expr, _) | Expr::UnaryMinus(expr) => {
                self.nonempty(expr, env)
            }
            Expr::Union(a, b) => Cond::or(vec![self.nonempty(a, env), self.nonempty(b, env)]),
            Expr::Intersect(a, b) | Expr::Except(a, b) => {
                // Result ⊆ left operand.
                let c = self.nonempty(a, env);
                self.scavenge(b, env, "intersect/except operand");
                c
            }
            // Arithmetic with a constant side: the result is preserved
            // whenever the non-constant operand is (e.g. `sum(X) + 1`).
            Expr::Arith(_, a, b) => match (const_value(a), const_value(b)) {
                (None, Some(_)) => self.nonempty(a, env),
                (Some(_), None) => self.nonempty(b, env),
                _ => Cond::Any,
            },
            Expr::Range(..) | Expr::Paren(_) => Cond::Any,
        }
    }

    /// Necessary condition for `expr`'s effective boolean value to be true.
    fn ebv(&mut self, expr: &Expr, env: &mut Env) -> Cond {
        match expr.unparen() {
            Expr::And(a, b) => Cond::and(vec![self.ebv(a, env), self.ebv(b, env)]),
            Expr::Or(a, b) => Cond::or(vec![self.ebv(a, env), self.ebv(b, env)]),
            Expr::GeneralCmp(op, l, r) => self.comparison(*op, l, r, env, false),
            Expr::ValueCmp(op, l, r) => self.comparison(*op, l, r, env, true),
            Expr::Quantified { kind: QuantKind::Some, bindings, satisfies } => {
                // some $x in P satisfies C ≈ exists(P[C]).
                let mut conds = Vec::new();
                let mut scoped_env = Env {
                    vars: env.vars.clone(),
                    ctx: env.ctx.clone(),
                };
                for (var, bexpr) in bindings {
                    conds.push(self.nonempty(bexpr, &mut scoped_env));
                    let binding = match self.resolve_path(bexpr, &mut scoped_env) {
                        Some(rp) if rp.cast.is_none() => Binding::Docs {
                            source: rp.source,
                            steps: rp.steps,
                            per_tuple: true,
                            nonempty: Cond::Any,
                        },
                        _ => Binding::Opaque,
                    };
                    scoped_env.vars.insert(var.clone(), binding);
                }
                conds.push(self.ebv(satisfies, &mut scoped_env));
                Cond::and(conds)
            }
            Expr::FunctionCall { name, args } => match (&*name.local, args.as_slice()) {
                ("exists", [arg]) | ("boolean", [arg]) => self.nonempty(arg, env),
                ("true", []) => Cond::Any,
                // db2-fn:between($path, lo, hi): both bounds test the SAME
                // item, so the pair merges into one range scan — the
                // explicit between of the paper's Section 4.
                ("between", [path, lo, hi])
                    if name.ns.as_deref() == Some(xqdb_xdm::qname::DB2_FN_NS) =>
                {
                    let (Some(lo_v), Some(hi_v)) = (const_value(lo), const_value(hi)) else {
                        return Cond::Any;
                    };
                    let Some(rp) = self.resolve_path(path, env) else {
                        return Cond::Any;
                    };
                    let target = match rp.cast {
                        Some(t) => t,
                        None => match lo_v.atomic_type() {
                            t if t.is_numeric() => CmpTarget::Double,
                            AtomicType::String | AtomicType::UntypedAtomic => CmpTarget::String,
                            AtomicType::Date => CmpTarget::Date,
                            AtomicType::DateTime => CmpTarget::Timestamp,
                            _ => return Cond::Any,
                        },
                    };
                    if !const_compatible(&lo_v, target) || !const_compatible(&hi_v, target) {
                        return Cond::Any;
                    }
                    let group = Some(self.fresh_group());
                    let mut conds = rp.extra;
                    for (op, value) in [(CompareOp::Ge, lo_v), (CompareOp::Le, hi_v)] {
                        conds.push(Cond::Pred(Candidate {
                            source: rp.source.clone(),
                            steps: rp.steps.clone(),
                            op,
                            value,
                            target,
                            singleton: false,
                            group,
                        }));
                    }
                    Cond::and(conds)
                }
                _ => {
                    for a in args {
                        self.scavenge(a, env, "function argument");
                    }
                    Cond::Any
                }
            },
            // EBV of a node sequence = non-emptiness.
            Expr::Path { .. } | Expr::Filter { .. } | Expr::VarRef(_) | Expr::Flwor(_)
            | Expr::Sequence(_) => self.nonempty(expr, env),
            _ => {
                self.scavenge(expr, env, "opaque condition");
                Cond::Any
            }
        }
    }

    /// A comparison in EBV position: try `path op const` both ways.
    fn comparison(
        &mut self,
        op: CompareOp,
        lhs: &Expr,
        rhs: &Expr,
        env: &mut Env,
        is_value_cmp: bool,
    ) -> Cond {
        let sides = [(lhs, rhs, op), (rhs, lhs, op.flip())];
        for (node_side, const_side, eff_op) in sides {
            let Some(value) = const_value(const_side) else { continue };
            let Some(rp) = self.resolve_path(node_side, env) else { continue };
            // Comparison type (Section 3.1): an explicit cast wins; else the
            // constant's dynamic type decides how untyped data is promoted.
            let target = match rp.cast {
                Some(t) => {
                    if !const_compatible(&value, t) {
                        continue; // runtime type error; cannot pre-filter
                    }
                    t
                }
                None => match value.atomic_type() {
                    t if t.is_numeric() => CmpTarget::Double,
                    AtomicType::String | AtomicType::UntypedAtomic => CmpTarget::String,
                    AtomicType::Date => CmpTarget::Date,
                    AtomicType::DateTime => CmpTarget::Timestamp,
                    _ => continue,
                },
            };
            let mut conds = rp.extra;
            conds.push(Cond::Pred(Candidate {
                source: rp.source,
                steps: rp.steps,
                op: eff_op,
                value,
                target,
                singleton: is_value_cmp || rp.singleton,
                group: rp.group,
            }));
            return Cond::and(conds);
        }
        // Neither orientation worked — maybe a join or an opaque shape.
        self.scavenge(lhs, env, "comparison operand");
        self.scavenge(rhs, env, "comparison operand");
        Cond::Any
    }

    fn flwor_cond(&mut self, f: &xqdb_xquery::ast::Flwor, env: &mut Env) -> Cond {
        let mut scoped = Env { vars: env.vars.clone(), ctx: env.ctx.clone() };
        let mut conds = Vec::new();
        for clause in &f.clauses {
            match clause {
                FlworClause::For { var, position, expr } => {
                    // An empty for-binding kills every tuple: filtering.
                    conds.push(self.nonempty(expr, &mut scoped));
                    let binding = match self.resolve_path(expr, &mut scoped) {
                        Some(rp) if rp.cast.is_none() => Binding::Docs {
                            source: rp.source,
                            steps: rp.steps,
                            per_tuple: true,
                            nonempty: Cond::Any,
                        },
                        _ => Binding::Opaque,
                    };
                    scoped.vars.insert(var.clone(), binding);
                    if let Some(p) = position {
                        scoped.vars.insert(p.clone(), Binding::Opaque);
                    }
                }
                FlworClause::Let { var, expr } => {
                    // Empty let-bindings survive (Section 3.4): NOT filtering
                    // by itself, but remember the emptiness condition so a
                    // later `where $var ...` can use it (Query 21).
                    let nonempty = self.nonempty_probe(expr, &mut scoped);
                    let binding = match self.resolve_path(expr, &mut scoped) {
                        Some(rp) if rp.cast.is_none() => Binding::Docs {
                            source: rp.source,
                            steps: rp.steps,
                            per_tuple: false,
                            nonempty,
                        },
                        _ => Binding::Opaque,
                    };
                    scoped.vars.insert(var.clone(), binding);
                }
                FlworClause::Where(cond) => {
                    conds.push(self.ebv(cond, &mut scoped));
                }
                FlworClause::OrderBy(_) => {}
            }
        }
        // The return expression has bind-out iteration: per-tuple empty
        // results vanish (Query 22) — its non-emptiness is necessary too.
        conds.push(self.nonempty(&f.ret, &mut scoped));
        Cond::and(conds)
    }

    /// Like [`Self::nonempty`] but without emitting scavenger notes — used
    /// to pre-compute a let-binding's emptiness condition, which only
    /// matters if a `where` later consumes it.
    fn nonempty_probe(&mut self, expr: &Expr, env: &mut Env) -> Cond {
        let saved = std::mem::take(&mut self.notes);
        let cond = self.nonempty(expr, env);
        self.notes = saved;
        cond
    }

    fn cond_or_scavenge(
        &mut self,
        items: &[Expr],
        env: &mut Env,
        f: impl Fn(&mut Self, &Expr, &mut Env) -> Cond,
    ) -> Cond {
        let conds: Vec<Cond> = items.iter().map(|e| f(self, e, env)).collect();
        Cond::or(conds)
    }

    // ------------------------------------------------------ path resolution

    /// Resolve an expression to a linear path over one collection's
    /// documents.
    fn resolve_path(&mut self, expr: &Expr, env: &mut Env) -> Option<ResolvedPath> {
        match expr.unparen() {
            Expr::VarRef(name) => match env.vars.get(name) {
                Some(Binding::Docs { source, steps, per_tuple, .. }) => Some(ResolvedPath {
                    source: source.clone(),
                    steps: steps.clone(),
                    cast: None,
                    singleton: *per_tuple && steps.is_empty(),
                    group: None,
                    extra: Vec::new(),
                }),
                _ => None,
            },
            Expr::ContextItem => env.ctx.clone().map(|(source, steps, group)| ResolvedPath {
                source,
                steps,
                cast: None,
                singleton: true,
                group: Some(group),
                extra: Vec::new(),
            }),
            Expr::FunctionCall { name, args } => {
                // db2-fn:xmlcolumn('T.C') — the collection roots.
                if &*name.local == "xmlcolumn"
                    && name.ns.as_deref() == Some(xqdb_xdm::qname::DB2_FN_NS)
                {
                    if let [Expr::Literal(AtomicValue::String(column))] = args.as_slice() {
                        return Some(ResolvedPath {
                            source: column.to_ascii_uppercase(),
                            steps: Vec::new(),
                            cast: None,
                            singleton: false,
                            group: None,
                            extra: Vec::new(),
                        });
                    }
                    return None;
                }
                // data(.) / data() / string(.) / xs:double(.) style steps are
                // handled in resolve_step; a bare call here is only
                // resolvable when its argument is.
                let target = cast_target_of_function(name);
                if let (Some(t), [arg]) = (target, args.as_slice()) {
                    let mut rp = self.resolve_path(arg, env)?;
                    if rp.cast.is_some() {
                        return None;
                    }
                    rp.cast = Some(t);
                    return Some(rp);
                }
                if &*name.local == "data" {
                    match args.as_slice() {
                        [] => return self.resolve_path(&Expr::ContextItem, env),
                        [arg] => return self.resolve_path(arg, env),
                        _ => return None,
                    }
                }
                None
            }
            Expr::Path { init, steps } => {
                let mut rp = self.resolve_path(init, env)?;
                if rp.cast.is_some() {
                    return None; // casts end a path
                }
                for step in steps {
                    self.resolve_step(&mut rp, step, env)?;
                }
                Some(rp)
            }
            Expr::Filter { expr, predicates } => {
                // A filter over items of several documents that is not a
                // per-document truth value (`xmlcolumn('S')[1]`) depends on
                // which other documents exist: narrowing the collection
                // first would change its answer, so no candidate.
                if spans_documents(expr, env)
                    && !predicates.iter().all(crate::structure::per_document)
                {
                    return None;
                }
                let mut rp = self.resolve_path(expr, env)?;
                self.apply_predicates(&mut rp, predicates, env);
                Some(rp)
            }
            _ => None,
        }
    }

    /// Fold one AST step into a resolved path. Returns `None` (abandoning
    /// the candidate) for unsupported shapes.
    fn resolve_step(&mut self, rp: &mut ResolvedPath, step: &Step, env: &mut Env) -> Option<()> {
        match step {
            Step::Axis { axis, test, predicates } => {
                if rp.cast.is_some() {
                    return None;
                }
                match axis {
                    Axis::Child | Axis::Descendant | Axis::DescendantOrSelf | Axis::Attribute
                    | Axis::SelfAxis => {
                        rp.steps.push(PatternStep { axis: *axis, test: test.clone() });
                    }
                    Axis::Parent => return None,
                }
                // Singleton tracking: exact-name attribute steps and self
                // steps preserve ≤1; everything else may fan out.
                let preserves = match axis {
                    Axis::SelfAxis => true,
                    Axis::Attribute => matches!(
                        test,
                        NodeTest::Name(nt) if !matches!(nt.local, xqdb_xquery::ast::LocalTest::Any)
                    ),
                    _ => false,
                };
                if !preserves {
                    rp.singleton = false;
                }
                if !matches!(axis, Axis::SelfAxis) {
                    rp.group = None;
                }
                self.apply_predicates(rp, predicates, env);
                Some(())
            }
            Step::Filter { expr, predicates } => {
                // Casts and data() applied per node.
                match expr.unparen() {
                    Expr::FunctionCall { name, args } => {
                        let is_ctx_arg = matches!(
                            args.as_slice(),
                            [] | [Expr::ContextItem]
                        );
                        if !is_ctx_arg {
                            return None;
                        }
                        if let Some(t) = cast_target_of_function(name) {
                            if rp.cast.is_some() {
                                return None;
                            }
                            rp.cast = Some(t);
                        } else if &*name.local == "data" {
                            // atomization — value-preserving
                        } else {
                            return None;
                        }
                        self.apply_predicates(rp, predicates, env);
                        Some(())
                    }
                    Expr::ContextItem => {
                        self.apply_predicates(rp, predicates, env);
                        Some(())
                    }
                    _ => None,
                }
            }
        }
    }

    /// Predicates on a path prefix contribute extra necessary conditions.
    fn apply_predicates(&mut self, rp: &mut ResolvedPath, predicates: &[Expr], env: &mut Env) {
        for pred in predicates {
            // Numeric literal predicates are positional: no extra condition
            // beyond the structural path, which is already implied.
            if matches!(pred.unparen(), Expr::Literal(v) if v.atomic_type().is_numeric()) {
                continue;
            }
            let group = self.fresh_group();
            let mut scoped = Env {
                vars: env.vars.clone(),
                ctx: Some((rp.source.clone(), rp.steps.clone(), group)),
            };
            let c = self.ebv(pred, &mut scoped);
            if !matches!(c, Cond::Any) {
                rp.extra.push(c);
            }
        }
    }

    // ----------------------------------------------------------- diagnostics

    /// Walk a non-filtering region looking for would-be candidates, emitting
    /// notes instead of conditions.
    fn scavenge(&mut self, expr: &Expr, env: &mut Env, place: &'static str) {
        match expr.unparen() {
            Expr::GeneralCmp(op, l, r) | Expr::ValueCmp(op, l, r) => {
                // Try to resolve as a candidate; if it would have been
                // indexable, report it.
                let saved_notes = self.notes.len();
                let c = self.comparison(*op, l, r, env, false);
                self.notes.truncate(saved_notes);
                if !matches!(c, Cond::Any) {
                    self.notes.push(Note::NonFilteringContext {
                        place,
                        detail: render_cond(&c),
                    });
                }
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                self.scavenge(a, env, place);
                self.scavenge(b, env, place);
            }
            Expr::Path { init, steps } => {
                self.scavenge(init, env, place);
                // Look inside step predicates with the path context resolved
                // so candidates render correctly.
                if let Some(mut rp) = self.resolve_path(init, env) {
                    for step in steps {
                        let preds: &[Expr] = match step {
                            Step::Axis { predicates, .. } => predicates,
                            Step::Filter { predicates, .. } => predicates,
                        };
                        // Advance the path before inspecting its predicates
                        // (they apply to the post-step nodes); stop cleanly
                        // on unsupported steps.
                        let mut probe = ResolvedPath {
                            source: rp.source.clone(),
                            steps: rp.steps.clone(),
                            cast: rp.cast,
                            singleton: rp.singleton,
                            group: rp.group,
                            extra: Vec::new(),
                        };
                        let step_no_preds = strip_predicates(step);
                        if self.resolve_step(&mut probe, &step_no_preds, env).is_none() {
                            break;
                        }
                        rp = probe;
                        for pred in preds {
                            let group = self.fresh_group();
                            let mut scoped = Env {
                                vars: env.vars.clone(),
                                ctx: Some((rp.source.clone(), rp.steps.clone(), group)),
                            };
                            let saved_notes = self.notes.len();
                            let c = self.ebv(pred, &mut scoped);
                            self.notes.truncate(saved_notes);
                            if !matches!(c, Cond::Any) {
                                self.notes.push(Note::NonFilteringContext {
                                    place,
                                    detail: render_cond(&c),
                                });
                            }
                        }
                    }
                } else {
                    for step in steps {
                        let preds: &[Expr] = match step {
                            Step::Axis { predicates, .. } => predicates,
                            Step::Filter { predicates, .. } => predicates,
                        };
                        for p in preds {
                            self.scavenge(p, env, place);
                        }
                    }
                }
            }
            Expr::Flwor(f) => {
                for clause in &f.clauses {
                    match clause {
                        FlworClause::For { expr, .. } | FlworClause::Let { expr, .. } => {
                            self.scavenge(expr, env, place)
                        }
                        FlworClause::Where(e) => self.scavenge(e, env, place),
                        FlworClause::OrderBy(specs) => {
                            for s in specs {
                                self.scavenge(&s.expr, env, place)
                            }
                        }
                    }
                }
                self.scavenge(&f.ret, env, place);
            }
            Expr::DirectElement(_)
            | Expr::ComputedElement { .. }
            | Expr::ComputedAttribute { .. }
            | Expr::ComputedText(_)
            | Expr::ComputedDocument(_) => self.scavenge_constructor(expr, env),
            Expr::Sequence(items) => {
                for e in items {
                    self.scavenge(e, env, place);
                }
            }
            Expr::If { cond, then, els } => {
                self.scavenge(cond, env, place);
                self.scavenge(then, env, place);
                self.scavenge(els, env, place);
            }
            Expr::FunctionCall { args, .. } => {
                for a in args {
                    self.scavenge(a, env, place);
                }
            }
            _ => {}
        }
    }

    /// Scavenge under a constructor: candidates found become
    /// [`Note::ConstructionBarrier`].
    fn scavenge_constructor(&mut self, expr: &Expr, env: &mut Env) {
        let before = self.notes.len();
        match expr.unparen() {
            Expr::DirectElement(d) => self.scavenge_direct(d, env),
            Expr::ComputedElement { content, .. }
            | Expr::ComputedAttribute { content, .. }
            | Expr::ComputedText(content)
            | Expr::ComputedDocument(content) => {
                if let Some(c) = content {
                    self.scavenge(c, env, "constructor content");
                }
            }
            _ => {}
        }
        // Rebrand the notes found inside as construction barriers.
        for note in &mut self.notes[before..] {
            if let Note::NonFilteringContext { detail, .. } = note {
                *note = Note::ConstructionBarrier { detail: std::mem::take(detail) };
            }
        }
    }

    fn scavenge_direct(&mut self, d: &xqdb_xquery::ast::DirectElement, env: &mut Env) {
        for (_, parts) in &d.attributes {
            for p in parts {
                if let ConstructorContent::Expr(e) = p {
                    self.scavenge(e, env, "constructor content");
                }
            }
        }
        for part in &d.content {
            match part {
                ConstructorContent::Expr(e) => self.scavenge(e, env, "constructor content"),
                ConstructorContent::Element(inner) => self.scavenge_direct(inner, env),
                _ => {}
            }
        }
    }
}

/// True if `expr` evaluates to items of more than one document: the
/// collection, a path or filter over it, or a `let`-bound collection
/// variable (a `for` variable and the context item hold one document).
fn spans_documents(expr: &Expr, env: &Env) -> bool {
    match expr.unparen() {
        Expr::Path { init, .. } => spans_documents(init, env),
        Expr::Filter { expr, .. } => spans_documents(expr, env),
        Expr::VarRef(name) => {
            matches!(env.vars.get(name), Some(Binding::Docs { per_tuple: false, .. }))
        }
        Expr::FunctionCall { args, .. } => {
            crate::engine::xmlcolumn_literal(expr).is_some()
                || args.iter().any(|a| spans_documents(a, env))
        }
        _ => false,
    }
}

fn strip_predicates(step: &Step) -> Step {
    match step {
        Step::Axis { axis, test, .. } => {
            Step::Axis { axis: *axis, test: test.clone(), predicates: vec![] }
        }
        Step::Filter { expr, .. } => {
            Step::Filter { expr: expr.clone(), predicates: vec![] }
        }
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
fn cast_target_of_function(name: &ExpandedName) -> Option<CmpTarget> {
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
fn const_compatible(value: &AtomicValue, target: CmpTarget) -> bool {
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
        Cond::Pred(c) => format!(
            "{}:{} {} {}",
            c.source,
            render_steps(&c.steps),
            c.op.general_symbol(),
            c.value.lexical()
        ),
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

    fn analyze(q: &str) -> Analysis {
        let parsed = parse_query(q).expect("test query parses");
        analyze_query_root(&parsed.body, &AnalysisEnv::new())
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
