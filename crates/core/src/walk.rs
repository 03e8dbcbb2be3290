//! The query walk: one pass over an XQuery body that answers the paper's
//! filtering-context question (Definition 1, Sections 3.2–3.6) — which
//! positions of the query can eliminate a document — for every consumer at
//! once.
//!
//! Each expression is classified once, by the [`Role`] its position gives
//! it and the [`Region`] it sits in. In a *filtering* position (the query
//! root, a `for` binding, a `where` clause, a path predicate, a FLWOR
//! `return`) a value predicate is a condition over documents; in a
//! *non-filtering* one (constructor content, an `if` condition, a function
//! argument, the XMLQUERY select list) the same predicate is recorded as a
//! [`Note`] instead. Below a FLWOR clause everything is evaluated *per
//! tuple*, where an aggregate never stands in for its argument:
//! `count($o/x[p])` is `0`, not empty, for a tuple without `x[p]`.
//!
//! At every path it recognizes, the walk records two things: the linear
//! [`PatternStep`] path that index containment needs, and the use-tree node
//! that the structural filters need ([`crate::structure`]). The condition,
//! the notes and the uses come back as one [`Walked`] result. The two
//! outputs differ on purpose in two rules:
//!
//! * the condition turns `or`, `if` and `union` into [`Cond::Or`], and a
//!   root-level aggregate filters by its argument ([`Role::Root`]);
//! * the use tree records nothing under `or`, `not()`, quantifiers or
//!   function arguments ([`Rec::Off`]) — a constraint left out only widens
//!   a filter.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use xqdb_twig::Edge;
use xqdb_xdm::compare::CompareOp;
use xqdb_xdm::{AtomicType, AtomicValue, ExpandedName};
use xqdb_xquery::ast::{
    Axis, ConstructorContent, Expr, Flwor, FlworClause, KindTest, LocalTest, NameTest, NodeTest,
    NsTest, QuantKind, Step,
};
use xqdb_xquery::PatternStep;

use crate::eligibility::candidates::{
    cast_target_of_function, const_compatible, const_value, AnalysisEnv, Candidate, CmpTarget,
    Cond, Note,
};
use crate::engine::{visit_exprs, xmlcolumn_literal};
use crate::structure::{Pos, Structure};

/// What one walk of an XQuery body decides.
pub(crate) struct Walked {
    /// Necessary condition over documents (`Cond::Any`: nothing filters).
    pub(crate) cond: Cond,
    /// Diagnostics for EXPLAIN.
    pub(crate) notes: Vec<Note>,
    /// The recognized uses of each source, after the occurrence guard.
    pub(crate) structure: Structure,
    /// Every source the body names: `xmlcolumn` literals and the sources
    /// of the PASSING variables it mentions.
    pub(crate) sources: BTreeSet<String>,
    /// The body as nodes on a linear path (the XMLTABLE row context).
    pub(crate) path: Option<Linear>,
}

/// Where an XQuery body sits, which decides how its result filters.
#[derive(Clone, Copy)]
pub(crate) enum Body<'a> {
    /// A standalone query, run once over the collections it names;
    /// `db2-fn:xmlcolumn` roots structural uses.
    Query,
    /// An XMLEXISTS argument or XMLTABLE row producer: an empty result
    /// drops the row. `db2-fn:xmlcolumn` ranges over the whole collection
    /// here, not the row, so only PASSING variables root uses.
    Exists,
    /// An XMLQUERY select-list item or XMLTABLE column: never filters.
    /// `ctx` is the context item (the row producer's path).
    Diagnostic { place: &'static str, ctx: Option<&'a Linear> },
}

/// Nodes reached from one collection's documents along a linear path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Linear {
    pub(crate) source: String,
    pub(crate) steps: Vec<PatternStep>,
}

/// Walk `body` once; `env` holds the PASSING bindings.
pub(crate) fn walk(body: &Expr, env: &AnalysisEnv, at: Body<'_>) -> Walked {
    let mut w = Walker { xmlcolumn_roots: matches!(at, Body::Query), ..Walker::default() };
    let mut scope = Scope::default();
    for (var, source) in env.vars() {
        let path = Some(Linear { source: source.clone(), steps: Vec::new() });
        let tree = Some(Tree::Doc(source.clone()));
        scope.vars.insert(var.clone(), Binding { path, tree, ..Binding::default() });
    }
    let mut body_at = At { rec: Rec::Top, ..At::default() };
    match at {
        Body::Query => body_at.role = Role::Root,
        Body::Exists => {}
        Body::Diagnostic { place, ctx } => {
            scope.ctx = ctx.map(|lin| (lin.clone(), w.group()));
            body_at = body_at.note(Some(place)).rec(Rec::Off);
        }
    }
    let out = w.expr(body, &scope, body_at);
    let mut cond = out.cond;
    // A body that always yields exactly one item makes "non-empty"
    // vacuous (Query 9).
    if matches!(at, Body::Exists) && always_singleton(body) {
        w.notes.push(Note::BooleanXmlExists);
        cond = Cond::Any;
    }
    // The occurrence guard: a source occurrence the walk did not recognize
    // as a use could let the source's documents contribute some other way.
    let columns = w.columns.iter().map(|(source, &n)| (source, n, w.xmlcolumn_roots));
    let vars = env.vars().filter_map(|(var, source)| Some((source, *w.names.get(var)?, true)));
    let mut sources = BTreeSet::new();
    let mut unguarded = BTreeSet::new();
    for (source, [total, rooted], guarded) in columns.chain(vars) {
        sources.insert(source.clone());
        if guarded && total != rooted {
            unguarded.insert(source.clone());
        }
    }
    w.structure.retain(|source| !unguarded.contains(source));
    Walked { cond, notes: w.notes, structure: w.structure, sources, path: lin(out.path) }
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

/// What a variable denotes, for both outputs.
#[derive(Clone, Default)]
struct Binding {
    /// The nodes' linear path; `None` when the condition cannot follow it.
    path: Option<Linear>,
    /// Bound by `let`: a sequence that may span documents, where `for`,
    /// `some` and PASSING bind one item per evaluation.
    spanning: bool,
    /// Necessary condition for a non-empty value, for a `where` that
    /// consumes a `let` variable (Query 21).
    nonempty: Cond,
    /// Where uses of the variable record; `None` records nothing.
    tree: Option<Tree>,
}

/// Where uses of a variable record in the use tree.
#[derive(Clone)]
enum Tree {
    /// A PASSING variable: each use opens a use of the source.
    Doc(String),
    /// A `for` variable, or a `let` over a `for` path: uses extend the
    /// binding's use from its end.
    For(Pos),
    /// A `let` over any other path: each use opens a fresh use seeded with
    /// the binding path, never tightening another use of the variable.
    Let(Pos),
}

/// Scoped bindings during the walk.
#[derive(Clone, Default)]
struct Scope {
    vars: HashMap<ExpandedName, Binding>,
    /// The context item inside a predicate: its path and group.
    ctx: Option<(Linear, u32)>,
}

/// A value resolved to nodes on a linear path of one collection.
struct Resolved {
    lin: Linear,
    /// Explicit cast applied by the query (e.g. `xs:double(.)`).
    cast: Option<CmpTarget>,
    /// At most one node per base item.
    singleton: bool,
    /// Group id when the path is (casts of) the predicate context item:
    /// two candidates with one group compare the same value.
    group: Option<u32>,
    /// Conditions contributed by predicates along the path.
    extra: Vec<Cond>,
}

/// A value as a linear path, or the conditions of the predicates found on
/// the way to the step that lost it.
type PathOut = Result<Resolved, Vec<Cond>>;

/// What walking one expression yields.
struct Out {
    cond: Cond,
    path: PathOut,
    /// Where a recorded chain ended.
    end: Option<Pos>,
}

impl Out {
    fn cond(cond: Cond) -> Out {
        Out { cond, path: Err(Vec::new()), end: None }
    }
}

/// How a position uses the value of its expression.
#[derive(Clone, Copy, Default, PartialEq)]
enum Role {
    /// The body of a standalone query, evaluated once: an aggregate
    /// filters by its argument.
    Root,
    /// The value must be non-empty.
    #[default]
    Nonempty,
    /// The effective boolean value must be true.
    Ebv,
    /// The value is wanted as a linear path (a comparison operand, a `let`
    /// binding); one that is not a path is a non-filtering position, with
    /// its notes at the place, if any.
    Value(Option<&'static str>),
}

/// What a found predicate becomes.
#[derive(Clone, Copy, Default, PartialEq)]
enum Region {
    /// A condition.
    #[default]
    Filter,
    /// A non-filtering position: a note at the place.
    Note(&'static str),
    /// Under a node constructor: a construction-barrier note.
    Barrier,
    /// Nothing: the expression is visited only to count occurrences.
    Quiet,
}

/// What a position records in the use tree.
#[derive(Clone, Copy, Default)]
enum Rec {
    #[default]
    Off,
    /// The query body or a comma item of it.
    Top,
    /// A `for`/`let` binding expression.
    Bind,
    /// A `where` conjunct, or (anchored) a predicate conjunct.
    Cond(Option<Pos>),
    /// A comparison operand of either.
    Operand(Option<Pos>),
}

/// The classification of one position.
#[derive(Clone, Copy, Default)]
struct At {
    role: Role,
    region: Region,
    rec: Rec,
    /// Inside a branch the twig pattern does not hold.
    hidden: bool,
    /// Inside a `let` binding expression.
    in_let: bool,
    /// Below a `for` variable inside a `let` binding: requires nothing.
    optional: bool,
}

impl At {
    fn role(self, role: Role) -> At {
        At { role, ..self }
    }

    fn rec(self, rec: Rec) -> At {
        At { rec, ..self }
    }

    /// A non-filtering position; `None` is one not worth a note. Inside
    /// another one, the outer place stands.
    fn note(self, place: Option<&'static str>) -> At {
        let region = match (self.region, place) {
            (Region::Filter, Some(place)) => Region::Note(place),
            (Region::Filter, None) => Region::Quiet,
            (region, _) => region,
        };
        At { region, ..self }
    }

    fn filtering(self) -> bool {
        self.region == Region::Filter && !matches!(self.role, Role::Value(_))
    }

    /// Where the predicates of a path this position cannot resolve are
    /// reported.
    fn lost_at(self) -> Option<&'static str> {
        match self.role {
            Role::Value(place) => place,
            _ => Some("unresolvable path"),
        }
    }

    /// Re-classify for the shape of `e`: the effective boolean value of a
    /// sequence is its non-emptiness, a boolean-valued expression is never
    /// empty, and a value that is not a path cannot filter.
    fn for_expr(self, e: &Expr) -> At {
        let nodes = matches!(e, Expr::Path { .. } | Expr::Filter { .. } | Expr::VarRef(_));
        let boolean =
            matches!(e, Expr::GeneralCmp(..) | Expr::ValueCmp(..) | Expr::Or(..) | Expr::And(..));
        match (self.role, e) {
            (Role::Ebv, Expr::Flwor(_) | Expr::Sequence(_)) => self.role(Role::Nonempty),
            (Role::Ebv, _) if nodes => self.role(Role::Nonempty),
            (Role::Ebv, Expr::FunctionCall { .. } | Expr::Quantified { .. }) => self,
            (Role::Ebv, _) if !boolean => self.note(Some("opaque condition")).role(Role::Nonempty),
            (Role::Root | Role::Nonempty, _) if boolean => {
                self.note(Some("boolean result")).role(Role::Ebv)
            }
            (Role::Value(place), _)
                if !nodes && !matches!(e, Expr::ContextItem | Expr::FunctionCall { .. }) =>
            {
                self.note(place).role(Role::Nonempty)
            }
            _ => self,
        }
    }
}

/// An operand whose emptiness carries over to its parent's in a filtering
/// position (`keep`), or one only visited to count occurrences.
fn kept(at: At, keep: bool) -> At {
    let region = if keep && at.filtering() { at.region } else { Region::Quiet };
    At { region, rec: Rec::Off, ..at }
}

/// Where a chain starts in the use tree.
#[derive(Clone, Copy)]
struct Start {
    pos: Pos,
    /// The chain opened its use, and closes it when it ends.
    fresh: bool,
    /// A predicate branch requires only the nodes it adds itself.
    own: usize,
}

#[derive(Default)]
struct Walker {
    notes: Vec<Note>,
    groups: u32,
    structure: Structure,
    /// Whether `db2-fn:xmlcolumn` roots uses (see [`Body::Exists`]).
    xmlcolumn_roots: bool,
    /// Per source: `xmlcolumn` occurrences, and those that rooted a use.
    columns: BTreeMap<String, [usize; 2]>,
    /// Per variable name: occurrences, and those that rooted a chain.
    names: HashMap<ExpandedName, [usize; 2]>,
}

impl Walker {
    fn group(&mut self) -> u32 {
        self.groups += 1;
        self.groups
    }

    /// A found candidate: a condition where the position filters, a note
    /// where it does not.
    fn candidate(&mut self, c: Candidate, at: At) -> Cond {
        let note = match at.region {
            Region::Filter => return Cond::Pred(c),
            Region::Note(place) => Note::NonFilteringContext { place, detail: c.render() },
            Region::Barrier => Note::ConstructionBarrier { detail: c.render() },
            Region::Quiet => return Cond::Any,
        };
        self.notes.push(note);
        Cond::Any
    }

    /// Conditions of a path the position cannot use: each candidate in
    /// them becomes a note where the position reports lost paths.
    fn lost(&mut self, conds: Vec<Cond>, at: At) {
        let at = at.note(at.lost_at());
        for cond in conds {
            match cond {
                Cond::Pred(c) => {
                    self.candidate(c, at);
                }
                Cond::And(conds) | Cond::Or(conds) => self.lost(conds, at),
                Cond::Any | Cond::Exists { .. } => {}
            }
        }
    }

    /// Count the source occurrences in `e`, a position that filters,
    /// notes and records nothing.
    fn count(&mut self, e: &Expr) {
        visit_exprs(e, &mut |e| match (e, xmlcolumn_literal(e)) {
            (Expr::VarRef(name), _) => self.names.entry(name.clone()).or_default()[0] += 1,
            (_, Some(source)) => self.columns.entry(source).or_default()[0] += 1,
            _ => {}
        });
    }

    fn expr(&mut self, e: &Expr, scope: &Scope, at: At) -> Out {
        let e = e.unparen();
        let at = at.for_expr(e);
        if at.region == Region::Quiet {
            self.count(e);
            return Out::cond(Cond::Any);
        }
        let mut out = match e {
            Expr::Path { init, steps } => {
                let (path, end) = self.path(init, steps, scope, at, !matches!(at.rec, Rec::Off));
                self.settle(path, end, at, None)
            }
            Expr::Filter { .. } => {
                let (path, end) = self.path(e, &[], scope, at, matches!(at.rec, Rec::Bind));
                self.settle(path, end, at, None)
            }
            Expr::VarRef(name) => {
                let record = match at.rec {
                    Rec::Bind => true,
                    Rec::Cond(None) | Rec::Operand(None) => rooted_at_for(e, scope),
                    _ => false,
                };
                let nonempty = scope.vars.get(name).map_or(Cond::Any, |b| b.nonempty.clone());
                let (path, end) = self.path(e, &[], scope, at, record);
                self.settle(path, end, at, Some(nonempty))
            }
            Expr::ContextItem => Out { cond: Cond::Any, path: context(scope), end: None },
            Expr::FunctionCall { name, args } => self.call(e, name, args, scope, at),
            Expr::Sequence(items) => {
                let at = if matches!(at.rec, Rec::Top) { at } else { at.rec(Rec::Off) };
                Out::cond(Cond::or(items.iter().map(|i| self.expr(i, scope, at).cond).collect()))
            }
            Expr::Flwor(f) => self.flwor(f, scope, at),
            Expr::If { cond, then, els } => {
                let at = at.rec(Rec::Off);
                self.expr(cond, scope, at.note(Some("if condition")).role(Role::Ebv));
                let branches =
                    vec![self.expr(then, scope, at).cond, self.expr(els, scope, at).cond];
                Out::cond(Cond::or(branches))
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                let is_and = matches!(e, Expr::And(..));
                let rec = if is_and && matches!(at.rec, Rec::Cond(_)) { at.rec } else { Rec::Off };
                let at = at.role(Role::Ebv).rec(rec);
                let conds = vec![self.expr(a, scope, at).cond, self.expr(b, scope, at).cond];
                Out::cond(if is_and { Cond::and(conds) } else { Cond::or(conds) })
            }
            Expr::GeneralCmp(op, l, r) | Expr::ValueCmp(op, l, r) => {
                let value_cmp = matches!(e, Expr::ValueCmp(..));
                Out::cond(self.comparison(*op, l, r, value_cmp, scope, at))
            }
            Expr::Quantified { kind, bindings, satisfies } => {
                // some $x in P satisfies C ≈ exists(P[C]).
                let at = kept(at, *kind == QuantKind::Some && at.role == Role::Ebv);
                let mut inner = scope.clone();
                let mut conds = Vec::new();
                for (var, bexpr) in bindings {
                    let out = self.expr(bexpr, &inner, at.role(Role::Nonempty));
                    conds.push(out.cond);
                    let binding = Binding { path: lin(out.path), ..Binding::default() };
                    inner.vars.insert(var.clone(), binding);
                }
                conds.push(self.expr(satisfies, &inner, at).cond);
                Out::cond(Cond::and(conds))
            }
            // Casts, unions, intersections and arithmetic with a constant
            // side are empty when their (left, non-constant) operand is.
            Expr::CastAs { expr: x, .. } | Expr::TreatAs(x, _) | Expr::UnaryMinus(x) => {
                Out::cond(self.expr(x, scope, kept(at, true)).cond)
            }
            Expr::Union(a, b) => {
                let (a, b) =
                    (self.expr(a, scope, kept(at, true)), self.expr(b, scope, kept(at, true)));
                Out::cond(Cond::or(vec![a.cond, b.cond]))
            }
            Expr::Intersect(a, b) | Expr::Except(a, b) => {
                let cond = self.expr(a, scope, kept(at, true)).cond;
                let right = kept(at, true).note(Some("intersect/except operand"));
                self.expr(b, scope, right);
                Out::cond(cond)
            }
            Expr::Arith(_, a, b) => {
                let (va, vb) = (const_value(a).is_none(), const_value(b).is_none());
                let ca = self.expr(a, scope, kept(at, va && !vb)).cond;
                let cb = self.expr(b, scope, kept(at, vb && !va)).cond;
                Out::cond(if va != vb { Cond::and(vec![ca, cb]) } else { Cond::Any })
            }
            Expr::DirectElement(_)
            | Expr::ComputedElement { .. }
            | Expr::ComputedAttribute { .. }
            | Expr::ComputedText(_)
            | Expr::ComputedDocument(_) => {
                let at = At { role: Role::Nonempty, region: Region::Barrier, rec: Rec::Off, ..at };
                for part in constructor_parts(e) {
                    self.expr(part, scope, at);
                }
                Out::cond(Cond::Any)
            }
            _ => {
                self.count(e);
                Out::cond(Cond::Any)
            }
        };
        if at.region != Region::Filter {
            out.cond = Cond::Any;
        }
        out
    }

    /// The outcome of a path-shaped value: the conditions of its
    /// predicates and `nonempty` (by default the path's existence), which
    /// together are the value's non-emptiness condition — kept by a `let`
    /// for a later `where`. A lost path's conditions become notes.
    fn settle(
        &mut self,
        mut path: PathOut,
        end: Option<Pos>,
        at: At,
        nonempty: Option<Cond>,
    ) -> Out {
        let cond = match &mut path {
            Ok(r) => {
                let exists =
                    || Cond::Exists { source: r.lin.source.clone(), steps: r.lin.steps.clone() };
                let mut conds = r.extra.clone();
                conds.push(nonempty.unwrap_or_else(exists));
                Cond::and(conds)
            }
            Err(lost) => {
                self.lost(std::mem::take(lost), at);
                Cond::Any
            }
        };
        Out { cond, path, end }
    }

    /// A path from `init` through `steps`: resolves its linear path,
    /// records its use-tree chain when `record`, and walks each predicate
    /// once for both.
    fn path(
        &mut self,
        init: &Expr,
        steps: &[Step],
        scope: &Scope,
        at: At,
        record: bool,
    ) -> (PathOut, Option<Pos>) {
        let at = if record {
            // A `let` binds an empty sequence instead of dropping the
            // tuple, so nothing a path inside one finds below a `for`
            // variable is required.
            At { optional: at.optional || (at.in_let && rooted_at_for(init, scope)), ..at }
        } else {
            at.rec(Rec::Off)
        };
        let (mut path, start) = self.root(init, scope, at);
        let mut cur = start.map(|s| s.pos);
        let mut end = cur;
        let mut edge = Edge::Child;
        for step in steps {
            if cur.is_some_and(|pos| self.structure.is_leaf(pos)) {
                cur = None;
            }
            let (keep, anchor, predicates) = match step {
                Step::Axis { axis, test, predicates } => {
                    let keep = path.as_mut().map_or(true, |r| r.axis_step(*axis, test));
                    let named = match (axis, test) {
                        (Axis::Child | Axis::Descendant, NodeTest::Name(nt)) => concrete_name(nt),
                        _ => None,
                    };
                    let anchor = match (cur, axis, test) {
                        (None, ..) => None,
                        // The `//` separator: a descendant edge for the next step.
                        (Some(_), Axis::DescendantOrSelf, NodeTest::Kind(KindTest::AnyKind))
                            if predicates.is_empty() =>
                        {
                            edge = Edge::Descendant;
                            None
                        }
                        (Some(pos), ..) if named.is_some() => {
                            if *axis == Axis::Descendant {
                                edge = Edge::Descendant;
                            }
                            cur = Some(self.structure.add(pos, edge, named, false));
                            (edge, end) = (Edge::Child, cur);
                            cur
                        }
                        // An attribute ends a chain; any other step is opaque.
                        (Some(pos), Axis::Attribute, NodeTest::Name(nt)) => {
                            end = Some(self.structure.add(pos, edge, concrete_name(nt), true));
                            cur = None;
                            None
                        }
                        (Some(pos), ..) => {
                            end = Some(self.structure.add(pos, edge, None, false));
                            cur = None;
                            None
                        }
                    };
                    (keep, anchor, predicates)
                }
                Step::Filter { expr, predicates } => {
                    self.count(expr);
                    let keep = path.as_mut().map_or(true, |r| r.filter_step(expr));
                    if let Some(pos) = cur.take() {
                        end = Some(self.structure.add(pos, edge, None, false));
                    }
                    (keep, None, predicates)
                }
            };
            if !keep {
                lose(&mut path);
            }
            for p in predicates {
                self.predicate(p, &mut path, anchor, scope, at);
            }
        }
        if let (Some(start), Some(end)) = (start, end) {
            self.structure.end(end, start.own, at.optional);
            if start.fresh {
                self.structure.close(start.pos);
            }
        }
        (path, end)
    }

    /// What a path is rooted at: its linear path and, when the position
    /// records, where its chain starts.
    fn root(&mut self, init: &Expr, scope: &Scope, at: At) -> (PathOut, Option<Start>) {
        let record = !matches!(at.rec, Rec::Off);
        let fresh = |pos| Start { pos, fresh: true, own: 0 };
        match init.unparen() {
            Expr::VarRef(name) => {
                let binding = scope.vars.get(name);
                let path = binding.and_then(|b| {
                    let lin = b.path.clone()?;
                    let singleton = !b.spanning && lin.steps.is_empty();
                    Some(Resolved::new(lin, singleton, None))
                });
                let tree = binding.and_then(|b| b.tree.clone()).filter(|_| record);
                let count = self.names.entry(name.clone()).or_default();
                count[0] += 1;
                count[1] += usize::from(tree.is_some());
                let start = tree.map(|tree| match tree {
                    Tree::Doc(source) => fresh(self.structure.open(source, at.hidden, false)),
                    Tree::For(pos) => {
                        Start { pos: Pos { on_path: false, ..pos }, fresh: false, own: 0 }
                    }
                    Tree::Let(pos) => fresh(self.structure.seed(pos, at.hidden)),
                });
                (path.ok_or_else(Vec::new), start)
            }
            // A context-relative path in a predicate branches below it.
            Expr::ContextItem => {
                let start = match at.rec {
                    Rec::Cond(Some(anchor)) | Rec::Operand(Some(anchor)) => {
                        let (pos, own) = self.structure.branch(anchor);
                        Some(Start { pos, fresh: false, own })
                    }
                    _ => None,
                };
                (context(scope), start)
            }
            Expr::Filter { expr, predicates } => {
                // A filter over items of several documents that is not a
                // per-document truth value (`xmlcolumn('S')[1]`) depends on
                // which other documents exist: narrowing the collection
                // first would change its answer.
                if spans(expr, scope) && !predicates.iter().all(per_document) {
                    self.count(init);
                    return (Err(Vec::new()), None);
                }
                let (mut path, start) = self.root(expr, scope, at);
                for p in predicates {
                    self.predicate(p, &mut path, start.map(|s| s.pos), scope, at);
                }
                (path, start)
            }
            e => match xmlcolumn_literal(e) {
                Some(source) => {
                    let record = record && self.xmlcolumn_roots;
                    let count = self.columns.entry(source.clone()).or_default();
                    count[0] += 1;
                    count[1] += usize::from(record);
                    let start = record
                        .then(|| fresh(self.structure.open(source.clone(), at.hidden, false)));
                    let lin = Linear { source, steps: Vec::new() };
                    (Ok(Resolved::new(lin, false, None)), start)
                }
                None => {
                    let at = at.role(Role::Value(at.lost_at())).rec(Rec::Off);
                    (self.expr(e, scope, at).path, None)
                }
            },
        }
    }

    /// One step or filter predicate, with the path so far as its context
    /// item: its condition joins the path's, and an `anchor` records its
    /// paths as branches below that node.
    fn predicate(
        &mut self,
        pred: &Expr,
        path: &mut PathOut,
        anchor: Option<Pos>,
        scope: &Scope,
        at: At,
    ) {
        // A numeric literal is positional: nothing beyond the path itself.
        if matches!(pred.unparen(), Expr::Literal(v) if v.atomic_type().is_numeric()) {
            return;
        }
        let group = self.group();
        let ctx = path.as_ref().ok().map(|r| (r.lin.clone(), group));
        let inner = Scope { vars: scope.vars.clone(), ctx };
        let rec = anchor.map_or(Rec::Off, |a| Rec::Cond(Some(a)));
        let hidden = at.hidden || anchor.is_some_and(|a| !a.on_path);
        let cond = self.expr(pred, &inner, At { role: Role::Ebv, rec, hidden, ..at }).cond;
        if cond != Cond::Any {
            match path {
                Ok(r) => r.extra.push(cond),
                Err(lost) => lost.push(cond),
            }
        }
    }

    fn call(&mut self, e: &Expr, name: &ExpandedName, args: &[Expr], scope: &Scope, at: At) -> Out {
        if xmlcolumn_literal(e).is_some() {
            let (path, end) = self.path(e, &[], scope, at, matches!(at.rec, Rec::Top | Rec::Bind));
            return Out { cond: Cond::Any, path, end };
        }
        let at = at.rec(Rec::Off);
        let cast = cast_target_of_function(name);
        let db2 = name.ns.as_deref() == Some(xqdb_xdm::qname::DB2_FN_NS);
        match (at.role, &*name.local, args) {
            // The result is empty exactly when the argument is.
            (Role::Root | Role::Nonempty, "data" | "distinct-values" | "reverse", [arg])
            | (Role::Value(_), "data", [arg]) => self.expr(arg, scope, at),
            // Pure sequence functions run once over the collections: a
            // document contributing nothing to the argument cannot change
            // the result, so the predicate inside
            // `avg(//lineitem[@price > X]/...)` filters. Only at the query
            // root: per tuple, `count(())` is `0`, not empty. Extra
            // arguments must be constants (no document can reach them).
            (
                Role::Root,
                "count" | "sum" | "avg" | "min" | "max" | "string-join" | "subsequence" | "empty"
                | "not" | "boolean" | "number" | "string" | "exists",
                [first, rest @ ..],
            ) if rest.iter().all(|a| const_value(a).is_some()) => {
                let cond = self.expr(first, scope, at).cond;
                rest.iter().for_each(|a| self.count(a));
                Out::cond(cond)
            }
            (Role::Ebv, "exists" | "boolean", [arg]) => {
                Out::cond(self.expr(arg, scope, at.role(Role::Nonempty)).cond)
            }
            // db2-fn:between($path, lo, hi): both bounds test the same item,
            // so the pair merges into one range scan (the paper's Section 4).
            (Role::Ebv, "between", [path, lo, hi]) if db2 => {
                let node = self.expr(path, scope, at.role(Role::Value(None))).path;
                self.count(lo);
                self.count(hi);
                let (Ok(node), Some(lo), Some(hi)) = (node, const_value(lo), const_value(hi))
                else {
                    return Out::cond(Cond::Any);
                };
                let (group, at) = (Some(self.group()), at.role(Role::Value(None)));
                Out::cond(self.compare(
                    node,
                    vec![(CompareOp::Ge, lo), (CompareOp::Le, hi)],
                    false,
                    group,
                    at,
                ))
            }
            (Role::Value(_), _, [arg]) if cast.is_some() => {
                let mut out = self.expr(arg, scope, at);
                if !out.path.as_mut().is_ok_and(|r| std::mem::replace(&mut r.cast, cast).is_none())
                {
                    lose(&mut out.path);
                }
                out
            }
            (Role::Value(_), "data", []) => {
                Out { cond: Cond::Any, path: context(scope), end: None }
            }
            (role, ..) => {
                let place = match role {
                    Role::Value(place) => place,
                    _ => Some("function argument"),
                };
                for a in args {
                    self.expr(a, scope, at.note(place).role(Role::Nonempty));
                }
                Out::cond(Cond::Any)
            }
        }
    }

    /// A comparison: `path op constant`, either way round.
    fn comparison(
        &mut self,
        op: CompareOp,
        l: &Expr,
        r: &Expr,
        value_cmp: bool,
        scope: &Scope,
        at: At,
    ) -> Cond {
        // Existential semantics: an empty operand makes the comparison
        // false, so each path operand is required.
        let at = at.rec(match at.rec {
            Rec::Cond(anchor) => Rec::Operand(anchor),
            _ => Rec::Off,
        });
        let place = Some("comparison operand");
        let side = |node: bool| {
            if node {
                at.role(Role::Value(place))
            } else {
                at.note(place).role(Role::Nonempty)
            }
        };
        let (lc, rc) = (const_value(l), const_value(r));
        let lo = self.expr(l, scope, side(lc.is_none() && rc.is_some()));
        let ro = self.expr(r, scope, side(rc.is_none() && lc.is_some()));
        let (node, value, op) = match (lo.path, ro.path, lc, rc) {
            (Ok(node), _, None, Some(value)) => (node, value, op),
            (_, Ok(node), Some(value), None) => (node, value, op.flip()),
            _ => return Cond::Any,
        };
        let (singleton, group) = (value_cmp || node.singleton, node.group);
        self.compare(node, vec![(op, value)], singleton, group, at.role(Role::Value(place)))
    }

    /// The candidates comparing `node` with constants, after its path's own
    /// conditions. The comparison type (Section 3.1): an explicit cast
    /// wins, else the constant's dynamic type decides how untyped data is
    /// promoted; a constant that type cannot take is a runtime type error.
    fn compare(
        &mut self,
        node: Resolved,
        bounds: Vec<(CompareOp, AtomicValue)>,
        singleton: bool,
        group: Option<u32>,
        at: At,
    ) -> Cond {
        let target = bounds.first().and_then(|(_, v)| node.cast.or_else(|| target_of(v)));
        let Some(target) = target.filter(|&t| bounds.iter().all(|(_, v)| const_compatible(v, t)))
        else {
            self.lost(node.extra, at);
            return Cond::Any;
        };
        let mut conds = node.extra;
        for (op, value) in bounds {
            let (source, steps) = (node.lin.source.clone(), node.lin.steps.clone());
            let c = Candidate { source, steps, op, value, target, singleton, group };
            conds.push(self.candidate(c, at));
        }
        Cond::and(conds)
    }

    fn flwor(&mut self, f: &Flwor, scope: &Scope, at: At) -> Out {
        let recording = matches!(at.rec, Rec::Top | Rec::Cond(None));
        let clause = |role, rec| at.role(role).rec(if recording { rec } else { Rec::Off });
        let mut scope = scope.clone();
        let mut conds = Vec::new();
        for c in &f.clauses {
            match c {
                // An empty for-binding kills every tuple: filtering.
                FlworClause::For { var, position, expr } => {
                    let out = self.expr(expr, &scope, clause(Role::Nonempty, Rec::Bind));
                    conds.push(out.cond);
                    let (path, tree) = (lin(out.path), out.end.map(Tree::For));
                    scope.vars.insert(var.clone(), Binding { path, tree, ..Binding::default() });
                    if let Some(p) = position {
                        scope.vars.insert(p.clone(), Binding::default());
                    }
                }
                // An empty let-binding survives (Section 3.4): not
                // filtering by itself, but a later `where $var` can use its
                // emptiness condition (Query 21).
                FlworClause::Let { var, expr } => {
                    let over_for = rooted_at_for(expr, &scope);
                    let at = At { in_let: true, ..clause(Role::Value(None), Rec::Bind) };
                    let out = self.expr(expr, &scope, at);
                    let path = lin(out.path);
                    let nonempty = if path.is_some() { out.cond } else { Cond::Any };
                    let tree =
                        out.end.map(|end| if over_for { Tree::For(end) } else { Tree::Let(end) });
                    let binding = Binding { path, spanning: true, nonempty, tree };
                    scope.vars.insert(var.clone(), binding);
                }
                FlworClause::Where(cond) => {
                    conds.push(self.expr(cond, &scope, clause(Role::Ebv, Rec::Cond(None))).cond)
                }
                // Ordering permutes tuples; key expressions may be empty.
                FlworClause::OrderBy(specs) => {
                    for s in specs {
                        self.expr(&s.expr, &scope, at.note(None).rec(Rec::Off));
                    }
                }
            }
        }
        // Bind-out iteration: a tuple with an empty `return` contributes
        // nothing (Query 22).
        conds.push(self.expr(&f.ret, &scope, clause(Role::Nonempty, Rec::Off)).cond);
        Out::cond(Cond::and(conds))
    }
}

impl Resolved {
    fn new(lin: Linear, singleton: bool, group: Option<u32>) -> Resolved {
        Resolved { lin, cast: None, singleton, group, extra: Vec::new() }
    }

    /// Follow an axis step; `false` for shapes a pattern cannot hold.
    fn axis_step(&mut self, axis: Axis, test: &NodeTest) -> bool {
        if self.cast.is_some() || axis == Axis::Parent {
            return false;
        }
        self.lin.steps.push(PatternStep { axis, test: test.clone() });
        // Exact-name attribute and self steps keep at most one node per
        // base item; every other step may fan out.
        self.singleton &= match axis {
            Axis::SelfAxis => true,
            Axis::Attribute => {
                matches!(test, NodeTest::Name(nt) if !matches!(nt.local, LocalTest::Any))
            }
            _ => false,
        };
        if axis != Axis::SelfAxis {
            self.group = None;
        }
        true
    }

    /// Follow a filter step: a cast or `data()` of the context item, or the
    /// context item itself.
    fn filter_step(&mut self, expr: &Expr) -> bool {
        match expr.unparen() {
            Expr::FunctionCall { name, args }
                if matches!(args.as_slice(), [] | [Expr::ContextItem]) =>
            {
                match cast_target_of_function(name) {
                    Some(t) => self.cast.replace(t).is_none(),
                    None => &*name.local == "data",
                }
            }
            Expr::ContextItem => true,
            _ => false,
        }
    }
}

/// Give up a path, keeping the conditions its predicates found.
fn lose(path: &mut PathOut) {
    if let Ok(r) = path {
        let lost = std::mem::take(&mut r.extra);
        *path = Err(lost);
    }
}

fn lin(path: PathOut) -> Option<Linear> {
    path.ok().filter(|r| r.cast.is_none()).map(|r| r.lin)
}

/// The context item inside a predicate.
fn context(scope: &Scope) -> PathOut {
    let (lin, group) = scope.ctx.clone().ok_or_else(Vec::new)?;
    Ok(Resolved::new(lin, true, Some(group)))
}

/// The comparison type a constant selects for untyped data.
fn target_of(value: &AtomicValue) -> Option<CmpTarget> {
    match value.atomic_type() {
        t if t.is_numeric() => Some(CmpTarget::Double),
        AtomicType::String | AtomicType::UntypedAtomic => Some(CmpTarget::String),
        AtomicType::Date => Some(CmpTarget::Date),
        AtomicType::DateTime => Some(CmpTarget::Timestamp),
        _ => None,
    }
}

/// True if `expr` evaluates to items of more than one document: the
/// collection, a path or filter over it, or a `let` variable bound to one
/// (a `for` variable and the context item hold one document's items).
fn spans(expr: &Expr, scope: &Scope) -> bool {
    match expr.unparen() {
        Expr::Path { init, .. } => spans(init, scope),
        Expr::Filter { expr, .. } => spans(expr, scope),
        Expr::VarRef(v) => scope.vars.get(v).is_some_and(|b| b.path.is_some() && b.spanning),
        e @ Expr::FunctionCall { args, .. } => {
            xmlcolumn_literal(e).is_some() || args.iter().any(|a| spans(a, scope))
        }
        _ => false,
    }
}

/// True if a filter predicate is a per-document truth value — node paths,
/// comparisons of paths and literals, `and`/`or` of those — never a
/// position that depends on the other items of the filtered sequence.
fn per_document(pred: &Expr) -> bool {
    let plain = |e: &Expr| match e.unparen() {
        Expr::Path { steps, .. } => steps.iter().all(|s| matches!(s, Step::Axis { .. })),
        _ => false,
    };
    match pred.unparen() {
        Expr::And(a, b) | Expr::Or(a, b) => per_document(a) && per_document(b),
        Expr::GeneralCmp(_, a, b) | Expr::ValueCmp(_, a, b) => {
            [a, b].iter().all(|e| plain(e) || matches!(e.unparen(), Expr::Literal(_)))
        }
        e => plain(e),
    }
}

/// True if `expr` is a path (possibly filtered) rooted at a recorded `for`
/// variable.
fn rooted_at_for(expr: &Expr, scope: &Scope) -> bool {
    match expr.unparen() {
        Expr::Path { init, .. } => rooted_at_for(init, scope),
        Expr::Filter { expr, .. } => rooted_at_for(expr, scope),
        Expr::VarRef(v) => {
            matches!(scope.vars.get(v), Some(Binding { tree: Some(Tree::For(_)), .. }))
        }
        _ => false,
    }
}

/// A concrete (fully named) name test, if this is one.
fn concrete_name(nt: &NameTest) -> Option<ExpandedName> {
    let LocalTest::Name(local) = &nt.local else {
        return None;
    };
    match &nt.ns {
        NsTest::NoNamespace => Some(ExpandedName { ns: None, local: local.clone() }),
        NsTest::Uri(u) => Some(ExpandedName { ns: Some(u.clone()), local: local.clone() }),
        NsTest::Any => None,
    }
}

/// The enclosed expressions of a node constructor, in document order.
fn constructor_parts(e: &Expr) -> Vec<&Expr> {
    fn direct<'e>(d: &'e xqdb_xquery::ast::DirectElement, out: &mut Vec<&'e Expr>) {
        let attributes = d.attributes.iter().flat_map(|(_, parts)| parts);
        for part in attributes.chain(&d.content) {
            match part {
                ConstructorContent::Expr(e) => out.push(e),
                ConstructorContent::Element(inner) => direct(inner, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    match e {
        Expr::DirectElement(d) => direct(d, &mut out),
        Expr::ComputedElement { content, .. }
        | Expr::ComputedAttribute { content, .. }
        | Expr::ComputedText(content)
        | Expr::ComputedDocument(content) => out.extend(content.as_deref()),
        _ => {}
    }
    out
}
