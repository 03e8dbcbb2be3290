//! Structural extraction: one walk of the query, two derived filters.
//!
//! Both structural pre-filters — the signature prefilter
//! ([`SourcePrefilter`]) and the holistic twig join ([`SourceTwig`]) —
//! need the same fact about a query: which element/attribute structure a
//! document **must** contain to contribute anything. [`extract`] walks the
//! query once and records every recognized *use* of a source as a tree of
//! steps below the document root; [`Structure::prefilters`] and
//! [`Structure::twigs`] then derive each filter from those uses. Both obey
//! Definition 1: they may pass documents that do not match, never drop one
//! that could contribute.
//!
//! ## Uses, OR'd per source
//!
//! Two `for` clauses over one source form a cartesian product; a `let` and
//! a separate path are independent uses. A document may contribute through
//! any use, so each filter keeps a document if **any** use accepts it. A
//! use rooted at a path contributes the empty sequence on a document
//! lacking that path, and positions, aggregates and node sequences are
//! computed over non-empty contributions only — so dropping such a
//! document cannot change what the use produces for the others.
//!
//! ## What the walk records
//!
//! * Positions: the query body (comma items each a use), FLWOR `for`/`let`
//!   binding expressions and `where` conjuncts after `and`-flattening,
//!   comparison operands, step predicates and filter predicates. `or`,
//!   `not()`, quantifiers, function arguments, `order by` and `return`
//!   record nothing.
//! * Steps: `child::name` and `descendant::name` (also `//name`) with a
//!   concrete, namespace-resolved name (Tip 9) become nodes with a child or
//!   descendant edge; `@name` becomes a terminal node. Any other step
//!   (wildcard, kind test, `self::`, `parent::`, filter step) becomes an
//!   *opaque* node that ends the chain.
//! * Roots: `db2-fn:xmlcolumn('S')` (XQuery only: inside an SQL
//!   `XMLEXISTS` it ranges over the whole collection, not the row) and SQL
//!   PASSING variables open a fresh use. A `for` variable's uses extend the
//!   use of its binding; so do a `let` over a `for` path's uses. A `let`
//!   over any other path opens a use of its own, and each use of the `let`
//!   variable opens a fresh use seeded with the binding's path. A `let`
//!   binds an empty sequence instead of dropping the tuple, so nothing its
//!   binding expression finds below a `for` variable is required. A filter
//!   on the collection itself roots a use only if every predicate is a
//!   per-document truth value: `xmlcolumn('S')[1]` depends on which other
//!   documents survive.
//! * One occurrence guard: if the query mentions `xmlcolumn('S')` or a
//!   PASSING variable bound to `S` more often than the walk recognized as
//!   uses (an aggregate argument, a bare `$d` in `return`), `S` gets no
//!   filter at all.
//!
//! ## The two derivations
//!
//! * **Prefilter group** per use: the rooted child/attribute paths at the
//!   end of each required chain, cut at the first descendant edge or opaque
//!   node (the safe prefix), in the order the chains ended. A use with no
//!   such path accepts every document and drops the source's filter.
//! * **Twig pattern** per use: the nodes reached along the use's own path
//!   and its step predicates, up to [`xqdb_twig::MAX_PATTERN_NODES`].
//!   Variable uses are covered by their binding's pattern, so they add
//!   nothing; a use the pattern cannot root (a bare source, a leading
//!   wildcard), or one found inside a branch the pattern does not hold,
//!   drops the source. A source is routed through the join only if some
//!   pattern has a descendant edge or a branch — pure child chains are the
//!   cheaper signature prefilter's job.

use std::collections::HashMap;

use xqdb_storage::{extend_attribute, extend_element, render_component, PATH_HASH_SEED};
use xqdb_twig::{Edge, Pattern};
use xqdb_xdm::ExpandedName;
use xqdb_xquery::ast::{
    Axis, Expr, Flwor, FlworClause, KindTest, LocalTest, NameTest, NodeTest, NsTest, Step,
};

use crate::eligibility::AnalysisEnv;
use crate::engine::{visit_exprs, xmlcolumn_literal};
use crate::prefilter::{RequiredGroup, SourcePrefilter};
use crate::twig::SourceTwig;

/// One component of a required rooted path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathComponent {
    /// A child element with a concrete expanded name.
    Element(ExpandedName),
    /// An attribute with a concrete expanded name (always terminal).
    Attribute(ExpandedName),
}

/// A rooted path a document must contain (non-empty component chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequiredPath {
    /// Components from the document root down.
    pub components: Vec<PathComponent>,
}

impl RequiredPath {
    /// The path's signature hash — same incremental construction the
    /// storage layer uses at insert time, so bits line up.
    pub fn hash(&self) -> u64 {
        let mut h = PATH_HASH_SEED;
        for c in &self.components {
            h = match c {
                PathComponent::Element(n) => extend_element(h, n),
                PathComponent::Attribute(n) => extend_attribute(h, n),
            };
        }
        h
    }

    /// Render in the storage synopsis's clark form (`/{ns}a/b/@c`), for
    /// EXPLAIN notes and the exact-path property tests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.components {
            match c {
                PathComponent::Element(n) => render_component(&mut out, false, n),
                PathComponent::Attribute(n) => render_component(&mut out, true, n),
            }
        }
        out
    }
}

/// One step of a use, below its parent (`None`: the document root).
#[derive(Debug)]
struct Node {
    parent: Option<usize>,
    edge: Edge,
    /// `None` for an opaque step; nothing is recorded below one.
    name: Option<ExpandedName>,
    attribute: bool,
    /// Reached along the use's own path or a step predicate below it — not
    /// through a variable, nor through a predicate on the document node
    /// itself (`xmlcolumn('S')[a/b]`).
    on_path: bool,
}

/// Where one chain of steps ended.
#[derive(Debug)]
struct End {
    node: Option<usize>,
    /// A predicate branch requires only the nodes it added itself (index
    /// `>= own`); a chain standing on its own has `own == 0`.
    own: usize,
    /// Below a `for` variable inside a `let` binding: requires nothing.
    optional: bool,
}

/// One recognized use of a source: a tree of steps below the document.
#[derive(Debug)]
struct Use {
    source: String,
    /// Parent-before-child, in walk order.
    nodes: Vec<Node>,
    /// Chain ends, in the order the chains ended.
    ends: Vec<End>,
    /// Opened by a use of a `let` variable, seeded with its binding path.
    seeded: bool,
    /// Found inside a predicate of a node that is not on its use's path.
    hidden: bool,
    /// When the use's own path was fully walked (orders the patterns).
    closed: usize,
}

impl Use {
    /// The required path at the deepest node of `end` reachable from the
    /// root through named child edges — if that node belongs to the chain.
    fn requirement(&self, end: &End) -> Option<RequiredPath> {
        let mut chain = Vec::new();
        let mut cur = end.node;
        while let Some(i) = cur {
            chain.push(i);
            cur = self.nodes[i].parent;
        }
        let placed: Vec<(usize, &Node)> = chain
            .into_iter()
            .rev()
            .map(|i| (i, &self.nodes[i]))
            .take_while(|(_, n)| n.name.is_some() && n.edge == Edge::Child)
            .collect();
        if placed.last().is_none_or(|&(last, _)| last < end.own) {
            return None;
        }
        let components = placed
            .into_iter()
            .filter_map(|(_, n)| {
                let name = n.name.clone()?;
                Some(if n.attribute {
                    PathComponent::Attribute(name)
                } else {
                    PathComponent::Element(name)
                })
            })
            .collect();
        Some(RequiredPath { components })
    }

    /// The twig pattern of the use's own path and step predicates, capped
    /// at the first [`xqdb_twig::MAX_PATTERN_NODES`] nodes. `None` if the
    /// path names no root.
    fn pattern(&self) -> Option<Pattern> {
        let mut pattern: Option<Pattern> = None;
        let mut index = vec![None; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            let (true, Some(name)) = (n.on_path, &n.name) else {
                continue;
            };
            let component = if n.attribute { format!("@{}", name.clark()) } else { name.clark() };
            index[i] = match (pattern.as_mut(), n.parent) {
                (None, None) => {
                    pattern = Some(Pattern::root(n.edge, component, n.attribute));
                    Some(0)
                }
                (Some(p), Some(parent)) => match index[parent] {
                    Some(at) => match p.add_child(at, n.edge, component, n.attribute) {
                        Some(idx) => Some(idx),
                        None => break,
                    },
                    None => None,
                },
                _ => None,
            };
        }
        pattern
    }
}

/// The recognized uses of a query's sources, after the occurrence guard.
#[derive(Debug)]
pub(crate) struct Structure {
    uses: Vec<Use>,
}

impl Structure {
    /// Per-source signature prefilters: one conjunctive group per use.
    pub(crate) fn prefilters(&self) -> HashMap<String, SourcePrefilter> {
        let mut groups: HashMap<&str, Vec<Vec<RequiredPath>>> = HashMap::new();
        for u in &self.uses {
            let mut paths: Vec<RequiredPath> = Vec::new();
            let required = u.ends.iter().filter(|e| !e.optional);
            for path in required.filter_map(|e| u.requirement(e)) {
                if !paths.contains(&path) {
                    paths.push(path);
                }
            }
            groups.entry(&u.source).or_default().push(paths);
        }
        groups
            .into_iter()
            .filter(|(_, groups)| !groups.iter().any(Vec::is_empty))
            .map(|(src, groups)| {
                let groups = groups.into_iter().map(RequiredGroup::new).collect();
                (src.to_string(), SourcePrefilter { groups })
            })
            .collect()
    }

    /// Per-source twig patterns: one per use, kept only if every use
    /// lowered and some pattern is worth the join.
    pub(crate) fn twigs(&self) -> HashMap<String, SourceTwig> {
        let mut uses: Vec<&Use> = self.uses.iter().filter(|u| !u.seeded).collect();
        uses.sort_by_key(|u| u.closed);
        let mut patterns: HashMap<&str, Option<Vec<Pattern>>> = HashMap::new();
        for u in uses {
            let entry = patterns.entry(&u.source).or_insert_with(|| Some(Vec::new()));
            match (entry.as_mut(), u.pattern().filter(|_| !u.hidden)) {
                (Some(ps), Some(p)) if ps.contains(&p) => {}
                (Some(ps), Some(p)) => ps.push(p),
                _ => *entry = None,
            }
        }
        patterns
            .into_iter()
            .filter_map(|(src, ps)| {
                let patterns = ps?;
                patterns
                    .iter()
                    .any(|p| p.has_descendant_edge() || p.has_branch())
                    .then(|| (src.to_string(), SourceTwig { patterns }))
            })
            .collect()
    }
}

/// Walk `body` once and record every recognized use of a source.
///
/// `env` supplies the doc-level variable bindings (SQL PASSING clauses);
/// `recognize_xmlcolumn` says whether `db2-fn:xmlcolumn()` calls root uses
/// (true for the XQuery engine's collection scans, false for SQL row
/// filtering — see module docs).
pub(crate) fn extract(body: &Expr, env: &AnalysisEnv, recognize_xmlcolumn: bool) -> Structure {
    let mut walk = Walk {
        uses: Vec::new(),
        recognized: HashMap::new(),
        var_uses: HashMap::new(),
        recognize_xmlcolumn,
        closed: 0,
    };
    let vars: Vars =
        env.doc_bindings().map(|(v, b)| (v.clone(), Binding::Doc(b.source.clone()))).collect();
    walk.collect(body, &vars, Ctx::default());

    // The occurrence guard: an occurrence the walk did not recognize as a
    // use could let the source's documents contribute some other way.
    let mut unguarded = unguarded_doc_sources(body, env, &walk.var_uses);
    if recognize_xmlcolumn {
        let mut total: HashMap<String, usize> = HashMap::new();
        visit_exprs(body, &mut |e| {
            if let Some(src) = xmlcolumn_literal(e) {
                *total.entry(src).or_insert(0) += 1;
            }
        });
        unguarded.extend(total.into_iter().filter_map(|(src, n)| {
            (walk.recognized.get(&src).copied().unwrap_or(0) != n).then_some(src)
        }));
    }
    let mut uses = walk.uses;
    uses.retain(|u| !unguarded.contains(&u.source));
    Structure { uses }
}

/// The sources of doc-level variables (SQL PASSING bindings) that occur in
/// `body` more often than `recognized` counts uses of their name. Shadowing
/// bindings share the name and only make the guard drop more.
fn unguarded_doc_sources(
    body: &Expr,
    env: &AnalysisEnv,
    recognized: &HashMap<ExpandedName, usize>,
) -> Vec<String> {
    env.doc_bindings()
        .filter(|(var, _)| {
            let mut total = 0usize;
            visit_exprs(body, &mut |e| {
                total += usize::from(matches!(e, Expr::VarRef(v) if v == *var));
            });
            total != recognized.get(*var).copied().unwrap_or(0)
        })
        .map(|(_, b)| b.source.clone())
        .collect()
}

/// What a variable the walk tracks is bound to. Untracked variables
/// (positional ones, unrecognized bindings) are absent: their uses
/// record nothing, which is always safe.
#[derive(Clone)]
enum Binding {
    /// An SQL PASSING variable: each use opens a fresh use of the source.
    Doc(String),
    /// A `for` variable (or a `let` over a `for` path): uses extend the
    /// binding's use from its end node.
    For { use_id: usize, node: Option<usize> },
    /// A `let` over any other path: each use opens a fresh use seeded with
    /// the binding path — never tightening another use of the variable.
    Let { use_id: usize, node: Option<usize> },
}

type Vars = HashMap<ExpandedName, Binding>;

/// Where the walk currently records.
#[derive(Clone, Copy, Default)]
struct Ctx {
    /// Inside a branch the twig pattern does not hold.
    hidden: bool,
    /// Inside a `let` binding expression.
    in_let: bool,
    /// Inside a path below a `for` variable within a `let` binding.
    optional: bool,
}

/// A position in a use's tree.
#[derive(Clone, Copy)]
struct Pos {
    use_id: usize,
    node: Option<usize>,
    on_path: bool,
}

struct Walk {
    uses: Vec<Use>,
    /// Per-source count of `xmlcolumn()` occurrences that rooted a use.
    recognized: HashMap<String, usize>,
    /// Per-name count of variable occurrences that rooted a chain.
    var_uses: HashMap<ExpandedName, usize>,
    recognize_xmlcolumn: bool,
    /// Uses closed so far.
    closed: usize,
}

impl Walk {
    /// A top-level position: the query body or a comma item.
    fn collect(&mut self, expr: &Expr, vars: &Vars, ctx: Ctx) {
        match expr.unparen() {
            Expr::Path { init, steps } => {
                self.chain(init, steps, vars, ctx);
            }
            Expr::Flwor(f) => self.flwor(f, vars, ctx),
            Expr::Sequence(items) => {
                for item in items {
                    self.collect(item, vars, ctx);
                }
            }
            // A bare xmlcolumn('S') returns every document of S: a use
            // with no steps, which accepts everything.
            e @ Expr::FunctionCall { .. } => {
                if let Some(src) = self.xmlcolumn(e) {
                    let use_id = self.open(src, ctx, false);
                    self.close(use_id);
                }
            }
            _ => {}
        }
    }

    fn flwor(&mut self, f: &Flwor, outer: &Vars, ctx: Ctx) {
        let mut vars = outer.clone();
        for clause in &f.clauses {
            match clause {
                FlworClause::For { var, position, expr } => {
                    match self.binding(expr, &vars, ctx) {
                        Some(end) => vars.insert(
                            var.clone(),
                            Binding::For { use_id: end.use_id, node: end.node },
                        ),
                        // Shadow any outer binding of the same name.
                        None => vars.remove(var),
                    };
                    if let Some(p) = position {
                        vars.remove(p);
                    }
                }
                FlworClause::Let { var, expr } => {
                    let over_for = rooted_at_for_var(expr, &vars);
                    match self.binding(expr, &vars, Ctx { in_let: true, ..ctx }) {
                        Some(end) if over_for => vars.insert(
                            var.clone(),
                            Binding::For { use_id: end.use_id, node: end.node },
                        ),
                        Some(end) => vars.insert(
                            var.clone(),
                            Binding::Let { use_id: end.use_id, node: end.node },
                        ),
                        None => vars.remove(var),
                    };
                }
                FlworClause::Where(cond) => {
                    for c in conjuncts(cond) {
                        self.condition(c, &vars, ctx);
                    }
                }
                // Ordering permutes tuples; key expressions may be empty.
                FlworClause::OrderBy(_) => {}
            }
        }
        // `f.ret` is not walked: variable uses there are covered by their
        // bindings, source occurrences by the occurrence guard.
    }

    /// A `for`/`let` binding expression: the one place a bare source (no
    /// steps) is a use shape.
    fn binding(&mut self, expr: &Expr, vars: &Vars, ctx: Ctx) -> Option<Pos> {
        match expr.unparen() {
            Expr::Path { init, steps } => self.chain(init, steps, vars, ctx),
            other => self.chain(other, &[], vars, ctx),
        }
    }

    /// One `where` conjunct.
    fn condition(&mut self, cond: &Expr, vars: &Vars, ctx: Ctx) {
        match cond.unparen() {
            Expr::Path { .. } | Expr::VarRef(_) => self.operand(cond, vars, ctx),
            Expr::Flwor(f) => self.flwor(f, vars, ctx),
            // Existential semantics: an empty operand makes the comparison
            // false, so each path operand is required.
            Expr::GeneralCmp(_, a, b) | Expr::ValueCmp(_, a, b) => {
                self.operand(a, vars, ctx);
                self.operand(b, vars, ctx);
            }
            _ => {}
        }
    }

    fn operand(&mut self, e: &Expr, vars: &Vars, ctx: Ctx) {
        match e.unparen() {
            Expr::Path { init, steps } => {
                self.chain(init, steps, vars, ctx);
            }
            // A bare `for`-bound variable is a path with no steps.
            v @ Expr::VarRef(name) if matches!(vars.get(name), Some(Binding::For { .. })) => {
                self.chain(v, &[], vars, ctx);
            }
            _ => {}
        }
    }

    /// A rooted chain: resolve its root, record its steps, and return
    /// where it ended.
    fn chain(&mut self, init: &Expr, steps: &[Step], vars: &Vars, ctx: Ctx) -> Option<Pos> {
        // A `let` binds an empty sequence instead of dropping the tuple, so
        // nothing a path inside one finds below a `for` variable is required.
        let optional = ctx.optional || (ctx.in_let && rooted_at_for_var(init, vars));
        let ctx = Ctx { optional, ..ctx };
        let (start, fresh) = self.root(init, vars, ctx)?;
        let end = self.steps(start, steps, vars, ctx);
        self.end(end, 0, ctx);
        if fresh {
            self.close(start.use_id);
        }
        Some(end)
    }

    /// Resolve what a chain is rooted at; `true` if that opened a use.
    fn root(&mut self, init: &Expr, vars: &Vars, ctx: Ctx) -> Option<(Pos, bool)> {
        match init.unparen() {
            Expr::VarRef(v) => {
                let binding = vars.get(v)?.clone();
                *self.var_uses.entry(v.clone()).or_insert(0) += 1;
                Some(match binding {
                    Binding::Doc(src) => (
                        Pos { use_id: self.open(src, ctx, false), node: None, on_path: true },
                        true,
                    ),
                    Binding::For { use_id, node } => (Pos { use_id, node, on_path: false }, false),
                    Binding::Let { use_id, node } => (self.seed(use_id, node, ctx), true),
                })
            }
            // `$x[pred]/...`: the predicates apply at the root position.
            Expr::Filter { expr, predicates } => {
                // Over the collection itself a position (`xmlcolumn('S')[1]`)
                // depends on which other documents exist: not a use.
                if over_collection(expr) && !predicates.iter().all(per_document) {
                    return None;
                }
                let (start, fresh) = self.root(expr, vars, ctx)?;
                for p in predicates {
                    self.predicate(p, start, vars, ctx);
                }
                Some((start, fresh))
            }
            e => {
                let src = self.xmlcolumn(e)?;
                Some((Pos { use_id: self.open(src, ctx, false), node: None, on_path: true }, true))
            }
        }
    }

    /// Recognize `db2-fn:xmlcolumn('S')` (when enabled) and count it.
    fn xmlcolumn(&mut self, e: &Expr) -> Option<String> {
        if !self.recognize_xmlcolumn {
            return None;
        }
        let src = xmlcolumn_literal(e)?;
        *self.recognized.entry(src.clone()).or_insert(0) += 1;
        Some(src)
    }

    /// Record the steps of a chain from `start`; returns its end. Stops at
    /// the first opaque step, after an attribute, and below either.
    fn steps(&mut self, start: Pos, steps: &[Step], vars: &Vars, ctx: Ctx) -> Pos {
        let mut cur = start;
        let mut edge = Edge::Child;
        for step in steps {
            if let Some(n) = cur.node.map(|i| &self.uses[cur.use_id].nodes[i]) {
                if n.attribute || n.name.is_none() {
                    break;
                }
            }
            let Step::Axis { axis, test, predicates } = step else {
                return self.add(cur, edge, None, false);
            };
            match (axis, test) {
                // The `//` separator sets a descendant edge for the next step.
                (Axis::DescendantOrSelf, NodeTest::Kind(KindTest::AnyKind))
                    if predicates.is_empty() =>
                {
                    edge = Edge::Descendant;
                }
                (Axis::Child | Axis::Descendant, NodeTest::Name(nt)) => {
                    let Some(name) = concrete_name(nt) else {
                        return self.add(cur, edge, None, false);
                    };
                    if *axis == Axis::Descendant {
                        edge = Edge::Descendant;
                    }
                    cur = self.add(cur, edge, Some(name), false);
                    for p in predicates {
                        self.predicate(p, cur, vars, ctx);
                    }
                    edge = Edge::Child;
                }
                (Axis::Attribute, NodeTest::Name(nt)) => {
                    return self.add(cur, edge, concrete_name(nt), true);
                }
                _ => return self.add(cur, edge, None, false),
            }
        }
        cur
    }

    /// A step or filter predicate at `pos`: context-relative path conjuncts
    /// and comparison operands branch below `pos`; other paths are chains
    /// of their own.
    fn predicate(&mut self, pred: &Expr, pos: Pos, vars: &Vars, ctx: Ctx) {
        let ctx = Ctx { hidden: ctx.hidden || !pos.on_path, ..ctx };
        for c in conjuncts(pred) {
            let paths: Vec<&Expr> = match c {
                Expr::GeneralCmp(_, a, b) | Expr::ValueCmp(_, a, b) => vec![a, b],
                other => vec![other],
            };
            for p in paths {
                let Expr::Path { init, steps } = p.unparen() else {
                    continue;
                };
                if matches!(init.unparen(), Expr::ContextItem) {
                    let own = self.uses[pos.use_id].nodes.len();
                    let on_path = pos.on_path && pos.node.is_some();
                    let end = self.steps(Pos { on_path, ..pos }, steps, vars, ctx);
                    self.end(end, own, ctx);
                } else {
                    self.chain(init, steps, vars, ctx);
                }
            }
        }
    }

    fn open(&mut self, source: String, ctx: Ctx, seeded: bool) -> usize {
        self.uses.push(Use {
            source,
            nodes: Vec::new(),
            ends: Vec::new(),
            seeded,
            hidden: ctx.hidden,
            closed: usize::MAX,
        });
        self.uses.len() - 1
    }

    fn close(&mut self, use_id: usize) {
        self.uses[use_id].closed = self.closed;
        self.closed += 1;
    }

    /// A fresh use for one use of a `let` variable bound at `node` of use
    /// `use_id`: seeded with the binding's path when that is a plain chain of
    /// named child elements, at the document root otherwise.
    fn seed(&mut self, use_id: usize, node: Option<usize>, ctx: Ctx) -> Pos {
        let base = &self.uses[use_id];
        let mut path = Vec::new();
        let mut cur = node;
        while let Some(i) = cur {
            let n = &base.nodes[i];
            match &n.name {
                Some(name) if n.edge == Edge::Child && !n.attribute => path.push(name.clone()),
                _ => {
                    path.clear();
                    break;
                }
            }
            cur = n.parent;
        }
        let source = base.source.clone();
        let mut start = Pos { use_id: self.open(source, ctx, true), node: None, on_path: false };
        for name in path.into_iter().rev() {
            start = self.add(start, Edge::Child, Some(name), false);
        }
        start
    }

    fn add(&mut self, pos: Pos, edge: Edge, name: Option<ExpandedName>, attribute: bool) -> Pos {
        let nodes = &mut self.uses[pos.use_id].nodes;
        nodes.push(Node { parent: pos.node, edge, name, attribute, on_path: pos.on_path });
        Pos { node: Some(nodes.len() - 1), ..pos }
    }

    fn end(&mut self, end: Pos, own: usize, ctx: Ctx) {
        self.uses[end.use_id].ends.push(End { node: end.node, own, optional: ctx.optional });
    }
}

/// True if `expr` is a path (possibly filtered) rooted at a `for` variable.
fn rooted_at_for_var(expr: &Expr, vars: &Vars) -> bool {
    match expr.unparen() {
        Expr::Path { init, .. } => rooted_at_for_var(init, vars),
        Expr::Filter { expr, .. } => rooted_at_for_var(expr, vars),
        Expr::VarRef(v) => matches!(vars.get(v), Some(Binding::For { .. })),
        _ => false,
    }
}

/// True if `expr` is `xmlcolumn('S')`, possibly filtered.
fn over_collection(expr: &Expr) -> bool {
    match expr.unparen() {
        Expr::Filter { expr, .. } => over_collection(expr),
        e => xmlcolumn_literal(e).is_some(),
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

/// The conjuncts of nested `and`s.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e.unparen() {
        Expr::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other],
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    const COL: &str = "db2-fn:xmlcolumn('ORDERS.ORDDOC')";

    fn rendered(query: &str) -> (Vec<String>, Vec<String>) {
        let q = xqdb_xquery::parse_query(query).unwrap();
        let s = extract(&q.body, &AnalysisEnv::new(), true);
        let pf = s.prefilters().values().map(SourcePrefilter::render).collect();
        let tw = s.twigs().values().map(SourceTwig::render).collect();
        (pf, tw)
    }

    #[test]
    fn for_var_paths_inside_a_let_are_optional() {
        // `$w` may be empty without dropping the tuple: `/order/custid`
        // must not join the `$o` group.
        let (pf, _) =
            rendered(&format!("for $o in {COL}/order let $w := {COL}/x[$o/custid] return $o"));
        assert_eq!(pf, vec!["/order | /x"]);
    }

    #[test]
    fn positional_filter_on_the_collection_filters_nothing() {
        // `[1]` picks the first document of whichever documents survive:
        // narrowing the collection would change which one that is.
        for q in [
            format!("{COL}[1]/order/custid"),
            format!("{COL}[last()]//order[custid]"),
            format!("for $o in {COL}[position() = 1]/order return $o"),
            format!("{COL}[order][1]/order/custid"),
        ] {
            let (pf, tw) = rendered(&q);
            assert!(pf.is_empty() && tw.is_empty(), "{q}: {pf:?} {tw:?}");
        }
        // A per-document truth value filters as before.
        let (pf, _) = rendered(&format!("{COL}[order/promo and order/custid = 7]/order"));
        assert_eq!(pf, vec!["/order/promo & /order/custid & /order"]);
    }

    #[test]
    fn rooted_paths_below_descendant_steps_are_uses() {
        // A rooted path in a predicate below `//` is a use of its own for
        // both filters.
        let (pf, tw) = rendered(&format!("{COL}/order//lineitem[{COL}/config/flag]"));
        assert_eq!(pf, vec!["/order | /config/flag"]);
        assert_eq!(tw, vec!["/config[/flag] | /order[//lineitem]"]);
    }
}
