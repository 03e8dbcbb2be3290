//! Structural pre-filter: conservative required-path extraction.
//!
//! Given a query, find rooted element/attribute paths a document **must**
//! contain for it to contribute anything to the result, then test each
//! stored document's [`PathSignature`] before per-document evaluation.
//! This is the Definition 1 contract applied to structure instead of
//! values: the signature check may pass documents that don't match (hash
//! collisions, predicates it can't see), but it must **never** drop a
//! document that could contribute — false positives allowed, false
//! negatives never.
//!
//! ## Requirement groups, OR'd per source
//!
//! A document can contribute to a query through more than one *use* of its
//! collection — two `for` clauses over the same source form a cartesian
//! product, a `let` plus a separate path are independent uses. Each
//! recognized use therefore produces one **group** of required paths
//! (conjunctive within the group), and a document is kept if **any**
//! group's paths are all present:
//!
//! ```text
//! keep(doc) = ∃ group g : sig(doc) ⊇ g.signature
//! ```
//!
//! Soundness rests on one observation: a use rooted at a path `p₁/…/pₙ` of
//! child/attribute steps contributes the empty sequence on any document
//! lacking that rooted path — and positions, aggregates and node sequences
//! are computed over non-empty contributions only, so dropping such a
//! document cannot change what the use produces for the surviving ones.
//!
//! ## Conservative extraction rules
//!
//! Extraction walks only shapes it fully understands and stops — keeping
//! the exact prefix built so far — at the first uncertain step:
//!
//! * `child::name` with a concrete (namespace-resolved, Tip 9) name
//!   extends the path; `@name` extends and terminates it.
//! * `//`, `descendant::`, wildcards, kind tests, `self::`, `parent::`
//!   and filter steps stop extension (a safe prefix is still required).
//! * `for $v in <rooted path>` opens a group; uses of `$v` in `where`
//!   conjuncts, nested `for`s and step predicates tighten **that** group.
//! * `let $v := <rooted path>` emits its base path as a group eagerly
//!   (covering every later use, including in `return`); each recognized
//!   use of `$v` adds its own, stricter group. `let $v := collection()`
//!   emits an **empty** group — no filtering — because `count($v)` must
//!   see every document. A `let` over a `for` variable's path emits
//!   nothing (the tuple survives an empty `$v`); uses of `$v` tighten the
//!   `for` group as the `for` variable's own uses would.
//! * `where` conjuncts (after `and`-flattening): a rooted path requires
//!   itself; general/value comparisons require their rooted-path operands
//!   (existential semantics: an empty operand makes the conjunct false).
//! * `or`, `not()`, quantified expressions, function calls and the
//!   `return` clause contribute **nothing**.
//!
//! Two guards close the remaining holes:
//!
//! * **Occurrence count**: if the query mentions `db2-fn:xmlcolumn('S')`
//!   (engine) or a PASSING variable bound to `S` (SQL) more times than the
//!   extractor recognized as uses (e.g. inside `count(...)`, or a bare
//!   `$d` in a `return`), every requirement for `S` is dropped.
//! * **SQL row filtering** (`recognize_xmlcolumn = false`): inside an SQL
//!   `XMLEXISTS`, only PASSING-variable uses say anything about *which
//!   row* passes; an embedded `xmlcolumn()` call is collection-global, so
//!   its groups must not filter rows and the extractor never creates them.

use std::collections::HashMap;

use xqdb_storage::{
    extend_attribute, extend_element, render_component, PathSignature, PATH_HASH_SEED,
};
use xqdb_xdm::ExpandedName;
use xqdb_xquery::ast::{
    Axis, Expr, Flwor, FlworClause, LocalTest, NameTest, NodeTest, NsTest, Step,
};

use crate::eligibility::AnalysisEnv;
use crate::engine::{visit_exprs, xmlcolumn_literal};

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

/// One conjunctive group of required paths (one recognized use of the
/// source), with the precomputed signature of all its path hashes.
#[derive(Debug, Clone)]
pub struct RequiredGroup {
    /// The paths; all must be present for this group to accept a document.
    pub paths: Vec<RequiredPath>,
    /// Union of the paths' signature bits.
    pub signature: PathSignature,
}

impl RequiredGroup {
    /// Conservative test: this group accepts the document signature.
    pub fn accepts(&self, sig: &PathSignature) -> bool {
        sig.contains_all(&self.signature)
    }
}

/// The pre-filter for one source: a document is kept iff **any** group
/// accepts it. Construction guarantees at least one group, each non-empty
/// (an empty group accepts everything, so the whole source entry is
/// dropped instead).
#[derive(Debug, Clone)]
pub struct SourcePrefilter {
    /// The OR'd requirement groups.
    pub groups: Vec<RequiredGroup>,
}

impl SourcePrefilter {
    /// True if the document with this signature may contribute.
    pub fn accepts(&self, sig: &PathSignature) -> bool {
        self.groups.iter().any(|g| g.accepts(sig))
    }

    /// Rendered `paths | paths | ...` form for plan notes.
    pub fn render(&self) -> String {
        let groups: Vec<String> = self
            .groups
            .iter()
            .map(|g| {
                let paths: Vec<String> = g.paths.iter().map(RequiredPath::render).collect();
                paths.join(" & ")
            })
            .collect();
        groups.join(" | ")
    }
}

/// Extract per-source pre-filters from a query body.
///
/// `env` supplies the doc-level variable bindings (SQL PASSING clauses);
/// `recognize_xmlcolumn` controls whether direct `db2-fn:xmlcolumn()`
/// calls may anchor requirement groups (true for the XQuery engine's
/// collection scans, **false** for SQL row filtering — see module docs).
pub fn extract_prefilters(
    body: &Expr,
    env: &AnalysisEnv,
    recognize_xmlcolumn: bool,
) -> HashMap<String, SourcePrefilter> {
    let mut ex = Extractor {
        groups: HashMap::new(),
        recognized: HashMap::new(),
        var_uses: HashMap::new(),
        recognize_xmlcolumn,
    };
    let vars: Vars = env
        .doc_bindings()
        .map(|(v, b)| {
            (v.clone(), Binding::Seed { source: b.source.clone(), prefix: Vec::new() })
        })
        .collect();
    ex.collect(body, &vars);

    // Occurrence guard: any xmlcolumn('S') occurrence the walk did not
    // recognize as a use (aggregate argument, unusual shape, ...) could let
    // S's documents contribute some other way — drop S's requirements.
    if recognize_xmlcolumn {
        let mut total: HashMap<String, usize> = HashMap::new();
        visit_exprs(body, &mut |e| {
            if let Some(src) = xmlcolumn_literal(e) {
                *total.entry(src).or_insert(0) += 1;
            }
        });
        ex.groups.retain(|src, _| {
            total.get(src).copied().unwrap_or(0) == ex.recognized.get(src).copied().unwrap_or(0)
        });
    }
    for src in unguarded_doc_sources(body, env, &ex.var_uses) {
        ex.groups.remove(&src);
    }

    ex.groups
        .into_iter()
        .filter_map(|(src, groups)| {
            // An empty group accepts every document; it makes the whole
            // disjunction vacuous, so no filter for this source.
            if groups.is_empty() || groups.iter().any(Vec::is_empty) {
                return None;
            }
            let groups = groups
                .into_iter()
                .map(|paths| {
                    let mut signature = PathSignature::default();
                    for p in &paths {
                        signature.set_hash(p.hash());
                    }
                    RequiredGroup { paths, signature }
                })
                .collect();
            Some((src, SourcePrefilter { groups }))
        })
        .collect()
}

/// The sources of doc-level variables (SQL PASSING bindings) that occur in
/// `body` more often than `recognized` counts uses of their name. Such an
/// occurrence — a bare `$d` in a `return`, an aggregate argument — lets a
/// row contribute without satisfying any extracted requirement, so the
/// source must not be filtered. Shadowing bindings share the name and only
/// make the guard drop more.
pub(crate) fn unguarded_doc_sources(
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

/// True if `expr` is a path (possibly filtered) rooted at a `for`
/// variable's binding.
fn rooted_at_for_var(expr: &Expr, vars: &Vars) -> bool {
    match expr.unparen() {
        Expr::Path { init, .. } => rooted_at_for_var(init, vars),
        Expr::Filter { expr, .. } => rooted_at_for_var(expr, vars),
        Expr::VarRef(v) => matches!(vars.get(v), Some(Binding::For { .. })),
        _ => false,
    }
}

/// Variable bindings the extractor tracks. Anything else (positional
/// variables, unrecognized `let`s) is simply absent — its uses contribute
/// nothing, which is always safe.
#[derive(Clone)]
enum Binding {
    /// A `for` variable: its uses tighten group `group` of `source`.
    /// `prefix` is the exact rooted path of the bound nodes; `exact` is
    /// false once an uncertain step occurred, after which uses can no
    /// longer extend paths (but the group's existing requirements stand).
    For { source: String, group: usize, prefix: Vec<PathComponent>, exact: bool },
    /// A document-level binding (SQL PASSING var) or a `let` over a rooted
    /// path: each recognized use opens a **new** group seeded from
    /// `prefix`. Never tightens an existing group — a second use must not
    /// inherit the first use's requirements.
    Seed { source: String, prefix: Vec<PathComponent> },
}

type Vars = HashMap<ExpandedName, Binding>;

/// Where an emitted path goes: an existing group or a fresh one.
struct Target {
    source: String,
    group: usize,
    prefix: Vec<PathComponent>,
    exact: bool,
}

struct Extractor {
    /// Per-source requirement groups under construction.
    groups: HashMap<String, Vec<Vec<RequiredPath>>>,
    /// Per-source count of `xmlcolumn()` occurrences the walk recognized.
    recognized: HashMap<String, usize>,
    /// Per-name count of variable occurrences the walk resolved as uses.
    var_uses: HashMap<ExpandedName, usize>,
    recognize_xmlcolumn: bool,
}

impl Extractor {
    /// Walk a top-level expression position (query body, return values are
    /// *not* walked — see module docs).
    fn collect(&mut self, expr: &Expr, vars: &Vars) {
        match expr.unparen() {
            Expr::Path { init, steps } => {
                self.rooted_use(init, steps, vars);
            }
            Expr::Flwor(f) => self.flwor(f, vars),
            // Comma sequence: each item is an independent use, OR'd like
            // any other pair of uses.
            Expr::Sequence(items) => {
                for item in items {
                    self.collect(item, vars);
                }
            }
            Expr::FunctionCall { .. } => {
                // A bare xmlcolumn('S') at a top-level position returns all
                // of S's documents: recognize the occurrence with an empty
                // group (no filtering for S).
                if let Some(src) = self.xmlcolumn(expr.unparen()) {
                    self.groups.entry(src).or_default().push(Vec::new());
                }
            }
            _ => {}
        }
    }

    fn flwor(&mut self, f: &Flwor, outer: &Vars) {
        let mut vars = outer.clone();
        for clause in &f.clauses {
            match clause {
                FlworClause::For { var, position, expr } => {
                    let binding = self.use_target(expr, &vars).map(
                        |Target { source, group, prefix, exact }| Binding::For {
                            source,
                            group,
                            prefix,
                            exact,
                        },
                    );
                    match binding {
                        Some(b) => {
                            vars.insert(var.clone(), b);
                        }
                        // Shadow any outer binding of the same name: the
                        // new, unrecognized value must not be mistaken for
                        // the outer one.
                        None => {
                            vars.remove(var);
                        }
                    }
                    if let Some(p) = position {
                        vars.remove(p);
                    }
                }
                FlworClause::Let { var, expr } if rooted_at_for_var(expr, &vars) => {
                    // `let` binds an empty sequence instead of dropping the
                    // tuple, so a path below a `for` variable must not
                    // tighten that variable's group. Walk it only for the
                    // position it binds and discard what it emitted; uses
                    // of the let variable in `where` conjuncts and nested
                    // `for`s then tighten the group like the for
                    // variable's own uses do.
                    let saved =
                        (self.groups.clone(), self.recognized.clone(), self.var_uses.clone());
                    let target = self.use_target(expr, &vars);
                    (self.groups, self.recognized, self.var_uses) = saved;
                    match target {
                        Some(Target { source, group, prefix, exact }) => {
                            vars.insert(
                                var.clone(),
                                Binding::For { source, group, prefix, exact },
                            );
                        }
                        None => {
                            vars.remove(var);
                        }
                    }
                }
                FlworClause::Let { var, expr } => {
                    match self.use_target(expr, &vars) {
                        Some(t) => {
                            // The use_target call above already emitted the
                            // binding path into its own (new or existing)
                            // group — that is the eager base group covering
                            // any use of the variable, including in
                            // `return`. Later uses seed fresh groups.
                            vars.insert(
                                var.clone(),
                                if t.exact {
                                    Binding::Seed { source: t.source, prefix: t.prefix }
                                } else {
                                    // Inexact tail: uses may reach nodes
                                    // below paths we can name, so a use
                                    // must not require more than the base
                                    // group already does. An empty-prefix
                                    // seed would still be sound but each
                                    // use would add a vacuous empty group,
                                    // wiping out the base group's filter —
                                    // drop the binding instead.
                                    Binding::Seed { source: t.source, prefix: Vec::new() }
                                },
                            );
                        }
                        None => {
                            vars.remove(var);
                        }
                    }
                }
                FlworClause::Where(cond) => {
                    let mut conjuncts = Vec::new();
                    flatten_and(cond, &mut conjuncts);
                    for c in conjuncts {
                        self.condition(c, &vars);
                    }
                }
                // Ordering only permutes tuples; key expressions over empty
                // sequences are allowed (`empty least`), so they impose no
                // structural requirement and must not tighten any group.
                FlworClause::OrderBy(_) => {}
            }
        }
        // `f.ret` deliberately not walked: for-var uses there are already
        // covered by their groups, let/doc-var uses by eager base groups,
        // and xmlcolumn uses by the occurrence guard.
    }

    /// One `where` conjunct (or `XMLEXISTS` conjunct).
    fn condition(&mut self, cond: &Expr, vars: &Vars) {
        match cond.unparen() {
            Expr::Path { .. } | Expr::VarRef(_) => self.operand(cond, vars),
            Expr::Flwor(f) => self.flwor(f, vars),
            Expr::GeneralCmp(_, a, b) | Expr::ValueCmp(_, a, b) => {
                // Existential semantics: an empty operand makes the
                // comparison false/empty, so each rooted-path operand is
                // required.
                self.operand(a, vars);
                self.operand(b, vars);
            }
            // `or`, `not()`, quantifiers (`every` over an empty sequence is
            // true!), arithmetic, everything else: no requirement.
            _ => {}
        }
    }

    fn operand(&mut self, e: &Expr, vars: &Vars) {
        match e.unparen() {
            Expr::Path { init, steps } => self.rooted_use(init, steps, vars),
            // A bare `for`-bound variable (a `let` over a `for` path binds
            // one too) is a path with no steps: required like any other.
            v @ Expr::VarRef(name) if matches!(vars.get(name), Some(Binding::For { .. })) => {
                self.rooted_use(v, &[], vars);
            }
            _ => {}
        }
    }

    /// A rooted-path use in a non-binding position: emit its requirements.
    fn rooted_use(&mut self, init: &Expr, steps: &[Step], vars: &Vars) {
        self.follow(init, steps, vars);
    }

    /// A rooted-path use in a binding position (`for`/`let`): emit its
    /// requirements and return where the bound nodes live.
    fn use_target(&mut self, expr: &Expr, vars: &Vars) -> Option<Target> {
        match expr.unparen() {
            Expr::Path { init, steps } => self.follow(init, steps, vars),
            // `for $y in $x` / bare xmlcolumn(): a path with no steps.
            other => self.follow(other, &[], vars),
        }
    }

    /// Resolve the root of a path use, walk its steps, emit the resulting
    /// required paths, and return the end position.
    fn follow(&mut self, init: &Expr, steps: &[Step], vars: &Vars) -> Option<Target> {
        let mut t = self.resolve_init(init, vars)?;
        for step in steps {
            if !t.exact {
                break;
            }
            match step {
                Step::Axis { axis: Axis::Child, test: NodeTest::Name(nt), predicates } => {
                    let Some(name) = concrete_name(nt) else {
                        t.exact = false;
                        break;
                    };
                    t.prefix.push(PathComponent::Element(name));
                    for p in predicates {
                        self.predicate(p, &t, vars);
                    }
                }
                Step::Axis { axis: Axis::Attribute, test: NodeTest::Name(nt), .. } => {
                    if let Some(name) = concrete_name(nt) {
                        t.prefix.push(PathComponent::Attribute(name));
                    }
                    // Attributes are terminal in the synopsis; anything
                    // past this step is uncertain either way.
                    t.exact = false;
                    break;
                }
                // `//`, descendant, self, parent, kind tests, filter
                // steps: stop extending; the prefix so far is still a
                // sound requirement.
                _ => {
                    t.exact = false;
                    break;
                }
            }
        }
        // Emit the deepest exact path of this use. (Prefixes are implied:
        // a real document containing /a/b also contains /a.) Emitting even
        // a zero-step use's seed prefix matters: it keeps the use's group
        // non-empty, so an alias use like `for $y in $x` doesn't create a
        // vacuous accept-everything group.
        self.emit(&t);
        Some(t)
    }

    /// Resolve what a path's `init` expression is rooted at. Creates the
    /// use's group (so step predicates have somewhere to emit).
    fn resolve_init(&mut self, init: &Expr, vars: &Vars) -> Option<Target> {
        match init.unparen() {
            Expr::VarRef(v) => {
                let binding = vars.get(v)?;
                *self.var_uses.entry(v.clone()).or_insert(0) += 1;
                match binding {
                    Binding::For { source, group, prefix, exact } => Some(Target {
                        source: source.clone(),
                        group: *group,
                        prefix: prefix.clone(),
                        exact: *exact,
                    }),
                    Binding::Seed { source, prefix } => {
                        Some(self.new_group(source.clone(), prefix.clone()))
                    }
                }
            }
            // `$x[pred]/...` — resolve the inner root, then apply the
            // filter predicates at its position.
            Expr::Filter { expr, predicates } => {
                let t = self.resolve_init(expr, vars)?;
                for p in predicates {
                    self.predicate(p, &t, vars);
                }
                Some(t)
            }
            e => {
                let src = self.xmlcolumn(e)?;
                Some(self.new_group(src, Vec::new()))
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

    fn new_group(&mut self, source: String, prefix: Vec<PathComponent>) -> Target {
        let groups = self.groups.entry(source.clone()).or_default();
        groups.push(Vec::new());
        Target { source, group: groups.len() - 1, prefix, exact: true }
    }

    /// Add the target's current prefix as a required path of its group.
    fn emit(&mut self, t: &Target) {
        if t.prefix.is_empty() {
            return;
        }
        if let Some(groups) = self.groups.get_mut(&t.source) {
            if let Some(g) = groups.get_mut(t.group) {
                let path = RequiredPath { components: t.prefix.clone() };
                if !g.contains(&path) {
                    g.push(path);
                }
            }
        }
    }

    /// A step/filter predicate evaluated at position `at` (which is exact —
    /// callers only reach here while walking exact prefixes). Conjuncts
    /// that are context-relative or var-rooted paths add requirements.
    fn predicate(&mut self, pred: &Expr, at: &Target, vars: &Vars) {
        if !at.exact {
            return;
        }
        let mut conjuncts = Vec::new();
        flatten_and(pred, &mut conjuncts);
        for c in conjuncts {
            match c.unparen() {
                Expr::Path { init, steps } => self.predicate_path(init, steps, at, vars),
                Expr::GeneralCmp(_, a, b) | Expr::ValueCmp(_, a, b) => {
                    for op in [a, b] {
                        if let Expr::Path { init, steps } = op.unparen() {
                            self.predicate_path(init, steps, at, vars);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// A path inside a predicate: context-relative paths extend the
    /// enclosing use's group from its current position; independently
    /// rooted paths are ordinary uses.
    fn predicate_path(&mut self, init: &Expr, steps: &[Step], at: &Target, vars: &Vars) {
        if matches!(init.unparen(), Expr::ContextItem) {
            let mut t = Target {
                source: at.source.clone(),
                group: at.group,
                prefix: at.prefix.clone(),
                exact: true,
            };
            let base_len = t.prefix.len();
            for step in steps {
                if !t.exact {
                    break;
                }
                match step {
                    Step::Axis { axis: Axis::Child, test: NodeTest::Name(nt), predicates } => {
                        let Some(name) = concrete_name(nt) else {
                            t.exact = false;
                            break;
                        };
                        t.prefix.push(PathComponent::Element(name));
                        for p in predicates {
                            self.predicate(p, &t, vars);
                        }
                    }
                    Step::Axis { axis: Axis::Attribute, test: NodeTest::Name(nt), .. } => {
                        if let Some(name) = concrete_name(nt) {
                            t.prefix.push(PathComponent::Attribute(name));
                        }
                        t.exact = false;
                        break;
                    }
                    _ => {
                        t.exact = false;
                        break;
                    }
                }
            }
            if t.prefix.len() > base_len {
                self.emit(&t);
            }
        } else {
            self.rooted_use(init, steps, vars);
        }
    }
}

/// A concrete (fully named) name test, if this is one.
fn concrete_name(nt: &NameTest) -> Option<ExpandedName> {
    let LocalTest::Name(local) = &nt.local else { return None };
    match &nt.ns {
        NsTest::NoNamespace => Some(ExpandedName { ns: None, local: local.clone() }),
        NsTest::Uri(u) => Some(ExpandedName { ns: Some(u.clone()), local: local.clone() }),
        NsTest::Any => None,
    }
}

/// Flatten nested `and`s into conjuncts.
fn flatten_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e.unparen() {
        Expr::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn extract(query: &str) -> HashMap<String, SourcePrefilter> {
        let q = xqdb_xquery::parse_query(query).unwrap();
        extract_prefilters(&q.body, &AnalysisEnv::new(), true)
    }

    fn rendered(pf: &SourcePrefilter) -> Vec<Vec<String>> {
        pf.groups
            .iter()
            .map(|g| {
                let mut v: Vec<String> = g.paths.iter().map(RequiredPath::render).collect();
                v.sort();
                v
            })
            .collect()
    }

    const COL: &str = "db2-fn:xmlcolumn('ORDERS.ORDDOC')";

    #[test]
    fn simple_child_path() {
        let pf = extract(&format!("{COL}/order/custid"));
        let f = &pf["ORDERS.ORDDOC"];
        assert_eq!(rendered(f), vec![vec!["/order/custid".to_string()]]);
    }

    #[test]
    fn predicate_paths_join_the_group() {
        let pf = extract(&format!("{COL}/order[promo/code]/custid"));
        let f = &pf["ORDERS.ORDDOC"];
        assert_eq!(f.groups.len(), 1);
        assert_eq!(
            rendered(f),
            vec![vec!["/order/custid".to_string(), "/order/promo/code".to_string()]]
        );
    }

    #[test]
    fn attribute_terminates() {
        let pf = extract(&format!("{COL}/order/lineitem/@price"));
        let f = &pf["ORDERS.ORDDOC"];
        assert_eq!(rendered(f), vec![vec!["/order/lineitem/@price".to_string()]]);
    }

    #[test]
    fn descendant_keeps_safe_prefix() {
        let pf = extract(&format!("{COL}/order//custid"));
        let f = &pf["ORDERS.ORDDOC"];
        // `//` stops extension; only /order is required.
        assert_eq!(rendered(f), vec![vec!["/order".to_string()]]);
    }

    #[test]
    fn leading_descendant_yields_no_filter() {
        let pf = extract(&format!("{COL}//order"));
        assert!(pf.is_empty());
    }

    #[test]
    fn wildcard_stops_extension() {
        let pf = extract(&format!("{COL}/order/*/custid"));
        let f = &pf["ORDERS.ORDDOC"];
        assert_eq!(rendered(f), vec![vec!["/order".to_string()]]);
    }

    #[test]
    fn for_where_tightens_one_group() {
        let pf = extract(&format!(
            "for $o in {COL}/order where $o/custid = 7 and $o/status return $o"
        ));
        let f = &pf["ORDERS.ORDDOC"];
        assert_eq!(f.groups.len(), 1);
        assert_eq!(
            rendered(f),
            vec![vec![
                "/order".to_string(),
                "/order/custid".to_string(),
                "/order/status".to_string(),
            ]]
        );
    }

    #[test]
    fn for_over_bare_collection_tightened_by_where() {
        let pf = extract(&format!("for $o in {COL} where $o/order/custid = 7 return $o"));
        let f = &pf["ORDERS.ORDDOC"];
        assert_eq!(rendered(f), vec![vec!["/order/custid".to_string()]]);
    }

    #[test]
    fn two_fors_make_two_groups() {
        let pf = extract(&format!(
            "for $a in {COL}/order/a for $b in {COL}/order/b return ($a, $b)"
        ));
        let f = &pf["ORDERS.ORDDOC"];
        // A document contributes through either for: groups are OR'd.
        assert_eq!(f.groups.len(), 2);
        assert_eq!(
            rendered(f),
            vec![vec!["/order/a".to_string()], vec!["/order/b".to_string()]]
        );
    }

    #[test]
    fn count_of_collection_poisons_source() {
        let pf = extract(&format!("count({COL})"));
        assert!(pf.is_empty(), "aggregate over whole collection must not filter");
        let pf = extract(&format!("({COL}/order/a, count({COL}))"));
        assert!(pf.is_empty(), "any unrecognized occurrence drops the source");
    }

    #[test]
    fn let_over_collection_blocks_filtering() {
        let pf = extract(&format!("let $x := {COL} return count($x)"));
        assert!(pf.is_empty(), "let over the whole collection requires nothing");
    }

    #[test]
    fn let_over_rooted_path_emits_base_group() {
        let pf = extract(&format!("let $x := {COL}/order/promo return count($x)"));
        let f = &pf["ORDERS.ORDDOC"];
        // count($x) is 0 for docs without /order/promo — still correct to
        // skip them? No! count() over an empty sequence is 0, and the query
        // returns that 0 regardless of which documents exist... but the
        // count is a single global value computed over the *kept* docs'
        // contributions; skipping docs with no /order/promo removes only
        // empty contributions, leaving the count unchanged.
        assert_eq!(rendered(f), vec![vec!["/order/promo".to_string()]]);
    }

    #[test]
    fn let_uses_spawn_independent_groups() {
        let pf = extract(&format!(
            "let $x := {COL}/order where $x/a and $x/b return 1"
        ));
        let f = &pf["ORDERS.ORDDOC"];
        // Base group /order, plus one group per use. Each use's group is
        // independent: requiring a AND b would be unsound if the two uses
        // were under different `or` branches, so they stay separate.
        assert_eq!(f.groups.len(), 3);
        assert_eq!(
            rendered(f),
            vec![
                vec!["/order".to_string()],
                vec!["/order/a".to_string()],
                vec!["/order/b".to_string()],
            ]
        );
    }

    #[test]
    fn or_contributes_nothing_but_base_groups_remain() {
        let pf = extract(&format!(
            "for $o in {COL}/order where $o/a or $o/b return $o"
        ));
        let f = &pf["ORDERS.ORDDOC"];
        // The or-disjuncts must not tighten the group; the binding path
        // alone is required.
        assert_eq!(rendered(f), vec![vec!["/order".to_string()]]);
    }

    #[test]
    fn comparison_operands_are_required() {
        let pf = extract(&format!(
            "for $o in {COL}/order where $o/lineitem/@price > 100 return $o/custid"
        ));
        let f = &pf["ORDERS.ORDDOC"];
        assert_eq!(
            rendered(f),
            vec![vec!["/order".to_string(), "/order/lineitem/@price".to_string()]]
        );
    }

    #[test]
    fn namespaced_steps_use_resolved_uris() {
        let pf = extract(&format!(
            "declare namespace p = \"urn:promo\"; {COL}/order/p:deal"
        ));
        let f = &pf["ORDERS.ORDDOC"];
        assert_eq!(rendered(f), vec![vec!["/order/{urn:promo}deal".to_string()]]);
    }

    #[test]
    fn nested_for_over_var_tightens_parent_group() {
        let pf = extract(&format!(
            "for $o in {COL}/order for $l in $o/lineitem where $l/@price > 1 return $l"
        ));
        let f = &pf["ORDERS.ORDDOC"];
        assert_eq!(f.groups.len(), 1);
        assert_eq!(
            rendered(f),
            vec![vec![
                "/order".to_string(),
                "/order/lineitem".to_string(),
                "/order/lineitem/@price".to_string(),
            ]]
        );
    }

    #[test]
    fn positional_predicates_do_not_over_require() {
        let pf = extract(&format!("{COL}/order[2]/custid"));
        let f = &pf["ORDERS.ORDDOC"];
        // [2] contributes nothing; /order/custid still required. Positions
        // are computed over surviving documents' non-empty contributions,
        // so collection-level filtering is safe.
        assert_eq!(rendered(f), vec![vec!["/order/custid".to_string()]]);
    }

    #[test]
    fn sql_mode_ignores_xmlcolumn() {
        let q = xqdb_xquery::parse_query(&format!("{COL}/order/custid")).unwrap();
        let pf = extract_prefilters(&q.body, &AnalysisEnv::new(), false);
        assert!(pf.is_empty(), "SQL row filtering must not use xmlcolumn groups");
    }

    #[test]
    fn passing_var_binding_filters_in_sql_mode() {
        let q = xqdb_xquery::parse_query("$O/order[promo/code]").unwrap();
        let mut env = AnalysisEnv::new();
        env.bind_docs(xqdb_xdm::ExpandedName::local("O"), "ORDERS.ORDDOC");
        let pf = extract_prefilters(&q.body, &env, false);
        let f = &pf["ORDERS.ORDDOC"];
        assert_eq!(
            rendered(f),
            vec![vec!["/order".to_string(), "/order/promo/code".to_string()]]
        );
    }

    #[test]
    fn unused_passing_var_yields_no_filter() {
        let q = xqdb_xquery::parse_query("1 = 1").unwrap();
        let mut env = AnalysisEnv::new();
        env.bind_docs(xqdb_xdm::ExpandedName::local("O"), "ORDERS.ORDDOC");
        let pf = extract_prefilters(&q.body, &env, false);
        assert!(pf.is_empty());
    }

    #[test]
    fn hash_matches_storage_side() {
        let doc = xqdb_xmlparse::parse_document("<order><promo><code/></promo></order>").unwrap();
        let sig = xqdb_storage::signature_for_document(&doc.root());
        let pf = extract(&format!("{COL}/order/promo/code"));
        let f = &pf["ORDERS.ORDDOC"];
        assert!(f.accepts(&sig));
        let other = xqdb_xmlparse::parse_document("<order><x/></order>").unwrap();
        let osig = xqdb_storage::signature_for_document(&other.root());
        assert!(!f.accepts(&osig));
    }
}
