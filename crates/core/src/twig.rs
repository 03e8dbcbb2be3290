//! Twig-pattern compiler: lower branching/descendant path queries into
//! [`Pattern`] trees for the holistic twig join (`xqdb-twig`).
//!
//! This is the query side of the structural-label subsystem. It walks
//! the same positions as [`crate::prefilter`] — query body, FLWOR
//! binding expressions, `where` conjuncts after `and`-flattening,
//! comparison operands, step predicates — but instead of flat required
//! paths it builds pattern *trees*: child/descendant edges and
//! branching predicates survive the lowering, which is exactly the
//! query class the flat signature prefilter cannot serve.
//!
//! ## Per-source contract
//!
//! Each recognized use of a source lowers to one pattern; a row is kept
//! iff **any** use's pattern structurally matches it (uses are OR'd,
//! like the prefilter's requirement groups). The conservative direction
//! is the same as everywhere else in this engine (Definition 1):
//!
//! * Unsupported steps truncate the pattern — a prefix pattern matches
//!   a superset of rows.
//! * Ignored predicates, `or` branches, quantifiers: constraints we do
//!   not lower can only widen the match set.
//! * But a use we cannot lower **at all** (bare `xmlcolumn()`, a
//!   wildcard first step) could draw on any document, so the whole
//!   source is dropped from twig planning — never filtered.
//!
//! Variable uses (`$o/...` for a `for`/`let`-bound `$o`) are not
//! tracked: whatever a derived variable produces from a row is already
//! covered by the pattern of its binding expression, so ignoring the
//! uses is sound. The occurrence guard (count every
//! `db2-fn:xmlcolumn('S')` occurrence in engine mode, every PASSING
//! variable occurrence in SQL mode, and compare against recognized uses)
//! closes the same hole it closes for the prefilter.
//!
//! ## Routing rule
//!
//! A [`SourceTwig`] is only emitted when at least one pattern has a
//! descendant edge or a branch: pure child chains are already served
//! bit-for-bit by the cheaper signature prefilter, so routing them
//! through the twig join would cost merge work for nothing.

use std::collections::HashMap;

use xqdb_storage::{hash_rendered_path, PathSynopsis, Table};
use xqdb_twig::{Edge, Pattern, TwigJoin};
use xqdb_xdm::ExpandedName;
use xqdb_xquery::ast::{
    Axis, Expr, Flwor, FlworClause, KindTest, LocalTest, NameTest, NodeTest, NsTest, Step,
};

use crate::eligibility::AnalysisEnv;
use crate::engine::{visit_exprs, xmlcolumn_literal};
use crate::prefilter::unguarded_doc_sources;

/// The twig filter for one source: a row is kept iff any pattern
/// matches it. Construction guarantees the list is non-empty, every
/// recognized use of the source is covered by a pattern, and at least
/// one pattern is worth routing through the join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceTwig {
    /// The OR'd per-use patterns.
    pub patterns: Vec<Pattern>,
}

impl SourceTwig {
    /// Rendered `pattern | pattern | ...` form for EXPLAIN output.
    pub fn render(&self) -> String {
        let rendered: Vec<String> = self.patterns.iter().map(Pattern::render).collect();
        rendered.join(" | ")
    }
}

/// Resolve a pattern against a table synopsis (the dataguide): per
/// pattern node, the hashes of the synopsis paths that can produce it.
pub fn resolve_for_synopsis(pattern: &Pattern, synopsis: &PathSynopsis) -> Vec<Vec<u64>> {
    let paths: Vec<(&str, u64)> =
        synopsis.paths().map(|(p, _)| (p, hash_rendered_path(p))).collect();
    xqdb_twig::resolve_pattern(pattern, &paths)
}

/// A [`SourceTwig`] prepared against one table: one holistic join per
/// pattern, sharing the table's label store. `None` when the table's
/// labels are not complete (recovery adopted rows without re-parsing,
/// or labeling was disabled at ingest) — the caller then skips twig
/// filtering for the table entirely, which is always correct.
pub struct PreparedTwig<'a> {
    joins: Vec<TwigJoin<'a>>,
}

impl<'a> PreparedTwig<'a> {
    /// Prepare the joins, resolving each pattern through the table's
    /// synopsis. Returns `None` if the label store cannot vouch for
    /// every row.
    pub fn prepare(twig: &'a SourceTwig, table: &'a Table) -> Option<PreparedTwig<'a>> {
        if !table.labels().is_complete_for(table.len() as u64) {
            return None;
        }
        let joins = twig
            .patterns
            .iter()
            .map(|p| {
                let resolved = resolve_for_synopsis(p, table.synopsis());
                TwigJoin::new(p, table.labels(), &resolved)
            })
            .collect();
        Some(PreparedTwig { joins })
    }

    /// True if any join's cheap per-node row-set intersection admits the
    /// row — the full structural match still has to confirm it. This is
    /// what the `TwigCandidates` counter reports.
    pub fn is_candidate(&self, row: u64) -> bool {
        self.joins.iter().any(|j| j.is_candidate(row))
    }

    /// True if any pattern's join structurally matches the row.
    pub fn accepts(&self, row: u64) -> bool {
        self.joins.iter().any(|j| j.is_candidate(row) && j.matches_row(row))
    }
}

/// Extract per-source twig patterns from a query body.
///
/// Mirrors [`crate::prefilter::extract_prefilters`]: `env` supplies the
/// doc-level variable bindings (SQL PASSING clauses), and
/// `recognize_xmlcolumn` controls whether direct `db2-fn:xmlcolumn()`
/// calls anchor uses (true for the XQuery engine's collection scans,
/// false for SQL row filtering, where only PASSING-variable uses say
/// anything about which row passes).
pub fn extract_twigs(
    body: &Expr,
    env: &AnalysisEnv,
    recognize_xmlcolumn: bool,
) -> HashMap<String, SourceTwig> {
    let mut ex = TwigExtractor {
        uses: HashMap::new(),
        recognized: HashMap::new(),
        var_uses: HashMap::new(),
        recognize_xmlcolumn,
    };
    let vars: Vars = env
        .doc_bindings()
        .map(|(v, b)| (v.clone(), b.source.clone()))
        .collect();
    ex.collect(body, &vars);

    // Occurrence guard (engine mode): an xmlcolumn('S') occurrence the
    // walk did not recognize as a use could let S's documents contribute
    // some other way — S must not be twig-filtered.
    if recognize_xmlcolumn {
        let mut total: HashMap<String, usize> = HashMap::new();
        visit_exprs(body, &mut |e| {
            if let Some(src) = xmlcolumn_literal(e) {
                *total.entry(src).or_insert(0) += 1;
            }
        });
        ex.uses.retain(|src, _| {
            total.get(src).copied().unwrap_or(0) == ex.recognized.get(src).copied().unwrap_or(0)
        });
    }
    // Same guard for PASSING variables (SQL mode).
    for src in unguarded_doc_sources(body, env, &ex.var_uses) {
        ex.uses.remove(&src);
    }

    ex.uses
        .into_iter()
        .filter_map(|(src, uses)| {
            // Every use must have lowered: one accept-all use (`None`)
            // means some rows could contribute invisibly to the pattern
            // set, so the source is never twig-filtered.
            let mut patterns: Vec<Pattern> = Vec::new();
            for u in uses {
                let p = u?;
                if !patterns.contains(&p) {
                    patterns.push(p);
                }
            }
            if patterns.is_empty() {
                return None;
            }
            // Routing: pure child chains are the signature prefilter's
            // home turf; only descendant edges or branches pay for the
            // stream merge.
            if !patterns.iter().any(|p| p.has_descendant_edge() || p.has_branch()) {
                return None;
            }
            Some((src, SourceTwig { patterns }))
        })
        .collect()
}

/// Live doc-level bindings: variable → source. The extractor never adds
/// bindings (derived variables are covered by their binding expression's
/// pattern); FLWOR clauses only *shadow* names out of the map.
type Vars = HashMap<ExpandedName, String>;

struct TwigExtractor {
    /// Per-source lowered uses; `None` marks an accept-all use that
    /// poisons the source.
    uses: HashMap<String, Vec<Option<Pattern>>>,
    /// Per-source count of `xmlcolumn()` occurrences the walk recognized.
    recognized: HashMap<String, usize>,
    /// Per-name count of doc-variable occurrences the walk resolved as uses.
    var_uses: HashMap<ExpandedName, usize>,
    recognize_xmlcolumn: bool,
}

impl TwigExtractor {
    fn collect(&mut self, expr: &Expr, vars: &Vars) {
        match expr.unparen() {
            Expr::Path { init, steps } => self.rooted_use(init, steps, vars),
            Expr::Flwor(f) => self.flwor(f, vars),
            Expr::Sequence(items) => {
                for item in items {
                    self.collect(item, vars);
                }
            }
            Expr::FunctionCall { .. } => {
                // Bare xmlcolumn('S'): every document of S flows out.
                if let Some(src) = self.xmlcolumn(expr.unparen()) {
                    self.uses.entry(src).or_default().push(None);
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
                    self.binding_use(expr, &vars);
                    vars.remove(var);
                    if let Some(p) = position {
                        vars.remove(p);
                    }
                }
                FlworClause::Let { var, expr } => {
                    self.binding_use(expr, &vars);
                    vars.remove(var);
                }
                FlworClause::Where(cond) => {
                    let mut conjuncts = Vec::new();
                    flatten_and(cond, &mut conjuncts);
                    for c in conjuncts {
                        self.condition(c, &vars);
                    }
                }
                FlworClause::OrderBy(_) => {}
            }
        }
        // `f.ret` not walked: source-rooted uses there are covered by
        // the occurrence guard, variable uses by their bindings.
    }

    /// A FLWOR binding expression: the one place a bare source (zero
    /// steps) is a legitimate use shape.
    fn binding_use(&mut self, expr: &Expr, vars: &Vars) {
        match expr.unparen() {
            Expr::Path { init, steps } => self.rooted_use(init, steps, vars),
            other => self.rooted_use(other, &[], vars),
        }
    }

    fn condition(&mut self, cond: &Expr, vars: &Vars) {
        match cond.unparen() {
            Expr::Path { init, steps } => self.rooted_use(init, steps, vars),
            Expr::Flwor(f) => self.flwor(f, vars),
            Expr::GeneralCmp(_, a, b) | Expr::ValueCmp(_, a, b) => {
                self.operand(a, vars);
                self.operand(b, vars);
            }
            _ => {}
        }
    }

    fn operand(&mut self, e: &Expr, vars: &Vars) {
        if let Expr::Path { init, steps } = e.unparen() {
            self.rooted_use(init, steps, vars);
        }
    }

    /// Recognize a source-rooted path use and lower it into a pattern
    /// (or an accept-all `None` when the first step cannot name a root).
    fn rooted_use(&mut self, init: &Expr, steps: &[Step], vars: &Vars) {
        let Some(source) = self.resolve_source(init, vars) else { return };
        let mut pattern: Option<Pattern> = None;
        self.lower_chain(&mut pattern, None, Edge::Child, steps, vars);
        self.uses.entry(source).or_default().push(pattern);
    }

    /// The source a path's `init` is rooted at, if the walk understands
    /// it: a live doc-binding variable, an `xmlcolumn()` call (engine
    /// mode), or either wrapped in filter predicates (which are simply
    /// not lowered — ignoring a constraint only widens the match set,
    /// though any source-rooted paths inside them are still walked as
    /// independent uses).
    fn resolve_source(&mut self, init: &Expr, vars: &Vars) -> Option<String> {
        match init.unparen() {
            Expr::VarRef(v) => {
                let source = vars.get(v).cloned()?;
                *self.var_uses.entry(v.clone()).or_insert(0) += 1;
                Some(source)
            }
            Expr::Filter { expr, predicates } => {
                let src = self.resolve_source(expr, vars)?;
                for p in predicates {
                    let mut conjuncts = Vec::new();
                    flatten_and(p, &mut conjuncts);
                    for c in conjuncts {
                        self.condition(c, vars);
                    }
                }
                Some(src)
            }
            e => self.xmlcolumn(e),
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

    /// Lower a step chain into `pattern`, starting below `anchor`
    /// (`None` = the first named step becomes the pattern root).
    /// Truncates — keeping the prefix built so far — at the first step
    /// it does not fully understand.
    fn lower_chain(
        &mut self,
        pattern: &mut Option<Pattern>,
        anchor: Option<usize>,
        mut edge: Edge,
        steps: &[Step],
        vars: &Vars,
    ) {
        let mut cur = anchor;
        for step in steps {
            let Step::Axis { axis, test, predicates } = step else { return };
            match (axis, test) {
                // The `//` separator: descendant-or-self::node() with no
                // predicates sets a pending descendant edge for the next
                // named step.
                (Axis::DescendantOrSelf, NodeTest::Kind(KindTest::AnyKind))
                    if predicates.is_empty() =>
                {
                    edge = Edge::Descendant;
                }
                (Axis::Child, NodeTest::Name(nt)) | (Axis::Descendant, NodeTest::Name(nt)) => {
                    let Some(name) = concrete_name(nt) else { return };
                    if matches!(axis, Axis::Descendant) {
                        edge = Edge::Descendant;
                    }
                    let Some(node) = add_node(pattern, cur, edge, name.clark(), false) else {
                        return;
                    };
                    for p in predicates {
                        self.predicate(pattern, node, p, vars);
                    }
                    cur = Some(node);
                    edge = Edge::Child;
                }
                (Axis::Attribute, NodeTest::Name(nt)) => {
                    if let Some(name) = concrete_name(nt) {
                        add_node(pattern, cur, edge, format!("@{}", name.clark()), true);
                    }
                    // Attributes are terminal; anything past this step
                    // (or a wildcard name) is not lowered.
                    return;
                }
                // Wildcards, kind tests, self/parent axes: truncate.
                _ => return,
            }
        }
    }

    /// A step predicate at pattern node `node`: context-relative path
    /// conjuncts (and comparison operands) branch the pattern; paths
    /// rooted elsewhere are independent uses.
    fn predicate(&mut self, pattern: &mut Option<Pattern>, node: usize, pred: &Expr, vars: &Vars) {
        let mut conjuncts = Vec::new();
        flatten_and(pred, &mut conjuncts);
        for c in conjuncts {
            match c.unparen() {
                Expr::Path { init, steps } => {
                    self.predicate_path(pattern, node, init, steps, vars);
                }
                Expr::GeneralCmp(_, a, b) | Expr::ValueCmp(_, a, b) => {
                    for op in [a, b] {
                        if let Expr::Path { init, steps } = op.unparen() {
                            self.predicate_path(pattern, node, init, steps, vars);
                        }
                    }
                }
                // Positions, `or`, `not()`, quantifiers, literals:
                // nothing to require.
                _ => {}
            }
        }
    }

    fn predicate_path(
        &mut self,
        pattern: &mut Option<Pattern>,
        node: usize,
        init: &Expr,
        steps: &[Step],
        vars: &Vars,
    ) {
        if matches!(init.unparen(), Expr::ContextItem) {
            // Existential semantics: the conjunct is false on an empty
            // path, so the branch is required below this node.
            self.lower_chain(pattern, Some(node), Edge::Child, steps, vars);
        } else {
            self.rooted_use(init, steps, vars);
        }
    }
}

/// Append a node to the pattern (creating the root when `cur` is
/// `None`). Returns `None` — without adding — once the pattern is at
/// the node cap, which truncates the chain conservatively.
fn add_node(
    pattern: &mut Option<Pattern>,
    cur: Option<usize>,
    edge: Edge,
    component: String,
    attribute: bool,
) -> Option<usize> {
    match (pattern.as_mut(), cur) {
        (Some(p), Some(parent)) => p.add_child(parent, edge, component, attribute),
        (Some(_), None) | (None, Some(_)) => None,
        (None, None) => {
            *pattern = Some(Pattern::root(edge, component, attribute));
            Some(0)
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

    fn extract(query: &str) -> HashMap<String, SourceTwig> {
        let q = xqdb_xquery::parse_query(query).unwrap();
        extract_twigs(&q.body, &AnalysisEnv::new(), true)
    }

    fn rendered(tw: &SourceTwig) -> Vec<String> {
        tw.patterns.iter().map(Pattern::render).collect()
    }

    const COL: &str = "db2-fn:xmlcolumn('ORDERS.ORDDOC')";

    #[test]
    fn pure_child_chain_is_left_to_the_prefilter() {
        assert!(extract(&format!("{COL}/order/custid")).is_empty());
    }

    #[test]
    fn leading_descendant_lowers() {
        let tw = extract(&format!("{COL}//order/custid"));
        assert_eq!(rendered(&tw["ORDERS.ORDDOC"]), vec!["//order[/custid]"]);
    }

    #[test]
    fn branching_predicate_lowers() {
        let tw = extract(&format!("{COL}/order[promo/code]/custid"));
        assert_eq!(
            rendered(&tw["ORDERS.ORDDOC"]),
            vec!["/order[/promo[/code]][/custid]"]
        );
    }

    #[test]
    fn paper_class_query_lowers_fully() {
        let tw = extract(&format!("{COL}//order[lineitem/@price > 100]//id"));
        assert_eq!(
            rendered(&tw["ORDERS.ORDDOC"]),
            vec!["//order[/lineitem[/@price]][//id]"]
        );
    }

    #[test]
    fn wildcard_truncates_but_keeps_prefix() {
        let tw = extract(&format!("{COL}//order/*/custid"));
        assert_eq!(rendered(&tw["ORDERS.ORDDOC"]), vec!["//order"]);
    }

    #[test]
    fn unlowerable_first_step_drops_source() {
        // `//*` cannot name a root: the use is accept-all.
        assert!(extract(&format!("{COL}//*/custid")).is_empty());
        // A second, lowerable use must not resurrect the source.
        assert!(extract(&format!("({COL}//*/custid, {COL}//order)")).is_empty());
    }

    #[test]
    fn bare_collection_use_drops_source() {
        assert!(extract(&format!("for $o in {COL} where $o//order return $o")).is_empty());
    }

    #[test]
    fn occurrence_guard_drops_unrecognized_uses() {
        assert!(extract(&format!("count({COL})")).is_empty());
        assert!(extract(&format!("({COL}//order, count({COL}))")).is_empty());
    }

    #[test]
    fn for_binding_lowers_and_var_uses_are_covered() {
        let tw = extract(&format!(
            "for $o in {COL}//order where $o/custid = 7 return $o/status"
        ));
        // $o-uses need no tracking: //order covers them.
        assert_eq!(rendered(&tw["ORDERS.ORDDOC"]), vec!["//order"]);
    }

    #[test]
    fn where_operands_become_independent_uses() {
        let tw = extract(&format!(
            "for $o in {COL}//order where {COL}/config//flag return $o"
        ));
        let r = rendered(&tw["ORDERS.ORDDOC"]);
        assert_eq!(r, vec!["//order", "/config[//flag]"]);
    }

    #[test]
    fn descendant_axis_spelled_out_lowers() {
        let tw = extract(&format!("{COL}/order/descendant::remark"));
        assert_eq!(rendered(&tw["ORDERS.ORDDOC"]), vec!["/order[//remark]"]);
    }

    #[test]
    fn descendant_attribute_lowers() {
        let tw = extract(&format!("{COL}//order[.//@price]"));
        assert_eq!(rendered(&tw["ORDERS.ORDDOC"]), vec!["//order[//@price]"]);
    }

    #[test]
    fn namespaced_steps_use_clark_components() {
        let tw = extract(&format!(
            "declare namespace p = \"urn:promo\"; {COL}//order/p:deal"
        ));
        assert_eq!(
            rendered(&tw["ORDERS.ORDDOC"]),
            vec!["//order[/{urn:promo}deal]"]
        );
    }

    #[test]
    fn sql_mode_roots_only_at_passing_vars() {
        let q = xqdb_xquery::parse_query(&format!("{COL}//order")).unwrap();
        assert!(extract_twigs(&q.body, &AnalysisEnv::new(), false).is_empty());

        let q = xqdb_xquery::parse_query("$O//order[lineitem/@price]").unwrap();
        let mut env = AnalysisEnv::new();
        env.bind_docs(ExpandedName::local("O"), "ORDERS.ORDDOC");
        let tw = extract_twigs(&q.body, &env, false);
        assert_eq!(
            rendered(&tw["ORDERS.ORDDOC"]),
            vec!["//order[/lineitem[/@price]]"]
        );
    }

    #[test]
    fn shadowed_passing_var_is_forgotten() {
        let q = xqdb_xquery::parse_query("for $O in (1, 2) return $O//order").unwrap();
        let mut env = AnalysisEnv::new();
        env.bind_docs(ExpandedName::local("O"), "ORDERS.ORDDOC");
        assert!(extract_twigs(&q.body, &env, false).is_empty());
    }

    #[test]
    fn end_to_end_against_real_labels() {
        use xqdb_storage::{Column, SqlType, SqlValue, Table};
        if !xqdb_twig::enabled_in_env() {
            // The lint gate's XQDB_TWIG=off pass: labels are never built,
            // so prepare correctly declines — nothing end-to-end to check.
            return;
        }
        let mut t = Table::new(
            "orders",
            vec![Column::new("id", SqlType::Integer), Column::new("doc", SqlType::Xml)],
        );
        let docs = [
            "<order><lineitem price=\"5\"><remark/></lineitem><id>1</id></order>",
            "<order><lineitem price=\"5\"/><id>2</id></order>",
            "<wrap><order><id>3</id></order></wrap>",
        ];
        for (i, xml) in docs.iter().enumerate() {
            let d = xqdb_xmlparse::parse_document(xml).unwrap();
            t.insert(vec![SqlValue::Integer(i as i64), SqlValue::Xml(d.root())]).unwrap();
        }
        let tw = extract(&format!("{COL}//order[lineitem/remark]//id"));
        let prepared = PreparedTwig::prepare(&tw["ORDERS.ORDDOC"], &t).unwrap();
        assert!(prepared.accepts(0));
        assert!(!prepared.accepts(1), "no remark branch");
        assert!(!prepared.accepts(2), "no lineitem at all");

        // The descendant root also matches the wrapped order.
        let tw = extract(&format!("{COL}//order[id]"));
        let prepared = PreparedTwig::prepare(&tw["ORDERS.ORDDOC"], &t).unwrap();
        assert!(prepared.accepts(0) && prepared.accepts(1) && prepared.accepts(2));
    }
}
