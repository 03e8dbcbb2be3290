//! Twig join, query side: a source's [`Pattern`] trees, resolved against
//! the table's synopsis and prepared as one holistic join per pattern
//! (`xqdb-twig`). The patterns come from the single structural walk in
//! `structure.rs`: child/descendant edges and branching predicates
//! survive there, which is exactly the query class the flat signature
//! prefilter cannot serve.
//!
//! A row is kept iff **any** pattern (one per recognized use) matches it.
//! Patterns only omit constraints, never add them, so a match set can only
//! widen — the conservative direction of Definition 1.

use xqdb_storage::{hash_rendered_path, PathSynopsis, Table};
use xqdb_twig::{Pattern, TwigJoin};

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

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use std::collections::HashMap;

    use super::*;
    use crate::eligibility::AnalysisEnv;
    use xqdb_xdm::ExpandedName;
    use xqdb_xquery::ast::Expr;

    fn twigs_of(body: &Expr, env: &AnalysisEnv, xmlcolumn: bool) -> HashMap<String, SourceTwig> {
        crate::structure::extract(body, env, xmlcolumn).twigs()
    }

    fn extract(query: &str) -> HashMap<String, SourceTwig> {
        let q = xqdb_xquery::parse_query(query).unwrap();
        twigs_of(&q.body, &AnalysisEnv::new(), true)
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
        assert!(twigs_of(&q.body, &AnalysisEnv::new(), false).is_empty());

        let q = xqdb_xquery::parse_query("$O//order[lineitem/@price]").unwrap();
        let mut env = AnalysisEnv::new();
        env.bind_docs(ExpandedName::local("O"), "ORDERS.ORDDOC");
        let tw = twigs_of(&q.body, &env, false);
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
        assert!(twigs_of(&q.body, &env, false).is_empty());
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
