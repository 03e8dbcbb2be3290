//! Structural pre-filter: test each stored document's [`PathSignature`]
//! against the rooted paths a query requires, before per-document
//! evaluation. The requirement groups come from the single structural walk
//! in `structure.rs`; this module holds what the execution side needs.
//!
//! A document is kept if **any** group (one per recognized use of the
//! source) has all its paths present in the document's signature:
//!
//! ```text
//! keep(doc) = ∃ group g : sig(doc) ⊇ g.signature
//! ```
//!
//! Hash collisions only let extra documents through: false positives are
//! allowed, false negatives never (Definition 1).

use xqdb_storage::PathSignature;

pub use crate::structure::{PathComponent, RequiredPath};

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
    /// The group of `paths`, with their signature bits set.
    pub fn new(paths: Vec<RequiredPath>) -> Self {
        let mut signature = PathSignature::default();
        for p in &paths {
            signature.set_hash(p.hash());
        }
        RequiredGroup { paths, signature }
    }

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

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use std::collections::HashMap;

    use super::*;
    use crate::eligibility::AnalysisEnv;
    use xqdb_xquery::ast::Expr;

    fn prefilters_of(
        body: &Expr,
        env: &AnalysisEnv,
        xmlcolumn: bool,
    ) -> HashMap<String, SourcePrefilter> {
        crate::structure::extract(body, env, xmlcolumn).prefilters()
    }

    fn extract(query: &str) -> HashMap<String, SourcePrefilter> {
        let q = xqdb_xquery::parse_query(query).unwrap();
        prefilters_of(&q.body, &AnalysisEnv::new(), true)
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
        let pf = prefilters_of(&q.body, &AnalysisEnv::new(), false);
        assert!(pf.is_empty(), "SQL row filtering must not use xmlcolumn groups");
    }

    #[test]
    fn passing_var_binding_filters_in_sql_mode() {
        let q = xqdb_xquery::parse_query("$O/order[promo/code]").unwrap();
        let mut env = AnalysisEnv::new();
        env.bind_docs(xqdb_xdm::ExpandedName::local("O"), "ORDERS.ORDDOC");
        let pf = prefilters_of(&q.body, &env, false);
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
        let pf = prefilters_of(&q.body, &env, false);
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
