//! Eligibility-analyzer tests: one block per paper section, asserting both
//! the *decision* (which index, or why not) and — where cheap — the
//! *result equivalence* Q(D) = Q(I(P,D)) of Definition 1.

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use xqdb_core::engine::{execute_plan, plan_query};
use xqdb_core::{AnalysisEnv, Catalog, Note};
use xqdb_xqeval::DynamicContext;
use xqdb_storage::{Column, SqlType, SqlValue, Table};

fn catalog_with_orders(docs: &[&str]) -> Catalog {
    let mut c = Catalog::new();
    c.create_table(Table::new(
        "orders",
        vec![Column::new("ordid", SqlType::Integer), Column::new("orddoc", SqlType::Xml)],
    ))
    .unwrap();
    c.create_table(Table::new(
        "customer",
        vec![Column::new("cid", SqlType::Integer), Column::new("cdoc", SqlType::Xml)],
    ))
    .unwrap();
    for (i, d) in docs.iter().enumerate() {
        let doc = xqdb_xmlparse::parse_document(d).unwrap();
        c.insert("orders", vec![SqlValue::Integer(i as i64), SqlValue::Xml(doc.root())])
            .unwrap();
    }
    c
}

/// Plan a query and return (used_index_names, explain_text).
fn plan_info(c: &Catalog, query: &str) -> (Vec<String>, String) {
    let q = xqdb_xquery::parse_query(query).unwrap();
    let plan = plan_query(c, q, &AnalysisEnv::new());
    let explain = xqdb_core::explain(&plan);
    let mut used = Vec::new();
    for a in &plan.access.sources {
        if let Some(ic) = &a.index {
            collect_probe_names(ic, &mut used);
        }
    }
    used.sort();
    used.dedup();
    (used, explain)
}

fn collect_probe_names(ic: &xqdb_core::IndexCond, out: &mut Vec<String>) {
    match ic {
        xqdb_core::IndexCond::Probe { index, .. } => out.push(index.clone()),
        xqdb_core::IndexCond::And(cs) | xqdb_core::IndexCond::Or(cs) => {
            for c in cs {
                collect_probe_names(c, out);
            }
        }
    }
}

/// Assert the planned and unplanned executions agree (Definition 1), and
/// return (result_len, docs_evaluated, docs_total) for the orders source.
fn check_equivalence(c: &Catalog, query: &str) -> (usize, usize, usize) {
    let q = xqdb_xquery::parse_query(query).unwrap();
    let plan = plan_query(c, q.clone(), &AnalysisEnv::new());
    let with_index = execute_plan(c, &plan, &DynamicContext::new()).unwrap();
    // Reference: evaluate without any index use.
    let reference = xqdb_xqeval::eval_query(&q, &c.db, &DynamicContext::new()).unwrap();
    let a = xqdb_xmlparse::serialize_sequence(&with_index.sequence);
    let b = xqdb_xmlparse::serialize_sequence(&reference);
    assert_eq!(a, b, "Definition 1 violated for {query}");
    let evaluated = with_index
        .stats
        .docs_evaluated
        .get("ORDERS.ORDDOC")
        .copied()
        .unwrap_or(0);
    let total = with_index.stats.docs_total.get("ORDERS.ORDDOC").copied().unwrap_or(0);
    (with_index.sequence.len(), evaluated, total)
}

const DOCS: &[&str] = &[
    r#"<order id="1"><lineitem price="99.50"><product><id>17</id></product></lineitem></order>"#,
    r#"<order id="2"><lineitem price="250.00"><product><id>18</id></product></lineitem><lineitem price="50.00"><product><id>19</id></product></lineitem></order>"#,
    r#"<order id="3"><date>January 1, 2001</date><lineitem><product><id>20</id></product></lineitem></order>"#,
    r#"<order id="4"><lineitem price="150.00"><product><id>21</id></product></lineitem></order>"#,
];

// ------------------------------------------------ Section 2.2: Queries 1–2

#[test]
fn query_1_uses_li_price() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    let q = "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i";
    let (used, explain) = plan_info(&c, q);
    assert_eq!(used, vec!["LI_PRICE"], "{explain}");
    let (results, evaluated, total) = check_equivalence(&c, q);
    assert_eq!(results, 2); // orders 2 and 4
    assert_eq!(total, 4);
    assert_eq!(evaluated, 2, "index pre-filtered to exactly the matches");
}

#[test]
fn query_2_wildcard_attribute_cannot_use_li_price() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    let q = "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>100] return $i";
    let (used, explain) = plan_info(&c, q);
    assert!(used.is_empty(), "{explain}");
    assert!(explain.contains("not contained"), "{explain}");
    // A broad //@* index fixes it.
    c.create_index("all_attrs", "orders", "orddoc", "//@*", "double").unwrap();
    let (used, _) = plan_info(&c, q);
    assert_eq!(used, vec!["ALL_ATTRS"]);
}

// ------------------------------------------------ Section 3.1: types

#[test]
fn query_3_string_literal_needs_varchar_index() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    // Query 3: "100" in quotes — a string comparison; the double index is
    // NOT eligible.
    let q = "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > \"100\"] return $i";
    let (used, explain) = plan_info(&c, q);
    assert!(used.is_empty(), "{explain}");
    assert!(explain.contains("cannot serve a varchar comparison"), "{explain}");
    // A varchar index IS eligible for the string predicate.
    c.create_index("li_price_s", "orders", "orddoc", "//lineitem/@price", "varchar")
        .unwrap();
    let (used, _) = plan_info(&c, q);
    assert_eq!(used, vec!["LI_PRICE_S"]);
    let (results, _, _) = check_equivalence(&c, q);
    // String comparison: "99.50" > "100", "250.00" > "100", "50.00" > "100",
    // "150.00" > "100" — stringly "99.50" > "100" is true ('9' > '1'), etc.
    assert_eq!(results, 3);
}

#[test]
fn numeric_predicate_not_served_by_varchar_index() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price_s", "orders", "orddoc", "//lineitem/@price", "varchar")
        .unwrap();
    // Even though the varchar index contains all values, it cannot enforce
    // numeric comparison rules (1E3 = 1000) — Section 3.1.
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 100]";
    let (used, explain) = plan_info(&c, q);
    assert!(used.is_empty(), "{explain}");
    assert!(explain.contains("cannot serve a double comparison"), "{explain}");
}

#[test]
fn tip_1_cast_join_makes_double_indexes_eligible() {
    let mut c = catalog_with_orders(&[r#"<order><custid>7</custid></order>"#]);
    let cust = xqdb_xmlparse::parse_document(r#"<customer><id>7</id></customer>"#).unwrap();
    c.insert("customer", vec![SqlValue::Integer(0), SqlValue::Xml(cust.root())])
        .unwrap();
    c.create_index("o_custid", "orders", "orddoc", "//custid", "double").unwrap();
    c.create_index("c_custid", "customer", "cdoc", "/customer/id", "double").unwrap();
    // Query 4's join with casts: both sides resolvable; our doc-filter
    // analysis treats the join predicate as non-constant, so no index probe
    // is emitted (join support is equality-to-constant only), but no WRONG
    // probe may appear either, and execution must stay correct.
    let q = "for $i in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order \
             for $j in db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/customer \
             where $i/custid/xs:double(.) = $j/id/xs:double(.) \
             return $i";
    let (results, _, _) = check_equivalence(&c, q);
    assert_eq!(results, 1);
    // With a cast against a constant the double index IS used.
    let q2 = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[custid/xs:double(.) = 7]";
    let (used, explain) = plan_info(&c, q2);
    assert_eq!(used, vec!["O_CUSTID"], "{explain}");
}

#[test]
fn date_predicates_use_date_indexes() {
    let mut c = catalog_with_orders(&[
        r#"<order><shipdate>2001-06-01</shipdate></order>"#,
        r#"<order><shipdate>2003-06-01</shipdate></order>"#,
    ]);
    c.create_index("o_date", "orders", "orddoc", "//shipdate", "date").unwrap();
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[shipdate > xs:date('2002-01-01')]";
    let (used, explain) = plan_info(&c, q);
    assert_eq!(used, vec!["O_DATE"], "{explain}");
    let (results, evaluated, _) = check_equivalence(&c, q);
    assert_eq!(results, 1);
    assert_eq!(evaluated, 1);
}

// ------------------------------------------------ Section 3.4: let vs for

#[test]
fn query_17_for_clause_is_index_eligible() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    let q = "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
             for $item in $doc//lineitem[@price > 100] \
             return <result>{$item}</result>";
    let (used, explain) = plan_info(&c, q);
    assert_eq!(used, vec!["LI_PRICE"], "{explain}");
    let (results, evaluated, _) = check_equivalence(&c, q);
    assert_eq!(results, 2);
    assert_eq!(evaluated, 2);
}

#[test]
fn query_18_let_clause_is_not() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    let q = "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
             let $item := $doc//lineitem[@price > 100] \
             return <result>{$item}</result>";
    let (used, explain) = plan_info(&c, q);
    assert!(used.is_empty(), "{explain}");
    let (results, evaluated, total) = check_equivalence(&c, q);
    assert_eq!(results, 4); // one <result> per document
    assert_eq!(evaluated, total); // full scan
}

#[test]
fn query_19_constructor_in_return_blocks_index() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    let q = "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
             return <result>{$ord/lineitem[@price > 100]}</result>";
    let (used, explain) = plan_info(&c, q);
    assert!(used.is_empty(), "{explain}");
    // ...and EXPLAIN should say why.
    assert!(
        explain.contains("constructor"),
        "construction barrier note expected in: {explain}"
    );
    check_equivalence(&c, q);
}

#[test]
fn query_20_21_where_clause_restores_eligibility() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    let q20 = "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
               where $ord/lineitem/@price > 100 \
               return <result>{$ord/lineitem}</result>";
    let (used, explain) = plan_info(&c, q20);
    assert_eq!(used, vec!["LI_PRICE"], "{explain}");
    let q21 = "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
               let $price := $ord/lineitem/@price \
               where $price > 100 \
               return <result>{$ord/lineitem}</result>";
    let (used, explain) = plan_info(&c, q21);
    assert_eq!(used, vec!["LI_PRICE"], "{explain}");
    // Results agree between the equivalent formulations.
    let (r20, e20, _) = check_equivalence(&c, q20);
    let (r21, e21, _) = check_equivalence(&c, q21);
    assert_eq!(r20, r21);
    assert_eq!(e20, e21);
    assert_eq!(e20, 2);
}

#[test]
fn query_22_bind_out_is_index_eligible() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    let q = "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
             return $ord/lineitem[@price > 100]";
    let (used, explain) = plan_info(&c, q);
    assert_eq!(used, vec!["LI_PRICE"], "{explain}");
    let (results, evaluated, _) = check_equivalence(&c, q);
    assert_eq!(results, 2);
    assert_eq!(evaluated, 2);
}

// ------------------------------------------------ Section 3.7: namespaces

const NS_ORDER_DOCS: &[&str] = &[
    r#"<order xmlns="http://ournamespaces.com/order"><custid>1</custid><lineitem price="2000"/></order>"#,
    r#"<order xmlns="http://ournamespaces.com/order"><custid>2</custid><lineitem price="10"/></order>"#,
];

#[test]
fn query_28_namespace_mismatch_makes_indexes_ineligible() {
    let mut c = catalog_with_orders(NS_ORDER_DOCS);
    // li_price (no namespaces) restricts to empty-namespace lineitems.
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    let q = "declare default element namespace \"http://ournamespaces.com/order\"; \
             db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[lineitem/@price > 1000]";
    let (used, explain) = plan_info(&c, q);
    assert!(used.is_empty(), "{explain}");
    assert!(explain.contains("not contained"), "{explain}");
    // The paper's three fixes:
    c.create_index(
        "li_price_ns1",
        "orders",
        "orddoc",
        "declare default element namespace \"http://ournamespaces.com/order\"; //lineitem/@price",
        "double",
    )
    .unwrap();
    let (used, _) = plan_info(&c, q);
    assert_eq!(used, vec!["LI_PRICE_NS1"]);
    let (results, evaluated, _) = check_equivalence(&c, q);
    assert_eq!(results, 1);
    assert_eq!(evaluated, 1);
}

#[test]
fn query_28_attribute_only_index_is_eligible() {
    let mut c = catalog_with_orders(NS_ORDER_DOCS);
    // li_price_ns from the paper: //@price has no element-name restriction,
    // and default namespaces do not apply to attributes.
    c.create_index("li_price_ns", "orders", "orddoc", "//@price", "double").unwrap();
    let q = "declare default element namespace \"http://ournamespaces.com/order\"; \
             db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[lineitem/@price > 1000]";
    let (used, explain) = plan_info(&c, q);
    assert_eq!(used, vec!["LI_PRICE_NS"], "{explain}");
}

#[test]
fn wildcard_namespace_index_is_eligible() {
    let mut c = catalog_with_orders(&[
        r#"<c:customer xmlns:c="http://ournamespaces.com/customer"><c:nation>1</c:nation></c:customer>"#,
    ]);
    c.create_index("c_nation_ns2", "orders", "orddoc", "//*:nation", "double")
        .unwrap();
    let q = "declare namespace c=\"http://ournamespaces.com/customer\"; \
             db2-fn:xmlcolumn('ORDERS.ORDDOC')//c:customer[c:nation = 1]";
    let (used, explain) = plan_info(&c, q);
    assert_eq!(used, vec!["C_NATION_NS2"], "{explain}");
    let (results, _, _) = check_equivalence(&c, q);
    assert_eq!(results, 1);
}

// ------------------------------------------------ Section 3.8: text()

#[test]
fn query_29_text_step_must_align() {
    let mut c = catalog_with_orders(&[
        r#"<order><lineitem><price>99.50</price></lineitem></order>"#,
        r#"<order><date>January 1, 2003</date><lineitem><price>99.50<currency>USD</currency></price></lineitem></order>"#,
    ]);
    // PRICE_TEXT from the paper: element values, NOT text nodes.
    c.create_index("price_text", "orders", "orddoc", "//price", "varchar").unwrap();
    let q = "for $ord in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order[lineitem/price/text() = \"99.50\"] return $ord";
    let (used, explain) = plan_info(&c, q);
    assert!(used.is_empty(), "{explain}");
    // Both documents match (each price has a "99.50" text node) even though
    // the second's element value is "99.50USD" — using the element index
    // would have missed it.
    let (results, _, _) = check_equivalence(&c, q);
    assert_eq!(results, 2);
    // An aligned //price/text() index IS eligible.
    c.create_index("price_text2", "orders", "orddoc", "//price/text()", "varchar")
        .unwrap();
    let (used, _) = plan_info(&c, q);
    assert_eq!(used, vec!["PRICE_TEXT2"]);
    let (results, evaluated, _) = check_equivalence(&c, q);
    assert_eq!(results, 2);
    assert_eq!(evaluated, 2);
}

#[test]
fn element_value_query_uses_element_index() {
    let mut c = catalog_with_orders(&[
        r#"<order><lineitem><price>99.50</price></lineitem></order>"#,
        r#"<order><lineitem><price>99.50<currency>USD</currency></price></lineitem></order>"#,
    ]);
    c.create_index("price_text", "orders", "orddoc", "//price", "varchar").unwrap();
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[lineitem/price = \"99.50\"]";
    let (used, explain) = plan_info(&c, q);
    assert_eq!(used, vec!["PRICE_TEXT"], "{explain}");
    let (results, evaluated, _) = check_equivalence(&c, q);
    assert_eq!(results, 1); // the mixed-content element's value is 99.50USD
    assert_eq!(evaluated, 1);
}

// ------------------------------------------------ Section 3.10: between

#[test]
fn query_30_attribute_between_merges_to_one_scan() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    let q = "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price>100 and @price<200]] return $i";
    let q2 = xqdb_xquery::parse_query(q).unwrap();
    let plan = plan_query(&c, q2, &AnalysisEnv::new());
    let explain = xqdb_core::explain(&plan);
    assert!(explain.contains("between-range"), "single range scan expected: {explain}");
    let (results, evaluated, _) = check_equivalence(&c, q);
    assert_eq!(results, 1); // only the 150.00 order
    assert_eq!(evaluated, 1);
}

#[test]
fn element_between_does_not_merge() {
    let docs = &[
        r#"<order><lineitem><price>250</price><price>50</price></lineitem></order>"#,
        r#"<order><lineitem><price>150</price></lineitem></order>"#,
        r#"<order><lineitem><price>10</price></lineitem></order>"#,
    ];
    let mut c = catalog_with_orders(docs);
    c.create_index("e_price", "orders", "orddoc", "//price", "double").unwrap();
    // General comparisons on multi-valued price: NOT a between; must be
    // answered by two scans ANDed, and the {250,50} order must survive.
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[price > 100 and price < 200]";
    let q2 = xqdb_xquery::parse_query(q).unwrap();
    let plan = plan_query(&c, q2, &AnalysisEnv::new());
    let explain = xqdb_core::explain(&plan);
    assert!(
        !explain.contains("between-range"),
        "must NOT merge into a single range: {explain}"
    );
    assert!(explain.contains("AND("), "two-scan intersection expected: {explain}");
    let (results, evaluated, _) = check_equivalence(&c, q);
    assert_eq!(results, 2, "the existential {{250,50}} lineitem qualifies");
    assert_eq!(evaluated, 2);
}

#[test]
fn self_axis_between_merges() {
    let docs = &[
        r#"<order><lineitem><price>250</price><price>50</price></lineitem></order>"#,
        r#"<order><lineitem><price>150</price></lineitem></order>"#,
    ];
    let mut c = catalog_with_orders(docs);
    c.create_index("e_price", "orders", "orddoc", "//price", "double").unwrap();
    // The self-axis form compares the SAME value on both sides: a true
    // between, single scan, and the {250,50} order does NOT qualify.
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/price/data()[. > 100 and . < 200]";
    let q2 = xqdb_xquery::parse_query(q).unwrap();
    let plan = plan_query(&c, q2, &AnalysisEnv::new());
    let explain = xqdb_core::explain(&plan);
    assert!(explain.contains("between-range"), "{explain}");
    let (results, evaluated, _) = check_equivalence(&c, q);
    assert_eq!(results, 1);
    assert_eq!(evaluated, 1);
}

// ------------------------------------------------ structural predicates

#[test]
fn structural_predicate_uses_varchar_index() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price_s", "orders", "orddoc", "//lineitem/@price", "varchar")
        .unwrap();
    // Pure existence check: answered by a (-inf, +inf) scan of the varchar
    // index (Section 2.2).
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price]";
    let (used, explain) = plan_info(&c, q);
    assert_eq!(used, vec!["LI_PRICE_S"], "{explain}");
    assert!(explain.contains("structural"), "{explain}");
    let (results, evaluated, _) = check_equivalence(&c, q);
    assert_eq!(results, 3); // order 3 has no @price
    assert_eq!(evaluated, 3);
}

#[test]
fn structural_predicate_cannot_use_double_index() {
    let mut c = catalog_with_orders(&[
        // "20 USD" never enters the double index; a structural scan of it
        // would wrongly drop this order.
        r#"<order><lineitem price="20 USD"/></order>"#,
        r#"<order><lineitem price="30"/></order>"#,
        r#"<order><note/></order>"#,
    ]);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price]";
    let (used, explain) = plan_info(&c, q);
    assert!(used.is_empty(), "{explain}");
    let (results, _, _) = check_equivalence(&c, q);
    assert_eq!(results, 2);
}

// ------------------------------------------------ disjunctions

#[test]
fn or_requires_all_branches_indexed() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    // One branch indexable, the other not: no pre-filtering.
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 100 or date = \"January 1, 2001\"]";
    let (used, explain) = plan_info(&c, q);
    assert!(used.is_empty(), "{explain}");
    // With both branches indexed: OR of probes.
    c.create_index("o_date_s", "orders", "orddoc", "//date", "varchar").unwrap();
    let (used, explain) = plan_info(&c, q);
    assert_eq!(used, vec!["LI_PRICE", "O_DATE_S"], "{explain}");
    assert!(explain.contains("OR("), "{explain}");
    let (results, evaluated, _) = check_equivalence(&c, q);
    assert_eq!(results, 3); // orders 2, 3, 4
    assert_eq!(evaluated, 3);
}

// ------------------------------------------------ tolerant-indexing safety

#[test]
fn numeric_predicate_over_polluted_data_errors_consistently_without_index() {
    // A document whose price is "20 USD" makes the numeric predicate raise
    // a cast error during the full scan. With the double index, the
    // polluted document is pre-filtered away and the query succeeds — the
    // documented DB2-style divergence for *erroring* documents.
    let mut c = catalog_with_orders(&[
        r#"<order><lineitem price="20 USD"/></order>"#,
        r#"<order><lineitem price="250"/></order>"#,
    ]);
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 100]";
    // Unindexed: error.
    let parsed = xqdb_xquery::parse_query(q).unwrap();
    assert!(xqdb_xqeval::eval_query(&parsed, &c.db, &DynamicContext::new()).is_err());
    // Indexed: the polluted doc is skipped, result is the valid one.
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    let out = xqdb_core::run_xquery(&c, q).unwrap();
    assert_eq!(out.sequence.len(), 1);
}

// ------------------------------------------------ notes & diagnostics

#[test]
fn explain_names_the_pitfall() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    // Query 19's constructor barrier appears as a note.
    let q = "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
             return <result>{$ord/lineitem[@price > 100]}</result>";
    let parsed = xqdb_xquery::parse_query(q).unwrap();
    let plan = plan_query(&c, parsed, &AnalysisEnv::new());
    assert!(
        plan.access.notes.iter().any(|n| matches!(n, Note::ConstructionBarrier { .. })),
        "{:?}",
        plan.access.notes
    );
}

// ------------------------------------------------ aggregates

#[test]
fn aggregates_over_filtered_paths_use_indexes() {
    let mut c = catalog_with_orders(DOCS);
    c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
        .unwrap();
    for q in [
        "count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100])",
        "avg(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]/@price/xs:double(.))",
        "sum(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]/@price/xs:double(.)) + 1",
    ] {
        let (used, explain) = plan_info(&c, q);
        assert_eq!(used, vec!["LI_PRICE"], "{q}\n{explain}");
        check_equivalence(&c, q);
    }
}

// ------------------------------------------------ db2-fn:between extension

#[test]
fn explicit_between_function_merges_to_single_scan() {
    // Section 4 of the paper: "adding an explicit 'between' function would
    // solve the issue of Section 3.10". Our vendor extension does: both
    // bounds test the SAME item, so one range scan answers it even over
    // multi-valued element prices.
    let docs = &[
        r#"<order><lineitem><price>250</price><price>50</price></lineitem></order>"#,
        r#"<order><lineitem><price>150</price></lineitem></order>"#,
    ];
    let mut c = catalog_with_orders(docs);
    c.create_index("e_price", "orders", "orddoc", "//price", "double").unwrap();
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[db2-fn:between(price, 100, 200)]";
    let q2 = xqdb_xquery::parse_query(q).unwrap();
    let plan = plan_query(&c, q2, &AnalysisEnv::new());
    let explain = xqdb_core::explain(&plan);
    assert!(explain.contains("between-range"), "{explain}");
    let (results, evaluated, _) = check_equivalence(&c, q);
    // Per-item semantics: the {250, 50} lineitem does NOT qualify.
    assert_eq!(results, 1);
    assert_eq!(evaluated, 1);
}

#[test]
fn between_function_bounds_are_inclusive() {
    let docs = &[r#"<order><lineitem><price>100</price></lineitem></order>"#];
    let mut c = catalog_with_orders(docs);
    c.create_index("e_price", "orders", "orddoc", "//price", "double").unwrap();
    let (results, _, _) = check_equivalence(
        &c,
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[db2-fn:between(price, 100, 200)]",
    );
    assert_eq!(results, 1);
    let (results, _, _) = check_equivalence(
        &c,
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[db2-fn:between(price, 100.01, 200)]",
    );
    assert_eq!(results, 0);
}
