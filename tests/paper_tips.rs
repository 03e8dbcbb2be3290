//! The paper's twelve Tips, each as an executable assertion: the
//! recommended formulation must behave better (use an index / avoid the
//! trap) than the discouraged one, on the same data.

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use xqdb_core::engine::{execute_plan, plan_query};
use xqdb_core::sqlxml::SqlSession;
use xqdb_core::{AnalysisEnv, Catalog};
use xqdb_storage::{Column, SqlType, SqlValue, Table};
use xqdb_xqeval::DynamicContext;

fn orders_catalog(docs: &[&str], indexes: &[(&str, &str, &str)]) -> Catalog {
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
    for (name, pattern, ty) in indexes {
        c.create_index(name, "orders", "orddoc", pattern, ty).unwrap();
    }
    c
}

/// Does the planned query use any index probe?
fn uses_index(c: &Catalog, query: &str) -> bool {
    let q = xqdb_xquery::parse_query(query).unwrap();
    let plan = plan_query(c, q, &AnalysisEnv::new());
    plan.access.sources.iter().any(|a| a.index.is_some())
}

fn run(c: &Catalog, query: &str) -> usize {
    let q = xqdb_xquery::parse_query(query).unwrap();
    let plan = plan_query(c, q, &AnalysisEnv::new());
    execute_plan(c, &plan, &DynamicContext::new()).unwrap().sequence.len()
}

const DOCS: &[&str] = &[
    r#"<order><custid>7</custid><lineitem price="250.00"><product><id>p2</id></product></lineitem></order>"#,
    r#"<order><custid>8</custid><lineitem price="50.00"><product><id>p3</id></product></lineitem></order>"#,
];

#[test]
fn tip_1_use_type_casts_in_join_predicates() {
    // "Use type-cast expression in XQuery join predicates."
    let c = orders_catalog(DOCS, &[("o_custid", "//custid", "double")]);
    // Cast form: double index eligible.
    assert!(uses_index(&c, "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[custid/xs:double(.) = 7]"));
    // Also: $i/xs:double(.) "is more general than xs:double($i), since it
    // does not require $i to be a singleton" — both parse and evaluate.
    let multi = orders_catalog(
        &[r#"<order><custid>7</custid><custid>8</custid></order>"#],
        &[],
    );
    assert_eq!(
        run(&multi, "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[custid/xs:double(.) = 8]"),
        1,
        "path-cast form handles multiple custids"
    );
    let q = xqdb_xquery::parse_query(
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[xs:double(custid) = 8]",
    )
    .unwrap();
    let plan = plan_query(&multi, q, &AnalysisEnv::new());
    let r = execute_plan(&multi, &plan, &DynamicContext::new());
    assert!(r.is_err(), "function-cast form errors on multiple custids");
}

#[test]
fn tip_2_standalone_xquery_for_fragments() {
    // Query 7 returns each lineitem as its own row, with index support.
    let c = orders_catalog(DOCS, &[("li_price", "//lineitem/@price", "double")]);
    let q7 = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]";
    assert!(uses_index(&c, q7));
    assert_eq!(run(&c, q7), 1);
}

#[test]
fn tip_3_xmlexists_needs_nodes_not_booleans() {
    let mut s = SqlSession::new();
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    for (i, d) in DOCS.iter().enumerate() {
        s.execute(&format!("INSERT INTO orders VALUES ({i}, '{d}')")).unwrap();
    }
    // Boolean form: no filtering.
    let bad = s
        .execute(
            "SELECT ordid FROM orders \
             WHERE XMLExists('$o//lineitem/@price > 100' passing orddoc as \"o\")",
        )
        .unwrap();
    assert_eq!(bad.rows.len(), 2);
    // Predicate form: filters.
    let good = s
        .execute(
            "SELECT ordid FROM orders \
             WHERE XMLExists('$o//lineitem[@price > 100]' passing orddoc as \"o\")",
        )
        .unwrap();
    assert_eq!(good.rows.len(), 1);
}

#[test]
fn tip_4_xmltable_predicates_in_row_producer() {
    let mut s = SqlSession::new();
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    for (i, d) in DOCS.iter().enumerate() {
        s.execute(&format!("INSERT INTO orders VALUES ({i}, '{d}')")).unwrap();
    }
    // Row-producer predicate: probe, and the row count reflects filtering.
    let good = s
        .execute(
            "SELECT t.li FROM orders o, XMLTable('$o//lineitem[@price > 100]' \
             passing o.orddoc as \"o\" COLUMNS \"li\" XML BY REF PATH '.') as t(li)",
        )
        .unwrap();
    assert_eq!(good.rows.len(), 1);
    let plan = s
        .execute(
            "EXPLAIN SELECT t.li FROM orders o, XMLTable('$o//lineitem[@price > 100]' \
             passing o.orddoc as \"o\" COLUMNS \"li\" XML BY REF PATH '.') as t(li)",
        )
        .unwrap()
        .message
        .unwrap();
    assert!(plan.contains("PROBE LI_PRICE"), "{plan}");
    // Column-expression predicate: NULL-padding, no probe.
    let bad = s
        .execute(
            "SELECT t.price FROM orders o, XMLTable('$o//lineitem' \
             passing o.orddoc as \"o\" COLUMNS \"price\" DOUBLE PATH '@price[. > 100]') as t(price)",
        )
        .unwrap();
    assert_eq!(bad.rows.len(), 2, "one row per lineitem, NULLs preserved");
}

#[test]
fn tip_5_and_6_express_xml_joins_in_xquery() {
    let mut s = SqlSession::new();
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute("create table customer (cid integer, cdoc XML)").unwrap();
    for (i, d) in DOCS.iter().enumerate() {
        s.execute(&format!("INSERT INTO orders VALUES ({i}, '{d}')")).unwrap();
    }
    s.execute("INSERT INTO customer VALUES (1, '<customer><id>7</id></customer>')")
        .unwrap();
    // XQuery-side join (Query 16 shape) works.
    let r = s
        .execute(
            "SELECT c.cid FROM orders o, customer c \
             WHERE XMLExists('$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]' \
             passing o.orddoc as \"order\", c.cdoc as \"cust\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    // Raw SQL '=' between XML columns errors.
    assert!(s
        .execute("SELECT c.cid FROM orders o, customer c WHERE o.orddoc = c.cdoc")
        .is_err());
}

#[test]
fn tip_7_no_predicates_inside_constructors() {
    let c = orders_catalog(DOCS, &[("li_price", "//lineitem/@price", "double")]);
    // Constructor-guarded predicate: ineligible.
    assert!(!uses_index(
        &c,
        "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
         return <r>{$o/lineitem[@price > 100]}</r>"
    ));
    // Bare bind-out: eligible.
    assert!(uses_index(
        &c,
        "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
         return $o/lineitem[@price > 100]"
    ));
}

#[test]
fn tip_8_mind_the_document_node() {
    let c = orders_catalog(DOCS, &[]);
    // Document-node context: leading step named `order` works.
    assert_eq!(run(&c, "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order"), 2);
    // Element context from a constructor: the same step finds nothing.
    assert_eq!(
        run(
            &c,
            "for $o in (for $x in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
                        return <order>{$x/*}</order>) \
             return $o/order"
        ),
        0
    );
    // Absolute paths inside constructed trees are type errors.
    let q = xqdb_xquery::parse_query(
        "let $o := <wrap>{db2-fn:xmlcolumn('ORDERS.ORDDOC')/order}</wrap> return $o[//custid]",
    )
    .unwrap();
    let plan = plan_query(&c, q, &AnalysisEnv::new());
    assert!(execute_plan(&c, &plan, &DynamicContext::new()).is_err());
}

#[test]
fn tip_9_predicates_before_construction() {
    let c = orders_catalog(DOCS, &[("pid", "//product/id", "varchar")]);
    // Before (on base data): index.
    assert!(uses_index(
        &c,
        "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem \
         where $i/product/id = 'p2' return $i/@quantity"
    ));
    // After (through a constructed view): no index, and the walk's notes
    // explain.
    let q = xqdb_xquery::parse_query(
        "for $j in (for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem \
                    return <item><pid>{$i/product/id/data(.)}</pid></item>) \
         where $j/pid = 'p2' return $j",
    )
    .unwrap();
    let plan = plan_query(&c, q, &AnalysisEnv::new());
    assert!(plan.access.sources.iter().all(|a| a.index.is_none()));
}

#[test]
fn tip_10_namespace_alignment() {
    let ns_doc =
        r#"<order xmlns="http://ournamespaces.com/order"><lineitem price="250"/></order>"#;
    let c = orders_catalog(&[ns_doc], &[("li_price", "//lineitem/@price", "double")]);
    let q = "declare default element namespace \"http://ournamespaces.com/order\"; \
             db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[lineitem/@price > 100]";
    assert!(!uses_index(&c, q), "unaligned namespaces: ineligible");
    let c2 = orders_catalog(&[ns_doc], &[("li_price_w", "//*:lineitem/@price", "double")]);
    assert!(uses_index(&c2, q), "wildcard namespaces: eligible");
    assert_eq!(run(&c2, q), 1);
}

#[test]
fn tip_11_text_step_alignment() {
    let docs = &[r#"<order><price>99.50<currency>USD</currency></price></order>"#];
    let c = orders_catalog(docs, &[("p_elem", "//price", "varchar")]);
    let text_q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[price/text() = \"99.50\"]";
    assert!(!uses_index(&c, text_q));
    assert_eq!(run(&c, text_q), 1, "the text node IS 99.50");
    let c2 = orders_catalog(docs, &[("p_text", "//price/text()", "varchar")]);
    assert!(uses_index(&c2, text_q));
    assert_eq!(run(&c2, text_q), 1);
}

#[test]
fn tip_12_index_attributes_with_the_attribute_axis() {
    let c = orders_catalog(DOCS, &[("nodes", "//node()", "double")]);
    // //node() indexed zero attributes — only the numeric custid elements
    // and their text nodes (2 per document).
    assert_eq!(c.index("NODES").unwrap().len(), 4);
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 100]";
    assert!(!uses_index(&c, q));
    let c2 = orders_catalog(DOCS, &[("attrs", "//@*", "double")]);
    assert!(c2.index("ATTRS").unwrap().len() >= 2);
    assert!(uses_index(&c2, q));
    assert_eq!(run(&c2, q), 1);
}

#[test]
fn between_guidance_single_scan_forms() {
    // Section 3.10's closing advice: value comparisons / self axis /
    // attributes make a mergeable between.
    let docs = &[
        r#"<order><lineitem price="150.00"/></order>"#,
        r#"<order><lineitem price="250.00"/></order>"#,
    ];
    let c = orders_catalog(docs, &[("li_price", "//lineitem/@price", "double")]);
    let q = xqdb_xquery::parse_query(
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price > 100 and @price < 200]]",
    )
    .unwrap();
    let plan = plan_query(&c, q, &AnalysisEnv::new());
    assert!(xqdb_core::explain(&plan).contains("between-range"));
    assert_eq!(
        run(
            &c,
            "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price > 100 and @price < 200]]"
        ),
        1
    );
}
