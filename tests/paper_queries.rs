//! The thirty numbered queries of the paper, verbatim (modulo whitespace),
//! each asserted against the behavior the paper describes. This file is the
//! audit index of the reproduction: Query N in the paper ↔ `query_N` here.
//!
//! Fixture documents follow Section 2.2's examples: the orders collection
//! includes the price-less order with `<date>January 1, 2001</date>` and
//! the `99.50`-priced order with `<date>January 1, 2002</date>` that the
//! paper uses to explain index filtering.

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use xqdb_core::engine::{execute_plan, plan_query};
use xqdb_core::sqlxml::SqlSession;
use xqdb_core::AnalysisEnv;
use xqdb_xdm::ErrorCode;
use xqdb_xqeval::DynamicContext;

mod common;

/// The paper's schema plus its example documents.
fn fixture() -> SqlSession {
    let mut s = SqlSession::new();
    s.execute("create table customer (cid integer, cdoc XML)").unwrap();
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute("create table products (id varchar(13), name varchar(32))").unwrap();
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    let docs = [
        // The Section 2.2 document with no price attribute at all.
        r#"<order><custid>1001</custid><date>January 1, 2001</date><lineitem><product><id>p5</id></product></lineitem></order>"#,
        // The Section 2.2 document with price 99.50 (filtered out by Query 1).
        r#"<order><custid>1002</custid><date>January 1, 2002</date><lineitem price="99.50"><product><id>p1</id></product></lineitem></order>"#,
        // A qualifying order with two expensive lineitems.
        r#"<order><custid>1003</custid><lineitem price="250.00"><product><id>p2</id></product></lineitem><lineitem price="150.00"><product><id>p3</id></product></lineitem></order>"#,
    ];
    for (i, d) in docs.iter().enumerate() {
        s.execute(&format!("INSERT INTO orders VALUES ({}, '{d}')", i + 1)).unwrap();
    }
    for (i, c) in [
        r#"<customer><id>1002</id><name>ACME</name><nation>1</nation></customer>"#,
        r#"<customer><id>1003</id><name>Globex</name><nation>2</nation></customer>"#,
    ]
    .iter()
    .enumerate()
    {
        s.execute(&format!("INSERT INTO customer VALUES ({}, '{c}')", i + 1)).unwrap();
    }
    s.execute("INSERT INTO products VALUES ('p1', 'widget')").unwrap();
    s.execute("INSERT INTO products VALUES ('p2', 'gadget')").unwrap();
    s
}

fn xquery(s: &SqlSession, q: &str) -> Vec<String> {
    let out = xqdb_core::run_xquery(&s.catalog, q).expect("paper query runs");
    out.sequence
        .iter()
        .map(|i| xqdb_xmlparse::serialize_sequence(std::slice::from_ref(i)))
        .collect()
}

fn uses_index(s: &SqlSession, q: &str) -> bool {
    let parsed = xqdb_xquery::parse_query(q).unwrap();
    let plan = plan_query(&s.catalog, parsed, &AnalysisEnv::new());
    plan.accesses.iter().any(|a| a.access.is_some())
}

#[test]
fn query_01() {
    let s = fixture();
    let q = "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i";
    assert!(uses_index(&s, q), "li_price is eligible for Query 1");
    let rows = xquery(&s, q);
    assert_eq!(rows.len(), 1);
    assert!(rows[0].contains("1003"));
}

#[test]
fn query_02() {
    let s = fixture();
    let q = "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>100] return $i";
    assert!(!uses_index(&s, q), "li_price is NOT eligible for Query 2");
    assert_eq!(xquery(&s, q).len(), 1);
}

#[test]
fn query_03() {
    let s = fixture();
    let q = "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > \"100\" ] return $i";
    assert!(!uses_index(&s, q), "string comparison: double index ineligible");
    // "99.50" > "100" stringly AND "250.00"/"150.00" > "100" stringly.
    assert_eq!(xquery(&s, q).len(), 2);
}

#[test]
fn query_04() {
    let s = fixture();
    let q = "for $i in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order \
             for $j in db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/customer \
             where $i/custid/xs:double(.) = $j/id/xs:double(.) \
             return $i";
    let rows = xquery(&s, q);
    assert_eq!(rows.len(), 2, "orders 1002 and 1003 have customers");
}

#[test]
fn query_05() {
    let mut s = fixture();
    let r = s
        .execute(
            "SELECT XMLQuery('$order//lineitem[@price > 100]' passing orddoc as \"order\") FROM orders",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3, "as many rows as the orders table");
    let rendered: Vec<_> = r.rows.iter().map(|row| row[0].render()).collect();
    assert_eq!(rendered.iter().filter(|v| *v == "()").count(), 2);
    assert!(rendered[2].contains("250.00") && rendered[2].contains("150.00"));
}

#[test]
fn query_06() {
    let mut s = fixture();
    let r = s
        .execute(
            "VALUES (XMLQuery('db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")//lineitem[@price > 100] '))",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1, "a single row containing ALL qualifying lineitems");
    let v = r.rows[0][0].render();
    assert!(v.contains("250.00") && v.contains("150.00"));
}

#[test]
fn query_07() {
    let s = fixture();
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]";
    assert!(uses_index(&s, q), "the most efficient formulation (Tip 2)");
    let rows = xquery(&s, q);
    assert_eq!(rows.len(), 2, "each lineitem as a separate row");
}

#[test]
fn query_08() {
    let mut s = fixture();
    let r = s
        .execute(
            "SELECT ordid, orddoc FROM orders \
             WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as \"order\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(r.stats.index_entries_scanned > 0, "li_price answered Query 8");
}

#[test]
fn query_09() {
    let mut s = fixture();
    let r = s
        .execute(
            "SELECT ordid, orddoc FROM orders \
             WHERE XMLExists('$order//lineitem/@price > 100' passing orddoc as \"order\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3, "will not eliminate any order documents");
}

#[test]
fn query_10() {
    let mut s = fixture();
    let r = s
        .execute(
            "SELECT ordid, XMLQuery('$order//lineitem[@price > 100]' passing orddoc as \"order\") \
             FROM orders \
             WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as \"order\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1, "only lineitems with price > 100");
}

#[test]
fn query_11() {
    let mut s = fixture();
    let r = s
        .execute(
            "SELECT o.ordid, t.lineitem \
             FROM orders o, XMLTable('$order//lineitem[@price > 100]' \
                passing o.orddoc as \"order\" \
                COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2, "as many rows as qualifying lineitems");
}

#[test]
fn query_12() {
    let mut s = fixture();
    let r = s
        .execute(
            "SELECT o.ordid, t.lineitem, t.price \
             FROM orders o, XMLTable('$order//lineitem' passing o.orddoc as \"order\" \
                COLUMNS \"lineitem\" XML BY REF PATH '.', \
                        \"price\" DECIMAL(6,3) PATH '@price[. > 100]') as t(lineitem, price)",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 4, "one row per lineitem");
    let nulls = r.rows.iter().filter(|row| row[2].render() == "NULL").count();
    assert_eq!(nulls, 2, "non-qualifying prices become NULL");
}

#[test]
fn query_13() {
    let mut s = fixture();
    let r = s
        .execute(
            "SELECT p.name, XMLQuery('$order//lineitem' passing orddoc as \"order\") \
             FROM products p, orders o \
             WHERE XMLExists('$order//lineitem/product[id eq $pid]' \
                passing o.orddoc as \"order\", p.id as \"pid\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2); // p1 ⋈ order 1002, p2 ⋈ order 1003
}

#[test]
fn query_14() {
    let mut s = fixture();
    // Order 1003 has two product ids → XMLCast cardinality error, exactly
    // where Query 13 succeeded.
    let err = s
        .execute(
            "SELECT p.name, XMLQuery('$order//lineitem' passing orddoc as \"order\") \
             FROM products p, orders o \
             WHERE p.id = XMLCast( XMLQuery('$order//lineitem/product/id' \
                passing o.orddoc as \"order\") as VARCHAR(13))",
        )
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::SqlCardinality);
}

#[test]
fn query_15() {
    let mut s = fixture();
    // The paper writes `SELECT c.name`, but its own schema has only
    // (cid, cdoc) — the name lives inside cdoc. Select the id column.
    let r = s
        .execute(
            "SELECT c.cid, XMLQuery('$order//lineitem' passing o.orddoc as \"order\") \
             FROM orders o, customer c \
             WHERE XMLCast(XMLQuery('$order/order/custid' passing o.orddoc as \"order\") as DOUBLE) \
                 = XMLCast(XMLQuery('$cust/customer/id' passing c.cdoc as \"cust\") as DOUBLE)",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn query_16() {
    let mut s = fixture();
    // Adapted as in query_15: c.cid instead of the paper's c.name.
    let r = s
        .execute(
            "SELECT c.cid, XMLQuery('$order//lineitem' passing o.orddoc as \"order\") \
             FROM orders o, customer c \
             WHERE XMLExists('$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]' \
                passing o.orddoc as \"order\", c.cdoc as \"cust\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn query_17() {
    let s = fixture();
    let q = "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
             for $item in $doc//lineitem[@price > 100] \
             return <result>{$item}</result>";
    assert!(uses_index(&s, q));
    let rows = xquery(&s, q);
    assert_eq!(rows.len(), 2, "a result element per qualifying lineitem");
}

#[test]
fn query_18() {
    let s = fixture();
    let q = "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
             let $item:= $doc//lineitem[@price > 100] \
             return <result>{$item}</result>";
    assert!(!uses_index(&s, q), "let-binding: index not eligible");
    let rows = xquery(&s, q);
    assert_eq!(rows.len(), 3, "a result element per order document");
    assert_eq!(rows.iter().filter(|r| *r == "<result/>").count(), 2);
}

#[test]
fn query_19() {
    let s = fixture();
    let q = "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
             return <result>{$ord/lineitem[@price > 100]}</result>";
    assert!(!uses_index(&s, q), "constructor in return: no filtering");
    assert_eq!(xquery(&s, q).len(), 3);
}

#[test]
fn query_20() {
    let s = fixture();
    let q = "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
             where $ord/lineitem/@price > 100 \
             return <result>{$ord/lineitem}</result>";
    assert!(uses_index(&s, q));
    assert_eq!(xquery(&s, q).len(), 1);
}

#[test]
fn query_21() {
    let s = fixture();
    let q = "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
             let $price := $ord/lineitem/@price \
             where $price > 100 \
             return <result>{$ord/lineitem}</result>";
    assert!(uses_index(&s, q), "the where-clause rescues the let-binding");
    assert_eq!(xquery(&s, q), xquery(&s,
        "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
         where $ord/lineitem/@price > 100 \
         return <result>{$ord/lineitem}</result>"), "Query 20 ≡ Query 21");
}

#[test]
fn query_22() {
    let s = fixture();
    let q = "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
             return $ord/lineitem[@price > 100]";
    assert!(uses_index(&s, q), "bind-out discards empties");
    assert_eq!(xquery(&s, q).len(), 2);
}

#[test]
fn query_23() {
    let s = fixture();
    let rows = xquery(&s, "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem");
    assert_eq!(rows.len(), 4, "top-most order elements navigated from document nodes");
}

#[test]
fn query_24() {
    let s = fixture();
    let rows = xquery(
        &s,
        "for $ord in (for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
           return <my_order>{$o/*}</my_order>) \
         return $ord/my_order",
    );
    assert!(rows.is_empty(), "no my_order CHILDREN of the constructed elements");
}

#[test]
fn query_25() {
    let s = fixture();
    let q = xqdb_xquery::parse_query(
        "let $order := <neworder>{db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[custid > 1001]}</neworder> \
         return $order[//customer/name]",
    )
    .unwrap();
    let plan = plan_query(&s.catalog, q, &AnalysisEnv::new());
    let err = execute_plan(&s.catalog, &plan, &DynamicContext::new()).unwrap_err();
    assert_eq!(err.code, ErrorCode::XPTY0004, "absolute path in an element-rooted tree");
}

#[test]
fn query_26_27() {
    let s = fixture();
    // Query 26: the view. (Product ids here are strings like "p2", the
    // divergence cases over typed/multi-valued data are exercised in
    // xqeval's typed_data_tests.)
    let q26 = "let $view := for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/ \
               order/lineitem \
               return <item> {$i/@quantity, $i/@price} \
                        <pid> {$i/product/id/data(.)} </pid> \
                      </item> \
               for $j in $view where $j/pid = 'p2' return $j/@price";
    let q27 = "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem \
               where $i/product/id/data(.) = 'p2' \
               return $i/@price";
    let r26 = xquery(&s, q26);
    let r27 = xquery(&s, q27);
    assert_eq!(r26.len(), 1);
    assert_eq!(r27.len(), 1);
    // Same value, different node identity (the view's @price is a copy).
    assert!(!uses_index(&s, q26), "construction barrier");
}

#[test]
fn query_28() {
    let mut s = SqlSession::new();
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute("create table customer (cid integer, cdoc XML)").unwrap();
    s.execute(
        "INSERT INTO orders VALUES (1, '<order xmlns=\"http://ournamespaces.com/order\"><custid>7</custid><lineitem price=\"2000\"/></order>')",
    )
    .unwrap();
    s.execute(
        "INSERT INTO customer VALUES (1, '<c:customer xmlns:c=\"http://ournamespaces.com/customer\"><c:id>7</c:id><c:nation>1</c:nation></c:customer>')",
    )
    .unwrap();
    let q = "declare default element namespace \"http://ournamespaces.com/order\"; \
             declare namespace c=\"http://ournamespaces.com/customer\"; \
             for $ord in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order[lineitem/@price > 1000] \
             for $cust in db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/c:customer[c:nation = 1] \
             where $ord/custid = $cust/c:id \
             return $ord";
    // Indexes without namespace declarations: ineligible.
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    s.execute("CREATE INDEX c_nation ON customer(cdoc) USING XMLPATTERN '//nation' AS double")
        .unwrap();
    assert!(!uses_index(&s, q), "neither plain index is eligible (Section 3.7)");
    // The paper's fixed indexes.
    s.execute(
        "CREATE INDEX c_nation_ns2 ON customer(cdoc) USING XMLPATTERN '//*:nation' AS double",
    )
    .unwrap();
    s.execute("CREATE INDEX li_price_ns ON orders(orddoc) USING XMLPATTERN '//@price' AS double")
        .unwrap();
    assert!(uses_index(&s, q));
    assert_eq!(xquery(&s, q).len(), 1);
}

#[test]
fn query_29() {
    let mut s = SqlSession::new();
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute(
        "CREATE INDEX PRICE_TEXT ON orders(orddoc) USING XMLPATTERN '//price' AS varchar",
    )
    .unwrap();
    s.execute("INSERT INTO orders VALUES (1, '<order><lineitem><price>99.50</price></lineitem></order>')")
        .unwrap();
    s.execute(
        "INSERT INTO orders VALUES (2, '<order><date>January 1, 2003</date><lineitem><price>99.50<currency>USD</currency></price></lineitem></order>')",
    )
    .unwrap();
    let q = "for $ord in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order[lineitem/price/text() = \"99.50\"] return $ord";
    assert!(!uses_index(&s, q), "the index and query do not match (Section 3.8)");
    // Both documents satisfy the text() predicate; using the element index
    // would have missed the mixed-content one (indexed as "99.50USD").
    assert_eq!(xquery(&s, q).len(), 2);
}

#[test]
fn query_30() {
    let mut s = fixture();
    s.execute("INSERT INTO orders VALUES (4, '<order><custid>1004</custid><lineitem price=\"120.00\"/></order>')")
        .unwrap();
    let q = "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
             //order[lineitem[@price>100 and @price<200]] return $i";
    let parsed = xqdb_xquery::parse_query(q).unwrap();
    let plan = plan_query(&s.catalog, parsed, &AnalysisEnv::new());
    assert!(
        xqdb_core::explain(&plan).contains("between-range"),
        "attribute between → single index scan"
    );
    let rows = xquery(&s, q);
    // 150.00 (order 1003) and 120.00 (order 1004).
    assert_eq!(rows.len(), 2);
}

/// The `structural prefilter:` and `twig join:` sections of a plain
/// EXPLAIN report, verbatim (empty when neither is printed).
fn structure_sections(report: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in report.lines() {
        if line == "  structural prefilter:" || line == "  twig join:" {
            inside = true;
        } else if !line.starts_with("    ") {
            inside = false;
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// XQuery inputs of the structure characterization: the paper suite, one
/// literal of each benchmark access shape, and the shapes where the
/// signature prefilter and the twig pattern deliberately differ.
const STRUCTURE_XQUERIES: &[(&str, &str)] = &[
    ("xq_access range", "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 997] return $i"),
    ("xq_access between", "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price > 0.5 and @price < 2.5]]/custid"),
    ("xq_access twig", "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price > 980]/remark]//custid"),
    ("xq_access prefilter", "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[promo/code = \"P0\"]/custid"),
    ("xq_access decoy", "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 997]/product/id"),
    ("for-var uses", "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where $o/custid = 7 and $o//status return $o"),
    ("filter-init predicate", "db2-fn:xmlcolumn('ORDERS.ORDDOC')[order/promo]//x"),
    ("descendant axis", "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/descendant::remark"),
];

/// SQL inputs of the structure characterization: the `sql_lifecycle`
/// `XMLEXISTS` shapes and the PASSING twins of the divergence cases.
const STRUCTURE_SQL: &[(&str, &str)] = &[
    ("sql_lifecycle range", "SELECT ordid FROM orders WHERE XMLEXISTS('$o//lineitem[@price > 100]' passing orddoc as \"o\")"),
    ("sql_lifecycle between", "SELECT ordid FROM orders WHERE XMLEXISTS('$o//lineitem[@price > 100 and @price < 200]' passing orddoc as \"o\")"),
    ("sql for-var uses", "SELECT ordid FROM orders WHERE XMLEXISTS('for $x in $o/order where $x/custid = 7 and $x//status return $x' passing orddoc as \"o\")"),
    ("sql query_17 twin", "SELECT ordid FROM orders WHERE XMLEXISTS('for $doc in $o for $item in $doc//lineitem[@price > 100] return $item' passing orddoc as \"o\")"),
    ("sql query_21 twin", "SELECT ordid FROM orders WHERE XMLEXISTS('for $ord in $o/order let $price := $ord/lineitem/@price where $price > 100 return $ord' passing orddoc as \"o\")"),
    ("sql filter-init predicate", "SELECT ordid FROM orders WHERE XMLEXISTS('$o[order/promo]//x' passing orddoc as \"o\")"),
    ("sql two conjuncts", "SELECT ordid FROM orders WHERE XMLEXISTS('$o/order[custid]//lineitem' passing orddoc as \"o\") AND XMLEXISTS('$o/order/promo//code' passing orddoc as \"o\")"),
];

/// Expected structure sections, one per input above (paper queries first,
/// in `PAPER_QUERIES` order).
const STRUCTURE_EXPECTED: &[(&str, &str)] = &[
    ("query_01", "  twig join:\n    - ORDERS.ORDDOC: matches //order[/lineitem[/@price]]\n"),
    ("query_02", "  twig join:\n    - ORDERS.ORDDOC: matches //order[/lineitem]\n"),
    ("query_03", "  twig join:\n    - ORDERS.ORDDOC: matches //order[/lineitem[/@price]]\n"),
    ("query_04", "  structural prefilter:\n    - CUSTOMER.CDOC: requires /customer & /customer/id\n    - ORDERS.ORDDOC: requires /order & /order/custid\n"),
    ("query_07", "  twig join:\n    - ORDERS.ORDDOC: matches //lineitem[/@price]\n"),
    ("query_17", ""),
    ("query_18", ""),
    ("query_19", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order\n"),
    ("query_20", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order & /order/lineitem/@price\n"),
    ("query_21", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order & /order/lineitem/@price\n"),
    ("query_22", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order\n"),
    ("query_23", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order/lineitem\n"),
    ("query_24", ""),
    ("query_26", ""),
    ("query_27", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order/lineitem & /order/lineitem/product/id\n"),
    ("query_30", "  twig join:\n    - ORDERS.ORDDOC: matches //order[/lineitem[/@price][/@price]]\n"),
    ("xq_access range", "  twig join:\n    - ORDERS.ORDDOC: matches //order[/lineitem[/@price]]\n"),
    ("xq_access between", "  twig join:\n    - ORDERS.ORDDOC: matches //order[/lineitem[/@price][/@price]][/custid]\n"),
    ("xq_access twig", "  twig join:\n    - ORDERS.ORDDOC: matches //order[/lineitem[/@price][/remark]][//custid]\n"),
    ("xq_access prefilter", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order/promo/code & /order/custid\n  twig join:\n    - ORDERS.ORDDOC: matches /order[/promo[/code]][/custid]\n"),
    ("xq_access decoy", "  twig join:\n    - ORDERS.ORDDOC: matches //lineitem[/@price][/product[/id]]\n"),
    ("for-var uses", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order & /order/custid\n"),
    ("filter-init predicate", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order/promo\n  twig join:\n    - ORDERS.ORDDOC: matches //x\n"),
    ("descendant axis", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order\n  twig join:\n    - ORDERS.ORDDOC: matches /order[//remark]\n"),
    ("sql_lifecycle range", "  twig join:\n    - ORDERS.ORDDOC: matches //lineitem[/@price]\n"),
    ("sql_lifecycle between", "  twig join:\n    - ORDERS.ORDDOC: matches //lineitem[/@price][/@price]\n"),
    ("sql for-var uses", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order & /order/custid\n"),
    ("sql query_17 twin", ""),
    ("sql query_21 twin", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order & /order/lineitem/@price\n"),
    ("sql filter-init predicate", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order/promo\n  twig join:\n    - ORDERS.ORDDOC: matches //x\n"),
    ("sql two conjuncts", "  structural prefilter:\n    - ORDERS.ORDDOC: requires /order/custid & /order AND /order/promo\n  twig join:\n    - ORDERS.ORDDOC: matches /order[/custid][//lineitem] AND /order[/promo[//code]]\n"),
];

/// Characterization: the structure lines of plain EXPLAIN for every input
/// above stay exactly as recorded. They are where the signature prefilter
/// and the twig pattern differ on purpose (`for`-variable uses, `let` over
/// a `for` path, filter predicates on the collection, descendant steps),
/// so any change to structural extraction shows up here first.
#[test]
fn explain_structure_lines_are_pinned() {
    let mut s = common::paper_session(true);
    let mut got: Vec<(String, String)> = Vec::new();
    let xqueries = common::PAPER_QUERIES.iter().chain(STRUCTURE_XQUERIES);
    for (label, q) in xqueries {
        let plan =
            plan_query(&s.catalog, xqdb_xquery::parse_query(q).unwrap(), &AnalysisEnv::new());
        got.push((label.to_string(), structure_sections(&xqdb_core::explain(&plan))));
    }
    for (label, q) in STRUCTURE_SQL {
        let report = s.execute(&format!("EXPLAIN {q}")).unwrap().message.unwrap();
        got.push((label.to_string(), structure_sections(&report)));
    }
    let rendered: String = got.iter().map(|(l, g)| format!("    ({l:?}, {g:?}),\n")).collect();
    assert_eq!(got.len(), STRUCTURE_EXPECTED.len(), "got:\n{rendered}");
    for ((label, g), (want_label, want)) in got.iter().zip(STRUCTURE_EXPECTED) {
        assert_eq!(label, want_label);
        assert_eq!(g, want, "{label}");
    }
}
