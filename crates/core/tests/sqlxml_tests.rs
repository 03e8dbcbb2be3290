//! SQL/XML end-to-end tests reproducing Queries 5–16 of the paper
//! (Sections 3.2 and 3.3): result shapes, NULL/empty behavior, XMLCAST
//! failure modes, and index-eligibility decisions per formulation.

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use xqdb_core::sqlxml::{Scalar, SqlSession};
use xqdb_xdm::ErrorCode;

fn session_with_paper_schema() -> SqlSession {
    let mut s = SqlSession::new();
    s.execute("create table customer (cid integer, cdoc XML)").unwrap();
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute("create table products (id varchar(13), name varchar(32))").unwrap();
    s
}

fn load_orders(s: &mut SqlSession, docs: &[&str]) {
    for (i, d) in docs.iter().enumerate() {
        s.execute(&format!("INSERT INTO orders VALUES ({}, '{}')", i + 1, d.replace('\'', "''")))
            .unwrap();
    }
}

const DOCS: &[&str] = &[
    r#"<order><custid>7</custid><lineitem price="99.50"><product><id>p1</id></product></lineitem></order>"#,
    r#"<order><custid>8</custid><lineitem price="250.00"><product><id>p2</id></product></lineitem><lineitem price="150.00"><product><id>p3</id></product></lineitem></order>"#,
    r#"<order><custid>9</custid><lineitem price="50.00"><product><id>p4</id></product></lineitem></order>"#,
];

// -------------------------------------------------- Section 3.2

#[test]
fn query_5_xmlquery_in_select_returns_all_rows() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    let r = s
        .execute(
            "SELECT XMLQuery('$order//lineitem[@price > 100]' passing orddoc as \"order\") FROM orders",
        )
        .unwrap();
    // One row per orders row; non-qualifying rows carry an empty sequence.
    assert_eq!(r.rows.len(), 3);
    let rendered: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
    assert_eq!(rendered[0], "()");
    assert!(rendered[1].contains("250.00") && rendered[1].contains("150.00"));
    assert_eq!(rendered[2], "()");
}

#[test]
fn query_5_index_not_eligible_but_query_8_is() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    // Query 5: select-list XMLQUERY — no probe, and a note explains why.
    let r = s
        .execute(
            "EXPLAIN SELECT XMLQuery('$order//lineitem[@price > 100]' passing orddoc as \"order\") FROM orders",
        )
        .unwrap();
    let plan = r.message.unwrap();
    assert!(plan.contains("TABLE SCAN"), "{plan}");
    assert!(plan.contains("non-filtering"), "{plan}");
    // Query 8: XMLEXISTS — probe.
    let r = s
        .execute(
            "EXPLAIN SELECT ordid, orddoc FROM orders \
             WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as \"order\")",
        )
        .unwrap();
    let plan = r.message.unwrap();
    assert!(plan.contains("PROBE LI_PRICE"), "{plan}");
}

#[test]
fn query_8_returns_qualifying_rows() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    let r = s
        .execute(
            "SELECT ordid, orddoc FROM orders \
             WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as \"order\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(matches!(r.rows[0][0], Scalar::Integer(2)));
    // The index actually pre-filtered the scan.
    assert_eq!(r.stats.docs_evaluated.get("ORDERS"), Some(&1));
    assert!(r.stats.index_entries_scanned > 0);
}

#[test]
fn xmlexists_on_one_alias_of_a_self_join_leaves_the_other_whole() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    // The index narrows alias `a` to order 2; alias `b` ranges over all
    // three orders.
    let r = s
        .execute(
            "SELECT a.ordid, b.ordid FROM orders a, orders b \
             WHERE XMLExists('$x//lineitem[@price > 200]' passing a.orddoc as \"x\")",
        )
        .unwrap();
    let pairs: Vec<String> =
        r.rows.iter().map(|row| format!("{}-{}", row[0].render(), row[1].render())).collect();
    assert_eq!(pairs, ["2-1", "2-2", "2-3"]);
}

#[test]
fn query_9_boolean_xmlexists_returns_every_row() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    // The pitfall: a boolean-valued XQuery is never empty, so XMLEXISTS is
    // constant-true and ALL rows come back.
    let r = s
        .execute(
            "SELECT ordid, orddoc FROM orders \
             WHERE XMLExists('$order//lineitem/@price > 100' passing orddoc as \"order\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3, "Query 9 must not eliminate any rows");
    // EXPLAIN carries the warning.
    let r = s
        .execute(
            "EXPLAIN SELECT ordid, orddoc FROM orders \
             WHERE XMLExists('$order//lineitem/@price > 100' passing orddoc as \"order\")",
        )
        .unwrap();
    let plan = r.message.unwrap();
    assert!(plan.contains("boolean"), "{plan}");
}

#[test]
fn query_6_values_returns_single_row() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    let r = s
        .execute(
            "VALUES (XMLQuery('db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")//lineitem[@price > 100]'))",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let xml = r.rows[0][0].render();
    assert!(xml.contains("250.00") && xml.contains("150.00"));
}

#[test]
fn query_10_xmlquery_plus_xmlexists() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    let r = s
        .execute(
            "SELECT ordid, XMLQuery('$order//lineitem[@price > 100]' passing orddoc as \"order\") \
             FROM orders \
             WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as \"order\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(r.rows[0][1].render().contains("250.00"));
}

#[test]
fn query_11_xmltable_returns_one_row_per_lineitem() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    let r = s
        .execute(
            "SELECT o.ordid, t.lineitem \
             FROM orders o, XMLTable('$order//lineitem[@price > 100]' \
                passing o.orddoc as \"order\" \
                COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)",
        )
        .unwrap();
    // Two qualifying lineitems, both in order 2.
    assert_eq!(r.rows.len(), 2);
    assert!(matches!(r.rows[0][0], Scalar::Integer(2)));
    assert!(matches!(r.rows[1][0], Scalar::Integer(2)));
    // Row-producer predicates are index-eligible.
    let r = s
        .execute(
            "EXPLAIN SELECT o.ordid, t.lineitem \
             FROM orders o, XMLTable('$order//lineitem[@price > 100]' \
                passing o.orddoc as \"order\" \
                COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)",
        )
        .unwrap();
    let plan = r.message.unwrap();
    assert!(plan.contains("PROBE LI_PRICE"), "{plan}");
}

#[test]
fn query_12_column_predicates_null_and_no_index() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    let r = s
        .execute(
            "SELECT o.ordid, t.lineitem, t.price \
             FROM orders o, XMLTable('$order//lineitem' passing o.orddoc as \"order\" \
                COLUMNS \"lineitem\" XML BY REF PATH '.', \
                        \"price\" DECIMAL(6,3) PATH '@price[. > 100]') as t(lineitem, price)",
        )
        .unwrap();
    // One row per lineitem (4 lineitems total); non-qualifying prices NULL.
    assert_eq!(r.rows.len(), 4);
    let prices: Vec<String> = r.rows.iter().map(|row| row[2].render()).collect();
    assert_eq!(prices, vec!["NULL", "250", "150", "NULL"]);
    // Column-expression predicate is NOT index eligible; note explains.
    let r = s
        .execute(
            "EXPLAIN SELECT o.ordid, t.price \
             FROM orders o, XMLTable('$order//lineitem' passing o.orddoc as \"order\" \
                COLUMNS \"price\" DECIMAL(6,3) PATH '@price[. > 100]') as t(price)",
        )
        .unwrap();
    let plan = r.message.unwrap();
    assert!(plan.contains("TABLE SCAN"), "{plan}");
    assert!(plan.contains("XMLTABLE column expression"), "{plan}");
}

// -------------------------------------------------- Section 3.3: joins

fn load_products(s: &mut SqlSession) {
    s.execute("INSERT INTO products VALUES ('p1', 'widget')").unwrap();
    s.execute("INSERT INTO products VALUES ('p2', 'gadget')").unwrap();
    s.execute("INSERT INTO products VALUES ('p3', 'gizmo')").unwrap();
}

#[test]
fn query_13_xquery_side_join() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    load_products(&mut s);
    let r = s
        .execute(
            "SELECT p.name, XMLQuery('$order//lineitem' passing o.orddoc as \"order\") \
             FROM products p, orders o \
             WHERE XMLExists('$order//lineitem/product[id eq $pid]' \
                passing o.orddoc as \"order\", p.id as \"pid\")",
        )
        .unwrap();
    // p1 ⋈ order1, p2 ⋈ order2, p3 ⋈ order2.
    assert_eq!(r.rows.len(), 3);
    let names: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
    assert_eq!(names, vec!["widget", "gadget", "gizmo"]);
}

#[test]
fn query_14_xmlcast_singleton_failure() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    load_products(&mut s);
    // Order 2 has two lineitem product ids: XMLCAST raises a cardinality
    // error where Query 13 succeeded.
    let err = s
        .execute(
            "SELECT p.name FROM products p, orders o \
             WHERE p.id = XMLCast(XMLQuery('$order//lineitem/product/id' \
                passing o.orddoc as \"order\") as VARCHAR(13))",
        )
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::SqlCardinality);
}

#[test]
fn query_14_xmlcast_length_failure() {
    let mut s = session_with_paper_schema();
    load_orders(
        &mut s,
        &[r#"<order><lineitem><product><id>a-very-long-product-id</id></product></lineitem></order>"#],
    );
    load_products(&mut s);
    let err = s
        .execute(
            "SELECT p.name FROM products p, orders o \
             WHERE p.id = XMLCast(XMLQuery('$order//lineitem/product/id' \
                passing o.orddoc as \"order\") as VARCHAR(13))",
        )
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::SqlLength);
}

#[test]
fn query_14_works_on_singletons() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, &[DOCS[0], DOCS[2]]); // single-lineitem orders only
    load_products(&mut s);
    let r = s
        .execute(
            "SELECT p.name FROM products p, orders o \
             WHERE p.id = XMLCast(XMLQuery('$order//lineitem/product/id' \
                passing o.orddoc as \"order\") as VARCHAR(13))",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1); // p1 ⋈ order 1 (p4 is not in products)
    assert_eq!(r.rows[0][0].render(), "widget");
}

#[test]
fn sql_trailing_blank_semantics_vs_xquery() {
    let mut s = session_with_paper_schema();
    // SQL comparison pads: 'p1' = 'p1   ' is TRUE.
    s.execute("INSERT INTO products VALUES ('p1', 'widget')").unwrap();
    load_orders(
        &mut s,
        &[r#"<order><lineitem><product><id>p1   </id></product></lineitem></order>"#],
    );
    let r = s
        .execute(
            "SELECT p.name FROM products p, orders o \
             WHERE p.id = XMLCast(XMLQuery('$order//lineitem/product/id' \
                passing o.orddoc as \"order\") as VARCHAR(13))",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1, "SQL ignores trailing blanks");
    // The XQuery-side join is exact: no match.
    let r = s
        .execute(
            "SELECT p.name FROM products p, orders o \
             WHERE XMLExists('$order//lineitem/product[id eq $pid]' \
                passing o.orddoc as \"order\", p.id as \"pid\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 0, "XQuery comparison is blank-sensitive");
}

#[test]
fn query_15_sql_side_xml_join_errors_without_cast() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    let cust = r#"<customer><id>7</id><name>ACME</name></customer>"#;
    s.execute(&format!("INSERT INTO customer VALUES (1, '{cust}')")).unwrap();
    // Comparing raw XML values with SQL `=` is a type error (Tip 6 area).
    let err = s
        .execute(
            "SELECT c.cid FROM orders o, customer c WHERE o.orddoc = c.cdoc",
        )
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::SqlType);
    // Query 15's XMLCAST form works.
    let r = s
        .execute(
            "SELECT c.cid, XMLQuery('$order//lineitem' passing o.orddoc as \"order\") \
             FROM orders o, customer c \
             WHERE XMLCast(XMLQuery('$order/order/custid' passing o.orddoc as \"order\") as DOUBLE) \
                 = XMLCast(XMLQuery('$cust/customer/id' passing c.cdoc as \"cust\") as DOUBLE)",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn query_16_xquery_side_join_between_xml_columns() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    for (i, cust) in [
        r#"<customer><id>7</id><name>ACME</name></customer>"#,
        r#"<customer><id>8</id><name>Globex</name></customer>"#,
    ]
    .iter()
    .enumerate()
    {
        s.execute(&format!("INSERT INTO customer VALUES ({}, '{cust}')", i + 1)).unwrap();
    }
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

// -------------------------------------------------- misc SQL machinery

#[test]
fn select_star_and_projection() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, &[DOCS[0]]);
    let r = s.execute("SELECT * FROM orders").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].len(), 2);
    let r = s.execute("SELECT ordid FROM orders WHERE ordid = 1").unwrap();
    assert_eq!(r.columns, vec!["ORDID"]);
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn null_semantics_in_where() {
    let mut s = session_with_paper_schema();
    s.execute("INSERT INTO orders VALUES (1, NULL)").unwrap();
    // NULL comparisons are UNKNOWN → row filtered.
    let r = s.execute("SELECT ordid FROM orders WHERE ordid = 1").unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = s
        .execute("SELECT ordid FROM orders WHERE XMLCast(XMLQuery('1+1') as INTEGER) = 3")
        .unwrap();
    assert_eq!(r.rows.len(), 0);
}

#[test]
fn xmlexists_over_null_document() {
    let mut s = session_with_paper_schema();
    s.execute("INSERT INTO orders VALUES (1, NULL)").unwrap();
    let r = s
        .execute(
            "SELECT ordid FROM orders \
             WHERE XMLExists('$order/order' passing orddoc as \"order\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 0);
}

#[test]
fn insert_parses_xml_strings() {
    let mut s = session_with_paper_schema();
    assert!(s.execute("INSERT INTO orders VALUES (1, '<order/>')").is_ok());
    let err = s.execute("INSERT INTO orders VALUES (2, '<order')").unwrap_err();
    assert_eq!(err.code, ErrorCode::XPST0003);
}

#[test]
fn explain_renders_rejections() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    // String predicate: the double index is rejected with a reason.
    let r = s
        .execute(
            "EXPLAIN SELECT ordid FROM orders \
             WHERE XMLExists('$o//lineitem[@price > \"100\"]' passing orddoc as \"o\")",
        )
        .unwrap();
    let plan = r.message.unwrap();
    assert!(plan.contains("rejected candidates"), "{plan}");
    assert!(plan.contains("cannot serve a varchar comparison"), "{plan}");
}

#[test]
fn xmltable_lateral_over_join() {
    // XMLTABLE may reference any earlier FROM item (implied lateral join).
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    let r = s
        .execute(
            "SELECT o.ordid, c.cid, t.pid \
             FROM orders o, customer c, \
                  XMLTable('$o//product/id' passing o.orddoc as \"o\" \
                    COLUMNS \"pid\" VARCHAR(13) PATH '.') as t(pid) \
             WHERE c.cid = 1",
        );
    // No customers loaded: zero rows but a valid plan.
    assert_eq!(r.unwrap().rows.len(), 0);
    s.execute("INSERT INTO customer VALUES (1, '<customer><id>9</id></customer>')")
        .unwrap();
    let r = s
        .execute(
            "SELECT o.ordid, c.cid, t.pid \
             FROM orders o, customer c, \
                  XMLTable('$o//product/id' passing o.orddoc as \"o\" \
                    COLUMNS \"pid\" VARCHAR(13) PATH '.') as t(pid) \
             WHERE c.cid = 1",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 4, "one row per product id across all orders");
}

#[test]
fn between_function_explains_in_sql() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    let plan = s
        .execute(
            "EXPLAIN SELECT ordid FROM orders \
             WHERE XMLExists('$o//lineitem[db2-fn:between(@price, 100, 200)]' passing orddoc as \"o\")",
        )
        .unwrap()
        .message
        .unwrap();
    assert!(plan.contains("between-range"), "{plan}");
    let r = s
        .execute(
            "SELECT ordid FROM orders \
             WHERE XMLExists('$o//lineitem[db2-fn:between(@price, 100, 200)]' passing orddoc as \"o\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1); // the 150.00 lineitem in order 2
}

#[test]
fn xmlexists_join_predicate_does_not_probe_wrongly() {
    // Passing variables from TWO tables: the analyzer must not emit a
    // bogus single-table probe for the join predicate.
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    s.execute("INSERT INTO customer VALUES (1, '<customer><id>7</id></customer>')")
        .unwrap();
    s.execute(
        "CREATE INDEX o_custid ON orders(orddoc) USING XMLPATTERN '//custid' AS double",
    )
    .unwrap();
    let r = s
        .execute(
            "SELECT c.cid FROM orders o, customer c \
             WHERE XMLExists('$o/order[custid/xs:double(.) = $c/customer/id/xs:double(.)]' \
                passing o.orddoc as \"o\", c.cdoc as \"c\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1, "order with custid 7 joins the customer");
}

#[test]
fn select_aliases_and_rendering() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, &[DOCS[0]]);
    let r = s
        .execute("SELECT ordid AS id, XMLQuery('1+1') AS two FROM orders")
        .unwrap();
    assert_eq!(r.columns, vec!["ID", "TWO"]);
    let rendered = r.render();
    assert!(rendered.contains("row 1: 1 | 2"), "{rendered}");
}

#[test]
fn multiple_xml_predicates_intersect() {
    let mut s = session_with_paper_schema();
    load_orders(&mut s, DOCS);
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    s.execute("CREATE INDEX o_custid ON orders(orddoc) USING XMLPATTERN '//custid' AS double")
        .unwrap();
    // Two XMLEXISTS conjuncts on the same table: both probed, intersected.
    let plan = s
        .execute(
            "EXPLAIN SELECT ordid FROM orders \
             WHERE XMLExists('$o//lineitem[@price > 100]' passing orddoc as \"o\") \
               AND XMLExists('$o/order[custid = 8]' passing orddoc as \"o\")",
        )
        .unwrap()
        .message
        .unwrap();
    assert!(plan.contains("AND("), "{plan}");
    assert!(plan.contains("LI_PRICE") && plan.contains("O_CUSTID"), "{plan}");
    let r = s
        .execute(
            "SELECT ordid FROM orders \
             WHERE XMLExists('$o//lineitem[@price > 100]' passing orddoc as \"o\") \
               AND XMLExists('$o/order[custid = 8]' passing orddoc as \"o\")",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(matches!(r.rows[0][0], Scalar::Integer(2)));
}

// -------------------------------------------------- column-masked decode
//
// Row fetches decode only the columns a statement names. These pin the
// results of the statement shapes whose column sets are easiest to get
// wrong: every column (`*`), one table under two aliases, columns reached
// only through PASSING, qualified next to unqualified references, a SET
// reading another column, and a mixed XML/scalar DML predicate.

fn masked_session() -> SqlSession {
    let mut s = SqlSession::new();
    s.execute("create table t (id integer, a varchar(8), b varchar(8), doc XML)").unwrap();
    for (id, a, b, k) in [(1, "a1", "b1", 1), (2, "a2", "b2", 5), (3, "a3", "b3", 9)] {
        let doc = format!("<r k=\"{k}\"><v>{id}</v></r>");
        s.execute(&format!("INSERT INTO t VALUES ({id}, '{a}', '{b}', '{doc}')")).unwrap();
    }
    s
}

#[test]
fn masked_select_star_returns_every_column() {
    let mut s = masked_session();
    let r = s.execute("SELECT * FROM t WHERE id = 2").unwrap();
    assert_eq!(r.columns, ["ID", "A", "B", "DOC"]);
    assert_eq!(r.render(), "row 1: 2 | a2 | b2 | <r k=\"5\"><v>2</v></r>\n");
}

#[test]
fn masked_self_join_decodes_the_union_of_both_aliases_columns() {
    let mut s = masked_session();
    // `x` needs ID and DOC, `y` needs ID and B: one table, one mask.
    let r = s
        .execute(
            "SELECT x.id, y.b FROM t x, t y \
             WHERE x.id = y.id AND XMLExists('$d/r[@k > 2]' passing x.doc as \"d\")",
        )
        .unwrap();
    assert_eq!(r.render(), "row 1: 2 | b2\nrow 2: 3 | b3\n");
}

#[test]
fn masked_xmltable_reads_the_column_named_only_in_passing() {
    let mut s = masked_session();
    let r = s
        .execute(
            "SELECT t.a, x.v FROM t, XMLTable('$d/r[@k >= 5]' passing doc as \"d\" \
                COLUMNS v INTEGER PATH 'v') as x(v)",
        )
        .unwrap();
    assert_eq!(r.render(), "row 1: a2 | 2\nrow 2: a3 | 3\n");
    // XMLQUERY's PASSING in the select list likewise.
    let r = s
        .execute("SELECT id, XMLQuery('$d/r/@k' passing t.doc as \"d\") FROM t WHERE a = 'a3'")
        .unwrap();
    assert_eq!(r.render(), "row 1: 3 | 9\n");
}

#[test]
fn masked_qualified_and_unqualified_references_resolve_alike() {
    let mut s = masked_session();
    let r = s.execute("SELECT t.a, b FROM t WHERE t.id > 1 AND b <> 'b3'").unwrap();
    assert_eq!(r.render(), "row 1: a2 | b2\n");
    assert_eq!(r.stats.xml_docs_parsed, 0, "no XML column is named");
    let r = s.execute("SELECT a FROM t x WHERE X.ID = 1").unwrap();
    assert_eq!(r.render(), "row 1: a1\n");
}

#[test]
fn masked_update_set_reads_another_column_of_the_old_row() {
    let mut s = masked_session();
    let r = s.execute("UPDATE t SET a = b WHERE id = 2").unwrap();
    assert_eq!(r.message.as_deref(), Some("1 row(s) updated"));
    let r = s.execute("SELECT * FROM t").unwrap();
    assert_eq!(
        r.render(),
        "row 1: 1 | a1 | b1 | <r k=\"1\"><v>1</v></r>\n\
         row 2: 2 | b2 | b2 | <r k=\"5\"><v>2</v></r>\n\
         row 3: 3 | a3 | b3 | <r k=\"9\"><v>3</v></r>\n"
    );
}

#[test]
fn masked_delete_with_xmlexists_and_scalar_where() {
    let mut s = masked_session();
    let r = s
        .execute("DELETE FROM t WHERE XMLExists('$d/r[@k > 2]' passing doc as \"d\") AND id < 3")
        .unwrap();
    assert_eq!(r.message.as_deref(), Some("1 row(s) deleted"));
    let r = s.execute("SELECT id, a FROM t").unwrap();
    assert_eq!(r.render(), "row 1: 1 | a1\nrow 2: 3 | a3\n");
}

#[test]
fn a_column_left_out_of_the_mask_is_absent_not_null() {
    // `WHERE b IS NULL`-style logic must never see a skipped column as
    // NULL: naming a column the table lacks still fails loudly.
    let mut s = masked_session();
    let err = s.execute("SELECT a FROM t WHERE nope = 1").unwrap_err();
    assert_eq!(err.code, ErrorCode::SqlType);
    assert!(err.to_string().contains("unknown column NOPE"), "{err}");
}

// ------------------------------------------ the scalar filter vs. a scan
//
// A `column op literal` conjunct over an INTEGER column is decided from the
// table's in-memory cells before any row is fetched. Each query below is
// checked against an oracle written here: a plain `Table::scan` with the
// WHERE evaluated per row by the SQL rule (`sql_compare`, `CompareOp::test`,
// three-valued AND/OR/NOT), and the result must match row for row.

use std::cmp::Ordering;

use xqdb_storage::{sql_compare, SqlValue};
use xqdb_xdm::compare::CompareOp;

/// `T(id, n, doc)`: `n` is NULL on every fifth row, `doc` is `<r k="…"/>`;
/// rows 3 and 11 are deleted and row 6 is updated, so the cells have been
/// maintained, not just appended. An index on `//r/@k` serves XMLEXISTS.
fn scalar_session() -> SqlSession {
    let mut s = SqlSession::new();
    s.execute("create table t (id integer, n integer, doc XML)").unwrap();
    s.execute("create table u (n integer)").unwrap();
    s.execute("CREATE INDEX r_k ON t(doc) USING XMLPATTERN '//r/@k' AS double").unwrap();
    for i in 0..16i64 {
        let n = if i % 5 == 4 { "NULL".to_string() } else { (i % 7).to_string() };
        s.execute(&format!("INSERT INTO t VALUES ({i}, {n}, '<r k=\"{}\"/>')", i * 10)).unwrap();
    }
    s.execute("INSERT INTO u VALUES (3)").unwrap();
    s.execute("DELETE FROM t WHERE id = 3").unwrap();
    s.execute("DELETE FROM t WHERE 11 = id").unwrap();
    s.execute("UPDATE t SET n = 2 WHERE id = 6").unwrap();
    s
}

type Row = [SqlValue];

/// The SQL comparison of `a op b` in three-valued logic.
fn cmp3(a: &SqlValue, op: CompareOp, b: &SqlValue) -> Option<bool> {
    let ord: Option<Ordering> = sql_compare(a, b).unwrap();
    ord.map(|o| op.test(Some(o)))
}

fn n_cmp(op: CompareOp, lit: SqlValue) -> impl Fn(&Row) -> Option<bool> {
    move |r| cmp3(&r[1], op, &lit)
}

fn lit_cmp(lit: SqlValue, op: CompareOp) -> impl Fn(&Row) -> Option<bool> {
    move |r| cmp3(&lit, op, &r[1])
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// The `k` attribute of a row's `<r k="…"/>` document.
fn k_of(r: &Row) -> f64 {
    let SqlValue::Xml(doc) = &r[2] else { panic!("row without a document") };
    let el = doc.children().next().unwrap();
    let k = el.attributes().next().unwrap().string_value();
    k.parse().unwrap()
}

/// The ids the oracle keeps: every live row of `T`, scanned, for which
/// `pred` is TRUE.
fn oracle_ids(s: &SqlSession, pred: &dyn Fn(&Row) -> Option<bool>) -> Vec<String> {
    let t = s.catalog.db.table("T").unwrap();
    let mut ids = Vec::new();
    for item in t.scan() {
        let (_, row) = item.unwrap();
        if pred(&row) == Some(true) {
            let SqlValue::Integer(id) = row[0] else { panic!("id is an integer") };
            ids.push(id.to_string());
        }
    }
    ids
}

fn ids(r: &xqdb_core::SqlResult) -> Vec<String> {
    r.rows.iter().map(|row| row[0].render()).collect()
}

#[test]
fn scalar_filter_matches_a_full_scan_oracle() {
    use CompareOp::*;
    use SqlValue::{Double, Integer};
    let mut s = scalar_session();
    // (WHERE, oracle, whether the scalar filter narrows the statement)
    type Case = (&'static str, Box<dyn Fn(&Row) -> Option<bool>>, bool);
    let cases: Vec<Case> = vec![
        ("n = 3", Box::new(n_cmp(Eq, Integer(3))), true),
        ("n < 3", Box::new(n_cmp(Lt, Integer(3))), true),
        ("n <= 3", Box::new(n_cmp(Le, Integer(3))), true),
        ("n > 3", Box::new(n_cmp(Gt, Integer(3))), true),
        ("n >= 3", Box::new(n_cmp(Ge, Integer(3))), true),
        ("3 = n", Box::new(lit_cmp(Integer(3), Eq)), true),
        ("3 < n", Box::new(lit_cmp(Integer(3), Lt)), true),
        ("3 <= n", Box::new(lit_cmp(Integer(3), Le)), true),
        ("3 > n", Box::new(lit_cmp(Integer(3), Gt)), true),
        ("3 >= n", Box::new(lit_cmp(Integer(3), Ge)), true),
        ("n = 1.5", Box::new(n_cmp(Eq, Double(1.5))), true),
        ("n > 2.5", Box::new(n_cmp(Gt, Double(2.5))), true),
        ("2.0 >= n", Box::new(lit_cmp(Double(2.0), Ge)), true),
        ("t.n <= 1 AND n >= 1", Box::new(|r: &Row| {
            and3(n_cmp(Le, Integer(1))(r), n_cmp(Ge, Integer(1))(r))
        }), true),
        ("n > 0 AND id < 9", Box::new(|r: &Row| {
            and3(n_cmp(Gt, Integer(0))(r), cmp3(&r[0], Lt, &Integer(9)))
        }), true),
        // `<>` is never narrowed; OR and NOT are not top-level conjuncts.
        ("n <> 3", Box::new(n_cmp(Ne, Integer(3))), false),
        ("n = 3 OR n = 5", Box::new(|r: &Row| {
            or3(n_cmp(Eq, Integer(3))(r), n_cmp(Eq, Integer(5))(r))
        }), false),
        ("NOT n = 3", Box::new(|r: &Row| n_cmp(Eq, Integer(3))(r).map(|b| !b)), false),
        ("NOT (n < 3 AND id > 2)", Box::new(|r: &Row| {
            and3(n_cmp(Lt, Integer(3))(r), cmp3(&r[0], Gt, &Integer(2))).map(|b| !b)
        }), false),
        ("n = NULL", Box::new(|_: &Row| None), false),
        // Combined with an indexed XMLEXISTS: both narrow, and intersect.
        (
            "n >= 2 AND XMLEXISTS('$d/r[@k > 55]' passing doc as \"d\")",
            Box::new(|r: &Row| and3(n_cmp(Ge, Integer(2))(r), Some(k_of(r) > 55.0))),
            true,
        ),
    ];
    for (cond, oracle, narrows) in &cases {
        let q = format!("SELECT id FROM t WHERE {cond}");
        let got = s.execute(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
        assert_eq!(ids(&got), oracle_ids(&s, oracle.as_ref()), "{q}");
        let plan = s.execute(&format!("EXPLAIN {q}")).unwrap().message.unwrap();
        assert_eq!(plan.contains("SCALAR FILTER T.N"), *narrows, "{q}:\n{plan}");
        if *narrows {
            assert!(got.stats.scalar_rows_skipped > 0, "{q}: the filter ran");
            // Without an XMLEXISTS, the filter is the only stage: each of
            // the 14 live rows is either skipped by it or fetched.
            let fetched_or_skipped =
                got.stats.docs_evaluated_total() + got.stats.scalar_rows_skipped;
            if cond.contains("XMLEXISTS") {
                assert!(fetched_or_skipped < 14, "{q}: the probe narrows further");
            } else {
                assert_eq!(fetched_or_skipped, 14, "{q}");
            }
        } else {
            assert_eq!(got.stats.scalar_rows_skipped, 0, "{q}");
        }
        // DML matching takes the same path: an UPDATE that rewrites `id`
        // to itself must touch exactly the rows the SELECT returned.
        let upd = s.execute(&format!("UPDATE t SET id = id WHERE {cond}")).unwrap();
        assert_eq!(
            upd.message,
            Some(format!("{} row(s) updated", got.rows.len())),
            "UPDATE WHERE {cond}"
        );
    }
    let plan = s.execute("EXPLAIN SELECT id FROM t WHERE 3 > n").unwrap().message.unwrap();
    assert!(plan.contains("  table T (alias T): SCALAR FILTER T.N < 3\n"), "{plan}");
    assert!(!plan.contains("TABLE SCAN"), "{plan}");

    // Cells follow DML: a range DELETE, then the same ranges again.
    let before = oracle_ids(&s, &n_cmp(Lt, Integer(2)));
    let del = s.execute("DELETE FROM t WHERE 2 > n").unwrap();
    assert_eq!(del.message, Some(format!("{} row(s) deleted", before.len())));
    assert!(s.execute("SELECT id FROM t WHERE n < 2").unwrap().rows.is_empty());
    let got = s.execute("SELECT id FROM t WHERE n >= 2").unwrap();
    assert_eq!(ids(&got), oracle_ids(&s, &n_cmp(Ge, Integer(2))));
}

#[test]
fn scalar_filter_leaves_errors_to_the_where_evaluation() {
    let mut s = scalar_session();
    // A VARCHAR literal is not narrowed, and the comparison still fails.
    for q in ["SELECT id FROM t WHERE n = 'abc'", "SELECT id FROM t WHERE n = 1 AND n = 'abc'"] {
        let err = s.execute(q).unwrap_err();
        assert_eq!(err.code, ErrorCode::SqlType, "{q}: {err}");
    }
    // An unqualified column two FROM items provide is ambiguous, whether
    // both are the same table (a self-join) or two tables.
    for q in [
        "SELECT x.id FROM t x, t y WHERE n = 3",
        "SELECT id FROM t, u WHERE n = 3",
    ] {
        let err = s.execute(q).unwrap_err();
        assert_eq!(err.code, ErrorCode::SqlType, "{q}: {err}");
        assert!(err.to_string().contains("ambiguous column N"), "{q}: {err}");
    }
    // A qualified conjunct over one alias of a self-join is evaluated,
    // not narrowed: it says nothing about the other alias's rows.
    let q = "SELECT x.id FROM t x, t y WHERE x.n = 3 AND x.id = y.id";
    let r = s.execute(q).unwrap();
    assert_eq!(ids(&r), oracle_ids(&s, &n_cmp(CompareOp::Eq, SqlValue::Integer(3))), "{q}");
    assert_eq!(r.stats.scalar_rows_skipped, 0, "{q}");
    // Two different tables: `u.n` narrows U only, `t.n` narrows T only.
    let r = s.execute("SELECT t.id FROM t, u WHERE t.n = u.n AND u.n = 3").unwrap();
    assert_eq!(ids(&r), oracle_ids(&s, &n_cmp(CompareOp::Eq, SqlValue::Integer(3))));
    let plan = s
        .execute("EXPLAIN SELECT t.id FROM t, u WHERE t.n = u.n AND u.n = 3 AND t.n >= 3")
        .unwrap()
        .message
        .unwrap();
    assert!(plan.contains("table U (alias U): SCALAR FILTER U.N = 3"), "{plan}");
    assert!(plan.contains("table T (alias T): SCALAR FILTER T.N >= 3"), "{plan}");
}
