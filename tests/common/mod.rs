//! Shared integration-test fixtures: the paper's schema and example
//! documents (mirroring `paper_queries.rs`), plus the list of paper queries
//! that run to a value (as opposed to asserting a typed error). The chaos
//! matrix in `chaos_degradation.rs` iterates this list across fault seeds,
//! asserting byte-identity with the unindexed baseline. [`TempDir`] gives
//! durable tests a data directory that goes away when they pass.

// Shared between test binaries that each use a subset of it.
#![allow(dead_code)]
// Test fixture: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use xqdb_core::sqlxml::SqlSession;

/// A fresh data directory under `target/test-tmp`, removed when the guard
/// drops — unless the thread is panicking, so a failing test keeps its
/// files for inspection.
pub struct TempDir(PathBuf);

impl TempDir {
    /// A new, empty directory path named after `label`, unique per
    /// process and call. Nothing is created until a test writes there.
    pub fn new(label: &str) -> TempDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/test-tmp"))
            .join(format!(
                "{label}_{}_{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// The setup statements behind [`paper_session`], as a list: the paper's
/// schema plus its Section 2.2 example documents, extended with the
/// Query 30 order (custid 1004, price 120.00) so the between-range query
/// has two qualifying documents. Exposed as data so the crash-recovery
/// matrix in `chaos_recovery.rs` can cut the sequence at an arbitrary
/// statement and replay the durable prefix. With a durability hook
/// attached, each statement appends exactly one WAL record.
pub fn paper_setup_stmts(indexed: bool) -> Vec<String> {
    let mut stmts: Vec<String> = vec![
        "create table customer (cid integer, cdoc XML)".into(),
        "create table orders (ordid integer, orddoc XML)".into(),
        "create table products (id varchar(13), name varchar(32))".into(),
    ];
    if indexed {
        stmts.push(
            "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double"
                .into(),
        );
    }
    let docs = [
        r#"<order><custid>1001</custid><date>January 1, 2001</date><lineitem><product><id>p5</id></product></lineitem></order>"#,
        r#"<order><custid>1002</custid><date>January 1, 2002</date><lineitem price="99.50"><product><id>p1</id></product></lineitem></order>"#,
        r#"<order><custid>1003</custid><lineitem price="250.00"><product><id>p2</id></product></lineitem><lineitem price="150.00"><product><id>p3</id></product></lineitem></order>"#,
        r#"<order><custid>1004</custid><lineitem price="120.00"/></order>"#,
    ];
    for (i, d) in docs.iter().enumerate() {
        stmts.push(format!("INSERT INTO orders VALUES ({}, '{d}')", i + 1));
    }
    for (i, c) in [
        r#"<customer><id>1002</id><name>ACME</name><nation>1</nation></customer>"#,
        r#"<customer><id>1003</id><name>Globex</name><nation>2</nation></customer>"#,
    ]
    .iter()
    .enumerate()
    {
        stmts.push(format!("INSERT INTO customer VALUES ({}, '{c}')", i + 1));
    }
    stmts.push("INSERT INTO products VALUES ('p1', 'widget')".into());
    stmts.push("INSERT INTO products VALUES ('p2', 'gadget')".into());
    stmts
}

/// [`paper_setup_stmts`] plus a DML tail exercising the full update
/// lifecycle: row deletes, a wholesale document replace on each table, and
/// an insert landing *after* a delete (its rowid must not collide with a
/// tombstoned one). Like the setup list, every statement appends exactly
/// one WAL record — each DELETE matches at least one row (a zero-match
/// DELETE logs nothing) and each UPDATE matches exactly one row (one
/// `Replace` record per row) — so the crash matrix's durable-prefix
/// arithmetic holds over the whole sequence.
pub fn paper_dml_stmts(indexed: bool) -> Vec<String> {
    let mut stmts = paper_setup_stmts(indexed);
    stmts.push("DELETE FROM orders WHERE ordid = 1".into());
    stmts.push(
        "UPDATE orders SET orddoc = '<order><custid>1003</custid><lineitem price=\"475.00\"><product><id>p9</id></product></lineitem></order>' WHERE ordid = 3"
            .into(),
    );
    stmts.push(
        "INSERT INTO orders VALUES (5, '<order><custid>1005</custid><lineitem price=\"180.00\"/></order>')"
            .into(),
    );
    stmts.push("DELETE FROM orders WHERE ordid = 4".into());
    stmts.push(
        "UPDATE customer SET cdoc = '<customer><id>1002</id><name>ACME Corp</name><nation>3</nation></customer>' WHERE cid = 1"
            .into(),
    );
    stmts
}

/// [`paper_setup_stmts`] executed on a fresh session. `indexed` controls
/// whether the paper's `li_price` index exists — the chaos matrix compares
/// indexed (and fault-injected) runs against the unindexed serial baseline.
pub fn paper_session(indexed: bool) -> SqlSession {
    let mut s = SqlSession::new();
    for stmt in paper_setup_stmts(indexed) {
        s.execute(&stmt).unwrap();
    }
    s
}

/// Every numbered paper query that evaluates to a value over
/// [`paper_session`] — (label, XQuery text). Queries that assert a typed
/// error (25), require their own schema (28, 29) or go through SQL/XML
/// instead of the XQuery entry point (5, 6, 8–16) are exercised in
/// `paper_queries.rs` and the SQL/XML tests.
pub const PAPER_QUERIES: &[(&str, &str)] = &[
    (
        "query_01",
        "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i",
    ),
    (
        "query_02",
        "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>100] return $i",
    ),
    (
        "query_03",
        "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > \"100\" ] return $i",
    ),
    (
        "query_04",
        "for $i in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order \
         for $j in db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/customer \
         where $i/custid/xs:double(.) = $j/id/xs:double(.) \
         return $i",
    ),
    ("query_07", "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]"),
    (
        "query_17",
        "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
         for $item in $doc//lineitem[@price > 100] \
         return <result>{$item}</result>",
    ),
    (
        "query_18",
        "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
         let $item := $doc//lineitem[@price > 100] \
         return <result>{$item}</result>",
    ),
    (
        "query_19",
        "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
         return <result>{$ord/lineitem[@price > 100]}</result>",
    ),
    (
        "query_20",
        "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
         where $ord/lineitem/@price > 100 \
         return <result>{$ord/lineitem}</result>",
    ),
    (
        "query_21",
        "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
         let $price := $ord/lineitem/@price \
         where $price > 100 \
         return <result>{$ord/lineitem}</result>",
    ),
    (
        "query_22",
        "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
         return $ord/lineitem[@price > 100]",
    ),
    ("query_23", "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem"),
    (
        "query_24",
        "for $ord in (for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
                      return <my_order>{$o/*}</my_order>) \
         return $ord/my_order",
    ),
    (
        "query_26",
        "let $view := for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/ \
         order/lineitem \
         return <item> {$i/@quantity, $i/@price} \
                  <pid> {$i/product/id/data(.)} </pid> \
                </item> \
         for $j in $view where $j/pid = 'p2' return $j/@price",
    ),
    (
        "query_27",
        "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem \
         where $i/product/id/data(.) = 'p2' \
         return $i/@price",
    ),
    (
        "query_30",
        "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
         //order[lineitem[@price>100 and @price<200]] return $i",
    ),
];
