//! Seeded property suite for the DML paths: random insert / delete /
//! replace / query interleavings against a **shadow model**.
//!
//! The shadow model is a sorted map `ordid → document text` updated by
//! plain Rust code. At every query step the suite rebuilds a fresh
//! session — same schema, same index, populated by bulk insert from the
//! shadow — and demands byte-identical answers from the long-lived,
//! DML-churned session. Identical indexing on both sides is deliberate:
//! the comparison then isolates exactly what this suite is about — an
//! incrementally-maintained index/synopsis/label state answering like a
//! from-scratch build over the surviving rows. (Indexed-vs-unindexed
//! equivalence, the paper's Definition 1, is `access_oracle`'s job;
//! on polluted prices a tolerant double index legitimately diverges from
//! the erroring scan, which is the paper's Section 2.1 trade-off.)
//! Every interleaving ends with a [`xqdb_core::verify_derived_state`]
//! pass: after any random history, the incrementally-maintained index,
//! synopsis, postings and label runs must equal a from-scratch
//! rebuild over the surviving rows.
//!
//! DELETE and UPDATE also match through `XMLEXISTS`, so their WHERE runs
//! the same index-probe access path as a SELECT: the rows they touch must
//! be exactly the shadow's documents holding a lineitem price above the
//! threshold (or, when a polluted price among the survivors makes the
//! predicate raise, the statement must fail with the fresh rebuild's
//! error and change nothing).
//!
//! The churned session is durable, and every [`CHECKPOINT_EVERY`] steps
//! it checkpoints — relocating the live records of frozen pages its
//! deletes and replaces left under three quarters full — and every
//! [`REOPEN_EVERY`] steps it is recovered from its data directory, so the
//! shadow comparisons also cover relocated rows, reused page ids and
//! snapshot-loaded indexes.
//!
//! Ordids are assigned monotonically and never reused, and REPLACE keeps
//! the row in place, so the churned table's scan order equals ascending
//! ordid order — which is exactly how the shadow rebuild inserts. Result
//! order therefore never needs normalization.

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xqdb_core::{run_xquery, FsyncMode, SqlSession, WalConfig};

/// Steps between checkpoints of the churned session. Not a divisor of
/// [`REOPEN_EVERY`], so queries run on the live session between a
/// relocating checkpoint and the next recovery.
const CHECKPOINT_EVERY: usize = 15;
/// Steps between recoveries of the churned session from its directory.
const REOPEN_EVERY: usize = 40;

/// Open (or recover) the churned session's data directory.
fn open_churned(dir: &std::path::Path) -> SqlSession {
    let config = WalConfig { fsync: FsyncMode::Off, ..Default::default() };
    SqlSession::open_durable(dir, config).unwrap().0
}

/// Queries compared at every query step: a SQL XMLEXISTS probe, an
/// XQuery descendant probe, and a between-range — all over the indexed
/// `//lineitem/@price` pattern, plus one structural query with no
/// price at all (exercises synopsis/prefilter paths after DML).
const SQL_PROBE: &str = "SELECT ordid FROM orders \
     WHERE XMLEXISTS('$o//lineitem[@price > 500]' passing orddoc as \"o\")";
const XQ_PROBES: &[&str] = &[
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 500]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price>250 and @price<750]]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[rush]/custid",
];

/// A small random order document. ~10% polluted prices ("N USD") keep
/// the index's skipped-entry bookkeeping honest across delete/replace,
/// and ~20% carry a `<rush/>` child so structure (not just values)
/// varies between a row's versions.
fn random_doc(rng: &mut StdRng) -> String {
    let custid = rng.random_range(0..50u32);
    let rush = if rng.random_bool(0.2) { "<rush/>" } else { "" };
    let mut doc = format!("<order><custid>{custid}</custid>{rush}");
    for _ in 0..rng.random_range(1..=3usize) {
        let price: f64 = rng.random_range(0.0..1000.0);
        if rng.random_bool(0.1) {
            doc.push_str(&format!("<lineitem price=\"{price:.2} USD\"/>"));
        } else {
            doc.push_str(&format!("<lineitem price=\"{price:.2}\"/>"));
        }
    }
    doc.push_str("</order>");
    doc
}

/// The `XMLEXISTS` predicate the matching DML statements use.
fn price_above(t: u32) -> String {
    format!("XMLEXISTS('$o//lineitem[@price > {t}]' passing orddoc as \"o\")")
}

/// The shadow's ordids whose document has a well-formed lineitem price
/// above `t` — the rows `price_above(t)` selects whenever it does not
/// raise on a polluted price.
fn shadow_matches(shadow: &BTreeMap<i64, String>, t: u32) -> Vec<i64> {
    let above = |doc: &str| {
        doc.split("price=\"").skip(1).any(|rest| {
            let value = rest.split('"').next().unwrap_or("");
            value.parse::<f64>().is_ok_and(|p| p > f64::from(t))
        })
    };
    shadow.iter().filter(|(_, doc)| above(doc)).map(|(id, _)| *id).collect()
}

/// Fresh session — same schema and index as the churned one — holding
/// exactly the shadow's rows, bulk-inserted in ordid order.
fn shadow_session(shadow: &BTreeMap<i64, String>) -> SqlSession {
    let mut s = SqlSession::default();
    s.execute("CREATE TABLE orders (ordid INTEGER, orddoc XML)").unwrap();
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    for (id, doc) in shadow {
        s.execute(&format!("INSERT INTO orders VALUES ({id}, '{doc}')")).unwrap();
    }
    s
}

/// Byte-compare every probe between the churned session and the shadow
/// rebuild. Polluted prices can make a value probe raise FORG0001 — a
/// legitimate outcome that must then be **identical** on both sides
/// (same code; an index must never make an erroring query succeed), so
/// outcomes render as result bytes or the error code.
fn assert_probes_match(
    churned: &mut SqlSession,
    shadow: &BTreeMap<i64, String>,
    context: &str,
) {
    let mut baseline = shadow_session(shadow);
    let want = match baseline.execute(SQL_PROBE) {
        Ok(r) => r.render(),
        Err(e) => format!("error {}", e.code),
    };
    let got = match churned.execute(SQL_PROBE) {
        Ok(r) => r.render(),
        Err(e) => format!("error {}", e.code),
    };
    assert_eq!(got, want, "SQL probe diverged from the shadow model ({context})");
    // Range predicates on the INTEGER key, decided by the scalar filter
    // from in-memory cells: the churned session's cells must agree with
    // the shadow after every checkpoint, relocation and reopen.
    if let Some(&k) = shadow.keys().nth(shadow.len() / 2) {
        for (cond, keep) in [
            (format!("ordid < {k}"), Box::new(|id: i64| id < k) as Box<dyn Fn(i64) -> bool>),
            (format!("{k} >= ordid"), Box::new(|id: i64| id <= k)),
            (
                format!("ordid > {k} AND ordid <= {}", k + 25),
                Box::new(|id: i64| id > k && id <= k + 25),
            ),
        ] {
            let q = format!("SELECT ordid FROM orders WHERE {cond}");
            let got = churned.execute(&q).unwrap_or_else(|e| panic!("{q}: {e} ({context})"));
            let ids: Vec<i64> =
                got.rows.iter().map(|row| row[0].render().parse::<i64>().unwrap()).collect();
            let want: Vec<i64> = shadow.keys().copied().filter(|&id| keep(id)).collect();
            assert_eq!(ids, want, "{q} diverged from the shadow model ({context})");
            assert_eq!(
                got.render(),
                baseline.execute(&q).unwrap().render(),
                "{q} diverged from the rebuild ({context})"
            );
        }
    }
    for q in XQ_PROBES {
        let render = |catalog: &xqdb_core::Catalog| match run_xquery(catalog, q) {
            Ok(out) => xqdb_xmlparse::serialize_sequence(&out.sequence),
            Err(e) => format!("error {}", e.code),
        };
        assert_eq!(
            render(&churned.catalog),
            render(&baseline.catalog),
            "XQuery probe {q} diverged from the shadow model ({context})"
        );
    }
}

/// A DELETE (no `set`) or UPDATE matching through `price_above(t)`. The
/// fresh rebuild's SELECT over the same predicate is the reference: when it
/// raises, the DML must raise the same code and change nothing; otherwise
/// it must select exactly the shadow's matches, and the DML must touch
/// exactly those rows. Returns the matched ordids.
fn xmlexists_dml(
    churned: &mut SqlSession,
    shadow: &BTreeMap<i64, String>,
    t: u32,
    set: Option<&str>,
    context: &str,
) -> Vec<i64> {
    let pred = price_above(t);
    let select = format!("SELECT ordid FROM orders WHERE {pred}");
    let dml = match set {
        None => format!("DELETE FROM orders WHERE {pred}"),
        Some(doc) => format!("UPDATE orders SET orddoc = '{doc}' WHERE {pred}"),
    };
    let reference = shadow_session(shadow).execute(&select);
    let outcome = churned.execute(&dml);
    let ids: Vec<i64> = match reference {
        Err(e) => {
            let got = outcome.map(|r| r.render()).map_err(|e| e.code);
            assert_eq!(got.err(), Some(e.code), "{dml} must fail like the rebuild ({context})");
            return Vec::new();
        }
        Ok(r) => r.rows.iter().map(|row| row[0].render().parse::<i64>().unwrap()).collect(),
    };
    assert_eq!(ids, shadow_matches(shadow, t), "{select} vs the shadow model ({context})");
    let verb = if set.is_none() { "deleted" } else { "updated" };
    let r = outcome.unwrap_or_else(|e| panic!("{dml} failed: {e} ({context})"));
    assert_eq!(r.message, Some(format!("{} row(s) {verb}", ids.len())), "{dml} ({context})");
    ids
}

/// What one interleaving exercised.
#[derive(Default)]
struct Touched {
    /// Rows the `XMLEXISTS` DML statements matched.
    xmlexists_rows: usize,
    /// Heap pages the checkpoints vacated by relocation.
    pages_relocated: usize,
}

/// One random interleaving: ~120 weighted ops, shadow-checked queries
/// throughout, periodic checkpoints and recoveries, rebuild oracle at the
/// end. Ops deliberately include zero-match DELETEs and UPDATEs (a
/// retired or never-issued ordid) — they must report 0 rows and change
/// nothing.
fn run_interleaving(seed: u64) -> Touched {
    let mut rng = StdRng::seed_from_u64(seed);
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/test-tmp"))
        .join(format!("dml_prop_{}_{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = open_churned(&dir);
    let mut touched = Touched::default();
    session.execute("CREATE TABLE orders (ordid INTEGER, orddoc XML)").unwrap();
    session
        .execute(
            "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
        )
        .unwrap();
    let mut shadow: BTreeMap<i64, String> = BTreeMap::new();
    let mut next_id = 0i64;
    let context = |step: usize| format!("seed {seed}, step {step}");

    for step in 0..120 {
        if step % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
            let pages =
                |s: &SqlSession| s.catalog.db.table("orders").unwrap().heap_pages().to_vec();
            let before = pages(&session);
            session.checkpoint().unwrap();
            let after = pages(&session);
            touched.pages_relocated += before.iter().filter(|p| !after.contains(p)).count();
        }
        if step % REOPEN_EVERY == REOPEN_EVERY - 1 {
            drop(session);
            session = open_churned(&dir);
        }
        let draw = rng.random_range(0..100u32);
        if draw < 40 || shadow.is_empty() {
            let id = next_id;
            next_id += 1;
            let doc = random_doc(&mut rng);
            let r = session
                .execute(&format!("INSERT INTO orders VALUES ({id}, '{doc}')"))
                .unwrap();
            assert_eq!(r.message.as_deref(), Some("1 row inserted"), "{}", context(step));
            shadow.insert(id, doc);
        } else if draw < 60 {
            // Replace: a live ordid, or (1 in 5) one that no longer or
            // never existed — the zero-match UPDATE.
            let id = if rng.random_bool(0.2) {
                next_id + 1_000
            } else {
                *shadow.keys().nth(rng.random_range(0..shadow.len())).unwrap()
            };
            let doc = random_doc(&mut rng);
            let r = session
                .execute(&format!(
                    "UPDATE orders SET orddoc = '{doc}' WHERE ordid = {id}"
                ))
                .unwrap();
            if let std::collections::btree_map::Entry::Occupied(mut e) = shadow.entry(id) {
                assert_eq!(r.message.as_deref(), Some("1 row(s) updated"), "{}", context(step));
                e.insert(doc);
            } else {
                assert_eq!(r.message.as_deref(), Some("0 row(s) updated"), "{}", context(step));
            }
        } else if draw < 75 {
            let id = if rng.random_bool(0.2) {
                next_id + 1_000
            } else {
                *shadow.keys().nth(rng.random_range(0..shadow.len())).unwrap()
            };
            let r = session
                .execute(&format!("DELETE FROM orders WHERE ordid = {id}"))
                .unwrap();
            if shadow.remove(&id).is_some() {
                assert_eq!(r.message.as_deref(), Some("1 row(s) deleted"), "{}", context(step));
            } else {
                assert_eq!(r.message.as_deref(), Some("0 row(s) deleted"), "{}", context(step));
            }
        } else if draw < 80 {
            let t = rng.random_range(900..1000u32);
            for id in xmlexists_dml(&mut session, &shadow, t, None, &context(step)) {
                shadow.remove(&id);
                touched.xmlexists_rows += 1;
            }
        } else if draw < 85 {
            let t = rng.random_range(900..1000u32);
            let doc = random_doc(&mut rng);
            let ids =
                xmlexists_dml(&mut session, &shadow, t, Some(&doc), &context(step));
            for id in ids {
                shadow.insert(id, doc.clone());
                touched.xmlexists_rows += 1;
            }
        } else {
            assert_probes_match(&mut session, &shadow, &context(step));
        }
    }

    assert_probes_match(&mut session, &shadow, &format!("seed {seed}, final"));
    let t = session.catalog.db.table("orders").unwrap();
    assert_eq!(
        t.live_len(),
        shadow.len(),
        "live rows diverged from the shadow model (seed {seed})"
    );
    let oracle = xqdb_core::verify_derived_state(&session.catalog).unwrap();
    assert!(
        oracle.is_clean(),
        "derived state diverged from rebuild (seed {seed}):\n{}",
        oracle.render()
    );
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    touched
}

/// Every seed; neither the `XMLEXISTS` DML nor relocation may pass
/// vacuously.
#[test]
fn random_dml_interleavings_match_shadow_model_serial() {
    let runs: Vec<Touched> = (0..6).map(run_interleaving).collect();
    let rows: usize = runs.iter().map(|t| t.xmlexists_rows).sum();
    assert!(rows > 0, "no XMLEXISTS DELETE/UPDATE matched a row");
    let relocated: usize = runs.iter().map(|t| t.pages_relocated).sum();
    assert!(relocated > 0, "no checkpoint relocated a page");
}
