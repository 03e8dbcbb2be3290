//! Property-based validation of the structural pre-filter: for randomized
//! heterogeneous collections (namespaced and plain, attributed, depth ≤ 4)
//! and randomized queries (child steps, occasional `//`, wildcards,
//! predicates, FLWOR with `where`), executing with the pre-filter ON must
//! give byte-identical results to executing with it OFF.
//!
//! This is the pre-filter's Definition 1 contract: the path-signature test
//! may pass documents that the query then rejects (false positives), but it
//! may never skip a document the query would keep (zero false negatives).

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xqdb_core::{run_xquery_with_options, AccessConfig, Catalog, ExecOptions, SqlSession};
use xqdb_storage::{Column, SqlType, SqlValue, Table};

const NAMES: &[&str] = &["order", "item", "promo", "code", "note", "deal", "price"];
const ATTRS: &[&str] = &["id", "price", "kind"];
const NS: &str = "urn:prefilter-prop";

fn gen_elem(rng: &mut StdRng, depth: usize, out: &mut String) {
    let name = NAMES[rng.random_range(0..NAMES.len())];
    out.push('<');
    out.push_str(name);
    if rng.random_bool(0.4) {
        let a = ATTRS[rng.random_range(0..ATTRS.len())];
        out.push_str(&format!(" {a}=\"{}\"", rng.random_range(0..100u32)));
    }
    if depth >= 4 || rng.random_bool(0.3) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..rng.random_range(1..=3usize) {
        if rng.random_bool(0.8) {
            gen_elem(rng, depth + 1, out);
        } else {
            out.push_str("text");
        }
    }
    out.push_str(&format!("</{name}>"));
}

/// One random document; ~30% of documents live in the test namespace.
fn gen_doc(rng: &mut StdRng) -> String {
    let root = NAMES[rng.random_range(0..NAMES.len())];
    let mut out = String::new();
    out.push('<');
    out.push_str(root);
    if rng.random_bool(0.3) {
        out.push_str(&format!(" xmlns=\"{NS}\""));
    }
    out.push('>');
    for _ in 0..rng.random_range(1..=3usize) {
        gen_elem(rng, 1, &mut out);
    }
    out.push_str(&format!("</{root}>"));
    out
}

fn name(rng: &mut StdRng) -> &'static str {
    NAMES[rng.random_range(0..NAMES.len())]
}

fn attr(rng: &mut StdRng) -> &'static str {
    ATTRS[rng.random_range(0..ATTRS.len())]
}

/// A random rooted path over the collection, with an optional predicate:
/// mostly child steps with concrete names, sometimes `//`, `*` or a final
/// attribute step — exactly the mix the conservative extractor must stay
/// sound on.
fn gen_path(rng: &mut StdRng, base: &str) -> String {
    let mut path = String::from(base);
    let steps = rng.random_range(1..=3usize);
    for i in 0..steps {
        let sep = if rng.random_bool(0.2) { "//" } else { "/" };
        path.push_str(sep);
        let last = i + 1 == steps;
        match rng.random_range(0..10u32) {
            0 => path.push('*'),
            1 if last => {
                path.push('@');
                path.push_str(attr(rng));
            }
            _ => path.push_str(name(rng)),
        }
    }
    if rng.random_bool(0.5) && !path.ends_with(|c: char| c.is_ascii_digit()) {
        let pred = match rng.random_range(0..5u32) {
            0 => format!("[@{}]", attr(rng)),
            1 => format!("[{}/{}]", name(rng), name(rng)),
            2 => "[1]".to_string(),
            3 => format!("[@{} = '7']", attr(rng)),
            _ => format!("[{}]", name(rng)),
        };
        path.push_str(&pred);
    }
    path
}

/// A random query: a bare path, a FLWOR over it, a FLWOR with a `where`
/// clause, or an aggregate — ~30% declare the test default namespace.
fn gen_query(rng: &mut StdRng) -> String {
    let prolog = if rng.random_bool(0.3) {
        format!("declare default element namespace \"{NS}\"; ")
    } else {
        String::new()
    };
    let col = "db2-fn:xmlcolumn('DOCS.DOC')";
    match rng.random_range(0..5u32) {
        0 => format!("{prolog}{}", gen_path(rng, col)),
        1 => format!("{prolog}for $d in {} return $d", gen_path(rng, col)),
        2 => format!(
            "{prolog}for $d in {col}/{} where $d/{} return $d",
            name(rng),
            name(rng)
        ),
        3 => format!(
            "{prolog}for $d in {col}/{} let $x := $d/{} where $x/{} return $x",
            name(rng),
            name(rng),
            name(rng)
        ),
        _ => format!("{prolog}count({})", gen_path(rng, col)),
    }
}

/// A fresh catalog holding `docs` in DOCS(ID, DOC), ids in order.
fn catalog_of<S: AsRef<str>>(docs: &[S]) -> Catalog {
    let mut c = Catalog::new();
    c.create_table(Table::new(
        "docs",
        vec![Column::new("id", SqlType::Integer), Column::new("doc", SqlType::Xml)],
    ))
    .unwrap();
    for (i, xml) in docs.iter().enumerate() {
        let doc = xqdb_xmlparse::parse_document(xml.as_ref()).unwrap();
        c.insert("docs", vec![SqlValue::Integer(i as i64), SqlValue::Xml(doc.root())])
            .unwrap();
    }
    c
}

/// Fixed (documents, query) inputs checked ahead of the random cases.
/// `let` over a for-var path must not tighten the for-group: `let` keeps
/// an empty sequence, so the promo-less order's tuple survives.
const FIXED_CASES: &[(&[&str], &str)] = &[(
    &[
        "<order><promo><code/></promo><custid>a</custid></order>",
        "<order><custid>b</custid></order>",
    ],
    "for $o in db2-fn:xmlcolumn('DOCS.DOC')/order let $p := $o/promo return $o/custid",
)];

/// The central property: pre-filter ON is byte-identical to pre-filter OFF
/// for every (collection, query) pair — at 1 and 4 threads.
#[test]
fn prefilter_on_equals_prefilter_off() {
    let mut skipped_total = 0usize;
    let mut nonempty_cases = 0usize;
    let fixed = FIXED_CASES
        .iter()
        .enumerate()
        .map(|(i, (docs, q))| (format!("fixed {i}"), catalog_of(docs), q.to_string()));
    let random = (0..120u64).map(|case| {
        let mut rng = StdRng::seed_from_u64(0xD15C ^ case);
        let docs: Vec<String> = (0..25).map(|_| gen_doc(&mut rng)).collect();
        (case.to_string(), catalog_of(&docs), gen_query(&mut rng))
    });
    for (case, catalog, query) in fixed.chain(random) {
        let off = ExecOptions { prefilter: false, ..ExecOptions::default() };
        let want = match run_xquery_with_options(&catalog, &query, &off) {
            Ok(out) => xqdb_xmlparse::serialize_sequence(&out.sequence),
            // The generator can produce queries the evaluator rejects;
            // the pre-filter cannot turn an error into a result.
            Err(e) => {
                let on = ExecOptions::default();
                assert!(
                    run_xquery_with_options(&catalog, &query, &on).is_err(),
                    "case {case}: prefilter masked error {e} for {query}"
                );
                continue;
            }
        };
        for threads in [1usize, 4] {
            let on = ExecOptions { threads, ..ExecOptions::default() };
            let out = run_xquery_with_options(&catalog, &query, &on)
                .unwrap_or_else(|e| panic!("case {case}: prefilter run failed: {e}\n{query}"));
            let got = xqdb_xmlparse::serialize_sequence(&out.sequence);
            assert_eq!(
                got, want,
                "case {case} at {threads} thread(s): results diverged (false negative!)\nquery: {query}"
            );
            if threads == 1 {
                skipped_total += out.stats.prefilter_docs_skipped;
                if !out.sequence.is_empty() {
                    nonempty_cases += 1;
                }
            }
        }
    }
    // The suite must not pass vacuously: some cases returned rows and (when
    // the environment has not disabled the filter) some documents were
    // actually skipped.
    assert!(nonempty_cases > 10, "only {nonempty_cases} cases returned rows");
    if std::env::var("XQDB_PREFILTER").map_or(true, |v| v != "off") {
        assert!(skipped_total > 100, "pre-filter never engaged ({skipped_total} skips)");
    }
}

/// Fixed `XMLEXISTS` predicates checked after the random ones: a PASSING
/// variable that also occurs outside every recognized path shape lets its
/// row qualify on its own, so neither the pre-filter nor the twig join may
/// drop the rows lacking the recognized path.
const FIXED_SQL_PREDICATES: &[&str] = &[
    "($d/order/item, $d)",
    "($d//order[item], $d)",
    "let $p := $d/order/item return $d",
];

/// The same property on the SQL/XML front end: `XMLEXISTS` row selection
/// with every access switch on and with all three off together returns
/// identical rows.
#[test]
fn sql_prefilter_on_equals_off() {
    for case in 0..40 + FIXED_SQL_PREDICATES.len() as u64 {
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ case);
        let mut on = SqlSession::new();
        let mut off = SqlSession::new();
        off.access = AccessConfig { prefilter: false, twig: false, cost: false };
        for s in [&mut on, &mut off] {
            s.execute("create table docs (id integer, doc XML)").unwrap();
        }
        let mut doc_rng = StdRng::seed_from_u64(0xC0FFEE ^ case);
        for i in 0..20 {
            let xml = gen_doc(&mut doc_rng).replace('\'', "");
            let stmt = format!("INSERT INTO docs VALUES ({i}, '{xml}')");
            on.execute(&stmt).unwrap();
            off.execute(&stmt).unwrap();
        }
        let pred = match case.checked_sub(40) {
            Some(i) => FIXED_SQL_PREDICATES[i as usize].to_string(),
            None => gen_path(&mut rng, "$d").replace('\'', "\""),
        };
        let q = format!(
            "SELECT id FROM docs WHERE XMLEXISTS('{pred}' passing doc as \"d\")"
        );
        let a = on.execute(&q).unwrap_or_else(|e| panic!("case {case}: {e}\n{q}"));
        let b = off.execute(&q).unwrap_or_else(|e| panic!("case {case}: {e}\n{q}"));
        assert_eq!(
            format!("{:?}", a.rows),
            format!("{:?}", b.rows),
            "case {case}: SQL rows diverged (false negative!)\n{q}"
        );
    }
}
