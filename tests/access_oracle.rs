//! The differential access-path oracle: Definition 1 (`Q(D) = Q(I(P, D))`)
//! for every narrowing stage, alone and in combination.
//!
//! Every query runs, together with its SQL `XMLEXISTS` twin, in all 8
//! cells of {prefilter, twig, cost} on/off and is byte-compared with
//! plain navigation (the evaluator over the stored
//! documents, with no plan at all). An error must meet an error. Across
//! corpora the harness rotates the buffer pool (default, or 4 frames) and
//! the storage (in memory, reopened from WAL replay only, reopened after a
//! checkpoint), applies one DML batch per corpus with
//! `verify_derived_state` clean after it and after every reopen, and counts
//! the (switch, pool, storage) cells it ran. A stage that is off must not
//! run. Each property test checks its own corpora that way and asserts
//! that its stage did work.
//!
//! The oracle returns divergences instead of panicking, so the planted
//! false negatives at the end can assert that it fires in exactly the
//! cells with the planted stage on.

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xqdb_core::{
    plan_query_costed, run_xquery_with_options, verify_derived_state, AccessConfig, AnalysisEnv,
    Catalog, ExecOptions, ExecStats, FsyncMode, SqlSession, WalConfig,
};
use xqdb_runtime::WorkerPool;
use xqdb_storage::{bucket_bounds, Column, SqlType, SqlValue, Table, ValueStats};
use xqdb_workload::{OrderGenerator, OrderParams};
use xqdb_xqeval::DynamicContext;

// ------------------------------------------------------------- the cells

/// One switch combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cell {
    prefilter: bool,
    twig: bool,
    cost: bool,
}

/// All 8 cells.
fn cells() -> impl Iterator<Item = Cell> {
    (0..8u8).map(|i| Cell { prefilter: i & 1 != 0, twig: i & 2 != 0, cost: i & 4 != 0 })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Pool {
    Default,
    /// 4 frames for the row store and for every index: the smallest pool
    /// that still holds a pinned page and its chain successor.
    Starved,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Storage {
    Memory,
    /// Every statement replayed from the log.
    WalReplay,
    /// The setup frozen by a checkpoint, the DML batch replayed on top.
    Checkpoint,
}

const POOLS: [Pool; 2] = [Pool::Default, Pool::Starved];
const STORAGES: [Storage; 3] = [Storage::Memory, Storage::WalReplay, Storage::Checkpoint];

/// A cell where a query (or its SQL twin) differs from navigation, or
/// where its stage accounting is wrong, and what went wrong.
type Divergence = (Cell, String);

/// What the oracle saw run, for the coverage and non-vacuity asserts.
#[derive(Default)]
struct Tally {
    cells: BTreeSet<(Cell, Pool, Storage)>,
    twig_joins: u64,
    twig_skipped: usize,
    prefilter_skipped: usize,
    choices_differed: usize,
    nonempty: usize,
    /// Twig joins per storage, for the ROADMAP item 2 pin.
    storage_joins: BTreeMap<Storage, u64>,
    /// Rows the prefilter skipped per storage.
    storage_prefilter_skipped: BTreeMap<Storage, usize>,
    /// What the stages did on the SQL twins.
    twin_twig_joins: u64,
    twin_prefilter_skipped: usize,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.cells.extend(other.cells);
        self.twig_joins += other.twig_joins;
        self.twig_skipped += other.twig_skipped;
        self.prefilter_skipped += other.prefilter_skipped;
        self.choices_differed += other.choices_differed;
        self.nonempty += other.nonempty;
        for (storage, joins) in other.storage_joins {
            *self.storage_joins.entry(storage).or_default() += joins;
        }
        for (storage, skipped) in other.storage_prefilter_skipped {
            *self.storage_prefilter_skipped.entry(storage).or_default() += skipped;
        }
        self.twin_twig_joins += other.twin_twig_joins;
        self.twin_prefilter_skipped += other.twin_prefilter_skipped;
    }
}

// ------------------------------------------------------------ the oracle

/// Plain navigation: the evaluator over the stored documents, unplanned.
fn navigate(c: &Catalog, query: &str) -> Result<String, String> {
    let parsed = xqdb_xquery::parse_query(query).map_err(|e| e.to_string())?;
    xqdb_xqeval::eval_query(&parsed, &c.db, &DynamicContext::new())
        .map(|seq| xqdb_xmlparse::serialize_sequence(&seq))
        .map_err(|e| e.to_string())
}

/// The SQL twin of an XQuery over one collection: the collection becomes
/// the PASSING variable `$d`, and a row qualifies iff the query is
/// non-empty on its document. Navigation answers the same question with
/// `for $d in collection return exists(query)`.
struct Twin {
    sql: String,
    navigation: String,
    /// Every row's id, in storage order.
    ids: String,
}

fn sql_twin(c: &Catalog, query: &str) -> Option<Twin> {
    const CALL: &str = "db2-fn:xmlcolumn(";
    let (prolog, body) = match query.strip_prefix("declare") {
        Some(_) => query.split_once("; ").map(|(p, b)| (format!("{p}; "), b))?,
        None => (String::new(), query),
    };
    let mut sources = BTreeSet::new();
    let mut twin = String::new();
    let mut rest = body;
    while let Some(at) = rest.find(CALL) {
        let arg = &rest[at + CALL.len()..];
        let close = arg.find(')')?;
        sources.insert(arg[1..close - 1].to_string());
        twin.push_str(&rest[..at]);
        twin.push_str("$d");
        rest = &arg[close + 1..];
    }
    twin.push_str(rest);
    let [source] = sources.into_iter().collect::<Vec<_>>().try_into().ok()?;
    let (table, column) = source.split_once('.')?;
    let twin = twin.replace('\'', "\"");
    let ids = format!("SELECT {} FROM {table}", c.db.table(table)?.columns.first()?.name);
    Some(Twin {
        sql: format!("{ids} WHERE XMLEXISTS('{prolog}{twin}' passing {column} as \"d\")"),
        navigation: format!("{prolog}for $d in db2-fn:xmlcolumn('{source}') return exists({twin})"),
        ids,
    })
}

/// The twin's rows as navigation selects them.
fn navigate_twin(s: &mut SqlSession, twin: &Twin) -> Result<String, String> {
    let keep = navigate(&s.catalog, &twin.navigation)?;
    let ids = s.execute(&twin.ids).map_err(|e| e.to_string())?;
    let rows: Vec<_> = keep
        .split_whitespace()
        .zip(ids.rows)
        .filter(|(k, _)| *k == "true")
        .map(|(_, row)| row)
        .collect();
    Ok(format!("{rows:?}"))
}

/// What each stage kept.
fn kept(st: &ExecStats) -> [usize; 7] {
    [
        st.index_probes,
        st.index_entries_scanned,
        st.twig_joins as usize,
        st.twig_candidates,
        st.twig_docs_skipped,
        st.prefilter_docs_skipped,
        st.docs_evaluated_total(),
    ]
}

/// Run `query` and its SQL twin in every cell of `s`; return every
/// divergence from navigation.
fn check_query(s: &mut SqlSession, query: &str, tally: &mut Tally) -> Vec<Divergence> {
    let mut out = Vec::new();
    let want = navigate(&s.catalog, query);
    tally.nonempty += usize::from(want.as_ref().is_ok_and(|w| !w.is_empty()));
    check_cells(query, &want, tally, &mut out, |cell| {
        let opts = ExecOptions {
            prefilter: cell.prefilter,
            twig: cell.twig,
            cost: cell.cost,
            ..ExecOptions::default()
        };
        run_xquery_with_options(&s.catalog, query, &opts)
            .map(|o| (xqdb_xmlparse::serialize_sequence(&o.sequence), o.stats))
            .map_err(|e| e.to_string())
    });
    if let Some(twin) = sql_twin(&s.catalog, query) {
        let (joins, skipped) = (tally.twig_joins, tally.prefilter_skipped);
        let want = navigate_twin(s, &twin);
        check_cells(&twin.sql, &want, tally, &mut out, |cell| {
            s.access = AccessConfig { prefilter: cell.prefilter, twig: cell.twig, cost: cell.cost };
            let got = s.execute(&twin.sql).map_err(|e| e.to_string())?;
            Ok((format!("{:?}", got.rows), got.stats))
        });
        s.access = AccessConfig::default();
        tally.twin_twig_joins += tally.twig_joins - joins;
        tally.twin_prefilter_skipped += tally.prefilter_skipped - skipped;
    }
    out
}

/// One query in every cell against navigation's answer `want`.
fn check_cells(
    query: &str,
    want: &Result<String, String>,
    tally: &mut Tally,
    out: &mut Vec<Divergence>,
    mut run: impl FnMut(Cell) -> Result<(String, ExecStats), String>,
) {
    let mut entries = [0; 2];
    for cell in cells() {
        let diverge = |what| (cell, format!("{cell:?}: {what}\n  query: {query}"));
        let st = match (want, run(cell)) {
            (Ok(w), Ok((g, st))) if *w == g => st,
            (Err(_), Err(_)) => continue,
            // Tolerant indexing: a probe may skip a document whose
            // evaluation would raise a cast error. Only a probe may.
            (Err(_), Ok((_, st))) if st.index_probes > 0 => st,
            (w, g) => {
                let g = g.map(|(g, _)| g);
                out.push(diverge(format!("differs\n  navigation: {w:?}\n  cell:       {g:?}")));
                continue;
            }
        };
        // A stage that is off must not run.
        let leaks = [
            (!cell.prefilter && st.prefilter_docs_skipped > 0, "prefilter off but skipped rows"),
            (!cell.twig && st.twig_joins > 0, "twig off but joined"),
            (!cell.cost && st.plans_costed > 0, "cost off but the plan was costed"),
        ];
        out.extend(leaks.iter().filter(|l| l.0).map(|l| diverge(l.1.to_string())));
        tally.twig_joins += st.twig_joins;
        tally.twig_skipped += st.twig_docs_skipped;
        tally.prefilter_skipped += st.prefilter_docs_skipped;
        if cell.prefilter && cell.twig {
            entries[usize::from(cell.cost)] = st.index_entries_scanned;
        }
    }
    tally.choices_differed += usize::from(entries[0] != entries[1]);
}

// ------------------------------------------------------------ generators

const NAMES: &[&str] = &["order", "item", "promo", "code", "note", "deal", "price"];
const ATTRS: &[&str] = &["id", "price", "kind"];
const NS: &str = "urn:access-oracle";
const DOCS: &str = "db2-fn:xmlcolumn('DOCS.DOC')";

fn name(rng: &mut StdRng) -> &'static str {
    NAMES[rng.random_range(0..NAMES.len())]
}

fn attr(rng: &mut StdRng) -> &'static str {
    ATTRS[rng.random_range(0..ATTRS.len())]
}

fn gen_elem(rng: &mut StdRng, depth: usize, out: &mut String) {
    let name = name(rng);
    out.push_str(&format!("<{name}"));
    if rng.random_bool(0.4) {
        out.push_str(&format!(" {}=\"{}\"", attr(rng), rng.random_range(0..100u32)));
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

/// One random document, depth ≤ 4; ~30% live in the test namespace.
/// Names repeat across levels, so recursive nestings (the classic
/// TwigStack stress shape) occur naturally.
fn gen_doc(rng: &mut StdRng) -> String {
    let root = name(rng);
    let mut out = format!("<{root}");
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

/// A random predicate, mostly branching: the twig join's reason to exist.
fn gen_pred(rng: &mut StdRng) -> String {
    match rng.random_range(0..8u32) {
        0 => format!("[@{}]", attr(rng)),
        1 => format!("[{}/{}]", name(rng), name(rng)),
        2 => format!("[{}/@{}]", name(rng), attr(rng)),
        3 => format!("[.//{}]", name(rng)),
        4 => format!("[{}/@{} > 50]", name(rng), attr(rng)),
        5 => "[1]".to_string(),
        6 => format!("[@{} = '7']", attr(rng)),
        _ => format!("[{}]", name(rng)),
    }
}

/// A random path from `base` of one to three steps: names, sometimes `*`
/// or a final attribute. Half lean on `//` and predicates at every step
/// (the shapes the twig join takes), half are mostly rooted child chains
/// with at most a final predicate (the shapes the path prefilter
/// takes).
fn gen_path(rng: &mut StdRng, base: &str) -> String {
    let twiggy = rng.random_bool(0.5);
    let mut path = String::from(base);
    let steps = rng.random_range(1..=3usize);
    for i in 0..steps {
        let last = i + 1 == steps;
        let descendant = match (twiggy, i) {
            (true, 0) => 0.75,
            (true, _) => 0.5,
            (false, _) => 0.2,
        };
        path.push_str(if rng.random_bool(descendant) { "//" } else { "/" });
        match rng.random_range(0..12u32) {
            0 => path.push('*'),
            1 if last => {
                path.push('@');
                path.push_str(attr(rng));
            }
            _ => path.push_str(name(rng)),
        }
        let pred = if twiggy { 0.6 } else if last { 0.5 } else { 0.0 };
        if !path.ends_with('*') && rng.random_bool(pred) {
            path.push_str(&gen_pred(rng));
        }
    }
    path
}

/// A random query over DOCS: a bare path, FLWOR with `let` and `where`,
/// or an aggregate; ~30% declare the test namespace.
fn gen_query(rng: &mut StdRng) -> String {
    let prolog = if rng.random_bool(0.3) {
        format!("declare default element namespace \"{NS}\"; ")
    } else {
        String::new()
    };
    let (a, b, c, p) = (name(rng), name(rng), name(rng), gen_pred(rng));
    let body = match rng.random_range(0..7u32) {
        0 => gen_path(rng, DOCS),
        1 => format!("for $o in {} return $o", gen_path(rng, DOCS)),
        2 => format!("for $o in {DOCS}/{a} where $o/{b} return $o"),
        3 => format!("for $o in {DOCS}//{a}{p} where $o/{b} return $o"),
        4 => format!("for $o in {DOCS}/{a} let $x := $o/{b} where $x/{c} return $x"),
        5 => format!("for $o in {DOCS}//{a} let $x := $o//{b} where $x{p} return $x"),
        _ => format!("count({})", gen_path(rng, DOCS)),
    };
    format!("{prolog}{body}")
}

// --------------------------------------------------------------- corpora

/// A catalog as SQL, so that every storage can realize it: `setup`, then
/// one DML batch, then the queries.
#[derive(Clone)]
struct Corpus {
    label: String,
    setup: Vec<String>,
    dml: Vec<String>,
    queries: Vec<String>,
}

fn insert(table: &str, id: i64, xml: &str) -> String {
    format!("INSERT INTO {table} VALUES ({id}, '{xml}')")
}

/// The paper's schema and documents, its DML tail, and its 16 queries.
fn paper_corpus() -> Corpus {
    let setup = common::paper_setup_stmts(true);
    let dml = common::paper_dml_stmts(true).split_off(setup.len());
    let queries = common::PAPER_QUERIES.iter().map(|(_, q)| q.to_string()).collect();
    Corpus { label: "paper".into(), setup, dml, queries }
}

/// DOCS(ID, DOC) holding `docs`, with an insert-then-delete as its DML
/// batch: the fixed cases keep their meaning and gain a hole in the rowid
/// domain.
fn docs_corpus(label: &str, docs: &[impl AsRef<str>], queries: &[&str]) -> Corpus {
    let mut setup = vec!["create table docs (id integer, doc XML)".to_string()];
    setup.extend(docs.iter().enumerate().map(|(i, d)| insert("docs", i as i64, d.as_ref())));
    let dml = vec![
        insert("docs", 99, "<order><custid>z</custid></order>"),
        "DELETE FROM docs WHERE id = 99".to_string(),
    ];
    let queries = queries.iter().map(|q| q.to_string()).collect();
    Corpus { label: label.to_string(), setup, dml, queries }
}

/// Fixed cases. `let` over a for-var path must not tighten the for-group:
/// `let` keeps an empty sequence, so the promo-less order's tuple
/// survives, and for the same reason a for-var path inside a `let`'s
/// predicate must not tighten it either. A position on the collection
/// itself must not filter: `[1]` is the first stored document, which lacks
/// the path, so the answer is empty.
const FIXED_CASES: &[(&[&str], &str)] = &[
    (
        &[
            "<order><promo><code/></promo><custid>a</custid></order>",
            "<order><custid>b</custid></order>",
        ],
        "for $o in db2-fn:xmlcolumn('DOCS.DOC')/order let $p := $o/promo return $o/custid",
    ),
    (
        &["<order/>", "<order><custid>b</custid></order>"],
        "for $o in db2-fn:xmlcolumn('DOCS.DOC')/order \
         let $w := db2-fn:xmlcolumn('DOCS.DOC')/x[$o/custid] return $o",
    ),
    (
        &["<order/>", "<order><custid>b</custid></order>"],
        "db2-fn:xmlcolumn('DOCS.DOC')[1]/order/custid",
    ),
];

/// Fixed `XMLEXISTS` predicates (as their XQuery twins): a PASSING
/// variable that also occurs outside every recognized path shape lets its
/// row qualify on its own, so neither the pre-filter nor the twig join may
/// drop the rows lacking the recognized path.
const FIXED_SQL_PREDICATES: &[&str] = &[
    "(db2-fn:xmlcolumn('DOCS.DOC')/order/item, db2-fn:xmlcolumn('DOCS.DOC'))",
    "(db2-fn:xmlcolumn('DOCS.DOC')//order[item], db2-fn:xmlcolumn('DOCS.DOC'))",
    "let $p := db2-fn:xmlcolumn('DOCS.DOC')/order/item return db2-fn:xmlcolumn('DOCS.DOC')",
];

/// Random documents and queries; the DML batch deletes, replaces and
/// inserts. Half the corpora carry a value index, created before the rows.
fn generated_corpus(case: u64, queries: usize) -> Corpus {
    let mut rng = StdRng::seed_from_u64(0xD15C ^ case);
    let mut setup = vec!["create table docs (id integer, doc XML)".to_string()];
    if case % 2 == 1 {
        setup.push("CREATE INDEX dk ON docs(doc) USING XMLPATTERN '//@kind' AS double".into());
    }
    setup.extend((0..25).map(|i| insert("docs", i, &gen_doc(&mut rng))));
    let mut dml = Vec::new();
    for _ in 0..3 {
        dml.push(format!("DELETE FROM docs WHERE id = {}", rng.random_range(0..25)));
        let (doc, id) = (gen_doc(&mut rng), rng.random_range(0..25));
        dml.push(format!("UPDATE docs SET doc = '{doc}' WHERE id = {id}"));
    }
    dml.extend((25..27).map(|i| insert("docs", i, &gen_doc(&mut rng))));
    let queries = (0..queries).map(|_| gen_query(&mut rng)).collect();
    Corpus { label: format!("generated {case}"), setup, dml, queries }
}

/// The index pool of the order corpora (name, pattern, type); each corpus
/// creates a random subset, after its rows.
const INDEXES: &[(&str, &str, &str)] = &[
    ("li_price_d", "//lineitem/@price", "double"),
    ("li_price_s", "//lineitem/@price", "varchar"),
    ("all_attrs", "//@*", "double"),
    ("e_price", "//price", "double"),
    ("e_price_s", "//price", "varchar"),
    ("price_text", "//price/text()", "varchar"),
    ("custid", "//custid", "double"),
    ("pid", "//product/id", "varchar"),
    ("shipdate", "//shipdate", "date"),
    ("ns_price", "//*:lineitem/@price", "double"),
];

/// Query templates over the order schema; `{t}`/`{u}` are price bounds,
/// `{c}` a customer id.
const ORDER_QUERIES: &[&str] = &[
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > {t}]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price = {t}]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > {t}]/product/id",
    "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where $o/custid = {c} return $o",
    "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
     let $p := $o/lineitem/@price where $p > {t} return count($o/lineitem)",
    "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
     let $li := $d//lineitem[@price > {t}] return <r>{$li}</r>",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price > {t} and @price < {u}]]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[price > {t} and price < {u}]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/price/data()[. > {t} and . < {u}]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[custid/xs:double(.) = {c}]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > {t} or custid = {c}]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[shipdate > xs:date('2003-01-01')]",
    "declare default element namespace \"http://ournamespaces.com/order\"; \
     db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[lineitem/@price > {t}]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/price/text() = \"500.00\"]",
    "count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > {t}])",
    "avg(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > {t}]/@quantity/xs:double(.))",
    "sum(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > {t}]/@quantity/xs:double(.)) + 1",
    "string-join(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > {t}]/product/id/data(.), \
     ',')",
    "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return count($o/lineitem[@price > {t}])",
];

/// Generated orders (attribute or element prices, repeated and mixed-content
/// prices, optionally namespaced) under a random subset of [`INDEXES`].
fn order_corpus(case: u64, queries: usize) -> Corpus {
    let mut rng = StdRng::seed_from_u64(case);
    let params = OrderParams {
        seed: rng.random_range(0..1000u64),
        min_lineitems: 0,
        max_lineitems: 4,
        element_prices: rng.random_bool(0.5),
        multi_price_fraction: rng.random_range(0.0f64..0.5),
        mixed_content_fraction: rng.random_range(0.0f64..0.5),
        namespace: rng.random_bool(0.5).then(|| "http://ournamespaces.com/order".into()),
        customers: 20,
        products: 10,
        ..Default::default()
    };
    let mut orders = OrderGenerator::new(params);
    let mut setup = vec!["create table orders (ordid integer, orddoc XML)".to_string()];
    setup.extend((0..60).map(|i| insert("orders", i, &orders.next_order())));
    let mask = rng.random_range(0..1024usize);
    for (i, (name, pattern, ty)) in INDEXES.iter().enumerate() {
        if mask & (1 << i) != 0 {
            setup.push(format!(
                "CREATE INDEX {name} ON orders(orddoc) USING XMLPATTERN '{pattern}' AS {ty}"
            ));
        }
    }
    let dml = vec![
        format!("DELETE FROM orders WHERE ordid = {}", rng.random_range(0..60)),
        format!("DELETE FROM orders WHERE ordid = {}", rng.random_range(0..60)),
        format!("UPDATE orders SET orddoc = '{}' WHERE ordid = 7", orders.next_order()),
        insert("orders", 60, &orders.next_order()),
    ];
    let queries = (0..queries)
        .map(|_| {
            let t: f64 = rng.random_range(0.0..1000.0);
            let width: f64 = rng.random_range(1.0..300.0);
            ORDER_QUERIES[rng.random_range(0..ORDER_QUERIES.len())]
                .replace("{t}", &format!("{t:.2}"))
                .replace("{u}", &format!("{:.2}", t + width))
                .replace("{c}", &rng.random_range(0..20u32).to_string())
        })
        .collect();
    Corpus { label: format!("orders {case} (indexes {mask:#b})"), setup, dml, queries }
}

const PLANNER_QUERIES: &[&str] = &[
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 500]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price>250 and @price<750]]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 900 and custid = 7]",
];

/// Two indexes are eligible for the same `@price` predicate, but one is
/// much bigger: the narrow one holds only lineitem prices while the broad
/// one (`//@price`) also swallows every fee price, eight per order.
/// Catalog order (name order, what the rule-based planner takes first) is
/// steered by the index names; statistics decide what the costed planner
/// takes.
fn planner_corpus(narrow_first: bool) -> Corpus {
    let (narrow, broad) = if narrow_first { ("a", "z") } else { ("z", "a") };
    let index = |name: &str, pattern: &str| {
        format!("CREATE INDEX {name} ON orders(orddoc) USING XMLPATTERN '{pattern}' AS double")
    };
    let mut setup = vec![
        "create table orders (ordid integer, orddoc XML)".to_string(),
        index(&format!("idx_{narrow}_narrow"), "//lineitem/@price"),
        index(&format!("idx_{broad}_broad"), "//@price"),
        index("idx_custid", "//custid"),
    ];
    let mut rng = StdRng::seed_from_u64(0xC057);
    for i in 0..120 {
        let custid = rng.random_range(0..20u32);
        let price: f64 = rng.random_range(0.0..1000.0);
        let mut doc =
            format!("<order><custid>{custid}</custid><lineitem price=\"{price:.2}\"/>");
        for _ in 0..8 {
            let fee: f64 = rng.random_range(0.0..1000.0);
            doc.push_str(&format!("<fee price=\"{fee:.2}\"/>"));
        }
        doc.push_str("</order>");
        setup.push(insert("orders", i, &doc));
    }
    Corpus {
        label: format!("planner (narrow first: {narrow_first})"),
        setup,
        dml: vec![
            "DELETE FROM orders WHERE ordid = 3".to_string(),
            insert("orders", 120, "<order><custid>7</custid><lineitem price=\"950.00\"/></order>"),
        ],
        queries: PLANNER_QUERIES.iter().map(|q| q.to_string()).collect(),
    }
}

// ------------------------------------------------------------- realizing

fn assert_verifies(s: &SqlSession, when: &str) {
    let report = verify_derived_state(&s.catalog).unwrap();
    assert!(report.is_clean(), "{when}:\n{}", report.render());
}

/// A realized corpus; its data directory, if any, goes with it.
struct Realized {
    session: SqlSession,
    dir: PathBuf,
}

impl Drop for Realized {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Run the corpus's setup and DML batch on `storage` and starve the pools
/// if asked; derived state verifies clean after the DML and after the
/// reopen.
fn realize(corpus: &Corpus, storage: Storage, pool: Pool) -> Realized {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/test-tmp"))
        .join(format!("access_oracle_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let config = WalConfig { fsync: FsyncMode::Off, ..Default::default() };
        SqlSession::open_durable(&dir, config).unwrap().0
    };
    let run = |s: &mut SqlSession, stmts: &[String]| {
        for stmt in stmts {
            s.execute(stmt).unwrap_or_else(|e| panic!("{}: {stmt}: {e}", corpus.label));
        }
    };
    let mut session = match storage {
        Storage::Memory => SqlSession::default(),
        Storage::WalReplay | Storage::Checkpoint => open(),
    };
    run(&mut session, &corpus.setup);
    if storage == Storage::Checkpoint {
        session.checkpoint().unwrap();
    }
    run(&mut session, &corpus.dml);
    assert_verifies(&session, &format!("{} after its DML", corpus.label));
    if storage != Storage::Memory {
        drop(session);
        session = open();
        assert_verifies(&session, &format!("{} reopened ({storage:?})", corpus.label));
    }
    if pool == Pool::Starved {
        session.catalog.db.pager().set_capacity(4).unwrap();
        for index in session.catalog.all_indexes() {
            index.set_pool_pages(4);
        }
    }
    Realized { session, dir }
}

/// Every query of the corpus through [`check_query`], counting the cells.
fn check_corpus(corpus: &Corpus, storage: Storage, pool: Pool) -> (Vec<Divergence>, Tally) {
    let mut d = realize(corpus, storage, pool);
    let mut tally = Tally::default();
    let mut out = Vec::new();
    for query in &corpus.queries {
        out.extend(check_query(&mut d.session, query, &mut tally));
        tally.cells.extend(cells().map(|c| (c, pool, storage)));
    }
    tally.storage_joins.insert(storage, tally.twig_joins);
    tally.storage_prefilter_skipped.insert(storage, tally.prefilter_skipped);
    (out, tally)
}

fn report(failures: &[String]) -> String {
    let first = failures[..failures.len().min(8)].join("\n");
    format!("{} divergence(s), first ones:\n{first}", failures.len())
}

/// `queries` agree with navigation in every cell of `s`.
fn assert_agrees<S: AsRef<str>>(s: &mut SqlSession, queries: &[S]) {
    let failures: Vec<String> = queries
        .iter()
        .flat_map(|q| check_query(s, q.as_ref(), &mut Tally::default()))
        .map(|(_, d)| d)
        .collect();
    assert!(failures.is_empty(), "{}", report(&failures));
}

fn in_memory(corpus: &Corpus) -> Realized {
    realize(corpus, Storage::Memory, Pool::Default)
}

// ------------------------------------------------------------ the oracle

/// Check the corpora rotated over storage × pool (a short list goes round
/// until every combination ran); assert that nothing diverged and that
/// every (switch, pool, storage) cell ran.
fn check_matrix(corpora: impl IntoIterator<Item = Corpus>) -> Tally {
    let corpora: Vec<Corpus> = corpora.into_iter().collect();
    let combos: Vec<(Storage, Pool)> =
        STORAGES.iter().flat_map(|&s| POOLS.iter().map(move |&p| (s, p))).collect();
    // Corpora are independent sessions: check them two at a time.
    let runs = WorkerPool::new(2).run(corpora.len().max(combos.len()), |i| {
        let (corpus, (storage, pool)) = (&corpora[i % corpora.len()], combos[i % combos.len()]);
        let (diverged, tally) = check_corpus(corpus, storage, pool);
        let at = format!("{}, {storage:?} × {pool:?}", corpus.label);
        (diverged.into_iter().map(|(_, d)| format!("{at}, {d}")).collect::<Vec<_>>(), tally)
    });
    let (mut tally, mut failures) = (Tally::default(), Vec::new());
    for (diverged, t) in runs {
        failures.extend(diverged);
        tally.absorb(t);
    }
    assert!(failures.is_empty(), "{}", report(&failures));
    let every: BTreeSet<_> =
        cells().flat_map(|c| combos.iter().map(move |&(s, p)| (c, p, s))).collect();
    assert_eq!(every.len(), 48);
    assert_eq!(tally.cells, every, "some (switch, pool, storage) cell never ran");
    tally
}

/// The index probe: the paper's queries, and generated orders under
/// random index subsets.
#[test]
fn planned_equals_unplanned() {
    let orders = (0..12).map(|case| order_corpus(case, 4));
    let tally = check_matrix(std::iter::once(paper_corpus()).chain(orders));
    assert!(tally.nonempty > 15, "only {} queries returned items", tally.nonempty);
}

/// The narrow-vs-broad planner catalog in both catalog orders, where the
/// costed and the first-eligible rule pick different indexes.
#[test]
fn costed_plans_are_byte_identical_to_first_eligible() {
    let tally = check_matrix([planner_corpus(true), planner_corpus(false)]);
    assert!(tally.nonempty > 0, "no planner query returned items");
    assert!(tally.choices_differed > 0, "costed and rule-based choices never differed");
}

/// Documents holding `/r/n0` or `/r/n73`, three of each: the two paths'
/// hashes agree modulo 256 (both 71), so a 256-bit path signature could
/// not tell them apart. Returns the corpus and the two sibling names.
fn colliding_siblings_corpus() -> (Corpus, [String; 2]) {
    let bit = |name: &str| xqdb_storage::hash_rendered_path(&format!("/r/{name}")) % 256;
    let first = "n0".to_string();
    let other = (1..).map(|i| format!("n{i}")).find(|n| bit(n) == bit(&first)).unwrap();
    let docs: Vec<String> =
        (0..6).map(|i| format!("<r><{}/></r>", [&first, &other][i % 2])).collect();
    let queries: Vec<String> = [&first, &other].iter().map(|n| format!("{DOCS}/r/{n}")).collect();
    let queries: Vec<&str> = queries.iter().map(String::as_str).collect();
    (docs_corpus("colliding siblings", &docs, &queries), [first, other])
}

/// The path prefilter on the fixed cases and random corpora, and exact on
/// a pure child chain: it keeps precisely the rows navigation answers
/// from, on every storage.
#[test]
fn prefilter_on_equals_prefilter_off() {
    let fixed = FIXED_CASES.iter().enumerate();
    let fixed = fixed.map(|(i, (docs, q))| docs_corpus(&format!("fixed {i}"), docs, &[q]));
    let (collision, names) = colliding_siblings_corpus();
    let generated = (0..6).map(|case| generated_corpus(case, 4));
    let tally = check_matrix(fixed.chain(generated).chain([collision.clone()]));
    assert!(tally.nonempty > 5, "only {} queries returned items", tally.nonempty);
    let skipped = tally.prefilter_skipped - tally.twin_prefilter_skipped;
    assert!(skipped > 100, "prefilter rarely skipped ({skipped})");
    for storage in STORAGES {
        let skipped = tally.storage_prefilter_skipped[&storage];
        assert!(skipped > 0, "the prefilter skipped no row on {storage:?} storage");
    }
    assert_eq!(names, ["n0", "n73"]);
    for storage in STORAGES {
        let d = realize(&collision, storage, Pool::Default);
        for (query, name) in collision.queries.iter().zip(&names) {
            let want = navigate(&d.session.catalog, query).unwrap();
            assert_eq!(want, format!("<{name}/>").repeat(3), "{query}");
            let st = run_xquery_with_options(&d.session.catalog, query, &ExecOptions::default())
                .unwrap()
                .stats;
            assert_eq!(st.docs_evaluated_total(), 3, "{storage:?}: {query} fetched another row");
            assert_eq!(st.prefilter_docs_skipped, 3, "{storage:?}: {query}");
        }
    }
}

/// The same on the SQL twins, with the fixed `XMLEXISTS` predicates.
#[test]
fn sql_prefilter_on_equals_off() {
    let mut corpora: Vec<Corpus> = (6..12).map(|case| generated_corpus(case, 4)).collect();
    corpora[0].queries.extend(FIXED_SQL_PREDICATES.iter().map(|q| q.to_string()));
    let tally = check_matrix(corpora);
    let skipped = tally.twin_prefilter_skipped;
    assert!(skipped > 100, "prefilter rarely skipped an SQL row ({skipped})");
}

/// The twig join, on random corpora and after every reopen.
#[test]
fn twig_on_equals_navigation_baseline() {
    let tally = check_matrix((12..18).map(|case| generated_corpus(case, 4)));
    assert!(tally.twig_joins > 30, "twig join rarely ran ({} joins)", tally.twig_joins);
    assert!(tally.twig_skipped > 100, "twig join rarely skipped ({})", tally.twig_skipped);
    // WAL replay relabels every row through the insert path, so the twig
    // join runs after that reopen.
    for storage in [Storage::Memory, Storage::WalReplay] {
        assert!(tally.storage_joins[&storage] > 0, "no twig join ran on {storage:?} storage");
    }
    // ROADMAP item 2: a checkpoint reopen adopts rows without labels, so
    // every twig join there declines ("labels incomplete") while results
    // still match. Its fix moves `Checkpoint` into the list above.
    assert_eq!(tally.storage_joins[&Storage::Checkpoint], 0);
}

/// The same on the SQL twins.
#[test]
fn sql_twig_on_equals_off() {
    let tally = check_matrix((18..24).map(|case| generated_corpus(case, 8)));
    let joins = tally.twin_twig_joins;
    assert!(joins > 20, "twig join rarely ran on an SQL twin ({joins} joins)");
}

/// Six more corpora where the twig join skipped rows. Execution is serial,
/// so the counts have no thread count left to depend on; the name is kept
/// from the threaded runtime.
#[test]
fn twig_skip_counts_are_thread_count_independent() {
    let tally = check_matrix((24..30).map(|case| generated_corpus(case, 4)));
    assert!(tally.twig_skipped > 100, "twig join rarely skipped ({})", tally.twig_skipped);
}

/// A position on a sequence spanning documents (`xmlcolumn('S')[1]`)
/// depends on which other documents exist, so an index probe must not
/// narrow the collection first. With prices 5 and 500, the first stored
/// order has no lineitem above 100; probing `li_price` used to return the
/// first *qualifying* order's lineitem.
#[test]
fn positional_filters_over_the_collection_are_not_narrowed_by_a_probe() {
    let queries = [
        "db2-fn:xmlcolumn('DOCS.DOC')[1]//lineitem[@price > 100]",
        "db2-fn:xmlcolumn('DOCS.DOC')[last()]//lineitem[@price < 100]",
        "db2-fn:xmlcolumn('DOCS.DOC')[position() = 1]//lineitem[@price > 100]",
        "(db2-fn:xmlcolumn('DOCS.DOC')//lineitem)[1][@price > 100]",
        "let $c := db2-fn:xmlcolumn('DOCS.DOC') return $c[1]//lineitem[@price > 100]",
    ];
    let filtered = "db2-fn:xmlcolumn('DOCS.DOC')[order]//lineitem[@price > 100]";
    let docs = [
        r#"<order><lineitem price="5"/></order>"#,
        r#"<order><lineitem price="500"/></order>"#,
    ];
    let mut corpus = docs_corpus("positional", &docs, &queries);
    corpus.setup.push(LI_PRICE.to_string());
    corpus.queries.push(filtered.to_string());
    let mut d = in_memory(&corpus);
    assert_eq!(navigate(&d.session.catalog, queries[0]).unwrap(), "");
    assert_agrees(&mut d.session, &corpus.queries);
    for q in &corpus.queries {
        let out = run_xquery_with_options(&d.session.catalog, q, &ExecOptions::default());
        // Only the per-document filter on the collection probes.
        assert_eq!(out.unwrap().stats.index_probes, usize::from(q == filtered), "{q}");
    }
}

const LI_PRICE: &str =
    "CREATE INDEX li_price ON docs(doc) USING XMLPATTERN '//lineitem/@price' AS double";

/// An aggregate evaluated per tuple is never empty (`count(())` is `0`),
/// so a predicate inside one cannot eliminate the tuple's document. Only a
/// root-level aggregate, evaluated once over the whole collection, filters
/// by its argument. With lineitem prices 250, 5 and none, an index probe
/// used to keep only the first order.
#[test]
fn per_tuple_aggregates_are_not_narrowed_by_a_probe() {
    let each = "for $o in db2-fn:xmlcolumn('DOCS.DOC')/order return";
    let queries = [
        format!("{each} count($o/lineitem[@price > 100])"),
        format!("{each} empty($o/lineitem[@price > 100])"),
        format!("{each} sum($o/lineitem[@price > 100]/@price) + 1"),
    ];
    let queries: Vec<&str> = queries.iter().map(String::as_str).collect();
    let docs = [
        r#"<order><lineitem price="250"/></order>"#,
        r#"<order><lineitem price="5"/></order>"#,
        "<order/>",
    ];
    let mut corpus = docs_corpus("per-tuple", &docs, &queries);
    corpus.setup.push(LI_PRICE.to_string());
    let mut d = in_memory(&corpus);
    let navigated: Vec<String> =
        queries.iter().map(|q| navigate(&d.session.catalog, q).unwrap()).collect();
    assert_eq!(navigated, ["1 0 0", "false true true", "251 1 1"]);
    assert_agrees(&mut d.session, &queries);
    // The SQL twin of the first query keeps every row.
    let twin = sql_twin(&d.session.catalog, queries[0]).unwrap();
    assert_eq!(d.session.execute(&twin.sql).unwrap().rows.len(), 3, "{}", twin.sql);
}

// ------------------------------------------------------ planted false negatives

/// Overwrite every occurrence of `from` with `to` (same length) on the
/// table's heap pages, behind the back of every derived structure: the
/// stored records change, the postings, labels and indexes do not.
fn rewrite_records(s: &SqlSession, table: &str, from: &str, to: &str) -> usize {
    let (from, to) = (from.as_bytes(), to.as_bytes());
    assert_eq!(from.len(), to.len());
    let mut n = 0;
    for &pid in s.catalog.db.table(table).unwrap().heap_pages() {
        let pager = s.catalog.db.pager();
        pager
            .with_page_mut(pid, |buf| {
                let mut at = 0;
                while let Some(pos) = buf[at..].windows(from.len()).position(|w| w == from) {
                    buf[at + pos..at + pos + to.len()].copy_from_slice(to);
                    at += pos + to.len();
                    n += 1;
                }
            })
            .unwrap();
    }
    n
}

fn diverging_cells(s: &mut SqlSession, query: &str) -> BTreeSet<Cell> {
    check_query(s, query, &mut Tally::default()).into_iter().map(|(cell, _)| cell).collect()
}

/// Row 0 is stored as `<order><itam/></order>` and then renamed in place
/// to `<item/>`: its postings and labels still lack `/order/item`.
fn renamed_session() -> Realized {
    let docs = ["<order><itam/></order>", "<order><item/></order>"];
    let d = in_memory(&docs_corpus("renamed", &docs, &[]));
    assert_eq!(rewrite_records(&d.session, "DOCS", "<itam/>", "<item/>"), 1);
    d
}

#[test]
fn planted_prefilter_false_negative_fires_in_the_prefilter_cells() {
    let mut d = renamed_session();
    // A rooted child chain: the twig join leaves it to the prefilter.
    let diverged = diverging_cells(&mut d.session, "db2-fn:xmlcolumn('DOCS.DOC')/order/item");
    assert_eq!(diverged, cells().filter(|c| c.prefilter).collect());
}

#[test]
fn planted_twig_false_negative_fires_in_the_twig_cells() {
    let mut d = renamed_session();
    // A descendant pattern: the rooted path prefilter cannot take it.
    let diverged = diverging_cells(&mut d.session, "db2-fn:xmlcolumn('DOCS.DOC')//order[item]");
    assert_eq!(diverged, cells().filter(|c| c.twig).collect());
}

#[test]
fn planted_cost_false_negative_fires_in_the_cost_cells() {
    // The narrow index is built, then one lineitem price is rewritten from
    // 100.25 to 900.25, then the broad index is built from the rewritten
    // records under a name that sorts first. Only the costed choice (the
    // narrow index) reads the stale entry.
    let mut corpus = planner_corpus(false);
    let broad = corpus.setup.iter().position(|s| s.contains("idx_a_broad")).unwrap();
    let broad = corpus.setup.remove(broad);
    let fees = "<fee price=\"1.00\"/>".repeat(8);
    let order = format!("<order><custid>1</custid><lineitem price=\"100.25\"/>{fees}</order>");
    corpus.setup.push(insert("orders", 999, &order));
    let mut d = in_memory(&corpus);
    let (from, to) = ("lineitem price=\"100.25\"", "lineitem price=\"900.25\"");
    assert_eq!(rewrite_records(&d.session, "ORDERS", from, to), 1);
    d.session.execute(&broad).unwrap();
    let diverged = diverging_cells(&mut d.session, PLANNER_QUERIES[0]);
    assert_eq!(diverged, cells().filter(|c| c.cost).collect());
}

// ------------------------------------------------------------ narrowing

/// The join's candidates do not depend on whether an earlier stage
/// narrowed its input: a source narrowed by an index probe (galloping
/// through the survivors) and the same source unnarrowed (starting from
/// the rarest posting list) must keep the same rows and evaluate the same
/// documents, also after deletes and replaces have rewritten runs and
/// postings in the middle of the rowid domain. Every document sits under
/// `<wrap k="1">`, so the value index on `/wrap/@k` returns every live row.
#[test]
fn twig_narrowed_and_unnarrowed_agree_after_dml() {
    let mut joined = 0u64;
    let mut skipped = 0usize;
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xA77 ^ case);
        let mut wrapped = || format!("<wrap k=\"1\">{}</wrap>", gen_doc(&mut rng));
        let docs: Vec<String> = (0..30).map(|_| wrapped()).collect();
        let replacements: Vec<String> = (0..6).map(|_| wrapped()).collect();
        let mut plain = docs_corpus(&format!("wrapped {case}"), &docs, &[]);
        for doc in replacements {
            plain.dml.push(format!("DELETE FROM docs WHERE id = {}", rng.random_range(0..30)));
            let id = rng.random_range(0..30);
            plain.dml.push(format!("UPDATE docs SET doc = '{doc}' WHERE id = {id}"));
        }
        let query = format!("{DOCS}/wrap[@k = 1]{}", gen_path(&mut rng, ""));
        let mut narrowed = plain.clone();
        narrowed
            .setup
            .insert(1, "CREATE INDEX k ON docs(doc) USING XMLPATTERN '/wrap/@k' AS double".into());
        let opts = ExecOptions { prefilter: false, ..ExecOptions::default() };
        let run = |c: &Corpus| {
            run_xquery_with_options(&in_memory(c).session.catalog, &query, &opts)
        };
        let (a, b) = match (run(&narrowed), run(&plain)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(_), Err(_)) => continue,
            (a, b) => panic!("case {case}: error asymmetry {:?} vs {:?}\n{query}", a.err(), b.err())
        };
        assert!(a.stats.index_probes > 0 && b.stats.index_probes == 0, "case {case}: {query}");
        assert_eq!(
            xqdb_xmlparse::serialize_sequence(&a.sequence),
            xqdb_xmlparse::serialize_sequence(&b.sequence),
            "case {case}: results diverged\n{query}"
        );
        // The rows evaluated are the live rows every stage kept; the
        // twig accounting (joins, candidates, skips) matches too.
        assert_eq!(kept(&a.stats)[2..], kept(&b.stats)[2..], "case {case}: kept rows\n{query}");
        joined += a.stats.twig_joins;
        skipped += a.stats.twig_docs_skipped;
    }
    assert!(joined > 10, "twig join rarely planned ({joined} joins)");
    assert!(skipped > 0, "twig join never skipped a document");
}

// ------------------------------------------------------------- the planner

/// Render every compiled access of the plan (probe descriptions name the
/// chosen indexes).
fn chosen_accesses(c: &Catalog, query: &str, use_cost: bool) -> String {
    let q = xqdb_xquery::parse_query(query).unwrap();
    let plan =
        plan_query_costed(c, q, &AnalysisEnv::new(), &xqdb_obs::Trace::disabled(), use_cost);
    plan.access
        .sources
        .iter()
        .filter_map(|a| a.index.as_ref())
        .map(|ic| ic.render())
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn costed_choice_is_order_independent_and_rule_based_is_not() {
    let (narrow, broad) = (in_memory(&planner_corpus(true)), in_memory(&planner_corpus(false)));
    let (narrow_first, broad_first) = (&narrow.session.catalog, &broad.session.catalog);
    let q = PLANNER_QUERIES[0];
    // Costed: the narrow index wins under both catalog orders.
    for c in [narrow_first, broad_first] {
        let chosen = chosen_accesses(c, q, true);
        assert!(
            chosen.contains("NARROW") && !chosen.contains("BROAD"),
            "costed planner must pick the narrow index, got: {chosen}"
        );
    }
    // Rule-based: whatever is first in the catalog wins — the behavior
    // cost replaces.
    assert!(chosen_accesses(narrow_first, q, false).contains("NARROW"));
    assert!(chosen_accesses(broad_first, q, false).contains("BROAD"));
    // Plan-cache regression: the cost flag is part of the cache key, so
    // a cost-off run must not leave a rule-based plan that a later
    // cost-on run silently reuses.
    let off_opts = ExecOptions { cost: false, ..ExecOptions::default() };
    let off = run_xquery_with_options(broad_first, q, &off_opts).unwrap();
    assert_eq!(off.stats.plans_costed, 0, "cost-off run must not cost");
    let on = run_xquery_with_options(broad_first, q, &ExecOptions::default()).unwrap();
    assert_eq!(on.stats.plans_costed, 1, "cost-on run reused the cost-off cached plan");
}

#[test]
fn sql_front_end_costs_orders_independently_and_reports_estimates() {
    let sql = "SELECT ordid FROM orders \
               WHERE XMLEXISTS('$o//lineitem[@price > 500]' passing orddoc as \"o\")";
    let mut on = in_memory(&planner_corpus(false));
    let explain = on.session.execute(&format!("EXPLAIN {sql}")).unwrap().message.unwrap();
    assert!(
        explain.contains("NARROW") && !explain.contains("PROBE IDX_A_BROAD"),
        "SQL costed plan must pick the narrow index despite catalog order:\n{explain}"
    );
    assert!(explain.contains("cost decisions:"), "EXPLAIN carries cost notes:\n{explain}");
    let analyze = on.session.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap().message.unwrap();
    assert!(
        analyze.contains("cost: est "),
        "EXPLAIN ANALYZE carries est-vs-actual cardinality:\n{analyze}"
    );
    // The cost-off twin takes the first-created (broad) index yet returns
    // byte-identical rows.
    let mut off = in_memory(&planner_corpus(false));
    off.session.access.cost = false;
    let off_explain = off.session.execute(&format!("EXPLAIN {sql}")).unwrap().message.unwrap();
    assert!(off_explain.contains("PROBE IDX_A_BROAD"), "rule-based twin:\n{off_explain}");
    assert_eq!(
        on.session.execute(sql).unwrap().render(),
        off.session.execute(sql).unwrap().render(),
        "SQL rows must not depend on the cost layer"
    );
}

// ------------------------------------------------------ estimator bounds

fn stats_over(values: &[f64]) -> ValueStats {
    let mut s = ValueStats::default();
    for v in values {
        s.observe(&v.to_string());
    }
    s
}

/// The histogram envelope of a closed range: (mass of buckets fully inside
/// it, mass of buckets it touches). Both the estimator's answer and the
/// true count must lie between the two — that is the bounded-error
/// property of a bucketed histogram.
fn envelope(s: &ValueStats, lo: f64, hi: f64) -> (f64, f64) {
    let mut full = 0.0;
    let mut touched = 0.0;
    for (b, n) in s.buckets() {
        if b == 0 {
            if lo <= 0.0 && hi >= 0.0 {
                full += n as f64;
                touched += n as f64;
            }
            continue;
        }
        let (blo, bhi) = bucket_bounds(b);
        if blo < hi && lo < bhi {
            touched += n as f64;
            if lo <= blo && bhi <= hi {
                full += n as f64;
            }
        }
    }
    (full, touched)
}

fn check_estimator(values: &[f64], seed: u64, label: &str) {
    let s = stats_over(values);
    // Unbounded range: the estimate is exactly the numeric population.
    let all = s.estimate_range(None, None);
    assert!(
        (all - s.numeric() as f64).abs() < 1e-6,
        "{label}: unbounded estimate {all} != numeric count {}",
        s.numeric()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for probe in 0..200 {
        let a: f64 = rng.random_range(-10.0..1100.0);
        let b: f64 = rng.random_range(-10.0..1100.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let est = s.estimate_range(Some(lo), Some(hi));
        let actual = values.iter().filter(|v| **v >= lo && **v <= hi).count() as f64;
        let (full, touched) = envelope(&s, lo, hi);
        for (what, x) in [("estimate", est), ("true count", actual)] {
            assert!(
                x >= full - 1e-6 && x <= touched + 1e-6,
                "{label} probe {probe}: {what} {x} outside envelope [{full}, {touched}] for [{lo}, {hi}]"
            );
        }
        // Together: |est - actual| <= touched - full (the boundary mass).
    }
    // Point estimates: an observed value estimates at least one row and
    // never more than the whole population.
    for v in values.iter().take(25) {
        let eq = s.estimate_eq(*v);
        assert!(
            eq >= 1.0 && eq <= s.total() as f64,
            "{label}: eq estimate {eq} for present value {v} outside [1, total]"
        );
    }
}

#[test]
fn estimator_error_is_bounded_on_uniform_data() {
    let mut rng = StdRng::seed_from_u64(0xE57_0001);
    let values: Vec<f64> = (0..600).map(|_| rng.random_range(0.0..1000.0)).collect();
    check_estimator(&values, 11, "uniform");
}

#[test]
fn estimator_error_is_bounded_on_skewed_data() {
    let mut rng = StdRng::seed_from_u64(0xE57_0002);
    // Heavy skew toward small values (r^6), plus a duplicated point mass
    // and some zeros — the shapes that break equi-width histograms.
    let mut values: Vec<f64> = (0..500)
        .map(|_| {
            let r: f64 = rng.random_range(0.0..1.0);
            1000.0 * r * r * r * r * r * r
        })
        .collect();
    values.extend(std::iter::repeat_n(42.5, 80));
    values.extend(std::iter::repeat_n(0.0, 20));
    check_estimator(&values, 13, "skewed");
}

#[test]
fn distinct_sketch_estimates_within_a_small_factor() {
    for &k in &[5usize, 20, 40] {
        let mut s = ValueStats::default();
        for i in 0..k {
            // Each distinct value observed several times: distinct count
            // must track values, not occurrences.
            for _ in 0..3 {
                s.observe(&format!("value-{i}"));
            }
        }
        let est = s.distinct_estimate();
        let k = k as f64;
        assert!(
            est >= k / 2.0 && est <= 2.0 * k + 8.0,
            "distinct estimate {est} too far from true {k}"
        );
    }
}

// --------------------------------------------------- churn rebuild-equality

#[test]
fn stats_rebuild_equal_after_random_churn() {
    for seed in [1u64, 7, 42] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Catalog::new();
        c.create_table(Table::new(
            "orders",
            vec![Column::new("ordid", SqlType::Integer), Column::new("orddoc", SqlType::Xml)],
        ))
        .unwrap();
        c.create_index("idx_price", "orders", "orddoc", "//lineitem/@price", "double").unwrap();
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        let doc = |rng: &mut StdRng| {
            let price: f64 = rng.random_range(0.0..1000.0);
            // A polluted price counts toward totals, not the histogram.
            let unit = if rng.random_bool(0.1) { " USD" } else { "" };
            let text = format!("<order><lineitem price=\"{price:.2}{unit}\"/></order>");
            xqdb_xmlparse::parse_document(&text).unwrap().root()
        };
        for step in 0..150 {
            let r: f64 = rng.random_range(0.0..1.0);
            if live.len() < 5 || r < 0.5 {
                let d = doc(&mut rng);
                c.insert("orders", vec![SqlValue::Integer(next as i64), SqlValue::Xml(d)])
                    .unwrap();
                live.push(next);
                next += 1;
            } else if r < 0.75 {
                let rid = live.swap_remove(rng.random_range(0..live.len()));
                c.delete("orders", &[rid]).unwrap();
            } else {
                let rid = live[rng.random_range(0..live.len())];
                let d = doc(&mut rng);
                c.replace("orders", rid, vec![SqlValue::Integer(rid as i64), SqlValue::Xml(d)])
                    .unwrap();
            }
            // Spot-check mid-history a few times, not only at the end.
            if step % 50 == 49 {
                let report = verify_derived_state(&c).unwrap();
                assert!(report.is_clean(), "seed {seed} step {step}:\n{}", report.render());
            }
        }
        let report = verify_derived_state(&c).unwrap();
        assert!(report.is_clean(), "seed {seed} final:\n{}", report.render());
        let t = c.db.table("orders").unwrap();
        assert!(
            t.synopsis().stats_complete(),
            "seed {seed}: churn through the catalog must keep stats complete"
        );
    }
}

