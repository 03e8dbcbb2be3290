//! Observability consistency: the metrics registry, `EXPLAIN ANALYZE`
//! reports and the returned [`ExecStats`] are three views of one execution
//! and must reconcile **exactly** — for every paper query family (indexed
//! hit, Tip-disqualified full scan, fault-degraded probe), on both the
//! XQuery and SQL/XML front ends.

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use xqdb_core::{
    explain_analyze_xquery, plan_query, run_xquery_with_options, AnalysisEnv, Catalog,
    ExecOptions, ExecStats, Obs, ObsConfig, SqlSession,
};
use xqdb_obs::{Counter, Gauge, Histogram, MetricsSnapshot};
use xqdb_xdm::{FaultInjector, FaultMode};
use xqdb_workload::{create_paper_schema, load_orders, OrderParams};

/// A populated orders catalog; `index_ty` selects the paper's price index
/// type (`None` = no index).
fn orders_catalog(n: usize, index_ty: Option<&str>) -> Catalog {
    let mut c = Catalog::new();
    create_paper_schema(&mut c);
    load_orders(&mut c, n, OrderParams::default());
    if let Some(ty) = index_ty {
        c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", ty)
            .expect("index DDL is valid");
    }
    c
}

fn snap(obs: &Obs) -> MetricsSnapshot {
    obs.metrics_snapshot().expect("metrics are enabled in this test")
}

/// The reconciliation assertion: every execution counter's delta equals the
/// corresponding [`ExecStats`] field, and the query histogram counted the
/// run.
fn assert_registry_matches_stats(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    stats: &ExecStats,
    label: &str,
) {
    let delta = |c: Counter| after.counter(c) - before.counter(c);
    assert_eq!(delta(Counter::QueriesExecuted), 1, "{label}: queries executed");
    assert_eq!(
        delta(Counter::IndexEntriesScanned),
        stats.index_entries_scanned as u64,
        "{label}: index entries scanned"
    );
    assert_eq!(delta(Counter::IndexProbes), stats.index_probes as u64, "{label}: index probes");
    assert_eq!(
        delta(Counter::IndexProbeFaults),
        stats.index_faults as u64,
        "{label}: index probe faults"
    );
    assert_eq!(
        delta(Counter::DegradationsToScan),
        stats.degraded_sources.len() as u64,
        "{label}: degradations"
    );
    assert_eq!(
        delta(Counter::DocsEvaluated),
        stats.docs_evaluated_total() as u64,
        "{label}: documents evaluated"
    );
    assert_eq!(
        delta(Counter::XmlDocsParsed),
        stats.xml_docs_parsed,
        "{label}: xml documents parsed"
    );
    assert_eq!(delta(Counter::EvalSteps), stats.steps_used, "{label}: eval steps");
    assert_eq!(
        delta(Counter::ScalarRowsSkipped),
        stats.scalar_rows_skipped as u64,
        "{label}: scalar rows skipped"
    );
    assert_eq!(
        delta(Counter::PrefilterDocsSkipped),
        stats.prefilter_docs_skipped as u64,
        "{label}: prefilter docs skipped"
    );
    assert_eq!(
        delta(Counter::PlanCacheHits),
        stats.plan_cache_hits,
        "{label}: plan cache hits"
    );
    assert_eq!(
        delta(Counter::PlanCacheMisses),
        stats.plan_cache_misses,
        "{label}: plan cache misses"
    );
    assert_eq!(
        delta(Counter::BtreeNodeTouches),
        stats.btree_nodes_touched as u64,
        "{label}: btree nodes touched"
    );
    assert_eq!(
        delta(Counter::BufferPoolHits),
        stats.buffer_pool_hits,
        "{label}: buffer pool hits"
    );
    assert_eq!(
        delta(Counter::BufferPoolMisses),
        stats.buffer_pool_misses,
        "{label}: buffer pool misses"
    );
    assert_eq!(delta(Counter::PagesEvicted), stats.pages_evicted, "{label}: pages evicted");
    assert_eq!(
        delta(Counter::PlansCosted),
        stats.plans_costed,
        "{label}: plans costed"
    );
    assert_eq!(
        delta(Counter::IndexCandidatesCosted),
        stats.index_candidates_costed,
        "{label}: index candidates costed"
    );
    assert_eq!(
        delta(Counter::MultiIndexIntersections),
        stats.multi_index_intersections,
        "{label}: multi-index intersections"
    );
    assert_eq!(delta(Counter::TwigJoinsExecuted), stats.twig_joins, "{label}: twig joins");
    assert_eq!(
        delta(Counter::TwigCandidates),
        stats.twig_candidates as u64,
        "{label}: twig candidates"
    );
    assert_eq!(
        delta(Counter::TwigDocsSkipped),
        stats.twig_docs_skipped as u64,
        "{label}: twig docs skipped"
    );
    assert_eq!(
        after.histogram(Histogram::QueryNanos).count - before.histogram(Histogram::QueryNanos).count,
        1,
        "{label}: query histogram count"
    );
    assert_eq!(
        after.histogram(Histogram::ProbeNanos).count
            - before.histogram(Histogram::ProbeNanos).count,
        stats.index_probes as u64 + stats.index_faults as u64,
        "{label}: probe histogram count"
    );
}

/// Every `COUNTERS` line an `EXPLAIN ANALYZE` report must carry, rendered
/// from the stats the run returned — the report and the stats must agree
/// verbatim.
fn expected_counter_lines(stats: &ExecStats) -> Vec<String> {
    let mut lines = vec![
        format!("  index probes: {}\n", stats.index_probes),
        format!("  index entries scanned: {}\n", stats.index_entries_scanned),
        format!("  btree nodes touched: {}\n", stats.btree_nodes_touched),
        format!(
            "  buffer pool: {} hit(s), {} miss(es), {} eviction(s)\n",
            stats.buffer_pool_hits, stats.buffer_pool_misses, stats.pages_evicted
        ),
        format!(
            "  documents evaluated: {} of {}\n",
            stats.docs_evaluated_total(),
            stats.docs_total.values().sum::<usize>()
        ),
        format!("  xml docs parsed: {}\n", stats.xml_docs_parsed),
        format!("  scalar rows skipped: {}\n", stats.scalar_rows_skipped),
        format!("  prefilter docs skipped: {}\n", stats.prefilter_docs_skipped),
        format!(
            "  twig joins: {} ({} candidate(s), {} skipped)\n",
            stats.twig_joins, stats.twig_candidates, stats.twig_docs_skipped
        ),
        format!(
            "  plan cache: {} hit(s), {} miss(es)\n",
            stats.plan_cache_hits, stats.plan_cache_misses
        ),
        format!("  eval steps: {}\n", stats.steps_used),
        format!(
            "  index faults: {} (degraded to scan: {})\n",
            stats.index_faults,
            stats.degraded_sources.len()
        ),
    ];
    // The cost line only appears when the planner actually costed the plan.
    if stats.plans_costed > 0 {
        lines.push(format!(
            "  cost: est {} row(s), actual {} ({} candidate(s) scored, {} intersection(s))\n",
            stats.cost_est_rows,
            stats.cost_actual_rows,
            stats.index_candidates_costed,
            stats.multi_index_intersections
        ));
    }
    lines
}

/// One family of the matrix: build a catalog, run its query under a shared
/// observability handle, and check the three-way reconciliation.
fn check_family(make_catalog: impl Fn() -> Catalog, query: &str, tag: &str) {
    let obs = Obs::new(ObsConfig::enabled());
    let mut catalog = make_catalog();
    catalog.obs = obs.clone();
    let opts = ExecOptions { obs: obs.clone(), ..ExecOptions::default() };

    // Registry vs returned stats.
    let before = snap(&obs);
    let out = run_xquery_with_options(&catalog, query, &opts).expect("query runs");
    let after = snap(&obs);
    assert_registry_matches_stats(&before, &after, &out.stats, tag);
    assert!(out.trace.enabled(), "{tag}: tracing was requested");
    assert!(
        out.trace.finished_spans().iter().any(|s| s.name == "scan"),
        "{tag}: the scan span is recorded"
    );

    // EXPLAIN ANALYZE report vs its own returned stats, and vs a second
    // registry delta (EXPLAIN ANALYZE executes for real).
    let before = snap(&obs);
    let (report, out2) =
        explain_analyze_xquery(&catalog, query, &opts).expect("explain analyze runs");
    let after = snap(&obs);
    assert_registry_matches_stats(&before, &after, &out2.stats, tag);
    for line in expected_counter_lines(&out2.stats) {
        assert!(
            report.contains(&line),
            "{tag}: EXPLAIN ANALYZE must carry the exact stats line {line:?} — report:\n{report}"
        );
    }
    assert!(report.contains("EXECUTION\n"), "{tag}: report has the trace section");
}

#[test]
fn indexed_hit_reconciles() {
    check_family(
        || orders_catalog(120, Some("double")),
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 900]",
        "indexed hit",
    );
}

#[test]
fn tip_disqualified_scan_reconciles_and_names_the_tip() {
    // A numeric predicate against a varchar index: Tip 1 (Section 3.1).
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 900]";
    check_family(|| orders_catalog(80, Some("varchar")), q, "tip-disqualified");
    // And the doctor names the pitfall in the report.
    let catalog = orders_catalog(20, Some("varchar"));
    let (report, out) =
        explain_analyze_xquery(&catalog, q, &ExecOptions::default()).expect("runs");
    assert_eq!(out.stats.index_probes, 0, "a disqualified index must not be probed");
    assert!(report.contains("QUERY DOCTOR\n"), "report:\n{report}");
    assert!(
        report.contains("index `LI_PRICE` not used: Tip 1 (type-mismatch)"),
        "the doctor must name Tip 1 — report:\n{report}"
    );
}

#[test]
fn fault_degraded_probe_reconciles() {
    check_family(
        || {
            let mut c = orders_catalog(80, Some("double"));
            c.set_index_fault_injector(Some(Arc::new(FaultInjector::new(FaultMode::Always))));
            c
        },
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 900]",
        "fault-degraded",
    );
}

/// Synopsis statistics are maintained on every insert and delete, so a
/// plan costed in the same statement cannot be stale: a far-off estimate
/// is then blamed on the estimator's resolution. Only a plan served from
/// the plan cache keeps the staleness hint. The Section 2.1 `@price > 100`
/// queries estimate well enough to draw no diagnosis at all.
#[test]
fn misestimate_advice_blames_staleness_only_on_cached_plans() {
    let catalog = orders_catalog(5_000, Some("double"));
    let opts = ExecOptions::default();
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 998]";
    let (fresh, out) = explain_analyze_xquery(&catalog, q, &opts).expect("runs");
    assert_eq!(out.stats.plan_cache_misses, 1);
    assert!(fresh.contains("rule cost-resolution"), "report:\n{fresh}");
    assert!(!fresh.contains("stale"), "a plan costed just now is not stale:\n{fresh}");
    let (cached, out) = explain_analyze_xquery(&catalog, q, &opts).expect("runs");
    assert_eq!(out.stats.plan_cache_hits, 1);
    assert!(cached.contains("rule cost-misestimate"), "report:\n{cached}");
    assert!(cached.contains("statistics may be stale"), "report:\n{cached}");
    for q in [
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 100]",
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]",
    ] {
        let (report, out) = explain_analyze_xquery(&catalog, q, &opts).expect("runs");
        assert!(out.stats.plans_costed > 0 && out.stats.index_probes > 0, "{q}");
        assert!(!report.contains("QUERY DOCTOR"), "{q} needs no diagnosis:\n{report}");
    }
}

#[test]
fn missing_index_gets_a_doctor_line() {
    let catalog = orders_catalog(10, None);
    let (report, _) = explain_analyze_xquery(
        &catalog,
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 900]",
        &ExecOptions::default(),
    )
    .expect("runs");
    assert!(
        report.contains("no index used: rule no-index"),
        "report:\n{report}"
    );
}

#[test]
fn sql_explain_analyze_reconciles_with_registry() {
    let obs = Obs::new(ObsConfig::enabled());
    let mut s = SqlSession::new();
    s.set_obs(obs.clone());
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    for i in 0..40 {
        s.execute(&format!(
            r#"INSERT INTO orders VALUES ({i}, '<order><lineitem price="{}"/></order>')"#,
            i * 25
        ))
        .unwrap();
    }
    let tag = "sql explain analyze";
    let before = snap(&obs);
    let result = s
        .execute(
            "EXPLAIN ANALYZE SELECT ordid FROM orders \
             WHERE XMLEXISTS('$o//lineitem[@price > 500]' passing orddoc as \"o\")",
        )
        .expect("explain analyze select runs");
    let after = snap(&obs);
    let report = result.message.expect("explain analyze returns a report");
    // The statement counter moved; the execution counters reconcile.
    assert_eq!(
        after.counter(Counter::SqlStatements) - before.counter(Counter::SqlStatements),
        1,
        "{tag}: one SQL statement"
    );
    for line in expected_counter_lines(&result.stats) {
        assert!(
            report.contains(&line),
            "{tag}: report must carry {line:?} — report:\n{report}"
        );
    }
    let delta = |c: Counter| after.counter(c) - before.counter(c);
    assert_eq!(
        delta(Counter::IndexEntriesScanned),
        result.stats.index_entries_scanned as u64,
        "{tag}: entries scanned"
    );
    assert_eq!(
        delta(Counter::IndexProbes),
        result.stats.index_probes as u64,
        "{tag}: probes"
    );
    assert_eq!(
        delta(Counter::DocsEvaluated),
        result.stats.docs_evaluated_total() as u64,
        "{tag}: documents evaluated"
    );
    assert_eq!(
        delta(Counter::XmlDocsParsed),
        result.stats.xml_docs_parsed,
        "{tag}: xml documents parsed"
    );
    assert!(result.stats.index_probes > 0, "{tag}: the probe actually ran");
    assert!(report.contains("-- executed:"), "{tag}: report ends with the row count");
}

#[test]
fn xquery_and_sql_twins_charge_the_same_documents_and_pages() {
    // One access pipeline serves both front ends: the same index plan over
    // the same catalog must evaluate the same documents and touch the same
    // pages whichever front end sent it.
    let mut s = SqlSession::new();
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    for i in 0..260 {
        s.execute(&format!(
            r#"INSERT INTO orders VALUES ({i}, '<order><lineitem price="{}"/></order>')"#,
            i * 4
        ))
        .unwrap();
    }
    let xq = run_xquery_with_options(
        &s.catalog,
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 998]",
        &ExecOptions::default(),
    )
    .expect("xquery runs");
    let sql = s
        .execute(
            "SELECT ordid FROM orders \
             WHERE XMLEXISTS('$o//lineitem[@price > 998]' passing orddoc as \"o\")",
        )
        .expect("sql runs");
    assert_eq!(xq.sequence.len(), 10);
    assert_eq!(sql.rows.len(), 10);
    assert_eq!(xq.stats.docs_evaluated_total(), 10, "only the survivors are evaluated");
    assert_eq!(sql.stats.docs_evaluated_total(), xq.stats.docs_evaluated_total());
    assert_eq!(sql.stats.docs_evaluated.get("ORDERS"), Some(&10), "SQL keys by table");
    let pages = |st: &ExecStats| st.buffer_pool_hits + st.buffer_pool_misses;
    assert!(pages(&xq.stats) > 0, "probes and fetches touch pages");
    assert_eq!(pages(&sql.stats), pages(&xq.stats), "both front ends fetch the same pages");

    // After a DELETE, an unnarrowed source's prefilter walks live rows
    // only: a deleted rowid is no document, so neither front end counts
    // it as evaluated.
    let mut s = SqlSession::new();
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    for i in 0..20 {
        let doc = if i % 2 == 0 {
            format!("<order><promo><code>c{i}</code></promo></order>")
        } else {
            format!("<order><custid>{i}</custid></order>")
        };
        s.execute(&format!("INSERT INTO orders VALUES ({i}, '{doc}')")).unwrap();
    }
    s.execute("DELETE FROM orders WHERE ordid < 10").unwrap();
    let xq = run_xquery_with_options(
        &s.catalog,
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[promo/code]",
        &ExecOptions::default(),
    )
    .expect("xquery runs");
    let sql = s
        .execute(
            "SELECT ordid FROM orders \
             WHERE XMLEXISTS('$o/order[promo/code]' passing orddoc as \"o\")",
        )
        .expect("sql runs");
    assert_eq!(xq.sequence.len(), 5);
    assert_eq!(sql.rows.len(), 5);
    for (front, st) in [("xquery", &xq.stats), ("sql", &sql.stats)] {
        let total: usize = st.docs_total.values().sum();
        assert_eq!(st.docs_evaluated_total(), 5, "{front}: only the live promo orders");
        assert_eq!(total, 10, "{front}: the live rows");
        assert!(st.docs_evaluated_total() <= total, "{front}");
        assert_eq!(st.prefilter_docs_skipped, 5, "{front}: the live promo-less orders");
    }
}

#[test]
fn sql_boolean_xmlexists_diagnosed_as_tip_3() {
    let mut s = SqlSession::new();
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    s.execute(r#"INSERT INTO orders VALUES (1, '<order><lineitem price="9"/></order>')"#)
        .unwrap();
    // The boolean form of XMLEXISTS is constant-true (Section 3.2, Tip 3).
    let result = s
        .execute(
            "EXPLAIN ANALYZE SELECT ordid FROM orders \
             WHERE XMLEXISTS('$o//lineitem/@price > 5' passing orddoc as \"o\")",
        )
        .expect("runs");
    let report = result.message.expect("report");
    assert!(report.contains("QUERY DOCTOR\n"), "report:\n{report}");
    assert!(
        report.contains("Tip 3 (boolean-xmlexists)"),
        "the doctor must name Tip 3 — report:\n{report}"
    );
}

#[test]
fn index_build_counter_tracks_backfill_and_maintenance() {
    let obs = Obs::new(ObsConfig::metrics_only());
    let mut s = SqlSession::new();
    s.set_obs(obs.clone());
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute(
        r#"INSERT INTO orders VALUES (1, '<order><lineitem price="1"/><lineitem price="2"/></order>')"#,
    )
    .unwrap();
    // Back-fill: two entries from the pre-existing row.
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    assert_eq!(snap(&obs).counter(Counter::IndexEntriesBuilt), 2);
    // Maintenance on insert: one more entry.
    s.execute(r#"INSERT INTO orders VALUES (2, '<order><lineitem price="3"/></order>')"#)
        .unwrap();
    assert_eq!(snap(&obs).counter(Counter::IndexEntriesBuilt), 3);
}

#[test]
fn prefiltered_scan_reconciles() {
    // An unindexed selective query: the structural pre-filter skips every
    // document lacking /order/promo/code, and the skip count reconciles
    // across registry, stats and report (asserted by check_family).
    check_family(
        || {
            let mut c = Catalog::new();
            create_paper_schema(&mut c);
            load_orders(&mut c, 60, OrderParams::default());
            for i in 0..4 {
                let doc = xqdb_xmlparse::parse_document(&format!(
                    "<order><promo><code>P{i}</code></promo></order>"
                ))
                .unwrap();
                c.insert(
                    "orders",
                    vec![
                        xqdb_storage::SqlValue::Integer(1000 + i),
                        xqdb_storage::SqlValue::Xml(doc.root()),
                    ],
                )
                .unwrap();
            }
            c
        },
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[promo/code]",
        "prefiltered scan",
    );
    // And the skip was real: the workload's orders have no promo element.
    let mut c = Catalog::new();
    create_paper_schema(&mut c);
    load_orders(&mut c, 60, OrderParams::default());
    let out = run_xquery_with_options(
        &c,
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[promo/code]",
        &ExecOptions::default(),
    )
    .expect("runs");
    assert_eq!(out.stats.prefilter_docs_skipped, 60, "all 60 docs lack /order/promo/code");
    assert_eq!(out.stats.docs_evaluated_total(), 0);
}

#[test]
fn twig_joined_scan_reconciles() {
    // A descendant-axis branching query over a structurally mixed
    // collection: the twig join skips every synthetic order (none has a
    // `remark` under a lineitem), and all three twig counters reconcile
    // across registry, stats and report (asserted by check_family).
    fn mixed() -> Catalog {
        let mut c = Catalog::new();
        create_paper_schema(&mut c);
        load_orders(&mut c, 60, OrderParams::default());
        for i in 0..4 {
            let doc = xqdb_xmlparse::parse_document(&format!(
                "<order><custid>c{i}</custid>\
                 <lineitem price=\"9\" quantity=\"1\"><remark>rush</remark>\
                 <product><id>r{i}</id></product></lineitem></order>"
            ))
            .unwrap();
            c.insert(
                "orders",
                vec![
                    xqdb_storage::SqlValue::Integer(2000 + i),
                    xqdb_storage::SqlValue::Xml(doc.root()),
                ],
            )
            .unwrap();
        }
        c
    }
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price]/remark]//custid";
    check_family(mixed, q, "twig-joined scan");
    // And the join was real: it routed, admitted the 4 remark orders as
    // candidates, and skipped the 60 synthetic ones.
    let obs = Obs::new(ObsConfig::enabled());
    let opts = ExecOptions { prefilter: false, obs, ..ExecOptions::default() };
    let out = run_xquery_with_options(&mixed(), q, &opts).expect("runs");
    assert_eq!(out.stats.twig_joins, 1, "the branching query routes through the twig join");
    assert_eq!(out.stats.twig_docs_skipped, 60, "every remark-less synthetic order is skipped");
    assert_eq!(out.stats.docs_evaluated_total(), 4, "only the remark orders are evaluated");
    assert!(
        out.trace.finished_spans().iter().any(|s| s.name == "twig join"),
        "the twig join span is recorded"
    );
}

#[test]
fn xquery_plan_cache_hit_skips_parse_and_plan() {
    let obs = Obs::new(ObsConfig::enabled());
    let mut catalog = orders_catalog(20, Some("double"));
    catalog.obs = obs.clone();
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 900]";
    let opts = ExecOptions { obs: obs.clone(), ..ExecOptions::default() };

    let first = run_xquery_with_options(&catalog, q, &opts).expect("first run");
    assert_eq!(first.stats.plan_cache_hits, 0);
    assert_eq!(first.stats.plan_cache_misses, 1);
    let spans: Vec<_> = first.trace.finished_spans().iter().map(|s| s.name).collect();
    assert!(spans.contains(&"parse"), "first run parses: {spans:?}");

    // Second identical query: zero parse/plan work, counter-verified.
    let (report, second) = explain_analyze_xquery(&catalog, q, &opts).expect("second run");
    assert_eq!(second.stats.plan_cache_hits, 1);
    assert_eq!(second.stats.plan_cache_misses, 0);
    let spans: Vec<_> = second.trace.finished_spans().iter().map(|s| s.name).collect();
    assert!(!spans.contains(&"parse"), "hit must not parse: {spans:?}");
    assert!(!spans.contains(&"plan"), "hit must not plan: {spans:?}");
    assert!(
        report.contains("  plan cache: 1 hit(s), 0 miss(es)\n"),
        "report surfaces the hit:\n{report}"
    );
    assert_eq!(snap(&obs).counter(Counter::PlanCacheHits), 1);
    assert_eq!(snap(&obs).counter(Counter::PlanCacheMisses), 1);

    // Identical results both times.
    assert_eq!(
        xqdb_xmlparse::serialize_sequence(&first.sequence),
        xqdb_xmlparse::serialize_sequence(&second.sequence)
    );

    // DDL invalidates: a new index bumps the epoch, so the next run replans.
    catalog.create_index("li_q", "orders", "orddoc", "//lineitem/@quantity", "double").unwrap();
    let third = run_xquery_with_options(&catalog, q, &opts).expect("third run");
    assert_eq!(third.stats.plan_cache_hits, 0, "DDL must invalidate the cached plan");
    assert_eq!(third.stats.plan_cache_misses, 1);
}

#[test]
fn sql_plan_cache_hit_and_ddl_invalidation() {
    let obs = Obs::new(ObsConfig::enabled());
    let mut s = SqlSession::new();
    s.set_obs(obs.clone());
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    for i in 0..10 {
        s.execute(&format!(
            r#"INSERT INTO orders VALUES ({i}, '<order><lineitem price="{}"/></order>')"#,
            i * 100
        ))
        .unwrap();
    }
    let q = "SELECT ordid FROM orders \
             WHERE XMLEXISTS('$o/order[lineitem/@price > 500]' passing orddoc as \"o\")";
    let first = s.execute(q).expect("first run");
    assert_eq!(first.stats.plan_cache_misses, 1);
    let second = s.execute(q).expect("second run");
    assert_eq!(second.stats.plan_cache_hits, 1, "second identical statement hits the cache");
    assert_eq!(second.stats.plan_cache_misses, 0);
    assert_eq!(
        format!("{:?}", first.rows),
        format!("{:?}", second.rows),
        "cached plan produces identical rows"
    );
    assert_eq!(snap(&obs).counter(Counter::PlanCacheHits), 1);

    // EXPLAIN ANALYZE surfaces the hit for its own (distinct) cache entry.
    let ea = format!("EXPLAIN ANALYZE {q}");
    s.execute(&ea).expect("explain analyze miss");
    let hit = s.execute(&ea).expect("explain analyze hit");
    let report = hit.message.expect("report");
    assert!(
        report.contains("  plan cache: 1 hit(s), 0 miss(es)\n"),
        "report surfaces the hit:\n{report}"
    );

    // DDL bumps the epoch: the SELECT replans.
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    let third = s.execute(q).expect("post-DDL run");
    assert_eq!(third.stats.plan_cache_hits, 0, "CREATE INDEX must invalidate the plan");
    assert_eq!(third.stats.plan_cache_misses, 1);
    assert!(third.stats.index_probes > 0, "the replanned statement uses the new index");
    assert_eq!(format!("{:?}", first.rows), format!("{:?}", third.rows));
}

#[test]
fn a_collection_called_per_outer_item_is_fetched_once() {
    // The customers' `db2-fn:xmlcolumn` sits inside the orders' `for`, so
    // evaluation calls it once per order. Each collection is fetched, and
    // each stored document parsed, once per statement: 4 orders and 2
    // customers are 6 documents evaluated and 6 parsed, not 4 + 4 × 2.
    let mut s = SqlSession::new();
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute("create table customer (cid integer, cdoc XML)").unwrap();
    for (i, cust) in [1, 2, 1, 2].into_iter().enumerate() {
        s.execute(&format!(
            "INSERT INTO orders VALUES ({i}, '<order><custid>{cust}</custid></order>')"
        ))
        .unwrap();
    }
    for (id, name) in [(1, "Ann"), (2, "Bo")] {
        let doc = format!("<customer id=\"{id}\"><name>{name}</name></customer>");
        s.execute(&format!("INSERT INTO customer VALUES ({id}, '{doc}')")).unwrap();
    }
    let q = "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order, \
             $c in db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer \
             where $o/custid = $c/@id return $c/name";
    let (report, out) =
        explain_analyze_xquery(&s.catalog, q, &ExecOptions::default()).expect("runs");
    assert_eq!(out.sequence.len(), 4);
    assert_eq!(out.stats.docs_evaluated_total(), 6);
    assert_eq!(out.stats.xml_docs_parsed, 6, "report:\n{report}");
    assert!(report.contains("  documents evaluated: 6 of 6\n"), "report:\n{report}");
    assert!(report.contains("  xml docs parsed: 6\n"), "report:\n{report}");
    // Only a collection whose call may run again is kept after its first
    // fetch; one called once lets go of its documents as evaluation does.
    let repeated = |q: &str| {
        let query = xqdb_xquery::parse_query(q).unwrap();
        plan_query(&s.catalog, query, &AnalysisEnv::new()).repeated.into_iter().collect::<Vec<_>>()
    };
    assert_eq!(repeated(q), ["CUSTOMER.CDOC"]);
    assert!(repeated("db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[custid = 1]").is_empty());
    let nested = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[custid = \
                  db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer/@id]";
    assert_eq!(repeated(nested), ["CUSTOMER.CDOC"]);
    // Two calls of one collection see the same nodes, fetched once.
    let twice = "(db2-fn:xmlcolumn('ORDERS.ORDDOC')/order)[1] \
                 is (db2-fn:xmlcolumn('ORDERS.ORDDOC')/order)[1]";
    assert_eq!(repeated(twice), ["ORDERS.ORDDOC"]);
    let out = run_xquery_with_options(&s.catalog, twice, &ExecOptions::default()).unwrap();
    assert_eq!(xqdb_xmlparse::serialize_sequence(&out.sequence), "true");
    assert_eq!(out.stats.xml_docs_parsed, 4);
}

#[test]
fn xml_docs_parsed_counts_only_the_documents_a_statement_reads() {
    // Statements decode only the columns they name, so a scalar predicate
    // parses no stored XML, while an XMLEXISTS filter parses exactly the
    // documents the access pipeline let through — on both front ends, and
    // the registry moves by the same amount.
    let obs = Obs::new(ObsConfig::enabled());
    let mut s = SqlSession::new();
    s.set_obs(obs.clone());
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    for i in 0..200 {
        s.execute(&format!(
            r#"INSERT INTO orders VALUES ({i}, '<order><lineitem price="{}"/></order>')"#,
            i * 5
        ))
        .unwrap();
    }
    let delta = |a: &MetricsSnapshot, b: &MetricsSnapshot| {
        a.counter(Counter::XmlDocsParsed) - b.counter(Counter::XmlDocsParsed)
    };

    // A point SELECT on the scalar column: the scalar filter picks the
    // one row from the in-memory cells, so 1 row is fetched, 0 parsed.
    let before = snap(&obs);
    let point = s.execute("SELECT ordid FROM orders WHERE ordid = 17").unwrap();
    let after = snap(&obs);
    assert_eq!(point.rows.len(), 1);
    assert_eq!(
        point.stats.docs_evaluated_total(),
        1,
        "the scalar filter leaves only the matching row to fetch"
    );
    assert_eq!(point.stats.scalar_rows_skipped, 199, "every other live row is skipped");
    assert_eq!(point.stats.xml_docs_parsed, 0, "and parses none of their documents");
    assert_eq!(delta(&after, &before), 0);

    // The XMLEXISTS price twin parses exactly its survivors.
    let twin = "SELECT ordid FROM orders \
                WHERE XMLEXISTS('$o//lineitem[@price > 900]' passing orddoc as \"o\")";
    let before = snap(&obs);
    let sql = s.execute(twin).unwrap();
    let after = snap(&obs);
    assert_eq!(sql.rows.len(), 19);
    assert_eq!(sql.stats.xml_docs_parsed, sql.stats.docs_evaluated_total() as u64);
    assert_eq!(sql.stats.xml_docs_parsed, 19);
    assert_eq!(delta(&after, &before), sql.stats.xml_docs_parsed);
    let xq = run_xquery_with_options(
        &s.catalog,
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 900]",
        &ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(xq.stats.xml_docs_parsed, 19, "the XQuery twin parses the same survivors");

    // DML matching on the scalar column parses nothing; the statement's
    // total is the mutation's own read of the one matched row, decoded
    // once and handed down to the table and index maintenance.
    for (dml, matched) in [
        ("EXPLAIN ANALYZE DELETE FROM orders WHERE ordid = 17", "1 row(s) deleted"),
        (
            r#"EXPLAIN ANALYZE UPDATE orders SET orddoc = '<order><lineitem price="1"/></order>' WHERE ordid = 18"#,
            "1 row(s) updated",
        ),
    ] {
        let before = snap(&obs);
        let out = s.execute(dml).unwrap();
        let after = snap(&obs);
        let report = out.message.expect("explain analyze returns a report");
        assert!(report.contains(&format!("-- executed: {matched}")), "{report}");
        assert!(
            report.contains("scan") && report.contains("xml docs parsed=0"),
            "{dml}: matching parses no document — report:\n{report}"
        );
        assert_eq!(out.stats.xml_docs_parsed, 1, "{dml}");
        assert_eq!(delta(&after, &before), out.stats.xml_docs_parsed);
        assert!(report.contains(&format!("  xml docs parsed: {}\n", out.stats.xml_docs_parsed)));
    }
}

#[test]
fn scalar_filter_reconciles_with_registry() {
    // A scalar conjunct narrows the table from its in-memory INTEGER
    // cells before the XMLEXISTS probe: the registry, the returned stats,
    // the COUNTERS section and the `scalar filter` span agree exactly, for
    // SELECT and for DML matching.
    let obs = Obs::new(ObsConfig::enabled());
    let mut s = SqlSession::new();
    s.set_obs(obs.clone());
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    for i in 0..40 {
        s.execute(&format!(
            r#"INSERT INTO orders VALUES ({i}, '<order><lineitem price="{}"/></order>')"#,
            i * 25
        ))
        .unwrap();
    }
    let tag = "scalar filter";
    let plan = s
        .execute("EXPLAIN SELECT ordid FROM orders WHERE 30 <= ordid")
        .unwrap()
        .message
        .unwrap();
    assert!(
        plan.contains("  table ORDERS (alias ORDERS): SCALAR FILTER ORDERS.ORDID >= 30\n"),
        "{tag}: the mirrored conjunct is planned — plan:\n{plan}"
    );
    let before = snap(&obs);
    let result = s
        .execute(
            "EXPLAIN ANALYZE SELECT ordid FROM orders WHERE 30 <= ordid \
             AND XMLEXISTS('$o//lineitem[@price > 500]' passing orddoc as \"o\")",
        )
        .expect("explain analyze select runs");
    let after = snap(&obs);
    let report = result.message.expect("explain analyze returns a report");
    let delta = |c: Counter| after.counter(c) - before.counter(c);
    assert_eq!(result.stats.scalar_rows_skipped, 30, "{tag}: rows 0..30 are skipped");
    assert_eq!(delta(Counter::ScalarRowsSkipped), 30, "{tag}: registry");
    assert_eq!(result.stats.docs_evaluated_total(), 10, "{tag}: 10 rows fetched");
    assert_eq!(delta(Counter::DocsEvaluated), 10, "{tag}: registry documents");
    assert_eq!(result.stats.xml_docs_parsed, 10, "{tag}: documents parsed");
    assert!(report.contains("-- executed: 10 row(s) produced"), "{tag}: {report}");
    for line in expected_counter_lines(&result.stats) {
        assert!(report.contains(&line), "{tag}: report must carry {line:?}:\n{report}");
    }
    assert!(
        report.lines().any(|l| l.contains("scalar filter") && l.contains("survivors=10")),
        "{tag}: the span names the stage and its survivors — report:\n{report}"
    );

    let before = snap(&obs);
    let del = s.execute("DELETE FROM orders WHERE ordid < 5").unwrap();
    let after = snap(&obs);
    assert_eq!(del.message.as_deref(), Some("5 row(s) deleted"));
    assert_eq!(del.stats.scalar_rows_skipped, 35, "{tag}: DELETE matching");
    assert_eq!(del.stats.docs_evaluated_total(), 5, "{tag}: DELETE fetches its matches");
    assert_eq!(
        after.counter(Counter::ScalarRowsSkipped) - before.counter(Counter::ScalarRowsSkipped),
        35,
        "{tag}: DELETE registry"
    );
}

#[test]
fn dml_counters_reconcile_exactly() {
    // The three DML counters (PR 9): `RowsDeleted` and `DocsReplaced` move
    // with the statement and must equal the returned stats field *exactly*
    // — the catalog increments the registry and the executor fills the
    // stats, so a double-count in either place breaks this equality.
    let obs = Obs::new(ObsConfig::enabled());
    let mut s = SqlSession::new();
    s.set_obs(obs.clone());
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    s.execute(
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    )
    .unwrap();
    for i in 0..6 {
        s.execute(&format!(
            r#"INSERT INTO orders VALUES ({i}, '<order><lineitem price="{}"/></order>')"#,
            i * 100
        ))
        .unwrap();
    }
    let delta = |a: &MetricsSnapshot, b: &MetricsSnapshot, c: Counter| a.counter(c) - b.counter(c);

    let before = snap(&obs);
    let del = s.execute("DELETE FROM orders WHERE ordid < 2").unwrap();
    let after = snap(&obs);
    assert_eq!(del.stats.rows_deleted, 2);
    assert_eq!(delta(&after, &before, Counter::RowsDeleted), del.stats.rows_deleted);
    assert_eq!(delta(&after, &before, Counter::DocsReplaced), 0);
    assert_eq!(del.message.as_deref(), Some("2 row(s) deleted"));

    let before = snap(&obs);
    let upd = s
        .execute(r#"UPDATE orders SET orddoc = '<order><lineitem price="9"/></order>' WHERE ordid = 3"#)
        .unwrap();
    let after = snap(&obs);
    assert_eq!(upd.stats.docs_replaced, 1);
    assert_eq!(delta(&after, &before, Counter::DocsReplaced), upd.stats.docs_replaced);
    assert_eq!(delta(&after, &before, Counter::RowsDeleted), 0);

    // Zero-match DML: nothing moves, the message says so.
    let before = snap(&obs);
    let none = s.execute("DELETE FROM orders WHERE ordid = 999").unwrap();
    let after = snap(&obs);
    assert_eq!(none.stats.rows_deleted, 0);
    assert_eq!(none.message.as_deref(), Some("0 row(s) deleted"));
    assert_eq!(delta(&after, &before, Counter::RowsDeleted), 0);

    // EXPLAIN ANALYZE over DML executes for real: the counter moves and
    // the report's `dml:` line renders the exact stats of that execution.
    let before = snap(&obs);
    let ea = s.execute("EXPLAIN ANALYZE DELETE FROM orders WHERE ordid = 4").unwrap();
    let after = snap(&obs);
    assert_eq!(ea.stats.rows_deleted, 1);
    assert_eq!(delta(&after, &before, Counter::RowsDeleted), 1);
    let report = ea.message.expect("explain analyze returns a report");
    assert!(
        report.contains("  dml: 1 row(s) deleted, 0 doc(s) replaced, 0 tombstone(s) reclaimed\n"),
        "the dml line carries the exact counts — report:\n{report}"
    );
    assert!(report.contains("-- executed:"), "EXPLAIN ANALYZE DML really executed");
}

#[test]
fn tombstone_reclamation_counter_reconciles_at_checkpoint() {
    // `TombstonesReclaimed` is checkpoint-only: plain statements leave it
    // untouched, and the checkpoint's delta equals the physically
    // tombstoned records exactly — here 2 deletes + 1 replaced old copy,
    // all on never-frozen pages, so all three are physical tombstones.
    let dir = std::path::PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/test-tmp"
    ))
    .join(format!("obs_dml_reclaim_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Obs::new(ObsConfig::metrics_only());
    let (mut s, _) =
        SqlSession::open_durable(&dir, xqdb_core::WalConfig::default()).unwrap();
    s.set_obs(obs.clone());
    s.execute("create table orders (ordid integer, orddoc XML)").unwrap();
    for i in 0..4 {
        s.execute(&format!(
            r#"INSERT INTO orders VALUES ({i}, '<order><lineitem price="{}"/></order>')"#,
            i * 100
        ))
        .unwrap();
    }
    s.execute("DELETE FROM orders WHERE ordid < 2").unwrap();
    s.execute(r#"UPDATE orders SET orddoc = '<order><lineitem price="7"/></order>' WHERE ordid = 2"#)
        .unwrap();
    assert_eq!(
        snap(&obs).counter(Counter::TombstonesReclaimed),
        0,
        "statements never reclaim; only a checkpoint does"
    );
    let before = snap(&obs);
    s.checkpoint().unwrap().expect("durable sessions checkpoint");
    let after = snap(&obs);
    assert_eq!(
        after.counter(Counter::TombstonesReclaimed) - before.counter(Counter::TombstonesReclaimed),
        3,
        "2 deleted rows + 1 replaced old copy, all physically tombstoned"
    );
    // A second checkpoint finds nothing left to reclaim.
    let before = snap(&obs);
    s.checkpoint().unwrap().expect("durable sessions checkpoint");
    let after = snap(&obs);
    assert_eq!(
        after.counter(Counter::TombstonesReclaimed) - before.counter(Counter::TombstonesReclaimed),
        0,
        "reclamation is idempotent"
    );
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_admission_metrics_export_and_reconcile() {
    // The server-facing admission metrics (PR 6): three counters and one
    // up/down gauge, present and consistent in both export formats. Their
    // end-to-end reconciliation against live server traffic is asserted in
    // `chaos_server.rs`; this pins the registry/export layer.
    let obs = Obs::new(ObsConfig::metrics_only());
    for _ in 0..3 {
        obs.incr(Counter::SessionsAdmitted);
    }
    for _ in 0..2 {
        obs.incr(Counter::SessionsShed);
    }
    obs.incr(Counter::RequestsTimedOut);
    // Two connections open, one closes.
    obs.inc_gauge(Gauge::ActiveConnections);
    obs.inc_gauge(Gauge::ActiveConnections);
    obs.dec_gauge(Gauge::ActiveConnections);

    let snap = snap(&obs);
    assert_eq!(snap.counter(Counter::SessionsAdmitted), 3);
    assert_eq!(snap.counter(Counter::SessionsShed), 2);
    assert_eq!(snap.counter(Counter::RequestsTimedOut), 1);
    assert_eq!(snap.gauge(Gauge::ActiveConnections), 1);

    let prom = snap.to_prometheus();
    for line in [
        "# TYPE xqdb_sessions_admitted_total counter",
        "xqdb_sessions_admitted_total 3",
        "# TYPE xqdb_sessions_shed_total counter",
        "xqdb_sessions_shed_total 2",
        "# TYPE xqdb_requests_timed_out_total counter",
        "xqdb_requests_timed_out_total 1",
        "# TYPE xqdb_active_connections gauge",
        "xqdb_active_connections 1",
    ] {
        assert!(prom.contains(line), "prometheus export must carry {line:?}:\n{prom}");
    }
    let json = snap.to_json();
    for field in [
        "\"xqdb_sessions_admitted_total\": 3",
        "\"xqdb_sessions_shed_total\": 2",
        "\"xqdb_requests_timed_out_total\": 1",
        "\"xqdb_active_connections\": 1",
    ] {
        assert!(json.contains(field), "json export must carry {field:?}:\n{json}");
    }

    // The up/down gauge saturates at zero rather than wrapping: a spurious
    // double-decrement must not report 2^64-1 open connections.
    obs.dec_gauge(Gauge::ActiveConnections);
    obs.dec_gauge(Gauge::ActiveConnections);
    assert_eq!(obs.metrics_snapshot().unwrap().gauge(Gauge::ActiveConnections), 0);
}

#[test]
fn logical_node_visits_are_separate_from_pool_hits() {
    // Satellite of the pager PR: `btree_nodes_touched` counts *logical*
    // node visits during probes, while the buffer-pool counters count
    // *physical* page fetches. The two must not be conflated: shrinking the
    // index's node pool changes the hit/miss mix but must leave the logical
    // visit count — and the query result — byte-identical.
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 900]";
    let catalog = orders_catalog(200, Some("double"));
    // Pin both pool sizes explicitly so the contrast holds whatever
    // XQDB_BUFFER_PAGES the environment set (lint.sh runs a starved pass),
    // and warm the pools once so "generous" means fully resident.
    catalog.db.pager().set_capacity(512).expect("row-store pool resizes");
    catalog.index("LI_PRICE").expect("index exists").set_pool_pages(512);
    run_xquery_with_options(&catalog, q, &ExecOptions::default()).expect("warm-up runs");
    let generous = run_xquery_with_options(&catalog, q, &ExecOptions::default()).expect("runs");
    assert!(generous.stats.btree_nodes_touched > 0, "the probe walks the tree");
    assert!(generous.stats.buffer_pool_hits > 0, "resident fetches count as hits");
    assert_eq!(
        generous.stats.buffer_pool_misses, 0,
        "a pool larger than the tree reads nothing from the backing store: \
         every node page stayed resident from the insert phase"
    );
    assert_eq!(generous.stats.pages_evicted, 0, "no pressure, no evictions");

    // Same catalog, starved node pool: the probe now faults pages back in.
    catalog.index("LI_PRICE").expect("index exists").set_pool_pages(2);
    let starved = run_xquery_with_options(&catalog, q, &ExecOptions::default()).expect("runs");
    assert_eq!(
        starved.stats.btree_nodes_touched, generous.stats.btree_nodes_touched,
        "logical visits are a property of the plan, not the pool size"
    );
    assert!(
        starved.stats.buffer_pool_misses > 0,
        "a 2-page pool cannot hold the probe's working set"
    );
    assert!(starved.stats.pages_evicted > 0, "faulting pages in evicts others");
    assert_eq!(
        xqdb_xmlparse::serialize_sequence(&generous.sequence),
        xqdb_xmlparse::serialize_sequence(&starved.sequence),
        "pool pressure never changes results"
    );
}

#[test]
fn disabled_handle_records_nothing_while_stats_still_flow() {
    let catalog = orders_catalog(20, Some("double"));
    let opts = ExecOptions::default(); // Obs::disabled()
    let out = run_xquery_with_options(
        &catalog,
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 900]",
        &opts,
    )
    .expect("runs");
    assert!(!out.trace.enabled());
    assert!(out.stats.index_probes > 0, "stats flow regardless of observability");
    assert!(opts.obs.metrics_snapshot().is_none());
}
