//! Chaos tests for the robustness layer: fault-injected index probes must
//! degrade to full collection scans with byte-identical results (Definition 1
//! makes the index a pure pre-filter), storage faults must surface as typed
//! errors, resource budgets must turn runaway queries into
//! `ResourceExhausted` instead of hangs, and adversarial input must be
//! rejected by the parsers rather than aborting the process.

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::sync::Arc;

use xqdb_core::{run_xquery, run_xquery_with_limits, run_xquery_with_options, Catalog, ExecOptions};
use xqdb_xdm::{Budget, ErrorCode, FaultInjector, FaultMode, Limits};
use xqdb_workload::{create_paper_schema, load_orders, OrderParams};

/// A populated orders catalog with the paper's price index (if requested).
fn orders_catalog(n: usize, indexed: bool) -> Catalog {
    let mut c = Catalog::new();
    create_paper_schema(&mut c);
    load_orders(&mut c, n, OrderParams::default());
    if indexed {
        c.create_index("li_price", "orders", "orddoc", "//lineitem/@price", "double")
            .expect("index DDL is valid");
    }
    c
}

const QUERIES: &[&str] = &[
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 900]",
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 995]",
    "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
     where $o/lineitem/@price > 990 return $o/custid",
];

fn render(seq: &[xqdb_xdm::Item]) -> String {
    xqdb_xmlparse::serialize_sequence(seq)
}

#[test]
fn every_probe_failure_degrades_to_unindexed_baseline() {
    let baseline = orders_catalog(120, false);
    let mut chaotic = orders_catalog(120, true);
    chaotic.set_index_fault_injector(Some(Arc::new(FaultInjector::new(FaultMode::Always))));
    for q in QUERIES {
        let want = run_xquery(&baseline, q).expect("unindexed baseline runs");
        let got = run_xquery(&chaotic, q).expect("degraded execution still succeeds");
        assert_eq!(
            render(&got.sequence),
            render(&want.sequence),
            "degraded results must be byte-identical to the unindexed baseline for {q}"
        );
        assert!(
            !got.stats.degraded_sources.is_empty(),
            "degradation must be recorded for {q}"
        );
        assert!(got.stats.index_faults > 0);
        assert_eq!(got.stats.degraded_sources, vec!["ORDERS.ORDDOC".to_string()]);
    }
}

#[test]
fn randomized_probe_faults_never_change_results() {
    let baseline = orders_catalog(80, false);
    let healthy = orders_catalog(80, true);
    for q in QUERIES {
        let want = render(&run_xquery(&baseline, q).expect("baseline runs").sequence);
        // The healthy indexed run agrees with the unindexed baseline.
        let healthy_out = run_xquery(&healthy, q).expect("indexed run succeeds");
        assert_eq!(render(&healthy_out.sequence), want);
        assert!(healthy_out.stats.degraded_sources.is_empty());
        // So must every faulty run, whatever the seed decides to fail.
        for seed in 0..16u64 {
            let mut chaotic = orders_catalog(80, true);
            chaotic.set_index_fault_injector(Some(Arc::new(FaultInjector::new(
                FaultMode::Probability { permille: 500, seed },
            ))));
            let got = run_xquery(&chaotic, q).expect("chaotic execution succeeds");
            assert_eq!(
                render(&got.sequence),
                want,
                "results diverged under fault seed {seed} for {q}"
            );
        }
    }
}

#[test]
fn nth_probe_fault_degrades_once_then_recovers() {
    let mut c = orders_catalog(60, true);
    let injector = Arc::new(FaultInjector::new(FaultMode::Nth(1)));
    c.set_index_fault_injector(Some(injector.clone()));
    let q = QUERIES[0];
    let first = run_xquery(&c, q).expect("first run degrades but succeeds");
    assert_eq!(first.stats.index_faults, 1);
    // The injector has spent its single shot: later runs probe normally.
    let second = run_xquery(&c, q).expect("second run uses the index");
    assert!(second.stats.degraded_sources.is_empty());
    assert_eq!(render(&first.sequence), render(&second.sequence));
    assert!(injector.faults_injected() == 1);
}

#[test]
fn storage_faults_are_typed_errors_not_degradation() {
    let mut c = orders_catalog(30, false);
    c.db.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultMode::Always))));
    let err = run_xquery(&c, QUERIES[0]).expect_err("document fetch fault has no fallback");
    assert_eq!(err.code, ErrorCode::StorageFault);
}

#[test]
fn one_millisecond_deadline_exhausts_instead_of_hanging() {
    // 10k documents, no index: the full scan takes well over a millisecond.
    let c = orders_catalog(10_000, false);
    let q = QUERIES[0];
    let unlimited = run_xquery(&c, q).expect("the query itself is fine");
    assert!(!unlimited.sequence.is_empty());
    let limits = Limits::unlimited().with_timeout(std::time::Duration::from_millis(1));
    let err = run_xquery_with_limits(&c, q, limits)
        .expect_err("a 1ms deadline cannot cover a 10k-document scan");
    assert_eq!(err.code, ErrorCode::ResourceExhausted);
}

#[test]
fn step_budget_exhausts_and_successful_runs_report_steps() {
    let c = orders_catalog(300, false);
    let q = QUERIES[0];
    let ok = run_xquery(&c, q).expect("unlimited run completes");
    assert!(ok.stats.steps_used > 100, "evaluation charges steps");
    let err = run_xquery_with_limits(&c, q, Limits::unlimited().with_max_steps(100))
        .expect_err("100 steps cannot evaluate 300 documents");
    assert_eq!(err.code, ErrorCode::ResourceExhausted);
}

#[test]
fn index_entry_budget_bounds_probe_work() {
    let c = orders_catalog(200, true);
    // A low threshold makes the range probe scan almost every index entry;
    // each scanned entry is charged, so a tiny cap trips.
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 5]";
    let err = run_xquery_with_limits(&c, q, Limits::unlimited().with_max_index_entries(3))
        .expect_err("probe must charge entries against the budget");
    assert_eq!(err.code, ErrorCode::ResourceExhausted);
    // A generous cap leaves the query untouched.
    let ok = run_xquery_with_limits(&c, q, Limits::unlimited().with_max_index_entries(1_000_000))
        .expect("generous cap does not interfere");
    assert!(!ok.sequence.is_empty());
}

#[test]
fn result_cardinality_cap_is_enforced() {
    let c = orders_catalog(100, false);
    let q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem";
    let ok = run_xquery(&c, q).expect("unlimited run completes");
    assert!(ok.sequence.len() > 10);
    let err = run_xquery_with_limits(&c, q, Limits::unlimited().with_max_result_items(10))
        .expect_err("cardinality cap must trip");
    assert_eq!(err.code, ErrorCode::ResourceExhausted);
}

#[test]
fn cancellation_token_stops_evaluation() {
    let c = orders_catalog(300, false);
    let query = xqdb_xquery::parse_query(QUERIES[0]).expect("query parses");
    let plan = xqdb_core::plan_query(&c, query, &xqdb_core::AnalysisEnv::new());
    let budget = Arc::new(Budget::new(Limits::unlimited()));
    budget.cancel();
    let ctx = xqdb_xqeval::DynamicContext::new().with_budget(budget);
    let err = xqdb_core::execute_plan(&c, &plan, &ctx)
        .expect_err("a cancelled budget must stop evaluation");
    assert_eq!(err.code, ErrorCode::Cancelled);
}

// ------------------------------------------------------ degradation matrix

fn run_default(c: &Catalog, q: &str) -> String {
    render(&run_xquery(c, q).expect("execution succeeds").sequence)
}

/// Every runnable paper query, with and without index-probe fault
/// injection: the output must be byte-identical to the unindexed baseline.
/// This is the subsystem's central invariant — the index (Definition 1)
/// is a pure execution detail that may never change a result.
#[test]
fn paper_queries_byte_identical_across_thread_counts_and_fault_seeds() {
    let baseline = common::paper_session(false);
    let healthy = common::paper_session(true);
    for (label, q) in common::PAPER_QUERIES {
        let want = render(&run_xquery(&baseline.catalog, q).expect("baseline runs").sequence);
        let got = run_default(&healthy.catalog, q);
        assert_eq!(got, want, "{label} diverged (healthy index)");
        for seed in 0..3u64 {
            let mut faulty = common::paper_session(true);
            faulty.catalog.set_index_fault_injector(Some(Arc::new(FaultInjector::new(
                FaultMode::Probability { permille: 500, seed },
            ))));
            let got = run_default(&faulty.catalog, q);
            assert_eq!(got, want, "{label} diverged under fault seed {seed}");
        }
    }
}

/// The same invariant over the synthetic workload collection (120
/// orders), including the every-probe-fails injector.
#[test]
fn workload_queries_byte_identical_across_thread_counts_and_fault_seeds() {
    let baseline = orders_catalog(120, false);
    for q in QUERIES {
        let want = render(&run_xquery(&baseline, q).expect("baseline runs").sequence);
        let healthy = orders_catalog(120, true);
        let mut always = orders_catalog(120, true);
        always.set_index_fault_injector(Some(Arc::new(FaultInjector::new(FaultMode::Always))));
        let mut seeded = orders_catalog(120, true);
        seeded.set_index_fault_injector(Some(Arc::new(FaultInjector::new(
            FaultMode::Probability { permille: 500, seed: 7 },
        ))));
        for (kind, c) in
            [("healthy", &healthy), ("always-faulty", &always), ("seeded-faulty", &seeded)]
        {
            let got = run_default(c, q);
            assert_eq!(got, want, "{q} diverged ({kind} index)");
        }
    }
}

/// The structural pre-filter is, like the index, a pure execution detail:
/// {prefilter on, off} × {healthy, every-probe-fails} must all be
/// byte-identical to the unfiltered, unindexed baseline.
#[test]
fn prefiltered_scans_byte_identical_across_threads_and_faults() {
    // A mixed collection: synthetic orders (no promo element) plus a few
    // hand-built promo orders, so the pre-filter has real docs to skip AND
    // real docs to keep.
    fn mixed(indexed: bool) -> Catalog {
        let mut c = orders_catalog(100, indexed);
        for i in 0..5i64 {
            let doc = xqdb_xmlparse::parse_document(&format!(
                "<order><custid>c{i}</custid><promo><code>P{i}</code></promo>\
                 <lineitem price=\"999\" quantity=\"1\"/></order>"
            ))
            .expect("promo doc parses");
            c.insert(
                "orders",
                vec![
                    xqdb_storage::SqlValue::Integer(5000 + i),
                    xqdb_storage::SqlValue::Xml(doc.root()),
                ],
            )
            .expect("insert succeeds");
        }
        c
    }
    let prefilter_queries = [
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[promo/code]/custid",
        "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
         where $o/promo/code = 'P3' return $o/custid",
        QUERIES[0],
    ];
    let baseline = mixed(false);
    for q in prefilter_queries {
        let base_opts = ExecOptions { prefilter: false, ..ExecOptions::default() };
        let want = render(
            &run_xquery_with_options(&baseline, q, &base_opts)
                .expect("baseline runs")
                .sequence,
        );
        for prefilter in [false, true] {
            let opts = ExecOptions { prefilter, ..ExecOptions::default() };
            let healthy = mixed(true);
            let got = run_xquery_with_options(&healthy, q, &opts).expect("healthy run succeeds");
            assert_eq!(render(&got.sequence), want, "{q} diverged (prefilter={prefilter}, healthy)");
            let mut faulty = mixed(true);
            faulty.set_index_fault_injector(Some(Arc::new(FaultInjector::new(FaultMode::Always))));
            let got = run_xquery_with_options(&faulty, q, &opts).expect("degraded run succeeds");
            assert_eq!(render(&got.sequence), want, "{q} diverged (prefilter={prefilter}, faulty)");
        }
    }
    // The on-filter runs above were not vacuous: the selective query really
    // skips the synthetic orders. The twig join is held off so the
    // pre-filter is what does the skipping — it runs first and would
    // otherwise leave the filter nothing to prune.
    let out = run_xquery_with_options(
        &mixed(false),
        prefilter_queries[0],
        &ExecOptions { twig: false, ..ExecOptions::default() },
    )
    .expect("runs");
    assert_eq!(out.stats.prefilter_docs_skipped, 100, "every promo-less doc is skipped");
    assert_eq!(out.sequence.len(), 5, "every promo doc survives");
}

/// The holistic twig join is, like the pre-filter, a pure execution
/// detail: {twig on, off} × {healthy, every-probe-fails} must all be
/// byte-identical to the twig-less, unindexed baseline. The join reads only in-memory label streams (never the
/// pager or an index), so fault injection must not interact with it: the
/// degradation matrix is the same whether the join ran or not.
#[test]
fn twig_joins_byte_identical_across_threads_and_faults() {
    // Synthetic orders are structurally uniform, so mix in a few
    // hand-built orders with a `remark` under a lineitem — structure the
    // twig join can actually discriminate on.
    fn mixed(indexed: bool) -> Catalog {
        let mut c = orders_catalog(100, indexed);
        for i in 0..5i64 {
            let doc = xqdb_xmlparse::parse_document(&format!(
                "<order><custid>c{i}</custid>\
                 <lineitem price=\"999\" quantity=\"1\"><remark>rush</remark>\
                 <product><id>r{i}</id></product></lineitem></order>"
            ))
            .expect("remark doc parses");
            c.insert(
                "orders",
                vec![
                    xqdb_storage::SqlValue::Integer(6000 + i),
                    xqdb_storage::SqlValue::Xml(doc.root()),
                ],
            )
            .expect("insert succeeds");
        }
        c
    }
    // Descendant-axis, branching queries — the class the twig join is
    // routed for. The third query branches twice below the `//` step.
    let twig_queries = [
        QUERIES[0],
        QUERIES[1],
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price]/remark]//custid",
    ];
    let baseline = mixed(false);
    for q in twig_queries {
        let base_opts = ExecOptions { twig: false, prefilter: false, ..ExecOptions::default() };
        let want = render(
            &run_xquery_with_options(&baseline, q, &base_opts)
                .expect("baseline runs")
                .sequence,
        );
        for twig in [false, true] {
            let opts = ExecOptions { twig, ..ExecOptions::default() };
            let healthy = mixed(true);
            let got = run_xquery_with_options(&healthy, q, &opts).expect("healthy run succeeds");
            assert_eq!(render(&got.sequence), want, "{q} diverged (twig={twig}, healthy)");
            let mut faulty = mixed(true);
            faulty.set_index_fault_injector(Some(Arc::new(FaultInjector::new(FaultMode::Always))));
            let got = run_xquery_with_options(&faulty, q, &opts).expect("degraded run succeeds");
            assert_eq!(render(&got.sequence), want, "{q} diverged (twig={twig}, faulty)");
        }
    }
    // The twig-on runs above were not vacuous: the selective query really
    // routes through the join and skips documents.
    let opts = ExecOptions { prefilter: false, ..ExecOptions::default() };
    let out = run_xquery_with_options(&mixed(false), twig_queries[2], &opts).expect("runs");
    assert_eq!(out.stats.twig_joins, 1, "the branching query routes through the twig join");
    assert_eq!(
        out.stats.twig_docs_skipped, 100,
        "every remark-less synthetic order is skipped structurally"
    );
    assert_eq!(out.sequence.len(), 5, "every remark order survives");
}

/// Buffer-pool pressure is, like the index and the pre-filter, a pure
/// execution detail: {4-page, default} pool × {healthy, every-probe-fails}
/// must all be byte-identical to the unindexed baseline run at the
/// default pool size. A 4-frame pool cannot
/// hold even one table's working set, so every scan faults pages in and
/// evicts continuously — and may never change a result.
#[test]
fn pool_pressure_byte_identical_across_threads_and_faults() {
    let baseline = orders_catalog(120, false);
    for q in QUERIES {
        let want = render(&run_xquery(&baseline, q).expect("baseline runs").sequence);
        for pool in [Some(4usize), None] {
            for faulty in [false, true] {
                let mut c = orders_catalog(120, true);
                if faulty {
                    c.set_index_fault_injector(Some(Arc::new(FaultInjector::new(
                        FaultMode::Always,
                    ))));
                }
                if let Some(pages) = pool {
                    c.db.pager().set_capacity(pages).expect("shrinking the shared pool");
                    for idx in c.all_indexes() {
                        idx.set_pool_pages(pages);
                    }
                }
                let got = run_default(&c, q);
                assert_eq!(got, want, "{q} diverged (pool={pool:?}, faulty={faulty})");
            }
        }
    }
}

// ------------------------------------------------------- adversarial parsing

#[test]
fn deeply_nested_document_is_rejected_not_a_stack_overflow() {
    let deep = format!("{}x{}", "<d>".repeat(10_000), "</d>".repeat(10_000));
    let err = xqdb_xmlparse::parse_document(&deep).expect_err("depth limit trips");
    assert!(err.limit_exceeded);
}

#[test]
fn ten_megabyte_attribute_is_rejected_under_a_byte_cap() {
    let huge = format!("<a v=\"{}\"/>", "x".repeat(10 * 1024 * 1024));
    let limits = xqdb_xmlparse::ParseLimits::default()
        .with_max_doc_bytes(1024 * 1024)
        .with_max_attr_bytes(64 * 1024);
    let err = xqdb_xmlparse::parse_document_with(&huge, &limits).expect_err("doc cap trips");
    assert!(err.limit_exceeded);
    // With only the attribute cap, the attribute itself trips.
    let limits = xqdb_xmlparse::ParseLimits::default().with_max_attr_bytes(64 * 1024);
    let err = xqdb_xmlparse::parse_document_with(&huge, &limits).expect_err("attr cap trips");
    assert!(err.limit_exceeded);
    // Unlimited parsing still succeeds — the cap is opt-in.
    assert!(xqdb_xmlparse::parse_document(&huge).is_ok());
}

#[test]
fn truncated_documents_error_cleanly() {
    let doc = r#"<?xml version="1.0"?><!DOCTYPE o [<!ENTITY e "x">]><order id="1"><lineitem price="99.50"><product><id>p&lt;1</id></product></lineitem><!-- c --><![CDATA[t]]></order>"#;
    for cut in 0..doc.len() {
        if !doc.is_char_boundary(cut) {
            continue;
        }
        // Any prefix must parse or error — never panic.
        let _ = xqdb_xmlparse::parse_document(&doc[..cut]);
    }
}

#[test]
fn deeply_nested_query_is_rejected_not_a_stack_overflow() {
    let deep = format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000));
    assert!(xqdb_xquery::parse_query(&deep).is_err());
    let deep_ctor = format!("{}x{}", "<e>{".repeat(5_000), "}</e>".repeat(5_000));
    assert!(xqdb_xquery::parse_query(&deep_ctor).is_err());
}

#[test]
fn session_parse_limits_reject_oversized_insert() {
    let mut s = xqdb_core::SqlSession::new();
    s.parse_limits = s.parse_limits.with_max_doc_bytes(64);
    s.execute("create table t (id integer, doc XML)").expect("DDL runs");
    s.execute("INSERT INTO t VALUES (1, '<small/>')").expect("small doc fits");
    let big = format!("INSERT INTO t VALUES (2, '<big>{}</big>')", "y".repeat(200));
    let err = s.execute(&big).expect_err("oversized document is rejected");
    assert_eq!(err.code, ErrorCode::ParseLimit);
}
