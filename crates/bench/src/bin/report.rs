//! Experiment report: runs every per-section experiment once and prints the
//! table EXPERIMENTS.md records — eligible vs. ineligible formulation,
//! documents evaluated vs. total, index entries scanned, wall time, and the
//! speedup factor.
//!
//! Run with: `cargo run -p xqdb-bench --bin report --release`

// Like the rest of the bench harness, the experiment queries are assertions:
// a failure is a harness bug and should abort the report loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use xqdb_bench::{orders_catalog, summarize, RunSummary};
use xqdb_core::{run_xquery_with_options, ExecOptions, Obs, ObsConfig, SqlSession};
use xqdb_workload::OrderParams;

const N: usize = 5_000;

/// Documents in the large-collection workloads (observability overhead,
/// structural prefilter, twig join); each report's own variable overrides
/// it for quick local runs.
const SCAN_DOCS: usize = 100_000;

/// Timed rounds per configuration in the on/off reports, after one
/// warm-up round; the reports record each configuration's median.
const ROUNDS: usize = 5;

/// Run `run(i)` for every configuration `i` in `0..K`, interleaved over
/// one warm-up round and [`ROUNDS`] timed rounds so every configuration
/// sees the same cache and allocator trends, and return each
/// configuration's median wall time in milliseconds.
fn interleaved_median_millis<const K: usize>(mut run: impl FnMut(usize)) -> [f64; K] {
    let mut times: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(ROUNDS));
    for round in 0..=ROUNDS {
        for (i, t) in times.iter_mut().enumerate() {
            let start = std::time::Instant::now();
            run(i);
            if round > 0 {
                t.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    })
}

/// Measure the observability tax: the same 100k-document full-scan workload
/// with `ObsConfig::disabled()` (the zero-allocation null handle) and fully
/// instrumented (metrics + tracing). Records `BENCH_obs.json` and asserts
/// the instrumented run stays within 5% of the disabled baseline — the
/// tentpole's overhead budget. Document count is overridable via
/// `XQDB_BENCH_OBS_DOCS` for quick local runs.
fn obs_overhead_report() {
    let docs: usize = std::env::var("XQDB_BENCH_OBS_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SCAN_DOCS);
    let query = "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
                 where $o/lineitem/@price > 900 return $o/custid";
    let cat = orders_catalog(docs, OrderParams::default(), &[]);
    println!("observability overhead ({docs} docs, serial full scan):");
    // One warm-up, then best-of-three per configuration, interleaved so both
    // configurations see the same cache/allocator state trends.
    let mut best = [f64::INFINITY; 2];
    let configs = [("disabled", ObsConfig::disabled()), ("instrumented", ObsConfig::enabled())];
    for round in 0..4 {
        for (i, (_, config)) in configs.iter().enumerate() {
            let opts = ExecOptions { obs: Obs::new(*config), ..ExecOptions::default() };
            let start = std::time::Instant::now();
            run_xquery_with_options(&cat, query, &opts).expect("overhead workload runs");
            let millis = start.elapsed().as_secs_f64() * 1e3;
            if round > 0 && millis < best[i] {
                best[i] = millis;
            }
        }
    }
    let overhead_pct = (best[1] / best[0] - 1.0) * 100.0;
    for (i, (label, _)) in configs.iter().enumerate() {
        println!("  {label:<12} {:.1} ms", best[i]);
    }
    println!("  overhead: {overhead_pct:.2}% (budget: <5%)");
    let json = format!(
        "{{\n  \"workload\": \"serial unindexed full scan, FLWOR over orders collection\",\n  \
         \"query\": \"{}\",\n  \"docs\": {docs},\n  \
         \"disabled_millis\": {:.3},\n  \"instrumented_millis\": {:.3},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \"budget_pct\": 5.0\n}}\n",
        query.replace('\"', "\\\""),
        best[0],
        best[1],
    );
    std::fs::write("BENCH_obs.json", json).expect("BENCH_obs.json is writable");
    println!("  wrote BENCH_obs.json\n");
    assert!(
        overhead_pct < 5.0,
        "instrumented execution exceeded the 5% overhead budget: {overhead_pct:.2}%"
    );
}

/// Durability numbers for `BENCH_durability.json`: WAL append throughput
/// per fsync mode, and wall-clock recovery of a 100k-record log (with and
/// without an index whose back-fill recovery must re-run). `always` is
/// measured on a smaller append count — one disk round-trip per record is
/// the point of that mode, and 100k of them would measure only the disk.
/// Record count overridable via `XQDB_BENCH_WAL_RECORDS`.
fn durability_report() {
    use xqdb_core::recover_catalog;
    use xqdb_obs::Trace;
    use xqdb_wal::{FsyncMode, WalConfig, WalRecord, WalValue, WalWriter};

    let records: usize = std::env::var("XQDB_BENCH_WAL_RECORDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let base =
        std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench-tmp"));
    let doc = r#"<order><custid>1003</custid><lineitem price="123.45"><product><id>p2</id></product></lineitem></order>"#;
    let insert = WalRecord::Insert {
        table: "ORDERS".into(),
        values: vec![WalValue::Integer(1), WalValue::Xml(doc.into())],
    };

    println!("durability (append throughput + recovery, {records} records):");
    let mut mode_rows = Vec::new();
    for (mode, n) in [
        (FsyncMode::Off, records),
        (FsyncMode::Batch, records),
        (FsyncMode::Always, records.min(2_000)),
    ] {
        let dir = base.join(format!("wal_bench_{}", mode.as_str()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = WalWriter::open(&dir, WalConfig { fsync: mode, ..Default::default() }, 0)
            .expect("bench WAL opens");
        let start = std::time::Instant::now();
        let mut bytes = 0u64;
        for _ in 0..n {
            bytes += w.append(&insert).expect("bench append succeeds").1;
        }
        w.flush().expect("bench flush succeeds");
        let secs = start.elapsed().as_secs_f64();
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
        let per_sec = n as f64 / secs;
        let mb_per_sec = bytes as f64 / 1e6 / secs;
        println!(
            "  fsync {:<7} {n:>7} appends in {:>8.1} ms  ({per_sec:>9.0} rec/s, {mb_per_sec:>6.1} MB/s)",
            mode.as_str(),
            secs * 1e3
        );
        mode_rows.push(format!(
            "    {{ \"fsync\": \"{}\", \"records\": {n}, \"millis\": {:.3}, \
             \"records_per_sec\": {per_sec:.0}, \"mb_per_sec\": {mb_per_sec:.3} }}",
            mode.as_str(),
            secs * 1e3
        ));
    }

    // Recovery: a log of one CREATE TABLE + `records` inserts, replayed
    // through the ordinary catalog paths (documents re-parsed), then again
    // with an index DDL appended so recovery re-runs the back-fill.
    let dir = base.join("wal_bench_recovery");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut w = WalWriter::open(
            &dir,
            WalConfig { fsync: FsyncMode::Off, ..Default::default() },
            0,
        )
        .expect("bench WAL opens");
        w.append(&WalRecord::CreateTable {
            name: "ORDERS".into(),
            columns: vec![("ORDID".into(), "INTEGER".into()), ("ORDDOC".into(), "XML".into())],
        })
        .expect("DDL appends");
        for i in 0..records {
            w.append(&WalRecord::Insert {
                table: "ORDERS".into(),
                values: vec![WalValue::Integer(i as i64), WalValue::Xml(doc.into())],
            })
            .expect("row appends");
        }
        w.flush().expect("bench flush succeeds");
    }
    let start = std::time::Instant::now();
    let (catalog, report) = recover_catalog(
        &dir,
        &Trace::disabled(),
        &xqdb_core::Obs::disabled(),
    )
    .expect("bench recovery succeeds");
    let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(catalog.db.table("orders").map(|t| t.len()), Some(records));
    println!(
        "  recovery     {:>7} records in {recovery_ms:>8.1} ms  (no index)",
        report.wal_records_replayed
    );
    {
        let mut w = WalWriter::open(
            &dir,
            WalConfig { fsync: FsyncMode::Off, ..Default::default() },
            report.last_seq,
        )
        .expect("bench WAL reopens");
        w.append(&WalRecord::CreateIndex {
            name: "LI_PRICE".into(),
            table: "ORDERS".into(),
            column: "ORDDOC".into(),
            pattern: "//lineitem/@price".into(),
            ty: "double".into(),
        })
        .expect("index DDL appends");
        w.flush().expect("bench flush succeeds");
    }
    let start = std::time::Instant::now();
    let (catalog, _) = recover_catalog(
        &dir,
        &Trace::disabled(),
        &xqdb_core::Obs::disabled(),
    )
    .expect("bench recovery with index succeeds");
    let recovery_index_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(catalog.index("li_price").map(xqdb_xmlindex::XmlIndex::len), Some(records));
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "  recovery     {records:>7} records in {recovery_index_ms:>8.1} ms  (index back-fill re-run)"
    );

    let json = format!(
        "{{\n  \"workload\": \"WAL of 1 CREATE TABLE + N order-document inserts; recovery replays through the catalog\",\n  \
         \"record_doc\": \"{}\",\n  \"records\": {records},\n  \
         \"append_modes\": [\n{}\n  ],\n  \
         \"recovery_millis\": {recovery_ms:.3},\n  \
         \"recovery_with_index_backfill_millis\": {recovery_index_ms:.3},\n  \
         \"note\": \"fsync always is measured on a capped append count: each record pays a disk round-trip by design\"\n}}\n",
        doc.replace('\"', "\\\""),
        mode_rows.join(",\n"),
    );
    std::fs::write("BENCH_durability.json", json).expect("BENCH_durability.json is writable");
    println!("  wrote BENCH_durability.json\n");
}

/// Pager numbers for `BENCH_pager.json` (the paged-storage tentpole):
///
/// 1. the buffer-pool hit-rate ladder — the same scan and probe workloads
///    at pool capacities 4/16/64/256 frames against a heap ~10x larger
///    than the mid-ladder pool, with per-rung latency and hit rate;
/// 2. suffix-only recovery vs full WAL replay at 100k records — after a
///    checkpoint the manifest adopts rows straight from heap pages, so
///    recovery replays zero records and must beat the full replay that
///    re-parses every document.
fn pager_report() {
    use xqdb_core::recover_catalog;
    use xqdb_obs::Trace;
    use xqdb_wal::{FsyncMode, WalConfig, WalRecord, WalValue, WalWriter};

    // --- hit-rate ladder -------------------------------------------------
    let docs: usize = std::env::var("XQDB_BENCH_PAGER_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25_000);
    let cat = orders_catalog(
        docs,
        OrderParams::default(),
        &[("li_price", "//lineitem/@price", "double")],
    );
    let heap_pages = xqdb_pager::file_stats(cat.db.pager())
        .expect("heap scan succeeds")
        .heap_pages;
    let scan_q = "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
                  where $o/lineitem/@price > 900 return $o/custid";
    let probe_q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 990]";
    println!("pager ladder ({docs} docs, {heap_pages} heap pages):");
    let mut rungs = Vec::new();
    // Top rung comfortably holds the whole working set (heap + chains +
    // index nodes): the only rung where steady state means full residency,
    // so the hit-rate climb to 100% is visible at the top of the ladder.
    let resident = (heap_pages as usize + 256).next_power_of_two();
    for capacity in [4usize, 16, 64, 256, resident] {
        cat.db.pager().set_capacity(capacity).expect("row-store pool resizes");
        for idx in cat.all_indexes() {
            idx.set_pool_pages(capacity);
        }
        // One warm-up, then best-of-three; hit rates are measured on the
        // final round (steady state — warm-up already faulted the pool).
        // The scan rate is intra-page locality (~records-per-page, pool-
        // size-invariant by design); the probe rate is cross-round reuse
        // of index nodes and result rows, which is what capacity buys.
        let mut scan_best = f64::INFINITY;
        let mut probe_best = f64::INFINITY;
        let mut scan_hit = 0.0f64;
        let mut probe_hit = 0.0f64;
        let mut results = 0usize;
        for round in 0..4 {
            let before = cat.db.pager().pool_stats();
            let t0 = std::time::Instant::now();
            let out = run_xquery_with_options(&cat, scan_q, &ExecOptions::default())
                .expect("pager scan runs");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            results = out.sequence.len();
            let d = cat.db.pager().pool_stats().delta_since(&before);
            scan_hit = d.hits as f64 / (d.hits + d.misses).max(1) as f64;
            if round > 0 && ms < scan_best {
                scan_best = ms;
            }
            let before = cat.pool_stats();
            let t0 = std::time::Instant::now();
            run_xquery_with_options(&cat, probe_q, &ExecOptions::default())
                .expect("pager probe runs");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let d = cat.pool_stats().delta_since(&before);
            probe_hit = d.hits as f64 / (d.hits + d.misses).max(1) as f64;
            if round > 0 && ms < probe_best {
                probe_best = ms;
            }
        }
        let ws_ratio = heap_pages as f64 / capacity as f64;
        println!(
            "  {capacity:>4} frames: scan {scan_best:>7.1} ms (hit {:.1}%)  \
             probe {probe_best:>6.2} ms (hit {:.1}%)  (working set {ws_ratio:.1}x pool, \
             {results} results)",
            scan_hit * 100.0,
            probe_hit * 100.0
        );
        rungs.push(format!(
            "    {{ \"capacity_frames\": {capacity}, \"working_set_over_pool\": {ws_ratio:.2}, \
             \"scan_millis\": {scan_best:.3}, \"probe_millis\": {probe_best:.3}, \
             \"scan_hit_rate\": {scan_hit:.4}, \"probe_hit_rate\": {probe_hit:.4} }}"
        ));
    }

    // --- suffix vs full recovery ----------------------------------------
    let records: usize = std::env::var("XQDB_BENCH_PAGER_RECORDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let dir = std::path::PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/bench-tmp/pager_recovery"
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let doc = r#"<order><custid>1003</custid><lineitem price="123.45"><product><id>p2</id></product></lineitem></order>"#;
    {
        let mut w = WalWriter::open(
            &dir,
            WalConfig { fsync: FsyncMode::Off, ..Default::default() },
            0,
        )
        .expect("bench WAL opens");
        w.append(&WalRecord::CreateTable {
            name: "ORDERS".into(),
            columns: vec![("ORDID".into(), "INTEGER".into()), ("ORDDOC".into(), "XML".into())],
        })
        .expect("DDL appends");
        for i in 0..records {
            w.append(&WalRecord::Insert {
                table: "ORDERS".into(),
                values: vec![WalValue::Integer(i as i64), WalValue::Xml(doc.into())],
            })
            .expect("row appends");
        }
        w.flush().expect("bench flush succeeds");
    }
    let t0 = std::time::Instant::now();
    let (catalog, report) = recover_catalog(
        &dir,
        &Trace::disabled(),
        &xqdb_core::Obs::disabled(),
    )
    .expect("full replay succeeds");
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(catalog.db.table("orders").map(|t| t.len()), Some(records));
    assert_eq!(report.wal_records_replayed as usize, records + 1, "full replay replays the log");
    println!(
        "pager recovery ({records} records):\n  full replay:     {full_ms:>8.1} ms  \
         ({} records replayed)",
        report.wal_records_replayed
    );

    // Checkpoint through the session path: flush dirty pages, write the
    // manifest, cut the WAL. The reopen below then replays only the suffix
    // — which is empty.
    {
        let (mut session, _) = SqlSession::open_durable(
            &dir,
            xqdb_core::WalConfig { fsync: xqdb_core::FsyncMode::Off, ..Default::default() },
        )
        .expect("durable session opens");
        session
            .checkpoint()
            .expect("checkpoint succeeds")
            .expect("a durable session always checkpoints");
    }
    let t0 = std::time::Instant::now();
    let (catalog, report) = recover_catalog(
        &dir,
        &Trace::disabled(),
        &xqdb_core::Obs::disabled(),
    )
    .expect("suffix recovery succeeds");
    let suffix_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(catalog.db.table("orders").map(|t| t.len()), Some(records));
    assert_eq!(report.wal_records_replayed, 0, "the manifest covers every record");
    assert_eq!(report.manifest_rows, records, "rows adopted from heap pages");
    let _ = std::fs::remove_dir_all(&dir);
    let speedup = full_ms / suffix_ms;
    println!(
        "  suffix replay:   {suffix_ms:>8.1} ms  (0 records replayed, {records} rows \
         adopted from pages, {speedup:.1}x)"
    );
    assert!(
        suffix_ms < full_ms,
        "suffix recovery must beat full replay ({suffix_ms:.1} ms vs {full_ms:.1} ms)"
    );

    let json = format!(
        "{{\n  \"scan_workload\": \"serial full scan + indexed probe over the orders collection at five pool capacities (4 frames to full residency)\",\n  \
         \"docs\": {docs},\n  \"heap_pages\": {heap_pages},\n  \
         \"ladder\": [\n{}\n  ],\n  \
         \"recovery\": {{ \"records\": {records}, \"full_replay_millis\": {full_ms:.3}, \
         \"suffix_millis\": {suffix_ms:.3}, \"speedup\": {speedup:.3}, \
         \"suffix_records_replayed\": 0 }},\n  \
         \"note\": \"suffix recovery adopts rows from checkpointed heap pages via the manifest instead of re-parsing every logged document\"\n}}\n",
        rungs.join(",\n"),
    );
    std::fs::write("BENCH_pager.json", json).expect("BENCH_pager.json is writable");
    println!("  wrote BENCH_pager.json\n");
}

/// Pre-filter report: a selective, unindexed query (`/order[promo/code]`)
/// over a large heterogeneous collection where ~1% of documents carry the
/// promo element. The structural pre-filter skips the other 99% on their
/// path postings alone; the same run measures the plan cache's hit rate
/// over repeated executions. Records `BENCH_prefilter.json`. Document count
/// overridable via `XQDB_BENCH_PREFILTER_DOCS`.
fn prefilter_report() {
    use xqdb_obs::Counter;

    let docs: usize = std::env::var("XQDB_BENCH_PREFILTER_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SCAN_DOCS);
    let mut cat = orders_catalog(docs, OrderParams::default(), &[]);
    let promo = (docs / 100).max(1);
    for i in 0..promo {
        let xml = format!(
            "<order><custid>promo{i}</custid><promo><code>P{i}</code></promo></order>"
        );
        let d = xqdb_xmlparse::parse_document(&xml).expect("promo doc parses");
        cat.insert(
            "orders",
            vec![
                xqdb_storage::SqlValue::Integer((docs + i) as i64),
                xqdb_storage::SqlValue::Xml(d.root()),
            ],
        )
        .expect("promo insert succeeds");
    }
    let query = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[promo/code]/custid";
    println!(
        "structural prefilter ({} docs, {promo} with /order/promo/code, unindexed):",
        docs + promo
    );

    // Plan-cache hit rate first (this also warms the cache, so both timed
    // configurations below execute against the same cached plan).
    let cache_runs = 20usize;
    let obs = Obs::new(ObsConfig::metrics_only());
    let cache_opts = ExecOptions { obs: obs.clone(), ..ExecOptions::default() };
    for _ in 0..cache_runs {
        run_xquery_with_options(&cat, query, &cache_opts).expect("cache-rate run succeeds");
    }
    let snap = obs.metrics_snapshot().expect("metrics are enabled");
    let hits = snap.counter(Counter::PlanCacheHits);
    let misses = snap.counter(Counter::PlanCacheMisses);
    let hit_rate = hits as f64 / (hits + misses) as f64;
    println!(
        "  plan cache: {hits} hit(s), {misses} miss(es) over {cache_runs} identical runs \
         ({:.0}% hit rate)",
        hit_rate * 100.0
    );

    let mut results = [0usize; 2];
    let mut skipped = 0usize;
    // The twig join is off in both configurations: it would otherwise take
    // this branching query first and leave the prefilter nothing to skip.
    let median = interleaved_median_millis::<2>(|i| {
        let prefilter = i == 1;
        let opts = ExecOptions { prefilter, twig: false, ..ExecOptions::default() };
        let out = run_xquery_with_options(&cat, query, &opts).expect("prefilter bench runs");
        results[i] = out.sequence.len();
        if prefilter {
            skipped = out.stats.prefilter_docs_skipped;
        }
    });
    assert_eq!(
        results[0], results[1],
        "the pre-filter changed the result cardinality — that is a correctness bug"
    );
    let speedup = median[0] / median[1];
    println!("  prefilter off: {:.1} ms  ({} results)", median[0], results[0]);
    println!(
        "  prefilter on:  {:.1} ms  ({speedup:.2}x, {skipped} docs skipped structurally)",
        median[1]
    );
    let json = format!(
        "{{\n  \"workload\": \"selective unindexed query over a heterogeneous collection; ~1% of documents carry /order/promo/code\",\n  \
         \"query\": \"{}\",\n  \"docs\": {},\n  \"promo_docs\": {promo},\n  \
         \"off_millis\": {:.3},\n  \"on_millis\": {:.3},\n  \"speedup\": {speedup:.3},\n  \
         \"prefilter_docs_skipped\": {skipped},\n  \
         \"plan_cache\": {{ \"runs\": {cache_runs}, \"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {hit_rate:.3} }},\n  \
         \"note\": \"off = ExecOptions.prefilter=false, equivalent to --no-prefilter; the twig join is off in both, or it would take this branching query first; each time is the median of {ROUNDS} interleaved rounds after one warm-up; results are asserted identical on and off\"\n}}\n",
        query.replace('\"', "\\\""),
        docs + promo,
        median[0],
        median[1],
    );
    std::fs::write("BENCH_prefilter.json", json).expect("BENCH_prefilter.json is writable");
    println!("  wrote BENCH_prefilter.json\n");
    if docs >= 50_000 {
        assert!(
            speedup >= 5.0,
            "the structural pre-filter must be at least 5x on the selective workload, got {speedup:.2}x"
        );
    }
}

/// Twig-join trajectory: a descendant-axis branching query over a large
/// heterogeneous collection, with the holistic twig join on vs off. The
/// leading `//` step defeats the structural pre-filter's rooted
/// paths, so without the twig join the query falls back to full
/// navigation — exactly the class the labeling subsystem exists for.
fn twig_report() {
    let docs: usize = std::env::var("XQDB_BENCH_TWIG_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SCAN_DOCS);
    let mut cat = orders_catalog(docs, OrderParams::default(), &[]);
    // ~1% of the collection carries a `remark` under a lineitem — the
    // branch the query selects on. Synthetic orders never do.
    let remarked = (docs / 100).max(1);
    for i in 0..remarked {
        let xml = format!(
            "<order><custid>rush{i}</custid>\
             <lineitem price=\"999\" quantity=\"1\"><remark>rush</remark>\
             <product><id>r{i}</id></product></lineitem></order>"
        );
        let d = xqdb_xmlparse::parse_document(&xml).expect("remark doc parses");
        cat.insert(
            "orders",
            vec![
                xqdb_storage::SqlValue::Integer((docs + i) as i64),
                xqdb_storage::SqlValue::Xml(d.root()),
            ],
        )
        .expect("remark insert succeeds");
    }
    let query = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price > 500]/remark]//custid";
    println!(
        "holistic twig join ({} docs, {remarked} with a lineitem remark, unindexed):",
        docs + remarked
    );

    let mut results = [0usize; 2];
    let mut skipped = 0usize;
    let mut candidates = 0usize;
    let mut joins = 0u64;
    let median = interleaved_median_millis::<2>(|i| {
        let twig = i == 1;
        let opts = ExecOptions { twig, ..ExecOptions::default() };
        let out = run_xquery_with_options(&cat, query, &opts).expect("twig bench runs");
        results[i] = out.sequence.len();
        if twig {
            skipped = out.stats.twig_docs_skipped;
            candidates = out.stats.twig_candidates;
            joins = out.stats.twig_joins;
        }
    });
    assert_eq!(
        results[0], results[1],
        "the twig join changed the result cardinality — that is a correctness bug"
    );
    let twig_ran = joins > 0;
    if twig_ran {
        assert_eq!(joins, 1, "exactly one source routes through the twig join");
        assert_eq!(skipped, docs, "every remark-less synthetic order is skipped structurally");
        assert_eq!(candidates, remarked, "only the remark orders survive the row-set check");
    }
    let speedup = median[0] / median[1];
    println!("  twig off: {:.1} ms  ({} results, full navigation)", median[0], results[0]);
    println!(
        "  twig on:  {:.1} ms  ({speedup:.2}x, {joins} join(s), {candidates} candidate(s), \
         {skipped} docs skipped structurally)",
        median[1]
    );
    let json = format!(
        "{{\n  \"workload\": \"descendant-axis branching query over a heterogeneous collection; ~1% of documents carry //order/lineitem/remark\",\n  \
         \"query\": \"{}\",\n  \"docs\": {},\n  \"remark_docs\": {remarked},\n  \
         \"off_millis\": {:.3},\n  \"on_millis\": {:.3},\n  \"speedup\": {speedup:.3},\n  \
         \"twig_joins\": {joins},\n  \"twig_candidates\": {candidates},\n  \
         \"twig_docs_skipped\": {skipped},\n  \
         \"note\": \"off = ExecOptions.twig=false, equivalent to --no-twig; the leading // defeats the rooted-path prefilter, so off means full navigation; each time is the median of {ROUNDS} interleaved rounds after one warm-up; results are asserted identical on and off\"\n}}\n",
        query.replace('\"', "\\\""),
        docs + remarked,
        median[0],
        median[1],
    );
    std::fs::write("BENCH_twig.json", json).expect("BENCH_twig.json is writable");
    println!("  wrote BENCH_twig.json\n");
    if twig_ran && docs >= 50_000 {
        assert!(
            speedup >= 5.0,
            "the twig join must be at least 5x on the selective descendant workload, got {speedup:.2}x"
        );
    }
}

/// Cost-based planner report for `BENCH_planner.json`: two indexes are
/// eligible for the same `@price` predicate — a narrow one over
/// `//lineitem/@price` and a broad one over `//@price` that also
/// swallows a dozen decoy fee prices per order, so probing the broad
/// index fetches ~13x the rows for the same answer. The catalog order
/// (what the rule-based planner takes first) is steered by index names;
/// the report builds both orders, asserts the costed planner picks the
/// narrow index under both while the forced first-eligible twin
/// (`cost: false`, i.e. `--no-cost`) follows catalog order, and
/// times costed vs forced-wrong-index on the order where the broad
/// index comes first. Document count overridable via
/// `XQDB_BENCH_PLANNER_DOCS`.
fn planner_report() {
    use xqdb_storage::{Column, SqlType, SqlValue, Table};

    let docs: usize = std::env::var("XQDB_BENCH_PLANNER_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let decoys = 12usize;
    let build = |narrow_first: bool| -> xqdb_core::Catalog {
        let mut c = xqdb_core::Catalog::new();
        c.create_table(Table::new(
            "orders",
            vec![Column::new("ordid", SqlType::Integer), Column::new("orddoc", SqlType::Xml)],
        ))
        .expect("bench table creates");
        let (narrow, broad) = if narrow_first {
            ("idx_a_narrow", "idx_z_broad")
        } else {
            ("idx_z_narrow", "idx_a_broad")
        };
        c.create_index(narrow, "orders", "orddoc", "//lineitem/@price", "double")
            .expect("narrow index creates");
        c.create_index(broad, "orders", "orddoc", "//@price", "double")
            .expect("broad index creates");
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB_0057);
        for i in 0..docs {
            let price: f64 = rng.random_range(0.0..1000.0);
            let mut xml = format!("<order><custid>{i}</custid><lineitem price=\"{price:.2}\"/>");
            for _ in 0..decoys {
                let fee: f64 = rng.random_range(0.0..1000.0);
                xml.push_str(&format!("<fee price=\"{fee:.2}\"/>"));
            }
            xml.push_str("</order>");
            let d = xqdb_xmlparse::parse_document(&xml).expect("bench doc parses");
            c.insert("orders", vec![SqlValue::Integer(i as i64), SqlValue::Xml(d.root())])
                .expect("bench insert succeeds");
        }
        c
    };
    let query = "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 990]";
    let chosen = |cat: &xqdb_core::Catalog, use_cost: bool| -> String {
        let q = xqdb_xquery::parse_query(query).expect("bench query parses");
        let plan = xqdb_core::plan_query_costed(
            cat,
            q,
            &xqdb_core::AnalysisEnv::new(),
            &xqdb_obs::Trace::disabled(),
            use_cost,
        );
        plan.access
            .sources
            .iter()
            .filter_map(|a| a.index.as_ref())
            .map(xqdb_core::IndexCond::render)
            .collect::<Vec<_>>()
            .join(" ")
    };

    println!("cost-based planner ({docs} docs, {decoys} decoy fee prices per order):");
    let narrow_first = build(true);
    let broad_first = build(false);
    // Choice assertions: cost is order-independent, the rule-based twin
    // follows whatever the catalog lists first.
    for (label, cat) in [("narrow-first", &narrow_first), ("broad-first", &broad_first)] {
        let pick = chosen(cat, true);
        assert!(
            pick.contains("NARROW") && !pick.contains("BROAD"),
            "costed planner must pick the narrow index on the {label} catalog, got: {pick}"
        );
    }
    assert!(chosen(&narrow_first, false).contains("NARROW"), "rule-based follows catalog order");
    assert!(chosen(&broad_first, false).contains("BROAD"), "rule-based follows catalog order");
    println!("  choice: costed picks the narrow index under both catalog orders");

    // Timing on the adversarial order: the broad index is first, so the
    // forced first-eligible twin probes the wrong index.
    let mut results = [0usize; 2];
    let mut est = 0u64;
    let mut actual = 0u64;
    let median = interleaved_median_millis::<2>(|i| {
        let cost = i == 1;
        let opts = ExecOptions { cost, ..ExecOptions::default() };
        let out =
            run_xquery_with_options(&broad_first, query, &opts).expect("planner bench runs");
        results[i] = out.sequence.len();
        if cost {
            est = out.stats.cost_est_rows;
            actual = out.stats.cost_actual_rows;
        }
    });
    assert_eq!(
        results[0], results[1],
        "the cost layer changed the result cardinality — that is a correctness bug"
    );
    let speedup = median[0] / median[1];
    println!("  forced wrong index: {:.1} ms  ({} results)", median[0], results[0]);
    println!(
        "  costed:             {:.1} ms  ({speedup:.2}x, est {est} row(s), actual {actual})",
        median[1]
    );
    let json = format!(
        "{{\n  \"workload\": \"selective @price probe where a broad //@price index carries {decoys} decoy fee prices per order; catalog lists the broad index first\",\n  \
         \"query\": \"{}\",\n  \"docs\": {docs},\n  \"decoy_prices_per_doc\": {decoys},\n  \
         \"forced_wrong_index_millis\": {:.3},\n  \"costed_millis\": {:.3},\n  \
         \"speedup\": {speedup:.3},\n  \"est_rows\": {est},\n  \"actual_rows\": {actual},\n  \
         \"order_independent\": true,\n  \
         \"note\": \"forced = ExecOptions.cost=false, equivalent to --no-cost; the costed planner picks the narrow index under both catalog orders; each time is the median of {ROUNDS} interleaved rounds after one warm-up; results are asserted identical\"\n}}\n",
        query.replace('\"', "\\\""),
        median[0],
        median[1],
    );
    std::fs::write("BENCH_planner.json", json).expect("BENCH_planner.json is writable");
    println!("  wrote BENCH_planner.json\n");
    if docs >= 10_000 {
        assert!(
            speedup >= 5.0,
            "the costed planner must be at least 5x over the forced wrong index, got {speedup:.2}x"
        );
    }
}

/// Mixed-DML scenario for `BENCH_dml.json`: the TPoX-style order
/// lifecycle (insert → amend → query → delete, hot-key skew) against a
/// durable session, with a checkpoint every quarter of the run so
/// tombstone reclamation happens mid-workload, not just at the end.
/// Reports per-kind throughput and closes with two oracle passes: the
/// rebuild oracle over the live session, then a full crash-recovery of
/// the directory and the oracle again over the recovered catalog —
/// asserting the incremental maintenance and the recovery path agree.
/// Op count overridable via `XQDB_BENCH_DML_OPS`.
fn dml_report() {
    use xqdb_obs::Counter;
    use xqdb_workload::{MixedDmlParams, MixedDmlScenario};

    let ops: usize = std::env::var("XQDB_BENCH_DML_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let dir = std::path::PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/bench-tmp/dml_bench"
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut session, _) = SqlSession::open_durable(
        &dir,
        xqdb_core::WalConfig { fsync: xqdb_core::FsyncMode::Batch, ..Default::default() },
    )
    .expect("durable DML session opens");
    session.set_obs(Obs::new(ObsConfig::metrics_only()));
    session
        .execute("CREATE TABLE orders (ordid INTEGER, orddoc XML)")
        .expect("schema DDL runs");
    session
        .execute(
            "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
        )
        .expect("index DDL runs");

    let mut scenario = MixedDmlScenario::new(MixedDmlParams::default());
    let kinds = ["insert", "amend", "query", "delete"];
    let mut count = [0usize; 4];
    let mut secs = [0f64; 4];
    let checkpoint_every = (ops / 4).max(1);
    let wall0 = std::time::Instant::now();
    for i in 0..ops {
        let op = scenario.next_op();
        let k = kinds.iter().position(|k| *k == op.kind()).expect("known op kind");
        let sql = op.to_sql();
        let t0 = std::time::Instant::now();
        session.execute(&sql).expect("scenario statement runs");
        secs[k] += t0.elapsed().as_secs_f64();
        count[k] += 1;
        if (i + 1) % checkpoint_every == 0 {
            session.checkpoint().expect("mid-run checkpoint succeeds");
        }
    }
    let wall = wall0.elapsed().as_secs_f64();
    session.checkpoint().expect("final checkpoint succeeds");

    let live = scenario.live_ids().len();
    let snap = session.obs.metrics_snapshot().expect("metrics are enabled");
    let deleted = snap.counter(Counter::RowsDeleted);
    let replaced = snap.counter(Counter::DocsReplaced);
    let reclaimed = snap.counter(Counter::TombstonesReclaimed);
    println!("mixed DML scenario ({ops} ops, order lifecycle with hot-key skew):");
    let mut kind_rows = Vec::new();
    for (k, kind) in kinds.iter().enumerate() {
        let per_sec = count[k] as f64 / secs[k].max(1e-9);
        let mean_ms = secs[k] * 1e3 / count[k].max(1) as f64;
        println!(
            "  {kind:<7} {:>7} ops  {per_sec:>9.0} op/s  (mean {mean_ms:.3} ms)",
            count[k]
        );
        kind_rows.push(format!(
            "    {{ \"kind\": \"{kind}\", \"ops\": {}, \"ops_per_sec\": {per_sec:.1}, \
             \"mean_millis\": {mean_ms:.4} }}",
            count[k]
        ));
    }
    println!(
        "  counters: {deleted} deleted, {replaced} replaced, {reclaimed} tombstone(s) \
         reclaimed, {live} live row(s)"
    );

    // Oracle pass 1: the live session's incrementally-maintained state.
    let report = xqdb_core::verify_derived_state(&session.catalog)
        .expect("oracle pass runs");
    assert!(
        report.is_clean(),
        "live-session derived state diverged from rebuild:\n{}",
        report.render()
    );
    drop(session);

    // Oracle pass 2: recover the directory from disk and verify again.
    let t0 = std::time::Instant::now();
    let (catalog, _) = xqdb_core::recover_catalog(
        &dir,
        &xqdb_obs::Trace::disabled(),
        &xqdb_core::Obs::disabled(),
    )
    .expect("post-scenario recovery succeeds");
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        catalog.db.table("orders").map(xqdb_storage::Table::live_len),
        Some(live),
        "recovered live rows match the scenario"
    );
    let report = xqdb_core::verify_derived_state(&catalog).expect("oracle pass runs");
    assert!(
        report.is_clean(),
        "recovered derived state diverged from rebuild:\n{}",
        report.render()
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("  oracle: clean on the live session and after recovery ({recovery_ms:.1} ms)");

    let json = format!(
        "{{\n  \"workload\": \"TPoX-style order lifecycle (insert/amend/query/delete, hot-key skew) over a durable session, checkpoint every quarter\",\n  \
         \"ops\": {ops},\n  \"wall_seconds\": {wall:.3},\n  \
         \"per_kind\": [\n{}\n  ],\n  \
         \"rows_deleted\": {deleted},\n  \"docs_replaced\": {replaced},\n  \
         \"tombstones_reclaimed\": {reclaimed},\n  \"live_rows\": {live},\n  \
         \"recovery_millis\": {recovery_ms:.3},\n  \
         \"oracle\": \"verify_derived_state clean on the live session and again after crash-recovery\"\n}}\n",
        kind_rows.join(",\n"),
    );
    std::fs::write("BENCH_dml.json", json).expect("BENCH_dml.json is writable");
    println!("  wrote BENCH_dml.json\n");
}

struct Row {
    experiment: &'static str,
    variant: String,
    summary: RunSummary,
}

/// Orders documents behind the server throughput ladder. Overridable via
/// `XQDB_BENCH_SERVER_DOCS` for quick local runs.
const SERVER_DOCS: usize = 2_000;

/// Start a loopback server over an indexed orders session.
fn bench_server(cfg: xqdb_server::ServerConfig) -> xqdb_server::ServerHandle {
    let docs: usize = std::env::var("XQDB_BENCH_SERVER_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SERVER_DOCS);
    let catalog =
        orders_catalog(docs, OrderParams::default(), &[("li_price", "//lineitem/@price", "double")]);
    let session = SqlSession::from_catalog(catalog);
    xqdb_server::Server::start("127.0.0.1:0", cfg, session).expect("bench server binds")
}

/// One client's slice of a ladder step: mixed read/write requests, with
/// per-request latencies and the shed count.
fn drive_client(addr: &str, client_id: usize, requests: usize) -> (Vec<f64>, u64) {
    use xqdb_server::protocol::Response;
    let mut client = xqdb_server::chaos::Client::connect(addr).expect("bench client connects");
    let read = "SELECT ordid FROM orders \
                WHERE XMLEXISTS('$o//lineitem[@price > 990]' passing orddoc as \"o\")";
    let mut latencies = Vec::with_capacity(requests);
    let mut shed = 0u64;
    for r in 0..requests {
        // ~10% writes: one insert per ten requests, unique ids per client.
        let stmt = if r % 10 == 9 {
            format!(
                r#"INSERT INTO orders VALUES ({}, '<order><custid>{}</custid><lineitem price="5.00"/></order>')"#,
                1_000_000 + client_id * 10_000 + r,
                9_000 + client_id
            )
        } else {
            read.to_string()
        };
        let t0 = std::time::Instant::now();
        match client.statement(&stmt).expect("bench request gets a typed response") {
            Response::Ok { .. } | Response::Error { .. } => {
                latencies.push(t0.elapsed().as_secs_f64() * 1e3)
            }
            Response::Busy { .. } => shed += 1,
            Response::Protocol { reason, message } => {
                panic!("bench traffic is well-formed; got {reason:?}: {message}")
            }
        }
    }
    (latencies, shed)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Throughput ladder 1 → 256 concurrent sessions of mixed read/write
/// traffic against one server, then a deliberately undersized server to
/// measure the shed rate under overload. Records `BENCH_server.json`.
fn server_report() {
    let hardware_threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("server throughput ladder ({hardware_threads} hardware threads):");
    let mut steps = Vec::new();
    for sessions in [1usize, 4, 16, 64, 256] {
        let cfg = xqdb_server::ServerConfig {
            max_sessions: 32,
            queue_depth: 512,
            queue_timeout: std::time::Duration::from_secs(5),
            ..Default::default()
        };
        let handle = bench_server(cfg);
        let addr = handle.local_addr().to_string();
        // Aim for a comparable request total at every rung.
        let per_client = (2_048 / sessions).max(4);
        let addr_ref = &addr;
        let t0 = std::time::Instant::now();
        let per = xqdb_runtime::WorkerPool::new(sessions)
            .run(sessions, |ci| drive_client(addr_ref, ci, per_client));
        let wall = t0.elapsed().as_secs_f64();
        let mut latencies: Vec<f64> = per.iter().flat_map(|(l, _)| l.iter().copied()).collect();
        let shed: u64 = per.iter().map(|(_, s)| s).sum();
        latencies.sort_by(|a, b| a.total_cmp(b));
        let completed = latencies.len();
        let throughput = completed as f64 / wall;
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
        let report = handle.shutdown();
        assert_eq!(report.connection_panics, 0, "bench load must not panic handlers");
        println!(
            "  {sessions:>3} sessions: {throughput:>8.0} req/s  p50 {p50:.2} ms  p99 {p99:.2} ms  \
             ({completed} completed, {shed} shed)"
        );
        steps.push(format!(
            "    {{ \"sessions\": {sessions}, \"requests_completed\": {completed}, \
             \"throughput_rps\": {throughput:.1}, \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \
             \"shed\": {shed} }}"
        ));
    }

    // Overload: a server sized for 2 concurrent statements and a 4-deep
    // queue, hammered by 64 sessions — the shed rate is the story.
    let cfg = xqdb_server::ServerConfig {
        max_sessions: 2,
        queue_depth: 4,
        queue_timeout: std::time::Duration::from_millis(10),
        retry_after_ms: 25,
        ..Default::default()
    };
    let handle = bench_server(cfg);
    let addr = handle.local_addr().to_string();
    let addr_ref = &addr;
    let sessions = 64usize;
    let per_client = 16usize;
    let t0 = std::time::Instant::now();
    let per = xqdb_runtime::WorkerPool::new(sessions)
        .run(sessions, |ci| drive_client(addr_ref, ci, per_client));
    let wall = t0.elapsed().as_secs_f64();
    let completed: usize = per.iter().map(|(l, _)| l.len()).sum();
    let shed: u64 = per.iter().map(|(_, s)| s).sum();
    let total = (sessions * per_client) as u64;
    let shed_rate = shed as f64 / total as f64;
    let report = handle.shutdown();
    assert_eq!(report.connection_panics, 0, "overload must not panic handlers");
    println!(
        "  overload (2 slots, 4-deep queue, 64 sessions): {completed} completed, \
         {shed} shed of {total} ({:.0}% shed rate)",
        shed_rate * 100.0
    );

    let json = format!(
        "{{\n  \"workload\": \"mixed 90/10 read/write over indexed orders via loopback server\",\n  \
         \"hardware_threads\": {hardware_threads},\n  \
         \"ladder\": [\n{}\n  ],\n  \
         \"overload\": {{ \"max_sessions\": 2, \"queue_depth\": 4, \"sessions\": 64, \
         \"requests\": {total}, \"completed\": {completed}, \"shed\": {shed}, \
         \"shed_rate\": {shed_rate:.3}, \"wall_seconds\": {wall:.3} }}\n}}\n",
        steps.join(",\n"),
    );
    std::fs::write("BENCH_server.json", json).expect("BENCH_server.json is writable");
    println!("  wrote BENCH_server.json\n");
}

fn main() {
    if std::env::args().any(|a| a == "--obs-overhead") {
        obs_overhead_report();
        return;
    }
    if std::env::args().any(|a| a == "--server") {
        server_report();
        return;
    }
    if std::env::args().any(|a| a == "--durability") {
        durability_report();
        return;
    }
    if std::env::args().any(|a| a == "--prefilter") {
        prefilter_report();
        return;
    }
    if std::env::args().any(|a| a == "--pager") {
        pager_report();
        return;
    }
    if std::env::args().any(|a| a == "--twig") {
        twig_report();
        return;
    }
    if std::env::args().any(|a| a == "--dml") {
        dml_report();
        return;
    }
    if std::env::args().any(|a| a == "--planner") {
        planner_report();
        return;
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut push = |experiment: &'static str, variant: &str, summary: RunSummary| {
        rows.push(Row { experiment, variant: variant.to_string(), summary });
    };

    // ---------------------------------------------------------- E2.2
    {
        let params = OrderParams::default();
        let t = params.price_threshold(0.01);
        let indexed =
            orders_catalog(N, params, &[("li_price", "//lineitem/@price", "double")]);
        let plain = orders_catalog(N, OrderParams::default(), &[]);
        let q1 = format!(
            "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>{t}] return $i"
        );
        push("E2.2 Q1", "indexed probe", summarize(&indexed, &q1));
        push("E2.2 Q1", "collection scan", summarize(&plain, &q1));
        let q2 = format!(
            "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>{t}] return $i"
        );
        push("E2.2 Q2", "narrow idx (ineligible)", summarize(&indexed, &q2));
        let broad = orders_catalog(N, OrderParams::default(), &[("a", "//@*", "double")]);
        push("E2.2 Q2", "broad //@* idx", summarize(&broad, &q2));
    }

    // ---------------------------------------------------------- E3.1
    {
        let params = OrderParams::default();
        let t = params.price_threshold(0.01);
        let cat = orders_catalog(
            N,
            params,
            &[
                ("li_price_d", "//lineitem/@price", "double"),
                ("li_price_s", "//lineitem/@price", "varchar"),
            ],
        );
        push(
            "E3.1 types",
            "numeric pred → double idx",
            summarize(&cat, &format!("db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > {t}]")),
        );
        push(
            "E3.1 types",
            "string pred → varchar idx",
            summarize(&cat, &format!("db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > \"{t}\"]")),
        );
        let donly =
            orders_catalog(N, OrderParams::default(), &[("d", "//lineitem/@price", "double")]);
        push(
            "E3.1 types",
            "string pred, double idx only (scan)",
            summarize(&donly, &format!("db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > \"{t}\"]")),
        );
    }

    // ---------------------------------------------------------- E3.4
    {
        let params = OrderParams::default();
        let t = params.price_threshold(0.01);
        let cat =
            orders_catalog(N, params, &[("li_price", "//lineitem/@price", "double")]);
        push(
            "E3.4 for/let",
            "Q17 for (probe)",
            summarize(
                &cat,
                &format!(
                    "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
                     for $i in $d//lineitem[@price > {t}] return <r>{{$i}}</r>"
                ),
            ),
        );
        push(
            "E3.4 for/let",
            "Q18 let (scan)",
            summarize(
                &cat,
                &format!(
                    "for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') \
                     let $i := $d//lineitem[@price > {t}] return <r>{{$i}}</r>"
                ),
            ),
        );
        push(
            "E3.4 for/let",
            "Q21 let+where (probe)",
            summarize(
                &cat,
                &format!(
                    "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order \
                     let $p := $o/lineitem/@price where $p > {t} return <r>{{$o/lineitem}}</r>"
                ),
            ),
        );
    }

    // ---------------------------------------------------------- E3.7
    {
        let ns = "http://ournamespaces.com/order";
        let params = OrderParams { namespace: Some(ns.into()), ..Default::default() };
        let t = params.price_threshold(0.01);
        let q = format!(
            "declare default element namespace \"{ns}\"; \
             db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[lineitem/@price > {t}]"
        );
        let mismatched = orders_catalog(
            N,
            params.clone(),
            &[("li_price", "//lineitem/@price", "double")],
        );
        push("E3.7 namespaces", "mismatched idx (scan)", summarize(&mismatched, &q));
        let wildcard =
            orders_catalog(N, params, &[("w", "//*:lineitem/@price", "double")]);
        push("E3.7 namespaces", "wildcard idx (probe)", summarize(&wildcard, &q));
    }

    // ---------------------------------------------------------- E3.8
    {
        let params = OrderParams {
            element_prices: true,
            mixed_content_fraction: 0.3,
            ..Default::default()
        };
        let tq = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[lineitem/price/text() = \"500.00\"]";
        let elem = orders_catalog(N, params.clone(), &[("e", "//price", "varchar")]);
        push("E3.8 text()", "element idx (scan)", summarize(&elem, tq));
        let text = orders_catalog(N, params, &[("t", "//price/text()", "varchar")]);
        push("E3.8 text()", "text() idx (probe)", summarize(&text, tq));
    }

    // ---------------------------------------------------------- E3.10
    {
        let attr = orders_catalog(
            N,
            OrderParams::default(),
            &[("li_price", "//lineitem/@price", "double")],
        );
        let elem = orders_catalog(
            N,
            OrderParams {
                element_prices: true,
                multi_price_fraction: 0.2,
                ..Default::default()
            },
            &[("e_price", "//price", "double")],
        );
        push(
            "E3.10 between",
            "attribute between (1 scan)",
            summarize(
                &attr,
                "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price>450 and @price<550]]",
            ),
        );
        push(
            "E3.10 between",
            "element general-cmp (2 scans)",
            summarize(
                &elem,
                "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[price > 450 and price < 550]",
            ),
        );
        push(
            "E3.10 between",
            "self-axis between (1 scan)",
            summarize(
                &elem,
                "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/price/data()[. > 450 and . < 550]",
            ),
        );
    }

    // Print the table.
    println!(
        "{:<18} {:<38} {:>8} {:>13} {:>12} {:>12}",
        "experiment", "variant", "results", "docs eval/tot", "idx entries", "time"
    );
    println!("{}", "-".repeat(108));
    for r in &rows {
        println!(
            "{:<18} {:<38} {:>8} {:>6}/{:<6} {:>12} {:>12?}",
            r.experiment,
            r.variant,
            r.summary.results,
            r.summary.docs_evaluated,
            r.summary.docs_total,
            r.summary.index_entries,
            r.summary.elapsed,
        );
    }

    // SQL-side experiment (E3.2) via the session interface.
    println!("\nE3.2 (SQL/XML placements, N=2000, sel=1%):");
    let mut s = SqlSession::from_catalog(orders_catalog(
        2000,
        OrderParams::default(),
        &[("li_price", "//lineitem/@price", "double")],
    ));
    let t = OrderParams::default().price_threshold(0.01);
    for (label, sql) in [
        (
            "Q5 XMLQUERY select list (scan)",
            format!("SELECT XMLQuery('$o//lineitem[@price > {t}]' passing orddoc as \"o\") FROM orders"),
        ),
        (
            "Q8 XMLEXISTS (probe)",
            format!("SELECT ordid FROM orders WHERE XMLExists('$o//lineitem[@price > {t}]' passing orddoc as \"o\")"),
        ),
        (
            "Q11 XMLTABLE row-producer (probe)",
            format!(
                "SELECT t.li FROM orders o, XMLTable('$o//lineitem[@price > {t}]' \
                 passing o.orddoc as \"o\" COLUMNS \"li\" XML BY REF PATH '.') as t(li)"
            ),
        ),
        (
            "Q12 column expression (scan)",
            format!(
                "SELECT t.p FROM orders o, XMLTable('$o//lineitem' passing o.orddoc as \"o\" \
                 COLUMNS \"p\" DOUBLE PATH '@price[. > {t}]') as t(p)"
            ),
        ),
    ] {
        let start = std::time::Instant::now();
        let r = s.execute(&sql).expect("experiment SQL runs");
        let elapsed = start.elapsed();
        println!(
            "  {:<36} {:>6} rows  {:>6} docs eval  {:>8} idx entries  {elapsed:?}",
            label,
            r.rows.len(),
            r.stats.docs_evaluated.get("ORDERS").copied().unwrap_or(0),
            r.stats.index_entries_scanned,
        );
    }
}
