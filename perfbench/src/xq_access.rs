//! `xq_access`: selective XQuery over an indexed collection whose pools hold
//! everything. Probe, twig join, prefilter, planning and the plan cache do
//! most of the work; few documents are decoded.
//!
//! The run sets up several times, computes reference digests, warms up,
//! then measures a closed loop with one client. Untraced, it finishes the
//! end-to-end metrics (storage, recovery); traced, traced and untraced
//! statements take turns in the window and the traced ones give the
//! per-layer metrics.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xqdb_core::{run_xquery_with_options, ExecOptions, ExecStats, Obs, ObsConfig, SqlSession};
use xqdb_obs::Counter;

use crate::common::{
    data_dir, digest, heap_file_bytes, ms_since, serialize_items, span_ms, span_self_ms, Args,
    EndToEnd, Latencies, Layers, Metrics, Outcome,
};
use crate::durable;

/// Orders in the collection.
pub const DOCS: usize = 10_000;
/// Decoy `<fee price>` attributes per order: only the broad `//@price`
/// index sees them.
const DECOYS: usize = 4;
/// Distinct promo codes; about 1% of orders carry one.
const PROMO_CODES: usize = 8;
/// Set-ups whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Reopens whose fastest is `recovery_s`.
const REOPENS: usize = 3;
/// Untimed statements that fill the plan cache before the window opens.
const WARMUP: usize = 600;

/// Generate the collection: one XML text per order, ordid = position.
pub fn documents(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0A11_CE55);
    (0..DOCS)
        .map(|i| {
            let mut x = format!(
                "<order id=\"{i}\"><custid>{}</custid><shipdate>200{}-0{}-1{}</shipdate>",
                rng.random_range(0..5000u32),
                rng.random_range(0..6u32),
                rng.random_range(1..10u32),
                rng.random_range(0..10u32)
            );
            if rng.random_bool(0.01) {
                x.push_str(&format!(
                    "<promo><code>P{}</code></promo>",
                    rng.random_range(0..PROMO_CODES)
                ));
            }
            let remark = rng.random_bool(0.01);
            for li in 0..rng.random_range(1..=3usize) {
                let (price, note) = if remark && li == 0 {
                    (rng.random_range(900.0..1000.0), "<remark>rush</remark>")
                } else {
                    (rng.random_range(0.0..1000.0), "")
                };
                x.push_str(&format!(
                    "<lineitem price=\"{price:.2}\" quantity=\"{}\">{note}<product><id>p{}</id></product></lineitem>",
                    rng.random_range(1..=10u32),
                    rng.random_range(0..500u32)
                ));
            }
            for _ in 0..DECOYS {
                x.push_str(&format!("<fee price=\"{:.2}\"/>", rng.random_range(0.0..1000.0)));
            }
            x.push_str("</order>");
            x
        })
        .collect()
}

/// The query shapes, with their share of the mix and their literal pools.
/// Every pool is skew-sampled; together they hold more distinct texts than
/// the 64-entry plan cache.
fn shapes() -> Vec<(&'static str, u32, Vec<String>)> {
    let src = "db2-fn:xmlcolumn('ORDERS.ORDDOC')";
    vec![
        (
            "range",
            25,
            (0..32)
                .map(|k| {
                    let t = 997.0 + f64::from(k) * 0.0625;
                    format!("for $i in {src}//order[lineitem/@price > {t}] return $i")
                })
                .collect(),
        ),
        (
            "between",
            25,
            (0..32)
                .map(|k| {
                    let a = 0.5 + f64::from(k) * 31.0;
                    format!(
                        "{src}//order[lineitem[@price > {a} and @price < {}]]/custid",
                        a + 2.0
                    )
                })
                .collect(),
        ),
        (
            "twig",
            20,
            (0..32)
                .map(|k| {
                    let t = 980.0 + f64::from(k) * 0.5;
                    format!("{src}//order[lineitem[@price > {t}]/remark]//custid")
                })
                .collect(),
        ),
        (
            "prefilter",
            10,
            (0..PROMO_CODES)
                .map(|k| format!("{src}/order[promo/code = \"P{k}\"]/custid"))
                .collect(),
        ),
        (
            "decoy",
            20,
            (0..32)
                .map(|k| {
                    let t = 997.0 + f64::from(k) * 0.0625;
                    format!("{src}//lineitem[@price > {t}]/product/id")
                })
                .collect(),
        ),
    ]
}

/// The seeded statement stream: shape by fixed weight, literal by a draw
/// skewed toward the head of the shape's pool.
pub struct Stream {
    rng: StdRng,
    shapes: Vec<(&'static str, u32, Vec<String>)>,
    total: u32,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let shapes = shapes();
        let total = shapes.iter().map(|s| s.1).sum();
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x57_12EA),
            shapes,
            total,
        }
    }

    /// Every distinct statement text the stream can produce.
    pub fn texts(&self) -> Vec<String> {
        self.shapes
            .iter()
            .flat_map(|s| s.2.iter().cloned())
            .collect()
    }

    /// The next statement: `(shape, text)`.
    pub fn next_statement(&mut self) -> (&'static str, String) {
        let mut draw = self.rng.random_range(0..self.total);
        let mut pick = 0;
        while draw >= self.shapes[pick].1 {
            draw -= self.shapes[pick].1;
            pick += 1;
        }
        let u: f64 = self.rng.random_range(0.0..1.0);
        let pool = &self.shapes[pick].2;
        let k = ((u * u) * pool.len() as f64) as usize;
        (self.shapes[pick].0, pool[k.min(pool.len() - 1)].clone())
    }
}

/// Load the collection into a durable session (WAL `fsync = batch`) with
/// the narrow `//lineitem/@price` index and the broad decoy `//@price`
/// index, checkpoint, then size every pool to hold the whole heap and all
/// index nodes. Returns the session and each INSERT's latency.
fn setup(dir: &Path, docs: &[String], obs: &Obs) -> (SqlSession, Vec<f64>) {
    let mut s = durable::open(dir, obs);
    create_schema(&mut s);
    let lat = durable::load(&mut s, docs);
    durable::checkpoint(&mut s);
    let frames = s
        .catalog
        .db
        .table("orders")
        .map_or(0, |t| t.heap_pages().len())
        * 2
        + 256;
    let _ = s.catalog.db.pager().set_capacity(frames);
    for idx in s.catalog.all_indexes() {
        idx.set_pool_pages(frames);
    }
    (s, lat)
}

/// The table, the narrow `//lineitem/@price` index and the broad decoy
/// `//@price` index.
pub fn create_schema(s: &mut SqlSession) {
    durable::exec(s, "CREATE TABLE orders (ordid INTEGER, orddoc XML)");
    // Named so the broad index sorts first: a rule-based planner takes it,
    // the costed planner must not.
    durable::exec(
        s,
        "CREATE INDEX idx_a_broad ON orders(orddoc) USING XMLPATTERN '//@price' AS double",
    );
    durable::exec(
        s,
        "CREATE INDEX idx_z_narrow ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    );
}

/// Reference digests: every distinct text under plain navigation (no
/// prefilter, no twig join, rule-based planning) — Definition 1 says the
/// optimized run must return the same bytes.
pub fn references(s: &SqlSession, texts: &[String]) -> Result<HashMap<String, u64>, String> {
    let plain = ExecOptions {
        threads: 1,
        prefilter: false,
        twig: false,
        cost: false,
        ..Default::default()
    };
    let mut out = HashMap::new();
    for text in texts {
        let r = run_xquery_with_options(&s.catalog, text, &plain)
            .map_err(|e| format!("reference {text}: {e}"))?;
        out.insert(text.clone(), digest(&serialize_items(&r.sequence)));
    }
    Ok(out)
}

/// Statements, seconds and read latencies of one window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub statements: u64,
    pub seconds: f64,
    pub reads: Latencies,
}

impl Window {
    pub fn ops_per_s(&self) -> f64 {
        self.statements as f64 / self.seconds.max(1e-9)
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let dir = data_dir("xq_access");
    let load_obs = Obs::new(ObsConfig::metrics_only());
    let mut session = None;
    let mut docs = Vec::new();
    let mut loads = Vec::new();
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        drop(session.take());
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        docs = documents(args.seed);
        let (s, lat) = setup(&dir, &docs, &load_obs);
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
        loads.extend(lat);
        session = Some(s);
    }
    let Some(session) = session else { return out };
    e2e.writes = Latencies(loads);
    e2e.doc_bytes = docs.iter().map(String::len).sum::<usize>() as f64;
    e2e.wal_doc_bytes = e2e.doc_bytes * e2e.setup_s.len() as f64;
    e2e.wal_bytes = load_obs
        .metrics_snapshot()
        .map_or(0.0, |m| m.counter(Counter::WalBytes) as f64);
    eprintln!("xq_access: {DOCS} orders, set-up {:?} s", e2e.setup_s);

    let t0 = Instant::now();
    let refs = match references(&session, &Stream::new(args.seed).texts()) {
        Ok(r) => r,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    eprintln!(
        "  {} reference digests in {:.0} ms",
        refs.len(),
        ms_since(t0)
    );

    let opts = ExecOptions {
        threads: 1,
        ..Default::default()
    };
    let mut warm = Stream::new(args.seed);
    for _ in 0..WARMUP {
        let (_, text) = warm.next_statement();
        let _ = run_xquery_with_options(&session.catalog, &text, &opts);
    }
    let mut stream = Stream::new(args.seed);
    if args.trace {
        // Traced and untraced statements alternate over one window twice
        // as long, so both halves see the same mix and the same state.
        let obs = Obs::new(ObsConfig::enabled());
        let traced_opts = ExecOptions {
            obs: obs.clone(),
            ..opts.clone()
        };
        let before = obs.metrics_snapshot();
        let mut layers = Layers::default();
        let [untraced, traced] = window(
            &session,
            &mut stream,
            &refs,
            [&opts, &traced_opts],
            2.0 * args.seconds,
            &mut out,
            &mut layers,
        );
        reconcile(
            &obs,
            before.as_ref(),
            &layers,
            ["pool_hits", "pool_misses"],
            &mut out,
        );
        let fetch_us = fetch_us_per_row(&session, args.seed);
        let parse_us = parse_us_per_kb(&docs);
        out.metrics = per_layer(&layers, &traced, &untraced, fetch_us, parse_us);
    } else {
        let [w, _] = window(
            &session,
            &mut stream,
            &refs,
            [&opts, &opts],
            args.seconds,
            &mut out,
            &mut Layers::default(),
        );
        e2e.statements = w.statements;
        e2e.window_s = w.seconds;
        e2e.reads = w.reads;
        e2e.stored_bytes = heap_file_bytes(&session);
        drop(session);
        e2e.recovery_s = durable::reopen_times(&dir, REOPENS);
        out.metrics = e2e.metrics();
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// One measured window: a closed loop with one client for `seconds`. Each
/// result is serialized, as a client receives it, and its digest checked
/// against the reference. When the second option set traces, statements
/// alternate between the two and the traced ones feed `layers`. Returns a
/// [`Window`] per option set.
fn window(
    session: &SqlSession,
    stream: &mut Stream,
    refs: &HashMap<String, u64>,
    opts: [&ExecOptions; 2],
    seconds: f64,
    out: &mut Outcome,
    layers: &mut Layers,
) -> [Window; 2] {
    let alternate = opts[1].obs.enabled();
    let mut w = [Window::default(), Window::default()];
    let t_start = Instant::now();
    for i in 0usize.. {
        if t_start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let side = usize::from(alternate && i % 2 == 1);
        let (shape, text) = stream.next_statement();
        let t0 = Instant::now();
        let result = run_xquery_with_options(&session.catalog, &text, opts[side]);
        let t_ser = Instant::now();
        let body = result
            .as_ref()
            .map(|r| serialize_items(&r.sequence))
            .unwrap_or_default();
        let ms = ms_since(t0);
        w[side].statements += 1;
        w[side].seconds += ms / 1e3;
        out.attempted += 1;
        match &result {
            Ok(r) => {
                if refs.get(&text) != Some(&digest(&body)) {
                    out.fail(format!(
                        "{shape}: result differs from the reference: {text}"
                    ));
                }
                w[side].reads.0.push(ms);
                if side == 1 {
                    let spans = r.trace.finished_spans();
                    let st = &r.stats;
                    account(layers, st, &spans, r.sequence.len());
                    layers.add_ms("xmlparse.serialize", ms_since(t_ser));
                    layers.add("scan_ms", span_self_ms(&spans, "scan"));
                    layers.add("pool_hits", st.buffer_pool_hits as f64);
                    layers.add("pool_misses", st.buffer_pool_misses as f64);
                    layers.add("pool_evictions", st.pages_evicted as f64);
                    layers.add("wall_ms", ms);
                }
            }
            Err(e) => out.fail(format!("{shape}: {e}")),
        }
    }
    if !alternate {
        w[0].seconds = t_start.elapsed().as_secs_f64();
    }
    w
}

/// Fold one statement's spans and stats into the layer accumulators: the
/// layers both front ends report alike. Callers add the scan and the page
/// traffic, which the two front ends report differently.
pub fn account(l: &mut Layers, st: &ExecStats, spans: &[xqdb_obs::SpanRecord], results: usize) {
    l.add_ms("xquery.parse", span_ms(spans, "parse"));
    l.add_ms("engine.plan", span_ms(spans, "plan"));
    l.add_ms("xmlindex.probe", span_self_ms(spans, "index probe"));
    l.add_ms("twig.join", span_self_ms(spans, "twig join"));
    l.add_ms("prefilter", span_self_ms(spans, "prefilter"));
    l.add_ms("xmlparse.serialize", span_ms(spans, "serialize"));
    l.add("statements", 1.0);
    l.add("results", results as f64);
    l.add("docs_evaluated", st.docs_evaluated_total() as f64);
    l.add("index_entries", st.index_entries_scanned as f64);
    l.add("index_probes", st.index_probes as f64);
    l.add("btree_nodes", st.btree_nodes_touched as f64);
    l.add("probe_survivors", st.cost_actual_rows as f64);
    l.add("twig_candidates", st.twig_candidates as f64);
    l.add("twig_skipped", st.twig_docs_skipped as f64);
    if st.twig_joins > 0 {
        l.add("twig_evaluated", st.docs_evaluated_total() as f64);
    }
    l.add("prefilter_skipped", st.prefilter_docs_skipped as f64);
    if spans.iter().any(|s| s.name == "prefilter") {
        l.add(
            "prefilter_considered",
            (st.prefilter_docs_skipped + st.docs_evaluated_total()) as f64,
        );
    }
    l.add("cache_hits", st.plan_cache_hits as f64);
    l.add("cache_misses", st.plan_cache_misses as f64);
}

/// Summed `ExecStats` must equal the registry's deltas: a mismatch is a
/// counter that does not describe what happened, and fails the run. Where
/// documents evaluated and page fetches disagree, the run only notes it.
pub fn reconcile(
    obs: &Obs,
    before: Option<&xqdb_obs::MetricsSnapshot>,
    l: &Layers,
    pool_keys: [&str; 2],
    out: &mut Outcome,
) {
    let (Some(before), Some(after)) = (before, obs.metrics_snapshot()) else {
        return;
    };
    for (counter, key) in [
        (Counter::IndexEntriesScanned, "index_entries"),
        (Counter::TwigDocsSkipped, "twig_skipped"),
        (Counter::PrefilterDocsSkipped, "prefilter_skipped"),
        (Counter::BufferPoolHits, pool_keys[0]),
        (Counter::BufferPoolMisses, pool_keys[1]),
    ] {
        let delta = after.counter(counter) - before.counter(counter);
        if delta as f64 != l.count(key) {
            out.fail(format!(
                "counter {} moved {delta}, the statements' stats sum to {}",
                counter.name(),
                l.count(key)
            ));
        }
    }
    let docs = l.count("docs_evaluated");
    let fetches = l.count("pool_hits") + l.count("pool_misses");
    if docs != fetches {
        eprintln!("  note: {docs} documents evaluated against {fetches} page fetches");
    }
}

/// Mean time of `Table::row` (page fetch, decode, XML re-parse) over a
/// seeded run of consecutive rows — the order a scan visits them — in
/// microseconds.
pub fn fetch_us_per_row(session: &SqlSession, seed: u64) -> f64 {
    let Some(t) = session.catalog.db.table("orders") else {
        return 0.0;
    };
    if t.is_empty() {
        return 0.0;
    }
    let first = StdRng::seed_from_u64(seed ^ 0xFE7C).random_range(0..t.len());
    let t0 = Instant::now();
    let mut fetched = 0usize;
    for i in 0..t.len().min(4000) {
        if let Ok(Some(row)) = t.row((first + i) % t.len()) {
            fetched += usize::from(!std::hint::black_box(row).is_empty());
        }
    }
    ms_since(t0) * 1e3 / fetched.max(1) as f64
}

/// `parse_document` over the workload's documents, in microseconds per KiB.
pub fn parse_us_per_kb(docs: &[String]) -> f64 {
    let t0 = Instant::now();
    let mut bytes = 0usize;
    for d in docs {
        if std::hint::black_box(xqdb_xmlparse::parse_document(d)).is_ok() {
            bytes += d.len();
        }
    }
    ms_since(t0) * 1e3 / (bytes as f64 / 1024.0).max(1e-9)
}

/// The per-layer metrics of a traced window. The scan span is split into
/// row fetch (documents evaluated times the measured per-row fetch time)
/// and evaluation (the rest).
fn per_layer(
    l: &Layers,
    traced: &Window,
    untraced: &Window,
    fetch_us: f64,
    parse_us: f64,
) -> Metrics {
    let n = l.count("statements");
    let mut l = Layers {
        ms: l.ms.clone(),
        counts: l.counts.clone(),
    };
    let scan = l.count("scan_ms");
    let fetch_ms = (l.count("docs_evaluated") * fetch_us / 1e3).min(scan);
    l.add_ms("storage.fetch", fetch_ms);
    l.add_ms("xqeval.eval", scan - fetch_ms);
    let unattributed = l.print_self_times(l.count("wall_ms"), n);
    let mut m = Metrics::default();
    crate::layer_metrics(&mut m, &l, n, fetch_us, parse_us);
    m.put("trace.unattributed_share", unattributed, "ratio");
    m.put(
        "trace.overhead_pct",
        overhead_pct(untraced.ops_per_s(), traced.ops_per_s()),
        "%",
    );
    m
}

/// How much slower traced statements ran than untraced ones, in percent.
pub fn overhead_pct(untraced_ops: f64, traced_ops: f64) -> f64 {
    (untraced_ops / traced_ops.max(1e-9) - 1.0) * 100.0
}
