//! Helpers shared by the workloads: statistics, result digests, the
//! result line, data directories and process memory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use xqdb_core::SqlSession;
use xqdb_xdm::Item;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer metrics.
    pub trace: bool,
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Latency samples of one statement class, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies(pub Vec<f64>);

impl Latencies {
    /// `(p50, p90, count)`. p90 is the tail: the highest percentile with at
    /// least ten samples beyond it in every workload's window
    /// (`sql_lifecycle` holds several hundred statements of each kind).
    pub fn summary(&self) -> (f64, f64, usize) {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        (percentile(&v, 0.50), percentile(&v, 0.90), v.len())
    }
}

/// FNV-1a over a result's serialized form: equal digests mean equal bytes.
pub fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize an XQuery result the way a client receives it, one item per
/// line.
pub fn serialize_items(items: &[Item]) -> String {
    let mut out = String::new();
    for item in items {
        out.push_str(&xqdb_xmlparse::serialize_sequence(std::slice::from_ref(
            item,
        )));
        out.push('\n');
    }
    out
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh scratch directory for durable sessions, inside the build
/// directory of the checkout so a run writes nothing else.
pub fn data_dir(label: &str) -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let dir = Path::new(&base)
        .join("perfbench-data")
        .join(format!("{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bytes of the table's heap file: heap and overflow-chain pages.
pub fn heap_file_bytes(session: &SqlSession) -> f64 {
    match xqdb_pager::file_stats(session.catalog.db.pager()) {
        Ok(s) => ((s.heap_pages + s.chain_pages) as usize * xqdb_pager::PAGE_SIZE) as f64,
        Err(_) => 0.0,
    }
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Statements of the window, reads and writes, and its seconds.
    pub statements: u64,
    pub window_s: f64,
    pub reads: Latencies,
    pub writes: Latencies,
    pub stored_bytes: f64,
    pub doc_bytes: f64,
    pub wal_bytes: f64,
    pub wal_doc_bytes: f64,
    /// Seconds of each reopen; `recovery_s` is the fastest. A reopen of the
    /// same directory runs up to half again slower in some stretches of a
    /// run than in others, in steps that follow the allocator's and the
    /// host's state, so the median of a run flipped between those levels.
    pub recovery_s: Vec<f64>,
}

impl EndToEnd {
    /// The metrics map of the result line.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let (r50, r90, rn) = self.reads.summary();
        let (w50, w90, wn) = self.writes.summary();
        eprintln!("  reads: {rn} samples, writes: {wn} samples");
        m.put("setup_s", median(&self.setup_s), "s");
        let ops = self.statements as f64 / self.window_s.max(1e-9);
        m.put("ops_per_s", ops, "1/s");
        m.put("read_p50_ms", r50, "ms");
        m.put("read_p90_ms", r90, "ms");
        m.put("write_p50_ms", w50, "ms");
        m.put("write_p90_ms", w90, "ms");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put(
            "stored_bytes_per_doc_byte",
            self.stored_bytes / self.doc_bytes.max(1.0),
            "ratio",
        );
        m.put(
            "wal_bytes_per_doc_byte",
            self.wal_bytes / self.wal_doc_bytes.max(1.0),
            "ratio",
        );
        let fastest = self.recovery_s.iter().copied().fold(f64::INFINITY, f64::min);
        m.put("recovery_s", fastest, "s");
        m
    }
}

/// Named metric values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add a metric; non-finite values are reported as 0.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), v, unit));
    }
}

/// Outcome of one run: the result line's fields.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failure descriptions (the first few are printed).
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Record a failed or wrong statement.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Render the result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-layer accumulators of the traced run: milliseconds per layer and
/// raw counts, turned into per-statement figures at the end.
#[derive(Debug, Default)]
pub struct Layers {
    pub ms: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add_ms(&mut self, layer: &'static str, ms: f64) {
        *self.ms.entry(layer).or_default() += ms;
    }

    pub fn add(&mut self, counter: &'static str, n: f64) {
        *self.counts.entry(counter).or_default() += n;
    }

    pub fn ms(&self, layer: &str) -> f64 {
        self.ms.get(layer).copied().unwrap_or(0.0)
    }

    pub fn count(&self, counter: &str) -> f64 {
        self.counts.get(counter).copied().unwrap_or(0.0)
    }

    /// `a / b`, 0 when `b` is 0 (the layer was idle).
    pub fn ratio(&self, a: &str, b: &str) -> f64 {
        let d = self.count(b);
        if d > 0.0 {
            self.count(a) / d
        } else {
            0.0
        }
    }

    /// Print the self-time table: each layer's share of statement wall
    /// time, and the wall time no layer accounts for.
    pub fn print_self_times(&self, wall_ms: f64, statements: f64) -> f64 {
        let attributed: f64 = self.ms.values().sum();
        let unattributed = (wall_ms - attributed).max(0.0);
        eprintln!("  layer self time per statement ({statements} statements):");
        for (layer, ms) in &self.ms {
            eprintln!(
                "    {layer:<22} {:>10.4} ms  {:>5.1}%",
                ms / statements.max(1.0),
                100.0 * ms / wall_ms.max(1e-9)
            );
        }
        eprintln!(
            "    {:<22} {:>10.4} ms  {:>5.1}%",
            "unattributed",
            unattributed / statements.max(1.0),
            100.0 * unattributed / wall_ms.max(1e-9)
        );
        unattributed / wall_ms.max(1e-9)
    }
}

/// Sum of the durations (ms) of finished spans named `name`, minus the part
/// covered by their child spans: the span's self time.
pub fn span_self_ms(spans: &[xqdb_obs::SpanRecord], name: &str) -> f64 {
    let mut total = 0u64;
    for (id, s) in spans.iter().enumerate() {
        if s.name != name {
            continue;
        }
        let children: u64 = spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.dur_ns)
            .sum();
        total += s.dur_ns.saturating_sub(children);
    }
    total as f64 / 1e6
}

/// Total duration (ms) of finished spans named `name`.
pub fn span_ms(spans: &[xqdb_obs::SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .sum::<u64>() as f64
        / 1e6
}
