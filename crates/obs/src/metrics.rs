//! The metrics registry: fixed, enum-indexed arrays of atomics.
//!
//! Metric names are a closed enum, not runtime strings: recording is an
//! array index plus one relaxed `fetch_add`, the exporter can never see a
//! misspelled series, and the full catalogue is visible in one place below.
//! Counters only go up; gauges are last-write-wins; histograms use fixed
//! power-of-four nanosecond buckets (1µs … ~4.4min) so recording stays a
//! single atomic per observation.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters. The `name()` is the Prometheus series name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// XQuery statements executed (successfully or not).
    QueriesExecuted,
    /// SQL statements executed through the SQL/XML front end.
    SqlStatements,
    /// Index probes attempted (one per probe condition per source).
    IndexProbes,
    /// Index entries scanned by range probes.
    IndexEntriesScanned,
    /// Index probes that hit an injected/real storage fault.
    IndexProbeFaults,
    /// Probe faults that degraded the source to a full collection scan.
    DegradationsToScan,
    /// Queries aborted on budget exhaustion (steps or deadline).
    BudgetExhaustions,
    /// Queries aborted by cancellation.
    QueriesCancelled,
    /// Documents fully evaluated (post-filter survivors plus full scans).
    DocsEvaluated,
    /// Stored XML documents parsed by row decodes (only the columns a
    /// statement reads are decoded, so scalar predicates parse none).
    XmlDocsParsed,
    /// Evaluation steps charged to query budgets.
    EvalSteps,
    /// B+Tree nodes touched by index range scans (descent + leaf chain).
    BtreeNodeTouches,
    /// Query-doctor diagnoses issued (index-ineligible predicates explained).
    DoctorDiagnoses,
    /// Index entries inserted by CREATE INDEX back-fills and row inserts.
    IndexEntriesBuilt,
    /// Records appended to the write-ahead log.
    WalRecordsAppended,
    /// Bytes appended to the write-ahead log (frames, including headers).
    WalBytes,
    /// Records replayed during recovery (snapshot records + log suffix).
    WalRecordsReplayed,
    /// Torn WAL tails truncated during recovery.
    TornTailTruncations,
    /// Nanoseconds spent in recovery (replay + index rebuild), cumulative.
    RecoveryNanos,
    /// Documents skipped by the structural path-signature pre-filter.
    PrefilterDocsSkipped,
    /// Live rows the scalar filter dropped from their in-memory INTEGER
    /// cells, before any fetch.
    ScalarRowsSkipped,
    /// Query texts answered from the plan cache (parse and plan skipped).
    PlanCacheHits,
    /// Query texts parsed and planned because the cache had no entry.
    PlanCacheMisses,
    /// Server requests admitted past admission control (a lease was granted).
    SessionsAdmitted,
    /// Server requests shed by admission control (queue full or the queue
    /// deadline expired before a lease freed up).
    SessionsShed,
    /// Admitted server requests aborted by their per-request deadline.
    RequestsTimedOut,
    /// Page fetches answered from the buffer pool (no backing read).
    BufferPoolHits,
    /// Page fetches that had to read from the backing store.
    BufferPoolMisses,
    /// Pages evicted from the buffer pool to make room.
    PagesEvicted,
    /// Holistic twig joins executed over structural labels.
    TwigJoinsExecuted,
    /// Candidate documents admitted by twig-join row-set intersections.
    TwigCandidates,
    /// Documents skipped by the twig-join phase.
    TwigDocsSkipped,
    /// Rows removed by SQL DELETE statements.
    RowsDeleted,
    /// Rows whose contents were replaced by SQL UPDATE statements.
    DocsReplaced,
    /// Tombstoned heap records compacted away at checkpoint.
    TombstonesReclaimed,
    /// (candidate, eligible index) pairs scored by the cost model.
    IndexCandidatesCosted,
    /// Query plans built with the synopsis-backed cost model.
    PlansCosted,
    /// Docid-set intersections performed when AND-combining index probes.
    MultiIndexIntersections,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 38] = [
        Counter::QueriesExecuted,
        Counter::SqlStatements,
        Counter::IndexProbes,
        Counter::IndexEntriesScanned,
        Counter::IndexProbeFaults,
        Counter::DegradationsToScan,
        Counter::BudgetExhaustions,
        Counter::QueriesCancelled,
        Counter::DocsEvaluated,
        Counter::XmlDocsParsed,
        Counter::EvalSteps,
        Counter::BtreeNodeTouches,
        Counter::DoctorDiagnoses,
        Counter::IndexEntriesBuilt,
        Counter::WalRecordsAppended,
        Counter::WalBytes,
        Counter::WalRecordsReplayed,
        Counter::TornTailTruncations,
        Counter::RecoveryNanos,
        Counter::PrefilterDocsSkipped,
        Counter::ScalarRowsSkipped,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::SessionsAdmitted,
        Counter::SessionsShed,
        Counter::RequestsTimedOut,
        Counter::BufferPoolHits,
        Counter::BufferPoolMisses,
        Counter::PagesEvicted,
        Counter::TwigJoinsExecuted,
        Counter::TwigCandidates,
        Counter::TwigDocsSkipped,
        Counter::RowsDeleted,
        Counter::DocsReplaced,
        Counter::TombstonesReclaimed,
        Counter::IndexCandidatesCosted,
        Counter::PlansCosted,
        Counter::MultiIndexIntersections,
    ];

    /// Prometheus series name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::QueriesExecuted => "xqdb_queries_executed_total",
            Counter::SqlStatements => "xqdb_sql_statements_total",
            Counter::IndexProbes => "xqdb_index_probes_total",
            Counter::IndexEntriesScanned => "xqdb_index_entries_scanned_total",
            Counter::IndexProbeFaults => "xqdb_index_probe_faults_total",
            Counter::DegradationsToScan => "xqdb_degradations_to_scan_total",
            Counter::BudgetExhaustions => "xqdb_budget_exhaustions_total",
            Counter::QueriesCancelled => "xqdb_queries_cancelled_total",
            Counter::DocsEvaluated => "xqdb_docs_evaluated_total",
            Counter::XmlDocsParsed => "xqdb_xml_docs_parsed_total",
            Counter::EvalSteps => "xqdb_eval_steps_total",
            Counter::BtreeNodeTouches => "xqdb_btree_node_touches_total",
            Counter::DoctorDiagnoses => "xqdb_doctor_diagnoses_total",
            Counter::IndexEntriesBuilt => "xqdb_index_entries_built_total",
            Counter::WalRecordsAppended => "xqdb_wal_records_appended_total",
            Counter::WalBytes => "xqdb_wal_bytes_total",
            Counter::WalRecordsReplayed => "xqdb_wal_records_replayed_total",
            Counter::TornTailTruncations => "xqdb_torn_tail_truncations_total",
            Counter::RecoveryNanos => "xqdb_recovery_ns_total",
            Counter::PrefilterDocsSkipped => "xqdb_prefilter_docs_skipped_total",
            Counter::ScalarRowsSkipped => "xqdb_scalar_rows_skipped_total",
            Counter::PlanCacheHits => "xqdb_plan_cache_hits_total",
            Counter::PlanCacheMisses => "xqdb_plan_cache_misses_total",
            Counter::SessionsAdmitted => "xqdb_sessions_admitted_total",
            Counter::SessionsShed => "xqdb_sessions_shed_total",
            Counter::RequestsTimedOut => "xqdb_requests_timed_out_total",
            Counter::BufferPoolHits => "xqdb_buffer_pool_hits_total",
            Counter::BufferPoolMisses => "xqdb_buffer_pool_misses_total",
            Counter::PagesEvicted => "xqdb_pages_evicted_total",
            Counter::TwigJoinsExecuted => "xqdb_twig_joins_executed_total",
            Counter::TwigCandidates => "xqdb_twig_candidates_total",
            Counter::TwigDocsSkipped => "xqdb_twig_docs_skipped_total",
            Counter::RowsDeleted => "xqdb_rows_deleted_total",
            Counter::DocsReplaced => "xqdb_docs_replaced_total",
            Counter::TombstonesReclaimed => "xqdb_tombstones_reclaimed_total",
            Counter::IndexCandidatesCosted => "xqdb_index_candidates_costed_total",
            Counter::PlansCosted => "xqdb_plans_costed_total",
            Counter::MultiIndexIntersections => "xqdb_multi_index_intersections_total",
        }
    }

    /// Prometheus HELP text.
    pub fn help(self) -> &'static str {
        match self {
            Counter::QueriesExecuted => "XQuery statements executed",
            Counter::SqlStatements => "SQL statements executed",
            Counter::IndexProbes => "index probes attempted",
            Counter::IndexEntriesScanned => "index entries scanned by range probes",
            Counter::IndexProbeFaults => "index probes that hit a storage fault",
            Counter::DegradationsToScan => "probe faults degraded to full collection scans",
            Counter::BudgetExhaustions => "queries aborted on budget exhaustion",
            Counter::QueriesCancelled => "queries aborted by cancellation",
            Counter::DocsEvaluated => "documents fully evaluated",
            Counter::XmlDocsParsed => "stored XML documents parsed by row decodes",
            Counter::EvalSteps => "evaluation steps charged to budgets",
            Counter::BtreeNodeTouches => "B+Tree nodes touched by index range scans",
            Counter::DoctorDiagnoses => "query-doctor diagnoses issued",
            Counter::IndexEntriesBuilt => "index entries inserted by back-fills and inserts",
            Counter::WalRecordsAppended => "records appended to the write-ahead log",
            Counter::WalBytes => "bytes appended to the write-ahead log",
            Counter::WalRecordsReplayed => "records replayed during recovery",
            Counter::TornTailTruncations => "torn WAL tails truncated during recovery",
            Counter::RecoveryNanos => "nanoseconds spent in recovery, cumulative",
            Counter::PrefilterDocsSkipped => {
                "documents skipped by the structural path-signature pre-filter"
            }
            Counter::ScalarRowsSkipped => {
                "rows dropped by the scalar filter from in-memory integer cells"
            }
            Counter::PlanCacheHits => "query texts answered from the plan cache",
            Counter::PlanCacheMisses => "query texts parsed and planned on a cache miss",
            Counter::SessionsAdmitted => "server requests admitted past admission control",
            Counter::SessionsShed => "server requests shed by admission control",
            Counter::RequestsTimedOut => "admitted requests aborted by their deadline",
            Counter::BufferPoolHits => "page fetches answered from the buffer pool",
            Counter::BufferPoolMisses => "page fetches read from the backing store",
            Counter::PagesEvicted => "pages evicted from the buffer pool",
            Counter::TwigJoinsExecuted => "holistic twig joins executed over structural labels",
            Counter::TwigCandidates => {
                "candidate documents admitted by twig-join row-set intersections"
            }
            Counter::TwigDocsSkipped => "documents skipped by the twig-join phase",
            Counter::RowsDeleted => "rows removed by SQL DELETE statements",
            Counter::DocsReplaced => "rows replaced by SQL UPDATE statements",
            Counter::TombstonesReclaimed => "tombstoned heap records compacted at checkpoint",
            Counter::IndexCandidatesCosted => {
                "(candidate, eligible index) pairs scored by the cost model"
            }
            Counter::PlansCosted => "query plans built with the synopsis-backed cost model",
            Counter::MultiIndexIntersections => {
                "docid-set intersections performed when AND-combining index probes"
            }
        }
    }
}

/// Gauges. `BufferPoolPages` is last-write-wins (set);
/// `ActiveConnections` is a live up/down count maintained with
/// [`MetricsRegistry::inc_gauge`]/[`MetricsRegistry::dec_gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Server connections currently open (accepted and not yet closed).
    ActiveConnections,
    /// Configured buffer-pool capacity of the shared page file, in pages.
    BufferPoolPages,
}

impl Gauge {
    /// Every gauge, in export order.
    pub const ALL: [Gauge; 2] = [
        Gauge::ActiveConnections,
        Gauge::BufferPoolPages,
    ];

    /// Prometheus series name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::ActiveConnections => "xqdb_active_connections",
            Gauge::BufferPoolPages => "xqdb_buffer_pool_pages",
        }
    }

    /// Prometheus HELP text.
    pub fn help(self) -> &'static str {
        match self {
            Gauge::ActiveConnections => "server connections currently open",
            Gauge::BufferPoolPages => "configured buffer-pool capacity in pages",
        }
    }
}

/// Duration histograms (all record nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Histogram {
    /// End-to-end query wall clock.
    QueryNanos,
    /// Per-source index probe wall clock.
    ProbeNanos,
}

impl Histogram {
    /// Every histogram, in export order.
    pub const ALL: [Histogram; 2] = [Histogram::QueryNanos, Histogram::ProbeNanos];

    /// Prometheus series name (base; exporters add `_bucket`/`_sum`/`_count`).
    pub fn name(self) -> &'static str {
        match self {
            Histogram::QueryNanos => "xqdb_query_duration_ns",
            Histogram::ProbeNanos => "xqdb_index_probe_duration_ns",
        }
    }

    /// Prometheus HELP text.
    pub fn help(self) -> &'static str {
        match self {
            Histogram::QueryNanos => "end-to-end query wall clock in nanoseconds",
            Histogram::ProbeNanos => "per-source index probe wall clock in nanoseconds",
        }
    }
}

/// Upper bounds (inclusive, nanoseconds) of the fixed histogram buckets:
/// 1µs · 4^k for k = 0..12, i.e. 1µs, 4µs, 16µs, … ~4.4min, plus +Inf.
pub const BUCKET_BOUNDS_NS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
];

const NUM_BUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1; // +Inf overflow bucket

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, nanos: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| nanos <= b)
            .unwrap_or(NUM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// The registry: one cell per metric, shared by reference.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    hists: [HistogramCells; Histogram::ALL.len()],
}

impl MetricsRegistry {
    /// A registry with every metric at zero.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| HistogramCells::new()),
        }
    }

    /// Add `n` to a counter (relaxed; totals are read via [`snapshot`]).
    ///
    /// [`snapshot`]: MetricsRegistry::snapshot
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Set a gauge.
    #[inline]
    pub fn set_gauge(&self, gauge: Gauge, v: u64) {
        self.gauges[gauge as usize].store(v, Ordering::Relaxed);
    }

    /// Increment an up/down gauge by one.
    #[inline]
    pub fn inc_gauge(&self, gauge: Gauge) {
        self.gauges[gauge as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement an up/down gauge by one, saturating at zero: a stray
    /// double-decrement must not wrap to `u64::MAX` in an exporter.
    #[inline]
    pub fn dec_gauge(&self, gauge: Gauge) {
        let _ = self.gauges[gauge as usize].fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| Some(v.saturating_sub(1)),
        );
    }

    /// Record one duration observation.
    #[inline]
    pub fn observe_ns(&self, hist: Histogram, nanos: u64) {
        self.hists[hist as usize].observe(nanos);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            gauges: std::array::from_fn(|i| self.gauges[i].load(Ordering::Relaxed)),
            hists: std::array::from_fn(|i| {
                let h = &self.hists[i];
                HistogramSnapshot {
                    buckets: std::array::from_fn(|b| h.buckets[b].load(Ordering::Relaxed)),
                    sum: h.sum.load(Ordering::Relaxed),
                    count: h.count.load(Ordering::Relaxed),
                }
            }),
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Cumulative-from-zero per-bucket counts (last bucket is +Inf).
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of all observed nanoseconds.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

/// A point-in-time copy of the whole registry, with exporters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::ALL.len()],
    gauges: [u64; Gauge::ALL.len()],
    hists: [HistogramSnapshot; Histogram::ALL.len()],
}

impl MetricsSnapshot {
    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The value of one gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// One histogram's snapshot.
    pub fn histogram(&self, h: Histogram) -> &HistogramSnapshot {
        &self.hists[h as usize]
    }

    /// Render in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for c in Counter::ALL {
            let _ = writeln!(out, "# HELP {} {}", c.name(), c.help());
            let _ = writeln!(out, "# TYPE {} counter", c.name());
            let _ = writeln!(out, "{} {}", c.name(), self.counter(c));
        }
        for g in Gauge::ALL {
            let _ = writeln!(out, "# HELP {} {}", g.name(), g.help());
            let _ = writeln!(out, "# TYPE {} gauge", g.name());
            let _ = writeln!(out, "{} {}", g.name(), self.gauge(g));
        }
        for h in Histogram::ALL {
            let snap = self.histogram(h);
            let _ = writeln!(out, "# HELP {} {}", h.name(), h.help());
            let _ = writeln!(out, "# TYPE {} histogram", h.name());
            let mut cumulative = 0u64;
            for (i, bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
                cumulative += snap.buckets[i];
                let _ = writeln!(out, "{}_bucket{{le=\"{bound}\"}} {cumulative}", h.name());
            }
            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", h.name(), snap.count);
            let _ = writeln!(out, "{}_sum {}", h.name(), snap.sum);
            let _ = writeln!(out, "{}_count {}", h.name(), snap.count);
        }
        out
    }

    /// Render as a JSON object (hand-written: all names are static
    /// identifiers and all values are unsigned integers, so no escaping is
    /// needed).
    pub fn to_json(&self) -> String {
        use fmt::Write as _;
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {}", c.name(), self.counter(*c));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {}", g.name(), self.gauge(*g));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in Histogram::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let snap = self.histogram(*h);
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{ \"count\": {}, \"sum_ns\": {}, \"buckets\": [",
                h.name(),
                snap.count,
                snap.sum
            );
            for (b, v) in snap.buckets.iter().enumerate() {
                let sep = if b == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{v}");
            }
            out.push_str("] }");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::IndexProbes, 2);
        reg.add(Counter::IndexProbes, 3);
        reg.set_gauge(Gauge::BufferPoolPages, 4);
        reg.set_gauge(Gauge::BufferPoolPages, 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::IndexProbes), 5);
        assert_eq!(snap.counter(Counter::QueriesExecuted), 0);
        assert_eq!(snap.gauge(Gauge::BufferPoolPages), 2, "gauges are last-write-wins");
    }

    #[test]
    fn up_down_gauge_saturates_at_zero() {
        let reg = MetricsRegistry::new();
        reg.inc_gauge(Gauge::ActiveConnections);
        reg.inc_gauge(Gauge::ActiveConnections);
        reg.dec_gauge(Gauge::ActiveConnections);
        assert_eq!(reg.snapshot().gauge(Gauge::ActiveConnections), 1);
        reg.dec_gauge(Gauge::ActiveConnections);
        reg.dec_gauge(Gauge::ActiveConnections); // stray: must not wrap
        assert_eq!(reg.snapshot().gauge(Gauge::ActiveConnections), 0);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let reg = MetricsRegistry::new();
        reg.observe_ns(Histogram::QueryNanos, 500); // <= 1µs bucket
        reg.observe_ns(Histogram::QueryNanos, 5_000); // <= 16µs bucket
        reg.observe_ns(Histogram::QueryNanos, u64::MAX / 2); // +Inf bucket
        let snap = reg.snapshot();
        let h = snap.histogram(Histogram::QueryNanos);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 500 + 5_000 + u64::MAX / 2);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[BUCKET_BOUNDS_NS.len()], 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        reg.add(Counter::EvalSteps, 1);
                        reg.observe_ns(Histogram::ProbeNanos, 100);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::EvalSteps), 8000);
        assert_eq!(snap.histogram(Histogram::ProbeNanos).count, 8000);
    }

    #[test]
    fn prometheus_export_shape() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::QueriesExecuted, 7);
        reg.observe_ns(Histogram::QueryNanos, 2_000);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE xqdb_queries_executed_total counter"));
        assert!(text.contains("xqdb_queries_executed_total 7"));
        assert!(text.contains("xqdb_query_duration_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("xqdb_query_duration_ns_count 1"));
        // Buckets are cumulative: the 4µs bucket already includes the 2µs obs.
        assert!(text.contains("xqdb_query_duration_ns_bucket{le=\"4000\"} 1"));
    }

    #[test]
    fn json_export_is_structurally_balanced() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::DoctorDiagnoses, 1);
        let json = reg.snapshot().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"xqdb_doctor_diagnoses_total\": 1"));
    }
}
