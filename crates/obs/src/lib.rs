//! `xqdb-obs`: observability for the query engine — span-based tracing and
//! an atomic metrics registry, std-only and **zero-allocation when disabled**.
//!
//! The two design rules, in order:
//!
//! 1. **Disabled means free.** Every handle ([`Obs`], [`Trace`], [`Span`])
//!    is an `Option<Arc<…>>` that is `None` when observability is off. Every
//!    recording call starts with that null check and returns; no atomics are
//!    touched, no strings are built, nothing is allocated. The engine can
//!    therefore thread `Obs` through unconditionally.
//! 2. **Recording is lock-cheap.** Metrics are fixed, enum-indexed arrays of
//!    `AtomicU64` — one relaxed `fetch_add` per event, no map lookups, no
//!    locks. Only traces (per-query, bounded by plan size) take a mutex, and
//!    only when tracing is on.
//!
//! The registry exports point-in-time [`MetricsSnapshot`]s as Prometheus
//! text or JSON; traces render as an indented tree with wall-clock timings.
//! Both are pure data — the engine never prints, callers (the CLI, tests,
//! the bench harness) decide where output goes.

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use trace::{Span, SpanId, SpanRecord, Trace};

use std::sync::Arc;

/// Which observability features are on. `Default` is everything off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Record counters/gauges/histograms into the registry.
    pub metrics: bool,
    /// Record per-query span traces.
    pub tracing: bool,
}

impl ObsConfig {
    /// Everything off — the zero-cost configuration.
    pub fn disabled() -> Self {
        ObsConfig::default()
    }

    /// Metrics and tracing both on.
    pub fn enabled() -> Self {
        ObsConfig { metrics: true, tracing: true }
    }

    /// Metrics only (the long-running-server shape: counters always on,
    /// traces only for queries that ask).
    pub fn metrics_only() -> Self {
        ObsConfig { metrics: true, tracing: false }
    }
}

#[derive(Debug)]
struct ObsInner {
    config: ObsConfig,
    metrics: MetricsRegistry,
}

/// The engine-wide observability handle: a metrics registry plus the
/// configuration saying what to record. Cheap to clone (an `Arc`), trivially
/// cheap when disabled (a `None`).
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// The disabled handle: no allocation, every recording call is a null
    /// check.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// A handle with the given configuration. `ObsConfig::disabled()`
    /// collapses to the allocation-free disabled handle.
    pub fn new(config: ObsConfig) -> Obs {
        if config == ObsConfig::disabled() {
            return Obs::disabled();
        }
        Obs {
            inner: Some(Arc::new(ObsInner {
                config,
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// Is anything being recorded at all?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Is metrics recording on?
    pub fn metrics_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.config.metrics)
    }

    /// Is tracing on?
    pub fn tracing_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.config.tracing)
    }

    /// Add `n` to a counter. No-op when metrics are off.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            if inner.config.metrics {
                inner.metrics.add(counter, n);
            }
        }
    }

    /// Bump a counter by one. No-op when metrics are off.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Set a gauge to `v`. No-op when metrics are off.
    #[inline]
    pub fn set_gauge(&self, gauge: Gauge, v: u64) {
        if let Some(inner) = &self.inner {
            if inner.config.metrics {
                inner.metrics.set_gauge(gauge, v);
            }
        }
    }

    /// Increment an up/down gauge by one. No-op when metrics are off.
    #[inline]
    pub fn inc_gauge(&self, gauge: Gauge) {
        if let Some(inner) = &self.inner {
            if inner.config.metrics {
                inner.metrics.inc_gauge(gauge);
            }
        }
    }

    /// Decrement an up/down gauge by one (saturating at zero). No-op when
    /// metrics are off.
    #[inline]
    pub fn dec_gauge(&self, gauge: Gauge) {
        if let Some(inner) = &self.inner {
            if inner.config.metrics {
                inner.metrics.dec_gauge(gauge);
            }
        }
    }

    /// Record one observation (in nanoseconds) into a histogram. No-op when
    /// metrics are off.
    #[inline]
    pub fn observe_ns(&self, hist: Histogram, nanos: u64) {
        if let Some(inner) = &self.inner {
            if inner.config.metrics {
                inner.metrics.observe_ns(hist, nanos);
            }
        }
    }

    /// A point-in-time snapshot of the registry, or `None` when metrics are
    /// off (there is nothing to report).
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let inner = self.inner.as_ref()?;
        if !inner.config.metrics {
            return None;
        }
        Some(inner.metrics.snapshot())
    }

    /// A new per-query trace: recording when tracing is on, the free
    /// disabled trace otherwise.
    pub fn trace(&self) -> Trace {
        if self.tracing_enabled() {
            Trace::recording()
        } else {
            Trace::disabled()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_allocates_nothing_and_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        obs.incr(Counter::QueriesExecuted);
        obs.set_gauge(Gauge::BufferPoolPages, 9);
        obs.observe_ns(Histogram::QueryNanos, 1_000_000);
        assert!(obs.metrics_snapshot().is_none());
        let trace = obs.trace();
        assert!(!trace.enabled());
        let span = trace.span("query");
        drop(span);
        assert!(trace.finished_spans().is_empty());
        // The disabled config collapses to the same free handle.
        assert!(!Obs::new(ObsConfig::disabled()).enabled());
    }

    #[test]
    fn metrics_only_config_yields_no_trace() {
        let obs = Obs::new(ObsConfig::metrics_only());
        assert!(obs.metrics_enabled());
        assert!(!obs.tracing_enabled());
        assert!(!obs.trace().enabled());
        obs.add(Counter::IndexProbes, 3);
        let snap = obs.metrics_snapshot().expect("metrics are on");
        assert_eq!(snap.counter(Counter::IndexProbes), 3);
    }

    #[test]
    fn enabled_handle_records_counters_and_traces() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.incr(Counter::QueriesExecuted);
        obs.add(Counter::IndexEntriesScanned, 41);
        obs.set_gauge(Gauge::BufferPoolPages, 8);
        obs.observe_ns(Histogram::QueryNanos, 5_000);
        let snap = obs.metrics_snapshot().expect("metrics are on");
        assert_eq!(snap.counter(Counter::QueriesExecuted), 1);
        assert_eq!(snap.counter(Counter::IndexEntriesScanned), 41);
        assert_eq!(snap.gauge(Gauge::BufferPoolPages), 8);
        let trace = obs.trace();
        {
            let mut span = trace.span("query");
            span.tag_str("source", "orders.orddoc");
        }
        let spans = trace.finished_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "query");
    }

    #[test]
    fn clones_share_the_registry() {
        let obs = Obs::new(ObsConfig::metrics_only());
        let clone = obs.clone();
        clone.incr(Counter::DegradationsToScan);
        assert_eq!(
            obs.metrics_snapshot().map(|s| s.counter(Counter::DegradationsToScan)),
            Some(1)
        );
    }
}
