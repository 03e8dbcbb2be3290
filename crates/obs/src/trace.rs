//! Per-query span traces.
//!
//! A [`Trace`] is created per statement and records a tree of [`SpanRecord`]s
//! — parse, plan, probe, scan, serialize. Spans are RAII guards: created via [`Trace::span`] or
//! [`Span::child`], they buffer their tags locally and write one record into
//! the trace when dropped, so the shared mutex is taken twice per span (once
//! to reserve the id, once to finish) and never while the span's work runs.
//!
//! The trace is `Sync`: another thread can record child spans through the
//! same handle, keyed by an explicit parent [`SpanId`] (`Copy`, so it
//! crosses the closure boundary without borrowing the parent guard).

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span within its trace.
pub type SpanId = usize;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (`"parse"`, `"index probe"`, …).
    pub name: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start offset from the trace's start, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// A stage-defined item count (documents, entries, rows…).
    pub count: u64,
    /// Key/value annotations.
    pub tags: Vec<(&'static str, String)>,
}

#[derive(Debug)]
struct TraceInner {
    start: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A per-query trace handle. Disabled traces are free: no allocation, spans
/// become no-op guards.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl Trace {
    /// The free disabled trace.
    pub fn disabled() -> Trace {
        Trace { inner: None }
    }

    /// A recording trace whose clock starts now.
    pub fn recording() -> Trace {
        Trace {
            inner: Some(Arc::new(TraceInner {
                start: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Is this trace recording?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a root span.
    pub fn span(&self, name: &'static str) -> Span {
        self.span_with_parent(None, name)
    }

    /// Start a span under an explicit parent (used by worker threads, which
    /// hold a `SpanId` rather than a borrow of the parent guard).
    pub fn span_with_parent(&self, parent: Option<SpanId>, name: &'static str) -> Span {
        let Some(inner) = &self.inner else {
            return Span { live: None, count: 0, tags: Vec::new() };
        };
        let start = Instant::now();
        let start_ns = duration_ns(inner.start, start);
        let id = {
            let Ok(mut spans) = inner.spans.lock() else {
                return Span { live: None, count: 0, tags: Vec::new() };
            };
            spans.push(SpanRecord {
                name,
                parent,
                start_ns,
                dur_ns: 0,
                count: 0,
                tags: Vec::new(),
            });
            spans.len() - 1
        };
        Span {
            live: Some(LiveSpan { trace: Arc::clone(inner), id, start }),
            count: 0,
            tags: Vec::new(),
        }
    }

    /// Snapshot of every span recorded so far (finished or not), in start
    /// order.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else { return Vec::new() };
        match inner.spans.lock() {
            Ok(spans) => spans.clone(),
            Err(_) => Vec::new(),
        }
    }

    /// Render the span tree, indented, with stage timings, counts and tags:
    ///
    /// ```text
    /// query                         1.234ms
    ///   parse                       0.040ms
    ///   index probe                 0.101ms  count=41 [source=orders.orddoc]
    /// ```
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let spans = self.finished_spans();
        let mut out = String::new();
        // Depth by chasing parents; spans are in start order so parents
        // always precede children.
        let mut depth = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if p < i {
                    depth[i] = depth[p] + 1;
                }
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let indent = "  ".repeat(depth[i]);
            let label = format!("{indent}{}", s.name);
            let _ = write!(out, "{label:<28} {:>9.3}ms", s.dur_ns as f64 / 1_000_000.0);
            if s.count > 0 {
                let _ = write!(out, "  count={}", s.count);
            }
            if !s.tags.is_empty() {
                let rendered: Vec<String> =
                    s.tags.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = write!(out, "  [{}]", rendered.join(" "));
            }
            out.push('\n');
        }
        out
    }
}

fn duration_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Debug)]
struct LiveSpan {
    trace: Arc<TraceInner>,
    id: SpanId,
    start: Instant,
}

/// An in-flight span. Dropping it (or calling [`Span::finish`]) writes the
/// final record. Disabled spans are free.
#[derive(Debug)]
pub struct Span {
    live: Option<LiveSpan>,
    count: u64,
    tags: Vec<(&'static str, String)>,
}

impl Span {
    /// This span's id, for worker closures that need to attach children
    /// without borrowing the guard. `None` when tracing is off.
    pub fn id(&self) -> Option<SpanId> {
        self.live.as_ref().map(|l| l.id)
    }

    /// Is this span actually recording?
    pub fn enabled(&self) -> bool {
        self.live.is_some()
    }

    /// Start a child span.
    pub fn child(&self, name: &'static str) -> Span {
        match &self.live {
            Some(l) => {
                Trace { inner: Some(Arc::clone(&l.trace)) }.span_with_parent(Some(l.id), name)
            }
            None => Span { live: None, count: 0, tags: Vec::new() },
        }
    }

    /// Attach a tag. The value is only materialized when recording.
    pub fn tag_str(&mut self, key: &'static str, value: &str) {
        if self.live.is_some() {
            self.tags.push((key, value.to_string()));
        }
    }

    /// Attach a tag whose value is built lazily (free when disabled).
    pub fn tag_with(&mut self, key: &'static str, value: impl FnOnce() -> String) {
        if self.live.is_some() {
            self.tags.push((key, value()));
        }
    }

    /// Add to the span's item count.
    pub fn add_count(&mut self, n: u64) {
        if self.live.is_some() {
            self.count += n;
        }
    }

    /// Finish now (equivalent to dropping).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let dur_ns = duration_ns(live.start, Instant::now());
        let guard = live.trace.spans.lock();
        if let Ok(mut spans) = guard {
            if let Some(rec) = spans.get_mut(live.id) {
                rec.dur_ns = dur_ns;
                rec.count = self.count;
                rec.tags = std::mem::take(&mut self.tags);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_nesting_tags_and_counts() {
        let trace = Trace::recording();
        {
            let mut root = trace.span("query");
            root.tag_str("text", "//lineitem");
            {
                let mut probe = root.child("index probe");
                probe.add_count(41);
                probe.tag_with("index", || "li_price".to_string());
            }
            let _scan = root.child("scan");
        }
        let spans = trace.finished_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "query");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].name, "index probe");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].count, 41);
        assert_eq!(spans[1].tags, vec![("index", "li_price".to_string())]);
        assert_eq!(spans[2].parent, Some(0));
        let rendered = trace.render();
        assert!(rendered.contains("query"));
        assert!(rendered.contains("  index probe"));
        assert!(rendered.contains("count=41"));
        assert!(rendered.contains("index=li_price"));
    }

    #[test]
    fn disabled_trace_spans_are_free() {
        let trace = Trace::disabled();
        let mut span = trace.span("query");
        assert!(!span.enabled());
        assert!(span.id().is_none());
        // The lazy tag closure must never run when disabled.
        span.tag_with("k", || unreachable!("disabled span materialized a tag"));
        span.add_count(5);
        let child = span.child("probe");
        drop(child);
        drop(span);
        assert!(trace.finished_spans().is_empty());
        assert!(trace.render().is_empty());
    }

    #[test]
    fn worker_threads_can_attach_child_spans_by_id() {
        let trace = Trace::recording();
        let root = trace.span("scan");
        let parent = root.id();
        std::thread::scope(|s| {
            for w in 0..4 {
                let trace = &trace;
                s.spawn(move || {
                    let mut span = trace.span_with_parent(parent, "worker");
                    span.add_count(w + 1);
                });
            }
        });
        drop(root);
        let spans = trace.finished_spans();
        assert_eq!(spans.len(), 5);
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        assert!(workers.iter().all(|s| s.parent == Some(0)));
        let total: u64 = workers.iter().map(|s| s.count).sum();
        assert_eq!(total, 1 + 2 + 3 + 4);
    }
}
