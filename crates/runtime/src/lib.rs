//! `xqdb-runtime`: a std-only scoped worker pool for parallel query
//! execution.
//!
//! The engine shards work (surviving documents of a collection scan, rows of
//! a SQL WHERE phase, documents of an index back-fill) into chunks and runs
//! each chunk as one task on this pool. Design constraints, in order:
//!
//! 1. **Determinism** — results come back in task-index order, so callers
//!    can concatenate them and obtain output byte-identical to serial
//!    execution. Fallible runs report the error of the *lowest* task index,
//!    which is the error serial execution would have hit first.
//! 2. **Offline** — no dependencies beyond `std`; threads come from
//!    [`std::thread::scope`], so borrowed data needs no `'static` dance.
//! 3. **Exact legacy path** — a pool of one thread (or a single task) runs
//!    inline on the caller's thread: no thread is spawned, no ordering
//!    changes, nothing to reason about.
//!
//! Work distribution is per-worker queues plus stealing: task indexes are
//! dealt round-robin into one `Mutex<VecDeque>` per worker; a worker drains
//! its own queue from the front and, when empty, steals from the *back* of
//! its siblings' queues. With chunked tasks (a few per worker, see
//! [`chunk_ranges`]) this keeps workers busy even when chunk costs are
//! skewed, without a global queue bottleneck.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

/// What the pool observed about one finished task, reported to the
/// `observe` callback of [`WorkerPool::try_run_observed`]. The pool times
/// tasks itself so observability costs nothing when not requested.
#[derive(Debug, Clone, Copy)]
pub struct TaskObservation {
    /// Worker that ran the task (0-based; 0 on the inline serial path).
    pub worker: usize,
    /// Task index.
    pub task: usize,
    /// When the task started.
    pub started: Instant,
    /// Task wall-clock duration in nanoseconds.
    pub nanos: u64,
}

/// How many chunks each worker gets on average when a caller splits work
/// with [`WorkerPool::default_chunks`]. More than one, so stealing can
/// rebalance skew; small, so per-chunk overhead stays negligible.
pub const CHUNKS_PER_WORKER: usize = 4;

/// Configuration for parallel execution, carried by sessions and catalogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads for parallelizable phases. `0` and `1` both mean the
    /// serial legacy path.
    pub threads: usize,
}

impl RuntimeConfig {
    /// Serial configuration (the default).
    pub fn serial() -> Self {
        RuntimeConfig { threads: 1 }
    }

    /// Configuration with the given degree.
    pub fn with_threads(threads: usize) -> Self {
        RuntimeConfig { threads }
    }

    /// The effective parallelism degree (never 0).
    pub fn effective_threads(&self) -> usize {
        self.threads.max(1)
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::serial()
    }
}

/// Split `len` items into at most `chunks` contiguous ranges of
/// near-equal size. Empty ranges are never produced; fewer ranges than
/// requested come back when `len < chunks`.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// A detached, named service thread — the long-lived complement to the
/// scoped [`WorkerPool`]. The pool is for bounded fork/join phases inside a
/// query; a service thread is for components that outlive any one call
/// (the server's accept loop, one handler per client connection). Keeping
/// this constructor here keeps *all* thread creation in the runtime crate
/// (enforced by `scripts/lint.sh`).
#[derive(Debug)]
pub struct ServiceThread<T> {
    handle: std::thread::JoinHandle<T>,
}

impl<T> ServiceThread<T> {
    /// Wait for the service to finish and return its result, or `None` if
    /// the service thread panicked. Callers that must prove "never panics"
    /// (the server chaos matrix) assert `Some`.
    pub fn join(self) -> Option<T> {
        self.handle.join().ok()
    }

    /// Has the service finished (its closure returned or panicked)?
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }
}

/// Spawn a named detached service thread. Fails (rather than panicking)
/// when the OS refuses a thread — under a connection burst the server turns
/// that into a shed response instead of dying.
pub fn spawn_service<T, F>(name: &str, f: F) -> std::io::Result<ServiceThread<T>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let handle = std::thread::Builder::new().name(name.to_string()).spawn(f)?;
    Ok(ServiceThread { handle })
}

/// A scoped worker pool. Holds no threads while idle: each [`WorkerPool::run`]
/// call spawns scoped workers, joins them, and returns — queries are
/// long-lived relative to thread start-up, and a threadless idle state keeps
/// the engine's serial paths entirely free of synchronization.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Pool with the given number of workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool { threads: threads.max(1) }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The chunk count this pool wants for `len` items: enough for stealing
    /// to balance skew, never more than the items themselves.
    pub fn default_chunks(&self, len: usize) -> usize {
        (self.threads * CHUNKS_PER_WORKER).clamp(1, len.max(1))
    }

    /// Run `tasks` closures (`f(0) .. f(tasks-1)`) and return their results
    /// in task-index order. With one worker or one task this runs inline on
    /// the calling thread.
    pub fn run<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        // Infallible tasks: the error type is uninhabited in spirit; reuse
        // the fallible machinery with an impossible error.
        match self.try_run(tasks, |i| Ok::<R, Unreachable>(f(i))) {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }

    /// Run fallible tasks, returning results in task-index order, or the
    /// error of the lowest-indexed failing task.
    ///
    /// Every task runs to completion even when a sibling fails: serial
    /// execution surfaces the *first* error in task order, and the only way
    /// to know the first error deterministically is to let earlier tasks
    /// finish. Callers whose errors should stop the world quickly (budget
    /// exhaustion, cancellation) already share that state across tasks, so
    /// siblings fail fast on their own.
    pub fn try_run<R, E, F>(&self, tasks: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(usize) -> Result<R, E> + Sync,
    {
        self.try_run_observed(tasks, f, |_| {})
    }

    /// [`WorkerPool::try_run`] that additionally reports a
    /// [`TaskObservation`] for every finished task — worker id, start time
    /// and duration — to `observe`, which tracing builds spans from. The
    /// callback fires on the worker thread right after its task completes
    /// (on the caller's thread on the inline serial path) and must be cheap.
    pub fn try_run_observed<R, E, F, O>(
        &self,
        tasks: usize,
        f: F,
        observe: O,
    ) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(usize) -> Result<R, E> + Sync,
        O: Fn(TaskObservation) + Sync,
    {
        if tasks == 0 {
            return Ok(Vec::new());
        }
        let workers = self.threads.min(tasks);
        if workers == 1 {
            // Exact legacy path: no threads, strict task order.
            let mut out = Vec::with_capacity(tasks);
            for i in 0..tasks {
                let started = Instant::now();
                let r = f(i);
                observe(TaskObservation {
                    worker: 0,
                    task: i,
                    started,
                    nanos: elapsed_ns(started),
                });
                out.push(r?);
            }
            return Ok(out);
        }

        // Deal task indexes round-robin into per-worker queues.
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for i in 0..tasks {
            if let Ok(mut q) = queues[i % workers].lock() {
                q.push_back(i);
            }
        }
        let done = Mutex::new(Vec::<(usize, Result<R, E>)>::with_capacity(tasks));
        std::thread::scope(|scope| {
            for w in 0..workers {
                let queues = &queues;
                let done = &done;
                let f = &f;
                let observe = &observe;
                scope.spawn(move || {
                    let mut local: Vec<(usize, Result<R, E>)> = Vec::new();
                    while let Some(i) = next_task(queues, w) {
                        let started = Instant::now();
                        let r = f(i);
                        observe(TaskObservation {
                            worker: w,
                            task: i,
                            started,
                            nanos: elapsed_ns(started),
                        });
                        local.push((i, r));
                    }
                    if let Ok(mut d) = done.lock() {
                        d.extend(local);
                    }
                });
            }
        });
        let mut finished = match done.into_inner() {
            Ok(v) => v,
            // A worker panicked while holding the lock; scope has already
            // propagated the panic, so this arm is unreachable in practice.
            Err(poisoned) => poisoned.into_inner(),
        };
        finished.sort_by_key(|(i, _)| *i);
        let mut out = Vec::with_capacity(tasks);
        for (_, r) in finished {
            out.push(r?); // sorted: the first Err is the lowest task index
        }
        Ok(out)
    }
}

fn elapsed_ns(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Pop the next task for worker `w`: own queue front first, then steal from
/// the back of sibling queues.
fn next_task(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Ok(mut q) = queues[w].lock() {
        if let Some(i) = q.pop_front() {
            return Some(i);
        }
    }
    for off in 1..queues.len() {
        let victim = (w + off) % queues.len();
        if let Ok(mut q) = queues[victim].lock() {
            if let Some(i) = q.pop_back() {
                return Some(i);
            }
        }
    }
    None
}

/// Uninhabited error for infallible runs.
enum Unreachable {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let got = pool.run(37, |i| i * i);
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "order broke at {threads} threads");
        }
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        let hits = AtomicUsize::new(0);
        let pool = WorkerPool::new(4);
        let out = pool.run(100, |_| hits.fetch_add(1, Ordering::Relaxed));
        assert_eq!(out.len(), 100);
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn lowest_index_error_wins() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let err = pool
                .try_run(20, |i| if i % 7 == 3 { Err(i) } else { Ok(i) })
                .expect_err("tasks 3, 10 and 17 fail");
            assert_eq!(err, 3, "must report the first error serial would hit");
        }
    }

    #[test]
    fn observed_run_reports_every_task_once() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let seen = Mutex::new(Vec::new());
            let got = pool
                .try_run_observed(
                    23,
                    Ok::<usize, ()>,
                    |obs| {
                        assert!(obs.worker < threads);
                        if let Ok(mut s) = seen.lock() {
                            s.push(obs.task);
                        }
                    },
                )
                .unwrap_or_default();
            assert_eq!(got, (0..23).collect::<Vec<_>>());
            let mut tasks = seen.into_inner().unwrap_or_default();
            tasks.sort_unstable();
            assert_eq!(tasks, (0..23).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn skewed_task_costs_are_stolen() {
        // One pathological task plus many cheap ones: with stealing every
        // task still runs and order still holds.
        let pool = WorkerPool::new(4);
        let got = pool.run(16, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_and_zero_threads_are_fine() {
        assert!(WorkerPool::new(0).run(0, |i| i).is_empty());
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert_eq!(RuntimeConfig::with_threads(0).effective_threads(), 1);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for chunks in [1usize, 2, 3, 8, 2000] {
                let ranges = chunk_ranges(len, chunks);
                let covered: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(covered, len);
                assert!(ranges.iter().all(|r| !r.is_empty()));
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "ranges must be contiguous");
                    expect = r.end;
                }
                if len > 0 {
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
                    assert!(hi.unwrap_or(&0) - lo.unwrap_or(&0) <= 1, "near-equal sizes");
                }
            }
        }
    }

    #[test]
    fn shared_budget_is_enforced_globally_across_workers() {
        use xqdb_xdm::{Budget, ErrorCode, Limits};
        // 8 workers tick one shared budget; the cap must trip globally at
        // 1000 steps no matter how ticks interleave.
        let budget =
            std::sync::Arc::new(Budget::new(Limits::unlimited().with_max_steps(1000)));
        let pool = WorkerPool::new(8);
        let results = pool.run(8, |_| {
            let mut ticked = 0u64;
            loop {
                match budget.tick() {
                    Ok(()) => ticked += 1,
                    Err(e) => return (ticked, e.code),
                }
                if ticked > 10_000 {
                    return (ticked, ErrorCode::Internal);
                }
            }
        });
        let total: u64 = results.iter().map(|(t, _)| t).sum();
        assert!(results.iter().all(|(_, code)| *code == ErrorCode::ResourceExhausted));
        assert!(
            total <= 1000,
            "workers together must not tick past the shared cap (got {total})"
        );
    }

    #[test]
    fn service_thread_joins_with_result_and_reports_panics_as_none() {
        let ok = spawn_service("svc-test", || 41 + 1).unwrap();
        assert_eq!(ok.join(), Some(42));
        let boom = spawn_service("svc-panic", || -> u32 { panic!("boom") }).unwrap();
        assert_eq!(boom.join(), None, "a panicking service joins as None");
    }

    #[test]
    fn cancellation_token_stops_all_workers() {
        use xqdb_xdm::{Budget, ErrorCode, Limits};
        let budget = std::sync::Arc::new(Budget::new(Limits::unlimited()));
        budget.cancel();
        let pool = WorkerPool::new(4);
        let errs = pool.run(4, |_| loop {
            // Cancellation is observed at a checkpoint within CHECK_INTERVAL
            // ticks, on every worker.
            if let Err(e) = budget.tick() {
                return e.code;
            }
        });
        assert!(errs.iter().all(|c| *c == ErrorCode::Cancelled));
    }
}
