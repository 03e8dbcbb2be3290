//! `xqdb-runtime`: the one place threads are created.
//!
//! Query execution is serial. Threads exist for components that outlive a
//! call — the server's accept loop and one handler per client connection
//! ([`spawn_service`]) — and for callers that drive several independent
//! sessions at once, such as concurrent clients in tests and the bench
//! harness ([`WorkerPool`]). Keeping both constructors here keeps *all*
//! thread creation in this crate (enforced by `scripts/lint.sh`).
//!
//! std-only by design: no dependencies, so it builds offline and stays
//! auditable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A detached, named service thread — the long-lived complement to the
/// scoped [`WorkerPool`]: for components that outlive any one call (the
/// server's accept loop, one handler per client connection).
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

/// A scoped worker pool for independent tasks, such as one closed-loop
/// client per task. Holds no threads while idle: each [`WorkerPool::run`]
/// spawns scoped workers, joins them and returns, so borrowed data needs
/// no `'static` dance.
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

    /// Run `tasks` closures (`f(0) .. f(tasks-1)`) and return their results
    /// in task-index order. Workers take the next task from one shared
    /// counter, so a slow task never holds up the others. With one worker
    /// or one task this runs inline on the calling thread.
    pub fn run<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(tasks);
        if workers <= 1 {
            return (0..tasks).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::<(usize, R)>::with_capacity(tasks));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        local.push((i, f(i)));
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
        finished.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn skewed_task_costs_are_stolen() {
        // One pathological task plus many cheap ones: the other workers
        // take the cheap tasks meanwhile, every task runs and order holds.
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
