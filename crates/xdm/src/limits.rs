//! Resource governance: limits, budgets, and cooperative cancellation.
//!
//! A [`Limits`] value declares what an evaluation may consume — wall-clock
//! time, evaluator steps, parser depth, document size, index entries,
//! result cardinality. A [`Budget`] is the *live* counterpart: shared
//! (`Arc`) between the engine, the evaluator, and the index probes, it is
//! charged cooperatively and trips a typed [`ErrorCode::ResourceExhausted`]
//! or [`ErrorCode::Cancelled`] error instead of letting a hostile query
//! hang the process. Nothing here aborts: exceeding a budget is an ordinary
//! `Err` that unwinds cleanly through the evaluator.
//!
//! The budget lives in `xqdb-xdm` because it is the one crate every layer
//! already depends on — storage, index, evaluator, and engine all charge
//! the same shared instance.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{XdmError, XdmResult};

/// Declarative resource limits for one evaluation. `None` means unlimited.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Limits {
    /// Wall-clock deadline, measured from [`Budget::new`].
    pub timeout: Option<Duration>,
    /// Maximum number of evaluator steps (expression-node visits).
    pub max_steps: Option<u64>,
    /// Maximum XML / XQuery nesting depth accepted by the parsers.
    pub max_parse_depth: Option<usize>,
    /// Maximum size in bytes of a single parsed document.
    pub max_doc_bytes: Option<usize>,
    /// Maximum index entries an execution may scan across all probes.
    pub max_index_entries: Option<u64>,
    /// Maximum items in a query result.
    pub max_result_items: Option<usize>,
}

impl Limits {
    /// No limits at all (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Builder-style setter for the wall-clock timeout.
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.timeout = Some(t);
        self
    }

    /// Builder-style setter for the evaluator step budget.
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Builder-style setter for the parser depth limit.
    pub fn with_max_parse_depth(mut self, n: usize) -> Self {
        self.max_parse_depth = Some(n);
        self
    }

    /// Builder-style setter for the document size limit.
    pub fn with_max_doc_bytes(mut self, n: usize) -> Self {
        self.max_doc_bytes = Some(n);
        self
    }

    /// Builder-style setter for the index entry scan budget.
    pub fn with_max_index_entries(mut self, n: u64) -> Self {
        self.max_index_entries = Some(n);
        self
    }

    /// Builder-style setter for the result cardinality cap.
    pub fn with_max_result_items(mut self, n: usize) -> Self {
        self.max_result_items = Some(n);
        self
    }
}

/// How often (in steps) the deadline and cancellation flag are re-checked.
/// Checking `Instant::now()` on every step would dominate evaluation time;
/// every 64 steps keeps overshoot under a microsecond-scale slice while
/// staying invisible in profiles.
const CHECK_INTERVAL: u64 = 64;

/// Live accounting for one evaluation, shared via `Arc` across layers.
///
/// All counters are atomic so the budget can be charged from the evaluator
/// and the engine's probe loop, and cancelled from another thread, without
/// locking: step/entry caps, the deadline and the cancellation token trip
/// no matter which thread charges the final unit. (The cost of this is one
/// uncontended `fetch_add` per step, negligible next to evaluation itself;
/// see `shared_budget_is_enforced_globally_across_workers` in
/// `crates/runtime` for the cross-thread enforcement test.)
#[derive(Debug)]
pub struct Budget {
    limits: Limits,
    started: Instant,
    deadline: Option<Instant>,
    steps: AtomicU64,
    index_entries: AtomicU64,
    cancel: Arc<AtomicBool>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::new(Limits::unlimited())
    }
}

impl Budget {
    /// Start a budget clock for the given limits.
    pub fn new(limits: Limits) -> Self {
        let started = Instant::now();
        Budget {
            deadline: limits.timeout.map(|t| started + t),
            limits,
            started,
            steps: AtomicU64::new(0),
            index_entries: AtomicU64::new(0),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// An unlimited budget (never trips).
    pub fn unlimited() -> Arc<Self> {
        Arc::new(Budget::new(Limits::unlimited()))
    }

    /// The limits this budget enforces.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// A clonable token that cancels this evaluation when set. Safe to hand
    /// to another thread (e.g. a Ctrl-C handler).
    pub fn cancel_token(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Request cancellation; the evaluation observes it at its next check.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Steps consumed so far.
    pub fn steps_used(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Index entries charged so far.
    pub fn index_entries_used(&self) -> u64 {
        self.index_entries.load(Ordering::Relaxed)
    }

    /// Elapsed wall-clock time since the budget started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Charge one evaluator step; checks the step limit on every call and
    /// the deadline / cancellation flag every [`CHECK_INTERVAL`] steps.
    ///
    /// This is the evaluator's cooperative preemption point: called at the
    /// head of every expression-node visit, it bounds how long a runaway
    /// query can run past its deadline by the cost of 64 steps.
    #[inline]
    pub fn tick(&self) -> XdmResult<()> {
        let n = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.limits.max_steps {
            if n > max {
                return Err(XdmError::resource_exhausted(format!(
                    "evaluation exceeded step budget of {max}"
                )));
            }
        }
        if n.is_multiple_of(CHECK_INTERVAL) {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Check deadline and cancellation immediately (no step charge). Used
    /// at coarse boundaries: per document, per probe, per result row.
    pub fn checkpoint(&self) -> XdmResult<()> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(XdmError::cancelled());
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(XdmError::resource_exhausted(format!(
                    "evaluation exceeded deadline of {:?}",
                    self.limits.timeout.unwrap_or_default()
                )));
            }
        }
        Ok(())
    }

    /// Charge `n` scanned index entries against the index budget, also
    /// checking deadline/cancellation (probe loops may run long without
    /// ticking the evaluator).
    pub fn charge_index_entries(&self, n: u64) -> XdmResult<()> {
        let total = self.index_entries.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.limits.max_index_entries {
            if total > max {
                return Err(XdmError::resource_exhausted(format!(
                    "index scan exceeded entry budget of {max}"
                )));
            }
        }
        self.checkpoint()
    }

    /// Check a result cardinality against the configured cap.
    pub fn check_result_items(&self, n: usize) -> XdmResult<()> {
        if let Some(max) = self.limits.max_result_items {
            if n > max {
                return Err(XdmError::resource_exhausted(format!(
                    "result exceeded cardinality cap of {max} items"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorCode;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.tick().unwrap();
        }
        b.charge_index_entries(1 << 40).unwrap();
        b.check_result_items(usize::MAX).unwrap();
    }

    #[test]
    fn step_budget_trips_with_typed_error() {
        let b = Budget::new(Limits::unlimited().with_max_steps(100));
        let mut tripped = None;
        for _ in 0..200 {
            if let Err(e) = b.tick() {
                tripped = Some(e);
                break;
            }
        }
        let e = tripped.expect("budget must trip");
        assert_eq!(e.code, ErrorCode::ResourceExhausted);
        assert!(b.steps_used() >= 100);
    }

    #[test]
    fn deadline_trips() {
        let b = Budget::new(Limits::unlimited().with_timeout(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        let e = b.checkpoint().unwrap_err();
        assert_eq!(e.code, ErrorCode::ResourceExhausted);
    }

    #[test]
    fn cancellation_observed_at_checkpoint() {
        let b = Budget::new(Limits::unlimited());
        let token = b.cancel_token();
        b.checkpoint().unwrap();
        token.store(true, Ordering::Relaxed);
        assert_eq!(b.checkpoint().unwrap_err().code, ErrorCode::Cancelled);
    }

    #[test]
    fn index_entry_budget_trips() {
        let b = Budget::new(Limits::unlimited().with_max_index_entries(10));
        b.charge_index_entries(5).unwrap();
        let e = b.charge_index_entries(6).unwrap_err();
        assert_eq!(e.code, ErrorCode::ResourceExhausted);
        assert_eq!(b.index_entries_used(), 11);
    }

    #[test]
    fn result_cap_checks() {
        let b = Budget::new(Limits::unlimited().with_max_result_items(3));
        b.check_result_items(3).unwrap();
        assert_eq!(
            b.check_result_items(4).unwrap_err().code,
            ErrorCode::ResourceExhausted
        );
    }
}
