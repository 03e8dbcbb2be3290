//! The XQuery engine: plan → pre-filter via indexes → evaluate.
//!
//! Architecture per Section 2 of the paper: indexes *pre-filter* the
//! collection (Definition 1's `I(P, D)`), and the full query then runs over
//! the surviving documents, so residual predicates, ordering, construction
//! and node identity all behave exactly as in the unoptimized evaluation.
//!
//! # Parallel execution
//!
//! [`ParallelExecutor`] shards the surviving document list of *one*
//! collection across the `xqdb-runtime` worker pool when static analysis
//! proves that per-shard evaluation concatenated in shard order is
//! byte-identical to serial evaluation (see [`partition_plan`] for the
//! exact conditions). Queries outside that fragment — and any run with one
//! thread — take the serial path, which is unchanged from the pre-parallel
//! engine. Definition 1 is the correctness oracle either way: the sharded
//! scan evaluates exactly the documents the serial scan would, in the same
//! document order.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use xqdb_obs::{Counter, Gauge, Histogram, Obs, SpanId, Trace};
use xqdb_runtime::{chunk_ranges, WorkerPool};
use xqdb_xdm::{Budget, ErrorCode, ExpandedName, Item, Limits, Sequence, XdmError};
use xqdb_xqeval::{CollectionProvider, DynamicContext};
use xqdb_xquery::ast::{ConstructorContent, Expr, FlworClause, Step};
use xqdb_xquery::Query;
use xqdb_storage::SqlValue;

use crate::access::{self, AccessConfig, AccessPaths, SourcePaths, Survivors};
use crate::catalog::Catalog;
use crate::eligibility::{
    compile, diagnose, diagnose_misestimate, restrict_to_source, AnalysisEnv,
    Cond, IndexCond, Note, Rejection,
};
use crate::prefilter::SourcePrefilter;
use crate::twig::SourceTwig;
use crate::walk::{walk, Body};

/// Per-collection access decision.
#[derive(Debug, Clone)]
pub struct SourceAccess {
    /// Collection key (`TABLE.COLUMN`).
    pub source: String,
    /// The compiled index condition, or `None` for a collection scan.
    pub access: Option<IndexCond>,
}

/// A planned query.
#[derive(Debug)]
pub struct QueryPlan {
    /// The parsed query.
    pub query: Query,
    /// The extracted filtering condition (pre-restriction).
    pub cond: Cond,
    /// Access path per referenced collection.
    pub accesses: Vec<SourceAccess>,
    /// Analyzer diagnostics (non-filtering predicates etc.).
    pub notes: Vec<Note>,
    /// Candidates that found no index, with reasons.
    pub rejections: Vec<Rejection>,
    /// Structural pre-filters per source: conservative required-path groups
    /// checked against stored document signatures before evaluation.
    pub prefilter: HashMap<String, SourcePrefilter>,
    /// Twig patterns per source: branching/descendant path shapes served
    /// by the holistic twig join over structural labels. Resolution
    /// against the table's synopsis happens at execution time, so cached
    /// plans stay valid as collections grow.
    pub twig: HashMap<String, SourceTwig>,
    /// Cost-model metadata: what the planner estimated and why it chose
    /// the accesses it did. Empty/default on rule-based plans.
    pub cost: PlanCost,
}

/// Cost-model metadata attached to a plan.
#[derive(Debug, Clone, Default)]
pub struct PlanCost {
    /// True when the synopsis-backed cost model scored at least one
    /// candidate while planning (statistics were complete and consulted).
    pub costed: bool,
    /// (candidate, eligible index) pairs scored.
    pub candidates: u64,
    /// Estimated rows fetched by index probes, summed over sources that
    /// kept an access. `None` when nothing was estimated.
    pub est_rows: Option<u64>,
    /// Human-readable costing decisions (index choices, declined probes),
    /// rendered by EXPLAIN.
    pub notes: Vec<String>,
}

/// Execution statistics, reported by benches and EXPLAIN.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Index entries scanned across all probes.
    pub index_entries_scanned: usize,
    /// Individual B+Tree range scans executed (a compound condition probes
    /// once per `PROBE` leaf).
    pub index_probes: usize,
    /// B+Tree nodes touched by probes: root-to-leaf descents plus
    /// leaf-chain advances.
    pub btree_nodes_touched: usize,
    /// Documents fetched and evaluated, per source.
    pub docs_evaluated: HashMap<String, usize>,
    /// Collection sizes, per source.
    pub docs_total: HashMap<String, usize>,
    /// Stored XML documents this run parsed while decoding rows. Physical
    /// work: a row fetched only for its scalar columns parses nothing.
    pub xml_docs_parsed: u64,
    /// Sources whose index probe failed at execution time and fell back to
    /// a full collection scan (correct by Definition 1, just slower).
    pub degraded_sources: Vec<String>,
    /// Number of index probe faults observed during execution.
    pub index_faults: usize,
    /// Evaluator steps charged against the budget.
    pub steps_used: u64,
    /// Worker threads used for evaluation (1 = serial; 0 only from
    /// `ExecStats::default()` on paths that never reach the executor).
    pub parallel_workers: usize,
    /// Shards the surviving document list was split into (1 = serial).
    pub parallel_shards: usize,
    /// Live rows the scalar filter dropped: a SQL `column op literal`
    /// conjunct over an INTEGER column was not TRUE for their in-memory
    /// cell, so they were never fetched.
    pub scalar_rows_skipped: usize,
    /// Documents skipped by the structural pre-filter (signature lacked a
    /// required path in every requirement group).
    pub prefilter_docs_skipped: usize,
    /// Holistic twig joins executed (one per source the twig phase
    /// actually filtered; declined sources — incomplete labels — don't
    /// count).
    pub twig_joins: u64,
    /// Candidate documents admitted by the twig joins' per-node row-set
    /// intersections and handed to the full structural match.
    pub twig_candidates: usize,
    /// Documents skipped by the twig phase (not a candidate, or the
    /// structural match rejected them).
    pub twig_docs_skipped: usize,
    /// 1 if this run's plan came from the plan cache (set by the front end
    /// that consulted the cache; 0 otherwise).
    pub plan_cache_hits: u64,
    /// 1 if this run parsed and planned from scratch and the front end
    /// consulted a cache first (0 on hits and on cache-less paths).
    pub plan_cache_misses: u64,
    /// Page fetches this run answered from a resident buffer-pool frame,
    /// summed over the row store's page file and every index's node pool.
    /// Physical traffic: distinct from `btree_nodes_touched`, which counts
    /// *logical* node visits whether or not the node's page was resident.
    pub buffer_pool_hits: u64,
    /// Page fetches this run that had to read the backing store.
    pub buffer_pool_misses: u64,
    /// Pages this run evicted from a buffer pool to make room.
    pub pages_evicted: u64,
    /// Rows removed by this statement (DELETE).
    pub rows_deleted: u64,
    /// Documents replaced in place by this statement (UPDATE).
    pub docs_replaced: u64,
    /// Tombstoned heap records physically reclaimed (checkpoint only;
    /// always 0 for a plain statement).
    pub tombstones_reclaimed: u64,
    /// 1 if this run's plan was costed: the synopsis-backed cost model
    /// scored at least one candidate at plan time.
    pub plans_costed: u64,
    /// (candidate, eligible index) pairs the cost model scored when this
    /// run's plan was built (0 on cache hits of rule-based plans and when
    /// costing is off).
    pub index_candidates_costed: u64,
    /// Docid-set intersections performed while AND-combining index probes.
    pub multi_index_intersections: u64,
    /// The plan's estimated probe output in rows (0 when not costed).
    pub cost_est_rows: u64,
    /// Rows actually produced by the probe phase, before the twig and
    /// prefilter passes — the number the estimate predicts.
    pub cost_actual_rows: u64,
}

impl ExecStats {
    /// Stats for a run entering the executor: serial (one worker, one
    /// shard) until the sharded path proves otherwise, all counters zero.
    pub fn new() -> ExecStats {
        ExecStats { parallel_workers: 1, parallel_shards: 1, ..ExecStats::default() }
    }

    /// [`ExecStats::new`] carrying what the cost model did for the plan.
    pub(crate) fn for_plan(cost: &PlanCost) -> ExecStats {
        let mut stats = ExecStats::new();
        if cost.costed {
            stats.plans_costed = 1;
            stats.index_candidates_costed = cost.candidates;
            stats.cost_est_rows = cost.est_rows.unwrap_or(0);
        }
        stats
    }

    /// Documents evaluated, summed over all sources.
    pub fn docs_evaluated_total(&self) -> usize {
        self.docs_evaluated.values().sum()
    }
}

/// Result of executing a planned query.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The query result sequence.
    pub sequence: Sequence,
    /// Statistics.
    pub stats: ExecStats,
    /// The run's span trace (the free disabled trace unless tracing was
    /// requested via [`ExecOptions`] or `EXPLAIN ANALYZE`).
    pub trace: Trace,
}

/// Plan an XQuery against the catalog. `env` carries externally-bound
/// variables (the SQL/XML `PASSING` clause).
pub fn plan_query(catalog: &Catalog, query: Query, env: &AnalysisEnv) -> QueryPlan {
    plan_query_traced(catalog, query, env, &Trace::disabled())
}

/// [`plan_query`] recording a `plan` span with an `eligibility check`
/// child when the trace is live. Index choice is costed.
pub fn plan_query_traced(
    catalog: &Catalog,
    query: Query,
    env: &AnalysisEnv,
    trace: &Trace,
) -> QueryPlan {
    plan_query_costed(catalog, query, env, trace, true)
}

/// [`plan_query_traced`] with the cost model explicitly enabled or
/// disabled. With `use_cost` false (or when a source's synopsis statistics
/// are incomplete) index choice is the original rule-based
/// first-eligible-wins.
pub fn plan_query_costed(
    catalog: &Catalog,
    query: Query,
    env: &AnalysisEnv,
    trace: &Trace,
    use_cost: bool,
) -> QueryPlan {
    let mut span = trace.span("plan");
    let (walked, prefilter, twig) = {
        let mut walk_span = span.child("query walk");
        let walked = walk(&query.body, env, Body::Query);
        let (prefilter, twig) = (walked.structure.prefilters(), walked.structure.twigs());
        walk_span.add_count((prefilter.len() + twig.len()) as u64);
        (walked, prefilter, twig)
    };
    let mut accesses = Vec::new();
    let mut rejections = Vec::new();
    let mut cost = PlanCost::default();
    {
        let mut elig = span.child("eligibility check");
        for source in walked.sources {
            let restricted = restrict_to_source(&walked.cond, &source);
            let indexes = catalog.indexes_for_source(&source);
            let model = if use_cost { catalog.cost_model_for(&source) } else { None };
            let compiled = compile(&restricted, &indexes, model.as_ref());
            rejections.extend(compiled.rejections);
            if compiled.candidates_costed > 0 {
                cost.costed = true;
                cost.candidates += compiled.candidates_costed;
            }
            if let Some(est) = compiled.est_rows {
                *cost.est_rows.get_or_insert(0) += est;
            }
            cost.notes.extend(compiled.cost_notes);
            accesses.push(SourceAccess { source, access: compiled.access });
        }
        elig.add_count(accesses.len() as u64);
        elig.tag_with("rejections", || rejections.len().to_string());
    }
    span.add_count(accesses.len() as u64);
    QueryPlan {
        query,
        cond: walked.cond,
        accesses,
        notes: walked.notes,
        rejections,
        prefilter,
        twig,
        cost,
    }
}

/// Parse, plan and execute an XQuery string.
pub fn run_xquery(catalog: &Catalog, text: &str) -> Result<ExecOutcome, XdmError> {
    run_xquery_with_limits(catalog, text, Limits::unlimited())
}

/// Parse, plan and execute an XQuery string under resource limits.
pub fn run_xquery_with_limits(
    catalog: &Catalog,
    text: &str,
    limits: Limits,
) -> Result<ExecOutcome, XdmError> {
    run_xquery_with_options(catalog, text, &ExecOptions { limits, ..ExecOptions::default() })
}

/// Execution options: resource limits, the parallelism degree, the
/// observability handle and the caller's [`AccessConfig`] switches, kept
/// as three flat fields so the shell, benches and tests can compare the
/// access paths in-process.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Resource limits for the run.
    pub limits: Limits,
    /// Worker threads. `0` and `1` both select the serial legacy path.
    pub threads: usize,
    /// Observability: metrics registry + tracing configuration. The default
    /// is the free disabled handle.
    pub obs: Obs,
    /// Apply the structural pre-filter (on by default;
    /// [`AccessConfig::prefilter`]).
    pub prefilter: bool,
    /// Apply the holistic twig join over structural labels (on by
    /// default; [`AccessConfig::twig`]).
    pub twig: bool,
    /// Use the synopsis-backed cost model at plan time (on by default;
    /// [`AccessConfig::cost`]). With costing off the planner is the
    /// original rule-based first-eligible-index one.
    pub cost: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            limits: Limits::default(),
            threads: 0,
            obs: Obs::default(),
            prefilter: true,
            twig: true,
            cost: true,
        }
    }
}

/// Parse, plan and execute an XQuery string under [`ExecOptions`].
pub fn run_xquery_with_options(
    catalog: &Catalog,
    text: &str,
    opts: &ExecOptions,
) -> Result<ExecOutcome, XdmError> {
    let trace = opts.obs.trace();
    run_traced(catalog, text, opts, &trace).map(|(_, outcome)| outcome)
}

/// Parse, plan and execute with per-query metric recording, against the
/// given trace. Returns the plan too, for `EXPLAIN ANALYZE`.
///
/// Plans are cached on the catalog keyed by the exact query text: a hit
/// does zero parse/plan work (no `parse`/`plan` spans are recorded) and is
/// surfaced in the stats and the `PlanCacheHits` counter.
fn run_traced(
    catalog: &Catalog,
    text: &str,
    opts: &ExecOptions,
    trace: &Trace,
) -> Result<(Arc<QueryPlan>, ExecOutcome), XdmError> {
    let obs = &opts.obs;
    let started = obs.metrics_enabled().then(Instant::now);
    obs.incr(Counter::QueriesExecuted);
    let result: Result<(Arc<QueryPlan>, ExecOutcome), XdmError> = (|| {
        let access = AccessConfig { prefilter: opts.prefilter, twig: opts.twig, cost: opts.cost };
        let key = access.plan_key(text);
        let cached = catalog.cached_plan(&key);
        let cache_hit = cached.is_some();
        obs.incr(if cache_hit { Counter::PlanCacheHits } else { Counter::PlanCacheMisses });
        let plan = match cached {
            Some(plan) => plan,
            None => {
                let query = {
                    let _parse = trace.span("parse");
                    xqdb_xquery::parse_query(text).map_err(|e| {
                        XdmError::new(xqdb_xdm::ErrorCode::XPST0003, e.to_string())
                    })?
                };
                let plan = Arc::new(plan_query_costed(
                    catalog,
                    query,
                    &AnalysisEnv::new(),
                    trace,
                    access.cost,
                ));
                if obs.metrics_enabled() {
                    let diagnoses = diagnose(&plan.rejections, &plan.notes);
                    obs.add(Counter::DoctorDiagnoses, diagnoses.len() as u64);
                }
                catalog.cache_plan(&key, Arc::clone(&plan));
                plan
            }
        };
        let budget = Arc::new(Budget::new(opts.limits.clone()));
        let ctx = DynamicContext::new().with_budget(budget);
        let mut outcome = ParallelExecutor::with_access(opts.threads, access)
            .execute_observed(catalog, &plan, &ctx, obs, trace)?;
        outcome.stats.plan_cache_hits = u64::from(cache_hit);
        outcome.stats.plan_cache_misses = u64::from(!cache_hit);
        Ok((plan, outcome))
    })();
    if let Some(t0) = started {
        obs.observe_ns(Histogram::QueryNanos, elapsed_ns(t0));
    }
    match &result {
        Err(e) if e.code == ErrorCode::ResourceExhausted => {
            obs.incr(Counter::BudgetExhaustions)
        }
        Err(e) if e.code == ErrorCode::Cancelled => obs.incr(Counter::QueriesCancelled),
        _ => {}
    }
    result
}

/// `EXPLAIN ANALYZE` for the standalone XQuery path: run the query with
/// tracing forced on and render the plan annotated with actual per-stage
/// timings, execution counters (exactly the returned [`ExecStats`]) and the
/// query doctor's diagnoses. Returns the report and the outcome it
/// describes.
pub fn explain_analyze_xquery(
    catalog: &Catalog,
    text: &str,
    opts: &ExecOptions,
) -> Result<(String, ExecOutcome), XdmError> {
    let trace = Trace::recording();
    let (plan, outcome) = run_traced(catalog, text, opts, &trace)?;
    let report = explain_analyze_report(&plan, &outcome, opts.threads);
    Ok((report, outcome))
}

pub(crate) fn elapsed_ns(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Execute a planned query. The context's budget governs the whole run:
/// probes charge index entries, the evaluator charges steps, and the final
/// result is checked against the cardinality cap.
///
/// If an index probe fails with a `StorageFault` (injected or real), the
/// affected source **degrades to a full collection scan** — by Definition 1
/// the index is only a pre-filter, so scanning everything is always
/// correct. The degradation is recorded in [`ExecStats`]. Budget errors
/// (`ResourceExhausted`, `Cancelled`) are not degradable and propagate.
pub fn execute_plan(
    catalog: &Catalog,
    plan: &QueryPlan,
    ctx: &DynamicContext,
) -> Result<ExecOutcome, XdmError> {
    ParallelExecutor::new(1).execute(catalog, plan, ctx)
}

/// Executes plans over the worker pool, sharding the partitionable
/// fragment of the language (see [`partition_plan`]) and falling back to
/// the serial path for everything else.
///
/// Output is byte-identical to serial execution by construction; budget
/// counters, the cancellation token and the deadline are shared atomics in
/// [`Budget`], so a single limit governs all workers globally.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    pool: WorkerPool,
    access: AccessConfig,
}

impl ParallelExecutor {
    /// Executor with the given parallelism degree (0 and 1 mean serial)
    /// and every access switch on.
    pub fn new(threads: usize) -> Self {
        ParallelExecutor::with_access(threads, AccessConfig::default())
    }

    /// Executor running the access pipeline under `access`.
    pub(crate) fn with_access(threads: usize, access: AccessConfig) -> Self {
        ParallelExecutor { pool: WorkerPool::new(threads), access }
    }

    /// The effective degree.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Execute a planned query; see [`execute_plan`] for the semantics.
    pub fn execute(
        &self,
        catalog: &Catalog,
        plan: &QueryPlan,
        ctx: &DynamicContext,
    ) -> Result<ExecOutcome, XdmError> {
        self.execute_observed(catalog, plan, ctx, &Obs::disabled(), &Trace::disabled())
    }

    /// [`ParallelExecutor::execute`] with observability: probe and scan
    /// phases record spans into `trace`, and the finished run's stats are
    /// recorded into `obs`'s metrics registry in one place
    /// ([`record_exec_metrics`]) so a metrics delta reconciles exactly with
    /// the returned [`ExecStats`].
    pub fn execute_observed(
        &self,
        catalog: &Catalog,
        plan: &QueryPlan,
        ctx: &DynamicContext,
        obs: &Obs,
        trace: &Trace,
    ) -> Result<ExecOutcome, XdmError> {
        let mut stats = ExecStats::for_plan(&plan.cost);
        let baseline = Physical::now(catalog);
        // Serial, before any parallel evaluation: probe-side fault
        // injection fires at the same points whatever the thread count.
        let sources: Vec<SourcePaths<'_>> = plan
            .accesses
            .iter()
            .map(|a| SourcePaths {
                source: &a.source,
                key: &a.source,
                index: a.access.as_ref(),
                twigs: plan.twig.get(&a.source).map(std::slice::from_ref).unwrap_or_default(),
                prefilters: plan
                    .prefilter
                    .get(&a.source)
                    .map(std::slice::from_ref)
                    .unwrap_or_default(),
                scalars: &[],
            })
            .collect();
        let paths =
            AccessPaths { catalog, config: self.access, pool: self.pool, obs, trace };
        let filters = paths.survivors(&sources, &ctx.budget, &mut stats)?;
        for a in &plan.accesses {
            let total =
                catalog.db.resolve_xml_column(&a.source).map_or(0, |(t, _)| t.live_len());
            let evaluated = filters.get(&a.source).map_or(total, BTreeSet::len);
            stats.docs_total.insert(a.source.clone(), total);
            stats.docs_evaluated.insert(a.source.clone(), evaluated);
        }
        if self.pool.threads() > 1 {
            if let Some(part) = partition_plan(&plan.query) {
                if let Some(rows) =
                    monotone_surviving_rows(catalog, &part.source, filters.get(&part.source))
                {
                    if rows.len() > 1 {
                        let scan =
                            ShardedScan { filters: &filters, rows: &rows, part: &part };
                        let mut outcome =
                            self.execute_sharded(catalog, plan, ctx, stats, &scan, trace)?;
                        apply_physical_delta(&mut outcome.stats, catalog, &baseline);
                        record_exec_metrics(obs, &outcome.stats);
                        return Ok(outcome);
                    }
                }
            }
        }
        let mut span = trace.span("scan");
        span.tag_str("mode", "serial");
        let provider = FilteredProvider { catalog, filters: &filters, shard: None };
        let sequence = xqdb_xqeval::eval_query(&plan.query, &provider, ctx)?;
        ctx.budget.check_result_items(sequence.len())?;
        span.add_count(sequence.len() as u64);
        drop(span);
        stats.steps_used = ctx.budget.steps_used();
        apply_physical_delta(&mut stats, catalog, &baseline);
        record_exec_metrics(obs, &stats);
        Ok(ExecOutcome { sequence, stats, trace: trace.clone() })
    }

    /// Sharded evaluation: split the surviving rows of the partition source
    /// into contiguous chunks, evaluate the whole query per chunk on the
    /// pool (each worker sees only its shard of the partition source, and
    /// the full filtered view of every other source), and concatenate the
    /// per-chunk sequences in chunk order.
    fn execute_sharded(
        &self,
        catalog: &Catalog,
        plan: &QueryPlan,
        ctx: &DynamicContext,
        mut stats: ExecStats,
        scan: &ShardedScan<'_>,
        trace: &Trace,
    ) -> Result<ExecOutcome, XdmError> {
        let ShardedScan { filters, rows, part } = *scan;
        let ranges = chunk_ranges(rows.len(), self.pool.default_chunks(rows.len()));
        let mut span = trace.span("scan");
        span.tag_str("mode", "sharded");
        span.tag_with("source", || part.source.clone());
        let task = |i: usize| {
            let shard = Shard { source: &part.source, rows: &rows[ranges[i].clone()] };
            let provider = FilteredProvider { catalog, filters, shard: Some(shard) };
            xqdb_xqeval::eval_query(&plan.query, &provider, ctx)
        };
        let chunks = try_run_traced(&self.pool, ranges.len(), task, trace, span.id())?;
        let mut sequence: Sequence = Vec::new();
        for chunk in chunks {
            sequence.extend(chunk);
        }
        ctx.budget.check_result_items(sequence.len())?;
        span.add_count(sequence.len() as u64);
        drop(span);
        stats.steps_used = ctx.budget.steps_used();
        stats.parallel_workers = self.pool.threads();
        stats.parallel_shards = ranges.len();
        Ok(ExecOutcome { sequence, stats, trace: trace.clone() })
    }
}

/// The catalog's monotone physical-work counters — buffer-pool traffic
/// and stored XML documents parsed — taken once per statement on entry to
/// the executor (SQL: to SELECT or DML execution).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Physical {
    pool: xqdb_pager::PoolStats,
    xml_parsed: u64,
}

impl Physical {
    pub(crate) fn now(catalog: &Catalog) -> Physical {
        Physical { pool: catalog.pool_stats(), xml_parsed: catalog.db.xml_docs_parsed() }
    }
}

/// Charge this run's physical work to its stats: the delta of the
/// catalog's counters since `baseline`. Runs after evaluation so the
/// bracket covers probes, document fetches and, for DML, the mutation
/// itself.
pub(crate) fn apply_physical_delta(stats: &mut ExecStats, catalog: &Catalog, baseline: &Physical) {
    let delta = catalog.pool_stats().delta_since(&baseline.pool);
    stats.buffer_pool_hits = delta.hits;
    stats.buffer_pool_misses = delta.misses;
    stats.pages_evicted = delta.evictions;
    stats.xml_docs_parsed = catalog.db.xml_docs_parsed().saturating_sub(baseline.xml_parsed);
}

/// Run fallible tasks on `pool` in task order. When `trace` records, each
/// finished task becomes a `worker task` span under `parent`; the disabled
/// path stays on plain `try_run`, with no observation plumbing at all.
pub(crate) fn try_run_traced<R, F>(
    pool: &WorkerPool,
    tasks: usize,
    task: F,
    trace: &Trace,
    parent: Option<SpanId>,
) -> Result<Vec<R>, XdmError>
where
    R: Send,
    F: Fn(usize) -> Result<R, XdmError> + Sync,
{
    if !trace.enabled() {
        return pool.try_run(tasks, task);
    }
    pool.try_run_observed(tasks, task, |t| {
        trace.record_finished(
            parent,
            "worker task",
            t.started,
            t.nanos,
            0,
            vec![("worker", t.worker.to_string()), ("task", t.task.to_string())],
        );
    })
}

/// Record a finished run's [`ExecStats`] into the metrics registry — the
/// single coupling point between counters and stats, which is what makes a
/// metrics snapshot delta reconcile *exactly* with the stats the query
/// returned (asserted by the observability consistency tests).
pub(crate) fn record_exec_metrics(obs: &Obs, stats: &ExecStats) {
    if !obs.metrics_enabled() {
        return;
    }
    obs.add(Counter::IndexEntriesScanned, stats.index_entries_scanned as u64);
    obs.add(Counter::IndexProbes, stats.index_probes as u64);
    obs.add(Counter::IndexProbeFaults, stats.index_faults as u64);
    obs.add(Counter::DegradationsToScan, stats.degraded_sources.len() as u64);
    obs.add(Counter::DocsEvaluated, stats.docs_evaluated_total() as u64);
    obs.add(Counter::XmlDocsParsed, stats.xml_docs_parsed);
    obs.add(Counter::ScalarRowsSkipped, stats.scalar_rows_skipped as u64);
    obs.add(Counter::PrefilterDocsSkipped, stats.prefilter_docs_skipped as u64);
    obs.add(Counter::TwigJoinsExecuted, stats.twig_joins);
    obs.add(Counter::TwigCandidates, stats.twig_candidates as u64);
    obs.add(Counter::TwigDocsSkipped, stats.twig_docs_skipped as u64);
    obs.add(Counter::EvalSteps, stats.steps_used);
    obs.add(Counter::BtreeNodeTouches, stats.btree_nodes_touched as u64);
    obs.add(Counter::BufferPoolHits, stats.buffer_pool_hits);
    obs.add(Counter::BufferPoolMisses, stats.buffer_pool_misses);
    obs.add(Counter::PagesEvicted, stats.pages_evicted);
    obs.add(Counter::PlansCosted, stats.plans_costed);
    obs.add(Counter::IndexCandidatesCosted, stats.index_candidates_costed);
    obs.add(Counter::MultiIndexIntersections, stats.multi_index_intersections);
    obs.set_gauge(Gauge::ParallelWorkers, stats.parallel_workers as u64);
    obs.set_gauge(Gauge::ParallelShards, stats.parallel_shards as u64);
    if stats.parallel_workers > 1 {
        obs.incr(Counter::ParallelQueries);
        obs.add(Counter::ParallelShardsExecuted, stats.parallel_shards as u64);
    }
}

/// Everything a sharded scan needs: the probe filters, the surviving rows
/// of the partition source (monotone document ids), and the partition.
#[derive(Clone, Copy)]
struct ShardedScan<'a> {
    filters: &'a Survivors,
    rows: &'a [u64],
    part: &'a Partition,
}

/// The partitionable fragment: which source's surviving documents may be
/// sharded across workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The `TABLE.COLUMN` source whose scan is sharded.
    pub source: String,
}

/// Static partitionability analysis.
///
/// Returns the source to shard when concatenating per-shard results in
/// shard order is provably byte-identical to serial evaluation:
///
/// - The query body is a path `xmlcolumn(S)/axis-steps...`, or a FLWOR
///   whose first clause is `for $v in xmlcolumn(S)` / `for $v in
///   xmlcolumn(S)/axis-steps...` without a positional (`at`) variable.
/// - Every step of that path is an **axis** step, so each intermediate
///   result is nodes-only and document-order deduplication never has to
///   compare nodes across shard boundaries (shards own disjoint document
///   id ranges — enforced at runtime by [`monotone_surviving_rows`]).
///   Filter steps are excluded: they can construct nodes or produce
///   atomics, whose global ordering (or type error) is not shard-local.
/// - `S` is referenced exactly once in the whole query, so no shard would
///   see a partial view of a second scan of `S`.
/// - No top-level `order by` (a global sort), and no `position()`/`last()`
///   anywhere (their focus is the global sequence, not the shard's).
///
/// Everything else runs serially — correct by construction, just not
/// sped up. The analysis is deliberately conservative: a false negative
/// costs performance, a false positive would corrupt results.
pub fn partition_plan(query: &Query) -> Option<Partition> {
    let body = &query.body;
    if has_positional_calls(body) {
        return None;
    }
    let source = match body {
        Expr::Path { init, steps } => {
            if !axis_only(steps) {
                return None;
            }
            xmlcolumn_literal(init)?
        }
        Expr::Flwor(f) => {
            if f.clauses.iter().any(|c| matches!(c, FlworClause::OrderBy(_))) {
                return None;
            }
            let FlworClause::For { position: None, expr, .. } = f.clauses.first()? else {
                return None;
            };
            match expr {
                Expr::Path { init, steps } => {
                    if !axis_only(steps) {
                        return None;
                    }
                    xmlcolumn_literal(init)?
                }
                other => xmlcolumn_literal(other)?,
            }
        }
        _ => return None,
    };
    if count_source_refs(body, &source) != 1 {
        return None;
    }
    Some(Partition { source })
}

fn axis_only(steps: &[Step]) -> bool {
    steps.iter().all(|s| matches!(s, Step::Axis { .. }))
}

/// True if the expression calls `position()` or `last()` anywhere. Matched
/// by local name regardless of namespace — conservatively serializing a
/// user-defined `position` costs speed, never correctness.
fn has_positional_calls(expr: &Expr) -> bool {
    let mut found = false;
    visit_exprs(expr, &mut |e| {
        if let Expr::FunctionCall { name, .. } = e {
            if matches!(&*name.local, "position" | "last") {
                found = true;
            }
        }
    });
    found
}

fn count_source_refs(expr: &Expr, source: &str) -> usize {
    let mut n = 0usize;
    visit_exprs(expr, &mut |e| {
        if xmlcolumn_literal(e).as_deref() == Some(source) {
            n += 1;
        }
    });
    n
}

/// The surviving rows of `source` (filter ∩ rows holding an XML document),
/// in row order — provided their document ids are strictly increasing, the
/// property that makes shard-order concatenation equal global document
/// order. Documents get monotone ids at INSERT, so this holds unless a
/// document handle was shared across rows; then we fall back to serial.
fn monotone_surviving_rows(
    catalog: &Catalog,
    source: &str,
    filter: Option<&BTreeSet<u64>>,
) -> Option<Vec<u64>> {
    let (table, col) = catalog.db.resolve_xml_column(source).ok()?;
    let mut rows = Vec::new();
    let mut last_doc: Option<u64> = None;
    let mask = table.column_mask(col);
    for item in access::fetch(filter, table, &mask) {
        // A page fault here means the serial path will surface the same
        // typed error; declining the parallel plan is enough.
        let (row, values) = item.ok()?;
        if let Some(SqlValue::Xml(n)) = &values[col] {
            let doc = n.doc.id.0;
            if last_doc.is_some_and(|d| d >= doc) {
                return None;
            }
            last_doc = Some(doc);
            rows.push(row);
        }
    }
    Some(rows)
}

/// Render an EXPLAIN report for a plan, including the parallelism section
/// for the given degree.
pub fn explain_with_threads(plan: &QueryPlan, threads: usize) -> String {
    let mut out = explain(plan);
    let threads = threads.max(1);
    if threads == 1 {
        out.push_str("  parallelism: serial (1 thread)\n");
    } else {
        match partition_plan(&plan.query) {
            Some(p) => out.push_str(&format!(
                "  parallelism: {threads} threads, sharded scan over {}\n",
                p.source
            )),
            None => out.push_str(&format!(
                "  parallelism: serial ({threads} threads requested, query is not partitionable)\n"
            )),
        }
    }
    out
}

/// Render an EXPLAIN report for a plan.
pub fn explain(plan: &QueryPlan) -> String {
    let mut out = String::from("XQUERY PLAN\n");
    if plan.accesses.is_empty() {
        out.push_str("  (no stored collections referenced)\n");
    }
    for a in &plan.accesses {
        match &a.access {
            Some(c) => {
                out.push_str(&format!("  source {}: INDEX {}\n", a.source, c.render()));
            }
            None => {
                out.push_str(&format!("  source {}: COLLECTION SCAN\n", a.source));
            }
        }
    }
    if !plan.cost.notes.is_empty() {
        out.push_str("  cost decisions:\n");
        for n in &plan.cost.notes {
            out.push_str(&format!("    - {n}\n"));
        }
    }
    render_structure_sections(
        &mut out,
        plan.prefilter.iter().map(|(s, pf)| (s, std::slice::from_ref(pf))),
        plan.twig.iter().map(|(s, tw)| (s, std::slice::from_ref(tw))),
    );
    if !plan.notes.is_empty() {
        out.push_str("  notes:\n");
        for n in &plan.notes {
            out.push_str(&format!("    - {n}\n"));
        }
    }
    if !plan.rejections.is_empty() {
        out.push_str("  rejected candidates:\n");
        for r in &plan.rejections {
            out.push_str(&format!("    - {}\n", r.candidate));
            for reason in &r.reasons {
                out.push_str(&format!("        {reason}\n"));
            }
        }
    }
    out
}

/// Render an `EXPLAIN ANALYZE` report: the plan, the actual span trace
/// (per-stage wall-clock timings and item counts), the execution counters
/// — verbatim from the outcome's [`ExecStats`], so the report reconciles
/// exactly with what the query returned — and one query-doctor line per
/// eligibility pitfall, naming the paper Tip (or rule) that fired.
pub fn explain_analyze_report(plan: &QueryPlan, outcome: &ExecOutcome, threads: usize) -> String {
    let mut out = explain_with_threads(plan, threads);
    render_execution_sections(&mut out, &outcome.stats, &outcome.trace);
    render_doctor_section(&mut out, &plan.rejections, &plan.notes, &outcome.stats);
    out
}

/// The `structural prefilter:` and `twig join:` sections of an EXPLAIN
/// report, shared by both front ends: one line per source, in source
/// order, its filters (one per SQL filtering conjunct) joined by ` AND `.
pub(crate) fn render_structure_sections<'a>(
    out: &mut String,
    prefilters: impl Iterator<Item = (&'a String, &'a [SourcePrefilter])>,
    twigs: impl Iterator<Item = (&'a String, &'a [SourceTwig])>,
) {
    let prefilters =
        prefilters.map(|(s, pfs)| (s, pfs.iter().map(SourcePrefilter::render).collect()));
    render_source_lines(out, "structural prefilter", "requires", prefilters.collect());
    let twigs = twigs.map(|(s, tws)| (s, tws.iter().map(SourceTwig::render).collect()));
    render_source_lines(out, "twig join", "matches", twigs.collect());
}

fn render_source_lines(
    out: &mut String,
    title: &str,
    verb: &str,
    mut lines: Vec<(&String, Vec<String>)>,
) {
    if lines.is_empty() {
        return;
    }
    lines.sort();
    out.push_str(&format!("  {title}:\n"));
    for (source, filters) in lines {
        out.push_str(&format!("    - {source}: {verb} {}\n", filters.join(" AND ")));
    }
}

/// The shared `EXECUTION` (trace) and `COUNTERS` (stats, verbatim) sections
/// of an `EXPLAIN ANALYZE` report — used by both the XQuery and the SQL/XML
/// front ends.
pub(crate) fn render_execution_sections(out: &mut String, s: &ExecStats, trace: &Trace) {
    out.push_str("EXECUTION\n");
    let rendered = trace.render();
    if rendered.is_empty() {
        out.push_str("  (trace disabled)\n");
    } else {
        for line in rendered.lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out.push_str("COUNTERS\n");
    out.push_str(&format!("  index probes: {}\n", s.index_probes));
    out.push_str(&format!("  index entries scanned: {}\n", s.index_entries_scanned));
    out.push_str(&format!("  btree nodes touched: {}\n", s.btree_nodes_touched));
    out.push_str(&format!(
        "  buffer pool: {} hit(s), {} miss(es), {} eviction(s)\n",
        s.buffer_pool_hits, s.buffer_pool_misses, s.pages_evicted
    ));
    let total: usize = s.docs_total.values().sum();
    out.push_str(&format!(
        "  documents evaluated: {} of {total}\n",
        s.docs_evaluated_total()
    ));
    out.push_str(&format!("  xml docs parsed: {}\n", s.xml_docs_parsed));
    out.push_str(&format!("  scalar rows skipped: {}\n", s.scalar_rows_skipped));
    out.push_str(&format!(
        "  prefilter docs skipped: {}\n",
        s.prefilter_docs_skipped
    ));
    out.push_str(&format!(
        "  twig joins: {} ({} candidate(s), {} skipped)\n",
        s.twig_joins, s.twig_candidates, s.twig_docs_skipped
    ));
    out.push_str(&format!(
        "  plan cache: {} hit(s), {} miss(es)\n",
        s.plan_cache_hits, s.plan_cache_misses
    ));
    if s.plans_costed > 0 {
        out.push_str(&format!(
            "  cost: est {} row(s), actual {} ({} candidate(s) scored, {} intersection(s))\n",
            s.cost_est_rows,
            s.cost_actual_rows,
            s.index_candidates_costed,
            s.multi_index_intersections
        ));
    }
    out.push_str(&format!("  eval steps: {}\n", s.steps_used));
    out.push_str(&format!(
        "  index faults: {} (degraded to scan: {})\n",
        s.index_faults,
        s.degraded_sources.len()
    ));
    out.push_str(&format!(
        "  workers: {}  shards: {}\n",
        s.parallel_workers, s.parallel_shards
    ));
    if s.rows_deleted > 0 || s.docs_replaced > 0 || s.tombstones_reclaimed > 0 {
        out.push_str(&render_dml_line(s));
    }
}

/// The `dml:` counters line of a DML `EXPLAIN ANALYZE` report. Rendered
/// unconditionally by the DML front end and only when non-zero by the
/// shared COUNTERS section (SELECT reports stay byte-identical).
pub(crate) fn render_dml_line(s: &ExecStats) -> String {
    format!(
        "  dml: {} row(s) deleted, {} doc(s) replaced, {} tombstone(s) reclaimed\n",
        s.rows_deleted, s.docs_replaced, s.tombstones_reclaimed
    )
}

/// The `QUERY DOCTOR` section of an `EXPLAIN ANALYZE` report, shared by
/// both front ends: one line per diagnosis, naming the paper Tip (or rule)
/// that disqualified the index, plus a misestimate line when the run's plan
/// was costed and its estimate was far off — headed by whether the run
/// actually probed an index.
pub(crate) fn render_doctor_section(
    out: &mut String,
    rejections: &[Rejection],
    notes: &[Note],
    stats: &ExecStats,
) {
    let mut diagnoses = diagnose(rejections, notes);
    if stats.plans_costed > 0 {
        diagnoses.extend(diagnose_misestimate(
            stats.cost_est_rows,
            stats.cost_actual_rows,
            stats.index_probes > 0,
        ));
    }
    if diagnoses.is_empty() {
        return;
    }
    out.push_str("QUERY DOCTOR\n");
    for d in &diagnoses {
        out.push_str(&format!("  {}\n", d.render()));
    }
}

/// One worker's view of the partition source: a sorted slice of surviving
/// row ids, served via a range-bounded scan so workers never re-walk the
/// whole table.
struct Shard<'a> {
    source: &'a str,
    rows: &'a [u64],
}

/// Collection provider that serves only the rows surviving index
/// pre-filtering — and, on a worker, only the shard's slice of the
/// partition source.
struct FilteredProvider<'a> {
    catalog: &'a Catalog,
    filters: &'a Survivors,
    shard: Option<Shard<'a>>,
}

impl<'a> FilteredProvider<'a> {
    /// Fault-injection point shared by both scan shapes: same semantics as
    /// `Database::xmlcolumn`, a document fetch fault has no fallback.
    fn check_fetch_fault(&self, row: usize, key: &str) -> Result<(), XdmError> {
        if let Some(inj) = self.catalog.db.fault_injector() {
            if inj.should_fail() {
                return Err(XdmError::storage_fault(format!(
                    "injected fault fetching document at row {row} of {key}"
                )));
            }
        }
        Ok(())
    }
}

impl<'a> CollectionProvider for FilteredProvider<'a> {
    fn xmlcolumn(&self, name: &str) -> Result<Sequence, XdmError> {
        let key = name.to_ascii_uppercase();
        let (table, col) = self.catalog.db.resolve_xml_column(&key)?;
        if let Some(shard) = self.shard.as_ref().filter(|s| s.source == key) {
            // Sharded scan: decode exactly this worker's surviving rows —
            // a point lookup per row, never the whole range (the shard may
            // be sparse after probes/joins/pre-filters pruned it).
            let mut out = Vec::with_capacity(shard.rows.len());
            for &row in shard.rows {
                self.check_fetch_fault(row as usize, &key)?;
                if let Some(SqlValue::Xml(n)) = table.cell(row as usize, col)? {
                    out.push(Item::Node(n));
                }
            }
            return Ok(out);
        }
        if let Some(f) = self.filters.get(&key) {
            // A filter survived the probe/twig/pre-filter phases: decode
            // only the surviving rows. Skipped documents must cost nothing
            // here, or the filtering phases' savings evaporate in decode
            // work. Fault-injection semantics are unchanged — the full
            // scan below also only fault-checked filter-passing rows.
            let mut out = Vec::with_capacity(f.len());
            for &row in f {
                self.check_fetch_fault(row as usize, &key)?;
                if let Some(SqlValue::Xml(n)) = table.cell(row as usize, col)? {
                    out.push(Item::Node(n));
                }
            }
            return Ok(out);
        }
        let mut out = Vec::new();
        for item in table.scan_masked(0, table.len(), table.column_mask(col)) {
            let (row, values) = item?;
            self.check_fetch_fault(row, &key)?;
            if let Some(SqlValue::Xml(n)) = &values[col] {
                out.push(Item::Node(n.clone()));
            }
        }
        Ok(out)
    }
}

/// The upper-cased source named by a `db2-fn:xmlcolumn('T.C')` call, if
/// `expr` is exactly such a call with a string-literal argument.
pub(crate) fn xmlcolumn_literal(expr: &Expr) -> Option<String> {
    if let Expr::FunctionCall { name, args } = expr {
        if &*name.local == "xmlcolumn" && name.ns.as_deref() == Some(xqdb_xdm::qname::DB2_FN_NS) {
            if let [Expr::Literal(xqdb_xdm::AtomicValue::String(s))] = args.as_slice() {
                return Some(s.to_ascii_uppercase());
            }
        }
    }
    None
}

/// Pre-order visit of every sub-expression, including step predicates,
/// filter-step expressions and constructor content. The single walker
/// behind the partitionability checks, so new
/// `Expr` variants fail compilation here instead of silently escaping one
/// of several hand-rolled traversals.
pub(crate) fn visit_exprs(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    match expr {
        Expr::FunctionCall { args, .. } => {
            for a in args {
                visit_exprs(a, f);
            }
        }
        Expr::Literal(_) | Expr::VarRef(_) | Expr::ContextItem | Expr::Root => {}
        Expr::Sequence(items) => {
            for e in items {
                visit_exprs(e, f);
            }
        }
        Expr::Range(a, b)
        | Expr::Or(a, b)
        | Expr::And(a, b)
        | Expr::GeneralCmp(_, a, b)
        | Expr::ValueCmp(_, a, b)
        | Expr::NodeCmp(_, a, b)
        | Expr::Arith(_, a, b)
        | Expr::Union(a, b)
        | Expr::Intersect(a, b)
        | Expr::Except(a, b) => {
            visit_exprs(a, f);
            visit_exprs(b, f);
        }
        Expr::UnaryMinus(e)
        | Expr::Paren(e)
        | Expr::InstanceOf(e, _)
        | Expr::TreatAs(e, _)
        | Expr::CastAs { expr: e, .. }
        | Expr::CastableAs { expr: e, .. } => visit_exprs(e, f),
        Expr::Flwor(fl) => {
            for c in &fl.clauses {
                match c {
                    FlworClause::For { expr, .. } | FlworClause::Let { expr, .. } => {
                        visit_exprs(expr, f)
                    }
                    FlworClause::Where(e) => visit_exprs(e, f),
                    FlworClause::OrderBy(specs) => {
                        for s in specs {
                            visit_exprs(&s.expr, f);
                        }
                    }
                }
            }
            visit_exprs(&fl.ret, f);
        }
        Expr::Quantified { bindings, satisfies, .. } => {
            for (_, e) in bindings {
                visit_exprs(e, f);
            }
            visit_exprs(satisfies, f);
        }
        Expr::If { cond, then, els } => {
            visit_exprs(cond, f);
            visit_exprs(then, f);
            visit_exprs(els, f);
        }
        Expr::Filter { expr, predicates } => {
            visit_exprs(expr, f);
            for p in predicates {
                visit_exprs(p, f);
            }
        }
        Expr::Path { init, steps } => {
            visit_exprs(init, f);
            for s in steps {
                match s {
                    Step::Axis { predicates, .. } => {
                        for p in predicates {
                            visit_exprs(p, f);
                        }
                    }
                    Step::Filter { expr, predicates } => {
                        visit_exprs(expr, f);
                        for p in predicates {
                            visit_exprs(p, f);
                        }
                    }
                }
            }
        }
        Expr::DirectElement(d) => visit_direct(d, f),
        Expr::ComputedElement { content, .. }
        | Expr::ComputedAttribute { content, .. }
        | Expr::ComputedText(content)
        | Expr::ComputedDocument(content) => {
            if let Some(c) = content {
                visit_exprs(c, f);
            }
        }
    }
}

fn visit_direct(d: &xqdb_xquery::ast::DirectElement, f: &mut impl FnMut(&Expr)) {
    for (_, parts) in &d.attributes {
        for p in parts {
            if let ConstructorContent::Expr(e) = p {
                visit_exprs(e, f);
            }
        }
    }
    for part in &d.content {
        match part {
            ConstructorContent::Expr(e) => visit_exprs(e, f),
            ConstructorContent::Element(inner) => visit_direct(inner, f),
            _ => {}
        }
    }
}

/// External variable bindings that also inform the analyzer (used by the
/// SQL/XML layer's PASSING clause).
pub fn bound_context(
    bindings: Vec<(ExpandedName, Sequence)>,
) -> DynamicContext {
    let mut map = HashMap::new();
    for (name, value) in bindings {
        map.insert(name, value);
    }
    DynamicContext::with_variables(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(q: &str) -> Option<Partition> {
        partition_plan(&xqdb_xquery::parse_query(q).unwrap())
    }

    #[test]
    fn partition_analysis_accepts_the_shardable_fragment() {
        // Top-level axis-only path over one collection.
        let p = part("db2-fn:xmlcolumn('T.C')//order[lineitem/@price > 100]").unwrap();
        assert_eq!(p.source, "T.C");
        // For-headed FLWOR over the bare collection or an axis-only path.
        assert!(part("for $o in db2-fn:xmlcolumn('T.C') return $o/a").is_some());
        let p = part(
            "for $o in db2-fn:xmlcolumn('T.C')/order where $o/a > 1 return $o/b",
        )
        .unwrap();
        assert_eq!(p.source, "T.C");
    }

    #[test]
    fn partition_analysis_serializes_everything_else() {
        // A let-binding sees the whole collection at once.
        assert!(part("let $a := db2-fn:xmlcolumn('T.C') return $a").is_none());
        // Two references to the source (self-join): one shard would need
        // the other shards' documents.
        assert!(part(
            "for $o in db2-fn:xmlcolumn('T.C')/order \
             for $p in db2-fn:xmlcolumn('T.C')/order \
             where $o/id = $p/ref return $o"
        )
        .is_none());
        // position()/last() observe the global sequence.
        assert!(part("db2-fn:xmlcolumn('T.C')/order[position() = 1]").is_none());
        assert!(
            part("for $o in db2-fn:xmlcolumn('T.C') return $o[last()]").is_none()
        );
        // A positional `at` variable is global too.
        assert!(
            part("for $o at $i in db2-fn:xmlcolumn('T.C') return $i").is_none()
        );
        // A filter step (function-call step) can produce atomics whose
        // ordering rules are not shard-local.
        assert!(part("db2-fn:xmlcolumn('T.C')/order/xs:double(.)").is_none());
        // Joins against a second collection are fine as long as the
        // *partitioned* source is referenced once.
        let p = part(
            "for $o in db2-fn:xmlcolumn('T.C')/order \
             for $c in db2-fn:xmlcolumn('U.D')/customer \
             where $o/custid = $c/id return $o"
        );
        assert_eq!(p.unwrap().source, "T.C");
    }
}
