//! The XQuery engine: plan → pre-filter via indexes → evaluate.
//!
//! Architecture per Section 2 of the paper: indexes *pre-filter* the
//! collection (Definition 1's `I(P, D)`), and the full query then runs over
//! the surviving documents, so residual predicates, ordering, construction
//! and node identity all behave exactly as in the unoptimized evaluation.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use xqdb_obs::{Counter, Histogram, Obs, Trace};
use xqdb_xdm::{Budget, ErrorCode, Item, Limits, Sequence, XdmError};
use xqdb_xqeval::{CollectionProvider, DynamicContext};
use xqdb_xquery::ast::{ConstructorContent, Expr, FlworClause, Step};
use xqdb_xquery::Query;
use xqdb_storage::SqlValue;

use crate::access::{
    self, compile_sources, AccessConfig, AccessPaths, AccessPlan, Narrows, PlanCost, Survivors,
    Uses,
};
use crate::catalog::Catalog;
use crate::eligibility::{diagnose, diagnose_misestimate, AnalysisEnv, Cond, Note, Rejection};
use crate::walk::{walk, Body};

/// A planned query.
#[derive(Debug)]
pub struct QueryPlan {
    /// The parsed query.
    pub query: Query,
    /// The extracted filtering condition (pre-restriction).
    pub cond: Cond,
    /// Access paths per referenced collection, keyed by source: each
    /// collection is narrowed and scanned on its own.
    pub access: AccessPlan,
    /// The sources whose collection call may run more than once in one
    /// evaluation (see [`repeated_sources`]).
    pub repeated: BTreeSet<String>,
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
    /// Rows fetched and evaluated, per source the run fetched from
    /// (counted by `access::fetch_rows`).
    pub docs_evaluated: HashMap<String, usize>,
    /// Live rows of each source the run fetched from.
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
    /// Live rows the scalar filter dropped: a SQL `column op literal`
    /// conjunct over an INTEGER column was not TRUE for their in-memory
    /// cell, so they were never fetched.
    pub scalar_rows_skipped: usize,
    /// Documents skipped by the structural pre-filter (the row lacked a
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
    /// Zeroed stats carrying what the cost model did for the plan.
    pub(crate) fn for_plan(cost: &PlanCost) -> ExecStats {
        let mut stats = ExecStats::default();
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
    let (walked, uses) = {
        let mut walk_span = span.child("query walk");
        let walked = walk(&query.body, env, Body::Query);
        let mut uses = Uses::default();
        walk_span.add_count(uses.record(&walked) as u64);
        (walked, uses)
    };
    let access = {
        let mut elig = span.child("eligibility check");
        let access = compile_sources(catalog, uses, use_cost, Narrows::Source);
        elig.add_count(access.sources.len() as u64);
        elig.tag_with("rejections", || access.rejections.len().to_string());
        access
    };
    span.add_count(access.sources.len() as u64);
    let repeated = repeated_sources(&query.body);
    QueryPlan { query, cond: walked.cond, access, repeated }
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

/// Execution options: resource limits, the observability handle and the
/// caller's [`AccessConfig`] switches, kept as three flat fields so the
/// shell, benches and tests can compare the access paths in-process.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Resource limits for the run.
    pub limits: Limits,
    /// Read by nothing: execution is serial. Kept only so that callers
    /// that still set it (the benchmark harness sets `threads: 1`) build.
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
                    let diagnoses = diagnose(&plan.access.rejections, &plan.access.notes);
                    obs.add(Counter::DoctorDiagnoses, diagnoses.len() as u64);
                }
                catalog.cache_plan(&key, Arc::clone(&plan));
                plan
            }
        };
        let budget = Arc::new(Budget::new(opts.limits.clone()));
        let ctx = DynamicContext::new().with_budget(budget);
        let mut outcome = execute_observed(catalog, &plan, &ctx, access, obs, trace)?;
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
    let report = explain_analyze_report(&plan, &outcome);
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
    execute_observed(
        catalog,
        plan,
        ctx,
        AccessConfig::default(),
        &Obs::disabled(),
        &Trace::disabled(),
    )
}

/// [`execute_plan`] under `access`, with observability: probe and scan
/// phases record spans into `trace`, and the finished run's stats are
/// recorded into `obs`'s metrics registry in one place
/// ([`record_exec_metrics`]) so a metrics delta reconciles exactly with the
/// returned [`ExecStats`].
fn execute_observed(
    catalog: &Catalog,
    plan: &QueryPlan,
    ctx: &DynamicContext,
    access: AccessConfig,
    obs: &Obs,
    trace: &Trace,
) -> Result<ExecOutcome, XdmError> {
    let mut stats = ExecStats::for_plan(&plan.access.cost);
    let baseline = Physical::now(catalog);
    let paths = AccessPaths { catalog, config: access, obs, trace };
    let filters = paths.survivors(&plan.access, &ctx.budget, &mut stats)?;
    let mut span = trace.span("scan");
    let provider = FilteredProvider {
        catalog,
        filters: &filters,
        stats: RefCell::new(&mut stats),
        repeated: &plan.repeated,
        fetched: RefCell::default(),
    };
    let sequence = xqdb_xqeval::eval_query(&plan.query, &provider, ctx)?;
    ctx.budget.check_result_items(sequence.len())?;
    span.add_count(sequence.len() as u64);
    drop(span);
    stats.steps_used = ctx.budget.steps_used();
    apply_physical_delta(&mut stats, catalog, &baseline);
    record_exec_metrics(obs, &stats);
    Ok(ExecOutcome { sequence, stats, trace: trace.clone() })
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
}

/// Render an EXPLAIN report for a plan.
pub fn explain(plan: &QueryPlan) -> String {
    let mut out = String::from("XQUERY PLAN\n");
    if plan.access.sources.is_empty() {
        out.push_str("  (no stored collections referenced)\n");
    }
    for s in &plan.access.sources {
        match &s.index {
            Some(c) => out.push_str(&format!("  source {}: INDEX {}\n", s.source, c.render())),
            None => out.push_str(&format!("  source {}: COLLECTION SCAN\n", s.source)),
        }
    }
    plan.access.render_tail(&mut out);
    out
}

/// Render an `EXPLAIN ANALYZE` report: the plan, the actual span trace
/// (per-stage wall-clock timings and item counts), the execution counters
/// — verbatim from the outcome's [`ExecStats`], so the report reconciles
/// exactly with what the query returned — and one query-doctor line per
/// eligibility pitfall, naming the paper Tip (or rule) that fired.
pub fn explain_analyze_report(plan: &QueryPlan, outcome: &ExecOutcome) -> String {
    let mut out = explain(plan);
    render_execution_sections(&mut out, &outcome.stats, &outcome.trace);
    render_doctor_section(&mut out, &plan.access.rejections, &plan.access.notes, &outcome.stats);
    out
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
/// actually probed an index, and blaming stale statistics only when the
/// plan came from a cache.
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
            stats.plan_cache_hits == 0,
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

/// Collection provider that serves only the rows surviving index
/// pre-filtering, fetched through [`access::fetch_rows`], which records
/// what each collection's fetch read into the run's stats.
struct FilteredProvider<'a> {
    catalog: &'a Catalog,
    filters: &'a Survivors,
    stats: RefCell<&'a mut ExecStats>,
    /// The sources whose call may run more than once.
    repeated: &'a BTreeSet<String>,
    /// Their sequences, fetched on the first call: a later call (a
    /// collection bound inside a FLWOR loop is called once per outer item)
    /// returns the same nodes without reading a row again. A source called
    /// once is not kept, so its documents go as soon as evaluation drops
    /// them.
    fetched: RefCell<HashMap<String, Sequence>>,
}

impl CollectionProvider for FilteredProvider<'_> {
    fn xmlcolumn(&self, name: &str) -> Result<Sequence, XdmError> {
        let key = name.to_ascii_uppercase();
        if let Some(seq) = self.fetched.borrow().get(&key) {
            return Ok(seq.clone());
        }
        let (table, col) = self.catalog.db.resolve_xml_column(&key)?;
        let (filter, mask) = (self.filters.get(&key), table.column_mask(col));
        let stats = &mut self.stats.borrow_mut();
        let mut out = Vec::new();
        access::fetch_rows(&self.catalog.db, table, &key, filter, &mask, stats, |_, mut row| {
            if let Some(SqlValue::Xml(n)) = row.get_mut(col).and_then(Option::take) {
                out.push(Item::Node(n));
            }
            Ok(())
        })?;
        if self.repeated.contains(&key) {
            self.fetched.borrow_mut().insert(key, out.clone());
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

/// The sources whose `db2-fn:xmlcolumn('T.C')` call may run more than
/// once in one evaluation of `body`: a source named by two calls, or by a
/// call below a position evaluated per tuple or per item — a FLWOR clause
/// after the first and its `return`, a quantifier binding after the first
/// and its `satisfies`, a predicate, a path step.
pub(crate) fn repeated_sources(body: &Expr) -> BTreeSet<String> {
    let mut per_item: Vec<&Expr> = Vec::new();
    let mut named = BTreeSet::new();
    let mut out = BTreeSet::new();
    visit_exprs(body, &mut |e| match e {
        Expr::Flwor(fl) => {
            for c in fl.clauses.iter().skip(1) {
                match c {
                    FlworClause::For { expr, .. } | FlworClause::Let { expr, .. } => {
                        per_item.push(expr)
                    }
                    FlworClause::Where(e) => per_item.push(e),
                    FlworClause::OrderBy(specs) => per_item.extend(specs.iter().map(|s| &s.expr)),
                }
            }
            per_item.push(&fl.ret);
        }
        Expr::Quantified { bindings, satisfies, .. } => {
            per_item.extend(bindings.iter().skip(1).map(|(_, e)| e));
            per_item.push(satisfies);
        }
        Expr::Filter { predicates, .. } => per_item.extend(predicates),
        Expr::Path { steps, .. } => {
            for s in steps {
                match s {
                    Step::Axis { predicates, .. } => per_item.extend(predicates),
                    Step::Filter { expr, predicates } => {
                        per_item.push(expr);
                        per_item.extend(predicates);
                    }
                }
            }
        }
        _ => {
            if let Some(source) = xmlcolumn_literal(e) {
                if !named.insert(source.clone()) {
                    out.insert(source);
                }
            }
        }
    });
    for e in per_item {
        visit_exprs(e, &mut |x| out.extend(xmlcolumn_literal(x)));
    }
    out
}

/// Pre-order visit of every sub-expression, including step predicates,
/// filter-step expressions and constructor content. The single generic
/// walker, so new `Expr` variants fail compilation here instead of
/// silently escaping one of several hand-rolled traversals.
pub(crate) fn visit_exprs<'e>(expr: &'e Expr, f: &mut impl FnMut(&'e Expr)) {
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

fn visit_direct<'e>(d: &'e xqdb_xquery::ast::DirectElement, f: &mut impl FnMut(&'e Expr)) {
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
