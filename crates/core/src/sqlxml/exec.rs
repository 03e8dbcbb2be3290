//! SQL/XML execution, with XML-index pre-filtering of base tables.
//!
//! Index planning hooks (the paper's Section 3.2):
//!
//! * `XMLEXISTS` conjuncts in WHERE whose PASSING arguments come from a
//!   single base table are walked as filtering bodies — they eliminate
//!   rows, so their predicates are index-eligible;
//! * the `XMLTABLE` **row producer** likewise (an empty row set eliminates
//!   the outer row — the inner-join semantics of the lateral call);
//! * `XMLQUERY` select-list items and `XMLTABLE` column expressions are
//!   walked as diagnostics only: their predicates never eliminate rows, so
//!   candidates found there surface as EXPLAIN notes (Queries 5 and 12),
//!   never as index probes.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};

use xqdb_obs::{Counter, Obs, Trace};
use xqdb_xdm::compare::CompareOp;
use xqdb_xdm::{cast, AtomicType, AtomicValue, ErrorCode, ExpandedName, Item, Sequence, XdmError};
use xqdb_xqeval::{eval_query, DynamicContext};
use xqdb_xquery::Query;
use xqdb_storage::{sql_compare, SqlType, SqlValue, Table};

use crate::access::{self, AccessConfig, AccessPaths, ScalarPred, SourcePaths, Survivors};
use crate::catalog::Catalog;
use crate::durability::{open_durable_catalog, Durability, RecoveryReport};
use crate::eligibility::{
    compile, restrict_to_source, AnalysisEnv, Cond, IndexCond, Note, Rejection,
};
use crate::engine::{
    apply_physical_delta, record_exec_metrics, render_doctor_section, render_execution_sections,
    render_structure_sections, ExecStats, Physical, PlanCost,
};
use crate::plancache::PlanCache;
use crate::prefilter::SourcePrefilter;
use crate::twig::SourceTwig;
use crate::walk::{walk, Body, Linear};

use super::ast::*;
use super::parser::parse_sql;

/// A runtime SQL value (extends stored values with XML *sequences*, which
/// `XMLQUERY` produces).
#[derive(Debug, Clone)]
pub enum Scalar {
    /// SQL NULL.
    Null,
    /// INTEGER.
    Integer(i64),
    /// DOUBLE / DECIMAL.
    Double(f64),
    /// VARCHAR.
    Varchar(String),
    /// DATE.
    Date(xqdb_xdm::Date),
    /// TIMESTAMP.
    Timestamp(xqdb_xdm::DateTime),
    /// An XML value — an XDM sequence.
    Xml(Sequence),
}

impl Scalar {
    /// Render for display, following the paper's output conventions
    /// (an empty XML sequence prints as `()`).
    pub fn render(&self) -> String {
        match self {
            Scalar::Null => "NULL".into(),
            Scalar::Integer(i) => i.to_string(),
            Scalar::Double(d) => d.to_string(),
            Scalar::Varchar(s) => s.clone(),
            Scalar::Date(d) => d.to_string(),
            Scalar::Timestamp(t) => t.to_string(),
            Scalar::Xml(seq) if seq.is_empty() => "()".into(),
            Scalar::Xml(seq) => xqdb_xmlparse::serialize_sequence(seq),
        }
    }

    fn from_stored(v: &SqlValue) -> Scalar {
        match v {
            SqlValue::Null => Scalar::Null,
            SqlValue::Integer(i) => Scalar::Integer(*i),
            SqlValue::Double(d) => Scalar::Double(*d),
            SqlValue::Varchar(s) => Scalar::Varchar(s.clone()),
            SqlValue::Date(d) => Scalar::Date(*d),
            SqlValue::Timestamp(t) => Scalar::Timestamp(*t),
            SqlValue::Xml(n) => Scalar::Xml(vec![Item::Node(n.clone())]),
        }
    }

    /// Convert to an XDM sequence for a PASSING binding. SQL typed values
    /// become typed atomics (so `$pid` inherits `xs:string` from a VARCHAR
    /// column — the paper's Query 13 note).
    fn to_sequence(&self) -> Result<Sequence, XdmError> {
        Ok(match self {
            Scalar::Null => vec![],
            Scalar::Integer(i) => vec![Item::Atomic(AtomicValue::Integer(*i))],
            Scalar::Double(d) => vec![Item::Atomic(AtomicValue::Double(*d))],
            Scalar::Varchar(s) => vec![Item::Atomic(AtomicValue::String(s.clone()))],
            Scalar::Date(d) => vec![Item::Atomic(AtomicValue::Date(*d))],
            Scalar::Timestamp(t) => vec![Item::Atomic(AtomicValue::DateTime(*t))],
            Scalar::Xml(seq) => seq.clone(),
        })
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Result of executing one SQL statement.
#[derive(Debug, Default)]
pub struct SqlResult {
    /// Column names (empty for DDL).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Scalar>>,
    /// DDL/DML confirmation or EXPLAIN text.
    pub message: Option<String>,
    /// Execution statistics (index effort, rows scanned).
    pub stats: ExecStats,
    /// The query trace (disabled unless the session's [`Obs`] traces).
    pub trace: Trace,
}

impl SqlResult {
    /// Render rows the way the paper prints them (`row 1: ...`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(m) = &self.message {
            out.push_str(m);
            out.push('\n');
        }
        for (i, row) in self.rows.iter().enumerate() {
            let vals: Vec<String> = row.iter().map(Scalar::render).collect();
            out.push_str(&format!("row {}: {}\n", i + 1, vals.join(" | ")));
        }
        out
    }
}

/// A SQL/XML session: a catalog plus statement execution.
#[derive(Debug)]
pub struct SqlSession {
    /// The underlying catalog.
    pub catalog: Catalog,
    /// Limits applied when INSERT parses document text (XMLPARSE).
    pub parse_limits: xqdb_xmlparse::ParseLimits,
    /// Observability handle shared by every statement of the session.
    pub obs: Obs,
    /// The access-path switches every statement runs under (all on by
    /// default).
    pub access: AccessConfig,
    /// The durability layer, when the session is backed by a data
    /// directory (see [`SqlSession::open_durable`]).
    durability: Option<Arc<Durability>>,
    /// LRU cache of parsed + planned SELECT statements, keyed by the raw
    /// statement text plus the cost mode and invalidated by the
    /// catalog's plan epoch (DDL + statistics clocks).
    stmt_cache: Mutex<PlanCache<CachedSql>>,
}

impl Default for SqlSession {
    fn default() -> Self {
        SqlSession {
            catalog: Catalog::default(),
            parse_limits: xqdb_xmlparse::ParseLimits::default(),
            obs: Obs::default(),
            access: AccessConfig::default(),
            durability: None,
            stmt_cache: Mutex::new(PlanCache::default()),
        }
    }
}

/// A cached SELECT-family statement: the parsed AST plus its compiled plan
/// (access paths, notes, pre-filters). A cache hit replays both without
/// touching the parser or the eligibility analyzer.
#[derive(Debug)]
struct CachedSql {
    stmt: SqlStmt,
    plan: Arc<SqlPlan>,
}

impl SqlSession {
    /// Fresh session. In-memory by default; when `XQDB_DATA_DIR` is set in
    /// the environment the session transparently becomes durable in a
    /// unique subdirectory (fsync mode from `XQDB_FSYNC`, default `off` —
    /// the fast mode, fitting the test-harness use this hook exists for).
    /// Any failure to attach falls back to in-memory silently: an env
    /// knob must not break programs that never asked for durability.
    pub fn new() -> Self {
        Self::from_env().unwrap_or_default()
    }

    /// In-memory session over an already-populated catalog (benches and
    /// tools build the catalog directly, then want SQL over it). Never
    /// durable, regardless of environment.
    pub fn from_catalog(catalog: Catalog) -> Self {
        SqlSession { catalog, ..SqlSession::default() }
    }

    fn from_env() -> Option<SqlSession> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let base = std::env::var("XQDB_DATA_DIR").ok()?;
        if base.trim().is_empty() {
            return None;
        }
        let fsync = std::env::var("XQDB_FSYNC")
            .ok()
            .and_then(|s| xqdb_wal::FsyncMode::parse(&s))
            .unwrap_or(xqdb_wal::FsyncMode::Off);
        let dir = Path::new(&base).join(format!(
            "session-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let config = xqdb_wal::WalConfig { fsync, ..Default::default() };
        SqlSession::open_durable(&dir, config).ok().map(|(s, _)| s)
    }

    /// Open a data directory as a durable session: recover whatever state
    /// is there (tables, rows, indexes — the latter rebuilt by back-fill),
    /// then log every further mutation write-ahead. Returns the session
    /// and a report of what recovery found.
    pub fn open_durable(
        dir: &Path,
        config: xqdb_wal::WalConfig,
    ) -> Result<(SqlSession, RecoveryReport), XdmError> {
        let mut session = SqlSession::default();
        let (catalog, durability, report) = open_durable_catalog(
            dir,
            config,
            &session.obs.trace(),
            &session.obs,
        )?;
        session.catalog = catalog;
        session.durability = Some(durability);
        Ok((session, report))
    }

    /// The durability layer, when this session has one.
    pub fn durability(&self) -> Option<&Arc<Durability>> {
        self.durability.as_ref()
    }

    /// Checkpoint a durable session: reclaim tombstones, flush and freeze
    /// pages, write the manifest and prune the log it covers. `Ok(None)`
    /// for in-memory sessions.
    pub fn checkpoint(&mut self) -> Result<Option<u64>, XdmError> {
        match &self.durability {
            Some(d) => Arc::clone(d).checkpoint(&mut self.catalog).map(Some),
            None => Ok(None),
        }
    }

    /// Install one observability handle on the session, its catalog and
    /// its durability layer, so statement execution, index maintenance and
    /// WAL appends record into one registry.
    pub fn set_obs(&mut self, obs: Obs) {
        self.catalog.obs = obs.clone();
        if let Some(d) = &self.durability {
            d.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Execute one SQL statement with no resource limits — the interactive
    /// single-session default.
    pub fn execute(&mut self, sql: &str) -> Result<SqlResult, XdmError> {
        self.execute_with_limits(sql, &xqdb_xdm::Limits::unlimited())
    }

    /// Does this statement mutate the catalog? The server routes writes
    /// through the session's exclusive write path and everything else
    /// through the shared read path, so the classifier is deliberately a
    /// leading-keyword check over the closed statement grammar (`CREATE
    /// TABLE`, `CREATE INDEX`, `INSERT`, `DELETE`, `UPDATE`, and `EXPLAIN
    /// ANALYZE` over a DML statement); anything unrecognized is treated
    /// as a read and rejected by the parser with a typed error.
    pub fn is_write_statement(sql: &str) -> bool {
        let mut words = sql.split_whitespace();
        let first = words.next().unwrap_or("");
        if first.eq_ignore_ascii_case("create")
            || first.eq_ignore_ascii_case("insert")
            || first.eq_ignore_ascii_case("delete")
            || first.eq_ignore_ascii_case("update")
        {
            return true;
        }
        // `EXPLAIN ANALYZE DELETE|UPDATE` executes the DML it reports on.
        first.eq_ignore_ascii_case("explain")
            && words.next().is_some_and(|w| w.eq_ignore_ascii_case("analyze"))
            && words.next().is_some_and(|w| {
                w.eq_ignore_ascii_case("delete") || w.eq_ignore_ascii_case("update")
            })
    }

    /// Execute one SQL statement under the given resource limits. The
    /// limits become the statement's [`xqdb_xdm::Budget`]: a deadline
    /// cancels mid-evaluation at the next budget checkpoint, a step cap
    /// bounds total work.
    pub fn execute_with_limits(
        &mut self,
        sql: &str,
        limits: &xqdb_xdm::Limits,
    ) -> Result<SqlResult, XdmError> {
        if !Self::is_write_statement(sql) {
            return self.execute_read(sql, limits);
        }
        self.obs.incr(Counter::SqlStatements);
        let stmt = parse_sql(sql)
            .map_err(|e| XdmError::new(ErrorCode::XPST0003, e.to_string()))?;
        match stmt {
            SqlStmt::CreateTable { name, columns } => {
                let cols = columns
                    .into_iter()
                    .map(|(n, t)| xqdb_storage::Column::new(n, t))
                    .collect();
                self.catalog.create_table(xqdb_storage::Table::new(&name, cols))?;
                Ok(SqlResult {
                    message: Some(format!("table {name} created")),
                    ..Default::default()
                })
            }
            SqlStmt::CreateIndex { name, table, column, pattern, ty } => {
                self.catalog.create_index(&name, &table, &column, &pattern, &ty)?;
                Ok(SqlResult {
                    message: Some(format!("index {name} created")),
                    ..Default::default()
                })
            }
            SqlStmt::Insert { table, values } => {
                let row = self.eval_insert_row(&table, values)?;
                self.catalog.insert(&table, row)?;
                Ok(SqlResult { message: Some("1 row inserted".into()), ..Default::default() })
            }
            stmt @ (SqlStmt::Delete { .. } | SqlStmt::Update { .. }) => {
                let trace = self.obs.trace();
                self.run_dml(&stmt, limits, &trace)
            }
            SqlStmt::ExplainAnalyzeDml(inner) => {
                let trace = Trace::recording();
                let result = self.run_dml(&inner, limits, &trace)?;
                let mut report = String::from("SQL/XML DML\n");
                report.push_str(&format!("  statement: {}\n", dml_headline(&inner)));
                render_execution_sections(&mut report, &result.stats, &trace);
                // The shared COUNTERS section prints the dml line only when
                // non-zero; a DML report must always carry one.
                let s = &result.stats;
                if s.rows_deleted == 0 && s.docs_replaced == 0 && s.tombstones_reclaimed == 0 {
                    report.push_str(&crate::engine::render_dml_line(s));
                }
                report.push_str(&format!(
                    "-- executed: {}\n",
                    result.message.as_deref().unwrap_or("0 row(s)")
                ));
                Ok(SqlResult { message: Some(report), stats: result.stats, ..Default::default() })
            }
            // is_write_statement admits only the arms above.
            _ => Err(XdmError::internal("write classifier admitted a read statement")),
        }
    }

    /// Execute a DELETE or UPDATE: resolve the WHERE clause over the
    /// target table exactly as a SELECT would (three-valued logic; only
    /// rows where it is TRUE match), then apply the mutation through the
    /// catalog so every derived structure — indexes, synopsis, signatures,
    /// label streams — is maintained incrementally and the change is
    /// logged write-ahead (DELETE batches all matching rows into one WAL
    /// record; UPDATE logs one replace per row).
    fn run_dml(
        &mut self,
        stmt: &SqlStmt,
        limits: &xqdb_xdm::Limits,
        trace: &Trace,
    ) -> Result<SqlResult, XdmError> {
        let budget = Arc::new(xqdb_xdm::Budget::new(limits.clone()));
        let (table, where_cond) = match stmt {
            SqlStmt::Delete { table, where_cond } => (table, where_cond),
            SqlStmt::Update { table, where_cond, .. } => (table, where_cond),
            other => {
                return Err(XdmError::internal(format!("run_dml on non-DML {other:?}")))
            }
        };
        let baseline = Physical::now(&self.catalog);
        let (rowids, mut stats) = self.dml_matching_rows(table, where_cond, trace, &budget)?;
        let message = match stmt {
            SqlStmt::Delete { .. } => {
                let mut span = trace.span("delete");
                let n = if rowids.is_empty() {
                    0 // no matches: nothing to log, nothing to apply
                } else {
                    self.catalog.delete(table, &rowids)?
                };
                span.add_count(n);
                stats.rows_deleted = n;
                format!("{n} row(s) deleted")
            }
            SqlStmt::Update { set, .. } => {
                let mut span = trace.span("replace");
                let mut n = 0u64;
                for &rid in &rowids {
                    // Matching decoded only the WHERE columns; SET and the
                    // index maintenance need the whole old row.
                    let old = self.table(table)?.row(rid as usize)?.ok_or_else(|| {
                        XdmError::internal(format!("UPDATE {table}: matched row {rid} vanished"))
                    })?;
                    let row = self.eval_update_row(table, set, rid, &old, &budget)?;
                    self.catalog.replace_decoded(table, rid, &old, row)?;
                    n += 1;
                }
                span.add_count(n);
                stats.docs_replaced = n;
                format!("{n} row(s) updated")
            }
            _ => unreachable!(),
        };
        apply_physical_delta(&mut stats, &self.catalog, &baseline);
        record_exec_metrics(&self.obs, &stats);
        Ok(SqlResult { message: Some(message), stats, trace: trace.clone(), ..Default::default() })
    }

    /// The rowids of `table` whose WHERE evaluation is TRUE, in row order,
    /// plus the matching run's stats. `None` matches every live row (SQL
    /// semantics of a missing WHERE). The WHERE is planned like a
    /// single-table SELECT's, so only the access pipeline's survivors are
    /// fetched, and of each only the columns the WHERE names are decoded;
    /// the whole condition is then evaluated on each of them.
    fn dml_matching_rows(
        &self,
        table: &str,
        where_cond: &Option<SqlCond>,
        trace: &Trace,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<(Vec<u64>, ExecStats), XdmError> {
        let t = self.table(table)?;
        let sel = SelectStmt {
            items: Vec::new(),
            from: vec![FromItem::Table { name: t.name.clone(), alias: t.name.clone() }],
            where_cond: where_cond.clone(),
        };
        let plan = self.plan_select_traced(&sel, trace)?;
        let mut stats = ExecStats::for_plan(&plan.cost);
        let filters = self.survivors(&plan, trace, budget, &mut stats)?;
        let mut span = trace.span("scan");
        stats.docs_total.insert(t.name.clone(), t.live_len());
        let parsed_before = self.catalog.db.xml_docs_parsed();
        let mut fetched = 0usize;
        let mut out = Vec::new();
        for row in access::fetch(filters.get(&t.name), t, plan.mask(&t.name)) {
            let (rid, values) = row?;
            fetched += 1;
            let pass = match where_cond {
                None => true,
                Some(cond) => {
                    let ctx = RowCtx::default().with_row(&t.name, t, &values);
                    self.eval_cond(cond, &ctx, budget)? == Some(true)
                }
            };
            if pass {
                out.push(rid);
            }
        }
        stats.docs_evaluated.insert(t.name.clone(), fetched);
        span.add_count(out.len() as u64);
        // The statement's stats count the mutation's own row reads too;
        // the span says what matching alone parsed.
        span.tag_with("xml docs parsed", || {
            (self.catalog.db.xml_docs_parsed() - parsed_before).to_string()
        });
        Ok((out, stats))
    }

    /// Build the replacement row for one UPDATE target: unlisted columns
    /// carry over from the old row, listed columns take their SET
    /// expression evaluated against the *old* row (so `SET a = b` reads
    /// the pre-update value, per SQL). Strings assigned to XML columns are
    /// parsed as documents (XMLPARSE), mirroring INSERT.
    fn eval_update_row(
        &self,
        table: &str,
        set: &[(String, SqlExpr)],
        rowid: u64,
        old: &[SqlValue],
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<Vec<SqlValue>, XdmError> {
        let t = self.table(table)?;
        let cells: Vec<Option<SqlValue>> = old.iter().cloned().map(Some).collect();
        let ctx = RowCtx::default().with_row(&t.name, t, &cells);
        let mut row = old.to_vec();
        for (col, expr) in set {
            let upper = col.to_ascii_uppercase();
            let ci = t.column_index(&upper).ok_or_else(|| {
                XdmError::new(
                    ErrorCode::SqlType,
                    format!("UPDATE {}: unknown column {upper} (row {rowid})", t.name),
                )
            })?;
            let ty = &t.columns[ci].ty;
            row[ci] = match (expr, ty) {
                // String literal into an XML column: XMLPARSE, as INSERT.
                (SqlExpr::Varchar(s), SqlType::Xml) => self.xmlparse(s)?,
                (SqlExpr::Varchar(s), SqlType::Date) => {
                    SqlValue::Date(xqdb_xdm::Date::parse(s)?)
                }
                (SqlExpr::Varchar(s), SqlType::Timestamp) => {
                    SqlValue::Timestamp(xqdb_xdm::DateTime::parse(s)?)
                }
                (expr, ty) => {
                    let v = self.eval_expr(expr, &ctx, budget)?;
                    scalar_to_stored(&v, ty)?
                }
            };
        }
        Ok(row)
    }

    /// Execute a read-only (SELECT-family) statement through `&self`: many
    /// server sessions run these concurrently under a shared read lock
    /// while writes serialize through [`SqlSession::execute_with_limits`].
    /// Write statements are rejected with a typed error rather than
    /// executed.
    pub fn execute_read(
        &self,
        sql: &str,
        limits: &xqdb_xdm::Limits,
    ) -> Result<SqlResult, XdmError> {
        self.obs.incr(Counter::SqlStatements);
        let budget = Arc::new(xqdb_xdm::Budget::new(limits.clone()));
        let result = self.execute_read_budgeted(sql, &budget);
        if let Err(e) = &result {
            match e.code {
                ErrorCode::ResourceExhausted => self.obs.incr(Counter::BudgetExhaustions),
                ErrorCode::Cancelled => self.obs.incr(Counter::QueriesCancelled),
                _ => {}
            }
        }
        result
    }

    fn execute_read_budgeted(
        &self,
        sql: &str,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<SqlResult, XdmError> {
        // Statement cache: SELECT-family statements are cached (parsed AST +
        // compiled plan) keyed by the raw statement text plus the cost
        // mode (a costed and a rule-based plan are different plans),
        // invalidated by the catalog's plan epoch (DDL clock +
        // statistics-drift clock). A hit replays the stored plan with
        // zero parse or planning work. The epoch is read from the
        // *shared* catalog, so a DDL — or heavy DML drift — committed by
        // any other session of a server invalidates this session's
        // cached plans on the next lookup.
        let key = self.access.plan_key(sql);
        let epoch = self.catalog.plan_epoch();
        let cached = match self.stmt_cache.lock() {
            Ok(mut cache) => cache.get(&key, epoch),
            Err(_) => None,
        };
        if let Some(entry) = cached {
            self.obs.incr(Counter::PlanCacheHits);
            return match &entry.stmt {
                SqlStmt::Select(sel) => {
                    let trace = self.obs.trace();
                    self.run_select_planned(sel, &entry.plan, true, &trace, budget)
                }
                SqlStmt::Explain(_) => Ok(SqlResult {
                    message: Some(render_plan(&entry.plan)),
                    ..Default::default()
                }),
                SqlStmt::ExplainAnalyze(sel) => {
                    let trace = Trace::recording();
                    self.explain_analyze_planned(sel, &entry.plan, true, &trace, budget)
                }
                // Only SELECT-family statements are ever inserted.
                _ => Err(XdmError::internal(
                    "non-SELECT statement in plan cache".to_string(),
                )),
            };
        }
        let stmt = parse_sql(sql)
            .map_err(|e| XdmError::new(ErrorCode::XPST0003, e.to_string()))?;
        match stmt {
            SqlStmt::Values(exprs) => {
                let empty = RowCtx::default();
                let mut row = Vec::new();
                for e in exprs {
                    row.push(self.eval_expr(&e, &empty, budget)?);
                }
                Ok(SqlResult {
                    columns: (1..=row.len()).map(|i| format!("C{i}")).collect(),
                    rows: vec![row],
                    ..Default::default()
                })
            }
            SqlStmt::Select(sel) => {
                self.obs.incr(Counter::PlanCacheMisses);
                let trace = self.obs.trace();
                let plan = self.plan_select_traced(&sel, &trace)?;
                let result = self.run_select_planned(&sel, &plan, false, &trace, budget)?;
                self.cache_stmt(&key, SqlStmt::Select(sel), plan);
                Ok(result)
            }
            SqlStmt::Explain(sel) => {
                self.obs.incr(Counter::PlanCacheMisses);
                let plan = Arc::new(self.plan_select(&sel)?);
                let message = render_plan(&plan);
                self.cache_stmt(&key, SqlStmt::Explain(sel), plan);
                Ok(SqlResult { message: Some(message), ..Default::default() })
            }
            SqlStmt::ExplainAnalyze(sel) => {
                self.obs.incr(Counter::PlanCacheMisses);
                let trace = Trace::recording();
                let plan = self.plan_select_traced(&sel, &trace)?;
                let result = self.explain_analyze_planned(&sel, &plan, false, &trace, budget)?;
                self.cache_stmt(&key, SqlStmt::ExplainAnalyze(sel), plan);
                Ok(result)
            }
            SqlStmt::CreateTable { .. }
            | SqlStmt::CreateIndex { .. }
            | SqlStmt::Insert { .. }
            | SqlStmt::Delete { .. }
            | SqlStmt::Update { .. }
            | SqlStmt::ExplainAnalyzeDml(_) => Err(XdmError::new(
                ErrorCode::SqlType,
                "write statement in a read-only execution context",
            )),
        }
    }

    /// Store a SELECT-family statement in the statement cache under the
    /// current plan epoch (DDL + statistics clocks). `key` is the raw
    /// statement text, prefixed by the caller when cost is off.
    fn cache_stmt(&self, key: &str, stmt: SqlStmt, plan: Arc<SqlPlan>) {
        let epoch = self.catalog.plan_epoch();
        if let Ok(mut cache) = self.stmt_cache.lock() {
            cache.insert(key.to_string(), Arc::new(CachedSql { stmt, plan }), epoch);
        }
    }

    /// `EXPLAIN ANALYZE SELECT ...`: run the statement with tracing forced
    /// on, then report the plan annotated with actual per-stage timings,
    /// the execution counters (verbatim from the run's [`ExecStats`]), and
    /// the query doctor's diagnoses. The result rows are discarded — the
    /// report is the result.
    fn explain_analyze_planned(
        &self,
        sel: &SelectStmt,
        plan: &SqlPlan,
        cache_hit: bool,
        trace: &Trace,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<SqlResult, XdmError> {
        let result = self.run_select_planned(sel, plan, cache_hit, trace, budget)?;
        let mut report = render_plan(plan);
        render_execution_sections(&mut report, &result.stats, trace);
        render_doctor_section(&mut report, &plan.rejections, &plan.notes, &result.stats);
        report.push_str(&format!("-- executed: {} row(s) produced\n", result.rows.len()));
        Ok(SqlResult { message: Some(report), stats: result.stats, ..Default::default() })
    }

    /// The named table, or a typed "unknown table" error.
    fn table(&self, name: &str) -> Result<&Table, XdmError> {
        self.catalog.db.table(name).ok_or_else(|| {
            XdmError::new(ErrorCode::SqlType, format!("unknown table {name:?}"))
        })
    }

    /// XMLPARSE under the session's parse limits: a document value, or a
    /// typed parse (or parse-limit) error.
    fn xmlparse(&self, text: &str) -> Result<SqlValue, XdmError> {
        let doc = xqdb_xmlparse::parse_document_with(text, &self.parse_limits).map_err(|pe| {
            let code = if pe.limit_exceeded { ErrorCode::ParseLimit } else { ErrorCode::XPST0003 };
            XdmError::new(code, format!("XMLPARSE: {pe}"))
        })?;
        Ok(SqlValue::Xml(doc.root()))
    }

    /// INSERT values: strings targeting XML columns are parsed as XML.
    fn eval_insert_row(
        &self,
        table: &str,
        values: Vec<SqlExpr>,
    ) -> Result<Vec<SqlValue>, XdmError> {
        let t = self.table(table)?;
        let mut out = Vec::with_capacity(values.len());
        for (i, e) in values.into_iter().enumerate() {
            let target = t.columns.get(i).map(|c| &c.ty);
            let v = match (e, target) {
                (SqlExpr::Varchar(s), Some(SqlType::Xml)) => self.xmlparse(&s)?,
                (SqlExpr::Varchar(s), Some(SqlType::Date)) => {
                    SqlValue::Date(xqdb_xdm::Date::parse(&s)?)
                }
                (SqlExpr::Varchar(s), Some(SqlType::Timestamp)) => {
                    SqlValue::Timestamp(xqdb_xdm::DateTime::parse(&s)?)
                }
                (SqlExpr::Varchar(s), _) => SqlValue::Varchar(s),
                (SqlExpr::Integer(i), _) => SqlValue::Integer(i),
                (SqlExpr::Double(d), _) => SqlValue::Double(d),
                (SqlExpr::Null, _) => SqlValue::Null,
                (other, _) => {
                    return Err(XdmError::new(
                        ErrorCode::SqlType,
                        format!("unsupported INSERT expression {other:?}"),
                    ))
                }
            };
            out.push(v);
        }
        Ok(out)
    }

    // ------------------------------------------------------------- planning

    fn plan_select(&self, sel: &SelectStmt) -> Result<SqlPlan, XdmError> {
        let mut plan = SqlPlan::default();
        // Map alias → table, and each table to the columns its fetches
        // decode.
        let read = read_columns(sel);
        for item in &sel.from {
            if let FromItem::Table { name, alias } = item {
                let t = self.table(name)?;
                plan.tables.insert(alias.clone(), t.name.clone());
                let mask = t
                    .columns
                    .iter()
                    .map(|c| read.as_ref().is_none_or(|names| names.contains(&c.name)))
                    .collect();
                plan.masks.insert(t.name.clone(), mask);
            }
        }
        // Walk XMLEXISTS conjuncts; keep the scalar ones the scalar filter
        // can decide.
        if let Some(cond) = &sel.where_cond {
            let mut conjuncts = Vec::new();
            flatten_and(cond, &mut conjuncts);
            for c in conjuncts {
                match c {
                    SqlCond::XmlExists { query, passing } => {
                        let env = self.passing_env(passing, &plan.tables);
                        plan_xquery_filter(query, &env, &mut plan);
                    }
                    SqlCond::Cmp(op, a, b) => {
                        if let Some((table, pred)) = self.scalar_pred(*op, a, b, sel) {
                            plan.scalars.entry(table).or_default().push(pred);
                        }
                    }
                    _ => {}
                }
            }
        }
        // Walk XMLTABLE row producers, then their columns with each row as
        // the context item.
        for item in &sel.from {
            if let FromItem::XmlTable { row_query, passing, columns, .. } = item {
                let env = self.passing_env(passing, &plan.tables);
                let row = plan_xquery_filter(row_query, &env, &mut plan);
                for col in columns {
                    let place = "XMLTABLE column expression";
                    let at = Body::Diagnostic { place, ctx: row.as_ref() };
                    plan.notes.extend(walk(&col.path.body, &env, at).notes);
                }
            }
        }
        // XMLQUERY select-list items, for diagnostics.
        for item in &sel.items {
            if let SelectItem::Expr { expr: SqlExpr::XmlQuery { query, passing }, .. } = item {
                let env = self.passing_env(passing, &plan.tables);
                let at = Body::Diagnostic { place: "XMLQUERY select list", ctx: None };
                plan.notes.extend(walk(&query.body, &env, at).notes);
            }
        }
        // Compile per-source access conditions, costed against the table's
        // synopsis statistics when the session allows it.
        // Sources are visited in sorted order so cost notes and candidate
        // tallies are deterministic across runs.
        let use_cost = self.access.cost;
        let mut all_conds: Vec<_> = plan.conds.clone().into_iter().collect();
        all_conds.sort_by(|a, b| a.0.cmp(&b.0));
        for (source, conds) in all_conds {
            let cond = Cond::And(conds);
            let restricted = restrict_to_source(&cond, &source);
            let indexes = self.catalog.indexes_for_source(&source);
            let model = if use_cost { self.catalog.cost_model_for(&source) } else { None };
            let compiled = compile(&restricted, &indexes, model.as_ref());
            plan.rejections.extend(compiled.rejections);
            if compiled.candidates_costed > 0 {
                plan.cost.costed = true;
                plan.cost.candidates += compiled.candidates_costed;
            }
            if let Some(est) = compiled.est_rows {
                *plan.cost.est_rows.get_or_insert(0) += est;
            }
            plan.cost.notes.extend(compiled.cost_notes);
            if let Some(access) = compiled.access {
                plan.accesses.insert(source, access);
            }
        }
        Ok(plan)
    }

    /// The scalar-filter form of the conjunct `a op b`, with the table it
    /// narrows, when the filter decides it exactly: one operand a column,
    /// the other an INTEGER or DOUBLE literal (`literal op column` is
    /// mirrored), `op` one of `=`, `<`, `<=`, `>`, `>=`, and the column an
    /// INTEGER column of exactly one FROM item — a base table that appears
    /// once in FROM. Anything else (an ambiguous or unknown column, a
    /// self-join, an XMLTABLE column, another literal type) is left to the
    /// WHERE evaluation, which also raises its errors.
    fn scalar_pred(
        &self,
        op: CompareOp,
        a: &SqlExpr,
        b: &SqlExpr,
        sel: &SelectStmt,
    ) -> Option<(String, ScalarPred)> {
        let (column, literal, op) = match (a, b) {
            (SqlExpr::Column { .. }, lit) => (a, lit, op),
            (lit, SqlExpr::Column { .. }) => (b, lit, op.flip()),
            _ => return None,
        };
        let SqlExpr::Column { qualifier, name } = column else { return None };
        let literal = match literal {
            SqlExpr::Integer(i) => SqlValue::Integer(*i),
            SqlExpr::Double(d) => SqlValue::Double(*d),
            _ => return None,
        };
        if op == CompareOp::Ne {
            return None;
        }
        // Every FROM item the reference could resolve to, as the WHERE
        // evaluation resolves it (`RowCtx::lookup`).
        let mut providers = sel.from.iter().filter(|item| match (item, qualifier) {
            (FromItem::Table { alias, .. }, Some(q)) => alias.eq_ignore_ascii_case(q),
            (FromItem::XmlTable { alias, .. }, Some(q)) => alias.eq_ignore_ascii_case(q),
            (FromItem::Table { name: t, .. }, None) => {
                self.table(t).is_ok_and(|t| t.column_index(name).is_some())
            }
            (FromItem::XmlTable { columns, column_aliases, .. }, None) => columns
                .iter()
                .map(|c| &c.name)
                .chain(column_aliases)
                .any(|c| c.eq_ignore_ascii_case(name)),
        });
        let (Some(FromItem::Table { name: table, .. }), None) = (providers.next(), providers.next())
        else {
            return None;
        };
        let t = self.table(table).ok()?;
        let is_t = |item: &&FromItem| {
            matches!(item, FromItem::Table { name, .. } if name.eq_ignore_ascii_case(&t.name))
        };
        let joined_once = sel.from.iter().filter(is_t).count() == 1;
        let col = t.column_index(name)?;
        if !joined_once || !matches!(t.columns[col].ty, SqlType::Integer) {
            return None;
        }
        let column = format!("{}.{}", t.name, t.columns[col].name);
        Some((t.name.clone(), ScalarPred { column, col, op, literal }))
    }

    /// Build an analysis env for a PASSING clause: variables bound to a
    /// table's XML column become document sources.
    fn passing_env(
        &self,
        passing: &[(String, SqlExpr)],
        tables: &HashMap<String, String>,
    ) -> AnalysisEnv {
        let mut env = AnalysisEnv::new();
        for (var, expr) in passing {
            if let SqlExpr::Column { qualifier, name } = expr {
                let table = match qualifier {
                    Some(q) => tables.get(q).cloned(),
                    None => {
                        // Unqualified: unique table holding that column.
                        let mut found = None;
                        for t in tables.values() {
                            if let Some(tt) = self.catalog.db.table(t) {
                                if tt.column_index(name).is_some() {
                                    found = Some(t.clone());
                                    break;
                                }
                            }
                        }
                        found
                    }
                };
                if let Some(tname) = table {
                    env.bind_docs(
                        ExpandedName::local(var.as_str()),
                        format!("{}.{}", tname, name.to_ascii_uppercase()),
                    );
                }
            }
        }
        env
    }

    // ------------------------------------------------------------ execution

    /// Compile a SELECT under a "plan" span.
    fn plan_select_traced(
        &self,
        sel: &SelectStmt,
        trace: &Trace,
    ) -> Result<Arc<SqlPlan>, XdmError> {
        let mut span = trace.span("plan");
        let plan = self.plan_select(sel)?;
        span.add_count(plan.accesses.len() as u64);
        Ok(Arc::new(plan))
    }

    /// Run the access pipeline over every source the plan narrows, in
    /// source order. Survivors are keyed by table: a row passes only if
    /// every filtering conjunct over any of its columns does. A table's
    /// scalar conjuncts form one source of their own, named by the table.
    fn survivors(
        &self,
        plan: &SqlPlan,
        trace: &Trace,
        budget: &xqdb_xdm::Budget,
        stats: &mut ExecStats,
    ) -> Result<Survivors, XdmError> {
        let sources: BTreeSet<&String> = plan
            .accesses
            .keys()
            .chain(plan.twigs.keys())
            .chain(plan.prefilters.keys())
            .chain(plan.scalars.keys())
            .collect();
        let sources: Vec<SourcePaths<'_>> = sources
            .into_iter()
            .map(|source| SourcePaths {
                source,
                key: source.split('.').next().unwrap_or(""),
                index: plan.accesses.get(source),
                twigs: plan.twigs.get(source).map_or(&[], Vec::as_slice),
                prefilters: plan.prefilters.get(source).map_or(&[], Vec::as_slice),
                scalars: plan.scalars.get(source).map_or(&[], Vec::as_slice),
            })
            .collect();
        let paths = AccessPaths { catalog: &self.catalog, config: self.access, obs: &self.obs, trace };
        paths.survivors(&sources, budget, stats)
    }

    /// Execute a SELECT against an already-compiled plan. `cache_hit`
    /// records whether the plan came from the statement cache (the matching
    /// counter was incremented by the caller).
    fn run_select_planned(
        &self,
        sel: &SelectStmt,
        plan: &SqlPlan,
        cache_hit: bool,
        trace: &Trace,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<SqlResult, XdmError> {
        let mut stats = ExecStats::for_plan(&plan.cost);
        stats.plan_cache_hits = u64::from(cache_hit);
        stats.plan_cache_misses = u64::from(!cache_hit);
        let baseline = Physical::now(&self.catalog);
        let filters = self.survivors(plan, trace, budget, &mut stats)?;

        let mut scan_span = trace.span("scan");
        // Build the row stream via nested loops.
        let mut rows: Vec<RowCtx> = vec![RowCtx::default()];
        for item in &sel.from {
            let mut next = Vec::new();
            match item {
                FromItem::Table { name, alias } => {
                    let t = self.table(name)?;
                    stats.docs_total.insert(t.name.clone(), t.live_len());
                    // Survivors narrow a table under every alias, so a table
                    // joined with itself is fetched whole: a conjunct over
                    // one alias says nothing about the other's rows.
                    let joined_once = plan.tables.values().filter(|n| **n == t.name).count() == 1;
                    let filter = filters.get(&t.name).filter(|_| joined_once);
                    let mut fetched = 0usize;
                    for row in access::fetch(filter, t, plan.mask(&t.name)) {
                        let (_, values) = row?;
                        fetched += 1;
                        for base in &rows {
                            next.push(base.clone().with_row(alias, t, &values));
                        }
                    }
                    stats.docs_evaluated.insert(t.name.clone(), fetched);
                }
                FromItem::XmlTable { row_query, passing, columns, alias, column_aliases } => {
                    for base in &rows {
                        let produced = self.expand_xmltable(
                            row_query,
                            passing,
                            columns,
                            alias,
                            column_aliases,
                            base,
                            budget,
                        )?;
                        next.extend(produced);
                    }
                }
            }
            rows = next;
        }

        // WHERE.
        let mut kept = Vec::new();
        for ctx in rows {
            let pass = match &sel.where_cond {
                None => true,
                Some(c) => self.eval_cond(c, &ctx, budget)? == Some(true),
            };
            if pass {
                kept.push(ctx);
            }
        }
        scan_span.add_count(kept.len() as u64);
        drop(scan_span);

        // Projection.
        let mut project_span = trace.span("serialize");
        let mut columns = Vec::new();
        let mut out_rows = Vec::new();
        for (ri, ctx) in kept.iter().enumerate() {
            let mut row = Vec::new();
            for (ii, item) in sel.items.iter().enumerate() {
                match item {
                    SelectItem::Star => {
                        for key in &ctx.order {
                            if ri == 0 {
                                columns.push(key.1.clone());
                            }
                            row.push(
                                ctx.values
                                    .get(key)
                                    .cloned()
                                    .unwrap_or(Scalar::Null),
                            );
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        if ri == 0 {
                            columns.push(alias.clone().unwrap_or_else(|| default_name(expr, ii)));
                        }
                        row.push(self.eval_expr(expr, ctx, budget)?);
                    }
                }
            }
            out_rows.push(row);
        }
        if kept.is_empty() {
            // Still produce column headers.
            for (ii, item) in sel.items.iter().enumerate() {
                match item {
                    SelectItem::Star => {}
                    SelectItem::Expr { expr, alias } => {
                        columns.push(alias.clone().unwrap_or_else(|| default_name(expr, ii)));
                    }
                }
            }
        }
        project_span.add_count(out_rows.len() as u64);
        drop(project_span);
        apply_physical_delta(&mut stats, &self.catalog, &baseline);
        record_exec_metrics(&self.obs, &stats);
        Ok(SqlResult { columns, rows: out_rows, message: None, stats, trace: trace.clone() })
    }

    #[allow(clippy::too_many_arguments)]
    fn expand_xmltable(
        &self,
        row_query: &Query,
        passing: &[(String, SqlExpr)],
        columns: &[XmlTableColumn],
        alias: &str,
        column_aliases: &[String],
        base: &RowCtx,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<Vec<RowCtx>, XdmError> {
        let ctx = self.passing_context(passing, base, budget)?;
        let items = eval_query(row_query, &self.catalog.db, &ctx)?;
        let mut out = Vec::new();
        for item in items {
            let mut row = base.clone();
            for (ci, col) in columns.iter().enumerate() {
                let cname = column_aliases
                    .get(ci)
                    .cloned()
                    .unwrap_or_else(|| col.name.clone());
                let col_ctx = DynamicContext::with_variables(HashMap::new())
                    .with_budget(budget.clone())
                    .with_focus(item.clone(), 1, 1);
                let seq = eval_query(&col.path, &self.catalog.db, &col_ctx)?;
                let value = match &col.ty {
                    None => Scalar::Xml(seq),
                    Some(ty) => {
                        // Column expressions NULL on empty (Section 3.2:
                        // "the result value of the corresponding column is
                        // the NULL value").
                        if seq.is_empty() {
                            Scalar::Null
                        } else {
                            sequence_to_scalar(&seq, ty)?
                        }
                    }
                };
                row.values.insert((alias.to_string(), cname.clone()), value);
                row.order.push((alias.to_string(), cname));
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Evaluate the PASSING clause into a dynamic context carrying the
    /// statement's budget, so embedded XQuery evaluation observes the
    /// deadline, step cap, and cancellation token.
    fn passing_context(
        &self,
        passing: &[(String, SqlExpr)],
        row: &RowCtx,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<DynamicContext, XdmError> {
        let mut vars = HashMap::new();
        for (name, expr) in passing {
            let v = self.eval_expr(expr, row, budget)?;
            vars.insert(ExpandedName::local(name.as_str()), v.to_sequence()?);
        }
        Ok(DynamicContext::with_variables(vars).with_budget(budget.clone()))
    }

    fn eval_expr(
        &self,
        expr: &SqlExpr,
        row: &RowCtx,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<Scalar, XdmError> {
        match expr {
            SqlExpr::Integer(i) => Ok(Scalar::Integer(*i)),
            SqlExpr::Double(d) => Ok(Scalar::Double(*d)),
            SqlExpr::Varchar(s) => Ok(Scalar::Varchar(s.clone())),
            SqlExpr::Null => Ok(Scalar::Null),
            SqlExpr::Column { qualifier, name } => row.lookup(qualifier.as_deref(), name),
            SqlExpr::XmlQuery { query, passing } => {
                let ctx = self.passing_context(passing, row, budget)?;
                let seq = eval_query(query, &self.catalog.db, &ctx)?;
                Ok(Scalar::Xml(seq))
            }
            SqlExpr::XmlCast { expr, ty } => {
                let v = self.eval_expr(expr, row, budget)?;
                xmlcast(&v, ty)
            }
        }
    }

    /// Three-valued condition evaluation (`None` = UNKNOWN). Each row
    /// condition ticks the statement budget so a deadline interrupts even
    /// pure-SQL scans that never enter XQuery evaluation.
    fn eval_cond(
        &self,
        cond: &SqlCond,
        row: &RowCtx,
        budget: &Arc<xqdb_xdm::Budget>,
    ) -> Result<Option<bool>, XdmError> {
        budget.tick()?;
        match cond {
            SqlCond::Cmp(op, a, b) => {
                let l = self.eval_expr(a, row, budget)?;
                let r = self.eval_expr(b, row, budget)?;
                let ord = sql_compare(&to_stored_for_cmp(&l)?, &to_stored_for_cmp(&r)?)?;
                Ok(ord.map(|o| op.test(Some(o))))
            }
            SqlCond::XmlExists { query, passing } => {
                let ctx = self.passing_context(passing, row, budget)?;
                let seq = eval_query(query, &self.catalog.db, &ctx)?;
                // XMLEXISTS is a pure non-emptiness test — NOT the EBV.
                // `false()` is a non-empty sequence, so it passes (Query 9).
                Ok(Some(!seq.is_empty()))
            }
            SqlCond::And(a, b) => {
                let l = self.eval_cond(a, row, budget)?;
                if l == Some(false) {
                    return Ok(Some(false));
                }
                let r = self.eval_cond(b, row, budget)?;
                Ok(match (l, r) {
                    (Some(true), Some(true)) => Some(true),
                    (_, Some(false)) => Some(false),
                    _ => None,
                })
            }
            SqlCond::Or(a, b) => {
                let l = self.eval_cond(a, row, budget)?;
                if l == Some(true) {
                    return Ok(Some(true));
                }
                let r = self.eval_cond(b, row, budget)?;
                Ok(match (l, r) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                })
            }
            SqlCond::Not(c) => Ok(self.eval_cond(c, row, budget)?.map(|b| !b)),
        }
    }
}

/// One row of the in-flight join: (alias, column) → value.
#[derive(Debug, Clone, Default)]
struct RowCtx {
    values: HashMap<(String, String), Scalar>,
    order: Vec<(String, String)>,
}

impl RowCtx {
    /// This row extended with a stored row of `table` under `alias`. Only
    /// the decoded columns join the context: a column the statement's mask
    /// left out is absent — a lookup of it fails loudly instead of reading
    /// a NULL that would silently flip three-valued logic.
    fn with_row(mut self, alias: &str, table: &Table, values: &[Option<SqlValue>]) -> RowCtx {
        for (col, v) in table.columns.iter().zip(values) {
            let Some(v) = v else { continue };
            self.values.insert((alias.to_string(), col.name.clone()), Scalar::from_stored(v));
            self.order.push((alias.to_string(), col.name.clone()));
        }
        self
    }

    fn lookup(&self, qualifier: Option<&str>, name: &str) -> Result<Scalar, XdmError> {
        let name = name.to_ascii_uppercase();
        match qualifier {
            Some(q) => {
                let q = q.to_ascii_uppercase();
                self.values
                    .get(&(q.clone(), name.clone()))
                    .cloned()
                    .ok_or_else(|| {
                        XdmError::new(
                            ErrorCode::SqlType,
                            format!("unknown column {q}.{name}"),
                        )
                    })
            }
            None => {
                let mut found = None;
                for ((_, n), v) in &self.values {
                    if *n == name {
                        if found.is_some() {
                            return Err(XdmError::new(
                                ErrorCode::SqlType,
                                format!("ambiguous column {name}"),
                            ));
                        }
                        found = Some(v.clone());
                    }
                }
                found.ok_or_else(|| {
                    XdmError::new(ErrorCode::SqlType, format!("unknown column {name}"))
                })
            }
        }
    }
}

/// The planned access paths and diagnostics of a SELECT.
#[derive(Debug, Default)]
pub struct SqlPlan {
    /// alias → table name.
    pub tables: HashMap<String, String>,
    /// Source → extracted conditions (one per filtering XQuery).
    pub conds: HashMap<String, Vec<Cond>>,
    /// Compiled access per source.
    pub accesses: HashMap<String, IndexCond>,
    /// Analyzer notes.
    pub notes: Vec<Note>,
    /// Rejected candidates.
    pub rejections: Vec<Rejection>,
    /// Structural pre-filter per source, one entry per filtering conjunct
    /// (all must hold for a row to survive).
    pub prefilters: HashMap<String, Vec<SourcePrefilter>>,
    /// Twig patterns per source, one entry per filtering conjunct (all
    /// must hold for a row to survive). Resolved against the table's
    /// synopsis at execution time, so cached plans stay valid as
    /// collections grow.
    pub twigs: HashMap<String, Vec<SourceTwig>>,
    /// Cost decisions made while compiling accesses (candidates scored,
    /// estimated rows, human-readable choice notes).
    pub cost: PlanCost,
    /// Table name → the columns a row fetch decodes: every column the
    /// statement names anywhere (select list, WHERE, PASSING), matched by
    /// name whatever the qualifier; all of them under `SELECT *`.
    pub masks: HashMap<String, Vec<bool>>,
    /// Table name → the top-level WHERE conjuncts the scalar filter
    /// decides from the table's in-memory INTEGER cells (all must be
    /// TRUE). Only the predicates are planned; the cells are read at
    /// execution, so a cached plan stays valid as rows change.
    pub scalars: HashMap<String, Vec<ScalarPred>>,
}

impl SqlPlan {
    /// The decode mask of a table of this plan (empty — decode nothing —
    /// for a table the plan does not name).
    fn mask(&self, table: &str) -> &[bool] {
        self.masks.get(table).map_or(&[], Vec::as_slice)
    }
}

/// Walk one filtering XQuery body (an XMLEXISTS conjunct or an
/// XMLTABLE row producer) into the plan, returning the body as a
/// linear path when it is one (the XMLTABLE row context).
fn plan_xquery_filter(query: &Query, env: &AnalysisEnv, plan: &mut SqlPlan) -> Option<Linear> {
    let walked = walk(&query.body, env, Body::Exists);
    plan.notes.extend(walked.notes);
    // A row must satisfy every filtering conjunct, so per source the
    // conjuncts' structural filters are AND'd at execution.
    for (source, pf) in walked.structure.prefilters() {
        plan.prefilters.entry(source).or_default().push(pf);
    }
    for (source, tw) in walked.structure.twigs() {
        plan.twigs.entry(source).or_default().push(tw);
    }
    for s in walked.sources {
        plan.conds.entry(s).or_default().push(walked.cond.clone());
    }
    walked.path
}

/// Render the EXPLAIN output.
pub fn render_plan(plan: &SqlPlan) -> String {
    let mut out = String::from("SQL/XML PLAN\n");
    let mut aliases: Vec<_> = plan.tables.iter().collect();
    aliases.sort();
    for (alias, table) in aliases {
        // Find accesses on this table's sources.
        let mut printed = false;
        let mut sources: Vec<_> = plan.accesses.iter().collect();
        sources.sort_by_key(|(s, _)| s.as_str());
        for (source, access) in sources {
            if source.starts_with(&format!("{table}.")) {
                out.push_str(&format!(
                    "  table {table} (alias {alias}): INDEX {}\n",
                    access.render()
                ));
                printed = true;
            }
        }
        for pred in plan.scalars.get(table).into_iter().flatten() {
            out.push_str(&format!(
                "  table {table} (alias {alias}): SCALAR FILTER {}\n",
                pred.render()
            ));
            printed = true;
        }
        if !printed {
            out.push_str(&format!("  table {table} (alias {alias}): TABLE SCAN\n"));
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
        plan.prefilters.iter().map(|(s, pfs)| (s, pfs.as_slice())),
        plan.twigs.iter().map(|(s, tws)| (s, tws.as_slice())),
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

fn default_name(expr: &SqlExpr, i: usize) -> String {
    match expr {
        SqlExpr::Column { name, .. } => name.clone(),
        SqlExpr::XmlQuery { .. } => format!("XMLQUERY_{}", i + 1),
        SqlExpr::XmlCast { .. } => format!("XMLCAST_{}", i + 1),
        _ => format!("C{}", i + 1),
    }
}

/// Every column name (upper-cased) the statement reads anywhere — select
/// list, WHERE, and the PASSING clauses of `XMLEXISTS`, `XMLQUERY` and
/// `XMLTABLE` — or `None` when the select list has a `*` (every column).
fn read_columns(sel: &SelectStmt) -> Option<BTreeSet<String>> {
    fn expr(e: &SqlExpr, out: &mut BTreeSet<String>) {
        match e {
            SqlExpr::Column { name, .. } => {
                out.insert(name.to_ascii_uppercase());
            }
            SqlExpr::XmlQuery { passing, .. } => passing.iter().for_each(|(_, e)| expr(e, out)),
            SqlExpr::XmlCast { expr: inner, .. } => expr(inner, out),
            SqlExpr::Integer(_) | SqlExpr::Double(_) | SqlExpr::Varchar(_) | SqlExpr::Null => {}
        }
    }
    fn cond(c: &SqlCond, out: &mut BTreeSet<String>) {
        match c {
            SqlCond::Cmp(_, a, b) => {
                expr(a, out);
                expr(b, out);
            }
            SqlCond::XmlExists { passing, .. } => passing.iter().for_each(|(_, e)| expr(e, out)),
            SqlCond::And(a, b) | SqlCond::Or(a, b) => {
                cond(a, out);
                cond(b, out);
            }
            SqlCond::Not(a) => cond(a, out),
        }
    }
    let mut out = BTreeSet::new();
    for item in &sel.items {
        match item {
            SelectItem::Star => return None,
            SelectItem::Expr { expr: e, .. } => expr(e, &mut out),
        }
    }
    for item in &sel.from {
        if let FromItem::XmlTable { passing, .. } = item {
            passing.iter().for_each(|(_, e)| expr(e, &mut out));
        }
    }
    if let Some(c) = &sel.where_cond {
        cond(c, &mut out);
    }
    Some(out)
}

fn flatten_and<'a>(cond: &'a SqlCond, out: &mut Vec<&'a SqlCond>) {
    match cond {
        SqlCond::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}


/// `XMLCAST`: singleton enforcement and SQL-typed conversion — the Query 14
/// failure modes (cardinality and VARCHAR length) live here.
pub fn xmlcast(v: &Scalar, ty: &SqlType) -> Result<Scalar, XdmError> {
    let seq = match v {
        Scalar::Xml(seq) => seq.clone(),
        // Casting a non-XML scalar: route through its sequence form.
        other => other.to_sequence()?,
    };
    if seq.is_empty() {
        return Ok(Scalar::Null);
    }
    if seq.len() > 1 {
        return Err(XdmError::new(
            ErrorCode::SqlCardinality,
            format!("XMLCAST requires a singleton sequence, got {} items", seq.len()),
        ));
    }
    let atom = seq[0].atomize()?;
    match ty {
        SqlType::Integer => match cast::cast(&atom, AtomicType::Integer)? {
            AtomicValue::Integer(i) => Ok(Scalar::Integer(i)),
            other => Err(XdmError::internal(format!("integer cast yielded {other:?}"))),
        },
        SqlType::Double | SqlType::Decimal(..) => match cast::cast(&atom, AtomicType::Double)? {
            AtomicValue::Double(d) => Ok(Scalar::Double(d)),
            other => Err(XdmError::internal(format!("double cast yielded {other:?}"))),
        },
        SqlType::Varchar(n) => {
            let s = atom.lexical();
            if s.chars().count() > *n {
                return Err(XdmError::new(
                    ErrorCode::SqlLength,
                    format!("XMLCAST value of length {} exceeds VARCHAR({n})", s.chars().count()),
                ));
            }
            Ok(Scalar::Varchar(s))
        }
        SqlType::Date => match cast::cast(&atom, AtomicType::Date)? {
            AtomicValue::Date(d) => Ok(Scalar::Date(d)),
            other => Err(XdmError::internal(format!("date cast yielded {other:?}"))),
        },
        SqlType::Timestamp => match cast::cast(&atom, AtomicType::DateTime)? {
            AtomicValue::DateTime(t) => Ok(Scalar::Timestamp(t)),
            other => Err(XdmError::internal(format!("dateTime cast yielded {other:?}"))),
        },
        SqlType::Xml => Ok(Scalar::Xml(seq)),
    }
}

/// Convert a column XDM sequence to a scalar of the declared type
/// (XMLTABLE column semantics: caller handles the empty case).
fn sequence_to_scalar(seq: &Sequence, ty: &SqlType) -> Result<Scalar, XdmError> {
    xmlcast(&Scalar::Xml(seq.clone()), ty)
}

/// The one-line description of a DML statement for its EXPLAIN ANALYZE
/// report header.
fn dml_headline(stmt: &SqlStmt) -> String {
    match stmt {
        SqlStmt::Delete { table, where_cond } => format!(
            "DELETE FROM {table}{}",
            if where_cond.is_some() { " WHERE ..." } else { "" }
        ),
        SqlStmt::Update { table, set, where_cond } => {
            let cols: Vec<&str> = set.iter().map(|(c, _)| c.as_str()).collect();
            format!(
                "UPDATE {table} SET {}{}",
                cols.join(", "),
                if where_cond.is_some() { " WHERE ..." } else { "" }
            )
        }
        other => format!("{other:?}"),
    }
}

/// Convert a runtime scalar into a stored value for an UPDATE assignment
/// targeting a column of type `ty`. XML columns accept a singleton node
/// sequence (an XMLQUERY result); everything else stores its natural
/// stored form, with NULL always allowed.
fn scalar_to_stored(v: &Scalar, ty: &SqlType) -> Result<SqlValue, XdmError> {
    match (v, ty) {
        (Scalar::Null, _) => Ok(SqlValue::Null),
        (Scalar::Xml(seq), SqlType::Xml) => match seq.as_slice() {
            [Item::Node(n)] => Ok(SqlValue::Xml(n.clone())),
            _ => Err(XdmError::new(
                ErrorCode::SqlCardinality,
                format!(
                    "UPDATE of an XML column requires a single node, got {} item(s)",
                    seq.len()
                ),
            )),
        },
        (Scalar::Xml(_), _) => Err(XdmError::new(
            ErrorCode::SqlType,
            "XML value assigned to a non-XML column; use XMLCAST",
        )),
        (other, _) => to_stored_for_cmp(other),
    }
}

/// Convert a runtime scalar into a stored value for SQL comparison; XML
/// values are rejected (Section 3.3: use XMLCAST).
fn to_stored_for_cmp(v: &Scalar) -> Result<SqlValue, XdmError> {
    Ok(match v {
        Scalar::Null => SqlValue::Null,
        Scalar::Integer(i) => SqlValue::Integer(*i),
        Scalar::Double(d) => SqlValue::Double(*d),
        Scalar::Varchar(s) => SqlValue::Varchar(s.clone()),
        Scalar::Date(d) => SqlValue::Date(*d),
        Scalar::Timestamp(t) => SqlValue::Timestamp(*t),
        Scalar::Xml(_) => {
            return Err(XdmError::new(
                ErrorCode::SqlType,
                "XML values cannot be compared with SQL operators; use XMLCAST \
                 or move the comparison into XQuery (Tip 6)",
            ))
        }
    })
}
