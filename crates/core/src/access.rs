//! The access-path pipeline: scalar filter → index probe → twig join →
//! path pre-filter, the one place where a statement's sources are
//! planned, narrowed and fetched.
//!
//! Both front ends hand [`compile_sources`] what their walks found per
//! source and get one [`AccessPlan`] back; at execution
//! [`AccessPaths::survivors`] narrows its sources and [`fetch_rows`], the
//! one statement fetch loop, reads what survives. The XQuery executor, SQL
//! `SELECT` and `DELETE`/`UPDATE` matching (a single-table `SELECT`'s FROM
//! and WHERE) differ only in how they evaluate the rows they fetch.
//!
//! Every stage is a Definition 1 pre-filter: it may let extra rows through
//! but never drops one the query keeps, so the survivors only bound what
//! the caller fetches and evaluates.
//!
//! Stages run phase by phase — every scalar filter, then every probe, then
//! every twig join, then every pre-filter — each over the sources in
//! source order. The scalar filter is the one exact stage: it decides a
//! SQL `column op literal` conjunct over an INTEGER column from the
//! table's in-memory cells with the comparison the WHERE evaluation uses,
//! so it drops exactly the rows that conjunct makes not TRUE. Probes are
//! the only stage that touches the pager, so probe-side fault injection
//! fires at the same points whether the purely in-memory stages run or
//! not.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use xqdb_obs::{Histogram, Obs, Trace};
use xqdb_storage::{sql_compare, Database, SqlValue, Table};
use xqdb_xdm::compare::CompareOp;
use xqdb_xdm::{Budget, ErrorCode, XdmError};
use xqdb_xmlindex::ProbeStats;

use crate::catalog::Catalog;
use crate::eligibility::{compile, restrict_to_source, Cond, IndexCond, Note, Rejection};
use crate::engine::{elapsed_ns, ExecStats};
use crate::prefilter::SourcePrefilter;
use crate::twig::{PreparedTwig, SourceTwig};
use crate::walk::Walked;

/// The access-path switches: structural pre-filter, holistic twig join and
/// cost-based index choice, all on by default. A session's or a run's
/// value drives planning, the plan-cache key and the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessConfig {
    /// Apply the structural pre-filter (path postings).
    pub prefilter: bool,
    /// Apply the holistic twig join over structural labels.
    pub twig: bool,
    /// Cost index choices against synopsis statistics; off, the planner
    /// takes the first eligible index in catalog order.
    pub cost: bool,
}

impl Default for AccessConfig {
    fn default() -> Self {
        AccessConfig { prefilter: true, twig: true, cost: true }
    }
}

impl AccessConfig {
    /// The plan-cache key for `text`. Cost is part of it: a costed and a
    /// rule-based plan for the same text are different plans, and a
    /// cost-off run must never leave a plan a cost-on run reuses.
    pub(crate) fn plan_key<'t>(&self, text: &'t str) -> Cow<'t, str> {
        if self.cost {
            Cow::Borrowed(text)
        } else {
            Cow::Owned(format!("#nocost\n{text}"))
        }
    }
}

/// A SQL conjunct `column op literal` over an INTEGER column, decided per
/// row from [`Table::int_cells`] instead of the stored record.
#[derive(Debug, Clone)]
pub struct ScalarPred {
    /// `TABLE.COLUMN`, for EXPLAIN and span tags.
    pub column: String,
    /// The column's position in the row.
    pub col: usize,
    /// The operator, with the column as its left operand (the planner
    /// mirrors `literal op column`).
    pub op: CompareOp,
    /// The literal: an INTEGER or a DOUBLE value.
    pub literal: SqlValue,
}

impl ScalarPred {
    /// True iff the conjunct is TRUE for a row holding `cell` — the same
    /// `sql_compare` + [`CompareOp::test`] three-valued rule the WHERE
    /// evaluation applies, so NULL (and a deleted row, which holds NULL)
    /// is never TRUE.
    pub fn accepts(&self, cell: Option<i64>) -> bool {
        let cell = cell.map_or(SqlValue::Null, SqlValue::Integer);
        matches!(sql_compare(&cell, &self.literal), Ok(Some(o)) if self.op.test(Some(o)))
    }

    /// `TABLE.COLUMN op literal`.
    pub fn render(&self) -> String {
        let literal = match &self.literal {
            SqlValue::Integer(i) => i.to_string(),
            SqlValue::Double(d) => d.to_string(),
            other => format!("{other:?}"),
        };
        format!("{} {} {literal}", self.column, self.op.general_symbol())
    }
}

/// What the planner compiled for one source.
#[derive(Debug, Clone)]
pub struct SourcePaths {
    /// The `TABLE.COLUMN` collection, or the table a SQL statement's
    /// scalar conjuncts narrow: selects the indexes and tags spans.
    pub source: String,
    /// The survivor set this source narrows. Sources sharing a key
    /// intersect into one set: XQuery keys by source (each collection is
    /// scanned on its own), SQL by table (a row passes only if every
    /// filtering conjunct over any of its columns does).
    pub key: String,
    /// The compiled index condition, if any index is eligible.
    pub index: Option<IndexCond>,
    /// Twig filters, one per filtering conjunct; a row must match all.
    /// Resolved against the table's synopsis at execution, so a cached
    /// plan stays valid as the collection grows.
    pub twigs: Vec<SourceTwig>,
    /// Path pre-filters, one per filtering conjunct; all must accept.
    pub prefilters: Vec<SourcePrefilter>,
    /// Scalar conjuncts over the key's table; all must be TRUE. Only the
    /// predicates are planned; the cells are read at execution.
    pub scalars: Vec<ScalarPred>,
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

/// A statement's access plan: its sources in sorted order, each with what
/// narrows it, and what EXPLAIN says about the choice.
#[derive(Debug, Default)]
pub struct AccessPlan {
    /// Every source the statement narrows or scans, sorted by name.
    pub sources: Vec<SourcePaths>,
    /// What the cost model estimated and why it chose the indexes it did.
    /// Empty/default on rule-based plans.
    pub cost: PlanCost,
    /// Analyzer diagnostics (non-filtering predicates etc.).
    pub notes: Vec<Note>,
    /// Candidates that found no index, with reasons.
    pub rejections: Vec<Rejection>,
}

/// What a statement's walks found, before any index is chosen: per
/// source, the filtering conditions, structural filters and scalar
/// conjuncts (each list one entry per filtering conjunct, all of which
/// must hold), and the notes for EXPLAIN.
#[derive(Default)]
pub(crate) struct Uses {
    sources: BTreeMap<String, SourceUses>,
    pub notes: Vec<Note>,
}

#[derive(Default)]
struct SourceUses {
    conds: Vec<Cond>,
    twigs: Vec<SourceTwig>,
    prefilters: Vec<SourcePrefilter>,
    scalars: Vec<ScalarPred>,
}

impl Uses {
    /// Record one walked filtering body — a standalone query, an
    /// XMLEXISTS conjunct or an XMLTABLE row producer: its condition for
    /// every source it names, its structural filters and its notes.
    /// Returns how many structural filters it found.
    pub(crate) fn record(&mut self, walked: &Walked) -> usize {
        let (prefilters, twigs) = (walked.structure.prefilters(), walked.structure.twigs());
        let found = prefilters.len() + twigs.len();
        for (source, pf) in prefilters {
            self.sources.entry(source).or_default().prefilters.push(pf);
        }
        for (source, tw) in twigs {
            self.sources.entry(source).or_default().twigs.push(tw);
        }
        for source in &walked.sources {
            self.sources.entry(source.clone()).or_default().conds.push(walked.cond.clone());
        }
        self.notes.extend(walked.notes.iter().cloned());
        found
    }

    /// Record a scalar conjunct over `table`.
    pub(crate) fn scalar(&mut self, table: String, pred: ScalarPred) {
        self.sources.entry(table).or_default().scalars.push(pred);
    }
}

/// Which survivor set a source narrows (see [`SourcePaths::key`]).
#[derive(Clone, Copy)]
pub(crate) enum Narrows {
    /// Its own: XQuery.
    Source,
    /// Its table's: SQL.
    Table,
}

/// Compile each source's conditions against that source's indexes —
/// costed against its synopsis statistics when `use_cost` — in sorted
/// source order, so cost notes and candidate tallies are deterministic.
pub(crate) fn compile_sources(
    catalog: &Catalog,
    uses: Uses,
    use_cost: bool,
    narrows: Narrows,
) -> AccessPlan {
    let mut plan = AccessPlan { notes: uses.notes, ..AccessPlan::default() };
    for (source, u) in uses.sources {
        let mut index = None;
        if !u.conds.is_empty() {
            let restricted = restrict_to_source(&Cond::And(u.conds), &source);
            let indexes = catalog.indexes_for_source(&source);
            let model = if use_cost { catalog.cost_model_for(&source) } else { None };
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
            index = compiled.access;
        }
        let key = match narrows {
            Narrows::Source => source.clone(),
            Narrows::Table => source.split('.').next().unwrap_or("").to_string(),
        };
        let (twigs, prefilters, scalars) = (u.twigs, u.prefilters, u.scalars);
        plan.sources.push(SourcePaths { source, key, index, twigs, prefilters, scalars });
    }
    plan
}

impl AccessPlan {
    /// The EXPLAIN sections both front ends print after their access
    /// lines: cost decisions, the structural filters (a line per source,
    /// its filters — one per SQL filtering conjunct — joined by ` AND `),
    /// notes and rejected candidates.
    pub(crate) fn render_tail(&self, out: &mut String) {
        let structural = |verb: &str, render: fn(&SourcePaths) -> Vec<String>| {
            let lines = self.sources.iter().map(|s| (&s.source, render(s)));
            lines
                .filter(|(_, filters)| !filters.is_empty())
                .map(|(source, filters)| format!("{source}: {verb} {}", filters.join(" AND ")))
                .collect()
        };
        let prefilters = structural("requires", |s| {
            s.prefilters.iter().map(SourcePrefilter::render).collect()
        });
        let twigs = structural("matches", |s| s.twigs.iter().map(SourceTwig::render).collect());
        let rejection = |r: &Rejection| {
            let reasons: String = r.reasons.iter().map(|x| format!("\n        {x}")).collect();
            format!("{}{reasons}", r.candidate)
        };
        let sections: [(&str, Vec<String>); 5] = [
            ("cost decisions", self.cost.notes.clone()),
            ("structural prefilter", prefilters),
            ("twig join", twigs),
            ("notes", self.notes.iter().map(Note::to_string).collect()),
            ("rejected candidates", self.rejections.iter().map(rejection).collect()),
        ];
        for (title, lines) in sections.iter().filter(|(_, lines)| !lines.is_empty()) {
            out.push_str(&format!("  {title}:\n"));
            for line in lines {
                out.push_str(&format!("    - {line}\n"));
            }
        }
    }
}

/// Survivor row sets by [`SourcePaths::key`]. A key with no entry was not
/// narrowed: every row of its table survives.
pub(crate) type Survivors = HashMap<String, BTreeSet<u64>>;

/// One statement's run of the pipeline.
pub(crate) struct AccessPaths<'a> {
    pub catalog: &'a Catalog,
    /// The switches.
    pub config: AccessConfig,
    pub obs: &'a Obs,
    pub trace: &'a Trace,
}

impl AccessPaths<'_> {
    /// Run scalar filter → probe → twig → pre-filter over the plan's
    /// sources and return the survivors, charging each stage's counters to
    /// `stats`. A
    /// probe failing with `StorageFault` degrades its source to a scan
    /// (correct by Definition 1) and is recorded in `stats`; any other
    /// probe error — budget exhaustion, cancellation — propagates.
    pub fn survivors(
        &self,
        plan: &AccessPlan,
        budget: &Budget,
        stats: &mut ExecStats,
    ) -> Result<Survivors, XdmError> {
        let sources = &plan.sources;
        let mut survivors = Survivors::new();
        for s in sources.iter().filter(|s| !s.scalars.is_empty()) {
            self.scalar_filter(s, &mut survivors, stats);
        }
        for s in sources {
            if let Some(cond) = &s.index {
                self.probe(s, cond, budget, &mut survivors, stats)?;
            }
        }
        if self.config.twig {
            for s in sources.iter().filter(|s| !s.twigs.is_empty()) {
                self.twig_join(s, &mut survivors, stats);
            }
        }
        if self.config.prefilter {
            for s in sources.iter().filter(|s| !s.prefilters.is_empty()) {
                self.prefilter(s, &mut survivors, stats);
            }
        }
        Ok(survivors)
    }

    /// Keep the rows whose in-memory cells make every scalar conjunct
    /// TRUE. Reads no page. The stage runs first, so what it visits is the
    /// table's whole rowid domain (or an earlier scalar source's survivors,
    /// all live); deleted rows hold NULL and drop out without a lookup in
    /// the delete set, so the rows it skips are live rows.
    fn scalar_filter(&self, s: &SourcePaths, survivors: &mut Survivors, stats: &mut ExecStats) {
        let Some(table) = self.catalog.db.table(&s.key) else { return };
        let Some(cells) =
            s.scalars.iter().map(|p| table.int_cells(p.col)).collect::<Option<Vec<_>>>()
        else {
            return;
        };
        let mut span = self.trace.span("scalar filter");
        span.tag_with("source", || s.source.to_string());
        let visited = survivors.get(&s.key).map_or(table.live_len(), BTreeSet::len);
        let kept: BTreeSet<u64> = rows_of(survivors.get(&s.key), table)
            .filter(|&row| {
                let cell = |c: &&[Option<i64>]| c.get(row as usize).copied().flatten();
                s.scalars.iter().zip(&cells).all(|(p, c)| p.accepts(cell(c)))
            })
            .collect();
        let skipped = visited.saturating_sub(kept.len());
        span.add_count(skipped as u64);
        span.tag_with("survivors", || kept.len().to_string());
        stats.scalar_rows_skipped += skipped;
        survivors.insert(s.key.to_string(), kept);
    }

    fn probe(
        &self,
        s: &SourcePaths,
        cond: &IndexCond,
        budget: &Budget,
        survivors: &mut Survivors,
        stats: &mut ExecStats,
    ) -> Result<(), XdmError> {
        let mut span = self.trace.span("index probe");
        span.tag_with("source", || s.source.to_string());
        let indexes = self.catalog.indexes_for_source(&s.source);
        let mut pstats = ProbeStats::default();
        let t0 = self.obs.metrics_enabled().then(Instant::now);
        let probed = cond.execute(&indexes, &mut pstats, budget);
        if let Some(t0) = t0 {
            self.obs.observe_ns(Histogram::ProbeNanos, elapsed_ns(t0));
        }
        stats.index_entries_scanned += pstats.entries_scanned;
        stats.index_probes += pstats.probes;
        stats.btree_nodes_touched += pstats.nodes_touched;
        stats.multi_index_intersections += pstats.intersections as u64;
        span.add_count(pstats.entries_scanned as u64);
        match probed {
            Ok(rows) => {
                span.tag_str("outcome", "index hit");
                span.tag_with("survivors", || rows.len().to_string());
                stats.cost_actual_rows += rows.len() as u64;
                match survivors.get_mut(&s.key) {
                    Some(kept) => kept.retain(|r| rows.contains(r)),
                    None => {
                        survivors.insert(s.key.to_string(), rows);
                    }
                }
                Ok(())
            }
            Err(e) if e.code == ErrorCode::StorageFault => {
                span.tag_str("outcome", "degraded to scan");
                stats.index_faults += 1;
                stats.degraded_sources.push(s.source.to_string());
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Drop rows no twig structurally matches. Labels live entirely in RAM,
    /// so the join adds no fault points. A table whose label store cannot
    /// vouch for every row (recovery adopted rows without re-parsing, or
    /// labeling was off at ingest) is declined untouched.
    ///
    /// Candidates come from the posting lists, intersected with the
    /// survivors when an earlier stage narrowed the source and taken from
    /// the rarest pattern node's postings when none did, so the cost
    /// follows the rows that reach the join, not the table. Only the
    /// candidates' label runs are then matched. Skips are counted over live
    /// rows: a deleted rowid is no document.
    fn twig_join(&self, s: &SourcePaths, survivors: &mut Survivors, stats: &mut ExecStats) {
        let Ok((table, _)) = self.catalog.db.resolve_xml_column(&s.source) else { return };
        let mut span = self.trace.span("twig join");
        span.tag_with("source", || s.source.to_string());
        span.tag_with("patterns", || {
            s.twigs.iter().map(|t| t.patterns.len()).sum::<usize>().to_string()
        });
        let Some(prepared) =
            s.twigs.iter().map(|t| PreparedTwig::prepare(t, table)).collect::<Option<Vec<_>>>()
        else {
            span.tag_str("outcome", "declined: labels incomplete");
            return;
        };
        let (mut rows, considered) = narrowed(survivors, &s.key, table);
        for p in &prepared {
            rows = Some(p.candidates(rows.as_deref()));
        }
        let candidates = rows.unwrap_or_default();
        let kept: BTreeSet<u64> = candidates
            .iter()
            .copied()
            .filter(|&row| prepared.iter().all(|p| p.accepts(row)))
            .collect();
        let skipped = considered.saturating_sub(kept.len());
        span.add_count(skipped as u64);
        span.tag_with("candidates", || candidates.len().to_string());
        span.tag_with("survivors", || kept.len().to_string());
        stats.twig_joins += 1;
        stats.twig_candidates += candidates.len();
        stats.twig_docs_skipped += skipped;
        survivors.insert(s.key.to_string(), kept);
    }

    /// Keep the rows whose documents hold the paths of some group of every
    /// pre-filter, read off the table's posting lists: intersected with
    /// the survivors when an earlier stage narrowed the source, taken from
    /// the postings when none did. Postings list live rows only, so a
    /// deleted rowid is neither kept nor counted as skipped.
    fn prefilter(&self, s: &SourcePaths, survivors: &mut Survivors, stats: &mut ExecStats) {
        let Ok((table, _)) = self.catalog.db.resolve_xml_column(&s.source) else { return };
        let mut span = self.trace.span("prefilter");
        span.tag_with("source", || s.source.to_string());
        span.tag_with("groups", || {
            s.prefilters.iter().map(|p| p.groups.len()).sum::<usize>().to_string()
        });
        let (mut rows, considered) = narrowed(survivors, &s.key, table);
        for pf in &s.prefilters {
            rows = Some(pf.rows(table.labels(), rows.as_deref()));
        }
        let kept: BTreeSet<u64> = rows.unwrap_or_default().into_iter().collect();
        let skipped = considered.saturating_sub(kept.len());
        span.add_count(skipped as u64);
        span.tag_with("survivors", || kept.len().to_string());
        stats.prefilter_docs_skipped += skipped;
        survivors.insert(s.key.to_string(), kept);
    }
}

/// The rows an earlier stage left for `key`, ascending (`None`: none
/// narrowed it), and how many live rows a structural stage considers:
/// those, or every live row.
fn narrowed(survivors: &Survivors, key: &str, table: &Table) -> (Option<Vec<u64>>, usize) {
    let rows: Option<Vec<u64>> = survivors.get(key).map(|k| k.iter().copied().collect());
    let considered = rows.as_ref().map_or(table.live_len(), Vec::len);
    (rows, considered)
}

/// The rowids a stage or a fetch visits: `filter` in ascending order, or
/// the table's whole rowid domain when nothing narrowed it.
fn rows_of<'f>(
    filter: Option<&'f BTreeSet<u64>>,
    table: &Table,
) -> impl Iterator<Item = u64> + 'f {
    let all = filter.is_none().then(|| 0..table.len() as u64);
    filter.into_iter().flatten().copied().chain(all.into_iter().flatten())
}

/// The one statement fetch loop: point lookups of the live rows among
/// [`rows_of`], in rowid order. Each row's page is read and the columns
/// `mask` selects decoded (see [`Table::row_masked`]), and nothing else;
/// unnarrowed, this visits every live row at the cost of a scan. Every
/// fetched row passes the document-fetch fault point before `each` sees
/// it with its rowid: as in `Database::xmlcolumn`, a fetch fault has no
/// fallback. `stats` records the table's live rows as `docs_total[key]`
/// and the rows actually fetched as `docs_evaluated[key]`.
pub(crate) fn fetch_rows(
    db: &Database,
    table: &Table,
    key: &str,
    filter: Option<&BTreeSet<u64>>,
    mask: &[bool],
    stats: &mut ExecStats,
    mut each: impl FnMut(u64, Vec<Option<SqlValue>>) -> Result<(), XdmError>,
) -> Result<(), XdmError> {
    let mut fetched = 0usize;
    for rid in rows_of(filter, table) {
        let Some(values) = table.row_masked(rid as usize, mask)? else { continue };
        if db.fault_injector().is_some_and(|inj| inj.should_fail()) {
            return Err(XdmError::storage_fault(format!(
                "injected fault fetching document at row {rid} of {key}"
            )));
        }
        fetched += 1;
        each(rid, values)?;
    }
    stats.docs_total.insert(key.to_string(), table.live_len());
    stats.docs_evaluated.insert(key.to_string(), fetched);
    Ok(())
}
