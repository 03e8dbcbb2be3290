//! The access-path pipeline: scalar filter → index probe → twig join →
//! signature pre-filter, the one place where a statement's sources are
//! narrowed before any document is fetched.
//!
//! Every stage is a Definition 1 pre-filter: it may let extra rows through
//! but never drops one the query keeps, so the survivors only bound what
//! the caller fetches and evaluates. The XQuery executor, SQL `SELECT` and
//! `DELETE`/`UPDATE` matching all call [`AccessPaths::survivors`] and differ
//! only in how they fetch and evaluate what it returns.
//!
//! Stages run phase by phase — every scalar filter, then every probe, then
//! every twig join, then every pre-filter — each over the sources in the
//! caller's order. The scalar filter is the one exact stage: it decides a
//! SQL `column op literal` conjunct over an INTEGER column from the
//! table's in-memory cells with the comparison the WHERE evaluation uses,
//! so it drops exactly the rows that conjunct makes not TRUE. Probes are
//! the only stage that touches the pager, so probe-side fault injection
//! fires at the same points whether the purely in-memory stages run or
//! not.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use xqdb_obs::{Histogram, Obs, Trace};
use xqdb_storage::{sql_compare, SqlValue, Table};
use xqdb_xdm::compare::CompareOp;
use xqdb_xdm::{Budget, ErrorCode, XdmError};
use xqdb_xmlindex::ProbeStats;

use crate::catalog::Catalog;
use crate::eligibility::IndexCond;
use crate::engine::{elapsed_ns, ExecStats};
use crate::prefilter::SourcePrefilter;
use crate::twig::{PreparedTwig, SourceTwig};

/// The access-path switches: structural pre-filter, holistic twig join and
/// cost-based index choice, all on by default. A session's or a run's
/// value drives planning, the plan-cache key and the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessConfig {
    /// Apply the structural pre-filter (path signatures).
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
pub(crate) struct SourcePaths<'p> {
    /// The `TABLE.COLUMN` collection: selects the indexes and tags spans.
    pub source: &'p str,
    /// The survivor set this source narrows. Sources sharing a key
    /// intersect into one set: XQuery keys by source (each collection is
    /// scanned on its own), SQL by table (a row passes only if every
    /// filtering conjunct over any of its columns does).
    pub key: &'p str,
    /// The compiled index condition, if any index is eligible.
    pub index: Option<&'p IndexCond>,
    /// Twig filters, one per filtering conjunct; a row must match all.
    pub twigs: &'p [SourceTwig],
    /// Signature pre-filters, one per filtering conjunct; all must accept.
    pub prefilters: &'p [SourcePrefilter],
    /// Scalar conjuncts over the key's table; all must be TRUE.
    pub scalars: &'p [ScalarPred],
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
    /// Run scalar filter → probe → twig → pre-filter over `sources` and
    /// return the survivors, charging each stage's counters to `stats`. A
    /// probe failing with `StorageFault` degrades its source to a scan
    /// (correct by Definition 1) and is recorded in `stats`; any other
    /// probe error — budget exhaustion, cancellation — propagates.
    pub fn survivors(
        &self,
        sources: &[SourcePaths<'_>],
        budget: &Budget,
        stats: &mut ExecStats,
    ) -> Result<Survivors, XdmError> {
        let mut survivors = Survivors::new();
        for s in sources.iter().filter(|s| !s.scalars.is_empty()) {
            self.scalar_filter(s, &mut survivors, stats);
        }
        for s in sources {
            if let Some(cond) = s.index {
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
    fn scalar_filter(&self, s: &SourcePaths<'_>, survivors: &mut Survivors, stats: &mut ExecStats) {
        let Some(table) = self.catalog.db.table(s.key) else { return };
        let Some(cells) =
            s.scalars.iter().map(|p| table.int_cells(p.col)).collect::<Option<Vec<_>>>()
        else {
            return;
        };
        let mut span = self.trace.span("scalar filter");
        span.tag_with("source", || s.source.to_string());
        let visited = survivors.get(s.key).map_or(table.live_len(), BTreeSet::len);
        let kept: BTreeSet<u64> = rows_of(survivors.get(s.key), table)
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
        s: &SourcePaths<'_>,
        cond: &IndexCond,
        budget: &Budget,
        survivors: &mut Survivors,
        stats: &mut ExecStats,
    ) -> Result<(), XdmError> {
        let mut span = self.trace.span("index probe");
        span.tag_with("source", || s.source.to_string());
        let indexes = self.catalog.indexes_for_source(s.source);
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
                match survivors.get_mut(s.key) {
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
    fn twig_join(&self, s: &SourcePaths<'_>, survivors: &mut Survivors, stats: &mut ExecStats) {
        let Ok((table, _)) = self.catalog.db.resolve_xml_column(s.source) else { return };
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
        let narrowed: Option<Vec<u64>> = survivors.get(s.key).map(|k| k.iter().copied().collect());
        let considered = narrowed.as_ref().map_or(table.live_len(), Vec::len);
        let mut rows = narrowed;
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

    /// Drop rows whose path signature some pre-filter rejects. Rows without
    /// a signature (deleted, or no XML cell) are kept: the evaluation
    /// decides them, never the pre-filter.
    fn prefilter(&self, s: &SourcePaths<'_>, survivors: &mut Survivors, stats: &mut ExecStats) {
        let Ok((table, _)) = self.catalog.db.resolve_xml_column(s.source) else { return };
        let mut span = self.trace.span("prefilter");
        span.tag_with("source", || s.source.to_string());
        span.tag_with("groups", || {
            s.prefilters.iter().map(|p| p.groups.len()).sum::<usize>().to_string()
        });
        let mut skipped = 0usize;
        let kept: BTreeSet<u64> = rows_of(survivors.get(s.key), table)
            .filter(|&row| {
                let keep = table
                    .signature(row as usize)
                    .is_none_or(|sig| s.prefilters.iter().all(|pf| pf.accepts(sig)));
                skipped += usize::from(!keep);
                keep
            })
            .collect();
        span.add_count(skipped as u64);
        span.tag_with("survivors", || kept.len().to_string());
        stats.prefilter_docs_skipped += skipped;
        survivors.insert(s.key.to_string(), kept);
    }
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

/// Point lookups of the live rows among [`rows_of`], in rowid order —
/// each survivor's page is read and the columns `mask` selects decoded
/// (see [`Table::row_masked`]), and nothing else. Unfiltered, this visits
/// every row at the cost of a scan.
pub(crate) fn fetch<'f>(
    filter: Option<&'f BTreeSet<u64>>,
    table: &'f Table,
    mask: &'f [bool],
) -> impl Iterator<Item = Result<(u64, Vec<Option<SqlValue>>), XdmError>> + 'f {
    rows_of(filter, table).filter_map(move |rid| {
        table.row_masked(rid as usize, mask).transpose().map(|r| r.map(|v| (rid, v)))
    })
}
