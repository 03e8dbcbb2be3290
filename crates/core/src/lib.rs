//! # xqdb-core — index eligibility, planning, and SQL/XML
//!
//! The reproduction of the primary contribution of *On the Path to Efficient
//! XML Queries* (Balmin, Beyer, Özcan, Nicola; VLDB 2006): an XML database
//! engine whose planner decides **index eligibility** per the paper's
//! Definition 1 and whose EXPLAIN output names either the chosen index
//! probes or the precise pitfall (Sections 3.1–3.10) that made every
//! candidate ineligible.
//!
//! Layering:
//!
//! * [`catalog`] — tables + XML indexes, with maintenance on insert;
//! * [`access`] — the one access-path pipeline (scalar filter → index
//!   probe → twig join → path pre-filter): both front ends and DML
//!   compile their sources into one [`AccessPlan`], narrow them under one
//!   [`AccessConfig`] and fetch the survivors through one loop;
//! * `walk` — the one pass over a query (filtering-context analysis):
//!   index candidates, EXPLAIN notes and the structural uses that
//!   `structure` derives into prefilter groups and twig patterns;
//! * [`eligibility`] — the candidate vocabulary, pattern containment,
//!   type matching, between-merging, costing and the query doctor;
//! * [`engine`] — the standalone XQuery interface (the paper's `db2-fn:xmlcolumn`
//!   world): plan → probe indexes → evaluate residual;
//! * [`sqlxml`] — the SQL/XML interface: `XMLQUERY`, `XMLEXISTS`,
//!   `XMLTABLE`, `XMLCAST`, with SQL comparison semantics.

pub mod access;
pub mod catalog;
pub mod durability;
pub mod eligibility;
pub mod engine;
pub mod plancache;
pub mod prefilter;
mod send_sync;
pub mod sqlxml;
mod structure;
pub mod twig;
pub mod verify;
mod walk;

pub use access::{AccessConfig, AccessPlan, PlanCost, SourcePaths};
pub use catalog::Catalog;
pub use durability::{
    checkpoint_pages, open_durable_catalog, recover_catalog, snapshot_records, CheckpointPages,
    Durability, RecoveryReport, TablePages, PAGES_FILE,
};
pub use eligibility::{
    diagnose, diagnose_misestimate, estimate_probe_entries, AnalysisEnv, Candidate, CmpTarget,
    Cond, CostModel, Diagnosis, Est, IndexCond, Note, Pitfall, RejectReason,
};
pub use engine::{
    execute_plan, explain, explain_analyze_report, explain_analyze_xquery, plan_query,
    plan_query_costed, plan_query_traced, run_xquery, run_xquery_with_limits,
    run_xquery_with_options, ExecOptions, ExecOutcome, ExecStats, QueryPlan,
};
pub use plancache::CacheEpoch;
pub use prefilter::{PathComponent, RequiredGroup, RequiredPath, SourcePrefilter};
pub use sqlxml::{SqlSession, SqlResult};
pub use twig::{PreparedTwig, SourceTwig};
pub use verify::{verify_derived_state, TableVerdict, VerifyReport};
pub use xqdb_obs::{Obs, ObsConfig};
pub use xqdb_storage::{bucket_bounds, PathSynopsis, ValueStats};
pub use xqdb_wal::{CrashInjector, FsyncMode, WalConfig};
