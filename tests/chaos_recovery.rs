//! Crash-injected recovery, verified by the Definition 1 oracle.
//!
//! The paper's Definition 1 demands `Q(D) = Q(I(P,D))` — an index is a
//! pure execution detail that may never change a result. Recovery earns
//! the same contract: a catalog rebuilt from the write-ahead log must
//! answer every paper query **byte-identically** to an in-memory catalog
//! that executed the same durable prefix of statements. The matrix below
//! drives that oracle across crash points × fsync modes × faults, plus
//! the corruption cases (torn tails self-heal, bit flips surface as
//! typed `WalCorrupt` errors naming the quarantined segment — never a
//! panic, never a silently wrong answer).

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use xqdb_core::{
    recover_catalog, run_xquery, Catalog, CrashInjector, FsyncMode, Obs, SqlSession, WalConfig,
};
use xqdb_obs::Trace;
use xqdb_xdm::{DurabilityFault, ErrorCode, FaultInjector, FaultMode};

/// Default `batch_records` of [`WalConfig`] — the flush cadence the
/// batch-mode loss-window expectations below are computed from.
const BATCH: usize = 8;

fn temp_dir(label: &str) -> common::TempDir {
    common::TempDir::new(&format!("chaos_recovery_{label}"))
}

/// Run every paper query against a catalog, rendering each outcome —
/// results serialized, errors by code (a query over a not-yet-recovered
/// table must fail *identically* on both sides of the oracle).
fn query_fingerprint(catalog: &Catalog) -> Vec<String> {
    common::PAPER_QUERIES
        .iter()
        .map(|(label, q)| match run_xquery(catalog, q) {
            Ok(out) => format!("{label}: {}", xqdb_xmlparse::serialize_sequence(&out.sequence)),
            Err(e) => format!("{label}: error {}", e.code),
        })
        .collect()
}

/// The serial in-memory oracle: a plain (never-durable) session that
/// executed exactly the first `k` of `stmts`.
fn baseline_fingerprint_of(stmts: &[String], k: usize) -> Vec<String> {
    let mut s = SqlSession::default();
    for stmt in stmts.iter().take(k) {
        s.execute(stmt).unwrap();
    }
    query_fingerprint(&s.catalog)
}

/// [`baseline_fingerprint_of`] over the insert-only paper setup.
fn baseline_fingerprint(k: usize) -> Vec<String> {
    baseline_fingerprint_of(&common::paper_setup_stmts(true), k)
}

/// Open a durable session on `dir`, arm the fault, and push `stmts`
/// through it. Returns how many statements succeeded before the
/// injected crash (every later statement must be refused with a typed
/// `StorageFault`, never applied half-way).
fn run_until_crash(
    dir: &std::path::Path,
    fsync: FsyncMode,
    fault: DurabilityFault,
    crash_at: usize,
    stmts: &[String],
) -> usize {
    let config = WalConfig { fsync, ..Default::default() };
    let (mut session, report) = SqlSession::open_durable(dir, config).unwrap();
    assert_eq!(report.last_seq, 0, "scenario starts from an empty directory");
    session
        .durability()
        .unwrap()
        .set_crash_injector(Some(CrashInjector {
            injector: Arc::new(FaultInjector::new(FaultMode::Nth(crash_at as u64))),
            fault,
        }))
        .unwrap();
    let mut applied = 0;
    let mut first_failure = None;
    for stmt in stmts {
        match session.execute(stmt) {
            Ok(_) => applied += 1,
            // The crashing statement fails with a typed StorageFault;
            // statements after it either hit the crashed writer (also
            // StorageFault) or cascade off the vetoed DDL ("unknown
            // table") — typed errors all the way down, never a panic.
            Err(e) => {
                first_failure.get_or_insert(e.code);
            }
        }
    }
    assert_eq!(applied, crash_at - 1, "the crash fires on append #{crash_at}");
    assert_eq!(
        first_failure,
        Some(ErrorCode::StorageFault),
        "the injected crash surfaces as a typed StorageFault"
    );
    applied
}

/// Statements that survive the crash, per mode. Each setup statement is
/// one WAL record; `always`/`off` push every record to the OS as it is
/// appended, `batch` flushes every [`BATCH`] records, so a
/// crash-before-flush loses the in-process remainder — the documented
/// loss window. A torn tail loses only the in-flight record: the torn
/// half-frame is truncated away by recovery.
fn durable_prefix(fault: DurabilityFault, fsync: FsyncMode, crash_at: usize) -> usize {
    match (fault, fsync) {
        (DurabilityFault::TornTail, _) => crash_at - 1,
        (DurabilityFault::CrashBeforeFlush, FsyncMode::Batch) => ((crash_at - 1) / BATCH) * BATCH,
        (DurabilityFault::CrashBeforeFlush, _) => crash_at - 1,
        (DurabilityFault::BitFlip, _) => unreachable!("bit flips corrupt; they do not crash"),
    }
}

/// The central matrix: crash point × fsync mode × fault. Every recovered
/// catalog answers every paper query byte-identically to the in-memory
/// baseline that executed the same durable prefix, on a first recovery
/// and on a second one over the healed log.
#[test]
fn recovery_matches_in_memory_baseline_across_crash_matrix() {
    for fault in [DurabilityFault::TornTail, DurabilityFault::CrashBeforeFlush] {
        for fsync in [FsyncMode::Always, FsyncMode::Batch, FsyncMode::Off] {
            for crash_at in [2, 5, 10] {
                let dir = temp_dir("matrix");
                run_until_crash(&dir, fsync, fault, crash_at, &common::paper_setup_stmts(true));
                let k = durable_prefix(fault, fsync, crash_at);
                let want = baseline_fingerprint(k);
                for pass in 1..=2 {
                    let (catalog, report) = recover_catalog(
                        &dir,
                        &Trace::disabled(),
                        &Obs::disabled(),
                    )
                    .unwrap();
                    assert_eq!(
                        report.wal_records_replayed, k as u64,
                        "durable prefix diverged ({fault:?}, {fsync:?}, crash at {crash_at})"
                    );
                    if fault == DurabilityFault::TornTail {
                        // The first recovery heals the tail in place; the
                        // second pass reads a clean log.
                        assert!(report.torn_tail_truncations <= 1);
                    }
                    assert_eq!(
                        query_fingerprint(&catalog),
                        want,
                        "recovered results diverged from the in-memory baseline \
                         ({fault:?}, {fsync:?}, crash at {crash_at}, recovery pass {pass})"
                    );
                }
            }
        }
    }
}

/// The DML crash matrix: the same oracle as the insert-only matrix, over
/// a history ending in deletes and replaces (the `paper_dml_stmts` tail),
/// with crash points placed inside that tail. Two properties per cell:
/// the recovered catalog answers every paper query byte-identically to
/// the in-memory baseline over the durable prefix, AND every derived
/// structure passes the rebuild oracle — a crash must never leave an
/// index entry, synopsis statistic, posting or label run behind for a
/// row whose delete/replace was durable (or vice versa). Recovery runs
/// twice per cell, so it is also checked idempotent.
#[test]
fn dml_recovery_matches_baseline_and_rebuild_oracle_across_crash_matrix() {
    let stmts = common::paper_dml_stmts(true);
    // Statements 13..17 are the DML tail: crash on the first delete, on
    // the insert-after-delete, and on the final replace.
    for fault in [DurabilityFault::TornTail, DurabilityFault::CrashBeforeFlush] {
        for fsync in [FsyncMode::Always, FsyncMode::Batch, FsyncMode::Off] {
            for crash_at in [13, 15, 17] {
                let dir = temp_dir("dml_matrix");
                run_until_crash(&dir, fsync, fault, crash_at, &stmts);
                let k = durable_prefix(fault, fsync, crash_at);
                let want = baseline_fingerprint_of(&stmts, k);
                for pass in 1..=2 {
                    let (catalog, report) = recover_catalog(
                        &dir,
                        &Trace::disabled(),
                        &Obs::disabled(),
                    )
                    .unwrap();
                    assert_eq!(
                        report.wal_records_replayed, k as u64,
                        "durable prefix diverged ({fault:?}, {fsync:?}, crash at {crash_at})"
                    );
                    assert_eq!(
                        query_fingerprint(&catalog),
                        want,
                        "recovered results diverged from the in-memory baseline \
                         ({fault:?}, {fsync:?}, crash at {crash_at}, recovery pass {pass})"
                    );
                    let oracle = xqdb_core::verify_derived_state(&catalog).unwrap();
                    assert!(
                        oracle.is_clean(),
                        "derived state diverged from rebuild ({fault:?}, {fsync:?}, \
                         crash at {crash_at}, recovery pass {pass}):\n{}",
                        oracle.render()
                    );
                }
            }
        }
    }
}

/// Crash *mid-checkpoint*: the injector is armed right before the
/// checkpoint call, so the fault fires on the checkpoint-marker append —
/// after tombstone reclamation, the page flush and the manifest write,
/// before the marker and the log prune. The freshly-written manifest
/// already covers the whole history, so recovery (in any fsync mode)
/// must adopt it, replay an empty suffix, answer byte-identically to the
/// full-history baseline, and pass the rebuild oracle. The deletes in
/// the history mean reclamation ran: a half-checkpointed tombstone state
/// that leaked would surface here.
#[test]
fn crash_mid_checkpoint_recovers_idempotently_with_clean_oracle() {
    let stmts = common::paper_dml_stmts(true);
    let want = baseline_fingerprint_of(&stmts, stmts.len());
    for fault in [DurabilityFault::TornTail, DurabilityFault::CrashBeforeFlush] {
        for fsync in [FsyncMode::Always, FsyncMode::Batch, FsyncMode::Off] {
            let dir = temp_dir("mid_checkpoint");
            {
                let (mut session, _) =
                    SqlSession::open_durable(&dir, WalConfig { fsync, ..Default::default() })
                        .unwrap();
                for stmt in &stmts {
                    session.execute(stmt).unwrap();
                }
                session
                    .durability()
                    .unwrap()
                    .set_crash_injector(Some(CrashInjector {
                        injector: Arc::new(FaultInjector::new(FaultMode::Nth(1))),
                        fault,
                    }))
                    .unwrap();
                let err = session
                    .checkpoint()
                    .expect_err("the checkpoint crashes on its marker append");
                assert_eq!(err.code, ErrorCode::StorageFault, "({fault:?}, {fsync:?})");
            }
            for pass in 1..=2 {
                let (catalog, report) = recover_catalog(
                    &dir,
                    &Trace::disabled(),
                    &Obs::disabled(),
                )
                .unwrap();
                assert_eq!(
                    report.wal_records_replayed, 0,
                    "the manifest covers the full history ({fault:?}, {fsync:?})"
                );
                assert_eq!(
                    query_fingerprint(&catalog),
                    want,
                    "mid-checkpoint crash changed results ({fault:?}, {fsync:?}, recovery pass {pass})"
                );
                let oracle = xqdb_core::verify_derived_state(&catalog).unwrap();
                assert!(
                    oracle.is_clean(),
                    "derived state diverged after mid-checkpoint crash \
                     ({fault:?}, {fsync:?}, recovery pass {pass}):\n{}",
                    oracle.render()
                );
            }
        }
    }
}

/// A checkpoint mid-history bounds replay without changing the oracle:
/// recovery = checkpointed pages + log suffix, still byte-identical to
/// the in-memory baseline over the durable prefix. The report's counters
/// prove the suffix-only property: the checkpointed rows come from heap
/// pages, not replay.
#[test]
fn crash_after_checkpoint_recovers_pages_plus_suffix() {
    let dir = temp_dir("post_checkpoint");
    let stmts = common::paper_setup_stmts(true);
    let config = WalConfig { fsync: FsyncMode::Always, ..Default::default() };
    {
        let (mut session, _) = SqlSession::open_durable(&dir, config).unwrap();
        for stmt in &stmts[..6] {
            session.execute(stmt).unwrap();
        }
        assert_eq!(session.checkpoint().unwrap(), Some(6));
        // Arm a torn tail two appends after the checkpoint.
        session
            .durability()
            .unwrap()
            .set_crash_injector(Some(CrashInjector {
                injector: Arc::new(FaultInjector::new(FaultMode::Nth(2))),
                fault: DurabilityFault::TornTail,
            }))
            .unwrap();
        let mut applied = 6;
        for stmt in &stmts[6..] {
            if session.execute(stmt).is_ok() {
                applied += 1;
            }
        }
        assert_eq!(applied, 7, "statement 8 tears the tail");
    }
    let (catalog, report) = recover_catalog(
        &dir,
        &Trace::disabled(),
        &Obs::disabled(),
    )
    .unwrap();
    assert_eq!(report.snapshot_covers, 0, "paged checkpoints write no snapshot file");
    assert_eq!(report.manifest_covers, 6);
    assert_eq!(report.manifest_tables, 3);
    assert_eq!(report.manifest_rows, 2, "the two checkpointed orders come from pages");
    assert_eq!(report.checkpoint_markers, 1);
    assert_eq!(report.wal_records_replayed, 1, "suffix-only: one post-checkpoint insert");
    assert_eq!(report.torn_tail_truncations, 1);
    assert!(dir.join(xqdb_core::PAGES_FILE).exists());
    assert_eq!(query_fingerprint(&catalog), baseline_fingerprint(7));
}

/// Replay must be idempotent against a page file that already holds
/// flushed copies of the logged rows (dirty pages reach disk on eviction
/// long before any checkpoint cuts the log). Recovery discards everything
/// above the freeze watermark before replaying; without that, the replay
/// would sit fresh copies of every row next to the stale flushed ones,
/// the first checkpoint would freeze the duplicate rowids in, and the
/// *next* recovery would reject the heap as corrupt.
#[test]
fn replay_is_idempotent_against_partially_flushed_pages() {
    let dir = temp_dir("replay_idempotent");
    {
        let (mut session, _) = SqlSession::open_durable(&dir, WalConfig::default()).unwrap();
        for stmt in common::paper_setup_stmts(true) {
            session.execute(&stmt).unwrap();
        }
        // Push every dirty heap page to disk WITHOUT cutting the log: the
        // page file now holds a copy of state the WAL still owns outright.
        session.catalog.db.pager().flush_all().unwrap();
    }
    // Reopening replays the whole WAL into that file...
    let (mut session, report) = SqlSession::open_durable(&dir, WalConfig::default()).unwrap();
    assert_eq!(report.wal_records_replayed, 12);
    // ...and the first checkpoint freezes whatever the heap now holds:
    session.checkpoint().unwrap();
    drop(session);
    // so this recovery adopts the checkpointed pages. Duplicate rowids
    // below row_count would surface here as a PageCorrupt error.
    let (session, report) = SqlSession::open_durable(&dir, WalConfig::default()).unwrap();
    assert_eq!(report.wal_records_replayed, 0, "manifest covers everything");
    assert_eq!(query_fingerprint(&session.catalog), baseline_fingerprint(usize::MAX));
}

/// A clean shutdown loses nothing in any mode, and the recovered session
/// keeps accepting writes that are themselves durable.
#[test]
fn clean_shutdown_recovers_everything_and_stays_writable() {
    let want = baseline_fingerprint(usize::MAX);
    for fsync in [FsyncMode::Always, FsyncMode::Batch, FsyncMode::Off] {
        let dir = temp_dir("clean");
        {
            let (mut session, _) =
                SqlSession::open_durable(&dir, WalConfig { fsync, ..Default::default() })
                    .unwrap();
            for stmt in common::paper_setup_stmts(true) {
                session.execute(&stmt).unwrap();
            }
            // Drop flushes: a clean shutdown is durable even in batch mode.
        }
        let (mut session, report) =
            SqlSession::open_durable(&dir, WalConfig { fsync, ..Default::default() }).unwrap();
        assert_eq!(report.wal_records_replayed, 12, "mode {fsync:?}");
        assert_eq!(query_fingerprint(&session.catalog), want, "mode {fsync:?}");
        session
            .execute("INSERT INTO orders VALUES (9, '<order><lineitem price=\"500.00\"/></order>')")
            .unwrap();
        drop(session);
        let (session, report) =
            SqlSession::open_durable(&dir, WalConfig { fsync, ..Default::default() }).unwrap();
        assert_eq!(report.last_seq, 13);
        assert_eq!(session.catalog.db.table("orders").unwrap().len(), 5);
        assert_eq!(session.catalog.index("li_price").unwrap().len(), 5);
    }
}

/// Silent media corruption: a flipped bit is undetectable at append time,
/// but recovery's CRC check catches it, quarantines the segment and
/// reports a typed `WalCorrupt` error naming the file — never a panic,
/// never a silently wrong catalog.
#[test]
fn bit_flip_quarantines_segment_with_typed_error_naming_it() {
    let dir = temp_dir("bitflip");
    let config = WalConfig { fsync: FsyncMode::Batch, ..Default::default() };
    {
        let (mut session, _) = SqlSession::open_durable(&dir, config).unwrap();
        session
            .durability()
            .unwrap()
            .set_crash_injector(Some(CrashInjector {
                injector: Arc::new(FaultInjector::new(FaultMode::Nth(6))),
                fault: DurabilityFault::BitFlip,
            }))
            .unwrap();
        // Bit flips are silent: every statement still succeeds.
        for stmt in common::paper_setup_stmts(true) {
            session.execute(&stmt).unwrap();
        }
    }
    let err = recover_catalog(
        &dir,
        &Trace::disabled(),
        &Obs::disabled(),
    )
    .expect_err("a flipped bit must fail recovery, not corrupt the catalog");
    assert_eq!(err.code, ErrorCode::WalCorrupt);
    let msg = err.to_string();
    assert!(msg.contains(".seg"), "error must name the segment: {msg}");
    assert!(msg.contains("quarantined"), "error must report the quarantine: {msg}");
    let quarantined: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 1, "the bad segment is set aside, not deleted");
}

/// After a simulated crash the writer refuses everything — no half-applied
/// statements, and the in-memory state of the crashed session never leaks
/// into the data directory.
#[test]
fn crashed_session_refuses_further_statements() {
    let dir = temp_dir("refuse");
    let (mut session, _) =
        SqlSession::open_durable(&dir, WalConfig::default()).unwrap();
    session
        .durability()
        .unwrap()
        .set_crash_injector(Some(CrashInjector {
            injector: Arc::new(FaultInjector::new(FaultMode::Nth(1))),
            fault: DurabilityFault::CrashBeforeFlush,
        }))
        .unwrap();
    for stmt in common::paper_setup_stmts(true).iter().take(3) {
        let err = session.execute(stmt).expect_err("crashed writer vetoes everything");
        assert_eq!(err.code, ErrorCode::StorageFault);
    }
    // The vetoed DDL was never applied in memory either.
    assert!(session.catalog.db.table_names().is_empty());
    // And a checkpoint of the crashed session fails typed, too.
    assert_eq!(session.checkpoint().unwrap_err().code, ErrorCode::StorageFault);
}

/// The environment auto-attach used by `scripts/lint.sh`'s durable test
/// pass: `XQDB_DATA_DIR` makes `SqlSession::new()` durable. Asserted here
/// directly (without the env dance) via the same entry point the suite
/// runs through, so the durable-suite configuration cannot silently rot.
#[test]
fn durable_sessions_match_in_memory_results_exactly() {
    let dir = temp_dir("parity");
    let (mut durable, _) = SqlSession::open_durable(&dir, WalConfig::default()).unwrap();
    let mut memory = SqlSession::default();
    for stmt in common::paper_setup_stmts(true) {
        durable.execute(&stmt).unwrap();
        memory.execute(&stmt).unwrap();
    }
    assert_eq!(
        query_fingerprint(&durable.catalog),
        query_fingerprint(&memory.catalog),
        "durable and in-memory sessions diverged"
    );
}

// ---------------------------------------------- relocation and snapshots
//
// A checkpoint relocates the live records of sparse frozen pages and lists
// the vacated pages as free in its manifest, which also carries every
// index's keys for a bulk load. The scenarios below drive a checkpoint
// that does vacate pages and crash around it.

/// Orders shaped like the paper's, padded so a few share a heap page.
fn bulk_order(n: usize) -> String {
    format!(
        "INSERT INTO orders VALUES ({n}, '<order><custid>{}</custid><lineitem price=\"{}.50\">\
         <product><id>p{}</id></product></lineitem><note>{}</note></order>')",
        2000 + n,
        n % 400,
        n % 7,
        "padding ".repeat(90)
    )
}

/// The history around a relocating checkpoint: the paper setup plus 96
/// padded orders (checkpointed, so their pages freeze), then DML that
/// leaves most of those pages under half full.
fn relocation_phases() -> (Vec<String>, Vec<String>) {
    let mut load = common::paper_setup_stmts(true);
    load.extend((100..196).map(bulk_order));
    let dml = vec![
        "DELETE FROM orders WHERE ordid >= 100 AND ordid < 170".to_string(),
        "DELETE FROM orders WHERE ordid >= 175 AND ordid < 185".to_string(),
        "UPDATE orders SET orddoc = '<order><custid>2190</custid><lineitem price=\"390.00\"/></order>' WHERE ordid = 190"
            .to_string(),
        "UPDATE orders SET orddoc = '<order><custid>1003</custid><lineitem price=\"475.00\"><product><id>p9</id></product></lineitem></order>' WHERE ordid = 3"
            .to_string(),
    ];
    (load, dml)
}

/// Paper queries plus every stored order document, in row order.
fn relocation_fingerprint(catalog: &Catalog) -> Vec<String> {
    let mut out = query_fingerprint(catalog);
    let all = run_xquery(catalog, "db2-fn:xmlcolumn('ORDERS.ORDDOC')").unwrap();
    out.push(xqdb_xmlparse::serialize_sequence(&all.sequence));
    out
}

fn relocation_baseline(stmts: &[String]) -> Vec<String> {
    let mut s = SqlSession::default();
    for stmt in stmts {
        s.execute(stmt).unwrap();
    }
    relocation_fingerprint(&s.catalog)
}

/// Run the load, checkpoint, run the DML and flush: the state right
/// before the relocating checkpoint.
fn before_relocation(dir: &std::path::Path) -> SqlSession {
    let (load, dml) = relocation_phases();
    let config = WalConfig { fsync: FsyncMode::Always, ..Default::default() };
    let (mut session, _) = SqlSession::open_durable(dir, config).unwrap();
    for stmt in &load {
        session.execute(stmt).unwrap();
    }
    session.checkpoint().unwrap();
    for stmt in &dml {
        session.execute(stmt).unwrap();
    }
    session
}

fn recover_and_check(dir: &std::path::Path, want: &[String], label: &str) -> u64 {
    let (catalog, report) =
        recover_catalog(dir, &Trace::disabled(), &Obs::disabled())
            .unwrap();
    assert_eq!(relocation_fingerprint(&catalog), want, "{label}: results diverged");
    let oracle = xqdb_core::verify_derived_state(&catalog).unwrap();
    assert!(oracle.is_clean(), "{label}: derived state diverged:\n{}", oracle.render());
    report.wal_records_replayed
}

/// The checkpoint under test: it must vacate pages. Returns them.
fn relocating_checkpoint(session: &mut SqlSession, dir: &std::path::Path) -> Vec<u64> {
    let heap_before: Vec<u64> =
        session.catalog.db.table("orders").unwrap().heap_pages().to_vec();
    session.checkpoint().unwrap();
    let manifest = xqdb_wal::read_manifest(dir).unwrap().unwrap();
    let vacated: Vec<u64> =
        manifest.free_pages.iter().copied().filter(|p| heap_before.contains(p)).collect();
    assert!(!vacated.is_empty(), "the DML left sparse frozen pages to relocate");
    assert_eq!(manifest.snapshots.len(), manifest.indexes.len(), "every index is snapshotted");
    vacated
}

#[test]
fn crash_before_the_relocating_manifest_recovers_from_the_old_one() {
    let dir = temp_dir("reloc_before_manifest");
    let saved = temp_dir("reloc_before_manifest_saved");
    let (load, dml) = relocation_phases();
    let want = relocation_baseline(&[load, dml].concat());
    let mut session = before_relocation(&dir);
    // The crash is simulated by running the whole checkpoint and rolling
    // the manifest and log back. That is faithful only while the pages the
    // checkpoint frees after its manifest keep their bytes on disk, as
    // they do in a real crash before the manifest (the freeing never
    // runs): give the pool room to hold their Free images.
    session.catalog.db.pager().set_capacity(1024).unwrap();
    // The directory as the crash leaves it: the old manifest and log...
    std::fs::create_dir_all(&saved).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.file_name().unwrap() != xqdb_core::PAGES_FILE {
            std::fs::copy(&path, saved.join(path.file_name().unwrap())).unwrap();
        }
    }
    // ...next to a page file the checkpoint already flushed: relocated
    // copies written, vacated pages not yet freed.
    relocating_checkpoint(&mut session, &dir);
    drop(session);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.file_name().unwrap() != xqdb_core::PAGES_FILE {
            std::fs::remove_file(&path).unwrap();
        }
    }
    for entry in std::fs::read_dir(&saved).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    // A half-written replacement manifest is what the rename never reached.
    std::fs::write(dir.join(format!("{}.tmp", xqdb_wal::MANIFEST_FILE)), b"XQMANIF2\x10").unwrap();
    let replayed = recover_and_check(&dir, &want, "crash before manifest");
    assert_eq!(replayed, 4, "the old manifest's suffix is the DML");
}

#[test]
fn crash_on_the_marker_after_a_relocating_manifest_keeps_the_new_one() {
    let (load, dml) = relocation_phases();
    let want = relocation_baseline(&[load, dml].concat());
    for fault in [DurabilityFault::TornTail, DurabilityFault::CrashBeforeFlush] {
        let dir = temp_dir("reloc_marker");
        let mut session = before_relocation(&dir);
        let heap_before: Vec<u64> =
            session.catalog.db.table("orders").unwrap().heap_pages().to_vec();
        session
            .durability()
            .unwrap()
            .set_crash_injector(Some(CrashInjector {
                injector: Arc::new(FaultInjector::new(FaultMode::Nth(1))),
                fault,
            }))
            .unwrap();
        let err = session.checkpoint().expect_err("the checkpoint crashes on its marker");
        assert_eq!(err.code, ErrorCode::StorageFault);
        drop(session);
        let manifest = xqdb_wal::read_manifest(&dir).unwrap().unwrap();
        assert!(
            manifest.free_pages.iter().any(|p| heap_before.contains(p)),
            "the new manifest lists vacated pages ({fault:?})"
        );
        let replayed = recover_and_check(&dir, &want, &format!("marker crash {fault:?}"));
        assert_eq!(replayed, 0, "the new manifest covers everything ({fault:?})");
    }
}

#[test]
fn torn_vacated_page_after_a_relocating_checkpoint_is_discarded() {
    use std::io::{Seek, SeekFrom, Write};
    let dir = temp_dir("reloc_torn");
    let (load, dml) = relocation_phases();
    let want = relocation_baseline(&[load, dml].concat());
    let mut session = before_relocation(&dir);
    let vacated = relocating_checkpoint(&mut session, &dir);
    // Freed pages are rewritten: flush so those images reach the file.
    session.catalog.db.pager().flush_all().unwrap();
    drop(session);
    // Tear every vacated page: half of it garbage, the CRC now wrong.
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(xqdb_core::PAGES_FILE))
        .unwrap();
    for &page in &vacated {
        file.seek(SeekFrom::Start(page * xqdb_pager::PAGE_SIZE as u64 + 100)).unwrap();
        file.write_all(&[0xA5; xqdb_pager::PAGE_SIZE / 2]).unwrap();
    }
    drop(file);
    let replayed = recover_and_check(&dir, &want, "torn vacated page");
    assert_eq!(replayed, 0);
}

#[test]
fn dml_reusing_vacated_pages_survives_a_second_checkpoint_and_reopen() {
    let dir = temp_dir("reloc_reuse");
    let (load, dml) = relocation_phases();
    let mut after: Vec<String> = (300..330).map(bulk_order).collect();
    after.push("DELETE FROM orders WHERE ordid = 190".to_string());
    after.push(
        "UPDATE orders SET orddoc = '<order><custid>2186</custid><lineitem price=\"86.00\"/></order>' WHERE ordid = 186"
            .to_string(),
    );
    let mut session = before_relocation(&dir);
    let vacated = relocating_checkpoint(&mut session, &dir);
    for stmt in &after[..20] {
        session.execute(stmt).unwrap();
    }
    let reused: Vec<u64> = session
        .catalog
        .db
        .table("orders")
        .unwrap()
        .heap_pages()
        .iter()
        .copied()
        .filter(|p| vacated.contains(p))
        .collect();
    assert!(!reused.is_empty(), "new rows land on vacated page ids");
    session.checkpoint().unwrap();
    for stmt in &after[20..] {
        session.execute(stmt).unwrap();
    }
    drop(session);
    let want = relocation_baseline(&[load, dml, after].concat());
    let replayed = recover_and_check(&dir, &want, "reuse then reopen");
    assert_eq!(replayed, 12, "the suffix after the second checkpoint");
    // And once more through a checkpoint of the recovered session.
    let (mut session, _) = SqlSession::open_durable(&dir, WalConfig::default()).unwrap();
    session.checkpoint().unwrap();
    drop(session);
    assert_eq!(recover_and_check(&dir, &want, "recovered, checkpointed, reopened"), 0);
}

/// A checkpoint that fails after relocating (here its manifest cannot be
/// written) keeps the pages it vacated off the allocator, because the
/// manifest on disk still needs their bytes, and hands them to the next
/// checkpoint, whose manifest lists them as free. Were they dropped, they
/// would stay frozen on no list, holding old copies of relocated rows
/// that the next recovery reads as duplicate rowids.
#[test]
fn failed_relocating_checkpoint_hands_its_vacated_pages_to_the_next_one() {
    let dir = temp_dir("reloc_failed");
    let (load, dml) = relocation_phases();
    let after: Vec<String> = (300..330).map(bulk_order).collect();
    let mut session = before_relocation(&dir);
    let pages = |s: &SqlSession| s.catalog.db.table("orders").unwrap().heap_pages().to_vec();
    let heap_before = pages(&session);
    // A directory where the temporary manifest goes fails the write.
    let blocker = dir.join(format!("{}.tmp", xqdb_wal::MANIFEST_FILE));
    std::fs::create_dir(&blocker).unwrap();
    let err = session.checkpoint().expect_err("the manifest cannot be written");
    assert_eq!(err.code, ErrorCode::StorageFault);
    std::fs::remove_dir(&blocker).unwrap();
    let vacated: Vec<u64> =
        heap_before.iter().copied().filter(|p| !pages(&session).contains(p)).collect();
    assert!(!vacated.is_empty(), "the failed checkpoint relocated pages");
    for stmt in &after {
        session.execute(stmt).unwrap();
    }
    assert!(
        pages(&session).iter().all(|p| !vacated.contains(p)),
        "no insert lands on a page the durable manifest still needs"
    );
    session.checkpoint().unwrap();
    let manifest = xqdb_wal::read_manifest(&dir).unwrap().unwrap();
    assert!(
        vacated.iter().all(|p| manifest.free_pages.contains(p)),
        "the next manifest lists the earlier vacated pages as free"
    );
    drop(session);
    let want = relocation_baseline(&[load, dml, after].concat());
    assert_eq!(recover_and_check(&dir, &want, "failed then successful checkpoint"), 0);
}

/// Relocation that vacates the page holding a row's superseded copy ends
/// the row's stale entry: the manifest's stale list shrinks with
/// reclamation rather than growing with every REPLACE of a frozen row.
#[test]
fn relocation_drops_stale_rows_whose_old_copies_it_vacated() {
    let dir = temp_dir("reloc_stale");
    let (load, dml) = relocation_phases();
    let mut session = before_relocation(&dir);
    let stale_before: Vec<u64> =
        session.catalog.db.table("orders").unwrap().stale_rows().map(|(r, _)| r).collect();
    assert_eq!(stale_before.len(), 2, "both UPDATEs replaced a frozen row");
    relocating_checkpoint(&mut session, &dir);
    let manifest = xqdb_wal::read_manifest(&dir).unwrap().unwrap();
    let orders = manifest.tables.iter().find(|t| t.name == "ORDERS").unwrap();
    assert!(
        orders.stale.len() < stale_before.len(),
        "a vacated page held a superseded copy: {:?} -> {:?}",
        stale_before,
        orders.stale
    );
    drop(session);
    let want = relocation_baseline(&[load, dml].concat());
    assert_eq!(recover_and_check(&dir, &want, "stale list after relocation"), 0);
}

/// A data directory written before manifests carried free lists and
/// index snapshots (`XQMANIF1`: a checkpoint after the load, a second one
/// after a logical delete and a stale REPLACE, then a logged suffix)
/// still recovers — indexes by back-fill, the stale row by its
/// highest-page copy — and checkpoints into the current format.
#[test]
fn version_one_manifest_fixture_still_recovers() {
    let fixture =
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/manifest_v1"));
    let dir = temp_dir("manifest_v1");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    let bytes = std::fs::read(dir.join(xqdb_wal::MANIFEST_FILE)).unwrap();
    assert_eq!(&bytes[..8], b"XQMANIF1");
    let want = baseline_fingerprint_of(&common::paper_dml_stmts(true), usize::MAX);
    let (catalog, report) =
        recover_catalog(&dir, &Trace::disabled(), &Obs::disabled())
            .unwrap();
    assert_eq!(report.manifest_covers, 15);
    assert_eq!(report.wal_records_replayed, 3);
    assert!(report.xml_docs_parsed > 0, "no snapshot: the index is back-filled");
    assert_eq!(query_fingerprint(&catalog), want);
    assert!(xqdb_core::verify_derived_state(&catalog).unwrap().is_clean());
    drop(catalog);
    let (mut session, _) = SqlSession::open_durable(&dir, WalConfig::default()).unwrap();
    session.checkpoint().unwrap();
    drop(session);
    let bytes = std::fs::read(dir.join(xqdb_wal::MANIFEST_FILE)).unwrap();
    assert_eq!(&bytes[..8], b"XQMANIF3");
    let (catalog, report) =
        recover_catalog(&dir, &Trace::disabled(), &Obs::disabled())
            .unwrap();
    assert_eq!(report.xml_docs_parsed, 0, "the index now loads from its snapshot");
    assert_eq!(query_fingerprint(&catalog), want);
    assert!(xqdb_core::verify_derived_state(&catalog).unwrap().is_clean());
}

/// The statements the `manifest_v2` fixture holds: the paper's setup, one
/// large order that keeps the orders page dense enough that checkpoint
/// relocation leaves the stale copy on it, and the paper's DML tail.
fn manifest_v2_stmts() -> Vec<String> {
    let mut stmts = common::paper_setup_stmts(true);
    let dml = common::paper_dml_stmts(true).split_off(stmts.len());
    let note = "n".repeat(6200);
    stmts.push(format!(
        "INSERT INTO orders VALUES (6, '<order><custid>1006</custid><note>{note}</note></order>')"
    ));
    stmts.extend(dml);
    stmts
}

/// A pure child chain the path prefilter answers: only order 6 has a note.
const NOTE_QUERY: &str = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/note/string-length(.)";

/// The rows the prefilter skipped for [`NOTE_QUERY`], with its answer.
fn note_query(catalog: &Catalog) -> (usize, String) {
    let out = run_xquery(catalog, NOTE_QUERY).unwrap();
    (out.stats.prefilter_docs_skipped, xqdb_xmlparse::serialize_sequence(&out.sequence))
}

/// A data directory written before manifests carried path summaries
/// (`XQMANIF2`: record headers with a 32-byte path signature, a checkpoint
/// after the load, a second one after a logical delete and a stale
/// REPLACE, then a logged suffix) still recovers: the first open parses
/// the adopted rows once to rebuild their postings, a checkpoint writes
/// the current format, and the reopen parses nothing.
#[test]
fn version_two_manifest_fixture_still_recovers() {
    let fixture =
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/manifest_v2"));
    let dir = temp_dir("manifest_v2");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    let magic = || std::fs::read(dir.join(xqdb_wal::MANIFEST_FILE)).unwrap()[..8].to_vec();
    assert_eq!(magic(), b"XQMANIF2");
    let manifest = xqdb_wal::read_manifest(&dir).unwrap().unwrap();
    let orders = manifest.tables.iter().find(|t| t.name == "ORDERS").unwrap();
    assert_eq!((orders.deleted.len(), orders.stale.len()), (1, 1));
    let stmts = manifest_v2_stmts();
    let want = baseline_fingerprint_of(&stmts, usize::MAX);
    let mut memory = SqlSession::default();
    for stmt in &stmts {
        memory.execute(stmt).unwrap();
    }
    let want_note = note_query(&memory.catalog);
    assert_eq!(want_note, (3, "6200".to_string()));

    let (catalog, report) = recover_catalog(&dir, &Trace::disabled(), &Obs::disabled()).unwrap();
    assert_eq!(report.manifest_covers, 16);
    assert_eq!(report.wal_records_replayed, 3);
    // 4 orders and 2 customers adopted and parsed for their postings, and
    // 2 rows read by the replayed DELETE and UPDATE.
    assert_eq!(report.xml_docs_parsed, 8);
    assert_eq!(query_fingerprint(&catalog), want);
    assert_eq!(note_query(&catalog), want_note);
    assert!(xqdb_core::verify_derived_state(&catalog).unwrap().is_clean());
    drop(catalog);

    let (mut session, _) = SqlSession::open_durable(&dir, WalConfig::default()).unwrap();
    session.checkpoint().unwrap();
    drop(session);
    assert_eq!(magic(), b"XQMANIF3");
    let (catalog, report) = recover_catalog(&dir, &Trace::disabled(), &Obs::disabled()).unwrap();
    assert_eq!(report.xml_docs_parsed, 0, "the postings now load from the manifest");
    assert_eq!(query_fingerprint(&catalog), want);
    assert_eq!(note_query(&catalog), want_note);
    assert!(xqdb_core::verify_derived_state(&catalog).unwrap().is_clean());
}
