//! # xqdb-wal — durability for the XML query engine
//!
//! A std-only, checksummed, segmented write-ahead log of *logical*
//! operations (DDL and row inserts), plus snapshot/checkpoint files that
//! bound replay cost. The engine logs every mutation **before** applying
//! it; recovery replays the newest snapshot and the surviving log suffix
//! through the ordinary catalog code paths — indexes are rebuilt by the
//! same (parallelizable) back-fill a live `CREATE INDEX` uses, so the
//! paper's Definition 1 doubles as the recovery-correctness oracle: a
//! recovered database answers every query byte-identically to one that
//! never crashed (up to the acknowledged-durable prefix the fsync mode
//! guarantees).
//!
//! Layout and failure semantics are documented on [`log`]; the record
//! encoding and its CRC32 framing on [`record`]. Deterministic crash
//! simulation ([`CrashInjector`] + `xqdb_xdm::DurabilityFault`) drives the
//! chaos-recovery matrix in `tests/chaos_recovery.rs`.
//!
//! The crate deliberately knows nothing about tables, values, or queries —
//! only records, frames, segments, and snapshots. The mapping to engine
//! state lives in `xqdb-core`'s `durability` module.

pub mod log;
pub mod manifest;
pub mod record;

pub use log::{
    replay, segment_file_name, snapshot_file_name, write_snapshot, CrashInjector, FsyncMode,
    Recovered, WalConfig, WalWriter,
};
pub use manifest::{
    load_manifest, read_manifest, write_manifest, IndexSnapshot, Manifest, ManifestTable, MANIFEST_FILE,
};
pub use record::{crc32, parse_frame, FrameOutcome, WalRecord, WalValue, FRAME_HEADER};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use xqdb_xdm::{DurabilityFault, ErrorCode, FaultInjector, FaultMode};

    fn temp_dir(label: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/test-tmp"))
            .join(format!(
            "wal_{label}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn insert(i: i64) -> WalRecord {
        WalRecord::Insert {
            table: "ORDERS".into(),
            values: vec![WalValue::Integer(i), WalValue::Xml(format!("<order id=\"{i}\"/>"))],
        }
    }

    fn append_all(w: &mut WalWriter, n: i64) {
        for i in 0..n {
            w.append(&insert(i)).unwrap();
        }
    }

    #[test]
    fn write_then_replay_roundtrips_all_modes() {
        for fsync in [FsyncMode::Always, FsyncMode::Batch, FsyncMode::Off] {
            let dir = temp_dir("roundtrip");
            {
                let mut w =
                    WalWriter::open(&dir, WalConfig { fsync, ..WalConfig::default() }, 0).unwrap();
                append_all(&mut w, 10);
            }
            let rec = replay(&dir).unwrap();
            assert_eq!(rec.last_seq, 10, "mode {fsync:?}");
            assert_eq!(rec.wal_records.len(), 10);
            assert_eq!(rec.torn_tail_truncations, 0);
            for (i, (seq, r)) in rec.wal_records.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1);
                assert_eq!(*r, insert(i as i64));
            }
        }
    }

    #[test]
    fn segment_rotation_splits_and_replays_in_order() {
        let dir = temp_dir("rotate");
        {
            let mut w = WalWriter::open(
                &dir,
                WalConfig { segment_max_bytes: 128, fsync: FsyncMode::Off, ..WalConfig::default() },
                0,
            )
            .unwrap();
            append_all(&mut w, 20);
        }
        let rec = replay(&dir).unwrap();
        assert!(rec.segments_scanned > 1, "expected rotation, got 1 segment");
        assert_eq!(rec.wal_records.len(), 20);
        assert_eq!(rec.last_seq, 20);
    }

    #[test]
    fn reopened_writer_continues_sequence_in_new_segment() {
        let dir = temp_dir("reopen");
        {
            let mut w = WalWriter::open(&dir, WalConfig::default(), 0).unwrap();
            append_all(&mut w, 3);
        }
        let rec = replay(&dir).unwrap();
        {
            let mut w = WalWriter::open(&dir, WalConfig::default(), rec.last_seq).unwrap();
            let (seq, _) = w.append(&insert(3)).unwrap();
            assert_eq!(seq, 4);
        }
        let rec = replay(&dir).unwrap();
        assert_eq!(rec.wal_records.len(), 4);
        assert_eq!(rec.segments_scanned, 2, "reopen starts a fresh segment");
    }

    #[test]
    fn torn_tail_is_truncated_with_warning() {
        let dir = temp_dir("torn");
        {
            let mut w = WalWriter::open(
                &dir,
                WalConfig { fsync: FsyncMode::Always, ..WalConfig::default() },
                0,
            )
            .unwrap();
            w.set_crash_injector(Some(CrashInjector {
                injector: Arc::new(FaultInjector::new(FaultMode::Nth(5))),
                fault: DurabilityFault::TornTail,
            }));
            for i in 0..10 {
                let _ = w.append(&insert(i));
            }
        }
        let rec = replay(&dir).unwrap();
        assert_eq!(rec.torn_tail_truncations, 1);
        assert_eq!(rec.last_seq, 4, "records before the torn one survive");
        // After truncation the log is clean again.
        let rec2 = replay(&dir).unwrap();
        assert_eq!(rec2.torn_tail_truncations, 0);
        assert_eq!(rec2.last_seq, 4);
    }

    #[test]
    fn crash_before_flush_loses_batch_never_corrupts() {
        let dir = temp_dir("crash");
        {
            let mut w = WalWriter::open(
                &dir,
                WalConfig { fsync: FsyncMode::Batch, batch_records: 4, ..WalConfig::default() },
                0,
            )
            .unwrap();
            w.set_crash_injector(Some(CrashInjector {
                injector: Arc::new(FaultInjector::new(FaultMode::Nth(7))),
                fault: DurabilityFault::CrashBeforeFlush,
            }));
            for i in 0..10 {
                let _ = w.append(&insert(i));
            }
        }
        let rec = replay(&dir).unwrap();
        // Batches of 4: appends 1-4 flushed, 5-6 buffered and lost with 7.
        assert_eq!(rec.last_seq, 4);
        assert_eq!(rec.torn_tail_truncations, 0);
    }

    #[test]
    fn crashed_writer_refuses_further_appends() {
        let dir = temp_dir("dead");
        let mut w = WalWriter::open(&dir, WalConfig::default(), 0).unwrap();
        w.set_crash_injector(Some(CrashInjector {
            injector: Arc::new(FaultInjector::new(FaultMode::Nth(1))),
            fault: DurabilityFault::CrashBeforeFlush,
        }));
        assert_eq!(w.append(&insert(0)).unwrap_err().code, ErrorCode::StorageFault);
        assert_eq!(w.append(&insert(1)).unwrap_err().code, ErrorCode::StorageFault);
        assert_eq!(w.flush().unwrap_err().code, ErrorCode::StorageFault);
    }

    #[test]
    fn bit_flip_quarantines_segment_with_typed_error() {
        let dir = temp_dir("flip");
        {
            let mut w = WalWriter::open(
                &dir,
                WalConfig { fsync: FsyncMode::Off, ..WalConfig::default() },
                0,
            )
            .unwrap();
            w.set_crash_injector(Some(CrashInjector {
                injector: Arc::new(FaultInjector::new(FaultMode::Nth(3))),
                fault: DurabilityFault::BitFlip,
            }));
            append_all(&mut w, 6); // bit flip is silent: all appends succeed
        }
        let err = replay(&dir).unwrap_err();
        assert_eq!(err.code, ErrorCode::WalCorrupt);
        assert!(err.message.contains(".seg"), "error must name the segment: {}", err.message);
        assert!(err.message.contains("quarantined"), "{}", err.message);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().any(|n| n.ends_with(".seg.quarantined")), "{names:?}");
    }

    #[test]
    fn snapshot_bounds_replay_and_prune_removes_covered_segments() {
        let dir = temp_dir("snap");
        let mut w = WalWriter::open(
            &dir,
            WalConfig { fsync: FsyncMode::Off, ..WalConfig::default() },
            0,
        )
        .unwrap();
        append_all(&mut w, 6);
        // Checkpoint: flush, snapshot the (pretend) state, rotate, prune.
        w.flush().unwrap();
        let state: Vec<WalRecord> = (0..6).map(insert).collect();
        write_snapshot(&dir, w.next_seq() - 1, &state).unwrap();
        w.rotate().unwrap();
        w.prune(w.next_seq() - 1).unwrap();
        let (seq, _) = w.append(&insert(6)).unwrap();
        assert_eq!(seq, 7);
        drop(w);
        let rec = replay(&dir).unwrap();
        assert_eq!(rec.snapshot_covers, 6);
        assert_eq!(rec.snapshot_records.len(), 6);
        assert_eq!(rec.wal_records.len(), 1, "only the post-checkpoint record replays");
        assert_eq!(rec.last_seq, 7);
        assert_eq!(rec.segments_scanned, 1, "covered segments pruned");
    }

    #[test]
    fn manifest_checkpoint_bounds_replay_to_the_suffix() {
        let dir = temp_dir("manifest_ckpt");
        let mut w = WalWriter::open(
            &dir,
            WalConfig { fsync: FsyncMode::Off, ..WalConfig::default() },
            0,
        )
        .unwrap();
        append_all(&mut w, 6);
        // Paged checkpoint: flush, manifest, rotate, checkpoint marker, prune.
        w.flush().unwrap();
        let covers = w.next_seq() - 1;
        let manifest = Manifest { covers, frozen_below: 9, ..Manifest::default() };
        write_manifest(&dir, &manifest).unwrap();
        w.rotate().unwrap();
        w.append(&WalRecord::Checkpoint { covers }).unwrap();
        w.prune(covers).unwrap();
        let (seq, _) = w.append(&insert(6)).unwrap();
        assert_eq!(seq, 8, "checkpoint marker takes seq 7");
        drop(w);
        let rec = replay(&dir).unwrap();
        assert_eq!(rec.snapshot_covers, 0, "no snapshot file involved");
        assert_eq!(rec.manifest.as_ref().map(|m| m.covers), Some(6));
        assert_eq!(rec.manifest.as_ref().map(|m| m.frozen_below), Some(9));
        assert_eq!(
            rec.wal_records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![7, 8],
            "only the checkpoint marker and the post-checkpoint insert replay"
        );
        assert!(matches!(rec.wal_records[0].1, WalRecord::Checkpoint { covers: 6 }));
        assert_eq!(rec.last_seq, 8);
        assert_eq!(rec.segments_scanned, 1, "covered segments pruned");
    }

    #[test]
    fn sequence_gap_is_wal_corrupt() {
        let dir = temp_dir("gap");
        {
            let mut w = WalWriter::open(
                &dir,
                WalConfig { segment_max_bytes: 64, fsync: FsyncMode::Off, ..WalConfig::default() },
                0,
            )
            .unwrap();
            append_all(&mut w, 9);
        }
        let segs: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        assert!(segs.len() >= 3, "need a middle segment to delete");
        let mut sorted = segs.clone();
        sorted.sort();
        std::fs::remove_file(&sorted[1]).unwrap();
        let err = replay(&dir).unwrap_err();
        assert_eq!(err.code, ErrorCode::WalCorrupt);
        assert!(err.message.contains("gap"), "{}", err.message);
    }

    #[test]
    fn fsync_mode_parsing() {
        assert_eq!(FsyncMode::parse("ALWAYS"), Some(FsyncMode::Always));
        assert_eq!(FsyncMode::parse("batch"), Some(FsyncMode::Batch));
        assert_eq!(FsyncMode::parse("Off"), Some(FsyncMode::Off));
        assert_eq!(FsyncMode::parse("sometimes"), None);
        assert_eq!(FsyncMode::Batch.as_str(), "batch");
    }
}
