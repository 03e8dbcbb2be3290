//! Segmented log files, the write-ahead writer, snapshots, and replay.
//!
//! ## On-disk layout
//!
//! A data directory holds:
//!
//! * **Segments** `wal-<first_seq>.seg`: an 16-byte header (8-byte magic +
//!   `u64` first sequence number) followed by record frames. Record `i` of
//!   a segment implicitly has sequence `first_seq + i` — sequence numbers
//!   are global, 1-based, and never reused.
//! * **Snapshots** `snapshot-<covers_seq>.snap`: a header (magic +
//!   `u64 covers_seq` + `u32 record count`) followed by the framed records
//!   that rebuild all state up to and including `covers_seq`. Snapshots are
//!   written to a temp file, fsynced, then renamed — they are atomic, so a
//!   named snapshot is always complete (a CRC failure inside one is media
//!   damage, not a crash artifact).
//!
//! ## Failure semantics
//!
//! * An incomplete frame at the end of the **newest** segment is a *torn
//!   tail* — the expected result of a crash mid-append. Replay truncates
//!   the file back to the last complete frame and reports a warning count.
//! * A CRC mismatch, bad magic, undecodable record, or incomplete frame
//!   anywhere **else** is *corruption*. The damaged file is renamed to
//!   `<name>.quarantined` and replay fails with a typed
//!   [`ErrorCode::WalCorrupt`](xqdb_xdm::ErrorCode) error naming it —
//!   never a panic, and never a silently shortened history.
//! * A gap in sequence numbers (e.g. a previously quarantined segment) is
//!   likewise `WalCorrupt`: replaying around a hole would violate the
//!   Definition 1 recovery oracle.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use xqdb_xdm::{DurabilityFault, FaultInjector, XdmError};

use crate::manifest::{read_manifest, Manifest};
use crate::record::{parse_frame, FrameOutcome, WalRecord};

const SEGMENT_MAGIC: &[u8; 8] = b"XQWALSG1";
const SNAPSHOT_MAGIC: &[u8; 8] = b"XQWALSN1";
const SEGMENT_HEADER: usize = 16; // magic + first_seq
const SNAPSHOT_HEADER: usize = 20; // magic + covers_seq + count

/// When appended records reach the operating system and the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// `fsync` after every append: an acknowledged record survives power
    /// loss, at one disk round-trip per operation.
    Always,
    /// Buffer appends in process and `write`+`fsync` them every
    /// [`WalConfig::batch_records`] appends (and on flush/checkpoint/clean
    /// shutdown). A crash can lose up to one batch of acknowledged records
    /// — never corrupt the log. The default.
    #[default]
    Batch,
    /// `write` each record to the OS immediately but never `fsync`.
    /// Survives process crashes; power loss may lose the OS cache.
    Off,
}

impl FsyncMode {
    /// Parse `always` / `batch` / `off` (case-insensitive).
    pub fn parse(s: &str) -> Option<FsyncMode> {
        match s.to_ascii_lowercase().as_str() {
            "always" => Some(FsyncMode::Always),
            "batch" => Some(FsyncMode::Batch),
            "off" => Some(FsyncMode::Off),
            _ => None,
        }
    }

    /// The canonical spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            FsyncMode::Always => "always",
            FsyncMode::Batch => "batch",
            FsyncMode::Off => "off",
        }
    }
}

/// Writer configuration.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Durability/throughput trade-off; see [`FsyncMode`].
    pub fsync: FsyncMode,
    /// Rotate to a fresh segment once the current one exceeds this size.
    pub segment_max_bytes: u64,
    /// In `batch` mode, flush after this many buffered records.
    pub batch_records: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { fsync: FsyncMode::default(), segment_max_bytes: 4 * 1024 * 1024, batch_records: 8 }
    }
}

/// A durability fault armed on a [`WalWriter`]: the injector decides *when*
/// (counting appends), the fault decides *what* (see
/// [`DurabilityFault`]).
#[derive(Debug, Clone)]
pub struct CrashInjector {
    /// The deterministic trigger.
    pub injector: Arc<FaultInjector>,
    /// The damage done when it fires.
    pub fault: DurabilityFault,
}

/// The append side of the log.
///
/// Appends are **write-ahead**: callers log the operation first and mutate
/// in-memory state only after `append` returns `Ok`. A writer that has
/// simulated a crash refuses all further work with a typed `StorageFault`,
/// so the in-memory state of a crashed session never runs ahead of what
/// recovery can reproduce (except for acknowledged-but-unsynced batches,
/// which is exactly the documented `fsync batch` trade-off).
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    config: WalConfig,
    file: Option<File>,
    segment_bytes: u64,
    segment_first_seq: Option<u64>,
    next_seq: u64,
    pending: Vec<u8>,
    pending_records: usize,
    crashed: bool,
    crash: Option<CrashInjector>,
}

impl WalWriter {
    /// Open a writer positioned after `last_seq` (0 for an empty log).
    /// Creates the directory if needed; the first segment file is created
    /// lazily on the first append, so read-only recovery leaves no litter.
    pub fn open(dir: &Path, config: WalConfig, last_seq: u64) -> Result<WalWriter, XdmError> {
        fs::create_dir_all(dir)
            .map_err(|e| XdmError::storage_fault(format!("create {}: {e}", dir.display())))?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            config,
            file: None,
            segment_bytes: 0,
            segment_first_seq: None,
            next_seq: last_seq + 1,
            pending: Vec::new(),
            pending_records: 0,
            crashed: false,
            crash: None,
        })
    }

    /// Arm (or disarm) a simulated durability fault.
    pub fn set_crash_injector(&mut self, crash: Option<CrashInjector>) {
        self.crash = crash;
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one record, returning `(sequence, frame bytes)`. The record
    /// is durable per the configured [`FsyncMode`] when this returns.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(u64, u64), XdmError> {
        if self.crashed {
            return Err(XdmError::storage_fault(
                "WAL writer crashed (simulated); the session must recover",
            ));
        }
        let mut frame = rec.encode_frame();
        // Rotate before the append so a frame never spans segments.
        if self.file.is_some() && self.segment_bytes >= self.config.segment_max_bytes {
            self.flush_os(self.config.fsync != FsyncMode::Off)?;
            self.file = None;
            self.segment_first_seq = None;
        }
        if self.file.is_none() {
            self.start_segment()?;
        }
        if let Some(crash) = self.crash.clone() {
            if crash.injector.should_fail() {
                match crash.fault {
                    DurabilityFault::CrashBeforeFlush => {
                        // Power loss with the buffer still in process: the
                        // pending batch and the in-flight record vanish.
                        self.pending.clear();
                        self.pending_records = 0;
                        self.crashed = true;
                        return Err(XdmError::storage_fault(
                            "injected crash before WAL flush; buffered records lost",
                        ));
                    }
                    DurabilityFault::TornTail => {
                        // Crash mid-write: earlier buffered frames reach
                        // the file, the in-flight frame is cut in half.
                        let half = frame.len() / 2;
                        self.pending.extend_from_slice(&frame[..half]);
                        let _ = self.flush_os(false);
                        self.crashed = true;
                        return Err(XdmError::storage_fault(
                            "injected crash mid-append; WAL tail torn",
                        ));
                    }
                    DurabilityFault::BitFlip => {
                        // Media corruption: flip one deterministic bit of
                        // the frame body and carry on as if nothing
                        // happened — only recovery's CRC check can tell.
                        let bit = (self.next_seq as usize).wrapping_mul(11) % (frame.len() * 8);
                        frame[bit / 8] ^= 1 << (bit % 8);
                    }
                }
            }
        }
        let seq = self.next_seq;
        let len = frame.len() as u64;
        match self.config.fsync {
            FsyncMode::Always => {
                self.pending.extend_from_slice(&frame);
                self.flush_os(true)?;
            }
            FsyncMode::Off => {
                self.pending.extend_from_slice(&frame);
                self.flush_os(false)?;
            }
            FsyncMode::Batch => {
                self.pending.extend_from_slice(&frame);
                self.pending_records += 1;
                if self.pending_records >= self.config.batch_records {
                    self.flush_os(true)?;
                }
            }
        }
        self.next_seq += 1;
        self.segment_bytes += len;
        Ok((seq, len))
    }

    /// Flush buffered records to the OS and (except `fsync off`) the disk.
    pub fn flush(&mut self) -> Result<(), XdmError> {
        if self.crashed {
            return Err(XdmError::storage_fault("WAL writer crashed (simulated)"));
        }
        self.flush_os(self.config.fsync != FsyncMode::Off)
    }

    /// Finish the current segment so the next append opens a fresh one.
    /// Used by checkpoints: everything at or below the snapshot's covering
    /// sequence then lives in prunable whole segments.
    pub fn rotate(&mut self) -> Result<(), XdmError> {
        self.flush()?;
        self.file = None;
        self.segment_first_seq = None;
        self.segment_bytes = 0;
        Ok(())
    }

    /// Delete segments and snapshots made redundant by a snapshot covering
    /// `covers_seq`. Call after [`WalWriter::rotate`]: every closed segment
    /// holds only records `<= covers_seq` and can go; the active segment
    /// (if any) started at `covers_seq + 1`.
    pub fn prune(&mut self, covers_seq: u64) -> Result<usize, XdmError> {
        let mut removed = 0;
        for seg in list_segments(&self.dir)? {
            if seg.first_seq <= covers_seq && Some(&seg.path) != self.current_path().as_ref() {
                fs::remove_file(&seg.path).map_err(|e| {
                    XdmError::storage_fault(format!("prune {}: {e}", seg.path.display()))
                })?;
                removed += 1;
            }
        }
        for (covers, path) in list_snapshots(&self.dir)? {
            if covers < covers_seq {
                fs::remove_file(&path).map_err(|e| {
                    XdmError::storage_fault(format!("prune {}: {e}", path.display()))
                })?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    fn current_path(&self) -> Option<PathBuf> {
        self.file.as_ref()?;
        Some(self.dir.join(segment_file_name(self.segment_first_seq.unwrap_or(self.next_seq))))
    }

    fn start_segment(&mut self) -> Result<(), XdmError> {
        let path = self.dir.join(segment_file_name(self.next_seq));
        let mut f = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| XdmError::storage_fault(format!("create {}: {e}", path.display())))?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER);
        header.extend_from_slice(SEGMENT_MAGIC);
        header.extend_from_slice(&self.next_seq.to_le_bytes());
        f.write_all(&header)
            .map_err(|e| XdmError::storage_fault(format!("write {}: {e}", path.display())))?;
        if self.config.fsync == FsyncMode::Always {
            f.sync_all()
                .map_err(|e| XdmError::storage_fault(format!("fsync {}: {e}", path.display())))?;
            sync_dir(&self.dir);
        }
        self.file = Some(f);
        self.segment_bytes = SEGMENT_HEADER as u64;
        self.segment_first_seq = Some(self.next_seq);
        Ok(())
    }

    fn flush_os(&mut self, sync: bool) -> Result<(), XdmError> {
        if self.pending.is_empty() && !sync {
            return Ok(());
        }
        let Some(f) = self.file.as_mut() else {
            return Ok(());
        };
        if !self.pending.is_empty() {
            f.write_all(&self.pending)
                .map_err(|e| XdmError::storage_fault(format!("WAL write: {e}")))?;
            self.pending.clear();
            self.pending_records = 0;
        }
        if sync {
            f.sync_all().map_err(|e| XdmError::storage_fault(format!("WAL fsync: {e}")))?;
        }
        Ok(())
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Clean shutdown flushes the batch buffer; a simulated crash does
        // not (that is the point of the simulation).
        if !self.crashed {
            let _ = self.flush_os(self.config.fsync != FsyncMode::Off);
        }
    }
}

/// Best-effort directory-entry durability (Linux supports fsync on a
/// directory fd; elsewhere this silently does nothing).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// `wal-<first_seq>.seg`, zero-padded so lexicographic = numeric order.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:012}.seg")
}

/// `snapshot-<covers_seq>.snap`.
pub fn snapshot_file_name(covers_seq: u64) -> String {
    format!("snapshot-{covers_seq:012}.snap")
}

#[derive(Debug)]
struct SegmentRef {
    first_seq: u64,
    path: PathBuf,
}

fn list_segments(dir: &Path) -> Result<Vec<SegmentRef>, XdmError> {
    let mut out = Vec::new();
    for name in list_dir(dir)? {
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".seg"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            out.push(SegmentRef { first_seq: seq, path: dir.join(&name) });
        }
    }
    out.sort_by_key(|s| s.first_seq);
    Ok(out)
}

fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, XdmError> {
    let mut out = Vec::new();
    for name in list_dir(dir)? {
        if let Some(seq) = name
            .strip_prefix("snapshot-")
            .and_then(|r| r.strip_suffix(".snap"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            out.push((seq, dir.join(&name)));
        }
    }
    out.sort_by_key(|s| s.0);
    Ok(out)
}

fn list_dir(dir: &Path) -> Result<Vec<String>, XdmError> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let rd = fs::read_dir(dir)
        .map_err(|e| XdmError::storage_fault(format!("read {}: {e}", dir.display())))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry =
            entry.map_err(|e| XdmError::storage_fault(format!("read {}: {e}", dir.display())))?;
        if let Some(name) = entry.file_name().to_str() {
            out.push(name.to_string());
        }
    }
    Ok(out)
}

/// Write a snapshot covering everything up to `covers_seq`, atomically
/// (temp file + fsync + rename). `records` must rebuild the full state in
/// order: table DDL, then rows, then index DDL last so index back-fill
/// sees every document.
pub fn write_snapshot(
    dir: &Path,
    covers_seq: u64,
    records: &[WalRecord],
) -> Result<PathBuf, XdmError> {
    fs::create_dir_all(dir)
        .map_err(|e| XdmError::storage_fault(format!("create {}: {e}", dir.display())))?;
    let mut buf = Vec::with_capacity(SNAPSHOT_HEADER + records.len() * 64);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    buf.extend_from_slice(&covers_seq.to_le_bytes());
    buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for rec in records {
        buf.extend_from_slice(&rec.encode_frame());
    }
    let final_path = dir.join(snapshot_file_name(covers_seq));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(covers_seq)));
    let mut f = File::create(&tmp_path)
        .map_err(|e| XdmError::storage_fault(format!("create {}: {e}", tmp_path.display())))?;
    f.write_all(&buf)
        .map_err(|e| XdmError::storage_fault(format!("write {}: {e}", tmp_path.display())))?;
    f.sync_all()
        .map_err(|e| XdmError::storage_fault(format!("fsync {}: {e}", tmp_path.display())))?;
    drop(f);
    fs::rename(&tmp_path, &final_path).map_err(|e| {
        XdmError::storage_fault(format!("rename snapshot into place: {e}"))
    })?;
    sync_dir(dir);
    Ok(final_path)
}

/// Everything replay recovered from a data directory.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Sequence the loaded snapshot covers (0: no snapshot).
    pub snapshot_covers: u64,
    /// State-rebuilding records from the snapshot, in order.
    pub snapshot_records: Vec<WalRecord>,
    /// The page-file manifest, if the directory holds one (paged
    /// checkpoints write manifests instead of snapshots).
    pub manifest: Option<Manifest>,
    /// Log records after the snapshot/manifest cover, as
    /// `(sequence, record)` in order.
    pub wal_records: Vec<(u64, WalRecord)>,
    /// Highest sequence number recovered (0 for an empty directory).
    pub last_seq: u64,
    /// Torn tails truncated (0 or 1 — only the newest segment can tear).
    pub torn_tail_truncations: u64,
    /// Segment files scanned.
    pub segments_scanned: usize,
}

/// Replay a data directory: load the newest snapshot, then every segment,
/// skipping records the snapshot already covers.
///
/// Self-healing: a torn final frame in the newest segment is truncated
/// away (counted in [`Recovered::torn_tail_truncations`]). Everything else
/// — CRC mismatch, bad magic/header, mid-log torn frame, sequence gap — is
/// unrecoverable corruption: the offending file is renamed to
/// `<name>.quarantined` and a typed `WalCorrupt` error names it.
pub fn replay(dir: &Path) -> Result<Recovered, XdmError> {
    let mut out = Recovered::default();

    // Leftover snapshot temp files are crash artifacts; remove them.
    for name in list_dir(dir)? {
        if name.ends_with(".snap.tmp") {
            let _ = fs::remove_file(dir.join(&name));
        }
    }

    if let Some((covers, path)) = list_snapshots(dir)?.into_iter().next_back() {
        let records = read_snapshot(&path, covers)?;
        out.snapshot_covers = covers;
        out.snapshot_records = records;
        out.last_seq = covers;
    }

    out.manifest = read_manifest(dir)?;
    // Records at or below the cover are already durable (snapshot state or
    // checkpointed pages); replay applies only the suffix.
    let covered = out.snapshot_covers.max(out.manifest.as_ref().map_or(0, |m| m.covers));
    out.last_seq = out.last_seq.max(covered);

    let segments = list_segments(dir)?;
    let mut next_expected: Option<u64> = None;
    let last_index = segments.len().saturating_sub(1);
    for (i, seg) in segments.iter().enumerate() {
        out.segments_scanned += 1;
        let is_last = i == last_index;
        let bytes = fs::read(&seg.path)
            .map_err(|e| XdmError::storage_fault(format!("read {}: {e}", seg.path.display())))?;
        if bytes.len() < SEGMENT_HEADER {
            if is_last {
                // Crash while creating the segment: no record survived.
                fs::remove_file(&seg.path).map_err(|e| {
                    XdmError::storage_fault(format!("remove {}: {e}", seg.path.display()))
                })?;
                out.torn_tail_truncations += 1;
                continue;
            }
            return Err(quarantine(&seg.path, "segment header truncated mid-log"));
        }
        if &bytes[..8] != SEGMENT_MAGIC {
            return Err(quarantine(&seg.path, "bad segment magic"));
        }
        let mut first = [0u8; 8];
        first.copy_from_slice(&bytes[8..16]);
        let first_seq = u64::from_le_bytes(first);
        if first_seq != seg.first_seq {
            return Err(quarantine(
                &seg.path,
                &format!("header sequence {first_seq} does not match file name"),
            ));
        }
        if let Some(expected) = next_expected {
            if first_seq != expected {
                return Err(XdmError::wal_corrupt(format!(
                    "sequence gap before {}: expected {expected}, found {first_seq} \
                     (a segment is missing or quarantined)",
                    seg.path.display()
                )));
            }
        } else if covered > 0 && first_seq > covered + 1 {
            return Err(XdmError::wal_corrupt(format!(
                "sequence gap after checkpoint {covered}: first segment {} starts at {first_seq}",
                seg.path.display()
            )));
        }

        let mut pos = SEGMENT_HEADER;
        let mut seq = first_seq;
        loop {
            if pos == bytes.len() {
                break;
            }
            match parse_frame(&bytes[pos..]) {
                FrameOutcome::Record(rec, consumed) => {
                    if seq > covered {
                        out.wal_records.push((seq, rec));
                        out.last_seq = seq;
                    }
                    seq += 1;
                    pos += consumed;
                }
                FrameOutcome::Torn if is_last => {
                    // The expected crash artifact: drop the torn bytes.
                    let f = OpenOptions::new().write(true).open(&seg.path).map_err(|e| {
                        XdmError::storage_fault(format!("open {}: {e}", seg.path.display()))
                    })?;
                    f.set_len(pos as u64).map_err(|e| {
                        XdmError::storage_fault(format!(
                            "truncate {}: {e}",
                            seg.path.display()
                        ))
                    })?;
                    out.torn_tail_truncations += 1;
                    break;
                }
                FrameOutcome::Torn => {
                    return Err(quarantine(&seg.path, "incomplete frame mid-log"));
                }
                FrameOutcome::Corrupt(e) => {
                    return Err(quarantine(&seg.path, &e.message));
                }
            }
        }
        out.last_seq = out.last_seq.max(seq.saturating_sub(1));
        next_expected = Some(seq);
    }
    Ok(out)
}

fn read_snapshot(path: &Path, covers: u64) -> Result<Vec<WalRecord>, XdmError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| XdmError::storage_fault(format!("read {}: {e}", path.display())))?;
    if bytes.len() < SNAPSHOT_HEADER || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(quarantine(path, "bad snapshot header"));
    }
    let mut b8 = [0u8; 8];
    b8.copy_from_slice(&bytes[8..16]);
    if u64::from_le_bytes(b8) != covers {
        return Err(quarantine(path, "snapshot header sequence does not match file name"));
    }
    let mut b4 = [0u8; 4];
    b4.copy_from_slice(&bytes[16..20]);
    let count = u32::from_le_bytes(b4) as usize;
    let mut records = Vec::with_capacity(count.min(4096));
    let mut pos = SNAPSHOT_HEADER;
    for _ in 0..count {
        match parse_frame(&bytes[pos..]) {
            FrameOutcome::Record(rec, consumed) => {
                records.push(rec);
                pos += consumed;
            }
            FrameOutcome::Torn => {
                return Err(quarantine(path, "snapshot truncated (snapshots are atomic: media damage)"))
            }
            FrameOutcome::Corrupt(e) => return Err(quarantine(path, &e.message)),
        }
    }
    if pos != bytes.len() {
        return Err(quarantine(path, "trailing bytes after snapshot records"));
    }
    Ok(records)
}

/// Rename a damaged file aside and build the error naming it.
fn quarantine(path: &Path, why: &str) -> XdmError {
    let target = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{ext}.quarantined"),
        None => "quarantined".to_string(),
    });
    let moved = fs::rename(path, &target).is_ok();
    XdmError::wal_corrupt(format!(
        "{}: {why}{}",
        path.display(),
        if moved {
            format!(" (segment quarantined as {})", target.display())
        } else {
            " (quarantine rename failed)".to_string()
        }
    ))
}
