//! The page-file manifest: the checkpoint's metadata companion.
//!
//! With paged storage a checkpoint no longer serializes the whole database
//! into a snapshot file — the rows already live in the page file, and
//! [`crate::log`]'s freeze watermark makes everything below it immutable.
//! What recovery still needs is the *catalog* metadata that pages don't
//! carry: which tables exist (name, columns, heap table id), how many rows
//! each had at the checkpoint, the path summary (each rooted path with the
//! sorted rows holding it), the page ids below the watermark that are
//! free, and the indexes — their DDL plus a snapshot of their keys in tree
//! order, which recovery bulk-loads. That is the manifest.
//!
//! One file, `manifest.xqm`, written atomically (temp + fsync + rename) so
//! a named manifest is always complete. Format:
//!
//! ```text
//! [8-byte magic "XQMANIF3"] [u32 payload_len] [u32 crc32(payload)] [payload]
//! ```
//!
//! The payload reuses the WAL's length-prefixed string conventions and
//! embeds each index's `CreateIndex` record as a frame. A path's rows are
//! a count and then LEB128 varints: the first row, then each row's
//! distance from the one before. Older manifests still decode. `XQMANIF2`
//! stored a row count per path in place of its rows, so it carries no
//! path summary (recovery re-derives it by parsing the adopted rows);
//! `XQMANIF1` also lacks free pages and index snapshots (recovery rebuilds
//! those indexes by back-fill, and a stale row keeps its highest-page
//! copy).

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use xqdb_xdm::XdmError;

use crate::record::{crc32, parse_frame, FrameOutcome, WalRecord, FRAME_HEADER};

const MANIFEST_MAGIC: &[u8; 8] = b"XQMANIF3";
/// The magic of manifests with a row count per path in place of its rows.
const MANIFEST_MAGIC_V2: &[u8; 8] = b"XQMANIF2";
/// The magic of manifests without free lists or index snapshots.
const MANIFEST_MAGIC_V1: &[u8; 8] = b"XQMANIF1";

/// The manifest file name within a data directory.
pub const MANIFEST_FILE: &str = "manifest.xqm";

/// One table's checkpoint metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestTable {
    /// Table name (upper-cased).
    pub name: String,
    /// Heap table id: the tag on this table's pages in the page file.
    pub table_id: u32,
    /// `(column name, SQL type spelling)` pairs.
    pub columns: Vec<(String, String)>,
    /// Rows at checkpoint time. Page records with rowid `>= row_count` are
    /// post-checkpoint leftovers the WAL suffix re-creates.
    pub row_count: u64,
    /// The path summary: `(rendered path, ascending rows holding it)`,
    /// sorted by path. `None` for manifests older than `XQMANIF3`.
    pub paths: Option<Vec<(String, Vec<u64>)>>,
    /// Row ids deleted *logically* (their records sit on frozen pages that
    /// cannot be tombstoned in place). Recovery must skip these rows when
    /// re-adopting pages. Ascending.
    pub deleted: Vec<u64>,
    /// Row ids whose frozen record was superseded by a REPLACE, each with
    /// the page holding its live copy: recovery keeps the copy on that
    /// page and ignores the others. A duplicate rowid *not* listed here is
    /// corruption. Ascending by rowid. The page is `None` in `XQMANIF1`
    /// manifests, which predate page reuse below the watermark: there the
    /// highest-page copy is the live one.
    pub stale: Vec<(u64, Option<u64>)>,
}

/// One index's keys at checkpoint time, so recovery bulk-loads its B+Tree
/// instead of re-deriving it from every document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexSnapshot {
    /// Pattern-matching nodes skipped by tolerant indexing.
    pub skipped_nodes: u64,
    /// Number of keys.
    pub entries: u64,
    /// The encoded keys in tree order, each as `[u32 len][bytes]`.
    pub keys: Vec<u8>,
}

impl IndexSnapshot {
    /// Append one key (callers push in tree order).
    pub fn push(&mut self, key: &[u8]) {
        put_u32(&mut self.keys, key.len() as u32);
        self.keys.extend_from_slice(key);
        self.entries += 1;
    }

    /// The keys, in the order they were pushed, borrowed from the buffer.
    /// Decoding validated the framing, so iteration cannot fail.
    pub fn keys(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut rest = self.keys.as_slice();
        std::iter::from_fn(move || {
            let len = rest.get(..4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))?;
            let key = rest.get(4..4 + len as usize)?;
            rest = &rest[4 + len as usize..];
            Some(key)
        })
    }

    /// Check that `keys` holds exactly `entries` well-framed keys.
    fn validate(&self) -> Result<(), XdmError> {
        let mut rest = self.keys.as_slice();
        for _ in 0..self.entries {
            let len = rest
                .get(..4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
                .filter(|&len| rest.len() >= 4 + len)
                .ok_or_else(|| XdmError::wal_corrupt("manifest: index snapshot key truncated"))?;
            rest = &rest[4 + len..];
        }
        if !rest.is_empty() {
            return Err(XdmError::wal_corrupt("manifest: index snapshot has trailing bytes"));
        }
        Ok(())
    }
}

/// Checkpoint metadata for a paged data directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// WAL sequence this checkpoint covers: replay applies only records
    /// with greater sequence numbers.
    pub covers: u64,
    /// The page file's freeze watermark at checkpoint time.
    pub frozen_below: u64,
    /// Per-table metadata.
    pub tables: Vec<ManifestTable>,
    /// Index DDL, as `CreateIndex` records.
    pub indexes: Vec<WalRecord>,
    /// One key snapshot per entry of `indexes`, in the same order; empty
    /// for an `XQMANIF1` manifest (recovery then rebuilds by back-fill).
    pub snapshots: Vec<IndexSnapshot>,
    /// Page ids below `frozen_below` that are free: the page file's free
    /// list plus the pages this checkpoint vacated. Recovery discards them
    /// with the pages above the watermark. Ascending.
    pub free_pages: Vec<u64>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

impl Manifest {
    /// Encode the payload (no magic/frame).
    pub fn encode(&self) -> Vec<u8> {
        // Sized up front (index DDL aside, which a small slack covers):
        // growing by doubling would briefly hold the snapshots twice more.
        let tables: usize = self
            .tables
            .iter()
            .map(|t| {
                let columns: usize = t.columns.iter().map(|(n, ty)| n.len() + ty.len() + 8).sum();
                let paths: usize =
                    t.paths.iter().flatten().map(|(p, rows)| p.len() + 8 + 2 * rows.len()).sum();
                t.name.len() + 32 + columns + paths + 8 * t.deleted.len() + 16 * t.stale.len()
            })
            .sum();
        let keys: usize = self.snapshots.iter().map(|s| s.keys.len() + 24).sum();
        let mut out =
            Vec::with_capacity(1024 + tables + keys + 8 * self.free_pages.len());
        put_u64(&mut out, self.covers);
        put_u64(&mut out, self.frozen_below);
        put_u32(&mut out, self.tables.len() as u32);
        for t in &self.tables {
            put_str(&mut out, &t.name);
            put_u32(&mut out, t.table_id);
            put_u32(&mut out, t.columns.len() as u32);
            for (cn, ct) in &t.columns {
                put_str(&mut out, cn);
                put_str(&mut out, ct);
            }
            put_u64(&mut out, t.row_count);
            let paths = t.paths.as_deref().unwrap_or_default();
            put_u32(&mut out, paths.len() as u32);
            for (path, rows) in paths {
                put_str(&mut out, path);
                put_u32(&mut out, rows.len() as u32);
                let mut prev = 0;
                for (i, &row) in rows.iter().enumerate() {
                    put_varint(&mut out, if i == 0 { row } else { row - prev });
                    prev = row;
                }
            }
            put_u32(&mut out, t.deleted.len() as u32);
            for &row in &t.deleted {
                put_u64(&mut out, row);
            }
            put_u32(&mut out, t.stale.len() as u32);
            for &(row, page) in &t.stale {
                put_u64(&mut out, row);
                put_u64(&mut out, page.unwrap_or(0));
            }
        }
        put_u32(&mut out, self.indexes.len() as u32);
        for idx in &self.indexes {
            out.extend_from_slice(&idx.encode_frame());
        }
        put_u32(&mut out, self.free_pages.len() as u32);
        for &page in &self.free_pages {
            put_u64(&mut out, page);
        }
        put_u32(&mut out, self.snapshots.len() as u32);
        for snap in &self.snapshots {
            put_u64(&mut out, snap.skipped_nodes);
            put_u64(&mut out, snap.entries);
            put_u64(&mut out, snap.keys.len() as u64);
            out.extend_from_slice(&snap.keys);
        }
        out
    }

    /// Decode an `XQMANIF3` payload.
    pub fn decode(payload: &[u8]) -> Result<Manifest, XdmError> {
        Self::decode_version(payload, 3)
    }

    fn decode_version(payload: &[u8], version: u8) -> Result<Manifest, XdmError> {
        let corrupt = |why: &str| XdmError::wal_corrupt(format!("manifest: {why}"));
        let mut r = Reader { buf: payload, pos: 0 };
        let covers = r.u64()?;
        let frozen_below = r.u64()?;
        let ntables = r.u32()? as usize;
        let mut tables = Vec::with_capacity(ntables.min(1024));
        for _ in 0..ntables {
            let name = r.str()?;
            let table_id = r.u32()?;
            let ncols = r.u32()? as usize;
            let mut columns = Vec::with_capacity(ncols.min(1024));
            for _ in 0..ncols {
                let cn = r.str()?;
                let ct = r.str()?;
                columns.push((cn, ct));
            }
            let row_count = r.u64()?;
            let npaths = r.u32()? as usize;
            let mut paths = Vec::with_capacity(npaths.min(65536));
            for _ in 0..npaths {
                let p = r.str()?;
                if version < 3 {
                    r.u64()?; // the path's row count
                    continue;
                }
                let nrows = r.u32()? as usize;
                let mut rows: Vec<u64> = Vec::with_capacity(nrows.min(1 << 20));
                for _ in 0..nrows {
                    let v = r.varint()?;
                    let row = match rows.last() {
                        None => v,
                        Some(_) if v == 0 => return Err(corrupt("path rows not ascending")),
                        Some(&prev) => {
                            prev.checked_add(v).ok_or_else(|| corrupt("path row overflows"))?
                        }
                    };
                    if row >= row_count {
                        return Err(corrupt("path row beyond the table's row count"));
                    }
                    rows.push(row);
                }
                paths.push((p, rows));
            }
            let paths = (version >= 3).then_some(paths);
            let ndel = r.u32()? as usize;
            let mut deleted = Vec::with_capacity(ndel.min(65536));
            for _ in 0..ndel {
                deleted.push(r.u64()?);
            }
            let nstale = r.u32()? as usize;
            let mut stale = Vec::with_capacity(nstale.min(65536));
            for _ in 0..nstale {
                let row = r.u64()?;
                let page = if version >= 2 { Some(r.u64()?) } else { None };
                stale.push((row, page));
            }
            tables.push(ManifestTable {
                name,
                table_id,
                columns,
                row_count,
                paths,
                deleted,
                stale,
            });
        }
        let nidx = r.u32()? as usize;
        let mut indexes = Vec::with_capacity(nidx.min(1024));
        for _ in 0..nidx {
            match parse_frame(&payload[r.pos..]) {
                FrameOutcome::Record(rec, consumed) => {
                    if !matches!(rec, WalRecord::CreateIndex { .. }) {
                        return Err(corrupt("index entry is not a CreateIndex record"));
                    }
                    indexes.push(rec);
                    r.pos += consumed;
                }
                FrameOutcome::Torn => return Err(corrupt("truncated index record")),
                FrameOutcome::Corrupt(e) => return Err(e),
            }
        }
        let mut free_pages = Vec::new();
        let mut snapshots = Vec::new();
        if version >= 2 {
            let nfree = r.u32()? as usize;
            free_pages.reserve(nfree.min(1 << 20));
            for _ in 0..nfree {
                free_pages.push(r.u64()?);
            }
            let nsnap = r.u32()? as usize;
            if nsnap != indexes.len() {
                return Err(corrupt("index snapshot count differs from the index count"));
            }
            for _ in 0..nsnap {
                let skipped_nodes = r.u64()?;
                let entries = r.u64()?;
                let len = usize::try_from(r.u64()?)
                    .map_err(|_| corrupt("index snapshot length overflows"))?;
                let snap = IndexSnapshot { skipped_nodes, entries, keys: r.take(len)?.to_vec() };
                snap.validate()?;
                snapshots.push(snap);
            }
        }
        if r.pos != payload.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Manifest { covers, frozen_below, tables, indexes, snapshots, free_pages })
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], XdmError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            XdmError::wal_corrupt("manifest truncated mid-field")
        })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, XdmError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, XdmError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn varint(&mut self) -> Result<u64, XdmError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.take(1)?[0];
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(XdmError::wal_corrupt("manifest varint runs past 64 bits"))
    }

    fn str(&mut self) -> Result<String, XdmError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| XdmError::wal_corrupt("manifest string field is not UTF-8"))
    }
}

/// Write the manifest atomically (temp + fsync + rename). The previous
/// manifest, if any, is replaced only by the completed rename.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<PathBuf, XdmError> {
    fs::create_dir_all(dir)
        .map_err(|e| XdmError::storage_fault(format!("create {}: {e}", dir.display())))?;
    let payload = manifest.encode();
    let mut header = Vec::with_capacity(8 + FRAME_HEADER);
    header.extend_from_slice(MANIFEST_MAGIC);
    header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    header.extend_from_slice(&crc32(&payload).to_le_bytes());
    let final_path = dir.join(MANIFEST_FILE);
    let tmp_path = dir.join(format!("{MANIFEST_FILE}.tmp"));
    let mut f = File::create(&tmp_path)
        .map_err(|e| XdmError::storage_fault(format!("create {}: {e}", tmp_path.display())))?;
    f.write_all(&header)
        .and_then(|()| f.write_all(&payload))
        .map_err(|e| XdmError::storage_fault(format!("write {}: {e}", tmp_path.display())))?;
    f.sync_all()
        .map_err(|e| XdmError::storage_fault(format!("fsync {}: {e}", tmp_path.display())))?;
    drop(f);
    fs::rename(&tmp_path, &final_path)
        .map_err(|e| XdmError::storage_fault(format!("rename manifest into place: {e}")))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Read the manifest, if one exists, first removing the temporary file
/// an interrupted write leaves behind. A damaged manifest is a typed
/// `WalCorrupt` error (manifests are written atomically, so damage is
/// media corruption, not a crash artifact).
pub fn read_manifest(dir: &Path) -> Result<Option<Manifest>, XdmError> {
    // Crash artifact from an interrupted write: the real manifest (if any)
    // is still in place.
    let _ = fs::remove_file(dir.join(format!("{MANIFEST_FILE}.tmp")));
    load_manifest(dir)
}

/// [`read_manifest`] without touching the directory: safe next to a
/// session that may be writing its next manifest.
pub fn load_manifest(dir: &Path) -> Result<Option<Manifest>, XdmError> {
    let path = dir.join(MANIFEST_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let mut bytes = Vec::new();
    File::open(&path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| XdmError::storage_fault(format!("read {}: {e}", path.display())))?;
    let corrupt =
        |why: &str| XdmError::wal_corrupt(format!("{}: {why}", path.display()));
    let version = match bytes.get(..8) {
        Some(m) if m == MANIFEST_MAGIC => 3,
        Some(m) if m == MANIFEST_MAGIC_V2 => 2,
        Some(m) if m == MANIFEST_MAGIC_V1 => 1,
        _ => return Err(corrupt("bad manifest header")),
    };
    if bytes.len() < 8 + FRAME_HEADER {
        return Err(corrupt("bad manifest header"));
    }
    let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let crc = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    if bytes.len() != 8 + FRAME_HEADER + len {
        return Err(corrupt("manifest length mismatch"));
    }
    let payload = &bytes[8 + FRAME_HEADER..];
    let actual = crc32(payload);
    if actual != crc {
        return Err(corrupt(&format!(
            "CRC mismatch (stored {crc:#010x}, computed {actual:#010x})"
        )));
    }
    Ok(Some(Manifest::decode_version(payload, version)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TempDir;

    fn temp_dir(label: &str) -> TempDir {
        TempDir::new(&format!("manifest_{label}"))
    }

    fn sample() -> Manifest {
        Manifest {
            covers: 42,
            frozen_below: 17,
            tables: vec![ManifestTable {
                name: "ORDERS".into(),
                table_id: 3,
                columns: vec![("ORDID".into(), "INTEGER".into()), ("ORDDOC".into(), "XML".into())],
                row_count: 1000,
                paths: Some(vec![
                    ("/order".into(), (0..1000).collect()),
                    ("/order/@id".into(), vec![0, 1, 127, 128, 300, 999]),
                ]),
                deleted: vec![7, 12, 999],
                stale: vec![(3, Some(15))],
            }],
            indexes: vec![WalRecord::CreateIndex {
                name: "LI_PRICE".into(),
                table: "ORDERS".into(),
                column: "ORDDOC".into(),
                pattern: "//lineitem/@price".into(),
                ty: "double".into(),
            }],
            snapshots: vec![{
                let mut snap = IndexSnapshot { skipped_nodes: 2, ..IndexSnapshot::default() };
                for key in [&b"a"[..], b"bc", b"", b"def"] {
                    snap.push(key);
                }
                snap
            }],
            free_pages: vec![4, 9],
        }
    }

    #[test]
    fn snapshot_keys_stream_back_in_order() {
        let m = sample();
        let keys: Vec<&[u8]> = m.snapshots[0].keys().collect();
        assert_eq!(keys, [&b"a"[..], b"bc", b"", b"def"]);
        assert_eq!(m.snapshots[0].entries, 4);
        // A snapshot whose count disagrees with its bytes is corrupt.
        let mut bad = m.clone();
        bad.snapshots[0].entries = 5;
        let err = Manifest::decode(&bad.encode()).unwrap_err();
        assert_eq!(err.code, xqdb_xdm::ErrorCode::WalCorrupt);
    }

    #[test]
    fn path_rows_must_ascend_within_the_row_count() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        for rows in [vec![3, 3], vec![5, 1000]] {
            let mut bad = m.clone();
            bad.tables[0].paths = Some(vec![("/order".into(), rows)]);
            let err = Manifest::decode(&bad.encode()).unwrap_err();
            assert_eq!(err.code, xqdb_xdm::ErrorCode::WalCorrupt);
        }
    }

    #[test]
    fn version_one_manifests_still_decode() {
        // An XQMANIF1 payload: no per-stale page, no free list, no snapshots.
        let dir = temp_dir("v1");
        fs::create_dir_all(&dir).unwrap();
        let mut payload = Vec::new();
        put_u64(&mut payload, 42); // covers
        put_u64(&mut payload, 17); // frozen_below
        put_u32(&mut payload, 1); // one table
        put_str(&mut payload, "T");
        put_u32(&mut payload, 5); // table id
        put_u32(&mut payload, 1);
        put_str(&mut payload, "ID");
        put_str(&mut payload, "INTEGER");
        put_u64(&mut payload, 10); // row count
        put_u32(&mut payload, 1); // one path with its row count
        put_str(&mut payload, "/t");
        put_u64(&mut payload, 3);
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 4); // deleted
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 6); // stale
        put_u32(&mut payload, 0); // indexes
        let mut bytes = MANIFEST_MAGIC_V1.to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        fs::write(dir.join(MANIFEST_FILE), &bytes).unwrap();
        let m = read_manifest(&dir).unwrap().unwrap();
        assert_eq!((m.covers, m.frozen_below), (42, 17));
        assert_eq!(m.tables[0].deleted, [4]);
        assert_eq!(m.tables[0].stale, [(6, None)]);
        assert_eq!(m.tables[0].paths, None, "a row count is no path summary");
        assert!(m.free_pages.is_empty() && m.snapshots.is_empty());
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = temp_dir("roundtrip");
        let m = sample();
        write_manifest(&dir, &m).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(m.clone()));
        // Rewrite replaces atomically.
        let mut m2 = m;
        m2.covers = 99;
        write_manifest(&dir, &m2).unwrap();
        assert_eq!(read_manifest(&dir).unwrap().unwrap().covers, 99);
    }

    #[test]
    fn missing_manifest_is_none() {
        let dir = temp_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), None);
    }

    #[test]
    fn corruption_is_typed() {
        let dir = temp_dir("corrupt");
        write_manifest(&dir, &sample()).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let pos = bytes.len() - 3;
        bytes[pos] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = read_manifest(&dir).unwrap_err();
        assert_eq!(err.code, xqdb_xdm::ErrorCode::WalCorrupt);
        // Truncation too.
        write_manifest(&dir, &sample()).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(read_manifest(&dir).is_err());
    }

    #[test]
    fn leftover_tmp_is_cleaned_up() {
        let dir = temp_dir("tmp");
        write_manifest(&dir, &sample()).unwrap();
        fs::write(dir.join(format!("{MANIFEST_FILE}.tmp")), b"junk").unwrap();
        assert!(read_manifest(&dir).unwrap().is_some());
        assert!(!dir.join(format!("{MANIFEST_FILE}.tmp")).exists());
    }
}
