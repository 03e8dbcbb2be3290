//! Slotted-page heap files: variable-length records with stable ids.
//!
//! A [`HeapFile`] is one table's record store inside a shared [`Pager`].
//! Heap page payload layout (after the 16-byte page header):
//!
//! ```text
//! offset  size      field
//! 16      4         table id (which heap this page belongs to)
//! 20      2         slot count
//! 22      2         data tail (records occupy [tail, PAGE_SIZE))
//! 24      4×slots   slot array: (offset u16, length u16) per record
//! ```
//!
//! Slots grow forward from the header, record bytes grow backward from
//! the page end; the gap between them is the page's free space, tracked
//! in an in-memory free-space map (first fit, lowest page id — so slot
//! placement is a pure function of the insert sequence, a determinism
//! requirement inherited from the chaos matrix). Each stored record
//! starts with a tag byte: inline (`0`, bytes follow) or overflow (`1`,
//! total length + head page of a [`crate::chain_read`] chain).
//!
//! The durability protocol's freeze watermark is honored here: inserts
//! never place records (or overflow chains — the pool allocates those
//! outside the frozen set too) on frozen pages ([`Pager::is_frozen`]), so
//! checkpointed pages stay byte-stable until the next checkpoint. Dead
//! records on frozen pages (the owner deleted or replaced them logically)
//! are reclaimed by relocation instead: a checkpoint copies the live
//! records of every sparse frozen page into mutable pages and vacates it
//! ([`HeapFile::sparse_frozen_pages`], [`HeapFile::vacate`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use xqdb_xdm::XdmError;

use crate::chain::{chain_free, chain_pages, chain_read, chain_write};
use crate::page::{page_kind, PageKind, HEADER_LEN, PAGE_SIZE};
use crate::pool::Pager;
use crate::PageId;

const TABLE_OFF: usize = HEADER_LEN;
const NSLOTS_OFF: usize = HEADER_LEN + 4;
const TAIL_OFF: usize = HEADER_LEN + 6;
const SLOTS_OFF: usize = HEADER_LEN + 8;

const TAG_INLINE: u8 = 0;
const TAG_OVERFLOW: u8 = 1;
/// A deleted record awaiting reclamation: the slot stays (record ids are
/// stable), the payload bytes are dead. Tombstones exist only on unfrozen
/// pages — checkpoint reclamation compacts them away before the freeze, so
/// frozen pages hold only live records and dead `(0, 0)` slots.
const TAG_TOMBSTONE: u8 = 2;
/// Largest record stored inline: tag + bytes + one slot entry must fit an
/// empty page.
const MAX_INLINE: usize = PAGE_SIZE - SLOTS_OFF - 4 - 1;
/// Overflow stub: tag, total length, chain head.
const STUB_LEN: usize = 1 + 8 + 8;

/// A frozen heap page holding dead records whose live records occupy
/// fewer bytes than this (slot entries included) is relocated at the next
/// checkpoint: three quarters of a page, so a frozen page is relocated
/// once about a quarter of it is dead, and dead space stays a small share
/// of the heap under steady DELETE/REPLACE churn. A relocation copies
/// less than three quarters of a page and frees the whole page.
pub const RELOCATE_BELOW: usize = PAGE_SIZE * 3 / 4;

/// Stable address of a heap record: page plus slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// The heap page holding the record (or its overflow stub).
    pub page: PageId,
    /// Slot index within the page.
    pub slot: u16,
}

fn heap_header(buf: &[u8; PAGE_SIZE]) -> (u32, u16, u16) {
    let table = u32::from_le_bytes([buf[TABLE_OFF], buf[TABLE_OFF + 1], buf[TABLE_OFF + 2], buf[TABLE_OFF + 3]]);
    let nslots = u16::from_le_bytes([buf[NSLOTS_OFF], buf[NSLOTS_OFF + 1]]);
    let tail = u16::from_le_bytes([buf[TAIL_OFF], buf[TAIL_OFF + 1]]);
    (table, nslots, tail)
}

fn free_in(nslots: u16, tail: u16) -> usize {
    (tail as usize).saturating_sub(SLOTS_OFF + 4 * nslots as usize)
}

fn slot_entry(buf: &[u8; PAGE_SIZE], slot: u16) -> (usize, usize) {
    let so = SLOTS_OFF + 4 * slot as usize;
    let off = u16::from_le_bytes([buf[so], buf[so + 1]]) as usize;
    let len = u16::from_le_bytes([buf[so + 2], buf[so + 3]]) as usize;
    (off, len)
}

/// A slot holds a live record iff it is non-dead (`len > 0`), in bounds,
/// and not tombstoned.
fn slot_is_live(buf: &[u8; PAGE_SIZE], slot: u16) -> bool {
    let (off, len) = slot_entry(buf, slot);
    len > 0 && off + len <= PAGE_SIZE && buf[off] != TAG_TOMBSTONE
}

/// One table's slotted-page heap within a shared pager.
#[derive(Debug)]
pub struct HeapFile {
    pager: Arc<Pager>,
    table_id: u32,
    /// Heap pages of this table, in allocation order.
    pages: Vec<PageId>,
    /// Free bytes per heap page (in-memory; rebuilt on open).
    fsm: BTreeMap<PageId, usize>,
    /// Bytes of the records the owner still references, slot entries
    /// included, per heap page (in-memory; rebuilt on open, then the owner
    /// retires the copies it does not adopt).
    live: BTreeMap<PageId, usize>,
    records: u64,
}

impl HeapFile {
    /// Fresh empty heap for `table_id`.
    pub fn create(pager: Arc<Pager>, table_id: u32) -> HeapFile {
        HeapFile {
            pager,
            table_id,
            pages: Vec::new(),
            fsm: BTreeMap::new(),
            live: BTreeMap::new(),
            records: 0,
        }
    }

    /// Reopen a heap from its surviving pages (recovery): rebuilds the
    /// free-space map and record count from page headers. Dead slots and
    /// tombstones do not count as records.
    pub fn open(
        pager: Arc<Pager>,
        table_id: u32,
        pages: Vec<PageId>,
    ) -> Result<HeapFile, XdmError> {
        let mut fsm = BTreeMap::new();
        let mut live = BTreeMap::new();
        let mut records = 0u64;
        for &pid in &pages {
            let (tid, nslots, tail, count, bytes) = pager.with_page(pid, |buf| {
                let (tid, nslots, tail) = heap_header(buf);
                let slots: Vec<u16> = (0..nslots).filter(|&s| slot_is_live(buf, s)).collect();
                let bytes: usize = slots.iter().map(|&s| slot_entry(buf, s).1 + 4).sum();
                (tid, nslots, tail, slots.len() as u64, bytes)
            })?;
            if tid != table_id {
                return Err(XdmError::page_corrupt(format!(
                    "page {pid}: heap page of table {tid}, expected {table_id}"
                )));
            }
            fsm.insert(pid, free_in(nslots, tail));
            live.insert(pid, bytes);
            records += count;
        }
        Ok(HeapFile { pager, table_id, pages, fsm, live, records })
    }

    /// The shared pager underneath.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// This heap's table id (the tag on its pages).
    pub fn table_id(&self) -> u32 {
        self.table_id
    }

    /// Heap pages in allocation order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Records stored.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Bytes of the records the owner still references, slot entries
    /// included (what relocation would keep of this heap's pages).
    pub fn live_bytes(&self) -> u64 {
        self.live.values().map(|&b| b as u64).sum()
    }

    /// Bytes of records and slot entries on this heap's pages, dead ones
    /// included.
    pub fn used_bytes(&self) -> u64 {
        self.pages
            .iter()
            .map(|pid| (PAGE_SIZE - SLOTS_OFF - self.fsm.get(pid).copied().unwrap_or(0)) as u64)
            .sum()
    }

    /// Append a record, returning its stable id. Oversized records spill
    /// into an overflow chain with an inline stub.
    pub fn insert(&mut self, record: &[u8]) -> Result<RecordId, XdmError> {
        let payload: Vec<u8> = if record.len() < MAX_INLINE {
            let mut p = Vec::with_capacity(record.len() + 1);
            p.push(TAG_INLINE);
            p.extend_from_slice(record);
            p
        } else {
            let head = chain_write(&self.pager, record)?;
            let mut p = Vec::with_capacity(STUB_LEN);
            p.push(TAG_OVERFLOW);
            p.extend_from_slice(&(record.len() as u64).to_le_bytes());
            p.extend_from_slice(&head.to_le_bytes());
            p
        };
        let need = payload.len() + 4; // record bytes + a slot entry
        let frozen = self.pager.frozen();
        let target = self
            .fsm
            .iter()
            .find(|(pid, free)| **free >= need && !frozen.contains(**pid))
            .map(|(pid, _)| *pid);
        let pid = match target {
            Some(pid) => pid,
            None => {
                let (pid, guard) = self.pager.allocate(PageKind::Heap)?;
                {
                    let mut buf = guard.data_mut();
                    buf[TABLE_OFF..TABLE_OFF + 4].copy_from_slice(&self.table_id.to_le_bytes());
                    buf[NSLOTS_OFF..NSLOTS_OFF + 2].copy_from_slice(&0u16.to_le_bytes());
                    buf[TAIL_OFF..TAIL_OFF + 2]
                        .copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
                }
                drop(guard);
                self.pages.push(pid);
                self.fsm.insert(pid, free_in(0, PAGE_SIZE as u16));
                pid
            }
        };
        let slot = self.pager.with_page_mut(pid, |buf| {
            let (_, nslots, tail) = heap_header(buf);
            let new_tail = tail as usize - payload.len();
            buf[new_tail..tail as usize].copy_from_slice(&payload);
            let slot_off = SLOTS_OFF + 4 * nslots as usize;
            buf[slot_off..slot_off + 2].copy_from_slice(&(new_tail as u16).to_le_bytes());
            buf[slot_off + 2..slot_off + 4]
                .copy_from_slice(&(payload.len() as u16).to_le_bytes());
            buf[NSLOTS_OFF..NSLOTS_OFF + 2].copy_from_slice(&(nslots + 1).to_le_bytes());
            buf[TAIL_OFF..TAIL_OFF + 2].copy_from_slice(&(new_tail as u16).to_le_bytes());
            (nslots, free_in(nslots + 1, new_tail as u16))
        })?;
        self.fsm.insert(pid, slot.1);
        *self.live.entry(pid).or_default() += need;
        self.records += 1;
        Ok(RecordId { page: pid, slot: slot.0 })
    }

    /// Fetch a record by id, following its overflow chain if present.
    /// `pages_fetched` counts physical page reads (1 for the heap page
    /// plus one per chain link).
    pub fn get_counted(
        &self,
        rid: RecordId,
        pages_fetched: &mut u64,
    ) -> Result<Vec<u8>, XdmError> {
        *pages_fetched += 1;
        let stub = self.pager.with_page(rid.page, |buf| {
            if page_kind(buf) != Some(PageKind::Heap) {
                return Err(XdmError::page_corrupt(format!(
                    "page {}: expected a heap page",
                    rid.page
                )));
            }
            let (tid, nslots, _) = heap_header(buf);
            if tid != self.table_id {
                return Err(XdmError::page_corrupt(format!(
                    "page {}: heap page of table {tid}, expected {}",
                    rid.page, self.table_id
                )));
            }
            if rid.slot >= nslots {
                return Err(XdmError::page_corrupt(format!(
                    "page {}: slot {} out of range ({nslots} slots)",
                    rid.page, rid.slot
                )));
            }
            let slot_off = SLOTS_OFF + 4 * rid.slot as usize;
            let off = u16::from_le_bytes([buf[slot_off], buf[slot_off + 1]]) as usize;
            let len = u16::from_le_bytes([buf[slot_off + 2], buf[slot_off + 3]]) as usize;
            if off + len > PAGE_SIZE || len == 0 {
                return Err(XdmError::page_corrupt(format!(
                    "page {}: slot {} points outside the page",
                    rid.page, rid.slot
                )));
            }
            Ok(buf[off..off + len].to_vec())
        })??;
        match stub[0] {
            TAG_INLINE => Ok(stub[1..].to_vec()),
            TAG_OVERFLOW if stub.len() == STUB_LEN => {
                let mut total = [0u8; 8];
                total.copy_from_slice(&stub[1..9]);
                let mut head = [0u8; 8];
                head.copy_from_slice(&stub[9..17]);
                let bytes = chain_read(&self.pager, PageId::from_le_bytes(head), pages_fetched)?;
                if bytes.len() as u64 != u64::from_le_bytes(total) {
                    return Err(XdmError::page_corrupt(format!(
                        "record {:?}: overflow chain length mismatch",
                        rid
                    )));
                }
                Ok(bytes)
            }
            t => Err(XdmError::page_corrupt(format!("record {rid:?}: unknown record tag {t}"))),
        }
    }

    /// Fetch a record by id.
    pub fn get(&self, rid: RecordId) -> Result<Vec<u8>, XdmError> {
        let mut n = 0;
        self.get_counted(rid, &mut n)
    }

    /// Tombstone a record in place: the slot survives (record ids are
    /// stable), the payload is marked dead, and any overflow chain is
    /// freed. Only legal on unfrozen pages — frozen pages are byte-stable,
    /// so deletes there must be recorded logically by the caller.
    /// Tombstoning an already-tombstoned record is a no-op (idempotent
    /// replay).
    pub fn delete(&mut self, rid: RecordId) -> Result<(), XdmError> {
        if self.pager.is_frozen(rid.page) {
            return Err(XdmError::internal(format!(
                "heap delete on frozen page {} (must be a logical delete)",
                rid.page
            )));
        }
        let outcome = self.pager.with_page_mut(rid.page, |buf| {
            let (tid, nslots, _) = heap_header(buf);
            if tid != self.table_id {
                return Err(XdmError::page_corrupt(format!(
                    "page {}: heap page of table {tid}, expected {}",
                    rid.page, self.table_id
                )));
            }
            if rid.slot >= nslots {
                return Err(XdmError::page_corrupt(format!(
                    "page {}: slot {} out of range ({nslots} slots)",
                    rid.page, rid.slot
                )));
            }
            let (off, len) = slot_entry(buf, rid.slot);
            if len == 0 || off + len > PAGE_SIZE {
                return Err(XdmError::page_corrupt(format!(
                    "page {}: slot {} points outside the page",
                    rid.page, rid.slot
                )));
            }
            match buf[off] {
                TAG_TOMBSTONE => Ok(None),
                TAG_INLINE => {
                    buf[off] = TAG_TOMBSTONE;
                    Ok(Some((len, None)))
                }
                TAG_OVERFLOW if len == STUB_LEN => {
                    let mut head = [0u8; 8];
                    head.copy_from_slice(&buf[off + 9..off + 17]);
                    buf[off] = TAG_TOMBSTONE;
                    Ok(Some((len, Some(PageId::from_le_bytes(head)))))
                }
                t => Err(XdmError::page_corrupt(format!(
                    "record {rid:?}: unknown record tag {t}"
                ))),
            }
        })??;
        if let Some((len, chain)) = outcome {
            self.forget_bytes(rid.page, len);
            self.records = self.records.saturating_sub(1);
            if let Some(head) = chain {
                chain_free(&self.pager, head)?;
            }
        }
        Ok(())
    }

    /// Record that the owner no longer references `rid` although its bytes
    /// stay put — a logical delete on a frozen page, or a copy recovery
    /// did not adopt. Only the page's live-byte count changes; it decides
    /// when the page is sparse enough to relocate.
    pub fn retire(&mut self, rid: RecordId) -> Result<(), XdmError> {
        let len = self.pager.with_page(rid.page, |buf| {
            let (_, nslots, _) = heap_header(buf);
            if rid.slot < nslots && slot_is_live(buf, rid.slot) {
                slot_entry(buf, rid.slot).1
            } else {
                0
            }
        })?;
        if len > 0 {
            self.forget_bytes(rid.page, len);
        }
        Ok(())
    }

    fn forget_bytes(&mut self, page: PageId, record_len: usize) {
        if let Some(live) = self.live.get_mut(&page) {
            *live = live.saturating_sub(record_len + 4);
        }
    }

    /// Frozen pages that hold dead records and whose live records occupy
    /// fewer than [`RELOCATE_BELOW`] bytes, in page order. A page that is
    /// merely not full (a table's last page, a small table) holds no dead
    /// records and stays put, so relocation work follows DML volume.
    /// Decided from in-memory counts: finding them reads no page.
    pub fn sparse_frozen_pages(&self) -> Vec<PageId> {
        let frozen = self.pager.frozen();
        let mut sparse: Vec<PageId> = self
            .pages
            .iter()
            .copied()
            .filter(|&pid| {
                let live = self.live.get(&pid).copied().unwrap_or(0);
                let free = self.fsm.get(&pid).copied().unwrap_or(0);
                let used = PAGE_SIZE - SLOTS_OFF - free;
                frozen.contains(pid) && live < RELOCATE_BELOW && live < used
            })
            .collect();
        sparse.sort_unstable();
        sparse
    }

    /// Drop `pages` from this heap after the owner has copied every record
    /// it still references out of them ([`HeapFile::insert`] of the bytes
    /// [`HeapFile::get`] returned). The pages keep their bytes — a crash
    /// before the next manifest still needs them — and leave this heap's
    /// page list and free-space map at once, together with the overflow
    /// chain pages of every record on them; all of these become the
    /// pager's vacated pages ([`Pager::vacate`]), which the next durable
    /// manifest lists as free. Returns those ids.
    pub fn vacate(&mut self, pages: &[PageId]) -> Result<Vec<PageId>, XdmError> {
        let mut freed = Vec::new();
        let mut records = 0u64;
        for &pid in pages {
            let (heads, count) = self.pager.with_page(pid, |buf| {
                let (_, nslots, _) = heap_header(buf);
                let mut heads = Vec::new();
                let mut count = 0u64;
                for s in (0..nslots).filter(|&s| slot_is_live(buf, s)) {
                    count += 1;
                    let (off, len) = slot_entry(buf, s);
                    if buf[off] == TAG_OVERFLOW && len == STUB_LEN {
                        let mut head = [0u8; 8];
                        head.copy_from_slice(&buf[off + 9..off + 17]);
                        heads.push(PageId::from_le_bytes(head));
                    }
                }
                (heads, count)
            })?;
            freed.push(pid);
            for head in heads {
                freed.extend(chain_pages(&self.pager, head)?);
            }
            records += count;
        }
        // Nothing fails from here on: the pages leave this heap and join
        // the pager's vacated set in one step, so none can be lost.
        self.pager.vacate(&freed);
        self.records = self.records.saturating_sub(records);
        for pid in pages {
            self.fsm.remove(pid);
            self.live.remove(pid);
        }
        self.pages.retain(|p| !pages.contains(p));
        Ok(freed)
    }

    /// Compact tombstones out of every unfrozen page, preserving slot
    /// numbers: live payloads are repacked toward the page end, dead slots
    /// become `(0, 0)`, and the reclaimed bytes rejoin the page's free
    /// space. Run by the checkpoint immediately before the flush + freeze,
    /// so no tombstone ever reaches a frozen page. Returns the number of
    /// tombstoned records reclaimed.
    pub fn reclaim_tombstones(&mut self) -> Result<u64, XdmError> {
        let frozen = self.pager.frozen();
        let mut reclaimed = 0u64;
        for &pid in &self.pages {
            if frozen.contains(pid) {
                continue;
            }
            // Peek first so tombstone-free pages stay clean.
            let dirty = self.pager.with_page(pid, |buf| {
                let (_, nslots, _) = heap_header(buf);
                (0..nslots).any(|s| {
                    let (off, len) = slot_entry(buf, s);
                    len > 0 && off + len <= PAGE_SIZE && buf[off] == TAG_TOMBSTONE
                })
            })?;
            if !dirty {
                continue;
            }
            let (dead, free) = self.pager.with_page_mut(pid, |buf| {
                let (_, nslots, _) = heap_header(buf);
                let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
                let mut dead = 0u64;
                for s in 0..nslots {
                    let (off, len) = slot_entry(buf, s);
                    if len == 0 {
                        continue;
                    }
                    if off + len <= PAGE_SIZE && buf[off] == TAG_TOMBSTONE {
                        dead += 1;
                        let so = SLOTS_OFF + 4 * s as usize;
                        buf[so..so + 4].copy_from_slice(&[0u8; 4]);
                    } else {
                        live.push((s, buf[off..off + len].to_vec()));
                    }
                }
                let mut tail = PAGE_SIZE;
                for (s, payload) in &live {
                    tail -= payload.len();
                    buf[tail..tail + payload.len()].copy_from_slice(payload);
                    let so = SLOTS_OFF + 4 * *s as usize;
                    buf[so..so + 2].copy_from_slice(&(tail as u16).to_le_bytes());
                    buf[so + 2..so + 4]
                        .copy_from_slice(&(payload.len() as u16).to_le_bytes());
                }
                buf[TAIL_OFF..TAIL_OFF + 2].copy_from_slice(&(tail as u16).to_le_bytes());
                (dead, free_in(nslots, tail as u16))
            })?;
            reclaimed += dead;
            self.fsm.insert(pid, free);
        }
        Ok(reclaimed)
    }

    /// Every *live* record of one heap page, in slot order — the recovery
    /// scan. Dead slots and tombstones are skipped.
    pub fn page_records(&self, pid: PageId) -> Result<Vec<(RecordId, Vec<u8>)>, XdmError> {
        let live: Vec<u16> = self.pager.with_page(pid, |buf| {
            let (_, nslots, _) = heap_header(buf);
            (0..nslots).filter(|&s| slot_is_live(buf, s)).collect()
        })?;
        let mut out = Vec::with_capacity(live.len());
        for slot in live {
            let rid = RecordId { page: pid, slot };
            out.push((rid, self.get(rid)?));
        }
        Ok(out)
    }
}

/// Discover which heap pages belong to which table by scanning the whole
/// pager with torn-write classification (recovery entry point). Corrupt
/// pages above the freeze watermark are discarded (counted in
/// [`crate::PagerStats::discarded`]); corrupt frozen pages are a typed
/// error.
pub fn discover_heap_pages(
    pager: &Arc<Pager>,
) -> Result<BTreeMap<u32, Vec<PageId>>, XdmError> {
    let mut out: BTreeMap<u32, Vec<PageId>> = BTreeMap::new();
    for pid in 1..pager.page_count() {
        let Some(guard) = pager.fetch_classified(pid)? else { continue };
        let data = guard.data();
        if page_kind(&data) == Some(PageKind::Heap) {
            let (table_id, _, _) = heap_header(&data);
            out.entry(table_id).or_default().push(pid);
        }
    }
    Ok(out)
}

/// The heap pages below `below` and outside `free` (ascending), grouped
/// by table id: the pages a checkpoint froze. Plain fetches — a damaged
/// page is an error, never reinitialized, so the scan dirties nothing.
pub fn frozen_heap_pages(
    pager: &Arc<Pager>,
    below: u64,
    free: &[PageId],
) -> Result<BTreeMap<u32, Vec<PageId>>, XdmError> {
    let mut out: BTreeMap<u32, Vec<PageId>> = BTreeMap::new();
    for pid in (1..below.min(pager.page_count())).filter(|p| free.binary_search(p).is_err()) {
        let (kind, table_id) = pager.with_page(pid, |buf| (page_kind(buf), heap_header(buf).0))?;
        if kind == Some(PageKind::Heap) {
            out.entry(table_id).or_default().push(pid);
        }
    }
    Ok(out)
}

/// Page-file statistics for the `xqdb pages` subcommand.
#[derive(Debug, Clone)]
pub struct HeapStats {
    /// Total pages in the file (including the Meta page).
    pub pages: u64,
    /// Heap pages.
    pub heap_pages: u64,
    /// Chain (overflow) pages.
    pub chain_pages: u64,
    /// Freed pages awaiting reuse.
    pub free_pages: u64,
    /// Payload bytes actually used across heap and chain pages.
    pub used_bytes: u64,
    /// used_bytes over the total payload capacity of non-meta pages.
    pub fill_factor: f64,
    /// Per-table extents: (table id, pages, records, used bytes).
    pub tables: Vec<(u32, u64, u64, u64)>,
}

/// Compute [`HeapStats`] by scanning every page once.
pub fn file_stats(pager: &Arc<Pager>) -> Result<HeapStats, XdmError> {
    let total = pager.page_count();
    let mut stats = HeapStats {
        pages: total,
        heap_pages: 0,
        chain_pages: 0,
        free_pages: 0,
        used_bytes: 0,
        fill_factor: 0.0,
        tables: Vec::new(),
    };
    let mut per_table: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
    for pid in 1..total {
        let Some(guard) = pager.fetch_classified(pid)? else {
            stats.free_pages += 1;
            continue;
        };
        let data = guard.data();
        match page_kind(&data) {
            Some(PageKind::Heap) => {
                stats.heap_pages += 1;
                let (table_id, nslots, tail) = heap_header(&data);
                let used = (PAGE_SIZE - tail as usize + 4 * nslots as usize) as u64;
                stats.used_bytes += used;
                let e = per_table.entry(table_id).or_default();
                e.0 += 1;
                e.1 += u64::from(nslots);
                e.2 += used;
            }
            Some(PageKind::Chain) => {
                stats.chain_pages += 1;
                let mut len = [0u8; 4];
                len.copy_from_slice(&data[HEADER_LEN + 8..HEADER_LEN + 12]);
                stats.used_bytes += u64::from(u32::from_le_bytes(len)) + 12;
            }
            Some(PageKind::Free) => stats.free_pages += 1,
            _ => {}
        }
    }
    let capacity = (total.saturating_sub(1)) * (PAGE_SIZE - HEADER_LEN) as u64;
    stats.fill_factor =
        if capacity == 0 { 0.0 } else { stats.used_bytes as f64 / capacity as f64 };
    stats.tables =
        per_table.into_iter().map(|(t, (p, r, b))| (t, p, r, b)).collect();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(frames: usize) -> Arc<Pager> {
        Arc::new(Pager::new_mem(frames))
    }

    #[test]
    fn insert_get_roundtrip() {
        let pager = mem(4);
        let mut heap = HeapFile::create(Arc::clone(&pager), 1);
        let mut rids = Vec::new();
        for i in 0..500usize {
            let rec: Vec<u8> = format!("record-{i}-{}", "x".repeat(i % 97)).into_bytes();
            rids.push((heap.insert(&rec).unwrap(), rec));
        }
        for (rid, rec) in &rids {
            assert_eq!(&heap.get(*rid).unwrap(), rec);
        }
        assert_eq!(heap.record_count(), 500);
        assert!(heap.pages().len() > 1, "500 records span several pages");
    }

    #[test]
    fn oversized_records_overflow() {
        let pager = mem(4);
        let mut heap = HeapFile::create(Arc::clone(&pager), 7);
        let big: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        let rid = heap.insert(&big).unwrap();
        let small = b"tiny".to_vec();
        let rid2 = heap.insert(&small).unwrap();
        assert_eq!(heap.get(rid).unwrap(), big);
        assert_eq!(heap.get(rid2).unwrap(), small);
        let mut fetched = 0;
        heap.get_counted(rid, &mut fetched).unwrap();
        assert!(fetched > 1, "overflow record reads its chain");
    }

    #[test]
    fn reopen_rebuilds_fsm_and_records() {
        let pager = mem(8);
        let mut heap = HeapFile::create(Arc::clone(&pager), 3);
        let mut expect = Vec::new();
        for i in 0..100usize {
            let rec = format!("row {i}").into_bytes();
            expect.push((heap.insert(&rec).unwrap(), rec));
        }
        let pages = heap.pages().to_vec();
        let reopened = HeapFile::open(Arc::clone(&pager), 3, pages).unwrap();
        assert_eq!(reopened.record_count(), 100);
        for (rid, rec) in &expect {
            assert_eq!(&reopened.get(*rid).unwrap(), rec);
        }
    }

    #[test]
    fn discover_partitions_by_table() {
        let pager = mem(8);
        let mut a = HeapFile::create(Arc::clone(&pager), 1);
        let mut b = HeapFile::create(Arc::clone(&pager), 2);
        for i in 0..50 {
            a.insert(format!("a{i}").as_bytes()).unwrap();
            b.insert(format!("b{i}").as_bytes()).unwrap();
        }
        let found = discover_heap_pages(&pager).unwrap();
        assert_eq!(found.get(&1).map(Vec::as_slice), Some(a.pages()));
        assert_eq!(found.get(&2).map(Vec::as_slice), Some(b.pages()));
    }

    #[test]
    fn delete_tombstones_and_reclaim_compacts() {
        let pager = mem(8);
        let mut heap = HeapFile::create(Arc::clone(&pager), 1);
        let mut rids = Vec::new();
        for i in 0..40usize {
            let rec = format!("record-{i}-{}", "y".repeat(i * 7 % 50)).into_bytes();
            rids.push((heap.insert(&rec).unwrap(), rec));
        }
        // Delete every third record; deletes are idempotent.
        let mut deleted = Vec::new();
        for (i, (rid, _)) in rids.iter().enumerate() {
            if i % 3 == 0 {
                heap.delete(*rid).unwrap();
                heap.delete(*rid).unwrap();
                deleted.push(*rid);
            }
        }
        assert_eq!(heap.record_count(), 40 - deleted.len() as u64);
        // Tombstoned records are unreachable; survivors intact.
        for (i, (rid, rec)) in rids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(heap.get(*rid).is_err());
            } else {
                assert_eq!(&heap.get(*rid).unwrap(), rec);
            }
        }
        let freed = heap.reclaim_tombstones().unwrap();
        assert_eq!(freed, deleted.len() as u64);
        assert_eq!(heap.reclaim_tombstones().unwrap(), 0, "second pass finds nothing");
        // Slot ids survive compaction; dead slots read as errors.
        for (i, (rid, rec)) in rids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(heap.get(*rid).is_err());
            } else {
                assert_eq!(&heap.get(*rid).unwrap(), rec, "slot preserved for {rid:?}");
            }
        }
        // page_records skips dead slots, and reopen agrees on the count.
        let total: usize =
            heap.pages().iter().map(|&p| heap.page_records(p).unwrap().len()).sum();
        assert_eq!(total as u64, heap.record_count());
        let reopened =
            HeapFile::open(Arc::clone(&pager), 1, heap.pages().to_vec()).unwrap();
        assert_eq!(reopened.record_count(), heap.record_count());
    }

    #[test]
    fn delete_frees_overflow_chains_for_reuse() {
        let pager = mem(8);
        let mut heap = HeapFile::create(Arc::clone(&pager), 2);
        let big: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 241) as u8).collect();
        let rid = heap.insert(&big).unwrap();
        let before = pager.page_count();
        heap.delete(rid).unwrap();
        let rid2 = heap.insert(&big).unwrap();
        assert_eq!(pager.page_count(), before, "freed chain pages reused");
        assert_eq!(heap.get(rid2).unwrap(), big);
    }

    #[test]
    fn delete_on_frozen_page_is_refused() {
        let pager = mem(8);
        let mut heap = HeapFile::create(Arc::clone(&pager), 1);
        let rid = heap.insert(b"frozen soon").unwrap();
        pager.freeze().unwrap();
        assert!(heap.delete(rid).is_err());
        assert_eq!(heap.get(rid).unwrap(), b"frozen soon");
    }

    #[test]
    fn frozen_pages_never_receive_inserts() {
        let pager = mem(8);
        let mut heap = HeapFile::create(Arc::clone(&pager), 1);
        heap.insert(b"before checkpoint").unwrap();
        let watermark = pager.freeze().unwrap();
        let before_pages = heap.pages().to_vec();
        heap.insert(b"after checkpoint").unwrap();
        let new_pages: Vec<_> =
            heap.pages().iter().filter(|p| !before_pages.contains(p)).collect();
        assert!(!new_pages.is_empty(), "post-freeze insert goes to a new page");
        assert!(new_pages.iter().all(|p| **p >= watermark));
    }
}
