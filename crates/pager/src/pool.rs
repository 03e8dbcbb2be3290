//! The buffer pool: a bounded set of in-memory frames caching pages of a
//! backing store, with clock (second-chance) eviction, pin/unpin RAII
//! guards, dirty tracking and hit/miss/eviction statistics.
//!
//! Two backings hide behind one [`Pager`]:
//!
//! * **Memory** — pages live in a plain vector. The pool is still a
//!   bounded cache in front of it, so eviction, write-back and CRC
//!   verification are exercised on every configuration, not only the
//!   durable one. Index B+Trees use this backing (indexes are derived
//!   state, rebuilt by back-fill on open, so they need paging semantics
//!   but not durability).
//! * **File** — a real page file (`pages.xqp`). Table heaps of durable
//!   sessions use this; checkpoints flush dirty frames and freeze the
//!   pages they cover (see [`Pager::freeze`]).
//!
//! Pinning: a [`PageRef`]/[`PageMut`] holds a pin on its frame; pinned
//! frames are never chosen as eviction victims. Guards release the pin on
//! drop. Page content is behind a per-frame `RwLock`, so concurrent
//! readers of a hot page do not serialize on the pool mutex.
//!
//! Determinism: frame choice depends only on the operation sequence (the
//! clock hand and the free list are plain data, no timing or randomness),
//! which the chaos matrix relies on — results must be byte-identical at
//! any pool size, including one small enough to evict mid-query.

use std::collections::{BTreeSet, HashMap};
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use xqdb_xdm::XdmError;

use crate::page::{self, PageKind, HEADER_LEN, PAGE_SIZE};
use crate::PageId;

/// Default pool capacity in frames (256 × 8 KiB = 2 MiB).
pub const DEFAULT_BUFFER_PAGES: usize = 256;

/// How long a fetch waits for a frame when every frame is pinned. A pin
/// lasts one page access, so with more concurrent readers than frames one
/// frees up almost at once; a caller that itself pins more pages than the
/// pool holds still gets the exhaustion error, after this long.
const PIN_WAIT: Duration = Duration::from_millis(100);

/// Magic payload of page 0 (the Meta page) of a page file.
const FILE_MAGIC: &[u8; 8] = b"XQPAGES1";

/// Pool-level counters, monotone over the pager's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches satisfied from a resident frame.
    pub hits: u64,
    /// Fetches that had to read the backing store.
    pub misses: u64,
    /// Frames whose occupant was evicted to make room.
    pub evictions: u64,
}

impl PoolStats {
    /// `self - earlier`, for per-query deltas (saturating: counters are
    /// monotone, so underflow only on a mismatched pair).
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    /// Component-wise sum, for aggregating over several pools.
    pub fn add(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// A fuller snapshot for reporting (`xqdb pages`, metrics gauges).
#[derive(Debug, Clone, Copy)]
pub struct PagerStats {
    /// Pool counters.
    pub pool: PoolStats,
    /// Total pages ever allocated (the logical file length in pages).
    pub pages: u64,
    /// Pages currently on the free list.
    pub free_pages: u64,
    /// Pool capacity in frames.
    pub capacity: usize,
    /// Freeze watermark: pages below are immutable until the next checkpoint.
    pub frozen_below: u64,
    /// Corrupt post-checkpoint pages discarded (torn writes healed by the
    /// WAL suffix).
    pub discarded: u64,
}

/// A snapshot of what is frozen: every page below the checkpoint
/// watermark except the *thawed* ones — ids the newest checkpoint manifest
/// lists as free. A thawed id holds nothing recovery reads (it discards
/// them all), so it may be reallocated and rewritten before the next
/// checkpoint like any page above the watermark.
#[derive(Debug, Clone, Default)]
pub struct Frozen {
    below: u64,
    thawed: Arc<BTreeSet<PageId>>,
}

impl Frozen {
    /// Is `id` immutable until the next checkpoint?
    pub fn contains(&self, id: PageId) -> bool {
        id < self.below && !self.thawed.contains(&id)
    }
}

/// Where pages live when not resident in the pool.
enum Backing {
    Mem(Vec<Box<[u8; PAGE_SIZE]>>),
    File(std::fs::File),
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Mem(v) => write!(f, "Mem({} pages)", v.len()),
            Backing::File(_) => write!(f, "File"),
        }
    }
}

/// Shared page content of one frame. Outside the pool mutex so readers of
/// a resident page don't serialize; `dirty` rides along because writers
/// set it without the pool lock either.
#[derive(Debug)]
struct FrameBuf {
    data: RwLock<Box<[u8; PAGE_SIZE]>>,
    dirty: AtomicBool,
}

#[derive(Debug)]
struct Frame {
    page: Option<PageId>,
    buf: Arc<FrameBuf>,
    pins: u32,
    refbit: bool,
}

impl Frame {
    fn empty() -> Frame {
        Frame {
            page: None,
            buf: Arc::new(FrameBuf {
                data: RwLock::new(Box::new([0u8; PAGE_SIZE])),
                dirty: AtomicBool::new(false),
            }),
            pins: 0,
            refbit: false,
        }
    }
}

#[derive(Debug)]
struct Inner {
    backing: Backing,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    clock: usize,
    page_count: u64,
    /// Free list kept sorted descending so `pop()` reuses the lowest id
    /// first (deterministic placement).
    free: Vec<PageId>,
    /// Pages whose content a checkpoint moved elsewhere but that no
    /// durable manifest lists as free yet (see [`Pager::vacate`]).
    vacating: BTreeSet<PageId>,
}

/// A page store plus its buffer pool. Cheap to share (`Arc<Pager>`); all
/// methods take `&self`.
#[derive(Debug)]
pub struct Pager {
    inner: Mutex<Inner>,
    frozen_below: AtomicU64,
    /// Ids below the watermark the newest manifest lists as free (see
    /// [`Frozen`]). Replaced wholesale at each freeze and at recovery.
    thawed: RwLock<Arc<BTreeSet<PageId>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    discarded: AtomicU64,
    path: Option<PathBuf>,
}

fn io_err(what: &str, e: std::io::Error) -> XdmError {
    XdmError::storage_fault(format!("page file {what}: {e}"))
}

impl Pager {
    /// In-memory pager with the given pool capacity (clamped to ≥ 2).
    pub fn new_mem(capacity: usize) -> Pager {
        let capacity = capacity.max(2);
        Pager {
            inner: Mutex::new(Inner {
                backing: Backing::Mem(Vec::new()),
                frames: (0..capacity).map(|_| Frame::empty()).collect(),
                map: HashMap::new(),
                clock: 0,
                // Page 0 is reserved (chains use id 0 as the end-of-list
                // sentinel; file backings put the Meta page there).
                page_count: 1,
                free: Vec::new(),
                vacating: BTreeSet::new(),
            }),
            frozen_below: AtomicU64::new(0),
            thawed: RwLock::new(Arc::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            path: None,
        }
    }

    /// Open (or create) a page file. A fresh file gets a Meta page 0; an
    /// existing one has its Meta page and length validated. A torn tail
    /// (length not a multiple of the page size) is trimmed — by the freeze
    /// protocol it can only be an unfinished post-checkpoint append whose
    /// content the WAL suffix re-creates. `frozen_below` is the watermark
    /// recorded by the newest checkpoint manifest (0 for none).
    pub fn open_file(
        path: &Path,
        capacity: usize,
        frozen_below: u64,
    ) -> Result<(Pager, bool), XdmError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        let len = file.metadata().map_err(|e| io_err("stat", e))?.len();
        let mut torn_tail = false;
        let mut page_count = len / PAGE_SIZE as u64;
        if len % PAGE_SIZE as u64 != 0 {
            torn_tail = true;
            file.set_len(page_count * PAGE_SIZE as u64).map_err(|e| io_err("trim", e))?;
        }
        if page_count == 0 {
            // Fresh file: write the Meta page eagerly so even an empty
            // database has a verifiable identity on disk.
            let mut buf = Box::new([0u8; PAGE_SIZE]);
            page::init_page(&mut buf, 0, PageKind::Meta);
            buf[HEADER_LEN..HEADER_LEN + FILE_MAGIC.len()].copy_from_slice(FILE_MAGIC);
            page::stamp_crc(&mut buf);
            file.seek(SeekFrom::Start(0)).map_err(|e| io_err("seek", e))?;
            file.write_all(&buf[..]).map_err(|e| io_err("write", e))?;
            page_count = 1;
        } else {
            let mut buf = Box::new([0u8; PAGE_SIZE]);
            file.seek(SeekFrom::Start(0)).map_err(|e| io_err("seek", e))?;
            file.read_exact(&mut buf[..]).map_err(|e| io_err("read", e))?;
            page::verify_page(&buf, 0).map_err(XdmError::page_corrupt)?;
            if &buf[HEADER_LEN..HEADER_LEN + FILE_MAGIC.len()] != FILE_MAGIC {
                return Err(XdmError::page_corrupt("page 0: not an xqdb page file"));
            }
        }
        let capacity = capacity.max(2);
        Ok((
            Pager {
                inner: Mutex::new(Inner {
                    backing: Backing::File(file),
                    frames: (0..capacity).map(|_| Frame::empty()).collect(),
                    map: HashMap::new(),
                    clock: 0,
                    page_count,
                    free: Vec::new(),
                    vacating: BTreeSet::new(),
                }),
                frozen_below: AtomicU64::new(frozen_below.min(page_count)),
                thawed: RwLock::new(Arc::default()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                discarded: AtomicU64::new(0),
                path: Some(path.to_path_buf()),
            },
            torn_tail,
        ))
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The file path, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Total pages allocated so far (including freed ones).
    pub fn page_count(&self) -> u64 {
        self.lock().page_count
    }

    /// The freeze watermark (see [`Pager::freeze`]).
    pub fn frozen_below(&self) -> u64 {
        self.frozen_below.load(Ordering::Acquire)
    }

    /// What is frozen right now (watermark minus thawed ids), as a cheap
    /// snapshot for loops that test many pages.
    pub fn frozen(&self) -> Frozen {
        let thawed = self.thawed.read().unwrap_or_else(|e| e.into_inner());
        Frozen { below: self.frozen_below(), thawed: Arc::clone(&thawed) }
    }

    /// Is page `id` immutable until the next checkpoint?
    pub fn is_frozen(&self, id: PageId) -> bool {
        self.frozen().contains(id)
    }

    /// The thawed ids — the free list below the watermark that the
    /// newest checkpoint's manifest records — ascending.
    pub fn thawed(&self) -> Vec<PageId> {
        self.frozen().thawed.iter().copied().collect()
    }

    /// Recovery: install the manifest's free list below the watermark.
    /// Call before [`Pager::discard_unfrozen`], which then drops these ids
    /// along with everything above the watermark.
    pub fn thaw(&self, ids: &[PageId]) {
        let below = self.frozen_below();
        let set: BTreeSet<PageId> =
            ids.iter().copied().filter(|&id| id > 0 && id < below).collect();
        *self.thawed.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(set);
    }

    /// Pool counters snapshot.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Full snapshot for reporting.
    pub fn stats(&self) -> PagerStats {
        let g = self.lock();
        PagerStats {
            pool: self.pool_stats(),
            pages: g.page_count,
            free_pages: g.free.len() as u64,
            capacity: g.frames.len(),
            frozen_below: self.frozen_below(),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }

    /// Pool capacity in frames.
    pub fn capacity(&self) -> usize {
        self.lock().frames.len()
    }

    /// Resize the pool. Shrinking evicts surplus unpinned frames (dirty
    /// ones are written back); fails if more than `capacity` frames are
    /// pinned. Used by tests and the chaos matrix to force eviction
    /// pressure programmatically (the env knob `XQDB_BUFFER_PAGES` only
    /// affects pools created after it is read).
    pub fn set_capacity(&self, capacity: usize) -> Result<(), XdmError> {
        let capacity = capacity.max(2);
        let mut g = self.lock();
        while g.frames.len() < capacity {
            g.frames.push(Frame::empty());
        }
        if g.frames.len() > capacity {
            let pinned = g.frames.iter().filter(|f| f.pins > 0).count();
            if pinned > capacity {
                return Err(XdmError::internal(format!(
                    "cannot shrink buffer pool to {capacity} frames: {pinned} pinned"
                )));
            }
            // Stable partition: keep pinned and low-index frames, evict the
            // rest. Rebuild the map from surviving frames.
            let old = std::mem::take(&mut g.frames);
            let mut keep: Vec<Frame> = Vec::with_capacity(capacity);
            let mut drop_frames: Vec<Frame> = Vec::new();
            for f in old {
                if f.pins > 0 || keep.len() < capacity {
                    keep.push(f);
                } else {
                    drop_frames.push(f);
                }
            }
            while keep.len() > capacity {
                // More pinned frames than capacity is rejected above, so
                // anything past capacity here is unpinned.
                if let Some(f) = keep.pop() {
                    drop_frames.push(f);
                }
            }
            for f in &drop_frames {
                if let Some(id) = f.page {
                    if f.buf.dirty.load(Ordering::Acquire) {
                        Self::write_back(&mut g.backing, id, &f.buf)?;
                    }
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            g.frames = keep;
            let rebuilt: HashMap<PageId, usize> = g
                .frames
                .iter()
                .enumerate()
                .filter_map(|(i, f)| f.page.map(|id| (id, i)))
                .collect();
            g.map = rebuilt;
            g.clock = 0;
        }
        Ok(())
    }

    /// Flush every dirty resident page to the backing store (and sync a
    /// file backing). The write side of a checkpoint.
    pub fn flush_all(&self) -> Result<(), XdmError> {
        let mut g = self.lock();
        let inner = &mut *g;
        for f in &inner.frames {
            if let Some(id) = f.page {
                if f.buf.dirty.load(Ordering::Acquire) {
                    Self::write_back(&mut inner.backing, id, &f.buf)?;
                }
            }
        }
        if let Backing::File(file) = &inner.backing {
            file.sync_all().map_err(|e| io_err("sync", e))?;
        }
        Ok(())
    }

    /// Checkpoint freeze: flush everything, then advance the watermark to
    /// the current page count and return it. Pages below the watermark are
    /// never modified again (heap inserts skip them), so recovery can
    /// trust their CRCs absolutely — except the thawed ones: the free list
    /// and the vacated pages at this moment, which the manifest records
    /// and recovery discards.
    pub fn freeze(&self) -> Result<u64, XdmError> {
        self.flush_all()?;
        let (watermark, thawed) = {
            let g = self.lock();
            let mut thawed: BTreeSet<PageId> = g.free.iter().copied().collect();
            thawed.extend(g.vacating.iter().copied());
            (g.page_count, thawed)
        };
        *self.thawed.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(thawed);
        self.frozen_below.store(watermark, Ordering::Release);
        Ok(watermark)
    }

    /// Record pages whose content a checkpoint moved elsewhere. They keep
    /// their bytes, and nothing allocates them, until a manifest that
    /// lists them as free is durable — the previous manifest may still
    /// need them. Every [`Pager::freeze`] until then thaws them, so a
    /// checkpoint that fails after vacating hands them to the next one.
    pub fn vacate(&self, ids: &[PageId]) {
        let mut g = self.lock();
        let count = g.page_count;
        g.vacating.extend(ids.iter().copied().filter(|&id| id > 0 && id < count));
    }

    /// Free the vacated pages the last [`Pager::freeze`] thawed, once the
    /// manifest it produced is durable: each becomes reusable and is
    /// rewritten as a `Free` image. All of them join the free list before
    /// any image is written, so a failed write cannot leave a vacated
    /// page off the free list — the next freeze thaws whatever the list
    /// holds, and recovery discards it.
    pub fn release_vacated(&self) -> Result<(), XdmError> {
        let frozen = self.frozen();
        let ids: Vec<PageId> = {
            let mut g = self.lock();
            let ids: Vec<PageId> =
                g.vacating.iter().copied().filter(|id| frozen.thawed.contains(id)).collect();
            for &id in &ids {
                g.vacating.remove(&id);
                if let Err(pos) = g.free.binary_search_by(|p| id.cmp(p)) {
                    g.free.insert(pos, id);
                }
            }
            ids
        };
        for id in ids {
            self.free_page(id)?;
        }
        Ok(())
    }

    /// Recovery-time reset of the mutable region: every page at or above
    /// the freeze watermark, and every thawed id below it (see
    /// [`Pager::thaw`]), is reinitialized as a free page and queued for
    /// reuse. The freeze protocol makes this sound — a checkpoint flushes
    /// and freezes everything it covers, so these pages are crash
    /// artifacts the WAL suffix re-creates. Dropping them whether or
    /// not their CRCs are intact makes replay idempotent: otherwise a
    /// re-replay into a partially flushed file would sit fresh copies of
    /// rows next to stale ones with the same rowids, and the next
    /// checkpoint would freeze the duplicates in. Returns the number of
    /// pages discarded.
    pub fn discard_unfrozen(&self) -> Result<u64, XdmError> {
        let first = self.frozen_below().max(1); // page 0 is the Meta page
        let count = self.page_count();
        let thawed = self.thawed();
        let ids: Vec<PageId> =
            thawed.iter().copied().filter(|&id| id < first).chain(first..count).collect();
        for &id in &ids {
            let mut g = self.lock();
            let slot = match g.map.get(&id).copied() {
                Some(slot) => {
                    if g.frames[slot].pins > 0 {
                        return Err(XdmError::internal(format!(
                            "discard_unfrozen: page {id} is pinned"
                        )));
                    }
                    slot
                }
                None => {
                    // Not resident: claim a frame without reading the old
                    // bytes — they are dead whatever their CRC says.
                    let slot = Self::victim(&mut g, &self.evictions)?;
                    Self::evict_occupant(&mut g, slot, &self.evictions)?;
                    g.frames[slot].page = Some(id);
                    g.map.insert(id, slot);
                    slot
                }
            };
            {
                let frame = &g.frames[slot];
                let mut data =
                    frame.buf.data.write().unwrap_or_else(|e| e.into_inner());
                page::init_page(&mut data, id, PageKind::Free);
                frame.buf.dirty.store(true, Ordering::Release);
            }
            g.frames[slot].refbit = true;
            if let Err(pos) = g.free.binary_search_by(|p| id.cmp(p)) {
                g.free.insert(pos, id);
            }
        }
        Ok(ids.len() as u64)
    }

    /// Fetch a page for reading, pinning its frame.
    pub fn fetch(&self, id: PageId) -> Result<PageRef<'_>, XdmError> {
        let (slot, buf) = self.fetch_slot(id, true)?;
        Ok(PageRef { pager: self, slot, buf })
    }

    /// Fetch a page for writing, pinning its frame and marking it dirty on
    /// first mutation.
    pub fn fetch_mut(&self, id: PageId) -> Result<PageMut<'_>, XdmError> {
        let (slot, buf) = self.fetch_slot(id, true)?;
        Ok(PageMut { pager: self, slot, buf })
    }

    /// Recovery-time fetch with torn-write classification: `Ok(None)` for
    /// a corrupt page at or above the freeze watermark (a discarded
    /// post-checkpoint artifact — it is reinitialized as a free page and
    /// becomes reusable), a typed `PageCorrupt` error below it.
    pub fn fetch_classified(&self, id: PageId) -> Result<Option<PageRef<'_>>, XdmError> {
        match self.fetch_slot(id, false) {
            Ok((slot, buf)) => Ok(Some(PageRef { pager: self, slot, buf })),
            Err(e) if e.code == xqdb_xdm::ErrorCode::PageCorrupt => {
                if self.is_frozen(id) {
                    return Err(e);
                }
                self.discarded.fetch_add(1, Ordering::Relaxed);
                // Reinitialize as a free page so the id is reusable and
                // future fetches stop failing.
                let mut g = self.lock();
                let slot = Self::victim(&mut g, &self.evictions)?;
                Self::evict_occupant(&mut g, slot, &self.evictions)?;
                {
                    let frame = &g.frames[slot];
                    let mut data =
                        frame.buf.data.write().unwrap_or_else(|e| e.into_inner());
                    page::init_page(&mut data, id, PageKind::Free);
                    frame.buf.dirty.store(true, Ordering::Release);
                }
                g.frames[slot].page = Some(id);
                g.frames[slot].refbit = true;
                g.map.insert(id, slot);
                let pos = g.free.binary_search_by(|p| id.cmp(p)).unwrap_or_else(|p| p);
                g.free.insert(pos, id);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Allocate a fresh page of `kind` (reusing the lowest thawed free id
    /// if any), returning it pinned for writing. The page is dirty from
    /// birth and reaches the backing store on eviction or flush.
    pub fn allocate(&self, kind: PageKind) -> Result<(PageId, PageMut<'_>), XdmError> {
        let frozen = self.frozen();
        let mut g = self.lock();
        // The lowest free id that is not frozen; ids freed while frozen
        // stay listed (unusable until the next checkpoint thaws them).
        let id = match g.free.iter().rposition(|&id| !frozen.contains(id)) {
            Some(pos) => g.free.remove(pos),
            None => {
                let id = g.page_count;
                g.page_count += 1;
                id
            }
        };
        // A free-listed id can still occupy a frame (discard_unfrozen and
        // torn-write classification park freed pages dirty in the pool).
        // That frame must be claimed in place: claiming a *different*
        // victim would leave two frames for one id, and evicting the
        // stale one later would clobber the new content on disk with the
        // dead Free image (and drop the live mapping with it).
        let slot = match g.map.get(&id).copied() {
            Some(slot) => {
                if g.frames[slot].pins > 0 {
                    return Err(XdmError::internal(format!(
                        "allocate: freed page {id} is still pinned"
                    )));
                }
                // No write-back: the old image is dead whatever it held.
                g.frames[slot].buf.dirty.store(false, Ordering::Release);
                slot
            }
            None => {
                let slot = Self::victim(&mut g, &self.evictions)?;
                Self::evict_occupant(&mut g, slot, &self.evictions)?;
                slot
            }
        };
        {
            let frame = &g.frames[slot];
            let mut data = frame.buf.data.write().unwrap_or_else(|e| e.into_inner());
            page::init_page(&mut data, id, kind);
            frame.buf.dirty.store(true, Ordering::Release);
        }
        let buf = Arc::clone(&g.frames[slot].buf);
        g.frames[slot].page = Some(id);
        g.frames[slot].pins = 1;
        g.frames[slot].refbit = true;
        g.map.insert(id, slot);
        drop(g);
        Ok((id, PageMut { pager: self, slot, buf }))
    }

    /// Return a page to the free list. The caller must hold no guard on
    /// it; the id becomes eligible for reuse by [`Pager::allocate`].
    ///
    /// An unfrozen page is parked in the pool as a dirty `Free` image (the
    /// same move `discard_unfrozen` and torn-write classification make):
    /// if the id is never reallocated before the next checkpoint, the
    /// flush writes a CRC-valid Free page instead of leaving whatever
    /// stale or never-written bytes the backing file held — which a later
    /// freeze would otherwise turn into a permanent recovery error. A
    /// frozen id keeps its on-disk bytes untouched (it is unusable until
    /// the next checkpoint thaws it).
    pub fn free_page(&self, id: PageId) -> Result<(), XdmError> {
        let frozen = self.is_frozen(id);
        let mut g = self.lock();
        if !frozen {
            let slot = match g.map.get(&id).copied() {
                Some(slot) => {
                    if g.frames[slot].pins > 0 {
                        return Err(XdmError::internal(format!("freeing pinned page {id}")));
                    }
                    slot
                }
                None => {
                    let slot = Self::victim(&mut g, &self.evictions)?;
                    Self::evict_occupant(&mut g, slot, &self.evictions)?;
                    g.frames[slot].page = Some(id);
                    g.map.insert(id, slot);
                    slot
                }
            };
            {
                let frame = &g.frames[slot];
                let mut data = frame.buf.data.write().unwrap_or_else(|e| e.into_inner());
                page::init_page(&mut data, id, PageKind::Free);
                frame.buf.dirty.store(true, Ordering::Release);
            }
            g.frames[slot].refbit = true;
        } else if let Some(slot) = g.map.remove(&id) {
            if g.frames[slot].pins > 0 {
                g.map.insert(id, slot);
                return Err(XdmError::internal(format!("freeing pinned page {id}")));
            }
            g.frames[slot].page = None;
            g.frames[slot].buf.dirty.store(false, Ordering::Release);
        }
        if let Err(pos) = g.free.binary_search_by(|p| id.cmp(p)) {
            g.free.insert(pos, id);
        }
        Ok(())
    }

    /// Read access to a page for the duration of a closure (fetch, run,
    /// unpin).
    pub fn with_page<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Result<R, XdmError> {
        let guard = self.fetch(id)?;
        let data = guard.data();
        Ok(f(&data))
    }

    /// Write access to a page for the duration of a closure.
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R, XdmError> {
        let guard = self.fetch_mut(id)?;
        let mut data = guard.data_mut();
        Ok(f(&mut data))
    }

    // ----------------------------------------------------------- internals

    fn fetch_slot(&self, id: PageId, count_stats: bool) -> Result<(usize, Arc<FrameBuf>), XdmError> {
        let mut waiting_since: Option<Instant> = None;
        let (mut g, slot) = loop {
            let mut g = self.lock();
            if id >= g.page_count {
                return Err(XdmError::internal(format!(
                    "page {id} out of range (page count {})",
                    g.page_count
                )));
            }
            if let Some(&slot) = g.map.get(&id) {
                if count_stats {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                g.frames[slot].pins += 1;
                g.frames[slot].refbit = true;
                let buf = Arc::clone(&g.frames[slot].buf);
                return Ok((slot, buf));
            }
            match Self::victim(&mut g, &self.evictions) {
                Ok(slot) => break (g, slot),
                Err(_) if waiting_since.get_or_insert_with(Instant::now).elapsed() < PIN_WAIT => {
                    drop(g);
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) => return Err(e),
            }
        };
        if count_stats {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        Self::evict_occupant(&mut g, slot, &self.evictions)?;
        {
            let inner = &mut *g;
            let frame = &inner.frames[slot];
            let mut data = frame.buf.data.write().unwrap_or_else(|e| e.into_inner());
            Self::read_page(&mut inner.backing, id, &mut data)?;
            page::verify_page(&data, id).map_err(XdmError::page_corrupt)?;
            frame.buf.dirty.store(false, Ordering::Release);
        }
        g.frames[slot].page = Some(id);
        g.frames[slot].pins = 1;
        g.frames[slot].refbit = true;
        g.map.insert(id, slot);
        let buf = Arc::clone(&g.frames[slot].buf);
        Ok((slot, buf))
    }

    /// Clock sweep: skip pinned frames, give referenced ones a second
    /// chance, take the first unpinned unreferenced frame.
    fn victim(g: &mut Inner, _evictions: &AtomicU64) -> Result<usize, XdmError> {
        let n = g.frames.len();
        for _ in 0..2 * n + 1 {
            let slot = g.clock;
            g.clock = (g.clock + 1) % n;
            let frame = &mut g.frames[slot];
            if frame.pins > 0 {
                continue;
            }
            if frame.refbit {
                frame.refbit = false;
                continue;
            }
            return Ok(slot);
        }
        Err(XdmError::internal(format!("buffer pool exhausted: all {n} frames pinned")))
    }

    fn evict_occupant(g: &mut Inner, slot: usize, evictions: &AtomicU64) -> Result<(), XdmError> {
        let inner = &mut *g;
        if let Some(old) = inner.frames[slot].page.take() {
            if inner.frames[slot].buf.dirty.load(Ordering::Acquire) {
                Self::write_back(&mut inner.backing, old, &inner.frames[slot].buf)?;
            }
            inner.map.remove(&old);
            evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn write_back(backing: &mut Backing, id: PageId, buf: &FrameBuf) -> Result<(), XdmError> {
        let mut data = buf.data.write().unwrap_or_else(|e| e.into_inner());
        page::stamp_crc(&mut data);
        match backing {
            Backing::Mem(v) => {
                let idx = usize::try_from(id)
                    .map_err(|_| XdmError::internal("page id exceeds usize"))?;
                while v.len() <= idx {
                    v.push(Box::new([0u8; PAGE_SIZE]));
                }
                v[idx].copy_from_slice(&data[..]);
            }
            Backing::File(f) => {
                f.seek(SeekFrom::Start(id * PAGE_SIZE as u64)).map_err(|e| io_err("seek", e))?;
                f.write_all(&data[..]).map_err(|e| io_err("write", e))?;
            }
        }
        buf.dirty.store(false, Ordering::Release);
        Ok(())
    }

    fn read_page(
        backing: &mut Backing,
        id: PageId,
        out: &mut [u8; PAGE_SIZE],
    ) -> Result<(), XdmError> {
        match backing {
            Backing::Mem(v) => {
                let idx = usize::try_from(id)
                    .map_err(|_| XdmError::internal("page id exceeds usize"))?;
                match v.get(idx) {
                    Some(p) => out.copy_from_slice(&p[..]),
                    None => {
                        return Err(XdmError::page_corrupt(format!(
                            "page {id}: beyond the backing store"
                        )))
                    }
                }
            }
            Backing::File(f) => {
                f.seek(SeekFrom::Start(id * PAGE_SIZE as u64)).map_err(|e| io_err("seek", e))?;
                f.read_exact(&mut out[..]).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        XdmError::page_corrupt(format!("page {id}: truncated (torn write)"))
                    } else {
                        io_err("read", e)
                    }
                })?;
            }
        }
        Ok(())
    }

    fn unpin(&self, slot: usize) {
        let mut g = self.lock();
        if let Some(frame) = g.frames.get_mut(slot) {
            frame.pins = frame.pins.saturating_sub(1);
        }
    }
}

/// Read pin on a page: the frame stays resident while this guard lives.
#[derive(Debug)]
pub struct PageRef<'p> {
    pager: &'p Pager,
    slot: usize,
    buf: Arc<FrameBuf>,
}

impl PageRef<'_> {
    /// The page bytes. The returned lock guard is short-lived; the pin
    /// (this struct) is what keeps the frame resident.
    pub fn data(&self) -> RwLockReadGuard<'_, Box<[u8; PAGE_SIZE]>> {
        self.buf.data.read().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        self.pager.unpin(self.slot);
    }
}

/// Write pin on a page: like [`PageRef`] but grants mutable access and
/// marks the frame dirty.
#[derive(Debug)]
pub struct PageMut<'p> {
    pager: &'p Pager,
    slot: usize,
    buf: Arc<FrameBuf>,
}

impl PageMut<'_> {
    /// Mutable page bytes; marks the frame dirty.
    pub fn data_mut(&self) -> RwLockWriteGuard<'_, Box<[u8; PAGE_SIZE]>> {
        self.buf.dirty.store(true, Ordering::Release);
        self.buf.data.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Read-only view without dirtying.
    pub fn data(&self) -> RwLockReadGuard<'_, Box<[u8; PAGE_SIZE]>> {
        self.buf.data.read().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for PageMut<'_> {
    fn drop(&mut self) {
        self.pager.unpin(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_fetch_roundtrip_mem() {
        let pager = Pager::new_mem(4);
        let (id, guard) = pager.allocate(PageKind::Heap).unwrap();
        guard.data_mut()[100] = 42;
        drop(guard);
        let g = pager.fetch(id).unwrap();
        assert_eq!(g.data()[100], 42);
    }

    #[test]
    fn eviction_pressure_preserves_content() {
        let pager = Pager::new_mem(2);
        let mut ids = Vec::new();
        for i in 0..20u8 {
            let (id, guard) = pager.allocate(PageKind::Heap).unwrap();
            guard.data_mut()[200] = i;
            ids.push(id);
        }
        for (i, id) in ids.iter().enumerate() {
            let g = pager.fetch(*id).unwrap();
            assert_eq!(g.data()[200] as usize, i, "page {id}");
        }
        let stats = pager.pool_stats();
        assert!(stats.evictions > 0, "2-frame pool over 20 pages must evict");
        assert!(stats.misses > 0);
    }

    /// Reallocating a discarded id that is still parked in a frame must
    /// claim that frame in place. The regression this pins down: allocate
    /// used to take a fresh victim and re-point the map, leaving the stale
    /// dirty Free frame behind — whose later eviction wrote the dead Free
    /// image over the new page's disk slot and dropped the live mapping.
    /// The pool shrink below keeps low-index frames, which is exactly
    /// where the stale duplicates sit, so the bug surfaced as reads of
    /// the dead Free image where freshly written records should be.
    #[test]
    fn reallocated_discarded_page_survives_stale_frame_eviction() {
        // 16 frames: all 8 pages stay resident through discard, so every
        // one of them has a live frame when its id is reallocated.
        let pager = Pager::new_mem(16);
        let mut ids = Vec::new();
        for _ in 0..8 {
            let (id, g) = pager.allocate(PageKind::Heap).unwrap();
            g.data_mut()[30] = 1;
            ids.push(id);
        }
        pager.flush_all().unwrap();
        // Watermark 0: discard parks every page Free + dirty in its frame.
        assert_eq!(pager.discard_unfrozen().unwrap(), 8);
        // Reuse every id while those Free frames are all still resident.
        let mut reused = Vec::new();
        for i in 0..8u8 {
            let (id, g) = pager.allocate(PageKind::Heap).unwrap();
            g.data_mut()[30] = 100 + i;
            reused.push(id);
        }
        assert_eq!(reused, ids, "the free list hands the discarded ids back");
        // Shrink: surplus frames are evicted, low-index frames survive.
        // Before the fix the survivors were the stale Free duplicates, and
        // the map was rebuilt pointing at them.
        pager.set_capacity(8).unwrap();
        for (i, id) in reused.iter().enumerate() {
            let g = pager.fetch(*id).unwrap();
            assert_eq!(g.data()[30] as usize, 100 + i, "page {id} clobbered");
        }
    }

    #[test]
    fn pinned_pages_survive_eviction_sweeps() {
        let pager = Pager::new_mem(3);
        let (pinned_id, pinned) = pager.allocate(PageKind::Heap).unwrap();
        pinned.data_mut()[50] = 7;
        // Churn enough pages to sweep the clock many times over.
        for _ in 0..10 {
            let (_, g) = pager.allocate(PageKind::Heap).unwrap();
            g.data_mut()[0] = 1;
        }
        // The pinned guard still reads its frame (never evicted).
        assert_eq!(pinned.data()[50], 7);
        drop(pinned);
        let g = pager.fetch(pinned_id).unwrap();
        assert_eq!(g.data()[50], 7);
    }

    #[test]
    fn fetch_waits_for_a_frame_another_reader_unpins() {
        // Reader 0 pins both frames of a 2-frame pool; reader 1's fetch of
        // a third page waits for the unpin instead of failing.
        let pager = Pager::new_mem(2);
        let ids: Vec<PageId> =
            (0..3).map(|_| pager.allocate(PageKind::Heap).unwrap().0).collect();
        let barrier = std::sync::Barrier::new(2);
        let fetched = xqdb_runtime::WorkerPool::new(2).run(2, |reader| {
            if reader == 0 {
                let pins = (pager.fetch(ids[0]).unwrap(), pager.fetch(ids[1]).unwrap());
                barrier.wait();
                std::thread::sleep(Duration::from_millis(10));
                drop(pins);
                true
            } else {
                barrier.wait();
                pager.fetch(ids[2]).is_ok()
            }
        });
        assert_eq!(fetched, [true, true]);
    }

    #[test]
    fn all_pinned_is_a_typed_error() {
        let pager = Pager::new_mem(2);
        let (_, a) = pager.allocate(PageKind::Heap).unwrap();
        let (_, b) = pager.allocate(PageKind::Heap).unwrap();
        let err = pager.allocate(PageKind::Heap).unwrap_err();
        assert_eq!(err.code, xqdb_xdm::ErrorCode::Internal);
        drop(a);
        drop(b);
        assert!(pager.allocate(PageKind::Heap).is_ok());
    }

    #[test]
    fn free_list_reuses_lowest_id() {
        let pager = Pager::new_mem(4);
        let mut ids = Vec::new();
        for _ in 0..4 {
            let (id, g) = pager.allocate(PageKind::Chain).unwrap();
            drop(g);
            ids.push(id);
        }
        pager.free_page(ids[2]).unwrap();
        pager.free_page(ids[0]).unwrap();
        let (id, g) = pager.allocate(PageKind::Chain).unwrap();
        drop(g);
        assert_eq!(id, ids[0], "lowest freed id first");
        let (id2, g2) = pager.allocate(PageKind::Chain).unwrap();
        drop(g2);
        assert_eq!(id2, ids[2]);
    }

    #[test]
    fn set_capacity_shrink_and_grow() {
        let pager = Pager::new_mem(8);
        let mut ids = Vec::new();
        for i in 0..8u8 {
            let (id, g) = pager.allocate(PageKind::Heap).unwrap();
            g.data_mut()[300] = i;
            ids.push(id);
        }
        pager.set_capacity(2).unwrap();
        assert_eq!(pager.capacity(), 2);
        for (i, id) in ids.iter().enumerate() {
            let g = pager.fetch(*id).unwrap();
            assert_eq!(g.data()[300] as usize, i);
        }
        pager.set_capacity(16).unwrap();
        assert_eq!(pager.capacity(), 16);
    }

    #[test]
    fn vacated_pages_stay_off_the_allocator_until_released() {
        let pager = Pager::new_mem(8);
        let mut ids = Vec::new();
        for _ in 0..3 {
            let (id, g) = pager.allocate(PageKind::Heap).unwrap();
            drop(g);
            ids.push(id);
        }
        pager.freeze().unwrap();
        pager.vacate(&ids[..2]);
        // A freeze whose manifest never lands thaws them but frees nothing.
        pager.freeze().unwrap();
        assert!(!pager.is_frozen(ids[0]) && !pager.is_frozen(ids[1]));
        assert!(pager.is_frozen(ids[2]));
        let (fresh, g) = pager.allocate(PageKind::Heap).unwrap();
        drop(g);
        assert!(!ids.contains(&fresh), "a pending page is never allocated");
        // The next freeze thaws them again; its release frees them.
        pager.freeze().unwrap();
        assert_eq!(pager.thawed(), ids[..2].to_vec());
        pager.release_vacated().unwrap();
        let (reused, g) = pager.allocate(PageKind::Heap).unwrap();
        drop(g);
        assert_eq!(reused, ids[0]);
    }

    #[test]
    fn file_backing_roundtrip_and_freeze() {
        let dir = std::env::temp_dir().join(format!("xqdb-pager-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.xqp");
        let _ = std::fs::remove_file(&path);
        let (pager, torn) = Pager::open_file(&path, 4, 0).unwrap();
        assert!(!torn);
        let (id, g) = pager.allocate(PageKind::Heap).unwrap();
        g.data_mut()[500] = 99;
        drop(g);
        let watermark = pager.freeze().unwrap();
        assert_eq!(watermark, pager.page_count());
        drop(pager);
        let (pager2, torn2) = Pager::open_file(&path, 4, watermark).unwrap();
        assert!(!torn2);
        let g = pager2.fetch(id).unwrap();
        assert_eq!(g.data()[500], 99);
        let _ = std::fs::remove_file(&path);
    }
}
