//! Paged storage: fixed-size CRC-checked pages, a pinning buffer pool,
//! overflow chains and a slotted-page heap for variable-length records.
//!
//! This crate is the disk layer under `xqdb-storage` tables and
//! `xqdb-btree` nodes. Everything above it sees only [`Pager`] (fetch /
//! allocate / free / flush pages through a bounded pool of frames) plus
//! two record abstractions built on pages: [`chain`] (a linked list of
//! pages holding one byte string of arbitrary length) and [`HeapFile`]
//! (a slotted-page heap assigning stable [`RecordId`]s to variable-length
//! records, spilling oversized records into chains).
//!
//! Two backings exist behind one API: an in-memory page vector (the
//! default — the pool is then a bounded cache over an unbounded "disk",
//! so eviction is exercised even without a file), and a real page file
//! for durable sessions. Determinism is a hard requirement inherited
//! from the chaos matrices: page allocation, slot placement and eviction
//! order depend only on the operation sequence, never on timing, so
//! query results are byte-identical at any pool size — including a pool
//! small enough to force eviction mid-query.
//!
//! Torn writes are survivable by protocol, not by luck: every page
//! carries a CRC and its own id, and the durability layer records a
//! *freeze watermark* at each checkpoint. Pages below the watermark are
//! never rewritten, so a corrupt one is real damage (a typed
//! [`xqdb_xdm::ErrorCode::PageCorrupt`] error); a corrupt page at or
//! above it is a discarded post-checkpoint artifact whose content the
//! WAL suffix re-creates.

mod chain;
mod heap;
mod page;
mod pool;

pub use chain::{chain_free, chain_read, chain_rewrite, chain_write, CHAIN_CAP};
pub use heap::{discover_heap_pages, file_stats, frozen_heap_pages, HeapFile, HeapStats, RecordId};
pub use page::{verify_page, PageKind, PAGE_MAGIC, PAGE_SIZE};
pub use pool::{PageMut, PageRef, Pager, PagerStats, PoolStats, DEFAULT_BUFFER_PAGES};

/// A page number within one page file (or in-memory page vector).
pub type PageId = u64;

/// Pool capacity from the environment (`XQDB_BUFFER_PAGES`), falling back
/// to [`DEFAULT_BUFFER_PAGES`]. Values below 2 are clamped to 2: one frame
/// can be pinned while another is being filled.
pub fn buffer_pages_from_env() -> usize {
    std::env::var("XQDB_BUFFER_PAGES")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.max(2))
        .unwrap_or(DEFAULT_BUFFER_PAGES)
}
