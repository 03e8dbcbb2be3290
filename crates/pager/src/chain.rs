//! Page chains: one byte string of arbitrary length stored across a
//! linked list of [`PageKind::Chain`] pages.
//!
//! Chains back two things: heap records too large for a slotted page
//! (overflow), and serialized B+Tree nodes (whose head page id doubles as
//! the stable node id — [`chain_rewrite`] keeps the head fixed while the
//! tail grows or shrinks). Link layout after the 16-byte page header:
//!
//! ```text
//! offset  size  field
//! 16      8     next page id (0 = end of chain; page 0 is Meta, never a link)
//! 24      4     chunk length
//! 28      ...   chunk bytes (up to CHAIN_CAP)
//! ```
//!
//! At most one page is pinned at a time, so chains of any length work
//! under the 2-frame minimum pool.

use std::sync::Arc;

use xqdb_xdm::XdmError;

use crate::page::{page_kind, PageKind, HEADER_LEN, PAGE_SIZE};
use crate::pool::Pager;
use crate::PageId;

/// Payload bytes per chain page.
pub const CHAIN_CAP: usize = PAGE_SIZE - HEADER_LEN - 12;

const NEXT_OFF: usize = HEADER_LEN;
const LEN_OFF: usize = HEADER_LEN + 8;
const DATA_OFF: usize = HEADER_LEN + 12;

fn read_link(buf: &[u8; PAGE_SIZE]) -> (PageId, usize) {
    let mut next = [0u8; 8];
    next.copy_from_slice(&buf[NEXT_OFF..NEXT_OFF + 8]);
    let mut len = [0u8; 4];
    len.copy_from_slice(&buf[LEN_OFF..LEN_OFF + 4]);
    (PageId::from_le_bytes(next), u32::from_le_bytes(len) as usize)
}

/// The page ids of the chain starting at `head`, head first (read-only:
/// nothing is freed).
pub fn chain_pages(pager: &Arc<Pager>, head: PageId) -> Result<Vec<PageId>, XdmError> {
    let mut ids = Vec::new();
    let mut cur = head;
    let limit = pager.page_count();
    while cur != 0 {
        if ids.len() as u64 > limit {
            return Err(XdmError::page_corrupt(format!("chain at page {head}: cycle detected")));
        }
        ids.push(cur);
        cur = pager.with_page(cur, |buf| {
            if page_kind(buf) != Some(PageKind::Chain) {
                return Err(XdmError::page_corrupt(format!("page {cur}: expected a chain link")));
            }
            Ok(read_link(buf).0)
        })??;
    }
    Ok(ids)
}

/// Write `bytes` as a fresh chain, returning its head page id.
pub fn chain_write(pager: &Arc<Pager>, bytes: &[u8]) -> Result<PageId, XdmError> {
    let (head, guard) = pager.allocate(PageKind::Chain)?;
    drop(guard);
    chain_rewrite(pager, head, bytes)?;
    Ok(head)
}

/// Rewrite the chain starting at `head` to hold exactly `bytes`, keeping
/// `head` stable: tail pages are reused, freed, or allocated as the new
/// length requires.
pub fn chain_rewrite(pager: &Arc<Pager>, head: PageId, bytes: &[u8]) -> Result<(), XdmError> {
    let old = chain_pages(pager, head)?;
    // Chunking: always at least one chunk so empty byte strings round-trip.
    let nchunks = bytes.len().div_ceil(CHAIN_CAP).max(1);
    let mut ids = old.clone();
    ids.truncate(nchunks);
    while ids.len() < nchunks {
        let (id, guard) = pager.allocate(PageKind::Chain)?;
        drop(guard);
        ids.push(id);
    }
    for &surplus in old.iter().skip(nchunks) {
        pager.free_page(surplus)?;
    }
    for (i, id) in ids.iter().enumerate() {
        let start = i * CHAIN_CAP;
        let chunk = &bytes[start.min(bytes.len())..(start + CHAIN_CAP).min(bytes.len())];
        let next = if i + 1 < nchunks { ids[i + 1] } else { 0 };
        pager.with_page_mut(*id, |buf| {
            buf[NEXT_OFF..NEXT_OFF + 8].copy_from_slice(&next.to_le_bytes());
            buf[LEN_OFF..LEN_OFF + 4].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
            buf[DATA_OFF..DATA_OFF + chunk.len()].copy_from_slice(chunk);
        })?;
    }
    Ok(())
}

/// Read a whole chain back. `pages_fetched` is incremented once per link
/// followed (the physical-fetch count behind index effort metrics).
pub fn chain_read(
    pager: &Arc<Pager>,
    head: PageId,
    pages_fetched: &mut u64,
) -> Result<Vec<u8>, XdmError> {
    let mut out = Vec::new();
    let mut cur = head;
    let limit = pager.page_count();
    let mut steps = 0u64;
    while cur != 0 {
        steps += 1;
        if steps > limit {
            return Err(XdmError::page_corrupt(format!("chain at page {head}: cycle detected")));
        }
        *pages_fetched += 1;
        cur = pager.with_page(cur, |buf| {
            if page_kind(buf) != Some(PageKind::Chain) {
                return Err(XdmError::page_corrupt(format!("page {cur}: expected a chain link")));
            }
            let (next, len) = read_link(buf);
            if DATA_OFF + len > PAGE_SIZE {
                return Err(XdmError::page_corrupt(format!(
                    "page {cur}: chain chunk length {len} exceeds the page"
                )));
            }
            out.extend_from_slice(&buf[DATA_OFF..DATA_OFF + len]);
            Ok(next)
        })??;
    }
    Ok(out)
}

/// Free every page of a chain.
pub fn chain_free(pager: &Arc<Pager>, head: PageId) -> Result<(), XdmError> {
    let mut cur = head;
    let limit = pager.page_count();
    let mut steps = 0u64;
    while cur != 0 {
        steps += 1;
        if steps > limit {
            return Err(XdmError::page_corrupt(format!("chain at page {head}: cycle detected")));
        }
        let next = pager.with_page(cur, |buf| read_link(buf).0)?;
        pager.free_page(cur)?;
        cur = next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Arc<Pager> {
        Arc::new(Pager::new_mem(2))
    }

    #[test]
    fn roundtrip_various_sizes() {
        let pager = mem();
        for size in [0usize, 1, 100, CHAIN_CAP, CHAIN_CAP + 1, 3 * CHAIN_CAP + 17] {
            let bytes: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
            let head = chain_write(&pager, &bytes).unwrap();
            let mut fetched = 0;
            let back = chain_read(&pager, head, &mut fetched).unwrap();
            assert_eq!(back, bytes, "size {size}");
            assert_eq!(fetched as usize, size.div_ceil(CHAIN_CAP).max(1));
        }
    }

    #[test]
    fn rewrite_grow_shrink_keeps_head() {
        let pager = mem();
        let head = chain_write(&pager, b"short").unwrap();
        let big: Vec<u8> = vec![7u8; 2 * CHAIN_CAP + 5];
        chain_rewrite(&pager, head, &big).unwrap();
        let mut n = 0;
        assert_eq!(chain_read(&pager, head, &mut n).unwrap(), big);
        chain_rewrite(&pager, head, b"tiny again").unwrap();
        let mut n = 0;
        assert_eq!(chain_read(&pager, head, &mut n).unwrap(), b"tiny again");
        assert_eq!(n, 1, "shrunk back to a single link");
    }

    #[test]
    fn free_returns_pages_for_reuse() {
        let pager = mem();
        let head = chain_write(&pager, &vec![1u8; 2 * CHAIN_CAP]).unwrap();
        let before = pager.page_count();
        chain_free(&pager, head).unwrap();
        let head2 = chain_write(&pager, &vec![2u8; 2 * CHAIN_CAP]).unwrap();
        assert_eq!(pager.page_count(), before, "freed pages reused, no growth");
        let mut n = 0;
        assert_eq!(chain_read(&pager, head2, &mut n).unwrap(), vec![2u8; 2 * CHAIN_CAP]);
    }
}
