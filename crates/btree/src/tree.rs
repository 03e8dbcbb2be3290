//! The B+Tree proper, paged.
//!
//! Nodes live as serialized records in an `xqdb-pager` buffer pool rather
//! than a `Vec` arena: a node's id is the head page of its record chain,
//! child pointers are page ids, and every node access goes through the
//! pool's fetch path — so a tree bigger than the pool's frame budget works
//! by eviction, and pool hit/miss counters measure real index locality.
//! Splits keep the head page stable (see [`xqdb_pager::chain_rewrite`]),
//! which is what lets parents hold plain page-id pointers.
//!
//! Keys are byte strings (see [`crate::keyenc`]); values implement
//! [`ValueCodec`]. Insert replaces on equal key (map semantics — XML index
//! entries embed `(docid, nodeid)` in the key, so logical duplicates never
//! collide). A node splits when it exceeds [`MAX_KEYS`] entries *or* its
//! serialized form outgrows one page's chain capacity (oversized single
//! keys are allowed — they simply chain across pages).
//!
//! `nodes_touched` keeps its pre-paging meaning: **logical** node visits
//! (root-to-leaf descent plus leaf-chain advances). Whether a visit was a
//! pool hit or a miss is a separate, pool-level statistic — the engine
//! reports the two independently, so the old "re-fetch of a pinned page
//! double-counted as two probes" ambiguity is gone.
//!
//! Deletion removes entries from leaves without structural merging. This is
//! the classic lazy-deletion tradeoff: scans and lookups stay correct, and
//! space is reclaimed on rebuild. The paper's workloads are insert/query
//! dominated, which this matches.
//!
//! The tree's API stays infallible: its private in-memory pager can only
//! fail on real memory corruption, which (like the previous arena's
//! `unreachable!` arms) is a panic, not a `Result`.

use std::ops::Bound;
use std::sync::Arc;

use xqdb_pager::{chain_read, chain_rewrite, chain_write, PageId, Pager, PoolStats, CHAIN_CAP};

/// Maximum number of keys in a node before it splits.
const MAX_KEYS: usize = 64;

/// Serialized-size budget for one node: one chain page's payload. Nodes
/// beyond it split (when they hold at least two keys), so a node is
/// normally exactly one page.
const NODE_BYTE_BUDGET: usize = CHAIN_CAP;

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// Encoded bytes of a leaf before its entries: tag, key count, next leaf.
const LEAF_HEADER: usize = 1 + 2 + 8;
/// Encoded bytes of an internal node before its keys: tag, key count.
const INTERNAL_HEADER: usize = 1 + 2;

type Key = Vec<u8>;

/// Serialization of a B+Tree value payload. Implementations must be
/// self-delimiting: `decode` consumes exactly the bytes `encode` wrote.
pub trait ValueCodec: Clone {
    /// Append this value's encoding.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `bytes`, advancing it.
    fn decode(bytes: &mut &[u8]) -> Self;
}

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    head
}

impl ValueCodec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_bytes: &mut &[u8]) -> Self {}
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl ValueCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&(*self as u64).to_le_bytes());
            }
            fn decode(bytes: &mut &[u8]) -> Self {
                let mut b = [0u8; 8];
                b.copy_from_slice(take(bytes, 8));
                u64::from_le_bytes(b) as $t
            }
        }
    )*};
}
int_codec!(u8, u16, u32, u64, usize, i64);

impl ValueCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        let mut b = [0u8; 4];
        b.copy_from_slice(take(bytes, 4));
        let n = u32::from_le_bytes(b) as usize;
        String::from_utf8_lossy(take(bytes, n)).into_owned()
    }
}

#[derive(Debug, Clone)]
enum Node<V> {
    Internal {
        /// Separator keys; `children.len() == keys.len() + 1`. `keys[i]` is
        /// the smallest key reachable under `children[i + 1]`.
        keys: Vec<Key>,
        children: Vec<PageId>,
    },
    Leaf {
        keys: Vec<Key>,
        values: Vec<V>,
        /// Next leaf in key order (0 = none; page 0 is reserved).
        next: PageId,
    },
}

impl<V: ValueCodec> Node<V> {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        match self {
            Node::Leaf { keys, values, next } => {
                out.push(TAG_LEAF);
                out.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                out.extend_from_slice(&next.to_le_bytes());
                for (k, v) in keys.iter().zip(values) {
                    out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                    out.extend_from_slice(k);
                    v.encode(&mut out);
                }
            }
            Node::Internal { keys, children } => {
                out.push(TAG_INTERNAL);
                out.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                for k in keys {
                    out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                    out.extend_from_slice(k);
                }
                for c in children {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        out
    }

    fn decode(bytes: &[u8]) -> Node<V> {
        let mut r = bytes;
        let tag = take(&mut r, 1)[0];
        let mut b2 = [0u8; 2];
        b2.copy_from_slice(take(&mut r, 2));
        let nkeys = u16::from_le_bytes(b2) as usize;
        let read_key = |r: &mut &[u8]| {
            let mut b4 = [0u8; 4];
            b4.copy_from_slice(take(r, 4));
            take(r, u32::from_le_bytes(b4) as usize).to_vec()
        };
        match tag {
            TAG_LEAF => {
                let mut b8 = [0u8; 8];
                b8.copy_from_slice(take(&mut r, 8));
                let next = PageId::from_le_bytes(b8);
                let mut keys = Vec::with_capacity(nkeys);
                let mut values = Vec::with_capacity(nkeys);
                for _ in 0..nkeys {
                    keys.push(read_key(&mut r));
                    values.push(V::decode(&mut r));
                }
                Node::Leaf { keys, values, next }
            }
            TAG_INTERNAL => {
                let mut keys = Vec::with_capacity(nkeys);
                for _ in 0..nkeys {
                    keys.push(read_key(&mut r));
                }
                let mut children = Vec::with_capacity(nkeys + 1);
                for _ in 0..=nkeys {
                    let mut b8 = [0u8; 8];
                    b8.copy_from_slice(take(&mut r, 8));
                    children.push(PageId::from_le_bytes(b8));
                }
                Node::Internal { keys, children }
            }
            t => panic!("btree node record: unknown tag {t}"),
        }
    }
}

/// A paged B+Tree over byte-string keys.
pub struct BPlusTree<V> {
    pager: Arc<Pager>,
    root: PageId,
    len: usize,
    _values: std::marker::PhantomData<V>,
}

impl<V> std::fmt::Debug for BPlusTree<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BPlusTree")
            .field("len", &self.len)
            .field("root", &self.root)
            .field("pages", &self.pager.page_count())
            .finish()
    }
}

impl<V: ValueCodec> Default for BPlusTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: ValueCodec> BPlusTree<V> {
    /// Create an empty tree over its own private in-memory pager, sized
    /// from `XQDB_BUFFER_PAGES`.
    pub fn new() -> Self {
        Self::with_pool_pages(xqdb_pager::buffer_pages_from_env())
    }

    /// Create an empty tree with an explicit pool capacity (frames).
    pub fn with_pool_pages(capacity: usize) -> Self {
        let pager = Arc::new(Pager::new_mem(capacity));
        let empty: Node<V> = Node::Leaf { keys: Vec::new(), values: Vec::new(), next: 0 };
        let root = chain_write(&pager, &empty.encode())
            .unwrap_or_else(|e| panic!("btree node store: {e}"));
        BPlusTree { pager, root, len: 0, _values: std::marker::PhantomData }
    }

    /// Build a tree bottom-up from entries in strictly ascending key order
    /// (an index snapshot): leaves are packed left to right up to the
    /// split limits, each followed by its parent level, so loading `n`
    /// sorted entries writes each node once instead of descending the tree
    /// `n` times. Returns `None` if the keys are not strictly ascending.
    pub fn from_sorted(entries: impl IntoIterator<Item = (Key, V)>) -> Option<Self> {
        let tree = Self::new();
        let mut len = 0usize;
        // (first key, node id) of each finished node of the level below.
        let mut level: Vec<(Key, PageId)> = Vec::new();
        let mut keys: Vec<Key> = Vec::new();
        let mut values: Vec<V> = Vec::new();
        let mut bytes = LEAF_HEADER;
        let mut id = tree.root; // the empty root leaf becomes the first leaf
        for (key, value) in entries {
            if keys.last().is_some_and(|last| *last >= key) {
                return None;
            }
            let mut encoded = Vec::new();
            value.encode(&mut encoded);
            let entry = 4 + key.len() + encoded.len();
            if !keys.is_empty() && (keys.len() == MAX_KEYS || bytes + entry > NODE_BYTE_BUDGET) {
                let empty: Node<V> = Node::Leaf { keys: Vec::new(), values: Vec::new(), next: 0 };
                let next = tree.alloc_node(&empty);
                let first = keys[0].clone();
                let (keys, values) = (std::mem::take(&mut keys), std::mem::take(&mut values));
                tree.write_node(id, &Node::Leaf { keys, values, next });
                level.push((first, id));
                id = next;
                bytes = LEAF_HEADER;
            }
            bytes += entry;
            keys.push(key);
            values.push(value);
            len += 1;
        }
        let first = keys.first().cloned().unwrap_or_default();
        tree.write_node(id, &Node::Leaf { keys, values, next: 0 });
        level.push((first, id));
        // Parent levels: each internal node takes up to MAX_KEYS + 1
        // children, its separators the first keys of children 1.. .
        while level.len() > 1 {
            let mut parents = Vec::with_capacity(level.len() / MAX_KEYS + 1);
            let mut rest = level.as_slice();
            while !rest.is_empty() {
                let mut take = 1;
                let mut bytes = INTERNAL_HEADER + 8;
                while take < rest.len() && take <= MAX_KEYS {
                    let more = 4 + rest[take].0.len() + 8;
                    if bytes + more > NODE_BYTE_BUDGET {
                        break;
                    }
                    bytes += more;
                    take += 1;
                }
                let (group, tail) = rest.split_at(take);
                let node: Node<V> = Node::Internal {
                    keys: group[1..].iter().map(|(k, _)| k.clone()).collect(),
                    children: group.iter().map(|(_, c)| *c).collect(),
                };
                parents.push((group[0].0.clone(), tree.alloc_node(&node)));
                rest = tail;
            }
            level = parents;
        }
        let root = level[0].1;
        Some(BPlusTree { root, len, ..tree })
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffer-pool counters of this tree's node store (hits / misses /
    /// evictions), monotone over the tree's lifetime.
    pub fn pool_stats(&self) -> PoolStats {
        self.pager.pool_stats()
    }

    /// Resize this tree's buffer pool (eviction-pressure testing).
    pub fn set_pool_pages(&self, capacity: usize) {
        self.pager
            .set_capacity(capacity)
            .unwrap_or_else(|e| panic!("btree node store: {e}"));
    }

    fn read_node(&self, id: PageId) -> Node<V> {
        let mut fetched = 0u64;
        let bytes = chain_read(&self.pager, id, &mut fetched)
            .unwrap_or_else(|e| panic!("btree node store: {e}"));
        Node::decode(&bytes)
    }

    fn write_node(&self, id: PageId, node: &Node<V>) {
        chain_rewrite(&self.pager, id, &node.encode())
            .unwrap_or_else(|e| panic!("btree node store: {e}"));
    }

    fn alloc_node(&self, node: &Node<V>) -> PageId {
        chain_write(&self.pager, &node.encode())
            .unwrap_or_else(|e| panic!("btree node store: {e}"))
    }

    /// Insert `key` → `value`, replacing and returning the previous value on
    /// an exact key match.
    pub fn insert(&mut self, key: Key, value: V) -> Option<V> {
        match self.insert_rec(self.root, key, value) {
            InsertResult::Replaced(old) => Some(old),
            InsertResult::Inserted => {
                self.len += 1;
                None
            }
            InsertResult::Split(sep, right) => {
                self.len += 1;
                let new_root =
                    Node::Internal { keys: vec![sep], children: vec![self.root, right] };
                self.root = self.alloc_node(&new_root);
                None
            }
        }
    }

    /// Exact-match lookup.
    pub fn get(&self, key: &[u8]) -> Option<V> {
        let mut touched = 0;
        let (_, node) = self.find_leaf_counted(key, &mut touched);
        if let Node::Leaf { keys, values, .. } = node {
            match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                Ok(i) => Some(values[i].clone()),
                Err(_) => None,
            }
        } else {
            unreachable!("find_leaf returns a leaf")
        }
    }

    /// Remove an exact key, returning its value. Leaves are shrunk in place
    /// (no structural rebalance — see the module docs).
    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        let mut touched = 0;
        let (id, node) = self.find_leaf_counted(key, &mut touched);
        if let Node::Leaf { mut keys, mut values, next } = node {
            match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                Ok(i) => {
                    keys.remove(i);
                    let v = values.remove(i);
                    self.len -= 1;
                    self.write_node(id, &Node::Leaf { keys, values, next });
                    Some(v)
                }
                Err(_) => None,
            }
        } else {
            unreachable!("find_leaf returns a leaf")
        }
    }

    /// Range scan over `(lower, upper)` bounds, yielding owned `(key, value)`
    /// pairs in key order. Each visited leaf is decoded from its page(s)
    /// once; at most one leaf's entries are materialized at a time.
    pub fn range(&self, lower: Bound<&[u8]>, upper: Bound<&[u8]>) -> RangeIter<'_, V> {
        // Find the starting leaf/position, counting descent node touches
        // (internal nodes plus the landing leaf) for the scan-effort stats.
        let mut touched = 0usize;
        let (leaf, from) = match lower {
            Bound::Unbounded => (self.leftmost_leaf_counted(&mut touched), None),
            Bound::Included(k) => (self.find_leaf_counted(k, &mut touched), Some((k, true))),
            Bound::Excluded(k) => (self.find_leaf_counted(k, &mut touched), Some((k, false))),
        };
        let (keys, values, next) = match leaf.1 {
            Node::Leaf { keys, values, next } => (keys, values, next),
            Node::Internal { .. } => unreachable!("find_leaf returns a leaf"),
        };
        let start = match from {
            None => 0,
            Some((k, inclusive)) => match keys.binary_search_by(|kk| kk.as_slice().cmp(k)) {
                Ok(i) => {
                    if inclusive {
                        i
                    } else {
                        i + 1
                    }
                }
                Err(i) => i,
            },
        };
        let mut entries: Vec<(Key, V)> = keys.into_iter().zip(values).collect();
        entries.drain(..start);
        RangeIter {
            tree: self,
            cur: entries.into_iter(),
            next_leaf: next,
            upper: upper.map(<[u8]>::to_vec),
            touched,
            done: false,
        }
    }

    /// Iterate every entry in key order.
    pub fn iter(&self) -> RangeIter<'_, V> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Index footprint in bytes: pages allocated by the node store. The
    /// page-granular successor of the old heap estimate, for the index-size
    /// accounting in the experiments.
    pub fn approx_bytes(&self) -> usize {
        self.pager.page_count() as usize * xqdb_pager::PAGE_SIZE
    }

    fn leftmost_leaf_counted(&self, touched: &mut usize) -> (PageId, Node<V>) {
        let mut cur = self.root;
        loop {
            *touched += 1;
            let node = self.read_node(cur);
            match node {
                Node::Internal { ref children, .. } => cur = children[0],
                Node::Leaf { .. } => return (cur, node),
            }
        }
    }

    fn find_leaf_counted(&self, key: &[u8], touched: &mut usize) -> (PageId, Node<V>) {
        let mut cur = self.root;
        loop {
            *touched += 1;
            let node = self.read_node(cur);
            match node {
                Node::Internal { ref keys, ref children } => {
                    let idx = match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    cur = children[idx];
                }
                Node::Leaf { .. } => return (cur, node),
            }
        }
    }

    /// Does this node need to split? Over the key cap, or over the one-page
    /// byte budget while still divisible (two or more keys).
    fn needs_split(nkeys: usize, encoded_len: usize) -> bool {
        nkeys > MAX_KEYS || (encoded_len > NODE_BYTE_BUDGET && nkeys >= 2)
    }

    fn insert_rec(&mut self, node_id: PageId, key: Key, value: V) -> InsertResult<V> {
        match self.read_node(node_id) {
            Node::Leaf { mut keys, mut values, next } => {
                match keys.binary_search_by(|k| k.as_slice().cmp(&key)) {
                    Ok(i) => {
                        let old = std::mem::replace(&mut values[i], value);
                        self.write_node(node_id, &Node::Leaf { keys, values, next });
                        InsertResult::Replaced(old)
                    }
                    Err(i) => {
                        keys.insert(i, key);
                        values.insert(i, value);
                        let node = Node::Leaf { keys, values, next };
                        let encoded = node.encode();
                        if let Node::Leaf { keys, values, next } = node {
                            if Self::needs_split(keys.len(), encoded.len()) {
                                return self.split_leaf(node_id, keys, values, next);
                            }
                            chain_rewrite(&self.pager, node_id, &encoded)
                                .unwrap_or_else(|e| panic!("btree node store: {e}"));
                        }
                        InsertResult::Inserted
                    }
                }
            }
            Node::Internal { mut keys, mut children } => {
                let idx = match keys.binary_search_by(|k| k.as_slice().cmp(&key)) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                let child = children[idx];
                match self.insert_rec(child, key, value) {
                    InsertResult::Split(sep, right) => {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        let node: Node<V> = Node::Internal { keys, children };
                        let encoded = node.encode();
                        if let Node::Internal { keys, children } = node {
                            if Self::needs_split(keys.len(), encoded.len()) {
                                return self.split_internal(node_id, keys, children);
                            }
                            chain_rewrite(&self.pager, node_id, &encoded)
                                .unwrap_or_else(|e| panic!("btree node store: {e}"));
                        }
                        InsertResult::Inserted
                    }
                    other => other,
                }
            }
        }
    }

    fn split_leaf(
        &mut self,
        node_id: PageId,
        mut keys: Vec<Key>,
        mut values: Vec<V>,
        next: PageId,
    ) -> InsertResult<V> {
        let mid = keys.len() / 2;
        let right_keys: Vec<Key> = keys.drain(mid..).collect();
        let right_values: Vec<V> = values.drain(mid..).collect();
        let sep = right_keys[0].clone();
        let right =
            self.alloc_node(&Node::Leaf { keys: right_keys, values: right_values, next });
        self.write_node(node_id, &Node::Leaf { keys, values, next: right });
        InsertResult::Split(sep, right)
    }

    fn split_internal(
        &mut self,
        node_id: PageId,
        mut keys: Vec<Key>,
        mut children: Vec<PageId>,
    ) -> InsertResult<V> {
        let mid = keys.len() / 2;
        let sep = keys[mid].clone();
        let right_keys: Vec<Key> = keys.drain(mid + 1..).collect();
        keys.pop(); // drop the separator from the left node
        let right_children: Vec<PageId> = children.drain(mid + 1..).collect();
        let right =
            self.alloc_node(&Node::Internal { keys: right_keys, children: right_children });
        self.write_node(node_id, &Node::Internal { keys, children });
        InsertResult::Split(sep, right)
    }
}

enum InsertResult<V> {
    Inserted,
    Replaced(V),
    Split(Key, PageId),
}

/// Iterator over a key range, in key order, yielding owned entries.
pub struct RangeIter<'a, V> {
    tree: &'a BPlusTree<V>,
    cur: std::vec::IntoIter<(Key, V)>,
    next_leaf: PageId,
    upper: Bound<Vec<u8>>,
    touched: usize,
    done: bool,
}

impl<'a, V: ValueCodec> RangeIter<'a, V> {
    /// Tree nodes touched so far: the initial root-to-leaf descent plus
    /// every leaf the scan advanced to along the leaf chain. Logical node
    /// visits — pool hits and misses are counted separately at the pool
    /// level (see [`BPlusTree::pool_stats`]).
    pub fn nodes_touched(&self) -> usize {
        self.touched
    }
}

impl<'a, V: ValueCodec> Iterator for RangeIter<'a, V> {
    type Item = (Key, V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.done {
                return None;
            }
            if let Some((k, v)) = self.cur.next() {
                let in_range = match &self.upper {
                    Bound::Unbounded => true,
                    Bound::Included(u) => k.as_slice() <= u.as_slice(),
                    Bound::Excluded(u) => k.as_slice() < u.as_slice(),
                };
                if !in_range {
                    self.done = true;
                    return None;
                }
                return Some((k, v));
            }
            if self.next_leaf == 0 {
                self.done = true;
                return None;
            }
            self.touched += 1;
            match self.tree.read_node(self.next_leaf) {
                Node::Leaf { keys, values, next } => {
                    self.cur = keys.into_iter().zip(values).collect::<Vec<_>>().into_iter();
                    self.next_leaf = next;
                }
                Node::Internal { .. } => unreachable!("leaf chain contains only leaves"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeMap;

    fn key(i: u64) -> Vec<u8> {
        crate::keyenc::encode_u64(i).to_vec()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = BPlusTree::new();
        for i in 0..1000u64 {
            assert_eq!(t.insert(key(i * 7 % 1000), i), None);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(t.get(&key(i * 7 % 1000)), Some(i));
        }
        assert_eq!(t.get(&key(5000)), None);
    }

    #[test]
    fn insert_replaces() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(key(1), "a".to_string()), None);
        assert_eq!(t.insert(key(1), "b".to_string()), Some("a".to_string()));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&key(1)), Some("b".to_string()));
    }

    #[test]
    fn full_scan_is_sorted() {
        let mut t = BPlusTree::new();
        let mut order: Vec<u64> = (0..5000).collect();
        // Deterministic shuffle.
        for i in 0..order.len() {
            let j = (i * 2654435761) % order.len();
            order.swap(i, j);
        }
        for &i in &order {
            t.insert(key(i), i);
        }
        let scanned: Vec<u64> = t.iter().map(|(_, v)| v).collect();
        let expected: Vec<u64> = (0..5000).collect();
        assert_eq!(scanned, expected);
    }

    #[test]
    fn tiny_pool_forces_eviction_same_results() {
        // A 2-frame pool over a tree spanning many pages: every access
        // evicts, yet contents must be identical to a roomy pool's.
        let mut small: BPlusTree<u64> = BPlusTree::with_pool_pages(2);
        let mut big: BPlusTree<u64> = BPlusTree::with_pool_pages(512);
        for i in 0..3000u64 {
            let k = key(i * 13 % 3000);
            small.insert(k.clone(), i);
            big.insert(k, i);
        }
        let a: Vec<(Vec<u8>, u64)> = small.iter().collect();
        let b: Vec<(Vec<u8>, u64)> = big.iter().collect();
        assert_eq!(a, b);
        let stats = small.pool_stats();
        assert!(stats.evictions > 0, "2-frame pool must evict");
    }

    #[test]
    fn oversized_keys_chain_across_pages() {
        let mut t: BPlusTree<u64> = BPlusTree::with_pool_pages(4);
        // Keys bigger than one page's chain capacity.
        for i in 0..10u64 {
            let mut k = vec![i as u8; 2 * NODE_BYTE_BUDGET];
            k.extend_from_slice(&key(i));
            t.insert(k, i);
        }
        assert_eq!(t.len(), 10);
        let got: Vec<u64> = t.iter().map(|(_, v)| v).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn range_bounds() {
        let mut t = BPlusTree::new();
        for i in 0..100u64 {
            t.insert(key(i), i);
        }
        let collect = |lo: Bound<&[u8]>, hi: Bound<&[u8]>| -> Vec<u64> {
            t.range(lo, hi).map(|(_, v)| v).collect()
        };
        let k10 = key(10);
        let k20 = key(20);
        assert_eq!(
            collect(Bound::Included(&k10), Bound::Included(&k20)),
            (10..=20).collect::<Vec<_>>()
        );
        assert_eq!(
            collect(Bound::Excluded(&k10), Bound::Excluded(&k20)),
            (11..=19).collect::<Vec<_>>()
        );
        assert_eq!(collect(Bound::Unbounded, Bound::Excluded(&k10)), (0..10).collect::<Vec<_>>());
        assert_eq!(
            collect(Bound::Included(&k20), Bound::Unbounded),
            (20..100).collect::<Vec<_>>()
        );
        // Empty range.
        assert!(collect(Bound::Excluded(&k20), Bound::Included(&k10)).is_empty());
    }

    #[test]
    fn range_with_missing_endpoints() {
        let mut t = BPlusTree::new();
        for i in (0..100u64).step_by(2) {
            t.insert(key(i), i);
        }
        let k9 = key(9);
        let k21 = key(21);
        let got: Vec<u64> = t
            .range(Bound::Included(k9.as_slice()), Bound::Excluded(k21.as_slice()))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18, 20]);
    }

    #[test]
    fn remove_entries() {
        let mut t = BPlusTree::new();
        for i in 0..500u64 {
            t.insert(key(i), i);
        }
        for i in (0..500u64).step_by(2) {
            assert_eq!(t.remove(&key(i)), Some(i));
        }
        assert_eq!(t.len(), 250);
        assert_eq!(t.remove(&key(0)), None);
        let got: Vec<u64> = t.iter().map(|(_, v)| v).collect();
        assert_eq!(got, (0..500).filter(|i| i % 2 == 1).collect::<Vec<_>>());
    }

    #[test]
    fn variable_length_keys() {
        let mut t = BPlusTree::new();
        let words = ["", "a", "ab", "abc", "b", "ba", "z"];
        for (i, w) in words.iter().enumerate() {
            let mut k = Vec::new();
            crate::keyenc::encode_str(w, &mut k);
            t.insert(k, i);
        }
        let got: Vec<usize> = t.iter().map(|(_, v)| v).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6]); // already sorted input
    }

    #[test]
    fn approx_bytes_grows() {
        let mut t = BPlusTree::new();
        let empty = t.approx_bytes();
        for i in 0..1000u64 {
            t.insert(key(i), i);
        }
        assert!(t.approx_bytes() > empty);
    }

    #[test]
    fn matches_btreemap() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model: BTreeMap<Vec<u8>, u8> = BTreeMap::new();
            let mut tree: BPlusTree<u8> = BPlusTree::new();
            for _ in 0..rng.random_range(1..400usize) {
                let k = rng.random_range(0..=u16::MAX as u32) as u16;
                let v = rng.random_range(0..=u8::MAX as u32) as u8;
                let kb = crate::keyenc::encode_u64(u64::from(k)).to_vec();
                if rng.random_bool(0.5) {
                    assert_eq!(tree.insert(kb.clone(), v), model.insert(kb, v));
                } else {
                    assert_eq!(tree.remove(&kb), model.remove(&kb));
                }
                assert_eq!(tree.len(), model.len());
            }
            let tree_entries: Vec<(Vec<u8>, u8)> = tree.iter().collect();
            let model_entries: Vec<(Vec<u8>, u8)> =
                model.iter().map(|(k, v)| (k.clone(), *v)).collect();
            assert_eq!(tree_entries, model_entries, "seed {seed}");
        }
    }

    #[test]
    fn range_matches_btreemap() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let mut model: BTreeMap<Vec<u8>, u16> = BTreeMap::new();
            let mut tree: BPlusTree<u16> = BPlusTree::new();
            for _ in 0..rng.random_range(1..300usize) {
                let k = rng.random_range(0..=u16::MAX as u32) as u16;
                let kb = crate::keyenc::encode_u64(u64::from(k)).to_vec();
                model.insert(kb.clone(), k);
                tree.insert(kb, k);
            }
            let lo = rng.random_range(0..=u16::MAX as u32) as u16;
            let hi = rng.random_range(0..=u16::MAX as u32) as u16;
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let lob = crate::keyenc::encode_u64(u64::from(lo)).to_vec();
            let hib = crate::keyenc::encode_u64(u64::from(hi)).to_vec();
            let got: Vec<u16> = tree
                .range(Bound::Included(lob.as_slice()), Bound::Excluded(hib.as_slice()))
                .map(|(_, v)| v)
                .collect();
            let want: Vec<u16> = model.range(lob..hib).map(|(_, v)| *v).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn bulk_build_equals_incremental_build() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut incremental: BPlusTree<u64> = BPlusTree::new();
        let mut model = BTreeMap::new();
        for _ in 0..5000 {
            // Variable-length keys, some long enough to pressure the byte
            // budget before the key cap.
            let n = rng.random_range(0..100_000u64);
            let mut k = key(n).to_vec();
            k.extend(std::iter::repeat_n(b'x', (n % 300) as usize));
            incremental.insert(k.clone(), n);
            model.insert(k, n);
        }
        let bulk = BPlusTree::from_sorted(model.clone()).expect("sorted input");
        assert_eq!(bulk.len(), incremental.len());
        let a: Vec<_> = bulk.iter().collect();
        let b: Vec<_> = incremental.iter().collect();
        assert_eq!(a, b);
        for probe in [0u64, 17, 5_000, 50_000, 99_999] {
            let lo = key(probe);
            let hi = key(probe + 2_000);
            let x: Vec<_> = bulk.range(Bound::Included(&lo), Bound::Excluded(&hi)).collect();
            let y: Vec<_> =
                incremental.range(Bound::Included(&lo), Bound::Excluded(&hi)).collect();
            assert_eq!(x, y, "range from {probe}");
        }
        // A bulk-built tree keeps working as an ordinary tree.
        let mut bulk = bulk;
        for (k, v) in model.iter().take(100) {
            assert_eq!(bulk.remove(k), Some(*v));
        }
        for i in 0..500u64 {
            bulk.insert(key(i * 3 + 1), i);
        }
        let mut expect = model.clone();
        for k in model.keys().take(100) {
            expect.remove(k);
        }
        for i in 0..500u64 {
            expect.insert(key(i * 3 + 1).to_vec(), i);
        }
        let got: Vec<_> = bulk.iter().collect();
        let want: Vec<_> = expect.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn bulk_build_rejects_unsorted_and_accepts_empty() {
        let unsorted = vec![(key(2).to_vec(), ()), (key(1).to_vec(), ())];
        assert!(BPlusTree::from_sorted(unsorted).is_none());
        let duplicate = vec![(key(1).to_vec(), ()), (key(1).to_vec(), ())];
        assert!(BPlusTree::from_sorted(duplicate).is_none());
        let empty: BPlusTree<()> = BPlusTree::from_sorted(Vec::new()).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
        let one = BPlusTree::from_sorted(vec![(key(5).to_vec(), ())]).unwrap();
        assert_eq!(one.get(&key(5)), Some(()));
    }
}
