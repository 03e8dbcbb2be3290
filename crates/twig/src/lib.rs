//! Structural labels and holistic twig joins.
//!
//! Every element and attribute node of an ingested document gets a
//! *(pre, post, level)* label at insert time: `pre` is the node's
//! document-order position, `post` the position of its last descendant
//! (so `a` is an ancestor of `d` iff `a.pre < d.pre && d.pre <= a.post`),
//! and `level` its depth. Each label also names the rooted path of the
//! table's path synopsis it sits on, so the dataguide says which pattern
//! nodes it can match.
//!
//! Labels are stored **row-major**: each row has one contiguous *run* of
//! its labels in `(cell, pre)` order, and each path has a sorted *posting
//! list* of the rows whose documents hold it. Path hashes are interned per
//! store to dense `u32` ids. The postings are the table's exact path
//! summary: the path prefilter intersects them with
//! [`intersect_postings`], and recovery installs them from the checkpoint
//! manifest. Runs are not persisted: a store keeps them only while every
//! row of its table went through the insert path.
//!
//! A [`Pattern`] is a small tree of named steps joined by child or
//! descendant edges — the shape of a branching path query like
//! `//order[lineitem/@price]//id`. [`resolve_pattern`] maps each pattern
//! node to the synopsis paths that can produce it (pruning impossible
//! branches). A [`TwigJoin`] then works in two steps, both proportional
//! to the rows that reach it rather than to the collection:
//!
//! * [`TwigJoin::candidates`] intersects the rows handed to it with each
//!   pattern node's posting lists, smallest node first, walking the
//!   shorter side of each step and galloping through the longer one;
//! * [`TwigJoin::matches_row`] reads one candidate's run once, in document
//!   order, with a stack per pattern node — a TwigStack-style merge where
//!   partial matches are open stack entries with a child-satisfaction
//!   bitmask.
//!
//! The join is a conservative pre-selection in the sense of the paper's
//! Definition 1: a row it rejects provably cannot match the pattern, and
//! every surviving row is re-checked by the real evaluator — false
//! positives cost time, false negatives are impossible.
//!
//! The crate is std-only and knows nothing about tables, documents or
//! queries: callers feed it rendered path strings (clark-notation
//! components separated by `/`), labels, and patterns.

use std::collections::HashMap;

/// Where one labeled node sits in its row: the XML cell, plus the node's
/// (pre, post, level) structural label.
///
/// `pre` and `post` are arena node ids: `pre` is the node's own id (ids
/// are assigned in document order) and `post` the id of its last
/// descendant (for attributes, its own id). `level` is the depth of the
/// node, with the root element at 1 and its attributes/children at 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelEntry {
    /// Ordinal of the XML cell within the row (tables may have several
    /// XML columns; labels from different cells must never join).
    pub cell: u32,
    /// Document-order position (the node's arena id).
    pub pre: u32,
    /// Arena id of the node's last descendant (own id for attributes):
    /// `a` is a proper ancestor of `d` iff `a.pre < d.pre && d.pre <= a.post`.
    pub post: u32,
    /// Depth: root element 1, its attributes and children 2, and so on.
    pub level: u32,
}

/// One entry of a run: the interned path id and the label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Label {
    path: u32,
    at: LabelEntry,
}

/// Per-table structural labels in row-major form.
///
/// `postings[id]` lists, ascending, the rows whose documents hold path
/// `id`: the table's exact path summary, kept for every row at all times.
/// Rowid `r` owns `runs[r]`, its labels sorted by `(cell, pre)`; a deleted
/// row's run is empty. Runs are not persisted: recovery that adopts rows
/// without re-parsing their XML installs their postings
/// ([`LabelStore::install_posting`]) and drops the runs
/// ([`LabelStore::drop_runs`]), so [`LabelStore::runs_complete_for`] turns
/// false and the planner declines the twig join for the table (falling
/// back to navigation, which is always correct) while the postings still
/// serve the prefilter.
#[derive(Debug, Default, Clone)]
pub struct LabelStore {
    /// Path hash → interned id.
    ids: HashMap<u64, u32>,
    /// Interned id → path hash.
    hashes: Vec<u64>,
    /// Interned id → sorted rows whose documents hold the path.
    postings: Vec<Vec<u64>>,
    /// Rowid → labels in `(cell, pre)` order.
    runs: Vec<Box<[Label]>>,
    /// Set once rows were adopted without their labels: runs are no longer
    /// kept, postings still are.
    runs_dropped: bool,
}

impl LabelStore {
    /// Write `row`'s labels: every label of the row's XML cells, each with
    /// the hash of its rooted path. The row joins the posting list of each
    /// path it holds, and its run keeps the labels sorted by `(cell, pre)`
    /// (they may arrive in any order); rowids between the last run and
    /// `row` get empty runs. A row that already had a run (the re-label
    /// half of a document REPLACE) loses it first; once runs are dropped,
    /// the caller prunes a rewritten row itself.
    pub fn write_run(&mut self, row: u64, labels: impl IntoIterator<Item = (u64, LabelEntry)>) {
        if !self.runs_dropped {
            self.prune_row(row);
        }
        let mut run: Vec<Label> =
            labels.into_iter().map(|(hash, at)| Label { path: self.intern(hash), at }).collect();
        run.sort_by_key(|l| (l.at.cell, l.at.pre));
        let mut paths: Vec<u32> = run.iter().map(|l| l.path).collect();
        paths.sort_unstable();
        paths.dedup();
        for id in paths {
            let posting = &mut self.postings[id as usize];
            // Ingest appends ascending rowids, so this is almost always a
            // push at the end; a REPLACE lands between its neighbours.
            let pos = posting.partition_point(|&r| r < row);
            if posting.get(pos) != Some(&row) {
                posting.insert(pos, row);
            }
        }
        if self.runs_dropped {
            return;
        }
        let slot = row as usize;
        if self.runs.len() <= slot {
            self.runs.resize_with(slot + 1, Box::default);
        }
        self.runs[slot] = run.into_boxed_slice();
    }

    fn intern(&mut self, hash: u64) -> u32 {
        let next = self.hashes.len() as u32;
        let id = *self.ids.entry(hash).or_insert(next);
        if id == next {
            self.hashes.push(hash);
            self.postings.push(Vec::new());
        }
        id
    }

    /// Set the posting list of the path with this hash to `rows` (sorted,
    /// distinct): recovery installing the rows a checkpoint persisted.
    pub fn install_posting(&mut self, hash: u64, rows: Vec<u64>) {
        let id = self.intern(hash);
        self.postings[id as usize] = rows;
    }

    /// Stop keeping runs: at least one row was adopted without its labels
    /// (page-image recovery). Sticky: the table's twig path stays disabled
    /// until the store is rebuilt. Postings are kept and maintained.
    pub fn drop_runs(&mut self) {
        self.runs = Vec::new();
        self.runs_dropped = true;
    }

    /// Take `row` out of the posting list of every path it held and empty
    /// its run (row DELETE, or the first half of a REPLACE). The rowid
    /// keeps its (now empty) run: [`LabelStore::runs_complete_for`] vouches
    /// for the rowid *domain*, and a deleted rowid stays in the domain.
    /// Without runs, every posting list is searched for the row.
    pub fn prune_row(&mut self, row: u64) {
        let unlist = |posting: &mut Vec<u64>| {
            if let Ok(pos) = posting.binary_search(&row) {
                posting.remove(pos);
            }
        };
        if self.runs_dropped {
            self.postings.iter_mut().for_each(unlist);
            return;
        }
        let Some(run) = self.runs.get_mut(row as usize) else { return };
        // A run holds a path once per occurrence; the first removes it.
        for label in std::mem::take(run).iter() {
            unlist(&mut self.postings[label.path as usize]);
        }
    }

    /// True if every one of the table's `rows` rows has its run.
    pub fn runs_complete_for(&self, rows: u64) -> bool {
        !self.runs_dropped && self.labeled_rows() == rows
    }

    /// Number of rowids with a run so far (deleted ones included).
    pub fn labeled_rows(&self) -> u64 {
        self.runs.len() as u64
    }

    /// `row`'s labels in `(cell, pre)` order, each with its path hash
    /// (empty for a deleted or unknown row).
    pub fn run(&self, row: u64) -> impl Iterator<Item = (u64, LabelEntry)> + '_ {
        self.run_of(row).iter().map(|l| (self.hashes[l.path as usize], l.at))
    }

    fn run_of(&self, row: u64) -> &[Label] {
        self.runs.get(row as usize).map_or(&[], |r| r)
    }

    /// The sorted rows whose documents hold the path with this hash (empty
    /// when no row does).
    pub fn posting(&self, hash: u64) -> &[u64] {
        self.ids.get(&hash).map_or(&[], |&id| &self.postings[id as usize])
    }

    /// Every path some row holds, with its posting list. Iteration order
    /// is unspecified; callers sort.
    pub fn postings(&self) -> impl Iterator<Item = (u64, &[u64])> {
        self.hashes
            .iter()
            .zip(&self.postings)
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(&hash, rows)| (hash, rows.as_slice()))
    }

    /// Per path some row holds: `(hash, labels, rows)`, in unspecified
    /// order (labels count 0 once runs are dropped). Counting labels walks
    /// every run — an inspection tool's cost, not the join's.
    pub fn path_counts(&self) -> Vec<(u64, usize, usize)> {
        let mut labels = vec![0usize; self.hashes.len()];
        for label in self.runs.iter().flat_map(|r| r.iter()) {
            labels[label.path as usize] += 1;
        }
        self.hashes
            .iter()
            .zip(&self.postings)
            .zip(labels)
            .filter(|((_, rows), _)| !rows.is_empty())
            .map(|((&hash, rows), n)| (hash, n, rows.len()))
            .collect()
    }
}

/// The rows that sit in at least one posting list of every entry of
/// `nodes`, among `rows` (sorted, distinct) or among all rows the first
/// entry lists when `rows` is `None`. Entries are taken in ascending total
/// posting length, each step an adaptive intersection, so the cost follows
/// the smaller of the rows handed in and the rarest entry's postings.
pub fn intersect_postings(nodes: &[Vec<&[u64]>], rows: Option<&[u64]>) -> Vec<u64> {
    let mut order: Vec<&[&[u64]]> = nodes.iter().map(Vec::as_slice).collect();
    order.sort_by_key(|lists| lists.iter().map(|p| p.len()).sum::<usize>());
    let mut order = order.into_iter();
    let Some(first) = order.next() else { return Vec::new() };
    let mut kept = match rows {
        Some(rows) => narrow(rows, first),
        None => {
            let mut all: Vec<u64> = first.concat();
            if first.len() > 1 {
                all.sort_unstable();
                all.dedup();
            }
            all
        }
    };
    for lists in order {
        if kept.is_empty() {
            break;
        }
        kept = narrow(&kept, lists);
    }
    kept
}

/// The rows of `rows` that appear in any of `lists`.
fn narrow(rows: &[u64], lists: &[&[u64]]) -> Vec<u64> {
    match lists {
        [] => Vec::new(),
        [posting] => {
            let mut out = Vec::new();
            for_each_common(rows, posting, |i| out.push(rows[i]));
            out
        }
        lists => {
            let mut hit = vec![false; rows.len()];
            for posting in lists {
                for_each_common(rows, posting, |i| hit[i] = true);
            }
            rows.iter().zip(hit).filter(|(_, h)| *h).map(|(&r, _)| r).collect()
        }
    }
}

/// How a pattern node relates to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Direct child (or attribute-of) — `a/b`, `a/@x`.
    Child,
    /// Proper descendant — `a//b`. For attributes this is the
    /// `//@x` shape: any attribute strictly inside the ancestor's
    /// interval, which includes the ancestor's own attributes.
    Descendant,
}

/// One node of a twig pattern: a named step plus the edge to its parent
/// (for the root, the edge from the document root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternNode {
    /// Index of the parent node, `None` for the root. Parents always
    /// precede children, so `parent < own index`.
    pub parent: Option<usize>,
    /// Edge from the parent (or from the document root).
    pub edge: Edge,
    /// The path segment this node matches: a clark-notation name
    /// (`{uri}local` or bare `local`), prefixed with `@` for
    /// attributes. This is exactly one `/`-separated segment of the
    /// synopsis's rendered path strings.
    pub component: String,
    /// True for attribute nodes (always leaves).
    pub attribute: bool,
}

/// A twig pattern: a tree of [`PatternNode`]s with node 0 as the root.
///
/// Every node is *required*: a row matches the pattern iff there is an
/// embedding of the whole tree into the row's document respecting names
/// and edges. Queries lower their optional parts by simply omitting
/// them — omission only widens the match set, which is the conservative
/// direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Nodes in parent-before-child order; node 0 is the root.
    pub nodes: Vec<PatternNode>,
}

/// Bitmask child positions are limited to a `u64`; capping total nodes
/// at 64 guarantees every node has at most 63 children.
pub const MAX_PATTERN_NODES: usize = 64;

impl Pattern {
    /// A single-node pattern rooted at `component`.
    pub fn root(edge: Edge, component: impl Into<String>, attribute: bool) -> Self {
        Pattern {
            nodes: vec![PatternNode { parent: None, edge, component: component.into(), attribute }],
        }
    }

    /// Append a child of `parent` and return its index, or `None` once
    /// the [`MAX_PATTERN_NODES`] cap is reached (callers then abandon
    /// the lowering — never matching fewer rows, just opting out).
    pub fn add_child(
        &mut self,
        parent: usize,
        edge: Edge,
        component: impl Into<String>,
        attribute: bool,
    ) -> Option<usize> {
        if self.nodes.len() >= MAX_PATTERN_NODES || parent >= self.nodes.len() {
            return None;
        }
        let idx = self.nodes.len();
        self.nodes.push(PatternNode {
            parent: Some(parent),
            edge,
            component: component.into(),
            attribute,
        });
        Some(idx)
    }

    /// Child indices per node, in pattern order.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                out[p].push(idx);
            }
        }
        out
    }

    /// True if any edge is a descendant edge — the shape the rooted path
    /// prefilter cannot serve.
    pub fn has_descendant_edge(&self) -> bool {
        self.nodes.iter().any(|n| n.edge == Edge::Descendant)
    }

    /// True if any node has two or more children (a genuine branch).
    pub fn has_branch(&self) -> bool {
        self.children().iter().any(|c| c.len() >= 2)
    }

    /// Render the pattern for EXPLAIN output, e.g.
    /// `//order[/lineitem[/@price]][//id]`.
    pub fn render(&self) -> String {
        let children = self.children();
        let mut out = String::new();
        self.render_node(0, &children, &mut out);
        out
    }

    fn render_node(&self, idx: usize, children: &[Vec<usize>], out: &mut String) {
        let node = &self.nodes[idx];
        out.push_str(match node.edge {
            Edge::Child => "/",
            Edge::Descendant => "//",
        });
        out.push_str(&node.component);
        for &c in &children[idx] {
            out.push('[');
            self.render_node(c, children, out);
            out.push(']');
        }
    }
}

/// Split a rendered synopsis path (`/order/lineitem/@price`,
/// `/{urn:a/b}x/y`) into its segments. `/` inside clark braces belongs
/// to the namespace URI, not the path.
pub fn split_rendered_path(rendered: &str) -> Vec<&str> {
    let mut segments = Vec::new();
    let mut depth = 0usize;
    let mut start: Option<usize> = None;
    for (i, b) in rendered.bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            b'/' if depth == 0 => {
                if let Some(s) = start {
                    segments.push(&rendered[s..i]);
                }
                start = Some(i + 1);
                continue;
            }
            _ => {}
        }
        if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        if s < rendered.len() {
            segments.push(&rendered[s..]);
        }
    }
    segments
}

/// Map each pattern node to the synopsis paths (given as
/// `(rendered, hash)` pairs) that can produce a matching node.
///
/// A path matches a node when its last segment equals the node's
/// component and its parent prefix satisfies the node's edge: for a
/// `Child` edge the exact length-minus-one prefix must be in the parent
/// node's set, for a `Descendant` edge any proper prefix; the root's
/// edge constrains the path's length (a `Child` root is a direct child
/// of the document root, so exactly one segment).
///
/// Every proper prefix of a synopsis path is itself a synopsis path
/// (the ingest walker visits all ancestors), so prefix lookups resolve
/// within `paths`. An empty set for any node means the dataguide proves
/// the pattern matches nothing in this table.
pub fn resolve_pattern(pattern: &Pattern, paths: &[(&str, u64)]) -> Vec<Vec<u64>> {
    let split: Vec<Vec<&str>> = paths.iter().map(|(r, _)| split_rendered_path(r)).collect();
    let mut by_segments: HashMap<&[&str], usize> = HashMap::with_capacity(split.len());
    for (i, segs) in split.iter().enumerate() {
        by_segments.insert(segs.as_slice(), i);
    }
    let mut sets: Vec<Vec<bool>> = Vec::with_capacity(pattern.nodes.len());
    for node in &pattern.nodes {
        let mut set = vec![false; paths.len()];
        for (i, segs) in split.iter().enumerate() {
            let Some(last) = segs.last() else { continue };
            if *last != node.component.as_str() {
                continue;
            }
            let ok = match node.parent {
                None => match node.edge {
                    Edge::Child => segs.len() == 1,
                    Edge::Descendant => true,
                },
                Some(p) => match node.edge {
                    Edge::Child => {
                        segs.len() >= 2
                            && by_segments
                                .get(&segs[..segs.len() - 1])
                                .is_some_and(|&idx| sets[p][idx])
                    }
                    Edge::Descendant => (1..segs.len()).any(|k| {
                        by_segments.get(&segs[..k]).is_some_and(|&idx| sets[p][idx])
                    }),
                },
            };
            if ok {
                set[i] = true;
            }
        }
        sets.push(set);
    }
    sets.iter()
        .map(|set| {
            let mut hashes: Vec<u64> = set
                .iter()
                .enumerate()
                .filter(|(_, &on)| on)
                .map(|(i, _)| paths[i].1)
                .collect();
            hashes.sort_unstable();
            hashes.dedup();
            hashes
        })
        .collect()
}

/// An open (pushed, not yet popped) stack entry during the sweep: a
/// node that may still become part of a match, with a bitmask of the
/// child positions already proven below it.
#[derive(Debug, Clone, Copy)]
struct OpenEntry {
    pre: u32,
    post: u32,
    level: u32,
    mask: u64,
}

/// A holistic twig join over one table's label store: the pattern, the
/// posting lists resolved for each pattern node, and the map from path id
/// to the pattern nodes the path can match.
pub struct TwigJoin<'a> {
    pattern: &'a Pattern,
    store: &'a LabelStore,
    /// Per pattern node, the bitmask a fully satisfied entry carries.
    full_mask: Vec<u64>,
    /// Per pattern node, its bit in its parent's mask (0 for the root).
    parent_bit: Vec<u64>,
    /// Per pattern node, the posting lists of its resolved paths.
    postings: Vec<Vec<&'a [u64]>>,
    /// Per interned path id, the pattern nodes it can match, as a bitmask.
    nodes_of: Vec<u64>,
}

impl<'a> TwigJoin<'a> {
    /// Build a join from a pattern, the table's label store, and the
    /// per-node path hashes from [`resolve_pattern`].
    pub fn new(pattern: &'a Pattern, store: &'a LabelStore, resolved: &[Vec<u64>]) -> Self {
        let children = pattern.children();
        // MAX_PATTERN_NODES caps children at 63, so the shift is safe.
        let full_mask = children.iter().map(|c| (1u64 << c.len().min(63)) - 1).collect();
        let mut parent_bit = vec![0u64; pattern.nodes.len()];
        for siblings in &children {
            for (position, &child) in siblings.iter().enumerate() {
                parent_bit[child] = 1u64 << position;
            }
        }
        let mut nodes_of = vec![0u64; store.hashes.len()];
        let postings = resolved
            .iter()
            .enumerate()
            .map(|(node, hashes)| {
                let mut lists = Vec::new();
                for id in hashes.iter().filter_map(|h| store.ids.get(h)) {
                    nodes_of[*id as usize] |= 1u64 << node;
                    let rows = store.postings[*id as usize].as_slice();
                    if !rows.is_empty() {
                        lists.push(rows);
                    }
                }
                lists
            })
            .collect();
        TwigJoin { pattern, store, full_mask, parent_bit, postings, nodes_of }
    }

    /// The rows that have at least one label in every pattern node's
    /// paths — the only rows [`Self::matches_row`] can accept — among
    /// `rows` (sorted, distinct), or among all labeled rows when `rows` is
    /// `None` (see [`intersect_postings`]).
    pub fn candidates(&self, rows: Option<&[u64]>) -> Vec<u64> {
        intersect_postings(&self.postings, rows)
    }

    /// Run the stack-merge over one row's run: true iff some embedding
    /// of the whole pattern exists in one of the row's XML cells. The run
    /// is already in document order per cell, so it is read once, in
    /// place.
    pub fn matches_row(&self, row: u64) -> bool {
        let mut stacks: Vec<Vec<OpenEntry>> = vec![Vec::new(); self.pattern.nodes.len()];
        let mut current_cell = None;
        for label in self.store.run_of(row) {
            let mut nodes = self.nodes_of.get(label.path as usize).copied().unwrap_or(0);
            if nodes == 0 {
                continue;
            }
            let entry = label.at;
            if current_cell != Some(entry.cell) {
                // New document cell: finish the previous one entirely.
                if self.drain(&mut stacks, u32::MAX) {
                    return true;
                }
                current_cell = Some(entry.cell);
            }
            // Pop everything that ends before this node starts; what
            // remains on each stack is an ancestor chain of `entry`.
            if self.drain(&mut stacks, entry.pre) {
                return true;
            }
            while nodes != 0 {
                let node = nodes.trailing_zeros() as usize;
                nodes &= nodes - 1;
                stacks[node].push(OpenEntry {
                    pre: entry.pre,
                    post: entry.post,
                    level: entry.level,
                    mask: 0,
                });
            }
        }
        self.drain(&mut stacks, u32::MAX)
    }

    /// Pop every open entry with `post < limit`, deepest-first
    /// (ascending post, descending pre), propagating child-satisfaction
    /// bits upward. Returns true as soon as a root match completes.
    fn drain(&self, stacks: &mut [Vec<OpenEntry>], limit: u32) -> bool {
        loop {
            // Stacks are nested ancestor chains, so each stack's top has
            // its smallest post: scanning tops finds the global minimum.
            let mut best: Option<(usize, u32, u32)> = None;
            for (node, stack) in stacks.iter().enumerate() {
                if let Some(top) = stack.last() {
                    if top.post < limit
                        && best.map_or(true, |(_, post, pre)| {
                            (top.post, std::cmp::Reverse(top.pre)) < (post, std::cmp::Reverse(pre))
                        })
                    {
                        best = Some((node, top.post, top.pre));
                    }
                }
            }
            let Some((node, _, _)) = best else { return false };
            let Some(entry) = stacks[node].pop() else { return false };
            if entry.mask != self.full_mask[node] {
                continue; // some required child never appeared below it
            }
            match self.pattern.nodes[node].parent {
                None => {
                    // Root: check the edge from the document root.
                    match self.pattern.nodes[node].edge {
                        Edge::Descendant => return true,
                        Edge::Child if entry.level == 1 => return true,
                        Edge::Child => {}
                    }
                }
                Some(parent) => {
                    let bit = self.parent_bit[node];
                    let edge = self.pattern.nodes[node].edge;
                    for open in &mut stacks[parent] {
                        let is_ancestor = open.pre < entry.pre && entry.pre <= open.post;
                        if !is_ancestor {
                            continue;
                        }
                        match edge {
                            Edge::Descendant => open.mask |= bit,
                            Edge::Child if open.level + 1 == entry.level => open.mask |= bit,
                            Edge::Child => {}
                        }
                    }
                }
            }
        }
    }
}

/// Call `hit(i)` for every `i` whose `rows[i]` is in `posting` (both
/// sorted and distinct). The shorter side is walked and the longer one
/// galloped through, so two sides of lengths `s <= l` cost
/// `O(s · log(l / s))` comparisons.
fn for_each_common(rows: &[u64], posting: &[u64], mut hit: impl FnMut(usize)) {
    if rows.len() <= posting.len() {
        let mut at = 0;
        for (i, &row) in rows.iter().enumerate() {
            at += gallop(&posting[at..], row);
            match posting.get(at) {
                None => return,
                Some(&p) if p == row => {
                    hit(i);
                    at += 1;
                }
                Some(_) => {}
            }
        }
    } else {
        let mut at = 0;
        for &p in posting {
            at += gallop(&rows[at..], p);
            match rows.get(at) {
                None => return,
                Some(&row) if row == p => {
                    hit(at);
                    at += 1;
                }
                Some(_) => {}
            }
        }
    }
}

/// The first position of sorted `s` holding a value `>= x`: probe
/// positions 0, 1, 3, 7, … until one reaches `x`, then binary-search the
/// last bracket.
fn gallop(s: &[u64], x: u64) -> usize {
    let mut hi = 1;
    while hi <= s.len() && s[hi - 1] < x {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(s.len());
    lo + s[lo..hi].partition_point(|&v| v < x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(cell: u32, pre: u32, post: u32, level: u32) -> LabelEntry {
        LabelEntry { cell, pre, post, level }
    }

    /// `<a><b x="1"/><c/></a>`: arena ids doc=0, a=1, b=2, @x=3, c=4.
    fn store_abc(row: u64) -> LabelStore {
        let mut s = LabelStore::default();
        s.write_run(
            row,
            [
                (1, entry(0, 1, 4, 1)), // /a
                (2, entry(0, 2, 3, 2)), // /a/b
                (3, entry(0, 3, 3, 3)), // /a/b/@x
                (4, entry(0, 4, 4, 2)), // /a/c
            ],
        );
        s
    }

    const PATHS_ABC: [(&str, u64); 4] = [("/a", 1), ("/a/b", 2), ("/a/b/@x", 3), ("/a/c", 4)];

    fn posting(s: &LabelStore, hash: u64) -> Vec<u64> {
        s.postings().find(|(h, _)| *h == hash).map_or_else(Vec::new, |(_, r)| r.to_vec())
    }

    fn intersect(rows: &[u64], posting: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for_each_common(rows, posting, |i| out.push(rows[i]));
        out
    }

    #[test]
    fn split_handles_plain_and_clark_segments() {
        assert_eq!(split_rendered_path("/a/b/@x"), vec!["a", "b", "@x"]);
        assert_eq!(split_rendered_path("/{urn:a/b}x/y"), vec!["{urn:a/b}x", "y"]);
        assert_eq!(split_rendered_path("/a/@{urn:n/s}id"), vec!["a", "@{urn:n/s}id"]);
        assert!(split_rendered_path("").is_empty());
    }

    #[test]
    fn resolve_respects_edges_and_root() {
        // //b — descendant root, matches /a/b only.
        let p = Pattern::root(Edge::Descendant, "b", false);
        assert_eq!(resolve_pattern(&p, &PATHS_ABC), vec![vec![2]]);
        // /b — child-of-document-root, no one-segment path named b.
        let p = Pattern::root(Edge::Child, "b", false);
        assert_eq!(resolve_pattern(&p, &PATHS_ABC), vec![Vec::<u64>::new()]);
        // /a[/b[/@x]][/c]
        let mut p = Pattern::root(Edge::Child, "a", false);
        let b = p.add_child(0, Edge::Child, "b", false).unwrap();
        p.add_child(b, Edge::Child, "@x", true).unwrap();
        p.add_child(0, Edge::Child, "c", false).unwrap();
        assert_eq!(resolve_pattern(&p, &PATHS_ABC), vec![vec![1], vec![2], vec![3], vec![4]]);
        // //a//@x — descendant edge to the attribute.
        let mut p = Pattern::root(Edge::Descendant, "a", false);
        p.add_child(0, Edge::Descendant, "@x", true).unwrap();
        assert_eq!(resolve_pattern(&p, &PATHS_ABC), vec![vec![1], vec![3]]);
    }

    #[test]
    fn join_matches_branching_pattern() {
        let store = store_abc(7);
        let mut p = Pattern::root(Edge::Child, "a", false);
        let b = p.add_child(0, Edge::Child, "b", false).unwrap();
        p.add_child(b, Edge::Child, "@x", true).unwrap();
        p.add_child(0, Edge::Child, "c", false).unwrap();
        let resolved = resolve_pattern(&p, &PATHS_ABC);
        let join = TwigJoin::new(&p, &store, &resolved);
        assert_eq!(join.candidates(None), vec![7]);
        assert_eq!(join.candidates(Some(&[3, 7, 9])), vec![7]);
        assert!(join.candidates(Some(&[3, 9])).is_empty());
        assert!(join.matches_row(7));
        assert!(!join.matches_row(8));
    }

    #[test]
    fn join_rejects_missing_branch() {
        // /a[/b][/d] — d never appears, so the dataguide already prunes it.
        let store = store_abc(0);
        let mut p = Pattern::root(Edge::Child, "a", false);
        p.add_child(0, Edge::Child, "b", false).unwrap();
        p.add_child(0, Edge::Child, "d", false).unwrap();
        let resolved = resolve_pattern(&p, &PATHS_ABC);
        assert!(resolved[2].is_empty());
        let join = TwigJoin::new(&p, &store, &resolved);
        assert!(join.candidates(None).is_empty());
        assert!(join.candidates(Some(&[0])).is_empty());
    }

    #[test]
    fn join_handles_recursive_elements() {
        // <a><a><b/></a></a>: doc=0, outer a=1, inner a=2, b=3.
        let mut store = LabelStore::default();
        store.write_run(
            0,
            [
                (10, entry(0, 1, 3, 1)), // /a
                (11, entry(0, 2, 3, 2)), // /a/a
                (12, entry(0, 3, 3, 3)), // /a/a/b
            ],
        );
        let paths = [("/a", 10u64), ("/a/a", 11), ("/a/a/b", 12)];
        // //a[/b]: only the inner a has a b child.
        let mut p = Pattern::root(Edge::Descendant, "a", false);
        p.add_child(0, Edge::Child, "b", false).unwrap();
        let resolved = resolve_pattern(&p, &paths);
        assert_eq!(resolved[0], vec![10, 11]);
        let join = TwigJoin::new(&p, &store, &resolved);
        assert_eq!(join.candidates(None), vec![0], "a node over two paths counts a row once");
        assert!(join.matches_row(0));
        // /a[/b]: the outer a has no direct b child — level discipline
        // must reject the grandchild.
        let mut p2 = Pattern::root(Edge::Child, "a", false);
        p2.add_child(0, Edge::Child, "b", false).unwrap();
        let resolved2 = resolve_pattern(&p2, &paths);
        assert!(resolved2[1].is_empty());
        let join2 = TwigJoin::new(&p2, &store, &resolved2);
        assert!(join2.candidates(None).is_empty());
        // //a//b matches through the descendant edge.
        let mut p3 = Pattern::root(Edge::Descendant, "a", false);
        p3.add_child(0, Edge::Descendant, "b", false).unwrap();
        let resolved3 = resolve_pattern(&p3, &paths);
        let join3 = TwigJoin::new(&p3, &store, &resolved3);
        assert!(join3.matches_row(0));
    }

    #[test]
    fn cells_never_join_across() {
        // Row with two XML cells: a in cell 0, b (inside a different a)
        // in cell 1. Pattern /a[/b] must not stitch them together.
        let mut store = LabelStore::default();
        store.write_run(
            0,
            [
                (20, entry(0, 1, 1, 1)), // cell 0: lone /a
                (20, entry(1, 1, 2, 1)), // cell 1: /a
                (21, entry(1, 2, 2, 2)), // cell 1: /a/b
            ],
        );
        let paths = [("/a", 20u64), ("/a/b", 21)];
        let mut p = Pattern::root(Edge::Child, "a", false);
        p.add_child(0, Edge::Child, "b", false).unwrap();
        let resolved = resolve_pattern(&p, &paths);
        let join = TwigJoin::new(&p, &store, &resolved);
        // Cell 1 alone satisfies it, so the row matches…
        assert!(join.matches_row(0));
        // …but with cell 1's b removed, cell 0's a + a stray b in a
        // later cell must not match.
        let mut store2 = LabelStore::default();
        store2.write_run(
            0,
            [
                (21, entry(1, 2, 2, 2)), // cell 1: b without its a label
                (20, entry(0, 1, 1, 1)), // cell 0: lone /a (out of order on purpose)
            ],
        );
        assert_eq!(store2.run(0).map(|(_, e)| e.cell).collect::<Vec<_>>(), vec![0, 1]);
        let join2 = TwigJoin::new(&p, &store2, &resolved);
        assert!(!join2.matches_row(0));
    }

    #[test]
    fn incomplete_store_declines() {
        let mut store = store_abc(0);
        assert!(store.runs_complete_for(1));
        assert!(!store.runs_complete_for(2));
        store.drop_runs();
        assert!(!store.runs_complete_for(1));
        // Postings outlive the runs and keep following the rows.
        store.write_run(1, [(1, entry(0, 1, 1, 1))]);
        assert_eq!(store.run(1).count(), 0);
        assert_eq!(posting(&store, 1), vec![0, 1]);
        assert_eq!(posting(&store, 2), vec![0]);
        // Without runs, pruning searches every posting list for the row.
        store.prune_row(0);
        assert_eq!(posting(&store, 1), vec![1]);
        assert_eq!(store.postings().count(), 1);
        // An installed posting replaces what the path listed.
        store.install_posting(4, vec![3, 5]);
        assert_eq!(store.posting(4), &[3, 5]);
        assert!(store.posting(99).is_empty());
    }

    #[test]
    fn prune_row_empties_the_run_and_its_postings() {
        let mut s = LabelStore::default();
        for row in 0..3u64 {
            let mut run = vec![(1, entry(0, 1, 4, 1)), (2, entry(0, 2, 3, 2))];
            if row == 1 {
                run.push((9, entry(0, 4, 4, 2))); // a path only row 1 has
            }
            s.write_run(row, run);
        }
        s.prune_row(1);
        assert_eq!(posting(&s, 1), vec![0, 2]);
        assert_eq!(s.run(1).count(), 0);
        assert!(posting(&s, 9).is_empty(), "a path no row holds has no posting");
        assert_eq!(s.postings().count(), 2);
        assert_eq!(s.labeled_rows(), 3, "a deleted rowid stays in the domain");
        // Pruning a row with no labels, or past the domain, is a no-op.
        s.prune_row(1);
        s.prune_row(77);
        assert_eq!(posting(&s, 1), vec![0, 2]);
    }

    #[test]
    fn rewritten_run_equals_a_fresh_one() {
        // Rows 0..3 ingested, then row 1 re-labeled (replace): runs and
        // postings must read exactly as if row 1 had been ingested so.
        let mut replaced = LabelStore::default();
        for row in 0..3u64 {
            replaced.write_run(row, [(1, entry(0, 1, 2, 1))]);
        }
        replaced.write_run(1, [(2, entry(0, 2, 3, 2)), (1, entry(0, 1, 3, 1))]);
        let mut fresh = LabelStore::default();
        fresh.write_run(0, [(1, entry(0, 1, 2, 1))]);
        fresh.write_run(1, [(1, entry(0, 1, 3, 1)), (2, entry(0, 2, 3, 2))]);
        fresh.write_run(2, [(1, entry(0, 1, 2, 1))]);
        for row in 0..3 {
            assert_eq!(replaced.run(row).collect::<Vec<_>>(), fresh.run(row).collect::<Vec<_>>());
        }
        for hash in [1, 2] {
            assert_eq!(posting(&replaced, hash), posting(&fresh, hash));
        }
        assert_eq!(posting(&replaced, 2), vec![1]);
        let mut counts = replaced.path_counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![(1, 3, 3), (2, 1, 1)]);
    }

    #[test]
    fn gallop_finds_the_first_position_not_below() {
        let s = [2u64, 4, 6, 8, 10, 12, 14];
        for (x, want) in [(0, 0), (2, 0), (3, 1), (8, 3), (13, 6), (14, 6), (15, 7)] {
            assert_eq!(gallop(&s, x), want, "x = {x}");
        }
        assert_eq!(gallop(&[], 5), 0);
    }

    #[test]
    fn intersection_of_empty_inputs_is_empty() {
        assert!(intersect(&[], &[]).is_empty());
        assert!(intersect(&[], &[1, 2, 3]).is_empty());
        assert!(intersect(&[1, 2, 3], &[]).is_empty());
    }

    #[test]
    fn intersection_of_disjoint_inputs_is_empty() {
        assert!(intersect(&[1, 3, 5], &[2, 4, 6]).is_empty());
        assert!(intersect(&[1, 2], &[10, 20, 30, 40]).is_empty());
        assert!(intersect(&[100, 200, 300], &[1]).is_empty());
    }

    #[test]
    fn intersection_of_equal_inputs_is_either_input() {
        let v: Vec<u64> = (0..50).map(|i| i * 3).collect();
        assert_eq!(intersect(&v, &v), v);
    }

    #[test]
    fn intersection_with_the_rows_side_longer() {
        let rows: Vec<u64> = (0..1000).collect();
        let posting = [0u64, 17, 500, 999, 5000];
        assert_eq!(intersect(&rows, &posting), vec![0, 17, 500, 999]);
        let mut hits = Vec::new();
        for_each_common(&rows, &posting, |i| hits.push(i));
        assert_eq!(hits, vec![0, 17, 500, 999], "hits are positions in `rows`");
    }

    #[test]
    fn intersection_with_the_postings_side_longer() {
        let posting: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        let rows = [1u64, 4, 5, 998, 1998, 1999, 4000];
        assert_eq!(intersect(&rows, &posting), vec![4, 998, 1998]);
        let mut hits = Vec::new();
        for_each_common(&rows, &posting, |i| hits.push(i));
        assert_eq!(hits, vec![1, 3, 4], "hits are positions in `rows`");
    }

    #[test]
    fn candidates_agree_narrowed_and_unnarrowed() {
        // 40 rows: /a everywhere, /a/b on multiples of 3, /a/c on even rows.
        let mut s = LabelStore::default();
        for row in 0..40u64 {
            let mut run = vec![(1, entry(0, 1, 3, 1))];
            if row % 3 == 0 {
                run.push((2, entry(0, 2, 2, 2)));
            }
            if row % 2 == 0 {
                run.push((4, entry(0, 3, 3, 2)));
            }
            s.write_run(row, run);
        }
        s.prune_row(12);
        let mut p = Pattern::root(Edge::Child, "a", false);
        p.add_child(0, Edge::Child, "b", false).unwrap();
        p.add_child(0, Edge::Child, "c", false).unwrap();
        let resolved = resolve_pattern(&p, &PATHS_ABC);
        let join = TwigJoin::new(&p, &s, &resolved);
        let want: Vec<u64> = (0..40).filter(|r| r % 6 == 0 && *r != 12).collect();
        assert_eq!(join.candidates(None), want);
        let all: Vec<u64> = (0..40).collect();
        assert_eq!(join.candidates(Some(&all)), want);
        assert_eq!(join.candidates(Some(&[6, 7, 12, 30])), vec![6, 30]);
    }

    #[test]
    fn render_shows_edges_and_branches() {
        let mut p = Pattern::root(Edge::Descendant, "order", false);
        let li = p.add_child(0, Edge::Child, "lineitem", false).unwrap();
        p.add_child(li, Edge::Child, "@price", true).unwrap();
        p.add_child(0, Edge::Descendant, "id", false).unwrap();
        assert_eq!(p.render(), "//order[/lineitem[/@price]][//id]");
        assert!(p.has_descendant_edge());
        assert!(p.has_branch());
    }
}
