//! The use tree of a query, and the two structural filters derived from it.
//!
//! Both structural pre-filters — the path prefilter
//! ([`SourcePrefilter`]) and the holistic twig join ([`SourceTwig`]) —
//! need the same fact about a query: which element/attribute structure a
//! document **must** contain to contribute anything. The query walk
//! ([`crate::walk`]) records every recognized *use* of a source here, as a
//! tree of steps below the document root; [`Structure::prefilters`] and
//! [`Structure::twigs`] then derive each filter from those uses. Both obey
//! Definition 1: they may pass documents that do not match, never drop one
//! that could contribute.
//!
//! ## Uses, OR'd per source
//!
//! Two `for` clauses over one source form a cartesian product; a `let` and
//! a separate path are independent uses. A document may contribute through
//! any use, so each filter keeps a document if **any** use accepts it. A
//! use rooted at a path contributes the empty sequence on a document
//! lacking that path, and positions, aggregates and node sequences are
//! computed over non-empty contributions only — so dropping such a
//! document cannot change what the use produces for the others.
//!
//! ## The two derivations
//!
//! * **Prefilter group** per use: the rooted child/attribute paths at the
//!   end of each required chain, cut at the first descendant edge or opaque
//!   node (the safe prefix), in the order the chains ended. A use with no
//!   such path accepts every document and drops the source's filter.
//! * **Twig pattern** per use: the nodes reached along the use's own path
//!   and its step predicates, up to [`xqdb_twig::MAX_PATTERN_NODES`], with
//!   identical sibling subtrees kept once. Variable uses are covered by
//!   their binding's pattern, so they add nothing; a use the pattern cannot
//!   root (a bare source, a leading wildcard), or one found inside a branch
//!   the pattern does not hold, drops the source. A source is routed
//!   through the join only if some pattern has a descendant edge or a
//!   branch — pure child chains are the prefilter's job: one posting list
//!   per path, no label runs read.

use std::collections::HashMap;

use xqdb_storage::{extend_attribute, extend_element, render_component, PATH_HASH_SEED};
use xqdb_twig::{Edge, Pattern};
use xqdb_xdm::ExpandedName;

use crate::prefilter::{RequiredGroup, SourcePrefilter};
use crate::twig::SourceTwig;

/// One component of a required rooted path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathComponent {
    /// A child element with a concrete expanded name.
    Element(ExpandedName),
    /// An attribute with a concrete expanded name (always terminal).
    Attribute(ExpandedName),
}

/// A rooted path a document must contain (non-empty component chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequiredPath {
    /// Components from the document root down.
    pub components: Vec<PathComponent>,
}

impl RequiredPath {
    /// The path's hash — same incremental construction the storage layer
    /// uses at insert time, so it keys the path's posting list.
    pub fn hash(&self) -> u64 {
        let mut h = PATH_HASH_SEED;
        for c in &self.components {
            h = match c {
                PathComponent::Element(n) => extend_element(h, n),
                PathComponent::Attribute(n) => extend_attribute(h, n),
            };
        }
        h
    }

    /// Render in the storage synopsis's clark form (`/{ns}a/b/@c`), for
    /// EXPLAIN notes and the exact-path property tests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.components {
            match c {
                PathComponent::Element(n) => render_component(&mut out, false, n),
                PathComponent::Attribute(n) => render_component(&mut out, true, n),
            }
        }
        out
    }
}

/// One step of a use, below its parent (`None`: the document root).
#[derive(Debug)]
struct Node {
    parent: Option<usize>,
    edge: Edge,
    /// `None` for an opaque step; nothing is recorded below one.
    name: Option<ExpandedName>,
    attribute: bool,
    /// Reached along the use's own path or a step predicate below it — not
    /// through a variable, nor through a predicate on the document node
    /// itself (`xmlcolumn('S')[a/b]`).
    on_path: bool,
}

/// Where one chain of steps ended.
#[derive(Debug)]
struct End {
    node: Option<usize>,
    /// A predicate branch requires only the nodes it added itself (index
    /// `>= own`); a chain standing on its own has `own == 0`.
    own: usize,
    /// Below a `for` variable inside a `let` binding: requires nothing.
    optional: bool,
}

/// One recognized use of a source: a tree of steps below the document.
#[derive(Debug)]
struct Use {
    source: String,
    /// Parent-before-child, in walk order.
    nodes: Vec<Node>,
    /// Chain ends, in the order the chains ended.
    ends: Vec<End>,
    /// Opened by a use of a `let` variable, seeded with its binding path.
    seeded: bool,
    /// Found inside a predicate of a node that is not on its use's path.
    hidden: bool,
    /// When the use's own path was fully walked (orders the patterns).
    closed: usize,
}

impl Use {
    /// The required path at the deepest node of `end` reachable from the
    /// root through named child edges — if that node belongs to the chain.
    fn requirement(&self, end: &End) -> Option<RequiredPath> {
        let mut chain = Vec::new();
        let mut cur = end.node;
        while let Some(i) = cur {
            chain.push(i);
            cur = self.nodes[i].parent;
        }
        let placed: Vec<(usize, &Node)> = chain
            .into_iter()
            .rev()
            .map(|i| (i, &self.nodes[i]))
            .take_while(|(_, n)| n.name.is_some() && n.edge == Edge::Child)
            .collect();
        if placed.last().is_none_or(|&(last, _)| last < end.own) {
            return None;
        }
        let components = placed
            .into_iter()
            .filter_map(|(_, n)| {
                let name = n.name.clone()?;
                Some(if n.attribute {
                    PathComponent::Attribute(name)
                } else {
                    PathComponent::Element(name)
                })
            })
            .collect();
        Some(RequiredPath { components })
    }

    /// The twig pattern of the use's own path and step predicates, capped
    /// at the first [`xqdb_twig::MAX_PATTERN_NODES`] nodes. `None` if the
    /// path names no root.
    ///
    /// A sibling whose whole subtree equals an earlier sibling's is left
    /// out: a match sets each child's bit independently, so the copy adds
    /// matching work over the label runs but no constraint. Siblings that merely share a name
    /// stay apart — `order[lineitem/@price][lineitem/remark]` does not
    /// require one lineitem with both.
    fn pattern(&self) -> Option<Pattern> {
        let label = |n: &Node| {
            let name = n.name.as_ref().filter(|_| n.on_path)?;
            Some(if n.attribute { format!("@{}", name.clark()) } else { name.clark() })
        };
        let mut children = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(parent) = n.parent {
                children[parent].push(i);
            }
        }
        let mut shape: Vec<Option<String>> = vec![None; self.nodes.len()];
        let mut copy = vec![false; self.nodes.len()];
        for i in (0..self.nodes.len()).rev() {
            let Some(label) = label(&self.nodes[i]) else { continue };
            let mut kept: Vec<&str> = Vec::new();
            for &c in &children[i] {
                let Some(child) = shape[c].as_deref() else { continue };
                copy[c] = kept.contains(&child);
                if !copy[c] {
                    kept.push(child);
                }
            }
            shape[i] = Some(format!("{:?}{label}[{}]", self.nodes[i].edge, kept.join(",")));
        }
        let mut pattern: Option<Pattern> = None;
        let mut index = vec![None; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            let (Some(component), false) = (label(n), copy[i]) else {
                continue;
            };
            index[i] = match (pattern.as_mut(), n.parent) {
                (None, None) => {
                    pattern = Some(Pattern::root(n.edge, component, n.attribute));
                    Some(0)
                }
                (Some(p), Some(parent)) => match index[parent] {
                    Some(at) => match p.add_child(at, n.edge, component, n.attribute) {
                        Some(idx) => Some(idx),
                        None => break,
                    },
                    None => None,
                },
                _ => None,
            };
        }
        pattern
    }
}

/// A position in a use's tree: below `node` (`None`: the document root).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pos {
    pub(crate) use_id: usize,
    pub(crate) node: Option<usize>,
    /// On the use's own path or a step predicate below it.
    pub(crate) on_path: bool,
}

/// The recognized uses of a query's sources.
#[derive(Debug, Default)]
pub(crate) struct Structure {
    uses: Vec<Use>,
    /// Uses closed so far.
    closed: usize,
}

impl Structure {
    /// Open a use of `source` at its document root; a `seeded` one stands
    /// for one use of a `let` variable and is off the pattern's path.
    pub(crate) fn open(&mut self, source: String, hidden: bool, seeded: bool) -> Pos {
        let (nodes, ends, closed) = (Vec::new(), Vec::new(), usize::MAX);
        self.uses.push(Use { source, nodes, ends, seeded, hidden, closed });
        Pos { use_id: self.uses.len() - 1, node: None, on_path: !seeded }
    }

    /// A fresh use for one use of a `let` variable bound at `from`: seeded
    /// with the binding's path when that is a plain chain of named child
    /// elements, at the document root otherwise.
    pub(crate) fn seed(&mut self, from: Pos, hidden: bool) -> Pos {
        let base = &self.uses[from.use_id];
        let mut path = Vec::new();
        let mut cur = from.node;
        while let Some(i) = cur {
            let n = &base.nodes[i];
            match &n.name {
                Some(name) if n.edge == Edge::Child && !n.attribute => path.push(name.clone()),
                _ => {
                    path.clear();
                    break;
                }
            }
            cur = n.parent;
        }
        let mut start = self.open(base.source.clone(), hidden, true);
        for name in path.into_iter().rev() {
            start = self.add(start, Edge::Child, Some(name), false);
        }
        start
    }

    /// The use's own path is fully walked.
    pub(crate) fn close(&mut self, at: Pos) {
        self.uses[at.use_id].closed = self.closed;
        self.closed += 1;
    }

    /// A step below `at`: a named element or attribute, or opaque (`None`).
    pub(crate) fn add(
        &mut self,
        at: Pos,
        edge: Edge,
        name: Option<ExpandedName>,
        attribute: bool,
    ) -> Pos {
        let nodes = &mut self.uses[at.use_id].nodes;
        nodes.push(Node { parent: at.node, edge, name, attribute, on_path: at.on_path });
        Pos { node: Some(nodes.len() - 1), ..at }
    }

    /// A chain ended at `at`; it requires the nodes from index `own` on.
    pub(crate) fn end(&mut self, at: Pos, own: usize, optional: bool) {
        self.uses[at.use_id].ends.push(End { node: at.node, own, optional });
    }

    /// Where a predicate branch below `anchor` starts, and its `own` floor.
    /// A predicate on the document node itself (`xmlcolumn('S')[a/b]`) is
    /// not on the pattern's path.
    pub(crate) fn branch(&self, anchor: Pos) -> (Pos, usize) {
        let on_path = anchor.on_path && anchor.node.is_some();
        (Pos { on_path, ..anchor }, self.uses[anchor.use_id].nodes.len())
    }

    /// True if nothing records below `at`: an attribute or opaque node.
    pub(crate) fn is_leaf(&self, at: Pos) -> bool {
        at.node.is_some_and(|i| {
            let n = &self.uses[at.use_id].nodes[i];
            n.attribute || n.name.is_none()
        })
    }

    /// Keep only the uses of sources that pass `keep`.
    pub(crate) fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.uses.retain(|u| keep(&u.source));
    }

    /// Per-source path prefilters: one conjunctive group per use.
    pub(crate) fn prefilters(&self) -> HashMap<String, SourcePrefilter> {
        let mut groups: HashMap<&str, Vec<Vec<RequiredPath>>> = HashMap::new();
        for u in &self.uses {
            let mut paths: Vec<RequiredPath> = Vec::new();
            let required = u.ends.iter().filter(|e| !e.optional);
            for path in required.filter_map(|e| u.requirement(e)) {
                if !paths.contains(&path) {
                    paths.push(path);
                }
            }
            groups.entry(&u.source).or_default().push(paths);
        }
        groups
            .into_iter()
            .filter(|(_, groups)| !groups.iter().any(Vec::is_empty))
            .map(|(src, groups)| {
                let groups = groups.into_iter().map(RequiredGroup::new).collect();
                (src.to_string(), SourcePrefilter { groups })
            })
            .collect()
    }

    /// Per-source twig patterns: one per use, kept only if every use
    /// lowered and some pattern is worth the join.
    pub(crate) fn twigs(&self) -> HashMap<String, SourceTwig> {
        let mut uses: Vec<&Use> = self.uses.iter().filter(|u| !u.seeded).collect();
        uses.sort_by_key(|u| u.closed);
        let mut patterns: HashMap<&str, Option<Vec<Pattern>>> = HashMap::new();
        for u in uses {
            let entry = patterns.entry(&u.source).or_insert_with(|| Some(Vec::new()));
            match (entry.as_mut(), u.pattern().filter(|_| !u.hidden)) {
                (Some(ps), Some(p)) if ps.contains(&p) => {}
                (Some(ps), Some(p)) => ps.push(p),
                _ => *entry = None,
            }
        }
        patterns
            .into_iter()
            .filter_map(|(src, ps)| {
                let patterns = ps?;
                patterns
                    .iter()
                    .any(|p| p.has_descendant_edge() || p.has_branch())
                    .then(|| (src.to_string(), SourceTwig { patterns }))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::eligibility::AnalysisEnv;

    const COL: &str = "db2-fn:xmlcolumn('ORDERS.ORDDOC')";

    fn rendered(query: &str) -> (Vec<String>, Vec<String>) {
        let q = xqdb_xquery::parse_query(query).unwrap();
        let s = crate::walk::walk(&q.body, &AnalysisEnv::new(), crate::walk::Body::Query).structure;
        let pf = s.prefilters().values().map(SourcePrefilter::render).collect();
        let tw = s.twigs().values().map(SourceTwig::render).collect();
        (pf, tw)
    }

    #[test]
    fn for_var_paths_inside_a_let_are_optional() {
        // `$w` may be empty without dropping the tuple: `/order/custid`
        // must not join the `$o` group.
        let (pf, _) =
            rendered(&format!("for $o in {COL}/order let $w := {COL}/x[$o/custid] return $o"));
        assert_eq!(pf, vec!["/order | /x"]);
    }

    #[test]
    fn positional_filter_on_the_collection_filters_nothing() {
        // `[1]` picks the first document of whichever documents survive:
        // narrowing the collection would change which one that is.
        for q in [
            format!("{COL}[1]/order/custid"),
            format!("{COL}[last()]//order[custid]"),
            format!("for $o in {COL}[position() = 1]/order return $o"),
            format!("{COL}[order][1]/order/custid"),
        ] {
            let (pf, tw) = rendered(&q);
            assert!(pf.is_empty() && tw.is_empty(), "{q}: {pf:?} {tw:?}");
        }
        // A per-document truth value filters as before.
        let (pf, _) = rendered(&format!("{COL}[order/promo and order/custid = 7]/order"));
        assert_eq!(pf, vec!["/order/promo & /order/custid & /order"]);
    }

    #[test]
    fn rooted_paths_below_descendant_steps_are_uses() {
        // A rooted path in a predicate below `//` is a use of its own for
        // both filters.
        let (pf, tw) = rendered(&format!("{COL}/order//lineitem[{COL}/config/flag]"));
        assert_eq!(pf, vec!["/order | /config/flag"]);
        assert_eq!(tw, vec!["/config[/flag] | /order[//lineitem]"]);
    }

    #[test]
    fn identical_sibling_subtrees_are_kept_once() {
        let (_, tw) = rendered(&format!("{COL}//order[lineitem[@price > 100 and @price < 200]]"));
        assert_eq!(tw, vec!["//order[/lineitem[/@price]]"]);
        let (_, tw) =
            rendered(&format!("{COL}//order[lineitem[@price > 1]][lineitem[@price < 5]]/custid"));
        assert_eq!(tw, vec!["//order[/lineitem[/@price]][/custid]"]);
        // Equal names with different subtrees stay apart: one lineitem
        // with both children would be a narrower pattern.
        let (_, tw) = rendered(&format!("{COL}//order[lineitem/@price][lineitem/remark]"));
        assert_eq!(tw, vec!["//order[/lineitem[/@price]][/lineitem[/remark]]"]);
    }
}
