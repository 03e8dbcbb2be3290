//! Items and sequences.
//!
//! XQuery's only composite value is the flat sequence — "XQuery does not
//! have nested sequences" (Section 3.4 of the paper), and sequence
//! concatenation therefore *discards* empty sequences, which is one of the
//! places the eligibility analyzer may exploit an index even under `let`
//! semantics.

use std::fmt;

use crate::atomic::AtomicValue;
use crate::error::{XdmError, XdmResult};
use crate::node::NodeHandle;

/// A single XDM item: a node or an atomic value.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A node reference (identity-bearing).
    Node(NodeHandle),
    /// An atomic value.
    Atomic(AtomicValue),
}

impl Item {
    /// The item's atomization: nodes yield their typed value, atomics pass
    /// through unchanged.
    pub fn atomize(&self) -> XdmResult<AtomicValue> {
        match self {
            Item::Node(n) => n.typed_value(),
            Item::Atomic(a) => Ok(a.clone()),
        }
    }

    /// The item's string value (`fn:string`).
    pub fn string_value(&self) -> String {
        match self {
            Item::Node(n) => n.string_value(),
            Item::Atomic(a) => a.lexical(),
        }
    }

    /// Borrow the node, if this item is one.
    pub fn as_node(&self) -> Option<&NodeHandle> {
        match self {
            Item::Node(n) => Some(n),
            Item::Atomic(_) => None,
        }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Item::Node(n) => write!(f, "{n:?}"),
            Item::Atomic(a) => write!(f, "{a}"),
        }
    }
}

/// A flat, ordered sequence of items. `Vec`-backed; the evaluator works in
/// materialized form (documents are small — the paper's workload is millions
/// of documents *under 1 MB*, filtered by indexes before navigation).
pub type Sequence = Vec<Item>;

/// Construct an empty sequence.
pub fn empty() -> Sequence {
    Vec::new()
}

/// Construct a singleton sequence from an atomic value.
pub fn singleton_atomic(v: AtomicValue) -> Sequence {
    vec![Item::Atomic(v)]
}

/// Atomize every item of a sequence (`fn:data`).
pub fn atomize(seq: &[Item]) -> XdmResult<Vec<AtomicValue>> {
    seq.iter().map(Item::atomize).collect()
}

/// The **effective boolean value** (EBV) of a sequence:
///
/// * empty → `false`;
/// * first item a node → `true` (regardless of length);
/// * singleton boolean → the value; singleton string/untyped/anyURI →
///   `false` iff empty; singleton numeric → `false` iff zero or NaN;
/// * otherwise → `err:FORG0006`-style type error (reported as XPTY0004
///   here, the distinction is immaterial to the engine).
///
/// Note the contrast that drives the paper's Query 9 pitfall: the EBV of
/// `true()` *and* of `false()` wrapped in `XMLExists`'s "non-empty sequence"
/// test are both "non-empty", so `XMLExists` over a boolean-valued XQuery is
/// always true. `XMLExists` deliberately does **not** use the EBV.
pub fn effective_boolean_value(seq: &[Item]) -> XdmResult<bool> {
    match seq {
        [] => Ok(false),
        [Item::Node(_), ..] => Ok(true),
        [Item::Atomic(a)] => match a {
            AtomicValue::Boolean(b) => Ok(*b),
            AtomicValue::String(s) | AtomicValue::UntypedAtomic(s) | AtomicValue::AnyUri(s) => {
                Ok(!s.is_empty())
            }
            AtomicValue::Double(d) => Ok(*d != 0.0 && !d.is_nan()),
            AtomicValue::Integer(i) => Ok(*i != 0),
            AtomicValue::Decimal(d) => Ok(*d != 0),
            AtomicValue::Date(_) | AtomicValue::DateTime(_) => Err(XdmError::type_error(
                "effective boolean value of a date/dateTime is undefined",
            )),
        },
        _ => Err(XdmError::type_error(
            "effective boolean value of a multi-item atomic sequence is undefined",
        )),
    }
}

/// Deduplicate nodes by identity and sort into document order; raise a type
/// error if any item is atomic. This is the post-processing every path step
/// applies (and what makes rewrites over constructed nodes delicate —
/// Section 3.6 case 5).
pub fn doc_order_dedup(seq: Sequence) -> XdmResult<Sequence> {
    let mut nodes: Vec<NodeHandle> = Vec::with_capacity(seq.len());
    for item in seq {
        match item {
            Item::Node(n) => nodes.push(n),
            Item::Atomic(a) => {
                return Err(XdmError::type_error(format!(
                    "path step produced the atomic value {a:?}; steps must return nodes"
                )))
            }
        }
    }
    nodes.sort();
    nodes.dedup();
    Ok(nodes.into_iter().map(Item::Node).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DocumentBuilder;
    use crate::qname::ExpandedName;

    fn node() -> NodeHandle {
        let mut b = DocumentBuilder::new_document();
        b.start_element(ExpandedName::local("e"));
        b.end_element();
        b.finish().root()
    }

    #[test]
    fn ebv_empty_is_false() {
        assert!(!effective_boolean_value(&[]).unwrap());
    }

    #[test]
    fn ebv_node_first_is_true_even_for_long_sequences() {
        let n = node();
        let seq = vec![Item::Node(n.clone()), Item::Node(n)];
        assert!(effective_boolean_value(&seq).unwrap());
    }

    #[test]
    fn ebv_singleton_atomics() {
        assert!(!effective_boolean_value(&singleton_atomic(AtomicValue::Boolean(false))).unwrap());
        assert!(effective_boolean_value(&singleton_atomic(AtomicValue::Boolean(true))).unwrap());
        assert!(!effective_boolean_value(&singleton_atomic(AtomicValue::String(String::new())))
            .unwrap());
        assert!(effective_boolean_value(&singleton_atomic(AtomicValue::String("x".into())))
            .unwrap());
        assert!(!effective_boolean_value(&singleton_atomic(AtomicValue::Double(f64::NAN)))
            .unwrap());
        assert!(!effective_boolean_value(&singleton_atomic(AtomicValue::Integer(0))).unwrap());
        assert!(effective_boolean_value(&singleton_atomic(AtomicValue::Integer(-1))).unwrap());
    }

    #[test]
    fn ebv_multi_atomic_is_error() {
        let seq = vec![
            Item::Atomic(AtomicValue::Integer(1)),
            Item::Atomic(AtomicValue::Integer(2)),
        ];
        assert!(effective_boolean_value(&seq).is_err());
    }

    #[test]
    fn dedup_removes_identical_nodes_and_sorts() {
        let n = node();
        let doc = n.doc.clone();
        let root = doc.root();
        let e = root.children().next().unwrap();
        let seq = vec![
            Item::Node(e.clone()),
            Item::Node(root.clone()),
            Item::Node(e.clone()),
        ];
        let out = doc_order_dedup(seq).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Item::Node(root));
        assert_eq!(out[1], Item::Node(e));
    }

    #[test]
    fn dedup_keeps_equal_shaped_but_distinct_nodes() {
        // Two structurally identical trees: both survive dedup because
        // dedup is by identity, not by value.
        let a = node();
        let b = node();
        let out = doc_order_dedup(vec![Item::Node(a), Item::Node(b)]).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn dedup_rejects_atomics() {
        assert!(doc_order_dedup(vec![Item::Atomic(AtomicValue::Integer(1))]).is_err());
    }

    #[test]
    fn atomize_maps_typed_values() {
        let n = node();
        let vals = atomize(&[Item::Node(n), Item::Atomic(AtomicValue::Integer(3))]).unwrap();
        assert_eq!(vals[0], AtomicValue::UntypedAtomic(String::new()));
        assert_eq!(vals[1], AtomicValue::Integer(3));
    }
}
