//! R-tree node representation: preorder-numbered nodes holding either
//! child MBR entries or point entries, stored in one flat arena and read
//! through borrowed `Copy` views.

use serde::{Deserialize, Serialize};
use std::fmt;
use tnn_geom::{Point, Rect};

/// Identifier of an R-tree node.
///
/// Node ids equal the **depth-first preorder rank** of the node, which the
/// broadcast layer uses directly as the node's page offset inside an index
/// segment. The root is always `NodeId(0)`, and every parent's id precedes
/// all of its descendants' ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root node id.
    pub const ROOT: NodeId = NodeId(0);

    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a data object (its rank in the original dataset order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// An internal-node entry: the child's MBR plus its id (on air, the id is
/// the child's arrival pointer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChildEntry {
    /// MBR of the child subtree.
    pub mbr: Rect,
    /// Preorder id of the child node.
    pub child: NodeId,
}

/// A leaf entry: a data point plus the id of the object it locates (on
/// air, the id resolves to the object's data-page pointer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeafEntry {
    /// Location of the object.
    pub point: Point,
    /// The object this entry points at.
    pub object: ObjectId,
}

/// One node's header in the flat arena: its MBR, its level, and the
/// range its entries occupy in the child arena (internal nodes) or the
/// point arena (leaves).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct NodeHeader {
    pub(crate) mbr: Rect,
    /// Leaves have level 0, and only leaves do: the level decides which
    /// arena `start..start + len` indexes.
    pub(crate) level: u32,
    pub(crate) start: u32,
    pub(crate) len: u32,
}

/// The flat node store of an [`RTree`](crate::RTree): one header per
/// node, plus one array of every internal node's child entries and one
/// of every leaf's point entries. Nodes are appended in depth-first
/// preorder, so a node's entries follow those of every smaller-id node
/// of its kind, and the point array is the leaf-preorder object order of
/// the broadcast data segment.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct Arena {
    pub(crate) headers: Vec<NodeHeader>,
    pub(crate) children: Vec<ChildEntry>,
    pub(crate) points: Vec<LeafEntry>,
}

impl Arena {
    pub(crate) fn with_capacity(nodes: usize, children: usize, points: usize) -> Self {
        Arena {
            headers: Vec::with_capacity(nodes),
            children: Vec::with_capacity(children),
            points: Vec::with_capacity(points),
        }
    }

    /// Appends a leaf holding `entries`.
    pub(crate) fn push_leaf(&mut self, mbr: Rect, entries: impl IntoIterator<Item = LeafEntry>) {
        let start = self.points.len();
        self.points.extend(entries);
        self.push_header(mbr, 0, start, self.points.len());
    }

    /// Appends an internal node at `level ≥ 1` holding `entries`.
    pub(crate) fn push_internal(
        &mut self,
        mbr: Rect,
        level: u32,
        entries: impl IntoIterator<Item = ChildEntry>,
    ) {
        debug_assert!(level >= 1, "level 0 is the leaf level");
        let start = self.children.len();
        self.children.extend(entries);
        self.push_header(mbr, level, start, self.children.len());
    }

    fn push_header(&mut self, mbr: Rect, level: u32, start: usize, end: usize) {
        let narrow = |i: usize| u32::try_from(i).expect("arena offsets fit in u32");
        self.headers.push(NodeHeader {
            mbr,
            level,
            start: narrow(start),
            len: narrow(end - start),
        });
    }

    /// The node at arena index `i`.
    #[inline]
    pub(crate) fn node(&self, i: usize) -> NodeRef<'_> {
        let h = &self.headers[i];
        let range = h.start as usize..(h.start + h.len) as usize;
        NodeRef {
            mbr: h.mbr,
            level: h.level,
            entries: if h.level == 0 {
                Entries::Leaf(&self.points[range])
            } else {
                Entries::Internal(&self.children[range])
            },
        }
    }
}

/// A node's entries, borrowed from the arena.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entries<'a> {
    Internal(&'a [ChildEntry]),
    Leaf(&'a [LeafEntry]),
}

/// A borrowed, `Copy` view of one R-tree node. In the broadcast model a
/// node occupies exactly one page. Obtain one from
/// [`RTree::node`](crate::RTree::node) or by iterating
/// [`RTree::nodes`](crate::RTree::nodes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeRef<'a> {
    /// Minimal bounding rectangle of everything below this node.
    pub mbr: Rect,
    /// Level above the leaves: leaves have level 0, the root has
    /// `height − 1`.
    pub level: u32,
    entries: Entries<'a>,
}

impl<'a> NodeRef<'a> {
    /// `true` for leaf nodes.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        matches!(self.entries, Entries::Leaf(_))
    }

    /// Number of entries (children or points).
    #[inline]
    pub fn len(&self) -> usize {
        match self.entries {
            Entries::Internal(cs) => cs.len(),
            Entries::Leaf(ps) => ps.len(),
        }
    }

    /// `true` when the node has no entries (only the lone leaf root of
    /// an [`RTree::empty`](crate::RTree::empty) tree).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Child entries in packing order, or `None` for leaves.
    #[inline]
    pub fn children(&self) -> Option<&'a [ChildEntry]> {
        match self.entries {
            Entries::Internal(cs) => Some(cs),
            Entries::Leaf(_) => None,
        }
    }

    /// Leaf entries in packing order, or `None` for internal nodes.
    #[inline]
    pub fn points(&self) -> Option<&'a [LeafEntry]> {
        match self.entries {
            Entries::Internal(_) => None,
            Entries::Leaf(ps) => Some(ps),
        }
    }
}

/// A borrowed view of every node of an [`RTree`](crate::RTree) in
/// preorder, from [`RTree::nodes`](crate::RTree::nodes).
#[derive(Debug, Clone, Copy)]
pub struct Nodes<'a> {
    arena: &'a Arena,
}

impl<'a> Nodes<'a> {
    pub(crate) fn new(arena: &'a Arena) -> Self {
        Nodes { arena }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.headers.len()
    }

    /// `true` when there are no nodes (never the case for a tree).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node with preorder id `id`, or `None` past the end.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<NodeRef<'a>> {
        (id.index() < self.len()).then(|| self.arena.node(id.index()))
    }

    /// The nodes in preorder (the iterator's position is the node id).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeRef<'a>> + 'a {
        let arena = self.arena;
        (0..arena.headers.len()).map(move |i| arena.node(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_accessors() {
        let mut arena = Arena::default();
        arena.push_leaf(
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            [LeafEntry {
                point: Point::new(0.5, 0.5),
                object: ObjectId(3),
            }],
        );
        arena.push_internal(
            Rect::from_coords(0.0, 0.0, 2.0, 2.0),
            1,
            [ChildEntry {
                mbr: Rect::from_coords(0.0, 0.0, 1.0, 1.0),
                child: NodeId(1),
            }],
        );

        let leaf = arena.node(0);
        assert!(leaf.is_leaf());
        assert_eq!(leaf.level, 0);
        assert_eq!(leaf.len(), 1);
        assert!(!leaf.is_empty());
        assert!(leaf.children().is_none());
        assert_eq!(leaf.points().unwrap()[0].object, ObjectId(3));

        let inner = arena.node(1);
        assert!(!inner.is_leaf());
        assert_eq!(inner.level, 1);
        assert_eq!(inner.mbr, Rect::from_coords(0.0, 0.0, 2.0, 2.0));
        assert_eq!(inner.children().unwrap().len(), 1);
        assert!(inner.points().is_none());

        let nodes = Nodes::new(&arena);
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes.get(NodeId(1)), Some(inner));
        assert_eq!(nodes.get(NodeId(2)), None);
        assert_eq!(nodes.iter().collect::<Vec<_>>(), vec![leaf, inner]);
    }

    #[test]
    fn id_display_and_index() {
        assert_eq!(NodeId(5).to_string(), "n5");
        assert_eq!(ObjectId(9).to_string(), "o9");
        assert_eq!(NodeId(5).index(), 5);
        assert_eq!(ObjectId(9).index(), 9);
        assert_eq!(NodeId::ROOT, NodeId(0));
    }
}
