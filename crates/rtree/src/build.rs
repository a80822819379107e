//! Bulk-loading (packing) of R-trees: STR, Hilbert-sort and Nearest-X.
//!
//! All three algorithms work level by level: points are ordered and cut
//! into leaf-capacity groups, then the resulting nodes are ordered and cut
//! into fanout groups, until a single root remains. The finished tree is
//! written out in **depth-first preorder**, the order in which nodes are
//! placed into a broadcast index segment.

use crate::node::Arena;
use crate::{ChildEntry, LeafEntry, NodeId, ObjectId, RTree, RTreeError, RTreeParams};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tnn_geom::{Point, Rect};

/// The packing (bulk-loading) algorithm used to build a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PackingAlgorithm {
    /// Sort-Tile-Recursive [Leutenegger, Lopez, Edgington, ICDE'97]: sort
    /// by x, slice into √P vertical slabs, sort each slab by y, tile. The
    /// paper's choice ("we use STR packing algorithm to build the R-tree
    /// in order to achieve the best performance").
    #[default]
    Str,
    /// Sort by the Hilbert value of the point [Kamel & Faloutsos,
    /// CIKM'93].
    HilbertSort,
    /// Sort by x-coordinate only [Roussopoulos & Leifker, SIGMOD'85].
    NearestX,
}

impl PackingAlgorithm {
    /// All supported algorithms, for sweeps and ablations.
    pub const ALL: [PackingAlgorithm; 3] = [
        PackingAlgorithm::Str,
        PackingAlgorithm::HilbertSort,
        PackingAlgorithm::NearestX,
    ];

    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            PackingAlgorithm::Str => "STR",
            PackingAlgorithm::HilbertSort => "Hilbert",
            PackingAlgorithm::NearestX => "NearestX",
        }
    }
}

/// An item being packed at some level: its representative center, its MBR
/// and its payload (a point or an already-built subtree).
struct PackItem<T> {
    center: Point,
    mbr: Rect,
    payload: T,
}

/// Orders `items` in place according to the packing algorithm; the
/// level's groups are then its consecutive runs of `capacity` items
/// (see [`groups`]).
fn pack_level<T>(
    items: &mut [PackItem<T>],
    capacity: usize,
    algo: PackingAlgorithm,
    region: &Rect,
) {
    debug_assert!(capacity >= 1);
    let by_x = |a: &PackItem<T>, b: &PackItem<T>| {
        a.center
            .x
            .total_cmp(&b.center.x)
            .then(a.center.y.total_cmp(&b.center.y))
    };
    match algo {
        PackingAlgorithm::NearestX => items.sort_by(by_x),
        PackingAlgorithm::HilbertSort => {
            items.sort_by_key(|it| hilbert_key(it.center, region));
        }
        PackingAlgorithm::Str => {
            let pages = items.len().div_ceil(capacity);
            let slabs = (pages as f64).sqrt().ceil() as usize;
            items.sort_by(by_x);
            // A slab holds whole groups, so no group straddles two.
            for slab in items.chunks_mut(slabs * capacity) {
                slab.sort_by(|a, b| {
                    a.center
                        .y
                        .total_cmp(&b.center.y)
                        .then(a.center.x.total_cmp(&b.center.x))
                });
            }
        }
    }
}

/// The index ranges of the groups of `len` packed items: consecutive
/// runs of `capacity`, the last one possibly shorter.
fn groups(len: usize, capacity: usize) -> impl Iterator<Item = Range<usize>> {
    (0..len)
        .step_by(capacity)
        .map(move |start| start..(start + capacity).min(len))
}

/// Order of the discrete Hilbert curve used for Hilbert-sort packing.
const HILBERT_ORDER: u32 = 16;

/// Hilbert rank of a point within `region`, on a `2^16 × 2^16` grid.
fn hilbert_key(p: Point, region: &Rect) -> u64 {
    let side = 1u32 << HILBERT_ORDER;
    let fx = if region.width() > 0.0 {
        (p.x - region.min.x) / region.width()
    } else {
        0.0
    };
    let fy = if region.height() > 0.0 {
        (p.y - region.min.y) / region.height()
    } else {
        0.0
    };
    let x = ((fx * (side - 1) as f64).round() as u32).min(side - 1);
    let y = ((fy * (side - 1) as f64).round() as u32).min(side - 1);
    hilbert_d(x, y, HILBERT_ORDER)
}

/// Distance along the Hilbert curve of order `order` for cell `(x, y)`
/// (classic iterative xy→d conversion).
fn hilbert_d(mut x: u32, mut y: u32, order: u32) -> u64 {
    let side: u32 = 1 << order;
    let mut d: u64 = 0;
    let mut s: u32 = side / 2;
    while s > 0 {
        let rx = u32::from((x & s) > 0);
        let ry = u32::from((y & s) > 0);
        d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
        // Rotate the quadrant so the sub-curve is in canonical orientation.
        if ry == 0 {
            if rx == 1 {
                x = side - 1 - x;
                y = side - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Bulk-loads an R-tree from `(point, object)` pairs.
///
/// Returns [`RTreeError::EmptyDataset`] for empty input,
/// [`RTreeError::InvalidParams`] for capacities below 2/1, and
/// [`RTreeError::NonFinitePoint`] when a coordinate is NaN or infinite.
pub(crate) fn build_tree(
    points: &[(Point, ObjectId)],
    params: RTreeParams,
    algo: PackingAlgorithm,
) -> Result<RTree, RTreeError> {
    if points.is_empty() {
        return Err(RTreeError::EmptyDataset);
    }
    if !params.is_valid() {
        return Err(RTreeError::InvalidParams {
            fanout: params.fanout,
            leaf_capacity: params.leaf_capacity,
        });
    }
    if let Some(idx) = points.iter().position(|(p, _)| !p.is_finite()) {
        return Err(RTreeError::NonFinitePoint { index: idx });
    }

    let region = Rect::bounding(&points.iter().map(|(p, _)| *p).collect::<Vec<_>>())
        .expect("non-empty input");

    // Level 0: pack the points into leaves.
    let mut leaf_items: Vec<PackItem<LeafEntry>> = points
        .iter()
        .map(|&(point, object)| PackItem {
            center: point,
            mbr: Rect::point(point),
            payload: LeafEntry { point, object },
        })
        .collect();
    pack_level(&mut leaf_items, params.leaf_capacity, algo, &region);
    let mut skeleton = Skeleton::default();
    let mut current: Vec<PackItem<usize>> = groups(leaf_items.len(), params.leaf_capacity)
        .map(|r| skeleton.add(group_mbr(&leaf_items[r.clone()]), 0, 1, r))
        .collect();

    // Upper levels: pack node handles until a single root remains. Every
    // level's packed handles are appended to `internal_items`, which the
    // internal nodes' entry ranges index.
    let mut internal_items: Vec<PackItem<usize>> = Vec::new();
    let mut level = 1u32;
    while current.len() > 1 {
        pack_level(&mut current, params.fanout, algo, &region);
        let offset = internal_items.len();
        internal_items.append(&mut current);
        current = groups(internal_items.len() - offset, params.fanout)
            .map(|r| {
                let r = r.start + offset..r.end + offset;
                let group = &internal_items[r.clone()];
                let size = 1 + group
                    .iter()
                    .map(|it| skeleton.size[it.payload])
                    .sum::<u32>();
                skeleton.add(group_mbr(group), level, size, r)
            })
            .collect();
        level += 1;
    }

    let root = current[0].payload;
    let height = skeleton.level[root] + 1;
    let arena = emit_preorder(&skeleton, &leaf_items, &internal_items, root);

    Ok(RTree::from_parts(arena, points.len(), height, params, algo))
}

/// Per-node facts gathered bottom-up, indexed by build index (the
/// order nodes are created in, leaves first).
#[derive(Default)]
struct Skeleton {
    mbr: Vec<Rect>,
    level: Vec<u32>,
    /// Nodes in the subtree, the node included.
    size: Vec<u32>,
    /// The node's entries: a range of the packed leaf items for a leaf,
    /// of the packed internal items otherwise.
    entries: Vec<Range<usize>>,
}

impl Skeleton {
    /// Records a node and returns its handle for the next level up.
    fn add(&mut self, mbr: Rect, level: u32, size: u32, entries: Range<usize>) -> PackItem<usize> {
        self.mbr.push(mbr);
        self.level.push(level);
        self.size.push(size);
        self.entries.push(entries);
        PackItem {
            center: mbr.center(),
            mbr,
            payload: self.mbr.len() - 1,
        }
    }
}

fn group_mbr<T>(group: &[PackItem<T>]) -> Rect {
    group
        .iter()
        .map(|it| it.mbr)
        .reduce(|a, b| a.union(&b))
        .expect("non-empty group")
}

/// Writes the packed tree into its arena in depth-first preorder: the
/// root becomes node 0 and every node's id equals its DFS preorder rank
/// (children visited in entry order). A child's id is its parent's plus
/// one plus the subtree sizes of its earlier siblings, so every entry is
/// written once, into arrays of exact size.
fn emit_preorder(
    skeleton: &Skeleton,
    leaf_items: &[PackItem<LeafEntry>],
    internal_items: &[PackItem<usize>],
    root: usize,
) -> Arena {
    let n = skeleton.mbr.len();
    let mut arena = Arena::with_capacity(n, n - 1, leaf_items.len());
    let mut stack = vec![root];
    while let Some(b) = stack.pop() {
        let (mbr, level) = (skeleton.mbr[b], skeleton.level[b]);
        let entries = skeleton.entries[b].clone();
        if level == 0 {
            arena.push_leaf(mbr, leaf_items[entries].iter().map(|it| it.payload));
        } else {
            let group = &internal_items[entries];
            let mut next = arena.headers.len() as u32 + 1;
            let children = group.iter().map(|it| {
                let child = NodeId(next);
                next += skeleton.size[it.payload];
                ChildEntry { mbr: it.mbr, child }
            });
            arena.push_internal(mbr, level, children);
            // Reversed, so the first child is emitted next.
            stack.extend(group.iter().rev().map(|it| it.payload));
        }
    }
    debug_assert_eq!(arena.headers.len(), n, "all nodes reachable from the root");
    arena
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<(Point, ObjectId)> {
        // Deterministic pseudo-grid with a twist so orderings differ.
        (0..n)
            .map(|i| {
                let x = (i * 37 % 101) as f64;
                let y = (i * 61 % 97) as f64;
                (Point::new(x, y), ObjectId(i as u32))
            })
            .collect()
    }

    #[test]
    fn empty_dataset_errors() {
        let err = build_tree(&[], RTreeParams::default(), PackingAlgorithm::Str).unwrap_err();
        assert_eq!(err, RTreeError::EmptyDataset);
    }

    #[test]
    fn invalid_params_error() {
        let err = build_tree(&pts(10), RTreeParams::new(1, 6), PackingAlgorithm::Str).unwrap_err();
        assert!(matches!(err, RTreeError::InvalidParams { .. }));
    }

    #[test]
    fn non_finite_point_errors() {
        let mut input = pts(5);
        input[3].0 = Point::new(f64::NAN, 1.0);
        let err = build_tree(&input, RTreeParams::default(), PackingAlgorithm::Str).unwrap_err();
        assert_eq!(err, RTreeError::NonFinitePoint { index: 3 });
    }

    #[test]
    fn single_point_tree() {
        let tree = build_tree(&pts(1), RTreeParams::default(), PackingAlgorithm::Str).unwrap();
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.num_nodes(), 1);
        assert!(tree.node(NodeId::ROOT).is_leaf());
        tree.validate().unwrap();
    }

    #[test]
    fn all_algorithms_build_valid_trees() {
        for algo in PackingAlgorithm::ALL {
            for n in [1usize, 2, 6, 7, 19, 100, 1000] {
                let tree = build_tree(&pts(n), RTreeParams::default(), algo).unwrap();
                tree.validate()
                    .unwrap_or_else(|e| panic!("{} n={n}: {e}", algo.name()));
                assert_eq!(tree.num_objects(), n);
            }
        }
    }

    #[test]
    fn preorder_ids_parent_before_children() {
        let tree = build_tree(&pts(500), RTreeParams::default(), PackingAlgorithm::Str).unwrap();
        for (i, node) in tree.nodes().iter().enumerate() {
            if let Some(children) = node.children() {
                for (k, c) in children.iter().enumerate() {
                    assert!(c.child.index() > i, "child id must exceed parent id");
                    if k == 0 {
                        // First child immediately follows the parent in preorder.
                        assert_eq!(c.child.index(), i + 1);
                    }
                }
            }
        }
    }

    #[test]
    fn height_matches_paper_for_100k_points() {
        // ~100k points with 64-byte pages (fanout 3, leaf 6) → height 10.
        let n = 95_969; // the paper's densest uniform dataset
        let tree = build_tree(
            &pts(n),
            RTreeParams::for_page_capacity(64),
            PackingAlgorithm::Str,
        )
        .unwrap();
        assert_eq!(tree.height(), 10);
    }

    #[test]
    fn str_produces_full_leaves_except_tail() {
        let tree = build_tree(&pts(100), RTreeParams::default(), PackingAlgorithm::Str).unwrap();
        let leaf_sizes: Vec<usize> = tree
            .nodes()
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| n.len())
            .collect();
        // 100 points, capacity 6 → 17 leaves, at most one underfull per slab tail.
        assert_eq!(leaf_sizes.iter().sum::<usize>(), 100);
        assert!(leaf_sizes.iter().all(|&s| (1..=6).contains(&s)));
    }

    #[test]
    fn hilbert_d_is_bijective_on_small_grid() {
        let order = 4;
        let side = 1u32 << order;
        let mut seen = std::collections::HashSet::new();
        for x in 0..side {
            for y in 0..side {
                let d = hilbert_d(x, y, order);
                assert!(d < (side as u64 * side as u64));
                assert!(seen.insert(d), "duplicate hilbert rank {d}");
            }
        }
    }

    #[test]
    fn hilbert_adjacent_cells_are_close() {
        // Successive ranks along the curve are adjacent cells: check the
        // first few ranks of the order-2 curve against the classic shape.
        assert_eq!(hilbert_d(0, 0, 2), 0);
        // The order-2 curve visits 16 cells; rank of the last cell:
        assert_eq!(hilbert_d(3, 0, 2), 15);
    }

    #[test]
    fn duplicate_points_are_retained() {
        let input: Vec<(Point, ObjectId)> = (0..20)
            .map(|i| (Point::new(1.0, 1.0), ObjectId(i)))
            .collect();
        let tree = build_tree(&input, RTreeParams::default(), PackingAlgorithm::Str).unwrap();
        tree.validate().unwrap();
        assert_eq!(tree.num_objects(), 20);
        let total: usize = tree
            .nodes()
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| n.len())
            .sum();
        assert_eq!(total, 20);
    }
}
