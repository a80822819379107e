//! Pinned cache identity. `RTree::content_fingerprint` and
//! `MultiChannelEnv::fingerprint` key the result cache (`QueryKey` in
//! `tnn-core`), are compared across processes, and must not move when
//! the tree's storage layout changes. The constants below were captured
//! before the R-tree moved to its flat preorder arena; a change that
//! alters them changes what every cached answer is filed under, and has
//! to update them on purpose.

use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};

fn points(n: usize, a: usize, b: usize) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new((i * a % 1009) as f64 * 0.75, (i * b % 997) as f64 * 1.25))
        .collect()
}

#[test]
fn fingerprints_are_pinned_for_a_fixed_dataset() {
    let params = BroadcastParams::new(64);
    let s = RTree::build(
        &points(500, 37, 61),
        params.rtree_params(),
        PackingAlgorithm::Str,
    )
    .unwrap();
    let r = RTree::build(
        &points(300, 53, 89),
        params.rtree_params(),
        PackingAlgorithm::HilbertSort,
    )
    .unwrap();
    assert_eq!(s.content_fingerprint(), 0xdba2_47e3_9912_59d5);
    assert_eq!(r.content_fingerprint(), 0x97e3_7c41_b6cb_9f25);
    let env = MultiChannelEnv::new(vec![Arc::new(s), Arc::new(r)], params, &[17, 4242]);
    assert_eq!(env.fingerprint(), 0x4447_c174_05cb_c88a);
}
