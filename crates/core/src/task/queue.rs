//! Candidate-queue backends for the broadcast NN search task.
//!
//! The search processes candidates strictly in arrival order and parks —
//! never drops — entries condemned by the current bound (delayed pruning,
//! §4.2.4). Two interchangeable backends realize that discipline:
//!
//! * [`ArrivalStack`] — the production backend: a `Vec` kept sorted in
//!   descending `(arrival, node id)` order, so the next candidate is the
//!   last element and peeks and pops are O(1). Pruning is **lazy**: only
//!   the front (the end of the `Vec`) is tested against the bound. This
//!   is sound because between re-targeting switches the bound only
//!   tightens, so an entry condemnable now is still condemnable when it
//!   reaches the front; [`CandidateQueue::realize`] forces all deferred
//!   decisions right before a switch, where the bound changes
//!   non-monotonically.
//! * `LinearQueue` — the paper-literal reference: a flat `Vec` with
//!   O(n) scans per operation and **eager** pruning after every bound
//!   update, exactly the pre-optimization behaviour. Compiled only for
//!   tests and the `linear-reference` feature the equivalence gates
//!   enable.
//!
//! Both backends must produce byte-identical search traces; the property
//! tests in `crate::task::nn` and `crate::algorithms` assert this across
//! all four algorithms, and the ones below drive both backends through
//! random operation sequences.
//!
//! ## Why a sorted stack
//!
//! The index segment is the R-tree in preorder, one node per page, so
//! within one search every node's arrival is `root_arrival + id` and
//! arrival order *is* preorder. A downloaded node's children lie inside
//! its subtree, which precedes every entry already queued, so they are
//! the smallest keys in the queue: pushed last child first, each one
//! lands at the end of the `Vec` and a push is O(1).
//! [`ArrivalStack::push`] still scans from the end, so any push order —
//! such as the entries a switch revives — keeps the order correct. Node
//! ids break (arrival, node) ordering ties deterministically, although
//! arrivals of distinct nodes on one channel are in fact always distinct
//! (one page per slot).

use tnn_geom::Rect;
use tnn_rtree::NodeId;

/// One queued candidate node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueEntry {
    /// Next broadcast slot carrying this node.
    pub arrival: u64,
    /// The node's id in the on-air R-tree.
    pub node: NodeId,
    /// The node's MBR (from its parent entry).
    pub mbr: Rect,
}

/// An entry an [`ArrivalStack`] can order: candidates are downloaded in
/// ascending `(arrival slot, node id)` order.
pub trait ArrivalOrdered: Copy {
    /// The `(arrival slot, node id)` ordering key.
    fn key(&self) -> (u64, u32);
}

impl ArrivalOrdered for QueueEntry {
    #[inline]
    fn key(&self) -> (u64, u32) {
        (self.arrival, self.node.0)
    }
}

/// A bare `(arrival, node)` candidate, as the window query queues them.
impl ArrivalOrdered for (u64, NodeId) {
    #[inline]
    fn key(&self) -> (u64, u32) {
        (self.0, self.1 .0)
    }
}

/// Storage discipline for the candidate queue of a broadcast NN search.
///
/// Implementations may defer pruning decisions for entries that are not
/// next in arrival order ([`ArrivalStack`] does), relying on the caller's
/// guarantee that the condemnation predicate only grows between
/// [`CandidateQueue::realize`] calls.
///
/// `Send` is part of the contract so that scratch buffers (and the
/// engines pooling them) can cross worker threads.
pub trait CandidateQueue: Default + std::fmt::Debug + Send {
    /// `true` when the search should evaluate the pruning predicate at
    /// push time and divert condemned children straight to the parked
    /// list (the bound is already final when a step pushes its children,
    /// so this is observationally identical to parking them at the next
    /// settle). Keeps the queue populated with near-viable entries only;
    /// the linear reference leaves it `false` to reproduce the
    /// pre-optimization cost model (full rescans) faithfully.
    const PREFILTERS_PUSHES: bool;

    /// `true` for the pre-optimization reference backend: harnesses that
    /// A/B the hot path use this to reproduce the original cost model
    /// faithfully (e.g. fresh buffer allocations per query instead of
    /// scratch reuse). Never affects results, only costs.
    const IS_REFERENCE: bool;

    /// Queues a candidate.
    fn push(&mut self, e: QueueEntry);

    /// Arrival slot of the next downloadable candidate. Callers must have
    /// settled the queue (via [`CandidateQueue::settle`]) since the last
    /// bound change for the front to be guaranteed viable.
    fn next_arrival(&self) -> Option<u64>;

    /// Removes and returns the next downloadable candidate (minimal
    /// `(arrival, node id)`).
    fn pop_next(&mut self) -> Option<QueueEntry>;

    /// Number of entries currently held (including, for lazy backends,
    /// entries whose pruning decision is still deferred).
    fn len(&self) -> usize;

    /// `true` when no candidates remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies the pruning predicate after a bound update, moving
    /// condemned entries into `parked`. Lazy backends need only guarantee
    /// that the *front* entry (the one [`CandidateQueue::pop_next`] would
    /// return) is not condemned.
    fn settle(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    );

    /// Forces every deferred pruning decision, moving all condemned
    /// entries into `parked`. Required before the condemnation predicate
    /// changes non-monotonically (a re-targeting switch).
    fn realize(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    );

    /// Visits every held entry in unspecified order (bound seeding after
    /// a switch).
    fn for_each(&self, f: &mut dyn FnMut(&QueueEntry));

    /// Removes all entries, keeping allocated capacity (scratch reuse).
    fn clear(&mut self);
}

/// The production candidate queue: a `Vec` sorted in descending
/// `(arrival, node id)` order, next candidate last, with lazily settled
/// pruning (see module docs). Also the window query's queue, over bare
/// `(arrival, node)` pairs.
#[derive(Debug, Clone)]
pub struct ArrivalStack<E = QueueEntry> {
    entries: Vec<E>,
}

impl<E> Default for ArrivalStack<E> {
    fn default() -> Self {
        ArrivalStack {
            entries: Vec::new(),
        }
    }
}

impl<E: ArrivalOrdered> ArrivalStack<E> {
    /// Queues `e` in order, scanning from the end: O(1) when `e` arrives
    /// before everything queued (children pushed last first), correct
    /// for any push order.
    #[inline]
    pub fn push(&mut self, e: E) {
        let key = e.key();
        let mut at = self.entries.len();
        while at > 0 && self.entries[at - 1].key() < key {
            at -= 1;
        }
        self.entries.insert(at, e);
    }

    /// The next candidate (minimal key), if any.
    #[inline]
    pub fn peek(&self) -> Option<&E> {
        self.entries.last()
    }

    /// Removes and returns the next candidate (minimal key).
    #[inline]
    pub fn pop(&mut self) -> Option<E> {
        self.entries.pop()
    }

    /// `true` when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all entries, keeping allocated capacity (scratch reuse).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl CandidateQueue for ArrivalStack {
    const PREFILTERS_PUSHES: bool = true;
    const IS_REFERENCE: bool = false;

    #[inline]
    fn push(&mut self, e: QueueEntry) {
        ArrivalStack::push(self, e);
    }

    #[inline]
    fn next_arrival(&self) -> Option<u64> {
        self.peek().map(|e| e.arrival)
    }

    #[inline]
    fn pop_next(&mut self) -> Option<QueueEntry> {
        self.pop()
    }

    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn settle(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    ) {
        while let Some(front) = self.entries.last() {
            if !condemn(front) {
                break;
            }
            parked.push(self.entries.pop().expect("front entry exists"));
        }
    }

    fn realize(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    ) {
        // Order-preserving, so the survivors stay sorted.
        parked.extend(self.entries.extract_if(.., |e| condemn(e)));
    }

    fn for_each(&self, f: &mut dyn FnMut(&QueueEntry)) {
        for e in &self.entries {
            f(e);
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The paper-literal reference queue: flat `Vec`, O(n) scans, eager
/// pruning — the exact pre-optimization behaviour, kept so property
/// tests and the equivalence gates can compare against it.
#[cfg(any(test, feature = "linear-reference"))]
#[derive(Debug, Default)]
pub struct LinearQueue {
    entries: Vec<QueueEntry>,
}

#[cfg(any(test, feature = "linear-reference"))]
impl CandidateQueue for LinearQueue {
    const PREFILTERS_PUSHES: bool = false;
    const IS_REFERENCE: bool = true;

    fn push(&mut self, e: QueueEntry) {
        self.entries.push(e);
    }

    fn next_arrival(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.arrival).min()
    }

    fn pop_next(&mut self) -> Option<QueueEntry> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.key())
            .map(|(i, _)| i)?;
        Some(self.entries.swap_remove(idx))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn settle(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    ) {
        // Eager: decide every entry right away (the pre-optimization
        // `purge()` rescan).
        parked.extend(self.entries.extract_if(.., |e| condemn(e)));
    }

    fn realize(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    ) {
        self.settle(condemn, parked);
    }

    fn for_each(&self, f: &mut dyn FnMut(&QueueEntry)) {
        for e in &self.entries {
            f(e);
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tnn_geom::Point;

    fn entry(arrival: u64, node: u32) -> QueueEntry {
        QueueEntry {
            arrival,
            node: NodeId(node),
            mbr: Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
        }
    }

    fn drain_order<Q: CandidateQueue>(mut q: Q) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_next() {
            out.push((e.arrival, e.node.0));
        }
        out
    }

    #[test]
    fn both_backends_pop_in_arrival_then_node_order() {
        for seq in [
            vec![(5, 1), (3, 2), (9, 0), (3, 1), (7, 7)],
            vec![(1, 1)],
            vec![(2, 3), (2, 1), (2, 2)],
        ] {
            let mut stack = ArrivalStack::default();
            let mut linear = LinearQueue::default();
            for &(a, n) in &seq {
                stack.push(entry(a, n));
                linear.push(entry(a, n));
            }
            let mut expect = seq.clone();
            expect.sort_unstable();
            assert_eq!(drain_order(stack), expect);
            assert_eq!(drain_order(linear), expect);
        }
    }

    #[test]
    fn heap_peek_matches_pop() {
        let mut q = ArrivalStack::default();
        for (a, n) in [(8, 0), (2, 5), (4, 1)] {
            q.push(entry(a, n));
        }
        while let Some(a) = q.next_arrival() {
            assert_eq!(q.pop_next().unwrap().arrival, a);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn settle_parks_lazily_vs_eagerly() {
        // Condemn arrivals >= 10. The stack front (arrival 1) is viable,
        // so the lazy backend parks nothing even though a condemned entry
        // is buried; the eager backend parks it immediately. `realize`
        // brings both to the same state.
        let mut stack = ArrivalStack::default();
        let mut linear = LinearQueue::default();
        for (a, n) in [(1, 0), (15, 1), (3, 2)] {
            stack.push(entry(a, n));
            linear.push(entry(a, n));
        }
        let mut condemn = |e: &QueueEntry| e.arrival >= 10;
        let (mut sp, mut lp) = (Vec::new(), Vec::new());
        stack.settle(&mut condemn, &mut sp);
        linear.settle(&mut condemn, &mut lp);
        assert!(sp.is_empty());
        assert_eq!(lp.len(), 1);
        stack.realize(&mut condemn, &mut sp);
        assert_eq!(sp.len(), 1);
        assert_eq!(stack.len(), linear.len());
        // Realizing keeps the survivors in pop order.
        assert_eq!(drain_order(stack), vec![(1, 0), (3, 2)]);
    }

    #[test]
    fn settle_drains_condemned_front() {
        let mut stack = ArrivalStack::default();
        for (a, n) in [(1, 0), (2, 1), (30, 2)] {
            stack.push(entry(a, n));
        }
        let mut parked = Vec::new();
        stack.settle(&mut |e| e.arrival < 10, &mut parked);
        assert_eq!(parked.len(), 2);
        assert_eq!(stack.next_arrival(), Some(30));
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut stack = ArrivalStack::default();
        stack.push(entry(1, 1));
        stack.clear();
        assert!(stack.is_empty());
        assert_eq!(stack.next_arrival(), None);
    }

    #[test]
    fn preorder_pushes_append_at_the_end() {
        // Children of the front node, pushed last first, are each the
        // smallest key so far: every push lands at the end.
        let mut stack = ArrivalStack::<(u64, NodeId)>::default();
        stack.push((100, NodeId(40)));
        stack.push((90, NodeId(30)));
        let front = stack.pop().expect("queued");
        for child in [35u32, 33, 31] {
            let e = (front.0 + u64::from(child - front.1 .0), NodeId(child));
            stack.push(e);
            assert_eq!(stack.peek(), Some(&e));
        }
        let order: Vec<u32> = std::iter::from_fn(|| stack.pop())
            .map(|(_, n)| n.0)
            .collect();
        assert_eq!(order, vec![31, 33, 35, 40]);
    }

    /// A condemnation predicate scattered across the key order: entry
    /// `e` is condemned once `level` drops to `hash(e.node) % 100` or
    /// below, so lowering `level` only ever condemns more (the monotone
    /// bound the lazy backend relies on between switches).
    fn condemned_at(level: u64) -> impl FnMut(&QueueEntry) -> bool {
        move |e: &QueueEntry| (u64::from(e.node.0).wrapping_mul(0x9E37_79B9) >> 7) % 100 >= level
    }

    fn sorted_keys(entries: &[QueueEntry]) -> Vec<(u64, u32)> {
        let mut keys: Vec<(u64, u32)> = entries.iter().map(ArrivalOrdered::key).collect();
        keys.sort_unstable();
        keys
    }

    fn held_keys<Q: CandidateQueue>(q: &Q) -> Vec<(u64, u32)> {
        let mut held = Vec::new();
        q.for_each(&mut |e| held.push(*e));
        sorted_keys(&held)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push / settle / realize / pop / for_each sequences,
        /// pushed in any order (not just preorder), drive the stack and
        /// the linear oracle through the search's protocol: settle after
        /// every bound change, realize before a switch, revive parked
        /// entries at or after the switch time. Pop order, the front,
        /// the held set and the parked set must agree.
        #[test]
        fn stack_matches_linear_under_any_push_order(
            ops in prop::collection::vec((0u8..8, 0u64..300, 1u64..30), 1..160),
        ) {
            let mut stack = ArrivalStack::default();
            let mut linear = LinearQueue::default();
            let (mut stack_parked, mut linear_parked) = (Vec::new(), Vec::new());
            let mut level = 100u64;
            let mut next_node = 0u32;
            for (op, arrival, step) in ops {
                match op {
                    // Push a fresh node (unique id, arbitrary arrival).
                    0..=3 => {
                        let e = entry(arrival, next_node);
                        next_node += 1;
                        stack.push(e);
                        linear.push(e);
                    }
                    // Download the front.
                    4 => {
                        let (a, b) = (stack.pop_next(), linear.pop_next());
                        prop_assert_eq!(a.map(|e| e.key()), b.map(|e| e.key()));
                    }
                    // The bound tightens.
                    5 => level = level.saturating_sub(step),
                    // for_each, as the search calls it: after a realize.
                    6 => {
                        stack.realize(&mut condemned_at(level), &mut stack_parked);
                        linear.realize(&mut condemned_at(level), &mut linear_parked);
                        prop_assert_eq!(held_keys(&stack), held_keys(&linear));
                    }
                    // A switch at time `arrival`: realize under the old
                    // bound, revive parked entries still in the future
                    // (in parked order, which differs between backends),
                    // and reset the bound non-monotonically.
                    _ => {
                        stack.realize(&mut condemned_at(level), &mut stack_parked);
                        linear.realize(&mut condemned_at(level), &mut linear_parked);
                        prop_assert_eq!(sorted_keys(&stack_parked), sorted_keys(&linear_parked));
                        for e in stack_parked.extract_if(.., |e| e.arrival >= arrival) {
                            stack.push(e);
                        }
                        for e in linear_parked.extract_if(.., |e| e.arrival >= arrival) {
                            linear.push(e);
                        }
                        stack_parked.clear();
                        linear_parked.clear();
                        level = 100 - step;
                    }
                }
                stack.settle(&mut condemned_at(level), &mut stack_parked);
                linear.settle(&mut condemned_at(level), &mut linear_parked);
                prop_assert_eq!(stack.next_arrival(), linear.next_arrival());
                // Lazy parking only defers: the stack parks a subset of
                // what the oracle parks, and nothing is lost.
                let linear_set = sorted_keys(&linear_parked);
                prop_assert!(stack_parked.iter().all(|e| linear_set.binary_search(&e.key()).is_ok()));
                prop_assert_eq!(
                    stack.len() + stack_parked.len(),
                    linear.len() + linear_parked.len()
                );
            }
            stack.realize(&mut condemned_at(level), &mut stack_parked);
            linear.realize(&mut condemned_at(level), &mut linear_parked);
            prop_assert_eq!(sorted_keys(&stack_parked), sorted_keys(&linear_parked));
            prop_assert_eq!(drain_order(stack), drain_order(linear));
        }
    }
}
