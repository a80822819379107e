//! Broadcast query tasks: arrival-ordered traversals of on-air R-trees.
//!
//! Random access is impossible on a broadcast channel, so every task keeps
//! its candidate nodes in a queue ordered by **next arrival time** and
//! processes them strictly in that order — the backtrack-free discipline
//! the paper adopts in §2.2/§6 ("we maintain the priority queue of the
//! candidate R-tree nodes according to their arrival time, so that
//! backtracking is avoided"). The index is broadcast in preorder, so
//! within one task arrival order is preorder: both task types realize
//! that priority queue as an [`ArrivalStack`], a `Vec` sorted in
//! descending `(arrival, node id)` order with O(1) peeks, pops and
//! (children pushed last first) pushes; see [`queue`] for the backends
//! and the pruning discipline of the NN search.

mod nn;
pub mod queue;
mod window;

pub use nn::{BroadcastNnSearch, NnScratch, NnSearchTask};
pub use queue::{ArrivalStack, CandidateQueue, QueueEntry};
pub use window::{WindowQueryTask, WindowScratch};

#[cfg(any(test, feature = "linear-reference"))]
pub use nn::LinearNnSearchTask;

#[cfg(any(test, feature = "linear-reference"))]
pub use queue::LinearQueue;
