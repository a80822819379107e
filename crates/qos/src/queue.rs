//! The strict-priority submission queue: [`MultiLevelQueue`] and the
//! shed-victim policy [`ShedDiscipline`].

use crate::Priority;
use std::collections::VecDeque;

/// Which queued item a `Shed`-style backpressure policy sacrifices when a
/// class is at capacity and a new submission of that class arrives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShedDiscipline {
    /// Evict the class's oldest **expired** item; only when every queued
    /// item is still viable fall back to the oldest. Dead work — items
    /// whose deadline has already passed — is pure queue pollution, so
    /// this discipline never sacrifices an answerable request while an
    /// unanswerable one is holding a slot. The default.
    #[default]
    ExpiredFirst,
    /// Always evict the class's oldest item, expired or not — the
    /// pre-deadline behaviour. `tnn-serve`'s
    /// `oldest_first_shed_sacrifices_viable_work` test pins the viable
    /// work it loses that expiry-aware shedding spares.
    OldestFirst,
}

/// A strict-priority multi-level FIFO queue: one bounded lane per
/// [`Priority`] class.
///
/// * [`MultiLevelQueue::pop`] always drains the most urgent non-empty
///   class; within a class, order is FIFO.
/// * Capacity is **per class** (enforced by the caller via
///   [`MultiLevelQueue::len_of`] — the queue itself never refuses), so a
///   background flood cannot crowd out interactive admissions.
/// * [`MultiLevelQueue::shed_victim`] picks the item a `Shed` policy
///   sacrifices, honouring a [`ShedDiscipline`].
///
/// ```
/// use tnn_qos::{MultiLevelQueue, Priority};
///
/// let mut q = MultiLevelQueue::new();
/// q.push_back(Priority::Background, "prefetch");
/// q.push_back(Priority::Interactive, "user taps map");
/// assert_eq!(q.pop(), Some((Priority::Interactive, "user taps map")));
/// assert_eq!(q.pop(), Some((Priority::Background, "prefetch")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct MultiLevelQueue<T> {
    levels: [VecDeque<T>; Priority::COUNT],
}

impl<T> MultiLevelQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        MultiLevelQueue {
            levels: std::array::from_fn(|_| VecDeque::new()),
        }
    }

    /// Total queued items over all classes.
    pub fn len(&self) -> usize {
        self.levels.iter().map(VecDeque::len).sum()
    }

    /// `true` when no class holds any item.
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(VecDeque::is_empty)
    }

    /// Queued items in one class.
    pub fn len_of(&self, class: Priority) -> usize {
        self.levels[class.index()].len()
    }

    /// Appends `item` to the back of its class lane.
    pub fn push_back(&mut self, class: Priority, item: T) {
        self.levels[class.index()].push_back(item);
    }

    /// Removes the front item of the most urgent non-empty class.
    pub fn pop(&mut self) -> Option<(Priority, T)> {
        for class in Priority::ALL {
            if let Some(item) = self.levels[class.index()].pop_front() {
                return Some((class, item));
            }
        }
        None
    }

    /// Picks and removes the item a `Shed` policy sacrifices so a new
    /// submission of `class` can be admitted. The victim always comes
    /// from the overflowing class itself (capacities are per class —
    /// evicting elsewhere would not make room). Returns the victim and
    /// whether it was expired under `is_expired`; `None` only when the
    /// class lane is empty.
    ///
    /// Under [`ShedDiscipline::ExpiredFirst`] the oldest *expired* item
    /// is taken, falling back to the oldest overall; under
    /// [`ShedDiscipline::OldestFirst`] always the oldest. Either way the
    /// expiry of the actual victim is reported, so callers can resolve
    /// dead victims as deadline misses rather than overload.
    pub fn shed_victim(
        &mut self,
        class: Priority,
        discipline: ShedDiscipline,
        mut is_expired: impl FnMut(&T) -> bool,
    ) -> Option<(T, bool)> {
        let lane = &mut self.levels[class.index()];
        if discipline == ShedDiscipline::ExpiredFirst {
            if let Some(i) = lane.iter().position(&mut is_expired) {
                return lane.remove(i).map(|item| (item, true));
            }
        }
        let oldest = lane.pop_front()?;
        let expired = is_expired(&oldest);
        Some((oldest, expired))
    }
}

impl<T> Default for MultiLevelQueue<T> {
    fn default() -> Self {
        MultiLevelQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_is_strict_priority_and_fifo_within_a_class() {
        let mut q = MultiLevelQueue::new();
        q.push_back(Priority::Batch, 10);
        q.push_back(Priority::Background, 20);
        q.push_back(Priority::Batch, 11);
        q.push_back(Priority::Interactive, 0);
        q.push_back(Priority::Interactive, 1);
        assert_eq!(q.len(), 5);
        assert_eq!(q.len_of(Priority::Batch), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (Priority::Interactive, 0),
                (Priority::Interactive, 1),
                (Priority::Batch, 10),
                (Priority::Batch, 11),
                (Priority::Background, 20),
            ]
        );
        assert!(q.is_empty());
    }

    /// The Shed redesign's core guarantee: an unexpired item survives a
    /// storm of expired ones — every eviction takes dead work first.
    #[test]
    fn expired_first_shedding_spares_viable_work() {
        let mut q = MultiLevelQueue::new();
        // Oldest item is viable; a storm of already-expired items lands
        // behind it (expiry encoded in the item for the test).
        q.push_back(Priority::Batch, ("survivor", false));
        for _ in 0..16 {
            q.push_back(Priority::Batch, ("dead", true));
        }
        for _ in 0..16 {
            let (victim, was_expired) = q
                .shed_victim(Priority::Batch, ShedDiscipline::ExpiredFirst, |it| it.1)
                .unwrap();
            assert_eq!(victim, ("dead", true));
            assert!(was_expired);
        }
        // Only the viable item remains; shedding now falls back to it.
        assert_eq!(q.len(), 1);
        let (victim, was_expired) = q
            .shed_victim(Priority::Batch, ShedDiscipline::ExpiredFirst, |it| it.1)
            .unwrap();
        assert_eq!(victim, ("survivor", false));
        assert!(!was_expired);
    }

    /// The pre-deadline discipline for contrast: oldest-first sacrifices
    /// the viable front item even while dead work sits behind it.
    #[test]
    fn oldest_first_shedding_takes_the_front_regardless() {
        let mut q = MultiLevelQueue::new();
        q.push_back(Priority::Batch, ("survivor", false));
        q.push_back(Priority::Batch, ("dead", true));
        let (victim, was_expired) = q
            .shed_victim(Priority::Batch, ShedDiscipline::OldestFirst, |it| it.1)
            .unwrap();
        assert_eq!(victim, ("survivor", false));
        assert!(!was_expired);
        // An expired oldest victim is still reported as expired, so the
        // caller can resolve it as a deadline miss, not overload.
        let (_, was_expired) = q
            .shed_victim(Priority::Batch, ShedDiscipline::OldestFirst, |it| it.1)
            .unwrap();
        assert!(was_expired);
    }

    #[test]
    fn shedding_is_class_local() {
        let mut q = MultiLevelQueue::new();
        q.push_back(Priority::Interactive, ("urgent", true));
        assert!(q
            .shed_victim(
                Priority::Batch,
                ShedDiscipline::ExpiredFirst,
                |it: &(&str, bool)| it.1
            )
            .is_none());
        assert_eq!(q.len_of(Priority::Interactive), 1);
    }
}
