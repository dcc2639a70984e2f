//! Slab-style event pool: index-linked payload slots instead of per-event
//! heap boxes.
//!
//! Large event payloads (collection responses, on-demand exchanges) used to
//! ride inside the queue as boxed values, costing an allocation per event.
//! [`EventPool`] stores them in a slab — a `Vec` of recyclable slots — so
//! the queue carries a 4-byte [`SlotId`] and the payload memory is reused
//! across the run. Slots are recycled LIFO, which keeps the hot slots
//! cache-warm and, more importantly, keeps allocation *deterministic*: the
//! slot a payload lands in depends only on the sequence of
//! [`insert`](EventPool::insert)/[`take`](EventPool::take) calls, never on
//! an allocator or address.
//!
//! The pool tracks a high-water mark ([`EventPool::high_water`]) surfaced
//! in the fleet report and the benchmark's `sim.pool.high_water` metric;
//! the fleet determinism tests assert it stays bounded under churn, pinning
//! the stale-event slot-recycling fix.

/// Index of a live slot in an [`EventPool`].
///
/// Deliberately `Copy` and small: this is what event payloads carry through
/// the scheduler instead of the pooled value itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SlotId(u32);

impl SlotId {
    /// The raw slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A recyclable slab of payload slots.
///
/// # Example
///
/// ```
/// use erasmus_sim::EventPool;
///
/// let mut pool: EventPool<String> = EventPool::new();
/// let id = pool.insert("payload".to_string());
/// assert_eq!(pool.get(id), Some(&"payload".to_string()));
/// let payload = pool.take(id).expect("slot is live");
/// assert_eq!(payload, "payload");
/// assert!(pool.is_empty());
/// // The freed slot is recycled by the next insert.
/// let reused = pool.insert("next".to_string());
/// assert_eq!(reused, id);
/// ```
#[derive(Debug, Clone)]
pub struct EventPool<T> {
    slots: Vec<Option<T>>,
    /// Free slot indices, recycled LIFO.
    free: Vec<u32>,
    live: usize,
    high_water: usize,
}

impl<T> EventPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
        }
    }

    /// Stores `value`, reusing a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        if let Some(index) = self.free.pop() {
            debug_assert!(self.slots[index as usize].is_none());
            self.slots[index as usize] = Some(value);
            SlotId(index)
        } else {
            let index = u32::try_from(self.slots.len()).expect("pool exceeds u32 slots");
            self.slots.push(Some(value));
            SlotId(index)
        }
    }

    /// Removes and returns the value in `id`, recycling the slot.
    ///
    /// Returns `None` if the slot was already taken — callers treat that as
    /// a logic error and assert on it.
    pub fn take(&mut self, id: SlotId) -> Option<T> {
        let value = self.slots.get_mut(id.index())?.take()?;
        self.free.push(id.0);
        self.live -= 1;
        Some(value)
    }

    /// Borrows the value in `id`, if live.
    pub fn get(&self, id: SlotId) -> Option<&T> {
        self.slots.get(id.index())?.as_ref()
    }

    /// Mutably borrows the value in `id`, if live.
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    /// Number of live slots.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no slots are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Most slots ever live at once — the pool's memory footprint.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

impl<T> Default for EventPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_round_trips() {
        let mut pool = EventPool::new();
        let a = pool.insert(10u32);
        let b = pool.insert(20u32);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(a), Some(&10));
        assert_eq!(pool.get_mut(b).map(|v| std::mem::replace(v, 25)), Some(20));
        assert_eq!(pool.take(b), Some(25));
        assert_eq!(pool.take(b), None, "double-take is rejected");
        assert_eq!(pool.take(a), Some(10));
        assert!(pool.is_empty());
    }

    #[test]
    fn slots_recycle_lifo_and_bound_high_water() {
        let mut pool = EventPool::new();
        let first = pool.insert(0u32);
        pool.take(first);
        // Churn: insert/take pairs must not grow the slab.
        for round in 0..1000u32 {
            let id = pool.insert(round);
            assert_eq!(id, first, "freed slot is reused");
            pool.take(id);
        }
        assert_eq!(pool.high_water(), 1);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut pool = EventPool::new();
        let ids: Vec<_> = (0..8u32).map(|v| pool.insert(v)).collect();
        for id in ids {
            pool.take(id);
        }
        assert!(pool.is_empty());
        assert_eq!(pool.high_water(), 8);
    }

    #[test]
    fn recycling_is_deterministic() {
        // Two pools fed the same insert/take sequence hand out identical
        // slot ids — allocation is part of the deterministic state.
        let mut a = EventPool::new();
        let mut b = EventPool::new();
        let mut ids_a = Vec::new();
        let mut ids_b = Vec::new();
        for round in 0..50u32 {
            ids_a.push(a.insert(round));
            ids_b.push(b.insert(round));
            if round % 3 == 0 {
                let id_a = ids_a.remove(0);
                let id_b = ids_b.remove(0);
                assert_eq!(a.take(id_a), b.take(id_b));
            }
        }
        assert_eq!(ids_a, ids_b);
    }
}
