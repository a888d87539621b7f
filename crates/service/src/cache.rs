//! The engine's result cache: an O(1) LRU — `HashMap` from key to a
//! slot in an arena-allocated doubly-linked recency list — whose entries
//! carry the engine epoch they were computed under. Values are
//! cheap-to-clone `Arc`s.
//!
//! Epoch stamping exists for snapshot hot-swap: every entry records the
//! engine epoch it was computed under, and [`Cache::purge_below_epoch`]
//! drops everything older in one sweep when
//! `QueryEngine::swap_snapshot` bumps the epoch. Cache *keys* already
//! mix in the epoch (stale entries are unreachable the moment the epoch
//! moves); the purge reclaims their space eagerly and makes the swap
//! observable (`Count::CacheEvictedOnSwap`).

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    /// The engine epoch the value was computed under.
    epoch: u64,
    prev: usize,
    next: usize,
}

/// Least-recently-used cache with a fixed capacity whose entries carry
/// the engine epoch they were computed under. Keys are expected to mix
/// in the epoch already (see `EpochSnapshot::cache_key`), so lookups
/// never need an epoch argument — the stamp exists so a snapshot swap
/// can purge everything computed before it in one sweep.
///
/// Arena slots are `Option`s so an evicted entry's key/value drop
/// *immediately* — an eviction must actually release the (possibly
/// large) cached answer, not park it until the slot is reused.
pub struct Cache<K, V> {
    map: HashMap<K, usize>,
    arena: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> Cache<K, V> {
    /// Creates a cache holding at most `capacity` entries. A capacity of
    /// zero disables caching (every `get` misses, `insert` is a no-op).
    pub fn new(capacity: usize) -> Self {
        // Preallocation is capped: `capacity` bounds entry *count*, but a
        // huge configured capacity must not allocate (or abort) up front —
        // both containers grow on demand.
        Self {
            map: HashMap::with_capacity(capacity.min(1024)),
            arena: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let &slot = self.map.get(key)?;
        self.detach(slot);
        self.push_front(slot);
        Some(self.node(slot).value.clone())
    }

    fn node(&self, slot: usize) -> &Node<K, V> {
        self.arena[slot].as_ref().expect("slot in the recency list")
    }

    fn node_mut(&mut self, slot: usize) -> &mut Node<K, V> {
        self.arena[slot].as_mut().expect("slot in the recency list")
    }

    /// Inserts or refreshes `key` with a value computed under `epoch`,
    /// evicting the least-recently-used entry when full. Returns how
    /// many entries were evicted by capacity pressure (0 or 1).
    pub fn insert(&mut self, key: K, value: V, epoch: u64) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        if let Some(&slot) = self.map.get(&key) {
            let node = self.node_mut(slot);
            node.value = value;
            node.epoch = epoch;
            self.detach(slot);
            self.push_front(slot);
            return 0;
        }
        let mut evicted = 0;
        if self.map.len() == self.capacity {
            self.evict_lru();
            evicted = 1;
        }
        let node = Some(Node {
            key: key.clone(),
            value,
            epoch,
            prev: NIL,
            next: NIL,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.arena[slot] = node;
                slot
            }
            None => {
                self.arena.push(node);
                self.arena.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        evicted
    }

    /// Drops every entry stamped with an epoch strictly below `epoch`,
    /// preserving the recency order of the survivors, and returns how
    /// many were evicted. Called on snapshot swap with the *new* epoch,
    /// so all entries from older snapshots die at once. O(len).
    pub fn purge_below_epoch(&mut self, epoch: u64) -> usize {
        let mut removed = 0;
        let mut cur = self.head;
        while cur != NIL {
            let node = self.node(cur);
            let next = node.next;
            if node.epoch < epoch {
                self.detach(cur);
                self.release(cur);
                removed += 1;
            }
            cur = next;
        }
        removed
    }

    /// Changes the capacity in place, evicting LRU entries if the cache
    /// is over the new bound. Returns how many entries were evicted.
    /// Setting 0 empties the cache and disables caching.
    pub fn set_capacity(&mut self, capacity: usize) -> usize {
        self.capacity = capacity;
        let mut evicted = 0;
        while self.map.len() > capacity {
            self.evict_lru();
            evicted += 1;
        }
        evicted
    }

    fn evict_lru(&mut self) {
        let lru = self.tail;
        if lru == NIL {
            return;
        }
        self.detach(lru);
        self.release(lru);
    }

    /// Frees a detached slot, dropping its key/value *now* (the whole
    /// point of eviction is releasing the cached answer's memory).
    fn release(&mut self, slot: usize) {
        let node = self.arena[slot].take().expect("released slot was live");
        self.map.remove(&node.key);
        self.free.push(slot);
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = {
            let node = self.node(slot);
            (node.prev, node.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node_mut(n).prev = prev,
        }
        let node = self.node_mut(slot);
        node.prev = NIL;
        node.next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        let head = self.head;
        {
            let node = self.node_mut(slot);
            node.prev = NIL;
            node.next = head;
        }
        match head {
            NIL => self.tail = slot,
            h => self.node_mut(h).prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_eviction_order() {
        let mut cache = Cache::new(2);
        assert_eq!(cache.insert(1, "a", 1), 0);
        assert_eq!(cache.insert(2, "b", 1), 0);
        assert_eq!(cache.get(&1), Some("a")); // 1 becomes MRU
        assert_eq!(cache.insert(3, "c", 1), 1); // evicts 2 (LRU)
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some("a"));
        assert_eq!(cache.get(&3), Some("c"));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut cache = Cache::new(2);
        cache.insert(1, "a", 1);
        cache.insert(2, "b", 1);
        cache.insert(1, "a2", 1); // refresh: 2 is now LRU
        cache.insert(3, "c", 1); // evicts 2
        assert_eq!(cache.get(&1), Some("a2"));
        assert_eq!(cache.get(&2), None);
    }

    #[test]
    fn reinsert_restamps_the_epoch() {
        let mut cache = Cache::new(2);
        cache.insert(1, "a", 1);
        cache.insert(1, "a2", 2);
        assert_eq!(cache.purge_below_epoch(2), 0);
        assert_eq!(cache.get(&1), Some("a2"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = Cache::new(0);
        cache.insert(1, "a", 1);
        assert_eq!(cache.get(&1), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn long_churn_stays_bounded_and_consistent() {
        let mut cache = Cache::new(8);
        for i in 0..1000u64 {
            cache.insert(i % 13, i, 1);
            assert!(cache.len() <= 8);
        }
        // The 8 most recently inserted distinct keys must all be present.
        let mut expected = Vec::new();
        let mut i = 999i64;
        while expected.len() < 8 {
            let key = (i % 13) as u64;
            if !expected.contains(&key) {
                expected.push(key);
            }
            i -= 1;
        }
        for key in expected {
            assert!(cache.get(&key).is_some(), "missing key {key}");
        }
    }

    #[test]
    fn purge_drops_only_older_entries_and_keeps_order() {
        let mut cache = Cache::new(8);
        // Even keys are stamped with the newer epoch.
        for i in 0..6 {
            cache.insert(i, i * 10, 1 + (i % 2 == 0) as u64);
        }
        let removed = cache.purge_below_epoch(2);
        assert_eq!(removed, 3);
        assert_eq!(cache.len(), 3);
        for i in 0..6 {
            assert_eq!(cache.get(&i).is_some(), i % 2 == 0, "key {i}");
        }
        // Freed slots are reusable and eviction order still works.
        cache.insert(7, 70, 2);
        cache.insert(9, 90, 2);
        cache.insert(11, 110, 2);
        cache.insert(13, 130, 2);
        cache.insert(15, 150, 2);
        assert_eq!(cache.len(), 8);
        cache.insert(17, 170, 2); // evicts LRU (key 0, untouched longest)
        assert_eq!(cache.get(&0), None);
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn set_capacity_evicts_lru_down_to_bound() {
        let mut cache = Cache::new(8);
        for i in 0..8 {
            cache.insert(i, i, 1);
        }
        assert_eq!(cache.get(&0), Some(0)); // 0 becomes MRU
        let evicted = cache.set_capacity(3);
        assert_eq!(evicted, 5);
        assert_eq!(cache.len(), 3);
        // Survivors are the three most recently used: 0, 7, 6.
        for key in [0, 7, 6] {
            assert!(cache.get(&key).is_some(), "missing {key}");
        }
        assert_eq!(cache.set_capacity(0), 3);
        cache.insert(1, 1, 1);
        assert!(cache.is_empty(), "capacity 0 must disable caching");
    }

    #[test]
    fn eviction_drops_values_immediately() {
        use crate::sync::Arc;
        let payload = Arc::new(vec![1u8; 16]);
        let mut cache = Cache::new(4);
        cache.insert(1, Arc::clone(&payload), 1);
        cache.insert(2, Arc::clone(&payload), 2);
        assert_eq!(Arc::strong_count(&payload), 3);
        // A purge-eviction releases the stored value now, not whenever
        // the freed slot is next reused.
        cache.purge_below_epoch(2);
        assert_eq!(Arc::strong_count(&payload), 2);
        // Capacity shrink releases too.
        cache.set_capacity(0);
        assert_eq!(Arc::strong_count(&payload), 1);
        // As does ordinary LRU eviction on insert.
        cache.set_capacity(1);
        cache.insert(3, Arc::clone(&payload), 2);
        cache.insert(4, Arc::clone(&payload), 2);
        assert_eq!(Arc::strong_count(&payload), 2);
    }

    #[test]
    fn epoch_cache_purges_below_epoch() {
        let mut cache = Cache::new(8);
        cache.insert("a", 1, 1);
        cache.insert("b", 2, 1);
        cache.insert("c", 3, 2);
        assert_eq!(cache.len(), 3);
        // Purging at the newest epoch kills only the older stamps.
        assert_eq!(cache.purge_below_epoch(2), 2);
        assert_eq!(cache.get(&"a"), None);
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"c"), Some(3));
        // Idempotent once clean.
        assert_eq!(cache.purge_below_epoch(2), 0);
        assert_eq!(cache.len(), 1);
    }
}
