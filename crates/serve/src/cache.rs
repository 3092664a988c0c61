//! Bounded LRU prediction cache.
//!
//! The cache maps a request's content [`Fingerprint`] to the `[DSP, LUT, FF,
//! CP]` prediction previously computed for it. Because inference is fully
//! deterministic (and fused inference is bit-identical to per-sample
//! inference), a cache hit returns *exactly* the bytes a fresh computation
//! would — the cache changes latency, never results.
//!
//! The implementation is a classic slab-backed LRU: a `HashMap` from key to
//! slot index plus an intrusive doubly-linked recency list threaded through a
//! `Vec` of slots, so `get`/`insert` are O(1) with no per-entry allocation
//! after warm-up. Hit/miss/eviction counts go to the [`Counter`] handles the
//! cache is built with — the service registers them in its metrics
//! registry, which `/metrics` renders.

use std::collections::HashMap;
use std::sync::Arc;

use hls_gnn_core::task::TargetMetric;
use hls_gnn_obs::Counter;

use crate::fingerprint::Fingerprint;

/// One cached prediction: the four raw target values.
pub type Prediction = [f64; TargetMetric::COUNT];

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    key: Fingerprint,
    value: Prediction,
    prev: usize,
    next: usize,
}

/// A bounded LRU cache from content fingerprints to predictions.
///
/// Capacity 0 disables the cache entirely: every lookup misses without being
/// counted, and inserts are dropped.
#[derive(Debug)]
pub struct PredictionCache {
    capacity: usize,
    map: HashMap<Fingerprint, usize>,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl PredictionCache {
    /// Creates a cache holding at most `capacity` predictions, whose
    /// hit/miss/eviction bumps go to the given counter handles (the service
    /// registers them in its [`hls_gnn_obs::Registry`]).
    pub fn with_counters(
        capacity: usize,
        hits: Arc<Counter>,
        misses: Arc<Counter>,
        evictions: Arc<Counter>,
    ) -> Self {
        PredictionCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(4096)),
            slots: Vec::with_capacity(capacity.min(4096)),
            head: NIL,
            tail: NIL,
            hits,
            misses,
            evictions,
        }
    }

    /// The configured capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached predictions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks a prediction up, refreshing its recency on a hit.
    pub fn get(&mut self, key: Fingerprint) -> Option<Prediction> {
        if self.capacity == 0 {
            return None;
        }
        match self.map.get(&key).copied() {
            Some(slot) => {
                self.hits.inc();
                self.unlink(slot);
                self.push_front(slot);
                Some(self.slots[slot].value)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts (or refreshes) a prediction, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&mut self, key: Fingerprint, value: Prediction) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            // Concurrent identical requests can both miss and both compute;
            // determinism makes the values identical, so refreshing is enough.
            self.slots[slot].value = value;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        let slot = if self.map.len() >= self.capacity {
            // Recycle the least-recently-used slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.evictions.inc();
            self.slots[victim].key = key;
            self.slots[victim].value = value;
            victim
        } else {
            self.slots.push(Slot { key, value, prev: NIL, next: NIL });
            self.slots.len() - 1
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(tag: f64) -> Prediction {
        [tag, tag + 1.0, tag + 2.0, tag + 3.0]
    }

    /// A cache plus its `[hits, misses, evictions]` counter handles.
    fn counted(capacity: usize) -> (PredictionCache, [Arc<Counter>; 3]) {
        let counters: [Arc<Counter>; 3] = Default::default();
        let [hits, misses, evictions] = counters.clone();
        (PredictionCache::with_counters(capacity, hits, misses, evictions), counters)
    }

    fn counts(counters: &[Arc<Counter>; 3]) -> [u64; 3] {
        counters.each_ref().map(|counter| counter.get())
    }

    #[test]
    fn get_and_insert_track_counters() {
        let (mut cache, counters) = counted(4);
        assert_eq!(cache.get(1), None);
        cache.insert(1, value(1.0));
        assert_eq!(cache.get(1), Some(value(1.0)));
        assert_eq!(counts(&counters), [1, 1, 0]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_removes_the_least_recently_used() {
        let (mut cache, counters) = counted(2);
        cache.insert(1, value(1.0));
        cache.insert(2, value(2.0));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(1).is_some());
        cache.insert(3, value(3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(2), None, "entry 2 was the LRU victim");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(counts(&counters)[2], 1);
    }

    #[test]
    fn reinserting_refreshes_recency_without_growing() {
        let (mut cache, _) = counted(2);
        cache.insert(1, value(1.0));
        cache.insert(2, value(2.0));
        cache.insert(1, value(9.0));
        assert_eq!(cache.len(), 2);
        cache.insert(3, value(3.0));
        // 2 (not the refreshed 1) must be the victim.
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(1), Some(value(9.0)));
    }

    #[test]
    fn capacity_one_and_long_chains_stay_consistent() {
        let (mut cache, counters) = counted(1);
        for key in 0..100u128 {
            cache.insert(key, value(key as f64));
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.get(key), Some(value(key as f64)));
        }
        assert_eq!(counts(&counters)[2], 99);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let (mut cache, counters) = counted(0);
        cache.insert(1, value(1.0));
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.len(), 0);
        assert_eq!(counts(&counters), [0, 0, 0]);
    }
}
