//! A generic sharded LRU cache with hit/miss/eviction counters and weighted entries.
//!
//! Keys are spread over independently locked shards so concurrent workers rarely
//! contend. Each shard tracks a recency tick per entry; eviction removes
//! least-recently-used entries of the shard that overflowed (approximate global LRU,
//! exact per-shard LRU — the standard serving-cache trade-off, cf. sharded caches in
//! most RPC servers).
//!
//! Capacity is a budget of **weight units**, not entry slots: [`ShardedLru::insert`]
//! charges one unit per entry (classic count-capped LRU), while
//! [`ShardedLru::insert_weighted`] lets callers charge an entry's approximate payload
//! bytes — which is how the view-statistics cache ([`crate::stats_cache`]) and the
//! engine's result cache bound *memory*, so one histogram of a per-row-unique column
//! can no longer occupy the same budget as a thousand tiny summaries.
//!
//! Lives in `linx-dataframe` (the workspace's lowest layer) because both the
//! `linx-engine` result cache and the view-statistics cache ([`crate::stats_cache`])
//! are instances of it; `linx-engine` re-exports it unchanged.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Point-in-time cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Resident weight (bytes for byte-weighted caches, entry count for unit-weight
    /// caches).
    pub weight: u64,
    /// Total capacity across shards, in weight units.
    pub capacity: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<V> {
    value: V,
    last_used: u64,
    weight: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Sum of resident entry weights.
    used: u64,
    tick: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.value.clone()
        })
    }

    /// Insert, returning how many older entries were evicted to make room.
    ///
    /// An entry heavier than the whole shard budget is not cached at all (inserting
    /// it would flush the shard and still overflow).
    fn insert(&mut self, key: K, value: V, weight: u64, capacity: u64) -> u64 {
        if weight > capacity {
            // Remove any lighter predecessor under the same key: keeping it would
            // serve stale-sized data forever while lookups appear warm.
            if let Some(old) = self.map.remove(&key) {
                self.used -= old.weight;
            }
            return 0;
        }
        self.tick += 1;
        if let Some(old) = self.map.remove(&key) {
            self.used -= old.weight;
        }
        let mut evicted = 0u64;
        while self.used + weight > capacity && !self.map.is_empty() {
            // O(shard) scan; shards are small and eviction is rare relative to the
            // cost of whatever the cache is saving.
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                if let Some(old) = self.map.remove(&oldest) {
                    self.used -= old.weight;
                    evicted += 1;
                }
            } else {
                break;
            }
        }
        self.used += weight;
        self.map.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
                weight,
            },
        );
        evicted
    }
}

/// A sharded, thread-safe LRU map with weight-budgeted capacity (see module docs).
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard_capacity: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K, V> std::fmt::Debug for ShardedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache with `capacity` total weight units spread over `shards` shards.
    ///
    /// With unit-weight inserts ([`ShardedLru::insert`]) the capacity is an entry
    /// count, preserving the classic behavior. A zero capacity yields a cache that
    /// stores nothing (lookups simply always miss).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(capacity.max(1));
        let per_shard_capacity = (capacity as u64).div_ceil(shards as u64);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        used: 0,
                        tick: 0,
                    })
                })
                .collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V>> {
        // Keys are already high-entropy fingerprints; fold std's hasher output anyway
        // so arbitrary key types spread well.
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up a key, refreshing its recency.
    pub fn get(&self, key: &K) -> Option<V> {
        if self.per_shard_capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let found = self.shard_for(key).lock().expect("cache lock").get(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Look up a key, refreshing its recency, without counting a hit or a miss: for
    /// lookups a cache makes on its own behalf rather than for a caller.
    pub(crate) fn peek(&self, key: &K) -> Option<V> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        self.shard_for(key).lock().expect("cache lock").get(key)
    }

    /// Insert a key at unit weight, evicting least-recently-used entries if full.
    pub fn insert(&self, key: K, value: V) {
        self.insert_weighted(key, value, 1);
    }

    /// Insert a key charging `weight` units (e.g. approximate payload bytes) against
    /// the capacity, evicting least-recently-used entries until it fits. Entries
    /// heavier than a whole shard's budget are not cached. A zero weight is charged
    /// as one unit so residency stays bounded by entry count too.
    pub fn insert_weighted(&self, key: K, value: V, weight: u64) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let evicted = self.shard_for(&key).lock().expect("cache lock").insert(
            key,
            value,
            weight.max(1),
            self.per_shard_capacity,
        );
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut weight) = (0u64, 0u64);
        for s in &self.shards {
            let s = s.lock().expect("cache lock");
            entries += s.map.len() as u64;
            weight += s.used;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            weight,
            capacity: self.per_shard_capacity * self.shards.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_misses_and_counters() {
        let cache: ShardedLru<u64, String> = ShardedLru::new(8, 2);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, "one".into());
        assert_eq!(cache.get(&1).as_deref(), Some("one"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.weight), (1, 1, 1, 1));
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // Single shard makes LRU order fully observable.
        let cache: ShardedLru<u64, u64> = ShardedLru::new(3, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(3, 30);
        // Touch 1 and 3; 2 becomes the LRU entry.
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&3).is_some());
        cache.insert(4, 40);
        assert_eq!(cache.get(&2), None, "LRU entry evicted");
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&3).is_some());
        assert!(cache.get(&4).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(2, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&2), Some(20));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(0, 4);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn weighted_inserts_bound_total_weight_not_entry_count() {
        // 100 weight units in one shard: two 40-unit entries fit, a third evicts.
        let cache: ShardedLru<u64, u64> = ShardedLru::new(100, 1);
        cache.insert_weighted(1, 10, 40);
        cache.insert_weighted(2, 20, 40);
        assert_eq!(cache.stats().weight, 80);
        cache.insert_weighted(3, 30, 40);
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.weight, 80);
        assert_eq!(s.evictions, 1);
        assert_eq!(cache.get(&1), None, "oldest entry paid for the third");
        assert!(cache.get(&2).is_some());
        assert!(cache.get(&3).is_some());
    }

    #[test]
    fn one_heavy_entry_can_evict_many_light_ones() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(10, 1);
        for k in 0..10 {
            cache.insert(k, k);
        }
        cache.insert_weighted(99, 99, 9);
        let s = cache.stats();
        assert_eq!(
            s.evictions, 9,
            "nine unit entries evicted for one 9-unit entry"
        );
        assert_eq!(s.entries, 2);
        assert!(cache.get(&99).is_some());
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(10, 1);
        cache.insert(1, 10);
        cache.insert_weighted(2, 20, 1000);
        assert_eq!(
            cache.get(&2),
            None,
            "entry heavier than the shard is skipped"
        );
        assert!(
            cache.get(&1).is_some(),
            "resident entries are not flushed for it"
        );
        // Re-inserting an existing key at an oversized weight drops the old entry.
        cache.insert_weighted(1, 11, 1000);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.stats().weight, 0);
    }

    #[test]
    fn reweighting_an_existing_key_updates_the_budget() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(10, 1);
        cache.insert_weighted(1, 10, 8);
        cache.insert_weighted(1, 11, 2);
        let s = cache.stats();
        assert_eq!((s.entries, s.weight, s.evictions), (1, 2, 0));
        assert_eq!(cache.get(&1), Some(11));
    }
}
