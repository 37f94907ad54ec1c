//! Aggregated engine telemetry.

use crate::cache::CacheStats;
use crate::persist::TierStats;
use crate::pool::PoolStats;
use crate::quota::QuotaStats;
use crate::telemetry::STAGE_COUNT;

/// A point-in-time snapshot of every engine counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// Requests coalesced onto an identical in-flight request (single-flight dedup).
    pub coalesced: u64,
    /// Result-cache counters (the in-memory tier).
    pub cache: CacheStats,
    /// Persistent disk-tier counters. The tier is shared by every shard, so a
    /// shard's own snapshot leaves this zero: [`crate::RouterStats::aggregate`]
    /// and [`crate::Router::drain`] read it once, from the tier itself.
    pub tier: TierStats,
    /// Worker-pool counters.
    pub pool: PoolStats,
    /// Admission-control counters (throttled requests never reach the pool).
    /// Shared like `tier`: zero in a shard's snapshot, read once from the
    /// quota table by the router.
    pub quota: QuotaStats,
    /// Requests that ran out of deadline budget, indexed by the
    /// [`crate::telemetry::Stage`] at which the expiry was detected (only the
    /// `admit`, `queue_wait`, and `execute` checkpoints ever fire; the other
    /// slots stay zero).
    pub deadline_expired: [u64; STAGE_COUNT],
    /// Low-priority requests rejected by the load-shedder before queueing.
    pub shed: u64,
}

impl EngineStats {
    /// Cache hit rate in [0, 1]; 0 when no lookups happened.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }

    /// Disk-tier hit rate in [0, 1]; 0 when the tier saw no lookups (including
    /// when no tier is mounted).
    pub fn tier_hit_rate(&self) -> f64 {
        let total = self.tier.hits + self.tier.misses;
        if total == 0 {
            0.0
        } else {
            self.tier.hits as f64 / total as f64
        }
    }

    /// Fraction of submissions that coalesced onto an identical in-flight
    /// request, in [0, 1]; 0 when nothing was submitted.
    pub fn coalesce_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.coalesced as f64 / self.submitted as f64
        }
    }

    /// Adds `other`'s per-shard counters to this snapshot's, for aggregating
    /// engine shards. The shared `tier` and `quota` stay this snapshot's: the
    /// router reads them once from their owners, so there is nothing to sum.
    pub fn merge(mut self, other: &EngineStats) -> EngineStats {
        self.submitted += other.submitted;
        self.coalesced += other.coalesced;
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.evictions += other.cache.evictions;
        self.cache.entries += other.cache.entries;
        self.cache.weight += other.cache.weight;
        self.cache.capacity += other.cache.capacity;
        self.pool.completed += other.pool.completed;
        self.pool.panicked += other.pool.panicked;
        self.pool.queued += other.pool.queued;
        self.pool.workers += other.pool.workers;
        for band in 0..3 {
            self.pool.queued_now[band] += other.pool.queued_now[band];
            self.pool.in_flight_now[band] += other.pool.in_flight_now[band];
        }
        for stage in 0..STAGE_COUNT {
            self.deadline_expired[stage] += other.deadline_expired[stage];
        }
        self.shed += other.shed;
        self
    }

    /// Total deadline expiries across every checkpoint stage.
    pub fn deadline_expired_total(&self) -> u64 {
        self.deadline_expired.iter().sum()
    }

    /// One-line human-readable summary for CLI output and logs.
    pub fn summary(&self) -> String {
        format!(
            "requests: {} submitted, {} coalesced ({:.0}% coalesce rate) | cache: {} hits / {} misses / {} evictions ({} resident, {:.0}% hit rate) | disk-tier: {} hits / {} misses / {} errors ({} entries, {} KiB, {:.0}% hit rate) | pool: {} workers, {} completed, {} panicked, {} queued | quota: {} admitted, {} throttled, {} tenants | degraded: {} shed, {} expired",
            self.submitted,
            self.coalesced,
            self.coalesce_rate() * 100.0,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.entries,
            self.cache_hit_rate() * 100.0,
            self.tier.hits,
            self.tier.misses,
            self.tier.load_errors,
            self.tier.entries,
            self.tier.bytes / 1024,
            self.tier_hit_rate() * 100.0,
            self.pool.workers,
            self.pool.completed,
            self.pool.panicked,
            self.pool.queued,
            self.quota.admitted,
            self.quota.throttled,
            self.quota.tenants,
            self.shed,
            self.deadline_expired_total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut s = EngineStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cache.hits = 3;
        s.cache.misses = 1;
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!(s.summary().contains("3 hits"));
    }

    #[test]
    fn derived_rates_handle_empty_and_mixed() {
        let mut s = EngineStats::default();
        assert_eq!(s.tier_hit_rate(), 0.0);
        assert_eq!(s.coalesce_rate(), 0.0);
        s.submitted = 8;
        s.coalesced = 2;
        s.tier.hits = 1;
        s.tier.misses = 3;
        assert!((s.coalesce_rate() - 0.25).abs() < 1e-12);
        assert!((s.tier_hit_rate() - 0.25).abs() < 1e-12);
        let line = s.summary();
        assert!(line.contains("25% coalesce rate"), "summary: {line}");
        assert!(line.contains("disk-tier: 1 hits"), "summary: {line}");
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = EngineStats {
            submitted: 3,
            coalesced: 1,
            ..EngineStats::default()
        };
        a.cache = CacheStats {
            hits: 2,
            misses: 4,
            evictions: 1,
            entries: 3,
            weight: 1_513,
            capacity: 4_096,
        };
        a.pool.workers = 4;
        a.pool.completed = 6;
        a.pool.queued_now = [1, 0, 2];
        let mut b = EngineStats {
            submitted: 5,
            coalesced: 2,
            ..EngineStats::default()
        };
        b.cache = CacheStats {
            hits: 1,
            misses: 3,
            evictions: 5,
            entries: 2,
            weight: 2_000,
            capacity: 4_096,
        };
        b.pool.workers = 2;
        b.pool.completed = 1;
        b.pool.in_flight_now = [0, 3, 0];
        a.shed = 1;
        b.shed = 4;
        a.deadline_expired[2] = 2;
        b.deadline_expired[2] = 3;
        // The shared instruments are the receiver's, never summed.
        a.tier.hits = 9;
        a.quota.admitted = 4;
        b.tier.hits = 100;
        b.quota.admitted = 100;
        let merged = a.merge(&b);
        assert_eq!((merged.tier, merged.quota), (a.tier, a.quota));
        assert_eq!((merged.submitted, merged.coalesced), (8, 3));
        assert_eq!(
            merged.cache,
            CacheStats {
                hits: 3,
                misses: 7,
                evictions: 6,
                entries: 5,
                weight: 3_513,
                capacity: 8_192,
            }
        );
        assert_eq!(merged.pool.workers, 6);
        assert_eq!(merged.pool.completed, 7);
        assert_eq!(merged.pool.queued_now, [1, 0, 2]);
        assert_eq!(merged.pool.in_flight_now, [0, 3, 0]);
        assert_eq!(merged.shed, 5);
        assert_eq!(merged.deadline_expired[2], 5);
        assert_eq!(merged.deadline_expired_total(), 5);
        let line = merged.summary();
        assert!(line.contains("5 shed, 5 expired"), "summary: {line}");
    }
}
