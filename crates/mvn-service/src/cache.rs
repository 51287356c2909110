//! The per-shard factor cache: an LRU map from [`FactorFingerprint`] to a
//! shared Cholesky factor, with its capacity measured in *bytes of stored
//! factor data* (`stored_elements() × 8`) rather than entry count — a dense
//! 10k-dimension factor and a 400-dimension one are not interchangeable
//! occupants.
//!
//! The cache is deliberately **not** internally synchronized: each service
//! shard owns one cache and is the only thread that touches it (requests are
//! routed by fingerprint, so a factor lives on exactly one shard). This keeps
//! the hot hit path a plain `HashMap` lookup with no lock traffic.
//!
//! Correctness under eviction is the cheap part of the design: a factor is a
//! pure function of its spec, so an evicted entry is simply rebuilt on the
//! next request and yields bitwise-identical probabilities (tested in
//! `tests/service_equivalence.rs`).
//!
//! Two policies refine plain LRU:
//!
//! * **Pinning** ([`FactorCache::pin`]): a pinned entry is never chosen as an
//!   eviction victim, so a hot factor survives an eviction storm of one-shot
//!   traffic. Pins are an operator lever (the service's `warm` request), so
//!   pinned bytes may hold the cache above its capacity — the eviction loop
//!   stops when only pinned entries remain rather than violating a pin.
//! * **Oversized bypass** ([`FactorCache::insert`]): a single factor larger
//!   than the whole byte capacity is *not* stored (and evicts nothing). It
//!   used to evict every resident entry and then monopolize the cache; now
//!   the caller keeps serving from the `Arc` it already holds, the resident
//!   working set survives, and the bypass is visible in
//!   [`CacheStats::oversized`].

use crate::spec::FactorFingerprint;
use mvn_core::Factor;
use std::collections::HashMap;
use std::sync::Arc;

/// Usage counters of a [`FactorCache`] (cumulative over the cache lifetime,
/// except the point-in-time `entries`/`pinned`/`bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the factor resident.
    pub hits: u64,
    /// Lookups that missed (the caller then rebuilds and inserts).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts that bypassed the cache because a single factor exceeded the
    /// whole byte capacity (see the [module docs](self)).
    pub oversized: u64,
    /// Factors currently resident.
    pub entries: usize,
    /// Resident factors currently pinned (never eviction victims).
    pub pinned: usize,
    /// Bytes of factor data currently resident.
    pub bytes: usize,
    /// The configured capacity in bytes.
    pub capacity_bytes: usize,
}

impl CacheStats {
    /// Hits over lookups, `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    factor: Arc<Factor>,
    bytes: usize,
    /// Logical timestamp of the last hit/insert (monotone counter, not wall
    /// time — recency is an ordering, not a duration).
    last_used: u64,
    /// Pinned entries are never eviction victims.
    pinned: bool,
}

/// An LRU cache of Cholesky factors keyed by spec fingerprint (see the
/// [module docs](self)).
pub struct FactorCache {
    capacity_bytes: usize,
    tick: u64,
    entries: HashMap<FactorFingerprint, Entry>,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    oversized: u64,
}

impl FactorCache {
    /// An empty cache holding at most `capacity_bytes` of factor data.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            tick: 0,
            entries: HashMap::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            oversized: 0,
        }
    }

    /// Look up a factor, refreshing its recency on a hit. Counts the lookup
    /// as a hit or miss.
    pub fn get(&mut self, fp: FactorFingerprint) -> Option<Arc<Factor>> {
        self.tick += 1;
        match self.entries.get_mut(&fp) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&e.factor))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether a factor is resident, *without* counting a lookup or touching
    /// recency — the batch-formation probe of the shard dispatcher (a request
    /// may join a mixed batch only if its factor is already resident, and
    /// probing every queued request must not skew the hit rate).
    pub fn contains(&self, fp: FactorFingerprint) -> bool {
        self.entries.contains_key(&fp)
    }

    /// Insert a freshly built factor, evicting least-recently-used *unpinned*
    /// entries until the cache fits its byte capacity again. Returns `false`
    /// (and stores nothing, evicts nothing) when the factor alone exceeds the
    /// whole capacity — the oversized bypass of the [module docs](self). The
    /// entry being inserted is never evicted by its own insertion, and pinned
    /// entries are never victims, so an insert may leave the cache above
    /// capacity when pins dominate; the overshoot drains as pins are
    /// released.
    pub fn insert(&mut self, fp: FactorFingerprint, factor: Arc<Factor>) -> bool {
        self.tick += 1;
        let bytes = factor.stored_elements() * std::mem::size_of::<f64>();
        if bytes > self.capacity_bytes {
            self.oversized += 1;
            return false;
        }
        if let Some(old) = self.entries.insert(
            fp,
            Entry {
                factor,
                bytes,
                last_used: self.tick,
                // Re-inserting under a pinned fingerprint (rebuild after the
                // pin outlived an exterior copy) keeps the pin.
                pinned: false,
            },
        ) {
            // Replacing an existing entry (two threads racing to build the
            // same factor on one shard cannot happen — the shard is single
            // threaded — but re-insert after eviction can).
            self.bytes -= old.bytes;
            self.entries.get_mut(&fp).expect("just inserted").pinned = old.pinned;
        }
        self.bytes += bytes;
        while self.bytes > self.capacity_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|(&k, e)| k != fp && !e.pinned)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(victim) = victim else {
                break; // only the new entry and pinned entries remain
            };
            let evicted = self.entries.remove(&victim).expect("victim is resident");
            self.bytes -= evicted.bytes;
            self.evictions += 1;
        }
        true
    }

    /// Pin a resident factor so it is never chosen as an eviction victim.
    /// Returns whether the factor was resident (a pin on an absent — e.g.
    /// oversized-bypassed — fingerprint is a no-op).
    pub fn pin(&mut self, fp: FactorFingerprint) -> bool {
        match self.entries.get_mut(&fp) {
            Some(e) => {
                e.pinned = true;
                true
            }
            None => false,
        }
    }

    /// Make a pinned factor evictable again. Returns whether it was resident.
    pub fn unpin(&mut self, fp: FactorFingerprint) -> bool {
        match self.entries.get_mut(&fp) {
            Some(e) => {
                e.pinned = false;
                true
            }
            None => false,
        }
    }

    /// Whether a resident factor is currently pinned.
    pub fn is_pinned(&self, fp: FactorFingerprint) -> bool {
        self.entries.get(&fp).is_some_and(|e| e.pinned)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            oversized: self.oversized,
            entries: self.entries.len(),
            pinned: self.entries.values().filter(|e| e.pinned).count(),
            bytes: self.bytes,
            capacity_bytes: self.capacity_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr::TlrMatrix;

    fn factor(n: usize) -> Arc<Factor> {
        let mut m = TlrMatrix::assemble(n, 4, None, |i, j| if i == j { 1.0 } else { 0.0 });
        tlr::potrf_tlr(&mut m, &task_runtime::WorkerPool::new(1)).unwrap();
        Arc::new(Factor::Tiled(m))
    }

    fn fp(k: u64) -> FactorFingerprint {
        FactorFingerprint(k)
    }

    #[test]
    fn hit_miss_and_recency_accounting() {
        let mut c = FactorCache::new(usize::MAX);
        assert!(c.get(fp(1)).is_none());
        assert!(c.insert(fp(1), factor(8)));
        assert!(c.get(fp(1)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        // `contains` probes count nothing.
        assert!(c.contains(fp(1)));
        assert!(!c.contains(fp(2)));
        let s2 = c.stats();
        assert_eq!((s2.hits, s2.misses), (s.hits, s.misses));
    }

    #[test]
    fn eviction_is_least_recently_used_in_bytes() {
        let one = factor(8);
        let bytes_each = one.stored_elements() * 8;
        // Room for exactly two factors.
        let mut c = FactorCache::new(2 * bytes_each);
        c.insert(fp(1), factor(8));
        c.insert(fp(2), factor(8));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(fp(1)).is_some());
        c.insert(fp(3), factor(8));
        assert!(c.get(fp(2)).is_none(), "LRU entry evicted");
        assert!(c.get(fp(1)).is_some());
        assert!(c.get(fp(3)).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 2 * bytes_each);
    }

    #[test]
    fn oversized_factor_bypasses_the_cache_and_evicts_nothing() {
        let small = factor(8);
        let bytes_small = small.stored_elements() * 8;
        let mut c = FactorCache::new(bytes_small);
        assert!(c.insert(fp(1), small));
        // A factor bigger than the whole capacity is not stored — the
        // resident working set survives and the bypass is counted.
        assert!(!c.insert(fp(2), factor(32)));
        assert!(!c.contains(fp(2)));
        assert!(c.get(fp(1)).is_some(), "resident entry must survive");
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.oversized, 1);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.bytes, bytes_small);
        // Pinning a bypassed fingerprint is a no-op.
        assert!(!c.pin(fp(2)));
        assert!(!c.is_pinned(fp(2)));
    }

    #[test]
    fn pinned_entries_survive_eviction_storms() {
        let bytes_each = factor(8).stored_elements() * 8;
        // Room for two factors: one pinned + one rotating slot.
        let mut c = FactorCache::new(2 * bytes_each);
        c.insert(fp(1), factor(8));
        assert!(c.pin(fp(1)));
        assert!(c.is_pinned(fp(1)));
        assert_eq!(c.stats().pinned, 1);
        // A storm of distinct fingerprints: the pinned entry is LRU the whole
        // time but never the victim.
        for k in 2..20 {
            c.insert(fp(k), factor(8));
            assert!(c.contains(fp(1)), "pinned entry evicted at k={k}");
        }
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.stats().evictions, 17);
        // Unpinned, it becomes the LRU victim again.
        assert!(c.unpin(fp(1)));
        c.insert(fp(100), factor(8));
        assert!(!c.contains(fp(1)), "unpinned LRU entry must be evictable");
    }

    #[test]
    fn pins_may_hold_the_cache_above_capacity_without_livelock() {
        let bytes_each = factor(8).stored_elements() * 8;
        let mut c = FactorCache::new(bytes_each);
        c.insert(fp(1), factor(8));
        c.pin(fp(1));
        // The pin occupies the whole capacity; a second insert has no victim
        // (the newcomer never self-evicts, the pin is never a victim), so the
        // cache temporarily overshoots instead of looping or dropping data.
        assert!(c.insert(fp(2), factor(8)));
        assert!(c.contains(fp(1)) && c.contains(fp(2)));
        let s = c.stats();
        assert_eq!(s.entries, 2);
        assert!(s.bytes > s.capacity_bytes);
        // The overshoot drains through normal LRU once something is evictable.
        c.insert(fp(3), factor(8));
        assert!(!c.contains(fp(2)), "unpinned overshoot entry is the victim");
        assert!(c.contains(fp(1)) && c.contains(fp(3)));
    }

    #[test]
    fn vecchia_factors_are_cached_and_accounted_through_the_same_path() {
        // Byte accounting goes through `Factor::stored_elements()`, so a
        // third backend needs no cache changes: a Vecchia factor's charge is
        // its sparse O(n·m) storage, and it evicts like any other entry.
        let engine = mvn_core::MvnEngine::builder().workers(1).build().unwrap();
        let vecchia = |n: usize, m: usize| {
            let order: Vec<usize> = (0..n).collect();
            let mut starts = vec![0usize];
            let mut neighbors = Vec::new();
            for k in 0..n {
                for c in k.saturating_sub(m)..k {
                    neighbors.push(c as u32);
                }
                starts.push(neighbors.len());
            }
            let plan = mvn_core::VecchiaPlan::new(order, starts, neighbors).unwrap();
            let f = engine
                .factor_vecchia(plan, |i, j| if i == j { 1.0 } else { 0.2 })
                .unwrap();
            Arc::new(f)
        };
        let v = vecchia(64, 4);
        let v_bytes = v.stored_elements() * 8;
        let dense_bytes = factor(64).stored_elements() * 8;
        assert!(
            v_bytes < dense_bytes / 4,
            "sparse charge {v_bytes} must undercut dense {dense_bytes}"
        );
        let mut c = FactorCache::new(2 * v_bytes);
        assert!(c.insert(fp(1), Arc::clone(&v)));
        assert!(c.insert(fp(2), vecchia(64, 4)));
        assert_eq!(c.stats().bytes, 2 * v_bytes);
        // Mixed-kind eviction: a dense factor bigger than one slot evicts
        // Vecchia entries by the same LRU rule.
        assert!(c.get(fp(2)).is_some());
        assert!(c.insert(fp(3), vecchia(64, 4)));
        assert!(!c.contains(fp(1)), "LRU vecchia entry evicted");
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.stats().bytes, 2 * v_bytes);
    }

    #[test]
    fn reinsert_after_eviction_keeps_pin_state_of_replaced_entry() {
        let mut c = FactorCache::new(usize::MAX);
        c.insert(fp(1), factor(8));
        c.pin(fp(1));
        // Replacing a resident pinned entry (rebuild race cannot happen on a
        // shard, but the API allows it) keeps the pin.
        c.insert(fp(1), factor(8));
        assert!(c.is_pinned(fp(1)));
        assert_eq!(c.stats().entries, 1);
    }
}
