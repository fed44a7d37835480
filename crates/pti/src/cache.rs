//! The PTI verdict cache, one type for both of the paper's caches: the
//! query cache (§IV-C2, keyed by the exact query) and the query structure
//! cache (§IV-C1, §VI-A, keyed by the query's structural fingerprint).
//!
//! Both remember one thing, "this was analyzed safe", and a hit skips PTI.
//! Two properties keep that from becoming a bypass or a memory leak:
//!
//! * **Secret-keyed digests.** Each cache hashes its keys with SipHash-1-3
//!   under its own [`RandomState`] key, and structural fingerprints are
//!   themselves keyed per process. An attacker cannot search offline for an
//!   attack whose digest equals a benign query's; online, each probe is a
//!   blocked attack, and a forged hit needs about 2^64 / [`CAPACITY`] of
//!   them. Storing the query bytes to confirm each hit would also close
//!   the gap, but the exact-query working set holds megabytes of text
//!   (EXPERIMENTS.md), while a digest is 8 bytes.
//! * **Constant capacity.** A set-associative table of [`CAPACITY`]
//!   digests, allocated once. A full bucket evicts round-robin, and every
//!   eviction is counted. An eviction only costs a repeat analysis, never
//!   a different verdict: only safe verdicts are cached.
//!
//! Lookups and inserts take `&self` and no lock, so the engine shares one
//! query cache across all its workers.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Entries a [`VerdictCache`] holds: at least four times the largest
/// working set measured on the benchmark (3,395 exact queries, 163 shapes).
pub const CAPACITY: usize = 16_384;
/// Digests per bucket (two 64-byte cache lines). At the measured working
/// set the odds that any bucket overflows are below 1e-4 per run, so a
/// steady workload evicts nothing.
const WAYS: usize = 16;
const BUCKETS: usize = CAPACITY / WAYS;
/// The digest of an empty slot.
const EMPTY: u64 = 0;

/// Lookup and insert counters of a [`VerdictCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
}

#[derive(Debug, Default)]
#[repr(align(128))]
struct Bucket([AtomicU64; WAYS]);

/// A bounded, thread-safe set of keys whose queries were analyzed safe.
///
/// Every atomic is `Relaxed`: a slot's digest is the whole entry and
/// publishes no other data, and the counters are statistics.
#[derive(Debug)]
pub struct VerdictCache {
    keys: RandomState,
    buckets: Box<[Bucket]>,
    /// Per-bucket round-robin victim.
    next_victim: Box<[AtomicU8]>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl Default for VerdictCache {
    fn default() -> Self {
        Self::new()
    }
}

impl VerdictCache {
    /// Creates an empty cache with a fresh secret key.
    pub fn new() -> Self {
        VerdictCache {
            keys: RandomState::new(),
            buckets: (0..BUCKETS).map(|_| Bucket::default()).collect(),
            next_victim: (0..BUCKETS).map(|_| AtomicU8::new(0)).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The keyed digest `key` is stored under (never [`EMPTY`]).
    fn digest<K: Hash + ?Sized>(&self, key: &K) -> u64 {
        self.keys.hash_one(key).max(EMPTY + 1)
    }

    fn bucket(&self, digest: u64) -> usize {
        (digest >> 32) as usize % BUCKETS
    }

    /// Whether `key` was recorded safe (and not evicted since).
    pub fn lookup<K: Hash + ?Sized>(&self, key: &K) -> bool {
        let d = self.digest(key);
        let hit = self.buckets[self.bucket(d)].0.iter().any(|s| s.load(Ordering::Relaxed) == d);
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Records `key` as safe, evicting the bucket's round-robin victim
    /// when the bucket is full.
    pub fn insert_safe<K: Hash + ?Sized>(&self, key: &K) {
        let d = self.digest(key);
        let b = self.bucket(d);
        let slots = &self.buckets[b].0;
        // Slots are never cleared, so the occupied ones are a prefix and
        // one pass both finds `d` and claims the first empty slot.
        let mut claimed = false;
        for s in slots {
            match s.compare_exchange(EMPTY, d, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    claimed = true;
                    break;
                }
                Err(held) if held == d => return,
                Err(_) => {}
            }
        }
        if !claimed {
            let way = self.next_victim[b].fetch_add(1, Ordering::Relaxed) as usize % WAYS;
            slots[way].store(d, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of cached keys; never more than [`CAPACITY`].
    pub fn len(&self) -> usize {
        self.buckets
            .iter()
            .flat_map(|b| &b.0)
            .filter(|s| s.load(Ordering::Relaxed) != EMPTY)
            .count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup and insert counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }

    /// Entries evicted to make room for newer ones.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joza_sqlparse::fingerprint::fingerprint;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;

    #[test]
    fn exact_match_only() {
        let c = VerdictCache::new();
        assert!(!c.lookup("SELECT 1"));
        c.insert_safe("SELECT 1");
        c.insert_safe("SELECT 1");
        assert!(c.lookup("SELECT 1"));
        assert!(!c.lookup("SELECT 2"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn fingerprint_keys_match_same_shape() {
        let c = VerdictCache::new();
        c.insert_safe(&fingerprint("INSERT INTO comments (body) VALUES ('first comment')"));
        c.insert_safe(&fingerprint("SELECT * FROM t WHERE id=5"));
        // Different literal contents, same shape: hit.
        for same in [
            "INSERT INTO comments (body) VALUES ('a totally different comment')",
            "SELECT * FROM t WHERE id=123456",
        ] {
            assert!(c.lookup(&fingerprint(same)), "{same}");
        }
        // Injected structure: miss.
        for attack in [
            "INSERT INTO comments (body) VALUES ('x'), ((SELECT user_pass FROM users))",
            "SELECT * FROM t WHERE id=5 OR 1=1",
            "SELECT * FROM t WHERE id=5 -- c",
        ] {
            assert!(!c.lookup(&fingerprint(attack)), "{attack}");
        }
    }

    #[test]
    fn visible_across_threads() {
        let c = std::sync::Arc::new(VerdictCache::new());
        let writer = std::sync::Arc::clone(&c);
        std::thread::spawn(move || writer.insert_safe("warm")).join().expect("writer panicked");
        assert!(c.lookup("warm"), "insert from another thread must be visible");
    }

    #[test]
    fn digests_are_secret_keyed() {
        let q = "SELECT * FROM t WHERE id=5";
        let mut public = DefaultHasher::new();
        q.hash(&mut public);
        let (a, b) = (VerdictCache::new(), VerdictCache::new());
        assert_ne!(a.digest(q), public.finish(), "digest must not use the public key");
        assert_ne!(a.digest(q), b.digest(q), "each cache draws its own key");
    }

    #[test]
    fn stays_within_capacity_and_counts_evictions() {
        let c = VerdictCache::new();
        let n = 10 * CAPACITY as u64;
        for i in 0..n {
            c.insert_safe(&i);
            if i % 4096 == 0 {
                assert!(c.len() <= CAPACITY);
            }
        }
        let s = c.stats();
        assert_eq!(s.inserts, n);
        assert!(c.len() <= CAPACITY);
        assert_eq!(c.evictions(), n - c.len() as u64, "every overflow is an eviction");
        // The newest entry of every bucket survives.
        assert!(c.lookup(&(n - 1)));
    }
}
