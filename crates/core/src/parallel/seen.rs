//! The concurrent seen-set of the parallel engine: canonical solution keys
//! spread over 64 independently locked hash sets.
//!
//! A key's shard is chosen by its FNV-1a hash, so concurrent inserts of
//! different keys rarely meet on one lock. Each insert runs under its
//! shard's lock, so exactly one of any number of concurrent inserts of the
//! same key wins — which is what makes the engine's solution set exact.

use std::collections::HashSet;

use crate::sync::{plock, Mutex};

/// Number of independently locked shards.
const SHARDS: usize = 64;

/// Insert-only concurrent set of canonical solution keys.
pub struct ConcurrentSeenSet {
    shards: Vec<Mutex<HashSet<Vec<u32>>>>,
}

impl ConcurrentSeenSet {
    /// Creates a set pre-sized for roughly `expected` keys (shards still
    /// grow past that as needed).
    pub fn new(expected: usize) -> Self {
        let per_shard = expected.div_ceil(SHARDS);
        ConcurrentSeenSet {
            shards: (0..SHARDS).map(|_| Mutex::new(HashSet::with_capacity(per_shard))).collect(),
        }
    }

    /// Inserts `key`; returns `true` iff this call added it (exactly one of
    /// any number of concurrent inserts of the same key returns `true`).
    pub fn insert(&self, key: Vec<u32>) -> bool {
        let shard = fnv1a(&key) as usize % SHARDS;
        plock(&self.shards[shard]).insert(key)
    }

    /// Number of distinct keys inserted so far. Takes every shard's lock in
    /// turn, so keys racing with the call may or may not be counted.
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|shard| plock(shard).len() as u64).sum()
    }

    /// `true` when nothing has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// FNV-1a over a slice of `u32` keys (shard selector — speed over quality).
fn fnv1a(key: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in key {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_first_only() {
        let set = ConcurrentSeenSet::new(0);
        assert!(set.is_empty());
        assert!(set.insert(vec![1, 2, 3]));
        assert!(!set.insert(vec![1, 2, 3]));
        assert!(set.insert(vec![1, 2]));
        assert!(set.insert(vec![]));
        assert!(!set.insert(vec![]));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn concurrent_inserts_claim_each_key_once() {
        // 8 threads hammer the same key range; every shard sees contention.
        let set = ConcurrentSeenSet::new(0);
        let threads = 8;
        let keys = 2_000u32;
        let claimed: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let set = &set;
                    scope.spawn(move || {
                        let mut wins = 0u64;
                        for i in 0..keys {
                            if set.insert(vec![i]) {
                                wins += 1;
                            }
                        }
                        wins
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(claimed, keys as u64, "every key claimed exactly once");
        assert_eq!(set.len(), keys as u64);
    }
}
