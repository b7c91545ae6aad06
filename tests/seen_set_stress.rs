//! Concurrency battery for the parallel engine's sharded seen-set:
//! exactly-one winner per key under thread storms, no lost inserts while
//! the shard tables resize, and permutation-invariance of the final
//! contents.

use mbpe::kbiplex::ConcurrentSeenSet;
use proptest::prelude::*;

/// Distinct key for index `i` (multi-word, so lookups compare vectors).
fn key(i: u32) -> Vec<u32> {
    vec![i, i.wrapping_mul(0x9e37_79b9), !i]
}

/// Deterministic per-thread permutation of `0..n` (xorshift-seeded
/// Fisher–Yates), so every thread inserts the same keys in a different
/// interleaving.
fn permutation(n: u32, mut seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n).collect();
    for i in (1..order.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        order.swap(i, (seed as usize) % (i + 1));
    }
    order
}

#[test]
fn thread_storm_claims_every_key_exactly_once() {
    let threads = 8;
    let keys = 4_000u32;
    let set = ConcurrentSeenSet::new(0);
    let claimed: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let set = &set;
                scope.spawn(move || {
                    let mut wins = 0u64;
                    for &i in &permutation(keys, 0xc0ff_ee00 + t as u64) {
                        if set.insert(key(i)) {
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
    assert_eq!(set.len(), keys as u64, "len counts distinct keys");
    for i in 0..keys {
        assert!(!set.insert(key(i)), "key {i} lost");
    }
    assert_eq!(set.len(), keys as u64, "re-inserts add nothing");
}

#[test]
fn len_is_stable_across_the_growth_threshold() {
    // Single-threaded determinism: len must tick up exactly on wins and
    // re-inserting everything must change nothing. Starting unsized, the
    // shard tables resize several times along the way.
    let set = ConcurrentSeenSet::new(0);
    assert!(set.is_empty());
    for i in 0..3_000u32 {
        assert!(set.insert(key(i)), "first insert of {i} wins");
        assert!(!set.insert(key(i)), "immediate duplicate of {i} loses");
        assert_eq!(set.len(), (i + 1) as u64, "len ticks exactly on wins");
    }
    for &i in &permutation(3_000, 7) {
        assert!(!set.insert(key(i)), "key {i} survives every resize");
    }
    assert_eq!(set.len(), 3_000);
}

#[test]
fn concurrent_duplicates_of_one_hot_key_have_one_winner() {
    // All threads fight over the same tiny key set while a filler range
    // keeps every shard busy and resizing underneath.
    let threads = 8;
    let set = ConcurrentSeenSet::new(0);
    let winners: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let set = &set;
                scope.spawn(move || {
                    let mut wins = 0u64;
                    for round in 0..500u32 {
                        if set.insert(vec![round % 50]) {
                            wins += 1;
                        }
                        // Filler keys distinct per thread.
                        set.insert(key(10_000 + t * 1_000 + round));
                    }
                    wins
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(winners, 50, "one winner per hot key");
    assert_eq!(set.len(), 50 + threads as u64 * 500);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleaved insert sequences are permutation-invariant: the same
    /// multiset of keys produces the same final key set, the same count
    /// and one win per distinct key, regardless of insertion order or the
    /// initial sizing.
    #[test]
    fn contents_are_permutation_invariant(
        raw in proptest::collection::vec((0u32..400, 0u32..4), 1..250),
        seed in any::<u64>(),
        expected_keys in 0usize..300,
    ) {
        let keys: Vec<Vec<u32>> = raw.iter().map(|&(a, b)| vec![a, b]).collect();
        let order = permutation(keys.len() as u32, seed);
        let shuffled: Vec<Vec<u32>> = order.iter().map(|&i| keys[i as usize].clone()).collect();

        let forward = ConcurrentSeenSet::new(0);
        let permuted = ConcurrentSeenSet::new(expected_keys);
        let mut forward_wins = 0u64;
        for k in &keys {
            if forward.insert(k.clone()) {
                forward_wins += 1;
            }
        }
        let mut permuted_wins = 0u64;
        for k in &shuffled {
            if permuted.insert(k.clone()) {
                permuted_wins += 1;
            }
        }

        let mut expected: Vec<Vec<u32>> = keys.clone();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(forward_wins, expected.len() as u64);
        prop_assert_eq!(permuted_wins, expected.len() as u64);
        prop_assert_eq!(forward.len(), expected.len() as u64);
        prop_assert_eq!(permuted.len(), expected.len() as u64);
        // Both sets hold exactly the distinct keys: every one of them is
        // already present, and the counts above rule out extras.
        for k in &expected {
            prop_assert!(!forward.insert(k.clone()));
            prop_assert!(!permuted.insert(k.clone()));
        }
    }
}
