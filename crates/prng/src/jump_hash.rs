//! Jump consistent hash (Lamping & Veach, 2014): a key-seeded LCG walk
//! that maps a 64-bit key to one of `n` buckets with zero state beyond
//! `n`. Two layers use this one function: the cluster router
//! (`scaddar_net::jump_hash`, object id → shard) and the E11 placement
//! comparator (`scaddar_baselines::JumpHashStrategy`, block → disk).

/// Lamping & Veach's algorithm, verbatim (the constant and the
/// `(b + 1) * (2^31 / ((key >> 33) + 1))` step are theirs): maps `key`
/// to a bucket in `0..buckets`, and growing from `n` to `n+1` buckets
/// re-routes only an expected `1/(n+1)` of keys, all into the new
/// bucket. O(ln n) expected time, zero state.
///
/// Panics on `buckets == 0` (an empty bucket set routes nothing).
pub fn jump_consistent_hash(mut key: u64, buckets: u32) -> u32 {
    assert!(buckets > 0, "jump hash over zero buckets");
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        j = ((b + 1) as f64 * ((1i64 << 31) as f64 / ((key >> 33) + 1) as f64)) as i64;
    }
    b as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_properties_of_jump() {
        // Stability: same key, same bucket count -> same bucket.
        assert_eq!(
            jump_consistent_hash(12345, 10),
            jump_consistent_hash(12345, 10)
        );
        // Monotone containment: growing buckets never moves a key
        // backwards between old buckets.
        for key in 0..2000u64 {
            let at5 = jump_consistent_hash(key, 5);
            let at6 = jump_consistent_hash(key, 6);
            assert!(at6 == at5 || at6 == 5, "key {key}: {at5} -> {at6}");
        }
        // Single bucket.
        assert_eq!(jump_consistent_hash(987, 1), 0);
    }

    #[test]
    fn jump_hash_matches_reference_properties() {
        // Monotone bucket growth: a key's bucket under n+1 buckets is
        // either unchanged or exactly n (the new bucket).
        for key in 0..10_000u64 {
            for n in 1..20u32 {
                let before = jump_consistent_hash(key, n);
                let after = jump_consistent_hash(key, n + 1);
                assert!(
                    after == before || after == n,
                    "key {key}: {before} -> {after} under {n}->{} buckets",
                    n + 1
                );
            }
        }
    }

    #[test]
    fn jump_hash_is_roughly_uniform() {
        const KEYS: u64 = 60_000;
        const BUCKETS: u32 = 6;
        let mut counts = [0u64; BUCKETS as usize];
        for key in 0..KEYS {
            counts[jump_consistent_hash(key, BUCKETS) as usize] += 1;
        }
        let expect = KEYS as f64 / BUCKETS as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {b}: {c} vs {expect} ({dev:.3})");
        }
    }

    /// Outputs over a fixed key × bucket-count grid, recorded from the
    /// implementation the router and E11 used before it moved here: any
    /// change to a value re-routes objects between shards.
    #[test]
    fn golden_vectors() {
        const KEYS: [u64; 8] = [
            0,
            1,
            42,
            0xDEAD_BEEF,
            0x9E37_79B9_7F4A_7C15,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        const BUCKETS: [u32; 8] = [1, 2, 3, 7, 16, 100, 65_536, u32::MAX];
        const GOLDEN: [[u32; 8]; 8] = [
            [0, 0, 0, 0, 0, 0, 0, 2_147_483_648],
            [0, 0, 0, 6, 6, 55, 21_134, 3_094_789_146],
            [0, 1, 2, 2, 2, 43, 5_747, 1_603_940_301],
            [0, 1, 2, 5, 5, 87, 64_244, 1_452_406_526],
            [0, 1, 1, 3, 3, 71, 56_183, 1_680_513_372],
            [0, 1, 1, 5, 12, 84, 53_854, 1_119_800_965],
            [0, 1, 1, 3, 10, 35, 10_537, 1_696_996_329],
            [0, 1, 2, 2, 10, 92, 18_311, 2_680_453_518],
        ];
        for (key, row) in KEYS.iter().zip(&GOLDEN) {
            for (&buckets, &want) in BUCKETS.iter().zip(row) {
                assert_eq!(
                    jump_consistent_hash(*key, buckets),
                    want,
                    "key {key:#x}, {buckets} buckets"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero buckets")]
    fn zero_buckets_panics() {
        jump_consistent_hash(1, 0);
    }
}
