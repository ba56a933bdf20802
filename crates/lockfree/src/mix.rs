//! Shared 64-bit hash finalizer for slot selection.
//!
//! Anything that masks a dense integer id down to a power-of-two index
//! (today the avoidance engine's tail-filter digests) needs a cheap mixer
//! whose low bits are well dispersed. Every such site goes through this one
//! function so a future change to the mixing cannot be applied to one and
//! silently miss another.

/// SplitMix64's finalizer: a cheap bijective mixer with good low-bit
/// avalanche, suitable for masking down to a power-of-two shard index.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_dispersive() {
        assert_eq!(mix64(42), mix64(42));
        // Sequential inputs must spread across the masked shard range
        // roughly like uniform draws (64 balls into 64 bins ⇒ ~40 distinct
        // in expectation); catastrophic clumping means a broken mixer.
        let mut low = std::collections::HashSet::new();
        for i in 0..64_u64 {
            low.insert(mix64(i) & 63);
        }
        assert!(low.len() >= 32, "low bits too clumpy: {}", low.len());
    }

    #[test]
    fn zero_is_not_a_fixed_point_for_typical_ids() {
        assert_ne!(mix64(1), 1);
        assert_ne!(mix64(u64::MAX), u64::MAX);
    }
}
