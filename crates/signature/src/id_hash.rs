//! The hasher behind every map and set keyed by ids this process hands out.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher (the FxHash recurrence).
///
/// **The rule:** every runtime map and set keyed by ids this process hands
/// out — thread and lock ids, frame and stack ids, condensation
/// components, context-tree nodes, addresses of its own statics, and
/// slices or tuples of those — hashes with this. No outsider chooses such
/// a key, so SipHash's resistance to crafted collisions protects nothing,
/// and it was most of the cost of a look-up. A map whose keys come from
/// outside the process keeps SipHash: [`crate::FrameTable`]'s function and
/// file strings are read from history files.
///
/// It has no per-instance seed, so two maps fed the same operations iterate
/// in the same order, in every process.
#[derive(Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for IdHasher {
    /// Not on any key path (ids hash as `u32`s, `u64`s and lengths); here
    /// so that any other key type still hashes all of its bytes.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; the table takes
    /// its bucket index from the bottom.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by ids this process hands out (see [`IdHasher`]).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids this process hands out (see [`IdHasher`]).
pub type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(id: u64) -> u64 {
        let mut h = IdHasher::default();
        h.write_u64(id);
        h.finish()
    }

    /// The table indexes by the low bits of the hash: dense ids must spread
    /// over them, and so must ids that differ only in their high bits (the
    /// multiply alone carries no input bit downward, so without the
    /// rotation in `finish` page-aligned addresses would all share bucket 0).
    #[test]
    fn ids_spread_over_low_bits() {
        for shift in [0, 12] {
            let mut buckets = vec![0u32; 1 << 12];
            for id in 0..4096u64 {
                buckets[(hash_of(id << shift) & 0xfff) as usize] += 1;
            }
            let worst = buckets.iter().copied().max().unwrap();
            assert!(
                worst <= 4,
                "{worst} of 4096 ids << {shift} share one bucket"
            );
        }
    }

    /// The table tags each slot with the top seven bits of the hash and
    /// compares tags before keys: dense ids must use every tag.
    #[test]
    fn dense_ids_use_every_top_bit_tag() {
        let mut tags = [false; 128];
        for id in 0..4096 {
            tags[(hash_of(id) >> 57) as usize] = true;
        }
        let missing = tags.iter().filter(|&&seen| !seen).count();
        assert_eq!(missing, 0, "{missing} of 128 tags never appear");
    }
}
