//! Heap-byte accounting from capacities.
//!
//! A structure's share of a process's resident set is what its
//! allocations reserve, not what they currently hold: a `Vec` pays for
//! its capacity, a hash table for every bucket plus its control bytes.
//! These helpers turn a capacity into those bytes, so byte breakdowns
//! (`OverlayNet::bytes_held`) can be computed without an allocator
//! hook. Allocator headers and freed-but-retained chunks are outside
//! their reach.

use std::collections::HashMap;

/// Bytes a `Vec`'s buffer reserves: capacity × element size.
#[must_use]
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Bytes a `HashMap`'s table reserves, reconstructed from its reported
/// capacity: a power-of-two bucket array (⅞ load factor, 4 buckets
/// minimum) of `(K, V)` entries, one control byte per bucket and a
/// 16-byte group tail. Tombstones can make the reported capacity read
/// low; rounding up to the bucket count absorbs most of that.
#[must_use]
pub fn table_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    let capacity = map.capacity();
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        (capacity + 1).next_power_of_two().max(4)
    } else {
        (capacity * 8 / 7).next_power_of_two()
    };
    let entries = (buckets * std::mem::size_of::<(K, V)>()).next_multiple_of(16);
    entries + buckets + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_bytes_follow_capacity_not_length() {
        let mut v: Vec<u64> = Vec::with_capacity(10);
        v.push(1);
        assert_eq!(vec_bytes(&v), 80);
        assert_eq!(vec_bytes(&Vec::<u32>::new()), 0);
    }

    #[test]
    fn table_bytes_match_the_bucket_array() {
        let empty: HashMap<u64, ()> = HashMap::new();
        assert_eq!(table_bytes(&empty), 0);
        // 3 items fit 4 buckets; 69 need 128 at the ⅞ load factor.
        let small: HashMap<u64, ()> = HashMap::with_capacity(3);
        assert_eq!(table_bytes(&small), 4 * 8 + 4 + 16);
        let sized: HashMap<u64, ()> = HashMap::with_capacity(69);
        assert_eq!(table_bytes(&sized), 128 * 8 + 128 + 16);
        let wide: HashMap<u64, u64> = HashMap::with_capacity(100);
        assert_eq!(table_bytes(&wide), 128 * 16 + 128 + 16);
    }
}
