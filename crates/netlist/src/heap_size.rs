//! Resident-byte accounting for design-derived structures.
//!
//! A long-lived placement service holds many designs and many derived
//! artifacts (netlist graphs, sequential graphs). Bounding that
//! memory by *entry count* is meaningless when one design is a hundred times
//! the size of another, so every cached structure reports its resident bytes
//! through [`HeapSize`] and the caches budget in bytes instead.
//!
//! The numbers are *accounting* sizes, not allocator ground truth: a
//! container reports `capacity × size_of::<element>()` for its buffer plus
//! the heap bytes owned by each element, and hash maps are estimated from
//! their capacity. That is exact for the flat arrays dominating this
//! workspace (CSR offsets, dense maps, adjacency lists) and close enough for
//! the string-keyed indexes, while staying allocator-independent and fully
//! deterministic.
//!
//! # Example
//!
//! ```
//! use netlist::HeapSize;
//!
//! let v: Vec<u32> = Vec::with_capacity(8);
//! assert_eq!(v.heap_bytes(), 8 * 4);
//! assert_eq!(v.resident_bytes(), std::mem::size_of::<Vec<u32>>() + 32);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::mem::size_of;
use std::sync::Arc;

/// Types that can report the heap memory they own.
///
/// Implementors return the bytes of every owned heap allocation, recursively,
/// *excluding* the inline `size_of::<Self>()` bytes (so that a containing
/// `Vec<T>` does not double-count its elements' inline parts, which already
/// live in the vector's buffer).
pub trait HeapSize {
    /// Owned heap bytes, excluding `size_of::<Self>()`.
    fn heap_bytes(&self) -> usize;

    /// Total resident bytes: the value itself plus everything it owns.
    fn resident_bytes(&self) -> usize
    where
        Self: Sized,
    {
        size_of::<Self>() + self.heap_bytes()
    }
}

/// Plain-old-data types own no heap memory.
macro_rules! impl_heap_size_pod {
    ($($ty:ty),*) => {$(
        impl HeapSize for $ty {
            #[inline]
            fn heap_bytes(&self) -> usize {
                0
            }
        }
    )*};
}

impl_heap_size_pod!(u8, u16, u32, u64, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char);

// The id families, cells, ports, pin references and geometry primitives are
// plain words.
impl_heap_size_pod!(
    crate::design::CellId,
    crate::design::NetId,
    crate::design::PortId,
    crate::design::LibCellId,
    crate::design::HierPathId,
    crate::design::Cell,
    crate::design::Port,
    crate::design::CellKind,
    crate::design::PortDirection,
    crate::connectivity::PinRef,
    crate::hierarchy::HierarchyNodeId,
    crate::placement::PlacedMacro,
    geometry::Point,
    geometry::Rect,
    geometry::Orientation
);

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>() + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

impl<T: HeapSize> HeapSize for Box<T> {
    fn heap_bytes(&self) -> usize {
        size_of::<T>() + self.as_ref().heap_bytes()
    }
}

/// An `Arc` reports the full size of its pointee: shared artifacts are
/// accounted once per cache entry, which is what a budget needs to bound the
/// worst case (every entry's last reference is the cache's).
impl<T: HeapSize> HeapSize for Arc<T> {
    fn heap_bytes(&self) -> usize {
        size_of::<T>() + self.as_ref().heap_bytes()
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

/// Estimated from the length: one `(K, V)` slot per entry plus two words
/// of amortized node overhead (B-tree nodes hold ~11 entries and keep
/// edge pointers), plus per-entry owned heap. Iteration is in key order,
/// so the accounting itself is deterministic.
impl<K: HeapSize, V: HeapSize> HeapSize for BTreeMap<K, V> {
    fn heap_bytes(&self) -> usize {
        self.len() * (size_of::<K>() + size_of::<V>() + 2 * size_of::<usize>())
            + self.iter().map(|(k, v)| k.heap_bytes() + v.heap_bytes()).sum::<usize>()
    }
}

/// Estimated from the capacity: `(K, V)` slots plus one control byte per
/// slot (the shape of a swiss-table layout), plus per-entry owned heap.
impl<K: HeapSize, V: HeapSize, S> HeapSize for HashMap<K, V, S> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * (size_of::<K>() + size_of::<V>() + 1)
            // lint:allow(hash-iter): summing per-entry heap bytes is order-independent
            + self.iter().map(|(k, v)| k.heap_bytes() + v.heap_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pods_own_nothing() {
        assert_eq!(42u32.heap_bytes(), 0);
        assert_eq!(42u32.resident_bytes(), 4);
        assert_eq!(1.5f64.resident_bytes(), 8);
    }

    #[test]
    fn strings_report_capacity() {
        let s = String::with_capacity(100);
        assert_eq!(s.heap_bytes(), 100);
    }

    #[test]
    fn vectors_recurse_into_elements() {
        let v = vec![String::from("abcd"), String::from("efgh")];
        let expected = v.capacity() * size_of::<String>() + v[0].capacity() + v[1].capacity();
        assert_eq!(v.heap_bytes(), expected);
        // nested vectors count both buffers
        let vv: Vec<Vec<u64>> = vec![Vec::with_capacity(4)];
        assert_eq!(vv.heap_bytes(), vv.capacity() * size_of::<Vec<u64>>() + 4 * 8);
    }

    #[test]
    fn option_and_arc() {
        assert_eq!(None::<String>.heap_bytes(), 0);
        assert_eq!(Some(String::with_capacity(7)).heap_bytes(), 7);
        let a = Arc::new(vec![1u32, 2, 3]);
        assert_eq!(a.heap_bytes(), size_of::<Vec<u32>>() + a.capacity() * 4);
    }

    #[test]
    fn hashmap_scales_with_capacity() {
        let mut m: HashMap<u32, u64> = HashMap::new();
        assert_eq!(m.heap_bytes(), 0);
        m.insert(1, 2);
        assert!(m.heap_bytes() > size_of::<u32>() + size_of::<u64>());
    }
}
