//! Typed dense maps keyed by the contiguous design ids.
//!
//! Every id family of a [`crate::design::Design`] ([`CellId`], [`NetId`],
//! [`PortId`]) is a dense index `0..n`, so per-element data never needs a
//! hash map: a [`DenseMap`] is a `Vec<T>` with a typed key, giving O(1)
//! branch-free access in the hot loops of placement, wirelength and
//! legalization while keeping the call sites as readable as `map[cell]`.
//!
//! # Example
//!
//! ```
//! use netlist::dense::DenseMap;
//! use netlist::design::CellId;
//!
//! let mut areas: DenseMap<CellId, i64> = DenseMap::with_len(3);
//! areas[CellId(1)] = 42;
//! assert_eq!(areas[CellId(1)], 42);
//! assert_eq!(areas.iter().count(), 3);
//! ```

use crate::design::{CellId, NetId, PortId};
use crate::hierarchy::HierarchyNodeId;
use std::marker::PhantomData;

/// A key type that is a dense index: convertible to and from `usize`.
///
/// Implemented by the design id families ([`CellId`], [`NetId`], [`PortId`])
/// and by [`HierarchyNodeId`]; downstream crates may implement it for their
/// own contiguous ids (the sequential-graph node id, for instance).
pub trait DenseId: Copy {
    /// The dense index of the id.
    fn index(self) -> usize;
    /// Builds the id back from a dense index.
    fn from_index(index: usize) -> Self;
}

macro_rules! impl_dense_id {
    ($($ty:ty),*) => {$(
        impl DenseId for $ty {
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
            #[inline]
            fn from_index(index: usize) -> Self {
                Self(index as u32)
            }
        }
    )*};
}

impl_dense_id!(CellId, NetId, PortId, HierarchyNodeId);

/// A dense, typed map from an id family to values: `Vec<T>` storage with a
/// strongly-typed key, the workhorse container of the dense data plane.
///
/// Unlike a `HashMap`, every key in `0..len` has a slot; use `Option<T>`
/// values for partial maps (e.g. "only macros carry a footprint").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseMap<I, T> {
    data: Vec<T>,
    _key: PhantomData<fn(I)>,
}

impl<I, T> Default for DenseMap<I, T> {
    fn default() -> Self {
        Self { data: Vec::new(), _key: PhantomData }
    }
}

impl<I: DenseId, T> DenseMap<I, T> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// A map of `len` default-initialized slots.
    pub fn with_len(len: usize) -> Self
    where
        T: Default + Clone,
    {
        Self { data: vec![T::default(); len], _key: PhantomData }
    }

    /// A map of `len` copies of `value`.
    pub fn filled(len: usize, value: T) -> Self
    where
        T: Clone,
    {
        Self { data: vec![value; len], _key: PhantomData }
    }

    /// Builds a map by evaluating `f` for every index in `0..len`.
    pub fn from_fn(len: usize, mut f: impl FnMut(I) -> T) -> Self {
        Self { data: (0..len).map(|i| f(I::from_index(i))).collect(), _key: PhantomData }
    }

    /// Wraps an existing vector (index `i` becomes key `I::from_index(i)`).
    pub fn from_vec(data: Vec<T>) -> Self {
        Self { data, _key: PhantomData }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the map has no slots.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The value for `key`, or `None` when the key is out of range.
    #[inline]
    pub fn get(&self, key: I) -> Option<&T> {
        self.data.get(key.index())
    }

    /// Mutable access to the value for `key` (out-of-range keys give `None`).
    #[inline]
    pub fn get_mut(&mut self, key: I) -> Option<&mut T> {
        self.data.get_mut(key.index())
    }

    /// Sets the value for `key`, growing the map with defaults as needed.
    pub fn insert(&mut self, key: I, value: T)
    where
        T: Default + Clone,
    {
        let i = key.index();
        if i >= self.data.len() {
            self.data.resize(i + 1, T::default());
        }
        self.data[i] = value;
    }

    /// Iterates over `(key, &value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> + '_ {
        self.data.iter().enumerate().map(|(i, v)| (I::from_index(i), v))
    }

    /// Iterates over `(key, &mut value)` pairs in key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (I, &mut T)> + '_ {
        self.data.iter_mut().enumerate().map(|(i, v)| (I::from_index(i), v))
    }

    /// Iterates over the values in key order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.data.iter()
    }

    /// The raw value slice (index `i` is key `I::from_index(i)`).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<I: DenseId, T> std::ops::Index<I> for DenseMap<I, T> {
    type Output = T;

    #[inline]
    fn index(&self, key: I) -> &T {
        &self.data[key.index()]
    }
}

impl<I: DenseId, T> std::ops::IndexMut<I> for DenseMap<I, T> {
    #[inline]
    fn index_mut(&mut self, key: I) -> &mut T {
        &mut self.data[key.index()]
    }
}

impl<I: DenseId, T> FromIterator<T> for DenseMap<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

impl<I, T: crate::heap_size::HeapSize> crate::heap_size::HeapSize for DenseMap<I, T> {
    fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_len_and_index() {
        let mut m: DenseMap<CellId, u64> = DenseMap::with_len(4);
        assert_eq!(m.len(), 4);
        m[CellId(2)] = 9;
        assert_eq!(m[CellId(2)], 9);
        assert_eq!(m.get(CellId(7)), None);
    }

    #[test]
    fn insert_grows_with_defaults() {
        let mut m: DenseMap<NetId, Option<i32>> = DenseMap::new();
        m.insert(NetId(3), Some(5));
        assert_eq!(m.len(), 4);
        assert_eq!(m[NetId(0)], None);
        assert_eq!(m[NetId(3)], Some(5));
    }

    #[test]
    fn iteration_is_in_key_order() {
        let m: DenseMap<PortId, usize> = DenseMap::from_fn(3, |p: PortId| p.index() * 10);
        let pairs: Vec<(PortId, usize)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(pairs, vec![(PortId(0), 0), (PortId(1), 10), (PortId(2), 20)]);
    }

    #[test]
    fn hierarchy_node_ids_are_dense_keys() {
        let mut m: DenseMap<HierarchyNodeId, usize> = DenseMap::with_len(2);
        m[HierarchyNodeId(1)] = 7;
        assert_eq!(m[HierarchyNodeId(1)], 7);
        assert_eq!(HierarchyNodeId::from_index(3), HierarchyNodeId(3));
        assert_eq!(HierarchyNodeId(3).index(), 3);
    }

    #[test]
    fn from_vec_round_trips() {
        let m: DenseMap<CellId, char> = DenseMap::from_vec(vec!['a', 'b']);
        assert_eq!(m.as_slice(), &['a', 'b']);
        assert_eq!(m[CellId(1)], 'b');
    }
}
