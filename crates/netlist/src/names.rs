//! Name storage and the compact open-addressed name → dense-id index.
//!
//! [`Names`] holds every name of one id family (cells, ports, nets, library
//! cells, hierarchy paths) end to end in one string, so a name costs its
//! bytes plus a 4-byte end offset instead of a 24-byte `String` and its own
//! heap chunk.
//!
//! [`NameTable`] replaces the `HashMap<String, Id>` name indexes that used to
//! duplicate every cell/port/net name `String` inside [`crate::design::Design`]
//! and [`crate::design::DesignBuilder`].  It stores only a 64-bit FNV-1a hash
//! and a `u32` id per slot (two parallel arrays, 12 bytes per slot at ≤ 75%
//! load), and resolves lookups against the canonical name storage through a
//! caller-supplied verification closure — so the names themselves live exactly
//! once, in their [`Names`] store.  At a million cells this is the difference
//! between ~25 MB and >100 MB of index.

use crate::hash::Fnv1a;

/// The names of one id family, packed end to end: name `i` is the bytes
/// between the end of name `i - 1` and `ends[i]`.
///
/// Names are append-only; the total is capped at `u32::MAX` bytes, which
/// [`Names::push`] checks and [`Names::fits`] tells in advance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Names {
    text: String,
    ends: Vec<u32>,
}

impl Names {
    /// Number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the store holds no name.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Name `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: u32) -> &str {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The end offset of one more name of `len` bytes, if the store can
    /// hold it.
    fn end_after(&self, len: usize) -> Option<u32> {
        self.text.len().checked_add(len).and_then(|end| u32::try_from(end).ok())
    }

    /// Whether one more name of `len` bytes fits in the store.
    pub fn fits(&self, len: usize) -> bool {
        self.end_after(len).is_some()
    }

    /// Appends `name` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the store would exceed `u32::MAX` bytes (see
    /// [`Names::fits`]).
    pub fn push(&mut self, name: &str) -> u32 {
        let end = self
            .end_after(name.len())
            .unwrap_or_else(|| panic!("a name store holds at most {} bytes", u32::MAX));
        self.text.push_str(name);
        self.ends.push(end);
        (self.ends.len() - 1) as u32
    }

    /// The names in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.ends.len() as u32).map(|id| self.get(id))
    }

    /// Frees the spare capacity of both buffers.
    pub fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

impl crate::heap_size::HeapSize for Names {
    fn heap_bytes(&self) -> usize {
        self.text.heap_bytes() + self.ends.heap_bytes()
    }
}

const EMPTY: u32 = u32::MAX;

/// An open-addressed (linear-probe) hash → `u32` id table that never stores
/// the hashed keys.  Collisions on the full 64-bit hash are disambiguated by
/// the verification closure passed to [`NameTable::find`].
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    hashes: Vec<u64>,
    ids: Vec<u32>,
    len: usize,
}

impl NameTable {
    /// An empty table sized for `n` entries without growing.
    pub fn with_capacity(n: usize) -> Self {
        let slots = (n.max(4) * 2).next_power_of_two();
        Self { hashes: vec![0; slots], ids: vec![EMPTY; slots], len: 0 }
    }

    /// The FNV-1a hash every table entry is keyed by.
    #[inline]
    pub fn hash_name(name: &str) -> u64 {
        let mut h = Fnv1a::new();
        h.write_bytes(name.as_bytes());
        h.finish()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `id` under `hash`.  The caller is responsible for not inserting
    /// the same name twice (look it up first); duplicate *hashes* are fine and
    /// resolved at lookup time.
    pub fn insert(&mut self, hash: u64, id: u32) {
        debug_assert_ne!(id, EMPTY, "u32::MAX is the empty-slot sentinel");
        if self.hashes.is_empty() || (self.len + 1) * 4 > self.hashes.len() * 3 {
            self.grow();
        }
        let mask = self.hashes.len() - 1;
        let mut slot = (hash as usize) & mask;
        while self.ids[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.hashes[slot] = hash;
        self.ids[slot] = id;
        self.len += 1;
    }

    /// Finds the id stored under `hash` for which `verify` confirms the name
    /// match (compare against the canonical name storage).  Probe order is
    /// deterministic, so duplicate names resolve to a stable winner.
    pub fn find(&self, hash: u64, mut verify: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.hashes.is_empty() {
            return None;
        }
        let mask = self.hashes.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let id = self.ids[slot];
            if id == EMPTY {
                return None;
            }
            if self.hashes[slot] == hash && verify(id) {
                return Some(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Builds a table from an iterator of names in id order (id = position).
    pub fn build<'a>(names: impl ExactSizeIterator<Item = &'a str>) -> Self {
        let mut table = Self::with_capacity(names.len());
        for (id, name) in names.enumerate() {
            table.insert(Self::hash_name(name), id as u32);
        }
        table
    }

    fn grow(&mut self) {
        let slots = (self.hashes.len() * 2).max(8);
        let mask = slots - 1;
        let mut hashes = vec![0u64; slots];
        let mut ids = vec![EMPTY; slots];
        for (i, &id) in self.ids.iter().enumerate() {
            if id == EMPTY {
                continue;
            }
            let hash = self.hashes[i];
            let mut slot = (hash as usize) & mask;
            while ids[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            hashes[slot] = hash;
            ids[slot] = id;
        }
        self.hashes = hashes;
        self.ids = ids;
    }
}

impl crate::heap_size::HeapSize for NameTable {
    fn heap_bytes(&self) -> usize {
        self.hashes.heap_bytes() + self.ids.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_find_round_trip() {
        let names = ["u_a/ram", "u_b/ram", "clk", "rst_n"];
        let table = NameTable::build(names.iter().copied());
        assert_eq!(table.len(), 4);
        for (i, name) in names.iter().enumerate() {
            let found = table.find(NameTable::hash_name(name), |id| names[id as usize] == *name);
            assert_eq!(found, Some(i as u32), "{name}");
        }
        assert_eq!(table.find(NameTable::hash_name("missing"), |_| true), None);
    }

    #[test]
    fn verification_rejects_hash_collisions() {
        let mut table = NameTable::with_capacity(2);
        // two entries planted under the same hash: only verification can
        // tell them apart
        table.insert(42, 0);
        table.insert(42, 1);
        assert_eq!(table.find(42, |id| id == 1), Some(1));
        assert_eq!(table.find(42, |id| id == 0), Some(0));
        assert_eq!(table.find(42, |_| false), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut table = NameTable::default();
        let names: Vec<String> = (0..1000).map(|i| format!("cell_{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            table.insert(NameTable::hash_name(name), i as u32);
        }
        assert_eq!(table.len(), 1000);
        for (i, name) in names.iter().enumerate() {
            let found = table.find(NameTable::hash_name(name), |id| names[id as usize] == *name);
            assert_eq!(found, Some(i as u32));
        }
    }

    #[test]
    fn heap_bytes_counts_both_arrays() {
        use crate::heap_size::HeapSize;
        let table = NameTable::with_capacity(100);
        let slots = table.hashes.len();
        assert_eq!(table.heap_bytes(), slots * 8 + slots * 4);
    }

    #[test]
    fn names_pack_end_to_end() {
        use crate::heap_size::HeapSize;
        let mut names = Names::default();
        assert!(names.is_empty());
        for (i, name) in ["u_a/ram", "", "clk", "rst_n"].iter().enumerate() {
            assert_eq!(names.push(name), i as u32);
        }
        assert_eq!(names.len(), 4);
        assert_eq!(names.get(0), "u_a/ram");
        assert_eq!(names.get(1), "");
        assert_eq!(names.iter().collect::<Vec<_>>(), ["u_a/ram", "", "clk", "rst_n"]);
        names.shrink_to_fit();
        assert_eq!(names.heap_bytes(), "u_a/ramclkrst_n".len() + 4 * 4);
        // the store is capped at `u32::MAX` bytes in total
        let room = u32::MAX as usize - "u_a/ramclkrst_n".len();
        assert!(names.fits(room));
        assert!(!names.fits(room + 1));
        assert!(!names.fits(usize::MAX));
    }
}
