//! `Maff`: the flat, row-major dataflow affinity matrix.
//!
//! The affinity matrix is the interface between dataflow inference and layout
//! generation: entry `(i, j)` is the symmetric blended flow score between
//! dataflow nodes `i` and `j`.  It used to be a `Vec<Vec<f64>>`; the nested
//! representation cost one heap allocation per row and a double indirection
//! per lookup inside the annealer's cost loop.  [`AffinityMatrix`] stores the
//! same `n × n` values in one contiguous buffer.
//!
//! # Example
//!
//! ```
//! use graphs::AffinityMatrix;
//!
//! let mut m = AffinityMatrix::zeros(3);
//! m.set(0, 2, 5.0);
//! assert_eq!(m.get(0, 2), 5.0);
//! assert_eq!(m.row(0), &[0.0, 0.0, 5.0]);
//! ```

use netlist::HeapSize;

/// A dense `n × n` affinity matrix in one flat row-major buffer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AffinityMatrix {
    n: usize,
    data: Vec<f64>,
}

impl AffinityMatrix {
    /// An `n × n` matrix of zeros.
    pub fn zeros(n: usize) -> Self {
        Self { n, data: vec![0.0; n * n] }
    }

    /// Builds a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not form a square matrix.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let n = rows.len();
        let mut data = Vec::with_capacity(n * n);
        for row in &rows {
            assert_eq!(row.len(), n, "affinity matrix must be square");
            data.extend_from_slice(row);
        }
        Self { n, data }
    }

    /// The dimension `n` of the matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is 0 × 0.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n, "affinity index ({i}, {j}) out of {}", self.n);
        self.data[i * self.n + j]
    }

    /// Sets the entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.n && j < self.n, "affinity index ({i}, {j}) out of {}", self.n);
        self.data[i * self.n + j] = value;
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl HeapSize for AffinityMatrix {
    fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = AffinityMatrix::zeros(2);
        assert_eq!(m.len(), 2);
        m.set(1, 0, 3.5);
        assert_eq!(m.get(1, 0), 3.5);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn from_rows_round_trips() {
        let m = AffinityMatrix::from_rows(vec![vec![0.0, 1.0], vec![2.0, 0.0]]);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.row(1), &[2.0, 0.0]);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        AffinityMatrix::from_rows(vec![vec![0.0, 1.0], vec![2.0]]);
    }
}
