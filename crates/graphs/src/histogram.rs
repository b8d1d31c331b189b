//! Latency → bit-count histograms and the `score(h, k)` weighting.
//!
//! Connectivity information of a dataflow edge takes the form of a histogram
//! whose bins represent latency (number of sequential stages on the path) and
//! whose heights represent the number of bits flowing at that latency
//! (Sect. IV-D).  The histogram is condensed into a single affinity score:
//!
//! ```text
//! score(h, k) = Σ_i  bits_i / latency_i^k
//! ```
//!
//! where `k` controls the exponential decay impact of latency.

use netlist::HeapSize;
use std::collections::BTreeMap;

/// A latency → bits histogram describing the dataflow along one edge.
///
/// # Example
///
/// ```
/// use graphs::FlowHistogram;
///
/// let mut h = FlowHistogram::new();
/// h.add(1, 64);   // 64 bits with latency 1
/// h.add(3, 32);   // 32 bits with latency 3
/// assert_eq!(h.total_bits(), 96);
/// assert!((h.score(1) - (64.0 + 32.0 / 3.0)).abs() < 1e-9);
/// assert!(h.score(2) < h.score(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowHistogram {
    bins: BTreeMap<u32, u64>,
}

impl FlowHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `bits` bits of flow at the given `latency` (in sequential stages).
    ///
    /// A latency of 0 (purely combinational path) is clamped to 1 so the
    /// score stays finite; the paper's latencies are always ≥ 1 because every
    /// path between two sequential elements crosses at least one stage.
    pub fn add(&mut self, latency: u32, bits: u64) {
        if bits == 0 {
            return;
        }
        *self.bins.entry(latency.max(1)).or_insert(0) += bits;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &FlowHistogram) {
        for (&lat, &bits) in &other.bins {
            self.add(lat, bits);
        }
    }

    /// Iterates over `(latency, bits)` bins in increasing latency order.
    pub fn bins(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.bins.iter().map(|(&l, &b)| (l, b))
    }

    /// Total number of bits across all latencies.
    pub fn total_bits(&self) -> u64 {
        self.bins.values().sum()
    }

    /// Smallest latency present, if any.
    pub fn min_latency(&self) -> Option<u32> {
        self.bins.keys().next().copied()
    }

    /// Returns `true` when no flow has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// The affinity score `Σ bits_i / latency_i^k`.
    ///
    /// Larger `k` punishes long-latency flow more aggressively; `k = 0`
    /// reduces to the raw bit count.
    pub fn score(&self, k: u32) -> f64 {
        self.bins.iter().map(|(&lat, &bits)| bits as f64 / (lat as f64).powi(k as i32)).sum()
    }
}

impl FromIterator<(u32, u64)> for FlowHistogram {
    fn from_iter<T: IntoIterator<Item = (u32, u64)>>(iter: T) -> Self {
        let mut h = FlowHistogram::new();
        for (lat, bits) in iter {
            h.add(lat, bits);
        }
        h
    }
}

impl HeapSize for FlowHistogram {
    fn heap_bytes(&self) -> usize {
        self.bins.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_scores_zero() {
        let h = FlowHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.total_bits(), 0);
        assert_eq!(h.score(2), 0.0);
        assert_eq!(h.min_latency(), None);
    }

    #[test]
    fn add_accumulates_same_bin() {
        let mut h = FlowHistogram::new();
        h.add(2, 8);
        h.add(2, 8);
        assert_eq!(h.bins().collect::<Vec<_>>(), vec![(2, 16)]);
    }

    #[test]
    fn zero_bits_ignored_and_zero_latency_clamped() {
        let mut h = FlowHistogram::new();
        h.add(1, 0);
        assert!(h.is_empty());
        h.add(0, 4);
        assert_eq!(h.min_latency(), Some(1));
    }

    #[test]
    fn score_with_k0_is_total_bits() {
        let h: FlowHistogram = [(1, 10), (4, 6)].into_iter().collect();
        assert_eq!(h.score(0), 16.0);
    }

    #[test]
    fn score_decreases_with_k() {
        let h: FlowHistogram = [(2, 10), (5, 6)].into_iter().collect();
        assert!(h.score(0) > h.score(1));
        assert!(h.score(1) > h.score(2));
        assert!(h.score(2) > h.score(3));
    }

    #[test]
    fn latency_one_flow_unaffected_by_k() {
        let h: FlowHistogram = [(1, 42)].into_iter().collect();
        assert_eq!(h.score(0), 42.0);
        assert_eq!(h.score(5), 42.0);
    }

    #[test]
    fn merge_adds_bins() {
        let mut a: FlowHistogram = [(1, 4), (2, 2)].into_iter().collect();
        let b: FlowHistogram = [(2, 3), (7, 1)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.bins().collect::<Vec<_>>(), vec![(1, 4), (2, 5), (7, 1)]);
    }
}
