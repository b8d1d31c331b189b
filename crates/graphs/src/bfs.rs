//! Multi-source breadth-first search utilities.
//!
//! Target-area assignment (Sect. IV-C) and dataflow inference (Sect. IV-D)
//! both rely on multi-source BFS: shortest paths are computed simultaneously
//! from every element of a set of sources, as in "The more the merrier"
//! (Then et al., VLDB'14) which the paper cites.

use netlist::HeapSize;

/// One node's state in a search. It belongs to the current search only when
/// its stamp equals the scratch's epoch, so a new search needs no clearing.
#[derive(Debug, Clone, Copy, Default)]
struct NodeSlot {
    /// Epoch of the search that discovered the node.
    seen: u32,
    /// Epoch of the search that listed the node as a target.
    target: u32,
    /// Distance (in edges) from the nearest source.
    distance: u32,
    /// Index of the source that first reached the node.
    source: u32,
}

/// Caller-owned buffers of [`multi_source_bfs`], reused across searches.
///
/// The node slots grow to the largest graph searched and are never cleared:
/// each search stamps the slots it writes with a fresh epoch, so it costs
/// the nodes it reaches and the targets it marks, not the whole graph. The
/// results of the last search are read through [`BfsScratch::distance`],
/// [`BfsScratch::source`] and [`BfsScratch::reached`].
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    epoch: u32,
    slots: Vec<NodeSlot>,
    queue: Vec<u32>,
    slots_touched: u64,
}

impl BfsScratch {
    /// The slot of `node` if the last search discovered it.
    fn discovered(&self, node: usize) -> Option<&NodeSlot> {
        self.slots.get(node).filter(|slot| slot.seen == self.epoch)
    }

    /// Distance (in edges) of `node` from the nearest source of the last
    /// search, `None` if that search did not reach it.
    pub fn distance(&self, node: usize) -> Option<u32> {
        self.discovered(node).map(|slot| slot.distance)
    }

    /// Index (into the last search's `sources`) of the source that first
    /// reached `node`, `None` if that search did not reach it.
    pub fn source(&self, node: usize) -> Option<u32> {
        self.discovered(node).map(|slot| slot.source)
    }

    /// Returns `true` if the last search reached `node`.
    pub fn reached(&self, node: usize) -> bool {
        self.discovered(node).is_some()
    }

    /// Node slots the last search wrote: one per target it marked and one
    /// per node it discovered. A clock-free measure of the search's work.
    pub fn slots_touched(&self) -> u64 {
        self.slots_touched
    }

    /// Starts a search over `num_nodes` nodes: a fresh epoch, enough slots,
    /// an empty queue.
    fn begin(&mut self, num_nodes: usize) {
        if self.epoch == u32::MAX {
            // every stamp could collide with a future epoch: clear them once
            self.slots.iter_mut().for_each(|slot| *slot = NodeSlot::default());
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.slots.len() < num_nodes {
            self.slots.resize(num_nodes, NodeSlot::default());
        }
        self.queue.clear();
        self.slots_touched = 0;
    }
}

/// Runs a multi-source BFS in `scratch`, whose accessors then hold the
/// result.
///
/// * `num_nodes` — number of nodes in the graph,
/// * `sources` — the seed nodes (distance 0); the *source index* recorded for
///   reached nodes is the position of the seed in this slice,
/// * `targets` — the nodes the caller will read: the search stops as soon as
///   every one of them is discovered (`None` searches the whole component).
///   BFS fixes a node's distance and source when it discovers
///   the node and never changes them, so the targets' entries are exactly
///   those of a full search; other nodes may stay unreached,
/// * `successors` — adjacency callback yielding the out-neighbors of a node,
/// * `can_traverse` — filter deciding whether the search may continue *through*
///   a node (sources are always expanded; targets that cannot be traversed are
///   still reached and recorded, they just do not propagate further).
///
/// # Example
///
/// ```
/// use graphs::bfs::{multi_source_bfs, BfsScratch};
///
/// // path graph 0 - 1 - 2 - 3
/// let adj: Vec<Vec<u32>> = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
/// let mut scratch = BfsScratch::default();
/// multi_source_bfs(&mut scratch, 4, &[0], None, |n| adj[n].iter().copied(), |_| true);
/// assert_eq!(scratch.distance(3), Some(3));
///
/// // stop once node 1 is found: node 3 is never reached
/// multi_source_bfs(&mut scratch, 4, &[0], Some(&[1]), |n| adj[n].iter().copied(), |_| true);
/// assert_eq!(scratch.distance(1), Some(1));
/// assert!(!scratch.reached(3));
/// ```
pub fn multi_source_bfs<S, I, T>(
    scratch: &mut BfsScratch,
    num_nodes: usize,
    sources: &[u32],
    targets: Option<&[u32]>,
    mut successors: S,
    mut can_traverse: T,
) where
    S: FnMut(usize) -> I,
    I: IntoIterator<Item = u32>,
    T: FnMut(usize) -> bool,
{
    scratch.begin(num_nodes);
    let BfsScratch { epoch, slots, queue, slots_touched } = scratch;
    let (epoch, slots) = (*epoch, &mut slots[..num_nodes]);
    // How many targets are still undiscovered (`usize::MAX` when there are
    // no targets: the count never reaches 0).
    let mut undiscovered = usize::MAX;
    if let Some(targets) = targets {
        undiscovered = 0;
        for &t in targets {
            if let Some(slot) = slots.get_mut(t as usize).filter(|slot| slot.target != epoch) {
                slot.target = epoch;
                undiscovered += 1;
                *slots_touched += 1;
            }
        }
    }
    for (i, &s) in sources.iter().enumerate() {
        if let Some(slot) = slots.get_mut(s as usize).filter(|slot| slot.seen != epoch) {
            *slot = NodeSlot { seen: epoch, target: slot.target, distance: 0, source: i as u32 };
            queue.push(s);
            *slots_touched += 1;
            undiscovered -= usize::from(slot.target == epoch);
        }
    }
    let mut head = 0;
    'search: while undiscovered > 0 {
        let Some(&u) = queue.get(head) else { break };
        head += 1;
        let NodeSlot { distance, source, .. } = slots[u as usize];
        // Only sources and traversable nodes expand further.
        if distance != 0 && !can_traverse(u as usize) {
            continue;
        }
        for v in successors(u as usize) {
            let Some(slot) = slots.get_mut(v as usize).filter(|slot| slot.seen != epoch) else {
                continue;
            };
            slot.seen = epoch;
            slot.distance = distance + 1;
            slot.source = source;
            queue.push(v);
            *slots_touched += 1;
            if slot.target == epoch {
                undiscovered -= 1;
                if undiscovered == 0 {
                    break 'search;
                }
            }
        }
    }
}

impl HeapSize for NodeSlot {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl HeapSize for BfsScratch {
    fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes() + self.queue.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_adj() -> Vec<Vec<u32>> {
        // 0-1-2
        // |   |
        // 3-4-5
        vec![vec![1, 3], vec![0, 2], vec![1, 5], vec![0, 4], vec![3, 5], vec![2, 4]]
    }

    fn distances(scratch: &BfsScratch, n: usize) -> Vec<Option<u32>> {
        (0..n).map(|v| scratch.distance(v)).collect()
    }

    #[test]
    fn single_source_distances() {
        let adj = grid_adj();
        let mut s = BfsScratch::default();
        multi_source_bfs(&mut s, 6, &[0], None, |n| adj[n].iter().copied(), |_| true);
        let want = [0, 1, 2, 1, 2, 3].map(Some);
        assert_eq!(distances(&s, 6), want);
        assert!(s.reached(5));
    }

    #[test]
    fn multi_source_takes_nearest() {
        let adj = grid_adj();
        let mut s = BfsScratch::default();
        multi_source_bfs(&mut s, 6, &[0, 5], None, |n| adj[n].iter().copied(), |_| true);
        assert_eq!(distances(&s, 6), [0, 1, 1, 1, 1, 0].map(Some));
        assert_eq!(s.source(1), Some(0));
        assert_eq!(s.source(2), Some(1));
    }

    #[test]
    fn blocked_nodes_are_reached_but_not_traversed() {
        // 0 -> 1 -> 2 ; node 1 cannot be traversed
        let adj = [vec![1], vec![2], vec![]];
        let mut s = BfsScratch::default();
        multi_source_bfs(&mut s, 3, &[0], None, |n| adj[n].iter().copied(), |n| n != 1);
        assert_eq!(s.distance(1), Some(1));
        assert!(!s.reached(2));
    }

    #[test]
    fn unreachable_nodes_flagged() {
        let adj: [Vec<u32>; 2] = [vec![], vec![]];
        let mut s = BfsScratch::default();
        multi_source_bfs(&mut s, 2, &[0], None, |n| adj[n].iter().copied(), |_| true);
        assert!(!s.reached(1));
        assert_eq!(s.source(1), None);
    }

    #[test]
    fn duplicate_sources_keep_first() {
        let adj = [vec![1], vec![]];
        let mut s = BfsScratch::default();
        multi_source_bfs(&mut s, 2, &[0, 0], None, |n| adj[n].iter().copied(), |_| true);
        assert_eq!(s.source(0), Some(0));
    }

    #[test]
    fn a_reused_scratch_forgets_the_previous_search() {
        let adj = grid_adj();
        let mut s = BfsScratch::default();
        multi_source_bfs(&mut s, 6, &[0], None, |n| adj[n].iter().copied(), |_| true);
        assert_eq!(s.slots_touched(), 6);
        // a smaller graph over the same slots: nodes 0..2 only, 0 -> 1
        multi_source_bfs(&mut s, 2, &[1], Some(&[0]), |_| [], |_| true);
        assert_eq!(distances(&s, 6), [None, Some(0), None, None, None, None]);
        // one target mark and one source, nothing else
        assert_eq!(s.slots_touched(), 2);
    }

    #[test]
    fn an_exhausted_epoch_clears_the_slots() {
        let adj = grid_adj();
        let mut s = BfsScratch { epoch: u32::MAX - 1, ..BfsScratch::default() };
        multi_source_bfs(&mut s, 6, &[0], None, |n| adj[n].iter().copied(), |_| true);
        assert_eq!(s.epoch, u32::MAX);
        multi_source_bfs(&mut s, 6, &[5], Some(&[4]), |n| adj[n].iter().copied(), |_| true);
        assert_eq!(s.epoch, 1);
        assert_eq!(distances(&s, 6), [None, None, Some(1), None, Some(1), Some(0)]);
    }
}
