//! Multi-source breadth-first search utilities.
//!
//! Target-area assignment (Sect. IV-C) and dataflow inference (Sect. IV-D)
//! both rely on multi-source BFS: shortest paths are computed simultaneously
//! from every element of a set of sources, as in "The more the merrier"
//! (Then et al., VLDB'14) which the paper cites.

use netlist::HeapSize;
use std::collections::VecDeque;

/// Result of a multi-source BFS over a graph with `n` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// Distance (in edges) from the nearest source, `u32::MAX` if unreachable.
    pub distance: Vec<u32>,
    /// Index of the source that first reached each node, `usize::MAX` if unreachable.
    pub source: Vec<usize>,
}

impl BfsResult {
    /// Returns `true` if the node was reached by the search.
    pub fn reached(&self, node: usize) -> bool {
        self.distance[node] != u32::MAX
    }
}

/// Runs a multi-source BFS.
///
/// * `num_nodes` — number of nodes in the graph,
/// * `sources` — the seed nodes (distance 0); the *source index* recorded for
///   reached nodes is the position of the seed in this slice,
/// * `targets` — the nodes the caller will read: the search stops as soon as
///   every one of them is discovered (`None` searches the whole component).
///   BFS fixes a node's distance and source when it discovers
///   the node and never changes them, so the targets' entries are exactly
///   those of a full search; entries of other nodes may stay unreached,
/// * `successors` — adjacency callback yielding the out-neighbors of a node,
/// * `can_traverse` — filter deciding whether the search may continue *through*
///   a node (sources are always expanded; targets that cannot be traversed are
///   still reached and recorded, they just do not propagate further).
///
/// # Example
///
/// ```
/// use graphs::bfs::multi_source_bfs;
///
/// // path graph 0 - 1 - 2 - 3
/// let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
/// let r = multi_source_bfs(4, &[0], None, |n| adj[n].iter().copied(), |_| true);
/// assert_eq!(r.distance, vec![0, 1, 2, 3]);
///
/// // stop once node 1 is found: node 3 is never reached
/// let r = multi_source_bfs(4, &[0], Some(&[1]), |n| adj[n].iter().copied(), |_| true);
/// assert_eq!(r.distance[1], 1);
/// assert!(!r.reached(3));
/// ```
pub fn multi_source_bfs<S, I, T>(
    num_nodes: usize,
    sources: &[usize],
    targets: Option<&[usize]>,
    mut successors: S,
    mut can_traverse: T,
) -> BfsResult
where
    S: FnMut(usize) -> I,
    I: IntoIterator<Item = usize>,
    T: FnMut(usize) -> bool,
{
    let mut distance = vec![u32::MAX; num_nodes];
    let mut source = vec![usize::MAX; num_nodes];
    // A mark on every target, and how many are still undiscovered
    // (`usize::MAX` when there are no targets: the count never reaches 0).
    let mut is_target = Vec::new();
    let mut undiscovered = usize::MAX;
    if let Some(targets) = targets {
        is_target = vec![false; num_nodes];
        undiscovered = 0;
        for &t in targets.iter().filter(|&&t| t < num_nodes) {
            undiscovered += usize::from(!is_target[t]);
            is_target[t] = true;
        }
    }
    let mut queue = VecDeque::new();
    for (i, &s) in sources.iter().enumerate() {
        if s < num_nodes && distance[s] == u32::MAX {
            distance[s] = 0;
            source[s] = i;
            queue.push_back(s);
            undiscovered -= usize::from(is_target.get(s) == Some(&true));
        }
    }
    'search: while undiscovered > 0 {
        let Some(u) = queue.pop_front() else { break };
        // Only sources and traversable nodes expand further.
        if distance[u] != 0 && !can_traverse(u) {
            continue;
        }
        for v in successors(u) {
            if v < num_nodes && distance[v] == u32::MAX {
                distance[v] = distance[u] + 1;
                source[v] = source[u];
                queue.push_back(v);
                if is_target.get(v) == Some(&true) {
                    undiscovered -= 1;
                    if undiscovered == 0 {
                        break 'search;
                    }
                }
            }
        }
    }
    BfsResult { distance, source }
}

impl HeapSize for BfsResult {
    fn heap_bytes(&self) -> usize {
        self.distance.heap_bytes() + self.source.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_adj() -> Vec<Vec<usize>> {
        // 0-1-2
        // |   |
        // 3-4-5
        vec![vec![1, 3], vec![0, 2], vec![1, 5], vec![0, 4], vec![3, 5], vec![2, 4]]
    }

    #[test]
    fn single_source_distances() {
        let adj = grid_adj();
        let r = multi_source_bfs(6, &[0], None, |n| adj[n].iter().copied(), |_| true);
        assert_eq!(r.distance, vec![0, 1, 2, 1, 2, 3]);
        assert!(r.reached(5));
    }

    #[test]
    fn multi_source_takes_nearest() {
        let adj = grid_adj();
        let r = multi_source_bfs(6, &[0, 5], None, |n| adj[n].iter().copied(), |_| true);
        assert_eq!(r.distance, vec![0, 1, 1, 1, 1, 0]);
        assert_eq!(r.source[1], 0);
        assert_eq!(r.source[2], 1);
    }

    #[test]
    fn blocked_nodes_are_reached_but_not_traversed() {
        // 0 -> 1 -> 2 ; node 1 cannot be traversed
        let adj = [vec![1], vec![2], vec![]];
        let r = multi_source_bfs(3, &[0], None, |n| adj[n].iter().copied(), |n| n != 1);
        assert_eq!(r.distance[1], 1);
        assert!(!r.reached(2));
    }

    #[test]
    fn unreachable_nodes_flagged() {
        let adj = [vec![], vec![]];
        let r = multi_source_bfs(2, &[0], None, |n: usize| adj[n].iter().copied(), |_| true);
        assert!(!r.reached(1));
        assert_eq!(r.source[1], usize::MAX);
    }

    #[test]
    fn duplicate_sources_keep_first() {
        let adj = [vec![1], vec![]];
        let r = multi_source_bfs(2, &[0, 0], None, |n| adj[n].iter().copied(), |_| true);
        assert_eq!(r.source[0], 0);
    }
}
