//! The hierarchy tree `HT` of the paper (Sect. II-C).
//!
//! Every node represents one level of the RTL hierarchy (one module instance
//! path); edges represent sub-hierarchy relations.  The tree is annotated
//! bottom-up with the total cell area and macro count of each subtree, which
//! is what hierarchical declustering (Sect. IV-B) consumes.

use crate::design::{CellId, CellKind, Design};
use std::collections::HashMap;

/// Identifier of a node in a [`HierarchyTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HierarchyNodeId(pub u32);

/// One level of the design hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyNode {
    /// Full hierarchical path of this level (empty string for the root/top).
    pub path: String,
    /// Parent node (None for the root).
    pub parent: Option<HierarchyNodeId>,
    /// Child hierarchy levels.
    pub children: Vec<HierarchyNodeId>,
    /// Cells whose `hier_path` is exactly this level (not including sub-levels).
    pub direct_cells: Vec<CellId>,
    /// Total cell area of the subtree rooted here (DBU²).
    pub subtree_area: i128,
    /// Number of macros in the subtree rooted here.
    pub subtree_macros: usize,
    /// Number of cells of any kind in the subtree rooted here.
    pub subtree_cells: usize,
}

impl HierarchyNode {
    /// A node with no children, cells or stats yet.
    fn new(path: String, parent: Option<HierarchyNodeId>) -> Self {
        Self {
            path,
            parent,
            children: Vec::new(),
            direct_cells: Vec::new(),
            subtree_area: 0,
            subtree_macros: 0,
            subtree_cells: 0,
        }
    }
}

/// The hierarchy tree `HT`.
///
/// # Example
///
/// ```
/// use netlist::design::DesignBuilder;
/// use netlist::hierarchy::HierarchyTree;
///
/// let mut b = DesignBuilder::new("top");
/// b.add_macro("u_mem/ram0", "RAM", 100, 100, "u_mem");
/// b.add_flop("u_ctl/r1", "u_ctl");
/// let design = b.build();
/// let ht = HierarchyTree::from_design(&design);
/// assert_eq!(ht.node(ht.root()).subtree_macros, 1);
/// assert!(ht.find("u_mem").is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyTree {
    nodes: Vec<HierarchyNode>,
    root: HierarchyNodeId,
    index: HashMap<String, HierarchyNodeId>,
}

impl HierarchyTree {
    /// Builds the hierarchy tree of a design from the `hier_path` annotations
    /// of its cells, and computes subtree area / macro / cell counts.
    ///
    /// Nodes are created in the order the cells (in id order) first reach
    /// them, each missing ancestor before its descendants. Each distinct
    /// path is resolved once; a cell then finds its node by path id.
    pub fn from_design(design: &Design) -> Self {
        let mut tree = Self {
            nodes: vec![HierarchyNode::new(String::new(), None)],
            root: HierarchyNodeId(0),
            index: HashMap::from([(String::new(), HierarchyNodeId(0))]),
        };
        let mut node_of_path: Vec<Option<HierarchyNodeId>> =
            vec![None; design.hier_paths().count()];
        for (cell_id, cell) in design.cells() {
            let slot = &mut node_of_path[cell.hier_path.0 as usize];
            let node =
                *slot.get_or_insert_with(|| tree.ensure_path(design.hier_path(cell.hier_path)));
            tree.nodes[node.0 as usize].direct_cells.push(cell_id);
        }
        tree.recompute_stats(design);
        tree
    }

    /// The node of `path`, creating it and every missing ancestor level
    /// (each `/` ends one), outermost first.
    fn ensure_path(&mut self, path: &str) -> HierarchyNodeId {
        // the deepest level of `path` that exists; the root always does
        let mut end = path.len();
        let mut parent = loop {
            if let Some(&id) = self.index.get(&path[..end]) {
                break id;
            }
            end = path[..end].rfind('/').unwrap_or(0);
        };
        let missing = path.match_indices('/').map(|(i, _)| i).chain([path.len()]);
        for level_end in missing.filter(|&i| i > end) {
            let level = &path[..level_end];
            let id = HierarchyNodeId(self.nodes.len() as u32);
            self.nodes.push(HierarchyNode::new(level.to_string(), Some(parent)));
            self.nodes[parent.0 as usize].children.push(id);
            self.index.insert(level.to_string(), id);
            parent = id;
        }
        parent
    }

    /// Recomputes the per-subtree area, macro and cell counts (bottom-up).
    pub fn recompute_stats(&mut self, design: &Design) {
        // post-order traversal via explicit ordering: children always have a
        // larger id than their parent because they are created after it.
        for node in &mut self.nodes {
            node.subtree_area = 0;
            node.subtree_macros = 0;
            node.subtree_cells = 0;
        }
        for idx in (0..self.nodes.len()).rev() {
            let (area, macros, cells): (i128, usize, usize) = {
                let node = &self.nodes[idx];
                let mut area: i128 = node.subtree_area;
                let mut macros = node.subtree_macros;
                let mut cells = node.subtree_cells;
                for &c in &node.direct_cells {
                    let cell = design.cell(c);
                    area += cell.area();
                    cells += 1;
                    if cell.kind == CellKind::Macro {
                        macros += 1;
                    }
                }
                (area, macros, cells)
            };
            self.nodes[idx].subtree_area = area;
            self.nodes[idx].subtree_macros = macros;
            self.nodes[idx].subtree_cells = cells;
            if let Some(parent) = self.nodes[idx].parent {
                let p = parent.0 as usize;
                self.nodes[p].subtree_area += area;
                self.nodes[p].subtree_macros += macros;
                self.nodes[p].subtree_cells += cells;
            }
        }
    }

    /// The root node id (the top level of the design).
    pub fn root(&self) -> HierarchyNodeId {
        self.root
    }

    /// Node accessor.
    pub fn node(&self, id: HierarchyNodeId) -> &HierarchyNode {
        &self.nodes[id.0 as usize]
    }

    /// Number of hierarchy levels (nodes) in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tree only contains the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Finds the node for an exact hierarchical path.
    pub fn find(&self, path: &str) -> Option<HierarchyNodeId> {
        self.index.get(path).copied()
    }

    /// Iterates over `(id, node)` pairs in creation order (parents before children).
    pub fn iter(&self) -> impl Iterator<Item = (HierarchyNodeId, &HierarchyNode)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (HierarchyNodeId(i as u32), n))
    }

    /// All cells in the subtree rooted at `id` (direct and nested).
    pub fn subtree_cells(&self, id: HierarchyNodeId) -> Vec<CellId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = self.node(n);
            out.extend_from_slice(&node.direct_cells);
            stack.extend_from_slice(&node.children);
        }
        out
    }

    /// All macro cells in the subtree rooted at `id`.
    pub fn subtree_macros(&self, id: HierarchyNodeId, design: &Design) -> Vec<CellId> {
        self.subtree_cells(id)
            .into_iter()
            .filter(|&c| design.cell(c).kind == CellKind::Macro)
            .collect()
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, id: HierarchyNodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            d += 1;
            cur = p;
        }
        d
    }
}

impl crate::heap_size::HeapSize for HierarchyNode {
    fn heap_bytes(&self) -> usize {
        self.path.heap_bytes() + self.children.heap_bytes() + self.direct_cells.heap_bytes()
    }
}

impl crate::heap_size::HeapSize for HierarchyTree {
    fn heap_bytes(&self) -> usize {
        self.nodes.heap_bytes() + self.index.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignBuilder;

    fn hier_design() -> Design {
        let mut b = DesignBuilder::new("top");
        b.add_macro("u_a/u_mem/ram0", "RAM", 100, 50, "u_a/u_mem");
        b.add_macro("u_a/u_mem/ram1", "RAM", 100, 50, "u_a/u_mem");
        b.add_flop("u_a/u_ctl/r0", "u_a/u_ctl");
        b.add_comb("u_b/g0", "u_b");
        b.add_comb("glue0", "");
        b.build()
    }

    #[test]
    fn tree_structure_matches_paths() {
        let d = hier_design();
        let ht = HierarchyTree::from_design(&d);
        // nodes: "", u_a, u_a/u_mem, u_a/u_ctl, u_b  => 5
        assert_eq!(ht.len(), 5);
        let root = ht.node(ht.root());
        assert_eq!(root.children.len(), 2); // u_a, u_b
        let ua = ht.find("u_a").unwrap();
        assert_eq!(ht.node(ua).children.len(), 2);
        assert_eq!(ht.depth(ht.find("u_a/u_mem").unwrap()), 2);
    }

    #[test]
    fn subtree_stats_accumulate() {
        let d = hier_design();
        let ht = HierarchyTree::from_design(&d);
        let root = ht.node(ht.root());
        assert_eq!(root.subtree_macros, 2);
        assert_eq!(root.subtree_cells, 5);
        assert_eq!(root.subtree_area, 100 * 50 * 2 + 3);
        let umem = ht.node(ht.find("u_a/u_mem").unwrap());
        assert_eq!(umem.subtree_macros, 2);
        assert_eq!(umem.subtree_cells, 2);
        let ub = ht.node(ht.find("u_b").unwrap());
        assert_eq!(ub.subtree_macros, 0);
        assert_eq!(ub.subtree_cells, 1);
    }

    #[test]
    fn subtree_cells_and_macros() {
        let d = hier_design();
        let ht = HierarchyTree::from_design(&d);
        let ua = ht.find("u_a").unwrap();
        assert_eq!(ht.subtree_cells(ua).len(), 3);
        assert_eq!(ht.subtree_macros(ua, &d).len(), 2);
    }

    #[test]
    fn nodes_follow_the_cells_first_reach() {
        let mut b = DesignBuilder::new("top");
        b.add_comb("a/b/c/g0", "a/b/c");
        b.add_comb("a/x/g1", "a/x");
        b.add_comb("a/g2", "a");
        b.add_comb("/lead/g3", "/lead");
        b.add_comb("d//e/g4", "d//e");
        let ht = HierarchyTree::from_design(&b.build());
        let paths: Vec<&str> = ht.iter().map(|(_, n)| n.path.as_str()).collect();
        assert_eq!(paths, ["", "a", "a/b", "a/b/c", "a/x", "/lead", "d", "d/", "d//e"]);
        let parent =
            |p: &str| ht.node(ht.find(p).unwrap()).parent.map(|id| ht.node(id).path.as_str());
        assert_eq!(parent("/lead"), Some(""));
        assert_eq!(parent("d//e"), Some("d/"));
        assert_eq!(parent("d/"), Some("d"));
    }

    #[test]
    fn direct_cells_at_root() {
        let d = hier_design();
        let ht = HierarchyTree::from_design(&d);
        assert_eq!(ht.node(ht.root()).direct_cells.len(), 1);
    }
}
