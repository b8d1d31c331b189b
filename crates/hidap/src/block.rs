//! Blocks: the hybrid hard/soft units floorplanned at every hierarchy level.
//!
//! A block (paper Sect. II-D) represents the cells and macros under a node of
//! the hierarchy tree and is characterized by the triple ⟨Γ, am, at⟩:
//!
//! * Γ — the shape curve of its macros,
//! * am — the *minimum area*: the sum of macro and standard-cell area under
//!   the hierarchy level,
//! * at — the *target area*: am plus the glue-logic area assigned to the
//!   block by target-area assignment (Sect. IV-C).

use geometry::ShapeCurve;
use netlist::design::CellId;
use netlist::hierarchy::HierarchyNodeId;

/// Identifier of a block within one floorplanning level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

/// What a block was created from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A hierarchy-tree node selected by declustering (HCB member).
    Hierarchy(HierarchyNodeId),
    /// A single macro cell that lives directly at the floorplanned level.
    SingleMacro(CellId),
}

/// A block of the current floorplanning level.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Origin of the block.
    pub kind: BlockKind,
    /// Human-readable name (hierarchy path or macro instance name).
    pub name: String,
    /// Shape curve of the macros inside the block (unconstrained when the
    /// block holds no macros).
    pub shape: ShapeCurve,
    /// Minimum area `am` (macros + standard cells of the subtree), in DBU².
    pub min_area: i128,
    /// Target area `at` (`am` plus assigned glue area), in DBU².
    pub target_area: i128,
    /// Macro cells inside the block.
    pub macros: Vec<CellId>,
    /// All cells of the block (used by target-area assignment and metrics).
    pub cells: Vec<CellId>,
}

impl Block {
    /// Number of macros in the block (the recursion criterion of Alg. 2).
    pub fn macro_count(&self) -> usize {
        self.macros.len()
    }

    /// Returns `true` when the block contains no macros (soft block).
    pub fn is_soft(&self) -> bool {
        self.macros.is_empty()
    }

    /// Area of the macros alone, from the shape curve.
    pub fn macro_area(&self) -> i128 {
        self.shape.min_area()
    }
}

/// The set of blocks of one floorplanning level, together with the glue
/// (HCG) cells that must be folded into their target areas.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlockSet {
    /// The blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Cells of glue-logic hierarchy nodes (HCG), not assigned to any block yet.
    pub glue_cells: Vec<CellId>,
}

impl BlockSet {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` when there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Block accessor.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0]
    }

    /// Iterates over `(id, block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &Block)> + '_ {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i), b))
    }

    /// Sum of the target areas of all blocks.
    pub fn total_target_area(&self) -> i128 {
        self.blocks.iter().map(|b| b.target_area).sum()
    }

    /// Total number of macros across all blocks.
    pub fn total_macros(&self) -> usize {
        self.blocks.iter().map(Block::macro_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::ShapeCurve;

    fn block(name: &str, macros: usize, min_area: i128) -> Block {
        Block {
            kind: BlockKind::Hierarchy(HierarchyNodeId(0)),
            name: name.into(),
            shape: if macros > 0 {
                ShapeCurve::from_macro(10, 10, true)
            } else {
                ShapeCurve::unconstrained()
            },
            min_area,
            target_area: min_area,
            macros: (0..macros).map(|i| CellId(i as u32)).collect(),
            cells: Vec::new(),
        }
    }

    #[test]
    fn soft_and_hard_blocks() {
        let hard = block("hard", 2, 500);
        let soft = block("soft", 0, 300);
        assert!(!hard.is_soft());
        assert!(soft.is_soft());
        assert_eq!(hard.macro_count(), 2);
        assert_eq!(hard.macro_area(), 100);
        assert_eq!(soft.macro_area(), 0);
    }

    #[test]
    fn block_set_totals() {
        let set = BlockSet {
            blocks: vec![block("a", 1, 100), block("b", 0, 50), block("c", 3, 200)],
            glue_cells: Vec::new(),
        };
        assert_eq!(set.len(), 3);
        assert_eq!(set.total_target_area(), 350);
        assert_eq!(set.total_macros(), 4);
        assert_eq!(set.block(BlockId(2)).name, "c");
        assert_eq!(set.iter().count(), 3);
    }
}
