//! Shape-curve generation for every hierarchy level (Sect. IV-A).
//!
//! For each node of the hierarchy tree, SΓ stores a shape curve with the
//! minimal bounding boxes such that the macros of its subtree can be placed
//! under slicing constraints.  Because the hierarchy tree is not itself a
//! slicing tree, the shapes of children cannot simply be composed; instead an
//! area-optimizing simulated annealing over slicing arrangements of the
//! node's macros generates a set of small-area shape combinations.

use crate::config::HidapConfig;
use geometry::{CutDirection, NodeValues, PolishExpression, ShapeCurve, SpanCache};
use netlist::design::{CellKind, Design};
use netlist::hierarchy::{HierarchyNodeId, HierarchyTree};
use rand::{ChaCha8Rng, Rng, SeedableRng};
use std::collections::HashMap;

/// The set SΓ: one shape curve per hierarchy node that contains macros.
///
/// Nodes without macros are unconstrained and are not stored explicitly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShapeCurveSet {
    curves: HashMap<HierarchyNodeId, ShapeCurve>,
}

impl ShapeCurveSet {
    /// Generates shape curves for every hierarchy node with at least one
    /// macro in its subtree (bottom-up, once per flow as in Algorithm 1).
    pub fn generate(design: &Design, ht: &HierarchyTree, config: &HidapConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5ca1e);
        let mut curves = HashMap::new();
        for (node_id, node) in ht.iter() {
            if node.subtree_macros == 0 {
                continue;
            }
            let macros = ht.subtree_macros(node_id, design);
            let leaf_curves: Vec<ShapeCurve> = macros
                .iter()
                .map(|&c| {
                    let cell = design.cell(c);
                    debug_assert_eq!(cell.kind, CellKind::Macro);
                    ShapeCurve::from_macro(cell.width, cell.height, true)
                })
                .collect();
            let curve = macro_packing_curve(&leaf_curves, config, &mut rng);
            curves.insert(node_id, curve);
        }
        Self { curves }
    }

    /// The shape curve of a hierarchy node (unconstrained if it has no macros).
    pub fn curve(&self, node: HierarchyNodeId) -> ShapeCurve {
        self.curves.get(&node).cloned().unwrap_or_else(ShapeCurve::unconstrained)
    }

    /// Number of explicitly stored (macro-bearing) curves.
    pub fn len(&self) -> usize {
        self.curves.len()
    }

    /// Returns `true` if no hierarchy node contains macros.
    pub fn is_empty(&self) -> bool {
        self.curves.is_empty()
    }

    /// Inserts or replaces the curve of a node (used by tests and by callers
    /// that build curves for synthetic block sets).
    pub fn insert(&mut self, node: HierarchyNodeId, curve: ShapeCurve) {
        self.curves.insert(node, curve);
    }
}

/// Builds a shape curve describing small-area slicing packings of a set of
/// hard components given by their individual shape curves.
///
/// For zero components the result is unconstrained; for one component it is
/// the component's own curve.  For more components, a simulated annealing
/// over normalized Polish expressions minimizes the packing area, and every
/// explored arrangement contributes its Pareto bounding boxes to the result.
pub fn macro_packing_curve<R: Rng + ?Sized>(
    leaves: &[ShapeCurve],
    config: &HidapConfig,
    rng: &mut R,
) -> ShapeCurve {
    anneal_packing(leaves, config, rng).0
}

/// [`macro_packing_curve`], also returning how many slicing nodes the
/// annealer composed.
fn anneal_packing<R: Rng + ?Sized>(
    leaves: &[ShapeCurve],
    config: &HidapConfig,
    rng: &mut R,
) -> (ShapeCurve, u64) {
    match leaves.len() {
        0 => (ShapeCurve::unconstrained(), 0),
        1 => (leaves[0].clone(), 0),
        _ => {
            let packing = Packing { leaves, limit: config.shape_curve_limit };
            let mut expr = PolishExpression::chain(leaves.len(), CutDirection::Vertical);
            let mut curves = SpanCache::new();
            curves.rebuild(&expr, &packing);
            let mut accumulated: Vec<(i64, i64)> = Vec::new();
            let mut current_cost = curves.root().min_area();
            accumulated.extend_from_slice(curves.root().points());

            let iterations = config.shape_curve_effort * leaves.len();
            // Simple annealing: temperature proportional to the total macro area.
            let total_area: i128 = leaves.iter().map(ShapeCurve::min_area).sum();
            let mut temperature = (total_area as f64) * 0.5 + 1.0;
            let cooling = 0.97_f64;
            for _ in 0..iterations {
                let mv = expr.random_move(rng);
                curves.update(&expr, mv, &packing);
                let cost = curves.root().min_area();
                let delta = (cost - current_cost) as f64;
                let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
                if accept {
                    curves.commit();
                    current_cost = cost;
                    accumulated.extend_from_slice(curves.root().points());
                } else {
                    expr.undo(mv);
                    curves.discard();
                }
                temperature = (temperature * cooling).max(1.0);
            }
            let curve = ShapeCurve::from_points(accumulated).pruned(config.shape_curve_limit);
            (curve, curves.compositions())
        }
    }
}

/// Composes the shape curve of the root of a slicing expression whose leaves
/// have the given curves.
pub fn compose_expression(
    expr: &PolishExpression,
    leaves: &[ShapeCurve],
    limit: usize,
) -> ShapeCurve {
    let mut curves = SpanCache::new();
    curves.rebuild(expr, &Packing { leaves, limit });
    curves.root().clone()
}

/// Slicing-node curves of a macro packing: a leaf is its macro's curve, a
/// cut composes its children and prunes to `limit` points.
struct Packing<'a> {
    leaves: &'a [ShapeCurve],
    limit: usize,
}

impl NodeValues for Packing<'_> {
    type Value = ShapeCurve;

    fn leaf(&self, block: usize, out: &mut ShapeCurve) {
        out.clone_from(&self.leaves[block]);
    }

    fn cut(&self, cut: CutDirection, left: &ShapeCurve, right: &ShapeCurve, out: &mut ShapeCurve) {
        out.set_to_cut(cut, left, right, self.limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::design::DesignBuilder;

    fn config() -> HidapConfig {
        HidapConfig::fast()
    }

    #[test]
    fn empty_and_single_macro_curves() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(macro_packing_curve(&[], &config(), &mut rng).is_unconstrained());
        let single = ShapeCurve::from_macro(30, 10, true);
        let c = macro_packing_curve(std::slice::from_ref(&single), &config(), &mut rng);
        assert_eq!(c, single);
    }

    #[test]
    fn packing_curve_area_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let leaves = vec![ShapeCurve::from_macro(4, 4, true); 4];
        let c = macro_packing_curve(&leaves, &config(), &mut rng);
        // cannot be smaller than the sum of areas
        assert!(c.min_area() >= 64);
        // a 2x2 arrangement of 4x4 macros fits in 8x8 = 64 area, the annealer
        // explores enough arrangements to get close
        assert!(c.min_area() <= 128, "min area {} too large", c.min_area());
        // every stored point can actually hold the macros' total area
        for &(w, h) in c.points() {
            assert!(w as i128 * h as i128 >= 64);
        }
    }

    #[test]
    fn packing_respects_tall_macros() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let leaves =
            vec![ShapeCurve::from_macro(2, 10, false), ShapeCurve::from_macro(2, 10, false)];
        let c = macro_packing_curve(&leaves, &config(), &mut rng);
        // two non-rotatable 2x10 macros: either 4x10 or 2x20
        assert!(c.fits(4, 10));
        assert!(!c.fits(3, 10));
    }

    #[test]
    fn generate_covers_macro_nodes_only() {
        let mut b = DesignBuilder::new("t");
        b.add_macro("u_mem/ram0", "RAM", 100, 60, "u_mem");
        b.add_macro("u_mem/ram1", "RAM", 100, 60, "u_mem");
        b.add_flop("u_ctl/r", "u_ctl");
        let d = b.build();
        let ht = HierarchyTree::from_design(&d);
        let set = ShapeCurveSet::generate(&d, &ht, &config());
        // curves exist for root and u_mem, not for u_ctl
        assert_eq!(set.len(), 2);
        let u_mem = ht.find("u_mem").unwrap();
        assert!(!set.curve(u_mem).is_unconstrained());
        let u_ctl = ht.find("u_ctl").unwrap();
        assert!(set.curve(u_ctl).is_unconstrained());
        // the u_mem curve must fit two 100x60 macros side by side or stacked
        assert!(set.curve(u_mem).fits(200, 60) || set.curve(u_mem).fits(100, 120));
    }

    #[test]
    fn compose_expression_matches_manual_composition() {
        let leaves = vec![ShapeCurve::from_macro(4, 2, false), ShapeCurve::from_macro(3, 5, false)];
        let expr = PolishExpression::chain(2, CutDirection::Vertical);
        let c = compose_expression(&expr, &leaves, 16);
        assert_eq!(c, leaves[0].compose_horizontal(&leaves[1]));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let leaves = vec![ShapeCurve::from_macro(4, 4, true); 5];
        let mut rng1 = ChaCha8Rng::seed_from_u64(7);
        let mut rng2 = ChaCha8Rng::seed_from_u64(7);
        let a = macro_packing_curve(&leaves, &config(), &mut rng1);
        let b = macro_packing_curve(&leaves, &config(), &mut rng2);
        assert_eq!(a, b);
    }

    /// A clock-free work counter: the exact number of slicing nodes one
    /// fixed-seed packing composes. Recomposing only the nodes around each
    /// move stays well below the `(n − 1) × moves` compositions of
    /// rebuilding every node per move.
    #[test]
    fn packing_composes_only_nodes_around_each_move() {
        let leaves: Vec<ShapeCurve> =
            (0..40).map(|i| ShapeCurve::from_macro(4 + i % 7, 3 + i % 5, i % 3 != 0)).collect();
        let config = config();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (_, compositions) = anneal_packing(&leaves, &config, &mut rng);
        let moves = (config.shape_curve_effort * leaves.len()) as u64;
        let rebuild_every_move = (leaves.len() as u64 - 1) * moves;
        assert!(compositions < rebuild_every_move, "{compositions} >= {rebuild_every_move}");
        assert_eq!(compositions, 26_076);
    }
}
