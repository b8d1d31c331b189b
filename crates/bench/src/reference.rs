//! Reference implementations that tests compare the current ones against.
//! They must produce exactly the same results: `tests/scale_sweep.rs`
//! checks the placer and HPWL at each scale point, the tests below check
//! the one-shot pipeline against a reused [`eval::Evaluator`], and
//! `tests/eco_fuzz.rs` re-derives ECO metrics with
//! [`evaluate_placement_reference`]. Every one of them reads the design's
//! one wiring, the CSR [`netlist::Connectivity`]; what they keep is the
//! older algorithm around it:
//!
//! * the pre-evaluation-session one-shot pipeline
//!   ([`evaluate_placement_reference`]: the dense placer with the
//!   rescan-every-pin Gauss–Seidel sweep, [`place_standard_cells_rescan`],
//!   plus the per-net driver × sink `NetGraph` construction and a fresh
//!   `SeqGraph` per call — what `eval::evaluate_placement` did before the
//!   reused [`eval::Evaluator`] existed),
//! * [`total_hpwl_reference`]: HPWL as a bounding box over each net's
//!   collected pin points, against [`eval::total_hpwl`]'s running extents.

use eval::{CellPlacement, EvalConfig, Hpwl, PlacementMetrics, PlacerConfig};
use geometry::{Orientation, Point, Rect};
use graphs::seqgraph::SeqGraphConfig;
use graphs::{NetGraph, SeqGraph};
use hidap::{MacroPlacement, PlacedMacro};
use netlist::design::{CellId, CellKind, Design};
use rand::{ChaCha8Rng, Rng, SeedableRng};

/// A deterministic macro grid placement, the fixture the reference
/// comparisons place standard cells around. `rotation` shifts which macro
/// lands in which grid slot, so rotations give distinct candidates.
pub fn grid_macro_placement(design: &Design, rotation: usize) -> MacroPlacement {
    let die = design.die();
    let macros: Vec<CellId> = design.macros().collect();
    let cols = (macros.len() as f64).sqrt().ceil() as i64;
    let mut placement = MacroPlacement::default();
    for (i, &m) in macros.iter().enumerate() {
        let cell = design.cell(m);
        let slot = (i + rotation) % macros.len();
        let col = slot as i64 % cols;
        let row = slot as i64 / cols;
        let x = (die.llx + col * die.width() / cols).min(die.urx - cell.width).max(die.llx);
        let y = (die.lly + row * die.height() / cols).min(die.ury - cell.height).max(die.lly);
        placement.macros.push(PlacedMacro {
            cell: m,
            location: Point::new(x, y),
            orientation: Orientation::N,
        });
    }
    placement
}

/// The pre-session dense standard-cell placer, preserved verbatim: the same
/// dense id-indexed stores as [`eval::place_standard_cells`], but with the
/// Gauss–Seidel sweep rescanning every pin of every incident net per cell
/// (Σ degree² pin visits per iteration) instead of maintaining per-net
/// running sums. Bit-identical output — the sums are exact integers, so the
/// traversal order never affects the result.
pub fn place_standard_cells_rescan(
    design: &Design,
    macro_placement: &MacroPlacement,
    config: &PlacerConfig,
) -> CellPlacement {
    let die = design.die();
    let die_center = die.center();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let csr = design.connectivity();
    let n = design.num_cells();

    let mut pos: Vec<Point> = vec![die_center; n];
    let mut is_fixed: Vec<bool> = vec![false; n];
    let area: Vec<i128> = design.cells().map(|(_, c)| c.area()).collect();
    let port_pos: Vec<Option<Point>> = design.ports().map(|(_, p)| p.position).collect();

    let mut macro_rects: Vec<Rect> = Vec::new();
    for (id, cell) in design.cells() {
        if cell.kind == CellKind::Macro {
            let (loc, orient) = macro_placement
                .placement_of(id)
                .map_or((die_center, Orientation::N), |m| (m.location, m.orientation));
            let (w, h) = orient.transformed_size(cell.width, cell.height);
            let rect = Rect::from_size(loc.x, loc.y, w, h);
            pos[id.0 as usize] = rect.center();
            macro_rects.push(rect);
            is_fixed[id.0 as usize] = true;
        }
    }

    let mut placed: Vec<bool> = is_fixed.clone();
    for (id, cell) in design.cells() {
        if cell.kind == CellKind::Macro {
            continue;
        }
        let mut sum = (0i128, 0i128);
        let mut count = 0i128;
        for &net in csr.nets_of(id) {
            for &pin in csr.pins(net) {
                if !pin.is_driver() {
                    continue;
                }
                if let Some(d) = pin.cell() {
                    if placed[d.0 as usize] {
                        let p = pos[d.0 as usize];
                        sum.0 += p.x as i128;
                        sum.1 += p.y as i128;
                        count += 1;
                    }
                } else if let Some(p) = pin.port().and_then(|p| port_pos[p.0 as usize]) {
                    sum.0 += p.x as i128;
                    sum.1 += p.y as i128;
                    count += 1;
                }
            }
        }
        let base = if count > 0 {
            Point::new((sum.0 / count) as i64, (sum.1 / count) as i64)
        } else {
            die_center
        };
        let jitter_x = rng.gen_range(-(die.width() / 64).max(1)..=(die.width() / 64).max(1));
        let jitter_y = rng.gen_range(-(die.height() / 64).max(1)..=(die.height() / 64).max(1));
        pos[id.0 as usize] = die.clamp_point(base.translated(jitter_x, jitter_y));
        placed[id.0 as usize] = true;
    }

    for _ in 0..config.iterations {
        for id in 0..n {
            if is_fixed[id] {
                continue;
            }
            let mut sum = (0i128, 0i128);
            let mut count = 0i128;
            for &net in csr.nets_of(CellId(id as u32)) {
                for &pin in csr.pins(net) {
                    if let Some(c) = pin.cell() {
                        if c.0 as usize != id {
                            let p = pos[c.0 as usize];
                            sum.0 += p.x as i128;
                            sum.1 += p.y as i128;
                            count += 1;
                        }
                    } else if let Some(p) = pin.port().and_then(|p| port_pos[p.0 as usize]) {
                        sum.0 += p.x as i128;
                        sum.1 += p.y as i128;
                        count += 1;
                    }
                }
            }
            if count > 0 {
                let target = Point::new((sum.0 / count) as i64, (sum.1 / count) as i64);
                pos[id] = die.clamp_point(target);
            }
        }
    }

    spread_dense(die, &mut pos, &is_fixed, &area, &macro_rects, config);
    CellPlacement { positions: pos.into_iter().map(Some).collect() }
}

/// The spreading phase of the pre-session dense placer (identical to the
/// current one — spreading was never the bottleneck).
fn spread_dense(
    die: Rect,
    pos: &mut [Point],
    is_fixed: &[bool],
    area: &[i128],
    macro_rects: &[Rect],
    config: &PlacerConfig,
) {
    let bins = config.bins.max(2);
    let bin_w = (die.width() as f64 / bins as f64).max(1.0);
    let bin_h = (die.height() as f64 / bins as f64).max(1.0);
    let bin_area = bin_w * bin_h;

    let mut capacity = vec![vec![0.0f64; bins]; bins];
    for (bx, row) in capacity.iter_mut().enumerate() {
        for (by, cap) in row.iter_mut().enumerate() {
            let bin_rect = Rect::new(
                die.llx + (bx as f64 * bin_w) as i64,
                die.lly + (by as f64 * bin_h) as i64,
                die.llx + ((bx + 1) as f64 * bin_w) as i64,
                die.lly + ((by + 1) as f64 * bin_h) as i64,
            );
            let macro_overlap: f64 =
                macro_rects.iter().map(|m| m.overlap_area(&bin_rect) as f64).sum();
            *cap = ((bin_area - macro_overlap) * config.target_utilization).max(0.0);
        }
    }

    let bin_of = |p: Point| -> (usize, usize) {
        let bx = (((p.x - die.llx) as f64 / bin_w) as usize).min(bins - 1);
        let by = (((p.y - die.lly) as f64 / bin_h) as usize).min(bins - 1);
        (bx, by)
    };

    for _ in 0..config.spreading_passes {
        let mut usage = vec![vec![0.0f64; bins]; bins];
        let mut members: Vec<Vec<CellId>> = vec![Vec::new(); bins * bins];
        for id in 0..pos.len() {
            if is_fixed[id] {
                continue;
            }
            let b = bin_of(pos[id]);
            usage[b.0][b.1] += area[id] as f64;
            members[b.0 * bins + b.1].push(CellId(id as u32));
        }
        let mut moved_any = false;
        for bx in 0..bins {
            for by in 0..bins {
                let over = usage[bx][by] - capacity[bx][by];
                if over <= 0.0 {
                    continue;
                }
                let mut cells = members[bx * bins + by].clone();
                cells.sort_by_key(|&c| area[c.0 as usize]);
                let mut to_free = over;
                for cell in cells {
                    if to_free <= 0.0 {
                        break;
                    }
                    if let Some((tx, ty)) = nearest_bin_with_room(&usage, &capacity, bins, bx, by) {
                        let target_center = Point::new(
                            die.llx + ((tx as f64 + 0.5) * bin_w) as i64,
                            die.lly + ((ty as f64 + 0.5) * bin_h) as i64,
                        );
                        let cell_area = area[cell.0 as usize] as f64;
                        usage[bx][by] -= cell_area;
                        usage[tx][ty] += cell_area;
                        to_free -= cell_area;
                        pos[cell.0 as usize] = die.clamp_point(target_center);
                        moved_any = true;
                    } else {
                        break;
                    }
                }
            }
        }
        if !moved_any {
            break;
        }
    }
}

fn nearest_bin_with_room(
    usage: &[Vec<f64>],
    capacity: &[Vec<f64>],
    bins: usize,
    bx: usize,
    by: usize,
) -> Option<(usize, usize)> {
    for radius in 1..bins {
        let mut best: Option<(f64, (usize, usize))> = None;
        let lo_x = bx.saturating_sub(radius);
        let hi_x = (bx + radius).min(bins - 1);
        let lo_y = by.saturating_sub(radius);
        let hi_y = (by + radius).min(bins - 1);
        for tx in lo_x..=hi_x {
            for ty in lo_y..=hi_y {
                if tx.abs_diff(bx).max(ty.abs_diff(by)) != radius {
                    continue;
                }
                let room = capacity[tx][ty] - usage[tx][ty];
                if room > 0.0 {
                    let d = (tx.abs_diff(bx) + ty.abs_diff(by)) as f64;
                    if best.as_ref().map(|(bd, _)| d < *bd).unwrap_or(true) {
                        best = Some((d, (tx, ty)));
                    }
                }
            }
        }
        if let Some((_, b)) = best {
            return Some(b);
        }
    }
    None
}

/// The pre-session one-shot evaluation pipeline: the rescan-sweep placer,
/// plus [`NetGraph::from_design_reference`] and a fresh `SeqGraph` rebuilt
/// on every call — what `evaluate_placement` did before the reused
/// [`eval::Evaluator`] session existed. Metrics are bit-identical to
/// `Evaluator::evaluate`; `reference_pipeline_matches_session_evaluator`
/// asserts it.
pub fn evaluate_placement_reference(
    design: &Design,
    macro_placement: &MacroPlacement,
    config: &EvalConfig,
) -> PlacementMetrics {
    let cell_placement = place_standard_cells_rescan(design, macro_placement, &config.placer);
    let hpwl = eval::total_hpwl(design, &cell_placement);
    let congestion = eval::congestion::estimate_congestion(
        design,
        &cell_placement,
        macro_placement,
        &config.congestion,
    );
    let gnet = NetGraph::from_design_reference(design);
    let gseq = SeqGraph::from_netgraph(design, &gnet, &SeqGraphConfig::default());
    let timing = eval::timing::estimate_timing(design, &gseq, &cell_placement, &config.timing);
    let density =
        eval::DensityMap::compute(design, &cell_placement, macro_placement, config.density_bins);
    PlacementMetrics {
        wirelength_m: hpwl.meters(config.dbu_per_micron),
        hpwl,
        congestion,
        timing,
        density,
        cell_placement,
    }
}

/// HPWL summed net by net: each net's placed pin points (cell positions and
/// placed ports) collected into a buffer and bounded with
/// [`Rect::bounding_box`]; nets with fewer than two points count for
/// nothing.
pub fn total_hpwl_reference(design: &Design, placement: &CellPlacement) -> Hpwl {
    let csr = design.connectivity();
    let mut total: i128 = 0;
    let mut routed = 0usize;
    let mut points: Vec<Point> = Vec::new();
    for net in design.net_ids() {
        points.clear();
        points.extend(csr.pins(net).iter().filter_map(|pin| match pin.cell() {
            Some(c) => placement.position(c),
            None => pin.port().and_then(|p| design.port(p).position),
        }));
        if points.len() < 2 {
            continue;
        }
        if let Some(bb) = Rect::bounding_box(points.iter().copied()) {
            total += (bb.width() + bb.height()) as i128;
            routed += 1;
        }
    }
    Hpwl { dbu: total, routed_nets: routed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::presets::generate_circuit;

    #[test]
    fn reference_pipeline_matches_session_evaluator() {
        let generated = generate_circuit("c1");
        let design = &generated.design;
        let cfg = EvalConfig::standard();
        let candidates: Vec<MacroPlacement> =
            (0..4).map(|c| grid_macro_placement(design, c * 7 + 1)).collect();

        // the preserved one-shot pipeline: a fresh Gseq per candidate
        let one_shot: Vec<PlacementMetrics> = candidates
            .iter()
            .map(|candidate| {
                // the rescan placer is bit-identical to the incremental-sum placer
                let rescan = place_standard_cells_rescan(design, candidate, &cfg.placer);
                assert_eq!(rescan, eval::place_standard_cells(design, candidate, &cfg.placer));
                evaluate_placement_reference(design, candidate, &cfg)
            })
            .collect();

        // one reused session
        let mut reused = eval::Evaluator::new(cfg);
        let serial: Vec<PlacementMetrics> =
            candidates.iter().map(|candidate| reused.evaluate(design, candidate)).collect();
        assert_eq!(one_shot, serial, "one-shot and reused-session metrics disagree");
        assert_eq!(reused.cache().stats().seq.misses, 1, "a reused session builds one Gseq");

        // per-thread clones of one session on two threads share its cache
        let session = eval::Evaluator::new(cfg);
        let parallel: Vec<PlacementMetrics> = std::thread::scope(|scope| {
            let workers: Vec<_> = candidates
                .chunks(2)
                .map(|chunk| {
                    let mut worker = session.clone();
                    scope.spawn(move || {
                        chunk.iter().map(|c| worker.evaluate(design, c)).collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("evaluation worker")).collect()
        });
        assert_eq!(one_shot, parallel, "one-shot and per-thread-clone metrics disagree");
        assert_eq!(session.cache().stats().seq.misses, 1, "the clones share one Gseq");
    }
}
