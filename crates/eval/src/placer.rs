//! Standard-cell placement substrate.
//!
//! A lightweight analytical placer in the spirit of quadratic placement with
//! grid-based spreading:
//!
//! 1. cells start at the centroid of the fixed objects they connect to
//!    (macros and ports), or at the die center,
//! 2. several Gauss–Seidel sweeps move every cell to the connectivity-weighted
//!    average position of its neighbours (the minimizer of the star-model
//!    quadratic wirelength),
//! 3. a spreading phase pushes cells out of over-full bins (macro bins have
//!    zero capacity) towards the nearest bins with free capacity.
//!
//! The result is *not* a legal detailed placement — it is a placement good
//! enough to measure wirelength, congestion and timing consistently across
//! macro-placement flows, which is how the paper uses its commercial placer.
//!
//! All per-cell state lives in dense id-indexed arrays and every netlist
//! traversal runs over the design's CSR [`netlist::Connectivity`], so
//! the Gauss–Seidel inner loop touches no hash map and no per-cell `Vec`s.
//! The sweeps maintain exact per-net position sums under each cell move
//! (Σ degree listing-visits per iteration instead of Σ degree² pin-visits),
//! which is bit-identical to rescanning every net's pins because the star
//! sums are integer arithmetic; `bench::reference` preserves the rescan
//! formulation, and its `reference_pipeline_matches_session_evaluator` test
//! asserts the equality.

use crate::grid::BinGrid;
use crate::wirelength::total_hpwl_with_ports;
use geometry::{Orientation, Point, Rect};
use netlist::dense::DenseMap;
use netlist::design::{CellId, CellKind, Design};
use netlist::PlacementView;
use rand::{ChaCha8Rng, Rng, SeedableRng};

/// Configuration of the standard-cell placer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerConfig {
    /// Number of Gauss–Seidel connectivity sweeps.
    pub iterations: usize,
    /// Number of spreading passes after the connectivity sweeps.
    pub spreading_passes: usize,
    /// Grid resolution (bins per die edge) used for spreading.
    pub bins: usize,
    /// Target utilization of each bin during spreading (0–1).
    pub target_utilization: f64,
    /// Random seed for tie-breaking jitter.
    pub seed: u64,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self { iterations: 12, spreading_passes: 4, bins: 32, target_utilization: 0.8, seed: 1 }
    }
}

/// The result of standard-cell placement: a location for every cell of the
/// design (macros keep their macro-placement location).
///
/// Positions live in a dense id-indexed store; cells outside the map (or with
/// an empty slot) are unplaced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellPlacement {
    /// Location of every cell (cell center), indexed densely by cell id.
    pub positions: DenseMap<CellId, Option<Point>>,
}

impl CellPlacement {
    /// An all-unplaced map covering `num_cells` cells.
    pub fn with_num_cells(num_cells: usize) -> Self {
        Self { positions: DenseMap::with_len(num_cells) }
    }

    /// Position of a cell.
    #[inline]
    pub fn position(&self, cell: CellId) -> Option<Point> {
        self.positions.get(cell).copied().flatten()
    }

    /// Places (or moves) a cell, growing the map as needed.
    pub fn set_position(&mut self, cell: CellId, position: Point) {
        self.positions.insert(cell, Some(position));
    }

    /// Iterates over the placed cells as `(cell, position)` in id order.
    pub fn placed(&self) -> impl Iterator<Item = (CellId, Point)> + '_ {
        self.positions.iter().filter_map(|(c, p)| p.map(|p| (c, p)))
    }

    /// Number of placed cells.
    pub fn num_placed(&self) -> usize {
        self.positions.values().filter(|p| p.is_some()).count()
    }
}

/// Places the standard cells of a design around a fixed macro placement.
///
/// `macro_placement` is any [`PlacementView`] giving each macro's lower-left
/// corner and orientation — the flow output (`hidap::MacroPlacement`), a
/// dense view or a hand-built `HashMap`.
pub fn place_standard_cells(
    design: &Design,
    macro_placement: &impl PlacementView,
    config: &PlacerConfig,
) -> CellPlacement {
    place_cells_impl(design, macro_placement, config, None).0
}

/// Warm-start variant of [`place_standard_cells`]: seeds the Gauss–Seidel
/// state from a previous [`CellPlacement`] instead of the centroid
/// initialization, and early-exits the sweep loop as soon as a sweep stops
/// improving HPWL. The HPWL of the working positions is computed exactly
/// (integer sums, no drift) in one pass over every net's pins before the
/// first sweep and after each sweep that moved a cell; the loop stops when a
/// sweep moves nothing or leaves the HPWL no lower than before it.
///
/// On a small ECO edit the seed is near the fixpoint, so the loop converges
/// in far fewer sweeps than the cold `config.iterations`; the second element
/// of the return value is the number of sweeps actually run. Cells the seed
/// does not cover (or covers outside the die) fall back to the cold
/// centroid-plus-jitter initialization, so a partially stale seed is safe.
/// The result is deterministic for a fixed `(design, seed placement,
/// config)` but is **not** in general bit-identical to the cold path — the
/// equality policy between warm and cold results is documented in
/// `docs/ECO.md`.
pub fn place_standard_cells_warm(
    design: &Design,
    macro_placement: &impl PlacementView,
    config: &PlacerConfig,
    warm: &CellPlacement,
) -> (CellPlacement, usize) {
    place_cells_impl(design, macro_placement, config, Some(warm))
}

fn place_cells_impl(
    design: &Design,
    macro_placement: &impl PlacementView,
    config: &PlacerConfig,
    warm: Option<&CellPlacement>,
) -> (CellPlacement, usize) {
    let die = design.die();
    let die_center = die.center();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let csr = design.connectivity();
    let n = design.num_cells();

    // Dense per-cell state: working positions, fixedness, area.
    let mut pos: Vec<Point> = vec![die_center; n];
    let mut is_fixed: Vec<bool> = vec![false; n];
    let area: Vec<i128> = design.cells().map(|(_, c)| c.area()).collect();
    // Port positions, fetched once.
    let port_pos: Vec<Option<Point>> = design.ports().map(|(_, p)| p.position).collect();

    // Fixed positions: macro centers and port locations.
    let mut macro_rects: Vec<Rect> = Vec::new();
    for (id, cell) in design.cells() {
        if cell.kind == CellKind::Macro {
            let (loc, orient) =
                macro_placement.placement(id).unwrap_or((die_center, Orientation::N));
            let (w, h) = orient.transformed_size(cell.width, cell.height);
            let rect = Rect::from_size(loc.x, loc.y, w, h);
            pos[id.0 as usize] = rect.center();
            macro_rects.push(rect);
            is_fixed[id.0 as usize] = true;
        }
    }

    // Initial positions: centroid of connected already-placed drivers
    // (macros, ports, and cells initialized earlier in this very sweep), else
    // die center with a small deterministic jitter so co-located cells can
    // spread.
    //
    // Instead of rescanning every pin of every incident net per cell
    // (Σ degree² work), per-net running sums of the placed driver positions
    // are maintained and updated as cells place — exact integer arithmetic,
    // so the result is bit-identical to the rescan.
    let num_nets = design.num_nets();
    let mut drv_sum_x = vec![0i128; num_nets];
    let mut drv_sum_y = vec![0i128; num_nets];
    let mut drv_count = vec![0i128; num_nets];
    for net in design.net_ids() {
        for &pin in csr.pins(net) {
            if !pin.is_driver() {
                continue;
            }
            let p = match pin.cell() {
                // only macros are placed before the init sweep starts
                Some(d) => is_fixed[d.0 as usize].then(|| pos[d.0 as usize]),
                None => pin.port().and_then(|p| port_pos[p.0 as usize]),
            };
            if let Some(p) = p {
                let i = net.0 as usize;
                drv_sum_x[i] += p.x as i128;
                drv_sum_y[i] += p.y as i128;
                drv_count[i] += 1;
            }
        }
    }
    for (id, cell) in design.cells() {
        if cell.kind == CellKind::Macro {
            continue;
        }
        // Warm seed: adopt the previous position (no jitter draw — the RNG
        // is only consulted for cells the seed does not cover, keeping the
        // warm path deterministic for a fixed seed placement).
        if let Some(w) = warm.and_then(|w| w.position(id)).filter(|p| die.contains(*p)) {
            pos[id.0 as usize] = w;
            for &net in csr.fanout(id) {
                let i = net.0 as usize;
                drv_sum_x[i] += w.x as i128;
                drv_sum_y[i] += w.y as i128;
                drv_count[i] += 1;
            }
            continue;
        }
        let mut sum = (0i128, 0i128);
        let mut count = 0i128;
        for &net in csr.nets_of(id) {
            sum.0 += drv_sum_x[net.0 as usize];
            sum.1 += drv_sum_y[net.0 as usize];
            count += drv_count[net.0 as usize];
        }
        let base = if count > 0 {
            Point::new((sum.0 / count) as i64, (sum.1 / count) as i64)
        } else {
            die_center
        };
        let jitter_x = rng.gen_range(-(die.width() / 64).max(1)..=(die.width() / 64).max(1));
        let jitter_y = rng.gen_range(-(die.height() / 64).max(1)..=(die.height() / 64).max(1));
        let placed_at = die.clamp_point(base.translated(jitter_x, jitter_y));
        pos[id.0 as usize] = placed_at;
        // this cell's driver pins now count for cells initialized after it
        for &net in csr.fanout(id) {
            let i = net.0 as usize;
            drv_sum_x[i] += placed_at.x as i128;
            drv_sum_y[i] += placed_at.y as i128;
            drv_count[i] += 1;
        }
    }

    // Gauss–Seidel sweeps over the star wirelength model: every cell moves to
    // the average position of the other pins on its nets. The sums are exact
    // integer arithmetic, so pin order inside a net does not affect the
    // result — which is what makes the incremental formulation below
    // bit-identical to a per-cell rescan of every net's pins.
    //
    // Per net, `S_n` = Σ positions of all its pins (every cell pin at its
    // current working position, plus the placed ports) and `C_n` = that pin
    // count. A cell's star target is Σ_n (S_n − occ·p_cell) / Σ_n (C_n − occ)
    // over its incident net listings, where `occ` is how many pins the cell
    // itself has on the net; after the move, each incident net's sum shifts
    // by the position delta once per pin. This turns the sweep from
    // Σ degree² pin visits per iteration into Σ degree listing visits.
    let mut net_sum_x = vec![0i128; num_nets];
    let mut net_sum_y = vec![0i128; num_nets];
    let mut net_count = vec![0i128; num_nets];
    for net in design.net_ids() {
        for &pin in csr.pins(net) {
            let p = match pin.cell() {
                Some(c) => Some(pos[c.0 as usize]),
                None => pin.port().and_then(|p| port_pos[p.0 as usize]),
            };
            if let Some(p) = p {
                let i = net.0 as usize;
                net_sum_x[i] += p.x as i128;
                net_sum_y[i] += p.y as i128;
                net_count[i] += 1;
            }
        }
    }
    // occurrences of the owning cell on each of its incident net listings
    // (flat, aligned with the concatenation of `nets_of(cell)` slices): a
    // cell that both drives and sinks a net has occ 2 on both listings
    let occ: Vec<i128> = {
        let mut occ = Vec::with_capacity(csr.num_pins());
        for id in design.cell_ids() {
            let listings = csr.nets_of(id);
            for &net in listings {
                occ.push(listings.iter().filter(|&&m| m == net).count() as i128);
            }
        }
        occ
    };
    let mut occ_start = vec![0usize; n + 1];
    for id in 0..n {
        occ_start[id + 1] = occ_start[id] + csr.nets_of(CellId(id as u32)).len();
    }
    // Warm runs stop as soon as a sweep that moved a cell did not lower the
    // HPWL of the working positions (one full pass before the first sweep
    // and after each moving one); cold runs keep the fixed iteration count.
    let hpwl =
        |pos: &[Point]| total_hpwl_with_ports(design, |c| Some(pos[c.0 as usize]), &port_pos).dbu;
    let mut warm_hpwl = warm.map(|_| hpwl(&pos));
    let mut sweeps_run = 0usize;
    for _ in 0..config.iterations {
        sweeps_run += 1;
        let mut moved_any = false;
        for id in 0..n {
            if is_fixed[id] {
                continue;
            }
            let listings = csr.nets_of(CellId(id as u32));
            let old = pos[id];
            let mut sum = (0i128, 0i128);
            let mut count = 0i128;
            for (j, &net) in listings.iter().enumerate() {
                let o = occ[occ_start[id] + j];
                let i = net.0 as usize;
                sum.0 += net_sum_x[i] - o * old.x as i128;
                sum.1 += net_sum_y[i] - o * old.y as i128;
                count += net_count[i] - o;
            }
            if count > 0 {
                let target = Point::new((sum.0 / count) as i64, (sum.1 / count) as i64);
                let new = die.clamp_point(target);
                if new != old {
                    let dx = (new.x - old.x) as i128;
                    let dy = (new.y - old.y) as i128;
                    // one update per listing = one update per pin of the cell
                    for &net in listings {
                        let i = net.0 as usize;
                        net_sum_x[i] += dx;
                        net_sum_y[i] += dy;
                    }
                    pos[id] = new;
                    moved_any = true;
                }
            }
        }
        if let Some(before) = warm_hpwl.as_mut() {
            if !moved_any {
                break;
            }
            let after = hpwl(&pos);
            if after >= *before {
                break;
            }
            *before = after;
        }
    }

    // Spreading: push cells out of over-full bins (macros occupy capacity).
    spread(die, &mut pos, &is_fixed, &area, &macro_rects, config);

    (CellPlacement { positions: pos.into_iter().map(Some).collect() }, sweeps_run)
}

fn spread(
    die: Rect,
    pos: &mut [Point],
    is_fixed: &[bool],
    area: &[i128],
    macro_rects: &[Rect],
    config: &PlacerConfig,
) {
    let grid = BinGrid::new(die, config.bins);
    let bins = grid.bins();
    let bin_area = grid.bin_area();

    // Free capacity per bin: bin area minus macro overlap, times utilization.
    let capacity: Vec<f64> = grid
        .macro_coverage(macro_rects)
        .into_iter()
        .map(|macro_overlap| ((bin_area - macro_overlap) * config.target_utilization).max(0.0))
        .collect();

    for _ in 0..config.spreading_passes {
        // Usage and membership per bin, accumulated in cell-id order.
        let mut usage = vec![0.0f64; bins * bins];
        let mut members: Vec<Vec<CellId>> = vec![Vec::new(); bins * bins];
        for id in 0..pos.len() {
            if is_fixed[id] {
                continue;
            }
            let (bx, by) = grid.bin_of(pos[id]);
            usage[bx * bins + by] += area[id] as f64;
            members[bx * bins + by].push(CellId(id as u32));
        }
        // Move cells from over-full bins to the nearest bin with headroom.
        let mut moved_any = false;
        for bx in 0..bins {
            for by in 0..bins {
                let b = bx * bins + by;
                let over = usage[b] - capacity[b];
                if over <= 0.0 {
                    continue;
                }
                // move the smallest cells first until the bin fits
                let mut cells = std::mem::take(&mut members[b]);
                cells.sort_by_key(|&c| area[c.0 as usize]);
                let mut to_free = over;
                // The nearest-bin search only depends on the free room of
                // *other* bins, and moves out of this bin change exactly one
                // of them (the target). So the search result stays valid
                // until the cached target runs out of room — re-searching
                // per moved cell (O(moved × bins²) at scale) returns the
                // same bin bit for bit.
                let mut cached_target: Option<(usize, usize)> = None;
                for cell in cells {
                    if to_free <= 0.0 {
                        break;
                    }
                    let target = match cached_target {
                        Some((tx, ty))
                            if capacity[tx * bins + ty] - usage[tx * bins + ty] > 0.0 =>
                        {
                            Some((tx, ty))
                        }
                        _ => {
                            cached_target = nearest_bin_with_room(&usage, &capacity, bins, bx, by);
                            cached_target
                        }
                    };
                    if let Some((tx, ty)) = target {
                        let cell_area = area[cell.0 as usize] as f64;
                        usage[b] -= cell_area;
                        usage[tx * bins + ty] += cell_area;
                        to_free -= cell_area;
                        pos[cell.0 as usize] = die.clamp_point(grid.bin_center(tx, ty));
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
    usage: &[f64],
    capacity: &[f64],
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
                let room = capacity[tx * bins + ty] - usage[tx * bins + ty];
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

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::design::{DesignBuilder, PortDirection};
    use std::collections::HashMap;

    fn design_with_macro_and_cells() -> (Design, CellId) {
        let mut b = DesignBuilder::new("t");
        let m = b.add_macro("ram", "RAM", 200, 200, "");
        let p = b.add_port("in", PortDirection::Input);
        b.place_port(p, Point::new(0, 500));
        // a chain of cells from the port to the macro
        let mut prev_net = b.add_net("n_in");
        b.connect_port_driver(prev_net, p);
        for i in 0..10 {
            let c = b.add_comb(format!("c{i}"), "");
            b.connect_sink(prev_net, c);
            let n = b.add_net(format!("n{i}"));
            b.connect_driver(n, c);
            prev_net = n;
        }
        b.connect_sink(prev_net, m);
        b.set_die(Rect::new(0, 0, 1000, 1000));
        (b.build(), m)
    }

    #[test]
    fn all_cells_get_positions_inside_die() {
        let (d, m) = design_with_macro_and_cells();
        let mut mp = HashMap::new();
        mp.insert(m, (Point::new(700, 400), Orientation::N));
        let placement = place_standard_cells(&d, &mp, &PlacerConfig::default());
        assert_eq!(placement.positions.len(), d.num_cells());
        assert_eq!(placement.num_placed(), d.num_cells());
        for (_, p) in placement.placed() {
            assert!(d.die().contains(p));
        }
    }

    #[test]
    fn macro_keeps_its_center() {
        let (d, m) = design_with_macro_and_cells();
        let mut mp = HashMap::new();
        mp.insert(m, (Point::new(700, 400), Orientation::N));
        let placement = place_standard_cells(&d, &mp, &PlacerConfig::default());
        assert_eq!(placement.position(m).unwrap(), Point::new(800, 500));
    }

    #[test]
    fn chain_cells_sit_between_port_and_macro() {
        let (d, m) = design_with_macro_and_cells();
        let mut mp = HashMap::new();
        mp.insert(m, (Point::new(800, 400), Orientation::N));
        let placement = place_standard_cells(&d, &mp, &PlacerConfig::default());
        // the middle of the chain should be strictly between the port (x=0)
        // and the macro center (x=900)
        let mid = d.find_cell("c5").unwrap();
        let p = placement.position(mid).unwrap();
        assert!(p.x > 0 && p.x < 900, "chain cell at {p}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let (d, m) = design_with_macro_and_cells();
        let mut mp = HashMap::new();
        mp.insert(m, (Point::new(700, 400), Orientation::N));
        let a = place_standard_cells(&d, &mp, &PlacerConfig::default());
        let b = place_standard_cells(&d, &mp, &PlacerConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn unplaced_cells_report_none() {
        let (d, m) = design_with_macro_and_cells();
        let placement = CellPlacement::with_num_cells(d.num_cells());
        assert_eq!(placement.position(m), None);
        assert_eq!(placement.num_placed(), 0);
        let mut placement = placement;
        placement.set_position(m, Point::new(1, 2));
        assert_eq!(placement.position(m), Some(Point::new(1, 2)));
        assert_eq!(placement.num_placed(), 1);
    }

    #[test]
    fn warm_start_is_deterministic_and_converges_early() {
        let (d, m) = design_with_macro_and_cells();
        let mut mp = HashMap::new();
        mp.insert(m, (Point::new(700, 400), Orientation::N));
        let cfg = PlacerConfig::default();
        let cold = place_standard_cells(&d, &mp, &cfg);
        let (warm_a, sweeps_a) = place_standard_cells_warm(&d, &mp, &cfg, &cold);
        let (warm_b, sweeps_b) = place_standard_cells_warm(&d, &mp, &cfg, &cold);
        assert_eq!(warm_a, warm_b, "warm start is deterministic for a fixed seed placement");
        assert_eq!(sweeps_a, sweeps_b);
        assert!(
            sweeps_a < cfg.iterations,
            "a converged seed must early-exit the sweep loop (ran {sweeps_a} of {})",
            cfg.iterations
        );
        assert_eq!(warm_a.num_placed(), d.num_cells());
        for (_, p) in warm_a.placed() {
            assert!(d.die().contains(p));
        }
    }

    #[test]
    fn warm_start_falls_back_on_uncovered_cells() {
        let (d, m) = design_with_macro_and_cells();
        let mut mp = HashMap::new();
        mp.insert(m, (Point::new(700, 400), Orientation::N));
        // a seed that covers nothing (and one out-of-die position) still
        // places every cell
        let mut stale = CellPlacement::with_num_cells(d.num_cells());
        stale.set_position(d.find_cell("c0").unwrap(), Point::new(-5000, -5000));
        let (warm, sweeps) = place_standard_cells_warm(&d, &mp, &PlacerConfig::default(), &stale);
        assert_eq!(warm.num_placed(), d.num_cells());
        assert!(sweeps >= 1);
        for (_, p) in warm.placed() {
            assert!(d.die().contains(p));
        }
    }

    #[test]
    fn spreading_reduces_peak_bin_usage() {
        // many unconnected cells all start at the die center; spreading must
        // distribute them across bins
        let mut b = DesignBuilder::new("t");
        for i in 0..500 {
            b.add_comb(format!("c{i}"), "");
        }
        b.set_die(Rect::new(0, 0, 320, 320));
        let d = b.build();
        let cfg = PlacerConfig { bins: 8, target_utilization: 0.5, ..Default::default() };
        let no_macros: HashMap<CellId, (Point, Orientation)> = HashMap::new();
        let placement = place_standard_cells(&d, &no_macros, &cfg);
        // count cells per bin
        let mut counts = vec![vec![0usize; 8]; 8];
        for (_, p) in placement.placed() {
            let bx = ((p.x as f64 / 40.0) as usize).min(7);
            let by = ((p.y as f64 / 40.0) as usize).min(7);
            counts[bx][by] += 1;
        }
        let peak = counts.iter().flatten().copied().max().unwrap();
        assert!(peak < 500, "cells must not all stay in one bin (peak {peak})");
    }
}
