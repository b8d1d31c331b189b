//! Standard-cell placement substrate.
//!
//! A lightweight analytical placer in the spirit of quadratic placement with
//! grid-based spreading:
//!
//! 1. each cell starts at the centroid of its nets' placed drivers (macros,
//!    input ports and cells initialized earlier in id order; the die center
//!    when there are none) plus a seeded jitter, clamped to the die — or, in
//!    a warm run, at its seed position,
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
//! asserts the equality. The sums run in `i64` when the largest coordinate
//! times a bound on the coordinates one star sum adds fits, and in `i128`
//! past that bound, one generic kernel instantiated at both widths.

use crate::exact::{area_f64, fits_i64, Acc};
use crate::grid::BinGrid;
use crate::wirelength::total_hpwl_with_ports;
use geometry::{Point, Rect};
use netlist::dense::DenseMap;
use netlist::design::{CellId, CellKind, Design};
use netlist::MacroPlacement;
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
/// `macro_placement` gives each macro's lower-left corner and orientation; a
/// macro it does not place sits, unrotated, with its lower-left corner at
/// the die center.
pub fn place_standard_cells(
    design: &Design,
    macro_placement: &MacroPlacement,
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
    macro_placement: &MacroPlacement,
    config: &PlacerConfig,
    warm: &CellPlacement,
) -> (CellPlacement, usize) {
    place_cells_impl(design, macro_placement, config, Some(warm))
}

fn place_cells_impl(
    design: &Design,
    macro_placement: &MacroPlacement,
    config: &PlacerConfig,
    warm: Option<&CellPlacement>,
) -> (CellPlacement, usize) {
    let die = design.die();
    let die_center = die.center();
    let n = design.num_cells();

    // Dense per-cell state: working positions and fixedness.
    let mut pos: Vec<Point> = vec![die_center; n];
    let mut is_fixed: Vec<bool> = vec![false; n];
    // Port positions, fetched once.
    let port_pos: Vec<Option<Point>> = design.ports().map(|(_, p)| p.position).collect();

    // Fixed positions: macro centers.
    let mut macro_rects: Vec<Rect> = Vec::new();
    for (id, cell) in design.cells() {
        if cell.kind == CellKind::Macro {
            let rect = macro_placement.rect_of(id, design).unwrap_or_else(|| {
                Rect::from_size(die_center.x, die_center.y, cell.width, cell.height)
            });
            pos[id.0 as usize] = rect.center();
            macro_rects.push(rect);
            is_fixed[id.0 as usize] = true;
        }
    }

    // Every value the star sums form is at most `reach · weight` in
    // magnitude. `reach` bounds every coordinate (at least 1, so the pin
    // counts are covered too): free cells only ever sit inside the die, the
    // rest at a macro center or a port. A net's running sum stays within
    // pins(n) + 2 · listings(n) coordinates: its pins, plus one displacement
    // per listing without a pin behind it (a re-driven net's stale fanout).
    // A cell lists each net at most `max_occ` times and subtracts `occ`
    // copies of its own position per listing, so its sum stays within
    // `weight` = max_occ · (pins + 3 · listings) over the whole design.
    let occ = occurrences(design);
    let max_occ = occ.iter().copied().max().unwrap_or(0);
    let pins = design.connectivity().num_pins() as u128;
    let weight = u128::from(max_occ) * (pins + 3 * occ.len() as u128);
    let fixed = pos.iter().zip(&is_fixed).filter_map(|(&p, &fixed)| fixed.then_some(p));
    let reach = [die.lower_left(), Point::new(die.urx, die.ury)]
        .into_iter()
        .chain(fixed)
        .chain(port_pos.iter().flatten().copied())
        .map(|p| p.x.unsigned_abs().max(p.y.unsigned_abs()))
        .max()
        .unwrap_or(0)
        .max(1);
    let sweeps_run = if fits_i64(u128::from(reach).saturating_mul(weight)) {
        star_place::<i64>(design, config, warm, &mut pos, &is_fixed, &port_pos, &occ)
    } else {
        star_place::<i128>(design, config, warm, &mut pos, &is_fixed, &port_pos, &occ)
    };

    // Spreading: push cells out of over-full bins (macros occupy capacity).
    spread(design, &mut pos, &is_fixed, &macro_rects, config);

    (CellPlacement { positions: pos.into_iter().map(Some).collect() }, sweeps_run)
}

/// How often each cell appears on each of its net listings, flat and aligned
/// with the concatenation of the `nets_of` slices in cell-id order (a cell
/// that both drives and sinks a net has 2 on both listings), counted with
/// one per-net scratch counter in O(degree) per cell.
fn occurrences(design: &Design) -> Vec<u32> {
    let csr = design.connectivity();
    let mut seen = vec![0u32; design.num_nets()];
    let mut occ = Vec::with_capacity(csr.num_pins());
    for id in design.cell_ids() {
        let listings = csr.nets_of(id);
        for &net in listings {
            seen[net.0 as usize] += 1;
        }
        occ.extend(listings.iter().map(|net| seen[net.0 as usize]));
        for &net in listings {
            seen[net.0 as usize] = 0;
        }
    }
    occ
}

/// The centroid initialization and the Gauss–Seidel sweeps, with every star
/// sum in the accumulator `T`. Leaves the working positions in `pos` and
/// returns the number of sweeps run.
fn star_place<T: Acc>(
    design: &Design,
    config: &PlacerConfig,
    warm: Option<&CellPlacement>,
    pos: &mut [Point],
    is_fixed: &[bool],
    port_pos: &[Option<Point>],
    occ: &[u32],
) -> usize {
    let die = design.die();
    let die_center = die.center();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let csr = design.connectivity();
    let one = T::from(1);

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
    let mut drv_sum_x = vec![T::ZERO; num_nets];
    let mut drv_sum_y = vec![T::ZERO; num_nets];
    let mut drv_count = vec![T::ZERO; num_nets];
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
                drv_sum_x[i] += T::from(p.x);
                drv_sum_y[i] += T::from(p.y);
                drv_count[i] += one;
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
                drv_sum_x[i] += T::from(w.x);
                drv_sum_y[i] += T::from(w.y);
                drv_count[i] += one;
            }
            continue;
        }
        let mut sum = (T::ZERO, T::ZERO);
        let mut count = T::ZERO;
        for &net in csr.nets_of(id) {
            sum.0 += drv_sum_x[net.0 as usize];
            sum.1 += drv_sum_y[net.0 as usize];
            count += drv_count[net.0 as usize];
        }
        let base = if count > T::ZERO {
            Point::new((sum.0 / count).to_i64(), (sum.1 / count).to_i64())
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
            drv_sum_x[i] += T::from(placed_at.x);
            drv_sum_y[i] += T::from(placed_at.y);
            drv_count[i] += one;
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
    let mut net_sum_x = vec![T::ZERO; num_nets];
    let mut net_sum_y = vec![T::ZERO; num_nets];
    let mut net_count = vec![T::ZERO; num_nets];
    for net in design.net_ids() {
        for &pin in csr.pins(net) {
            let p = match pin.cell() {
                Some(c) => Some(pos[c.0 as usize]),
                None => pin.port().and_then(|p| port_pos[p.0 as usize]),
            };
            if let Some(p) = p {
                let i = net.0 as usize;
                net_sum_x[i] += T::from(p.x);
                net_sum_y[i] += T::from(p.y);
                net_count[i] += one;
            }
        }
    }
    // Warm runs stop as soon as a sweep that moved a cell did not lower the
    // HPWL of the working positions (one full pass before the first sweep
    // and after each moving one); cold runs keep the fixed iteration count.
    let hpwl =
        |pos: &[Point]| total_hpwl_with_ports(design, |c| Some(pos[c.0 as usize]), port_pos).dbu;
    let mut warm_hpwl = warm.map(|_| hpwl(pos));
    let mut sweeps_run = 0usize;
    for _ in 0..config.iterations {
        sweeps_run += 1;
        let mut moved_any = false;
        let mut at = 0;
        for id in 0..pos.len() {
            let listings = csr.nets_of(CellId(id as u32));
            let occ = &occ[at..at + listings.len()];
            at += listings.len();
            if is_fixed[id] {
                continue;
            }
            let old = pos[id];
            let mut sum = (T::ZERO, T::ZERO);
            let mut count = T::ZERO;
            for (&net, &o) in listings.iter().zip(occ) {
                let o = T::from(i64::from(o));
                let i = net.0 as usize;
                sum.0 += net_sum_x[i] - o * T::from(old.x);
                sum.1 += net_sum_y[i] - o * T::from(old.y);
                count += net_count[i] - o;
            }
            if count > T::ZERO {
                let target = Point::new((sum.0 / count).to_i64(), (sum.1 / count).to_i64());
                let new = die.clamp_point(target);
                if new != old {
                    let dx = T::from(new.x) - T::from(old.x);
                    let dy = T::from(new.y) - T::from(old.y);
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
            let after = hpwl(pos);
            if after >= *before {
                break;
            }
            *before = after;
        }
    }
    sweeps_run
}

fn spread(
    design: &Design,
    pos: &mut [Point],
    is_fixed: &[bool],
    macro_rects: &[Rect],
    config: &PlacerConfig,
) {
    let die = design.die();
    // The usage sums add each cell's area as `f64`, converted once; the
    // smallest-first order compares the exact `Cell::area`, since `f64`
    // would tie distinct areas past 2^53.
    let area: Vec<f64> = design.cells().map(|(_, c)| area_f64(c.width, c.height)).collect();
    let grid = BinGrid::new(die, config.bins);
    let bins = grid.bins();
    let bin_area = grid.bin_area();

    // Free capacity per bin: bin area minus macro overlap, times utilization.
    let capacity: Vec<f64> = grid
        .macro_coverage(macro_rects)
        .into_iter()
        .map(|macro_overlap| ((bin_area - macro_overlap) * config.target_utilization).max(0.0))
        .collect();

    // Each free cell's bin, kept across passes: only a moved cell's changes.
    let bin_index = |p: Point| {
        let (bx, by) = grid.bin_of(p);
        bx * bins + by
    };
    let mut cell_bin: Vec<usize> =
        pos.iter().zip(is_fixed).map(|(&p, &fixed)| if fixed { 0 } else { bin_index(p) }).collect();
    // The free cells of each pass, counting-sorted by bin in cell-id order:
    // bin `b` holds `members[start[b]..start[b + 1]]`.
    let mut start = vec![0usize; bins * bins + 1];
    let mut members: Vec<CellId> = Vec::new();
    for _ in 0..config.spreading_passes {
        // Usage per bin, accumulated in cell-id order.
        let mut usage = vec![0.0f64; bins * bins];
        start.fill(0);
        for id in 0..pos.len() {
            if !is_fixed[id] {
                usage[cell_bin[id]] += area[id];
                start[cell_bin[id]] += 1;
            }
        }
        // no bin over-full: nothing would move
        if usage.iter().zip(&capacity).all(|(&u, &c)| u - c <= 0.0) {
            break;
        }
        // running totals make `start[b]` the end of bin `b`; the fill below,
        // in falling id order, walks each back to its bin's beginning
        for b in 1..bins * bins {
            start[b] += start[b - 1];
        }
        start[bins * bins] = start[bins * bins - 1];
        members.resize(start[bins * bins], CellId(0));
        for id in (0..pos.len()).rev() {
            if !is_fixed[id] {
                start[cell_bin[id]] -= 1;
                members[start[cell_bin[id]]] = CellId(id as u32);
            }
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
                let cells = &mut members[start[b]..start[b + 1]];
                cells.sort_by_key(|&c| design.cell(c).area());
                let mut to_free = over;
                // The nearest-bin search only depends on the free room of
                // *other* bins, and moves out of this bin change exactly one
                // of them (the target). So the search result stays valid
                // until the cached target runs out of room — re-searching
                // per moved cell (O(moved × bins²) at scale) returns the
                // same bin bit for bit.
                let mut cached_target: Option<(usize, usize)> = None;
                for &cell in cells.iter() {
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
                        let cell_area = area[cell.0 as usize];
                        usage[b] -= cell_area;
                        usage[tx * bins + ty] += cell_area;
                        to_free -= cell_area;
                        let to = die.clamp_point(grid.bin_center(tx, ty));
                        pos[cell.0 as usize] = to;
                        cell_bin[cell.0 as usize] = bin_index(to);
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
    use geometry::Orientation;
    use netlist::design::{DesignBuilder, PortDirection};
    use netlist::PlacedMacro;

    /// One unrotated macro with its lower-left corner at `(x, y)`.
    fn at(cell: CellId, x: i64, y: i64) -> MacroPlacement {
        [PlacedMacro::new(cell, Point::new(x, y), Orientation::N)].into_iter().collect()
    }

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
        let mp = at(m, 700, 400);
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
        let mp = at(m, 700, 400);
        let placement = place_standard_cells(&d, &mp, &PlacerConfig::default());
        assert_eq!(placement.position(m).unwrap(), Point::new(800, 500));
    }

    #[test]
    fn chain_cells_sit_between_port_and_macro() {
        let (d, m) = design_with_macro_and_cells();
        let mp = at(m, 800, 400);
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
        let mp = at(m, 700, 400);
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
        let mp = at(m, 700, 400);
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
        let mp = at(m, 700, 400);
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
    fn occurrences_match_the_quadratic_count() {
        // one wide cell listing 1,024 nets 1–4 times each: once as a sink,
        // then once per time it drove the net before another cell re-drove
        // it (every driver change stays in the fanout)
        let mut b = DesignBuilder::new("t");
        let wide = b.add_comb("wide", "");
        let other = b.add_comb("other", "");
        for i in 0..1024 {
            let n = b.add_net(format!("n{i}"));
            let c = b.add_comb(format!("c{i}"), "");
            b.connect_sink(n, c);
            b.connect_sink(n, wide);
            for _ in 0..i % 4 {
                b.connect_driver(n, wide);
                b.connect_driver(n, other);
            }
        }
        let d = b.build();
        let csr = d.connectivity();
        let mut quadratic = Vec::new();
        for id in d.cell_ids() {
            let listings = csr.nets_of(id);
            quadratic.extend(listings.iter().map(|n| listings.iter().filter(|&m| m == n).count()));
        }
        let occ = occurrences(&d);
        assert_eq!(occ.iter().map(|&o| o as usize).collect::<Vec<_>>(), quadratic);
        let listed = csr.nets_of(wide);
        let most = (1..=4).map(|k| occ[..listed.len()].iter().filter(|&&o| o == k).count());
        assert_eq!(most.collect::<Vec<_>>(), [256, 2 * 256, 3 * 256, 4 * 256]);
    }

    #[test]
    fn area_f64_equals_the_i128_conversion() {
        let sides = [0, 1, 7, 3_037_000_499, 3_037_000_500, 1 << 40, i64::MAX, -5, i64::MIN + 1];
        for &w in &sides {
            for &h in &sides {
                let exact = (w as i128 * h as i128) as f64;
                assert_eq!(crate::exact::area_f64(w, h).to_bits(), exact.to_bits(), "{w} × {h}");
            }
        }
    }

    #[test]
    fn i64_and_i128_kernels_agree_on_c1_cold_and_warm() {
        use crate::exact::{i128_runs, with_i128};
        use crate::{EvalConfig, Evaluator};
        let design = workload::presets::generate_circuit("c1").design;
        let die = design.die();
        let macros: Vec<CellId> = design.macros().collect();
        let cols = (macros.len() as f64).sqrt().ceil() as i64;
        let grid = |shift: usize| -> MacroPlacement {
            let slot = |i: usize| ((i + shift) % macros.len()) as i64;
            let corner = |i: usize, m: CellId| {
                let cell = design.cell(m);
                let x = die.llx + slot(i) % cols * die.width() / cols;
                let y = die.lly + slot(i) / cols * die.height() / cols;
                Point::new(x.min(die.urx - cell.width), y.min(die.ury - cell.height))
            };
            macros
                .iter()
                .enumerate()
                .map(|(i, &m)| PlacedMacro::new(m, corner(i, m), Orientation::N))
                .collect()
        };
        let (first, second) = (grid(0), grid(3));
        // cold, warm after every macro moved, and warm again on the same
        // macros (an early exit)
        let run = || {
            let mut evaluator = Evaluator::new(EvalConfig::standard());
            let cold = evaluator.evaluate(&design, &first);
            let moved = evaluator.evaluate_warm(&design, &second, &cold.cell_placement);
            let settled = evaluator.evaluate_warm(&design, &second, &moved.0.cell_placement);
            (cold, moved, settled)
        };
        let before = i128_runs();
        let narrow = run();
        assert_eq!(i128_runs(), before, "c1 lies inside every i64 bound");
        let wide = with_i128(run);
        assert!(i128_runs() > before, "the override reaches the kernels");
        assert_eq!(narrow.0, wide.0, "cold metrics");
        assert_eq!(narrow.1, wide.1, "warm metrics and sweep count after the move");
        assert_eq!(narrow.2, wide.2, "warm metrics and sweep count on settled macros");
        assert!(narrow.2 .1 < PlacerConfig::default().iterations, "no early exit");
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
        let placement = place_standard_cells(&d, &MacroPlacement::default(), &cfg);
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
