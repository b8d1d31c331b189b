//! The IndEDA-style baseline: a flat, connectivity-driven macro placer.
//!
//! This models the behaviour of the commercial floorplanner the paper
//! compares against: it sees only the flattened netlist (no hierarchy, no
//! array/dataflow information), optimizes net-based wirelength with simulated
//! annealing over macro positions, and biases macros towards the die
//! periphery so the core area stays free for standard cells — which is
//! exactly the strategy whose shortcomings motivate HiDaP.
//!
//! Moves are scored by **true netlist HPWL deltas** through an
//! [`eval::IncrementalHpwl`] session over the design's CSR connectivity
//! (ports at their fixed positions, macros at their current centers): a move
//! costs `O(Σ degree(nets of the moved macro))` instead of the full
//! macro-net rescan the annealer used to pay per proposal, and the
//! wirelength the annealer optimizes is exactly the quantity the evaluation
//! pipeline measures. The periphery-bias and overlap terms are likewise
//! applied as per-move deltas.

use eval::{CellPlacement, IncrementalHpwl};
use geometry::{Orientation, Point, Rect};
use hidap::legalize::{legalize_macros, MacroFootprint, MacroFootprints};
use hidap::HidapError;
use hidap::{MacroPlacement, PlacedMacro};
use netlist::design::{CellId, Design};
use rand::{ChaCha8Rng, Rng, SeedableRng};

/// Configuration of the IndEDA-style baseline placer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndEdaConfig {
    /// Simulated-annealing moves per macro per temperature step.
    pub moves_per_macro: usize,
    /// Number of temperature steps.
    pub temperature_steps: usize,
    /// Geometric cooling factor.
    pub cooling: f64,
    /// Weight of the wall-attraction term (0 disables the periphery bias).
    pub wall_weight: f64,
    /// Weight of the overlap penalty.
    pub overlap_weight: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for IndEdaConfig {
    fn default() -> Self {
        Self {
            moves_per_macro: 40,
            temperature_steps: 60,
            cooling: 0.92,
            wall_weight: 0.4,
            overlap_weight: 4.0,
            seed: 1,
        }
    }
}

impl IndEdaConfig {
    /// A reduced-effort configuration for tests.
    pub fn fast() -> Self {
        Self { moves_per_macro: 12, temperature_steps: 25, ..Self::default() }
    }

    /// The configuration implied by an engine effort tier.
    pub fn for_effort(effort: placer_core::EffortLevel) -> Self {
        match effort {
            placer_core::EffortLevel::Fast => Self::fast(),
            placer_core::EffortLevel::Default => Self::default(),
            placer_core::EffortLevel::High => {
                Self { moves_per_macro: 80, temperature_steps: 90, ..Self::default() }
            }
        }
    }
}

/// A fixed-seed audit trail of one annealing run: how many moves were
/// proposed and accepted, and an FNV-1a hash over the accepted-move sequence
/// (proposal counter, moved macro, resulting corner and rotation — both
/// macros for swap moves). Regression tests pin it so any change to the
/// move scoring or acceptance behaviour is caught explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnealTrace {
    /// Number of proposed moves (fixed by the configuration).
    pub proposed: u64,
    /// Number of accepted moves.
    pub accepted: u64,
    /// FNV-1a hash of the accepted-move sequence.
    pub trace_hash: u64,
}

impl Default for AnnealTrace {
    /// The empty trace: no proposals, the hash at the FNV offset basis —
    /// the same value a run that accepts nothing ends at.
    fn default() -> Self {
        Self::new()
    }
}

impl AnnealTrace {
    fn new() -> Self {
        Self { proposed: 0, accepted: 0, trace_hash: netlist::Fnv1a::new().finish() }
    }

    /// Folds one accepted placement of `macro_index` into the running hash.
    fn accept(&mut self, macro_index: usize, state: (Point, bool)) {
        let mut h = netlist::Fnv1a::resume(self.trace_hash);
        h.write_u64(self.proposed);
        h.write_u64(macro_index as u64);
        h.write_u64(state.0.x as u64);
        h.write_u64(state.0.y as u64);
        h.write_u64(u64::from(state.1));
        self.trace_hash = h.finish();
    }
}

/// The IndEDA-style flat macro placer.
#[derive(Debug, Clone)]
pub struct IndEda {
    config: IndEdaConfig,
}

impl IndEda {
    /// Creates the baseline with the given configuration.
    pub fn new(config: IndEdaConfig) -> Self {
        Self { config }
    }

    /// Runs the baseline flow and returns a legal macro placement.
    ///
    /// # Errors
    ///
    /// Returns [`HidapError::EmptyDie`] / [`HidapError::MacrosExceedDie`] under
    /// the same conditions as the HiDaP flow.
    pub fn run(&self, design: &Design) -> Result<MacroPlacement, HidapError> {
        self.run_traced(design).map(|(placement, _)| placement)
    }

    /// [`IndEda::run`] plus the [`AnnealTrace`] of the annealing loop (for
    /// fixed-seed regression tests and tuning).
    pub fn run_traced(&self, design: &Design) -> Result<(MacroPlacement, AnnealTrace), HidapError> {
        let die = design.die();
        if die.width() <= 0 || die.height() <= 0 {
            return Err(HidapError::EmptyDie);
        }
        let macros: Vec<CellId> = design.macros().collect();
        let macro_area: i128 = macros.iter().map(|&m| design.cell(m).area()).sum();
        if macro_area > die.area() {
            return Err(HidapError::MacrosExceedDie { macro_area, die_area: die.area() });
        }
        if macros.is_empty() {
            return Ok((MacroPlacement::default(), AnnealTrace::default()));
        }

        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let die_edge = ((die.width() + die.height()) as f64).max(1.0);
        let rect_of = |m: CellId, &(loc, rotated): &(Point, bool)| {
            let c = design.cell(m);
            let (w, h) = if rotated { (c.height, c.width) } else { (c.width, c.height) };
            Rect::from_size(loc.x, loc.y, w, h)
        };
        let wall_of = |r: &Rect| {
            let c = r.center();
            (c.x - die.llx).min(die.urx - c.x).min(c.y - die.lly).min(die.ury - c.y).max(0) as f64
        };

        // Initial positions: macros spread on a grid.
        let cols = (macros.len() as f64).sqrt().ceil() as usize;
        let mut state: Vec<(Point, bool)> = macros
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let cell = design.cell(m);
                let col = i % cols;
                let row = i / cols;
                let x = die.llx + (die.width() * col as i64) / cols as i64;
                let y = die.lly + (die.height() * row as i64) / cols as i64;
                let x = x.min(die.urx - cell.width);
                let y = y.min(die.ury - cell.height);
                (Point::new(x.max(die.llx), y.max(die.lly)), false)
            })
            .collect();
        let mut rects: Vec<Rect> = macros.iter().zip(&state).map(|(&m, s)| rect_of(m, s)).collect();

        // The incremental HPWL session: macros at their centers, ports at
        // their fixed positions, standard cells unplaced (nets with fewer
        // than two placed pins contribute nothing, exactly like the full
        // evaluation of a macro-only placement).
        let mut cells = CellPlacement::with_num_cells(design.num_cells());
        for (&m, r) in macros.iter().zip(&rects) {
            cells.set_position(m, r.center());
        }
        let mut hpwl = IncrementalHpwl::new(design, &cells);

        // Σ_{i<j} overlap and Σ wall distance of the initial state.
        let mut total_overlap = 0.0;
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                total_overlap += rects[i].overlap_area(&rects[j]) as f64;
            }
        }
        let total_wall: f64 = rects.iter().map(wall_of).sum();

        let mut current_cost = hpwl.hpwl().dbu as f64
            + self.config.wall_weight * total_wall
            + self.config.overlap_weight * total_overlap / die_edge;
        let mut best_state = state.clone();
        let mut best_cost = current_cost;
        let mut temperature = current_cost.max(1.0) * 0.05;
        let mut trace = AnnealTrace::new();

        // Σ overlap over every pair with an endpoint in the affected set
        // ({idx} or {idx, other}), each pair counted once.
        let affected_overlap = |rects: &[Rect], idx: usize, other: Option<usize>| {
            let mut sum = 0.0;
            for (j, r) in rects.iter().enumerate() {
                if j != idx {
                    sum += rects[idx].overlap_area(r) as f64;
                }
            }
            if let Some(o) = other {
                for (j, r) in rects.iter().enumerate() {
                    if j != o && j != idx {
                        sum += rects[o].overlap_area(r) as f64;
                    }
                }
            }
            sum
        };

        for _ in 0..self.config.temperature_steps {
            for _ in 0..self.config.moves_per_macro * macros.len() {
                trace.proposed += 1;
                let idx = rng.gen_range(0..macros.len());
                let saved = state[idx];
                // the second macro of a swap move (with its pre-move state),
                // when one is touched
                let mut swapped: Option<(usize, (Point, bool))> = None;
                match rng.gen_range(0..4) {
                    0 | 1 => {
                        // displace
                        let cell = design.cell(macros[idx]);
                        let (w, h) = if state[idx].1 {
                            (cell.height, cell.width)
                        } else {
                            (cell.width, cell.height)
                        };
                        let max_x = (die.urx - w).max(die.llx);
                        let max_y = (die.ury - h).max(die.lly);
                        state[idx].0 = Point::new(
                            rng.gen_range(die.llx..=max_x),
                            rng.gen_range(die.lly..=max_y),
                        );
                    }
                    2 => {
                        // rotate
                        state[idx].1 = !state[idx].1;
                    }
                    _ => {
                        // swap corners with another macro
                        let o = rng.gen_range(0..macros.len());
                        if o != idx {
                            swapped = Some((o, state[o]));
                            let tmp = state[idx].0;
                            state[idx].0 = state[o].0;
                            state[o].0 = tmp;
                        }
                    }
                }
                let other = swapped.map(|(o, _)| o);
                let saved_other = swapped.map(|(o, s)| (o, s, rects[o]));
                let saved_rect = rects[idx];

                // score the move as a delta: wall and overlap of the touched
                // rectangles before/after, HPWL from the incremental session
                let mut old_wall = wall_of(&rects[idx]);
                let old_overlap = affected_overlap(&rects, idx, other);
                if let Some(o) = other {
                    old_wall += wall_of(&rects[o]);
                }
                rects[idx] = rect_of(macros[idx], &state[idx]);
                let mut delta_wl = hpwl.move_cell(macros[idx], rects[idx].center());
                let mut new_wall = wall_of(&rects[idx]);
                if let Some(o) = other {
                    rects[o] = rect_of(macros[o], &state[o]);
                    delta_wl += hpwl.move_cell(macros[o], rects[o].center());
                    new_wall += wall_of(&rects[o]);
                }
                let new_overlap = affected_overlap(&rects, idx, other);
                let delta = delta_wl as f64
                    + self.config.wall_weight * (new_wall - old_wall)
                    + self.config.overlap_weight * (new_overlap - old_overlap) / die_edge;

                if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature.max(1e-9)).exp() {
                    current_cost += delta;
                    trace.accepted += 1;
                    trace.accept(idx, state[idx]);
                    if let Some(o) = other {
                        trace.accept(o, state[o]);
                    }
                    if current_cost < best_cost {
                        best_cost = current_cost;
                        best_state = state.clone();
                    }
                } else {
                    // revert: state, rectangles and the HPWL session
                    state[idx] = saved;
                    rects[idx] = saved_rect;
                    hpwl.move_cell(macros[idx], saved_rect.center());
                    if let Some((o, s, r)) = saved_other {
                        state[o] = s;
                        rects[o] = r;
                        hpwl.move_cell(macros[o], r.center());
                    }
                }
            }
            temperature *= self.config.cooling;
        }

        // Legalize and emit the placement.
        let mut footprints: MacroFootprints = macros
            .iter()
            .zip(&best_state)
            .map(|(&m, &(loc, rotated))| (m, MacroFootprint { location: loc, rotated }))
            .collect();
        legalize_macros(design, die, &mut footprints);
        let mut placed: Vec<PlacedMacro> = footprints
            .iter()
            .map(|(cell, fp)| PlacedMacro {
                cell,
                location: fp.location,
                orientation: if fp.rotated { Orientation::W } else { Orientation::N },
            })
            .collect();
        placed.sort_by_key(|m| m.cell);
        Ok((MacroPlacement { macros: placed, top_blocks: Vec::new() }, trace))
    }
}

impl placer_core::Placer for IndEda {
    fn name(&self) -> &str {
        "indeda"
    }

    fn supports_lambda(&self) -> bool {
        false
    }

    fn place(
        &self,
        req: &placer_core::PlaceRequest<'_>,
        ctx: &mut placer_core::PlaceContext,
    ) -> Result<placer_core::PlaceOutcome, placer_core::PlaceError> {
        use placer_core::{PlaceError, StageEvent, StageTiming};

        req.validate()?;
        // λ is a dataflow-affinity knob this flat flow does not have
        let mut config = match req.effort {
            Some(effort) => IndEdaConfig::for_effort(effort),
            None => self.config,
        };
        config.seed = req.seed;
        let design = req.design;
        ctx.emit(StageEvent::FlowStarted { flow: "indeda".into(), seed: req.seed, lambda: None });

        // lint:allow(wall-clock): report-only wall_s stage timing; never influences placement
        let start = std::time::Instant::now();
        let placement = IndEda::new(config).run(design).map_err(PlaceError::from)?;
        let wall_s = start.elapsed().as_secs_f64();
        let mut timings = vec![StageTiming { stage: "anneal".into(), seconds: wall_s }];

        let metrics = req.evaluate.as_ref().map(|eval_cfg| {
            // lint:allow(wall-clock): report-only wall_s stage timing; never influences placement
            let t = std::time::Instant::now();
            // context-shared evaluator: one Gseq per sweep
            let metrics = ctx.evaluator(*eval_cfg).evaluate(design, &placement);
            timings
                .push(StageTiming { stage: "evaluate".into(), seconds: t.elapsed().as_secs_f64() });
            metrics
        });

        ctx.emit(StageEvent::FlowFinished { wall_s, legal: placement.is_legal(design) });
        Ok(placer_core::PlaceOutcome {
            placement,
            flow: "indeda".into(),
            seed: req.seed,
            lambda: None,
            stage_timings: timings,
            wall_s,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::design::DesignBuilder;

    fn design_with_connected_macros() -> Design {
        let mut b = DesignBuilder::new("t");
        let a = b.add_macro("a", "RAM", 200, 150, "");
        let c = b.add_macro("c", "RAM", 200, 150, "");
        let e = b.add_macro("e", "RAM", 200, 150, "");
        // a and c are heavily connected; e is isolated
        for i in 0..16 {
            let n = b.add_net(format!("n{i}"));
            b.connect_driver(n, a);
            b.connect_sink(n, c);
        }
        let _ = e;
        b.set_die(Rect::new(0, 0, 2000, 2000));
        b.build()
    }

    #[test]
    fn produces_legal_placement() {
        let d = design_with_connected_macros();
        let p = IndEda::new(IndEdaConfig::fast()).run(&d).unwrap();
        assert_eq!(p.macros.len(), 3);
        assert!(p.is_legal(&d));
    }

    #[test]
    fn connected_macros_end_up_closer_than_unconnected() {
        let d = design_with_connected_macros();
        let p = IndEda::new(IndEdaConfig::fast()).run(&d).unwrap();
        let a = d.find_cell("a").unwrap();
        let c = d.find_cell("c").unwrap();
        let e = d.find_cell("e").unwrap();
        let ra = p.rect_of(a, &d).unwrap();
        let rc = p.rect_of(c, &d).unwrap();
        let re = p.rect_of(e, &d).unwrap();
        let d_ac = ra.center_distance(&rc);
        let d_ae = ra.center_distance(&re);
        assert!(d_ac <= d_ae, "connected pair should not be farther apart than the isolated macro (d_ac={d_ac}, d_ae={d_ae})");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let d = design_with_connected_macros();
        let a = IndEda::new(IndEdaConfig::fast()).run(&d).unwrap();
        let b = IndEda::new(IndEdaConfig::fast()).run(&d).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fixed_seed_accepted_move_trace_is_pinned() {
        // Pins the annealer's exact accepted-move sequence under the
        // incremental-HPWL scoring: any change to the cost model, the move
        // generation or the acceptance rule shows up here first.
        let d = design_with_connected_macros();
        let (placement, trace) = IndEda::new(IndEdaConfig::fast()).run_traced(&d).unwrap();
        assert!(placement.is_legal(&d));
        assert_eq!(
            trace.proposed,
            (IndEdaConfig::fast().temperature_steps * IndEdaConfig::fast().moves_per_macro * 3)
                as u64
        );
        let expected =
            AnnealTrace { proposed: 900, accepted: 377, trace_hash: 5735527431765702742 };
        assert_eq!(trace, expected, "accepted-move trace drifted: {trace:?}");
        // the trace is itself deterministic
        let (_, again) = IndEda::new(IndEdaConfig::fast()).run_traced(&d).unwrap();
        assert_eq!(trace, again);
    }

    #[test]
    fn empty_die_is_error() {
        let mut b = DesignBuilder::new("t");
        b.add_macro("a", "RAM", 10, 10, "");
        let d = b.build();
        assert!(IndEda::new(IndEdaConfig::fast()).run(&d).is_err());
    }

    #[test]
    fn wall_bias_pushes_macros_towards_periphery() {
        // a single unconnected macro: with a strong wall weight it should not
        // sit in the die center
        let mut b = DesignBuilder::new("t");
        b.add_macro("a", "RAM", 100, 100, "");
        b.set_die(Rect::new(0, 0, 2000, 2000));
        let d = b.build();
        let cfg = IndEdaConfig { wall_weight: 10.0, ..IndEdaConfig::fast() };
        let p = IndEda::new(cfg).run(&d).unwrap();
        let m = d.find_cell("a").unwrap();
        let center = p.rect_of(m, &d).unwrap().center();
        let die_center = d.die().center();
        let dist_from_center = center.manhattan_distance(die_center);
        assert!(
            dist_from_center > 500,
            "macro should be pushed away from the die center, got {center}"
        );
    }
}
