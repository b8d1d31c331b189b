//! The ECO design-mutation API: typed edits applied through [`Design`].
//!
//! Engineering-change-order (ECO) traffic mutates a design that downstream
//! stores and caches already fingerprinted.  Ad-hoc mutation through the
//! blanket accessors ([`Design::cell_mut`], ...) is correct but maximally
//! pessimistic: every touch drops both the geometry and the sequential-name
//! fingerprint, so a pure footprint resize looks identical to a kind change,
//! and the wiring has no blanket accessor at all.  This module gives edits a *type* so the
//! invalidation can be exact, and rewires the design's CSR in place:
//!
//! * [`DesignEdit`] — the closed set of supported edit kinds, each with a
//!   statically known [`EditEffect`] (which derived state it can invalidate).
//! * [`Design::apply_edits`] — applies a script in order, invalidating only
//!   what each edit kind can affect, and returns an [`EditLog`].
//! * [`EditLog`] — which id families were touched plus the
//!   [`FingerprintDiff`] of the three identity fingerprints, the input to
//!   selective artifact invalidation (a pure-geometry diff keeps `Gnet` /
//!   `Gseq` warm; a wiring diff drops them).
//! * [`parse_edit_script`] / [`format_edit_script`] — the textual edit-script
//!   form used by the `--serve` wire protocol's `replace` command.
//!
//! The invalidation matrix (which edit kinds can change which fingerprints)
//! is documented in `docs/ECO.md` and pinned by the unit tests below.

use crate::design::{CellId, CellKind, Design, NetId, PortId};
use geometry::{Dbu, Point, Rect};

/// One typed ECO edit.
///
/// Ids refer to the design the edit is applied to; the textual script form
/// (see [`parse_edit_script`]) uses names instead and resolves them at parse
/// time.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignEdit {
    /// Resizes a cell footprint (macro resize is the classic ECO).  Pure
    /// geometry: wiring and sequential names are untouched.
    ResizeCell {
        /// The cell to resize.
        cell: CellId,
        /// New footprint width in DBU (must be positive).
        width: Dbu,
        /// New footprint height in DBU (must be positive).
        height: Dbu,
    },
    /// Moves a macro to a new location in the *placement seed*.  The design
    /// itself stores no locations, so this edit changes no design state and
    /// no fingerprint — it parameterizes the warm-start placement of a
    /// `replace` job (the engine moves the macro's footprint in the seed
    /// before legalization).
    MoveMacro {
        /// The macro to move (must be [`CellKind::Macro`]).
        cell: CellId,
        /// Target lower-left corner of the footprint, in DBU.
        to: Point,
    },
    /// Replaces a net's cell pins: the driver and the full sink list.
    /// Port pins of the net are preserved.  This is a wiring edit: the CSR
    /// view and the connectivity fingerprint change.
    RewireNet {
        /// The net to rewire.
        net: NetId,
        /// New driving cell (`None` leaves the net cell-driverless, e.g.
        /// when a primary input drives it).
        driver: Option<CellId>,
        /// New sink cells (deduplicated in order).
        sinks: Vec<CellId>,
    },
    /// Swaps a cell's library master: new `lib_cell` name (interned into
    /// the design's library cells) and footprint, same [`CellKind`].  Pure
    /// geometry — the master name is not part of any identity fingerprint.
    SwapMaster {
        /// The cell whose master changes.
        cell: CellId,
        /// New library master name.
        lib_cell: String,
        /// Footprint width of the new master in DBU (must be positive).
        width: Dbu,
        /// Footprint height of the new master in DBU (must be positive).
        height: Dbu,
    },
    /// Moves a primary port to a new boundary position without renaming it
    /// (the "rename-safe" port move): the sequential-name fingerprint is
    /// untouched, only geometry changes.
    MovePort {
        /// The port to move.
        port: PortId,
        /// New position (`None` un-places the port).
        to: Option<Point>,
    },
    /// Replaces the die outline.  Pure geometry.
    SetDie {
        /// The new die rectangle (must be non-empty).
        die: Rect,
    },
}

/// The derived state an edit kind can invalidate, known statically.
///
/// `true` means "may change", not "always changes" — e.g. a rewire that
/// reinstalls the same pins leaves the connectivity fingerprint equal.  The
/// authoritative per-application answer is the [`FingerprintDiff`] in the
/// [`EditLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditEffect {
    /// May rewrite the CSR wiring and change the connectivity fingerprint.
    pub wiring: bool,
    /// May change the sequential-name fingerprint.
    pub seq_names: bool,
    /// May change the geometry fingerprint.
    pub geometry: bool,
    /// Parameterizes the warm-start placement seed (no design state).
    pub placement_seed: bool,
}

impl DesignEdit {
    /// The static effect class of this edit kind (the invalidation matrix
    /// row; see `docs/ECO.md`).
    pub fn effect(&self) -> EditEffect {
        let none =
            EditEffect { wiring: false, seq_names: false, geometry: false, placement_seed: false };
        match self {
            DesignEdit::ResizeCell { .. }
            | DesignEdit::SwapMaster { .. }
            | DesignEdit::MovePort { .. }
            | DesignEdit::SetDie { .. } => EditEffect { geometry: true, ..none },
            DesignEdit::MoveMacro { .. } => EditEffect { placement_seed: true, ..none },
            DesignEdit::RewireNet { .. } => EditEffect { wiring: true, ..none },
        }
    }
}

/// Why an edit could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// A cell id does not belong to the design.
    UnknownCell(CellId),
    /// A net id does not belong to the design.
    UnknownNet(NetId),
    /// A port id does not belong to the design.
    UnknownPort(PortId),
    /// [`DesignEdit::MoveMacro`] targeted a non-macro cell.
    NotAMacro(CellId),
    /// A footprint or die dimension was not positive.
    BadDimensions(String),
    /// The textual edit script could not be parsed.
    Script(String),
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::UnknownCell(c) => write!(f, "edit references unknown cell id {}", c.0),
            EditError::UnknownNet(n) => write!(f, "edit references unknown net id {}", n.0),
            EditError::UnknownPort(p) => write!(f, "edit references unknown port id {}", p.0),
            EditError::NotAMacro(c) => {
                write!(f, "move targets cell id {} which is not a macro", c.0)
            }
            EditError::BadDimensions(msg) => write!(f, "bad dimensions: {msg}"),
            EditError::Script(msg) => write!(f, "bad edit script: {msg}"),
        }
    }
}

impl std::error::Error for EditError {}

/// Before/after values of the three identity fingerprints across an edit
/// batch — the selective-invalidation contract between the edit API and
/// design stores / artifact caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintDiff {
    /// Connectivity (wiring) fingerprint before the batch.
    pub connectivity_before: u64,
    /// Connectivity (wiring) fingerprint after the batch.
    pub connectivity_after: u64,
    /// Sequential-name fingerprint before the batch.
    pub seq_names_before: u64,
    /// Sequential-name fingerprint after the batch.
    pub seq_names_after: u64,
    /// Geometry fingerprint before the batch.
    pub geometry_before: u64,
    /// Geometry fingerprint after the batch.
    pub geometry_after: u64,
}

impl FingerprintDiff {
    /// Whether the wiring identity changed.
    pub fn wiring_changed(&self) -> bool {
        self.connectivity_before != self.connectivity_after
    }

    /// Whether the sequential-name identity changed.
    pub fn seq_names_changed(&self) -> bool {
        self.seq_names_before != self.seq_names_after
    }

    /// Whether the geometry fingerprint changed.
    pub fn geometry_changed(&self) -> bool {
        self.geometry_before != self.geometry_after
    }

    /// Whether the artifact-cache identity (wiring or sequential names)
    /// changed.  When `false`, every `Gnet`/`Gseq` keyed by the old identity
    /// is still valid for the edited design.
    pub fn identity_changed(&self) -> bool {
        self.wiring_changed() || self.seq_names_changed()
    }

    /// Whether the batch was pure geometry (possibly plus placement-seed
    /// moves): artifact caches stay warm.
    pub fn is_pure_geometry(&self) -> bool {
        !self.identity_changed()
    }
}

/// What an applied edit batch touched: the id families and the fingerprint
/// diff.  Produced by [`Design::apply_edits`].
#[derive(Debug, Clone, PartialEq)]
pub struct EditLog {
    /// Number of edits applied.
    pub applied: usize,
    /// Cells touched by any edit, deduplicated, in first-touch order.
    pub touched_cells: Vec<CellId>,
    /// Nets touched by any edit (rewired nets), deduplicated.
    pub touched_nets: Vec<NetId>,
    /// Ports touched by any edit, deduplicated.
    pub touched_ports: Vec<PortId>,
    /// Whether the die outline was replaced.
    pub die_touched: bool,
    /// Whether any edit parameterizes the warm-start placement seed
    /// ([`DesignEdit::MoveMacro`]).
    pub placement_seed: bool,
    /// Before/after identity fingerprints across the whole batch.
    pub diff: FingerprintDiff,
}

impl EditLog {
    fn touch_cell(&mut self, c: CellId) {
        if !self.touched_cells.contains(&c) {
            self.touched_cells.push(c);
        }
    }

    fn touch_net(&mut self, n: NetId) {
        if !self.touched_nets.contains(&n) {
            self.touched_nets.push(n);
        }
    }

    fn touch_port(&mut self, p: PortId) {
        if !self.touched_ports.contains(&p) {
            self.touched_ports.push(p);
        }
    }
}

impl Design {
    /// Applies an edit script in order with per-kind exact cache
    /// invalidation, returning the [`EditLog`].
    ///
    /// The whole batch is validated *before* anything is applied, so an
    /// error leaves the design unchanged.  Fingerprints are forced before
    /// and after so the log's [`FingerprintDiff`] is authoritative; the
    /// design's internal caches are dropped only for the state each edit
    /// kind can actually affect (a [`DesignEdit::ResizeCell`] keeps the CSR
    /// view and the sequential-name fingerprint warm).
    pub fn apply_edits(&mut self, edits: &[DesignEdit]) -> Result<EditLog, EditError> {
        for edit in edits {
            self.check_edit(edit)?;
        }
        let mut log = EditLog {
            applied: 0,
            touched_cells: Vec::new(),
            touched_nets: Vec::new(),
            touched_ports: Vec::new(),
            die_touched: false,
            placement_seed: false,
            diff: FingerprintDiff {
                connectivity_before: self.connectivity().fingerprint(),
                connectivity_after: 0,
                seq_names_before: self.seq_name_fingerprint(),
                seq_names_after: 0,
                geometry_before: self.geometry_fingerprint(),
                geometry_after: 0,
            },
        };
        for edit in edits {
            self.apply_one(edit, &mut log);
            log.applied += 1;
        }
        log.diff.connectivity_after = self.connectivity().fingerprint();
        log.diff.seq_names_after = self.seq_name_fingerprint();
        log.diff.geometry_after = self.geometry_fingerprint();
        Ok(log)
    }

    fn check_cell(&self, cell: CellId) -> Result<(), EditError> {
        if (cell.0 as usize) < self.num_cells() {
            Ok(())
        } else {
            Err(EditError::UnknownCell(cell))
        }
    }

    fn check_edit(&self, edit: &DesignEdit) -> Result<(), EditError> {
        match edit {
            DesignEdit::ResizeCell { cell, width, height } => {
                self.check_cell(*cell)?;
                if *width <= 0 || *height <= 0 {
                    return Err(EditError::BadDimensions(format!(
                        "resize to {width}x{height} (both sides must be positive)"
                    )));
                }
            }
            DesignEdit::MoveMacro { cell, .. } => {
                self.check_cell(*cell)?;
                if self.cell(*cell).kind != CellKind::Macro {
                    return Err(EditError::NotAMacro(*cell));
                }
            }
            DesignEdit::RewireNet { net, driver, sinks } => {
                if (net.0 as usize) >= self.num_nets() {
                    return Err(EditError::UnknownNet(*net));
                }
                if let Some(d) = driver {
                    self.check_cell(*d)?;
                }
                for s in sinks {
                    self.check_cell(*s)?;
                }
            }
            DesignEdit::SwapMaster { cell, width, height, .. } => {
                self.check_cell(*cell)?;
                if *width <= 0 || *height <= 0 {
                    return Err(EditError::BadDimensions(format!(
                        "swap to {width}x{height} (both sides must be positive)"
                    )));
                }
            }
            DesignEdit::MovePort { port, .. } => {
                if (port.0 as usize) >= self.num_ports() {
                    return Err(EditError::UnknownPort(*port));
                }
            }
            DesignEdit::SetDie { die } => {
                if die.width() <= 0 || die.height() <= 0 {
                    return Err(EditError::BadDimensions(format!(
                        "die {}x{} (must be non-empty)",
                        die.width(),
                        die.height()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Applies one pre-validated edit, invalidating exactly what its kind
    /// can affect.
    fn apply_one(&mut self, edit: &DesignEdit, log: &mut EditLog) {
        match edit {
            DesignEdit::ResizeCell { cell, width, height } => {
                self.invalidate_geometry();
                let c = self.cell_raw_mut(*cell);
                c.width = *width;
                c.height = *height;
                log.touch_cell(*cell);
            }
            DesignEdit::MoveMacro { cell, .. } => {
                // No design state: consumed by the warm-start seed.
                log.touch_cell(*cell);
                log.placement_seed = true;
            }
            DesignEdit::RewireNet { net, driver, sinks } => {
                // the old cell pins, then the new ones, are touched
                let touch = |d: &Design, log: &mut EditLog| {
                    d.connectivity()
                        .pins(*net)
                        .iter()
                        .filter_map(|p| p.cell())
                        .for_each(|c| log.touch_cell(c))
                };
                touch(self, log);
                self.connectivity_mut().rewire(*net, *driver, sinks);
                touch(self, log);
                log.touch_net(*net);
            }
            DesignEdit::SwapMaster { cell, lib_cell, width, height } => {
                self.invalidate_geometry();
                let lib_cell = self.intern_lib_cell(lib_cell);
                let c = self.cell_raw_mut(*cell);
                c.lib_cell = lib_cell;
                c.width = *width;
                c.height = *height;
                log.touch_cell(*cell);
            }
            DesignEdit::MovePort { port, to } => {
                self.set_port_position(*port, *to);
                log.touch_port(*port);
            }
            DesignEdit::SetDie { die } => {
                // set_die already invalidates geometry only.
                self.set_die(*die);
                log.die_touched = true;
            }
        }
    }
}

/// Serializes an edit script to its textual wire form (the inverse of
/// [`parse_edit_script`]): one `;`-separated clause per edit, ids rendered
/// as the design's names.
pub fn format_edit_script(edits: &[DesignEdit], design: &Design) -> String {
    let mut out = Vec::with_capacity(edits.len());
    for edit in edits {
        out.push(match edit {
            DesignEdit::ResizeCell { cell, width, height } => {
                format!("resize {} {} {}", design.cell_name(*cell), width, height)
            }
            DesignEdit::MoveMacro { cell, to } => {
                format!("move {} {} {}", design.cell_name(*cell), to.x, to.y)
            }
            DesignEdit::RewireNet { net, driver, sinks } => {
                let d = driver.map_or("-", |c| design.cell_name(c));
                let s = if sinks.is_empty() {
                    "-".into()
                } else {
                    sinks.iter().map(|&c| design.cell_name(c)).collect::<Vec<_>>().join(",")
                };
                format!("rewire {} {} {}", design.net_name(*net), d, s)
            }
            DesignEdit::SwapMaster { cell, lib_cell, width, height } => {
                format!("swap {} {} {} {}", design.cell_name(*cell), lib_cell, width, height)
            }
            DesignEdit::MovePort { port, to } => match to {
                Some(p) => format!("move_port {} {} {}", design.port_name(*port), p.x, p.y),
                None => format!("unplace_port {}", design.port_name(*port)),
            },
            DesignEdit::SetDie { die } => {
                format!("die {} {} {} {}", die.llx, die.lly, die.urx, die.ury)
            }
        });
    }
    out.join("; ")
}

/// Parses the textual edit-script form used by the `replace` wire command.
///
/// Clauses are `;`-separated, tokens whitespace-separated, names resolved
/// against `design`:
///
/// ```text
/// resize <cell> <w> <h>; move <macro> <x> <y>; swap <cell> <lib> <w> <h>;
/// move_port <port> <x> <y>; unplace_port <port>;
/// rewire <net> <driver-cell|-> <sink,sink,...|->; die <llx> <lly> <urx> <ury>
/// ```
pub fn parse_edit_script(script: &str, design: &Design) -> Result<Vec<DesignEdit>, EditError> {
    let mut edits = Vec::new();
    for clause in script.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = clause.split_whitespace().collect();
        let bad = |msg: String| EditError::Script(format!("`{clause}`: {msg}"));
        let arity = |want: usize| -> Result<(), EditError> {
            if tokens.len() == want {
                Ok(())
            } else {
                Err(bad(format!("expected {} tokens, got {}", want, tokens.len())))
            }
        };
        let int = |tok: &str| -> Result<i64, EditError> {
            tok.parse::<i64>().map_err(|_| bad(format!("`{tok}` is not an integer")))
        };
        let cell = |name: &str| -> Result<CellId, EditError> {
            design.find_cell(name).ok_or_else(|| bad(format!("unknown cell `{name}`")))
        };
        edits.push(match tokens[0] {
            "resize" => {
                arity(4)?;
                DesignEdit::ResizeCell {
                    cell: cell(tokens[1])?,
                    width: int(tokens[2])?,
                    height: int(tokens[3])?,
                }
            }
            "move" => {
                arity(4)?;
                DesignEdit::MoveMacro {
                    cell: cell(tokens[1])?,
                    to: Point::new(int(tokens[2])?, int(tokens[3])?),
                }
            }
            "swap" => {
                arity(5)?;
                DesignEdit::SwapMaster {
                    cell: cell(tokens[1])?,
                    lib_cell: tokens[2].to_string(),
                    width: int(tokens[3])?,
                    height: int(tokens[4])?,
                }
            }
            "move_port" => {
                arity(4)?;
                let port = design
                    .find_port(tokens[1])
                    .ok_or_else(|| bad(format!("unknown port `{}`", tokens[1])))?;
                DesignEdit::MovePort {
                    port,
                    to: Some(Point::new(int(tokens[2])?, int(tokens[3])?)),
                }
            }
            "unplace_port" => {
                arity(2)?;
                let port = design
                    .find_port(tokens[1])
                    .ok_or_else(|| bad(format!("unknown port `{}`", tokens[1])))?;
                DesignEdit::MovePort { port, to: None }
            }
            "rewire" => {
                arity(4)?;
                let net = design
                    .find_net(tokens[1])
                    .ok_or_else(|| bad(format!("unknown net `{}`", tokens[1])))?;
                let driver = if tokens[2] == "-" { None } else { Some(cell(tokens[2])?) };
                let sinks = if tokens[3] == "-" {
                    Vec::new()
                } else {
                    tokens[3].split(',').map(&cell).collect::<Result<Vec<_>, _>>()?
                };
                DesignEdit::RewireNet { net, driver, sinks }
            }
            "die" => {
                arity(5)?;
                DesignEdit::SetDie {
                    die: Rect::new(
                        int(tokens[1])?,
                        int(tokens[2])?,
                        int(tokens[3])?,
                        int(tokens[4])?,
                    ),
                }
            }
            verb => return Err(bad(format!("unknown edit verb `{verb}`"))),
        });
    }
    Ok(edits)
}

/// Fingerprints are plain words; only the touched-id lists own heap.
impl crate::heap_size::HeapSize for EditLog {
    fn heap_bytes(&self) -> usize {
        self.touched_cells.heap_bytes()
            + self.touched_nets.heap_bytes()
            + self.touched_ports.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DesignBuilder, PortDirection};

    fn eco_design() -> Design {
        let mut b = DesignBuilder::new("eco");
        let m = b.add_macro("u_mem/ram0", "RAM16", 200, 100, "u_mem");
        let m2 = b.add_macro("u_mem/ram1", "RAM16", 200, 100, "u_mem");
        let f = b.add_flop("u_ctl/state_reg", "u_ctl");
        let g = b.add_comb("u_ctl/and_1", "u_ctl");
        let p = b.add_port("clk_en", PortDirection::Input);
        b.place_port(p, Point::new(0, 500));
        let n1 = b.add_net("u_ctl/state");
        let n2 = b.add_net("clk_en_net");
        b.connect_driver(n1, f);
        b.connect_sink(n1, m);
        b.connect_sink(n1, g);
        b.connect_port_driver(n2, p);
        b.connect_sink(n2, f);
        b.set_die(Rect::new(0, 0, 1000, 1000));
        let _ = m2;
        b.build()
    }

    #[test]
    fn pure_geometry_edits_keep_identity_fingerprints() {
        let mut d = eco_design();
        let m = d.find_cell("u_mem/ram0").unwrap();
        let p = d.find_port("clk_en").unwrap();
        let log = d
            .apply_edits(&[
                DesignEdit::ResizeCell { cell: m, width: 240, height: 120 },
                DesignEdit::SwapMaster {
                    cell: m,
                    lib_cell: "RAM32".into(),
                    width: 260,
                    height: 130,
                },
                DesignEdit::MovePort { port: p, to: Some(Point::new(0, 700)) },
                DesignEdit::SetDie { die: Rect::new(0, 0, 1200, 900) },
            ])
            .unwrap();
        assert_eq!(log.applied, 4);
        assert!(log.diff.is_pure_geometry());
        assert!(log.diff.geometry_changed());
        assert!(!log.diff.wiring_changed());
        assert!(!log.diff.seq_names_changed());
        assert_eq!(log.touched_cells, vec![m]);
        assert_eq!(log.touched_ports, vec![p]);
        assert!(log.die_touched);
        assert_eq!(d.cell(m).width, 260);
        assert_eq!(d.lib_cell(d.cell(m).lib_cell), "RAM32");
        d.validate().unwrap();
    }

    #[test]
    fn rewire_changes_wiring_fingerprint_and_keeps_cross_references() {
        let mut d = eco_design();
        let n = d.find_net("u_ctl/state").unwrap();
        let f = d.find_cell("u_ctl/state_reg").unwrap();
        let m2 = d.find_cell("u_mem/ram1").unwrap();
        let log = d
            .apply_edits(&[DesignEdit::RewireNet { net: n, driver: Some(f), sinks: vec![m2] }])
            .unwrap();
        assert!(log.diff.wiring_changed());
        assert!(!log.diff.seq_names_changed());
        assert!(!log.diff.geometry_changed());
        assert!(log.touched_nets.contains(&n));
        d.validate().unwrap();
        // the CSR reflects the rewire
        let pins: Vec<_> = d.connectivity().pins(n).iter().filter_map(|p| p.cell()).collect();
        assert_eq!(pins, vec![f, m2]);
    }

    /// A net's pins as `name:role` strings (`d` driver, `s` sink; ports
    /// prefixed with `port `).
    fn pin_names(d: &Design, net: NetId) -> Vec<String> {
        let role = |driver: bool| if driver { "d" } else { "s" };
        d.connectivity()
            .pins(net)
            .iter()
            .map(|p| match (p.cell(), p.port()) {
                (Some(c), _) => format!("{}:{}", d.cell_name(c), role(p.is_driver())),
                (_, Some(q)) => format!("port {}:{}", d.port_name(q), role(p.is_driver())),
                _ => unreachable!("a pin is a cell or a port"),
            })
            .collect()
    }

    #[test]
    fn chained_rewires_in_one_batch_rewrite_both_directions() {
        let mut b = DesignBuilder::new("rewire");
        let names = ["f0", "f1", "g0", "g1", "g2", "g3"];
        let c: Vec<CellId> = names.iter().map(|n| b.add_comb(*n, "")).collect();
        let m0 = b.add_macro("m0", "RAM", 10, 10, "");
        let pi = b.add_port("pi", PortDirection::Input);
        let po = b.add_port("po", PortDirection::Output);
        let [a, bb, cc, dd] = ["a", "b", "c", "d"].map(|n| b.add_net(n));
        let (f0, f1, g0, g1, g2, g3) = (c[0], c[1], c[2], c[3], c[4], c[5]);
        b.connect_driver(a, f0).connect_sink(a, g0).connect_sink(a, g1).connect_sink(a, m0);
        b.connect_driver(bb, f1).connect_sink(bb, g1).connect_sink(bb, g2);
        b.connect_driver(cc, g0).connect_sink(cc, f1).connect_port_sink(cc, po);
        b.connect_port_driver(dd, pi).connect_sink(dd, f0).connect_sink(dd, g3);
        let mut d = b.build();
        let log = d
            .apply_edits(&[
                // shares sink g1 with net b; g1 is listed twice
                DesignEdit::RewireNet { net: a, driver: Some(g2), sinks: vec![g1, g3, g1] },
                // shares sinks g1 and g3 with the rewire above
                DesignEdit::RewireNet { net: bb, driver: Some(f0), sinks: vec![g1, g3, m0] },
                // net a again, now without a driver
                DesignEdit::RewireNet { net: a, driver: None, sinks: vec![f1, g3] },
                // drops the driver of a net that keeps its port sink
                DesignEdit::RewireNet { net: cc, driver: None, sinks: vec![g0] },
            ])
            .unwrap();
        assert_eq!(log.diff.connectivity_after, 0x4e58_a385_5d27_fc41);
        assert_eq!(d.connectivity().fingerprint(), log.diff.connectivity_after);
        let touched: Vec<&str> = log.touched_cells.iter().map(|&id| d.cell_name(id)).collect();
        assert_eq!(touched, ["f0", "g0", "g1", "m0", "g2", "g3", "f1"]);
        assert_eq!(log.touched_nets, vec![a, bb, cc]);
        // each cell's fanin and fanout, by net name
        let csr = d.connectivity();
        let names = |nets: &[NetId]| nets.iter().map(|&n| d.net_name(n)).collect();
        let rows: Vec<(&str, Vec<&str>, Vec<&str>)> = d
            .cell_ids()
            .map(|id| (d.cell_name(id), names(csr.fanin(id)), names(csr.fanout(id))))
            .collect();
        let expected: Vec<(&str, Vec<&str>, Vec<&str>)> = vec![
            ("f0", vec!["d"], vec!["b"]),
            ("f1", vec!["a"], vec![]),
            ("g0", vec!["c"], vec![]),
            ("g1", vec!["b"], vec![]),
            ("g2", vec![], vec![]),
            ("g3", vec!["d", "b", "a"], vec![]),
            ("m0", vec!["b"], vec![]),
        ];
        assert_eq!(rows, expected);
        assert_eq!(pin_names(&d, a), ["f1:s", "g3:s"]);
        assert_eq!(pin_names(&d, bb), ["f0:d", "g1:s", "g3:s", "m0:s"]);
        assert_eq!(pin_names(&d, cc), ["g0:s", "port po:s"]);
        assert_eq!(pin_names(&d, dd), ["f0:s", "g3:s", "port pi:d"]);
        d.validate().unwrap();
    }

    #[test]
    fn move_macro_changes_nothing_but_is_logged() {
        let mut d = eco_design();
        let m = d.find_cell("u_mem/ram0").unwrap();
        let before =
            (d.connectivity().fingerprint(), d.seq_name_fingerprint(), d.geometry_fingerprint());
        let log =
            d.apply_edits(&[DesignEdit::MoveMacro { cell: m, to: Point::new(50, 50) }]).unwrap();
        let after =
            (d.connectivity().fingerprint(), d.seq_name_fingerprint(), d.geometry_fingerprint());
        assert_eq!(before, after);
        assert!(log.diff.is_pure_geometry());
        assert!(!log.diff.geometry_changed());
        assert_eq!(log.touched_cells, vec![m]);
        assert!(log.placement_seed);
    }

    #[test]
    fn bad_edits_reject_before_applying_anything() {
        let mut d = eco_design();
        let m = d.find_cell("u_mem/ram0").unwrap();
        let geo = d.geometry_fingerprint();
        let err = d
            .apply_edits(&[
                DesignEdit::ResizeCell { cell: m, width: 999, height: 999 },
                DesignEdit::ResizeCell { cell: CellId(4242), width: 1, height: 1 },
            ])
            .unwrap_err();
        assert_eq!(err, EditError::UnknownCell(CellId(4242)));
        // the valid first edit was not applied either
        assert_eq!(d.geometry_fingerprint(), geo);
        assert_eq!(d.cell(m).width, 200);
        let not_macro = d.find_cell("u_ctl/and_1").unwrap();
        let err = d.apply_edits(&[DesignEdit::MoveMacro { cell: not_macro, to: Point::new(0, 0) }]);
        assert_eq!(err.unwrap_err(), EditError::NotAMacro(not_macro));
        let err = d.apply_edits(&[DesignEdit::ResizeCell { cell: m, width: 0, height: 5 }]);
        assert!(matches!(err.unwrap_err(), EditError::BadDimensions(_)));
    }

    #[test]
    fn effect_matrix_matches_documented_invalidation() {
        let d = eco_design();
        let m = d.find_cell("u_mem/ram0").unwrap();
        let n = d.find_net("u_ctl/state").unwrap();
        let p = d.find_port("clk_en").unwrap();
        let geometry_only = [
            DesignEdit::ResizeCell { cell: m, width: 1, height: 1 },
            DesignEdit::SwapMaster { cell: m, lib_cell: "X".into(), width: 1, height: 1 },
            DesignEdit::MovePort { port: p, to: None },
            DesignEdit::SetDie { die: Rect::new(0, 0, 1, 1) },
        ];
        for e in &geometry_only {
            let fx = e.effect();
            assert!(fx.geometry && !fx.wiring && !fx.seq_names && !fx.placement_seed);
        }
        let fx = DesignEdit::RewireNet { net: n, driver: None, sinks: vec![] }.effect();
        assert!(fx.wiring && !fx.geometry && !fx.seq_names);
        let fx = DesignEdit::MoveMacro { cell: m, to: Point::new(0, 0) }.effect();
        assert!(fx.placement_seed && !fx.wiring && !fx.geometry && !fx.seq_names);
    }

    #[test]
    fn script_round_trips_through_names() {
        let d = eco_design();
        let m = d.find_cell("u_mem/ram0").unwrap();
        let f = d.find_cell("u_ctl/state_reg").unwrap();
        let n = d.find_net("u_ctl/state").unwrap();
        let p = d.find_port("clk_en").unwrap();
        let edits = vec![
            DesignEdit::ResizeCell { cell: m, width: 240, height: 120 },
            DesignEdit::MoveMacro { cell: m, to: Point::new(10, 20) },
            DesignEdit::SwapMaster { cell: m, lib_cell: "RAM32".into(), width: 2, height: 3 },
            DesignEdit::MovePort { port: p, to: Some(Point::new(0, 700)) },
            DesignEdit::MovePort { port: p, to: None },
            DesignEdit::RewireNet { net: n, driver: Some(f), sinks: vec![m, f] },
            DesignEdit::RewireNet { net: n, driver: None, sinks: vec![] },
            DesignEdit::SetDie { die: Rect::new(0, 0, 9, 9) },
        ];
        let script = format_edit_script(&edits, &d);
        let parsed = parse_edit_script(&script, &d).unwrap();
        assert_eq!(parsed, edits);
    }

    #[test]
    fn script_errors_name_the_clause() {
        let d = eco_design();
        let err = parse_edit_script("resize nosuch 1 2", &d).unwrap_err();
        assert!(matches!(&err, EditError::Script(m) if m.contains("nosuch")));
        let err = parse_edit_script("frob x", &d).unwrap_err();
        assert!(matches!(&err, EditError::Script(m) if m.contains("frob")));
        let err = parse_edit_script("resize u_mem/ram0 1", &d).unwrap_err();
        assert!(matches!(&err, EditError::Script(m) if m.contains("expected 4")));
        assert_eq!(parse_edit_script("  ;; ", &d).unwrap(), Vec::<DesignEdit>::new());
    }
}
