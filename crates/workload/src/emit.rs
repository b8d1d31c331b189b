//! Emission of generated designs as structural Verilog, LEF and DEF.
//!
//! The emitted files exercise the parsers of the [`netlist`] crate end to end
//! (see the `parser_roundtrip` integration test): a generated design can be
//! written out, parsed back, and still exposes the same macros, hierarchy
//! split and connectivity.
//!
//! The Verilog writer groups cells by their *top-level* hierarchy component:
//! one module per direct child of the design root plus the top module.  Nets
//! crossing module boundaries become ports of the child modules.  Deeper
//! hierarchy levels are preserved inside the instance names (which the
//! `netlist` parsers keep verbatim), so array grouping still works after a
//! round trip even though the re-parsed hierarchy tree only has two levels.

use geometry::{Orientation, Point};
use netlist::design::{CellId, CellKind, Design, NetId};
use netlist::library::Library;
use netlist::{MacroPlacement, PlacedMacro};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;

/// Escapes an identifier for structural Verilog (hierarchical names contain
/// `/` and `[`, which require escaped-identifier syntax).
fn escape(name: &str) -> String {
    if name.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !name.starts_with(|c: char| c.is_ascii_digit())
    {
        name.to_string()
    } else {
        format!("\\{name} ")
    }
}

/// The top-level component a cell belongs to (first path segment), or `None`
/// for cells that live directly at the root.
fn top_component(design: &Design, cell: CellId) -> Option<String> {
    let path = design.hier_path(design.cell(cell).hier_path);
    if path.is_empty() {
        None
    } else {
        Some(path.split('/').next().unwrap_or(path).to_string())
    }
}

/// Emits the design as structural Verilog with one module per top-level
/// hierarchy component.
pub fn emit_verilog(design: &Design) -> String {
    // group cells by top component
    let mut groups: BTreeMap<String, Vec<CellId>> = BTreeMap::new();
    let mut root_cells: Vec<CellId> = Vec::new();
    for (id, _) in design.cells() {
        match top_component(design, id) {
            Some(g) => groups.entry(g).or_default().push(id),
            None => root_cells.push(id),
        }
    }

    // For every group, the set of nets used inside it.
    let mut nets_of_group: BTreeMap<String, BTreeSet<NetId>> = BTreeMap::new();
    let mut groups_of_net: BTreeMap<NetId, BTreeSet<String>> = BTreeMap::new();
    let register_use =
        |group: &str,
         net: NetId,
         nets_of_group: &mut BTreeMap<String, BTreeSet<NetId>>,
         groups_of_net: &mut BTreeMap<NetId, BTreeSet<String>>| {
            nets_of_group.entry(group.to_string()).or_default().insert(net);
            groups_of_net.entry(net).or_default().insert(group.to_string());
        };
    let csr = design.connectivity();
    for (group, cells) in &groups {
        for &c in cells {
            for &n in csr.nets_of(c) {
                register_use(group, n, &mut nets_of_group, &mut groups_of_net);
            }
        }
    }
    for &c in &root_cells {
        for &n in csr.nets_of(c) {
            register_use("<top>", n, &mut nets_of_group, &mut groups_of_net);
        }
    }
    for (_, port) in design.ports() {
        if let Some(n) = port.net {
            register_use("<top>", n, &mut nets_of_group, &mut groups_of_net);
        }
    }

    // A net is a boundary net for a group if it is also used outside that group.
    let is_boundary = |group: &str, net: NetId| -> bool {
        groups_of_net.get(&net).map(|gs| gs.len() > 1 || !gs.contains(group)).unwrap_or(false)
    };

    let mut out = String::new();
    let _ = writeln!(out, "// generated by the hidap workload crate");

    // child modules
    for (group, cells) in &groups {
        let module_name = format!("mod_{group}");
        let boundary: Vec<NetId> =
            nets_of_group[group].iter().copied().filter(|&n| is_boundary(group, n)).collect();
        let _ = write!(out, "module {module_name} (");
        let port_list: Vec<String> = boundary.iter().map(|&n| escape(design.net_name(n))).collect();
        let _ = write!(out, "{}", port_list.join(", "));
        let _ = writeln!(out, ");");
        for &n in &boundary {
            // direction: output if driven inside this group, else input (a
            // net's first driver pin is its driving cell, if it has one)
            let driver = csr.pins(n).iter().find(|p| p.is_driver()).and_then(|p| p.cell());
            let driven_inside =
                driver.is_some_and(|d| top_component(design, d).as_deref() == Some(group.as_str()));
            let dir = if driven_inside { "output" } else { "input" };
            let _ = writeln!(out, "  {dir} {};", escape(design.net_name(n)));
        }
        for &n in nets_of_group[group].iter() {
            if !is_boundary(group, n) {
                let _ = writeln!(out, "  wire {};", escape(design.net_name(n)));
            }
        }
        for &c in cells {
            emit_instance(&mut out, design, c, Some(group));
        }
        let _ = writeln!(out, "endmodule\n");
    }

    // top module
    let _ = write!(out, "module {} (", escape(design.name()));
    let port_names: Vec<String> = design.port_ids().map(|p| escape(design.port_name(p))).collect();
    let _ = write!(out, "{}", port_names.join(", "));
    let _ = writeln!(out, ");");
    for (id, port) in design.ports() {
        let dir = match port.direction {
            netlist::design::PortDirection::Input => "input",
            netlist::design::PortDirection::Output => "output",
            netlist::design::PortDirection::Inout => "inout",
        };
        let _ = writeln!(out, "  {dir} {};", escape(design.port_name(id)));
    }
    // top-level wires: every net that crosses a boundary or is used at top
    let mut top_wires: BTreeSet<NetId> = BTreeSet::new();
    for (net, gs) in &groups_of_net {
        if gs.len() > 1 || gs.contains("<top>") {
            top_wires.insert(*net);
        }
    }
    for &n in &top_wires {
        let net = design.net_name(n);
        // ports already declare their own name
        if design.find_port(net).is_none() {
            let _ = writeln!(out, "  wire {};", escape(net));
        }
    }
    // child module instances
    for group in groups.keys() {
        let boundary: Vec<NetId> =
            nets_of_group[group].iter().copied().filter(|&n| is_boundary(group, n)).collect();
        let _ = write!(out, "  mod_{group} {} (", escape(&format!("u_{group}")));
        let conns: Vec<String> = boundary
            .iter()
            .map(|&n| {
                let name = escape(design.net_name(n));
                format!(".{name}({name})")
            })
            .collect();
        let _ = write!(out, "{}", conns.join(", "));
        let _ = writeln!(out, ");");
    }
    // root-level leaf cells
    for &c in &root_cells {
        emit_instance(&mut out, design, c, None);
    }
    let _ = writeln!(out, "endmodule");
    out
}

fn emit_instance(out: &mut String, design: &Design, cell_id: CellId, _group: Option<&str>) {
    let lib_cell = design.lib_cell(design.cell(cell_id).lib_cell);
    let _ = write!(out, "  {} {} (", escape(lib_cell), escape(design.cell_name(cell_id)));
    let csr = design.connectivity();
    let mut conns: Vec<String> = Vec::new();
    for (i, &n) in csr.fanin(cell_id).iter().enumerate() {
        conns.push(format!(".D{i}({})", escape(design.net_name(n))));
    }
    for (i, &n) in csr.fanout(cell_id).iter().enumerate() {
        conns.push(format!(".Q{i}({})", escape(design.net_name(n))));
    }
    let _ = write!(out, "{}", conns.join(", "));
    let _ = writeln!(out, ");");
}

/// Emits the macro library as LEF (plus generic flop/comb cells so every
/// instantiated `lib_cell` resolves).
pub fn emit_lef(design: &Design, library: &Library, dbu_per_micron: i64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "UNITS\n  DATABASE MICRONS {dbu_per_micron} ;\nEND UNITS\n");
    let to_um = |v: i64| v as f64 / dbu_per_micron as f64;
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    for m in library.iter() {
        emitted.insert(m.name.clone());
        let class = if m.is_block { "BLOCK" } else { "CORE" };
        let _ = writeln!(out, "MACRO {}", m.name);
        let _ = writeln!(out, "  CLASS {class} ;");
        let _ = writeln!(out, "  SIZE {} BY {} ;", to_um(m.width), to_um(m.height));
        for pin in &m.pins {
            let _ = writeln!(out, "  PIN {}", pin.name);
            let _ = writeln!(out, "    PORT");
            let _ = writeln!(
                out,
                "      RECT {} {} {} {} ;",
                to_um(pin.offset.x),
                to_um(pin.offset.y),
                to_um(pin.offset.x + dbu_per_micron / 10),
                to_um(pin.offset.y + dbu_per_micron / 10),
            );
            let _ = writeln!(out, "    END");
            let _ = writeln!(out, "  END {}", pin.name);
        }
        let _ = writeln!(out, "END {}\n", m.name);
    }
    // generic standard cells referenced by the netlist
    for (_, cell) in design.cells() {
        let lib_cell = design.lib_cell(cell.lib_cell);
        if cell.kind != CellKind::Macro && !emitted.contains(lib_cell) {
            emitted.insert(lib_cell.to_owned());
            let _ = writeln!(out, "MACRO {lib_cell}");
            let _ = writeln!(out, "  CLASS CORE ;");
            let _ = writeln!(
                out,
                "  SIZE {} BY {} ;",
                to_um(cell.width.max(1)),
                to_um(cell.height.max(1))
            );
            let _ = writeln!(out, "END {lib_cell}\n");
        }
    }
    out
}

/// The DEF component entries of `placements`, sorted by instance name.
fn component_entries(
    design: &Design,
    placements: &HashMap<CellId, (Point, Orientation)>,
) -> Vec<netlist::def::PlacementEntry> {
    let placement: MacroPlacement = placements
        .iter()
        .map(|(&cell, &(location, orientation))| PlacedMacro::new(cell, location, orientation))
        .collect();
    netlist::def::placement_entries_from_view(design, &placement, true)
}

/// Emits a floorplan DEF: die area, port locations and (optionally) macro
/// placements (`MacroPlacement::to_map` converts a flow's output).
pub fn emit_def(
    design: &Design,
    dbu_per_micron: i64,
    placements: &HashMap<CellId, (Point, Orientation)>,
) -> String {
    let entries = component_entries(design, placements);
    let pins = netlist::def::port_entries(design);
    netlist::def::write_def(design.name(), dbu_per_micron, design.die(), &entries, &pins)
}

/// Streaming form of [`emit_def`]: writes the same bytes straight into `out`
/// without building the DEF text in memory first.
pub fn emit_def_to<W: std::io::Write>(
    out: &mut W,
    design: &Design,
    dbu_per_micron: i64,
    placements: &HashMap<CellId, (Point, Orientation)>,
) -> std::io::Result<()> {
    let entries = component_entries(design, placements);
    let pins = netlist::def::port_entries(design);
    netlist::def::write_def_to(out, design.name(), dbu_per_micron, design.die(), &entries, &pins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{SocConfig, SocGenerator, SubsystemConfig};
    use netlist::verilog::{parse_verilog, ElaborateOptions};

    fn tiny() -> crate::generator::GeneratedDesign {
        SocGenerator::new(SocConfig {
            name: "tiny".into(),
            subsystems: vec![
                SubsystemConfig::balanced("u_cpu", 2, 4),
                SubsystemConfig::balanced("u_dsp", 1, 4),
            ],
            channels: vec![(0, 1)],
            io_subsystems: vec![0],
            io_bits: 4,
            utilization: 0.5,
            aspect_ratio: 1.0,
            seed: 3,
        })
        .generate()
    }

    #[test]
    fn verilog_roundtrip_preserves_cells_and_macros() {
        let g = tiny();
        let text = emit_verilog(&g.design);
        let opts = ElaborateOptions { library: g.library.clone(), ..Default::default() };
        let parsed = parse_verilog(&text, Some("tiny"), &opts).expect("emitted Verilog parses");
        assert_eq!(parsed.num_cells(), g.design.num_cells());
        assert_eq!(parsed.num_macros(), g.design.num_macros());
        assert_eq!(parsed.num_ports(), g.design.num_ports());
    }

    #[test]
    fn lef_roundtrip_preserves_macro_sizes() {
        let g = tiny();
        let text = emit_lef(&g.design, &g.library, 1000);
        let parsed = netlist::lef::parse_lef(&text).expect("emitted LEF parses");
        for m in g.library.blocks() {
            let p = parsed.library.find_macro(&m.name).expect("macro present");
            assert_eq!(p.width, m.width);
            assert_eq!(p.height, m.height);
            assert!(p.is_block);
        }
    }

    #[test]
    fn def_roundtrip_preserves_die_and_placement() {
        use geometry::{Orientation, Point};
        let g = tiny();
        let mut placements = std::collections::HashMap::new();
        for (i, m) in g.design.macros().enumerate() {
            placements.insert(m, (Point::new(1000 * i as i64, 2000), Orientation::N));
        }
        let text = emit_def(&g.design, 1000, &placements);
        let parsed = netlist::def::parse_def(&text).expect("emitted DEF parses");
        assert_eq!(parsed.die, g.design.die());
        assert_eq!(parsed.components.len(), g.design.num_macros());
        assert_eq!(parsed.pins.len(), g.design.num_ports());
    }

    #[test]
    fn escape_handles_plain_and_hierarchical_names() {
        assert_eq!(escape("abc_1"), "abc_1");
        assert_eq!(escape("u_a/ram[3]"), "\\u_a/ram[3] ");
    }
}
