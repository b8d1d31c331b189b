//! Byte-identity of the streaming DEF emitter.
//!
//! `write_def_to` replaced a `String`-building emitter; these tests pin its
//! output against a verbatim copy of the old implementation at `large_soc`
//! scale, so the streaming rewrite cannot silently change the file format.

use geometry::{Orientation, Point, Rect};
use netlist::def::{
    placement_entries_from_view, port_entries, write_def, write_def_to, PlacementEntry,
};
use netlist::{MacroPlacement, PlacedMacro};

/// The pre-streaming emitter, copied verbatim: the reference for byte
/// identity.
fn reference_write_def(
    design_name: &str,
    dbu_per_micron: i64,
    die: Rect,
    placements: &[PlacementEntry],
    pins: &[(String, Point)],
) -> String {
    let mut out = String::new();
    out.push_str("VERSION 5.8 ;\n");
    out.push_str(&format!("DESIGN {design_name} ;\n"));
    out.push_str(&format!("UNITS DISTANCE MICRONS {dbu_per_micron} ;\n"));
    out.push_str(&format!("DIEAREA ( {} {} ) ( {} {} ) ;\n", die.llx, die.lly, die.urx, die.ury));
    out.push_str(&format!("COMPONENTS {} ;\n", placements.len()));
    for p in placements {
        let status = if p.fixed { "FIXED" } else { "PLACED" };
        out.push_str(&format!(
            "- {} {} + {} ( {} {} ) {} ;\n",
            p.name, p.cell, status, p.location.x, p.location.y, p.orientation
        ));
    }
    out.push_str("END COMPONENTS\n");
    out.push_str(&format!("PINS {} ;\n", pins.len()));
    for (name, pos) in pins {
        out.push_str(&format!("- {name} + NET {name} + PLACED ( {} {} ) N ;\n", pos.x, pos.y));
    }
    out.push_str("END PINS\n");
    out.push_str("END DESIGN\n");
    out
}

fn stream_to_string(
    design_name: &str,
    dbu: i64,
    die: Rect,
    entries: &[PlacementEntry],
    pins: &[(String, Point)],
) -> String {
    let mut buf = Vec::new();
    write_def_to(&mut buf, design_name, dbu, die, entries, pins).expect("Vec write cannot fail");
    String::from_utf8(buf).expect("DEF is UTF-8")
}

#[test]
fn streaming_emitter_matches_reference_at_large_soc_scale() {
    let generated = workload::presets::generate_circuit("large_soc");
    let design = &generated.design;

    // deterministic synthetic macro placement: a grid walk in macro-id order
    let die = design.die();
    let placement: MacroPlacement = design
        .macros()
        .enumerate()
        .map(|(i, id)| {
            let i = i as i64;
            let x = die.llx + (i % 17) * 1000;
            let y = die.lly + (i / 17) * 2000;
            let orient = if i % 3 == 0 { Orientation::N } else { Orientation::FS };
            PlacedMacro::new(id, Point { x, y }, orient)
        })
        .collect();

    let entries = placement_entries_from_view(design, &placement, true);
    let pins = port_entries(design);
    assert!(entries.len() >= 200, "large_soc should have >= 200 macros, got {}", entries.len());

    let reference = reference_write_def(design.name(), 2000, die, &entries, &pins);
    let wrapped = write_def(design.name(), 2000, die, &entries, &pins);
    let streamed = stream_to_string(design.name(), 2000, die, &entries, &pins);

    assert_eq!(streamed, reference, "streamed DEF differs from the old emitter");
    assert_eq!(wrapped, reference, "write_def wrapper differs from the old emitter");

    // the streaming wrapper in workload takes the same path
    let placements = placement.to_map();
    let mut via_workload = Vec::new();
    workload::emit::emit_def_to(&mut via_workload, design, 2000, &placements)
        .expect("Vec write cannot fail");
    let direct = workload::emit::emit_def(design, 2000, &placements);
    assert_eq!(String::from_utf8(via_workload).expect("DEF is UTF-8"), direct);
}

#[test]
fn streaming_emitter_matches_reference_on_a_multi_megabyte_body() {
    // a DEF body big enough that buffering behavior (chunk boundaries,
    // formatting of negative and large coordinates) actually gets exercised
    let die = Rect { llx: -5000, lly: -5000, urx: 9_000_000, ury: 9_000_000 };
    let entries: Vec<PlacementEntry> = (0..100_000)
        .map(|i| PlacementEntry {
            name: format!("u_core/blk_{}/reg_q[{}]", i % 997, i),
            cell: format!("DFF_X{}", 1 + i % 4),
            location: Point {
                x: -5000 + (i as i64 * 137) % 8_000_000,
                y: (i as i64 * 7919) % 8_000_000,
            },
            orientation: match i % 4 {
                0 => Orientation::N,
                1 => Orientation::S,
                2 => Orientation::FN,
                _ => Orientation::FS,
            },
            fixed: i % 5 == 0,
        })
        .collect();
    let pins: Vec<(String, Point)> =
        (0..512).map(|i| (format!("io[{i}]"), Point { x: i, y: -i })).collect();

    let reference = reference_write_def("mega", 1000, die, &entries, &pins);
    assert!(reference.len() > 4 << 20, "expected a multi-MB DEF, got {} bytes", reference.len());
    let streamed = stream_to_string("mega", 1000, die, &entries, &pins);
    assert_eq!(streamed, reference);
}
