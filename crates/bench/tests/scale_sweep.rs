//! The scale axis, checked end to end at each point: generate
//! `large_soc_config(scale)`, emit it to Verilog/LEF/DEF text, parse it back
//! through the streaming parsers, then place and measure it on the dense
//! path. At every point the parsed design must be the generated one, its
//! resident bytes must stay under the per-cell ceiling, and the dense
//! placement and HPWL must equal the references in `bench::reference` (the
//! rescan placer and the point-buffer HPWL), on the generated design and on
//! the parsed one.
//!
//! `cargo test` runs scale 0.05. The 0.1 and 0.25 points are `#[ignore]`d
//! (about 25 s together in a debug build, 1.5 s in release on a 2-vCPU x86-64
//! VM):
//!
//! ```text
//! cargo test --release -p bench --test scale_sweep -- --ignored
//! ```

use bench::reference::{grid_macro_placement, place_standard_cells_rescan, total_hpwl_reference};
use eval::{place_standard_cells, total_hpwl, PlacerConfig};
use netlist::design::Design;
use netlist::HeapSize;
use std::collections::HashMap;
use workload::presets::large_soc_config;
use workload::SocGenerator;

/// Ceiling on the streaming parsers' per-cell resident cost (the parsed
/// `Design`'s `heap_bytes` over its cell count, its CSR wiring included).
/// The parsed design reads about 130, 129 and 140 B/cell at scales 0.05,
/// 0.1 and 0.25 (the name indexes' power-of-two slots make the share move
/// with scale); the bound is 1.5x the 0.05 point, so a regression in the
/// parsers' compaction (per-cell `String`s, spare store capacity, wider
/// cell slots) blows past it.
const PARSE_BYTES_PER_CELL_CEILING: usize = 195;

/// The dense placer and HPWL equal the references, bit for bit, on a grid
/// macro placement of `design`.
fn assert_dense_matches_reference(design: &Design, what: &str) {
    let base = grid_macro_placement(design, 0);
    let cfg = PlacerConfig::default();
    let dense = place_standard_cells(design, &base, &cfg);
    assert_eq!(
        place_standard_cells_rescan(design, &base, &cfg),
        dense,
        "dense and reference placements disagree on {what}"
    );
    assert_eq!(
        total_hpwl_reference(design, &dense),
        total_hpwl(design, &dense),
        "dense and reference HPWL disagree on {what}"
    );
}

/// Checks one point of the scale axis (see the module doc).
fn check_scale_point(scale: f64) {
    let generated = SocGenerator::new(large_soc_config(scale)).generate();
    assert_dense_matches_reference(&generated.design, &format!("generated scale {scale}"));

    let verilog = workload::emit::emit_verilog(&generated.design);
    let lef = workload::emit::emit_lef(&generated.design, &generated.library, 1000);
    let def = workload::emit::emit_def(&generated.design, 1000, &HashMap::new());
    let lef_file = netlist::lef::parse_lef(&lef).expect("emitted LEF parses");
    let elaborate =
        netlist::verilog::ElaborateOptions { library: lef_file.library, ..Default::default() };
    let mut design = netlist::verilog::parse_verilog(&verilog, None, &elaborate)
        .expect("emitted Verilog parses");
    netlist::def::parse_def(&def).expect("emitted DEF parses").apply_to(&mut design);

    // the parsed design is the generated design: same id families, same die
    let want = &generated.design;
    assert_eq!(design.num_cells(), want.num_cells(), "cell count drifts at scale {scale}");
    assert_eq!(design.num_nets(), want.num_nets(), "net count drifts at scale {scale}");
    assert_eq!(design.num_macros(), want.num_macros(), "macro count drifts at scale {scale}");
    assert_eq!(design.num_ports(), want.num_ports(), "port count drifts at scale {scale}");
    assert_eq!(design.die(), want.die(), "die drifts through the DEF at scale {scale}");

    let cells = design.num_cells();
    let bytes = design.heap_bytes();
    assert!(
        bytes <= cells * PARSE_BYTES_PER_CELL_CEILING,
        "parsed design costs {bytes} bytes for {cells} cells ({} B/cell) at scale {scale}, \
         over the {PARSE_BYTES_PER_CELL_CEILING} B/cell streaming-parser ceiling",
        bytes / cells.max(1)
    );

    assert_dense_matches_reference(&design, &format!("parsed scale {scale}"));
}

#[test]
fn smallest_scale_point_round_trips_and_matches_the_reference() {
    check_scale_point(0.05);
}

#[test]
#[ignore = "about 25 s in a debug build; CI runs it with --release"]
fn larger_scale_points_round_trip_and_match_the_reference() {
    for scale in [0.1, 0.25] {
        check_scale_point(scale);
    }
}
