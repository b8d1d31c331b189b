//! Property-based tests of the netlist model and the file-format writers/parsers.

use geometry::{Orientation, Point, Rect};
use netlist::arrays::{group_by_array, split_array_name};
use netlist::def::{parse_def, write_def, PlacementEntry};
use netlist::design::{DesignBuilder, NetId, PortDirection};
use netlist::hierarchy::HierarchyTree;
use proptest::prelude::*;

fn arb_identifier() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}"
}

proptest! {
    #[test]
    fn split_array_name_base_is_prefix(base in arb_identifier(), idx in 0u32..512) {
        // bracketed form always splits
        let b1 = split_array_name(&format!("{base}[{idx}]"));
        prop_assert_eq!(&b1.base, &base);
        prop_assert_eq!(b1.index, Some(idx));
        // escaped underscore form splits too
        let b2 = split_array_name(&format!("{base}_{idx}_"));
        prop_assert_eq!(&b2.base, &base);
        // the base never grows
        prop_assert!(b1.base.len() <= base.len() + 1);
    }

    #[test]
    fn grouping_is_a_partition(names in prop::collection::vec(arb_identifier(), 1..20), width in 1usize..8) {
        // expand every name into `width` bits
        let items: Vec<(String, usize)> = names
            .iter()
            .enumerate()
            .flat_map(|(i, n)| (0..width).map(move |b| (format!("{n}[{b}]"), i * width + b)))
            .collect();
        let total = items.len();
        let groups = group_by_array(items);
        let grouped: usize = groups.iter().map(|g| g.width()).sum();
        prop_assert_eq!(grouped, total, "every bit lands in exactly one group");
        // all bits of one base name are in one group
        for g in &groups {
            prop_assert!(g.width() % width == 0);
        }
    }

    #[test]
    fn def_write_parse_roundtrip(
        entries in prop::collection::vec(
            (0i64..100_000, 0i64..100_000, prop::sample::select(Orientation::ALL.to_vec()), any::<bool>()),
            1..20,
        ),
        die_w in 1000i64..1_000_000,
        die_h in 1000i64..1_000_000,
    ) {
        let placements: Vec<PlacementEntry> = entries
            .iter()
            .enumerate()
            .map(|(i, &(x, y, orientation, fixed))| PlacementEntry {
                name: format!("u_blk/macro_{i}"),
                cell: format!("RAM_{i}"),
                location: Point::new(x, y),
                orientation,
                fixed,
            })
            .collect();
        let pins = vec![("clk".to_string(), Point::new(0, die_h / 2))];
        let text = write_def("prop_design", 1000, Rect::new(0, 0, die_w, die_h), &placements, &pins);
        let parsed = parse_def(&text).expect("writer output must parse");
        prop_assert_eq!(parsed.design.as_str(), "prop_design");
        prop_assert_eq!(parsed.die, Rect::new(0, 0, die_w, die_h));
        prop_assert_eq!(parsed.components.len(), placements.len());
        for p in &placements {
            let c = parsed.find_component(&p.name).expect("component present");
            prop_assert_eq!(c.location, p.location);
            prop_assert_eq!(c.orientation, p.orientation);
        }
    }

    #[test]
    fn hierarchy_tree_counts_are_consistent(
        paths in prop::collection::vec(
            prop::collection::vec(arb_identifier(), 0..4),
            1..30,
        ),
        macro_mask in prop::collection::vec(any::<bool>(), 30),
    ) {
        let mut b = DesignBuilder::new("prop");
        for (i, segments) in paths.iter().enumerate() {
            let path = segments.join("/");
            let name = if path.is_empty() { format!("cell{i}") } else { format!("{path}/cell{i}") };
            if macro_mask[i % macro_mask.len()] {
                b.add_macro(name, "RAM", 10, 10, path);
            } else {
                b.add_comb(name, path);
            }
        }
        let design = b.build();
        let ht = HierarchyTree::from_design(&design);
        let root = ht.node(ht.root());
        // root subtree counts match the design totals
        prop_assert_eq!(root.subtree_cells, design.num_cells());
        prop_assert_eq!(root.subtree_macros, design.num_macros());
        prop_assert_eq!(root.subtree_area, design.total_cell_area());
        // every node's subtree count equals the sum over children plus direct cells
        for (id, node) in ht.iter() {
            let child_sum: usize = node.children.iter().map(|&c| ht.node(c).subtree_cells).sum();
            prop_assert_eq!(node.subtree_cells, child_sum + node.direct_cells.len());
            prop_assert_eq!(ht.subtree_cells(id).len(), node.subtree_cells);
        }
    }

    #[test]
    fn design_builder_always_produces_consistent_netlists(
        num_cells in 2usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..80),
        seed_ports in 0usize..4,
    ) {
        let mut b = DesignBuilder::new("prop");
        let ids: Vec<_> = (0..num_cells).map(|i| {
            if i % 5 == 0 {
                b.add_macro(format!("m{i}"), "RAM", 20, 20, "u_mem")
            } else if i % 3 == 0 {
                b.add_flop(format!("r{i}_reg[0]"), "u_dp")
            } else {
                b.add_comb(format!("g{i}"), "u_ctl")
            }
        }).collect();
        for (i, &(from, to)) in edges.iter().enumerate() {
            let (from, to) = (from % num_cells, to % num_cells);
            if from == to { continue; }
            let n = b.add_net(format!("n{i}"));
            b.connect_driver(n, ids[from]);
            b.connect_sink(n, ids[to]);
        }
        for p in 0..seed_ports {
            let port = b.add_port(format!("io{p}"), PortDirection::Input);
            let n = b.add_net(format!("ion{p}"));
            b.connect_port_driver(n, port);
            b.connect_sink(n, ids[p % num_cells]);
        }
        let design = b.build();
        prop_assert!(design.validate().is_ok());
    }

    #[test]
    fn csr_traversal_matches_the_vec_walks(
        num_cells in 2usize..10,
        num_nets in 1usize..8,
        num_ports in 1usize..5,
        ops in prop::collection::vec((0u8..4, 0usize..8, 0usize..10), 0..60),
    ) {
        // The CSR the builder packs against the Vec walks of a model of its
        // connection rules. A fixed prefix of the edge cases (a net re-driven
        // A → B → A, a duplicated sink, a re-driven port net, a duplicated
        // port sink), then random calls over a small id space so they recur.
        let prefix = [
            (0, 0, 0), (0, 0, 1), (0, 0, 0),
            (1, 0, 1), (1, 0, 1),
            (2, 0, 0), (2, 0, 1),
            (3, 0, 0), (3, 0, 0),
        ];
        let mut b = DesignBuilder::new("prop");
        let cells: Vec<_> = (0..num_cells).map(|i| b.add_comb(format!("g{i}"), "")).collect();
        let nets: Vec<_> = (0..num_nets).map(|i| b.add_net(format!("n{i}"))).collect();
        let ports: Vec<_> =
            (0..num_ports).map(|i| b.add_port(format!("p{i}"), PortDirection::Inout)).collect();
        let mut model = BuilderModel::new(num_cells, num_nets, num_ports);
        for &(kind, net, target) in prefix.iter().chain(&ops) {
            let (n, cell, port) = (net % num_nets, target % num_cells, target % num_ports);
            match kind {
                0 => b.connect_driver(nets[n], cells[cell]),
                1 => b.connect_sink(nets[n], cells[cell]),
                2 => b.connect_port_driver(nets[n], ports[port]),
                _ => b.connect_port_sink(nets[n], ports[port]),
            };
            model.apply(kind, n, cell, port);
        }
        let design = b.build();
        let csr = design.connectivity();
        for (i, &id) in cells.iter().enumerate() {
            let as_u32 = |nets: &[NetId]| nets.iter().map(|n| n.0).collect::<Vec<_>>();
            prop_assert_eq!(as_u32(csr.fanin(id)), model.cell_fanin[i].clone());
            prop_assert_eq!(as_u32(csr.fanout(id)), model.cell_fanout[i].clone());
        }
        for (i, &id) in nets.iter().enumerate() {
            let csr_walk: Vec<(bool, u32, bool)> = csr
                .pins(id)
                .iter()
                .map(|pin| {
                    let idx = pin.cell().map(|c| c.0).or_else(|| pin.port().map(|p| p.0));
                    (pin.is_port(), idx.expect("pin is a cell or a port"), pin.is_driver())
                })
                .collect();
            prop_assert_eq!(csr_walk, model.pins(i));
        }
        for (i, &id) in ports.iter().enumerate() {
            prop_assert_eq!(design.port(id).net.map(|n| n.0), model.port_net[i]);
        }
    }
}

/// The builder's connection rules, written out over plain `Vec`s: a sink
/// is kept once per net (first occurrence wins); a driver call that names a
/// new cell replaces the driver and appends the net to that cell's fanout,
/// while the old driver keeps its entry; a port driver call overwrites the
/// net's driver port; port sinks are kept once. Every port call also
/// attaches the port to the net.
struct BuilderModel {
    driver: Vec<Option<u32>>,
    sinks: Vec<Vec<u32>>,
    port_driver: Vec<Option<u32>>,
    port_sinks: Vec<Vec<u32>>,
    cell_fanin: Vec<Vec<u32>>,
    cell_fanout: Vec<Vec<u32>>,
    port_net: Vec<Option<u32>>,
}

impl BuilderModel {
    fn new(cells: usize, nets: usize, ports: usize) -> Self {
        Self {
            driver: vec![None; nets],
            sinks: vec![Vec::new(); nets],
            port_driver: vec![None; nets],
            port_sinks: vec![Vec::new(); nets],
            cell_fanin: vec![Vec::new(); cells],
            cell_fanout: vec![Vec::new(); cells],
            port_net: vec![None; ports],
        }
    }

    fn apply(&mut self, kind: u8, net: usize, cell: usize, port: usize) {
        let (n, c, p) = (net as u32, cell as u32, port as u32);
        match kind {
            0 if self.driver[net] != Some(c) => {
                self.driver[net] = Some(c);
                self.cell_fanout[cell].push(n);
            }
            1 if !self.sinks[net].contains(&c) => {
                self.sinks[net].push(c);
                self.cell_fanin[cell].push(n);
            }
            2 => {
                self.port_driver[net] = Some(p);
                self.port_net[port] = Some(n);
            }
            3 => {
                if !self.port_sinks[net].contains(&p) {
                    self.port_sinks[net].push(p);
                }
                self.port_net[port] = Some(n);
            }
            _ => {}
        }
    }

    /// A net's pins as `(is_port, index, is_driver)` in the canonical order:
    /// driver cell, sink cells, driver port, sink ports.
    fn pins(&self, net: usize) -> Vec<(bool, u32, bool)> {
        let mut pins = Vec::new();
        pins.extend(self.driver[net].map(|c| (false, c, true)));
        pins.extend(self.sinks[net].iter().map(|&c| (false, c, false)));
        pins.extend(self.port_driver[net].map(|p| (true, p, true)));
        pins.extend(self.port_sinks[net].iter().map(|&p| (true, p, false)));
        pins
    }
}

/// The emitted netlist of a small preset, the seed of every mutation.
fn small_netlist() -> &'static str {
    static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TEXT.get_or_init(|| {
        let config = workload::presets::service_fleet_config(0, 0.01);
        workload::emit::emit_verilog(&workload::SocGenerator::new(config).generate().design)
    })
}

/// The characters a mutation inserts: Verilog's punctuation, digits, a
/// multi-byte letter, a no-break space and a vertical tab.
const INSERTED: [char; 17] = [
    '\\', '[', ']', '(', ')', '{', '}', ',', ';', '.', '\'', '/', '*', '7', '\u{e9}', '\u{a0}',
    '\u{b}',
];

/// One mutation of `text`: 0 truncates it at the char boundary at or before
/// `at`, 1 deletes `len` lines from line `at`, 2 repeats them, and 3 inserts
/// `chars` at the char boundary at or before `at`.
fn mutate(text: &str, (kind, at, len, chars): &(u8, usize, usize, Vec<char>)) -> String {
    let mut cut = at % (text.len() + 1);
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    let (head, tail) = text.split_at(cut);
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let first = at % lines.len().max(1);
    let last = (first + len).min(lines.len());
    match kind {
        0 => head.to_string(),
        1 => [&lines[..first], &lines[last..]].concat().concat(),
        2 => [&lines[..last], &lines[first..]].concat().concat(),
        _ => format!("{head}{}{tail}", chars.iter().collect::<String>()),
    }
}

/// Parses `text` mutated by each of `mutations` in turn, with the top
/// inferred and named: the parser returns a design or a `ParseError`, and
/// never panics.
fn parse_mutated(mutations: &[(u8, usize, usize, Vec<char>)]) {
    let text = mutations.iter().fold(small_netlist().to_string(), |text, m| mutate(&text, m));
    let opts = netlist::verilog::ElaborateOptions::default();
    for top in [None, Some("fleet_0")] {
        let _ = netlist::verilog::parse_verilog(&text, top, &opts);
    }
}

fn arb_mutations() -> impl Strategy<Value = Vec<(u8, usize, usize, Vec<char>)>> {
    arb_mutations_of(&INSERTED)
}

/// One to three mutations for [`mutate`], inserting characters of
/// `alphabet`.
fn arb_mutations_of(
    alphabet: &[char],
) -> impl Strategy<Value = Vec<(u8, usize, usize, Vec<char>)>> {
    prop::collection::vec(
        (
            0u8..4,
            0usize..1_000_000,
            1usize..8,
            prop::collection::vec(prop::sample::select(alphabet.to_vec()), 1..6),
        ),
        1..4,
    )
}

/// The LEF and DEF mutations insert Verilog's characters plus the signs,
/// comment and quote marks and exponent letter the two formats read.
fn lef_def_alphabet() -> Vec<char> {
    [&INSERTED[..], &['-', '+', '#', '"', 'e']].concat()
}

/// The emitted LEF and DEF of the preset [`small_netlist`] comes from, and
/// the design they describe, parsed from the emitted text. The DEF places
/// every macro of the parsed design, under the names it elaborated.
struct Physical {
    lef: String,
    def: String,
    design: netlist::design::Design,
}

fn small_physical() -> &'static Physical {
    static PHYSICAL: std::sync::OnceLock<Physical> = std::sync::OnceLock::new();
    PHYSICAL.get_or_init(|| {
        let config = workload::presets::service_fleet_config(0, 0.01);
        let generated = workload::SocGenerator::new(config).generate();
        let lef = workload::emit::emit_lef(&generated.design, &generated.library, 1000);
        let opts = netlist::verilog::ElaborateOptions {
            library: netlist::lef::parse_lef(&lef).expect("the emitted LEF parses").library,
            ..Default::default()
        };
        let mut design = netlist::verilog::parse_verilog(small_netlist(), None, &opts)
            .expect("the emitted netlist parses");
        // the generated floorplan gives the parsed design its die and pins
        let floorplan = workload::emit::emit_def(&generated.design, 1000, &Default::default());
        parse_def(&floorplan).expect("the emitted DEF parses").apply_to(&mut design);
        let placements = design
            .macros()
            .enumerate()
            .map(|(i, cell)| {
                let at = Point::new(1000 * i as i64, 500 * i as i64);
                (cell, (at, Orientation::ALL[i % Orientation::ALL.len()]))
            })
            .collect();
        let def = workload::emit::emit_def(&design, 1000, &placements);
        Physical { lef, def, design }
    })
}

/// A parse error points at a line of the text it read, when it names one.
fn check_error_line(text: &str, err: &netlist::ParseError) -> Result<(), TestCaseError> {
    if let Some(line) = err.line {
        prop_assert!((1..=text.lines().count() + 1).contains(&line), "{}", err);
    }
    Ok(())
}

/// Parses the emitted LEF mutated by each of `mutations` in turn: a library
/// or a `ParseError`, never a panic.
fn parse_mutated_lef(mutations: &[(u8, usize, usize, Vec<char>)]) -> Result<(), TestCaseError> {
    let text = mutations.iter().fold(small_physical().lef.clone(), |text, m| mutate(&text, m));
    if let Err(err) = netlist::lef::parse_lef(&text) {
        check_error_line(&text, &err)?;
    }
    Ok(())
}

/// Parses the emitted DEF mutated by each of `mutations` in turn, and
/// applies a DEF that parses to the design: a `ParseError` or a placement,
/// never a panic.
fn parse_mutated_def(mutations: &[(u8, usize, usize, Vec<char>)]) -> Result<(), TestCaseError> {
    let physical = small_physical();
    let text = mutations.iter().fold(physical.def.clone(), |text, m| mutate(&text, m));
    match netlist::def::parse_def(&text) {
        Ok(def) => {
            let mut design = physical.design.clone();
            let placement = def.apply_to(&mut design);
            prop_assert_eq!(design.die(), def.die);
            // one entry per named cell, sorted by cell
            prop_assert!(placement.macros.windows(2).all(|w| w[0].cell < w[1].cell));
        }
        Err(err) => check_error_line(&text, &err)?,
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    #[test]
    fn mutated_verilog_never_panics_the_parser(mutations in arb_mutations()) {
        parse_mutated(&mutations);
    }

    #[test]
    fn mutated_lef_never_panics_the_parser(mutations in arb_mutations_of(&lef_def_alphabet())) {
        parse_mutated_lef(&mutations)?;
    }

    #[test]
    fn mutated_def_never_panics_the_parser_or_its_apply(
        mutations in arb_mutations_of(&lef_def_alphabet()),
    ) {
        parse_mutated_def(&mutations)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3000 })]

    /// The mutation sweep over 3,000 cases (`--ignored`; a few seconds in
    /// release).
    #[test]
    #[ignore]
    fn mutated_verilog_never_panics_the_parser_deep_sweep(mutations in arb_mutations()) {
        parse_mutated(&mutations);
    }

    /// The LEF mutation sweep over 3,000 cases (`--ignored`).
    #[test]
    #[ignore]
    fn mutated_lef_never_panics_the_parser_deep_sweep(
        mutations in arb_mutations_of(&lef_def_alphabet()),
    ) {
        parse_mutated_lef(&mutations)?;
    }

    /// The DEF mutation sweep over 3,000 cases (`--ignored`).
    #[test]
    #[ignore]
    fn mutated_def_never_panics_the_parser_or_its_apply_deep_sweep(
        mutations in arb_mutations_of(&lef_def_alphabet()),
    ) {
        parse_mutated_def(&mutations)?;
    }
}
