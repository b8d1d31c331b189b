//! Regenerates `testdata/serve/` — the two fixed designs the CI serve-mode
//! smoke test interns over the wire (see `docs/PROTOCOL.md` and the
//! "Serve session smoke test" step in `.github/workflows/ci.yml`).
//!
//! Usage: `cargo run -p workload --example emit_serve_testdata -- testdata/serve`
//!
//! Prints the heap bytes of each design (its wiring included) so the
//! `--memory-budget` baked into `session.txt`'s CI invocation can be sized
//! between "small pinned" and "small + large pinned".

use netlist::HeapSize;
use workload::emit::{emit_lef, emit_verilog};
use workload::{SocConfig, SocGenerator, SubsystemConfig};

fn soc_config(name: &str, bits: usize, seed: u64) -> SocConfig {
    SocConfig {
        name: name.into(),
        subsystems: vec![
            SubsystemConfig::balanced("u_cpu", 2, bits),
            SubsystemConfig::balanced("u_dsp", 2, bits),
        ],
        channels: vec![(0, 1), (1, 0)],
        io_subsystems: vec![0],
        io_bits: 8,
        utilization: 0.5,
        aspect_ratio: 1.0,
        seed,
    }
}

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "testdata/serve".into());
    let dir = std::path::Path::new(&out);
    std::fs::create_dir_all(dir).expect("create output directory");

    for config in [soc_config("serve_small", 4, 5), soc_config("serve_large", 96, 7)] {
        let name = config.name.clone();
        let generated = SocGenerator::new(config).generate();
        std::fs::write(dir.join(format!("{name}.v")), emit_verilog(&generated.design))
            .expect("write verilog");
        std::fs::write(
            dir.join(format!("{name}.lef")),
            emit_lef(&generated.design, &generated.library, 1000),
        )
        .expect("write lef");
        println!("{name}: {} heap bytes", generated.design.heap_bytes());
    }
}
