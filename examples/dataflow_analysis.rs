//! Inspect the circuit abstractions HiDaP builds: the hierarchy tree, the
//! sequential graph `Gseq` and the dataflow graph `Gdf` with its block-flow
//! and macro-flow affinities (the analysis behind Fig. 2 / Fig. 7 / Fig. 9d).
//!
//! Run with: `cargo run --release -p bench --example dataflow_analysis`

use graphs::seqgraph::SeqGraphConfig;
use graphs::SeqGraph;
use hidap::dataflow::dataflow_inference;
use hidap::decluster::hierarchical_declustering;
use hidap::shape_curves::ShapeCurveSet;
use hidap::HidapConfig;
use netlist::hierarchy::HierarchyTree;
use workload::presets::fig3_design;

fn main() {
    // The four-block system of Fig. 2/3: A feeds B and C, B and C feed D,
    // all through registers in the standard-cell hub X.
    let design = fig3_design();
    let config = HidapConfig::default();

    let ht = HierarchyTree::from_design(&design);
    println!("hierarchy tree ({} levels):", ht.len());
    for (_, node) in ht.iter() {
        let name = if node.path.is_empty() { "<top>" } else { node.path.as_str() };
        println!(
            "  {:<12} area={:<14} macros={:<3} cells={}",
            name, node.subtree_area, node.subtree_macros, node.subtree_cells
        );
    }

    let gseq = SeqGraph::from_design(&design, &SeqGraphConfig { min_register_bits: 1 });
    println!("\nGseq: {} nodes, {} edges", gseq.num_nodes(), gseq.num_edges());
    for (_, node) in gseq.iter() {
        println!("  {:?} {:<22} width={}", node.kind, node.name, node.width);
    }

    // Decluster the top level and build the dataflow graph.
    let curves = ShapeCurveSet::generate(&design, &ht, &config);
    let mut blocks = hierarchical_declustering(&design, &ht, &curves, ht.root(), &config);
    let gnet = graphs::NetGraph::from_design(&design);
    let mut scratch = hidap::target_area::TargetAreaScratch::default();
    hidap::target_area::target_area_assignment(&design, &gnet, &mut blocks, &config, &mut scratch);
    let df = dataflow_inference(&design, &gseq, &blocks, &[], &config);

    println!("\ndataflow nodes:");
    for idx in 0..df.graph.num_nodes() {
        println!("  [{idx}] {}", df.graph.node(idx).name());
    }

    for (label, lambda) in
        [("block flow only (lambda=1.0)", 1.0), ("macro flow only (lambda=0.0)", 0.0)]
    {
        println!("\naffinity matrix, {label}:");
        let m = df.graph.affinity_matrix(lambda, config.score_k);
        print!("{:>14}", "");
        for j in 0..m.len() {
            print!("{:>10}", df.graph.node(j).name());
        }
        println!();
        for i in 0..m.len() {
            print!("{:>14}", df.graph.node(i).name());
            for v in m.row(i) {
                print!("{:>10.1}", v);
            }
            println!();
        }
    }
}
