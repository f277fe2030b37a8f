//! Fig. 5 regenerator: strong scaling of the HMeP matrix on the Westmere
//! cluster — three panels (one MPI process per physical core / per NUMA LD
//! / per node), three kernel variants each, 50 % parallel-efficiency
//! markers, plus the best Cray XE6 variant for reference.
//!
//! `cargo run --release -p spmv-bench --bin fig5_hmep_scaling [--scale ...]`

use spmv_bench::{efficiency_50_marker, header, hmep, node_counts, or_usage, Scale};
use spmv_core::KernelMode;
use spmv_machine::presets;
use spmv_machine::HybridLayout;
use spmv_sim::scaling::simulate_modes;
use spmv_sim::SimConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = or_usage(
        Scale::from_args(&args),
        "fig5_hmep_scaling [--scale test|medium|paper]",
    );
    header(&format!(
        "Fig. 5 — HMeP strong scaling (scale: {})",
        scale.label()
    ));

    let m = hmep(scale);
    let kappa = 2.5; // the paper's measured value for HMeP
    let nodes = node_counts(scale);
    let max_nodes = *nodes.last().unwrap();
    let westmere = presets::westmere_cluster(max_nodes);
    let cray = presets::cray_xe6_cluster(max_nodes, 0.35);
    println!(
        "\nmatrix: N = {}, N_nz = {}; kappa = {kappa}\n",
        m.nrows(),
        m.nnz()
    );

    let cfgs: Vec<SimConfig> = KernelMode::ALL
        .iter()
        .map(|&mode| SimConfig::new(mode).with_kappa(kappa))
        .collect();
    let mut best_cray: Vec<(usize, f64)> = nodes.iter().map(|&n| (n, 0.0f64)).collect();

    for layout in HybridLayout::ALL {
        println!("--- one MPI process {} ---", layout.label());
        println!(
            "{:>6} {:>22} {:>22} {:>12}",
            "nodes", "vector w/o overlap", "vector naive overlap", "task mode"
        );
        // per-mode series for the efficiency markers
        let mut series: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 3];
        for (slot, &n) in best_cray.iter_mut().zip(&nodes) {
            let west = simulate_modes(&m, &westmere, n, layout, &cfgs);
            let gfs: Vec<f64> = west
                .iter()
                .map(|r| r.as_ref().map(|r| r.gflops).unwrap_or(f64::NAN))
                .collect();
            println!(
                "{:>6} {:>16.2} GF/s {:>16.2} GF/s {:>6.2} GF/s",
                n, gfs[0], gfs[1], gfs[2]
            );
            for (k, g) in gfs.iter().enumerate() {
                if g.is_finite() {
                    series[k].push((n, *g));
                }
            }
            // best Cray variant across all layouts/modes (unrealizable
            // combinations are skipped, as on the real machine)
            for r in simulate_modes(&m, &cray, n, layout, &cfgs)
                .into_iter()
                .flatten()
            {
                slot.1 = slot.1.max(r.gflops);
            }
        }
        for (k, mode) in KernelMode::ALL.iter().enumerate() {
            let marker = efficiency_50_marker(&series[k])
                .map(|n| n.to_string())
                .unwrap_or_else(|| "<1".into());
            println!("  50% efficiency point, {}: {} nodes", mode.label(), marker);
        }
        println!();
    }

    println!("--- best Cray XE6 variant (reference curve) ---");
    for (n, g) in &best_cray {
        println!("{n:>6} {g:>16.2} GF/s");
    }

    println!(
        "\nPaper shape checks: task mode > vector w/o overlap > naive overlap for\n\
         per-core; the task-mode advantage grows for per-LD and per-node; the\n\
         Cray cannot match Westmere at large node counts despite its stronger\n\
         node (torus contention on non-nearest-neighbor traffic)."
    );
}
