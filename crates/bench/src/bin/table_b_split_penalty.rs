//! Table B regenerator (in-text, §3.1): the split-kernel penalty.
//!
//! "The performance model (1) can be modified to account for an additional
//! data transfer of 16/N_nzr bytes per inner loop iteration ... For
//! N_nzr ≈ 7…15 and assuming κ = 0, one may expect a node-level performance
//! penalty between 15 % and 8 %, and even less if κ > 0."
//!
//! Printed analytically from Eq. 1/2 *and* cross-checked with the timing
//! simulator on a single node (where the penalty is the only difference
//! between the no-overlap and naive-overlap kernels).
//!
//! `cargo run --release -p spmv-bench --bin table_b_split_penalty [--scale ...]`

use spmv_bench::{header, hmep, or_usage, samg, Scale};
use spmv_core::KernelMode;
use spmv_machine::{presets, HybridLayout};
use spmv_model::balance::{code_balance_crs, code_balance_split, split_penalty_paper_convention};
use spmv_sim::{simulate_job, SimConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = or_usage(
        Scale::from_args(&args),
        "table_b_split_penalty [--scale test|medium|paper]",
    );
    header(&format!(
        "Table B — split-kernel penalty (Eq. 2 vs Eq. 1), scale: {}",
        scale.label()
    ));

    println!("\nanalytic (kappa = 0):");
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "N_nzr", "B_CRS", "B_split", "penalty"
    );
    for nnzr in [7.0, 9.0, 11.0, 13.0, 15.0] {
        println!(
            "{:>8.0} {:>12.3} {:>12.3} {:>9.1}%",
            nnzr,
            code_balance_crs(nnzr, 0.0),
            code_balance_split(nnzr, 0.0),
            split_penalty_paper_convention(nnzr, 0.0) * 100.0
        );
    }
    println!("  (paper: between 15% for N_nzr = 7 and 8% for N_nzr = 15)");

    println!("\nanalytic (kappa = 2.5): penalties shrink as the paper predicts:");
    for nnzr in [7.0, 15.0] {
        println!(
            "  N_nzr = {nnzr:>4.0}: {:.1}%",
            split_penalty_paper_convention(nnzr, 2.5) * 100.0
        );
    }

    // simulated single-node cross-check: with zero communication the only
    // difference between the kernels is the split traffic
    println!("\nsimulated single-node penalty (Westmere, per-node layout):");
    let cluster = presets::westmere_cluster(1);
    for (name, m, kappa) in [("HMeP", hmep(scale), 2.5), ("sAMG", samg(scale), 0.0)] {
        let novl = simulate_job(
            &m,
            &cluster,
            1,
            HybridLayout::ProcessPerNode,
            &SimConfig::new(KernelMode::VectorNoOverlap).with_kappa(kappa),
        );
        let naive = simulate_job(
            &m,
            &cluster,
            1,
            HybridLayout::ProcessPerNode,
            &SimConfig::new(KernelMode::VectorNaiveOverlap).with_kappa(kappa),
        );
        let nnzr = m.avg_nnz_per_row();
        let analytic =
            (code_balance_split(nnzr, kappa) / code_balance_crs(nnzr, kappa) - 1.0) * 100.0;
        println!(
            "  {name}: {:.2} -> {:.2} GFlop/s = {:.1}% penalty (analytic: {:.1}%)",
            novl.gflops,
            naive.gflops,
            (novl.gflops / naive.gflops - 1.0) * 100.0,
            analytic
        );
    }
}
