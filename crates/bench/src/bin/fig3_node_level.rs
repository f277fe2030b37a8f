//! Fig. 3 regenerator: node-level performance — STREAM triad bandwidth,
//! SpMV-drawn bandwidth and SpMV GFlop/s versus active cores, for Nehalem
//! EP (Fig. 3a), Westmere EP and Magny Cours (Fig. 3b), using the HMeP
//! matrix's code balance.
//!
//! `cargo run --release -p spmv-bench --bin fig3_node_level [--scale ...]`

use spmv_bench::{header, hmep, or_usage, Scale};
use spmv_machine::presets;
use spmv_model::roofline::ld_scaling_curve;
use spmv_model::{code_balance_crs, estimate_kappa};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = or_usage(
        Scale::from_args(&args),
        "fig3_node_level [--scale test|medium|paper]",
    );
    header(&format!(
        "Fig. 3 — node-level performance (HMeP, scale: {})",
        scale.label()
    ));

    // κ from the cache model on the actual matrix (the paper measures 2.5
    // at full scale on Westmere's 2 MiB/core cache; we scale the cache with
    // the problem to preserve the vector-to-cache ratio).
    let m = hmep(scale);
    let nnzr = m.avg_nnz_per_row();
    let full_scale_vector_bytes = 6_201_600.0 * 8.0;
    let cache_scale = (m.ncols() as f64 * 8.0) / full_scale_vector_bytes;
    let kappa = {
        let node = presets::westmere_ep_node();
        let cache = node.lds()[0].cache_bytes_per_core() * cache_scale;
        estimate_kappa(&m, cache.max(4096.0), 64).kappa
    };
    let balance = code_balance_crs(nnzr, kappa);
    println!(
        "\nmatrix: N = {}, N_nzr = {:.2}; cache-model kappa = {:.2} (paper: 2.5) -> B_CRS = {:.2} bytes/flop\n",
        m.nrows(),
        nnzr,
        kappa,
        balance
    );

    for (fig, node) in [
        ("Fig. 3a — Intel Nehalem EP", presets::nehalem_ep_node()),
        ("Fig. 3b — Intel Westmere EP", presets::westmere_ep_node()),
        ("Fig. 3b — AMD Magny Cours", presets::magny_cours_node()),
    ] {
        println!("{fig}");
        println!(
            "{:>7} {:>18} {:>18} {:>16}",
            "cores", "STREAM [GB/s]", "SpMV bw [GB/s]", "SpMV [GFlop/s]"
        );
        let ld = node.lds()[0];
        let curve = ld_scaling_curve(ld, balance);
        for pt in &curve {
            println!(
                "{:>7} {:>18.1} {:>18.1} {:>16.2}",
                pt.cores, pt.stream_bandwidth_gbs, pt.spmv_bandwidth_gbs, pt.gflops
            );
        }
        // full node: all LDs saturated
        let node_gflops: f64 = node
            .lds()
            .iter()
            .map(|l| l.spmv_bw.bandwidth(l.cores) / balance)
            .sum();
        println!(
            "{:>7} {:>18.1} {:>18.1} {:>16.2}   <- 1 node ({} LDs)\n",
            node.num_cores(),
            node.node_stream_bw_gbs(),
            node.node_spmv_bw_gbs(),
            node_gflops,
            node.num_lds()
        );
    }

    println!(
        "Paper reference (Fig. 3a, Nehalem, kappa = 2.5): 0.91 / 1.50 / 1.95 / 2.25 GFlop/s\n\
         for 1-4 cores and 4.29 GFlop/s for the full node; STREAM saturates at 21.2 GB/s\n\
         while SpMV keeps gaining up to all four cores — the slack task mode exploits."
    );
}
