//! Table A regenerator (the in-text numbers of §2): the κ analysis.
//!
//! The paper, on one Westmere/Nehalem socket with HMeP (`N_nzr = 15`):
//! * STREAM triad 21.2 GB/s → max 3.12 GFlop/s at κ = 0;
//! * SpMV draws 18.1 GB/s → max 2.66 GFlop/s at κ = 0;
//! * measured 2.25 GFlop/s → κ = 2.5 (37.3 extra bytes per row, i.e. the
//!   whole RHS vector loaded six times, used 15 times per load);
//! * HMEp: κ = 3.79, a ~10 % performance drop.
//!
//! We regenerate each derived quantity from our cache model and machine
//! model and print paper-vs-model side by side.
//!
//! `cargo run --release -p spmv-bench --bin table_a_kappa [--scale ...]`

use spmv_bench::{header, hmep, hmep_phonon, or_usage, Scale};
use spmv_machine::presets;
use spmv_model::{code_balance_crs, estimate_kappa, kappa_from_measurement, predicted_gflops};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = or_usage(
        Scale::from_args(&args),
        "table_a_kappa [--scale test|medium|paper]",
    );
    header(&format!(
        "Table A — κ and bandwidth analysis (§2), scale: {}",
        scale.label()
    ));

    let node = presets::nehalem_ep_node();
    let ld = node.lds()[0];
    let stream = ld.stream_saturated_gbs();
    let spmv_bw = ld.spmv_saturated_gbs();

    println!("\nsocket bandwidths (Nehalem EP model):");
    println!("  STREAM triad: {stream:.1} GB/s   (paper: 21.2 GB/s)");
    println!("  SpMV drawn:   {spmv_bw:.1} GB/s   (paper: 18.1 GB/s)");
    println!(
        "  SpMV/STREAM:  {:.0}%        (paper: >85%)",
        spmv_bw / stream * 100.0
    );

    let b0 = code_balance_crs(15.0, 0.0);
    println!("\nupper limits at kappa = 0 (B_CRS = {b0:.2} bytes/flop):");
    println!(
        "  from SpMV bandwidth:   {:.2} GFlop/s (paper: 2.66)",
        predicted_gflops(spmv_bw, b0)
    );
    println!(
        "  from STREAM bandwidth: {:.2} GFlop/s (paper: 3.12)",
        predicted_gflops(stream, b0)
    );

    // κ extraction from the paper's measurement
    let kappa_paper = kappa_from_measurement(15.0, 2.25, 18.1);
    println!("\nkappa from the paper's measured point (2.25 GFlop/s @ 18.1 GB/s): {kappa_paper:.2} (paper: 2.5)");

    // κ from our cache model, both orderings
    let me = hmep(scale);
    let mp = hmep_phonon(scale);
    let full_scale_vector_bytes = 6_201_600.0 * 8.0;
    let cache_scale = (me.ncols() as f64 * 8.0) / full_scale_vector_bytes;
    let cache =
        (presets::westmere_ep_node().lds()[0].cache_bytes_per_core() * cache_scale).max(4096.0);
    let ke = estimate_kappa(&me, cache, 64);
    let kp = estimate_kappa(&mp, cache, 64);

    println!(
        "\ncache-model kappa (LRU over {:.0} KiB, scaled with the problem):",
        cache / 1024.0
    );
    println!(
        "  HMeP: kappa = {:.2}, B loaded {:.1}x (paper: kappa = 2.5, 'loaded six times')",
        ke.kappa, ke.b_load_factor
    );
    println!(
        "  HMEp: kappa = {:.2}, B loaded {:.1}x (paper: kappa = 3.79)",
        kp.kappa, kp.b_load_factor
    );
    println!(
        "  ordering penalty: {:.0}% more B-traffic for HMEp (paper: ~50% more, ~10% perf drop)",
        (kp.kappa / ke.kappa.max(1e-9) - 1.0) * 100.0
    );

    let nnzr = me.avg_nnz_per_row();
    let perf_e = predicted_gflops(18.1, code_balance_crs(nnzr, ke.kappa));
    let perf_p = predicted_gflops(18.1, code_balance_crs(nnzr, kp.kappa));
    println!(
        "  implied performance drop HMEp vs HMeP: {:.1}% (paper: ~10%)",
        (1.0 - perf_p / perf_e) * 100.0
    );
    println!(
        "\nextra B-bytes per row at the paper's kappa: {:.1} (paper: 37.3)",
        2.5 * 15.0
    );
}
