//! The paper's §5 outlook, implemented:
//!
//! 1. **Load balancing** — "Future work will cover a more complete
//!    investigation of load balancing effects": sweep matrices of
//!    increasing row-length skew (power-law rows) and compare
//!    nonzero-balanced against row-balanced partitioning, in communication
//!    volume and simulated performance.
//! 2. **Asynchronous progress** — "We will also employ development
//!    versions of MPI libraries that support asynchronous progress and
//!    compare with our hybrid task mode approach": run naive overlap under
//!    the async progress model head-to-head against task mode under
//!    standard progress across node counts.
//!
//! `cargo run --release -p spmv-bench --bin future_work [--scale ...]`

use spmv_bench::{header, hmep, or_usage, Scale};
use spmv_core::{workload, KernelMode, RowPartition};
use spmv_machine::{plan_layout, presets, CommThreadPlacement, HybridLayout};
use spmv_matrix::synthetic;
use spmv_sim::{simulate_job, simulate_spmv, ProgressModel, SimConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = or_usage(
        Scale::from_args(&args),
        "future_work [--scale test|medium|paper]",
    );
    header(&format!(
        "Paper §5 future work, implemented (scale: {})",
        scale.label()
    ));

    // ------------------------------------------------------------------
    println!("\n=== 1. load balancing: nonzero- vs row-balanced partitioning ===");
    let n = match scale {
        Scale::Test => 20_000,
        Scale::Medium => 400_000,
        Scale::Paper => 4_000_000,
    };
    let nodes = 8;
    let cluster = presets::westmere_cluster(nodes);
    let layout = plan_layout(
        &cluster.node,
        nodes,
        HybridLayout::ProcessPerLd,
        CommThreadPlacement::None,
    )
    .unwrap();
    println!(
        "power-law row lengths on {} rows, {} nodes per-LD ({} ranks):\n",
        n,
        nodes,
        layout.num_ranks()
    );
    println!(
        "{:>7} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "alpha", "imb(by-rows)", "imb(by-nnz)", "GF(by-rows)", "GF(by-nnz)", "gain"
    );
    for &alpha in &[0.0, 0.3, 0.6, 0.9, 1.2] {
        let m = synthetic::power_law_rows(n, 9.0, alpha, 11);
        let cfg = SimConfig::new(KernelMode::VectorNoOverlap);
        let mut gfs = [0.0f64; 2];
        let mut imbs = [0.0f64; 2];
        for (k, p) in [
            RowPartition::by_rows(m.nrows(), layout.num_ranks()),
            RowPartition::by_nnz(&m, layout.num_ranks()),
        ]
        .into_iter()
        .enumerate()
        {
            let w = workload::analyze(&m, &p);
            imbs[k] = workload::summarize(&w).nnz_imbalance;
            gfs[k] = simulate_spmv(&cluster, &layout, &w, &cfg).gflops;
        }
        println!(
            "{:>7.1} {:>14.3} {:>14.3} {:>12.2} {:>12.2} {:>9.0}%",
            alpha,
            imbs[0],
            imbs[1],
            gfs[0],
            gfs[1],
            (gfs[1] / gfs[0] - 1.0) * 100.0
        );
    }
    println!(
        "\n--> the tension of the paper's footnote 2 (\"it is generally difficult\n\
         to establish good load balancing for computation and communication at\n\
         the same time\"), quantified: at moderate skew, nonzero balancing wins\n\
         by fixing the compute imbalance; at extreme skew (near-dense head\n\
         rows), spreading those rows across ranks multiplies the total halo\n\
         volume — every heavy rank needs almost the whole RHS — and the\n\
         communication blow-up overwhelms the compute gain. Neither simple\n\
         policy dominates; the paper's matrices sit in the regime where\n\
         nonzero balancing is the right call."
    );

    // ------------------------------------------------------------------
    println!("\n=== 2. async-progress MPI vs explicit task mode ===");
    let m = hmep(scale);
    println!(
        "HMeP (N = {}, nnz = {}), Westmere, per-LD layout, kappa = 2.5:\n",
        m.nrows(),
        m.nnz()
    );
    println!(
        "{:>6} {:>22} {:>26} {:>24}",
        "nodes", "naive + std progress", "naive + ASYNC progress", "task mode + std"
    );
    let node_counts: &[usize] = match scale {
        Scale::Test => &[1, 2, 4],
        _ => &[2, 4, 8, 16, 32],
    };
    let big = presets::westmere_cluster(*node_counts.last().unwrap());
    for &nn in node_counts {
        let naive_std = simulate_job(
            &m,
            &big,
            nn,
            HybridLayout::ProcessPerLd,
            &SimConfig::new(KernelMode::VectorNaiveOverlap).with_kappa(2.5),
        );
        let naive_async = simulate_job(
            &m,
            &big,
            nn,
            HybridLayout::ProcessPerLd,
            &SimConfig::new(KernelMode::VectorNaiveOverlap)
                .with_kappa(2.5)
                .with_progress(ProgressModel::Async),
        );
        let task = simulate_job(
            &m,
            &big,
            nn,
            HybridLayout::ProcessPerLd,
            &SimConfig::new(KernelMode::TaskMode).with_kappa(2.5),
        );
        println!(
            "{:>6} {:>17.2} GF/s {:>21.2} GF/s {:>19.2} GF/s",
            nn, naive_std.gflops, naive_async.gflops, task.gflops
        );
    }
    println!(
        "\n--> an asynchronous-progress MPI recovers (almost) the task-mode level\n\
         without code changes — the comparison the authors planned to run. Task\n\
         mode keeps a small edge where the async variant still pays the split\n\
         kernel's second result-vector write against a saturated bus."
    );
}
