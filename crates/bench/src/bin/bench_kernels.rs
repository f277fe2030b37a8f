//! Node-level kernel comparison table: every dispatchable SpMV kernel on
//! the two application matrices and a power-law stress matrix, with
//! GFlop/s measured on this host.
//!
//! ```text
//! cargo run --release -p spmv-bench --bin bench_kernels [-- --scale test|medium|paper] [--json]
//! ```
//!
//! `--json` emits one machine-readable object (per-kernel/per-matrix
//! GFlop/s plus SELL padding factors) instead of the human table — the
//! format consumed by EXPERIMENTS.md bookkeeping.

use spmv_bench::microbench::Bench;
use spmv_bench::{gf, header, hmep, or_usage, samg, Json, Scale};
use spmv_core::{prepare_kernel, KernelKind};
use spmv_matrix::{synthetic, vecops, CsrMatrix, SellMatrix};

struct Row {
    matrix: &'static str,
    kernel: String,
    gflops: f64,
    min_s: f64,
    padding_factor: f64,
}

fn kernel_kinds() -> Vec<KernelKind> {
    let mut kinds = KernelKind::candidates();
    kinds.push(KernelKind::Sell { c: 8, sigma: 64 });
    kinds
}

fn measure_matrix(b: &Bench, name: &'static str, m: &CsrMatrix, rows: &mut Vec<Row>) {
    let x = vecops::random_vec(m.ncols(), 3);
    let mut y = vec![0.0; m.nrows()];
    let flops = 2.0 * m.nnz() as f64;
    for kind in kernel_kinds() {
        let k = prepare_kernel(kind, m);
        let meas = b.measure(|| {
            k.spmv_rows(
                m,
                0..m.nrows(),
                std::hint::black_box(&x),
                std::hint::black_box(&mut y),
                false,
            );
        });
        let padding_factor = match kind {
            KernelKind::Sell { c, sigma } => SellMatrix::from_csr(m, c, sigma).padding_factor(),
            _ => 1.0,
        };
        rows.push(Row {
            matrix: name,
            kernel: kind.label(),
            gflops: meas.gflops(flops),
            min_s: meas.min_s,
            padding_factor,
        });
    }
    let auto = prepare_kernel(KernelKind::Auto, m);
    rows.push(Row {
        matrix: name,
        kernel: format!("auto->{}", auto.kind()),
        gflops: f64::NAN,
        min_s: f64::NAN,
        padding_factor: 1.0,
    });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "bench_kernels [--scale test|medium|paper] [--json]";
    let scale = or_usage(Scale::from_args(&args), usage);
    let json = args.iter().any(|a| a == "--json");
    let b = Bench::new();

    let mats: Vec<(&'static str, CsrMatrix)> = vec![
        ("hmep", hmep(scale)),
        ("samg", samg(scale)),
        ("powerlaw", synthetic::power_law_rows(20_000, 15.0, 1.1, 7)),
    ];

    let mut rows = Vec::new();
    for (name, m) in &mats {
        measure_matrix(&b, name, m, &mut rows);
    }

    if json {
        let results = rows
            .iter()
            .map(|r| {
                let base = Json::obj()
                    .field("matrix", Json::str(r.matrix))
                    .field("kernel", Json::str(&r.kernel));
                if r.gflops.is_nan() {
                    base
                } else {
                    base.field("gflops", Json::fixed(r.gflops, 4))
                        .field("seconds_per_spmv", Json::sci(r.min_s, 6))
                        .field("padding_factor", Json::fixed(r.padding_factor, 4))
                }
            })
            .collect();
        print!(
            "{}",
            Json::obj()
                .field("scale", Json::str(scale.label()))
                .field("results", Json::Arr(results))
                .render()
        );
        return;
    }

    header(&format!(
        "Node-level kernel comparison (scale: {}, serial)",
        scale.label()
    ));
    for (name, m) in &mats {
        println!(
            "\n{name}: {} x {}, nnz = {}, N_nzr = {:.1}",
            m.nrows(),
            m.ncols(),
            m.nnz(),
            m.avg_nnz_per_row()
        );
        for r in rows.iter().filter(|r| r.matrix == *name) {
            if r.gflops.is_nan() {
                println!("  {:<16} (autotune winner)", r.kernel);
            } else {
                let pad = if r.padding_factor > 1.0 {
                    format!("  (padding {:.3})", r.padding_factor)
                } else {
                    String::new()
                };
                println!("  {:<16} {} GFlop/s{pad}", r.kernel, gf(r.gflops));
            }
        }
    }
}
