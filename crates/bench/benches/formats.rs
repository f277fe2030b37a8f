//! Bench backing the paper's format claim (§1.2): CRS "is broadly
//! recognized as the most efficient format for general sparse matrices on
//! cache-based microprocessors". Measures CRS against SELL-C-σ at several
//! chunk/sorting shapes, including ELLPACK-R as SELL-N-1 (one chunk of all
//! N rows, slot-major, no sorting, per-row lengths), on both application
//! matrices plus a power-law matrix where row-length variance makes the
//! padding trade-off visible.

use spmv_bench::microbench::{Bench, Unit};
use spmv_bench::{hmep, samg, Scale};
use spmv_matrix::{synthetic, vecops, CsrMatrix, SellMatrix};

fn bench_formats(b: &Bench, name: &str, m: &CsrMatrix) {
    let x = vecops::random_vec(m.ncols(), 3);
    let mut y = vec![0.0; m.nrows()];
    let flops = 2.0 * m.nnz() as f64;
    let group = format!("format_{name}");

    b.run(&group, "crs", Some((flops, Unit::Flops)), || {
        m.spmv(std::hint::black_box(&x), std::hint::black_box(&mut y));
    });
    let n = m.nrows();
    for (c, sigma) in [(n, 1), (4, 1), (32, 256), (32, n)] {
        let sell = SellMatrix::from_csr(m, c, sigma);
        let label = if c == n { " (ellpack-r)" } else { "" };
        b.run(
            &group,
            &format!("sell-{c}-{sigma}{label}"),
            Some((flops, Unit::Flops)),
            || {
                sell.spmv(std::hint::black_box(&x), std::hint::black_box(&mut y));
            },
        );
    }

    let sell = SellMatrix::from_csr(m, 32, 256);
    println!(
        "{name}: avg row {:.1}; SELL-32-256 padding factor {:.3}, fill {:.0}%",
        m.avg_nnz_per_row(),
        sell.padding_factor(),
        sell.fill_efficiency() * 100.0
    );
}

fn main() {
    let b = Bench::new();
    for (name, m) in [
        ("hmep", hmep(Scale::Test)),
        ("samg", samg(Scale::Test)),
        ("powerlaw", synthetic::power_law_rows(20_000, 15.0, 1.1, 7)),
    ] {
        bench_formats(&b, name, &m);
    }
}
