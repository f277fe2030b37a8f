//! ELLPACK-R checked as SELL-N-1.
//!
//! ELLPACK-R pads every row to the longest one, stores the entries
//! slot-major and keeps per-row lengths. That is [`SellMatrix`] with one
//! chunk of all N rows and no sorting, so the layout has no type of its own;
//! these tests check the ELLPACK-R properties on that configuration.

use crate::csr::CsrMatrix;
use crate::sell::SellMatrix;

/// The ELLPACK-R layout of `m`: SELL-N-1.
fn ellpack_r(m: &CsrMatrix) -> SellMatrix {
    SellMatrix::from_csr(m, m.nrows(), 1)
}

mod tests {
    use super::*;
    use crate::{synthetic, vecops};

    #[test]
    fn roundtrip_preserves_matrix() {
        let m = synthetic::random_banded_symmetric(150, 12, 5.0, 7);
        let e = ellpack_r(&m);
        assert_eq!(e.n_chunks(), 1);
        assert!(e.permutation().is_identity());
        assert_eq!(e.to_csr(), m);
        assert_eq!(e.nnz(), m.nnz());
    }

    #[test]
    fn both_kernels_match_csr() {
        let m = synthetic::random_general(200, 200, 9, 3);
        let e = ellpack_r(&m);
        let x = vecops::random_vec(200, 5);
        let mut y_csr = vec![0.0; 200];
        let mut y_ell = vec![0.0; 200];
        let mut y_rows = vec![0.0; 200];
        m.spmv(&x, &mut y_csr);
        e.spmv(&x, &mut y_ell);
        e.spmv_rows(0..200, &x, &mut y_rows, false);
        assert!(vecops::max_abs_diff(&y_csr, &y_ell) < 1e-12);
        assert!(vecops::max_abs_diff(&y_csr, &y_rows) < 1e-12);
    }

    #[test]
    fn regular_rows_are_fully_efficient() {
        let m = synthetic::random_general(100, 100, 7, 1);
        let e = ellpack_r(&m);
        assert_eq!(e.stored_entries(), 100 * 7);
        assert_eq!(e.fill_efficiency(), 1.0);
    }

    #[test]
    fn irregular_rows_waste_storage() {
        // arrow matrix: one dense row forces width = n
        let mut coo = crate::CooMatrix::new(64, 64);
        for j in 0..64 {
            coo.push(0, j, 1.0);
        }
        for i in 1..64 {
            coo.push(i, i, 1.0);
        }
        let m = coo.to_csr().expect("arrow matrix is well formed");
        let e = ellpack_r(&m);
        assert_eq!(e.stored_entries(), 64 * 64);
        assert!(e.fill_efficiency() < 0.05, "fill {}", e.fill_efficiency());
        assert!(e.storage_bytes() > 10 * m.storage_bytes());
        // results still correct
        let x = vecops::random_vec(64, 2);
        let mut y1 = vec![0.0; 64];
        let mut y2 = vec![0.0; 64];
        m.spmv(&x, &mut y1);
        e.spmv(&x, &mut y2);
        assert!(vecops::max_abs_diff(&y1, &y2) < 1e-12);
    }

    #[test]
    fn holstein_fill_efficiency_is_moderate() {
        use crate::holstein::{hamiltonian, HolsteinOrdering, HolsteinParams};
        let h = hamiltonian(&HolsteinParams::test_scale(
            HolsteinOrdering::ElectronContiguous,
        ));
        // Hamiltonian rows vary between ~8 and ~16 entries
        let f = ellpack_r(&h).fill_efficiency();
        assert!((0.4..0.95).contains(&f), "fill {f}");
    }
}
