//! Flat vs node-aware halo exchange: the two strategies route the same
//! values differently, so they must agree *bitwise* — every rank's halo and
//! every SpMV result identical to the last ULP — across random matrices,
//! rank counts, and (ragged) node sizes. On the paper's matrices the
//! node-aware router must also earn its keep: strictly fewer inter-node
//! messages than flat at equal inter-node payload (the ISSUE's acceptance
//! criterion, measured by `CommStats` on an sAMG run with 4 ranks/node).
//!
//! Both sides of every comparison pin their strategy explicitly, so the
//! `SPMV_COMM_STRATEGY` override used by the CI matrix cannot collapse a
//! comparison onto one code path.

use hybrid_spmv::prelude::*;
use spmv_comm::CommStats;
use spmv_machine::RankNodeMap;
use spmv_matrix::rng::Rng64;

const CASES: u64 = 24;

fn node_aware(ranks_per_node: usize) -> EngineConfig {
    EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::NodeAware { ranks_per_node })
}

fn flat() -> EngineConfig {
    EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::Flat)
}

/// Every rank's received halo under `cfg`, as raw bit patterns, in rank
/// order. The input vector is the same deterministic `random_vec` for every
/// strategy, scattered to the owning ranks.
fn halo_bits(m: &CsrMatrix, ranks: usize, cfg: EngineConfig) -> Vec<(usize, Vec<u64>)> {
    let x = vecops::random_vec(m.nrows(), 4242);
    let x = &x;
    let mut per_rank = run_spmd(m, ranks, cfg, |eng| {
        let start = eng.plan().row_start;
        let len = eng.x_local().len();
        eng.x_local_mut().copy_from_slice(&x[start..start + len]);
        eng.halo_exchange_checked().unwrap();
        (
            eng.comm().rank(),
            eng.halo().iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
        )
    });
    per_rank.sort_by_key(|(r, _)| *r);
    per_rank
}

#[test]
fn halos_bit_identical_across_random_matrices_and_node_shapes() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xD000 + case);
        let m = match case % 4 {
            0 => synthetic::random_banded_symmetric(
                40 + rng.gen_index(200),
                5 + rng.gen_index(60),
                5.0,
                case,
            ),
            1 => synthetic::power_law_rows(60 + rng.gen_index(300), 8.0, 1.2, case),
            2 => synthetic::laplacian_2d(4 + rng.gen_index(12), 4 + rng.gen_index(12)),
            _ => synthetic::scattered(30 + rng.gen_index(150), 6, case),
        };
        let ranks = 2 + rng.gen_index(7).min(m.nrows() - 1);
        // ragged node sizes included: rpn need not divide the rank count
        let rpn = 1 + rng.gen_index(ranks);
        let reference = halo_bits(&m, ranks, flat());
        let aggregated = halo_bits(&m, ranks, node_aware(rpn));
        assert_eq!(
            reference,
            aggregated,
            "case {case}: {ranks} ranks, {rpn}/node, n {}",
            m.nrows()
        );
    }
}

#[test]
fn paper_matrices_spmv_bit_identical_all_modes() {
    let hmep = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::ElectronContiguous,
    ));
    let samg_m = samg::poisson(&SamgParams::test_scale());
    for m in [&hmep, &samg_m] {
        let x = vecops::random_vec(m.nrows(), 7);
        for mode in KernelMode::ALL {
            for rpn in [3, 4] {
                let base = if mode.needs_comm_thread() {
                    EngineConfig::task_mode(2)
                } else {
                    EngineConfig::hybrid(2)
                };
                let y_flat =
                    distributed_spmv(m, &x, 12, base.with_comm_strategy(CommStrategy::Flat), mode);
                let y_na = distributed_spmv(
                    m,
                    &x,
                    12,
                    base.with_comm_strategy(CommStrategy::NodeAware {
                        ranks_per_node: rpn,
                    }),
                    mode,
                );
                let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
                assert_eq!(
                    bits(&y_flat),
                    bits(&y_na),
                    "{mode} with {rpn} ranks/node must be bit-identical"
                );
            }
        }
    }
}

/// Rank 0's view of the world-global message counters for one halo
/// exchange. Both snapshots sit between message-free barriers so no rank
/// races traffic into the delta.
fn one_exchange_stats(m: &CsrMatrix, ranks: usize, rpn: usize, cfg: EngineConfig) -> CommStats {
    let partition = RowPartition::by_nnz(m, ranks);
    let map = RankNodeMap::contiguous(ranks, rpn);
    let comms = CommWorld::create_with_nodes((0..ranks).map(|r| map.node_of(r)).collect());
    std::thread::scope(|scope| {
        let partition = &partition;
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                scope.spawn(move || {
                    let block = m.row_block(partition.range(c.rank()));
                    let mut eng = RankEngine::new(c, &block, partition, cfg);
                    eng.comm().barrier().unwrap(); // plan-construction traffic done
                    let base = eng.comm().stats().snapshot();
                    eng.comm().barrier().unwrap(); // all baselines taken
                    eng.halo_exchange_checked().unwrap();
                    eng.comm().barrier().unwrap(); // all exchange traffic recorded
                    (
                        eng.comm().rank(),
                        eng.comm().stats().snapshot().since(&base),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .find(|(r, _)| *r == 0)
            .expect("rank 0 ran")
            .1
    })
}

/// The ISSUE's acceptance run: sAMG at 32 ranks, 4 per node — small enough
/// row blocks that each halo spans several ranks of a neighbouring node —
/// must see node-aware beat flat on inter-node message count at *equal*
/// inter-node payload, with bit-identical results (covered above and by the
/// halo fuzz; re-checked here on the exact acceptance geometry).
#[test]
fn samg_node_aware_reduces_inter_node_messages() {
    let m = samg::poisson(&SamgParams::test_scale());
    let (ranks, rpn) = (32, 4);
    let fl = one_exchange_stats(&m, ranks, rpn, flat());
    let na = one_exchange_stats(&m, ranks, rpn, node_aware(rpn));
    assert!(
        na.inter_messages < fl.inter_messages,
        "node-aware {} vs flat {} inter-node messages",
        na.inter_messages,
        fl.inter_messages
    );
    assert_eq!(
        na.inter_bytes, fl.inter_bytes,
        "aggregation must not duplicate inter-node payload"
    );
    let reference = halo_bits(&m, ranks, flat());
    let aggregated = halo_bits(&m, ranks, node_aware(rpn));
    assert_eq!(reference, aggregated, "acceptance halos must be bit-equal");
}

/// Degenerate matrices for the plan sweep, each `(name, matrix)`; values
/// come from a fixed seed.
fn degenerate_matrices() -> Vec<(&'static str, CsrMatrix)> {
    let mut rng = Rng64::new(0xDE6E);
    let mut build = |n: usize, entries: &mut dyn Iterator<Item = (usize, usize)>| {
        let mut coo = spmv_matrix::CooMatrix::new(n, n);
        for (i, j) in entries {
            coo.push(i, j, rng.gen_range_f64(-2.0, 2.0));
        }
        coo.to_csr().expect("coordinates in range by construction")
    };
    let n = 24;
    vec![
        // rows 6..18 hold no entries: middle ranks own rows but no nonzeros
        (
            "zero-nnz rank",
            build(
                n,
                &mut (0..n)
                    .filter(|i| !(6..18).contains(i))
                    .flat_map(|i| [(i, i), (i, n - 1 - i)]),
            ),
        ),
        // rows 0..12 are diagonal, the rest couple back to them: the first
        // ranks send but receive nothing
        (
            "empty halo",
            build(
                n,
                &mut (0..n).flat_map(|i| {
                    let back = (i >= 12).then(|| (i, i - 12));
                    std::iter::once((i, i)).chain(back)
                }),
            ),
        ),
        // row 0 is dense: rank 0 receives from every other rank
        (
            "dense row",
            build(n, &mut (0..n).map(|j| (0, j)).chain((1..n).map(|i| (i, i)))),
        ),
        // 4 rows for up to 6 ranks: some ranks own no rows at all
        (
            "more ranks than rows",
            build(
                4,
                &mut (0..4).flat_map(|i| [(i, i), (i, (i + 1) % 4), (i, (i + 3) % 4)]),
            ),
        ),
    ]
}

/// Every degenerate plan verifies under flat and node-aware (2 and 3 ranks
/// per node) at 1..=6 ranks, and every kernel mode computes the serial
/// result, bit-identically across the strategies.
#[test]
fn degenerate_plans_verify_and_agree_across_strategies() {
    use hybrid_spmv::core::plan::{build_node_aware_serial, build_plans_serial};
    use hybrid_spmv::core::runner::run_spmd_with_partition;
    use hybrid_spmv::verify::{verify_flat, verify_node_aware};
    for (name, m) in degenerate_matrices() {
        let n = m.nrows();
        let x = vecops::random_vec(n, 11);
        let mut y_ref = vec![0.0; n];
        m.spmv(&x, &mut y_ref);
        for ranks in 1..=6 {
            let partition = RowPartition::by_rows(n, ranks);
            let plans = build_plans_serial(&m, &partition);
            verify_flat(&plans).unwrap_or_else(|v| panic!("{name}, {ranks} ranks: {v:?}"));
            let mut per_strategy = Vec::new();
            for strategy in [
                CommStrategy::Flat,
                CommStrategy::NodeAware { ranks_per_node: 2 },
                CommStrategy::NodeAware { ranks_per_node: 3 },
            ] {
                if let CommStrategy::NodeAware { ranks_per_node } = strategy {
                    let map = RankNodeMap::contiguous(ranks, ranks_per_node);
                    verify_node_aware(&build_node_aware_serial(&plans, &map))
                        .unwrap_or_else(|v| panic!("{name}, {ranks} ranks, {strategy:?}: {v:?}"));
                }
                let cfg = EngineConfig::task_mode(1).with_comm_strategy(strategy);
                let pieces = run_spmd_with_partition(&m, &partition, cfg, |eng| {
                    let range = eng.row_start()..eng.row_start() + eng.local_len();
                    KernelMode::ALL.map(|mode| {
                        eng.x_local_mut().copy_from_slice(&x[range.clone()]);
                        eng.spmv_checked(mode).unwrap();
                        eng.y_local().to_vec()
                    })
                });
                let ys: Vec<Vec<u64>> = (0..KernelMode::ALL.len())
                    .map(|k| {
                        let mode = KernelMode::ALL[k];
                        let y: Vec<f64> = pieces.iter().flat_map(|p| p[k].clone()).collect();
                        let err = vecops::max_abs_diff(&y, &y_ref);
                        assert!(
                            err < 1e-12,
                            "{name}, {ranks} ranks, {strategy:?}, {mode}: off by {err}"
                        );
                        y.iter().map(|v| v.to_bits()).collect()
                    })
                    .collect();
                per_strategy.push(ys);
            }
            assert!(
                per_strategy.windows(2).all(|w| w[0] == w[1]),
                "{name}, {ranks} ranks: strategies disagree bitwise"
            );
        }
    }
}
