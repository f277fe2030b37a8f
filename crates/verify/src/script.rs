//! Model programs derived from real halo-exchange schedules.
//!
//! [`build_world`] turns a matrix + rank count + [`KernelMode`] +
//! [`CommStrategy`] into a [`ModelWorld`] by lowering the mode's step
//! table ([`KernelMode::lanes`], the table the engine runs) step by step:
//! exchange steps become the ops of the matching [`HaloSchedule`] stage,
//! gather and kernel steps run over the rank's real split matrices.
//! Exploring that world therefore checks the engine's interleaving
//! structure, not a toy, for the flat and the node-aware exchange alike.
//!
//! Buffer layout per rank `r` (four buffers each):
//! * `4r`     — `x_ext = [local | halo]`, the extended RHS;
//! * `4r + 1` — the gathered send buffer;
//! * `4r + 2` — `y`, the rank's slice of the result;
//! * `4r + 3` — the node-aware leader scratch (empty elsewhere).
//!
//! Each lane of the table is one proc per rank: one for the vector modes,
//! two for task mode (the dedicated comm thread and the compute team),
//! whose `Sync(1)` / `Sync(2)` steps (B1 / B2 of Fig. 4c) become barriers
//! `2r` and `2r + 1`.

use crate::explore::{MOp, ModelWorld, Program};
use spmv_core::modes::{Part, Step};
use spmv_core::plan::{build_node_aware_serial, build_plans_serial};
use spmv_core::schedule::{Buf, XOp};
use spmv_core::{CommStrategy, HaloSchedule, KernelMode, RowPartition, SplitMatrix};
use spmv_matrix::CsrMatrix;
use std::rc::Rc;

/// Model buffers per rank (see the module docs).
const BUFS: usize = 4;

/// Lowers schedule ops of rank `r` (owning `nloc` rows) to model steps,
/// one for one, except receives posted nonblocking: the model's `Recv` is
/// the blocking wait, so they are held in `posted` until the `WaitAll`
/// that completes them. Model sends are eager-buffered, so `WaitAll` adds
/// nothing else.
fn lower(r: usize, nloc: usize, ops: &[XOp], posted: &mut Vec<MOp>) -> Vec<MOp> {
    let at = |buf: Buf, start: usize| match buf {
        Buf::Halo => (BUFS * r, nloc + start),
        Buf::Send => (BUFS * r + 1, start),
        Buf::Scratch => (BUFS * r + 3, start),
    };
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            XOp::PostRecv(m) | XOp::Recv(m) => {
                let (buf, off) = at(m.buf, m.range.start);
                let recv = MOp::Recv {
                    src: m.peer,
                    tag: m.tag,
                    buf,
                    off,
                    len: m.range.len(),
                };
                match op {
                    XOp::PostRecv(_) => posted.push(recv),
                    _ => out.push(recv),
                }
            }
            XOp::Send(m) => {
                let (buf, off) = at(m.buf, m.range.start);
                out.push(MOp::Send {
                    dst: m.peer,
                    tag: m.tag,
                    buf,
                    range: (off, off + m.range.len()),
                });
            }
            XOp::Copy { from, src, to, dst } => {
                let (src_buf, so) = at(*from, src.start);
                let (dst_buf, off) = at(*to, *dst);
                out.push(MOp::Copy {
                    src_buf,
                    range: (so, so + src.len()),
                    dst_buf,
                    off,
                });
            }
            XOp::WaitAll => out.append(posted),
        }
    }
    out
}

/// Builds a model world for a distributed SpMV of `matrix` over `ranks`
/// nonzero-balanced ranks in `mode`, exchanging halos by `strategy`, with
/// `x` as the RHS. Returns the world plus the per-rank
/// `(row_start, local_len)` layout so callers can assemble the global
/// result from the terminal `y` buffers (`4r + 2`).
pub fn build_world(
    matrix: &CsrMatrix,
    x: &[f64],
    ranks: usize,
    mode: KernelMode,
    strategy: CommStrategy,
) -> (ModelWorld, Vec<(usize, usize)>) {
    assert_eq!(x.len(), matrix.ncols(), "x must match the matrix");
    let partition = RowPartition::by_nnz(matrix, ranks);
    let plans = build_plans_serial(matrix, &partition);
    let schedules: Vec<HaloSchedule> = match strategy {
        CommStrategy::Flat => plans.iter().map(HaloSchedule::flat).collect(),
        CommStrategy::NodeAware { .. } => {
            build_node_aware_serial(&plans, &strategy.rank_node_map(ranks))
                .iter()
                .map(HaloSchedule::node_aware)
                .collect()
        }
    };

    let mut buffers = Vec::with_capacity(BUFS * ranks);
    let mut layout = Vec::with_capacity(ranks);
    let mut procs = Vec::new();
    let mut barrier_groups = Vec::new();
    // barrier ids per rank: `syncs * r + k - 1` for the table's `Sync(k)`
    let syncs = mode.lanes()[0]
        .iter()
        .filter(|s| matches!(s, Step::Sync(_)))
        .count();
    for (r, (plan, sched)) in plans.iter().zip(&schedules).enumerate() {
        let range = partition.range(r);
        let split = SplitMatrix::build(&matrix.row_block(range.clone()), plan);
        let nloc = plan.local_len;
        let mut x_ext = x[range].to_vec();
        x_ext.resize(nloc + plan.halo_len(), 0.0);
        buffers.push(x_ext);
        buffers.push(vec![0.0; sched.gather.len()]);
        buffers.push(vec![0.0; nloc]);
        buffers.push(vec![0.0; sched.scratch_len()]);
        layout.push((plan.row_start, nloc));

        let (xb, sb, yb) = (BUFS * r, BUFS * r + 1, BUFS * r + 2);
        let gather = MOp::Gather {
            src: xb,
            indices: Rc::new(sched.gather.clone()),
            dst: sb,
        };
        let spmv = |mat: &CsrMatrix, x_off: usize, accumulate: bool| MOp::Spmv {
            mat: Rc::new(mat.clone()),
            x_buf: xb,
            x_off,
            y_buf: yb,
            accumulate,
        };

        // one proc per lane of the mode's step table; the lanes of a rank
        // all meet at each of its `Sync` barriers
        let lanes = mode.lanes();
        let first_proc = procs.len();
        for lane in lanes {
            let mut posted = Vec::new();
            let mut ops = Vec::new();
            for &step in lane.iter() {
                match step {
                    Step::PostRecvs => ops.extend(lower(r, nloc, sched.pre(), &mut posted)),
                    Step::Send => ops.extend(lower(r, nloc, sched.begin(), &mut posted)),
                    Step::Wait => ops.extend(lower(r, nloc, sched.finish(), &mut posted)),
                    Step::Gather => ops.push(gather.clone()),
                    Step::Kernel(Part::Full) => ops.push(spmv(&split.full, 0, false)),
                    Step::Kernel(Part::Local) => ops.push(spmv(&split.local, 0, false)),
                    Step::Kernel(Part::Nonlocal) => ops.push(spmv(&split.nonlocal, nloc, true)),
                    Step::Sync(k) => {
                        let id = syncs * r + usize::from(k) - 1;
                        barrier_groups.resize(syncs * (r + 1), Vec::new());
                        barrier_groups[id] = (first_proc..first_proc + lanes.len()).collect();
                        ops.push(MOp::Barrier { id });
                    }
                }
            }
            procs.push(Program { rank: r, ops });
        }
    }

    (
        ModelWorld {
            procs,
            buffers,
            barrier_groups,
        },
        layout,
    )
}

/// Assembles the global result vector from a terminal buffer set returned
/// by [`crate::explore::ExploreReport::terminal_buffers`].
pub fn assemble_y(terminal: &[Vec<f64>], layout: &[(usize, usize)]) -> Vec<f64> {
    let n = layout.iter().map(|&(s, l)| s + l).max().unwrap_or(0);
    let mut y = vec![0.0; n];
    for (r, &(start, len)) in layout.iter().enumerate() {
        y[start..start + len].copy_from_slice(&terminal[BUFS * r + 2]);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use spmv_matrix::{synthetic, vecops};

    #[test]
    fn all_modes_explore_exhaustively_on_three_ranks() {
        let m = synthetic::tridiagonal(24, 2.0, -1.0);
        let x = vecops::random_vec(24, 5);
        let mut y_ref = vec![0.0; 24];
        m.spmv(&x, &mut y_ref);
        for mode in KernelMode::ALL {
            let (world, layout) = build_world(&m, &x, 3, mode, CommStrategy::Flat);
            let report = Explorer::new(world)
                .run()
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert!(
                report.schedules > 1,
                "{mode}: a 3-rank world must interleave"
            );
            let y = assemble_y(&report.terminal_buffers, &layout);
            let err = vecops::max_abs_diff(&y, &y_ref);
            assert!(err < 1e-11, "{mode}: model result drifts ({err})");
        }
    }

    #[test]
    fn task_mode_four_ranks_with_wider_halo() {
        let m = synthetic::random_banded_symmetric(32, 5, 3.0, 11);
        let x = vecops::random_vec(32, 9);
        let mut y_ref = vec![0.0; 32];
        m.spmv(&x, &mut y_ref);
        let (world, layout) = build_world(&m, &x, 4, KernelMode::TaskMode, CommStrategy::Flat);
        let report = Explorer::new(world).run().expect("task mode explores");
        let y = assemble_y(&report.terminal_buffers, &layout);
        assert!(vecops::max_abs_diff(&y, &y_ref) < 1e-11);
        assert!(report.states > 100, "8 procs should branch substantially");
    }

    #[test]
    fn node_aware_explores_exhaustively_on_two_nodes() {
        // 4 ranks, 2 per node, band wide enough that every rank needs data
        // from the other node: shipments, wires, forwards and the leaders'
        // own-slice copies all appear in the model
        let m = synthetic::random_banded_symmetric(16, 7, 3.0, 5);
        let x = vecops::random_vec(16, 3);
        let mut y_ref = vec![0.0; 16];
        m.spmv(&x, &mut y_ref);
        let na = CommStrategy::NodeAware { ranks_per_node: 2 };
        for mode in KernelMode::ALL {
            let (world, layout) = build_world(&m, &x, 4, mode, na);
            let ops: Vec<&MOp> = world.procs.iter().flat_map(|p| &p.ops).collect();
            let tags: Vec<u32> = ops
                .iter()
                .filter_map(|op| match op {
                    MOp::Send { tag, .. } => Some(*tag),
                    _ => None,
                })
                .collect();
            assert!(
                tags.contains(&spmv_core::schedule::TAG_SHIP),
                "{mode}: no shipment"
            );
            assert!(
                tags.contains(&spmv_core::schedule::TAG_WIRE),
                "{mode}: no wire"
            );
            assert!(
                tags.iter().any(|&t| t >= spmv_core::schedule::TAG_FWD_BASE),
                "{mode}: no forward"
            );
            assert!(
                ops.iter().any(|op| matches!(op, MOp::Copy { .. })),
                "{mode}: no leader copy"
            );
            let report = Explorer::new(world)
                .run()
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert!(report.schedules > 1, "{mode}: 4 ranks must interleave");
            let y = assemble_y(&report.terminal_buffers, &layout);
            let err = vecops::max_abs_diff(&y, &y_ref);
            assert!(err < 1e-11, "{mode}: model result drifts ({err})");
        }
    }
}
