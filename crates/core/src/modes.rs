//! The paper's kernel variants (Fig. 4), each written once as a step table.
//!
//! Fig. 4a–c are three orderings of the same steps: post the receives,
//! gather the send buffer, send, run the full or the local kernel, wait,
//! run the non-local kernel. [`KernelMode::lanes`] is the one place each
//! ordering is written down. `RankEngine` runs the table, the interleaving
//! explorer (`spmv-verify::script`) lowers it to model programs and
//! proves it, and the simulator (`spmv-sim::program`) lowers it to priced
//! activities.

use spmv_obs::Phase;

/// Which split matrix a [`Step::Kernel`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Part {
    /// The whole rank-local matrix over `[local | halo]`; writes the result
    /// once (Eq. 1 balance).
    Full,
    /// The local columns only; writes the result.
    Local,
    /// The halo columns only; adds into the result, the second write the
    /// Eq.-2 balance charges.
    Nonlocal,
}

/// One step of a kernel mode. The three exchange steps name the stages of
/// `HaloSchedule`: [`Step::PostRecvs`] is `pre`, [`Step::Send`] is `begin`
/// and [`Step::Wait`] is `finish`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// Post the nonblocking receives (`Irecv`); they never read the send
    /// buffer, so they may precede the gather.
    PostRecvs,
    /// Gather the send buffer from the local RHS.
    Gather,
    /// Issue the sends (`Isend`).
    Send,
    /// Run a node-level kernel over per-thread row chunks.
    Kernel(Part),
    /// Complete the exchange (`Waitall`); the halo is valid afterwards.
    Wait,
    /// Team barrier `k` between a mode's lanes (B1 / B2 of Fig. 4c).
    Sync(u8),
}

impl Step {
    /// The trace phase the step records as.
    pub fn phase(self) -> Phase {
        match self {
            Step::PostRecvs => Phase::PostRecvs,
            Step::Gather => Phase::Gather,
            Step::Send => Phase::Send,
            Step::Kernel(Part::Full) => Phase::SpmvFull,
            Step::Kernel(Part::Local) => Phase::SpmvLocal,
            Step::Kernel(Part::Nonlocal) => Phase::SpmvNonlocal,
            Step::Wait => Phase::Waitall,
            Step::Sync(_) => Phase::Barrier,
        }
    }
}

// shorthands for the tables below (they shadow the `Send` / `Sync`
// traits in this module)
use Part::{Full, Local, Nonlocal};
use Step::{Gather, Kernel, PostRecvs, Send, Sync, Wait};

/// A mode's lanes: each lane is a step list run in order by one thread
/// (or, in a one-lane table, by the whole team).
pub type Lanes = &'static [&'static [Step]];

/// Fig. 4a: exchange to completion, then one full kernel.
const NO_OVERLAP: Lanes = &[&[PostRecvs, Gather, Send, Wait, Kernel(Full)]];
/// Fig. 4b: the local kernel runs between the sends and the wait.
const NAIVE_OVERLAP: Lanes = &[&[
    PostRecvs,
    Gather,
    Send,
    Kernel(Local),
    Wait,
    Kernel(Nonlocal),
]];
/// Fig. 4c: a comm lane and a compute lane meeting at B1 and B2.
const TASK: Lanes = &[
    &[PostRecvs, Sync(1), Send, Wait, Sync(2)],
    &[Gather, Sync(1), Kernel(Local), Sync(2), Kernel(Nonlocal)],
];

/// Parallelization scheme of one distributed SpMV. A mode's steps and
/// their order are its table, [`KernelMode::lanes`]; the variant docs
/// describe the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// Fig. 4a — "vector mode, no overlap": exchange the full halo first
    /// (`Irecv` / gather / `Isend` / `Waitall`), then run the whole local
    /// SpMV in one sweep. The result vector is written once (Eq. 1
    /// balance). Pure MPI is this mode with one thread per rank.
    VectorNoOverlap,
    /// Fig. 4b — "vector mode, naive overlap": issue nonblocking calls,
    /// compute the *local* part of the SpMV, `Waitall`, then the non-local
    /// part. Intends to overlap communication with the local compute, but
    /// standard MPI progresses messages only inside MPI calls, so the
    /// overlap does not materialize — and the split kernel writes the
    /// result twice (Eq. 2 balance).
    VectorNaiveOverlap,
    /// Fig. 4c — "task mode, explicit overlap": a dedicated communication
    /// thread executes all MPI calls while the remaining threads gather,
    /// compute the local part, and (after communication completes) the
    /// non-local part. Overlap is guaranteed by construction; work
    /// distribution across compute threads is explicit (contiguous chunks
    /// of nonzeros) because OpenMP has no subteams.
    TaskMode,
}

impl KernelMode {
    /// All modes in the order of the paper's figure legends.
    pub const ALL: [KernelMode; 3] = [
        KernelMode::VectorNoOverlap,
        KernelMode::VectorNaiveOverlap,
        KernelMode::TaskMode,
    ];

    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            KernelMode::VectorNoOverlap => "vector w/o overlap",
            KernelMode::VectorNaiveOverlap => "vector naive overlap",
            KernelMode::TaskMode => "task mode",
        }
    }

    /// The mode's step table. Vector modes have one lane, walked by the
    /// whole thread team: thread 0 issues the comm steps, the compute
    /// threads run the gather and kernel steps, and the team meets after
    /// every step. Task mode has two: `lanes()[0]` is the dedicated comm
    /// thread's, `lanes()[1]` the compute threads'.
    pub fn lanes(&self) -> Lanes {
        match self {
            KernelMode::VectorNoOverlap => NO_OVERLAP,
            KernelMode::VectorNaiveOverlap => NAIVE_OVERLAP,
            KernelMode::TaskMode => TASK,
        }
    }

    /// Whether this mode runs the split (local + non-local) kernel and
    /// therefore pays the Eq.-2 code balance.
    pub fn uses_split_kernel(&self) -> bool {
        self.lanes()
            .iter()
            .flat_map(|l| l.iter())
            .any(|s| *s == Kernel(Nonlocal))
    }

    /// Whether this mode requires a dedicated communication thread.
    pub fn needs_comm_thread(&self) -> bool {
        self.lanes().len() > 1
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<_> = KernelMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn split_kernel_flags() {
        assert!(!KernelMode::VectorNoOverlap.uses_split_kernel());
        assert!(KernelMode::VectorNaiveOverlap.uses_split_kernel());
        assert!(KernelMode::TaskMode.uses_split_kernel());
    }

    #[test]
    fn comm_thread_flags() {
        assert!(KernelMode::TaskMode.needs_comm_thread());
        assert!(!KernelMode::VectorNoOverlap.needs_comm_thread());
        assert!(!KernelMode::VectorNaiveOverlap.needs_comm_thread());
    }

    #[test]
    fn display_matches_label() {
        for m in KernelMode::ALL {
            assert_eq!(format!("{m}"), m.label());
        }
    }

    /// The buffer hand-offs the engine's executor relies on: every step
    /// runs exactly once per SpMV; the gather precedes the sends; a kernel
    /// that reads the halo runs after the wait; the comm steps live in
    /// one lane; and every lane meets every barrier, in the same order.
    /// "After" across lanes means after a barrier the other lane reaches
    /// only once its step is done.
    #[test]
    fn tables_order_buffer_hand_offs() {
        for mode in KernelMode::ALL {
            let lanes = mode.lanes();
            // (lane, index) of a step
            let find = |want: Step| {
                let mut hits = lanes.iter().enumerate().flat_map(|(l, lane)| {
                    lane.iter()
                        .enumerate()
                        .filter(move |(_, s)| **s == want)
                        .map(move |(i, _)| (l, i))
                });
                let hit = hits.next();
                assert!(hits.next().is_none(), "{mode}: {want:?} runs twice");
                hit
            };
            let syncs_before = |(l, i): (usize, usize)| {
                lanes[l][..i]
                    .iter()
                    .filter(|s| matches!(s, Sync(_)))
                    .count()
            };
            // `a` completes before `b` starts: earlier in the same lane, or
            // a barrier separates them
            let precedes = |a: (usize, usize), b: (usize, usize)| {
                if a.0 == b.0 {
                    a.1 < b.1
                } else {
                    syncs_before(b) > syncs_before(a)
                }
            };
            let at = |s: Step| find(s).unwrap_or_else(|| panic!("{mode}: no {s:?}"));
            assert!(precedes(at(Gather), at(Send)), "{mode}: send before gather");
            assert!(
                precedes(at(PostRecvs), at(Wait)),
                "{mode}: wait before post"
            );
            assert!(precedes(at(Send), at(Wait)), "{mode}: wait before send");
            for part in [Full, Nonlocal] {
                if let Some(k) = find(Kernel(part)) {
                    assert!(precedes(at(Wait), k), "{mode}: {part:?} reads a live halo");
                }
            }
            assert!(
                [PostRecvs, Send, Wait].iter().all(|&s| at(s).0 == 0),
                "{mode}: comm off lane 0"
            );
            let barriers = |lane: &[Step]| -> Vec<Step> {
                lane.iter()
                    .copied()
                    .filter(|s| matches!(s, Sync(_)))
                    .collect()
            };
            assert!(
                lanes.iter().all(|l| barriers(l) == barriers(lanes[0])),
                "{mode}: lanes disagree on barriers"
            );
            assert_eq!(mode.needs_comm_thread(), !barriers(lanes[0]).is_empty());
        }
    }
}
