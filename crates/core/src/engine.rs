//! The per-rank execution engine: one object that can run a distributed
//! SpMV in any of the paper's three kernel modes (Fig. 4).
//!
//! The engine owns the *extended RHS vector* `x_ext = [local | halo]`: the
//! caller writes the local part ([`RankEngine::x_local_mut`]), the halo
//! part is filled by communication during [`RankEngine::spmv_checked`], and
//! the result appears in [`RankEngine::y_local`]. This mirrors how production SpMV
//! codes lay out the RHS so the unsplit kernel can run over one contiguous
//! vector.
//!
//! ## Threading
//!
//! With `compute_threads = C` and an optional dedicated communication
//! thread, the engine owns a persistent [`ThreadTeam`] (a team of one runs
//! on the calling thread). Every SpMV runs the mode's step table
//! ([`KernelMode::lanes`]) as one team region, the shape of an OpenMP
//! parallel region:
//!
//! * thread 0 issues every MPI call;
//! * the last `C` threads are the compute threads, each gathering and
//!   multiplying its own chunk;
//! * vector modes (one lane) are walked by the whole team, which meets at a
//!   barrier after every step, so communication never overlaps computation;
//! * task mode (two lanes) gives thread 0, the comm thread, the comm lane
//!   and threads `1..=C` the compute lane, synchronized by two explicit
//!   barriers exactly as in Fig. 4c.
//!
//! Work distribution is explicit — contiguous, nonzero-balanced row chunks
//! per compute thread — because "the standard OpenMP loop worksharing
//! directive cannot be used, since there is no concept of 'subteams' in the
//! current OpenMP standard" (§3.2).

use crate::gather::GatherProgram;
use crate::kernels::{prepare_kernel, KernelKind, SpmvKernel};
use crate::modes::{KernelMode, Lanes, Part, Step};
use crate::partition::RowPartition;
use crate::plan::{build_node_aware_distributed, build_plan_distributed, RankPlan};
use crate::schedule::{Exchange, HaloSchedule};
use crate::split::SplitMatrix;
use spmv_comm::{Comm, CommError, CommStats};
use spmv_machine::RankNodeMap;
use spmv_matrix::CsrMatrix;
use spmv_obs::{RankTrace, TraceSink};
use spmv_smp::workshare::balanced_chunks;
use spmv_smp::{TeamCtx, ThreadTeam};
use std::ops::Range;
use std::sync::Mutex;

/// How the halo exchange is routed (see [`crate::plan::NodeAwarePlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommStrategy {
    /// Every rank messages every neighbour directly (the paper's scheme).
    #[default]
    Flat,
    /// Inter-node traffic is aggregated through one leader rank per node
    /// (Bienz et al.), assuming a contiguous block placement of
    /// `ranks_per_node` ranks per node.
    NodeAware {
        /// Ranks hosted per node (the last node may hold fewer).
        ranks_per_node: usize,
    },
}

impl CommStrategy {
    /// Parses a `--comm-strategy` CLI value (`flat` | `node-aware`);
    /// `None` for an unknown name or a node-aware value with no ranks per
    /// node.
    pub fn parse(s: &str, ranks_per_node: usize) -> Option<Self> {
        match s {
            "flat" => Some(CommStrategy::Flat),
            "node-aware" | "node_aware" | "nodeaware" if ranks_per_node > 0 => {
                Some(CommStrategy::NodeAware { ranks_per_node })
            }
            _ => None,
        }
    }

    /// Short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            CommStrategy::Flat => "flat",
            CommStrategy::NodeAware { .. } => "node-aware",
        }
    }

    /// Reads the `SPMV_COMM_STRATEGY` environment variable (see
    /// [`Self::parse_env`]). The [`EngineConfig`] constructors consult it,
    /// so a CI matrix can steer every default-configured engine in the
    /// test suite without touching call sites. Unset means "no override".
    ///
    /// # Panics
    /// Panics when the variable is set to a value [`Self::parse_env`]
    /// rejects, so a typo cannot silently turn into the flat default.
    pub fn from_env() -> Option<Self> {
        let v = std::env::var_os("SPMV_COMM_STRATEGY")?;
        let parsed = v.to_str().and_then(Self::parse_env);
        Some(parsed.unwrap_or_else(|| {
            panic!(
                "SPMV_COMM_STRATEGY={v:?}: expected flat, node-aware or \
                 node-aware:<ranks per node, at least 1>"
            )
        }))
    }

    /// Parses an `SPMV_COMM_STRATEGY` value: `flat`, `node-aware` (4 ranks
    /// per node) or `node-aware:<ranks_per_node>`.
    pub fn parse_env(v: &str) -> Option<Self> {
        match v.split_once(':') {
            Some((name, rpn)) => Self::parse(name, rpn.parse().ok()?),
            None => Self::parse(v, 4),
        }
    }

    /// The rank → node map this strategy implies for a world of `size`.
    pub fn rank_node_map(&self, size: usize) -> RankNodeMap {
        match self {
            CommStrategy::Flat => RankNodeMap::contiguous(size, 1),
            CommStrategy::NodeAware { ranks_per_node } => {
                RankNodeMap::contiguous(size, *ranks_per_node)
            }
        }
    }
}

/// What the engine does when the fault plan marks a node-aware leader
/// rank as degraded (injected dead) before construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedPolicy {
    /// Keep the configured strategy; a dead leader will surface as
    /// [`CommError::PeerDead`] from the SpMV.
    #[default]
    Strict,
    /// Fall back to the flat exchange when any leader rank is degraded.
    /// The decision is a pure function of the fault plan, so every rank
    /// takes the same branch and the engines stay collectively consistent.
    FallbackToFlat,
}

/// Threading configuration of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of compute threads (`>= 1`).
    pub compute_threads: usize,
    /// Whether to provision a dedicated communication thread (required for
    /// [`KernelMode::TaskMode`]; in vector modes it issues the comm steps
    /// and computes nothing).
    pub comm_thread: bool,
    /// Node-level kernel run by all modes (see [`crate::kernels`]). The
    /// engine prepares one kernel per split matrix (full / local /
    /// non-local) at construction; `Auto` autotunes on the full matrix and
    /// reuses the winning kind for the split parts.
    pub kernel: KernelKind,
    /// Halo-exchange routing (flat point-to-point vs node-aware
    /// aggregation). Defaults to the `SPMV_COMM_STRATEGY` environment
    /// variable when set (see [`CommStrategy::from_env`]), flat otherwise.
    pub comm_strategy: CommStrategy,
    /// Reaction to a degraded (injected-dead) node-aware leader rank.
    pub degraded: DegradedPolicy,
    /// Measured-time tracing (see `spmv-obs`). Zero-cost when false: the
    /// engine carries no recorder and every instrumentation site is a
    /// branch on a missing `Option` (the fault injector's contract,
    /// measured by `bench_trace`). Defaults to on when the `SPMV_TRACE`
    /// environment variable is set, mirroring `SPMV_COMM_STRATEGY`.
    pub tracing: bool,
    /// Static communication-plan verification at construction (see
    /// [`crate::verify`]): every rank contributes its plan to a collective
    /// allgather and checks the whole world's message graph for matching,
    /// byte-count, tag-uniqueness, ownership, and deadlock defects before
    /// the first exchange runs. Defaults to **on in debug builds** and off
    /// in release (opt back in with [`EngineConfig::with_verification`]).
    /// Skipped automatically when the world carries a fault plan — the
    /// verifier proves the healthy schedule; chaos runs are *supposed* to
    /// violate it.
    pub verification: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            compute_threads: 1,
            comm_thread: false,
            kernel: KernelKind::CsrScalar,
            comm_strategy: CommStrategy::from_env().unwrap_or(CommStrategy::Flat),
            degraded: DegradedPolicy::Strict,
            tracing: std::env::var_os("SPMV_TRACE").is_some(),
            verification: cfg!(debug_assertions),
        }
    }
}

impl EngineConfig {
    /// Single-threaded pure-MPI rank.
    pub fn pure_mpi() -> Self {
        Self::default()
    }

    /// Hybrid rank with `c` compute threads (vector modes).
    pub fn hybrid(c: usize) -> Self {
        Self {
            compute_threads: c,
            ..Self::default()
        }
    }

    /// Hybrid rank with `c` compute threads plus a communication thread
    /// (task mode capable; also runs vector modes, where the comm thread
    /// issues the comm steps between the compute steps).
    pub fn task_mode(c: usize) -> Self {
        Self {
            compute_threads: c,
            comm_thread: true,
            ..Self::default()
        }
    }

    /// Returns the config with a different node-level kernel.
    pub fn with_kernel(self, kernel: KernelKind) -> Self {
        Self { kernel, ..self }
    }

    /// Returns the config with a different halo-exchange strategy.
    pub fn with_comm_strategy(self, comm_strategy: CommStrategy) -> Self {
        Self {
            comm_strategy,
            ..self
        }
    }

    /// Returns the config with a different degraded-leader policy.
    pub fn with_degraded_policy(self, degraded: DegradedPolicy) -> Self {
        Self { degraded, ..self }
    }

    /// Returns the config with measured-time tracing switched on or off.
    pub fn with_tracing(self, tracing: bool) -> Self {
        Self { tracing, ..self }
    }

    /// Returns the config with construction-time plan verification
    /// switched on or off (debug builds default to on).
    pub fn with_verification(self, verification: bool) -> Self {
        Self {
            verification,
            ..self
        }
    }
}

/// Raw pointer wrapper for disjoint multi-threaded writes.
#[derive(Clone, Copy)]
struct MutPtr(*mut f64);
// SAFETY: the pointer targets a caller-owned slice that outlives the team
// region, and every user writes a disjoint row range (enforced by the
// chunk partition), so cross-thread sharing cannot alias.
unsafe impl Send for MutPtr {}
unsafe impl Sync for MutPtr {}
impl MutPtr {
    /// The raw pointer (avoids closure field-capture of the `*mut`).
    #[inline]
    fn raw(&self) -> *mut f64 {
        self.0
    }
}

/// Trace-clock timestamp (nonnegative), free when tracing is off: the
/// clock is only read when a recorder exists.
#[inline]
fn tnow(trace: Option<&TraceSink>) -> f64 {
    match trace {
        Some(ts) => ts.now(),
        None => 0.0,
    }
}

/// Nonzeros of a contiguous row chunk (for kernel-span annotations).
#[inline]
fn chunk_nnz(mat: &CsrMatrix, r: &Range<usize>) -> u64 {
    (mat.row_ptr()[r.end] - mat.row_ptr()[r.start]) as u64
}

/// The per-rank engine.
pub struct RankEngine {
    comm: Comm,
    plan: RankPlan,
    mats: SplitMatrix,
    cfg: EngineConfig,
    team: ThreadTeam,
    // buffers
    x_ext: Vec<f64>,
    y: Vec<f64>,
    send_buf: Vec<f64>,
    // node-aware leader scratch (shipments and wires; empty otherwise)
    scratch: Vec<f64>,
    // the halo exchange of the active strategy, and its run-length-
    // compressed gather program with per-compute-thread run ranges
    schedule: HaloSchedule,
    gather_prog: GatherProgram,
    gather_chunks: Vec<Range<usize>>,
    // per-thread contiguous nonzero-balanced row chunks
    full_chunks: Vec<Range<usize>>,
    local_chunks: Vec<Range<usize>>,
    nonlocal_chunks: Vec<Range<usize>>,
    // prepared node-level kernels, one per split matrix
    kern_full: Box<dyn SpmvKernel>,
    kern_local: Box<dyn SpmvKernel>,
    kern_nonlocal: Box<dyn SpmvKernel>,
    // counters
    spmv_calls: u64,
    // measured-time recorder (None unless cfg.tracing; see spmv-obs)
    trace: Option<Box<TraceSink>>,
}

impl RankEngine {
    /// Builds the engine collectively: all ranks of `comm` must call this
    /// with their own row block (global column indices) and the shared
    /// partition. Exchanges the communication plan, splits the matrix, and
    /// spawns the thread team.
    pub fn new(
        comm: Comm,
        block: &CsrMatrix,
        partition: &RowPartition,
        mut cfg: EngineConfig,
    ) -> Self {
        assert!(cfg.compute_threads >= 1, "need at least one compute thread");
        // Degraded-leader fallback: when the fault plan marks a would-be
        // node leader dead and the policy allows it, build the flat
        // exchange instead. The check reads only the (identical) plan, so
        // every rank demotes — or none does — keeping construction
        // collective.
        if matches!(cfg.comm_strategy, CommStrategy::NodeAware { .. })
            && cfg.degraded == DegradedPolicy::FallbackToFlat
            && Self::any_leader_degraded(&comm, cfg.comm_strategy)
        {
            cfg.comm_strategy = CommStrategy::Flat;
        }
        let plan = build_plan_distributed(&comm, block, partition);
        // Static plan verification (collective): prove the whole world's
        // exchange schedule sound — matching, byte counts, tag uniqueness,
        // ownership, deadlock-freedom — before any halo payload moves.
        // Worlds with an attached fault plan skip it: the verifier proves
        // the healthy schedule, and chaos runs exist to violate it.
        if cfg.verification && comm.fault_stats().is_none() {
            let map = match cfg.comm_strategy {
                CommStrategy::Flat => None,
                CommStrategy::NodeAware { .. } => {
                    Some(cfg.comm_strategy.rank_node_map(comm.size()))
                }
            };
            if let Err(violations) = crate::verify::verify_distributed(&comm, &plan, map.as_ref()) {
                let list: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
                panic!(
                    "communication-plan verification failed on rank {} ({} violation(s)):\n  {}",
                    comm.rank(),
                    violations.len(),
                    list.join("\n  ")
                );
            }
        }
        let mats = SplitMatrix::build(block, &plan);
        let nloc = plan.local_len;
        let halo_len = plan.halo_len();

        // Node-aware strategy: build the hierarchical plan (collective);
        // its schedule gathers in [intra | ship] send-buffer order.
        let schedule = match cfg.comm_strategy {
            CommStrategy::Flat => HaloSchedule::flat(&plan),
            CommStrategy::NodeAware { .. } => {
                let map = cfg.comm_strategy.rank_node_map(comm.size());
                HaloSchedule::node_aware(&build_node_aware_distributed(&comm, plan.clone(), &map))
            }
        };
        let gather_prog = GatherProgram::compile(&schedule.gather);

        let team = ThreadTeam::new(cfg.compute_threads + usize::from(cfg.comm_thread));

        // Prepare one kernel per split matrix. Autotune resolves on the
        // full matrix (the representative workload); the winning kind is
        // reused for the split parts so all phases run the same code shape.
        let kern_full = prepare_kernel(cfg.kernel, &mats.full);
        let resolved = kern_full.kind();
        let kern_local = prepare_kernel(resolved, &mats.local);
        let kern_nonlocal = prepare_kernel(resolved, &mats.nonlocal);

        let c = cfg.compute_threads;
        let trace = cfg
            .tracing
            .then(|| Box::new(TraceSink::new(comm.rank(), c)));
        Self {
            trace,
            kern_full,
            kern_local,
            kern_nonlocal,
            full_chunks: balanced_chunks(mats.full.row_ptr(), c),
            local_chunks: balanced_chunks(mats.local.row_ptr(), c),
            nonlocal_chunks: balanced_chunks(mats.nonlocal.row_ptr(), c),
            x_ext: vec![0.0; nloc + halo_len],
            y: vec![0.0; nloc],
            send_buf: vec![0.0; schedule.gather.len()],
            scratch: vec![0.0; schedule.scratch_len()],
            gather_chunks: gather_prog.thread_run_ranges(c),
            gather_prog,
            schedule,
            comm,
            plan,
            mats,
            cfg,
            team,
            spmv_calls: 0,
        }
    }

    /// True when the fault plan degrades any leader rank the strategy's
    /// node map would elect (the first rank of each node).
    fn any_leader_degraded(comm: &Comm, strategy: CommStrategy) -> bool {
        let map = strategy.rank_node_map(comm.size());
        let mut prev_node = None;
        (0..comm.size()).any(|r| {
            let node = map.node_of(r);
            let is_leader = prev_node != Some(node);
            prev_node = Some(node);
            is_leader && comm.is_degraded(r)
        })
    }

    /// The halo-exchange strategy actually in effect — differs from the
    /// requested one after a degraded-leader fallback or
    /// [`Self::demote_to_flat`].
    pub fn active_strategy(&self) -> CommStrategy {
        self.cfg.comm_strategy
    }

    /// Collectively demotes a node-aware engine to the flat exchange
    /// mid-run (all ranks must call this at the same point; the call
    /// itself performs no communication). The flat gather order is a
    /// permutation of the node-aware one, so the persistent send buffer
    /// is reused as-is. No-op on an already-flat engine.
    pub fn demote_to_flat(&mut self) {
        if self.cfg.comm_strategy == CommStrategy::Flat {
            return;
        }
        self.schedule = HaloSchedule::flat(&self.plan);
        debug_assert_eq!(self.schedule.gather.len(), self.send_buf.len());
        self.gather_prog = GatherProgram::compile(&self.schedule.gather);
        self.gather_chunks = self.gather_prog.thread_run_ranges(self.cfg.compute_threads);
        self.scratch = Vec::new();
        self.cfg.comm_strategy = CommStrategy::Flat;
    }

    /// Number of locally owned rows.
    pub fn local_len(&self) -> usize {
        self.plan.local_len
    }

    /// First global row owned by this rank.
    pub fn row_start(&self) -> usize {
        self.plan.row_start
    }

    /// The rank's communication plan.
    pub fn plan(&self) -> &RankPlan {
        &self.plan
    }

    /// The rank's split matrices.
    pub fn matrices(&self) -> &SplitMatrix {
        &self.mats
    }

    /// The communicator (for reductions in solvers).
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The threading configuration.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Mutable access to the local part of the RHS vector.
    pub fn x_local_mut(&mut self) -> &mut [f64] {
        &mut self.x_ext[..self.plan.local_len]
    }

    /// The local part of the RHS vector.
    pub fn x_local(&self) -> &[f64] {
        &self.x_ext[..self.plan.local_len]
    }

    /// The local part of the result vector (valid after [`Self::spmv_checked`]).
    pub fn y_local(&self) -> &[f64] {
        &self.y
    }

    /// Copies the result back into the RHS (power-iteration style chaining).
    pub fn promote_y_to_x(&mut self) {
        let nloc = self.plan.local_len;
        self.x_ext[..nloc].copy_from_slice(&self.y);
    }

    /// Number of SpMV calls executed so far.
    pub fn spmv_calls(&self) -> u64 {
        self.spmv_calls
    }

    /// The measured-time trace sink, when tracing is enabled (solvers use
    /// it to add iteration spans on the dedicated solver lane).
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_deref()
    }

    /// Drains the recorder into this rank's measured trace, stamping the
    /// injected faults that originated here and this rank's entry of any
    /// watchdog stall report as typed events. Returns `None` when tracing
    /// is disabled; the recorder is reset, so traces of successive
    /// measured regions don't bleed into each other.
    pub fn take_trace(&mut self) -> Option<RankTrace> {
        let ts = self.trace.as_deref()?;
        let mut rt = ts.drain();
        rt.stamp_faults(&self.comm.fault_events());
        if let Some(report) = self.comm.stall_report() {
            rt.stamp_stall(&report);
        }
        Some(rt)
    }

    /// Collective snapshot-diffing helper: runs `f` bracketed by barriers
    /// and returns its result together with the world-global traffic delta
    /// of exactly that phase. Encapsulates the barrier / snapshot /
    /// barrier / work / barrier / diff dance the benches used to hand-roll
    /// (the counters are world-global, so the barriers keep every rank's
    /// traffic out of each other's phase).
    ///
    /// # Panics
    /// Panics when a bracketing barrier fails: phase accounting is for
    /// fault-free worlds.
    pub fn phase_delta<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, CommStats) {
        const FAULT_FREE: &str = "phase_delta brackets a phase of a fault-free world";
        self.comm.barrier().expect(FAULT_FREE);
        let base = self.comm.stats().snapshot();
        self.comm.barrier().expect(FAULT_FREE);
        let r = f(self);
        self.comm.barrier().expect(FAULT_FREE);
        let delta = self.comm.stats().phase_delta(&base);
        (r, delta)
    }

    /// Executes one distributed SpMV `y = A x` in the given mode. All ranks
    /// must call this collectively with the same mode. A communication
    /// fault (peer killed, world poisoned by the watchdog, truncated
    /// message) returns `Err(CommError)`; the result vector is then
    /// unspecified, but the engine stays structurally valid and can retry
    /// once the fault clears.
    pub fn spmv_checked(&mut self, mode: KernelMode) -> Result<(), CommError> {
        if mode.needs_comm_thread() {
            assert!(
                self.cfg.comm_thread,
                "task mode requires an engine configured with a communication thread"
            );
        }
        self.spmv_calls += 1;
        self.run_table(mode.lanes(), true)
    }

    /// [`Self::spmv_checked`] copying `x` in and `y` out (costs two extra
    /// vector copies; iterative solvers should use the in-place API).
    pub fn apply_checked(
        &mut self,
        x: &[f64],
        y: &mut [f64],
        mode: KernelMode,
    ) -> Result<(), CommError> {
        assert_eq!(x.len(), self.plan.local_len);
        assert_eq!(y.len(), self.plan.local_len);
        self.x_local_mut().copy_from_slice(x);
        self.spmv_checked(mode)?;
        y.copy_from_slice(&self.y);
        Ok(())
    }

    /// The node-level kernel kind actually in use (`Auto` resolved to the
    /// autotune winner).
    pub fn kernel_kind(&self) -> KernelKind {
        self.kern_full.kind()
    }

    /// The compiled gather program (compression diagnostics).
    pub fn gather_program(&self) -> &GatherProgram {
        &self.gather_prog
    }

    /// The halo part of the extended RHS (valid after an exchange).
    pub fn halo(&self) -> &[f64] {
        &self.x_ext[self.plan.local_len..]
    }

    /// The halo-exchange schedule of the active strategy (its
    /// [`HaloSchedule::traffic`] predicts this rank's per-exchange
    /// messages and bytes).
    pub fn schedule(&self) -> &HaloSchedule {
        &self.schedule
    }

    /// Runs the gather + halo exchange alone (no SpMV): the no-overlap
    /// table without its kernel step (`Irecv` → gather → `Isend` →
    /// `Waitall`). Collective — used by the communication benchmarks to
    /// time the exchange in isolation.
    pub fn halo_exchange_checked(&mut self) -> Result<(), CommError> {
        self.run_table(KernelMode::VectorNoOverlap.lanes(), false)
    }

    /// The step-table executor: runs a mode's [`KernelMode::lanes`] as one
    /// team region, its kernel steps only when `kernels` is set.
    ///
    /// Thread `tid` walks lane `lanes[min(tid, lanes.len() - 1)]`:
    /// exchange steps run on thread 0, gather and kernel steps on each
    /// compute thread's own chunk, and each `Sync` step is a team barrier
    /// (B1 / B2 of Fig. 4c). When the whole team walks one lane (vector
    /// modes), the team also meets after every step, as after an OpenMP
    /// worksharing loop, so communication never overlaps computation; an
    /// exchange stage with no ops is skipped by every thread, its barrier
    /// included.
    ///
    /// Exchange steps run their [`HaloSchedule`] stage through one
    /// [`Exchange`], which the `Wait` step drops. After a communication
    /// fault a thread does no more work but still meets every barrier, so
    /// the team never deadlocks; the first error is returned once the
    /// region ends.
    fn run_table(&mut self, lanes: Lanes, kernels: bool) -> Result<(), CommError> {
        let x_ext = MutPtr(self.x_ext.as_mut_ptr());
        let send = MutPtr(self.send_buf.as_mut_ptr());
        let scratch = MutPtr(self.scratch.as_mut_ptr());
        let y = MutPtr(self.y.as_mut_ptr());
        let env = StepEnv {
            eng: self,
            x_ext,
            send,
            scratch,
            y,
        };
        let first_err: Mutex<Option<CommError>> = Mutex::new(None);
        self.team.run(|ctx| {
            let lane = lanes[ctx.tid.min(lanes.len() - 1)];
            let steps = lane
                .iter()
                .filter(|s| kernels || !matches!(s, Step::Kernel(_)));
            if let Err(e) = env.walk(steps, lanes.len() == 1, &ctx) {
                first_err
                    .lock()
                    .expect("mutex poisoned: a peer thread panicked")
                    .get_or_insert(e);
            }
        });
        first_err
            .into_inner()
            .expect("mutex poisoned: a peer thread panicked")
            .map_or(Ok(()), Err)
    }
}

/// One SpMV's view of a [`RankEngine`], shared by every thread of the
/// team region: the engine's read-only state, and raw views of the buffers
/// the steps hand from thread to thread (`x_ext`, the send buffer, the
/// leader scratch and `y`), which are written only through these pointers
/// while the table runs.
struct StepEnv<'e> {
    eng: &'e RankEngine,
    x_ext: MutPtr,
    send: MutPtr,
    scratch: MutPtr,
    y: MutPtr,
}

impl StepEnv<'_> {
    /// Walks one lane as team thread `ctx`; `meet` when the whole team
    /// walks this lane. The compute threads are the team's last
    /// `compute_threads` ids, so a dedicated comm thread never computes.
    /// Each thread records its own spans: comm steps on trace lane 0,
    /// compute thread `c` on lane `1 + c`. A step's span ends once the
    /// team has met after it.
    ///
    /// The unsafe views below rely on the table's ordering, which
    /// `modes::tests` checks and the explorer proves on model worlds: a
    /// barrier separates the gather from the `Send` step, and every kernel
    /// that reads the halo starts after a barrier that follows the
    /// completed `Wait` step, which dropped the exchange.
    fn walk<'s>(
        &self,
        steps: impl Iterator<Item = &'s Step>,
        meet: bool,
        ctx: &TeamCtx<'_>,
    ) -> Result<(), CommError> {
        let eng = self.eng;
        let (trace, sched) = (eng.trace.as_deref(), &eng.schedule);
        let nloc = eng.plan.local_len;
        let halo_len = eng.x_ext.len() - nloc;
        let send_len = eng.send_buf.len();
        let (halo_bytes, send_bytes) = ((halo_len * 8) as u64, (send_len * 8) as u64);
        let ctid = (ctx.tid + eng.cfg.compute_threads).checked_sub(ctx.size);
        let mut ex: Option<Exchange<'_, '_>> = None;
        let mut res = Ok(());
        for &step in steps {
            let t = tnow(trace);
            // the span this thread records: (trace lane, bytes, nnz)
            let span = match step {
                Step::PostRecvs | Step::Send | Step::Wait => {
                    let (ops, bytes) = match step {
                        Step::PostRecvs => (sched.pre(), halo_bytes),
                        Step::Send => (sched.begin(), send_bytes),
                        _ => (sched.finish(), halo_bytes),
                    };
                    if ops.is_empty() {
                        continue;
                    }
                    (ctx.tid == 0 && res.is_ok()).then(|| {
                        // posted receives never read the send buffer,
                        // which the gather may still be writing
                        let send: &[f64] = if step == Step::PostRecvs {
                            &[]
                        } else {
                            // SAFETY: the gather completed before the
                            // sends (see above) and no step writes the
                            // send buffer again this SpMV, so a shared
                            // view is sound.
                            unsafe { std::slice::from_raw_parts(self.send.raw(), send_len) }
                        };
                        let run = ex.get_or_insert_with(|| {
                            // SAFETY: only thread 0 touches the halo and
                            // the scratch until its Wait drops the
                            // exchange; the kernels before that read the
                            // local part only.
                            let (halo, scratch) = unsafe {
                                (
                                    std::slice::from_raw_parts_mut(
                                        self.x_ext.raw().add(nloc),
                                        halo_len,
                                    ),
                                    std::slice::from_raw_parts_mut(
                                        self.scratch.raw(),
                                        eng.scratch.len(),
                                    ),
                                )
                            };
                            Exchange::new(sched, &eng.comm, halo, scratch)
                        });
                        res = run.run(ops, send);
                        if res.is_err() || step == Step::Wait {
                            // settle every request (or cancel them after a
                            // fault) before the halo is handed to the kernels
                            ex = None;
                        }
                        (0, bytes, 0)
                    })
                }
                Step::Gather => ctid.filter(|_| res.is_ok()).map(|c| {
                    let runs = eng.gather_chunks[c].clone();
                    // SAFETY: the local part of x_ext is never written
                    // during an SpMV, and gather_chunks partition the run
                    // set, so each compute thread writes a disjoint slice
                    // of the send buffer.
                    unsafe {
                        let x_loc = std::slice::from_raw_parts(self.x_ext.raw(), nloc);
                        eng.gather_prog
                            .execute_runs_raw(runs.clone(), x_loc, self.send.raw());
                    }
                    (1 + c, (eng.gather_prog.run_elems(runs) * 8) as u64, 0)
                }),
                Step::Kernel(part) => ctid.filter(|_| res.is_ok()).map(|c| {
                    let (kern, mat, chunks) = match part {
                        Part::Full => (&eng.kern_full, &eng.mats.full, &eng.full_chunks),
                        Part::Local => (&eng.kern_local, &eng.mats.local, &eng.local_chunks),
                        Part::Nonlocal => {
                            (&eng.kern_nonlocal, &eng.mats.nonlocal, &eng.nonlocal_chunks)
                        }
                    };
                    let (xs, accumulate) = match part {
                        Part::Full => (0..nloc + halo_len, false),
                        Part::Local => (0..nloc, false),
                        Part::Nonlocal => (nloc..nloc + halo_len, true),
                    };
                    let rows = chunks[c].clone();
                    let nnz = chunk_nnz(mat, &rows);
                    // SAFETY: a kernel reading the halo runs after the Wait
                    // (see above), so nothing writes its x range now, and
                    // the chunks are disjoint row ranges of y.
                    unsafe {
                        let x =
                            std::slice::from_raw_parts(self.x_ext.raw().add(xs.start), xs.len());
                        kern.spmv_rows_raw(mat, rows, x, self.y.raw(), accumulate);
                    }
                    (1 + c, 0, nnz)
                }),
                Step::Sync(_) => Some((ctid.map_or(0, |c| 1 + c), 0, 0)),
            };
            let t1 = if meet || matches!(step, Step::Sync(_)) {
                // the moment the team met: its latest arrival (nonnegative
                // f64s order like their bits), the same end for every
                // thread, so no span reaches into the next step
                f64::from_bits(ctx.barrier_max(tnow(trace).to_bits()))
            } else {
                tnow(trace)
            };
            if let (Some(ts), Some((lane, bytes, nnz))) = (trace, span) {
                ts.record(lane, step.phase(), t, t1, bytes, nnz);
            }
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RowPartition;
    use spmv_comm::CommWorld;
    use spmv_matrix::{synthetic, vecops, CsrMatrix};
    use std::sync::Arc;

    /// World creation honouring the strategy's rank → node map.
    fn world_for(ranks: usize, cfg: &EngineConfig) -> Vec<spmv_comm::Comm> {
        crate::runner::create_world(ranks, cfg)
    }

    /// Runs `modes` on `matrix` with the given rank/thread layout and
    /// compares every result against the serial reference.
    fn check_all_modes(matrix: CsrMatrix, ranks: usize, cfg: EngineConfig) {
        let n = matrix.nrows();
        let x = vecops::random_vec(n, 1234);
        let mut y_ref = vec![0.0; n];
        matrix.spmv(&x, &mut y_ref);

        let matrix = Arc::new(matrix);
        let partition = Arc::new(RowPartition::by_nnz(&matrix, ranks));
        let modes: Vec<KernelMode> = if cfg.comm_thread {
            KernelMode::ALL.to_vec()
        } else {
            vec![KernelMode::VectorNoOverlap, KernelMode::VectorNaiveOverlap]
        };

        let comms = world_for(ranks, &cfg);
        let x = Arc::new(x);
        let modes = Arc::new(modes);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let matrix = Arc::clone(&matrix);
                let partition = Arc::clone(&partition);
                let x = Arc::clone(&x);
                let modes = Arc::clone(&modes);
                std::thread::spawn(move || {
                    let range = partition.range(c.rank());
                    let block = matrix.row_block(range.clone());
                    let mut eng = RankEngine::new(c, &block, &partition, cfg);
                    let mut results = Vec::new();
                    for &mode in modes.iter() {
                        eng.x_local_mut().copy_from_slice(&x[range.clone()]);
                        eng.spmv_checked(mode).unwrap();
                        results.push((mode, eng.y_local().to_vec()));
                    }
                    (range, results)
                })
            })
            .collect();

        for h in handles {
            let (range, results) = h.join().expect("rank panicked");
            for (mode, y) in results {
                let err = vecops::max_abs_diff(&y, &y_ref[range.clone()]);
                assert!(err < 1e-11, "{mode} wrong by {err} on rows {range:?}");
            }
        }
    }

    #[test]
    fn pure_mpi_vector_modes_match_reference() {
        let m = synthetic::random_banded_symmetric(400, 30, 6.0, 5);
        check_all_modes(m, 4, EngineConfig::pure_mpi());
    }

    #[test]
    fn hybrid_vector_modes_match_reference() {
        let m = synthetic::random_general(300, 300, 9, 8);
        check_all_modes(m, 3, EngineConfig::hybrid(4));
    }

    #[test]
    fn task_mode_matches_reference() {
        let m = synthetic::random_banded_symmetric(500, 40, 7.0, 13);
        check_all_modes(m, 4, EngineConfig::task_mode(3));
    }

    #[test]
    fn task_mode_single_compute_thread() {
        // paper: pure MPI + comm thread on the SMT sibling
        let m = synthetic::random_general(200, 200, 6, 3);
        check_all_modes(m, 5, EngineConfig::task_mode(1));
    }

    #[test]
    fn scattered_matrix_heavy_communication() {
        let m = synthetic::scattered(256, 16, 9);
        check_all_modes(m, 8, EngineConfig::task_mode(2));
    }

    #[test]
    fn diagonal_matrix_no_communication() {
        let m = CsrMatrix::from_diagonal(&vecops::random_vec(128, 2));
        check_all_modes(m, 4, EngineConfig::task_mode(2));
    }

    /// One rank: every mode on a task-mode team, and the vector modes on
    /// hybrid teams of 1, 2, 3 and 5 threads. Without overlap, a one-rank
    /// hybrid engine is the node-level SpMV of Fig. 3: bit for bit the
    /// serial CSR product, for every right-hand side it is handed.
    #[test]
    fn single_rank_all_modes() {
        let m = synthetic::random_general(150, 150, 8, 4);
        check_all_modes(m.clone(), 1, EngineConfig::task_mode(3));
        for threads in [1, 2, 3, 5] {
            let cfg = EngineConfig::hybrid(threads);
            check_all_modes(m.clone(), 1, cfg);
            crate::runner::run_spmd(&m, 1, cfg, |eng| {
                for seed in 0..3 {
                    let x = vecops::random_vec(150, seed);
                    let mut y_ref = vec![0.0; 150];
                    m.spmv(&x, &mut y_ref);
                    eng.x_local_mut().copy_from_slice(&x);
                    eng.spmv_checked(KernelMode::VectorNoOverlap).unwrap();
                    let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(eng.y_local()), bits(&y_ref), "{threads} threads");
                }
            });
        }
    }

    #[test]
    fn more_ranks_than_rows() {
        let m = synthetic::tridiagonal(5, 2.0, -1.0);
        check_all_modes(m, 8, EngineConfig::pure_mpi());
    }

    #[test]
    fn repeated_spmv_is_stable() {
        // iterate y = A x ten times and compare against serial iteration
        let n = 200;
        let m = synthetic::random_banded_symmetric(n, 15, 5.0, 77);
        let x0 = vecops::random_vec(n, 5);
        let mut x_ref = x0.clone();
        let mut y_ref = vec![0.0; n];
        for _ in 0..10 {
            m.spmv(&x_ref, &mut y_ref);
            let norm = vecops::norm2(&y_ref);
            x_ref.copy_from_slice(&y_ref);
            vecops::scale(1.0 / norm, &mut x_ref);
        }

        let m = Arc::new(m);
        let p = Arc::new(RowPartition::by_nnz(&m, 3));
        let x0 = Arc::new(x0);
        let comms = CommWorld::create(3);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let m = Arc::clone(&m);
                let p = Arc::clone(&p);
                let x0 = Arc::clone(&x0);
                std::thread::spawn(move || {
                    let range = p.range(c.rank());
                    let block = m.row_block(range.clone());
                    let mut eng = RankEngine::new(c, &block, &p, EngineConfig::task_mode(2));
                    eng.x_local_mut().copy_from_slice(&x0[range.clone()]);
                    for _ in 0..10 {
                        eng.spmv_checked(KernelMode::TaskMode).unwrap();
                        // normalize globally
                        let local_ss: f64 = eng.y_local().iter().map(|v| v * v).sum();
                        let global_ss = eng
                            .comm()
                            .allreduce_scalar(local_ss, spmv_comm::collectives::ReduceOp::Sum);
                        let norm = global_ss.sqrt();
                        eng.promote_y_to_x();
                        for v in eng.x_local_mut() {
                            *v /= norm;
                        }
                    }
                    (range, eng.x_local().to_vec())
                })
            })
            .collect();
        for h in handles {
            let (range, x) = h.join().unwrap();
            let err = vecops::max_abs_diff(&x, &x_ref[range.clone()]);
            assert!(err < 1e-10, "iterated power step diverged: {err}");
        }
    }

    #[test]
    fn all_modes_with_every_kernel_kind() {
        let m = synthetic::random_banded_symmetric(300, 25, 6.0, 19);
        for kind in crate::kernels::KernelKind::candidates() {
            check_all_modes(m.clone(), 3, EngineConfig::task_mode(2).with_kernel(kind));
        }
    }

    #[test]
    fn node_aware_all_modes_match_reference() {
        let m = synthetic::random_banded_symmetric(400, 60, 6.0, 21);
        for rpn in [2, 3, 4, 8] {
            let cfg = EngineConfig::task_mode(2).with_comm_strategy(CommStrategy::NodeAware {
                ranks_per_node: rpn,
            });
            check_all_modes(m.clone(), 8, cfg);
        }
    }

    #[test]
    fn node_aware_pure_mpi_and_hybrid() {
        let m = synthetic::scattered(256, 16, 9);
        let na2 = CommStrategy::NodeAware { ranks_per_node: 2 };
        let na3 = CommStrategy::NodeAware { ranks_per_node: 3 };
        check_all_modes(
            m.clone(),
            6,
            EngineConfig::pure_mpi().with_comm_strategy(na2),
        );
        check_all_modes(m, 6, EngineConfig::hybrid(3).with_comm_strategy(na3));
    }

    #[test]
    fn node_aware_single_node_all_intra() {
        // every rank on one node: no wires, only direct intra messages
        let m = synthetic::random_general(200, 200, 7, 6);
        let cfg = EngineConfig::task_mode(2)
            .with_comm_strategy(CommStrategy::NodeAware { ranks_per_node: 4 });
        check_all_modes(m, 4, cfg);
    }

    /// Runs one halo exchange on a world whose stats classify messages by
    /// the given node map, returning the world-level deltas.
    fn exchange_stats(
        matrix: &CsrMatrix,
        ranks: usize,
        ranks_per_node: usize,
        cfg: EngineConfig,
    ) -> spmv_comm::CommStats {
        let partition = RowPartition::by_nnz(matrix, ranks);
        let map = spmv_machine::RankNodeMap::contiguous(ranks, ranks_per_node);
        let comms = CommWorld::create_with_nodes((0..ranks).map(|r| map.node_of(r)).collect());
        std::thread::scope(|scope| {
            let partition = &partition;
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    scope.spawn(move || {
                        let block = matrix.row_block(partition.range(c.rank()));
                        let mut eng = RankEngine::new(c, &block, partition, cfg);
                        let rank = eng.comm().rank();
                        // phase_delta brackets the exchange with the
                        // message-free barriers the world-global counters need
                        let (_, delta) = eng.phase_delta(|e| e.halo_exchange_checked().unwrap());
                        (rank, delta)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .find(|(r, _)| *r == 0)
                .unwrap()
                .1
        })
    }

    #[test]
    fn node_aware_cuts_inter_node_messages_same_bytes() {
        // wide band: every rank's halo spans several ranks on each side, so
        // aggregation has plenty of per-node-pair messages to merge
        let m = synthetic::random_banded_symmetric(600, 150, 5.0, 33);
        let (ranks, rpn) = (8, 4);
        // explicit Flat: immune to the SPMV_COMM_STRATEGY CI override
        let flat = exchange_stats(
            &m,
            ranks,
            rpn,
            EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::Flat),
        );
        let na = exchange_stats(
            &m,
            ranks,
            rpn,
            EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::NodeAware {
                ranks_per_node: rpn,
            }),
        );
        assert!(
            na.inter_messages < flat.inter_messages,
            "node-aware {} vs flat {} inter-node messages",
            na.inter_messages,
            flat.inter_messages
        );
        assert_eq!(
            na.inter_bytes, flat.inter_bytes,
            "aggregation must not duplicate inter-node payload"
        );
        // 2 nodes → at most one wire per direction
        assert!(na.inter_messages <= 2);
    }

    #[test]
    fn schedule_traffic_prediction_matches_strategy() {
        let m = synthetic::random_banded_symmetric(400, 80, 5.0, 7);
        let map = spmv_machine::RankNodeMap::contiguous(8, 4);
        let inter_msgs = |strategy| {
            let cfg = EngineConfig::pure_mpi().with_comm_strategy(strategy);
            crate::runner::run_spmd(&m, 8, cfg, |eng| eng.schedule().traffic(&map).inter_msgs)
                .iter()
                .sum::<usize>()
        };
        let na = inter_msgs(CommStrategy::NodeAware { ranks_per_node: 4 });
        let flat = inter_msgs(CommStrategy::Flat);
        assert!(na < flat, "{na} vs {flat}");
    }

    #[test]
    fn gather_program_compresses_banded_sends() {
        // banded halos are contiguous row slices → few long runs
        let m = synthetic::tridiagonal(120, 2.0, -1.0);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let eng = RankEngine::new(
            comms.into_iter().next().unwrap(),
            &m,
            &p,
            EngineConfig::pure_mpi(),
        );
        assert_eq!(eng.gather_program().total_elems(), 0, "single rank");
    }

    #[test]
    fn auto_kernel_resolves_to_concrete_kind() {
        use crate::kernels::KernelKind;
        let m = synthetic::random_general(200, 200, 7, 2);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let mut eng = RankEngine::new(
            comms.into_iter().next().unwrap(),
            &m,
            &p,
            EngineConfig::hybrid(2).with_kernel(KernelKind::Auto),
        );
        assert_ne!(eng.kernel_kind(), KernelKind::Auto);
        let x = vecops::random_vec(200, 8);
        let mut y_ref = vec![0.0; 200];
        m.spmv(&x, &mut y_ref);
        let mut y = vec![0.0; 200];
        eng.apply_checked(&x, &mut y, KernelMode::VectorNaiveOverlap)
            .unwrap();
        assert!(vecops::max_abs_diff(&y, &y_ref) < 1e-11);
    }

    #[test]
    fn apply_copies_in_and_out() {
        let m = synthetic::tridiagonal(30, 2.0, -1.0);
        let x = vecops::random_vec(30, 3);
        let mut y_ref = vec![0.0; 30];
        m.spmv(&x, &mut y_ref);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let mut eng = RankEngine::new(
            comms.into_iter().next().unwrap(),
            &m,
            &p,
            EngineConfig::pure_mpi(),
        );
        let mut y = vec![0.0; 30];
        eng.apply_checked(&x, &mut y, KernelMode::VectorNoOverlap)
            .unwrap();
        assert!(vecops::max_abs_diff(&y, &y_ref) < 1e-13);
        assert_eq!(eng.spmv_calls(), 1);
    }

    #[test]
    fn task_mode_without_comm_thread_panics() {
        let m = synthetic::tridiagonal(10, 2.0, -1.0);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let mut eng = RankEngine::new(
            comms.into_iter().next().unwrap(),
            &m,
            &p,
            EngineConfig::hybrid(2),
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.spmv_checked(KernelMode::TaskMode)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn engine_reports_plan_and_config() {
        let m = synthetic::tridiagonal(40, 2.0, -1.0);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let eng = RankEngine::new(
            comms.into_iter().next().unwrap(),
            &m,
            &p,
            EngineConfig::hybrid(2),
        );
        assert_eq!(eng.local_len(), 40);
        assert_eq!(eng.row_start(), 0);
        assert_eq!(eng.config().compute_threads, 2);
        assert_eq!(eng.plan().halo_len(), 0);
        assert_eq!(eng.matrices().nonlocal_nnz(), 0);
        assert_eq!(eng.comm().size(), 1);
    }

    #[test]
    fn demote_to_flat_midrun_matches_reference() {
        let n = 400;
        let m = synthetic::random_banded_symmetric(n, 60, 6.0, 21);
        let x = vecops::random_vec(n, 9);
        let mut y_ref = vec![0.0; n];
        m.spmv(&x, &mut y_ref);
        let cfg = EngineConfig::task_mode(2)
            .with_comm_strategy(CommStrategy::NodeAware { ranks_per_node: 4 });
        let ys = crate::runner::run_spmd(&m, 8, cfg, |eng| {
            let range = eng.row_start()..eng.row_start() + eng.local_len();
            eng.x_local_mut().copy_from_slice(&x[range]);
            eng.spmv_checked(KernelMode::VectorNoOverlap).unwrap();
            let y_na = eng.y_local().to_vec();
            assert_eq!(eng.active_strategy().label(), "node-aware");
            eng.demote_to_flat();
            assert_eq!(eng.active_strategy(), CommStrategy::Flat);
            // same mode → same summation order → bit-identical result
            eng.spmv_checked(KernelMode::VectorNoOverlap).unwrap();
            assert_eq!(y_na, eng.y_local(), "demotion changed the result");
            eng.spmv_checked(KernelMode::TaskMode).unwrap(); // flat task mode still healthy
            (eng.row_start(), eng.y_local().to_vec())
        });
        for (start, part) in ys {
            let err = vecops::max_abs_diff(&part, &y_ref[start..start + part.len()]);
            assert!(err < 1e-11, "flat-demoted result off by {err}");
        }
    }

    #[test]
    fn tracing_records_expected_phases_per_mode() {
        use spmv_obs::RunTrace;
        let m = synthetic::random_banded_symmetric(300, 40, 5.0, 3);
        // pinned flat: "post recvs" only exists in the flat exchange (the
        // node-aware finish receives inside its waitall window)
        let cfg = EngineConfig::task_mode(2)
            .with_comm_strategy(CommStrategy::Flat)
            .with_tracing(true);
        let parts = crate::runner::run_spmd(&m, 4, cfg, |eng| {
            assert!(eng.trace_sink().is_some());
            eng.x_local_mut().fill(1.0);
            for mode in KernelMode::ALL {
                eng.spmv_checked(mode).unwrap();
            }
            eng.take_trace().expect("tracing enabled")
        });
        let trace = RunTrace::from_ranks(parts);
        assert_eq!(trace.ranks(), vec![0, 1, 2, 3]);
        assert_eq!(trace.dropped, 0);
        let labels = trace.phase_labels();
        for expected in [
            "gather",
            "post recvs",
            "send",
            "waitall",
            "spmv(full)",
            "spmv(local)",
            "spmv(nonlocal)",
            "barrier",
        ] {
            assert!(labels.contains(expected), "missing {expected}: {labels:?}");
        }
        // every traced phase span carries a nonnegative duration on the
        // shared clock
        assert!(trace.events.iter().all(|e| e.t1 >= e.t0 && e.t0 >= 0.0));
        // task mode's comm thread recorded on lane 0, compute on 1..=2
        assert!(trace.events.iter().any(|e| e.lane == 0));
        assert!(trace.events.iter().any(|e| e.lane == 2));
    }

    #[test]
    fn disabled_tracing_carries_no_recorder() {
        let m = synthetic::tridiagonal(40, 2.0, -1.0);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let mut eng = RankEngine::new(
            comms.into_iter().next().unwrap(),
            &m,
            &p,
            EngineConfig::hybrid(2).with_tracing(false),
        );
        assert!(eng.trace_sink().is_none());
        eng.x_local_mut().fill(1.0);
        eng.spmv_checked(KernelMode::VectorNoOverlap).unwrap();
        assert!(eng.take_trace().is_none());
    }

    #[test]
    fn comm_strategy_values_parse_or_are_rejected() {
        let na = |ranks_per_node| Some(CommStrategy::NodeAware { ranks_per_node });
        for (v, want) in [
            ("flat", Some(CommStrategy::Flat)),
            ("node-aware", na(4)),
            ("node_aware", na(4)),
            ("nodeaware", na(4)),
            ("node-aware:1", na(1)),
            ("node-aware:3", na(3)),
            ("node_aware:2", na(2)),
            ("nodeaware:8", na(8)),
            ("node-aware:0", None),
            ("node-aware:x", None),
            ("node-aware:", None),
            ("bogus", None),
            ("", None),
        ] {
            assert_eq!(CommStrategy::parse_env(v), want, "{v:?}");
        }
        assert_eq!(CommStrategy::parse("node-aware", 0), None);
        assert_eq!(CommStrategy::parse("flat", 0), Some(CommStrategy::Flat));
    }

    /// A set-but-unparsable `SPMV_COMM_STRATEGY` panics when a config is
    /// built. Checked in child runs of this test binary, so the variable
    /// never reaches the other tests of the process.
    #[test]
    fn bad_comm_strategy_env_panics_at_config_construction() {
        const CHILD: &str = "SPMV_TEST_ENV_CHILD";
        if std::env::var_os(CHILD).is_some() {
            let _ = EngineConfig::default();
            return;
        }
        let exe = std::env::current_exe().expect("test binary path is known");
        for (v, ok) in [
            ("bogus", false),
            ("node-aware:0", false),
            ("node-aware:x", false),
            ("node-aware:2", true),
            ("flat", true),
        ] {
            let out = std::process::Command::new(&exe)
                .args([
                    "--exact",
                    "engine::tests::bad_comm_strategy_env_panics_at_config_construction",
                    "--nocapture",
                ])
                .env(CHILD, "1")
                .env("SPMV_COMM_STRATEGY", v)
                .output()
                .expect("child test run starts");
            assert_eq!(out.status.success(), ok, "SPMV_COMM_STRATEGY={v}");
            if !ok {
                let text =
                    String::from_utf8_lossy(&out.stderr) + String::from_utf8_lossy(&out.stdout);
                assert!(
                    text.contains("SPMV_COMM_STRATEGY")
                        && text.contains("node-aware:<ranks per node"),
                    "{v}: panic must name the variable and the accepted forms: {text}"
                );
            }
        }
    }

    #[test]
    fn degraded_leader_triggers_flat_fallback() {
        use spmv_comm::{CommWorld, FaultPlan};
        let m = synthetic::random_banded_symmetric(300, 40, 5.0, 3);
        let p = RowPartition::by_nnz(&m, 8);
        let na = CommStrategy::NodeAware { ranks_per_node: 4 };
        // rank 4 leads the second node; plan-degrading it must flip
        // FallbackToFlat engines to the flat exchange on every rank
        let comms = CommWorld::builder(8)
            .node_map((0..8).map(|r| r / 4).collect())
            .faults(FaultPlan::new(7).degrade_leader(4))
            .build();
        let strategies = crate::runner::run_spmd_on_world(
            comms,
            &m,
            &p,
            EngineConfig::hybrid(2)
                .with_comm_strategy(na)
                .with_degraded_policy(DegradedPolicy::FallbackToFlat),
            |eng| {
                eng.x_local_mut().fill(1.0);
                eng.spmv_checked(KernelMode::VectorNaiveOverlap).unwrap();
                eng.active_strategy()
            },
        );
        assert!(strategies.iter().all(|s| *s == CommStrategy::Flat));
        // Strict engines keep the requested routing
        let comms = CommWorld::builder(8)
            .node_map((0..8).map(|r| r / 4).collect())
            .faults(FaultPlan::new(7).degrade_leader(4))
            .build();
        let strategies = crate::runner::run_spmd_on_world(
            comms,
            &m,
            &p,
            EngineConfig::hybrid(2).with_comm_strategy(na),
            |eng| eng.active_strategy(),
        );
        assert!(strategies.iter().all(|s| *s == na));
    }
}
