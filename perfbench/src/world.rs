//! The timed configurations and the long-lived rank threads that run them.
//!
//! Ranks are threads. Every engine configuration gets one world of rank
//! threads that builds its `RankEngine`s once and then waits on a channel
//! for jobs, so the benchmark can interleave configurations batch by
//! batch while the idle worlds sleep in `recv` instead of spinning.

use crate::spans::{Span, SpanLog};
use spmv_core::{
    prepare_kernel, CommStrategy, EngineConfig, KernelMode, RankEngine, RowPartition, SpmvKernel,
};
use spmv_matrix::CsrMatrix;
use spmv_obs::Phase;
use spmv_smp::workshare::balanced_chunks;
use spmv_smp::ThreadTeam;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// A timed configuration, named `<mode>_<ranks>x<threads>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cfg {
    /// Plain `CsrMatrix::spmv` (or serial solver) on the calling thread.
    Serial,
    /// 2 ranks × 1 thread, vector mode without overlap.
    Mpi2x1,
    /// 2 ranks × 1 thread, vector mode with naive overlap (split kernel).
    Naive2x1,
    /// 1 rank × 2 threads, vector mode without overlap.
    Hybrid1x2,
    /// 1 rank × (1 compute + 1 communication thread), task mode.
    Task1x1p1,
}

impl Cfg {
    /// Every configuration, in report order.
    pub const ALL: [Cfg; 5] = [
        Cfg::Serial,
        Cfg::Mpi2x1,
        Cfg::Naive2x1,
        Cfg::Hybrid1x2,
        Cfg::Task1x1p1,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Cfg::Serial => "serial",
            Cfg::Mpi2x1 => "mpi_2x1",
            Cfg::Naive2x1 => "naive_2x1",
            Cfg::Hybrid1x2 => "hybrid_1x2",
            Cfg::Task1x1p1 => "task_1x1p1",
        }
    }

    /// The world that runs this configuration (`None` for serial).
    pub fn world(self) -> Option<WorldKind> {
        match self {
            Cfg::Serial => None,
            Cfg::Mpi2x1 | Cfg::Naive2x1 => Some(WorldKind::TwoRanks),
            Cfg::Hybrid1x2 => Some(WorldKind::Hybrid),
            Cfg::Task1x1p1 => Some(WorldKind::Task),
        }
    }

    /// Kernel mode of every SpMV.
    pub fn mode(self) -> KernelMode {
        match self {
            Cfg::Naive2x1 => KernelMode::VectorNaiveOverlap,
            Cfg::Task1x1p1 => KernelMode::TaskMode,
            _ => KernelMode::VectorNoOverlap,
        }
    }

    /// Threads that run while a batch of this configuration is timed.
    pub fn busy_threads(self) -> usize {
        self.world().map_or(1, |w| w.ranks() * w.threads_per_rank())
    }

    /// Whether the result must equal the serial reference bit for bit,
    /// i.e. every row is summed in the serial kernel's order. That holds
    /// for one rank without the split kernel. With two ranks the engine
    /// numbers halo columns after the local ones and keeps each row sorted
    /// by that numbering, so rank 1's rows that reach into rank 0 add
    /// their terms in another order; those configurations, like the split
    /// kernel, are checked within [`SPLIT_RTOL`].
    pub fn bitwise(self) -> bool {
        self.world().map_or(1, WorldKind::ranks) == 1 && !self.mode().uses_split_kernel()
    }
}

/// One long-lived set of rank engines. `mpi_2x1` and `naive_2x1` share
/// the two-rank world: they differ only in the mode passed to `spmv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldKind {
    /// 2 ranks, `EngineConfig::pure_mpi()`.
    TwoRanks,
    /// 1 rank, `EngineConfig::hybrid(2)`.
    Hybrid,
    /// 1 rank, `EngineConfig::task_mode(1)`.
    Task,
}

impl WorldKind {
    /// Every world.
    pub const ALL: [WorldKind; 3] = [WorldKind::TwoRanks, WorldKind::Hybrid, WorldKind::Task];

    /// Label for reports.
    pub fn name(self) -> &'static str {
        match self {
            WorldKind::TwoRanks => "2x1",
            WorldKind::Hybrid => "1x2",
            WorldKind::Task => "1x1p1",
        }
    }

    /// Number of ranks.
    pub fn ranks(self) -> usize {
        match self {
            WorldKind::TwoRanks => 2,
            WorldKind::Hybrid | WorldKind::Task => 1,
        }
    }

    /// Engine configuration. Strategy and tracing are set explicitly so
    /// the `SPMV_COMM_STRATEGY` / `SPMV_TRACE` overrides cannot change
    /// what is timed.
    pub fn config(self, tracing: bool) -> EngineConfig {
        match self {
            WorldKind::TwoRanks => EngineConfig::pure_mpi(),
            WorldKind::Hybrid => EngineConfig::hybrid(2),
            WorldKind::Task => EngineConfig::task_mode(1),
        }
        .with_comm_strategy(CommStrategy::Flat)
        .with_tracing(tracing)
    }

    /// Threads per rank (compute plus communication).
    pub fn threads_per_rank(self) -> usize {
        let c = self.config(false);
        c.compute_threads + usize::from(c.comm_thread)
    }
}

/// Generated inputs shared by every world.
pub struct Inputs {
    /// The workload's matrix.
    pub matrix: CsrMatrix,
    /// Nonzero-balanced row partitions into 1 and 2 parts.
    pub partitions: [RowPartition; 2],
    /// Seeded right-hand side / start vector.
    pub x: Vec<f64>,
    /// Serial reference `A x`.
    pub y_ref: Vec<f64>,
}

impl Inputs {
    /// Partition for a world of `ranks` ranks.
    pub fn partition(&self, ranks: usize) -> &RowPartition {
        &self.partitions[ranks - 1]
    }
}

/// A job's result: numbers, or why the batch failed.
pub type Out = Result<Vec<f64>, String>;

/// Work sent to every rank of a world.
pub type Job<'env> = Arc<dyn Fn(&mut Rank<'env>) -> Out + Send + Sync + 'env>;

/// Everything a rank thread owns.
pub struct Rank<'env> {
    /// The engine under test.
    pub eng: RankEngine,
    /// Spans this rank recorded.
    pub log: SpanLog,
    /// Shared inputs.
    pub inputs: &'env Inputs,
    probe: Option<KernelProbe>,
}

impl Rank<'_> {
    /// This rank's global row range.
    pub fn rows(&self) -> Range<usize> {
        self.eng.row_start()..self.eng.row_start() + self.eng.local_len()
    }

    /// Compares the engine's result with the serial reference.
    pub fn check_y(&self, bitwise: bool) -> Result<(), String> {
        check_result(self.eng.y_local(), &self.inputs.y_ref[self.rows()], bitwise)
    }

    /// Adopts the engine's own phase spans (tracing on) as children of the
    /// benchmark span that encloses each of them, under that span's
    /// operation id (`op` for a span no benchmark span encloses).
    pub fn adopt_engine_spans(&mut self, op: u64) {
        let Some(rt) = self.eng.take_trace() else {
            return;
        };
        // parents are looked up before any engine span is added, so an
        // engine span never becomes another one's parent
        let parents: Vec<_> = rt
            .events
            .iter()
            .map(|ev| self.log.enclosing(rt.rank, ev.t0, ev.t1))
            .collect();
        for (ev, parent) in rt.events.into_iter().zip(parents) {
            self.log.push(Span {
                op: parent.map_or(op, |p| self.log.spans()[p].op),
                name: engine_span_name(ev.phase),
                rank: rt.rank,
                t0: ev.t0,
                t1: ev.t1,
                parent,
            });
        }
    }

    /// Runs the node kernel `n` times on this rank's rows with the
    /// configuration's threads, outside the engine: the full matrix for
    /// the unsplit modes, local then non-local for the split ones. With a
    /// team, each thread times its own chunk inside the region, so team
    /// dispatch is not counted. Returns seconds per call
    /// `[kernel, local, nonlocal]` (the last two are 0 when unsplit).
    pub fn kernel_probe(&mut self, split: bool, n: usize) -> [f64; 3] {
        let probe = self
            .probe
            .get_or_insert_with(|| KernelProbe::new(&self.eng));
        let mats = self.eng.matrices();
        if split {
            let (mut tl, mut tn) = (0.0, 0.0);
            for _ in 0..n {
                let t = Instant::now();
                probe.local.spmv_rows(
                    &mats.local,
                    0..mats.local.nrows(),
                    self.eng.x_local(),
                    &mut probe.y,
                    false,
                );
                tl += t.elapsed().as_secs_f64();
                let t = Instant::now();
                probe.nonlocal.spmv_rows(
                    &mats.nonlocal,
                    0..mats.nonlocal.nrows(),
                    self.eng.halo(),
                    &mut probe.y,
                    true,
                );
                tn += t.elapsed().as_secs_f64();
            }
            let n = n as f64;
            return [(tl + tn) / n, tl / n, tn / n];
        }
        probe.refresh_x_ext(&self.eng);
        let secs = match &probe.team {
            None => {
                let t = Instant::now();
                for _ in 0..n {
                    probe.full.spmv_rows(
                        &mats.full,
                        0..mats.full.nrows(),
                        &probe.x_ext,
                        &mut probe.y,
                        false,
                    );
                }
                t.elapsed().as_secs_f64()
            }
            Some(team) => {
                let (full, x_ext, chunks, slots) =
                    (&probe.full, &probe.x_ext, &probe.chunks, &probe.slots);
                for _ in 0..n {
                    team.run(|ctx| {
                        let mut slot = slots[ctx.tid].lock().expect("probe slot poisoned");
                        let t = Instant::now();
                        full.spmv_rows(
                            &mats.full,
                            chunks[ctx.tid].clone(),
                            x_ext,
                            &mut slot.0,
                            false,
                        );
                        slot.1 += t.elapsed().as_secs_f64();
                    });
                }
                slots
                    .iter()
                    .map(|s| std::mem::take(&mut s.lock().expect("probe slot poisoned").1))
                    .fold(0.0, f64::max)
            }
        };
        [secs / n as f64, 0.0, 0.0]
    }
}

/// Buffers and prepared kernels for [`Rank::kernel_probe`], built on first
/// use so they stay out of the engine's set-up time.
struct KernelProbe {
    full: Box<dyn SpmvKernel>,
    local: Box<dyn SpmvKernel>,
    nonlocal: Box<dyn SpmvKernel>,
    x_ext: Vec<f64>,
    y: Vec<f64>,
    team: Option<ThreadTeam>,
    chunks: Vec<Range<usize>>,
    /// Per-thread result vector and accumulated kernel seconds.
    slots: Vec<Mutex<(Vec<f64>, f64)>>,
}

impl KernelProbe {
    fn new(eng: &RankEngine) -> Self {
        let mats = eng.matrices();
        let kind = eng.kernel_kind();
        let c = eng.config().compute_threads;
        let rows = mats.full.nrows();
        Self {
            full: prepare_kernel(kind, &mats.full),
            local: prepare_kernel(kind, &mats.local),
            nonlocal: prepare_kernel(kind, &mats.nonlocal),
            x_ext: Vec::with_capacity(mats.full.ncols()),
            y: vec![0.0; rows],
            team: (c > 1).then(|| ThreadTeam::new(c)),
            chunks: balanced_chunks(mats.full.row_ptr(), c),
            slots: (0..c).map(|_| Mutex::new((vec![0.0; rows], 0.0))).collect(),
        }
    }

    /// `[x_local | halo]`, the extended vector the unsplit kernel reads.
    fn refresh_x_ext(&mut self, eng: &RankEngine) {
        self.x_ext.clear();
        self.x_ext.extend_from_slice(eng.x_local());
        self.x_ext.extend_from_slice(eng.halo());
    }
}

/// Compares a result with its reference: bit for bit, or within
/// [`SPLIT_RTOL`] of the reference's largest magnitude.
pub fn check_result(y: &[f64], y_ref: &[f64], bitwise: bool) -> Result<(), String> {
    if y.len() != y_ref.len() {
        return Err(format!("result length {} != {}", y.len(), y_ref.len()));
    }
    if bitwise {
        return match y
            .iter()
            .zip(y_ref)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            None => Ok(()),
            Some(i) => Err(format!("row {i}: {} != reference {}", y[i], y_ref[i])),
        };
    }
    let scale = y_ref
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    let err = spmv_matrix::vecops::max_abs_diff(y, y_ref) / scale;
    if err <= SPLIT_RTOL {
        Ok(())
    } else {
        Err(format!("relative error {err:e} > {SPLIT_RTOL:e}"))
    }
}

/// Tolerance of the configurations whose rows add their terms in another
/// order than the serial kernel (see [`Cfg::bitwise`]), relative to the
/// largest reference entry.
pub const SPLIT_RTOL: f64 = 1e-12;

fn engine_span_name(p: Phase) -> &'static str {
    match p {
        Phase::Gather => "engine.gather",
        Phase::PostRecvs => "engine.post_recvs",
        Phase::Send => "engine.send",
        Phase::Waitall => "engine.waitall",
        Phase::SpmvLocal => "engine.spmv_local",
        Phase::SpmvNonlocal => "engine.spmv_nonlocal",
        Phase::SpmvFull => "engine.spmv_full",
        Phase::Barrier => "engine.barrier",
        _ => "engine.other",
    }
}

/// How long the benchmark waits for a rank before declaring the run hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(90);

/// A running world: its rank threads and their channels.
pub struct World<'scope, 'env> {
    /// Which world this is.
    pub kind: WorldKind,
    /// Engine construction time: the slowest rank's `RankEngine::new`.
    pub setup_s: f64,
    txs: Vec<Sender<Job<'env>>>,
    rx: Receiver<(usize, Out)>,
    handles: Vec<ScopedJoinHandle<'scope, SpanLog>>,
}

impl<'scope, 'env> World<'scope, 'env> {
    /// Spawns the rank threads, builds every engine and waits until all
    /// are ready. Each rank's RHS is set to its slice of `inputs.x`.
    pub fn spawn(
        scope: &'scope Scope<'scope, 'env>,
        kind: WorldKind,
        tracing: bool,
        inputs: &'env Inputs,
    ) -> Self {
        let cfg = kind.config(tracing);
        let partition = inputs.partition(kind.ranks());
        let (rtx, rx) = channel();
        let mut txs = Vec::new();
        let mut handles = Vec::new();
        for comm in spmv_core::runner::create_world(kind.ranks(), &cfg) {
            let (tx, jobs) = channel::<Job<'env>>();
            let rtx = rtx.clone();
            txs.push(tx);
            handles.push(scope.spawn(move || {
                let r = comm.rank();
                let block = inputs.matrix.row_block(partition.range(r));
                let t = Instant::now();
                let eng = RankEngine::new(comm, &block, partition, cfg);
                let secs = t.elapsed().as_secs_f64();
                drop(block);
                let mut rank = Rank {
                    eng,
                    log: SpanLog::default(),
                    inputs,
                    probe: None,
                };
                let rows = rank.rows();
                rank.eng.x_local_mut().copy_from_slice(&inputs.x[rows]);
                let _ = rtx.send((r, Ok(vec![secs])));
                for job in jobs {
                    let out = job(&mut rank);
                    if rtx.send((r, out)).is_err() {
                        break;
                    }
                }
                rank.log
            }));
        }
        let mut world = Self {
            kind,
            setup_s: 0.0,
            txs,
            rx,
            handles,
        };
        world.setup_s = world
            .collect()
            .into_iter()
            .map(|o| o.expect("construction reports its time")[0])
            .fold(0.0, f64::max);
        world
    }

    /// Runs `job` on every rank; results in rank order.
    pub fn run(&self, job: Job<'env>) -> Vec<Out> {
        for tx in &self.txs {
            tx.send(Arc::clone(&job)).expect("rank thread alive");
        }
        self.collect()
    }

    fn collect(&self) -> Vec<Out> {
        let mut outs: Vec<Option<Out>> = (0..self.txs.len()).map(|_| None).collect();
        let t = Instant::now();
        let mut got = 0;
        while got < self.txs.len() {
            match self.rx.recv_timeout(Duration::from_millis(200)) {
                Ok((r, out)) => {
                    outs[r] = Some(out);
                    got += 1;
                }
                Err(_)
                    if self.handles.iter().any(|h| h.is_finished())
                        || t.elapsed() > REPLY_TIMEOUT =>
                {
                    // a rank died (its peers now wait in a collective
                    // forever) or hangs: nothing is left to measure, and
                    // joining would block
                    eprintln!("world {}: a rank died or hangs", self.kind.name());
                    std::process::exit(3);
                }
                Err(_) => {}
            }
        }
        outs.into_iter()
            .map(|o| o.expect("one reply per rank"))
            .collect()
    }

    /// Stops the rank threads and returns their span logs.
    pub fn finish(self) -> Vec<SpanLog> {
        drop(self.txs);
        self.handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    }
}
