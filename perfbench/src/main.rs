//! End-to-end and per-layer benchmark of the hybrid SpMV engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hmep_small|hmep_medium|samg_cg --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times every configuration, interleaved batch by batch in a
//! seed-chosen order, and prints the end-to-end metrics. `--trace 1` runs
//! each layer's probes and a traced repeat of the workload and prints the
//! per-layer metrics. Every batch's output is checked against the serial
//! reference; the last line of standard output is one JSON object. See
//! `perfbench/README.md` for the workloads, metrics and layer table.

mod host;
mod solver;
mod spans;
mod stats;
mod world;

use solver::{check_history, iteration_times, Solver, Stamped, Target, TracedOp, TracedOps};
use spans::{covered, SpanLog};
use spmv_bench::{hmep, samg, Scale};
use spmv_comm::collectives::ReduceOp;
use spmv_core::{prepare_kernel, KernelMode, SplitMatrix};
use spmv_matrix::rng::Rng64;
use spmv_matrix::{vecops, CsrMatrix};
use spmv_obs::clock::now_secs;
use spmv_smp::ThreadTeam;
use spmv_solvers::{DistOp, DistOps, SerialOp, SerialOps};
use stats::{median, slowest_rank};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use world::{check_result, Cfg, Inputs, Job, Out, Rank, World, WorldKind};

/// Target length of one timed batch of in-place SpMVs.
const BATCH_TARGET_S: f64 = 0.02;
/// Solver iterations per solver batch.
const SOLVER_STEPS: usize = 10;
/// Engine constructions per world: at least the first, more while the
/// set-up phase has used less than the second; `setup_s` sums the
/// per-world medians.
const SETUP_REPS: (usize, usize) = (3, 15);
const SETUP_BUDGET_S: f64 = 2.0;
/// Samples per configuration in each phase of the traced-versus-untraced
/// comparison (bounds the span file).
const TRACE_SAMPLES: usize = 40;
/// The comparison's SpMV batches are this many times shorter than the
/// end-to-end ones, so its samples stay many and its spans few.
const TRACE_BATCH_DIV: usize = 20;
/// Untraced / traced phase pairs of a `--trace 1` run.
const PHASE_PAIRS: usize = 2;
/// Iterations of each communication / team micro-probe.
const PROBE_ITERS: usize = 200;
/// Tag of the ping-pong probe (the engine uses 17–19 and 1024 + node).
const TAG_PINGPONG: spmv_comm::Tag = 4242;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    HmepSmall,
    HmepMedium,
    SamgCg,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        [Workload::HmepSmall, Workload::HmepMedium, Workload::SamgCg]
            .into_iter()
            .find(|w| w.name() == s)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::HmepSmall => "hmep_small",
            Workload::HmepMedium => "hmep_medium",
            Workload::SamgCg => "samg_cg",
        }
    }

    fn matrix(self) -> CsrMatrix {
        match self {
            Workload::HmepSmall => hmep(Scale::Test),
            Workload::HmepMedium => hmep(Scale::Medium),
            Workload::SamgCg => samg(Scale::Medium),
        }
    }

    /// The solver of the workload's application: Lanczos for the HMeP
    /// Hamiltonians (indefinite, so CG breaks down on them), CG for the
    /// sAMG Poisson matrix.
    fn solver(self) -> Solver {
        match self {
            Workload::SamgCg => Solver::Cg,
            _ => Solver::Lanczos,
        }
    }

    /// Whether the end-to-end operation is a solver iteration (else one
    /// in-place SpMV).
    fn op_is_solver(self) -> bool {
        self == Workload::SamgCg
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        args.windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].as_str())
            .ok_or(format!("missing {name} <value>"))
    };
    let workload = get("--workload")?;
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} wants a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload '{workload}'"))?,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: match num("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace wants 0 or 1".into()),
        },
    })
}

/// Operation id: a sequence number with the configuration in its low bits
/// (`op % 8` indexes `Cfg::ALL`), so spans of every world map back to
/// their configuration.
fn op_id(seq: u64, cfg: Cfg) -> u64 {
    seq * 8 + Cfg::ALL.iter().position(|&c| c == cfg).expect("listed") as u64
}

fn cfg_of(op: u64) -> Cfg {
    Cfg::ALL[(op % 8) as usize]
}

/// The benchmark's state while worlds are alive.
struct Bench<'s, 'e> {
    wl: Workload,
    inputs: &'e Inputs,
    solver_ref: &'e [f64],
    cfgs: Vec<Cfg>,
    worlds: Vec<World<'s, 'e>>,
    rng: Rng64,
    calls: BTreeMap<Cfg, usize>,
    attempted: u64,
    failed: u64,
    seq: u64,
    serial_log: SpanLog,
    serial_y: Vec<f64>,
    /// Divides the SpMV batch length (1 except in the trace comparison).
    batch_div: usize,
}

impl<'s, 'e> Bench<'s, 'e> {
    fn world(&self, kind: WorldKind) -> &World<'s, 'e> {
        self.worlds
            .iter()
            .find(|w| w.kind == kind)
            .expect("world of an admitted configuration")
    }

    /// Runs `job` on the configuration's world; counts the operation and
    /// returns the per-rank numbers, or `None` after counting a failure.
    fn run(&mut self, cfg: Cfg, what: &str, job: Job<'e>) -> Option<Vec<Vec<f64>>> {
        let kind = cfg.world().expect("engine configuration");
        let outs = self.world(kind).run(job);
        self.tally(cfg, what, outs.into_iter().collect())
    }

    fn tally(
        &mut self,
        cfg: Cfg,
        what: &str,
        out: Result<Vec<Vec<f64>>, String>,
    ) -> Option<Vec<Vec<f64>>> {
        self.attempted += 1;
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                println!("FAILED {} {what}: {e}", cfg.name());
                None
            }
        }
    }

    fn next_op(&mut self, cfg: Cfg) -> u64 {
        self.seq += 1;
        op_id(self.seq, cfg)
    }

    /// Configurations in this round's seed-chosen order.
    fn round_order(&mut self) -> Vec<Cfg> {
        let mut order = self.cfgs.clone();
        self.rng.shuffle(&mut order);
        order
    }

    /// One batch of `n` in-place SpMVs. Returns seconds per SpMV of the
    /// slowest rank. Traced batches wrap each call in a span and adopt the
    /// engine's own spans under it.
    fn spmv_batch(&mut self, cfg: Cfg, n: usize, traced: bool) -> Option<f64> {
        let op0 = self.next_op(cfg);
        self.seq += n as u64;
        if cfg == Cfg::Serial {
            let inputs = self.inputs;
            let (m, x) = (&inputs.matrix, &inputs.x);
            let t = Instant::now();
            for i in 0..n as u64 {
                let s = traced.then(|| self.serial_log.open(op0 + 8 * i, "matrix.spmv", 0, None));
                m.spmv(x, &mut self.serial_y);
                if let Some(s) = s {
                    self.serial_log.close(s);
                }
            }
            let secs = t.elapsed().as_secs_f64() / n as f64;
            let ok = check_result(&self.serial_y, &self.inputs.y_ref, true);
            return self
                .tally(cfg, "spmv", ok.map(|()| vec![vec![secs]]))
                .map(|v| v[0][0]);
        }
        let (mode, bitwise) = (cfg.mode(), cfg.bitwise());
        let job: Job<'e> = Arc::new(move |rank: &mut Rank<'e>| {
            let r = rank.eng.comm().rank();
            // a solver batch leaves its own vector in the engine
            let rows = rank.rows();
            rank.eng.x_local_mut().copy_from_slice(&rank.inputs.x[rows]);
            rank.eng.comm().barrier();
            let t = Instant::now();
            for i in 0..n as u64 {
                let s = traced.then(|| rank.log.open(op0 + 8 * i, "core.spmv", r, None));
                rank.eng
                    .spmv_checked(mode)
                    .map_err(|e| format!("rank {r}: {e}"))?;
                if let Some(s) = s {
                    rank.log.close(s);
                }
            }
            let secs = t.elapsed().as_secs_f64() / n as f64;
            if traced {
                rank.adopt_engine_spans(op0);
            }
            rank.check_y(bitwise)
                .map_err(|e| format!("rank {r}: {e}"))?;
            Ok(vec![secs])
        });
        let v = self.run(cfg, "spmv", job)?;
        Some(slowest_rank(&v)[0])
    }

    /// One solver run of [`SOLVER_STEPS`] iterations; returns the slowest
    /// rank's time of each iteration.
    fn solver_batch(&mut self, cfg: Cfg, traced: bool) -> Option<Vec<f64>> {
        let solver = self.wl.solver();
        let op = self.next_op(cfg);
        let (inputs, h_ref) = (self.inputs, self.solver_ref);
        let first = solver.first_iter_apply();
        if cfg == Cfg::Serial {
            let m = &inputs.matrix;
            let out = if traced {
                let log = RefCell::new(std::mem::take(&mut self.serial_log));
                let root = log.borrow_mut().open(op, "solver.run", 0, None);
                let mut sop = TracedOp::new(Target::Serial(m), &log, op, 0, root);
                let h = solver.run(
                    &mut sop,
                    &TracedOps::new(None, &log, op, 0, root),
                    &inputs.x,
                    SOLVER_STEPS,
                );
                log.borrow_mut().close(root);
                let end = log.borrow().spans()[root].t1;
                let starts = std::mem::take(&mut sop.starts);
                drop(sop);
                self.serial_log = log.into_inner();
                (h, starts, end)
            } else {
                let mut sop = Stamped::new(SerialOp::new(m));
                let h = solver.run(&mut sop, &SerialOps, &inputs.x, SOLVER_STEPS);
                (h, sop.starts, now_secs())
            };
            let (h, starts, end) = out;
            let res = check_history(&h, h_ref).map(|()| vec![iteration_times(&starts, first, end)]);
            return self.tally(cfg, solver.name(), res).map(|mut v| v.remove(0));
        }
        let mode = cfg.mode();
        let job: Job<'e> = Arc::new(move |rank: &mut Rank<'e>| {
            let comm = rank.eng.comm().clone();
            let r = comm.rank();
            let rhs = inputs.x[rank.rows()].to_vec();
            comm.barrier();
            let (h, starts, end, err) = if traced {
                let log = RefCell::new(std::mem::take(&mut rank.log));
                let root = log.borrow_mut().open(op, "solver.run", r, None);
                let ops = TracedOps::new(Some(&comm), &log, op, r, root);
                let mut top = TracedOp::new(Target::Engine(&mut rank.eng, mode), &log, op, r, root);
                let h = solver.run(&mut top, &ops, &rhs, SOLVER_STEPS);
                log.borrow_mut().close(root);
                let end = log.borrow().spans()[root].t1;
                let (starts, err) = (std::mem::take(&mut top.starts), top.err.take());
                drop(top);
                rank.log = log.into_inner();
                rank.adopt_engine_spans(op);
                (h, starts, end, err)
            } else {
                let mut sop = Stamped::new(DistOp::new(&mut rank.eng, mode));
                let h = solver.run(&mut sop, &DistOps { comm: &comm }, &rhs, SOLVER_STEPS);
                (h, sop.starts, now_secs(), sop.err)
            };
            if let Some(e) = err {
                return Err(format!("rank {r}: {e}"));
            }
            check_history(&h, h_ref).map_err(|e| format!("rank {r}: {e}"))?;
            Ok(iteration_times(&starts, first, end))
        });
        let per_rank = self.run(cfg, solver.name(), job)?;
        Some(slowest_rank(&per_rank))
    }

    /// One end-to-end operation batch: samples in seconds per operation.
    fn op_batch(&mut self, cfg: Cfg, traced: bool) -> Option<Vec<f64>> {
        if self.wl.op_is_solver() {
            self.solver_batch(cfg, traced)
        } else {
            let n = self.calls[&cfg].div_ceil(self.batch_div);
            self.spmv_batch(cfg, n, traced).map(|s| vec![s])
        }
    }

    /// Warms every configuration up (pages in matrices, wakes teams) and
    /// sizes its SpMV batches to about [`BATCH_TARGET_S`].
    fn warm_up(&mut self) {
        for cfg in self.cfgs.clone() {
            let per_call = self.spmv_batch(cfg, 1, false).unwrap_or(1.0);
            let n = (BATCH_TARGET_S / per_call.max(1e-9))
                .ceil()
                .clamp(1.0, 10_000.0) as usize;
            self.calls.insert(cfg, n);
            self.spmv_batch(cfg, n, false);
        }
    }

    /// Interleaved rounds of end-to-end batches until `seconds` pass (at
    /// least two rounds) or every configuration has `cap` samples.
    fn rounds(
        &mut self,
        seconds: f64,
        traced: bool,
        cap: Option<usize>,
    ) -> BTreeMap<Cfg, Vec<f64>> {
        let mut samples: BTreeMap<Cfg, Vec<f64>> = BTreeMap::new();
        let t = Instant::now();
        let mut round = 0;
        while round < 2 || t.elapsed().as_secs_f64() < seconds {
            let mut ran = false;
            for cfg in self.round_order() {
                if cap.is_some_and(|c| samples.get(&cfg).map_or(0, Vec::len) >= c) {
                    continue;
                }
                ran = true;
                if let Some(s) = self.op_batch(cfg, traced) {
                    samples.entry(cfg).or_default().extend(s);
                }
            }
            if !ran {
                break;
            }
            round += 1;
        }
        samples
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload hmep_small|hmep_medium|samg_cg --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let wl = args.workload;
    let nproc = host::nproc();
    let llc = host::llc_bytes();
    println!(
        "workload {} seed {} seconds {} trace {}",
        wl.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "host: nproc {nproc}, reported LLC {}, kernel {}, build {}",
        llc.map_or("unknown".into(), |b| format!("{} MiB", b >> 20)),
        WorldKind::Hybrid.config(false).kernel,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );

    // ---- inputs: the matrix is fixed, the seed draws x --------------------
    let matrix = wl.matrix();
    let n = matrix.nrows();
    let x = vecops::random_vec(n, args.seed);
    let mut y_ref = vec![0.0; n];
    matrix.spmv(&x, &mut y_ref);
    println!(
        "matrix: {} rows, {} nnz, N_nzr {:.2}, CSR {:.1} MB",
        n,
        matrix.nnz(),
        matrix.avg_nnz_per_row(),
        matrix.storage_bytes() as f64 / 1e6
    );
    let partitions = [
        spmv_core::RowPartition::by_nnz(&matrix, 1),
        spmv_core::RowPartition::by_nnz(&matrix, 2),
    ];
    let inputs = Inputs {
        matrix,
        partitions,
        x,
        y_ref,
    };
    let solver_ref = if wl.op_is_solver() || args.trace {
        let mut op = SerialOp::new(&inputs.matrix);
        wl.solver()
            .run(&mut op, &SerialOps, &inputs.x, SOLVER_STEPS)
    } else {
        Vec::new()
    };

    // ---- thread-budget guard ---------------------------------------------
    let mut cfgs = Vec::new();
    for cfg in Cfg::ALL {
        let busy = cfg.busy_threads();
        if busy > nproc {
            println!(
                "REFUSED {}: {busy} busy threads > nproc {nproc}",
                cfg.name()
            );
        } else {
            println!("config {}: {busy} busy thread(s)", cfg.name());
            cfgs.push(cfg);
        }
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (attempted, failed) = std::thread::scope(|scope| {
        let kinds: Vec<WorldKind> = WorldKind::ALL
            .into_iter()
            .filter(|k| cfgs.iter().any(|c| c.world() == Some(*k)))
            .collect();
        let mut bench = Bench {
            wl,
            inputs: &inputs,
            solver_ref: &solver_ref,
            cfgs: cfgs.clone(),
            worlds: Vec::new(),
            rng: Rng64::new(args.seed ^ 0x5eed_0fde_c0de),
            calls: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            seq: 0,
            serial_log: SpanLog::default(),
            serial_y: vec![0.0; n],
            batch_div: 1,
        };
        if args.trace {
            per_layer(
                &mut bench,
                scope,
                &kinds,
                args.seconds,
                args.seed,
                &mut metrics,
            );
        } else {
            end_to_end(&mut bench, scope, &kinds, args.seconds, &mut metrics);
        }
        (bench.attempted, bench.failed)
    });

    // host fingerprint, after peak memory was read
    let big = host::out_of_cache_mib(llc);
    let mut triad = Vec::new();
    for (mib, label) in [(host::IN_CACHE_MIB, "in-cache"), (big, "out-of-cache")] {
        for t in 1..=nproc.min(2) {
            let g = host::triad_gbs(t, mib, 2);
            println!("host: STREAM triad {t}t {label} ({mib} MiB total) {g:.2} GB/s");
            triad.push((t, mib, g));
        }
    }
    if args.trace {
        for &(t, mib, g) in &triad {
            if mib == big {
                metrics.push((format!("host.stream_triad_gbs.{t}t"), g, "GB/s"));
            }
        }
    }

    println!(
        "failed_ratio {} ({failed} failed / {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// JSON has no NaN / infinity; a metric that could not be measured is null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Builds every world between `reps.0` and `reps.1` times (keeping the
/// last) and returns the sum over worlds of the median construction time.
fn build_worlds<'s, 'e>(
    bench: &mut Bench<'s, 'e>,
    scope: &'s std::thread::Scope<'s, 'e>,
    kinds: &[WorldKind],
    reps: (usize, usize),
    tracing: bool,
) -> f64 {
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let t = Instant::now();
    let mut rep = 0;
    loop {
        rep += 1;
        let last = rep >= reps.1 || (rep >= reps.0 && t.elapsed().as_secs_f64() >= SETUP_BUDGET_S);
        // earlier repetitions build one world at a time in a seed-drawn
        // order; the kept set is built in a fixed order, so the memory
        // peak (all worlds alive) does not depend on the seed
        let mut order = kinds.to_vec();
        if !last {
            bench.rng.shuffle(&mut order);
        }
        for kind in order {
            let w = World::spawn(scope, kind, tracing, bench.inputs);
            times.entry(kind.name()).or_default().push(w.setup_s);
            if last {
                bench.worlds.push(w);
            } else {
                w.finish();
            }
        }
        if last {
            break;
        }
    }
    let tr = if tracing { " (engine tracing on)" } else { "" };
    for (k, t) in &times {
        println!(
            "setup: world {k}{tr} engine construction {}",
            stats::summary(t, 1.0, "s")
        );
    }
    times.values().map(|t| median(t)).sum()
}

fn end_to_end<'s, 'e>(
    bench: &mut Bench<'s, 'e>,
    scope: &'s std::thread::Scope<'s, 'e>,
    kinds: &[WorldKind],
    seconds: f64,
    metrics: &mut Vec<(String, f64, &str)>,
) {
    let setup_s = build_worlds(bench, scope, kinds, SETUP_REPS, false);
    bench.warm_up();
    let samples = bench.rounds(seconds, false, None);
    let rss = host::peak_rss_mb();
    for w in std::mem::take(&mut bench.worlds) {
        w.finish();
    }
    let what = if bench.wl.op_is_solver() {
        "cg_iter_us"
    } else {
        "spmv_us"
    };
    for (cfg, s) in &samples {
        println!(
            "op_us.{} ({what}): {}",
            cfg.name(),
            stats::summary(s, 1e6, "us")
        );
        metrics.push((format!("op_us.{}", cfg.name()), median(s) * 1e6, "us"));
    }
    println!("setup_s: {setup_s:.4} s (engine construction, summed over worlds)");
    println!("peak_rss_mb: {rss:.1} MB");
    metrics.push(("setup_s".into(), setup_s, "s"));
    metrics.push(("peak_rss_mb".into(), rss, "MB"));
}

fn per_layer<'s, 'e>(
    bench: &mut Bench<'s, 'e>,
    scope: &'s std::thread::Scope<'s, 'e>,
    kinds: &[WorldKind],
    seconds: f64,
    seed: u64,
    metrics: &mut Vec<(String, f64, &str)>,
) {
    let inputs = bench.inputs;
    let mut m = |k: &str, v: f64, u: &'static str| metrics.push((k.to_string(), v, u));

    // ---- setup layers ------------------------------------------------------
    let engine_s = build_worlds(bench, scope, kinds, (1, 1), false);
    m("setup.engine_s", engine_s, "s");
    let spawn: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let team = ThreadTeam::new(2);
            let s = t.elapsed().as_secs_f64();
            drop(team);
            s
        })
        .collect();
    m("setup.team_spawn_s", median(&spawn), "s");
    let two = bench.cfgs.contains(&Cfg::Mpi2x1);
    if two {
        let job: Job<'e> = Arc::new(|rank: &mut Rank<'e>| {
            let part = rank.inputs.partition(2);
            let block = rank.inputs.matrix.row_block(rank.rows());
            let t = Instant::now();
            let plan = spmv_core::plan::build_plan_distributed(rank.eng.comm(), &block, part);
            let plan_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let split = SplitMatrix::build(&block, &plan);
            let split_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let kind = rank.eng.kernel_kind();
            let k =
                [&split.full, &split.local, &split.nonlocal].map(|mat| prepare_kernel(kind, mat));
            let prep_s = t.elapsed().as_secs_f64();
            drop(k);
            Ok(vec![plan_s, split_s, prep_s])
        });
        if let Some(v) = bench.run(Cfg::Mpi2x1, "setup probe", job) {
            let s = slowest_rank(&v);
            m("setup.plan_s", s[0], "s");
            m("setup.split_s", s[1], "s");
            m("setup.kernel_prep_s", s[2], "s");
        }
        // exact per-SpMV traffic and gather shape
        let job: Job<'e> = Arc::new(|rank: &mut Rank<'e>| {
            let (res, d) = rank
                .eng
                .phase_delta(|e| e.spmv_checked(KernelMode::VectorNoOverlap));
            res.map_err(|e| e.to_string())?;
            let g = rank.eng.gather_program();
            Ok(vec![
                d.messages as f64,
                d.bytes as f64,
                g.total_elems() as f64,
                g.runs().len() as f64,
            ])
        });
        if let Some(v) = bench.run(Cfg::Mpi2x1, "traffic probe", job) {
            m("comm.msgs_per_spmv", v[0][0], "count");
            m("comm.bytes_per_spmv", v[0][1], "B");
            m("core.gather_elems", v.iter().map(|r| r[2]).sum(), "count");
            m("core.gather_runs", v.iter().map(|r| r[3]).sum(), "count");
        }
    }

    // ---- untraced rounds with the layer probes, and traced rounds on
    // fresh engines with their own spans on, alternated so that both see
    // the same host conditions -------------------------------------------
    let team = ThreadTeam::new(2);
    let mut kernel: BTreeMap<Cfg, Vec<[f64; 3]>> = BTreeMap::new();
    let mut engine: BTreeMap<Cfg, Vec<f64>> = BTreeMap::new();
    let mut probes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut probe_round = |b: &mut Bench<'s, 'e>| {
        for cfg in b.round_order() {
            if cfg == Cfg::Serial {
                continue;
            }
            // engine SpMVs and the bare kernel on the same rows and
            // threads, back to back, so their difference sees one host state
            let (split, n) = (cfg.mode().uses_split_kernel(), b.calls[&cfg]);
            if let Some(s) = b.spmv_batch(cfg, n, false) {
                engine.entry(cfg).or_default().push(s);
            }
            let job: Job<'e> =
                Arc::new(move |rank: &mut Rank<'e>| Ok(rank.kernel_probe(split, n).to_vec()));
            if let Some(v) = b.run(cfg, "kernel probe", job) {
                let s = slowest_rank(&v);
                kernel.entry(cfg).or_default().push([s[0], s[1], s[2]]);
            }
        }
        // team dispatch and barrier
        let t = Instant::now();
        for _ in 0..PROBE_ITERS {
            team.run(|_| {});
        }
        let region = t.elapsed().as_secs_f64() / PROBE_ITERS as f64;
        let t = Instant::now();
        team.run(|ctx| {
            for _ in 0..PROBE_ITERS {
                ctx.barrier();
            }
        });
        let barrier = ((t.elapsed().as_secs_f64() - region) / PROBE_ITERS as f64).max(0.0);
        probes.entry("team.region").or_default().push(region);
        probes.entry("team.barrier").or_default().push(barrier);
        if b.cfgs.contains(&Cfg::Mpi2x1) {
            if let Some(v) = b.run(Cfg::Mpi2x1, "layer probes", Arc::new(comm_probes)) {
                let s = slowest_rank(&v);
                let hmin = v.iter().map(|r| r[1]).fold(f64::MAX, f64::min);
                for (name, val) in [
                    ("core.gather", s[0]),
                    ("core.halo.min", hmin),
                    ("core.halo.max", s[1]),
                    ("comm.pingpong", s[2]),
                    ("comm.barrier", s[3]),
                    ("comm.allreduce", s[4]),
                ] {
                    probes.entry(name).or_default().push(val);
                }
            }
        }
    };
    let merge = |all: &mut BTreeMap<Cfg, Vec<f64>>, part: BTreeMap<Cfg, Vec<f64>>| {
        for (cfg, s) in part {
            all.entry(cfg).or_default().extend(s);
        }
    };
    // per pair: untraced comparison, probes, traced comparison
    let share = seconds / (3 * PHASE_PAIRS) as f64;
    let mut untraced: BTreeMap<Cfg, Vec<f64>> = BTreeMap::new();
    let mut traced: BTreeMap<Cfg, Vec<f64>> = BTreeMap::new();
    let mut log = SpanLog::default();
    for pair in 0..PHASE_PAIRS {
        if pair > 0 {
            build_worlds(bench, scope, kinds, (1, 1), false);
        }
        bench.warm_up();
        bench.batch_div = TRACE_BATCH_DIV;
        let part = bench.rounds(share, false, Some(TRACE_SAMPLES));
        merge(&mut untraced, part);
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < share {
            probe_round(bench);
        }
        for w in std::mem::take(&mut bench.worlds) {
            w.finish();
        }

        build_worlds(bench, scope, kinds, (1, 1), true);
        bench.warm_up();
        // drop the warm-up's engine spans
        for w in &bench.worlds {
            let job: Job<'e> = Arc::new(|rank: &mut Rank<'e>| {
                let _ = rank.eng.take_trace();
                Ok(vec![])
            });
            w.run(job);
        }
        let part = bench.rounds(share, true, Some(TRACE_SAMPLES));
        merge(&mut traced, part);
        bench.batch_div = 1;
        if pair + 1 == PHASE_PAIRS && !bench.wl.op_is_solver() {
            for cfg in bench.cfgs.clone() {
                bench.solver_batch(cfg, true);
            }
        }
        log.extend(std::mem::take(&mut bench.serial_log));
        for w in std::mem::take(&mut bench.worlds) {
            for l in w.finish() {
                log.extend(l);
            }
        }
    }
    drop(team);

    m("team.region_us", median(&probes["team.region"]) * 1e6, "us");
    m(
        "team.barrier_us",
        median(&probes["team.barrier"]) * 1e6,
        "us",
    );
    let kmed = |cfg: Cfg, i: usize| {
        median(
            &kernel
                .get(&cfg)
                .map_or(vec![], |v| v.iter().map(|k| k[i]).collect::<Vec<_>>()),
        )
    };
    if two {
        for (name, key) in [
            ("core.gather_us", "core.gather"),
            ("core.halo_exchange_us.min", "core.halo.min"),
            ("core.halo_exchange_us.max", "core.halo.max"),
            ("comm.pingpong_us", "comm.pingpong"),
            ("comm.barrier_us", "comm.barrier"),
            ("comm.allreduce_us", "comm.allreduce"),
        ] {
            m(name, median(&probes[key]) * 1e6, "us");
        }
        let full = kmed(Cfg::Mpi2x1, 0);
        let nnz = inputs.matrix.nnz() as f64;
        let balance = spmv_model::balance::code_balance_crs(inputs.matrix.avg_nnz_per_row(), 0.0);
        let gflops = 2.0 * nnz / full / 1e9;
        m("kernel.full_us", full * 1e6, "us");
        m("kernel.local_us", kmed(Cfg::Naive2x1, 1) * 1e6, "us");
        m("kernel.nonlocal_us", kmed(Cfg::Naive2x1, 2) * 1e6, "us");
        m("kernel.gflops", gflops, "GFlop/s");
        m("kernel.gbs_computed", gflops * balance, "GB/s");
        m("kernel.flops_per_byte_computed", 1.0 / balance, "flop/B");
    }
    for (cfg, s) in &engine {
        m(
            &format!("core.overhead_us.{}", cfg.name()),
            (median(s) - kmed(*cfg, 0)) * 1e6,
            "us",
        );
    }
    let untraced_med: BTreeMap<Cfg, f64> = untraced.iter().map(|(c, s)| (*c, median(s))).collect();

    let mut ratios = Vec::new();
    for (cfg, s) in &traced {
        if let Some(&u) = untraced_med.get(cfg) {
            let pct = (median(s) / u - 1.0) * 100.0;
            println!(
                "trace: {} untraced {:.3} us, traced {:.3} us, overhead {pct:+.2}%",
                cfg.name(),
                u * 1e6,
                median(s) * 1e6
            );
            if *cfg != Cfg::Serial {
                ratios.push(pct);
            }
        }
    }
    m("trace.overhead_pct", median(&ratios), "%");
    attribution(&log, &mut m);
    solver_layers(&log, bench.wl.solver(), &mut m);
    if let (Solver::Cg, Some(r)) = (bench.wl.solver(), bench.solver_ref.last()) {
        println!("trace: cg relative residual after {SOLVER_STEPS} iterations {r:e} (every configuration matched it)");
    }

    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", bench.wl.name()));
    match std::fs::create_dir_all(dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        log.write_jsonl(&mut f)?;
        std::io::Write::flush(&mut f)
    }) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            log.spans().len(),
            path.display()
        ),
        Err(e) => println!("trace: spans not written ({e})"),
    }
}

/// Gather, halo exchange, ping-pong, barrier and allreduce on the
/// two-rank world. Seconds per call: `[gather, halo_exchange, one-way
/// ping-pong at the plan's message size, barrier, allreduce]`.
fn comm_probes(rank: &mut Rank<'_>) -> Out {
    let r = rank.eng.comm().rank();
    let err = |e: spmv_comm::CommError| format!("rank {r}: {e}");
    let prog = rank.eng.gather_program();
    let mut buf = vec![0.0; prog.total_elems()];
    let t = Instant::now();
    for _ in 0..PROBE_ITERS {
        prog.execute(rank.eng.x_local(), &mut buf);
    }
    let gather = t.elapsed().as_secs_f64() / PROBE_ITERS as f64;

    rank.eng.comm().barrier();
    let t = Instant::now();
    for _ in 0..PROBE_ITERS {
        rank.eng.halo_exchange_checked().map_err(err)?;
    }
    let halo = t.elapsed().as_secs_f64() / PROBE_ITERS as f64;

    let comm = rank.eng.comm();
    // the plan's message size: both directions use the larger of the two
    let mine = rank
        .eng
        .plan()
        .send
        .first()
        .map_or(1, |s| s.indices.len().max(1));
    let len = comm.allreduce_scalar(mine as f64, ReduceOp::Max) as usize;
    let out = vec![1.0f64; len];
    let mut inb = vec![0.0f64; len];
    let peer = 1 - r;
    comm.barrier();
    let t = Instant::now();
    for _ in 0..PROBE_ITERS {
        if r == 0 {
            comm.waitall([comm.isend_ref(peer, TAG_PINGPONG, &out)]);
            comm.waitall([comm.irecv(peer, TAG_PINGPONG, &mut inb)]);
        } else {
            comm.waitall([comm.irecv(peer, TAG_PINGPONG, &mut inb)]);
            comm.waitall([comm.isend_ref(peer, TAG_PINGPONG, &out)]);
        }
    }
    let pingpong = t.elapsed().as_secs_f64() / (2 * PROBE_ITERS) as f64;

    comm.barrier();
    let t = Instant::now();
    for _ in 0..PROBE_ITERS {
        comm.barrier();
    }
    let barrier = t.elapsed().as_secs_f64() / PROBE_ITERS as f64;
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..PROBE_ITERS {
        acc += comm.allreduce_scalar(1.0, ReduceOp::Sum);
    }
    let allreduce = t.elapsed().as_secs_f64() / PROBE_ITERS as f64;
    if acc != (2 * PROBE_ITERS) as f64 {
        return Err(format!("rank {r}: allreduce summed to {acc}"));
    }
    Ok(vec![gather, halo, pingpong, barrier, allreduce])
}

/// Layer of an engine span, for the attribution table.
fn layer_of(name: &str) -> Option<&'static str> {
    match name {
        "engine.spmv_full" | "engine.spmv_local" | "engine.spmv_nonlocal" => Some("kernel"),
        "engine.post_recvs" | "engine.send" | "engine.waitall" => Some("comm"),
        "engine.gather" => Some("gather"),
        "engine.barrier" => Some("barrier"),
        _ => None,
    }
}

/// Share of the engine's `spmv` time that each layer's spans cover, and
/// the unattributed remainder (the `core.spmv` span's self time), per
/// configuration.
fn attribution(log: &SpanLog, m: &mut impl FnMut(&str, f64, &'static str)) {
    let children = log.children();
    let layers = ["kernel", "comm", "gather", "barrier"];
    let mut acc: BTreeMap<Cfg, (f64, [f64; 4], f64, usize)> = BTreeMap::new();
    for (i, s) in log.spans().iter().enumerate() {
        if s.name != "core.spmv" {
            continue;
        }
        let e = acc.entry(cfg_of(s.op)).or_insert((0.0, [0.0; 4], 0.0, 0));
        e.0 += s.duration();
        for (l, slot) in layers.iter().zip(e.1.iter_mut()) {
            let iv = children[i]
                .iter()
                .map(|&c| &log.spans()[c])
                .filter(|c| layer_of(c.name) == Some(*l))
                .map(|c| (c.t0, c.t1));
            *slot += covered(s.t0, s.t1, iv);
        }
        e.2 += log.self_time(i, &children);
        e.3 += 1;
    }
    println!("trace: share of engine spmv time covered by each layer's spans (can overlap across threads)");
    for (cfg, (total, cov, unattr, count)) in &acc {
        let pct = |v: f64| 100.0 * v / total;
        println!(
            "trace:   {:<11} {:>7.2} us/spmv over {count} spans: kernel {:.1}%, comm {:.1}%, gather {:.1}%, barrier {:.1}%, unattributed {:.1}%",
            cfg.name(),
            total / *count as f64 * 1e6,
            pct(cov[0]),
            pct(cov[1]),
            pct(cov[2]),
            pct(cov[3]),
            pct(*unattr)
        );
        m(
            &format!("trace.kernel_share_pct.{}", cfg.name()),
            pct(cov[0]),
            "%",
        );
        m(
            &format!("trace.comm_share_pct.{}", cfg.name()),
            pct(cov[1]),
            "%",
        );
        m(
            &format!("trace.unattributed_pct.{}", cfg.name()),
            pct(*unattr),
            "%",
        );
    }
}

/// Splits each traced solver iteration into SpMV, apply copies,
/// reductions and the vector updates left over.
fn solver_layers(log: &SpanLog, solver: Solver, m: &mut impl FnMut(&str, f64, &'static str)) {
    let children = log.children();
    let spans = log.spans();
    #[derive(Default)]
    struct Acc {
        iters: f64,
        window: f64,
        apply: f64,
        spmv: f64,
        reduce: f64,
        reductions: f64,
    }
    let mut acc: BTreeMap<Cfg, Acc> = BTreeMap::new();
    for (i, run) in spans.iter().enumerate() {
        if run.name != "solver.run" {
            continue;
        }
        let kids: Vec<_> = children[i].iter().map(|&c| (c, &spans[c])).collect();
        let applies: Vec<_> = kids
            .iter()
            .filter(|(_, s)| s.name == "solver.apply")
            .collect();
        let Some((_, first)) = applies.get(solver.first_iter_apply()) else {
            continue;
        };
        let start = first.t0;
        let a = acc.entry(cfg_of(run.op)).or_default();
        a.window += run.t1 - start;
        for (c, s) in kids.iter().filter(|(_, s)| s.t0 >= start) {
            match s.name {
                "solver.apply" => {
                    a.iters += 1.0;
                    a.apply += s.duration();
                    a.spmv += children[*c]
                        .iter()
                        .map(|&g| &spans[g])
                        .filter(|g| g.name == "core.spmv" || g.name == "matrix.spmv")
                        .map(|g| g.duration())
                        .sum::<f64>();
                }
                "solver.reduce" => {
                    a.reduce += s.duration();
                    a.reductions += 1.0;
                }
                _ => {}
            }
        }
    }
    let mut reductions = Vec::new();
    for (cfg, a) in &acc {
        let k = a.iters;
        let us = |v: f64| v / k * 1e6;
        let vec = a.window - a.apply - a.reduce;
        println!(
            "trace: {} {} iteration {:.3} us = spmv {:.3} + apply copies {:.3} + reductions {:.3} + vector updates {:.3}",
            solver.name(),
            cfg.name(),
            us(a.window),
            us(a.spmv),
            us(a.apply - a.spmv),
            us(a.reduce),
            us(vec)
        );
        m(&format!("solver.spmv_us.{}", cfg.name()), us(a.spmv), "us");
        m(
            &format!("solver.reduce_us.{}", cfg.name()),
            us(a.reduce),
            "us",
        );
        m(&format!("solver.vec_us.{}", cfg.name()), us(vec), "us");
        if *cfg != Cfg::Serial {
            m(
                &format!("core.apply_copy_us.{}", cfg.name()),
                us(a.apply - a.spmv),
                "us",
            );
        }
        reductions.push(a.reductions / k);
    }
    m("solver.reductions_per_iter", median(&reductions), "count");
    m("solver.iterations", SOLVER_STEPS as f64, "count");
}
