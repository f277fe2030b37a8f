//! Timing wrappers around the solver traits.
//!
//! `Stamped` wraps the public operator (`DistOp` / `SerialOp`) and only
//! notes when each apply starts: consecutive starts bound one solver
//! iteration. `TracedOp` / `TracedOps` are the traced run's versions: they
//! perform the same public calls as `RankEngine::apply` and `DistOps`
//! (copy in, `spmv`, copy out; local dot, `allreduce_scalar`) inside
//! spans, so the solver layer's time splits into SpMV, copies, reductions
//! and the vector updates left over.

use crate::spans::SpanLog;
use spmv_comm::collectives::ReduceOp;
use spmv_comm::{Comm, CommError};
use spmv_core::{KernelMode, RankEngine};
use spmv_matrix::{vecops, CsrMatrix};
use spmv_obs::clock::now_secs;
use spmv_solvers::lanczos::LanczosOptions;
use spmv_solvers::{cg_solve, lanczos, GlobalOps, LinOp};
use std::cell::RefCell;

/// The solver a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Conjugate gradients from `x = 0`, tolerance 0 (runs every step).
    Cg,
    /// Lanczos without reorthogonalization (the paper's HMeP application).
    Lanczos,
}

/// Relative tolerance of a distributed solver history against the
/// serial one: distributed dot products add their terms in another order.
pub const HISTORY_RTOL: f64 = 1e-8;

impl Solver {
    /// Label for reports.
    pub fn name(self) -> &'static str {
        match self {
            Solver::Cg => "cg",
            Solver::Lanczos => "lanczos",
        }
    }

    /// Index of the apply that starts iteration 1 (CG first applies to
    /// form the initial residual).
    pub fn first_iter_apply(self) -> usize {
        match self {
            Solver::Cg => 1,
            Solver::Lanczos => 0,
        }
    }

    /// Runs `steps` iterations on the local right-hand side `rhs` and
    /// returns the history checked against the serial run: CG's relative
    /// residuals, or Lanczos' α then β coefficients.
    pub fn run<O: LinOp, G: GlobalOps>(
        self,
        op: &mut O,
        ops: &G,
        rhs: &[f64],
        steps: usize,
    ) -> Vec<f64> {
        match self {
            Solver::Cg => {
                let mut x = vec![0.0; rhs.len()];
                cg_solve(op, ops, rhs, &mut x, 0.0, steps).history
            }
            Solver::Lanczos => {
                let opts = LanczosOptions {
                    max_steps: steps,
                    ..LanczosOptions::default()
                };
                let r = lanczos(op, ops, rhs, opts);
                r.alphas.into_iter().chain(r.betas).collect()
            }
        }
    }
}

/// Compares a solver history with the serial reference.
pub fn check_history(h: &[f64], h_ref: &[f64]) -> Result<(), String> {
    if h.len() != h_ref.len() {
        return Err(format!(
            "history length {} != reference {}",
            h.len(),
            h_ref.len()
        ));
    }
    for (i, (a, b)) in h.iter().zip(h_ref).enumerate() {
        // written so that a NaN fails the check
        let close = (a - b).abs() <= HISTORY_RTOL * b.abs().max(f64::MIN_POSITIVE);
        if !close {
            return Err(format!("history[{i}] {a:e} vs reference {b:e}"));
        }
    }
    Ok(())
}

/// Per-iteration seconds from apply start times and the solve's end.
pub fn iteration_times(starts: &[f64], first: usize, end: f64) -> Vec<f64> {
    let s = starts.get(first..).unwrap_or(&[]);
    s.windows(2)
        .map(|w| w[1] - w[0])
        .chain(s.last().map(|&l| end - l))
        .collect()
}

/// A [`LinOp`] that records when each apply starts and keeps the first
/// communication error instead of panicking.
pub struct Stamped<O> {
    inner: O,
    /// Start of every apply, seconds on the trace clock.
    pub starts: Vec<f64>,
    /// First failed apply.
    pub err: Option<CommError>,
}

impl<O> Stamped<O> {
    /// Wraps an operator.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            starts: Vec::new(),
            err: None,
        }
    }
}

impl<O: LinOp> LinOp for Stamped<O> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.starts.push(now_secs());
        if let Err(e) = self.inner.try_apply(x, y) {
            self.err.get_or_insert(e);
        }
    }

    fn applications(&self) -> u64 {
        self.inner.applications()
    }
}

/// What a traced apply multiplies with.
pub enum Target<'a> {
    /// `CsrMatrix::spmv` on the whole matrix.
    Serial(&'a CsrMatrix),
    /// One rank's engine in a fixed mode.
    Engine(&'a mut RankEngine, KernelMode),
}

/// Traced operator: each apply is a `solver.apply` span holding
/// `core.apply_copy` / `core.spmv` / `core.apply_copy` (or `matrix.spmv`
/// for the serial configuration).
pub struct TracedOp<'a, 'l> {
    target: Target<'a>,
    log: &'l RefCell<SpanLog>,
    op: u64,
    rank: usize,
    parent: usize,
    count: u64,
    /// Start of every apply, seconds on the trace clock.
    pub starts: Vec<f64>,
    /// First failed apply.
    pub err: Option<CommError>,
}

impl<'a, 'l> TracedOp<'a, 'l> {
    /// Wraps `target`; spans go under `parent` with id `op`.
    pub fn new(
        target: Target<'a>,
        log: &'l RefCell<SpanLog>,
        op: u64,
        rank: usize,
        parent: usize,
    ) -> Self {
        Self {
            target,
            log,
            op,
            rank,
            parent,
            count: 0,
            starts: Vec::new(),
            err: None,
        }
    }
}

impl LinOp for TracedOp<'_, '_> {
    fn len(&self) -> usize {
        match &self.target {
            Target::Serial(m) => m.nrows(),
            Target::Engine(e, _) => e.local_len(),
        }
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.count += 1;
        let apply =
            self.log
                .borrow_mut()
                .open(self.op, "solver.apply", self.rank, Some(self.parent));
        self.starts.push(self.log.borrow().spans()[apply].t0);
        let (log, op, rank) = (self.log, self.op, self.rank);
        let span = |name, f: &mut dyn FnMut()| {
            let i = log.borrow_mut().open(op, name, rank, Some(apply));
            f();
            log.borrow_mut().close(i);
        };
        match &mut self.target {
            Target::Serial(m) => span("matrix.spmv", &mut || m.spmv(x, y)),
            Target::Engine(eng, mode) => {
                let mode = *mode;
                let mut res = Ok(());
                span("core.apply_copy", &mut || {
                    eng.x_local_mut().copy_from_slice(x)
                });
                span("core.spmv", &mut || res = eng.spmv_checked(mode));
                span("core.apply_copy", &mut || y.copy_from_slice(eng.y_local()));
                if let Err(e) = res {
                    self.err.get_or_insert(e);
                }
            }
        }
        self.log.borrow_mut().close(apply);
    }

    fn applications(&self) -> u64 {
        self.count
    }
}

/// Traced reductions: each is a `solver.reduce` span holding
/// `solver.dot_local` and, when distributed, `comm.allreduce`.
pub struct TracedOps<'a, 'l> {
    comm: Option<&'a Comm>,
    log: &'l RefCell<SpanLog>,
    op: u64,
    rank: usize,
    parent: usize,
}

impl<'a, 'l> TracedOps<'a, 'l> {
    /// Reduces over `comm` (`None`: serial).
    pub fn new(
        comm: Option<&'a Comm>,
        log: &'l RefCell<SpanLog>,
        op: u64,
        rank: usize,
        parent: usize,
    ) -> Self {
        Self {
            comm,
            log,
            op,
            rank,
            parent,
        }
    }

    fn reduce(&self, local: impl FnOnce() -> f64, rop: ReduceOp) -> f64 {
        let (log, op, rank) = (self.log, self.op, self.rank);
        let top = log
            .borrow_mut()
            .open(op, "solver.reduce", rank, Some(self.parent));
        let i = log
            .borrow_mut()
            .open(op, "solver.dot_local", rank, Some(top));
        let v = local();
        log.borrow_mut().close(i);
        let v = match self.comm {
            Some(c) => {
                let i = log.borrow_mut().open(op, "comm.allreduce", rank, Some(top));
                let v = c.allreduce_scalar(v, rop);
                log.borrow_mut().close(i);
                v
            }
            None => v,
        };
        log.borrow_mut().close(top);
        v
    }
}

impl GlobalOps for TracedOps<'_, '_> {
    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        self.reduce(|| vecops::dot(a, b), ReduceOp::Sum)
    }

    fn max(&self, x: f64) -> f64 {
        self.reduce(|| x, ReduceOp::Max)
    }

    fn sum(&self, x: f64) -> f64 {
        self.reduce(|| x, ReduceOp::Sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_times_use_consecutive_apply_starts_and_the_end() {
        // CG: apply 0 forms the residual; iterations start at applies 1..
        let t = iteration_times(&[0.0, 1.0, 3.0, 6.0], 1, 10.0);
        assert_eq!(t, vec![2.0, 3.0, 4.0]);
        assert_eq!(iteration_times(&[0.0, 2.0], 0, 5.0), vec![2.0, 3.0]);
        assert!(iteration_times(&[0.0], 1, 5.0).is_empty());
    }

    #[test]
    fn history_check_is_relative_and_length_exact() {
        assert!(check_history(&[1.0, 1e-3], &[1.0, 1e-3 * (1.0 + 1e-10)]).is_ok());
        assert!(check_history(&[1.0, 1e-3], &[1.0, 1.1e-3]).is_err());
        assert!(check_history(&[1.0], &[1.0, 0.5]).is_err());
        assert!(check_history(&[f64::NAN], &[1.0]).is_err());
    }
}
