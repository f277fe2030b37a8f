//! Collective operations, built on the point-to-point layer with reserved
//! tags. All ranks of a world must call each collective in the same order
//! (the usual MPI contract); per-pair FIFO matching then guarantees that
//! consecutive collectives cannot interleave.
//!
//! Collectives are the bookkeeping layer (plan construction, solver
//! reductions) and keep infallible signatures: a communication fault inside
//! one panics with the typed [`CommError`](crate::CommError) in the message.

use crate::pod::Pod;
use crate::world::{Comm, Tag};

const TAG_REDUCE: Tag = crate::world::RESERVED_TAG_BASE;
const TAG_BCAST: Tag = crate::world::RESERVED_TAG_BASE + 1;
const TAG_GATHER: Tag = crate::world::RESERVED_TAG_BASE + 2;
const TAG_A2A: Tag = crate::world::RESERVED_TAG_BASE + 3;
const TAG_AGATHER: Tag = crate::world::RESERVED_TAG_BASE + 4;
const TAG_SCAN: Tag = crate::world::RESERVED_TAG_BASE + 5;

/// Reduction operators for [`Comm::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    fn apply(&self, acc: &mut [f64], x: &[f64]) {
        assert_eq!(acc.len(), x.len());
        for (a, &b) in acc.iter_mut().zip(x) {
            *a = match self {
                ReduceOp::Sum => *a + b,
                ReduceOp::Min => a.min(b),
                ReduceOp::Max => a.max(b),
            };
        }
    }
}

/// Why a collective's message cannot fail: the protocol is matched by
/// construction, so only an injected fault or a watchdog poison breaks it.
const COLLECTIVE_FAULT: &str = "collectives run on a fault-free world";

impl Comm {
    /// One collective protocol message to `dst`.
    fn coll_send<T: Pod>(&self, dst: usize, tag: Tag, data: &[T]) {
        self.send_any_tag(dst, tag, data).expect(COLLECTIVE_FAULT);
    }

    /// One collective protocol message from `src`.
    fn coll_recv<T: Pod>(&self, src: usize, tag: Tag) -> Vec<T> {
        self.recv_vec_any_tag(src, tag).expect(COLLECTIVE_FAULT)
    }

    /// Broadcast `buf` from `root` to every rank. On non-root ranks the
    /// buffer is resized and overwritten.
    pub fn bcast<T: Pod>(&self, root: usize, buf: &mut Vec<T>) {
        if self.size() == 1 {
            return;
        }
        if self.rank() == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.coll_send(dst, TAG_BCAST, buf.as_slice());
                }
            }
        } else {
            *buf = self.coll_recv(root, TAG_BCAST);
        }
    }

    /// Elementwise allreduce over `f64` buffers of equal length on all
    /// ranks; the result replaces `buf` everywhere.
    ///
    /// # Reduction-order guarantee
    ///
    /// Floating-point reduction is not associative, so the combination
    /// order is part of the contract: rank 0 folds the contributions in
    /// **ascending source-rank order** — `((x₀ op x₁) op x₂) op …` — and
    /// broadcasts the single result. Every rank therefore observes the
    /// *same bit pattern*, and repeated runs reproduce it exactly,
    /// regardless of message arrival timing (the per-pair FIFO matching
    /// pins which buffer each `recv` sees). This is stricter than MPI,
    /// which only requires a deterministic order per (implementation,
    /// rank count), not a canonical one.
    pub fn allreduce(&self, buf: &mut Vec<f64>, op: ReduceOp) {
        if self.size() == 1 {
            return;
        }
        const ROOT: usize = 0;
        if self.rank() == ROOT {
            let mut acc = std::mem::take(buf);
            for src in 1..self.size() {
                let contrib: Vec<f64> = self.coll_recv(src, TAG_REDUCE);
                op.apply(&mut acc, &contrib);
            }
            *buf = acc;
        } else {
            self.coll_send(ROOT, TAG_REDUCE, buf.as_slice());
        }
        self.bcast(ROOT, buf);
    }

    /// Scalar allreduce convenience wrapper.
    pub fn allreduce_scalar(&self, x: f64, op: ReduceOp) -> f64 {
        let mut v = vec![x];
        self.allreduce(&mut v, op);
        v[0]
    }

    /// Gathers variable-length contributions to `root`; returns
    /// `Some(per-rank data)` on the root, `None` elsewhere.
    pub fn gatherv<T: Pod>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>> {
        if self.rank() == root {
            let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size());
            for src in 0..self.size() {
                if src == root {
                    out.push(data.to_vec());
                } else {
                    out.push(self.coll_recv(src, TAG_GATHER));
                }
            }
            Some(out)
        } else {
            self.coll_send(root, TAG_GATHER, data);
            None
        }
    }

    /// All ranks receive every rank's (variable-length) contribution,
    /// indexed by source rank.
    pub fn allgatherv<T: Pod>(&self, data: &[T]) -> Vec<Vec<T>> {
        let me = self.rank();
        for dst in 0..self.size() {
            if dst != me {
                self.coll_send(dst, TAG_AGATHER, data);
            }
        }
        (0..self.size())
            .map(|src| {
                if src == me {
                    data.to_vec()
                } else {
                    self.coll_recv(src, TAG_AGATHER)
                }
            })
            .collect()
    }

    /// Reduction to `root` only (like `MPI_Reduce`): returns `Some(result)`
    /// on the root, `None` elsewhere.
    pub fn reduce(&self, root: usize, buf: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        if self.rank() == root {
            let mut acc = buf.to_vec();
            for src in 0..self.size() {
                if src == root {
                    continue;
                }
                let contrib: Vec<f64> = self.coll_recv(src, TAG_REDUCE);
                op.apply(&mut acc, &contrib);
            }
            Some(acc)
        } else {
            self.coll_send(root, TAG_REDUCE, buf);
            None
        }
    }

    /// Inclusive prefix scan over scalars (like `MPI_Scan` with one
    /// element): rank `r` receives `op(x_0, …, x_r)`.
    pub fn scan_scalar(&self, x: f64, op: ReduceOp) -> f64 {
        // Linear chain: rank r waits for the prefix from r-1, combines, and
        // forwards to r+1. O(P) latency — fine for the bookkeeping uses
        // (e.g. computing global row offsets from local lengths).
        let mut acc = vec![x];
        if self.rank() > 0 {
            let prev: Vec<f64> = self.coll_recv(self.rank() - 1, TAG_SCAN);
            let mut tmp = prev;
            op.apply(&mut tmp, &[x]);
            acc = tmp;
        }
        if self.rank() + 1 < self.size() {
            self.coll_send(self.rank() + 1, TAG_SCAN, &acc);
        }
        acc[0]
    }

    /// Exclusive prefix sum of a scalar: rank `r` gets `Σ_{s<r} x_s`
    /// (0 on rank 0) — exactly what a rank needs to turn its local vector
    /// length into its global row offset.
    pub fn exscan_sum(&self, x: f64) -> f64 {
        self.scan_scalar(x, ReduceOp::Sum) - x
    }

    /// Personalized all-to-all with variable lengths: `outgoing[d]` goes to
    /// rank `d`; the return value's entry `s` came from rank `s`. This is
    /// the bookkeeping primitive the communication-plan construction uses
    /// ("the necessary bookkeeping needs to be done only once", §3.1).
    pub fn alltoallv<T: Pod>(&self, outgoing: &[Vec<T>]) -> Vec<Vec<T>> {
        assert_eq!(
            outgoing.len(),
            self.size(),
            "need one outgoing buffer per rank"
        );
        let me = self.rank();
        for (dst, data) in outgoing.iter().enumerate() {
            if dst != me {
                self.coll_send(dst, TAG_A2A, data.as_slice());
            }
        }
        (0..self.size())
            .map(|src| {
                if src == me {
                    outgoing[me].clone()
                } else {
                    self.coll_recv(src, TAG_A2A)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::CommWorld;

    fn spawn_world<F>(size: usize, f: F)
    where
        F: Fn(Comm) + Send + Sync + Copy + 'static,
    {
        let comms = CommWorld::create(size);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| std::thread::spawn(move || f(c)))
            .collect();
        for h in handles {
            h.join().expect("rank thread panicked");
        }
    }

    #[test]
    fn bcast_distributes_root_data() {
        spawn_world(4, |c| {
            let mut buf = if c.rank() == 2 {
                vec![1.5f64, 2.5]
            } else {
                vec![]
            };
            c.bcast(2, &mut buf);
            assert_eq!(buf, vec![1.5, 2.5]);
        });
    }

    #[test]
    fn allreduce_sum_min_max() {
        spawn_world(5, |c| {
            let x = c.rank() as f64 + 1.0; // 1..=5
            assert_eq!(c.allreduce_scalar(x, ReduceOp::Sum), 15.0);
            assert_eq!(c.allreduce_scalar(x, ReduceOp::Min), 1.0);
            assert_eq!(c.allreduce_scalar(x, ReduceOp::Max), 5.0);
        });
    }

    #[test]
    fn allreduce_vector_elementwise() {
        spawn_world(3, |c| {
            let mut v = vec![c.rank() as f64, 10.0 * c.rank() as f64];
            c.allreduce(&mut v, ReduceOp::Sum);
            assert_eq!(v, vec![3.0, 30.0]);
        });
    }

    #[test]
    fn allreduce_single_rank_is_identity() {
        spawn_world(1, |c| {
            assert_eq!(c.allreduce_scalar(7.25, ReduceOp::Sum), 7.25);
        });
    }

    #[test]
    fn gatherv_collects_ragged_data() {
        spawn_world(3, |c| {
            let mine: Vec<u32> = (0..c.rank() as u32 + 1).collect();
            match c.gatherv(0, &mine) {
                Some(all) => {
                    assert_eq!(c.rank(), 0);
                    assert_eq!(all, vec![vec![0], vec![0, 1], vec![0, 1, 2]]);
                }
                None => assert_ne!(c.rank(), 0),
            }
        });
    }

    #[test]
    fn allgatherv_everyone_sees_everything() {
        spawn_world(4, |c| {
            let mine = vec![c.rank() as u64; c.rank() + 1];
            let all = c.allgatherv(&mine);
            for (src, data) in all.iter().enumerate() {
                assert_eq!(data.len(), src + 1);
                assert!(data.iter().all(|&v| v == src as u64));
            }
        });
    }

    #[test]
    fn alltoallv_transposes_the_exchange() {
        spawn_world(4, |c| {
            // rank r sends [r*10 + d] to rank d
            let outgoing: Vec<Vec<i64>> = (0..c.size())
                .map(|d| vec![(c.rank() * 10 + d) as i64])
                .collect();
            let incoming = c.alltoallv(&outgoing);
            for (s, data) in incoming.iter().enumerate() {
                assert_eq!(data, &vec![(s * 10 + c.rank()) as i64]);
            }
        });
    }

    #[test]
    fn alltoallv_with_empty_lanes() {
        spawn_world(3, |c| {
            // only rank 0 sends, and only to rank 2
            let mut outgoing: Vec<Vec<f64>> = vec![vec![]; 3];
            if c.rank() == 0 {
                outgoing[2] = vec![3.25];
            }
            let incoming = c.alltoallv(&outgoing);
            if c.rank() == 2 {
                assert_eq!(incoming[0], vec![3.25]);
            } else {
                assert!(incoming[0].is_empty());
            }
            assert!(incoming[1].is_empty());
        });
    }

    #[test]
    fn consecutive_collectives_do_not_interleave() {
        spawn_world(4, |c| {
            for round in 0..20u64 {
                let s = c.allreduce_scalar(round as f64, ReduceOp::Sum);
                assert_eq!(s, 4.0 * round as f64);
                let all = c.allgatherv(&[round * 100 + c.rank() as u64]);
                for (src, v) in all.iter().enumerate() {
                    assert_eq!(v[0], round * 100 + src as u64);
                }
            }
        });
    }

    #[test]
    fn collectives_mixed_with_p2p() {
        spawn_world(2, |c| {
            let peer = 1 - c.rank();
            c.send(peer, 1, &[c.rank() as f64]).unwrap();
            let total = c.allreduce_scalar(1.0, ReduceOp::Sum);
            assert_eq!(total, 2.0);
            let mut buf = [0.0f64];
            c.recv(peer, 1, &mut buf).unwrap();
            assert_eq!(buf[0], peer as f64);
        });
    }

    #[test]
    fn reduce_collects_only_at_root() {
        spawn_world(4, |c| {
            let buf = [c.rank() as f64, 1.0];
            match c.reduce(2, &buf, ReduceOp::Sum) {
                Some(r) => {
                    assert_eq!(c.rank(), 2);
                    assert_eq!(r, vec![6.0, 4.0]);
                }
                None => assert_ne!(c.rank(), 2),
            }
        });
    }

    #[test]
    fn scan_inclusive_prefix() {
        spawn_world(5, |c| {
            let x = (c.rank() + 1) as f64;
            let s = c.scan_scalar(x, ReduceOp::Sum);
            let expect: f64 = (1..=c.rank() + 1).map(|v| v as f64).sum();
            assert_eq!(s, expect);
            let m = c.scan_scalar(x, ReduceOp::Max);
            assert_eq!(m, x);
        });
    }

    #[test]
    fn exscan_gives_row_offsets() {
        spawn_world(4, |c| {
            // local lengths 10, 20, 30, 40 -> offsets 0, 10, 30, 60
            let len = (c.rank() + 1) as f64 * 10.0;
            let off = c.exscan_sum(len);
            let expect = [0.0, 10.0, 30.0, 60.0][c.rank()];
            assert_eq!(off, expect);
        });
    }

    #[test]
    fn scan_single_rank() {
        spawn_world(1, |c| {
            assert_eq!(c.scan_scalar(5.0, ReduceOp::Sum), 5.0);
            assert_eq!(c.exscan_sum(5.0), 0.0);
        });
    }

    // -- edge cases ---------------------------------------------------------

    #[test]
    fn size_one_world_collectives_are_identities() {
        spawn_world(1, |c| {
            let mut b = vec![1.0f64, 2.0];
            c.bcast(0, &mut b);
            assert_eq!(b, vec![1.0, 2.0]);
            let all = c.allgatherv(&[7u32, 8]);
            assert_eq!(all, vec![vec![7, 8]]);
            let inc = c.alltoallv(&[vec![3i64]]);
            assert_eq!(inc, vec![vec![3]]);
            assert_eq!(c.reduce(0, &[4.0], ReduceOp::Max), Some(vec![4.0]));
            assert_eq!(c.gatherv(0, &[9u8]), Some(vec![vec![9]]));
        });
    }

    #[test]
    fn empty_buffers_flow_through_collectives() {
        spawn_world(3, |c| {
            let mut b: Vec<f64> = vec![];
            c.bcast(1, &mut b);
            assert!(b.is_empty());
            c.allreduce(&mut b, ReduceOp::Sum);
            assert!(b.is_empty());
            let all = c.allgatherv::<u64>(&[]);
            assert_eq!(all, vec![vec![], vec![], vec![]]);
            match c.gatherv::<f64>(0, &[]) {
                Some(parts) => assert!(parts.iter().all(|p| p.is_empty())),
                None => assert_ne!(c.rank(), 0),
            }
        });
    }

    #[test]
    fn alltoallv_self_send_only() {
        // every rank addresses data exclusively to itself: the self lane is
        // served by a local clone, no messages cross ranks
        spawn_world(3, |c| {
            let mut outgoing: Vec<Vec<u64>> = vec![vec![]; 3];
            outgoing[c.rank()] = vec![c.rank() as u64 * 11; 4];
            c.barrier().unwrap();
            let base = c.stats().snapshot();
            c.barrier().unwrap(); // every base is taken before anyone sends
            let incoming = c.alltoallv(&outgoing);
            c.barrier().unwrap(); // every send is recorded before any delta
            let delta = c.stats().snapshot().since(&base);
            assert_eq!(incoming[c.rank()], vec![c.rank() as u64 * 11; 4]);
            for (s, lane) in incoming.iter().enumerate() {
                if s != c.rank() {
                    assert!(lane.is_empty());
                }
            }
            assert_eq!(delta.messages, 6, "3 ranks x 2 empty cross-lanes");
            assert_eq!(delta.bytes, 0, "self data must not hit the wire");
        });
    }

    #[test]
    fn allreduce_non_commutative_float_order_is_canonical() {
        // (x0 + x1) + x2 differs from other association orders in f64:
        // the contract pins the ascending-rank left fold on every rank.
        spawn_world(3, |c| {
            // (1.0 + 1e16) + -1e16 = 0.0, but 1.0 + (1e16 + -1e16) = 1.0
            let xs = [1.0, 1e16, -1e16];
            let folded = (xs[0] + xs[1]) + xs[2]; // the guaranteed order
            assert_ne!(
                folded,
                xs[0] + (xs[1] + xs[2]),
                "inputs must expose non-associativity"
            );
            for _ in 0..20 {
                let s = c.allreduce_scalar(xs[c.rank()], ReduceOp::Sum);
                assert_eq!(s.to_bits(), folded.to_bits(), "rank {}", c.rank());
            }
        });
    }
}
