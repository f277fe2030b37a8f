//! The halo-exchange schedule: the one place the exchange's operations,
//! their order and their tags are written down.
//!
//! The paper's three kernel modes (Fig. 4a–c) are three orderings of one
//! exchange around the compute phases. A [`HaloSchedule`] is that exchange
//! for one rank, built once from the flat [`RankPlan`] or the three-phase
//! [`NodeAwarePlan`] as an ordered list of [`XOp`]s. Everything that needs
//! to know the exchange reads it from here:
//!
//! * `RankEngine` runs it through an [`Exchange`] in all three modes;
//! * the plan verifier ([`crate::verify`]) derives its blocking-op lists
//!   from it;
//! * the interleaving explorer (`spmv-verify`) builds its model programs
//!   from it;
//! * per-exchange traffic is counted from it ([`HaloSchedule::traffic`]).
//!
//! The op list splits into three stages the kernel modes place
//! differently: [`HaloSchedule::pre`] (receives posted up front, which
//! never read the send buffer and so may run before the gather
//! completes), [`HaloSchedule::begin`] (the sends that follow), and
//! [`HaloSchedule::finish`] (everything else, ending in [`XOp::WaitAll`]).

use crate::plan::{CommTraffic, NodeAwarePlan, RankPlan};
use spmv_comm::{Comm, CommError, Request, Tag};
use spmv_machine::RankNodeMap;
use std::ops::Range;

/// Tag of direct halo messages (flat exchange, node-aware intra-node).
pub const TAG_HALO: Tag = 17;
/// Tag of member → leader shipments (node-aware phase 1).
pub const TAG_SHIP: Tag = 18;
/// Tag of leader → leader aggregated wire messages (phase 2).
pub const TAG_WIRE: Tag = 19;
/// Tag base of leader → member forwarded halo slices (phase 3); the source
/// node id is added so slices from different nodes never collide.
pub const TAG_FWD_BASE: Tag = 1024;

/// A per-rank buffer an exchange op reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buf {
    /// The gathered send buffer; read-only during the exchange.
    Send,
    /// The halo part of the extended RHS vector.
    Halo,
    /// Leader scratch: member shipments, outgoing and incoming wires.
    Scratch,
}

/// The peer, tag and local buffer range of one message op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Peer rank: the destination of a send, the source of a receive.
    pub peer: usize,
    /// Message tag.
    pub tag: Tag,
    /// Local buffer the payload comes from or lands in.
    pub buf: Buf,
    /// Element range within `buf`.
    pub range: Range<usize>,
}

fn msg(peer: usize, tag: Tag, buf: Buf, range: Range<usize>) -> Msg {
    Msg {
        peer,
        tag,
        buf,
        range,
    }
}

/// One operation of a rank's exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XOp {
    /// Nonblocking receive, completed by the next [`XOp::WaitAll`].
    PostRecv(Msg),
    /// Nonblocking send, borrowing its range until the next
    /// [`XOp::WaitAll`].
    Send(Msg),
    /// Blocking receive.
    Recv(Msg),
    /// Local copy of `from[src]` into `to[dst..dst + src.len()]`.
    Copy {
        /// Source buffer.
        from: Buf,
        /// Source range.
        src: Range<usize>,
        /// Destination buffer.
        to: Buf,
        /// Destination offset.
        dst: usize,
    },
    /// Completes every posted receive, then every posted send, in post
    /// order.
    WaitAll,
}

/// One rank's halo exchange as an ordered op list (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloSchedule {
    /// The rank this schedule belongs to.
    pub rank: usize,
    /// The operations, in issue order.
    pub ops: Vec<XOp>,
    /// The send buffer's fill order: local indices, gathered in buffer
    /// order before the exchange starts.
    pub gather: Vec<u32>,
    /// `ops[..pre_end]` is the leading run of posted receives.
    pre_end: usize,
    /// `ops[pre_end..begin_end]` is the run of sends that follows.
    begin_end: usize,
    /// Segment boundaries of the halo and of the scratch buffer (each
    /// starting at 0 and ending at the buffer's length). Every op that
    /// writes or sends from these buffers stays inside one segment, and a
    /// posted receive fills a whole one, so [`Exchange`] can lend disjoint
    /// segments to in-flight requests.
    halo_cuts: Vec<usize>,
    scratch_cuts: Vec<usize>,
}

/// Appends a `len`-element segment to a buffer layout and returns its
/// range.
fn carve(cuts: &mut Vec<usize>, len: usize) -> Range<usize> {
    let start = *cuts.last().expect("a layout starts with offset 0");
    cuts.push(start + len);
    start..start + len
}

impl HaloSchedule {
    fn new(
        rank: usize,
        ops: Vec<XOp>,
        gather: Vec<u32>,
        halo_cuts: Vec<usize>,
        scratch_cuts: Vec<usize>,
    ) -> Self {
        let run = |from: usize, f: fn(&XOp) -> bool| {
            from + ops[from..].iter().take_while(|op| f(op)).count()
        };
        let pre_end = run(0, |op| matches!(op, XOp::PostRecv(_)));
        let begin_end = run(pre_end, |op| matches!(op, XOp::Send(_)));
        Self {
            rank,
            ops,
            gather,
            pre_end,
            begin_end,
            halo_cuts,
            scratch_cuts,
        }
    }

    /// The flat exchange (the paper's scheme): post one receive per source
    /// peer into its halo segment, send one message per destination peer,
    /// wait for all of them.
    pub fn flat(plan: &RankPlan) -> Self {
        let halo_cuts = plan.halo_offsets();
        let mut ops: Vec<XOp> = plan
            .recv
            .iter()
            .zip(halo_cuts.windows(2))
            .map(|(n, w)| XOp::PostRecv(msg(n.peer, TAG_HALO, Buf::Halo, w[0]..w[1])))
            .collect();
        let mut gather = Vec::with_capacity(plan.send_len());
        for n in &plan.send {
            let start = gather.len();
            gather.extend_from_slice(&n.indices);
            ops.push(XOp::Send(msg(
                n.peer,
                TAG_HALO,
                Buf::Send,
                start..gather.len(),
            )));
        }
        ops.push(XOp::WaitAll);
        Self::new(plan.rank, ops, gather, halo_cuts, vec![0])
    }

    /// The three-phase node-aware exchange (Bienz et al.): direct
    /// intra-node sends and the member's shipment to its leader; leaders
    /// collect the shipments, assemble and exchange one wire message per
    /// peer node, and forward each member's slice; every rank then
    /// receives its intra-node segments and (non-leaders) the forwarded
    /// node segments.
    ///
    /// Deadlock-free: every rank posts its sends before it blocks, and the
    /// blocking chain shipments → wires → forwards is acyclic.
    pub fn node_aware(na: &NodeAwarePlan) -> Self {
        let mut ops: Vec<XOp> = na
            .intra_send
            .iter()
            .map(|(peer, r)| XOp::Send(msg(*peer, TAG_HALO, Buf::Send, r.clone())))
            .collect();
        if !na.is_leader() && !na.ship_range.is_empty() {
            let ship = na.ship_range.clone();
            ops.push(XOp::Send(msg(na.leader_rank, TAG_SHIP, Buf::Send, ship)));
        }
        let mut scratch_cuts = vec![0];
        if let Some(lp) = &na.leader {
            let my_slot = na.flat.rank - lp.members[0];
            // collect member shipments (their sends are already posted);
            // the leader's own contribution is read in place from its
            // send buffer
            let mut ships = vec![0..0; lp.members.len()];
            for (slot, &member) in lp.members.iter().enumerate() {
                if slot != my_slot && lp.ship_lens[slot] > 0 {
                    ships[slot] = carve(&mut scratch_cuts, lp.ship_lens[slot]);
                    let ship = ships[slot].clone();
                    ops.push(XOp::Recv(msg(member, TAG_SHIP, Buf::Scratch, ship)));
                }
            }
            // assemble one wire message per destination node, then send
            let mut wires = Vec::with_capacity(lp.wire_out.len());
            for w in &lp.wire_out {
                let out = carve(&mut scratch_cuts, w.len);
                let mut dst = out.start;
                for ch in &w.chunks {
                    let (from, base) = if ch.slot == my_slot {
                        (Buf::Send, na.ship_range.start)
                    } else {
                        (Buf::Scratch, ships[ch.slot].start)
                    };
                    let start = base + ch.src_off;
                    ops.push(XOp::Copy {
                        from,
                        src: start..start + ch.len,
                        to: Buf::Scratch,
                        dst,
                    });
                    dst += ch.len;
                }
                wires.push(XOp::Send(msg(w.dest_leader, TAG_WIRE, Buf::Scratch, out)));
            }
            ops.extend(wires);
            // receive the aggregated wires from peer leaders, then cut each
            // into contiguous per-member slices and forward; the leader's
            // own slice lands directly in its halo
            let wires_in: Vec<Range<usize>> = lp
                .wire_in
                .iter()
                .map(|w| carve(&mut scratch_cuts, w.len))
                .collect();
            for (w, r) in lp.wire_in.iter().zip(&wires_in) {
                ops.push(XOp::Recv(msg(
                    w.src_leader,
                    TAG_WIRE,
                    Buf::Scratch,
                    r.clone(),
                )));
            }
            for (w, r) in lp.wire_in.iter().zip(wires_in) {
                let mut off = r.start;
                for (slot, &len) in w.parts.iter().enumerate().filter(|(_, &len)| len > 0) {
                    let (src, tag) = (off..off + len, TAG_FWD_BASE + w.node as Tag);
                    off += len;
                    if slot != my_slot {
                        ops.push(XOp::Send(msg(lp.members[slot], tag, Buf::Scratch, src)));
                        continue;
                    }
                    let (_, seg) = na
                        .recv_node_segments
                        .iter()
                        .find(|(n, _)| *n == w.node)
                        .expect("leader wire part has a halo segment");
                    ops.push(XOp::Copy {
                        from: Buf::Scratch,
                        src,
                        to: Buf::Halo,
                        dst: seg.start,
                    });
                }
            }
        }
        // every rank: direct intra-node segments
        ops.extend(
            na.intra_recv
                .iter()
                .map(|(peer, r)| XOp::Recv(msg(*peer, TAG_HALO, Buf::Halo, r.clone()))),
        );
        // non-leaders: one forwarded slice per remote source node
        if !na.is_leader() {
            ops.extend(na.recv_node_segments.iter().map(|(node, r)| {
                let tag = TAG_FWD_BASE + *node as Tag;
                XOp::Recv(msg(na.leader_rank, tag, Buf::Halo, r.clone()))
            }));
        }
        ops.push(XOp::WaitAll);
        // intra segments and node segments tile the halo
        let mut halo_cuts: Vec<usize> = na
            .intra_recv
            .iter()
            .chain(&na.recv_node_segments)
            .map(|(_, r)| r.start)
            .chain([na.flat.halo_len()])
            .collect();
        halo_cuts.sort_unstable();
        halo_cuts.dedup();
        let gather = na.gather_indices.clone();
        Self::new(na.flat.rank, ops, gather, halo_cuts, scratch_cuts)
    }

    /// Receives posted before anything else; they never read the send
    /// buffer, so task mode posts them while the gather still runs.
    pub fn pre(&self) -> &[XOp] {
        &self.ops[..self.pre_end]
    }

    /// The sends that follow [`Self::pre`]: in flight while the naive
    /// overlap mode runs its local SpMV.
    pub fn begin(&self) -> &[XOp] {
        &self.ops[self.pre_end..self.begin_end]
    }

    /// The rest of the exchange, ending in [`XOp::WaitAll`].
    pub fn finish(&self) -> &[XOp] {
        &self.ops[self.begin_end..]
    }

    /// Elements of leader scratch the schedule needs (0 off-leader).
    pub fn scratch_len(&self) -> usize {
        *self
            .scratch_cuts
            .last()
            .expect("a layout ends at its length")
    }

    /// The traffic this rank sends per exchange, each message classified
    /// as intra- or inter-node by `map`.
    pub fn traffic(&self, map: &RankNodeMap) -> CommTraffic {
        let mut t = CommTraffic::default();
        for op in &self.ops {
            if let XOp::Send(m) = op {
                let (msgs, bytes) = if map.same_node(self.rank, m.peer) {
                    (&mut t.intra_msgs, &mut t.intra_bytes)
                } else {
                    (&mut t.inter_msgs, &mut t.inter_bytes)
                };
                *msgs += 1;
                *bytes += m.range.len() * 8;
            }
        }
        t
    }
}

/// A segment of the halo or scratch buffer during one exchange.
enum Seg<'a> {
    /// Writable: no request borrows it.
    Mut(&'a mut [f64]),
    /// Frozen: an in-flight send borrows (part of) it.
    Shared(&'a [f64]),
    /// Moved into a posted receive (or taken out for a write).
    Lent,
}

/// One run of a [`HaloSchedule`] over a rank's buffers. Requests posted by
/// its ops borrow buffer segments until the schedule's [`XOp::WaitAll`];
/// dropping the run early (on an error) drops them, which cancels pending
/// receives and settles borrowed sends.
pub struct Exchange<'s, 'a> {
    schedule: &'s HaloSchedule,
    comm: &'s Comm,
    /// Halo segments, then scratch segments.
    segs: Vec<Seg<'a>>,
    reqs: Vec<Request<'a>>,
}

impl<'s, 'a> Exchange<'s, 'a> {
    /// Starts a run over `halo` and `scratch` (which must have the
    /// schedule's halo and scratch lengths).
    pub fn new(
        schedule: &'s HaloSchedule,
        comm: &'s Comm,
        halo: &'a mut [f64],
        scratch: &'a mut [f64],
    ) -> Self {
        let mut segs = Vec::with_capacity(schedule.halo_cuts.len() + schedule.scratch_cuts.len());
        for (mut rest, cuts) in [
            (halo, &schedule.halo_cuts),
            (scratch, &schedule.scratch_cuts),
        ] {
            debug_assert_eq!(rest.len(), *cuts.last().expect("cuts end at the length"));
            for w in cuts.windows(2) {
                let (seg, tail) = rest.split_at_mut(w[1] - w[0]);
                segs.push(Seg::Mut(seg));
                rest = tail;
            }
        }
        let reqs = Vec::with_capacity(schedule.ops.len());
        Self {
            schedule,
            comm,
            segs,
            reqs,
        }
    }

    /// The segment holding `buf[range]` and the range within it.
    fn locate(&self, buf: Buf, range: &Range<usize>) -> (usize, Range<usize>) {
        let (cuts, base) = match buf {
            Buf::Halo => (&self.schedule.halo_cuts, 0),
            Buf::Scratch => (
                &self.schedule.scratch_cuts,
                self.schedule.halo_cuts.len() - 1,
            ),
            Buf::Send => unreachable!("the send buffer is not segmented"),
        };
        let k = cuts.partition_point(|&c| c <= range.start) - 1;
        debug_assert!(range.end <= cuts[k + 1], "op range crosses a segment");
        (base + k, range.start - cuts[k]..range.end - cuts[k])
    }

    /// Takes segment `k` out for writing (the caller puts it back).
    fn take_mut(&mut self, k: usize) -> &'a mut [f64] {
        match std::mem::replace(&mut self.segs[k], Seg::Lent) {
            Seg::Mut(s) => s,
            _ => unreachable!("schedule writes a segment an in-flight request borrows"),
        }
    }

    /// Read view of `buf[range]`.
    fn read(&self, buf: Buf, range: &Range<usize>, send: &'a [f64]) -> &[f64] {
        if buf == Buf::Send {
            return &send[range.clone()];
        }
        let (k, r) = self.locate(buf, range);
        match &self.segs[k] {
            Seg::Mut(s) => &s[r],
            Seg::Shared(s) => &s[r],
            Seg::Lent => unreachable!("schedule reads a segment lent to a receive"),
        }
    }

    /// Read view of `buf[range]` that lives as long as the buffers,
    /// freezing its segment: a send borrows it until the WaitAll.
    fn frozen(&mut self, buf: Buf, range: &Range<usize>, send: &'a [f64]) -> &'a [f64] {
        if buf == Buf::Send {
            return &send[range.clone()];
        }
        let (k, r) = self.locate(buf, range);
        let seg: &'a [f64] = match std::mem::replace(&mut self.segs[k], Seg::Lent) {
            Seg::Mut(s) => s,
            Seg::Shared(s) => s,
            Seg::Lent => unreachable!("schedule sends from a segment lent to a receive"),
        };
        self.segs[k] = Seg::Shared(seg);
        &seg[r]
    }

    /// Runs `ops` (a stage of the schedule) in order. `send` is the
    /// gathered send buffer; stages that neither send nor copy from it
    /// may pass an empty slice.
    pub fn run(&mut self, ops: &[XOp], send: &'a [f64]) -> Result<(), CommError> {
        for op in ops {
            match op {
                XOp::PostRecv(m) => {
                    let (k, r) = self.locate(m.buf, &m.range);
                    let seg = self.take_mut(k);
                    debug_assert_eq!(r.len(), seg.len(), "a posted receive fills its segment");
                    self.reqs.push(self.comm.irecv(m.peer, m.tag, seg));
                }
                XOp::Send(m) => {
                    let data = self.frozen(m.buf, &m.range, send);
                    self.reqs.push(self.comm.isend_ref(m.peer, m.tag, data));
                }
                XOp::Recv(m) => {
                    let (k, r) = self.locate(m.buf, &m.range);
                    let seg = self.take_mut(k);
                    let res = self.comm.recv(m.peer, m.tag, &mut seg[r]);
                    self.segs[k] = Seg::Mut(seg);
                    res?;
                }
                XOp::Copy { from, src, to, dst } => {
                    let (k, r) = self.locate(*to, &(*dst..*dst + src.len()));
                    let seg = self.take_mut(k);
                    seg[r].copy_from_slice(self.read(*from, src, send));
                    self.segs[k] = Seg::Mut(seg);
                }
                XOp::WaitAll => self.comm.waitall(self.reqs.drain(..))?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RowPartition;
    use crate::plan::{build_node_aware_serial, build_plans_serial};
    use spmv_matrix::synthetic;

    #[test]
    fn stages_split_where_the_kernel_modes_place_them() {
        let m = synthetic::tridiagonal(12, 2.0, -1.0);
        let plans = build_plans_serial(&m, &RowPartition::by_rows(12, 3));
        // flat: receives first (posted before the gather completes in task
        // mode), then sends, then the wait
        let s = HaloSchedule::flat(&plans[1]);
        assert_eq!(s.pre().len(), 2);
        assert_eq!(s.begin().len(), 2);
        assert_eq!(s.finish(), &[XOp::WaitAll]);
        assert_eq!(s.gather, vec![0, 3]);
        assert_eq!(s.scratch_len(), 0);
        // node-aware posts no receives: its sends start the schedule
        let na = build_node_aware_serial(&plans, &RankNodeMap::contiguous(3, 2));
        for p in &na {
            let s = HaloSchedule::node_aware(p);
            assert!(s.pre().is_empty());
            assert!(s.begin().iter().all(|op| matches!(op, XOp::Send(_))));
        }
    }
}
