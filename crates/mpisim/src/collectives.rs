//! Collective operations, implemented with the same algorithms MPICH 1.2
//! used, on top of the point-to-point layer — so their cost structure
//! (trees, rings, pairwise exchanges) and network footprint are emergent,
//! exactly as on the paper's cluster.
//!
//! Tag space: every collective type owns a distinct tag above
//! [`COLLECTIVE_TAG_BASE`]; correctness across back-to-back collectives of
//! the same type follows from MPI's per-pair FIFO matching.

use crate::msg::{MsgMeta, COLLECTIVE_TAG_BASE};
use crate::rank::{decode_f64s, encode_f64s, Rank};
use bytes::Bytes;

const TAG_BARRIER: u64 = COLLECTIVE_TAG_BASE;
const TAG_BCAST: u64 = COLLECTIVE_TAG_BASE + 1;
const TAG_REDUCE: u64 = COLLECTIVE_TAG_BASE + 2;
const TAG_GATHER: u64 = COLLECTIVE_TAG_BASE + 3;
const TAG_SCATTER: u64 = COLLECTIVE_TAG_BASE + 4;
const TAG_ALLGATHER: u64 = COLLECTIVE_TAG_BASE + 5;
const TAG_ALLTOALL: u64 = COLLECTIVE_TAG_BASE + 6;

/// Reduction operators for [`Rank::reduce_f64s`] / [`Rank::allreduce_f64s`].
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
    fn combine(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduce buffers differ in length");
        for (a, b) in acc.iter_mut().zip(other) {
            *a = match self {
                ReduceOp::Sum => *a + *b,
                ReduceOp::Min => a.min(*b),
                ReduceOp::Max => a.max(*b),
            };
        }
    }
}

/// Public collective entry points: each wraps its implementation so that
/// the point-to-point operations issued inside are marked
/// `in_collective` in recorded traces.
impl Rank {
    /// Dissemination barrier: ⌈log₂ n⌉ rounds of pairwise notifications.
    pub fn barrier(&mut self) {
        self.enter_collective();
        self.barrier_impl();
        self.exit_collective();
    }

    /// Binomial-tree broadcast of a real payload from `root`. Every rank
    /// returns the payload.
    pub fn bcast(&mut self, root: usize, payload: Option<Bytes>) -> Bytes {
        self.enter_collective();
        let out = self.bcast_impl(root, payload);
        self.exit_collective();
        out
    }

    /// Broadcast of a synthetic `bytes`-sized message (benchmark use).
    pub fn bcast_size(&mut self, root: usize, bytes: u64) {
        self.enter_collective();
        self.bcast_size_impl(root, bytes);
        self.exit_collective();
    }

    /// Binomial-tree reduction of `f64` vectors to `root`. Returns the
    /// reduced vector at the root, `None` elsewhere.
    pub fn reduce_f64s(&mut self, root: usize, data: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        self.enter_collective();
        let out = self.reduce_f64s_impl(root, data, op);
        self.exit_collective();
        out
    }

    /// Allreduce = reduce-to-0 + broadcast (the MPICH 1.2 composition).
    pub fn allreduce_f64s(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        self.enter_collective();
        let out = self.allreduce_f64s_impl(data, op);
        self.exit_collective();
        out
    }

    /// Linear gather of per-rank payloads to `root`; returns the payloads
    /// in rank order at the root, `None` elsewhere.
    pub fn gather(&mut self, root: usize, payload: Bytes) -> Option<Vec<Bytes>> {
        self.enter_collective();
        let out = self.gather_impl(root, payload);
        self.exit_collective();
        out
    }

    /// Linear scatter of per-rank payloads from `root`; returns this
    /// rank's chunk.
    pub fn scatter(&mut self, root: usize, chunks: Option<Vec<Bytes>>) -> Bytes {
        self.enter_collective();
        let out = self.scatter_impl(root, chunks);
        self.exit_collective();
        out
    }

    /// Ring allgather: n−1 steps, each rank forwarding the newest block to
    /// its right neighbour. Returns all ranks' payloads in rank order.
    pub fn allgather(&mut self, payload: Bytes) -> Vec<Bytes> {
        self.enter_collective();
        let out = self.allgather_impl(payload);
        self.exit_collective();
        out
    }

    /// Pairwise-exchange all-to-all of synthetic `bytes`-per-peer messages.
    pub fn alltoall_size(&mut self, bytes: u64) {
        self.enter_collective();
        self.alltoall_size_impl(bytes);
        self.exit_collective();
    }

    /// Pairwise-exchange all-to-all with real payloads (one per peer, in
    /// rank order). Returns the payloads received, indexed by source rank.
    pub fn alltoall(&mut self, chunks: Vec<Bytes>) -> Vec<Bytes> {
        self.enter_collective();
        let out = self.alltoall_impl(chunks);
        self.exit_collective();
        out
    }
}

impl Rank {
    /// Dissemination barrier: ⌈log₂ n⌉ rounds of pairwise notifications.
    fn barrier_impl(&mut self) {
        let n = self.nranks();
        let r = self.rank();
        if n == 1 {
            return;
        }
        let mut k = 1usize;
        while k < n {
            let dst = (r + k) % n;
            let src = (r + n - k % n) % n;
            let sreq = self.isend_size(dst, TAG_BARRIER, 0);
            let _ = self.recv(src, TAG_BARRIER);
            self.wait(sreq);
            k <<= 1;
        }
    }

    /// Binomial-tree broadcast of a real payload from `root`. Every rank
    /// returns the payload.
    fn bcast_impl(&mut self, root: usize, payload: Option<Bytes>) -> Bytes {
        let n = self.nranks();
        let r = self.rank();
        let mut data = match payload {
            Some(p) if r == root => p,
            None if r == root => panic!("root must supply the broadcast payload"),
            _ => Bytes::new(),
        };
        if n == 1 {
            return data;
        }
        let vr = (r + n - root % n) % n;
        // Receive phase: find the subtree parent.
        let mut mask = 1usize;
        while mask < n {
            if vr & mask != 0 {
                let src = (vr - mask + root) % n;
                let (_, p) = self.recv(src, TAG_BCAST);
                data = p;
                break;
            }
            mask <<= 1;
        }
        // Send phase: fan out to children.
        mask >>= 1;
        while mask > 0 {
            if vr + mask < n {
                let dst = (vr + mask + root) % n;
                self.send(dst, TAG_BCAST, data.clone());
            }
            mask >>= 1;
        }
        data
    }

    /// Broadcast of a synthetic `bytes`-sized message (benchmark use).
    fn bcast_size_impl(&mut self, root: usize, bytes: u64) {
        let n = self.nranks();
        let r = self.rank();
        if n == 1 {
            return;
        }
        let vr = (r + n - root % n) % n;
        let mut mask = 1usize;
        while mask < n {
            if vr & mask != 0 {
                let src = (vr - mask + root) % n;
                let _ = self.recv(src, TAG_BCAST);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vr + mask < n {
                let dst = (vr + mask + root) % n;
                self.send_size(dst, TAG_BCAST, bytes);
            }
            mask >>= 1;
        }
    }

    /// Binomial-tree reduction of `f64` vectors to `root`. Returns the
    /// reduced vector at the root, `None` elsewhere.
    fn reduce_f64s_impl(&mut self, root: usize, data: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        let n = self.nranks();
        let r = self.rank();
        let mut acc = data.to_vec();
        if n == 1 {
            return Some(acc);
        }
        let vr = (r + n - root % n) % n;
        let mut mask = 1usize;
        while mask < n {
            if vr & mask == 0 {
                let peer = vr | mask;
                if peer < n {
                    let src = (peer + root) % n;
                    let (_, p) = self.recv(src, TAG_REDUCE);
                    op.combine(&mut acc, &decode_f64s(&p));
                }
            } else {
                let dst = (vr - mask + root) % n;
                self.send(dst, TAG_REDUCE, encode_f64s(&acc));
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Allreduce = reduce-to-0 + broadcast (the MPICH 1.2 composition).
    fn allreduce_f64s_impl(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        let reduced = self.reduce_f64s_impl(0, data, op);
        let payload = reduced.map(|v| encode_f64s(&v));
        let out = self.bcast_impl(0, payload);
        decode_f64s(&out)
    }

    /// Linear gather of per-rank payloads to `root`; returns the payloads
    /// in rank order at the root, `None` elsewhere.
    fn gather_impl(&mut self, root: usize, payload: Bytes) -> Option<Vec<Bytes>> {
        let n = self.nranks();
        let r = self.rank();
        if r == root {
            let mut out: Vec<Bytes> = vec![Bytes::new(); n];
            out[root] = payload;
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    let (_, p) = self.recv(src, TAG_GATHER);
                    *slot = p;
                }
            }
            Some(out)
        } else {
            self.send(root, TAG_GATHER, payload);
            None
        }
    }

    /// Linear scatter of per-rank payloads from `root`; returns this
    /// rank's chunk.
    fn scatter_impl(&mut self, root: usize, chunks: Option<Vec<Bytes>>) -> Bytes {
        let n = self.nranks();
        let r = self.rank();
        if r == root {
            let Some(chunks) = chunks else {
                panic!("root must supply scatter chunks");
            };
            assert_eq!(chunks.len(), n, "scatter needs one chunk per rank");
            let mut reqs = Vec::new();
            for (dst, chunk) in chunks.iter().enumerate() {
                if dst != root {
                    reqs.push(self.isend(dst, TAG_SCATTER, chunk.clone()));
                }
            }
            let mine = chunks[root].clone();
            self.waitall(reqs);
            mine
        } else {
            let (_, p) = self.recv(root, TAG_SCATTER);
            p
        }
    }

    /// Ring allgather: n−1 steps, each rank forwarding the newest block to
    /// its right neighbour. Returns all ranks' payloads in rank order.
    fn allgather_impl(&mut self, payload: Bytes) -> Vec<Bytes> {
        let n = self.nranks();
        let r = self.rank();
        let mut out: Vec<Bytes> = vec![Bytes::new(); n];
        out[r] = payload;
        if n == 1 {
            return out;
        }
        let right = (r + 1) % n;
        let left = (r + n - 1) % n;
        let mut have = r; // index of the newest block we hold
        for _ in 0..n - 1 {
            let sreq = self.isend(right, TAG_ALLGATHER, out[have].clone());
            let (_, p) = self.recv(left, TAG_ALLGATHER);
            have = (have + n - 1) % n;
            out[have] = p;
            self.wait(sreq);
        }
        out
    }

    /// Pairwise-exchange all-to-all of synthetic `bytes`-per-peer messages.
    fn alltoall_size_impl(&mut self, bytes: u64) {
        let n = self.nranks();
        let r = self.rank();
        for step in 1..n {
            let dst = (r + step) % n;
            let src = (r + n - step) % n;
            let sreq = self.isend_size(dst, TAG_ALLTOALL, bytes);
            let _ = self.recv(src, TAG_ALLTOALL);
            self.wait(sreq);
        }
    }

    /// Pairwise-exchange all-to-all with real payloads (one per peer, in
    /// rank order). Returns the payloads received, indexed by source rank.
    fn alltoall_impl(&mut self, chunks: Vec<Bytes>) -> Vec<Bytes> {
        let n = self.nranks();
        let r = self.rank();
        assert_eq!(chunks.len(), n, "alltoall needs one chunk per rank");
        let mut out: Vec<Bytes> = vec![Bytes::new(); n];
        out[r] = chunks[r].clone();
        for step in 1..n {
            let dst = (r + step) % n;
            let src = (r + n - step) % n;
            let sreq = self.isend(dst, TAG_ALLTOALL, chunks[dst].clone());
            let (meta, p): (MsgMeta, Bytes) = self.recv(src, TAG_ALLTOALL);
            debug_assert_eq!(meta.src, src);
            out[src] = p;
            self.wait(sreq);
        }
        out
    }
}
