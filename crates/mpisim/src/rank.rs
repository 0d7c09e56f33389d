//! The per-process MPI handle available inside rank programs.
//!
//! A [`Rank`] is handed to the user closure by [`crate::World::run`]. Its
//! methods mirror the MPI point-to-point interface (`send`/`isend`/`recv`/
//! `irecv`/`wait`/`test`) plus virtual-clock access ([`Rank::now`],
//! [`Rank::compute`]). Collective operations live in
//! [`crate::collectives`] as further methods on this type.
//!
//! Every method is a *syscall*: the calling rank thread, which holds the
//! baton, executes it on the shared engine and returns once the scheduler
//! has decided the operation's completion time, so virtual time flows
//! correctly no matter what real-time interleaving the OS picks.

use crate::msg::{Call, MsgMeta, Reply, Request, SimAborted, SrcSel, TagSel};
use crate::sched::Baton;
use crate::trace::{TraceEvent, TraceKind};
use bytes::Bytes;
use pevpm_netsim::{Dur, Time};
use std::sync::Arc;

/// Handle to one simulated MPI process.
pub struct Rank {
    id: usize,
    nranks: usize,
    node: usize,
    clock: Time,
    baton: Arc<Baton>,
    tracing: bool,
    trace: Vec<TraceEvent>,
    coll_depth: u32,
}

impl Rank {
    pub(crate) fn new(
        id: usize,
        nranks: usize,
        node: usize,
        baton: Arc<Baton>,
        tracing: bool,
    ) -> Self {
        Rank {
            id,
            nranks,
            node,
            clock: Time::ZERO,
            baton,
            tracing,
            trace: Vec::new(),
            coll_depth: 0,
        }
    }

    /// The program returned: hand in the trace and pass the baton on.
    pub(crate) fn finish(&mut self) {
        let trace = std::mem::take(&mut self.trace);
        self.baton.finish(self.id, trace);
    }

    pub(crate) fn enter_collective(&mut self) {
        self.coll_depth += 1;
    }

    pub(crate) fn exit_collective(&mut self) {
        self.coll_depth -= 1;
    }

    fn record(&mut self, kind: TraceKind, start: Time, peer: Option<usize>, bytes: u64) {
        if self.tracing {
            self.trace.push(TraceEvent {
                kind,
                start,
                end: self.clock,
                peer,
                bytes,
                in_collective: self.coll_depth > 0,
            });
        }
    }

    fn roundtrip(&mut self, call: Call) -> Reply {
        match self.baton.syscall(self.id, call) {
            Reply::Poison => std::panic::panic_any(SimAborted),
            reply => reply,
        }
    }

    /// This process's rank (0-based).
    pub fn rank(&self) -> usize {
        self.id
    }

    /// Total number of ranks in the world (MPI_Comm_size).
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The physical node hosting this rank.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Current virtual time on the globally synchronised clock.
    ///
    /// This is the capability MPIBench needs: every rank reads the *same*
    /// timebase, so `t_recv_end − t_send_start` across two different ranks
    /// is a meaningful single-message transfer time.
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Advance this rank's clock by a computation time (models a serial
    /// code segment of known duration).
    pub fn compute(&mut self, d: Dur) {
        let start = self.clock;
        match self.roundtrip(Call::Compute(d)) {
            Reply::Ok { clock } => self.clock = clock,
            r => unreachable!("unexpected reply to Compute: {r:?}"),
        }
        self.record(TraceKind::Compute, start, None, 0);
    }

    /// [`Rank::compute`] taking seconds.
    pub fn compute_secs(&mut self, secs: f64) {
        self.compute(Dur::from_secs_f64(secs));
    }

    /// Blocking standard-mode send of a real payload.
    pub fn send(&mut self, dst: usize, tag: u64, payload: impl Into<Bytes>) {
        let payload = payload.into();
        let bytes = payload.len() as u64;
        self.send_inner(dst, tag, bytes, payload);
    }

    /// Blocking send of a synthetic `bytes`-sized message with no payload
    /// (benchmark use: exercises the full protocol and network without
    /// materialising buffers).
    pub fn send_size(&mut self, dst: usize, tag: u64, bytes: u64) {
        self.send_inner(dst, tag, bytes, Bytes::new());
    }

    fn send_inner(&mut self, dst: usize, tag: u64, bytes: u64, payload: Bytes) {
        assert!(dst < self.nranks, "send to out-of-range rank {dst}");
        let start = self.clock;
        match self.roundtrip(Call::Send {
            dst,
            tag,
            bytes,
            payload,
        }) {
            Reply::Ok { clock } => self.clock = clock,
            r => unreachable!("unexpected reply to Send: {r:?}"),
        }
        self.record(TraceKind::Send, start, Some(dst), bytes);
    }

    /// Nonblocking send of a real payload.
    pub fn isend(&mut self, dst: usize, tag: u64, payload: impl Into<Bytes>) -> Request {
        let payload = payload.into();
        let bytes = payload.len() as u64;
        self.isend_inner(dst, tag, bytes, payload)
    }

    /// Nonblocking synthetic-size send.
    pub fn isend_size(&mut self, dst: usize, tag: u64, bytes: u64) -> Request {
        self.isend_inner(dst, tag, bytes, Bytes::new())
    }

    fn isend_inner(&mut self, dst: usize, tag: u64, bytes: u64, payload: Bytes) -> Request {
        assert!(dst < self.nranks, "isend to out-of-range rank {dst}");
        let start = self.clock;
        let req = match self.roundtrip(Call::Isend {
            dst,
            tag,
            bytes,
            payload,
        }) {
            Reply::Posted { clock, req } => {
                self.clock = clock;
                req
            }
            r => unreachable!("unexpected reply to Isend: {r:?}"),
        };
        self.record(TraceKind::Isend, start, Some(dst), bytes);
        req
    }

    /// Blocking receive. `src`/`tag` accept concrete values or the
    /// wildcards [`SrcSel::Any`] / [`TagSel::Any`].
    pub fn recv(&mut self, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> (MsgMeta, Bytes) {
        let start = self.clock;
        let (meta, payload) = match self.roundtrip(Call::Recv {
            src: src.into(),
            tag: tag.into(),
        }) {
            Reply::Msg {
                clock,
                meta,
                payload,
            } => {
                self.clock = clock;
                (meta, payload)
            }
            r => unreachable!("unexpected reply to Recv: {r:?}"),
        };
        self.record(TraceKind::Recv, start, Some(meta.src), meta.bytes);
        (meta, payload)
    }

    /// Nonblocking receive.
    pub fn irecv(&mut self, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> Request {
        match self.roundtrip(Call::Irecv {
            src: src.into(),
            tag: tag.into(),
        }) {
            Reply::Posted { clock, req } => {
                self.clock = clock;
                req
            }
            r => unreachable!("unexpected reply to Irecv: {r:?}"),
        }
    }

    /// Block until a request completes. Returns the message for receive
    /// requests, `None` for send requests.
    pub fn wait(&mut self, req: Request) -> Option<(MsgMeta, Bytes)> {
        let start = self.clock;
        let out = match self.roundtrip(Call::Wait { req }) {
            Reply::Ok { clock } => {
                self.clock = clock;
                None
            }
            Reply::Msg {
                clock,
                meta,
                payload,
            } => {
                self.clock = clock;
                Some((meta, payload))
            }
            r => unreachable!("unexpected reply to Wait: {r:?}"),
        };
        let peer = out.as_ref().map(|(m, _)| m.src);
        let bytes = out.as_ref().map(|(m, _)| m.bytes).unwrap_or(0);
        self.record(TraceKind::Wait, start, peer, bytes);
        out
    }

    /// Wait for every request in order.
    pub fn waitall(
        &mut self,
        reqs: impl IntoIterator<Item = Request>,
    ) -> Vec<Option<(MsgMeta, Bytes)>> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Nonblocking completion test. `Some(None)` = send request completed;
    /// `Some(Some(msg))` = receive completed; `None` = still pending.
    pub fn test(&mut self, req: Request) -> Option<Option<(MsgMeta, Bytes)>> {
        match self.roundtrip(Call::Test { req }) {
            Reply::TestResult { clock, done } => {
                self.clock = clock;
                done
            }
            r => unreachable!("unexpected reply to Test: {r:?}"),
        }
    }

    /// Combined send + receive (MPI_Sendrecv): posts the send without
    /// blocking, completes the receive, then waits out the send. Safe
    /// against the head-to-head exchange deadlock that two opposing
    /// blocking rendezvous sends would produce.
    pub fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: u64,
        payload: impl Into<Bytes>,
        src: impl Into<SrcSel>,
        recv_tag: impl Into<TagSel>,
    ) -> (MsgMeta, Bytes) {
        let req = self.isend(dst, send_tag, payload);
        let msg = self.recv(src, recv_tag);
        self.wait(req);
        msg
    }

    /// [`Rank::sendrecv`] with a synthetic send size.
    pub fn sendrecv_size(
        &mut self,
        dst: usize,
        send_tag: u64,
        bytes: u64,
        src: impl Into<SrcSel>,
        recv_tag: impl Into<TagSel>,
    ) -> (MsgMeta, Bytes) {
        let req = self.isend_size(dst, send_tag, bytes);
        let msg = self.recv(src, recv_tag);
        self.wait(req);
        msg
    }

    /// Send a slice of `f64`s (little-endian encoded).
    pub fn send_f64s(&mut self, dst: usize, tag: u64, data: &[f64]) {
        self.send(dst, tag, encode_f64s(data));
    }

    /// Nonblocking variant of [`Rank::send_f64s`].
    pub fn isend_f64s(&mut self, dst: usize, tag: u64, data: &[f64]) -> Request {
        self.isend(dst, tag, encode_f64s(data))
    }

    /// Receive a slice of `f64`s sent by [`Rank::send_f64s`].
    pub fn recv_f64s(
        &mut self,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> (MsgMeta, Vec<f64>) {
        let (meta, payload) = self.recv(src, tag);
        (meta, decode_f64s(&payload))
    }
}

/// Encode a `f64` slice as little-endian bytes.
pub fn encode_f64s(data: &[f64]) -> Bytes {
    let mut buf = Vec::with_capacity(data.len() * 8);
    for x in data {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(buf)
}

/// Decode bytes produced by [`encode_f64s`].
pub fn decode_f64s(b: &[u8]) -> Vec<f64> {
    assert!(
        b.len().is_multiple_of(8),
        "payload is not a whole number of f64s"
    );
    b.chunks_exact(8)
        .map(|c| {
            let mut le = [0u8; 8];
            le.copy_from_slice(c);
            f64::from_le_bytes(le)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_codec_roundtrip() {
        let xs = [0.0, -1.5, std::f64::consts::PI, f64::MAX];
        let enc = encode_f64s(&xs);
        assert_eq!(enc.len(), 32);
        assert_eq!(decode_f64s(&enc), xs);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn decode_rejects_ragged_payloads() {
        decode_f64s(&[1, 2, 3]);
    }
}
