//! The virtual-time scheduler and MPI message-progress engine.
//!
//! Ranks run as real OS threads, but **exactly one runs at a time**: the
//! one holding the *baton*. The engine state sits behind one mutex, and
//! every MPI call is a syscall the calling rank executes on it directly.
//! A nonblocking call (eager `send`, `isend`, `irecv`, `test`) returns at
//! once. A blocking call (rendezvous `send`, `recv`, `wait`, `compute`,
//! finishing) then advances the world — network events and rank wake-ups
//! in strict virtual-time order — until some rank is due. If that is the
//! caller, it carries on without a thread switch; otherwise the caller
//! puts the reply in the due rank's wake slot and parks on its own. So
//! only real rank switches cost a thread wake-up. This yields
//! deterministic simulation (per seed) while letting applications be
//! written as ordinary Rust functions.
//!
//! The message engine implements MPICH-1.2-like semantics:
//!
//! - **eager protocol** for messages under the threshold: data is pushed
//!   into the network immediately and buffered at the receiver if no
//!   matching receive is posted yet;
//! - **rendezvous protocol** (RTS → CTS → data) above the threshold — the
//!   cause of the 16 KB knee in the paper's Figure 2;
//! - envelope matching in **per-pair send order** (TCP streams are FIFO, so
//!   a retransmission stall delays everything behind it), with
//!   MPI_ANY_SOURCE / MPI_ANY_TAG wildcards and posted/unexpected queues;
//! - intra-node messages bypass the network (shared-memory path).
//!
//! Progress is idealised: protocol transitions (e.g. sending a CTS) happen
//! at their natural virtual time even if the host rank is blocked — i.e. an
//! asynchronous progress engine, unlike real MPICH 1.2 which progressed
//! only inside MPI calls. This is the right model for PEVPM comparison and
//! is documented in DESIGN.md.

use crate::config::WorldConfig;
use crate::msg::{Call, MsgMeta, Reply, Request, SimAborted, SrcSel, Tag, TagSel};
use crate::rank::Rank;
use crate::trace::TraceEvent;
use bytes::Bytes;
use pevpm_netsim::network::{Completion, NetStats, TransferId};
use pevpm_netsim::{Dur, FaultEvent, Network, Time};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Result of a completed simulation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time at which the last rank finished.
    pub virtual_time: Time,
    /// Final virtual clock of every rank.
    pub clocks: Vec<Time>,
    /// Network-level statistics.
    pub net_stats: NetStats,
    /// Total point-to-point messages sent (including collectives' internal
    /// messages).
    pub messages: u64,
    /// Per-rank operation timelines; `Some` when
    /// `WorldConfig::record_trace` was set.
    pub traces: Option<Vec<Vec<TraceEvent>>>,
    /// Injected-fault occurrences from the network's fault plan, for
    /// degraded-run reports and trace marks. Empty without a plan.
    pub fault_events: Vec<FaultEvent>,
}

/// Why a simulation failed.
#[derive(Debug, Clone)]
pub enum SimError {
    /// No rank can make progress and no network event is pending.
    Deadlock {
        /// Virtual time of the deadlock.
        time: Time,
        /// The blocked ranks and the operations they are stuck in.
        blocked: Vec<(usize, String)>,
    },
    /// A rank's program panicked.
    RankPanic {
        /// Which rank panicked.
        rank: usize,
        /// The panic message.
        message: String,
    },
    /// Virtual time exceeded `WorldConfig::virtual_deadline`.
    DeadlineExceeded {
        /// The deadline that was crossed.
        time: Time,
    },
    /// A benchmark replication worker panicked (caught and surfaced
    /// rather than aborting the process).
    ReplicaPanic {
        /// Replica index, when the panic is attributable to one.
        index: Option<usize>,
        /// The panic message.
        message: String,
    },
    /// A rank's call could not be carried out: it waited on or tested a
    /// request twice or one it was never given, or the engine found one
    /// of its own invariants broken while serving the rank.
    InvalidCall {
        /// The rank whose call failed.
        rank: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { time, blocked } => {
                write!(f, "deadlock at {time}: ")?;
                for (i, (r, d)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "rank {r} blocked in {d}")?;
                }
                Ok(())
            }
            SimError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::DeadlineExceeded { time } => {
                write!(f, "virtual deadline exceeded at {time}")
            }
            SimError::ReplicaPanic {
                index: Some(i),
                message,
            } => {
                write!(f, "replication {i} panicked: {message}")
            }
            SimError::ReplicaPanic {
                index: None,
                message,
            } => {
                write!(f, "replication worker panicked: {message}")
            }
            SimError::InvalidCall { rank, message } => {
                write!(f, "rank {rank} made an invalid call: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A simulated MPI world. Construct with a [`WorldConfig`] and run a rank
/// program over it.
pub struct World;

impl World {
    /// Run `program` once per rank and simulate until every rank returns.
    ///
    /// The closure receives a [`Rank`] handle; it may capture shared state
    /// (`Arc<Mutex<..>>`) to extract results — only the rank holding the
    /// baton runs, and collection vectors indexed per rank stay
    /// deterministic.
    pub fn run<F>(cfg: WorldConfig, program: F) -> Result<RunReport, SimError>
    where
        F: Fn(&mut Rank) + Send + Sync,
    {
        let nranks = cfg.nranks();
        assert!(nranks > 0, "world must have at least one rank");
        let shared = Arc::new(Baton::new(Engine::new(cfg.clone())));
        let baton: &Baton = &shared;
        let program = &program;

        std::thread::scope(|s| {
            for r in 0..nranks {
                let mut rank =
                    Rank::new(r, nranks, cfg.node_of(r), shared.clone(), cfg.record_trace);
                let spawned = std::thread::Builder::new().spawn_scoped(s, move || {
                    if !baton.wait_start(r) {
                        return;
                    }
                    let run = || {
                        program(&mut rank);
                        rank.finish();
                    };
                    match catch_unwind(AssertUnwindSafe(run)) {
                        Ok(()) => {}
                        // The world is being torn down; exit quietly.
                        Err(e) if e.is::<SimAborted>() => {}
                        Err(e) => baton.abort(r, panic_message(&e)),
                    }
                });
                if let Err(e) = spawned {
                    // Ranks already spawned are parked awaiting their
                    // first turn; failing the world releases them.
                    let message = format!("cannot spawn the rank thread: {e}");
                    baton.fail(&mut baton.lock(), SimError::RankPanic { rank: r, message });
                    return;
                }
            }
            baton.start();
        });

        let mut engine = baton.lock();
        match engine.failure.take() {
            Some(e) => Err(e),
            None => Ok(engine.report()),
        }
    }
}

fn panic_message(e: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Lock a mutex, recovering it if a panicking thread poisoned it: a rank
/// that panics inside a syscall must still be able to fail the world.
/// After such a panic the engine is only used to record the failure and
/// release the parked ranks, never to build a report.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One rank's wake slot: the reply that hands it the baton.
#[derive(Default)]
struct Slot {
    reply: Mutex<Option<Reply>>,
    posted: Condvar,
}

impl Slot {
    fn put(&self, reply: Reply) {
        *lock(&self.reply) = Some(reply);
        self.posted.notify_one();
    }

    /// Park until a reply is posted, and take it.
    fn take(&self) -> Reply {
        let mut slot = lock(&self.reply);
        loop {
            if let Some(reply) = slot.take() {
                return reply;
            }
            slot = self
                .posted
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The engine plus one wake slot per rank, shared by every rank thread.
/// A rank thread touches the engine only while it holds the baton.
pub(crate) struct Baton {
    engine: Mutex<Engine>,
    slots: Vec<Slot>,
}

impl Baton {
    fn new(engine: Engine) -> Self {
        let slots = (0..engine.clocks.len()).map(|_| Slot::default()).collect();
        Baton {
            engine: Mutex::new(engine),
            slots,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Engine> {
        lock(&self.engine)
    }

    /// Grant the first rank its turn.
    fn start(&self) {
        let mut engine = self.lock();
        let next = engine.dispatch();
        self.hand_off(engine, next);
    }

    /// Park rank `r` until its first turn. `false`: the world failed
    /// before the rank ever ran.
    fn wait_start(&self, r: usize) -> bool {
        matches!(self.slots[r].take(), Reply::Start)
    }

    /// Execute `call` for rank `r`, which holds the baton, and return its
    /// reply once `r` is due again. [`Reply::Poison`] means the world
    /// failed and the rank must unwind.
    pub(crate) fn syscall(&self, r: usize, call: Call) -> Reply {
        let mut engine = self.lock();
        if engine.failure.is_some() {
            return Reply::Poison;
        }
        let next = match engine.syscall(r, call) {
            Ok(Some(reply)) => return reply,
            Ok(None) => engine.dispatch(),
            Err(e) => Err(e),
        };
        match next {
            Ok(Some((due, reply))) if due == r => reply,
            next => {
                if self.hand_off(engine, next) {
                    self.slots[r].take()
                } else {
                    Reply::Poison
                }
            }
        }
    }

    /// Rank `r`'s program returned: record its trace and pass the baton
    /// on without parking.
    pub(crate) fn finish(&self, r: usize, trace: Vec<TraceEvent>) {
        let mut engine = self.lock();
        if engine.failure.is_some() {
            return;
        }
        let next = match engine.syscall(r, Call::Finish(trace)) {
            Ok(_) => engine.dispatch(),
            Err(e) => Err(e),
        };
        self.hand_off(engine, next);
    }

    /// Rank `r`'s program panicked: fail the world.
    fn abort(&self, r: usize, message: String) {
        pevpm_obs::diag::warn(&format!("mpisim: rank {r} aborted: {message}"));
        self.fail(&mut self.lock(), SimError::RankPanic { rank: r, message });
    }

    /// Pass the baton to the rank `next` names, or fail the world on an
    /// error. `false` when the world failed.
    fn hand_off(
        &self,
        mut engine: MutexGuard<'_, Engine>,
        next: Result<Option<(usize, Reply)>, SimError>,
    ) -> bool {
        match next {
            Ok(Some((due, reply))) => {
                drop(engine);
                self.slots[due].put(reply);
                true
            }
            // Every rank has finished.
            Ok(None) => true,
            Err(e) => {
                self.fail(&mut engine, e);
                false
            }
        }
    }

    /// Record the world's first error and release every unfinished rank
    /// with [`Reply::Poison`].
    fn fail(&self, engine: &mut Engine, e: SimError) {
        if engine.failure.is_none() {
            engine.failure = Some(e);
        }
        for (slot, &finished) in self.slots.iter().zip(&engine.finished) {
            if !finished {
                slot.put(Reply::Poison);
            }
        }
    }
}

type MsgId = usize;
type ReqId = usize;

/// Where an in-flight transfer fits in the MPI protocol.
#[derive(Debug, Clone, Copy)]
enum Purpose {
    /// Eager message: envelope + data together.
    EagerData(MsgId),
    /// Rendezvous request-to-send (envelope only).
    Rts(MsgId),
    /// Rendezvous clear-to-send (receiver → sender control).
    Cts(MsgId),
    /// Rendezvous payload.
    RndvData(MsgId),
}

/// Where a matched message must be delivered.
#[derive(Debug, Clone, Copy)]
enum RecvTarget {
    /// A rank blocked in `recv`.
    Block { rank: usize, post_time: Time },
    /// A nonblocking `irecv` request.
    Req { req: ReqId, post_time: Time },
}

impl RecvTarget {
    fn post_time(&self) -> Time {
        match self {
            RecvTarget::Block { post_time, .. } | RecvTarget::Req { post_time, .. } => *post_time,
        }
    }
}

/// Who is waiting for sender-side completion of a rendezvous message.
#[derive(Debug, Clone, Copy)]
enum SenderWait {
    Block(usize),
    Req(ReqId),
}

/// The call a rank is blocked in, formatted only if a deadlock report
/// needs it.
#[derive(Debug, Clone, Copy)]
enum Blocked {
    Send { dst: usize, tag: Tag, bytes: u64 },
    Recv { src: SrcSel, tag: TagSel },
    Wait(Request),
}

impl std::fmt::Display for Blocked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Blocked::Send { dst, tag, bytes } => {
                write!(f, "Send(dst={dst}, tag={tag}, bytes={bytes}) [rendezvous]")
            }
            Blocked::Recv { src, tag } => write!(f, "Recv(src={src:?}, tag={tag:?})"),
            Blocked::Wait(req) => write!(f, "Wait(req={})", req.0),
        }
    }
}

#[derive(Debug)]
struct Msg {
    src: usize,
    dst: usize,
    tag: Tag,
    bytes: u64,
    /// Released to the receiver on delivery.
    payload: Bytes,
    eager: bool,
    /// Per-(src,dst) send sequence number for envelope ordering.
    seq: u64,
    /// Envelope visible (in-order arrived) time.
    visible_at: Option<Time>,
    /// Receive target once matched (rendezvous keeps it until data lands).
    matched: Option<RecvTarget>,
    /// Sender waiting for rendezvous completion.
    sender_wait: Option<SenderWait>,
}

#[derive(Debug)]
enum ReqState {
    /// Send posted; completion time not yet known (rendezvous awaiting CTS).
    SendPending,
    /// Send will be locally complete at this time.
    SendDone(Time),
    /// Receive posted, not yet delivered.
    RecvPending,
    /// Receive delivered at this time with this envelope and payload.
    RecvDone(Time, MsgMeta, Bytes),
    /// Request already waited on.
    Consumed,
}

struct ReqEntry {
    state: ReqState,
    /// The rank that posted the request.
    owner: usize,
    /// Rank blocked in `wait` on this request, if any.
    waiter: Option<usize>,
}

struct Posted {
    src: SrcSel,
    tag: TagSel,
    target: RecvTarget,
}

/// Initial capacity of the engine's growing containers. They are sized on
/// the thread that builds the world, so their later growth (`realloc`)
/// stays in that thread's malloc arena instead of landing in the arena of
/// whichever rank thread happens to push first.
const PRESIZE: usize = 256;

struct Engine {
    cfg: WorldConfig,
    net: Network,
    clocks: Vec<Time>,
    ready: BinaryHeap<Reverse<(Time, u64, usize)>>,
    ready_seq: u64,
    pending_reply: Vec<Option<Reply>>,
    finished: Vec<bool>,
    nfinished: usize,
    blocked: Vec<Option<Blocked>>,
    /// The rank holding the baton, named by invariant errors.
    running: usize,
    /// The first error; set once the world has failed.
    failure: Option<SimError>,

    msgs: Vec<Msg>,
    purpose: HashMap<TransferId, Purpose>,
    pair_send_seq: HashMap<(usize, usize), u64>,
    pair_env_next: HashMap<(usize, usize), u64>,
    pair_env_buf: HashMap<(usize, usize), BTreeMap<u64, (MsgId, Time)>>,
    pair_env_visible: HashMap<(usize, usize), Time>,
    /// Per destination rank: visible but unmatched envelopes, in visible
    /// order (the "unexpected message queue").
    pending_env: Vec<VecDeque<MsgId>>,
    /// Per destination rank: posted but unmatched receives, in post order.
    posted: Vec<VecDeque<Posted>>,
    reqs: Vec<ReqEntry>,
    msg_count: u64,
    traces: Vec<Vec<TraceEvent>>,
}

impl Engine {
    fn new(cfg: WorldConfig) -> Self {
        let nranks = cfg.nranks();
        let net = Network::new(cfg.cluster.clone(), cfg.seed);
        let mut ready = BinaryHeap::new();
        for r in 0..nranks {
            ready.push(Reverse((Time::ZERO, r as u64, r)));
        }
        Engine {
            net,
            clocks: vec![Time::ZERO; nranks],
            ready,
            ready_seq: nranks as u64,
            pending_reply: (0..nranks).map(|_| Some(Reply::Start)).collect(),
            finished: vec![false; nranks],
            nfinished: 0,
            blocked: vec![None; nranks],
            running: 0,
            failure: None,
            msgs: Vec::with_capacity(PRESIZE),
            purpose: HashMap::with_capacity(PRESIZE),
            pair_send_seq: HashMap::new(),
            pair_env_next: HashMap::new(),
            pair_env_buf: HashMap::new(),
            pair_env_visible: HashMap::new(),
            pending_env: (0..nranks).map(|_| VecDeque::new()).collect(),
            posted: (0..nranks).map(|_| VecDeque::new()).collect(),
            reqs: Vec::with_capacity(PRESIZE),
            msg_count: 0,
            traces: (0..nranks).map(|_| Vec::new()).collect(),
            cfg,
        }
    }

    fn report(&mut self) -> RunReport {
        let virtual_time = self.clocks.iter().copied().max().unwrap_or(Time::ZERO);
        RunReport {
            virtual_time,
            clocks: self.clocks.clone(),
            net_stats: *self.net.stats(),
            messages: self.msg_count,
            traces: if self.cfg.record_trace {
                Some(std::mem::take(&mut self.traces))
            } else {
                None
            },
            fault_events: self.net.take_fault_events(),
        }
    }

    /// An [`SimError::InvalidCall`] naming the running rank.
    fn broken(&self, message: &str) -> SimError {
        SimError::InvalidCall {
            rank: self.running,
            message: format!("engine invariant broken: {message}"),
        }
    }

    /// CPU time the sender spends injecting a message of `bytes`.
    fn inj_cost(&self, bytes: u64) -> Dur {
        let c = &self.cfg.cluster;
        c.send_overhead + Dur::from_nanos(c.per_frame_overhead.as_nanos() * c.frames_for(bytes))
    }

    fn node(&self, rank: usize) -> usize {
        self.cfg.node_of(rank)
    }

    fn schedule_wake(&mut self, rank: usize, at: Time, reply: Reply) {
        debug_assert!(
            self.pending_reply[rank].is_none(),
            "double wake for rank {rank}"
        );
        self.pending_reply[rank] = Some(reply);
        self.blocked[rank] = None;
        self.ready_seq += 1;
        self.ready.push(Reverse((at, self.ready_seq, rank)));
    }

    /// Process all network events strictly up to time `t`, reacting to each
    /// completion at its own timestamp so protocol responses (CTS, data)
    /// are injected causally.
    fn advance_net(&mut self, t: Time) -> Result<(), SimError> {
        while let Some(tn) = self.net.next_event_time() {
            if tn > t {
                break;
            }
            for c in self.net.advance_until(tn) {
                self.handle_completion(c)?;
            }
        }
        Ok(())
    }

    /// Advance the world until some rank is due, and return it with the
    /// reply that resumes it; `None` once every rank has finished.
    fn dispatch(&mut self) -> Result<Option<(usize, Reply)>, SimError> {
        let nranks = self.cfg.nranks();
        let deadline = self.cfg.virtual_deadline.map(|d| Time::ZERO + d);
        loop {
            if self.nfinished == nranks {
                return Ok(None);
            }
            let t_rank = self.ready.peek().map(|Reverse((t, _, _))| *t);
            let t_net = self.net.next_event_time();
            let t_next = match (t_rank, t_net) {
                (None, None) => {
                    let blocked = self
                        .blocked
                        .iter()
                        .enumerate()
                        .filter(|(r, _)| !self.finished[*r])
                        .map(|(r, d)| {
                            let d = d.map_or_else(|| "<unknown>".into(), |d| d.to_string());
                            (r, d)
                        })
                        .collect();
                    let err = SimError::Deadlock {
                        time: self.net.now(),
                        blocked,
                    };
                    pevpm_obs::diag::debug(&format!("mpisim: {err}"));
                    return Err(err);
                }
                (Some(tr), Some(tn)) => tr.min(tn),
                (Some(tr), None) => tr,
                (None, Some(tn)) => tn,
            };
            if let Some(dl) = deadline {
                if t_next > dl {
                    pevpm_obs::diag::debug(&format!(
                        "mpisim: virtual deadline exceeded at {t_next}"
                    ));
                    return Err(SimError::DeadlineExceeded { time: t_next });
                }
            }
            // Network strictly first at equal times: completions at t may
            // wake ranks that then run at t.
            let net_first = match t_rank {
                None => true,
                Some(tr) => t_net.is_some_and(|tn| tn < tr),
            };
            if net_first {
                self.advance_net(t_next)?;
                continue;
            }
            let Some(Reverse((t, _, r))) = self.ready.pop() else {
                return Err(self.broken("ready queue emptied under the scheduler"));
            };
            self.advance_net(t)?;
            self.clocks[r] = self.clocks[r].max(t);
            self.running = r;
            let Some(reply) = self.pending_reply[r].take() else {
                return Err(self.broken("rank scheduled without a reply"));
            };
            return Ok(Some((r, reply)));
        }
    }

    /// Execute one syscall of the running rank `r`. `Some(reply)`: the
    /// call completed at once and `r` keeps the baton. `None`: `r` is
    /// blocked (or finished) until [`Engine::dispatch`] resumes it.
    fn syscall(&mut self, r: usize, call: Call) -> Result<Option<Reply>, SimError> {
        match call {
            Call::Finish(trace) => {
                self.finished[r] = true;
                self.nfinished += 1;
                if self.cfg.record_trace {
                    self.traces[r] = trace;
                }
                Ok(None)
            }
            Call::Compute(d) => {
                let wake = self.clocks[r] + d;
                self.clocks[r] = wake;
                self.schedule_wake(r, wake, Reply::Ok { clock: wake });
                Ok(None)
            }
            Call::Send {
                dst,
                tag,
                bytes,
                payload,
            } => {
                let local = self.node(r) == self.node(dst);
                let eager = local || bytes < self.cfg.protocol.eager_threshold;
                let mid = self.new_msg(r, dst, tag, bytes, payload, eager);
                if eager {
                    let t0 = self.clocks[r];
                    let tid = self
                        .net
                        .start_transfer(t0, self.node(r), self.node(dst), bytes);
                    self.purpose.insert(tid, Purpose::EagerData(mid));
                    let done = t0 + self.inj_cost(bytes);
                    self.clocks[r] = done;
                    // An eager send does not yield.
                    Ok(Some(Reply::Ok { clock: done }))
                } else {
                    self.post_rts(mid);
                    self.msgs[mid].sender_wait = Some(SenderWait::Block(r));
                    self.blocked[r] = Some(Blocked::Send { dst, tag, bytes });
                    Ok(None)
                }
            }
            Call::Isend {
                dst,
                tag,
                bytes,
                payload,
            } => {
                let local = self.node(r) == self.node(dst);
                let eager = local || bytes < self.cfg.protocol.eager_threshold;
                let mid = self.new_msg(r, dst, tag, bytes, payload, eager);
                let req = self.new_req(r);
                if eager {
                    let t0 = self.clocks[r];
                    let tid = self
                        .net
                        .start_transfer(t0, self.node(r), self.node(dst), bytes);
                    self.purpose.insert(tid, Purpose::EagerData(mid));
                    self.reqs[req].state = ReqState::SendDone(t0 + self.inj_cost(bytes));
                } else {
                    self.post_rts(mid);
                    self.msgs[mid].sender_wait = Some(SenderWait::Req(req));
                    self.reqs[req].state = ReqState::SendPending;
                }
                Ok(Some(Reply::Posted {
                    clock: self.clocks[r],
                    req: Request(req as u64),
                }))
            }
            Call::Recv { src, tag } => {
                let target = RecvTarget::Block {
                    rank: r,
                    post_time: self.clocks[r],
                };
                self.blocked[r] = Some(Blocked::Recv { src, tag });
                self.post_recv(r, src, tag, target)?;
                Ok(None)
            }
            Call::Irecv { src, tag } => {
                let req = self.new_req(r);
                self.reqs[req].state = ReqState::RecvPending;
                let target = RecvTarget::Req {
                    req,
                    post_time: self.clocks[r],
                };
                self.post_recv(r, src, tag, target)?;
                Ok(Some(Reply::Posted {
                    clock: self.clocks[r],
                    req: Request(req as u64),
                }))
            }
            Call::Wait { req } => {
                let rid = self.live_req(r, req, "waited on")?;
                match &self.reqs[rid].state {
                    ReqState::SendDone(t) => {
                        let wake = self.clocks[r].max(*t);
                        self.clocks[r] = wake;
                        self.reqs[rid].state = ReqState::Consumed;
                        self.schedule_wake(r, wake, Reply::Ok { clock: wake });
                    }
                    ReqState::RecvDone(..) => {
                        let ReqState::RecvDone(t, meta, payload) =
                            std::mem::replace(&mut self.reqs[rid].state, ReqState::Consumed)
                        else {
                            unreachable!()
                        };
                        let wake = self.clocks[r].max(t);
                        self.clocks[r] = wake;
                        self.schedule_wake(
                            r,
                            wake,
                            Reply::Msg {
                                clock: wake,
                                meta,
                                payload,
                            },
                        );
                    }
                    ReqState::SendPending | ReqState::RecvPending => {
                        self.reqs[rid].waiter = Some(r);
                        self.blocked[r] = Some(Blocked::Wait(req));
                    }
                    ReqState::Consumed => unreachable!("live_req admits no consumed request"),
                }
                Ok(None)
            }
            Call::Test { req } => {
                let rid = self.live_req(r, req, "tested")?;
                let clock = self.clocks[r];
                let done = match &self.reqs[rid].state {
                    ReqState::SendDone(t) if *t <= clock => {
                        self.reqs[rid].state = ReqState::Consumed;
                        Some(None)
                    }
                    ReqState::RecvDone(t, ..) if *t <= clock => {
                        let ReqState::RecvDone(_, meta, payload) =
                            std::mem::replace(&mut self.reqs[rid].state, ReqState::Consumed)
                        else {
                            unreachable!()
                        };
                        Some(Some((meta, payload)))
                    }
                    _ => None,
                };
                Ok(Some(Reply::TestResult { clock, done }))
            }
        }
    }

    /// The index of `req` if rank `r` may still wait on or test it: it was
    /// issued to `r` and has not completed through a wait or test yet.
    fn live_req(&self, r: usize, req: Request, verb: &str) -> Result<ReqId, SimError> {
        let rid = usize::try_from(req.0).unwrap_or(usize::MAX);
        let message = match self.reqs.get(rid) {
            None => format!("{verb} request {}, which was never issued", req.0),
            Some(e) if e.owner != r => {
                format!(
                    "{verb} request {}, which belongs to rank {}",
                    req.0, e.owner
                )
            }
            Some(e) if matches!(e.state, ReqState::Consumed) => {
                format!("{verb} request {} after it completed", req.0)
            }
            Some(_) => return Ok(rid),
        };
        Err(SimError::InvalidCall { rank: r, message })
    }

    fn new_msg(
        &mut self,
        src: usize,
        dst: usize,
        tag: Tag,
        bytes: u64,
        payload: Bytes,
        eager: bool,
    ) -> MsgId {
        let seq = self.pair_send_seq.entry((src, dst)).or_insert(0);
        let s = *seq;
        *seq += 1;
        self.msg_count += 1;
        self.msgs.push(Msg {
            src,
            dst,
            tag,
            bytes,
            payload,
            eager,
            seq: s,
            visible_at: None,
            matched: None,
            sender_wait: None,
        });
        self.msgs.len() - 1
    }

    fn new_req(&mut self, owner: usize) -> ReqId {
        self.reqs.push(ReqEntry {
            state: ReqState::SendPending,
            owner,
            waiter: None,
        });
        self.reqs.len() - 1
    }

    /// Send the rendezvous request-to-send control message.
    fn post_rts(&mut self, mid: MsgId) {
        let (src, dst) = (self.msgs[mid].src, self.msgs[mid].dst);
        let t0 = self.clocks[src];
        let ctrl = self.cfg.protocol.ctrl_bytes;
        let tid = self
            .net
            .start_transfer(t0, self.node(src), self.node(dst), ctrl);
        self.purpose.insert(tid, Purpose::Rts(mid));
    }

    fn matches(m: &Msg, src: SrcSel, tag: TagSel) -> bool {
        let src_ok = match src {
            SrcSel::Any => true,
            SrcSel::Rank(s) => m.src == s,
        };
        let tag_ok = match tag {
            TagSel::Any => true,
            TagSel::Tag(t) => m.tag == t,
        };
        src_ok && tag_ok
    }

    fn post_recv(
        &mut self,
        dst: usize,
        src: SrcSel,
        tag: TagSel,
        target: RecvTarget,
    ) -> Result<(), SimError> {
        let hit = self.pending_env[dst]
            .iter()
            .position(|&m| Self::matches(&self.msgs[m], src, tag));
        match hit.and_then(|pos| self.pending_env[dst].remove(pos)) {
            Some(mid) => self.match_msg(mid, target)?,
            None => self.posted[dst].push_back(Posted { src, tag, target }),
        }
        Ok(())
    }

    fn handle_completion(&mut self, c: Completion) -> Result<(), SimError> {
        let Some(purpose) = self.purpose.remove(&c.id) else {
            return Err(self.broken("completion for unknown transfer"));
        };
        match purpose {
            Purpose::EagerData(mid) | Purpose::Rts(mid) => {
                self.on_env_arrival(mid, c.delivered_at)?;
            }
            Purpose::Cts(mid) => {
                let (src, dst, bytes) =
                    (self.msgs[mid].src, self.msgs[mid].dst, self.msgs[mid].bytes);
                let t0 = c.delivered_at;
                let tid = self
                    .net
                    .start_transfer(t0, self.node(src), self.node(dst), bytes);
                self.purpose.insert(tid, Purpose::RndvData(mid));
                let done = t0 + self.inj_cost(bytes);
                match self.msgs[mid].sender_wait.take() {
                    Some(SenderWait::Block(r)) => {
                        self.clocks[r] = done;
                        self.schedule_wake(r, done, Reply::Ok { clock: done });
                    }
                    Some(SenderWait::Req(req)) => self.complete_send_req(req, done),
                    None => {}
                }
            }
            Purpose::RndvData(mid) => {
                let Some(target) = self.msgs[mid].matched.take() else {
                    return Err(self.broken("rendezvous data without a matched receive"));
                };
                let wake = c.delivered_at.max(target.post_time()) + self.cfg.protocol.match_cost;
                self.deliver(mid, target, wake);
            }
        }
        Ok(())
    }

    /// Envelope arrived on the wire: apply per-pair in-order visibility,
    /// then run matching for every envelope that became visible.
    fn on_env_arrival(&mut self, mid: MsgId, at: Time) -> Result<(), SimError> {
        let pair = (self.msgs[mid].src, self.msgs[mid].dst);
        self.pair_env_buf
            .entry(pair)
            .or_default()
            .insert(self.msgs[mid].seq, (mid, at));
        loop {
            let next = self.pair_env_next.entry(pair).or_insert(0);
            let Some((m2, a2)) = self
                .pair_env_buf
                .get_mut(&pair)
                .and_then(|b| b.remove(next))
            else {
                break;
            };
            *next += 1;
            let vis_entry = self.pair_env_visible.entry(pair).or_insert(Time::ZERO);
            let vis = a2.max(*vis_entry);
            *vis_entry = vis;
            self.on_envelope_visible(m2, vis)?;
        }
        Ok(())
    }

    fn on_envelope_visible(&mut self, mid: MsgId, visible: Time) -> Result<(), SimError> {
        self.msgs[mid].visible_at = Some(visible);
        let dst = self.msgs[mid].dst;
        let hit = self.posted[dst]
            .iter()
            .position(|p| Self::matches(&self.msgs[mid], p.src, p.tag));
        match hit.and_then(|pos| self.posted[dst].remove(pos)) {
            Some(p) => self.match_msg(mid, p.target)?,
            None => self.pending_env[dst].push_back(mid),
        }
        Ok(())
    }

    /// An envelope met a receive: deliver (eager) or start the rendezvous
    /// CTS handshake.
    fn match_msg(&mut self, mid: MsgId, target: RecvTarget) -> Result<(), SimError> {
        let Some(visible) = self.msgs[mid].visible_at else {
            return Err(self.broken("matching an envelope that is not visible"));
        };
        let tm = visible.max(target.post_time()) + self.cfg.protocol.match_cost;
        if self.msgs[mid].eager {
            self.deliver(mid, target, tm);
        } else {
            self.msgs[mid].matched = Some(target);
            let (src, dst) = (self.msgs[mid].src, self.msgs[mid].dst);
            let ctrl = self.cfg.protocol.ctrl_bytes;
            let tid = self
                .net
                .start_transfer(tm, self.node(dst), self.node(src), ctrl);
            self.purpose.insert(tid, Purpose::Cts(mid));
        }
        Ok(())
    }

    /// Hand message `mid` to its receive. The payload moves to the
    /// receiver; the engine keeps only the envelope.
    fn deliver(&mut self, mid: MsgId, target: RecvTarget, wake: Time) {
        let m = &mut self.msgs[mid];
        let meta = MsgMeta {
            src: m.src,
            tag: m.tag,
            bytes: m.bytes,
        };
        let payload = std::mem::take(&mut m.payload);
        match target {
            RecvTarget::Block { rank, .. } => {
                self.clocks[rank] = self.clocks[rank].max(wake);
                self.schedule_wake(
                    rank,
                    wake,
                    Reply::Msg {
                        clock: wake,
                        meta,
                        payload,
                    },
                );
            }
            RecvTarget::Req { req, .. } => {
                let waiter = self.reqs[req].waiter.take();
                match waiter {
                    Some(r) => {
                        let w = wake.max(self.clocks[r]);
                        self.clocks[r] = w;
                        self.reqs[req].state = ReqState::Consumed;
                        self.schedule_wake(
                            r,
                            w,
                            Reply::Msg {
                                clock: w,
                                meta,
                                payload,
                            },
                        );
                    }
                    None => {
                        self.reqs[req].state = ReqState::RecvDone(wake, meta, payload);
                    }
                }
            }
        }
    }

    fn complete_send_req(&mut self, req: ReqId, done: Time) {
        match self.reqs[req].waiter.take() {
            Some(r) => {
                let w = done.max(self.clocks[r]);
                self.clocks[r] = w;
                self.reqs[req].state = ReqState::Consumed;
                self.schedule_wake(r, w, Reply::Ok { clock: w });
            }
            None => self.reqs[req].state = ReqState::SendDone(done),
        }
    }
}
