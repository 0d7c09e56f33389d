//! Golden `RunReport`s: exact virtual times, clocks, network statistics,
//! message counts and digests of traces and fault events for a fixed set
//! of worlds, plus the exact deadlock and deadline errors.
//!
//! The values pin the simulator's observable behaviour, so any change to
//! how ranks are scheduled or messages progress that alters a single bit
//! of a report fails here. Each world covers one engine path: eager and
//! rendezvous point-to-point, wildcard receives with `test` polling,
//! collectives, fault-driven drops and retransmissions, and intra-node
//! traffic.

use pevpm_mpisim::{FaultPlan, RunReport, SimError, SrcSel, TagSel, World, WorldConfig};
use pevpm_netsim::Dur;
use pevpm_netsim::LinkFlap;

/// FNV-1a over a string: a stable digest independent of std's hasher.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One line holding every pinned field of a report.
fn summary(r: &RunReport) -> String {
    let clocks: Vec<u64> = r.clocks.iter().map(|t| t.0).collect();
    let traces = r.traces.as_ref().map(|t| fnv(&format!("{t:?}")));
    format!(
        "vt={} clocks={clocks:?} net={:?} msgs={} traces={traces:?} faults={}:{:x}",
        r.virtual_time.0,
        r.net_stats,
        r.messages,
        r.fault_events.len(),
        fnv(&format!("{:?}", r.fault_events)),
    )
}

fn traced(mut cfg: WorldConfig) -> WorldConfig {
    cfg.record_trace = true;
    cfg
}

/// 8x2 ring: every rank exchanges eager (1 KiB) and rendezvous (64 KiB)
/// messages with its neighbours, by blocking calls on even ranks and by
/// `isend`/`irecv`/`wait` on odd ones, with compute in between.
fn ring() -> RunReport {
    World::run(traced(WorldConfig::perseus(8, 2, 5)), |rank| {
        let n = rank.nranks();
        let me = rank.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        for round in 0..3u64 {
            for &bytes in &[1024u64, 64 * 1024] {
                let tag = round * 10 + bytes / 1024;
                if me % 2 == 0 {
                    rank.send_size(right, tag, bytes);
                    let (meta, _) = rank.recv(left, tag);
                    assert_eq!(meta.bytes, bytes);
                } else {
                    let rx = rank.irecv(left, tag);
                    let tx = rank.isend_size(right, tag, bytes);
                    rank.wait(rx);
                    rank.wait(tx);
                }
                rank.compute(Dur::from_micros(10 + me as u64));
            }
        }
    })
    .unwrap()
}

/// Rank 0 collects from everyone with wildcard receives, polling with
/// `test`; the others send at staggered times with distinct tags.
fn wildcard() -> RunReport {
    World::run(traced(WorldConfig::perseus(4, 1, 7)), |rank| {
        let n = rank.nranks();
        if rank.rank() == 0 {
            for _ in 0..2 * (n - 1) {
                let req = rank.irecv(SrcSel::Any, TagSel::Any);
                let (meta, payload) = loop {
                    if let Some(done) = rank.test(req) {
                        break done.unwrap();
                    }
                    rank.compute(Dur::from_micros(25));
                };
                assert_eq!(payload.len() as u64, meta.bytes);
            }
            let (meta, _) = rank.recv(SrcSel::Any, 99);
            assert_eq!(meta.tag, 99);
        } else {
            let me = rank.rank();
            rank.compute(Dur::from_micros(40 * me as u64));
            rank.send(0, me as u64, vec![me as u8; 100 * me]);
            rank.send(0, 50 + me as u64, vec![0u8; 20_000]);
            if me == n - 1 {
                rank.send(0, 99, vec![1u8; 8]);
            }
        }
    })
    .unwrap()
}

/// Barrier, allreduce, alltoall and broadcast on 4x2.
fn collectives() -> RunReport {
    World::run(traced(WorldConfig::perseus(4, 2, 9)), |rank| {
        let n = rank.nranks();
        rank.compute(Dur::from_micros(7 * rank.rank() as u64));
        rank.barrier();
        let sum = rank.allreduce_f64s(&[rank.rank() as f64, 1.0], pevpm_mpisim::ReduceOp::Sum);
        assert_eq!(sum[1], n as f64);
        rank.alltoall_size(4096);
        let chunks = (0..n).map(|i| vec![i as u8; 300].into()).collect();
        let got = rank.alltoall(chunks);
        assert_eq!(got.len(), n);
        rank.bcast_size(0, 40_000);
        rank.barrier();
    })
    .unwrap()
}

/// A lossy network with a link flap: drops and retransmissions.
fn faulted() -> RunReport {
    let mut cfg = traced(WorldConfig::perseus(4, 1, 3));
    cfg.cluster.faults = Some(FaultPlan {
        loss_prob: 0.05,
        flaps: vec![LinkFlap {
            node: 1,
            from_secs: 0.0005,
            to_secs: 0.002,
        }],
        ..FaultPlan::default()
    });
    World::run(cfg, |rank| {
        let n = rank.nranks();
        let me = rank.rank();
        for round in 0..4u64 {
            rank.sendrecv_size((me + 1) % n, round, 32 * 1024, (me + n - 1) % n, round);
        }
    })
    .unwrap()
}

/// Four ranks on one node: all traffic takes the shared-memory path.
fn intra_node() -> RunReport {
    World::run(traced(WorldConfig::perseus(1, 4, 1)), |rank| {
        let n = rank.nranks();
        let me = rank.rank();
        for round in 0..3u64 {
            let tx = rank.isend((me + 1) % n, round, vec![me as u8; 50_000]);
            rank.recv((me + n - 1) % n, round);
            rank.wait(tx);
        }
    })
    .unwrap()
}

#[test]
fn ring_8x2_report_is_pinned() {
    assert_eq!(summary(&ring()), RING);
}

#[test]
fn wildcard_and_test_polling_report_is_pinned() {
    assert_eq!(summary(&wildcard()), WILDCARD);
}

#[test]
fn collectives_report_is_pinned() {
    assert_eq!(summary(&collectives()), COLLECTIVES);
}

#[test]
fn faulted_report_is_pinned() {
    let r = faulted();
    assert!(r.net_stats.frames_dropped > 0 && r.net_stats.retransmissions > 0);
    assert!(!r.fault_events.is_empty());
    assert_eq!(summary(&r), FAULTED);
}

#[test]
fn intra_node_report_is_pinned() {
    let r = intra_node();
    assert_eq!(r.net_stats.frames_sent, 0);
    assert_eq!(summary(&r), INTRA_NODE);
}

#[test]
fn deadlock_error_is_pinned() {
    // Rank 0 blocks in a rendezvous send nobody receives, rank 1 in a
    // receive nobody sends, rank 2 in a wait on such a receive; rank 3
    // finishes and is not listed.
    let err = World::run(WorldConfig::perseus(4, 1, 2), |rank| match rank.rank() {
        0 => rank.send_size(1, 0, 64 * 1024),
        1 => {
            rank.recv(2, 5);
        }
        2 => {
            let req = rank.irecv(0, 9);
            rank.wait(req);
        }
        _ => rank.compute(Dur::from_micros(3)),
    })
    .unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }));
    assert_eq!(format!("{err:?}"), DEADLOCK_DEBUG);
    assert_eq!(err.to_string(), DEADLOCK_TEXT);
}

#[test]
fn deadline_error_is_pinned() {
    let mut cfg = WorldConfig::perseus(2, 1, 4);
    cfg.virtual_deadline = Some(Dur::from_millis(1));
    let err = World::run(cfg, |rank| {
        let peer = 1 - rank.rank();
        for i in 0.. {
            if rank.rank() == 0 {
                rank.send_size(peer, i, 2048);
                rank.recv(peer, i);
            } else {
                rank.recv(peer, i);
                rank.send_size(peer, i, 2048);
            }
        }
    })
    .unwrap_err();
    assert_eq!(format!("{err:?}"), DEADLINE_DEBUG);
}

const RING: &str =
    "vt=19398436 clocks=[19317891, 13992287, 19344226, 14007311, 19313332, 13980782, 19305441, 14049609, 19355585, 14040289, 19394431, 14035389, 19372960, 14047080, 19398436, 14002350] net=NetStats { frames_sent: 1128, frames_dropped: 0, retransmissions: 0, transfers_completed: 144, bytes_delivered: 3197952, events_processed: 4560, trunk_bytes: 0, trunk_peak_backlog: 0, faults_injected_losses: 0, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 } msgs=96 traces=Some(9958533041701375701) faults=0:9612b07b5ecb5a5";
const WILDCARD: &str =
    "vt=6305025 clocks=[6305025, 432732, 2504755, 4589651] net=NetStats { frames_sent: 52, frames_dropped: 0, retransmissions: 0, transfers_completed: 13, bytes_delivered: 60992, events_processed: 208, trunk_bytes: 0, trunk_peak_backlog: 0, faults_injected_losses: 0, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 } msgs=7 traces=Some(4921816025450347369) faults=0:9612b07b5ecb5a5";
const COLLECTIVES: &str =
    "vt=14515863 clocks=[14400480, 14392982, 14459911, 14391776, 14463875, 14446618, 14515863, 14329818] net=NetStats { frames_sent: 325, frames_dropped: 0, retransmissions: 0, transfers_completed: 187, bytes_delivered: 526784, events_processed: 1336, trunk_bytes: 0, trunk_peak_backlog: 0, faults_injected_losses: 0, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 } msgs=181 traces=Some(9104492793362623453) faults=0:9612b07b5ecb5a5";
const FAULTED: &str =
    "vt=586471831 clocks=[315851477, 586471831, 319343450, 326395046] net=NetStats { frames_sent: 631, frames_dropped: 40, retransmissions: 18, transfers_completed: 48, bytes_delivered: 526336, events_processed: 2423, trunk_bytes: 0, trunk_peak_backlog: 0, faults_injected_losses: 29, faults_flap_drops: 11, faults_paused_frames: 0, faults_background_transfers: 0 } msgs=16 traces=Some(15514961107962747759) faults=40:88d3721a45b161bd";
const INTRA_NODE: &str =
    "vt=1209999 clocks=[1209999, 1209999, 1209999, 1209999] net=NetStats { frames_sent: 0, frames_dropped: 0, retransmissions: 0, transfers_completed: 12, bytes_delivered: 600000, events_processed: 12, trunk_bytes: 0, trunk_peak_backlog: 0, faults_injected_losses: 0, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 } msgs=12 traces=Some(6265053400828369649) faults=0:9612b07b5ecb5a5";
const DEADLOCK_DEBUG: &str =
    "Deadlock { time: Time(72435), blocked: [(0, \"Send(dst=1, tag=0, bytes=65536) [rendezvous]\"), (1, \"Recv(src=Rank(2), tag=Tag(5))\"), (2, \"Wait(req=0)\")] }";
const DEADLOCK_TEXT: &str = "deadlock at 0.000072s: rank 0 blocked in Send(dst=1, tag=0, bytes=65536) [rendezvous], rank 1 blocked in Recv(src=Rank(2), tag=Tag(5)), rank 2 blocked in Wait(req=0)";
const DEADLINE_DEBUG: &str = "DeadlineExceeded { time: Time(1076914) }";
