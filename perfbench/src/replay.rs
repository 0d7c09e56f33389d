//! Replay a measured run's inter-node transfers through a bare netsim
//! [`Network`], isolating packet-level dispatch cost from mpisim's rank
//! hand-off.
//!
//! The transfer list is computed from the per-rank trace: each traced
//! send between ranks on different nodes becomes one data transfer at the
//! call's start time, and a rendezvous-size send adds its RTS and CTS
//! control messages at the same instant. mpisim starts the data after the
//! CTS arrives, so the replay's timing is an approximation; its frame
//! count matches the run's whenever no frame was dropped.

use pevpm_mpisim::{TraceEvent, TraceKind, WorldConfig};
use pevpm_netsim::{NetStats, Network, Time};
use std::time::Instant;

/// A replay's outcome.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Transfers replayed.
    pub transfers: usize,
    /// The bare network's counters after the last delivery.
    pub stats: NetStats,
    /// Wall time of the dispatch loop, seconds.
    pub secs: f64,
}

/// The inter-node transfers of a traced run, sorted by start time:
/// `(start, src node, dst node, bytes)`.
pub fn transfers(
    world: &WorldConfig,
    traces: &[Vec<TraceEvent>],
) -> Vec<(Time, usize, usize, u64)> {
    let eager = world.protocol.eager_threshold;
    let ctrl = world.protocol.ctrl_bytes;
    let mut out = Vec::new();
    for (rank, events) in traces.iter().enumerate() {
        for e in events {
            let (TraceKind::Send | TraceKind::Isend, Some(peer)) = (e.kind, e.peer) else {
                continue;
            };
            let (src, dst) = (world.node_of(rank), world.node_of(peer));
            if src == dst {
                continue;
            }
            if e.bytes < eager {
                out.push((e.start, src, dst, e.bytes));
            } else {
                out.push((e.start, src, dst, ctrl));
                out.push((e.start, dst, src, ctrl));
                out.push((e.start, src, dst, e.bytes));
            }
        }
    }
    out.sort_by_key(|t| t.0);
    out
}

/// Replay `transfers` on a fresh network built from the run's cluster
/// configuration and seed.
pub fn replay(world: &WorldConfig, transfers: &[(Time, usize, usize, u64)]) -> Replay {
    let t0 = Instant::now();
    let mut net = Network::new(world.cluster.clone(), world.seed);
    for &(at, src, dst, bytes) in transfers {
        if at > net.now() {
            net.advance_until(at);
        }
        net.start_transfer(at.max(net.now()), src, dst, bytes);
    }
    net.run_to_completion();
    Replay {
        transfers: transfers.len(),
        stats: *net.stats(),
        secs: t0.elapsed().as_secs_f64(),
    }
}
