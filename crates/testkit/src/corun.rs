//! Co-simulation: interpret a [`TestProgram`] on real mpisim ranks.
//!
//! The same IR that lowers to a PEVPM model is executed here by
//! mpisim rank programs over the packet simulator, giving the
//! statistical and metamorphic oracles an independent ground truth. Tags
//! are derived from item positions so loop iterations reuse a tag —
//! matching stays FIFO per (source, tag), exactly like the model.

use crate::program::{Item, PairMode, TestProgram};
use pevpm::model::CollOp;
use pevpm_mpisim::{Rank, ReduceOp, SimError, SrcSel, World, WorldConfig};

fn run_items(rank: &mut Rank, items: &[Item], tag_base: u64) {
    let me = rank.rank();
    for (i, item) in items.iter().enumerate() {
        let tag = tag_base * 1024 + i as u64 + 1;
        match item {
            Item::ComputeAll { usecs } => rank.compute_secs(*usecs as f64 / 1e6),
            Item::Compute { proc, usecs } => {
                if me == *proc {
                    rank.compute_secs(*usecs as f64 / 1e6);
                }
            }
            Item::Pair {
                src,
                dst,
                bytes,
                mode,
            } => {
                if me == *src {
                    match mode {
                        PairMode::Isend => {
                            let req = rank.isend_size(*dst, tag, *bytes);
                            // The model's Isend is fire-and-forget; the
                            // request must still be completed before the
                            // rank exits, and completing it here keeps
                            // requests from accumulating across items.
                            rank.wait(req);
                        }
                        _ => rank.send_size(*dst, tag, *bytes),
                    }
                } else if me == *dst {
                    match mode {
                        PairMode::IrecvWait => {
                            let req = rank.irecv(*src, tag);
                            rank.wait(req);
                        }
                        _ => {
                            rank.recv(*src, tag);
                        }
                    }
                }
            }
            Item::WildcardSink {
                sink,
                senders,
                bytes,
            } => {
                if me == *sink {
                    for _ in senders {
                        rank.recv(SrcSel::Any, tag);
                    }
                } else if senders.contains(&me) {
                    rank.send_size(*sink, tag, *bytes);
                }
            }
            Item::Coll { op, bytes } => match op {
                CollOp::Barrier => rank.barrier(),
                CollOp::Bcast => rank.bcast_size(0, *bytes),
                CollOp::Reduce => {
                    let words = (*bytes / 8).max(1) as usize;
                    rank.reduce_f64s(0, &vec![1.0; words], ReduceOp::Sum);
                }
                CollOp::Allreduce => {
                    let words = (*bytes / 8).max(1) as usize;
                    rank.allreduce_f64s(&vec![1.0; words], ReduceOp::Sum);
                }
                CollOp::Alltoall => rank.alltoall_size(*bytes),
            },
            Item::Loop { count, body } => {
                for _ in 0..*count {
                    run_items(rank, body, tag);
                }
            }
            Item::OrphanRecv { .. } => {
                panic!("orphan receives cannot be co-simulated (they would hang)")
            }
        }
    }
}

/// Execute the program on the given world; returns the virtual makespan
/// in seconds.
pub fn simulate(prog: &TestProgram, world: WorldConfig) -> Result<f64, SimError> {
    assert_eq!(
        world.nranks(),
        prog.nprocs,
        "world shape must match the program's process count"
    );
    assert!(
        !prog.has_orphans(),
        "orphan receives cannot be co-simulated"
    );
    let items = prog.items.clone();
    let report = World::run(world, move |rank| {
        run_items(rank, &items, 0);
    })?;
    Ok(report.virtual_time.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    fn world_for(nprocs: usize, seed: u64) -> WorldConfig {
        WorldConfig::perseus(nprocs, 1, seed)
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let cfg = GenConfig {
            nprocs_min: 4,
            nprocs_max: 4,
            max_items: 6,
            ..GenConfig::default()
        };
        for seed in 0..5 {
            let p = generate(&cfg, seed);
            let a = simulate(&p, world_for(4, 99)).unwrap();
            let b = simulate(&p, world_for(4, 99)).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
            assert!(a > 0.0);
        }
    }

    #[test]
    fn all_item_kinds_execute() {
        use crate::program::{Item, PairMode, TestProgram};
        use pevpm::model::CollOp;
        let p = TestProgram {
            nprocs: 4,
            items: vec![
                Item::ComputeAll { usecs: 10 },
                Item::Compute { proc: 1, usecs: 5 },
                Item::Pair {
                    src: 0,
                    dst: 1,
                    bytes: 256,
                    mode: PairMode::Blocking,
                },
                Item::Pair {
                    src: 1,
                    dst: 2,
                    bytes: 64,
                    mode: PairMode::Isend,
                },
                Item::Pair {
                    src: 3,
                    dst: 0,
                    bytes: 64,
                    mode: PairMode::IrecvWait,
                },
                Item::WildcardSink {
                    sink: 2,
                    senders: vec![0, 1, 3],
                    bytes: 128,
                },
                Item::Loop {
                    count: 2,
                    body: vec![Item::Pair {
                        src: 2,
                        dst: 3,
                        bytes: 64,
                        mode: PairMode::Blocking,
                    }],
                },
                Item::Coll {
                    op: CollOp::Barrier,
                    bytes: 0,
                },
                Item::Coll {
                    op: CollOp::Allreduce,
                    bytes: 64,
                },
            ],
        };
        let t = simulate(&p, world_for(4, 1)).unwrap();
        assert!(t > 15e-6, "all compute plus communication: {t}");
    }
}
