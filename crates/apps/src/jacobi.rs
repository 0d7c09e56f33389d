//! The Jacobi Iteration — the paper's §6 evaluation application
//! (regular-local communication class).
//!
//! Two forms are provided:
//!
//! - [`run_measured`] executes a *real* Jacobi program — actual `f32`
//!   stencil arithmetic on a 1-D row decomposition with halo exchange —
//!   on the simulated MPI world. Its virtual duration is the reproduction's
//!   "measured" execution time, and its numeric result is verifiable
//!   against a serial reference.
//! - [`model`] builds the equivalent PEVPM directive model (structurally
//!   identical to the paper's Figure 5 annotations; the annotation-derived
//!   variant is available via [`pevpm::parse_annotations`] on
//!   [`pevpm::JACOBI_FIG5`]).
//!
//! The communication structure is the paper's even/odd phased halo
//! exchange: even ranks send both halo rows first and then receive; odd
//! ranks receive first and then send.

use pevpm::model::build::*;
use pevpm::Model;
use pevpm_mpisim::{Rank, ReduceOp, RunReport, SimError, World, WorldConfig};
use std::sync::Arc;

use parking_lot::Mutex;

/// Configuration of a Jacobi run / model.
#[derive(Debug, Clone)]
pub struct JacobiConfig {
    /// Grid is `xsize × xsize` (the paper uses 256 so the problem fits in
    /// cache at every process count).
    pub xsize: usize,
    /// Iterations to run (the paper's evaluation uses 1000).
    pub iterations: usize,
    /// Measured serial compute time for one whole-grid iteration on one
    /// processor; each rank's per-iteration compute time is this over
    /// `numprocs`. The paper's Figure 5 constant is `3.24/numprocs` with
    /// no unit; we interpret it as **milliseconds** (3.24 ms/iteration ≈
    /// 80 Mflop/s on the 500 MHz P-III, and consistent with the paper's
    /// 11 h 15 m total processor time over 100 000-iteration runs),
    /// since 3.24 s/iteration would imply an absurd 80 flop/s.
    pub serial_secs: f64,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        JacobiConfig {
            xsize: 256,
            iterations: 1000,
            serial_secs: 3.24e-3,
        }
    }
}

impl JacobiConfig {
    /// Halo-row message size in bytes (`xsize * sizeof(float)`).
    pub fn halo_bytes(&self) -> u64 {
        (self.xsize * 4) as u64
    }
}

/// Result of a measured Jacobi execution.
#[derive(Debug, Clone)]
pub struct JacobiRun {
    /// The world's run report (virtual duration, network stats, …).
    pub report: RunReport,
    /// Total virtual execution time in seconds.
    pub time: f64,
    /// Sum over the final grid (identical across process counts for the
    /// same `xsize`/`iterations` — the correctness check).
    pub checksum: f64,
}

const TAG_UP: u64 = 1; // toward rank-1
const TAG_DOWN: u64 = 2; // toward rank+1

fn encode_f32s(row: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 4);
    for v in row {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
    assert!(bytes.len().is_multiple_of(4), "halo payload not whole f32s");
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// The initial condition: top boundary row = 1, all else 0 (a standard
/// heat-plate setup; any fixed boundary works for verification).
fn initial_row(global_row: usize, xsize: usize) -> Vec<f32> {
    if global_row == 0 {
        vec![1.0; xsize]
    } else {
        vec![0.0; xsize]
    }
}

/// Serial reference implementation, used by tests and for checksums.
pub fn serial_reference(xsize: usize, iterations: usize) -> f64 {
    let mut grid: Vec<Vec<f32>> = (0..xsize).map(|r| initial_row(r, xsize)).collect();
    let mut next = grid.clone();
    for _ in 0..iterations {
        for j in 1..xsize - 1 {
            for k in 1..xsize - 1 {
                next[j][k] =
                    0.25 * (grid[j][k - 1] + grid[j - 1][k] + grid[j][k + 1] + grid[j + 1][k]);
            }
        }
        std::mem::swap(&mut grid, &mut next);
    }
    grid.iter().flatten().map(|&v| v as f64).sum()
}

/// Execute the real Jacobi program on a simulated MPI world.
///
/// `world.nranks()` must divide `cfg.xsize`.
pub fn run_measured(world: WorldConfig, cfg: &JacobiConfig) -> Result<JacobiRun, SimError> {
    let nranks = world.nranks();
    assert!(nranks >= 1, "need at least one rank");
    assert!(
        cfg.xsize.is_multiple_of(nranks),
        "xsize {} must be divisible by nranks {nranks}",
        cfg.xsize
    );
    let cfg = cfg.clone();
    let checksum = Arc::new(Mutex::new(0.0f64));
    let checksum2 = checksum.clone();

    let report = World::run(world, move |rank| {
        run_rank(rank, &cfg, &checksum2);
    })?;

    let time = report.virtual_time.as_secs_f64();
    let checksum = *checksum.lock();
    Ok(JacobiRun {
        report,
        time,
        checksum,
    })
}

fn run_rank(rank: &mut Rank, cfg: &JacobiConfig, checksum: &Mutex<f64>) {
    let (r, n, x) = (rank.rank(), rank.nranks(), cfg.xsize);
    let rows = x / n;
    let first_global = r * rows;

    // Local slab with two ghost rows: indices 0 and rows+1.
    let mut grid: Vec<Vec<f32>> = std::iter::once(vec![0.0; x])
        .chain((0..rows).map(|j| initial_row(first_global + j, x)))
        .chain(std::iter::once(vec![0.0; x]))
        .collect();
    let mut next = grid.clone();

    let per_iter = cfg.serial_secs / n as f64;
    let even = r % 2 == 0;

    for _ in 0..cfg.iterations {
        // Halo exchange with the paper's even/odd phasing.
        if even {
            if r != 0 {
                rank.send(r - 1, TAG_UP, encode_f32s(&grid[1]));
            }
            if r != n - 1 {
                rank.send(r + 1, TAG_DOWN, encode_f32s(&grid[rows]));
                let (_, p) = rank.recv(r + 1, TAG_UP);
                grid[rows + 1] = decode_f32s(&p);
            }
            if r != 0 {
                let (_, p) = rank.recv(r - 1, TAG_DOWN);
                grid[0] = decode_f32s(&p);
            }
        } else {
            if r != n - 1 {
                let (_, p) = rank.recv(r + 1, TAG_UP);
                grid[rows + 1] = decode_f32s(&p);
            }
            let (_, p) = rank.recv(r - 1, TAG_DOWN);
            grid[0] = decode_f32s(&p);
            rank.send(r - 1, TAG_UP, encode_f32s(&grid[1]));
            if r != n - 1 {
                rank.send(r + 1, TAG_DOWN, encode_f32s(&grid[rows]));
            }
        }

        // Stencil update on interior points (global boundary rows/cols are
        // fixed).
        for j in 1..=rows {
            let gj = first_global + j - 1;
            if gj == 0 || gj == x - 1 {
                next[j].copy_from_slice(&grid[j]);
                continue;
            }
            for k in 1..x - 1 {
                next[j][k] =
                    0.25 * (grid[j][k - 1] + grid[j - 1][k] + grid[j][k + 1] + grid[j + 1][k]);
            }
            next[j][0] = grid[j][0];
            next[j][x - 1] = grid[j][x - 1];
        }
        for j in 1..=rows {
            std::mem::swap(&mut grid[j], &mut next[j]);
        }

        // Charge the calibrated serial compute time for this iteration.
        rank.compute_secs(per_iter);
    }

    // Verification: global checksum to rank 0.
    let local: f64 = grid[1..=rows].iter().flatten().map(|&v| v as f64).sum();
    if let Some(total) = rank.reduce_f64s(0, &[local], ReduceOp::Sum) {
        *checksum.lock() = total[0];
    }
}

/// Execute an *overlap-optimised* Jacobi variant: nonblocking halo
/// receives and sends are posted first, the interior rows (which do not
/// need halo data) are computed while the messages fly, and only the
/// boundary rows wait for the halos. The PEVPM counterpart is
/// [`model_overlap`]; comparing the two models *before writing this code*
/// is exactly the design-stage question §1 motivates PEVPM with.
pub fn run_measured_overlap(world: WorldConfig, cfg: &JacobiConfig) -> Result<JacobiRun, SimError> {
    let nranks = world.nranks();
    assert!(
        cfg.xsize.is_multiple_of(nranks),
        "xsize must divide by nranks"
    );
    let cfg = cfg.clone();
    let checksum = Arc::new(Mutex::new(0.0f64));
    let checksum2 = checksum.clone();

    let report = World::run(world, move |rank| {
        run_rank_overlap(rank, &cfg, &checksum2);
    })?;

    let time = report.virtual_time.as_secs_f64();
    let checksum = *checksum.lock();
    Ok(JacobiRun {
        report,
        time,
        checksum,
    })
}

fn run_rank_overlap(rank: &mut Rank, cfg: &JacobiConfig, checksum: &Mutex<f64>) {
    let (r, n, x) = (rank.rank(), rank.nranks(), cfg.xsize);
    let rows = x / n;
    let first_global = r * rows;

    let mut grid: Vec<Vec<f32>> = std::iter::once(vec![0.0; x])
        .chain((0..rows).map(|j| initial_row(first_global + j, x)))
        .chain(std::iter::once(vec![0.0; x]))
        .collect();
    let mut next = grid.clone();

    // Split the calibrated compute time: interior rows overlap the halo
    // exchange; the two boundary rows are computed after the waits.
    let per_iter = cfg.serial_secs / n as f64;
    let boundary_frac = if rows > 0 {
        (2.0 / rows as f64).min(1.0)
    } else {
        1.0
    };
    let interior_secs = per_iter * (1.0 - boundary_frac);
    let boundary_secs = per_iter * boundary_frac;

    let stencil_row = |grid: &Vec<Vec<f32>>, next: &mut Vec<Vec<f32>>, j: usize| {
        let gj = first_global + j - 1;
        if gj == 0 || gj == x - 1 {
            next[j].copy_from_slice(&grid[j]);
            return;
        }
        for k in 1..x - 1 {
            next[j][k] = 0.25 * (grid[j][k - 1] + grid[j - 1][k] + grid[j][k + 1] + grid[j + 1][k]);
        }
        next[j][0] = grid[j][0];
        next[j][x - 1] = grid[j][x - 1];
    };

    for _ in 0..cfg.iterations {
        // Post all nonblocking halo traffic up front.
        let rx_up = (r != 0).then(|| rank.irecv(r - 1, TAG_DOWN));
        let rx_down = (r != n - 1).then(|| rank.irecv(r + 1, TAG_UP));
        let tx_up = (r != 0).then(|| rank.isend(r - 1, TAG_UP, encode_f32s(&grid[1])));
        let tx_down = (r != n - 1).then(|| rank.isend(r + 1, TAG_DOWN, encode_f32s(&grid[rows])));

        // Interior rows overlap the transfers.
        for j in 2..rows {
            stencil_row(&grid, &mut next, j);
        }
        rank.compute_secs(interior_secs);

        // Complete the halos, then the boundary rows.
        if let Some(req) = rx_up {
            let (_, p) = rank.wait(req).expect("halo receive");
            grid[0] = decode_f32s(&p);
        }
        if let Some(req) = rx_down {
            let (_, p) = rank.wait(req).expect("halo receive");
            grid[rows + 1] = decode_f32s(&p);
        }
        stencil_row(&grid, &mut next, 1);
        if rows >= 2 {
            stencil_row(&grid, &mut next, rows);
        }
        rank.compute_secs(boundary_secs);
        if let Some(req) = tx_up {
            rank.wait(req);
        }
        if let Some(req) = tx_down {
            rank.wait(req);
        }

        for j in 1..=rows {
            std::mem::swap(&mut grid[j], &mut next[j]);
        }
    }

    let local: f64 = grid[1..=rows].iter().flatten().map(|&v| v as f64).sum();
    if let Some(total) = rank.reduce_f64s(0, &[local], ReduceOp::Sum) {
        *checksum.lock() = total[0];
    }
}

/// The PEVPM model of the overlap-optimised variant ([`run_measured_overlap`]):
/// nonblocking sends, nonblocking halo receives waited *after* the interior
/// compute.
pub fn model_overlap(cfg: &JacobiConfig) -> Model {
    use pevpm::model::Stmt;
    let halo = "xsize*sizeof(float)";
    let rows_per_proc = cfg.xsize; // per proc: xsize/numprocs, symbolic below
    let _ = rows_per_proc;
    Model::new()
        .with_param("xsize", cfg.xsize as f64)
        .with_param("iterations", cfg.iterations as f64)
        .with_param("tserial", cfg.serial_secs)
        .with_stmt(looped(
            "iterations",
            vec![
                // Post receives (handles) and sends.
                runon(
                    "procnum != 0",
                    vec![Stmt::Message {
                        kind: pevpm::MsgKind::Irecv,
                        size: e(halo),
                        from: e("procnum-1"),
                        to: e("procnum"),
                        handle: Some("up".into()),
                        label: Some("halo-irecv-up".into()),
                    }],
                ),
                runon(
                    "procnum != numprocs-1",
                    vec![Stmt::Message {
                        kind: pevpm::MsgKind::Irecv,
                        size: e(halo),
                        from: e("procnum+1"),
                        to: e("procnum"),
                        handle: Some("down".into()),
                        label: Some("halo-irecv-down".into()),
                    }],
                ),
                runon(
                    "procnum != 0",
                    vec![labelled(
                        isend(halo, "procnum", "procnum-1"),
                        "halo-isend-up",
                    )],
                ),
                runon(
                    "procnum != numprocs-1",
                    vec![labelled(
                        isend(halo, "procnum", "procnum+1"),
                        "halo-isend-down",
                    )],
                ),
                // Interior compute overlaps the transfers.
                labelled(
                    serial("tserial/numprocs * (1 - min(2*numprocs/(xsize), 1))"),
                    "stencil-interior",
                ),
                // Boundary rows need the halos.
                runon("procnum != 0", vec![labelled(wait("up"), "halo-wait-up")]),
                runon(
                    "procnum != numprocs-1",
                    vec![labelled(wait("down"), "halo-wait-down")],
                ),
                labelled(
                    serial("tserial/numprocs * min(2*numprocs/(xsize), 1)"),
                    "stencil-boundary",
                ),
            ],
        ))
}

/// Build the parametric PEVPM model of the Jacobi program — structurally
/// the paper's Figure 5 annotations, with `xsize`, `iterations` and the
/// serial constant (`tserial`) kept symbolic.
pub fn model(cfg: &JacobiConfig) -> Model {
    let halo = "xsize*sizeof(float)";
    Model::new()
        .with_param("xsize", cfg.xsize as f64)
        .with_param("iterations", cfg.iterations as f64)
        .with_param("tserial", cfg.serial_secs)
        .with_stmt(looped(
            "iterations",
            vec![
                runon2(
                    "procnum % 2 == 0",
                    vec![
                        runon(
                            "procnum != 0",
                            vec![labelled(send(halo, "procnum", "procnum-1"), "halo-send-up")],
                        ),
                        runon(
                            "procnum != numprocs-1",
                            vec![
                                labelled(send(halo, "procnum", "procnum+1"), "halo-send-down"),
                                labelled(recv(halo, "procnum+1", "procnum"), "halo-recv-down"),
                            ],
                        ),
                        runon(
                            "procnum != 0",
                            vec![labelled(recv(halo, "procnum-1", "procnum"), "halo-recv-up")],
                        ),
                    ],
                    "procnum % 2 != 0",
                    vec![
                        runon(
                            "procnum != numprocs-1",
                            vec![labelled(
                                recv(halo, "procnum+1", "procnum"),
                                "halo-recv-down",
                            )],
                        ),
                        labelled(recv(halo, "procnum-1", "procnum"), "halo-recv-up"),
                        labelled(send(halo, "procnum", "procnum-1"), "halo-send-up"),
                        runon(
                            "procnum != numprocs-1",
                            vec![labelled(
                                send(halo, "procnum", "procnum+1"),
                                "halo-send-down",
                            )],
                        ),
                    ],
                ),
                labelled(serial("tserial/numprocs"), "stencil-compute"),
            ],
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pevpm::timing::TimingModel;
    use pevpm::vm::{evaluate, EvalConfig};

    #[test]
    fn serial_reference_conserves_boundary() {
        // The top boundary stays 1.0; heat diffuses downward, so the
        // checksum grows with iterations.
        let c0 = serial_reference(16, 0);
        let c10 = serial_reference(16, 10);
        assert_eq!(c0, 16.0);
        assert!(c10 > c0);
    }

    #[test]
    fn measured_matches_serial_reference() {
        let cfg = JacobiConfig {
            xsize: 16,
            iterations: 8,
            serial_secs: 0.001,
        };
        let reference = serial_reference(16, 8);
        for nodes in [1usize, 2, 4] {
            let run = run_measured(WorldConfig::ideal(nodes, 1), &cfg).unwrap();
            assert!(
                (run.checksum - reference).abs() < 1e-6,
                "{nodes} ranks: checksum {} vs reference {reference}",
                run.checksum
            );
        }
    }

    #[test]
    fn measured_time_includes_compute_and_comm() {
        let cfg = JacobiConfig {
            xsize: 16,
            iterations: 4,
            serial_secs: 0.1,
        };
        let run = run_measured(WorldConfig::ideal(2, 1), &cfg).unwrap();
        // At least the per-rank compute: 4 iterations × 0.1/2 s.
        assert!(run.time >= 0.2, "time {}", run.time);
        // Messages: 4 iterations × 2 (one each way across the single cut).
        assert_eq!(run.report.messages as usize, 4 * 2 + 1 /* reduce */);
    }

    #[test]
    fn model_matches_fig5_structure() {
        let cfg = JacobiConfig::default();
        let m = model(&cfg);
        assert!(
            m.check_bindings(&Default::default()).is_ok(),
            "unbound model params"
        );
        // Evaluate with an analytic timing model; must not deadlock for
        // various process counts.
        for n in [1usize, 2, 4, 8] {
            let p = evaluate(
                &m,
                &EvalConfig::new(n).with_param("iterations", 3.0),
                &TimingModel::hockney(100e-6, 12.5e6),
            )
            .unwrap();
            assert!(p.makespan > 0.0);
        }
    }

    #[test]
    fn model_speedup_behaviour_is_sane() {
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 10,
            serial_secs: 3.24,
        };
        let m = model(&cfg);
        let timing = TimingModel::hockney(100e-6, 12.5e6);
        let t1 = evaluate(&m, &EvalConfig::new(1), &timing).unwrap().makespan;
        let t4 = evaluate(&m, &EvalConfig::new(4), &timing).unwrap().makespan;
        let speedup = t1 / t4;
        assert!(
            speedup > 2.0 && speedup < 4.0,
            "4-proc speedup should be sublinear but real: {speedup}"
        );
    }

    #[test]
    fn overlap_variant_is_numerically_identical() {
        let cfg = JacobiConfig {
            xsize: 16,
            iterations: 8,
            serial_secs: 0.001,
        };
        let reference = serial_reference(16, 8);
        for nodes in [1usize, 2, 4] {
            let run = run_measured_overlap(WorldConfig::ideal(nodes, 1), &cfg).unwrap();
            assert!(
                (run.checksum - reference).abs() < 1e-6,
                "{nodes} ranks: {} vs {reference}",
                run.checksum
            );
        }
    }

    #[test]
    fn overlap_variant_is_faster_when_comm_bound() {
        // Small compute, real network: overlap must beat the phased code.
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 40,
            serial_secs: 3.24e-3,
        };
        let phased = run_measured(WorldConfig::perseus(16, 1, 3), &cfg)
            .unwrap()
            .time;
        let overlap = run_measured_overlap(WorldConfig::perseus(16, 1, 3), &cfg)
            .unwrap()
            .time;
        assert!(
            overlap < phased,
            "overlap {overlap} should beat phased {phased}"
        );
    }

    #[test]
    fn overlap_model_predicts_the_improvement() {
        // The design-stage question: does PEVPM predict the same ranking
        // and roughly the same gain as actually implementing both codes?
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 40,
            serial_secs: 3.24e-3,
        };
        let timing = TimingModel::hockney(100e-6, 12.5e6);
        let phased = evaluate(&model(&cfg), &EvalConfig::new(16), &timing)
            .unwrap()
            .makespan;
        let overlap = evaluate(&model_overlap(&cfg), &EvalConfig::new(16), &timing)
            .unwrap()
            .makespan;
        assert!(
            overlap < phased,
            "model should predict overlap wins: {overlap} vs {phased}"
        );
    }

    #[test]
    fn fig5_annotations_agree_with_programmatic_model() {
        // The paper-listing model and the programmatic model must predict
        // the same makespan under a deterministic timing model, except for
        // the paper's hard-coded unguarded interior sends (identical for
        // even interior ranks).
        let fig5 = pevpm::parse_annotations(pevpm::JACOBI_FIG5).unwrap();
        let timing = TimingModel::hockney(100e-6, 12.5e6);
        let p_fig5 = evaluate(
            &fig5,
            &EvalConfig::new(4)
                .with_param("xsize", 256.0)
                .with_param("iterations", 5.0),
            &timing,
        )
        .unwrap();
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 5,
            serial_secs: 3.24,
        };
        let p_prog = evaluate(&model(&cfg), &EvalConfig::new(4), &timing).unwrap();
        let rel = (p_fig5.makespan - p_prog.makespan).abs() / p_prog.makespan;
        assert!(
            rel < 0.02,
            "fig5 {} vs programmatic {}",
            p_fig5.makespan,
            p_prog.makespan
        );
    }
}
