//! `measure-halo`: ground truth. The real Jacobi program (f32 stencil plus
//! 1 KiB eager halo exchange) runs on mpisim over the Perseus netsim
//! model at 16x2; many small messages make it bound by mpisim's rank
//! hand-off.

use crate::predict::{count_sends, set_sim_metrics, sys_frac};
use crate::{mix, replay, Opts, Report, Size, Tracer};
use crate::{repeated_setup, set_op_metrics, set_overhead, timed_loop, windows};
use pevpm_apps::jacobi::{self, JacobiConfig, JacobiRun};
use pevpm_mpisim::{SimError, WorldConfig};
use std::time::Instant;

struct Params {
    nodes: usize,
    ppn: usize,
    jacobi: JacobiConfig,
}

fn params(size: Size) -> Params {
    let iterations = match size {
        Size::Full => 200,
        Size::Smoke => 20,
    };
    let (nodes, ppn) = match size {
        Size::Full => (16, 2),
        Size::Smoke => (4, 2),
    };
    Params {
        nodes,
        ppn,
        jacobi: JacobiConfig {
            iterations,
            ..JacobiConfig::default()
        },
    }
}

/// Run the workload.
pub fn run(opts: &Opts, tracer: &Tracer) -> Report {
    let p = params(opts.size);
    let mut rep = Report::default();
    let world_seed = mix(opts.seed);
    let world = WorldConfig::perseus(p.nodes, p.ppn, world_seed);
    rep.param("shape", format!("{}x{}", p.nodes, p.ppn));
    rep.param(
        "jacobi",
        format!("{}^2 x {} iterations", p.jacobi.xsize, p.jacobi.iterations),
    );
    rep.param("world_seed", world_seed);

    // Set-up: the serial reference the checksum is checked against, and
    // one short warm-up run that brings up the rank threads once.
    let warm = JacobiConfig {
        iterations: 2,
        ..p.jacobi.clone()
    };
    let (reference, setup_s) = repeated_setup(opts, || {
        tracer.span("bench.setup", || {
            let reference = jacobi::serial_reference(p.jacobi.xsize, p.jacobi.iterations);
            let _ = tracer.span("mpisim.run", || jacobi::run_measured(world.clone(), &warm));
            reference
        })
    });
    rep.set("setup_s", setup_s);

    let mut first: Option<(u64, u64)> = None;
    let mut check = |rep: &mut Report, run: Result<JacobiRun, SimError>| -> Option<JacobiRun> {
        match run {
            Ok(run) => {
                let ok_sum = (run.checksum - reference).abs() <= 1e-9 * reference.abs().max(1.0);
                rep.check(ok_sum, || {
                    format!("checksum {} != serial reference {reference}", run.checksum)
                });
                let bits = (run.time.to_bits(), run.checksum.to_bits());
                let expect = *first.get_or_insert(bits);
                rep.check(bits == expect, || {
                    format!("virtual time {} differs across repeats", run.time)
                });
                Some(run)
            }
            Err(e) => {
                rep.fail(format!("measured run failed: {e}"));
                None
            }
        }
    };

    let (untraced_s, traced_s) = windows(opts);
    let w = timed_loop(untraced_s, 3, || {
        let run = jacobi::run_measured(world.clone(), &p.jacobi);
        check(&mut rep, run);
    });
    set_op_metrics(&mut rep, &w, w.times.len());
    let times = w.times;
    rep.note_timing("measure_s (one measured run)", "s", 1.0, &times);

    if opts.trace {
        let mut traced_world = world.clone();
        traced_world.record_trace = true;
        let mut runs = Vec::new();
        let ttimes = timed_loop(traced_s, 2, || {
            let cpu0 = crate::cpu_ticks();
            let t = Instant::now();
            let run = tracer.span("bench.op", || {
                tracer.span("mpisim.run", || {
                    jacobi::run_measured(traced_world.clone(), &p.jacobi)
                })
            });
            let run_s = t.elapsed().as_secs_f64();
            let sys = sys_frac(cpu0, crate::cpu_ticks());
            if let Some(run) = check(&mut rep, run) {
                runs.push((run, run_s, sys));
            }
        })
        .times;
        set_overhead(&mut rep, &times, &ttimes);
        rep.set(
            "trace.coverage",
            crate::trace::coverage(&tracer.spans(), "bench.op"),
        );
        // Per-layer numbers come from the median traced run.
        runs.sort_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((run, run_s, sys)) = runs.get(runs.len() / 2) {
            let traces = run.report.traces.as_deref().unwrap_or_default();
            let r = tracer.span("netsim.replay", || {
                replay::replay(&traced_world, &replay::transfers(&traced_world, traces))
            });
            let st = &run.report.net_stats;
            set_sim_metrics(&mut rep, *run_s, run.report.messages, *sys, &r, st);
            rep.note(format!(
                "replay frames {} vs run frames {}: {}; traced sends {}",
                r.stats.frames_sent,
                st.frames_sent,
                if r.stats.frames_sent == st.frames_sent {
                    "equal"
                } else {
                    "differ"
                },
                count_sends(traces)
            ));
        }
    }
    rep
}
