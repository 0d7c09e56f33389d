//! `mpibench-large`: an MPIBench ring exchange at rendezvous sizes on
//! 32x1 Perseus, built into a distribution table and round-tripped
//! through the `dist::io` text format. Few rank hand-offs but many frames
//! per message and trunk contention, so netsim's per-frame work leads.

use crate::predict::{set_sim_metrics, sys_frac};
use crate::{median, mix, replay, Opts, Report, Size, Tracer};
use crate::{repeated_setup, set_op_metrics, set_overhead, timed_loop, windows};
use pevpm_dist::{io as dist_io, DistTable, Op};
use pevpm_mpibench::{run_p2p, Direction, P2pConfig, P2pResult, PairPattern};
use pevpm_mpisim::WorldConfig;
use std::time::Instant;

struct Params {
    nodes: usize,
    sizes: Vec<u64>,
    reps: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            nodes: 32,
            sizes: vec![64 * 1024, 256 * 1024],
            reps: 40,
        },
        Size::Smoke => Params {
            nodes: 4,
            sizes: vec![64 * 1024, 256 * 1024],
            reps: 4,
        },
    }
}

fn config(p: &Params, seed: u64, reps: usize, record_trace: bool) -> P2pConfig {
    let mut world = WorldConfig::perseus(p.nodes, 1, seed);
    world.record_trace = record_trace;
    P2pConfig {
        world,
        sizes: p.sizes.clone(),
        repetitions: reps,
        warmup: (reps / 10).max(2),
        sync_every: 1,
        pattern: PairPattern::Ring,
        direction: Direction::Exchange,
        clock: None,
    }
}

/// One sweep's products and the wall time of each step.
struct Sweep {
    result: P2pResult,
    text: String,
    roundtrip_ok: bool,
    run_s: f64,
    hist_s: f64,
    write_s: f64,
    read_s: f64,
    sys: f64,
}

fn sweep(cfg: &P2pConfig, tracer: &Tracer) -> Result<Sweep, String> {
    let cpu0 = crate::cpu_ticks();
    let t = Instant::now();
    let result = tracer
        .span("mpisim.run", || run_p2p(cfg))
        .map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    let sys = sys_frac(cpu0, crate::cpu_ticks());
    let t = Instant::now();
    let mut table = DistTable::new();
    tracer.span("mpibench.hist", || {
        result.add_to_table(&mut table, Op::Send, 100)
    });
    let hist_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let text = tracer.span("dist.write", || dist_io::write_table(&table));
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let back = tracer
        .span("dist.read", || dist_io::read_table(&text))
        .map_err(|e| e.to_string())?;
    let read_s = t.elapsed().as_secs_f64();
    let roundtrip_ok = tracer.span("dist.write", || dist_io::write_table(&back)) == text;
    Ok(Sweep {
        result,
        text,
        roundtrip_ok,
        run_s,
        hist_s,
        write_s,
        read_s,
        sys,
    })
}

/// Run the workload.
pub fn run(opts: &Opts, tracer: &Tracer) -> Report {
    let p = params(opts.size);
    let mut rep = Report::default();
    let seed = mix(opts.seed);
    rep.param("shape", format!("{}x1", p.nodes));
    rep.param(
        "sweep",
        format!(
            "ring exchange, sizes {:?}, {} reps, sync every rep",
            p.sizes, p.reps
        ),
    );
    rep.param("world_seed", seed);

    // Set-up: one short warm-up sweep (2 reps) that brings up the rank
    // threads and network state once.
    let warm = config(&p, seed, 2, false);
    let ((), setup_s) = repeated_setup(opts, || {
        tracer.span("bench.setup", || {
            let _ = sweep(&warm, tracer);
        })
    });
    rep.set("setup_s", setup_s);

    let cfg = config(&p, seed, p.reps, false);
    let mut first: Option<String> = None;
    let mut check = |rep: &mut Report, s: Result<Sweep, String>| -> Option<Sweep> {
        match s {
            Ok(s) => {
                rep.check(s.roundtrip_ok, || {
                    "read_table(write_table(t)) does not reproduce t".into()
                });
                let expect = first.get_or_insert_with(|| s.text.clone());
                rep.check(*expect == s.text, || {
                    "table text differs across repeats".into()
                });
                Some(s)
            }
            Err(e) => {
                rep.fail(format!("sweep failed: {e}"));
                None
            }
        }
    };

    let (untraced_s, traced_s) = windows(opts);
    let w = timed_loop(untraced_s, 3, || {
        check(&mut rep, sweep(&cfg, tracer));
    });
    set_op_metrics(&mut rep, &w, w.times.len());
    let times = w.times;
    rep.note_timing("table_build_s (one sweep)", "s", 1.0, &times);

    if opts.trace {
        let traced_cfg = config(&p, seed, p.reps, true);
        let mut sweeps = Vec::new();
        let ttimes = timed_loop(traced_s, 2, || {
            let s = tracer.span("bench.op", || sweep(&traced_cfg, tracer));
            if let Some(s) = check(&mut rep, s) {
                sweeps.push(s);
            }
        })
        .times;
        set_overhead(&mut rep, &times, &ttimes);
        rep.set(
            "trace.coverage",
            crate::trace::coverage(&tracer.spans(), "bench.op"),
        );
        sweeps.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
        if let Some(s) = sweeps.get(sweeps.len() / 2) {
            let traces = s.result.traces.as_deref().unwrap_or_default();
            let world = &traced_cfg.world;
            let r = tracer.span("netsim.replay", || {
                replay::replay(world, &replay::transfers(world, traces))
            });
            set_sim_metrics(
                &mut rep,
                s.run_s,
                crate::predict::count_sends(traces),
                s.sys,
                &r,
                &r.stats,
            );
            rep.set(
                "mpibench.samples",
                s.result
                    .by_size
                    .iter()
                    .map(|x| x.samples.len())
                    .sum::<usize>() as f64,
            );
            rep.set("mpibench.hist_s", s.hist_s);
            rep.set("dist.write_s", s.write_s);
            rep.set("dist.read_s", s.read_s);
            rep.set("dist.table_bytes", s.text.len() as f64);
        }
        rep.note(format!(
            "traced sweeps: {} (p50 run_s {:.4} s)",
            sweeps.len(),
            median(&sweeps.iter().map(|s| s.run_s).collect::<Vec<_>>())
        ));
    }
    rep
}
