//! `predict-fig6`: the paper's Fig-6 acceptance point as a repeated
//! `pevpm` Monte-Carlo batch.
//!
//! Set-up measures the MPIBench 64x2 ring table (mpibench over mpisim
//! over netsim) and compiles it; the timed operation is one 8-replication
//! `monte_carlo` batch of `jacobi::model` at `threads = nproc`, so pevpm
//! and dist sampling do the work.

use crate::replay::{self, Replay};
use crate::{median, repeated_setup, set_op_metrics, set_overhead, timed_loop, windows};
use crate::{mix, Opts, Report, Size, Tracer};
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, monte_carlo, EvalConfig, McPrediction};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_dist::{CompiledTable, DistTable, Op};
use pevpm_mpibench::{run_p2p, Direction, P2pConfig, PairPattern};
use pevpm_mpisim::{TraceKind, WorldConfig};
use pevpm_netsim::NetStats;
use pevpm_obs::Registry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// The repository's canonical 64x2 Jacobi baseline: the mean makespan of
/// 8 replications at seed 11 over the 64x2 ring table built at seed 11.
pub const BASELINE_64X2: f64 = 0.6487360493288068;

/// Seed of the acceptance point's table and check batch.
pub const BASELINE_SEED: u64 = 11;

/// A measured MPIBench ring table and what building it cost.
pub struct TableBuild {
    /// The table (ring exchange, `Op::Send`, 100 bins).
    pub table: DistTable,
    /// Timed samples behind it.
    pub samples: usize,
    /// Wall time of `run_p2p`, seconds.
    pub run_s: f64,
    /// Wall time of `add_to_table` (histograms + insertion), seconds.
    pub hist_s: f64,
    /// Messages the run sent (traced runs only).
    pub msgs: u64,
    /// System share of CPU time during `run_p2p`.
    pub sys_frac: f64,
    /// The run's transfers replayed on a bare network (traced runs only).
    pub replay: Option<Replay>,
}

/// Measure the MPIBench ring-exchange table for an `nodes x ppn` Perseus
/// world, exactly as the Fig-6 pipeline does.
pub fn ring_table(
    nodes: usize,
    ppn: usize,
    sizes: &[u64],
    reps: usize,
    seed: u64,
    tracer: &Tracer,
) -> TableBuild {
    let mut world = WorldConfig::perseus(nodes, ppn, seed);
    world.record_trace = tracer.enabled();
    let cfg = P2pConfig {
        world: world.clone(),
        sizes: sizes.to_vec(),
        repetitions: reps,
        warmup: (reps / 10).max(2),
        sync_every: 1,
        pattern: PairPattern::Ring,
        direction: Direction::Exchange,
        clock: None,
    };
    let cpu0 = crate::cpu_ticks();
    let t0 = Instant::now();
    let res = tracer
        .span("mpisim.run", || run_p2p(&cfg))
        .expect("MPIBench ring benchmark failed");
    let run_s = t0.elapsed().as_secs_f64();
    let sys_frac = sys_frac(cpu0, crate::cpu_ticks());
    let mut table = DistTable::new();
    let t1 = Instant::now();
    tracer.span("mpibench.hist", || {
        res.add_to_table(&mut table, Op::Send, 100)
    });
    let hist_s = t1.elapsed().as_secs_f64();
    let (msgs, replay) = match &res.traces {
        Some(traces) => (
            count_sends(traces),
            Some(tracer.span("netsim.replay", || {
                replay::replay(&world, &replay::transfers(&world, traces))
            })),
        ),
        None => (0, None),
    };
    TableBuild {
        table,
        samples: res.by_size.iter().map(|s| s.samples.len()).sum(),
        run_s,
        hist_s,
        msgs,
        sys_frac,
        replay,
    }
}

/// Point-to-point sends in a traced run.
pub fn count_sends(traces: &[Vec<pevpm_mpisim::TraceEvent>]) -> u64 {
    traces
        .iter()
        .flatten()
        .filter(|e| matches!(e.kind, TraceKind::Send | TraceKind::Isend))
        .count() as u64
}

/// System CPU over total CPU between two [`crate::cpu_ticks`] readings.
pub fn sys_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let user = after.0.saturating_sub(before.0) as f64;
    let sys = after.1.saturating_sub(before.1) as f64;
    if user + sys > 0.0 {
        sys / (user + sys)
    } else {
        0.0
    }
}

/// Set the mpisim and netsim per-layer metrics of one run; the exact
/// netsim counts come from `counts` (the run's own, or the replay's).
pub fn set_sim_metrics(
    rep: &mut Report,
    run_s: f64,
    msgs: u64,
    sys: f64,
    replay: &Replay,
    counts: &NetStats,
) {
    rep.set("netsim.events", counts.events_processed as f64);
    rep.set("netsim.frames", counts.frames_sent as f64);
    rep.set("netsim.drops", counts.frames_dropped as f64);
    rep.set("netsim.retransmissions", counts.retransmissions as f64);
    let st = &replay.stats;
    rep.set("mpisim.run_s", run_s);
    rep.set("mpisim.msgs", msgs as f64);
    rep.set("mpisim.self_s", run_s - replay.secs);
    rep.set("mpisim.us_per_msg", run_s * 1e6 / msgs.max(1) as f64);
    rep.set("mpisim.sys_frac", sys);
    rep.set("netsim.replay_s", replay.secs);
    rep.set(
        "netsim.events_per_s",
        st.events_processed as f64 / replay.secs.max(1e-9),
    );
    rep.note(format!(
        "netsim replay (computed): {} transfers, {} events, {} frames in {:.4} s; \
         mpisim.self_s = run_s - replay_s (computed)",
        replay.transfers, st.events_processed, st.frames_sent, replay.secs
    ));
}

struct Params {
    nodes: usize,
    ppn: usize,
    bench_reps: usize,
    jacobi: JacobiConfig,
    reps: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            nodes: 64,
            ppn: 2,
            bench_reps: 30,
            jacobi: JacobiConfig::default(),
            reps: 8,
        },
        Size::Smoke => Params {
            nodes: 4,
            ppn: 1,
            bench_reps: 10,
            jacobi: JacobiConfig {
                iterations: 20,
                ..JacobiConfig::default()
            },
            reps: 2,
        },
    }
}

/// Run the workload.
pub fn run(opts: &Opts, tracer: &Tracer) -> Report {
    let p = params(opts.size);
    let mut rep = Report::default();
    let threads = opts.nproc();
    let nprocs = p.nodes * p.ppn;
    let sizes = [512, 1024, 2048];
    let mc_seed = mix(opts.seed);
    rep.param("shape", format!("{}x{}", p.nodes, p.ppn));
    rep.param(
        "table",
        format!(
            "ring sizes 512/1024/2048, {} reps, seed {BASELINE_SEED}",
            p.bench_reps
        ),
    );
    rep.param(
        "model",
        format!(
            "jacobi {}^2 x {} iterations",
            p.jacobi.xsize, p.jacobi.iterations
        ),
    );
    rep.param(
        "batch",
        format!("{} reps, threads {threads}, seed {mc_seed}", p.reps),
    );

    let ((build, timing, model), setup_s) = repeated_setup(opts, || {
        tracer.span("bench.setup", || {
            let build = ring_table(p.nodes, p.ppn, &sizes, p.bench_reps, BASELINE_SEED, tracer);
            let t = Instant::now();
            let timing = tracer.span("dist.compile", || {
                TimingModel::distributions(build.table.clone())
            });
            let compile_s = t.elapsed().as_secs_f64();
            let model = jacobi::model(&p.jacobi);
            ((build, compile_s), timing, model)
        })
    });
    let (build, compile_s) = build;
    rep.set("setup_s", setup_s);
    rep.note(format!(
        "table build: run_p2p {:.3} s, {} samples, compile {:.4} s",
        build.run_s, build.samples, compile_s
    ));

    let cfg = EvalConfig::new(nprocs)
        .with_seed(mc_seed)
        .with_threads(threads);
    let mut first: Option<u64> = None;
    let mut batch = |rep: &mut Report, cfg: &EvalConfig| -> Option<McPrediction> {
        match monte_carlo(&model, cfg, &timing, p.reps) {
            Ok(mc) => {
                let bits = mc.mean.to_bits();
                let expect = *first.get_or_insert(bits);
                rep.check(bits == expect && mc.failures.is_empty(), || {
                    format!(
                        "batch mean {} differs from the first repeat {}",
                        mc.mean,
                        f64::from_bits(expect)
                    )
                });
                Some(mc)
            }
            Err(e) => {
                rep.fail(format!("monte_carlo failed: {e}"));
                None
            }
        }
    };

    let (untraced_s, traced_s) = windows(opts);
    let w = timed_loop(untraced_s, 3, || {
        batch(&mut rep, &cfg);
    });
    set_op_metrics(&mut rep, &w, w.times.len());
    let times = w.times;
    rep.note_timing("predict_s (one 8-rep batch)", "s", 1.0, &times);

    if opts.trace {
        let registry = Arc::new(Registry::new());
        let traced_cfg = cfg.clone().with_metrics(Arc::clone(&registry));
        let mut last = None;
        let ttimes = timed_loop(traced_s, 3, || {
            last = tracer.span("bench.op", || {
                tracer.span("pevpm.batch", || batch(&mut rep, &traced_cfg))
            });
        })
        .times;
        set_overhead(&mut rep, &times, &ttimes);
        let batches = ttimes.len() as f64;
        let batch_s = median(&ttimes);
        rep.set("pevpm.batch_s", batch_s);
        rep.set(
            "vm.sweep_phases",
            registry.counter("vm.sweep_phases").get() as f64 / batches,
        );
        rep.set(
            "vm.match_phases",
            registry.counter("vm.match_phases").get() as f64 / batches,
        );
        if let Some(mc) = last {
            let steps = mc.total_steps() as f64;
            rep.set("pevpm.steps", steps);
            rep.set(
                "pevpm.messages",
                mc.runs.iter().map(|r| r.messages).sum::<u64>() as f64,
            );
            rep.set("pevpm.sb_peak", mc.max_sb_peak() as f64);
            rep.set("pevpm.steps_per_s", steps / batch_s);
            let prof = &mc.profile;
            let util = prof.busy_secs() / (prof.workers.len() as f64 * prof.wall_secs).max(1e-12);
            rep.set("replicate.util", util);
            rep.set("replicate.idle_s", prof.idle_secs());
        }
        let t = Instant::now();
        tracer.span("pevpm.batch", || {
            batch(&mut rep, &cfg.clone().with_threads(1))
        });
        let serial_s = t.elapsed().as_secs_f64();
        rep.set("replicate.speedup", serial_s / median(&times));
        rep.note(format!(
            "replicate.speedup = 1-thread batch {serial_s:.4} s / {threads}-thread p50 {:.4} s",
            median(&times)
        ));
        let t = Instant::now();
        let single = tracer.span("pevpm.eval", || evaluate(&model, &cfg, &timing));
        rep.set("pevpm.eval_s", t.elapsed().as_secs_f64());
        rep.check(single.is_ok(), || {
            format!("evaluate failed: {:?}", single.err())
        });
        rep.set("dist.compile_s", compile_s);
        rep.set("dist.sample_ns", sample_ns(&build.table, tracer));
        set_table_metrics(&mut rep, &build);
        rep.set(
            "trace.coverage",
            crate::trace::coverage(&tracer.spans(), "bench.op"),
        );
    }

    // The acceptance point: seed-11 batch reproduces the pinned baseline
    // (full size), or is thread-count invariant (smoke size).
    let check_cfg = EvalConfig::new(nprocs)
        .with_seed(BASELINE_SEED)
        .with_threads(threads);
    let got = monte_carlo(&model, &check_cfg, &timing, p.reps).map(|mc| mc.mean);
    let want = match opts.size {
        Size::Full => Ok(BASELINE_64X2),
        Size::Smoke => monte_carlo(&model, &check_cfg.clone().with_threads(1), &timing, p.reps)
            .map(|mc| mc.mean),
    };
    match (got, want) {
        (Ok(g), Ok(w)) => {
            rep.check(g.to_bits() == w.to_bits(), || {
                format!("acceptance batch mean {g:?} != {w:?}")
            });
            rep.note(format!(
                "acceptance point: seed-{BASELINE_SEED} batch mean {g:?} (want {w:?})"
            ));
        }
        (g, w) => rep.fail(format!(
            "acceptance batch failed: {:?} / {:?}",
            g.err(),
            w.err()
        )),
    }
    rep
}

/// Set the mpibench / mpisim / netsim metrics of a traced table build.
pub fn set_table_metrics(rep: &mut Report, build: &TableBuild) {
    rep.set("mpibench.samples", build.samples as f64);
    rep.set("mpibench.hist_s", build.hist_s);
    if let Some(r) = &build.replay {
        set_sim_metrics(rep, build.run_s, build.msgs, build.sys_frac, r, &r.stats);
    }
}

/// Mean wall time of one `CompiledTable::sample_at` draw over the
/// table's (op, size, contention) keys, nanoseconds.
pub fn sample_ns(table: &DistTable, tracer: &Tracer) -> f64 {
    let Ok(compiled) = CompiledTable::compile(table) else {
        return 0.0;
    };
    let keys: Vec<(f64, f64)> = compiled
        .sizes(Op::Send)
        .iter()
        .flat_map(|&s| {
            compiled
                .contentions(Op::Send)
                .iter()
                .map(move |&c| (s as f64, c as f64))
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(1);
    let draws = 200_000usize;
    let t = Instant::now();
    let mut acc = 0.0;
    tracer.span("dist.sample", || {
        for i in 0..draws {
            let (s, c) = keys[i % keys.len()];
            acc += compiled.sample_at(Op::Send, s, c, &mut rng).unwrap_or(0.0);
        }
    });
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e9 / draws as f64
}
