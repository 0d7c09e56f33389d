//! `serve-tiny`: the prediction daemon under tiny closed-loop requests.
//!
//! An in-process `serve::Server` (`conns = nproc`, `threads = 1`) answers
//! `nproc` closed-loop clients, each sending its next frame only after
//! the reply. Every frame predicts `pevpm::JACOBI_FIG5` (xsize 256, one
//! iteration, one replication, 16 processes) against an 8x2 ring table;
//! one frame in four carries a never-seen model source (a unique trailing
//! comment), so it misses the model cache and is parsed again.

use crate::predict::{ring_table, set_table_metrics};
use crate::{median, mix, repeated_setup, set_overhead, windows};
use crate::{Opts, Report, Size, Tracer};
use pevpm::vm::evaluate;
use pevpm::JACOBI_FIG5;
use pevpm_obs::json::{self, Json};
use pevpm_serve::client::predict_frame;
use pevpm_serve::plan::{self, EvalOutcome, PredictRequest};
use pevpm_serve::{Client, ServeConfig, Server};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Distinct request seeds (each with its expected makespan).
const SEEDS: usize = 8;
/// Warm-up requests per client during set-up.
const WARMUP: usize = 200;

/// Unique suffix source for cache-missing model sources.
static MISS_ID: AtomicU64 = AtomicU64::new(0);

struct Params {
    table_nodes: usize,
    procs: usize,
    bench_reps: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            table_nodes: 8,
            procs: 16,
            bench_reps: 30,
        },
        Size::Smoke => Params {
            table_nodes: 2,
            procs: 4,
            bench_reps: 10,
        },
    }
}

/// A running daemon; dropping it asks it to shut down and joins it.
struct Daemon {
    server: Arc<Server>,
    addr: String,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl Daemon {
    fn start(server: Server) -> io::Result<Daemon> {
        let server = Arc::new(server);
        let addr = server.local_addr()?.to_string();
        let s = Arc::clone(&server);
        let handle = std::thread::spawn(move || s.run());
        Ok(Daemon {
            server,
            addr,
            handle: Some(handle),
        })
    }

    /// Shut the daemon down and wait for it, reporting how it ended.
    fn stop(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let sent = Client::connect(&self.addr).and_then(|mut c| c.shutdown("stop"));
        let joined = handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        sent.map_err(|e| format!("shutdown request failed: {e}"))?;
        joined.map_err(|e| format!("daemon failed: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The request for seed slot `i`.
fn request(p: &Params, base_seed: u64, i: usize, src: String) -> PredictRequest {
    let mut req = PredictRequest::new(src, p.procs);
    req.seed = mix(base_seed + i as u64) >> 11;
    req.params = vec![
        ("xsize".to_string(), 256.0),
        ("iterations".to_string(), 1.0),
    ];
    req
}

/// A model source no earlier frame carried.
fn miss_source() -> String {
    format!(
        "{JACOBI_FIG5}/* request {} */\n",
        MISS_ID.fetch_add(1, Ordering::Relaxed)
    )
}

/// What every client sends and expects back.
#[derive(Clone, Copy)]
struct Traffic<'a> {
    addr: &'a str,
    hits: &'a [String],
    p: &'a Params,
    base_seed: u64,
    expected: &'a [f64],
}

/// What one client saw.
#[derive(Default)]
struct Tally {
    latencies: Vec<f64>,
    ok: usize,
    failures: Vec<String>,
}

/// Closed loop: send the next frame after each reply until `deadline`
/// (or `count` frames when given). Frame `n` uses seed slot `n % SEEDS`;
/// every fourth frame carries a fresh model source.
fn client_loop(tr: &Traffic, until: Option<Instant>, count: usize, tracer: &Tracer) -> Tally {
    let Traffic {
        addr,
        hits,
        p,
        base_seed,
        expected,
    } = *tr;
    let mut t = Tally::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            t.failures.push(format!("connect failed: {e}"));
            return t;
        }
    };
    let mut n = 0usize;
    while until.map_or(n < count, |d| Instant::now() < d) {
        let slot = n % SEEDS;
        let miss;
        let frame = if n % 4 == 3 {
            miss = predict_frame(
                &format!("m{n}"),
                "default",
                &request(p, base_seed, slot, miss_source()),
            );
            &miss
        } else {
            &hits[slot]
        };
        n += 1;
        let t0 = Instant::now();
        let resp = tracer.span("bench.op", || {
            tracer.span("serve.request", || client.request(frame))
        });
        t.latencies.push(t0.elapsed().as_secs_f64());
        match resp.map_err(|e| e.to_string()).and_then(|r| makespan(&r)) {
            Ok(m) if m.to_bits() == expected[slot].to_bits() => t.ok += 1,
            Ok(m) => t
                .failures
                .push(format!("makespan {m:?} != expected {:?}", expected[slot])),
            Err(e) => t.failures.push(e),
        }
    }
    t
}

/// Run `conns` closed-loop clients to completion.
fn run_clients(
    tr: &Traffic,
    conns: usize,
    until: Option<Instant>,
    count: usize,
    tracer: &Tracer,
) -> Vec<Tally> {
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..conns)
            .map(|_| s.spawn(|| client_loop(tr, until, count, tracer)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The makespan of an `ok` single-evaluation response.
fn makespan(resp: &str) -> Result<f64, String> {
    let j = json::parse(resp)?;
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("not ok: {}", resp.trim()));
    }
    j.get("result")
        .and_then(|r| r.get("makespan"))
        .and_then(Json::as_num)
        .ok_or_else(|| format!("no makespan in {}", resp.trim()))
}

/// Run the workload.
pub fn run(opts: &Opts, tracer: &Tracer) -> Report {
    let p = params(opts.size);
    let mut rep = Report::default();
    let conns = opts.nproc();
    let base_seed = mix(opts.seed);
    let table_seed = mix(base_seed);
    rep.param(
        "table",
        format!(
            "{}x2 ring, sizes 512/1024/2048, {} reps, seed {table_seed}",
            p.table_nodes, p.bench_reps
        ),
    );
    rep.param("request", format!("JACOBI_FIG5 xsize 256, 1 iteration, 1 rep, {} procs, {SEEDS} seeds, 1 in 4 misses the model cache", p.procs));
    rep.param(
        "daemon",
        format!("conns {conns}, threads 1, {conns} closed-loop clients"),
    );

    let hits: Vec<String> = (0..SEEDS)
        .map(|i| {
            predict_frame(
                &format!("h{i}"),
                "default",
                &request(&p, base_seed, i, JACOBI_FIG5.to_string()),
            )
        })
        .collect();

    let setup = || -> Result<_, String> {
        tracer.span("bench.setup", || {
            let build = ring_table(
                p.table_nodes,
                2,
                &[512, 1024, 2048],
                p.bench_reps,
                table_seed,
                tracer,
            );
            let model = plan::parse_model(JACOBI_FIG5, "JACOBI_FIG5").map_err(|e| e.message)?;
            let req0 = request(&p, base_seed, 0, String::new());
            let mode = req0.prediction_mode().map_err(|e| e.message)?;
            let t = Instant::now();
            let timing = tracer
                .span("dist.compile", || {
                    plan::build_timing(&build.table, mode, false, req0.compile_options())
                })
                .map_err(|e| e.message)?;
            let compile_s = t.elapsed().as_secs_f64();
            let mut expected = Vec::with_capacity(SEEDS);
            for i in 0..SEEDS {
                let cfg = request(&p, base_seed, i, String::new())
                    .eval_config()
                    .map_err(|e| e.message)?;
                match plan::evaluate_plan(&model, &cfg, &timing, 1).map_err(|e| e.message)? {
                    EvalOutcome::Single(pr) => expected.push(pr.makespan),
                    EvalOutcome::Batch(mc) => expected.push(mc.mean),
                }
            }
            let cfg = ServeConfig {
                conns,
                threads: 1,
                ..ServeConfig::default()
            };
            let server =
                Server::with_tables(cfg, vec![("default".to_string(), build.table.clone())])
                    .map_err(|e| e.message)?;
            let daemon = Daemon::start(server).map_err(|e| e.to_string())?;
            let tr = Traffic {
                addr: &daemon.addr,
                hits: &hits,
                p: &p,
                base_seed,
                expected: &expected,
            };
            let warm = run_clients(&tr, conns, None, WARMUP, &Tracer::new(false, 0));
            let warm_failures: Vec<String> = warm.into_iter().flat_map(|t| t.failures).collect();
            Ok((
                daemon,
                build,
                timing,
                cfg_for(&p, base_seed),
                expected,
                compile_s,
                warm_failures,
            ))
        })
    };
    let (set, setup_s) = repeated_setup(opts, setup);
    rep.set("setup_s", setup_s);
    let (mut daemon, build, timing, eval_cfg, expected, compile_s, warm_failures) = match set {
        Ok(s) => s,
        Err(e) => {
            rep.fail(format!("set-up failed: {e}"));
            return rep;
        }
    };
    rep.check(warm_failures.is_empty(), || {
        format!("warm-up failed: {:?}", warm_failures.first())
    });

    let tr = Traffic {
        addr: &daemon.addr,
        hits: &hits,
        p: &p,
        base_seed,
        expected: &expected,
    };
    // Every request counts as attempted; failed requests and wrong
    // answers count as failed.
    let measure = |rep: &mut Report, seconds: f64, tracer: &Tracer| -> (crate::Window, usize) {
        let cpu0 = crate::cpu_secs();
        let t0 = Instant::now();
        let deadline = t0 + std::time::Duration::from_secs_f64(seconds);
        let tallies = run_clients(&tr, conns, Some(deadline), 0, tracer);
        let mut w = crate::Window {
            times: Vec::new(),
            secs: t0.elapsed().as_secs_f64(),
            cpu_secs: crate::cpu_secs() - cpu0,
        };
        let mut ok = 0;
        for t in tallies {
            rep.attempted += t.latencies.len() as u64;
            rep.failed += t.failures.len() as u64;
            rep.failures.extend(t.failures.into_iter().take(5));
            ok += t.ok;
            w.times.extend(t.latencies);
        }
        (w, ok)
    };

    let (untraced_s, traced_s) = windows(opts);
    let (w, ok) = measure(&mut rep, untraced_s, &Tracer::new(false, 0));
    crate::set_op_metrics(&mut rep, &w, ok);
    rep.note_timing("serve round trip", "ms", 1e3, &w.times);
    let lat = w.times;

    if opts.trace {
        let (tw, _) = measure(&mut rep, traced_s, tracer);
        set_overhead(&mut rep, &lat, &tw.times);
        rep.set(
            "trace.coverage",
            crate::trace::coverage(&tracer.spans(), "bench.op"),
        );
        layer_metrics(&mut rep, &daemon, &hits[0], median(&lat), tracer);
        rep.set("dist.compile_s", compile_s);
        set_table_metrics(&mut rep, &build);
        let src = miss_source();
        let mut parse = Vec::new();
        for _ in 0..50 {
            let t = Instant::now();
            let m = tracer.span("pevpm.parse", || pevpm::parse_annotations(&src));
            parse.push(t.elapsed().as_secs_f64());
            rep.check(m.is_ok(), || "parse_annotations failed".into());
        }
        rep.set("pevpm.parse_s", median(&parse));
        if let Ok(model) = plan::parse_model(JACOBI_FIG5, "JACOBI_FIG5") {
            let t = Instant::now();
            let r = tracer.span("pevpm.eval", || evaluate(&model, &eval_cfg, &timing));
            rep.set("pevpm.eval_s", t.elapsed().as_secs_f64());
            rep.check(r.is_ok(), || "evaluate failed".into());
        }
    }
    rep.check(daemon.stop().is_ok(), || {
        "daemon did not shut down cleanly".into()
    });
    rep
}

fn cfg_for(p: &Params, base_seed: u64) -> pevpm::EvalConfig {
    request(p, base_seed, 0, String::new())
        .eval_config()
        .expect("request parameters are valid")
}

/// Daemon-side per-layer metrics, read after the traced window.
fn layer_metrics(rep: &mut Report, daemon: &Daemon, frame: &str, rtt_p50: f64, tracer: &Tracer) {
    let reg = daemon.server.registry();
    let hits = reg.counter("serve.model_cache_hits").get() as f64;
    let misses = reg.counter("serve.model_cache_misses").get() as f64;
    rep.set(
        "serve.model_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    rep.note(format!(
        "model cache: {hits} hits of {} lookups",
        hits + misses
    ));
    rep.set("serve.shed", reg.counter("serve.shed.total").get() as f64);
    rep.set(
        "serve.conn_errors",
        reg.counter("serve.conn.errors").get() as f64,
    );
    let qw = reg.histogram("serve.queue_wait_ms", 0.0, 250.0, 50);
    rep.set("serve.queue_wait_p99_ms", hist_p99(&qw));

    let stats = Client::connect(&daemon.addr)
        .and_then(|mut c| c.stats("stats"))
        .map_err(|e| e.to_string())
        .and_then(|s| json::parse(&s));
    match stats {
        Ok(j) => {
            let stages = j.get("result").and_then(|r| r.get("stages"));
            for (stage, name) in [
                ("validate", "serve.stage_validate_p50_ms"),
                ("model", "serve.stage_model_p50_ms"),
                ("compile", "serve.stage_compile_p50_ms"),
                ("eval", "serve.stage_eval_p50_ms"),
                ("render", "serve.stage_render_p50_ms"),
            ] {
                let v = stages
                    .and_then(|s| s.get(stage))
                    .and_then(|s| s.get("p50_ms"))
                    .and_then(Json::as_num);
                rep.set(name, v.unwrap_or(0.0));
            }
        }
        Err(e) => rep.fail(format!("stats op failed: {e}")),
    }

    let mut handle = Vec::new();
    let mut resp = String::new();
    for _ in 0..500 {
        let t = Instant::now();
        resp = tracer
            .span("serve.handle_frame", || daemon.server.handle_frame(frame))
            .0;
        handle.push(t.elapsed().as_secs_f64());
    }
    let handle_us = median(&handle) * 1e6;
    rep.set("serve.handle_us", handle_us);
    rep.set("serve.wire_us", rtt_p50 * 1e6 - handle_us);
    rep.note(format!(
        "serve.wire_us = round-trip p50 {:.1} us - handle_frame p50 {handle_us:.1} us (computed)",
        rtt_p50 * 1e6
    ));

    let mut parse = Vec::new();
    for i in 0..2000 {
        let doc = if i % 2 == 0 { frame } else { resp.as_str() };
        let t = Instant::now();
        let r = tracer.span("obs.json_parse", || json::parse(doc));
        parse.push(t.elapsed().as_secs_f64());
        if r.is_err() {
            rep.fail("obs::json::parse rejected a frame".into());
            break;
        }
    }
    rep.set("obs.json_parse_us", median(&parse) * 1e6);
}

/// p99 of a fixed-bin histogram: the upper edge of the bin holding it,
/// capped by the recorded maximum (bins are 5 ms wide).
fn hist_p99(h: &pevpm_obs::FixedHistogram) -> f64 {
    let counts = h.bin_counts();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let want = (total as f64 * 0.99).ceil() as u64;
    let mut seen = 0;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= want {
            return h.bin_edge(i + 1).min(h.max().unwrap_or(0.0));
        }
    }
    h.max().unwrap_or(0.0)
}
