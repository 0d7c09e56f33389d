//! End-to-end and per-layer benchmark of the PEVPM / MPIBench pipeline.
//!
//! Four workloads (see `README.md` beside this crate) each run a set-up
//! phase several times, then repeat one operation for a fixed wall-clock
//! window, checking every output. The untraced run reports the end-to-end
//! metrics of [`END_TO_END`]; the traced run reports [`PER_LAYER`], timed
//! around the calls this crate makes into each workspace crate.

pub mod halo;
pub mod predict;
pub mod replay;
pub mod serve;
pub mod sweep;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
pub use trace::Tracer;

/// End-to-end metrics: `(name, unit)`. Every untraced run reports all.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Every traced run reports all; a
/// layer the workload does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.events", "count"),
    ("netsim.frames", "count"),
    ("netsim.drops", "count"),
    ("netsim.retransmissions", "count"),
    ("netsim.replay_s", "s"),
    ("netsim.events_per_s", "1/s"),
    ("mpisim.run_s", "s"),
    ("mpisim.msgs", "count"),
    ("mpisim.self_s", "s"),
    ("mpisim.us_per_msg", "us"),
    ("mpisim.sys_frac", "ratio"),
    ("mpibench.samples", "count"),
    ("mpibench.hist_s", "s"),
    ("dist.compile_s", "s"),
    ("dist.write_s", "s"),
    ("dist.read_s", "s"),
    ("dist.table_bytes", "bytes"),
    ("dist.sample_ns", "ns"),
    ("pevpm.parse_s", "s"),
    ("pevpm.eval_s", "s"),
    ("pevpm.batch_s", "s"),
    ("pevpm.steps", "count"),
    ("pevpm.messages", "count"),
    ("pevpm.sb_peak", "count"),
    ("pevpm.steps_per_s", "1/s"),
    ("replicate.util", "ratio"),
    ("replicate.idle_s", "s"),
    ("replicate.speedup", "ratio"),
    ("vm.sweep_phases", "count"),
    ("vm.match_phases", "count"),
    ("serve.stage_validate_p50_ms", "ms"),
    ("serve.stage_model_p50_ms", "ms"),
    ("serve.stage_compile_p50_ms", "ms"),
    ("serve.stage_eval_p50_ms", "ms"),
    ("serve.stage_render_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.handle_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.model_cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.conn_errors", "count"),
    ("obs.json_parse_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PEVPM Monte-Carlo batch at the paper's Fig-6 acceptance point.
    PredictFig6,
    /// The real Jacobi program on mpisim over netsim (ground truth).
    MeasureHalo,
    /// MPIBench rendezvous-size ring sweep into a distribution table.
    MpibenchLarge,
    /// The prediction daemon under tiny closed-loop requests.
    ServeTiny,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PredictFig6,
        Workload::MeasureHalo,
        Workload::MpibenchLarge,
        Workload::ServeTiny,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PredictFig6 => "predict-fig6",
            Workload::MeasureHalo => "measure-halo",
            Workload::MpibenchLarge => "mpibench-large",
            Workload::ServeTiny => "serve-tiny",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload-specific name of the operation time.
    pub fn op_name(self) -> &'static str {
        match self {
            Workload::PredictFig6 => "predict_s",
            Workload::MeasureHalo => "measure_s",
            Workload::MpibenchLarge => "table_build_s",
            Workload::ServeTiny => "serve round trip",
        }
    }
}

/// Full size, or the seconds-long smoke size the crate's tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's real inputs.
    Full,
    /// Tiny inputs with the same code paths and checks.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// How many times an untraced run sets up (its median is `setup_s`).
pub const SETUPS: usize = 3;

impl Opts {
    /// Defaults for `workload`: seed 1, 10 s, untraced, full size.
    pub fn new(workload: Workload) -> Self {
        Opts {
            workload,
            seed: 1,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
        }
    }

    /// Worker threads / client connections: the host's core count.
    pub fn nproc(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Workload-run id carried by every span.
    pub fn run_id(&self) -> u64 {
        mix(self.seed ^ (self.workload as u64) << 56)
    }
}

/// Outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload parameters, for provenance.
    pub params: Vec<(String, String)>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Why, one line per failure.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines: workload-specific names, labels, tails.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a workload parameter.
    pub fn param(&mut self, k: &str, v: impl ToString) {
        self.params.push((k.to_string(), v.to_string()));
    }

    /// Count one attempted check; a failure is counted and described.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Count one attempted operation that did not return.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(what);
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a timing sample set: median and the highest percentile with
    /// at least ten samples beyond it, with the sample count.
    pub fn note_timing(&mut self, what: &str, unit: &str, scale: f64, samples: &[f64]) {
        let (p, tail) = tail_percentile(samples);
        let tail = match (p, tail) {
            (Some(p), Some(t)) => format!(", p{p} {:.4} {unit}", t * scale),
            _ => String::new(),
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0, f64::max);
        self.note(format!(
            "{what}: p50 {:.4} {unit}{tail}, min {:.4}, max {:.4} (n={})",
            median(samples) * scale,
            min * scale,
            max * scale,
            samples.len()
        ));
    }
}

/// Run one workload.
pub fn run(opts: &Opts, tracer: &Tracer) -> Report {
    let mut rep = match opts.workload {
        Workload::PredictFig6 => predict::run(opts, tracer),
        Workload::MeasureHalo => halo::run(opts, tracer),
        Workload::MpibenchLarge => sweep::run(opts, tracer),
        Workload::ServeTiny => serve::run(opts, tracer),
    };
    rep.set("peak_rss_mb", peak_rss_mb());
    rep
}

/// splitmix64 finaliser: derives independent seeds from one.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest of p90/p99/p99.9 with at least ten samples beyond it, and
/// its value.
pub fn tail_percentile(v: &[f64]) -> (Option<&'static str>, Option<f64>) {
    let n = v.len() as f64;
    for (name, q) in [("99.9", 0.999), ("99", 0.99), ("90", 0.9)] {
        if n * (1.0 - q) >= 10.0 {
            return (Some(name), Some(quantile(v, q)));
        }
    }
    (None, None)
}

/// Run `setup` [`SETUPS`] times (once when traced) and return the last
/// result with the median wall time.
pub fn repeated_setup<T>(opts: &Opts, mut setup: impl FnMut() -> T) -> (T, f64) {
    let n = if opts.trace { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// The measured window: each operation's wall time, the window's wall
/// time and the process CPU time (user + system) spent in it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Wall time of each operation, seconds.
    pub times: Vec<f64>,
    /// Wall time of the whole window, seconds.
    pub secs: f64,
    /// Process CPU time over the window, seconds.
    pub cpu_secs: f64,
}

/// Repeat `op` until `seconds` have passed (and at least `min_ops` ran).
pub fn timed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut()) -> Window {
    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_ops || t0.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        op();
        times.push(t.elapsed().as_secs_f64());
    }
    Window {
        times,
        secs: t0.elapsed().as_secs_f64(),
        cpu_secs: cpu_secs() - cpu0,
    }
}

/// Split the measured window: the traced run spends its first half
/// untraced and its second half traced, so tracing overhead is measured
/// within one process.
pub fn windows(opts: &Opts) -> (f64, f64) {
    if opts.trace {
        (opts.seconds / 2.0, opts.seconds / 2.0)
    } else {
        (opts.seconds, 0.0)
    }
}

/// Set the end-to-end operation metric of a window in which `ok_ops`
/// operations succeeded, and print its throughput and CPU cost.
pub fn set_op_metrics(rep: &mut Report, w: &Window, ok_ops: usize) {
    rep.set("op_p50_ms", median(&w.times) * 1e3);
    rep.note(format!(
        "ops_per_s: {:.4} ok operations per wall second over {:.2} s; \
         op_cpu_ms: {:.4} ms process CPU per operation",
        ok_ops as f64 / w.secs.max(1e-9),
        w.secs,
        w.cpu_secs * 1e3 / w.times.len().max(1) as f64
    ));
}

/// Record tracing overhead: traced over untraced median op time, minus 1.
pub fn set_overhead(rep: &mut Report, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (median(untraced), median(traced));
    if u > 0.0 {
        rep.set("trace.overhead", t / u - 1.0);
        rep.note(format!(
            "tracing overhead: {:+.2}% (op p50 {:.4} ms traced vs {:.4} ms untraced)",
            (t / u - 1.0) * 100.0,
            t * 1e3,
            u * 1e3
        ));
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// This process's user + system CPU time, seconds (all threads, live and
/// exited; `/proc` counts in ticks of 1/100 s).
pub fn cpu_secs() -> f64 {
    let (u, s) = cpu_ticks();
    (u + s) as f64 / 100.0
}

/// This process's (user, system) CPU time in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| f.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
    (get(11), get(12))
}
