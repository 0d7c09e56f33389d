//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload predict-fig6|measure-halo|mpibench-large|serve-tiny|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints provenance, parameters, every metric by name with its unit and
//! the output checks, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). A traced run also writes its spans as a Chrome trace
//! under `.perfbench/`. Exits 1 when a check failed, 2 on bad usage.

use perfbench::{trace, Opts, Report, Tracer, Workload, END_TO_END, PER_LAYER, SETUPS};
use pevpm_obs::json::{escape, num};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<(Vec<Workload>, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::new(Workload::PredictFig6);
    let mut workloads = None;
    let mut i = 0;
    while i < args.len() {
        let val = args
            .get(i + 1)
            .ok_or(format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" if val == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                workloads = Some(vec![
                    Workload::parse(val).ok_or(format!("unknown workload {val:?}"))?
                ])
            }
            "--seed" => opts.seed = val.parse().map_err(|_| format!("bad --seed {val:?}"))?,
            "--seconds" => {
                opts.seconds = val.parse().map_err(|_| format!("bad --seconds {val:?}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok((workloads.ok_or("--workload is required")?, opts))
}

/// The repository root: the parent of this crate's directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// FNV-1a digest of the sources the benchmark measures: every file under
/// `crates/` and this crate's `src/`, plus the manifests, in path order.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "perfbench/src"] {
        walk(&root.join(d), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"].map(|f| root.join(f)));
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

fn provenance(opts: &Opts, workload: Workload, rep: &Report) -> String {
    let root = repo_root();
    let params: Vec<String> = rep
        .params
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
        .collect();
    format!(
        "{{\"git_rev\":\"{}\",\"source_digest\":\"{}\",\"nproc\":{},\"profile\":\"{}\",\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"setups\":{},\
         \"params\":{{{}}}}}",
        escape(&git_rev(&root)),
        source_digest(&root),
        opts.nproc(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        workload.name(),
        opts.seed,
        num(opts.seconds),
        opts.trace,
        SETUPS,
        params.join(",")
    )
}

/// Write the traced run's spans as Chrome trace JSON and validate it.
fn write_trace(tracer: &Tracer, workload: Workload, opts: &Opts, rep: &mut Report) {
    let spans = tracer.spans();
    for (name, secs, n) in trace::self_by_name(&spans) {
        rep.note(format!(
            "self time {name:<22} {secs:>10.6} s over {n} spans"
        ));
    }
    let json = tracer.chrome(workload.name()).to_json();
    let dir = PathBuf::from(".perfbench");
    let path = dir.join(format!("trace-{}-seed{}.json", workload.name(), opts.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, &json))
        .and_then(|()| std::fs::read_to_string(&path));
    match written
        .map_err(|e| e.to_string())
        .and_then(|s| pevpm_obs::chrome::validate(&s))
    {
        Ok(events) => {
            rep.check(events == spans.len(), || "Chrome trace lost spans".into());
            rep.note(format!(
                "chrome trace: {} ({events} events, validated)",
                path.display()
            ));
        }
        Err(e) => rep.fail(format!("chrome trace {}: {e}", path.display())),
    }
}

fn metrics_json(rep: &Report, set: &[(&str, &str)], prefix: &str) -> Vec<String> {
    set.iter()
        .map(|&(name, unit)| {
            let v = rep.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{prefix}{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect()
}

/// Every digit of `v`, as a JSON number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let (workloads, base) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = if base.trace { PER_LAYER } else { END_TO_END };
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut metrics = Vec::new();
    for &workload in &workloads {
        let opts = Opts {
            workload,
            ..base.clone()
        };
        let tracer = Tracer::new(opts.trace, opts.run_id());
        let mut rep = perfbench::run(&opts, &tracer);
        if opts.trace {
            write_trace(&tracer, workload, &opts, &mut rep);
        }
        println!(
            "== {} ({})",
            workload.name(),
            if opts.trace { "traced" } else { "untraced" }
        );
        println!("provenance {}", provenance(&opts, workload, &rep));
        for note in &rep.notes {
            println!("  {note}");
        }
        for &(name, unit) in set {
            let v = rep.metrics.get(name).copied().unwrap_or(0.0);
            println!("  metric {name:<30} {v:>16.6} {unit}");
        }
        let rate = rep.failed as f64 / rep.attempted.max(1) as f64;
        println!(
            "  error_rate {rate} ({} failed of {} attempted); op = {}",
            rep.failed,
            rep.attempted,
            workload.op_name()
        );
        for f in &rep.failures {
            println!("  FAILED: {f}");
        }
        let ok = rep.failed == 0 && rep.attempted > 0;
        correct &= ok;
        attempted += rep.attempted;
        failed += rep.failed;
        let prefix = if workloads.len() > 1 {
            format!("{}/", workload.name())
        } else {
            String::new()
        };
        metrics.extend(metrics_json(&rep, set, &prefix));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
