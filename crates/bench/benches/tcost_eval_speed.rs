//! T-cost: PEVPM evaluation cost vs actual (packet-level) execution —
//! the paper's "67.5 times its actual execution speed" claim — plus a
//! compiled-vs-interpreted sampler comparison quantifying what the
//! allocation-free fast path buys.
//!
//! Run with `cargo bench -p pevpm-bench --bench tcost_eval_speed`.
//! Writes a machine-readable `BENCH_tcost.json` (override the path with
//! the `BENCH_TCOST_OUT` environment variable) for CI artifact upload.

use pevpm_apps::jacobi::JacobiConfig;
use pevpm_bench::tcost::{self, SamplerMode};
use pevpm_mpibench::MachineShape;

fn main() {
    let jacobi = JacobiConfig {
        xsize: 256,
        iterations: 1000,
        serial_secs: 3.24e-3,
    };
    let shapes = [
        MachineShape { nodes: 8, ppn: 1 },
        MachineShape { nodes: 32, ppn: 1 },
        MachineShape { nodes: 64, ppn: 1 },
        MachineShape { nodes: 64, ppn: 2 },
    ];
    eprintln!("[tcost] timing PEVPM evaluation vs packet-level execution...");
    let mut results = Vec::new();
    for &s in &shapes {
        for mode in [SamplerMode::Compiled, SamplerMode::Interpreted] {
            results.push(tcost::run_with(s, &jacobi, 30, 8, 11, mode));
        }
    }
    println!("T-cost: model evaluation cost (1000-iteration Jacobi)\n");
    println!("{}", tcost::render(&results));
    println!(
        "paper: the prototype PEVPM evaluated 11h15m of processor time in ~10 min (67.5x \
         real time) on one Perseus CPU; 'vs-realtime' is the equivalent figure here.\n\
         'sampler' compares the compiled (allocation-free) fast path against the \
         interpreted DistTable baseline; both draw the same RNG stream, so their \
         predictions are bitwise identical."
    );

    // Cargo runs benches with CWD = the crate directory; default to the
    // workspace root so CI (and humans) find the file in a fixed place.
    let out = std::env::var("BENCH_TCOST_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tcost.json").to_string()
    });
    let json = tcost::to_json(&results);
    match std::fs::write(&out, &json) {
        Ok(()) => eprintln!("[tcost] machine-readable results written to {out}"),
        Err(e) => eprintln!("[tcost] cannot write {out}: {e}"),
    }
}
