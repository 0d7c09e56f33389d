//! Criterion micro-benchmarks of the reproduction's engines: the
//! packet-level network simulator, the MPI world scheduler, histogram
//! sampling, and PEVPM evaluation throughput.
//!
//! Run with `cargo bench -p pevpm-bench --bench engine_micro`.

use criterion::{criterion_group, criterion_main, Criterion};
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, monte_carlo, EvalConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_dist::{CommDist, DistKey, DistTable, Histogram, Op};
use pevpm_mpisim::{World, WorldConfig};
use pevpm_netsim::{ClusterConfig, Network, Time};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn netsim_throughput(c: &mut Criterion) {
    c.bench_function("netsim: 64 ranks x 4KB all-exchange", |b| {
        b.iter(|| {
            let mut net = Network::new(ClusterConfig::perseus(64), 1);
            for i in 0..32usize {
                net.start_transfer(Time::ZERO, i, i + 32, 4096);
                net.start_transfer(Time::ZERO, i + 32, i, 4096);
            }
            black_box(net.run_to_completion().len())
        })
    });
}

fn mpisim_pingpong(c: &mut Criterion) {
    c.bench_function("mpisim: 100-rep ping-pong world", |b| {
        b.iter(|| {
            let report = World::run(WorldConfig::ideal(2, 1), |rank| {
                for i in 0..100u64 {
                    if rank.rank() == 0 {
                        rank.send_size(1, i, 1024);
                        let _ = rank.recv(1, i);
                    } else {
                        let _ = rank.recv(0, i);
                        rank.send_size(0, i, 1024);
                    }
                }
            })
            .unwrap();
            black_box(report.messages)
        })
    });
}

fn histogram_sampling(c: &mut Criterion) {
    let samples: Vec<f64> = (0..10_000)
        .map(|i| 1e-4 + (i % 997) as f64 * 1e-7)
        .collect();
    let h = Histogram::from_samples(&samples, 1e-7);
    let mut rng = SmallRng::seed_from_u64(7);
    c.bench_function("dist: histogram inverse-CDF sample", |b| {
        b.iter(|| black_box(h.sample(&mut rng)))
    });
}

/// Off-grid table sampling — the Monte-Carlo hot path: a (size, contention)
/// query between grid points blends up to four neighbour distributions.
/// The interpreted row allocates axis and neighbour vectors per draw; the
/// compiled row is allocation-free.
fn table_sampling(c: &mut Criterion) {
    use pevpm_dist::CompiledTable;

    let mut table = DistTable::new();
    let samples: Vec<f64> = (0..1000).map(|i| 250e-6 + (i % 97) as f64 * 1e-6).collect();
    for &size in &[512u64, 1024, 4096] {
        for &contention in &[1u32, 8, 64] {
            table.insert(
                DistKey {
                    op: Op::Send,
                    size,
                    contention,
                },
                CommDist::Hist(Histogram::from_samples(&samples, 1e-6)),
            );
        }
    }
    let compiled = CompiledTable::compile(&table).unwrap();
    let mut rng = SmallRng::seed_from_u64(7);
    c.bench_function("dist: off-grid blended sample (interpreted)", |b| {
        b.iter(|| black_box(table.sample_at(Op::Send, 2000.0, 5.0, &mut rng)))
    });
    c.bench_function("dist: off-grid blended sample (compiled)", |b| {
        b.iter(|| black_box(compiled.sample_at(Op::Send, 2000.0, 5.0, &mut rng)))
    });
}

fn pevpm_eval(c: &mut Criterion) {
    let mut table = DistTable::new();
    let samples: Vec<f64> = (0..1000).map(|i| 250e-6 + (i % 97) as f64 * 1e-6).collect();
    for &contention in &[2u32, 64] {
        table.insert(
            DistKey {
                op: Op::Send,
                size: 1024,
                contention,
            },
            CommDist::Hist(Histogram::from_samples(&samples, 1e-6)),
        );
    }
    let timing = TimingModel::distributions(table.clone());
    let interpreted = TimingModel::interpreted(table);
    let cfg = JacobiConfig {
        xsize: 256,
        iterations: 100,
        serial_secs: 3.24e-3,
    };
    let model = jacobi::model(&cfg);

    // Both sampling paths invert the same uniforms, so the predictions are
    // bitwise identical — only the wall clock separates the two rows.
    let a = evaluate(&model, &EvalConfig::new(32).with_seed(1), &timing).unwrap();
    let b = evaluate(&model, &EvalConfig::new(32).with_seed(1), &interpreted).unwrap();
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "compiled sampler must not perturb predictions"
    );

    c.bench_function(
        "pevpm: 32-proc 100-iter Jacobi evaluation (compiled)",
        |b| {
            b.iter(|| {
                black_box(
                    evaluate(&model, &EvalConfig::new(32).with_seed(1), &timing)
                        .unwrap()
                        .makespan,
                )
            })
        },
    );
    c.bench_function(
        "pevpm: 32-proc 100-iter Jacobi evaluation (interpreted)",
        |b| {
            b.iter(|| {
                black_box(
                    evaluate(&model, &EvalConfig::new(32).with_seed(1), &interpreted)
                        .unwrap()
                        .makespan,
                )
            })
        },
    );
}

/// Replication throughput of the parallel Monte-Carlo engine: the same
/// 32-replication batch on 1 worker thread vs 4. The outputs are bitwise
/// identical (enforced by `crates/pevpm/tests/determinism.rs`); only the
/// wall clock changes, and the speedup scales with the physical cores the
/// host actually has (a single-core host shows ~1x).
fn replication_throughput(c: &mut Criterion) {
    let mut table = DistTable::new();
    let samples: Vec<f64> = (0..1000).map(|i| 250e-6 + (i % 97) as f64 * 1e-6).collect();
    for &contention in &[2u32, 64] {
        table.insert(
            DistKey {
                op: Op::Send,
                size: 1024,
                contention,
            },
            CommDist::Hist(Histogram::from_samples(&samples, 1e-6)),
        );
    }
    let timing = TimingModel::distributions(table);
    let cfg = JacobiConfig {
        xsize: 256,
        iterations: 60,
        serial_secs: 3.24e-3,
    };
    let model = jacobi::model(&cfg);

    for threads in [1usize, 4] {
        let eval_cfg = EvalConfig::new(16).with_seed(1).with_threads(threads);
        c.bench_function(
            &format!("pevpm: 32-replication Monte-Carlo batch ({threads} thread)"),
            |b| b.iter(|| black_box(monte_carlo(&model, &eval_cfg, &timing, 32).unwrap().mean)),
        );
    }

    // One-shot throughput report (evaluations/second), the number the
    // tcost table tracks.
    let serial = monte_carlo(
        &model,
        &EvalConfig::new(16).with_seed(1).with_threads(1),
        &timing,
        32,
    )
    .unwrap();
    let parallel = monte_carlo(
        &model,
        &EvalConfig::new(16).with_seed(1).with_threads(4),
        &timing,
        32,
    )
    .unwrap();
    assert_eq!(
        serial.mean.to_bits(),
        parallel.mean.to_bits(),
        "determinism violated"
    );
    println!(
        "pevpm: replication throughput {:.0} evals/s (1 thread) vs {:.0} evals/s (4 threads),          speedup {:.2}x on a {}-core host",
        serial.evals_per_sec,
        parallel.evals_per_sec,
        parallel.evals_per_sec / serial.evals_per_sec.max(1e-9),
        pevpm::replicate::available_threads(),
    );
}

/// Cost of the observability hooks: the same evaluation with no sink
/// (default config — the hooks reduce to one branch per event), with a
/// metrics registry attached, and with timeline recording on. The no-sink
/// variant is the guard: it must stay within noise (<5%) of what the
/// engine did before instrumentation existed.
fn instrumentation_overhead(c: &mut Criterion) {
    use pevpm_obs::Registry;
    use std::sync::Arc;

    let mut table = DistTable::new();
    let samples: Vec<f64> = (0..1000).map(|i| 250e-6 + (i % 97) as f64 * 1e-6).collect();
    for &contention in &[2u32, 64] {
        table.insert(
            DistKey {
                op: Op::Send,
                size: 1024,
                contention,
            },
            CommDist::Hist(Histogram::from_samples(&samples, 1e-6)),
        );
    }
    let timing = TimingModel::distributions(table);
    let cfg = JacobiConfig {
        xsize: 256,
        iterations: 60,
        serial_secs: 3.24e-3,
    };
    let model = jacobi::model(&cfg);

    let no_sink = EvalConfig::new(16).with_seed(1);
    let registry = Arc::new(Registry::new());
    let with_metrics = EvalConfig::new(16)
        .with_seed(1)
        .with_metrics(registry.clone());
    let with_timeline = EvalConfig::new(16).with_seed(1).with_timeline();

    c.bench_function("pevpm: evaluation, no sink", |b| {
        b.iter(|| black_box(evaluate(&model, &no_sink, &timing).unwrap().makespan))
    });
    c.bench_function("pevpm: evaluation, metrics registry", |b| {
        b.iter(|| black_box(evaluate(&model, &with_metrics, &timing).unwrap().makespan))
    });
    c.bench_function("pevpm: evaluation, timeline recording", |b| {
        b.iter(|| black_box(evaluate(&model, &with_timeline, &timing).unwrap().makespan))
    });

    // Service-span telemetry as the daemon applies it: a stage window
    // into a bounded span ring plus a latency histogram, wrapped around
    // the evaluation. Telemetry observes, never steers — the prediction
    // must stay bitwise identical to the bare run.
    let ring = pevpm_obs::SpanRing::new(64);
    let span_registry = Arc::new(Registry::new());
    let evaluate_with_span = |ring: &pevpm_obs::SpanRing, reg: &Registry| {
        let t0 = std::time::Instant::now();
        let mut span = pevpm_obs::RequestSpan::new(ring.next_id(), "predict", 0, 0.0);
        let pred = evaluate(&model, &no_sink, &timing).unwrap();
        let dur_us = t0.elapsed().as_secs_f64() * 1e6;
        span.stages.push(pevpm_obs::StageTiming {
            name: "eval".to_string(),
            start_us: 0.0,
            dur_us,
        });
        span.total_us = dur_us;
        reg.histogram("serve.stage.eval_ms", 0.0, 250.0, 50)
            .record(dur_us / 1e3);
        ring.push(span);
        pred
    };
    c.bench_function("pevpm: evaluation, span telemetry", |b| {
        b.iter(|| black_box(evaluate_with_span(&ring, &span_registry).makespan))
    });
    let bare = evaluate(&model, &no_sink, &timing).unwrap();
    let spanned = evaluate_with_span(&ring, &span_registry);
    assert_eq!(
        bare.makespan.to_bits(),
        spanned.makespan.to_bits(),
        "span telemetry must not perturb predictions"
    );

    // One-shot replication-throughput comparison: a 32-replication batch
    // with and without a metrics sink attached.
    let plain = monte_carlo(&model, &no_sink, &timing, 32).unwrap();
    let metered = monte_carlo(&model, &with_metrics, &timing, 32).unwrap();
    assert_eq!(
        plain.mean.to_bits(),
        metered.mean.to_bits(),
        "instrumentation must not perturb results"
    );
    println!(
        "pevpm: replication throughput {:.0} evals/s (no sink) vs {:.0} evals/s (metrics), \
         sink overhead {:+.1}%",
        plain.evals_per_sec,
        metered.evals_per_sec,
        (plain.evals_per_sec / metered.evals_per_sec.max(1e-9) - 1.0) * 100.0,
    );
}

criterion_group!(
    benches,
    netsim_throughput,
    mpisim_pingpong,
    histogram_sampling,
    table_sampling,
    pevpm_eval,
    replication_throughput,
    instrumentation_overhead
);
criterion_main!(benches);
