//! Smoke sizes of every workload: each finishes in seconds and must pass
//! its output checks and report every declared metric with its unit.

use perfbench::{run, trace, Opts, Size, Tracer, Workload, END_TO_END, PER_LAYER};
use pevpm_obs::json::{self, Json};

fn smoke(workload: Workload, traced: bool) -> (perfbench::Report, Tracer) {
    let opts = Opts {
        seed: 5,
        seconds: 0.3,
        trace: traced,
        size: Size::Smoke,
        ..Opts::new(workload)
    };
    let tracer = Tracer::new(traced, opts.run_id());
    let rep = run(&opts, &tracer);
    assert!(rep.attempted > 0, "{}: nothing attempted", workload.name());
    assert_eq!(rep.failed, 0, "{}: {:?}", workload.name(), rep.failures);
    (rep, tracer)
}

fn check_untraced(workload: Workload) {
    let (rep, _) = smoke(workload, false);
    for (name, _) in END_TO_END {
        let v = rep.metrics.get(name).copied();
        assert!(
            v.is_some_and(|v| v > 0.0),
            "{}: {name} = {v:?}",
            workload.name()
        );
    }
}

fn check_traced(workload: Workload) {
    let (rep, tracer) = smoke(workload, true);
    for (name, _) in PER_LAYER {
        let v = rep.metrics.get(name).copied().unwrap_or(0.0);
        assert!(v.is_finite(), "{}: {name} = {v}", workload.name());
    }
    let spans = tracer.spans();
    assert!(spans.iter().any(|s| s.name == "bench.op"));
    assert!(spans.iter().all(|s| s.end_us >= s.start_us));
    let coverage = trace::coverage(&spans, "bench.op");
    assert!(
        coverage >= 0.9,
        "{}: layer spans cover {coverage}",
        workload.name()
    );
    assert!(rep.metrics.contains_key("trace.overhead"));
    let chrome = tracer.chrome(workload.name()).to_json();
    assert_eq!(pevpm_obs::chrome::validate(&chrome), Ok(spans.len()));
}

#[test]
fn predict_fig6_smoke() {
    check_untraced(Workload::PredictFig6);
    check_traced(Workload::PredictFig6);
}

#[test]
fn measure_halo_smoke() {
    check_untraced(Workload::MeasureHalo);
    check_traced(Workload::MeasureHalo);
}

#[test]
fn mpibench_large_smoke() {
    check_untraced(Workload::MpibenchLarge);
    check_traced(Workload::MpibenchLarge);
}

#[test]
fn serve_tiny_smoke() {
    check_untraced(Workload::ServeTiny);
    check_traced(Workload::ServeTiny);
}

/// The metric catalogue is the one `BENCHMARK.json` declares, name for
/// name and unit for unit.
#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&src).expect("BENCHMARK.json parses");
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(String, String)> = doc
            .get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours, "{key} differs from the catalogue");
    }
    for w in doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
    {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}
