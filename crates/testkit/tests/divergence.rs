//! Seeded-divergence drills: prove the harness *catches* bugs, not just
//! that clean builds pass.
//!
//! Two layers:
//!
//! - A runtime drill (always on): evaluate the interpreted path against a
//!   compiled path whose `Send` distributions were nudged by 5%, exactly
//!   the class of defect the bitwise differential oracle exists for. The
//!   fuzzer must find a failing program, the shrinker must minimise it to
//!   a ≤ 10-directive counterexample, and the artifact must round-trip.
//! - A compiled-sampler drill behind the `divergence-injection` cargo
//!   feature: `pevpm-dist` flips one ULP on every compiled-path quantile,
//!   so the whole differential campaign must light up. Run explicitly via
//!   `cargo test -p pevpm-testkit --features divergence-injection --test
//!   divergence` (the feature deliberately breaks bitwise guarantees, so
//!   it is never enabled in normal builds).

use pevpm::replicate::replica_seed;
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, EvalConfig};
use pevpm_dist::{CommDist, DistKey, DistTable, Histogram, Op};
use pevpm_testkit::gen::{generate, GenConfig};
use pevpm_testkit::shrink::shrink;
use pevpm_testkit::tables::{synthetic_table, CONTENTIONS};
use pevpm_testkit::{Counterexample, Failure, TestProgram};

/// Copy `table` with every `Send` histogram shifted up by 5% — a model
/// of a miscompiled sampler for one operation.
fn perturb_sends(table: &DistTable, sizes: &[u64]) -> DistTable {
    let mut broken = table.clone();
    let mut all_sizes: Vec<u64> = sizes.to_vec();
    all_sizes.push(0);
    for &size in &all_sizes {
        for &contention in &CONTENTIONS {
            let key = DistKey {
                op: Op::Send,
                size,
                contention,
            };
            if let Some(d) = table.get(&key) {
                let samples: Vec<f64> = (0..40)
                    .map(|i| d.quantile(i as f64 / 39.0) * 1.05)
                    .collect();
                let width = (samples[39] - samples[0]).max(1e-12) / 16.0;
                broken.insert(
                    key,
                    CommDist::Hist(Histogram::from_samples(&samples, width)),
                );
            }
        }
    }
    broken
}

/// The drill's differential check: interpreted on the true table vs
/// compiled on the perturbed one. Bitwise makespan comparison, same
/// replication seeding as the real oracle.
fn diverges(
    prog: &TestProgram,
    clean: &TimingModel,
    broken: &TimingModel,
    seed: u64,
) -> Option<Failure> {
    let model = prog.to_model();
    for r in 0..2u64 {
        let cfg = EvalConfig::new(prog.nprocs).with_seed(replica_seed(seed, r));
        let a = match evaluate(&model, &cfg, clean) {
            Ok(p) => p,
            Err(_) => return None, // out-of-family candidate; not a divergence
        };
        let b = match evaluate(&model, &cfg, broken) {
            Ok(p) => p,
            Err(_) => return None,
        };
        if a.makespan.to_bits() != b.makespan.to_bits() {
            return Some(Failure::Differential {
                left: "interpreted",
                right: "compiled",
                replication: r as usize,
                field: "makespan".into(),
                left_value: format!("{:.17e}", a.makespan),
                right_value: format!("{:.17e}", b.makespan),
            });
        }
    }
    None
}

#[test]
fn perturbed_sampler_is_caught_shrunk_and_replayable() {
    let gen_cfg = GenConfig::differential();
    let mut sizes = gen_cfg.sizes.clone();
    sizes.extend(gen_cfg.sizes.iter().map(|s| s * 2));
    let table = synthetic_table(&sizes, 11);
    let clean = TimingModel::interpreted(table.clone());
    let broken = TimingModel::distributions(perturb_sends(&table, &sizes));

    // The fuzzer must find the defect quickly: almost every program
    // contains a blocking send.
    let (seed, prog, first) = (0..20u64)
        .find_map(|seed| {
            let prog = generate(&gen_cfg, seed);
            diverges(&prog, &clean, &broken, seed).map(|f| (seed, prog, f))
        })
        .expect("a 5% sampler perturbation must be caught within 20 programs");

    let minimised = shrink(&prog, &gen_cfg.sizes, |cand| {
        diverges(cand, &clean, &broken, seed).is_some()
    });
    assert!(
        minimised.directives() <= 10,
        "shrinker left {} directives:\n{}",
        minimised.directives(),
        minimised.to_text()
    );
    assert!(
        diverges(&minimised, &clean, &broken, seed).is_some(),
        "minimised program must still diverge"
    );

    // The artifact round-trips and replays to the same program.
    let cx = Counterexample::new(&first, seed, &prog, minimised.clone());
    let parsed = Counterexample::parse(&cx.render()).expect("artifact must parse back");
    assert_eq!(parsed.program, minimised);
    assert_eq!(parsed.seed, seed);
    assert_eq!(parsed.oracle, "differential");
}

/// With the `divergence-injection` feature the adaptive engine's
/// stopping check uses an off-by-one degrees-of-freedom count (the
/// half-width of `n` samples is computed as if there were `n + 1`) — a
/// model of the classic n-vs-n−1 mistake, which makes the rule *too
/// permissive* and stop early. The adaptive oracle must catch the
/// engine disagreeing with the reference `stop_point`, the shrinker
/// must minimise the witness, and the artifact must round-trip.
#[cfg(feature = "divergence-injection")]
#[test]
fn injected_off_by_one_stopping_rule_is_caught_and_shrunk() {
    use pevpm_testkit::oracle::check_adaptive;

    let gen_cfg = GenConfig::adaptive();
    let mut sizes = gen_cfg.sizes.clone();
    sizes.extend(gen_cfg.sizes.iter().map(|s| s * 2));
    let table = synthetic_table(&sizes, 11);

    // Only stop-point/prefix divergences count: the seeded defect moves
    // the stopping index, it does not break determinism.
    let fails = |prog: &TestProgram, seed: u64| -> Option<Failure> {
        check_adaptive(prog, &table, seed)
            .err()
            .filter(|f| f.kind() == "adaptive")
    };

    let (seed, prog, first) = (0..60u64)
        .find_map(|seed| {
            let prog = generate(&gen_cfg, seed);
            fails(&prog, seed).map(|f| (seed, prog, f))
        })
        .expect("an off-by-one stopping rule must be caught within 60 programs");

    let minimised = shrink(&prog, &gen_cfg.sizes, |cand| fails(cand, seed).is_some());
    assert!(
        minimised.directives() <= 10,
        "shrinker left {} directives:\n{}",
        minimised.directives(),
        minimised.to_text()
    );
    assert!(
        fails(&minimised, seed).is_some(),
        "minimised program must still trip the adaptive oracle"
    );

    let cx = Counterexample::new(&first, seed, &prog, minimised.clone());
    let parsed = Counterexample::parse(&cx.render()).expect("artifact must parse back");
    assert_eq!(parsed.program, minimised);
    assert_eq!(parsed.seed, seed);
    assert_eq!(parsed.oracle, "adaptive");
}

/// With the `divergence-injection` feature the compiled sampler's every
/// quantile is one ULP off: the differential campaign must light up and
/// every counterexample must shrink to ≤ 10 directives.
#[cfg(feature = "divergence-injection")]
#[test]
fn injected_ulp_divergence_is_caught_by_the_campaign() {
    use pevpm_testkit::campaign::{run_campaign, CampaignConfig};

    let cfg = CampaignConfig {
        programs: 10,
        ..CampaignConfig::default()
    };
    let res = run_campaign(&cfg);
    assert!(
        !res.failures.is_empty(),
        "a 1-ULP compiled-sampler mutation must not survive 10 programs"
    );
    for cx in &res.failures {
        assert_eq!(cx.oracle, "differential");
        assert!(
            cx.program.directives() <= 10,
            "counterexample not minimised: {} directives",
            cx.program.directives()
        );
    }
}
