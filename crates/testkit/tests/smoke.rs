//! The committed smoke corpus: 240 generated programs across the five
//! oracles, run on every `cargo test`. Long-run fuzzing uses the same
//! campaign driver through `pevpm fuzz`; this bounded corpus is the
//! regression net every PR inherits.
//!
//! Program counts per mode are chosen so the whole file stays in the
//! low seconds even in debug builds while clearing the ≥200-program
//! floor: the differential oracle is the cheapest and widest (all item
//! kinds), so it carries the largest share.

use pevpm_testkit::campaign::{run_campaign, CampaignConfig, Mode};

fn run(mode: Mode, programs: usize) {
    let cfg = CampaignConfig {
        mode,
        programs,
        ..CampaignConfig::default()
    };
    let res = run_campaign(&cfg);
    assert_eq!(res.programs, programs);
    assert!(res.directives > 0);
    if !res.passed() {
        let mut msg = format!(
            "{} counterexample(s) under the {} oracle:\n",
            res.failures.len(),
            mode
        );
        for cx in &res.failures {
            msg.push_str(&cx.render());
            msg.push('\n');
        }
        panic!("{msg}");
    }
}

#[test]
fn differential_smoke() {
    run(Mode::Differential, 80);
}

#[test]
fn metamorphic_smoke() {
    run(Mode::Metamorphic, 50);
}

#[test]
fn ks_smoke() {
    run(Mode::Ks, 40);
}

#[test]
fn diagnostics_smoke() {
    run(Mode::Diagnostics, 40);
}

#[test]
fn adaptive_smoke() {
    run(Mode::Adaptive, 30);
}
