//! Fuzzing campaigns: generate → check → shrink → report, per oracle.
//!
//! This is the engine behind both the `cli fuzz` subcommand and the
//! committed smoke corpus (`crates/testkit/tests/smoke.rs`). A campaign
//! is fully determined by its [`CampaignConfig`]: the same config always
//! generates the same programs, builds the same tables, and reaches the
//! same verdicts.

use crate::gen::{generate, GenConfig};
use crate::oracle::{
    check_adaptive, check_diagnostics, check_differential, check_fault_identity, check_ks,
    check_scaling, Failure,
};
use crate::program::TestProgram;
use crate::report::Counterexample;
use crate::shrink::shrink;
use crate::tables::{bench_table, synthetic_table};
use pevpm_dist::DistTable;
use pevpm_mpibench::MachineShape;
use std::fmt;

/// Which oracle a campaign drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Bitwise agreement of the three evaluation paths.
    Differential,
    /// Size-scaling dominance plus empty-fault-plan identity.
    Metamorphic,
    /// Two-sample KS against mpisim co-simulation.
    Ks,
    /// Deadlock/budget diagnostics on maybe-deadlocking programs.
    Diagnostics,
    /// Adaptive sequential stopping against the reference rule:
    /// determinism, fixed-prefix truncation, and CI agreement with the
    /// full fixed batch.
    Adaptive,
}

impl Mode {
    /// Stable lower-case name (CLI flag value, report field).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Differential => "differential",
            Mode::Metamorphic => "metamorphic",
            Mode::Ks => "ks",
            Mode::Diagnostics => "diagnostics",
            Mode::Adaptive => "adaptive",
        }
    }

    /// Parse a [`Mode::name`] back.
    pub fn from_name(s: &str) -> Option<Mode> {
        match s {
            "differential" => Some(Mode::Differential),
            "metamorphic" => Some(Mode::Metamorphic),
            "ks" => Some(Mode::Ks),
            "diagnostics" => Some(Mode::Diagnostics),
            "adaptive" => Some(Mode::Adaptive),
            _ => None,
        }
    }

    /// All modes, in reporting order.
    pub const ALL: [Mode; 5] = [
        Mode::Differential,
        Mode::Metamorphic,
        Mode::Ks,
        Mode::Diagnostics,
        Mode::Adaptive,
    ];
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Oracle to drive.
    pub mode: Mode,
    /// Number of programs to generate and check.
    pub programs: usize,
    /// Base seed; program `i` uses `seed + i`.
    pub seed: u64,
    /// KS significance level.
    pub alpha: f64,
    /// Monte-Carlo replications per differential/metamorphic program.
    pub replications: usize,
    /// Samples per side of the KS test.
    pub ks_runs: usize,
    /// MPIBench repetitions backing the KS table.
    pub bench_reps: usize,
}

impl Default for CampaignConfig {
    /// The default α puts the 40-vs-40 critical KS distance at ≈0.55:
    /// well above the ≈0.45 that the engine's genuine residual modelling
    /// error (~1% of the makespan, the figure the paper itself reports)
    /// can reach on long relay chains, and well below the 0.8–1.0 that
    /// real defects (wrong matching, lost contention, broken sampling)
    /// produce — every seeded-bug counterexample found while calibrating
    /// scored ≥ 0.775.
    fn default() -> Self {
        CampaignConfig {
            mode: Mode::Differential,
            programs: 50,
            seed: 2004,
            alpha: 1e-5,
            replications: 3,
            ks_runs: 40,
            bench_reps: 40,
        }
    }
}

/// The machine shape KS campaigns benchmark and co-simulate on.
///
/// One process per node keeps every link inter-node: with `ppn > 1` the
/// ring benchmark mixes intra- and inter-node samples into one
/// distribution, a locality split the `(op, size, contention)` table key
/// cannot express, so any single-locality program diverges from the
/// mixture and the KS oracle reports model-fidelity noise instead of
/// engine bugs.
pub const KS_SHAPE: MachineShape = MachineShape { nodes: 4, ppn: 1 };

/// Message-size grid of KS campaigns (kept small: each size needs its
/// own benchmark distribution, and eager-protocol only).
pub const KS_SIZES: [u64; 3] = [256, 1024, 4096];

/// Outcome of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// How many programs were checked.
    pub programs: usize,
    /// Minimised counterexamples, in discovery order (empty on success).
    pub failures: Vec<Counterexample>,
    /// Sum of generated directive counts (a coverage indicator).
    pub directives: usize,
}

impl CampaignResult {
    /// True when every program passed its oracle.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Generator config and timing table for a mode.
fn mode_setup(mode: Mode, seed: u64, bench_reps: usize) -> (GenConfig, DistTable) {
    match mode {
        Mode::Differential => {
            let cfg = GenConfig::differential();
            let table = synthetic_table(&with_doubles(&cfg.sizes), seed);
            (cfg, table)
        }
        Mode::Metamorphic => {
            let cfg = GenConfig::metamorphic();
            let table = synthetic_table(&with_doubles(&cfg.sizes), seed);
            (cfg, table)
        }
        Mode::Ks => {
            let cfg = GenConfig::ks(KS_SHAPE.nodes * KS_SHAPE.ppn, KS_SIZES.to_vec());
            let table = bench_table(&KS_SIZES, bench_reps, seed);
            (cfg, table)
        }
        Mode::Diagnostics => {
            let cfg = GenConfig::maybe_deadlocking();
            let table = synthetic_table(&with_doubles(&cfg.sizes), seed);
            (cfg, table)
        }
        Mode::Adaptive => {
            let cfg = GenConfig::adaptive();
            let table = synthetic_table(&with_doubles(&cfg.sizes), seed);
            (cfg, table)
        }
    }
}

fn with_doubles(sizes: &[u64]) -> Vec<u64> {
    let mut all: Vec<u64> = sizes.to_vec();
    all.extend(sizes.iter().map(|s| s * 2));
    all.sort_unstable();
    all.dedup();
    all
}

/// Run one program through the mode's oracle.
fn check(
    mode: Mode,
    cfg: &CampaignConfig,
    table: &DistTable,
    prog: &TestProgram,
    seed: u64,
) -> Result<(), Failure> {
    match mode {
        Mode::Differential => check_differential(prog, table, seed, cfg.replications),
        Mode::Metamorphic => {
            check_scaling(prog, table, 2, seed, cfg.replications)?;
            check_fault_identity(
                prog,
                MachineShape {
                    nodes: prog.nprocs,
                    ppn: 1,
                },
                seed,
            )
        }
        Mode::Ks => {
            // Shrink candidates that drop processes cannot be co-simulated
            // on the benchmarked shape, and candidates outside the
            // token-relay family fail for model-fidelity reasons the
            // oracle does not gate (see [`crate::gen::is_token_relay`]);
            // treat both as passing so the shrinker rejects them instead
            // of wandering out of the sound program space.
            if prog.nprocs != KS_SHAPE.nodes * KS_SHAPE.ppn || !crate::gen::is_token_relay(prog) {
                return Ok(());
            }
            check_ks(
                prog,
                table,
                KS_SHAPE,
                cfg.alpha,
                cfg.ks_runs,
                cfg.ks_runs,
                seed,
            )
            .map(|_| ())
        }
        Mode::Diagnostics => check_diagnostics(prog, table, seed),
        Mode::Adaptive => check_adaptive(prog, table, seed),
    }
}

/// Run a campaign: generate `programs` programs, check each, and shrink
/// any failure to a minimised [`Counterexample`].
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let (gen_cfg, table) = mode_setup(cfg.mode, cfg.seed, cfg.bench_reps);
    let mut failures = Vec::new();
    let mut directives = 0;
    for i in 0..cfg.programs {
        let seed = cfg.seed.wrapping_add(i as u64);
        let prog = generate(&gen_cfg, seed);
        directives += prog.directives();
        if let Err(first) = check(cfg.mode, cfg, &table, &prog, seed) {
            // Shrink toward the *same kind* of failure so minimisation
            // cannot wander from, say, a KS divergence to an evaluation
            // error on a degenerate candidate.
            let kind = first.kind();
            let minimised = shrink(&prog, &gen_cfg.sizes, |candidate| {
                check(cfg.mode, cfg, &table, candidate, seed)
                    .err()
                    .is_some_and(|f| f.kind() == kind)
            });
            // Re-derive the failure on the minimised program so the
            // artifact's description matches what it replays to; fall
            // back to the original failure if shrinking somehow landed
            // on a passing program (it cannot, by construction).
            let failure = check(cfg.mode, cfg, &table, &minimised, seed)
                .err()
                .unwrap_or(first);
            failures.push(Counterexample::new(&failure, seed, &prog, minimised));
        }
    }
    CampaignResult {
        programs: cfg.programs,
        failures,
        directives,
    }
}

/// Replay a parsed counterexample artifact under its recorded oracle.
/// Returns the failure if it still reproduces.
pub fn replay(cx: &Counterexample, cfg: &CampaignConfig) -> Result<(), Failure> {
    let mode = Mode::from_name(&cx.oracle).unwrap_or(cfg.mode);
    let (_, table) = mode_setup(mode, cfg.seed, cfg.bench_reps);
    check(mode, cfg, &table, &cx.program, cx.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for m in Mode::ALL {
            assert_eq!(Mode::from_name(m.name()), Some(m));
        }
        assert_eq!(Mode::from_name("bogus"), None);
    }

    #[test]
    fn small_differential_campaign_passes() {
        let cfg = CampaignConfig {
            programs: 5,
            ..CampaignConfig::default()
        };
        let res = run_campaign(&cfg);
        assert!(res.passed(), "{:?}", res.failures);
        assert_eq!(res.programs, 5);
        assert!(res.directives > 0);
    }

    #[test]
    fn small_diagnostics_campaign_passes() {
        let cfg = CampaignConfig {
            mode: Mode::Diagnostics,
            programs: 5,
            ..CampaignConfig::default()
        };
        let res = run_campaign(&cfg);
        assert!(res.passed(), "{:?}", res.failures);
    }
}
