//! Tier-1 smoke for the dispatch-specialization arms: seed replays
//! through the fused threaded runner (pre-decoded blocks and
//! superinstruction fusion) must be
//! invisible to the differential oracle — same digests, same counter,
//! same per-process verdicts as the deterministic reference and the
//! unfused arms. CI's `conform` job runs the full 256-seed sweep with
//! `--fast-paths every`; this is the slice sized for a 1-core test host.

use i432_conform::{check_seed, generate, run_threaded_sys, QUICK_MATRIX};
use i432_sim::FastPaths;

/// Seed replay, every fast-path configuration on the quick matrix:
/// each (matrix point × arm) against the reference.
#[test]
fn fusion_arms_match_the_oracle() {
    for seed in 0..8 {
        let report = check_seed(seed, QUICK_MATRIX, &FastPaths::EVERY);
        assert!(
            report.passed(),
            "seed {seed} diverged:\n{}",
            report.mismatches.join("\n")
        );
    }
}

/// The fused arm is deterministic in the workload-visible sense: two
/// fused replays of one seed at one matrix point agree with each other.
#[test]
fn fused_replays_are_self_consistent() {
    for seed in [0, 5, 19] {
        let case = generate(seed);
        let (_, a) = run_threaded_sys(&case, 4, 2, FastPaths::ALL);
        let (_, b) = run_threaded_sys(&case, 4, 2, FastPaths::ALL);
        assert_eq!(a, b, "seed {seed}: fused replays diverged");
    }
}
