//! Tier-1 smoke for superinstruction fusion: the threaded runner's
//! fused GDPs replay a seed to the same workload-visible end state
//! every time.
//! `differential.rs` diffs the same runs against the deterministic
//! reference.

use i432_conform::{generate, run_threaded_sys};

/// The fused threaded runner is deterministic in the workload-visible
/// sense: two replays of one seed at one matrix point agree with each
/// other.
#[test]
fn fused_replays_are_self_consistent() {
    for seed in [0, 5, 19] {
        let case = generate(seed);
        let (_, a) = run_threaded_sys(&case, 4, 2);
        let (_, b) = run_threaded_sys(&case, 4, 2);
        assert_eq!(a, b, "seed {seed}: fused replays diverged");
    }
}
