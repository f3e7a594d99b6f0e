//! Tier-1 differential smoke: a slice of the fuzz space small enough for
//! test time on a 1-core host. CI's `conform` job runs the full 256-seed
//! sweep over the {1,4,16} × {1,4,8} matrix via the `conform_fuzz` bin.

use i432_conform::{
    check_seed, gen::generate, oracle::run_deterministic, replay_command, QUICK_MATRIX,
};

#[test]
fn fuzz_seeds_match_deterministic_quick() {
    for seed in 0..12 {
        let report = check_seed(seed, QUICK_MATRIX);
        assert!(
            report.passed(),
            "seed {seed} diverged:\n{}",
            report.mismatches.join("\n")
        );
    }
}

#[test]
fn reference_arm_is_self_consistent() {
    // Two reference runs of the same seed must agree bit-for-bit — if
    // they don't, the oracle has no baseline to differ from.
    for seed in [0, 7, 23] {
        let case = generate(seed);
        assert_eq!(
            run_deterministic(&case),
            run_deterministic(&case),
            "seed {seed}"
        );
    }
}

#[test]
fn counter_matches_generator_prediction() {
    for seed in 0..8 {
        let case = generate(seed);
        let got = run_deterministic(&case);
        assert_eq!(
            got.counter,
            case.expected_counter(),
            "seed {seed}: the mutex protocol lost or duplicated updates"
        );
    }
}

#[test]
fn faulty_processes_report_their_faults() {
    // Find seeds whose cases include deliberate faults and check the
    // reference arm records a nonzero fault code for exactly those
    // processes, with everyone else terminating cleanly.
    let mut checked = 0;
    for seed in 0..64 {
        let case = generate(seed);
        if !case.processes.iter().any(|p| p.faulty) {
            continue;
        }
        let got = run_deterministic(&case);
        for (i, p) in case.processes.iter().enumerate() {
            let (status, fault_code) = got.proc_states[i];
            if p.faulty {
                assert_ne!(
                    fault_code, 0,
                    "seed {seed} process {i} ({:?}) should fault",
                    p.fault_name
                );
            } else {
                assert_eq!(
                    fault_code, 0,
                    "seed {seed} process {i} faulted unexpectedly"
                );
                assert_eq!(status, 6, "seed {seed} process {i} should terminate");
            }
        }
        checked += 1;
        if checked >= 6 {
            return;
        }
    }
    assert!(checked > 0, "no faulty case in the first 64 seeds");
}

#[test]
fn replay_command_names_the_seed() {
    let cmd = replay_command(42, false);
    assert!(cmd.ends_with("--seed 42"), "{cmd}");
    assert!(cmd.contains("conform_fuzz"), "{cmd}");
}
