//! Two episodes of every workload through the library entry point, plain
//! and traced: the metrics exist, nothing fails, tracing does not move a
//! simulated cycle, and the role attribution adds up.

use imax_benchmark::{run, Budget, Plan, Report, Role, Workload};

/// What every run reports; `run.py` adds `peak_rss_mb`, measured from
/// outside the process.
const ALWAYS: [&str; 5] = [
    "ops_per_s",
    "episode_ms_p50",
    "episode_ms_p90",
    "sim_cycles_per_op",
    "setup_s",
];

fn two_episodes(workload: Workload, trace: bool) -> Report {
    let r = run(&Plan {
        workload,
        seed: 1,
        warmup: 0,
        budget: Budget::Episodes(2),
        trace,
    });
    assert_eq!(r.episodes, 2);
    assert!(r.attempted > 0);
    assert_eq!(r.failed, 0, "{:?}", r.problems);
    assert!(r.correct(), "{:?}", r.problems);
    for name in ALWAYS {
        let v = r.metric(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
    r
}

fn check(workload: Workload) {
    let plain = two_episodes(workload, false);
    let traced = two_episodes(workload, true);
    let cycles = |r: &Report| r.metric("sim_cycles_per_op").unwrap().to_bits();
    assert_eq!(
        cycles(&plain),
        cycles(&traced),
        "tracing moved simulated cycles"
    );
    assert!(
        plain.metric("sim.step_ns").is_none(),
        "per-layer only when traced"
    );
    assert!(traced.metric("sim.step_ns").unwrap() > 0.0);
    assert!(!traced.spans.is_empty());

    let shares: f64 = Role::ALL
        .iter()
        .map(|r| traced.metric(r.share_metric()).unwrap())
        .sum();
    let cycles = |r: Role| traced.seen.role_cycles[r as usize];
    match workload {
        Workload::Filing | Workload::Tenants => {
            // Every observed step is attributed to exactly one role.
            assert!((shares - 1.0).abs() < 1e-9, "role shares sum to {shares}");
            // Busy cycles beyond executed instructions (dispatch,
            // blocking) are the residual, never negative.
            assert!(traced.metric("sim.unattributed_cycles").unwrap() >= 0.0);
            assert!(cycles(Role::Gdp) > 0);
        }
        // Threaded host time is only seen as whole-run spans.
        _ => assert_eq!(shares, 0.0),
    }
    match workload {
        Workload::Filing => assert!(cycles(Role::Filing) > 0 && cycles(Role::Gc) > 0),
        Workload::Tenants => assert!(cycles(Role::Ipc) > 0),
        _ => assert!(traced.metric("gdp.instr_per_op").unwrap() > 0.0),
    }
}

#[test]
fn filing_smoke() {
    check(Workload::Filing);
}

#[test]
fn tenants_smoke() {
    check(Workload::Tenants);
}

#[test]
fn pipeline_smoke() {
    check(Workload::Pipeline);
}

#[test]
fn mutex_smoke() {
    check(Workload::Mutex);
}
