//! Idle processors wait at the dispatching port, with every simulated
//! quantity what polling gives.
//!
//! Each case runs `support::build`'s four-processor system and the
//! polling [`Reference`] over a copy of it the same way, and compares
//! them after every return: the outcome, `now()`, `steps()`, each
//! processor's busy and idle cycles, the space's logical digest and its
//! operation counters. The workload makes processors wait while two
//! others compute, wakes them when a sender readies a receiver and when
//! time slices requeue the workers, and lets a receive timeout expire
//! while two of them wait.

mod support;

use i432_arch::ProcessStatus;
use i432_gdp::{FaultKind, StepEvent};
use i432_sim::{RunOutcome, System};
use support::{build, state_of, Reference};

/// A system and its reference, neither run yet.
fn pair(halt: bool) -> (System, Reference) {
    let sys = build(halt);
    let reference = Reference::new(&sys);
    (sys, reference)
}

/// The steps a run to quiescence takes, and how many of them the system
/// actually stepped rather than charged to a waiting processor.
fn run_length(halt: bool) -> (u64, u64) {
    let (mut sys, _) = pair(halt);
    let mut stepped = 0;
    loop {
        let outcome = sys.run_until(u64::MAX, |_, _| {
            stepped += 1;
            false
        });
        match outcome {
            RunOutcome::SystemError(_) => continue,
            RunOutcome::Quiescent => return (sys.steps(), stepped),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn the_workload_waits_and_times_out() {
    let (steps, stepped) = run_length(false);
    assert!(
        stepped * 2 < steps,
        "most polls are charged, not stepped: {stepped} of {steps}"
    );
    let (mut sys, _) = pair(false);
    assert_eq!(sys.run_to_quiescence(u64::MAX), RunOutcome::Quiescent);
    let timed = sys.services()[0];
    let ps = sys.space.process(timed).unwrap();
    assert_eq!(ps.fault_code, FaultKind::Timeout.code());
    assert_eq!(ps.status, ProcessStatus::Terminated);
    for p in sys.processes().to_vec() {
        assert_eq!(sys.status_of(p), Some(ProcessStatus::Terminated));
    }
}

#[test]
fn every_budget_matches_polling() {
    let (length, _) = run_length(false);
    for budget in 1..=length {
        let (mut sys, mut reference) = pair(false);
        let got = sys.run_until(budget, |_, _| false);
        let want = reference.run_until(&sys, budget, |_, _| false);
        assert_eq!(got, want, "budget {budget}");
        assert_eq!(state_of(&sys), reference.state(), "budget {budget}");
    }
}

#[test]
fn chunked_runs_to_completion_match_polling() {
    for chunk in [1, 7, 4_096] {
        let (mut sys, mut reference) = pair(false);
        let mut runs = 0;
        loop {
            let got = sys.run_to_completion(chunk);
            let want = reference.run_to_completion(&sys, chunk);
            assert_eq!(got, want, "chunk {chunk}, run {runs}");
            assert_eq!(
                state_of(&sys),
                reference.state(),
                "chunk {chunk}, run {runs}"
            );
            runs += 1;
            if got != RunOutcome::BudgetExhausted {
                assert_eq!(got, RunOutcome::Stopped, "chunk {chunk}");
                break;
            }
        }
    }
}

#[test]
fn a_stop_at_each_executed_instruction_matches_polling() {
    let executed = {
        let (mut sys, _) = pair(false);
        let mut n = 0;
        sys.run_until(u64::MAX, |_, e| {
            n += matches!(e, StepEvent::Executed { .. }) as u64;
            false
        });
        n
    };
    assert!(executed > 20, "{executed} instructions");
    for k in 1..=executed {
        let (mut sys, mut reference) = pair(false);
        let kth = |n: &mut u64, e: &StepEvent| {
            *n += matches!(e, StepEvent::Executed { .. }) as u64;
            *n == k
        };
        let (mut a, mut b) = (0, 0);
        let got = sys.run_until(u64::MAX, |_, e| kth(&mut a, e));
        let want = reference.run_until(&sys, u64::MAX, |_, e| kth(&mut b, e));
        assert_eq!(got, RunOutcome::Stopped, "k {k}");
        assert_eq!(got, want, "k {k}");
        assert_eq!(state_of(&sys), reference.state(), "k {k}");
        // The run resumes from the same place on both sides.
        let got = sys.run_to_quiescence(u64::MAX);
        let want = reference.run_until(&sys, u64::MAX, |_, _| false);
        assert_eq!(got, want, "k {k}, resumed");
        assert_eq!(state_of(&sys), reference.state(), "k {k}, resumed");
    }
}

#[test]
fn a_halted_processor_beside_waiting_ones_matches_polling() {
    let (length, _) = run_length(true);
    for budget in [1, 2, 3, 5, 17, 64, 333, 4_096] {
        let (mut sys, mut reference) = pair(true);
        let mut halted = false;
        for run in 0..=length {
            let got = sys.run_until(budget, |_, _| false);
            let want = reference.run_until(&sys, budget, |_, _| false);
            assert_eq!(got, want, "budget {budget}, run {run}");
            assert_eq!(
                state_of(&sys),
                reference.state(),
                "budget {budget}, run {run}"
            );
            halted |= matches!(got, RunOutcome::SystemError(_));
            if got == RunOutcome::Quiescent {
                break;
            }
        }
        assert!(halted, "budget {budget}: a processor halted");
    }
}
