//! Idle GDP threads wait at the dispatching port.
//!
//! On the threaded runner a GDP thread whose processor has nothing to run
//! waits at the dispatching port's doorbell, taking no lock and no step,
//! until a process is queued there or the run is done. Without aux
//! workers, the last thread to start waiting ends the run: nothing is
//! queued or running then, and no process can become ready.
//!
//! Each run happens on a helper thread and the test fails on a
//! `recv_timeout`, so a regression that hangs fails instead.

#[path = "support/wait.rs"]
mod wait;

use i432_arch::ProcessStatus;
use i432_sim::{run_threaded, run_threaded_with, System, ThreadedOutcome};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Duration;
use wait::{deadlocked, one_loop, ping_pong, spinners, LOOP_INSTRUCTIONS};

/// Runs `run` on a helper thread; panics if it has not returned within
/// `limit`.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    run: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|e| panic!("{what}: no outcome within {limit:?} ({e})"))
}

fn run(sys: System) -> ThreadedOutcome {
    run_threaded(sys, u64::MAX).1
}

#[test]
fn idle_threads_take_no_steps_while_they_wait() {
    const THREADS: u64 = 4;
    let outcome = within(Duration::from_secs(30), "one loop", || {
        run(one_loop(THREADS as u32))
    });
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "{outcome:?}"
    );
    // The loop's own steps, plus each thread's first step; polls of an
    // empty port are not steps.
    assert!(
        outcome.steps <= LOOP_INSTRUCTIONS + 2 * THREADS,
        "{} steps for a {LOOP_INSTRUCTIONS}-instruction loop on {THREADS} threads",
        outcome.steps
    );
}

/// Threads claim the step budget in chunks; a run that spends it
/// reports the steps actually taken, never more than `max_steps`. A
/// thread other than the one whose claim failed may leave part of its
/// last chunk untaken.
#[test]
fn a_spent_budget_counts_only_the_steps_taken() {
    const MAX_STEPS: u64 = 10_000;
    for cpus in [1, 2, 4] {
        let outcome = within(Duration::from_secs(30), "spinners", move || {
            run_threaded(spinners(cpus), MAX_STEPS).1
        });
        assert!(!outcome.completed, "{cpus} threads: {outcome:?}");
        assert_eq!(outcome.system_errors, 0, "{cpus} threads");
        assert!(
            (MAX_STEPS / 2..=MAX_STEPS).contains(&outcome.steps),
            "{cpus} threads: {} steps for a budget of {MAX_STEPS}",
            outcome.steps
        );
    }
}

#[test]
fn a_deadlocked_run_ends_quiescent() {
    for cpus in [2, 4] {
        let outcome = within(Duration::from_secs(10), "deadlock", move || {
            run(deadlocked(cpus))
        });
        assert!(!outcome.completed, "{cpus} threads: {outcome:?}");
        assert_eq!(outcome.system_errors, 0, "{cpus} threads");
    }
}

#[test]
fn done_from_an_aux_worker_wakes_waiting_threads() {
    let outcome = within(Duration::from_secs(2), "aux done", || {
        let stop = Box::new(|_: &_, done: &std::sync::atomic::AtomicBool| {
            std::thread::sleep(Duration::from_millis(50));
            done.store(true, Ordering::Release);
        });
        run_threaded_with(deadlocked(4), u64::MAX, vec![stop]).1
    });
    assert!(!outcome.completed, "{outcome:?}");
    assert_eq!(outcome.system_errors, 0);
}

#[test]
fn no_lost_wakeups() {
    for round in 0..100 {
        let (sys, outcome) = within(Duration::from_secs(10), "ping-pong", || {
            run_threaded(ping_pong(4), u64::MAX)
        });
        assert!(
            outcome.completed && outcome.system_errors == 0,
            "round {round}: {outcome:?}"
        );
        for p in sys.processes() {
            let ps = sys.space.process(*p).unwrap();
            assert_eq!(
                (ps.status, ps.fault_code),
                (ProcessStatus::Terminated, 0),
                "round {round}"
            );
        }
    }
}
