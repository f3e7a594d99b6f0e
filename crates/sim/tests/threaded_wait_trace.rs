//! Idle GDP threads poll the dispatching port only once each.
//!
//! Every poll of the dispatching port is a hardware-carrier receive,
//! counted as a `port_surrogates` event. While one process runs alone on
//! four processors, each GDP thread polls once at its first step and
//! then waits at the port's doorbell, so the run counts at most one
//! surrogate per thread plus one.
//!
//! The recorder's counters are process-global, so this file is its own
//! test binary, and it asserts only when the recorder is compiled in
//! (`--features trace`).

#[path = "support/wait.rs"]
mod wait;

use i432_sim::run_threaded;
use i432_trace::Counter;

#[test]
fn waiting_threads_poll_the_dispatching_port_once() {
    if !i432_trace::ENABLED {
        return;
    }
    const THREADS: u64 = 4;
    let _guard = i432_trace::test_guard();
    let sys = wait::one_loop(THREADS as u32);
    i432_trace::reset();
    let (_, outcome) = run_threaded(sys, u64::MAX);
    let counts = i432_trace::snapshot();
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "{outcome:?}"
    );
    let surrogates = counts.get(Counter::PortSurrogates);
    assert!(
        surrogates <= THREADS + 1,
        "{surrogates} dispatching-port polls on {THREADS} threads"
    );
}
