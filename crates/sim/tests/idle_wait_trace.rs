//! The idle polls charged to a waiting processor reach the flight
//! recorder as if they had run.
//!
//! `support::build`'s system runs to quiescence once waiting and once
//! as the polling reference. Every recorder counter, `port_surrogates`
//! among them, must move by the same amount in both runs, and both
//! timelines must hold the same number of `PortSurrogate` events.
//!
//! The recorder is process-global, so this file is its own test binary,
//! and it asserts only when the recorder is compiled in (`--features
//! trace`).

mod support;

use i432_sim::RunOutcome;
use i432_trace::{Counter, EventKind};
use support::{build, state_of, Reference};

/// Every counter's value, and the `PortSurrogate` events recorded.
fn recorded() -> (Vec<u64>, usize) {
    let counts = i432_trace::snapshot();
    let timeline = i432_trace::drain_timeline();
    (
        Counter::ALL.iter().map(|&c| counts.get(c)).collect(),
        timeline.of_kind(EventKind::PortSurrogate).len(),
    )
}

#[test]
fn charged_polls_reach_the_recorder() {
    if !i432_trace::ENABLED {
        return;
    }
    let _guard = i432_trace::test_guard();
    let mut sys = build(false);
    let mut reference = Reference::new(&sys);

    i432_trace::reset();
    assert_eq!(sys.run_to_quiescence(u64::MAX), RunOutcome::Quiescent);
    let (waited, waited_events) = recorded();

    i432_trace::reset();
    let want = reference.run_until(&sys, u64::MAX, |_, _| false);
    assert_eq!(want, RunOutcome::Quiescent);
    let (polled, polled_events) = recorded();

    assert_eq!(state_of(&sys), reference.state());
    let surrogates = Counter::ALL
        .iter()
        .position(|&c| c == Counter::PortSurrogates)
        .unwrap();
    assert!(polled[surrogates] > 100, "{} polls", polled[surrogates]);
    for (i, c) in Counter::ALL.iter().enumerate() {
        assert_eq!(waited[i], polled[i], "{}", c.name());
    }
    assert_eq!(waited_events, polled_events);
}
