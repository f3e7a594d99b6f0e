//! The ring refill on real threads.
//!
//! A locked port operation that leaves no process waiting moves the
//! port's queue back into its ring and reopens it (`PortRing::reopen`).
//! A consumer that claimed a slot before the freeze may still be reading
//! it then, and the refill must not publish over it: had it done so, the
//! episode would lose or duplicate a message, or hang in the next
//! freeze's drain. This runs the `pipeline` benchmark's construction —
//! one producer and one consumer on two GDP threads, 5,000 messages
//! through one FIFO port — episode after episode on a helper thread
//! behind a timeout, so a hang fails instead. The ports are small, so
//! the ring fills often and a consumer is often mid-pop at a refill: at
//! capacity 2, with the wait removed, two of three sets of 1,000
//! episodes hung. A capacity-1 port holds one
//! message on two slots: on one, a slot a consumer still reads would
//! look free to a send and to a refill.

use i432_arch::ObjectRef;
use i432_sim::{run_threaded, System};
use imax_bench::port_pipeline_system;
use std::sync::mpsc;
use std::time::Duration;

const MESSAGES: u64 = 5_000;

/// The one port `port_pipeline_system` anchors in the root directory.
fn pipeline_port(sys: &mut System) -> ObjectRef {
    let dir = sys.root_dir();
    for slot in 0.. {
        match sys.space.load_ad_hw(dir, slot) {
            Ok(Some(ad)) if sys.space.port(ad.obj).is_ok() => return ad.obj,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    panic!("no port anchored in the root directory")
}

/// Runs `episodes` pipeline episodes through a port of `capacity`; each
/// must complete cleanly and end with every message sent and received
/// exactly once and none left queued.
fn episodes(capacity: u32, episodes: u32) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..episodes {
            let mut sys = port_pipeline_system(1, capacity, MESSAGES, 4);
            let port = pipeline_port(&mut sys);
            let (sys, outcome) = run_threaded(sys, u64::MAX);
            // The runner has flushed the rings into the message area.
            let st = sys.space.port(port).expect("the port is live");
            let end = (st.msg_count, st.stats.sends, st.stats.receives);
            if tx.send((outcome, end)).is_err() {
                return;
            }
        }
    });
    for episode in 0..episodes {
        let (outcome, end) = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| {
                panic!("capacity {capacity}, episode {episode}: no outcome within 120 s ({e})")
            });
        assert!(
            outcome.completed && outcome.system_errors == 0,
            "capacity {capacity}, episode {episode}: {outcome:?}"
        );
        assert_eq!(
            end,
            (0, MESSAGES, MESSAGES),
            "capacity {capacity}, episode {episode}: queued, sends, receives"
        );
    }
}

#[test]
fn a_one_message_pipeline_moves_each_message_once() {
    episodes(1, 300);
}

#[test]
fn a_pipeline_that_refills_at_every_full_ring_moves_each_message_once() {
    episodes(2, 1_000);
}
