//! End-to-end tests of the object-filing service: protocol
//! correctness against the host-side reference model, Figure 2's
//! zero-overhead claim over the device completion path, ring-on/off
//! cycle neutrality, threaded/deterministic agreement, and composition
//! with the garbage-collector daemon.

use i432_sim::RunOutcome;
use imax_filing::{build_filing_system, client_checksums, FilingWorkload};

const BUDGET: u64 = 200_000_000;

fn run_det(w: &FilingWorkload) -> (u64, Vec<u64>, imax_filing::FilingStats) {
    let (mut sys, handles) = build_filing_system(w);
    let outcome = sys.run_to_completion(BUDGET);
    assert!(
        matches!(outcome, RunOutcome::Stopped | RunOutcome::Quiescent),
        "filing workload must complete: {outcome:?}"
    );
    let chk = client_checksums(&mut sys, &handles);
    (sys.now(), chk, handles.server.stats())
}

#[test]
fn deterministic_roundtrip_matches_reference_model() {
    let w = FilingWorkload::small(3, 4);
    let (_, chk, stats) = run_det(&w);
    let (_, handles) = build_filing_system(&w);
    let expect = handles.expected_checksums(w.seed, w.iters);
    assert_eq!(chk, expect, "every client sees the protocol's answers");
    assert_eq!(stats.requests_served, w.expected_requests());
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.device_errors, 0);
    // 2 round trips per iteration × 8 bytes each.
    assert_eq!(stats.bytes_moved, u64::from(w.clients) * w.iters * 16);
    // OPEN reads 8 blocks per file, each WRITE touches exactly one
    // block, CLOSE flushes once.
    assert_eq!(
        stats.device.completed,
        u64::from(w.clients) * (8 + w.iters + 1)
    );
}

/// Satellite: the paper's Figure 2 claim, asserted over the device
/// completion path. Consuming virtio completions through `TypedPort`
/// instead of the untyped package may not move one simulated cycle.
#[test]
fn typed_completion_path_is_cycle_identical_to_untyped() {
    let mut w = FilingWorkload::small(4, 3);
    w.typed_completion = false;
    let (untyped_now, untyped_chk, untyped_stats) = run_det(&w);
    w.typed_completion = true;
    let (typed_now, typed_chk, typed_stats) = run_det(&w);
    assert_eq!(
        untyped_now, typed_now,
        "typed ports are zero-overhead (Figure 2)"
    );
    assert_eq!(untyped_chk, typed_chk);
    assert_eq!(untyped_stats, typed_stats);
}

/// The descriptor ring is cycle-neutral: routing submissions through
/// the lock-free ring or the locked backlog gives bit-identical runs.
#[test]
fn device_queue_on_and_off_are_cycle_identical() {
    let mut w = FilingWorkload::small(3, 3);
    w.use_queue = true;
    let (q_now, q_chk, q_stats) = run_det(&w);
    w.use_queue = false;
    let (b_now, b_chk, b_stats) = run_det(&w);
    assert_eq!(q_now, b_now, "ring vs backlog must not move cycles");
    assert_eq!(q_chk, b_chk);
    assert_eq!(q_stats.requests_served, b_stats.requests_served);
    assert_eq!(q_stats.device.completed, b_stats.device.completed);
}

#[test]
fn threaded_run_matches_deterministic_checksums() {
    let mut w = FilingWorkload::small(4, 4);
    w.workers = 2;
    w.shards = 4;
    let (_, det_chk, det_stats) = run_det(&w);

    let (sys, handles) = build_filing_system(&w);
    let (mut back, outcome) = i432_sim::run_threaded(sys, u64::MAX);
    assert!(
        outcome.completed,
        "threaded filing run finishes: {outcome:?}"
    );
    let thr_chk = client_checksums(&mut back, &handles);
    assert_eq!(det_chk, thr_chk, "schedule cannot change client answers");
    assert_eq!(det_stats.protocol_errors, 0);
}

/// The whole composition under the collector daemon: round-trip
/// garbage is reclaimed while files (anchored via the server registry)
/// survive, and the answers do not change.
#[test]
fn filing_survives_the_gc_daemon() {
    use imax_gc::Collector;
    use parking_lot::Mutex;
    use std::sync::Arc;

    let w = FilingWorkload::small(3, 6);
    let (_, plain_chk, _) = run_det(&w);

    let (mut sys, handles) = build_filing_system(&w);
    let collector = Arc::new(Mutex::new(Collector::new()));
    imax_gc::install_gc_daemon(&mut sys, Arc::clone(&collector), 8, 200);
    let outcome = sys.run_to_completion(BUDGET);
    assert!(
        matches!(outcome, RunOutcome::Stopped | RunOutcome::Quiescent),
        "filing under GC must complete: {outcome:?}"
    );
    let chk = client_checksums(&mut sys, &handles);
    assert_eq!(chk, plain_chk, "collection must be invisible to clients");
    let stats = collector.lock().stats;
    assert!(
        stats.reclaimed > 0,
        "request objects become garbage and are reclaimed: {stats:?}"
    );
}

/// Under a memory budget the storage manager swaps file caches out and
/// back in, and every request is still served. The budget evicts only
/// segments the manager created, never a client's request object that a
/// worker is about to read.
#[test]
fn memory_budget_serves_every_request() {
    let base = FilingWorkload {
        workers: 4,
        shards: 4,
        ..FilingWorkload::small(8, 64)
    };
    let (mut sys, handles) = build_filing_system(&base);
    sys.run_to_completion(BUDGET);
    let unbudgeted_swap_outs = handles.server.swap_stats().swap_outs;
    for kib in [64, 256] {
        let w = FilingWorkload {
            memory_budget: Some(kib * 1024),
            ..base.clone()
        };
        let (mut sys, handles) = build_filing_system(&w);
        let outcome = sys.run_to_completion(BUDGET);
        assert!(
            matches!(outcome, RunOutcome::Stopped),
            "{kib} KiB: {outcome:?}"
        );
        let stats = handles.server.stats();
        assert_eq!(stats.requests_served, w.expected_requests(), "{kib} KiB");
        assert_eq!(stats.requests_served, 1_040);
        assert_eq!(
            client_checksums(&mut sys, &handles),
            handles.expected_checksums(w.seed, w.iters),
            "{kib} KiB"
        );
        for &p in handles.clients.iter().chain(&handles.workers) {
            let ps = sys.space.process(p).expect("process object");
            assert_eq!(ps.fault_code, 0, "{kib} KiB: {p:?} ended {:?}", ps.status);
        }
        assert!(
            handles.server.swap_stats().swap_outs > unbudgeted_swap_outs,
            "{kib} KiB: the budget made the manager swap"
        );
    }
}
