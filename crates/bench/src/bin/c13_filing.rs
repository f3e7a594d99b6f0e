//! C13: the object-filing server — N concurrent clients driving
//! OPEN/WRITE/READ/CLOSE against the multi-worker filing service over
//! the async virtio-shaped block device — written to
//! `BENCH_c13_filing.json`.
//!
//! Two kinds of numbers, split exactly as in C3/C7/C11:
//!
//! * **Deterministic keys** — requests served, bytes moved, device
//!   completions, device/protocol error counts, swap traffic and total
//!   simulated cycles of the discrete-event run. These are exact on
//!   every host and fail `bench_diff` on any drift. Before publishing,
//!   the harness asserts bit-for-bit that typed and untyped device
//!   completion consumption cost the same cycles (Figure 2 over the
//!   device path).
//! * **Host wall clock** — threaded-runner throughput per worker
//!   count; machine-dependent, compared warn-only. Every threaded run
//!   must still complete with zero errors and reproduce the
//!   deterministic per-client checksums exactly.
//!
//! Run with: `cargo run --release -p imax-bench --bin c13_filing`
//!
//! `--trace` additionally runs one threaded pass with the flight
//! recorder on and writes the counter report — `dev_submits`,
//! `dev_completions` and the `filing_request_cycles` latency histogram
//! — to `TRACE_c13_filing_report.txt` (needs a `--features trace`
//! build; warns and continues otherwise).

use imax_filing::{build_filing_system, client_checksums, FilingWorkload};
use std::fmt::Write as _;

const CLIENTS: u32 = 8;
const ITERS: u64 = 16;
const SHARDS: u32 = 4;
const SEED: u64 = 13;
const WORKER_COUNTS: &[u32] = &[1, 2, 4];
const DET_BUDGET: u64 = 500_000_000;

/// The one-line command that reruns this benchmark exactly.
const REPLAY: &str = "cargo run --release -p imax-bench --bin c13_filing";

fn workload(workers: u32, typed: bool) -> FilingWorkload {
    let mut w = FilingWorkload::small(CLIENTS, ITERS);
    w.workers = workers;
    w.shards = SHARDS;
    w.typed_completion = typed;
    w.seed = SEED;
    w
}

/// Deterministic run: returns `(sim_cycles, checksums, stats, swap)`.
fn run_det(
    w: &FilingWorkload,
) -> (
    u64,
    Vec<u64>,
    imax_filing::FilingStats,
    imax_storage::StorageStats,
) {
    let (mut sys, handles) = build_filing_system(w);
    let outcome = sys.run_to_completion(DET_BUDGET);
    assert!(
        matches!(
            outcome,
            i432_sim::RunOutcome::Stopped | i432_sim::RunOutcome::Quiescent
        ),
        "deterministic filing run must complete ({outcome:?}); replay: {REPLAY}"
    );
    let chk = client_checksums(&mut sys, &handles);
    (
        sys.now(),
        chk,
        handles.server.stats(),
        handles.server.swap_stats(),
    )
}

fn export_trace() {
    if !i432_trace::ENABLED {
        eprintln!(
            "c13_filing: --trace ignored — this binary was built without the flight \
             recorder; rebuild with: {REPLAY} --features trace -- --trace"
        );
        return;
    }
    i432_trace::reset();
    i432_trace::set_context(0, 0);
    let (sys, _handles) = build_filing_system(&workload(4, false));
    let (_, outcome) = i432_sim::run_threaded(sys, u64::MAX);
    assert!(outcome.completed, "traced run failed: {outcome:?}");
    let report = imax::inspect::trace_report();
    std::fs::write("TRACE_c13_filing_report.txt", &report)
        .expect("write TRACE_c13_filing_report.txt");
    println!("wrote TRACE_c13_filing_report.txt:\n{report}");
}

fn main() {
    let want_trace = std::env::args().skip(1).any(|a| a == "--trace");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ops_per_client = imax_filing::requests_per_client(ITERS);
    let expected_requests = u64::from(CLIENTS) * ops_per_client;

    println!("iMAX-432 object-filing server (C13)");
    println!(
        "   {CLIENTS} clients x {ops_per_client} requests (OPEN + {ITERS}x(WRITE,READ) + CLOSE), \
         {SHARDS} shards, host cores = {host_cores}"
    );

    // Deterministic arm, plus the Figure 2 cycle-neutrality gate.
    let reference = workload(4, false);
    let (det_cycles, det_chk, stats, swap) = run_det(&reference);
    let (typed_cycles, typed_chk, _, _) = run_det(&workload(4, true));
    assert_eq!(
        det_cycles, typed_cycles,
        "typed device-completion consumption moved simulated cycles (Figure 2); replay: {REPLAY}"
    );
    assert_eq!(det_chk, typed_chk);
    assert_eq!(stats.requests_served, expected_requests);
    assert_eq!(stats.protocol_errors, 0, "replay: {REPLAY}");
    assert_eq!(stats.device_errors, 0, "replay: {REPLAY}");

    println!(
        "   deterministic: {det_cycles} cycles total, {:.1} cycles/request, \
         {} bytes moved, {} device completions, {} swap-outs",
        det_cycles as f64 / expected_requests as f64,
        stats.bytes_moved,
        stats.device.completed,
        swap.swap_outs
    );
    println!("   typed/untyped completion arms: bit-identical");

    // Threaded arm: wall clock per worker count.
    println!(
        "   {:<8} {:>12} {:>16}",
        "workers", "wall(us)", "requests/s"
    );
    let mut points = Vec::new();
    for &workers in WORKER_COUNTS {
        let (sys, handles) = build_filing_system(&workload(workers, false));
        let t0 = std::time::Instant::now();
        let (mut back, outcome) = i432_sim::run_threaded(sys, u64::MAX);
        let wall = t0.elapsed();
        assert!(
            outcome.completed,
            "threaded filing run ({workers} workers) must complete ({outcome:?}); replay: {REPLAY}"
        );
        let chk = client_checksums(&mut back, &handles);
        assert_eq!(
            chk, det_chk,
            "threaded run ({workers} workers) diverged from the deterministic \
             checksums; replay: {REPLAY}"
        );
        let tstats = handles.server.stats();
        assert_eq!(tstats.requests_served, expected_requests);
        assert_eq!(tstats.protocol_errors, 0, "replay: {REPLAY}");
        assert_eq!(tstats.device_errors, 0, "replay: {REPLAY}");
        let wall_us = wall.as_micros() as u64;
        let rps = expected_requests as f64 / wall.as_secs_f64();
        println!("   {workers:<8} {wall_us:>12} {rps:>16.0}");
        points.push((workers, wall_us, rps));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"c13_filing\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"replay\": \"{REPLAY}\",");
    let _ = writeln!(json, "  \"clients\": {CLIENTS},");
    let _ = writeln!(json, "  \"files\": {CLIENTS},");
    let _ = writeln!(json, "  \"iters\": {ITERS},");
    let _ = writeln!(json, "  \"ops_per_client\": {ops_per_client},");
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(json, "  \"requests_served\": {},", stats.requests_served);
    let _ = writeln!(json, "  \"bytes_moved\": {},", stats.bytes_moved);
    let _ = writeln!(json, "  \"device_errors\": {},", stats.device_errors);
    let _ = writeln!(json, "  \"protocol_errors\": {},", stats.protocol_errors);
    let _ = writeln!(
        json,
        "  \"device_completions\": {},",
        stats.device.completed
    );
    let _ = writeln!(json, "  \"swap_outs\": {},", swap.swap_outs);
    let _ = writeln!(json, "  \"swap_ins\": {},", swap.swap_ins);
    let _ = writeln!(json, "  \"det_cycles_total\": {det_cycles},");
    let _ = writeln!(
        json,
        "  \"det_cycles_per_request\": {:.3},",
        det_cycles as f64 / expected_requests as f64
    );
    let _ = writeln!(json, "  \"points\": [");
    for (i, (workers, wall_us, rps)) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workers\": {workers}, \"wall_us\": {wall_us}, \
             \"requests_per_sec_wall\": {rps:.0}}}{}",
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write("BENCH_c13_filing.json", &json).expect("write BENCH_c13_filing.json");
    println!("\nwrote BENCH_c13_filing.json");
    println!("replay: {REPLAY}");

    if want_trace {
        export_trace();
    }

    println!(
        "pass: {} requests served, zero errors, typed-port arm cycle-identical",
        stats.requests_served
    );
}
