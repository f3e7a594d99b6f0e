//! C7 threaded variant: multi-thread throughput of one contended FIFO
//! port on the threaded runner, whose per-port lock-free rings are
//! armed for every run, written to `BENCH_c7_port.json`.
//!
//! Like `c3_threaded` this harness measures *host* wall clock, so the
//! throughput numbers are machine-dependent and compared warn-only by
//! `bench_diff`. The deterministic keys — configuration, system-error
//! counts, and the simulated cycles per message of the identical
//! construction on the discrete-event runner — are exactly reproducible
//! everywhere and fail the comparison on any drift. The one pass
//! criterion is zero system errors in every run.
//!
//! Each pair count runs [`RUNS`] times, and the JSON reports the median
//! (`runs_per_point`).
//!
//! Run with: `cargo run --release -p imax-bench --bin c7_port`
//!
//! `--trace` additionally runs one 4-pair queued pass with the flight
//! recorder on and writes the counter/histogram report — fast-path
//! hits, fallbacks, drains, and the ring-occupancy histogram observed
//! at every drain — to `TRACE_c7_port_report.txt` (needs a `--features
//! trace` build; warns and continues otherwise).

use imax_bench::{c7_port_threaded, port_pipeline_system};
use std::fmt::Write as _;

const PAIRS: &[u32] = &[1, 2, 4];
const CAPACITY: u32 = 64;
const MESSAGES: u64 = 2000;
const SHARDS: u32 = 16;
/// Runs per pair count; the median is reported.
const RUNS: usize = 5;

/// The one-line command that reruns this benchmark exactly.
const REPLAY: &str = "cargo run --release -p imax-bench --bin c7_port";

/// Runs one traced queued pass and writes the flight-recorder counter
/// report (including the `port_queue_depth` occupancy histogram), or
/// warns when the recorder is compiled out.
fn export_trace() {
    if !i432_trace::ENABLED {
        eprintln!(
            "c7_port: --trace ignored — this binary was built without the flight \
             recorder; rebuild with: {REPLAY} --features trace -- --trace"
        );
        return;
    }
    i432_trace::reset();
    i432_trace::set_context(0, 0);
    let sys = port_pipeline_system(4, CAPACITY, MESSAGES, SHARDS);
    let (_, outcome) = i432_sim::run_threaded(sys, u64::MAX);
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "traced run failed: {outcome:?}"
    );
    let report = imax::inspect::trace_report();
    std::fs::write("TRACE_c7_port_report.txt", &report).expect("write TRACE_c7_port_report.txt");
    println!("wrote TRACE_c7_port_report.txt:\n{report}");
}

fn main() {
    let want_trace = std::env::args().skip(1).any(|a| a == "--trace");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("iMAX-432 queued-port throughput (host wall clock; machine-dependent)");
    println!(
        "   one FIFO port, capacity {CAPACITY}, {MESSAGES} messages/producer, \
         {SHARDS} shards, host cores = {host_cores}, median of {RUNS} runs"
    );
    println!("   {:<6} {:>14} {:>14}", "pairs", "wall(us)", "msg/s");

    let (points, det_cycles_per_message) =
        c7_port_threaded(PAIRS, CAPACITY, MESSAGES, SHARDS, RUNS);
    for p in &points {
        println!(
            "   {:<6} {:>14} {:>14.0}",
            p.pairs, p.queued_wall_us, p.queued_msgs_per_sec
        );
    }
    println!("   deterministic cost: {det_cycles_per_message:.1} simulated cycles/message");

    let errors: u64 = points.iter().map(|p| p.system_errors).sum();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"c7_port\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"replay\": \"{REPLAY}\",");
    let _ = writeln!(json, "  \"runs_per_point\": {RUNS},");
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(json, "  \"capacity\": {CAPACITY},");
    let _ = writeln!(json, "  \"messages_per_producer\": {MESSAGES},");
    let _ = writeln!(
        json,
        "  \"det_cycles_per_message\": {det_cycles_per_message:.3},"
    );
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"pairs\": {}, \"queued_wall_us\": {}, \
             \"queued_msgs_per_sec_wall\": {:.0}, \"system_errors\": {}}}{}",
            p.pairs,
            p.queued_wall_us,
            p.queued_msgs_per_sec,
            p.system_errors,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write("BENCH_c7_port.json", &json).expect("write BENCH_c7_port.json");
    println!("\nwrote BENCH_c7_port.json");
    println!("replay: {REPLAY}");

    if want_trace {
        export_trace();
    }

    assert_eq!(
        errors, 0,
        "threaded port runs must be error-free; replay: {REPLAY}"
    );
    println!("pass: zero system errors");
}
