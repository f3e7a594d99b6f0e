//! C5 threaded variant: parallel per-shard marking throughput and the
//! concurrent-collection tax on mutators, written to `BENCH_c5_gc.json`.
//!
//! Like `c3_threaded` this harness measures *host* time, so the wall
//! clocks are machine-dependent; the logical results are not:
//!
//! * every point reclaims exactly the lost population (`reclaimed ==
//!   garbage`) no matter how many marker threads run — gated
//!   deterministically by `bench_diff`;
//! * zero collector and system errors everywhere (all hosts);
//! * marking throughput rising monotonically from 1 to 4 shards — only
//!   meaningful with real hardware parallelism, so on hosts with fewer
//!   than 4 cores the JSON records `"throughput_check": "skipped"` with
//!   a machine-readable reason instead of silently passing.
//!
//! Each shard point runs [`RUNS`] times; the gate and the JSON use the
//! median run's wall clock and throughput, so one noisy run cannot
//! decide the monotonic check. The mutator tax runs [`RUNS`] times too,
//! and the JSON reports the run with the median slowdown.
//!
//! Run with: `cargo run --release -p imax-bench --bin c5_gc`
//!
//! `--trace` additionally replays the 4-shard point with the flight
//! recorder on and writes the merged timeline to `TRACE_c5_gc.json`
//! (needs a `--features trace` build; warns and continues otherwise).
//! The deterministic JSON keys must come out identical in trace-on and
//! trace-off builds — CI diffs both against the same baseline.

use imax_bench::{c5_gc_mutator_overhead, c5_gc_threaded, GcMutatorOverhead, GcThreadedPoint};
use std::fmt::Write as _;

const SHARD_COUNTS: &[u32] = &[1, 2, 4];
/// Runs per shard point and of the mutator tax; the median run is gated
/// and reported.
const RUNS: usize = 5;
const LIVE: u32 = 16_384;
const GARBAGE: u32 = 16_384;
const CYCLES: u32 = 8;

/// The one-line command that reruns this benchmark exactly.
const REPLAY: &str = "cargo run --release -p imax-bench --bin c5_gc";

/// Replays the widest point with the recorder on and keeps the merged
/// timeline, or warns when the recorder is compiled out.
fn export_trace() {
    if !i432_trace::ENABLED {
        eprintln!(
            "c5_gc: --trace ignored — this binary was built without the flight \
             recorder; rebuild with: {REPLAY} --features trace -- --trace"
        );
        return;
    }
    i432_trace::reset();
    i432_trace::set_context(0, 0);
    let traced = c5_gc_threaded(&[4], LIVE.min(2_048), GARBAGE.min(2_048), 2);
    assert_eq!(traced[0].gc_errors, 0, "traced run failed: {:?}", traced[0]);
    let t = i432_trace::drain_timeline();
    std::fs::write("TRACE_c5_gc.json", t.to_json()).expect("write TRACE_c5_gc.json");
    println!(
        "wrote TRACE_c5_gc.json ({} events, {} dropped)",
        t.events.len(),
        t.dropped
    );
}

fn main() {
    let want_trace = std::env::args().skip(1).any(|a| a == "--trace");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("iMAX-432 parallel per-shard GC (host wall clock; machine-dependent)");
    println!("   live = {LIVE}, garbage = {GARBAGE}, {CYCLES} cycles per point");
    println!("   host cores = {host_cores}");
    println!(
        "   {:<8} {:>10} {:>12} {:>14} {:>10}",
        "shards", "reclaimed", "wall(us)", "marks/ms", "errors"
    );

    let runs: Vec<Vec<GcThreadedPoint>> = (0..RUNS)
        .map(|_| c5_gc_threaded(SHARD_COUNTS, LIVE, GARBAGE, CYCLES))
        .collect();
    let points = median_runs(&runs);
    for p in &points {
        println!(
            "   {:<8} {:>10} {:>12} {:>14} {:>10}",
            p.shards, p.reclaimed, p.mark_wall_us, p.marks_per_ms, p.gc_errors
        );
    }
    let taxes: Vec<GcMutatorOverhead> = (0..RUNS)
        .map(|_| c5_gc_mutator_overhead(2, 4, 8, 400))
        .collect();
    let overhead = median_tax(&taxes);
    println!(
        "   mutator tax: {}us bare -> {}us gc-on ({:.2}x), {} collections rode along",
        overhead.baseline_wall_us, overhead.gc_on_wall_us, overhead.slowdown, overhead.collections
    );

    let errors: u64 = runs.iter().flatten().map(|p| p.gc_errors).sum::<u64>()
        + taxes.iter().map(|t| t.system_errors).sum::<u64>();
    let at = |s: u32| points.iter().find(|p| p.shards == s).expect("shard point");
    let (throughput_check, skip_reason) = if host_cores >= 4 {
        if at(1).marks_per_ms <= at(2).marks_per_ms && at(2).marks_per_ms <= at(4).marks_per_ms {
            ("passed", None)
        } else {
            ("failed", None)
        }
    } else {
        (
            "skipped",
            Some(format!(
                "host has {host_cores} core(s); the 1->2->4-shard monotonic \
                 throughput criterion needs >= 4 physical cores"
            )),
        )
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"c5_gc\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"throughput_check\": \"{throughput_check}\",");
    match &skip_reason {
        Some(r) => {
            let _ = writeln!(json, "  \"skip_reason\": \"{r}\",");
        }
        None => {
            let _ = writeln!(json, "  \"skip_reason\": null,");
        }
    }
    let _ = writeln!(json, "  \"replay\": \"{REPLAY}\",");
    let _ = writeln!(json, "  \"runs_per_point\": {RUNS},");
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"shards\": {}, \"live\": {}, \"garbage\": {}, \"reclaimed\": {}, \
             \"gc_cycles\": {}, \"mark_wall_us\": {}, \"marks_per_ms\": {}, \"gc_errors\": {}}}{}",
            p.shards,
            p.live,
            p.garbage,
            p.reclaimed,
            p.gc_cycles,
            p.mark_wall_us,
            p.marks_per_ms,
            p.gc_errors,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"mutator_overhead\": {{");
    let _ = writeln!(
        json,
        "    \"baseline_wall_us\": {},",
        overhead.baseline_wall_us
    );
    let _ = writeln!(json, "    \"gc_on_wall_us\": {},", overhead.gc_on_wall_us);
    let _ = writeln!(json, "    \"slowdown\": {:.3},", overhead.slowdown);
    let _ = writeln!(json, "    \"collections\": {},", overhead.collections);
    let _ = writeln!(
        json,
        "    \"reclaimed_during_run\": {},",
        overhead.reclaimed_during_run
    );
    let _ = writeln!(json, "    \"system_errors\": {}", overhead.system_errors);
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write("BENCH_c5_gc.json", &json).expect("write BENCH_c5_gc.json");
    println!("\nwrote BENCH_c5_gc.json");
    println!("replay: {REPLAY}");

    if want_trace {
        export_trace();
    }

    assert_eq!(
        errors, 0,
        "collector and threaded runs must be error-free; replay: {REPLAY}"
    );
    for p in runs.iter().flatten() {
        assert_eq!(
            p.reclaimed, p.garbage,
            "every lost object (and nothing else) must be reclaimed at {} shard(s); \
             replay: {REPLAY}",
            p.shards
        );
    }
    match throughput_check {
        "passed" => println!(
            "pass: zero errors; exact reclamation at every width; marking throughput \
             monotonic 1->2->4 shards ({} -> {} -> {} marks/ms)",
            at(1).marks_per_ms,
            at(2).marks_per_ms,
            at(4).marks_per_ms
        ),
        "failed" => panic!(
            "marking throughput must rise monotonically 1->2->4 shards on a \
             {host_cores}-core host (got {} -> {} -> {} marks/ms); replay: {REPLAY}",
            at(1).marks_per_ms,
            at(2).marks_per_ms,
            at(4).marks_per_ms
        ),
        _ => println!(
            "pass: zero errors; exact reclamation at every width \
             (throughput check SKIPPED: {}; got {} -> {} -> {} marks/ms)",
            skip_reason.as_deref().unwrap_or("unknown"),
            at(1).marks_per_ms,
            at(2).marks_per_ms,
            at(4).marks_per_ms
        ),
    }
}

/// Each shard point's median run by marking throughput (so also by wall
/// clock: every run of a point marks the same objects).
fn median_runs(runs: &[Vec<GcThreadedPoint>]) -> Vec<GcThreadedPoint> {
    (0..SHARD_COUNTS.len())
        .map(|i| {
            let mut point: Vec<&GcThreadedPoint> = runs.iter().map(|run| &run[i]).collect();
            point.sort_by_key(|p| p.marks_per_ms);
            *point[point.len() / 2]
        })
        .collect()
}

/// The mutator-tax run with the median slowdown.
fn median_tax(taxes: &[GcMutatorOverhead]) -> GcMutatorOverhead {
    let mut sorted: Vec<&GcMutatorOverhead> = taxes.iter().collect();
    sorted.sort_by(|a, b| a.slowdown.total_cmp(&b.slowdown));
    *sorted[sorted.len() / 2]
}
