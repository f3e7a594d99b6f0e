//! C5 threaded variant: the GC daemon's marking throughput on a shared
//! space and its concurrent-collection tax on mutators, written to
//! `BENCH_c5_gc.json`.
//!
//! Like `c3_threaded` this harness measures *host* time, so the wall
//! clocks are machine-dependent; the logical results are not:
//!
//! * every point reclaims exactly the lost population (`reclaimed ==
//!   garbage`) at every shard count — gated deterministically by
//!   `bench_diff`;
//! * zero collector and system errors everywhere.
//!
//! Each shard point runs [`RUNS`] times and the JSON reports the median
//! run's wall clock and throughput. The mutator tax runs [`RUNS`] times
//! too, and the JSON reports the run with the median slowdown.
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
/// Runs per shard point and of the mutator tax; the median run is
/// reported.
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
    println!("iMAX-432 GC daemon engine on a shared space (host wall clock; machine-dependent)");
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
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"c5_gc\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
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
    println!("pass: zero errors; exact reclamation at every width");
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
