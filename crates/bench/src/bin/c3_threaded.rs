//! C3 threaded variant: wall-clock scaling of the lock-striped runner
//! against the global-lock baseline, written to `BENCH_c3_threaded.json`.
//!
//! Unlike `repro` (simulated cycles, deterministic), this harness
//! measures *host* time and is therefore machine-dependent; the JSON is
//! a baseline for regression comparisons on one machine, not a paper
//! claim. The pass criteria:
//!
//! * zero system errors in every run (all hosts);
//! * striping at least matching the global lock at 1 thread (all hosts —
//!   with the qualification and binding-register caches, a lone striped
//!   thread takes no locks on its hot path, so losing to one big mutex
//!   means the fast path regressed);
//! * striping beating the global lock by >1.5x at 4 threads — only
//!   checkable with real hardware parallelism, so on hosts with fewer
//!   than 4 cores the JSON records `"speedup_check": "skipped"` with an
//!   explicit machine-readable reason instead of silently passing;
//! * dispatch specialization (pre-decoded blocks + superinstruction
//!   fusion) leaving the modeled cycle total bit-
//!   identical at every thread count (all hosts), and beating the plain
//!   striped runner on wall clock at 4 threads — same >= 4-core
//!   qualification, recorded as `"fusion_check": "skipped"` otherwise.
//!
//! Run with: `cargo run --release -p imax-bench --bin c3_threaded`
//!
//! `--trace` additionally runs one 4-thread striped pass with the
//! flight recorder draining into `TRACE_c3_threaded.json` (needs a
//! `--features trace` build; warns and continues otherwise — the
//! benchmark numbers themselves never depend on the recorder).

use imax_bench::{c3_fusion, c3_threaded, token_mutex_system};
use std::fmt::Write as _;

const SHARDS: u32 = 16;
const JOBS: u32 = 16;
const ITERS: u64 = 2000;

/// The one-line command that reruns this benchmark exactly.
const REPLAY: &str = "cargo run --release -p imax-bench --bin c3_threaded";

/// Runs one traced 4-thread striped pass and writes the merged
/// timeline, or warns when the recorder is compiled out.
fn export_trace() {
    if !i432_trace::ENABLED {
        eprintln!(
            "c3_threaded: --trace ignored — this binary was built without the flight \
             recorder; rebuild with: {REPLAY} --features trace -- --trace"
        );
        return;
    }
    i432_trace::reset();
    i432_trace::set_context(0, 0);
    let (sys, shared_ad, expected) = token_mutex_system(4, SHARDS, JOBS, ITERS.min(200));
    // Unbounded like the measured runs above: the step count depends on
    // which token-starved GDPs race for each queued process, so no
    // finite total-step cap is schedule-independent; the workload itself
    // terminates.
    let (mut sys, outcome) = i432_sim::run_threaded(sys, u64::MAX);
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "traced run failed: {outcome:?}"
    );
    assert_eq!(sys.space.read_u64(shared_ad, 0).unwrap(), expected);
    let t = i432_trace::drain_timeline();
    std::fs::write("TRACE_c3_threaded.json", t.to_json()).expect("write TRACE_c3_threaded.json");
    println!(
        "wrote TRACE_c3_threaded.json ({} events, {} dropped)",
        t.events.len(),
        t.dropped
    );
}

fn main() {
    let want_trace = std::env::args().skip(1).any(|a| a == "--trace");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("iMAX-432 threaded-runner scaling (host wall clock; machine-dependent)");
    println!("   shards = {SHARDS}, jobs = {JOBS}, {ITERS} work iterations per job");
    println!("   host cores = {host_cores}");
    println!(
        "   {:<8} {:>14} {:>16} {:>9}",
        "threads", "striped(us)", "global-lock(us)", "speedup"
    );

    let points = c3_threaded(&[1, 2, 4, 8], SHARDS, JOBS, ITERS);
    for p in &points {
        println!(
            "   {:<8} {:>14} {:>16} {:>8.2}x",
            p.threads, p.striped_wall_us, p.global_lock_wall_us, p.speedup
        );
    }

    println!();
    println!(
        "dispatch specialization (pre-decoded blocks + fused superinstructions vs. plain striped)"
    );
    println!(
        "   {:<8} {:>12} {:>14} {:>9}",
        "threads", "fused(us)", "unfused(us)", "speedup"
    );
    let fusion_points = c3_fusion(&[1, 2, 4, 8], SHARDS, JOBS, ITERS);
    for p in &fusion_points {
        println!(
            "   {:<8} {:>12} {:>14} {:>8.2}x",
            p.threads, p.fused_wall_us, p.unfused_wall_us, p.speedup
        );
        // Bit-identity is a hard criterion on every host: fusion is a
        // dispatch specialization, so the modeled cycle total must not
        // move by a single cycle at any thread count.
        assert_eq!(
            p.fused_cycles, p.unfused_cycles,
            "fusion changed the modeled cycle total at {} thread(s); replay: {REPLAY}",
            p.threads
        );
    }

    let errors: u64 = points.iter().map(|p| p.system_errors).sum();
    let fusion_errors: u64 = fusion_points.iter().map(|p| p.system_errors).sum();
    let at1 = points
        .iter()
        .find(|p| p.threads == 1)
        .expect("1-thread point");
    let at4 = points
        .iter()
        .find(|p| p.threads == 4)
        .expect("4-thread point");

    // The 4-thread speedup criterion needs actual hardware parallelism:
    // on fewer than 4 cores the striped runner's extra threads only buy
    // timeslicing, so the check is recorded as skipped with the reason,
    // never as a silent pass.
    let (speedup_check, skip_reason) = if host_cores >= 4 {
        if at4.speedup > 1.5 {
            ("passed", None)
        } else {
            ("failed", None)
        }
    } else {
        (
            "skipped",
            Some(format!(
                "host has {host_cores} core(s); the 4-thread speedup criterion \
                 needs >= 4 physical cores"
            )),
        )
    };
    let single_thread_check = if at1.speedup >= 1.0 {
        "passed"
    } else {
        "failed"
    };

    // Fusion must win wall-clock at 4 threads — but like the striping
    // criterion it only means anything with real hardware parallelism,
    // so sub-4-core hosts record a machine-readable skip.
    let fat4 = fusion_points
        .iter()
        .find(|p| p.threads == 4)
        .expect("4-thread fusion point");
    let (fusion_check, fusion_skip_reason) = if host_cores >= 4 {
        if fat4.speedup > 1.0 {
            ("passed", None)
        } else {
            ("failed", None)
        }
    } else {
        (
            "skipped",
            Some(format!(
                "host has {host_cores} core(s); the 4-thread fusion wall-clock \
                 criterion needs >= 4 physical cores"
            )),
        )
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"c3_threaded\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"speedup_check\": \"{speedup_check}\",");
    match &skip_reason {
        Some(r) => {
            let _ = writeln!(json, "  \"skip_reason\": \"{r}\",");
        }
        None => {
            let _ = writeln!(json, "  \"skip_reason\": null,");
        }
    }
    let _ = writeln!(
        json,
        "  \"single_thread_check\": \"{single_thread_check}\","
    );
    let _ = writeln!(json, "  \"fusion_check\": \"{fusion_check}\",");
    match &fusion_skip_reason {
        Some(r) => {
            let _ = writeln!(json, "  \"fusion_skip_reason\": \"{r}\",");
        }
        None => {
            let _ = writeln!(json, "  \"fusion_skip_reason\": null,");
        }
    }
    let _ = writeln!(json, "  \"replay\": \"{REPLAY}\",");
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(json, "  \"jobs\": {JOBS},");
    let _ = writeln!(json, "  \"iters\": {ITERS},");
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"striped_wall_us\": {}, \"global_lock_wall_us\": {}, \
             \"speedup_vs_global_lock\": {:.3}, \"system_errors\": {}}}{}",
            p.threads,
            p.striped_wall_us,
            p.global_lock_wall_us,
            p.speedup,
            p.system_errors,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"fusion_points\": [");
    for (i, p) in fusion_points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"fused_wall_us\": {}, \"unfused_wall_us\": {}, \
             \"speedup_vs_unfused\": {:.3}, \"cycles_identical\": {}, \"system_errors\": {}}}{}",
            p.threads,
            p.fused_wall_us,
            p.unfused_wall_us,
            p.speedup,
            p.fused_cycles == p.unfused_cycles,
            p.system_errors,
            if i + 1 < fusion_points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write("BENCH_c3_threaded.json", &json).expect("write BENCH_c3_threaded.json");
    println!("\nwrote BENCH_c3_threaded.json");
    println!("replay: {REPLAY}");

    if want_trace {
        export_trace();
    }

    assert_eq!(
        errors, 0,
        "threaded runs must be error-free; replay: {REPLAY}"
    );
    assert_eq!(
        fusion_errors, 0,
        "fusion runs must be error-free; replay: {REPLAY}"
    );
    assert!(
        at1.speedup >= 1.0,
        "a single striped thread must at least match the global lock \
         (got {:.2}x) — the lock-free qualification fast path regressed; replay: {REPLAY}",
        at1.speedup
    );
    match speedup_check {
        "passed" => println!(
            "pass: zero system errors; {:.2}x >= 1.0x at 1 thread; {:.2}x > 1.5x at 4 threads",
            at1.speedup, at4.speedup
        ),
        "failed" => panic!(
            "lock striping must beat the global lock by >1.5x at 4 threads on a \
             {host_cores}-core host (got {:.2}x); replay: {REPLAY}",
            at4.speedup
        ),
        _ => println!(
            "pass: zero system errors; {:.2}x >= 1.0x at 1 thread \
             (4-thread speedup check SKIPPED: {}; got {:.2}x)",
            at1.speedup,
            skip_reason.as_deref().unwrap_or("unknown"),
            at4.speedup
        ),
    }
    match fusion_check {
        "passed" => println!(
            "pass: fusion cycles bit-identical at every point; {:.2}x > 1.0x at 4 threads",
            fat4.speedup
        ),
        "failed" => panic!(
            "fusion must beat the unfused striped runner at 4 threads on a \
             {host_cores}-core host (got {:.2}x); replay: {REPLAY}",
            fat4.speedup
        ),
        _ => println!(
            "pass: fusion cycles bit-identical at every point \
             (4-thread fusion wall-clock check SKIPPED: {}; got {:.2}x)",
            fusion_skip_reason.as_deref().unwrap_or("unknown"),
            fat4.speedup
        ),
    }
}
