//! Runs one workload and prints its metrics.
//!
//! ```text
//! imax-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints `workload metric value unit` lines, then one JSON object as the
//! last line. With `--trace 1` it also writes the spans and the role
//! attribution to `BENCH_trace.json`. Exits 1 when any operation or check
//! failed, after printing everything. `run.py` is the front end: it
//! builds this binary, measures its peak memory, and shapes the result.

use imax_benchmark::{run, Budget, Plan, Report, Role, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("imax-benchmark: {msg}");
    eprintln!("usage: imax-benchmark --workload NAME --seed N --seconds S --trace 0|1");
    ExitCode::from(2)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values cannot occur: every ratio
/// guards its denominator).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_json(r: &Report, seed: u64, trace: bool) -> String {
    let problems: Vec<String> = r.problems.iter().map(|p| json_str(p)).collect();
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"episodes\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \
         \"metrics\": {{{}}}}}",
        json_str(r.workload.name()),
        u8::from(trace),
        r.episodes,
        r.correct(),
        r.attempted,
        r.failed,
        problems.join(", "),
        metrics.join(", ")
    )
}

fn trace_json(r: &Report, seed: u64) -> String {
    let total_ns: u64 = r.seen.role_ns.iter().sum();
    let roles: Vec<String> = Role::ALL
        .iter()
        .map(|&role| {
            let ns = r.seen.role_ns[role as usize];
            format!(
                "    {}: {{\"ns\": {ns}, \"cycles\": {}, \"share\": {}}}",
                json_str(role.name()),
                r.seen.role_cycles[role as usize],
                json_num(if total_ns > 0 {
                    ns as f64 / total_ns as f64
                } else {
                    0.0
                })
            )
        })
        .collect();
    let spans: Vec<String> = r
        .spans
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"phase\": {}, \"episode\": {}, \"calls\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                json_str(s.name),
                json_str(s.phase.name()),
                s.episode,
                s.calls,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"episodes\": {},\n  \
         \"roles\": {{\n{}\n  }},\n  \"spans\": [\n{}\n  ]\n}}\n",
        json_str(r.workload.name()),
        r.episodes,
        roles.join(",\n"),
        spans.join(",\n")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };

    let report = run(&Plan {
        workload,
        seed,
        warmup: workload.warmup(),
        budget: Budget::Seconds(seconds),
        trace,
    });

    let name = workload.name();
    println!("{name} episodes {} count", report.episodes);
    for m in &report.metrics {
        println!("{name} {} {} {}", m.name, json_num(m.value), m.unit);
    }
    for p in &report.problems {
        eprintln!("{name}: {p}");
    }
    if trace {
        if let Err(e) = std::fs::write("BENCH_trace.json", trace_json(&report, seed)) {
            eprintln!("imax-benchmark: cannot write BENCH_trace.json: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", result_json(&report, seed, trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
