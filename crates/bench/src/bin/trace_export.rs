//! Flight-recorder export CLI: runs the canonical token-mutex workload
//! with the recorder on and writes the merged deterministic timeline.
//!
//! ```text
//! trace_export [--runner det|threaded] [--format json|chrome]
//!              [--cpus N] [--shards N] [--workers N] [--rounds N]
//!              [--out PATH]
//! ```
//!
//! `--format json` (default) writes the timeline plus the counters
//! registry; `--format chrome` writes chrome://tracing "trace event"
//! JSON (load in chrome://tracing or <https://ui.perfetto.dev> — each
//! simulated processor renders as a thread, timestamps are microseconds
//! at the 432's 8 MHz clock).
//!
//! Requires a `--features trace` build; without it the recorder is
//! compiled to no-ops and this tool exits with status 2 rather than
//! writing an empty file.

use imax_bench::token_mutex_system;
use std::process::ExitCode;

struct Args {
    threaded: bool,
    chrome: bool,
    cpus: u32,
    shards: u32,
    workers: u32,
    rounds: u64,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        threaded: true,
        chrome: false,
        cpus: 4,
        shards: 8,
        workers: 8,
        rounds: 64,
        out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need_value = |i: usize| -> Result<&str, String> {
            argv.get(i + 1)
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--runner" => {
                args.threaded = match need_value(i)? {
                    "det" => false,
                    "threaded" => true,
                    other => return Err(format!("--runner: expected det|threaded, got {other:?}")),
                };
                i += 2;
            }
            "--format" => {
                args.chrome = match need_value(i)? {
                    "json" => false,
                    "chrome" => true,
                    other => return Err(format!("--format: expected json|chrome, got {other:?}")),
                };
                i += 2;
            }
            "--cpus" => {
                args.cpus = need_value(i)?.parse().map_err(|e| format!("--cpus: {e}"))?;
                i += 2;
            }
            "--shards" => {
                args.shards = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                i += 2;
            }
            "--workers" => {
                args.workers = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                i += 2;
            }
            "--rounds" => {
                args.rounds = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
                i += 2;
            }
            "--out" => {
                args.out = Some(need_value(i)?.to_string());
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trace_export: {e}");
            return ExitCode::from(2);
        }
    };
    if !i432_trace::ENABLED {
        eprintln!(
            "trace_export: this binary was built without the flight recorder; \
             rebuild with: cargo run --release -p imax-bench --features trace --bin trace_export"
        );
        return ExitCode::from(2);
    }

    i432_trace::reset();
    i432_trace::set_context(0, 0);
    let (mut sys, shared_ad, expected) =
        token_mutex_system(args.cpus, args.shards, args.workers, args.rounds);
    let runner = if args.threaded {
        // Unbounded like the c3 bench: the step count includes idle
        // dispatch spins of token-starved GDPs, so no finite total-step
        // cap is schedule-independent; the workload itself terminates.
        let (s, outcome) = i432_sim::run_threaded(sys, u64::MAX);
        assert!(
            outcome.completed && outcome.system_errors == 0,
            "threaded run failed: {outcome:?}"
        );
        sys = s;
        "threaded"
    } else {
        let outcome = sys.run_to_quiescence(500_000_000);
        assert_eq!(outcome, i432_sim::RunOutcome::Quiescent, "{outcome:?}");
        "det"
    };
    let counter = sys.space.read_u64(shared_ad, 0).expect("counter readable");
    assert_eq!(counter, expected, "workload end state is exact");

    let t = i432_trace::drain_timeline();
    let (rendered, default_name) = if args.chrome {
        (t.to_chrome(), "TRACE_token_mutex.chrome.json")
    } else {
        (t.to_json(), "TRACE_token_mutex.json")
    };
    let out = args.out.unwrap_or_else(|| default_name.to_string());
    std::fs::write(&out, &rendered).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "wrote {out}: {} events ({} dropped), runner={runner}, \
         {} cpus x {} shards, {} workers x {} rounds, counter={counter}",
        t.events.len(),
        t.dropped,
        args.cpus,
        args.shards,
        args.workers,
        args.rounds
    );
    ExitCode::SUCCESS
}
