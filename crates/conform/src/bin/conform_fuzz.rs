//! Differential conformance fuzzer CLI.
//!
//! ```text
//! conform_fuzz [--seed N | --start N --count N] [--matrix full|quick]
//!              [--workload gen|filing] [--explore N] [--out PATH]
//!              [--trace] [--gc]
//! ```
//!
//! Default: seeds 0..256 on the full {1,4,16} shards × {1,4,8} threads
//! matrix. `--seed N` replays exactly one seed. Each matrix point runs
//! the threaded runner, which takes every fast path (the binding and
//! qualification caches, fused dispatch and the port rings), and is
//! diffed against the deterministic runner, which takes none. Every
//! failure prints the command that replays its seed.
//! `--explore N` additionally runs N seeded schedule
//! explorations. `--gc` switches every matrix point to the collector
//! arm: the GC daemon, a process on the same processors, marks and
//! sweeps in all-shard sections *while* the workload runs on the other
//! GDP threads, and the end state must still match the (GC-free)
//! deterministic reference bit-for-bit. A watchdog ends any `--gc` run
//! still going after 60 s, and that run fails. A seed whose check panics is recorded as failing and the
//! sweep goes on. Failing seeds are written to `--out` (default
//! `CONFORM_FAILURES.json`) and the process exits nonzero.
//!
//! `--workload filing` switches from the generated ISA cases to the
//! object-filing differential workload: the full filing stack (typed
//! ports, swapping storage, the async virtio block device, worker
//! natives) runs deterministically and threaded at every matrix point,
//! each point diffed against the deterministic run; the matrix's thread
//! column sets the filing worker count. `--gc` applies only to the
//! generated workload.
//!
//! `--trace` (needs a `--features trace` build; warns otherwise)
//! replays every failing differential seed once on the threaded runner
//! with the flight recorder on and writes its merged timeline to
//! `TRACE_seed_<n>.json` — schedule-level evidence to read next to the
//! digest mismatch.

use i432_conform::{
    check_filing_seed, check_seed, check_seed_gc, explore, filing_replay_command, generate,
    replay_command, run_filing_threaded, run_threaded_sys, ExploreConfig, FULL_MATRIX,
    QUICK_MATRIX,
};
use std::fmt::Write as _;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Gen,
    Filing,
}

struct Args {
    workload: Workload,
    start: u64,
    count: u64,
    matrix: &'static [(u32, u32)],
    explore_seeds: u64,
    out: String,
    trace: bool,
    gc: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Gen,
        start: 0,
        count: 256,
        matrix: FULL_MATRIX,
        explore_seeds: 0,
        out: "CONFORM_FAILURES.json".into(),
        trace: false,
        gc: false,
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
            "--seed" => {
                args.start = need_value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                args.count = 1;
                i += 2;
            }
            "--start" => {
                args.start = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--start: {e}"))?;
                i += 2;
            }
            "--count" => {
                args.count = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--count: {e}"))?;
                i += 2;
            }
            "--workload" => {
                args.workload = match need_value(i)? {
                    "gen" => Workload::Gen,
                    "filing" => Workload::Filing,
                    other => return Err(format!("--workload: expected gen|filing, got {other:?}")),
                };
                i += 2;
            }
            "--matrix" => {
                args.matrix = match need_value(i)? {
                    "full" => FULL_MATRIX,
                    "quick" => QUICK_MATRIX,
                    other => return Err(format!("--matrix: unknown matrix {other:?}")),
                };
                i += 2;
            }
            "--explore" => {
                args.explore_seeds = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--explore: {e}"))?;
                i += 2;
            }
            "--out" => {
                args.out = need_value(i)?.to_string();
                i += 2;
            }
            "--trace" => {
                args.trace = true;
                i += 1;
            }
            "--gc" => {
                args.gc = true;
                i += 1;
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
            eprintln!("conform_fuzz: {e}");
            return ExitCode::from(2);
        }
    };

    if args.workload == Workload::Filing && args.gc {
        eprintln!("conform_fuzz: --gc applies only to --workload gen");
        return ExitCode::from(2);
    }
    println!(
        "i432 differential conformance fuzz ({} workload): seeds {}..{}, {} matrix points/seed{}",
        match args.workload {
            Workload::Gen => "generated",
            Workload::Filing => "filing",
        },
        args.start,
        args.start + args.count,
        args.matrix.len(),
        if args.gc {
            ", concurrent GC-daemon arm"
        } else {
            ""
        }
    );
    let mut failures = Vec::new();
    for seed in args.start..args.start + args.count {
        // A panicking arm (one that did not complete, a collector fault)
        // fails its seed; the sweep goes on to the next.
        let checked = std::panic::catch_unwind(|| match args.workload {
            Workload::Filing => check_filing_seed(seed, args.matrix),
            Workload::Gen if args.gc => check_seed_gc(seed, args.matrix),
            Workload::Gen => check_seed(seed, args.matrix),
        });
        let mismatches = match checked {
            Ok(report) if report.passed() => {
                if (seed - args.start + 1) % 32 == 0 {
                    println!(
                        "  {}/{} seeds conformant (latest digest {:#018x})",
                        seed - args.start + 1,
                        args.count,
                        report.reference.digest
                    );
                }
                continue;
            }
            Ok(report) => report.mismatches,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                let replay = match args.workload {
                    _ if msg.contains("replay: ") => String::new(),
                    Workload::Filing => format!("; replay: {}", filing_replay_command(seed)),
                    Workload::Gen => format!("; replay: {}", replay_command(seed, args.gc)),
                };
                vec![format!("seed {seed}: check panicked: {msg}{replay}")]
            }
        };
        for m in &mismatches {
            eprintln!("FAIL: {m}");
        }
        failures.push((seed, mismatches));
    }

    let mut explore_failures = Vec::new();
    for seed in args.start..args.start + args.explore_seeds {
        match explore(&ExploreConfig::smoke(seed)) {
            Ok(r) => println!(
                "  explore seed {seed}: {} ops, {} cross-shard pairs, {} atomic sections",
                r.ops, r.cross_shard_pairs, r.atomic_sections
            ),
            Err(e) => {
                eprintln!("FAIL: {e}");
                explore_failures.push(e);
            }
        }
    }

    if failures.is_empty() && explore_failures.is_empty() {
        println!(
            "pass: {} seeds conformant, {} explorations deadlock-free",
            args.count, args.explore_seeds
        );
        return ExitCode::SUCCESS;
    }

    // `--trace`: replay each failing differential seed once on the
    // threaded runner with the recorder on, and keep its timeline as a
    // debugging artifact next to the failure list.
    let mut trace_files: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    if args.trace {
        if i432_trace::ENABLED {
            for &(seed, _) in &failures {
                i432_trace::reset();
                i432_trace::set_context(0, 0);
                // A failing seed's replay may itself assert (hang,
                // system error); the partial timeline is exactly what
                // we want then, so keep going either way.
                let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match args
                    .workload
                {
                    Workload::Filing => {
                        run_filing_threaded(seed, 4, 4);
                    }
                    Workload::Gen => {
                        run_threaded_sys(&generate(seed), 4, 4);
                    }
                }));
                if replay.is_err() {
                    eprintln!("seed {seed}: traced replay panicked (timeline kept)");
                }
                let t = i432_trace::drain_timeline();
                let path = format!("TRACE_seed_{seed}.json");
                match std::fs::write(&path, t.to_json()) {
                    Ok(()) => {
                        eprintln!(
                            "wrote {path} ({} events, {} dropped)",
                            t.events.len(),
                            t.dropped
                        );
                        trace_files.insert(seed, path);
                    }
                    Err(e) => eprintln!("conform_fuzz: could not write {path}: {e}"),
                }
            }
        } else {
            eprintln!(
                "conform_fuzz: --trace ignored — this binary was built without the \
                 flight recorder; rebuild with --features trace"
            );
        }
    }

    // Persist the failing seeds as a replayable artifact.
    let mut json = String::from("{\n  \"failures\": [\n");
    let total = failures.len() + explore_failures.len();
    let mut emitted = 0;
    for (seed, mismatches) in &failures {
        emitted += 1;
        let trace = trace_files
            .get(seed)
            .map_or("null".to_string(), |p| format!("\"{p}\""));
        let _ = writeln!(
            json,
            "    {{\"seed\": {}, \"kind\": \"{}\", \"mismatches\": {}, \"trace\": {}}}{}",
            seed,
            match args.workload {
                Workload::Gen => "differential",
                Workload::Filing => "filing",
            },
            mismatches.len(),
            trace,
            if emitted < total { "," } else { "" }
        );
    }
    for e in &explore_failures {
        emitted += 1;
        let _ = writeln!(
            json,
            "    {{\"kind\": \"explore\", \"detail\": \"{}\"}}{}",
            e.replace('"', "'"),
            if emitted < total { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("conform_fuzz: could not write {}: {e}", args.out);
    } else {
        eprintln!("wrote failing seeds to {}", args.out);
    }
    eprintln!(
        "FAILED: {} differential seed(s), {} exploration(s)",
        failures.len(),
        explore_failures.len()
    );
    ExitCode::FAILURE
}
