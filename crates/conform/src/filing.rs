//! The filing differential workload: the whole object-filing stack —
//! typed/untyped ports, the swapping storage manager, the async virtio
//! block device, worker natives — driven deterministically and on the
//! threaded runner, and the end states diffed bit-for-bit.
//!
//! This is a different animal from [`crate::gen`]'s synthetic ISA
//! cases: the programs are fixed (the filing client protocol), but the
//! machinery under them is the deepest composition in the workspace.
//! What the oracle checks is the filing system's core determinism
//! claim: each client blocks on its private reply port after every
//! request, so *no* schedule — worker count, shard count, host-thread
//! interleaving — may change what any client observes.
//!
//! The comparable end state is: a digest over the per-client
//! out-objects, the served-request count (exactly the issued total),
//! bytes moved, device and protocol error counts, the device completion
//! count, and each client's final status/fault pair. Simulated cycles
//! are deliberately *not* compared across runners — swap traffic
//! depends on request arrival order — but the deterministic arm is
//! still exact and the `c13_filing` bench pins it.

use crate::oracle::{status_code, with_watchdog, SeedReport, WATCHDOG_LIMIT};
use i432_arch::digest_from_roots;
use i432_sim::RunOutcome;
use imax_filing::{build_filing_system, client_checksums, FilingWorkload};
use std::time::Duration;

use crate::oracle::CaseOutcome;

/// Deterministic-arm step budget.
const DET_BUDGET: u64 = 200_000_000;

/// The one-line command that reproduces a failing filing seed locally.
pub fn filing_replay_command(seed: u64) -> String {
    format!(
        "cargo run --release -p i432-conform --bin conform_fuzz -- --workload filing --seed {seed}"
    )
}

/// Derives the workload shape from a seed: 2–4 clients, 2–5 WRITE/READ
/// round trips each, payloads scrambled by the seed itself.
pub fn filing_workload(seed: u64, shards: u32, workers: u32) -> FilingWorkload {
    let mut w = FilingWorkload::small(2 + (seed % 3) as u32, 2 + (seed / 3 % 4));
    w.workers = workers;
    w.shards = shards;
    // Half the seeds consume device completions through the typed port
    // package — Figure 2 says the arms are indistinguishable, so the
    // differential diff crosses it too.
    w.typed_completion = seed % 2 == 1;
    w.seed = seed;
    w
}

/// Folds a filing run's end state into a [`CaseOutcome`] so the filing
/// arm rides the same reporting plumbing as the generated cases. The
/// `counter` slot carries the served-request count; the digest mixes
/// the out-object graph digest with the deterministic counters.
fn outcome_of(sys: &mut i432_sim::System, handles: &imax_filing::FilingHandles) -> CaseOutcome {
    let chk = client_checksums(sys, handles);
    let stats = handles.server.stats();
    let mut digest = digest_from_roots(&sys.space, &handles.outs);
    // Fold the deterministic device/transfer counters into the digest:
    // a runner that served every request but moved different bytes or
    // completed a different number of device commands must diverge.
    for v in [
        stats.bytes_moved,
        stats.device_errors,
        stats.protocol_errors,
        stats.device.completed,
    ] {
        digest = digest.wrapping_mul(0x100000001B3) ^ v;
    }
    for c in &chk {
        digest = digest.wrapping_mul(0x100000001B3) ^ *c;
    }
    let proc_states = handles
        .clients
        .iter()
        .map(|p| {
            let s = sys.space.process(*p).expect("client process is live");
            (status_code(s.status), s.fault_code)
        })
        .collect();
    CaseOutcome {
        digest,
        counter: stats.requests_served,
        proc_states,
    }
}

/// Runs the reference arm: deterministic runner, one shard, one worker.
pub fn run_filing_deterministic(seed: u64) -> CaseOutcome {
    let w = filing_workload(seed, 1, 1);
    let (mut sys, handles) = build_filing_system(&w);
    let outcome = sys.run_to_completion(DET_BUDGET);
    assert!(
        matches!(outcome, RunOutcome::Stopped | RunOutcome::Quiescent),
        "seed {seed}: filing reference arm did not complete ({outcome:?}); replay: {}",
        filing_replay_command(seed)
    );
    // The reference is also checked against the host-side protocol
    // model — a deterministic run that diverges from the protocol is a
    // filing bug even if every threaded run agrees with it.
    let expect = handles.expected_checksums(w.seed, w.iters);
    let got = client_checksums(&mut sys, &handles);
    assert_eq!(
        got,
        expect,
        "seed {seed}: filing reference run broke the protocol model; replay: {}",
        filing_replay_command(seed)
    );
    outcome_of(&mut sys, &handles)
}

/// Runs the subject arm: threaded runner at one matrix point. A watchdog
/// ends a run still going after 60 s, which then fails with its replay
/// line.
pub fn run_filing_threaded(seed: u64, shards: u32, workers: u32) -> CaseOutcome {
    let w = filing_workload(seed, shards, workers);
    let (sys, handles) = build_filing_system(&w);
    run_filing_system(seed, sys, &handles, WATCHDOG_LIMIT)
}

/// Runs seed `seed`'s built filing system on the threaded runner under
/// a watchdog with the limit given.
fn run_filing_system(
    seed: u64,
    sys: i432_sim::System,
    handles: &imax_filing::FilingHandles,
    limit: Duration,
) -> CaseOutcome {
    let (mut back, outcome) = i432_sim::run_threaded_with(sys, u64::MAX, with_watchdog(limit));
    assert!(
        outcome.completed,
        "seed {seed}: threaded filing arm did not complete ({outcome:?}); replay: {}",
        filing_replay_command(seed)
    );
    outcome_of(&mut back, handles)
}

/// Checks one filing seed: the deterministic reference against the
/// threaded runner at every matrix point. The matrix's `cpus` column
/// sets the worker count (total host threads = clients + workers).
pub fn check_filing_seed(seed: u64, matrix: &[(u32, u32)]) -> SeedReport {
    let reference = run_filing_deterministic(seed);
    let mut mismatches = Vec::new();
    for &(shards, cpus) in matrix {
        let got = run_filing_threaded(seed, shards, cpus.max(1));
        if got != reference {
            mismatches.push(format!(
                "seed {seed}: filing {shards} shards x {cpus} workers diverged \
                 (digest {:#018x} vs {:#018x}, served {} vs {}, states {:?} vs {:?}); replay: {}",
                got.digest,
                reference.digest,
                got.counter,
                reference.counter,
                got.proc_states,
                reference.proc_states,
                filing_replay_command(seed)
            ));
        }
    }
    SeedReport {
        seed,
        reference,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::QUICK_MATRIX;
    use i432_gdp::Instruction;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn filing_quick_matrix_is_conformant() {
        for seed in 0..4 {
            let r = check_filing_seed(seed, QUICK_MATRIX);
            assert!(r.passed(), "{:?}", r.mismatches);
        }
    }

    /// A hung filing point fails with its replay line. A process that
    /// never halts keeps the point from completing, so only the
    /// watchdog ends its run, however the host schedules the threads.
    #[test]
    fn watchdog_ends_a_filing_point_with_its_replay_line() {
        let (mut sys, handles) = build_filing_system(&filing_workload(5, 1, 1));
        let spin = sys.subprogram("spin", vec![Instruction::Jump(0)], 16, 4);
        let dom = sys.install_domain("spin", vec![spin], 0);
        sys.spawn(dom, 0, None);
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_filing_system(5, sys, &handles, Duration::ZERO)
        }));
        let Err(panic) = run else {
            panic!("a run that never halts cannot complete");
        };
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains(&filing_replay_command(5)), "{msg}");
    }

    #[test]
    fn filing_workload_shape_tracks_the_seed() {
        let a = filing_workload(0, 1, 1);
        let b = filing_workload(1, 1, 1);
        assert_eq!(a.clients, 2);
        assert_eq!(b.clients, 3);
        assert!(!a.typed_completion);
        assert!(b.typed_completion);
    }
}
