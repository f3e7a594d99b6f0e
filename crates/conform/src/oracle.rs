//! The differential oracle: one generated case, two execution engines,
//! one logical answer.
//!
//! The *reference arm* runs the case on the deterministic discrete-event
//! runner with a single processor and a single shard. The *subject arm*
//! runs the identical construction on [`i432_sim::run_threaded`] — real
//! host threads over the lock-striped space — across a shards × threads
//! matrix. Conformance means the workload-visible end state is
//! bit-identical everywhere:
//!
//! * a placement-independent digest of the graph reachable from the
//!   per-process output objects, the shared counter cell, and the mutex
//!   port ([`i432_arch::digest_from_roots`]);
//! * the shared counter's value (the generator predicts it exactly);
//! * each process's final status and fault code, in spawn order.
//!
//! The subject arm takes every fast path (the binding and qualification
//! caches, fused dispatch and the port rings) and the reference arm
//! none, so every fast path is diffed at every matrix point. Any
//! mismatch is reported with a one-line `cargo` command that replays the
//! exact seed locally.

use crate::gen::{
    GenCase, CTX_ACCESS, CTX_DATA, OUT_ACCESS, S_DEEP, S_OUT, S_SHARED, S_TIGHT, TIGHT_QUOTA,
};
use i432_arch::{
    digest_from_roots,
    sysobj::{SroState, PROC_SLOT_CONTEXT},
    AccessDescriptor, Level, ObjectRef, ObjectSpec, ObjectType, PortDiscipline, ProcessStatus,
    Rights, SysState, SystemType,
};
use i432_gdp::process::ProcessSpec;
use i432_sim::{AuxWorker, RunOutcome, System, SystemConfig};
use imax_ipc::create_port;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// The full conformance matrix from the acceptance criteria:
/// {1, 4, 16} shards × {1, 4, 8} host threads.
pub const FULL_MATRIX: &[(u32, u32)] = &[
    (1, 1),
    (1, 4),
    (1, 8),
    (4, 1),
    (4, 4),
    (4, 8),
    (16, 1),
    (16, 4),
    (16, 8),
];

/// A reduced matrix for tier-1 test time on small hosts.
pub const QUICK_MATRIX: &[(u32, u32)] = &[(1, 1), (4, 4)];

/// Step budget for the reference arm.
const DET_BUDGET: u64 = 50_000_000;
/// Step budget for the threaded arm. Idle threads wait at the
/// dispatching port without stepping, but threads that race for one
/// queued process each take a step, so the count varies with the
/// interleaving.
const THR_BUDGET: u64 = 50_000_000;
/// Wall-clock limit on one GC-arm or filing-arm run. A point normally
/// takes well under a second; one still running after this has hung.
pub(crate) const WATCHDOG_LIMIT: Duration = Duration::from_secs(60);
/// How often the watchdog reads the clock and the runner's `done` flag
/// when no other aux worker wakes it.
const WATCHDOG_POLL: Duration = Duration::from_millis(5);

/// The workload-visible end state of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseOutcome {
    /// Digest of the graph reachable from the oracle's roots.
    pub digest: u64,
    /// Final shared-counter value.
    pub counter: u64,
    /// `(status, fault_code)` per process, in spawn order.
    pub proc_states: Vec<(u8, u16)>,
}

/// Everything [`build`] wires up besides the [`System`] itself.
struct Harness {
    processes: Vec<ObjectRef>,
    roots: Vec<AccessDescriptor>,
    shared_ad: AccessDescriptor,
}

/// The one-line command that reproduces a failing seed locally, with
/// the GC daemon collecting when `gc` is set.
pub fn replay_command(seed: u64, gc: bool) -> String {
    format!(
        "cargo run --release -p i432-conform --bin conform_fuzz -- --seed {seed}{}",
        if gc { " --gc" } else { "" }
    )
}

/// A process status as the digit a [`CaseOutcome`] records.
pub(crate) fn status_code(s: ProcessStatus) -> u8 {
    match s {
        ProcessStatus::Ready => 0,
        ProcessStatus::Running => 1,
        ProcessStatus::BlockedSend => 2,
        ProcessStatus::BlockedReceive => 3,
        ProcessStatus::Stopped => 4,
        ProcessStatus::Faulted => 5,
        ProcessStatus::Terminated => 6,
    }
}

/// Builds a system running `case` on the given stripe/processor counts.
/// The construction is identical for both arms — only the engine and the
/// matrix point differ.
fn build(case: &GenCase, shards: u32, cpus: u32) -> (System, Harness) {
    let mut cfg = SystemConfig::small()
        .with_processors(cpus)
        .with_shards(shards);
    // Keep per-shard capacity constant as the stripe count grows.
    cfg.data_bytes *= shards;
    cfg.access_slots *= shards;
    cfg.table_limit *= shards;
    let mut sys = System::new(&cfg);
    let root = sys.space.root_sro();

    // The token mutex: capacity-1 FIFO port primed with one token.
    let mutex = create_port(&mut sys.space, root, 1, PortDiscipline::Fifo)
        .expect("mutex port fits a fresh arena");
    sys.anchor(mutex.ad());
    let token = sys
        .space
        .create_object(root, ObjectSpec::generic(8, 0))
        .expect("token fits");
    let token_ad = sys.space.mint(token, Rights::READ | Rights::WRITE);
    imax_ipc::untyped::send(&mut sys.space, mutex, token_ad).expect("token primes the mutex");

    // Shared counter cell.
    let shared = sys
        .space
        .create_object(root, ObjectSpec::generic(8, 0))
        .expect("counter fits");
    let shared_ad = sys.space.mint(shared, Rights::READ | Rights::WRITE);
    sys.anchor(shared_ad);

    // Faulted processes park here instead of terminating silently.
    let fault_port = create_port(
        &mut sys.space,
        root,
        case.processes.len() as u32 + 1,
        PortDiscipline::Fifo,
    )
    .expect("fault port fits");
    sys.anchor(fault_port.ad());

    // A short-lived-level object: storing it into any global container
    // must level-fault (the generator's "level" fault variant).
    let deep = sys
        .space
        .create_object(
            root,
            ObjectSpec {
                data_len: 8,
                access_len: 0,
                otype: ObjectType::GENERIC,
                level: Some(Level(5)),
                sys: SysState::Generic,
            },
        )
        .expect("deep object fits");
    // Deliberately NOT anchored: the root directory is a program-visible
    // generic container at GLOBAL level, so holding a Level(5) AD there
    // would itself violate the level rule `check_invariants` audits. The
    // object stays live through the context slots (system objects, which
    // the hardware-store path legitimately exempts), and no collector
    // runs inside the oracle.
    let deep_ad = sys.space.mint(deep, Rights::READ | Rights::WRITE);

    let subs: Vec<_> = case
        .processes
        .iter()
        .enumerate()
        .map(|(i, p)| sys.subprogram(&format!("fuzz{i}"), p.program.clone(), CTX_DATA, CTX_ACCESS))
        .collect();
    let dom = sys.install_domain("conform", subs, 0);

    let mut processes = Vec::new();
    let mut roots = Vec::new();
    for i in 0..case.processes.len() {
        let out = sys
            .space
            .create_object(root, ObjectSpec::generic(16, OUT_ACCESS))
            .expect("output object fits");
        let out_ad = sys.space.mint(out, Rights::READ | Rights::WRITE);
        sys.anchor(out_ad);
        // A per-process "tight" SRO: no storage of its own (zero-size
        // creates need none) and a table quota of TIGHT_QUOTA, so the
        // table-ceiling fault family trips at a fixed instruction
        // regardless of shard count or schedule.
        let tight = {
            let mut st = SroState::new(Level(0));
            st.parent = Some(root);
            st.table_quota = TIGHT_QUOTA;
            sys.space
                .create_object(
                    root,
                    ObjectSpec {
                        data_len: 0,
                        access_len: 0,
                        otype: ObjectType::System(SystemType::StorageResource),
                        level: None,
                        sys: SysState::Sro(st),
                    },
                )
                .expect("tight SRO fits")
        };
        let tight_ad = sys.space.mint(tight, Rights::ALLOCATE);
        let mut spec = ProcessSpec::new(sys.dispatch_ad());
        spec.fault_port = Some(fault_port.ad());
        let p = sys.spawn_with(dom, i as u32, Some(mutex.ad()), spec);
        // Poke the well-known context slots the generated programs use.
        let ctx = sys
            .space
            .load_ad_hw(p, PROC_SLOT_CONTEXT)
            .expect("fresh process")
            .expect("fresh process has a context")
            .obj;
        for (slot, ad) in [
            (S_OUT, out_ad),
            (S_SHARED, shared_ad),
            (S_DEEP, deep_ad),
            (S_TIGHT, tight_ad),
        ] {
            sys.space
                .store_ad_hw(ctx, u32::from(slot), Some(ad))
                .expect("context slot poke");
        }
        processes.push(p);
        roots.push(out_ad);
    }
    roots.push(shared_ad);
    roots.push(mutex.ad());
    let harness = Harness {
        processes,
        roots,
        shared_ad,
    };
    (sys, harness)
}

fn outcome_of(sys: &mut System, h: &Harness) -> CaseOutcome {
    let counter = sys
        .space
        .read_u64(h.shared_ad, 0)
        .expect("counter cell is live");
    let digest = digest_from_roots(&sys.space, &h.roots);
    let proc_states = h
        .processes
        .iter()
        .map(|p| {
            let s = sys.space.process(*p).expect("registered process is live");
            (status_code(s.status), s.fault_code)
        })
        .collect();
    CaseOutcome {
        digest,
        counter,
        proc_states,
    }
}

/// Runs the reference arm: deterministic runner, 1 shard, 1 processor.
/// Returns the system too so callers can audit the final space.
pub fn run_deterministic_sys(case: &GenCase) -> (System, CaseOutcome) {
    let (mut sys, h) = build(case, 1, 1);
    let outcome = sys.run_to_quiescence(DET_BUDGET);
    assert_eq!(
        outcome,
        RunOutcome::Quiescent,
        "seed {}: reference arm did not quiesce; replay: {}",
        case.seed,
        replay_command(case.seed, false)
    );
    let o = outcome_of(&mut sys, &h);
    (sys, o)
}

/// Runs the reference arm and returns its end state.
pub fn run_deterministic(case: &GenCase) -> CaseOutcome {
    run_deterministic_sys(case).1
}

/// Runs the subject arm at one matrix point. It must be
/// digest-identical to the reference. Returns the system too.
pub fn run_threaded_sys(case: &GenCase, shards: u32, cpus: u32) -> (System, CaseOutcome) {
    let (sys, h) = build(case, shards, cpus);
    let (mut sys, outcome) = i432_sim::run_threaded(sys, THR_BUDGET);
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "seed {}: threaded arm ({shards} shards x {cpus} threads) failed: {outcome:?}; replay: {}",
        case.seed,
        replay_command(case.seed, false)
    );
    let o = outcome_of(&mut sys, &h);
    (sys, o)
}

/// Adds a watchdog to `workers`: one more aux worker that ends the run
/// once `limit` has passed. It sets the runner's `done` flag, so a hung
/// run comes back incomplete and fails naming its seed instead of
/// hanging the sweep. Each of `workers` wakes the watchdog
/// when it returns, so a run that ends by itself does not wait out the
/// watchdog's next poll.
pub(crate) fn with_watchdog(workers: Vec<AuxWorker>, limit: Duration) -> Vec<AuxWorker> {
    let watchdog: Arc<OnceLock<Thread>> = Arc::default();
    let mut aux: Vec<AuxWorker> = workers
        .into_iter()
        .map(|work| {
            let watchdog = Arc::clone(&watchdog);
            let woken: AuxWorker = Box::new(move |shared, done| {
                work(shared, done);
                if let Some(watchdog) = watchdog.get() {
                    watchdog.unpark();
                }
            });
            woken
        })
        .collect();
    aux.push(Box::new(move |_, done| {
        watchdog.get_or_init(std::thread::current);
        let deadline = Instant::now() + limit;
        while !done.load(Ordering::Acquire) {
            let now = Instant::now();
            if now >= deadline {
                done.store(true, Ordering::Release);
                break;
            }
            std::thread::park_timeout(WATCHDOG_POLL.min(deadline - now));
        }
    }));
    aux
}

/// Runs the subject arm at one matrix point with an on-the-fly GC
/// daemon time-slicing against the workload (increments per daemon
/// call as given). Returns the collector so callers can audit its
/// statistics and the trace timeline against them.
///
/// The daemon is a system service: completion tracking ignores it, so
/// the run ends when the workload processes do, or when the watchdog
/// ends it.
pub fn run_threaded_sys_gc(
    case: &GenCase,
    shards: u32,
    cpus: u32,
    increments_per_call: u32,
) -> (
    System,
    CaseOutcome,
    Arc<parking_lot::Mutex<imax_gc::Collector>>,
) {
    run_gc(case, shards, cpus, increments_per_call, WATCHDOG_LIMIT)
}

/// [`run_threaded_sys_gc`] with the watchdog's limit given.
fn run_gc(
    case: &GenCase,
    shards: u32,
    cpus: u32,
    increments_per_call: u32,
    limit: Duration,
) -> (
    System,
    CaseOutcome,
    Arc<parking_lot::Mutex<imax_gc::Collector>>,
) {
    let (mut sys, h) = build(case, shards, cpus);
    let collector = Arc::new(parking_lot::Mutex::new(imax_gc::Collector::new()));
    let daemon =
        imax_gc::install_gc_daemon(&mut sys, Arc::clone(&collector), increments_per_call, 128);
    // Equal footing with the workload: the daemon time-slices rather
    // than monopolising a processor.
    if let Ok(ps) = sys.space.process_mut(daemon) {
        ps.timeslice = 5_000;
        ps.slice_remaining = 5_000;
    }
    // Short workload slices force preemption even on one processor;
    // otherwise small cases run sequentially to completion and the
    // daemon (queued behind them at equal priority) never executes a
    // single increment before the run ends.
    shorten_slices(&mut sys);
    // Unbounded, unlike the plain arm: here the daemon steps
    // continuously, so no finite total-step budget is
    // schedule-independent. The run still ends — the workload halts and
    // completion tracking ignores the daemon.
    let (mut sys, outcome) =
        i432_sim::run_threaded_with(sys, u64::MAX, with_watchdog(Vec::new(), limit));
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "seed {}: threaded+GC arm ({shards} shards x {cpus} threads) failed: {outcome:?}; replay: {}",
        case.seed,
        replay_command(case.seed, true)
    );
    let o = outcome_of(&mut sys, &h);
    (sys, o, collector)
}

/// Sets every workload process's time slice to 500 cycles, so collector
/// work interleaves with allocation and barrier traffic instead of
/// running against an already-quiescent space.
fn shorten_slices(sys: &mut System) {
    for p in sys.processes().to_vec() {
        if let Ok(ps) = sys.space.process_mut(p) {
            ps.timeslice = 500;
            ps.slice_remaining = 500;
        }
    }
}

/// How `got` differs from the reference end state `want`.
fn divergence(got: &CaseOutcome, want: &CaseOutcome) -> String {
    format!(
        "digest {:#018x} vs {:#018x}, counter {} vs {}, states {:?} vs {:?}",
        got.digest, want.digest, got.counter, want.counter, got.proc_states, want.proc_states
    )
}

/// Differential check of the collector arm: the reference
/// deterministic run (no GC at all) and every matrix point running with
/// the GC daemon collecting concurrently (16 increments per call) must
/// agree bit-for-bit on the workload-visible end state.
pub fn check_seed_gc(seed: u64, matrix: &[(u32, u32)]) -> SeedReport {
    let case = crate::gen::generate(seed);
    let reference = run_deterministic(&case);
    let mut mismatches = Vec::new();
    for &(shards, cpus) in matrix {
        let (_sys, got, collector) = run_threaded_sys_gc(&case, shards, cpus, 16);
        if got != reference {
            let stats = collector.lock().stats;
            mismatches.push(format!(
                "seed {seed}: {shards} shards x {cpus} threads (GC daemon: {} cycles, {} \
                 reclaimed) diverged ({}); replay: {}",
                stats.cycles,
                stats.reclaimed,
                divergence(&got, &reference),
                replay_command(seed, true)
            ));
        }
    }
    SeedReport {
        seed,
        reference,
        mismatches,
    }
}

/// The oracle's verdict for one seed across a matrix.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// The seed checked.
    pub seed: u64,
    /// The reference arm's end state.
    pub reference: CaseOutcome,
    /// One line per divergence (empty = conformant).
    pub mismatches: Vec<String>,
}

impl SeedReport {
    /// True when every matrix point matched the reference arm.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Checks one seed: generates the case, runs the reference arm, then
/// the threaded arm at every `matrix` point, comparing end states. Each
/// point must be digest-identical to the reference: fast paths are
/// semantically invisible.
pub fn check_seed(seed: u64, matrix: &[(u32, u32)]) -> SeedReport {
    let case = crate::gen::generate(seed);
    let mut mismatches = Vec::new();

    let reference = run_deterministic(&case);
    let expected = case.expected_counter();
    if reference.counter != expected {
        mismatches.push(format!(
            "seed {seed}: reference counter {} != predicted {expected}; replay: {}",
            reference.counter,
            replay_command(seed, false)
        ));
    }

    for &(shards, cpus) in matrix {
        let got = run_threaded_sys(&case, shards, cpus).1;
        if got != reference {
            mismatches.push(format!(
                "seed {seed}: {shards} shards x {cpus} threads diverged ({}); replay: {}",
                divergence(&got, &reference),
                replay_command(seed, false)
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
    use crate::gen::GenProcess;
    use i432_gdp::Instruction;

    /// A failure from the collector arm replays under `--gc`.
    #[test]
    fn replay_lines_name_the_failing_arm() {
        // One process that never halts: only the watchdog ends its run,
        // and a zero limit ends it at once.
        let spin = GenProcess {
            program: vec![Instruction::Jump(0)],
            faulty: false,
            fault_name: None,
            delta: 0,
        };
        let case = GenCase {
            seed: 7,
            processes: vec![spin],
            rounds: 0,
        };
        let run = std::panic::catch_unwind(|| run_gc(&case, 1, 1, 16, Duration::ZERO));
        let Err(panic) = run else {
            panic!("a run that never halts cannot complete");
        };
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("--seed 7 --gc"), "{msg}");
    }
}
