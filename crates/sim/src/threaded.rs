//! A threaded runner: real OS threads drive the processors.
//!
//! The deterministic discrete-event runner ([`crate::System`]) is the
//! measurement vehicle — every number in EXPERIMENTS.md comes from it.
//! This module exists to *demonstrate* paper §3's design rule under real
//! concurrency: "all synchronization within the system must be explicit,
//! never assuming that process priority or other scheduling artifact is
//! sufficient to guarantee exclusion."
//!
//! Two runners are provided:
//!
//! * [`run_threaded`] — each host thread embodies one GDP and steps it
//!   against the shared *lock-striped* object space
//!   ([`i432_arch::SharedSpace`]): every operation locks only the shard
//!   (or, for a cross-shard AD store, the two shards in canonical order)
//!   it touches, so threads whose processes live in different stripes
//!   genuinely run in parallel. This is the moral equivalent of the
//!   432's interleaved memory buses: disjoint addresses never contend.
//!   [`run_threaded_with`] is the same runner with auxiliary worker
//!   threads alongside.
//! * [`run_threaded_global_lock`] — the original design, one mutex
//!   around the whole system. Kept as the contention baseline that the
//!   `c3_threaded` benchmark measures speedup against.
//!
//! Interleaving is whatever the host scheduler produces —
//! nondeterministic — yet every logical result must match the
//! deterministic runner, because the *system's* synchronization is all
//! in ports, never in scheduling accidents. `tests/threaded_runner.rs`
//! checks exactly that across thread-count × shard-count combinations.
//!
//! # Every run takes every fast path
//!
//! The striped runner's GDPs run [`GdpMode::Fused`]: the bound
//! process's registers stay in the GDP, instructions come from
//! pre-decoded blocks, and fusable pairs retire in one step. Each
//! thread's [`i432_arch::SpaceAgent`] consults its qualification cache
//! before any shard lock, and the port rings are armed for the run,
//! then flushed and disarmed before the system is handed back. As on
//! the 432, whose descriptor and register caches could not be switched
//! off, nothing turns one of them off; the conformance oracle diffs
//! every threaded run against the deterministic runner, which takes
//! none of them.
//!
//! # Idle threads wait at the dispatching port
//!
//! A GDP thread whose step left its processor without a process (an
//! idle poll, a block, an exit, a fault, or a halted processor) does
//! not poll the dispatching port again at once: each poll is an
//! all-shard atomic section, which takes every shard lock away from
//! the threads that are running processes. It reads the port's lock-free
//! [`Doorbell`] instead, `seq` before `queued`, and steps only when a
//! process is queued; otherwise it waits, taking no lock and no step,
//! until `seq` moves or the run is done. Every enqueue stores `queued`
//! before it bumps `seq`, so no wakeup is lost. Waiting spins, then
//! yields, then parks with a short timeout.
//!
//! Without aux workers, the last GDP thread to start waiting ends the
//! run: nothing is queued or running then, and this runner has no
//! timers, so no process can become ready; the run returns incomplete.
//! With aux workers the threads keep waiting for the doorbell or `done`.
//!
//! Skipped polls are neither steps nor simulated cycles: an idle
//! processor's clock advances only by the polls it ran. Threaded clocks
//! already depend on the interleaving, so nothing exact is lost; the
//! deterministic runner charges its skipped polls exactly
//! ([`crate::System::run_until`]).
//!
//! # Threads share no line they need not share
//!
//! Each thread counts its own steps and claims the step budget from
//! the shared counter 64 steps at a time, so the run writes that
//! counter once per chunk, not once per step; a thread whose claim
//! finds the budget spent ends the run. The `done` flag that every
//! step reads sits on its own cache line, as do the shard locks and
//! epochs of the space ([`i432_arch::SharedSpace`]) and the ends of
//! each port ring ([`i432_arch::PortRing`]).

use crate::system::System;
use i432_arch::{CacheLine, Doorbell, ProcessStatus, ShardedSpace, SharedSpace, SpaceAccessExt};
use i432_gdp::{Env, Gdp, GdpMode, NullInterconnect, StepEvent};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of a threaded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadedOutcome {
    /// Every registered (non-service) process reached a terminal state
    /// (exited, or faulted with no service to revive it).
    pub completed: bool,
    /// Total steps executed across all threads, never more than the
    /// run's `max_steps`. A waiting thread skips its polls of the empty
    /// dispatching port; those are not steps.
    pub steps: u64,
    /// System errors observed (should be zero for correct software).
    pub system_errors: u64,
}

/// Runs the system's processors on real threads against the lock-striped
/// shared space until every registered process terminates, `max_steps`
/// total steps elapse, or every processor waits at an empty dispatching
/// port (see the module doc).
///
/// The system is taken by value (the space moves into the shared handle)
/// and handed back with the final state. Interconnect modeling is
/// disabled (contention here is *real*); simulated clocks still advance,
/// but their values are interleaving-dependent — use the deterministic
/// runner for measurements.
pub fn run_threaded(sys: System, max_steps: u64) -> (System, ThreadedOutcome) {
    run_threaded_with(sys, max_steps, Vec::new())
}

/// An auxiliary worker thread run alongside the GDP threads: it gets the
/// shared space handle and the runner's `done` flag (set when the
/// workload completes or the step budget runs out) and is expected to
/// return promptly once the flag is set. It may also set the flag
/// itself to end the run; waiting GDP threads see it within their park
/// timeout. The conformance oracle's watchdog rides on this hook; the
/// runner itself knows nothing about what the workers do.
pub type AuxWorker = Box<dyn for<'s> FnOnce(&'s SharedSpace, &'s AtomicBool) + Send>;

/// [`run_threaded`] plus auxiliary worker threads (e.g. a watchdog)
/// sharing the space with the mutator GDPs. Aux workers do not count
/// toward `max_steps` or completion; they are joined before the space
/// is reassembled. With any aux worker the run does not end when every
/// GDP thread waits, since a worker may still make a process ready or
/// set `done`.
pub fn run_threaded_with(
    mut sys: System,
    max_steps: u64,
    aux: Vec<AuxWorker>,
) -> (System, ThreadedOutcome) {
    let processes: Vec<_> = sys.processes().to_vec();
    let gdps: Vec<_> = sys
        .processors()
        .into_iter()
        .map(|cpu| Gdp::new(cpu, GdpMode::Fused))
        .collect();
    // Move the space into the striped handle; park a minimal placeholder
    // in the System until the threads are done.
    let space = std::mem::replace(&mut sys.space, ShardedSpace::new(4096, 64, 16, 1));
    debug_assert_eq!(
        space.port(sys.dispatch_port()).map(|st| st.msg_count),
        Ok(space.doorbell().queued()),
        "the doorbell counts the dispatching port's queue"
    );
    // Arm the port-ring registry for the duration of the threaded run.
    // Rings are created lazily by the locked path on first use of each
    // port; the deterministic runner never arms the registry, so its
    // cycle accounting is untouched.
    space.port_ring_registry().set_enabled(true);
    let shared = SharedSpace::new(space);
    let code = &sys.code;
    let natives = &sys.natives;
    let cost = sys.cost;

    let remaining0 = {
        let mut agent = shared.agent();
        processes
            .iter()
            .filter(|p| {
                !matches!(
                    agent.with_process(**p, |s| s.status),
                    Ok(ProcessStatus::Terminated) | Ok(ProcessStatus::Faulted)
                )
            })
            .count()
    };
    let remaining = AtomicUsize::new(remaining0);
    let budget = StepBudget::new(max_steps);
    let steps_taken = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    // Every step reads `done`: keep it off the lines other threads write.
    let done = CacheLine(AtomicBool::new(remaining0 == 0));
    let dispatch = DispatchPort {
        bell: shared.doorbell(),
        done: &done,
        waiting: AtomicUsize::new(0),
        threads: gdps.len(),
        quiesce: aux.is_empty(),
    };

    std::thread::scope(|scope| {
        for worker in aux {
            let shared = &shared;
            let done = &*done;
            scope.spawn(move || worker(shared, done));
        }
        for mut gdp in gdps {
            let shared = &shared;
            let processes = &processes;
            let remaining = &remaining;
            let budget = &budget;
            let steps_taken = &steps_taken;
            let errors = &errors;
            let done = &done;
            let dispatch = &dispatch;
            scope.spawn(move || {
                let mut agent = shared.agent();
                let mut bus = NullInterconnect;
                // A thread's first step always steps: its processor may
                // still hold a process bound by an earlier run.
                let mut idle = false;
                // Steps claimed from the budget and not yet taken, and
                // steps taken.
                let (mut claimed, mut taken) = (0u64, 0u64);
                loop {
                    if idle && !dispatch.wait() {
                        break;
                    }
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    if claimed == 0 {
                        claimed = budget.claim();
                        if claimed == 0 {
                            dispatch.finish();
                            break;
                        }
                    }
                    claimed -= 1;
                    taken += 1;
                    let event = {
                        let mut env = Env {
                            space: &mut agent,
                            code,
                            natives,
                            bus: &mut bus,
                            cost,
                        };
                        gdp.step(&mut env)
                    };
                    // Events that leave the processor without a process.
                    // `TimesliceEnd` requeued its own, so it steps again.
                    idle = matches!(
                        event,
                        StepEvent::Idle
                            | StepEvent::Blocked(_)
                            | StepEvent::ProcessExited(_)
                            | StepEvent::ProcessFaulted { .. }
                            | StepEvent::Halted
                    );
                    match event {
                        StepEvent::SystemError { .. } => {
                            errors.fetch_add(1, Ordering::AcqRel);
                            dispatch.finish();
                            break;
                        }
                        // A fault is terminal here just like an exit: the
                        // process sits at its fault port and nothing in
                        // this runner revives it.
                        StepEvent::ProcessExited(p)
                        | StepEvent::ProcessFaulted { process: p, .. }
                            if processes.contains(&p)
                                && remaining.fetch_sub(1, Ordering::AcqRel) <= 1 =>
                        {
                            dispatch.finish();
                            break;
                        }
                        _ => {}
                    }
                }
                steps_taken.fetch_add(taken, Ordering::Relaxed);
                // Write the GDP's cached binding registers (ip, slice,
                // pending cycles) back before the space is reassembled;
                // the agent's own stat deltas flush on drop.
                gdp.flush_bound(&mut agent);
            });
        }
    });

    sys.space = shared.into_inner();
    // Drain every ring back into the locked message areas so the
    // reassembled space is observably identical to a rendezvous run (an
    // open ring's port has an empty message area, so the drain always
    // fits). A fault here would mean that invariant broke — surface it
    // as a system error rather than silently dropping messages.
    if i432_gdp::port::flush_rings(&mut sys.space).is_err() {
        errors.fetch_add(1, Ordering::AcqRel);
    }
    sys.space.port_ring_registry().set_enabled(false);
    let completed = processes.iter().all(|p| {
        matches!(
            sys.space.process(*p).map(|s| s.status),
            Ok(ProcessStatus::Terminated) | Ok(ProcessStatus::Faulted) | Err(_)
        )
    });
    let outcome = ThreadedOutcome {
        completed,
        steps: steps_taken.load(Ordering::Acquire),
        system_errors: errors.load(Ordering::Acquire),
    };
    (sys, outcome)
}

/// Steps a GDP thread claims from the shared budget at a time.
const STEP_CHUNK: u64 = 64;

/// The run's step budget, which the GDP threads claim in chunks of
/// [`STEP_CHUNK`] instead of counting every step on one shared line.
struct StepBudget {
    /// Steps handed out so far, never more than `max`.
    claimed: CacheLine<AtomicU64>,
    max: u64,
}

impl StepBudget {
    fn new(max: u64) -> StepBudget {
        StepBudget {
            claimed: CacheLine(AtomicU64::new(0)),
            max,
        }
    }

    /// Claims up to [`STEP_CHUNK`] steps, capped by what remains;
    /// returns how many (0 once the budget is spent).
    fn claim(&self) -> u64 {
        let before = self
            .claimed
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                (c < self.max).then(|| c + STEP_CHUNK.min(self.max - c))
            });
        match before {
            Ok(c) => STEP_CHUNK.min(self.max - c),
            Err(_) => 0,
        }
    }
}

/// Doorbell reads a waiting GDP thread spins through before it yields.
const WAIT_SPINS: u32 = 64;
/// How long a waiting GDP thread yields before it parks.
const YIELD_FOR: Duration = Duration::from_millis(1);
/// A parked GDP thread's timeout: how long it may take to see a `done`
/// that an aux worker set, since aux workers ring no doorbell.
const PARK_FOR: Duration = Duration::from_millis(1);

/// The GDP threads' side of the dispatching port: the doorbell they
/// wait on and the run's `done` flag.
struct DispatchPort<'a> {
    bell: &'a Doorbell,
    done: &'a AtomicBool,
    /// GDP threads waiting at the port.
    waiting: AtomicUsize,
    /// GDP threads in the run.
    threads: usize,
    /// Whether the last GDP thread to start waiting ends the run. Only
    /// without aux workers: then no process is queued or running, and
    /// this runner has no timers, so none can become ready.
    quiesce: bool,
}

impl DispatchPort<'_> {
    /// Sets `done` and wakes every waiting thread.
    fn finish(&self) {
        self.done.store(true, Ordering::Release);
        self.bell.wake_all();
    }

    /// Waits, taking no lock and no step, until a process is queued at
    /// the dispatching port (`true`) or the run is done (`false`). Reads
    /// `seq` before `queued`, so an enqueue after a read of zero moves
    /// `seq` past the value held. Spins, then yields, then parks once
    /// the thread has waited about [`YIELD_FOR`].
    fn wait(&self) -> bool {
        let mut spins = 0;
        let mut yielding_since = None;
        loop {
            let seen = self.bell.seq();
            if self.bell.queued() > 0 {
                return true;
            }
            if self.done.load(Ordering::Acquire) {
                return false;
            }
            if self.waiting.fetch_add(1, Ordering::AcqRel) + 1 == self.threads && self.quiesce {
                self.finish();
                return false;
            }
            while self.bell.seq() == seen && !self.done.load(Ordering::Acquire) {
                if spins < WAIT_SPINS {
                    spins += 1;
                    std::hint::spin_loop();
                } else if yielding_since.get_or_insert_with(Instant::now).elapsed() < YIELD_FOR {
                    std::thread::yield_now();
                } else {
                    self.bell.sleep(seen, PARK_FOR);
                }
            }
            self.waiting.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// The original threaded runner: one mutex around the whole system, every
/// step serialized. Logically equivalent to [`run_threaded`]; kept as the
/// baseline the striped runner's speedup is measured against.
pub fn run_threaded_global_lock(sys: System, max_steps: u64) -> (System, ThreadedOutcome) {
    let processes: Vec<_> = sys.processes().to_vec();
    let mut gdps = Vec::new();
    for cpu in sys.processors() {
        gdps.push(Gdp::new(cpu, GdpMode::Locked));
    }
    let shared = Arc::new(Mutex::new(sys));
    let total_steps = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for mut gdp in gdps {
        let shared = Arc::clone(&shared);
        let total_steps = Arc::clone(&total_steps);
        let errors = Arc::clone(&errors);
        let done = Arc::clone(&done);
        let processes = processes.clone();
        handles.push(std::thread::spawn(move || {
            let mut bus = NullInterconnect;
            loop {
                if done.load(Ordering::Acquire) {
                    return;
                }
                if total_steps.fetch_add(1, Ordering::AcqRel) >= max_steps {
                    done.store(true, Ordering::Release);
                    return;
                }
                let event = {
                    let mut sys = shared.lock();
                    // Split borrows: System fields are accessed through
                    // the same public surface the deterministic runner
                    // uses.
                    let sys = &mut *sys;
                    let mut env = Env {
                        space: &mut sys.space,
                        code: &sys.code,
                        natives: &sys.natives,
                        bus: &mut bus,
                        cost: sys.cost,
                    };
                    gdp.step(&mut env)
                };
                match event {
                    StepEvent::SystemError { .. } => {
                        errors.fetch_add(1, Ordering::AcqRel);
                        done.store(true, Ordering::Release);
                        return;
                    }
                    StepEvent::ProcessExited(_) | StepEvent::ProcessFaulted { .. } => {
                        // Check for global completion.
                        let sys = shared.lock();
                        let all_done = processes.iter().all(|p| {
                            matches!(
                                sys.space.process(*p).map(|s| s.status),
                                Ok(ProcessStatus::Terminated) | Ok(ProcessStatus::Faulted) | Err(_)
                            )
                        });
                        if all_done {
                            done.store(true, Ordering::Release);
                            return;
                        }
                    }
                    _ => {}
                }
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }

    let sys = Arc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("all threads joined; lock cannot be shared"))
        .into_inner();
    let completed = processes.iter().all(|p| {
        matches!(
            sys.space.process(*p).map(|s| s.status),
            Ok(ProcessStatus::Terminated) | Ok(ProcessStatus::Faulted) | Err(_)
        )
    });
    let outcome = ThreadedOutcome {
        completed,
        // A claim that found the budget spent counted no step.
        steps: total_steps.load(Ordering::Acquire).min(max_steps),
        system_errors: errors.load(Ordering::Acquire),
    };
    (sys, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use i432_gdp::isa::{AluOp, DataDst, DataRef};
    use i432_gdp::ProgramBuilder;

    fn batch_system(shards: u32, cpus: u32, jobs: usize) -> System {
        let mut sys = System::new(
            &SystemConfig::small()
                .with_processors(cpus)
                .with_shards(shards),
        );
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.mov(DataRef::Imm(20), DataDst::Local(0));
        p.bind(top);
        p.work(100);
        p.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), top);
        p.halt();
        let sub = sys.subprogram("job", p.finish(), 64, 8);
        let dom = sys.install_domain("batch", vec![sub], 0);
        for _ in 0..jobs {
            sys.spawn(dom, 0, None);
        }
        sys
    }

    #[test]
    fn threaded_run_completes_simple_batch() {
        let sys = batch_system(4, 4, 8);
        let (sys, outcome) = run_threaded(sys, 10_000_000);
        assert!(outcome.completed, "{outcome:?}");
        assert_eq!(outcome.system_errors, 0);
        for p in sys.processes() {
            assert_eq!(sys.space.process(*p).unwrap().fault_code, 0);
        }
    }

    #[test]
    fn global_lock_run_completes_simple_batch() {
        let sys = batch_system(1, 4, 8);
        let (sys, outcome) = run_threaded_global_lock(sys, 10_000_000);
        assert!(outcome.completed, "{outcome:?}");
        assert_eq!(outcome.system_errors, 0);
        for p in sys.processes() {
            assert_eq!(sys.space.process(*p).unwrap().fault_code, 0);
        }
    }
}
