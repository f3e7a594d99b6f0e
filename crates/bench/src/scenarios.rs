//! The experiment implementations (C1–C10 of DESIGN.md).

use i432_arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_FIRST_FREE, CTX_SLOT_SRO};
use i432_arch::{ObjectSpec, PortDiscipline, Rights, SpaceAccessExt};
use i432_gdp::isa::{AluOp, DataDst, DataRef, Instruction};
use i432_gdp::{cost::cycles_to_us, CostModel, GdpMode, ProgramBuilder, StepEvent};
use i432_sim::{run_threaded_with, FastPaths, RunOutcome, System, SystemConfig};
use imax_gc::{install_gc_daemon, Collector};
use imax_ipc::create_port;
use parking_lot::Mutex;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// C1 — domain switch ≈ 65 µs (paper §2).
// ---------------------------------------------------------------------------

/// C1 results.
#[derive(Debug, Clone, Copy)]
pub struct DomainSwitch {
    /// Cycles of one cross-domain CALL (measured from the machine).
    pub call_cycles: u64,
    /// Cycles of the matching RETURN.
    pub return_cycles: u64,
    /// Average cycles per call+return pair over a long loop.
    pub pair_avg: f64,
    /// The CALL in microseconds at 8 MHz.
    pub call_us: f64,
}

/// Measures one inter-domain call and return, plus a loop average.
pub fn c1_domain_switch(loop_calls: u64) -> DomainSwitch {
    // Single call: capture per-instruction cycles from the event stream.
    let mut sys = System::new(&SystemConfig::small());
    let mut callee = ProgramBuilder::new();
    callee.ret(None, None);
    let callee_sub = sys.subprogram("empty", callee.finish(), 32, 8);
    let svc = sys.install_domain("svc", vec![callee_sub], 0);

    let mut caller = ProgramBuilder::new();
    caller.call(CTX_SLOT_ARG as u16, 0, None, None, None);
    caller.halt();
    let caller_sub = sys.subprogram("caller", caller.finish(), 32, 8);
    let app = sys.install_domain("app", vec![caller_sub], 0);
    sys.spawn(app, 0, Some(svc));

    let mut cycles = Vec::new();
    sys.run_until(10_000, |_, e| {
        if let StepEvent::Executed { cycles: c, .. } = e {
            cycles.push(*c);
        }
        matches!(e, StepEvent::ProcessExited(_))
    });
    let (call_cycles, return_cycles) = (cycles[0], cycles[1]);

    // Loop average: `loop_calls` call+return pairs, loop overhead
    // subtracted using a calibration run without the CALL.
    let run_loop = |with_call: bool| -> u64 {
        let mut sys = System::new(&SystemConfig::small());
        let mut callee = ProgramBuilder::new();
        callee.ret(None, None);
        let callee_sub = sys.subprogram("empty", callee.finish(), 32, 8);
        let svc = sys.install_domain("svc", vec![callee_sub], 0);
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.mov(DataRef::Imm(loop_calls), DataDst::Local(0));
        p.bind(top);
        if with_call {
            p.call(CTX_SLOT_ARG as u16, 0, None, None, None);
        }
        p.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), top);
        p.halt();
        let sub = sys.subprogram("loop", p.finish(), 64, 8);
        let dom = sys.install_domain("app", vec![sub], 0);
        let proc_ref = sys.spawn(dom, 0, Some(svc));
        let outcome = sys.run_to_completion(50_000_000);
        assert_eq!(outcome, RunOutcome::Stopped);
        sys.space.process(proc_ref).unwrap().total_cycles
    };
    let with = run_loop(true);
    let without = run_loop(false);
    let pair_avg = (with - without) as f64 / loop_calls as f64;

    DomainSwitch {
        call_cycles,
        return_cycles,
        pair_avg,
        call_us: cycles_to_us(call_cycles),
    }
}

// ---------------------------------------------------------------------------
// C2 — object allocation ≈ 80 µs (paper §5).
// ---------------------------------------------------------------------------

/// One allocation-size measurement.
#[derive(Debug, Clone, Copy)]
pub struct AllocationCost {
    /// Data-part bytes requested.
    pub data_bytes: u32,
    /// Access-part slots requested.
    pub access_slots: u32,
    /// Cycles of the CREATE OBJECT instruction.
    pub cycles: u64,
    /// Microseconds at 8 MHz.
    pub us: f64,
}

/// Measures CREATE OBJECT for a sweep of segment sizes.
pub fn c2_allocation() -> Vec<AllocationCost> {
    let sizes = [
        (64u32, 4u32),
        (256, 8),
        (1024, 16),
        (4096, 64),
        (16384, 128),
    ];
    sizes
        .iter()
        .map(|&(data_bytes, access_slots)| {
            use imax::inspect::{StatsDelta, StatsSnapshot};
            let mut sys = System::new(&SystemConfig::small());
            let mut p = ProgramBuilder::new();
            p.create_object(
                CTX_SLOT_SRO as u16,
                DataRef::Imm(data_bytes as u64),
                DataRef::Imm(access_slots as u64),
                CTX_SLOT_FIRST_FREE as u16,
            );
            p.halt();
            let sub = sys.subprogram("alloc", p.finish(), 32, 8);
            let dom = sys.install_domain("app", vec![sub], 0);
            sys.spawn(dom, 0, None);
            let before = StatsSnapshot::take(&mut sys.space);
            let mut create_cycles = 0;
            sys.run_until(10_000, |_, e| {
                if let StepEvent::Executed { cycles, .. } = e {
                    if create_cycles == 0 {
                        create_cycles = *cycles;
                    }
                }
                matches!(e, StepEvent::ProcessExited(_))
            });
            // Cross-check against the space counters: the measured region
            // is exactly one CREATE OBJECT.
            let delta: StatsDelta = before.delta(&mut sys.space);
            assert_eq!(delta.objects_created, 1, "one allocation per run");
            AllocationCost {
                data_bytes,
                access_slots,
                cycles: create_cycles,
                us: cycles_to_us(create_cycles),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// C3 — multiprocessor scaling to a factor of ~10 (paper §3).
// ---------------------------------------------------------------------------

/// One point of the scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Processor count.
    pub cpus: u32,
    /// Simulated makespan.
    pub makespan: u64,
    /// Speedup vs 1 processor.
    pub speedup: f64,
}

/// Runs the parallel batch on each processor count.
pub fn c3_scaling(cpu_counts: &[u32], buses: usize, jobs: u32) -> Vec<ScalingPoint> {
    let run = |cpus: u32| -> u64 {
        let mut sys = System::new(
            &SystemConfig::small()
                .with_processors(cpus)
                .with_buses(buses, 2),
        );
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.mov(DataRef::Imm(40), DataDst::Local(0));
        p.bind(top);
        p.work(400);
        p.mov(DataRef::Local(0), DataDst::Local(8));
        p.mov(DataRef::Local(8), DataDst::Local(16));
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
        let outcome = sys.run_to_completion(500_000_000);
        assert_eq!(outcome, RunOutcome::Stopped);
        sys.now()
    };
    let t1 = run(1);
    cpu_counts
        .iter()
        .map(|&cpus| {
            let makespan = if cpus == 1 { t1 } else { run(cpus) };
            ScalingPoint {
                cpus,
                makespan,
                speedup: t1 as f64 / makespan as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// C3t — host-thread scaling of the lock-striped runner (real wall clock).
// ---------------------------------------------------------------------------

/// One point of the host-threaded scaling curve: the same batch run by
/// N host threads against the lock-striped space and against the
/// global-lock baseline.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedPoint {
    /// Host threads (= emulated processors).
    pub threads: u32,
    /// Wall-clock microseconds, lock-striped runner.
    pub striped_wall_us: u64,
    /// Wall-clock microseconds, global-lock baseline.
    pub global_lock_wall_us: u64,
    /// Wall-clock speedup of striping over the global lock.
    pub speedup: f64,
    /// System errors across both runs (must be zero).
    pub system_errors: u64,
}

/// Runs the independent-jobs batch on real host threads, once against
/// the lock-striped shared space ([`i432_sim::run_threaded`]) and once
/// against the global-lock baseline, and reports the wall-clock speedup
/// striping buys at each thread count. Unlike every other scenario this
/// one measures *host* time: it validates that shard locking turns the
/// threaded runner into an actually-parallel program.
pub fn c3_threaded(
    thread_counts: &[u32],
    shards: u32,
    jobs: u32,
    iters: u64,
) -> Vec<ThreadedPoint> {
    use i432_sim::{run_threaded, run_threaded_global_lock};
    use std::time::Instant;
    let build = |cpus: u32| batch_system(cpus, shards, jobs, iters);
    thread_counts
        .iter()
        .map(|&threads| {
            let t0 = Instant::now();
            let (_, striped) = run_threaded(build(threads), u64::MAX);
            let striped_wall = t0.elapsed();
            assert!(striped.completed, "striped run must finish: {striped:?}");
            let t1 = Instant::now();
            let (_, global) = run_threaded_global_lock(build(threads), u64::MAX);
            let global_wall = t1.elapsed();
            assert!(global.completed, "global-lock run must finish: {global:?}");
            ThreadedPoint {
                threads,
                striped_wall_us: striped_wall.as_micros() as u64,
                global_lock_wall_us: global_wall.as_micros() as u64,
                speedup: global_wall.as_secs_f64() / striped_wall.as_secs_f64(),
                system_errors: striped.system_errors + global.system_errors,
            }
        })
        .collect()
}

/// The independent-jobs batch used by the host-threaded comparisons:
/// `jobs` processes each burning `iters` iterations of the
/// mov/work/alu/jump_if hot loop, with arenas scaled so per-shard
/// capacity stays constant.
fn batch_system(cpus: u32, shards: u32, jobs: u32, iters: u64) -> System {
    let mut cfg = SystemConfig::small()
        .with_processors(cpus)
        .with_shards(shards);
    cfg.data_bytes *= shards;
    cfg.access_slots *= shards;
    cfg.table_limit *= shards;
    let mut sys = System::new(&cfg);
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(iters), DataDst::Local(0));
    p.bind(top);
    p.work(400);
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

/// One point of the dispatch-specialization comparison: the same batch
/// on the striped threaded runner with superinstruction fusion (and the
/// block cache) on vs off.
#[derive(Debug, Clone, Copy)]
pub struct FusionPoint {
    /// Host threads (= emulated processors).
    pub threads: u32,
    /// Wall-clock microseconds, fused dispatch.
    pub fused_wall_us: u64,
    /// Wall-clock microseconds, plain cached dispatch.
    pub unfused_wall_us: u64,
    /// Wall-clock speedup of fusion over plain cached dispatch.
    pub speedup: f64,
    /// System errors across both runs (must be zero).
    pub system_errors: u64,
    /// Simulated cycle counts of both runs — must be equal: fusion is
    /// wall-clock-only by construction.
    pub fused_cycles: u64,
    /// See [`FusionPoint::fused_cycles`].
    pub unfused_cycles: u64,
}

/// Runs the batch with fusion on and off at each thread count. The
/// deterministic cycle model is untouched by fusion, so the per-point
/// cycle totals must be bit-identical; only the host wall clock moves.
pub fn c3_fusion(thread_counts: &[u32], shards: u32, jobs: u32, iters: u64) -> Vec<FusionPoint> {
    use std::time::Instant;
    // The simulated cycles every process accumulated — fusion must not
    // move this by a single cycle.
    fn cycle_total(sys: &mut System) -> u64 {
        sys.processes()
            .to_vec()
            .iter()
            .map(|&p| sys.space.with_process(p, |ps| ps.total_cycles).unwrap_or(0))
            .sum()
    }
    thread_counts
        .iter()
        .map(|&threads| {
            let t0 = Instant::now();
            let (mut fsys, fused) = run_threaded_with(
                batch_system(threads, shards, jobs, iters),
                u64::MAX,
                FastPaths::ALL,
                Vec::new(),
            );
            let fused_wall = t0.elapsed();
            assert!(fused.completed, "fused run must finish: {fused:?}");
            let t1 = Instant::now();
            let (mut usys, unfused) = run_threaded_with(
                batch_system(threads, shards, jobs, iters),
                u64::MAX,
                FastPaths::new(GdpMode::Cached, true),
                Vec::new(),
            );
            let unfused_wall = t1.elapsed();
            assert!(unfused.completed, "unfused run must finish: {unfused:?}");
            FusionPoint {
                threads,
                fused_wall_us: fused_wall.as_micros() as u64,
                unfused_wall_us: unfused_wall.as_micros() as u64,
                speedup: unfused_wall.as_secs_f64() / fused_wall.as_secs_f64(),
                system_errors: fused.system_errors + unfused.system_errors,
                fused_cycles: cycle_total(&mut fsys),
                unfused_cycles: cycle_total(&mut usys),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Shared scenario plumbing.
// ---------------------------------------------------------------------------

/// The canonical token-mutex workload, shared by the threaded-runner
/// tests, the benchmarks and the conformance fuzzer (`crates/conform`):
/// `workers` processes each bump a shared counter `rounds` times under a
/// one-token port mutex. Returns the system, the AD of the shared
/// counter cell, and the expected final counter value.
///
/// The workload is *interleaving-independent by construction* — all
/// cross-process communication goes through the port token — so any
/// runner, at any thread/shard combination, must produce the same
/// logical end state.
pub fn token_mutex_system(
    cpus: u32,
    shards: u32,
    workers: u32,
    rounds: u64,
) -> (System, i432_arch::AccessDescriptor, u64) {
    // Scale the arenas with the stripe count so per-shard capacity stays
    // constant (system objects all land in shard 0).
    let mut cfg = SystemConfig::small()
        .with_processors(cpus)
        .with_shards(shards);
    cfg.data_bytes *= shards;
    cfg.access_slots *= shards;
    cfg.table_limit *= shards;
    let mut sys = System::new(&cfg);
    let root = sys.space.root_sro();
    let mutex = create_port(&mut sys.space, root, 1, PortDiscipline::Fifo).unwrap();
    sys.anchor(mutex.ad());
    let shared = sys
        .space
        .create_object(root, ObjectSpec::generic(8, 0))
        .unwrap();
    let shared_ad = sys.space.mint(shared, Rights::READ | Rights::WRITE);
    sys.anchor(shared_ad);
    let token = sys
        .space
        .create_object(root, ObjectSpec::generic(8, 0))
        .unwrap();
    let token_ad = sys.space.mint(token, Rights::READ | Rights::WRITE);
    imax_ipc::untyped::send(&mut sys.space, mutex, token_ad).unwrap();

    // receive token -> load counter -> work -> bump -> store -> return
    // token, `rounds` times. Slot 5 is the shared cell (poked below);
    // slot 6 carries the token.
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(0), DataDst::Local(0));
    p.bind(top);
    p.receive(CTX_SLOT_ARG as u16, 6);
    p.mov(DataRef::Field(5, 0), DataDst::Local(8));
    p.work(50);
    p.alu(
        AluOp::Add,
        DataRef::Local(8),
        DataRef::Imm(1),
        DataDst::Local(8),
    );
    p.mov(DataRef::Local(8), DataDst::Field(5, 0));
    p.send(CTX_SLOT_ARG as u16, 6);
    p.alu(
        AluOp::Add,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    p.alu(
        AluOp::Lt,
        DataRef::Local(0),
        DataRef::Imm(rounds),
        DataDst::Local(16),
    );
    p.jump_if_nonzero(DataRef::Local(16), top);
    p.halt();
    let sub = sys.subprogram("incrementer", p.finish(), 64, 8);
    let dom = sys.install_domain("racers", vec![sub], 0);
    for _ in 0..workers {
        let proc_ref = sys.spawn(dom, 0, Some(mutex.ad()));
        let ctx = sys
            .space
            .load_ad_hw(proc_ref, i432_arch::sysobj::PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap()
            .obj;
        sys.space
            .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE + 1, Some(shared_ad))
            .unwrap();
    }
    (sys, shared_ad, u64::from(workers) * rounds)
}

// ---------------------------------------------------------------------------
// C4 — typed ports are zero-overhead (paper §4 / Figure 2).
// ---------------------------------------------------------------------------

/// C4 results: cycles per send+receive round trip.
#[derive(Debug, Clone, Copy)]
pub struct PortTyping {
    /// The untyped (Figure 1) loop.
    pub untyped_cycles_per_op: f64,
    /// A `Typed_Ports` instance for `u64` messages.
    pub typed_u64_cycles_per_op: f64,
    /// A `Typed_Ports` instance for a 16-byte record type.
    pub typed_record_cycles_per_op: f64,
    /// The runtime-checked variant ("a few more generated instructions").
    pub checked_cycles_per_op: f64,
}

/// The instruction stream a `Typed_Ports` instance compiles to. The
/// generic parameter exists only at compile time — monomorphization
/// yields the *same* instructions for every `M`, which is exactly
/// Figure 2's zero-overhead claim rendered in Rust.
fn send_receive_loop<M: imax_ipc::PortMessage>(rounds: u64, checked: bool) -> Vec<Instruction> {
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(rounds), DataDst::Local(0));
    // The message object (reused each round; its creation is outside the
    // measured loop semantics but inside the program for simplicity).
    p.create_object(
        CTX_SLOT_SRO as u16,
        DataRef::Imm(M::DATA_LEN as u64),
        DataRef::Imm(M::ACCESS_LEN as u64),
        5,
    );
    p.bind(top);
    if checked {
        // The dynamic type check: one extra AD load/store pair against
        // the context (stands for the user-type qualification).
        p.move_ad(5, 6);
        p.null_ad(6);
    }
    p.send(CTX_SLOT_ARG as u16, 5);
    p.receive(CTX_SLOT_ARG as u16, 5);
    p.alu(
        AluOp::Sub,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    p.jump_if_nonzero(DataRef::Local(0), top);
    p.halt();
    p.finish()
}

/// Measures the three port flavours.
pub fn c4_port_typing(rounds: u64) -> PortTyping {
    let run = |code: Vec<Instruction>| -> f64 {
        let mut sys = System::new(&SystemConfig::small());
        let root = sys.space.root_sro();
        let port = create_port(&mut sys.space, root, 4, PortDiscipline::Fifo).unwrap();
        sys.anchor(port.ad());
        let sub = sys.subprogram("loop", code, 64, 12);
        let dom = sys.install_domain("app", vec![sub], 0);
        let proc_ref = sys.spawn(dom, 0, Some(port.ad()));
        let outcome = sys.run_to_completion(100_000_000);
        assert_eq!(outcome, RunOutcome::Stopped);
        sys.space.process(proc_ref).unwrap().total_cycles as f64 / rounds as f64
    };
    // "Untyped" and the two typed instances produce identical programs;
    // running all three demonstrates (and measures) the claim.
    let untyped = run(send_receive_loop::<u64>(rounds, false));
    let typed_u64 = run(send_receive_loop::<u64>(rounds, false));
    let typed_record = run(send_receive_loop::<[u8; 16]>(rounds, false));
    let checked = run(send_receive_loop::<u64>(rounds, true));
    PortTyping {
        untyped_cycles_per_op: untyped,
        typed_u64_cycles_per_op: typed_u64,
        typed_record_cycles_per_op: typed_record,
        checked_cycles_per_op: checked,
    }
}

// ---------------------------------------------------------------------------
// C5 — concurrent GC overhead (paper §8.1).
// ---------------------------------------------------------------------------

/// One GC-configuration measurement.
#[derive(Debug, Clone, Copy)]
pub struct GcOverhead {
    /// Collector increments per daemon call (0 = daemon off).
    pub increments: u32,
    /// Processors in the configuration.
    pub cpus: u32,
    /// Simulated time until the mutators finished.
    pub mutator_makespan: u64,
    /// Slowdown vs the daemon-off run on the same processor count.
    pub slowdown: f64,
    /// Objects the collector reclaimed while the mutators ran.
    pub reclaimed: u64,
    /// Full collection cycles completed.
    pub gc_cycles: u64,
}

/// Mutators churn objects while the daemon collects.
pub fn c5_gc_overhead(cpus: u32, configs: &[u32]) -> Vec<GcOverhead> {
    let run = |increments: u32| -> (u64, u64, u64) {
        let mut sys = System::new(&SystemConfig::small().with_processors(cpus));
        let collector = Arc::new(Mutex::new(Collector::new()));
        if increments > 0 {
            // Equal priority: the daemon time-slices *against* the
            // mutators (the interference we are measuring).
            let daemon = install_gc_daemon(&mut sys, Arc::clone(&collector), increments, 128);
            let ps = sys.space.process_mut(daemon).unwrap();
            ps.timeslice = 5_000;
            ps.slice_remaining = 5_000;
        }
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.mov(DataRef::Imm(80), DataDst::Local(0));
        p.bind(top);
        p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(64), DataRef::Imm(2), 5);
        p.work(300);
        p.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), top);
        p.halt();
        let sub = sys.subprogram("churn", p.finish(), 64, 8);
        let dom = sys.install_domain("mutators", vec![sub], 0);
        for _ in 0..2 {
            let m = sys.spawn(dom, 0, None);
            let ps = sys.space.process_mut(m).unwrap();
            ps.timeslice = 5_000;
            ps.slice_remaining = 5_000;
        }
        let outcome = sys.run_to_completion(100_000_000);
        assert_eq!(outcome, RunOutcome::Stopped);
        let stats = collector.lock().stats;
        (sys.now(), stats.reclaimed, stats.cycles)
    };
    let (baseline, _, _) = run(0);
    configs
        .iter()
        .map(|&increments| {
            let (makespan, reclaimed, gc_cycles) = if increments == 0 {
                (baseline, 0, 0)
            } else {
                run(increments)
            };
            GcOverhead {
                increments,
                cpus,
                mutator_makespan: makespan,
                slowdown: makespan as f64 / baseline as f64,
                reclaimed,
                gc_cycles,
            }
        })
        .collect()
}

/// One point of the C5-threaded marking experiment: the same object
/// population collected over a space of a different shard count.
#[derive(Debug, Clone, Copy)]
pub struct GcThreadedPoint {
    /// Shards of the space.
    pub shards: u32,
    /// Live (anchored) objects in the space, identical at every point.
    pub live: u64,
    /// Unreferenced white objects in the space, identical at every point.
    pub garbage: u64,
    /// Objects reclaimed over the run — deterministically `garbage`,
    /// regardless of shard count.
    pub reclaimed: u64,
    /// Collection cycles driven (fixed by the harness).
    pub gc_cycles: u64,
    /// Wall-clock microseconds for the whole collection.
    pub mark_wall_us: u64,
    /// Live objects marked per millisecond of wall clock (live × cycles
    /// ÷ wall).
    pub marks_per_ms: u64,
    /// Collector faults (must be zero).
    pub gc_errors: u64,
}

/// C5-threaded, part 1: marking throughput by shard count. One fixed
/// population — `live` anchored chain objects plus `garbage` lost ones,
/// each shard's share allocated from its root SRO — is collected for
/// `cycles` full cycles, once per entry of `shard_counts`, by the
/// daemon's engine stepped in daemon-sized all-shard sections of a
/// shared space ([`Collector::collect_shared`]). What gets reclaimed is
/// fixed; only the wall clock varies.
pub fn c5_gc_threaded(
    shard_counts: &[u32],
    live: u32,
    garbage: u32,
    cycles: u32,
) -> Vec<GcThreadedPoint> {
    use i432_arch::{ObjectRef, ObjectType, ShardedSpace, SharedSpace, SysState, SystemType};
    use std::time::Instant;
    let build = |shards: u32| -> ShardedSpace {
        let mut s = ShardedSpace::new(1 << 22, 1 << 17, 1 << 16, shards);
        for k in 0..shards {
            let root = s.root_sro_of(k);
            let cpu = s
                .create_object(
                    root,
                    ObjectSpec {
                        data_len: 0,
                        access_len: i432_arch::sysobj::CPU_ACCESS_SLOTS,
                        otype: ObjectType::System(SystemType::Processor),
                        level: None,
                        sys: SysState::Processor(i432_arch::ProcessorState::new(k)),
                    },
                )
                .expect("cpu allocation");
            // The live population: one long anchored chain per shard, so
            // marking must actually traverse `live / shards` pointers.
            let mut prev: Option<ObjectRef> = None;
            for _ in 0..live / shards {
                let o = s
                    .create_object(root, ObjectSpec::generic(16, 2))
                    .expect("live allocation");
                if let Some(p) = prev {
                    let ad = s.mint(p, Rights::ALL);
                    s.store_ad_hw(o, 0, Some(ad)).expect("chain link");
                }
                prev = Some(o);
            }
            let head = s.mint(prev.expect("nonempty chain"), Rights::ALL);
            s.store_ad_hw(cpu, i432_arch::sysobj::CPU_SLOT_ROOT, Some(head))
                .expect("chain anchor");
            // The lost population: allocated, never referenced — white.
            for _ in 0..garbage / shards {
                s.create_object(root, ObjectSpec::generic(16, 0))
                    .expect("garbage allocation");
            }
        }
        s
    };
    shard_counts
        .iter()
        .map(|&shards| {
            let shared = SharedSpace::new(build(shards));
            let mut gc = Collector::new();
            let t0 = Instant::now();
            let run = gc.collect_shared(&shared, cycles);
            let wall = t0.elapsed();
            let live_total = (live / shards * shards) as u64;
            let garbage_total = (garbage / shards * shards) as u64;
            GcThreadedPoint {
                shards,
                live: live_total,
                garbage: garbage_total,
                reclaimed: gc.stats.reclaimed,
                gc_cycles: gc.stats.cycles,
                mark_wall_us: wall.as_micros() as u64,
                marks_per_ms: ((live_total * cycles as u64) as f64
                    / wall.as_secs_f64().max(1e-9)
                    / 1000.0) as u64,
                gc_errors: u64::from(run.is_err()),
            }
        })
        .collect()
}

/// C5-threaded, part 2: what concurrent collection costs the mutators.
#[derive(Debug, Clone, Copy)]
pub struct GcMutatorOverhead {
    /// Wall-clock microseconds for the workload with no collector.
    pub baseline_wall_us: u64,
    /// Wall-clock microseconds with the GC daemon collecting throughout
    /// the run.
    pub gc_on_wall_us: u64,
    /// `gc_on / baseline` — the concurrent-collection tax.
    pub slowdown: f64,
    /// Collections completed while the mutators ran (schedule-dependent,
    /// so deliberately not named `cycles`: `bench_diff` must treat it as
    /// host-dependent).
    pub collections: u64,
    /// Objects reclaimed while the mutators ran (schedule-dependent).
    pub reclaimed_during_run: u64,
    /// System errors of both runs (must be zero).
    pub system_errors: u64,
}

/// Runs the canonical token-mutex workload on the threaded runner twice
/// — bare, then with the GC daemon installed beside the workers
/// (priority 128, a 5,000-cycle time slice, 16 increments per call) —
/// and reports the mutator slowdown. Each arm's
/// timer covers its run only, not building the system. The logical end
/// state (the shared counter) is asserted identical in both arms: the
/// collector must be invisible.
pub fn c5_gc_mutator_overhead(
    cpus: u32,
    shards: u32,
    workers: u32,
    rounds: u64,
) -> GcMutatorOverhead {
    use std::time::Instant;
    let (sys, counter, expected) = token_mutex_system(cpus, shards, workers, rounds);
    let t0 = Instant::now();
    let (mut sys, bare) = i432_sim::run_threaded(sys, u64::MAX);
    let baseline_wall = t0.elapsed();
    assert!(bare.completed, "bare run must finish: {bare:?}");
    assert_eq!(sys.space.read_u64(counter, 0).unwrap(), expected);

    let (mut sys, counter, expected) = token_mutex_system(cpus, shards, workers, rounds);
    let collector = Arc::new(Mutex::new(Collector::new()));
    let daemon = install_gc_daemon(&mut sys, Arc::clone(&collector), 16, 128);
    if let Ok(ps) = sys.space.process_mut(daemon) {
        ps.timeslice = 5_000;
        ps.slice_remaining = 5_000;
    }
    let t1 = Instant::now();
    let (mut sys, with_gc) = i432_sim::run_threaded(sys, u64::MAX);
    let gc_wall = t1.elapsed();
    assert!(with_gc.completed, "gc-on run must finish: {with_gc:?}");
    assert_eq!(sys.space.read_u64(counter, 0).unwrap(), expected);
    let stats = collector.lock().stats;

    GcMutatorOverhead {
        baseline_wall_us: baseline_wall.as_micros() as u64,
        gc_on_wall_us: gc_wall.as_micros() as u64,
        slowdown: gc_wall.as_secs_f64() / baseline_wall.as_secs_f64(),
        collections: stats.cycles,
        reclaimed_during_run: stats.reclaimed,
        system_errors: bare.system_errors + with_gc.system_errors,
    }
}

// ---------------------------------------------------------------------------
// C6 — local heaps reclaim more cheaply than global GC (paper §5/§8.1).
// ---------------------------------------------------------------------------

/// C6 results: cycles per reclaimed object under the two strategies.
#[derive(Debug, Clone, Copy)]
pub struct ReclamationCost {
    /// Objects reclaimed in each arm.
    pub objects: u64,
    /// Bulk (scope-exit) reclamation: cycles per object, measured from
    /// the RETURN that destroys the local heap.
    pub bulk_cycles_per_object: f64,
    /// Global-heap + collector: collector cycles per reclaimed object.
    pub gc_cycles_per_object: f64,
}

/// Allocate-and-abandon under (a) a local heap destroyed at scope exit
/// and (b) the global heap swept by the collector.
pub fn c6_local_heaps(objects: u64) -> ReclamationCost {
    // (a) Bulk: host-level — build the heap, allocate, bulk destroy,
    // using the same 20-cycles-per-object charge the RETURN path applies
    // plus the measured heap construction overhead.
    let bulk = {
        use imax_storage::{create_sro, SroQuota};
        let mut sys = System::new(&SystemConfig::small());
        let root = sys.space.root_sro();
        let heap = create_sro(
            &mut sys.space,
            root,
            i432_arch::Level(1),
            SroQuota {
                data_bytes: (objects as u32) * 96,
                access_slots: (objects as u32) * 4,
            },
        )
        .unwrap();
        for _ in 0..objects {
            sys.space
                .create_object(heap, ObjectSpec::generic(64, 2))
                .unwrap();
        }
        let reclaimed = sys.space.bulk_destroy_sro(heap).unwrap() as u64;
        // The RETURN path charges 20 cycles per reclaimed object plus
        // its fixed cost; report that model charge per object.
        let fixed = CostModel::default().return_total();
        (reclaimed * 20 + fixed) as f64 / objects as f64
    };

    // (b) GC: allocate from the global heap, drop, run the collector,
    // and divide its simulated cycles by what it reclaimed.
    let gc = {
        let mut sys = System::new(&SystemConfig::small());
        let root = sys.space.root_sro();
        for _ in 0..objects {
            sys.space
                .create_object(root, ObjectSpec::generic(64, 2))
                .unwrap();
        }
        let mut collector = Collector::new();
        collector.collect_full(&mut sys.space).unwrap();
        collector.stats.sim_cycles as f64 / collector.stats.reclaimed.max(1) as f64
    };

    ReclamationCost {
        objects,
        bulk_cycles_per_object: bulk,
        gc_cycles_per_object: gc,
    }
}

// ---------------------------------------------------------------------------
// C7 — port throughput vs capacity and discipline.
// ---------------------------------------------------------------------------

/// One throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct PortThroughput {
    /// Queue capacity (Figure 1's `message_count`).
    pub capacity: u32,
    /// Queue discipline.
    pub discipline: PortDiscipline,
    /// Simulated cycles per message moved end to end.
    pub cycles_per_message: f64,
    /// Sends that blocked.
    pub blocked_sends: u64,
    /// Receives that blocked.
    pub blocked_receives: u64,
}

/// Producer/consumer pair on two processors.
pub fn c7_port_throughput(capacities: &[u32], discipline: PortDiscipline) -> Vec<PortThroughput> {
    const MESSAGES: u64 = 200;
    capacities
        .iter()
        .map(|&capacity| {
            let mut sys = System::new(&SystemConfig::small().with_processors(2));
            let root = sys.space.root_sro();
            let port = create_port(&mut sys.space, root, capacity, discipline).unwrap();
            sys.anchor(port.ad());

            let mut tx = ProgramBuilder::new();
            let top = tx.new_label();
            tx.mov(DataRef::Imm(0), DataDst::Local(0));
            tx.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(16), DataRef::Imm(0), 5);
            tx.bind(top);
            tx.send_keyed(CTX_SLOT_ARG as u16, 5, DataRef::Local(0));
            tx.alu(
                AluOp::Add,
                DataRef::Local(0),
                DataRef::Imm(1),
                DataDst::Local(0),
            );
            tx.alu(
                AluOp::Lt,
                DataRef::Local(0),
                DataRef::Imm(MESSAGES),
                DataDst::Local(8),
            );
            tx.jump_if_nonzero(DataRef::Local(8), top);
            tx.halt();
            let tx_sub = sys.subprogram("tx", tx.finish(), 64, 8);

            let mut rx = ProgramBuilder::new();
            let top = rx.new_label();
            rx.mov(DataRef::Imm(0), DataDst::Local(0));
            rx.bind(top);
            rx.receive(CTX_SLOT_ARG as u16, 6);
            // Per-message processing: the consumer is the bottleneck, so
            // queue capacity governs how often the producer blocks.
            rx.work(150);
            rx.alu(
                AluOp::Add,
                DataRef::Local(0),
                DataRef::Imm(1),
                DataDst::Local(0),
            );
            rx.alu(
                AluOp::Lt,
                DataRef::Local(0),
                DataRef::Imm(MESSAGES),
                DataDst::Local(8),
            );
            rx.jump_if_nonzero(DataRef::Local(8), top);
            rx.halt();
            let rx_sub = sys.subprogram("rx", rx.finish(), 64, 12);

            let dom = sys.install_domain("pipe", vec![tx_sub, rx_sub], 0);
            sys.spawn(dom, 0, Some(port.ad()));
            sys.spawn(dom, 1, Some(port.ad()));
            let outcome = sys.run_to_completion(200_000_000);
            assert_eq!(outcome, RunOutcome::Stopped);
            let stats = sys.space.port(port.object()).unwrap().stats;
            PortThroughput {
                capacity,
                discipline,
                cycles_per_message: sys.now() as f64 / MESSAGES as f64,
                blocked_sends: stats.blocked_sends,
                blocked_receives: stats.blocked_receives,
            }
        })
        .collect()
}

/// One point of the threaded port-throughput comparison: the same
/// contended-port workload with the per-port rings armed and with every
/// operation on the locked rendezvous path.
#[derive(Debug, Clone, Copy)]
pub struct PortQueuePoint {
    /// Producer/consumer pairs (host threads = 2 × pairs).
    pub pairs: u32,
    /// Median wall-clock microseconds with the port rings on.
    pub queued_wall_us: u64,
    /// Median wall-clock microseconds with every port op on the locked
    /// path.
    pub locked_wall_us: u64,
    /// Ratio of the locked and queued medians (> 1.0 = the ring wins).
    pub speedup: f64,
    /// End-to-end messages per second of the queued median.
    pub queued_msgs_per_sec: f64,
    /// End-to-end messages per second of the locked median.
    pub locked_msgs_per_sec: f64,
    /// System errors across every run of both arms (must be zero).
    pub system_errors: u64,
}

/// Builds the contended-port workload: `pairs` producers and `pairs`
/// consumers, all sharing ONE FIFO port of the given capacity. Each
/// producer sends `messages` keyed messages; each consumer receives
/// `messages` and does a little per-message work. The logical outcome
/// is schedule-independent (every message is received exactly once), so
/// the deterministic runner gives the exact simulated cost and the
/// threaded runner gives host throughput.
pub fn port_pipeline_system(pairs: u32, capacity: u32, messages: u64, shards: u32) -> System {
    let mut cfg = SystemConfig::small()
        .with_processors(pairs * 2)
        .with_shards(shards);
    cfg.data_bytes *= shards;
    cfg.access_slots *= shards;
    cfg.table_limit *= shards;
    let mut sys = System::new(&cfg);
    let root = sys.space.root_sro();
    let port = create_port(&mut sys.space, root, capacity, PortDiscipline::Fifo).unwrap();
    sys.anchor(port.ad());

    let mut tx = ProgramBuilder::new();
    let top = tx.new_label();
    tx.mov(DataRef::Imm(0), DataDst::Local(0));
    tx.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(16), DataRef::Imm(0), 5);
    tx.bind(top);
    tx.send_keyed(CTX_SLOT_ARG as u16, 5, DataRef::Local(0));
    tx.work(30);
    tx.alu(
        AluOp::Add,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    tx.alu(
        AluOp::Lt,
        DataRef::Local(0),
        DataRef::Imm(messages),
        DataDst::Local(8),
    );
    tx.jump_if_nonzero(DataRef::Local(8), top);
    tx.halt();
    let tx_sub = sys.subprogram("tx", tx.finish(), 64, 8);

    let mut rx = ProgramBuilder::new();
    let top = rx.new_label();
    rx.mov(DataRef::Imm(0), DataDst::Local(0));
    rx.bind(top);
    rx.receive(CTX_SLOT_ARG as u16, 6);
    rx.work(30);
    rx.alu(
        AluOp::Add,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    rx.alu(
        AluOp::Lt,
        DataRef::Local(0),
        DataRef::Imm(messages),
        DataDst::Local(8),
    );
    rx.jump_if_nonzero(DataRef::Local(8), top);
    rx.halt();
    let rx_sub = sys.subprogram("rx", rx.finish(), 64, 12);

    let dom = sys.install_domain("pipe", vec![tx_sub, rx_sub], 0);
    for _ in 0..pairs {
        sys.spawn(dom, 0, Some(port.ad()));
        sys.spawn(dom, 1, Some(port.ad()));
    }
    sys
}

/// C7 threaded: multi-thread throughput of one contended port, rings on
/// vs. rings off, on real host threads. Each pair count runs each arm
/// `runs` times, the arms interleaved, and reports each arm's median
/// wall clock; the speedup is the ratio of the medians. Also returns the
/// deterministic simulated cycles per message for the same construction
/// (measured with the rings off; the rings are cycle-neutral by
/// construction and `typed_untyped_diff` asserts it, so one number
/// describes both arms).
pub fn c7_port_threaded(
    pair_counts: &[u32],
    capacity: u32,
    messages: u64,
    shards: u32,
    runs: usize,
) -> (Vec<PortQueuePoint>, f64) {
    use std::time::{Duration, Instant};
    // Unbounded step caps, as in C3: idle threads wait at the dispatching
    // port without stepping, but threads that race for one queued
    // process each take a step, so no finite budget is
    // schedule-independent.
    let run = |pairs: u32, fast: FastPaths| -> (Duration, u64) {
        let t0 = Instant::now();
        let (_, outcome) = run_threaded_with(
            port_pipeline_system(pairs, capacity, messages, shards),
            u64::MAX,
            fast,
            Vec::new(),
        );
        let wall = t0.elapsed();
        assert!(outcome.completed, "{fast} run must finish: {outcome:?}");
        (wall, outcome.system_errors)
    };
    let median = |mut walls: Vec<Duration>| {
        walls.sort();
        walls[walls.len() / 2]
    };
    let points = pair_counts
        .iter()
        .map(|&pairs| {
            let total_msgs = u64::from(pairs) * messages;
            let (mut queued, mut locked, mut system_errors) = (Vec::new(), Vec::new(), 0);
            for _ in 0..runs.max(1) {
                for (fast, walls) in [
                    (FastPaths::ALL, &mut queued),
                    (FastPaths::new(GdpMode::Fused, false), &mut locked),
                ] {
                    let (wall, errors) = run(pairs, fast);
                    walls.push(wall);
                    system_errors += errors;
                }
            }
            let (queued_wall, locked_wall) = (median(queued), median(locked));
            PortQueuePoint {
                pairs,
                queued_wall_us: queued_wall.as_micros() as u64,
                locked_wall_us: locked_wall.as_micros() as u64,
                speedup: locked_wall.as_secs_f64() / queued_wall.as_secs_f64(),
                queued_msgs_per_sec: total_msgs as f64 / queued_wall.as_secs_f64(),
                locked_msgs_per_sec: total_msgs as f64 / locked_wall.as_secs_f64(),
                system_errors,
            }
        })
        .collect();

    // Deterministic reference cost (exact on every host).
    let det_pairs = pair_counts.first().copied().unwrap_or(1);
    let mut sys = port_pipeline_system(det_pairs, capacity, messages, shards);
    let outcome = sys.run_to_completion(2_000_000_000);
    assert_eq!(outcome, RunOutcome::Stopped);
    let det_cycles_per_message = sys.now() as f64 / (u64::from(det_pairs) * messages) as f64;
    (points, det_cycles_per_message)
}

// ---------------------------------------------------------------------------
// C8 — scheduling policies over the basic process manager (paper §6.1).
// ---------------------------------------------------------------------------

/// One policy's fairness outcome.
#[derive(Debug, Clone)]
pub struct SchedulingOutcome {
    /// Policy label.
    pub policy: &'static str,
    /// Per-process cycles consumed at the checkpoint, in spawn order.
    pub progress: Vec<u64>,
    /// max/min progress ratio (1.0 = perfectly fair).
    pub unfairness: f64,
}

/// Overcommitted spinners under the three policies.
pub fn c8_schedulers() -> Vec<SchedulingOutcome> {
    use imax::{Imax, ImaxConfig, SchedulingChoice};
    const SPINNERS: usize = 4;
    const BUDGET: u64 = 120_000;

    let spin = |os: &mut Imax| {
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.bind(top);
        p.work(400);
        p.jump(top);
        let sub = os.sys.subprogram("spin", p.finish(), 64, 8);
        os.sys.install_domain("spinners", vec![sub], 0)
    };

    let mut out = Vec::new();

    // Null policy with skewed priorities: the urgent process hogs.
    {
        let cfg = ImaxConfig {
            scheduling: SchedulingChoice::Null,
            gc: None,
            ..ImaxConfig::development()
        };
        let mut os = Imax::boot(&cfg);
        let dom = spin(&mut os);
        let procs: Vec<_> = (0..SPINNERS)
            .map(|i| {
                let p = os.spawn_program(dom, 0, None);
                // Misused dispatching parameters (the paper's warning).
                os.sys.space.process_mut(p).unwrap().priority = (10 + 60 * i) as u8;
                os.sys.space.process_mut(p).unwrap().timeslice = 5_000;
                os.sys.space.process_mut(p).unwrap().slice_remaining = 5_000;
                p
            })
            .collect();
        let _ = os.run(BUDGET);
        let progress: Vec<u64> = procs
            .iter()
            .map(|p| os.sys.space.process(*p).unwrap().total_cycles)
            .collect();
        let unfairness = *progress.iter().max().unwrap() as f64
            / (*progress.iter().min().unwrap()).max(1) as f64;
        out.push(SchedulingOutcome {
            policy: "null (skewed priorities)",
            progress,
            unfairness,
        });
    }

    // Round robin: equal quanta, equal progress.
    {
        let cfg = ImaxConfig {
            scheduling: SchedulingChoice::RoundRobin { quantum: 5_000 },
            gc: None,
            ..ImaxConfig::development()
        };
        let mut os = Imax::boot(&cfg);
        let dom = spin(&mut os);
        let procs: Vec<_> = (0..SPINNERS)
            .map(|_| os.spawn_program(dom, 0, None))
            .collect();
        let _ = os.run(BUDGET);
        let progress: Vec<u64> = procs
            .iter()
            .map(|p| os.sys.space.process(*p).unwrap().total_cycles)
            .collect();
        let unfairness = *progress.iter().max().unwrap() as f64
            / (*progress.iter().min().unwrap()).max(1) as f64;
        out.push(SchedulingOutcome {
            policy: "round-robin",
            progress,
            unfairness,
        });
    }

    // Fair share with weights 1,1,2,4: progress tracks weights.
    {
        let cfg = ImaxConfig {
            scheduling: SchedulingChoice::FairShare,
            gc: None,
            ..ImaxConfig::development()
        };
        let mut os = Imax::boot(&cfg);
        let dom = spin(&mut os);
        let weights = [1u64, 1, 2, 4];
        let procs: Vec<_> = weights
            .iter()
            .map(|w| {
                let p = os.spawn_weighted(dom, 0, None, *w);
                os.sys.space.process_mut(p).unwrap().timeslice = 2_000;
                os.sys.space.process_mut(p).unwrap().slice_remaining = 2_000;
                p
            })
            .collect();
        // The controller needs frequent rebalances relative to the
        // quantum; interleave short bursts with service passes.
        for _ in 0..(BUDGET / 200) {
            let _ = os.sys.run_to_quiescence(200);
            let _ = os.service_pass();
        }
        let progress: Vec<u64> = procs
            .iter()
            .map(|p| os.sys.space.process(*p).unwrap().total_cycles)
            .collect();
        let unfairness = *progress.iter().max().unwrap() as f64
            / (*progress.iter().min().unwrap()).max(1) as f64;
        out.push(SchedulingOutcome {
            policy: "fair-share (weights 1,1,2,4)",
            progress,
            unfairness,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// C9 — swapping vs non-swapping (paper §6.2).
// ---------------------------------------------------------------------------

/// C9 results.
#[derive(Debug, Clone, Copy)]
pub struct SwappingOutcome {
    /// Objects in the working set.
    pub working_set: u32,
    /// Fraction of the set that fits in memory (percent).
    pub resident_percent: u32,
    /// Swap-outs performed.
    pub swap_outs: u64,
    /// Swap-ins performed.
    pub swap_ins: u64,
    /// Simulated device-transfer cycles consumed.
    pub transfer_cycles: u64,
    /// Slowdown vs the fully-resident run (host-side sweep loop).
    pub slowdown: f64,
}

/// Round-robin touches over an oversubscribed working set.
pub fn c9_swapping(working_set: u32, resident_fraction: f64, sweeps: u32) -> SwappingOutcome {
    use imax_storage::{create_sro, SroQuota, StorageManager, SwappingManager};
    let obj_bytes = 512u32;
    let resident = ((working_set as f64 * resident_fraction) as u32).max(2);
    let run = |quota_objs: u32| -> (u64, u64, u64) {
        let mut sys = System::new(&SystemConfig::default());
        let root = sys.space.root_sro();
        let sro = create_sro(
            &mut sys.space,
            root,
            i432_arch::Level(0),
            SroQuota {
                data_bytes: quota_objs * obj_bytes,
                access_slots: working_set * 2 + 16,
            },
        )
        .unwrap();
        let mut mgr = SwappingManager::new();
        let mut objs = Vec::new();
        for i in 0..working_set {
            let o = mgr
                .create_object(&mut sys.space, sro, ObjectSpec::generic(obj_bytes, 0))
                .unwrap();
            let ad = sys.space.mint(o, Rights::READ | Rights::WRITE);
            sys.space.write_u64(ad, 0, i as u64).ok();
            if sys.space.entry(o).unwrap().desc.absent {
                // Freshly evicted before we wrote: bring back and write.
                mgr.ensure_resident(&mut sys.space, o).unwrap();
                sys.space.write_u64(ad, 0, i as u64).unwrap();
            }
            objs.push((o, ad));
        }
        // Sweep the set.
        for _ in 0..sweeps {
            for (i, (o, ad)) in objs.iter().enumerate() {
                if sys.space.entry(*o).unwrap().desc.absent {
                    mgr.ensure_resident(&mut sys.space, *o).unwrap();
                }
                assert_eq!(sys.space.read_u64(*ad, 0).unwrap(), i as u64);
            }
        }
        let st = mgr.stats();
        (st.swap_outs, st.swap_ins, mgr.drain_cycles())
    };
    let (swap_outs, swap_ins, transfer_cycles) = run(resident);
    let (_, _, baseline_cycles) = run(working_set + 4);
    // Slowdown model: each touch performs a nominal 2000 cycles of
    // computation (a compute:transfer ratio assumption, stated in
    // EXPERIMENTS.md); device transfers add on top.
    let touch_cost = (working_set as u64) * (sweeps as u64) * 2000;
    let slowdown = (touch_cost + transfer_cycles) as f64 / (touch_cost + baseline_cycles) as f64;
    SwappingOutcome {
        working_set,
        resident_percent: (resident_fraction * 100.0) as u32,
        swap_outs,
        swap_ins,
        transfer_cycles,
        slowdown,
    }
}

// ---------------------------------------------------------------------------
// C10 — destruction filters recover lost objects (paper §8.2).
// ---------------------------------------------------------------------------

/// C10 results.
#[derive(Debug, Clone, Copy)]
pub struct FilterOutcome {
    /// Drives in the pool.
    pub drives: usize,
    /// Handles leaked by clients.
    pub leaked: usize,
    /// Drives recovered through the destruction filter.
    pub recovered: u32,
    /// Drives free after recovery.
    pub free_after: usize,
    /// Drives free in the no-filter control arm (lost forever).
    pub free_without_filter: usize,
}

/// The tape-drive experiment, with and without filters.
pub fn c10_destruction_filter(drives: usize, leaked: usize) -> FilterOutcome {
    use imax_io::TapePool;
    // Arm 1: with filters (the pool binds one automatically).
    let (recovered, free_after) = {
        let mut sys = System::new(&SystemConfig::small());
        let root = sys.space.root_sro();
        let mut pool = TapePool::new(&mut sys.space, root, drives).unwrap();
        sys.anchor(sys.space.mint(pool.tdo(), Rights::NONE));
        sys.anchor(sys.space.mint(pool.filter_port(), Rights::NONE));
        for _ in 0..leaked {
            let _lost = pool.acquire(&mut sys.space, root).unwrap();
        }
        let mut gc = Collector::new();
        gc.collect_full(&mut sys.space).unwrap();
        let recovered = pool.recover_lost(&mut sys.space).unwrap();
        (recovered, pool.free_count())
    };
    // Arm 2: a plain type manager, no filter — the drives stay lost.
    let free_without_filter = {
        let mut sys = System::new(&SystemConfig::small());
        let root = sys.space.root_sro();
        let mgr = imax_typemgr::TypeManager::new(&mut sys.space, root, "bare_drive").unwrap();
        sys.anchor(sys.space.mint(mgr.tdo(), Rights::NONE));
        let mut free = drives;
        for _ in 0..leaked {
            let _lost = mgr.create_instance(&mut sys.space, root, 16, 0).unwrap();
            free -= 1; // the pool would mark it allocated
        }
        let mut gc = Collector::new();
        gc.collect_full(&mut sys.space).unwrap();
        gc.collect_full(&mut sys.space).unwrap();
        // The handles are reclaimed, but nobody told the pool: the
        // drives remain allocated forever.
        free
    };
    FilterOutcome {
        drives,
        leaked,
        recovered,
        free_after,
        free_without_filter,
    }
}

// ---------------------------------------------------------------------------
// C11 — multi-tenant scale over the two-level object directory.
// ---------------------------------------------------------------------------

/// C11 results: a large population of lightweight client processes is
/// booted in waves, each sending one request to a Zipf-chosen shared
/// service through a typed port. Terminated clients are retired and
/// collected between waves, so the demand-grown object directory keeps
/// the footprint bounded by recycling slots instead of growing with the
/// cumulative population. Every field except the wall clocks is a
/// simulated, bit-exact measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiTenant {
    /// Client processes booted over the whole run.
    pub processes: u64,
    /// Shared services (one typed `u64` port + one accumulator each).
    pub services: u32,
    /// Clients per boot wave.
    pub wave_size: u32,
    /// Waves run.
    pub waves: u32,
    /// Requests delivered across all services (must equal `processes`).
    pub requests: u64,
    /// Requests into the most popular service (Zipf rank 1).
    pub req_top1: u64,
    /// Requests into the eight most popular services.
    pub req_top8: u64,
    /// Objects created across the run (space counter).
    pub objects_created: u64,
    /// Table slots ever carved — the directory's dense high-water mark,
    /// summed over shards. Stays near one wave's worth, not the
    /// population's: the scale claim in one number.
    pub capacity_used: u32,
    /// Peak live objects, sampled at wave boundaries.
    pub live_peak: u32,
    /// Live objects after the final collection.
    pub live_final: u32,
    /// Peak allocated directory leaf pages (all shards).
    pub leaf_pages_peak: u32,
    /// Allocated leaf pages at the end (pages are never freed).
    pub leaf_pages_final: u32,
    /// Objects the collector reclaimed between waves.
    pub reclaimed: u64,
    /// Simulated makespan of the whole run.
    pub makespan_cycles: u64,
}

/// Boots `processes` one-shot clients in waves of `wave_size`, each
/// sending a single request to one of `services` shared services picked
/// from an integer Zipf(1) distribution seeded with `seed`.
pub fn c11_multi_tenant(processes: u64, services: u32, wave_size: u32, seed: u64) -> MultiTenant {
    use i432_arch::SpaceMut;
    use imax_ipc::{PortMessage, TypedPort};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    assert!(
        services >= 8,
        "the report keys cover the top eight services"
    );
    assert!(
        (1..=1800).contains(&wave_size),
        "a wave (plus the service fleet) must fit the system root directory"
    );

    const SHARDS: u32 = 4;
    let mut cfg = SystemConfig::small().with_processors(4).with_shards(SHARDS);
    // Arenas are sized for one wave plus the service fleet, NOT for the
    // whole population: between waves the terminated clients are retired
    // and collected, so their table slots, data and access parts recycle.
    cfg.data_bytes = 512 * 1024 * SHARDS;
    cfg.access_slots = 32 * 1024 * SHARDS;
    cfg.table_limit = 8 * i432_arch::object_table::LEAF_ENTRIES * SHARDS;
    cfg.dispatch_capacity = (wave_size + services + 16).next_power_of_two();
    let mut sys = System::new(&cfg);
    let root = sys.space.root_sro();

    // Zipf(1) over service ranks in pure integer arithmetic — no libm,
    // so the committed baseline is bit-identical on every host. The
    // whole assignment is drawn up front: the per-wave demand it implies
    // sizes each service's port so a wave can never overflow the port's
    // bounded waiting area (backpressure is C7's experiment, not this
    // one — here a fault would silently drop requests).
    let mut cum = Vec::with_capacity(services as usize);
    let mut total = 0u64;
    for k in 1..=u64::from(services) {
        total += (1u64 << 32) / k;
        cum.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let assign: Vec<u32> = (0..processes)
        .map(|_| {
            let r = rng.random_range(0u64..total);
            cum.partition_point(|&c| c <= r) as u32
        })
        .collect();
    let mut port_capacity = vec![1u32; services as usize];
    for wave in assign.chunks(wave_size as usize) {
        let mut demand = vec![0u32; services as usize];
        for &k in wave {
            demand[k as usize] += 1;
        }
        for (cap, d) in port_capacity.iter_mut().zip(&demand) {
            *cap = (*cap).max(d + 1);
        }
    }

    // Shared services: a typed u64 port and an accumulator cell each.
    // The loop is Figure 2's receive side — take a request, drop the
    // message AD, bump the poked accumulator (context slot 5).
    let mut sp = ProgramBuilder::new();
    let top = sp.new_label();
    sp.bind(top);
    sp.receive(CTX_SLOT_ARG as u16, 6);
    sp.null_ad(6);
    sp.mov(DataRef::Field(5, 0), DataDst::Local(0));
    sp.alu(
        AluOp::Add,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    sp.mov(DataRef::Local(0), DataDst::Field(5, 0));
    sp.jump(top);
    let svc_sub = sys.subprogram("service", sp.finish(), 64, 8);
    let svc_dom = sys.install_domain("services", vec![svc_sub], 0);

    let mut ports: Vec<TypedPort<u64>> = Vec::new();
    let mut cells = Vec::new();
    for &cap in &port_capacity {
        let port = TypedPort::<u64>::from_port(
            create_port(&mut sys.space, root, cap, PortDiscipline::Fifo).unwrap(),
        );
        sys.anchor(port.as_port().ad());
        let cell = sys
            .space
            .create_object(root, ObjectSpec::generic(8, 0))
            .unwrap();
        let cell_ad = sys.space.mint(cell, Rights::READ | Rights::WRITE);
        let svc = sys.spawn(svc_dom, 0, Some(port.as_port().ad()));
        let ctx = sys
            .space
            .load_ad_hw(svc, i432_arch::sysobj::PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap()
            .obj;
        sys.space
            .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE + 1, Some(cell_ad))
            .unwrap();
        sys.mark_service(svc);
        ports.push(port);
        cells.push(cell_ad);
    }

    // One lightweight client: allocate a typed message, send it to the
    // service the spawn argument names, exit.
    let mut cp = ProgramBuilder::new();
    cp.create_object(
        CTX_SLOT_SRO as u16,
        DataRef::Imm(<u64 as PortMessage>::DATA_LEN as u64),
        DataRef::Imm(0),
        5,
    );
    cp.send(CTX_SLOT_ARG as u16, 5);
    cp.halt();
    let client_sub = sys.subprogram("client", cp.finish(), 32, 8);
    let client_dom = sys.install_domain("clients", vec![client_sub], 0);

    let mut collector = Collector::new();
    let mut booted = 0u64;
    let mut waves = 0u32;
    let mut live_peak = 0u32;
    let mut leaf_pages_peak = 0u32;
    while booted < processes {
        let wave = wave_size.min((processes - booted) as u32);
        for i in 0..u64::from(wave) {
            let k = assign[(booted + i) as usize] as usize;
            sys.spawn(client_dom, 0, Some(ports[k].as_port().ad()));
        }
        booted += u64::from(wave);
        waves += 1;
        let outcome = sys.run_to_completion(200_000_000);
        assert_eq!(outcome, RunOutcome::Stopped, "wave {waves} did not finish");
        // Drain the service ports, then retire the wave: its slots are
        // exactly what the next wave grows back into.
        let drained = sys.run_to_quiescence(200_000_000);
        assert_eq!(drained, RunOutcome::Quiescent, "wave {waves} did not drain");
        live_peak = live_peak.max(SpaceMut::live_count(&sys.space));
        leaf_pages_peak = leaf_pages_peak.max(SpaceMut::leaf_pages(&sys.space));
        let retired = sys.retire_terminated();
        assert_eq!(retired, wave, "every wave client must retire");
        // Two full cycles, not one: the hardware gray bit shades on
        // every AD move whether or not a collection is running, so after
        // a wave the retired clients sit Gray. The first cycle's
        // verification scan blackens them (zero reclaimed) and its sweep
        // whitens; only the second cycle — with the mutator stopped, so
        // nothing re-shades — actually reclaims the wave and returns its
        // table slots and arena runs before the next wave allocates.
        collector.collect_full(&mut sys.space).unwrap();
        collector.collect_full(&mut sys.space).unwrap();
    }

    let per_service: Vec<u64> = cells
        .iter()
        .map(|ad| sys.space.read_u64(*ad, 0).unwrap())
        .collect();
    let requests: u64 = per_service.iter().sum();
    assert_eq!(requests, booted, "every request must be delivered");

    MultiTenant {
        processes: booted,
        services,
        wave_size,
        waves,
        requests,
        req_top1: per_service[0],
        req_top8: per_service.iter().take(8).sum(),
        objects_created: sys.space.stats().objects_created,
        capacity_used: (0..SHARDS)
            .map(|k| sys.space.shard(k).table.capacity_used())
            .sum(),
        live_peak,
        live_final: SpaceMut::live_count(&sys.space),
        leaf_pages_peak,
        leaf_pages_final: SpaceMut::leaf_pages(&sys.space),
        reclaimed: collector.stats.reclaimed,
        makespan_cycles: sys.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c1_matches_paper_within_tolerance() {
        let r = c1_domain_switch(50);
        assert!((60.0..=70.0).contains(&r.call_us), "{r:?}");
        assert!(r.pair_avg > r.call_cycles as f64, "{r:?}");
    }

    #[test]
    fn c2_small_segment_near_80us() {
        let rows = c2_allocation();
        let small = &rows[0];
        assert!((74.0..=86.0).contains(&small.us), "{small:?}");
        assert!(rows.last().unwrap().cycles > small.cycles);
    }

    #[test]
    fn c4_typed_equals_untyped_checked_costs_more() {
        let r = c4_port_typing(50);
        // Same message type => bit-identical program => identical cost.
        assert_eq!(r.untyped_cycles_per_op, r.typed_u64_cycles_per_op, "{r:?}");
        // A larger message type differs only by the one-time message
        // allocation (zero-fill), amortized over the loop: the port
        // *operations* are identical.
        assert!(
            (r.untyped_cycles_per_op - r.typed_record_cycles_per_op).abs() < 1.0,
            "{r:?}"
        );
        assert!(r.checked_cycles_per_op > r.untyped_cycles_per_op, "{r:?}");
    }

    #[test]
    fn c6_bulk_beats_gc() {
        let r = c6_local_heaps(64);
        assert!(r.bulk_cycles_per_object < r.gc_cycles_per_object, "{r:?}");
    }

    #[test]
    fn c11_conserves_requests_and_bounds_the_directory() {
        let r = c11_multi_tenant(3_000, 16, 600, 42);
        assert_eq!(r.waves, 5, "{r:?}");
        assert_eq!(r.requests, 3_000, "{r:?}");
        // Zipf(1) over 16 ranks: rank 1 draws ~30% of the traffic and
        // the top eight about 80%.
        assert!(r.req_top8 > r.requests / 2, "{r:?}");
        assert!(r.req_top1 > r.requests / 5, "{r:?}");
        assert!(r.req_top1 < r.requests / 2, "{r:?}");
        // The directory recycles retired slots: the dense high-water
        // mark tracks one wave, not the cumulative population.
        assert!(u64::from(r.capacity_used) < r.objects_created / 2, "{r:?}");
        assert!(
            r.reclaimed >= 2 * (r.processes - u64::from(r.wave_size)),
            "{r:?}"
        );
        assert_eq!(r.leaf_pages_final, r.leaf_pages_peak, "pages never free");
        assert!(
            r.leaf_pages_peak
                <= r.capacity_used
                    .div_ceil(i432_arch::object_table::LEAF_ENTRIES)
                    + 4,
            "{r:?}"
        );
    }

    #[test]
    fn c11_is_deterministic() {
        let a = c11_multi_tenant(1_000, 8, 500, 7);
        let b = c11_multi_tenant(1_000, 8, 500, 7);
        assert_eq!(a, b);
    }

    /// Marking ends only at a verification that sees no fast receive in
    /// flight, and a receiver on another GDP thread pops without a
    /// lock. Beside such a pipeline on 2 threads the daemon still
    /// completes cycles, and every message arrives.
    #[test]
    fn gc_daemon_completes_cycles_beside_a_receiving_pipeline() {
        let mut sys = port_pipeline_system(1, 64, 5_000, 4);
        let collector = Arc::new(Mutex::new(Collector::new()));
        let daemon = install_gc_daemon(&mut sys, Arc::clone(&collector), 16, 128);
        let ps = sys.space.process_mut(daemon).unwrap();
        ps.timeslice = 5_000;
        ps.slice_remaining = 5_000;
        let (sys, outcome) = i432_sim::run_threaded(sys, u64::MAX);
        assert!(
            outcome.completed && outcome.system_errors == 0,
            "{outcome:?}"
        );
        for &p in sys.processes().iter().filter(|&&p| p != daemon) {
            let ps = sys.space.process(p).unwrap();
            assert_eq!(
                (ps.status, ps.fault_code),
                (i432_arch::ProcessStatus::Terminated, 0),
                "{}",
                ps.fault_detail
            );
        }
        let stats = collector.lock().stats;
        assert!(stats.cycles >= 1, "{stats:?}");
    }

    #[test]
    fn c10_filters_recover_everything() {
        let r = c10_destruction_filter(4, 3);
        assert_eq!(r.recovered, 3);
        assert_eq!(r.free_after, 4);
        assert_eq!(r.free_without_filter, 1);
    }
}
