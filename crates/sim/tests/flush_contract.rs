//! Every return from `System::run_until` leaves the space exactly as an
//! uncached processor would.
//!
//! `System` runs its processors with the binding-register cache: between
//! binding changes, the bound process's ip, remaining slice and cycle
//! count, and its processor's busy cycles, live in the GDP. Each case
//! below runs a one-processor system, stops it one way, and steps a bare
//! uncached `Gdp` over a copy of the same space, code, cost model and bus
//! for the same number of steps. The accounting must then be equal on
//! both sides.

use i432_arch::{
    sysobj::PROC_SLOT_CONTEXT, AccessDescriptor, ObjectRef, ObjectSpec, ObjectType, PortDiscipline,
    PortState, Rights, ShardedSpace, SysState, SystemType,
};
use i432_gdp::{
    context::context_state, process::ProcessSpec, AluOp, DataDst, DataRef, Env, Gdp,
    ProgramBuilder, StepEvent,
};
use i432_sim::{InterleavedBus, RunOutcome, System, SystemConfig};

/// How the worker's compute loop ends.
#[derive(Clone, Copy)]
enum Tail {
    /// RECEIVE on an empty port: the process blocks, the system quiesces.
    Block,
    /// A fault its system level may not tolerate: the processor halts.
    Fault,
}

/// The uncached side: its own copy of the space and bus.
struct Reference {
    space: ShardedSpace,
    bus: InterleavedBus,
    gdp: Gdp,
}

/// Process `ip`, `total_cycles`, `slice_remaining`, then processor busy
/// and idle cycles, and the local clock.
type Accounting = (u32, u64, u64, u64, u64, u64);

fn accounting(space: &mut ShardedSpace, p: ObjectRef, cpu: ObjectRef, clock: u64) -> Accounting {
    let ctx = space
        .load_ad_hw(p, PROC_SLOT_CONTEXT)
        .unwrap()
        .expect("process keeps its context")
        .obj;
    let ip = context_state(space, ctx).unwrap().ip;
    let ps = space.process(p).unwrap();
    let (total, slice) = (ps.total_cycles, ps.slice_remaining);
    let cpu = space.processor(cpu).unwrap();
    (ip, total, slice, cpu.busy_cycles, cpu.idle_cycles, clock)
}

/// A one-processor system running a 100-iteration compute loop (long
/// enough to end several time slices) followed by `tail`, and the
/// uncached reference over a copy of it.
fn setup(tail: Tail) -> (System, ObjectRef, Reference) {
    let mut sys = System::new(&SystemConfig::small());
    let root = sys.space.root_sro();
    let port = sys
        .space
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: PortState::access_slots(4, 4),
                otype: ObjectType::System(SystemType::Port),
                level: None,
                sys: SysState::Port(PortState::new(4, 4, PortDiscipline::Fifo)),
            },
        )
        .unwrap();
    let port_ad: AccessDescriptor = sys.space.mint(port, Rights::SEND | Rights::RECEIVE);
    sys.anchor(port_ad);

    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(100), DataDst::Local(0));
    p.bind(top);
    p.work(1_000);
    p.alu(
        AluOp::Sub,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    p.jump_if_nonzero(DataRef::Local(0), top);
    match tail {
        Tail::Block => p.receive(3, 4),
        Tail::Fault => p.raise_fault(1),
    };
    p.halt();
    let sub = sys.subprogram("loop", p.finish(), 64, 8);
    let dom = sys.install_domain("worker", vec![sub], 0);
    let spec = ProcessSpec {
        sys_level: 1,
        ..ProcessSpec::new(sys.dispatch_ad())
    };
    let proc_ref = sys.spawn_with(dom, 0, Some(port_ad), spec);

    let reference = Reference {
        space: sys.space.clone(),
        bus: sys.bus.clone(),
        gdp: Gdp::new(sys.processors()[0]),
    };
    (sys, proc_ref, reference)
}

/// Brings the reference up to the system's step count, then compares.
fn assert_flushed(sys: &mut System, p: ObjectRef, reference: &mut Reference, done: &mut u64) {
    for _ in *done..sys.steps() {
        let mut env = Env {
            space: &mut reference.space,
            code: &sys.code,
            natives: &sys.natives,
            bus: &mut reference.bus,
            cost: sys.cost,
        };
        reference.gdp.step(&mut env);
    }
    *done = sys.steps();
    let (cpu, now) = (sys.processors()[0], sys.now());
    let cached = accounting(&mut sys.space, p, cpu, now);
    let uncached = accounting(&mut reference.space, p, cpu, reference.gdp.clock);
    assert_eq!(cached, uncached, "(ip, total, slice, busy, idle, clock)");
}

#[test]
fn stop_predicate_mid_run_flushes() {
    let (mut sys, p, mut reference) = setup(Tail::Block);
    let mut done = 0;
    let mut executed = 0;
    let outcome = sys.run_until(1_000_000, |_, e| {
        executed += matches!(e, StepEvent::Executed { .. }) as u32;
        executed == 25
    });
    assert_eq!(outcome, RunOutcome::Stopped);
    assert_flushed(&mut sys, p, &mut reference, &mut done);
    // Resuming after the write-back re-reads the registers.
    assert_eq!(sys.run_to_quiescence(1_000_000), RunOutcome::Quiescent);
    assert_flushed(&mut sys, p, &mut reference, &mut done);
}

#[test]
fn quiescence_flushes() {
    let (mut sys, p, mut reference) = setup(Tail::Block);
    let mut done = 0;
    assert_eq!(sys.run_to_quiescence(1_000_000), RunOutcome::Quiescent);
    assert_flushed(&mut sys, p, &mut reference, &mut done);
}

#[test]
fn budget_exhaustion_flushes() {
    let (mut sys, p, mut reference) = setup(Tail::Block);
    let mut done = 0;
    for _ in 0..3 {
        assert_eq!(sys.run_to_quiescence(77), RunOutcome::BudgetExhausted);
        assert_flushed(&mut sys, p, &mut reference, &mut done);
    }
}

#[test]
fn system_error_flushes() {
    let (mut sys, p, mut reference) = setup(Tail::Fault);
    let mut done = 0;
    let outcome = sys.run_to_quiescence(1_000_000);
    assert!(matches!(outcome, RunOutcome::SystemError(_)), "{outcome:?}");
    assert_flushed(&mut sys, p, &mut reference, &mut done);
}
