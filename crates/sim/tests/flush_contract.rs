//! Every return from `System::run_until` leaves the space exactly as an
//! uncached processor would.
//!
//! `System` runs its processors with the binding-register cache: between
//! binding changes, the bound process's ip, remaining slice and cycle
//! count, and its processor's busy cycles, live in the GDP. Port
//! instructions keep them there too unless they block, when the section
//! that parks the process writes them back. Each case below runs a
//! one-processor system, stops it one way, and steps a bare uncached
//! `Gdp` over a copy of the same space, code, cost model and bus for the
//! same number of steps. The accounting must then be equal on both
//! sides.

use i432_arch::{
    sysobj::{CTX_SLOT_ARG, CTX_SLOT_SRO, PROC_SLOT_CONTEXT},
    AccessDescriptor, ObjectRef, ObjectSpec, ObjectType, PortDiscipline, PortState, ProcessStatus,
    Rights, ShardedSpace, SysState, SystemType,
};
use i432_gdp::{
    context::context_state, process::ProcessSpec, AluOp, DataDst, DataRef, Env, FaultKind, Gdp,
    GdpMode, ProgramBuilder, StepEvent,
};
use i432_sim::{InterleavedBus, RunOutcome, System, SystemConfig};

/// What each of the worker's 100 loop iterations does.
#[derive(Clone, Copy)]
enum Body {
    /// Local compute only.
    Compute,
    /// Port traffic: CREATE-OBJECT at ip 1, a SEND of the new object to
    /// the worker's own port at ip 2 and a RECEIVE back at ip 3 (neither
    /// blocks), and a COND-RECEIVE on the now empty port at ip 4.
    Ports,
}

/// How the worker's loop ends.
#[derive(Clone, Copy)]
enum Tail {
    /// RECEIVE on an empty port: the process blocks, the system quiesces.
    Block,
    /// Five SENDs to the four-message port: the last one blocks.
    BlockSend,
    /// A fault its system level may not tolerate: the processor halts.
    Fault,
    /// RECEIVE-TIMEOUT on an empty port: the process blocks until the
    /// timer expires, then ends with a timeout fault, the only fault its
    /// system level tolerates.
    Timeout,
    /// SEND through the port descriptor restricted to RECEIVE: a rights
    /// fault the worker's system level tolerates.
    SendWithoutRights,
}

/// Where [`Tail::SendWithoutRights`] puts its SEND after a
/// [`Body::Ports`] loop: the loop takes ip 0..=7, the RESTRICT ip 8.
const UNRIGHTED_SEND_IP: u32 = 9;

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

/// A one-processor system running a 100-iteration loop (long enough to
/// end several time slices) followed by `tail`, and the uncached
/// reference over a copy of it.
fn setup(body: Body, tail: Tail) -> (System, ObjectRef, Reference) {
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

    let arg = CTX_SLOT_ARG as u16;
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(100), DataDst::Local(0));
    p.bind(top);
    if let Body::Ports = body {
        p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(16), DataRef::Imm(0), 4);
        p.send(arg, 4);
        p.receive(arg, 5);
        p.cond_receive(arg, 6, DataDst::Local(16));
    }
    p.work(1_000);
    p.alu(
        AluOp::Sub,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    p.jump_if_nonzero(DataRef::Local(0), top);
    match tail {
        Tail::Block => p.receive(arg, 4),
        Tail::BlockSend => {
            p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(16), DataRef::Imm(0), 4);
            (0..5).fold(&mut p, |p, _| p.send(arg, 4))
        }
        Tail::Fault => p.raise_fault(1),
        Tail::Timeout => p.receive_timeout(arg, 4, DataRef::Imm(100)),
        Tail::SendWithoutRights => p.restrict(arg, Rights::RECEIVE).send(arg, 4),
    };
    p.halt();
    let sub = sys.subprogram("loop", p.finish(), 64, 8);
    let dom = sys.install_domain("worker", vec![sub], 0);
    let spec = ProcessSpec {
        // The lowest level that tolerates the tail's own fault, so any
        // other fault halts the processor and fails the case.
        sys_level: match tail {
            Tail::Block | Tail::BlockSend | Tail::Fault => 1,
            Tail::Timeout => 2,
            Tail::SendWithoutRights => 3,
        },
        ..ProcessSpec::new(sys.dispatch_ad())
    };
    let proc_ref = sys.spawn_with(dom, 0, Some(port_ad), spec);

    let reference = Reference {
        space: sys.space.clone(),
        bus: sys.bus.clone(),
        gdp: Gdp::new(sys.processors()[0], GdpMode::Locked),
    };
    (sys, proc_ref, reference)
}

/// Brings the reference up to the system's step count, then compares.
/// Returns the (equal) accounting.
fn assert_flushed(
    sys: &mut System,
    p: ObjectRef,
    reference: &mut Reference,
    done: &mut u64,
) -> Accounting {
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
    cached
}

/// Runs until `n` more instructions have executed.
fn run_instructions(sys: &mut System, n: u32) -> RunOutcome {
    let mut executed = 0;
    sys.run_until(1_000_000, |_, e| {
        executed += matches!(e, StepEvent::Executed { .. }) as u32;
        executed == n
    })
}

#[test]
fn stop_predicate_mid_run_flushes() {
    let (mut sys, p, mut reference) = setup(Body::Compute, Tail::Block);
    let mut done = 0;
    assert_eq!(run_instructions(&mut sys, 25), RunOutcome::Stopped);
    assert_flushed(&mut sys, p, &mut reference, &mut done);
    // Resuming after the write-back re-reads the registers.
    assert_eq!(sys.run_to_quiescence(1_000_000), RunOutcome::Quiescent);
    assert_flushed(&mut sys, p, &mut reference, &mut done);
    let status = sys.space.process(p).unwrap().status;
    assert_eq!(status, ProcessStatus::BlockedReceive);
}

#[test]
fn quiescence_flushes() {
    let (mut sys, p, mut reference) = setup(Body::Compute, Tail::Block);
    let mut done = 0;
    assert_eq!(sys.run_to_quiescence(1_000_000), RunOutcome::Quiescent);
    assert_flushed(&mut sys, p, &mut reference, &mut done);
    let status = sys.space.process(p).unwrap().status;
    assert_eq!(status, ProcessStatus::BlockedReceive);
}

#[test]
fn budget_exhaustion_flushes() {
    let (mut sys, p, mut reference) = setup(Body::Compute, Tail::Block);
    let mut done = 0;
    for _ in 0..3 {
        assert_eq!(sys.run_to_quiescence(77), RunOutcome::BudgetExhausted);
        assert_flushed(&mut sys, p, &mut reference, &mut done);
    }
}

#[test]
fn system_error_flushes() {
    let (mut sys, p, mut reference) = setup(Body::Compute, Tail::Fault);
    let mut done = 0;
    let outcome = sys.run_to_quiescence(1_000_000);
    assert!(matches!(outcome, RunOutcome::SystemError(_)), "{outcome:?}");
    assert_flushed(&mut sys, p, &mut reference, &mut done);
}

#[test]
fn port_traffic_is_written_back() {
    let (mut sys, p, mut reference) = setup(Body::Ports, Tail::Timeout);
    let mut done = 0;
    // The first iteration's SEND is the third instruction; stop right
    // after it, the RECEIVE and the COND-RECEIVE.
    for (n, ip) in [(3, 3), (1, 4), (1, 5)] {
        assert_eq!(run_instructions(&mut sys, n), RunOutcome::Stopped);
        let (at, ..) = assert_flushed(&mut sys, p, &mut reference, &mut done);
        assert_eq!(at, ip);
    }
    // Right after the RECEIVE-TIMEOUT blocks.
    let outcome = sys.run_until(1_000_000, |_, e| matches!(e, StepEvent::Blocked(_)));
    assert_eq!(outcome, RunOutcome::Stopped);
    assert_flushed(&mut sys, p, &mut reference, &mut done);
    // Each idle poll quiesces the system until the timer expires.
    for _ in 0..100 {
        if sys.space.process(p).unwrap().status != ProcessStatus::BlockedReceive {
            break;
        }
        assert_eq!(sys.run_to_quiescence(1_000_000), RunOutcome::Quiescent);
        assert_flushed(&mut sys, p, &mut reference, &mut done);
    }
    let ps = sys.space.process(p).unwrap();
    assert_eq!(
        ps.fault_code,
        FaultKind::Timeout.code(),
        "the timer expired"
    );
}

#[test]
fn tolerated_port_fault_flushes() {
    let (mut sys, p, mut reference) = setup(Body::Ports, Tail::SendWithoutRights);
    let mut done = 0;
    let outcome = sys.run_until(1_000_000, |_, e| {
        matches!(e, StepEvent::ProcessFaulted { .. })
    });
    assert_eq!(outcome, RunOutcome::Stopped);
    let (ip, ..) = assert_flushed(&mut sys, p, &mut reference, &mut done);
    assert_eq!(ip, UNRIGHTED_SEND_IP, "ip names the faulting SEND");
    let ps = sys.space.process(p).unwrap();
    assert_eq!(ps.fault_code, FaultKind::Rights.code());
}

/// A port instruction that blocks is charged inside the section that
/// parks its process, into the registers written back there: right
/// after a SEND and a RECEIVE block, the cached side's accounting is
/// the uncached one's.
#[test]
fn a_blocking_instruction_is_charged_where_it_parks() {
    // The loop takes ip 0..=3: the blocking SEND is at ip 9, after the
    // CREATE-OBJECT and four SENDs, and the blocking RECEIVE at ip 4.
    for (tail, ip, status) in [
        (Tail::BlockSend, 10, ProcessStatus::BlockedSend),
        (Tail::Block, 5, ProcessStatus::BlockedReceive),
    ] {
        let (mut sys, p, mut reference) = setup(Body::Compute, tail);
        let mut done = 0;
        let outcome = sys.run_until(1_000_000, |_, e| matches!(e, StepEvent::Blocked(_)));
        assert_eq!(outcome, RunOutcome::Stopped);
        let (at, ..) = assert_flushed(&mut sys, p, &mut reference, &mut done);
        assert_eq!(at, ip, "ip is past the blocking instruction");
        assert_eq!(sys.space.process(p).unwrap().status, status);
    }
}
