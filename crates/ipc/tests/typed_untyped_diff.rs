//! Typed-vs-untyped port differential (Figure 2's zero-overhead claim,
//! checked through the flight recorder).
//!
//! The same workload pushed through `ipc::typed` and `ipc::untyped`
//! must cost identical simulated cycles and leave identical trace event
//! sequences; the runtime-checked wrapper may differ only by the
//! `type_check` event. Cycle equality holds in both feature
//! configurations; the event-sequence assertions need `--features
//! trace` (without it every arm records the same empty sequence, which
//! the asserts still accept).

use i432_arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_SRO};
use i432_arch::{
    AccessDescriptor, ObjectRef, ObjectSpec, ObjectType, PortDiscipline, Rights, ShardedSpace,
    SysState, SystemType, TdoState,
};
use i432_gdp::isa::{AluOp, DataDst, DataRef, Instruction};
use i432_gdp::ProgramBuilder;
use i432_sim::{RunOutcome, System, SystemConfig};
use i432_trace::EventKind;
use imax_ipc::{untyped, CheckedPort, PortMessage, TypedPort};

/// Drained `(kind, obj)` pairs in merged order — cycle stamps are all
/// zero for host-level operations, so the per-ring sequence keeps the
/// emission order.
fn drained_kinds() -> Vec<(EventKind, u32)> {
    i432_trace::drain_timeline()
        .events
        .into_iter()
        .map(|e| (e.kind, e.obj))
        .collect()
}

fn fresh_space() -> ShardedSpace {
    ShardedSpace::new(64 * 1024, 8 * 1024, 1024, 1)
}

// -- Host-level arms ---------------------------------------------------------

const ROUNDS: u64 = 32;

/// The untyped arm: marshal into a fresh object, send, receive, read
/// back — exactly what `TypedPort::send`/`receive` expand to.
fn run_untyped(s: &mut ShardedSpace) -> Vec<u64> {
    let root = s.root_sro();
    let prt = untyped::create_port(s, root, 4, PortDiscipline::Fifo).unwrap();
    let mut got = Vec::new();
    for i in 0..ROUNDS {
        let obj = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let ad = s.mint(obj, Rights::READ | Rights::WRITE);
        s.write_u64(ad, 0, i * 3).unwrap();
        untyped::send(s, prt, ad).unwrap();
        let back = untyped::receive(s, prt).unwrap().unwrap();
        got.push(s.read_u64(back, 0).unwrap());
    }
    got
}

/// The typed arm: the `Typed_Ports` instance for `u64` over the same
/// workload.
fn run_typed(s: &mut ShardedSpace) -> Vec<u64> {
    let root = s.root_sro();
    let prt: TypedPort<u64> = TypedPort::create(s, root, 4, PortDiscipline::Fifo).unwrap();
    let mut got = Vec::new();
    for i in 0..ROUNDS {
        prt.send(s, root, &(i * 3)).unwrap();
        got.push(prt.receive(s).unwrap().unwrap());
    }
    got
}

#[test]
fn typed_arm_emits_exactly_the_untyped_event_sequence() {
    let _guard = i432_trace::test_guard();

    i432_trace::reset();
    i432_trace::set_context(0, 0);
    let mut a = fresh_space();
    let got_untyped = run_untyped(&mut a);
    let ev_untyped = drained_kinds();

    i432_trace::reset();
    i432_trace::set_context(0, 0);
    let mut b = fresh_space();
    let got_typed = run_typed(&mut b);
    let ev_typed = drained_kinds();

    assert_eq!(got_untyped, got_typed, "payloads round-trip identically");
    assert_eq!(
        ev_untyped, ev_typed,
        "Figure 2: the typed instance is byte-for-byte the untyped code, \
         so the flight recorder cannot tell the arms apart"
    );
    if i432_trace::ENABLED {
        // Non-vacuity: the sequence really contains the port traffic.
        let sends = ev_untyped
            .iter()
            .filter(|(k, _)| *k == EventKind::PortSend)
            .count() as u64;
        assert_eq!(sends, ROUNDS);
    }
}

#[test]
fn checked_arm_differs_only_by_type_check_events() {
    let _guard = i432_trace::test_guard();

    // Both arms share one space layout: a TDO plus per-round typed
    // instances, so object indices (and thus trace operands) line up.
    fn space_with_tdo() -> (ShardedSpace, ObjectRef) {
        let mut s = fresh_space();
        let root = s.root_sro();
        let tdo = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::TDO_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::TypeDefinition),
                    level: None,
                    sys: SysState::TypeDef(TdoState::new("parcel")),
                },
            )
            .unwrap();
        (s, tdo)
    }
    fn instance(s: &mut ShardedSpace, tdo: ObjectRef, v: u64) -> AccessDescriptor {
        let root = s.root_sro();
        let o = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 8,
                    access_len: 0,
                    otype: ObjectType::User(tdo),
                    level: None,
                    sys: SysState::Generic,
                },
            )
            .unwrap();
        let ad = s.mint(o, Rights::READ | Rights::WRITE);
        s.write_u64(ad, 0, v).unwrap();
        ad
    }

    i432_trace::reset();
    i432_trace::set_context(0, 0);
    let (mut a, tdo_a) = space_with_tdo();
    {
        let root = a.root_sro();
        let prt = untyped::create_port(&mut a, root, 4, PortDiscipline::Fifo).unwrap();
        for i in 0..ROUNDS {
            let msg = instance(&mut a, tdo_a, i);
            untyped::send(&mut a, prt, msg).unwrap();
            untyped::receive(&mut a, prt).unwrap().unwrap();
        }
    }
    let ev_untyped = drained_kinds();

    i432_trace::reset();
    i432_trace::set_context(0, 0);
    let (mut b, tdo_b) = space_with_tdo();
    {
        let root = b.root_sro();
        let raw = untyped::create_port(&mut b, root, 4, PortDiscipline::Fifo).unwrap();
        let prt = CheckedPort::bind(raw, tdo_b);
        for i in 0..ROUNDS {
            let msg = instance(&mut b, tdo_b, i);
            prt.send(&mut b, msg).unwrap();
            prt.receive(&mut b).unwrap().unwrap();
        }
    }
    let ev_checked = drained_kinds();

    let ev_checked_minus_tc: Vec<_> = ev_checked
        .iter()
        .copied()
        .filter(|(k, _)| *k != EventKind::TypeCheck)
        .collect();
    assert_eq!(
        ev_untyped, ev_checked_minus_tc,
        "the checked wrapper adds type_check events and nothing else"
    );
    if i432_trace::ENABLED {
        // "A few more generated instructions": one check per send and one
        // per successful receive.
        let checks = ev_checked
            .iter()
            .filter(|(k, _)| *k == EventKind::TypeCheck)
            .count() as u64;
        assert_eq!(checks, 2 * ROUNDS);
    }
}

// -- GDP-level cycle equality -------------------------------------------------

/// The instruction stream a `Typed_Ports` instance compiles to (the C4
/// benchmark's loop): monomorphization yields the same instructions for
/// every `M`.
fn send_receive_loop<M: PortMessage>(rounds: u64) -> Vec<Instruction> {
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(rounds), DataDst::Local(0));
    p.create_object(
        CTX_SLOT_SRO as u16,
        DataRef::Imm(M::DATA_LEN as u64),
        DataRef::Imm(M::ACCESS_LEN as u64),
        5,
    );
    p.bind(top);
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

fn run_program(code: Vec<Instruction>) -> (u64, Vec<(EventKind, u32)>) {
    run_program_queued(code, false)
}

/// [`run_program`] with the port-ring registry armed when `queue` is
/// true, so the SEND/RECEIVE instructions take the lock-free fast path
/// whenever the port's ring is open.
fn run_program_queued(code: Vec<Instruction>, queue: bool) -> (u64, Vec<(EventKind, u32)>) {
    i432_trace::reset();
    i432_trace::set_context(0, 0);
    let mut sys = System::new(&SystemConfig::small());
    if queue {
        sys.space.port_ring_registry().set_enabled(true);
    }
    let root = sys.space.root_sro();
    let port = untyped::create_port(&mut sys.space, root, 4, PortDiscipline::Fifo).unwrap();
    sys.anchor(port.ad());
    let sub = sys.subprogram("loop", code, 64, 12);
    let dom = sys.install_domain("app", vec![sub], 0);
    let proc_ref = sys.spawn(dom, 0, Some(port.ad()));
    let outcome = sys.run_to_completion(100_000_000);
    assert_eq!(outcome, RunOutcome::Stopped);
    let cycles = sys.space.process(proc_ref).unwrap().total_cycles;
    let events = i432_trace::drain_timeline()
        .events
        .into_iter()
        .map(|e| (e.kind, e.obj))
        .collect();
    (cycles, events)
}

#[test]
fn gdp_cycles_and_events_identical_across_typed_instances() {
    let _guard = i432_trace::test_guard();
    let (untyped_cycles, untyped_events) = run_program(send_receive_loop::<u64>(64));
    let (typed_u64_cycles, typed_u64_events) = run_program(send_receive_loop::<u64>(64));
    let (typed_rec_cycles, typed_rec_events) = run_program(send_receive_loop::<[u8; 8]>(64));
    assert_eq!(untyped_cycles, typed_u64_cycles);
    assert_eq!(
        untyped_cycles, typed_rec_cycles,
        "every monomorphization executes the identical instruction stream \
         (message sizes are equal, so allocation costs match too)"
    );
    assert_eq!(untyped_events, typed_u64_events);
    assert_eq!(untyped_events, typed_rec_events);
    if i432_trace::ENABLED {
        assert!(
            untyped_events
                .iter()
                .any(|(k, _)| *k == EventKind::PortSend),
            "the traced run saw the port traffic"
        );
    }
    i432_trace::reset();
}

/// The port-ring fast path is zero-overhead on the deterministic
/// runner: the same typed send/receive loop run with the rings armed
/// and with them off must cost the identical simulated cycle count and
/// leave the identical schedule-deterministic event sequence. (The
/// queued run additionally records `port_fast_send`/`port_fast_receive`
/// diagnostics, which are excluded from schedule determinism by
/// construction.)
#[test]
fn queued_fast_path_costs_identical_cycles_on_the_deterministic_runner() {
    let _guard = i432_trace::test_guard();
    let (locked_cycles, locked_events) = run_program_queued(send_receive_loop::<u64>(64), false);
    let (queued_cycles, queued_events) = run_program_queued(send_receive_loop::<u64>(64), true);
    assert_eq!(
        locked_cycles, queued_cycles,
        "the ring may change who holds a message, never what it costs"
    );
    let deterministic = |ev: &[(EventKind, u32)]| {
        ev.iter()
            .copied()
            .filter(|(k, _)| k.is_schedule_deterministic())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        deterministic(&locked_events),
        deterministic(&queued_events),
        "both paths emit the same semantic port events in the same order"
    );
    if i432_trace::ENABLED {
        // Non-vacuity: the queued run really exercised the ring — after
        // the first locked rendezvous reopens it, every following round
        // goes fast.
        assert!(
            queued_events
                .iter()
                .any(|(k, _)| *k == EventKind::PortFastSend),
            "the ring carried traffic in the queued arm"
        );
        assert!(
            locked_events
                .iter()
                .all(|(k, _)| *k != EventKind::PortFastSend),
            "the locked arm never touched a ring"
        );
    }
    i432_trace::reset();
}
