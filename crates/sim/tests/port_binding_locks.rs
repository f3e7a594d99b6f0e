//! Port instructions keep the binding registers, a token hand-off
//! writes only inside the sections that need it, and each fast-path
//! switch turns on the mechanism it names.
//!
//! A SEND or RECEIVE that does not block changes no binding, so the
//! cached GDP runs it without writing its registers back and without
//! re-reading processor, process and context on the next step. One
//! processor on the threaded runner passes 2,000 messages from a
//! producer to a consumer through a capacity-64 FIFO port; with a single
//! GDP thread, the flight recorder's shard-lock counts are exact. A
//! token mutex on one processor pins the locks of a hand-off the same
//! way.
//!
//! The same workload runs once per configuration in
//! [`FastPaths::EVERY`], and the recorder's hit counters show which
//! mechanisms ran: fusion only for the fused GDP, port-site inline
//! caches only for the fused GDP with rings to cache,
//! qualification-cache hits for every GDP but the locked one, and ring
//! operations only with the port rings on. Every arm is
//! digest-identical, so the conformance oracle alone would stay green
//! if two switches were wired to the wrong mechanisms.
//!
//! The recorder's counters are process-global, so this file is its own
//! test binary, and it asserts only when the recorder is compiled in
//! (`--features trace`).

use i432_arch::{
    sysobj::{CTX_SLOT_ARG, CTX_SLOT_SRO, PROC_SLOT_CONTEXT},
    AccessDescriptor, ObjectRef, ObjectSpec, ObjectType, PortDiscipline, PortState, Rights,
    SysState, SystemType,
};
use i432_gdp::{AluOp, DataDst, DataRef, GdpMode, Instruction, ProgramBuilder};
use i432_sim::{run_threaded, run_threaded_with, FastPaths, System, SystemConfig};
use i432_trace::Counter;

const MESSAGES: u64 = 2_000;
const CAPACITY: u32 = 64;

/// Shard locks per message with the registers kept across port
/// instructions: the run takes 4.93 (5.36 before a dispatch bound the
/// process in its own section), and took 38.15 when every SEND and
/// RECEIVE wrote them back.
const MAX_LOCKS_PER_MSG: f64 = 6.0;
/// Pair and all-shard acquisitions over the whole run (0.985 and 1.084
/// per message) before port instructions kept the registers: keeping
/// them must not add any.
const MAX_LOCK_PAIRS: u64 = 1_970;
const MAX_LOCK_ALL: u64 = 2_168;

/// Single-shard locks per critical section of a token hand-off: the
/// run takes 5.22 (the descriptor loads of the RECEIVE, the SEND and
/// the two field operands), and took 17.50 when the dispatch read and
/// charged the processor outside its section, the next step re-read
/// the binding registers and the blocking instruction was charged after
/// its parking section.
const MAX_LOCKS_PER_SECTION: f64 = 6.0;
/// All-shard sections per critical section of a token hand-off: the
/// RECEIVE that blocks, the SEND that wakes the next holder and the
/// dispatch that binds it.
const MAX_ALL_PER_SECTION: f64 = 3.0;

/// A producer/consumer pair on one processor, shaped like the `pipeline`
/// benchmark: each loop iteration moves one message and does a little
/// local work.
fn pipeline() -> (System, ObjectRef) {
    let mut sys = System::new(&SystemConfig::small().with_processors(1).with_shards(4));
    let root = sys.space.root_sro();
    let port = sys
        .space
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: PortState::access_slots(CAPACITY, 4),
                otype: ObjectType::System(SystemType::Port),
                level: None,
                sys: SysState::Port(PortState::new(CAPACITY, 4, PortDiscipline::Fifo)),
            },
        )
        .unwrap();
    let port_ad = sys.space.mint(port, Rights::SEND | Rights::RECEIVE);
    sys.anchor(port_ad);

    let port_slot = CTX_SLOT_ARG as u16;
    let mut tx = ProgramBuilder::new();
    tx.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(16), DataRef::Imm(0), 5);
    counted_loop(
        &mut tx,
        Instruction::Send {
            port: port_slot,
            msg: 5,
            key: DataRef::Local(0),
        },
    );
    let mut rx = ProgramBuilder::new();
    counted_loop(
        &mut rx,
        Instruction::Receive {
            port: port_slot,
            dst: 6,
        },
    );
    let tx = sys.subprogram("tx", tx.finish(), 64, 8);
    let rx = sys.subprogram("rx", rx.finish(), 64, 8);
    let dom = sys.install_domain("pipe", vec![tx, rx], 0);
    sys.spawn(dom, 0, Some(port_ad));
    sys.spawn(dom, 1, Some(port_ad));
    (sys, port)
}

/// Appends a `MESSAGES`-iteration loop around `port_op`, then HALT.
fn counted_loop(p: &mut ProgramBuilder, port_op: Instruction) {
    let top = p.new_label();
    p.mov(DataRef::Imm(0), DataDst::Local(0));
    p.bind(top);
    p.push(port_op);
    p.work(30);
    p.alu(
        AluOp::Add,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    p.alu(
        AluOp::Lt,
        DataRef::Local(0),
        DataRef::Imm(MESSAGES),
        DataDst::Local(8),
    );
    p.jump_if_nonzero(DataRef::Local(8), top);
    p.halt();
}

#[test]
fn port_traffic_keeps_shard_locks_per_message_low() {
    if !i432_trace::ENABLED {
        return;
    }
    let _guard = i432_trace::test_guard();
    let (sys, port) = pipeline();
    i432_trace::reset();
    let (sys, outcome) = run_threaded(sys, u64::MAX);
    let counts = i432_trace::snapshot();
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "{outcome:?}"
    );
    let stats = sys.space.port(port).unwrap().stats;
    assert_eq!((stats.sends, stats.receives), (MESSAGES, MESSAGES));

    let locks = counts.get(Counter::ShardLocks) as f64 / MESSAGES as f64;
    assert!(
        locks <= MAX_LOCKS_PER_MSG,
        "{locks:.2} shard locks per message (at most {MAX_LOCKS_PER_MSG})"
    );
    let (pairs, all) = (
        counts.get(Counter::ShardLockPairs),
        counts.get(Counter::ShardLockAll),
    );
    assert!(pairs <= MAX_LOCK_PAIRS, "{pairs} pair locks");
    assert!(all <= MAX_LOCK_ALL, "{all} all-shard locks");
}

/// Workers contending for the token, and the critical sections each
/// runs.
const WORKERS: u32 = 4;
const ROUNDS: u64 = 500;

/// `WORKERS` processes on one processor pass one token through a
/// capacity-1 FIFO port, shaped like the `mutex` benchmark: RECEIVE the
/// token, read a shared cell, work, write it back, SEND the token. Once
/// a worker is preempted holding the token the others block at the
/// port, and from then on every critical section is a hand-off: the
/// SEND wakes the next worker, the RECEIVE that follows blocks, and the
/// processor dispatches the woken worker.
fn token_mutex() -> (System, AccessDescriptor) {
    let mut sys = System::new(&SystemConfig::small().with_processors(1).with_shards(4));
    let root = sys.space.root_sro();
    let mutex = sys
        .space
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: PortState::access_slots(1, WORKERS),
                otype: ObjectType::System(SystemType::Port),
                level: None,
                sys: SysState::Port(PortState::new(1, WORKERS, PortDiscipline::Fifo)),
            },
        )
        .unwrap();
    let mutex_ad = sys.space.mint(mutex, Rights::SEND | Rights::RECEIVE);
    sys.anchor(mutex_ad);
    let cell = sys
        .space
        .create_object(root, ObjectSpec::generic(8, 0))
        .unwrap();
    let cell_ad = sys.space.mint(cell, Rights::READ | Rights::WRITE);
    sys.anchor(cell_ad);
    let token = sys
        .space
        .create_object(root, ObjectSpec::generic(8, 0))
        .unwrap();
    let token_ad = sys.space.mint(token, Rights::READ);
    i432_gdp::port::send(&mut sys.space, None, mutex_ad, token_ad, 0, false, false).unwrap();

    // Slot 5 holds the shared cell (stored below), slot 6 the token.
    let port_slot = CTX_SLOT_ARG as u16;
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(0), DataDst::Local(0));
    p.bind(top);
    p.receive(port_slot, 6);
    p.mov(DataRef::Field(5, 0), DataDst::Local(8));
    p.work(50);
    p.alu(
        AluOp::Add,
        DataRef::Local(8),
        DataRef::Imm(1),
        DataDst::Local(8),
    );
    p.mov(DataRef::Local(8), DataDst::Field(5, 0));
    p.send(port_slot, 6);
    p.alu(
        AluOp::Add,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    p.alu(
        AluOp::Lt,
        DataRef::Local(0),
        DataRef::Imm(ROUNDS),
        DataDst::Local(16),
    );
    p.jump_if_nonzero(DataRef::Local(16), top);
    p.halt();
    let sub = sys.subprogram("incrementer", p.finish(), 64, 8);
    let dom = sys.install_domain("racers", vec![sub], 0);
    for _ in 0..WORKERS {
        let proc_ref = sys.spawn(dom, 0, Some(mutex_ad));
        let ctx = sys
            .space
            .load_ad_hw(proc_ref, PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap()
            .obj;
        sys.space.store_ad_hw(ctx, 5, Some(cell_ad)).unwrap();
    }
    (sys, cell_ad)
}

#[test]
fn token_hand_off_takes_few_shard_locks() {
    if !i432_trace::ENABLED {
        return;
    }
    let _guard = i432_trace::test_guard();
    let (sys, cell) = token_mutex();
    i432_trace::reset();
    let (mut sys, outcome) = run_threaded(sys, u64::MAX);
    let counts = i432_trace::snapshot();
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "{outcome:?}"
    );
    let sections = u64::from(WORKERS) * ROUNDS;
    assert_eq!(sys.space.read_u64(cell, 0), Ok(sections), "lost updates");

    let per = |c| counts.get(c) as f64 / sections as f64;
    let (locks, all) = (per(Counter::ShardLocks), per(Counter::ShardLockAll));
    assert!(
        locks <= MAX_LOCKS_PER_SECTION,
        "{locks:.2} shard locks per critical section (at most {MAX_LOCKS_PER_SECTION})"
    );
    assert!(
        all <= MAX_ALL_PER_SECTION,
        "{all:.2} all-shard sections per critical section (at most {MAX_ALL_PER_SECTION})"
    );
}

#[test]
fn each_fast_path_switch_turns_on_its_mechanism() {
    if !i432_trace::ENABLED {
        return;
    }
    let _guard = i432_trace::test_guard();
    for fast in FastPaths::EVERY {
        let (sys, port) = pipeline();
        i432_trace::reset();
        let (sys, outcome) = run_threaded_with(sys, u64::MAX, fast, Vec::new());
        let counts = i432_trace::snapshot();
        assert!(
            outcome.completed && outcome.system_errors == 0,
            "{fast}: {outcome:?}"
        );
        let stats = sys.space.port(port).unwrap().stats;
        assert_eq!(
            (stats.sends, stats.receives),
            (MESSAGES, MESSAGES),
            "{fast}"
        );

        let ran = |c| counts.get(c) > 0;
        let fused = fast.gdp == GdpMode::Fused;
        assert_eq!(ran(Counter::FusionHits), fused, "{fast}: fusion hits");
        // No fast path memoizes a qualification per call or port site.
        assert!(
            !ran(Counter::IcHits) && !ran(Counter::IcMisses),
            "{fast}: no arm has an inline cache"
        );
        assert_eq!(
            ran(Counter::QualHits),
            fast.gdp != GdpMode::Locked,
            "{fast}: qualification-cache hits"
        );
        let ring_ops = counts.get(Counter::PortFastSends) + counts.get(Counter::PortFastReceives);
        assert_eq!(ring_ops > 0, fast.port_rings, "{fast}: ring operations");
    }
}
