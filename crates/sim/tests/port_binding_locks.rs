//! Port instructions keep the binding registers.
//!
//! A SEND or RECEIVE that does not block changes no binding, so the
//! cached GDP runs it without writing its registers back and without
//! re-reading processor, process and context on the next step. One
//! processor on the threaded runner passes 2,000 messages from a
//! producer to a consumer through a capacity-64 FIFO port; with a single
//! GDP thread, the flight recorder's shard-lock counts are exact.
//!
//! The recorder's counters are process-global, so this file is its own
//! test binary, and it asserts only when the recorder is compiled in
//! (`--features trace`).

use i432_arch::{
    sysobj::{CTX_SLOT_ARG, CTX_SLOT_SRO},
    ObjectRef, ObjectSpec, ObjectType, PortDiscipline, PortState, Rights, SysState, SystemType,
};
use i432_gdp::{AluOp, DataDst, DataRef, Instruction, ProgramBuilder};
use i432_sim::{run_threaded, System, SystemConfig};
use i432_trace::Counter;

const MESSAGES: u64 = 2_000;
const CAPACITY: u32 = 64;

/// Shard locks per message with the registers kept across port
/// instructions: the run takes 6.41, and took 38.15 when every SEND and
/// RECEIVE wrote them back.
const MAX_LOCKS_PER_MSG: f64 = 8.0;
/// Pair and all-shard acquisitions over the whole run (0.985 and 1.084
/// per message) before port instructions kept the registers: keeping
/// them must not add any.
const MAX_LOCK_PAIRS: u64 = 1_970;
const MAX_LOCK_ALL: u64 = 2_168;

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
