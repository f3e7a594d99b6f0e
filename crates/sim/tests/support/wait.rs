//! Systems for the threaded runner's waiting path, shared by
//! `threaded_wait.rs` and `threaded_wait_trace.rs`.
//!
//! A GDP thread whose processor has nothing to run waits at the
//! dispatching port's doorbell instead of polling the port; these
//! systems give it a long solo run to sit out, a deadlock to detect and
//! a ping-pong whose every wakeup matters.

#![allow(dead_code)]

use i432_arch::{
    sysobj::{CTX_SLOT_ARG, CTX_SLOT_SRO},
    ObjectRef, ObjectSpec, ObjectType, PortDiscipline, PortState, Rights, SysState, SystemType,
};
use i432_gdp::{process::ProcessSpec, AluOp, DataDst, DataRef, ProgramBuilder};
use i432_sim::{System, SystemConfig};

/// Iterations of [`one_loop`]'s loop.
pub const LOOP_ITERATIONS: u64 = 20_000;
/// Instructions [`one_loop`]'s process executes: a MOV, a SUB, a
/// READ-CLOCK and a JUMP-IF per iteration, and a HALT. No two of them
/// fuse, so each takes one step.
pub const LOOP_INSTRUCTIONS: u64 = 3 * LOOP_ITERATIONS + 2;

/// Round trips [`ping_pong`] makes.
pub const ROUND_TRIPS: u64 = 500;

/// A FIFO port with room for `capacity` messages, anchored so the
/// collector's roots reach it.
fn port(sys: &mut System, capacity: u32) -> ObjectRef {
    let root = sys.space.root_sro();
    let port = sys
        .space
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: PortState::access_slots(capacity, 4),
                otype: ObjectType::System(SystemType::Port),
                level: None,
                sys: SysState::Port(PortState::new(capacity, 4, PortDiscipline::Fifo)),
            },
        )
        .unwrap();
    sys.anchor(sys.space.mint(port, Rights::SEND | Rights::RECEIVE));
    port
}

/// Spawns a process running `p` with `arg` and a time slice it never
/// exhausts, so it leaves its processor only by blocking or exiting.
fn spawn(sys: &mut System, name: &str, p: ProgramBuilder, arg: Option<ObjectRef>) -> ObjectRef {
    let sub = sys.subprogram(name, p.finish(), 64, 8);
    let dom = sys.install_domain(name, vec![sub], 0);
    let arg = arg.map(|a| {
        sys.space
            .mint(a, Rights::READ | Rights::SEND | Rights::RECEIVE)
    });
    let spec = ProcessSpec {
        timeslice: u64::MAX / 2,
        ..ProcessSpec::new(sys.dispatch_ad())
    };
    sys.spawn_with(dom, 0, arg, spec)
}

/// `cpus` processors and one process counting down a
/// [`LOOP_ITERATIONS`]-iteration loop: every other processor has nothing
/// to run for the whole run.
pub fn one_loop(cpus: u32) -> System {
    let mut sys = System::new(&SystemConfig::small().with_processors(cpus).with_shards(4));
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(LOOP_ITERATIONS), DataDst::Local(0));
    p.bind(top);
    p.alu(
        AluOp::Sub,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    // Neither the first nor the second half of a fused pair.
    p.read_clock(DataDst::Local(8));
    p.jump_if_nonzero(DataRef::Local(0), top);
    p.halt();
    spawn(&mut sys, "loop", p, None);
    sys
}

/// `cpus` processors and as many processes, each looping forever: the
/// run ends only when its step budget is spent.
pub fn spinners(cpus: u32) -> System {
    let mut sys = System::new(&SystemConfig::small().with_processors(cpus).with_shards(4));
    for _ in 0..cpus {
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.bind(top);
        p.work(1);
        p.jump(top);
        spawn(&mut sys, "spin", p, None);
    }
    sys
}

/// `cpus` processors and two processes that each RECEIVE on their own
/// port, to which no one sends.
pub fn deadlocked(cpus: u32) -> System {
    let mut sys = System::new(&SystemConfig::small().with_processors(cpus).with_shards(4));
    for name in ["left", "right"] {
        let silent = port(&mut sys, 4);
        let mut p = ProgramBuilder::new();
        p.receive(CTX_SLOT_ARG as u16, 4).halt();
        spawn(&mut sys, name, p, Some(silent));
    }
    sys
}

/// `cpus` processors and two processes passing one message back and
/// forth [`ROUND_TRIPS`] times over two capacity-1 FIFO ports. The
/// ponger blocks on every ping. The pinger's SEND makes it ready, and
/// then the pinger busy-waits for the pong with CONDITIONAL RECEIVE,
/// keeping its processor, so every round trip needs a waiting GDP thread
/// to see the doorbell and dispatch the ponger: after a lost wakeup the
/// pinger spins forever.
pub fn ping_pong(cpus: u32) -> System {
    let mut sys = System::new(&SystemConfig::small().with_processors(cpus).with_shards(4));
    let (ping, pong) = (port(&mut sys, 1), port(&mut sys, 1));
    let root = sys.space.root_sro();
    let pair = sys
        .space
        .create_object(root, ObjectSpec::generic(0, 2))
        .unwrap();
    for (slot, p) in [(0, ping), (1, pong)] {
        let ad = sys.space.mint(p, Rights::SEND | Rights::RECEIVE);
        sys.space.store_ad_hw(pair, slot, Some(ad)).unwrap();
    }
    sys.anchor(sys.space.mint(pair, Rights::READ));

    let arg = CTX_SLOT_ARG as u16;
    let (ping_slot, pong_slot, msg) = (4, 5, 6);
    let count_down = |p: &mut ProgramBuilder, top| {
        p.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), top);
        p.halt();
    };

    let mut pinger = ProgramBuilder::new();
    pinger.load_ad(arg, DataRef::Imm(0), ping_slot);
    pinger.load_ad(arg, DataRef::Imm(1), pong_slot);
    pinger.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(8), DataRef::Imm(0), msg);
    pinger.mov(DataRef::Imm(ROUND_TRIPS), DataDst::Local(0));
    let top = pinger.new_label();
    pinger.bind(top);
    pinger.send(ping_slot, msg);
    let poll = pinger.new_label();
    pinger.bind(poll);
    pinger.cond_receive(pong_slot, msg, DataDst::Local(8));
    pinger.jump_if_zero(DataRef::Local(8), poll);
    count_down(&mut pinger, top);
    spawn(&mut sys, "pinger", pinger, Some(pair));

    let mut ponger = ProgramBuilder::new();
    ponger.load_ad(arg, DataRef::Imm(0), ping_slot);
    ponger.load_ad(arg, DataRef::Imm(1), pong_slot);
    ponger.mov(DataRef::Imm(ROUND_TRIPS), DataDst::Local(0));
    let top = ponger.new_label();
    ponger.bind(top);
    ponger.receive(ping_slot, msg);
    ponger.send(pong_slot, msg);
    count_down(&mut ponger, top);
    spawn(&mut sys, "ponger", ponger, Some(pair));
    sys
}
