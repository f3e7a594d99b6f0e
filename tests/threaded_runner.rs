//! I5 under *real* concurrency: host threads drive the processors with
//! nondeterministic interleaving, yet every logical result matches the
//! deterministic runner — because the system's synchronization is all
//! explicit (ports), exactly as paper §3 prescribes.

use imax::arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_FIRST_FREE, CTX_SLOT_SRO};
use imax::arch::{PortDiscipline, Rights};
use imax::gdp::isa::{AluOp, DataDst, DataRef};
use imax::gdp::ProgramBuilder;
use imax::ipc::create_port;
use imax::sim::{run_threaded, System, SystemConfig};

/// Builds the token-mutex increment workload (the same one the
/// deterministic test uses): two processes bump a shared counter 25
/// times each under a one-token port mutex.
fn build_mutex_workload(cpus: u32, shards: u32) -> (System, imax::arch::AccessDescriptor, u64) {
    const ROUNDS: u64 = 25;
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
        .create_object(root, imax::arch::ObjectSpec::generic(8, 0))
        .unwrap();
    let shared_ad = sys.space.mint(shared, Rights::READ | Rights::WRITE);
    sys.anchor(shared_ad);
    let token = sys
        .space
        .create_object(root, imax::arch::ObjectSpec::generic(8, 0))
        .unwrap();
    let token_ad = sys.space.mint(token, Rights::READ | Rights::WRITE);
    imax::ipc::untyped::send(&mut sys.space, mutex, token_ad).unwrap();

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
        DataRef::Imm(ROUNDS),
        DataDst::Local(16),
    );
    p.jump_if_nonzero(DataRef::Local(16), top);
    p.halt();
    let sub = sys.subprogram("incrementer", p.finish(), 64, 8);
    let dom = sys.install_domain("racers", vec![sub], 0);
    let a = sys.spawn(dom, 0, Some(mutex.ad()));
    let b = sys.spawn(dom, 0, Some(mutex.ad()));
    for proc_ref in [a, b] {
        let ctx = sys
            .space
            .load_ad_hw(proc_ref, imax::arch::sysobj::PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap()
            .obj;
        sys.space
            .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE + 1, Some(shared_ad))
            .unwrap();
    }
    (sys, shared_ad, 2 * ROUNDS)
}

#[test]
fn threaded_mutex_has_no_lost_updates() {
    for cpus in [2u32, 4] {
        let (sys, shared_ad, expect) = build_mutex_workload(cpus, 1);
        let (sys, outcome) = run_threaded(sys, 50_000_000);
        assert!(outcome.completed, "{cpus} cpus: {outcome:?}");
        assert_eq!(outcome.system_errors, 0);
        let mut space = sys.space;
        assert_eq!(
            space.read_u64(shared_ad, 0).unwrap(),
            expect,
            "{cpus} threads: token mutex must exclude"
        );
    }
}

#[test]
fn threaded_matches_deterministic_logical_result() {
    // Deterministic arm.
    let (mut det, det_shared, expect) = build_mutex_workload(2, 1);
    let outcome = det.run_to_completion(50_000_000);
    assert_eq!(outcome, imax::sim::RunOutcome::Stopped);
    let det_value = det.space.read_u64(det_shared, 0).unwrap();

    // Threaded arm (fresh system, same construction).
    let (sys, thr_shared, _) = build_mutex_workload(2, 1);
    let (sys, thr_outcome) = run_threaded(sys, 50_000_000);
    assert!(thr_outcome.completed);
    let mut space = sys.space;
    let thr_value = space.read_u64(thr_shared, 0).unwrap();

    assert_eq!(det_value, expect);
    assert_eq!(thr_value, det_value, "interleaving must not change results");
}

#[test]
fn threaded_allocation_churn_is_safe() {
    // Concurrent object creation/abandonment from multiple threads: the
    // object space's accounting survives (no double allocation, no
    // corruption faults).
    let mut sys = System::new(&SystemConfig::small().with_processors(4));
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(30), DataDst::Local(0));
    p.bind(top);
    p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(64), DataRef::Imm(2), 5);
    p.mov(DataRef::Imm(7), DataDst::Field(5, 0));
    p.alu(
        AluOp::Sub,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    p.jump_if_nonzero(DataRef::Local(0), top);
    p.halt();
    let sub = sys.subprogram("churn", p.finish(), 64, 8);
    let dom = sys.install_domain("churners", vec![sub], 0);
    for _ in 0..6 {
        sys.spawn(dom, 0, None);
    }
    let (sys, outcome) = run_threaded(sys, 50_000_000);
    assert!(outcome.completed, "{outcome:?}");
    assert_eq!(outcome.system_errors, 0);
    for p in sys.processes() {
        assert_eq!(sys.space.process(*p).unwrap().fault_code, 0);
    }
    // 6 churners x 30 objects were created.
    assert!(sys.space.stats().objects_created >= 180);
}

#[test]
fn thread_shard_matrix_matches_deterministic() {
    // The same workload, same seed, across host-thread counts and shard
    // (lock stripe) counts: every combination must reach the identical
    // logical result the deterministic runner computes. Interleaving and
    // lock granularity are free to vary; outcomes are not.
    let (mut det, det_shared, expect) = build_mutex_workload(2, 1);
    assert_eq!(
        det.run_to_completion(50_000_000),
        imax::sim::RunOutcome::Stopped
    );
    let det_value = det.space.read_u64(det_shared, 0).unwrap();
    assert_eq!(det_value, expect);

    for cpus in [1u32, 4, 8] {
        for shards in [1u32, 4, 16] {
            let (sys, shared_ad, _) = build_mutex_workload(cpus, shards);
            let (sys, outcome) = run_threaded(sys, 50_000_000);
            assert!(
                outcome.completed,
                "{cpus} threads x {shards} shards: {outcome:?}"
            );
            assert_eq!(outcome.system_errors, 0, "{cpus} threads x {shards} shards");
            let mut space = sys.space;
            assert_eq!(
                space.read_u64(shared_ad, 0).unwrap(),
                det_value,
                "{cpus} threads x {shards} shards must match the deterministic run"
            );
        }
    }
}

#[test]
fn a_handed_back_system_runs_threaded_again() {
    // A producer leaves ten keyed messages queued at a port no process
    // receives from. The run hands the system back with the port's ring
    // flushed into its message area and the registry disarmed; a second
    // run on that system re-arms the frozen ring and serves a consumer.
    const MESSAGES: u64 = 10;
    let mut sys = System::new(&SystemConfig::small().with_processors(2));
    let root = sys.space.root_sro();
    let port = create_port(&mut sys.space, root, 64, PortDiscipline::Fifo).unwrap();
    sys.anchor(port.ad());

    let mut tx = ProgramBuilder::new();
    let top = tx.new_label();
    tx.mov(DataRef::Imm(0), DataDst::Local(0));
    tx.bind(top);
    tx.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(8), DataRef::Imm(0), 5);
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
    let mut rx = ProgramBuilder::new();
    let top = rx.new_label();
    rx.mov(DataRef::Imm(MESSAGES), DataDst::Local(0));
    rx.bind(top);
    rx.receive(CTX_SLOT_ARG as u16, 6);
    rx.alu(
        AluOp::Sub,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    rx.jump_if_nonzero(DataRef::Local(0), top);
    rx.halt();
    let tx_sub = sys.subprogram("tx", tx.finish(), 64, 8);
    let rx_sub = sys.subprogram("rx", rx.finish(), 64, 8);
    let dom = sys.install_domain("handback", vec![tx_sub, rx_sub], 0);
    sys.spawn(dom, 0, Some(port.ad()));

    let (mut sys, outcome) = run_threaded(sys, 50_000_000);
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "{outcome:?}"
    );
    assert!(!sys.space.port_ring_registry().is_enabled());
    let st = sys.space.port(port.object()).unwrap();
    assert_eq!((st.msg_count, st.stats.sends), (10, 10));

    // Locked receives pop the queue oldest first, each message with its
    // sender's key; locked sends put it back as it was.
    let mut queue = Vec::new();
    for key in 0..MESSAGES {
        let st = sys.space.port(port.object()).unwrap();
        assert_eq!(st.msg_keys[st.msg_head as usize], key);
        let msg = imax::ipc::untyped::receive(&mut sys.space, port).unwrap();
        queue.push((msg.expect("a queued message"), key));
    }
    assert_eq!(imax::ipc::untyped::receive(&mut sys.space, port), Ok(None));
    for (msg, key) in queue {
        let sent = imax::gdp::port::send(&mut sys.space, None, port.ad(), msg, key, false, false);
        assert_eq!(sent, Ok(imax::gdp::port::SendOutcome::Queued));
    }

    let consumer = sys.spawn(dom, 1, Some(port.ad()));
    let (sys, outcome) = run_threaded(sys, 50_000_000);
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "{outcome:?}"
    );
    assert_eq!(sys.space.process(consumer).unwrap().fault_code, 0);
    assert!(!sys.space.port_ring_registry().is_enabled());
    let st = sys.space.port(port.object()).unwrap();
    assert_eq!(st.msg_count, 0, "the consumer received every message");
    assert_eq!((st.stats.sends, st.stats.receives), (20, 20));
}
