//! Grand tour: every subsystem in one running system.
//!
//! Boots the multi-user configuration (swapping storage, fair-share
//! scheduling, GC daemon), attaches an asynchronous console, runs a mix
//! of well-behaved and misbehaving programs, recovers a leaked tape
//! drive through the destruction filter, survives a divide-by-zero via
//! the fault service, files the run's results to a byte image, and
//! prints the debugging-base reports.
//!
//! Run with: `cargo run --release --example grand_tour`

use imax::inspect;
use imax::io::virtio::{
    VREQ_DATA_OFF, VREQ_LEN_OFF, VREQ_OP_OFF, VREQ_SLOT_REPLY, VREQ_STATUS_OFF,
};
use imax::io::{ConsoleDevice, DeviceImpl, TapePool, OP_WRITE};
use imax::prelude::*;
use parking_lot::Mutex;
use std::sync::Arc;

fn main() {
    // ------------------------------------------------------------------
    // Boot: release-2 storage, fair-share controller, GC daemon on.
    // ------------------------------------------------------------------
    let mut os = Imax::boot(&ImaxConfig::multi_user(2));
    println!("booted iMAX: 2 processors, swapping storage, fair-share scheduling, GC on");

    // ------------------------------------------------------------------
    // Devices: an async console behind the I/O subsystem, and a tape
    // pool with a destruction filter.
    // ------------------------------------------------------------------
    let console = Arc::new(Mutex::new(ConsoleDevice::new("tty0", b"")));
    console.lock().open().expect("open console");
    let req_port = os.attach_device(console.clone(), 16).expect("attach");

    let root = os.sys.space.root_sro();
    let mut pool = TapePool::new(&mut os.sys.space, root, 2).expect("tape pool");
    let tdo_ad = os.sys.space.mint(pool.tdo(), Rights::NONE);
    let fp_ad = os.sys.space.mint(pool.filter_port(), Rights::NONE);
    os.sys.anchor(tdo_ad);
    os.sys.anchor(fp_ad);

    // A client leaks a drive before the applications even start.
    let _leaked = pool.acquire(&mut os.sys.space, root).expect("acquire");
    println!(
        "a client leaked a tape drive ({} of 2 free)",
        pool.free_count()
    );

    // ------------------------------------------------------------------
    // Applications: two async writers (different fair-share weights) and
    // one crasher.
    // ------------------------------------------------------------------
    let reply = create_port(&mut os.sys.space, root, 8, PortDiscipline::Fifo).expect("port");
    os.sys.anchor(reply.ad());

    let writer = |marker: u8, spin: u32| {
        let mut p = ProgramBuilder::new();
        // Ports from the parameter object.
        p.load_ad(imax::arch::sysobj::CTX_SLOT_ARG as u16, DataRef::Imm(0), 5);
        p.load_ad(imax::arch::sysobj::CTX_SLOT_ARG as u16, DataRef::Imm(1), 6);
        // Compute a while (fair-share contends here).
        p.work(spin);
        // Submit an async write of one marker byte.
        p.create_object(
            imax::arch::sysobj::CTX_SLOT_SRO as u16,
            DataRef::Imm((VREQ_DATA_OFF + 8) as u64),
            DataRef::Imm(2),
            7,
        );
        p.mov(
            DataRef::Imm(OP_WRITE as u64),
            DataDst::Field(7, VREQ_OP_OFF),
        );
        p.mov(DataRef::Imm(1), DataDst::Field(7, VREQ_LEN_OFF));
        p.mov(
            DataRef::Imm(marker as u64),
            DataDst::Field(7, VREQ_DATA_OFF),
        );
        p.store_ad(6, 7, DataRef::Imm(VREQ_SLOT_REPLY as u64));
        p.send(5, 7);
        // Overlap more compute with the device, then reap the completion.
        p.work(spin);
        p.receive(6, 8);
        let ok = p.new_label();
        p.alu(
            AluOp::Eq,
            DataRef::Field(8, VREQ_STATUS_OFF),
            DataRef::Imm(0),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), ok);
        p.push(Instruction::RaiseFault { code: 99 });
        p.bind(ok);
        p.halt();
        p.finish()
    };

    let make_params = |os: &mut Imax| {
        let root = os.sys.space.root_sro();
        let params = os
            .sys
            .space
            .create_object(root, ObjectSpec::generic(0, 2))
            .unwrap();
        os.sys
            .space
            .store_ad_hw(params, 0, Some(req_port.send_only().ad()))
            .unwrap();
        os.sys
            .space
            .store_ad_hw(params, 1, Some(reply.ad()))
            .unwrap();
        os.sys.space.mint(params, Rights::READ)
    };

    let w_a = os.sys.subprogram("writer_a", writer(b'A', 20_000), 64, 12);
    let w_b = os.sys.subprogram("writer_b", writer(b'B', 20_000), 64, 12);
    let mut crash = ProgramBuilder::new();
    crash.work(5_000);
    crash.alu(
        AluOp::Div,
        DataRef::Imm(1),
        DataRef::Imm(0),
        DataDst::Local(0),
    );
    crash.halt();
    let crash_sub = os.sys.subprogram("crasher", crash.finish(), 32, 8);
    let dom = os.sys.install_domain("apps", vec![w_a, w_b, crash_sub], 0);

    let pa = make_params(&mut os);
    let pb = make_params(&mut os);
    let writer_a = os.spawn_weighted(dom, 0, Some(pa), 1);
    let writer_b = os.spawn_weighted(dom, 1, Some(pb), 3);
    let crasher = os.spawn_program(dom, 2, None);
    println!("spawned: writer A (weight 1), writer B (weight 3), and a crasher");

    // ------------------------------------------------------------------
    // Run. The service passes repair/terminate faults, drive the I/O
    // subsystem, and rebalance the controller; the GC daemon collects.
    // ------------------------------------------------------------------
    let outcome = os.run(10_000_000);
    println!("run outcome: {outcome:?}");
    for (name, p) in [("writer A", writer_a), ("writer B", writer_b)] {
        let ps = os.sys.space.process(p).unwrap();
        assert_eq!(ps.status, ProcessStatus::Terminated);
        assert_eq!(ps.fault_code, 0, "{name}: {}", ps.fault_detail);
        println!(
            "  {name}: terminated cleanly after {} cycles",
            ps.total_cycles
        );
    }
    let crash_state = os.sys.space.process(crasher).unwrap();
    println!(
        "  crasher: {:?} (fault: {})",
        crash_state.status, crash_state.fault_detail
    );
    assert!(os
        .fault_log
        .iter()
        .any(|d| matches!(d, FaultDisposition::Terminated { process, .. } if *process == crasher)));
    let mut transcript = console.lock().transcript().to_vec();
    transcript.sort_unstable();
    assert_eq!(transcript, b"AB");
    println!(
        "console transcript (sorted): {:?}",
        String::from_utf8_lossy(&transcript)
    );

    // ------------------------------------------------------------------
    // Lost-object recovery: the daemon has been collecting; service the
    // pool until the leaked drive comes home.
    // ------------------------------------------------------------------
    let mut recovered = 0;
    for _ in 0..40 {
        let _ = os.sys.run_to_quiescence(50_000);
        recovered += pool.recover_lost(&mut os.sys.space).expect("recover");
        if recovered > 0 {
            break;
        }
    }
    assert_eq!(
        recovered,
        1,
        "gc stats: {:?}",
        os.collector.as_ref().unwrap().lock().stats
    );
    println!(
        "destruction filter recovered the leaked drive ({} of 2 free)",
        pool.free_count()
    );

    // ------------------------------------------------------------------
    // File the run's result as a persistent object graph.
    // ------------------------------------------------------------------
    let report_mgr = TypeManager::new(&mut os.sys.space, root, "run_report").unwrap();
    let report = report_mgr
        .create_instance(&mut os.sys.space, root, 16, 0)
        .unwrap();
    let full = report_mgr.amplify(&mut os.sys.space, report).unwrap();
    os.sys
        .space
        .write_u64(full, 0, transcript.len() as u64)
        .unwrap();
    let image = passivate(&mut os.sys.space, full).unwrap().to_bytes();
    println!(
        "filed the run report: {} bytes, type identity included",
        image.len()
    );

    // ------------------------------------------------------------------
    // The debugging base (§9).
    // ------------------------------------------------------------------
    let census = inspect::census(&os.sys.space);
    println!(
        "\nobject census: {} live objects, {} bytes of data parts",
        census.live, census.data_bytes
    );
    for (t, n) in &census.by_type {
        println!("  {t:<24} {n}");
    }
    println!("\nports:\n{}", inspect::port_report(&os.sys.space));
    println!("storage:\n{}", inspect::storage_report(&os.sys.space));
    let gc_stats = os.collector.as_ref().unwrap().lock().stats;
    println!(
        "gc: {} cycles completed, {} objects reclaimed, {} finalized",
        gc_stats.cycles, gc_stats.reclaimed, gc_stats.finalized
    );
    println!("grand tour OK");
}
