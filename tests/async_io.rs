//! Asynchronous I/O end to end: a simulated process overlaps computation
//! with device I/O through the request/reply port protocol (paper §3's
//! independent I/O subsystems), with the subsystem serviced by iMAX's
//! ordinary service passes.

use imax::arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_SRO};
use imax::arch::{ProcessStatus, Rights};
use imax::gdp::isa::{AluOp, DataDst, DataRef, Instruction};
use imax::gdp::ProgramBuilder;
use imax::io::virtio::{
    VREQ_COUNT_OFF, VREQ_DATA_OFF, VREQ_LEN_OFF, VREQ_OP_OFF, VREQ_SLOT_REPLY, VREQ_STATUS_OFF,
};
use imax::io::{ConsoleDevice, DeviceImpl, OP_OPEN, OP_WRITE};
use imax::sim::RunOutcome;
use imax::{Imax, ImaxConfig};
use parking_lot::Mutex;
use std::sync::Arc;

#[test]
fn process_overlaps_compute_with_device_io() {
    let mut os = Imax::boot(&ImaxConfig::embedded());
    let console = Arc::new(Mutex::new(ConsoleDevice::new("tty0", b"")));
    let req_port = os.attach_device(console.clone(), 8).unwrap();

    // The program (argument record layout):
    //   slot 4 (ARG) = a parameter object whose access part holds
    //     [0] = device request port, [1] = reply port.
    // It builds an OPEN request, sends it, computes while the subsystem
    // works, receives the completion, then does a WRITE the same way.
    let root = os.sys.space.root_sro();
    let reply_port =
        imax::ipc::create_port(&mut os.sys.space, root, 8, imax::arch::PortDiscipline::Fifo)
            .unwrap();
    os.sys.anchor(reply_port.ad());
    let params = os
        .sys
        .space
        .create_object(root, imax::arch::ObjectSpec::generic(0, 2))
        .unwrap();
    os.sys
        .space
        .store_ad_hw(params, 0, Some(req_port.send_only().ad()))
        .unwrap();
    os.sys
        .space
        .store_ad_hw(params, 1, Some(reply_port.ad()))
        .unwrap();
    let params_ad = os.sys.space.mint(params, Rights::READ);

    let mut p = ProgramBuilder::new();
    // Pull the two ports out of the parameter object.
    p.load_ad(CTX_SLOT_ARG as u16, DataRef::Imm(0), 5); // request port
    p.load_ad(CTX_SLOT_ARG as u16, DataRef::Imm(1), 6); // reply port

    // Build the OPEN request: header + 8 data bytes, 2 access slots.
    p.create_object(
        CTX_SLOT_SRO as u16,
        DataRef::Imm((VREQ_DATA_OFF + 8) as u64),
        DataRef::Imm(2),
        7,
    );
    p.mov(DataRef::Imm(OP_OPEN as u64), DataDst::Field(7, VREQ_OP_OFF));
    p.store_ad(6, 7, DataRef::Imm(VREQ_SLOT_REPLY as u64));
    p.send(5, 7);
    // Overlap: compute while the device opens.
    p.work(2_000);
    // Completion.
    p.receive(6, 8);
    let ok1 = p.new_label();
    p.alu(
        AluOp::Eq,
        DataRef::Field(8, VREQ_STATUS_OFF),
        DataRef::Imm(0),
        DataDst::Local(0),
    );
    p.jump_if_nonzero(DataRef::Local(0), ok1);
    p.push(Instruction::RaiseFault { code: 70 });
    p.bind(ok1);
    // Reuse the request object for a WRITE of "hi!" (3 bytes).
    p.mov(
        DataRef::Imm(OP_WRITE as u64),
        DataDst::Field(8, VREQ_OP_OFF),
    );
    p.mov(DataRef::Imm(3), DataDst::Field(8, VREQ_LEN_OFF));
    p.mov(
        DataRef::Imm(u64::from_le_bytes(*b"hi!\0\0\0\0\0")),
        DataDst::Field(8, VREQ_DATA_OFF),
    );
    p.send(5, 8);
    p.work(2_000);
    p.receive(6, 9);
    let ok2 = p.new_label();
    p.alu(
        AluOp::Eq,
        DataRef::Field(9, VREQ_COUNT_OFF),
        DataRef::Imm(3),
        DataDst::Local(0),
    );
    p.jump_if_nonzero(DataRef::Local(0), ok2);
    p.push(Instruction::RaiseFault { code: 71 });
    p.bind(ok2);
    p.halt();

    let sub = os.sys.subprogram("io_client", p.finish(), 64, 12);
    let dom = os.sys.install_domain("app", vec![sub], 0);
    let proc_ref = os.spawn_program(dom, 0, Some(params_ad));

    let outcome = os.run(5_000_000);
    assert!(
        matches!(outcome, RunOutcome::Stopped | RunOutcome::Quiescent),
        "{outcome:?}"
    );
    let ps = os.sys.space.process(proc_ref).unwrap();
    assert_eq!(ps.fault_code, 0, "{}", ps.fault_detail);
    assert_eq!(ps.status, ProcessStatus::Terminated);
    assert_eq!(console.lock().transcript(), b"hi!");
    assert_eq!(os.io.stats().completed, 2);
}

#[test]
fn many_clients_share_one_subsystem() {
    // Four processes write to the same console asynchronously; all
    // complete, and the transcript holds all the bytes.
    let mut os = Imax::boot(&ImaxConfig::embedded());
    let console = Arc::new(Mutex::new(ConsoleDevice::new("tty0", b"")));
    {
        // Pre-open the device on behalf of everyone.
        console.lock().open().unwrap();
    }
    let req_port = os.attach_device(console.clone(), 16).unwrap();
    let root = os.sys.space.root_sro();

    let mut procs = Vec::new();
    for i in 0..4u64 {
        let reply =
            imax::ipc::create_port(&mut os.sys.space, root, 4, imax::arch::PortDiscipline::Fifo)
                .unwrap();
        os.sys.anchor(reply.ad());
        let params = os
            .sys
            .space
            .create_object(root, imax::arch::ObjectSpec::generic(0, 2))
            .unwrap();
        os.sys
            .space
            .store_ad_hw(params, 0, Some(req_port.send_only().ad()))
            .unwrap();
        os.sys
            .space
            .store_ad_hw(params, 1, Some(reply.ad()))
            .unwrap();
        let params_ad = os.sys.space.mint(params, Rights::READ);

        let mut p = ProgramBuilder::new();
        p.load_ad(CTX_SLOT_ARG as u16, DataRef::Imm(0), 5);
        p.load_ad(CTX_SLOT_ARG as u16, DataRef::Imm(1), 6);
        p.create_object(
            CTX_SLOT_SRO as u16,
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
            DataRef::Imm(b'a' as u64 + i),
            DataDst::Field(7, VREQ_DATA_OFF),
        );
        p.store_ad(6, 7, DataRef::Imm(VREQ_SLOT_REPLY as u64));
        p.send(5, 7);
        p.receive(6, 8);
        p.halt();
        let sub = os.sys.subprogram("writer", p.finish(), 64, 12);
        let dom = os.sys.install_domain("app", vec![sub], 0);
        procs.push(os.spawn_program(dom, 0, Some(params_ad)));
    }

    let outcome = os.run(10_000_000);
    assert!(
        matches!(outcome, RunOutcome::Stopped | RunOutcome::Quiescent),
        "{outcome:?}"
    );
    for p in procs {
        assert_eq!(
            os.sys.space.process(p).unwrap().status,
            ProcessStatus::Terminated
        );
    }
    let mut bytes = console.lock().transcript().to_vec();
    bytes.sort_unstable();
    assert_eq!(bytes, b"abcd");
}
