//! Device-independent I/O end to end (paper §6.3): simulated programs
//! drive devices through CALLs on device package instances, using the
//! common interface for device-independent work and the extended
//! subprograms for device-specific work — with no device registry
//! anywhere.

use imax::arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_SRO};
use imax::arch::Rights;
use imax::gdp::isa::{AluOp, DataDst, DataRef};
use imax::gdp::ProgramBuilder;
use imax::io::{
    install_device, ConsoleDevice, DeviceImpl, DeviceStatus, RamDisk, TapeDrive, OP_CONTROL_BASE,
    OP_OPEN, OP_READ, OP_STATUS, OP_WRITE,
};
use imax::sim::{RunOutcome, System, SystemConfig};
use parking_lot::Mutex;
use std::sync::Arc;

/// A device-independent program: open the argument device, write one
/// record, read it back is device-specific, so this common program only
/// opens, writes, and checks status — it runs unmodified against any
/// device.
fn common_writer(payload: &[u8]) -> Vec<imax::gdp::Instruction> {
    let mut p = ProgramBuilder::new();
    // open()
    p.call(CTX_SLOT_ARG as u16, OP_OPEN, None, None, None);
    // Build the write argument record: len at 0, data at 16 (the data
    // area is rounded up to whole words for the packed stores below).
    let data_words = payload.len().div_ceil(8) as u64;
    p.create_object(
        CTX_SLOT_SRO as u16,
        DataRef::Imm(16 + data_words * 8),
        DataRef::Imm(0),
        5,
    );
    p.mov(DataRef::Imm(payload.len() as u64), DataDst::Field(5, 0));
    // Pack the payload into words.
    for (w, chunk) in payload.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        p.mov(
            DataRef::Imm(u64::from_le_bytes(word)),
            DataDst::Field(5, 16 + (w as u32) * 8),
        );
    }
    // write(arg) -> count at local 0
    p.call(CTX_SLOT_ARG as u16, OP_WRITE, Some(5), None, Some(0));
    // status() -> local 8; fault if not open+ready.
    p.call(CTX_SLOT_ARG as u16, OP_STATUS, None, None, Some(8));
    let ok = p.new_label();
    p.alu(
        AluOp::And,
        DataRef::Local(8),
        DataRef::Imm(3),
        DataDst::Local(16),
    );
    p.alu(
        AluOp::Eq,
        DataRef::Local(16),
        DataRef::Imm(3),
        DataDst::Local(16),
    );
    p.jump_if_nonzero(DataRef::Local(16), ok);
    p.push(imax::gdp::Instruction::RaiseFault { code: 40 });
    p.bind(ok);
    p.halt();
    p.finish()
}

fn run_one(
    sys: &mut System,
    dom: imax::arch::AccessDescriptor,
    device: imax::arch::AccessDescriptor,
) {
    let code = common_writer(b"hello device");
    let sub = sys.subprogram("writer", code, 64, 12);
    let app = sys.install_domain("writer_app", vec![sub], 0);
    let _ = dom;
    let proc_ref = sys.spawn(app, 0, Some(device));
    let outcome = sys.run_to_completion(10_000_000);
    assert_eq!(outcome, RunOutcome::Stopped);
    assert_eq!(
        sys.space.process(proc_ref).unwrap().fault_code,
        0,
        "{}",
        sys.space.process(proc_ref).unwrap().fault_detail
    );
}

#[test]
fn one_program_many_devices() {
    // The same program binary drives a console, a tape drive and a RAM
    // disk — the §6.3 claim, with no registry and no case construct.
    let mut sys = System::new(&SystemConfig::small());

    let console = Arc::new(Mutex::new(ConsoleDevice::new("tty0", b"")));
    let tape = Arc::new(Mutex::new(TapeDrive::new("mt0")));
    let disk = Arc::new(Mutex::new(RamDisk::new("dk0", 8, 64)));

    let h_console = install_device(&mut sys, console.clone());
    let h_tape = install_device(&mut sys, tape.clone());
    let h_disk = install_device(&mut sys, disk.clone());

    for h in [&h_console, &h_tape, &h_disk] {
        run_one(&mut sys, h.domain, h.domain);
    }

    // Each device received the same bytes through its own
    // implementation.
    assert_eq!(console.lock().transcript(), b"hello device");
    {
        let mut t = tape.lock();
        // The writer left the tape open at record 1; rewind and read.
        t.control(imax::io::tape::TAPE_OP_REWIND, 0).unwrap();
        let mut buf = [0u8; 16];
        let n = t.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello device");
    }
    {
        let mut d = disk.lock();
        d.control(imax::io::disk::BLK_OP_SEEK, 0).unwrap();
        let mut buf = [0u8; 64];
        d.read(&mut buf).unwrap();
        assert_eq!(&buf[..12], b"hello device");
    }
}

#[test]
fn device_specific_ops_extend_the_subset() {
    // Tape rewind (OP_CONTROL_BASE + 0) exists on the tape instance;
    // calling the same index on a console faults with Unsupported —
    // class interfaces are just longer subprogram tables.
    let mut sys = System::new(&SystemConfig::small());
    let tape = Arc::new(Mutex::new(TapeDrive::new("mt0")));
    let h_tape = install_device(&mut sys, tape.clone());

    let mut p = ProgramBuilder::new();
    p.call(CTX_SLOT_ARG as u16, OP_OPEN, None, None, None);
    // Write two records, then REWIND (device-specific), then read and
    // check we are back at record 0.
    p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(24), DataRef::Imm(0), 5);
    p.mov(DataRef::Imm(4), DataDst::Field(5, 0));
    p.mov(
        DataRef::Imm(u64::from_le_bytes(*b"AAAA\0\0\0\0")),
        DataDst::Field(5, 16),
    );
    p.call(CTX_SLOT_ARG as u16, OP_WRITE, Some(5), None, None);
    p.mov(
        DataRef::Imm(u64::from_le_bytes(*b"BBBB\0\0\0\0")),
        DataDst::Field(5, 16),
    );
    p.call(CTX_SLOT_ARG as u16, OP_WRITE, Some(5), None, None);
    p.call(CTX_SLOT_ARG as u16, OP_CONTROL_BASE, None, None, None); // rewind
                                                                    // read -> the first record again.
    p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(24), DataRef::Imm(0), 6);
    p.mov(DataRef::Imm(8), DataDst::Field(6, 0));
    p.call(CTX_SLOT_ARG as u16, OP_READ, Some(6), None, Some(0));
    let ok = p.new_label();
    p.alu(
        AluOp::Eq,
        DataRef::Field(6, 16),
        DataRef::Imm(u64::from_le_bytes(*b"AAAA\0\0\0\0")),
        DataDst::Local(8),
    );
    p.jump_if_nonzero(DataRef::Local(8), ok);
    p.push(imax::gdp::Instruction::RaiseFault { code: 41 });
    p.bind(ok);
    p.halt();
    let sub = sys.subprogram("tape_user", p.finish(), 64, 12);
    let app = sys.install_domain("tape_app", vec![sub], 0);
    let proc_ref = sys.spawn(app, 0, Some(h_tape.domain));
    let outcome = sys.run_to_completion(10_000_000);
    assert_eq!(outcome, RunOutcome::Stopped);
    assert_eq!(
        sys.space.process(proc_ref).unwrap().fault_code,
        0,
        "{}",
        sys.space.process(proc_ref).unwrap().fault_detail
    );

    // The console's domain has no subprogram at that index at all —
    // calling it is a BadSubprogram fault, caught by the machinery, not
    // by a registry.
    let console = Arc::new(Mutex::new(ConsoleDevice::new("tty1", b"")));
    let h_console = install_device(&mut sys, console);
    let mut p = ProgramBuilder::new();
    p.call(CTX_SLOT_ARG as u16, OP_OPEN, None, None, None);
    p.call(CTX_SLOT_ARG as u16, OP_CONTROL_BASE, None, None, None);
    p.halt();
    let sub = sys.subprogram("bad_user", p.finish(), 64, 12);
    let app = sys.install_domain("bad_app", vec![sub], 0);
    let proc_ref = sys.spawn(app, 0, Some(h_console.domain));
    let _ = sys.run_to_quiescence(1_000_000);
    assert_eq!(
        sys.space.process(proc_ref).unwrap().fault_code,
        imax::gdp::FaultKind::BadSubprogram.code()
    );
}

#[test]
fn adding_a_device_type_touches_no_system_code() {
    // A brand-new device implementation, defined *here* in the test,
    // installs and behaves identically through the common interface —
    // "without in any way altering system code".
    struct NullDevice {
        open: bool,
        sunk: usize,
    }
    impl DeviceImpl for NullDevice {
        fn name(&self) -> &str {
            "null0"
        }
        fn open(&mut self) -> Result<(), imax::io::DeviceError> {
            self.open = true;
            Ok(())
        }
        fn close(&mut self) -> Result<(), imax::io::DeviceError> {
            self.open = false;
            Ok(())
        }
        fn read(&mut self, _buf: &mut [u8]) -> Result<usize, imax::io::DeviceError> {
            Ok(0)
        }
        fn write(&mut self, buf: &[u8]) -> Result<usize, imax::io::DeviceError> {
            self.sunk += buf.len();
            Ok(buf.len())
        }
        fn status(&self) -> DeviceStatus {
            DeviceStatus {
                ready: true,
                open: self.open,
                error: 0,
                position: self.sunk as u64,
            }
        }
    }

    let mut sys = System::new(&SystemConfig::small());
    let dev = Arc::new(Mutex::new(NullDevice {
        open: false,
        sunk: 0,
    }));
    let h = install_device(&mut sys, dev.clone());
    run_one(&mut sys, h.domain, h.domain);
    assert_eq!(dev.lock().sunk, 12);
    let _ = Rights::NONE;
}

#[test]
fn oversize_lengths_fault_without_reaching_the_device() {
    // A transfer length the argument record's data area cannot hold —
    // one byte past it, or u64::MAX — is the bounds fault the transfer
    // itself would raise, taken before anything is allocated for it or
    // the device sees it.
    let mut sys = System::new(&SystemConfig::small());
    let script = b"the whole script";
    let console = Arc::new(Mutex::new(ConsoleDevice::new("tty0", script)));
    console.lock().open().unwrap();
    let h = install_device(&mut sys, console.clone());

    let mut procs = Vec::new();
    for len in [u64::MAX, 8 + 1] {
        for op in [OP_READ, OP_WRITE] {
            let mut p = ProgramBuilder::new();
            // An argument record with 8 bytes of data area.
            p.create_object(
                CTX_SLOT_SRO as u16,
                DataRef::Imm(16 + 8),
                DataRef::Imm(0),
                5,
            );
            p.mov(DataRef::Imm(len), DataDst::Field(5, 0));
            p.call(CTX_SLOT_ARG as u16, op, Some(5), None, Some(0));
            p.halt();
            let sub = sys.subprogram("oversize", p.finish(), 64, 12);
            let app = sys.install_domain("oversize_app", vec![sub], 0);
            procs.push(sys.spawn(app, 0, Some(h.domain)));
        }
    }
    let _ = sys.run_to_quiescence(1_000_000);
    for p in procs {
        let ps = sys.space.process(p).unwrap();
        assert_eq!(
            ps.fault_code,
            imax::gdp::FaultKind::Bounds.code(),
            "{}",
            ps.fault_detail
        );
    }
    let mut console = console.lock();
    assert_eq!(console.transcript(), b"");
    let mut buf = [0u8; 32];
    let n = console.read(&mut buf).unwrap();
    assert_eq!(&buf[..n], script, "the script is still whole");
}
