//! Attached I/O subsystems: asynchronous device I/O through ports.
//!
//! Paper §3: "Multiple independent I/O subsystems provide a similar
//! expansion for the I/O bandwidth of a single system." On the 432,
//! attached I/O processors drained request ports and posted completions
//! back — the GDPs never waited for devices unless they chose to RECEIVE.
//!
//! [`AsyncDevice`] reproduces that structure: clients SEND a request
//! object to the device's request port and go on computing; the I/O
//! subsystem services the port, drives the device, and SENDs the request
//! object back to the *reply port named inside the request* with the
//! results filled in. The client RECEIVEs the completion whenever it
//! likes — overlap of computation and I/O falls out of the port
//! mechanism with no new concepts, which is the uniformity the paper is
//! about.
//!
//! The subsystem is serviced deterministically between simulation steps
//! (the real AIPs ran truly in parallel; determinism of the measurements
//! is worth more to a reproduction than wall-clock concurrency, and the
//! *client-visible* asynchrony is identical).
//!
//! ## Request object layout
//!
//! Data part: `[0]` = operation (the `OP_*` codes), `[8]` = length/aux,
//! `[16]` = completion status (0 ok, else error code), `[24]` = result
//! count, `[32..]` = transfer data. Access part: slot 0 = reply port.

use crate::iface::{DeviceImpl, OP_CLOSE, OP_CONTROL_BASE, OP_OPEN, OP_READ, OP_STATUS, OP_WRITE};
use i432_arch::{AccessDescriptor, ObjectRef, Rights, SpaceMut};
use i432_gdp::{
    port::{self, RecvOutcome, SendOutcome},
    Fault, FaultKind,
};
use imax_ipc::Port;
use parking_lot::Mutex;
use std::sync::Arc;

/// Offset of the operation code in a request object.
pub const REQ_OP_OFF: u32 = 0;
/// Offset of the length/aux field.
pub const REQ_LEN_OFF: u32 = 8;
/// Offset of the completion status (written by the subsystem).
pub const REQ_STATUS_OFF: u32 = 16;
/// Offset of the result count (written by the subsystem).
pub const REQ_COUNT_OFF: u32 = 24;
/// Offset of the transfer data area.
pub const REQ_DATA_OFF: u32 = 32;
/// Access slot of the reply port inside a request object.
pub const REQ_SLOT_REPLY: u32 = 0;

/// Counters per asynchronous device.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IopStats {
    /// Requests completed.
    pub completed: u64,
    /// Requests that failed (status != 0 posted).
    pub failed: u64,
    /// Simulated device cycles consumed.
    pub device_cycles: u64,
}

/// One device behind a request port.
pub struct AsyncDevice {
    device: Arc<Mutex<dyn DeviceImpl>>,
    request_port: Port,
    /// Counters.
    pub stats: IopStats,
}

impl AsyncDevice {
    /// Binds a device implementation to a fresh request port allocated
    /// from `sro`.
    pub fn new<S: SpaceMut + ?Sized>(
        space: &mut S,
        sro: ObjectRef,
        device: Arc<Mutex<dyn DeviceImpl>>,
        queue_depth: u32,
    ) -> Result<AsyncDevice, Fault> {
        let request_port =
            imax_ipc::create_port(space, sro, queue_depth, i432_arch::PortDiscipline::Fifo)?;
        Ok(AsyncDevice {
            device,
            request_port,
            stats: IopStats::default(),
        })
    }

    /// The request port clients send to (hand out send-only views).
    pub fn request_port(&self) -> Port {
        self.request_port
    }

    /// Services every pending request; returns how many completed.
    pub fn service<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<u32, Fault> {
        let mut done = 0;
        loop {
            let req = match port::receive(space, None, self.request_port.ad(), false, true)? {
                RecvOutcome::Received(req) => req,
                RecvOutcome::WouldBlock => return Ok(done),
                RecvOutcome::Blocked => unreachable!("non-blocking receive"),
            };
            self.complete_one(space, req)?;
            done += 1;
        }
    }

    fn complete_one<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        req: AccessDescriptor,
    ) -> Result<(), Fault> {
        // The subsystem is trusted: full access to the request object.
        let req = AccessDescriptor::new(req.obj, Rights::ALL);
        let op = space.read_u64(req, REQ_OP_OFF).map_err(Fault::from)? as u32;
        let len = space.read_u64(req, REQ_LEN_OFF).map_err(Fault::from)?;
        // The guest writes the length: a transfer longer than the
        // request's data area fails like an unknown op, before anything
        // is allocated for it or it reaches the device.
        let data_len = space.entry(req.obj).map_err(Fault::from)?.desc.data_len;
        let oversize = len > u64::from(data_len.saturating_sub(REQ_DATA_OFF));

        let (status, count, cycles) = {
            let mut dev = self.device.lock();
            let cpb = dev.cycles_per_byte();
            match op {
                OP_OPEN => match dev.open() {
                    Ok(()) => (0u64, 0u64, 40),
                    Err(_) => (1, 0, 40),
                },
                OP_CLOSE => match dev.close() {
                    Ok(()) => (0, 0, 40),
                    Err(_) => (1, 0, 40),
                },
                OP_STATUS => (0, dev.status().pack(), 20),
                OP_READ | OP_WRITE if oversize => (1, 0, 10),
                OP_READ => {
                    let mut buf = vec![0u8; len as usize];
                    match dev.read(&mut buf) {
                        Ok(n) => {
                            drop(dev);
                            space
                                .write_data(req, REQ_DATA_OFF, &buf[..n])
                                .map_err(Fault::from)?;
                            (0, n as u64, 60 + n as u64 * cpb)
                        }
                        Err(_) => (1, 0, 60),
                    }
                }
                OP_WRITE => {
                    let mut buf = vec![0u8; len as usize];
                    drop(dev);
                    space
                        .read_data(req, REQ_DATA_OFF, &mut buf)
                        .map_err(Fault::from)?;
                    let mut dev = self.device.lock();
                    match dev.write(&buf) {
                        Ok(n) => (0, n as u64, 60 + n as u64 * cpb),
                        Err(_) => (1, 0, 60),
                    }
                }
                other if other >= OP_CONTROL_BASE => {
                    match dev.control(other - OP_CONTROL_BASE, len) {
                        Ok(v) => (0, v, 50),
                        Err(_) => (1, 0, 50),
                    }
                }
                _ => (1, 0, 10),
            }
        };
        space
            .write_u64(req, REQ_STATUS_OFF, status)
            .map_err(Fault::from)?;
        space
            .write_u64(req, REQ_COUNT_OFF, count)
            .map_err(Fault::from)?;
        self.stats.device_cycles += cycles;
        if status == 0 {
            self.stats.completed += 1;
        } else {
            self.stats.failed += 1;
        }

        // Post the completion to the reply port named in the request.
        let reply = space
            .load_ad_hw(req.obj, REQ_SLOT_REPLY)
            .map_err(Fault::from)?
            .ok_or_else(|| {
                Fault::with_detail(FaultKind::NullAccess, "request has no reply port")
            })?;
        match port::send(space, None, reply, req, 0, false, true)? {
            SendOutcome::Queued | SendOutcome::Delivered => Ok(()),
            _ => Err(Fault::with_detail(
                FaultKind::QueueOverflow,
                "reply port full; completion lost",
            )),
        }
    }
}

/// One independent I/O subsystem: several devices serviced together
/// (paper §3's "multiple independent I/O subsystems").
#[derive(Default)]
pub struct IoSubsystem {
    devices: Vec<AsyncDevice>,
}

impl IoSubsystem {
    /// An empty subsystem.
    pub fn new() -> IoSubsystem {
        IoSubsystem::default()
    }

    /// Attaches a device; returns its request port.
    pub fn attach<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        sro: ObjectRef,
        device: Arc<Mutex<dyn DeviceImpl>>,
        queue_depth: u32,
    ) -> Result<Port, Fault> {
        let dev = AsyncDevice::new(space, sro, device, queue_depth)?;
        let port = dev.request_port();
        self.devices.push(dev);
        Ok(port)
    }

    /// Services every attached device once; returns total completions.
    pub fn service<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<u32, Fault> {
        let mut total = 0;
        for d in &mut self.devices {
            total += d.service(space)?;
        }
        Ok(total)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> IopStats {
        let mut s = IopStats::default();
        for d in &self.devices {
            s.completed += d.stats.completed;
            s.failed += d.stats.failed;
            s.device_cycles += d.stats.device_cycles;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::console::ConsoleDevice;
    use i432_arch::{ObjectSpec, ShardedSpace};
    use imax_ipc::untyped;

    fn request(
        space: &mut ShardedSpace,
        op: u32,
        len: u64,
        data: &[u8],
        reply: Port,
    ) -> AccessDescriptor {
        let root = space.root_sro();
        let o = space
            .create_object(root, ObjectSpec::generic(REQ_DATA_OFF + 64, 2))
            .unwrap();
        let ad = space.mint(o, Rights::ALL);
        space.write_u64(ad, REQ_OP_OFF, op as u64).unwrap();
        space.write_u64(ad, REQ_LEN_OFF, len).unwrap();
        if !data.is_empty() {
            space.write_data(ad, REQ_DATA_OFF, data).unwrap();
        }
        space
            .store_ad_hw(o, REQ_SLOT_REPLY, Some(reply.ad()))
            .unwrap();
        ad
    }

    #[test]
    fn async_write_read_roundtrip() {
        let mut s = ShardedSpace::new(128 * 1024, 8 * 1024, 1024, 1);
        let root = s.root_sro();
        let console = Arc::new(Mutex::new(ConsoleDevice::new("tty0", b"pong")));
        let mut iop = IoSubsystem::new();
        let req_port = iop.attach(&mut s, root, console.clone(), 8).unwrap();
        let reply =
            imax_ipc::create_port(&mut s, root, 8, i432_arch::PortDiscipline::Fifo).unwrap();

        // Submit open + write + read; nothing happens until the
        // subsystem runs (asynchrony).
        let r_open = request(&mut s, OP_OPEN, 0, &[], reply);
        let r_write = request(&mut s, OP_WRITE, 4, b"ping", reply);
        let r_read = request(&mut s, OP_READ, 4, &[], reply);
        for r in [r_open, r_write, r_read] {
            untyped::send(&mut s, req_port, r).unwrap();
        }
        assert_eq!(untyped::receive(&mut s, reply).unwrap(), None, "not yet");

        let done = iop.service(&mut s).unwrap();
        assert_eq!(done, 3);

        // Completions arrive in submission order on the reply port.
        for expected in [r_open, r_write, r_read] {
            let c = untyped::receive(&mut s, reply).unwrap().unwrap();
            assert_eq!(c.obj, expected.obj);
            assert_eq!(s.read_u64(expected, REQ_STATUS_OFF).unwrap(), 0);
        }
        // The write reached the device; the read brought back the script.
        assert_eq!(console.lock().transcript(), b"ping");
        let mut buf = [0u8; 4];
        s.read_data(r_read, REQ_DATA_OFF, &mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        assert_eq!(s.read_u64(r_read, REQ_COUNT_OFF).unwrap(), 4);
    }

    #[test]
    fn failures_complete_with_status() {
        let mut s = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let root = s.root_sro();
        let console = Arc::new(Mutex::new(ConsoleDevice::new("tty0", b"")));
        let mut iop = IoSubsystem::new();
        let req_port = iop.attach(&mut s, root, console, 4).unwrap();
        let reply =
            imax_ipc::create_port(&mut s, root, 4, i432_arch::PortDiscipline::Fifo).unwrap();
        // Read before open: fails, but the completion still arrives.
        let r = request(&mut s, OP_READ, 4, &[], reply);
        untyped::send(&mut s, req_port, r).unwrap();
        iop.service(&mut s).unwrap();
        let c = untyped::receive(&mut s, reply).unwrap().unwrap();
        assert_eq!(c.obj, r.obj);
        assert_eq!(s.read_u64(r, REQ_STATUS_OFF).unwrap(), 1);
        assert_eq!(iop.stats().failed, 1);
    }

    /// A length longer than the request's data area fails the request
    /// like an unknown op: nothing is allocated for it, and the device
    /// never sees it.
    #[test]
    fn oversize_lengths_fail_without_reaching_the_device() {
        let mut s = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let root = s.root_sro();
        let console = Arc::new(Mutex::new(ConsoleDevice::new("tty0", b"script")));
        let mut iop = IoSubsystem::new();
        let req_port = iop.attach(&mut s, root, console.clone(), 8).unwrap();
        let reply =
            imax_ipc::create_port(&mut s, root, 8, i432_arch::PortDiscipline::Fifo).unwrap();
        let open = request(&mut s, OP_OPEN, 0, &[], reply);
        untyped::send(&mut s, req_port, open).unwrap();
        // `request` leaves 64 bytes of data area past the header.
        let mut oversize = Vec::new();
        for len in [u64::MAX, 64 + 1] {
            for op in [OP_READ, OP_WRITE] {
                let r = request(&mut s, op, len, &[], reply);
                untyped::send(&mut s, req_port, r).unwrap();
                oversize.push(r);
            }
        }
        let read = request(&mut s, OP_READ, 64, &[], reply);
        untyped::send(&mut s, req_port, read).unwrap();
        assert_eq!(iop.service(&mut s).unwrap(), 6);
        for r in oversize {
            assert_eq!(s.read_u64(r, REQ_STATUS_OFF).unwrap(), 1);
        }
        assert_eq!(iop.stats().failed, 4);
        // No write reached the console, and the one valid read still
        // finds the whole script.
        assert_eq!(console.lock().transcript(), b"");
        assert_eq!(s.read_u64(read, REQ_STATUS_OFF).unwrap(), 0);
        assert_eq!(s.read_u64(read, REQ_COUNT_OFF).unwrap(), 6);
    }

    #[test]
    fn multiple_subsystems_are_independent() {
        let mut s = ShardedSpace::new(128 * 1024, 8 * 1024, 1024, 1);
        let root = s.root_sro();
        let a = Arc::new(Mutex::new(ConsoleDevice::new("ttyA", b"")));
        let b = Arc::new(Mutex::new(ConsoleDevice::new("ttyB", b"")));
        let mut iop_a = IoSubsystem::new();
        let mut iop_b = IoSubsystem::new();
        let port_a = iop_a.attach(&mut s, root, a.clone(), 4).unwrap();
        let port_b = iop_b.attach(&mut s, root, b.clone(), 4).unwrap();
        let reply =
            imax_ipc::create_port(&mut s, root, 8, i432_arch::PortDiscipline::Fifo).unwrap();
        let ra = request(&mut s, OP_OPEN, 0, &[], reply);
        let rb = request(&mut s, OP_OPEN, 0, &[], reply);
        untyped::send(&mut s, port_a, ra).unwrap();
        untyped::send(&mut s, port_b, rb).unwrap();
        // Servicing subsystem A does not touch B's queue.
        assert_eq!(iop_a.service(&mut s).unwrap(), 1);
        assert_eq!(
            s.port(port_b.object()).unwrap().msg_count,
            1,
            "B still pending"
        );
        assert_eq!(iop_b.service(&mut s).unwrap(), 1);
    }
}
