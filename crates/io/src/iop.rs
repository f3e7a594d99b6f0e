//! Attached I/O subsystems: asynchronous device I/O through ports.
//!
//! Paper §3: "Multiple independent I/O subsystems provide a similar
//! expansion for the I/O bandwidth of a single system." On the 432,
//! attached I/O processors drained request ports and posted completions
//! back — the GDPs never waited for devices unless they chose to RECEIVE.
//!
//! [`IoSubsystem`] reproduces that structure: clients SEND a request
//! object to a device's request port and go on computing; the subsystem
//! receives it, submits it to the device's [`VirtioDevice`], and that
//! device's completion routine SENDs the request object back to the
//! *reply port named inside the request* with the results filled in.
//! The client RECEIVEs the completion whenever it likes — overlap of
//! computation and I/O falls out of the port mechanism with no new
//! concepts, which is the uniformity the paper is about.
//!
//! The subsystem is serviced deterministically between simulation steps
//! (the real AIPs ran truly in parallel; determinism of the measurements
//! is worth more to a reproduction than wall-clock concurrency, and the
//! *client-visible* asynchrony is identical).
//!
//! ## Requests
//!
//! Requests use the virtio layout ([`crate::virtio`]'s `VREQ_*`
//! offsets). The operation word holds the §6.3 subprogram index
//! ([`crate::OP_OPEN`] .. [`crate::OP_STATUS`] or
//! [`crate::OP_CONTROL_BASE`] + k), the LBA word a control operation's
//! argument, and the length word a transfer's byte count; status and
//! count come back in place, with the read data in the data area.

use crate::iface::{op_cost, perform, DeviceError, DeviceImpl};
use crate::virtio::{VirtioDevice, VirtioModel, VirtioStats, VIRTIO_S_IOERR, VIRTIO_S_UNSUPP};
use i432_arch::{ObjectRef, PortDiscipline, SpaceMut};
use i432_gdp::{
    port::{self, RecvOutcome},
    Fault,
};
use imax_ipc::Port;
use parking_lot::Mutex;
use std::sync::Arc;

/// Drives a [`DeviceImpl`] as a [`VirtioModel`] through [`perform`] and
/// [`op_cost`].
struct DeviceModel(Arc<Mutex<dyn DeviceImpl>>);

impl VirtioModel for DeviceModel {
    fn execute(&mut self, op: u64, aux: u64, data: &mut [u8]) -> Result<u64, u64> {
        let op = u32::try_from(op).map_err(|_| VIRTIO_S_UNSUPP)?;
        perform(&mut *self.0.lock(), op, aux, data).map_err(|e| match e {
            DeviceError::Unsupported => VIRTIO_S_UNSUPP,
            _ => VIRTIO_S_IOERR,
        })
    }

    fn cost(&self, op: u64, len: u64) -> u64 {
        let op = u32::try_from(op).unwrap_or(u32::MAX);
        op_cost(op, len, self.0.lock().cycles_per_byte())
    }
}

/// One independent I/O subsystem: several devices serviced together
/// (paper §3's "multiple independent I/O subsystems"), each a request
/// port in front of a [`VirtioDevice`].
#[derive(Default)]
pub struct IoSubsystem {
    devices: Vec<(Port, VirtioDevice<DeviceModel>)>,
}

impl IoSubsystem {
    /// An empty subsystem.
    pub fn new() -> IoSubsystem {
        IoSubsystem::default()
    }

    /// Attaches a device behind a fresh request port of `queue_depth`
    /// messages allocated from `sro`; returns the port (hand out
    /// send-only views).
    pub fn attach<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        sro: ObjectRef,
        device: Arc<Mutex<dyn DeviceImpl>>,
        queue_depth: u32,
    ) -> Result<Port, Fault> {
        let port = imax_ipc::create_port(space, sro, queue_depth, PortDiscipline::Fifo)?;
        let device = VirtioDevice::new(DeviceModel(device), queue_depth);
        self.devices.push((port, device));
        Ok(port)
    }

    /// Services every attached device once: receives each queued request
    /// in arrival order, submits it, then services the device, which
    /// completes the requests in that order. No request is left in a
    /// device, where the collector could not see it. Returns the total
    /// completions.
    pub fn service<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<u32, Fault> {
        let mut total = 0;
        for (port, device) in &self.devices {
            while let RecvOutcome::Received(req) =
                port::receive(space, None, port.ad(), false, true)?
            {
                device.submit(req);
            }
            total += device.service(space)?.0;
            device.assert_idle();
        }
        Ok(total as u32)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> VirtioStats {
        let mut s = VirtioStats::default();
        for (_, device) in &self.devices {
            let d = device.stats();
            s.submitted += d.submitted;
            s.backlogged += d.backlogged;
            s.completed += d.completed;
            s.failed += d.failed;
            s.device_cycles += d.device_cycles;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::console::ConsoleDevice;
    use crate::iface::{DeviceStatus, OP_CONTROL_BASE, OP_OPEN, OP_READ, OP_STATUS, OP_WRITE};
    use crate::tape::{TapeDrive, TAPE_OP_SEEK};
    use crate::virtio::{
        VIRTIO_S_OK, VREQ_COUNT_OFF, VREQ_DATA_OFF, VREQ_LBA_OFF, VREQ_LEN_OFF, VREQ_OP_OFF,
        VREQ_SLOT_REPLY, VREQ_STATUS_OFF,
    };
    use i432_arch::{AccessDescriptor, ObjectSpec, Rights, ShardedSpace};
    use imax_ipc::untyped;

    fn request(
        space: &mut ShardedSpace,
        op: u32,
        aux: u64,
        len: u64,
        data: &[u8],
        reply: Port,
    ) -> AccessDescriptor {
        let root = space.root_sro();
        let o = space
            .create_object(root, ObjectSpec::generic(VREQ_DATA_OFF + 64, 2))
            .unwrap();
        let ad = space.mint(o, Rights::ALL);
        space.write_u64(ad, VREQ_OP_OFF, op as u64).unwrap();
        space.write_u64(ad, VREQ_LBA_OFF, aux).unwrap();
        space.write_u64(ad, VREQ_LEN_OFF, len).unwrap();
        if !data.is_empty() {
            space.write_data(ad, VREQ_DATA_OFF, data).unwrap();
        }
        space
            .store_ad_hw(o, VREQ_SLOT_REPLY, Some(reply.ad()))
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
        let r_open = request(&mut s, OP_OPEN, 0, 0, &[], reply);
        let r_write = request(&mut s, OP_WRITE, 0, 4, b"ping", reply);
        let r_read = request(&mut s, OP_READ, 0, 4, &[], reply);
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
            assert_eq!(s.read_u64(expected, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_OK);
        }
        // The write reached the device; the read brought back the script.
        assert_eq!(console.lock().transcript(), b"ping");
        let mut buf = [0u8; 4];
        s.read_data(r_read, VREQ_DATA_OFF, &mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        assert_eq!(s.read_u64(r_read, VREQ_COUNT_OFF).unwrap(), 4);
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
        let r = request(&mut s, OP_READ, 0, 4, &[], reply);
        untyped::send(&mut s, req_port, r).unwrap();
        iop.service(&mut s).unwrap();
        let c = untyped::receive(&mut s, reply).unwrap().unwrap();
        assert_eq!(c.obj, r.obj);
        assert_eq!(s.read_u64(r, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_IOERR);
        assert_eq!(iop.stats().failed, 1);
    }

    /// A length longer than the request's data area fails the request
    /// with an I/O error: nothing is allocated for it, and the device
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
        let open = request(&mut s, OP_OPEN, 0, 0, &[], reply);
        untyped::send(&mut s, req_port, open).unwrap();
        // `request` leaves 64 bytes of data area past the header.
        let mut oversize = Vec::new();
        for len in [u64::MAX, 64 + 1] {
            for op in [OP_READ, OP_WRITE] {
                let r = request(&mut s, op, 0, len, &[], reply);
                untyped::send(&mut s, req_port, r).unwrap();
                oversize.push(r);
            }
        }
        let read = request(&mut s, OP_READ, 0, 64, &[], reply);
        untyped::send(&mut s, req_port, read).unwrap();
        assert_eq!(iop.service(&mut s).unwrap(), 6);
        for r in oversize {
            assert_eq!(s.read_u64(r, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_IOERR);
        }
        assert_eq!(iop.stats().failed, 4);
        // No write reached the console, and the one valid read still
        // finds the whole script.
        assert_eq!(console.lock().transcript(), b"");
        assert_eq!(s.read_u64(read, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_OK);
        assert_eq!(s.read_u64(read, VREQ_COUNT_OFF).unwrap(), 6);
    }

    /// Control and status travel the same path as transfers: a tape
    /// seek carries its record number in the LBA word, and every
    /// request completes in the order it was sent.
    #[test]
    fn control_and_status_complete_in_order() {
        let mut s = ShardedSpace::new(128 * 1024, 8 * 1024, 1024, 1);
        let root = s.root_sro();
        let tape = Arc::new(Mutex::new(TapeDrive::new("mt0")));
        let mut iop = IoSubsystem::new();
        let req_port = iop.attach(&mut s, root, tape, 8).unwrap();
        let reply =
            imax_ipc::create_port(&mut s, root, 8, i432_arch::PortDiscipline::Fifo).unwrap();
        let reqs = [
            request(&mut s, OP_OPEN, 0, 0, &[], reply),
            request(&mut s, OP_WRITE, 0, 4, b"AAAA", reply),
            request(&mut s, OP_WRITE, 0, 4, b"BBBB", reply),
            request(&mut s, OP_CONTROL_BASE + TAPE_OP_SEEK, 1, 0, &[], reply),
            request(&mut s, OP_READ, 0, 4, &[], reply),
            request(&mut s, OP_STATUS, 0, 0, &[], reply),
        ];
        for r in reqs {
            untyped::send(&mut s, req_port, r).unwrap();
        }
        assert_eq!(iop.service(&mut s).unwrap(), 6);
        for r in reqs {
            let c = untyped::receive(&mut s, reply).unwrap().unwrap();
            assert_eq!(c.obj, r.obj);
            assert_eq!(s.read_u64(r, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_OK);
        }
        let mut buf = [0u8; 4];
        s.read_data(reqs[4], VREQ_DATA_OFF, &mut buf).unwrap();
        assert_eq!(&buf, b"BBBB");
        let status = DeviceStatus::unpack(s.read_u64(reqs[5], VREQ_COUNT_OFF).unwrap());
        assert!(status.open && status.ready);
        assert_eq!(status.position, 2);
        let stats = iop.stats();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (6, 6, 0));
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
        let ra = request(&mut s, OP_OPEN, 0, 0, &[], reply);
        let rb = request(&mut s, OP_OPEN, 0, 0, &[], reply);
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
