//! Virtio-shaped asynchronous devices: the one completion path.
//!
//! A device package instance ([`crate::family`]) makes every device call
//! a domain CALL. Every asynchronous device goes through
//! [`VirtioDevice`] instead — the filing server's block store
//! ([`VirtioBlock`]) directly, and each device attached to an
//! [`crate::iop::IoSubsystem`] behind its request port. It has the shape
//! every modern paravirtual device uses and Norost-b's
//! `virtio_blk`/`virtio_net` drivers are built on: a **per-device
//! submission queue** of request descriptors, a **submission/completion
//! split** (submitting never waits for the device), and
//! **completion-interrupt delivery** — the device posts the finished
//! request object to the reply port named inside the request, so a
//! client (or a `TypedPort`-wrapped receiver) picks completions up
//! through the ordinary port machinery.
//!
//! The queue is one FIFO behind a mutex. Both callers submit a batch and
//! service it within one call that holds the space exclusively: a native
//! call, which runs inside an all-shard section, or
//! [`crate::iop::IoSubsystem::service`]. So the mutex is never contended.
//!
//! ## Determinism
//!
//! Block requests name their operation explicitly and carry an absolute
//! LBA, so executing a batch in any order produces the same per-request
//! results, and the cycle model (`base + per-byte × len`) depends only
//! on the request itself. A batch completes in submission order, so
//! every runner and schedule hands each client the same results, which
//! the conform `filing` workload checks.
//!
//! ## Collector visibility
//!
//! The collector scans port rings for in-flight messages but
//! knows nothing of device queues. The rule that keeps requests reachable
//! is a drain discipline, not a scan: a service routine that submits
//! into the queue must drain it to empty before its atomic section
//! ends ([`VirtioDevice::service`] + [`VirtioDevice::assert_idle`]).
//! Native calls hold every shard lock, so a collector can never observe
//! a nonempty queue. DESIGN.md §14 spells the argument out.

use i432_arch::{AccessDescriptor, Rights, SpaceMut};
use i432_gdp::{
    port::{self, SendOutcome},
    Fault, FaultKind,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Request descriptor layout (virtio-shaped: one request object carries
// header + status + data, completion rewrites it in place).
// ---------------------------------------------------------------------

/// Offset of the operation code in a virtio request object.
pub const VREQ_OP_OFF: u32 = 0;
/// Offset of the absolute block address (block requests).
pub const VREQ_LBA_OFF: u32 = 8;
/// Offset of the transfer length in bytes.
pub const VREQ_LEN_OFF: u32 = 16;
/// Offset of the completion status (written by the device).
pub const VREQ_STATUS_OFF: u32 = 24;
/// Offset of the result count (written by the device).
pub const VREQ_COUNT_OFF: u32 = 32;
/// Offset of the simulated device cycles charged (written by the device).
pub const VREQ_CYCLES_OFF: u32 = 40;
/// Offset of the transfer data area.
pub const VREQ_DATA_OFF: u32 = 48;
/// Access slot of the reply port inside a virtio request object.
pub const VREQ_SLOT_REPLY: u32 = 0;

/// Block read at an absolute LBA.
pub const VIRTIO_OP_READ: u64 = 0;
/// Block write at an absolute LBA.
pub const VIRTIO_OP_WRITE: u64 = 1;
/// Block flush (barrier; data is already durable in the model).
pub const VIRTIO_OP_FLUSH: u64 = 2;

/// Completion status: success.
pub const VIRTIO_S_OK: u64 = 0;
/// Completion status: I/O error (bad LBA, a length past the data area,
/// or a failed device operation).
pub const VIRTIO_S_IOERR: u64 = 1;
/// Completion status: operation not supported by this device model.
pub const VIRTIO_S_UNSUPP: u64 = 2;

// ---------------------------------------------------------------------
// Device models.
// ---------------------------------------------------------------------

/// A device model a [`VirtioDevice`] drives: executes one request
/// descriptor and prices it deterministically.
pub trait VirtioModel: Send {
    /// Executes one operation in place on `data`. Returns the result
    /// count on success, a `VIRTIO_S_*` status (nonzero) on failure.
    /// A lone submitter that submits a batch and then services the
    /// device, as the filing server and [`crate::iop::IoSubsystem`] do,
    /// has it executed in submission order, so a model may keep state
    /// across requests, such as a tape's position. Concurrent submitters
    /// are not ordered among themselves: a model they share must make
    /// each result depend only on the request and its committed state,
    /// as [`VirtioBlock`]'s absolute LBAs do.
    fn execute(&mut self, op: u64, lba: u64, data: &mut [u8]) -> Result<u64, u64>;

    /// Deterministic simulated cycles for one request — a pure function
    /// of the request, identical on every runner.
    fn cost(&self, op: u64, len: u64) -> u64;
}

/// A fixed-geometry virtio block device: every request names its LBA,
/// so concurrent batches execute order-independently (unlike
/// [`crate::disk::RamDisk`], whose seek cursor serializes clients).
#[derive(Debug)]
pub struct VirtioBlock {
    block_size: usize,
    blocks: Vec<Vec<u8>>,
}

impl VirtioBlock {
    /// A device of `blocks` blocks of `block_size` bytes, ready at once
    /// (virtio devices negotiate at attach, not per-request).
    pub fn new(blocks: usize, block_size: usize) -> VirtioBlock {
        VirtioBlock {
            block_size,
            blocks: vec![vec![0; block_size]; blocks],
        }
    }

    /// Reads the block at `lba` into `buf` (short reads allowed).
    pub fn read_at(&self, lba: u64, buf: &mut [u8]) -> Result<u64, u64> {
        let block = self.blocks.get(lba as usize).ok_or(VIRTIO_S_IOERR)?;
        let n = block.len().min(buf.len());
        buf[..n].copy_from_slice(&block[..n]);
        Ok(n as u64)
    }

    /// Writes `buf` over the block at `lba`; short writes zero-fill.
    pub fn write_at(&mut self, lba: u64, buf: &[u8]) -> Result<u64, u64> {
        if buf.len() > self.block_size {
            return Err(VIRTIO_S_IOERR);
        }
        let block = self.blocks.get_mut(lba as usize).ok_or(VIRTIO_S_IOERR)?;
        block.fill(0);
        block[..buf.len()].copy_from_slice(buf);
        Ok(buf.len() as u64)
    }
}

impl VirtioModel for VirtioBlock {
    fn execute(&mut self, op: u64, lba: u64, data: &mut [u8]) -> Result<u64, u64> {
        match op {
            VIRTIO_OP_READ => self.read_at(lba, data),
            VIRTIO_OP_WRITE => self.write_at(lba, data),
            VIRTIO_OP_FLUSH => Ok(0),
            _ => Err(VIRTIO_S_UNSUPP),
        }
    }

    fn cost(&self, op: u64, len: u64) -> u64 {
        match op {
            // Seek + transfer: the classic disk shape.
            VIRTIO_OP_READ | VIRTIO_OP_WRITE => 600 + 4 * len,
            VIRTIO_OP_FLUSH => 300,
            _ => 10,
        }
    }
}

// ---------------------------------------------------------------------
// The async device: submission/completion split over one FIFO.
// ---------------------------------------------------------------------

/// Counters for one virtio device.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VirtioStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Submissions that found the queue full: `queue_depth` requests
    /// already pending.
    pub backlogged: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with a nonzero status.
    pub failed: u64,
    /// Simulated device cycles consumed.
    pub device_cycles: u64,
}

/// An asynchronous virtio device: a FIFO submission queue, a
/// [`VirtioModel`] executing requests, and completion delivery to the
/// reply port each request names.
pub struct VirtioDevice<M: VirtioModel> {
    model: Arc<Mutex<M>>,
    /// Submitted requests, oldest first.
    queue: Mutex<VecDeque<AccessDescriptor>>,
    /// The queue's depth. It takes submissions past it too, and counts
    /// them in [`VirtioStats::backlogged`].
    depth: usize,
    submitted: AtomicU64,
    backlogged: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    device_cycles: AtomicU64,
}

impl<M: VirtioModel> VirtioDevice<M> {
    /// Wraps `model` behind a submission queue `queue_depth` requests
    /// deep (at least one).
    pub fn new(model: M, queue_depth: u32) -> VirtioDevice<M> {
        VirtioDevice {
            model: Arc::new(Mutex::new(model)),
            queue: Mutex::new(VecDeque::new()),
            depth: queue_depth.max(1) as usize,
            submitted: AtomicU64::new(0),
            backlogged: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            device_cycles: AtomicU64::new(0),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &Arc<Mutex<M>> {
        &self.model
    }

    /// A point-in-time copy of the device counters.
    pub fn stats(&self) -> VirtioStats {
        VirtioStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            backlogged: self.backlogged.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            device_cycles: self.device_cycles.load(Ordering::Relaxed),
        }
    }

    /// Submits one request descriptor. Never waits for the device and
    /// never touches the space.
    pub fn submit(&self, req: AccessDescriptor) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        i432_trace::bump(i432_trace::Counter::DevSubmits);
        let mut queue = self.queue.lock();
        if queue.len() >= self.depth {
            self.backlogged.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(req);
    }

    /// Services the device: claims every submitted descriptor, oldest
    /// first, executes each on the model, writes status/count/cycles back
    /// into the request object, and posts it to the reply port named in
    /// its access slot 0 — the completion interrupt.
    ///
    /// Returns `(completions, simulated cycles)` so the calling native
    /// can charge the deterministic cost.
    pub fn service<S: SpaceMut + ?Sized>(&self, space: &mut S) -> Result<(u64, u64), Fault> {
        let mut done = 0u64;
        let mut cycles = 0u64;
        loop {
            let Some(req) = self.queue.lock().pop_front() else {
                break;
            };
            cycles += self.complete_one(space, req)?;
            done += 1;
        }
        Ok((done, cycles))
    }

    /// Asserts the drain discipline that stands in for collector
    /// visibility: no descriptor may rest in the device between atomic
    /// sections (debug builds only).
    pub fn assert_idle(&self) {
        debug_assert!(
            self.queue.lock().is_empty(),
            "device queue must be drained before the atomic section ends"
        );
    }

    fn complete_one<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
        req: AccessDescriptor,
    ) -> Result<u64, Fault> {
        // The device is trusted: full access to the request object.
        let req = AccessDescriptor::new(req.obj, Rights::ALL);
        let op = space.read_u64(req, VREQ_OP_OFF).map_err(Fault::from)?;
        let lba = space.read_u64(req, VREQ_LBA_OFF).map_err(Fault::from)?;
        let len = space.read_u64(req, VREQ_LEN_OFF).map_err(Fault::from)?;
        // The guest writes the length: a transfer longer than the
        // request's data area fails with an I/O error, costing nothing,
        // before anything is allocated for it or it reaches the device.
        let data_len = space.entry(req.obj).map_err(Fault::from)?.desc.data_len;
        let (status, count, cycles) = if len > u64::from(data_len.saturating_sub(VREQ_DATA_OFF)) {
            (VIRTIO_S_IOERR, 0, 0)
        } else {
            let mut data = vec![0u8; len as usize];
            space
                .read_data(req, VREQ_DATA_OFF, &mut data)
                .map_err(Fault::from)?;
            let mut model = self.model.lock();
            let cycles = model.cost(op, len);
            let (status, count) = match model.execute(op, lba, &mut data) {
                Ok(count) => (VIRTIO_S_OK, count),
                Err(status) => (status, 0),
            };
            drop(model);
            if status == VIRTIO_S_OK {
                space
                    .write_data(req, VREQ_DATA_OFF, &data)
                    .map_err(Fault::from)?;
            }
            (status, count, cycles)
        };
        space
            .write_u64(req, VREQ_STATUS_OFF, status)
            .map_err(Fault::from)?;
        space
            .write_u64(req, VREQ_COUNT_OFF, count)
            .map_err(Fault::from)?;
        space
            .write_u64(req, VREQ_CYCLES_OFF, cycles)
            .map_err(Fault::from)?;

        self.device_cycles.fetch_add(cycles, Ordering::Relaxed);
        if status == VIRTIO_S_OK {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        i432_trace::bump(i432_trace::Counter::DevCompletions);

        Self::post_completion(space, req)?;
        Ok(cycles)
    }

    /// Posts the finished request to its reply port (forced enqueue, as
    /// an interrupt must never be dropped for lack of queue space).
    fn post_completion<S: SpaceMut + ?Sized>(
        space: &mut S,
        req: AccessDescriptor,
    ) -> Result<(), Fault> {
        let reply = space
            .load_ad_hw(req.obj, VREQ_SLOT_REPLY)
            .map_err(Fault::from)?
            .ok_or_else(|| {
                Fault::with_detail(FaultKind::NullAccess, "virtio request has no reply port")
            })?;
        match port::send(space, None, reply, req, 0, false, true)? {
            SendOutcome::Queued | SendOutcome::Delivered => Ok(()),
            _ => Err(Fault::with_detail(
                FaultKind::QueueOverflow,
                "reply port full; completion interrupt lost",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{ObjectSpec, PortDiscipline, ShardedSpace};

    fn space() -> ShardedSpace {
        ShardedSpace::new(256 * 1024, 16 * 1024, 4096, 1)
    }

    fn mk_req(
        s: &mut ShardedSpace,
        reply: imax_ipc::Port,
        op: u64,
        lba: u64,
        data: &[u8],
    ) -> AccessDescriptor {
        let root = s.root_sro();
        let o = s
            .create_object(root, ObjectSpec::generic(VREQ_DATA_OFF + 256, 2))
            .unwrap();
        let ad = AccessDescriptor::new(o, Rights::ALL);
        s.write_u64(ad, VREQ_OP_OFF, op).unwrap();
        s.write_u64(ad, VREQ_LBA_OFF, lba).unwrap();
        s.write_u64(ad, VREQ_LEN_OFF, data.len() as u64).unwrap();
        s.write_data(ad, VREQ_DATA_OFF, data).unwrap();
        s.store_ad_hw(o, VREQ_SLOT_REPLY, Some(reply.ad())).unwrap();
        ad
    }

    #[test]
    fn block_roundtrip_through_the_queue() {
        let mut s = space();
        let root = s.root_sro();
        let reply = imax_ipc::create_port(&mut s, root, 16, PortDiscipline::Fifo).unwrap();
        let dev = VirtioDevice::new(VirtioBlock::new(64, 128), 8);

        let w = mk_req(&mut s, reply, VIRTIO_OP_WRITE, 5, b"persistent");
        let r = mk_req(&mut s, reply, VIRTIO_OP_READ, 5, &[0u8; 10]);
        dev.submit(w);
        dev.submit(r);
        let (done, cycles) = dev.service(&mut s).unwrap();
        assert_eq!(done, 2);
        assert_eq!(cycles, 2 * (600 + 4 * 10));
        dev.assert_idle();

        // Both completions arrive at the reply port, write first.
        let c1 = imax_ipc::untyped::receive(&mut s, reply).unwrap().unwrap();
        let c2 = imax_ipc::untyped::receive(&mut s, reply).unwrap().unwrap();
        assert_eq!(c1.obj, w.obj);
        assert_eq!(c2.obj, r.obj);
        let c2 = AccessDescriptor::new(c2.obj, Rights::ALL);
        assert_eq!(s.read_u64(c2, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_OK);
        assert_eq!(s.read_u64(c2, VREQ_COUNT_OFF).unwrap(), 10);
        let mut buf = [0u8; 10];
        s.read_data(c2, VREQ_DATA_OFF, &mut buf).unwrap();
        assert_eq!(&buf, b"persistent");

        let st = dev.stats();
        assert_eq!(st.submitted, 2);
        assert_eq!(st.completed, 2);
        assert_eq!(st.failed, 0);
        assert_eq!(st.backlogged, 0);
    }

    /// One FIFO: a batch deeper than the device completes at the reply
    /// port in submission order, and only the submissions that found the
    /// queue full count as backlogged.
    #[test]
    fn one_queue_completes_in_submission_order() {
        let mut s = space();
        let root = s.root_sro();
        let reply = imax_ipc::create_port(&mut s, root, 16, PortDiscipline::Fifo).unwrap();
        let dev = VirtioDevice::new(VirtioBlock::new(64, 128), 4);
        let batch: Vec<AccessDescriptor> = (0..6)
            .map(|lba| mk_req(&mut s, reply, VIRTIO_OP_WRITE, lba, &[lba as u8; 32]))
            .collect();
        for &req in &batch {
            dev.submit(req);
        }
        assert_eq!(dev.service(&mut s).unwrap(), (6, 6 * (600 + 4 * 32)));
        dev.assert_idle();
        for req in &batch {
            let c = imax_ipc::untyped::receive(&mut s, reply).unwrap().unwrap();
            assert_eq!(c.obj, req.obj, "completions arrive in submission order");
        }
        assert_eq!(dev.stats().backlogged, 2, "the two past depth 4");

        // The drained queue takes a batch within its depth.
        for lba in 6..9 {
            let req = mk_req(&mut s, reply, VIRTIO_OP_WRITE, lba, &[lba as u8; 32]);
            dev.submit(req);
        }
        assert_eq!(dev.service(&mut s).unwrap().0, 3);
        let st = dev.stats();
        assert_eq!((st.submitted, st.completed, st.backlogged), (9, 9, 2));
    }

    #[test]
    fn bad_lba_fails_cleanly() {
        let mut s = space();
        let root = s.root_sro();
        let reply = imax_ipc::create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let dev = VirtioDevice::new(VirtioBlock::new(4, 64), 4);
        let req = mk_req(&mut s, reply, VIRTIO_OP_READ, 1000, &[0u8; 8]);
        dev.submit(req);
        dev.service(&mut s).unwrap();
        let c = imax_ipc::untyped::receive(&mut s, reply).unwrap().unwrap();
        let c = AccessDescriptor::new(c.obj, Rights::ALL);
        assert_eq!(s.read_u64(c, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_IOERR);
        assert_eq!(dev.stats().failed, 1);
    }

    /// A length longer than the request's data area fails with an I/O
    /// error and no cycles: nothing is allocated for it, and the device
    /// never sees it.
    #[test]
    fn oversize_lengths_fail_without_reaching_the_device() {
        let mut s = space();
        let root = s.root_sro();
        let reply = imax_ipc::create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let dev = VirtioDevice::new(VirtioBlock::new(4, 64), 4);
        // `mk_req` leaves 256 bytes of data area past the header.
        for len in [u64::MAX, 256 + 1] {
            let req = mk_req(&mut s, reply, VIRTIO_OP_WRITE, 0, b"payload");
            s.write_u64(req, VREQ_LEN_OFF, len).unwrap();
            dev.submit(req);
        }
        assert_eq!(dev.service(&mut s).unwrap(), (2, 0));
        for _ in 0..2 {
            let c = imax_ipc::untyped::receive(&mut s, reply).unwrap().unwrap();
            let c = AccessDescriptor::new(c.obj, Rights::ALL);
            assert_eq!(s.read_u64(c, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_IOERR);
            assert_eq!(s.read_u64(c, VREQ_CYCLES_OFF).unwrap(), 0);
        }
        assert_eq!(dev.stats().failed, 2);
        let mut block = [0xffu8; 8];
        dev.model().lock().read_at(0, &mut block).unwrap();
        assert_eq!(block, [0u8; 8], "no write reached the device");
    }
}
