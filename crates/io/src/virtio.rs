//! Virtio-shaped asynchronous block and net device models.
//!
//! The synchronous family ([`crate::iface`]) makes every device call a
//! domain CALL; [`crate::iop`] makes it a port rendezvous. Both leave
//! the device strictly *behind* the kernel's locked paths. This module
//! adds the third shape — the one every modern paravirtual device uses
//! and the one Norost-b's `virtio_blk`/`virtio_net` drivers are built
//! on: a **per-device descriptor ring** that producers publish request
//! descriptors into without a lock, a **submission/completion split**
//! (submitting never waits for the device), and **completion-interrupt
//! delivery** — the device posts the finished request object to the
//! reply port named inside the request, so a client (or a
//! `TypedPort`-wrapped receiver) picks completions up through the
//! ordinary port machinery.
//!
//! ## The descriptor ring
//!
//! [`VirtQueue`] reuses the slot/sequence discipline of
//! [`i432_arch::portring::PortRing`] verbatim: per-slot sequence
//! numbers distinguish free/published/consumed without compare-swapping
//! payloads, head/tail carry a freeze bit (bit 63) so the queue can be
//! frozen, drained oldest-first, and retired exactly like a port ring,
//! and all position arithmetic wraps mod 2^63. What differs is only
//! ownership: a `PortRing` shadows a port's message area and must stay
//! coherent with the locked rendezvous path; a `VirtQueue` *is* the
//! device's submission area, so it is born open.
//!
//! ## Determinism
//!
//! Request descriptors name their operation explicitly — block requests
//! carry an absolute LBA, net requests are self-contained echo frames —
//! so executing a batch in any order produces the same per-request
//! results, and the cycle model (`base + per-byte × len`) depends only
//! on the request itself. The deterministic runner therefore stays
//! bit-identical whether requests travel through the ring or through
//! the locked backlog, which is exactly the differential the conform
//! `filing` workload checks.
//!
//! ## Collector visibility
//!
//! The parallel collector scans port rings for in-flight messages but
//! knows nothing of virtqueues. The rule that keeps requests reachable
//! is a drain discipline, not a scan: a service routine that submits
//! into the queue must drain it to empty before its atomic section
//! ends ([`VirtioDevice::service`] + [`VirtioDevice::assert_idle`]).
//! Native calls hold every shard lock, so a collector can never observe
//! a nonempty queue. DESIGN.md §14 spells the argument out.

use crate::iface::{DeviceError, DeviceImpl, DeviceStatus};
use i432_arch::{AccessDescriptor, ObjectIndex, ObjectRef, Rights, SpaceMut};
use i432_gdp::{
    port::{self, SendOutcome},
    Fault, FaultKind,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
/// Net echo: transmit the frame, receive it back in place.
pub const VIRTIO_OP_ECHO: u64 = 3;

/// Completion status: success.
pub const VIRTIO_S_OK: u64 = 0;
/// Completion status: I/O error (bad LBA, device closed, short frame).
pub const VIRTIO_S_IOERR: u64 = 1;
/// Completion status: operation not supported by this device model.
pub const VIRTIO_S_UNSUPP: u64 = 2;

// ---------------------------------------------------------------------
// VirtQueue — the descriptor ring.
// ---------------------------------------------------------------------

const LOCK: u64 = 1 << 63;
const POS_MASK: u64 = LOCK - 1;

#[inline]
fn wadd(pos: u64, n: u64) -> u64 {
    pos.wrapping_add(n) & POS_MASK
}

#[inline]
fn wsub(a: u64, b: u64) -> u64 {
    a.wrapping_sub(b) & POS_MASK
}

/// Bounded CAS retries before a fast op reports contention.
const CLAIM_RETRIES: u32 = 8;

/// Why a fast virtqueue operation refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueRefusal {
    /// The queue is frozen or retired.
    Locked,
    /// Push: the queue holds `capacity` descriptors.
    Full,
    /// Pop: no published descriptor at the head.
    Empty,
    /// A concurrent claim won the race repeatedly.
    Contended,
}

#[repr(align(64))]
struct Slot {
    seq: AtomicU64,
    obj: AtomicU64,
    rights: AtomicU64,
}

/// A lock-free MPMC descriptor ring owned by one device.
///
/// Same discipline as [`i432_arch::portring::PortRing`]: slot `i`
/// carries `seq == pos` when free for position `pos`, `pos + 1` when
/// published, and `pos + nslots` after consumption recycles it for the
/// next lap. Head/tail carry the freeze bit in bit 63.
pub struct VirtQueue {
    capacity: u32,
    slots: Box<[Slot]>,
    head: AtomicU64,
    tail: AtomicU64,
    /// Set when the owning device was torn down: the queue never
    /// reopens.
    dead: AtomicBool,
}

impl std::fmt::Debug for VirtQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtQueue")
            .field("capacity", &self.capacity)
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("tail", &self.tail.load(Ordering::Relaxed))
            .finish()
    }
}

impl VirtQueue {
    /// An open queue of `capacity` descriptors.
    pub fn new(capacity: u32) -> VirtQueue {
        Self::with_start(capacity, 0)
    }

    /// Test hook: a queue whose positions start at `start` (mod 2^63),
    /// to exercise head/tail wraparound.
    pub fn with_start(capacity: u32, start: u64) -> VirtQueue {
        let nslots = capacity.max(1).next_power_of_two() as usize;
        let start = start & POS_MASK;
        let mut seqs = vec![0u64; nslots];
        for i in 0..nslots {
            let pos = wadd(start, i as u64);
            seqs[(pos as usize) & (nslots - 1)] = pos;
        }
        let slots: Box<[Slot]> = seqs
            .into_iter()
            .map(|seq| Slot {
                seq: AtomicU64::new(seq),
                obj: AtomicU64::new(0),
                rights: AtomicU64::new(0),
            })
            .collect();
        VirtQueue {
            capacity: capacity.max(1),
            slots,
            head: AtomicU64::new(start),
            tail: AtomicU64::new(start),
            dead: AtomicBool::new(false),
        }
    }

    /// The queue's logical capacity.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// True when the owning device retired the queue.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    #[inline]
    fn slot(&self, pos: u64) -> &Slot {
        &self.slots[(pos as usize) & (self.slots.len() - 1)]
    }

    /// Published descriptors currently in the queue (racy snapshot).
    pub fn occupancy(&self) -> u64 {
        let t = self.tail.load(Ordering::Acquire) & POS_MASK;
        let h = self.head.load(Ordering::Acquire) & POS_MASK;
        wsub(t, h).min(self.capacity as u64)
    }

    /// Fast-path submit: claim the tail slot and publish `req`.
    pub fn push(&self, req: AccessDescriptor) -> Result<(), QueueRefusal> {
        for _ in 0..CLAIM_RETRIES {
            let t = self.tail.load(Ordering::Acquire);
            if t & LOCK != 0 {
                return Err(QueueRefusal::Locked);
            }
            let h = self.head.load(Ordering::Acquire);
            if h & LOCK != 0 {
                return Err(QueueRefusal::Locked);
            }
            if wsub(t, h) >= self.capacity as u64 {
                return Err(QueueRefusal::Full);
            }
            let slot = self.slot(t);
            if slot.seq.load(Ordering::Acquire) != t {
                continue;
            }
            if self
                .tail
                .compare_exchange_weak(t, wadd(t, 1), Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let obj = (u64::from(req.obj.generation) << 32) | u64::from(req.obj.index.0);
            slot.obj.store(obj, Ordering::Relaxed);
            slot.rights
                .store(u64::from(req.rights.bits()), Ordering::Relaxed);
            slot.seq.store(wadd(t, 1), Ordering::Release);
            return Ok(());
        }
        Err(QueueRefusal::Contended)
    }

    /// Fast-path claim of the oldest published descriptor.
    pub fn pop(&self) -> Result<AccessDescriptor, QueueRefusal> {
        for _ in 0..CLAIM_RETRIES {
            let h = self.head.load(Ordering::Acquire);
            if h & LOCK != 0 {
                return Err(QueueRefusal::Locked);
            }
            let slot = self.slot(h);
            if slot.seq.load(Ordering::Acquire) != wadd(h, 1) {
                return Err(QueueRefusal::Empty);
            }
            if self
                .head
                .compare_exchange_weak(h, wadd(h, 1), Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let req = Self::read_slot(slot);
            slot.seq
                .store(wadd(h, self.slots.len() as u64), Ordering::Release);
            return Ok(req);
        }
        Err(QueueRefusal::Contended)
    }

    fn read_slot(slot: &Slot) -> AccessDescriptor {
        let obj = slot.obj.load(Ordering::Relaxed);
        let rights = slot.rights.load(Ordering::Relaxed);
        AccessDescriptor {
            obj: ObjectRef {
                index: ObjectIndex(obj as u32),
                generation: (obj >> 32) as u32,
            },
            rights: Rights::from_bits(rights as u8),
        }
    }

    /// Freezes the queue (tail first, so no new claim set can form) and
    /// hands every frozen descriptor, oldest first, to `f`. Spins out
    /// in-flight publishers. Returns the number drained.
    ///
    /// Callers serialize every `freeze_and_drain` and [`Self::retire`]
    /// on one queue; only `push` and `pop` may race them. Two
    /// unserialized drains read the same `[head, tail)`, and the second
    /// spins forever on a slot the first has already recycled.
    pub fn freeze_and_drain(&self, mut f: impl FnMut(AccessDescriptor)) -> u64 {
        let t = self.tail.fetch_or(LOCK, Ordering::AcqRel) & POS_MASK;
        let h = self.head.fetch_or(LOCK, Ordering::AcqRel) & POS_MASK;
        let n = wsub(t, h);
        let mut pos = h;
        for _ in 0..n {
            let slot = self.slot(pos);
            while slot.seq.load(Ordering::Acquire) != wadd(pos, 1) {
                std::hint::spin_loop();
            }
            let req = Self::read_slot(slot);
            slot.seq
                .store(wadd(pos, self.slots.len() as u64), Ordering::Release);
            f(req);
            pos = wadd(pos, 1);
        }
        self.head.store(t | LOCK, Ordering::Release);
        n
    }

    /// True when the queue is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.tail.load(Ordering::Acquire) & LOCK != 0
    }

    /// Re-opens a frozen, drained queue. No-op once retired.
    pub fn reopen(&self) {
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        let t = self.tail.load(Ordering::Acquire) & POS_MASK;
        debug_assert_eq!(
            self.head.load(Ordering::Acquire) & POS_MASK,
            t,
            "reopen requires a drained queue"
        );
        self.tail.store(t, Ordering::Release);
        self.head.store(t, Ordering::Release);
    }

    /// Retires the queue (device torn down): freezes it, hands any
    /// queued descriptors to `f` so the caller can fail them cleanly,
    /// and prevents all future reopens. Idempotent. Serialized with
    /// [`Self::freeze_and_drain`] by the caller; under that contract a
    /// descriptor is handed out exactly once across pops, drains and
    /// retires.
    pub fn retire(&self, f: impl FnMut(AccessDescriptor)) -> u64 {
        self.dead.store(true, Ordering::Release);
        self.freeze_and_drain(f)
    }
}

// ---------------------------------------------------------------------
// Device models.
// ---------------------------------------------------------------------

/// Which taxonomy a virtio device model belongs to (drives which trace
/// counters its traffic bumps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtioKind {
    /// Block storage (LBA-addressed).
    Block,
    /// Network (frame-addressed).
    Net,
}

/// A device model a [`VirtioDevice`] drives: executes one request
/// descriptor and prices it deterministically.
pub trait VirtioModel: Send {
    /// Block or net (selects trace counters).
    fn kind(&self) -> VirtioKind;

    /// Executes one operation in place on `data`. Returns the result
    /// count on success, a `VIRTIO_S_*` status (nonzero) on failure.
    /// Must be order-independent: the result depends only on the
    /// request and the device's committed state, never on what else is
    /// in flight.
    fn execute(&mut self, op: u64, lba: u64, data: &mut [u8]) -> Result<u64, u64>;

    /// Deterministic simulated cycles for one request — a pure function
    /// of the request, identical on every runner and submission path.
    fn cost(&self, op: u64, len: u64) -> u64;
}

/// A fixed-geometry virtio block device: every request names its LBA,
/// so concurrent batches execute order-independently (unlike
/// [`crate::disk::RamDisk`], whose seek cursor serializes clients).
#[derive(Debug)]
pub struct VirtioBlock {
    name: String,
    open: bool,
    block_size: usize,
    blocks: Vec<Vec<u8>>,
    flushes: u64,
    /// Cursor for the synchronous [`DeviceImpl`] view only; the async
    /// path never touches it.
    position: usize,
}

impl VirtioBlock {
    /// A device of `blocks` blocks of `block_size` bytes, born open
    /// (virtio devices negotiate at attach, not per-request).
    pub fn new(name: impl Into<String>, blocks: usize, block_size: usize) -> VirtioBlock {
        VirtioBlock {
            name: name.into(),
            open: true,
            block_size,
            blocks: vec![vec![0; block_size]; blocks],
            flushes: 0,
            position: 0,
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> (usize, usize) {
        (self.blocks.len(), self.block_size)
    }

    /// Flush barriers issued so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
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
    fn kind(&self) -> VirtioKind {
        VirtioKind::Block
    }

    fn execute(&mut self, op: u64, lba: u64, data: &mut [u8]) -> Result<u64, u64> {
        if !self.open {
            return Err(VIRTIO_S_IOERR);
        }
        match op {
            VIRTIO_OP_READ => self.read_at(lba, data),
            VIRTIO_OP_WRITE => self.write_at(lba, data),
            VIRTIO_OP_FLUSH => {
                self.flushes += 1;
                Ok(0)
            }
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

/// The synchronous family view: `VirtioBlock` also satisfies the
/// device-independent specification (paper §6.3 — any implementation
/// behaves identically through the common subset), with the block-class
/// seek/count control ops of [`crate::disk`].
impl DeviceImpl for VirtioBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn open(&mut self) -> Result<(), DeviceError> {
        if self.open {
            return Err(DeviceError::AlreadyOpen);
        }
        self.open = true;
        Ok(())
    }

    fn close(&mut self) -> Result<(), DeviceError> {
        if !self.open {
            return Err(DeviceError::NotOpen);
        }
        self.open = false;
        Ok(())
    }

    fn read(&mut self, buf: &mut [u8]) -> Result<usize, DeviceError> {
        if !self.open {
            return Err(DeviceError::NotOpen);
        }
        let lba = self.position as u64;
        let n = self
            .read_at(lba, buf)
            .map_err(|_| DeviceError::EndOfMedium)?;
        self.position += 1;
        Ok(n as usize)
    }

    fn write(&mut self, buf: &[u8]) -> Result<usize, DeviceError> {
        if !self.open {
            return Err(DeviceError::NotOpen);
        }
        let lba = self.position as u64;
        let n = self
            .write_at(lba, buf)
            .map_err(|_| DeviceError::EndOfMedium)?;
        self.position += 1;
        Ok(n as usize)
    }

    fn status(&self) -> DeviceStatus {
        DeviceStatus {
            ready: true,
            open: self.open,
            error: 0,
            position: self.position as u64,
        }
    }

    fn control(&mut self, op: u32, arg: u64) -> Result<u64, DeviceError> {
        match op {
            crate::disk::BLK_OP_SEEK => {
                if arg as usize >= self.blocks.len() {
                    return Err(DeviceError::EndOfMedium);
                }
                self.position = arg as usize;
                Ok(arg)
            }
            crate::disk::BLK_OP_COUNT => Ok(self.blocks.len() as u64),
            _ => Err(DeviceError::Unsupported),
        }
    }

    fn control_ops(&self) -> u32 {
        2
    }
}

/// A virtio net device modeled as a deterministic loopback: an ECHO
/// request transmits its frame and receives it straight back in place.
/// Self-contained frames keep concurrent batches order-independent.
#[derive(Debug, Default)]
pub struct VirtioNet {
    name: String,
    frames_tx: u64,
    frames_rx: u64,
    bytes_tx: u64,
}

impl VirtioNet {
    /// A fresh loopback interface.
    pub fn new(name: impl Into<String>) -> VirtioNet {
        VirtioNet {
            name: name.into(),
            ..VirtioNet::default()
        }
    }

    /// The interface name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frames transmitted / received / bytes moved so far.
    pub fn traffic(&self) -> (u64, u64, u64) {
        (self.frames_tx, self.frames_rx, self.bytes_tx)
    }
}

impl VirtioModel for VirtioNet {
    fn kind(&self) -> VirtioKind {
        VirtioKind::Net
    }

    fn execute(&mut self, op: u64, _lba: u64, data: &mut [u8]) -> Result<u64, u64> {
        match op {
            VIRTIO_OP_ECHO => {
                if data.is_empty() {
                    return Err(VIRTIO_S_IOERR);
                }
                self.frames_tx += 1;
                self.frames_rx += 1;
                self.bytes_tx += data.len() as u64;
                Ok(data.len() as u64)
            }
            _ => Err(VIRTIO_S_UNSUPP),
        }
    }

    fn cost(&self, op: u64, len: u64) -> u64 {
        match op {
            // Wire out + wire back.
            VIRTIO_OP_ECHO => 200 + 2 * len,
            _ => 10,
        }
    }
}

// ---------------------------------------------------------------------
// The async device: submission/completion split over a VirtQueue.
// ---------------------------------------------------------------------

/// Counters for one virtio device.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VirtioStats {
    /// Requests submitted (ring + backlog).
    pub submitted: u64,
    /// Submissions that fell back to the locked backlog.
    pub backlogged: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with a nonzero status.
    pub failed: u64,
    /// Simulated device cycles consumed.
    pub device_cycles: u64,
}

/// An asynchronous virtio device: a [`VirtQueue`] submission ring with
/// a locked backlog fallback, a [`VirtioModel`] executing requests, and
/// completion delivery to the reply port each request names.
pub struct VirtioDevice<M: VirtioModel> {
    model: Arc<Mutex<M>>,
    queue: Arc<VirtQueue>,
    /// The locked submission path: taken when the ring refuses (full,
    /// contended, frozen) or when ring submission is disabled — the
    /// device-queue off arm of the conform differential.
    backlog: Mutex<VecDeque<AccessDescriptor>>,
    use_queue: bool,
    kind: VirtioKind,
    submitted: AtomicU64,
    backlogged: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    device_cycles: AtomicU64,
}

impl<M: VirtioModel> VirtioDevice<M> {
    /// Wraps `model` behind a descriptor ring of `queue_depth` slots.
    /// `use_queue = false` routes every submission through the locked
    /// backlog instead (the differential arm).
    pub fn new(model: M, queue_depth: u32, use_queue: bool) -> VirtioDevice<M> {
        let kind = model.kind();
        VirtioDevice {
            model: Arc::new(Mutex::new(model)),
            queue: Arc::new(VirtQueue::new(queue_depth)),
            backlog: Mutex::new(VecDeque::new()),
            use_queue,
            kind,
            submitted: AtomicU64::new(0),
            backlogged: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            device_cycles: AtomicU64::new(0),
        }
    }

    /// The device's submission ring (tests and the GC drain assertion).
    pub fn queue(&self) -> &Arc<VirtQueue> {
        &self.queue
    }

    /// The underlying model.
    pub fn model(&self) -> &Arc<Mutex<M>> {
        &self.model
    }

    /// Whether ring submission is enabled.
    pub fn uses_queue(&self) -> bool {
        self.use_queue
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

    /// Submits one request descriptor. Never blocks and never touches
    /// the space: the ring publishes lock-free, and a refusal falls
    /// back to the locked backlog exactly as ring-refused port sends
    /// fall back to the rendezvous path.
    pub fn submit(&self, req: AccessDescriptor) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        if self.kind == VirtioKind::Block {
            i432_trace::bump(i432_trace::Counter::BlkSubmits);
        } else {
            i432_trace::bump(i432_trace::Counter::NetTx);
        }
        if self.use_queue {
            match self.queue.push(req) {
                Ok(()) => return,
                Err(QueueRefusal::Full)
                | Err(QueueRefusal::Contended)
                | Err(QueueRefusal::Locked)
                | Err(QueueRefusal::Empty) => {}
            }
        }
        self.backlogged.fetch_add(1, Ordering::Relaxed);
        self.backlog.lock().push_back(req);
    }

    /// Services the device: claims every submitted descriptor (ring
    /// first, oldest-first, then the backlog), executes each on the
    /// model, writes status/count/cycles back into the request object,
    /// and posts it to the reply port named in its access slot 0 — the
    /// completion interrupt.
    ///
    /// Returns `(completions, simulated cycles)` so the calling native
    /// can charge the deterministic cost.
    pub fn service<S: SpaceMut + ?Sized>(&self, space: &mut S) -> Result<(u64, u64), Fault> {
        let mut done = 0u64;
        let mut cycles = 0u64;
        loop {
            let req = match self.queue.pop() {
                Ok(req) => req,
                Err(_) => match self.backlog.lock().pop_front() {
                    Some(req) => req,
                    None => break,
                },
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
        debug_assert_eq!(
            self.queue.occupancy(),
            0,
            "virtqueue must be drained before the atomic section ends"
        );
        debug_assert!(
            self.backlog.lock().is_empty(),
            "device backlog must be drained before the atomic section ends"
        );
    }

    /// Tears the device down: retires the ring and fails every
    /// undelivered request with `VIRTIO_S_IOERR` to its reply port.
    pub fn shutdown<S: SpaceMut + ?Sized>(&self, space: &mut S) -> Result<u64, Fault> {
        let mut orphans: Vec<AccessDescriptor> = Vec::new();
        self.queue.retire(|req| orphans.push(req));
        orphans.extend(self.backlog.lock().drain(..));
        let n = orphans.len() as u64;
        for req in orphans {
            let req = AccessDescriptor::new(req.obj, Rights::ALL);
            space
                .write_u64(req, VREQ_STATUS_OFF, VIRTIO_S_IOERR)
                .map_err(Fault::from)?;
            self.failed.fetch_add(1, Ordering::Relaxed);
            Self::post_completion(space, req)?;
        }
        Ok(n)
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
        let len = space.read_u64(req, VREQ_LEN_OFF).map_err(Fault::from)? as usize;

        let mut data = vec![0u8; len];
        space
            .read_data(req, VREQ_DATA_OFF, &mut data)
            .map_err(Fault::from)?;

        let (status, count, cycles) = {
            let mut model = self.model.lock();
            let cycles = model.cost(op, len as u64);
            match model.execute(op, lba, &mut data) {
                Ok(count) => (VIRTIO_S_OK, count, cycles),
                Err(status) => (status, 0, cycles),
            }
        };
        if status == VIRTIO_S_OK {
            space
                .write_data(req, VREQ_DATA_OFF, &data)
                .map_err(Fault::from)?;
        }
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
        if self.kind == VirtioKind::Block {
            i432_trace::bump(i432_trace::Counter::BlkCompletions);
        } else {
            i432_trace::bump(i432_trace::Counter::NetRx);
        }

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
    use i432_arch::{ObjectSpace, ObjectSpec, PortDiscipline};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    fn space() -> ObjectSpace {
        ObjectSpace::new(256 * 1024, 16 * 1024, 4096)
    }

    fn mk_req(
        s: &mut ObjectSpace,
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

    fn fake_ad(i: u32) -> AccessDescriptor {
        AccessDescriptor {
            obj: ObjectRef {
                index: ObjectIndex(i),
                generation: 7,
            },
            rights: Rights::ALL,
        }
    }

    #[test]
    fn virtqueue_fifo_and_refusals() {
        let q = VirtQueue::new(4);
        for i in 0..4 {
            q.push(fake_ad(i)).unwrap();
        }
        assert_eq!(q.push(fake_ad(99)), Err(QueueRefusal::Full));
        assert_eq!(q.occupancy(), 4);
        for i in 0..4 {
            assert_eq!(q.pop().unwrap().obj.index.0, i);
        }
        assert_eq!(q.pop(), Err(QueueRefusal::Empty));
    }

    #[test]
    fn virtqueue_wraps_across_position_space() {
        // Positions start just below 2^63 so head/tail wrap mid-test.
        let q = VirtQueue::with_start(4, POS_MASK - 2);
        for lap in 0u32..4 {
            for i in 0..3 {
                q.push(fake_ad(lap * 3 + i)).unwrap();
            }
            for i in 0..3 {
                assert_eq!(q.pop().unwrap().obj.index.0, lap * 3 + i);
            }
        }
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    fn virtqueue_freeze_drain_reopen() {
        let q = VirtQueue::new(8);
        q.push(fake_ad(1)).unwrap();
        q.push(fake_ad(2)).unwrap();
        let mut seen = Vec::new();
        assert_eq!(q.freeze_and_drain(|ad| seen.push(ad.obj.index.0)), 2);
        assert_eq!(seen, vec![1, 2]);
        assert!(q.is_frozen());
        assert_eq!(q.push(fake_ad(3)), Err(QueueRefusal::Locked));
        q.reopen();
        q.push(fake_ad(3)).unwrap();
        assert_eq!(q.pop().unwrap().obj.index.0, 3);
    }

    #[test]
    fn virtqueue_retire_never_reopens() {
        let q = VirtQueue::new(8);
        q.push(fake_ad(1)).unwrap();
        let mut orphans = 0;
        assert_eq!(q.retire(|_| orphans += 1), 1);
        assert_eq!(orphans, 1);
        assert!(q.is_dead());
        q.reopen();
        assert_eq!(q.push(fake_ad(2)), Err(QueueRefusal::Locked));
        // Idempotent: a second retire finds nothing.
        assert_eq!(q.retire(|_| panic!("drained twice")), 0);
    }

    /// Producers racing a drainer and a retirer. Drain and retire are
    /// serialized by one lock (`locked`), as the queue's contract
    /// requires; the pushes race both for real. Every pushed descriptor
    /// must surface in exactly one drain (drainer's or retirer's), and
    /// the queue must end dead and empty.
    #[test]
    fn virtqueue_retire_during_drain_race() {
        for round in 0..64 {
            let q = Arc::new(VirtQueue::new(8));
            let locked = Arc::new(Mutex::new(()));
            let pushed = Arc::new(AtomicUsize::new(0));
            let drained: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));

            std::thread::scope(|scope| {
                for p in 0u32..3 {
                    let q = Arc::clone(&q);
                    let pushed = Arc::clone(&pushed);
                    scope.spawn(move || {
                        for i in 0..200u32 {
                            match q.push(fake_ad(p * 1000 + i)) {
                                Ok(()) => {
                                    pushed.fetch_add(1, Ordering::SeqCst);
                                }
                                Err(QueueRefusal::Locked) => break,
                                Err(_) => std::thread::yield_now(),
                            }
                        }
                    });
                }
                // A drainer cycling freeze → drain → reopen, racing the
                // retirer below.
                {
                    let q = Arc::clone(&q);
                    let locked = Arc::clone(&locked);
                    let drained = Arc::clone(&drained);
                    scope.spawn(move || {
                        while !q.is_dead() {
                            {
                                let _serial = locked.lock();
                                let mut got = Vec::new();
                                q.freeze_and_drain(|ad| got.push(ad.obj.index.0));
                                drained.lock().extend(got);
                                // A reopen after the retirer won is a no-op.
                                q.reopen();
                            }
                            std::thread::yield_now();
                        }
                    });
                }
                {
                    let q = Arc::clone(&q);
                    let locked = Arc::clone(&locked);
                    let drained = Arc::clone(&drained);
                    scope.spawn(move || {
                        // Vary interleaving across rounds.
                        for _ in 0..(round % 7) {
                            std::thread::yield_now();
                        }
                        let _serial = locked.lock();
                        let mut got = Vec::new();
                        q.retire(|ad| got.push(ad.obj.index.0));
                        drained.lock().extend(got);
                    });
                }
            });

            // Post-retire drains find whatever producers squeezed in
            // between the retirer's drain and their Locked refusal —
            // the retire froze the tail first, so nothing can remain.
            let mut tail = Vec::new();
            q.freeze_and_drain(|ad| tail.push(ad.obj.index.0));
            drained.lock().extend(tail);

            let all = drained.lock();
            assert_eq!(
                all.len(),
                pushed.load(Ordering::SeqCst),
                "round {round}: every push surfaces in exactly one drain"
            );
            let unique: HashSet<u32> = all.iter().copied().collect();
            assert_eq!(unique.len(), all.len(), "round {round}: no duplicates");
            assert!(q.is_dead());
            assert_eq!(q.occupancy(), 0);
        }
    }

    #[test]
    fn block_roundtrip_over_ring_and_backlog() {
        for use_queue in [true, false] {
            let mut s = space();
            let root = s.root_sro();
            let reply = imax_ipc::create_port(&mut s, root, 16, PortDiscipline::Fifo).unwrap();
            let dev = VirtioDevice::new(VirtioBlock::new("vda", 64, 128), 8, use_queue);

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
            assert_eq!(st.backlogged, if use_queue { 0 } else { 2 });
        }
    }

    #[test]
    fn cycle_model_is_path_independent() {
        // The deterministic claim behind the conform differential: the
        // cycles charged for a batch depend only on the requests.
        let mut totals = Vec::new();
        for use_queue in [true, false] {
            let mut s = space();
            let root = s.root_sro();
            let reply = imax_ipc::create_port(&mut s, root, 16, PortDiscipline::Fifo).unwrap();
            let dev = VirtioDevice::new(VirtioBlock::new("vda", 64, 128), 4, use_queue);
            for lba in 0..6 {
                let req = mk_req(&mut s, reply, VIRTIO_OP_WRITE, lba, &[lba as u8; 32]);
                dev.submit(req);
            }
            let (done, cycles) = dev.service(&mut s).unwrap();
            assert_eq!(done, 6);
            totals.push(cycles);
        }
        assert_eq!(totals[0], totals[1], "ring vs backlog charge identically");
    }

    #[test]
    fn bad_lba_fails_cleanly() {
        let mut s = space();
        let root = s.root_sro();
        let reply = imax_ipc::create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let dev = VirtioDevice::new(VirtioBlock::new("vda", 4, 64), 4, true);
        let req = mk_req(&mut s, reply, VIRTIO_OP_READ, 1000, &[0u8; 8]);
        dev.submit(req);
        dev.service(&mut s).unwrap();
        let c = imax_ipc::untyped::receive(&mut s, reply).unwrap().unwrap();
        let c = AccessDescriptor::new(c.obj, Rights::ALL);
        assert_eq!(s.read_u64(c, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_IOERR);
        assert_eq!(dev.stats().failed, 1);
    }

    #[test]
    fn net_echo_roundtrip() {
        let mut s = space();
        let root = s.root_sro();
        let reply = imax_ipc::create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let dev = VirtioDevice::new(VirtioNet::new("veth0"), 4, true);
        let req = mk_req(&mut s, reply, VIRTIO_OP_ECHO, 0, b"ping frame");
        dev.submit(req);
        let (done, cycles) = dev.service(&mut s).unwrap();
        assert_eq!(done, 1);
        assert_eq!(cycles, 200 + 2 * 10);
        let c = imax_ipc::untyped::receive(&mut s, reply).unwrap().unwrap();
        let c = AccessDescriptor::new(c.obj, Rights::ALL);
        assert_eq!(s.read_u64(c, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_OK);
        let mut buf = [0u8; 10];
        s.read_data(c, VREQ_DATA_OFF, &mut buf).unwrap();
        assert_eq!(&buf, b"ping frame");
        assert_eq!(dev.model().lock().traffic(), (1, 1, 10));
    }

    #[test]
    fn shutdown_fails_orphans_to_reply_port() {
        let mut s = space();
        let root = s.root_sro();
        let reply = imax_ipc::create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let dev = VirtioDevice::new(VirtioBlock::new("vda", 4, 64), 4, true);
        let req = mk_req(&mut s, reply, VIRTIO_OP_READ, 0, &[0u8; 8]);
        dev.submit(req);
        assert_eq!(dev.shutdown(&mut s).unwrap(), 1);
        let c = imax_ipc::untyped::receive(&mut s, reply).unwrap().unwrap();
        let c = AccessDescriptor::new(c.obj, Rights::ALL);
        assert_eq!(s.read_u64(c, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_IOERR);
        assert!(dev.queue().is_dead());
    }

    #[test]
    fn virtio_block_behind_the_family_interface() {
        // The model doubles as an ordinary family device (§6.3: the
        // common subset as a subset).
        let mut d = VirtioBlock::new("vda", 8, 16);
        DeviceImpl::close(&mut d).unwrap();
        DeviceImpl::open(&mut d).unwrap();
        d.control(crate::disk::BLK_OP_SEEK, 3).unwrap();
        DeviceImpl::write(&mut d, b"family view").unwrap();
        assert_eq!(d.control(crate::disk::BLK_OP_COUNT, 0).unwrap(), 8);
        d.control(crate::disk::BLK_OP_SEEK, 3).unwrap();
        let mut buf = [0u8; 11];
        DeviceImpl::read(&mut d, &mut buf).unwrap();
        assert_eq!(&buf, b"family view");
    }
}
