//! The object-filing server.
//!
//! The paper's release-2 sketch (§9): "a filing system that maintains
//! files as objects" — here a package instance in the §6.3 style: the
//! server's state is closed over by a native service body, the service
//! domain's access descriptor *is* the filing system, and any number of
//! worker processes CALL the same domain to drain the shared request
//! port. Files are objects in the strictest sense: each open file is one
//! generic segment (its cache) owned by the swapping storage manager, so
//! cold files are evicted to backing store under memory pressure exactly
//! like any other segment, and the garbage collector sees them through
//! the server's registry object like any other live data.
//!
//! Durability runs through the async virtio-shaped block device
//! ([`imax_io::virtio`]): OPEN reads the file's blocks through the
//! descriptor ring, WRITE writes touched blocks through, CLOSE flushes.
//! Device completions come back on a server-internal completion port —
//! over either the typed or the untyped port package, selectable per
//! instance, because Figure 2's claim (typed ports compile to the
//! untyped code) is asserted over this very path by the crate's tests.
//!
//! Every request a worker accepts is fully served — device queue drained
//! to empty — before its native call returns, so the collector (which
//! scans ports but not device rings) never observes an in-flight
//! descriptor. See DESIGN.md §14.

use crate::protocol::*;
use i432_arch::{AccessDescriptor, ObjectRef, ObjectSpec, PortDiscipline, Rights, SpaceMut};
use i432_gdp::{
    native::NativeReturn,
    port::{self, RecvOutcome, SendOutcome},
    Fault, FaultKind,
};
use i432_sim::System;
use i432_trace::{observe, Hist};
use imax_io::virtio::{
    VirtioBlock, VirtioDevice, VirtioStats, VIRTIO_OP_FLUSH, VIRTIO_OP_READ, VIRTIO_OP_WRITE,
    VIRTIO_S_OK, VREQ_DATA_OFF, VREQ_LBA_OFF, VREQ_LEN_OFF, VREQ_OP_OFF, VREQ_SLOT_REPLY,
    VREQ_STATUS_OFF,
};
use imax_ipc::{create_port, untyped, Port, TypedPort};
use imax_storage::{StorageManager, SwappingManager};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// One consumed device completion: `(lba, status, data)`.
type Completion = (u64, u64, Vec<u8>);

/// Configuration for one filing-service instance.
#[derive(Debug, Clone)]
pub struct FilingConfig {
    /// Maximum file count (also the registry's access-slot count and the
    /// device's capacity in files).
    pub files: u32,
    /// Worker processes draining the shared request port.
    pub workers: u32,
    /// Descriptor-ring depth of the block device.
    pub queue_depth: u32,
    /// Route submissions through the descriptor ring (`false` = the
    /// locked backlog path; cycle-identical by construction).
    pub use_queue: bool,
    /// Consume device completions through `TypedPort` instead of the
    /// untyped package. Figure 2 says this must not change a single
    /// simulated cycle; `tests/filing_e2e.rs` asserts it.
    pub typed_completion: bool,
    /// Memory budget handed to the swapping storage manager (`None` =
    /// unlimited; conform runs use `None` so eviction cannot fail).
    pub memory_budget: Option<u64>,
    /// Total requests the workload will issue; workers self-terminate
    /// once this many have been served.
    pub expected_requests: u64,
}

impl FilingConfig {
    /// A small default: `files` files, two workers, ring on, untyped
    /// completions, unlimited memory.
    pub fn small(files: u32, expected_requests: u64) -> FilingConfig {
        FilingConfig {
            files,
            workers: 2,
            queue_depth: 16,
            use_queue: true,
            typed_completion: false,
            memory_budget: None,
            expected_requests,
        }
    }
}

/// Per-file bookkeeping.
struct FileMeta {
    open: bool,
    cache: ObjectRef,
    cache_ad: AccessDescriptor,
}

/// State behind the server's single lock (native bodies already run as
/// indivisible sections, so this lock is uncontended there; it exists
/// for host-side test access).
struct FilingInner {
    storage: SwappingManager,
    files: BTreeMap<u64, FileMeta>,
}

/// Counter snapshot for benches and conform keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilingStats {
    /// Requests fully served (status written, reply sent).
    pub requests_served: u64,
    /// Bytes moved between request objects and file caches (READ+WRITE).
    pub bytes_moved: u64,
    /// Requests answered with a non-[`FS_OK`] status.
    pub protocol_errors: u64,
    /// Device-level failures (virtio requests the model refused).
    pub device_errors: u64,
    /// Device counters.
    pub device: VirtioStats,
}

/// One filing-service instance. Shared between the worker natives and
/// the host (benches, tests) behind an `Arc`.
pub struct FilingServer {
    request_port: Port,
    completion: Port,
    registry: ObjectRef,
    device: VirtioDevice<VirtioBlock>,
    inner: Mutex<FilingInner>,
    typed_completion: bool,
    max_files: u32,
    requests_served: AtomicU64,
    bytes_moved: AtomicU64,
    protocol_errors: AtomicU64,
}

impl FilingServer {
    /// The shared request port clients send to.
    pub fn request_port(&self) -> Port {
        self.request_port
    }

    /// The server-internal device-completion port.
    pub fn completion_port(&self) -> Port {
        self.completion
    }

    /// The registry object whose slot `f` anchors file `f`'s cache.
    pub fn registry(&self) -> ObjectRef {
        self.registry
    }

    /// Requests fully served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Relaxed)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FilingStats {
        let device = self.device.stats();
        FilingStats {
            requests_served: self.requests_served.load(Relaxed),
            bytes_moved: self.bytes_moved.load(Relaxed),
            protocol_errors: self.protocol_errors.load(Relaxed),
            device_errors: device.failed,
            device,
        }
    }

    /// Swap traffic of the storage manager backing the file caches.
    pub fn swap_stats(&self) -> imax_storage::StorageStats {
        self.inner.lock().storage.stats()
    }

    /// Drains the request port, serving every queued request to
    /// completion. Returns `(served, simulated_cycles)`. This is the
    /// body of the `object_filing.serve` native.
    pub fn service_batch(&self, space: &mut dyn SpaceMut) -> Result<(u64, u64), Fault> {
        let mut served = 0u64;
        let mut cycles = 0u64;
        loop {
            let req = match port::receive(space, None, self.request_port.ad(), false, true)? {
                RecvOutcome::Received(ad) => ad,
                RecvOutcome::WouldBlock => break,
                RecvOutcome::Blocked => unreachable!("non-blocking service receive"),
            };
            cycles += self.handle_request(space, req)?;
            served += 1;
        }
        // The collector-visibility contract: nothing may stay in flight
        // in the device once the indivisible section ends.
        self.device.assert_idle();
        Ok((served, cycles))
    }

    /// Serves one request object and replies to its reply port.
    fn handle_request(
        &self,
        space: &mut dyn SpaceMut,
        req: AccessDescriptor,
    ) -> Result<u64, Fault> {
        // The server is trusted system software: amplify to full rights
        // (the client may have sent a restricted descriptor).
        let req = AccessDescriptor::new(req.obj, Rights::ALL);
        let op = space.read_u64(req, FREQ_OP_OFF).map_err(Fault::from)?;
        let file = space.read_u64(req, FREQ_FILE_OFF).map_err(Fault::from)?;
        let pos = space.read_u64(req, FREQ_POS_OFF).map_err(Fault::from)?;
        let len = space.read_u64(req, FREQ_LEN_OFF).map_err(Fault::from)?;

        let mut cycles = 0u64;
        let (status, count) = match op {
            FOP_OPEN => self.op_open(space, file, &mut cycles)?,
            FOP_READ => self.op_read(space, req, file, pos, len, &mut cycles)?,
            FOP_WRITE => self.op_write(space, req, file, pos, len, &mut cycles)?,
            FOP_CLOSE => self.op_close(space, file, &mut cycles)?,
            _ => (FS_BAD_OP, 0),
        };

        space
            .write_u64(req, FREQ_STATUS_OFF, status)
            .map_err(Fault::from)?;
        space
            .write_u64(req, FREQ_COUNT_OFF, count)
            .map_err(Fault::from)?;
        self.requests_served.fetch_add(1, Relaxed);
        if status != FS_OK {
            self.protocol_errors.fetch_add(1, Relaxed);
        }
        observe(Hist::FilingRequestCycles, cycles);

        let reply = space
            .load_ad_hw(req.obj, FREQ_SLOT_REPLY)
            .map_err(Fault::from)?
            .ok_or_else(|| {
                Fault::with_detail(FaultKind::NullAccess, "filing request without a reply port")
            })?;
        match port::send(space, None, reply, req, 0, false, true)? {
            SendOutcome::Queued | SendOutcome::Delivered => Ok(cycles),
            other => Err(Fault::with_detail(
                FaultKind::QueueOverflow,
                format!("filing reply refused: {other:?}"),
            )),
        }
    }

    fn op_open(
        &self,
        space: &mut dyn SpaceMut,
        file: u64,
        cycles: &mut u64,
    ) -> Result<(u64, u64), Fault> {
        if file >= u64::from(self.max_files) {
            return Ok((FS_BAD_OP, 0));
        }
        let mut inner = self.inner.lock();
        if inner.files.get(&file).is_some_and(|m| m.open) {
            return Ok((FS_BAD_OP, 0));
        }
        // First open: create the cache segment through the storage
        // manager (so it lives under the eviction policy) and anchor it
        // in the registry so the collector keeps it.
        if !inner.files.contains_key(&file) {
            let sro = space.root_sro();
            let cache =
                match inner
                    .storage
                    .create_object(space, sro, ObjectSpec::generic(FILE_BYTES, 0))
                {
                    Ok(r) => r,
                    Err(_) => return Ok((FS_IO, 0)),
                };
            let cache_ad = space.mint(cache, Rights::ALL);
            space
                .store_ad_hw(self.registry, file as u32, Some(cache_ad))
                .map_err(Fault::from)?;
            inner.files.insert(
                file,
                FileMeta {
                    open: false,
                    cache,
                    cache_ad,
                },
            );
        }
        let (cache, cache_ad) = {
            let m = inner.files.get(&file).expect("just inserted");
            (m.cache, m.cache_ad)
        };
        if inner.storage.swap_in(space, cache).is_err() {
            return Ok((FS_IO, 0));
        }
        // Read the file's blocks back through the device: the device is
        // the durability story, the cache only a resident copy.
        let base = file * FILE_BLOCKS;
        let ops: Vec<(u64, u64, Option<Vec<u8>>)> = (0..FILE_BLOCKS)
            .map(|b| (VIRTIO_OP_READ, base + b, None))
            .collect();
        let (dc, results) = self.device_batch(space, &ops)?;
        *cycles += dc;
        for (lba, status, data) in results {
            if status != VIRTIO_S_OK {
                return Ok((FS_IO, 0));
            }
            let off = ((lba - base) as u32) * FILE_BLOCK_SIZE;
            space
                .write_data(cache_ad, off, &data)
                .map_err(Fault::from)?;
        }
        inner.files.get_mut(&file).expect("present").open = true;
        *cycles += FS_COST_OPEN + inner.storage.drain_cycles();
        Ok((FS_OK, 0))
    }

    fn op_read(
        &self,
        space: &mut dyn SpaceMut,
        req: AccessDescriptor,
        file: u64,
        pos: u64,
        len: u64,
        cycles: &mut u64,
    ) -> Result<(u64, u64), Fault> {
        if len > u64::from(FREQ_DATA_MAX) || pos.saturating_add(len) > u64::from(FILE_BYTES) {
            return Ok((FS_BOUNDS, 0));
        }
        let mut inner = self.inner.lock();
        let Some((cache, cache_ad)) = inner
            .files
            .get(&file)
            .filter(|m| m.open)
            .map(|m| (m.cache, m.cache_ad))
        else {
            return Ok((FS_NOT_OPEN, 0));
        };
        if inner.storage.swap_in(space, cache).is_err() {
            return Ok((FS_IO, 0));
        }
        let mut buf = vec![0u8; len as usize];
        space
            .read_data(cache_ad, pos as u32, &mut buf)
            .map_err(Fault::from)?;
        space
            .write_data(req, FREQ_DATA_OFF, &buf)
            .map_err(Fault::from)?;
        self.bytes_moved.fetch_add(len, Relaxed);
        *cycles += FS_COST_READ + FS_COST_BYTE * len + inner.storage.drain_cycles();
        Ok((FS_OK, len))
    }

    fn op_write(
        &self,
        space: &mut dyn SpaceMut,
        req: AccessDescriptor,
        file: u64,
        pos: u64,
        len: u64,
        cycles: &mut u64,
    ) -> Result<(u64, u64), Fault> {
        if len == 0
            || len > u64::from(FREQ_DATA_MAX)
            || pos.saturating_add(len) > u64::from(FILE_BYTES)
        {
            return Ok((FS_BOUNDS, 0));
        }
        let mut inner = self.inner.lock();
        let Some((cache, cache_ad)) = inner
            .files
            .get(&file)
            .filter(|m| m.open)
            .map(|m| (m.cache, m.cache_ad))
        else {
            return Ok((FS_NOT_OPEN, 0));
        };
        if inner.storage.swap_in(space, cache).is_err() {
            return Ok((FS_IO, 0));
        }
        let mut buf = vec![0u8; len as usize];
        space
            .read_data(req, FREQ_DATA_OFF, &mut buf)
            .map_err(Fault::from)?;
        space
            .write_data(cache_ad, pos as u32, &buf)
            .map_err(Fault::from)?;
        // Write-through: every touched block goes back to the device in
        // the same indivisible section.
        let bs = u64::from(FILE_BLOCK_SIZE);
        let base = file * FILE_BLOCKS;
        let (b0, b1) = (pos / bs, (pos + len - 1) / bs);
        let mut ops = Vec::new();
        for b in b0..=b1 {
            let mut blk = vec![0u8; FILE_BLOCK_SIZE as usize];
            space
                .read_data(cache_ad, (b * bs) as u32, &mut blk)
                .map_err(Fault::from)?;
            ops.push((VIRTIO_OP_WRITE, base + b, Some(blk)));
        }
        let (dc, results) = self.device_batch(space, &ops)?;
        *cycles += dc;
        if results.iter().any(|(_, status, _)| *status != VIRTIO_S_OK) {
            return Ok((FS_IO, 0));
        }
        self.bytes_moved.fetch_add(len, Relaxed);
        *cycles += FS_COST_WRITE + FS_COST_BYTE * len + inner.storage.drain_cycles();
        Ok((FS_OK, len))
    }

    fn op_close(
        &self,
        space: &mut dyn SpaceMut,
        file: u64,
        cycles: &mut u64,
    ) -> Result<(u64, u64), Fault> {
        let mut inner = self.inner.lock();
        let Some(cache) = inner.files.get(&file).filter(|m| m.open).map(|m| m.cache) else {
            return Ok((FS_NOT_OPEN, 0));
        };
        let (dc, results) = self.device_batch(space, &[(VIRTIO_OP_FLUSH, 0, None)])?;
        *cycles += dc;
        if results.iter().any(|(_, status, _)| *status != VIRTIO_S_OK) {
            return Ok((FS_IO, 0));
        }
        // Closed caches are cold: hand the segment back to the swapper.
        // An already-absent segment reports NotEligible, which is fine.
        let _ = inner.storage.swap_out(space, cache);
        inner.files.get_mut(&file).expect("present").open = false;
        *cycles += FS_COST_CLOSE + inner.storage.drain_cycles();
        Ok((FS_OK, 0))
    }

    /// Submits a batch of device requests, services the device, and
    /// consumes every completion from the internal completion port —
    /// through the typed or untyped package per configuration. Returns
    /// `(device_cycles, [(lba, status, data)])`.
    fn device_batch(
        &self,
        space: &mut dyn SpaceMut,
        ops: &[(u64, u64, Option<Vec<u8>>)],
    ) -> Result<(u64, Vec<Completion>), Fault> {
        let sro = space.root_sro();
        for (op, lba, data) in ops {
            let obj = space
                .create_object(sro, ObjectSpec::generic(VREQ_DATA_OFF + FILE_BLOCK_SIZE, 2))
                .map_err(Fault::from)?;
            let ad = space.mint(obj, Rights::ALL);
            space.write_u64(ad, VREQ_OP_OFF, *op).map_err(Fault::from)?;
            space
                .write_u64(ad, VREQ_LBA_OFF, *lba)
                .map_err(Fault::from)?;
            space
                .write_u64(ad, VREQ_LEN_OFF, u64::from(FILE_BLOCK_SIZE))
                .map_err(Fault::from)?;
            if let Some(data) = data {
                space
                    .write_data(ad, VREQ_DATA_OFF, data)
                    .map_err(Fault::from)?;
            }
            space
                .store_ad_hw(obj, VREQ_SLOT_REPLY, Some(self.completion.ad()))
                .map_err(Fault::from)?;
            self.device.submit(ad);
        }
        let (_done, cycles) = self.device.service(space)?;
        let mut results = Vec::with_capacity(ops.len());
        for _ in 0..ops.len() {
            // Figure 2's claim, load-bearing: both arms compile to the
            // identical untyped receive, so flipping `typed_completion`
            // cannot move a single simulated cycle.
            let got = if self.typed_completion {
                TypedPort::<u64>::from_port(self.completion).receive_ad(space)?
            } else {
                untyped::receive(space, self.completion)?
            };
            let comp = got.ok_or_else(|| {
                Fault::with_detail(FaultKind::NullAccess, "device completion missing")
            })?;
            let comp = AccessDescriptor::new(comp.obj, Rights::ALL);
            let lba = space.read_u64(comp, VREQ_LBA_OFF).map_err(Fault::from)?;
            let status = space.read_u64(comp, VREQ_STATUS_OFF).map_err(Fault::from)?;
            let mut data = vec![0u8; FILE_BLOCK_SIZE as usize];
            space
                .read_data(comp, VREQ_DATA_OFF, &mut data)
                .map_err(Fault::from)?;
            results.push((lba, status, data));
            // Descriptor objects are server-internal scratch; reclaim
            // them eagerly rather than leaving them to the collector.
            space.destroy_object(comp.obj).map_err(Fault::from)?;
        }
        Ok((cycles, results))
    }
}

/// Installs a filing-service instance: creates its ports, registry,
/// device and storage manager, registers the `object_filing.serve`
/// native, and spawns `cfg.workers` self-terminating worker processes.
///
/// Returns the server handle and the worker processes.
pub fn install_filing_service(
    sys: &mut System,
    cfg: &FilingConfig,
) -> (Arc<FilingServer>, Vec<ObjectRef>) {
    let root = sys.space.root_sro();
    let request_port = create_port(
        &mut sys.space,
        root,
        (cfg.files * 2).max(8),
        PortDiscipline::Fifo,
    )
    .expect("filing request port");
    sys.anchor(request_port.ad());
    let completion = create_port(
        &mut sys.space,
        root,
        (FILE_BLOCKS as u32) * 2 + 4,
        PortDiscipline::Fifo,
    )
    .expect("filing completion port");
    sys.anchor(completion.ad());
    let registry = sys
        .space
        .create_object(root, ObjectSpec::generic(0, cfg.files))
        .expect("filing registry");
    let registry_ad = sys.space.mint(registry, Rights::ALL);
    sys.anchor(registry_ad);

    let storage = match cfg.memory_budget {
        Some(bytes) => SwappingManager::with_memory_budget(bytes),
        None => SwappingManager::new(),
    };
    let blocks = cfg.files as usize * FILE_BLOCKS as usize;
    let device = VirtioDevice::new(
        VirtioBlock::new(blocks, FILE_BLOCK_SIZE as usize),
        cfg.queue_depth,
        cfg.use_queue,
    );

    let server = Arc::new(FilingServer {
        request_port,
        completion,
        registry,
        device,
        inner: Mutex::new(FilingInner {
            storage,
            files: BTreeMap::new(),
        }),
        typed_completion: cfg.typed_completion,
        max_files: cfg.files,
        requests_served: AtomicU64::new(0),
        bytes_moved: AtomicU64::new(0),
        protocol_errors: AtomicU64::new(0),
    });

    // The service body: drain the request port, charge the simulated
    // cost, report whether the workload is finished so the worker loop
    // can halt.
    let expected = cfg.expected_requests;
    let service = {
        let server = Arc::clone(&server);
        move |cx: &mut i432_gdp::NativeCtx<'_>| {
            let (_served, cycles) = server.service_batch(cx.space)?;
            cx.charge(cycles.max(FS_COST_IDLE));
            let done = server.requests_served() >= expected;
            Ok(NativeReturn::value(u64::from(done)))
        }
    };
    let nid = sys.natives.register("object_filing.serve", service);
    let filing_domain = sys.install_domain(
        "object_filing",
        vec![i432_arch::Subprogram {
            name: "serve".into(),
            body: i432_arch::CodeBody::Native(nid),
            ctx_data_len: 16,
            ctx_access_len: 8,
        }],
        0,
    );

    // The worker loop: CALL serve until it reports done, then halt.
    use i432_gdp::isa::DataRef;
    let mut p = i432_gdp::ProgramBuilder::new();
    let top = p.new_label();
    p.bind(top);
    p.call(
        i432_arch::sysobj::CTX_SLOT_ARG as u16,
        0,
        None,
        None,
        Some(0),
    );
    p.jump_if_zero(DataRef::Local(0), top);
    p.halt();
    let worker_sub = sys.subprogram("filing_worker_loop", p.finish(), 32, 8);
    let worker_domain = sys.install_domain("filing_worker", vec![worker_sub], 0);

    let workers = (0..cfg.workers)
        .map(|_| sys.spawn(worker_domain, 0, Some(filing_domain)))
        .collect();
    (server, workers)
}
