//! Builds a complete filing workload: one server instance, N worker
//! processes, M client processes, each client driving its own file.
//!
//! The same construction serves the crate's tests, the conform
//! differential workload and the `c13_filing` bench: build a [`System`],
//! run it on either runner, then read the per-client checksums back.

use crate::client::{
    expected_checksum, filing_client_program, requests_per_client, PARAM_ACCESS_LEN,
    PARAM_DATA_LEN, PARAM_FILE_OFF, PARAM_SEED_OFF, PARAM_SLOT_OUT, PARAM_SLOT_REPLY,
    PARAM_SLOT_REQ,
};
use crate::server::{install_filing_service, FilingConfig, FilingServer};
use i432_arch::{AccessDescriptor, ObjectRef, ObjectSpec, PortDiscipline, Rights};
use i432_sim::{System, SystemConfig};
use imax_ipc::create_port;
use std::sync::Arc;

/// Parameters of one filing workload.
#[derive(Debug, Clone)]
pub struct FilingWorkload {
    /// Concurrent clients (each owns one file, so also the file count).
    pub clients: u32,
    /// WRITE/READ round trips per client (≥ 1).
    pub iters: u64,
    /// Worker processes draining the shared request port.
    pub workers: u32,
    /// Space shards.
    pub shards: u32,
    /// Device submission-queue depth.
    pub queue_depth: u32,
    /// Has no effect: the device has one submission queue. Kept so that
    /// struct literals that name it, such as the repository benchmark's
    /// `filing` workload, still build.
    pub use_queue: bool,
    /// Consume device completions through the typed port package.
    pub typed_completion: bool,
    /// Swapping-manager budget (`None` = unlimited).
    pub memory_budget: Option<u64>,
    /// Scrambles file assignment and payloads.
    pub seed: u64,
}

impl FilingWorkload {
    /// A small smoke-sized workload.
    pub fn small(clients: u32, iters: u64) -> FilingWorkload {
        FilingWorkload {
            clients,
            iters,
            workers: 2,
            shards: 1,
            queue_depth: 16,
            use_queue: true,
            typed_completion: false,
            memory_budget: None,
            seed: 1,
        }
    }

    /// Total requests the workload issues.
    pub fn expected_requests(&self) -> u64 {
        u64::from(self.clients) * requests_per_client(self.iters)
    }
}

/// Handles back into a built workload.
pub struct FilingHandles {
    /// The server instance.
    pub server: Arc<FilingServer>,
    /// Per-client out-objects (slot 0 holds the published checksum).
    pub outs: Vec<AccessDescriptor>,
    /// Per-client file ids (parallel to `outs`).
    pub files: Vec<u64>,
    /// Client processes.
    pub clients: Vec<ObjectRef>,
    /// Worker processes.
    pub workers: Vec<ObjectRef>,
}

impl FilingHandles {
    /// The checksum each client should publish if every request
    /// succeeds.
    pub fn expected_checksums(&self, seed: u64, iters: u64) -> Vec<u64> {
        self.files
            .iter()
            .map(|&f| expected_checksum(f, seed, iters))
            .collect()
    }
}

/// Reads the published per-client checksums.
pub fn client_checksums(sys: &mut System, handles: &FilingHandles) -> Vec<u64> {
    handles
        .outs
        .iter()
        .map(|&out| sys.space.read_u64(out, 0).expect("out-object readable"))
        .collect()
}

/// Builds the workload: system, server, workers, clients.
pub fn build_filing_system(w: &FilingWorkload) -> (System, FilingHandles) {
    assert!(w.clients >= 1 && w.iters >= 1 && w.workers >= 1);
    let mut cfg = SystemConfig::small()
        .with_processors(w.clients + w.workers)
        .with_shards(w.shards);
    // Scale the space with the shard count, as the other multi-shard
    // workloads do, plus headroom for the per-round-trip garbage.
    cfg.data_bytes *= w.shards * 2;
    cfg.access_slots *= w.shards * 2;
    cfg.table_limit *= w.shards * 2;
    let mut sys = System::new(&cfg);

    let fc = FilingConfig {
        files: w.clients,
        workers: w.workers,
        queue_depth: w.queue_depth,
        typed_completion: w.typed_completion,
        memory_budget: w.memory_budget,
        expected_requests: w.expected_requests(),
    };
    let (server, workers) = install_filing_service(&mut sys, &fc);

    let program = filing_client_program(w.iters);
    let sub = sys.subprogram("filing_client", program, 64, 8);
    let dom = sys.install_domain("filing_client", vec![sub], 0);

    let root = sys.space.root_sro();
    let mut outs = Vec::new();
    let mut files = Vec::new();
    let mut clients = Vec::new();
    for c in 0..w.clients {
        // Rotate the file assignment by the seed so different seeds
        // exercise different client/file pairings.
        let file = u64::from((c + (w.seed as u32 % w.clients)) % w.clients);
        let reply =
            create_port(&mut sys.space, root, 4, PortDiscipline::Fifo).expect("client reply port");
        sys.anchor(reply.ad());
        let out = sys
            .space
            .create_object(root, ObjectSpec::generic(16, 0))
            .expect("client out-object");
        let out_ad = sys.space.mint(out, Rights::ALL);
        sys.anchor(out_ad);
        let param = sys
            .space
            .create_object(root, ObjectSpec::generic(PARAM_DATA_LEN, PARAM_ACCESS_LEN))
            .expect("client param object");
        let param_ad = sys.space.mint(param, Rights::ALL);
        sys.anchor(param_ad);
        sys.space
            .write_u64(param_ad, PARAM_FILE_OFF, file)
            .expect("param file");
        sys.space
            .write_u64(param_ad, PARAM_SEED_OFF, w.seed)
            .expect("param seed");
        sys.space
            .store_ad_hw(param, PARAM_SLOT_REQ, Some(server.request_port().ad()))
            .expect("param req port");
        sys.space
            .store_ad_hw(param, PARAM_SLOT_REPLY, Some(reply.ad()))
            .expect("param reply port");
        sys.space
            .store_ad_hw(param, PARAM_SLOT_OUT, Some(out_ad))
            .expect("param out");
        clients.push(sys.spawn(dom, 0, Some(param_ad)));
        outs.push(out_ad);
        files.push(file);
    }

    (
        sys,
        FilingHandles {
            server,
            outs,
            files,
            clients,
            workers,
        },
    )
}
