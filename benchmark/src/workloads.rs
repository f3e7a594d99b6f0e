//! The four workloads. Each episode builds a fresh `System` (set-up),
//! runs it (run), then checks its outputs (verify, timed into neither).

use crate::layers::{
    anchored_ports, run_to_completion, run_to_quiescence, Before, Observed, Phase, Recorder, Role,
    Tally,
};
use crate::Workload;
use i432_arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_FIRST_FREE, CTX_SLOT_SRO};
use i432_arch::{AccessDescriptor, ObjectRef, ObjectSpec, PortDiscipline, ProcessStatus, Rights};
use i432_gdp::isa::{AluOp, DataDst, DataRef};
use i432_gdp::ProgramBuilder;
use i432_sim::{RunOutcome, System, SystemConfig, ThreadedOutcome};
use imax_filing::{build_filing_system, client_checksums, requests_per_client, FilingWorkload};
use imax_gc::{install_gc_daemon, Collector};
use imax_ipc::{create_port, PortMessage};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// `filing`: 8 clients, 4 workers, 4 shards, 64 WRITE/READ round trips
/// per client, under the serial GC daemon.
const FILING_CLIENTS: u32 = 8;
const FILING_WORKERS: u32 = 4;
const FILING_SHARDS: u32 = 4;
const FILING_ITERS: u64 = 64;
const GC_INCREMENTS_PER_CALL: u32 = 8;
const GC_PRIORITY: u8 = 200;
const FILING_STEPS: u64 = 20_000_000;

/// `tenants`: the `c11_multi_tenant` loop at 3,000 clients.
const TENANT_GDPS: u32 = 4;
const TENANT_SHARDS: u32 = 4;
const TENANT_SERVICES: u32 = 64;
const TENANT_CLIENTS: u32 = 3000;
const TENANT_WAVE: u32 = 1500;
const WAVE_STEPS: u64 = 200_000_000;

/// `pipeline`: `port_pipeline_system(1, 64, 5000, 4)`, 2 GDP threads.
const PIPE_PAIRS: u32 = 1;
const PIPE_CAPACITY: u32 = 64;
const PIPE_MESSAGES: u64 = 5000;
const PIPE_SHARDS: u32 = 4;

/// `mutex`: `token_mutex_system(2, 4, 8, 500)`, 2 GDP threads.
const MUTEX_CPUS: u32 = 2;
const MUTEX_SHARDS: u32 = 4;
const MUTEX_WORKERS: u32 = 8;
const MUTEX_ROUNDS: u64 = 500;

/// A threaded run that has not finished after this many steps counts as
/// failed instead of hanging the benchmark.
const THREADED_STEPS: u64 = 200_000_000;
/// Step budget of the deterministic reference run of a threaded workload.
const REFERENCE_STEPS: u64 = 2_000_000_000;

/// What one episode reports besides what it adds to the [`Tally`].
pub(crate) struct Episode {
    pub setup_ns: u64,
    pub run_ns: u64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed verification.
    pub failed: u64,
    /// Simulated cycles of a deterministic run (0 for threaded runs).
    pub sim_cycles: u64,
    pub problems: Vec<String>,
}

/// The deterministic-runner run of a threaded workload's construction,
/// which gives its simulated costs.
pub(crate) struct Reference {
    pub cycles: u64,
    pub ops: u64,
    pub busy: u64,
    pub idle: u64,
    pub seen: Observed,
    pub problems: Vec<String>,
}

fn exited_cleanly(sys: &System, p: ObjectRef) -> bool {
    sys.space
        .process(p)
        .map(|s| s.status == ProcessStatus::Terminated && s.fault_code == 0)
        .unwrap_or(false)
}

/// Processes among `procs` that did not exit cleanly (a nonzero
/// `fault_code` is a failure even where the runner calls it completed).
fn unclean(sys: &System, procs: &[ObjectRef]) -> u64 {
    procs.iter().filter(|&&p| !exited_cleanly(sys, p)).count() as u64
}

pub(crate) fn filing(seed: u64, observe: bool, rec: &mut Recorder, t: &mut Tally) -> Episode {
    let w = FilingWorkload {
        clients: FILING_CLIENTS,
        iters: FILING_ITERS,
        workers: FILING_WORKERS,
        shards: FILING_SHARDS,
        queue_depth: 16,
        use_queue: true,
        typed_completion: false,
        memory_budget: None,
        seed,
    };
    let ((mut sys, handles, collector, daemon), setup_ns) =
        rec.span("build_filing_system", Phase::Setup, 1, || {
            let (mut sys, handles) = build_filing_system(&w);
            let collector = Arc::new(Mutex::new(Collector::new()));
            let daemon = install_gc_daemon(
                &mut sys,
                Arc::clone(&collector),
                GC_INCREMENTS_PER_CALL,
                GC_PRIORITY,
            );
            (sys, handles, collector, daemon)
        });
    let mut roles: HashMap<ObjectRef, Role> =
        handles.workers.iter().map(|&p| (p, Role::Filing)).collect();
    roles.insert(daemon, Role::Gc);
    let ports = anchored_ports(&mut sys);

    let before = Before::take(&sys, &ports);
    let (outcome, run_ns) = rec.span("run_until", Phase::Run, 1, || {
        run_to_completion(
            &mut sys,
            FILING_STEPS,
            observe.then_some(&roles),
            &mut t.seen,
        )
    });
    t.after_run(&sys, &before, &ports);
    t.steps += sys.steps();
    t.add_utilization(&sys);

    let (checksums, _) = rec.span("client_checksums", Phase::Verify, 1, || {
        client_checksums(&mut sys, &handles)
    });
    let expected = handles.expected_checksums(w.seed, w.iters);
    let stats = handles.server.stats();
    let swap = handles.server.swap_stats();
    let mut problems = Vec::new();
    if outcome != RunOutcome::Stopped {
        problems.push(format!("filing run ended {outcome:?}"));
    }
    let bad_workers = unclean(&sys, &handles.workers);
    if bad_workers > 0 {
        problems.push(format!("{bad_workers} filing workers did not exit cleanly"));
    }
    let bad_clients = handles
        .clients
        .iter()
        .zip(checksums.iter().zip(&expected))
        .filter(|(&p, (got, want))| got != want || !exited_cleanly(&sys, p))
        .count() as u64;
    let attempted = w.expected_requests();
    let failed = (bad_clients * requests_per_client(w.iters))
        .max(attempted.saturating_sub(stats.requests_served))
        + stats.protocol_errors
        + stats.device_errors;

    t.storage_allocated += swap.allocated;
    t.swap_outs += swap.swap_outs;
    t.gc_reclaimed += collector.lock().stats.reclaimed;
    t.io_completed += stats.device.completed;
    t.io_device_cycles += stats.device.device_cycles;
    t.io_submitted += stats.device.submitted;
    t.io_backlogged += stats.device.backlogged;
    t.filing_bytes += stats.bytes_moved;
    Episode {
        setup_ns,
        run_ns,
        ops: attempted,
        failed: failed.min(attempted),
        sim_cycles: sys.now(),
        problems,
    }
}

/// The `c11_multi_tenant` system before its first wave: shared services
/// behind FIFO ports, each bumping its own accumulator cell, and the
/// Zipf(1) service assignment of every client, drawn up front.
struct Tenants {
    sys: System,
    client_dom: AccessDescriptor,
    ports: Vec<AccessDescriptor>,
    cells: Vec<AccessDescriptor>,
    services: Vec<ObjectRef>,
    assign: Vec<u32>,
}

fn build_tenants(seed: u64) -> Tenants {
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    let mut cfg = SystemConfig::small()
        .with_processors(TENANT_GDPS)
        .with_shards(TENANT_SHARDS);
    cfg.data_bytes = 512 * 1024 * TENANT_SHARDS;
    cfg.access_slots = 32 * 1024 * TENANT_SHARDS;
    cfg.table_limit = 8 * i432_arch::object_table::LEAF_ENTRIES * TENANT_SHARDS;
    cfg.dispatch_capacity = (TENANT_WAVE + TENANT_SERVICES + 16).next_power_of_two();
    let mut sys = System::new(&cfg);
    let root = sys.space.root_sro();

    // Integer Zipf(1) over service ranks; each port is sized for its
    // busiest wave so no send can block or fault.
    let mut cum = Vec::with_capacity(TENANT_SERVICES as usize);
    let mut total = 0u64;
    for k in 1..=u64::from(TENANT_SERVICES) {
        total += (1u64 << 32) / k;
        cum.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let assign: Vec<u32> = (0..TENANT_CLIENTS)
        .map(|_| {
            let r = rng.random_range(0u64..total);
            cum.partition_point(|&c| c <= r) as u32
        })
        .collect();
    let mut capacity = vec![1u32; TENANT_SERVICES as usize];
    for wave in assign.chunks(TENANT_WAVE as usize) {
        let mut demand = vec![0u32; TENANT_SERVICES as usize];
        for &k in wave {
            demand[k as usize] += 1;
        }
        for (cap, d) in capacity.iter_mut().zip(&demand) {
            *cap = (*cap).max(d + 1);
        }
    }

    let mut sp = ProgramBuilder::new();
    let top = sp.new_label();
    sp.bind(top);
    sp.receive(CTX_SLOT_ARG as u16, 6);
    sp.null_ad(6);
    sp.mov(DataRef::Field(5, 0), DataDst::Local(0));
    sp.alu(
        AluOp::Add,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    sp.mov(DataRef::Local(0), DataDst::Field(5, 0));
    sp.jump(top);
    let svc_sub = sys.subprogram("service", sp.finish(), 64, 8);
    let svc_dom = sys.install_domain("services", vec![svc_sub], 0);

    let mut ports = Vec::new();
    let mut cells = Vec::new();
    let mut services = Vec::new();
    for &cap in &capacity {
        let port = create_port(&mut sys.space, root, cap, PortDiscipline::Fifo)
            .expect("service port fits the arena")
            .ad();
        sys.anchor(port);
        let cell = sys
            .space
            .create_object(root, ObjectSpec::generic(8, 0))
            .expect("service cell fits the arena");
        let cell_ad = sys.space.mint(cell, Rights::READ | Rights::WRITE);
        let svc = sys.spawn(svc_dom, 0, Some(port));
        let ctx = sys
            .space
            .load_ad_hw(svc, i432_arch::sysobj::PROC_SLOT_CONTEXT)
            .expect("fresh process has a context slot")
            .expect("fresh process has a context")
            .obj;
        sys.space
            .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE + 1, Some(cell_ad))
            .expect("fresh context has a free slot");
        sys.mark_service(svc);
        ports.push(port);
        cells.push(cell_ad);
        services.push(svc);
    }

    // One-shot client: allocate a u64 message, send it, exit.
    let mut cp = ProgramBuilder::new();
    cp.create_object(
        CTX_SLOT_SRO as u16,
        DataRef::Imm(u64::from(<u64 as PortMessage>::DATA_LEN)),
        DataRef::Imm(0),
        5,
    );
    cp.send(CTX_SLOT_ARG as u16, 5);
    cp.halt();
    let client_sub = sys.subprogram("client", cp.finish(), 32, 8);
    let client_dom = sys.install_domain("clients", vec![client_sub], 0);

    Tenants {
        sys,
        client_dom,
        ports,
        cells,
        services,
        assign,
    }
}

pub(crate) fn tenants(seed: u64, observe: bool, rec: &mut Recorder, t: &mut Tally) -> Episode {
    let (mut ten, setup_ns) = rec.span("build_tenants", Phase::Setup, 1, || build_tenants(seed));
    let roles: HashMap<ObjectRef, Role> = ten.services.iter().map(|&p| (p, Role::Ipc)).collect();
    let roles = observe.then_some(&roles);
    let sys = &mut ten.sys;
    let ports = anchored_ports(sys);
    let before = Before::take(sys, &ports);

    let mut problems = Vec::new();
    let mut failed = 0u64;
    let mut run_ns = 0u64;
    let mut collector = Collector::new();
    for (w, wave) in ten.assign.chunks(TENANT_WAVE as usize).enumerate() {
        let n = wave.len() as u64;
        let (_, ns) = rec.span("spawn", Phase::Run, n, || {
            for &k in wave {
                sys.spawn(ten.client_dom, 0, Some(ten.ports[k as usize]));
            }
        });
        t.spawns.0 += n;
        t.spawns.1 += ns;
        run_ns += ns;
        let (done, ns) = rec.span("run_until", Phase::Run, 1, || {
            run_to_completion(sys, WAVE_STEPS, roles, &mut t.seen)
        });
        run_ns += ns;
        let (drained, ns) = rec.span("run_until", Phase::Run, 1, || {
            run_to_quiescence(sys, WAVE_STEPS, roles, &mut t.seen)
        });
        run_ns += ns;
        if done != RunOutcome::Stopped || drained != RunOutcome::Quiescent {
            problems.push(format!("wave {w} ended {done:?} / {drained:?}"));
        }
        let wave_procs = sys.processes().to_vec();
        failed += unclean(sys, &wave_procs);
        t.sample_directory(sys);

        let (retired, ns) = rec.span("retire_terminated", Phase::Run, 1, || {
            sys.retire_terminated()
        });
        t.retires.0 += 1;
        t.retires.1 += ns;
        run_ns += ns;
        if u64::from(retired) != n {
            problems.push(format!("wave {w} retired {retired} of {n} clients"));
        }
        // Two cycles: the first launders the colors the gray bit left on
        // the finished wave, the second reclaims it (see c11).
        for _ in 0..2 {
            let (r, ns) = rec.span("collect_full", Phase::Run, 1, || {
                collector.collect_full(&mut sys.space)
            });
            t.collects.0 += 1;
            t.collects.1 += ns;
            run_ns += ns;
            if let Err(f) = r {
                problems.push(format!("collect_full faulted: {f:?}"));
            }
        }
    }
    t.after_run(sys, &before, &ports);
    t.steps += sys.steps();
    t.add_utilization(sys);
    t.gc_reclaimed += collector.stats.reclaimed;

    let (delivered, _) = rec.span("read_cells", Phase::Verify, 1, || {
        ten.cells
            .iter()
            .map(|&ad| sys.space.read_u64(ad, 0).unwrap_or(0))
            .sum::<u64>()
    });
    let attempted = u64::from(TENANT_CLIENTS);
    let failed = failed.max(attempted.saturating_sub(delivered));
    if delivered > attempted {
        problems.push(format!(
            "{delivered} requests delivered for {attempted} clients"
        ));
    }
    Episode {
        setup_ns,
        run_ns,
        ops: attempted,
        failed: failed.min(attempted),
        sim_cycles: sys.now(),
        problems,
    }
}

/// Runs a threaded workload's system on the default threaded runner (all
/// fast paths on) and adds what it can see from outside to the tally.
fn run_threaded(
    mut sys: System,
    rec: &mut Recorder,
    t: &mut Tally,
) -> (System, ThreadedOutcome, u64, Vec<ObjectRef>) {
    let ports = anchored_ports(&mut sys);
    let before = Before::take(&sys, &ports);
    let ((sys, outcome), run_ns) = rec.span("run_threaded", Phase::Run, 1, || {
        i432_sim::run_threaded(sys, THREADED_STEPS)
    });
    t.after_run(&sys, &before, &ports);
    t.steps += outcome.steps;
    (sys, outcome, run_ns, ports)
}

fn threaded_problems(sys: &System, outcome: &ThreadedOutcome) -> (Vec<String>, bool) {
    let mut problems = Vec::new();
    if !outcome.completed || outcome.system_errors > 0 {
        problems.push(format!("threaded run: {outcome:?}"));
    }
    let faulted = unclean(sys, sys.processes());
    if faulted > 0 {
        problems.push(format!("{faulted} processes did not exit cleanly"));
    }
    let clean = problems.is_empty();
    (problems, clean)
}

pub(crate) fn pipeline(rec: &mut Recorder, t: &mut Tally) -> Episode {
    let (sys, setup_ns) = rec.span("port_pipeline_system", Phase::Setup, 1, || {
        imax_bench::port_pipeline_system(PIPE_PAIRS, PIPE_CAPACITY, PIPE_MESSAGES, PIPE_SHARDS)
    });
    let (sys, outcome, run_ns, ports) = run_threaded(sys, rec, t);
    let attempted = u64::from(PIPE_PAIRS) * PIPE_MESSAGES;
    let (mut problems, clean) = threaded_problems(&sys, &outcome);
    // The runner has flushed the rings: every message is accounted for
    // in the port's own state and counters.
    let port = sys.space.port(ports[0]).expect("the pipeline port is live");
    let moved = port.stats.sends.min(port.stats.receives);
    if port.msg_count != 0 || port.stats.sends != port.stats.receives || moved != attempted {
        problems.push(format!(
            "port not drained: {} queued, {} sends, {} receives for {attempted} messages",
            port.msg_count, port.stats.sends, port.stats.receives
        ));
    }
    let failed = if clean {
        attempted.saturating_sub(moved) + u64::from(port.msg_count)
    } else {
        attempted
    };
    Episode {
        setup_ns,
        run_ns,
        ops: attempted,
        failed: failed.min(attempted),
        sim_cycles: 0,
        problems,
    }
}

pub(crate) fn mutex(rec: &mut Recorder, t: &mut Tally) -> Episode {
    let ((sys, counter, expected), setup_ns) =
        rec.span("token_mutex_system", Phase::Setup, 1, || {
            imax_bench::token_mutex_system(MUTEX_CPUS, MUTEX_SHARDS, MUTEX_WORKERS, MUTEX_ROUNDS)
        });
    let (mut sys, outcome, run_ns, _) = run_threaded(sys, rec, t);
    let (mut problems, clean) = threaded_problems(&sys, &outcome);
    let got = sys.space.read_u64(counter, 0).unwrap_or(0);
    if got != expected {
        problems.push(format!("counter reads {got}, expected {expected}"));
    }
    let failed = if clean {
        got.abs_diff(expected)
    } else {
        expected
    };
    Episode {
        setup_ns,
        run_ns,
        ops: expected,
        failed: failed.min(expected),
        sim_cycles: 0,
        problems,
    }
}

/// Runs a threaded workload's construction once on the deterministic
/// runner, observed, for its simulated costs. `None` for the workloads
/// that run on the deterministic runner already.
pub(crate) fn reference(w: Workload) -> Option<Reference> {
    let (mut sys, ops) = match w {
        Workload::Pipeline => (
            imax_bench::port_pipeline_system(PIPE_PAIRS, PIPE_CAPACITY, PIPE_MESSAGES, PIPE_SHARDS),
            u64::from(PIPE_PAIRS) * PIPE_MESSAGES,
        ),
        Workload::Mutex => {
            let (sys, _, expected) = imax_bench::token_mutex_system(
                MUTEX_CPUS,
                MUTEX_SHARDS,
                MUTEX_WORKERS,
                MUTEX_ROUNDS,
            );
            (sys, expected)
        }
        Workload::Filing | Workload::Tenants => return None,
    };
    let mut seen = Observed::default();
    let outcome = run_to_completion(&mut sys, REFERENCE_STEPS, Some(&HashMap::new()), &mut seen);
    let mut problems = Vec::new();
    if outcome != RunOutcome::Stopped {
        problems.push(format!("deterministic reference run ended {outcome:?}"));
    }
    let (busy, idle) = sys.utilization();
    Some(Reference {
        cycles: sys.now(),
        ops,
        busy,
        idle,
        seen,
        problems,
    })
}
