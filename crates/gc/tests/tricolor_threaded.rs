//! Tricolor invariant I6 under the *threaded* runner with the collector
//! running as a daemon process (paper §8.1's "parallel garbage
//! collection on shared memory multiprocessors").
//!
//! I6 (see `collector.rs`): a white object at sweep time was unreachable
//! at mark termination, so reclaiming it while mutators keep running is
//! sound. The flight recorder lets us check this *as an event-ordering
//! property* of real concurrent executions rather than by construction:
//! an object the barrier shaded gray inside the current GC cycle must
//! never be reclaimed by that cycle's sweep (unless its table index was
//! recycled by a fresh allocation in between).
//!
//! On a single simulated processor every event is emitted by one host
//! thread, so the merged timeline *is* the real-time order and the full
//! I6 scan is sound. On multiple processors merged cycle order is not
//! real-time order, so the multi-cpu test checks the order-free
//! projection instead: phase-event counts against the collector's own
//! statistics.
//!
//! The suite runs in both feature configurations; without `--features
//! trace` the timeline checks are vacuous but the end-to-end oracle
//! assertions (GC daemon invisible to workload outcomes, garbage really
//! reclaimed) still bite.

use i432_arch::sysobj::{CTX_SLOT_DOMAIN, CTX_SLOT_SRO};
use i432_gdp::isa::{AluOp, DataDst, DataRef, Instruction};
use i432_gdp::process::ProcessSpec;
use i432_gdp::ProgramBuilder;
use i432_sim::{run_threaded, System, SystemConfig};
use i432_trace::{EventKind, TimelineEvent};
use imax_gc::{install_gc_daemon, Collector};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Scans a merged single-processor timeline for I6 violations and GC
/// phase-protocol violations. Returns the number of reclaim events.
///
/// Sound against ring wraparound: drops discard the *oldest* records,
/// so if a shade survives in the buffer every later allocation of that
/// index survives too — a dropped prefix can hide a violation but never
/// fabricate one.
fn check_i6_single_stream(events: &[TimelineEvent]) -> Result<u64, String> {
    #[derive(PartialEq, Clone, Copy, Debug)]
    enum Phase {
        Idle,
        Mark,
        Sweep,
    }
    // Unknown until the first phase event (wraparound may cut the head).
    let mut phase: Option<Phase> = None;
    let mut last_mark: Option<usize> = None;
    let mut last_shade: HashMap<u32, usize> = HashMap::new();
    let mut last_alloc: HashMap<u32, usize> = HashMap::new();
    let mut last_reclaim: HashMap<u32, usize> = HashMap::new();
    let mut reclaims = 0u64;
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::GcPhaseMark => {
                if phase == Some(Phase::Mark) || phase == Some(Phase::Sweep) {
                    return Err(format!("event {i}: mark began out of {phase:?}"));
                }
                phase = Some(Phase::Mark);
                last_mark = Some(i);
            }
            EventKind::GcPhaseSweep => {
                if phase.is_some() && phase != Some(Phase::Mark) {
                    return Err(format!("event {i}: sweep began out of {phase:?}"));
                }
                phase = Some(Phase::Sweep);
            }
            EventKind::GcPhaseIdle => {
                if phase.is_some() && phase != Some(Phase::Sweep) {
                    return Err(format!("event {i}: cycle ended out of {phase:?}"));
                }
                phase = Some(Phase::Idle);
            }
            EventKind::GcShadeGray => {
                last_shade.insert(e.obj, i);
            }
            EventKind::SroAlloc => {
                last_alloc.insert(e.obj, i);
            }
            EventKind::GcSweepReclaim => {
                reclaims += 1;
                if phase.is_some() && phase != Some(Phase::Sweep) {
                    return Err(format!(
                        "event {i}: object {} reclaimed during {phase:?}, not sweep",
                        e.obj
                    ));
                }
                // I6: shaded inside the current cycle (after its
                // mark-start) and not index-recycled since ⇒ the object
                // is gray or black at the sweep and must survive it.
                if let (Some(m), Some(&s)) = (last_mark, last_shade.get(&e.obj)) {
                    if s > m && last_alloc.get(&e.obj).is_none_or(|&a| a < s) {
                        return Err(format!(
                            "I6 violation: object {} shaded gray at event {s} \
                             (cycle {}) within the current GC cycle was reclaimed \
                             at event {i} (cycle {})",
                            e.obj, events[s].cycle, e.cycle
                        ));
                    }
                }
                // A reclaimed index is free; reclaiming it again without
                // an intervening allocation would be a double free.
                if let Some(&r) = last_reclaim.get(&e.obj) {
                    if last_alloc.get(&e.obj).is_none_or(|&a| a < r) {
                        return Err(format!(
                            "event {i}: object {} reclaimed twice (first at event {r}) \
                             with no intervening allocation",
                            e.obj
                        ));
                    }
                }
                last_reclaim.insert(e.obj, i);
            }
            _ => {}
        }
    }
    Ok(reclaims)
}

/// A mutator that makes garbage: each iteration allocates a 32-byte
/// object into context slot 6, dropping the previous iteration's object.
fn garbage_maker(iters: u64) -> Vec<Instruction> {
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(iters), DataDst::Local(0));
    p.bind(top);
    p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(32), DataRef::Imm(0), 6);
    p.alu(
        AluOp::Sub,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    p.jump_if_nonzero(DataRef::Local(0), top);
    p.halt();
    p.finish()
}

/// A system with the GC daemon time-slicing *at mutator priority* (so a
/// single processor round-robins daemon and mutators) plus `mutators`
/// churn processes.
fn churn_system(cpus: u32, mutators: usize, iters: u64) -> (System, Arc<Mutex<Collector>>) {
    churn_system_sharded(cpus, 1, mutators, iters)
}

/// [`churn_system`] over a sharded space.
fn churn_system_sharded(
    cpus: u32,
    shards: u32,
    mutators: usize,
    iters: u64,
) -> (System, Arc<Mutex<Collector>>) {
    let mut sys = System::new(
        &SystemConfig::small()
            .with_processors(cpus)
            .with_shards(shards),
    );
    let collector = Arc::new(Mutex::new(Collector::new()));
    let daemon = install_gc_daemon(&mut sys, Arc::clone(&collector), 32, 128);
    if let Ok(ps) = sys.space.process_mut(daemon) {
        ps.timeslice = 4_000;
        ps.slice_remaining = 4_000;
    }
    let sub = sys.subprogram("garbage_maker", garbage_maker(iters), 64, 8);
    let dom = sys.install_domain("churn", vec![sub], 0);
    let dispatch = sys.dispatch_ad();
    for _ in 0..mutators {
        let mut spec = ProcessSpec::new(dispatch);
        // Short slices force frequent preemption: the collector's
        // increments genuinely interleave with allocation and barrier
        // activity instead of running between completed mutators.
        spec.timeslice = 2_000;
        sys.spawn_with(dom, 0, None, spec);
    }
    (sys, collector)
}

#[test]
fn i6_holds_under_single_cpu_threaded_churn() {
    let _guard = i432_trace::test_guard();
    i432_trace::reset();
    i432_trace::set_context(0, 0);

    let (sys, collector) = churn_system(1, 2, 200);
    // Unbounded: the step count depends on the interleaving, so no
    // finite budget is schedule-independent; the mutators provably halt
    // and the runner stops when they do (the daemon is a service).
    let (sys, outcome) = run_threaded(sys, u64::MAX);
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "churn workload failed: {outcome:?}"
    );
    drop(sys);
    let stats = collector.lock().stats;
    assert!(
        stats.reclaimed >= 1,
        "the daemon reclaimed churn garbage while mutators ran: {stats:?}"
    );

    let t = i432_trace::drain_timeline();
    if i432_trace::ENABLED {
        let reclaim_events = check_i6_single_stream(&t.events).unwrap_or_else(|e| panic!("{e}"));
        assert!(reclaim_events >= 1, "the timeline saw the reclaims");
        if t.dropped == 0 {
            assert_eq!(
                reclaim_events, stats.reclaimed,
                "every reclaim left exactly one trace event"
            );
        }
    }
    i432_trace::reset();
}

#[test]
fn i6_holds_on_conform_seeds_with_gc_daemon() {
    let _guard = i432_trace::test_guard();
    for seed in [5u64, 23, 57] {
        let case = i432_conform::generate(seed);
        let reference = i432_conform::run_deterministic(&case);

        i432_trace::reset();
        i432_trace::set_context(0, 0);
        let (_sys, outcome, collector) = i432_conform::run_threaded_sys_gc(&case, 4, 1, 16);
        assert_eq!(
            outcome, reference,
            "seed {seed}: a concurrent collector must be invisible to the \
             workload-visible end state"
        );
        let stats = collector.lock().stats;
        assert!(
            stats.mark_steps + stats.sweep_steps >= 1,
            "seed {seed}: the daemon really ran increments: {stats:?}"
        );

        let t = i432_trace::drain_timeline();
        if i432_trace::ENABLED {
            check_i6_single_stream(&t.events).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(
                !t.of_kind(EventKind::GcIncrement).is_empty(),
                "seed {seed}: daemon increments reached the timeline"
            );
        }

        // Two GDP threads: the daemon's sections interleave with a
        // mutator on the other thread. Merged order is not real-time
        // order there, so only the end state is checked.
        let (_sys, outcome, _) = i432_conform::run_threaded_sys_gc(&case, 4, 2, 16);
        assert_eq!(
            outcome, reference,
            "seed {seed}: the daemon on a second GDP thread must be invisible \
             to the workload-visible end state"
        );
    }
    i432_trace::reset();
}

#[test]
fn sweep_cost_is_proportional_to_live_pages_not_index_range() {
    use i432_arch::{ObjectSpec, ShardedSpace, SpaceMut};

    let _guard = i432_trace::test_guard();
    i432_trace::reset();
    i432_trace::reset_counters();

    // Fill ~4 leaf pages of the directory with unreachable zero-size
    // objects; the first cycle reclaims them all, leaving a table whose
    // index space is still ~4100 wide but nearly empty.
    const LEAF: u32 = i432_arch::object_table::LEAF_ENTRIES;
    let mut space = ShardedSpace::new(64 * 1024, 4096, 8 * LEAF, 1);
    let root = space.root_sro();
    for _ in 0..(4 * LEAF + 8) {
        space
            .create_object(root, ObjectSpec::generic(0, 0))
            .unwrap();
    }
    assert_eq!(space.leaf_pages(), 5, "population spans five pages");

    let mut gc = Collector::new();
    let before = i432_trace::snapshot();
    gc.collect_full(&mut space).unwrap();
    let full_steps = gc.stats.sweep_steps;
    let mid = i432_trace::snapshot();
    gc.collect_full(&mut space).unwrap();
    let after = i432_trace::snapshot();
    let empty_steps = gc.stats.sweep_steps - full_steps;

    // The second sweep still faces an index space of ~4100 slots (the
    // directory never shrinks), but only page 0 holds anything live, so
    // the cursor must jump the four dead pages instead of probing
    // every chunk of every slot.
    let index_chunks =
        (i432_arch::SpaceMut::index_space_end(&space) / gc.config.sweep_chunk) as u64;
    let live_page_chunks = (LEAF / gc.config.sweep_chunk) as u64;
    assert!(
        empty_steps <= live_page_chunks + space.leaf_pages() as u64,
        "sweeping a nearly-empty table took {empty_steps} steps; \
         want O(live pages) = ~{live_page_chunks}, not O(index range) = {index_chunks}"
    );
    assert!(
        empty_steps * 2 < full_steps,
        "dead-page skipping must beat the full sweep: {empty_steps} vs {full_steps}"
    );

    if i432_trace::ENABLED {
        use i432_trace::Counter;
        let full_pages = mid.get(Counter::GcSweepPages) - before.get(Counter::GcSweepPages);
        let empty_pages = after.get(Counter::GcSweepPages) - mid.get(Counter::GcSweepPages);
        assert!(full_pages >= 5, "the first sweep touched every live page");
        assert!(
            empty_pages <= live_page_chunks + space.leaf_pages() as u64,
            "page probes after mass reclaim must be bounded by live pages: \
             {empty_pages} probes vs {index_chunks} index chunks"
        );
    }
    i432_trace::reset();
    i432_trace::reset_counters();
}

#[test]
fn gc_phase_counts_are_consistent_on_multiple_cpus() {
    let _guard = i432_trace::test_guard();
    i432_trace::reset();
    i432_trace::set_context(0, 0);

    let (sys, collector) = churn_system_sharded(4, 4, 4, 120);
    // Unbounded: the step count depends on the interleaving, so no
    // finite budget is schedule-independent; the mutators provably halt
    // and the runner stops when they do (the daemon is a service).
    let (sys, outcome) = run_threaded(sys, u64::MAX);
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "churn workload failed: {outcome:?}"
    );
    drop(sys);
    let stats = collector.lock().stats;

    let t = i432_trace::drain_timeline();
    if i432_trace::ENABLED && t.dropped == 0 {
        // Merged cycle order across processors is not real-time order,
        // so check the order-free projection: the phase events form a
        // prefix of (mark sweep idle)*, and reclaims match the
        // collector's own accounting exactly.
        let marks = t.of_kind(EventKind::GcPhaseMark).len() as u64;
        let sweeps = t.of_kind(EventKind::GcPhaseSweep).len() as u64;
        let idles = t.of_kind(EventKind::GcPhaseIdle).len() as u64;
        assert!(
            (sweeps == idles || sweeps == idles + 1) && (marks == sweeps || marks == sweeps + 1),
            "phase events are a prefix of (mark sweep idle)*: \
             {marks} marks / {sweeps} sweeps / {idles} idles"
        );
        assert_eq!(idles, stats.cycles, "one idle event per completed cycle");
        assert_eq!(
            t.of_kind(EventKind::GcSweepReclaim).len() as u64,
            stats.reclaimed,
            "one reclaim event per reclaimed object"
        );
        assert_eq!(
            t.of_kind(EventKind::GcIncrement).len() as u64,
            stats.mark_steps + stats.sweep_steps + marks,
            "one increment event per collector step (an idle-phase step \
             restarts the cycle, emitting the mark event)"
        );
    }
    i432_trace::reset();
}

// ---------------------------------------------------------------------
// Per-shard projections of the daemon's timeline.
// ---------------------------------------------------------------------

/// Projects a timeline onto one shard: object events (shade, alloc,
/// reclaim) whose index stripes to shard `k`, plus every phase event.
/// On a single-cpu run with a serial daemon the merged order is real
/// order, so [`check_i6_single_stream`] of this projection is a genuine
/// *per-shard* I6 event-order scan.
fn shard_projection(events: &[TimelineEvent], shards: u32, k: u32) -> Vec<TimelineEvent> {
    events
        .iter()
        .filter(|e| match e.kind {
            EventKind::GcPhaseMark | EventKind::GcPhaseSweep | EventKind::GcPhaseIdle => true,
            EventKind::GcShadeGray | EventKind::SroAlloc | EventKind::GcSweepReclaim => {
                e.obj % shards == k
            }
            _ => false,
        })
        .copied()
        .collect()
}

/// I6 must hold *per shard*, not merely in aggregate: the per-shard
/// projection of a single-cpu timeline is scanned in full event order
/// for every shard of a 4-way striped space.
#[test]
fn i6_holds_per_shard_with_daemon_on_sharded_space() {
    let _guard = i432_trace::test_guard();
    i432_trace::reset();
    i432_trace::set_context(0, 0);

    const SHARDS: u32 = 4;
    let (sys, collector) = churn_system_sharded(1, SHARDS, 2, 200);
    let (sys, outcome) = run_threaded(sys, u64::MAX);
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "churn workload failed: {outcome:?}"
    );
    drop(sys);
    let stats = collector.lock().stats;
    assert!(stats.reclaimed >= 1, "churn garbage reclaimed: {stats:?}");

    let t = i432_trace::drain_timeline();
    if i432_trace::ENABLED {
        let mut reclaims = 0;
        for k in 0..SHARDS {
            let proj = shard_projection(&t.events, SHARDS, k);
            reclaims += check_i6_single_stream(&proj).unwrap_or_else(|e| panic!("shard {k}: {e}"));
        }
        if t.dropped == 0 {
            assert_eq!(
                reclaims, stats.reclaimed,
                "the per-shard projections partition the reclaim events"
            );
        }
    }
    i432_trace::reset();
}

/// Runs of each collector-window test below: each run is one more chance
/// for a sweep to land in an open window.
const ROUNDS: u32 = 2;

/// CREATE-OBJECT allocates its object and stores the new descriptor in
/// one atomic unit. Were they two lock sections, the object would live
/// only in the GDP's registers in between, where the collector cannot
/// see it: a concurrent sweep would find it white with no descriptor
/// anywhere in the space and reclaim it, and the process would fault
/// with a stale reference. One process allocates in a loop on one of
/// two processors while the GC daemon collects on the other; the table
/// has room for every object it makes, so nothing but that race can
/// fault it.
#[test]
fn created_objects_survive_concurrent_sweeps() {
    const ITERS: u64 = 20_000;
    let _guard = i432_trace::test_guard();
    let code = garbage_maker(ITERS);
    for round in 0..ROUNDS {
        let mut cfg = SystemConfig::small().with_processors(2);
        cfg.table_limit = 2 * ITERS as u32;
        cfg.data_bytes = 64 * ITERS as u32;
        let mut sys = System::new(&cfg);
        let collector = Arc::new(Mutex::new(Collector::new()));
        install_gc_daemon(&mut sys, Arc::clone(&collector), 16, 128);
        let sub = sys.subprogram("garbage_maker", code.clone(), 64, 8);
        let dom = sys.install_domain("churn", vec![sub], 0);
        let proc_ref = sys.spawn(dom, 0, None);
        let (sys, outcome) = run_threaded(sys, u64::MAX);
        assert!(
            outcome.completed && outcome.system_errors == 0,
            "{outcome:?}"
        );
        let ps = sys.space.process(proc_ref).unwrap();
        assert_eq!(
            ps.fault_code, 0,
            "round {round}: the process faulted ({:?})",
            ps.status
        );
        assert!(
            collector.lock().stats.reclaimed >= 1,
            "round {round}: the daemon swept while the process allocated"
        );
    }
    i432_trace::reset();
}

/// A caller that makes garbage and calls subprogram 1 of its own domain
/// in a loop: each iteration allocates a 32-byte object into context
/// slot 6, dropping the previous one, then makes one CALL.
fn call_loop(iters: u64) -> Vec<Instruction> {
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(iters), DataDst::Local(0));
    p.bind(top);
    p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(32), DataRef::Imm(0), 6);
    p.call(CTX_SLOT_DOMAIN as u16, 1, None, None, None);
    p.alu(
        AluOp::Sub,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    p.jump_if_nonzero(DataRef::Local(0), top);
    p.halt();
    p.finish()
}

/// CALL creates the callee's context and links it into the process in
/// one section; RETURN, and a native CALL once its body ran, destroy the
/// callee and relink the caller in one section. Were any of these two
/// lock sections, a context would live only in the GDP's registers in
/// between: the new callee before its link, the caller (held only by
/// the callee) or the unlinked callee on the way back. A concurrent
/// sweep would reclaim it and the process would fault with a stale
/// reference. One process calls in a loop on one of two processors,
/// into an interpreted leaf or a registered native, while the GC daemon
/// collects on the other.
#[test]
fn call_return_contexts_survive_concurrent_sweeps() {
    use i432_arch::{CodeBody, Subprogram};
    use i432_gdp::NativeReturn;
    const ITERS: u64 = 20_000;
    let _guard = i432_trace::test_guard();
    for native in [false, true] {
        let case = if native { "native" } else { "interpreted" };
        for round in 0..ROUNDS {
            let mut cfg = SystemConfig::small().with_processors(2);
            cfg.table_limit = 2 * ITERS as u32;
            cfg.data_bytes = 64 * ITERS as u32;
            let mut sys = System::new(&cfg);
            let collector = Arc::new(Mutex::new(Collector::new()));
            install_gc_daemon(&mut sys, Arc::clone(&collector), 16, 128);
            let leaf = if native {
                let nid = sys.natives.register("test.leaf", |cx| {
                    cx.charge(10);
                    Ok(NativeReturn::value(7))
                });
                Subprogram {
                    name: "leaf".into(),
                    body: CodeBody::Native(nid),
                    ctx_data_len: 16,
                    ctx_access_len: 8,
                }
            } else {
                let ret = Instruction::Return {
                    ad: None,
                    value: None,
                };
                sys.subprogram("leaf", vec![ret], 16, 8)
            };
            let main = sys.subprogram("caller", call_loop(ITERS), 64, 8);
            let dom = sys.install_domain("calls", vec![main, leaf], 0);
            let proc_ref = sys.spawn(dom, 0, None);
            let (sys, outcome) = run_threaded(sys, u64::MAX);
            assert!(
                outcome.completed && outcome.system_errors == 0,
                "{case}, round {round}: {outcome:?}"
            );
            let ps = sys.space.process(proc_ref).unwrap();
            assert_eq!(
                ps.fault_code, 0,
                "{case}, round {round}: the process faulted ({:?})",
                ps.status
            );
            assert!(
                collector.lock().stats.reclaimed >= 1,
                "{case}, round {round}: the daemon swept while the process called"
            );
        }
    }
    i432_trace::reset();
}

/// Hub-rooted populations: all marking work is rooted in shard 0 (wide
/// fan-out hubs whose children land on seed-chosen shards). Soundness
/// must be exact for every seed — garbage counts reclaimed to the
/// object, live graphs untouched.
#[test]
fn hub_rooted_seeds_mark_exactly() {
    use i432_arch::{ObjectRef, ObjectSpec, Rights, ShardedSpace, SharedSpace};
    // Its collections record phase events, which the recorder's other
    // tests count.
    let _guard = i432_trace::test_guard();

    const SHARDS: u32 = 4;
    for seed in [0x5eed1u64, 0x5eed2, 0x5eed3] {
        let mut lcg = seed;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut s = ShardedSpace::new(1 << 20, 1 << 14, 1 << 12, SHARDS);
        let root0 = s.root_sro();
        let cpu = s
            .create_object(
                root0,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::CPU_ACCESS_SLOTS,
                    otype: i432_arch::ObjectType::System(i432_arch::SystemType::Processor),
                    level: None,
                    sys: i432_arch::SysState::Processor(i432_arch::ProcessorState::new(0)),
                },
            )
            .unwrap();
        // A chain of 8 hubs in shard 0, each fanning out to 30 children
        // on seed-chosen shards.
        let mut live = Vec::new();
        let mut prev_hub: Option<ObjectRef> = None;
        for _ in 0..8 {
            let hub = s.create_object(root0, ObjectSpec::generic(0, 32)).unwrap();
            for slot in 0..30 {
                let shard = (next() % u64::from(SHARDS)) as u32;
                let child = s
                    .create_object(s.root_sro_of(shard), ObjectSpec::generic(16, 0))
                    .unwrap();
                let ad = s.mint(child, Rights::ALL);
                s.store_ad_hw(hub, slot, Some(ad)).unwrap();
                live.push(child);
            }
            if let Some(p) = prev_hub {
                let ad = s.mint(p, Rights::ALL);
                s.store_ad_hw(hub, 31, Some(ad)).unwrap();
            }
            prev_hub = Some(hub);
            live.push(hub);
        }
        let hub_ad = s.mint(prev_hub.unwrap(), Rights::ALL);
        s.store_ad_hw(cpu, i432_arch::sysobj::CPU_SLOT_ROOT, Some(hub_ad))
            .unwrap();
        // Seeded garbage across all shards, never stored anywhere (so it
        // is white and dies in cycle 1).
        let mut garbage = Vec::new();
        for shard in 0..SHARDS {
            for _ in 0..(10 + next() % 20) {
                garbage.push(
                    s.create_object(s.root_sro_of(shard), ObjectSpec::generic(8, 0))
                        .unwrap(),
                );
            }
        }

        let shared = SharedSpace::new(s);
        let mut gc = Collector::new();
        gc.collect_shared(&shared, 2).unwrap();
        assert_eq!(
            gc.stats.reclaimed,
            garbage.len() as u64,
            "seed {seed:#x}: exactly the white garbage reclaimed"
        );
        let space = shared.into_inner();
        for o in &live {
            assert!(space.entry(*o).is_ok(), "seed {seed:#x}: live object lost");
        }
        for g in &garbage {
            assert!(space.entry(*g).is_err(), "seed {seed:#x}: garbage kept");
        }
    }
}
