//! System-level edge cases of the parallel per-shard collector: table
//! exhaustion racing the mark phase, and the two-cycle wave-retirement
//! behavior (the C11 shard-0 regression) reproduced through the real
//! process machinery.
//!
//! The gray-deque *data-structure* edge cases (steal-vs-push races,
//! empty-steal termination) live next to the deque in
//! `crates/gc/src/gray.rs`.

use i432_arch::{
    ArchError, ObjectSpec, ShardedSpace, SharedSpace, SpaceAccess, SpaceMut, SysState,
};
use i432_gdp::ProgramBuilder;
use i432_sim::{System, SystemConfig};
use imax_gc::{GcConfig, ParallelGc};

/// A 2-shard space whose object table is filled to the ceiling: a small
/// anchored live chain, the rest unreferenced (white) garbage.
fn exhausted_space() -> (ShardedSpace, u64) {
    // The ceiling is striped across shards, so shard 0 (where everything
    // below allocates) gets a quota of 128 entries.
    const LIMIT: u32 = 256;
    let mut s = ShardedSpace::new(1 << 18, 4096, LIMIT, 2);
    let root = s.root_sro();
    let cpu = s
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: i432_arch::sysobj::CPU_ACCESS_SLOTS,
                otype: i432_arch::ObjectType::System(i432_arch::SystemType::Processor),
                level: None,
                sys: SysState::Processor(i432_arch::ProcessorState::new(0)),
            },
        )
        .unwrap();
    let mut prev = None;
    for _ in 0..8 {
        let o = s.create_object(root, ObjectSpec::generic(16, 2)).unwrap();
        if let Some(p) = prev {
            let ad = s.mint(p, i432_arch::Rights::ALL);
            s.store_ad_hw(o, 0, Some(ad)).unwrap();
        }
        prev = Some(o);
    }
    let head = s.mint(prev.unwrap(), i432_arch::Rights::ALL);
    s.store_ad_hw(cpu, i432_arch::sysobj::CPU_SLOT_ROOT, Some(head))
        .unwrap();
    // Fill the rest of the table with garbage until it refuses.
    let mut garbage = 0u64;
    loop {
        match s.create_object(root, ObjectSpec::generic(8, 0)) {
            Ok(_) => garbage += 1,
            Err(ArchError::TableExhausted) => break,
            Err(e) => panic!("unexpected fault while filling the table: {e:?}"),
        }
    }
    (s, garbage)
}

/// `TableExhausted` mid-mark: an allocator hammers a full table while
/// the parallel collector marks and sweeps it. The faults must stay
/// ordinary recoverable faults (no collector error, no wedged space),
/// and allocation must succeed again once a sweep has freed entries.
#[test]
fn table_exhausted_mid_mark_recovers_after_sweep() {
    let (s, garbage) = exhausted_space();
    assert!(
        garbage > 50,
        "the table really was full ({garbage} garbage)"
    );
    let shared = SharedSpace::new(s);

    // Deterministic precondition: the table is exhausted before any
    // collection has run.
    {
        let mut agent = shared.agent();
        let root = agent.root_sro();
        assert!(matches!(
            agent.create_object(root, ObjectSpec::generic(8, 0)),
            Err(ArchError::TableExhausted)
        ));
    }

    let gc = ParallelGc::new(2, GcConfig::default());
    let mut exhausted_seen = 0u64;
    let mut succeeded = 0u64;
    std::thread::scope(|scope| {
        scope.spawn(|| gc.collect_on(&shared, 2));
        // The allocator races the mark phase: early attempts fault on
        // the full table, later ones land in entries the sweep freed.
        // The yield keeps the collector threads runnable on one-core
        // hosts; once its first sweep has freed the white prefill, the
        // very next attempt lands.
        let mut agent = shared.agent();
        let root = agent.root_sro();
        for _ in 0..2_000_000 {
            match agent.create_object(root, ObjectSpec::generic(8, 0)) {
                Ok(_) => {
                    succeeded += 1;
                    break;
                }
                Err(ArchError::TableExhausted) => exhausted_seen += 1,
                Err(e) => panic!("unexpected allocator fault: {e:?}"),
            }
            std::thread::yield_now();
        }
    });

    let stats = gc.snapshot();
    assert_eq!(stats.errors, Vec::<String>::new());
    assert!(
        stats.gc.reclaimed >= garbage,
        "the white garbage was reclaimed: {stats:?}"
    );
    assert!(
        succeeded >= 1,
        "allocation recovered after the sweep ({exhausted_seen} faults seen)"
    );
    // The live chain survived the churn.
    let space = shared.into_inner();
    let mut processors = 0;
    space.for_each_live(&mut |_, e| {
        if matches!(
            e.desc.otype,
            i432_arch::ObjectType::System(i432_arch::SystemType::Processor)
        ) {
            processors += 1;
        }
    });
    assert_eq!(processors, 1);
}

/// The C11-discovered wave behavior at system level: a wave of
/// processes runs to termination and is retired (anchors cleared). All
/// of its objects were shaded gray by ordinary stores during the run,
/// so the parallel collector must launder them in cycle 1 and reclaim
/// the whole wave in cycle 2 — never cycle 1, never cycle 3.
#[test]
fn wave_retirement_needs_exactly_two_cycles() {
    const SHARDS: u32 = 4;
    let mut sys = System::new(&SystemConfig::small().with_shards(SHARDS));
    let mut p = ProgramBuilder::new();
    p.halt();
    let sub = sys.subprogram("noop", p.finish(), 32, 8);
    let dom = sys.install_domain("wave", vec![sub], 0);
    let procs: Vec<_> = (0..12).map(|_| sys.spawn(dom, 0, None)).collect();
    sys.run_to_completion(10_000_000);
    for p in &procs {
        assert_eq!(
            sys.status_of(*p),
            Some(i432_arch::ProcessStatus::Terminated)
        );
    }
    assert_eq!(sys.retire_terminated(), 12);

    let space = std::mem::replace(&mut sys.space, ShardedSpace::new(4096, 64, 16, 1));
    let shared = SharedSpace::new(space);
    let gc = ParallelGc::new(SHARDS, GcConfig::default());

    gc.collect_on(&shared, 1);
    {
        let mut agent = shared.agent();
        for p in &procs {
            assert!(
                agent.color_of(*p).is_ok(),
                "cycle 1 must launder the gray wave, not reclaim it"
            );
        }
    }
    gc.collect_on(&shared, 1);
    {
        let mut agent = shared.agent();
        for p in &procs {
            assert!(
                agent.color_of(*p).is_err(),
                "cycle 2 must reclaim the retired wave"
            );
        }
    }
    let stats = gc.snapshot();
    assert_eq!(stats.errors, Vec::<String>::new());
    assert!(
        stats.gc.reclaimed >= 12,
        "the wave (and its context chains) was reclaimed: {stats:?}"
    );
    sys.space = shared.into_inner();
    // Tracking reconciliation drops nothing new (retirement already ran)
    // and leaves no dangling refs behind.
    assert_eq!(sys.retire_terminated(), 0);
    assert!(sys.processes().is_empty());
}
