//! Lost process trees come back through the destruction filter while
//! the parallel collector runs (paper §8.2 + §9: "release 1 uses
//! destruction filters only to recover lost process objects").
//!
//! The shape under test: a client builds a three-process tree through
//! the basic process manager and then loses every descriptor to it.
//! The per-shard collector, running on its own threads, must *deliver*
//! the process objects to the manager's filter port instead of
//! reclaiming them; the manager drains the port concurrently,
//! re-anchors the recovered tree, walks its intact child links, and
//! disassembles it properly with `reap` — after which ordinary
//! collection reclaims the leftovers (contexts) and nothing is ever
//! notified twice.

use i432_arch::{
    CodeBody, CodeRef, DomainState, ObjectSpec, ObjectType, PortDiscipline, PortState,
    ProcessStatus, Rights, ShardedSpace, SharedSpace, SpaceAccessExt, SpaceMut, Subprogram,
    SysState, SystemType,
};
use i432_gdp::process::ProcessSpec;
use imax_gc::{drain_filter_port, GcConfig, ParallelGc};
use imax_ipc::create_port;
use imax_process::BasicProcessManager;

const SHARDS: u32 = 2;

#[test]
fn lost_tree_is_recovered_and_reaped_under_parallel_gc() {
    let mut s = ShardedSpace::new(128 * 1024, 8 * 1024, 2048, SHARDS);
    let root = s.root_sro();
    s.create_object(
        root,
        ObjectSpec {
            data_len: 0,
            access_len: i432_arch::sysobj::CPU_ACCESS_SLOTS,
            otype: ObjectType::System(SystemType::Processor),
            level: None,
            sys: SysState::Processor(i432_arch::ProcessorState::new(0)),
        },
    )
    .unwrap();
    let dispatch_obj = s
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: PortState::access_slots(64, 16),
                otype: ObjectType::System(SystemType::Port),
                level: None,
                sys: SysState::Port(PortState::new(64, 16, PortDiscipline::Fifo)),
            },
        )
        .unwrap();
    let dispatch = s.mint(dispatch_obj, Rights::NONE);
    let dom_obj = s
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: 2,
                otype: ObjectType::System(SystemType::Domain),
                level: None,
                sys: SysState::Domain(DomainState {
                    name: "d".into(),
                    subprograms: vec![Subprogram {
                        name: "main".into(),
                        body: CodeBody::Interpreted(CodeRef(0)),
                        ctx_data_len: 32,
                        ctx_access_len: 8,
                    }],
                }),
            },
        )
        .unwrap();
    let domain = s.mint(dom_obj, Rights::CALL);
    let fport = create_port(&mut s, root, 8, PortDiscipline::Fifo).unwrap();
    // The manager's holding pen for recovered objects: re-anchoring a
    // drained descriptor here (in the same atomic section as the drain)
    // is what keeps a recovered object alive past the next cycle.
    let nursery = s.create_object(root, ObjectSpec::generic(0, 16)).unwrap();

    let mut mgr = BasicProcessManager::new();
    let spec = || ProcessSpec::new(dispatch);
    let parent = mgr
        .create_process(&mut s, root, domain, 0, None, spec(), None)
        .unwrap();
    let c1 = mgr
        .create_process(&mut s, root, domain, 0, None, spec(), Some(parent))
        .unwrap();
    let c2 = mgr
        .create_process(&mut s, root, domain, 0, None, spec(), Some(parent))
        .unwrap();
    // ... and the client loses the whole tree: nothing anchors it.

    let config = GcConfig {
        extra_roots: vec![dispatch_obj, dom_obj, fport.object(), nursery],
        process_filter_port: Some(fport.ad()),
        ..GcConfig::default()
    };
    let gc = ParallelGc::new(SHARDS, config);

    let shared = SharedSpace::new(s);
    let mut recovered = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| gc.collect_on(&shared, 6));
        // The type manager's side, concurrent with the collector:
        // drain the filter port and immediately re-anchor whatever
        // arrived, atomically, so a recovered object can never be
        // unreferenced again between cycles.
        while recovered.len() < 3 {
            let batch = shared
                .agent()
                .atomically(|sm| -> Result<_, i432_gdp::Fault> {
                    let ads = drain_filter_port(sm, fport.ad())?;
                    for ad in &ads {
                        let slot = (0..16)
                            .find(|i| sm.load_ad_hw(nursery, *i).unwrap().is_none())
                            .expect("nursery has room");
                        sm.store_ad_hw(nursery, slot, Some(*ad))
                            .map_err(i432_gdp::Fault::from)?;
                    }
                    Ok(ads)
                })
                .unwrap();
            recovered.extend(batch);
            std::thread::yield_now();
        }
    });

    let stats = gc.snapshot();
    assert_eq!(stats.errors, Vec::<String>::new());
    assert_eq!(
        stats.gc.finalized, 3,
        "each lost process delivered exactly once"
    );
    let got: std::collections::HashSet<_> = recovered.iter().map(|ad| ad.obj).collect();
    assert_eq!(got, [parent, c1, c2].into_iter().collect());
    for ad in &recovered {
        assert_eq!(
            ad.rights,
            Rights::ALL,
            "the collector manufactures a full-rights descriptor"
        );
    }

    // The recovered tree's links are intact: the manager can still walk
    // it and disassemble it properly.
    let mut agent = shared.agent();
    agent.atomically(|sm| {
        assert_eq!(mgr.children(sm, parent).unwrap(), vec![c1, c2]);
        for p in [c1, c2, parent] {
            sm.process_mut(p).unwrap().status = ProcessStatus::Terminated;
        }
        // Un-pen them first so the nursery holds no stale descriptors.
        for slot in 0..16 {
            sm.store_ad_hw(nursery, slot, None).unwrap();
        }
        for p in [c1, c2, parent] {
            mgr.reap(sm, p).unwrap();
        }
    });
    drop(agent);
    assert_eq!(mgr.stats.reaped, 3);

    // The reaped processes' contexts are garbage now; ordinary
    // collection takes them, and nothing is re-delivered.
    gc.collect_on(&shared, 2);
    let stats = gc.snapshot();
    assert_eq!(stats.errors, Vec::<String>::new());
    assert_eq!(stats.gc.finalized, 3, "no second notification");
    assert!(
        stats.gc.reclaimed >= 3,
        "the orphaned contexts were reclaimed: {stats:?}"
    );
    let space = shared.into_inner();
    let mut live_procs = 0;
    space.for_each_live(&mut |_, e| {
        if matches!(e.desc.otype, ObjectType::System(SystemType::Process)) {
            live_procs += 1;
        }
    });
    assert_eq!(live_procs, 0, "the tree is fully disassembled");
}
