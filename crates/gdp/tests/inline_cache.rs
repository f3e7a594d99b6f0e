//! Integration tests for the monomorphic inline caches on the fused
//! fast path, structurally mirroring `arch/tests/qualcache.rs`: the IC
//! keeps the same invalidation contract as the per-agent qualification
//! cache — epoch-validated lines, generation-exact descriptor identity,
//! direct-mapped aliasing that only ever costs a refill. Nothing in a
//! line depends on the process presenting the descriptor, so lines
//! survive processor rebinding.
//!
//! The cache is driven two ways: directly (`InlineCache` against live
//! `SharedSpace` shard epochs, as the executor drives it) and
//! end-to-end through a fused [`Gdp`] running call loops.

use i432_arch::{
    sysobj::{CTX_SLOT_ARG, CTX_SLOT_DOMAIN, CTX_SLOT_SRO, PROC_SLOT_CONTEXT},
    AccessDescriptor, CodeBody, CodeRef, DomainState, Level, ObjectSpec, ObjectType,
    PortDiscipline, PortRing, PortState, Rights, ShardedSpace, SharedSpace, SpaceAccess,
    SpaceAccessExt, Subprogram, SysState, SystemType,
};
use i432_gdp::{
    exec::{Env, Gdp, GdpMode, StepEvent},
    port,
    process::{make_process, make_processor, ProcessSpec},
    AluOp, CodeStore, CostModel, DataDst, DataRef, InlineCache, Instruction, NativeRegistry,
    NullInterconnect, Site, IC_LINES,
};
use std::sync::Arc;

const SHARDS: u32 = 4;

fn shared() -> SharedSpace {
    SharedSpace::new(ShardedSpace::new(65536, 1024, 512, SHARDS))
}

fn leaf_sub() -> Subprogram {
    Subprogram {
        name: "leaf".into(),
        body: CodeBody::Interpreted(CodeRef(1)),
        ctx_data_len: 64,
        ctx_access_len: 8,
    }
}

/// A monomorphic site hits after one fill — and only for the exact
/// descriptor and epoch it was filled with.
#[test]
fn hit_after_monomorphic_warmup() {
    let shared = shared();
    let mut a = shared.agent();
    let root = a.root_sro();
    let dom = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    let dom_ad = a.mint(dom, Rights::CALL);
    let site: Site = (CodeRef(0), 3);

    let mut ic = InlineCache::new();
    let epoch = a
        .qual_epoch(dom)
        .expect("shared-space agents expose shard epochs");
    assert!(
        ic.probe_call(site, 1, dom_ad, Some(epoch)).is_none(),
        "cold cache misses"
    );
    ic.fill_call(site, 1, dom_ad, epoch, leaf_sub());
    assert_eq!(ic.occupancy(), 1);
    assert!(
        ic.probe_call(site, 1, dom_ad, a.qual_epoch(dom)).is_some(),
        "warm monomorphic site hits"
    );
    // Same line, re-probed many times: still hot (no self-eviction).
    for _ in 0..8 {
        assert!(ic.probe_call(site, 1, dom_ad, a.qual_epoch(dom)).is_some());
    }
}

/// Any epoch movement in the target's shard invalidates the line; a
/// refill at the new epoch restores the hit.
#[test]
fn miss_and_refill_on_epoch_bump() {
    let shared = shared();
    let mut a = shared.agent();
    let root = a.root_sro();
    let dom = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    let dom_ad = a.mint(dom, Rights::CALL);
    let site: Site = (CodeRef(0), 3);
    let k = dom.index.0 % SHARDS;

    let mut ic = InlineCache::new();
    let e0 = a.qual_epoch(dom).unwrap();
    ic.fill_call(site, 1, dom_ad, e0, leaf_sub());
    assert!(ic.probe_call(site, 1, dom_ad, a.qual_epoch(dom)).is_some());

    // A mutation in the shard bumps the epoch the agent reads: the line
    // fails revalidation exactly like a qualcache line.
    shared.force_epoch(k, e0 + 1);
    assert!(
        ic.probe_call(site, 1, dom_ad, a.qual_epoch(dom)).is_none(),
        "epoch bump must miss"
    );

    // Miss-and-refill: the executor re-qualifies on the locked path and
    // fills at the *new* epoch; the site is hot again.
    let e1 = a.qual_epoch(dom).unwrap();
    ic.fill_call(site, 1, dom_ad, e1, leaf_sub());
    assert!(ic.probe_call(site, 1, dom_ad, a.qual_epoch(dom)).is_some());
}

/// Agent A fills a line; agent B destroys the target object. A's next
/// probe (with a fresh epoch read, as the executor always does) must
/// miss — never serve a subprogram of a destroyed domain.
#[test]
fn cross_agent_destroy_invalidates_line() {
    let shared = shared();
    let mut a = shared.agent();
    let mut b = shared.agent();
    let root = a.root_sro();
    let dom = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    let dom_ad = a.mint(dom, Rights::CALL);
    let site: Site = (CodeRef(0), 5);

    let mut ic = InlineCache::new();
    ic.fill_call(site, 0, dom_ad, a.qual_epoch(dom).unwrap(), leaf_sub());
    assert!(ic.probe_call(site, 0, dom_ad, a.qual_epoch(dom)).is_some());

    b.destroy_object(dom).unwrap();

    assert!(
        ic.probe_call(site, 0, dom_ad, a.qual_epoch(dom)).is_none(),
        "the destroy bumped the shard epoch; the line must fail revalidation"
    );
}

/// Slot reuse: destroy + recreate hands out the same table index with a
/// bumped generation. The reused slot's new descriptor must miss a line
/// filled for the old lifetime even when the epoch counter is pinned
/// back to the fill-time value — identity is generation-exact.
#[test]
fn slot_reuse_generation_guard() {
    let shared = shared();
    let mut a = shared.agent();
    let root = a.root_sro();
    let old = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    let old_ad = a.mint(old, Rights::CALL);
    let site: Site = (CodeRef(2), 9);
    let k = old.index.0 % SHARDS;

    let mut ic = InlineCache::new();
    let primed_epoch = a.qual_epoch(old).unwrap();
    ic.fill_call(site, 0, old_ad, primed_epoch, leaf_sub());

    a.destroy_object(old).unwrap();
    let new = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    assert_eq!(new.index, old.index, "free list reuses the table slot");
    assert_ne!(new.generation, old.generation, "reclaim bumps generation");
    let new_ad = a.mint(new, Rights::CALL);

    // Pin the epoch back to the exact fill-time value (simulating an
    // exact 2^64-bump return): the new lifetime's descriptor still
    // misses on generation.
    shared.force_epoch(k, primed_epoch);
    assert!(
        ic.probe_call(site, 0, new_ad, a.qual_epoch(new)).is_none(),
        "a reused slot's new descriptor must miss the old lifetime's line"
    );
}

/// Epoch wraparound: a line filled at `u64::MAX` misses after the next
/// bump wraps the counter to 0 — equality, not ordering.
#[test]
fn epoch_wraparound_still_invalidates() {
    let shared = shared();
    let mut a = shared.agent();
    let mut b = shared.agent();
    let root = a.root_sro();
    let dom = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    let dom_ad = a.mint(dom, Rights::CALL);
    let site: Site = (CodeRef(0), 1);
    let k = dom.index.0 % SHARDS;

    shared.force_epoch(k, u64::MAX);
    let mut ic = InlineCache::new();
    ic.fill_call(site, 0, dom_ad, a.qual_epoch(dom).unwrap(), leaf_sub());
    assert!(ic.probe_call(site, 0, dom_ad, a.qual_epoch(dom)).is_some());

    b.destroy_object(dom).unwrap();
    assert_eq!(shared.epoch(k), 0, "the bump wrapped the counter");
    assert!(
        ic.probe_call(site, 0, dom_ad, a.qual_epoch(dom)).is_none(),
        "wrapped epoch must still invalidate"
    );
}

/// A restricted descriptor is a *different* descriptor: rights are part
/// of line identity, so a weaker AD re-qualifies on the locked path.
#[test]
fn rights_are_part_of_line_identity() {
    let shared = shared();
    let mut a = shared.agent();
    let root = a.root_sro();
    let dom = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    let dom_ad = a.mint(dom, Rights::CALL | Rights::READ);
    let site: Site = (CodeRef(0), 2);

    let mut ic = InlineCache::new();
    ic.fill_call(site, 0, dom_ad, a.qual_epoch(dom).unwrap(), leaf_sub());

    let weaker = AccessDescriptor::new(dom_ad.obj, Rights::READ);
    assert!(
        ic.probe_call(site, 0, weaker, a.qual_epoch(dom)).is_none(),
        "a restricted descriptor must not inherit the stronger line"
    );
}

/// Two sites that collide modulo `IC_LINES` evict each other; probes
/// stay correct (the loser refills), exactly like qualcache aliasing.
#[test]
fn direct_mapped_aliasing_stays_correct() {
    let shared = shared();
    let mut a = shared.agent();
    let root = a.root_sro();
    let dom = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    let dom_ad = a.mint(dom, Rights::CALL);

    // Sites on one code segment alias exactly IC_LINES apart.
    let s1: Site = (CodeRef(0), 4);
    let s2: Site = (CodeRef(0), 4 + IC_LINES as u32);

    let mut ic = InlineCache::new();
    let e = a.qual_epoch(dom).unwrap();
    ic.fill_call(s1, 0, dom_ad, e, leaf_sub());
    assert!(ic.probe_call(s1, 0, dom_ad, Some(e)).is_some());

    ic.fill_call(s2, 0, dom_ad, e, leaf_sub());
    assert!(ic.probe_call(s2, 0, dom_ad, Some(e)).is_some());
    assert!(
        ic.probe_call(s1, 0, dom_ad, Some(e)).is_none(),
        "the aliasing fill evicted s1's line"
    );
    assert_eq!(ic.occupancy(), 1, "both sites share one line");
}

/// Port lines keep the same validity rule and never cross payload
/// kinds with call lines at the same slot.
#[test]
fn port_lines_follow_the_same_contract() {
    let shared = shared();
    let mut a = shared.agent();
    let root = a.root_sro();
    let p = a
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: PortState::access_slots(4, 4),
                otype: ObjectType::System(SystemType::Port),
                level: None,
                sys: SysState::Port(PortState::new(4, 4, PortDiscipline::Fifo)),
            },
        )
        .unwrap();
    let port_ad = a.mint(p, Rights::SEND | Rights::RECEIVE);
    let site: Site = (CodeRef(0), 6);
    let ring = Arc::new(PortRing::new(p, 4, Level::GLOBAL));

    let mut ic = InlineCache::new();
    let e = a.qual_epoch(p).unwrap();
    ic.fill_port(site, port_ad, e, Arc::clone(&ring));
    assert!(ic.probe_port(site, port_ad, Some(e)).is_some());
    assert!(
        ic.probe_call(site, 0, port_ad, Some(e)).is_none(),
        "a port line never answers a call probe"
    );
    assert!(
        ic.probe_port(site, port_ad, Some(e + 1)).is_none(),
        "epoch bump invalidates port lines too"
    );
}

/// A port line survives an all-shard section that does a rendezvous's
/// work: a locked SEND and RECEIVE change no fact the line holds, so no
/// epoch moves and the next fast-path SEND at the site hits.
#[test]
fn port_lines_survive_an_all_shard_section() {
    let shared = shared();
    let mut a = shared.agent();
    let root = a.root_sro();
    let p = a
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: PortState::access_slots(4, 4),
                otype: ObjectType::System(SystemType::Port),
                level: None,
                sys: SysState::Port(PortState::new(4, 4, PortDiscipline::Fifo)),
            },
        )
        .unwrap();
    let port_ad = a.mint(p, Rights::SEND | Rights::RECEIVE);
    let msg = a
        .create_object(a.root_sro_of(1), ObjectSpec::generic(8, 0))
        .unwrap();
    let msg_ad = a.mint(msg, Rights::READ);
    let site: Site = (CodeRef(0), 6);

    let ring = Arc::new(PortRing::new(p, 4, Level::GLOBAL));
    let mut ic = InlineCache::new();
    let e = a.qual_epoch(p).unwrap();
    ic.fill_port(site, port_ad, e, ring);
    a.atomically(|sm| {
        port::send(sm, None, port_ad, msg_ad, 0, false, false).unwrap();
        port::receive(sm, None, port_ad, false, false).unwrap();
    });
    assert!(
        ic.probe_port(site, port_ad, a.qual_epoch(p)).is_some(),
        "the section must leave the port's epoch, and so the line, alone"
    );
}

// ---------------------------------------------------------------------------
// End-to-end: a fused GDP's cache across process rebinding
// ---------------------------------------------------------------------------

/// Inline-cache hits and misses the recorder counted (zero without
/// `--features trace`).
fn ic_counts() -> (u64, u64) {
    let c = i432_trace::snapshot();
    (
        c.get(i432_trace::Counter::IcHits),
        c.get(i432_trace::Counter::IcMisses),
    )
}

/// Makes `p` ready and steps the GDP until it exits; returns the
/// inline-cache hits and misses its run counted.
fn run_to_exit(
    gdp: &mut Gdp,
    agent: &mut i432_arch::SpaceAgent<'_>,
    code: &CodeStore,
    p: i432_arch::ObjectRef,
) -> (u64, u64) {
    agent.atomically(|sm| port::make_ready(sm, p)).unwrap();
    let natives = NativeRegistry::new();
    let mut bus = NullInterconnect;
    let mut env = Env {
        space: agent,
        code,
        natives: &natives,
        bus: &mut bus,
        cost: CostModel::default(),
    };
    let (hits, misses) = ic_counts();
    for _ in 0..10_000 {
        match gdp.step(&mut env) {
            StepEvent::ProcessExited(q) => {
                assert_eq!(q, p, "only one process is ready at a time");
                let (h, m) = ic_counts();
                return (h - hits, m - misses);
            }
            StepEvent::ProcessFaulted { kind, .. } => panic!("unexpected fault: {kind:?}"),
            StepEvent::SystemError { fault, .. } => panic!("system error: {fault}"),
            _ => {}
        }
    }
    panic!("process did not exit");
}

/// A line is valid for its site, its exact descriptor and its shard's
/// epoch, whichever process presents the descriptor, so rebinding the
/// processor keeps every line. Processes of one domain run the same port
/// sites, one after another, on one fused GDP: the second hits every
/// line the first filled; a third, presenting the port with fewer
/// rights, misses and refills; a fourth, presenting a port that
/// recycled the first one's table index, misses even with the shard
/// epoch pinned back, and takes the locked path.
///
/// The processes, their contexts and their messages live on shard 1,
/// away from the port on shard 0: exiting destroys a process's contexts,
/// which bumps its shard's epoch and would invalidate a line there for
/// a reason other than rebinding.
#[test]
fn inline_cache_lines_survive_rebinding() {
    let _guard = i432_trace::test_guard();
    let space = ShardedSpace::new(256 * 1024, 8 * 1024, 2048, SHARDS);
    space.port_ring_registry().set_enabled(true);
    let shared = SharedSpace::new(space);

    // CREATE-OBJECT a message, then four rounds of SEND and RECEIVE on
    // the argument port: two port sites, eight operations.
    let mut code = CodeStore::new();
    let body = code.install(vec![
        Instruction::CreateObject {
            sro: CTX_SLOT_SRO as u16,
            data_len: DataRef::Imm(8),
            access_len: DataRef::Imm(0),
            dst: 5,
        },
        Instruction::Mov {
            src: DataRef::Imm(4),
            dst: DataDst::Local(0),
        },
        Instruction::Send {
            port: CTX_SLOT_ARG as u16,
            msg: 5,
            key: DataRef::Imm(0),
        },
        Instruction::Receive {
            port: CTX_SLOT_ARG as u16,
            dst: 6,
        },
        Instruction::Alu {
            op: AluOp::Sub,
            a: DataRef::Local(0),
            b: DataRef::Imm(1),
            dst: DataDst::Local(0),
        },
        Instruction::JumpIf {
            cond: DataRef::Local(0),
            when: true,
            target: 2,
        },
        Instruction::Halt,
    ]);

    let mut agent = shared.agent();
    let root = agent.root_sro();
    let home = agent.root_sro_of(1);
    let fifo = |capacity| ObjectSpec {
        data_len: 0,
        access_len: PortState::access_slots(capacity, capacity),
        otype: ObjectType::System(SystemType::Port),
        level: None,
        sys: SysState::Port(PortState::new(capacity, capacity, PortDiscipline::Fifo)),
    };
    let dispatch = agent.create_object(root, fifo(8)).unwrap();
    let dispatch = agent.mint(dispatch, Rights::SEND | Rights::RECEIVE);
    let port = agent.create_object(root, fifo(4)).unwrap();
    let k = port.index.0 % SHARDS;
    assert_ne!(
        k,
        home.index.0 % SHARDS,
        "the port must not share the processes' shard"
    );
    let dom = agent
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: 2,
                otype: ObjectType::System(SystemType::Domain),
                level: None,
                sys: SysState::Domain(DomainState {
                    name: "ic-rebind".into(),
                    subprograms: vec![Subprogram {
                        name: "ping".into(),
                        body: CodeBody::Interpreted(body),
                        ctx_data_len: 64,
                        ctx_access_len: 8,
                    }],
                }),
            },
        )
        .unwrap();
    let dom_ad = agent.mint(dom, Rights::CALL);
    let cpu = make_processor(&mut agent, root, 0, dispatch).unwrap();
    let spawn = |agent: &mut i432_arch::SpaceAgent<'_>, port_ad| {
        make_process(
            agent,
            home,
            dom_ad,
            0,
            Some(port_ad),
            ProcessSpec::new(dispatch),
        )
        .unwrap()
    };
    let full = agent.mint(port, Rights::SEND | Rights::RECEIVE | Rights::READ);
    let (a, b) = (spawn(&mut agent, full), spawn(&mut agent, full));
    let fewer = AccessDescriptor::new(port, Rights::SEND | Rights::RECEIVE);
    let c = spawn(&mut agent, fewer);

    let mut gdp = Gdp::new(cpu, GdpMode::Fused);
    let (_, first_misses) = run_to_exit(&mut gdp, &mut agent, &code, a);
    assert!(
        gdp.ic_occupancy() >= 2,
        "the first process filled both port sites"
    );
    let (hits, misses) = run_to_exit(&mut gdp, &mut agent, &code, b);
    assert!(gdp.ic_occupancy() >= 2, "rebinding kept the lines");
    let (weaker_hits, weaker_misses) = run_to_exit(&mut gdp, &mut agent, &code, c);

    // Recycle the port's index; pin the epoch its destruction moved back
    // to the value the lines hold, so only identity can make them miss.
    let epoch = shared.epoch(k);
    agent.destroy_object(port).unwrap();
    let recycled = agent.create_object(root, fifo(4)).unwrap();
    assert_eq!(recycled.index, port.index, "the free list reuses the slot");
    assert_ne!(recycled.generation, port.generation);
    shared.force_epoch(k, epoch);
    let d = spawn(&mut agent, AccessDescriptor::new(recycled, fewer.rights));
    let (recycled_hits, _) = run_to_exit(&mut gdp, &mut agent, &code, d);

    if i432_trace::ENABLED {
        assert!(first_misses >= 2, "the first process filled the lines");
        assert_eq!(
            (hits, misses),
            (8, 0),
            "the second process hits every line the first filled"
        );
        assert_eq!(
            weaker_misses, 2,
            "fewer rights miss once per site, then hit the refill"
        );
        assert_eq!(weaker_hits, 6);
        assert_eq!(
            recycled_hits, 0,
            "a recycled index never hits the old port's lines"
        );
    }
}

/// Deterministic spaces expose no qualification epochs, so a fused GDP
/// over one stays permanently IC-cold — same programs, zero lines.
#[test]
fn deterministic_spaces_never_fill() {
    use i432_arch::ShardedSpace;
    let mut space = ShardedSpace::new(256 * 1024, 8 * 1024, 2048, 1);
    let mut code = CodeStore::new();
    let main = code.install(vec![
        Instruction::Call {
            domain: CTX_SLOT_DOMAIN as u16,
            subprogram: 1,
            arg: None,
            ret_ad: None,
            ret_val: None,
        },
        Instruction::Halt,
    ]);
    let leaf = code.install(vec![Instruction::Return {
        ad: None,
        value: None,
    }]);
    assert_eq!((main, leaf), (CodeRef(0), CodeRef(1)));

    let root = space.root_sro();
    let dispatch = {
        let p = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(8, 8),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(8, 8, PortDiscipline::Fifo)),
                },
            )
            .unwrap();
        space.mint(p, Rights::SEND | Rights::RECEIVE)
    };
    let dom = space
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: 2,
                otype: ObjectType::System(SystemType::Domain),
                level: None,
                sys: SysState::Domain(DomainState {
                    name: "cold".into(),
                    subprograms: vec![
                        Subprogram {
                            name: "main".into(),
                            body: CodeBody::Interpreted(main),
                            ctx_data_len: 64,
                            ctx_access_len: 8,
                        },
                        Subprogram {
                            name: "leaf".into(),
                            body: CodeBody::Interpreted(leaf),
                            ctx_data_len: 64,
                            ctx_access_len: 8,
                        },
                    ],
                }),
            },
        )
        .unwrap();
    let dom_ad = space.mint(dom, Rights::CALL);
    let proc_ref = make_process(
        &mut space,
        root,
        dom_ad,
        0,
        None,
        ProcessSpec::new(dispatch),
    )
    .unwrap();
    space
        .atomically(|sm| port::make_ready(sm, proc_ref))
        .unwrap();
    let cpu = make_processor(&mut space, root, 0, dispatch).unwrap();

    let mut gdp = Gdp::new(cpu, GdpMode::Fused);
    let natives = NativeRegistry::new();
    let mut bus = NullInterconnect;
    let mut env = Env {
        space: &mut space,
        code: &code,
        natives: &natives,
        bus: &mut bus,
        cost: CostModel::default(),
    };
    for _ in 0..50_000 {
        match gdp.step(&mut env) {
            StepEvent::ProcessExited(p) => {
                assert_eq!(p, proc_ref);
                assert_eq!(
                    gdp.ic_occupancy(),
                    0,
                    "no epochs, no fills: the IC stays cold on deterministic spaces"
                );
                assert!(gdp.block_cache_occupancy() >= 1, "blocks still pre-decode");
                return;
            }
            StepEvent::ProcessFaulted { kind, .. } => panic!("unexpected fault: {kind:?}"),
            StepEvent::SystemError { fault, .. } => panic!("system error: {fault}"),
            _ => {}
        }
    }
    panic!("program did not finish");
}

/// `load_ad_hw`-level sanity used by the executor: the context the
/// processes run in is reachable, so the harness assumptions above hold.
#[test]
fn harness_contexts_are_reachable() {
    let shared = shared();
    let mut a = shared.agent();
    let root = a.root_sro();
    let dispatch = {
        let p = a
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(4, 4),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(4, 4, PortDiscipline::Fifo)),
                },
            )
            .unwrap();
        a.mint(p, Rights::SEND | Rights::RECEIVE)
    };
    let mut code = CodeStore::new();
    code.install(vec![Instruction::Halt]);
    let dom = a
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: 2,
                otype: ObjectType::System(SystemType::Domain),
                level: None,
                sys: SysState::Domain(DomainState {
                    name: "h".into(),
                    subprograms: vec![Subprogram {
                        name: "main".into(),
                        body: CodeBody::Interpreted(CodeRef(0)),
                        ctx_data_len: 64,
                        ctx_access_len: 8,
                    }],
                }),
            },
        )
        .unwrap();
    let dom_ad = a.mint(dom, Rights::CALL);
    let proc_ref = make_process(&mut a, root, dom_ad, 0, None, ProcessSpec::new(dispatch)).unwrap();
    let ctx = a.load_ad_hw(proc_ref, PROC_SLOT_CONTEXT).unwrap();
    assert!(ctx.is_some(), "a fresh process carries its root context");
}
