//! Integration tests for the monomorphic inline caches on the fused
//! fast path, structurally mirroring `arch/tests/qualcache.rs`: the IC
//! keeps the same invalidation contract as the per-agent qualification
//! cache — epoch-validated lines, generation-exact descriptor identity,
//! direct-mapped aliasing that only ever costs a refill — plus one
//! contract of its own: any processor rebinding flushes every line.
//!
//! The cache is driven two ways: directly (`InlineCache` against live
//! `SharedSpace` shard epochs, as the executor drives it) and
//! end-to-end through a fused [`Gdp`] running call loops.

use i432_arch::{
    sysobj::{CTX_SLOT_DOMAIN, PROC_SLOT_CONTEXT},
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

/// The IC is populated while the caller runs and *flushed* when the
/// processor rebinds to the second process — while the context switches
/// *within* the caller (call/return) keep the lines live, so the call
/// loop goes monomorphic after one miss.
///
/// One layout subtlety makes the test interesting: objects allocate in
/// their SRO's shard, and RET destroys the callee context, bumping its
/// shard's qualification epoch. Per-shard epochs false-share — exactly
/// like the qualcache — so a caller whose contexts recycle in the
/// *domain's* shard would (correctly but uselessly) invalidate the call
/// line on every iteration. The caller is therefore homed on shard 1's
/// root SRO while the domain lives in shard 0: the real-world layout
/// where call-site caching pays.
#[test]
fn rebinding_flushes_the_inline_cache() {
    let shared = SharedSpace::new(ShardedSpace::new(256 * 1024, 8 * 1024, 2048, SHARDS));

    let mut code = CodeStore::new();
    // Subprogram 0: a call loop (fills the call-site IC).
    let caller = code.install(vec![
        Instruction::Mov {
            src: DataRef::Imm(4),
            dst: DataDst::Local(0),
        },
        Instruction::Call {
            domain: CTX_SLOT_DOMAIN as u16,
            subprogram: 1,
            arg: None,
            ret_ad: None,
            ret_val: None,
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
            target: 1,
        },
        Instruction::Halt,
    ]);
    let leaf = code.install(vec![
        Instruction::Work { cycles: 3 },
        Instruction::Return {
            ad: None,
            value: None,
        },
    ]);
    // A call-free second program.
    let plain = code.install(vec![
        Instruction::Work { cycles: 11 },
        Instruction::Work { cycles: 11 },
        Instruction::Halt,
    ]);
    assert_eq!((caller, leaf, plain), (CodeRef(0), CodeRef(1), CodeRef(2)));

    let (p0, p1, cpu) = {
        let mut agent = shared.agent();
        let space: &mut dyn SpaceAccess = &mut agent;
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
        let sub = |name: &str, r: CodeRef| Subprogram {
            name: name.into(),
            body: CodeBody::Interpreted(r),
            ctx_data_len: 64,
            ctx_access_len: 16,
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
                        name: "ic-flush".into(),
                        subprograms: vec![
                            sub("caller", caller),
                            sub("leaf", leaf),
                            sub("plain", plain),
                        ],
                    }),
                },
            )
            .unwrap();
        let dom_ad = space.mint(dom, Rights::CALL);
        // Home the caller — and therefore every callee context it
        // creates and RET destroys — on shard 1's root SRO, away from
        // the domain in shard 0 (see the doc comment above).
        let caller_sro = space.root_sro_of(1);
        assert_ne!(
            caller_sro.index.0 % SHARDS,
            dom.index.0 % SHARDS,
            "the caller's SRO must not share the domain's shard"
        );
        let p0 = make_process(
            space,
            caller_sro,
            dom_ad,
            0,
            None,
            ProcessSpec::new(dispatch),
        )
        .unwrap();
        let p1 = make_process(space, root, dom_ad, 2, None, ProcessSpec::new(dispatch)).unwrap();
        space.atomically(|sm| port::make_ready(sm, p0)).unwrap();
        space.atomically(|sm| port::make_ready(sm, p1)).unwrap();
        let cpu = make_processor(space, root, 0, dispatch).unwrap();
        (p0, p1, cpu)
    };

    let mut gdp = Gdp::new(cpu, GdpMode::Fused);
    let natives = NativeRegistry::new();
    let mut bus = NullInterconnect;
    let mut agent = shared.agent();
    let mut env = Env {
        space: &mut agent,
        code: &code,
        natives: &natives,
        bus: &mut bus,
        cost: CostModel::default(),
    };

    let hits_before = if i432_trace::ENABLED {
        i432_trace::snapshot().get(i432_trace::Counter::IcHits)
    } else {
        0
    };
    let mut exited = Vec::new();
    let mut occupancy_at_first_exit = None;
    for _ in 0..200_000 {
        match gdp.step(&mut env) {
            StepEvent::ProcessExited(p) => {
                if occupancy_at_first_exit.is_none() {
                    occupancy_at_first_exit = Some(gdp.ic_occupancy());
                }
                exited.push(p);
                if exited.len() == 2 {
                    break;
                }
            }
            StepEvent::ProcessFaulted { kind, .. } => panic!("unexpected fault: {kind:?}"),
            StepEvent::SystemError { fault, .. } => panic!("system error: {fault}"),
            _ => {}
        }
    }
    assert_eq!(exited.len(), 2, "both processes must run to completion");
    assert_eq!(exited[0], p0, "FIFO dispatch runs the caller first");
    let _ = p1;
    assert!(
        occupancy_at_first_exit.unwrap() >= 1,
        "the call loop must have filled at least one line"
    );
    // The second process executed no calls or port ops: its binding
    // flushed the caller's lines and nothing refilled them.
    assert_eq!(
        gdp.ic_occupancy(),
        0,
        "rebinding to the second process must flush the cache"
    );
    if i432_trace::ENABLED {
        let hits = i432_trace::snapshot().get(i432_trace::Counter::IcHits) - hits_before;
        assert!(
            hits >= 3,
            "monomorphic call loop must hit after warm-up (got {hits})"
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
