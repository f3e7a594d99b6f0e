//! Satellite: block-cache invalidation.
//!
//! The pre-decoded basic-block cache snapshots a code segment once and
//! revalidates by [`CodeStore`] version on every resolve. These tests
//! pin the invalidation contract end to end: a patch (self-modifying
//! program) is observed at the next instruction boundary, rebinding
//! across segments keeps every segment coherent, and a patcher thread
//! hammering the store *while* a fused GDP drains the program neither
//! wedges the runner nor perturbs a single cycle.

use i432_arch::{
    sysobj::{CTX_SLOT_FIRST_FREE, PROC_SLOT_CONTEXT},
    AccessDescriptor, CodeBody, CodeRef, DomainState, ObjectSpec, ObjectType, PortDiscipline,
    PortState, Rights, ShardedSpace, SharedSpace, SpaceAccess, SpaceAccessExt, Subprogram,
    SysState, SystemType,
};
use i432_gdp::{
    exec::{Env, Gdp, GdpMode, StepEvent},
    port,
    process::{make_process, make_processor, ProcessSpec},
    AluOp, CodeStore, CostModel, DataDst, DataRef, Instruction, NativeRegistry, NullInterconnect,
};
use std::sync::atomic::{AtomicBool, Ordering};

const S_OUT: u16 = CTX_SLOT_FIRST_FREE as u16;

/// One process per installed code body, all sharing a dispatch port and
/// one output object; returns (processes, cpu, out_ad).
fn build<S: SpaceAccess + ?Sized>(
    space: &mut S,
    bodies: &[CodeRef],
) -> (
    Vec<i432_arch::ObjectRef>,
    i432_arch::ObjectRef,
    AccessDescriptor,
) {
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
    let out = space
        .create_object(root, ObjectSpec::generic(128, 0))
        .unwrap();
    let out_ad = space.mint(out, Rights::READ | Rights::WRITE);

    let dom = space
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: 2,
                otype: ObjectType::System(SystemType::Domain),
                level: None,
                sys: SysState::Domain(DomainState {
                    name: "block-cache".into(),
                    subprograms: bodies
                        .iter()
                        .map(|r| Subprogram {
                            name: format!("sub{}", r.0),
                            body: CodeBody::Interpreted(*r),
                            ctx_data_len: 64,
                            ctx_access_len: 16,
                        })
                        .collect(),
                }),
            },
        )
        .unwrap();
    let dom_ad = space.mint(dom, Rights::CALL);

    let mut procs = Vec::new();
    for i in 0..bodies.len() {
        let p = make_process(
            space,
            root,
            dom_ad,
            i as u32,
            None,
            ProcessSpec::new(dispatch),
        )
        .unwrap();
        let ctx = space.load_ad_hw(p, PROC_SLOT_CONTEXT).unwrap().unwrap().obj;
        space
            .store_ad_hw(ctx, u32::from(S_OUT), Some(out_ad))
            .unwrap();
        space.atomically(|sm| port::make_ready(sm, p)).unwrap();
        procs.push(p);
    }
    let cpu = make_processor(space, root, 0, dispatch).unwrap();
    (procs, cpu, out_ad)
}

/// Steps `gdp` until `want` processes have exited; panics on faults and
/// returns the number of `Executed` steps.
fn drain<S: SpaceAccess + ?Sized>(
    gdp: &mut Gdp,
    env: &mut Env<'_, S>,
    want: usize,
    mut on_step: impl FnMut(u64, &mut Gdp),
) -> u64 {
    let mut exited = 0;
    let mut steps = 0u64;
    for _ in 0..2_000_000 {
        match gdp.step(env) {
            StepEvent::Executed { .. } => {
                steps += 1;
                on_step(steps, gdp);
            }
            StepEvent::ProcessExited(_) => {
                exited += 1;
                if exited == want {
                    return steps;
                }
            }
            StepEvent::ProcessFaulted { kind, .. } => panic!("unexpected fault: {kind:?}"),
            StepEvent::SystemError { fault, .. } => panic!("system error: {fault}"),
            _ => {}
        }
    }
    panic!("run did not finish within the step budget");
}

/// A patch through the shared store is observed by the fused runner at
/// the next instruction boundary — the cached pre-decode revalidates by
/// version, exactly like fetching from the store.
#[test]
fn patch_is_observed_at_the_next_step() {
    for (do_patch, expect) in [(false, 1u64), (true, 2u64)] {
        let shared = SharedSpace::new(ShardedSpace::new(256 * 1024, 8 * 1024, 2048, 4));
        let mut code = CodeStore::new();
        let main = code.install(vec![
            Instruction::Work { cycles: 5 },
            Instruction::Jump(2),
            Instruction::Mov {
                src: DataRef::Imm(1),
                dst: DataDst::Field(S_OUT, 0),
            },
            Instruction::Halt,
        ]);
        let (_, cpu, out_ad) = {
            let mut agent = shared.agent();
            build(&mut agent, &[main])
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
        // The first executed step retires the fused work→jump pair and
        // caches the segment. Patching ip 2 right after must be seen by
        // the *next* resolve, even though the block is already decoded.
        drain(&mut gdp, &mut env, 1, |steps, _| {
            if do_patch && steps == 1 {
                assert!(code.patch(
                    main,
                    2,
                    Instruction::Mov {
                        src: DataRef::Imm(2),
                        dst: DataDst::Field(S_OUT, 0),
                    }
                ));
            }
        });
        let got = env.space.read_u64(out_ad, 0).unwrap();
        assert_eq!(
            got, expect,
            "patched instruction must be visible at the next step (patch={do_patch})"
        );
    }
}

/// Rebinding across processes running *different* segments: the block
/// cache holds one pre-decode per segment and keeps both coherent; the
/// workload-visible result and cycle count match the unfused runner's.
#[test]
fn rebinding_across_segments_stays_coherent() {
    let mk_code = || {
        let mut code = CodeStore::new();
        let a = code.install(vec![
            Instruction::Mov {
                src: DataRef::Imm(0xAAAA),
                dst: DataDst::Local(0),
            },
            Instruction::Mov {
                src: DataRef::Local(0),
                dst: DataDst::Field(S_OUT, 0),
            },
            Instruction::Halt,
        ]);
        let b = code.install(vec![
            Instruction::Alu {
                op: AluOp::Add,
                a: DataRef::Imm(0xB),
                b: DataRef::Imm(0xB000),
                dst: DataDst::Local(0),
            },
            Instruction::Mov {
                src: DataRef::Local(0),
                dst: DataDst::Field(S_OUT, 8),
            },
            Instruction::Halt,
        ]);
        (code, a, b)
    };

    let mut clocks = Vec::new();
    for mode in [GdpMode::Fused, GdpMode::Cached] {
        let shared = SharedSpace::new(ShardedSpace::new(256 * 1024, 8 * 1024, 2048, 4));
        let (code, a, b) = mk_code();
        let (_, cpu, out_ad) = {
            let mut agent = shared.agent();
            build(&mut agent, &[a, b])
        };
        let mut gdp = Gdp::new(cpu, mode);
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
        drain(&mut gdp, &mut env, 2, |_, _| {});
        assert_eq!(env.space.read_u64(out_ad, 0).unwrap(), 0xAAAA);
        assert_eq!(env.space.read_u64(out_ad, 8).unwrap(), 0xB00B);
        if mode == GdpMode::Fused {
            assert_eq!(
                gdp.block_cache_occupancy(),
                2,
                "one pre-decode per executed segment"
            );
        }
        clocks.push(gdp.clock);
    }
    assert_eq!(clocks[0], clocks[1], "fused and unfused clocks must agree");
}

/// Drain-while-invalidate stress: a patcher thread hammers the shared
/// store with version bumps (re-installing the *same* instruction) while
/// a fused GDP runs a long hot loop on another thread. Every resolve
/// races a patch; the program must still complete with the exact output
/// and the exact clock of an unpatched run.
#[test]
fn threaded_drain_while_invalidate_stress() {
    const ITERS: u64 = 20_000;
    let run = |patch: bool| -> (u64, u64) {
        let shared = SharedSpace::new(ShardedSpace::new(256 * 1024, 8 * 1024, 2048, 4));
        let mut code = CodeStore::new();
        let main = code.install(vec![
            Instruction::Mov {
                src: DataRef::Imm(ITERS),
                dst: DataDst::Local(0),
            },
            // loop:
            Instruction::Work { cycles: 3 },
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
            Instruction::Mov {
                src: DataRef::Imm(0xD00D),
                dst: DataDst::Field(S_OUT, 0),
            },
            Instruction::Halt,
        ]);
        let (_, cpu, out_ad) = {
            let mut agent = shared.agent();
            build(&mut agent, &[main])
        };

        let done = AtomicBool::new(false);
        let code_ref = &code;
        let shared_ref = &shared;
        let (out, clock) = std::thread::scope(|s| {
            if patch {
                s.spawn(|| {
                    // Same instruction, new version: every patch forces
                    // the runner's next resolve to re-snapshot mid-drain.
                    while !done.load(Ordering::Acquire) {
                        assert!(code_ref.patch(main, 1, Instruction::Work { cycles: 3 }));
                        std::thread::yield_now();
                    }
                });
            }
            let worker = s.spawn(|| {
                let mut gdp = Gdp::new(cpu, GdpMode::Fused);
                let natives = NativeRegistry::new();
                let mut bus = NullInterconnect;
                let mut agent = shared_ref.agent();
                let mut env = Env {
                    space: &mut agent,
                    code: code_ref,
                    natives: &natives,
                    bus: &mut bus,
                    cost: CostModel::default(),
                };
                drain(&mut gdp, &mut env, 1, |_, _| {});
                let out = env.space.read_u64(out_ad, 0).unwrap();
                (out, gdp.clock)
            });
            let r = worker.join().unwrap();
            done.store(true, Ordering::Release);
            r
        });
        (out, clock)
    };

    let (out_stressed, clock_stressed) = run(true);
    let (out_quiet, clock_quiet) = run(false);
    assert_eq!(out_stressed, 0xD00D, "stressed run completes correctly");
    assert_eq!(out_quiet, 0xD00D);
    assert_eq!(
        clock_stressed, clock_quiet,
        "re-decode storms must not cost a single modeled cycle"
    );
}
