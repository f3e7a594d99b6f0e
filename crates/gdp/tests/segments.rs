//! Rebinding across code segments.
//!
//! A processor that dispatches processes running different instruction
//! segments fetches each one's instructions from the shared code store.
//! Fused and unfused GDPs must leave the same workload-visible result and
//! the same clock.

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

const S_OUT: u16 = CTX_SLOT_FIRST_FREE as u16;

/// One process per installed code body, all sharing a dispatch port and
/// one output object; returns (cpu, out_ad).
fn build<S: SpaceAccess + ?Sized>(
    space: &mut S,
    bodies: &[CodeRef],
) -> (i432_arch::ObjectRef, AccessDescriptor) {
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
                    name: "segments".into(),
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
    }
    let cpu = make_processor(space, root, 0, dispatch).unwrap();
    (cpu, out_ad)
}

/// Steps `gdp` until `want` processes have exited; panics on faults.
fn drain<S: SpaceAccess + ?Sized>(gdp: &mut Gdp, env: &mut Env<'_, S>, want: usize) {
    let mut exited = 0;
    for _ in 0..2_000_000 {
        match gdp.step(env) {
            StepEvent::ProcessExited(_) => {
                exited += 1;
                if exited == want {
                    return;
                }
            }
            StepEvent::ProcessFaulted { kind, .. } => panic!("unexpected fault: {kind:?}"),
            StepEvent::SystemError { fault, .. } => panic!("system error: {fault}"),
            _ => {}
        }
    }
    panic!("run did not finish within the step budget");
}

/// Rebinding across processes running *different* segments: the
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
        let (cpu, out_ad) = {
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
        drain(&mut gdp, &mut env, 2);
        assert_eq!(env.space.read_u64(out_ad, 0).unwrap(), 0xAAAA);
        assert_eq!(env.space.read_u64(out_ad, 8).unwrap(), 0xB00B);
        clocks.push(gdp.clock);
    }
    assert_eq!(clocks[0], clocks[1], "fused and unfused clocks must agree");
}
