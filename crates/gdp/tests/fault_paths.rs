//! Satellite: table-driven fault-path conformance.
//!
//! Every ISA-level protection violation must map to the *documented*
//! fault classification — and must map to the **same** one whether the
//! program runs over the deterministic single-space (`ObjectSpace`) or
//! over the lock-striped `SharedSpace` agents used by the threaded
//! runner. Each table row is one minimal program engineered to trip
//! exactly one fault.

use i432_arch::{
    sysobj::{CTX_SLOT_DOMAIN, CTX_SLOT_FIRST_FREE, CTX_SLOT_SRO, PROC_SLOT_CONTEXT},
    AccessDescriptor, CodeBody, CodeRef, DomainState, Level, ObjectRef, ObjectSpace, ObjectSpec,
    ObjectType, PortDiscipline, PortState, Rights, ShardedSpace, SharedSpace, SpaceAccess,
    SpaceAccessExt, Subprogram, SysState, SystemType,
};
use i432_gdp::{
    exec::{Env, Gdp, GdpMode, StepEvent},
    port,
    process::{make_process, make_processor, ProcessSpec},
    AluOp, CodeStore, CostModel, DataDst, DataRef, FaultKind, Instruction, NativeRegistry,
    NullInterconnect, ProgramBuilder,
};

/// Program-visible context slots the cases use.
const S_A: u16 = CTX_SLOT_FIRST_FREE as u16; // 4
const S_B: u16 = S_A + 1; // 5
/// A slot the harness leaves null.
const S_NULL: u16 = 14;
/// Where the Level case's deep-level AD is poked by the harness.
const S_DEEP: u16 = S_A + 2; // 6

/// One fault-path conformance case.
struct Case {
    name: &'static str,
    expected: FaultKind,
    /// Emits the program that must fault with `expected`.
    program: fn(&mut ProgramBuilder),
    /// Whether the harness must poke a deep-level AD into `S_DEEP` of
    /// the root context before the program runs.
    needs_deep_ad: bool,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "bounds:data-write-past-object-end",
            expected: FaultKind::Bounds,
            program: |p| {
                p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(8), DataRef::Imm(0), S_A)
                    .mov(DataRef::Imm(1), DataDst::Field(S_A, 100))
                    .halt();
            },
            needs_deep_ad: false,
        },
        Case {
            name: "bounds:context-local-out-of-range",
            expected: FaultKind::Bounds,
            program: |p| {
                p.mov(DataRef::Imm(1), DataDst::Local(1 << 16)).halt();
            },
            needs_deep_ad: false,
        },
        Case {
            name: "rights:write-through-read-only-ad",
            expected: FaultKind::Rights,
            program: |p| {
                p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(32), DataRef::Imm(0), S_A)
                    .restrict(S_A, Rights::READ)
                    .mov(DataRef::Imm(1), DataDst::Field(S_A, 0))
                    .halt();
            },
            needs_deep_ad: false,
        },
        Case {
            name: "rights:store-ad-without-write",
            expected: FaultKind::Rights,
            program: |p| {
                p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(0), DataRef::Imm(4), S_A)
                    .create_object(CTX_SLOT_SRO as u16, DataRef::Imm(0), DataRef::Imm(4), S_B)
                    .restrict(S_A, Rights::READ)
                    .store_ad(S_B, S_A, DataRef::Imm(0))
                    .halt();
            },
            needs_deep_ad: false,
        },
        Case {
            name: "level:store-deep-ad-into-global-container",
            expected: FaultKind::Level,
            program: |p| {
                p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(0), DataRef::Imm(4), S_A)
                    .store_ad(S_DEEP, S_A, DataRef::Imm(0))
                    .halt();
            },
            needs_deep_ad: true,
        },
        Case {
            name: "null-access:use-of-empty-slot",
            expected: FaultKind::NullAccess,
            program: |p| {
                p.mov(DataRef::Imm(1), DataDst::Field(S_NULL, 0)).halt();
            },
            needs_deep_ad: false,
        },
        Case {
            name: "type-mismatch:send-on-non-port",
            expected: FaultKind::TypeMismatch,
            program: |p| {
                p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(8), DataRef::Imm(0), S_A)
                    .send(S_A, S_A)
                    .halt();
            },
            needs_deep_ad: false,
        },
        Case {
            name: "divide-by-zero",
            expected: FaultKind::DivideByZero,
            program: |p| {
                p.alu(
                    AluOp::Div,
                    DataRef::Imm(7),
                    DataRef::Imm(0),
                    DataDst::Local(0),
                )
                .halt();
            },
            needs_deep_ad: false,
        },
        Case {
            name: "bad-ip:jump-past-segment-end",
            expected: FaultKind::BadIp,
            program: |p| {
                p.push(Instruction::Jump(1000)).halt();
            },
            needs_deep_ad: false,
        },
        Case {
            name: "bad-subprogram:call-index-out-of-table",
            expected: FaultKind::BadSubprogram,
            program: |p| {
                p.call(CTX_SLOT_DOMAIN as u16, 99, None, None, None).halt();
            },
            needs_deep_ad: false,
        },
        Case {
            name: "explicit:software-raised",
            expected: FaultKind::Explicit(7),
            program: |p| {
                p.raise_fault(7).halt();
            },
            needs_deep_ad: false,
        },
    ]
}

/// What a run produced: the step event's fault kind plus the code the
/// process object recorded.
struct Outcome {
    kind: FaultKind,
    recorded_code: u16,
    delivered_to_fault_port: bool,
}

/// Builds the fixture (dispatch + fault ports, domain, process,
/// processor) in `space`, pokes the deep AD if the case needs it, then
/// steps a GDP until the process faults.
fn run_case<S: SpaceAccess + ?Sized>(space: &mut S, code: &CodeStore, case: &Case) -> Outcome {
    let root = space.root_sro();
    let mk_port = |space: &mut S, cap: u32| -> AccessDescriptor {
        let p = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(8, 8),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(cap, 8, PortDiscipline::Fifo)),
                },
            )
            .unwrap();
        space.mint(p, Rights::SEND | Rights::RECEIVE)
    };
    let dispatch = mk_port(space, 8);
    let fault_port = mk_port(space, 8);

    let mut pb = ProgramBuilder::new();
    (case.program)(&mut pb);
    // The code store is pre-installed with each case's body at the
    // index matching its table position; `case.code_ref` is implicit in
    // the caller, so here we locate it by convention: the caller
    // installs exactly one body per CodeStore.
    let code_ref = CodeRef(0);

    let dom = space
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: 2,
                otype: ObjectType::System(SystemType::Domain),
                level: None,
                sys: SysState::Domain(DomainState {
                    name: "conform".into(),
                    subprograms: vec![Subprogram {
                        name: "case".into(),
                        body: CodeBody::Interpreted(code_ref),
                        ctx_data_len: 64,
                        ctx_access_len: 16,
                    }],
                }),
            },
        )
        .unwrap();
    let dom_ad = space.mint(dom, Rights::CALL);

    let mut spec = ProcessSpec::new(dispatch);
    spec.fault_port = Some(fault_port);
    let proc_ref = make_process(space, root, dom_ad, 0, None, spec).unwrap();

    if case.needs_deep_ad {
        // A deep-lifetime object the program will try to smuggle into a
        // GLOBAL container. `create_object` honours explicit levels, so
        // the harness can forge one the ISA itself could not make here.
        let deep = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 8,
                    access_len: 0,
                    otype: ObjectType::GENERIC,
                    level: Some(Level(5)),
                    sys: SysState::Generic,
                },
            )
            .unwrap();
        let deep_ad = space.mint(deep, Rights::READ | Rights::WRITE);
        let ctx = space
            .load_ad_hw(proc_ref, PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap()
            .obj;
        space
            .store_ad_hw(ctx, u32::from(S_DEEP), Some(deep_ad))
            .unwrap();
    }

    space
        .atomically(|sm| port::make_ready(sm, proc_ref))
        .unwrap();
    let cpu = make_processor(space, root, 0, dispatch).unwrap();

    let mut gdp = Gdp::new(cpu, GdpMode::Locked);
    let natives = NativeRegistry::new();
    let mut bus = NullInterconnect;
    let mut env = Env {
        space,
        code,
        natives: &natives,
        bus: &mut bus,
        cost: CostModel::default(),
    };
    for _ in 0..10_000 {
        match gdp.step(&mut env) {
            StepEvent::ProcessFaulted { process, kind } => {
                assert_eq!(process, proc_ref);
                let recorded_code = env
                    .space
                    .with_process(proc_ref, |ps| ps.fault_code)
                    .unwrap();
                let delivered = count_port_msgs(env.space, fault_port.obj) == 1;
                return Outcome {
                    kind,
                    recorded_code,
                    delivered_to_fault_port: delivered,
                };
            }
            StepEvent::ProcessExited(_) => {
                panic!("case {:?} ran to completion without faulting", case.name)
            }
            StepEvent::SystemError { fault, .. } => {
                panic!("case {:?} escalated to a system error: {fault}", case.name)
            }
            _ => {}
        }
    }
    panic!("case {:?} did not fault within the step budget", case.name);
}

fn count_port_msgs<S: SpaceAccess + ?Sized>(space: &mut S, port: ObjectRef) -> u32 {
    space.with_port(port, |p| p.msg_count).unwrap()
}

fn check(case: &Case, runner: &str, got: Outcome) {
    assert_eq!(
        got.kind, case.expected,
        "{runner}/{}: wrong fault kind",
        case.name
    );
    assert_eq!(
        got.recorded_code,
        case.expected.code(),
        "{runner}/{}: process object recorded the wrong fault code",
        case.name
    );
    assert!(
        got.delivered_to_fault_port,
        "{runner}/{}: faulted process was not delivered to its fault port",
        case.name
    );
}

/// Every case on the deterministic single-space runner.
#[test]
fn fault_table_deterministic_runner() {
    for case in cases() {
        let mut pb = ProgramBuilder::new();
        (case.program)(&mut pb);
        let mut code = CodeStore::new();
        code.install(pb.finish());

        let mut space = ObjectSpace::new(256 * 1024, 8 * 1024, 2048);
        let got = run_case(&mut space, &code, &case);
        check(&case, "deterministic", got);
    }
}

/// Every case through a `SharedSpace` agent — the exact access path the
/// threaded runner's workers use, lock striping and all.
#[test]
fn fault_table_threaded_access_path() {
    for case in cases() {
        let mut pb = ProgramBuilder::new();
        (case.program)(&mut pb);
        let mut code = CodeStore::new();
        code.install(pb.finish());

        let sharded = ShardedSpace::new(256 * 1024, 8 * 1024, 2048, 4);
        let shared = SharedSpace::new(sharded);
        let got = {
            let mut agent = shared.agent();
            run_case(&mut agent, &code, &case)
        };
        check(&case, "threaded", got);
    }
}

/// The two runners must also agree on the *recorded* codes as a set —
/// one table, one taxonomy, two execution paths.
#[test]
fn runners_agree_case_by_case() {
    for case in cases() {
        let mut pb = ProgramBuilder::new();
        (case.program)(&mut pb);
        let mut code = CodeStore::new();
        code.install(pb.finish());

        let mut det = ObjectSpace::new(256 * 1024, 8 * 1024, 2048);
        let a = run_case(&mut det, &code, &case);

        let shared = SharedSpace::new(ShardedSpace::new(256 * 1024, 8 * 1024, 2048, 4));
        let b = {
            let mut agent = shared.agent();
            run_case(&mut agent, &code, &case)
        };
        assert_eq!(a.kind, b.kind, "{}: runners disagree on kind", case.name);
        assert_eq!(
            a.recorded_code, b.recorded_code,
            "{}: runners disagree on recorded code",
            case.name
        );
    }
}
