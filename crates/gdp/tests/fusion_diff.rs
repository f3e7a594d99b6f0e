//! Satellite: the fusion differential battery.
//!
//! Superinstruction fusion and the pre-decoded block cache are pure
//! dispatch specializations — the architecturally visible outcome of a program (object-graph digest,
//! cycle counts, fault verdicts, fault *positions*) must be bit-identical
//! whether a GDP runs locked, cached-unfused, or cached-fused. Every
//! test here runs the same program in all three modes over the same
//! fixture and diffs everything observable.
//!
//! The fault battery walks a faulting instruction across *every* pair
//! alignment: at even ips the faulting instruction leads a
//! superinstruction, at odd ips it lands mid-superinstruction as the
//! fused partner — and in both positions the fault must report the
//! original instruction boundary, not the pair head.

use i432_arch::{
    digest_from_roots,
    sysobj::{CTX_SLOT_DOMAIN, CTX_SLOT_FIRST_FREE, PROC_SLOT_CONTEXT},
    AccessDescriptor, CodeBody, CodeRef, DomainState, ObjectRef, ObjectSpec, ObjectType,
    PortDiscipline, PortState, Rights, ShardedSpace, SharedSpace, SpaceAccess, SpaceAccessExt,
    Subprogram, SysState, SystemType,
};
use i432_gdp::{
    context::context_state,
    exec::{Env, Gdp, GdpMode, StepEvent},
    port,
    process::{make_process, make_processor, ProcessSpec},
    AluOp, CodeStore, CostModel, DataDst, DataRef, FaultKind, Instruction, NativeRegistry,
    NullInterconnect,
};

/// Context access slot the harness pokes the output object's AD into.
const S_OUT: u16 = CTX_SLOT_FIRST_FREE as u16; // 4
/// Context access slot carrying the rendezvous port's AD (port tests).
const S_PORT: u16 = S_OUT + 1; // 5
/// Context access slots for a recycled object's descriptor, and for the
/// stale descriptor of the object whose table index it recycled.
const S_RECYCLED: u16 = S_PORT + 1; // 6
const S_STALE: u16 = S_RECYCLED + 1; // 7
/// A slot the harness leaves null (NullAccess battery).
const S_NULL: u16 = 14;
/// Data words in the output object.
const OUT_WORDS: u32 = 16;

const ALL_MODES: [GdpMode; 3] = [GdpMode::Locked, GdpMode::Cached, GdpMode::Fused];

/// Everything architecturally observable about one run, plus the step
/// count (dispatch-level, *allowed* to differ — fused steps retire up to
/// two instructions) and the block cache's occupancy.
#[derive(Debug)]
struct RunOut {
    exited: bool,
    /// `(kind, recorded code, context ip)` when the process faulted.
    fault: Option<(FaultKind, u16, u32)>,
    clock: u64,
    total_cycles: u64,
    steps: u64,
    digest: u64,
    block_occupancy: usize,
}

/// Fixture set-up a battery adds before the process runs: it gets the
/// space and the process's root context.
type Prep = fn(&mut dyn SpaceAccess, ObjectRef);

/// Builds the fixture (dispatch + fault ports, rendezvous port, output
/// object, a two-subprogram domain), applies `prep`, runs `code_v` as
/// subprogram 0 on one GDP in `mode`, and captures the outcome.
fn run(code_v: Vec<Instruction>, leaf_v: Vec<Instruction>, mode: GdpMode, prep: Prep) -> RunOut {
    let sharded = ShardedSpace::new(256 * 1024, 8 * 1024, 2048, 4);
    sharded.port_ring_registry().set_enabled(true);
    let shared = SharedSpace::new(sharded);

    let mut code = CodeStore::new();
    let main_ref = code.install(code_v);
    let leaf_ref = code.install(leaf_v);
    assert_eq!(main_ref, CodeRef(0));

    let (proc_ref, cpu, fault_port, out_ad) = {
        let mut agent = shared.agent();
        let space: &mut dyn SpaceAccess = &mut agent;
        let root = space.root_sro();
        let mk_port = |space: &mut dyn SpaceAccess, cap: u32| -> AccessDescriptor {
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
        let rendezvous = mk_port(space, 8);

        let out = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: OUT_WORDS * 8,
                    access_len: 0,
                    otype: ObjectType::GENERIC,
                    level: None,
                    sys: SysState::Generic,
                },
            )
            .unwrap();
        let out_mint = space.mint(out, Rights::READ | Rights::WRITE | Rights::SEND);

        let dom = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: 2,
                    otype: ObjectType::System(SystemType::Domain),
                    level: None,
                    sys: SysState::Domain(DomainState {
                        name: "fusion-diff".into(),
                        subprograms: vec![
                            Subprogram {
                                name: "main".into(),
                                body: CodeBody::Interpreted(main_ref),
                                ctx_data_len: 64,
                                ctx_access_len: 16,
                            },
                            Subprogram {
                                name: "leaf".into(),
                                body: CodeBody::Interpreted(leaf_ref),
                                ctx_data_len: 64,
                                ctx_access_len: 16,
                            },
                        ],
                    }),
                },
            )
            .unwrap();
        let dom_ad = space.mint(dom, Rights::CALL);

        let mut spec = ProcessSpec::new(dispatch);
        spec.fault_port = Some(fault_port);
        let proc_ref = make_process(space, root, dom_ad, 0, None, spec).unwrap();

        let ctx = space
            .load_ad_hw(proc_ref, PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap()
            .obj;
        space
            .store_ad_hw(ctx, u32::from(S_OUT), Some(out_mint))
            .unwrap();
        space
            .store_ad_hw(ctx, u32::from(S_PORT), Some(rendezvous))
            .unwrap();
        prep(space, ctx);

        space
            .atomically(|sm| port::make_ready(sm, proc_ref))
            .unwrap();
        let cpu = make_processor(space, root, 0, dispatch).unwrap();
        (proc_ref, cpu, fault_port, out_mint)
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

    let mut steps = 0u64;
    let mut exited = false;
    let mut fault = None;
    for _ in 0..400_000 {
        match gdp.step(&mut env) {
            StepEvent::Executed { .. } => steps += 1,
            StepEvent::ProcessExited(p) => {
                assert_eq!(p, proc_ref);
                exited = true;
                break;
            }
            StepEvent::ProcessFaulted { process, kind } => {
                assert_eq!(process, proc_ref);
                let recorded = env
                    .space
                    .with_process(proc_ref, |ps| ps.fault_code)
                    .unwrap();
                let ctx = env
                    .space
                    .load_ad_hw(proc_ref, PROC_SLOT_CONTEXT)
                    .unwrap()
                    .unwrap()
                    .obj;
                let ip = context_state(env.space, ctx).unwrap().ip;
                // With no process waiting, the fault port's open ring
                // holds its queue: count it after a flush.
                env.space.atomically(|sm| port::flush_rings(sm)).unwrap();
                assert_eq!(
                    env.space
                        .with_port(fault_port.obj, |p| p.msg_count)
                        .unwrap(),
                    1,
                    "faulted process must reach its fault port"
                );
                fault = Some((kind, recorded, ip));
                break;
            }
            StepEvent::SystemError { fault, .. } => panic!("system error: {fault}"),
            _ => {}
        }
    }
    assert!(
        exited || fault.is_some(),
        "program did not finish within the step budget ({mode:?})"
    );

    let total_cycles = {
        let mut agent2 = shared.agent();
        agent2.with_process(proc_ref, |ps| ps.total_cycles).unwrap()
    };
    let block_occupancy = gdp.block_cache_occupancy();
    drop(agent);
    let inner = shared.into_inner();
    let digest = digest_from_roots(&inner, &[out_ad]);

    RunOut {
        exited,
        fault,
        clock: gdp.clock,
        total_cycles,
        steps,
        digest,
        block_occupancy,
    }
}

/// Runs all three modes and asserts every architecturally visible
/// observation is bit-identical; returns the per-mode outcomes
/// (locked, cached, fused) for extra mode-specific assertions.
fn diff_modes(tag: &str, main: &[Instruction], leaf: &[Instruction]) -> Vec<RunOut> {
    diff_modes_prepared(tag, main, leaf, |_, _| {})
}

/// [`diff_modes`] over a fixture that `prep` extends.
fn diff_modes_prepared(
    tag: &str,
    main: &[Instruction],
    leaf: &[Instruction],
    prep: Prep,
) -> Vec<RunOut> {
    let outs: Vec<RunOut> = ALL_MODES
        .iter()
        .map(|m| run(main.to_vec(), leaf.to_vec(), *m, prep))
        .collect();
    let base = &outs[0];
    for (mode, o) in ALL_MODES.iter().zip(&outs).skip(1) {
        assert_eq!(
            o.exited, base.exited,
            "{tag}: exit verdict differs ({mode:?})"
        );
        assert_eq!(
            o.fault, base.fault,
            "{tag}: fault verdict differs ({mode:?})"
        );
        assert_eq!(o.clock, base.clock, "{tag}: clock differs ({mode:?})");
        assert_eq!(
            o.total_cycles, base.total_cycles,
            "{tag}: process cycle accounting differs ({mode:?})"
        );
        assert_eq!(
            o.digest, base.digest,
            "{tag}: object-graph digest differs ({mode:?})"
        );
    }
    outs
}

// ---------------------------------------------------------------------------
// Seeded program generation (straight-line + forward jumps over the
// fast-path ISA subset, terminating by construction).
// ---------------------------------------------------------------------------

fn xorshift(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x
}

/// A seeded program over the fast-path instruction set: data movement,
/// ALU work, abstract work, output-field writes and *forward* jumps
/// (conditional and unconditional), so every program terminates at the
/// trailing halt. Rich in linear→fast pairs — the fusion table's food.
fn gen_program(seed: u64) -> Vec<Instruction> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    const N: u64 = 48;
    let mut v = Vec::new();
    for i in 0..N {
        let r = xorshift(&mut s);
        let local = |r: u64| DataRef::Local(((r % 8) * 8) as u32);
        let dst = |r: u64| DataDst::Local(((r % 8) * 8) as u32);
        let fwd = |r: u64| ((i + 1 + r % 4).min(N)) as u32;
        v.push(match r % 12 {
            0 | 1 => Instruction::Mov {
                src: DataRef::Imm(r >> 8),
                dst: dst(r >> 3),
            },
            2 => Instruction::Mov {
                src: local(r >> 3),
                dst: dst(r >> 7),
            },
            3 => Instruction::Alu {
                op: AluOp::Add,
                a: local(r >> 3),
                b: DataRef::Imm(r >> 40),
                dst: dst(r >> 11),
            },
            4 => Instruction::Alu {
                op: AluOp::Mul,
                a: local(r >> 3),
                b: local(r >> 7),
                dst: dst(r >> 11),
            },
            5 => Instruction::Alu {
                op: AluOp::Xor,
                a: local(r >> 3),
                b: DataRef::Imm(0x5555_5555),
                dst: dst(r >> 11),
            },
            6 | 7 => Instruction::Work {
                cycles: 1 + (r >> 16) as u32 % 13,
            },
            8 | 9 => Instruction::Mov {
                src: local(r >> 3),
                dst: DataDst::Field(S_OUT, (((r >> 7) as u32) % OUT_WORDS) * 8),
            },
            10 => Instruction::Jump(fwd(r >> 5)),
            _ => Instruction::JumpIf {
                cond: local(r >> 3),
                when: r & 2 != 0,
                target: fwd(r >> 5),
            },
        });
    }
    v.push(Instruction::Halt);
    v
}

// ---------------------------------------------------------------------------
// The batteries
// ---------------------------------------------------------------------------

/// Seeded generated programs: digests, cycle counts and verdicts must
/// be bit-identical across locked / cached / fused — and the fused run
/// must actually fuse (strictly fewer dispatch steps).
#[test]
fn generated_programs_bit_identical_across_modes() {
    for seed in 0..8u64 {
        let main = gen_program(seed);
        let outs = diff_modes(&format!("seed {seed}"), &main, &[Instruction::Halt]);
        assert!(
            outs.iter().all(|o| o.exited),
            "seed {seed}: must run to halt"
        );
        assert!(
            outs[2].steps < outs[1].steps,
            "seed {seed}: fused dispatch must retire pairs (fused {} vs cached {} steps)",
            outs[2].steps,
            outs[1].steps
        );
        assert!(
            outs[2].block_occupancy >= 1,
            "seed {seed}: block cache used"
        );
        assert_eq!(
            outs[1].block_occupancy, 0,
            "unfused GDP never decodes blocks"
        );
    }
}

/// The canonical c3 hot-loop shape — mov/work/alu/jump_if — where
/// nearly every dynamic pair fuses.
#[test]
fn hot_loop_bit_identical_and_fuses() {
    let main = vec![
        Instruction::Mov {
            src: DataRef::Imm(64),
            dst: DataDst::Local(0),
        },
        // loop:
        Instruction::Work { cycles: 7 },
        Instruction::Alu {
            op: AluOp::Sub,
            a: DataRef::Local(0),
            b: DataRef::Imm(1),
            dst: DataDst::Local(0),
        },
        Instruction::Mov {
            src: DataRef::Local(0),
            dst: DataDst::Field(S_OUT, 0),
        },
        Instruction::JumpIf {
            cond: DataRef::Local(0),
            when: true,
            target: 1,
        },
        Instruction::Halt,
    ];
    let outs = diff_modes("hot-loop", &main, &[Instruction::Halt]);
    assert!(
        outs[2].steps * 2 <= outs[1].steps + 2,
        "pairs dominate the hot loop"
    );
}

/// Walks a div-by-zero across every pair alignment: the faulting
/// instruction must report its own ip — the original instruction
/// boundary — whether it leads a superinstruction (even ip) or lands
/// mid-superinstruction as the fused partner (odd ip).
#[test]
fn fault_reports_original_boundary_at_every_pair_alignment() {
    for k in 0..7u32 {
        let mut main = Vec::new();
        for i in 0..k {
            main.push(Instruction::Mov {
                src: DataRef::Imm(u64::from(i)),
                dst: DataDst::Local(0),
            });
        }
        main.push(Instruction::Alu {
            op: AluOp::Div,
            a: DataRef::Imm(7),
            b: DataRef::Imm(0),
            dst: DataDst::Local(8),
        });
        // A fusible tail, so the faulting div also *leads* a pair.
        main.push(Instruction::Mov {
            src: DataRef::Imm(1),
            dst: DataDst::Local(16),
        });
        main.push(Instruction::Halt);

        let outs = diff_modes(&format!("div@{k}"), &main, &[Instruction::Halt]);
        let (kind, code, ip) = outs[2].fault.expect("fused run faulted");
        assert_eq!(kind, FaultKind::DivideByZero, "div@{k}");
        assert_eq!(code, FaultKind::DivideByZero.code(), "div@{k}");
        assert_eq!(ip, k, "div@{k}: fault must name the faulting instruction");
    }
}

/// Same battery with a NullAccess fault (an empty access slot) — a
/// different fault path through the same pair alignments.
#[test]
fn null_access_fault_reports_original_boundary() {
    for k in 0..5u32 {
        let mut main = Vec::new();
        for i in 0..k {
            main.push(Instruction::Mov {
                src: DataRef::Imm(u64::from(i)),
                dst: DataDst::Local(0),
            });
        }
        main.push(Instruction::Mov {
            src: DataRef::Imm(9),
            dst: DataDst::Field(S_NULL, 0),
        });
        main.push(Instruction::Work { cycles: 3 });
        main.push(Instruction::Halt);

        let outs = diff_modes(&format!("null@{k}"), &main, &[Instruction::Halt]);
        let (kind, _, ip) = outs[2].fault.expect("fused run faulted");
        assert_eq!(kind, FaultKind::NullAccess, "null@{k}");
        assert_eq!(ip, k, "null@{k}: fault must name the faulting instruction");
    }
}

/// A call loop through the two-subprogram domain: every CALL type-checks,
/// qualifies and resolves its domain, in every mode.
#[test]
fn call_loop_bit_identical() {
    let main = vec![
        Instruction::Mov {
            src: DataRef::Imm(6),
            dst: DataDst::Local(0),
        },
        // loop: call leaf, decrement, repeat.
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
        Instruction::Mov {
            src: DataRef::Imm(0xCA11),
            dst: DataDst::Field(S_OUT, 0),
        },
        Instruction::Halt,
    ];
    let leaf = vec![
        Instruction::Work { cycles: 5 },
        Instruction::Return {
            ad: None,
            value: None,
        },
    ];
    let outs = diff_modes("call-loop", &main, &leaf);
    assert!(outs.iter().all(|o| o.exited));
}

/// A send/receive self-rendezvous loop over a FIFO port with the ring
/// registry on: both sites find the ring through the registry.
#[test]
fn port_loop_bit_identical() {
    let main = vec![
        Instruction::Mov {
            src: DataRef::Imm(5),
            dst: DataDst::Local(0),
        },
        // loop: send the out object to the port, receive it back.
        Instruction::Send {
            port: S_PORT,
            msg: S_OUT,
            key: DataRef::Imm(0),
        },
        Instruction::Receive {
            port: S_PORT,
            dst: S_OUT,
        },
        Instruction::Alu {
            op: AluOp::Sub,
            a: DataRef::Local(0),
            b: DataRef::Imm(1),
            dst: DataDst::Local(0),
        },
        Instruction::Mov {
            src: DataRef::Local(0),
            dst: DataDst::Field(S_OUT, 8),
        },
        Instruction::JumpIf {
            cond: DataRef::Local(0),
            when: true,
            target: 1,
        },
        Instruction::Halt,
    ];
    let outs = diff_modes("port-loop", &main, &[Instruction::Halt]);
    assert!(outs.iter().all(|o| o.exited));
}

/// A port loop, then the port's descriptor restricted to fewer rights:
/// the restricted descriptor finds the ring only for the operation its
/// rights still allow, and the operation they no longer allow faults
/// with the locked path's verdict, at the same instruction, in every
/// mode. A SEND-only descriptor still sends (through the ring) and
/// faults at the RECEIVE; a RECEIVE-only one faults at the SEND.
#[test]
fn fewer_rights_end_in_the_locked_verdict() {
    for (keep, faulting_ip) in [(Rights::SEND, 7), (Rights::RECEIVE, 6)] {
        let main = vec![
            Instruction::Mov {
                src: DataRef::Imm(3),
                dst: DataDst::Local(0),
            },
            // loop: send the out object to the port, receive it back.
            Instruction::Send {
                port: S_PORT,
                msg: S_OUT,
                key: DataRef::Imm(0),
            },
            Instruction::Receive {
                port: S_PORT,
                dst: S_OUT,
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
            Instruction::Restrict { slot: S_PORT, keep },
            Instruction::Send {
                port: S_PORT,
                msg: S_OUT,
                key: DataRef::Imm(0),
            },
            Instruction::Receive {
                port: S_PORT,
                dst: S_OUT,
            },
            Instruction::Halt,
        ];
        let tag = format!("keep {keep:?}");
        let outs = diff_modes(&tag, &main, &[Instruction::Halt]);
        let (kind, _, ip) = outs[2].fault.expect("fused run faulted");
        assert_eq!(kind, FaultKind::Rights, "{tag}");
        assert_eq!(
            ip, faulting_ip,
            "{tag}: the operation the rights no longer allow"
        );
    }
}

/// A FIFO port with eight slots.
fn fifo_port() -> ObjectSpec {
    ObjectSpec {
        data_len: 0,
        access_len: PortState::access_slots(8, 8),
        otype: ObjectType::System(SystemType::Port),
        level: None,
        sys: SysState::Port(PortState::new(8, 8, PortDiscipline::Fifo)),
    }
}

/// A domain whose one subprogram is the fixture's leaf.
fn leaf_domain() -> ObjectSpec {
    ObjectSpec {
        data_len: 0,
        access_len: 2,
        otype: ObjectType::System(SystemType::Domain),
        level: None,
        sys: SysState::Domain(DomainState {
            name: "recycled".into(),
            subprograms: vec![Subprogram {
                name: "leaf".into(),
                body: CodeBody::Interpreted(CodeRef(1)),
                ctx_data_len: 64,
                ctx_access_len: 16,
            }],
        }),
    }
}

/// Creates an object from `spec`, runs `warm` on a descriptor for it
/// with `rights`, keeps that descriptor in the context's `S_STALE`,
/// destroys the object and creates another from `spec` at the same
/// table index, whose descriptor goes in `S_RECYCLED`.
fn recycle(
    space: &mut dyn SpaceAccess,
    ctx: ObjectRef,
    spec: fn() -> ObjectSpec,
    rights: Rights,
    warm: fn(&mut dyn SpaceAccess, ObjectRef, AccessDescriptor),
) {
    let root = space.root_sro();
    let old = space.create_object(root, spec()).unwrap();
    let old_ad = space.mint(old, rights);
    warm(space, ctx, old_ad);
    space
        .store_ad_hw(ctx, u32::from(S_STALE), Some(old_ad))
        .unwrap();
    space.destroy_object(old).unwrap();
    let new = space.create_object(root, spec()).unwrap();
    assert_eq!(new.index, old.index, "the free list reuses the slot");
    assert_ne!(new.generation, old.generation);
    let new_ad = space.mint(new, rights);
    space
        .store_ad_hw(ctx, u32::from(S_RECYCLED), Some(new_ad))
        .unwrap();
}

/// A port loop on a port that recycled the table index of a port with
/// an open ring, then a SEND through the dead port's descriptor. The
/// old ring must serve neither: the loop takes the locked path, and the
/// stale SEND faults with the locked path's verdict, in every mode.
#[test]
fn recycled_port_ends_in_the_locked_verdict() {
    fn open_ring(space: &mut dyn SpaceAccess, ctx: ObjectRef, port_ad: AccessDescriptor) {
        let msg = space.load_ad_hw(ctx, u32::from(S_OUT)).unwrap().unwrap();
        space.atomically(|sm| {
            port::send(sm, None, port_ad, msg, 0, false, false).unwrap();
            port::receive(sm, None, port_ad, false, false).unwrap();
        });
        assert!(
            port::ring_for(&*space, port_ad, Rights::SEND).is_some(),
            "the locked path gave the old port a ring"
        );
    }
    let main = vec![
        Instruction::Mov {
            src: DataRef::Imm(3),
            dst: DataDst::Local(0),
        },
        // loop: send the out object to the recycled port, receive it back.
        Instruction::Send {
            port: S_RECYCLED,
            msg: S_OUT,
            key: DataRef::Imm(0),
        },
        Instruction::Receive {
            port: S_RECYCLED,
            dst: S_OUT,
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
        Instruction::Send {
            port: S_STALE,
            msg: S_OUT,
            key: DataRef::Imm(0),
        },
        Instruction::Halt,
    ];
    let outs = diff_modes_prepared(
        "recycled-port",
        &main,
        &[Instruction::Halt],
        |space, ctx| {
            recycle(
                space,
                ctx,
                fifo_port,
                Rights::SEND | Rights::RECEIVE,
                open_ring,
            )
        },
    );
    let (kind, _, ip) = outs[2].fault.expect("fused run faulted");
    assert_eq!(kind, FaultKind::StaleRef);
    assert_eq!(ip, 5, "the SEND through the dead port's descriptor");
}

/// A call loop through a domain that recycled the table index of a
/// destroyed domain, then a CALL through the destroyed domain's
/// descriptor: the loop's CALLs succeed and the stale one faults with
/// the locked path's verdict, in every mode.
#[test]
fn recycled_domain_ends_in_the_locked_verdict() {
    let main = vec![
        Instruction::Mov {
            src: DataRef::Imm(3),
            dst: DataDst::Local(0),
        },
        // loop: call the recycled domain's leaf, decrement, repeat.
        Instruction::Call {
            domain: S_RECYCLED,
            subprogram: 0,
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
        Instruction::Call {
            domain: S_STALE,
            subprogram: 0,
            arg: None,
            ret_ad: None,
            ret_val: None,
        },
        Instruction::Halt,
    ];
    let leaf = vec![
        Instruction::Work { cycles: 5 },
        Instruction::Return {
            ad: None,
            value: None,
        },
    ];
    let outs = diff_modes_prepared("recycled-domain", &main, &leaf, |space, ctx| {
        recycle(space, ctx, leaf_domain, Rights::CALL, |_, _, _| {})
    });
    let (kind, _, ip) = outs[2].fault.expect("fused run faulted");
    assert_eq!(kind, FaultKind::StaleRef);
    assert_eq!(ip, 4, "the CALL through the dead domain's descriptor");
}

/// The fused executor's pair admission must stay a subset of the fast
/// path: a RaiseFault (never fast) both as potential head and partner
/// must run on the locked path with identical verdicts everywhere.
#[test]
fn slow_instructions_never_fuse() {
    let main = vec![
        Instruction::Mov {
            src: DataRef::Imm(1),
            dst: DataDst::Local(0),
        },
        Instruction::RaiseFault { code: 7 },
        Instruction::Halt,
    ];
    let outs = diff_modes("raise", &main, &[Instruction::Halt]);
    let (kind, code, ip) = outs[2].fault.expect("fused run faulted");
    assert_eq!(kind, FaultKind::Explicit(7));
    assert_eq!(code, FaultKind::Explicit(7).code());
    assert_eq!(ip, 1);
}
