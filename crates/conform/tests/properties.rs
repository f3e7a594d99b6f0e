//! Property tests for kernel invariants, driven by the generated
//! workloads: rights amplification is gated on the amplify right,
//! generated runs leave structurally sound spaces, per-shard accounting
//! sums to the merged view, and the tricolor invariant survives a mark
//! phase over a fuzz-built heap.

use i432_arch::{check_invariants, sysobj::CTX_SLOT_SRO, ProcessStatus, Rights, SpaceStats};
use i432_conform::gen::generate;
use i432_conform::oracle::{run_deterministic_sys, run_threaded_sys};
use i432_gdp::isa::{DataDst, DataRef};
use i432_gdp::ProgramBuilder;
use i432_sim::{System, SystemConfig};
use imax_gc::{check_tricolor, Collector, GcPhase};
use imax_typemgr::create_tdo;

/// Context slot the amplification programs find the TDO in.
const S_TDO: u16 = 8;
/// Context slot the typed instance lands in.
const S_OBJ: u16 = 9;

/// Builds a system running one process that creates a typed instance,
/// restricts its own AD for it to READ, then amplifies WRITE back and
/// proves it by writing — poking `tdo_rights` into the TDO slot.
fn run_amplify_program(tdo_rights: Rights) -> (ProcessStatus, u16) {
    let mut sys = System::new(&SystemConfig::small());
    let root = sys.space.root_sro();
    let tdo_ad = create_tdo(&mut sys.space, root, "conform-type").expect("tdo fits");
    sys.anchor(tdo_ad);
    // A fault port keeps a faulted process observable as `Faulted`
    // (without one, fault delivery terminates it).
    let fault_port =
        imax_ipc::create_port(&mut sys.space, root, 4, i432_arch::PortDiscipline::Fifo)
            .expect("fault port fits");
    sys.anchor(fault_port.ad());

    let mut p = ProgramBuilder::new();
    p.create_typed_object(
        CTX_SLOT_SRO as u16,
        S_TDO,
        DataRef::Imm(16),
        DataRef::Imm(0),
        S_OBJ,
    );
    p.restrict(S_OBJ, Rights::READ);
    p.amplify(S_OBJ, S_TDO, Rights::WRITE);
    p.mov(DataRef::Imm(7), DataDst::Field(S_OBJ, 0));
    p.halt();
    let sub = sys.subprogram("amplifier", p.finish(), 64, 16);
    let dom = sys.install_domain("typed", vec![sub], 0);
    let mut spec = i432_gdp::process::ProcessSpec::new(sys.dispatch_ad());
    spec.fault_port = Some(fault_port.ad());
    let proc_ref = sys.spawn_with(dom, 0, None, spec);
    let ctx = sys
        .space
        .load_ad_hw(proc_ref, i432_arch::sysobj::PROC_SLOT_CONTEXT)
        .unwrap()
        .unwrap()
        .obj;
    sys.space
        .store_ad_hw(ctx, u32::from(S_TDO), Some(tdo_ad.restricted(tdo_rights)))
        .unwrap();
    sys.run_to_quiescence(1_000_000);
    let ps = sys.space.process(proc_ref).unwrap();
    (ps.status, ps.fault_code)
}

#[test]
fn amplify_requires_the_amplify_right() {
    // With the full type-manager rights the program terminates cleanly.
    let (status, fault) = run_amplify_program(Rights::ALL);
    assert_eq!(status, ProcessStatus::Terminated, "fault code {fault}");
    assert_eq!(fault, 0);

    // Without AMPLIFY the amplification itself must rights-fault: a
    // restriction would be meaningless if any holder could undo it.
    let (status, fault) = run_amplify_program(Rights::READ | Rights::CREATE_INSTANCE);
    assert_eq!(status, ProcessStatus::Faulted);
    assert_ne!(fault, 0, "amplify without the right must fault");
}

#[test]
fn generated_runs_leave_sound_spaces() {
    for seed in 0..16 {
        let case = generate(seed);
        let (sys, _) = run_deterministic_sys(&case);
        let problems = check_invariants(&sys.space);
        assert!(problems.is_empty(), "seed {seed}: {problems:?}");
    }
}

#[test]
fn threaded_runs_leave_sound_spaces() {
    for seed in 0..6 {
        let case = generate(seed);
        let (sys, _) = run_threaded_sys(&case, 4, 4);
        let problems = check_invariants(&sys.space);
        assert!(problems.is_empty(), "seed {seed}: {problems:?}");
    }
}

#[test]
fn per_shard_stats_sum_to_the_merged_view() {
    for seed in [3u64, 9] {
        let case = generate(seed);
        let (sys, _) = run_threaded_sys(&case, 4, 4);
        let merged = sys.space.stats();
        let mut summed = SpaceStats::default();
        for k in 0..sys.space.shard_count() {
            summed.merge(&sys.space.stats_of_shard(k));
        }
        assert_eq!(summed, merged, "seed {seed}");
    }
}

#[test]
fn tricolor_invariant_holds_marking_a_fuzz_built_heap() {
    // Run a generated workload, then drive a full mark phase over the
    // resulting object graph, checking the black-to-white exclusion
    // after every collector increment.
    let case = generate(4);
    let (sys, _) = run_deterministic_sys(&case);
    let mut space = sys.space;
    let mut gc = Collector::new();
    gc.start_cycle(&mut space).expect("cycle starts");
    let mut steps = 0;
    while gc.phase() == GcPhase::Mark {
        gc.step(&mut space).expect("mark step");
        steps += 1;
        let v = check_tricolor(&mut space);
        assert!(v.is_empty(), "after mark step {steps}: {v:?}");
        assert!(steps < 100_000, "mark did not terminate");
    }
    assert!(steps > 0);
}
