//! I4 — iMAX system levels, paper §7.3: fault-permission tiers and the
//! level-2/3 asynchrony rule, enforced end to end through the machine.

use imax::arch::{PortDiscipline, SpaceAccessExt};
use imax::boot::Scheduler;
use imax::gdp::isa::{AluOp, DataDst, DataRef};
use imax::gdp::{FaultKind, Instruction, ProgramBuilder, StepEvent};
use imax::ipc::{create_port, CheckedPort};
use imax::levels::{set_system_level, system_level, SysLevel};
use imax::sim::{RunOutcome, System, SystemConfig};
use imax::typemgr::TypeManager;
use imax::{Imax, ImaxConfig};

/// Spawns one process at the given system level running `code`; returns
/// the final event of interest.
fn run_at_level(level: SysLevel, code: Vec<Instruction>) -> (System, StepEvent) {
    let mut sys = System::new(&SystemConfig::small());
    let sub = sys.subprogram("probe", code, 64, 8);
    let dom = sys.install_domain("probe", vec![sub], 0);
    let p = sys.spawn(dom, 0, None);
    set_system_level(&mut sys.space, p, level).unwrap();
    let mut last = StepEvent::Idle;
    let outcome = sys.run_until(100_000, |_, e| match e {
        StepEvent::ProcessFaulted { .. } | StepEvent::ProcessExited(_) => {
            last = e.clone();
            true
        }
        _ => false,
    });
    // System errors end the run before the predicate sees them.
    if let RunOutcome::SystemError(fault) = outcome {
        last = StepEvent::SystemError {
            process: None,
            fault,
        };
    }
    (sys, last)
}

fn faulting_code() -> Vec<Instruction> {
    let mut p = ProgramBuilder::new();
    p.alu(
        AluOp::Div,
        DataRef::Imm(1),
        DataRef::Imm(0),
        DataDst::Local(0),
    );
    p.halt();
    p.finish()
}

#[test]
fn level3_faults_are_survivable() {
    let (_, ev) = run_at_level(SysLevel::Level3, faulting_code());
    assert!(
        matches!(
            ev,
            StepEvent::ProcessFaulted {
                kind: FaultKind::DivideByZero,
                ..
            }
        ),
        "{ev:?}"
    );
}

#[test]
fn level2_ordinary_fault_is_a_system_error() {
    let (_, ev) = run_at_level(SysLevel::Level2, faulting_code());
    assert!(matches!(ev, StepEvent::SystemError { .. }), "{ev:?}");
}

#[test]
fn level1_fault_is_a_system_error() {
    let (_, ev) = run_at_level(SysLevel::Level1, faulting_code());
    assert!(matches!(ev, StepEvent::SystemError { .. }), "{ev:?}");
}

#[test]
fn clean_code_runs_at_any_level() {
    for lvl in [SysLevel::Level1, SysLevel::Level2, SysLevel::Level3] {
        let mut p = ProgramBuilder::new();
        p.work(100);
        p.halt();
        let (_, ev) = run_at_level(lvl, p.finish());
        assert!(matches!(ev, StepEvent::ProcessExited(_)), "{lvl:?}: {ev:?}");
    }
}

#[test]
fn system_error_halts_only_the_one_processor() {
    // A level-1 process faulting halts its processor; the other
    // processor keeps running its own work.
    let mut sys = System::new(&SystemConfig::small().with_processors(2));
    let crash_sub = sys.subprogram("crash", faulting_code(), 32, 8);
    let crash_dom = sys.install_domain("crash", vec![crash_sub], 0);
    let crasher = sys.spawn(crash_dom, 0, None);
    set_system_level(&mut sys.space, crasher, SysLevel::Level1).unwrap();

    let mut w = ProgramBuilder::new();
    let top = w.new_label();
    w.mov(DataRef::Imm(200), DataDst::Local(0));
    w.bind(top);
    w.work(200);
    w.alu(
        AluOp::Sub,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    w.jump_if_nonzero(DataRef::Local(0), top);
    w.halt();
    let work_sub = sys.subprogram("work", w.finish(), 64, 8);
    let work_dom = sys.install_domain("work", vec![work_sub], 0);
    let worker = sys.spawn(work_dom, 0, None);

    // The crasher halts its processor: the run reports the system error.
    let mut worker_done = false;
    let outcome = sys.run_until(10_000_000, |_, e| {
        if let StepEvent::ProcessExited(p) = e {
            if *p == worker {
                worker_done = true;
            }
        }
        false
    });
    assert!(
        matches!(outcome, RunOutcome::SystemError(_)),
        "the crasher produced a system error: {outcome:?}"
    );
    // Continue: the surviving processor finishes the worker.
    let outcome = sys.run_until(10_000_000, |_, e| {
        if let StepEvent::ProcessExited(p) = e {
            if *p == worker {
                worker_done = true;
            }
        }
        worker_done
    });
    assert!(
        matches!(outcome, RunOutcome::Stopped | RunOutcome::SystemError(_)),
        "{outcome:?}"
    );
    assert!(worker_done, "the surviving processor finished the worker");
}

#[test]
fn sync_call_direction_rule() {
    // §7.3's structural rule, checked at configuration time.
    assert!(SysLevel::Level3.may_call_sync(SysLevel::Level1));
    assert!(!SysLevel::Level1.may_call_sync(SysLevel::Level3));
    assert!(!SysLevel::Level2.may_call_sync(SysLevel::Level3));
}

/// The levels, null-policy and checked-port APIs take any exclusive
/// space, so on a booted system they also run inside an atomic section,
/// on the `&mut dyn SpaceMut` a native service receives.
#[test]
fn space_apis_run_on_a_booted_system() {
    let mut os = Imax::boot(&ImaxConfig::embedded());
    let mut p = ProgramBuilder::new();
    p.halt();
    let sub = os.sys.subprogram("idle", p.finish(), 32, 8);
    let dom = os.sys.install_domain("idle", vec![sub], 0);
    let process = os.spawn_program(dom, 0, None);
    let Scheduler::Null(null) = &os.scheduler else {
        panic!("the embedded configuration boots the null policy");
    };
    os.sys.space.atomically(|sm| {
        null.set_priority(sm, process, 9).unwrap();
        assert_eq!(sm.process(process).unwrap().priority, 9);
        set_system_level(sm, process, SysLevel::Level2).unwrap();
        assert_eq!(system_level(sm, process).unwrap(), SysLevel::Level2);

        let root = sm.root_sro();
        let parcel = TypeManager::new(sm, root, "parcel").unwrap();
        let other = TypeManager::new(sm, root, "other").unwrap();
        let raw = create_port(sm, root, 4, PortDiscipline::Fifo).unwrap();
        let port = CheckedPort::bind(raw, parcel.tdo());
        let stranger = other.create_instance(sm, root, 8, 0).unwrap();
        let refused = port.send(sm, stranger).unwrap_err();
        assert_eq!(refused.kind, FaultKind::TypeMismatch);
        let mine = parcel.create_instance(sm, root, 8, 0).unwrap();
        port.send(sm, mine).unwrap();
        assert_eq!(port.receive(sm).unwrap(), Some(mine));
    });
}
