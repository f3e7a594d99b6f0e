//! A halted processor counts as idle for quiescence.
//!
//! A processor halts when a fault its process's system level may not
//! tolerate reaches it (paper §7.3). It is never stepped again, so it
//! never reports an idle poll; quiescence must still be reachable once
//! every other processor idles.

use i432_gdp::{isa::Instruction, process::ProcessSpec, ProgramBuilder};
use i432_sim::{RunOutcome, System, SystemConfig};

#[test]
fn halted_processor_does_not_block_quiescence() {
    let mut sys = System::new(&SystemConfig::small().with_processors(2));
    let mut p = ProgramBuilder::new();
    p.push(Instruction::RaiseFault { code: 1 });
    let sub = sys.subprogram("fault", p.finish(), 64, 8);
    let dom = sys.install_domain("faulter", vec![sub], 0);
    let spec = ProcessSpec {
        sys_level: 1,
        ..ProcessSpec::new(sys.dispatch_ad())
    };
    sys.spawn_with(dom, 0, None, spec);

    let outcome = sys.run_to_quiescence(10_000);
    assert!(matches!(outcome, RunOutcome::SystemError(_)), "{outcome:?}");

    let before = sys.steps();
    assert_eq!(sys.run_to_quiescence(10_000), RunOutcome::Quiescent);
    assert!(
        sys.steps() - before < 10,
        "the surviving processor idles at once: {} steps",
        sys.steps() - before
    );
}
