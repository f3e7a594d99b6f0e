//! The collector as a daemon *process*.
//!
//! Paper §8.1: "The iMAX garbage collector is implemented as a daemon
//! process that globally scans the system. It requires only minimal
//! synchronization with the rest of the operating system."
//!
//! The daemon is an ordinary simulated process: an interpreted loop that
//! CALLs the `garbage_collector.step` service (a native body performing a
//! bounded number of collector increments and charging their simulated
//! cost). It is dispatched, time-sliced and preempted like any mutator —
//! the "parallel" in parallel garbage collection — and its only
//! synchronization with the rest of iMAX is the hardware gray bit, plus,
//! on the threaded runner, the port rings' counts of fast receives in
//! flight, which it reads and never waits for.
//!
//! The daemon is the only collector. Its increments are part of the
//! simulated instruction stream, so on the deterministic runner every
//! run replays bit-identically (C1/C2 in EXPERIMENTS.md). On the
//! threaded runner the service body runs inside the native CALL's
//! all-shard section, so the mutators on the other GDP threads run
//! between its calls; there the conformance oracle checks it by the
//! end state instead of byte-equal replay.

use crate::collector::Collector;
use i432_arch::{CodeBody, ObjectRef, Subprogram};
use i432_gdp::{native::NativeReturn, process::ProcessSpec, ProgramBuilder};
use i432_sim::System;
use parking_lot::Mutex;
use std::sync::Arc;

/// Installs the GC service domain and spawns the daemon process.
///
/// * `increments_per_call` — collector increments per service CALL
///   (higher = coarser daemon, fewer domain switches). A call ends
///   early at a verification skipped for a fast receive in flight
///   ([`Collector::run_section`]), handing the shard locks back.
/// * `priority` — the daemon's dispatching priority (higher value =
///   less urgent than mutators, the usual configuration).
///
/// Returns the daemon process.
pub fn install_gc_daemon(
    sys: &mut System,
    collector: Arc<Mutex<Collector>>,
    increments_per_call: u32,
    priority: u8,
) -> ObjectRef {
    // The native service body: N increments, cost = the collector's own
    // simulated-cycle accounting delta.
    let service = {
        let collector = Arc::clone(&collector);
        move |cx: &mut i432_gdp::NativeCtx<'_>| {
            let mut gc = collector.lock();
            let before = gc.stats.sim_cycles;
            gc.run_section(cx.space, increments_per_call, u32::MAX)?;
            let spent = gc.stats.sim_cycles - before;
            cx.charge(spent.max(10));
            Ok(NativeReturn::void())
        }
    };
    let nid = sys.natives.register("garbage_collector.step", service);
    let gc_domain = sys.install_domain(
        "garbage_collector",
        vec![Subprogram {
            name: "step".into(),
            body: CodeBody::Native(nid),
            ctx_data_len: 16,
            ctx_access_len: 8,
        }],
        0,
    );

    // The daemon body: call step forever.
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.bind(top);
    p.call(i432_arch::sysobj::CTX_SLOT_ARG as u16, 0, None, None, None);
    p.jump(top);
    let daemon_sub = sys.subprogram("gc_daemon_loop", p.finish(), 32, 8);
    let daemon_domain = sys.install_domain("gc_daemon", vec![daemon_sub], 0);

    let dispatch = sys.dispatch_ad();
    let mut spec = ProcessSpec::new(dispatch);
    spec.priority = priority;
    // The daemon is system software (paper §7.3). Level 2 permits only
    // timeout faults, so a failing increment is a system error.
    spec.sys_level = 2;
    spec.timeslice = 20_000;
    // The GC domain AD is passed as the daemon's argument.
    let daemon = sys.spawn_with(daemon_domain, 0, Some(gc_domain), spec);
    sys.mark_service(daemon);
    daemon
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{ObjectSpec, Rights};
    use i432_sim::SystemConfig;

    #[test]
    fn daemon_collects_while_mutators_run() {
        let mut sys = System::new(&SystemConfig::small().with_processors(2));
        let collector = Arc::new(Mutex::new(Collector::new()));
        let _daemon = install_gc_daemon(&mut sys, Arc::clone(&collector), 8, 200);

        // A mutator that makes garbage: allocates objects into a slot,
        // overwriting (dropping) the previous one each iteration.
        use i432_gdp::isa::{AluOp, DataDst, DataRef};
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.mov(DataRef::Imm(40), DataDst::Local(0));
        p.bind(top);
        p.create_object(
            i432_arch::sysobj::CTX_SLOT_SRO as u16,
            DataRef::Imm(32),
            DataRef::Imm(0),
            6,
        );
        p.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), top);
        p.halt();
        let sub = sys.subprogram("garbage_maker", p.finish(), 64, 8);
        let dom = sys.install_domain("mutator", vec![sub], 0);
        let mutator = sys.spawn(dom, 0, None);

        // Run long enough for the daemon to complete cycles (the daemon
        // never exits, so the budget bounds the run).
        let outcome = sys.run_until(50_000, |_, _| false);
        assert!(
            !matches!(outcome, i432_sim::RunOutcome::SystemError(_)),
            "{outcome:?}"
        );
        let stats = collector.lock().stats;
        assert!(
            stats.cycles >= 1,
            "daemon completed at least one cycle: {stats:?}"
        );
        assert!(
            stats.reclaimed >= 30,
            "dropped objects were reclaimed: {stats:?}"
        );
        // The mutator itself finished and was untouched mid-flight.
        assert_eq!(
            sys.status_of(mutator),
            Some(i432_arch::ProcessStatus::Terminated)
        );
        // Live system structures survived: spot-check the dispatch port.
        assert!(sys.space.entry(sys.dispatch_port()).is_ok());
        let _ = sys
            .space
            .create_object(sys.space.root_sro(), ObjectSpec::generic(8, 0))
            .unwrap();
        let _ = Rights::NONE;
    }

    /// A failing increment faults the daemon at its system level (2),
    /// which permits only timeout faults, so the fault is a system
    /// error: both runners count it and stop, and a harness that checks
    /// for system errors cannot miss a collector fault.
    #[test]
    fn a_failing_increment_is_a_system_error() {
        let poisoned = |cpus: u32| {
            let mut sys = System::new(&SystemConfig::small().with_processors(cpus));
            install_gc_daemon(&mut sys, Arc::new(Mutex::new(Collector::new())), 8, 128);
            // Garbage whose type is a live object that is no type
            // definition: sweeping it looks for a filter port and faults.
            let root = sys.space.root_sro();
            let not_a_tdo = sys
                .space
                .create_object(root, ObjectSpec::generic(0, 0))
                .unwrap();
            let ad = sys.space.mint(not_a_tdo, Rights::READ);
            sys.anchor(ad);
            let spec = ObjectSpec {
                otype: i432_arch::ObjectType::User(not_a_tdo),
                ..ObjectSpec::generic(0, 0)
            };
            sys.space.create_object(root, spec).unwrap();
            sys
        };

        let outcome = poisoned(1).run_until(1_000_000, |_, _| false);
        assert!(
            matches!(outcome, i432_sim::RunOutcome::SystemError(_)),
            "{outcome:?}"
        );

        // On the threaded runner, beside a mutator that would run far
        // longer than the collector needs to reach the poisoned object.
        use i432_gdp::isa::{AluOp, DataDst, DataRef};
        let mut sys = poisoned(2);
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.mov(DataRef::Imm(1_000_000), DataDst::Local(0));
        p.bind(top);
        p.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), top);
        p.halt();
        let sub = sys.subprogram("spinner", p.finish(), 64, 8);
        let dom = sys.install_domain("mutator", vec![sub], 0);
        sys.spawn(dom, 0, None);
        let (_, outcome) = i432_sim::run_threaded(sys, u64::MAX);
        assert!(
            !outcome.completed && outcome.system_errors >= 1,
            "{outcome:?}"
        );
    }
}
