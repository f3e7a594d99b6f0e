//! Hardware process objects, processor binding and implicit dispatching.
//!
//! Paper §5: "the hardware defines a process object which contains the
//! information for scheduling processes, dispatching them on any one of
//! several potentially available processors, and sending them back to
//! software when various fault or scheduling conditions arise. All
//! hardware operations involving a process object occur implicitly."

use crate::{
    context::{create_context, subprogram_of},
    fault::{Fault, FaultKind},
    port::{self, RecvOutcome},
};
use i432_arch::{
    sysobj::{
        CPU_ACCESS_SLOTS, CPU_SLOT_DISPATCH_PORT, CPU_SLOT_PROCESS, PROC_ACCESS_SLOTS,
        PROC_SLOT_CONTEXT, PROC_SLOT_DISPATCH_PORT, PROC_SLOT_FAULT_PORT, PROC_SLOT_SCHED_PORT,
        PROC_SLOT_SRO,
    },
    AccessDescriptor, Level, ObjectRef, ObjectSpec, ObjectType, ProcessState, ProcessStatus,
    ProcessorState, ProcessorStatus, Rights, SpaceAccess, SpaceAccessExt, SpaceMut, SysState,
    SystemType,
};

/// Bytes of scratch data every process object carries (accounting area).
pub const PROC_DATA_BYTES: u32 = 64;

/// Options for creating a process object.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    /// Dispatching port the process runs from (required).
    pub dispatch_port: AccessDescriptor,
    /// Fault port, if any.
    pub fault_port: Option<AccessDescriptor>,
    /// Scheduler port, if any (receives the process at scheduling
    /// events).
    pub scheduler_port: Option<AccessDescriptor>,
    /// Priority (lower = more urgent).
    pub priority: u8,
    /// Deadline for deadline-dispatched systems.
    pub deadline: u64,
    /// Time slice in cycles.
    pub timeslice: u64,
    /// iMAX system level (paper §7.3); 3 = ordinary application.
    pub sys_level: u8,
    /// Lifetime level of the process object.
    pub level: Level,
}

impl ProcessSpec {
    /// A standard application process on the given dispatching port.
    pub fn new(dispatch_port: AccessDescriptor) -> ProcessSpec {
        ProcessSpec {
            dispatch_port,
            fault_port: None,
            scheduler_port: None,
            priority: 128,
            deadline: u64::MAX,
            timeslice: 50_000,
            sys_level: 3,
            level: Level::GLOBAL,
        }
    }
}

/// Creates a process object with a root context executing `subprogram` of
/// `domain` with the given argument. The process is left in `Ready`
/// status but **not** enqueued; call [`port::make_ready`] (or iMAX's
/// process manager) to enter it into the dispatching mix.
pub fn make_process<S: SpaceAccess + ?Sized>(
    space: &mut S,
    sro: ObjectRef,
    domain_ad: AccessDescriptor,
    subprogram: u32,
    arg: Option<AccessDescriptor>,
    spec: ProcessSpec,
) -> Result<ObjectRef, Fault> {
    space
        .qualify(domain_ad, Rights::CALL)
        .map_err(Fault::from)?;
    let mut pstate = ProcessState::new(spec.level);
    pstate.priority = spec.priority;
    pstate.deadline = spec.deadline;
    pstate.timeslice = spec.timeslice;
    pstate.slice_remaining = spec.timeslice;
    pstate.sys_level = spec.sys_level;
    let proc_ref = space
        .create_object(
            sro,
            ObjectSpec {
                data_len: PROC_DATA_BYTES,
                access_len: PROC_ACCESS_SLOTS,
                otype: ObjectType::System(SystemType::Process),
                level: Some(spec.level),
                sys: SysState::Process(pstate),
            },
        )
        .map_err(Fault::from)?;
    space
        .store_ad_hw(proc_ref, PROC_SLOT_DISPATCH_PORT, Some(spec.dispatch_port))
        .map_err(Fault::from)?;
    space
        .store_ad_hw(proc_ref, PROC_SLOT_FAULT_PORT, spec.fault_port)
        .map_err(Fault::from)?;
    space
        .store_ad_hw(proc_ref, PROC_SLOT_SCHED_PORT, spec.scheduler_port)
        .map_err(Fault::from)?;
    let sro_ad = space.mint(sro, Rights::ALLOCATE | Rights::RECLAIM);
    space
        .store_ad_hw(proc_ref, PROC_SLOT_SRO, Some(sro_ad))
        .map_err(Fault::from)?;
    // Root context.
    let sub = subprogram_of(space, domain_ad.obj, subprogram)?;
    let ctx = create_context(
        space, sro, domain_ad, subprogram, &sub, arg, None, spec.level, None, None,
    )?;
    let ctx_ad = space.mint(ctx, Rights::READ | Rights::WRITE);
    space
        .store_ad_hw(proc_ref, PROC_SLOT_CONTEXT, Some(ctx_ad))
        .map_err(Fault::from)?;
    Ok(proc_ref)
}

/// Creates a processor object bound to a dispatching port.
pub fn make_processor<S: SpaceAccess + ?Sized>(
    space: &mut S,
    sro: ObjectRef,
    id: u32,
    dispatch_port: AccessDescriptor,
) -> Result<ObjectRef, Fault> {
    let cpu = space
        .create_object(
            sro,
            ObjectSpec {
                data_len: 0,
                access_len: CPU_ACCESS_SLOTS,
                otype: ObjectType::System(SystemType::Processor),
                level: Some(Level::GLOBAL),
                sys: SysState::Processor(ProcessorState::new(id)),
            },
        )
        .map_err(Fault::from)?;
    space
        .store_ad_hw(cpu, CPU_SLOT_DISPATCH_PORT, Some(dispatch_port))
        .map_err(Fault::from)?;
    Ok(cpu)
}

/// Binds `proc_ref` to the processor (dispatch completion).
pub fn bind<S: SpaceAccess + ?Sized>(
    space: &mut S,
    cpu: ObjectRef,
    proc_ref: ObjectRef,
) -> Result<(), Fault> {
    let pad = space.mint(proc_ref, Rights::NONE);
    space
        .store_ad_hw(cpu, CPU_SLOT_PROCESS, Some(pad))
        .map_err(Fault::from)?;
    space
        .with_processor_mut(cpu, |p| p.status = ProcessorStatus::Running)
        .map_err(Fault::from)?;
    space
        .with_process_mut(proc_ref, |ps| ps.status = ProcessStatus::Running)
        .map_err(Fault::from)?;
    Ok(())
}

/// Unbinds the current process from the processor, which goes idle.
pub fn unbind<S: SpaceAccess + ?Sized>(space: &mut S, cpu: ObjectRef) -> Result<(), Fault> {
    space
        .store_ad_hw(cpu, CPU_SLOT_PROCESS, None)
        .map_err(Fault::from)?;
    space
        .with_processor_mut(cpu, |p| p.status = ProcessorStatus::Idle)
        .map_err(Fault::from)?;
    Ok(())
}

/// Returns the process currently bound to the processor, if any.
pub fn current_process<S: SpaceAccess + ?Sized>(
    space: &mut S,
    cpu: ObjectRef,
) -> Result<Option<ObjectRef>, Fault> {
    Ok(space
        .load_ad_hw(cpu, CPU_SLOT_PROCESS)
        .map_err(Fault::from)?
        .map(|ad| ad.obj))
}

/// Attempts to dispatch a ready process from the processor's dispatching
/// port. Stopped or non-ready processes found in the queue are handed to
/// their scheduler port instead of being bound.
pub fn try_dispatch<S: SpaceMut + ?Sized>(
    space: &mut S,
    cpu: ObjectRef,
) -> Result<Option<ObjectRef>, Fault> {
    let dispatch = space
        .load_ad_hw(cpu, CPU_SLOT_DISPATCH_PORT)
        .map_err(Fault::from)?
        .ok_or_else(|| {
            Fault::with_detail(FaultKind::NullAccess, "processor has no dispatching port")
        })?;
    loop {
        match port::receive(space, None, dispatch, false, true)? {
            RecvOutcome::Received(msg) => {
                let proc_ref = msg.obj;
                let runnable = {
                    let ps = space.process(proc_ref).map_err(Fault::from)?;
                    ps.is_started() && ps.status == ProcessStatus::Ready
                };
                if runnable {
                    bind(space, cpu, proc_ref)?;
                    return Ok(Some(proc_ref));
                }
                // Not runnable: park it with its scheduler if it has one;
                // otherwise mark it Stopped so its manager (which holds an
                // access for it) can re-enter it into the mix on start.
                if !notify_scheduler(space, proc_ref)? {
                    space.process_mut(proc_ref).map_err(Fault::from)?.status =
                        ProcessStatus::Stopped;
                }
            }
            RecvOutcome::WouldBlock => return Ok(None),
            RecvOutcome::Blocked => unreachable!("carrier receive never blocks"),
        }
    }
}

/// Sends the process to its scheduler port (scheduling event). Returns
/// `false` when the process has no scheduler port.
pub fn notify_scheduler<S: SpaceMut + ?Sized>(
    space: &mut S,
    proc_ref: ObjectRef,
) -> Result<bool, Fault> {
    let Some(sched) = space
        .load_ad_hw(proc_ref, PROC_SLOT_SCHED_PORT)
        .map_err(Fault::from)?
    else {
        return Ok(false);
    };
    let pad = space.mint(proc_ref, Rights::NONE);
    port::send(space, None, sched, pad, 0, false, true)?;
    Ok(true)
}

/// Delivers a faulted process to its fault port. Returns `false` when the
/// process has no fault port (the process is then terminated).
pub fn deliver_fault<S: SpaceMut + ?Sized>(
    space: &mut S,
    proc_ref: ObjectRef,
) -> Result<bool, Fault> {
    let Some(fault_port) = space
        .load_ad_hw(proc_ref, PROC_SLOT_FAULT_PORT)
        .map_err(Fault::from)?
    else {
        space.process_mut(proc_ref).map_err(Fault::from)?.status = ProcessStatus::Terminated;
        return Ok(false);
    };
    let pad = space.mint(proc_ref, Rights::NONE);
    port::send(space, None, fault_port, pad, 0, false, true)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{
        CodeBody, CodeRef, DomainState, PortDiscipline, PortState, ShardedSpace, Subprogram,
    };

    fn setup() -> (ShardedSpace, ObjectRef, AccessDescriptor, AccessDescriptor) {
        let mut s = ShardedSpace::new(64 * 1024, 4096, 1024, 1);
        let root = s.root_sro();
        let port = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(16, 16),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(16, 16, PortDiscipline::Priority)),
                },
            )
            .unwrap();
        let dispatch = s.mint(port, Rights::NONE);
        let dom = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: 2,
                    otype: ObjectType::System(SystemType::Domain),
                    level: None,
                    sys: SysState::Domain(DomainState {
                        name: "d".into(),
                        subprograms: vec![Subprogram {
                            name: "main".into(),
                            body: CodeBody::Interpreted(CodeRef(0)),
                            ctx_data_len: 32,
                            ctx_access_len: 8,
                        }],
                    }),
                },
            )
            .unwrap();
        let dom_ad = s.mint(dom, Rights::CALL);
        (s, root, dispatch, dom_ad)
    }

    #[test]
    fn make_process_builds_linkage() {
        let (mut s, root, dispatch, dom_ad) = setup();
        let p = make_process(&mut s, root, dom_ad, 0, None, ProcessSpec::new(dispatch)).unwrap();
        assert!(s.load_ad_hw(p, PROC_SLOT_CONTEXT).unwrap().is_some());
        assert!(s.load_ad_hw(p, PROC_SLOT_DISPATCH_PORT).unwrap().is_some());
        assert_eq!(s.process(p).unwrap().status, ProcessStatus::Ready);
    }

    #[test]
    fn dispatch_binds_ready_process() {
        let (mut s, root, dispatch, dom_ad) = setup();
        let p = make_process(&mut s, root, dom_ad, 0, None, ProcessSpec::new(dispatch)).unwrap();
        port::make_ready(&mut s, p).unwrap();
        let cpu = make_processor(&mut s, root, 0, dispatch).unwrap();
        let got = try_dispatch(&mut s, cpu).unwrap();
        assert_eq!(got, Some(p));
        assert_eq!(s.process(p).unwrap().status, ProcessStatus::Running);
        assert_eq!(s.processor(cpu).unwrap().status, ProcessorStatus::Running);
        assert_eq!(current_process(&mut s, cpu).unwrap(), Some(p));
    }

    #[test]
    fn dispatch_empty_port_returns_none() {
        let (mut s, root, dispatch, _dom_ad) = setup();
        let cpu = make_processor(&mut s, root, 0, dispatch).unwrap();
        assert_eq!(try_dispatch(&mut s, cpu).unwrap(), None);
        assert_eq!(s.processor(cpu).unwrap().status, ProcessorStatus::Idle);
    }

    #[test]
    fn priority_dispatch_prefers_urgent() {
        let (mut s, root, dispatch, dom_ad) = setup();
        let mut spec_lo = ProcessSpec::new(dispatch);
        spec_lo.priority = 200;
        let lo = make_process(&mut s, root, dom_ad, 0, None, spec_lo).unwrap();
        let mut spec_hi = ProcessSpec::new(dispatch);
        spec_hi.priority = 10;
        let hi = make_process(&mut s, root, dom_ad, 0, None, spec_hi).unwrap();
        port::make_ready(&mut s, lo).unwrap();
        port::make_ready(&mut s, hi).unwrap();
        let cpu = make_processor(&mut s, root, 0, dispatch).unwrap();
        assert_eq!(try_dispatch(&mut s, cpu).unwrap(), Some(hi));
    }

    #[test]
    fn stopped_process_is_not_dispatched() {
        let (mut s, root, dispatch, dom_ad) = setup();
        let p = make_process(&mut s, root, dom_ad, 0, None, ProcessSpec::new(dispatch)).unwrap();
        port::make_ready(&mut s, p).unwrap();
        s.process_mut(p).unwrap().stop_count = 1;
        let cpu = make_processor(&mut s, root, 0, dispatch).unwrap();
        assert_eq!(try_dispatch(&mut s, cpu).unwrap(), None);
    }

    #[test]
    fn fault_delivery_without_port_terminates() {
        let (mut s, root, dispatch, dom_ad) = setup();
        let p = make_process(&mut s, root, dom_ad, 0, None, ProcessSpec::new(dispatch)).unwrap();
        assert!(!deliver_fault(&mut s, p).unwrap());
        assert_eq!(s.process(p).unwrap().status, ProcessStatus::Terminated);
    }
}
