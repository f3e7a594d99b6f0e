//! Destruction filters (paper §8.2).
//!
//! "A general solution would permit a type manager to guarantee that an
//! object is properly disassembled when it becomes garbage. iMAX provides
//! the notion of a destruction filter for exactly this purpose. ... The
//! garbage collector will manufacture an access descriptor for such
//! objects and send them to a port defined by the type manager."

use i432_arch::{AccessDescriptor, ObjectRef, Rights, SpaceMut};
use i432_gdp::{
    port::{self, RecvOutcome, SendOutcome},
    Fault,
};
use imax_typemgr::filter_port_of;

/// The filter port for a user type, if one is bound.
pub fn filter_port_for<S: SpaceMut + ?Sized>(
    space: &mut S,
    tdo: ObjectRef,
) -> Result<Option<AccessDescriptor>, Fault> {
    if space.entry(tdo).is_err() {
        // The type definition itself is garbage; no one is left to
        // finalize instances.
        return Ok(None);
    }
    filter_port_of(space, tdo)
}

/// Manufactures a full-rights access descriptor for the garbage object
/// and sends it to the filter port (carrier send: the collector is
/// trusted microcode-level machinery). Returns `false` when the port
/// could not take the message.
pub fn deliver<S: SpaceMut + ?Sized>(
    space: &mut S,
    port_ad: AccessDescriptor,
    garbage: ObjectRef,
) -> Result<bool, Fault> {
    if space.entry(port_ad.obj).is_err() {
        return Ok(false);
    }
    // "The garbage collector will manufacture an access descriptor":
    // full rights — the type manager gets its representation back.
    let ad = space.mint(garbage, Rights::ALL);
    match port::send(space, None, port_ad, ad, 0, false, true) {
        Ok(SendOutcome::Queued | SendOutcome::Delivered) => Ok(true),
        Ok(SendOutcome::WouldBlock | SendOutcome::Blocked) => Ok(false),
        Err(_) => Ok(false),
    }
}

/// Drains a filter port on behalf of a type manager, returning the
/// recovered objects (host-level convenience used by managers and
/// tests).
pub fn drain_filter_port<S: SpaceMut + ?Sized>(
    space: &mut S,
    port_ad: AccessDescriptor,
) -> Result<Vec<AccessDescriptor>, Fault> {
    let mut out = Vec::new();
    loop {
        match port::receive(space, None, port_ad, false, true)? {
            RecvOutcome::Received(ad) => out.push(ad),
            RecvOutcome::WouldBlock => return Ok(out),
            RecvOutcome::Blocked => unreachable!("non-blocking receive"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use i432_arch::{
        ObjectSpec, ObjectType, PortDiscipline, ProcessorState, ShardedSpace, SysState, SystemType,
    };
    use imax_ipc::create_port;
    use imax_typemgr::{bind_destruction_filter, TypeManager};

    fn space_with_cpu() -> ShardedSpace {
        let mut s = ShardedSpace::new(64 * 1024, 4096, 1024, 1);
        let root = s.root_sro();
        s.create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: i432_arch::sysobj::CPU_ACCESS_SLOTS,
                otype: ObjectType::System(SystemType::Processor),
                level: None,
                sys: SysState::Processor(ProcessorState::new(0)),
            },
        )
        .unwrap();
        s
    }

    #[test]
    fn garbage_filtered_instance_is_delivered_not_reclaimed() {
        let mut s = space_with_cpu();
        let root = s.root_sro();
        let mgr = TypeManager::new(&mut s, root, "tape_drive").unwrap();
        let fport = create_port(&mut s, root, 8, PortDiscipline::Fifo).unwrap();
        bind_destruction_filter(&mut s, mgr.tdo_ad(), fport.ad()).unwrap();

        // The manager keeps its TDO and port reachable (extra roots model
        // the manager's own domain).
        let mut gc = Collector::new();
        gc.config.extra_roots = vec![mgr.tdo(), fport.object()];

        // A client creates an instance and loses it.
        let _lost = mgr.create_instance(&mut s, root, 32, 0).unwrap();

        gc.collect_full(&mut s).unwrap();
        assert_eq!(gc.stats.finalized, 1);
        let recovered = drain_filter_port(&mut s, fport.ad()).unwrap();
        assert_eq!(recovered.len(), 1, "the lost drive came back");
        // The manager has full access to the recovered representation.
        assert!(s.write_u64(recovered[0], 0, 1).is_ok());
    }

    #[test]
    fn dropped_after_recovery_is_reclaimed_without_renotification() {
        let mut s = space_with_cpu();
        let root = s.root_sro();
        let mgr = TypeManager::new(&mut s, root, "t").unwrap();
        let fport = create_port(&mut s, root, 8, PortDiscipline::Fifo).unwrap();
        bind_destruction_filter(&mut s, mgr.tdo_ad(), fport.ad()).unwrap();
        let mut gc = Collector::new();
        gc.config.extra_roots = vec![mgr.tdo(), fport.object()];

        let lost = mgr.create_instance(&mut s, root, 8, 0).unwrap();
        gc.collect_full(&mut s).unwrap();
        assert_eq!(gc.stats.finalized, 1);
        // The manager drains the port and decides the object really is
        // done for: it just drops it.
        let recovered = drain_filter_port(&mut s, fport.ad()).unwrap();
        assert_eq!(recovered.len(), 1);
        // Delivery itself shaded the object gray (every AD move runs the
        // barrier), so one cycle whitens it and the next reclaims it.
        gc.collect_full(&mut s).unwrap();
        gc.collect_full(&mut s).unwrap();
        assert!(s.entry(lost.obj).is_err(), "reclaimed after recovery");
        assert_eq!(gc.stats.finalized, 1, "no second notification");
    }

    #[test]
    fn unfiltered_types_reclaim_directly() {
        let mut s = space_with_cpu();
        let root = s.root_sro();
        let mgr = TypeManager::new(&mut s, root, "plain").unwrap();
        let mut gc = Collector::new();
        gc.config.extra_roots = vec![mgr.tdo()];
        let lost = mgr.create_instance(&mut s, root, 8, 0).unwrap();
        gc.collect_full(&mut s).unwrap();
        assert!(s.entry(lost.obj).is_err());
        assert_eq!(gc.stats.finalized, 0);
        assert_eq!(s.tdo(mgr.tdo()).unwrap().instances_reclaimed, 1);
    }

    #[test]
    fn lost_process_recovery() {
        // Paper §9: release 1 uses destruction filters only to recover
        // lost process objects.
        use i432_arch::{Level, ProcessState};
        let mut s = space_with_cpu();
        let root = s.root_sro();
        let fport = create_port(&mut s, root, 8, PortDiscipline::Fifo).unwrap();
        let mut gc = Collector::new();
        gc.config.extra_roots = vec![fport.object()];
        gc.config.process_filter_port = Some(fport.ad());

        // A process object nobody references (its creator lost it).
        let lost = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::PROC_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::Process),
                    level: None,
                    sys: SysState::Process(ProcessState::new(Level(0))),
                },
            )
            .unwrap();
        gc.collect_full(&mut s).unwrap();
        assert!(s.entry(lost).is_ok(), "process recovered, not reclaimed");
        let recovered = drain_filter_port(&mut s, fport.ad()).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].obj, lost);
    }
}
