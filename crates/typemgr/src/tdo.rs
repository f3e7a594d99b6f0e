//! Type definition objects.

use i432_arch::{
    sysobj::TDO_SLOT_FILTER_PORT, AccessDescriptor, ObjectRef, ObjectSpec, ObjectType, Rights,
    SpaceAccess, SpaceAccessExt, SysState, SystemType, TdoState,
};
use i432_gdp::{Fault, FaultKind};

/// Creates a type definition object for a new user type.
///
/// The returned access descriptor carries the full type-manager rights:
/// create-instance, amplify, read, write. The manager hands restricted
/// copies (or none at all) to everyone else.
pub fn create_tdo<S: SpaceAccess + ?Sized>(
    space: &mut S,
    sro: ObjectRef,
    name: &str,
) -> Result<AccessDescriptor, Fault> {
    let tdo = space
        .create_object(
            sro,
            ObjectSpec {
                data_len: 0,
                access_len: i432_arch::sysobj::TDO_ACCESS_SLOTS,
                otype: ObjectType::System(SystemType::TypeDefinition),
                level: None,
                sys: SysState::TypeDef(TdoState::new(name)),
            },
        )
        .map_err(Fault::from)?;
    Ok(space.mint(
        tdo,
        Rights::READ | Rights::WRITE | Rights::CREATE_INSTANCE | Rights::AMPLIFY,
    ))
}

/// Binds a destruction-filter port to a type (paper §8.2).
///
/// "A type manager can specify to the system via a type definition object
/// that it wishes to have an opportunity to see any of its objects as
/// they become garbage. The garbage collector will manufacture an access
/// descriptor for such objects and send them to a port defined by the
/// type manager." Requires write rights on the TDO.
pub fn bind_destruction_filter<S: SpaceAccess + ?Sized>(
    space: &mut S,
    tdo: AccessDescriptor,
    filter_port: AccessDescriptor,
) -> Result<(), Fault> {
    space.qualify(tdo, Rights::WRITE).map_err(Fault::from)?;
    space
        .expect_type(tdo, SystemType::TypeDefinition)
        .map_err(Fault::from)?;
    space
        .expect_type(filter_port, SystemType::Port)
        .map_err(Fault::from)?;
    space
        .store_ad_hw(tdo.obj, TDO_SLOT_FILTER_PORT, Some(filter_port))
        .map_err(Fault::from)?;
    space
        .with_tdo_mut(tdo.obj, |t| t.filter_enabled = true)
        .map_err(Fault::from)?;
    Ok(())
}

/// The destruction-filter port bound to a type, if any (collector use).
pub fn filter_port_of<S: SpaceAccess + ?Sized>(
    space: &mut S,
    tdo: ObjectRef,
) -> Result<Option<AccessDescriptor>, Fault> {
    let enabled = space
        .entry_view(tdo, |e| match &e.sys {
            SysState::TypeDef(t) => Ok(t.filter_enabled),
            _ => Err(Fault::with_detail(
                FaultKind::TypeMismatch,
                "not a type definition object",
            )),
        })
        .map_err(Fault::from)??;
    if !enabled {
        return Ok(None);
    }
    space
        .load_ad_hw(tdo, TDO_SLOT_FILTER_PORT)
        .map_err(Fault::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{PortDiscipline, ShardedSpace};
    use imax_ipc::create_port;

    #[test]
    fn create_and_inspect() {
        let mut s = ShardedSpace::new(32 * 1024, 4096, 256, 1);
        let root = s.root_sro();
        let tdo = create_tdo(&mut s, root, "tape_drive").unwrap();
        assert_eq!(s.tdo(tdo.obj).unwrap().name, "tape_drive");
        assert!(!s.tdo(tdo.obj).unwrap().filter_enabled);
        assert_eq!(filter_port_of(&mut s, tdo.obj).unwrap(), None);
    }

    #[test]
    fn bind_filter() {
        let mut s = ShardedSpace::new(32 * 1024, 4096, 256, 1);
        let root = s.root_sro();
        let tdo = create_tdo(&mut s, root, "tape_drive").unwrap();
        let port = create_port(&mut s, root, 8, PortDiscipline::Fifo).unwrap();
        bind_destruction_filter(&mut s, tdo, port.ad()).unwrap();
        assert!(s.tdo(tdo.obj).unwrap().filter_enabled);
        assert_eq!(filter_port_of(&mut s, tdo.obj).unwrap(), Some(port.ad()));
    }

    #[test]
    fn bind_requires_write_rights() {
        let mut s = ShardedSpace::new(32 * 1024, 4096, 256, 1);
        let root = s.root_sro();
        let tdo = create_tdo(&mut s, root, "t").unwrap();
        let port = create_port(&mut s, root, 2, PortDiscipline::Fifo).unwrap();
        let weak = tdo.restricted(Rights::READ);
        assert!(bind_destruction_filter(&mut s, weak, port.ad()).is_err());
    }

    #[test]
    fn bind_rejects_non_port() {
        let mut s = ShardedSpace::new(32 * 1024, 4096, 256, 1);
        let root = s.root_sro();
        let tdo = create_tdo(&mut s, root, "t").unwrap();
        let not_port = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let bad = s.mint(not_port, Rights::ALL);
        assert!(bind_destruction_filter(&mut s, tdo, bad).is_err());
    }
}
