//! The type-manager pattern: seal on the way out, amplify on the way
//! back in.
//!
//! Paper §7.1: "the object orientation of the system implies that at any
//! given time, a package will generally have access to only a single
//! instance of the type that it manages. For example, there is no central
//! table of all processes in the system. Rather, the manager acquires an
//! access for a given process object, either from the hardware
//! dispatching mechanism or from a user, whenever it is asked to perform
//! an operation upon it."
//!
//! [`TypeManager`] deliberately keeps **no instance table** — it holds
//! only the TDO. Every operation takes the client's descriptor for one
//! instance and amplifies it; damage from a bug is limited to that one
//! object.

use crate::tdo::create_tdo;
use i432_arch::{
    AccessDescriptor, ObjectRef, ObjectSpec, ObjectType, Rights, SpaceAccess, SpaceAccessExt,
    SpaceMut, SysState,
};
use i432_gdp::{Fault, FaultKind};

/// A type manager: the owner of one user-defined type.
#[derive(Debug, Clone, Copy)]
pub struct TypeManager {
    tdo: AccessDescriptor,
    /// Rights clients receive on freshly created instances. Defaults to
    /// none at all: a sealed handle is pure identity, usable only by
    /// handing it back to the manager.
    pub client_rights: Rights,
}

impl TypeManager {
    /// Creates a new type and its manager.
    pub fn new<S: SpaceAccess + ?Sized>(
        space: &mut S,
        sro: ObjectRef,
        name: &str,
    ) -> Result<TypeManager, Fault> {
        Ok(TypeManager {
            tdo: create_tdo(space, sro, name)?,
            client_rights: Rights::NONE,
        })
    }

    /// Wraps an existing TDO descriptor (must carry create + amplify
    /// rights for the manager to function fully).
    pub fn from_tdo(tdo: AccessDescriptor) -> TypeManager {
        TypeManager {
            tdo,
            client_rights: Rights::NONE,
        }
    }

    /// The type definition object.
    pub fn tdo(&self) -> ObjectRef {
        self.tdo.obj
    }

    /// The TDO descriptor (for binding filters etc.).
    pub fn tdo_ad(&self) -> AccessDescriptor {
        self.tdo
    }

    /// Creates an instance, returning a *sealed* descriptor carrying only
    /// [`TypeManager::client_rights`].
    pub fn create_instance<S: SpaceAccess + ?Sized>(
        &self,
        space: &mut S,
        sro: ObjectRef,
        data_len: u32,
        access_len: u32,
    ) -> Result<AccessDescriptor, Fault> {
        space
            .qualify(self.tdo, Rights::CREATE_INSTANCE)
            .map_err(Fault::from)?;
        let obj = space
            .create_object(
                sro,
                ObjectSpec {
                    data_len,
                    access_len,
                    otype: ObjectType::User(self.tdo.obj),
                    level: None,
                    sys: SysState::Generic,
                },
            )
            .map_err(Fault::from)?;
        space
            .with_tdo_mut(self.tdo.obj, |t| t.instances_created += 1)
            .map_err(Fault::from)?;
        Ok(space.mint(obj, self.client_rights))
    }

    /// Amplifies a client's sealed descriptor back to full rights,
    /// verifying the hardware type identity. This is the 432's AMPLIFY
    /// operation: possible only while holding the TDO with amplify
    /// rights.
    pub fn amplify<S: SpaceAccess + ?Sized>(
        &self,
        space: &mut S,
        sealed: AccessDescriptor,
    ) -> Result<AccessDescriptor, Fault> {
        space
            .qualify(self.tdo, Rights::AMPLIFY)
            .map_err(Fault::from)?;
        let otype = space.otype_of(sealed.obj).map_err(Fault::from)?;
        if otype.user_tdo() != Some(self.tdo.obj) {
            return Err(Fault::with_detail(
                FaultKind::TypeMismatch,
                "amplify: not an instance of this manager's type",
            ));
        }
        Ok(AccessDescriptor::new(
            sealed.obj,
            sealed
                .rights
                .union(Rights::READ | Rights::WRITE | Rights::DELETE),
        ))
    }

    /// Destroys an instance handed back by a client (amplify + reclaim).
    /// Returns its storage to its SRO.
    pub fn destroy_instance<S: SpaceAccess + ?Sized>(
        &self,
        space: &mut S,
        sealed: AccessDescriptor,
    ) -> Result<(), Fault> {
        let full = self.amplify(space, sealed)?;
        space.destroy_object(full.obj).map_err(Fault::from)?;
        space
            .with_tdo_mut(self.tdo.obj, |t| t.instances_reclaimed += 1)
            .map_err(Fault::from)?;
        Ok(())
    }

    /// True when `ad` designates an instance of this manager's type.
    pub fn is_instance<S: SpaceMut + ?Sized>(&self, space: &S, ad: AccessDescriptor) -> bool {
        space
            .entry(ad.obj)
            .map(|e| e.desc.otype.user_tdo() == Some(self.tdo.obj))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::ShardedSpace;

    fn setup() -> (ShardedSpace, TypeManager) {
        let mut s = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let root = s.root_sro();
        let m = TypeManager::new(&mut s, root, "mailbox").unwrap();
        (s, m)
    }

    #[test]
    fn sealed_handles_convey_nothing() {
        let (mut s, m) = setup();
        let root = s.root_sro();
        let h = m.create_instance(&mut s, root, 32, 0).unwrap();
        assert_eq!(h.rights, Rights::NONE);
        // The client cannot touch the representation.
        assert!(s.read_u64(h, 0).is_err());
        assert!(s.write_u64(h, 0, 1).is_err());
    }

    #[test]
    fn manager_amplifies_and_operates() {
        let (mut s, m) = setup();
        let root = s.root_sro();
        let sealed = m.create_instance(&mut s, root, 32, 0).unwrap();
        let full = m.amplify(&mut s, sealed).unwrap();
        s.write_u64(full, 0, 77).unwrap();
        assert_eq!(s.read_u64(full, 0).unwrap(), 77);
    }

    #[test]
    fn amplify_rejects_foreign_objects() {
        let (mut s, m) = setup();
        let root = s.root_sro();
        let other = TypeManager::new(&mut s, root, "other").unwrap();
        let foreign = other.create_instance(&mut s, root, 8, 0).unwrap();
        assert!(m.amplify(&mut s, foreign).is_err());
        let generic = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let generic_ad = s.mint(generic, Rights::NONE);
        assert!(m.amplify(&mut s, generic_ad).is_err());
    }

    #[test]
    fn amplify_requires_amplify_rights_on_tdo() {
        let (mut s, m) = setup();
        let root = s.root_sro();
        let sealed = m.create_instance(&mut s, root, 8, 0).unwrap();
        // A manager clone whose TDO descriptor lost amplify rights.
        let weak = TypeManager::from_tdo(m.tdo_ad().restricted(Rights::READ));
        assert!(weak.amplify(&mut s, sealed).is_err());
    }

    #[test]
    fn lifecycle_counts() {
        let (mut s, m) = setup();
        let root = s.root_sro();
        let a = m.create_instance(&mut s, root, 8, 0).unwrap();
        let _b = m.create_instance(&mut s, root, 8, 0).unwrap();
        m.destroy_instance(&mut s, a).unwrap();
        let t = s.tdo(m.tdo()).unwrap();
        assert_eq!(t.instances_created, 2);
        assert_eq!(t.instances_reclaimed, 1);
    }

    #[test]
    fn client_rights_policy() {
        let (mut s, mut m) = setup();
        m.client_rights = Rights::READ;
        let root = s.root_sro();
        let h = m.create_instance(&mut s, root, 16, 0).unwrap();
        assert!(s.read_u64(h, 0).is_ok());
        assert!(s.write_u64(h, 0, 1).is_err());
    }

    #[test]
    fn is_instance_discriminates() {
        let (mut s, m) = setup();
        let root = s.root_sro();
        let h = m.create_instance(&mut s, root, 8, 0).unwrap();
        assert!(m.is_instance(&s, h));
        let generic = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        assert!(!m.is_instance(&s, s.mint(generic, Rights::NONE)));
    }
}
