//! Packages as types: dynamic package creation.
//!
//! Paper §6.3: "The major extension is the raising of packages to the
//! status of types. This allows multiple instances of a module to be
//! dynamically created and multiple implementations of a single package
//! specification to coexist within a single system."
//!
//! A [`PackagePrototype`] is the "package type": a subprogram table (the
//! specification's operations, with this prototype's implementation
//! bodies) plus a description of per-instance state. Instantiating it
//! mints a fresh *domain object* sharing the code but owning its own
//! state objects — e.g. one device-interface instance per physical device
//! (see `imax-io`).

use i432_arch::{
    AccessDescriptor, DomainState, ObjectRef, ObjectSpec, ObjectType, Rights, SpaceAccess,
    Subprogram, SysState, SystemType,
};
use i432_gdp::Fault;

/// A dynamically instantiable package.
#[derive(Debug, Clone)]
pub struct PackagePrototype {
    /// Package name; instances are named `name[k]`.
    pub name: String,
    /// The specification's operations with this implementation's bodies.
    /// By convention the *device-independent* (or otherwise
    /// specification-mandated) operations come first; implementation-
    /// specific extensions follow (paper §6.3's subset rule).
    pub subprograms: Vec<Subprogram>,
    /// Access-part slots each instance's domain gets for its own state
    /// objects.
    pub state_slots: u32,
    instances: u32,
}

impl PackagePrototype {
    /// A prototype with the given operations.
    pub fn new(
        name: impl Into<String>,
        subprograms: Vec<Subprogram>,
        state_slots: u32,
    ) -> PackagePrototype {
        PackagePrototype {
            name: name.into(),
            subprograms,
            state_slots,
            instances: 0,
        }
    }

    /// Number of instances created from this prototype.
    pub fn instance_count(&self) -> u32 {
        self.instances
    }

    /// Creates a new package instance: a fresh domain object sharing the
    /// prototype's subprograms, with its own (empty) state slots. Returns
    /// a call-rights descriptor — exactly what clients of any package
    /// hold.
    pub fn instantiate<S: SpaceAccess + ?Sized>(
        &mut self,
        space: &mut S,
        sro: ObjectRef,
    ) -> Result<AccessDescriptor, Fault> {
        let k = self.instances;
        let dom = space
            .create_object(
                sro,
                ObjectSpec {
                    data_len: 0,
                    access_len: self.state_slots,
                    otype: ObjectType::System(SystemType::Domain),
                    level: None,
                    sys: SysState::Domain(DomainState {
                        name: format!("{}[{}]", self.name, k),
                        subprograms: self.subprograms.clone(),
                    }),
                },
            )
            .map_err(Fault::from)?;
        self.instances += 1;
        Ok(space.mint(dom, Rights::CALL))
    }

    /// Creates an instance and stores per-instance state objects into its
    /// domain slots (the "package body" variables).
    pub fn instantiate_with_state<S: SpaceAccess + ?Sized>(
        &mut self,
        space: &mut S,
        sro: ObjectRef,
        state: &[AccessDescriptor],
    ) -> Result<AccessDescriptor, Fault> {
        let dom = self.instantiate(space, sro)?;
        for (i, ad) in state.iter().enumerate() {
            space
                .store_ad_hw(dom.obj, i as u32, Some(*ad))
                .map_err(Fault::from)?;
        }
        Ok(dom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{CodeBody, CodeRef, ShardedSpace};

    fn proto() -> PackagePrototype {
        PackagePrototype::new(
            "device",
            vec![Subprogram {
                name: "read".into(),
                body: CodeBody::Interpreted(CodeRef(0)),
                ctx_data_len: 32,
                ctx_access_len: 8,
            }],
            4,
        )
    }

    #[test]
    fn instances_are_distinct_domains() {
        let mut s = ShardedSpace::new(32 * 1024, 4096, 256, 1);
        let root = s.root_sro();
        let mut p = proto();
        let a = p.instantiate(&mut s, root).unwrap();
        let b = p.instantiate(&mut s, root).unwrap();
        assert_ne!(a.obj, b.obj);
        assert_eq!(p.instance_count(), 2);
        // Both are callable domains with the same operations.
        for d in [a, b] {
            let SysState::Domain(ds) = &s.entry(d.obj).unwrap().sys else {
                panic!("not a domain");
            };
            assert_eq!(ds.subprograms.len(), 1);
        }
        // Names distinguish instances.
        let SysState::Domain(da) = &s.entry(a.obj).unwrap().sys else {
            unreachable!()
        };
        assert_eq!(da.name, "device[0]");
    }

    #[test]
    fn per_instance_state_is_private() {
        let mut s = ShardedSpace::new(32 * 1024, 4096, 256, 1);
        let root = s.root_sro();
        let mut p = proto();
        let state_a = s.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
        let state_a_ad = s.mint(state_a, Rights::READ | Rights::WRITE);
        let a = p
            .instantiate_with_state(&mut s, root, &[state_a_ad])
            .unwrap();
        let b = p.instantiate(&mut s, root).unwrap();
        // Instance a's slot 0 holds its state; instance b's is null.
        assert!(s.load_ad_hw(a.obj, 0).unwrap().is_some());
        assert!(s.load_ad_hw(b.obj, 0).unwrap().is_none());
    }

    #[test]
    fn clients_hold_call_rights_only() {
        let mut s = ShardedSpace::new(32 * 1024, 4096, 256, 1);
        let root = s.root_sro();
        let mut p = proto();
        let d = p.instantiate(&mut s, root).unwrap();
        assert_eq!(d.rights, Rights::CALL);
        // Clients cannot read the domain's owned state directly.
        assert!(s.load_ad(d, 0).is_err());
    }
}
