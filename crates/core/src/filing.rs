//! Object filing: passivation and activation of object graphs.
//!
//! Paper §9 names object filing as a release-2 feature (detailed in the
//! companion paper the text cites); §7.2 states the guarantee filing must
//! honour: "By the definition of Ada, if a storage system exists before
//! the compilation of a package, then it cannot know of and therefore
//! cannot preserve the type of some object that it is asked to store...
//! No matter what path a system object follows within the 432, its
//! hardware-recognized type identity is guaranteed to be preserved and
//! checked, either by the hardware or by object filing."
//!
//! [`passivate`] walks the graph reachable from one access descriptor and
//! renders it to a [`PassiveStore`] — topology, rights on every edge,
//! data parts, levels, and **type identity by type name**. [`activate`]
//! rebuilds the graph in a (possibly different) object space, resolving
//! type names back to that space's type definition objects, so activated
//! instances are once again amplifiable only by the right manager.
//!
//! Only passive objects file: generic and user-typed segments. Active
//! system objects (processes, ports, contexts...) are rejected — filing a
//! running process was out of scope for iMAX release 2 as well.

use i432_arch::{
    AccessDescriptor, Level, ObjectRef, ObjectSpec, ObjectType, Rights, SpaceMut, SysState,
    SystemType,
};
use i432_gdp::{Fault, FaultKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Filed type identity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PassiveType {
    /// A generic object.
    Generic,
    /// A user-typed object, identified by its type's name.
    User(String),
}

/// One filed object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassiveObject {
    /// Type identity.
    pub otype: PassiveType,
    /// Lifetime level at passivation time.
    pub level: u16,
    /// The data part.
    pub data: Vec<u8>,
    /// The access part: `(slot, target local id, rights bits)` for each
    /// non-null slot, plus the total slot count.
    pub access_len: u32,
    /// Non-null access slots as `(slot, local id, rights)`.
    pub edges: Vec<(u32, u32, u8)>,
}

/// A filed object graph.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PassiveStore {
    /// Objects in discovery order; local ids are indices.
    pub objects: Vec<PassiveObject>,
    /// Local id of the root.
    pub root: u32,
    /// Rights the root descriptor conveyed.
    pub root_rights: u8,
}

impl PassiveStore {
    /// Serializes to a self-contained byte image (simple length-prefixed
    /// binary; no external format crates needed).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"iMAXFILE");
        push_u32(&mut out, 1); // version
        push_u32(&mut out, self.root);
        out.push(self.root_rights);
        push_u32(&mut out, self.objects.len() as u32);
        for o in &self.objects {
            match &o.otype {
                PassiveType::Generic => {
                    out.push(0);
                }
                PassiveType::User(name) => {
                    out.push(1);
                    push_u32(&mut out, name.len() as u32);
                    out.extend_from_slice(name.as_bytes());
                }
            }
            out.extend_from_slice(&o.level.to_le_bytes());
            push_u32(&mut out, o.data.len() as u32);
            out.extend_from_slice(&o.data);
            push_u32(&mut out, o.access_len);
            push_u32(&mut out, o.edges.len() as u32);
            for (slot, target, rights) in &o.edges {
                push_u32(&mut out, *slot);
                push_u32(&mut out, *target);
                out.push(*rights);
            }
        }
        out
    }

    /// Parses a byte image produced by [`PassiveStore::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<PassiveStore, Fault> {
        let mut r = Reader { bytes, at: 0 };
        let magic = r.take(8)?;
        if magic != b"iMAXFILE" {
            return Err(Fault::with_detail(
                FaultKind::TypeMismatch,
                "bad file magic",
            ));
        }
        let version = r.u32()?;
        if version != 1 {
            return Err(Fault::with_detail(
                FaultKind::TypeMismatch,
                format!("unsupported file version {version}"),
            ));
        }
        let root = r.u32()?;
        let root_rights = r.u8()?;
        let count = r.u32()?;
        let mut objects = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let otype = match r.u8()? {
                0 => PassiveType::Generic,
                1 => {
                    let n = r.u32()? as usize;
                    let name = String::from_utf8(r.take(n)?.to_vec()).map_err(|_| {
                        Fault::with_detail(FaultKind::TypeMismatch, "bad type name encoding")
                    })?;
                    PassiveType::User(name)
                }
                t => {
                    return Err(Fault::with_detail(
                        FaultKind::TypeMismatch,
                        format!("bad type tag {t}"),
                    ))
                }
            };
            let level = u16::from_le_bytes([r.u8()?, r.u8()?]);
            let dlen = r.u32()? as usize;
            let data = r.take(dlen)?.to_vec();
            let access_len = r.u32()?;
            let elen = r.u32()?;
            let mut edges = Vec::with_capacity(elen as usize);
            for _ in 0..elen {
                let slot = r.u32()?;
                let target = r.u32()?;
                let rights = r.u8()?;
                edges.push((slot, target, rights));
            }
            objects.push(PassiveObject {
                otype,
                level,
                data,
                access_len,
                edges,
            });
        }
        Ok(PassiveStore {
            objects,
            root,
            root_rights,
        })
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], Fault> {
        if self.at + n > self.bytes.len() {
            return Err(Fault::with_detail(
                FaultKind::Bounds,
                "truncated file image",
            ));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, Fault> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, Fault> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Passivates the graph reachable from `root`.
///
/// Requires read rights on every reachable object (you cannot file what
/// you cannot read). Fails on active system objects.
pub fn passivate<S: SpaceMut + ?Sized>(
    space: &mut S,
    root: AccessDescriptor,
) -> Result<PassiveStore, Fault> {
    let mut ids: HashMap<ObjectRef, u32> = HashMap::new();
    let mut store = PassiveStore {
        root: 0,
        root_rights: root.rights.bits(),
        ..PassiveStore::default()
    };
    let mut queue = vec![root.obj];
    ids.insert(root.obj, 0);
    // Reserve slots so ids equal discovery order.
    while let Some(obj) = queue.pop() {
        let id = ids[&obj] as usize;
        let entry = space.entry(obj).map_err(Fault::from)?;
        let otype = match (&entry.sys, entry.desc.otype) {
            (SysState::Generic, ObjectType::System(SystemType::Generic)) => PassiveType::Generic,
            (SysState::Generic, ObjectType::User(tdo)) => {
                let name = space.tdo(tdo).map_err(|_| {
                    Fault::with_detail(
                        FaultKind::TypeMismatch,
                        "user-typed object whose TDO is gone cannot be filed",
                    )
                })?;
                PassiveType::User(name.name.clone())
            }
            _ => {
                return Err(Fault::with_detail(
                    FaultKind::TypeMismatch,
                    format!(
                        "active system object ({}) cannot be filed",
                        entry.desc.otype
                    ),
                ))
            }
        };
        let entry = space.entry(obj).map_err(Fault::from)?;
        let level = entry.desc.level.0;
        let access_len = entry.desc.access_len;
        let data_len = entry.desc.data_len;
        let mut data = vec![0u8; data_len as usize];
        let read_ad = space.mint(obj, Rights::READ);
        if data_len > 0 {
            space
                .read_data(read_ad, 0, &mut data)
                .map_err(Fault::from)?;
        }
        let mut edges = Vec::new();
        for slot in 0..access_len {
            if let Some(ad) = space.load_ad_hw(obj, slot).map_err(Fault::from)? {
                let next_id = ids.len() as u32;
                let target_id = *ids.entry(ad.obj).or_insert_with(|| {
                    queue.push(ad.obj);
                    next_id
                });
                edges.push((slot, target_id, ad.rights.bits()));
            }
        }
        if store.objects.len() <= id {
            store.objects.resize_with(ids.len(), || PassiveObject {
                otype: PassiveType::Generic,
                level: 0,
                data: Vec::new(),
                access_len: 0,
                edges: Vec::new(),
            });
        }
        store.objects[id] = PassiveObject {
            otype,
            level,
            data,
            access_len,
            edges,
        };
    }
    // Ensure the vector covers every discovered id (late discoveries).
    store.objects.resize_with(ids.len(), || PassiveObject {
        otype: PassiveType::Generic,
        level: 0,
        data: Vec::new(),
        access_len: 0,
        edges: Vec::new(),
    });
    Ok(store)
}

/// Activates a filed graph into `space`, allocating from `sro`.
///
/// `resolve_type` maps filed type names to this space's type definition
/// objects; activation fails if a name cannot be resolved — type
/// identity is *preserved and checked*, never silently dropped (paper
/// §7.2). Returns an access descriptor for the new root carrying the
/// filed rights.
pub fn activate<S: SpaceMut + ?Sized>(
    space: &mut S,
    sro: ObjectRef,
    store: &PassiveStore,
    mut resolve_type: impl FnMut(&str) -> Option<ObjectRef>,
) -> Result<AccessDescriptor, Fault> {
    // Pass 1: create all objects.
    let mut refs = Vec::with_capacity(store.objects.len());
    for po in &store.objects {
        let otype = match &po.otype {
            PassiveType::Generic => ObjectType::GENERIC,
            PassiveType::User(name) => {
                let tdo = resolve_type(name).ok_or_else(|| {
                    Fault::with_detail(
                        FaultKind::TypeMismatch,
                        format!("no type manager for filed type '{name}'"),
                    )
                })?;
                space
                    .expect_type(space.mint(tdo, Rights::NONE), SystemType::TypeDefinition)
                    .map_err(Fault::from)?;
                ObjectType::User(tdo)
            }
        };
        let obj = space
            .create_object(
                sro,
                ObjectSpec {
                    data_len: po.data.len() as u32,
                    access_len: po.access_len,
                    otype,
                    level: Some(Level(po.level)),
                    sys: SysState::Generic,
                },
            )
            .map_err(Fault::from)?;
        if !po.data.is_empty() {
            let w = space.mint(obj, Rights::WRITE);
            space.write_data(w, 0, &po.data).map_err(Fault::from)?;
        }
        refs.push(obj);
    }
    // Pass 2: rebuild edges with their filed rights.
    for (id, po) in store.objects.iter().enumerate() {
        for (slot, target, rights) in &po.edges {
            let ad = AccessDescriptor::new(refs[*target as usize], Rights::from_bits(*rights));
            space
                .store_ad_hw(refs[id], *slot, Some(ad))
                .map_err(Fault::from)?;
        }
    }
    Ok(AccessDescriptor::new(
        refs[store.root as usize],
        Rights::from_bits(store.root_rights),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::ShardedSpace;
    use imax_typemgr::TypeManager;

    fn space() -> ShardedSpace {
        ShardedSpace::new(128 * 1024, 8 * 1024, 1024, 1)
    }

    #[test]
    fn roundtrip_preserves_topology_and_data() {
        let mut s = space();
        let root_sro = s.root_sro();
        // root -> {a, b}; a -> b (shared target).
        let root = s
            .create_object(root_sro, ObjectSpec::generic(8, 2))
            .unwrap();
        let a = s
            .create_object(root_sro, ObjectSpec::generic(8, 1))
            .unwrap();
        let b = s
            .create_object(root_sro, ObjectSpec::generic(8, 0))
            .unwrap();
        let (root_ad, a_ad, b_ad) = (
            s.mint(root, Rights::READ | Rights::WRITE),
            s.mint(a, Rights::READ | Rights::WRITE),
            s.mint(b, Rights::READ),
        );
        s.write_u64(root_ad, 0, 111).unwrap();
        s.write_u64(a_ad, 0, 222).unwrap();
        s.store_ad(root_ad, 0, Some(a_ad)).unwrap();
        s.store_ad(root_ad, 1, Some(b_ad)).unwrap();
        s.store_ad(a_ad, 0, Some(b_ad)).unwrap();

        let filed = passivate(&mut s, root_ad).unwrap();
        let bytes = filed.to_bytes();
        let parsed = PassiveStore::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, filed);

        // Activate into a fresh space.
        let mut s2 = space();
        let sro2 = s2.root_sro();
        let new_root = activate(&mut s2, sro2, &parsed, |_| None).unwrap();
        assert_eq!(s2.read_u64(new_root, 0).unwrap(), 111);
        let new_a = s2.load_ad(new_root, 0).unwrap().unwrap();
        let new_b_via_root = s2.load_ad(new_root, 1).unwrap().unwrap();
        let new_b_via_a = s2.load_ad(new_a, 0).unwrap().unwrap();
        assert_eq!(
            new_b_via_root.obj, new_b_via_a.obj,
            "shared targets stay shared"
        );
        assert_eq!(s2.read_u64(new_a, 0).unwrap(), 222);
        // Rights survived: b was filed read-only.
        assert!(!new_b_via_root.allows(Rights::WRITE));
    }

    #[test]
    fn type_identity_preserved_and_checked() {
        let mut s = space();
        let root_sro = s.root_sro();
        let mgr = TypeManager::new(&mut s, root_sro, "parcel").unwrap();
        let sealed = mgr.create_instance(&mut s, root_sro, 16, 0).unwrap();
        let full = mgr.amplify(&mut s, sealed).unwrap();
        s.write_u64(full, 0, 77).unwrap();

        let filed = passivate(&mut s, full).unwrap();
        assert!(matches!(&filed.objects[0].otype, PassiveType::User(n) if n == "parcel"));

        // Activation in a space with a matching manager.
        let mut s2 = space();
        let sro2 = s2.root_sro();
        let mgr2 = TypeManager::new(&mut s2, sro2, "parcel").unwrap();
        let revived = activate(&mut s2, sro2, &filed, |name| {
            (name == "parcel").then_some(mgr2.tdo())
        })
        .unwrap();
        // The revived object is a real instance: amplifiable by its
        // manager, rejected by others.
        assert!(mgr2
            .amplify(&mut s2, revived.restricted(Rights::NONE))
            .is_ok());
        let other = TypeManager::new(&mut s2, sro2, "other").unwrap();
        assert!(other
            .amplify(&mut s2, revived.restricted(Rights::NONE))
            .is_err());

        // Activation *without* the manager fails — identity is never
        // silently dropped.
        let mut s3 = space();
        let sro3 = s3.root_sro();
        assert!(activate(&mut s3, sro3, &filed, |_| None).is_err());
    }

    #[test]
    fn active_system_objects_refuse_to_file() {
        let mut s = space();
        let root_sro = s.root_sro();
        let port =
            imax_ipc::create_port(&mut s, root_sro, 4, i432_arch::PortDiscipline::Fifo).unwrap();
        assert!(passivate(&mut s, port.ad()).is_err());
    }

    #[test]
    fn corrupt_images_are_rejected() {
        assert!(PassiveStore::from_bytes(b"not a file").is_err());
        let mut s = space();
        let root_sro = s.root_sro();
        let o = s
            .create_object(root_sro, ObjectSpec::generic(8, 0))
            .unwrap();
        let o_ad = s.mint(o, Rights::READ);
        let filed = passivate(&mut s, o_ad).unwrap();
        let mut bytes = filed.to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(PassiveStore::from_bytes(&bytes).is_err());
    }
}
