//! SRO creation: carving child storage resources out of a parent.
//!
//! Paper §5: "iMAX uses these hardware facilities to provide a uniform
//! tree structure encompassing both processes and storage resource
//! objects." A child SRO receives a *donation* of space from its parent's
//! free lists; destroying the child (and its objects) returns the whole
//! donation.

use crate::iface::StorageError;
use i432_arch::{
    Level, ObjectRef, ObjectSpec, ObjectType, SpaceMut, SroState, SysState, SystemType,
};

/// How much space a new SRO is given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SroQuota {
    /// Data-arena bytes donated.
    pub data_bytes: u32,
    /// Access-arena slots donated.
    pub access_slots: u32,
}

impl SroQuota {
    /// A quota sized for `n` typical small objects.
    pub fn for_objects(n: u32) -> SroQuota {
        SroQuota {
            data_bytes: n * 128,
            access_slots: n * 8,
        }
    }
}

/// Creates a child SRO of `parent` at `level`, donating `quota` from the
/// parent's free space.
///
/// The donation is taken as single contiguous runs from the parent (the
/// simplest policy, and what keeps bulk restitution exact). Fails with
/// the parent's exhaustion error when it cannot supply the quota.
pub fn create_sro<S: SpaceMut + ?Sized>(
    space: &mut S,
    parent: ObjectRef,
    level: Level,
    quota: SroQuota,
) -> Result<ObjectRef, StorageError> {
    // Carve the donation out of the parent.
    let (data_base, access_base) = {
        let pstate = space.sro_mut(parent)?;
        let data_base = pstate.data_free.allocate(quota.data_bytes)?;
        let access_base = match pstate.access_free.allocate(quota.access_slots) {
            Ok(b) => b,
            Err(e) => {
                pstate
                    .data_free
                    .release(data_base, quota.data_bytes)
                    .expect("rollback of fresh allocation");
                return Err(e.into());
            }
        };
        (data_base, access_base)
    };
    let mut state = SroState::new(level);
    state.parent = Some(parent);
    state
        .data_free
        .donate(data_base, quota.data_bytes)
        .expect("fresh free list");
    state
        .access_free
        .donate(access_base, quota.access_slots)
        .expect("fresh free list");
    let sro = space.create_object(
        parent,
        ObjectSpec {
            data_len: 0,
            access_len: 0,
            otype: ObjectType::System(SystemType::StorageResource),
            level: None, // The SRO object itself lives at the parent's level.
            sys: SysState::Sro(state),
        },
    );
    match sro {
        Ok(r) => Ok(r),
        Err(e) => {
            // Return the donation.
            let pstate = space.sro_mut(parent)?;
            pstate
                .data_free
                .release(data_base, quota.data_bytes)
                .expect("rollback");
            pstate
                .access_free
                .release(access_base, quota.access_slots)
                .expect("rollback");
            Err(e.into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{Rights, ShardedSpace};

    #[test]
    fn child_sro_allocates_from_donation() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 256, 1);
        let root = space.root_sro();
        let child = create_sro(
            &mut space,
            root,
            Level(2),
            SroQuota {
                data_bytes: 1024,
                access_slots: 64,
            },
        )
        .unwrap();
        let obj = space
            .create_object(child, ObjectSpec::generic(128, 4))
            .unwrap();
        // The object carries the SRO's fixed level.
        assert_eq!(space.entry(obj).unwrap().desc.level, Level(2));
        assert_eq!(space.sro(child).unwrap().object_count, 1);
    }

    #[test]
    fn donation_is_bounded() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 256, 1);
        let root = space.root_sro();
        let child = create_sro(
            &mut space,
            root,
            Level(1),
            SroQuota {
                data_bytes: 256,
                access_slots: 8,
            },
        )
        .unwrap();
        // Can't allocate beyond the quota even though the parent has
        // plenty.
        assert!(space
            .create_object(child, ObjectSpec::generic(512, 0))
            .is_err());
    }

    #[test]
    fn bulk_destroy_returns_donation_to_parent() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 256, 1);
        let root = space.root_sro();
        let free_before = space.sro(root).unwrap().data_free.total_free();
        let child = create_sro(
            &mut space,
            root,
            Level(3),
            SroQuota {
                data_bytes: 2048,
                access_slots: 128,
            },
        )
        .unwrap();
        for _ in 0..5 {
            space
                .create_object(child, ObjectSpec::generic(64, 2))
                .unwrap();
        }
        let reclaimed = space.bulk_destroy_sro(child).unwrap();
        assert_eq!(reclaimed, 6); // 5 objects + the SRO itself
        assert_eq!(
            space.sro(root).unwrap().data_free.total_free(),
            free_before,
            "the full donation must come back"
        );
    }

    #[test]
    fn nested_sros_restitute_transitively() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 256, 1);
        let root = space.root_sro();
        let free_before = space.sro(root).unwrap().data_free.total_free();
        let a = create_sro(
            &mut space,
            root,
            Level(1),
            SroQuota {
                data_bytes: 4096,
                access_slots: 256,
            },
        )
        .unwrap();
        let b = create_sro(
            &mut space,
            a,
            Level(2),
            SroQuota {
                data_bytes: 1024,
                access_slots: 64,
            },
        )
        .unwrap();
        space.create_object(b, ObjectSpec::generic(64, 2)).unwrap();
        space.create_object(a, ObjectSpec::generic(64, 2)).unwrap();
        space.bulk_destroy_sro(a).unwrap();
        assert_eq!(space.sro(root).unwrap().data_free.total_free(), free_before);
    }

    #[test]
    fn exhausted_parent_refuses_donation() {
        let mut space = ShardedSpace::new(1024, 64, 64, 1);
        let root = space.root_sro();
        assert!(matches!(
            create_sro(
                &mut space,
                root,
                Level(1),
                SroQuota {
                    data_bytes: 4096,
                    access_slots: 8,
                },
            ),
            Err(StorageError::Arch(_))
        ));
        // Rollback left the parent intact.
        let _ = space.mint(root, Rights::ALLOCATE);
        assert_eq!(space.sro(root).unwrap().data_free.total_free(), 1024);
    }
}
