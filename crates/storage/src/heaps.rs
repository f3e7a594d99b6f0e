//! Local heaps: scope-bounded allocation for processes.
//!
//! Paper §5: "A process may create an SRO with a level number
//! corresponding to its current depth called a *local heap* and then
//! create objects from it. Since access to these objects will not escape
//! their proper environment, objects may be destroyed whenever their
//! ancestral SRO is destroyed, without leaving dangling references. This
//! SRO will be destroyed automatically when the process returns above the
//! call depth to which it corresponds."
//!
//! The automatic destruction lives in the RETURN path of `i432-gdp`;
//! these helpers open and close local heaps on behalf of a process (they
//! back the `storage_management` iMAX service).

use crate::{
    iface::{StorageError, StorageManager},
    sro::SroQuota,
};
use i432_arch::{
    sysobj::{PROC_SLOT_CONTEXT, PROC_SLOT_LOCAL_HEAP},
    ObjectRef, Rights, SpaceMut,
};

/// Opens a local heap for the process at its *current* dynamic depth.
///
/// The heap SRO's fixed level equals the current context's level, so
/// objects allocated from it may be referenced freely from the current
/// frame and deeper, but can never escape upward; the RETURN that leaves
/// this depth destroys the heap and everything in it.
///
/// Returns the heap SRO. Fails if a local heap is already open (one per
/// depth; nested opens would need the previous one closed or a deeper
/// frame).
pub fn open_local_heap(
    manager: &mut dyn StorageManager,
    space: &mut dyn SpaceMut,
    proc_ref: ObjectRef,
    quota: SroQuota,
) -> Result<ObjectRef, StorageError> {
    open_local_heap_at(manager, space, proc_ref, quota, None)
}

/// [`open_local_heap`] with an explicit depth.
///
/// When the opening request arrives through a *service call*, the current
/// context belongs to the service (one level deeper than the requester);
/// the service passes the requester's depth here so the heap is scoped to
/// the frame that asked for it.
pub fn open_local_heap_at(
    manager: &mut dyn StorageManager,
    space: &mut dyn SpaceMut,
    proc_ref: ObjectRef,
    quota: SroQuota,
    depth: Option<i432_arch::Level>,
) -> Result<ObjectRef, StorageError> {
    if space.load_ad_hw(proc_ref, PROC_SLOT_LOCAL_HEAP)?.is_some() {
        return Err(StorageError::NotEligible("local heap already open"));
    }
    // Current depth = level of the current context, unless given.
    let depth = match depth {
        Some(d) => d,
        None => {
            let ctx = space
                .load_ad_hw(proc_ref, PROC_SLOT_CONTEXT)?
                .ok_or(StorageError::NotEligible("process has no context"))?;
            space.entry(ctx.obj)?.desc.level
        }
    };
    let parent = space.root_sro();
    let heap = manager.create_heap(space, parent, depth, quota)?;
    let heap_ad = space.mint(heap, Rights::ALLOCATE | Rights::RECLAIM);
    space.store_ad_hw(proc_ref, PROC_SLOT_LOCAL_HEAP, Some(heap_ad))?;
    Ok(heap)
}

/// Closes (destroys) the process's local heap explicitly, reclaiming
/// every object allocated from it. Returns the number of objects
/// reclaimed, or 0 when no heap was open.
pub fn close_local_heap(
    manager: &mut dyn StorageManager,
    space: &mut dyn SpaceMut,
    proc_ref: ObjectRef,
) -> Result<u32, StorageError> {
    let Some(heap) = space.load_ad_hw(proc_ref, PROC_SLOT_LOCAL_HEAP)? else {
        return Ok(0);
    };
    space.store_ad_hw(proc_ref, PROC_SLOT_LOCAL_HEAP, None)?;
    manager.destroy_heap(space, heap.obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::FrozenManager;
    use i432_arch::{
        ContextState, Level, ObjectSpec, ObjectType, ProcessState, ShardedSpace, SysState,
        SystemType,
    };

    /// Builds a bare process with a context at the given level.
    fn proc_at_depth(space: &mut ShardedSpace, depth: u16) -> ObjectRef {
        let root = space.root_sro();
        let proc_ref = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::PROC_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::Process),
                    level: None,
                    sys: SysState::Process(ProcessState::new(Level::GLOBAL)),
                },
            )
            .unwrap();
        let ctx = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 32,
                    access_len: 8,
                    otype: ObjectType::System(SystemType::Context),
                    level: Some(Level(depth)),
                    sys: SysState::Context(ContextState {
                        body: i432_arch::CodeBody::Interpreted(i432_arch::CodeRef(0)),
                        ip: 0,
                        ret_ad_slot: None,
                        ret_val_off: None,
                        subprogram: 0,
                    }),
                },
            )
            .unwrap();
        let ctx_ad = space.mint(ctx, Rights::READ | Rights::WRITE);
        space
            .store_ad_hw(proc_ref, PROC_SLOT_CONTEXT, Some(ctx_ad))
            .unwrap();
        proc_ref
    }

    #[test]
    fn open_allocate_close() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let mut m = FrozenManager::new();
        let p = proc_at_depth(&mut space, 3);
        let heap = open_local_heap(&mut m, &mut space, p, SroQuota::for_objects(8)).unwrap();
        assert_eq!(space.sro(heap).unwrap().level, Level(3));
        for _ in 0..3 {
            space
                .create_object(heap, ObjectSpec::generic(32, 1))
                .unwrap();
        }
        let n = close_local_heap(&mut m, &mut space, p).unwrap();
        assert_eq!(n, 4);
        // Heap slot is cleared; a second close is a no-op.
        assert_eq!(close_local_heap(&mut m, &mut space, p).unwrap(), 0);
    }

    #[test]
    fn double_open_rejected() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let mut m = FrozenManager::new();
        let p = proc_at_depth(&mut space, 2);
        open_local_heap(&mut m, &mut space, p, SroQuota::for_objects(4)).unwrap();
        assert!(matches!(
            open_local_heap(&mut m, &mut space, p, SroQuota::for_objects(4)),
            Err(StorageError::NotEligible(_))
        ));
    }

    #[test]
    fn local_objects_cannot_escape_upward() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let mut m = FrozenManager::new();
        let p = proc_at_depth(&mut space, 4);
        let heap = open_local_heap(&mut m, &mut space, p, SroQuota::for_objects(8)).unwrap();
        let local = space
            .create_object(heap, ObjectSpec::generic(16, 0))
            .unwrap();
        let local_ad = space.mint(local, Rights::READ);
        // A global container refuses the local object's AD.
        let root = space.root_sro();
        let global = space
            .create_object(root, ObjectSpec::generic(0, 2))
            .unwrap();
        let global_ad = space.mint(global, Rights::WRITE);
        assert!(space.store_ad(global_ad, 0, Some(local_ad)).is_err());
    }
}
