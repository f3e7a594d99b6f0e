//! The non-swapping ("frozen") storage manager — iMAX release 1.
//!
//! Paper §9: "The first release of the system is non-swapping and
//! concentrates on providing a development debugging base." All segments
//! stay resident; exhaustion is reported to the caller (and surfaces as a
//! storage fault in programs).

use crate::{
    iface::{StorageError, StorageManager, StorageStats},
    sro::{create_sro, SroQuota},
};
use i432_arch::{Level, ObjectRef, ObjectSpec, SpaceMut};

/// The release-1 manager: direct pass-through with accounting.
#[derive(Debug, Default)]
pub struct FrozenManager {
    stats: StorageStats,
}

impl FrozenManager {
    /// A fresh manager.
    pub fn new() -> FrozenManager {
        FrozenManager::default()
    }
}

impl StorageManager for FrozenManager {
    fn name(&self) -> &'static str {
        "non-swapping"
    }

    fn create_object(
        &mut self,
        space: &mut dyn SpaceMut,
        sro: ObjectRef,
        spec: ObjectSpec,
    ) -> Result<ObjectRef, StorageError> {
        let r = space.create_object(sro, spec)?;
        self.stats.allocated += 1;
        Ok(r)
    }

    fn destroy_object(
        &mut self,
        space: &mut dyn SpaceMut,
        obj: ObjectRef,
    ) -> Result<(), StorageError> {
        space.destroy_object(obj)?;
        self.stats.destroyed += 1;
        Ok(())
    }

    fn create_heap(
        &mut self,
        space: &mut dyn SpaceMut,
        parent: ObjectRef,
        level: Level,
        quota: SroQuota,
    ) -> Result<ObjectRef, StorageError> {
        let r = create_sro(space, parent, level, quota)?;
        self.stats.heaps_created += 1;
        Ok(r)
    }

    fn destroy_heap(
        &mut self,
        space: &mut dyn SpaceMut,
        sro: ObjectRef,
    ) -> Result<u32, StorageError> {
        let n = space.bulk_destroy_sro(sro)?;
        self.stats.heaps_destroyed += 1;
        self.stats.destroyed += n as u64;
        Ok(n)
    }

    fn ensure_resident(
        &mut self,
        space: &mut dyn SpaceMut,
        obj: ObjectRef,
    ) -> Result<(), StorageError> {
        // Nothing is ever absent under this manager; validate the
        // reference for parity with the swapping implementation.
        space.entry(obj)?;
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::ShardedSpace;

    #[test]
    fn pass_through_allocation_and_accounting() {
        let mut space = ShardedSpace::new(8192, 512, 128, 1);
        let root = space.root_sro();
        let mut m = FrozenManager::new();
        let o = m
            .create_object(&mut space, root, ObjectSpec::generic(64, 2))
            .unwrap();
        m.ensure_resident(&mut space, o).unwrap();
        m.destroy_object(&mut space, o).unwrap();
        assert_eq!(m.stats().allocated, 1);
        assert_eq!(m.stats().destroyed, 1);
        assert_eq!(m.stats().swap_outs, 0);
    }

    #[test]
    fn exhaustion_is_reported_not_hidden() {
        let mut space = ShardedSpace::new(128, 16, 64, 1);
        let root = space.root_sro();
        let mut m = FrozenManager::new();
        assert!(matches!(
            m.create_object(&mut space, root, ObjectSpec::generic(4096, 0)),
            Err(StorageError::Arch(_))
        ));
    }

    #[test]
    fn heap_lifecycle() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 256, 1);
        let root = space.root_sro();
        let mut m = FrozenManager::new();
        let heap = m
            .create_heap(&mut space, root, Level(2), SroQuota::for_objects(16))
            .unwrap();
        for _ in 0..3 {
            m.create_object(&mut space, heap, ObjectSpec::generic(32, 1))
                .unwrap();
        }
        let n = m.destroy_heap(&mut space, heap).unwrap();
        assert_eq!(n, 4);
        assert_eq!(m.stats().heaps_created, 1);
        assert_eq!(m.stats().heaps_destroyed, 1);
    }
}
