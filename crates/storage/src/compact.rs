//! SRO compaction: defragmenting an SRO's data space by sliding
//! segments.
//!
//! The 432's object descriptors make compaction possible by design —
//! every segment has exactly *one* descriptor holding its physical base
//! (paper §2), so moving a segment means copying its bytes and updating
//! one word; the arbitrarily many access descriptors for it never change.
//! iMAX's memory managers use this to convert external fragmentation
//! (plenty of free bytes, no run large enough) back into allocatable
//! space.
//!
//! Only *data parts* move; the paper's user-visible contract that a
//! segment "might be being moved and therefore be inaccessible for some
//! period of time" (§7.3) is modeled by the simulated cycle cost the
//! compactor reports — in the deterministic simulator the move itself is
//! atomic between instructions.

use crate::iface::StorageError;
use i432_arch::{ObjectRef, SpaceMut};

/// The result of one compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Segments moved.
    pub moved: u32,
    /// Bytes copied.
    pub bytes_copied: u64,
    /// Largest allocatable run before compaction.
    pub largest_before: u32,
    /// Largest allocatable run after compaction.
    pub largest_after: u32,
    /// Simulated cycles the pass consumed (2 cycles per word moved plus
    /// a per-segment descriptor update).
    pub sim_cycles: u64,
}

/// Compacts an SRO's data space: every resident segment charged to the
/// SRO slides toward the low end of the SRO's space, coalescing all free
/// bytes into one high run.
///
/// Absent (swapped-out) segments own no data run, so they neither move
/// nor block movers. Access parts are not compacted (capability topology
/// stays put).
pub fn compact_sro<S: SpaceMut + ?Sized>(
    space: &mut S,
    sro: ObjectRef,
) -> Result<CompactionReport, StorageError> {
    // An SRO that has donated part of its span to child SROs cannot be
    // compacted: the child ranges are neither free nor charged here, and
    // sliding segments across them would corrupt the children. (iMAX
    // compacts leaf heaps; parents compact after their children are
    // destroyed.)
    let mut has_children = false;
    space.for_each_live(&mut |_, e| {
        has_children |= matches!(&e.sys, i432_arch::SysState::Sro(st) if st.parent == Some(sro));
    });
    if has_children {
        return Err(StorageError::NotEligible(
            "SRO has child SROs holding donated space",
        ));
    }
    let largest_before = space.sro(sro)?.data_free.largest_free();

    // Collect the SRO's resident segments in address order.
    let mut segments: Vec<(ObjectRef, u32, u32)> = Vec::new();
    space.for_each_live(&mut |i, e| {
        if e.desc.sro == Some(sro) && !e.desc.absent && e.desc.data_len > 0 {
            segments.push((
                ObjectRef {
                    index: i,
                    generation: e.generation,
                },
                e.desc.data_base,
                e.desc.data_len,
            ));
        }
    });
    segments.sort_by_key(|&(_, base, _)| base);

    // The SRO's span: the lowest point of (free runs ∪ segments).
    let free_low = space.sro(sro)?.data_free.runs().map(|r| r.base).min();
    let seg_low = segments.first().map(|&(_, b, _)| b);
    let Some(mut cursor) = [free_low, seg_low].into_iter().flatten().min() else {
        // Nothing charged and nothing free: empty SRO.
        return Ok(CompactionReport {
            moved: 0,
            bytes_copied: 0,
            largest_before,
            largest_after: largest_before,
            sim_cycles: 0,
        });
    };

    let mut report = CompactionReport {
        moved: 0,
        bytes_copied: 0,
        largest_before,
        largest_after: 0,
        sim_cycles: 0,
    };

    // Slide each segment down to the cursor. Because we process in
    // address order and the cursor never overtakes an unprocessed
    // segment's base, source and destination ranges cannot overlap
    // destructively (dst <= src always).
    for (r, base, len) in segments {
        debug_assert!(cursor <= base);
        if cursor != base {
            space.data_arena_mut(r)?.copy_within(base, cursor, len)?;
            space.entry_mut(r)?.desc.data_base = cursor;
            report.moved += 1;
            report.bytes_copied += len as u64;
            report.sim_cycles += (len as u64).div_ceil(4) * 2 + 20;
        }
        cursor += len;
    }

    // Rebuild the free list: everything from the cursor to the old end
    // of the SRO's space is one run.
    let total_free = space.sro(sro)?.data_free.total_free();
    {
        let st = space.sro_mut(sro)?;
        st.data_free = i432_arch::FreeList::new(cursor, total_free);
    }
    report.largest_after = space.sro(sro)?.data_free.largest_free();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sro::{create_sro, SroQuota};
    use i432_arch::{Level, ObjectSpec, Rights, ShardedSpace};

    fn fragmented_sro(space: &mut ShardedSpace) -> (ObjectRef, Vec<(ObjectRef, u64)>) {
        let root = space.root_sro();
        let sro = create_sro(
            space,
            root,
            Level(0),
            SroQuota {
                data_bytes: 2048, // exactly 8 x 256: no slack tail
                access_slots: 256,
            },
        )
        .unwrap();
        // Allocate 8 × 256B, free every other one: 1 KiB free in 4
        // scattered holes.
        let mut objs = Vec::new();
        let mut survivors = Vec::new();
        for i in 0..8u64 {
            let o = space
                .create_object(sro, ObjectSpec::generic(256, 0))
                .unwrap();
            let ad = space.mint(o, Rights::READ | Rights::WRITE);
            space.write_u64(ad, 0, 100 + i).unwrap();
            space.write_u64(ad, 248, 200 + i).unwrap();
            objs.push((o, i));
        }
        for (k, (o, i)) in objs.into_iter().enumerate() {
            if k % 2 == 0 {
                space.destroy_object(o).unwrap();
            } else {
                survivors.push((o, i));
            }
        }
        (sro, survivors)
    }

    #[test]
    fn compaction_coalesces_free_space() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let (sro, survivors) = fragmented_sro(&mut space);
        let before = space.sro(sro).unwrap();
        assert!(before.data_free.largest_free() < before.data_free.total_free());
        let total = before.data_free.total_free();

        let report = compact_sro(&mut space, sro).unwrap();
        assert!(report.moved >= 1);
        assert_eq!(
            space.sro(sro).unwrap().data_free.largest_free(),
            total,
            "all free space in one run"
        );
        assert_eq!(space.sro(sro).unwrap().data_free.run_count(), 1);
        assert!(report.largest_after > report.largest_before);

        // Survivors keep their contents, reachable through their old
        // (unchanged!) access descriptors.
        for (o, i) in survivors {
            let ad = space.mint(o, Rights::READ);
            assert_eq!(space.read_u64(ad, 0).unwrap(), 100 + i);
            assert_eq!(space.read_u64(ad, 248).unwrap(), 200 + i);
        }
    }

    #[test]
    fn big_allocation_succeeds_only_after_compaction() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let (sro, _) = fragmented_sro(&mut space);
        // 1 KiB is free but scattered in 256B holes.
        assert!(space
            .create_object(sro, ObjectSpec::generic(1024, 0))
            .is_err());
        compact_sro(&mut space, sro).unwrap();
        assert!(space
            .create_object(sro, ObjectSpec::generic(1024, 0))
            .is_ok());
    }

    #[test]
    fn compaction_is_idempotent() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let (sro, _) = fragmented_sro(&mut space);
        compact_sro(&mut space, sro).unwrap();
        let second = compact_sro(&mut space, sro).unwrap();
        assert_eq!(second.moved, 0);
        assert_eq!(second.bytes_copied, 0);
    }

    #[test]
    fn parent_with_children_refuses_compaction() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let root = space.root_sro();
        let parent = create_sro(
            &mut space,
            root,
            Level(0),
            SroQuota {
                data_bytes: 4096,
                access_slots: 128,
            },
        )
        .unwrap();
        let child = create_sro(
            &mut space,
            parent,
            Level(1),
            SroQuota {
                data_bytes: 1024,
                access_slots: 32,
            },
        )
        .unwrap();
        assert!(matches!(
            compact_sro(&mut space, parent),
            Err(StorageError::NotEligible(_))
        ));
        // Destroying the child restores eligibility.
        space.bulk_destroy_sro(child).unwrap();
        assert!(compact_sro(&mut space, parent).is_ok());
    }

    #[test]
    fn empty_sro_compacts_trivially() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let root = space.root_sro();
        let sro = create_sro(
            &mut space,
            root,
            Level(0),
            SroQuota {
                data_bytes: 1024,
                access_slots: 32,
            },
        )
        .unwrap();
        let report = compact_sro(&mut space, sro).unwrap();
        assert_eq!(report.moved, 0);
        assert_eq!(space.sro(sro).unwrap().data_free.total_free(), 1024);
    }

    #[test]
    fn absent_segments_do_not_block_compaction() {
        use crate::iface::StorageManager;
        use crate::swapping::SwappingManager;
        let mut space = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let (sro, survivors) = fragmented_sro(&mut space);
        let mut mgr = SwappingManager::new();
        // Swap one survivor out; compaction must skip it cleanly.
        let (victim, stamp) = survivors[0];
        mgr.swap_out(&mut space, victim).unwrap();
        compact_sro(&mut space, sro).unwrap();
        // Bring it back: still intact (its bytes lived on backing store).
        mgr.ensure_resident(&mut space, victim).unwrap();
        let ad = space.mint(victim, Rights::READ);
        assert_eq!(space.read_u64(ad, 0).unwrap(), 100 + stamp);
    }
}
