//! The swapping storage manager — iMAX release 2.
//!
//! Paper §6.2/§9: the second release adds swapping behind the *same*
//! interface as the non-swapping manager. Data parts of eligible segments
//! are evicted to a backing store when their SRO runs out of space;
//! programs that touch an absent segment take a `SegmentAbsent` fault,
//! iMAX's fault service asks this manager to bring the segment back, and
//! the process is restarted at the faulting instruction.
//!
//! Design constraints honoured here:
//!
//! * Only *data parts* swap; access parts (the capability topology) stay
//!   resident, so garbage collection and the level rule never depend on
//!   backing-store state.
//! * Only generic and user-typed segments are eligible. System objects —
//!   processes, contexts, ports, domains, SROs, TDOs — are pinned:
//!   "Processes deep within the system ... may depend on the fact that
//!   such a situation will not arise" (paper §7.3).
//! * Eviction is per-SRO: an SRO's space can only be replenished by
//!   evicting segments charged to that same SRO.
//! * The memory budget evicts only segments this manager created: a
//!   segment some other service placed may be in use by a native body
//!   that cannot take a `SegmentAbsent` fault.

use crate::{
    backing::BackingStore,
    iface::{StorageError, StorageManager, StorageStats},
    sro::{create_sro, SroQuota},
};
use i432_arch::{Level, ObjectRef, ObjectSpec, ObjectType, SpaceMut, SysState};
use std::collections::HashSet;

/// Estimated resident bytes of one object-directory leaf page.
const LEAF_PAGE_BYTES: u64 =
    i432_arch::object_table::LEAF_ENTRIES as u64 * std::mem::size_of::<i432_arch::Entry>() as u64;

/// The release-2 manager: eviction + demand swap-in.
#[derive(Debug)]
pub struct SwappingManager {
    /// The backing store (public management interface, per §6.2).
    pub backing: BackingStore,
    /// Resident-memory budget in bytes (0 = unlimited). The footprint
    /// model is directory leaf pages plus resident data parts; when
    /// leaf-page growth pushes the footprint past the budget, cold
    /// eligible segments are evicted until it fits (or nothing evictable
    /// remains — the budget is best-effort, never a fault).
    pub memory_budget_bytes: u64,
    stats: StorageStats,
    pending_cycles: u64,
    clock_hand: u32,
    /// Leaf-page count at the last budget check, so directory growth is
    /// charged to the running estimate exactly once per new page.
    watched_leaf_pages: u32,
    /// Running footprint estimate, maintained in O(1) per operation; the
    /// exact (scanning) recount only happens when the estimate crosses
    /// the budget. `None` until first seeded from a real scan.
    resident_estimate: Option<u64>,
    /// Segments this manager created under a budget: the only budget
    /// victims.
    created: HashSet<ObjectRef>,
}

impl SwappingManager {
    /// A fresh manager with an empty backing store.
    pub fn new() -> SwappingManager {
        SwappingManager {
            backing: BackingStore::new(),
            memory_budget_bytes: 0,
            stats: StorageStats::default(),
            pending_cycles: 0,
            clock_hand: 0,
            watched_leaf_pages: 0,
            resident_estimate: None,
            created: HashSet::new(),
        }
    }

    /// A manager that holds the resident footprint (directory leaf pages
    /// + resident data parts) under `bytes`.
    pub fn with_memory_budget(bytes: u64) -> SwappingManager {
        SwappingManager {
            memory_budget_bytes: bytes,
            ..SwappingManager::new()
        }
    }

    /// The footprint the budget governs: allocated directory leaf pages
    /// plus the data parts of resident (non-absent) segments.
    pub fn resident_bytes(space: &dyn SpaceMut) -> u64 {
        let mut data = 0u64;
        space.for_each_live(&mut |_, e| {
            if !e.desc.absent {
                data += e.desc.data_len as u64;
            }
        });
        space.leaf_pages() as u64 * LEAF_PAGE_BYTES + data
    }

    /// Folds an operation's growth into the running estimate and, when
    /// it crosses the budget, runs the exact enforcement pass. Directory
    /// (leaf-page) growth is noticed here too, charged once per page.
    fn watch_growth(&mut self, space: &mut dyn SpaceMut, grew_by: u64) {
        if self.memory_budget_bytes == 0 {
            return;
        }
        let pages = space.leaf_pages();
        let est = match self.resident_estimate {
            Some(mut e) => {
                if pages > self.watched_leaf_pages {
                    e += (pages - self.watched_leaf_pages) as u64 * LEAF_PAGE_BYTES;
                }
                e + grew_by
            }
            // First use: seed from a real scan — it already includes
            // whatever this operation just created, and any objects that
            // predate this manager.
            None => Self::resident_bytes(space),
        };
        self.watched_leaf_pages = pages;
        self.resident_estimate = Some(est);
        if est > self.memory_budget_bytes {
            self.enforce_budget(space);
        }
    }

    /// Evicts cold eligible segments this manager created until the
    /// footprint fits the budget (same two-pass NRU clock as
    /// [`Self::allocate_with_eviction`]).
    fn enforce_budget(&mut self, space: &mut dyn SpaceMut) {
        let budget = self.memory_budget_bytes;
        if budget == 0 {
            return;
        }
        // Forget segments reclaimed behind the manager's back (by the
        // garbage collector).
        self.created.retain(|&r| space.entry(r).is_ok());
        let mut resident = Self::resident_bytes(space);
        'passes: for pass in 0..2 {
            if resident <= budget {
                break 'passes;
            }
            let mut victims: Vec<(ObjectRef, u32)> = Vec::new();
            let created = &self.created;
            space.for_each_live(&mut |i, e| {
                let r = ObjectRef {
                    index: i,
                    generation: e.generation,
                };
                if !e.desc.absent && e.desc.data_len > 0 && created.contains(&r) {
                    victims.push((r, e.desc.data_len));
                }
            });
            let start = if victims.is_empty() {
                0
            } else {
                (self.clock_hand as usize) % victims.len()
            };
            for k in 0..victims.len() {
                if resident <= budget {
                    break 'passes;
                }
                let (v, len) = victims[(start + k) % victims.len()];
                if !Self::eligible(space, v) {
                    continue;
                }
                if pass == 0 {
                    // First pass: skip (but age) recently used segments.
                    if let Ok(e) = space.entry_mut(v) {
                        if e.desc.accessed {
                            e.desc.accessed = false;
                            continue;
                        }
                    }
                }
                self.clock_hand = self.clock_hand.wrapping_add(1);
                if self.swap_out(space, v).is_ok() {
                    resident -= len as u64;
                    i432_trace::bump(i432_trace::Counter::TableEvictions);
                }
            }
        }
        self.resident_estimate = Some(resident);
    }

    /// Simulated device-transfer cycles accumulated since the last drain
    /// (charged to the requesting process by the caller).
    pub fn drain_cycles(&mut self) -> u64 {
        std::mem::take(&mut self.pending_cycles)
    }

    /// Whether a segment is eligible for eviction.
    fn eligible(space: &dyn SpaceMut, r: ObjectRef) -> bool {
        let Ok(e) = space.entry(r) else {
            return false;
        };
        if e.desc.absent || e.desc.data_len == 0 {
            return false;
        }
        matches!(
            e.desc.otype,
            ObjectType::System(i432_arch::SystemType::Generic) | ObjectType::User(_)
        ) && matches!(e.sys, SysState::Generic)
    }

    /// Evicts one segment's data part to the backing store.
    pub fn swap_out(&mut self, space: &mut dyn SpaceMut, r: ObjectRef) -> Result<(), StorageError> {
        if !Self::eligible(space, r) {
            return Err(StorageError::NotEligible(
                "pinned, absent, or zero-length segment",
            ));
        }
        // `entry_mut`, which bumps the shard's epoch, before the bytes are
        // copied out: a lock-free write racing the swap-out then either
        // lands before the copy or is redone on the locked path.
        let (base, len, sro) = {
            let e = space.entry_mut(r)?;
            (e.desc.data_base, e.desc.data_len, e.desc.sro)
        };
        let mut buf = vec![0u8; len as usize];
        space.data_arena(r)?.read(base, &mut buf)?;
        self.pending_cycles += self.backing.write(r, buf);
        // Return the run to the owning SRO.
        if let Some(sro) = sro {
            space.sro_mut(sro)?.data_free.release(base, len)?;
        }
        let e = space.entry_mut(r)?;
        e.desc.absent = true;
        e.desc.accessed = false;
        e.desc.dirty = false;
        self.stats.swap_outs += 1;
        self.resident_estimate = self.resident_estimate.map(|v| v.saturating_sub(len as u64));
        Ok(())
    }

    /// Brings an absent segment's data part back, evicting peers from the
    /// same SRO if necessary.
    pub fn swap_in(&mut self, space: &mut dyn SpaceMut, r: ObjectRef) -> Result<(), StorageError> {
        let (len, sro) = {
            let e = space.entry(r)?;
            if !e.desc.absent {
                return Ok(());
            }
            (e.desc.data_len, e.desc.sro)
        };
        let Some(sro) = sro else {
            return Err(StorageError::NotEligible("absent object without an SRO"));
        };
        let base = self.allocate_with_eviction(space, sro, len, Some(r))?;
        let (data, cycles) = self
            .backing
            .read(r)
            .ok_or(StorageError::NotEligible("no backing page for segment"))?;
        self.pending_cycles += cycles;
        space.data_arena_mut(r)?.write(base, &data)?;
        let e = space.entry_mut(r)?;
        e.desc.data_base = base;
        e.desc.absent = false;
        e.desc.accessed = true;
        self.stats.swap_ins += 1;
        self.resident_estimate = self.resident_estimate.map(|v| v + len as u64);
        Ok(())
    }

    /// Allocates `len` bytes from `sro`, evicting eligible peers (other
    /// than `protect`) as needed.
    fn allocate_with_eviction(
        &mut self,
        space: &mut dyn SpaceMut,
        sro: ObjectRef,
        len: u32,
        protect: Option<ObjectRef>,
    ) -> Result<u32, StorageError> {
        // Fast path.
        if let Ok(base) = space.sro_mut(sro)?.data_free.allocate(len) {
            return Ok(base);
        }
        // Clock sweep over this SRO's residents: first pass takes
        // not-recently-used segments (clearing accessed bits), the second
        // pass takes anything eligible.
        for pass in 0..2 {
            self.stats.eviction_rounds += 1;
            let mut victims: Vec<ObjectRef> = Vec::new();
            space.for_each_live(&mut |i, e| {
                if e.desc.sro == Some(sro) {
                    victims.push(ObjectRef {
                        index: i,
                        generation: e.generation,
                    });
                }
            });
            // Rotate the scan start to spread eviction pressure (the
            // clock hand).
            let start = if victims.is_empty() {
                0
            } else {
                (self.clock_hand as usize) % victims.len()
            };
            for k in 0..victims.len() {
                let v = victims[(start + k) % victims.len()];
                if Some(v) == protect || !Self::eligible(space, v) {
                    continue;
                }
                if pass == 0 {
                    // First pass: skip (but age) recently used segments.
                    let e = space.entry_mut(v)?;
                    if e.desc.accessed {
                        e.desc.accessed = false;
                        continue;
                    }
                }
                self.clock_hand = self.clock_hand.wrapping_add(1);
                self.swap_out(space, v)?;
                if let Ok(base) = space.sro_mut(sro)?.data_free.allocate(len) {
                    return Ok(base);
                }
            }
        }
        // Last resort: the space may exist but be fragmented. Compact
        // (when the SRO is a leaf) and retry once.
        if space.sro(sro)?.data_free.total_free() >= len {
            if let Ok(report) = crate::compact::compact_sro(space, sro) {
                self.pending_cycles += report.sim_cycles;
                self.stats.compactions += 1;
                if let Ok(base) = space.sro_mut(sro)?.data_free.allocate(len) {
                    return Ok(base);
                }
            }
        }
        Err(StorageError::CannotMakeRoom { needed: len })
    }

    /// Drops backing pages whose object no longer exists (reclaimed while
    /// swapped out, e.g. by the garbage collector).
    pub fn scrub(&mut self, space: &dyn SpaceMut) -> usize {
        let mut dead = Vec::new();
        // BackingStore has no iterator by design; scrub via the object
        // table instead: a page is live only while its exact reference
        // resolves.
        let mut live = std::collections::HashSet::new();
        space.for_each_live(&mut |i, e| {
            live.insert(ObjectRef {
                index: i,
                generation: e.generation,
            });
        });
        for key in self.backing.keys() {
            if !live.contains(&key) {
                dead.push(key);
            }
        }
        for key in &dead {
            self.backing.discard(*key);
        }
        dead.len()
    }
}

impl Default for SwappingManager {
    fn default() -> SwappingManager {
        SwappingManager::new()
    }
}

impl StorageManager for SwappingManager {
    fn name(&self) -> &'static str {
        "swapping"
    }

    fn create_object(
        &mut self,
        space: &mut dyn SpaceMut,
        sro: ObjectRef,
        spec: ObjectSpec,
    ) -> Result<ObjectRef, StorageError> {
        let data_len = spec.data_len as u64;
        let r = match space.create_object(sro, spec.clone()) {
            Ok(r) => r,
            Err(i432_arch::ArchError::ArenaExhausted { .. }) => {
                // Make room by evicting from this SRO, then retry once.
                let base = self.allocate_with_eviction(space, sro, spec.data_len, None)?;
                // Give the carve back and let the normal path re-take it
                // (keeps creation logic in one place).
                space.sro_mut(sro)?.data_free.release(base, spec.data_len)?;
                space.create_object(sro, spec)?
            }
            Err(e) => return Err(e.into()),
        };
        self.stats.allocated += 1;
        if self.memory_budget_bytes != 0 {
            self.created.insert(r);
        }
        self.watch_growth(space, data_len);
        Ok(r)
    }

    fn destroy_object(
        &mut self,
        space: &mut dyn SpaceMut,
        obj: ObjectRef,
    ) -> Result<(), StorageError> {
        let (absent, len) = {
            let e = space.entry(obj)?;
            (e.desc.absent, e.desc.data_len)
        };
        if absent {
            self.backing.discard(obj);
        }
        space.destroy_object(obj)?;
        self.created.remove(&obj);
        self.stats.destroyed += 1;
        if !absent {
            self.resident_estimate = self.resident_estimate.map(|v| v.saturating_sub(len as u64));
        }
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
        // SROs have no data part; only directory growth can matter here.
        self.watch_growth(space, 0);
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
        // Any of the heap's objects that were swapped out left pages
        // behind.
        self.scrub(space);
        Ok(n)
    }

    fn ensure_resident(
        &mut self,
        space: &mut dyn SpaceMut,
        obj: ObjectRef,
    ) -> Result<(), StorageError> {
        self.swap_in(space, obj)
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{Rights, ShardedSpace};

    fn tight_space() -> (ShardedSpace, ObjectRef) {
        // Room for about four 256-byte objects in the child SRO.
        let mut space = ShardedSpace::new(8192, 1024, 256, 1);
        let root = space.root_sro();
        let sro = create_sro(
            &mut space,
            root,
            Level(0),
            SroQuota {
                data_bytes: 1024,
                access_slots: 64,
            },
        )
        .unwrap();
        (space, sro)
    }

    #[test]
    fn eviction_makes_room() {
        let (mut space, sro) = tight_space();
        let mut m = SwappingManager::new();
        let mut objs = Vec::new();
        for _ in 0..4 {
            objs.push(
                m.create_object(&mut space, sro, ObjectSpec::generic(256, 2))
                    .unwrap(),
            );
        }
        // A fifth allocation overflows the quota: the manager evicts.
        let fifth = m
            .create_object(&mut space, sro, ObjectSpec::generic(256, 2))
            .unwrap();
        assert!(space.entry(fifth).is_ok());
        assert!(m.stats().swap_outs >= 1);
        // At least one earlier object is now absent.
        let absent = objs
            .iter()
            .filter(|o| space.entry(**o).unwrap().desc.absent)
            .count();
        assert!(absent >= 1);
    }

    #[test]
    fn swap_roundtrip_preserves_contents() {
        let (mut space, sro) = tight_space();
        let mut m = SwappingManager::new();
        let obj = m
            .create_object(&mut space, sro, ObjectSpec::generic(64, 0))
            .unwrap();
        let ad = space.mint(obj, Rights::READ | Rights::WRITE);
        space.write_u64(ad, 0, 0xfeed_f00d).unwrap();
        m.swap_out(&mut space, obj).unwrap();
        assert!(matches!(
            space.read_u64(ad, 0),
            Err(i432_arch::ArchError::SegmentAbsent(_))
        ));
        m.swap_in(&mut space, obj).unwrap();
        assert_eq!(space.read_u64(ad, 0).unwrap(), 0xfeed_f00d);
        assert!(m.drain_cycles() > 0, "device transfers cost cycles");
    }

    #[test]
    fn pinned_objects_are_not_evicted() {
        let (mut space, sro) = tight_space();
        let mut m = SwappingManager::new();
        // An SRO (system object) is never eligible.
        assert!(matches!(
            m.swap_out(&mut space, sro),
            Err(StorageError::NotEligible(_))
        ));
    }

    #[test]
    fn clock_prefers_not_recently_used() {
        let (mut space, sro) = tight_space();
        let mut m = SwappingManager::new();
        let a = m
            .create_object(&mut space, sro, ObjectSpec::generic(256, 0))
            .unwrap();
        let b = m
            .create_object(&mut space, sro, ObjectSpec::generic(256, 0))
            .unwrap();
        let c = m
            .create_object(&mut space, sro, ObjectSpec::generic(256, 0))
            .unwrap();
        let d = m
            .create_object(&mut space, sro, ObjectSpec::generic(256, 0))
            .unwrap();
        // Touch a, c, d — b is the cold one.
        for o in [a, c, d] {
            let ad = space.mint(o, Rights::READ);
            let _ = space.read_u64(ad, 0);
        }
        m.create_object(&mut space, sro, ObjectSpec::generic(256, 0))
            .unwrap();
        assert!(
            space.entry(b).unwrap().desc.absent,
            "the untouched segment should be the victim"
        );
    }

    #[test]
    fn destroy_absent_object_discards_backing() {
        let (mut space, sro) = tight_space();
        let mut m = SwappingManager::new();
        let obj = m
            .create_object(&mut space, sro, ObjectSpec::generic(64, 0))
            .unwrap();
        m.swap_out(&mut space, obj).unwrap();
        assert_eq!(m.backing.resident_pages(), 1);
        m.destroy_object(&mut space, obj).unwrap();
        assert_eq!(m.backing.resident_pages(), 0);
        // Storage accounting stays balanced: we can refill the SRO.
        for _ in 0..4 {
            m.create_object(&mut space, sro, ObjectSpec::generic(256, 2))
                .unwrap();
        }
    }

    #[test]
    fn cannot_make_room_when_everything_pinned() {
        let mut space = ShardedSpace::new(8192, 1024, 256, 1);
        let root = space.root_sro();
        let sro = create_sro(
            &mut space,
            root,
            Level(0),
            SroQuota {
                data_bytes: 256,
                access_slots: 16,
            },
        )
        .unwrap();
        let mut m = SwappingManager::new();
        assert!(matches!(
            m.create_object(&mut space, sro, ObjectSpec::generic(512, 0)),
            Err(StorageError::CannotMakeRoom { .. })
        ));
    }

    #[test]
    fn memory_budget_evicts_cold_segments() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 1024, 1);
        let root = space.root_sro();
        let sro = create_sro(
            &mut space,
            root,
            Level(0),
            SroQuota {
                data_bytes: 16 * 1024,
                access_slots: 256,
            },
        )
        .unwrap();
        // Budget: the directory's single leaf page plus ~4 resident
        // 256-byte data parts.
        let mut m = SwappingManager::with_memory_budget(
            super::LEAF_PAGE_BYTES + 4 * 256 + space_data(&space),
        );
        let mut objs = Vec::new();
        for _ in 0..8 {
            objs.push(
                m.create_object(&mut space, sro, ObjectSpec::generic(256, 0))
                    .unwrap(),
            );
        }
        // Growth past the budget evicted the overflow to backing store;
        // everything stays reachable (swap-in on demand), nothing faults.
        assert!(m.stats().swap_outs >= 1, "budget pressure must evict");
        assert!(
            SwappingManager::resident_bytes(&space) <= m.memory_budget_bytes,
            "footprint must settle under the budget"
        );
        let absent = objs
            .iter()
            .filter(|o| space.entry(**o).unwrap().desc.absent)
            .count();
        assert!(absent >= 4);
        m.ensure_resident(&mut space, objs[0]).unwrap();
        assert!(!space.entry(objs[0]).unwrap().desc.absent);
    }

    /// Data bytes resident before the test allocates anything (the root
    /// SRO's own bookkeeping objects).
    fn space_data(space: &ShardedSpace) -> u64 {
        let mut data = 0u64;
        use i432_arch::SpaceMut;
        space.for_each_live(&mut |_, e| {
            if !e.desc.absent {
                data += e.desc.data_len as u64;
            }
        });
        data
    }

    #[test]
    fn memory_budget_never_evicts_a_segment_it_did_not_create() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 1024, 1);
        let root = space.root_sro();
        let sro = create_sro(
            &mut space,
            root,
            Level(0),
            SroQuota {
                data_bytes: 16 * 1024,
                access_slots: 256,
            },
        )
        .unwrap();
        // Another service's segment, placed before the manager's own and
        // never touched since: the coldest eligible segment in the space.
        let foreign = space
            .create_object(sro, ObjectSpec::generic(256, 0))
            .unwrap();
        let mut m = SwappingManager::with_memory_budget(
            super::LEAF_PAGE_BYTES + 4 * 256 + space_data(&space),
        );
        for _ in 0..8 {
            m.create_object(&mut space, sro, ObjectSpec::generic(256, 0))
                .unwrap();
        }
        assert!(m.stats().swap_outs >= 1, "budget pressure must evict");
        assert!(
            !space.entry(foreign).unwrap().desc.absent,
            "the budget evicted a segment the manager did not create"
        );
    }

    #[test]
    fn zero_budget_means_unlimited() {
        let (mut space, sro) = tight_space();
        let mut m = SwappingManager::new();
        assert_eq!(m.memory_budget_bytes, 0);
        for _ in 0..4 {
            m.create_object(&mut space, sro, ObjectSpec::generic(256, 0))
                .unwrap();
        }
        assert_eq!(m.stats().swap_outs, 0, "no budget, no budget evictions");
    }

    #[test]
    fn scrub_drops_stale_pages() {
        let (mut space, sro) = tight_space();
        let mut m = SwappingManager::new();
        let obj = m
            .create_object(&mut space, sro, ObjectSpec::generic(64, 0))
            .unwrap();
        m.swap_out(&mut space, obj).unwrap();
        // Simulate the GC reclaiming the absent object directly.
        space.destroy_object(obj).unwrap();
        assert_eq!(m.backing.resident_pages(), 1);
        assert_eq!(m.scrub(&space), 1);
        assert_eq!(m.backing.resident_pages(), 0);
    }
}
