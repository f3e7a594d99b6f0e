//! [`ObjectSpace`]: one shard's storage — object table plus arenas — and
//! the checks on it.
//!
//! Every capability-qualified operation the system performs — data reads
//! and writes, access-descriptor loads and stores, object creation and
//! destruction — funnels through this type, reached through
//! [`crate::ShardedSpace`] or a [`crate::SpaceAgent`], which route each
//! operation to the shard it names. It is the emulator's analogue of the
//! 432's address-translation and AD-qualification microcode, and is
//! therefore the *single enforcement point* for:
//!
//! * rights checking ([`Rights`]);
//! * part bounds checking;
//! * the level (lifetime) rule of paper §5;
//! * the garbage collector's gray-bit write barrier (paper §8.1);
//! * virtual-memory presence (`absent`) checks.

use crate::{
    descriptor::{Color, ObjectDescriptor, ObjectType, SystemType},
    error::{ArchError, ArchResult},
    level::Level,
    memory::{AccessArena, DataArena, FreeList},
    object_table::{Entry, ObjectTable},
    refs::{AccessDescriptor, ObjectRef},
    rights::Rights,
    sysobj::{PortState, ProcessState, ProcessorState, SroState, SysState, TdoState},
    CacheLine, MAX_ACCESS_SLOTS, MAX_PART_BYTES,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Running counters for everything the space does; benches and the
/// reproduction harness read these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceStats {
    /// Access descriptors stored (the hardware "AD move" count).
    pub ad_stores: u64,
    /// Access descriptors loaded.
    pub ad_loads: u64,
    /// Objects shaded gray by the write barrier.
    pub barrier_shades: u64,
    /// Data-part read operations.
    pub data_reads: u64,
    /// Data-part write operations.
    pub data_writes: u64,
    /// Objects created.
    pub objects_created: u64,
    /// Objects destroyed/reclaimed.
    pub objects_destroyed: u64,
    /// Level-rule violations detected.
    pub level_faults: u64,
    /// Rights violations detected.
    pub rights_faults: u64,
}

impl SpaceStats {
    /// Field-wise accumulation (merging per-shard counters).
    pub fn merge(&mut self, other: &SpaceStats) {
        self.ad_stores += other.ad_stores;
        self.ad_loads += other.ad_loads;
        self.barrier_shades += other.barrier_shades;
        self.data_reads += other.data_reads;
        self.data_writes += other.data_writes;
        self.objects_created += other.objects_created;
        self.objects_destroyed += other.objects_destroyed;
        self.level_faults += other.level_faults;
        self.rights_faults += other.rights_faults;
    }
}

impl std::ops::Sub for SpaceStats {
    type Output = SpaceStats;

    /// Field-wise difference: `after - before` of two snapshots of
    /// monotonically increasing counters.
    fn sub(self, before: SpaceStats) -> SpaceStats {
        SpaceStats {
            ad_stores: self.ad_stores - before.ad_stores,
            ad_loads: self.ad_loads - before.ad_loads,
            barrier_shades: self.barrier_shades - before.barrier_shades,
            data_reads: self.data_reads - before.data_reads,
            data_writes: self.data_writes - before.data_writes,
            objects_created: self.objects_created - before.objects_created,
            objects_destroyed: self.objects_destroyed - before.objects_destroyed,
            level_faults: self.level_faults - before.level_faults,
            rights_faults: self.rights_faults - before.rights_faults,
        }
    }
}

/// Specification for a new object (argument of [`ObjectSpace::create_object`]).
#[derive(Debug, Clone)]
pub struct ObjectSpec {
    /// Data-part length in bytes.
    pub data_len: u32,
    /// Access-part length in slots.
    pub access_len: u32,
    /// Type identity.
    pub otype: ObjectType,
    /// Lifetime level; `None` takes the creating SRO's fixed level. Only
    /// the hardware context-creation path overrides this (contexts are one
    /// level deeper than their caller).
    pub level: Option<Level>,
    /// Interpreted state to attach.
    pub sys: SysState,
}

impl ObjectSpec {
    /// A generic object with the given part sizes.
    pub fn generic(data_len: u32, access_len: u32) -> ObjectSpec {
        ObjectSpec {
            data_len,
            access_len,
            otype: ObjectType::GENERIC,
            level: None,
            sys: SysState::Generic,
        }
    }
}

/// One shard of the checked object space: table plus both storage
/// arenas. Only [`crate::ShardedSpace::new`] builds shards.
///
/// Fields are public for the engine crates (`i432-gdp`, `imax-*`), which
/// play the role of microcode and the operating system; everything else
/// goes through [`crate::ShardedSpace`] or a [`crate::SpaceAgent`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectSpace {
    /// The global object table.
    pub table: ObjectTable,
    /// Data-part storage.
    pub data: DataArena,
    /// Access-part storage.
    pub access: AccessArena,
    /// Operation counters.
    pub stats: SpaceStats,
    root_sro: ObjectRef,
    epoch: Epoch,
}

/// A shard's qualification epoch (see [`crate::qualcache`]), on its own
/// cache line. The shard bumps it; a [`crate::SharedSpace`] holds a
/// second handle so that its lock-free readers can compare it without
/// the shard lock.
#[derive(Debug, Default)]
pub(crate) struct Epoch(Arc<CacheLine<AtomicU64>>);

impl Clone for Epoch {
    /// A copy of a space starts at the same value but bumps on its own.
    fn clone(&self) -> Epoch {
        let value = self.0.load(Ordering::Relaxed);
        Epoch(Arc::new(CacheLine(AtomicU64::new(value))))
    }
}

impl ObjectSpace {
    /// Builds one address-interleaved shard of a space: its table owns
    /// the global object indices `offset (mod stride)`, and it installs
    /// the shard's *root SRO*, which owns all of both (private) arenas at
    /// level 0. Only [`crate::ShardedSpace::new`] builds shards.
    pub(crate) fn new_interleaved(
        data_bytes: u32,
        access_slots: u32,
        table_limit: u32,
        stride: u32,
        offset: u32,
    ) -> ObjectSpace {
        let mut table = ObjectTable::new_strided(table_limit, stride, offset);
        let mut sro = SroState::new(Level::GLOBAL);
        sro.data_free = FreeList::new(0, data_bytes);
        sro.access_free = FreeList::new(0, access_slots);
        let root = table
            .install(
                ObjectDescriptor::new(
                    0,
                    0,
                    0,
                    0,
                    ObjectType::System(SystemType::StorageResource),
                    Level::GLOBAL,
                ),
                SysState::Sro(sro),
            )
            .expect("fresh table cannot be full");
        ObjectSpace {
            table,
            data: DataArena::new(data_bytes),
            access: AccessArena::new(access_slots),
            stats: SpaceStats::default(),
            root_sro: root,
            epoch: Epoch::default(),
        }
    }

    /// A handle on this shard's epoch for a [`crate::SharedSpace`]'s
    /// lock-free readers.
    pub(crate) fn epoch_cell(&self) -> Arc<CacheLine<AtomicU64>> {
        Arc::clone(&self.epoch.0)
    }

    /// Bumps this shard's qualification epoch *before* a mutation that
    /// can change a fact a qualification-cache line holds: an object's
    /// identity, its data base or length, its residency, or its
    /// `accessed`/`dirty` bits. The release fence orders the bump before
    /// the mutation's stores, so a lock-free reader that misses the bump
    /// on revalidation cannot have observed the mutation either. Every
    /// such mutation goes through one of the methods that call this:
    /// [`ObjectSpace::destroy_object`] (and so
    /// [`ObjectSpace::bulk_destroy_sro`]), [`ObjectSpace::entry_mut`]
    /// and [`ObjectSpace::data_mut`].
    fn bump_epoch(&self) {
        self.epoch.0.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
        // A shard's root SRO has the shard's index (see
        // `crate::ShardedSpace::new`).
        i432_trace::emit(i432_trace::EventKind::QualInval, self.root_sro.index.0);
        i432_trace::bump(i432_trace::Counter::QualInvalidations);
    }

    /// The mutable table entry of a live object: a raw entry mutation,
    /// which may change any cached descriptor fact, so the shard's epoch
    /// bumps first.
    pub fn entry_mut(&mut self, r: ObjectRef) -> ArchResult<&mut Entry> {
        self.bump_epoch();
        self.table.get_mut(r)
    }

    /// The data arena, mutably (compaction, swap-in): bytes may move
    /// under cached descriptors, so the shard's epoch bumps first.
    pub fn data_mut(&mut self) -> &mut DataArena {
        self.bump_epoch();
        &mut self.data
    }

    /// The root storage resource object (the global heap's ancestor).
    #[inline]
    pub fn root_sro(&self) -> ObjectRef {
        self.root_sro
    }

    /// Checks that `ad` designates a live object and conveys `needed`
    /// rights; returns the validated reference.
    ///
    /// This is the locked-path qualification step. Its result — plus the
    /// bounds/residency facts `data_window` derives — is exactly what a
    /// [`crate::SpaceAgent`] caches per processor (see
    /// [`crate::qualcache`]); the fast path may reuse it only while the
    /// shard's epoch proves none of those facts could have changed.
    pub fn qualify(&mut self, ad: AccessDescriptor, needed: Rights) -> ArchResult<ObjectRef> {
        self.table.get(ad.obj)?;
        if !ad.rights.contains(needed) {
            self.stats.rights_faults += 1;
            return Err(ArchError::RightsViolation {
                needed,
                held: ad.rights,
            });
        }
        Ok(ad.obj)
    }

    /// Checks liveness and the object's system type.
    pub fn expect_type(&self, ad: AccessDescriptor, t: SystemType) -> ArchResult<ObjectRef> {
        let e = self.table.get(ad.obj)?;
        if e.desc.otype != ObjectType::System(t) {
            return Err(ArchError::TypeMismatch { expected: t.name() });
        }
        Ok(ad.obj)
    }

    // -- Object lifecycle ---------------------------------------------------

    /// Creates an object from the given SRO (trusted path — the caller has
    /// already checked allocate rights on its SRO access descriptor).
    ///
    /// On success the new segment is zeroed, typed, leveled, and charged
    /// to the SRO. Partial failures roll back cleanly.
    pub fn create_object(&mut self, sro: ObjectRef, spec: ObjectSpec) -> ArchResult<ObjectRef> {
        if spec.data_len > MAX_PART_BYTES {
            return Err(ArchError::PartTooLarge {
                requested: spec.data_len,
                max: MAX_PART_BYTES,
            });
        }
        if spec.access_len > MAX_ACCESS_SLOTS {
            return Err(ArchError::PartTooLarge {
                requested: spec.access_len,
                max: MAX_ACCESS_SLOTS,
            });
        }
        // Carve both parts from the SRO.
        let (data_base, access_base, level) = {
            let entry = self.table.get_mut(sro)?;
            let sro_level = entry.desc.level;
            let SysState::Sro(state) = &mut entry.sys else {
                return Err(ArchError::TypeMismatch {
                    expected: "storage-resource",
                });
            };
            let level = spec.level.unwrap_or(state.level);
            // Objects cannot be longer-lived than the SRO that holds their
            // storage, except for the root SRO which is immortal anyway.
            let _ = sro_level;
            // Per-SRO table ceiling: checked before any carving so a
            // quota fault never perturbs the free lists.
            if state.table_quota != 0 && state.object_count >= state.table_quota {
                return Err(ArchError::TableExhausted);
            }
            let data_base = state.data_free.allocate(spec.data_len)?;
            let access_base = match state.access_free.allocate(spec.access_len) {
                Ok(b) => b,
                Err(e) => {
                    state
                        .data_free
                        .release(data_base, spec.data_len)
                        .expect("rollback of fresh allocation");
                    return Err(e);
                }
            };
            state.object_count += 1;
            state.created_total += 1;
            (data_base, access_base, level)
        };
        self.data
            .zero(data_base, spec.data_len)
            .expect("SRO runs lie inside the arena");
        self.access
            .zero(access_base, spec.access_len)
            .expect("SRO runs lie inside the arena");
        let mut desc = ObjectDescriptor::new(
            data_base,
            spec.data_len,
            access_base,
            spec.access_len,
            spec.otype,
            level,
        );
        desc.sro = Some(sro);
        match self.table.install(desc, spec.sys) {
            Ok(r) => {
                self.stats.objects_created += 1;
                i432_trace::emit(i432_trace::EventKind::SroAlloc, r.index.0);
                i432_trace::bump(i432_trace::Counter::SroAllocs);
                i432_trace::observe(i432_trace::Hist::AllocDataBytes, spec.data_len as u64);
                Ok(r)
            }
            Err(e) => {
                // Roll back the carve.
                let entry = self.table.get_mut(sro).expect("SRO was just used");
                if let SysState::Sro(state) = &mut entry.sys {
                    state
                        .data_free
                        .release(data_base, spec.data_len)
                        .expect("rollback");
                    state
                        .access_free
                        .release(access_base, spec.access_len)
                        .expect("rollback");
                    state.object_count -= 1;
                    state.created_total -= 1;
                }
                Err(e)
            }
        }
    }

    /// Destroys an object, returning its storage to its SRO and bumping
    /// the entry generation.
    ///
    /// The access part is nulled first so no descriptor survives in the
    /// arena. The caller (iMAX's storage manager or the garbage collector)
    /// is responsible for having established that the object is
    /// unreachable or being destroyed as part of a level-scoped bulk
    /// reclamation.
    pub fn destroy_object(&mut self, r: ObjectRef) -> ArchResult<Entry> {
        let (data_base, data_len, access_base, access_len, sro) = {
            let e = self.table.get(r)?;
            // An absent (swapped-out) segment's data run was already
            // released to its SRO at swap-out time; releasing it again
            // here would double-free. The swapping manager discards the
            // backing page when it next scrubs stale references.
            let data_len = if e.desc.absent { 0 } else { e.desc.data_len };
            (
                e.desc.data_base,
                data_len,
                e.desc.access_base,
                e.desc.access_len,
                e.desc.sro,
            )
        };
        // Bump before mutating: the object's identity and storage go.
        self.bump_epoch();
        // Destroying an SRO returns its remaining free space to its
        // parent's pool (the space was donated out of the parent). An SRO
        // that still charges live objects must be bulk-destroyed instead.
        if let SysState::Sro(state) = &self.table.get(r)?.sys {
            if state.object_count > 0 {
                return Err(ArchError::TypeMismatch {
                    expected: "empty storage-resource",
                });
            }
            let data_runs: Vec<_> = state.data_free.runs().collect();
            let access_runs: Vec<_> = state.access_free.runs().collect();
            let parent = state.parent;
            if let Some(parent) = parent {
                let pe = self.table.get_mut(parent)?;
                let SysState::Sro(pstate) = &mut pe.sys else {
                    return Err(ArchError::TypeMismatch {
                        expected: "storage-resource",
                    });
                };
                for run in data_runs {
                    pstate.data_free.release(run.base, run.len)?;
                }
                for run in access_runs {
                    pstate.access_free.release(run.base, run.len)?;
                }
            }
        }
        // Null the access part so the arena holds no stale descriptors.
        if access_len > 0 {
            self.access.zero(access_base, access_len)?;
        }
        if let Some(sro) = sro {
            let entry = self.table.get_mut(sro)?;
            let SysState::Sro(state) = &mut entry.sys else {
                return Err(ArchError::TypeMismatch {
                    expected: "storage-resource",
                });
            };
            state.data_free.release(data_base, data_len)?;
            state.access_free.release(access_base, access_len)?;
            state.object_count = state.object_count.saturating_sub(1);
            state.reclaimed_total += 1;
        } else {
            // The root SRO (and only it) has no parent; it is never
            // destroyed.
            return Err(ArchError::TypeMismatch {
                expected: "destructible object",
            });
        }
        self.stats.objects_destroyed += 1;
        self.table.reclaim(r)
    }

    // -- Data-part access ---------------------------------------------------

    fn data_window(
        &mut self,
        ad: AccessDescriptor,
        needed: Rights,
        off: u32,
        len: u32,
    ) -> ArchResult<u32> {
        let r = self.qualify(ad, needed)?;
        let e = self.table.get_mut(r)?;
        if e.desc.absent {
            return Err(ArchError::SegmentAbsent(r.index));
        }
        if off.saturating_add(len) > e.desc.data_len {
            return Err(ArchError::DataBounds {
                offset: off,
                len,
                part_len: e.desc.data_len,
            });
        }
        e.desc.accessed = true;
        if needed.contains(Rights::WRITE) {
            e.desc.dirty = true;
        }
        Ok(e.desc.data_base + off)
    }

    /// Reads bytes from an object's data part through an access descriptor.
    pub fn read_data(&mut self, ad: AccessDescriptor, off: u32, buf: &mut [u8]) -> ArchResult<()> {
        let at = self.data_window(ad, Rights::READ, off, buf.len() as u32)?;
        self.stats.data_reads += 1;
        self.data.read(at, buf)
    }

    /// Writes bytes into an object's data part through an access
    /// descriptor.
    pub fn write_data(&mut self, ad: AccessDescriptor, off: u32, buf: &[u8]) -> ArchResult<()> {
        let at = self.data_window(ad, Rights::WRITE, off, buf.len() as u32)?;
        self.stats.data_writes += 1;
        self.data.write(at, buf)
    }

    // -- Access-part access ---------------------------------------------------

    // Access parts are always resident: iMAX's swapping manager swaps
    // only data parts, so capability topology (and therefore garbage
    // collection and the level rule) never depends on backing-store
    // state. Hence no `absent` check here, unlike `data_window`.
    fn access_slot_at(
        &mut self,
        ad: AccessDescriptor,
        needed: Rights,
        slot: u32,
    ) -> ArchResult<u32> {
        let r = self.qualify(ad, needed)?;
        let e = self.table.get(r)?;
        if slot >= e.desc.access_len {
            return Err(ArchError::AccessBounds {
                slot,
                part_len: e.desc.access_len,
            });
        }
        Ok(e.desc.access_base + slot)
    }

    /// Loads the access descriptor (possibly null) in `slot` of the
    /// container's access part. Requires read rights on the container.
    pub fn load_ad(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
    ) -> ArchResult<Option<AccessDescriptor>> {
        let at = self.access_slot_at(container, Rights::READ, slot)?;
        self.stats.ad_loads += 1;
        self.access.get(at)
    }

    /// Loads a slot that must be non-null.
    pub fn load_ad_required(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
    ) -> ArchResult<AccessDescriptor> {
        self.load_ad(container, slot)?
            .ok_or(ArchError::NullAccess { slot })
    }

    /// Stores an access descriptor (or null) into `slot` of the
    /// container's access part. `self` is the container's shard, and
    /// `target` the shard of the object `ad` designates when that is
    /// another shard (`None` when it is `self`).
    ///
    /// This is the hardware "AD move" path. It enforces:
    /// * write rights on the container;
    /// * the **level rule** — the designated object must live at least as
    ///   long as the container (paper §5);
    ///
    /// and runs the collector's **write barrier** — the designated object
    /// is shaded gray if white (paper §8.1: the hardware "implements the
    /// gray bit of that algorithm, setting it whenever access descriptors
    /// are moved"). The container-side checks and the slot write run on
    /// `self`, the target-side checks and the barrier on the target's
    /// shard, so a sharded space keeps one copy of the enforcement logic.
    pub(crate) fn store_ad(
        &mut self,
        target: Option<&mut ObjectSpace>,
        container: AccessDescriptor,
        slot: u32,
        ad: Option<AccessDescriptor>,
    ) -> ArchResult<()> {
        let (at, container_level) = self.store_ad_prepare(container, slot)?;
        if let Some(ad) = ad {
            target
                .unwrap_or(&mut *self)
                .store_ad_admit(ad.obj, container_level)?;
        }
        self.store_ad_commit(at, ad)
    }

    /// Container-side checks of [`ObjectSpace::store_ad`]: write rights
    /// and slot bounds. Returns the arena address of the slot and the
    /// container's level for the target-side level-rule check.
    fn store_ad_prepare(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
    ) -> ArchResult<(u32, Level)> {
        let at = self.access_slot_at(container, Rights::WRITE, slot)?;
        let container_level = self.table.get(container.obj)?.desc.level;
        Ok((at, container_level))
    }

    /// Target-side checks of [`ObjectSpace::store_ad`]: liveness, the
    /// level rule against the container's level, and the write barrier.
    /// `target` must live in this shard.
    fn store_ad_admit(&mut self, target: ObjectRef, container_level: Level) -> ArchResult<()> {
        let target_level = self.table.get(target)?.desc.level;
        if !container_level.may_hold(target_level) {
            self.stats.level_faults += 1;
            return Err(ArchError::LevelViolation {
                stored: target_level,
                container: container_level,
            });
        }
        // Dijkstra write barrier: shade the target of the new edge.
        self.shade(target)
    }

    /// Commit step of both stores: the slot write plus the store
    /// counter, on the container's shard.
    fn store_ad_commit(&mut self, at: u32, ad: Option<AccessDescriptor>) -> ArchResult<()> {
        self.stats.ad_stores += 1;
        self.access.set(at, ad)
    }

    /// Hardware-linkage store: writes a slot of `container`'s access part
    /// without rights or level checks (bounds are still enforced, and the
    /// write barrier still runs). Shards as in [`ObjectSpace::store_ad`].
    ///
    /// The 432 hardware links processes into port queues, contexts into
    /// processes and processes onto processors as part of *interpreting*
    /// those system objects — these queue/linkage writes are microcode
    /// state manipulation, not program-visible AD stores, so the level
    /// rule of §5 (which governs what *programs* may make reachable from
    /// longer-lived objects) does not apply to them. Only the interpreter
    /// and iMAX's trusted services call this.
    pub(crate) fn store_ad_hw(
        &mut self,
        target: Option<&mut ObjectSpace>,
        container: ObjectRef,
        slot: u32,
        ad: Option<AccessDescriptor>,
    ) -> ArchResult<()> {
        let e = self.table.get(container)?;
        if slot >= e.desc.access_len {
            return Err(ArchError::AccessBounds {
                slot,
                part_len: e.desc.access_len,
            });
        }
        let at = e.desc.access_base + slot;
        if let Some(ad) = ad {
            // Shading checks the target is live, then runs the barrier.
            target.unwrap_or(&mut *self).shade(ad.obj)?;
        }
        self.store_ad_commit(at, ad)
    }

    /// Hardware-linkage load: reads a slot of `container`'s access part
    /// without a rights check (bounds still enforced).
    pub fn load_ad_hw(
        &mut self,
        container: ObjectRef,
        slot: u32,
    ) -> ArchResult<Option<AccessDescriptor>> {
        let e = self.table.get(container)?;
        if slot >= e.desc.access_len {
            return Err(ArchError::AccessBounds {
                slot,
                part_len: e.desc.access_len,
            });
        }
        let at = e.desc.access_base + slot;
        self.stats.ad_loads += 1;
        self.access.get(at)
    }

    // -- Garbage-collection support -------------------------------------------

    /// Shades an object gray if it is white (the hardware gray bit).
    pub fn shade(&mut self, r: ObjectRef) -> ArchResult<()> {
        let e = self.table.get_mut(r)?;
        if e.desc.color == Color::White {
            e.desc.color = Color::Gray;
            self.stats.barrier_shades += 1;
            i432_trace::emit(i432_trace::EventKind::GcShadeGray, r.index.0);
            i432_trace::bump(i432_trace::Counter::GcShadeGrays);
        }
        Ok(())
    }

    /// Reads an object's color.
    pub fn color_of(&self, r: ObjectRef) -> ArchResult<Color> {
        Ok(self.table.get(r)?.desc.color)
    }

    /// Sets an object's color (collector use only).
    pub fn set_color(&mut self, r: ObjectRef, c: Color) -> ArchResult<()> {
        self.table.get_mut(r)?.desc.color = c;
        Ok(())
    }

    /// Iterates the (possibly null) access slots of an object — the
    /// collector's scan of one object. Returns the live descriptors.
    pub fn scan_access_part(&self, r: ObjectRef) -> ArchResult<Vec<AccessDescriptor>> {
        let e = self.table.get(r)?;
        let mut out = Vec::new();
        for s in 0..e.desc.access_len {
            if let Some(ad) = self.access.get(e.desc.access_base + s)? {
                out.push(ad);
            }
        }
        Ok(out)
    }

    // -- Typed views of interpreted state --------------------------------------

    /// Immutable typed view of a port's interpreted state.
    pub fn port(&self, r: ObjectRef) -> ArchResult<&PortState> {
        match &self.table.get(r)?.sys {
            SysState::Port(p) => Ok(p),
            _ => Err(ArchError::TypeMismatch { expected: "port" }),
        }
    }

    /// Mutable typed view of a port's interpreted state.
    pub fn port_mut(&mut self, r: ObjectRef) -> ArchResult<&mut PortState> {
        match &mut self.table.get_mut(r)?.sys {
            SysState::Port(p) => Ok(p),
            _ => Err(ArchError::TypeMismatch { expected: "port" }),
        }
    }

    /// Immutable typed view of a process's interpreted state.
    pub fn process(&self, r: ObjectRef) -> ArchResult<&ProcessState> {
        match &self.table.get(r)?.sys {
            SysState::Process(p) => Ok(p),
            _ => Err(ArchError::TypeMismatch {
                expected: "process",
            }),
        }
    }

    /// Mutable typed view of a process's interpreted state.
    pub fn process_mut(&mut self, r: ObjectRef) -> ArchResult<&mut ProcessState> {
        match &mut self.table.get_mut(r)?.sys {
            SysState::Process(p) => Ok(p),
            _ => Err(ArchError::TypeMismatch {
                expected: "process",
            }),
        }
    }

    /// Immutable typed view of a processor's interpreted state.
    pub fn processor(&self, r: ObjectRef) -> ArchResult<&ProcessorState> {
        match &self.table.get(r)?.sys {
            SysState::Processor(p) => Ok(p),
            _ => Err(ArchError::TypeMismatch {
                expected: "processor",
            }),
        }
    }

    /// Mutable typed view of a processor's interpreted state.
    pub fn processor_mut(&mut self, r: ObjectRef) -> ArchResult<&mut ProcessorState> {
        match &mut self.table.get_mut(r)?.sys {
            SysState::Processor(p) => Ok(p),
            _ => Err(ArchError::TypeMismatch {
                expected: "processor",
            }),
        }
    }

    /// Immutable typed view of an SRO's interpreted state.
    pub fn sro(&self, r: ObjectRef) -> ArchResult<&SroState> {
        match &self.table.get(r)?.sys {
            SysState::Sro(s) => Ok(s),
            _ => Err(ArchError::TypeMismatch {
                expected: "storage-resource",
            }),
        }
    }

    /// Mutable typed view of an SRO's interpreted state.
    pub fn sro_mut(&mut self, r: ObjectRef) -> ArchResult<&mut SroState> {
        match &mut self.table.get_mut(r)?.sys {
            SysState::Sro(s) => Ok(s),
            _ => Err(ArchError::TypeMismatch {
                expected: "storage-resource",
            }),
        }
    }

    /// Immutable typed view of a type-definition object's state.
    pub fn tdo(&self, r: ObjectRef) -> ArchResult<&TdoState> {
        match &self.table.get(r)?.sys {
            SysState::TypeDef(t) => Ok(t),
            _ => Err(ArchError::TypeMismatch {
                expected: "type-definition",
            }),
        }
    }

    /// Mutable typed view of a type-definition object's state.
    pub fn tdo_mut(&mut self, r: ObjectRef) -> ArchResult<&mut TdoState> {
        match &mut self.table.get_mut(r)?.sys {
            SysState::TypeDef(t) => Ok(t),
            _ => Err(ArchError::TypeMismatch {
                expected: "type-definition",
            }),
        }
    }

    /// Destroys an SRO together with every object allocated from it,
    /// recursing through child SROs.
    ///
    /// This is the level-scoped *bulk reclamation* of paper §5: because
    /// the level rule guarantees no access for a local object escaped its
    /// environment, a local heap "will be destroyed automatically when the
    /// process returns above the call depth to which it corresponds"
    /// without leaving dangling references. Returns the number of objects
    /// reclaimed (including SROs).
    pub fn bulk_destroy_sro(&mut self, sro: ObjectRef) -> ArchResult<u32> {
        // Validate target is a live SRO.
        self.sro(sro)?;
        let mut reclaimed = 0;
        // Children first (and recursively, grandchildren). Collect before
        // destroying to keep the borrow checker and iteration honest.
        let children: Vec<ObjectRef> = self
            .table
            .iter_live()
            .filter(|(_, e)| e.desc.sro.map(|s| s == sro).unwrap_or(false))
            .map(|(i, e)| ObjectRef {
                index: i,
                generation: e.generation,
            })
            .collect();
        for child in children {
            // A child may itself be an SRO: recurse so its own objects are
            // reclaimed into it before its storage goes back to us.
            let is_sro = matches!(self.table.get(child).map(|e| &e.sys), Ok(SysState::Sro(_)));
            if is_sro {
                reclaimed += self.bulk_destroy_sro(child)?;
            } else {
                self.destroy_object(child)?;
                reclaimed += 1;
            }
        }
        self.destroy_object(sro)?;
        Ok(reclaimed + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedSpace;

    fn space() -> ShardedSpace {
        ShardedSpace::new(4096, 512, 256, 1)
    }

    #[test]
    fn create_and_rw_roundtrip() {
        let mut s = space();
        let root = s.root_sro();
        let r = s.create_object(root, ObjectSpec::generic(64, 4)).unwrap();
        let ad = s.mint(r, Rights::READ | Rights::WRITE);
        s.write_u64(ad, 0, 0xabcd).unwrap();
        assert_eq!(s.read_u64(ad, 0).unwrap(), 0xabcd);
    }

    #[test]
    fn fresh_object_is_zeroed() {
        let mut s = space();
        let root = s.root_sro();
        let a = s.create_object(root, ObjectSpec::generic(16, 2)).unwrap();
        let ad_a = s.mint(a, Rights::ALL);
        s.write_u64(ad_a, 0, u64::MAX).unwrap();
        s.store_ad(ad_a, 0, Some(ad_a)).unwrap();
        s.destroy_object(a).unwrap();
        let b = s.create_object(root, ObjectSpec::generic(16, 2)).unwrap();
        let ad_b = s.mint(b, Rights::ALL);
        assert_eq!(s.read_u64(ad_b, 0).unwrap(), 0, "data part must be zeroed");
        assert_eq!(
            s.load_ad(ad_b, 0).unwrap(),
            None,
            "access part must be nulled"
        );
    }

    #[test]
    fn rights_enforced_on_data() {
        let mut s = space();
        let root = s.root_sro();
        let r = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let ro = s.mint(r, Rights::READ);
        assert!(matches!(
            s.write_u64(ro, 0, 1),
            Err(ArchError::RightsViolation { .. })
        ));
        assert!(s.read_u64(ro, 0).is_ok());
        assert_eq!(s.stats().rights_faults, 1);
    }

    #[test]
    fn bounds_enforced_on_data() {
        let mut s = space();
        let root = s.root_sro();
        let r = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let ad = s.mint(r, Rights::ALL);
        assert!(matches!(
            s.read_u64(ad, 1),
            Err(ArchError::DataBounds { .. })
        ));
    }

    #[test]
    fn level_rule_enforced_on_store() {
        let mut s = space();
        let root = s.root_sro();
        // A local object at level 2.
        let local = s
            .create_object(
                root,
                ObjectSpec {
                    level: Some(Level(2)),
                    ..ObjectSpec::generic(8, 2)
                },
            )
            .unwrap();
        // A global container at level 0.
        let global = s.create_object(root, ObjectSpec::generic(8, 2)).unwrap();
        let local_ad = s.mint(local, Rights::ALL);
        let global_ad = s.mint(global, Rights::ALL);
        // Storing the local AD into the global object violates lifetimes.
        assert!(matches!(
            s.store_ad(global_ad, 0, Some(local_ad)),
            Err(ArchError::LevelViolation { .. })
        ));
        // The converse is fine.
        s.store_ad(local_ad, 0, Some(global_ad)).unwrap();
        assert_eq!(s.stats().level_faults, 1);
    }

    #[test]
    fn write_barrier_shades_target() {
        let mut s = space();
        let root = s.root_sro();
        let a = s.create_object(root, ObjectSpec::generic(0, 2)).unwrap();
        let b = s.create_object(root, ObjectSpec::generic(0, 0)).unwrap();
        assert_eq!(s.color_of(b).unwrap(), Color::White);
        let a_ad = s.mint(a, Rights::ALL);
        let b_ad = s.mint(b, Rights::NONE);
        s.store_ad(a_ad, 0, Some(b_ad)).unwrap();
        assert_eq!(s.color_of(b).unwrap(), Color::Gray);
        assert_eq!(s.stats().barrier_shades, 1);
        // Storing again does not re-shade a gray object.
        s.store_ad(a_ad, 1, Some(b_ad)).unwrap();
        assert_eq!(s.stats().barrier_shades, 1);
    }

    #[test]
    fn destroy_returns_storage() {
        let mut s = space();
        let root = s.root_sro();
        let free_before = s.sro(root).unwrap().data_free.total_free();
        let r = s.create_object(root, ObjectSpec::generic(128, 8)).unwrap();
        assert_eq!(
            s.sro(root).unwrap().data_free.total_free(),
            free_before - 128
        );
        s.destroy_object(r).unwrap();
        assert_eq!(s.sro(root).unwrap().data_free.total_free(), free_before);
        assert_eq!(s.sro(root).unwrap().object_count, 0);
    }

    #[test]
    fn destroyed_object_is_stale() {
        let mut s = space();
        let root = s.root_sro();
        let r = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let ad = s.mint(r, Rights::ALL);
        s.destroy_object(r).unwrap();
        assert!(s.read_u64(ad, 0).is_err());
    }

    #[test]
    fn part_size_limits() {
        let mut s = ShardedSpace::new(1 << 20, 1 << 16, 64, 1);
        let root = s.root_sro();
        assert!(matches!(
            s.create_object(root, ObjectSpec::generic(MAX_PART_BYTES + 1, 0)),
            Err(ArchError::PartTooLarge { .. })
        ));
        assert!(matches!(
            s.create_object(root, ObjectSpec::generic(0, MAX_ACCESS_SLOTS + 1)),
            Err(ArchError::PartTooLarge { .. })
        ));
    }

    #[test]
    fn exhaustion_rolls_back() {
        let mut s = ShardedSpace::new(64, 2, 64, 1);
        let root = s.root_sro();
        // Data fits but access part cannot: allocation must roll back the
        // data carve.
        let before = s.sro(root).unwrap().data_free.total_free();
        assert!(s.create_object(root, ObjectSpec::generic(32, 100)).is_err());
        assert_eq!(s.sro(root).unwrap().data_free.total_free(), before);
        assert_eq!(s.sro(root).unwrap().object_count, 0);
    }

    #[test]
    fn null_slot_load() {
        let mut s = space();
        let root = s.root_sro();
        let r = s.create_object(root, ObjectSpec::generic(0, 2)).unwrap();
        let ad = s.mint(r, Rights::ALL);
        assert_eq!(s.load_ad(ad, 0).unwrap(), None);
        assert!(matches!(
            s.load_ad_required(ad, 0),
            Err(ArchError::NullAccess { slot: 0 })
        ));
        assert!(matches!(
            s.load_ad(ad, 5),
            Err(ArchError::AccessBounds { .. })
        ));
    }

    #[test]
    fn typed_views_reject_wrong_type() {
        let mut s = space();
        let root = s.root_sro();
        let r = s.create_object(root, ObjectSpec::generic(0, 0)).unwrap();
        assert!(s.port(r).is_err());
        assert!(s.process(r).is_err());
        assert!(s.sro(root).is_ok());
    }

    #[test]
    fn absent_segment_faults() {
        let mut s = space();
        let root = s.root_sro();
        let r = s.create_object(root, ObjectSpec::generic(8, 1)).unwrap();
        s.entry_mut(r).unwrap().desc.absent = true;
        let ad = s.mint(r, Rights::ALL);
        assert!(matches!(
            s.read_u64(ad, 0),
            Err(ArchError::SegmentAbsent(_))
        ));
        // Access parts stay resident under data-part swapping.
        assert!(s.load_ad(ad, 0).is_ok());
    }

    #[test]
    fn accessed_and_dirty_bits_track_use() {
        let mut s = space();
        let root = s.root_sro();
        let r = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let ad = s.mint(r, Rights::ALL);
        assert!(!s.entry(r).unwrap().desc.accessed);
        s.read_u64(ad, 0).unwrap();
        assert!(s.entry(r).unwrap().desc.accessed);
        assert!(!s.entry(r).unwrap().desc.dirty);
        s.write_u64(ad, 0, 7).unwrap();
        assert!(s.entry(r).unwrap().desc.dirty);
    }
}
