//! The capability-kernel boundary: traits through which everything
//! above the architecture layer reaches object storage.
//!
//! Each shard of the space is an [`crate::ObjectSpace`], which holds the
//! one copy of the checks the 432 microcode made — rights, bounds, the
//! level rule, and the gray-bit write barrier. Callers reach the shards
//! through the two implementations of these traits: the exclusively
//! owned [`crate::ShardedSpace`] and a thread's [`crate::SpaceAgent`]
//! onto a shared space (see [`crate::shard`]).
//!
//! Two traits split the surface by locking discipline:
//!
//! * [`SpaceAccess`] — **per-operation** access. Each call is
//!   individually atomic; a striped implementation takes and releases
//!   the affected shard lock(s) inside the call. This is all the
//!   instruction interpreter's data path needs, so independent
//!   processors proceed in parallel when they touch different shards.
//!   Multi-object read-modify-write sequences (port rendezvous,
//!   dispatching, fault delivery) enter an [`SpaceAccess::atomic`]
//!   section, which holds every shard and hands out the full
//!   [`SpaceMut`] view.
//! * [`SpaceMut`] — **exclusive** access. Adds reference-returning
//!   views (table entries, typed system-object state, arenas), which
//!   are only sound while no other thread can reach the space: either
//!   single-threaded ownership ([`crate::ShardedSpace`]) or inside an
//!   atomic section.
//!
//! Both traits are object-safe; trusted native services receive
//! `&mut dyn SpaceMut`. The generic conveniences (closures returning
//! values) live in the blanket extension trait [`SpaceAccessExt`].

use crate::{
    descriptor::{Color, ObjectType, SystemType},
    doorbell::Doorbell,
    error::{ArchError, ArchResult},
    level::Level,
    memory::{AccessArena, DataArena},
    object_table::Entry,
    refs::{AccessDescriptor, ObjectIndex, ObjectRef},
    rights::Rights,
    space::{ObjectSpec, SpaceStats},
    sysobj::{PortState, ProcessState, ProcessorState, SroState, SysState, TdoState},
};

/// Per-operation checked access to an object space.
///
/// Every method is one atomic unit with respect to other holders of the
/// same space; implementations over shared shards lock internally. All
/// checking semantics are exactly those of the corresponding
/// [`crate::ObjectSpace`] methods — implementations forward to them, so
/// the enforcement logic exists once.
///
/// Methods take `&mut self` even where `ObjectSpace` offers `&self`:
/// a striped implementation must be able to lock.
pub trait SpaceAccess {
    /// The root storage resource object of shard 0 (the boot shard).
    fn root_sro(&self) -> ObjectRef;

    /// The root SRO of a given shard. Objects are always created in the
    /// shard of the SRO their storage comes from, so placement policy
    /// is expressed by choosing a root.
    fn root_sro_of(&self, shard: u32) -> ObjectRef;

    /// Number of address-interleaved shards.
    fn shard_count(&self) -> u32;

    /// The shard an object lives in: its table index modulo
    /// [`SpaceAccess::shard_count`].
    fn shard_of(&self, r: ObjectRef) -> u32 {
        r.index.0 % self.shard_count()
    }

    /// Mints an access descriptor (trusted fabrication path).
    fn mint(&self, r: ObjectRef, rights: Rights) -> AccessDescriptor {
        AccessDescriptor::new(r, rights)
    }

    /// See [`crate::ObjectSpace::qualify`].
    fn qualify(&mut self, ad: AccessDescriptor, needed: Rights) -> ArchResult<ObjectRef>;

    /// See [`crate::ObjectSpace::expect_type`].
    fn expect_type(&mut self, ad: AccessDescriptor, t: SystemType) -> ArchResult<ObjectRef>;

    /// See [`crate::ObjectSpace::create_object`].
    fn create_object(&mut self, sro: ObjectRef, spec: ObjectSpec) -> ArchResult<ObjectRef>;

    /// Creates an object from `sro` and stores a descriptor for it,
    /// with `rights`, into `slot` of `container` through
    /// [`SpaceAccess::store_ad`], as one atomic unit: nobody else sees
    /// the new object before that store has shaded it, so a concurrent
    /// sweep can never find it white with no descriptor in the space.
    /// On a failed store the object stays allocated, as if the two
    /// calls had been made separately. The default makes the two calls,
    /// which is atomic for an exclusive owner; a striped implementation
    /// must hold the shard locks across both.
    fn create_object_into(
        &mut self,
        sro: ObjectRef,
        spec: ObjectSpec,
        rights: Rights,
        container: AccessDescriptor,
        slot: u32,
    ) -> ArchResult<ObjectRef> {
        let new = self.create_object(sro, spec)?;
        let ad = self.mint(new, rights);
        self.store_ad(container, slot, Some(ad))?;
        Ok(new)
    }

    /// See [`crate::ObjectSpace::destroy_object`].
    fn destroy_object(&mut self, r: ObjectRef) -> ArchResult<Entry>;

    /// See [`crate::ObjectSpace::bulk_destroy_sro`].
    fn bulk_destroy_sro(&mut self, sro: ObjectRef) -> ArchResult<u32>;

    /// See [`crate::ObjectSpace::read_data`].
    fn read_data(&mut self, ad: AccessDescriptor, off: u32, buf: &mut [u8]) -> ArchResult<()>;

    /// See [`crate::ObjectSpace::write_data`].
    fn write_data(&mut self, ad: AccessDescriptor, off: u32, buf: &[u8]) -> ArchResult<()>;

    /// Reads a 64-bit little-endian word from a data part.
    fn read_u64(&mut self, ad: AccessDescriptor, off: u32) -> ArchResult<u64> {
        let mut b = [0u8; 8];
        self.read_data(ad, off, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a 64-bit little-endian word into a data part.
    fn write_u64(&mut self, ad: AccessDescriptor, off: u32, v: u64) -> ArchResult<()> {
        self.write_data(ad, off, &v.to_le_bytes())
    }

    /// See [`crate::ObjectSpace::load_ad`].
    fn load_ad(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
    ) -> ArchResult<Option<AccessDescriptor>>;

    /// See [`crate::ObjectSpace::load_ad_required`].
    fn load_ad_required(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
    ) -> ArchResult<AccessDescriptor> {
        self.load_ad(container, slot)?
            .ok_or(ArchError::NullAccess { slot })
    }

    /// See [`crate::ShardedSpace::store_ad`]. A striped implementation
    /// locks the container's and the target's shards in canonical order.
    fn store_ad(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
        ad: Option<AccessDescriptor>,
    ) -> ArchResult<()>;

    /// See [`crate::ShardedSpace::store_ad_hw`].
    fn store_ad_hw(
        &mut self,
        container: ObjectRef,
        slot: u32,
        ad: Option<AccessDescriptor>,
    ) -> ArchResult<()>;

    /// See [`crate::ObjectSpace::load_ad_hw`].
    fn load_ad_hw(
        &mut self,
        container: ObjectRef,
        slot: u32,
    ) -> ArchResult<Option<AccessDescriptor>>;

    /// See [`crate::ObjectSpace::shade`].
    fn shade(&mut self, r: ObjectRef) -> ArchResult<()>;

    /// See [`crate::ObjectSpace::color_of`].
    fn color_of(&mut self, r: ObjectRef) -> ArchResult<Color>;

    /// See [`crate::ObjectSpace::set_color`].
    fn set_color(&mut self, r: ObjectRef, c: Color) -> ArchResult<()>;

    /// See [`crate::ObjectSpace::scan_access_part`].
    fn scan_access_part(&mut self, r: ObjectRef) -> ArchResult<Vec<AccessDescriptor>>;

    /// The lifetime level of a live object.
    fn level_of(&mut self, r: ObjectRef) -> ArchResult<Level> {
        let mut out = Level::GLOBAL;
        self.with_entry(r, &mut |e| out = e.desc.level)?;
        Ok(out)
    }

    /// The type identity of a live object.
    fn otype_of(&mut self, r: ObjectRef) -> ArchResult<ObjectType> {
        let mut out = ObjectType::GENERIC;
        self.with_entry(r, &mut |e| out = e.desc.otype)?;
        Ok(out)
    }

    /// Operation counters, merged across shards.
    fn stats(&mut self) -> SpaceStats;

    /// Runs `f` on the table entry of a live object (object-safe
    /// primitive; prefer [`SpaceAccessExt::entry_view`]).
    fn with_entry(&mut self, r: ObjectRef, f: &mut dyn FnMut(&Entry)) -> ArchResult<()>;

    /// Runs `f` on a live object's interpreted (`sys`) state only —
    /// never its descriptor (object-safe primitive; prefer
    /// [`SpaceAccessExt::sys_update`]).
    ///
    /// This narrower contract matters to caching implementations:
    /// descriptor facts (arena base, part length, residency) cannot
    /// change here, so no implementation bumps a qualification epoch.
    /// The interpreter's per-step bookkeeping (instruction pointers,
    /// cycle counters, slice accounting) all routes through this. It has
    /// no default body, so no trait default can bump an epoch behind an
    /// implementation's back.
    fn with_sys_mut(&mut self, r: ObjectRef, f: &mut dyn FnMut(&mut SysState)) -> ArchResult<()>;

    /// Runs `f` with exclusive access to the whole space (object-safe
    /// primitive; prefer [`SpaceAccessExt::atomically`]). A striped
    /// implementation acquires every shard lock, in shard order, for the
    /// duration of `f` — this is the emulator's stand-in for the 432's
    /// indivisible microcode sequences (port rendezvous, dispatching).
    fn atomic(&mut self, f: &mut dyn FnMut(&mut dyn SpaceMut));

    /// The per-space port-ring registry backing the lock-free SEND/RECEIVE
    /// fast path, when this space has one. The deterministic runner never
    /// enables its space's registry, so it always takes the locked
    /// rendezvous path.
    fn port_rings(&self) -> Option<&std::sync::Arc<crate::portring::PortRingRegistry>>;
}

/// Generic conveniences over [`SpaceAccess`] (blanket-implemented).
pub trait SpaceAccessExt: SpaceAccess {
    /// Runs `f` on the table entry of a live object and returns its
    /// result.
    fn entry_view<R>(&mut self, r: ObjectRef, f: impl FnOnce(&Entry) -> R) -> ArchResult<R> {
        let mut f = Some(f);
        let mut out = None;
        self.with_entry(r, &mut |e| {
            if let Some(f) = f.take() {
                out = Some(f(e));
            }
        })?;
        Ok(out.expect("with_entry invokes its closure on success"))
    }

    /// Runs `f` on a live object's interpreted (`sys`) state and
    /// returns its result. See [`SpaceAccess::with_sys_mut`] for why
    /// sys-only mutation is a distinct (cheaper) primitive.
    fn sys_update<R>(&mut self, r: ObjectRef, f: impl FnOnce(&mut SysState) -> R) -> ArchResult<R> {
        let mut f = Some(f);
        let mut out = None;
        self.with_sys_mut(r, &mut |sys| {
            if let Some(f) = f.take() {
                out = Some(f(sys));
            }
        })?;
        Ok(out.expect("with_sys_mut invokes its closure on success"))
    }

    /// Runs `f` with exclusive access to the whole space and returns its
    /// result.
    fn atomically<R>(&mut self, f: impl FnOnce(&mut dyn SpaceMut) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.atomic(&mut |s| {
            if let Some(f) = f.take() {
                out = Some(f(s));
            }
        });
        out.expect("atomic invokes its closure")
    }

    /// Reads a process's interpreted state.
    fn with_process<R>(
        &mut self,
        r: ObjectRef,
        f: impl FnOnce(&ProcessState) -> R,
    ) -> ArchResult<R> {
        self.entry_view(r, |e| match &e.sys {
            SysState::Process(p) => Ok(f(p)),
            _ => Err(ArchError::TypeMismatch {
                expected: "process",
            }),
        })?
    }

    /// Updates a process's interpreted state.
    fn with_process_mut<R>(
        &mut self,
        r: ObjectRef,
        f: impl FnOnce(&mut ProcessState) -> R,
    ) -> ArchResult<R> {
        self.sys_update(r, |sys| match sys {
            SysState::Process(p) => Ok(f(p)),
            _ => Err(ArchError::TypeMismatch {
                expected: "process",
            }),
        })?
    }

    /// Reads a processor's interpreted state.
    fn with_processor<R>(
        &mut self,
        r: ObjectRef,
        f: impl FnOnce(&ProcessorState) -> R,
    ) -> ArchResult<R> {
        self.entry_view(r, |e| match &e.sys {
            SysState::Processor(p) => Ok(f(p)),
            _ => Err(ArchError::TypeMismatch {
                expected: "processor",
            }),
        })?
    }

    /// Updates a processor's interpreted state.
    fn with_processor_mut<R>(
        &mut self,
        r: ObjectRef,
        f: impl FnOnce(&mut ProcessorState) -> R,
    ) -> ArchResult<R> {
        self.sys_update(r, |sys| match sys {
            SysState::Processor(p) => Ok(f(p)),
            _ => Err(ArchError::TypeMismatch {
                expected: "processor",
            }),
        })?
    }

    /// Reads a port's interpreted state.
    fn with_port<R>(&mut self, r: ObjectRef, f: impl FnOnce(&PortState) -> R) -> ArchResult<R> {
        self.entry_view(r, |e| match &e.sys {
            SysState::Port(p) => Ok(f(p)),
            _ => Err(ArchError::TypeMismatch { expected: "port" }),
        })?
    }

    /// Reads an SRO's interpreted state.
    fn with_sro<R>(&mut self, r: ObjectRef, f: impl FnOnce(&SroState) -> R) -> ArchResult<R> {
        self.entry_view(r, |e| match &e.sys {
            SysState::Sro(s) => Ok(f(s)),
            _ => Err(ArchError::TypeMismatch {
                expected: "storage-resource",
            }),
        })?
    }

    /// Updates a type-definition object's interpreted state.
    fn with_tdo_mut<R>(
        &mut self,
        r: ObjectRef,
        f: impl FnOnce(&mut TdoState) -> R,
    ) -> ArchResult<R> {
        self.sys_update(r, |sys| match sys {
            SysState::TypeDef(t) => Ok(f(t)),
            _ => Err(ArchError::TypeMismatch {
                expected: "type-definition",
            }),
        })?
    }
}

impl<S: SpaceAccess + ?Sized> SpaceAccessExt for S {}

/// Exclusive checked access: everything in [`SpaceAccess`], plus the
/// reference-returning views that are only sound while the holder has
/// the space to itself.
pub trait SpaceMut: SpaceAccess {
    /// Resolves a reference to its table entry. See
    /// [`crate::ObjectTable::get`].
    fn entry(&self, r: ObjectRef) -> ArchResult<&Entry>;

    /// Mutable variant of [`SpaceMut::entry`].
    fn entry_mut(&mut self, r: ObjectRef) -> ArchResult<&mut Entry>;

    /// Resolves by bare index (collector sweeps). See
    /// [`crate::ObjectTable::get_by_index`].
    fn entry_by_index(&self, i: ObjectIndex) -> Option<&Entry>;

    /// Current full reference for a live index. See
    /// [`crate::ObjectTable::ref_for`].
    fn ref_for(&self, i: ObjectIndex) -> ArchResult<ObjectRef>;

    /// One past the largest valid object index, across all shards
    /// (sweep bound). See [`crate::ObjectTable::index_space_end`].
    fn index_space_end(&self) -> u32;

    /// Number of live objects, across all shards.
    fn live_count(&self) -> u32;

    /// Visits every live entry with its global index.
    fn for_each_live(&self, f: &mut dyn FnMut(ObjectIndex, &Entry));

    /// The dispatching port's doorbell: every section that changes that
    /// port's queue records the new length here.
    fn doorbell(&self) -> &Doorbell;

    /// Leaf pages currently allocated across the space's object-table
    /// directories (see [`crate::ObjectTable::leaf_pages`]). The
    /// storage layer's memory budget watches this to notice directory
    /// growth.
    fn leaf_pages(&self) -> u32;

    /// The lowest global index `>= from` that could hold a live entry,
    /// or [`SpaceMut::index_space_end`] when none remains. Page-granular
    /// (never skips a live entry, may land on a dead one); incremental
    /// sweeps use it to jump dead directory ranges in O(pages), not
    /// O(indices).
    fn next_possibly_live(&self, from: u32) -> u32;

    /// Visits every live entry with global index in `[start, end)`, in
    /// ascending index order, returning the number of directory leaf
    /// pages probed. Cost O(live-in-range + pages probed).
    fn for_live_in_range(
        &self,
        start: u32,
        end: u32,
        f: &mut dyn FnMut(ObjectIndex, &Entry),
    ) -> u32;

    /// The data arena holding `r`'s data part (the object's shard's
    /// arena; descriptor base addresses are offsets into it).
    fn data_arena(&self, r: ObjectRef) -> ArchResult<&DataArena>;

    /// Mutable variant of [`SpaceMut::data_arena`].
    fn data_arena_mut(&mut self, r: ObjectRef) -> ArchResult<&mut DataArena>;

    /// The access arena holding `r`'s access part (the object's shard's
    /// arena; descriptor base addresses are offsets into it). Used by
    /// the digest/invariant sweeps to walk raw slots without the per-op
    /// rights checks of [`SpaceAccess::load_ad`].
    fn access_arena(&self, r: ObjectRef) -> ArchResult<&AccessArena>;

    /// The stat counters charged for operations on `r`'s shard.
    fn stats_mut_of(&mut self, r: ObjectRef) -> &mut SpaceStats;

    /// See [`crate::ObjectSpace::port`].
    fn port(&self, r: ObjectRef) -> ArchResult<&PortState>;

    /// See [`crate::ObjectSpace::port_mut`].
    fn port_mut(&mut self, r: ObjectRef) -> ArchResult<&mut PortState>;

    /// See [`crate::ObjectSpace::process`].
    fn process(&self, r: ObjectRef) -> ArchResult<&ProcessState>;

    /// See [`crate::ObjectSpace::process_mut`].
    fn process_mut(&mut self, r: ObjectRef) -> ArchResult<&mut ProcessState>;

    /// See [`crate::ObjectSpace::processor`].
    fn processor(&self, r: ObjectRef) -> ArchResult<&ProcessorState>;

    /// See [`crate::ObjectSpace::processor_mut`].
    fn processor_mut(&mut self, r: ObjectRef) -> ArchResult<&mut ProcessorState>;

    /// See [`crate::ObjectSpace::sro`].
    fn sro(&self, r: ObjectRef) -> ArchResult<&SroState>;

    /// See [`crate::ObjectSpace::sro_mut`].
    fn sro_mut(&mut self, r: ObjectRef) -> ArchResult<&mut SroState>;

    /// See [`crate::ObjectSpace::tdo`].
    fn tdo(&self, r: ObjectRef) -> ArchResult<&TdoState>;

    /// See [`crate::ObjectSpace::tdo_mut`].
    fn tdo_mut(&mut self, r: ObjectRef) -> ArchResult<&mut TdoState>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedSpace;

    // A function generic over the per-op boundary, exercised both with a
    // concrete space and with the `dyn SpaceMut` view an atomic section
    // (or a native service) receives — the latter checks that trait
    // objects of the subtrait satisfy `SpaceAccess` bounds.
    fn make_and_link<S: SpaceAccess + ?Sized>(s: &mut S) -> ArchResult<ObjectRef> {
        let root = s.root_sro();
        let a = s.create_object(root, ObjectSpec::generic(16, 2))?;
        let b = s.create_object(root, ObjectSpec::generic(8, 0))?;
        let a_ad = s.mint(a, Rights::ALL);
        s.store_ad(a_ad, 0, Some(s.mint(b, Rights::READ)))?;
        s.write_u64(a_ad, 0, 42)?;
        Ok(a)
    }

    #[test]
    fn atomic_section_exposes_space_mut() {
        let mut s = ShardedSpace::new(4096, 512, 256, 1);
        let a = s.atomically(|sm| {
            let a = make_and_link(sm).unwrap();
            assert!(sm.entry(a).is_ok());
            assert_eq!(sm.live_count(), 3); // root SRO + two objects
            a
        });
        assert_eq!(s.level_of(a).unwrap(), Level::GLOBAL);
    }

    #[test]
    fn typed_closures_reject_wrong_sys_state() {
        let mut s = ShardedSpace::new(4096, 512, 256, 1);
        let root = s.root_sro();
        let r = s.create_object(root, ObjectSpec::generic(0, 0)).unwrap();
        assert!(s.with_process(r, |_| ()).is_err());
        assert!(s.with_sro(root, |sro| sro.object_count).is_ok());
    }
}
