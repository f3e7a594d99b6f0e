//! Lock-striped sharding of the object space.
//!
//! The object table and both arenas are partitioned into `N`
//! address-interleaved shards: object index `i` lives in shard
//! `i % N`, each shard has its own [`ObjectSpace`] (table slice, data
//! arena, access arena, stat counters, and root SRO). Since an object's
//! storage always comes from an SRO in its own shard, allocation,
//! destruction and SRO free-list traffic are shard-local; the only
//! genuinely cross-shard operation is storing an access descriptor
//! whose target lives elsewhere, which runs the container-side steps of
//! the store on the container's shard and the target-side steps on the
//! target's.
//!
//! Two types expose the partition, and they are the only
//! implementations of [`SpaceAccess`] and [`SpaceMut`]:
//!
//! * [`ShardedSpace`] — exclusive ownership, no locks. The
//!   deterministic simulator, unit tests and examples use this; a
//!   one-shard space is the plain unpartitioned space.
//! * [`SharedSpace`] — the same [`ShardedSpace`] behind one mutex per
//!   shard, shared by reference across host threads. Each thread works
//!   through a [`SpaceAgent`], whose per-operation locking takes the
//!   affected shard (or, for cross-shard AD stores, both shards in
//!   canonical index order — lowest first — so lock acquisition cannot
//!   deadlock). Multi-object sequences take every lock via
//!   [`SpaceAccess::atomic`].

use crate::{
    descriptor::{Color, SystemType},
    doorbell::Doorbell,
    error::ArchResult,
    memory::{AccessArena, DataArena},
    object_table::{Divisor, Entry},
    portring::PortRingRegistry,
    qualcache::{QualCache, QualLine},
    refs::{AccessDescriptor, ObjectIndex, ObjectRef},
    rights::Rights,
    space::{ObjectSpace, ObjectSpec, SpaceStats},
    sysobj::{PortState, ProcessState, ProcessorState, SroState, SysState, TdoState},
    traits::{SpaceAccess, SpaceMut},
    CacheLine,
};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// An object space partitioned into address-interleaved shards, owned
/// exclusively (no internal locking).
#[derive(Debug)]
pub struct ShardedSpace {
    shards: Vec<ObjectSpace>,
    /// The shard count as a [`Divisor`], for index→shard routing.
    shard_div: Divisor,
    /// Port-ring registry for the lock-free SEND/RECEIVE fast path
    /// (see [`crate::portring`]). Created disabled — the deterministic
    /// runner never consults it; the threaded runner switches it on.
    port_rings: Arc<PortRingRegistry>,
    /// The dispatching port's doorbell (see [`crate::doorbell`]), on its
    /// own cache line: every enqueue and dequeue at the dispatching port
    /// writes it, and waiting threads spin on it.
    doorbell: Arc<CacheLine<Doorbell>>,
}

impl Clone for ShardedSpace {
    /// Clones the shards and the doorbell's watched port and queue
    /// length. The clone gets its own fresh, disabled ring registry,
    /// since rings name objects by table index and generation within one
    /// space's lifetime.
    fn clone(&self) -> ShardedSpace {
        ShardedSpace {
            shards: self.shards.clone(),
            shard_div: self.shard_div,
            port_rings: Arc::new(PortRingRegistry::new()),
            doorbell: Arc::new(CacheLine(self.doorbell.copy())),
        }
    }
}

impl ShardedSpace {
    /// Builds `n` shards splitting the given arena budget and table
    /// limit evenly, each with its own root SRO. With `n == 1` the one
    /// shard owns the whole budget and every object index.
    pub fn new(data_bytes: u32, access_slots: u32, table_limit: u32, n: u32) -> ShardedSpace {
        assert!(n >= 1, "at least one shard");
        let shards = (0..n)
            .map(|k| {
                ObjectSpace::new_interleaved(
                    data_bytes / n,
                    access_slots / n,
                    table_limit / n,
                    n,
                    k,
                )
            })
            .collect();
        ShardedSpace {
            shards,
            shard_div: Divisor::new(n),
            port_rings: Arc::new(PortRingRegistry::new()),
            doorbell: Arc::default(),
        }
    }

    /// The space's port-ring registry (disabled unless a runner enabled
    /// it). Runners hold their own `Arc` clone to flip the switch and
    /// flush rings without borrowing the space.
    #[inline]
    pub fn port_ring_registry(&self) -> &Arc<PortRingRegistry> {
        &self.port_rings
    }

    /// The dispatching port's doorbell. The system names the port it
    /// watches when it creates the port.
    #[inline]
    pub fn doorbell(&self) -> &Doorbell {
        &self.doorbell
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard holding object index `i`.
    #[inline]
    fn shard_for(&self, r: ObjectRef) -> usize {
        self.shard_of(r.index)
    }

    /// The shard holding object index `i`: `i % N`.
    #[inline]
    fn shard_of(&self, i: ObjectIndex) -> usize {
        self.shard_div.rem(i.0) as usize
    }

    /// Read-only access to one shard (diagnostics such as table
    /// capacity and validation).
    pub fn shard(&self, k: u32) -> &ObjectSpace {
        &self.shards[k as usize]
    }

    /// Shard `a` and, when `b` is another shard, shard `b` as well, as
    /// simultaneous mutable borrows (the shards an AD store touches).
    fn store_shards(&mut self, a: usize, b: usize) -> (&mut ObjectSpace, Option<&mut ObjectSpace>) {
        if a == b {
            return (&mut self.shards[a], None);
        }
        let (lo, hi) = self.shards.split_at_mut(a.max(b));
        if a < b {
            (&mut lo[a], Some(&mut hi[0]))
        } else {
            (&mut hi[0], Some(&mut lo[b]))
        }
    }

    /// The root SRO of shard 0 (the boot shard).
    #[inline]
    pub fn root_sro(&self) -> ObjectRef {
        self.shards[0].root_sro()
    }

    /// The root SRO of shard `k`.
    #[inline]
    pub fn root_sro_of(&self, k: u32) -> ObjectRef {
        self.shards[k as usize].root_sro()
    }

    /// Mints an access descriptor for `r` with the given rights.
    ///
    /// This is the *trusted* fabrication path, corresponding to microcode
    /// and type-manager privilege; ordinary programs only ever receive
    /// descriptors minted by object creation or derived by restriction.
    #[inline]
    pub fn mint(&self, r: ObjectRef, rights: Rights) -> AccessDescriptor {
        AccessDescriptor::new(r, rights)
    }

    /// See [`ObjectSpace::qualify`].
    pub fn qualify(&mut self, ad: AccessDescriptor, needed: Rights) -> ArchResult<ObjectRef> {
        let k = self.shard_for(ad.obj);
        self.shards[k].qualify(ad, needed)
    }

    /// See [`ObjectSpace::expect_type`].
    pub fn expect_type(&self, ad: AccessDescriptor, t: SystemType) -> ArchResult<ObjectRef> {
        let k = self.shard_for(ad.obj);
        self.shards[k].expect_type(ad, t)
    }

    /// See [`ObjectSpace::create_object`]. The object is created in the
    /// SRO's shard.
    pub fn create_object(&mut self, sro: ObjectRef, spec: ObjectSpec) -> ArchResult<ObjectRef> {
        let k = self.shard_for(sro);
        self.shards[k].create_object(sro, spec)
    }

    /// See [`ObjectSpace::destroy_object`]. An object's SRO lives in its
    /// own shard, so destruction is shard-local.
    pub fn destroy_object(&mut self, r: ObjectRef) -> ArchResult<Entry> {
        let k = self.shard_for(r);
        self.shards[k].destroy_object(r)
    }

    /// See [`ObjectSpace::bulk_destroy_sro`].
    pub fn bulk_destroy_sro(&mut self, sro: ObjectRef) -> ArchResult<u32> {
        let k = self.shard_for(sro);
        self.shards[k].bulk_destroy_sro(sro)
    }

    /// See [`ObjectSpace::read_data`].
    pub fn read_data(&mut self, ad: AccessDescriptor, off: u32, buf: &mut [u8]) -> ArchResult<()> {
        let k = self.shard_for(ad.obj);
        self.shards[k].read_data(ad, off, buf)
    }

    /// See [`ObjectSpace::write_data`].
    pub fn write_data(&mut self, ad: AccessDescriptor, off: u32, buf: &[u8]) -> ArchResult<()> {
        let k = self.shard_for(ad.obj);
        self.shards[k].write_data(ad, off, buf)
    }

    /// Reads a 64-bit little-endian word from a data part.
    pub fn read_u64(&mut self, ad: AccessDescriptor, off: u32) -> ArchResult<u64> {
        let mut b = [0u8; 8];
        self.read_data(ad, off, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a 64-bit little-endian word into a data part.
    pub fn write_u64(&mut self, ad: AccessDescriptor, off: u32, v: u64) -> ArchResult<()> {
        self.write_data(ad, off, &v.to_le_bytes())
    }

    /// See [`ObjectSpace::load_ad`].
    pub fn load_ad(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
    ) -> ArchResult<Option<AccessDescriptor>> {
        let k = self.shard_for(container.obj);
        self.shards[k].load_ad(container, slot)
    }

    /// See [`ObjectSpace::load_ad_required`].
    pub fn load_ad_required(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
    ) -> ArchResult<AccessDescriptor> {
        let k = self.shard_for(container.obj);
        self.shards[k].load_ad_required(container, slot)
    }

    /// Stores an access descriptor (or null) into `slot` of the
    /// container's access part: the hardware "AD move", which checks
    /// write rights and the level rule (paper §5) and runs the gray-bit
    /// write barrier (paper §8.1). A cross-shard store runs the
    /// container-side steps on the container's shard and the
    /// target-side steps on the target's.
    pub fn store_ad(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
        ad: Option<AccessDescriptor>,
    ) -> ArchResult<()> {
        let a = self.shard_for(container.obj);
        let b = ad.map_or(a, |t| self.shard_for(t.obj));
        let (ca, tb) = self.store_shards(a, b);
        ca.store_ad(tb, container, slot, ad)
    }

    /// Hardware-linkage store: [`ShardedSpace::store_ad`] without the
    /// rights and level checks (bounds and the write barrier still
    /// apply). Only the interpreter and iMAX's trusted services call it.
    pub fn store_ad_hw(
        &mut self,
        container: ObjectRef,
        slot: u32,
        ad: Option<AccessDescriptor>,
    ) -> ArchResult<()> {
        let a = self.shard_for(container);
        let b = ad.map_or(a, |t| self.shard_for(t.obj));
        let (ca, tb) = self.store_shards(a, b);
        ca.store_ad_hw(tb, container, slot, ad)
    }

    /// See [`ObjectSpace::load_ad_hw`].
    pub fn load_ad_hw(
        &mut self,
        container: ObjectRef,
        slot: u32,
    ) -> ArchResult<Option<AccessDescriptor>> {
        let k = self.shard_for(container);
        self.shards[k].load_ad_hw(container, slot)
    }

    /// See [`ObjectSpace::shade`].
    pub fn shade(&mut self, r: ObjectRef) -> ArchResult<()> {
        let k = self.shard_for(r);
        self.shards[k].shade(r)
    }

    /// See [`ObjectSpace::color_of`].
    pub fn color_of(&self, r: ObjectRef) -> ArchResult<Color> {
        let k = self.shard_for(r);
        self.shards[k].color_of(r)
    }

    /// See [`ObjectSpace::set_color`].
    pub fn set_color(&mut self, r: ObjectRef, c: Color) -> ArchResult<()> {
        let k = self.shard_for(r);
        self.shards[k].set_color(r, c)
    }

    /// See [`ObjectSpace::scan_access_part`].
    pub fn scan_access_part(&self, r: ObjectRef) -> ArchResult<Vec<AccessDescriptor>> {
        let k = self.shard_for(r);
        self.shards[k].scan_access_part(r)
    }

    /// Resolves a reference to its table entry (shard-routed
    /// [`crate::ObjectTable::get`]).
    pub fn entry(&self, r: ObjectRef) -> ArchResult<&Entry> {
        let k = self.shard_for(r);
        self.shards[k].table.get(r)
    }

    /// Mutable variant of [`ShardedSpace::entry`]. See
    /// [`ObjectSpace::entry_mut`]: the shard's epoch bumps.
    pub fn entry_mut(&mut self, r: ObjectRef) -> ArchResult<&mut Entry> {
        let k = self.shard_for(r);
        self.shards[k].entry_mut(r)
    }

    /// Shard-routed [`crate::ObjectTable::get_by_index`].
    pub fn entry_by_index(&self, i: ObjectIndex) -> Option<&Entry> {
        let k = self.shard_of(i);
        self.shards[k].table.get_by_index(i)
    }

    /// Shard-routed [`crate::ObjectTable::ref_for`].
    pub fn ref_for(&self, i: ObjectIndex) -> ArchResult<ObjectRef> {
        let k = self.shard_of(i);
        self.shards[k].table.ref_for(i)
    }

    /// One past the largest valid object index across all shards.
    pub fn index_space_end(&self) -> u32 {
        self.shards
            .iter()
            .map(|s| s.table.index_space_end())
            .max()
            .unwrap_or(0)
    }

    /// Live objects across all shards.
    pub fn live_count(&self) -> u32 {
        self.shards.iter().map(|s| s.table.live_count()).sum()
    }

    /// Operation counters merged across shards.
    pub fn stats(&self) -> SpaceStats {
        let mut total = SpaceStats::default();
        for s in &self.shards {
            total.merge(&s.stats);
        }
        total
    }

    /// Per-shard counters (diagnostics; `stats()` is the merged view).
    pub fn stats_of_shard(&self, k: u32) -> SpaceStats {
        self.shards[k as usize].stats
    }

    /// Placement-independent logical digest of the whole space. Equal
    /// digests mean equal logical state regardless of shard count or
    /// allocation order; see [`crate::digest::logical_digest`].
    pub fn digest(&self) -> u64 {
        crate::digest::logical_digest(self)
    }

    /// See [`ObjectSpace::port`].
    pub fn port(&self, r: ObjectRef) -> ArchResult<&PortState> {
        let k = self.shard_for(r);
        self.shards[k].port(r)
    }

    /// See [`ObjectSpace::port_mut`].
    pub fn port_mut(&mut self, r: ObjectRef) -> ArchResult<&mut PortState> {
        let k = self.shard_for(r);
        self.shards[k].port_mut(r)
    }

    /// See [`ObjectSpace::process`].
    pub fn process(&self, r: ObjectRef) -> ArchResult<&ProcessState> {
        let k = self.shard_for(r);
        self.shards[k].process(r)
    }

    /// See [`ObjectSpace::process_mut`].
    pub fn process_mut(&mut self, r: ObjectRef) -> ArchResult<&mut ProcessState> {
        let k = self.shard_for(r);
        self.shards[k].process_mut(r)
    }

    /// See [`ObjectSpace::processor`].
    pub fn processor(&self, r: ObjectRef) -> ArchResult<&ProcessorState> {
        let k = self.shard_for(r);
        self.shards[k].processor(r)
    }

    /// See [`ObjectSpace::processor_mut`].
    pub fn processor_mut(&mut self, r: ObjectRef) -> ArchResult<&mut ProcessorState> {
        let k = self.shard_for(r);
        self.shards[k].processor_mut(r)
    }

    /// See [`ObjectSpace::sro`].
    pub fn sro(&self, r: ObjectRef) -> ArchResult<&SroState> {
        let k = self.shard_for(r);
        self.shards[k].sro(r)
    }

    /// See [`ObjectSpace::sro_mut`].
    pub fn sro_mut(&mut self, r: ObjectRef) -> ArchResult<&mut SroState> {
        let k = self.shard_for(r);
        self.shards[k].sro_mut(r)
    }

    /// See [`ObjectSpace::tdo`].
    pub fn tdo(&self, r: ObjectRef) -> ArchResult<&TdoState> {
        let k = self.shard_for(r);
        self.shards[k].tdo(r)
    }

    /// See [`ObjectSpace::tdo_mut`].
    pub fn tdo_mut(&mut self, r: ObjectRef) -> ArchResult<&mut TdoState> {
        let k = self.shard_for(r);
        self.shards[k].tdo_mut(r)
    }
}

impl SpaceAccess for ShardedSpace {
    fn root_sro(&self) -> ObjectRef {
        ShardedSpace::root_sro(self)
    }

    fn root_sro_of(&self, shard: u32) -> ObjectRef {
        ShardedSpace::root_sro_of(self, shard)
    }

    fn shard_count(&self) -> u32 {
        ShardedSpace::shard_count(self)
    }

    fn qualify(&mut self, ad: AccessDescriptor, needed: Rights) -> ArchResult<ObjectRef> {
        ShardedSpace::qualify(self, ad, needed)
    }

    fn expect_type(&mut self, ad: AccessDescriptor, t: SystemType) -> ArchResult<ObjectRef> {
        ShardedSpace::expect_type(self, ad, t)
    }

    fn create_object(&mut self, sro: ObjectRef, spec: ObjectSpec) -> ArchResult<ObjectRef> {
        ShardedSpace::create_object(self, sro, spec)
    }

    fn destroy_object(&mut self, r: ObjectRef) -> ArchResult<Entry> {
        ShardedSpace::destroy_object(self, r)
    }

    fn bulk_destroy_sro(&mut self, sro: ObjectRef) -> ArchResult<u32> {
        ShardedSpace::bulk_destroy_sro(self, sro)
    }

    fn read_data(&mut self, ad: AccessDescriptor, off: u32, buf: &mut [u8]) -> ArchResult<()> {
        ShardedSpace::read_data(self, ad, off, buf)
    }

    fn write_data(&mut self, ad: AccessDescriptor, off: u32, buf: &[u8]) -> ArchResult<()> {
        ShardedSpace::write_data(self, ad, off, buf)
    }

    fn load_ad(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
    ) -> ArchResult<Option<AccessDescriptor>> {
        ShardedSpace::load_ad(self, container, slot)
    }

    fn store_ad(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
        ad: Option<AccessDescriptor>,
    ) -> ArchResult<()> {
        ShardedSpace::store_ad(self, container, slot, ad)
    }

    fn store_ad_hw(
        &mut self,
        container: ObjectRef,
        slot: u32,
        ad: Option<AccessDescriptor>,
    ) -> ArchResult<()> {
        ShardedSpace::store_ad_hw(self, container, slot, ad)
    }

    fn load_ad_hw(
        &mut self,
        container: ObjectRef,
        slot: u32,
    ) -> ArchResult<Option<AccessDescriptor>> {
        ShardedSpace::load_ad_hw(self, container, slot)
    }

    fn shade(&mut self, r: ObjectRef) -> ArchResult<()> {
        ShardedSpace::shade(self, r)
    }

    fn color_of(&mut self, r: ObjectRef) -> ArchResult<Color> {
        ShardedSpace::color_of(self, r)
    }

    fn set_color(&mut self, r: ObjectRef, c: Color) -> ArchResult<()> {
        ShardedSpace::set_color(self, r, c)
    }

    fn scan_access_part(&mut self, r: ObjectRef) -> ArchResult<Vec<AccessDescriptor>> {
        ShardedSpace::scan_access_part(self, r)
    }

    fn stats(&mut self) -> SpaceStats {
        ShardedSpace::stats(self)
    }

    fn with_entry(&mut self, r: ObjectRef, f: &mut dyn FnMut(&Entry)) -> ArchResult<()> {
        f(self.entry(r)?);
        Ok(())
    }

    fn with_sys_mut(&mut self, r: ObjectRef, f: &mut dyn FnMut(&mut SysState)) -> ArchResult<()> {
        // Sys state is never cached: no epoch bump.
        let k = self.shard_for(r);
        f(&mut self.shards[k].table.get_mut(r)?.sys);
        Ok(())
    }

    fn atomic(&mut self, f: &mut dyn FnMut(&mut dyn SpaceMut)) {
        f(self)
    }

    fn port_rings(&self) -> Option<&Arc<PortRingRegistry>> {
        Some(&self.port_rings)
    }
}

impl SpaceMut for ShardedSpace {
    fn entry(&self, r: ObjectRef) -> ArchResult<&Entry> {
        ShardedSpace::entry(self, r)
    }

    fn entry_mut(&mut self, r: ObjectRef) -> ArchResult<&mut Entry> {
        ShardedSpace::entry_mut(self, r)
    }

    fn entry_by_index(&self, i: ObjectIndex) -> Option<&Entry> {
        ShardedSpace::entry_by_index(self, i)
    }

    fn ref_for(&self, i: ObjectIndex) -> ArchResult<ObjectRef> {
        ShardedSpace::ref_for(self, i)
    }

    fn index_space_end(&self) -> u32 {
        ShardedSpace::index_space_end(self)
    }

    fn live_count(&self) -> u32 {
        ShardedSpace::live_count(self)
    }

    fn for_each_live(&self, f: &mut dyn FnMut(ObjectIndex, &Entry)) {
        for s in &self.shards {
            for (i, e) in s.table.iter_live() {
                f(i, e);
            }
        }
    }

    fn leaf_pages(&self) -> u32 {
        self.shards.iter().map(|s| s.table.leaf_pages()).sum()
    }

    fn doorbell(&self) -> &Doorbell {
        &self.doorbell
    }

    fn next_possibly_live(&self, from: u32) -> u32 {
        // Each shard reports its own page-granular hint in global index
        // terms; the earliest hint wins. A shard with nothing left
        // reports its own index_space_end, which min() naturally prunes
        // against livelier shards.
        self.shards
            .iter()
            .map(|s| s.table.next_live_index_hint(from))
            .min()
            .unwrap_or(from)
            .min(self.index_space_end())
            .max(from)
    }

    fn for_live_in_range(
        &self,
        start: u32,
        end: u32,
        f: &mut dyn FnMut(ObjectIndex, &Entry),
    ) -> u32 {
        // Each shard walks only its own pages overlapping the window;
        // the merged visitation is then re-sorted so order stays
        // ascending by global index, exactly as an unsharded sweep
        // would see it.
        let mut pages = 0;
        let mut indices: Vec<u32> = Vec::new();
        for s in &self.shards {
            pages += s
                .table
                .for_live_in_range(start, end, &mut |i, _| indices.push(i.0));
        }
        indices.sort_unstable();
        for i in indices {
            if let Some(e) = self.entry_by_index(ObjectIndex(i)) {
                f(ObjectIndex(i), e);
            }
        }
        pages
    }

    fn data_arena(&self, r: ObjectRef) -> ArchResult<&DataArena> {
        let k = self.shard_for(r);
        Ok(&self.shards[k].data)
    }

    fn data_arena_mut(&mut self, r: ObjectRef) -> ArchResult<&mut DataArena> {
        let k = self.shard_for(r);
        Ok(self.shards[k].data_mut())
    }

    fn access_arena(&self, r: ObjectRef) -> ArchResult<&AccessArena> {
        let k = self.shard_for(r);
        Ok(&self.shards[k].access)
    }

    fn stats_mut_of(&mut self, r: ObjectRef) -> &mut SpaceStats {
        let k = self.shard_for(r);
        &mut self.shards[k].stats
    }

    fn port(&self, r: ObjectRef) -> ArchResult<&PortState> {
        ShardedSpace::port(self, r)
    }

    fn port_mut(&mut self, r: ObjectRef) -> ArchResult<&mut PortState> {
        ShardedSpace::port_mut(self, r)
    }

    fn process(&self, r: ObjectRef) -> ArchResult<&ProcessState> {
        ShardedSpace::process(self, r)
    }

    fn process_mut(&mut self, r: ObjectRef) -> ArchResult<&mut ProcessState> {
        ShardedSpace::process_mut(self, r)
    }

    fn processor(&self, r: ObjectRef) -> ArchResult<&ProcessorState> {
        ShardedSpace::processor(self, r)
    }

    fn processor_mut(&mut self, r: ObjectRef) -> ArchResult<&mut ProcessorState> {
        ShardedSpace::processor_mut(self, r)
    }

    fn sro(&self, r: ObjectRef) -> ArchResult<&SroState> {
        ShardedSpace::sro(self, r)
    }

    fn sro_mut(&mut self, r: ObjectRef) -> ArchResult<&mut SroState> {
        ShardedSpace::sro_mut(self, r)
    }

    fn tdo(&self, r: ObjectRef) -> ArchResult<&TdoState> {
        ShardedSpace::tdo(self, r)
    }

    fn tdo_mut(&mut self, r: ObjectRef) -> ArchResult<&mut TdoState> {
        ShardedSpace::tdo_mut(self, r)
    }
}

// ---------------------------------------------------------------------
// Shared (lock-striped) form
// ---------------------------------------------------------------------

/// A [`ShardedSpace`] shared across host threads behind one mutex per
/// shard.
///
/// # Safety invariants
///
/// * `base` points at the first element of the inner space's shard
///   vector, which is heap storage fixed at construction — no method
///   adds or removes shards, so the pointer stays valid even as the
///   `SharedSpace` value itself moves.
/// * A shard's `ObjectSpace` is only dereferenced while that shard's
///   mutex is held; the whole `ShardedSpace` is only reborrowed (for
///   [`SpaceAccess::atomic`]) while *every* mutex is held. Multi-lock
///   acquisitions always take mutexes in ascending shard order, so two
///   agents cannot deadlock.
/// * The one sanctioned *lock-free* access is the agent's
///   qualification-cache fast path: it reads and writes **data-arena
///   bytes only**, through the per-shard arena view captured at
///   construction, and every byte of every data arena is a relaxed
///   [`AtomicU8`] on both the locked and lock-free paths (see
///   [`DataArena`]), so racing accesses are never data races in the
///   language sense. Logical staleness is excluded by the per-shard
///   **epoch**: every mutation that can change a cached descriptor
///   fact bumps the shard's epoch (release-fenced, under the lock)
///   *before* mutating, and the fast path revalidates the epoch after
///   copying bytes — the seqlock protocol of [`crate::qualcache`]. The
///   shard's own mutators bump ([`ObjectSpace::destroy_object`], and so
///   [`ObjectSpace::bulk_destroy_sro`]; [`ObjectSpace::entry_mut`];
///   [`ObjectSpace::data_mut`]), so the rule holds whether an agent
///   calls them under one shard lock or an atomic section calls them
///   through the [`ShardedSpace`] it reborrows. A section bumps nothing
///   by itself, and neither does [`SpaceAccess::with_sys_mut`].
/// * Every lock and every epoch sits on its own cache line
///   ([`CacheLine`]): a thread that takes shard 0's lock or bumps its
///   epoch does not invalidate the line a thread working in shard 1
///   reads.
pub struct SharedSpace {
    inner: UnsafeCell<ShardedSpace>,
    base: *mut ObjectSpace,
    locks: Box<[CacheLine<Mutex<()>>]>,
    /// The inner space's index→shard [`Divisor`]: agents route exactly
    /// as the [`ShardedSpace`] they wrap.
    shard_div: Divisor,
    roots: Box<[ObjectRef]>,
    /// Handles on the shards' invalidation epochs (see
    /// [`crate::qualcache`]), readable without a lock.
    epochs: Box<[Arc<CacheLine<AtomicU64>>]>,
    /// Per-shard data-arena views for the lock-free fast path.
    arenas: Box<[ArenaView]>,
    /// Clone of the inner space's port-ring registry, reachable without
    /// touching the `UnsafeCell` (agents consult it before any lock).
    port_rings: Arc<PortRingRegistry>,
    /// Clone of the inner space's doorbell, which idle GDP threads read
    /// without any lock.
    doorbell: Arc<CacheLine<Doorbell>>,
}

/// A captured pointer to one shard's data-arena cells. The arena's
/// backing `Box<[AtomicU8]>` is allocated once and never resized, so
/// the pointer stays valid for the `SharedSpace`'s lifetime.
struct ArenaView {
    ptr: *const AtomicU8,
    len: usize,
}

// SAFETY: all shard state is reached only under the per-shard mutexes
// (see type-level invariants); the raw pointer is derived from owned
// heap storage and never escapes.
unsafe impl Send for SharedSpace {}
unsafe impl Sync for SharedSpace {}

impl SharedSpace {
    /// Wraps an exclusively owned space for cross-thread sharing.
    pub fn new(space: ShardedSpace) -> SharedSpace {
        let n = space.shard_count() as usize;
        let roots = (0..n as u32).map(|k| space.root_sro_of(k)).collect();
        let locks = (0..n).map(|_| CacheLine(Mutex::new(()))).collect();
        let epochs = space.shards.iter().map(ObjectSpace::epoch_cell).collect();
        let port_rings = Arc::clone(space.port_ring_registry());
        let doorbell = Arc::clone(&space.doorbell);
        let shard_div = space.shard_div;
        let mut shared = SharedSpace {
            inner: UnsafeCell::new(space),
            base: std::ptr::null_mut(),
            locks,
            shard_div,
            roots,
            epochs,
            arenas: Box::new([]),
            port_rings,
            doorbell,
        };
        // Capture the shard base pointer and per-shard arena views once,
        // while we still hold the space exclusively. Neither the shard
        // Vec nor any arena is resized afterwards.
        shared.base = shared.inner.get_mut().shards.as_mut_ptr();
        shared.arenas = shared
            .inner
            .get_mut()
            .shards
            .iter()
            .map(|s| {
                let cells = s.data.cells();
                ArenaView {
                    ptr: cells.as_ptr(),
                    len: cells.len(),
                }
            })
            .collect();
        shared
    }

    /// Unwraps back to exclusive ownership (threads must have exited).
    pub fn into_inner(self) -> ShardedSpace {
        self.inner.into_inner()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.locks.len() as u32
    }

    /// The inner space's doorbell, read without any lock.
    #[inline]
    pub fn doorbell(&self) -> &Doorbell {
        &self.doorbell
    }

    /// A per-thread handle implementing [`SpaceAccess`], with the
    /// descriptor qualification cache enabled.
    pub fn agent(&self) -> SpaceAgent<'_> {
        self.agent_with_cache(true)
    }

    /// A per-thread handle with the qualification cache disabled —
    /// every operation takes the locked path. The conform harness runs
    /// both kinds and diffs digests bit-for-bit.
    pub fn agent_uncached(&self) -> SpaceAgent<'_> {
        self.agent_with_cache(false)
    }

    fn agent_with_cache(&self, cache_enabled: bool) -> SpaceAgent<'_> {
        let n = self.locks.len();
        SpaceAgent {
            shared: self,
            cache: QualCache::new(),
            cache_enabled,
            reads_delta: vec![0; n].into_boxed_slice(),
            writes_delta: vec![0; n].into_boxed_slice(),
        }
    }

    /// Current invalidation epoch of shard `k`.
    #[inline]
    pub fn epoch(&self, k: u32) -> u64 {
        self.epochs[k as usize].load(Ordering::Acquire)
    }

    /// Test hook: pins shard `k`'s epoch to an arbitrary value (e.g.
    /// near `u64::MAX` to exercise wraparound).
    #[doc(hidden)]
    pub fn force_epoch(&self, k: u32, v: u64) {
        self.epochs[k as usize].store(v, Ordering::Release);
    }

    /// Shard `k`'s data-arena cells, readable without the shard lock.
    #[inline]
    fn data_cells(&self, k: usize) -> &[AtomicU8] {
        let view = &self.arenas[k];
        // SAFETY: the pointer was captured from the shard's
        // `Box<[AtomicU8]>`, which lives exactly as long as `self` and
        // is never resized; `AtomicU8` tolerates concurrent access by
        // construction.
        unsafe { std::slice::from_raw_parts(view.ptr, view.len) }
    }

    /// The shard holding `r`, routed as [`ShardedSpace::shard_of`].
    #[inline]
    fn shard_for(&self, r: ObjectRef) -> usize {
        self.shard_div.rem(r.index.0) as usize
    }

    /// Runs `f` on one shard under its lock.
    fn with_shard<R>(&self, k: usize, f: impl FnOnce(&mut ObjectSpace) -> R) -> R {
        let _g = self.locks[k].lock();
        i432_trace::emit(i432_trace::EventKind::ShardLock, k as u32);
        i432_trace::bump(i432_trace::Counter::ShardLocks);
        // SAFETY: shard k is only touched under lock k (see type-level
        // invariants), which we hold for the duration of `f`.
        f(unsafe { &mut *self.base.add(k) })
    }

    /// Runs `f` on shard `a` and, when `b` is another shard, on shard
    /// `b` as well (`None` otherwise), locking in ascending shard order.
    /// Arguments reach `f` in the order given, not lock order.
    fn with_shards<R>(
        &self,
        a: usize,
        b: usize,
        f: impl FnOnce(&mut ObjectSpace, Option<&mut ObjectSpace>) -> R,
    ) -> R {
        if a == b {
            return self.with_shard(a, |s| f(s, None));
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let _g1 = self.locks[lo].lock();
        let _g2 = self.locks[hi].lock();
        i432_trace::emit(i432_trace::EventKind::ShardLockPair, lo as u32);
        i432_trace::bump(i432_trace::Counter::ShardLockPairs);
        // SAFETY: both locks held; a != b so the borrows are disjoint.
        f(unsafe { &mut *self.base.add(a) }, unsafe {
            Some(&mut *self.base.add(b))
        })
    }

    /// Runs `f` with every shard locked (ascending order) — the
    /// indivisible multi-object sequences of the interpreter.
    fn with_all<R>(&self, f: impl FnOnce(&mut ShardedSpace) -> R) -> R {
        self.holding_from(0, || {
            i432_trace::emit(i432_trace::EventKind::ShardLockAll, 0);
            i432_trace::bump(i432_trace::Counter::ShardLockAll);
            // SAFETY: holding every shard lock excludes all other access
            // to the space, so a unique reborrow of the whole is sound.
            f(unsafe { &mut *self.inner.get() })
        })
    }

    /// Runs `f` holding the locks of shards `k..`, taken in ascending
    /// order, one guard per stack frame: an all-shard section allocates
    /// nothing.
    fn holding_from<R>(&self, k: usize, f: impl FnOnce() -> R) -> R {
        match self.locks.get(k) {
            Some(lock) => {
                let _g = lock.lock();
                self.holding_from(k + 1, f)
            }
            None => f(),
        }
    }
}

/// One thread's handle onto a [`SharedSpace`]. Implements
/// [`SpaceAccess`]: each operation locks the shard(s) it touches and
/// releases them before returning — except data reads and writes that
/// hit the agent's private descriptor qualification cache, which go
/// straight to the arena under the epoch seqlock protocol of
/// [`crate::qualcache`] and take **no lock at all**.
pub struct SpaceAgent<'a> {
    shared: &'a SharedSpace,
    /// This agent's (this emulated processor's) qualification cache.
    cache: QualCache,
    cache_enabled: bool,
    /// Data reads/writes served by the fast path, not yet folded into
    /// the owning shard's `SpaceStats` (flushed by `stats()`/`Drop`).
    reads_delta: Box<[u64]>,
    writes_delta: Box<[u64]>,
}

impl SpaceAgent<'_> {
    /// Whether the qualification cache is consulted on this agent.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Valid lines currently held (diagnostics/tests).
    pub fn cache_occupancy(&self) -> usize {
        self.cache.occupancy()
    }

    /// Installs a line for `r` after a successful locked operation on
    /// its shard. Called with the shard lock held (the epoch read is
    /// therefore stable: bumps only happen under this lock).
    fn prime(cache: &mut QualCache, shared: &SharedSpace, k: usize, s: &ObjectSpace, r: ObjectRef) {
        let Ok(e) = s.table.get(r) else { return };
        if e.desc.absent {
            return;
        }
        cache.fill(QualLine {
            obj: r,
            epoch: shared.epoch(k as u32),
            data_base: e.desc.data_base,
            data_len: e.desc.data_len,
            accessed: e.desc.accessed,
            dirty: e.desc.dirty,
            valid: true,
        });
    }

    /// Lock-free read attempt. Returns `true` only when `buf` holds a
    /// consistent copy; any doubt (cold line, stale epoch, rights or
    /// bounds that the locked path must adjudicate, torn read) returns
    /// `false` and the caller falls through to the locked path.
    fn fast_read(&mut self, ad: AccessDescriptor, off: u32, buf: &mut [u8]) -> bool {
        let Some(line) = self.cache.probe(ad.obj) else {
            return false;
        };
        let line = *line;
        // The locked path owns every fault: rights and bounds misses
        // fall through so `rights_faults` and error values stay exact.
        // A read would also set the descriptor's `accessed` bit, so the
        // fast path requires it to be set already.
        if !line.accessed || !ad.rights.contains(Rights::READ) {
            return false;
        }
        let Some(end) = off.checked_add(buf.len() as u32) else {
            return false;
        };
        if end > line.data_len {
            return false;
        }
        let k = self.shared.shard_for(ad.obj);
        let e1 = self.shared.epoch(k as u32);
        if e1 != line.epoch {
            self.cache.evict(ad.obj);
            return false;
        }
        let cells = self.shared.data_cells(k);
        let base = line.data_base as usize + off as usize;
        let Some(window) = cells.get(base..base + buf.len()) else {
            return false;
        };
        for (dst, cell) in buf.iter_mut().zip(window) {
            *dst = cell.load(Ordering::Relaxed);
        }
        // Seqlock revalidation: if the epoch moved while we copied, the
        // bytes may be torn — discard and retry under the lock.
        fence(Ordering::Acquire);
        if self.shared.epoch(k as u32) != e1 {
            self.cache.evict(ad.obj);
            return false;
        }
        self.reads_delta[k] += 1;
        true
    }

    /// Lock-free write attempt; mirror of [`SpaceAgent::fast_read`]
    /// (requiring the `dirty` bit so no descriptor update is lost). If
    /// revalidation fails the write is redone through the locked path —
    /// the locked redo either lands the same bytes or faults on the
    /// stale reference. See DESIGN.md §7 for the residual
    /// write-vs-destroy caveat this inherits from the 432.
    fn fast_write(&mut self, ad: AccessDescriptor, off: u32, buf: &[u8]) -> bool {
        let Some(line) = self.cache.probe(ad.obj) else {
            return false;
        };
        let line = *line;
        if !line.accessed || !line.dirty || !ad.rights.contains(Rights::WRITE) {
            return false;
        }
        let Some(end) = off.checked_add(buf.len() as u32) else {
            return false;
        };
        if end > line.data_len {
            return false;
        }
        let k = self.shared.shard_for(ad.obj);
        let e1 = self.shared.epoch(k as u32);
        if e1 != line.epoch {
            self.cache.evict(ad.obj);
            return false;
        }
        let cells = self.shared.data_cells(k);
        let base = line.data_base as usize + off as usize;
        let Some(window) = cells.get(base..base + buf.len()) else {
            return false;
        };
        for (src, cell) in buf.iter().zip(window) {
            cell.store(*src, Ordering::Relaxed);
        }
        // A full barrier before revalidating: the stores above must be
        // globally visible before we conclude no mutation raced them.
        fence(Ordering::SeqCst);
        if self.shared.epoch(k as u32) != e1 {
            self.cache.evict(ad.obj);
            return false;
        }
        self.writes_delta[k] += 1;
        true
    }

    /// Folds fast-path operation counts into the owning shards' stats.
    fn flush_stat_deltas(&mut self) {
        for k in 0..self.shared.locks.len() {
            let (r, w) = (self.reads_delta[k], self.writes_delta[k]);
            if r == 0 && w == 0 {
                continue;
            }
            self.reads_delta[k] = 0;
            self.writes_delta[k] = 0;
            self.shared.with_shard(k, |s| {
                s.stats.data_reads += r;
                s.stats.data_writes += w;
            });
        }
    }
}

impl Drop for SpaceAgent<'_> {
    fn drop(&mut self) {
        self.flush_stat_deltas();
    }
}

impl SpaceAccess for SpaceAgent<'_> {
    fn root_sro(&self) -> ObjectRef {
        self.shared.roots[0]
    }

    fn root_sro_of(&self, shard: u32) -> ObjectRef {
        self.shared.roots[shard as usize]
    }

    fn shard_count(&self) -> u32 {
        self.shared.shard_count()
    }

    fn qualify(&mut self, ad: AccessDescriptor, needed: Rights) -> ArchResult<ObjectRef> {
        self.shared
            .with_shard(self.shared.shard_for(ad.obj), |s| s.qualify(ad, needed))
    }

    fn expect_type(&mut self, ad: AccessDescriptor, t: SystemType) -> ArchResult<ObjectRef> {
        self.shared
            .with_shard(self.shared.shard_for(ad.obj), |s| s.expect_type(ad, t))
    }

    fn create_object(&mut self, sro: ObjectRef, spec: ObjectSpec) -> ArchResult<ObjectRef> {
        self.shared
            .with_shard(self.shared.shard_for(sro), |s| s.create_object(sro, spec))
    }

    fn create_object_into(
        &mut self,
        sro: ObjectRef,
        spec: ObjectSpec,
        rights: Rights,
        container: AccessDescriptor,
        slot: u32,
    ) -> ArchResult<ObjectRef> {
        // The new object lives in the SRO's shard; hold it and the
        // container's shard across the create and the store.
        let a = self.shared.shard_for(container.obj);
        let b = self.shared.shard_for(sro);
        self.shared.with_shards(a, b, |ca, mut sb| {
            let new = sb
                .as_deref_mut()
                .unwrap_or(&mut *ca)
                .create_object(sro, spec)?;
            ca.store_ad(
                sb,
                container,
                slot,
                Some(AccessDescriptor::new(new, rights)),
            )?;
            Ok(new)
        })
    }

    fn destroy_object(&mut self, r: ObjectRef) -> ArchResult<Entry> {
        self.cache.evict(r);
        // The shard bumps its epoch before it reclaims anything.
        self.shared
            .with_shard(self.shared.shard_for(r), |s| s.destroy_object(r))
    }

    fn bulk_destroy_sro(&mut self, sro: ObjectRef) -> ArchResult<u32> {
        self.cache.clear();
        self.shared
            .with_shard(self.shared.shard_for(sro), |s| s.bulk_destroy_sro(sro))
    }

    fn read_data(&mut self, ad: AccessDescriptor, off: u32, buf: &mut [u8]) -> ArchResult<()> {
        if self.cache_enabled && self.fast_read(ad, off, buf) {
            i432_trace::emit(i432_trace::EventKind::QualHit, ad.obj.index.0);
            i432_trace::bump(i432_trace::Counter::QualHits);
            return Ok(());
        }
        if self.cache_enabled {
            i432_trace::emit(i432_trace::EventKind::QualMiss, ad.obj.index.0);
            i432_trace::bump(i432_trace::Counter::QualMisses);
        }
        let shared = self.shared;
        let k = shared.shard_for(ad.obj);
        let enabled = self.cache_enabled;
        let cache = &mut self.cache;
        shared.with_shard(k, |s| {
            let out = s.read_data(ad, off, buf);
            if enabled && out.is_ok() {
                Self::prime(cache, shared, k, s, ad.obj);
            }
            out
        })
    }

    fn write_data(&mut self, ad: AccessDescriptor, off: u32, buf: &[u8]) -> ArchResult<()> {
        if self.cache_enabled && self.fast_write(ad, off, buf) {
            i432_trace::emit(i432_trace::EventKind::QualHit, ad.obj.index.0);
            i432_trace::bump(i432_trace::Counter::QualHits);
            return Ok(());
        }
        if self.cache_enabled {
            i432_trace::emit(i432_trace::EventKind::QualMiss, ad.obj.index.0);
            i432_trace::bump(i432_trace::Counter::QualMisses);
        }
        let shared = self.shared;
        let k = shared.shard_for(ad.obj);
        let enabled = self.cache_enabled;
        let cache = &mut self.cache;
        shared.with_shard(k, |s| {
            let out = s.write_data(ad, off, buf);
            if enabled && out.is_ok() {
                Self::prime(cache, shared, k, s, ad.obj);
            }
            out
        })
    }

    fn load_ad(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
    ) -> ArchResult<Option<AccessDescriptor>> {
        self.shared
            .with_shard(self.shared.shard_for(container.obj), |s| {
                s.load_ad(container, slot)
            })
    }

    fn store_ad(
        &mut self,
        container: AccessDescriptor,
        slot: u32,
        ad: Option<AccessDescriptor>,
    ) -> ArchResult<()> {
        let a = self.shared.shard_for(container.obj);
        let b = ad.map_or(a, |t| self.shared.shard_for(t.obj));
        self.shared
            .with_shards(a, b, |ca, tb| ca.store_ad(tb, container, slot, ad))
    }

    fn store_ad_hw(
        &mut self,
        container: ObjectRef,
        slot: u32,
        ad: Option<AccessDescriptor>,
    ) -> ArchResult<()> {
        let a = self.shared.shard_for(container);
        let b = ad.map_or(a, |t| self.shared.shard_for(t.obj));
        self.shared
            .with_shards(a, b, |ca, tb| ca.store_ad_hw(tb, container, slot, ad))
    }

    fn load_ad_hw(
        &mut self,
        container: ObjectRef,
        slot: u32,
    ) -> ArchResult<Option<AccessDescriptor>> {
        self.shared
            .with_shard(self.shared.shard_for(container), |s| {
                s.load_ad_hw(container, slot)
            })
    }

    fn shade(&mut self, r: ObjectRef) -> ArchResult<()> {
        self.shared
            .with_shard(self.shared.shard_for(r), |s| s.shade(r))
    }

    fn color_of(&mut self, r: ObjectRef) -> ArchResult<Color> {
        self.shared
            .with_shard(self.shared.shard_for(r), |s| s.color_of(r))
    }

    fn set_color(&mut self, r: ObjectRef, c: Color) -> ArchResult<()> {
        self.shared
            .with_shard(self.shared.shard_for(r), |s| s.set_color(r, c))
    }

    fn scan_access_part(&mut self, r: ObjectRef) -> ArchResult<Vec<AccessDescriptor>> {
        self.shared
            .with_shard(self.shared.shard_for(r), |s| s.scan_access_part(r))
    }

    fn stats(&mut self) -> SpaceStats {
        self.flush_stat_deltas();
        let mut total = SpaceStats::default();
        for k in 0..self.shared.locks.len() {
            self.shared.with_shard(k, |s| total.merge(&s.stats));
        }
        total
    }

    fn with_entry(&mut self, r: ObjectRef, f: &mut dyn FnMut(&Entry)) -> ArchResult<()> {
        self.shared.with_shard(self.shared.shard_for(r), |s| {
            f(s.table.get(r)?);
            Ok(())
        })
    }

    fn with_sys_mut(&mut self, r: ObjectRef, f: &mut dyn FnMut(&mut SysState)) -> ArchResult<()> {
        // Interpreted sys state (process/processor/context/port fields)
        // is never cached, so this mutation does NOT bump the epoch —
        // the interpreter's per-step bookkeeping must not evict its own
        // hot lines.
        self.shared.with_shard(self.shared.shard_for(r), |s| {
            f(&mut s.table.get_mut(r)?.sys);
            Ok(())
        })
    }

    fn atomic(&mut self, f: &mut dyn FnMut(&mut dyn SpaceMut)) {
        // No epoch moves here: the section reaches the shards through
        // the `ShardedSpace`, whose mutators bump exactly the shard of
        // each cache-visible change.
        self.shared.with_all(|space| f(space))
    }

    fn port_rings(&self) -> Option<&Arc<PortRingRegistry>> {
        Some(&self.shared.port_rings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ArchError;
    use crate::level::Level;
    use crate::traits::SpaceAccessExt;

    /// A fixed op sequence run against any per-op space.
    fn script<S: SpaceAccess + ?Sized>(s: &mut S) -> Vec<u64> {
        let root = s.root_sro();
        let a = s.create_object(root, ObjectSpec::generic(32, 4)).unwrap();
        let b = s.create_object(root, ObjectSpec::generic(16, 2)).unwrap();
        let a_ad = s.mint(a, Rights::ALL);
        let b_ad = s.mint(b, Rights::ALL);
        s.write_u64(a_ad, 0, 7).unwrap();
        s.write_u64(b_ad, 8, 9).unwrap();
        s.store_ad(a_ad, 0, Some(b_ad)).unwrap();
        s.store_ad_hw(b, 0, Some(a_ad)).unwrap();
        let x = s.read_u64(a_ad, 0).unwrap();
        let y = s.read_u64(b_ad, 8).unwrap();
        s.destroy_object(a).unwrap();
        let st = s.stats();
        vec![
            x,
            y,
            st.objects_created,
            st.objects_destroyed,
            st.ad_stores,
            st.ad_loads,
            st.barrier_shades,
            st.data_reads,
            st.data_writes,
        ]
    }

    #[test]
    fn agents_route_like_the_space_they_wrap() {
        use crate::object_table::DIVISOR_EDGES;
        for n in [1, 2, 3, 4, 5, 7, 8, 16] {
            let sharded = ShardedSpace::new(65536, 1024, 512, n);
            let picks: Vec<usize> = DIVISOR_EDGES
                .iter()
                .map(|&i| sharded.shard_of(ObjectIndex(i)))
                .collect();
            let shared = SharedSpace::new(sharded);
            let agent = shared.agent();
            for (&i, &k) in DIVISOR_EDGES.iter().zip(&picks) {
                let r = ObjectRef {
                    index: ObjectIndex(i),
                    generation: 0,
                };
                assert_eq!(k, (i % n) as usize, "index {i}, {n} shards");
                assert_eq!(agent.shared.shard_for(r), k, "index {i}, {n} shards");
            }
        }
    }

    #[test]
    fn shards_isolate_storage_but_share_index_space() {
        let mut s = ShardedSpace::new(65536, 1024, 512, 4);
        let roots: Vec<ObjectRef> = (0..4).map(|k| s.root_sro_of(k)).collect();
        // Root SROs occupy interleaved indices 0..4.
        for (k, r) in roots.iter().enumerate() {
            assert_eq!(r.index.0, k as u32);
        }
        // Objects land in their SRO's shard.
        for (k, &root) in roots.iter().enumerate() {
            let r = s.create_object(root, ObjectSpec::generic(8, 1)).unwrap();
            assert_eq!(r.index.0 % 4, k as u32);
        }
        assert_eq!(s.live_count(), 8);
    }

    #[test]
    fn cross_shard_store_enforces_level_rule_and_barrier() {
        let mut s = ShardedSpace::new(65536, 1024, 512, 4);
        let container = s
            .create_object(s.root_sro_of(0), ObjectSpec::generic(0, 2))
            .unwrap();
        let target = s
            .create_object(s.root_sro_of(1), ObjectSpec::generic(8, 0))
            .unwrap();
        let deep = s
            .create_object(
                s.root_sro_of(2),
                ObjectSpec {
                    level: Some(Level(3)),
                    ..ObjectSpec::generic(8, 0)
                },
            )
            .unwrap();
        let c_ad = s.mint(container, Rights::ALL);
        // Legal cross-shard store runs the write barrier on the target's
        // shard.
        s.store_ad(c_ad, 0, Some(s.mint(target, Rights::READ)))
            .unwrap();
        assert_eq!(s.color_of(target).unwrap(), Color::Gray);
        assert_eq!(s.stats_of_shard(1).barrier_shades, 1);
        // Illegal (shorter-lived target) cross-shard store faults and
        // charges the target's shard.
        assert!(matches!(
            s.store_ad(c_ad, 1, Some(s.mint(deep, Rights::READ))),
            Err(ArchError::LevelViolation { .. })
        ));
        assert_eq!(s.stats_of_shard(2).level_faults, 1);
        assert_eq!(s.stats().level_faults, 1);
        // The failed store must not have written the slot.
        assert_eq!(s.load_ad(c_ad, 1).unwrap(), None);
    }

    #[test]
    fn shared_space_agents_run_the_script() {
        let shared = SharedSpace::new(ShardedSpace::new(65536, 1024, 512, 4));
        // Agents see the same semantics as exclusive owners. (Scoped so
        // the agent's Drop flushes its stat deltas before into_inner.)
        let out = {
            let mut agent = shared.agent();
            script(&mut agent)
        };
        assert_eq!(out[2], 2, "two objects created");
        let space = shared.into_inner();
        assert_eq!(space.stats().objects_destroyed, 1);
    }

    /// `create_object_into` on an agent — one section over the SRO's
    /// and the container's shards — matches the separate create and
    /// store an exclusive owner makes, same-shard and cross-shard, and a
    /// failed store leaves the object allocated either way.
    #[test]
    fn agents_create_into_like_separate_calls() {
        fn run<S: SpaceAccess + ?Sized>(s: &mut S) -> Vec<String> {
            let c = s
                .create_object(s.root_sro(), ObjectSpec::generic(0, 2))
                .unwrap();
            let c_ad = s.mint(c, Rights::ALL);
            let mut out = Vec::new();
            for (sro_shard, slot) in [(1, 0), (c.index.0 % 4, 1), (2, 9)] {
                let sro = s.root_sro_of(sro_shard);
                let made =
                    s.create_object_into(sro, ObjectSpec::generic(8, 0), Rights::READ, c_ad, slot);
                if let Ok(new) = made {
                    assert_eq!(s.shard_of(new), sro_shard, "lives in the SRO's shard");
                    assert_eq!(
                        s.load_ad(c_ad, slot).unwrap(),
                        Some(s.mint(new, Rights::READ))
                    );
                    assert_eq!(s.color_of(new).unwrap(), Color::Gray, "shaded by the store");
                }
                out.push(format!("{made:?}"));
            }
            let st = s.stats();
            out.push(format!(
                "{} {} {}",
                st.objects_created, st.ad_stores, st.barrier_shades
            ));
            out
        }
        let mut owner = ShardedSpace::new(65536, 1024, 512, 4);
        let expected = run(&mut owner);
        assert!(expected[2].contains("AccessBounds"), "{expected:?}");
        assert_eq!(expected[3], "4 2 2");
        let shared = SharedSpace::new(ShardedSpace::new(65536, 1024, 512, 4));
        let mut agent = shared.agent();
        assert_eq!(run(&mut agent), expected);
    }

    #[test]
    fn parallel_agents_allocate_without_interference() {
        let shared = SharedSpace::new(ShardedSpace::new(1 << 20, 8192, 4096, 4));
        std::thread::scope(|scope| {
            for k in 0..4u32 {
                let shared = &shared;
                scope.spawn(move || {
                    let mut agent = shared.agent();
                    let root = agent.root_sro_of(k);
                    let mut objs = Vec::new();
                    for i in 0..200u64 {
                        let r = agent
                            .create_object(root, ObjectSpec::generic(16, 2))
                            .unwrap();
                        let ad = agent.mint(r, Rights::ALL);
                        agent.write_u64(ad, 0, i).unwrap();
                        objs.push((r, i));
                    }
                    // Cross-shard linkage: store an AD to a neighbor
                    // shard's root into our objects.
                    let neighbor = agent.root_sro_of((k + 1) % 4);
                    for (r, _) in &objs {
                        let ad = agent.mint(*r, Rights::ALL);
                        agent
                            .store_ad(ad, 0, Some(agent.mint(neighbor, Rights::NONE)))
                            .unwrap();
                    }
                    for (r, i) in &objs {
                        let ad = agent.mint(*r, Rights::READ);
                        assert_eq!(agent.read_u64(ad, 0).unwrap(), *i);
                    }
                    // And an atomic section sees a consistent whole.
                    let live = agent.atomically(|sm| sm.live_count());
                    assert!(live >= 200);
                });
            }
        });
        let space = shared.into_inner();
        assert_eq!(space.stats().objects_created, 800);
        assert_eq!(space.live_count(), 4 + 800);
    }
}
