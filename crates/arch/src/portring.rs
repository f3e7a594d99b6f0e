//! Per-port submission rings: the lock-free fast path for SEND/RECEIVE.
//!
//! Modeled on io_uring-style kernel IPC queues (Norost-b's
//! `SubmissionEntry`/`CompletionEntry` rings with atomic head indices):
//! each FIFO port can own one MPMC ring of cache-line-aligned 64-byte
//! entries with atomic head/tail positions. The ring is consulted
//! *before any shard lock*: a send claims a slot with one CAS and
//! publishes the message descriptor; a receive claims the head entry the
//! same way. Everything the ring cannot express — a full ring, an empty
//! ring, blocking, rendezvous with a parked process, non-FIFO
//! disciplines — falls back to the locked rendezvous path, which owns
//! the port's message area under the shard locks exactly as before.
//!
//! # The LOCK bit and the FAST-mode invariant
//!
//! Bit 63 of both the head and the tail position doubles as a LOCK flag.
//! Fast-path claims CAS an unlocked position to its successor, so
//! setting the bit (one `fetch_or` each on tail and head, in that
//! order) atomically freezes the claim set: every in-flight claim either
//! completed before the freeze or fails its CAS after it. The locked
//! path begins every port operation by freezing the ring and draining
//! the frozen entries into the port's message area (spinning out the
//! handful of instructions an in-flight publisher needs to finish), so
//! the locked rendezvous always sees the complete queue state. It
//! re-opens the ring (clearing both bits) only when the port is back in
//! *FAST mode*:
//!
//! > **FAST ⟺ the message area is empty and no process waits at the
//! > port.**
//!
//! While any message sits in the area or any process is parked, the
//! ring stays frozen and every operation takes the locked path — which
//! is what makes the fast path rendezvous-equivalent: a fast send can
//! only ever observe "no waiting receiver, queue space available", the
//! one case where the locked path's answer is unconditionally
//! `Queued`, and a fast receive only "messages queued, no waiting
//! sender", where the locked answer is unconditionally the FIFO head.
//! The ring's logical capacity equals the port's message capacity, so
//! draining always fits the area and a blocked sender's end state is
//! identical in both worlds.
//!
//! The LOCK bit is also the ABA guard: a stale fast-path CAS prepared
//! before a freeze can only succeed after the ring has been re-opened —
//! at which point the port is provably back in FAST mode and the claim
//! is simply a valid post-reopen operation.

use crate::level::Level;
use crate::refs::{AccessDescriptor, ObjectRef};
use crate::rights::Rights;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Bit 63 of a head/tail word: the ring is frozen by the locked path.
pub const LOCK: u64 = 1 << 63;
/// Low 63 bits: the wrapping queue position.
pub const POS_MASK: u64 = LOCK - 1;

/// Wrapping position arithmetic (mod 2^63, below the LOCK bit).
#[inline]
const fn wadd(pos: u64, n: u64) -> u64 {
    pos.wrapping_add(n) & POS_MASK
}

/// Positions `b..a` distance (mod 2^63).
#[inline]
const fn wsub(a: u64, b: u64) -> u64 {
    a.wrapping_sub(b) & POS_MASK
}

/// One queued message as the ring carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingEntry {
    /// The message access descriptor.
    pub msg: AccessDescriptor,
    /// The sender's queueing key (unused under FIFO but preserved).
    pub key: u64,
}

/// One ring slot: a Vyukov sequence word plus the published payload,
/// padded to its own cache line so concurrent claims never false-share.
#[repr(align(64))]
struct Slot {
    /// Vyukov sequence: `pos` = free for the producer claiming `pos`,
    /// `pos + 1` = published, `pos + nslots` = consumed.
    seq: AtomicU64,
    /// Message object index (low 32) and generation (high 32).
    obj: AtomicU64,
    /// Rights bits (low 8) of the message descriptor.
    rights: AtomicU64,
    /// Queueing key.
    key: AtomicU64,
}

/// Why a fast-path ring operation could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingRefusal {
    /// The ring is frozen: the port is not in FAST mode.
    Locked,
    /// Push: the ring holds `capacity` messages (the port is full).
    Full,
    /// Pop: no published entry at the head (the port is empty).
    Empty,
    /// A concurrent claim won the race repeatedly; take the locked path
    /// rather than spin unboundedly.
    Contended,
}

/// Bounded CAS retries before a fast op gives up to the locked path.
const CLAIM_RETRIES: u32 = 8;

/// A lock-free submission ring owned by one port for its lifetime.
pub struct PortRing {
    /// The owning port (generation-exact: a recycled index never
    /// matches).
    port: ObjectRef,
    /// The port's lifetime level, immutable for the port's lifetime —
    /// cached here so the fast path can enforce the level rule (a
    /// message must outlive the port) without reading the port's entry.
    port_level: Level,
    /// Logical capacity == the port's message capacity.
    capacity: u32,
    /// Physical slots (capacity rounded up to a power of two).
    slots: Box<[Slot]>,
    /// Head position | LOCK. Consumers claim here.
    head: AtomicU64,
    /// Tail position | LOCK. Producers claim here.
    tail: AtomicU64,
    /// Completed fast sends not yet folded into the port's statistics.
    pending_sends: AtomicU64,
    /// Completed fast receives not yet folded into the port's
    /// statistics.
    pending_receives: AtomicU64,
    /// Set when the owning port was destroyed: entries are garbage and
    /// the ring never reopens.
    dead: AtomicBool,
}

impl std::fmt::Debug for PortRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortRing")
            .field("port", &self.port)
            .field("capacity", &self.capacity)
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("tail", &self.tail.load(Ordering::Relaxed))
            .finish()
    }
}

impl PortRing {
    /// A fresh ring for `port`, created **frozen**: the first locked
    /// operation drains (nothing) and re-opens it only once the port is
    /// observably in FAST mode, so a ring attached to a port with queued
    /// messages or waiters can never race ahead of the area.
    pub fn new(port: ObjectRef, capacity: u32, port_level: Level) -> PortRing {
        Self::with_start(port, capacity, port_level, 0)
    }

    /// Test hook: a frozen ring whose positions start at `start`
    /// (mod 2^63) — used to exercise head/tail wraparound.
    pub fn with_start(port: ObjectRef, capacity: u32, port_level: Level, start: u64) -> PortRing {
        let nslots = capacity.max(1).next_power_of_two() as usize;
        let start = start & POS_MASK;
        // Slot `pos & (nslots-1)` must carry seq == pos for the first
        // nslots positions from `start` (which need not be 0, and need
        // not be slot-aligned — the wraparound tests start near 2^63).
        let mut seqs = vec![0u64; nslots];
        for i in 0..nslots {
            let pos = wadd(start, i as u64);
            seqs[(pos as usize) & (nslots - 1)] = pos;
        }
        let slots: Box<[Slot]> = seqs
            .into_iter()
            .map(|seq| Slot {
                seq: AtomicU64::new(seq),
                obj: AtomicU64::new(0),
                rights: AtomicU64::new(0),
                key: AtomicU64::new(0),
            })
            .collect();
        PortRing {
            port,
            port_level,
            capacity: capacity.max(1),
            slots,
            head: AtomicU64::new(start | LOCK),
            tail: AtomicU64::new(start | LOCK),
            pending_sends: AtomicU64::new(0),
            pending_receives: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// The owning port reference (generation-exact).
    #[inline]
    pub fn port(&self) -> ObjectRef {
        self.port
    }

    /// The owning port's lifetime level (immutable while the port
    /// lives).
    #[inline]
    pub fn port_level(&self) -> Level {
        self.port_level
    }

    /// The ring's logical capacity (== the port's message capacity).
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// True when the owning port has been observed dead.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    #[inline]
    fn slot(&self, pos: u64) -> &Slot {
        &self.slots[(pos as usize) & (self.slots.len() - 1)]
    }

    /// Published entries currently in the ring (racy snapshot count).
    pub fn occupancy(&self) -> u64 {
        let t = self.tail.load(Ordering::Acquire) & POS_MASK;
        let h = self.head.load(Ordering::Acquire) & POS_MASK;
        wsub(t, h).min(self.capacity as u64)
    }

    /// Fast-path push: claim the tail slot and publish `entry`.
    ///
    /// Never blocks and never touches a shard lock. The claim CAS
    /// fails whenever the ring is frozen, full, or the slot is still
    /// being recycled by a lagging consumer.
    pub fn push(&self, entry: RingEntry) -> Result<(), RingRefusal> {
        for _ in 0..CLAIM_RETRIES {
            let t = self.tail.load(Ordering::Acquire);
            if t & LOCK != 0 {
                return Err(RingRefusal::Locked);
            }
            let h = self.head.load(Ordering::Acquire);
            if h & LOCK != 0 {
                return Err(RingRefusal::Locked);
            }
            if wsub(t, h) >= self.capacity as u64 {
                return Err(RingRefusal::Full);
            }
            let slot = self.slot(t);
            if slot.seq.load(Ordering::Acquire) != t {
                // The slot at `t` is still published or mid-recycle; a
                // competing producer will already have moved the tail.
                continue;
            }
            if self
                .tail
                .compare_exchange_weak(t, wadd(t, 1), Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // The slot is ours: publish payload, then the sequence.
            let obj =
                (u64::from(entry.msg.obj.generation) << 32) | u64::from(entry.msg.obj.index.0);
            slot.obj.store(obj, Ordering::Relaxed);
            slot.rights
                .store(u64::from(entry.msg.rights.bits()), Ordering::Relaxed);
            slot.key.store(entry.key, Ordering::Relaxed);
            slot.seq.store(wadd(t, 1), Ordering::Release);
            self.pending_sends.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        Err(RingRefusal::Contended)
    }

    /// Fast-path pop: claim the head entry.
    pub fn pop(&self) -> Result<RingEntry, RingRefusal> {
        for _ in 0..CLAIM_RETRIES {
            let h = self.head.load(Ordering::Acquire);
            if h & LOCK != 0 {
                return Err(RingRefusal::Locked);
            }
            let slot = self.slot(h);
            if slot.seq.load(Ordering::Acquire) != wadd(h, 1) {
                return Err(RingRefusal::Empty);
            }
            if self
                .head
                .compare_exchange_weak(h, wadd(h, 1), Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let entry = Self::read_slot(slot);
            // Recycle for the producer claiming `h + nslots`.
            slot.seq
                .store(wadd(h, self.slots.len() as u64), Ordering::Release);
            self.pending_receives.fetch_add(1, Ordering::Relaxed);
            return Ok(entry);
        }
        Err(RingRefusal::Contended)
    }

    fn read_slot(slot: &Slot) -> RingEntry {
        let obj = slot.obj.load(Ordering::Relaxed);
        let rights = slot.rights.load(Ordering::Relaxed);
        let key = slot.key.load(Ordering::Relaxed);
        RingEntry {
            msg: AccessDescriptor {
                obj: ObjectRef {
                    index: crate::refs::ObjectIndex(obj as u32),
                    generation: (obj >> 32) as u32,
                },
                rights: Rights::from_bits(rights as u8),
            },
            key,
        }
    }

    /// Freezes the ring (both LOCK bits set; tail first so no new claim
    /// set can form) and hands every frozen entry, oldest first, to `f`.
    ///
    /// Called by the locked path at the top of every port operation,
    /// under the port's shard locks. Spins out in-flight publishers —
    /// a claim that beat the freeze is a handful of relaxed stores from
    /// its sequence release.
    ///
    /// Callers serialize every `freeze_and_drain` and [`Self::retire`]
    /// on one ring (the shard locks do); only `push` and `pop` may race
    /// them. Two unserialized drains read the same `[head, tail)`, and
    /// the second spins forever on a slot the first has already
    /// recycled.
    ///
    /// Returns the number of entries drained.
    pub fn freeze_and_drain(&self, mut f: impl FnMut(RingEntry)) -> u64 {
        let t = self.tail.fetch_or(LOCK, Ordering::AcqRel) & POS_MASK;
        let h = self.head.fetch_or(LOCK, Ordering::AcqRel) & POS_MASK;
        let n = wsub(t, h);
        let mut pos = h;
        for _ in 0..n {
            let slot = self.slot(pos);
            // Wait for an in-flight publisher to finish its store.
            while slot.seq.load(Ordering::Acquire) != wadd(pos, 1) {
                std::hint::spin_loop();
            }
            let entry = Self::read_slot(slot);
            slot.seq
                .store(wadd(pos, self.slots.len() as u64), Ordering::Release);
            f(entry);
            pos = wadd(pos, 1);
        }
        self.head.store(t | LOCK, Ordering::Release);
        n
    }

    /// Freezes the ring without draining (used for rings whose port
    /// generation no longer matches: their entries belong to a dead
    /// port and must not leak into a recycled port's message area).
    pub fn freeze(&self) {
        self.tail.fetch_or(LOCK, Ordering::AcqRel);
        self.head.fetch_or(LOCK, Ordering::AcqRel);
    }

    /// True when the ring is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.tail.load(Ordering::Acquire) & LOCK != 0
    }

    /// Re-opens a frozen, drained ring. The caller (the locked path,
    /// under the shard locks) asserts the FAST-mode invariant: message
    /// area empty, no waiters, port alive.
    pub fn reopen(&self) {
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        let t = self.tail.load(Ordering::Acquire) & POS_MASK;
        debug_assert_eq!(
            self.head.load(Ordering::Acquire) & POS_MASK,
            t,
            "reopen requires a drained ring"
        );
        self.tail.store(t, Ordering::Release);
        self.head.store(t, Ordering::Release);
    }

    /// Marks the ring dead (owning port destroyed): freezes it, discards
    /// any queued entries, and prevents all future reopens. Idempotent.
    pub fn retire(&self) {
        self.dead.store(true, Ordering::Release);
        self.freeze_and_drain(|_| {});
    }

    /// Takes the fast-op completion counts accumulated since the last
    /// call (folded into the port's statistics by the locked path).
    pub fn take_pending_stats(&self) -> (u64, u64) {
        (
            self.pending_sends.swap(0, Ordering::Relaxed),
            self.pending_receives.swap(0, Ordering::Relaxed),
        )
    }

    /// A racy snapshot of the message references currently published in
    /// the ring — the collector's root view. Entries are validated with
    /// a seqlock-style double check so a torn read is never returned;
    /// an entry mid-publish or mid-consume is simply skipped (its
    /// message is still reachable through the sender's or receiver's
    /// context at that instant, so the collector loses nothing).
    pub fn snapshot_refs(&self) -> Vec<ObjectRef> {
        let t = self.tail.load(Ordering::Acquire) & POS_MASK;
        let h = self.head.load(Ordering::Acquire) & POS_MASK;
        let n = wsub(t, h).min(self.slots.len() as u64);
        let mut out = Vec::new();
        let mut pos = h;
        for _ in 0..n {
            let slot = self.slot(pos);
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 == wadd(pos, 1) {
                let entry = Self::read_slot(slot);
                if slot.seq.load(Ordering::Acquire) == seq1 {
                    out.push(entry.msg.obj);
                }
            }
            pos = wadd(pos, 1);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Registry: object index -> ring, lock-free, demand grown.
// ---------------------------------------------------------------------------

/// Rings per registry leaf.
const RING_LEAF: usize = 256;

struct RingLeaf {
    rings: [OnceLock<Arc<PortRing>>; RING_LEAF],
}

impl RingLeaf {
    fn new() -> Box<RingLeaf> {
        Box::new(RingLeaf {
            rings: [const { OnceLock::new() }; RING_LEAF],
        })
    }
}

/// The per-space port-ring directory: a two-level lock-free map from
/// object index to [`PortRing`], grown on demand like the object table's
/// leaf pages. One ring exists per port *lifetime* — a recycled index
/// whose generation no longer matches the ring simply keeps the locked
/// path (the registry never rebinds a slot).
pub struct PortRingRegistry {
    /// Master switch: the threaded runner turns the fast path on; the
    /// deterministic runner leaves it off so C1/C2 cycles stay
    /// bit-identical by construction.
    enabled: AtomicBool,
    /// Root of leaf pointers, sized at construction.
    roots: Box<[AtomicPtr<RingLeaf>]>,
}

impl std::fmt::Debug for PortRingRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortRingRegistry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for PortRingRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl PortRingRegistry {
    /// An empty, disabled registry (1024 leaves x 256 rings = the
    /// table's full index space).
    pub fn new() -> PortRingRegistry {
        PortRingRegistry {
            enabled: AtomicBool::new(false),
            roots: (0..1024)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }
    }

    /// Turns the fast path on or off. Existing rings stay frozen/open as
    /// they are; disabling only stops lookups, so in-ring messages must
    /// be flushed (see `i432_gdp::port::flush_rings`) before a disabled
    /// space is inspected.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// True when the fast path is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    fn leaf(&self, index: u32) -> Option<&RingLeaf> {
        let root = self.roots.get((index as usize) / RING_LEAF)?;
        let p = root.load(Ordering::Acquire);
        if p.is_null() {
            None
        } else {
            // Safety: leaves are published once with a release store and
            // never freed while the registry lives.
            Some(unsafe { &*p })
        }
    }

    fn leaf_or_insert(&self, index: u32) -> Option<&RingLeaf> {
        let root = self.roots.get((index as usize) / RING_LEAF)?;
        let p = root.load(Ordering::Acquire);
        if !p.is_null() {
            return Some(unsafe { &*p });
        }
        let fresh = Box::into_raw(RingLeaf::new());
        match root.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Some(unsafe { &*fresh }),
            Err(winner) => {
                // Safety: ours never escaped.
                drop(unsafe { Box::from_raw(fresh) });
                Some(unsafe { &*winner })
            }
        }
    }

    /// The ring bound to `index`, if one exists (regardless of
    /// generation — the caller compares [`PortRing::port`]).
    pub fn lookup_index(&self, index: u32) -> Option<Arc<PortRing>> {
        self.leaf(index)?.rings[(index as usize) % RING_LEAF]
            .get()
            .cloned()
    }

    /// The ring owned by exactly this port (generation-checked), if the
    /// fast path is enabled.
    pub fn lookup(&self, port: ObjectRef) -> Option<Arc<PortRing>> {
        if !self.is_enabled() {
            return None;
        }
        let ring = self.lookup_index(port.index.0)?;
        if ring.port() == port && !ring.is_dead() {
            Some(ring)
        } else {
            None
        }
    }

    /// Binds a ring to `port` on first use (frozen until the locked
    /// path observes FAST mode). Returns the winning ring, which may
    /// belong to an earlier lifetime of the index — the caller must
    /// generation-check it.
    pub fn get_or_create(
        &self,
        port: ObjectRef,
        capacity: u32,
        port_level: Level,
    ) -> Option<Arc<PortRing>> {
        let leaf = self.leaf_or_insert(port.index.0)?;
        Some(
            leaf.rings[(port.index.0 as usize) % RING_LEAF]
                .get_or_init(|| Arc::new(PortRing::new(port, capacity, port_level)))
                .clone(),
        )
    }

    /// Every ring ever created (for collector scans and final flushes).
    pub fn for_each(&self, mut f: impl FnMut(&Arc<PortRing>)) {
        for root in self.roots.iter() {
            let p = root.load(Ordering::Acquire);
            if p.is_null() {
                continue;
            }
            let leaf = unsafe { &*p };
            for slot in leaf.rings.iter() {
                if let Some(ring) = slot.get() {
                    f(ring);
                }
            }
        }
    }
}

impl Drop for PortRingRegistry {
    fn drop(&mut self) {
        for root in self.roots.iter() {
            let p = root.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // Safety: exclusive at drop; leaves were Box-allocated.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Level;
    use crate::refs::ObjectIndex;

    fn port_ref(i: u32) -> ObjectRef {
        ObjectRef {
            index: ObjectIndex(i),
            generation: 1,
        }
    }

    fn entry(tag: u32) -> RingEntry {
        RingEntry {
            msg: AccessDescriptor {
                obj: ObjectRef {
                    index: ObjectIndex(tag),
                    generation: tag.wrapping_mul(7) | 1,
                },
                rights: Rights::READ,
            },
            key: u64::from(tag) * 3,
        }
    }

    fn open_ring(cap: u32) -> PortRing {
        let r = PortRing::new(port_ref(9), cap, Level::GLOBAL);
        r.freeze_and_drain(|_| {});
        r.reopen();
        r
    }

    #[test]
    fn rings_start_frozen_until_the_locked_path_reopens() {
        let r = PortRing::new(port_ref(1), 4, Level::GLOBAL);
        assert!(r.is_frozen());
        assert_eq!(r.push(entry(1)), Err(RingRefusal::Locked));
        assert_eq!(r.pop(), Err(RingRefusal::Locked));
        assert_eq!(r.freeze_and_drain(|_| {}), 0);
        r.reopen();
        assert!(!r.is_frozen());
        r.push(entry(1)).unwrap();
        assert_eq!(r.pop().unwrap(), entry(1));
    }

    #[test]
    fn fifo_order_and_payload_roundtrip() {
        let r = open_ring(8);
        for i in 0..5 {
            r.push(entry(i)).unwrap();
        }
        assert_eq!(r.occupancy(), 5);
        for i in 0..5 {
            assert_eq!(r.pop().unwrap(), entry(i));
        }
        assert_eq!(r.pop(), Err(RingRefusal::Empty));
    }

    #[test]
    fn logical_capacity_bounds_admission_exactly() {
        // Capacity 5 rounds up to 8 physical slots; admission must stop
        // at 5 anyway or a drain would overflow the port's message area.
        let r = open_ring(5);
        for i in 0..5 {
            r.push(entry(i)).unwrap();
        }
        assert_eq!(r.push(entry(99)), Err(RingRefusal::Full));
        assert_eq!(r.pop().unwrap(), entry(0));
        r.push(entry(5)).unwrap();
        assert_eq!(r.push(entry(100)), Err(RingRefusal::Full));
    }

    #[test]
    fn head_tail_wrap_at_position_overflow() {
        // Start the positions a few claims below the 63-bit wrap point:
        // pushes and pops must stream straight across it.
        let start = POS_MASK - 2; // wraps after 3 claims
        let r = PortRing::with_start(port_ref(3), 4, Level::GLOBAL, start);
        r.freeze_and_drain(|_| {});
        r.reopen();
        for round in 0..4u32 {
            for i in 0..4 {
                r.push(entry(round * 16 + i)).unwrap();
            }
            assert_eq!(r.push(entry(999)), Err(RingRefusal::Full));
            for i in 0..4 {
                assert_eq!(r.pop().unwrap(), entry(round * 16 + i));
            }
            assert_eq!(r.pop(), Err(RingRefusal::Empty));
        }
        // Positions really did pass the wrap point (and stayed clear of
        // the LOCK bit).
        let t = r.tail.load(Ordering::Relaxed);
        assert_eq!(t & LOCK, 0);
        assert!(t & POS_MASK < start, "tail wrapped around 2^63");
    }

    #[test]
    fn freeze_drains_oldest_first_and_blocks_new_claims() {
        let r = open_ring(8);
        for i in 0..6 {
            r.push(entry(i)).unwrap();
        }
        let mut drained = Vec::new();
        let n = r.freeze_and_drain(|e| drained.push(e));
        assert_eq!(n, 6);
        assert_eq!(drained, (0..6).map(entry).collect::<Vec<_>>());
        assert_eq!(r.push(entry(7)), Err(RingRefusal::Locked));
        r.reopen();
        r.push(entry(7)).unwrap();
        assert_eq!(r.pop().unwrap(), entry(7));
    }

    #[test]
    fn retired_ring_never_reopens() {
        let r = open_ring(4);
        r.push(entry(1)).unwrap();
        r.retire();
        assert!(r.is_dead());
        r.reopen();
        assert!(r.is_frozen());
        assert_eq!(r.push(entry(2)), Err(RingRefusal::Locked));
    }

    #[test]
    fn snapshot_sees_published_entries_only() {
        let r = open_ring(8);
        r.push(entry(4)).unwrap();
        r.push(entry(5)).unwrap();
        let refs = r.snapshot_refs();
        assert_eq!(refs, vec![entry(4).msg.obj, entry(5).msg.obj]);
        r.pop().unwrap();
        assert_eq!(r.snapshot_refs(), vec![entry(5).msg.obj]);
    }

    #[test]
    fn pending_stats_accumulate_and_drain() {
        let r = open_ring(8);
        r.push(entry(1)).unwrap();
        r.push(entry(2)).unwrap();
        r.pop().unwrap();
        assert_eq!(r.take_pending_stats(), (2, 1));
        assert_eq!(r.take_pending_stats(), (0, 0));
    }

    #[test]
    fn concurrent_producers_consumers_conserve_messages() {
        // 4 producers x 4 consumers over a small ring; every pushed tag
        // is popped exactly once, across claim contention and Full/Empty
        // refusals.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let r = Arc::new(open_ring(4));
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let popped = Arc::new(AtomicU64::new(0));
        const PER: u32 = 500;
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..PER {
                        let tag = p * PER + i + 1;
                        loop {
                            match r.push(entry(tag)) {
                                Ok(()) => break,
                                Err(_) => std::hint::spin_loop(),
                            }
                        }
                    }
                });
            }
            for _ in 0..4 {
                let r = Arc::clone(&r);
                let seen = Arc::clone(&seen);
                let popped = Arc::clone(&popped);
                s.spawn(move || loop {
                    if popped.load(Ordering::Acquire) >= u64::from(4 * PER) {
                        break;
                    }
                    if let Ok(e) = r.pop() {
                        assert!(seen.lock().unwrap().insert(e.msg.obj.index.0));
                        popped.fetch_add(1, Ordering::AcqRel);
                    } else {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), 4 * PER as usize);
    }

    #[test]
    fn drain_while_emitting_never_loses_or_duplicates() {
        // Producers hammer the ring while a "locked path" thread
        // repeatedly freezes, drains, and reopens: the union of drained
        // and popped tags must be exactly the pushed set.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let r = Arc::new(open_ring(8));
        let collected = Arc::new(Mutex::new(HashSet::new()));
        const PER: u32 = 400;
        let stop = AtomicBool::new(false);
        let stop = &stop;
        std::thread::scope(|s| {
            for p in 0..3u32 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..PER {
                        let tag = p * PER + i + 1;
                        loop {
                            match r.push(entry(tag)) {
                                Ok(()) => break,
                                Err(RingRefusal::Locked) | Err(RingRefusal::Contended) => {
                                    std::hint::spin_loop()
                                }
                                Err(RingRefusal::Full) => std::thread::yield_now(),
                                Err(RingRefusal::Empty) => unreachable!(),
                            }
                        }
                    }
                });
            }
            {
                let r = Arc::clone(&r);
                let collected = Arc::clone(&collected);
                s.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let mut got = Vec::new();
                        r.freeze_and_drain(|e| got.push(e.msg.obj.index.0));
                        r.reopen();
                        let mut set = collected.lock().unwrap();
                        for tag in got {
                            assert!(set.insert(tag), "tag {tag} drained twice");
                        }
                        if set.len() == 3 * PER as usize {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }
            // Consumers also race pops against the drains.
            for _ in 0..2 {
                let r = Arc::clone(&r);
                let collected = Arc::clone(&collected);
                s.spawn(move || loop {
                    {
                        let set = collected.lock().unwrap();
                        if set.len() == 3 * PER as usize {
                            break;
                        }
                    }
                    if let Ok(e) = r.pop() {
                        let mut set = collected.lock().unwrap();
                        assert!(
                            set.insert(e.msg.obj.index.0),
                            "tag {} popped twice",
                            e.msg.obj.index.0
                        );
                    } else {
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert_eq!(collected.lock().unwrap().len(), 3 * PER as usize);
    }

    #[test]
    fn retire_races_drain_and_fast_ops_without_resurrection() {
        // The retirement race: lock-free producers and consumers hammer
        // the ring while the locked path cycles freeze/drain/reopen and
        // a destructor retires it mid-traffic. As in the real system,
        // drain and retire are serialized by the port's shard locks
        // (modeled by `locked` here); the fast ops race both for real.
        // Invariants: no tag is ever handed out twice across pops and
        // drains, a retired ring refuses every operation forever (the
        // drainer's reopen must not resurrect it), and it ends drained.
        use std::collections::HashSet;
        use std::sync::Mutex;
        for round in 0..32u32 {
            let r = Arc::new(open_ring(8));
            let locked = Arc::new(Mutex::new(()));
            let collected = Arc::new(Mutex::new(HashSet::new()));
            let pushed = Arc::new(AtomicU64::new(0));
            std::thread::scope(|s| {
                for p in 0..2u32 {
                    let r = Arc::clone(&r);
                    let pushed = Arc::clone(&pushed);
                    s.spawn(move || {
                        for i in 0..300 {
                            match r.push(entry(p * 1000 + i + 1)) {
                                Ok(()) => {
                                    pushed.fetch_add(1, Ordering::SeqCst);
                                }
                                // Dead rings stay locked forever; a
                                // transient freeze deserves a retry.
                                Err(RingRefusal::Locked) if r.is_dead() => break,
                                Err(_) => std::thread::yield_now(),
                            }
                        }
                    });
                }
                {
                    let r = Arc::clone(&r);
                    let collected = Arc::clone(&collected);
                    s.spawn(move || loop {
                        if let Ok(e) = r.pop() {
                            assert!(
                                collected.lock().unwrap().insert(e.msg.obj.index.0),
                                "popped twice"
                            );
                        } else if r.is_dead() {
                            break;
                        } else {
                            std::thread::yield_now();
                        }
                    });
                }
                {
                    let r = Arc::clone(&r);
                    let locked = Arc::clone(&locked);
                    let collected = Arc::clone(&collected);
                    s.spawn(move || {
                        while !r.is_dead() {
                            {
                                let _shard = locked.lock().unwrap();
                                let mut got = Vec::new();
                                r.freeze_and_drain(|e| got.push(e.msg.obj.index.0));
                                // A reopen after the retirer won must be
                                // a no-op, never a resurrection.
                                r.reopen();
                                let mut set = collected.lock().unwrap();
                                for tag in got {
                                    assert!(set.insert(tag), "tag {tag} drained twice");
                                }
                            }
                            std::thread::yield_now();
                        }
                    });
                }
                {
                    let r = Arc::clone(&r);
                    let locked = Arc::clone(&locked);
                    s.spawn(move || {
                        for _ in 0..(round % 5) {
                            std::thread::yield_now();
                        }
                        let _shard = locked.lock().unwrap();
                        r.retire();
                    });
                }
            });
            assert!(r.is_dead(), "round {round}");
            assert!(r.is_frozen(), "round {round}: retired rings stay frozen");
            assert_eq!(r.push(entry(7777)), Err(RingRefusal::Locked));
            assert_eq!(r.pop(), Err(RingRefusal::Locked));
            r.reopen();
            assert_eq!(
                r.push(entry(8888)),
                Err(RingRefusal::Locked),
                "round {round}: reopen after retire must not resurrect"
            );
            assert_eq!(r.occupancy(), 0, "round {round}: retire drained the ring");
            let seen = collected.lock().unwrap().len() as u64;
            assert!(
                seen <= pushed.load(Ordering::SeqCst),
                "round {round}: handed out more than was pushed"
            );
        }
    }

    #[test]
    fn registry_binds_one_ring_per_index_lifetime() {
        let reg = PortRingRegistry::new();
        assert!(reg.lookup(port_ref(7)).is_none(), "disabled registry");
        reg.set_enabled(true);
        assert!(reg.lookup(port_ref(7)).is_none(), "no ring yet");
        let r1 = reg.get_or_create(port_ref(7), 4, Level::GLOBAL).unwrap();
        let r2 = reg.get_or_create(port_ref(7), 8, Level::GLOBAL).unwrap();
        assert!(Arc::ptr_eq(&r1, &r2), "one ring per index");
        assert_eq!(r2.capacity(), 4, "first binding wins");
        // A recycled index (new generation) never rebinds the slot.
        let newer = ObjectRef {
            index: ObjectIndex(7),
            generation: 2,
        };
        assert!(reg.lookup(newer).is_none());
        let r3 = reg.get_or_create(newer, 4, Level::GLOBAL).unwrap();
        assert!(Arc::ptr_eq(&r1, &r3));
        assert_ne!(r3.port(), newer);
        // The original still resolves.
        assert!(reg.lookup(port_ref(7)).is_some());
        let mut count = 0;
        reg.for_each(|_| count += 1);
        assert_eq!(count, 1);
    }
}
