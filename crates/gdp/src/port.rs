//! Hardware port operations: the 432's unified communication and
//! dispatching mechanism.
//!
//! Paper §2: "Interprocess communication is provided by send and receive
//! instructions that pass any access descriptor as a message via a
//! communication port object." The same port objects serve as
//! *dispatching ports* from which processors receive ready processes —
//! the unified model of the companion paper the text cites.
//!
//! Queue representation (see [`i432_arch::PortState`]): the port's access
//! part holds the message area followed by the waiting-process area.
//! Each is circular: live entries run oldest first from the area's head
//! and wrap within it, so taking the oldest entry — a FIFO receive, a
//! dispatch, a waiter wake-up — moves no other descriptor. Blocked
//! senders park their pending message in their process object's
//! `PROC_SLOT_MSG`.
//!
//! Blocking semantics follow Figure 1 exactly: a send to a full port
//! blocks the sending process until a slot frees; a receive on an empty
//! port blocks until a message arrives. Blocked senders and receivers
//! can never coexist at one port.

use crate::fault::{Fault, FaultKind};
use i432_arch::{
    sysobj::{PROC_SLOT_CONTEXT, PROC_SLOT_DISPATCH_PORT, PROC_SLOT_MSG},
    AccessDescriptor, ArchError, ObjectRef, PortDiscipline, PortRing, PortState, ProcessStatus,
    Rights, RingEntry, SpaceAccess, SpaceMut, SystemType, WaiterKind,
};
use std::sync::Arc;

/// Outcome of a send operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Handed directly to a waiting receiver (rendezvous).
    Delivered,
    /// Queued in the message area.
    Queued,
    /// The sending process blocked (message parked in its process
    /// object).
    Blocked,
    /// Non-blocking send found the queue full.
    WouldBlock,
}

/// Outcome of a receive operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A message was dequeued.
    Received(AccessDescriptor),
    /// The receiving process blocked at the port.
    Blocked,
    /// Non-blocking receive found no message.
    WouldBlock,
}

// ---------------------------------------------------------------------------
// Ring fast path (see `i432_arch::portring` for the protocol).
// ---------------------------------------------------------------------------

/// Attempts a program-level send on the port's lock-free ring,
/// consulting no shard lock on the port. Returns `None` whenever the
/// ring cannot complete the operation with rendezvous-identical
/// semantics — no ring, fast path disabled, missing SEND rights, a
/// level-rule violation, a frozen or full ring — and the caller must
/// fall back to the locked [`send`], which produces the canonical
/// outcome, fault, and statistics.
///
/// A fast send can only ever succeed while the port is in FAST mode
/// (empty message area, no waiters — the ring is frozen otherwise), the
/// one state where the locked path's answer is unconditionally
/// [`SendOutcome::Queued`].
pub fn fast_send<S: SpaceAccess + ?Sized>(
    space: &mut S,
    port_ad: AccessDescriptor,
    msg: AccessDescriptor,
    key: u64,
) -> Option<SendOutcome> {
    let ring = ring_for(space, port_ad, Rights::SEND)?;
    fast_send_on(space, &ring, port_ad, msg, key)
}

/// Resolves the live ring behind a port descriptor for a fast-path
/// operation: registry lookup plus the `need` rights check on the
/// descriptor in hand. `None` means "take the locked path". This is the
/// (site-independent) work a port-site inline cache memoizes — a hit
/// serves the ring without touching the registry.
pub fn ring_for<S: SpaceAccess + ?Sized>(
    space: &S,
    port_ad: AccessDescriptor,
    need: Rights,
) -> Option<Arc<PortRing>> {
    let ring = space.port_rings()?.lookup(port_ad.obj)?;
    if !port_ad.rights.contains(need) {
        return None;
    }
    Some(ring)
}

/// The send half of [`fast_send`], on an already-resolved ring. The
/// ring must come from [`ring_for`] (or an inline-cache line filled
/// from it) for this port descriptor with SEND rights.
pub fn fast_send_on<S: SpaceAccess + ?Sized>(
    space: &mut S,
    ring: &PortRing,
    port_ad: AccessDescriptor,
    msg: AccessDescriptor,
    key: u64,
) -> Option<SendOutcome> {
    // Level rule (paper §5): the message must outlive the port. The
    // port's level is cached in the ring; the message's comes from its
    // entry — any doubt (dead message, would-be violation) falls back
    // so the locked path faults and bumps `level_faults` exactly once.
    let msg_level = space.level_of(msg.obj).ok()?;
    if !ring.port_level().may_hold(msg_level) {
        return None;
    }
    // The moral equivalent of `queue_push`'s hardware store barrier:
    // shade the message before publication so a concurrent marker
    // cannot miss a reference that lives only in the ring.
    space.shade(msg.obj).ok()?;
    match ring.push(RingEntry { msg, key }) {
        Ok(()) => {
            if i432_trace::ENABLED {
                i432_trace::emit(i432_trace::EventKind::PortSend, port_ad.obj.index.0);
                i432_trace::bump(i432_trace::Counter::PortSends);
                i432_trace::emit(i432_trace::EventKind::PortFastSend, port_ad.obj.index.0);
                i432_trace::bump(i432_trace::Counter::PortFastSends);
            }
            Some(SendOutcome::Queued)
        }
        Err(_) => {
            i432_trace::bump(i432_trace::Counter::PortRingFallbacks);
            None
        }
    }
}

/// Attempts a program-level receive on the port's lock-free ring. Same
/// contract as [`fast_send`]: `None` means "take the locked path"; a
/// `Some` result is bit-identical to what the locked [`receive`] would
/// have returned in this state (FIFO head of a non-empty queue with no
/// waiting senders — the FAST-mode guarantee).
pub fn fast_receive<S: SpaceAccess + ?Sized>(
    space: &mut S,
    port_ad: AccessDescriptor,
) -> Option<RecvOutcome> {
    let ring = ring_for(space, port_ad, Rights::RECEIVE)?;
    fast_receive_on(&ring, port_ad)
}

/// The receive half of [`fast_receive`], on an already-resolved ring
/// (same contract as [`fast_send_on`], with RECEIVE rights).
pub fn fast_receive_on(ring: &PortRing, port_ad: AccessDescriptor) -> Option<RecvOutcome> {
    match ring.pop() {
        Ok(e) => {
            if i432_trace::ENABLED {
                i432_trace::emit(i432_trace::EventKind::PortReceive, port_ad.obj.index.0);
                i432_trace::bump(i432_trace::Counter::PortReceives);
                i432_trace::emit(i432_trace::EventKind::PortFastReceive, port_ad.obj.index.0);
                i432_trace::bump(i432_trace::Counter::PortFastReceives);
            }
            Some(RecvOutcome::Received(e.msg))
        }
        Err(_) => {
            i432_trace::bump(i432_trace::Counter::PortRingFallbacks);
            None
        }
    }
}

/// Locked-path prologue: freezes the port's ring (creating it on first
/// use for FIFO ports) and drains every frozen entry into the message
/// area, so the locked rendezvous below sees the complete queue state.
/// Folds the ring's completed fast-op counts into the port statistics.
/// Returns the ring for [`ring_release`]; `None` when the port has no
/// usable ring (fast path disabled, non-FIFO discipline, or a ring
/// bound by an earlier lifetime of the index — which is retired, its
/// entries having died with that port).
fn ring_acquire<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
) -> Result<Option<Arc<PortRing>>, Fault> {
    let Some(reg) = space.port_rings() else {
        return Ok(None);
    };
    if !reg.is_enabled() {
        return Ok(None);
    }
    let reg = Arc::clone(reg);
    if let Some(old) = reg.lookup_index(port.index.0) {
        if old.port() != port {
            old.retire();
            return Ok(None);
        }
    }
    let (discipline, capacity) = {
        let st = space.port(port).map_err(Fault::from)?;
        (st.discipline, st.capacity)
    };
    if discipline != PortDiscipline::Fifo {
        return Ok(None);
    }
    let level = space.entry(port).map_err(Fault::from)?.desc.level;
    let Some(ring) = reg.get_or_create(port, capacity, level) else {
        return Ok(None);
    };
    if ring.port() != port || ring.is_dead() {
        ring.retire();
        return Ok(None);
    }
    let mut drained = Vec::new();
    let depth = ring.freeze_and_drain(|e| drained.push(e));
    for e in drained {
        queue_push(space, port, e.msg, e.key)?;
    }
    let (fast_sends, fast_receives) = ring.take_pending_stats();
    if fast_sends != 0 || fast_receives != 0 {
        let st = space.port_mut(port).map_err(Fault::from)?;
        st.stats.sends += fast_sends;
        st.stats.receives += fast_receives;
    }
    if i432_trace::ENABLED {
        i432_trace::observe(i432_trace::Hist::PortQueueDepth, depth);
        if depth > 0 {
            i432_trace::emit(i432_trace::EventKind::PortRingDrain, port.index.0);
            i432_trace::bump(i432_trace::Counter::PortRingDrains);
        }
    }
    Ok(Some(ring))
}

/// Locked-path epilogue: re-opens the ring iff the port left the
/// operation in FAST mode — empty message area and no waiting
/// processes. In any other state the ring stays frozen and every
/// operation keeps taking the locked path, which is exactly what makes
/// the fast path rendezvous-equivalent (see `i432_arch::portring`).
fn ring_release<S: SpaceMut + ?Sized>(space: &mut S, port: ObjectRef, ring: &PortRing) {
    let fast = match space.port(port) {
        Ok(st) => st.msg_count == 0 && st.wait_count == 0,
        // Port destroyed inside the operation: never reopen.
        Err(_) => false,
    };
    if fast {
        ring.reopen();
    }
}

/// Drains every live ring into its port's message area and leaves all
/// rings frozen — called by runners at quiescence, before digests or
/// final-state inspection, so ring-resident messages are observable in
/// the same place the locked world puts them. Rings whose port died
/// are retired (their messages died with the port, as they would have
/// in the message area).
pub fn flush_rings<S: SpaceMut + ?Sized>(space: &mut S) -> Result<(), Fault> {
    let Some(reg) = space.port_rings() else {
        return Ok(());
    };
    let reg = Arc::clone(reg);
    let mut rings = Vec::new();
    reg.for_each(|r| rings.push(Arc::clone(r)));
    for ring in rings {
        let port = ring.port();
        if ring.is_dead() || space.port(port).is_err() {
            ring.retire();
            continue;
        }
        let mut drained = Vec::new();
        ring.freeze_and_drain(|e| drained.push(e));
        for e in drained {
            queue_push(space, port, e.msg, e.key)?;
        }
        let (fast_sends, fast_receives) = ring.take_pending_stats();
        if fast_sends != 0 || fast_receives != 0 {
            let st = space.port_mut(port).map_err(Fault::from)?;
            st.stats.sends += fast_sends;
            st.stats.receives += fast_receives;
        }
    }
    Ok(())
}

/// One of the two circular areas of a port's access part.
#[derive(Clone, Copy)]
enum Area {
    Messages,
    Waiters,
}

/// Where one area's live entries sit: `count` entries, oldest first,
/// from offset `head` of the `len` slots starting at `base`, wrapping
/// within them.
#[derive(Clone, Copy)]
struct Span {
    base: u32,
    len: u32,
    head: u32,
    count: u32,
}

impl Span {
    fn of(st: &PortState, area: Area) -> Span {
        match area {
            Area::Messages => Span {
                base: 0,
                len: st.capacity,
                head: st.msg_head,
                count: st.msg_count,
            },
            Area::Waiters => Span {
                base: st.capacity,
                len: st.wait_capacity,
                head: st.wait_head,
                count: st.wait_count,
            },
        }
    }

    /// Offset within the area of logical entry `i` (`i < len`). Wraps by
    /// compare-and-subtract rather than `%`, which costs a division.
    #[inline]
    fn offset(&self, i: u32) -> u32 {
        let o = self.head + i;
        if o >= self.len {
            o - self.len
        } else {
            o
        }
    }

    /// Access-part slot of logical entry `i`.
    #[inline]
    fn slot(&self, i: u32) -> u32 {
        self.base + self.offset(i)
    }
}

/// Picks the logical index of the message to receive next under the
/// port's discipline. Keys are scanned oldest first, as the two slices
/// either side of the wrap, so ties go to the oldest message.
fn pick_index(st: &PortState) -> u32 {
    if st.discipline == PortDiscipline::Fifo {
        return 0;
    }
    let head = st.msg_head as usize;
    let count = st.msg_count as usize;
    let first = count.min(st.capacity as usize - head);
    let older = &st.msg_keys[head..head + first];
    let newer = &st.msg_keys[..count - first];
    let (mut best, mut best_key) = (0, u64::MAX);
    for (i, &k) in older.iter().enumerate() {
        if k < best_key {
            (best, best_key) = (i, k);
        }
    }
    for (i, &k) in newer.iter().enumerate() {
        if k < best_key {
            (best, best_key) = (first + i, k);
        }
    }
    best as u32
}

/// Appends a message to the message area (caller has verified space).
fn queue_push<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    msg: AccessDescriptor,
    key: u64,
) -> Result<(), Fault> {
    let span = {
        let st = space.port(port).map_err(Fault::from)?;
        debug_assert!(st.msg_count < st.capacity);
        Span::of(st, Area::Messages)
    };
    space
        .store_ad_hw(port, span.slot(span.count), Some(msg))
        .map_err(Fault::from)?;
    let st = space.port_mut(port).map_err(Fault::from)?;
    st.msg_keys[span.offset(span.count) as usize] = key;
    st.msg_count += 1;
    Ok(())
}

/// Removes and returns logical entry `idx` of one area, closing the gap
/// from the shorter side: either the entries before it move one slot
/// toward the tail and the head advances, or the entries after it move
/// one slot toward the head. Taking the oldest entry moves nothing.
/// Message keys move with their messages.
fn area_remove<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    area: Area,
    idx: u32,
) -> Result<AccessDescriptor, Fault> {
    let span = Span::of(space.port(port).map_err(Fault::from)?, area);
    debug_assert!(idx < span.count);
    let removed = space
        .load_ad_hw(port, span.slot(idx))
        .map_err(Fault::from)?
        .ok_or_else(|| {
            let what = match area {
                Area::Messages => "empty message slot",
                Area::Waiters => "empty wait slot",
            };
            Fault::with_detail(FaultKind::NullAccess, what)
        })?;
    let after = span.count - 1 - idx;
    let from_front = idx < after;
    // The k-th move, as logical (from, to), in the order it must run.
    let shift = |k: u32| {
        if from_front {
            (idx - 1 - k, idx - k)
        } else {
            (idx + 1 + k, idx + k)
        }
    };
    let moves = if from_front { idx } else { after };
    for k in 0..moves {
        let (from, to) = shift(k);
        let ad = space
            .load_ad_hw(port, span.slot(from))
            .map_err(Fault::from)?;
        space
            .store_ad_hw(port, span.slot(to), ad)
            .map_err(Fault::from)?;
    }
    let (vacated, head) = if from_front {
        (0, span.offset(1))
    } else {
        (span.count - 1, span.head)
    };
    space
        .store_ad_hw(port, span.slot(vacated), None)
        .map_err(Fault::from)?;
    let st = space.port_mut(port).map_err(Fault::from)?;
    match area {
        Area::Messages => {
            for k in 0..moves {
                let (from, to) = shift(k);
                st.msg_keys[span.offset(to) as usize] = st.msg_keys[span.offset(from) as usize];
            }
            st.msg_head = head;
            st.msg_count -= 1;
        }
        Area::Waiters => {
            st.wait_head = head;
            st.wait_count -= 1;
            if st.wait_count == 0 {
                st.waiters = WaiterKind::None;
            }
        }
    }
    Ok(removed)
}

/// Appends a process to the waiting area.
fn wait_push<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    proc_ref: ObjectRef,
) -> Result<(), Fault> {
    let span = Span::of(space.port(port).map_err(Fault::from)?, Area::Waiters);
    if span.count >= span.len {
        return Err(Fault::with_detail(
            FaultKind::QueueOverflow,
            "port waiting area full",
        ));
    }
    let ad = space.mint(proc_ref, Rights::NONE);
    space
        .store_ad_hw(port, span.slot(span.count), Some(ad))
        .map_err(Fault::from)?;
    space.port_mut(port).map_err(Fault::from)?.wait_count += 1;
    Ok(())
}

/// Pops the longest-waiting process from the waiting area.
fn wait_pop<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
) -> Result<Option<ObjectRef>, Fault> {
    if space.port(port).map_err(Fault::from)?.wait_count == 0 {
        return Ok(None);
    }
    Ok(Some(area_remove(space, port, Area::Waiters, 0)?.obj))
}

/// Sends a message through a port.
///
/// * `sender` — the sending process, when the send may block; `None`
///   makes a full queue return [`SendOutcome::WouldBlock`] even if
///   `blocking` (native services and the executive cannot block).
/// * `carrier` — hardware-carrier sends (process delivery to dispatch,
///   scheduler and fault ports) bypass the program-level rights and level
///   checks, exactly as the 432's implicit port operations did.
pub fn send<S: SpaceMut + ?Sized>(
    space: &mut S,
    sender: Option<ObjectRef>,
    port_ad: AccessDescriptor,
    msg: AccessDescriptor,
    key: u64,
    blocking: bool,
    carrier: bool,
) -> Result<SendOutcome, Fault> {
    let port = space
        .expect_type(port_ad, SystemType::Port)
        .map_err(Fault::from)?;
    let ring = ring_acquire(space, port)?;
    let out = send_at(space, port, sender, port_ad, msg, key, blocking, carrier);
    if let Some(ring) = &ring {
        ring_release(space, port, ring);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn send_at<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    sender: Option<ObjectRef>,
    port_ad: AccessDescriptor,
    msg: AccessDescriptor,
    key: u64,
    blocking: bool,
    carrier: bool,
) -> Result<SendOutcome, Fault> {
    if !carrier {
        space.qualify(port_ad, Rights::SEND).map_err(Fault::from)?;
        // Program-level sends obey the lifetime rule: the message must be
        // at least as long-lived as the port (paper §5).
        let port_level = space.entry(port).map_err(Fault::from)?.desc.level;
        let msg_level = space.entry(msg.obj).map_err(Fault::from)?.desc.level;
        if !port_level.may_hold(msg_level) {
            space.stats_mut_of(port).level_faults += 1;
            return Err(Fault::from(ArchError::LevelViolation {
                stored: msg_level,
                container: port_level,
            }));
        }
    }

    if i432_trace::ENABLED {
        // Implicit hardware-carrier operations (dispatch/scheduler/fault
        // delivery) trace as surrogate ops, program-level sends as sends.
        if carrier {
            i432_trace::emit(i432_trace::EventKind::PortSurrogate, port.index.0);
            i432_trace::bump(i432_trace::Counter::PortSurrogates);
        } else {
            i432_trace::emit(i432_trace::EventKind::PortSend, port.index.0);
            i432_trace::bump(i432_trace::Counter::PortSends);
        }
    }

    // Rendezvous with a waiting receiver?
    let has_waiting_receiver = {
        let st = space.port(port).map_err(Fault::from)?;
        st.waiters == WaiterKind::Receivers && st.wait_count > 0
    };
    if has_waiting_receiver {
        let receiver = wait_pop(space, port)?.expect("wait_count > 0");
        deliver_to_receiver(space, receiver, msg)?;
        let st = space.port_mut(port).map_err(Fault::from)?;
        st.stats.sends += 1;
        st.stats.receives += 1;
        make_ready(space, receiver)?;
        return Ok(SendOutcome::Delivered);
    }

    // Queue space available?
    let full = space.port(port).map_err(Fault::from)?.is_full();
    if !full {
        queue_push(space, port, msg, key)?;
        space.port_mut(port).map_err(Fault::from)?.stats.sends += 1;
        return Ok(SendOutcome::Queued);
    }

    // Full: block or bounce.
    let Some(sender) = sender else {
        return Ok(SendOutcome::WouldBlock);
    };
    if !blocking {
        return Ok(SendOutcome::WouldBlock);
    }
    space
        .store_ad_hw(sender, PROC_SLOT_MSG, Some(msg))
        .map_err(Fault::from)?;
    {
        let ps = space.process_mut(sender).map_err(Fault::from)?;
        ps.pending_send_key = key;
        ps.status = ProcessStatus::BlockedSend;
        ps.blocked_port = Some(port);
    }
    wait_push(space, port, sender)?;
    let st = space.port_mut(port).map_err(Fault::from)?;
    st.waiters = WaiterKind::Senders;
    st.stats.blocked_sends += 1;
    Ok(SendOutcome::Blocked)
}

/// Receives a message from a port.
///
/// * `receiver` — the receiving process, when the receive may block;
///   `dst_slot` is the context access slot the message must eventually
///   land in (recorded for rendezvous delivery while blocked).
/// * `carrier` — processor dispatching receives bypass the rights check.
pub fn receive<S: SpaceMut + ?Sized>(
    space: &mut S,
    receiver: Option<(ObjectRef, u32)>,
    port_ad: AccessDescriptor,
    blocking: bool,
    carrier: bool,
) -> Result<RecvOutcome, Fault> {
    let port = space
        .expect_type(port_ad, SystemType::Port)
        .map_err(Fault::from)?;
    let ring = ring_acquire(space, port)?;
    let out = receive_at(space, port, receiver, port_ad, blocking, carrier);
    if let Some(ring) = &ring {
        ring_release(space, port, ring);
    }
    out
}

fn receive_at<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    receiver: Option<(ObjectRef, u32)>,
    port_ad: AccessDescriptor,
    blocking: bool,
    carrier: bool,
) -> Result<RecvOutcome, Fault> {
    if !carrier {
        space
            .qualify(port_ad, Rights::RECEIVE)
            .map_err(Fault::from)?;
    }

    if i432_trace::ENABLED {
        if carrier {
            i432_trace::emit(i432_trace::EventKind::PortSurrogate, port.index.0);
            i432_trace::bump(i432_trace::Counter::PortSurrogates);
        } else {
            i432_trace::emit(i432_trace::EventKind::PortReceive, port.index.0);
            i432_trace::bump(i432_trace::Counter::PortReceives);
        }
    }

    let pick = {
        let st = space.port(port).map_err(Fault::from)?;
        (st.msg_count > 0).then(|| pick_index(st))
    };
    if let Some(idx) = pick {
        let msg = area_remove(space, port, Area::Messages, idx)?;
        space.port_mut(port).map_err(Fault::from)?.stats.receives += 1;

        // A freed slot may complete a blocked sender.
        let has_waiting_sender = {
            let st = space.port(port).map_err(Fault::from)?;
            st.waiters == WaiterKind::Senders && st.wait_count > 0
        };
        if has_waiting_sender {
            let sender = wait_pop(space, port)?.expect("wait_count > 0");
            let pending = space
                .load_ad_hw(sender, PROC_SLOT_MSG)
                .map_err(Fault::from)?
                .ok_or_else(|| {
                    Fault::with_detail(FaultKind::NullAccess, "blocked sender lost its message")
                })?;
            let key = space.process(sender).map_err(Fault::from)?.pending_send_key;
            space
                .store_ad_hw(sender, PROC_SLOT_MSG, None)
                .map_err(Fault::from)?;
            queue_push(space, port, pending, key)?;
            let st = space.port_mut(port).map_err(Fault::from)?;
            st.stats.sends += 1;
            make_ready(space, sender)?;
        }
        return Ok(RecvOutcome::Received(msg));
    }

    // Empty: block or bounce.
    let Some((receiver, dst_slot)) = receiver else {
        return Ok(RecvOutcome::WouldBlock);
    };
    if !blocking {
        return Ok(RecvOutcome::WouldBlock);
    }
    {
        let ps = space.process_mut(receiver).map_err(Fault::from)?;
        ps.pending_receive_dst = Some(dst_slot);
        ps.status = ProcessStatus::BlockedReceive;
        ps.blocked_port = Some(port);
    }
    wait_push(space, port, receiver)?;
    let st = space.port_mut(port).map_err(Fault::from)?;
    st.waiters = WaiterKind::Receivers;
    st.stats.blocked_receives += 1;
    Ok(RecvOutcome::Blocked)
}

/// Delivers a message straight into a blocked receiver's context slot
/// (rendezvous completion).
fn deliver_to_receiver<S: SpaceMut + ?Sized>(
    space: &mut S,
    receiver: ObjectRef,
    msg: AccessDescriptor,
) -> Result<(), Fault> {
    let dst = {
        let ps = space.process_mut(receiver).map_err(Fault::from)?;
        ps.pending_receive_dst.take().ok_or_else(|| {
            Fault::with_detail(
                FaultKind::NullAccess,
                "waiting receiver has no pending destination",
            )
        })?
    };
    let ctx = space
        .load_ad_hw(receiver, PROC_SLOT_CONTEXT)
        .map_err(Fault::from)?
        .ok_or_else(|| {
            Fault::with_detail(FaultKind::NullAccess, "waiting receiver has no context")
        })?;
    space
        .store_ad_hw(ctx.obj, dst, Some(msg))
        .map_err(Fault::from)?;
    Ok(())
}

/// Updates the queueing key of a message already in a port's message
/// area (identified by the object it designates). Returns `true` when
/// found.
///
/// Schedulers use this to re-key *queued* processes after a rebalance —
/// without it a priority change would only take effect at the next
/// requeue, starving processes parked under a stale key.
pub fn update_queued_key<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    target: ObjectRef,
    key: u64,
) -> Result<bool, Fault> {
    // Drain the ring first so a fast-queued message is re-keyable too.
    // (No release: the walk doesn't change FAST-mode eligibility, and
    // the next send/receive re-opens the ring if the port qualifies.)
    let _ring = ring_acquire(space, port)?;
    let span = Span::of(space.port(port).map_err(Fault::from)?, Area::Messages);
    for i in 0..span.count {
        if let Some(ad) = space.load_ad_hw(port, span.slot(i)).map_err(Fault::from)? {
            if ad.obj == target {
                space.port_mut(port).map_err(Fault::from)?.msg_keys[span.offset(i) as usize] = key;
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Marks a process ready and enqueues it at its dispatching port.
///
/// The queueing key is the process's priority or deadline depending on
/// the dispatching port's discipline — this is how the hardware realizes
/// priority dispatching without any software in the loop.
pub fn make_ready<S: SpaceMut + ?Sized>(space: &mut S, proc_ref: ObjectRef) -> Result<(), Fault> {
    let (timeslice, priority, deadline) = {
        let ps = space.process_mut(proc_ref).map_err(Fault::from)?;
        ps.status = ProcessStatus::Ready;
        ps.slice_remaining = ps.timeslice;
        ps.blocked_port = None;
        ps.timeout_at = 0;
        (ps.timeslice, ps.priority, ps.deadline)
    };
    let _ = timeslice;
    let dispatch = space
        .load_ad_hw(proc_ref, PROC_SLOT_DISPATCH_PORT)
        .map_err(Fault::from)?
        .ok_or_else(|| {
            Fault::with_detail(FaultKind::NullAccess, "process has no dispatching port")
        })?;
    let discipline = {
        let port = space
            .expect_type(dispatch, SystemType::Port)
            .map_err(Fault::from)?;
        space.port(port).map_err(Fault::from)?.discipline
    };
    let key = match discipline {
        PortDiscipline::Fifo => 0,
        PortDiscipline::Priority => priority as u64,
        PortDiscipline::Deadline => deadline,
    };
    let proc_ad = space.mint(proc_ref, Rights::NONE);
    match send(space, None, dispatch, proc_ad, key, false, true)? {
        SendOutcome::Queued | SendOutcome::Delivered => Ok(()),
        SendOutcome::WouldBlock | SendOutcome::Blocked => Err(Fault::with_detail(
            FaultKind::QueueOverflow,
            "dispatching port full",
        )),
    }
}

/// Expires a timed-out blocked receiver: removes it from its port's
/// waiting area and leaves it Faulted with a timeout, ready for fault
/// delivery. Returns `false` when the process was no longer blocked
/// (the rendezvous won the race).
pub fn expire_timeout<S: SpaceMut + ?Sized>(
    space: &mut S,
    proc_ref: ObjectRef,
) -> Result<bool, Fault> {
    let (status, port) = {
        let ps = space.process(proc_ref).map_err(Fault::from)?;
        (ps.status, ps.blocked_port)
    };
    if status != ProcessStatus::BlockedReceive {
        return Ok(false);
    }
    let Some(port) = port else {
        return Ok(false);
    };
    let span = Span::of(space.port(port).map_err(Fault::from)?, Area::Waiters);
    let mut found = None;
    for i in 0..span.count {
        if let Some(ad) = space.load_ad_hw(port, span.slot(i)).map_err(Fault::from)? {
            if ad.obj == proc_ref {
                found = Some(i);
                break;
            }
        }
    }
    let Some(idx) = found else {
        return Ok(false);
    };
    area_remove(space, port, Area::Waiters, idx)?;
    let ps = space.process_mut(proc_ref).map_err(Fault::from)?;
    ps.status = ProcessStatus::Faulted;
    ps.blocked_port = None;
    ps.timeout_at = 0;
    ps.pending_receive_dst = None;
    ps.fault_code = FaultKind::Timeout.code();
    ps.fault_detail = "receive timed out".into();
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{ObjectSpace, ObjectSpec, ObjectType, PortState, SysState};

    fn space() -> ObjectSpace {
        ObjectSpace::new(64 * 1024, 4096, 1024)
    }

    fn make_port(space: &mut ObjectSpace, cap: u32, disc: PortDiscipline) -> ObjectRef {
        make_port_with(space, cap, 16, disc)
    }

    fn make_port_with(
        space: &mut ObjectSpace,
        cap: u32,
        wait_cap: u32,
        disc: PortDiscipline,
    ) -> ObjectRef {
        let root = space.root_sro();
        space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(cap, wait_cap),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(cap, wait_cap, disc)),
                },
            )
            .unwrap()
    }

    /// `n` processes dispatched from one fresh FIFO port, returned with
    /// that port.
    fn make_procs(space: &mut ObjectSpace, n: usize) -> (ObjectRef, Vec<ObjectRef>) {
        use crate::process::{make_process, ProcessSpec};
        use i432_arch::{CodeBody, CodeRef, DomainState, Subprogram};
        let root = space.root_sro();
        let dispatch = make_port_with(space, 16, 16, PortDiscipline::Fifo);
        let dispatch_ad = space.mint(dispatch, Rights::NONE);
        let dom = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: 2,
                    otype: ObjectType::System(SystemType::Domain),
                    level: None,
                    sys: SysState::Domain(DomainState {
                        name: "d".into(),
                        subprograms: vec![Subprogram {
                            name: "main".into(),
                            body: CodeBody::Interpreted(CodeRef(0)),
                            ctx_data_len: 32,
                            ctx_access_len: 8,
                        }],
                    }),
                },
            )
            .unwrap();
        let dom_ad = space.mint(dom, Rights::CALL);
        let procs = (0..n)
            .map(|_| {
                make_process(space, root, dom_ad, 0, None, ProcessSpec::new(dispatch_ad)).unwrap()
            })
            .collect();
        (dispatch, procs)
    }

    /// Empties a dispatching port, returning its processes in the order
    /// they became ready.
    fn ready_order(space: &mut ObjectSpace, dispatch: ObjectRef) -> Vec<ObjectRef> {
        let ad = space.mint(dispatch, Rights::RECEIVE);
        let mut out = Vec::new();
        while let RecvOutcome::Received(p) = receive(space, None, ad, false, true).unwrap() {
            out.push(p.obj);
        }
        out
    }

    /// True when the live messages run past the end of the message area.
    fn msgs_wrap(st: &PortState) -> bool {
        st.msg_head + st.msg_count > st.capacity
    }

    /// True when the waiting processes run past the end of their area.
    fn waiters_wrap(st: &PortState) -> bool {
        st.wait_head + st.wait_count > st.wait_capacity
    }

    fn make_msg(space: &mut ObjectSpace) -> AccessDescriptor {
        let root = space.root_sro();
        let r = space
            .create_object(root, ObjectSpec::generic(8, 0))
            .unwrap();
        space.mint(r, Rights::READ | Rights::WRITE)
    }

    #[test]
    fn fifo_send_receive_order() {
        let mut s = space();
        let port = make_port(&mut s, 4, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let m1 = make_msg(&mut s);
        let m2 = make_msg(&mut s);
        assert_eq!(
            send(&mut s, None, pad, m1, 0, false, false).unwrap(),
            SendOutcome::Queued
        );
        assert_eq!(
            send(&mut s, None, pad, m2, 0, false, false).unwrap(),
            SendOutcome::Queued
        );
        let r1 = receive(&mut s, None, pad, false, false).unwrap();
        let r2 = receive(&mut s, None, pad, false, false).unwrap();
        assert_eq!(r1, RecvOutcome::Received(m1));
        assert_eq!(r2, RecvOutcome::Received(m2));
        assert_eq!(
            receive(&mut s, None, pad, false, false).unwrap(),
            RecvOutcome::WouldBlock
        );
    }

    #[test]
    fn priority_discipline_orders_by_key() {
        let mut s = space();
        let port = make_port(&mut s, 4, PortDiscipline::Priority);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let low = make_msg(&mut s);
        let high = make_msg(&mut s);
        send(&mut s, None, pad, low, 9, false, false).unwrap();
        send(&mut s, None, pad, high, 1, false, false).unwrap();
        assert_eq!(
            receive(&mut s, None, pad, false, false).unwrap(),
            RecvOutcome::Received(high)
        );
        assert_eq!(
            receive(&mut s, None, pad, false, false).unwrap(),
            RecvOutcome::Received(low)
        );
    }

    #[test]
    fn send_requires_send_rights() {
        let mut s = space();
        let port = make_port(&mut s, 2, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::RECEIVE);
        let m = make_msg(&mut s);
        let e = send(&mut s, None, pad, m, 0, false, false).unwrap_err();
        assert_eq!(e.kind, FaultKind::Rights);
    }

    #[test]
    fn receive_requires_receive_rights() {
        let mut s = space();
        let port = make_port(&mut s, 2, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND);
        let e = receive(&mut s, None, pad, false, false).unwrap_err();
        assert_eq!(e.kind, FaultKind::Rights);
    }

    #[test]
    fn send_to_non_port_faults() {
        let mut s = space();
        let root = s.root_sro();
        let not_port = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let pad = s.mint(not_port, Rights::ALL);
        let m = make_msg(&mut s);
        let e = send(&mut s, None, pad, m, 0, false, false).unwrap_err();
        assert_eq!(e.kind, FaultKind::TypeMismatch);
    }

    #[test]
    fn full_port_would_block_without_process() {
        let mut s = space();
        let port = make_port(&mut s, 1, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let m1 = make_msg(&mut s);
        let m2 = make_msg(&mut s);
        send(&mut s, None, pad, m1, 0, false, false).unwrap();
        assert_eq!(
            send(&mut s, None, pad, m2, 0, true, false).unwrap(),
            SendOutcome::WouldBlock
        );
    }

    #[test]
    fn level_rule_applies_to_program_sends() {
        use i432_arch::Level;
        let mut s = space();
        let port = make_port(&mut s, 2, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        // A local (short-lived) message may not pass through a global
        // port.
        let root = s.root_sro();
        let local = s
            .create_object(
                root,
                ObjectSpec {
                    level: Some(Level(4)),
                    ..ObjectSpec::generic(8, 0)
                },
            )
            .unwrap();
        let msg = s.mint(local, Rights::READ);
        let e = send(&mut s, None, pad, msg, 0, false, false).unwrap_err();
        assert_eq!(e.kind, FaultKind::Level);
        // Carrier sends (hardware process delivery) are exempt.
        assert_eq!(
            send(&mut s, None, pad, msg, 0, false, true).unwrap(),
            SendOutcome::Queued
        );
    }

    #[test]
    fn port_stats_track_traffic() {
        let mut s = space();
        let port = make_port(&mut s, 2, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let m = make_msg(&mut s);
        send(&mut s, None, pad, m, 0, false, false).unwrap();
        receive(&mut s, None, pad, false, false).unwrap();
        let st = s.port(port).unwrap();
        assert_eq!(st.stats.sends, 1);
        assert_eq!(st.stats.receives, 1);
        assert_eq!(st.stats.blocked_sends, 0);
    }

    #[test]
    fn deadline_discipline_picks_earliest() {
        let mut s = space();
        let port = make_port(&mut s, 4, PortDiscipline::Deadline);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let a = make_msg(&mut s);
        let b = make_msg(&mut s);
        let c = make_msg(&mut s);
        send(&mut s, None, pad, a, 300, false, false).unwrap();
        send(&mut s, None, pad, b, 100, false, false).unwrap();
        send(&mut s, None, pad, c, 200, false, false).unwrap();
        assert_eq!(
            receive(&mut s, None, pad, false, false).unwrap(),
            RecvOutcome::Received(b)
        );
        assert_eq!(
            receive(&mut s, None, pad, false, false).unwrap(),
            RecvOutcome::Received(c)
        );
    }

    #[test]
    fn fifo_order_holds_across_many_wraps() {
        let mut s = space();
        let port = make_port(&mut s, 4, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let msgs: Vec<_> = (0..6).map(|_| make_msg(&mut s)).collect();
        let mut model = std::collections::VecDeque::new();
        let (mut sent, mut wrapped) = (0, false);
        // Two sends per receive while there is room, one receive when full.
        for step in 0..40 {
            if model.len() < 4 && step % 3 != 2 {
                let m = msgs[sent % msgs.len()];
                sent += 1;
                assert_eq!(
                    send(&mut s, None, pad, m, 0, false, false).unwrap(),
                    SendOutcome::Queued
                );
                model.push_back(m);
            } else {
                let want = model.pop_front().unwrap();
                assert_eq!(
                    receive(&mut s, None, pad, false, false).unwrap(),
                    RecvOutcome::Received(want),
                    "step {step}"
                );
            }
            wrapped |= msgs_wrap(s.port(port).unwrap());
        }
        while let Some(want) = model.pop_front() {
            assert_eq!(
                receive(&mut s, None, pad, false, false).unwrap(),
                RecvOutcome::Received(want)
            );
        }
        assert!(sent > 2 * 4, "more than twice the capacity went through");
        assert!(wrapped, "the message area wrapped");
    }

    #[test]
    fn key_ties_go_to_the_oldest_across_the_wrap() {
        for disc in [PortDiscipline::Priority, PortDiscipline::Deadline] {
            let mut s = space();
            let port = make_port(&mut s, 4, disc);
            let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
            // Four equal-key fillers drained oldest first leave the head
            // at slot 3, so the next four messages wrap.
            let filler = make_msg(&mut s);
            for _ in 0..4 {
                send(&mut s, None, pad, filler, 0, false, false).unwrap();
            }
            for _ in 0..4 {
                receive(&mut s, None, pad, false, false).unwrap();
            }
            for (keys, order) in [([5, 1, 1, 5], [1, 2, 0, 3]), ([7; 4], [0, 1, 2, 3])] {
                let msgs: Vec<_> = (0..4).map(|_| make_msg(&mut s)).collect();
                for (m, k) in msgs.iter().zip(keys) {
                    send(&mut s, None, pad, *m, k, false, false).unwrap();
                }
                assert!(msgs_wrap(s.port(port).unwrap()), "{disc:?} {keys:?}");
                for i in order {
                    assert_eq!(
                        receive(&mut s, None, pad, false, false).unwrap(),
                        RecvOutcome::Received(msgs[i]),
                        "{disc:?} {keys:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_receivers_wrap_the_waiting_area() {
        use i432_arch::sysobj::CTX_SLOT_FIRST_FREE;
        let mut s = space();
        let port = make_port_with(&mut s, 1, 3, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let (dispatch, procs) = make_procs(&mut s, 3);
        let msgs: Vec<_> = (0..3).map(|_| make_msg(&mut s)).collect();
        let mut wrapped = false;
        for round in 0..4 {
            let order: Vec<_> = (0..3).map(|i| procs[(i + round) % 3]).collect();
            for &p in &order {
                assert_eq!(
                    receive(&mut s, Some((p, CTX_SLOT_FIRST_FREE)), pad, true, false).unwrap(),
                    RecvOutcome::Blocked
                );
            }
            wrapped |= waiters_wrap(s.port(port).unwrap());
            for &m in &msgs {
                assert_eq!(
                    send(&mut s, None, pad, m, 0, false, false).unwrap(),
                    SendOutcome::Delivered
                );
            }
            for (&p, &m) in order.iter().zip(&msgs) {
                let ctx = s.load_ad_hw(p, PROC_SLOT_CONTEXT).unwrap().unwrap();
                let got = s.load_ad_hw(ctx.obj, CTX_SLOT_FIRST_FREE).unwrap();
                assert_eq!(got, Some(m), "round {round}: longest waiter served first");
            }
            assert_eq!(ready_order(&mut s, dispatch), order, "round {round}");
        }
        assert!(wrapped, "the waiting area wrapped");
    }

    #[test]
    fn blocked_senders_wrap_the_waiting_area() {
        let mut s = space();
        let port = make_port_with(&mut s, 1, 3, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let (dispatch, procs) = make_procs(&mut s, 3);
        let msgs: Vec<_> = (0..4).map(|_| make_msg(&mut s)).collect();
        let mut wrapped = false;
        for round in 0..4 {
            let order: Vec<_> = (0..3).map(|i| procs[(i + round) % 3]).collect();
            send(&mut s, None, pad, msgs[0], 0, false, false).unwrap();
            for (&p, &m) in order.iter().zip(&msgs[1..]) {
                assert_eq!(
                    send(&mut s, Some(p), pad, m, 0, true, false).unwrap(),
                    SendOutcome::Blocked
                );
            }
            wrapped |= waiters_wrap(s.port(port).unwrap());
            for &m in &msgs {
                assert_eq!(
                    receive(&mut s, None, pad, false, false).unwrap(),
                    RecvOutcome::Received(m),
                    "round {round}"
                );
            }
            assert_eq!(ready_order(&mut s, dispatch), order, "round {round}");
        }
        assert!(wrapped, "the waiting area wrapped");
    }

    #[test]
    fn expire_timeout_removes_a_middle_waiter_after_a_wrap() {
        use i432_arch::sysobj::CTX_SLOT_FIRST_FREE;
        let mut s = space();
        let port = make_port_with(&mut s, 1, 4, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let (dispatch, procs) = make_procs(&mut s, 4);
        let m = make_msg(&mut s);
        let block = |s: &mut ObjectSpace, p| {
            assert_eq!(
                receive(s, Some((p, CTX_SLOT_FIRST_FREE)), pad, true, false).unwrap(),
                RecvOutcome::Blocked
            );
        };
        // Two receivers served oldest first move the head off slot 0.
        for &p in &procs[..2] {
            block(&mut s, p);
        }
        for _ in 0..2 {
            send(&mut s, None, pad, m, 0, false, false).unwrap();
        }
        ready_order(&mut s, dispatch);
        for &p in &procs {
            block(&mut s, p);
        }
        assert!(waiters_wrap(s.port(port).unwrap()));
        // procs[1] sits nearer the head, then procs[2] nearer the tail:
        // the gap closes from each side once.
        assert!(expire_timeout(&mut s, procs[1]).unwrap());
        assert!(expire_timeout(&mut s, procs[2]).unwrap());
        assert!(
            !expire_timeout(&mut s, procs[2]).unwrap(),
            "no longer blocked"
        );
        assert_eq!(s.process(procs[1]).unwrap().status, ProcessStatus::Faulted);
        assert_eq!(s.port(port).unwrap().wait_count, 2);
        for _ in 0..2 {
            assert_eq!(
                send(&mut s, None, pad, m, 0, false, false).unwrap(),
                SendOutcome::Delivered
            );
        }
        assert_eq!(ready_order(&mut s, dispatch), vec![procs[0], procs[3]]);
        assert_eq!(s.port(port).unwrap().waiters, WaiterKind::None);
    }

    #[test]
    fn draining_a_long_queue_moves_linearly_many_descriptors() {
        const N: u32 = 1024;
        let mut s = space();
        let port = make_port(&mut s, N, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let m = make_msg(&mut s);
        let before = s.stats;
        for _ in 0..N {
            send(&mut s, None, pad, m, 0, false, false).unwrap();
        }
        for _ in 0..N {
            assert_eq!(
                receive(&mut s, None, pad, false, false).unwrap(),
                RecvOutcome::Received(m)
            );
        }
        let moved = s.stats - before;
        assert!(
            moved.ad_loads + moved.ad_stores <= 4 * u64::from(N),
            "{moved:?}"
        );
    }
}

#[cfg(test)]
mod rekey_tests {
    use super::*;
    use i432_arch::{ObjectSpace, ObjectSpec, ObjectType, PortState, SysState};

    #[test]
    fn update_queued_key_reorders_delivery() {
        let mut s = ObjectSpace::new(32 * 1024, 2048, 256);
        let root = s.root_sro();
        let port = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(4, 4),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(4, 4, PortDiscipline::Priority)),
                },
            )
            .unwrap();
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let mk = |s: &mut ObjectSpace| {
            let o = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
            s.mint(o, Rights::READ)
        };
        let a = mk(&mut s);
        let b = mk(&mut s);
        send(&mut s, None, pad, a, 5, false, false).unwrap();
        send(&mut s, None, pad, b, 9, false, false).unwrap();
        // Re-key b below a: it now delivers first.
        assert!(update_queued_key(&mut s, port, b.obj, 1).unwrap());
        assert!(
            !update_queued_key(&mut s, port, root, 0).unwrap(),
            "absent target"
        );
        match receive(&mut s, None, pad, false, false).unwrap() {
            RecvOutcome::Received(m) => assert_eq!(m, b),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_queued_key_after_a_wrap() {
        let mut s = ObjectSpace::new(32 * 1024, 2048, 256);
        let root = s.root_sro();
        let port = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(4, 4),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(4, 4, PortDiscipline::Priority)),
                },
            )
            .unwrap();
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let mk = |s: &mut ObjectSpace| {
            let o = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
            s.mint(o, Rights::READ)
        };
        // Four equal-key messages drained oldest first leave the head at
        // slot 3, so b and c land at slots 0 and 1.
        let filler = mk(&mut s);
        for _ in 0..4 {
            send(&mut s, None, pad, filler, 0, false, false).unwrap();
        }
        for _ in 0..4 {
            receive(&mut s, None, pad, false, false).unwrap();
        }
        let (a, b, c) = (mk(&mut s), mk(&mut s), mk(&mut s));
        send(&mut s, None, pad, a, 5, false, false).unwrap();
        send(&mut s, None, pad, b, 9, false, false).unwrap();
        send(&mut s, None, pad, c, 7, false, false).unwrap();
        let st = s.port(port).unwrap();
        assert!(st.msg_head + st.msg_count > st.capacity, "queue wraps");
        assert!(update_queued_key(&mut s, port, b.obj, 1).unwrap());
        assert!(update_queued_key(&mut s, port, c.obj, 2).unwrap());
        for want in [b, c, a] {
            assert_eq!(
                receive(&mut s, None, pad, false, false).unwrap(),
                RecvOutcome::Received(want)
            );
        }
    }
}
