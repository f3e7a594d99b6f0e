//! The incremental tricolor collector (Dijkstra et al., as cited by
//! paper §8.1): the engine the GC daemon runs.
//!
//! Colors live in the object descriptors (`i432_arch::Color`); the
//! hardware write barrier shades gray on every AD move. A [`Collector`]
//! runs in small increments over the whole space, so it can be embodied
//! as a daemon process sharing the processors with mutators:
//!
//! 1. **Start** — one increment shades the roots.
//! 2. **Mark** — each increment scans one gray object's access part,
//!    shading its targets and blackening it. When no gray is left, a
//!    *verification scan* looks for grays the mutators shaded
//!    concurrently; marking terminates only when a full scan finds none
//!    (the on-the-fly termination rule) and no fast receive holds a
//!    message the scan could not see.
//! 3. **Sweep** — each increment walks one window of the table: white
//!    objects are garbage (reclaimed, or delivered to their destruction
//!    filter, paper §8.2); black objects are whitened for the next cycle.
//!
//! The daemon, `collect_full` and every deterministic number run this
//! engine, whose charges and visiting orders are fixed (DESIGN.md §10).
//! Every increment needs the whole space exclusively: the deterministic
//! space, or on the threaded runner an all-shard section, which is what
//! the daemon's native body runs in. [`Collector::collect_shared`] steps
//! the engine the same way from a host thread.
//!
//! Safety argument (tested property I6): the barrier maintains the
//! invariant that no black object ever references a white object without
//! that white object having been shaded, so a white object at sweep time
//! was unreachable at mark termination — and unreachable objects can
//! never be touched again (capabilities cannot be forged), so reclaiming
//! them is sound even while mutators keep running.

use crate::{filter, roots::find_roots};
use i432_arch::{
    AccessDescriptor, Color, ObjectRef, ObjectType, SharedSpace, SpaceAccessExt, SpaceMut,
    SysState, SystemType,
};
use i432_gdp::Fault;

/// Increments per all-shard section in [`Collector::collect_shared`]:
/// as many as the conformance oracle's daemon runs per call.
const SECTION_INCREMENTS: u32 = 16;

/// Collector phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcPhase {
    /// Between cycles.
    #[default]
    Idle,
    /// Propagating grayness.
    Mark,
    /// Reclaiming whites / whitening blacks.
    Sweep,
}

/// Collector statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Completed collection cycles.
    pub cycles: u64,
    /// Objects reclaimed.
    pub reclaimed: u64,
    /// Garbage objects delivered to destruction filters.
    pub finalized: u64,
    /// Mark increments executed (each scans one gray or verifies).
    pub mark_steps: u64,
    /// Sweep increments executed.
    pub sweep_steps: u64,
    /// Verification scans during mark.
    pub verification_scans: u64,
    /// Simulated cycles consumed (fed to the daemon's cost accounting).
    pub sim_cycles: u64,
}

/// Collector configuration.
#[derive(Debug, Clone)]
pub struct GcConfig {
    /// Extra roots beyond processors + root SRO (iMAX registers its
    /// global service directory here when no processor references it).
    pub extra_roots: Vec<ObjectRef>,
    /// Port receiving *lost process objects* (paper §9: release 1 uses
    /// the filter facility only for processes).
    pub process_filter_port: Option<AccessDescriptor>,
    /// Object indices each sweep increment covers (at least 1).
    pub sweep_chunk: u32,
}

impl Default for GcConfig {
    fn default() -> GcConfig {
        GcConfig {
            extra_roots: Vec::new(),
            process_filter_port: None,
            sweep_chunk: 64,
        }
    }
}

/// The incremental collector.
#[derive(Debug, Default)]
pub struct Collector {
    /// Configuration.
    pub config: GcConfig,
    /// Statistics.
    pub stats: GcStats,
    phase: GcPhase,
    gray_stack: Vec<ObjectRef>,
    sweep_cursor: u32,
}

impl Collector {
    /// A collector with default configuration.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Current phase.
    pub fn phase(&self) -> GcPhase {
        self.phase
    }

    /// Begins a collection cycle: shades the roots gray.
    pub fn start_cycle<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<(), Fault> {
        debug_assert_eq!(self.phase, GcPhase::Idle);
        self.increment(space).map(|_| ())
    }

    /// Runs one collector increment. Returns `true` when a full cycle
    /// completed with this step.
    pub fn step<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<bool, Fault> {
        i432_trace::emit(i432_trace::EventKind::GcIncrement, 0);
        i432_trace::bump(i432_trace::Counter::GcIncrements);
        self.increment(space)
    }

    /// Runs a complete cycle to the end (start → mark → sweep).
    pub fn collect_full<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<(), Fault> {
        if self.phase == GcPhase::Idle {
            self.start_cycle(space)?;
        }
        // A bound far above any possible work guards against bugs.
        for _ in 0..(space.index_space_end() as u64 * 8 + 1024) {
            if self.step(space)? {
                return Ok(());
            }
        }
        panic!("collector failed to terminate");
    }

    /// Runs `cycles` complete cycles on a shared space from the calling
    /// thread, 16 [`Collector::step`]s to each all-shard section: the
    /// daemon's native body on the threaded runner (at the conformance
    /// oracle's grain), without the process around it. Agents on other
    /// threads run between the sections.
    pub fn collect_shared(&mut self, shared: &SharedSpace, cycles: u32) -> Result<(), Fault> {
        let mut agent = shared.agent();
        let mut done = 0;
        while done < cycles {
            agent.atomically(|sm| -> Result<(), Fault> {
                for _ in 0..SECTION_INCREMENTS {
                    if self.step(sm)? {
                        done += 1;
                        if done == cycles {
                            break;
                        }
                    }
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// One increment. Returns `true` when a full cycle completed with
    /// it.
    fn increment<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<bool, Fault> {
        match self.phase {
            GcPhase::Idle => self.scan_roots(space),
            GcPhase::Mark => {
                self.stats.mark_steps += 1;
                match self.gray_stack.pop() {
                    Some(r) => self.scan_gray(space, r),
                    None => self.verify(space),
                }
            }
            GcPhase::Sweep => return self.sweep_window(space),
        }
        Ok(false)
    }

    /// The root scan: shades and pushes the roots, then the extra
    /// roots.
    fn scan_roots<S: SpaceMut + ?Sized>(&mut self, space: &mut S) {
        let mut roots = find_roots(space);
        roots.extend_from_slice(&self.config.extra_roots);
        for r in roots {
            // A stale root (an extra root or ring message destroyed
            // since) fails the generation check inside shade.
            if space.shade(r).is_ok() {
                self.gray_stack.push(r);
            }
        }
        self.phase = GcPhase::Mark;
        self.stats.sim_cycles += 50;
        i432_trace::emit(i432_trace::EventKind::GcPhaseMark, 0);
    }

    /// Scans one gray object: shades and pushes its white targets, then
    /// blackens it.
    fn scan_gray<S: SpaceMut + ?Sized>(&mut self, space: &mut S, r: ObjectRef) {
        // The object may have been reclaimed (scope exit) since it was
        // pushed, or scanned already after a duplicate push.
        if space.color_of(r).is_ok_and(|c| c != Color::Black) {
            let Ok(ads) = space.scan_access_part(r) else {
                return;
            };
            self.stats.sim_cycles += 20 + 4 * ads.len() as u64;
            for ad in ads {
                self.shade_white(space, ad.obj);
            }
            let _ = space.set_color(r, Color::Black);
        }
    }

    /// Shades `r` and pushes it when it is white.
    fn shade_white<S: SpaceMut + ?Sized>(&mut self, space: &mut S, r: ObjectRef) {
        if space.color_of(r) == Ok(Color::White) && space.shade(r).is_ok() {
            self.gray_stack.push(r);
        }
    }

    /// The gray stack is empty: the verification scan pushes every gray
    /// in the table, then every white message in a port ring, and
    /// marking ends when it pushed nothing and no ring has a fast
    /// receive in flight. It never waits.
    ///
    /// The rings matter because a message can reach one unseen: the
    /// sender shades it before the push, so a sweep between the two may
    /// whiten it, and the root scan's snapshot may predate the push. A
    /// receive in flight holds a message popped before this scan and not
    /// yet stored into its context; the store needs a shard lock this
    /// increment holds, so the next verification sees the message
    /// shaded by the store's barrier, or the receive still in flight.
    ///
    /// A receive in flight when the increment begins keeps marking open
    /// whatever the scan would find, so the increment skips the scan and
    /// charges nothing; a later verification that sees no receive in
    /// flight walks the table. On the deterministic runner there are no
    /// rings and every verification scans.
    fn verify<S: SpaceMut + ?Sized>(&mut self, space: &mut S) {
        let rings = space.port_rings().cloned();
        if let Some(reg) = &rings {
            let mut receiving = false;
            reg.for_each(|ring| receiving |= ring.receives_in_flight() > 0);
            if receiving {
                return;
            }
        }
        self.stats.verification_scans += 1;
        self.stats.sim_cycles += space.index_space_end() as u64;
        let grays = &mut self.gray_stack;
        space.for_each_live(&mut |i, e| {
            if e.desc.color == Color::Gray {
                grays.push(ObjectRef {
                    index: i,
                    generation: e.generation,
                });
            }
        });
        let mut receiving = false;
        if let Some(reg) = rings {
            reg.for_each(|ring| {
                if !ring.is_dead() {
                    for r in ring.snapshot_refs() {
                        self.shade_white(space, r);
                    }
                }
                // After the snapshot's head read: a receive that popped
                // before it is counted here.
                receiving |= ring.receives_in_flight() > 0;
            });
        }
        if self.gray_stack.is_empty() && !receiving {
            self.phase = GcPhase::Sweep;
            self.sweep_cursor = 0;
            // Mark termination: the verification scan found no grays.
            i432_trace::emit(i432_trace::EventKind::GcPhaseSweep, 0);
        }
    }

    /// Sweeps one window of `config.sweep_chunk` indices.
    fn sweep_window<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<bool, Fault> {
        self.stats.sweep_steps += 1;
        let chunk = self.config.sweep_chunk.max(1);
        // Jump over index ranges whose leaf pages are absent or all-free
        // — with the two-level directory the sweep is O(live + allocated
        // pages), not O(index_space_end).
        self.sweep_cursor = space.next_possibly_live(self.sweep_cursor);
        let end = self
            .sweep_cursor
            .saturating_add(chunk)
            .min(space.index_space_end());
        // Capture-then-process: the window walk only touches allocated
        // pages; actions then re-validate each entry (an entry may have
        // gone away since capture, e.g. a process-scope teardown).
        let mut window: Vec<(ObjectRef, Color)> = Vec::new();
        let pages = space.for_live_in_range(self.sweep_cursor, end, &mut |i, e| {
            window.push((
                ObjectRef {
                    index: i,
                    generation: e.generation,
                },
                e.desc.color,
            ));
        });
        i432_trace::bump_by(i432_trace::Counter::GcSweepPages, pages as u64);
        // In ascending index order, each entry in turn: a filter
        // delivery may shade a survivor later in the window, which is
        // then whitened all the same.
        let mut live = 0;
        for (r, color) in window {
            if space.entry(r).is_err() {
                continue;
            }
            live += 1;
            match color {
                // Survivor (gray can appear mid-sweep when a mutator
                // moves an AD for a live object): whiten for the next
                // cycle.
                Color::Black | Color::Gray => {
                    space.set_color(r, Color::White).map_err(Fault::from)?;
                }
                Color::White => reclaim_or_finalize(space, r, &self.config, &mut self.stats)?,
            }
        }
        self.stats.sim_cycles += 4 * live;
        self.sweep_cursor = end;
        if self.sweep_cursor >= space.index_space_end() {
            self.phase = GcPhase::Idle;
            self.stats.cycles += 1;
            i432_trace::emit(i432_trace::EventKind::GcPhaseIdle, 0);
            return Ok(true);
        }
        Ok(false)
    }
}

/// Sweeps one white object: filter delivery, SRO deferral, or physical
/// reclaim.
fn reclaim_or_finalize<S: SpaceMut + ?Sized>(
    space: &mut S,
    r: ObjectRef,
    config: &GcConfig,
    stats: &mut GcStats,
) -> Result<(), Fault> {
    let Ok(e) = space.entry(r) else {
        // Gone since capture (scope teardown raced the sweep).
        return Ok(());
    };
    // The root SRO has no parent and is indestructible; it is also
    // always a root, so a white root SRO indicates a bug.
    if e.desc.sro.is_none() {
        return Ok(());
    }
    let notified = e.desc.filter_notified;
    let otype = e.desc.otype;

    if !notified {
        // Destruction filters (paper §8.2): a garbage instance of a
        // filtered type is delivered to its type manager instead of
        // reclaimed. Release-1 special case: lost processes.
        let filter_port = match otype {
            ObjectType::User(tdo) => filter::filter_port_for(space, tdo)?,
            ObjectType::System(SystemType::Process) => config.process_filter_port,
            _ => None,
        };
        if let Some(port) = filter_port {
            if filter::deliver(space, port, r)? {
                space
                    .entry_mut(r)
                    .map_err(Fault::from)?
                    .desc
                    .filter_notified = true;
                stats.finalized += 1;
                stats.sim_cycles += 120;
                return Ok(());
            }
            // Filter port gone or full: fall through and reclaim —
            // better a lost notification than a leak.
        }
    }

    // A garbage SRO still charging objects cannot be destroyed alone;
    // its objects are garbage too (nothing outside an SRO's clients
    // references it) and will be reclaimed as the sweep reaches them,
    // after which a later cycle reclaims the SRO itself.
    if let SysState::Sro(st) = &space.entry(r).map_err(Fault::from)?.sys {
        if st.object_count > 0 {
            return Ok(());
        }
    }
    if let ObjectType::User(tdo) = otype {
        if let Ok(t) = space.tdo_mut(tdo) {
            t.instances_reclaimed += 1;
        }
    }
    space.destroy_object(r).map_err(Fault::from)?;
    stats.reclaimed += 1;
    stats.sim_cycles += 40;
    i432_trace::emit(i432_trace::EventKind::GcSweepReclaim, r.index.0);
    i432_trace::bump(i432_trace::Counter::GcSweepReclaims);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{
        ObjectSpec, PortDiscipline, PortRing, ProcessorState, Rights, RingEntry, ShardedSpace,
    };
    use i432_gdp::port::{self, RecvOutcome, SendOutcome};
    use std::sync::Arc;

    /// A space with one processor whose root-directory slot anchors a
    /// "keep" object.
    fn space_with_anchor() -> (ShardedSpace, ObjectRef, ObjectRef) {
        let mut s = ShardedSpace::new(64 * 1024, 4096, 1024, 1);
        let root = s.root_sro();
        let cpu = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::CPU_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::Processor),
                    level: None,
                    sys: SysState::Processor(ProcessorState::new(0)),
                },
            )
            .unwrap();
        let anchor = s.create_object(root, ObjectSpec::generic(8, 4)).unwrap();
        let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
        s.store_ad_hw(cpu, i432_arch::sysobj::CPU_SLOT_ROOT, Some(anchor_ad))
            .unwrap();
        (s, cpu, anchor)
    }

    #[test]
    fn unreachable_objects_are_reclaimed_reachable_kept() {
        let (mut s, _cpu, anchor) = space_with_anchor();
        let root = s.root_sro();
        // Reachable: hung off the anchor.
        let kept = s.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
        let kept_ad = s.mint(kept, Rights::READ);
        let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
        s.store_ad(anchor_ad, 0, Some(kept_ad)).unwrap();
        // Garbage: never referenced.
        let garbage = s.create_object(root, ObjectSpec::generic(16, 0)).unwrap();

        let mut gc = Collector::new();
        gc.collect_full(&mut s).unwrap();

        assert!(s.entry(kept).is_ok(), "reachable object survived");
        assert!(s.entry(garbage).is_err(), "garbage reclaimed");
        assert_eq!(gc.stats.reclaimed, 1);
        assert_eq!(gc.stats.cycles, 1);
    }

    #[test]
    fn chains_are_traced_transitively() {
        let (mut s, _cpu, anchor) = space_with_anchor();
        let root = s.root_sro();
        // anchor -> a -> b -> c, all must survive.
        let mut prev_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
        let mut chain = Vec::new();
        for _ in 0..3 {
            let o = s.create_object(root, ObjectSpec::generic(0, 2)).unwrap();
            let o_ad = s.mint(o, Rights::READ | Rights::WRITE);
            s.store_ad(prev_ad, 0, Some(o_ad)).unwrap();
            chain.push(o);
            prev_ad = o_ad;
        }
        let mut gc = Collector::new();
        gc.collect_full(&mut s).unwrap();
        for o in chain {
            assert!(s.entry(o).is_ok());
        }
    }

    #[test]
    fn dropping_the_last_reference_makes_garbage() {
        let (mut s, _cpu, anchor) = space_with_anchor();
        let root = s.root_sro();
        let o = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let o_ad = s.mint(o, Rights::READ);
        let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
        s.store_ad(anchor_ad, 0, Some(o_ad)).unwrap();
        let mut gc = Collector::new();
        gc.collect_full(&mut s).unwrap();
        assert!(s.entry(o).is_ok());
        // Drop the reference; the next cycle reclaims.
        s.store_ad(anchor_ad, 0, None).unwrap();
        gc.collect_full(&mut s).unwrap();
        assert!(s.entry(o).is_err());
    }

    #[test]
    fn barrier_protects_objects_moved_during_mark() {
        let (mut s, _cpu, anchor) = space_with_anchor();
        let root = s.root_sro();
        let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
        // `hidden` is referenced only from a register-like context we
        // model as holding the AD in Rust and storing it mid-mark.
        let hidden = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let hidden_ad = s.mint(hidden, Rights::READ);

        let mut gc = Collector::new();
        gc.start_cycle(&mut s).unwrap();
        // Run a few mark steps, then the mutator stores the AD into the
        // (already black or soon-black) anchor.
        for _ in 0..2 {
            gc.step(&mut s).unwrap();
        }
        s.store_ad(anchor_ad, 1, Some(hidden_ad)).unwrap();
        // Finish the cycle.
        while !matches!(gc.phase(), GcPhase::Idle) {
            gc.step(&mut s).unwrap();
        }
        assert!(
            s.entry(hidden).is_ok(),
            "the write barrier must protect concurrently-stored objects"
        );
    }

    #[test]
    fn colors_reset_between_cycles() {
        let (mut s, _cpu, anchor) = space_with_anchor();
        let mut gc = Collector::new();
        gc.collect_full(&mut s).unwrap();
        assert_eq!(s.color_of(anchor).unwrap(), Color::White);
        // A second cycle still keeps the anchor.
        gc.collect_full(&mut s).unwrap();
        assert!(s.entry(anchor).is_ok());
        assert_eq!(gc.stats.cycles, 2);
    }

    #[test]
    fn garbage_cycles_are_collected() {
        // Two objects referencing each other, unreachable from roots.
        let (mut s, _cpu, _anchor) = space_with_anchor();
        let root = s.root_sro();
        let a = s.create_object(root, ObjectSpec::generic(0, 2)).unwrap();
        let b = s.create_object(root, ObjectSpec::generic(0, 2)).unwrap();
        let a_ad = s.mint(a, Rights::READ | Rights::WRITE);
        let b_ad = s.mint(b, Rights::READ | Rights::WRITE);
        s.store_ad(a_ad, 0, Some(b_ad)).unwrap();
        s.store_ad(b_ad, 0, Some(a_ad)).unwrap();
        let mut gc = Collector::new();
        // The stores shaded both gray; a first cycle sees them gray (the
        // conservative on-the-fly behaviour), a second reclaims.
        gc.collect_full(&mut s).unwrap();
        gc.collect_full(&mut s).unwrap();
        assert!(s.entry(a).is_err());
        assert!(s.entry(b).is_err());
    }

    #[test]
    fn garbage_sro_with_objects_takes_two_cycles() {
        let (mut s, _cpu, _anchor) = space_with_anchor();
        let root = s.root_sro();
        let sro = imax_storage::create_sro(
            &mut s,
            root,
            i432_arch::Level(0),
            imax_storage::SroQuota::for_objects(4),
        )
        .unwrap();
        let inner = s.create_object(sro, ObjectSpec::generic(16, 0)).unwrap();
        let mut gc = Collector::new();
        gc.collect_full(&mut s).unwrap();
        // Inner object reclaimed in cycle 1; the SRO may need cycle 2.
        assert!(s.entry(inner).is_err());
        gc.collect_full(&mut s).unwrap();
        assert!(s.entry(sro).is_err());
    }

    /// A FIFO port anchored in slot 0 of `anchor`, with its ring open
    /// (the fast path on, as the threaded runner turns it on).
    fn ring_port(s: &mut ShardedSpace, anchor: ObjectRef) -> (AccessDescriptor, Arc<PortRing>) {
        s.port_ring_registry().set_enabled(true);
        let root = s.root_sro();
        let port = imax_ipc::create_port(s, root, 4, PortDiscipline::Fifo).unwrap();
        let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
        s.store_ad(anchor_ad, 0, Some(port.ad())).unwrap();
        let ring = s
            .port_ring_registry()
            .get_or_create(port.object(), 4, i432_arch::Level::GLOBAL)
            .unwrap();
        ring.freeze_and_drain(|_| {});
        ring.reopen();
        (port.ad(), ring)
    }

    /// A fast receive pops its message before the store that puts it in
    /// the receiving context; in between only the receiver holds it.
    /// Marking must not end across that stretch.
    #[test]
    fn marking_waits_for_a_fast_receive_in_flight() {
        let (mut s, _cpu, anchor) = space_with_anchor();
        let (port_ad, ring) = ring_port(&mut s, anchor);
        let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
        let msg = s
            .create_object(s.root_sro(), ObjectSpec::generic(8, 0))
            .unwrap();
        let msg_ad = s.mint(msg, Rights::READ);
        // The sender sends from its context, then drops its reference:
        // the ring holds the message alone.
        s.store_ad(anchor_ad, 1, Some(msg_ad)).unwrap();
        assert_eq!(
            port::fast_send(&mut s, port_ad, msg_ad, 0),
            Some(SendOutcome::Queued)
        );
        s.store_ad(anchor_ad, 1, None).unwrap();
        let mut gc = Collector::new();
        gc.collect_full(&mut s).unwrap();
        assert_eq!(
            s.color_of(msg),
            Ok(Color::White),
            "a ring message is a root"
        );

        let receiving = ring.begin_receive();
        assert_eq!(
            port::fast_receive_on(&ring, port_ad),
            Some(RecvOutcome::Received(msg_ad))
        );
        gc.start_cycle(&mut s).unwrap();
        let scans = gc.stats.verification_scans;
        for _ in 0..1_000 {
            gc.step(&mut s).unwrap();
        }
        assert_eq!(gc.phase(), GcPhase::Mark, "marking ended mid-receive");
        assert_eq!(
            gc.stats.verification_scans, scans,
            "a verification walked the table with a receive in flight"
        );
        assert!(s.entry(msg).is_ok(), "the popped message was reclaimed");

        s.store_ad(anchor_ad, 2, Some(msg_ad)).unwrap();
        drop(receiving);
        let cycles = gc.stats.cycles;
        gc.collect_full(&mut s).unwrap();
        assert_eq!(gc.stats.cycles, cycles + 1);
        assert!(s.entry(msg).is_ok(), "the delivered message survives");
    }

    /// A fast send shades its message, then pushes it. When a sweep
    /// whitens the message and a root scan passes in between, and the
    /// sender then drops its own reference, only the ring holds a white
    /// message the root scan never saw: the verification scan shades it.
    #[test]
    fn verification_shades_a_ring_message_the_root_scan_missed() {
        let (mut s, _cpu, anchor) = space_with_anchor();
        let (port_ad, ring) = ring_port(&mut s, anchor);
        let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
        let msg = s
            .create_object(s.root_sro(), ObjectSpec::generic(8, 0))
            .unwrap();
        let msg_ad = s.mint(msg, Rights::READ);
        s.store_ad(anchor_ad, 1, Some(msg_ad)).unwrap();
        let mut gc = Collector::new();
        // The send's shade, then a whole cycle up to the next root scan,
        // then its push.
        s.shade(msg).unwrap();
        gc.collect_full(&mut s).unwrap();
        gc.start_cycle(&mut s).unwrap();
        assert_eq!(s.color_of(msg), Ok(Color::White));
        ring.push(RingEntry {
            msg: msg_ad,
            key: 0,
        })
        .unwrap();
        s.store_ad(anchor_ad, 1, None).unwrap();
        gc.collect_full(&mut s).unwrap();
        assert!(s.entry(msg).is_ok(), "a queued message was reclaimed");
        assert_eq!(
            port::fast_receive_on(&ring, port_ad),
            Some(RecvOutcome::Received(msg_ad))
        );
    }

    /// Per shard, a processor anchoring a chain of `live` reachable
    /// objects, plus `garbage` unreachable ones.
    fn sharded_population(shards: u32, live: u32, garbage: u32) -> (ShardedSpace, Vec<ObjectRef>) {
        let mut s = ShardedSpace::new(1 << 20, 1 << 14, 1 << 12, shards);
        let mut garbage_refs = Vec::new();
        for k in 0..shards {
            let root = s.root_sro_of(k);
            let cpu = s
                .create_object(
                    root,
                    ObjectSpec {
                        data_len: 0,
                        access_len: i432_arch::sysobj::CPU_ACCESS_SLOTS,
                        otype: ObjectType::System(SystemType::Processor),
                        level: None,
                        sys: SysState::Processor(ProcessorState::new(k)),
                    },
                )
                .unwrap();
            let mut prev: Option<ObjectRef> = None;
            for _ in 0..live {
                let o = s.create_object(root, ObjectSpec::generic(16, 2)).unwrap();
                if let Some(p) = prev {
                    let ad = s.mint(p, Rights::ALL);
                    s.store_ad_hw(o, 0, Some(ad)).unwrap();
                }
                prev = Some(o);
            }
            if let Some(head) = prev {
                let ad = s.mint(head, Rights::ALL);
                s.store_ad_hw(cpu, i432_arch::sysobj::CPU_SLOT_ROOT, Some(ad))
                    .unwrap();
            }
            for _ in 0..garbage {
                garbage_refs.push(s.create_object(root, ObjectSpec::generic(16, 1)).unwrap());
            }
        }
        (s, garbage_refs)
    }

    #[test]
    fn shared_collection_reclaims_garbage_keeps_live() {
        let (space, garbage) = sharded_population(4, 50, 20);
        let live_before = space.live_count();
        let shared = SharedSpace::new(space);
        let mut gc = Collector::new();
        gc.collect_shared(&shared, 1).unwrap();
        assert_eq!(gc.stats.cycles, 1);
        assert_eq!(gc.stats.reclaimed, 4 * 20, "exactly the garbage reclaimed");
        let space = shared.into_inner();
        assert_eq!(space.live_count(), live_before - 4 * 20);
        for g in garbage {
            assert!(space.entry(g).is_err(), "garbage {g:?} not reclaimed");
        }
        // Survivors whitened for the next cycle.
        space.for_each_live(&mut |_, e| assert_eq!(e.desc.color, Color::White));
    }

    #[test]
    fn chain_shades_survive_via_two_cycle_laundering() {
        // Building the chains shades every stored-to target gray (the
        // unconditional write barrier). Dropping the anchor *after*
        // that leaves a garbage chain that is gray, not white: cycle 1
        // must launder it (blacken via verification, whiten at sweep),
        // cycle 2 reclaims it.
        let (mut space, _) = sharded_population(2, 10, 0);
        let mut cpus = Vec::new();
        space.for_each_live(&mut |i, e| {
            if e.desc.otype == ObjectType::System(SystemType::Processor) {
                cpus.push(ObjectRef {
                    index: i,
                    generation: e.generation,
                });
            }
        });
        let cpu0 = cpus
            .into_iter()
            .find(|r| r.index.0 % 2 == 0)
            .expect("shard-0 processor");
        space
            .store_ad_hw(cpu0, i432_arch::sysobj::CPU_SLOT_ROOT, None)
            .unwrap();
        let shared = SharedSpace::new(space);
        let mut gc = Collector::new();
        gc.collect_shared(&shared, 1).unwrap();
        assert_eq!(
            gc.stats.reclaimed, 0,
            "gray garbage must be laundered, not reclaimed"
        );
        gc.collect_shared(&shared, 1).unwrap();
        assert_eq!(
            gc.stats.reclaimed, 10,
            "laundered garbage reclaimed on cycle 2"
        );
        let space = shared.into_inner();
        space.for_each_live(&mut |_, e| assert_eq!(e.desc.color, Color::White));
    }

    #[test]
    fn marking_is_sound_under_cross_shard_graphs() {
        // A single chain hopping shards every link: marking it shades
        // across every shard boundary.
        let shards = 4u32;
        let mut s = ShardedSpace::new(1 << 20, 1 << 14, 1 << 12, shards);
        let root0 = s.root_sro();
        let cpu = s
            .create_object(
                root0,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::CPU_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::Processor),
                    level: None,
                    sys: SysState::Processor(ProcessorState::new(0)),
                },
            )
            .unwrap();
        let mut prev: Option<ObjectRef> = None;
        let mut chain = Vec::new();
        for i in 0..200u32 {
            let parent = s.root_sro_of(i % shards);
            let o = s.create_object(parent, ObjectSpec::generic(8, 2)).unwrap();
            chain.push(o);
            if let Some(p) = prev {
                let ad = s.mint(p, Rights::ALL);
                s.store_ad_hw(o, 0, Some(ad)).unwrap();
            }
            prev = Some(o);
        }
        let head_ad = s.mint(prev.unwrap(), Rights::ALL);
        s.store_ad_hw(cpu, i432_arch::sysobj::CPU_SLOT_ROOT, Some(head_ad))
            .unwrap();
        let shared = SharedSpace::new(s);
        let mut gc = Collector::new();
        gc.collect_shared(&shared, 2).unwrap();
        assert_eq!(gc.stats.reclaimed, 0, "the whole chain is live");
        let space = shared.into_inner();
        for o in chain {
            assert!(space.entry(o).is_ok(), "live chain link lost");
        }
    }
}
