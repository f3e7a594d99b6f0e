//! The incremental tricolor collector (Dijkstra et al., as cited by
//! paper §8.1).
//!
//! Colors live in the object descriptors (`i432_arch::Color`); the
//! hardware write barrier shades gray on every AD move. The collector
//! runs in small increments so it can be embodied as a daemon process
//! sharing the processors with mutators:
//!
//! 1. **Start** — shade the roots.
//! 2. **Mark** — repeatedly scan a gray object's access part, shading its
//!    targets and blackening it. When the collector's own gray stack
//!    drains, a *verification scan* of the whole table looks for grays
//!    the mutators shaded concurrently; marking terminates only when a
//!    full scan finds none (the on-the-fly termination rule).
//! 3. **Sweep** — walk the table: white objects are garbage (reclaimed,
//!    or delivered to their destruction filter, paper §8.2); black
//!    objects are whitened for the next cycle.
//!
//! Safety argument (tested property I6): the barrier maintains the
//! invariant that no black object ever references a white object without
//! that white object having been shaded, so a white object at sweep time
//! was unreachable at mark termination — and unreachable objects can
//! never be touched again (capabilities cannot be forged), so reclaiming
//! them is sound even while mutators keep running.

use crate::{filter, roots::find_roots};
use i432_arch::{AccessDescriptor, Color, ObjectRef, ObjectType, SpaceMut, SysState, SystemType};
use i432_gdp::Fault;

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
    /// Mark increments executed.
    pub mark_steps: u64,
    /// Sweep increments executed.
    pub sweep_steps: u64,
    /// Whole-table verification scans during mark.
    pub verification_scans: u64,
    /// Simulated cycles consumed (fed to the daemon's cost accounting).
    pub sim_cycles: u64,
}

/// Collector configuration.
#[derive(Debug, Clone, Default)]
pub struct GcConfig {
    /// Extra roots beyond processors + root SRO (iMAX registers its
    /// global service directory here when no processor references it).
    pub extra_roots: Vec<ObjectRef>,
    /// Port receiving *lost process objects* (paper §9: release 1 uses
    /// the filter facility only for processes).
    pub process_filter_port: Option<AccessDescriptor>,
    /// Table entries visited per sweep increment.
    pub sweep_chunk: u32,
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
        Collector {
            config: GcConfig {
                sweep_chunk: 64,
                ..GcConfig::default()
            },
            ..Collector::default()
        }
    }

    /// Current phase.
    pub fn phase(&self) -> GcPhase {
        self.phase
    }

    /// Begins a collection cycle: shades the roots gray.
    pub fn start_cycle<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<(), Fault> {
        debug_assert_eq!(self.phase, GcPhase::Idle);
        let mut roots = find_roots(space);
        roots.extend(self.config.extra_roots.iter().copied());
        for r in roots {
            if space.entry(r).is_ok() {
                space.shade(r).map_err(Fault::from)?;
                self.gray_stack.push(r);
            }
        }
        self.phase = GcPhase::Mark;
        self.stats.sim_cycles += 50;
        i432_trace::emit(i432_trace::EventKind::GcPhaseMark, 0);
        Ok(())
    }

    /// Runs one collector increment. Returns `true` when a full cycle
    /// completed with this step.
    pub fn step<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<bool, Fault> {
        i432_trace::emit(i432_trace::EventKind::GcIncrement, 0);
        i432_trace::bump(i432_trace::Counter::GcIncrements);
        match self.phase {
            GcPhase::Idle => {
                self.start_cycle(space)?;
                Ok(false)
            }
            GcPhase::Mark => {
                self.mark_step(space)?;
                Ok(false)
            }
            GcPhase::Sweep => self.sweep_step(space),
        }
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

    fn mark_step<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<(), Fault> {
        self.stats.mark_steps += 1;
        if let Some(obj) = self.gray_stack.pop() {
            // The object may have been reclaimed (scope exit) since it
            // was pushed.
            if space.entry(obj).is_err() {
                return Ok(());
            }
            // Scan: shade every target, blacken the object.
            let ads = space.scan_access_part(obj).map_err(Fault::from)?;
            self.stats.sim_cycles += 20 + 4 * ads.len() as u64;
            for ad in ads {
                if space.entry(ad.obj).is_ok()
                    && space.color_of(ad.obj).map_err(Fault::from)? == Color::White
                {
                    space.shade(ad.obj).map_err(Fault::from)?;
                    self.gray_stack.push(ad.obj);
                }
            }
            space.set_color(obj, Color::Black).map_err(Fault::from)?;
            return Ok(());
        }
        // Stack drained: verification scan for mutator-shaded grays.
        self.stats.verification_scans += 1;
        self.stats.sim_cycles += space.index_space_end() as u64;
        let mut found = false;
        let gray_stack = &mut self.gray_stack;
        space.for_each_live(&mut |i, e| {
            if e.desc.color == Color::Gray {
                gray_stack.push(ObjectRef {
                    index: i,
                    generation: e.generation,
                });
                found = true;
            }
        });
        if !found {
            self.phase = GcPhase::Sweep;
            self.sweep_cursor = 0;
            // Mark termination: the verification scan found no grays.
            i432_trace::emit(i432_trace::EventKind::GcPhaseSweep, 0);
        }
        Ok(())
    }

    fn sweep_step<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<bool, Fault> {
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
        let mut batch: Vec<(ObjectRef, Color)> = Vec::new();
        let pages = space.for_live_in_range(self.sweep_cursor, end, &mut |i, e| {
            batch.push((
                ObjectRef {
                    index: i,
                    generation: e.generation,
                },
                e.desc.color,
            ));
        });
        i432_trace::bump_by(i432_trace::Counter::GcSweepPages, pages as u64);
        for (r, color) in batch {
            if space.entry(r).is_err() {
                continue;
            }
            self.stats.sim_cycles += 4;
            match color {
                Color::Black | Color::Gray => {
                    // Survivor (gray can appear mid-sweep when a mutator
                    // moves an AD for a live object): whiten for the next
                    // cycle.
                    space.set_color(r, Color::White).map_err(Fault::from)?;
                }
                Color::White => {
                    self.reclaim_or_finalize(space, r)?;
                }
            }
        }
        self.sweep_cursor = end;
        if self.sweep_cursor >= space.index_space_end() {
            self.phase = GcPhase::Idle;
            self.stats.cycles += 1;
            i432_trace::emit(i432_trace::EventKind::GcPhaseIdle, 0);
            return Ok(true);
        }
        Ok(false)
    }

    fn reclaim_or_finalize<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        r: ObjectRef,
    ) -> Result<(), Fault> {
        reclaim_or_finalize(space, r, &self.config, &mut self.stats)
    }
}

/// Sweeps one white object: filter delivery, SRO deferral, or physical
/// reclaim. Shared verbatim between the serial [`Collector`] and the
/// parallel per-shard sweeper so the deterministic path's accounting
/// stays bit-identical.
pub(crate) fn reclaim_or_finalize<S: SpaceMut + ?Sized>(
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
    use i432_arch::{ObjectSpec, ProcessorState, Rights, ShardedSpace};

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
}
