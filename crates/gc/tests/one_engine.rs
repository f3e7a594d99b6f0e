//! The worker that owns every shard (`Collector::new()`, the engine of
//! the GC daemon and `collect_full`) against a reference copy of the
//! serial collector whose increments, charges and visiting orders the
//! deterministic numbers were measured with.
//!
//! Both step side by side on clones of one space while a seeded mutator
//! acts between increments: it creates objects, stores and clears ADs in
//! an anchored object, drops garbage SROs that still charge objects, and
//! loses filtered-type instances and process objects in several shards,
//! so destruction-filter delivery runs. After every increment the step's
//! result, the phase, every `GcStats` field, every live entry's color,
//! `absent` flag and generation, and the messages queued at each filter
//! port must agree.

use i432_arch::{
    AccessDescriptor, Color, Level, ObjectRef, ObjectSpec, ObjectType, PortDiscipline,
    ProcessState, ProcessorState, Rights, ShardedSpace, SpaceAccess, SpaceMut, SysState,
    SystemType,
};
use i432_gdp::Fault;
use imax_gc::{drain_filter_port, filter, Collector, GcConfig, GcPhase, GcStats};
use imax_ipc::{create_port, Port};
use imax_storage::{create_sro, SroQuota};
use imax_typemgr::{bind_destruction_filter, TypeManager};

/// The serial collector as it stood before the parallel collector's
/// workers ran through `Collector`: the reference every deterministic
/// number was measured with.
#[derive(Default)]
struct Reference {
    config: GcConfig,
    stats: GcStats,
    phase: GcPhase,
    gray_stack: Vec<ObjectRef>,
    sweep_cursor: u32,
}

impl Reference {
    fn start_cycle(&mut self, space: &mut ShardedSpace) -> Result<(), Fault> {
        let mut roots = reference_roots(space);
        roots.extend(self.config.extra_roots.iter().copied());
        for r in roots {
            if space.entry(r).is_ok() {
                space.shade(r).map_err(Fault::from)?;
                self.gray_stack.push(r);
            }
        }
        self.phase = GcPhase::Mark;
        self.stats.sim_cycles += 50;
        Ok(())
    }

    fn step(&mut self, space: &mut ShardedSpace) -> Result<bool, Fault> {
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

    fn mark_step(&mut self, space: &mut ShardedSpace) -> Result<(), Fault> {
        self.stats.mark_steps += 1;
        if let Some(obj) = self.gray_stack.pop() {
            if space.entry(obj).is_err() {
                return Ok(());
            }
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
        self.stats.verification_scans += 1;
        self.stats.sim_cycles += space.index_space_end() as u64;
        let mut found = false;
        let gray_stack = &mut self.gray_stack;
        SpaceMut::for_each_live(space, &mut |i, e| {
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
        }
        Ok(())
    }

    fn sweep_step(&mut self, space: &mut ShardedSpace) -> Result<bool, Fault> {
        self.stats.sweep_steps += 1;
        let chunk = self.config.sweep_chunk.max(1);
        self.sweep_cursor = space.next_possibly_live(self.sweep_cursor);
        let end = self
            .sweep_cursor
            .saturating_add(chunk)
            .min(space.index_space_end());
        let mut batch: Vec<(ObjectRef, Color)> = Vec::new();
        space.for_live_in_range(self.sweep_cursor, end, &mut |i, e| {
            batch.push((
                ObjectRef {
                    index: i,
                    generation: e.generation,
                },
                e.desc.color,
            ));
        });
        for (r, color) in batch {
            if space.entry(r).is_err() {
                continue;
            }
            self.stats.sim_cycles += 4;
            match color {
                Color::Black | Color::Gray => {
                    space.set_color(r, Color::White).map_err(Fault::from)?;
                }
                Color::White => reference_reclaim(space, r, &self.config, &mut self.stats)?,
            }
        }
        self.sweep_cursor = end;
        if self.sweep_cursor >= space.index_space_end() {
            self.phase = GcPhase::Idle;
            self.stats.cycles += 1;
            return Ok(true);
        }
        Ok(false)
    }
}

/// The reference root set: root SROs, processors (shard-major), ring
/// messages.
fn reference_roots(space: &ShardedSpace) -> Vec<ObjectRef> {
    let mut roots = vec![space.root_sro()];
    for k in 1..space.shard_count() {
        roots.push(space.root_sro_of(k));
    }
    SpaceMut::for_each_live(space, &mut |i, e| {
        if e.desc.otype == ObjectType::System(SystemType::Processor) {
            roots.push(ObjectRef {
                index: i,
                generation: e.generation,
            });
        }
    });
    if let Some(reg) = SpaceAccess::port_rings(space) {
        reg.for_each(|ring| {
            if !ring.is_dead() {
                roots.extend(ring.snapshot_refs());
            }
        });
    }
    roots
}

/// The reference sweep of one white object.
fn reference_reclaim(
    space: &mut ShardedSpace,
    r: ObjectRef,
    config: &GcConfig,
    stats: &mut GcStats,
) -> Result<(), Fault> {
    let Ok(e) = space.entry(r) else {
        return Ok(());
    };
    if e.desc.sro.is_none() {
        return Ok(());
    }
    let notified = e.desc.filter_notified;
    let otype = e.desc.otype;
    if !notified {
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
        }
    }
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
    SpaceAccess::destroy_object(space, r).map_err(Fault::from)?;
    stats.reclaimed += 1;
    stats.sim_cycles += 40;
    Ok(())
}

/// Slots in the anchored object the mutator stores into.
const ANCHOR_SLOTS: u32 = 8;

/// What the mutator reaches: everything is kept alive by the processor
/// or by `extra_roots`.
struct World {
    shards: u32,
    anchor: AccessDescriptor,
    extra: AccessDescriptor,
    mgr: TypeManager,
    filter_port: Port,
    process_port: Port,
}

impl World {
    fn build(shards: u32) -> (ShardedSpace, World) {
        let mut s = ShardedSpace::new(1 << 21, 1 << 15, 1 << 14, shards);
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
        let anchor = s
            .create_object(root, ObjectSpec::generic(16, ANCHOR_SLOTS))
            .unwrap();
        let anchor = s.mint(anchor, Rights::ALL);
        s.store_ad_hw(cpu, i432_arch::sysobj::CPU_SLOT_ROOT, Some(anchor))
            .unwrap();
        let extra = s.create_object(root, ObjectSpec::generic(8, 2)).unwrap();
        let extra = s.mint(extra, Rights::ALL);
        let mgr = TypeManager::new(&mut s, root, "spool").unwrap();
        let filter_port = create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        bind_destruction_filter(&mut s, mgr.tdo_ad(), filter_port.ad()).unwrap();
        let process_port = create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let w = World {
            shards,
            anchor,
            extra,
            mgr,
            filter_port,
            process_port,
        };
        (s, w)
    }

    fn config(&self, sweep_chunk: u32) -> GcConfig {
        GcConfig {
            extra_roots: vec![
                self.extra.obj,
                self.mgr.tdo(),
                self.filter_port.object(),
                self.process_port.object(),
            ],
            process_filter_port: Some(self.process_port.ad()),
            sweep_chunk,
        }
    }

    /// One mutator action chosen by `d` (a few seeded draws).
    fn act(&self, s: &mut ShardedSpace, d: [u32; 4]) {
        let sro = s.root_sro_of(d[1] % self.shards);
        let slot = d[2] % ANCHOR_SLOTS;
        match d[0] % 9 {
            0 | 1 => {
                let o = s
                    .create_object(sro, ObjectSpec::generic(d[3] % 32, d[3] % 3))
                    .unwrap();
                let ad = s.mint(o, Rights::ALL);
                s.store_ad(self.anchor, slot, Some(ad)).unwrap();
            }
            2 => s.store_ad(self.anchor, slot, None).unwrap(),
            3 => {
                let ad = s.load_ad_hw(self.anchor.obj, slot).unwrap();
                s.store_ad(self.extra, d[3] % 2, ad).unwrap();
            }
            4 => {
                s.create_object(sro, ObjectSpec::generic(8, 1)).unwrap();
            }
            5 => {
                let child = create_sro(s, sro, Level(0), SroQuota::for_objects(4)).unwrap();
                for _ in 0..=d[3] % 3 {
                    s.create_object(child, ObjectSpec::generic(16, 1)).unwrap();
                }
            }
            6 => {
                self.mgr.create_instance(s, sro, 16, 1).unwrap();
            }
            7 => {
                s.create_object(
                    sro,
                    ObjectSpec {
                        data_len: 0,
                        access_len: i432_arch::sysobj::PROC_ACCESS_SLOTS,
                        otype: ObjectType::System(SystemType::Process),
                        level: None,
                        sys: SysState::Process(ProcessState::new(Level(0))),
                    },
                )
                .unwrap();
            }
            _ => {
                drain_filter_port(s, self.filter_port.ad()).unwrap();
                drain_filter_port(s, self.process_port.ad()).unwrap();
            }
        }
    }

    /// Each filter port's queue: head, count and message slots.
    fn queues(&self, s: &mut ShardedSpace) -> Vec<(u32, u32, Vec<AccessDescriptor>)> {
        [self.filter_port.object(), self.process_port.object()]
            .into_iter()
            .map(|p| {
                let SysState::Port(st) = &s.entry(p).unwrap().sys else {
                    panic!("filter port is a port");
                };
                let (head, count) = (st.msg_head, st.msg_count);
                (head, count, s.scan_access_part(p).unwrap())
            })
            .collect()
    }
}

/// Every live entry: index, generation, color and `absent` flag.
fn live_view(s: &ShardedSpace) -> Vec<(u32, u32, Color, bool)> {
    let mut v = Vec::new();
    SpaceMut::for_each_live(s, &mut |i, e| {
        v.push((i.0, e.generation, e.desc.color, e.desc.absent));
    });
    v
}

/// A small seeded generator (xorshift64*).
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u32 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32
    }
}

/// Steps both engines side by side for `cycles` collections.
fn run_side_by_side(shards: u32, sweep_chunk: u32, seed: u64, cycles: u64) -> GcStats {
    let (space, world) = World::build(shards);
    let mut a = space.clone();
    let mut b = space;
    let mut reference = Reference {
        config: world.config(sweep_chunk),
        ..Reference::default()
    };
    let mut gc = Collector::new();
    gc.config = world.config(sweep_chunk);
    let mut draws = Draws(seed | 1);
    let mut increment = 0u64;
    while reference.stats.cycles < cycles {
        increment += 1;
        let at =
            format!("{shards} shards, chunk {sweep_chunk}, seed {seed}, increment {increment}");
        let want = reference.step(&mut a).unwrap();
        let got = gc.step(&mut b).unwrap();
        assert_eq!(got, want, "{at}: step result");
        assert_eq!(gc.phase(), reference.phase, "{at}: phase");
        assert_eq!(gc.stats, reference.stats, "{at}: stats");
        assert_eq!(live_view(&b), live_view(&a), "{at}: live entries");
        assert_eq!(
            world.queues(&mut b),
            world.queues(&mut a),
            "{at}: filter ports"
        );
        // The mutator acts between increments, more often than not.
        for _ in 0..draws.next() % 3 {
            let d = [draws.next(), draws.next(), draws.next(), draws.next()];
            world.act(&mut a, d);
            world.act(&mut b, d);
        }
        assert!(increment < 200_000, "{at}: no progress");
    }
    reference.stats
}

#[test]
fn one_worker_engine_matches_the_serial_reference() {
    for shards in [1, 4] {
        for sweep_chunk in [4, 64, 4096] {
            for seed in [1, 2, 3] {
                let stats = run_side_by_side(shards, sweep_chunk, seed, 10);
                // The run exercised every path it is meant to pin.
                assert!(
                    stats.reclaimed > 0,
                    "{shards}/{sweep_chunk}/{seed}: {stats:?}"
                );
                assert!(
                    stats.finalized > 0,
                    "{shards}/{sweep_chunk}/{seed}: {stats:?}"
                );
                assert!(
                    stats.verification_scans > stats.cycles,
                    "{shards}/{sweep_chunk}/{seed}: mutator grays forced rescans: {stats:?}"
                );
            }
        }
    }
}
