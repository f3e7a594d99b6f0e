//! Integration tests for the per-agent descriptor qualification cache,
//! driven entirely through the public `SharedSpace`/`SpaceAgent` API.
//!
//! The unit tests in `qualcache.rs` cover the direct-mapped array in
//! isolation; these cover the invalidation protocol end to end: one
//! agent's cached line must never let it observe an object another
//! agent has destroyed, even across epoch-counter wraparound and
//! object-table slot reuse.

use i432_arch::{
    AccessDescriptor, ArchError, Level, ObjectIndex, ObjectRef, ObjectSpec, ObjectType,
    PortDiscipline, PortState, ProcessState, QualCache, Rights, ShardedSpace, SharedSpace,
    SpaceAccess, SpaceAccessExt, SpaceAgent, SroState, SysState, SystemType, QUAL_CACHE_LINES,
};
use std::sync::mpsc;
use std::time::Duration;

const SHARDS: u32 = 4;

fn shared() -> SharedSpace {
    SharedSpace::new(ShardedSpace::new(65536, 1024, 512, SHARDS))
}

/// Entries per object-directory leaf page (shard-local slots).
const LEAF: u32 = i432_arch::object_table::LEAF_ENTRIES;

/// A space whose per-shard table limit spans four leaf pages, so tests
/// can push allocation across leaf-page boundaries.
fn shared_big() -> SharedSpace {
    SharedSpace::new(ShardedSpace::new(256 * 1024, 4096, 16 * 1024, SHARDS))
}

/// Agent A caches a line for an object; agent B destroys the object.
/// A's next access must fault through the locked path, never serve the
/// reclaimed bytes from its stale line.
#[test]
fn cross_agent_destroy_invalidates_cached_line() {
    let shared = shared();
    let mut a = shared.agent();
    let mut b = shared.agent();

    let root = a.root_sro();
    let obj = a.create_object(root, ObjectSpec::generic(32, 0)).unwrap();
    let ad = a.mint(obj, Rights::READ | Rights::WRITE);

    a.write_u64(ad, 0, 0xDEAD_BEEF).unwrap();
    assert_eq!(a.read_u64(ad, 0).unwrap(), 0xDEAD_BEEF);
    assert_eq!(a.cache_occupancy(), 1, "locked read primes a line");
    // A second read is served by the fast path off the primed line.
    assert_eq!(a.read_u64(ad, 0).unwrap(), 0xDEAD_BEEF);

    b.destroy_object(obj).unwrap();

    // The destroy bumped the shard epoch, so A's line fails
    // revalidation and the locked path reports the reclamation.
    let err = a.read_u64(ad, 0).unwrap_err();
    assert!(
        matches!(err, ArchError::FreeEntry(_) | ArchError::StaleRef(_)),
        "stale cached line must fault, got {err:?}"
    );
}

/// Destroying an object and recreating one in the reused table slot
/// (same index, bumped generation) must fault an old AD even though the
/// index — and therefore the cache slot — collides.
#[test]
fn stale_ad_faults_after_slot_reuse() {
    let shared = shared();
    let mut a = shared.agent();

    let root = a.root_sro();
    let old = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    let old_ad = a.mint(old, Rights::READ | Rights::WRITE);
    a.write_u64(old_ad, 0, 1).unwrap();
    assert_eq!(a.read_u64(old_ad, 0).unwrap(), 1);
    assert_eq!(a.cache_occupancy(), 1);

    a.destroy_object(old).unwrap();
    let new = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    assert_eq!(new.index, old.index, "free list reuses the table slot");
    assert_ne!(new.generation, old.generation, "reclaim bumps generation");

    let new_ad = a.mint(new, Rights::READ | Rights::WRITE);
    a.write_u64(new_ad, 0, 2).unwrap();
    assert_eq!(a.read_u64(new_ad, 0).unwrap(), 2);

    // The probe is generation-exact: the old AD misses the (re-primed)
    // line for the same slot and the locked path raises StaleRef.
    assert!(
        matches!(a.read_u64(old_ad, 0), Err(ArchError::StaleRef(_))),
        "an AD from before the reuse must fault"
    );
    assert_eq!(a.read_u64(new_ad, 0).unwrap(), 2);
}

/// Invalidation survives epoch-counter wraparound: a line primed at
/// `u64::MAX` must be discarded when a destroy wraps the shard epoch
/// to 0, exactly as for any other bump.
#[test]
fn epoch_wraparound_still_invalidates() {
    let shared = shared();
    let mut a = shared.agent();
    let mut b = shared.agent();

    let root = a.root_sro();
    let obj = a.create_object(root, ObjectSpec::generic(32, 0)).unwrap();
    let ad = a.mint(obj, Rights::READ | Rights::WRITE);
    let k = obj.index.0 % SHARDS;

    shared.force_epoch(k, u64::MAX);
    a.write_u64(ad, 0, 77).unwrap();
    assert_eq!(a.read_u64(ad, 0).unwrap(), 77, "line primed at u64::MAX");
    assert_eq!(a.cache_occupancy(), 1);
    assert_eq!(
        a.read_u64(ad, 0).unwrap(),
        77,
        "fast path at epoch u64::MAX"
    );

    b.destroy_object(obj).unwrap();
    assert_eq!(shared.epoch(k), 0, "the bump wrapped the counter");

    // 0 != u64::MAX: equality comparison makes the wrap harmless.
    let err = a.read_u64(ad, 0).unwrap_err();
    assert!(
        matches!(err, ArchError::FreeEntry(_) | ArchError::StaleRef(_)),
        "wrapped epoch must still invalidate, got {err:?}"
    );
}

/// An epoch forced *between* prime and reuse: even if the shard epoch is
/// pinned back to the primed value (simulating an exact 2^64-bump
/// return), the generation in the line's identity still rejects a
/// reused slot.
#[test]
fn generation_guards_against_exact_epoch_reuse() {
    let shared = shared();
    let mut a = shared.agent();

    let root = a.root_sro();
    let old = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    let old_ad = a.mint(old, Rights::READ | Rights::WRITE);
    let k = old.index.0 % SHARDS;

    a.write_u64(old_ad, 0, 5).unwrap();
    assert_eq!(a.read_u64(old_ad, 0).unwrap(), 5);
    let primed_epoch = shared.epoch(k);

    a.destroy_object(old).unwrap();
    let new = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    assert_eq!(new.index, old.index);
    let new_ad = a.mint(new, Rights::READ | Rights::WRITE);
    a.write_u64(new_ad, 0, 6).unwrap();

    // Pin the epoch back to the exact value A's (evicted-by-reuse) line
    // was primed at. Identity still differs by generation, so nothing
    // stale can revalidate.
    shared.force_epoch(k, primed_epoch);
    assert!(matches!(a.read_u64(old_ad, 0), Err(ArchError::StaleRef(_))));
    assert_eq!(a.read_u64(new_ad, 0).unwrap(), 6);
}

/// Two live objects whose indices collide modulo the line count evict
/// each other from the direct-mapped cache; accesses stay correct
/// (the loser just re-primes through the locked path).
#[test]
fn direct_mapped_aliasing_stays_correct() {
    let shared = shared();
    let mut a = shared.agent();
    let root = a.root_sro();

    // Objects created from one SRO take interleaved indices in its
    // shard (stride SHARDS), so allocating past QUAL_CACHE_LINES
    // guarantees an aliasing pair: index and index + QUAL_CACHE_LINES.
    let objs: Vec<_> = (0..(QUAL_CACHE_LINES as u32 / SHARDS + 4))
        .map(|_| a.create_object(root, ObjectSpec::generic(16, 0)).unwrap())
        .collect();
    let (x, y) = objs
        .iter()
        .flat_map(|&x| objs.iter().map(move |&y| (x, y)))
        .find(|(x, y)| x != y && QualCache::slot_of(*x) == QualCache::slot_of(*y))
        .expect("an aliasing pair exists");

    let ad_x = a.mint(x, Rights::READ | Rights::WRITE);
    let ad_y = a.mint(y, Rights::READ | Rights::WRITE);
    a.write_u64(ad_x, 0, 0x1111).unwrap();
    a.write_u64(ad_y, 0, 0x2222).unwrap();

    // Ping-pong across the shared line: every read must return the
    // right object's bytes regardless of who owns the line.
    for _ in 0..4 {
        assert_eq!(a.read_u64(ad_x, 0).unwrap(), 0x1111);
        assert_eq!(a.read_u64(ad_y, 0).unwrap(), 0x2222);
    }
    // Both objects map to one line, so they can never be cached at once.
    assert!(a.cache_occupancy() < objs.len());
}

/// A line primed while the directory held a single leaf page must keep
/// hitting — and keep *invalidating* — after later allocations grow the
/// directory by whole pages. Directory growth publishes new leaves; it
/// must never disturb existing entries or the seqlock epochs guarding
/// them.
#[test]
fn cached_hit_survives_directory_growth() {
    let shared = shared_big();
    let mut a = shared.agent();
    let root = a.root_sro();

    // Prime a line while the shard's table still fits in leaf page 0.
    let early = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    let ad = a.mint(early, Rights::READ | Rights::WRITE);
    a.write_u64(ad, 0, 0xCAFE).unwrap();
    assert_eq!(a.read_u64(ad, 0).unwrap(), 0xCAFE);
    assert_eq!(a.cache_occupancy(), 1);

    // Grow the directory past a leaf boundary (allocations from one SRO
    // stay in its shard, so ~LEAF creates guarantee a second page).
    let mut last = early;
    for _ in 0..(LEAF + 8) {
        last = a.create_object(root, ObjectSpec::generic(0, 0)).unwrap();
    }
    assert!(
        last.index.0 >= LEAF * SHARDS,
        "the shard's table crossed into leaf page 1 (index {})",
        last.index.0
    );

    // The old line still serves the right bytes...
    assert_eq!(a.read_u64(ad, 0).unwrap(), 0xCAFE);
    assert!(a.cache_occupancy() >= 1);

    // ...and still invalidates: growth must not have detached the entry
    // from its shard epoch.
    let mut b = shared.agent();
    b.destroy_object(early).unwrap();
    assert!(matches!(
        a.read_u64(ad, 0),
        Err(ArchError::FreeEntry(_) | ArchError::StaleRef(_))
    ));
}

/// Slot reuse beyond the first leaf page: the generation-exact probe
/// must reject a stale AD for an entry that lives on a demand-grown
/// page, exactly as it does for page-0 entries.
#[test]
fn slot_reuse_on_grown_page_faults_stale_ads() {
    let shared = shared_big();
    let mut a = shared.agent();
    let root = a.root_sro();

    for _ in 0..(LEAF + 8) {
        a.create_object(root, ObjectSpec::generic(0, 0)).unwrap();
    }
    let old = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    assert!(
        old.index.0 >= LEAF * SHARDS,
        "the object must land on leaf page 1 (index {})",
        old.index.0
    );
    let old_ad = a.mint(old, Rights::READ | Rights::WRITE);
    a.write_u64(old_ad, 0, 41).unwrap();
    assert_eq!(a.read_u64(old_ad, 0).unwrap(), 41);

    a.destroy_object(old).unwrap();
    let new = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
    assert_eq!(new.index, old.index, "LIFO free list reuses the slot");
    assert_ne!(new.generation, old.generation);
    let new_ad = a.mint(new, Rights::READ | Rights::WRITE);
    a.write_u64(new_ad, 0, 42).unwrap();

    assert!(matches!(a.read_u64(old_ad, 0), Err(ArchError::StaleRef(_))));
    assert_eq!(a.read_u64(new_ad, 0).unwrap(), 42);
}

/// An AD probing an index whose leaf page does not exist yet must take
/// the locked path and fault `BadIndex`; once allocation grows the
/// directory to that index, the same stale AD must fault `StaleRef` on
/// the generation guard — never read the newcomer's bytes.
#[test]
fn generation_guard_covers_leaves_allocated_after_a_stale_probe() {
    let shared = shared_big();
    let mut a = shared.agent();
    let root = a.root_sro();

    // Park allocation just short of the page-1 boundary.
    for _ in 0..(LEAF - 8) {
        a.create_object(root, ObjectSpec::generic(0, 0)).unwrap();
    }
    let base = a.create_object(root, ObjectSpec::generic(0, 0)).unwrap();

    // Forge a reference 12 shard-slots ahead — past `used`, on a leaf
    // page that does not exist yet — with a generation no fresh slot
    // will ever have.
    let target = ObjectIndex(base.index.0 + 12 * SHARDS);
    let stale_ad = a.mint(
        ObjectRef {
            index: target,
            generation: 5,
        },
        Rights::READ,
    );
    assert!(
        matches!(a.read_u64(stale_ad, 0), Err(ArchError::BadIndex(i)) if i == target),
        "an index past `used` is out of range, grown leaf or not"
    );
    assert_eq!(a.cache_occupancy(), 0, "failed probes must not prime");

    // Grow the directory until a real object occupies the target index.
    let mut real = None;
    for _ in 0..16 {
        let r = a.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
        if r.index == target {
            real = Some(r);
        }
    }
    let real = real.expect("allocation reached the forged index");
    assert!(
        real.index.0 >= LEAF * SHARDS,
        "the target slot sits on the demand-grown page"
    );
    let real_ad = a.mint(real, Rights::READ | Rights::WRITE);
    a.write_u64(real_ad, 0, 99).unwrap();

    assert!(
        matches!(a.read_u64(stale_ad, 0), Err(ArchError::StaleRef(i)) if i == target),
        "the generation guard must reject the stale AD once the leaf exists"
    );
    assert_eq!(a.read_u64(real_ad, 0).unwrap(), 99);
}

/// A fast-path (lock-free) write must be visible to a different agent's
/// locked read — the arena bytes are the single store, not a private
/// copy.
#[test]
fn fast_write_visible_to_other_agents() {
    let shared = shared();
    let mut a = shared.agent();
    let mut b = shared.agent_uncached();

    let root = a.root_sro();
    let obj = a.create_object(root, ObjectSpec::generic(32, 0)).unwrap();
    let ad = a.mint(obj, Rights::READ | Rights::WRITE);

    // First locked write sets the dirty bit and primes A's line; the
    // second write goes through the fast path.
    a.write_u64(ad, 0, 10).unwrap();
    assert_eq!(a.cache_occupancy(), 1);
    a.write_u64(ad, 0, 11).unwrap();

    assert_eq!(b.read_u64(ad, 0).unwrap(), 11);
    assert_eq!(b.cache_occupancy(), 0, "uncached agents never prime");
}

/// `agent_uncached` takes the locked path for everything and must
/// behave identically to a caching agent, byte for byte.
#[test]
fn cached_and_uncached_agents_agree() {
    let shared = shared();
    let mut a = shared.agent();
    let mut b = shared.agent_uncached();

    let root = a.root_sro();
    let obj = a.create_object(root, ObjectSpec::generic(64, 0)).unwrap();
    let ad_a = a.mint(obj, Rights::READ | Rights::WRITE);
    let ad_b = b.mint(obj, Rights::READ | Rights::WRITE);

    for i in 0..8u64 {
        a.write_u64(ad_a, (i as u32) * 8, i * 3).unwrap();
    }
    for i in 0..8u64 {
        assert_eq!(a.read_u64(ad_a, (i as u32) * 8).unwrap(), i * 3);
        assert_eq!(b.read_u64(ad_b, (i as u32) * 8).unwrap(), i * 3);
    }
    assert!(a.cache_enabled() && !b.cache_enabled());
}

// ---------------------------------------------------------------------
// Which mutations move an epoch
// ---------------------------------------------------------------------

/// Every shard's epoch.
fn epochs(shared: &SharedSpace) -> Vec<u64> {
    (0..SHARDS).map(|k| shared.epoch(k)).collect()
}

/// The shards whose epoch differs between two readings.
fn moved(before: &[u64], after: &[u64]) -> Vec<u32> {
    (0..SHARDS)
        .filter(|&k| before[k as usize] != after[k as usize])
        .collect()
}

/// An object in shard `k` whose line `a` has primed with both usage
/// bits set, so that reads and writes through `a` can hit.
fn primed(a: &mut SpaceAgent<'_>, k: u32) -> AccessDescriptor {
    let obj = a
        .create_object(a.root_sro_of(k), ObjectSpec::generic(32, 0))
        .unwrap();
    let ad = a.mint(obj, Rights::READ | Rights::WRITE);
    a.write_u64(ad, 0, 41).unwrap();
    assert_eq!(a.read_u64(ad, 0).unwrap(), 41);
    ad
}

/// Whether `a` reads `ad` while a second agent holds every shard lock
/// in an all-shard section. Only a qualification-cache hit takes no
/// lock; a read that waits for the lock is given five seconds, after
/// which the section ends and the read finishes on the locked path.
fn hits_without_lock(shared: &SharedSpace, a: &mut SpaceAgent<'_>, ad: AccessDescriptor) -> bool {
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        shared.agent().atomically(|_| {
            scope.spawn(move || tx.send(a.read_u64(ad, 0)).unwrap());
            rx.recv_timeout(Duration::from_secs(5)).is_ok()
        })
    })
}

/// A port in shard `k`.
fn port_in(a: &mut SpaceAgent<'_>, k: u32) -> ObjectRef {
    a.create_object(
        a.root_sro_of(k),
        ObjectSpec {
            data_len: 0,
            access_len: PortState::access_slots(4, 4),
            otype: ObjectType::System(SystemType::Port),
            level: None,
            sys: SysState::Port(PortState::new(4, 4, PortDiscipline::Fifo)),
        },
    )
    .unwrap()
}

/// The work of a rendezvous inside an all-shard section (AD stores,
/// port and process state, data writes, even a create) changes no fact a
/// qualification line holds, so the section leaves every epoch alone
/// and a line primed before it still hits after it.
#[test]
fn a_rendezvous_section_leaves_every_epoch_alone() {
    let shared = shared();
    let mut a = shared.agent();
    let hot = primed(&mut a, 0);
    let port = port_in(&mut a, 1);
    let process = a
        .create_object(
            a.root_sro_of(2),
            ObjectSpec {
                data_len: 0,
                access_len: 4,
                otype: ObjectType::System(SystemType::Process),
                level: None,
                sys: SysState::Process(ProcessState::new(Level::GLOBAL)),
            },
        )
        .unwrap();
    let msg = a
        .create_object(a.root_sro_of(3), ObjectSpec::generic(16, 2))
        .unwrap();
    let msg_ad = a.mint(msg, Rights::ALL);
    assert!(hits_without_lock(&shared, &mut a, hot), "primed line hits");

    let before = epochs(&shared);
    a.atomically(|sm| {
        sm.store_ad(msg_ad, 0, Some(hot)).unwrap();
        sm.store_ad_hw(port, 0, Some(msg_ad)).unwrap();
        sm.port_mut(port).unwrap().msg_count = 1;
        sm.process_mut(process).unwrap().timeout_at = 9;
        sm.with_process_mut(process, |p| p.timeout_at = 10).unwrap();
        sm.write_u64(hot, 8, 3).unwrap();
        sm.write_u64(msg_ad, 0, 1).unwrap();
        sm.create_object(sm.root_sro_of(0), ObjectSpec::generic(8, 0))
            .unwrap();
    });
    assert_eq!(epochs(&shared), before, "no epoch moved");
    assert!(
        hits_without_lock(&shared, &mut a, hot),
        "the line primed before the section still hits"
    );
    assert_eq!(a.read_u64(hot, 8).unwrap(), 3);
}

/// Inside an all-shard section, each mutation that can change a cached
/// fact bumps its own shard's epoch and no other; a read through a line
/// primed before a destroy falls through to the locked path and faults.
#[test]
fn section_mutators_bump_exactly_their_own_shard() {
    let shared = shared();
    let mut a = shared.agent();
    for k in 0..SHARDS {
        // Destroy, then reuse the slot: the stale line must not serve
        // the new object's bytes.
        let victim = primed(&mut a, k);
        let before = epochs(&shared);
        let reused = a.atomically(|sm| {
            sm.destroy_object(victim.obj).unwrap();
            sm.create_object(sm.root_sro_of(k), ObjectSpec::generic(32, 0))
                .unwrap()
        });
        assert_eq!(moved(&before, &epochs(&shared)), [k], "destroy_object");
        assert_eq!(reused.index, victim.obj.index, "the slot is reused");
        assert!(
            matches!(a.read_u64(victim, 0), Err(ArchError::StaleRef(_))),
            "shard {k}: a line primed before the destroy must fault"
        );

        let obj = primed(&mut a, k).obj;
        let before = epochs(&shared);
        a.atomically(|sm| sm.entry_mut(obj).unwrap().desc.accessed = true);
        assert_eq!(moved(&before, &epochs(&shared)), [k], "entry_mut");

        let before = epochs(&shared);
        a.atomically(|sm| {
            sm.data_arena_mut(obj).unwrap();
        });
        assert_eq!(moved(&before, &epochs(&shared)), [k], "data_arena_mut");

        // A child SRO of shard k's root holding one object.
        let root = a.root_sro_of(k);
        let sro = a.atomically(|sm| {
            let base = sm.sro_mut(root).unwrap().data_free.allocate(64).unwrap();
            let mut state = SroState::new(Level::GLOBAL);
            state.parent = Some(root);
            state.data_free.donate(base, 64).unwrap();
            let sro = sm
                .create_object(
                    root,
                    ObjectSpec {
                        data_len: 0,
                        access_len: 0,
                        otype: ObjectType::System(SystemType::StorageResource),
                        level: None,
                        sys: SysState::Sro(state),
                    },
                )
                .unwrap();
            sm.create_object(sro, ObjectSpec::generic(16, 0)).unwrap();
            sro
        });
        let before = epochs(&shared);
        assert_eq!(a.atomically(|sm| sm.bulk_destroy_sro(sro).unwrap()), 2);
        assert_eq!(moved(&before, &epochs(&shared)), [k], "bulk_destroy_sro");
    }
}
