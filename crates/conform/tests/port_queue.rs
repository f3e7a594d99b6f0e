//! System-level checks for the port-ring fast path (the "queued ports"
//! subsystem): the lock-free per-port rings consulted ahead of the
//! shard locks must be observably indistinguishable from the locked
//! rendezvous path.
//!
//! The unit mechanics (wraparound, capacity, freeze/drain, concurrent
//! conservation) live in `i432_arch::portring`; this suite exercises
//! the *protocol* — ring lifecycle against the locked path, fallback on
//! full rings, seeded mixed-path interleavings, and the differential
//! oracle's queue arms. The trace assertions bite under `--features
//! trace` and hold vacuously otherwise.

use i432_arch::{ObjectSpec, PortDiscipline, Rights, SharedSpace, SpaceAccessExt};
use i432_conform::{check_seed, QUICK_MATRIX};
use i432_gdp::port::{self, RecvOutcome, SendOutcome};
use i432_gdp::GdpMode;
use i432_sim::{FastPaths, System, SystemConfig};
use imax_ipc::create_port;

fn small_system() -> System {
    System::new(&SystemConfig::small().with_shards(4).with_processors(1))
}

/// The ring only exists after the locked path has created it, and only
/// accepts fast operations after the locked path has reopened it with
/// an empty message area (the FAST-mode invariant).
#[test]
fn fast_path_engages_only_after_the_locked_path_reopens_the_ring() {
    let mut sys = small_system();
    let root = sys.space.root_sro();
    let prt = create_port(&mut sys.space, root, 4, PortDiscipline::Fifo).expect("port fits");
    sys.space.port_ring_registry().set_enabled(true);

    let msg = sys
        .space
        .create_object(root, ObjectSpec::generic(8, 0))
        .expect("message fits");
    let msg_ad = sys.space.mint(msg, Rights::READ | Rights::WRITE);

    // No locked operation has touched the port yet: no ring, no fast path.
    assert_eq!(port::fast_send(&mut sys.space, prt.ad(), msg_ad, 0), None);

    // The locked send creates the ring but leaves it frozen — the
    // message area is non-empty, so FAST mode is off.
    imax_ipc::untyped::send(&mut sys.space, prt, msg_ad).expect("locked send");
    assert_eq!(port::fast_send(&mut sys.space, prt.ad(), msg_ad, 0), None);

    // The locked receive empties the area and reopens the ring.
    let got = imax_ipc::untyped::receive(&mut sys.space, prt).expect("locked receive");
    assert_eq!(got.map(|ad| ad.obj), Some(msg));

    // Now the fast path carries the rendezvous: Queued is exactly what
    // the locked path would answer in FAST mode.
    assert_eq!(
        port::fast_send(&mut sys.space, prt.ad(), msg_ad, 7),
        Some(SendOutcome::Queued)
    );
    let ring = port::ring_for(&sys.space, prt.ad(), Rights::RECEIVE).expect("the ring is open");
    match port::fast_receive_on(ring, prt.ad()) {
        Some(RecvOutcome::Received(ad)) => assert_eq!(ad.obj, msg),
        other => panic!("expected a fast receive, got {other:?}"),
    }

    if i432_trace::ENABLED {
        let c = i432_trace::snapshot();
        assert!(c.get(i432_trace::Counter::PortFastSends) >= 1);
        assert!(c.get(i432_trace::Counter::PortFastReceives) >= 1);
        // Every fast op also counts as a semantic port op, so the
        // schedule-deterministic totals are path-independent.
        assert!(c.get(i432_trace::Counter::PortSends) >= c.get(i432_trace::Counter::PortFastSends));
    }
}

/// A full ring refuses the fast send and the locked fallback answers
/// with the canonical full-queue outcome — the fallback must never
/// invent capacity the rendezvous path would deny.
#[test]
fn full_ring_falls_back_to_the_locked_path_verdict() {
    let mut sys = small_system();
    let root = sys.space.root_sro();
    let prt = create_port(&mut sys.space, root, 2, PortDiscipline::Fifo).expect("port fits");
    sys.space.port_ring_registry().set_enabled(true);

    let mut ads = Vec::new();
    for _ in 0..3 {
        let m = sys
            .space
            .create_object(root, ObjectSpec::generic(8, 0))
            .expect("message fits");
        ads.push(sys.space.mint(m, Rights::READ | Rights::WRITE));
    }

    // Prime: locked send + receive puts the port in FAST mode.
    imax_ipc::untyped::send(&mut sys.space, prt, ads[0]).expect("prime send");
    imax_ipc::untyped::receive(&mut sys.space, prt).expect("prime receive");

    // Fill the ring to the port's logical capacity (2), not the ring's
    // physical slot count.
    assert_eq!(
        port::fast_send(&mut sys.space, prt.ad(), ads[0], 0),
        Some(SendOutcome::Queued)
    );
    assert_eq!(
        port::fast_send(&mut sys.space, prt.ad(), ads[1], 0),
        Some(SendOutcome::Queued)
    );
    // Third send: ring full → fast path refuses → locked path gives the
    // same answer a rendezvous-only build would (queue overflow).
    assert_eq!(port::fast_send(&mut sys.space, prt.ad(), ads[2], 0), None);
    assert!(
        imax_ipc::untyped::send(&mut sys.space, prt, ads[2]).is_err(),
        "locked fallback on a full port must report overflow"
    );

    // The two queued messages are still there, in order, via the locked
    // path (which drains the ring before looking at the area).
    let a = imax_ipc::untyped::receive(&mut sys.space, prt).expect("drain 1");
    let b = imax_ipc::untyped::receive(&mut sys.space, prt).expect("drain 2");
    assert_eq!(a.map(|ad| ad.obj), Some(ads[0].obj));
    assert_eq!(b.map(|ad| ad.obj), Some(ads[1].obj));
}

/// Seeded schedule exploration of queue-vs-rendezvous ordering: two
/// producers and one consumer hammer one port over real threads, each
/// operation choosing the fast or locked path by a seeded coin. Every
/// message must arrive exactly once and the port must end empty — the
/// mixed schedule may reorder *between* producers but can neither lose,
/// duplicate, nor invent a message.
#[test]
fn seeded_mixed_path_interleavings_conserve_messages() {
    const PRODUCERS: usize = 2;
    const PER_PRODUCER: usize = 100;
    for seed in [1u64, 7, 23] {
        let mut sys = small_system();
        let root = sys.space.root_sro();
        let prt = create_port(&mut sys.space, root, 8, PortDiscipline::Fifo).expect("port fits");
        sys.space.port_ring_registry().set_enabled(true);

        let mut batches = Vec::new();
        let mut sent = std::collections::HashSet::new();
        for _ in 0..PRODUCERS {
            let mut ads = Vec::new();
            for _ in 0..PER_PRODUCER {
                let m = sys
                    .space
                    .create_object(root, ObjectSpec::generic(8, 0))
                    .expect("message fits");
                let ad = sys.space.mint(m, Rights::READ | Rights::WRITE);
                sent.insert(ad.obj);
                ads.push(ad);
            }
            batches.push(ads);
        }
        // Prime FAST mode before the threads race.
        imax_ipc::untyped::send(&mut sys.space, prt, batches[0][0]).expect("prime");
        imax_ipc::untyped::receive(&mut sys.space, prt).expect("prime");

        let space = std::mem::replace(
            &mut sys.space,
            i432_arch::ShardedSpace::new(4096, 64, 16, 1),
        );
        let shared = SharedSpace::new(space);
        let received = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (p, ads) in batches.iter().enumerate() {
                let shared = &shared;
                scope.spawn(move || {
                    let mut agent = shared.agent();
                    // Deterministic per-thread LCG picks the path.
                    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (p as u64 + 1);
                    for &ad in ads {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        loop {
                            let fast = (x >> 33) & 1 == 0;
                            let ok = if fast {
                                port::fast_send(&mut agent, prt.ad(), ad, 0).is_some()
                            } else {
                                // The locked path needs the all-shard
                                // atomic section, exactly as the SEND
                                // instruction's slow path takes it.
                                agent
                                    .atomically(|sm| imax_ipc::untyped::send(sm, prt, ad))
                                    .is_ok()
                            };
                            if ok {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let shared = &shared;
            let received = &received;
            scope.spawn(move || {
                let mut agent = shared.agent();
                let mut got = Vec::new();
                let mut x = seed ^ 0xdead_beef;
                while got.len() < PRODUCERS * PER_PRODUCER {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let fast = (x >> 33) & 1 == 0;
                    let msg = if fast {
                        match port::ring_for(&agent, prt.ad(), Rights::RECEIVE)
                            .and_then(|ring| port::fast_receive_on(ring, prt.ad()))
                        {
                            Some(RecvOutcome::Received(m)) => Some(m),
                            _ => None,
                        }
                    } else {
                        agent
                            .atomically(|sm| imax_ipc::untyped::receive(sm, prt))
                            .expect("locked receive")
                    };
                    match msg {
                        Some(m) => got.push(m.obj),
                        None => std::thread::yield_now(),
                    }
                }
                received.lock().unwrap().extend(got);
            });
        });
        sys.space = shared.into_inner();
        port::flush_rings(&mut sys.space).expect("quiesced flush");

        let got = received.into_inner().unwrap();
        let unique: std::collections::HashSet<_> = got.iter().copied().collect();
        assert_eq!(
            got.len(),
            PRODUCERS * PER_PRODUCER,
            "seed {seed}: lost messages"
        );
        assert_eq!(unique.len(), got.len(), "seed {seed}: duplicated messages");
        assert!(
            unique.is_subset(&sent),
            "seed {seed}: received a message nobody sent"
        );
        // Port drained: one more locked receive sees an empty queue.
        assert_eq!(
            imax_ipc::untyped::receive(&mut sys.space, prt).expect("final receive"),
            None,
            "seed {seed}: port not empty after conservation check"
        );
    }
}

/// The differential oracle's queue arms: queued and locked runs of the
/// same generated case must both be bit-identical to the deterministic
/// reference. (The fuzz binary sweeps this over hundreds of seeds and
/// the full matrix; this is the tier-1 sentinel.)
#[test]
fn queued_and_locked_arms_agree_with_the_reference() {
    for seed in [11u64, 42] {
        let arms = [FastPaths::ALL, FastPaths::new(GdpMode::Fused, false)];
        let r = check_seed(seed, QUICK_MATRIX, &arms);
        assert!(r.passed(), "{:#?}", r.mismatches);
    }
}
