//! System-level checks for the port-ring fast path (the "queued ports"
//! subsystem): the lock-free per-port rings consulted ahead of the
//! shard locks must be observably indistinguishable from the locked
//! rendezvous path.
//!
//! The unit mechanics (wraparound, capacity, freeze/drain, concurrent
//! conservation) live in `i432_arch::portring`; this suite exercises
//! the *protocol* — ring lifecycle against the locked path, fallback on
//! full rings, and seeded mixed-path interleavings. The differential
//! oracle (`differential.rs`) diffs every threaded run, rings armed,
//! against the deterministic reference. The trace assertions bite
//! under `--features trace` and hold vacuously otherwise.

use i432_arch::{ObjectSpec, PortDiscipline, Rights, SharedSpace, SpaceAccessExt};
use i432_gdp::port::{self, RecvOutcome, SendOutcome};
use i432_sim::{System, SystemConfig};
use imax_ipc::create_port;

fn small_system() -> System {
    System::new(&SystemConfig::small().with_shards(4).with_processors(1))
}

/// The ring only exists after the locked path has created it. A locked
/// operation that leaves no process waiting reopens it holding the
/// port's whole queue, oldest first with the senders' keys, so the
/// message area is empty while it is open; one that leaves a waiter
/// keeps it frozen, and every operation takes the locked path until the
/// waiter is served.
#[test]
fn the_locked_path_reopens_the_ring_holding_the_queue_unless_a_process_waits() {
    use i432_arch::{sysobj::CTX_SLOT_FIRST_FREE, RingEntry};
    use i432_gdp::process::{make_process, ProcessSpec};
    use i432_gdp::ProgramBuilder;

    let mut sys = small_system();
    let root = sys.space.root_sro();
    let prt = create_port(&mut sys.space, root, 2, PortDiscipline::Fifo).expect("port fits");
    sys.space.port_ring_registry().set_enabled(true);
    let msgs: Vec<_> = (0..4)
        .map(|_| {
            let m = sys
                .space
                .create_object(root, ObjectSpec::generic(8, 0))
                .expect("message fits");
            sys.space.mint(m, Rights::READ | Rights::WRITE)
        })
        .collect();
    let mut halt = ProgramBuilder::new();
    halt.halt();
    let main = sys.subprogram("main", halt.finish(), 32, 8);
    let dom = sys.install_domain("d", vec![main], 0);
    let dispatch = sys.dispatch_ad();
    let process = make_process(
        &mut sys.space,
        root,
        dom,
        0,
        None,
        ProcessSpec::new(dispatch),
    )
    .expect("process fits");
    let msg_count = |sys: &System| sys.space.port(prt.object()).unwrap().msg_count;
    let frozen = |sys: &System| {
        port::ring_for(&sys.space, prt.ad(), Rights::RECEIVE)
            .expect("a ring")
            .is_frozen()
    };

    // No locked operation has touched the port yet: no ring, no fast path.
    assert_eq!(port::fast_send(&mut sys.space, prt.ad(), msgs[0], 3), None);
    assert!(port::ring_for(&sys.space, prt.ad(), Rights::SEND).is_none());

    // A locked send that leaves no waiter creates the ring and reopens
    // it holding the message: the area is empty.
    assert_eq!(
        port::send(&mut sys.space, None, prt.ad(), msgs[0], 5, false, false),
        Ok(SendOutcome::Queued)
    );
    assert!(!frozen(&sys));
    assert_eq!(msg_count(&sys), 0, "the open ring holds the queue");
    // A fast send queues behind it; the next locked operation drains
    // both into the area and refills the ring with them, in order, with
    // their keys.
    assert_eq!(
        port::fast_send(&mut sys.space, prt.ad(), msgs[1], 7),
        Some(SendOutcome::Queued)
    );
    assert_eq!(
        port::send(&mut sys.space, None, prt.ad(), msgs[2], 9, false, false),
        Ok(SendOutcome::WouldBlock),
        "a full port refuses a sender that cannot block"
    );
    assert_eq!(msg_count(&sys), 0);
    let ring = port::ring_for(&sys.space, prt.ad(), Rights::RECEIVE).expect("open ring");
    let mut queued = Vec::new();
    ring.freeze_and_drain(|e| queued.push(e));
    let want = [(msgs[0], 5), (msgs[1], 7)].map(|(msg, key)| RingEntry { msg, key });
    assert_eq!(queued, want, "oldest first, with the keys");
    assert!(ring.reopen(&queued));

    // A blocked sender leaves a waiter: the ring stays frozen, the
    // queue in the area.
    assert_eq!(
        port::send(
            &mut sys.space,
            Some(process),
            prt.ad(),
            msgs[2],
            9,
            true,
            false
        ),
        Ok(SendOutcome::Blocked)
    );
    assert!(frozen(&sys));
    assert_eq!(msg_count(&sys), 2);
    assert_eq!(port::fast_send(&mut sys.space, prt.ad(), msgs[3], 0), None);
    // The receive that serves the waiter reopens the ring holding the
    // queue, the woken sender's message last.
    assert_eq!(
        port::receive(&mut sys.space, None, prt.ad(), false, false),
        Ok(RecvOutcome::Received(msgs[0]))
    );
    assert!(!frozen(&sys));
    assert_eq!(msg_count(&sys), 0);
    let ring = port::ring_for(&sys.space, prt.ad(), Rights::RECEIVE).expect("open ring");
    for want in [msgs[1], msgs[2]] {
        assert_eq!(
            port::fast_receive_on(ring, prt.ad()),
            Some(RecvOutcome::Received(want))
        );
    }

    // A blocked receiver leaves a waiter too; the send that serves it
    // reopens the ring, empty.
    assert_eq!(
        port::receive(
            &mut sys.space,
            Some((process, CTX_SLOT_FIRST_FREE)),
            prt.ad(),
            true,
            false
        ),
        Ok(RecvOutcome::Blocked)
    );
    assert!(frozen(&sys));
    assert_eq!(
        port::send(&mut sys.space, None, prt.ad(), msgs[3], 0, false, false),
        Ok(SendOutcome::Delivered)
    );
    assert!(!frozen(&sys));
    assert_eq!(
        port::fast_send(&mut sys.space, prt.ad(), msgs[3], 11),
        Some(SendOutcome::Queued)
    );

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

    // Prime: the first locked operations create and open the ring.
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
        // Open the ring before the threads race.
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
