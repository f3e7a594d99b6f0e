//! Seeded schedule explorer for the retire-vs-mark race: a retirer
//! thread clears terminated processes' root-directory anchors *while* a
//! host thread steps the collector, in all-shard sections as the daemon
//! does, over the same space.
//!
//! The safety claims under test (documented on
//! `System::retire_terminated_shared`):
//!
//! * retiring mid-mark never reclaims an in-flight object — a process
//!   whose anchor vanishes after it was shaded is collected by a
//!   *later* cycle, not torn out from under the marker;
//! * no double destruction — every process entry is reclaimed exactly
//!   once (a double sweep would surface as a collector error and, with
//!   the recorder on, as a duplicated reclaim event);
//! * no leak — once every wave member is retired, two further cycles
//!   (launder + reclaim) empty the wave completely;
//! * tracking reconciliation after the run drops the dangling refs
//!   (the `retire_terminated` retain fix) and leaves the system clean.
//!
//! Each seed jitters the retirer's pacing differently, exploring
//! anchor-clears landing before, during, and after root scans, mark
//! drains, verification passes, and sweeps.

use i432_arch::{ShardedSpace, SharedSpace, SpaceAccess};
use i432_gdp::ProgramBuilder;
use i432_sim::{System, SystemConfig};
use imax_gc::Collector;

const WAVE: usize = 12;
const SHARDS: u32 = 4;

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    }
}

/// A system whose whole process wave has terminated but is still
/// anchored — the state `retire_terminated_shared` exists to unwind.
fn terminated_wave() -> System {
    let mut sys = System::new(&SystemConfig::small().with_shards(SHARDS));
    let mut p = ProgramBuilder::new();
    p.halt();
    let sub = sys.subprogram("noop", p.finish(), 32, 8);
    let dom = sys.install_domain("wave", vec![sub], 0);
    for _ in 0..WAVE {
        sys.spawn(dom, 0, None);
    }
    sys.run_to_completion(10_000_000);
    for p in sys.processes() {
        assert_eq!(
            sys.status_of(*p),
            Some(i432_arch::ProcessStatus::Terminated)
        );
    }
    sys
}

#[test]
fn concurrent_retirement_explorer_is_safe_under_every_seed() {
    let _guard = i432_trace::test_guard();
    for seed in 0..6u64 {
        // Full reset: `drain_timeline` only snapshots the rings, so the
        // previous seed's reclaim events must be cleared here or they
        // double-count in this seed's uniqueness check.
        i432_trace::reset();
        let mut sys = terminated_wave();
        let root_dir = sys.root_dir();
        let procs = sys.processes().to_vec();
        let space = std::mem::replace(&mut sys.space, ShardedSpace::new(4096, 64, 16, 1));
        let shared = SharedSpace::new(space);
        let mut gc = Collector::new();

        std::thread::scope(|scope| {
            scope.spawn(|| gc.collect_shared(&shared, 6).unwrap());
            let mut next = lcg(seed);
            let mut retired = 0usize;
            while retired < WAVE {
                // Limit 1 staggers the wave: each anchor-clear lands at
                // a different point of the collector's schedule.
                retired += System::retire_terminated_shared(&shared, root_dir, 1).len();
                std::thread::sleep(std::time::Duration::from_micros(next() % 200));
            }
            // Idempotence: the wave is gone from the directory, so a
            // second sweep of it retires nothing.
            assert!(System::retire_terminated_shared(&shared, root_dir, u32::MAX).is_empty());
        });

        // The concurrent window is over; whatever was retired too late
        // to be collected in it needs at most launder + reclaim.
        gc.collect_shared(&shared, 2).unwrap();
        {
            let mut agent = shared.agent();
            for p in &procs {
                assert!(
                    agent.color_of(*p).is_err(),
                    "seed {seed}: retired process leaked past the final cycles"
                );
            }
        }

        // With the recorder on: every reclaim is unique per (index,
        // cycle-free) stream — a double destroy would duplicate an
        // index with no allocation in between (the collector allocates
        // nothing), and the reclaim count must match the stats.
        let t = i432_trace::drain_timeline();
        if i432_trace::ENABLED && t.dropped == 0 {
            let reclaims = t.of_kind(i432_trace::EventKind::GcSweepReclaim);
            assert_eq!(reclaims.len() as u64, gc.stats.reclaimed, "seed {seed}");
            let mut seen = std::collections::HashSet::new();
            for e in &reclaims {
                assert!(
                    seen.insert(e.obj),
                    "seed {seed}: object index {} reclaimed twice",
                    e.obj
                );
            }
        }

        // Reconciliation: all twelve tracked refs now dangle (their
        // objects were reclaimed mid-run); the retain must count and
        // drop every one of them.
        sys.space = shared.into_inner();
        assert_eq!(sys.retire_terminated(), WAVE as u32, "seed {seed}");
        assert!(
            sys.processes().is_empty(),
            "seed {seed}: dangling process refs survived reconciliation"
        );
    }
    i432_trace::reset();
}
