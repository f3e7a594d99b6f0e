//! Tricolor / gray-bit invariant checking.
//!
//! The soundness of on-the-fly collection (paper §8.1) rests on one
//! property the hardware write barrier must maintain at every point of
//! the mark phase: **no black object holds an access descriptor for a
//! white object**. Every AD move shades its target gray, so a scanned
//! (black) container can never come to hide a reference the collector
//! will not visit. This module makes the property checkable so the
//! conformance harness can assert it between arbitrary mutator and
//! collector increments.

use i432_arch::{Color, ObjectRef, SpaceMut};

/// Scans the whole table for black→white edges. Returns one description
/// per violation; an empty vector means the tricolor invariant holds.
///
/// Call this only while a mark phase is in progress — during sweep a
/// black object may legitimately precede the whitening cursor while its
/// (already whitened) target trails it.
pub fn check_tricolor<S: SpaceMut + ?Sized>(space: &mut S) -> Vec<String> {
    let mut black = Vec::new();
    space.for_each_live(&mut |i, e| {
        if e.desc.color == Color::Black {
            black.push(ObjectRef {
                index: i,
                generation: e.generation,
            });
        }
    });
    let mut violations = Vec::new();
    for r in black {
        let Ok(ads) = space.scan_access_part(r) else {
            continue;
        };
        for ad in ads {
            if space.entry(ad.obj).is_ok() && space.color_of(ad.obj) == Ok(Color::White) {
                violations.push(format!(
                    "black object #{} holds an AD for white object #{} — \
                     the gray-bit barrier was bypassed",
                    r.index.0, ad.obj.index.0
                ));
            }
        }
    }
    violations
}

/// [`check_tricolor`] against a lock-striped [`i432_arch::SharedSpace`]:
/// takes the all-shard atomic section so the scan sees a consistent
/// snapshot even while mutators and collector workers run, then checks
/// black→white edges across *all* shards (a black object in shard `j`
/// may hold the only AD for a white object in shard `k`, so per-shard
/// scans alone cannot see the violation).
pub fn check_tricolor_shared(shared: &i432_arch::SharedSpace) -> Vec<String> {
    use i432_arch::SpaceAccessExt;
    shared.agent().atomically(|sm| check_tricolor(sm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, GcPhase};
    use i432_arch::{
        sysobj::{CPU_ACCESS_SLOTS, CPU_SLOT_ROOT},
        ObjectSpec, ObjectType, ProcessorState, Rights, ShardedSpace, SysState, SystemType,
    };

    fn space_with_anchor() -> (ShardedSpace, ObjectRef) {
        let mut s = ShardedSpace::new(64 * 1024, 4096, 1024, 1);
        let root = s.root_sro();
        let cpu = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: CPU_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::Processor),
                    level: None,
                    sys: SysState::Processor(ProcessorState::new(0)),
                },
            )
            .unwrap();
        let anchor = s.create_object(root, ObjectSpec::generic(8, 4)).unwrap();
        let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
        s.store_ad_hw(cpu, CPU_SLOT_ROOT, Some(anchor_ad)).unwrap();
        (s, anchor)
    }

    /// The invariant holds after every single collector increment of a
    /// mark phase, even with mutator stores interleaved between them.
    #[test]
    fn invariant_holds_throughout_mark_with_interleaved_stores() {
        let (mut s, anchor) = space_with_anchor();
        let root = s.root_sro();
        let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);

        // A small reachable graph plus a "hidden" object held only by
        // the mutator (modelling an AD in a context register).
        let a = s.create_object(root, ObjectSpec::generic(0, 2)).unwrap();
        let a_ad = s.mint(a, Rights::READ | Rights::WRITE);
        s.store_ad(anchor_ad, 0, Some(a_ad)).unwrap();
        let hidden = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let hidden_ad = s.mint(hidden, Rights::READ);

        let mut gc = Collector::new();
        gc.start_cycle(&mut s).unwrap();
        let mut stored = false;
        let mut steps = 0;
        while gc.phase() == GcPhase::Mark {
            gc.step(&mut s).unwrap();
            steps += 1;
            // Mid-mark, the mutator stores the hidden AD into the (by
            // now likely black) anchor: the barrier must shade it.
            if steps == 2 {
                s.store_ad(anchor_ad, 1, Some(hidden_ad)).unwrap();
                stored = true;
            }
            let v = check_tricolor(&mut s);
            assert!(v.is_empty(), "after step {steps}: {v:?}");
        }
        assert!(stored, "the interleaved store must land inside mark");
    }

    /// A forged black→white edge (barrier bypass) is detected.
    #[test]
    fn forged_black_to_white_edge_is_reported() {
        let (mut s, anchor) = space_with_anchor();
        let root = s.root_sro();
        let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
        let o = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let o_ad = s.mint(o, Rights::READ);
        s.store_ad(anchor_ad, 0, Some(o_ad)).unwrap();

        // Simulate a barrier bypass: blacken the container, whiten the
        // target, *without* going through store_ad.
        s.set_color(anchor, Color::Black).unwrap();
        s.set_color(o, Color::White).unwrap();

        let v = check_tricolor(&mut s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("gray-bit barrier"));
    }

    /// Gray targets are fine: that is exactly what the barrier produces.
    #[test]
    fn black_to_gray_edge_is_permitted() {
        let (mut s, anchor) = space_with_anchor();
        let root = s.root_sro();
        let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
        let o = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let o_ad = s.mint(o, Rights::READ);
        s.store_ad(anchor_ad, 0, Some(o_ad)).unwrap();
        s.set_color(anchor, Color::Black).unwrap();
        s.set_color(o, Color::Gray).unwrap();
        assert!(check_tricolor(&mut s).is_empty());
    }
}
