//! Garbage-collection roots.

use crate::collector::{EveryShard, Shards};
use i432_arch::{ObjectRef, ObjectType, SpaceAccess, SpaceMut, SystemType};

/// Discovers the root set: every shard's root SRO plus every processor
/// object and every message resident in a port ring.
///
/// Everything else the system needs alive must be reachable from a
/// processor — through its dispatching port (ready processes), its bound
/// process, or its root-directory slot (global domains and services).
/// This is the capability answer to "what is live": there is no central
/// registry to consult (paper §7.1).
pub fn find_roots<S: SpaceMut + ?Sized>(space: &mut S) -> Vec<ObjectRef> {
    roots_of(&mut EveryShard {
        space,
        grays: Vec::new(),
    })
}

/// The roots of the shards `w` owns, in the order the root scan pushes
/// them: each owned shard's root SRO (objects charge their storage to
/// their shard's root when no intermediate SRO intervenes), the
/// processor objects, then the messages in the rings of the owned
/// shards' ports.
pub(crate) fn roots_of<W: Shards>(w: &mut W) -> Vec<ObjectRef> {
    let mut roots = Vec::new();
    for k in 0..w.space().shard_count() {
        let r = w.space().root_sro_of(k);
        if w.owns(r) {
            roots.push(r);
        }
    }
    w.for_each_live(&mut |i, e| {
        if e.desc.otype == ObjectType::System(SystemType::Processor) {
            roots.push(ObjectRef {
                index: i,
                generation: e.generation,
            });
        }
    });
    // Messages published in port rings live outside any access part
    // until a locked operation drains them, so the collector must treat
    // ring contents as roots: a sweep resets colors, and a message that
    // sat in a ring across a whole cycle would otherwise be missed by
    // the next mark (the shade-at-push barrier only covers the cycle in
    // which the push happened). The snapshot is seqlock-consistent: an
    // entry mid-publish is skipped, and its message is still reachable
    // through the sender's context. Rings of dead ports are retired —
    // their entries died with the port, exactly as area-resident
    // messages do.
    if let Some(reg) = w.space().port_rings().cloned() {
        reg.for_each(|ring| {
            if !ring.is_dead() && w.owns(ring.port()) {
                roots.extend(ring.snapshot_refs());
            }
        });
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{ObjectSpec, ProcessorState, ShardedSpace, SysState};

    #[test]
    fn processors_and_root_sro_are_roots() {
        let mut s = ShardedSpace::new(8192, 512, 64, 1);
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
        let _noise = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let roots = find_roots(&mut s);
        assert!(roots.contains(&root));
        assert!(roots.contains(&cpu));
        assert_eq!(roots.len(), 2);
    }
}
