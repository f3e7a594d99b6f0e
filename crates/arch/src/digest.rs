//! Placement-independent logical digests and whole-space invariant checks.
//!
//! The conformance oracle (`crates/conform`) runs the same program on the
//! deterministic single-shard runner and on the threaded lock-striped
//! runner and demands *bit-identical logical end state*. "Logical" is the
//! operative word: object-table indices, generation counters and arena
//! base addresses are placement artifacts — they legitimately differ
//! between shard counts and between interleavings. What must **not**
//! differ is everything the paper's protection model defines: which
//! objects exist, their types, levels and part sizes, the bytes in their
//! data parts, and the rights structure of the access graph.
//!
//! [`logical_digest`] condenses exactly that into one `u64` using
//! iterative label refinement (Weisfeiler–Leman style graph hashing):
//!
//! 1. every live object gets a *local* label hashing its
//!    placement-independent fields (type tag, level, part lengths, data
//!    bytes for program-visible objects, and a stable subset of its
//!    system-object state);
//! 2. for a fixed number of rounds, each label is re-mixed with the
//!    labels of the objects its access part designates (slot position and
//!    rights included), so the *shape* of the capability graph flows into
//!    every label without ever naming an index;
//! 3. the final digest combines all labels commutatively, so table order
//!    and allocation order cannot matter.
//!
//! ## What is digested, what is not
//!
//! * **In**: system-type tag, level number, data/access part lengths;
//!   data-part bytes of generic and user-typed objects; per-slot rights
//!   and target labels; port geometry, discipline and queued-message
//!   multiset; process status / priority / level / fault code; context
//!   ip and subprogram; domain and TDO identity.
//! * **Out**: object indices, generations, arena base addresses, SRO
//!   free-list shape and allocation counters, processor idle/busy cycles,
//!   GC colors and residency bits, every `SpaceStats` counter, port wait
//!   queues and statistics, process cycle accounting. These are either
//!   placement, timing, or bookkeeping — not capability semantics.
//!
//! Storage-resource and processor objects are pure infrastructure (how
//! many exist depends on the shard and processor counts, not on the
//! program), so they are not digested as nodes; an access descriptor
//! *pointing at* one contributes a stable type-tagged token instead of a
//! full label.
//!
//! [`check_invariants`] walks the same graph and reports violations of
//! the structural invariants every space must satisfy at any quiescent
//! point: no dangling or stale access descriptors, the level rule on
//! every program-visible edge, and per-SRO object accounting.

use crate::{
    descriptor::{ObjectType, SystemType},
    refs::{AccessDescriptor, ObjectIndex, ObjectRef},
    sysobj::SysState,
    traits::SpaceMut,
    Entry,
};
use std::collections::HashMap;

/// Label-refinement rounds. Deep enough that any realistic capability
/// chain (contexts → containers → leaves) influences its roots; bounded
/// so digesting stays linear in edges.
const ROUNDS: u32 = 16;

/// Mixes one value into a running hash (splitmix64 finalizer over an
/// xor-fold; deterministic, dependency-free, well distributed).
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds a byte slice into a hash, 8 bytes at a time.
fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(w));
    }
    mix(h, bytes.len() as u64)
}

/// Stable tag for a system type (independent of enum layout).
const fn type_tag(t: SystemType) -> u64 {
    match t {
        SystemType::Generic => 0,
        SystemType::Processor => 1,
        SystemType::Process => 2,
        SystemType::Context => 3,
        SystemType::Domain => 4,
        SystemType::Instructions => 5,
        SystemType::Port => 6,
        SystemType::StorageResource => 7,
        SystemType::TypeDefinition => 8,
    }
}

/// True when the object is digested as a graph node. Storage-resource
/// and processor objects are infrastructure whose population varies with
/// shard/processor configuration, not with program semantics.
fn is_node(e: &Entry) -> bool {
    !matches!(
        e.desc.otype,
        ObjectType::System(SystemType::StorageResource) | ObjectType::System(SystemType::Processor)
    )
}

/// The placement-independent local label of one object (no edges yet).
fn local_label<S: SpaceMut + ?Sized>(space: &S, r: ObjectRef, e: &Entry) -> u64 {
    let mut h = 0xC0FF_EE00_D15E_A5E5u64;
    h = match e.desc.otype {
        ObjectType::System(t) => mix(h, type_tag(t)),
        // The defining TDO is itself an object; its identity flows in
        // through an extra edge during refinement, not here.
        ObjectType::User(_) => mix(h, 255),
    };
    h = mix(h, u64::from(e.desc.level.0));
    h = mix(h, u64::from(e.desc.data_len));
    h = mix(h, u64::from(e.desc.access_len));

    // Data bytes are program-visible state for generic and user-typed
    // objects. System objects keep their logical state in `sys` (their
    // data parts are interpreter scratch), so only the stable subset
    // below participates.
    let include_data = matches!(
        e.desc.otype,
        ObjectType::System(SystemType::Generic) | ObjectType::User(_)
    );
    if include_data && e.desc.data_len > 0 {
        if let Ok(arena) = space.data_arena(r) {
            let mut buf = vec![0u8; e.desc.data_len as usize];
            if arena.read(e.desc.data_base, &mut buf).is_ok() {
                h = mix_bytes(h, &buf);
            }
        }
    }

    match &e.sys {
        SysState::Generic => h,
        // Infrastructure objects never reach here (not nodes), but keep
        // the arms total for edge-token hashing.
        SysState::Processor(p) => mix(h, u64::from(p.id)),
        SysState::Sro(s) => mix(h, u64::from(s.level.0)),
        SysState::Process(p) => {
            let mut h = mix(h, p.status as u64);
            h = mix(h, u64::from(p.priority));
            h = mix(h, u64::from(p.level.0));
            h = mix(h, u64::from(p.sys_level));
            mix(h, u64::from(p.fault_code))
        }
        SysState::Context(c) => {
            let h = mix(h, u64::from(c.ip));
            mix(h, u64::from(c.subprogram))
        }
        SysState::Domain(d) => {
            let mut h = mix_bytes(h, d.name.as_bytes());
            for s in &d.subprograms {
                h = mix_bytes(h, s.name.as_bytes());
            }
            h
        }
        SysState::Instructions(code) => mix(h, u64::from(code.0)),
        SysState::Port(p) => {
            let mut h = mix(h, u64::from(p.capacity));
            h = mix(h, u64::from(p.wait_capacity));
            h = mix(h, p.discipline as u64);
            // Queue *population*, not queue position: the ring head
            // depends on interleaving history even when the multiset of
            // queued messages is identical.
            mix(h, u64::from(p.msg_count))
        }
        SysState::TypeDef(t) => {
            let h = mix_bytes(h, t.name.as_bytes());
            mix(h, u64::from(t.filter_enabled))
        }
    }
}

/// How a node's outgoing edges fold into its label.
fn slot_range(e: &Entry) -> (u32, u32, bool) {
    match (&e.desc.otype, &e.sys) {
        // A port's access part is [messages | waiters]. Message slots
        // form a ring (position = interleaving history), so they fold as
        // a multiset; the waiter region holds parked processes or
        // processors — scheduling state, not logical state — and is
        // skipped entirely.
        (ObjectType::System(SystemType::Port), SysState::Port(p)) => (0, p.capacity, false),
        // Everything else is positionally addressed (context linkage
        // slots, object fields, domain subprogram slots).
        _ => (0, e.desc.access_len, true),
    }
}

/// The label contribution of one access descriptor, given current labels.
fn edge_target_label<S: SpaceMut + ?Sized>(
    space: &S,
    labels: &HashMap<u32, u64>,
    ad: AccessDescriptor,
) -> u64 {
    match space.entry_by_index(ad.obj.index) {
        Some(te) if te.generation == ad.obj.generation => {
            if is_node(te) {
                labels.get(&ad.obj.index.0).copied().unwrap_or(0xDEAD_BEEF)
            } else {
                // Infrastructure target: a stable type-tagged token.
                match &te.sys {
                    SysState::Sro(s) => mix(0x5150_5150, u64::from(s.level.0)),
                    SysState::Processor(p) => mix(0xC19C_19C1, u64::from(p.id)),
                    _ => 0xC1C1_C1C1,
                }
            }
        }
        // Dangling or stale: still deterministic, still digested (the
        // invariant checker reports it; the digest must not panic).
        _ => 0xDA96_1E55u64,
    }
}

/// Collects the live node set: `(index, ref)` pairs, skipping
/// infrastructure objects.
fn node_set<S: SpaceMut + ?Sized>(space: &S) -> Vec<(u32, ObjectRef)> {
    let mut nodes = Vec::new();
    space.for_each_live(&mut |i: ObjectIndex, e: &Entry| {
        if is_node(e) {
            if let Ok(r) = space.ref_for(i) {
                nodes.push((i.0, r));
            }
        }
    });
    nodes
}

/// Runs label refinement over `nodes` and returns the final label map.
fn refine<S: SpaceMut + ?Sized>(space: &S, nodes: &[(u32, ObjectRef)]) -> HashMap<u32, u64> {
    let mut base = HashMap::with_capacity(nodes.len());
    for &(i, r) in nodes {
        if let Ok(e) = space.entry(r) {
            base.insert(i, local_label(space, r, e));
        }
    }
    let mut labels = base.clone();
    for _ in 0..ROUNDS {
        let mut next = HashMap::with_capacity(nodes.len());
        for &(i, r) in nodes {
            let Ok(e) = space.entry(r) else { continue };
            let mut h = base[&i];
            let (lo, hi, positional) = slot_range(e);
            let mut unordered_acc = 0u64;
            for slot in lo..hi.min(e.desc.access_len) {
                let ad = space
                    .access_arena(r)
                    .ok()
                    .and_then(|a| a.get(e.desc.access_base + slot).ok())
                    .flatten();
                if positional {
                    match ad {
                        Some(ad) => {
                            let t = edge_target_label(space, &labels, ad);
                            h = mix(h, mix(u64::from(slot), mix(u64::from(ad.rights.bits()), t)));
                        }
                        None => h = mix(h, mix(u64::from(slot), 0x4E55_4C4C)),
                    }
                } else if let Some(ad) = ad {
                    let t = edge_target_label(space, &labels, ad);
                    unordered_acc = unordered_acc.wrapping_add(mix(u64::from(ad.rights.bits()), t));
                }
            }
            if !positional {
                h = mix(h, unordered_acc);
            }
            // A user-typed object's defining TDO is an implicit edge.
            if let ObjectType::User(tdo) = e.desc.otype {
                let tdo_ad = AccessDescriptor::new(tdo, crate::Rights::NONE);
                h = mix(h, mix(0x7D0, edge_target_label(space, &labels, tdo_ad)));
            }
            next.insert(i, h);
        }
        labels = next;
    }
    labels
}

/// Commutative combination of a label collection.
fn combine(labels: impl Iterator<Item = u64>) -> u64 {
    let mut sum = 0u64;
    let mut xor = 0u64;
    let mut n = 0u64;
    for l in labels {
        sum = sum.wrapping_add(l);
        xor ^= l;
        n += 1;
    }
    mix(mix(n, sum), xor)
}

/// The placement-independent logical digest of an entire space.
///
/// Two spaces digest equal iff they hold the same logical object
/// population with the same data contents, rights structure, levels and
/// system-object state — regardless of shard count, allocation order, or
/// table placement. See the module docs for the exact in/out policy.
pub fn logical_digest<S: SpaceMut + ?Sized>(space: &S) -> u64 {
    let nodes = node_set(space);
    let labels = refine(space, &nodes);
    combine(nodes.iter().filter_map(|(i, _)| labels.get(i).copied()))
}

/// Digest of the subgraph reachable from `roots`, in root order.
///
/// Used by the conformance oracle to compare *workload-visible* state
/// while ignoring infrastructure whose population varies with the
/// processor and shard configuration (dispatch ports, per-shard root
/// SROs, processor objects). Traversal follows the same edge policy as
/// [`logical_digest`] and does not enter infrastructure objects.
pub fn digest_from_roots<S: SpaceMut + ?Sized>(space: &S, roots: &[AccessDescriptor]) -> u64 {
    // Reachability sweep over indices.
    let mut reach: Vec<(u32, ObjectRef)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut work: Vec<ObjectRef> = Vec::new();
    for ad in roots {
        work.push(ad.obj);
    }
    while let Some(r) = work.pop() {
        if !seen.insert(r.index.0) {
            continue;
        }
        let Some(e) = space.entry_by_index(r.index) else {
            continue;
        };
        if e.generation != r.generation || !is_node(e) {
            continue;
        }
        reach.push((r.index.0, r));
        let (lo, hi, _) = slot_range(e);
        for slot in lo..hi.min(e.desc.access_len) {
            if let Some(ad) = space
                .access_arena(r)
                .ok()
                .and_then(|a| a.get(e.desc.access_base + slot).ok())
                .flatten()
            {
                work.push(ad.obj);
            }
        }
        if let ObjectType::User(tdo) = e.desc.otype {
            work.push(tdo);
        }
    }

    let labels = refine(space, &reach);
    let mut h = combine(reach.iter().filter_map(|(i, _)| labels.get(i).copied()));
    // Root attachment: order and rights of the roots themselves matter
    // (they are the caller's fixed handles into the state).
    for (i, ad) in roots.iter().enumerate() {
        let t = edge_target_label(space, &labels, *ad);
        h = mix(h, mix(i as u64, mix(u64::from(ad.rights.bits()), t)));
    }
    h
}

/// Structural invariants every quiescent space must satisfy.
///
/// Returns one human-readable line per violation (empty = healthy):
///
/// * **No dangling edges** — every access descriptor stored in any live
///   access part resolves to a live entry with a matching generation.
/// * **Level rule** (paper §5) — on every *program-visible* container
///   (generic and user-typed objects), no slot holds an access
///   descriptor for a shorter-lived object. System-object linkage
///   (port queues, process slots) is written by `store_ad_hw`, which
///   the architecture exempts, so those containers are not judged.
/// * **SRO accounting** — each storage-resource object's `object_count`
///   equals the number of live objects carved from it.
pub fn check_invariants<S: SpaceMut + ?Sized>(space: &S) -> Vec<String> {
    let mut problems = Vec::new();
    let mut per_sro: HashMap<u32, u32> = HashMap::new();

    let mut live: Vec<(u32, ObjectRef)> = Vec::new();
    space.for_each_live(&mut |i: ObjectIndex, _e: &Entry| {
        if let Ok(r) = space.ref_for(i) {
            live.push((i.0, r));
        }
    });

    for &(i, r) in &live {
        let Ok(e) = space.entry(r) else { continue };
        if let Some(sro) = e.desc.sro {
            *per_sro.entry(sro.index.0).or_insert(0) += 1;
        }
        let program_visible = matches!(
            e.desc.otype,
            ObjectType::System(SystemType::Generic) | ObjectType::User(_)
        );
        for slot in 0..e.desc.access_len {
            let Some(ad) = space
                .access_arena(r)
                .ok()
                .and_then(|a| a.get(e.desc.access_base + slot).ok())
                .flatten()
            else {
                continue;
            };
            match space.entry_by_index(ad.obj.index) {
                None => problems.push(format!(
                    "dangling: object {i} slot {slot} -> dead index {}",
                    ad.obj.index.0
                )),
                Some(te) if te.generation != ad.obj.generation => problems.push(format!(
                    "stale: object {i} slot {slot} -> index {} gen {} (current {})",
                    ad.obj.index.0, ad.obj.generation, te.generation
                )),
                Some(te) => {
                    if program_visible && !e.desc.level.may_hold(te.desc.level) {
                        problems.push(format!(
                            "level rule: object {i} (level {}) slot {slot} holds level {}",
                            e.desc.level, te.desc.level
                        ));
                    }
                }
            }
        }
    }

    for &(i, r) in &live {
        let Ok(e) = space.entry(r) else { continue };
        if let SysState::Sro(s) = &e.sys {
            let counted = per_sro.get(&i).copied().unwrap_or(0);
            if counted != s.object_count {
                problems.push(format!(
                    "sro accounting: SRO {i} records {} objects, {} live objects name it",
                    s.object_count, counted
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectSpec, Rights, ShardedSpace};

    #[test]
    fn mix_is_not_identity_and_spreads() {
        assert_ne!(mix(0, 1), 0);
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix_bytes(0, b"abc"), mix_bytes(0, b"abd"));
    }

    #[test]
    fn empty_spaces_digest_equal() {
        let a = ShardedSpace::new(4096, 256, 64, 1);
        let b = ShardedSpace::new(8192, 512, 128, 1);
        // Arena sizing is placement, not logic.
        assert_eq!(logical_digest(&a), logical_digest(&b));
    }

    #[test]
    fn digest_sees_data_mutation() {
        let mut s = ShardedSpace::new(4096, 256, 64, 1);
        let root = s.root_sro();
        let o = s.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
        let ad = s.mint(o, Rights::READ | Rights::WRITE);
        let d0 = logical_digest(&s);
        s.write_u64(ad, 0, 7).unwrap();
        assert_ne!(logical_digest(&s), d0);
    }

    #[test]
    fn invariants_clean_on_fresh_space() {
        let mut s = ShardedSpace::new(4096, 256, 64, 1);
        let root = s.root_sro();
        let a = s.create_object(root, ObjectSpec::generic(8, 2)).unwrap();
        let b = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let a_ad = s.mint(a, Rights::READ | Rights::WRITE);
        let b_ad = s.mint(b, Rights::READ);
        s.store_ad(a_ad, 0, Some(b_ad)).unwrap();
        assert_eq!(check_invariants(&s), Vec::<String>::new());
    }
}
