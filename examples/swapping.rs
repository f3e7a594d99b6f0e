//! Swapping demo: release 2's alternate storage implementation (§6.2).
//!
//! "A single Ada specification defines the common interface ... Both a
//! swapping and a non-swapping implementation meet this specification ...
//! The system is configured by selecting one of the alternate
//! implementations; most applications will not be affected by this
//! selection."
//!
//! The same workload (a working set larger than its SRO) runs against
//! both managers through the same interface: the non-swapping manager
//! reports exhaustion, the swapping manager transparently evicts and
//! reloads — and the data survives the round trips.
//!
//! Run with: `cargo run --example swapping`

use imax::arch::Level;
use imax::arch::{ObjectSpec, Rights, ShardedSpace};
use imax::storage::{create_sro, FrozenManager, SroQuota, StorageManager, SwappingManager};

const OBJECTS: usize = 24;
const OBJ_BYTES: u32 = 256;
const SRO_BYTES: u32 = 8 * OBJ_BYTES; // room for only 8 of the 24

fn workload(mgr: &mut dyn StorageManager) -> Result<(), String> {
    let mut space = ShardedSpace::new(256 * 1024, 16 * 1024, 4096, 1);
    let root = space.root_sro();
    let sro = create_sro(
        &mut space,
        root,
        Level(0),
        SroQuota {
            data_bytes: SRO_BYTES,
            access_slots: 256,
        },
    )
    .map_err(|e| e.to_string())?;

    // Allocate a working set three times the SRO's capacity, stamping
    // each object.
    let mut objs = Vec::new();
    for i in 0..OBJECTS {
        let o = mgr
            .create_object(&mut space, sro, ObjectSpec::generic(OBJ_BYTES, 0))
            .map_err(|e| format!("allocation {i}: {e}"))?;
        let ad = space.mint(o, Rights::READ | Rights::WRITE);
        space.write_u64(ad, 0, 0xC0FFEE00 + i as u64).unwrap();
        objs.push((o, ad));
    }

    // Revisit everything; under the swapping manager many of these are
    // absent and must come back from the backing store.
    for (i, (o, ad)) in objs.iter().enumerate() {
        if space.entry(*o).map(|e| e.desc.absent).unwrap_or(false) {
            mgr.ensure_resident(&mut space, *o)
                .map_err(|e| e.to_string())?;
        }
        let v = space.read_u64(*ad, 0).map_err(|e| e.to_string())?;
        if v != 0xC0FFEE00 + i as u64 {
            return Err(format!("object {i} corrupted: {v:#x}"));
        }
    }
    let st = mgr.stats();
    println!(
        "    [{}] allocated {}, swap-outs {}, swap-ins {}, eviction rounds {}",
        mgr.name(),
        st.allocated,
        st.swap_outs,
        st.swap_ins,
        st.eviction_rounds
    );
    Ok(())
}

fn main() {
    println!(
        "workload: {OBJECTS} objects x {OBJ_BYTES} B against an SRO of {SRO_BYTES} B (3x oversubscribed)"
    );

    println!("\nrelease 1 — non-swapping manager:");
    let mut frozen = FrozenManager::new();
    match workload(&mut frozen) {
        Ok(()) => println!("    unexpectedly succeeded"),
        Err(e) => println!("    storage fault, as expected: {e}"),
    }

    println!("\nrelease 2 — swapping manager (same interface, same workload):");
    let mut swapping = SwappingManager::new();
    match workload(&mut swapping) {
        Ok(()) => println!("    all {OBJECTS} objects intact across eviction round trips"),
        Err(e) => panic!("swapping run failed: {e}"),
    }
    println!("\nswapping OK");
}
