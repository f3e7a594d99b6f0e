//! Object filing: release 2's persistent objects (paper §7.2/§9).
//!
//! A document graph — user-typed records referencing shared attachments
//! with restricted rights — is passivated to a byte image, the "machine"
//! is shut down, and a fresh machine activates the image. Hardware type
//! identity survives: the revived records are amplifiable only by the
//! matching type manager, exactly as §7.2 promises for storage channels.
//!
//! Run with: `cargo run --example filing`

use imax::arch::{ObjectSpec, Rights, ShardedSpace};
use imax::inspect;
use imax::typemgr::TypeManager;
use imax::{activate, passivate, PassiveStore};

fn main() {
    // --- Machine 1: build and file a document graph. ----------------------
    let mut m1 = ShardedSpace::new(256 * 1024, 16 * 1024, 4096, 1);
    let root = m1.root_sro();
    let documents = TypeManager::new(&mut m1, root, "document").expect("type");

    // Two documents sharing one attachment (read-only from doc B).
    let doc_a = documents
        .create_instance(&mut m1, root, 32, 2)
        .expect("doc");
    let doc_b = documents
        .create_instance(&mut m1, root, 32, 2)
        .expect("doc");
    let full_a = documents.amplify(&mut m1, doc_a).expect("amplify");
    let full_b = documents.amplify(&mut m1, doc_b).expect("amplify");
    m1.write_u64(full_a, 0, 0xA11CE).unwrap();
    m1.write_u64(full_b, 0, 0xB0B).unwrap();

    let attachment = m1
        .create_object(root, ObjectSpec::generic(64, 0))
        .expect("attachment");
    let att_rw = m1.mint(attachment, Rights::READ | Rights::WRITE);
    m1.write_u64(att_rw, 0, 0x5EA1).unwrap();
    m1.store_ad(full_a, 0, Some(att_rw)).unwrap();
    m1.store_ad(full_b, 0, Some(att_rw.restricted(Rights::READ)))
        .unwrap();
    // A folder object rooting both documents.
    let folder = m1.create_object(root, ObjectSpec::generic(8, 2)).unwrap();
    let folder_ad = m1.mint(folder, Rights::READ | Rights::WRITE);
    m1.store_ad(folder_ad, 0, Some(full_a)).unwrap();
    m1.store_ad(folder_ad, 1, Some(full_b)).unwrap();

    println!("machine 1 census:\n{:#?}", inspect::census(&m1).by_type);
    println!("folder graph:");
    print!("{}", inspect::graph_dump(&mut m1, folder, 3));

    let image = passivate(&mut m1, folder_ad).expect("passivate").to_bytes();
    println!("filed {} objects into {} bytes", 5, image.len());
    drop(m1); // machine 1 is gone.

    // --- Machine 2: activate. ---------------------------------------------
    let mut m2 = ShardedSpace::new(256 * 1024, 16 * 1024, 4096, 1);
    let root2 = m2.root_sro();
    let documents2 = TypeManager::new(&mut m2, root2, "document").expect("type");

    let store = PassiveStore::from_bytes(&image).expect("parse");
    let folder2 = activate(&mut m2, root2, &store, |name| {
        (name == "document").then_some(documents2.tdo())
    })
    .expect("activate");

    let doc_a2 = m2.load_ad(folder2, 0).unwrap().unwrap();
    let doc_b2 = m2.load_ad(folder2, 1).unwrap().unwrap();
    println!(
        "revived documents: a={:x}, b={:x}",
        m2.read_u64(doc_a2, 0).unwrap(),
        m2.read_u64(doc_b2, 0).unwrap()
    );

    // The shared attachment is still shared...
    let att_via_a = m2.load_ad(doc_a2, 0).unwrap().unwrap();
    let att_via_b = m2.load_ad(doc_b2, 0).unwrap().unwrap();
    assert_eq!(att_via_a.obj, att_via_b.obj, "sharing preserved");
    // ...and B's view is still read-only.
    assert!(m2.write_u64(att_via_a, 8, 1).is_ok());
    assert!(m2.write_u64(att_via_b, 8, 2).is_err());
    println!("attachment sharing and rights preserved across filing");

    // Type identity: the new manager can amplify; a stranger cannot.
    let sealed = doc_a2.restricted(Rights::NONE);
    assert!(documents2.amplify(&mut m2, sealed).is_ok());
    let stranger = TypeManager::new(&mut m2, root2, "stranger").unwrap();
    assert!(stranger.amplify(&mut m2, sealed).is_err());
    println!("type identity preserved and checked after activation");

    // And without the manager present, activation refuses outright.
    let mut m3 = ShardedSpace::new(64 * 1024, 4096, 256, 1);
    let root3 = m3.root_sro();
    assert!(activate(&mut m3, root3, &store, |_| None).is_err());
    println!("activation without the type manager is refused (identity is never dropped)");
    println!("filing OK");
}
