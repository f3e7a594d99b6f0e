//! I2 — no central tables, paper §7.1.
//!
//! "A module's access is routinely limited to the objects which it
//! manages. ... there is no central table of all processes in the system.
//! Rather, the manager acquires an access for a given process object ...
//! whenever it is asked to perform an operation upon it. Damage due to a
//! machine error or latent program bug is limited to the particular
//! object with which the module is dealing at a given moment."

use imax::arch::{ObjectSpec, PortDiscipline, Rights, ShardedSpace};
use imax::ipc::create_port;
use imax::process::BasicProcessManager;
use imax::typemgr::TypeManager;

#[test]
fn process_manager_state_is_only_counters() {
    // Structural: the manager owns no collection of processes. Its size
    // equals its counters struct — nothing else fits.
    assert_eq!(
        std::mem::size_of::<BasicProcessManager>(),
        std::mem::size_of::<imax::process::basic::ManagerStats>(),
    );
}

#[test]
fn every_manager_operation_takes_the_instance() {
    // Behavioural: all operations require the caller to present the
    // process; with nothing presented, the manager can answer nothing.
    // (This is an API-shape test: the methods below are the complete
    // operation set, and each takes an ObjectRef.)
    let mut space = ShardedSpace::new(128 * 1024, 8 * 1024, 2048, 1);
    let root = space.root_sro();
    let dispatch = create_port(&mut space, root, 16, PortDiscipline::Fifo).unwrap();
    let dom = {
        use imax::arch::{CodeBody, CodeRef, DomainState, Subprogram, SysState, SystemType};
        let d = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: 2,
                    otype: imax::arch::ObjectType::System(SystemType::Domain),
                    level: None,
                    sys: SysState::Domain(DomainState {
                        name: "d".into(),
                        subprograms: vec![Subprogram {
                            name: "main".into(),
                            body: CodeBody::Interpreted(CodeRef(0)),
                            ctx_data_len: 32,
                            ctx_access_len: 8,
                        }],
                    }),
                },
            )
            .unwrap();
        space.mint(d, Rights::CALL)
    };
    let mut mgr = BasicProcessManager::new();
    let p = mgr
        .create_process(
            &mut space,
            root,
            dom,
            0,
            None,
            imax::gdp::process::ProcessSpec::new(dispatch.ad()),
            None,
        )
        .unwrap();
    // The creator received the only access. Drop it (conceptually): the
    // manager itself cannot enumerate or retrieve it — there is no
    // `mgr.processes()`.
    assert_eq!(mgr.stop_count(&space, p).unwrap(), 0);
    mgr.stop(&mut space, p).unwrap();
    assert_eq!(mgr.stop_count(&space, p).unwrap(), 1);
}

#[test]
fn type_manager_holds_only_its_tdo() {
    // A type manager's entire state is the TDO descriptor plus the
    // client-rights policy: no instance list.
    let mut space = ShardedSpace::new(64 * 1024, 4096, 1024, 1);
    let root = space.root_sro();
    let mgr = TypeManager::new(&mut space, root, "thing").unwrap();
    // Create many instances; the manager's size cannot grow (it is Copy).
    for _ in 0..32 {
        mgr.create_instance(&mut space, root, 8, 0).unwrap();
    }
    fn assert_copy<T: Copy>(_: &T) {}
    assert_copy(&mgr);
    // Only aggregate counters exist — in the TDO (the managed type's own
    // object), not in the manager.
    assert_eq!(space.tdo(mgr.tdo()).unwrap().instances_created, 32);
}

#[test]
fn damage_is_confined_to_the_presented_instance() {
    // Corrupting one instance through the manager leaves all others
    // untouched — the "damage limited to the particular object" claim.
    let mut space = ShardedSpace::new(64 * 1024, 4096, 1024, 1);
    let root = space.root_sro();
    let mgr = TypeManager::new(&mut space, root, "cell").unwrap();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let h = mgr.create_instance(&mut space, root, 8, 0).unwrap();
            let full = mgr.amplify(&mut space, h).unwrap();
            space.write_u64(full, 0, 100 + i).unwrap();
            h
        })
        .collect();
    // "Bug": clobber instance 3 via its amplified descriptor.
    let victim = mgr.amplify(&mut space, handles[3]).unwrap();
    space.write_u64(victim, 0, 0xDEAD).unwrap();
    for (i, h) in handles.iter().enumerate() {
        let full = mgr.amplify(&mut space, *h).unwrap();
        let v = space.read_u64(full, 0).unwrap();
        if i == 3 {
            assert_eq!(v, 0xDEAD);
        } else {
            assert_eq!(v, 100 + i as u64, "instance {i} unharmed");
        }
    }
}

#[test]
fn garbage_collector_needs_no_table_either() {
    // The GC discovers liveness purely from processors and reachability;
    // its root discovery returns processors + root SRO only.
    let mut space = ShardedSpace::new(64 * 1024, 4096, 1024, 1);
    let root = space.root_sro();
    for _ in 0..10 {
        space
            .create_object(root, ObjectSpec::generic(8, 0))
            .unwrap();
    }
    let roots = imax::gc::find_roots(&mut space);
    assert_eq!(
        roots,
        vec![root],
        "nothing but the root SRO (no processors here)"
    );
}
