//! The basic process manager.
//!
//! Paper §6.1: "It supports nested stopping and starting of processes.
//! Each process has a count of the number of stops or starts outstanding
//! against it which determines if it is currently runnable. Since starts
//! and stops apply to entire trees, a user wishing to control a
//! computation need not be aware of the internal structure of that
//! process, i.e., whether it is implemented in terms of other processes."
//!
//! The manager holds **no table of processes** (paper §7.1): every
//! operation takes the caller's access descriptor for the process it
//! concerns; the tree is walked through the child links stored *in the
//! process objects themselves*.

use i432_arch::{
    sysobj::{PROC_CHILD_BASE, PROC_CHILD_SLOTS, PROC_SLOT_PARENT},
    AccessDescriptor, ObjectRef, ProcessStatus, Rights, SpaceMut,
};
use i432_gdp::{
    port,
    process::{make_process, ProcessSpec},
    Fault, FaultKind,
};

/// Counters the manager maintains (about its own activity — not about
/// the processes, which it does not track).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ManagerStats {
    /// Processes created.
    pub created: u64,
    /// Stop requests processed (tree-wide).
    pub stops: u64,
    /// Start requests processed (tree-wide).
    pub starts: u64,
    /// Terminated processes reaped.
    pub reaped: u64,
}

/// The basic process manager package.
#[derive(Debug, Default)]
pub struct BasicProcessManager {
    /// Activity counters.
    pub stats: ManagerStats,
}

impl BasicProcessManager {
    /// A fresh manager.
    pub fn new() -> BasicProcessManager {
        BasicProcessManager::default()
    }

    /// Creates a process, optionally as a child of `parent` (the Ada task
    /// model: a task cannot outlive its parent's scope).
    #[allow(clippy::too_many_arguments)] // Mirrors the service's record.
    pub fn create_process<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        sro: ObjectRef,
        domain: AccessDescriptor,
        subprogram: u32,
        arg: Option<AccessDescriptor>,
        spec: ProcessSpec,
        parent: Option<ObjectRef>,
    ) -> Result<ObjectRef, Fault> {
        let p = make_process(space, sro, domain, subprogram, arg, spec)?;
        if let Some(parent) = parent {
            self.link_child(space, parent, p)?;
        }
        self.stats.created += 1;
        Ok(p)
    }

    /// Enters a process into the dispatching mix.
    pub fn ready<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        p: ObjectRef,
    ) -> Result<(), Fault> {
        port::make_ready(space, p)
    }

    fn link_child<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        parent: ObjectRef,
        child: ObjectRef,
    ) -> Result<(), Fault> {
        let parent_ad = space.mint(parent, Rights::NONE);
        space
            .store_ad_hw(child, PROC_SLOT_PARENT, Some(parent_ad))
            .map_err(Fault::from)?;
        for i in 0..PROC_CHILD_SLOTS {
            let slot = PROC_CHILD_BASE + i;
            if space
                .load_ad_hw(parent, slot)
                .map_err(Fault::from)?
                .is_none()
            {
                let child_ad = space.mint(child, Rights::CONTROL);
                space
                    .store_ad_hw(parent, slot, Some(child_ad))
                    .map_err(Fault::from)?;
                return Ok(());
            }
        }
        Err(Fault::with_detail(
            FaultKind::QueueOverflow,
            "parent's child list is full",
        ))
    }

    /// Children of a process, via the links in its own object.
    pub fn children<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
        p: ObjectRef,
    ) -> Result<Vec<ObjectRef>, Fault> {
        let mut out = Vec::new();
        for i in 0..PROC_CHILD_SLOTS {
            if let Some(ad) = space
                .load_ad_hw(p, PROC_CHILD_BASE + i)
                .map_err(Fault::from)?
            {
                out.push(ad.obj);
            }
        }
        Ok(out)
    }

    fn tree_of<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
        root: ObjectRef,
    ) -> Result<Vec<ObjectRef>, Fault> {
        let mut all = vec![root];
        let mut i = 0;
        while i < all.len() {
            let kids = self.children(space, all[i])?;
            all.extend(kids);
            i += 1;
        }
        Ok(all)
    }

    /// Stops a process tree: every member's outstanding stop count is
    /// incremented. Members leave the dispatching mix at their next
    /// scheduling event.
    pub fn stop<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        root: ObjectRef,
    ) -> Result<u32, Fault> {
        let tree = self.tree_of(space, root)?;
        for &p in &tree {
            space.process_mut(p).map_err(Fault::from)?.stop_count += 1;
        }
        self.stats.stops += 1;
        Ok(tree.len() as u32)
    }

    /// Starts a process tree: every member's count is decremented; any
    /// member that becomes runnable and was parked re-enters the
    /// dispatching mix.
    pub fn start<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        root: ObjectRef,
    ) -> Result<u32, Fault> {
        let tree = self.tree_of(space, root)?;
        for &p in &tree {
            let became_runnable = {
                let ps = space.process_mut(p).map_err(Fault::from)?;
                ps.stop_count = ps.stop_count.saturating_sub(1);
                ps.stop_count == 0
            };
            let parked = space.process(p).map_err(Fault::from)?.status == ProcessStatus::Stopped;
            if became_runnable && parked {
                port::make_ready(space, p)?;
            }
        }
        self.stats.starts += 1;
        Ok(tree.len() as u32)
    }

    /// Outstanding stop count of one process.
    pub fn stop_count<S: SpaceMut + ?Sized>(&self, space: &S, p: ObjectRef) -> Result<u32, Fault> {
        Ok(space.process(p).map_err(Fault::from)?.stop_count)
    }

    /// Reaps a terminated process: unlinks it from its parent and
    /// destroys its object. Fails unless the process has terminated.
    pub fn reap<S: SpaceMut + ?Sized>(&mut self, space: &mut S, p: ObjectRef) -> Result<(), Fault> {
        let status = space.process(p).map_err(Fault::from)?.status;
        if status != ProcessStatus::Terminated {
            return Err(Fault::with_detail(
                FaultKind::TypeMismatch,
                "cannot reap a live process",
            ));
        }
        // Unlink from parent, if any.
        if let Some(parent) = space.load_ad_hw(p, PROC_SLOT_PARENT).map_err(Fault::from)? {
            for i in 0..PROC_CHILD_SLOTS {
                let slot = PROC_CHILD_BASE + i;
                if let Some(ad) = space.load_ad_hw(parent.obj, slot).map_err(Fault::from)? {
                    if ad.obj == p {
                        space
                            .store_ad_hw(parent.obj, slot, None)
                            .map_err(Fault::from)?;
                    }
                }
            }
        }
        space.destroy_object(p).map_err(Fault::from)?;
        self.stats.reaped += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::ShardedSpace;
    use i432_arch::{
        CodeBody, CodeRef, DomainState, ObjectSpec, ObjectType, PortDiscipline, PortState,
        Subprogram, SysState, SystemType,
    };

    struct Fixture {
        space: ShardedSpace,
        mgr: BasicProcessManager,
        dispatch: AccessDescriptor,
        domain: AccessDescriptor,
    }

    fn fixture() -> Fixture {
        let mut space = ShardedSpace::new(128 * 1024, 8 * 1024, 2048, 1);
        let root = space.root_sro();
        let port = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(64, 16),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(64, 16, PortDiscipline::Fifo)),
                },
            )
            .unwrap();
        let dispatch = space.mint(port, Rights::NONE);
        let dom = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: 2,
                    otype: ObjectType::System(SystemType::Domain),
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
        let domain = space.mint(dom, Rights::CALL);
        Fixture {
            space,
            mgr: BasicProcessManager::new(),
            dispatch,
            domain,
        }
    }

    impl Fixture {
        fn proc_with_parent(&mut self, parent: Option<ObjectRef>) -> ObjectRef {
            let root = self.space.root_sro();
            self.mgr
                .create_process(
                    &mut self.space,
                    root,
                    self.domain,
                    0,
                    None,
                    ProcessSpec::new(self.dispatch),
                    parent,
                )
                .unwrap()
        }
    }

    #[test]
    fn tree_links_are_in_the_objects() {
        let mut f = fixture();
        let parent = f.proc_with_parent(None);
        let c1 = f.proc_with_parent(Some(parent));
        let c2 = f.proc_with_parent(Some(parent));
        let grandchild = f.proc_with_parent(Some(c1));
        let kids = f.mgr.children(&mut f.space, parent).unwrap();
        assert_eq!(kids, vec![c1, c2]);
        assert_eq!(f.mgr.children(&mut f.space, c1).unwrap(), vec![grandchild]);
    }

    #[test]
    fn stop_and_start_apply_to_whole_tree() {
        let mut f = fixture();
        let parent = f.proc_with_parent(None);
        let child = f.proc_with_parent(Some(parent));
        let grandchild = f.proc_with_parent(Some(child));

        let n = f.mgr.stop(&mut f.space, parent).unwrap();
        assert_eq!(n, 3);
        for p in [parent, child, grandchild] {
            assert_eq!(f.mgr.stop_count(&f.space, p).unwrap(), 1);
            assert!(!f.space.process(p).unwrap().is_started());
        }
        f.mgr.start(&mut f.space, parent).unwrap();
        for p in [parent, child, grandchild] {
            assert!(f.space.process(p).unwrap().is_started());
        }
    }

    #[test]
    fn nested_stops_require_matching_starts() {
        let mut f = fixture();
        let p = f.proc_with_parent(None);
        f.mgr.stop(&mut f.space, p).unwrap();
        f.mgr.stop(&mut f.space, p).unwrap();
        f.mgr.start(&mut f.space, p).unwrap();
        assert!(
            !f.space.process(p).unwrap().is_started(),
            "one start cannot undo two stops"
        );
        f.mgr.start(&mut f.space, p).unwrap();
        assert!(f.space.process(p).unwrap().is_started());
    }

    #[test]
    fn stopping_a_subtree_leaves_the_parent_running() {
        let mut f = fixture();
        let parent = f.proc_with_parent(None);
        let child = f.proc_with_parent(Some(parent));
        f.mgr.stop(&mut f.space, child).unwrap();
        assert!(f.space.process(parent).unwrap().is_started());
        assert!(!f.space.process(child).unwrap().is_started());
    }

    #[test]
    fn start_reenters_parked_processes() {
        let mut f = fixture();
        let p = f.proc_with_parent(None);
        f.mgr.stop(&mut f.space, p).unwrap();
        // Simulate the dispatcher having parked it.
        f.space.process_mut(p).unwrap().status = ProcessStatus::Stopped;
        f.mgr.start(&mut f.space, p).unwrap();
        assert_eq!(f.space.process(p).unwrap().status, ProcessStatus::Ready);
        // It is back in the dispatch queue.
        let port_state = f.space.port(f.dispatch.obj).unwrap();
        assert_eq!(port_state.msg_count, 1);
    }

    #[test]
    fn reap_requires_termination_and_unlinks() {
        let mut f = fixture();
        let parent = f.proc_with_parent(None);
        let child = f.proc_with_parent(Some(parent));
        assert!(f.mgr.reap(&mut f.space, child).is_err());
        f.space.process_mut(child).unwrap().status = ProcessStatus::Terminated;
        // Tear down the child's context first (normally done by exit).
        let ctx = f
            .space
            .load_ad_hw(child, i432_arch::sysobj::PROC_SLOT_CONTEXT)
            .unwrap();
        if let Some(ctx) = ctx {
            f.space
                .store_ad_hw(child, i432_arch::sysobj::PROC_SLOT_CONTEXT, None)
                .unwrap();
            f.space.destroy_object(ctx.obj).unwrap();
        }
        f.mgr.reap(&mut f.space, child).unwrap();
        assert!(f.mgr.children(&mut f.space, parent).unwrap().is_empty());
        assert_eq!(f.mgr.stats.reaped, 1);
    }

    #[test]
    fn manager_holds_no_table() {
        // Structural check (paper §7.1): the manager type carries only
        // counters — no collection of process references.
        assert_eq!(
            std::mem::size_of::<BasicProcessManager>(),
            std::mem::size_of::<ManagerStats>()
        );
    }
}
