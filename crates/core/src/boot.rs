//! [`Imax`]: boot and operation of a configured system.
//!
//! Boot assembles the configured packages over the simulated hardware:
//! the storage manager, the basic process manager, the selected
//! scheduler, the iMAX service domains (`untyped_ports`,
//! `storage_management`) callable from programs through ordinary CALLs,
//! the system fault port and its service, and (optionally) the garbage
//! collection daemon.
//!
//! [`Imax::run`] drives the simulation in chunks, interleaving the
//! host-side service passes (fault repair, scheduler servicing) the same
//! way iMAX's own service processes interleaved with applications.

use crate::{
    config::{ImaxConfig, SchedulingChoice, StorageChoice},
    faults::{make_fault_port, service_faults, FaultDisposition},
};
use i432_arch::{AccessDescriptor, CodeBody, ObjectRef, Rights, Subprogram};
use i432_gdp::{native::NativeReturn, process::ProcessSpec, Fault, FaultKind};
use i432_sim::{RunOutcome, System};
use imax_gc::{install_gc_daemon, Collector};
use imax_io::IoSubsystem;
use imax_ipc::{register_port_services, Port};
use imax_process::{BasicProcessManager, FairShareScheduler, NullScheduler, RoundRobinScheduler};
use imax_storage::{
    close_local_heap, open_local_heap_at, FrozenManager, SroQuota, StorageManager, SwappingManager,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// The selected scheduling package.
pub enum Scheduler {
    /// Pass-through policy.
    Null(NullScheduler),
    /// Round robin over a scheduler port.
    RoundRobin(RoundRobinScheduler),
    /// Fair-share controller.
    Fair(FairShareScheduler),
}

/// Well-known iMAX service domains handed to programs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceDirectory {
    /// `Untyped_Ports` (Figure 1): subprogram 0 = `Create_port`.
    pub untyped_ports: AccessDescriptor,
    /// `Storage_Management`: subprogram 0 = `open_local_heap`,
    /// 1 = `close_local_heap`.
    pub storage_management: AccessDescriptor,
}

/// A booted iMAX system.
pub struct Imax {
    /// The simulated hardware.
    pub sys: System,
    /// The storage manager behind the standard interface (shared with
    /// the storage-management native services).
    pub storage: Arc<Mutex<Box<dyn StorageManager>>>,
    /// The basic process manager.
    pub procman: BasicProcessManager,
    /// The selected scheduler.
    pub scheduler: Scheduler,
    /// The garbage collector, when configured.
    pub collector: Option<Arc<Mutex<Collector>>>,
    /// The system fault port.
    pub fault_port: Port,
    /// Service domains for programs.
    pub services: ServiceDirectory,
    /// Fault dispositions accumulated by service passes.
    pub fault_log: Vec<FaultDisposition>,
    /// The attached I/O subsystem (asynchronous device requests),
    /// serviced in every service pass.
    pub io: IoSubsystem,
    scheduler_port: Option<Port>,
}

impl Imax {
    /// Boots a system from a configuration.
    pub fn boot(config: &ImaxConfig) -> Imax {
        let mut sys = System::new(&config.hw);
        let root = sys.space.root_sro();

        // Alternate implementations of the storage specification (§6.2).
        let storage: Box<dyn StorageManager> = match config.storage {
            StorageChoice::NonSwapping => Box::new(FrozenManager::new()),
            StorageChoice::Swapping => Box::new(SwappingManager::new()),
        };
        let storage = Arc::new(Mutex::new(storage));

        // Service domain: Untyped_Ports.
        let port_ids = register_port_services(&mut sys.natives);
        let untyped_ports = sys.install_domain(
            "untyped_ports",
            vec![Subprogram {
                name: "create_port".into(),
                body: CodeBody::Native(port_ids.create_port),
                ctx_data_len: 16,
                ctx_access_len: 8,
            }],
            0,
        );

        // Service domain: Storage_Management (local heaps).
        let open_id = {
            let storage = Arc::clone(&storage);
            sys.natives
                .register("storage_management.open_local_heap", move |cx| {
                    let arg = cx.arg().ok_or_else(|| {
                        Fault::with_detail(
                            FaultKind::NullAccess,
                            "open_local_heap needs a quota record",
                        )
                    })?;
                    let data_bytes = cx.space.read_u64(arg, 0).map_err(Fault::from)? as u32;
                    let access_slots = cx.space.read_u64(arg, 8).map_err(Fault::from)? as u32;
                    cx.charge(300);
                    // The requesting frame is this service context's
                    // caller; the heap is scoped to *its* depth.
                    let caller = cx
                        .space
                        .load_ad_hw(cx.context, i432_arch::sysobj::CTX_SLOT_CALLER)
                        .map_err(Fault::from)?
                        .ok_or_else(|| {
                            Fault::with_detail(FaultKind::NullAccess, "service call has no caller")
                        })?;
                    let depth = cx.space.entry(caller.obj).map_err(Fault::from)?.desc.level;
                    let mut mgr = storage.lock();
                    let heap = open_local_heap_at(
                        mgr.as_mut(),
                        cx.space,
                        cx.process,
                        SroQuota {
                            data_bytes,
                            access_slots,
                        },
                        Some(depth),
                    )
                    .map_err(|e| Fault::with_detail(FaultKind::StorageExhausted, e.to_string()))?;
                    Ok(NativeReturn::ad(
                        cx.space.mint(heap, Rights::ALLOCATE | Rights::RECLAIM),
                    ))
                })
        };
        let close_id = {
            let storage = Arc::clone(&storage);
            sys.natives
                .register("storage_management.close_local_heap", move |cx| {
                    cx.charge(200);
                    let mut mgr = storage.lock();
                    let n = close_local_heap(mgr.as_mut(), cx.space, cx.process).map_err(|e| {
                        Fault::with_detail(FaultKind::StorageExhausted, e.to_string())
                    })?;
                    cx.charge(n as u64 * 20);
                    Ok(NativeReturn::value(n as u64))
                })
        };
        let storage_management = sys.install_domain(
            "storage_management",
            vec![
                Subprogram {
                    name: "open_local_heap".into(),
                    body: CodeBody::Native(open_id),
                    ctx_data_len: 16,
                    ctx_access_len: 8,
                },
                Subprogram {
                    name: "close_local_heap".into(),
                    body: CodeBody::Native(close_id),
                    ctx_data_len: 16,
                    ctx_access_len: 8,
                },
            ],
            0,
        );

        // The system fault port.
        let fault_port =
            make_fault_port(&mut sys.space, root).expect("fault port fits a fresh arena");
        sys.anchor(fault_port.ad());

        // Scheduling package selection (§6.1).
        let (scheduler, scheduler_port) = match config.scheduling {
            SchedulingChoice::Null => (Scheduler::Null(NullScheduler::new()), None),
            SchedulingChoice::RoundRobin { quantum } => {
                let port = imax_ipc::create_port(
                    &mut sys.space,
                    root,
                    128,
                    i432_arch::PortDiscipline::Fifo,
                )
                .expect("scheduler port fits a fresh arena");
                sys.anchor(port.ad());
                (
                    Scheduler::RoundRobin(RoundRobinScheduler::new(port, quantum)),
                    Some(port),
                )
            }
            SchedulingChoice::FairShare => (Scheduler::Fair(FairShareScheduler::new()), None),
        };

        // Garbage collection.
        let collector = config.gc.map(|gc_cfg| {
            let collector = Arc::new(Mutex::new(Collector::new()));
            install_gc_daemon(
                &mut sys,
                Arc::clone(&collector),
                gc_cfg.increments_per_call,
                gc_cfg.priority,
            );
            collector
        });

        Imax {
            sys,
            storage,
            procman: BasicProcessManager::new(),
            scheduler,
            collector,
            fault_port,
            services: ServiceDirectory {
                untyped_ports,
                storage_management,
            },
            fault_log: Vec::new(),
            io: IoSubsystem::new(),
            scheduler_port,
        }
    }

    /// Attaches a device to the I/O subsystem, returning its request
    /// port (hand clients send-only views). The port is anchored so the
    /// device stays reachable.
    pub fn attach_device(
        &mut self,
        device: std::sync::Arc<Mutex<dyn imax_io::DeviceImpl>>,
        queue_depth: u32,
    ) -> Result<Port, Fault> {
        let root = self.sys.space.root_sro();
        let port = self
            .io
            .attach(&mut self.sys.space, root, device, queue_depth)?;
        self.sys.anchor(port.ad());
        Ok(port)
    }

    /// Spawns an application process with the system fault port and the
    /// configured scheduler wired in.
    pub fn spawn_program(
        &mut self,
        domain: AccessDescriptor,
        subprogram: u32,
        arg: Option<AccessDescriptor>,
    ) -> ObjectRef {
        let mut spec = ProcessSpec::new(self.sys.dispatch_ad());
        spec.fault_port = Some(self.fault_port.ad());
        spec.scheduler_port = self.scheduler_port.map(|p| p.ad());
        if let Scheduler::RoundRobin(rr) = &self.scheduler {
            spec.timeslice = rr.quantum;
        }
        let p = self.sys.spawn_with(domain, subprogram, arg, spec);
        if let Scheduler::Fair(fs) = &mut self.scheduler {
            fs.adopt(p, 1);
        }
        p
    }

    /// [`Imax::spawn_program`] with a fair-share weight.
    pub fn spawn_weighted(
        &mut self,
        domain: AccessDescriptor,
        subprogram: u32,
        arg: Option<AccessDescriptor>,
        weight: u64,
    ) -> ObjectRef {
        let p = self.spawn_program(domain, subprogram, arg);
        if let Scheduler::Fair(fs) = &mut self.scheduler {
            // Replace the default adoption.
            fs.adopt(p, weight);
        }
        p
    }

    /// One host-side service pass: fault repair + scheduler service.
    pub fn service_pass(&mut self) -> Result<(), Fault> {
        let mut mgr = self.storage.lock();
        let dispositions = service_faults(&mut self.sys.space, self.fault_port, mgr.lock_as_mut())?;
        drop(mgr);
        self.fault_log.extend(dispositions);
        self.io.service(&mut self.sys.space)?;
        match &mut self.scheduler {
            Scheduler::Null(_) => {}
            Scheduler::RoundRobin(rr) => {
                rr.service(&mut self.sys.space)?;
                for p in rr.take_reapable() {
                    self.sys.unanchor(p);
                }
            }
            Scheduler::Fair(fs) => {
                fs.rebalance(&mut self.sys.space)?;
            }
        }
        Ok(())
    }

    /// Runs the system, interleaving service passes, until every spawned
    /// process terminated, the budget is exhausted, or a system error.
    pub fn run(&mut self, max_steps: u64) -> RunOutcome {
        let chunk = 4096;
        let mut remaining = max_steps;
        loop {
            let budget = chunk.min(remaining);
            if budget == 0 {
                return RunOutcome::BudgetExhausted;
            }
            let outcome = self.sys.run_to_completion(budget);
            remaining -= budget;
            if let Err(f) = self.service_pass() {
                return RunOutcome::SystemError(f);
            }
            match outcome {
                RunOutcome::Stopped => {
                    // All processes done (service pass may have restarted
                    // some — check).
                    let all_done = self.sys.processes().iter().all(|p| {
                        matches!(
                            self.sys.status_of(*p),
                            Some(i432_arch::ProcessStatus::Terminated) | None
                        )
                    });
                    if all_done {
                        return RunOutcome::Stopped;
                    }
                }
                RunOutcome::Quiescent => {
                    // Truly quiescent only if the service pass woke
                    // nothing.
                    let any_ready = self.sys.processes().iter().any(|p| {
                        matches!(
                            self.sys.status_of(*p),
                            Some(i432_arch::ProcessStatus::Ready)
                        )
                    });
                    if !any_ready {
                        return RunOutcome::Quiescent;
                    }
                }
                RunOutcome::SystemError(f) => return RunOutcome::SystemError(f),
                RunOutcome::BudgetExhausted => {}
            }
        }
    }
}

/// Helper trait to get `&mut dyn StorageManager` out of the boxed lock.
trait LockAsMut {
    fn lock_as_mut(&mut self) -> &mut dyn StorageManager;
}

impl LockAsMut for parking_lot::MutexGuard<'_, Box<dyn StorageManager>> {
    fn lock_as_mut(&mut self) -> &mut dyn StorageManager {
        self.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GcChoice, ImaxConfig, SchedulingChoice};
    use i432_arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_SRO};
    use i432_gdp::isa::{AluOp, DataDst, DataRef};
    use i432_gdp::ProgramBuilder;

    fn worker(imax: &mut Imax, iters: u64) -> AccessDescriptor {
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.mov(DataRef::Imm(iters), DataDst::Local(0));
        p.bind(top);
        p.work(500);
        p.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), top);
        p.halt();
        let sub = imax.sys.subprogram("work", p.finish(), 64, 8);
        imax.sys.install_domain("worker", vec![sub], 0)
    }

    #[test]
    fn boot_and_run_development_config() {
        let mut imax = Imax::boot(&ImaxConfig::development());
        let dom = worker(&mut imax, 20);
        let p = imax.spawn_program(dom, 0, None);
        let outcome = imax.run(1_000_000);
        assert!(
            matches!(outcome, RunOutcome::Stopped | RunOutcome::Quiescent),
            "{outcome:?}"
        );
        assert_eq!(
            imax.sys.status_of(p),
            Some(i432_arch::ProcessStatus::Terminated)
        );
    }

    #[test]
    fn programs_create_ports_via_service_call() {
        let mut imax = Imax::boot(&ImaxConfig::embedded());
        // Program: build the argument record, CALL untyped_ports.create,
        // then send itself a message through the new port and receive it.
        let mut p = ProgramBuilder::new();
        // arg record: message_count=4, discipline=0 (FIFO).
        p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(16), DataRef::Imm(0), 5);
        p.mov(DataRef::Imm(4), DataDst::Field(5, 0));
        p.mov(DataRef::Imm(0), DataDst::Field(5, 8));
        // CALL the service (domain AD arrives as the program argument).
        p.call(CTX_SLOT_ARG as u16, 0, Some(5), Some(6), None);
        // Make a message and loop it through the port.
        p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(8), DataRef::Imm(0), 7);
        p.mov(DataRef::Imm(31337), DataDst::Field(7, 0));
        p.send(6, 7);
        p.receive(6, 8);
        // Verify the payload or fault.
        let ok = p.new_label();
        p.alu(
            AluOp::Eq,
            DataRef::Field(8, 0),
            DataRef::Imm(31337),
            DataDst::Local(16),
        );
        p.jump_if_nonzero(DataRef::Local(16), ok);
        p.push(i432_gdp::Instruction::RaiseFault { code: 1 });
        p.bind(ok);
        p.halt();
        let sub = imax.sys.subprogram("port_user", p.finish(), 64, 12);
        let dom = imax.sys.install_domain("app", vec![sub], 0);
        let svc = imax.services.untyped_ports;
        let proc_ref = imax.spawn_program(dom, 0, Some(svc));
        let outcome = imax.run(1_000_000);
        assert!(
            matches!(outcome, RunOutcome::Stopped | RunOutcome::Quiescent),
            "{outcome:?}"
        );
        assert_eq!(
            imax.sys.status_of(proc_ref),
            Some(i432_arch::ProcessStatus::Terminated)
        );
        assert_eq!(imax.sys.space.process(proc_ref).unwrap().fault_code, 0);
        assert!(imax.fault_log.is_empty(), "{:?}", imax.fault_log);
    }

    #[test]
    fn local_heap_service_reclaims_at_close() {
        let mut imax = Imax::boot(&ImaxConfig::development());
        // Program: open a local heap, allocate from it, close it.
        let mut p = ProgramBuilder::new();
        // quota record.
        p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(16), DataRef::Imm(0), 5);
        p.mov(DataRef::Imm(2048), DataDst::Field(5, 0));
        p.mov(DataRef::Imm(64), DataDst::Field(5, 8));
        p.call(CTX_SLOT_ARG as u16, 0, Some(5), Some(6), None); // open → heap AD in 6
        p.create_object(6, DataRef::Imm(64), DataRef::Imm(2), 7);
        p.create_object(6, DataRef::Imm(64), DataRef::Imm(2), 8);
        // Null the ADs so nothing dangles in this context after close.
        p.null_ad(7);
        p.null_ad(8);
        p.null_ad(6);
        p.call(CTX_SLOT_ARG as u16, 1, None, None, Some(24)); // close → count
        let ok = p.new_label();
        p.alu(
            AluOp::Eq,
            DataRef::Local(24),
            DataRef::Imm(3),
            DataDst::Local(32),
        );
        p.jump_if_nonzero(DataRef::Local(32), ok);
        p.push(i432_gdp::Instruction::RaiseFault { code: 2 });
        p.bind(ok);
        p.halt();
        let sub = imax.sys.subprogram("heap_user", p.finish(), 64, 12);
        let dom = imax.sys.install_domain("app", vec![sub], 0);
        let svc = imax.services.storage_management;
        let proc_ref = imax.spawn_program(dom, 0, Some(svc));
        let outcome = imax.run(1_000_000);
        assert!(
            matches!(outcome, RunOutcome::Stopped | RunOutcome::Quiescent),
            "{outcome:?}"
        );
        assert_eq!(imax.sys.space.process(proc_ref).unwrap().fault_code, 0);
        let stats = imax.storage.lock().stats();
        assert_eq!(stats.heaps_created, 1);
        assert_eq!(stats.heaps_destroyed, 1);
    }

    #[test]
    fn round_robin_configuration_runs() {
        let cfg = ImaxConfig {
            scheduling: SchedulingChoice::RoundRobin { quantum: 10_000 },
            gc: Some(GcChoice::default()),
            ..ImaxConfig::development()
        };
        let mut imax = Imax::boot(&cfg);
        let dom = worker(&mut imax, 50);
        let a = imax.spawn_program(dom, 0, None);
        let b = imax.spawn_program(dom, 0, None);
        let outcome = imax.run(2_000_000);
        assert!(
            matches!(outcome, RunOutcome::Stopped | RunOutcome::Quiescent),
            "{outcome:?}"
        );
        for p in [a, b] {
            assert_eq!(
                imax.sys.status_of(p),
                Some(i432_arch::ProcessStatus::Terminated)
            );
            assert_eq!(imax.sys.space.process(p).unwrap().timeslice, 10_000);
        }
    }

    #[test]
    fn faulting_program_is_logged_and_terminated() {
        let mut imax = Imax::boot(&ImaxConfig::development());
        let mut p = ProgramBuilder::new();
        p.alu(
            AluOp::Div,
            DataRef::Imm(1),
            DataRef::Imm(0),
            DataDst::Local(0),
        );
        p.halt();
        let sub = imax.sys.subprogram("crasher", p.finish(), 32, 8);
        let dom = imax.sys.install_domain("app", vec![sub], 0);
        let proc_ref = imax.spawn_program(dom, 0, None);
        let _ = imax.run(500_000);
        assert!(imax.fault_log.iter().any(
            |d| matches!(d, FaultDisposition::Terminated { process, .. } if *process == proc_ref)
        ));
    }
}
