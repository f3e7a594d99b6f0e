//! One-stop imports for application code.
//!
//! ```
//! use imax::prelude::*;
//!
//! let mut os = Imax::boot(&ImaxConfig::embedded());
//! let root = os.sys.space.root_sro();
//! let port = create_port(&mut os.sys.space, root, 4, PortDiscipline::Fifo).unwrap();
//! let mut p = ProgramBuilder::new();
//! p.work(10);
//! p.halt();
//! let sub = os.sys.subprogram("noop", p.finish(), 32, 8);
//! let dom = os.sys.install_domain("app", vec![sub], 0);
//! os.spawn_program(dom, 0, Some(port.ad()));
//! assert!(matches!(
//!     os.run(100_000),
//!     RunOutcome::Stopped | RunOutcome::Quiescent
//! ));
//! ```

pub use crate::{
    activate, passivate, FaultDisposition, GcChoice, Imax, ImaxConfig, PassiveStore,
    SchedulingChoice, StorageChoice, SysLevel,
};
pub use i432_arch::{
    AccessDescriptor, Level, ObjectRef, ObjectSpec, PortDiscipline, ProcessStatus, Rights,
};
pub use i432_gdp::{
    isa::{AluOp, DataDst, DataRef, Instruction},
    process::ProcessSpec,
    Fault, FaultKind, ProgramBuilder, StepEvent,
};
pub use i432_sim::{RunOutcome, System, SystemConfig};
pub use imax_gc::Collector;
pub use imax_ipc::{create_port, CheckedPort, Port, PortMessage, TypedPort};
pub use imax_storage::{SroQuota, StorageManager};
pub use imax_typemgr::TypeManager;
