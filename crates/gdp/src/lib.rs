//! # i432-gdp — the iAPX 432 General Data Processor, emulated
//!
//! This crate interprets an architectural-level rendering of the 432
//! instruction set over the capability object model of `i432-arch`. It
//! provides everything the paper attributes to the *hardware* side of the
//! hardware/software boundary:
//!
//! * the instruction set and operand model ([`isa`]), including the
//!   high-level instructions the 432 is famous for — inter-domain CALL and
//!   RETURN ([`context`]), SEND and RECEIVE on port objects ([`port`]),
//!   and CREATE OBJECT against storage resource objects;
//! * implicit **process dispatching**: idle processors receive ready
//!   processes from dispatching ports, bind them, run them for a time
//!   slice, and hand them back to software at faults and scheduling events
//!   ([`process`], [`exec`]);
//! * the **fault taxonomy** mapping architectural violations onto
//!   process-level faults delivered to fault ports ([`fault`]);
//! * a documented, calibrated **cycle cost model** ([`cost`]) anchored to
//!   the paper's two published timings (65 µs domain switch, 80 µs object
//!   allocation, both at 8 MHz);
//! * **native subprogram bodies** ([`native`]) so iMAX services are
//!   invoked through the very same CALL instruction as user code — the
//!   paper's "no difference whatsoever between calling an operating system
//!   subprogram and calling some user-defined subprogram";
//! * the [`interconnect`] trait the multiprocessor simulator uses to model
//!   memory-bus contention.
//!
//! The crate is single-processor at heart: [`exec::Gdp`] advances one
//! processor by one step. `i432-sim` interleaves many of them in simulated
//! time.

#![warn(missing_docs)]

pub mod code;
pub mod context;
pub mod cost;
pub mod dispatch;
pub mod exec;
pub mod fault;
pub mod interconnect;
pub mod isa;
pub mod native;
pub mod port;
pub mod process;
pub mod program;

pub use code::CodeStore;
pub use context::{create_context, destroy_context};
pub use cost::{CostModel, CLOCK_HZ};
pub use dispatch::{analyze, is_linear, BlockCache, InlineCache, Site, IC_LINES};
pub use exec::{Env, Gdp, GdpMode, StepEvent};
pub use fault::{Fault, FaultKind};
pub use interconnect::{Interconnect, NullInterconnect};
pub use isa::{AluOp, DataDst, DataRef, Instruction};
pub use native::{NativeCtx, NativeRegistry, NativeReturn};
pub use program::ProgramBuilder;
