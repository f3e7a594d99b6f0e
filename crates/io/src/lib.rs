//! # imax-io — device-independent I/O
//!
//! Paper §6.3: "A single specification is defined for device independent
//! input and another for device independent output. Each instance of an
//! I/O device may have a distinct implementation. The user interacts with
//! each device identically but the code is specific to the device. This
//! is really a different approach from conventional device independent
//! I/O because it avoids any centralized I/O control or interface. Any
//! user can create a new device implementation which will behave
//! identically to existing ones without in any way altering system code,
//! say to update a master I/O device list or to add a new element to a
//! case construct in the system I/O controller."
//!
//! The structure here mirrors that exactly:
//!
//! * [`iface`] defines the *specification*: fixed subprogram indices for
//!   the device-independent operations (open/close/read/write/status).
//!   "We actually go one step further ... by requiring only that a
//!   device implementation provide the common device independent
//!   interface as a subset" — device-specific operations occupy indices
//!   after the common ones. [`iface::perform`] is the one decoder of
//!   those indices and [`iface::op_cost`] the one cost table.
//! * Each device is a **package instance** of a [`family`]: a domain
//!   whose shared native bodies find the calling instance's device
//!   through the domain's state. There is no device table anywhere;
//!   holding the domain's access descriptor *is* having the device.
//! * Asynchronous devices complete through [`virtio`]'s device — the
//!   filing server's block store, and every device attached to an
//!   [`iop`] subsystem behind its request port.
//! * [`console`], [`tape`], [`disk`] are three unrelated implementations
//!   of the same specification; [`tape`] adds the paper's §8.2 example —
//!   a drive pool managed by a type manager with a destruction filter, so
//!   lost drives are recovered rather than leaked.

#![warn(missing_docs)]

pub mod console;
pub mod disk;
pub mod family;
pub mod iface;
pub mod iop;
pub mod tape;
pub mod virtio;

pub use console::ConsoleDevice;
pub use disk::RamDisk;
pub use family::DeviceFamily;
pub use iface::{
    install_device, DeviceError, DeviceHandle, DeviceImpl, DeviceStatus, OP_CLOSE, OP_CONTROL_BASE,
    OP_OPEN, OP_READ, OP_STATUS, OP_WRITE,
};
pub use iop::IoSubsystem;
pub use tape::{TapeDrive, TapePool};
pub use virtio::{QueueRefusal, VirtQueue, VirtioBlock, VirtioDevice, VirtioModel, VirtioStats};
