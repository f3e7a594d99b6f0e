//! The device-independent interface specification.
//!
//! A device is a *domain* whose first subprograms implement the common
//! specification at fixed indices ([`OP_OPEN`] .. [`OP_STATUS`]); any
//! further subprograms ([`OP_CONTROL_BASE`] + k) are device- or
//! class-specific extensions. A program holding any device's domain AD
//! can drive it through the common subset without knowing what it is —
//! and there is deliberately no registry mapping names to devices.

use crate::family::DeviceFamily;
use i432_arch::AccessDescriptor;
use i432_gdp::{Fault, FaultKind};
use i432_sim::System;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Subprogram index of `Open`.
pub const OP_OPEN: u32 = 0;
/// Subprogram index of `Close`.
pub const OP_CLOSE: u32 = 1;
/// Subprogram index of `Read`.
pub const OP_READ: u32 = 2;
/// Subprogram index of `Write`.
pub const OP_WRITE: u32 = 3;
/// Subprogram index of `Status`.
pub const OP_STATUS: u32 = 4;
/// First device-specific subprogram index.
pub const OP_CONTROL_BASE: u32 = 5;

/// Byte offset of the length field in a read/write argument record.
pub const ARG_LEN_OFF: u32 = 0;
/// Byte offset of the auxiliary field (seek position etc.).
pub const ARG_AUX_OFF: u32 = 8;
/// Byte offset where transfer data begins.
pub const ARG_DATA_OFF: u32 = 16;

/// Device-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The device is not open.
    NotOpen,
    /// The device is already open.
    AlreadyOpen,
    /// Transfer beyond the end of the medium.
    EndOfMedium,
    /// The operation is not supported by this device.
    Unsupported,
    /// Device-specific failure.
    Failed(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::NotOpen => write!(f, "device not open"),
            DeviceError::AlreadyOpen => write!(f, "device already open"),
            DeviceError::EndOfMedium => write!(f, "end of medium"),
            DeviceError::Unsupported => write!(f, "operation unsupported"),
            DeviceError::Failed(s) => write!(f, "device failure: {s}"),
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<DeviceError> for Fault {
    fn from(e: DeviceError) -> Fault {
        Fault::with_detail(FaultKind::Explicit(0x10), e.to_string())
    }
}

/// Snapshot of a device's condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceStatus {
    /// Device is operational.
    pub ready: bool,
    /// Device is open.
    pub open: bool,
    /// Last error code (0 = none).
    pub error: u16,
    /// Medium position (device-defined units).
    pub position: u64,
}

impl DeviceStatus {
    /// Packs the status into the scalar returned by `Status`.
    pub fn pack(self) -> u64 {
        (self.ready as u64)
            | (self.open as u64) << 1
            | (self.error as u64) << 16
            | self.position << 32
    }

    /// Unpacks a scalar produced by [`DeviceStatus::pack`].
    pub fn unpack(v: u64) -> DeviceStatus {
        DeviceStatus {
            ready: v & 1 != 0,
            open: v & 2 != 0,
            error: (v >> 16) as u16,
            position: v >> 32,
        }
    }
}

/// One device implementation: the body behind a device package instance.
pub trait DeviceImpl: Send {
    /// Device name (diagnostics only — never used for lookup).
    fn name(&self) -> &str;
    /// Opens the device.
    fn open(&mut self) -> Result<(), DeviceError>;
    /// Closes the device.
    fn close(&mut self) -> Result<(), DeviceError>;
    /// Reads up to `buf.len()` bytes; returns the count.
    fn read(&mut self, buf: &mut [u8]) -> Result<usize, DeviceError>;
    /// Writes `buf`; returns the count accepted.
    fn write(&mut self, buf: &[u8]) -> Result<usize, DeviceError>;
    /// Current status.
    fn status(&self) -> DeviceStatus;
    /// Device-specific operation `op` (0-based beyond the common set).
    fn control(&mut self, _op: u32, _arg: u64) -> Result<u64, DeviceError> {
        Err(DeviceError::Unsupported)
    }
    /// Number of device-specific operations (for building the domain).
    fn control_ops(&self) -> u32 {
        0
    }
    /// Simulated cycles one transferred byte costs on this device.
    fn cycles_per_byte(&self) -> u64 {
        4
    }
}

/// A handle pairing the shared implementation (host-side access) with
/// the device's domain descriptor (program-side access).
#[derive(Clone)]
pub struct DeviceHandle {
    /// The device's domain: what programs hold and CALL through.
    pub domain: AccessDescriptor,
    /// The implementation, shared with the domain's native bodies.
    pub device: Arc<Mutex<dyn DeviceImpl>>,
}

impl fmt::Debug for DeviceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceHandle")
            .field("domain", &self.domain)
            .field("device", &self.device.lock().name())
            .finish()
    }
}

/// Performs §6.3 operation `op` on `dev`: the one decoder behind every
/// device path, a package instance's natives ([`crate::family`]) and an
/// attached I/O subsystem ([`crate::iop`]) alike. `op` is the subprogram
/// index, [`OP_OPEN`] .. [`OP_STATUS`] or [`OP_CONTROL_BASE`] + k; `aux`
/// is a control operation's argument and `data` a transfer's buffer.
/// Returns the count: bytes moved, the packed status, or the control
/// result.
pub fn perform(
    dev: &mut dyn DeviceImpl,
    op: u32,
    aux: u64,
    data: &mut [u8],
) -> Result<u64, DeviceError> {
    match op {
        OP_OPEN => dev.open().map(|()| 0),
        OP_CLOSE => dev.close().map(|()| 0),
        OP_READ => dev.read(data).map(|n| n as u64),
        OP_WRITE => dev.write(data).map(|n| n as u64),
        OP_STATUS => Ok(dev.status().pack()),
        control => dev.control(control - OP_CONTROL_BASE, aux),
    }
}

/// Simulated cycles operation `op` costs when it moves `bytes` bytes on a
/// device charging `cycles_per_byte` per byte: the one cost table.
pub fn op_cost(op: u32, bytes: u64, cycles_per_byte: u64) -> u64 {
    match op {
        OP_READ | OP_WRITE => 80 + bytes * cycles_per_byte,
        OP_STATUS => 30,
        // Open, close and the control operations.
        _ => 60,
    }
}

/// Installs a device as a package instance: a [`DeviceFamily`] of one,
/// whose domain has a subprogram per common operation plus one per
/// [`DeviceImpl::control_ops`]. No registry is touched — the caller
/// receives the only access.
pub fn install_device(sys: &mut System, device: Arc<Mutex<dyn DeviceImpl>>) -> DeviceHandle {
    let (name, control_ops) = {
        let dev = device.lock();
        (dev.name().to_string(), dev.control_ops())
    };
    let domain = DeviceFamily::new(sys, &name, control_ops)
        .instantiate(sys, Arc::clone(&device))
        .expect("device package instance");
    DeviceHandle { domain, device }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_pack_roundtrip() {
        let s = DeviceStatus {
            ready: true,
            open: false,
            error: 7,
            position: 123456,
        };
        assert_eq!(DeviceStatus::unpack(s.pack()), s);
        let s2 = DeviceStatus {
            ready: false,
            open: true,
            error: 0,
            position: 0,
        };
        assert_eq!(DeviceStatus::unpack(s2.pack()), s2);
    }

    #[test]
    fn device_error_to_fault() {
        let f: Fault = DeviceError::NotOpen.into();
        assert_eq!(f.kind, FaultKind::Explicit(0x10));
        assert!(f.detail.contains("not open"));
    }
}
