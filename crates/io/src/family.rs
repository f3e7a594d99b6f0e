//! Device families: one implementation, many package instances.
//!
//! Paper §6.3: "The major extension is the raising of packages to the
//! status of types. This allows multiple instances of a module to be
//! dynamically created..." — and crucially the instances *share one
//! implementation*: same subprogram bodies, per-instance state.
//!
//! [`DeviceFamily`] registers the device operations **once**; every
//! instance is a fresh domain (minted through
//! [`imax_typemgr::PackagePrototype`]) whose state slot holds that
//! instance's unit-number object. When a shared native body runs, it
//! recovers *which* instance was called from its own context's domain
//! linkage — the very addressing environment CALL set up — and drives
//! that unit through [`crate::iface::perform`]. No registry consulted,
//! no code duplicated: every operation of every instance runs one body,
//! and [`crate::install_device`] is a family of one.

use crate::iface::{
    op_cost, perform, DeviceImpl, ARG_DATA_OFF, ARG_LEN_OFF, OP_CLOSE, OP_CONTROL_BASE, OP_OPEN,
    OP_READ, OP_STATUS, OP_WRITE,
};
use i432_arch::{
    sysobj::CTX_SLOT_DOMAIN, AccessDescriptor, ArchError, CodeBody, ObjectSpec, Rights, Subprogram,
};
use i432_gdp::{native::NativeReturn, Fault, FaultKind, NativeCtx};
use i432_sim::System;
use imax_typemgr::PackagePrototype;
use parking_lot::Mutex;
use std::sync::Arc;

/// The shared pool of unit implementations behind one family.
type Units = Arc<Mutex<Vec<Arc<Mutex<dyn DeviceImpl>>>>>;

/// A family of device package instances sharing one implementation.
pub struct DeviceFamily {
    units: Units,
    prototype: PackagePrototype,
}

/// Reads the calling instance's unit number: context → domain → state
/// slot 0 → unit object's first word.
fn unit_of(cx: &mut NativeCtx<'_>) -> Result<usize, Fault> {
    let domain = cx
        .space
        .load_ad_hw(cx.context, CTX_SLOT_DOMAIN)
        .map_err(Fault::from)?
        .ok_or_else(|| Fault::with_detail(FaultKind::NullAccess, "context has no domain"))?;
    let state = cx
        .space
        .load_ad_hw(domain.obj, FAMILY_STATE_SLOT)
        .map_err(Fault::from)?
        .ok_or_else(|| {
            Fault::with_detail(FaultKind::NullAccess, "device instance has no state object")
        })?;
    let state = AccessDescriptor::new(state.obj, Rights::READ);
    Ok(cx.space.read_u64(state, 0).map_err(Fault::from)? as usize)
}

/// The subprogram name of operation `op` (`open` .. `status`,
/// `control{k}`).
fn op_name(op: u32) -> String {
    match op {
        OP_OPEN => "open".into(),
        OP_CLOSE => "close".into(),
        OP_READ => "read".into(),
        OP_WRITE => "write".into(),
        OP_STATUS => "status".into(),
        control => format!("control{}", control - OP_CONTROL_BASE),
    }
}

/// The transfer length a read or write argument record asks for. A
/// length that overruns the record's data area is refused with the
/// bounds fault the transfer itself would raise, before anything is
/// allocated for it or the device sees it.
fn transfer_len(cx: &mut NativeCtx<'_>, arg: AccessDescriptor) -> Result<usize, Fault> {
    let len = cx.space.read_u64(arg, ARG_LEN_OFF).map_err(Fault::from)?;
    let part_len = cx.space.entry(arg.obj).map_err(Fault::from)?.desc.data_len;
    if len > u64::from(part_len.saturating_sub(ARG_DATA_OFF)) {
        return Err(Fault::from(ArchError::DataBounds {
            offset: ARG_DATA_OFF,
            len: u32::try_from(len).unwrap_or(u32::MAX),
            part_len,
        }));
    }
    Ok(len as usize)
}

/// The body every operation of every instance runs: decodes the
/// argument record, [`perform`]s `op` on the calling instance's unit, and
/// charges [`op_cost`]. Read and write move data between the device and
/// the record's data area; a control operation takes its argument from
/// the record's first word.
fn call_op(cx: &mut NativeCtx<'_>, units: &Units, op: u32) -> Result<NativeReturn, Fault> {
    let k = unit_of(cx)?;
    let dev = units.lock()[k].clone();
    let arg = cx.arg();
    let mut aux = 0;
    let mut buf = Vec::new();
    match (op, arg) {
        (OP_READ | OP_WRITE, None) => {
            return Err(Fault::with_detail(
                FaultKind::NullAccess,
                "read and write need an argument record",
            ))
        }
        (OP_READ | OP_WRITE, Some(arg)) => {
            buf = vec![0u8; transfer_len(cx, arg)?];
            if op == OP_WRITE {
                cx.space
                    .read_data(arg, ARG_DATA_OFF, &mut buf)
                    .map_err(Fault::from)?;
            }
        }
        (control, Some(arg)) if control >= OP_CONTROL_BASE => {
            aux = cx.space.read_u64(arg, ARG_LEN_OFF).unwrap_or(0);
        }
        _ => {}
    }
    let (count, cpb) = {
        let mut dev = dev.lock();
        let count = perform(&mut *dev, op, aux, &mut buf)?;
        (count, dev.cycles_per_byte())
    };
    if let (OP_READ, Some(arg)) = (op, arg) {
        cx.space
            .write_data(arg, ARG_DATA_OFF, &buf[..count as usize])
            .map_err(Fault::from)?;
    }
    cx.charge(op_cost(op, count, cpb));
    Ok(NativeReturn::value(count))
}

impl DeviceFamily {
    /// Builds the family: registers one shared body per operation — the
    /// five common ones and `control_ops` device-specific ones — and
    /// prepares the prototype. `family_name` labels the instances.
    pub fn new(sys: &mut System, family_name: &str, control_ops: u32) -> DeviceFamily {
        let units: Units = Arc::new(Mutex::new(Vec::new()));
        let subs = (0..OP_CONTROL_BASE + control_ops)
            .map(|op| {
                let name = format!("{family_name}.{}", op_name(op));
                let u = Arc::clone(&units);
                let id = sys
                    .natives
                    .register(name.clone(), move |cx| call_op(cx, &u, op));
                Subprogram {
                    name,
                    body: CodeBody::Native(id),
                    ctx_data_len: 32,
                    ctx_access_len: 8,
                }
            })
            .collect();
        DeviceFamily {
            units,
            prototype: PackagePrototype::new(family_name, subs, 2),
        }
    }

    /// Number of instances minted so far.
    pub fn instance_count(&self) -> u32 {
        self.prototype.instance_count()
    }

    /// Mints a new package instance bound to `device`: a fresh domain
    /// whose state slot 0 holds this instance's unit-number object.
    /// Returns the call-rights descriptor clients hold.
    pub fn instantiate(
        &mut self,
        sys: &mut System,
        device: Arc<Mutex<dyn DeviceImpl>>,
    ) -> Result<AccessDescriptor, Fault> {
        let unit = {
            let mut units = self.units.lock();
            units.push(device);
            units.len() - 1
        };
        let root = sys.space.root_sro();
        let state = sys
            .space
            .create_object(root, ObjectSpec::generic(8, 0))
            .map_err(Fault::from)?;
        let state_ad = sys.space.mint(state, Rights::READ | Rights::WRITE);
        sys.space
            .write_u64(state_ad, 0, unit as u64)
            .map_err(Fault::from)?;
        let dom = self
            .prototype
            .instantiate_with_state(&mut sys.space, root, &[state_ad])?;
        sys.anchor(dom);
        Ok(dom)
    }

    /// Direct host-side access to a unit (diagnostics).
    pub fn unit(&self, k: usize) -> Option<Arc<Mutex<dyn DeviceImpl>>> {
        self.units.lock().get(k).cloned()
    }
}

/// The state object an instance's domain holds in slot 0 (unit number);
/// re-exported layout constant for inspectors.
pub const FAMILY_STATE_SLOT: u32 = 0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::console::ConsoleDevice;
    use i432_arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_SRO};
    use i432_gdp::isa::{DataDst, DataRef};
    use i432_gdp::ProgramBuilder;
    use i432_sim::{RunOutcome, SystemConfig};

    #[test]
    fn instances_share_code_but_not_state() {
        let mut sys = System::new(&SystemConfig::small());
        let mut family = DeviceFamily::new(&mut sys, "console", 0);
        let tty0 = Arc::new(Mutex::new(ConsoleDevice::new("tty0", b"")));
        let tty1 = Arc::new(Mutex::new(ConsoleDevice::new("tty1", b"")));
        let dom0 = family.instantiate(&mut sys, tty0.clone()).unwrap();
        let dom1 = family.instantiate(&mut sys, tty1.clone()).unwrap();
        assert_eq!(family.instance_count(), 2);
        assert_ne!(dom0.obj, dom1.obj, "distinct domains");

        // One program, run once against each instance: writes its own
        // marker byte.
        let writer = |marker: u8| {
            let mut p = ProgramBuilder::new();
            p.call(CTX_SLOT_ARG as u16, OP_OPEN, None, None, None);
            p.create_object(CTX_SLOT_SRO as u16, DataRef::Imm(24), DataRef::Imm(0), 5);
            p.mov(DataRef::Imm(1), DataDst::Field(5, ARG_LEN_OFF));
            p.mov(DataRef::Imm(marker as u64), DataDst::Field(5, ARG_DATA_OFF));
            p.call(CTX_SLOT_ARG as u16, OP_WRITE, Some(5), None, None);
            p.halt();
            p.finish()
        };
        let s0 = sys.subprogram("w0", writer(b'x'), 64, 12);
        let s1 = sys.subprogram("w1", writer(b'y'), 64, 12);
        let app = sys.install_domain("app", vec![s0, s1], 0);
        let p0 = sys.spawn(app, 0, Some(dom0));
        let p1 = sys.spawn(app, 1, Some(dom1));
        let outcome = sys.run_to_completion(5_000_000);
        assert_eq!(outcome, RunOutcome::Stopped);
        for p in [p0, p1] {
            assert_eq!(
                sys.space.process(p).unwrap().fault_code,
                0,
                "{}",
                sys.space.process(p).unwrap().fault_detail
            );
        }
        assert_eq!(tty0.lock().transcript(), b"x");
        assert_eq!(tty1.lock().transcript(), b"y");
    }

    #[test]
    fn family_grows_dynamically() {
        // "multiple instances of a module to be dynamically created":
        // instances can be minted while the system is live.
        let mut sys = System::new(&SystemConfig::small());
        let mut family = DeviceFamily::new(&mut sys, "console", 0);
        for i in 0..5 {
            let dev = Arc::new(Mutex::new(ConsoleDevice::new(format!("tty{i}"), b"")));
            family.instantiate(&mut sys, dev).unwrap();
        }
        assert_eq!(family.instance_count(), 5);
        assert!(family.unit(4).is_some());
        assert!(family.unit(5).is_none());
    }
}
