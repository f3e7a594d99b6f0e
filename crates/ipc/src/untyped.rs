//! `package Untyped_Ports` — Figure 1 of the paper.
//!
//! ```text
//! package Untyped_Ports is
//!     function Create_port(
//!         message_count: short_ordinal range 1 .. max_msg_cnt;
//!         port_discipline: q_discipline := FIFO) return port;
//!     procedure Send(prt: port; msg: any_access);
//!     procedure Receive(prt: port; msg: out any_access);
//! private
//!     pragma inline (Send, Receive);
//! end Untyped_Ports;
//! ```
//!
//! `Send` and `Receive` "will correspond to single instructions, while
//! `Create` is software implemented": here `send`/`receive` are `#[inline]`
//! shims over the hardware port operations of `i432-gdp`, and
//! [`create_port`] is the software constructor ("The 432 protection
//! structures guarantee that only this package has the necessary access
//! environment to create port objects") — also exposed to interpreted
//! programs as a native iMAX service via [`register_port_services`].

use i432_arch::{
    AccessDescriptor, NativeId, ObjectRef, ObjectSpec, ObjectType, PortDiscipline, PortState,
    Rights, SpaceAccess, SpaceMut, SysState, SystemType,
};
use i432_gdp::{
    native::{NativeRegistry, NativeReturn},
    port::{self, RecvOutcome, SendOutcome},
    Fault, FaultKind,
};

/// Figure 1's `max_msg_cnt`: the largest message queue a port may have.
pub const MAX_MSG_CNT: u32 = 4096;

/// Default waiting-process capacity for created ports.
pub const DEFAULT_WAIT_CAPACITY: u32 = 64;

/// Figure 1's `port` type: an Ada access to a hardware port object.
///
/// The wrapper is `Copy` and carries the send+receive rights the creator
/// received; restricted views are made with [`Port::send_only`] /
/// [`Port::receive_only`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port {
    ad: AccessDescriptor,
}

impl Port {
    /// Wraps an existing port access descriptor (e.g. one received as a
    /// message).
    pub fn from_ad(ad: AccessDescriptor) -> Port {
        Port { ad }
    }

    /// The underlying access descriptor (`any_access` view).
    #[inline]
    pub fn ad(&self) -> AccessDescriptor {
        self.ad
    }

    /// The port object.
    #[inline]
    pub fn object(&self) -> ObjectRef {
        self.ad.obj
    }

    /// A view that can only send.
    pub fn send_only(&self) -> Port {
        Port {
            ad: self.ad.restricted(Rights::SEND),
        }
    }

    /// A view that can only receive.
    pub fn receive_only(&self) -> Port {
        Port {
            ad: self.ad.restricted(Rights::RECEIVE),
        }
    }
}

/// `Create_port` — software-implemented port construction.
///
/// Allocates the port object (its access part sized for the message area
/// plus the waiting-process area) from `sro` and returns a send+receive
/// capable [`Port`].
pub fn create_port<S: SpaceAccess + ?Sized>(
    space: &mut S,
    sro: ObjectRef,
    message_count: u32,
    discipline: PortDiscipline,
) -> Result<Port, Fault> {
    if message_count == 0 || message_count > MAX_MSG_CNT {
        return Err(Fault::with_detail(
            FaultKind::Bounds,
            format!("message_count {message_count} outside 1..{MAX_MSG_CNT}"),
        ));
    }
    let port = space
        .create_object(
            sro,
            ObjectSpec {
                data_len: 0,
                access_len: PortState::access_slots(message_count, DEFAULT_WAIT_CAPACITY),
                otype: ObjectType::System(SystemType::Port),
                level: None,
                sys: SysState::Port(PortState::new(
                    message_count,
                    DEFAULT_WAIT_CAPACITY,
                    discipline,
                )),
            },
        )
        .map_err(Fault::from)?;
    Ok(Port {
        ad: space.mint(port, Rights::SEND | Rights::RECEIVE),
    })
}

/// `Send` — a single hardware instruction.
///
/// This host-level entry point is non-blocking (only a simulated process
/// can block); a full queue is reported as a [`FaultKind::QueueOverflow`]
/// fault. Processes inside the simulation use the SEND instruction, which
/// blocks exactly as Figure 1 specifies.
#[inline]
pub fn send<S: SpaceMut + ?Sized>(
    space: &mut S,
    prt: Port,
    msg: AccessDescriptor,
) -> Result<(), Fault> {
    match port::send(space, None, prt.ad, msg, 0, false, false)? {
        SendOutcome::Delivered | SendOutcome::Queued => Ok(()),
        SendOutcome::WouldBlock | SendOutcome::Blocked => Err(Fault::with_detail(
            FaultKind::QueueOverflow,
            "host-level send on full port",
        )),
    }
}

/// `Receive` — a single hardware instruction.
///
/// Host-level, non-blocking: an empty queue returns `Ok(None)`.
#[inline]
pub fn receive<S: SpaceMut + ?Sized>(
    space: &mut S,
    prt: Port,
) -> Result<Option<AccessDescriptor>, Fault> {
    match port::receive(space, None, prt.ad, false, false)? {
        RecvOutcome::Received(msg) => Ok(Some(msg)),
        RecvOutcome::WouldBlock => Ok(None),
        RecvOutcome::Blocked => unreachable!("host receive never blocks"),
    }
}

/// Native-service ids installed by [`register_port_services`].
#[derive(Debug, Clone, Copy)]
pub struct PortServiceIds {
    /// `Untyped_Ports.Create_port(message_count, discipline)`.
    ///
    /// Argument object data part: `message_count: u64` at offset 0,
    /// `discipline: u64` at offset 8 (0 = FIFO, 1 = priority,
    /// 2 = deadline). Returns the new port AD.
    pub create_port: NativeId,
}

/// Registers the software-implemented half of `Untyped_Ports` as iMAX
/// native services, callable by interpreted programs through the ordinary
/// CALL instruction.
pub fn register_port_services(natives: &mut NativeRegistry) -> PortServiceIds {
    let create_port_id = natives.register("untyped_ports.create_port", |cx| {
        let arg = cx.arg().ok_or_else(|| {
            Fault::with_detail(
                FaultKind::NullAccess,
                "create_port needs an argument record",
            )
        })?;
        let message_count = cx.space.read_u64(arg, 0).map_err(Fault::from)? as u32;
        let discipline = match cx.space.read_u64(arg, 8).map_err(Fault::from)? {
            0 => PortDiscipline::Fifo,
            1 => PortDiscipline::Priority,
            2 => PortDiscipline::Deadline,
            other => {
                return Err(Fault::with_detail(
                    FaultKind::Bounds,
                    format!("unknown q_discipline {other}"),
                ))
            }
        };
        // Allocate from the calling process's SRO.
        let sro = cx
            .space
            .load_ad_hw(cx.process, i432_arch::sysobj::PROC_SLOT_SRO)
            .map_err(Fault::from)?
            .ok_or_else(|| Fault::with_detail(FaultKind::NullAccess, "process has no SRO"))?;
        // Software construction cost: descriptor build + queue area init.
        cx.charge(200 + 2 * message_count as u64);
        let port = create_port(cx.space, sro.obj, message_count, discipline)?;
        Ok(NativeReturn::ad(port.ad()))
    });
    PortServiceIds {
        create_port: create_port_id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::ShardedSpace;

    fn space() -> ShardedSpace {
        ShardedSpace::new(64 * 1024, 8 * 1024, 1024, 1)
    }

    fn msg(space: &mut ShardedSpace, tag: u64) -> AccessDescriptor {
        let root = space.root_sro();
        let o = space
            .create_object(root, ObjectSpec::generic(16, 0))
            .unwrap();
        let ad = space.mint(o, Rights::READ | Rights::WRITE);
        space.write_u64(ad, 0, tag).unwrap();
        ad
    }

    #[test]
    fn figure1_create_send_receive() {
        let mut s = space();
        let root = s.root_sro();
        let prt = create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let m = msg(&mut s, 7);
        send(&mut s, prt, m).unwrap();
        let got = receive(&mut s, prt).unwrap().unwrap();
        assert_eq!(s.read_u64(got, 0).unwrap(), 7);
        assert_eq!(receive(&mut s, prt).unwrap(), None);
    }

    #[test]
    fn message_count_range_enforced() {
        let mut s = space();
        let root = s.root_sro();
        assert!(create_port(&mut s, root, 0, PortDiscipline::Fifo).is_err());
        assert!(create_port(&mut s, root, MAX_MSG_CNT + 1, PortDiscipline::Fifo).is_err());
    }

    #[test]
    fn full_port_reports_overflow_at_host_level() {
        let mut s = space();
        let root = s.root_sro();
        let prt = create_port(&mut s, root, 1, PortDiscipline::Fifo).unwrap();
        let m1 = msg(&mut s, 1);
        let m2 = msg(&mut s, 2);
        send(&mut s, prt, m1).unwrap();
        let e = send(&mut s, prt, m2).unwrap_err();
        assert_eq!(e.kind, FaultKind::QueueOverflow);
    }

    #[test]
    fn restricted_views_enforce_direction() {
        let mut s = space();
        let root = s.root_sro();
        let prt = create_port(&mut s, root, 2, PortDiscipline::Fifo).unwrap();
        let tx = prt.send_only();
        let rx = prt.receive_only();
        let m = msg(&mut s, 9);
        send(&mut s, tx, m).unwrap();
        // The send-only view cannot receive, and vice versa.
        assert!(receive(&mut s, tx).is_err());
        assert!(send(&mut s, rx, m).is_err());
        assert!(receive(&mut s, rx).unwrap().is_some());
    }

    #[test]
    fn native_create_port_service() {
        use i432_arch::sysobj::PROC_SLOT_SRO;
        let mut s = space();
        let root = s.root_sro();
        let mut natives = NativeRegistry::new();
        let ids = register_port_services(&mut natives);

        // Fake a calling process with an SRO and an argument record.
        let proc_obj = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::PROC_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::Process),
                    level: None,
                    sys: SysState::Process(i432_arch::ProcessState::new(i432_arch::Level(0))),
                },
            )
            .unwrap();
        let sro_ad = s.mint(root, Rights::ALLOCATE);
        s.store_ad_hw(proc_obj, PROC_SLOT_SRO, Some(sro_ad))
            .unwrap();
        let ctx_obj = s.create_object(root, ObjectSpec::generic(0, 8)).unwrap();
        let arg = s.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
        let arg_ad = s.mint(arg, Rights::READ | Rights::WRITE);
        s.write_u64(arg_ad, 0, 8).unwrap(); // message_count
        s.write_u64(arg_ad, 8, 1).unwrap(); // priority discipline
        s.store_ad_hw(ctx_obj, i432_arch::sysobj::CTX_SLOT_ARG, Some(arg_ad))
            .unwrap();

        let mut cx = i432_gdp::NativeCtx {
            space: &mut s,
            process: proc_obj,
            context: ctx_obj,
            cycles: 0,
        };
        let ret = natives.invoke(ids.create_port, &mut cx).unwrap();
        let port_ad = ret.ad.expect("port AD returned");
        assert!(cx.cycles > 0);
        let st = s.port(port_ad.obj).unwrap();
        assert_eq!(st.capacity, 8);
        assert_eq!(st.discipline, PortDiscipline::Priority);
    }
}
