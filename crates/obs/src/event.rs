//! The typed security-event vocabulary.
//!
//! Every event the platform can observe about an attacker's execution
//! is one [`SecurityEvent`] — a small `Copy` value carrying raw
//! addresses and codes, never owned data, so emitting one allocates
//! nothing. The taxonomy follows the paper's structure: control-flow
//! observations (the raw material of control-flow-integrity defenses,
//! §III-C/§IV), platform faults (DEP, paging), defensive-check trips
//! (canaries, bounds, temporal checks) and protected-module
//! access-control denials (§IV-A).

use std::fmt;

/// How a control transfer was performed, for [`SecurityEvent::ControlTransfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlKind {
    /// A direct `call`.
    Call,
    /// An indirect `callr` through a register — the interesting kind
    /// for control-flow hijacks.
    CallIndirect,
    /// A `ret` through the (attackable) data stack.
    Ret,
    /// An indirect `jmpr` through a register.
    JmpIndirect,
}

impl ControlKind {
    /// Stable wire name used by the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            ControlKind::Call => "call",
            ControlKind::CallIndirect => "call_indirect",
            ControlKind::Ret => "ret",
            ControlKind::JmpIndirect => "jmp_indirect",
        }
    }

    /// Parses a wire name back into the kind.
    pub fn from_name(name: &str) -> Option<ControlKind> {
        Some(match name {
            "call" => ControlKind::Call,
            "call_indirect" => ControlKind::CallIndirect,
            "ret" => ControlKind::Ret,
            "jmp_indirect" => ControlKind::JmpIndirect,
            _ => return None,
        })
    }
}

/// Why execution faulted, for [`SecurityEvent::Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Access to an unmapped page.
    Unmapped,
    /// A data access denied by page permissions.
    Perm,
    /// An instruction fetch denied by page permissions — how Data
    /// Execution Prevention manifests.
    Dep,
    /// A multi-byte access that faulted mid-word after crossing a page
    /// boundary (earlier bytes were already written).
    Straddle,
    /// Bytes that do not decode to an instruction.
    Decode,
    /// Division or remainder by zero.
    DivZero,
    /// The hardware shadow stack refused a return.
    ShadowStack,
    /// A `sys` instruction with an unknown call number.
    UnknownSyscall,
}

impl FaultKind {
    /// Stable wire name used by the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Unmapped => "unmapped",
            FaultKind::Perm => "perm",
            FaultKind::Dep => "dep",
            FaultKind::Straddle => "straddle",
            FaultKind::Decode => "decode",
            FaultKind::DivZero => "div_zero",
            FaultKind::ShadowStack => "shadow_stack",
            FaultKind::UnknownSyscall => "unknown_syscall",
        }
    }

    /// Parses a wire name back into the kind.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        Some(match name {
            "unmapped" => FaultKind::Unmapped,
            "perm" => FaultKind::Perm,
            "dep" => FaultKind::Dep,
            "straddle" => FaultKind::Straddle,
            "decode" => FaultKind::Decode,
            "div_zero" => FaultKind::DivZero,
            "shadow_stack" => FaultKind::ShadowStack,
            "unknown_syscall" => FaultKind::UnknownSyscall,
            _ => return None,
        })
    }
}

/// Which protected-module access rule was violated, for
/// [`SecurityEvent::PmaViolation`]. Numbering follows the paper's
/// §IV-A statement of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PmaRule {
    /// Rule 1: code outside a module read or wrote module memory.
    OutsideDataAccess,
    /// Rule 2: control entered module code somewhere other than an
    /// entry point.
    BadEntry,
}

impl PmaRule {
    /// The rule number as stated in the paper (1 or 2).
    pub fn number(self) -> u8 {
        match self {
            PmaRule::OutsideDataAccess => 1,
            PmaRule::BadEntry => 2,
        }
    }

    /// The rule for a given paper rule number.
    pub fn from_number(n: u8) -> Option<PmaRule> {
        Some(match n {
            1 => PmaRule::OutsideDataAccess,
            2 => PmaRule::BadEntry,
            _ => return None,
        })
    }
}

/// One observed security event.
///
/// Events are raw platform observations: addresses and codes, exactly
/// what a hardware monitor would see. Interpretation (which experiment,
/// which attack technique) happens downstream in whatever consumed the
/// stream — the events themselves stay small, `Copy` and allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityEvent {
    /// A non-sequential control transfer retired: `call`, `callr`,
    /// `ret` or `jmpr`. Direct jumps are deliberately excluded — they
    /// are static control flow, invisible to an I/O attacker.
    ControlTransfer {
        /// How the transfer was performed.
        kind: ControlKind,
        /// Address of the transferring instruction.
        from: u32,
        /// The transfer target.
        to: u32,
    },
    /// Execution stopped on a platform fault.
    Fault {
        /// Why.
        kind: FaultKind,
        /// Address of the faulting instruction.
        ip: u32,
        /// The address whose access faulted (= `ip` for fetch faults).
        addr: u32,
    },
    /// A stack canary was found corrupted before function return.
    CanaryTrip {
        /// Address of the checking instruction.
        ip: u32,
    },
    /// A protected-module access-control rule fired.
    PmaViolation {
        /// Which rule.
        rule: PmaRule,
        /// The instruction pointer at the time of the access.
        from: u32,
        /// The refused address (data address or fetch target).
        to: u32,
    },
    /// A system call retired.
    Syscall {
        /// The syscall number.
        number: u8,
        /// Address of the `sys` instruction.
        ip: u32,
    },
    /// A compiler-inserted defensive check other than a canary fired
    /// (bounds, function-pointer, assertion, temporal).
    GuardCheck {
        /// The trap code.
        code: u8,
        /// Address of the trap instruction.
        ip: u32,
    },
    /// One instruction retired. Emitted only to sinks that opt in via
    /// [`EventMask::STEP`] — the raw material of the hot-address
    /// profile; far too hot for general-purpose sinks.
    Step {
        /// Address of the retired instruction.
        ip: u32,
    },
    /// A campaign cell failed terminally (panicked past its retry
    /// budget, or exceeded its wall-clock deadline). Emitted by the
    /// campaign runner, not the VM: the harness observing its *own*
    /// failure model, so a fleet dashboard sees misbehaving cells the
    /// same way it sees misbehaving attacker code.
    CellFailed {
        /// The experiment number (e.g. 16 for E16).
        experiment: u8,
        /// The cell index within that experiment.
        cell: u32,
    },
    /// The campaign service dropped a job under load: either shed from
    /// a full queue to admit higher-priority work, or rejected at
    /// submission (queue full, tenant over quota). Emitted by the
    /// service's admission control, not the VM — graceful degradation
    /// made observable, so a dashboard can see *whose* work was
    /// sacrificed and when.
    JobShed {
        /// The shedding tenant's index within its service.
        tenant: u32,
        /// The tenant-local job index that was dropped.
        job: u32,
    },
}

impl SecurityEvent {
    /// Stable wire name of this event's kind, used by the JSONL schema.
    pub fn kind_name(&self) -> &'static str {
        match self {
            SecurityEvent::ControlTransfer { .. } => "control_transfer",
            SecurityEvent::Fault { .. } => "fault",
            SecurityEvent::CanaryTrip { .. } => "canary_trip",
            SecurityEvent::PmaViolation { .. } => "pma_violation",
            SecurityEvent::Syscall { .. } => "syscall",
            SecurityEvent::GuardCheck { .. } => "guard_check",
            SecurityEvent::Step { .. } => "step",
            SecurityEvent::CellFailed { .. } => "cell_failed",
            SecurityEvent::JobShed { .. } => "job_shed",
        }
    }

    /// The bit this event's kind occupies in an [`EventMask`].
    pub fn mask_bit(&self) -> EventMask {
        match self {
            SecurityEvent::ControlTransfer { .. } => EventMask::CONTROL,
            SecurityEvent::Fault { .. } => EventMask::FAULT,
            SecurityEvent::CanaryTrip { .. } => EventMask::CANARY,
            SecurityEvent::PmaViolation { .. } => EventMask::PMA,
            SecurityEvent::Syscall { .. } => EventMask::SYSCALL,
            SecurityEvent::GuardCheck { .. } => EventMask::GUARD,
            SecurityEvent::Step { .. } => EventMask::STEP,
            SecurityEvent::CellFailed { .. } => EventMask::CELL,
            SecurityEvent::JobShed { .. } => EventMask::SHED,
        }
    }
}

impl fmt::Display for SecurityEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityEvent::ControlTransfer { kind, from, to } => {
                write!(f, "{} {from:#010x} -> {to:#010x}", kind.name())
            }
            SecurityEvent::Fault { kind, ip, addr } => {
                write!(
                    f,
                    "fault[{}] at {ip:#010x} (addr {addr:#010x})",
                    kind.name()
                )
            }
            SecurityEvent::CanaryTrip { ip } => write!(f, "canary trip at {ip:#010x}"),
            SecurityEvent::PmaViolation { rule, from, to } => write!(
                f,
                "pma rule {} violation {from:#010x} -> {to:#010x}",
                rule.number()
            ),
            SecurityEvent::Syscall { number, ip } => {
                write!(f, "syscall {number} at {ip:#010x}")
            }
            SecurityEvent::GuardCheck { code, ip } => {
                write!(f, "guard check {code} tripped at {ip:#010x}")
            }
            SecurityEvent::Step { ip } => write!(f, "step {ip:#010x}"),
            SecurityEvent::CellFailed { experiment, cell } => {
                write!(f, "campaign cell E{experiment}/{cell} failed")
            }
            SecurityEvent::JobShed { tenant, job } => {
                write!(f, "serve job {tenant}/{job} shed")
            }
        }
    }
}

/// A bitmask of event kinds a sink wants to receive.
///
/// The emitter queries a sink's interests once, when the sink is
/// attached, and skips the construction *and* delivery of unwanted
/// kinds — so a counting sink that ignores [`SecurityEvent::Step`]
/// costs nothing per retired instruction.
///
/// `u16`-backed: the first eight bits are taken by the original
/// taxonomy and the harness self-observation kinds keep growing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventMask(pub u16);

impl EventMask {
    /// No events at all.
    pub const NONE: EventMask = EventMask(0);
    /// Control transfers (calls, rets, indirect jumps).
    pub const CONTROL: EventMask = EventMask(1);
    /// Platform faults.
    pub const FAULT: EventMask = EventMask(1 << 1);
    /// Canary trips.
    pub const CANARY: EventMask = EventMask(1 << 2);
    /// Protected-module violations.
    pub const PMA: EventMask = EventMask(1 << 3);
    /// System calls.
    pub const SYSCALL: EventMask = EventMask(1 << 4);
    /// Non-canary defensive checks.
    pub const GUARD: EventMask = EventMask(1 << 5);
    /// Per-instruction steps (hot; opt-in only).
    pub const STEP: EventMask = EventMask(1 << 6);
    /// Campaign cell failures (harness self-observation).
    pub const CELL: EventMask = EventMask(1 << 7);
    /// Service jobs shed or rejected under load (harness
    /// self-observation).
    pub const SHED: EventMask = EventMask(1 << 8);
    /// Everything except [`EventMask::STEP`] — the default interest set.
    pub const DEFAULT: EventMask = EventMask(
        EventMask::CONTROL.0
            | EventMask::FAULT.0
            | EventMask::CANARY.0
            | EventMask::PMA.0
            | EventMask::SYSCALL.0
            | EventMask::GUARD.0
            | EventMask::CELL.0
            | EventMask::SHED.0,
    );
    /// Every kind, including per-instruction steps.
    pub const ALL: EventMask = EventMask(EventMask::DEFAULT.0 | EventMask::STEP.0);

    /// Whether every bit of `other` is set in `self`.
    #[inline]
    pub fn contains(self, other: EventMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// The union of two masks.
    pub fn union(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_roundtrip() {
        for k in [
            ControlKind::Call,
            ControlKind::CallIndirect,
            ControlKind::Ret,
            ControlKind::JmpIndirect,
        ] {
            assert_eq!(ControlKind::from_name(k.name()), Some(k));
        }
        for k in [
            FaultKind::Unmapped,
            FaultKind::Perm,
            FaultKind::Dep,
            FaultKind::Straddle,
            FaultKind::Decode,
            FaultKind::DivZero,
            FaultKind::ShadowStack,
            FaultKind::UnknownSyscall,
        ] {
            assert_eq!(FaultKind::from_name(k.name()), Some(k));
        }
        for r in [PmaRule::OutsideDataAccess, PmaRule::BadEntry] {
            assert_eq!(PmaRule::from_number(r.number()), Some(r));
        }
        assert_eq!(ControlKind::from_name("nope"), None);
        assert_eq!(FaultKind::from_name("nope"), None);
        assert_eq!(PmaRule::from_number(9), None);
    }

    #[test]
    fn masks_compose() {
        assert!(EventMask::ALL.contains(EventMask::STEP));
        assert!(!EventMask::DEFAULT.contains(EventMask::STEP));
        assert!(EventMask::DEFAULT.contains(EventMask::CANARY.union(EventMask::PMA)));
        let ev = SecurityEvent::CanaryTrip { ip: 0x1000 };
        assert!(EventMask::DEFAULT.contains(ev.mask_bit()));
        assert_eq!(ev.kind_name(), "canary_trip");
        let shed = SecurityEvent::JobShed { tenant: 0, job: 3 };
        assert!(EventMask::DEFAULT.contains(shed.mask_bit()));
        assert_eq!(shed.kind_name(), "job_shed");
    }

    #[test]
    fn display_is_informative() {
        let ev = SecurityEvent::PmaViolation {
            rule: PmaRule::BadEntry,
            from: 0x1000,
            to: 0x2004,
        };
        let s = ev.to_string();
        assert!(s.contains("rule 2"));
        assert!(s.contains("0x00002004"));
    }
}
