//! # swsec-vm — the execution platform of the swsec laboratory
//!
//! A 32-bit little-endian von Neumann virtual machine modelled on the
//! platform described in Section II of Piessens & Verbauwhede,
//! *Software Security: Vulnerabilities and Countermeasures for Two
//! Attacker Models* (DATE 2016):
//!
//! * a single 2³²-byte virtual address space holding code, data and the
//!   call stack ([`mem`]);
//! * 32-bit registers including a stack pointer and base pointer, with a
//!   downward-growing stack whose activation records hold saved base
//!   pointers and **return addresses** ([`cpu`]);
//! * a variable-length instruction set in which data and code are just
//!   bytes ([`isa`]);
//! * I/O channels as the program's only interface to the outside world
//!   ([`io`]) — the I/O attacker's entire surface;
//! * optional platform protections: page permissions / DEP ([`mem`]),
//!   a hardware shadow stack ([`cpu`]), and protected-module memory
//!   access control ([`policy`]).
//!
//! The machine is intentionally *attackable*: with protections switched
//! off it faithfully reproduces the platform weaknesses every classic
//! low-level attack relies on.
//!
//! ## Example
//!
//! ```
//! use swsec_vm::prelude::*;
//!
//! let mut code = Vec::new();
//! Instr::MovI { dst: Reg::R0, imm: 7 }.encode(&mut code);
//! Instr::Sys(swsec_vm::isa::sys::EXIT).encode(&mut code);
//!
//! let mut m = Machine::new();
//! m.mem_mut().map(0x1000, 0x1000, Perm::RX)?;
//! m.mem_mut().poke_bytes(0x1000, &code)?;
//! m.set_ip(0x1000);
//! assert_eq!(m.run(10), RunOutcome::Halted(7));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod arch;
pub mod context;
pub mod cpu;
pub mod io;
pub mod isa;
pub mod mem;
pub mod policy;
pub mod profile;
pub mod tier;
pub mod trace;

pub use context::{Engine, VmConfig};

/// The names almost every user of this crate needs.
pub mod prelude {
    pub use crate::arch::{ArchDiff, ArchState};
    pub use crate::cpu::{Fault, Machine, MachineSnapshot, RunOutcome, StepResult};
    pub use crate::io::IoBus;
    pub use crate::isa::{Instr, Reg};
    pub use crate::mem::{Access, Memory, Perm, RestoreStats};
    pub use crate::policy::{ProtectedRegion, ProtectionMap, ReentryPolicy};
}
