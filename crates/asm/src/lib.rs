//! # swsec-asm — assembler and disassembler for the swsec VM
//!
//! Turns assembly into loadable images and byte images back into
//! listings ([`disassemble`], [`format_listing`]). Two front ends share
//! one back end, [`Assembly::link`]: [`assemble`] parses hand-written
//! text (shellcode in `swsec-attacks`, PMA hosts, tests), while
//! `swsec-minc` builds the [`Assembly`] IR directly and renders its
//! listing from the same items with [`Assembly::render`].
//!
//! ```
//! use swsec_vm::prelude::*;
//!
//! let image = swsec_asm::assemble(
//!     ".org 0x1000\n\
//!      movi r0, 41\n\
//!      addi r0, 1\n\
//!      sys 0\n",
//! )?;
//!
//! let mut m = Machine::new();
//! m.mem_mut().map(image.base, image.bytes.len() as u32, Perm::RX)?;
//! m.mem_mut().poke_bytes(image.base, &image.bytes)?;
//! m.set_ip(image.base);
//! assert_eq!(m.run(10), RunOutcome::Halted(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod asm;
mod disasm;
mod items;

pub use asm::{assemble, AsmError, AsmErrorKind, AsmOutput};
pub use disasm::{disassemble, format_listing, DisasmItem, DisasmLine};
pub use items::{Assembly, Insn, Item, Label, LinkError, LinkErrorKind, Linked, Value};
