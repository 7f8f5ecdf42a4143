//! # swsec-minc — a miniature C compiler for the swsec VM
//!
//! MinC is a small C dialect rich enough to express every program in
//! Piessens & Verbauwhede (DATE 2016) — the Figure 1 network server,
//! the Figure 2/4 secret modules — together with the compiler and
//! *reference semantics* the paper's security objective is stated in
//! terms of:
//!
//! * [`parse`] / [`sema`] — front end (deliberately permissive, like C:
//!   an out-of-bounds `read` into a stack buffer is well-typed);
//! * [`compile`] — code generation with the paper's exact frame layout
//!   (saved return address above the saved base pointer above the
//!   locals), plus opt-in hardening passes: stack canaries, software
//!   bounds checks, defensive function-pointer checks and register
//!   scrubbing for protected modules ([`HardenOptions`]);
//! * [`interp`] — the reference interpreter giving *safe* source-level
//!   semantics where every spatial or temporal violation is a defined
//!   trap. "The compiled program behaves as specified in the source" is
//!   checked by comparing VM runs against this interpreter.
//!
//! ## Example
//!
//! ```
//! use swsec_minc::{compile, parse, CompileOptions};
//! use swsec_vm::prelude::*;
//!
//! let unit = parse(
//!     "void main() { char buf[8]; int n = read(0, buf, 8); write(1, buf, n); }",
//! )?;
//! let program = compile(&unit, &CompileOptions::default())?;
//! let mut m = Machine::new();
//! program.load(&mut m)?;
//! m.io_mut().feed_input(0, b"ping");
//! assert_eq!(m.run(100_000), RunOutcome::Halted(0));
//! assert_eq!(m.io().output(1), b"ping");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod sema;
pub mod token;

pub use ast::Unit as Program;
pub use codegen::{
    compile, CompileError, CompileOptions, CompiledProgram, FrameLayout, FrameSlot, GlobalSlot,
    HardenOptions, LayoutConfig, Listing,
};
pub use interp::{InterpOutcome, InterpResult, SafetyViolation};
pub use parser::{parse, ParseError};
pub use sema::SemaError;
