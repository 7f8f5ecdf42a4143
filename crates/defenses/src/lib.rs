//! # swsec-defenses — the countermeasure toolbox of §III-C
//!
//! Two families, exactly as the paper divides them:
//!
//! * **countering exploitation** — [`config`] describes deployable
//!   stacks of stack canaries, DEP, ASLR ([`aslr`]) and hardware shadow
//!   stacks, applied by the loader in the `swsec` core crate;
//! * **countering introduction** — [`analyzer`] is a static
//!   source-code analyzer with the precision/recall trade-off of real
//!   tools, and [`runtime_check`] packages test-time run-time checking
//!   (detects every *triggered* violation, costs instruction overhead).
//!
//! ```
//! use swsec_defenses::analyzer::{analyze, Precision};
//! use swsec_minc::parse;
//!
//! let unit = parse("void f(int fd) { char b[8]; read(fd, b, 16); }")?;
//! assert_eq!(analyze(&unit, Precision::Precise).len(), 1);
//! # Ok::<(), swsec_minc::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod analyzer;
pub mod aslr;
pub mod config;
pub mod runtime_check;

pub use analyzer::{analyze, Finding, FindingKind, Precision};
pub use aslr::AslrConfig;
pub use config::DefenseConfig;
pub use runtime_check::{
    check_with_tests, measure_overhead, measure_overheads, CheckReport, CheckedRun, Overhead,
};
