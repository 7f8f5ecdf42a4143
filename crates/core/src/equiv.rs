//! The observational-equivalence harness: the paper's security
//! objective, made checkable.
//!
//! *"The compiled system should behave as specified in the source code
//! that it is compiled from (and only as specified in the source
//! code)."*
//!
//! The reference interpreter of `swsec-minc` defines what the source
//! specifies: observable I/O plus the exit code, with memory-safety
//! violations as defined traps. This module runs the same program with
//! the same input both ways and classifies the relationship:
//!
//! * [`Verdict::Equivalent`] — the machine behaved exactly as the
//!   source specifies;
//! * [`Verdict::SafeDivergence`] — the machine stopped early (fault,
//!   defensive trap) without producing any observation the source
//!   cannot produce: a countermeasure or a crash, not a compromise;
//! * [`Verdict::Compromised`] — the machine produced observable
//!   behaviour the source cannot produce. This is the formal definition
//!   of a successful low-level attack;
//! * [`Verdict::Inconclusive`] — a fuel limit was hit.

use std::fmt;

use swsec_defenses::DefenseConfig;
use swsec_minc::ast::Unit;
use swsec_minc::interp::{self, InterpOutcome};
use swsec_minc::CompileError;
use swsec_vm::cpu::RunOutcome;

use crate::loader;

/// Classification of a machine run against the source semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Identical observable behaviour.
    Equivalent,
    /// The machine stopped without out-of-spec observations.
    SafeDivergence {
        /// Why the machine stopped (fault or trap description).
        cause: String,
    },
    /// The machine exhibited behaviour the source cannot produce.
    Compromised {
        /// What was observed that the source cannot produce.
        evidence: String,
    },
    /// Fuel ran out on one side; no judgement.
    Inconclusive,
}

impl Verdict {
    /// Whether this verdict certifies the security objective held.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Equivalent | Verdict::SafeDivergence { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Equivalent => write!(f, "equivalent"),
            Verdict::SafeDivergence { cause } => write!(f, "safe divergence ({cause})"),
            Verdict::Compromised { evidence } => write!(f, "COMPROMISED ({evidence})"),
            Verdict::Inconclusive => write!(f, "inconclusive"),
        }
    }
}

/// Everything observed in one comparison run.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The verdict.
    pub verdict: Verdict,
    /// Reference (source-semantics) observable output.
    pub reference_io: Vec<(u32, Vec<u8>)>,
    /// Machine observable output.
    pub machine_io: Vec<(u32, Vec<u8>)>,
    /// How the reference run ended.
    pub reference_outcome: InterpOutcome,
    /// How the machine run ended.
    pub machine_outcome: RunOutcome,
}

fn io_is_prefix(shorter: &[(u32, Vec<u8>)], longer: &[(u32, Vec<u8>)]) -> bool {
    // Every channel in `shorter` must be a prefix of the same channel in
    // `longer`; `longer` may have more channels/bytes.
    for (fd, bytes) in shorter {
        let other = longer
            .iter()
            .find(|(ofd, _)| ofd == fd)
            .map(|(_, b)| b.as_slice())
            .unwrap_or(&[]);
        if !other.starts_with(bytes) {
            return false;
        }
    }
    true
}

/// Compares a machine run under `config` against the source semantics
/// on the same `input` (fed to channel 0).
///
/// # Errors
///
/// Returns a [`CompileError`] when the program cannot be compiled or
/// loaded.
pub fn compare(
    unit: &Unit,
    input: &[u8],
    config: DefenseConfig,
    seed: u64,
    fuel: u64,
) -> Result<Comparison, CompileError> {
    let reference = interp::run(unit, &[(0, input.to_vec())], fuel);
    let mut session = loader::launch(unit, config, seed)?;
    session.machine.io_mut().feed_input(0, input);
    let machine_outcome = session.run(fuel);
    let machine_io = session.machine.io().observable();

    let verdict = classify(
        &reference.outcome,
        &reference.io,
        &machine_outcome,
        &machine_io,
    );
    Ok(Comparison {
        verdict,
        reference_io: reference.io,
        machine_io,
        reference_outcome: reference.outcome,
        machine_outcome,
    })
}

/// Classifies a machine observation (outcome + observable I/O) against
/// a reference-interpreter observation of the same program and input.
///
/// This is exactly the judgement [`compare`] applies; it is public so
/// harnesses that must run the two sides themselves — e.g. the fuzzer's
/// compiler-conformance target, which attaches a coverage sink to the
/// machine before running — reuse the same semantics instead of
/// approximating them.
pub fn classify_observations(
    ref_outcome: &InterpOutcome,
    ref_io: &[(u32, Vec<u8>)],
    vm_outcome: &RunOutcome,
    vm_io: &[(u32, Vec<u8>)],
) -> Verdict {
    classify(ref_outcome, ref_io, vm_outcome, vm_io)
}

fn classify(
    ref_outcome: &InterpOutcome,
    ref_io: &[(u32, Vec<u8>)],
    vm_outcome: &RunOutcome,
    vm_io: &[(u32, Vec<u8>)],
) -> Verdict {
    if matches!(ref_outcome, InterpOutcome::OutOfFuel)
        || matches!(vm_outcome, RunOutcome::OutOfFuel)
    {
        return Verdict::Inconclusive;
    }
    if matches!(vm_outcome, RunOutcome::Blocked { .. }) {
        // Blocking reads are only used by interactive attack drivers,
        // never by the equivalence harness.
        return Verdict::Inconclusive;
    }
    match (ref_outcome, vm_outcome) {
        (InterpOutcome::Exit(ref_code), RunOutcome::Halted(vm_code)) => {
            if *vm_code == *ref_code as u32 && vm_io == ref_io {
                Verdict::Equivalent
            } else if vm_io == ref_io {
                Verdict::Compromised {
                    evidence: format!(
                        "exit code {vm_code:#x} differs from specified {:#x}",
                        *ref_code as u32
                    ),
                }
            } else {
                Verdict::Compromised {
                    evidence: "output differs from the source specification".into(),
                }
            }
        }
        (InterpOutcome::Exit(_), RunOutcome::Fault(fault)) => {
            if io_is_prefix(vm_io, ref_io) {
                Verdict::SafeDivergence {
                    cause: fault.to_string(),
                }
            } else {
                Verdict::Compromised {
                    evidence: format!("extra output before fault ({fault})"),
                }
            }
        }
        (InterpOutcome::Trap(violation), vm) => {
            // The source traps here; machine behaviour past the trap
            // point is acceptable only while it stays within what was
            // already specified (the output produced before the trap).
            match vm {
                RunOutcome::Halted(_code) => {
                    if io_is_prefix(vm_io, ref_io) {
                        Verdict::SafeDivergence {
                            cause: format!("source traps ({violation}); machine exited quietly"),
                        }
                    } else {
                        Verdict::Compromised {
                            evidence: format!(
                                "machine continued past a source-level trap ({violation}) and produced new output"
                            ),
                        }
                    }
                }
                RunOutcome::Fault(fault) => {
                    if io_is_prefix(vm_io, ref_io) {
                        Verdict::SafeDivergence {
                            cause: format!("{fault} at a source-level trap point"),
                        }
                    } else {
                        Verdict::Compromised {
                            evidence: format!("extra output before fault ({fault})"),
                        }
                    }
                }
                RunOutcome::OutOfFuel | RunOutcome::Blocked { .. } => Verdict::Inconclusive,
            }
        }
        (InterpOutcome::OutOfFuel, _)
        | (_, RunOutcome::OutOfFuel)
        | (_, RunOutcome::Blocked { .. }) => Verdict::Inconclusive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_minc::parse;

    const SAFE_ECHO: &str =
        "void main() { char buf[16]; int n = read(0, buf, 16); write(1, buf, n); }";
    const VULN_ECHO: &str =
        "void main() { char buf[16]; int n = read(0, buf, 64); write(1, buf, 2); }";

    fn verdict(src: &str, input: &[u8], config: DefenseConfig) -> Verdict {
        compare(&parse(src).unwrap(), input, config, 7, 1_000_000)
            .unwrap()
            .verdict
    }

    #[test]
    fn safe_program_is_equivalent() {
        assert_eq!(
            verdict(SAFE_ECHO, b"hello", DefenseConfig::none()),
            Verdict::Equivalent
        );
    }

    #[test]
    fn benign_input_to_vulnerable_program_is_equivalent() {
        assert_eq!(
            verdict(VULN_ECHO, b"hi", DefenseConfig::none()),
            Verdict::Equivalent
        );
    }

    #[test]
    fn overflow_with_output_past_the_trap_point_is_compromised() {
        // 64 junk bytes smash the frame; the machine then *emits output*
        // at a point where the source semantics already trapped — an
        // observable deviation, i.e. a compromise (even though the junk
        // return address crashes shortly after).
        let input = vec![0xEE; 64];
        let v = verdict(VULN_ECHO, &input, DefenseConfig::none());
        assert!(matches!(v, Verdict::Compromised { .. }), "{v}");
    }

    #[test]
    fn silent_overflow_crash_is_safe_divergence() {
        // Same smash against a victim that produces no output after the
        // overflow: the wild return faults without any out-of-spec
        // observation — a crash, not a compromise.
        let quiet = "void main() { char buf[16]; read(0, buf, 64); }";
        let input = vec![0xEE; 64];
        let v = verdict(quiet, &input, DefenseConfig::none());
        assert!(matches!(v, Verdict::SafeDivergence { .. }), "{v}");
    }

    #[test]
    fn exit_code_hijack_is_compromised() {
        // Overflow the return address with the address of the `exit`
        // path… simplest observable hijack: make the machine exit with a
        // code the source cannot produce by smashing the return address
        // to land on `_start`'s exit with r0 = garbage. We emulate the
        // effect deterministically with shellcode-free data: provide a
        // payload that redirects the return into main's `sys exit` with
        // a corrupted r0 (r0 = bytes read = 64, not the source's 0).
        // Rather than hand-crafting here, this behaviour is exercised in
        // the attack-technique tests; what this test pins down is the
        // classifier: a differing exit code is Compromised.
        let v = classify(
            &InterpOutcome::Exit(0),
            &[],
            &RunOutcome::Halted(0x1337),
            &[],
        );
        assert!(matches!(v, Verdict::Compromised { .. }));
    }

    #[test]
    fn extra_output_is_compromised() {
        let v = classify(
            &InterpOutcome::Exit(0),
            &[(1, b"OK".to_vec())],
            &RunOutcome::Halted(0),
            &[(1, b"OK PWNED".to_vec())],
        );
        assert!(matches!(v, Verdict::Compromised { .. }));
    }

    #[test]
    fn prefix_output_before_fault_is_safe() {
        let v = classify(
            &InterpOutcome::Exit(0),
            &[(1, b"hello".to_vec())],
            &RunOutcome::Fault(swsec_vm::cpu::Fault::DivideByZero { ip: 0 }),
            &[(1, b"he".to_vec())],
        );
        assert!(matches!(v, Verdict::SafeDivergence { .. }));
    }

    #[test]
    fn source_trap_with_quiet_machine_is_safe() {
        let v = classify(
            &InterpOutcome::Trap(swsec_minc::SafetyViolation {
                message: "spatial".into(),
            }),
            &[],
            &RunOutcome::Halted(0),
            &[],
        );
        assert!(matches!(v, Verdict::SafeDivergence { .. }));
    }

    #[test]
    fn source_trap_with_new_output_is_compromised() {
        let v = classify(
            &InterpOutcome::Trap(swsec_minc::SafetyViolation {
                message: "spatial".into(),
            }),
            &[],
            &RunOutcome::Halted(0),
            &[(1, b"PWNED".to_vec())],
        );
        assert!(matches!(v, Verdict::Compromised { .. }));
    }

    #[test]
    fn fuel_exhaustion_is_inconclusive() {
        let v = classify(&InterpOutcome::Exit(0), &[], &RunOutcome::OutOfFuel, &[]);
        assert_eq!(v, Verdict::Inconclusive);
    }

    #[test]
    fn holds_semantics() {
        assert!(Verdict::Equivalent.holds());
        assert!(Verdict::SafeDivergence { cause: "x".into() }.holds());
        assert!(!Verdict::Compromised {
            evidence: "x".into()
        }
        .holds());
    }

    #[test]
    fn hardened_run_of_safe_program_stays_equivalent() {
        assert_eq!(
            verdict(SAFE_ECHO, b"hello", DefenseConfig::modern(8)),
            Verdict::Equivalent
        );
    }
}
