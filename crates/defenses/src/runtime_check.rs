//! Test-time run-time checking (§III-C2).
//!
//! "Testing for the presence of memory safety vulnerabilities is made
//! significantly more effective with the use of run-time checks …
//! while such run-time checks often impose a performance overhead that
//! is unacceptable in production systems, this overhead can be
//! acceptable during testing."
//!
//! This module packages that workflow: compile a program twice — plain,
//! and with the software-bounds-check instrumentation — run both over a
//! test suite, and report (a) which tests the instrumented build flags
//! as memory-safety violations and (b) the instruction-count overhead
//! the instrumentation costs.

use swsec_minc::ast::Unit;
use swsec_minc::{compile, CompileError, CompileOptions};
use swsec_vm::cpu::{Fault, Machine, RunOutcome};
use swsec_vm::isa::trap;

/// Result of one instrumented test execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckedRun {
    /// The run completed without tripping a check.
    Clean {
        /// Exit code of the program.
        exit_code: u32,
    },
    /// A memory-safety check fired.
    Violation {
        /// The trap code ([`trap::BOUNDS`], [`trap::CANARY`], …).
        trap_code: u8,
    },
    /// The run faulted for another reason (wild pointer into unmapped
    /// memory — also a detection, at lower fidelity).
    Fault,
    /// The run exceeded its budget.
    Timeout,
}

/// Aggregate result of checking a program over a test suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Per-test outcomes, in input order.
    pub runs: Vec<CheckedRun>,
}

impl CheckReport {
    /// Whether any test detected a memory-safety violation.
    pub fn detected(&self) -> bool {
        self.runs
            .iter()
            .any(|r| matches!(r, CheckedRun::Violation { .. }))
    }

    /// Number of tests that flagged a violation.
    pub fn violations(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| matches!(r, CheckedRun::Violation { .. }))
            .count()
    }
}

fn run_one(
    unit: &Unit,
    opts: &CompileOptions,
    input: &[u8],
    fuel: u64,
) -> Result<(RunOutcome, u64), CompileError> {
    let prog = compile(unit, opts)?;
    let mut m = Machine::new();
    prog.load(&mut m)?;
    if prog.canary_addr.is_some() {
        prog.install_canary(&mut m, 0x5157_4b3d)?;
    }
    m.io_mut().feed_input(0, input);
    let outcome = m.run(fuel);
    Ok((outcome, m.stats().instructions))
}

/// Runs `unit` compiled with bounds checks and canaries over each test
/// input, classifying every run.
///
/// # Errors
///
/// Returns a [`CompileError`] if the program does not compile.
pub fn check_with_tests(
    unit: &Unit,
    tests: &[Vec<u8>],
    fuel: u64,
) -> Result<CheckReport, CompileError> {
    let mut opts = CompileOptions::default();
    opts.harden.bounds_checks = true;
    opts.harden.stack_canary = true;
    let mut runs = Vec::with_capacity(tests.len());
    for input in tests {
        let (outcome, _) = run_one(unit, &opts, input, fuel)?;
        let run = match outcome {
            RunOutcome::Halted(code) => CheckedRun::Clean { exit_code: code },
            RunOutcome::Fault(Fault::SoftwareTrap { code, .. })
                if code == trap::BOUNDS || code == trap::CANARY || code == trap::TEMPORAL =>
            {
                CheckedRun::Violation { trap_code: code }
            }
            RunOutcome::Fault(_) => CheckedRun::Fault,
            RunOutcome::OutOfFuel | RunOutcome::Blocked { .. } => CheckedRun::Timeout,
        };
        runs.push(run);
    }
    Ok(CheckReport { runs })
}

/// Instruction counts for the same run with and without memory-safety
/// instrumentation — the §III-C2 overhead, measured deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overhead {
    /// Instructions executed by the plain build.
    pub baseline: u64,
    /// Instructions executed by the instrumented build.
    pub instrumented: u64,
}

impl Overhead {
    /// Relative overhead, e.g. `0.35` for 35 % more instructions.
    pub fn relative(&self) -> f64 {
        if self.baseline == 0 {
            return 0.0;
        }
        self.instrumented as f64 / self.baseline as f64 - 1.0
    }
}

/// Measures the instruction-count overhead of a hardening configuration
/// on one (program, input) pair. Both builds must run to completion.
///
/// # Errors
///
/// Returns a [`CompileError`] when compilation fails or either build
/// does not halt cleanly.
pub fn measure_overhead(
    unit: &Unit,
    harden: swsec_minc::HardenOptions,
    input: &[u8],
    fuel: u64,
) -> Result<Overhead, CompileError> {
    Ok(measure_overheads(unit, &[harden], input, fuel)?[0])
}

/// [`measure_overhead`] for several hardening configurations against
/// one shared baseline: the plain build is compiled and run once.
///
/// # Errors
///
/// As [`measure_overhead`], for the first configuration that fails.
pub fn measure_overheads(
    unit: &Unit,
    hardens: &[swsec_minc::HardenOptions],
    input: &[u8],
    fuel: u64,
) -> Result<Vec<Overhead>, CompileError> {
    let (plain_outcome, baseline) = run_one(unit, &CompileOptions::default(), input, fuel)?;
    let mut out = Vec::with_capacity(hardens.len());
    for &harden in hardens {
        let hard_opts = CompileOptions {
            harden,
            ..CompileOptions::default()
        };
        let (hard_outcome, instrumented) = run_one(unit, &hard_opts, input, fuel)?;
        if !plain_outcome.is_halted() || !hard_outcome.is_halted() {
            return Err(CompileError {
                message: format!(
                    "overhead measurement needs clean runs (plain: {plain_outcome}, hardened: {hard_outcome})"
                ),
            });
        }
        out.push(Overhead {
            baseline,
            instrumented,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_minc::{parse, HardenOptions};

    #[test]
    fn detects_triggered_overflow() {
        let unit = parse("void main() { char buf[8]; read(0, buf, 64); }").unwrap();
        let report =
            check_with_tests(&unit, &[b"short".to_vec(), vec![b'A'; 64]], 1_000_000).unwrap();
        // The oversized read is flagged regardless of input length —
        // the requested length already exceeds the buffer.
        assert!(report.detected());
        assert!(report.violations() >= 1);
    }

    #[test]
    fn clean_program_stays_clean() {
        let unit = parse("void main() { char buf[8]; int n = read(0, buf, 8); write(1, buf, n); }")
            .unwrap();
        let report =
            check_with_tests(&unit, &[b"hello".to_vec(), b"".to_vec()], 1_000_000).unwrap();
        assert!(!report.detected());
        assert_eq!(report.runs.len(), 2);
        assert!(matches!(report.runs[0], CheckedRun::Clean { exit_code: 0 }));
    }

    #[test]
    fn untriggered_bug_is_not_detected() {
        // The §III-C2 caveat: run-time checking only sees violations the
        // tests actually *trigger*. Here the overflow happens only when
        // the first input byte is 'X', and no test provides it.
        let unit = parse(
            "void main() { char flag[1]; read(0, flag, 1); \
             if (flag[0] == 'X') { char buf[4]; read(0, buf, 64); } }",
        )
        .unwrap();
        let miss = check_with_tests(&unit, &[b"a".to_vec(), b"b".to_vec()], 1_000_000).unwrap();
        assert!(!miss.detected());
        let hit = check_with_tests(&unit, &[b"Xpayload".to_vec()], 1_000_000).unwrap();
        assert!(hit.detected());
    }

    #[test]
    fn overhead_is_positive_for_checked_array_loops() {
        let unit = parse(
            "int main() { int a[64]; int s = 0; \
             for (int i = 0; i < 64; i++) a[i] = i; \
             for (int i = 0; i < 64; i++) s = s + a[i]; \
             return s & 0xff; }",
        )
        .unwrap();
        let mut harden = HardenOptions::none();
        harden.bounds_checks = true;
        let overhead = measure_overhead(&unit, harden, &[], 10_000_000).unwrap();
        assert!(overhead.instrumented > overhead.baseline);
        assert!(overhead.relative() > 0.05, "got {}", overhead.relative());
    }

    #[test]
    fn canary_overhead_is_small() {
        // Canaries cost a constant few instructions per call — cheap,
        // as the paper says.
        let unit = parse(
            "int work(int x) { int a[32]; \
               for (int i = 0; i < 32; i++) a[i] = x + i; \
               int s = 0; for (int i = 0; i < 32; i++) s = s + a[i]; return s; }\n\
             int main() { int s = 0; for (int i = 0; i < 20; i++) s = s + work(i); return s & 0xff; }",
        )
        .unwrap();
        let mut canary = HardenOptions::none();
        canary.stack_canary = true;
        let mut bounds = HardenOptions::none();
        bounds.bounds_checks = true;
        let canary_oh = measure_overhead(&unit, canary, &[], 10_000_000).unwrap();
        let bounds_oh = measure_overhead(&unit, bounds, &[], 10_000_000).unwrap();
        assert!(
            canary_oh.relative() < bounds_oh.relative(),
            "canary {} vs bounds {}",
            canary_oh.relative(),
            bounds_oh.relative()
        );
        // One shared baseline gives the same figures as separate runs.
        let shared = measure_overheads(&unit, &[canary, bounds], &[], 10_000_000).unwrap();
        assert_eq!(shared, vec![canary_oh, bounds_oh]);
    }

    #[test]
    fn overhead_requires_clean_runs() {
        let unit = parse("void main() { char b[4]; read(0, b, 8); }").unwrap();
        let mut harden = HardenOptions::none();
        harden.bounds_checks = true;
        // The hardened build traps -> measurement refuses.
        assert!(measure_overhead(&unit, harden, &[b'A'; 8], 1_000_000).is_err());
    }
}
