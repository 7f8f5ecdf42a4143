//! The hardened loader: compiles and launches a MinC program under a
//! chosen [`DefenseConfig`].
//!
//! The loader owns the run-time halves of the §III-C1 countermeasures:
//!
//! * **DEP** — page-permission enforcement is switched on or off on the
//!   machine;
//! * **ASLR** — segment bases are randomized per launch from the
//!   configured entropy;
//! * **canary value** — a fresh unpredictable word is installed into
//!   the program's canary cell at launch;
//! * **shadow stack** — enabled on the machine when configured.
//!
//! It also provides the *attacker's* address arithmetic
//! ([`Session::frame_base`]): given a call path, where a frame's base
//! pointer will be — exact without ASLR, a guess with it.

use std::borrow::Cow;

use swsec_rng::{stream, Rng};

use swsec_defenses::DefenseConfig;
use swsec_minc::ast::Unit;
use swsec_minc::{compile, CompileError, CompileOptions, CompiledProgram};
use swsec_vm::cpu::{Machine, RunOutcome};

/// A launched program: the machine plus everything known about the
/// binary running on it.
#[derive(Debug)]
pub struct Session {
    /// The machine, ready to run from the program entry point.
    pub machine: Machine,
    /// The compiled program (layout as actually loaded, i.e. after any
    /// ASLR slide).
    pub program: CompiledProgram,
    /// The defense configuration in force.
    pub config: DefenseConfig,
    /// The canary value installed this launch (if canaries are on).
    pub canary_value: Option<u32>,
}

impl Session {
    /// Runs the machine for at most `fuel` instructions.
    pub fn run(&mut self, fuel: u64) -> RunOutcome {
        self.machine.run(fuel)
    }

    /// Computes where the base pointer of the innermost frame will be
    /// for a call path starting at `main`, e.g.
    /// `[("main", 0), ("handle", 1)]` (function name, argument count).
    ///
    /// This is the deterministic frame arithmetic an attacker performs
    /// on a local copy of the binary. It is exact for the *loaded*
    /// layout; an attacker without a leak must do it against the
    /// default layout and hope ASLR is off.
    pub fn frame_base(&self, path: &[(&str, u32)]) -> Result<u32, CompileError> {
        frame_base_for(&self.program, path)
    }

    /// Address of the named local variable in the innermost frame of
    /// `path`.
    pub fn local_addr(&self, path: &[(&str, u32)], local: &str) -> Result<u32, CompileError> {
        let bp = self.frame_base(path)?;
        let (func, _) = path.last().expect("path must not be empty");
        let frame = self.program.frames.get(*func).ok_or_else(|| CompileError {
            message: format!("no frame info for `{func}`"),
        })?;
        let slot = frame
            .locals
            .iter()
            .find(|(name, _)| name == local)
            .map(|(_, s)| s)
            .ok_or_else(|| CompileError {
                message: format!("no local `{local}` in `{func}`"),
            })?;
        Ok(bp.wrapping_add(slot.offset as u32))
    }
}

/// Frame arithmetic against an arbitrary compiled program (see
/// [`Session::frame_base`]).
pub fn frame_base_for(
    program: &CompiledProgram,
    path: &[(&str, u32)],
) -> Result<u32, CompileError> {
    // `_start` begins with sp at stack_top - STACK_HEADROOM.
    let mut sp = program.layout.stack_top - swsec_minc::codegen::STACK_HEADROOM;
    let mut bp = 0u32;
    for (func, nargs) in path {
        let frame = program.frames.get(*func).ok_or_else(|| CompileError {
            message: format!("no frame info for `{func}`"),
        })?;
        // Caller pushes the arguments, `call` pushes the return address,
        // `enter` pushes the saved bp and establishes the new frame.
        sp = sp.wrapping_sub(4 * nargs + 4 + 4);
        bp = sp;
        sp = sp.wrapping_sub(frame.frame_size);
    }
    Ok(bp)
}

/// Independent sub-streams of one launch seed, so the compile plan and
/// the load-time randomness can be reproduced separately (the compile
/// half is what the [`crate::cache::ProgramCache`] memoizes).
mod draw {
    /// ASLR segment slides.
    pub const ASLR: u64 = 0;
    /// The canary value installed at launch.
    pub const CANARY: u64 = 1;
}

/// The compile options `config` implies for a launch with `seed`:
/// hardening switches, plus the ASLR-slid layout when ASLR is on.
///
/// This is the pure "compile plan" half of [`launch`]; feeding it to
/// [`swsec_minc::compile`] — or to a [`crate::cache::ProgramCache`],
/// which memoizes on exactly these options — and then loading the
/// result with [`launch_compiled`] reproduces `launch` bit for bit.
pub fn plan_options(config: &DefenseConfig, seed: u64) -> CompileOptions {
    let mut opts = CompileOptions {
        harden: config.harden_options(),
        ..CompileOptions::default()
    };
    if let Some(aslr) = config.aslr() {
        let mut rng = stream(seed, &[draw::ASLR]);
        opts.layout.0 = aslr.randomize(opts.layout.0, &mut rng);
    }
    opts
}

/// Loads an already-compiled `program` and applies the run-time halves
/// of `config` (DEP, shadow stack, canary installation).
///
/// The program must have been compiled from the options
/// [`plan_options`] yields for the same `(config, seed)` pair —
/// otherwise the layout in the image and the advertised configuration
/// disagree.
///
/// # Errors
///
/// Returns a [`CompileError`] when loading or canary installation
/// fails.
pub fn launch_compiled(
    program: &CompiledProgram,
    config: DefenseConfig,
    seed: u64,
) -> Result<Session, CompileError> {
    boot(Cow::Borrowed(program), config, seed)
}

/// Loads `program` and arms it, as [`launch_compiled`] documents; a
/// borrowed program is cloned into the session only once it booted.
fn boot(
    program: Cow<'_, CompiledProgram>,
    config: DefenseConfig,
    seed: u64,
) -> Result<Session, CompileError> {
    let (machine, canary_value) = boot_machine(&program, &config, seed)?;
    Ok(Session {
        machine,
        program: program.into_owned(),
        config,
        canary_value,
    })
}

/// Boots a bare machine for one launch of `program`: [`load_machine`],
/// then [`arm_session`]. Returns the machine, ready to run from the
/// entry point, and the installed canary value.
///
/// This is [`launch_compiled`] without the [`Session`] around it, for
/// callers that keep the program themselves (a fork server's rebuild
/// attempts, a differential target's legs) and so need no copy of it.
///
/// # Errors
///
/// Returns a [`CompileError`] when loading or canary installation
/// fails.
pub fn boot_machine(
    program: &CompiledProgram,
    config: &DefenseConfig,
    seed: u64,
) -> Result<(Machine, Option<u32>), CompileError> {
    let _boot = swsec_obs::span::enter_with(swsec_obs::SpanKind::Boot, || format!("seed {seed}"));
    let mut machine = load_machine(program, config)?;
    let canary_value = arm_session(&mut machine, program, config, seed)?;
    Ok((machine, canary_value))
}

/// Loads `program` into a fresh machine and applies the
/// seed-independent run-time defenses of `config`: DEP enforcement and
/// the shadow stack. This is the head of every launch, and exactly the
/// state a fork server snapshots ([`crate::harness::ForkServer`]).
///
/// # Errors
///
/// Returns a [`CompileError`] when loading fails.
pub fn load_machine(
    program: &CompiledProgram,
    config: &DefenseConfig,
) -> Result<Machine, CompileError> {
    let mut machine = Machine::new();
    program.load(&mut machine)?;
    machine.mem_mut().set_enforce(config.dep);
    machine.set_shadow_stack(config.shadow_stack);
    Ok(machine)
}

/// Applies the per-launch, *seed-dependent* half of a launch to an
/// already-loaded machine: seeds the machine RNG and installs the
/// canary drawn from `seed` (when canaries are on), returning the
/// installed value.
///
/// This is the exact tail of [`boot_machine`], factored out so the
/// fork-server harness ([`crate::harness::ForkServer`]) can replay it
/// after a snapshot restore — per-attempt state is then bit-identical
/// to a fresh launch *by construction*, because both paths run this one
/// function.
///
/// # Errors
///
/// Returns a [`CompileError`] when canary installation fails.
pub fn arm_session(
    machine: &mut Machine,
    program: &CompiledProgram,
    config: &DefenseConfig,
    seed: u64,
) -> Result<Option<u32>, CompileError> {
    machine.seed_rng(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    if config.canary {
        let value = stream(seed, &[draw::CANARY]).next_u32();
        program.install_canary(machine, value)?;
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Compiles `unit` under `config` and launches it.
///
/// `seed` drives every random choice (ASLR slides, canary value), so a
/// launch is exactly reproducible; different seeds model different
/// process launches.
///
/// # Errors
///
/// Returns a [`CompileError`] when compilation or loading fails.
pub fn launch(unit: &Unit, config: DefenseConfig, seed: u64) -> Result<Session, CompileError> {
    let opts = plan_options(&config, seed);
    boot(Cow::Owned(compile(unit, &opts)?), config, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_minc::parse;
    use swsec_vm::cpu::RunOutcome;

    const ECHO: &str = "void main() { char buf[8]; int n = read(0, buf, 8); write(1, buf, n); }";

    #[test]
    fn launch_runs_programs() {
        let unit = parse(ECHO).unwrap();
        let mut session = launch(&unit, DefenseConfig::none(), 1).unwrap();
        session.machine.io_mut().feed_input(0, b"hi");
        assert_eq!(session.run(100_000), RunOutcome::Halted(0));
        assert_eq!(session.machine.io().output(1), b"hi");
    }

    #[test]
    fn dep_flag_controls_enforcement() {
        let unit = parse(ECHO).unwrap();
        let off = launch(&unit, DefenseConfig::none(), 1).unwrap();
        assert!(!off.machine.mem().enforce());
        let mut on = DefenseConfig::none();
        on.dep = true;
        let on_session = launch(&unit, on, 1).unwrap();
        assert!(on_session.machine.mem().enforce());
    }

    #[test]
    fn canary_value_is_seed_dependent() {
        let unit = parse(ECHO).unwrap();
        let mut cfg = DefenseConfig::none();
        cfg.canary = true;
        let a = launch(&unit, cfg, 1).unwrap();
        let b = launch(&unit, cfg, 1).unwrap();
        let c = launch(&unit, cfg, 2).unwrap();
        assert_eq!(a.canary_value, b.canary_value);
        assert_ne!(a.canary_value, c.canary_value);
    }

    #[test]
    fn aslr_randomizes_layout_per_seed() {
        let unit = parse(ECHO).unwrap();
        let mut cfg = DefenseConfig::none();
        cfg.aslr_bits = Some(8);
        let a = launch(&unit, cfg, 1).unwrap();
        let b = launch(&unit, cfg, 2).unwrap();
        assert_ne!(a.program.layout, b.program.layout);
        // Same seed, same layout.
        let a2 = launch(&unit, cfg, 1).unwrap();
        assert_eq!(a.program.layout, a2.program.layout);
    }

    #[test]
    fn frame_arithmetic_predicts_buffer_address() {
        // Verify the oracle against actual execution: the program leaks
        // the real address of its buffer via pointer arithmetic.
        let src = "void handle(int fd) { char buf[16]; char *p = buf; \
                   int lo = 0; int i = 0; \
                   write(1, buf, 0); \
                   exit((p - buf) + 0); }";
        // Instead of smuggling the raw address out (MinC pointers don't
        // convert to int), check against the VM: run until the program
        // writes into buf and confirm the oracle's address holds data.
        let full = format!("{src}\nvoid main() {{ handle(0); }}");
        let unit = parse(&full).unwrap();
        let session = launch(&unit, DefenseConfig::none(), 1).unwrap();
        let addr = session
            .local_addr(&[("main", 0), ("handle", 1)], "buf")
            .unwrap();
        // The oracle address must lie in the mapped stack region.
        let stack_base = session.program.layout.stack_top - session.program.layout.stack_size;
        assert!(addr > stack_base && addr < session.program.layout.stack_top);
    }

    #[test]
    fn frame_arithmetic_matches_actual_write() {
        // Ground truth: run a program that stores a known marker into a
        // local, then inspect memory at the oracle-predicted address.
        let src = "void handle(int fd) { int marker = 0; char buf[16]; \
                   marker = 0x7a7a7a7a; buf[0] = 1; \
                   while (read(0, buf, 16) > 0) { write(1, buf, 1); } }\n\
                   void main() { handle(3); }";
        let unit = parse(src).unwrap();
        let mut session = launch(&unit, DefenseConfig::none(), 1).unwrap();
        // Run to completion (no input: the loop exits immediately).
        assert!(session.run(1_000_000).is_halted());
        let addr = session
            .local_addr(&[("main", 0), ("handle", 1)], "marker")
            .unwrap();
        assert_eq!(session.machine.mem().peek_u32(addr).unwrap(), 0x7a7a_7a7a);
    }

    #[test]
    fn unknown_function_in_path_errors() {
        let unit = parse(ECHO).unwrap();
        let session = launch(&unit, DefenseConfig::none(), 1).unwrap();
        assert!(session.frame_base(&[("nope", 0)]).is_err());
    }
}
