//! Experiment E9 — Figure 4 / §IV-B: secure compilation of protected
//! modules.
//!
//! The Figure 4 module takes a *function pointer* argument. A malicious
//! machine-code client passes the address of an instruction **inside**
//! the module — the `tries_left = 3` store — and thereby (a) resets the
//! brute-force lockout and (b) in this reproduction even rides the
//! module's own epilogue to exfiltrate the secret directly.
//!
//! The §IV-B countermeasure is a compiler-inserted defensive check:
//! a function-pointer argument must point *outside* the module. This
//! experiment runs the attack against the naively compiled module
//! (succeeds), against the securely compiled module (trapped), and
//! measures the practical consequence: a PIN brute force that is
//! impossible against the honest 3-tries lockout becomes trivial once
//! the attacker can reset it.

use swsec_attacks::find_instr_addr;
use swsec_minc::{compile, parse, CompileOptions, HardenOptions};
use swsec_pma::{ModuleImage, Platform};
use swsec_vm::cpu::{Fault, Machine, RunOutcome};
use swsec_vm::isa::{trap, Instr};
use swsec_vm::mem::Perm;
use swsec_vm::policy::ReentryPolicy;

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::{only_cell, Experiment};
use crate::report::{ExperimentId, Table};

const MODULE_CODE_BASE: u32 = 0x0a00_0000;
const MODULE_DATA_BASE: u32 = 0x0a10_0000;
const HOST_BASE: u32 = 0x0040_0000;
const CELLS_BASE: u32 = 0x0050_0000; // host RW scratch: cand, result, io
const STACK_TOP: u32 = 0xbfff_0ff0;

/// The Figure 4 module source (function-pointer parameter), with a
/// configurable PIN so brute-force runs stay short.
pub fn fig4_module_source(pin: u32) -> String {
    format!(
        "static int tries_left = 3;\n\
         static int PIN = {pin};\n\
         static int secret = 666;\n\
         int get_secret(int (*get_pin)()) {{\n\
             if (tries_left > 0) {{\n\
                 if (PIN == get_pin()) {{ tries_left = 3; return secret; }}\n\
                 else {{ tries_left--; return 0; }}\n\
             }} else return 0;\n\
         }}\n"
    )
}

/// A compiled Figure 4 module plus the facts the attacker derives from
/// the (public) binary.
#[derive(Debug, Clone)]
pub struct Fig4Module {
    /// The loadable image.
    pub image: ModuleImage,
    /// Address of the `get_secret` entry point.
    pub entry: u32,
    /// Address of the interior `tries_left = 3` instruction — the
    /// attack target.
    pub reset_gadget: u32,
    /// Address of the `tries_left` variable in module data.
    pub tries_left_addr: u32,
}

/// Compiles the module with the full strict-re-entry secure scheme
/// (continuation-stack out-calls; runs under `EntryPointsOnly`).
pub fn build_module_strict(pin: u32) -> Fig4Module {
    build_module_with(pin, HardenOptions::secure_module_strict())
}

/// Compiles the module, naively or securely.
pub fn build_module(pin: u32, secure: bool) -> Fig4Module {
    build_module_with(
        pin,
        if secure {
            HardenOptions::secure_module()
        } else {
            HardenOptions::none()
        },
    )
}

fn build_module_with(pin: u32, harden: HardenOptions) -> Fig4Module {
    let unit = parse(&fig4_module_source(pin)).expect("module parses");
    let mut opts = CompileOptions {
        no_start: true,
        harden,
        ..CompileOptions::default()
    };
    opts.layout.0.text_base = MODULE_CODE_BASE;
    opts.layout.0.data_base = MODULE_DATA_BASE;
    let program = compile(&unit, &opts).expect("module compiles");
    let entry = program.function_addr("get_secret").expect("exported");
    let reset_gadget = find_instr_addr(&program.text, program.text_base, |i| {
        matches!(i, Instr::MovI { imm: 3, .. })
    })
    .expect("the tries_left = 3 store exists");
    let tries_left_addr = program.globals["tries_left"].addr;
    Fig4Module {
        image: ModuleImage::from_compiled(&program),
        entry,
        reset_gadget,
        tries_left_addr,
    }
}

fn machine_with(module: &Fig4Module, host_asm: &str) -> Machine {
    machine_with_policy(module, host_asm, ReentryPolicy::AllowReturns)
}

fn machine_with_policy(module: &Fig4Module, host_asm: &str, policy: ReentryPolicy) -> Machine {
    let mut platform = Platform::new([0x24; 32]);
    let mut m = Machine::new();
    platform
        .load_module(&mut m, &module.image, policy)
        .expect("module loads");
    let host = swsec_asm::assemble(host_asm).expect("host assembles");
    m.mem_mut().map(HOST_BASE, 0x1000, Perm::RX).expect("maps");
    m.mem_mut()
        .poke_bytes(HOST_BASE, &host.bytes)
        .expect("pokes");
    m.mem_mut().map(CELLS_BASE, 0x1000, Perm::RW).expect("maps");
    m.mem_mut()
        .map(STACK_TOP - 0xff0, 0x1000, Perm::RW)
        .expect("maps");
    m.set_reg(swsec_vm::isa::Reg::Sp, STACK_TOP);
    m.set_reg(swsec_vm::isa::Reg::Bp, STACK_TOP);
    m.set_ip(HOST_BASE);
    m
}

/// Calls `get_secret` once with the given function-pointer value
/// (either the host's honest `get_pin`, or the attack gadget).
/// Returns the run outcome and the value of `tries_left` afterwards.
pub fn single_call(module: &Fig4Module, fnptr: FnPtrChoice, candidate: u32) -> (RunOutcome, u32) {
    single_call_with_policy(module, fnptr, candidate, ReentryPolicy::AllowReturns)
}

/// Like [`single_call`], with an explicit re-entry policy — used to
/// show that relaxed-compiled modules break under `EntryPointsOnly`
/// while strict-compiled ones keep working.
pub fn single_call_with_policy(
    module: &Fig4Module,
    fnptr: FnPtrChoice,
    candidate: u32,
    policy: ReentryPolicy,
) -> (RunOutcome, u32) {
    let fnptr_operand = match fnptr {
        FnPtrChoice::HonestGetPin => "honest".to_string(),
        FnPtrChoice::ResetGadget => format!("{:#x}", module.reset_gadget),
    };
    let host = format!(
        ".org {HOST_BASE:#x}\n\
         movi r0, {fnptr_operand}\n\
         push r0\n\
         call {entry:#x}\n\
         addi sp, 4\n\
         sys 0\n\
         honest:\n\
         movi r0, {candidate:#x}\n\
         ret\n",
        entry = module.entry,
    );
    let mut m = machine_with_policy(module, &host, policy);
    let outcome = m.run(100_000);
    let tries = m.mem().peek_u32(module.tries_left_addr).unwrap_or(u32::MAX);
    (outcome, tries)
}

/// A malicious host jumping directly to an interior instruction of the
/// module (not an entry point) under the strict policy: the PMA entry
/// rule must refuse before a single module instruction runs.
pub fn single_call_interior_jump(module: &Fig4Module) -> (RunOutcome, u32) {
    let host = format!(
        ".org {HOST_BASE:#x}\n\
         jmp {target:#x}\n",
        target = module.reset_gadget,
    );
    let mut m = machine_with_policy(module, &host, ReentryPolicy::EntryPointsOnly);
    let outcome = m.run(100_000);
    let tries = m.mem().peek_u32(module.tries_left_addr).unwrap_or(u32::MAX);
    (outcome, tries)
}

/// A malicious host jumping straight to the module's return-entry stub
/// with no pending out-call (strict modules must refuse: continuation
/// underflow).
pub fn jump_to_reentry(module: &Fig4Module) -> RunOutcome {
    let reentry = module
        .image
        .export_addr("__reentry")
        .expect("strict module has a return entry");
    let host = format!(
        ".org {HOST_BASE:#x}\n\
         jmp {reentry:#x}\n"
    );
    let mut m = machine_with_policy(module, &host, ReentryPolicy::EntryPointsOnly);
    m.run(100_000)
}

/// Builds the single-call machine without running it, so callers can
/// inspect execution statistics (used by E12).
pub fn machine_for_cost_probe(module: &Fig4Module, candidate: u32) -> Machine {
    let host = format!(
        ".org {HOST_BASE:#x}\n\
         movi r0, honest\n\
         push r0\n\
         call {entry:#x}\n\
         addi sp, 4\n\
         sys 0\n\
         honest:\n\
         movi r0, {candidate:#x}\n\
         ret\n",
        entry = module.entry,
    );
    machine_with(module, &host)
}

/// Which function pointer the client passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnPtrChoice {
    /// The host's legitimate `get_pin` implementation (outside the
    /// module).
    HonestGetPin,
    /// The address of the interior `tries_left = 3` instruction.
    ResetGadget,
}

/// Result of a brute-force campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BruteForce {
    /// Whether the PIN was recovered.
    pub found: bool,
    /// Guesses spent.
    pub guesses: u32,
    /// Whether the campaign was stopped by a defensive trap.
    pub trapped: bool,
}

/// Brute-forces the PIN over `0..space`, optionally resetting the
/// lockout through the gadget before every guess.
pub fn brute_force(module: &Fig4Module, space: u32, with_reset: bool) -> BruteForce {
    let reset_block = if with_reset {
        format!(
            "movi r0, {gadget:#x}\n\
             push r0\n\
             call {entry:#x}\n\
             addi sp, 4\n",
            gadget = module.reset_gadget,
            entry = module.entry,
        )
    } else {
        String::new()
    };
    let host = format!(
        ".org {HOST_BASE:#x}\n\
         loop:\n\
         movi r0, 0\n\
         movi r1, {scratch:#x}\n\
         movi r2, 4\n\
         sys 1\n\
         movi r1, {scratch:#x}\n\
         load r3, [r1]\n\
         movi r1, {cand:#x}\n\
         store [r1], r3\n\
         {reset_block}\
         movi r0, honest\n\
         push r0\n\
         call {entry:#x}\n\
         addi sp, 4\n\
         movi r1, {result:#x}\n\
         store [r1], r0\n\
         movi r0, 1\n\
         movi r1, {result:#x}\n\
         movi r2, 4\n\
         sys 2\n\
         jmp loop\n\
         honest:\n\
         movi r1, {cand:#x}\n\
         load r0, [r1]\n\
         ret\n",
        scratch = CELLS_BASE + 8,
        cand = CELLS_BASE,
        result = CELLS_BASE + 4,
        entry = module.entry,
    );
    let mut m = machine_with(module, &host);
    m.set_blocking_reads(true);

    let mut guesses = 0u32;
    for candidate in 0..space {
        m.io_mut().feed_input(0, &candidate.to_le_bytes());
        guesses += 1;
        match m.run(1_000_000) {
            RunOutcome::Blocked { .. } => {
                let out = m.io().output(1);
                let last = &out[out.len() - 4..];
                let result = u32::from_le_bytes(last.try_into().expect("4 bytes"));
                if result != 0 {
                    return BruteForce {
                        found: true,
                        guesses,
                        trapped: false,
                    };
                }
            }
            RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::FNPTR => {
                return BruteForce {
                    found: false,
                    guesses,
                    trapped: true,
                };
            }
            other => panic!("unexpected brute-force outcome: {other:?}"),
        }
    }
    BruteForce {
        found: false,
        guesses,
        trapped: false,
    }
}

/// Full E9 results.
#[derive(Debug, Clone)]
pub struct Fig4Report {
    /// (compilation, scenario, outcome, tries_left after).
    pub calls: Vec<(&'static str, &'static str, String, u32)>,
    /// Brute force without the reset gadget (honest lockout).
    pub honest_brute: BruteForce,
    /// Brute force with the reset gadget against the naive module.
    pub naive_brute: BruteForce,
    /// Brute force with the reset gadget against the secure module.
    pub secure_brute: BruteForce,
    /// The PIN used.
    pub pin: u32,
}

/// E9 under the campaign API.
pub struct Fig4Experiment;

impl Experiment for Fig4Experiment {
    type Cell = Fig4Report;
    type Output = Fig4Report;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(9)
    }

    fn title(&self) -> &'static str {
        "Figure 4: secure compilation"
    }

    /// Runs the E9 experiment with a small PIN space.
    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, _cell: usize) -> Fig4Report {
        let pin = 57;
        let space = 100;
        let naive = build_module(pin, false);
        let secure = build_module(pin, true);

        let mut calls = Vec::new();
        // Legitimate use, correct PIN.
        let (o, t) = single_call(&naive, FnPtrChoice::HonestGetPin, pin);
        calls.push(("naive", "honest get_pin, right PIN", o.to_string(), t));
        let (o, t) = single_call(&secure, FnPtrChoice::HonestGetPin, pin);
        calls.push(("secure", "honest get_pin, right PIN", o.to_string(), t));
        // Legitimate use, wrong PIN.
        let (o, t) = single_call(&naive, FnPtrChoice::HonestGetPin, pin + 1);
        calls.push(("naive", "honest get_pin, wrong PIN", o.to_string(), t));
        // The attack.
        let (o, t) = single_call(&naive, FnPtrChoice::ResetGadget, 0);
        calls.push(("naive", "ATTACK: interior pointer", o.to_string(), t));
        let (o, t) = single_call(&secure, FnPtrChoice::ResetGadget, 0);
        calls.push(("secure", "ATTACK: interior pointer", o.to_string(), t));

        let honest_brute = brute_force(&build_module(pin, false), space, false);
        let naive_brute = brute_force(&build_module(pin, false), space, true);
        let secure_brute = brute_force(&build_module(pin, true), space, true);

        Fig4Report {
            calls,
            honest_brute,
            naive_brute,
            secure_brute,
            pin,
        }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<Fig4Report>) -> Fig4Report {
        only_cell(cells)
    }

    fn tables(&self, report: &Fig4Report) -> Vec<Table> {
        let mut calls = Table::new(
            "E9a: Figure 4 function-pointer calls into the module",
            &["compilation", "call", "outcome", "tries_left after"],
        );
        for (compilation, scenario, outcome, tries) in &report.calls {
            calls.row(vec![
                compilation.to_string(),
                scenario.to_string(),
                outcome.clone(),
                tries.to_string(),
            ]);
        }
        let mut brute = Table::new(
            "E9b: PIN brute force (3-tries lockout, reset gadget)",
            &["campaign", "PIN found", "guesses", "stopped by check"],
        );
        let mut push = |name: &str, b: BruteForce| {
            brute.row(vec![
                name.to_string(),
                b.found.to_string(),
                b.guesses.to_string(),
                b.trapped.to_string(),
            ]);
        };
        push("honest client, no reset", report.honest_brute);
        push("attack on naive compilation", report.naive_brute);
        push("attack on secure compilation", report.secure_brute);
        vec![calls, brute]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> Fig4Report {
        Fig4Experiment.run(&CampaignConfig::default())
    }

    #[test]
    fn legitimate_calls_work_on_both_compilations() {
        let pin = 57;
        let naive = build_module(pin, false);
        let secure = build_module(pin, true);
        let (o, t) = single_call(&naive, FnPtrChoice::HonestGetPin, pin);
        assert_eq!(o, RunOutcome::Halted(666));
        assert_eq!(t, 3);
        let (o, t) = single_call(&secure, FnPtrChoice::HonestGetPin, pin);
        assert_eq!(o, RunOutcome::Halted(666));
        assert_eq!(t, 3);
        // Wrong PIN burns a try.
        let (o, t) = single_call(&naive, FnPtrChoice::HonestGetPin, pin + 1);
        assert_eq!(o, RunOutcome::Halted(0));
        assert_eq!(t, 2);
    }

    #[test]
    fn interior_pointer_attack_succeeds_on_naive_compilation() {
        let module = build_module(57, false);
        let (outcome, tries) = single_call(&module, FnPtrChoice::ResetGadget, 0);
        // The jump into `tries_left = 3; return secret;` rides the
        // module epilogue out: the secret escapes AND the lockout reset.
        assert_eq!(outcome, RunOutcome::Halted(666));
        assert_eq!(tries, 3);
    }

    #[test]
    fn defensive_check_blocks_the_attack_on_secure_compilation() {
        let module = build_module(57, true);
        let (outcome, tries) = single_call(&module, FnPtrChoice::ResetGadget, 0);
        assert!(
            matches!(
                outcome,
                RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::FNPTR
            ),
            "expected the fnptr trap, got {outcome:?}"
        );
        assert_eq!(tries, 3, "tries_left untouched");
    }

    #[test]
    fn lockout_defeats_honest_brute_force() {
        let b = brute_force(&build_module(57, false), 100, false);
        assert!(!b.found, "lockout must hold");
    }

    #[test]
    fn reset_gadget_enables_brute_force_on_naive_compilation() {
        let b = brute_force(&build_module(57, false), 100, true);
        assert!(b.found);
        assert_eq!(b.guesses, 58); // candidates 0..=57
    }

    #[test]
    fn secure_compilation_stops_the_brute_force() {
        let b = brute_force(&build_module(57, true), 100, true);
        assert!(!b.found);
        assert!(b.trapped);
        assert_eq!(b.guesses, 1, "trapped on the first reset attempt");
    }

    #[test]
    fn report_tables_render() {
        let tables = Fig4Experiment.tables(&run());
        assert_eq!(tables.len(), 2);
        assert!(tables[1].to_string().contains("reset"));
    }
}
