//! The classic stack smash with direct code injection, step by step —
//! the paper's §III-B walk-through, plus Figure 1's three panels.
//!
//! ```text
//! cargo run --example stack_smashing
//! ```

use swsec::campaign::CampaignConfig;
use swsec::experiments::fig1::Fig1Experiment;
use swsec::experiments::Experiment;
use swsec::prelude::*;
use swsec_attacks::Payload;
use swsec_minc::parse;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 1 first: the anatomy the attack exploits.
    let fig1 = Fig1Experiment.run(&CampaignConfig::default());
    println!("=== Figure 1(b): machine code of process() ===");
    println!("{}", fig1.listing);
    println!("{}", fig1.snapshot);

    // Now the smash. The attacker's local copy of the victim tells them
    // the frame geometry.
    let victim_src = swsec::attacker::VICTIM_SMASH;
    println!("=== the victim ===\n{victim_src}");
    let unit = parse(victim_src)?;
    let mut session = launch(&unit, DefenseConfig::none(), 1)?;
    let buf_addr = session.local_addr(&[("main", 0), ("handle", 1)], "buf")?;
    println!("attacker computes: buf will live at {buf_addr:#010x}");

    // Build shellcode that runs *from the buffer* and announces itself,
    // then a payload that overwrites the saved return address with the
    // buffer's own address.
    let shellcode =
        swsec_attacks::shellcode::write_shellcode(buf_addr, 1, b"PWNED by shellcode\n", 0x1337);
    let frame = session.program.frames["handle"].clone();
    let payload = Payload::smash_with_shellcode(&frame, "buf", buf_addr, &shellcode)
        .expect("shellcode fits the buffer")
        .build();
    println!(
        "payload: {} bytes = {} shellcode + filler + saved-bp + return address",
        payload.len(),
        shellcode.len()
    );

    session.machine.io_mut().feed_input(0, &payload);
    let outcome = session.run(1_000_000);
    println!("\nvictim outcome: {outcome}");
    println!(
        "victim output:  {:?}",
        String::from_utf8_lossy(session.machine.io().output(1))
    );

    // Same payload, platform with DEP: the injected bytes are data and
    // data is not executable.
    let mut dep = DefenseConfig::none();
    dep.dep = true;
    let mut session = launch(&unit, dep, 1)?;
    session.machine.io_mut().feed_input(0, &payload);
    println!("\nwith DEP:       {}", session.run(1_000_000));

    // Same payload, canary compile: detected before the return.
    let mut canary = DefenseConfig::none();
    canary.canary = true;
    let result = run_technique(Technique::CodeInjection, canary, 1)?;
    println!("with canaries:  {}", result.outcome);

    Ok(())
}
