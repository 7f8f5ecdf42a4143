//! Cross-crate integration: the §IV machine-code attacker pipeline —
//! module compilation, platform loading, isolation, secure compilation,
//! attestation and continuity working together.

use swsec::experiments::{fig4, scraping};
use swsec_attacks::Scraper;
use swsec_pma::platform::Measurement;
use swsec_pma::{attest, ModuleImage, Platform, Verifier};
use swsec_vm::cpu::{Fault, Machine, RunOutcome};
use swsec_vm::isa::trap;
use swsec_vm::mem::Perm;
use swsec_vm::policy::ReentryPolicy;

#[test]
fn full_pipeline_module_protected_and_usable() {
    // Load the Figure 2 module under PMA, call it through its entry
    // point from untrusted host code, and verify both that it works and
    // that its secrets stay invisible.
    let image = scraping::secret_module_image();
    let mut platform = Platform::new([9; 32]);
    let mut m = Machine::new();
    let loaded = platform
        .load_module(&mut m, &image, ReentryPolicy::AllowReturns)
        .unwrap();
    let entry = loaded.export("get_secret").unwrap();

    let host = swsec_asm::assemble(&format!(
        ".org 0x00400000\n\
         pushi 1234\n\
         call {entry:#x}\n\
         addi sp, 4\n\
         sys 0\n"
    ))
    .unwrap();
    m.mem_mut().map(0x0040_0000, 0x1000, Perm::RX).unwrap();
    m.mem_mut().poke_bytes(0x0040_0000, &host.bytes).unwrap();
    m.mem_mut().map(0xbffe_0000, 0x1000, Perm::RW).unwrap();
    m.set_reg(swsec_vm::isa::Reg::Sp, 0xbffe_0ff0);
    m.set_ip(0x0040_0000);

    assert_eq!(m.run(100_000), RunOutcome::Halted(666));
    // Even after a successful call, the module's stored secrets stay
    // invisible. (The PIN value 1234 *does* appear in unprotected
    // memory — the host itself pushed it as the call argument — which
    // is exactly the distinction: the scraper sees the caller's data,
    // never the module's.)
    let hits = Scraper::kernel().scan_word(&m, 1234);
    let module_data = scraping::MODULE_DATA_BASE..scraping::MODULE_DATA_BASE + 0x1000;
    assert!(
        hits.iter().all(|a| !module_data.contains(a)),
        "PIN scraped from module data: {hits:08x?}"
    );
    assert!(Scraper::kernel().scan_word(&m, 666).is_empty());
}

#[test]
fn wrong_pin_burns_tries_and_locks_out_across_calls() {
    let image = scraping::secret_module_image();
    let mut platform = Platform::new([9; 32]);
    let mut m = Machine::new();
    let loaded = platform
        .load_module(&mut m, &image, ReentryPolicy::AllowReturns)
        .unwrap();
    let entry = loaded.export("get_secret").unwrap();

    // Host: four calls — three wrong PINs, then the right one. The
    // lockout must make even the right one fail. Sum of results in r7.
    let host = swsec_asm::assemble(&format!(
        ".org 0x00400000\n\
         movi r7, 0\n\
         pushi 1\n\
         call {entry:#x}\n\
         addi sp, 4\n\
         add r7, r0\n\
         pushi 2\n\
         call {entry:#x}\n\
         addi sp, 4\n\
         add r7, r0\n\
         pushi 3\n\
         call {entry:#x}\n\
         addi sp, 4\n\
         add r7, r0\n\
         pushi 1234\n\
         call {entry:#x}\n\
         addi sp, 4\n\
         add r7, r0\n\
         mov r0, r7\n\
         sys 0\n"
    ))
    .unwrap();
    m.mem_mut().map(0x0040_0000, 0x1000, Perm::RX).unwrap();
    m.mem_mut().poke_bytes(0x0040_0000, &host.bytes).unwrap();
    m.mem_mut().map(0xbffe_0000, 0x1000, Perm::RW).unwrap();
    m.set_reg(swsec_vm::isa::Reg::Sp, 0xbffe_0ff0);
    m.set_ip(0x0040_0000);

    assert_eq!(m.run(1_000_000), RunOutcome::Halted(0));
}

#[test]
fn direct_data_write_from_host_faults() {
    let image = scraping::secret_module_image();
    let mut platform = Platform::new([9; 32]);
    let mut m = Machine::new();
    platform
        .load_module(&mut m, &image, ReentryPolicy::EntryPointsOnly)
        .unwrap();
    // Host tries to reset tries_left directly.
    let host = swsec_asm::assemble(&format!(
        ".org 0x00400000\n\
         movi r1, {:#x}\n\
         movi r0, 3\n\
         store [r1], r0\n\
         sys 0\n",
        scraping::MODULE_DATA_BASE
    ))
    .unwrap();
    m.mem_mut().map(0x0040_0000, 0x1000, Perm::RX).unwrap();
    m.mem_mut().poke_bytes(0x0040_0000, &host.bytes).unwrap();
    m.set_ip(0x0040_0000);
    assert!(matches!(m.run(100), RunOutcome::Fault(Fault::Pma(_))));
}

#[test]
fn secure_compilation_defends_figure4_module_end_to_end() {
    let secure = fig4::build_module(4321, true);
    // Attack call trapped.
    let (outcome, tries) = fig4::single_call(&secure, fig4::FnPtrChoice::ResetGadget, 0);
    assert!(matches!(
        outcome,
        RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::FNPTR
    ));
    assert_eq!(tries, 3);
    // Honest call unharmed.
    let (outcome, _) = fig4::single_call(&secure, fig4::FnPtrChoice::HonestGetPin, 4321);
    assert_eq!(outcome, RunOutcome::Halted(666));
}

#[test]
fn attestation_binds_the_secure_compilation() {
    // The verifier expects the *securely compiled* module. The OS
    // silently swapping in the naive build (e.g. to re-enable the
    // Figure 4 attack) is caught by attestation.
    let naive = fig4::build_module(1234, false);
    let secure = fig4::build_module(1234, true);
    let platform = Platform::new([5; 32]);
    let expected = Measurement::of(&secure.image);
    let mut verifier = Verifier::new(expected, platform.derive_key(expected));
    let nonce = verifier.challenge(1);
    // Platform loads the naive module: derives the naive key.
    let naive_key = platform.derive_key(Measurement::of(&naive.image));
    let report = attest(&naive_key, nonce, b"");
    assert!(
        !verifier.verify(nonce, &report),
        "downgrade must be detected"
    );
    // Honest load verifies.
    let nonce2 = verifier.challenge(2);
    let good = attest(&platform.derive_key(expected), nonce2, b"");
    assert!(verifier.verify(nonce2, &good));
}

#[test]
fn raw_byte_module_and_compiled_module_coexist() {
    // Two modules on one machine, mutually isolated.
    let compiled = scraping::secret_module_image();
    let raw = ModuleImage::from_raw(
        vec![0x22; 32],
        7777u32.to_le_bytes().to_vec(),
        0x0b00_0000,
        0x0b10_0000,
        vec![0],
    );
    let mut platform = Platform::new([3; 32]);
    let mut m = Machine::new();
    platform
        .load_module(&mut m, &compiled, ReentryPolicy::EntryPointsOnly)
        .unwrap();
    platform
        .load_module(&mut m, &raw, ReentryPolicy::EntryPointsOnly)
        .unwrap();
    let pma = m.protection().unwrap();
    assert_eq!(pma.regions().len(), 2);
    // Module A's code cannot read module B's data and vice versa.
    assert!(pma
        .check_data(scraping::MODULE_CODE_BASE + 4, 0x0b10_0000)
        .is_err());
    assert!(pma
        .check_data(0x0b00_0004, scraping::MODULE_DATA_BASE)
        .is_err());
    // Nobody scrapes either secret.
    let kernel = Scraper::kernel();
    assert!(kernel.scan_word(&m, 666).is_empty());
    assert!(kernel.scan_word(&m, 7777).is_empty());
}
