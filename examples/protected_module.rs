//! The machine-code attacker vs the Figure 2 secret module: scraping,
//! the protected-module access-control rules, the Figure 4 secure-
//! compilation attack, and remote attestation.
//!
//! ```text
//! cargo run --example protected_module
//! ```

use swsec::campaign::CampaignConfig;
use swsec::experiments::attest::AttestExperiment;
use swsec::experiments::fig4::Fig4Experiment;
use swsec::experiments::pma_rules::PmaRulesExperiment;
use swsec::experiments::scraping::ScrapingExperiment;
use swsec::experiments::strict_reentry::StrictReentryExperiment;
use swsec::experiments::Experiment;

/// Runs `exp`, prints its tables and returns its output.
fn show<E: Experiment>(exp: E, cfg: &CampaignConfig) -> E::Output {
    let out = exp.run(cfg);
    for table in exp.tables(&out) {
        println!("{table}");
    }
    out
}

fn main() {
    let cfg = CampaignConfig::default();

    // E7: memory scraping with and without PMA protection.
    show(ScrapingExperiment, &cfg);

    // E8: the three access-control rules, exhaustively.
    let rules = show(PmaRulesExperiment, &cfg);
    println!("end-to-end demonstrations:");
    for (name, outcome, ok) in &rules.vm_demos {
        println!("  {name:<32} {outcome} {}", if *ok { "✓" } else { "✗" });
    }
    println!();

    // E9: the Figure 4 function-pointer attack vs secure compilation.
    show(Fig4Experiment, &cfg);

    // E10: remote attestation.
    show(AttestExperiment, &cfg);

    // E13: the full secure-compilation scheme under the strict
    // EntryPointsOnly policy (continuation stack + return entry).
    show(StrictReentryExperiment, &cfg);
}
