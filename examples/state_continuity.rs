//! State continuity (§IV-C): the rollback attack against the PIN
//! vault, and crash-injection liveness for the three storage schemes.
//!
//! ```text
//! cargo run --example state_continuity
//! ```

use swsec::campaign::CampaignConfig;
use swsec::experiments::continuity::{ContinuityExperiment, Scheme};
use swsec::experiments::Experiment;

fn main() {
    let report = ContinuityExperiment.run(&CampaignConfig::default());
    for table in ContinuityExperiment.tables(&report) {
        println!("{table}");
    }

    println!("narrative:");
    for (scheme, result) in &report.rollback {
        match scheme {
            Scheme::Naive => println!(
                "  naive sealing:     the attacker replayed the fresh state before every \
                 guess and recovered the PIN in {} guesses — sealing alone has no freshness.",
                result.guesses
            ),
            Scheme::Counter => println!(
                "  monotonic counter: the first true replay was rejected as stale \
                 (guesses burned: {}).",
                result.guesses
            ),
            Scheme::TwoPhase => println!(
                "  two-phase:         rejected the rollback just the same (guesses \
                 burned: {}), and unlike the bare counter it also survives crashes.",
                result.guesses
            ),
        }
    }
}
