//! Temporal-safety attacks: dangling stack frames (implicit
//! deallocation) and use-after-free on the heap (explicit
//! deallocation), with the quarantine-allocator mitigation.
//!
//! ```text
//! cargo run --example temporal_attacks
//! ```

use swsec::campaign::CampaignConfig;
use swsec::experiments::heap_uaf::{self, HeapUafExperiment};
use swsec::experiments::Experiment;
use swsec_minc::interp::{self, InterpOutcome};
use swsec_minc::parse;

fn main() {
    // The implicit case: a pointer into a dead frame.
    let dangling = "int *escape() { int local = 7; return &local; }\n\
                    void main() { int *p = escape(); exit(*p); }";
    let unit = parse(dangling).unwrap();
    let r = interp::run(&unit, &[], 100_000);
    println!("dangling stack frame, source semantics:");
    match r.outcome {
        InterpOutcome::Trap(v) => println!("  trap: {v}\n"),
        other => println!("  {other:?}\n"),
    }

    // The explicit case: the use-after-free experiment, end to end.
    let report = HeapUafExperiment.run(&CampaignConfig::default());
    for table in HeapUafExperiment.tables(&report) {
        println!("{table}");
    }
    println!(
        "source semantics for the attack input: {}",
        report.source_verdict
    );
    println!();
    println!("victim source:\n{}", heap_uaf::VICTIM_UAF);
}
