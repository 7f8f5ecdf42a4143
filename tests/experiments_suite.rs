//! One integration test per experiment: regenerates each figure/table
//! driver through its typed `Experiment::run` — the cells and assembly
//! the campaign renders — and asserts the *shape* of the result the
//! paper claims. `EXPERIMENTS.md` documents the same shapes in prose.

use swsec::campaign::{CampaignConfig, CampaignCtx};
use swsec::experiments::*;

/// The suite's configuration: small E4 and E14 campaigns under
/// `master_seed`.
fn config(master_seed: u64) -> CampaignConfig {
    CampaignConfig {
        master_seed,
        aslr_bits_levels: vec![2, 4],
        aslr_trials: 6,
        oracle_budget: 2048,
        ..CampaignConfig::default()
    }
}

#[test]
fn e1_figure1_layout() {
    let report = fig1::Fig1Experiment.run(&config(1));
    assert_eq!(report.facts.saved_bp_slot, report.facts.buf_addr + 16);
    assert_eq!(report.facts.ret_slot, report.facts.saved_bp_slot + 4);
    assert_eq!(report.facts.buf_word0, 0x4443_4241); // "ABCD" little-endian
}

#[test]
fn e2_catalogue() {
    let c = catalogue::CatalogueExperiment.run(&config(42));
    assert!(c.vulnerabilities.iter().all(|v| v.source_trapped));
    assert!(c.attacks.iter().all(|(_, ok, _)| *ok));
}

#[test]
fn e3_matrix_shape() {
    let m = matrix::MatrixExperiment.run(&config(42));
    let per_config = m.compromises_per_config();
    // none > modern > bounds; every single mitigation leaks something.
    assert_eq!(*per_config.first().unwrap(), 7);
    assert_eq!(*per_config.last().unwrap(), 0);
    assert!(per_config[5] >= 1 && per_config[5] < per_config[0]);
}

#[test]
fn e4_aslr_scaling() {
    let sweep = aslr::AslrExperiment.run(&config(11));
    assert!(sweep.rows[1].mean_attempts > sweep.rows[0].mean_attempts);
    assert_eq!(sweep.rows[0].leak_attempts, 1);
}

#[test]
fn e5_overhead_shape() {
    let report = overhead::OverheadExperiment.run(&config(0));
    for r in report.rows.iter().filter(|r| r.workload != "call-heavy") {
        assert!(
            r.bounds > r.canary,
            "{}: {} vs {}",
            r.workload,
            r.bounds,
            r.canary
        );
    }
}

#[test]
fn e6_analysis_tradeoffs() {
    let r = analysis::AnalysisExperiment.run(&config(0));
    assert_eq!(r.precise.false_positives, 0);
    assert!(r.paranoid.true_positives >= r.precise.true_positives);
    assert!(r.runtime_with_trigger.true_positives > r.runtime_benign_only.true_positives);
}

#[test]
fn e7_scraping() {
    let r = scraping::ScrapingExperiment.run(&config(0));
    assert!(r
        .trials
        .iter()
        .filter(|t| !t.protected)
        .all(|t| t.found_secret));
    assert!(r
        .trials
        .iter()
        .filter(|t| t.protected)
        .all(|t| !t.found_secret));
}

#[test]
fn e8_rules() {
    assert!(pma_rules::PmaRulesExperiment.run(&config(0)).all_match());
}

#[test]
fn e9_secure_compilation() {
    let r = fig4::Fig4Experiment.run(&config(0));
    assert!(!r.honest_brute.found);
    assert!(r.naive_brute.found);
    assert!(r.secure_brute.trapped && !r.secure_brute.found);
}

#[test]
fn e10_attestation() {
    assert!(attest::AttestExperiment.run(&config(0)).all_match());
}

#[test]
fn e11_continuity() {
    let r = continuity::ContinuityExperiment.run(&config(0));
    let naive = r
        .rollback
        .iter()
        .find(|(s, _)| *s == continuity::Scheme::Naive)
        .unwrap();
    assert!(naive.1.found);
    for (s, result) in r
        .rollback
        .iter()
        .filter(|(s, _)| *s != continuity::Scheme::Naive)
    {
        assert!(!result.found, "{s:?}");
    }
    // Liveness: the plain counter bricks somewhere; two-phase never.
    let counter = r
        .liveness
        .iter()
        .find(|(s, _)| *s == continuity::Scheme::Counter)
        .unwrap();
    assert!(counter
        .1
        .outcomes
        .iter()
        .any(|(_, recovered, _)| !recovered));
    let two_phase = r
        .liveness
        .iter()
        .find(|(s, _)| *s == continuity::Scheme::TwoPhase)
        .unwrap();
    assert!(two_phase
        .1
        .outcomes
        .iter()
        .all(|(_, recovered, _)| *recovered));
}

#[test]
fn e13_strict_reentry() {
    assert!(strict_reentry::StrictReentryExperiment
        .run(&config(0))
        .all_ok());
}

#[test]
fn e14_canary_oracle() {
    let r = canary_oracle::CanaryOracleExperiment.run(&config(31));
    assert!(r.forking.recovered && r.forking.smash_succeeded);
    // The recovered canary is the one the forking server installed.
    assert_eq!(Some(r.forking.canary), r.actual_canary);
    assert!(r.forking.attempts <= 1024);
    assert!(!r.fresh.smash_succeeded);
}

#[test]
fn e15_heap_uaf() {
    let r = heap_uaf::HeapUafExperiment.run(&config(0));
    assert!(r.trials.iter().any(|t| t.compromised));
    assert!(r
        .trials
        .iter()
        .filter(|t| t.allocator == "quarantine")
        .all(|t| !t.compromised));
}

#[test]
fn e12_pma_cost() {
    let r = pma_cost::PmaCostExperiment.run(&config(0));
    assert!(r.cost.secure_instructions > r.cost.naive_instructions);
}

#[test]
fn all_tables_render_nonempty() {
    let (cfg, ctx) = (config(42), CampaignCtx::new());
    let rendered: String = registry()
        .iter()
        .map(|e| e.run_report(&cfg, &ctx).render())
        .collect();
    assert!(rendered.len() > 2000);
    assert!(rendered.contains("COMPROMISED"));
    assert!(rendered.contains("BRICKED"));
}
