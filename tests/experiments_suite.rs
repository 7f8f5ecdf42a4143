//! One integration test per experiment: regenerates each figure/table
//! driver and asserts the *shape* of the result the paper claims.
//! `EXPERIMENTS.md` documents the same shapes in prose.

use swsec::cache::ProgramCache;
use swsec::experiments::*;
use swsec::harness::ServeMode;

#[test]
fn e1_figure1_layout() {
    let report = fig1::compute(&ProgramCache::new(), 1);
    assert_eq!(report.facts.saved_bp_slot, report.facts.buf_addr + 16);
    assert_eq!(report.facts.ret_slot, report.facts.saved_bp_slot + 4);
    assert_eq!(report.facts.buf_word0, 0x4443_4241); // "ABCD" little-endian
}

#[test]
fn e2_catalogue() {
    let c = catalogue::compute(42, &ProgramCache::new());
    assert!(c.vulnerabilities.iter().all(|v| v.source_trapped));
    assert!(c.attacks.iter().all(|(_, ok, _)| *ok));
}

#[test]
fn e3_matrix_shape() {
    let m = matrix::compute(42, &ProgramCache::new());
    let per_config = m.compromises_per_config();
    // none > modern > bounds; every single mitigation leaks something.
    assert_eq!(*per_config.first().unwrap(), 7);
    assert_eq!(*per_config.last().unwrap(), 0);
    assert!(per_config[5] >= 1 && per_config[5] < per_config[0]);
}

#[test]
fn e4_aslr_scaling() {
    let sweep = aslr::compute(&[2, 4], 6, 11, &ProgramCache::new(), ServeMode::Fork);
    assert!(sweep.rows[1].mean_attempts > sweep.rows[0].mean_attempts);
    assert_eq!(sweep.rows[0].leak_attempts, 1);
}

#[test]
fn e5_overhead_shape() {
    let report = overhead::compute();
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
    let r = analysis::compute();
    assert_eq!(r.precise.false_positives, 0);
    assert!(r.paranoid.true_positives >= r.precise.true_positives);
    assert!(r.runtime_with_trigger.true_positives > r.runtime_benign_only.true_positives);
}

#[test]
fn e7_scraping() {
    let r = scraping::compute();
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
    assert!(pma_rules::compute().all_match());
}

#[test]
fn e9_secure_compilation() {
    let r = fig4::compute();
    assert!(!r.honest_brute.found);
    assert!(r.naive_brute.found);
    assert!(r.secure_brute.trapped && !r.secure_brute.found);
}

#[test]
fn e10_attestation() {
    assert!(attest::compute().all_match());
}

#[test]
fn e11_continuity() {
    let r = continuity::compute();
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
    assert!(strict_reentry::compute().all_ok());
}

#[test]
fn e14_canary_oracle() {
    let r = canary_oracle::compute(31, 2048, &ProgramCache::new(), ServeMode::Fork);
    assert!(r.forking.recovered && r.forking.smash_succeeded);
    assert!(r.forking.attempts <= 1024);
    assert!(!r.fresh.smash_succeeded);
}

#[test]
fn e15_heap_uaf() {
    let r = heap_uaf::compute();
    assert!(r.trials.iter().any(|t| t.compromised));
    assert!(r
        .trials
        .iter()
        .filter(|t| t.allocator == "quarantine")
        .all(|t| !t.compromised));
}

#[test]
fn e12_pma_cost() {
    let r = pma_cost::compute();
    assert!(r.cost.secure_instructions > r.cost.naive_instructions);
}

#[test]
fn all_tables_render_nonempty() {
    let cache = ProgramCache::new();
    let mut rendered = String::new();
    for t in catalogue::compute(42, &cache).tables() {
        rendered.push_str(&t.to_string());
    }
    rendered.push_str(&matrix::compute(42, &cache).table().to_string());
    rendered.push_str(&overhead::compute().table().to_string());
    rendered.push_str(&analysis::compute().table().to_string());
    rendered.push_str(&scraping::compute().table().to_string());
    rendered.push_str(&pma_rules::compute().table().to_string());
    for t in fig4::compute().tables() {
        rendered.push_str(&t.to_string());
    }
    rendered.push_str(&attest::compute().table().to_string());
    for t in continuity::compute().tables() {
        rendered.push_str(&t.to_string());
    }
    rendered.push_str(&pma_cost::compute().table().to_string());
    rendered.push_str(&strict_reentry::compute().table().to_string());
    rendered.push_str(
        &canary_oracle::compute(31, 2048, &cache, ServeMode::Fork)
            .table()
            .to_string(),
    );
    rendered.push_str(&heap_uaf::compute().table().to_string());
    assert!(rendered.len() > 2000);
    assert!(rendered.contains("COMPROMISED"));
    assert!(rendered.contains("BRICKED"));
}
