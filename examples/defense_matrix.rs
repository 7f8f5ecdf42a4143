//! Regenerates the full experiment tables of the reproduction: the
//! E2 catalogue, the E3 attack × countermeasure matrix, the E4 ASLR
//! sweep, the E5 overhead table, the E6 analysis table and the E14
//! canary oracle.
//!
//! ```text
//! cargo run --release --example defense_matrix
//! ```

use swsec::campaign::{CampaignConfig, CampaignCtx};
use swsec::experiments::analysis::AnalysisExperiment;
use swsec::experiments::aslr::AslrExperiment;
use swsec::experiments::canary_oracle::CanaryOracleExperiment;
use swsec::experiments::catalogue::CatalogueExperiment;
use swsec::experiments::matrix::MatrixExperiment;
use swsec::experiments::overhead::OverheadExperiment;
use swsec::experiments::Experiment;

/// Runs `exp` through its cells and prints its tables.
fn show<E: Experiment>(exp: E, cfg: &CampaignConfig, ctx: &CampaignCtx) {
    for table in exp.tables(&exp.run_with(cfg, ctx)) {
        println!("{table}");
    }
}

fn main() {
    // Keep the E4 sweep small outside --release; the campaign runs the
    // full version.
    let cfg = CampaignConfig {
        master_seed: 42,
        aslr_bits_levels: vec![2, 4, 6],
        aslr_trials: 5,
        oracle_budget: 2048,
        ..CampaignConfig::default()
    };
    // One compile cache: every victim/options pair below compiles
    // exactly once across all six experiments.
    let ctx = CampaignCtx::new();

    show(CatalogueExperiment, &cfg, &ctx);
    show(MatrixExperiment, &cfg, &ctx);
    show(AslrExperiment, &cfg, &ctx);
    show(OverheadExperiment, &cfg, &ctx);
    show(AnalysisExperiment, &cfg, &ctx);
    // E14: the crash-oracle canary brute force against a forking server.
    show(CanaryOracleExperiment, &cfg, &ctx);
}
