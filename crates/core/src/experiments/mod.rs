//! The experiment drivers: one module per figure/table of the
//! reproduction (see `DESIGN.md` §5 for the index).
//!
//! | module | experiment |
//! |---|---|
//! | [`fig1`] | E1 — Figure 1: source/machine-code/run-time state |
//! | [`catalogue`] | E2 — vulnerability & attack catalogue |
//! | [`matrix`] | E3 — attack × countermeasure matrix |
//! | [`aslr`] | E4 — ASLR brute-force sweep |
//! | [`overhead`] | E5 — countermeasure instruction overhead |
//! | [`analysis`] | E6 — static analysis & run-time checking |
//! | [`scraping`] | E7 — Figure 2: memory scraping vs PMA |
//! | [`pma_rules`] | E8 — Figure 3: the access-control rules |
//! | [`fig4`] | E9 — Figure 4: secure compilation |
//! | [`attest`] | E10 — remote attestation |
//! | [`continuity`] | E11 — state continuity & rollback |
//! | [`pma_cost`] | E12 — isolation cost |
//! | [`strict_reentry`] | E13 — strict-policy secure compilation |
//! | [`canary_oracle`] | E14 — byte-by-byte canary brute force |
//! | [`heap_uaf`] | E15 — use-after-free and heap quarantine |
//! | [`crash_matrix`] | E16 — crash/fault matrix vs state continuity |

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::report::{ExperimentId, Report, Table};

/// The uniform interface every experiment driver implements.
///
/// An experiment decomposes into `cells()` independent units of work;
/// [`run_cell`](Experiment::run_cell) executes one — depending only on
/// the configuration, the shared context and the cell index, never on
/// execution order — and [`assemble`](Experiment::assemble) folds the
/// outputs (in cell order) into the final [`Report`]. Single-shot
/// experiments have one cell; grids like the E3 matrix expose one cell
/// per grid point so the campaign runner can spread them across
/// workers.
///
/// Cell outputs travel as `Vec<Table>`: either the finished tables
/// (single-cell experiments) or small carrier tables `assemble`
/// pivots into the final shape.
pub trait Experiment: Sync {
    /// Which experiment this is.
    fn id(&self) -> ExperimentId;

    /// Human-readable title, used as the report heading.
    fn title(&self) -> &'static str;

    /// Number of independent cells under `cfg` (at least 1).
    fn cells(&self, _cfg: &CampaignConfig) -> usize {
        1
    }

    /// Runs cell `cell`. Must be a pure function of
    /// `(cfg, cell)` plus the derived seed
    /// [`CampaignConfig::cell_seed`]`(self.id(), cell)`.
    fn run_cell(&self, cfg: &CampaignConfig, ctx: &CampaignCtx, cell: usize) -> Vec<Table>;

    /// Folds the cell outputs (cell order) into the report.
    fn assemble(&self, cfg: &CampaignConfig, cells: Vec<Vec<Table>>) -> Report;

    /// Runs the whole experiment sequentially: the uniform entry point
    /// for callers that do not need the campaign pool.
    fn run(&self, cfg: &CampaignConfig) -> Report {
        self.run_with(cfg, &CampaignCtx::new())
    }

    /// Like [`run`](Experiment::run), sharing the caller's context
    /// (and hence compile cache).
    fn run_with(&self, cfg: &CampaignConfig, ctx: &CampaignCtx) -> Report {
        let cells = (0..self.cells(cfg))
            .map(|cell| self.run_cell(cfg, ctx, cell))
            .collect();
        self.assemble(cfg, cells)
    }
}

/// Every experiment, in presentation order E1–E16.
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 16] = [
        &fig1::Fig1Experiment,
        &catalogue::CatalogueExperiment,
        &matrix::MatrixExperiment,
        &aslr::AslrExperiment,
        &overhead::OverheadExperiment,
        &analysis::AnalysisExperiment,
        &scraping::ScrapingExperiment,
        &pma_rules::PmaRulesExperiment,
        &fig4::Fig4Experiment,
        &attest::AttestExperiment,
        &continuity::ContinuityExperiment,
        &pma_cost::PmaCostExperiment,
        &strict_reentry::StrictReentryExperiment,
        &canary_oracle::CanaryOracleExperiment,
        &heap_uaf::HeapUafExperiment,
        &crash_matrix::CrashMatrixExperiment,
    ];
    &REGISTRY
}

/// Shorthand: wraps already-final tables from a single-cell experiment
/// into its report.
fn single_cell_report(id: ExperimentId, title: &str, mut cells: Vec<Vec<Table>>) -> Report {
    let mut report = Report::new(id, title);
    report.tables = cells.swap_remove(0);
    report
}

pub mod analysis;
pub mod aslr;
pub mod attest;
pub mod canary_oracle;
pub mod catalogue;
pub mod continuity;
pub mod crash_matrix;
pub mod fig1;
pub mod fig4;
pub mod heap_uaf;
pub mod matrix;
pub mod overhead;
pub mod pma_cost;
pub mod pma_rules;
pub mod scraping;
pub mod strict_reentry;
