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

use std::any::Any;

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::report::{ExperimentId, Report, Table};

/// The uniform interface every experiment driver implements.
///
/// An experiment decomposes into `cells()` independent units of work;
/// [`run_cell`](Experiment::run_cell) executes one — depending only on
/// the configuration, the shared context and the cell index, never on
/// execution order — and returns its typed
/// [`Cell`](Experiment::Cell). [`assemble`](Experiment::assemble)
/// folds the cells (in cell order) into the typed
/// [`Output`](Experiment::Output) that tests and examples read, and
/// [`tables`](Experiment::tables) renders that output. Single-cell
/// experiments have one cell; grids like the E3 matrix expose one cell
/// per grid point so the campaign runner can spread them across
/// workers.
///
/// There is one path per experiment: [`run`](Experiment::run) drives
/// the same `run_cell`/`assemble` sequentially that the campaign
/// drives on its workers, so an assertion on `run`'s output checks
/// what the campaign renders. The registry and the campaign hold
/// experiments as [`AnyExperiment`] trait objects.
pub trait Experiment: Sync {
    /// What one cell produces.
    type Cell: Send + 'static;
    /// The assembled result.
    type Output;

    /// Which experiment this is.
    fn id(&self) -> ExperimentId;

    /// Human-readable title, used as the report heading.
    fn title(&self) -> &'static str;

    /// Number of independent cells under `cfg`. Zero is allowed: the
    /// experiment then assembles its output from no cells.
    fn cells(&self, _cfg: &CampaignConfig) -> usize {
        1
    }

    /// Runs cell `cell`. Must be a pure function of
    /// `(cfg, cell)` plus the derived seed
    /// [`CampaignConfig::cell_seed`]`(self.id(), cell)`.
    fn run_cell(&self, cfg: &CampaignConfig, ctx: &CampaignCtx, cell: usize) -> Self::Cell;

    /// Folds the cells (cell order) into the output.
    fn assemble(&self, cfg: &CampaignConfig, cells: Vec<Self::Cell>) -> Self::Output;

    /// Renders the output as the report's tables.
    fn tables(&self, out: &Self::Output) -> Vec<Table>;

    /// The report of `out`: this experiment's id, title and tables.
    fn report(&self, out: &Self::Output) -> Report {
        Report {
            id: self.id(),
            title: self.title().to_string(),
            tables: self.tables(out),
        }
    }

    /// Runs the whole experiment sequentially: the uniform entry point
    /// for callers that do not need the campaign pool.
    fn run(&self, cfg: &CampaignConfig) -> Self::Output {
        self.run_with(cfg, &CampaignCtx::new())
    }

    /// Like [`run`](Experiment::run), sharing the caller's context
    /// (and hence compile cache). Lays out cells as the campaign does.
    fn run_with(&self, cfg: &CampaignConfig, ctx: &CampaignCtx) -> Self::Output {
        let cells = (0..self.cells(cfg))
            .map(|cell| self.run_cell(cfg, ctx, cell))
            .collect();
        self.assemble(cfg, cells)
    }
}

/// A cell output with its type erased, as the campaign runner holds it.
pub type AnyCell = Box<dyn Any + Send>;

/// An [`Experiment`] with its cell and output types erased: what the
/// registry and the campaign runner hold. Implemented for every
/// `Experiment`; that impl is the only place a cell is boxed.
pub trait AnyExperiment: Sync {
    /// [`Experiment::id`].
    fn id(&self) -> ExperimentId;

    /// [`Experiment::title`].
    fn title(&self) -> &'static str;

    /// [`Experiment::cells`].
    fn cells(&self, cfg: &CampaignConfig) -> usize;

    /// [`Experiment::run_cell`], boxed.
    fn run_cell_boxed(&self, cfg: &CampaignConfig, ctx: &CampaignCtx, cell: usize) -> AnyCell;

    /// [`Experiment::assemble`] over cells from
    /// [`run_cell_boxed`](AnyExperiment::run_cell_boxed), rendered by
    /// [`Experiment::report`].
    fn assemble_report(&self, cfg: &CampaignConfig, cells: Vec<AnyCell>) -> Report;

    /// [`Experiment::run_with`], rendered by [`Experiment::report`].
    fn run_report(&self, cfg: &CampaignConfig, ctx: &CampaignCtx) -> Report;
}

impl<E: Experiment> AnyExperiment for E {
    fn id(&self) -> ExperimentId {
        Experiment::id(self)
    }

    fn title(&self) -> &'static str {
        Experiment::title(self)
    }

    fn cells(&self, cfg: &CampaignConfig) -> usize {
        Experiment::cells(self, cfg)
    }

    fn run_cell_boxed(&self, cfg: &CampaignConfig, ctx: &CampaignCtx, cell: usize) -> AnyCell {
        Box::new(self.run_cell(cfg, ctx, cell))
    }

    fn assemble_report(&self, cfg: &CampaignConfig, cells: Vec<AnyCell>) -> Report {
        let cells = cells
            .into_iter()
            .map(|cell| *cell.downcast::<E::Cell>().expect("own cell"))
            .collect();
        self.report(&self.assemble(cfg, cells))
    }

    fn run_report(&self, cfg: &CampaignConfig, ctx: &CampaignCtx) -> Report {
        self.report(&self.run_with(cfg, ctx))
    }
}

/// Every experiment, in presentation order E1–E16.
pub fn registry() -> &'static [&'static dyn AnyExperiment] {
    static REGISTRY: [&dyn AnyExperiment; 16] = [
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

/// The output of a single-cell experiment: its one cell.
fn only_cell<T>(mut cells: Vec<T>) -> T {
    cells.swap_remove(0)
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
