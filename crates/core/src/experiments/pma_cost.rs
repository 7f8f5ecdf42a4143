//! Experiment E12 — the cost of protected-module isolation (§IV-A).
//!
//! The access-control checks of a PMA are performed by the hardware on
//! every access; in this reproduction they are performed by the VM on
//! every step, so the *guest* instruction count is unchanged while the
//! *host* pays per-access checking cost (measured by the Criterion
//! bench `pma_cost`). What compiled code does pay for is §IV-B secure
//! compilation: the defensive function-pointer check and the register
//! scrub add instructions on every cross-boundary call. This driver
//! measures those guest-visible costs.

use swsec_vm::cpu::RunOutcome;

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::fig4::{build_module, single_call, FnPtrChoice};
use crate::experiments::{only_cell, Experiment};
use crate::report::{ExperimentId, Table};

/// Instruction costs of one `get_secret` call.
#[derive(Debug, Clone, Copy)]
pub struct CallCost {
    /// Guest instructions for the whole call with the naive module.
    pub naive_instructions: u64,
    /// Guest instructions with the securely compiled module.
    pub secure_instructions: u64,
}

impl CallCost {
    /// Relative overhead of secure compilation.
    pub fn relative(&self) -> f64 {
        self.secure_instructions as f64 / self.naive_instructions as f64 - 1.0
    }
}

/// Full E12 results.
#[derive(Debug, Clone)]
pub struct PmaCostReport {
    /// The measured per-call costs.
    pub cost: CallCost,
}

fn instructions_for(secure: bool) -> u64 {
    let module = build_module(57, secure);
    // Reuse the single-call harness but count instructions: replicate
    // its machine setup through a fresh call and read the stats.
    let (outcome, _) = single_call(&module, FnPtrChoice::HonestGetPin, 57);
    assert_eq!(outcome, RunOutcome::Halted(666));
    // single_call does not expose the machine; measure again inline.
    let module = build_module(57, secure);
    let mut m = crate::experiments::fig4::machine_for_cost_probe(&module, 57);
    let outcome = m.run(100_000);
    assert_eq!(outcome, RunOutcome::Halted(666));
    m.stats().instructions
}

/// E12 under the campaign API.
pub struct PmaCostExperiment;

impl Experiment for PmaCostExperiment {
    type Cell = PmaCostReport;
    type Output = PmaCostReport;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(12)
    }

    fn title(&self) -> &'static str {
        "Isolation cost"
    }

    /// Runs the E12 measurement.
    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, _cell: usize) -> PmaCostReport {
        PmaCostReport {
            cost: CallCost {
                naive_instructions: instructions_for(false),
                secure_instructions: instructions_for(true),
            },
        }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<PmaCostReport>) -> PmaCostReport {
        only_cell(cells)
    }

    fn tables(&self, report: &PmaCostReport) -> Vec<Table> {
        let mut t = Table::new(
            "E12: guest-instruction cost of secure compilation (per module call)",
            &["compilation", "instructions / call", "overhead"],
        );
        t.row(vec![
            "naive".to_string(),
            report.cost.naive_instructions.to_string(),
            "-".to_string(),
        ]);
        t.row(vec![
            "secure (§IV-B checks + scrubbing)".to_string(),
            report.cost.secure_instructions.to_string(),
            format!("{:+.1}%", report.cost.relative() * 100.0),
        ]);
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> PmaCostReport {
        PmaCostExperiment.run(&CampaignConfig::default())
    }

    #[test]
    fn secure_compilation_costs_a_bounded_premium() {
        let r = run();
        assert!(
            r.cost.secure_instructions > r.cost.naive_instructions,
            "secure compilation adds instructions"
        );
        // The premium is a handful of checks and scrubs per call, not a
        // multiple of the work.
        assert!(
            r.cost.relative() < 1.0,
            "overhead should stay below 2x, got {:+.1}%",
            r.cost.relative() * 100.0
        );
    }

    #[test]
    fn table_renders() {
        assert!(PmaCostExperiment.report(&run()).render().contains("secure"));
    }
}
