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

use crate::experiments::fig4::{build_module, single_call, FnPtrChoice};
use crate::report::Table;

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

impl PmaCostReport {
    /// Renders the report.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E12: guest-instruction cost of secure compilation (per module call)",
            &["compilation", "instructions / call", "overhead"],
        );
        t.row(vec![
            "naive".to_string(),
            self.cost.naive_instructions.to_string(),
            "-".to_string(),
        ]);
        t.row(vec![
            "secure (§IV-B checks + scrubbing)".to_string(),
            self.cost.secure_instructions.to_string(),
            format!("{:+.1}%", self.cost.relative() * 100.0),
        ]);
        t
    }
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

/// Runs the E12 measurement.
pub fn compute() -> PmaCostReport {
    PmaCostReport {
        cost: CallCost {
            naive_instructions: instructions_for(false),
            secure_instructions: instructions_for(true),
        },
    }
}

/// E12 under the campaign API.
pub struct PmaCostExperiment;

impl crate::experiments::Experiment for PmaCostExperiment {
    fn id(&self) -> crate::report::ExperimentId {
        crate::report::ExperimentId::new(12)
    }

    fn title(&self) -> &'static str {
        "Isolation cost"
    }

    fn run_cell(
        &self,
        _cfg: &crate::campaign::CampaignConfig,
        _ctx: &crate::campaign::CampaignCtx,
        _cell: usize,
    ) -> Vec<crate::report::Table> {
        let report = compute();
        vec![report.table()]
    }

    fn assemble(
        &self,
        _cfg: &crate::campaign::CampaignConfig,
        cells: Vec<Vec<crate::report::Table>>,
    ) -> crate::report::Report {
        crate::experiments::single_cell_report(self.id(), self.title(), cells)
    }
}

#[cfg(test)]
mod tests {

    use super::compute as run;

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
        assert!(run().table().to_string().contains("secure"));
    }
}
