//! Experiment E13 (extension) — strict-policy secure compilation.
//!
//! The paper states the entry rule absolutely: "the only way for the
//! IP to enter a protected module is by jumping to one of the
//! designated entry points." A module that calls *out* (the Figure 4
//! module calls `get_pin()`) then has a problem: the external code's
//! `ret` re-enters the module at an arbitrary interior address. The
//! relaxed `AllowReturns` policy tolerates that; the full secure-
//! compilation scheme of the paper's reference \[30\] does not need the
//! relaxation: the compiler routes every out-call through a protected
//! continuation stack and a single designated *return entry point*.
//!
//! This experiment shows the whole story:
//!
//! * a relaxed-compiled module is functionally **broken** under the
//!   strict policy (its first out-call never comes back);
//! * the strict-compiled module works under the strict policy;
//! * the Figure 4 interior-pointer attack is still trapped;
//! * jumping straight to the return entry with no pending out-call
//!   trips the continuation-underflow check;
//! * jumping anywhere else trips the PMA entry rule itself.

use swsec_vm::cpu::{Fault, RunOutcome};
use swsec_vm::isa::trap;
use swsec_vm::policy::ReentryPolicy;

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::fig4::{
    self, build_module, build_module_strict, jump_to_reentry, single_call_with_policy, FnPtrChoice,
};
use crate::experiments::{only_cell, Experiment};
use crate::report::{ExperimentId, Table};

/// One scenario row.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Description.
    pub name: &'static str,
    /// What happened.
    pub outcome: String,
    /// Whether it matches the secure-compilation claim.
    pub ok: bool,
}

/// Full E13 results.
#[derive(Debug, Clone)]
pub struct StrictReport {
    /// The scenarios.
    pub scenarios: Vec<Scenario>,
}

impl StrictReport {
    /// Whether every scenario matched expectations.
    pub fn all_ok(&self) -> bool {
        self.scenarios.iter().all(|s| s.ok)
    }
}

/// E13 under the campaign API.
pub struct StrictReentryExperiment;

impl Experiment for StrictReentryExperiment {
    type Cell = StrictReport;
    type Output = StrictReport;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(13)
    }

    fn title(&self) -> &'static str {
        "Strict-policy secure compilation"
    }

    /// Runs the E13 experiment.
    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, _cell: usize) -> StrictReport {
        let pin = 57;
        let mut scenarios = Vec::new();

        // 1. Relaxed compilation under the strict policy: the legitimate
        //    call breaks when the external get_pin tries to return.
        {
            let module = build_module(pin, true);
            let (outcome, _) = single_call_with_policy(
                &module,
                FnPtrChoice::HonestGetPin,
                pin,
                ReentryPolicy::EntryPointsOnly,
            );
            let ok = matches!(outcome, RunOutcome::Fault(Fault::Pma(_)));
            scenarios.push(Scenario {
                name: "relaxed compile, strict policy: honest call",
                outcome: outcome.to_string(),
                ok,
            });
        }

        // 2. Strict compilation under the strict policy: works.
        {
            let module = build_module_strict(pin);
            let (outcome, tries) = single_call_with_policy(
                &module,
                FnPtrChoice::HonestGetPin,
                pin,
                ReentryPolicy::EntryPointsOnly,
            );
            let ok = outcome == RunOutcome::Halted(666) && tries == 3;
            scenarios.push(Scenario {
                name: "strict compile, strict policy: honest call",
                outcome: outcome.to_string(),
                ok,
            });
        }

        // 3. Wrong PIN still burns a try (functional parity).
        {
            let module = build_module_strict(pin);
            let (outcome, tries) = single_call_with_policy(
                &module,
                FnPtrChoice::HonestGetPin,
                pin + 1,
                ReentryPolicy::EntryPointsOnly,
            );
            let ok = outcome == RunOutcome::Halted(0) && tries == 2;
            scenarios.push(Scenario {
                name: "strict compile: wrong PIN burns a try",
                outcome: format!("{outcome}; tries_left = {tries}"),
                ok,
            });
        }

        // 4. The Figure 4 interior-pointer attack: trapped by the fnptr
        //    defensive check before any transfer happens.
        {
            let module = build_module_strict(pin);
            let (outcome, tries) = single_call_with_policy(
                &module,
                FnPtrChoice::ResetGadget,
                0,
                ReentryPolicy::EntryPointsOnly,
            );
            let ok = matches!(
                outcome,
                RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::FNPTR
            ) && tries == 3;
            scenarios.push(Scenario {
                name: "strict compile: interior-pointer attack",
                outcome: outcome.to_string(),
                ok,
            });
        }

        // 5. Jumping straight to the return entry without a pending
        //    out-call: the continuation-underflow check fires.
        {
            let module = build_module_strict(pin);
            let outcome = jump_to_reentry(&module);
            let ok = matches!(
                outcome,
                RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::ASSERT
            );
            scenarios.push(Scenario {
                name: "malicious jump to the return entry",
                outcome: outcome.to_string(),
                ok,
            });
        }

        // 6. Jumping to an interior instruction from outside: the PMA
        //    entry rule itself refuses.
        {
            let module = build_module_strict(pin);
            let (outcome, _) = fig4::single_call_interior_jump(&module);
            let ok = matches!(outcome, RunOutcome::Fault(Fault::Pma(_)));
            scenarios.push(Scenario {
                name: "malicious jump into the module interior",
                outcome: outcome.to_string(),
                ok,
            });
        }

        StrictReport { scenarios }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<StrictReport>) -> StrictReport {
        only_cell(cells)
    }

    fn tables(&self, report: &StrictReport) -> Vec<Table> {
        let mut t = Table::new(
            "E13: secure compilation under the strict EntryPointsOnly policy",
            &["scenario", "outcome", "as specified"],
        );
        for s in &report.scenarios {
            t.row(vec![
                s.name.to_string(),
                s.outcome.clone(),
                if s.ok { "✓" } else { "✗" }.to_string(),
            ]);
        }
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> StrictReport {
        StrictReentryExperiment.run(&CampaignConfig::default())
    }

    #[test]
    fn all_strict_scenarios_hold() {
        let r = run();
        assert!(r.all_ok(), "{:#?}", r.scenarios);
        assert_eq!(r.scenarios.len(), 6);
    }

    #[test]
    fn strict_module_survives_repeated_calls() {
        // The continuation stack must balance across calls: three calls
        // in a row through one machine.
        let module = build_module_strict(57);
        for _ in 0..3 {
            let (outcome, _) = single_call_with_policy(
                &module,
                FnPtrChoice::HonestGetPin,
                57,
                ReentryPolicy::EntryPointsOnly,
            );
            assert_eq!(outcome, RunOutcome::Halted(666));
        }
    }

    #[test]
    fn table_renders() {
        assert!(StrictReentryExperiment
            .report(&run())
            .render()
            .contains("strict"));
    }
}
