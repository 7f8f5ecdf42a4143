//! Experiment E10 — remote attestation (§IV-C).
//!
//! The OS may tamper with a module before loading it. The platform
//! derives the module's key from a hash of the code it *actually*
//! loaded, so a tampered module holds the wrong key and cannot answer
//! the verifier's challenge.

use swsec_pma::platform::Measurement;
use swsec_pma::{attest, Platform, Verifier};

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::scraping::secret_module_image;
use crate::experiments::{only_cell, Experiment};
use crate::report::{ExperimentId, Table};

/// One attestation trial.
#[derive(Debug, Clone)]
pub struct AttestTrial {
    /// Scenario description.
    pub scenario: &'static str,
    /// Whether the verifier accepted.
    pub accepted: bool,
    /// Whether the paper's scheme says it should accept.
    pub expected: bool,
}

/// Full E10 results.
#[derive(Debug, Clone)]
pub struct AttestReport {
    /// The trials.
    pub trials: Vec<AttestTrial>,
}

impl AttestReport {
    /// Whether every trial matched expectations.
    pub fn all_match(&self) -> bool {
        self.trials.iter().all(|t| t.accepted == t.expected)
    }
}

/// E10 under the campaign API.
pub struct AttestExperiment;

impl Experiment for AttestExperiment {
    type Cell = AttestReport;
    type Output = AttestReport;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(10)
    }

    fn title(&self) -> &'static str {
        "Remote attestation"
    }

    /// Runs the E10 experiment.
    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, _cell: usize) -> AttestReport {
        let image = secret_module_image();
        let platform = Platform::new([0x77; 32]);
        let expected_measurement = Measurement::of(&image);
        let expected_key = platform.derive_key(expected_measurement);

        let mut trials = Vec::new();

        // Honest load: the platform derives the provisioned key.
        {
            let mut verifier = Verifier::new(expected_measurement, expected_key);
            let nonce = verifier.challenge(1);
            let key = platform.derive_key(Measurement::of(&image));
            let report = attest(&key, nonce, b"session-key-commitment");
            trials.push(AttestTrial {
                scenario: "honest module, honest platform",
                accepted: verifier.verify(nonce, &report),
                expected: true,
            });
        }

        // OS flips one bit of the module before loading.
        {
            let mut tampered = image.clone();
            tampered.tamper_code_bit(17, 3);
            let mut verifier = Verifier::new(expected_measurement, expected_key);
            let nonce = verifier.challenge(2);
            let key = platform.derive_key(Measurement::of(&tampered));
            let report = attest(&key, nonce, b"");
            trials.push(AttestTrial {
                scenario: "OS-tampered module (1 bit flipped)",
                accepted: verifier.verify(nonce, &report),
                expected: false,
            });
        }

        // The module runs on a different (attacker-controlled) platform.
        {
            let rogue = Platform::new([0x78; 32]);
            let mut verifier = Verifier::new(expected_measurement, expected_key);
            let nonce = verifier.challenge(3);
            let key = rogue.derive_key(Measurement::of(&image));
            let report = attest(&key, nonce, b"");
            trials.push(AttestTrial {
                scenario: "honest module on a rogue platform",
                accepted: verifier.verify(nonce, &report),
                expected: false,
            });
        }

        // Replay of an old accepted report.
        {
            let mut verifier = Verifier::new(expected_measurement, expected_key);
            let nonce = verifier.challenge(4);
            let key = platform.derive_key(Measurement::of(&image));
            let report = attest(&key, nonce, b"");
            let first = verifier.verify(nonce, &report);
            let replay = verifier.verify(nonce, &report);
            trials.push(AttestTrial {
                scenario: "fresh report",
                accepted: first,
                expected: true,
            });
            trials.push(AttestTrial {
                scenario: "replayed report (same nonce)",
                accepted: replay,
                expected: false,
            });
        }

        AttestReport { trials }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<AttestReport>) -> AttestReport {
        only_cell(cells)
    }

    fn tables(&self, report: &AttestReport) -> Vec<Table> {
        let mut t = Table::new(
            "E10: remote attestation of the secret module",
            &["scenario", "verifier", "expected"],
        );
        for trial in &report.trials {
            let word = |b: bool| if b { "ACCEPT" } else { "reject" };
            t.row(vec![
                trial.scenario.to_string(),
                word(trial.accepted).to_string(),
                word(trial.expected).to_string(),
            ]);
        }
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> AttestReport {
        AttestExperiment.run(&CampaignConfig::default())
    }

    #[test]
    fn all_attestation_outcomes_match_the_paper() {
        let r = run();
        assert!(r.all_match(), "{:#?}", r.trials);
        assert_eq!(r.trials.len(), 5);
    }

    #[test]
    fn table_renders() {
        assert!(AttestExperiment
            .report(&run())
            .render()
            .contains("tampered"));
    }
}
