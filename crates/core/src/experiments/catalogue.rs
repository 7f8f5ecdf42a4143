//! Experiment E2 — the vulnerability and attack catalogue of §III-A
//! and §III-B.
//!
//! Part 1 demonstrates the vulnerability *classes*: for each, the
//! reference semantics trap (the source specifies a violation) while
//! the unprotected machine sails past the trap point — the gap every
//! attack lives in.
//!
//! Part 2 runs every §III-B attack technique against the unprotected
//! platform and records the compromise.

use swsec_defenses::DefenseConfig;
use swsec_minc::interp::{self, InterpOutcome};
use swsec_minc::parse;

use crate::attacker::{run_technique_cached, Technique};
use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::{only_cell, Experiment};
use crate::report::{ExperimentId, Table};

/// A demonstrated vulnerability class.
#[derive(Debug, Clone)]
pub struct VulnDemo {
    /// Name of the class.
    pub name: &'static str,
    /// What the source semantics say (the trap message).
    pub source_verdict: String,
    /// Whether the reference semantics trapped, as expected.
    pub source_trapped: bool,
}

/// The catalogue results.
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// Vulnerability-class demonstrations.
    pub vulnerabilities: Vec<VulnDemo>,
    /// Attack technique outcomes on the unprotected platform.
    pub attacks: Vec<(Technique, bool, String)>,
}

fn source_trap(src: &str, input: &[u8]) -> (bool, String) {
    let unit = parse(src).expect("demo source parses");
    let result = interp::run(&unit, &[(0, input.to_vec())], 1_000_000);
    match result.outcome {
        InterpOutcome::Trap(v) => (true, v.message),
        other => (false, format!("{other:?}")),
    }
}

/// E2 under the campaign API.
pub struct CatalogueExperiment;

impl Experiment for CatalogueExperiment {
    type Cell = Catalogue;
    type Output = Catalogue;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(2)
    }

    fn title(&self) -> &'static str {
        "Vulnerability and attack catalogue"
    }

    /// Runs the catalogue, compiling victims through the campaign cache.
    fn run_cell(&self, cfg: &CampaignConfig, ctx: &CampaignCtx, cell: usize) -> Catalogue {
        let seed = cfg.cell_seed(self.id(), cell);
        let spatial = source_trap(
            // The Figure 1 bug: the read length says 32 but the buffer is 16.
            "void get_request(int fd, char buf[]) { read(fd, buf, 32); }\n\
             void process(int fd) { char buf[16]; get_request(fd, buf); }\n\
             void main() { process(0); }",
            &[b'A'; 32],
        );
        let indexed = source_trap(
            // buf[i] = v with attacker-controlled i: the whole address space
            // at machine level, a defined trap at source level.
            "char table[16];\n\
             void main() { char cmd[5]; read(0, cmd, 5); \
              int idx = cmd[0] + (cmd[1] << 8); table[idx] = cmd[4]; }",
            &[0xFF, 0x7F, 0, 0, 0x41],
        );
        let temporal = source_trap(
            "int *escape() { int local = 7; return &local; }\n\
             void main() { int *p = escape(); exit(*p); }",
            &[],
        );
        let vulnerabilities = vec![
            VulnDemo {
                name: "spatial (buffer overflow)",
                source_verdict: spatial.1,
                source_trapped: spatial.0,
            },
            VulnDemo {
                name: "spatial (indexed write, full address space)",
                source_verdict: indexed.1,
                source_trapped: indexed.0,
            },
            VulnDemo {
                name: "temporal (dangling frame pointer)",
                source_verdict: temporal.1,
                source_trapped: temporal.0,
            },
        ];

        let attacks = Technique::ALL
            .iter()
            .map(|&t| {
                let result = run_technique_cached(t, DefenseConfig::none(), seed, &ctx.cache)
                    .expect("built-in victims compile");
                let ok = result.outcome.succeeded();
                let detail = match &result.outcome {
                    crate::attacker::AttackOutcome::Success { evidence } => evidence.clone(),
                    other => other.cell(),
                };
                (t, ok, detail)
            })
            .collect();

        Catalogue {
            vulnerabilities,
            attacks,
        }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<Catalogue>) -> Catalogue {
        only_cell(cells)
    }

    fn tables(&self, catalogue: &Catalogue) -> Vec<Table> {
        let mut vulns = Table::new(
            "E2a: memory-safety vulnerability classes (§III-A)",
            &["class", "source-level verdict"],
        );
        for v in &catalogue.vulnerabilities {
            vulns.row(vec![v.name.to_string(), v.source_verdict.clone()]);
        }
        let mut attacks = Table::new(
            "E2b: attack techniques vs the unprotected platform (§III-B)",
            &["technique", "result"],
        );
        for (t, ok, evidence) in &catalogue.attacks {
            attacks.row(vec![
                t.label().to_string(),
                if *ok {
                    format!("COMPROMISED — {evidence}")
                } else {
                    evidence.clone()
                },
            ]);
        }
        vec![vulns, attacks]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(master_seed: u64) -> Catalogue {
        CatalogueExperiment.run(&CampaignConfig {
            master_seed,
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn all_vulnerability_classes_trap_at_source_level() {
        let c = run(3);
        assert_eq!(c.vulnerabilities.len(), 3);
        for v in &c.vulnerabilities {
            assert!(
                v.source_trapped,
                "{} did not trap: {}",
                v.name, v.source_verdict
            );
        }
    }

    #[test]
    fn every_technique_compromises_unprotected_platform() {
        let c = run(3);
        assert_eq!(c.attacks.len(), 7);
        for (t, ok, cell) in &c.attacks {
            assert!(ok, "{t} did not succeed: {cell}");
        }
    }

    #[test]
    fn tables_render() {
        let tables = CatalogueExperiment.tables(&run(3));
        assert_eq!(tables.len(), 2);
        assert!(tables[1].to_string().contains("COMPROMISED"));
    }
}
