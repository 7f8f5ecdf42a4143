//! Experiment E7 — Figure 2: the secret module under the machine-code
//! attacker.
//!
//! The paper's point, reproduced end-to-end: the module is *bug-free*,
//! so the I/O attacker gets nothing — but a machine-code attacker
//! (malicious module, or kernel malware) simply reads the secrets out
//! of the address space, unless the module is loaded into a protected
//! module.

use swsec_attacks::Scraper;
use swsec_defenses::DefenseConfig;
use swsec_minc::{compile, parse, CompileOptions};
use swsec_pma::{ModuleImage, Platform};
use swsec_vm::cpu::Machine;
use swsec_vm::mem::Perm;
use swsec_vm::policy::ReentryPolicy;

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::equiv::{self, Verdict};
use crate::experiments::{only_cell, Experiment};
use crate::report::{ExperimentId, Table};

/// The paper's Figure 2 secret module, verbatim in MinC.
pub const SECRET_MODULE: &str = "\
static int tries_left = 3;\n\
static int PIN = 1234;\n\
static int secret = 666;\n\
int get_secret(int provided_pin) {\n\
    if (tries_left > 0) {\n\
        if (PIN == provided_pin) {\n\
            tries_left = 3;\n\
            return secret;\n\
        } else { tries_left--; return 0; }\n\
    } else return 0;\n\
}\n";

/// Where the module lives in these experiments.
pub const MODULE_CODE_BASE: u32 = 0x0a00_0000;
/// Base of the module's data segment.
pub const MODULE_DATA_BASE: u32 = 0x0a10_0000;

/// Compiles the Figure 2 module as a loadable image.
pub fn secret_module_image() -> ModuleImage {
    let unit = parse(SECRET_MODULE).expect("module parses");
    let mut opts = CompileOptions {
        no_start: true,
        ..CompileOptions::default()
    };
    opts.layout.0.text_base = MODULE_CODE_BASE;
    opts.layout.0.data_base = MODULE_DATA_BASE;
    ModuleImage::from_compiled(&compile(&unit, &opts).expect("module compiles"))
}

/// One scraping trial.
#[derive(Debug, Clone)]
pub struct ScrapeTrial {
    /// Who is scraping.
    pub attacker: &'static str,
    /// Whether the module was loaded under PMA protection.
    pub protected: bool,
    /// Whether the 666 secret was found.
    pub found_secret: bool,
    /// Whether the 1234 PIN was found.
    pub found_pin: bool,
}

/// Full E7 results.
#[derive(Debug, Clone)]
pub struct ScrapeReport {
    /// The scraping trials.
    pub trials: Vec<ScrapeTrial>,
    /// Verdict of the I/O attacker against the bug-free module.
    pub io_attacker_verdict: Verdict,
}

fn machine_with_unprotected_module(image: &ModuleImage) -> Machine {
    let mut m = Machine::new();
    m.mem_mut()
        .map(
            image.code_base(),
            image.code().len().max(1) as u32,
            Perm::RX,
        )
        .expect("maps");
    m.mem_mut()
        .poke_bytes(image.code_base(), image.code())
        .expect("pokes");
    m.mem_mut()
        .map(
            image.data_base(),
            image.data().len().max(1) as u32,
            Perm::RW,
        )
        .expect("maps");
    m.mem_mut()
        .poke_bytes(image.data_base(), image.data())
        .expect("pokes");
    // A page for the malicious module's own code.
    m.mem_mut()
        .map(0x0900_0000, 0x1000, Perm::RX)
        .expect("maps");
    m
}

fn machine_with_protected_module(image: &ModuleImage) -> Machine {
    let mut platform = Platform::new([0x42; 32]);
    let mut m = Machine::new();
    platform
        .load_module(&mut m, image, ReentryPolicy::EntryPointsOnly)
        .expect("loads");
    m.mem_mut()
        .map(0x0900_0000, 0x1000, Perm::RX)
        .expect("maps");
    m
}

/// E7 under the campaign API.
pub struct ScrapingExperiment;

impl Experiment for ScrapingExperiment {
    type Cell = ScrapeReport;
    type Output = ScrapeReport;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(7)
    }

    fn title(&self) -> &'static str {
        "Figure 2: memory scraping vs PMA"
    }

    /// Runs the E7 experiment.
    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, _cell: usize) -> ScrapeReport {
        let image = secret_module_image();
        let mut trials = Vec::new();
        for protected in [false, true] {
            let machine = if protected {
                machine_with_protected_module(&image)
            } else {
                machine_with_unprotected_module(&image)
            };
            for (attacker, scraper) in [
                ("malicious module (user code)", Scraper::user(0x0900_0000)),
                ("kernel malware", Scraper::kernel()),
            ] {
                trials.push(ScrapeTrial {
                    attacker,
                    protected,
                    found_secret: !scraper.scan_word(&machine, 666).is_empty(),
                    found_pin: !scraper.scan_word(&machine, 1234).is_empty(),
                });
            }
        }

        // The I/O attacker: a driver program links the module and exposes it
        // over input; with wrong PINs the compiled behaviour matches the
        // source exactly (no vulnerability, no attack).
        let combined = format!(
            "{SECRET_MODULE}\n\
             void main() {{\n\
                 char req[4];\n\
                 read(0, req, 4);\n\
                 int pin = req[0] + (req[1] << 8);\n\
                 int s = get_secret(pin);\n\
                 if (s != 0) {{ write(1, \"YES\", 3); }} else {{ write(1, \"NO\", 2); }}\n\
             }}"
        );
        let unit = parse(&combined).expect("combined parses");
        let io_attacker_verdict = equiv::compare(
            &unit,
            &[0xFF, 0xFF, 0, 0],
            DefenseConfig::none(),
            5,
            1_000_000,
        )
        .expect("compiles")
        .verdict;

        ScrapeReport {
            trials,
            io_attacker_verdict,
        }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<ScrapeReport>) -> ScrapeReport {
        only_cell(cells)
    }

    fn tables(&self, report: &ScrapeReport) -> Vec<Table> {
        let mut t = Table::new(
            "E7: memory scraping vs the Figure 2 secret module",
            &[
                "attacker",
                "module protection",
                "secret (666)",
                "PIN (1234)",
            ],
        );
        t.row(vec![
            "I/O attacker (wrong PINs)".to_string(),
            "n/a (module is bug-free)".to_string(),
            format!("{}", report.io_attacker_verdict),
            "-".to_string(),
        ]);
        for trial in &report.trials {
            t.row(vec![
                trial.attacker.to_string(),
                if trial.protected { "PMA" } else { "none" }.to_string(),
                if trial.found_secret {
                    "SCRAPED"
                } else {
                    "hidden"
                }
                .to_string(),
                if trial.found_pin { "SCRAPED" } else { "hidden" }.to_string(),
            ]);
        }
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> ScrapeReport {
        ScrapingExperiment.run(&CampaignConfig::default())
    }

    #[test]
    fn unprotected_module_is_scraped_by_everyone() {
        let r = run();
        for t in r.trials.iter().filter(|t| !t.protected) {
            assert!(t.found_secret, "{} should find the secret", t.attacker);
            assert!(t.found_pin, "{} should find the PIN", t.attacker);
        }
    }

    #[test]
    fn pma_hides_the_module_from_user_and_kernel() {
        let r = run();
        for t in r.trials.iter().filter(|t| t.protected) {
            assert!(!t.found_secret, "{} must not find the secret", t.attacker);
            assert!(!t.found_pin, "{} must not find the PIN", t.attacker);
        }
    }

    #[test]
    fn io_attacker_cannot_deviate_a_bug_free_module() {
        let r = run();
        assert_eq!(r.io_attacker_verdict, Verdict::Equivalent);
    }

    #[test]
    fn table_renders() {
        assert!(ScrapingExperiment
            .report(&run())
            .render()
            .contains("kernel malware"));
    }
}
