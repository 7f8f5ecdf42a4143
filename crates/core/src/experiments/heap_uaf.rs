//! Experiment E15 (extension) — explicit deallocation: use-after-free
//! exploitation and quarantine.
//!
//! §III-A: "a program has a temporal vulnerability if the program
//! accesses a cell that was once allocated to the program, but has
//! since been deallocated. Such deallocation can happen implicitly or
//! explicitly." E2 demonstrated the implicit case (a dead stack
//! frame); this experiment covers the explicit case with the classic
//! heap attack:
//!
//! 1. a privileged record (`session`, first byte = `is_admin`) is
//!    allocated and freed;
//! 2. the allocator — first-fit over a LIFO free list, like every
//!    classic `malloc` — hands the same chunk to the next same-size
//!    request, an attacker-filled `name` buffer;
//! 3. the dangling `session` pointer now reads attacker bytes: the
//!    authorization check consults attacker-controlled memory.
//!
//! The reference semantics trap the dangling read; the machine is
//! compromised. A quarantine allocator (never recycle chunks — the
//! memory-for-safety trade of ASan-style allocators) removes the
//! aliasing and defeats the attack.

use swsec_minc::interp::{self, InterpOutcome};
use swsec_minc::{compile, parse, CompileOptions, HardenOptions};
use swsec_vm::cpu::Machine;

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::{only_cell, Experiment};
use crate::report::{ExperimentId, Table};

/// The use-after-free victim.
pub const VICTIM_UAF: &str = "\
void main() {\n\
    char *session = alloc(16);\n\
    session[0] = 0;\n\
    free(session);\n\
    char *name = alloc(16);\n\
    int n = read(0, name, 16);\n\
    if (session[0] != 0) { write(1, \"ADMIN\", 5); }\n\
    else { write(1, \"USER\", 4); }\n\
}\n";

/// One trial row.
#[derive(Debug, Clone)]
pub struct UafTrial {
    /// Allocator variant.
    pub allocator: &'static str,
    /// Input description.
    pub input: &'static str,
    /// Output the machine produced.
    pub output: String,
    /// Whether the attacker got ADMIN.
    pub compromised: bool,
}

/// Full E15 results.
#[derive(Debug, Clone)]
pub struct UafReport {
    /// The trials.
    pub trials: Vec<UafTrial>,
    /// What the source semantics say about the dangling read.
    pub source_verdict: String,
}

fn run_victim(quarantine: bool, input: &[u8]) -> String {
    let unit = parse(VICTIM_UAF).expect("victim parses");
    let opts = CompileOptions {
        harden: HardenOptions {
            heap_quarantine: quarantine,
            ..HardenOptions::none()
        },
        ..CompileOptions::default()
    };
    let prog = compile(&unit, &opts).expect("victim compiles");
    let mut m = Machine::new();
    prog.load(&mut m).expect("loads");
    m.io_mut().feed_input(0, input);
    assert!(m.run(1_000_000).is_halted());
    String::from_utf8_lossy(m.io().output(1)).into_owned()
}

/// E15 under the campaign API.
pub struct HeapUafExperiment;

impl Experiment for HeapUafExperiment {
    type Cell = UafReport;
    type Output = UafReport;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(15)
    }

    fn title(&self) -> &'static str {
        "Use-after-free and heap quarantine"
    }

    /// Runs the E15 experiment.
    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, _cell: usize) -> UafReport {
        let benign = vec![0u8; 16];
        let attack = vec![0xFFu8; 16];
        let mut trials = Vec::new();
        for (quarantine, allocator) in [(false, "classic (LIFO reuse)"), (true, "quarantine")] {
            for (input, name) in [(&benign, "benign (zeros)"), (&attack, "attack (0xFF…)")] {
                let output = run_victim(quarantine, input);
                let compromised = output == "ADMIN";
                trials.push(UafTrial {
                    allocator,
                    input: name,
                    output,
                    compromised,
                });
            }
        }
        let unit = parse(VICTIM_UAF).expect("victim parses");
        let reference = interp::run(&unit, &[(0, attack)], 1_000_000);
        let source_verdict = match reference.outcome {
            InterpOutcome::Trap(v) => v.message,
            other => format!("{other:?}"),
        };
        UafReport {
            trials,
            source_verdict,
        }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<UafReport>) -> UafReport {
        only_cell(cells)
    }

    fn tables(&self, report: &UafReport) -> Vec<Table> {
        let mut t = Table::new(
            "E15: use-after-free vs the allocator (explicit temporal vulnerability)",
            &["allocator", "input", "machine output", "attack"],
        );
        for trial in &report.trials {
            t.row(vec![
                trial.allocator.to_string(),
                trial.input.to_string(),
                trial.output.clone(),
                if trial.compromised {
                    "COMPROMISED"
                } else {
                    "blocked"
                }
                .to_string(),
            ]);
        }
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> UafReport {
        HeapUafExperiment.run(&CampaignConfig::default())
    }

    #[test]
    fn classic_allocator_is_exploitable() {
        let r = run();
        let attacked = r
            .trials
            .iter()
            .find(|t| t.allocator.starts_with("classic") && t.input.starts_with("attack"))
            .expect("row present");
        assert!(attacked.compromised, "{attacked:?}");
    }

    #[test]
    fn quarantine_blocks_the_reuse() {
        let r = run();
        for t in r.trials.iter().filter(|t| t.allocator == "quarantine") {
            assert!(!t.compromised, "{t:?}");
            assert_eq!(t.output, "USER");
        }
    }

    #[test]
    fn benign_input_on_classic_allocator_stays_user() {
        let r = run();
        let benign = r
            .trials
            .iter()
            .find(|t| t.allocator.starts_with("classic") && t.input.starts_with("benign"))
            .expect("row present");
        assert!(!benign.compromised);
    }

    #[test]
    fn the_source_semantics_trap_the_dangling_read() {
        let r = run();
        assert!(
            r.source_verdict.contains("temporal"),
            "{}",
            r.source_verdict
        );
    }

    #[test]
    fn table_renders() {
        assert!(HeapUafExperiment
            .report(&run())
            .render()
            .contains("quarantine"));
    }
}
