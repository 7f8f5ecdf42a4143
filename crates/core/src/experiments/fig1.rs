//! Experiment E1 — Figure 1: source code, machine code and run-time
//! machine state.
//!
//! Compiles the paper's example server and reproduces the figure's
//! three panels: (a) the source, (b) the machine-code listing of
//! `process()`, and (c) a snapshot of the run-time state taken at the
//! moment execution enters `get_request()` — activation records, saved
//! base pointers, the saved return address, and the little-endian
//! buffer contents.

use swsec_defenses::DefenseConfig;
use swsec_vm::cpu::StepResult;

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::{only_cell, Experiment};
use crate::loader;
use crate::report::{text_panel, ExperimentId, Table};

/// The paper's Figure 1(a) source, verbatim in MinC.
pub const FIG1_SOURCE: &str = "\
void get_request(int fd, char buf[]) {\n\
    read(fd, buf, 16);\n\
}\n\
void process(int fd) {\n\
    char buf[16];\n\
    get_request(fd, buf);\n\
}\n\
void main() {\n\
    int fd = 1;\n\
    process(fd);\n\
}\n";

/// The reproduced figure.
#[derive(Debug, Clone)]
pub struct Fig1Report {
    /// Panel (a): the source code.
    pub source: String,
    /// Panel (b): machine code of `process()` with hex bytes, in the
    /// style of the figure.
    pub listing: String,
    /// Panel (c): the run-time stack snapshot at entry to
    /// `get_request()`.
    pub snapshot: Table,
    /// Verified layout facts (used by the tests).
    pub facts: Fig1Facts,
}

/// Machine-checkable facts extracted from the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig1Facts {
    /// Address of `process`'s `buf`.
    pub buf_addr: u32,
    /// Address of the saved return address in `process`'s frame.
    pub ret_slot: u32,
    /// Value stored in that slot (points into `main`).
    pub ret_value: u32,
    /// Address of `process`'s saved base pointer slot.
    pub saved_bp_slot: u32,
    /// `buf` content word 0, demonstrating little-endian storage.
    pub buf_word0: u32,
}

/// E1 under the campaign API.
pub struct Fig1Experiment;

impl Experiment for Fig1Experiment {
    type Cell = Fig1Report;
    type Output = Fig1Report;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(1)
    }

    fn title(&self) -> &'static str {
        "Figure 1: source, machine code and run-time state"
    }

    /// Compiles and runs the Figure 1 program, stopping at the entry of
    /// `get_request()` to photograph the machine state. The program runs
    /// undefended, so every seed photographs the same state.
    ///
    /// # Panics
    ///
    /// Panics only if the built-in program fails to compile — a bug, not an
    /// input condition.
    fn run_cell(&self, cfg: &CampaignConfig, ctx: &CampaignCtx, cell: usize) -> Fig1Report {
        let mut session = ctx
            .cache
            .launch(
                FIG1_SOURCE,
                DefenseConfig::none(),
                cfg.cell_seed(self.id(), cell),
            )
            .expect("figure 1 compiles");
        // The figure's buffer holds "ABCDEFGHIJKLMNO\0"; feed it on fd 1 (the
        // figure passes fd = 1).
        session.machine.io_mut().feed_input(1, b"ABCDEFGHIJKLMNO\0");

        let get_request = session
            .program
            .function_addr("get_request")
            .expect("exists");
        // Step to the moment the machine has just entered get_request().
        let mut entered = false;
        for _ in 0..1_000_000 {
            if session.machine.ip() == get_request {
                entered = true;
                break;
            }
            match session.machine.step() {
                StepResult::Continue => {}
                other => panic!("figure 1 run stopped early: {other:?}"),
            }
        }
        assert!(entered, "execution never reached get_request");

        // Let get_request run its prologue and the read() so the buffer is
        // filled, then stop before it returns.
        let process_frame = &session.program.frames["process"];
        let bp_process = loader::frame_base_for(&session.program, &[("main", 0), ("process", 1)])
            .expect("frame arithmetic");
        let buf_off = process_frame
            .locals
            .iter()
            .find(|(n, _)| n == "buf")
            .map(|(_, s)| s.offset)
            .expect("buf exists");
        let buf_addr = bp_process.wrapping_add(buf_off as u32);
        for _ in 0..1_000_000 {
            // Run until the read finished (buffer non-zero) or get_request
            // is about to return.
            if session.machine.mem().peek_u32(buf_addr).unwrap_or(0) != 0 {
                break;
            }
            match session.machine.step() {
                StepResult::Continue => {}
                other => panic!("figure 1 run stopped early: {other:?}"),
            }
        }

        let mem = session.machine.mem();
        let word = |addr: u32| mem.peek_u32(addr).expect("stack mapped");
        let ret_slot = bp_process.wrapping_add(4);
        let saved_bp_slot = bp_process;

        let mut snapshot = Table::new(
            "Figure 1(c): run-time machine state at entry of get_request()",
            &["address", "contents", "annotation"],
        );
        let annotate = |addr: u32| -> String {
            if addr == ret_slot {
                "saved return address (into main)".into()
            } else if addr == saved_bp_slot {
                "saved base pointer (main's frame)".into()
            } else if addr >= buf_addr && addr < buf_addr + 16 {
                format!("buf[{}..{}]", addr - buf_addr, addr - buf_addr + 4)
            } else if addr == buf_addr.wrapping_sub(8) {
                "fd parameter for get_request".into()
            } else if addr == buf_addr.wrapping_sub(4) {
                "buf parameter for get_request".into()
            } else {
                String::new()
            }
        };
        let top = ret_slot.wrapping_add(8);
        let bottom = buf_addr.wrapping_sub(24);
        let mut addr = top;
        while addr >= bottom {
            snapshot.row(vec![
                format!("{addr:#010x}"),
                format!("{:#010x}", word(addr)),
                annotate(addr),
            ]);
            addr = addr.wrapping_sub(4);
        }

        // Panel (b): the listing of process(), in the paper's hex+mnemonic
        // style.
        let process_addr = session.program.function_addr("process").expect("exists");
        let next_fn = session
            .program
            .functions
            .values()
            .copied()
            .filter(|&a| a > process_addr)
            .min()
            .unwrap_or(session.program.text_end());
        let start = (process_addr - session.program.text_base) as usize;
        let end = (next_fn - session.program.text_base) as usize;
        let listing = swsec_asm::format_listing(&session.program.text[start..end], process_addr);

        let facts = Fig1Facts {
            buf_addr,
            ret_slot,
            ret_value: word(ret_slot),
            saved_bp_slot,
            buf_word0: word(buf_addr),
        };
        Fig1Report {
            source: FIG1_SOURCE.to_string(),
            listing,
            snapshot,
            facts,
        }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<Fig1Report>) -> Fig1Report {
        only_cell(cells)
    }

    fn tables(&self, r: &Fig1Report) -> Vec<Table> {
        vec![
            text_panel("Figure 1(a): source code", &r.source),
            text_panel("Figure 1(b): machine code of process()", &r.listing),
            r.snapshot.clone(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> Fig1Report {
        Fig1Experiment.run(&CampaignConfig::default())
    }

    #[test]
    fn snapshot_matches_paper_layout() {
        let report = run();
        let f = report.facts;
        // The saved return address sits 4 bytes above the saved bp, which
        // sits 16 bytes above buf — exactly Figure 1(c).
        assert_eq!(f.saved_bp_slot, f.buf_addr + 16);
        assert_eq!(f.ret_slot, f.saved_bp_slot + 4);
        // "ABCD" stored little-endian: 0x44434241.
        assert_eq!(f.buf_word0, 0x4443_4241);
    }

    #[test]
    fn return_address_points_into_main() {
        let report = run();
        // The saved return address must be a text address (inside main).
        assert!(report.facts.ret_value >= 0x0804_8000);
        assert!(report.listing.contains("enter 0x10"));
    }

    #[test]
    fn snapshot_table_renders() {
        let report = run();
        let text = report.snapshot.to_string();
        assert!(text.contains("saved return address"));
        assert!(text.contains("buf[0..4]"));
    }
}
