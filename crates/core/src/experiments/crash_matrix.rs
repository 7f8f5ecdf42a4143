//! Experiment E16 — the crash/fault matrix (§IV-C hardening).
//!
//! E11 shows *that* the two-phase continuity scheme beats rollback and
//! survives crashes; this experiment grinds the claim exhaustively and
//! adversarially, with every fault position derived from the campaign
//! seed via [`FaultPlan`]:
//!
//! * **E16a** — every [`CrashPoint`] × target-slot combination of the
//!   two-phase save protocol. For each cell the protocol runs enough
//!   completed saves that the *next* save lands in the targeted slot,
//!   the crash is injected there, and the cell asserts both liveness
//!   (recovery yields the old or the new state, never a brick) and
//!   rollback detection (replaying a day-one snapshot is reported
//!   [`ContinuityError::Stale`]).
//! * **E16b** — sealed-blob bit flips: tampering with the current
//!   blob, the stale blob, and both, asserting the scheme classifies
//!   each correctly (`Stale` with the surviving sequence, silent
//!   recovery, and [`ContinuityError::Corrupt`] respectively).
//! * **E16c** — a bit flip in a VM data page: a guest checksum
//!   program observes the corruption, and a sealed reference copy
//!   pinpoints the flipped byte (integrity detection).

use swsec_crypto::seal::{open, seal};
use swsec_pma::platform::ModuleKey;
use swsec_pma::{ContinuityError, CrashPoint, Platform, TwoPhaseContinuity, UntrustedStore};
use swsec_vm::cpu::{Machine, RunOutcome};
use swsec_vm::isa::{sys, AluOp, Cond, Instr, Reg};
use swsec_vm::mem::Perm;

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::Experiment;
use crate::faults::{crash_point_label, FaultPlan, CRASH_POINTS};
use crate::report::{ExperimentId, Table};

/// Number of crash cells: every crash point × both target slots.
const CRASH_CELLS: usize = CRASH_POINTS.len() * 2;
/// Cell index of the sealed-blob tampering cell.
const TAMPER_CELL: usize = CRASH_CELLS;
/// Cell index of the VM data-page bit-flip cell.
const VM_FLIP_CELL: usize = CRASH_CELLS + 1;

const CRASH_HEADERS: [&str; 5] = [
    "crash point",
    "target slot",
    "save",
    "recovered",
    "rollback replay",
];
const TAMPER_HEADERS: [&str; 3] = ["tampered blob", "bit flipped", "load verdict"];
const VM_HEADERS: [&str; 4] = ["page", "bit flipped", "guest checksum", "sealed reference"];

fn state_bytes(n: u64) -> Vec<u8> {
    format!("state-v{n}").into_bytes()
}

/// One continuity setup with keys derived from the cell's fault plan.
fn setup(plan: &FaultPlan) -> (Platform, TwoPhaseContinuity, UntrustedStore) {
    let mut platform = Platform::new(plan.key_bytes(&[0]));
    let key = ModuleKey(plan.key_bytes(&[1]));
    let counter = platform.alloc_counter();
    let scheme = TwoPhaseContinuity::new(key, counter, 0, 1);
    (platform, scheme, UntrustedStore::new())
}

fn crash_cell(plan: &FaultPlan, cell: usize) -> Vec<String> {
    let point = CRASH_POINTS[cell / 2];
    let target_a = cell.is_multiple_of(2);
    // Even sequences go to slot A, odd to slot B: run enough completed
    // saves that the *injected* save lands in the targeted slot.
    let completed: u64 = if target_a { 3 } else { 2 };
    let (mut platform, mut scheme, mut store) = setup(plan);
    let mut day_one = None;
    for seq in 1..=completed {
        assert!(
            scheme.save(
                &mut platform,
                &mut store,
                &state_bytes(seq),
                CrashPoint::None
            ),
            "uninjected save {seq} must complete"
        );
        if seq == 1 {
            // The attacker keeps the very first sealed state for the
            // later rollback replay.
            day_one = Some(store.snapshot());
        }
    }
    let day_one = day_one.expect("at least one completed save");
    let prev = state_bytes(completed);
    let next = state_bytes(completed + 1);
    let finished = scheme.save(&mut platform, &mut store, &next, point);

    // Liveness: whatever the crash point, recovery must yield the old
    // or the new state — never a brick.
    let recovered = scheme
        .load(&mut platform, &store)
        .unwrap_or_else(|e| panic!("liveness lost at {point:?}: {e}"));
    let recovered = if recovered == next {
        "new"
    } else if recovered == prev {
        "old"
    } else {
        panic!("recovered neither old nor new state at {point:?}")
    };

    // Rollback: replaying the day-one snapshot must be detected as
    // stale, with the replayed sequence identified.
    store.restore(day_one);
    let replay = match scheme.load(&mut platform, &store) {
        Err(ContinuityError::Stale { found: 1, .. }) => "detected (Stale, found seq 1)",
        other => panic!("rollback replay not detected at {point:?}: {other:?}"),
    };

    vec![
        crash_point_label(point).to_string(),
        if target_a { "slot A" } else { "slot B" }.to_string(),
        // AfterBump never interrupts two-phase (the bump is the last
        // step), so that save completes like an uninjected one.
        if finished { "completed" } else { "interrupted" }.to_string(),
        recovered.to_string(),
        replay.to_string(),
    ]
}

fn tamper_verdict(result: Result<Vec<u8>, ContinuityError>, current: &[u8]) -> String {
    match result {
        Ok(state) => {
            assert_eq!(state, current, "recovered state must be the current one");
            "recovered current state".to_string()
        }
        Err(ContinuityError::Stale { found, expected }) => {
            format!("Stale (found seq {found}, expected {expected})")
        }
        Err(ContinuityError::Corrupt) => "Corrupt (tamper detected)".to_string(),
        Err(other) => panic!("unexpected tamper verdict: {other:?}"),
    }
}

fn tamper_cell(plan: &FaultPlan) -> Vec<Vec<String>> {
    let (mut platform, mut scheme, mut store) = setup(plan);
    assert!(scheme.save(&mut platform, &mut store, &state_bytes(1), CrashPoint::None));
    assert!(scheme.save(&mut platform, &mut store, &state_bytes(2), CrashPoint::None));
    // Sequence 2 (even) is current and lives in slot A (0); sequence 1
    // is stale in slot B (1).
    let current = state_bytes(2);
    let mut rows = Vec::new();
    let scenarios: [(&str, &[u32]); 3] = [
        ("current (slot A)", &[0]),
        ("stale (slot B)", &[1]),
        ("both", &[0, 1]),
    ];
    for (scenario, (label, slots)) in scenarios.into_iter().enumerate() {
        let mut tampered = store.snapshot();
        let mut flips = Vec::new();
        for &slot in slots {
            let (byte, bit) = plan.bit_fault(&[2, scenario as u64, u64::from(slot)]);
            let (byte, bit) = tampered
                .flip_bit(slot, byte, bit)
                .expect("slot holds a blob");
            flips.push(format!("slot {slot} byte {byte} bit {bit}"));
        }
        let verdict = tamper_verdict(scheme.load(&mut platform, &tampered), &current);
        rows.push(vec![label.to_string(), flips.join(", "), verdict]);
    }
    // The expected classifications, asserted (not just reported):
    assert!(rows[0][2].starts_with("Stale (found seq 1"));
    assert_eq!(rows[1][2], "recovered current state");
    assert!(rows[2][2].starts_with("Corrupt"));
    rows
}

const CODE_BASE: u32 = 0x1000;
const PAGE_BASE: u32 = 0x2000;
const PAGE_LEN: usize = 256;

/// A checksum guest booted once and served per page via snapshot
/// restore: the VM program XOR-folds every byte of the data page into
/// its exit code. Each [`Self::checksum`] call rewinds to the
/// boot-time snapshot (copying back only the one data page the
/// previous call dirtied), pokes the new page, and reruns.
struct ChecksumGuest {
    machine: Machine,
    snapshot: swsec_vm::cpu::MachineSnapshot,
    page_len: usize,
}

impl ChecksumGuest {
    fn boot(page_len: usize) -> ChecksumGuest {
        let mut code = Vec::new();
        Instr::MovI {
            dst: Reg::R0,
            imm: 0,
        }
        .encode(&mut code);
        Instr::MovI {
            dst: Reg::R1,
            imm: PAGE_BASE,
        }
        .encode(&mut code);
        Instr::MovI {
            dst: Reg::R2,
            imm: PAGE_BASE + page_len as u32,
        }
        .encode(&mut code);
        let loop_top = CODE_BASE + code.len() as u32;
        Instr::LoadB {
            dst: Reg::R3,
            base: Reg::R1,
            disp: 0,
        }
        .encode(&mut code);
        Instr::Alu {
            op: AluOp::Xor,
            dst: Reg::R0,
            src: Reg::R3,
        }
        .encode(&mut code);
        Instr::AddI {
            dst: Reg::R1,
            imm: 1,
        }
        .encode(&mut code);
        Instr::Cmp {
            a: Reg::R1,
            b: Reg::R2,
        }
        .encode(&mut code);
        Instr::JCond {
            cond: Cond::B,
            target: loop_top,
        }
        .encode(&mut code);
        Instr::Sys(sys::EXIT).encode(&mut code);

        let mut machine = Machine::new();
        machine
            .mem_mut()
            .map(CODE_BASE, 0x1000, Perm::RX)
            .expect("map code");
        machine
            .mem_mut()
            .map(PAGE_BASE, 0x1000, Perm::RW)
            .expect("map data");
        machine
            .mem_mut()
            .poke_bytes(CODE_BASE, &code)
            .expect("load code");
        machine.set_ip(CODE_BASE);
        let snapshot = machine.snapshot();
        ChecksumGuest {
            machine,
            snapshot,
            page_len,
        }
    }

    fn checksum(&mut self, page: &[u8]) -> u32 {
        assert_eq!(page.len(), self.page_len, "guest code is sized to the page");
        self.machine.restore_from(&self.snapshot);
        self.machine
            .mem_mut()
            .poke_bytes(PAGE_BASE, page)
            .expect("load page");
        match self.machine.run(50_000) {
            RunOutcome::Halted(code) => code,
            other => panic!("checksum guest did not halt: {other:?}"),
        }
    }
}

fn vm_flip_cell(plan: &FaultPlan) -> Vec<String> {
    let mut page = vec![0u8; PAGE_LEN];
    plan.fill(&mut page, &[0]);

    // Seal a reference copy before the fault: the integrity baseline a
    // protected module would keep for its own pages.
    let key = plan.key_bytes(&[1]);
    let nonce_material = plan.key_bytes(&[2]);
    let nonce: [u8; 12] = nonce_material[..12].try_into().expect("12 bytes");
    let sealed_ref = seal(&key, &nonce, b"vm-page-integrity", &page);

    // One guest serves both checksum runs: booted once, snapshotted,
    // and restored (one dirty page) between the clean and tampered
    // pages.
    let mut guest = ChecksumGuest::boot(PAGE_LEN);
    let clean_sum = guest.checksum(&page);
    let mut tampered = page.clone();
    let (byte, bit) = plan
        .flip_blob_bit(&mut tampered, &[3])
        .expect("page is non-empty");
    let tampered_sum = guest.checksum(&tampered);
    // A single bit flip always flips the same bit of the XOR fold.
    assert_ne!(clean_sum, tampered_sum, "bit flip must change the checksum");

    let reference = open(&key, b"vm-page-integrity", &sealed_ref).expect("reference unseals");
    let detected = reference
        .iter()
        .zip(&tampered)
        .position(|(a, b)| a != b)
        .expect("reference comparison finds the flip");
    assert_eq!(
        detected, byte,
        "sealed reference pinpoints the flipped byte"
    );

    vec![
        format!("{PAGE_LEN} B at {PAGE_BASE:#x}"),
        format!("byte {byte} bit {bit}"),
        format!("{clean_sum:#04x} -> {tampered_sum:#04x} (fault observed)"),
        format!("mismatch at byte {detected} (fault located)"),
    ]
}

/// The E16 tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashMatrix {
    /// E16a: one row per crash point × target slot.
    pub crash: Table,
    /// E16b: one row per sealed-blob tampering scenario.
    pub tamper: Table,
    /// E16c: the VM data-page bit flip.
    pub vmflip: Table,
}

/// The E16 driver.
pub struct CrashMatrixExperiment;

impl Experiment for CrashMatrixExperiment {
    /// The rows one cell adds to its table.
    type Cell = Vec<Vec<String>>;
    type Output = CrashMatrix;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(16)
    }

    fn title(&self) -> &'static str {
        "Crash matrix — deterministic fault injection vs state continuity"
    }

    fn cells(&self, _cfg: &CampaignConfig) -> usize {
        CRASH_CELLS + 2
    }

    fn run_cell(&self, cfg: &CampaignConfig, _ctx: &CampaignCtx, cell: usize) -> Vec<Vec<String>> {
        let plan = FaultPlan::new(cfg.cell_seed(self.id(), cell));
        match cell {
            c if c < CRASH_CELLS => vec![crash_cell(&plan, c)],
            TAMPER_CELL => tamper_cell(&plan),
            VM_FLIP_CELL => vec![vm_flip_cell(&plan)],
            other => unreachable!("E16 has {} cells, got {other}", CRASH_CELLS + 2),
        }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<Vec<Vec<String>>>) -> CrashMatrix {
        let table = |title: &str, headers: &[&str], cells: &[Vec<Vec<String>>]| Table {
            rows: cells.concat(),
            ..Table::new(title, headers)
        };
        CrashMatrix {
            crash: table(
                "E16a — two-phase save: crash point × target slot",
                &CRASH_HEADERS,
                &cells[..TAMPER_CELL],
            ),
            tamper: table(
                "E16b — sealed-blob bit flips",
                &TAMPER_HEADERS,
                &cells[TAMPER_CELL..VM_FLIP_CELL],
            ),
            vmflip: table(
                "E16c — VM data-page bit flip",
                &VM_HEADERS,
                &cells[VM_FLIP_CELL..],
            ),
        }
    }

    fn tables(&self, m: &CrashMatrix) -> Vec<Table> {
        vec![m.crash.clone(), m.tamper.clone(), m.vmflip.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Experiment;

    #[test]
    fn covers_every_crash_point_and_slot() {
        let cfg = CampaignConfig::default();
        let m = CrashMatrixExperiment.run(&cfg);
        assert_eq!(CrashMatrixExperiment.report(&m).tables.len(), 3);
        let crash = &m.crash;
        assert_eq!(crash.rows.len(), CRASH_CELLS);
        for point in CRASH_POINTS {
            for slot in ["slot A", "slot B"] {
                assert!(
                    crash
                        .rows
                        .iter()
                        .any(|r| r[0] == crash_point_label(point) && r[1] == slot),
                    "missing {point:?} × {slot}"
                );
            }
        }
        // Every cell asserted liveness internally; the report records
        // the rollback verdict for each combination too.
        assert!(crash.rows.iter().all(|r| r[4].contains("detected")));
    }

    #[test]
    fn report_is_deterministic_in_the_seed() {
        let cfg = CampaignConfig::default();
        let a = CrashMatrixExperiment.run(&cfg);
        let b = CrashMatrixExperiment.run(&cfg);
        assert_eq!(a, b);
        let mut other = CampaignConfig::default();
        other.master_seed ^= 0xDEAD_BEEF;
        let c = CrashMatrixExperiment.run(&other);
        // Fault positions move with the seed (verdicts stay the same).
        assert_ne!(a.vmflip, c.vmflip);
    }

    #[test]
    fn guest_checksum_matches_host_fold() {
        let page: Vec<u8> = (0..=255).collect();
        let host = page.iter().fold(0u8, |acc, b| acc ^ b);
        let mut guest = ChecksumGuest::boot(page.len());
        assert_eq!(guest.checksum(&page), u32::from(host));
        // Restores are clean: rerunning the same guest agrees, and a
        // different page changes the fold.
        assert_eq!(guest.checksum(&page), u32::from(host));
        let mut flipped = page.clone();
        flipped[0] ^= 0x80;
        assert_eq!(guest.checksum(&flipped), u32::from(host ^ 0x80));
    }
}
