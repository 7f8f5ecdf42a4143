//! Experiment E8 — Figure 3 / §IV-A: the protected-module memory
//! access-control rules, exhaustively.
//!
//! Enumerates every (where the IP is) × (what is accessed) combination
//! against the three rules the paper states, both at the policy level
//! and with real code running on the VM.

use swsec_pma::Platform;
use swsec_vm::cpu::{Fault, Machine, RunOutcome};
use swsec_vm::mem::Perm;
use swsec_vm::policy::{ProtectedRegion, ProtectionMap, ReentryPolicy, TransferKind};

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::{only_cell, Experiment};
use crate::report::{ExperimentId, Table};

/// One rule-check row.
#[derive(Debug, Clone)]
pub struct RuleCheck {
    /// Where the instruction pointer is.
    pub ip_location: &'static str,
    /// What is accessed.
    pub access: &'static str,
    /// Whether the model allows it.
    pub allowed: bool,
    /// Whether the paper's rules say it should be allowed.
    pub expected: bool,
}

/// Full E8 results.
#[derive(Debug, Clone)]
pub struct RulesReport {
    /// Policy-level rule grid.
    pub checks: Vec<RuleCheck>,
    /// End-to-end VM confirmations: (scenario, outcome description,
    /// matches expectation).
    pub vm_demos: Vec<(&'static str, String, bool)>,
}

impl RulesReport {
    /// Whether every check matched the paper's rules.
    pub fn all_match(&self) -> bool {
        self.checks.iter().all(|c| c.allowed == c.expected)
            && self.vm_demos.iter().all(|(_, _, ok)| *ok)
    }
}

const CODE: std::ops::Range<u32> = 0x0a00_0000..0x0a00_1000;
const DATA: std::ops::Range<u32> = 0x0a10_0000..0x0a10_1000;
const ENTRY: u32 = 0x0a00_0000;
const INSIDE_IP: u32 = 0x0a00_0400;
const OUTSIDE_IP: u32 = 0x0900_0000;

fn policy() -> ProtectionMap {
    ProtectionMap::new(vec![ProtectedRegion::new(CODE, DATA, vec![ENTRY])])
}

/// E8 under the campaign API.
pub struct PmaRulesExperiment;

impl Experiment for PmaRulesExperiment {
    type Cell = RulesReport;
    type Output = RulesReport;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(8)
    }

    fn title(&self) -> &'static str {
        "Figure 3: the access-control rules"
    }

    /// Runs the policy-level grid plus VM demonstrations.
    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, _cell: usize) -> RulesReport {
        let map = policy();
        let mut checks = Vec::new();
        let mut check = |ip_location, access, allowed: bool, expected: bool| {
            checks.push(RuleCheck {
                ip_location,
                access,
                allowed,
                expected,
            });
        };

        // Rule 1: outside → module memory denied.
        check(
            "outside",
            "read module data",
            map.check_data(OUTSIDE_IP, DATA.start + 4).is_ok(),
            false,
        );
        check(
            "outside",
            "write module data",
            map.check_data(OUTSIDE_IP, DATA.start + 4).is_ok(),
            false,
        );
        check(
            "outside",
            "read module code",
            map.check_data(OUTSIDE_IP, CODE.start + 4).is_ok(),
            false,
        );
        // Rule 2: entry only via entry points.
        check(
            "outside",
            "call entry point",
            map.check_fetch(OUTSIDE_IP, ENTRY, TransferKind::Call)
                .is_ok(),
            true,
        );
        check(
            "outside",
            "jump into code interior",
            map.check_fetch(OUTSIDE_IP, INSIDE_IP, TransferKind::Jump)
                .is_ok(),
            false,
        );
        check(
            "outside",
            "execute module data",
            map.check_fetch(OUTSIDE_IP, DATA.start, TransferKind::Jump)
                .is_ok(),
            false,
        );
        // Rule 3: inside → own memory allowed.
        check(
            "inside",
            "read module data",
            map.check_data(INSIDE_IP, DATA.start + 4).is_ok(),
            true,
        );
        check(
            "inside",
            "write module data",
            map.check_data(INSIDE_IP, DATA.start + 4).is_ok(),
            true,
        );
        check(
            "inside",
            "internal jump",
            map.check_fetch(INSIDE_IP, CODE.start + 0x10, TransferKind::Jump)
                .is_ok(),
            true,
        );
        check(
            "inside",
            "execute module data",
            map.check_fetch(INSIDE_IP, DATA.start, TransferKind::Jump)
                .is_ok(),
            false,
        );
        // Unprotected memory stays universally accessible.
        check(
            "outside",
            "read unprotected memory",
            map.check_data(OUTSIDE_IP, 0x0800_0000).is_ok(),
            true,
        );
        check(
            "inside",
            "read unprotected memory",
            map.check_data(INSIDE_IP, 0x0800_0000).is_ok(),
            true,
        );

        // End-to-end demos on the VM.
        let mut vm_demos = Vec::new();

        // Demo 1: outside code loads from module data → PMA fault.
        {
            let image = swsec_pma::ModuleImage::from_raw(
                vec![0x22; 64],
                666u32.to_le_bytes().to_vec(),
                CODE.start,
                DATA.start,
                vec![0],
            );
            let mut platform = Platform::new([1; 32]);
            let mut m = Machine::new();
            platform
                .load_module(&mut m, &image, ReentryPolicy::EntryPointsOnly)
                .expect("loads");
            let host = swsec_asm::assemble(&format!(
                ".org {OUTSIDE_IP:#x}\n\
                 movi r1, {:#x}\n\
                 load r0, [r1]\n\
                 sys 0\n",
                DATA.start
            ))
            .expect("assembles");
            m.mem_mut().map(OUTSIDE_IP, 0x1000, Perm::RX).expect("maps");
            m.mem_mut()
                .poke_bytes(OUTSIDE_IP, &host.bytes)
                .expect("pokes");
            m.set_ip(OUTSIDE_IP);
            let outcome = m.run(100);
            let ok = matches!(outcome, RunOutcome::Fault(Fault::Pma(_)));
            vm_demos.push(("outside load of module data", outcome.to_string(), ok));
        }

        // Demo 2: call to the entry point succeeds and returns.
        {
            let image = swsec_pma::ModuleImage::from_raw(
                {
                    // entry: movi r0, 7; ret
                    let mut code = Vec::new();
                    swsec_vm::isa::Instr::MovI {
                        dst: swsec_vm::isa::Reg::R0,
                        imm: 7,
                    }
                    .encode(&mut code);
                    swsec_vm::isa::Instr::Ret.encode(&mut code);
                    code
                },
                vec![0; 4],
                CODE.start,
                DATA.start,
                vec![0],
            );
            let mut platform = Platform::new([1; 32]);
            let mut m = Machine::new();
            platform
                .load_module(&mut m, &image, ReentryPolicy::EntryPointsOnly)
                .expect("loads");
            let host = swsec_asm::assemble(&format!(
                ".org {OUTSIDE_IP:#x}\n\
                 call {ENTRY:#x}\n\
                 sys 0\n"
            ))
            .expect("assembles");
            m.mem_mut().map(OUTSIDE_IP, 0x1000, Perm::RX).expect("maps");
            m.mem_mut()
                .poke_bytes(OUTSIDE_IP, &host.bytes)
                .expect("pokes");
            m.mem_mut()
                .map(0xbfff_0000, 0x1000, Perm::RW)
                .expect("maps");
            m.set_reg(swsec_vm::isa::Reg::Sp, 0xbfff_0ff0);
            m.set_ip(OUTSIDE_IP);
            let outcome = m.run(100);
            let ok = outcome == RunOutcome::Halted(7);
            vm_demos.push(("call through the entry point", outcome.to_string(), ok));
        }

        // Demo 3: jump into the interior faults.
        {
            let image = swsec_pma::ModuleImage::from_raw(
                vec![0x00; 64],
                vec![0; 4],
                CODE.start,
                DATA.start,
                vec![0],
            );
            let mut platform = Platform::new([1; 32]);
            let mut m = Machine::new();
            platform
                .load_module(&mut m, &image, ReentryPolicy::EntryPointsOnly)
                .expect("loads");
            let host = swsec_asm::assemble(&format!(
                ".org {OUTSIDE_IP:#x}\n\
                 jmp {:#x}\n",
                CODE.start + 8
            ))
            .expect("assembles");
            m.mem_mut().map(OUTSIDE_IP, 0x1000, Perm::RX).expect("maps");
            m.mem_mut()
                .poke_bytes(OUTSIDE_IP, &host.bytes)
                .expect("pokes");
            m.set_ip(OUTSIDE_IP);
            let outcome = m.run(100);
            let ok = matches!(outcome, RunOutcome::Fault(Fault::Pma(_)));
            vm_demos.push(("jump into code interior", outcome.to_string(), ok));
        }

        RulesReport { checks, vm_demos }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<RulesReport>) -> RulesReport {
        only_cell(cells)
    }

    fn tables(&self, report: &RulesReport) -> Vec<Table> {
        let mut t = Table::new(
            "E8: protected-module access-control rules (§IV-A)",
            &["IP location", "access", "model", "paper"],
        );
        for c in &report.checks {
            let word = |b: bool| if b { "allow" } else { "deny" };
            t.row(vec![
                c.ip_location.to_string(),
                c.access.to_string(),
                word(c.allowed).to_string(),
                word(c.expected).to_string(),
            ]);
        }
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> RulesReport {
        PmaRulesExperiment.run(&CampaignConfig::default())
    }

    #[test]
    fn every_rule_matches_the_paper() {
        let r = run();
        assert!(r.all_match(), "{:#?}", r);
    }

    #[test]
    fn grid_covers_both_sides_of_each_rule() {
        let r = run();
        assert!(r.checks.len() >= 12);
        assert!(r.checks.iter().any(|c| c.expected));
        assert!(r.checks.iter().any(|c| !c.expected));
        assert_eq!(r.vm_demos.len(), 3);
    }

    #[test]
    fn table_renders() {
        assert!(PmaRulesExperiment
            .report(&run())
            .render()
            .contains("entry point"));
    }
}
