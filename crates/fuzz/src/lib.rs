//! `swsec-fuzz` — a deterministic, offline, coverage-guided snapshot
//! fuzzer and differential conformance suite for the swsec laboratory.
//!
//! The fuzzer closes the loop the paper's two attacker models leave
//! open: instead of *scripted* attacks (E2–E4, E14) it **searches**
//! for attack inputs, guided by the security events the machine
//! already emits. The pieces:
//!
//! * **Coverage** — a [`swsec_obs::CoverageSink`] hashes
//!   control-transfer edges into a fixed bitmap and reserves slots for
//!   rare security events (faults, canary trips, PMA violations), so
//!   an input that provokes a *new kind* of trouble is always
//!   interesting;
//! * **Mutation** ([`mutate`]) — pure seed-derived operators over a
//!   parent input, with target dictionaries (function addresses,
//!   frame-pointer words) biased to word-aligned offsets;
//! * **Corpus** ([`corpus`]) — coverage-fingerprint deduplicated,
//!   energy-weighted toward inputs that opened rare-event slots;
//! * **Targets** ([`targets`]) — victim programs behind the
//!   [`ForkServer`](swsec::harness::ForkServer), the MinC compiler
//!   judged against its reference interpreter, and fast-path-vs-
//!   baseline differential VM execution, all through the unified
//!   [`AttackTarget`](swsec::harness::AttackTarget) surface;
//! * **Minimization** ([`minimize`]) — findings shrink while their
//!   class reproduces.
//!
//! Everything derives from one master seed through the
//! [`swsec_rng::derive`] paths, every target execution replays from
//! `(run_seed, input)`, and the campaign integration
//! ([`FuzzExperiment`], E18) renders byte-identically at any worker
//! count — `same seed + same budget ⇒ same findings report` is a hard
//! invariant, tested here and asserted by `scripts/verify.sh`.

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod minimize;
pub mod mutate;
pub mod targets;

use std::collections::BTreeSet;
use std::sync::Arc;

use swsec::campaign::{CampaignConfig, CampaignCtx};
use swsec::experiments::Experiment;
use swsec::report::{ExperimentId, Table};
use swsec_obs::{CoverageSink, GlobalCoverage};
use swsec_rng::{derive, stream};

use crate::corpus::Corpus;
use crate::targets::{CompilerTarget, DiffTarget, FuzzTarget, VictimTarget};

/// Tuning knobs of one fuzzing run.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed: every mutation and scheduling choice derives from
    /// it.
    pub master_seed: u64,
    /// Mutated-input executions to spend (excludes seeds and
    /// minimization).
    pub budget: u64,
    /// Execution cap per finding for the minimizer.
    pub minimize_budget: u64,
}

/// One deduplicated finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The finding class (deduplication key).
    pub class: String,
    /// 1-based attempt number that found it (0 = a starter seed).
    pub attempt: u64,
    /// The input as found.
    pub input: Vec<u8>,
    /// The minimized input (same class).
    pub minimized: Vec<u8>,
}

/// The result of fuzzing one target.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Target name.
    pub target: &'static str,
    /// Total target executions (seeds + attempts + minimization).
    pub executed: u64,
    /// Corpus entries retained.
    pub corpus_len: usize,
    /// Coverage slots reached.
    pub coverage: usize,
    /// Deduplicated, minimized findings in discovery order.
    pub findings: Vec<Finding>,
    /// Divergences between the tier-2, fast-path and baseline engines
    /// (differential targets).
    pub divergences: u64,
}

// Derivation path tags under the master seed: parent/donor selection
// and mutation, per attempt index.
const DRAW_SELECT: u64 = 1;
const DRAW_MUTATE: u64 = 2;

/// Runs the coverage-guided loop against one target.
pub fn fuzz_target(target: &mut dyn FuzzTarget, cfg: &FuzzConfig) -> FuzzOutcome {
    let sink = Arc::new(CoverageSink::new());
    target.attach_coverage(Arc::clone(&sink));
    let run_seed = target.run_seed();
    let dict = target.dictionary();
    let max_len = target.max_len();
    let mut global = GlobalCoverage::new();
    let mut corpus = Corpus::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut seen = BTreeSet::new();
    let mut executed = 0u64;

    // One input's step: execute it, fold its coverage into the global
    // map, and record (minimized) the first input of each class.
    // `attempt` is 1-based, 0 for a starter seed. `None` when the input
    // did not compile; otherwise its fingerprint and coverage gain.
    let mut step = |target: &mut dyn FuzzTarget, input: &[u8], attempt: u64| {
        sink.reset();
        let out = target.execute(run_seed, input).ok()?;
        executed += 1;
        // Take the map before any minimization runs pollute the sink.
        let map = sink.take_map();
        let gain = global.observe(&map);
        if let Some(class) = target.classify(&out) {
            if seen.insert(class.clone()) {
                let (minimized, spent) =
                    minimize::minimize(target, run_seed, input, &class, cfg.minimize_budget);
                executed += spent;
                findings.push(Finding {
                    class,
                    attempt,
                    input: input.to_vec(),
                    minimized,
                });
            }
        }
        Some((map.fingerprint(), gain))
    };

    // Starter seeds: they establish baseline coverage, and a seed that
    // already classifies (a target shipped broken) is finding zero.
    for seed_input in target.seeds() {
        let Some((fingerprint, gain)) = step(target, &seed_input, 0) else {
            continue;
        };
        if !corpus.add(seed_input.clone(), fingerprint, &gain) && corpus.is_empty() {
            // Never fuzz from an empty corpus, even for a target that
            // emits no events at all.
            corpus.add_forced(seed_input, fingerprint);
        }
    }

    for attempt in 0..cfg.budget {
        let input = {
            let mut sel = stream(cfg.master_seed, &[DRAW_SELECT, attempt]);
            let parent = corpus.select(&mut sel).input.clone();
            let donor = corpus.select(&mut sel).input.clone();
            mutate::mutate(
                derive(cfg.master_seed, &[DRAW_MUTATE, attempt]),
                &parent,
                &donor,
                &dict,
                max_len,
            )
        };
        if let Some((fingerprint, gain)) = step(target, &input, attempt + 1) {
            corpus.add(input, fingerprint, &gain);
        }
    }

    FuzzOutcome {
        target: target.name(),
        executed,
        corpus_len: corpus.len(),
        coverage: global.covered(),
        findings,
        divergences: target.divergences(),
    }
}

/// E18 — the fuzzing campaign as an [`Experiment`]: one cell per
/// target, assembled into a summary, a findings table and a verdicts
/// table.
///
/// E18 lives outside the E1–E16 registry (the registry sits below this
/// crate in the dependency graph); run it through
/// [`swsec::campaign::run_campaign_on`], like the fault-demo
/// experiment E17.
#[derive(Debug, Clone, Copy)]
pub struct FuzzExperiment {
    /// Mutated-input executions per target.
    pub budget: u64,
    /// Minimizer execution cap per finding.
    pub minimize_budget: u64,
}

impl FuzzExperiment {
    /// The deterministic smoke configuration `scripts/verify.sh` runs:
    /// enough budget to rediscover the E2 stack smash from coverage
    /// signal alone, small enough to finish in seconds.
    pub fn smoke() -> FuzzExperiment {
        FuzzExperiment {
            budget: 2_000,
            minimize_budget: 192,
        }
    }

    /// Leaks `self` to the `'static` lifetime
    /// [`swsec::campaign::run_campaign_on`] requires (a few bytes per
    /// campaign, the same pattern as the fault-demo experiment).
    pub fn leaked(self) -> &'static FuzzExperiment {
        Box::leak(Box::new(self))
    }
}

/// The three target cells, in report order.
const TARGETS: [&str; 3] = ["victim-smash", "minc-compiler", "vm-differential"];

/// Renders an input as hex, elided past 20 bytes.
fn hex_preview(bytes: &[u8]) -> String {
    let shown: String = bytes.iter().take(20).map(|b| format!("{b:02x}")).collect();
    if bytes.len() > 20 {
        format!("{shown}… ({} bytes)", bytes.len())
    } else {
        shown
    }
}

impl Experiment for FuzzExperiment {
    /// One target's campaign.
    type Cell = FuzzOutcome;
    /// The targets' campaigns, in [`TARGETS`] order.
    type Output = Vec<FuzzOutcome>;

    fn id(&self) -> ExperimentId {
        ExperimentId::FUZZ
    }

    fn title(&self) -> &'static str {
        "Coverage-guided fuzzing and differential conformance"
    }

    fn cells(&self, _cfg: &CampaignConfig) -> usize {
        TARGETS.len()
    }

    fn run_cell(&self, cfg: &CampaignConfig, ctx: &CampaignCtx, cell: usize) -> FuzzOutcome {
        let seed = cfg.cell_seed(self.id(), cell);
        let mut target: Box<dyn FuzzTarget> = match cell {
            0 => Box::new(VictimTarget::new(&ctx.cache, seed, cfg.serve_mode())),
            1 => Box::new(CompilerTarget::new(seed)),
            _ => Box::new(DiffTarget::new(&ctx.cache, seed)),
        };
        fuzz_target(
            target.as_mut(),
            &FuzzConfig {
                master_seed: seed,
                budget: self.budget,
                minimize_budget: self.minimize_budget,
            },
        )
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<FuzzOutcome>) -> Vec<FuzzOutcome> {
        cells
    }

    fn tables(&self, outcomes: &Vec<FuzzOutcome>) -> Vec<Table> {
        let mut summary = Table::new(
            "E18: coverage-guided fuzzing over the attack harness",
            &[
                "target",
                "executions",
                "corpus",
                "coverage slots",
                "findings",
                "divergences",
            ],
        );
        let mut found = Table::new(
            "E18: findings (deduplicated by class, minimized)",
            &[
                "target",
                "class",
                "attempt",
                "found len",
                "min len",
                "minimized",
            ],
        );
        for outcome in outcomes {
            summary.row(vec![
                outcome.target.to_string(),
                outcome.executed.to_string(),
                outcome.corpus_len.to_string(),
                outcome.coverage.to_string(),
                outcome.findings.len().to_string(),
                outcome.divergences.to_string(),
            ]);
            for f in &outcome.findings {
                found.row(vec![
                    outcome.target.to_string(),
                    f.class.clone(),
                    f.attempt.to_string(),
                    f.input.len().to_string(),
                    f.minimized.len().to_string(),
                    hex_preview(&f.minimized),
                ]);
            }
        }
        let findings = || outcomes.iter().flat_map(|o| &o.findings);
        let exploit = findings().any(|f| f.class.starts_with("exploit:"));
        let divergences: u64 = outcomes.iter().map(|o| o.divergences).sum();
        let compiler_findings: usize = outcomes
            .iter()
            .filter(|o| o.target == "minc-compiler")
            .map(|o| o.findings.len())
            .sum();
        let mut verdicts = Table::new("E18: conformance verdicts", &["check", "result"]);
        verdicts.row(vec![
            "known exploit path rediscovered (victim-smash)".to_string(),
            if exploit {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
        verdicts.row(vec![
            "fast-path vs baseline divergences".to_string(),
            divergences.to_string(),
        ]);
        verdicts.row(vec![
            "compiler conformance findings".to_string(),
            compiler_findings.to_string(),
        ]);
        verdicts.row(vec![
            "distinct finding classes".to_string(),
            findings().count().to_string(),
        ]);
        vec![summary, found, verdicts]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::tests::MockTarget;
    use swsec::cache::ProgramCache;
    use swsec::campaign::{run_campaign_on, CampaignTelemetry};
    use swsec::harness::ServeMode;

    fn smoke_cfg(seed: u64) -> FuzzConfig {
        FuzzConfig {
            master_seed: seed,
            budget: 2_000,
            minimize_budget: 192,
        }
    }

    #[test]
    fn engine_finds_the_needle_in_the_mock_target() {
        let outcome = fuzz_target(
            &mut MockTarget::default(),
            &FuzzConfig {
                master_seed: 11,
                budget: 400,
                minimize_budget: 128,
            },
        );
        let hit = outcome.findings.iter().find(|f| f.class == "needle");
        let hit = hit.expect("a random 0x7f byte within 400 mutations");
        assert_eq!(
            hit.minimized,
            vec![0x7f],
            "minimizer should strip to the needle"
        );
        assert!(outcome.corpus_len >= 1 && outcome.coverage > 0);
    }

    #[test]
    fn victim_fuzzing_rediscovers_the_stack_smash() {
        let cache = ProgramCache::new();
        let mut target = VictimTarget::new(&cache, 9, ServeMode::Fork);
        let outcome = fuzz_target(&mut target, &smoke_cfg(9));
        let exploit = outcome
            .findings
            .iter()
            .find(|f| f.class.starts_with("exploit:"));
        let exploit = exploit.unwrap_or_else(|| {
            panic!(
                "no exploit within budget; classes found: {:?}",
                outcome
                    .findings
                    .iter()
                    .map(|f| &f.class)
                    .collect::<Vec<_>>()
            )
        });
        // The minimized reproducer still needs to reach into the
        // return slot at offset 56 — though not necessarily through it:
        // the minimizer legitimately discovers *partial* overwrites
        // (grant shares its upper address bytes with the original
        // return address, so rewriting the low bytes alone diverts).
        assert!(
            exploit.minimized.len() >= 57,
            "{:?}",
            exploit.minimized.len()
        );
        // Crash classes surface alongside the exploit.
        assert!(outcome
            .findings
            .iter()
            .any(|f| f.class.starts_with("crash:")));
    }

    #[test]
    fn fuzzing_is_deterministic_and_serve_mode_invariant() {
        let digest = |mode| {
            let cache = ProgramCache::new();
            let mut target = VictimTarget::new(&cache, 13, mode);
            let outcome = fuzz_target(
                &mut target,
                &FuzzConfig {
                    master_seed: 13,
                    budget: 300,
                    minimize_budget: 64,
                },
            );
            (
                outcome.executed,
                outcome.corpus_len,
                outcome.coverage,
                outcome
                    .findings
                    .iter()
                    .map(|f| (f.class.clone(), f.attempt, f.minimized.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        let fork = digest(ServeMode::Fork);
        assert_eq!(
            fork,
            digest(ServeMode::Fork),
            "same mode must replay exactly"
        );
        assert_eq!(
            fork,
            digest(ServeMode::Rebuild),
            "serve mode must not leak into results"
        );
    }

    #[test]
    fn differential_fuzzing_finds_zero_divergences() {
        let cache = ProgramCache::new();
        let mut target = DiffTarget::new(&cache, 17);
        let outcome = fuzz_target(
            &mut target,
            &FuzzConfig {
                master_seed: 17,
                budget: 250,
                minimize_budget: 64,
            },
        );
        assert_eq!(outcome.divergences, 0, "{:?}", outcome.findings);
        assert!(outcome.findings.is_empty());
    }

    #[test]
    fn compiler_fuzzing_finds_zero_nonconformances() {
        let mut target = CompilerTarget::new(23);
        let outcome = fuzz_target(
            &mut target,
            &FuzzConfig {
                master_seed: 23,
                budget: 120,
                minimize_budget: 64,
            },
        );
        assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
    }

    #[test]
    fn e18_campaign_render_is_byte_identical_across_worker_counts() {
        let run = |workers| {
            let mut cfg = CampaignConfig::quick();
            cfg.workers = workers;
            cfg.master_seed = 41;
            let exp = FuzzExperiment {
                budget: 150,
                minimize_budget: 48,
            }
            .leaked();
            run_campaign_on(&cfg, &[exp], &CampaignTelemetry::none()).render()
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn e18_report_carries_the_verdict_rows() {
        let cfg = CampaignConfig::quick();
        let exp = FuzzExperiment {
            budget: 60,
            minimize_budget: 32,
        }
        .leaked();
        let report = run_campaign_on(&cfg, &[exp], &CampaignTelemetry::none());
        let render = report.render();
        assert!(render.contains("E18"));
        assert!(render.contains("fast-path vs baseline divergences"));
        assert!(report.all_ok());
    }
}
