//! Experiment E4 — ASLR as a probabilistic defense (§III-C1).
//!
//! ASLR does not remove the vulnerability; it makes each exploit
//! attempt a guess. This experiment measures the number of attempts a
//! brute-forcing attacker needs at several entropy levels and compares
//! against the analytic expectation of `2^bits`, then shows the
//! paper's caveat (\[5\]): one information leak collapses the search to
//! a single attempt.

use swsec_attacks::Payload;
use swsec_rng::{stream, Rng};

use swsec_defenses::{AslrConfig, DefenseConfig};

use crate::attacker::{attacker_view, run_technique_cached, Technique, VICTIM_SMASH};
use crate::cache::ProgramCache;
use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::Experiment;
use crate::harness::{AttackTarget, ForkServer, ServeMode};
use crate::loader::plan_options;
use crate::report::{ExperimentId, Table};

/// Result for one entropy level.
#[derive(Debug, Clone, Copy)]
pub struct AslrTrial {
    /// Entropy bits.
    pub bits: u8,
    /// Number of brute-force campaigns averaged.
    pub trials: u32,
    /// Mean attempts until the return-to-libc attack landed.
    pub mean_attempts: f64,
    /// Analytic expectation (`2^bits`).
    pub expected: f64,
    /// Attempts the leak-assisted attacker needed (always 1).
    pub leak_attempts: u32,
}

/// Sweep results.
#[derive(Debug, Clone)]
pub struct AslrSweep {
    /// One row per entropy level.
    pub rows: Vec<AslrTrial>,
}

/// The cap keeping an unlucky campaign from running forever.
fn attempt_cap(bits: u8) -> u64 {
    (AslrConfig::bits(bits).expected_attempts() as u64) * 20 + 16
}

/// One brute-force campaign against a forking server: the victim's
/// slide is drawn **once** (a forking server randomizes at boot and
/// serves every request from the same layout), and the attacker fires
/// return-to-libc payloads with a freshly guessed slide per attempt
/// until one lands. Returns the number of attempts.
///
/// The victim compiles once through `cache` and boots once; attempts
/// are served by the [`ForkServer`] under `mode` — snapshot restores
/// by default, per-attempt rebuilds for the equivalence baseline.
pub fn brute_force_once<R: Rng>(
    bits: u8,
    rng: &mut R,
    cap: u64,
    cache: &ProgramCache,
    mode: ServeMode,
) -> u64 {
    let mut config = DefenseConfig::none();
    config.aslr_bits = Some(bits);
    let victim_seed = rng.next_u64();
    let mut server = ForkServer::boot(cache, VICTIM_SMASH, config, victim_seed)
        .expect("victim compiles")
        .with_mode(mode);
    // The attacker's local copy sits at the default layout; each guess
    // re-slides the payload's target by a speculated ASLR draw. A guess
    // lands exactly when its text slide matches the victim's — one in
    // `2^bits`, the same geometric race the paper analyzes.
    let local = attacker_view(cache, VICTIM_SMASH, config).expect("local copy compiles");
    let grant = local.function_addr("grant").expect("grant exists");
    let text_base = local.layout.text_base;
    let guesses = (0..cap).map(|_| {
        let guessed = plan_options(&config, rng.next_u64()).layout.0.text_base;
        let target = grant.wrapping_sub(text_base).wrapping_add(guessed);
        let payload = Payload::smash(&local.frames["handle"], "buf", target)
            .expect("buf exists")
            .build();
        (victim_seed, payload)
    });
    let result = AttackTarget::search(&mut server, guesses, |r| r.emitted(1, b"SECRET"))
        .expect("attempts run");
    match result.hit {
        Some((attempt, _)) => attempt,
        None => cap,
    }
}

/// Whether the leak-assisted attacker lands on the first launch with
/// `seed` (it reads the randomized addresses out of the leak).
fn leak_first_attempt(bits: u8, seed: u64, cache: &ProgramCache) -> u32 {
    let mut config = DefenseConfig::none();
    config.aslr_bits = Some(bits);
    let leak =
        run_technique_cached(Technique::InfoLeak, config, seed, cache).expect("victim compiles");
    if leak.outcome.succeeded() {
        1
    } else {
        u32::MAX
    }
}

/// E4 under the campaign API: one cell per (entropy level, campaign)
/// pair plus one leak-probe cell per level, so the expensive
/// high-entropy brute forces spread across workers.
pub struct AslrExperiment;

impl AslrExperiment {
    fn trials(cfg: &CampaignConfig) -> u32 {
        cfg.aslr_trials.max(1)
    }

    /// Cells per level: the brute-force trials plus the leak probe.
    fn stride(cfg: &CampaignConfig) -> usize {
        Self::trials(cfg) as usize + 1
    }
}

impl Experiment for AslrExperiment {
    /// The attempts one cell's attacker needed: a brute-force
    /// campaign's count, or a level's leak probe (1 when the leak-assisted
    /// attacker landed first try).
    type Cell = u64;
    type Output = AslrSweep;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(4)
    }

    fn title(&self) -> &'static str {
        "ASLR brute-force sweep"
    }

    fn cells(&self, cfg: &CampaignConfig) -> usize {
        cfg.aslr_bits_levels.len() * Self::stride(cfg)
    }

    fn run_cell(&self, cfg: &CampaignConfig, ctx: &CampaignCtx, cell: usize) -> u64 {
        let stride = Self::stride(cfg);
        let bits = cfg.aslr_bits_levels[cell / stride];
        let seed = cfg.cell_seed(self.id(), cell);
        if cell % stride < Self::trials(cfg) as usize {
            let mut rng = stream(seed, &[0]);
            brute_force_once(
                bits,
                &mut rng,
                attempt_cap(bits),
                &ctx.cache,
                cfg.serve_mode(),
            )
        } else {
            u64::from(leak_first_attempt(bits, seed, &ctx.cache))
        }
    }

    fn assemble(&self, cfg: &CampaignConfig, cells: Vec<u64>) -> AslrSweep {
        let trials = Self::trials(cfg);
        let rows = cfg
            .aslr_bits_levels
            .iter()
            .zip(cells.chunks(Self::stride(cfg)))
            .map(|(&bits, level)| {
                let (campaigns, leak) = level.split_at(trials as usize);
                AslrTrial {
                    bits,
                    trials,
                    mean_attempts: campaigns.iter().sum::<u64>() as f64 / f64::from(trials),
                    expected: AslrConfig::bits(bits).expected_attempts(),
                    leak_attempts: leak[0] as u32,
                }
            })
            .collect();
        AslrSweep { rows }
    }

    fn tables(&self, sweep: &AslrSweep) -> Vec<Table> {
        let mut t = Table::new(
            "E4: brute-forcing ASLR (return-to-libc until it lands)",
            &[
                "entropy bits",
                "trials",
                "mean attempts",
                "expected 2^bits",
                "leak-assisted attempts",
            ],
        );
        for r in &sweep.rows {
            t.row(vec![
                r.bits.to_string(),
                r.trials.to_string(),
                format!("{:.1}", r.mean_attempts),
                format!("{:.0}", r.expected),
                r.leak_attempts.to_string(),
            ]);
        }
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(bits_levels: &[u8], aslr_trials: u32, master_seed: u64) -> CampaignConfig {
        CampaignConfig {
            master_seed,
            aslr_bits_levels: bits_levels.to_vec(),
            aslr_trials,
            ..CampaignConfig::default()
        }
    }

    fn run(bits_levels: &[u8], aslr_trials: u32, master_seed: u64) -> AslrSweep {
        AslrExperiment.run(&config(bits_levels, aslr_trials, master_seed))
    }

    #[test]
    fn fork_and_rebuild_brute_forces_agree_exactly() {
        let fork = run(&[2, 3], 3, 11);
        let rebuilt = AslrExperiment.run(&CampaignConfig {
            fork_server: false,
            ..config(&[2, 3], 3, 11)
        });
        for (a, b) in fork.rows.iter().zip(&rebuilt.rows) {
            assert_eq!(a.mean_attempts, b.mean_attempts);
            assert_eq!(a.leak_attempts, b.leak_attempts);
        }
    }

    #[test]
    fn one_brute_force_compiles_each_distinct_image_once() {
        let cache = ProgramCache::new();
        let mut rng = stream(123, &[0]);
        let _ = brute_force_once(4, &mut rng, 64, &cache, ServeMode::Fork);
        let stats = cache.stats();
        // Exactly two distinct (source, options) pairs exist — the slid
        // victim and the attacker's default-layout local copy — and
        // each compiled at most once, however many attempts ran.
        assert_eq!(stats.requests(), 2);
        assert_eq!(stats.parses, 1);
        assert!(stats.misses <= 2);
    }

    #[test]
    fn attempts_scale_with_entropy() {
        // Small entropies keep the test fast; the shape is what matters.
        let sweep = run(&[2, 4], 8, 7);
        let low = &sweep.rows[0];
        let high = &sweep.rows[1];
        assert!(low.mean_attempts >= 1.0);
        assert!(
            high.mean_attempts > low.mean_attempts,
            "more entropy must mean more attempts ({} vs {})",
            high.mean_attempts,
            low.mean_attempts
        );
        // Within a loose factor of the analytic expectation.
        for r in &sweep.rows {
            assert!(
                r.mean_attempts > r.expected * 0.15 && r.mean_attempts < r.expected * 6.0,
                "bits {}: mean {} vs expected {}",
                r.bits,
                r.mean_attempts,
                r.expected
            );
        }
    }

    #[test]
    fn leak_collapses_the_search() {
        let sweep = run(&[4], 2, 9);
        assert_eq!(sweep.rows[0].leak_attempts, 1);
    }

    #[test]
    fn table_renders() {
        let report = AslrExperiment.report(&run(&[2], 2, 5));
        assert_eq!(report.tables.len(), 1);
        assert!(report.tables[0].to_string().contains("entropy bits"));
        assert_eq!(report.tables[0].rows.len(), 1);
        assert_eq!(report.tables[0].rows[0][4], "1", "leak lands first try");
    }
}
