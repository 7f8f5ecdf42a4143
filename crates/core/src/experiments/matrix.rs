//! Experiment E3 — the attack × countermeasure matrix (§III-C1).
//!
//! The paper's central qualitative claim about exploit mitigation:
//! "while the combination of these countermeasures raises the bar for
//! attackers, it is commonly accepted that many memory safety
//! vulnerabilities remain exploitable through clever combinations of
//! attack techniques." The matrix makes the claim quantitative: every
//! technique against every deployed configuration.

use swsec_defenses::DefenseConfig;

use crate::attacker::{run_technique_cached, AttackOutcome, Technique};
use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::Experiment;
use crate::report::{ExperimentId, Table};

const TITLE: &str = "E3: attack techniques × deployed countermeasures";

/// How one matrix cell renders.
fn outcome_cell(o: &AttackOutcome) -> String {
    if o.succeeded() {
        "COMPROMISED".to_string()
    } else {
        match o {
            AttackOutcome::Blocked { by } => format!("✗ {by}"),
            AttackOutcome::Failed { .. } => "✗ failed".to_string(),
            AttackOutcome::Success { .. } => unreachable!("handled above"),
        }
    }
}

/// The standard configurations of the experiment, in escalation order.
pub fn standard_configs() -> Vec<DefenseConfig> {
    let mut canary = DefenseConfig::none();
    canary.canary = true;
    let mut dep = DefenseConfig::none();
    dep.dep = true;
    let mut aslr = DefenseConfig::none();
    aslr.aslr_bits = Some(8);
    let mut canary_dep = DefenseConfig::none();
    canary_dep.canary = true;
    canary_dep.dep = true;
    let modern = DefenseConfig::modern(8);
    let mut modern_shadow = modern;
    modern_shadow.shadow_stack = true;
    let mut bounds = DefenseConfig::none();
    bounds.bounds_checks = true;
    vec![
        DefenseConfig::none(),
        canary,
        dep,
        aslr,
        canary_dep,
        modern,
        modern_shadow,
        bounds,
    ]
}

/// The full matrix of outcomes.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// The configurations (column order).
    pub configs: Vec<DefenseConfig>,
    /// Row per technique: outcomes parallel to `configs`.
    pub rows: Vec<(Technique, Vec<AttackOutcome>)>,
}

impl Matrix {
    /// The outcome for one (technique, config) pair.
    pub fn outcome(&self, t: Technique, config_idx: usize) -> &AttackOutcome {
        &self
            .rows
            .iter()
            .find(|(rt, _)| *rt == t)
            .expect("technique present")
            .1[config_idx]
    }

    /// How many techniques compromise each configuration.
    pub fn compromises_per_config(&self) -> Vec<usize> {
        (0..self.configs.len())
            .map(|i| {
                self.rows
                    .iter()
                    .filter(|(_, outcomes)| outcomes[i].succeeded())
                    .count()
            })
            .collect()
    }
}

/// E3 under the campaign API: one cell per technique × configuration
/// pair (7 × 8 = 56), so the matrix fans out across the campaign pool.
pub struct MatrixExperiment;

impl Experiment for MatrixExperiment {
    /// The outcome of one technique against one configuration.
    type Cell = AttackOutcome;
    type Output = Matrix;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(3)
    }

    fn title(&self) -> &'static str {
        "Attack × countermeasure matrix"
    }

    fn cells(&self, _cfg: &CampaignConfig) -> usize {
        Technique::ALL.len() * standard_configs().len()
    }

    fn run_cell(&self, cfg: &CampaignConfig, ctx: &CampaignCtx, cell: usize) -> AttackOutcome {
        let configs = standard_configs();
        let technique = Technique::ALL[cell / configs.len()];
        let config = configs[cell % configs.len()];
        run_technique_cached(
            technique,
            config,
            cfg.cell_seed(self.id(), cell),
            &ctx.cache,
        )
        .expect("built-in victims compile")
        .outcome
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<AttackOutcome>) -> Matrix {
        let configs = standard_configs();
        let mut cells = cells.into_iter();
        let rows = Technique::ALL
            .iter()
            .map(|&t| (t, cells.by_ref().take(configs.len()).collect()))
            .collect();
        Matrix { configs, rows }
    }

    fn tables(&self, matrix: &Matrix) -> Vec<Table> {
        let mut headers = vec!["technique".to_string()];
        headers.extend(matrix.configs.iter().map(|c| c.label()));
        let mut table = Table {
            title: TITLE.into(),
            headers,
            rows: Vec::new(),
        };
        for (t, outcomes) in &matrix.rows {
            let mut row = vec![t.label().to_string()];
            row.extend(outcomes.iter().map(outcome_cell));
            table.rows.push(row);
        }
        vec![table]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(master_seed: u64) -> Matrix {
        MatrixExperiment.run(&CampaignConfig {
            master_seed,
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn matrix_shape_matches_the_papers_claims() {
        let m = run(42);
        let per_config = m.compromises_per_config();
        // Unprotected: everything wins.
        assert_eq!(per_config[0], 7);
        // Every non-bounds configuration is compromised by something…
        for (i, &count) in per_config.iter().enumerate().take(7) {
            assert!(
                count >= 1,
                "config {} unexpectedly blocked everything",
                m.configs[i].label()
            );
        }
        // …and escalating defenses monotonically help at the extremes:
        // the modern stack admits fewer attacks than nothing.
        assert!(per_config[5] < per_config[0]);
        // Full memory safety (bounds checks) blocks all seven.
        assert_eq!(per_config[7], 0);
    }

    #[test]
    fn data_only_wins_everywhere_except_memory_safety() {
        let m = run(42);
        for (i, config) in m.configs.iter().enumerate() {
            let o = m.outcome(Technique::DataOnly, i);
            if config.bounds_checks {
                assert!(!o.succeeded());
            } else {
                assert!(o.succeeded(), "data-only blocked by {}", config.label());
            }
        }
    }

    #[test]
    fn info_leak_beats_modern_but_not_shadow_stack() {
        let m = run(42);
        // Column 5 is canary+DEP+ASLR; column 6 adds the shadow stack.
        assert!(m.outcome(Technique::InfoLeak, 5).succeeded());
        assert!(!m.outcome(Technique::InfoLeak, 6).succeeded());
    }

    #[test]
    fn table_renders_with_all_columns() {
        let m = run(42);
        let t = &MatrixExperiment.tables(&m)[0];
        assert_eq!(t.headers.len(), 9);
        assert_eq!(t.rows.len(), 7);
    }
}
