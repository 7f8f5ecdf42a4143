//! Experiment E5 — countermeasure run-time overhead (§III-C1/C2).
//!
//! The paper's cost claims, measured deterministically in executed
//! instructions: stack canaries are "cheap and straightforward"
//! (constant work per call), while the run-time memory-safety checks
//! that make testing effective "impose a performance overhead that is
//! unacceptable in production" (work per memory access).

use swsec_defenses::runtime_check::measure_overheads;
use swsec_minc::{parse, HardenOptions};

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::Experiment;
use crate::report::{ExperimentId, Table};

/// The benchmark workloads: compute-heavy MinC programs exercising
/// calls, array traffic and byte scanning.
pub fn workloads() -> Vec<(&'static str, String)> {
    let checksum = "\
int main() {\n\
    char data[256];\n\
    for (int i = 0; i < 256; i++) data[i] = i * 7;\n\
    int sum = 0;\n\
    for (int round = 0; round < 20; round++) {\n\
        for (int i = 0; i < 256; i++) sum = sum + data[i];\n\
    }\n\
    return sum & 0xff;\n\
}\n";
    let sort = "\
int main() {\n\
    int a[64];\n\
    for (int i = 0; i < 64; i++) a[i] = (i * 37 + 11) % 64;\n\
    for (int i = 1; i < 64; i++) {\n\
        int key = a[i];\n\
        int j = i - 1;\n\
        while (j >= 0 && a[j] > key) { a[j + 1] = a[j]; j = j - 1; }\n\
        a[j + 1] = key;\n\
    }\n\
    int ok = 1;\n\
    for (int i = 1; i < 64; i++) { if (a[i - 1] > a[i]) ok = 0; }\n\
    return ok;\n\
}\n";
    let calls = "\
int leaf(int x) { char pad[16]; pad[0] = x; return pad[0] + 1; }\n\
int main() {\n\
    int s = 0;\n\
    for (int i = 0; i < 300; i++) s = s + leaf(i);\n\
    return s & 0xff;\n\
}\n";
    vec![
        ("checksum", checksum.to_string()),
        ("insertion-sort", sort.to_string()),
        ("call-heavy", calls.to_string()),
    ]
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Workload name.
    pub workload: &'static str,
    /// Baseline instruction count.
    pub baseline: u64,
    /// Relative overhead of canaries (e.g. `0.02` = 2 %).
    pub canary: f64,
    /// Relative overhead of software bounds checks.
    pub bounds: f64,
    /// Relative overhead of both combined.
    pub both: f64,
}

/// The measured sweep.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// One row per workload.
    pub rows: Vec<OverheadRow>,
}

impl OverheadReport {
    /// Mean overhead across workloads for (canary, bounds).
    pub fn means(&self) -> (f64, f64) {
        let n = self.rows.len() as f64;
        (
            self.rows.iter().map(|r| r.canary).sum::<f64>() / n,
            self.rows.iter().map(|r| r.bounds).sum::<f64>() / n,
        )
    }
}

/// Measures one workload under all three hardening mixes, against one
/// baseline run.
fn measure_workload(name: &'static str, src: &str) -> OverheadRow {
    let mut canary_only = HardenOptions::none();
    canary_only.stack_canary = true;
    let mut bounds_only = HardenOptions::none();
    bounds_only.bounds_checks = true;
    let mut both = HardenOptions::none();
    both.stack_canary = true;
    both.bounds_checks = true;

    let unit = parse(src).expect("workload parses");
    let oh = measure_overheads(&unit, &[canary_only, bounds_only, both], &[], 50_000_000)
        .expect("clean runs");
    OverheadRow {
        workload: name,
        baseline: oh[0].baseline,
        canary: oh[0].relative(),
        bounds: oh[1].relative(),
        both: oh[2].relative(),
    }
}

/// E5 under the campaign API: one cell per benchmark workload.
pub struct OverheadExperiment;

impl Experiment for OverheadExperiment {
    type Cell = OverheadRow;
    type Output = OverheadReport;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(5)
    }

    fn title(&self) -> &'static str {
        "Countermeasure instruction overhead"
    }

    fn cells(&self, _cfg: &CampaignConfig) -> usize {
        workloads().len()
    }

    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, cell: usize) -> OverheadRow {
        let (name, src) = workloads().swap_remove(cell);
        measure_workload(name, &src)
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<OverheadRow>) -> OverheadReport {
        OverheadReport { rows: cells }
    }

    fn tables(&self, report: &OverheadReport) -> Vec<Table> {
        let mut t = Table::new(
            "E5: instruction-count overhead of compiler countermeasures",
            &[
                "workload",
                "baseline instrs",
                "canary",
                "bounds checks",
                "both",
            ],
        );
        for r in &report.rows {
            t.row(vec![
                r.workload.to_string(),
                r.baseline.to_string(),
                format!("{:+.1}%", r.canary * 100.0),
                format!("{:+.1}%", r.bounds * 100.0),
                format!("{:+.1}%", r.both * 100.0),
            ]);
        }
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> OverheadReport {
        OverheadExperiment.run(&CampaignConfig::default())
    }

    #[test]
    fn bounds_cost_dominates_canary_cost_on_data_heavy_code() {
        // The paper's split is per *kind* of work: canaries cost a
        // constant per call, memory-safety checks cost per access. On
        // the array-heavy workloads the per-access cost dominates…
        let report = run();
        for r in report
            .rows
            .iter()
            .filter(|r| r.workload == "checksum" || r.workload == "insertion-sort")
        {
            assert!(
                r.bounds > 3.0 * r.canary.max(0.002),
                "{}: bounds {:.3} vs canary {:.3}",
                r.workload,
                r.bounds,
                r.canary
            );
            assert!(r.bounds > 0.03, "{}: bounds {:.3}", r.workload, r.bounds);
        }
        // …while on the call-heavy workload the canary's per-call cost
        // shows up instead.
        let calls = report
            .rows
            .iter()
            .find(|r| r.workload == "call-heavy")
            .expect("workload present");
        assert!(calls.canary > 0.01, "canary per-call cost visible");
    }

    #[test]
    fn combined_is_at_least_each_alone() {
        let report = run();
        for r in &report.rows {
            assert!(
                r.both >= r.bounds * 0.9,
                "{}: both {} vs bounds {}",
                r.workload,
                r.both,
                r.bounds
            );
        }
    }

    #[test]
    fn table_renders() {
        assert!(OverheadExperiment
            .report(&run())
            .render()
            .contains("baseline"));
    }
}
