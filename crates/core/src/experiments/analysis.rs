//! Experiment E6 — countering the *introduction* of vulnerabilities
//! (§III-C2).
//!
//! A seeded-bug corpus measures the two tooling families the paper
//! surveys:
//!
//! * **static analysis** at two operating points — precise (low false
//!   positives, misses data-dependent bugs) and paranoid (catches more,
//!   pays in false alarms), reproducing the trade-off of \[13\];
//! * **test-time run-time checking** — detects every violation the
//!   test suite actually *triggers*, and nothing it does not (the
//!   false-negative mode the paper attributes to testing).

use swsec_defenses::analyzer::{analyze, Precision};
use swsec_defenses::runtime_check::check_with_tests;
use swsec_minc::parse;

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::{only_cell, Experiment};
use crate::report::{ExperimentId, Table};

/// One corpus program.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Name for reports.
    pub name: &'static str,
    /// MinC source.
    pub source: &'static str,
    /// Ground truth: does it contain a memory-safety bug?
    pub buggy: bool,
    /// A test input that triggers the bug (empty when not applicable).
    pub trigger: &'static [u8],
    /// A benign test input.
    pub benign: &'static [u8],
}

/// The seeded corpus: five buggy programs covering the §III-A classes
/// and five clean ones that superficially resemble them.
pub fn corpus() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            name: "overflow-constant",
            source: "void main() { char buf[16]; read(0, buf, 32); }",
            buggy: true,
            trigger: b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
            benign: b"hi",
        },
        CorpusEntry {
            name: "overflow-data-dependent",
            source: "void main() { char len[1]; read(0, len, 1); \
                     char buf[8]; read(0, buf, len[0]); }",
            buggy: true,
            trigger: b"\x20AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
            benign: b"\x04abcd",
        },
        CorpusEntry {
            name: "index-constant-oob",
            source: "int main() { int a[4]; a[4] = 1; return 0; }",
            buggy: true,
            trigger: b"",
            benign: b"",
        },
        CorpusEntry {
            name: "index-data-dependent",
            source: "int main() { char c[1]; read(0, c, 1); int a[4]; \
                     a[c[0]] = 1; return 0; }",
            buggy: true,
            trigger: b"\x09",
            benign: b"\x02",
        },
        CorpusEntry {
            name: "dangling-return",
            source: "int *f() { int x = 1; return &x; }\n\
                     int main() { int *p = f(); return 0; }",
            buggy: true,
            trigger: b"",
            benign: b"",
        },
        CorpusEntry {
            name: "clean-echo",
            source: "void main() { char buf[16]; int n = read(0, buf, 16); write(1, buf, n); }",
            buggy: false,
            trigger: b"",
            benign: b"ping",
        },
        CorpusEntry {
            name: "clean-bounded-copy",
            source: "void main() { char src[8]; char dst[8]; read(0, src, 8); \
                     for (int i = 0; i < 8; i++) dst[i] = src[i]; write(1, dst, 8); }",
            buggy: false,
            trigger: b"",
            benign: b"12345678",
        },
        CorpusEntry {
            name: "clean-clamped-length",
            source: "void main() { char nb[1]; read(0, nb, 1); int n = nb[0]; \
                     if (n > 16) { n = 16; } char buf[16]; read(0, buf, n); }",
            buggy: false,
            trigger: b"",
            benign: b"\x40abc",
        },
        CorpusEntry {
            name: "clean-sum",
            source: "int main() { int a[8]; int s = 0; \
                     for (int i = 0; i < 8; i++) a[i] = i; \
                     for (int i = 0; i < 8; i++) s = s + a[i]; return s; }",
            buggy: false,
            trigger: b"",
            benign: b"",
        },
        CorpusEntry {
            name: "clean-global-ptr",
            source: "int g;\nint *addr() { return &g; }\n\
                     int main() { int *p = addr(); *p = 7; return g; }",
            buggy: false,
            trigger: b"",
            benign: b"",
        },
    ]
}

/// Detection counts for one tool configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Detection {
    /// Buggy programs flagged (true positives).
    pub true_positives: usize,
    /// Clean programs flagged (false positives).
    pub false_positives: usize,
    /// Buggy programs missed (false negatives).
    pub false_negatives: usize,
}

/// Full E6 results.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Static analysis, precise mode.
    pub precise: Detection,
    /// Static analysis, paranoid mode.
    pub paranoid: Detection,
    /// Run-time checking with trigger inputs included in the tests.
    pub runtime_with_trigger: Detection,
    /// Run-time checking with only benign tests.
    pub runtime_benign_only: Detection,
    /// Number of buggy / clean programs in the corpus.
    pub corpus_sizes: (usize, usize),
}

/// E6 under the campaign API.
pub struct AnalysisExperiment;

impl Experiment for AnalysisExperiment {
    type Cell = AnalysisReport;
    type Output = AnalysisReport;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(6)
    }

    fn title(&self) -> &'static str {
        "Static analysis and run-time checking"
    }

    /// Runs the E6 measurement.
    fn run_cell(&self, _cfg: &CampaignConfig, _ctx: &CampaignCtx, _cell: usize) -> AnalysisReport {
        let corpus = corpus();
        let buggy_count = corpus.iter().filter(|c| c.buggy).count();
        let clean_count = corpus.len() - buggy_count;

        let score = |flagged: &dyn Fn(&CorpusEntry) -> bool| -> Detection {
            let mut d = Detection::default();
            for entry in &corpus {
                let hit = flagged(entry);
                match (entry.buggy, hit) {
                    (true, true) => d.true_positives += 1,
                    (true, false) => d.false_negatives += 1,
                    (false, true) => d.false_positives += 1,
                    (false, false) => {}
                }
            }
            d
        };

        let precise = score(&|e: &CorpusEntry| {
            let unit = parse(e.source).expect("corpus parses");
            !analyze(&unit, Precision::Precise).is_empty()
        });
        let paranoid = score(&|e: &CorpusEntry| {
            let unit = parse(e.source).expect("corpus parses");
            !analyze(&unit, Precision::Paranoid).is_empty()
        });
        let runtime_with_trigger = score(&|e: &CorpusEntry| {
            let unit = parse(e.source).expect("corpus parses");
            let mut tests = vec![e.benign.to_vec()];
            if !e.trigger.is_empty() || e.buggy {
                tests.push(e.trigger.to_vec());
            }
            check_with_tests(&unit, &tests, 1_000_000)
                .expect("corpus compiles")
                .detected()
        });
        let runtime_benign_only = score(&|e: &CorpusEntry| {
            let unit = parse(e.source).expect("corpus parses");
            check_with_tests(&unit, &[e.benign.to_vec()], 1_000_000)
                .expect("corpus compiles")
                .detected()
        });

        AnalysisReport {
            precise,
            paranoid,
            runtime_with_trigger,
            runtime_benign_only,
            corpus_sizes: (buggy_count, clean_count),
        }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<AnalysisReport>) -> AnalysisReport {
        only_cell(cells)
    }

    fn tables(&self, report: &AnalysisReport) -> Vec<Table> {
        let mut t = Table::new(
            "E6: vulnerability-introduction countermeasures on the seeded corpus",
            &["tool", "true pos", "false pos", "false neg"],
        );
        let mut push = |name: &str, d: Detection| {
            t.row(vec![
                name.to_string(),
                d.true_positives.to_string(),
                d.false_positives.to_string(),
                d.false_negatives.to_string(),
            ]);
        };
        push("static analysis (precise)", report.precise);
        push("static analysis (paranoid)", report.paranoid);
        push(
            "runtime checks + triggering tests",
            report.runtime_with_trigger,
        );
        push(
            "runtime checks, benign tests only",
            report.runtime_benign_only,
        );
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> AnalysisReport {
        AnalysisExperiment.run(&CampaignConfig::default())
    }

    #[test]
    fn corpus_is_balanced() {
        let r = run();
        assert_eq!(r.corpus_sizes, (5, 5));
    }

    #[test]
    fn precise_analysis_has_no_false_positives_but_misses_bugs() {
        let r = run();
        assert_eq!(r.precise.false_positives, 0);
        assert!(
            r.precise.false_negatives >= 1,
            "precise should miss data-dependent bugs"
        );
        assert!(r.precise.true_positives >= 3);
    }

    #[test]
    fn paranoid_analysis_trades_false_positives_for_recall() {
        let r = run();
        assert!(r.paranoid.true_positives >= r.precise.true_positives);
        assert!(
            r.paranoid.false_positives >= 1,
            "paranoid should over-report"
        );
        assert!(r.paranoid.false_negatives <= r.precise.false_negatives);
    }

    #[test]
    fn runtime_checks_catch_all_triggered_bugs_only() {
        let r = run();
        // With triggering tests: no false negatives (bugs that have a
        // trigger are caught; the dangling-return bug has no *write*
        // through the dangling pointer, so allow one miss).
        assert!(r.runtime_with_trigger.true_positives >= 4);
        assert_eq!(r.runtime_with_trigger.false_positives, 0);
        // Benign tests only: the data-dependent bugs escape.
        assert!(
            r.runtime_benign_only.true_positives < r.runtime_with_trigger.true_positives,
            "benign-only testing should detect less"
        );
    }

    #[test]
    fn table_renders() {
        assert!(AnalysisExperiment
            .report(&run())
            .render()
            .contains("static analysis"));
    }
}
