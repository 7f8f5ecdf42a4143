//! Campaign API contract: the registry is complete, reports are
//! byte-identical at any worker count (and with or without event
//! sinks attached), and the compile cache means a repeated grid costs
//! zero compiles.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use swsec::campaign::{
    run_campaign, run_campaign_on, CampaignConfig, CampaignCtx, CampaignTelemetry,
};
use swsec::experiments::registry;
use swsec::faults::FaultyExperiment;
use swsec::report::ExperimentId;
use swsec_obs::jsonl::parse_line;
use swsec_obs::{EventMask, JsonlSink, Record, SecurityEvent};
use swsec_vm::Engine;

/// A small-but-real slice of the suite: two grids (E3, E14) plus two
/// single-shot experiments, so the determinism check exercises the
/// worker pool with dozens of cells.
fn determinism_config() -> CampaignConfig {
    CampaignConfig {
        experiments: vec![
            ExperimentId::new(1),
            ExperimentId::new(3),
            ExperimentId::new(10),
            ExperimentId::new(14),
        ],
        ..CampaignConfig::quick()
    }
}

#[test]
fn registry_contains_exactly_e1_to_e16() {
    let ids: Vec<ExperimentId> = registry().iter().map(|e| e.id()).collect();
    assert_eq!(ids, ExperimentId::ALL.to_vec());
    for e in registry() {
        assert!(!e.title().is_empty());
        assert!(e.cells(&CampaignConfig::default()) >= 1, "{}", e.id());
    }
}

#[test]
fn same_seed_renders_identically_across_worker_counts() {
    let mut cfg = determinism_config();
    let mut renders = Vec::new();
    for workers in [1, 4, 8] {
        cfg.workers = workers;
        let report = run_campaign(&cfg);
        assert_eq!(report.reports.len(), 4);
        renders.push(report.render());
    }
    assert_eq!(renders[0], renders[1], "1 vs 4 workers");
    assert_eq!(renders[0], renders[2], "1 vs 8 workers");
    assert!(renders[0].contains("# E3"));
    assert!(renders[0].contains("COMPROMISED"));
}

#[test]
fn different_master_seeds_change_derived_cell_seeds() {
    let a = CampaignConfig::default();
    let b = CampaignConfig {
        master_seed: a.master_seed + 1,
        ..CampaignConfig::default()
    };
    assert_ne!(
        a.cell_seed(ExperimentId::new(3), 0),
        b.cell_seed(ExperimentId::new(3), 0)
    );
}

#[test]
fn second_matrix_run_compiles_nothing() {
    let cfg = CampaignConfig::quick();
    let ctx = CampaignCtx::new();
    let matrix = registry()[ExperimentId::new(3).index()];

    let first = matrix.run_report(&cfg, &ctx);
    let after_first = ctx.cache.stats();
    assert!(after_first.misses > 0, "first run must compile something");

    let second = matrix.run_report(&cfg, &ctx);
    let after_second = ctx.cache.stats();
    assert_eq!(
        after_second.misses, after_first.misses,
        "second run must be served entirely from the cache"
    );
    assert_eq!(after_second.parses, after_first.parses);
    assert!(after_second.hits > after_first.hits);
    assert_eq!(first.render(), second.render());
}

#[test]
fn sequential_runs_render_exactly_the_campaign_sections() {
    // One path per experiment: the sequential typed run, rendered
    // through its report, is byte-for-byte the experiment's section of
    // a pooled campaign on the same configuration.
    let quick = CampaignConfig {
        workers: 4,
        ..CampaignConfig::quick()
    };
    // An empty ASLR sweep lays out no E4 cell and renders an empty
    // table, on both paths.
    let empty_sweep = CampaignConfig {
        experiments: vec![ExperimentId::new(4)],
        aslr_bits_levels: Vec::new(),
        ..quick.clone()
    };
    for cfg in [quick, empty_sweep] {
        let campaign = run_campaign(&cfg);
        assert!(campaign.all_ok());
        if cfg.aslr_bits_levels.is_empty() {
            assert_eq!(campaign.timings[0].cells, 0);
            assert!(campaign.reports[0].tables[0].rows.is_empty());
        }
        let selected = cfg.selected();
        assert_eq!(campaign.reports.len(), selected.len());
        for (exp, section) in selected.iter().zip(&campaign.reports) {
            let sequential = exp.run_report(&cfg, &CampaignCtx::new());
            assert_eq!(sequential.render(), section.render(), "{}", exp.id());
        }
    }
}

#[test]
fn campaign_summary_reports_all_selected_experiments() {
    let cfg = determinism_config();
    let report = run_campaign(&cfg);
    assert_eq!(report.timings.len(), 4);
    // E3 decomposes into the full 56-cell grid.
    let e3 = report
        .timings
        .iter()
        .find(|t| t.id == ExperimentId::new(3))
        .unwrap();
    assert_eq!(e3.cells, 56);
    let summary = report.summary();
    assert_eq!(summary.rows.len(), 4);
    assert!(report.cache.hits + report.cache.misses > 0);
    // The campaign's machines ran real instructions and their hot-path
    // counters reached the summary header.
    assert!(report.vm.instructions > 0);
    assert!(summary.title.contains("icache"));
    assert!(summary.title.contains("tlb"));
    assert!(summary.title.contains("tier2"));
}

#[test]
fn vm_caches_do_not_change_a_single_render_byte() {
    // The decoded-instruction cache and the memory TLBs are pure
    // speedups: with them disabled, every experiment report — and
    // hence the whole campaign render — must be byte-identical.
    let mut cfg = determinism_config();
    let cached = run_campaign(&cfg).render();

    cfg.vm.engine = Engine::Baseline;
    let uncached = run_campaign(&cfg).render();
    assert_eq!(cached, uncached, "caches must be semantically invisible");

    // Same bar for the tier-2 block engine: fast path on, blocks off.
    cfg.vm.engine = Engine::Fast;
    let untiered = run_campaign(&cfg).render();
    assert_eq!(cached, untiered, "tier 2 must be semantically invisible");
}

/// A `Write` handle into a shared buffer, so the test can read what
/// the JSONL sink wrote after dropping the sink.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn event_sinks_change_no_render_byte_and_jsonl_captures_attacks() {
    // The observability acceptance test, in one process pass: run the
    // full quick suite with no sink, then again with a JSONL event
    // sink in the run's VM configuration. The rendered reports must
    // be byte-identical, and the telemetry dump must parse line by
    // line and contain the attack experiments' canary trips and PMA
    // violations.
    let mut cfg = CampaignConfig::quick();
    let baseline = run_campaign(&cfg).render();

    let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let security = EventMask::FAULT
        .union(EventMask::CANARY)
        .union(EventMask::PMA)
        .union(EventMask::GUARD);
    let sink = Arc::new(JsonlSink::with_interests(
        Box::new(SharedBuf(buf.clone())),
        security,
    ));
    cfg.vm.sink = Some(sink.clone());
    let observed = run_campaign(&cfg).render();
    sink.flush();

    assert_eq!(
        observed, baseline,
        "attaching an event sink must not change a single render byte"
    );

    let bytes = buf.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("telemetry is UTF-8");
    let (mut canary_trips, mut pma_violations, mut lines) = (0u64, 0u64, 0u64);
    for line in text.lines().filter(|l| !l.is_empty()) {
        lines += 1;
        match parse_line(line).unwrap_or_else(|e| panic!("bad telemetry line {line:?}: {e}")) {
            Record::Event(SecurityEvent::CanaryTrip { .. }) => canary_trips += 1,
            Record::Event(SecurityEvent::PmaViolation { .. }) => pma_violations += 1,
            _ => {}
        }
    }
    assert!(lines > 0, "the quick campaign must emit telemetry");
    assert!(canary_trips >= 1, "no CanaryTrip event in the dump");
    assert!(pma_violations >= 1, "no PmaViolation event in the dump");
}

#[test]
fn profiler_and_spans_are_deterministic_across_worker_counts() {
    use swsec::campaign::run_campaign_with;
    use swsec_obs::{SpanMask, SymbolTable};
    use swsec_vm::profile::Profiler;

    // Spans + profiler at 1 vs 4 workers: the render, the span tree
    // and the folded profile must all be byte-identical — sequence
    // clocks and retired-instruction sampling are functions of the
    // seed, never of scheduling.
    let mut cfg = determinism_config();
    let mut runs = Vec::new();
    for workers in [1usize, 4] {
        cfg.workers = workers;
        // A fine interval: the countdown re-arms at every attempt
        // boundary (that is what makes fork == rebuild), so an
        // attempt shorter than the interval contributes no samples.
        let prof = Arc::new(Profiler::new(256));
        let telemetry = CampaignTelemetry::none()
            .with_spans(SpanMask::DEFAULT)
            .with_profiler(prof.clone());
        let report = run_campaign_with(&cfg, &telemetry);
        assert!(report.all_ok());
        assert!(
            report.vm.prof_samples > 0,
            "no samples at {workers} workers"
        );
        runs.push((
            report.render(),
            report.span_tree(),
            prof.folded(&SymbolTable::empty()),
        ));
    }
    assert_eq!(runs[0].0, runs[1].0, "render 1 vs 4 workers");
    assert_eq!(runs[0].1, runs[1].1, "span tree 1 vs 4 workers");
    assert_eq!(runs[0].2, runs[1].2, "folded profile 1 vs 4 workers");

    // The tree has the campaign root, per-cell spans, and nested boot
    // spans from the fork servers' launches.
    assert!(runs[0].1.contains("campaign"));
    assert!(runs[0].1.contains("cell E3"));
    assert!(runs[0].1.contains("boot"));
    assert!(!runs[0].2.is_empty());

    // And attaching the hooks changed no render byte.
    let baseline = run_campaign(&cfg).render();
    assert_eq!(runs[0].0, baseline);
}

/// A deadline comfortably under the fault demo's ~2 s stall cell yet
/// far above what any healthy quick cell needs in debug builds.
fn fault_config(workers: usize) -> CampaignConfig {
    CampaignConfig {
        workers,
        cell_deadline: Duration::from_secs(1),
        cell_retries: 1,
        ..CampaignConfig::quick()
    }
}

#[test]
fn failing_cells_do_not_disturb_healthy_experiment_output() {
    // A campaign mixing a healthy experiment with the fault demo must
    // run to completion, report the failures, and leave the healthy
    // experiment's report byte-for-byte what a clean run produces.
    let e10 = registry()[ExperimentId::new(10).index()];
    let mixed = run_campaign_on(
        &fault_config(2),
        &[e10, FaultyExperiment::fresh()],
        &CampaignTelemetry::none(),
    );
    assert!(!mixed.all_ok());
    assert_eq!(mixed.failed_cells().len(), 2, "panic + timeout cells");
    assert!(mixed.render().contains("## failed cells"));

    let solo = run_campaign_on(&fault_config(2), &[e10], &CampaignTelemetry::none());
    assert!(solo.all_ok());
    assert!(!solo.render().contains("failed cells"));
    assert_eq!(mixed.reports[0], solo.reports[0]);

    // And the whole mixed render — failures included — is
    // byte-identical across worker counts (fresh demo instances per
    // run restart the flaky cell's attempt state).
    let mixed4 = run_campaign_on(
        &fault_config(4),
        &[e10, FaultyExperiment::fresh()],
        &CampaignTelemetry::none(),
    );
    assert_eq!(mixed.render(), mixed4.render());
}

#[test]
fn crash_matrix_is_deterministic_across_worker_counts() {
    let mut cfg = CampaignConfig {
        experiments: vec![ExperimentId::new(16)],
        ..CampaignConfig::quick()
    };
    let mut renders = Vec::new();
    for workers in [1, 4] {
        cfg.workers = workers;
        let report = run_campaign(&cfg);
        assert!(report.all_ok(), "the crash matrix itself must pass");
        renders.push(report.render());
    }
    assert_eq!(renders[0], renders[1], "1 vs 4 workers");
    assert!(renders[0].contains("E16a"));
    assert!(renders[0].contains("E16b"));
    assert!(renders[0].contains("E16c"));
}

#[test]
fn failed_cells_reach_the_jsonl_telemetry() {
    let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::new(JsonlSink::with_interests(
        Box::new(SharedBuf(buf.clone())),
        EventMask::CELL,
    ));
    let mut cfg = fault_config(2);
    cfg.vm.sink = Some(sink.clone());
    let report = run_campaign_on(
        &cfg,
        &[FaultyExperiment::fresh()],
        &CampaignTelemetry::none(),
    );
    sink.flush();
    assert_eq!(report.failed_cells().len(), 2);

    let bytes = buf.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("telemetry is UTF-8");
    let cell_failed = text
        .lines()
        .filter(|l| !l.is_empty())
        .filter(|line| {
            matches!(
                parse_line(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}")),
                Record::Event(SecurityEvent::CellFailed { .. })
            )
        })
        .count();
    assert_eq!(
        cell_failed, 2,
        "expected CellFailed events for the panic and timeout cells only"
    );
}
