//! Runs the full E1–E16 suite through the parallel campaign runner.
//!
//! ```sh
//! cargo run --release --example campaign -- \
//!     [--workers N] [--seed S] [--quick] [--only N]... [--progress] \
//!     [--telemetry out.jsonl] [--render-only] [--fault-demo] \
//!     [--no-fork-server] [--no-tier2] [--spans] [--chrome out.json] \
//!     [--profile out.folded] [--profile-interval N]
//! ```
//!
//! Prints every experiment's report (byte-identical for any worker
//! count, with or without telemetry) followed by the run summary:
//! per-experiment busy time, the compile-cache counters, and the wall
//! clock. `--render-only` suppresses the summary, leaving exactly the
//! deterministic bytes on stdout. `--only N` (repeatable) restricts
//! the run to experiment N of E1–E16; any other N is a usage error
//! (exit 2), as is a flag missing its value or given a malformed one.
//!
//! With `--telemetry PATH`, the run also streams a schema-v1 JSONL
//! dump to `PATH`: meta lines describing the run, one event line per
//! security event any machine in the campaign raised (faults, canary
//! trips, PMA violations, guard checks, failed campaign cells), and
//! the final metric lines (campaign counters, per-cell time
//! histogram). `--progress` prints a live per-cell progress line to
//! stderr.
//!
//! `--no-fork-server` makes the guessing-attack experiments (E4, E14)
//! rebuild their victim machine for every attempt instead of serving
//! attempts from a boot-time snapshot. It exists to demonstrate — and
//! let CI verify — that the fork server is a pure speedup: stdout is
//! byte-identical with and without it.
//!
//! `--no-tier2` turns the VM's tier-2 superinstruction block engine
//! off for the whole campaign (every machine built after the switch).
//! Like `--no-fork-server`, it exists to demonstrate — and let CI
//! verify — that tier 2 is a pure speedup: stdout is byte-identical
//! with and without it (DESIGN.md §12).
//!
//! `--fault-demo` swaps the suite for the test-only fault-demo
//! experiment under a short cell deadline: its cells panic, stall and
//! flake on purpose, demonstrating the runner's containment, watchdog
//! and retry. Any run — demo or not — exits non-zero when a cell
//! failed, so CI can gate on campaign health.
//!
//! `--spans` records hierarchical spans (campaign/cell/compile/boot by
//! default) on deterministic per-slot tracks; with `--telemetry` they
//! are appended to the JSONL dump as `span` records, and `--chrome
//! FILE` (implies `--spans`) additionally exports a Chrome
//! `trace_event` JSON file loadable in Perfetto or `chrome://tracing`.
//! `--profile FILE` attaches a deterministic sampling profiler (every
//! 4096 retired instructions; override with `--profile-interval N`)
//! and writes the aggregated flamegraph-ready `.folded` stacks to
//! `FILE`. Campaign cells run many different programs at overlapping
//! layouts, so campaign-wide profiles render frames as raw `0x…`
//! addresses; `fuzz --profile` produces the symbolized single-victim
//! variant.

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;
use std::time::Duration;

use swsec::campaign::{
    run_campaign_on, run_campaign_with, CampaignConfig, CampaignReport, CampaignTelemetry,
};
use swsec::experiments::registry;
use swsec::faults::FaultyExperiment;
use swsec_obs::jsonl::{meta_line, span_line};
use swsec_obs::{EventMask, JsonlSink, MetricsRegistry, SpanMask, SymbolTable};
use swsec_vm::profile::{Profiler, DEFAULT_INTERVAL};
use swsec_vm::Engine;

const USAGE: &str = "usage: campaign [--workers N] [--seed S] [--quick] [--only N]... \
                     [--progress] [--telemetry out.jsonl] [--render-only] [--fault-demo] \
                     [--no-fork-server] [--no-tier2] [--spans] [--chrome out.json] \
                     [--profile out.folded] [--profile-interval N]";

/// Prints `msg` and the usage line to stderr, then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("campaign: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The next argument parsed as `T`; a usage error naming `msg` when it
/// is missing or does not parse.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, msg: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(msg))
}

fn main() {
    let mut cfg = CampaignConfig::default();
    let mut telemetry_path: Option<String> = None;
    let mut progress = false;
    let mut render_only = false;
    let mut fault_demo = false;
    let mut spans = false;
    let mut chrome_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut profile_interval = DEFAULT_INTERVAL;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => cfg.workers = value(&mut args, "--workers takes a number"),
            "--seed" => cfg.master_seed = value(&mut args, "--seed takes a number"),
            "--quick" => {
                let workers = cfg.workers;
                let master_seed = cfg.master_seed;
                let fork_server = cfg.fork_server;
                let experiments = std::mem::take(&mut cfg.experiments);
                let vm = std::mem::take(&mut cfg.vm);
                cfg = CampaignConfig {
                    workers,
                    master_seed,
                    experiments,
                    fork_server,
                    vm,
                    ..CampaignConfig::quick()
                };
            }
            "--only" => {
                let wanted = args.next().and_then(|v| v.parse::<u8>().ok());
                let Some(exp) = registry().iter().find(|e| Some(e.id().number()) == wanted) else {
                    usage_error(
                        "--only takes an experiment number from 1 to 16 (E1–E16); \
                         E17 is the fault demo (--fault-demo), E18 the fuzzing campaign \
                         (cargo run -p swsec-fuzz --bin fuzz)",
                    );
                };
                cfg.experiments.push(exp.id());
            }
            "--telemetry" => telemetry_path = Some(value(&mut args, "--telemetry takes a path")),
            "--progress" => progress = true,
            "--render-only" => render_only = true,
            "--fault-demo" => fault_demo = true,
            "--no-fork-server" => cfg.fork_server = false,
            "--no-tier2" => cfg.vm.engine = Engine::Fast,
            "--spans" => spans = true,
            "--chrome" => chrome_path = Some(value(&mut args, "--chrome takes a path")),
            "--profile" => profile_path = Some(value(&mut args, "--profile takes a path")),
            "--profile-interval" => {
                profile_interval = value(&mut args, "--profile-interval takes a number")
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    // Security events only: control transfers and syscalls at campaign
    // scale would dwarf the interesting lines. CELL rides along so a
    // telemetry dump always names the cells that failed.
    let security = EventMask::FAULT
        .union(EventMask::CANARY)
        .union(EventMask::PMA)
        .union(EventMask::GUARD)
        .union(EventMask::CELL);

    let mut telemetry = CampaignTelemetry::none();
    if chrome_path.is_some() {
        spans = true;
    }
    if spans {
        telemetry = telemetry.with_spans(SpanMask::DEFAULT);
    }
    let profiler = profile_path
        .as_ref()
        .map(|_| Arc::new(Profiler::new(profile_interval)));
    if let Some(prof) = &profiler {
        telemetry = telemetry.with_profiler(prof.clone());
    }
    let mut sink = None;
    if let Some(path) = telemetry_path.as_deref() {
        let file = File::create(path)
            .unwrap_or_else(|e| panic!("cannot create telemetry file {path}: {e}"));
        let jsonl = Arc::new(JsonlSink::with_interests(
            Box::new(BufWriter::new(file)),
            security,
        ));
        jsonl.write_line(&meta_line("source", "examples/campaign"));
        jsonl.write_line(&meta_line("master_seed", &cfg.master_seed.to_string()));
        cfg.vm.sink = Some(jsonl.clone());
        let registry = Arc::new(MetricsRegistry::new());
        telemetry.metrics = Some(registry.clone());
        sink = Some((jsonl, registry));
    }
    if progress {
        telemetry = telemetry.on_progress(|p| {
            eprintln!(
                "[{:>3}/{:>3}] {} cell {} ({:.1}ms){}",
                p.completed,
                p.total,
                p.experiment,
                p.cell,
                p.elapsed.as_secs_f64() * 1e3,
                if p.ok { "" } else { " FAILED" },
            );
        });
    }

    let report: CampaignReport = if fault_demo {
        // A deadline far under the demo's ~2 s stall cell, so the
        // watchdog visibly trips; everything else is unaffected.
        cfg.cell_deadline = Duration::from_millis(250);
        run_campaign_on(&cfg, &[FaultyExperiment::fresh()], &telemetry)
    } else {
        run_campaign_with(&cfg, &telemetry)
    };

    if let Some((sink, registry)) = sink {
        for (_, records) in &report.spans {
            for record in records {
                sink.write_line(&span_line(record));
            }
        }
        for line in registry.export_jsonl() {
            sink.write_line(&line);
        }
        sink.flush();
        // The fork-server economy, at a glance: how many attempts were
        // served from the snapshot and what each restore cost.
        let mean_dirty = match report.vm.mean_dirty_pages() {
            Some(mean) => format!("{mean:.1}"),
            None => "n/a".to_string(),
        };
        eprintln!(
            "campaign: vm snapshot/restore: {} snapshots, {} restores, \
             {} dirty pages/restore mean, {} bytes copied",
            report.vm.snapshots, report.vm.restores, mean_dirty, report.vm.restore_bytes,
        );
    }

    if let Some(path) = chrome_path.as_deref() {
        let json = swsec_obs::span::chrome_trace(&report.spans, &[]);
        std::fs::write(path, json)
            .unwrap_or_else(|e| panic!("cannot write chrome trace {path}: {e}"));
    }
    if let (Some(path), Some(prof)) = (profile_path.as_deref(), &profiler) {
        // Campaign cells run many different programs at overlapping
        // layouts, so the aggregated profile stays at raw addresses —
        // symbolizing against any one program's table would lie about
        // all the others.
        std::fs::write(path, prof.folded(&SymbolTable::empty()))
            .unwrap_or_else(|e| panic!("cannot write profile {path}: {e}"));
    }
    print!("{}", report.render());
    if !render_only {
        println!("{}", report.summary());
    }
    if !report.all_ok() {
        eprintln!(
            "campaign: {} cell(s) failed — see the failed-cells table",
            report.failed_cells().len()
        );
        std::process::exit(1);
    }
}
