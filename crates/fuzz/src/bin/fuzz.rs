//! The `fuzz` campaign mode: runs E18 — coverage-guided fuzzing of the
//! three attack targets — through the campaign runner.
//!
//! ```sh
//! cargo run --release -p swsec-fuzz --bin fuzz -- \
//!     [--workers N] [--seed S] [--budget N] [--minimize-budget N] \
//!     [--progress] [--telemetry out.jsonl] [--render-only] \
//!     [--no-fork-server] [--profile out.folded]
//! ```
//!
//! The schedule is bounded and deterministic: a fixed attempt budget
//! per target, every mutation seed derived from `--seed` via SplitMix64
//! paths. Stdout (`--render-only`) is **byte-identical for any worker
//! count and either serve mode** — `scripts/verify.sh` diffs a 1-worker
//! against a 4-worker run and asserts the report rediscovers the E2
//! stack smash with zero fast-vs-baseline divergences. Exits non-zero
//! when a campaign cell failed.
//!
//! `--profile FILE` runs a separate deterministic profiling pass over
//! the undefended stack-smash victim and writes a **symbolized**
//! flamegraph-ready `.folded` profile to `FILE`. It profiles one
//! victim rather than the whole fuzz campaign on purpose: campaign
//! cells compile many programs at overlapping layouts, so a single
//! symbol table would misattribute frames — the single-victim pass is
//! the one place address→name resolution is sound end to end.

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

use swsec::attacker::VICTIM_SMASH;
use swsec::cache::ProgramCache;
use swsec::campaign::{run_campaign_on, CampaignConfig, CampaignTelemetry};
use swsec::harness::{AttackTarget, ForkServer};
use swsec_defenses::DefenseConfig;
use swsec_fuzz::FuzzExperiment;
use swsec_obs::jsonl::meta_line;
use swsec_obs::{EventMask, JsonlSink, MetricsRegistry};
use swsec_vm::profile::Profiler;
use swsec_vm::Engine;

/// Deterministic profiling pass: serve a fixed batch of attempts
/// against the undefended smash victim from a boot-time snapshot and
/// return the symbolized `.folded` profile. A pure function of `seed`.
fn profile_victim(seed: u64) -> String {
    let cache = ProgramCache::new();
    let mut server = ForkServer::boot(&cache, VICTIM_SMASH, DefenseConfig::none(), seed)
        .expect("smash victim compiles")
        .with_fuel(200_000);
    // Interval 16: the undefended victim retires ~46 instructions per
    // attempt and the countdown re-arms at every attempt boundary, so
    // anything coarser than ~46 would sample nothing at all.
    let prof = Arc::new(Profiler::new(16));
    server.set_profiler(Some(prof.clone()));
    for i in 0..32u64 {
        // Sweep input lengths across the overflow boundary so both the
        // benign path and the smash path show up in the flamegraph.
        let len = (i as usize * 7) % 96;
        server
            .execute(seed.wrapping_add(i), &vec![b'A'; len])
            .expect("attempt serves");
    }
    prof.folded(&server.program().symbol_table())
}

const USAGE: &str = "usage: fuzz [--workers N] [--seed S] [--budget N] \
                     [--minimize-budget N] [--progress] [--telemetry out.jsonl] \
                     [--render-only] [--no-fork-server] [--no-tier2] \
                     [--profile out.folded]";

/// Prints `msg` and the usage line to stderr, then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("fuzz: {msg}");
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
    let mut cfg = CampaignConfig::quick();
    let mut exp = FuzzExperiment::smoke();
    let mut telemetry_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut progress = false;
    let mut render_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => cfg.workers = value(&mut args, "--workers takes a number"),
            "--seed" => cfg.master_seed = value(&mut args, "--seed takes a number"),
            "--budget" => exp.budget = value(&mut args, "--budget takes a number"),
            "--minimize-budget" => {
                exp.minimize_budget = value(&mut args, "--minimize-budget takes a number")
            }
            "--telemetry" => telemetry_path = Some(value(&mut args, "--telemetry takes a path")),
            "--progress" => progress = true,
            "--render-only" => render_only = true,
            "--no-fork-server" => cfg.fork_server = false,
            // Pins every machine the campaign boots to the tier-1 fast
            // path. verify.sh diffs this render against a tiered run:
            // the reports (and the coverage feedback that steers the
            // campaign) must be byte-identical either way.
            "--no-tier2" => cfg.vm.engine = Engine::Fast,
            "--profile" => profile_path = Some(value(&mut args, "--profile takes a path")),
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    // Security events only, as in the campaign example: fuzzing-scale
    // control-transfer traffic goes to the coverage sinks, not the
    // telemetry dump.
    let security = EventMask::FAULT
        .union(EventMask::CANARY)
        .union(EventMask::PMA)
        .union(EventMask::GUARD)
        .union(EventMask::CELL);

    let mut telemetry = CampaignTelemetry::none();
    let mut sink = None;
    if let Some(path) = telemetry_path.as_deref() {
        let file = File::create(path)
            .unwrap_or_else(|e| panic!("cannot create telemetry file {path}: {e}"));
        let jsonl = Arc::new(JsonlSink::with_interests(
            Box::new(BufWriter::new(file)),
            security,
        ));
        jsonl.write_line(&meta_line("source", "swsec-fuzz/bin/fuzz"));
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

    if let Some(path) = profile_path.as_deref() {
        let folded = profile_victim(cfg.master_seed);
        std::fs::write(path, folded).unwrap_or_else(|e| panic!("cannot write profile {path}: {e}"));
    }

    let report = run_campaign_on(&cfg, &[exp.leaked()], &telemetry);

    if let Some((sink, registry)) = sink {
        for line in registry.export_jsonl() {
            sink.write_line(&line);
        }
        sink.flush();
    }

    print!("{}", report.render());
    if !render_only {
        println!("{}", report.summary());
    }
    if !report.all_ok() {
        eprintln!(
            "fuzz: {} cell(s) failed — see the failed-cells table",
            report.failed_cells().len()
        );
        std::process::exit(1);
    }
}
