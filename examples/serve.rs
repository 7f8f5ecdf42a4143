//! Drive the campaign service: multi-tenant job queue, a bounded warm
//! fork-server pool, typed degradation.
//!
//! ```text
//! cargo run --release --example serve -- \
//!     [--tenants N] [--jobs N] [--attempts N] [--workers N] [--seed S] \
//!     [--queue N] [--rebuild] [--saturate] [--spans] \
//!     [--telemetry out.jsonl] [--render-only]
//! ```
//!
//! Registers `--tenants` sessions (distinct seed namespaces,
//! staggered priorities), submits `--jobs` attack-attempt jobs per
//! tenant against the stock smash victim under a rotating set of
//! defense stacks (so the warm pool holds several keys), runs one
//! service round, and prints the deterministic per-tenant report —
//! byte-identical at any `--workers` count and with or without
//! `--rebuild` (snapshot-serving vs rebuild-per-attempt).
//!
//! `--saturate` shrinks the queue below the submitted load so
//! admission control visibly sheds and rejects; the process then
//! exits non-zero (degraded service is a reportable condition), which
//! the verify.sh smoke relies on. With `--telemetry PATH`, the run
//! streams shed events to a schema-v1 JSONL file and appends the
//! round's spans and `serve.*` / `cache.*` / `vm.*` metric windows —
//! `telcheck` validates the result.

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

use swsec::serve::{CampaignService, JobSpec, ServeConfig, ServeTelemetry, TenantConfig};
use swsec_defenses::DefenseConfig;
use swsec_obs::jsonl::{meta_line, span_line};
use swsec_obs::{EventMask, JsonlSink, MetricsRegistry, SpanMask};
use swsec_rng::derive;

const USAGE: &str = "usage: serve [--tenants N] [--jobs N] [--attempts N] [--workers N] \
                     [--seed S] [--queue N] [--rebuild] [--saturate] [--spans] \
                     [--telemetry out.jsonl] [--render-only]";

/// Prints `msg` and the usage line to stderr, then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("serve: {msg}");
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
    let mut tenants = 2usize;
    let mut jobs = 4u32;
    let mut attempts = 32u32;
    let mut master_seed = 0x5EC5EED_u64;
    let mut cfg = ServeConfig::default();
    let mut saturate = false;
    let mut spans = false;
    let mut render_only = false;
    let mut telemetry_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tenants" => tenants = value(&mut args, "--tenants takes a number"),
            "--jobs" => jobs = value(&mut args, "--jobs takes a number"),
            "--attempts" => attempts = value(&mut args, "--attempts takes a number"),
            "--workers" => cfg.workers = value(&mut args, "--workers takes a number"),
            "--seed" => master_seed = value(&mut args, "--seed takes a number"),
            "--queue" => cfg.queue_capacity = value(&mut args, "--queue takes a number"),
            "--rebuild" => cfg.fork_server = false,
            "--saturate" => saturate = true,
            "--spans" => spans = true,
            "--render-only" => render_only = true,
            "--telemetry" => telemetry_path = Some(value(&mut args, "--telemetry takes a path")),
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let tenants = tenants.max(1);
    if saturate {
        // A queue well under the submitted load, so admission control
        // must shed lower-priority tenants and reject the overflow.
        cfg.queue_capacity = ((tenants as u32 * jobs) / 3).max(1) as usize;
    }

    let mut telemetry = ServeTelemetry::default();
    if spans || telemetry_path.is_some() {
        telemetry.spans = Some(SpanMask::DEFAULT.union(SpanMask::JOB));
    }
    let mut sink = None;
    if let Some(path) = telemetry_path.as_deref() {
        let file = File::create(path)
            .unwrap_or_else(|e| panic!("cannot create telemetry file {path}: {e}"));
        // Security events plus the service's degradation signal: a
        // shed or rejected job is precisely the kind of silent quality
        // loss telemetry exists to surface.
        let interests = EventMask::FAULT
            .union(EventMask::CANARY)
            .union(EventMask::PMA)
            .union(EventMask::GUARD)
            .union(EventMask::SHED);
        let jsonl = Arc::new(JsonlSink::with_interests(
            Box::new(BufWriter::new(file)),
            interests,
        ));
        jsonl.write_line(&meta_line("source", "examples/serve"));
        jsonl.write_line(&meta_line("master_seed", &master_seed.to_string()));
        cfg.vm.sink = Some(jsonl.clone());
        let registry = Arc::new(MetricsRegistry::new());
        telemetry.metrics = Some(registry.clone());
        sink = Some((jsonl, registry));
    }

    // Rotating defense stacks, so the warm pool holds several
    // (program, options, config) keys instead of one hot entry.
    let stacks = [
        DefenseConfig::none(),
        DefenseConfig {
            canary: true,
            ..DefenseConfig::none()
        },
        DefenseConfig::modern(8),
    ];

    let mut svc = CampaignService::new(cfg);
    let ids: Vec<_> = (0..tenants)
        .map(|t| {
            svc.register_tenant(TenantConfig {
                name: format!("tenant-{t}"),
                seed: derive(master_seed, &[t as u64]),
                // Staggered priorities make --saturate shedding
                // deterministic and visible: tenant 0 is the least
                // important, the last tenant the most.
                priority: (t % 8) as u8,
                quota: jobs as usize,
            })
        })
        .collect();
    for j in 0..jobs {
        for (t, id) in ids.iter().enumerate() {
            let spec = JobSpec {
                attempts,
                ..JobSpec::new(
                    swsec::attacker::VICTIM_SMASH,
                    stacks[(t + j as usize) % stacks.len()],
                )
            };
            // Rejections are recorded in the report (and counted
            // below); the submit error itself needs no extra handling.
            let _ = svc.submit(*id, spec);
        }
    }

    let round = svc.run_with(&telemetry);

    if let Some((sink, registry)) = sink {
        for (_, records) in &round.spans {
            for record in records {
                sink.write_line(&span_line(record));
            }
        }
        for line in registry.export_jsonl() {
            sink.write_line(&line);
        }
        sink.flush();
    }

    print!("{}", svc.render());
    if !render_only {
        println!("{}", round.summary_line());
        let lat = svc.job_latency();
        println!(
            "serve latency: p50 <= {} us, p99 <= {} us over {} jobs",
            lat.quantile_upper_bound(0.50),
            lat.quantile_upper_bound(0.99),
            lat.count(),
        );
    }
    let totals = svc.totals();
    let degraded = totals.degraded() + totals.jobs_failed;
    if degraded > 0 {
        eprintln!(
            "serve: {} job(s) shed/rejected/failed — degraded service",
            degraded
        );
        std::process::exit(1);
    }
}
