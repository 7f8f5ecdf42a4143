//! telcheck — validates a schema-v1 JSONL telemetry dump.
//!
//! ```sh
//! telcheck out.jsonl [--require KIND]... [--chrome trace.json]
//! ```
//!
//! Parses every line against the versioned schema and exits non-zero
//! on the first malformed line. Each `--require KIND` demands at least
//! one event of that kind (`canary_trip`, `pma_violation`, `fault`,
//! `control_transfer`, `syscall`, `guard_check`, `step`, `cell_failed`)
//! in the dump;
//! `--require metric` and `--require meta` demand record families
//! instead, `--require metric:NAME` demands a specific metric by
//! its dotted name (a trailing `*` matches a prefix, e.g.
//! `metric:vm.snapshot.*`), and `--require span:NAME` demands a span
//! record of that kind (`span:cell`, `span:boot`, …). A summary of
//! record counts per kind goes to stdout.
//!
//! `--chrome FILE` additionally validates an exported Chrome
//! `trace_event` JSON file structurally: it must parse, carry a
//! `traceEvents` array of phase `X`/`B`/`E`/`i`/`I`/`M` events with
//! `name`/`ph`/`pid`/`tid`/`ts` fields, balance `B`/`E` per `(pid,tid)`
//! lane, and nest `X` intervals properly within each lane.

use std::collections::BTreeMap;
use std::process::ExitCode;

use swsec_obs::json::{self, Json};
use swsec_obs::jsonl::parse_line;
use swsec_obs::Record;

/// Structural validation of a Chrome trace_event export; returns the
/// event count, or an error description.
fn check_chrome(text: &str) -> Result<usize, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing traceEvents array")?;
    // Per-(pid,tid) lane state: open X interval ends (a stack, since
    // intervals must nest) and B/E balance.
    let mut open_x: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new();
    let mut be_depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    for (n, event) in events.iter().enumerate() {
        let field = |key: &str| {
            event
                .get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("event {n}: missing or non-integer {key:?}"))
        };
        event
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {n}: missing name"))?;
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {n}: missing ph"))?;
        let lane = (field("pid")?, field("tid")?);
        let ts = field("ts")?;
        match ph {
            "X" => {
                let dur = field("dur")?;
                let end = ts + dur;
                let stack = open_x.entry(lane).or_default();
                // Chrome export orders a lane by ts; an X event either
                // starts after every open interval ends (pop them) or
                // must finish inside the innermost one (nesting).
                while stack.last().is_some_and(|open_end| *open_end <= ts) {
                    stack.pop();
                }
                if let Some(open_end) = stack.last() {
                    if end > *open_end {
                        return Err(format!(
                            "event {n}: X interval [{ts},{end}) straddles an open \
                             interval ending at {open_end} in lane {lane:?}"
                        ));
                    }
                }
                stack.push(end);
            }
            "B" => *be_depth.entry(lane).or_insert(0) += 1,
            "E" => {
                let depth = be_depth.entry(lane).or_insert(0);
                *depth -= 1;
                if *depth < 0 {
                    return Err(format!("event {n}: E without matching B in lane {lane:?}"));
                }
            }
            "i" | "I" | "M" => {}
            other => return Err(format!("event {n}: unsupported phase {other:?}")),
        }
    }
    if let Some((lane, depth)) = be_depth.iter().find(|(_, depth)| **depth != 0) {
        return Err(format!("lane {lane:?}: {depth} unclosed B event(s)"));
    }
    Ok(events.len())
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut chrome: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--require" => required.push(argv.next().expect("--require needs an event kind")),
            "--chrome" => chrome = Some(argv.next().expect("--chrome needs a file")),
            "--help" | "-h" => {
                println!("usage: telcheck FILE.jsonl [--require KIND]... [--chrome trace.json]");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("telcheck: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("telcheck: missing input file");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("telcheck: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut metric_names: BTreeMap<String, u64> = BTreeMap::new();
    let mut span_names: BTreeMap<String, u64> = BTreeMap::new();
    let mut lines = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        lines += 1;
        let key = match parse_line(line) {
            Ok(Record::Event(ev)) => ev.kind_name().to_string(),
            Ok(Record::Metric { name, .. }) => {
                *metric_names.entry(name).or_insert(0) += 1;
                "metric".to_string()
            }
            Ok(Record::Meta { .. }) => "meta".to_string(),
            Ok(Record::Span { name, .. }) => {
                *span_names.entry(name).or_insert(0) += 1;
                "span".to_string()
            }
            Err(e) => {
                eprintln!("telcheck: {path}:{}: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        };
        *counts.entry(key).or_insert(0) += 1;
    }

    println!("telcheck: {path}: {lines} valid lines");
    for (kind, n) in &counts {
        println!("  {kind}: {n}");
    }

    let mut ok = true;
    for kind in &required {
        let named = |names: &BTreeMap<String, u64>, name: &str| match name.strip_suffix('*') {
            Some(prefix) => names.keys().any(|n| n.starts_with(prefix)),
            None => names.contains_key(name),
        };
        let present = if let Some(name) = kind.strip_prefix("metric:") {
            named(&metric_names, name)
        } else if let Some(name) = kind.strip_prefix("span:") {
            named(&span_names, name)
        } else {
            counts.get(kind).copied().unwrap_or(0) != 0
        };
        if !present {
            eprintln!("telcheck: required kind {kind:?} absent from {path}");
            ok = false;
        }
    }

    if let Some(chrome_path) = &chrome {
        match std::fs::read_to_string(chrome_path) {
            Ok(trace) => match check_chrome(&trace) {
                Ok(n) => println!("telcheck: {chrome_path}: valid chrome trace, {n} events"),
                Err(e) => {
                    eprintln!("telcheck: {chrome_path}: {e}");
                    ok = false;
                }
            },
            Err(e) => {
                eprintln!("telcheck: cannot read {chrome_path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
