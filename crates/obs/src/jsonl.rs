//! The versioned JSONL telemetry schema (v1) and the export sink.
//!
//! Every line of a telemetry dump is one self-contained JSON object
//! with two fixed discriminators:
//!
//! ```json
//! {"v":1,"type":"event","kind":"pma_violation","rule":1,"from":4096,"to":8196}
//! {"v":1,"type":"event","kind":"canary_trip","ip":4242}
//! {"v":1,"type":"metric","name":"campaign.cells","value":96}
//! {"v":1,"type":"meta","name":"source","text":"examples/campaign"}
//! ```
//!
//! `v` is the schema version (currently [`SCHEMA_VERSION`]); `type`
//! selects the record family. Event lines carry the stable kind names
//! from [`crate::event`]; metric lines carry a dotted metric name and
//! an integer value. The schema is round-trippable: [`parse_line`]
//! turns any line this module emits back into the typed [`Record`] it
//! came from, and unknown versions or types are explicit errors rather
//! than silent skips.

use std::fmt;
use std::io::Write;
use std::sync::Mutex;

use crate::event::{ControlKind, EventMask, FaultKind, PmaRule, SecurityEvent};
use crate::json::{self, Json, Obj};
use crate::sink::EventSink;
use crate::span::SpanRecord;

/// Version stamped into (and required of) every telemetry line.
pub const SCHEMA_VERSION: u64 = 1;

/// One parsed telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A security event.
    Event(SecurityEvent),
    /// A named integer metric sample.
    Metric {
        /// Dotted metric name, e.g. `"vm.instructions"`.
        name: String,
        /// The sampled value.
        value: u64,
    },
    /// Free-form run metadata (source, configuration notes).
    Meta {
        /// Metadata key.
        name: String,
        /// Metadata value.
        text: String,
    },
    /// One completed span (see [`crate::span`]). `seq`/`end` carry the
    /// deterministic sequence clock; `ts_us`/`dur_us` are wall-clock
    /// telemetry and never feed a render path.
    Span {
        /// Span kind name (`"campaign"`, `"cell"`, …).
        name: String,
        /// Free-form detail.
        detail: String,
        /// Recorder track.
        track: u32,
        /// Nesting depth at open.
        depth: u32,
        /// Sequence tick at open.
        seq: u64,
        /// Sequence tick at close.
        end: u64,
        /// Wall-clock open, µs since the collector epoch.
        ts_us: u64,
        /// Wall-clock duration, µs.
        dur_us: u64,
    },
}

/// Renders an event as one schema-v1 line (no trailing newline).
pub fn event_line(event: &SecurityEvent) -> String {
    let obj = Obj::new()
        .u64("v", SCHEMA_VERSION)
        .str("type", "event")
        .str("kind", event.kind_name());
    let obj = match *event {
        SecurityEvent::ControlTransfer { kind, from, to } => obj
            .str("ctl", kind.name())
            .u64("from", u64::from(from))
            .u64("to", u64::from(to)),
        SecurityEvent::Fault { kind, ip, addr } => obj
            .str("fault", kind.name())
            .u64("ip", u64::from(ip))
            .u64("addr", u64::from(addr)),
        SecurityEvent::CanaryTrip { ip } => obj.u64("ip", u64::from(ip)),
        SecurityEvent::PmaViolation { rule, from, to } => obj
            .u64("rule", u64::from(rule.number()))
            .u64("from", u64::from(from))
            .u64("to", u64::from(to)),
        SecurityEvent::Syscall { number, ip } => obj
            .u64("number", u64::from(number))
            .u64("ip", u64::from(ip)),
        SecurityEvent::GuardCheck { code, ip } => {
            obj.u64("code", u64::from(code)).u64("ip", u64::from(ip))
        }
        SecurityEvent::Step { ip } => obj.u64("ip", u64::from(ip)),
        SecurityEvent::CellFailed { experiment, cell } => obj
            .u64("experiment", u64::from(experiment))
            .u64("cell", u64::from(cell)),
        SecurityEvent::JobShed { tenant, job } => obj
            .u64("tenant", u64::from(tenant))
            .u64("job", u64::from(job)),
    };
    obj.render()
}

/// Renders a metric sample as one schema-v1 line.
pub fn metric_line(name: &str, value: u64) -> String {
    Obj::new()
        .u64("v", SCHEMA_VERSION)
        .str("type", "metric")
        .str("name", name)
        .u64("value", value)
        .render()
}

/// Renders a metadata record as one schema-v1 line.
pub fn meta_line(name: &str, text: &str) -> String {
    Obj::new()
        .u64("v", SCHEMA_VERSION)
        .str("type", "meta")
        .str("name", name)
        .str("text", text)
        .render()
}

/// Renders a completed span as one schema-v1 line.
pub fn span_line(span: &SpanRecord) -> String {
    Obj::new()
        .u64("v", SCHEMA_VERSION)
        .str("type", "span")
        .str("name", span.kind.name())
        .str("detail", &span.detail)
        .u64("track", u64::from(span.track))
        .u64("depth", u64::from(span.depth))
        .u64("seq", span.seq_open)
        .u64("end", span.seq_close)
        .u64("ts_us", span.wall_start_us)
        .u64("dur_us", span.wall_dur_us)
        .render()
}

/// Why a telemetry line failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum LineError {
    /// The line is not valid JSON.
    Json(json::ParseError),
    /// The line is JSON but not a valid schema record; the string says
    /// what is wrong (missing field, unknown kind, bad version…).
    Schema(String),
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineError::Json(e) => write!(f, "{e}"),
            LineError::Schema(msg) => write!(f, "schema error: {msg}"),
        }
    }
}

impl std::error::Error for LineError {}

fn field_u64(v: &Json, key: &str) -> Result<u64, LineError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| LineError::Schema(format!("missing or non-integer field {key:?}")))
}

fn field_u32(v: &Json, key: &str) -> Result<u32, LineError> {
    u32::try_from(field_u64(v, key)?)
        .map_err(|_| LineError::Schema(format!("field {key:?} exceeds u32")))
}

fn field_u8(v: &Json, key: &str) -> Result<u8, LineError> {
    u8::try_from(field_u64(v, key)?)
        .map_err(|_| LineError::Schema(format!("field {key:?} exceeds u8")))
}

fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, LineError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| LineError::Schema(format!("missing or non-string field {key:?}")))
}

/// Parses one telemetry line back into its typed [`Record`].
///
/// # Errors
///
/// Returns [`LineError`] if the line is not JSON, carries an unknown
/// schema version, or does not match the v1 record shapes.
pub fn parse_line(line: &str) -> Result<Record, LineError> {
    let v = json::parse(line).map_err(LineError::Json)?;
    let version = field_u64(&v, "v")?;
    if version != SCHEMA_VERSION {
        return Err(LineError::Schema(format!(
            "unsupported schema version {version} (expected {SCHEMA_VERSION})"
        )));
    }
    match field_str(&v, "type")? {
        "event" => parse_event(&v).map(Record::Event),
        "metric" => Ok(Record::Metric {
            name: field_str(&v, "name")?.to_string(),
            value: field_u64(&v, "value")?,
        }),
        "meta" => Ok(Record::Meta {
            name: field_str(&v, "name")?.to_string(),
            text: field_str(&v, "text")?.to_string(),
        }),
        "span" => Ok(Record::Span {
            name: field_str(&v, "name")?.to_string(),
            detail: field_str(&v, "detail")?.to_string(),
            track: field_u32(&v, "track")?,
            depth: field_u32(&v, "depth")?,
            seq: field_u64(&v, "seq")?,
            end: field_u64(&v, "end")?,
            ts_us: field_u64(&v, "ts_us")?,
            dur_us: field_u64(&v, "dur_us")?,
        }),
        other => Err(LineError::Schema(format!("unknown record type {other:?}"))),
    }
}

fn parse_event(v: &Json) -> Result<SecurityEvent, LineError> {
    match field_str(v, "kind")? {
        "control_transfer" => {
            let ctl = field_str(v, "ctl")?;
            let kind = ControlKind::from_name(ctl)
                .ok_or_else(|| LineError::Schema(format!("unknown control kind {ctl:?}")))?;
            Ok(SecurityEvent::ControlTransfer {
                kind,
                from: field_u32(v, "from")?,
                to: field_u32(v, "to")?,
            })
        }
        "fault" => {
            let name = field_str(v, "fault")?;
            let kind = FaultKind::from_name(name)
                .ok_or_else(|| LineError::Schema(format!("unknown fault kind {name:?}")))?;
            Ok(SecurityEvent::Fault {
                kind,
                ip: field_u32(v, "ip")?,
                addr: field_u32(v, "addr")?,
            })
        }
        "canary_trip" => Ok(SecurityEvent::CanaryTrip {
            ip: field_u32(v, "ip")?,
        }),
        "pma_violation" => {
            let n = field_u8(v, "rule")?;
            let rule = PmaRule::from_number(n)
                .ok_or_else(|| LineError::Schema(format!("unknown PMA rule {n}")))?;
            Ok(SecurityEvent::PmaViolation {
                rule,
                from: field_u32(v, "from")?,
                to: field_u32(v, "to")?,
            })
        }
        "syscall" => Ok(SecurityEvent::Syscall {
            number: field_u8(v, "number")?,
            ip: field_u32(v, "ip")?,
        }),
        "guard_check" => Ok(SecurityEvent::GuardCheck {
            code: field_u8(v, "code")?,
            ip: field_u32(v, "ip")?,
        }),
        "step" => Ok(SecurityEvent::Step {
            ip: field_u32(v, "ip")?,
        }),
        "cell_failed" => Ok(SecurityEvent::CellFailed {
            experiment: field_u8(v, "experiment")?,
            cell: field_u32(v, "cell")?,
        }),
        "job_shed" => Ok(SecurityEvent::JobShed {
            tenant: field_u32(v, "tenant")?,
            job: field_u32(v, "job")?,
        }),
        other => Err(LineError::Schema(format!("unknown event kind {other:?}"))),
    }
}

/// A sink that streams every received event as one JSONL line to a
/// writer (file, pipe, `Vec<u8>`…).
///
/// Lines are written under a mutex, so concurrent machines interleave
/// whole lines, never partial ones. Call [`JsonlSink::flush`] (or drop
/// the sink) before reading the output.
pub struct JsonlSink {
    writer: Mutex<Box<dyn Write + Send>>,
    interests: EventMask,
}

impl JsonlSink {
    /// Wraps `writer`, subscribing to the default event kinds.
    pub fn new(writer: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink::with_interests(writer, EventMask::DEFAULT)
    }

    /// Wraps `writer` with an explicit interest mask. Subscribing to
    /// [`EventMask::STEP`] dumps one line per retired instruction —
    /// enormous; reserve it for short runs.
    pub fn with_interests(writer: Box<dyn Write + Send>, interests: EventMask) -> JsonlSink {
        JsonlSink {
            writer: Mutex::new(writer),
            interests,
        }
    }

    /// Writes an already-rendered schema line (metric, meta, or a
    /// pre-built event line) followed by a newline.
    ///
    /// Poison-tolerant: if a previous writer panicked while holding the
    /// lock, the sink keeps accepting lines instead of cascading the
    /// panic into every machine that emits afterwards (the writer's own
    /// internal state stays whatever the panicking write left behind —
    /// at worst a torn line, never a dead process).
    pub fn write_line(&self, line: &str) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        // Telemetry is best-effort: a full disk should not abort the
        // experiment the telemetry is describing.
        let _ = writeln!(w, "{line}");
    }

    /// Flushes the underlying writer. Poison-tolerant like
    /// [`write_line`](JsonlSink::write_line).
    pub fn flush(&self) {
        let _ = self
            .writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

impl EventSink for JsonlSink {
    fn record(&self, event: &SecurityEvent) {
        self.write_line(&event_line(event));
    }

    fn interests(&self) -> EventMask {
        self.interests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn all_events() -> Vec<SecurityEvent> {
        vec![
            SecurityEvent::ControlTransfer {
                kind: ControlKind::Ret,
                from: 0x1040,
                to: 0x2000,
            },
            SecurityEvent::Fault {
                kind: FaultKind::Dep,
                ip: 0x2000,
                addr: 0x2000,
            },
            SecurityEvent::CanaryTrip { ip: 0x1084 },
            SecurityEvent::PmaViolation {
                rule: PmaRule::OutsideDataAccess,
                from: 0x1000,
                to: 0x8004,
            },
            SecurityEvent::Syscall {
                number: 2,
                ip: 0x10f0,
            },
            SecurityEvent::GuardCheck {
                code: 3,
                ip: 0x1100,
            },
            SecurityEvent::Step { ip: 0x1004 },
            SecurityEvent::CellFailed {
                experiment: 16,
                cell: 7,
            },
            SecurityEvent::JobShed { tenant: 1, job: 42 },
        ]
    }

    #[test]
    fn every_event_kind_roundtrips() {
        for ev in all_events() {
            let line = event_line(&ev);
            assert_eq!(
                parse_line(&line),
                Ok(Record::Event(ev)),
                "round-trip failed for {line}"
            );
        }
    }

    #[test]
    fn metric_and_meta_lines_roundtrip() {
        let m = metric_line("vm.instructions", 123456);
        assert_eq!(
            parse_line(&m),
            Ok(Record::Metric {
                name: "vm.instructions".to_string(),
                value: 123456
            })
        );
        let meta = meta_line("source", "vmbench \"quoted\"");
        assert_eq!(
            parse_line(&meta),
            Ok(Record::Meta {
                name: "source".to_string(),
                text: "vmbench \"quoted\"".to_string()
            })
        );
    }

    #[test]
    fn span_lines_roundtrip() {
        let span = SpanRecord {
            kind: crate::span::SpanKind::Cell,
            detail: "E4 cell 3".to_string(),
            track: 4,
            depth: 1,
            seq_open: 2,
            seq_close: 9,
            wall_start_us: 1234,
            wall_dur_us: 56,
        };
        let line = span_line(&span);
        assert_eq!(
            parse_line(&line),
            Ok(Record::Span {
                name: "cell".to_string(),
                detail: "E4 cell 3".to_string(),
                track: 4,
                depth: 1,
                seq: 2,
                end: 9,
                ts_us: 1234,
                dur_us: 56,
            })
        );
    }

    #[test]
    fn bad_lines_are_explicit_errors() {
        assert!(matches!(parse_line("not json"), Err(LineError::Json(_))));
        assert!(matches!(
            parse_line(r#"{"v":9,"type":"event","kind":"step","ip":0}"#),
            Err(LineError::Schema(_))
        ));
        assert!(matches!(
            parse_line(r#"{"v":1,"type":"event","kind":"wat"}"#),
            Err(LineError::Schema(_))
        ));
        assert!(matches!(
            parse_line(r#"{"v":1,"type":"event","kind":"canary_trip"}"#),
            Err(LineError::Schema(_))
        ));
        assert!(matches!(
            parse_line(r#"{"v":1,"type":"event","kind":"canary_trip","ip":4294967296}"#),
            Err(LineError::Schema(_))
        ));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let sink = JsonlSink::new(Box::new(Shared(buf.clone())));
        for ev in all_events() {
            sink.record(&ev);
        }
        sink.write_line(&metric_line("x.y", 7));
        sink.flush();
        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), all_events().len() + 1);
        for line in lines {
            parse_line(line).unwrap();
        }
    }

    #[test]
    fn poisoned_writer_does_not_cascade() {
        // A writer that panics on its first write (simulating a bug in
        // one emitting thread), then behaves. The panic poisons the
        // writer mutex; every later emit — typically from *other*
        // threads — must keep working rather than panicking process-wide.
        struct ExplodesOnce {
            armed: bool,
            out: Arc<Mutex<Vec<u8>>>,
        }
        impl Write for ExplodesOnce {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                if self.armed {
                    self.armed = false;
                    panic!("injected writer panic");
                }
                self.out.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::new(JsonlSink::new(Box::new(ExplodesOnce {
            armed: true,
            out: out.clone(),
        })));

        // First write panics inside the lock, poisoning it.
        let trip = {
            let sink = sink.clone();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                sink.write_line(r#"{"v":1,"type":"meta","name":"a","text":"b"}"#);
            }))
        };
        assert!(trip.is_err(), "the injected panic must fire");

        // Subsequent writes and flushes recover from the poison.
        let line = metric_line("campaign.cells_failed", 1);
        sink.write_line(&line);
        sink.flush();
        let written = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert!(
            written.contains("campaign.cells_failed"),
            "post-poison line was lost: {written:?}"
        );
    }
}
