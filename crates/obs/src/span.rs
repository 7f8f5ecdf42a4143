//! Hierarchical spans over the campaign → cell → attempt lifecycle.
//!
//! Flat events (the [`crate::event`] vocabulary) say *what* happened;
//! spans say *inside what*. A span is a named, nested interval —
//! `campaign`, `cell`, `attempt`, `compile`, `boot`, `restore`,
//! `execute` — opened and closed RAII-style via [`Span`] guards.
//!
//! # Determinism contract
//!
//! Every span carries **two clocks**:
//!
//! * a **sequence clock** — a per-track counter that ticks once at every
//!   open and every close. Sequence numbers are a pure function of the
//!   recorded work, so any render built from them ([`render_tree`]) is
//!   byte-identical at any worker count;
//! * a **wall clock** (microseconds since the collector's epoch) — used
//!   *only* in exported telemetry ([`chrome_trace`], the JSONL `span`
//!   records), never in a render path.
//!
//! Tracks keep concurrent recorders independent: the campaign runner
//! gives every cell slot its own track, so interleaving across worker
//! threads cannot perturb any track's sequence numbering.
//!
//! # Cost model
//!
//! Spans are interest-masked ([`SpanMask`]) and routed through a
//! thread-local current recorder ([`with_recorder`]). When no recorder
//! is installed — or the span's kind is masked off — [`enter`] returns
//! a disabled guard without allocating; instrumented code in the
//! loader and harness costs one thread-local read on the cold setup
//! paths it annotates and nothing on the instruction hot path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{escape_into, Json, Obj};

/// Interest bitmask over [`SpanKind`]s, mirroring
/// [`EventMask`](crate::event::EventMask) for events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanMask(u16);

impl SpanMask {
    /// No spans.
    pub const NONE: SpanMask = SpanMask(0);
    /// The whole campaign run.
    pub const CAMPAIGN: SpanMask = SpanMask(1);
    /// One experiment cell.
    pub const CELL: SpanMask = SpanMask(1 << 1);
    /// One attack attempt (fork-server `execute`). High volume.
    pub const ATTEMPT: SpanMask = SpanMask(1 << 2);
    /// A MinC compile (cache miss).
    pub const COMPILE: SpanMask = SpanMask(1 << 3);
    /// Loading + arming a machine.
    pub const BOOT: SpanMask = SpanMask(1 << 4);
    /// A snapshot restore. High volume.
    pub const RESTORE: SpanMask = SpanMask(1 << 5);
    /// A guest `run` window. High volume.
    pub const EXECUTE: SpanMask = SpanMask(1 << 6);
    /// One service job ([`SpanKind::Job`]).
    pub const JOB: SpanMask = SpanMask(1 << 7);
    /// Every kind.
    pub const ALL: SpanMask = SpanMask(0xff);
    /// The default interest set: lifecycle structure without the
    /// per-attempt flood (`ATTEMPT`/`RESTORE`/`EXECUTE` are opt-in —
    /// at ~10⁶ attempts/s they dominate the recording, not the story).
    pub const DEFAULT: SpanMask =
        SpanMask(SpanMask::CAMPAIGN.0 | SpanMask::CELL.0 | SpanMask::COMPILE.0 | SpanMask::BOOT.0);

    /// Union of two masks.
    #[must_use]
    pub const fn union(self, other: SpanMask) -> SpanMask {
        SpanMask(self.0 | other.0)
    }

    /// Whether `kind` is of interest.
    #[must_use]
    pub const fn contains(self, kind: SpanKind) -> bool {
        self.0 & kind.bit().0 != 0
    }
}

/// The fixed span vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// The whole campaign run.
    Campaign,
    /// One experiment cell.
    Cell,
    /// One attack attempt.
    Attempt,
    /// A MinC compile.
    Compile,
    /// Loading + arming a machine.
    Boot,
    /// A snapshot restore.
    Restore,
    /// A guest `run` window.
    Execute,
    /// One campaign-service job: every attempt, restore and execute a
    /// leased fork server performs for one tenant request.
    Job,
}

impl SpanKind {
    /// Stable wire/render name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::Campaign => "campaign",
            SpanKind::Cell => "cell",
            SpanKind::Attempt => "attempt",
            SpanKind::Compile => "compile",
            SpanKind::Boot => "boot",
            SpanKind::Restore => "restore",
            SpanKind::Execute => "execute",
            SpanKind::Job => "job",
        }
    }

    /// The mask bit for this kind.
    #[must_use]
    pub const fn bit(self) -> SpanMask {
        match self {
            SpanKind::Campaign => SpanMask::CAMPAIGN,
            SpanKind::Cell => SpanMask::CELL,
            SpanKind::Attempt => SpanMask::ATTEMPT,
            SpanKind::Compile => SpanMask::COMPILE,
            SpanKind::Boot => SpanMask::BOOT,
            SpanKind::Restore => SpanMask::RESTORE,
            SpanKind::Execute => SpanMask::EXECUTE,
            SpanKind::Job => SpanMask::JOB,
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// What lifecycle phase this was.
    pub kind: SpanKind,
    /// Free-form detail (experiment id, cell index, …).
    pub detail: String,
    /// The track (recorder) it was recorded on.
    pub track: u32,
    /// Nesting depth at open (0 = track root).
    pub depth: u32,
    /// Sequence-clock tick at open.
    pub seq_open: u64,
    /// Sequence-clock tick at close (`> seq_open`; every tick between
    /// the two belongs to a child span).
    pub seq_close: u64,
    /// Wall-clock open, microseconds since the collector's epoch.
    /// **Telemetry only** — never consulted by a render path.
    pub wall_start_us: u64,
    /// Wall-clock duration in microseconds. Telemetry only.
    pub wall_dur_us: u64,
}

/// Collects completed spans from any number of per-track recorders.
#[derive(Debug)]
pub struct SpanCollector {
    mask: SpanMask,
    epoch: Instant,
    tracks: Mutex<BTreeMap<u32, Vec<SpanRecord>>>,
}

impl SpanCollector {
    /// A new collector interested in `mask`.
    #[must_use]
    pub fn new(mask: SpanMask) -> SpanCollector {
        SpanCollector {
            mask,
            epoch: Instant::now(),
            tracks: Mutex::new(BTreeMap::new()),
        }
    }

    /// The interest mask.
    #[must_use]
    pub fn mask(&self) -> SpanMask {
        self.mask
    }

    /// A recorder for `track`. Tracks are caller-assigned (the campaign
    /// runner uses slot indices), so the same logical work always lands
    /// on the same track whatever thread runs it.
    #[must_use]
    pub fn recorder(self: &Arc<Self>, track: u32) -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder {
            collector: Arc::clone(self),
            track,
            state: Mutex::new(RecorderState { seq: 0, depth: 0 }),
        })
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn commit(&self, record: SpanRecord) {
        let mut tracks = self.tracks.lock().unwrap_or_else(|p| p.into_inner());
        tracks.entry(record.track).or_default().push(record);
    }

    /// Drains every completed span, grouped by track (ascending) and
    /// ordered by `seq_open` within each track — the canonical order
    /// every deterministic consumer uses.
    #[must_use]
    pub fn take(&self) -> Vec<(u32, Vec<SpanRecord>)> {
        let mut tracks = self.tracks.lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<(u32, Vec<SpanRecord>)> =
            std::mem::take(&mut *tracks).into_iter().collect();
        for (_, records) in &mut out {
            records.sort_by_key(|r| r.seq_open);
        }
        out
    }
}

#[derive(Debug)]
struct RecorderState {
    seq: u64,
    depth: u32,
}

/// A per-track span recorder with its own sequence clock (starting at
/// 0, so a track's numbering is independent of every other track).
#[derive(Debug)]
pub struct SpanRecorder {
    collector: Arc<SpanCollector>,
    track: u32,
    state: Mutex<RecorderState>,
}

impl SpanRecorder {
    /// Opens a span; the returned guard closes it on drop. Disabled
    /// (free) when `kind` is masked off.
    #[must_use]
    pub fn enter(self: &Arc<Self>, kind: SpanKind, detail: &str) -> Span {
        self.enter_with(kind, || detail.to_string())
    }

    /// [`SpanRecorder::enter`] with lazily built detail: `detail()` is
    /// only called (and only allocates) when the span is recorded.
    #[must_use]
    pub fn enter_with(self: &Arc<Self>, kind: SpanKind, detail: impl FnOnce() -> String) -> Span {
        if !self.collector.mask.contains(kind) {
            return Span { inner: None };
        }
        let (seq_open, depth) = {
            let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
            let seq_open = state.seq;
            state.seq += 1;
            let depth = state.depth;
            state.depth += 1;
            (seq_open, depth)
        };
        Span {
            inner: Some(SpanInner {
                recorder: Arc::clone(self),
                kind,
                detail: detail(),
                seq_open,
                depth,
                wall_start_us: self.collector.now_us(),
            }),
        }
    }

    fn close(&self, inner: SpanInner) {
        let seq_close = {
            let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
            let seq_close = state.seq;
            state.seq += 1;
            state.depth = state.depth.saturating_sub(1);
            seq_close
        };
        let now = self.collector.now_us();
        self.collector.commit(SpanRecord {
            kind: inner.kind,
            detail: inner.detail,
            track: self.track,
            depth: inner.depth,
            seq_open: inner.seq_open,
            seq_close,
            wall_start_us: inner.wall_start_us,
            wall_dur_us: now.saturating_sub(inner.wall_start_us),
        });
    }
}

#[derive(Debug)]
struct SpanInner {
    recorder: Arc<SpanRecorder>,
    kind: SpanKind,
    detail: String,
    seq_open: u64,
    depth: u32,
    wall_start_us: u64,
}

/// An open span; dropping it records the completed [`SpanRecord`].
/// A disabled guard (masked kind, or no recorder installed) is inert.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// An inert guard.
    #[must_use]
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// Whether this guard will record on drop.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let recorder = Arc::clone(&inner.recorder);
            recorder.close(inner);
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<SpanRecorder>>> = const { RefCell::new(None) };
}

/// Runs `f` with `recorder` installed as the thread's current recorder
/// (restored — including across panics — when `f` returns), so code
/// deep in the loader or harness can open spans via [`enter`] without
/// any API threading.
pub fn with_recorder<R>(recorder: Arc<SpanRecorder>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<SpanRecorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.borrow_mut().replace(recorder)));
    f()
}

/// Opens a span on the thread's current recorder; a no-op (disabled
/// guard, no allocation) when none is installed or `kind` is masked.
#[must_use]
pub fn enter(kind: SpanKind, detail: &str) -> Span {
    match CURRENT.with(|c| c.borrow().clone()) {
        Some(recorder) => recorder.enter(kind, detail),
        None => Span::disabled(),
    }
}

/// [`enter`] with lazily built detail.
#[must_use]
pub fn enter_with(kind: SpanKind, detail: impl FnOnce() -> String) -> Span {
    match CURRENT.with(|c| c.borrow().clone()) {
        Some(recorder) => recorder.enter_with(kind, detail),
        None => Span::disabled(),
    }
}

/// Deterministic text rendering of a span forest (the output of
/// [`SpanCollector::take`]): sequence clock and structure only, no
/// wall-clock anywhere.
#[must_use]
pub fn render_tree(tracks: &[(u32, Vec<SpanRecord>)]) -> String {
    let mut out = String::new();
    for (track, records) in tracks {
        let _ = writeln!(out, "track {track}:");
        for r in records {
            let indent = "  ".repeat(r.depth as usize + 1);
            let _ = writeln!(
                out,
                "{indent}{} {} [seq {}..{}]",
                r.kind.name(),
                r.detail,
                r.seq_open,
                r.seq_close,
            );
        }
    }
    out
}

/// An instant (zero-duration) marker on the exported timeline — the
/// bridge type [`TraceRing`](../../swsec_vm/trace) entries convert
/// into, but usable for any point event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeInstant {
    /// Event label.
    pub name: String,
    /// Timeline row (`tid`), matching a span track.
    pub track: u32,
    /// Microseconds since the collector epoch.
    pub ts_us: u64,
}

/// Exports spans (plus optional instants) as Chrome `trace_event` JSON
/// — an object with a `traceEvents` array of complete (`"ph":"X"`) and
/// instant (`"ph":"i"`) events — loadable in Perfetto or
/// `chrome://tracing`. All events share `pid` 1; `tid` is the track.
#[must_use]
pub fn chrome_trace(tracks: &[(u32, Vec<SpanRecord>)], instants: &[ChromeInstant]) -> String {
    let mut events = Vec::new();
    for (track, records) in tracks {
        for r in records {
            events.push(
                Obj::new()
                    .str("name", r.kind.name())
                    .str("cat", "span")
                    .str("ph", "X")
                    .u64("pid", 1)
                    .u64("tid", u64::from(*track))
                    .u64("ts", r.wall_start_us)
                    .u64("dur", r.wall_dur_us)
                    .push(
                        "args",
                        Json::Object(
                            [
                                ("detail".to_string(), Json::Str(r.detail.clone())),
                                ("seq".to_string(), Json::UInt(r.seq_open)),
                            ]
                            .into_iter()
                            .collect(),
                        ),
                    )
                    .render(),
            );
        }
    }
    for i in instants {
        events.push(
            Obj::new()
                .str("name", &i.name)
                .str("cat", "trace")
                .str("ph", "i")
                .str("s", "t")
                .u64("pid", 1)
                .u64("tid", u64::from(i.track))
                .u64("ts", i.ts_us)
                .render(),
        );
    }
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (n, event) in events.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str(event);
    }
    out.push_str("],\"displayTimeUnit\":");
    escape_into(&mut out, "ms");
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_gates_kinds() {
        assert!(SpanMask::DEFAULT.contains(SpanKind::Cell));
        assert!(!SpanMask::DEFAULT.contains(SpanKind::Attempt));
        assert!(SpanMask::ALL.contains(SpanKind::Execute));
        assert!(!SpanMask::NONE.contains(SpanKind::Campaign));
    }

    #[test]
    fn spans_nest_with_sequence_clock() {
        let collector = Arc::new(SpanCollector::new(SpanMask::ALL));
        let rec = collector.recorder(3);
        {
            let _cell = rec.enter(SpanKind::Cell, "E2 cell 0");
            {
                let _boot = rec.enter(SpanKind::Boot, "victim");
            }
            {
                let _attempt = rec.enter(SpanKind::Attempt, "attempt 0");
            }
        }
        let tracks = collector.take();
        assert_eq!(tracks.len(), 1);
        let (track, records) = &tracks[0];
        assert_eq!(*track, 3);
        // Canonical order is by seq_open: cell(0..5), boot(1..2), attempt(3..4).
        let shape: Vec<_> = records
            .iter()
            .map(|r| (r.kind, r.depth, r.seq_open, r.seq_close))
            .collect();
        assert_eq!(
            shape,
            vec![
                (SpanKind::Cell, 0, 0, 5),
                (SpanKind::Boot, 1, 1, 2),
                (SpanKind::Attempt, 1, 3, 4),
            ]
        );
    }

    #[test]
    fn masked_kinds_record_nothing() {
        let collector = Arc::new(SpanCollector::new(SpanMask::CELL));
        let rec = collector.recorder(0);
        {
            let _cell = rec.enter(SpanKind::Cell, "c");
            let restore = rec.enter(SpanKind::Restore, "r");
            assert!(!restore.is_recording());
        }
        let tracks = collector.take();
        assert_eq!(tracks[0].1.len(), 1);
        assert_eq!(tracks[0].1[0].kind, SpanKind::Cell);
        // The masked span consumed no sequence ticks.
        assert_eq!((tracks[0].1[0].seq_open, tracks[0].1[0].seq_close), (0, 1));
    }

    #[test]
    fn thread_local_enter_is_inert_without_recorder() {
        let span = enter(SpanKind::Cell, "nobody listening");
        assert!(!span.is_recording());
    }

    #[test]
    fn with_recorder_installs_and_restores() {
        let collector = Arc::new(SpanCollector::new(SpanMask::ALL));
        let rec = collector.recorder(7);
        with_recorder(rec, || {
            let span = enter(SpanKind::Compile, "victim.c");
            assert!(span.is_recording());
        });
        assert!(!enter(SpanKind::Compile, "after").is_recording());
        assert_eq!(collector.take()[0].1.len(), 1);
    }

    #[test]
    fn render_tree_is_wall_clock_free_and_stable() {
        let collector = Arc::new(SpanCollector::new(SpanMask::ALL));
        let rec = collector.recorder(1);
        {
            let _cell = rec.enter(SpanKind::Cell, "E4 cell 2");
            let _boot = rec.enter(SpanKind::Boot, "victim");
        }
        let rendered = render_tree(&collector.take());
        assert_eq!(
            rendered,
            "track 1:\n  cell E4 cell 2 [seq 0..3]\n    boot victim [seq 1..2]\n"
        );
    }

    #[test]
    fn chrome_trace_is_valid_and_nested() {
        let collector = Arc::new(SpanCollector::new(SpanMask::ALL));
        let rec = collector.recorder(2);
        {
            let _cell = rec.enter(SpanKind::Cell, "c");
            let _boot = rec.enter(SpanKind::Boot, "b");
        }
        let instants = vec![ChromeInstant {
            name: "0x1000: halt".into(),
            track: 2,
            ts_us: 1,
        }];
        let json = chrome_trace(&collector.take(), &instants);
        let parsed = crate::json::parse(&json).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 3);
        for event in events {
            assert_eq!(event.get("pid").and_then(Json::as_u64), Some(1));
            assert_eq!(event.get("tid").and_then(Json::as_u64), Some(2));
            let ph = event.get("ph").and_then(Json::as_str).unwrap();
            assert!(ph == "X" || ph == "i");
            if ph == "X" {
                assert!(event.get("dur").and_then(Json::as_u64).is_some());
            }
        }
    }
}
