//! Pluggable event sinks.
//!
//! A sink is any `Send + Sync` object implementing [`EventSink`]; the
//! emitter (the VM) holds an `Arc<dyn EventSink>` and calls
//! [`EventSink::record`] through a shared reference, so sinks use
//! interior mutability and the caller can keep a clone to inspect after
//! the run. A sink declares which event kinds it wants via
//! [`EventSink::interests`]; the emitter caches that mask at attach
//! time and never constructs an unwanted event.
//!
//! Machines are frequently created deep inside experiment code that has
//! no telemetry parameters. For those, a run carries its sink in its VM
//! configuration (`swsec_vm::VmConfig::sink`), and every machine built
//! inside the run's attempts attaches it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::{EventMask, SecurityEvent};

/// A consumer of [`SecurityEvent`]s.
///
/// Implementations must be cheap and non-blocking in [`record`]
/// (`EventSink::record`): the VM calls it synchronously from the
/// interpreter loop.
pub trait EventSink: Send + Sync {
    /// Receives one event. Called only for kinds covered by
    /// [`interests`](EventSink::interests).
    fn record(&self, event: &SecurityEvent);

    /// Which event kinds this sink wants. Queried once when the sink is
    /// attached; defaults to everything except per-instruction steps.
    fn interests(&self) -> EventMask {
        EventMask::DEFAULT
    }
}

/// A bounded ring buffer of the most recent events.
///
/// When full, the oldest event is overwritten; [`drain`]
/// (`RingBufferSink::drain`) returns the survivors oldest-first along
/// with the number overwritten, so consumers can tell a complete stream
/// from a truncated one.
pub struct RingBufferSink {
    inner: Mutex<RingInner>,
    capacity: usize,
    interests: EventMask,
}

struct RingInner {
    buf: Vec<SecurityEvent>,
    /// Next write position once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (min 1), interested in
    /// the default mask.
    pub fn new(capacity: usize) -> RingBufferSink {
        RingBufferSink::with_interests(capacity, EventMask::DEFAULT)
    }

    /// A ring with an explicit interest mask (e.g. including
    /// [`EventMask::STEP`]).
    pub fn with_interests(capacity: usize, interests: EventMask) -> RingBufferSink {
        RingBufferSink {
            inner: Mutex::new(RingInner {
                buf: Vec::new(),
                head: 0,
                dropped: 0,
            }),
            capacity: capacity.max(1),
            interests,
        }
    }

    /// Removes and returns all buffered events oldest-first, plus how
    /// many older events were overwritten to make room.
    pub fn drain(&self) -> (Vec<SecurityEvent>, u64) {
        let mut inner = self.inner.lock().expect("ring sink poisoned");
        let head = inner.head;
        let dropped = inner.dropped;
        let mut buf = std::mem::take(&mut inner.buf);
        inner.head = 0;
        inner.dropped = 0;
        drop(inner);
        if dropped > 0 {
            // Buffer wrapped: oldest surviving event sits at `head`.
            buf.rotate_left(head);
        }
        (buf, dropped)
    }

    /// How many events are currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("ring sink poisoned").buf.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RingBufferSink {
    fn record(&self, event: &SecurityEvent) {
        let mut inner = self.inner.lock().expect("ring sink poisoned");
        if inner.buf.len() < self.capacity {
            inner.buf.push(*event);
        } else {
            let head = inner.head;
            inner.buf[head] = *event;
            inner.head = (head + 1) % self.capacity;
            inner.dropped += 1;
        }
    }

    fn interests(&self) -> EventMask {
        self.interests
    }
}

/// Lock-free per-kind event counters.
///
/// The cheapest possible sink: one relaxed atomic increment per event.
/// Used both for assertions in tests and as the sink the overhead guard
/// attaches when measuring emission cost.
#[derive(Default)]
pub struct CountingSink {
    control: AtomicU64,
    fault: AtomicU64,
    canary: AtomicU64,
    pma: AtomicU64,
    syscall: AtomicU64,
    guard: AtomicU64,
    step: AtomicU64,
    cell_failed: AtomicU64,
    job_shed: AtomicU64,
}

/// A point-in-time copy of a [`CountingSink`]'s totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Control transfers seen.
    pub control: u64,
    /// Faults seen.
    pub fault: u64,
    /// Canary trips seen.
    pub canary: u64,
    /// PMA violations seen.
    pub pma: u64,
    /// Syscalls seen.
    pub syscall: u64,
    /// Guard checks seen.
    pub guard: u64,
    /// Steps seen (zero unless attached with a step-interested mask).
    pub step: u64,
    /// Campaign cell failures seen.
    pub cell_failed: u64,
    /// Service jobs shed or rejected seen.
    pub job_shed: u64,
}

impl EventCounts {
    /// Sum over every kind.
    pub fn total(&self) -> u64 {
        self.control
            + self.fault
            + self.canary
            + self.pma
            + self.syscall
            + self.guard
            + self.step
            + self.cell_failed
            + self.job_shed
    }
}

impl CountingSink {
    /// A zeroed counter sink with default interests.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Reads the current totals.
    pub fn counts(&self) -> EventCounts {
        EventCounts {
            control: self.control.load(Ordering::Relaxed),
            fault: self.fault.load(Ordering::Relaxed),
            canary: self.canary.load(Ordering::Relaxed),
            pma: self.pma.load(Ordering::Relaxed),
            syscall: self.syscall.load(Ordering::Relaxed),
            guard: self.guard.load(Ordering::Relaxed),
            step: self.step.load(Ordering::Relaxed),
            cell_failed: self.cell_failed.load(Ordering::Relaxed),
            job_shed: self.job_shed.load(Ordering::Relaxed),
        }
    }
}

impl EventSink for CountingSink {
    fn record(&self, event: &SecurityEvent) {
        let cell = match event {
            SecurityEvent::ControlTransfer { .. } => &self.control,
            SecurityEvent::Fault { .. } => &self.fault,
            SecurityEvent::CanaryTrip { .. } => &self.canary,
            SecurityEvent::PmaViolation { .. } => &self.pma,
            SecurityEvent::Syscall { .. } => &self.syscall,
            SecurityEvent::GuardCheck { .. } => &self.guard,
            SecurityEvent::Step { .. } => &self.step,
            SecurityEvent::CellFailed { .. } => &self.cell_failed,
            SecurityEvent::JobShed { .. } => &self.job_shed,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

/// An address → instruction-count profile.
///
/// Opts into [`EventMask::STEP`], so every retired instruction lands
/// here; after a run, [`top`](HotAddressSink::top) answers *where did
/// execution actually go* — e.g. did the hijacked return really reach
/// the injected shellcode page, and how long did it spin there.
pub struct HotAddressSink {
    counts: Mutex<HashMap<u32, u64>>,
}

impl Default for HotAddressSink {
    fn default() -> Self {
        HotAddressSink::new()
    }
}

impl HotAddressSink {
    /// An empty profile.
    pub fn new() -> HotAddressSink {
        HotAddressSink {
            counts: Mutex::new(HashMap::new()),
        }
    }

    /// The `n` hottest addresses, by descending count then ascending
    /// address (deterministic for equal counts).
    pub fn top(&self, n: usize) -> Vec<(u32, u64)> {
        let counts = self.counts.lock().expect("hot-address sink poisoned");
        let mut entries: Vec<(u32, u64)> = counts.iter().map(|(a, c)| (*a, *c)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(n);
        entries
    }

    /// Total instructions profiled.
    pub fn total(&self) -> u64 {
        self.counts
            .lock()
            .expect("hot-address sink poisoned")
            .values()
            .sum()
    }

    /// Renders the top-`n` table, one `addr  count  share` row per
    /// line. Deterministic for a deterministic run.
    pub fn render_top(&self, n: usize) -> String {
        let total = self.total().max(1);
        let mut out = String::from("hot addresses (top by instruction count):\n");
        for (addr, count) in self.top(n) {
            let share = count as f64 * 100.0 / total as f64;
            out.push_str(&format!("  {addr:#010x}  {count:>10}  {share:5.1}%\n"));
        }
        out
    }
}

impl EventSink for HotAddressSink {
    fn record(&self, event: &SecurityEvent) {
        if let SecurityEvent::Step { ip } = event {
            *self
                .counts
                .lock()
                .expect("hot-address sink poisoned")
                .entry(*ip)
                .or_insert(0) += 1;
        }
    }

    fn interests(&self) -> EventMask {
        EventMask::STEP
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ControlKind, PmaRule};

    fn control(from: u32) -> SecurityEvent {
        SecurityEvent::ControlTransfer {
            kind: ControlKind::Call,
            from,
            to: from + 4,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let ring = RingBufferSink::new(3);
        for i in 0..5u32 {
            ring.record(&control(i));
        }
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 2);
        let froms: Vec<u32> = events
            .iter()
            .map(|e| match e {
                SecurityEvent::ControlTransfer { from, .. } => *from,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(froms, vec![2, 3, 4]);
        // Drain resets the ring completely.
        assert!(ring.is_empty());
        ring.record(&control(9));
        let (events, dropped) = ring.drain();
        assert_eq!((events.len(), dropped), (1, 0));
    }

    #[test]
    fn counting_sink_counts_by_kind() {
        let sink = CountingSink::new();
        sink.record(&control(0));
        sink.record(&control(4));
        sink.record(&SecurityEvent::CanaryTrip { ip: 8 });
        sink.record(&SecurityEvent::PmaViolation {
            rule: PmaRule::BadEntry,
            from: 0,
            to: 4,
        });
        let c = sink.counts();
        assert_eq!((c.control, c.canary, c.pma, c.total()), (2, 1, 1, 4));
    }

    #[test]
    fn hot_address_profile_ranks_deterministically() {
        let sink = HotAddressSink::new();
        assert!(sink.interests().contains(EventMask::STEP));
        for _ in 0..3 {
            sink.record(&SecurityEvent::Step { ip: 0x2000 });
        }
        sink.record(&SecurityEvent::Step { ip: 0x1000 });
        sink.record(&SecurityEvent::Step { ip: 0x3000 });
        // Non-step events are ignored even if delivered.
        sink.record(&control(0));
        assert_eq!(sink.total(), 5);
        let top = sink.top(2);
        assert_eq!(top[0], (0x2000, 3));
        // Equal counts tie-break by address.
        assert_eq!(top[1], (0x1000, 1));
        let rendered = sink.render_top(3);
        assert!(rendered.contains("0x00002000"));
        assert!(rendered.contains("60.0%"));
    }
}
