//! AFL-style edge/event coverage over the security-event stream.
//!
//! The fuzzer in `swsec-fuzz` needs a cheap novelty signal: "did this
//! input drive the victim somewhere no earlier input did?". The event
//! stream already carries exactly the right raw material — control
//! transfers (edges), classified faults, canary trips, PMA violations
//! and guard checks — so coverage is just another [`EventSink`]:
//!
//! * every control-transfer edge `(kind, from, to)` hashes into a slot
//!   of a fixed-size byte map whose cells count hits (saturating);
//! * "rare events" — fault classes, canary trips, PMA rules, guard
//!   checks — get *reserved* slots at the top of the map, so a run
//!   that triggers a new event class always looks novel regardless of
//!   how its edges hash, plus a hashed slot keyed by the event site so
//!   distinct trip locations stay distinguishable;
//! * hit counts are compared through the classic AFL bucket curve
//!   (1, 2, 3, 4–7, 8–15, 16–31, 32–127, 128+), so "loop ran 5 times"
//!   and "loop ran 6 times" are the same behaviour but "ran once" and
//!   "ran a hundred times" are not.
//!
//! Everything here is deterministic: the same event sequence yields
//! the same [`CoverageMap`], the same fingerprint and the same
//! [`CoverageGain`] against the same accumulated [`GlobalCoverage`].

use std::sync::atomic::{AtomicU8, Ordering};

use crate::event::{EventMask, SecurityEvent};
use crate::sink::EventSink;

/// Number of slots in the coverage map. Small enough that a map copy
/// is trivially cheap per fuzz attempt, large enough that the edge
/// population of a MinC victim (hundreds of edges) rarely collides.
pub const MAP_SIZE: usize = 1 << 12;

/// Slots reserved at the top of the map for rare-event *classes*.
const RARE_SLOTS: usize = 16;
/// First reserved slot; hashed edges stay below this.
const RARE_BASE: usize = MAP_SIZE - RARE_SLOTS;

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The map slot for an edge, keyed by a per-event-family tag and two
/// addresses. Always lands below [`RARE_BASE`].
///
/// Public so an execution engine can pre-resolve the slot of an edge
/// whose endpoints are known ahead of time (a compiled static call)
/// and later bump it via [`CoverageSink::bump_slot`] without
/// constructing a [`SecurityEvent`].
pub fn edge_slot(tag: u8, from: u32, to: u32) -> usize {
    let key = (u64::from(tag) << 56) ^ (u64::from(from) << 24) ^ u64::from(to);
    (mix(key) as usize) % RARE_BASE
}

/// The reserved class slot for a rare event, by stable class index
/// (0–7 fault kinds, 8 canary, 9–10 PMA rules, 11 guard checks).
fn rare_slot(class: usize) -> usize {
    RARE_BASE + (class % RARE_SLOTS)
}

/// An [`EventSink`] accumulating a hit-count coverage map over one run.
///
/// Attach it to the machine (or a [`ForkServer`]-style harness) before
/// an attempt, [`take_map`](CoverageSink::take_map) after: the sink is
/// interior-mutable and cheap enough to leave attached across
/// millions of snapshot-served attempts.
///
/// [`ForkServer`]: ../../swsec/harness/struct.ForkServer.html
pub struct CoverageSink {
    map: Box<[AtomicU8]>,
}

impl CoverageSink {
    /// An empty coverage map.
    pub fn new() -> CoverageSink {
        let map: Vec<AtomicU8> = (0..MAP_SIZE).map(|_| AtomicU8::new(0)).collect();
        CoverageSink {
            map: map.into_boxed_slice(),
        }
    }

    fn bump(&self, slot: usize) {
        // Saturating increment: a slot stuck at 255 stays there rather
        // than wrapping back to "never hit".
        let _ =
            self.map[slot].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_add(1));
    }

    /// Bumps a pre-resolved map slot directly — the devirtualized
    /// equivalent of [`record`](EventSink::record) for an edge whose
    /// slot was computed ahead of time with [`edge_slot`]. Updating the
    /// same slot through either path yields byte-identical maps.
    #[inline]
    pub fn bump_slot(&self, slot: usize) {
        self.bump(slot);
    }

    /// Bumps the slot of the control-transfer edge `(tag, from, to)`
    /// without constructing the event, where `tag` is the
    /// [`ControlKind`](crate::event::ControlKind) discriminant — the
    /// exact key [`record`](EventSink::record) uses for
    /// `ControlTransfer`, so the resulting map is byte-identical to
    /// the event path.
    #[inline]
    pub fn bump_edge(&self, tag: u8, from: u32, to: u32) {
        self.bump(edge_slot(tag, from, to));
    }

    /// Copies the current hit counts out and clears the map, ready for
    /// the next attempt. Slots are probed with a plain load and only
    /// swapped when non-zero: a short run touches a handful of slots,
    /// and relaxed loads cost a fraction of an atomic exchange, so this
    /// keeps the per-attempt sweep off a fuzzing loop's critical path.
    pub fn take_map(&self) -> CoverageMap {
        let mut counts = vec![0u8; MAP_SIZE];
        for (slot, cell) in self.map.iter().enumerate() {
            if cell.load(Ordering::Relaxed) != 0 {
                counts[slot] = cell.swap(0, Ordering::Relaxed);
            }
        }
        CoverageMap { counts }
    }

    /// Clears the map without reading it. Load-before-store for the
    /// same reason as [`take_map`](CoverageSink::take_map).
    pub fn reset(&self) {
        for cell in self.map.iter() {
            if cell.load(Ordering::Relaxed) != 0 {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }
}

impl Default for CoverageSink {
    fn default() -> CoverageSink {
        CoverageSink::new()
    }
}

impl EventSink for CoverageSink {
    fn record(&self, event: &SecurityEvent) {
        match *event {
            SecurityEvent::ControlTransfer { kind, from, to } => {
                self.bump(edge_slot(kind as u8, from, to));
            }
            SecurityEvent::Fault { kind, ip, addr } => {
                self.bump(rare_slot(kind as usize & 7));
                self.bump(edge_slot(0x10 | (kind as u8), ip, addr));
            }
            SecurityEvent::CanaryTrip { ip } => {
                self.bump(rare_slot(8));
                self.bump(edge_slot(0x20, ip, 0));
            }
            SecurityEvent::PmaViolation { rule, from, to } => {
                self.bump(rare_slot(8 + rule.number() as usize));
                self.bump(edge_slot(0x30, from, to));
            }
            SecurityEvent::GuardCheck { code, ip } => {
                self.bump(rare_slot(11));
                self.bump(edge_slot(0x40, ip, u32::from(code)));
            }
            _ => {}
        }
    }

    fn interests(&self) -> EventMask {
        EventMask::CONTROL
            .union(EventMask::FAULT)
            .union(EventMask::CANARY)
            .union(EventMask::PMA)
            .union(EventMask::GUARD)
    }
}

/// One run's coverage: raw hit counts per slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMap {
    counts: Vec<u8>,
}

/// The AFL bucket curve: maps a raw hit count to a one-bit behaviour
/// class (1, 2, 3, 4–7, 8–15, 16–31, 32–127, 128+).
fn bucket(count: u8) -> u8 {
    match count {
        0 => 0,
        1 => 1 << 0,
        2 => 1 << 1,
        3 => 1 << 2,
        4..=7 => 1 << 3,
        8..=15 => 1 << 4,
        16..=31 => 1 << 5,
        32..=127 => 1 << 6,
        _ => 1 << 7,
    }
}

impl CoverageMap {
    /// Number of slots hit at least once.
    pub fn covered(&self) -> usize {
        self.counts.iter().filter(|&&c| c != 0).count()
    }

    /// A stable 64-bit digest of the *bucketized* map: two runs with
    /// the same behaviour classes fingerprint identically even when
    /// raw counts wobble within a bucket.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for (slot, &count) in self.counts.iter().enumerate() {
            if count != 0 {
                h ^= mix((slot as u64) << 8 | u64::from(bucket(count)));
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

/// What a run contributed beyond everything already seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageGain {
    /// Slots never hit before this run.
    pub new_slots: usize,
    /// Previously-hit slots reaching a new hit-count bucket.
    pub new_buckets: usize,
    /// New slots among the reserved rare-event class slots.
    pub new_rare: usize,
}

impl CoverageGain {
    /// Whether the run added anything at all.
    pub fn novel(&self) -> bool {
        self.new_slots > 0 || self.new_buckets > 0
    }
}

/// The accumulated coverage of a whole fuzzing session: per slot, the
/// union of every bucket bit any run reached.
#[derive(Debug, Clone)]
pub struct GlobalCoverage {
    seen: Vec<u8>,
}

impl GlobalCoverage {
    /// Nothing seen yet.
    pub fn new() -> GlobalCoverage {
        GlobalCoverage {
            seen: vec![0u8; MAP_SIZE],
        }
    }

    /// Folds one run's map in, returning what was new.
    pub fn observe(&mut self, run: &CoverageMap) -> CoverageGain {
        let mut gain = CoverageGain {
            new_slots: 0,
            new_buckets: 0,
            new_rare: 0,
        };
        for (slot, &count) in run.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let bit = bucket(count);
            let prior = self.seen[slot];
            if prior == 0 {
                gain.new_slots += 1;
                if slot >= RARE_BASE {
                    gain.new_rare += 1;
                }
            } else if prior & bit == 0 {
                gain.new_buckets += 1;
            }
            self.seen[slot] = prior | bit;
        }
        gain
    }

    /// Slots hit by any run so far.
    pub fn covered(&self) -> usize {
        self.seen.iter().filter(|&&b| b != 0).count()
    }
}

impl Default for GlobalCoverage {
    fn default() -> GlobalCoverage {
        GlobalCoverage::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ControlKind, FaultKind, PmaRule};

    fn edge(from: u32, to: u32) -> SecurityEvent {
        SecurityEvent::ControlTransfer {
            kind: ControlKind::Call,
            from,
            to,
        }
    }

    #[test]
    fn identical_event_sequences_cover_identically() {
        let a = CoverageSink::new();
        let b = CoverageSink::new();
        for s in [&a, &b] {
            s.record(&edge(0x1000, 0x2000));
            s.record(&edge(0x1000, 0x2000));
            s.record(&edge(0x2000, 0x3000));
        }
        let (ma, mb) = (a.take_map(), b.take_map());
        assert_eq!(ma, mb);
        assert_eq!(ma.fingerprint(), mb.fingerprint());
        assert_eq!(ma.covered(), 2);
    }

    #[test]
    fn direct_bumps_match_the_event_path_byte_for_byte() {
        let by_event = CoverageSink::new();
        let by_slot = CoverageSink::new();
        for (from, to) in [(0x1000, 0x2000), (0x1000, 0x2000), (0x2000, 0x3000)] {
            by_event.record(&edge(from, to));
            by_slot.bump_edge(ControlKind::Call as u8, from, to);
        }
        by_event.record(&SecurityEvent::ControlTransfer {
            kind: ControlKind::Ret,
            from: 5,
            to: 6,
        });
        by_slot.bump_slot(edge_slot(ControlKind::Ret as u8, 5, 6));
        let (a, b) = (by_event.take_map(), by_slot.take_map());
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn take_map_resets_for_the_next_attempt() {
        let sink = CoverageSink::new();
        sink.record(&edge(1, 2));
        assert_eq!(sink.take_map().covered(), 1);
        assert_eq!(sink.take_map().covered(), 0);
    }

    #[test]
    fn rare_events_always_claim_reserved_slots() {
        let sink = CoverageSink::new();
        sink.record(&SecurityEvent::Fault {
            kind: FaultKind::Dep,
            ip: 0x1234,
            addr: 0x1234,
        });
        sink.record(&SecurityEvent::CanaryTrip { ip: 0x4321 });
        sink.record(&SecurityEvent::PmaViolation {
            rule: PmaRule::BadEntry,
            from: 1,
            to: 2,
        });
        let mut global = GlobalCoverage::new();
        let gain = global.observe(&sink.take_map());
        assert_eq!(gain.new_rare, 3, "three distinct event classes");
        assert!(gain.novel());
    }

    #[test]
    fn bucket_curve_separates_orders_of_magnitude_not_noise() {
        // 5 vs 6 hits: same bucket. 1 vs 100: different.
        assert_eq!(bucket(5), bucket(6));
        assert_ne!(bucket(1), bucket(100));
        let sink = CoverageSink::new();
        let mut global = GlobalCoverage::new();
        for _ in 0..5 {
            sink.record(&edge(7, 8));
        }
        assert!(global.observe(&sink.take_map()).novel());
        for _ in 0..6 {
            sink.record(&edge(7, 8));
        }
        // 6 hits is the same 4–7 bucket as 5: nothing new.
        assert!(!global.observe(&sink.take_map()).novel());
        for _ in 0..100 {
            sink.record(&edge(7, 8));
        }
        // 100 hits reaches the 32–127 bucket: a new behaviour class.
        let gain = global.observe(&sink.take_map());
        assert_eq!(gain.new_buckets, 1);
        assert!(gain.novel());
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let sink = CoverageSink::new();
        for _ in 0..1000 {
            sink.record(&edge(9, 10));
        }
        let map = sink.take_map();
        assert_eq!(map.covered(), 1, "saturated slot still counts as hit");
    }

    #[test]
    fn interests_exclude_the_hot_step_stream() {
        let sink = CoverageSink::new();
        assert!(sink.interests().contains(EventMask::CONTROL));
        assert!(sink.interests().contains(EventMask::FAULT));
        assert!(!sink.interests().contains(EventMask::STEP));
        assert!(!sink.interests().contains(EventMask::SYSCALL));
    }
}
