//! State continuity: secure storage and recovery of protected-module
//! state across restarts (§IV-C).
//!
//! The module's persistent state lives on storage **controlled by the
//! attacker** (the OS owns the disk). Sealing gives confidentiality and
//! integrity, but not *freshness*: the attacker can keep every blob the
//! module ever sealed and feed back an old one — the paper's rollback
//! attack that resets `tries_left` and enables PIN brute force.
//!
//! Three schemes, in increasing order of strength:
//!
//! * [`NaiveContinuity`] — sealing only. Rollback succeeds.
//! * [`CounterContinuity`] — a platform monotonic counter is bumped
//!   *before* the blob is written; recovery accepts only the blob whose
//!   sequence number equals the counter. Rollback fails, but a crash in
//!   the window between the bump and the write leaves **no** acceptable
//!   blob: the module is bricked. This is the liveness problem the
//!   paper points at ("random crashes … should not leave it in a state
//!   where it can no longer make progress").
//! * [`TwoPhaseContinuity`] — a Memoir/ICE-style write-ahead scheme:
//!   seal with sequence `counter + 1`, write to the *other* of two
//!   slots (keeping the previous blob), and only then bump the counter;
//!   recovery accepts sequence `counter` or `counter + 1` (catching the
//!   counter up in the latter case). Rollback still fails, and every
//!   crash point recovers to either the old or the new state.

use std::collections::HashMap;
use std::fmt;

use swsec_crypto::seal::{open, seal, SealError};

use crate::platform::{CounterId, ModuleKey, Platform};

/// Attacker-controlled persistent storage (the OS's disk).
///
/// The attacker may snapshot it at any time and later restore the
/// snapshot — that is the rollback attack.
#[derive(Debug, Clone, Default)]
pub struct UntrustedStore {
    slots: HashMap<u32, Vec<u8>>,
}

impl UntrustedStore {
    /// Creates empty storage.
    pub fn new() -> UntrustedStore {
        UntrustedStore::default()
    }

    /// Reads a slot.
    pub fn read(&self, slot: u32) -> Option<&[u8]> {
        self.slots.get(&slot).map(|v| v.as_slice())
    }

    /// Writes a slot.
    pub fn write(&mut self, slot: u32, bytes: &[u8]) {
        self.slots.insert(slot, bytes.to_vec());
    }

    /// Attacker action: copy the entire storage.
    pub fn snapshot(&self) -> UntrustedStore {
        self.clone()
    }

    /// Attacker action: replace the storage with an earlier snapshot.
    pub fn restore(&mut self, snapshot: UntrustedStore) {
        *self = snapshot;
    }

    /// Attacker (or cosmic-ray) action: flip one bit of a stored blob.
    /// `byte` is reduced modulo the blob length, so any value addresses
    /// *some* byte; returns the `(byte, bit)` actually flipped, or
    /// `None` if the slot is empty.
    pub fn flip_bit(&mut self, slot: u32, byte: usize, bit: u8) -> Option<(usize, u8)> {
        let blob = self.slots.get_mut(&slot)?;
        if blob.is_empty() {
            return None;
        }
        let byte = byte % blob.len();
        let bit = bit % 8;
        blob[byte] ^= 1 << bit;
        Some((byte, bit))
    }
}

/// What reading one slot of a two-slot scheme yielded.
enum SlotRead {
    /// Nothing stored there.
    Missing,
    /// A blob is present but fails authentication or decoding.
    Corrupt,
    /// A validly sealed `(sequence, state)` pair.
    Valid(u64, Vec<u8>),
}

/// Why stored state could not be recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContinuityError {
    /// No blob is present.
    NoState,
    /// A blob failed to unseal (tampered or wrong key).
    Corrupt,
    /// A blob unsealed but its sequence number is not acceptable —
    /// stale (rollback) or, for the counter scheme after an unlucky
    /// crash, *nothing* acceptable exists (liveness loss).
    Stale {
        /// The best sequence found in storage.
        found: u64,
        /// The sequence the platform counter requires.
        expected: u64,
    },
}

impl fmt::Display for ContinuityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContinuityError::NoState => write!(f, "no stored state"),
            ContinuityError::Corrupt => write!(f, "stored state failed authentication"),
            ContinuityError::Stale { found, expected } => {
                write!(
                    f,
                    "stored state is stale (found seq {found}, expected {expected})"
                )
            }
        }
    }
}

impl std::error::Error for ContinuityError {}

/// Where to inject a crash during a save, for liveness experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// No crash: the save completes.
    None,
    /// Crash before anything is written.
    BeforeStore,
    /// Crash after the blob is written but before the counter moves
    /// (only meaningful for [`TwoPhaseContinuity`], which writes first).
    AfterStore,
    /// Crash after the counter moved but before the blob is written
    /// (only meaningful for [`CounterContinuity`], which bumps first).
    AfterBump,
}

fn encode(seq: u64, state: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + state.len());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(state);
    out
}

fn decode(blob: Vec<u8>) -> Result<(u64, Vec<u8>), ContinuityError> {
    if blob.len() < 8 {
        return Err(ContinuityError::Corrupt);
    }
    let seq = u64::from_le_bytes(blob[..8].try_into().expect("length checked"));
    Ok((seq, blob[8..].to_vec()))
}

fn nonce_for(seq: u64, salt: u32) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[..8].copy_from_slice(&seq.to_le_bytes());
    n[8..].copy_from_slice(&salt.to_le_bytes());
    n
}

/// Sealing without freshness: confidentiality and integrity only.
#[derive(Debug)]
pub struct NaiveContinuity {
    key: ModuleKey,
    slot: u32,
    local_seq: u64,
}

impl NaiveContinuity {
    /// Creates the scheme for a module key, storing into `slot`.
    pub fn new(key: ModuleKey, slot: u32) -> NaiveContinuity {
        NaiveContinuity {
            key,
            slot,
            local_seq: 0,
        }
    }

    /// Seals and stores `state`.
    pub fn save(&mut self, store: &mut UntrustedStore, state: &[u8]) {
        self.local_seq += 1;
        let blob = seal(
            &self.key.0,
            &nonce_for(self.local_seq, self.slot),
            b"naive-continuity",
            &encode(self.local_seq, state),
        );
        store.write(self.slot, &blob);
    }

    /// Recovers whatever validly-sealed blob is in storage — including a
    /// replayed old one.
    ///
    /// # Errors
    ///
    /// [`ContinuityError::NoState`] on empty storage and
    /// [`ContinuityError::Corrupt`] on tampered blobs.
    pub fn load(&self, store: &UntrustedStore) -> Result<Vec<u8>, ContinuityError> {
        let blob = store.read(self.slot).ok_or(ContinuityError::NoState)?;
        let plain = open(&self.key.0, b"naive-continuity", blob).map_err(|e| match e {
            SealError::TooShort | SealError::BadTag => ContinuityError::Corrupt,
        })?;
        decode(plain).map(|(_, state)| state)
    }
}

/// Monotonic-counter freshness: bump-then-write.
///
/// Rollback-safe but not crash-safe — see the module docs.
#[derive(Debug)]
pub struct CounterContinuity {
    key: ModuleKey,
    counter: CounterId,
    slot: u32,
}

impl CounterContinuity {
    /// Creates the scheme over a platform counter, storing into `slot`.
    pub fn new(key: ModuleKey, counter: CounterId, slot: u32) -> CounterContinuity {
        CounterContinuity { key, counter, slot }
    }

    /// Saves `state`, optionally crashing at the injected point.
    /// Returns `true` if the save completed.
    pub fn save(
        &mut self,
        platform: &mut Platform,
        store: &mut UntrustedStore,
        state: &[u8],
        crash: CrashPoint,
    ) -> bool {
        if crash == CrashPoint::BeforeStore {
            return false;
        }
        // Bump first: from this instant the counter demands a blob that
        // does not exist yet.
        let seq = platform.bump_counter(self.counter);
        if crash == CrashPoint::AfterBump {
            return false;
        }
        let blob = seal(
            &self.key.0,
            &nonce_for(seq, self.slot),
            b"counter-continuity",
            &encode(seq, state),
        );
        store.write(self.slot, &blob);
        true
    }

    /// Recovers the state whose sequence matches the platform counter.
    ///
    /// # Errors
    ///
    /// [`ContinuityError::Stale`] when the stored sequence does not
    /// match the counter — after a rollback **or** after an unlucky
    /// crash (liveness loss); [`ContinuityError::NoState`] /
    /// [`ContinuityError::Corrupt`] as usual.
    pub fn load(
        &self,
        platform: &Platform,
        store: &UntrustedStore,
    ) -> Result<Vec<u8>, ContinuityError> {
        let expected = platform.counter(self.counter);
        let blob = store.read(self.slot).ok_or(ContinuityError::NoState)?;
        let plain =
            open(&self.key.0, b"counter-continuity", blob).map_err(|_| ContinuityError::Corrupt)?;
        let (seq, state) = decode(plain)?;
        if seq != expected {
            return Err(ContinuityError::Stale {
                found: seq,
                expected,
            });
        }
        Ok(state)
    }
}

/// Write-ahead two-slot freshness: write-then-bump with recovery
/// catch-up. Rollback-safe *and* crash-safe.
#[derive(Debug)]
pub struct TwoPhaseContinuity {
    key: ModuleKey,
    counter: CounterId,
    slot_a: u32,
    slot_b: u32,
}

impl TwoPhaseContinuity {
    /// Creates the scheme over a platform counter and two storage slots.
    pub fn new(key: ModuleKey, counter: CounterId, slot_a: u32, slot_b: u32) -> TwoPhaseContinuity {
        TwoPhaseContinuity {
            key,
            counter,
            slot_a,
            slot_b,
        }
    }

    fn slot_for(&self, seq: u64) -> u32 {
        if seq.is_multiple_of(2) {
            self.slot_a
        } else {
            self.slot_b
        }
    }

    /// Saves `state`, optionally crashing at the injected point.
    /// Returns `true` if the save completed.
    pub fn save(
        &mut self,
        platform: &mut Platform,
        store: &mut UntrustedStore,
        state: &[u8],
        crash: CrashPoint,
    ) -> bool {
        if crash == CrashPoint::BeforeStore {
            return false;
        }
        // Write ahead: the new blob (sequence counter+1) goes to the
        // *other* slot, leaving the current blob intact.
        let next = platform.counter(self.counter) + 1;
        let blob = seal(
            &self.key.0,
            &nonce_for(next, self.slot_for(next)),
            b"two-phase-continuity",
            &encode(next, state),
        );
        store.write(self.slot_for(next), &blob);
        if crash == CrashPoint::AfterStore {
            return false;
        }
        platform.bump_counter(self.counter);
        true
    }

    fn try_slot(&self, store: &UntrustedStore, slot: u32) -> SlotRead {
        let Some(blob) = store.read(slot) else {
            return SlotRead::Missing;
        };
        let Ok(plain) = open(&self.key.0, b"two-phase-continuity", blob) else {
            return SlotRead::Corrupt;
        };
        match decode(plain) {
            Ok((seq, state)) => SlotRead::Valid(seq, state),
            Err(_) => SlotRead::Corrupt,
        }
    }

    /// Recovers the freshest acceptable state: sequence `counter` or
    /// `counter + 1` (write-ahead from an interrupted save, in which
    /// case the counter is caught up so the superseded blob dies).
    ///
    /// # Errors
    ///
    /// [`ContinuityError::Stale`] only for genuinely rolled-back (or
    /// deleted) storage; [`ContinuityError::Corrupt`] when blobs are
    /// present but *none* passes authentication — tampering, which is a
    /// different attack than rollback and must be reported as such;
    /// [`ContinuityError::NoState`] before the first save.
    pub fn load(
        &self,
        platform: &mut Platform,
        store: &UntrustedStore,
    ) -> Result<Vec<u8>, ContinuityError> {
        let expected = platform.counter(self.counter);
        let candidates = [
            self.try_slot(store, self.slot_a),
            self.try_slot(store, self.slot_b),
        ];
        let mut best: Option<(u64, Vec<u8>)> = None;
        let mut best_any = 0u64;
        let mut saw_valid = false;
        let mut saw_corrupt = false;
        for c in candidates {
            let (seq, state) = match c {
                SlotRead::Missing => continue,
                SlotRead::Corrupt => {
                    saw_corrupt = true;
                    continue;
                }
                SlotRead::Valid(seq, state) => (seq, state),
            };
            saw_valid = true;
            best_any = best_any.max(seq);
            if seq == expected || seq == expected + 1 {
                match &best {
                    Some((s, _)) if *s >= seq => {}
                    _ => best = Some((seq, state)),
                }
            }
        }
        match best {
            Some((seq, state)) => {
                if seq == expected + 1 {
                    // The save was interrupted after the write: commit it
                    // now so the older blob can never be replayed.
                    platform.bump_counter(self.counter);
                }
                Ok(state)
            }
            // A validly sealed but unacceptable sequence: rollback.
            None if saw_valid => Err(ContinuityError::Stale {
                found: best_any,
                expected,
            }),
            // Blobs exist but none authenticates: tampering, not
            // rollback — report it as corruption so the operator knows
            // which attack (or disk fault) they are looking at.
            None if saw_corrupt => Err(ContinuityError::Corrupt),
            None if expected == 0 => Err(ContinuityError::NoState),
            // Storage emptied under a non-zero counter: the blobs were
            // deleted, which freshness-wise is a rollback to nothing.
            None => Err(ContinuityError::Stale { found: 0, expected }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_rng::{stream, Rng};

    fn setup() -> (Platform, ModuleKey, UntrustedStore) {
        let platform = Platform::new([5u8; 32]);
        let key = ModuleKey([0xAB; 32]);
        (platform, key, UntrustedStore::new())
    }

    #[test]
    fn naive_roundtrip() {
        let (_, key, mut store) = setup();
        let mut scheme = NaiveContinuity::new(key, 0);
        scheme.save(&mut store, b"tries=3");
        assert_eq!(scheme.load(&store).unwrap(), b"tries=3");
    }

    #[test]
    fn naive_is_rollback_vulnerable() {
        let (_, key, mut store) = setup();
        let mut scheme = NaiveContinuity::new(key, 0);
        scheme.save(&mut store, b"tries=3");
        let old = store.snapshot(); // attacker keeps the fresh state
        scheme.save(&mut store, b"tries=1");
        store.restore(old); // attacker rolls back
                            // The stale state is accepted: the attack works.
        assert_eq!(scheme.load(&store).unwrap(), b"tries=3");
    }

    #[test]
    fn naive_detects_tampering() {
        let (_, key, mut store) = setup();
        let mut scheme = NaiveContinuity::new(key, 0);
        scheme.save(&mut store, b"state");
        let mut blob = store.read(0).unwrap().to_vec();
        blob[15] ^= 1;
        store.write(0, &blob);
        assert_eq!(scheme.load(&store), Err(ContinuityError::Corrupt));
    }

    #[test]
    fn counter_scheme_blocks_rollback() {
        let (mut platform, key, mut store) = setup();
        let c = platform.alloc_counter();
        let mut scheme = CounterContinuity::new(key, c, 0);
        assert!(scheme.save(&mut platform, &mut store, b"tries=3", CrashPoint::None));
        let old = store.snapshot();
        assert!(scheme.save(&mut platform, &mut store, b"tries=1", CrashPoint::None));
        store.restore(old);
        assert!(matches!(
            scheme.load(&platform, &store),
            Err(ContinuityError::Stale {
                found: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn counter_scheme_loses_liveness_on_crash() {
        let (mut platform, key, mut store) = setup();
        let c = platform.alloc_counter();
        let mut scheme = CounterContinuity::new(key, c, 0);
        assert!(scheme.save(&mut platform, &mut store, b"v1", CrashPoint::None));
        // Crash after the counter bump, before the new blob is written:
        assert!(!scheme.save(&mut platform, &mut store, b"v2", CrashPoint::AfterBump));
        // Now NO blob matches the counter — the module is bricked.
        assert!(matches!(
            scheme.load(&platform, &store),
            Err(ContinuityError::Stale { .. })
        ));
    }

    #[test]
    fn two_phase_roundtrip_and_rollback_protection() {
        let (mut platform, key, mut store) = setup();
        let c = platform.alloc_counter();
        let mut scheme = TwoPhaseContinuity::new(key, c, 0, 1);
        assert!(scheme.save(&mut platform, &mut store, b"tries=3", CrashPoint::None));
        let old = store.snapshot();
        assert!(scheme.save(&mut platform, &mut store, b"tries=1", CrashPoint::None));
        assert_eq!(scheme.load(&mut platform, &store).unwrap(), b"tries=1");
        store.restore(old);
        assert!(matches!(
            scheme.load(&mut platform, &store),
            Err(ContinuityError::Stale { .. })
        ));

        // Seeded schedules of {save the next version, roll back to a
        // kept snapshot, load}: two-phase never loads a version older
        // than the newest it saved or loaded, while the naive scheme
        // does load an older one on some schedule. Case `n` draws from
        // `stream(SEED, &[n])`.
        const SEED: u64 = 0xC047_0001;
        let mut naive_regressions = 0;
        for case in 0..32 {
            let mut rng = stream(SEED, &[case]);
            let (mut platform, key, mut store) = setup();
            let c = platform.alloc_counter();
            let mut scheme = TwoPhaseContinuity::new(key, c, 0, 1);
            let mut naive = NaiveContinuity::new(key, 9);
            let (mut version, mut floor) = (0u32, 0u32);
            let mut trace = Vec::new();
            scheme.save(
                &mut platform,
                &mut store,
                &0u32.to_le_bytes(),
                CrashPoint::None,
            );
            naive.save(&mut store, &0u32.to_le_bytes());
            let mut snapshots = vec![store.snapshot()];
            for _ in 0..1 + rng.gen_range(23) {
                let (op, flag) = (rng.gen_range(3), rng.gen_bool());
                trace.push((op, flag));
                match op {
                    0 => {
                        version += 1;
                        let state = version.to_le_bytes();
                        scheme.save(&mut platform, &mut store, &state, CrashPoint::None);
                        naive.save(&mut store, &state);
                        if flag {
                            snapshots.push(store.snapshot());
                        }
                        floor = version;
                    }
                    1 => {
                        let idx =
                            (usize::from(flag) * snapshots.len() / 2).min(snapshots.len() - 1);
                        store.restore(snapshots[idx].clone());
                    }
                    _ => {
                        let version_of =
                            |bytes: Vec<u8>| u32::from_le_bytes(bytes[..4].try_into().unwrap());
                        if let Ok(bytes) = scheme.load(&mut platform, &store) {
                            let v = version_of(bytes);
                            assert!(
                                v >= floor,
                                "seed {SEED:#x} case {case}: two-phase regressed from {floor} to {v} after {trace:?}"
                            );
                            floor = v;
                        }
                        if naive
                            .load(&store)
                            .is_ok_and(|bytes| version_of(bytes) < floor)
                        {
                            naive_regressions += 1;
                        }
                    }
                }
            }
        }
        assert!(
            naive_regressions > 0,
            "no schedule rolled the naive scheme back"
        );
    }

    #[test]
    fn two_phase_survives_crash_after_store() {
        let (mut platform, key, mut store) = setup();
        let c = platform.alloc_counter();
        let mut scheme = TwoPhaseContinuity::new(key, c, 0, 1);
        assert!(scheme.save(&mut platform, &mut store, b"v1", CrashPoint::None));
        // Crash after writing v2 but before the counter bump.
        assert!(!scheme.save(&mut platform, &mut store, b"v2", CrashPoint::AfterStore));
        // Recovery accepts the write-ahead blob and catches the counter up.
        assert_eq!(scheme.load(&mut platform, &store).unwrap(), b"v2");
    }

    #[test]
    fn two_phase_survives_crash_before_store() {
        let (mut platform, key, mut store) = setup();
        let c = platform.alloc_counter();
        let mut scheme = TwoPhaseContinuity::new(key, c, 0, 1);
        assert!(scheme.save(&mut platform, &mut store, b"v1", CrashPoint::None));
        assert!(!scheme.save(&mut platform, &mut store, b"v2", CrashPoint::BeforeStore));
        // The old state remains recoverable: no liveness loss.
        assert_eq!(scheme.load(&mut platform, &store).unwrap(), b"v1");
    }

    #[test]
    fn two_phase_catch_up_invalidates_superseded_blob() {
        let (mut platform, key, mut store) = setup();
        let c = platform.alloc_counter();
        let mut scheme = TwoPhaseContinuity::new(key, c, 0, 1);
        assert!(scheme.save(&mut platform, &mut store, b"v1", CrashPoint::None));
        let with_v1 = store.snapshot();
        assert!(!scheme.save(&mut platform, &mut store, b"v2", CrashPoint::AfterStore));
        // Recovery commits v2.
        assert_eq!(scheme.load(&mut platform, &store).unwrap(), b"v2");
        // Replaying the v1-only snapshot must now fail.
        store.restore(with_v1);
        assert!(matches!(
            scheme.load(&mut platform, &store),
            Err(ContinuityError::Stale { .. })
        ));
    }

    #[test]
    fn two_phase_no_state_initially() {
        let (mut platform, key, store) = setup();
        let c = platform.alloc_counter();
        let scheme = TwoPhaseContinuity::new(key, c, 0, 1);
        assert_eq!(
            scheme.load(&mut platform, &store),
            Err(ContinuityError::NoState)
        );
    }

    #[test]
    fn two_phase_reports_corruption_not_rollback() {
        // Regression: with both slots tampered, load used to answer
        // `Stale { found: 0 }` — indistinguishable from a rollback to
        // deleted storage. Tampering must surface as `Corrupt`.
        let (mut platform, key, mut store) = setup();
        let c = platform.alloc_counter();
        let mut scheme = TwoPhaseContinuity::new(key, c, 0, 1);
        assert!(scheme.save(&mut platform, &mut store, b"v1", CrashPoint::None));
        assert!(scheme.save(&mut platform, &mut store, b"v2", CrashPoint::None));
        assert!(store.flip_bit(0, 20, 3).is_some());
        assert!(store.flip_bit(1, 20, 3).is_some());
        assert_eq!(
            scheme.load(&mut platform, &store),
            Err(ContinuityError::Corrupt)
        );
    }

    #[test]
    fn two_phase_survives_single_slot_corruption_of_stale_blob() {
        // Corrupting only the *stale* slot must not cost liveness: the
        // current blob still authenticates and loads.
        let (mut platform, key, mut store) = setup();
        let c = platform.alloc_counter();
        let mut scheme = TwoPhaseContinuity::new(key, c, 0, 1);
        assert!(scheme.save(&mut platform, &mut store, b"v1", CrashPoint::None)); // seq 1 -> slot 1
        assert!(scheme.save(&mut platform, &mut store, b"v2", CrashPoint::None)); // seq 2 -> slot 0
        assert!(store.flip_bit(1, 9, 0).is_some()); // stale slot
        assert_eq!(scheme.load(&mut platform, &store).unwrap(), b"v2");
    }

    #[test]
    fn two_phase_current_slot_corrupted_is_stale_not_corrupt() {
        // Only the current blob is destroyed; the surviving valid blob
        // is genuinely stale, so `Stale` (with its sequence) is the
        // right answer — the operator sees what is still recoverable.
        let (mut platform, key, mut store) = setup();
        let c = platform.alloc_counter();
        let mut scheme = TwoPhaseContinuity::new(key, c, 0, 1);
        assert!(scheme.save(&mut platform, &mut store, b"v1", CrashPoint::None));
        assert!(scheme.save(&mut platform, &mut store, b"v2", CrashPoint::None));
        assert!(store.flip_bit(0, 33, 5).is_some()); // current slot (seq 2)
        assert_eq!(
            scheme.load(&mut platform, &store),
            Err(ContinuityError::Stale {
                found: 1,
                expected: 2
            })
        );
    }

    #[test]
    fn deleted_storage_is_still_reported_stale() {
        let (mut platform, key, mut store) = setup();
        let c = platform.alloc_counter();
        let mut scheme = TwoPhaseContinuity::new(key, c, 0, 1);
        assert!(scheme.save(&mut platform, &mut store, b"v1", CrashPoint::None));
        store.restore(UntrustedStore::new());
        assert_eq!(
            scheme.load(&mut platform, &store),
            Err(ContinuityError::Stale {
                found: 0,
                expected: 1
            })
        );
    }

    #[test]
    fn flip_bit_wraps_and_reports() {
        let mut store = UntrustedStore::new();
        assert_eq!(store.flip_bit(0, 0, 0), None);
        store.write(3, &[0u8; 4]);
        assert_eq!(store.flip_bit(3, 6, 9), Some((2, 1)));
        assert_eq!(store.read(3).unwrap(), &[0, 0, 2, 0]);
    }

    #[test]
    fn blobs_are_confidential() {
        let (_, key, mut store) = setup();
        let mut scheme = NaiveContinuity::new(key, 0);
        scheme.save(&mut store, b"PIN=1234");
        let blob = store.read(0).unwrap();
        assert!(!blob.windows(8).any(|w| w == b"PIN=1234"));
    }

    #[test]
    fn wrong_key_cannot_open_blobs() {
        let (_, key, mut store) = setup();
        let mut scheme = NaiveContinuity::new(key, 0);
        scheme.save(&mut store, b"secret");
        let other = NaiveContinuity::new(ModuleKey([0xCD; 32]), 0);
        assert_eq!(other.load(&store), Err(ContinuityError::Corrupt));
    }
}
