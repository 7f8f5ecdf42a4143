//! The fuzzing corpus: coverage-deduplicated inputs with energy
//! scheduling.
//!
//! An input earns a corpus slot only when its coverage map showed
//! *novel* behaviour ([`CoverageGain::novel`]) and its bucketized
//! fingerprint is unseen. Each entry carries an **energy** score —
//! higher for inputs that opened new rare-event slots — and parent
//! selection is energy-weighted, so inputs that found faults, canary
//! trips or PMA violations get mutated more often. Selection draws
//! from the caller's seeded RNG; the corpus itself holds no
//! randomness, keeping campaign cells pure functions of their seed.

use swsec_obs::CoverageGain;
use swsec_rng::Rng;

use std::collections::BTreeSet;

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The input bytes.
    pub input: Vec<u8>,
    /// Scheduling weight (≥ 1).
    pub energy: u64,
    /// Bucketized coverage fingerprint at admission time.
    pub fingerprint: u64,
}

/// The corpus. Insertion order is deterministic (driven by the
/// engine's sequential loop), so weighted selection under a seeded RNG
/// is too.
#[derive(Debug, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    fingerprints: BTreeSet<u64>,
    total_energy: u64,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Admits `input` if its gain is novel and its fingerprint unseen.
    /// Returns whether it was admitted.
    pub fn add(&mut self, input: Vec<u8>, fingerprint: u64, gain: &CoverageGain) -> bool {
        if !gain.novel() || !self.fingerprints.insert(fingerprint) {
            return false;
        }
        self.push(input, fingerprint, energy_of(gain));
        true
    }

    /// Admits `input` unconditionally with minimum energy — used for
    /// the first seed so the corpus is never empty even for a target
    /// that emits no events at all.
    pub fn add_forced(&mut self, input: Vec<u8>, fingerprint: u64) {
        self.fingerprints.insert(fingerprint);
        self.push(input, fingerprint, 1);
    }

    fn push(&mut self, input: Vec<u8>, fingerprint: u64, energy: u64) {
        self.total_energy += energy;
        self.entries.push(CorpusEntry {
            input,
            energy,
            fingerprint,
        });
    }

    /// Energy-weighted parent selection.
    ///
    /// # Panics
    ///
    /// Panics on an empty corpus; the engine seeds at least one entry
    /// before the mutation loop.
    pub fn select<R: Rng>(&self, rng: &mut R) -> &CorpusEntry {
        assert!(!self.entries.is_empty(), "corpus is empty");
        let mut pick = rng.gen_range(self.total_energy);
        for entry in &self.entries {
            if pick < entry.energy {
                return entry;
            }
            pick -= entry.energy;
        }
        self.entries.last().expect("non-empty")
    }
}

/// Energy from a coverage gain: every novelty dimension contributes,
/// rare security events dominate.
fn energy_of(gain: &CoverageGain) -> u64 {
    1 + 4 * gain.new_slots as u64 + gain.new_buckets as u64 + 16 * gain.new_rare as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_rng::Xoshiro256pp;

    fn gain(slots: usize, rare: usize) -> CoverageGain {
        CoverageGain {
            new_slots: slots,
            new_buckets: 0,
            new_rare: rare,
        }
    }

    #[test]
    fn duplicate_fingerprints_are_rejected() {
        let mut c = Corpus::new();
        assert!(c.add(vec![1], 99, &gain(3, 0)));
        assert!(!c.add(vec![2], 99, &gain(3, 0)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn non_novel_gains_are_rejected() {
        let mut c = Corpus::new();
        assert!(!c.add(vec![1], 5, &gain(0, 0)));
        assert!(c.is_empty());
    }

    #[test]
    fn rare_events_dominate_selection() {
        let mut c = Corpus::new();
        c.add(vec![0], 1, &gain(1, 0)); // energy 5
        c.add(vec![1], 2, &gain(1, 4)); // energy 69
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let picks = (0..1000)
            .filter(|_| c.select(&mut rng).input == vec![1])
            .count();
        assert!(picks > 800, "rare-event entry picked only {picks}/1000");
    }

    #[test]
    fn selection_is_deterministic_under_a_seeded_rng() {
        let mut c = Corpus::new();
        for i in 0..8u8 {
            c.add(vec![i], u64::from(i), &gain(1 + usize::from(i % 3), 0));
        }
        let run = |seed| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            (0..32)
                .map(|_| c.select(&mut rng).input.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
