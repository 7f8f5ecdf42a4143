//! Experiment E11 — state continuity (§IV-C).
//!
//! The Figure 2 module's `tries_left` counter must survive restarts,
//! stored on attacker-controlled disk. This experiment mounts the
//! paper's rollback attack — replay the initial sealed state after
//! every two failed tries and brute-force the PIN — against the three
//! storage schemes, then injects crashes at every point of the save
//! protocol to measure liveness.

use swsec_pma::platform::ModuleKey;
use swsec_pma::{
    ContinuityError, CounterContinuity, CrashPoint, NaiveContinuity, Platform, TwoPhaseContinuity,
    UntrustedStore,
};

use crate::campaign::{CampaignConfig, CampaignCtx};
use crate::experiments::{only_cell, Experiment};
use crate::report::{ExperimentId, Table};

/// A pure-Rust model of the Figure 2 module logic, used as the
/// stateful payload of the continuity schemes. (The in-VM version of
/// the module is exercised by E7/E9; continuity is a platform-level
/// protocol, so the module logic itself can be modelled directly —
/// the protocol neither knows nor cares what the state bytes mean.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinVault {
    /// Remaining tries.
    pub tries_left: u32,
    /// The PIN.
    pub pin: u32,
    /// The protected secret.
    pub secret: u32,
}

impl PinVault {
    /// A fresh vault.
    pub fn new(pin: u32) -> PinVault {
        PinVault {
            tries_left: 3,
            pin,
            secret: 666,
        }
    }

    /// One `get_secret` call: Figure 2 logic.
    pub fn guess(&mut self, pin: u32) -> u32 {
        if self.tries_left > 0 {
            if self.pin == pin {
                self.tries_left = 3;
                self.secret
            } else {
                self.tries_left -= 1;
                0
            }
        } else {
            0
        }
    }

    /// Serializes to the sealed-state byte format.
    pub fn to_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12);
        out.extend_from_slice(&self.tries_left.to_le_bytes());
        out.extend_from_slice(&self.pin.to_le_bytes());
        out.extend_from_slice(&self.secret.to_le_bytes());
        out
    }

    /// Deserializes from the sealed-state byte format.
    pub fn from_bytes(bytes: &[u8]) -> Option<PinVault> {
        if bytes.len() != 12 {
            return None;
        }
        let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("bounds"));
        Some(PinVault {
            tries_left: word(0),
            pin: word(4),
            secret: word(8),
        })
    }
}

/// Which storage scheme guards the vault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Sealing only.
    Naive,
    /// Monotonic counter, bump-then-write.
    Counter,
    /// Two-slot write-ahead, write-then-bump.
    TwoPhase,
}

impl Scheme {
    /// All schemes.
    pub const ALL: [Scheme; 3] = [Scheme::Naive, Scheme::Counter, Scheme::TwoPhase];

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Naive => "naive sealing",
            Scheme::Counter => "monotonic counter",
            Scheme::TwoPhase => "two-phase (write-ahead)",
        }
    }
}

/// Result of a rollback brute-force campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollbackResult {
    /// Whether the PIN was recovered.
    pub found: bool,
    /// Total guesses issued.
    pub guesses: u32,
    /// Whether a stale-state rejection stopped the campaign.
    pub rejected: bool,
}

enum AnyScheme {
    Naive(NaiveContinuity),
    Counter(CounterContinuity),
    TwoPhase(TwoPhaseContinuity),
}

impl AnyScheme {
    fn save(&mut self, platform: &mut Platform, store: &mut UntrustedStore, state: &[u8]) -> bool {
        match self {
            AnyScheme::Naive(s) => {
                s.save(store, state);
                true
            }
            AnyScheme::Counter(s) => s.save(platform, store, state, CrashPoint::None),
            AnyScheme::TwoPhase(s) => s.save(platform, store, state, CrashPoint::None),
        }
    }

    fn load(
        &mut self,
        platform: &mut Platform,
        store: &UntrustedStore,
    ) -> Result<Vec<u8>, ContinuityError> {
        match self {
            AnyScheme::Naive(s) => s.load(store),
            AnyScheme::Counter(s) => s.load(platform, store),
            AnyScheme::TwoPhase(s) => s.load(platform, store),
        }
    }
}

fn make_scheme(scheme: Scheme, key: ModuleKey, platform: &mut Platform) -> AnyScheme {
    match scheme {
        Scheme::Naive => AnyScheme::Naive(NaiveContinuity::new(key, 0)),
        Scheme::Counter => {
            let c = platform.alloc_counter();
            AnyScheme::Counter(CounterContinuity::new(key, c, 0))
        }
        Scheme::TwoPhase => {
            let c = platform.alloc_counter();
            AnyScheme::TwoPhase(TwoPhaseContinuity::new(key, c, 0, 1))
        }
    }
}

/// Mounts the rollback brute force: the attacker snapshots the freshly
/// initialized store, then replays it whenever the lockout approaches,
/// trying every PIN in `0..space`.
pub fn rollback_brute_force(scheme: Scheme, pin: u32, space: u32) -> RollbackResult {
    let mut platform = Platform::new([0x31; 32]);
    let key = ModuleKey([0x99; 32]);
    let mut store = UntrustedStore::new();
    let mut module = make_scheme(scheme, key, &mut platform);

    // Module initializes and seals its fresh state.
    let vault = PinVault::new(pin);
    assert!(module.save(&mut platform, &mut store, &vault.to_bytes()));
    let fresh_snapshot = store.snapshot(); // attacker keeps this

    let mut guesses = 0u32;
    for candidate in 0..space {
        // Each "epoch": the attacker rolls storage back to the fresh
        // snapshot, restarts the module, and burns one guess.
        store.restore(fresh_snapshot.clone());
        let state = match module.load(&mut platform, &store) {
            Ok(bytes) => bytes,
            Err(_) => {
                // Stale state rejected: the rollback is dead.
                return RollbackResult {
                    found: false,
                    guesses,
                    rejected: true,
                };
            }
        };
        let mut vault = PinVault::from_bytes(&state).expect("well-formed state");
        guesses += 1;
        let result = vault.guess(candidate);
        if result != 0 {
            return RollbackResult {
                found: true,
                guesses,
                rejected: false,
            };
        }
        // Module seals the decremented state back (which the attacker
        // will promptly discard).
        assert!(module.save(&mut platform, &mut store, &vault.to_bytes()));
    }
    RollbackResult {
        found: false,
        guesses,
        rejected: false,
    }
}

/// Result of crash-recovery (liveness) probing for one scheme.
#[derive(Debug, Clone)]
pub struct LivenessResult {
    /// (crash point, recovered?, recovered state is old or new).
    pub outcomes: Vec<(CrashPoint, bool, String)>,
}

/// Injects a crash at each protocol point during a save of `v2` (over
/// an existing `v1`) and attempts recovery.
pub fn liveness(scheme: Scheme) -> LivenessResult {
    let mut outcomes = Vec::new();
    let points: &[CrashPoint] = match scheme {
        Scheme::Naive => &[CrashPoint::BeforeStore],
        Scheme::Counter => &[CrashPoint::BeforeStore, CrashPoint::AfterBump],
        Scheme::TwoPhase => &[CrashPoint::BeforeStore, CrashPoint::AfterStore],
    };
    for &point in points {
        let mut platform = Platform::new([0x32; 32]);
        let key = ModuleKey([0x98; 32]);
        let mut store = UntrustedStore::new();
        let v1 = PinVault::new(7).to_bytes();
        let mut v2vault = PinVault::new(7);
        v2vault.tries_left = 1;
        let v2 = v2vault.to_bytes();
        let recovered = match make_scheme(scheme, key, &mut platform) {
            AnyScheme::Naive(mut s) => {
                s.save(&mut store, &v1);
                if point == CrashPoint::None {
                    s.save(&mut store, &v2);
                }
                s.load(&store).ok()
            }
            AnyScheme::Counter(mut s) => {
                assert!(s.save(&mut platform, &mut store, &v1, CrashPoint::None));
                let _completed = s.save(&mut platform, &mut store, &v2, point);
                s.load(&platform, &store).ok()
            }
            AnyScheme::TwoPhase(mut s) => {
                assert!(s.save(&mut platform, &mut store, &v1, CrashPoint::None));
                let _completed = s.save(&mut platform, &mut store, &v2, point);
                s.load(&mut platform, &store).ok()
            }
        };
        let description = match &recovered {
            None => "BRICKED".to_string(),
            Some(bytes) if *bytes == v1 => "recovered old state".to_string(),
            Some(bytes) if *bytes == v2 => "recovered new state".to_string(),
            Some(_) => "recovered unknown state".to_string(),
        };
        outcomes.push((point, recovered.is_some(), description));
    }
    LivenessResult { outcomes }
}

/// One row of the E11c tamper-classification probe.
#[derive(Debug, Clone)]
pub struct TamperResult {
    /// What the attacker did to storage.
    pub action: &'static str,
    /// How `load` classified it.
    pub verdict: String,
}

/// Probes how the two-phase scheme classifies storage tampering.
///
/// Corruption must be distinguishable from rollback — they are
/// different attacks (and the benign disk fault is a third cause), so
/// an operator reacting to the error needs the right one. This guards
/// the regression where corrupt blobs were reported as
/// `Stale { found: 0 }`, indistinguishable from deleted storage.
pub fn tamper_classification() -> Vec<TamperResult> {
    let setup = || {
        let mut platform = Platform::new([0x33; 32]);
        let key = ModuleKey([0x97; 32]);
        let c = platform.alloc_counter();
        let mut scheme = TwoPhaseContinuity::new(key, c, 0, 1);
        let mut store = UntrustedStore::new();
        // Two completed saves: sequence 2 (current) sits in slot 0,
        // sequence 1 (stale) in slot 1.
        assert!(scheme.save(&mut platform, &mut store, b"v1", CrashPoint::None));
        assert!(scheme.save(&mut platform, &mut store, b"v2", CrashPoint::None));
        (platform, scheme, store)
    };
    let verdict = |r: Result<Vec<u8>, ContinuityError>| match r {
        Ok(state) => {
            assert_eq!(state, b"v2");
            "recovered current state".to_string()
        }
        Err(e) => format!("rejected: {e}"),
    };
    let probe = |action, slots: &[u32]| {
        let (mut platform, scheme, mut store) = setup();
        for &slot in slots {
            if slot == u32::MAX {
                store.restore(UntrustedStore::new());
            } else {
                assert!(store.flip_bit(slot, 17, 2).is_some());
            }
        }
        TamperResult {
            action,
            verdict: verdict(scheme.load(&mut platform, &store)),
        }
    };
    vec![
        probe("none", &[]),
        probe("bit flip in stale blob (slot B)", &[1]),
        probe("bit flip in current blob (slot A)", &[0]),
        probe("bit flips in both blobs", &[0, 1]),
        probe("storage deleted", &[u32::MAX]),
    ]
}

/// Full E11 results.
#[derive(Debug, Clone)]
pub struct ContinuityReport {
    /// Rollback brute force per scheme.
    pub rollback: Vec<(Scheme, RollbackResult)>,
    /// Liveness per scheme.
    pub liveness: Vec<(Scheme, LivenessResult)>,
    /// Tamper classification of the two-phase scheme.
    pub tamper: Vec<TamperResult>,
}

/// E11 under the campaign API.
pub struct ContinuityExperiment;

impl Experiment for ContinuityExperiment {
    type Cell = ContinuityReport;
    type Output = ContinuityReport;

    fn id(&self) -> ExperimentId {
        ExperimentId::new(11)
    }

    fn title(&self) -> &'static str {
        "State continuity and rollback"
    }

    /// Runs the E11 experiment.
    fn run_cell(
        &self,
        _cfg: &CampaignConfig,
        _ctx: &CampaignCtx,
        _cell: usize,
    ) -> ContinuityReport {
        let pin = 73;
        let space = 100;
        let rollback = Scheme::ALL
            .iter()
            .map(|&s| (s, rollback_brute_force(s, pin, space)))
            .collect();
        let liveness = Scheme::ALL.iter().map(|&s| (s, liveness(s))).collect();
        ContinuityReport {
            rollback,
            liveness,
            tamper: tamper_classification(),
        }
    }

    fn assemble(&self, _cfg: &CampaignConfig, cells: Vec<ContinuityReport>) -> ContinuityReport {
        only_cell(cells)
    }

    fn tables(&self, report: &ContinuityReport) -> Vec<Table> {
        let mut rb = Table::new(
            "E11a: rollback brute force against the PIN vault",
            &["scheme", "PIN recovered", "guesses", "stopped by freshness"],
        );
        for (s, r) in &report.rollback {
            rb.row(vec![
                s.label().to_string(),
                r.found.to_string(),
                r.guesses.to_string(),
                r.rejected.to_string(),
            ]);
        }
        let mut lv = Table::new(
            "E11b: crash injection during save (liveness)",
            &["scheme", "crash point", "recovery"],
        );
        for (s, l) in &report.liveness {
            for (point, _, desc) in &l.outcomes {
                lv.row(vec![
                    s.label().to_string(),
                    format!("{point:?}"),
                    desc.clone(),
                ]);
            }
        }
        let mut tp = Table::new(
            "E11c: tamper classification (two-phase scheme)",
            &["storage tampering", "load verdict"],
        );
        for t in &report.tamper {
            tp.row(vec![t.action.to_string(), t.verdict.clone()]);
        }
        vec![rb, lv, tp]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> ContinuityReport {
        ContinuityExperiment.run(&CampaignConfig::default())
    }

    #[test]
    fn vault_roundtrips() {
        let v = PinVault::new(1234);
        assert_eq!(PinVault::from_bytes(&v.to_bytes()), Some(v));
        assert_eq!(PinVault::from_bytes(&[0; 3]), None);
    }

    #[test]
    fn vault_lockout_logic_matches_figure2() {
        let mut v = PinVault::new(1234);
        assert_eq!(v.guess(1), 0);
        assert_eq!(v.guess(2), 0);
        assert_eq!(v.guess(3), 0);
        assert_eq!(v.guess(1234), 0, "locked out");
        let mut v2 = PinVault::new(1234);
        assert_eq!(v2.guess(1234), 666);
        assert_eq!(v2.tries_left, 3);
    }

    #[test]
    fn rollback_breaks_naive_sealing() {
        let r = rollback_brute_force(Scheme::Naive, 73, 100);
        assert!(r.found);
        assert_eq!(r.guesses, 74);
    }

    #[test]
    fn counters_stop_the_rollback() {
        for scheme in [Scheme::Counter, Scheme::TwoPhase] {
            let r = rollback_brute_force(scheme, 73, 100);
            assert!(!r.found, "{scheme:?}");
            assert!(r.rejected, "{scheme:?}");
            // The very first "replay" restores a store identical to the
            // live one, so it still loads; every later replay is stale.
            // The attacker gets at most one guess out of the rollback.
            assert!(r.guesses <= 1, "{scheme:?}: {}", r.guesses);
        }
    }

    #[test]
    fn counter_scheme_bricks_on_crash_after_bump() {
        let l = liveness(Scheme::Counter);
        let after_bump = l
            .outcomes
            .iter()
            .find(|(p, _, _)| *p == CrashPoint::AfterBump)
            .expect("probed");
        assert!(!after_bump.1, "counter scheme must brick: {:?}", after_bump);
    }

    #[test]
    fn two_phase_recovers_from_every_crash_point() {
        let l = liveness(Scheme::TwoPhase);
        for (point, recovered, desc) in &l.outcomes {
            assert!(recovered, "two-phase bricked at {point:?}: {desc}");
            assert!(
                desc.contains("old") || desc.contains("new"),
                "atomicity violated at {point:?}: {desc}"
            );
        }
    }

    #[test]
    fn report_tables_render() {
        let tables = ContinuityExperiment.tables(&run());
        assert_eq!(tables.len(), 3);
        assert!(tables[0].to_string().contains("naive sealing"));
        assert!(tables[1].to_string().contains("BRICKED"));
        assert!(tables[2].to_string().contains("tamper"));
    }

    #[test]
    fn tampering_is_classified_not_conflated_with_rollback() {
        let rows = tamper_classification();
        let verdict = |action: &str| {
            &rows
                .iter()
                .find(|r| r.action == action)
                .unwrap_or_else(|| panic!("no probe {action:?}"))
                .verdict
        };
        assert_eq!(verdict("none"), "recovered current state");
        // Losing only the stale blob costs nothing.
        assert_eq!(
            verdict("bit flip in stale blob (slot B)"),
            "recovered current state"
        );
        // Losing the current blob leaves a genuinely stale survivor.
        assert!(verdict("bit flip in current blob (slot A)").contains("stale"));
        // All-blob tampering is corruption, not rollback…
        assert!(verdict("bit flips in both blobs").contains("authentication"));
        // …while deletion is (freshness-wise) a rollback to nothing.
        assert!(verdict("storage deleted").contains("stale"));
    }
}
