//! Protected-module memory access control (§IV-A of the paper).
//!
//! A *protected module* is a code range, a data range and a set of entry
//! points. The access-control model enforces exactly the three rules the
//! paper states:
//!
//! 1. when the instruction pointer is *outside* a module, memory inside
//!    that module can be neither read, written, nor fetched — except that
//! 2. control may *enter* the module by jumping to one of its designated
//!    entry points;
//! 3. when the instruction pointer is *inside* the module, its data may
//!    be read and written and its code executed (and read, for constants).
//!
//! The policy lives in the VM crate (rather than `swsec-pma`) because
//! the CPU must consult it on every access; the higher-level PMA crate
//! builds on these types to add attestation and sealed storage.
//!
//! # Examples
//!
//! ```
//! use swsec_vm::policy::{ProtectedRegion, ProtectionMap};
//!
//! let module = ProtectedRegion::new(0x2000..0x3000, 0x3000..0x4000, vec![0x2000]);
//! let map = ProtectionMap::new(vec![module]);
//! // Code outside the module may not read the module's data:
//! assert!(!map.data_access_allowed(0x9999, 0x3000));
//! // ... but the module itself may:
//! assert!(map.data_access_allowed(0x2004, 0x3000));
//! ```

use std::fmt;
use std::ops::Range;

/// How a control transfer reached the current instruction; used to apply
/// the entry-point rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Sequential fall-through from the previous instruction.
    Sequential,
    /// A direct or indirect jump.
    Jump,
    /// A call instruction.
    Call,
    /// A return instruction.
    Ret,
}

/// How strictly re-entry into a protected module is policed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReentryPolicy {
    /// Control may enter module code only at a designated entry point,
    /// regardless of the kind of transfer. This is the paper's rule as
    /// stated; securely compiled modules route even returns through a
    /// return-entry stub.
    #[default]
    EntryPointsOnly,
    /// Like `EntryPointsOnly`, but a `ret` instruction may additionally
    /// land anywhere in module code. This models relaxed architectures
    /// (and is what naive, insecurely compiled modules need in order to
    /// call out and be returned into).
    AllowReturns,
}

/// One protected module: a code range, a data range and its entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectedRegion {
    code: Range<u32>,
    data: Range<u32>,
    entries: Vec<u32>,
}

impl ProtectedRegion {
    /// Creates a region from its code range, data range and entry points.
    ///
    /// # Panics
    ///
    /// Panics if any entry point lies outside the code range — a
    /// mis-specified module would silently void the security argument.
    pub fn new(code: Range<u32>, data: Range<u32>, entries: Vec<u32>) -> ProtectedRegion {
        for &e in &entries {
            assert!(
                code.contains(&e),
                "entry point {e:#010x} outside module code {:#010x}..{:#010x}",
                code.start,
                code.end
            );
        }
        ProtectedRegion {
            code,
            data,
            entries,
        }
    }

    /// The module's code range.
    pub fn code(&self) -> Range<u32> {
        self.code.clone()
    }

    /// The module's data range.
    pub fn data(&self) -> Range<u32> {
        self.data.clone()
    }

    /// The module's entry points.
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Whether `addr` lies in this module's code or data.
    pub fn contains(&self, addr: u32) -> bool {
        self.code.contains(&addr) || self.data.contains(&addr)
    }

    /// Whether `addr` is one of the module's entry points.
    pub fn is_entry(&self, addr: u32) -> bool {
        self.entries.contains(&addr)
    }
}

impl fmt::Display for ProtectedRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "module(code {:#010x}..{:#010x}, data {:#010x}..{:#010x}, {} entries)",
            self.code.start,
            self.code.end,
            self.data.start,
            self.data.end,
            self.entries.len()
        )
    }
}

/// Why a protected-module access was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PmaViolationKind {
    /// Code outside the module tried to read or write module memory.
    OutsideDataAccess,
    /// Control tried to enter module code somewhere other than an entry
    /// point.
    BadEntry,
}

/// A refused protected-module access: which address, from which IP, and
/// why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PmaViolation {
    /// The address whose access was refused.
    pub addr: u32,
    /// The instruction pointer at the time of the access.
    pub ip: u32,
    /// The rule that was violated.
    pub kind: PmaViolationKind,
}

impl fmt::Display for PmaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            PmaViolationKind::OutsideDataAccess => write!(
                f,
                "code at {:#010x} accessed protected memory {:#010x} from outside the module",
                self.ip, self.addr
            ),
            PmaViolationKind::BadEntry => write!(
                f,
                "control entered protected code at {:#010x} (from {:#010x}) which is not an entry point",
                self.addr, self.ip
            ),
        }
    }
}

impl std::error::Error for PmaViolation {}

/// The machine-wide protection map: every loaded protected module plus
/// the re-entry policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtectionMap {
    regions: Vec<ProtectedRegion>,
    reentry: ReentryPolicy,
}

impl ProtectionMap {
    /// Creates a map over the given modules with the strict
    /// [`ReentryPolicy::EntryPointsOnly`] policy.
    pub fn new(regions: Vec<ProtectedRegion>) -> ProtectionMap {
        ProtectionMap {
            regions,
            reentry: ReentryPolicy::default(),
        }
    }

    /// Replaces the re-entry policy.
    pub fn with_reentry(mut self, reentry: ReentryPolicy) -> ProtectionMap {
        self.reentry = reentry;
        self
    }

    /// The configured re-entry policy.
    pub fn reentry(&self) -> ReentryPolicy {
        self.reentry
    }

    /// The protected regions in this map.
    pub fn regions(&self) -> &[ProtectedRegion] {
        &self.regions
    }

    /// Index of the module containing `addr` (code or data), if any.
    pub fn region_of(&self, addr: u32) -> Option<usize> {
        self.regions.iter().position(|r| r.contains(addr))
    }

    /// Index of the module whose *code* contains `ip`, if any.
    pub fn code_region_of(&self, ip: u32) -> Option<usize> {
        self.regions.iter().position(|r| r.code().contains(&ip))
    }

    /// Whether a data read/write of `addr` is allowed for code executing
    /// at `ip` (rule 1 and rule 3).
    pub fn data_access_allowed(&self, ip: u32, addr: u32) -> bool {
        match self.region_of(addr) {
            None => true,
            Some(idx) => self.code_region_of(ip) == Some(idx),
        }
    }

    /// Checks a data access, returning the violation on refusal.
    ///
    /// # Errors
    ///
    /// Returns [`PmaViolation`] with [`PmaViolationKind::OutsideDataAccess`]
    /// when `ip` lies outside the module owning `addr`.
    pub fn check_data(&self, ip: u32, addr: u32) -> Result<(), PmaViolation> {
        if self.data_access_allowed(ip, addr) {
            Ok(())
        } else {
            Err(PmaViolation {
                addr,
                ip,
                kind: PmaViolationKind::OutsideDataAccess,
            })
        }
    }

    /// Checks an instruction fetch at `new_ip`, given the previously
    /// executing instruction's address `prev_ip` and how control got here
    /// (rule 2, plus the prohibition on executing module *data*).
    ///
    /// # Errors
    ///
    /// Returns [`PmaViolation`] when the fetch would enter a module
    /// anywhere other than an entry point (subject to the re-entry
    /// policy), or when it targets a module's data range.
    pub fn check_fetch(
        &self,
        prev_ip: u32,
        new_ip: u32,
        kind: TransferKind,
    ) -> Result<(), PmaViolation> {
        // Executing a module's data range is never allowed, even from
        // inside (code/data separation within the module).
        if let Some(idx) = self.region_of(new_ip) {
            let region = &self.regions[idx];
            if region.data().contains(&new_ip) && !region.code().contains(&new_ip) {
                return Err(PmaViolation {
                    addr: new_ip,
                    ip: prev_ip,
                    kind: PmaViolationKind::BadEntry,
                });
            }
        }
        match self.code_region_of(new_ip) {
            None => Ok(()),
            Some(idx) => {
                let same = self.code_region_of(prev_ip) == Some(idx);
                if same {
                    return Ok(());
                }
                let region = &self.regions[idx];
                let entry_ok = region.is_entry(new_ip)
                    || (self.reentry == ReentryPolicy::AllowReturns && kind == TransferKind::Ret);
                if entry_ok {
                    Ok(())
                } else {
                    Err(PmaViolation {
                        addr: new_ip,
                        ip: prev_ip,
                        kind: PmaViolationKind::BadEntry,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_rng::{stream, Rng, Xoshiro256pp};

    fn one_module() -> ProtectionMap {
        ProtectionMap::new(vec![ProtectedRegion::new(
            0x2000..0x3000,
            0x3000..0x4000,
            vec![0x2000, 0x2100],
        )])
    }

    #[test]
    fn data_access_follows_the_rule_verbatim() {
        // Access is allowed iff the target is not in a module, or the IP
        // executes that module's code. Hand-picked points first: outside
        // code cannot touch module data, nor read its code; the module
        // touches its own data and code; anyone touches unprotected
        // memory, the module included. Then seeded points, mostly around
        // the module and on its boundaries; case `n` draws from
        // `stream(SEED, &[n])`.
        const SEED: u64 = 0x9A7A_0001;
        let point = |rng: &mut Xoshiro256pp| match rng.gen_range(4) {
            0 => rng.next_u32(),
            // A region boundary, or a byte either side of it.
            1 => (0x2000 + 0x1000 * rng.gen_range(3) as u32 + rng.gen_range(3) as u32) - 1,
            _ => 0x1800 + rng.gen_range(0x3000) as u32,
        };
        let pinned = [
            (0x9000, 0x3004),
            (0x9000, 0x2004),
            (0x2004, 0x3004),
            (0x2004, 0x2008),
            (0x9000, 0x8000),
            (0x2004, 0x8000),
        ];
        let seeded = (pinned.len() as u64..pinned.len() as u64 + 256).map(|case| {
            let mut rng = stream(SEED, &[case]);
            (point(&mut rng), point(&mut rng))
        });
        let map = one_module();
        for (case, (ip, addr)) in pinned.into_iter().chain(seeded).enumerate() {
            let allowed = !(0x2000..0x4000).contains(&addr) || (0x2000..0x3000).contains(&ip);
            assert_eq!(
                map.check_data(ip, addr).is_ok(),
                allowed,
                "seed {SEED:#x} case {case}: ip {ip:#x} addr {addr:#x}"
            );
        }
    }

    #[test]
    fn entry_only_at_entry_points() {
        let map = one_module();
        assert!(map.check_fetch(0x9000, 0x2000, TransferKind::Call).is_ok());
        assert!(map.check_fetch(0x9000, 0x2100, TransferKind::Jump).is_ok());
        let err = map
            .check_fetch(0x9000, 0x2050, TransferKind::Jump)
            .unwrap_err();
        assert_eq!(err.kind, PmaViolationKind::BadEntry);
    }

    #[test]
    fn internal_control_flow_is_unrestricted() {
        let map = one_module();
        assert!(map.check_fetch(0x2004, 0x2050, TransferKind::Jump).is_ok());
        assert!(map
            .check_fetch(0x2ffc, 0x2000, TransferKind::Sequential)
            .is_ok());
    }

    #[test]
    fn reentry_policy_gates_returns() {
        let strict = one_module();
        assert!(strict
            .check_fetch(0x9000, 0x2050, TransferKind::Ret)
            .is_err());
        let relaxed = one_module().with_reentry(ReentryPolicy::AllowReturns);
        assert!(relaxed
            .check_fetch(0x9000, 0x2050, TransferKind::Ret)
            .is_ok());
        // Jumps are still confined to entry points even when relaxed.
        assert!(relaxed
            .check_fetch(0x9000, 0x2050, TransferKind::Jump)
            .is_err());
    }

    #[test]
    fn module_data_is_never_executable() {
        let map = one_module().with_reentry(ReentryPolicy::AllowReturns);
        assert!(map.check_fetch(0x2004, 0x3004, TransferKind::Jump).is_err());
        assert!(map.check_fetch(0x9000, 0x3004, TransferKind::Ret).is_err());
    }

    #[test]
    #[should_panic(expected = "entry point")]
    fn entry_outside_code_panics() {
        let _ = ProtectedRegion::new(0x2000..0x3000, 0x3000..0x4000, vec![0x3000]);
    }

    #[test]
    fn multiple_modules_are_mutually_isolated() {
        let map = ProtectionMap::new(vec![
            ProtectedRegion::new(0x2000..0x3000, 0x3000..0x4000, vec![0x2000]),
            ProtectedRegion::new(0x5000..0x6000, 0x6000..0x7000, vec![0x5000]),
        ]);
        // Module A cannot read module B's data.
        assert!(map.check_data(0x2004, 0x6004).is_err());
        // Module A enters module B only via B's entry point.
        assert!(map.check_fetch(0x2004, 0x5000, TransferKind::Call).is_ok());
        assert!(map.check_fetch(0x2004, 0x5004, TransferKind::Call).is_err());
    }
}
