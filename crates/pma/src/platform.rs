//! The platform model: master key, module measurement, key derivation,
//! module loading, and simulated non-volatile counters.
//!
//! This is the "hardware" of a Protected Module Architecture in the
//! sense of Sancus / Intel SGX: a master key that never leaves the
//! platform, a measurement (hash) taken of each module's code as it is
//! loaded, and a per-module key derived from both. Software — including
//! the operating system — cannot read the master key; it can only ask
//! the platform to load modules and, per §IV-C, *may tamper with the
//! module image before loading*. Attestation exists to catch exactly
//! that.

use swsec_crypto::hmac::hkdf_sha256;
use swsec_crypto::sha256::Sha256;
use swsec_vm::cpu::Machine;
use swsec_vm::mem::Perm;
use swsec_vm::policy::{ProtectionMap, ReentryPolicy};

use crate::module::ModuleImage;

/// A module measurement: the SHA-256 of its code segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub [u8; 32]);

impl Measurement {
    /// Measures an image's code segment.
    pub fn of(image: &ModuleImage) -> Measurement {
        Measurement(Sha256::digest(image.code()))
    }
}

/// A module-private key, derived from the platform master key and the
/// module's measurement. Two platforms (different master keys) or two
/// module versions (different measurements) get different keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleKey(pub [u8; 32]);

/// Identifier of a non-volatile monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(usize);

/// Errors from platform operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformError {
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PlatformError {}

/// A module as loaded by the platform: placement plus derived identity.
#[derive(Debug, Clone)]
pub struct LoadedModule {
    /// The measurement taken at load time (of the bytes actually
    /// loaded, tampering included).
    pub measurement: Measurement,
    /// The key the platform derived for this module.
    pub key: ModuleKey,
    /// Code range start.
    pub code_base: u32,
    /// Code length in bytes.
    pub code_len: u32,
    /// Data range start.
    pub data_base: u32,
    /// Entry points (absolute addresses).
    pub entries: Vec<u32>,
    /// Export names parallel to `entries`.
    pub exports: Vec<String>,
}

impl LoadedModule {
    /// Absolute address of the export named `name`.
    ///
    /// # Errors
    ///
    /// Returns a [`PlatformError`] naming the export if absent.
    pub fn export(&self, name: &str) -> Result<u32, PlatformError> {
        self.exports
            .iter()
            .position(|e| e == name)
            .map(|i| self.entries[i])
            .ok_or_else(|| PlatformError {
                message: format!("module has no export `{name}`"),
            })
    }
}

/// The trusted platform: master key, measurement logic and NVRAM.
///
/// # Examples
///
/// ```
/// use swsec_pma::platform::Platform;
///
/// let platform = Platform::new([7u8; 32]);
/// let counter = { let mut p = platform; p.alloc_counter() };
/// # let _ = counter;
/// ```
#[derive(Debug)]
pub struct Platform {
    master_key: [u8; 32],
    counters: Vec<u64>,
}

impl Platform {
    /// Creates a platform with the given master key (burned in at
    /// manufacturing time; in reality derived from a PUF or fuses).
    pub fn new(master_key: [u8; 32]) -> Platform {
        Platform {
            master_key,
            counters: Vec::new(),
        }
    }

    /// Derives the module key for a given measurement. Only the platform
    /// can do this — the derivation consumes the master key.
    pub fn derive_key(&self, measurement: Measurement) -> ModuleKey {
        let okm = hkdf_sha256(
            b"swsec-pma-module-key",
            &self.master_key,
            &measurement.0,
            32,
        );
        ModuleKey(okm.try_into().expect("fixed length"))
    }

    /// Loads `image` into `machine` as a protected module: maps its
    /// segments, installs (or extends) the machine's protection map,
    /// measures the code and derives the module key.
    ///
    /// `reentry` selects how strictly returns into the module are
    /// policed (see [`ReentryPolicy`]).
    ///
    /// # Errors
    ///
    /// Returns a [`PlatformError`] when the image overlaps existing
    /// mappings.
    pub fn load_module(
        &mut self,
        machine: &mut Machine,
        image: &ModuleImage,
        reentry: ReentryPolicy,
    ) -> Result<LoadedModule, PlatformError> {
        let map_err = |e: swsec_vm::mem::MapError| PlatformError {
            message: format!("module load failed: {e}"),
        };
        let poke_err = |e: swsec_vm::mem::MemError| PlatformError {
            message: format!("module load failed: {e}"),
        };
        machine
            .mem_mut()
            .map(
                image.code_base(),
                image.code().len().max(1) as u32,
                Perm::RX,
            )
            .map_err(map_err)?;
        machine
            .mem_mut()
            .poke_bytes(image.code_base(), image.code())
            .map_err(poke_err)?;
        machine
            .mem_mut()
            .map(
                image.data_base(),
                image.data().len().max(1) as u32,
                Perm::RW,
            )
            .map_err(map_err)?;
        machine
            .mem_mut()
            .poke_bytes(image.data_base(), image.data())
            .map_err(poke_err)?;

        // Extend the machine's protection map with this module.
        let mut regions = machine
            .protection()
            .map(|p| p.regions().to_vec())
            .unwrap_or_default();
        regions.push(image.region());
        machine.set_protection(Some(ProtectionMap::new(regions).with_reentry(reentry)));

        let measurement = Measurement::of(image);
        let key = self.derive_key(measurement);
        Ok(LoadedModule {
            measurement,
            key,
            code_base: image.code_base(),
            code_len: image.code().len() as u32,
            data_base: image.data_base(),
            entries: image
                .entry_offsets()
                .iter()
                .map(|&o| image.code_base() + o)
                .collect(),
            exports: image.exports().to_vec(),
        })
    }

    /// Allocates a fresh non-volatile monotonic counter, initialized to
    /// zero.
    pub fn alloc_counter(&mut self) -> CounterId {
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Reads a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Increments a counter and returns the new value. Monotonic: there
    /// is no API to decrease or reset it.
    pub fn bump_counter(&mut self, id: CounterId) -> u64 {
        self.counters[id.0] += 1;
        self.counters[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleImage;

    fn tiny_image() -> ModuleImage {
        ModuleImage::from_raw(
            vec![0x22; 16], // sixteen `ret` bytes
            vec![0u8; 8],
            0x0a00_0000,
            0x0a10_0000,
            vec![0],
        )
    }

    #[test]
    fn same_code_same_key_across_loads() {
        let mut platform = Platform::new([1u8; 32]);
        let image = tiny_image();
        let mut m1 = Machine::new();
        let mut m2 = Machine::new();
        let a = platform
            .load_module(&mut m1, &image, ReentryPolicy::EntryPointsOnly)
            .unwrap();
        let b = platform
            .load_module(&mut m2, &image, ReentryPolicy::EntryPointsOnly)
            .unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.measurement, b.measurement);
    }

    #[test]
    fn tampered_code_derives_a_different_key() {
        let mut platform = Platform::new([1u8; 32]);
        let image = tiny_image();
        let mut tampered = image.clone();
        tampered.tamper_code_bit(3, 1);
        let mut m1 = Machine::new();
        let mut m2 = Machine::new();
        let honest = platform
            .load_module(&mut m1, &image, ReentryPolicy::EntryPointsOnly)
            .unwrap();
        let evil = platform
            .load_module(&mut m2, &tampered, ReentryPolicy::EntryPointsOnly)
            .unwrap();
        assert_ne!(honest.key, evil.key);
        assert_ne!(honest.measurement, evil.measurement);
    }

    #[test]
    fn different_platforms_derive_different_keys() {
        let p1 = Platform::new([1u8; 32]);
        let p2 = Platform::new([2u8; 32]);
        let m = Measurement(Sha256::digest(b"module"));
        assert_ne!(p1.derive_key(m), p2.derive_key(m));
    }

    #[test]
    fn loading_installs_protection() {
        let mut platform = Platform::new([0u8; 32]);
        let image = tiny_image();
        let mut m = Machine::new();
        platform
            .load_module(&mut m, &image, ReentryPolicy::EntryPointsOnly)
            .unwrap();
        let pma = m.protection().expect("protection installed");
        assert_eq!(pma.regions().len(), 1);
        assert!(!pma.data_access_allowed(0x1000, 0x0a10_0000));
    }

    #[test]
    fn counters_are_monotonic() {
        let mut platform = Platform::new([0u8; 32]);
        let c = platform.alloc_counter();
        assert_eq!(platform.counter(c), 0);
        assert_eq!(platform.bump_counter(c), 1);
        assert_eq!(platform.bump_counter(c), 2);
        assert_eq!(platform.counter(c), 2);
    }

    #[test]
    fn exports_resolve() {
        let mut platform = Platform::new([0u8; 32]);
        let image = tiny_image();
        let mut m = Machine::new();
        let loaded = platform
            .load_module(&mut m, &image, ReentryPolicy::EntryPointsOnly)
            .unwrap();
        assert_eq!(loaded.export("entry0").unwrap(), 0x0a00_0000);
        assert!(loaded.export("absent").is_err());
    }
}
