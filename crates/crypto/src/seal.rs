//! Authenticated sealing of protected-module state.
//!
//! §IV-C of the paper: a protected module's persisted state "should be
//! confidentiality and integrity protected using cryptographic
//! mechanisms". [`seal`] produces `nonce ‖ ciphertext ‖ tag` using
//! ChaCha20 for confidentiality and HMAC-SHA256 over the associated
//! data, nonce and ciphertext for integrity (encrypt-then-MAC).
//!
//! Sealing alone does **not** prevent rollback — an attacker can replay
//! an older validly-sealed blob. Rollback protection is layered on top
//! in `swsec-pma::continuity`.
//!
//! # Examples
//!
//! ```
//! use swsec_crypto::seal::{seal, open};
//!
//! let key = [3u8; 32];
//! let blob = seal(&key, &[9u8; 12], b"module-id", b"tries_left=3");
//! let state = open(&key, b"module-id", &blob)?;
//! assert_eq!(state, b"tries_left=3");
//! # Ok::<(), swsec_crypto::seal::SealError>(())
//! ```

use std::fmt;

use crate::hmac::{ct_eq, hkdf_sha256, hmac_sha256};
use crate::stream::{ChaCha20, KEY_LEN, NONCE_LEN};

/// Length of the authentication tag in bytes.
pub const TAG_LEN: usize = 32;

/// Why a sealed blob failed to open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The blob is shorter than a nonce plus a tag.
    TooShort,
    /// The authentication tag did not verify (tampered blob, wrong key,
    /// or wrong associated data).
    BadTag,
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::TooShort => write!(f, "sealed blob too short"),
            SealError::BadTag => write!(f, "sealed blob failed authentication"),
        }
    }
}

impl std::error::Error for SealError {}

fn derive_keys(key: &[u8; KEY_LEN]) -> ([u8; KEY_LEN], [u8; KEY_LEN]) {
    let enc = hkdf_sha256(b"swsec-seal", key, b"enc", KEY_LEN);
    let mac = hkdf_sha256(b"swsec-seal", key, b"mac", KEY_LEN);
    (
        enc.try_into().expect("length fixed"),
        mac.try_into().expect("length fixed"),
    )
}

fn tag_input(aad: &[u8], nonce: &[u8], ciphertext: &[u8]) -> Vec<u8> {
    // Length-prefix the associated data so (aad, ct) pairs cannot be
    // reinterpreted by sliding bytes across the boundary.
    let mut input = Vec::with_capacity(8 + aad.len() + nonce.len() + ciphertext.len());
    input.extend_from_slice(&(aad.len() as u64).to_le_bytes());
    input.extend_from_slice(aad);
    input.extend_from_slice(nonce);
    input.extend_from_slice(ciphertext);
    input
}

/// Seals `plaintext` under `key`, binding it to `aad` (associated data
/// such as the module measurement). The caller supplies the `nonce`; a
/// nonce must never be reused with the same key and different plaintext.
pub fn seal(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let (enc_key, mac_key) = derive_keys(key);
    let mut ciphertext = plaintext.to_vec();
    ChaCha20::new(&enc_key, nonce, 1).apply(&mut ciphertext);
    let tag = hmac_sha256(&mac_key, &tag_input(aad, nonce, &ciphertext));
    let mut blob = Vec::with_capacity(NONCE_LEN + ciphertext.len() + TAG_LEN);
    blob.extend_from_slice(nonce);
    blob.extend_from_slice(&ciphertext);
    blob.extend_from_slice(&tag);
    blob
}

/// Opens a blob produced by [`seal`], verifying its tag in constant
/// time before decrypting.
///
/// # Errors
///
/// [`SealError::TooShort`] for malformed blobs and [`SealError::BadTag`]
/// when authentication fails.
pub fn open(key: &[u8; KEY_LEN], aad: &[u8], blob: &[u8]) -> Result<Vec<u8>, SealError> {
    if blob.len() < NONCE_LEN + TAG_LEN {
        return Err(SealError::TooShort);
    }
    let (enc_key, mac_key) = derive_keys(key);
    let nonce: [u8; NONCE_LEN] = blob[..NONCE_LEN].try_into().expect("length checked");
    let ciphertext = &blob[NONCE_LEN..blob.len() - TAG_LEN];
    let tag = &blob[blob.len() - TAG_LEN..];
    let expected = hmac_sha256(&mac_key, &tag_input(aad, &nonce, ciphertext));
    if !ct_eq(&expected, tag) {
        return Err(SealError::BadTag);
    }
    let mut plaintext = ciphertext.to_vec();
    ChaCha20::new(&enc_key, &nonce, 1).apply(&mut plaintext);
    Ok(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_rng::{stream, Rng};

    const KEY: [u8; 32] = [0x11; 32];
    const NONCE: [u8; 12] = [0x22; 12];

    #[test]
    fn roundtrip() {
        let blob = seal(&KEY, &NONCE, b"aad", b"secret state");
        assert_eq!(open(&KEY, b"aad", &blob).unwrap(), b"secret state");
    }

    #[test]
    fn empty_plaintext_roundtrips() {
        let blob = seal(&KEY, &NONCE, b"", b"");
        assert_eq!(open(&KEY, b"", &blob).unwrap(), b"");
    }

    #[test]
    fn any_bit_flip_is_detected() {
        // The first nonce byte, the first ciphertext byte and the last
        // tag byte of a fixed blob, then seeded keys, nonces, aads,
        // plaintexts and flip positions; case `n` draws from
        // `stream(SEED, &[n])`.
        const SEED: u64 = 0x5EA1_0001;
        let blob = seal(&KEY, &NONCE, b"aad", b"secret state");
        for idx in [0, NONCE_LEN, blob.len() - 1] {
            let mut tampered = blob.clone();
            tampered[idx] ^= 1;
            assert_eq!(
                open(&KEY, b"aad", &tampered),
                Err(SealError::BadTag),
                "byte {idx}"
            );
        }
        for case in 0..32 {
            let mut rng = stream(SEED, &[case]);
            let (mut key, mut nonce) = ([0u8; KEY_LEN], [0u8; NONCE_LEN]);
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut nonce);
            let mut aad = vec![0u8; rng.gen_range(16) as usize];
            rng.fill_bytes(&mut aad);
            let mut plaintext = vec![0u8; rng.gen_range(64) as usize];
            rng.fill_bytes(&mut plaintext);
            let what = format!("seed {SEED:#x} case {case}: aad {aad:?}, plaintext {plaintext:?}");
            let blob = seal(&key, &nonce, &aad, &plaintext);
            assert_eq!(open(&key, &aad, &blob).as_ref(), Ok(&plaintext), "{what}");
            let (idx, bit) = (rng.gen_range(blob.len() as u64) as usize, rng.gen_range(8));
            let mut tampered = blob;
            tampered[idx] ^= 1 << bit;
            assert_eq!(
                open(&key, &aad, &tampered),
                Err(SealError::BadTag),
                "{what}, bit {bit} of byte {idx}"
            );
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let blob = seal(&KEY, &NONCE, b"aad", b"secret state");
        let other = [0x12u8; 32];
        assert_eq!(open(&other, b"aad", &blob), Err(SealError::BadTag));
    }

    #[test]
    fn wrong_aad_rejected() {
        let blob = seal(&KEY, &NONCE, b"module-A", b"secret state");
        assert_eq!(open(&KEY, b"module-B", &blob), Err(SealError::BadTag));
    }

    #[test]
    fn short_blob_rejected() {
        assert_eq!(open(&KEY, b"", &[0u8; 10]), Err(SealError::TooShort));
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let blob = seal(&KEY, &NONCE, b"", b"PIN=1234");
        let body = &blob[NONCE_LEN..blob.len() - TAG_LEN];
        assert_ne!(body, b"PIN=1234");
    }

    #[test]
    fn replay_of_old_blob_still_opens() {
        // Sealing alone does NOT stop rollback: an old blob remains
        // valid. This is the gap that swsec-pma::continuity closes.
        let old = seal(&KEY, &NONCE, b"aad", b"tries_left=3");
        let newer = seal(&KEY, &[0x23; 12], b"aad", b"tries_left=1");
        assert!(open(&KEY, b"aad", &newer).is_ok());
        assert_eq!(open(&KEY, b"aad", &old).unwrap(), b"tries_left=3");
    }
}
