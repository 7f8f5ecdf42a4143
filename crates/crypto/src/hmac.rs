//! HMAC-SHA256 (RFC 2104), the MAC used for attestation reports and
//! sealed-blob authentication, plus an HKDF-style key-derivation
//! function used to derive module-private keys from the platform master
//! key and a code measurement.
//!
//! # Examples
//!
//! ```
//! use swsec_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"message");
//! assert_eq!(tag.len(), 32);
//! ```

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA256(key, data)`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let digest = Sha256::digest(key);
        key_block[..DIGEST_LEN].copy_from_slice(&digest);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK_LEN];
    let mut opad = [0x5cu8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(data);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Derives a key of `len` bytes (≤ 8160) from input keying material,
/// following HKDF (RFC 5869) with SHA-256.
///
/// * `salt` — optional non-secret randomizer (empty is allowed);
/// * `ikm` — the input keying material;
/// * `info` — context string binding the key to its purpose, e.g. a
///   module measurement.
///
/// # Panics
///
/// Panics if `len` exceeds `255 * 32` bytes, per RFC 5869.
pub fn hkdf_sha256(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_LEN, "HKDF output too long");
    let prk = hmac_sha256(salt, ikm);
    let mut okm = Vec::with_capacity(len);
    let mut previous: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while okm.len() < len {
        let mut block_input = previous.clone();
        block_input.extend_from_slice(info);
        block_input.push(counter);
        let block = hmac_sha256(&prk, &block_input);
        previous = block.to_vec();
        okm.extend_from_slice(&block);
        counter += 1;
    }
    okm.truncate(len);
    okm
}

/// Constant-time byte-slice equality: the comparison time depends only
/// on the lengths, never on the contents, so MAC verification does not
/// leak how many prefix bytes matched.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_long_data() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn hkdf_rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00u8..=0x0c).collect();
        let info: Vec<u8> = (0xf0u8..=0xf9).collect();
        let okm = hkdf_sha256(&salt, &ikm, &info, 42);
        assert_eq!(
            to_hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn hkdf_different_info_different_keys() {
        let a = hkdf_sha256(b"", b"master", b"module-A", 32);
        let b = hkdf_sha256(b"", b"master", b"module-B", 32);
        assert_ne!(a, b);
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sane"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    #[should_panic(expected = "HKDF output too long")]
    fn hkdf_rejects_oversized_output() {
        let _ = hkdf_sha256(b"", b"x", b"", 255 * 32 + 1);
    }
}
