//! The ChaCha20 stream cipher (RFC 8439), used as the confidentiality
//! half of sealed storage.
//!
//! # Examples
//!
//! ```
//! use swsec_crypto::stream::ChaCha20;
//!
//! let key = [7u8; 32];
//! let nonce = [1u8; 12];
//! let mut data = *b"protected module state";
//! ChaCha20::new(&key, &nonce, 0).apply(&mut data);
//! assert_ne!(&data, b"protected module state");
//! ChaCha20::new(&key, &nonce, 0).apply(&mut data);
//! assert_eq!(&data, b"protected module state");
//! ```

/// Key size in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce size in bytes.
pub const NONCE_LEN: usize = 12;

/// A ChaCha20 keystream generator / XOR cipher.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
}

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Creates a cipher for the given key, nonce and initial block
    /// counter.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> ChaCha20 {
        let mut state = [0u32; 16];
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..8 {
            state[4 + i] =
                u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes([
                nonce[i * 4],
                nonce[i * 4 + 1],
                nonce[i * 4 + 2],
                nonce[i * 4 + 3],
            ]);
        }
        ChaCha20 { state }
    }

    /// Produces the next 64-byte keystream block and advances the
    /// counter.
    pub fn next_block(&mut self) -> [u8; 64] {
        let mut working = self.state;
        for _ in 0..10 {
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(self.state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        self.state[12] = self.state[12].wrapping_add(1);
        out
    }

    /// XORs the keystream into `data` in place (encryption and
    /// decryption are the same operation).
    pub fn apply(&mut self, data: &mut [u8]) {
        for chunk in data.chunks_mut(64) {
            let block = self.next_block();
            for (b, k) in chunk.iter_mut().zip(block.iter()) {
                *b ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    #[test]
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut cipher = ChaCha20::new(&key, &nonce, 1);
        let block = cipher.next_block();
        assert_eq!(
            to_hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = *b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        ChaCha20::new(&key, &nonce, 1).apply(&mut data);
        assert_eq!(to_hex(&data[..16]), "6e2e359a2568f98041ba0728dd0d6981");
        assert_eq!(to_hex(&data[112..]), "87 4d".replace(' ', ""));
    }

    #[test]
    fn apply_twice_is_identity() {
        let key = [0x42u8; 32];
        let nonce = [9u8; 12];
        let original: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        let mut data = original.clone();
        ChaCha20::new(&key, &nonce, 7).apply(&mut data);
        assert_ne!(data, original);
        ChaCha20::new(&key, &nonce, 7).apply(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_nonces_give_different_streams() {
        let key = [1u8; 32];
        let mut a = ChaCha20::new(&key, &[0u8; 12], 0).next_block();
        let b = ChaCha20::new(&key, &[1u8; 12], 0).next_block();
        assert_ne!(a, b);
        // Counter advances between blocks.
        let mut c = ChaCha20::new(&key, &[0u8; 12], 0);
        a = c.next_block();
        assert_ne!(a, c.next_block());
    }
}
