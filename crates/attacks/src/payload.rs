//! Attack payload construction.
//!
//! An I/O-attacker payload is just bytes, but bytes with structure: a
//! filler region that soaks up the buffer, then carefully placed words
//! that land on the saved base pointer, the saved return address, or
//! other targets. [`Payload`] is a small builder for that structure,
//! and [`Payload::smash`] computes the offsets from a compiled
//! function's [`FrameLayout`] so experiments never hard-code distances.

use swsec_minc::FrameLayout;

/// Byte-payload builder.
///
/// # Examples
///
/// ```
/// use swsec_attacks::payload::Payload;
///
/// let bytes = Payload::new()
///     .pad(16, b'A')
///     .word(0xdead_beef)
///     .build();
/// assert_eq!(bytes.len(), 20);
/// assert_eq!(&bytes[16..], &0xdead_beefu32.to_le_bytes());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Payload {
    bytes: Vec<u8>,
}

impl Payload {
    /// Starts an empty payload.
    pub fn new() -> Payload {
        Payload::default()
    }

    /// Appends `n` copies of `fill`.
    pub fn pad(mut self, n: usize, fill: u8) -> Payload {
        self.bytes.extend(std::iter::repeat_n(fill, n));
        self
    }

    /// Appends raw bytes.
    pub fn bytes(mut self, data: &[u8]) -> Payload {
        self.bytes.extend_from_slice(data);
        self
    }

    /// Appends a little-endian 32-bit word (an address, typically).
    pub fn word(mut self, w: u32) -> Payload {
        self.bytes.extend_from_slice(&w.to_le_bytes());
        self
    }

    /// Appends `n` copies of a little-endian word (a ROP sled or
    /// repeated guess).
    pub fn repeat_word(mut self, w: u32, n: usize) -> Payload {
        for _ in 0..n {
            self.bytes.extend_from_slice(&w.to_le_bytes());
        }
        self
    }

    /// Pads with `fill` until the payload is exactly `len` bytes long.
    ///
    /// # Panics
    ///
    /// Panics if the payload is already longer than `len`.
    pub fn pad_to(mut self, len: usize, fill: u8) -> Payload {
        assert!(
            self.bytes.len() <= len,
            "payload already {} bytes, cannot pad to {len}",
            self.bytes.len()
        );
        while self.bytes.len() < len {
            self.bytes.push(fill);
        }
        self
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Finalizes the payload.
    pub fn build(self) -> Vec<u8> {
        self.bytes
    }

    /// Builds a classic stack-smash for an overflow of the local array
    /// `buf_name` in a function with layout `frame`: filler up to the
    /// saved base pointer, a plausible saved-bp word, then `new_ret`
    /// replacing the saved return address.
    ///
    /// Returns `None` if `buf_name` is not a local of that frame.
    pub fn smash(frame: &FrameLayout, buf_name: &str, new_ret: u32) -> Option<Payload> {
        let slot = frame
            .locals
            .iter()
            .find(|(name, _)| name == buf_name)
            .map(|(_, slot)| slot)?;
        // Buffer start is at bp+offset (offset < 0); the saved bp sits at
        // bp+0 and the return address at bp+4.
        let to_saved_bp = (-slot.offset) as usize;
        Some(
            Payload::new()
                .pad(to_saved_bp, b'A')
                .word(0xbfff_0000) // plausible (but junk) saved bp
                .word(new_ret),
        )
    }

    /// Like [`Payload::smash`], but also embeds `shellcode` at the start
    /// of the buffer and points the return address back *into the
    /// buffer* — direct code injection. `buf_addr` is the run-time
    /// address of the buffer (known, guessed, or leaked).
    pub fn smash_with_shellcode(
        frame: &FrameLayout,
        buf_name: &str,
        buf_addr: u32,
        shellcode: &[u8],
    ) -> Option<Payload> {
        let slot = frame
            .locals
            .iter()
            .find(|(name, _)| name == buf_name)
            .map(|(_, slot)| slot)?;
        let to_saved_bp = (-slot.offset) as usize;
        if shellcode.len() > to_saved_bp {
            return None; // shellcode must fit below the saved registers
        }
        Some(
            Payload::new()
                .bytes(shellcode)
                .pad(to_saved_bp - shellcode.len(), b'A')
                .word(0xbfff_0000)
                .word(buf_addr),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_minc::{compile, parse, CompileOptions};

    fn vulnerable_frame() -> FrameLayout {
        let unit = parse(
            "void f(int fd) { char buf[16]; read(fd, buf, 64); }\n\
             void main() { f(0); }",
        )
        .unwrap();
        let prog = compile(&unit, &CompileOptions::default()).unwrap();
        prog.frames["f"].clone()
    }

    #[test]
    fn builder_concatenates_parts() {
        let p = Payload::new()
            .pad(2, 0x41)
            .word(0x01020304)
            .bytes(&[9])
            .build();
        assert_eq!(p, vec![0x41, 0x41, 0x04, 0x03, 0x02, 0x01, 9]);
    }

    #[test]
    fn pad_to_extends_exactly() {
        let p = Payload::new().bytes(&[1, 2]).pad_to(5, 0).build();
        assert_eq!(p, vec![1, 2, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "cannot pad")]
    fn pad_to_rejects_shrinking() {
        let _ = Payload::new().pad(8, 0).pad_to(4, 0);
    }

    #[test]
    fn smash_places_return_address_after_frame() {
        let frame = vulnerable_frame();
        let p = Payload::smash(&frame, "buf", 0xcafe_babe).unwrap().build();
        // 16 filler + 4 saved bp + 4 return address.
        assert_eq!(p.len(), 24);
        assert_eq!(&p[20..], &0xcafe_babeu32.to_le_bytes());
    }

    #[test]
    fn smash_unknown_buffer_is_none() {
        let frame = vulnerable_frame();
        assert!(Payload::smash(&frame, "nope", 0).is_none());
    }

    #[test]
    fn shellcode_payload_points_into_buffer() {
        let frame = vulnerable_frame();
        let code = vec![0x90; 6];
        let p = Payload::smash_with_shellcode(&frame, "buf", 0xbfff_ef00, &code)
            .unwrap()
            .build();
        assert_eq!(&p[..6], &code[..]);
        assert_eq!(&p[20..24], &0xbfff_ef00u32.to_le_bytes());
    }

    #[test]
    fn oversized_shellcode_rejected() {
        let frame = vulnerable_frame();
        let code = vec![0x90; 64];
        assert!(Payload::smash_with_shellcode(&frame, "buf", 0, &code).is_none());
    }

    #[test]
    fn repeat_word_builds_sleds() {
        let p = Payload::new().repeat_word(0x1111_2222, 3).build();
        assert_eq!(p.len(), 12);
        assert_eq!(&p[4..8], &0x1111_2222u32.to_le_bytes());
    }
}
