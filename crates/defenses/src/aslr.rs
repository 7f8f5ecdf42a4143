//! Address Space Layout Randomization (§III-C1).
//!
//! ASLR makes exploitation probabilistic: the attacker must guess where
//! things live. This module models the randomization itself (a page-
//! granular slide of each segment, with a configurable entropy) and the
//! arithmetic of defeating it by brute force, which experiment E4
//! validates empirically against the real loader.

use swsec_rng::Rng;

use swsec_minc::LayoutConfig;

/// ASLR configuration: how many bits of entropy each segment slide has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AslrConfig {
    /// Entropy of each slide, in bits (the slide is a uniform multiple
    /// of the page size in `0 .. 2^entropy_bits`).
    pub entropy_bits: u8,
    /// Randomize the stack placement.
    pub stack: bool,
    /// Randomize text and data placement.
    pub code: bool,
}

impl AslrConfig {
    /// Classic 32-bit Linux-like configuration: ~8 bits of stack and
    /// code entropy (the paper-era reality that made brute force
    /// practical on 32-bit systems).
    pub fn bits(entropy_bits: u8) -> AslrConfig {
        AslrConfig {
            entropy_bits,
            stack: true,
            code: true,
        }
    }

    /// Number of equally likely layouts per randomized segment.
    pub fn layouts(&self) -> u64 {
        1u64 << self.entropy_bits
    }

    /// Probability that one fixed guess of a single randomized address
    /// is correct.
    pub fn hit_probability(&self) -> f64 {
        1.0 / self.layouts() as f64
    }

    /// Expected number of independent attempts until a fixed guess hits
    /// (geometric distribution): `2^bits`.
    pub fn expected_attempts(&self) -> f64 {
        self.layouts() as f64
    }

    /// Applies a random slide to a layout, returning the randomized
    /// layout. Slides are page-aligned (4 KiB), independent per
    /// segment, and drawn from the configured entropy.
    pub fn randomize<R: Rng>(&self, base: LayoutConfig, rng: &mut R) -> LayoutConfig {
        let page = 4096u32;
        let mask = (self.layouts() - 1) as u32;
        let mut out = base;
        if self.code && self.entropy_bits > 0 {
            // Text and data slide independently (attacks that only need
            // *relative* offsets would survive a single image slide).
            // The data window starts past the text window's end so the
            // segments can never collide.
            let text_slide = (rng.next_u32() & mask) * page;
            out.text_base = base.text_base.wrapping_add(text_slide);
            let gap = (self.layouts() as u32) * page;
            let data_slide = (rng.next_u32() & mask) * page;
            out.data_base = base.data_base.wrapping_add(gap).wrapping_add(data_slide);
            // The heap keeps its distance from the data segment (it is
            // part of the same randomized image half).
            out.heap_base = base.heap_base.wrapping_add(gap).wrapping_add(data_slide);
        }
        if self.stack {
            // Slide the stack *down* so it cannot collide with the data
            // segment above.
            let slide = (rng.next_u32() & mask) * page;
            out.stack_top = base.stack_top.wrapping_sub(slide);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_rng::Xoshiro256pp;

    #[test]
    fn entropy_arithmetic() {
        let aslr = AslrConfig::bits(8);
        assert_eq!(aslr.layouts(), 256);
        assert!((aslr.hit_probability() - 1.0 / 256.0).abs() < 1e-12);
        assert!((aslr.expected_attempts() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn randomize_slides_are_page_aligned_and_bounded() {
        let aslr = AslrConfig::bits(8);
        let base = LayoutConfig::default();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..100 {
            let l = aslr.randomize(base, &mut rng);
            let slide = l.text_base.wrapping_sub(base.text_base);
            assert_eq!(slide % 4096, 0);
            assert!(slide / 4096 < 256);
            let stack_slide = base.stack_top.wrapping_sub(l.stack_top);
            assert!(stack_slide / 4096 < 256);
        }
    }

    #[test]
    fn zero_bits_means_no_randomization() {
        let aslr = AslrConfig::bits(0);
        let base = LayoutConfig::default();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let l = aslr.randomize(base, &mut rng);
        assert_eq!(l, base);
    }

    #[test]
    fn layouts_vary_across_draws() {
        let aslr = AslrConfig::bits(12);
        let base = LayoutConfig::default();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let a = aslr.randomize(base, &mut rng);
        let b = aslr.randomize(base, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn partial_randomization_respects_flags() {
        let aslr = AslrConfig {
            entropy_bits: 8,
            stack: true,
            code: false,
        };
        let base = LayoutConfig::default();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let l = aslr.randomize(base, &mut rng);
        assert_eq!(l.text_base, base.text_base);
        assert_eq!(l.data_base, base.data_base);
        assert_ne!(l.stack_top, base.stack_top);
    }
}
