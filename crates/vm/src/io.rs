//! I/O channels: the machine's only interface to the outside world.
//!
//! In the paper's *I/O attacker model* the attacker can do exactly two
//! things: choose the bytes a program reads, and observe the bytes it
//! writes. [`IoBus`] realizes that interface as a set of numbered
//! channels (file descriptors), each with an input queue the attacker
//! fills before (or during) the run and an output log the attacker reads
//! afterwards.
//!
//! # Examples
//!
//! ```
//! use swsec_vm::io::IoBus;
//!
//! let mut bus = IoBus::new();
//! bus.feed_input(0, b"GET /secret");
//! let mut buf = [0u8; 4];
//! let n = bus.read(0, &mut buf);
//! assert_eq!(&buf[..n], b"GET ");
//! bus.write(1, b"403");
//! assert_eq!(bus.output(1), b"403");
//! ```

use std::collections::BTreeMap;

/// Input is kept as a flat buffer plus a consume cursor rather than a
/// deque: reads and feeds are then both straight `memcpy`s, which
/// matters to the fork server — every attempt feeds and drains an
/// attacker payload, and per-byte queue traffic was measurable against
/// a sub-microsecond attempt budget.
#[derive(Debug, Default, Clone)]
struct Channel {
    input: Vec<u8>,
    /// Bytes of `input` already consumed by reads.
    read_pos: usize,
    output: Vec<u8>,
}

/// The set of I/O channels attached to one machine.
///
/// Reads are non-blocking: a `read` returns however many bytes are
/// queued, possibly zero. This models a request already received on a
/// network connection, which is how the paper's example server obtains
/// attacker-controlled data.
#[derive(Debug, Default, Clone)]
pub struct IoBus {
    channels: BTreeMap<u32, Channel>,
}

impl IoBus {
    /// Creates a bus with no channels; channels appear on first use.
    pub fn new() -> IoBus {
        IoBus::default()
    }

    /// Queues `bytes` as pending input on channel `fd`.
    pub fn feed_input(&mut self, fd: u32, bytes: &[u8]) {
        self.channels
            .entry(fd)
            .or_default()
            .input
            .extend_from_slice(bytes);
    }

    /// Consumes up to `buf.len()` queued input bytes from channel `fd`,
    /// returning how many were copied into `buf`.
    pub fn read(&mut self, fd: u32, buf: &mut [u8]) -> usize {
        let chan = self.channels.entry(fd).or_default();
        let n = buf.len().min(chan.input.len() - chan.read_pos);
        buf[..n].copy_from_slice(&chan.input[chan.read_pos..chan.read_pos + n]);
        chan.read_pos += n;
        n
    }

    /// Appends `bytes` to the output log of channel `fd`.
    pub fn write(&mut self, fd: u32, bytes: &[u8]) {
        self.channels
            .entry(fd)
            .or_default()
            .output
            .extend_from_slice(bytes);
    }

    /// The complete output written so far on channel `fd`.
    pub fn output(&self, fd: u32) -> &[u8] {
        self.channels
            .get(&fd)
            .map(|c| c.output.as_slice())
            .unwrap_or(&[])
    }

    /// Bytes still queued as input on channel `fd`.
    pub fn pending_input(&self, fd: u32) -> usize {
        self.channels
            .get(&fd)
            .map(|c| c.input.len() - c.read_pos)
            .unwrap_or(0)
    }

    /// All channels that have produced output, with their logs, in fd
    /// order. This is the machine's complete observable behaviour and the
    /// object compared by the observational-equivalence harness.
    pub fn observable(&self) -> Vec<(u32, Vec<u8>)> {
        self.channels
            .iter()
            .filter(|(_, c)| !c.output.is_empty())
            .map(|(&fd, c)| (fd, c.output.clone()))
            .collect()
    }

    /// The channels holding pending input or output, in fd order, as
    /// `(fd, pending input, output)`: the bus's architectural state.
    /// A channel with neither is indistinguishable from an absent one.
    pub(crate) fn channels(&self) -> impl Iterator<Item = (u32, &[u8], &[u8])> + '_ {
        self.channels
            .iter()
            .map(|(&fd, c)| (fd, &c.input[c.read_pos..], c.output.as_slice()))
            .filter(|(_, input, output)| !input.is_empty() || !output.is_empty())
    }

    /// Clears all queued input and recorded output.
    pub fn reset(&mut self) {
        self.channels.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_consumes_input_in_order() {
        let mut bus = IoBus::new();
        bus.feed_input(3, b"abcdef");
        let mut buf = [0u8; 4];
        assert_eq!(bus.read(3, &mut buf), 4);
        assert_eq!(&buf, b"abcd");
        assert_eq!(bus.read(3, &mut buf), 2);
        assert_eq!(&buf[..2], b"ef");
        assert_eq!(bus.read(3, &mut buf), 0);
    }

    #[test]
    fn short_read_on_empty_channel() {
        let mut bus = IoBus::new();
        let mut buf = [0u8; 8];
        assert_eq!(bus.read(0, &mut buf), 0);
    }

    #[test]
    fn writes_accumulate() {
        let mut bus = IoBus::new();
        bus.write(1, b"hello ");
        bus.write(1, b"world");
        assert_eq!(bus.output(1), b"hello world");
        assert_eq!(bus.output(2), b"");
    }

    #[test]
    fn observable_lists_only_channels_with_output() {
        let mut bus = IoBus::new();
        bus.feed_input(0, b"in");
        bus.write(2, b"two");
        bus.write(1, b"one");
        assert_eq!(
            bus.observable(),
            vec![(1, b"one".to_vec()), (2, b"two".to_vec())]
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut bus = IoBus::new();
        bus.feed_input(0, b"x");
        bus.write(1, b"y");
        bus.reset();
        assert_eq!(bus.pending_input(0), 0);
        assert_eq!(bus.output(1), b"");
    }
}
