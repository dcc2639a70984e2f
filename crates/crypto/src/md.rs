//! The Merkle–Damgård front end that SHA-256 and SHA-1 share.
//!
//! Both hashes cut a message into 64-byte blocks, chain a fixed-size state
//! through them and pad it the same way (FIPS 180 §5.1.1): `0x80`, zeros,
//! and the message's 64-bit big-endian bit length. [`MdHasher`] does that
//! once, over a [`Core`] that names what differs: the chaining state and
//! the digest, the initial state, and the compression in software and on
//! the CPU's SHA extensions. [`compress`] picks between those two kernels
//! and holds the crate's one `unsafe` block.

use crate::digest::Digest;

/// Bytes in one block of every hash this front end drives.
pub(crate) const BLOCK: usize = 64;

/// What one hash adds to [`MdHasher`]: [`crate::sha256::Sha256Core`] and
/// [`crate::sha1::Sha1Core`].
pub trait Core: Clone + std::fmt::Debug {
    /// The chaining state between two blocks, as 32-bit words.
    type State: Copy + std::fmt::Debug + AsRef<[u32]>;
    /// The digest: the final state's words, big-endian.
    type Output: Copy + Default + AsRef<[u8]> + AsMut<[u8]> + Eq + std::fmt::Debug;

    /// The chaining state before the first block.
    const IV: Self::State;

    /// The SHA-NI compression of a run of whole blocks.
    #[cfg(target_arch = "x86_64")]
    const SHA_NI: Kernel<Self::State>;

    /// The software compression of one block.
    fn compress_block(state: &mut Self::State, block: &[u8; BLOCK]);
}

/// A SHA-NI kernel: compresses a run of whole blocks into a chaining state.
///
/// # Safety
///
/// Call it only where [`sha_ni_detected`] holds: a kernel is a safe
/// `#[target_feature]` function compiled for no feature beyond those that
/// check finds, and asks nothing else of its caller.
#[cfg(target_arch = "x86_64")]
pub type Kernel<S> = unsafe fn(&mut S, &[u8]);

/// Whether this CPU has every feature a [`Kernel`] is compiled for.
#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses `blocks`, a run of whole blocks, into `state`: on the CPU's
/// SHA extensions where it has them, else block by block through the
/// software kernel. The CPU picks; nothing else does.
///
/// Never inlined, so that a SHA-NI kernel, which the optimizer inlines
/// here, runs in no other function. The SHA instructions exist only in the
/// legacy SSE encoding, and in a caller that leaves the upper halves of the
/// AVX registers dirty (`target-cpu=native` code) every one of them pays
/// an SSE/AVX transition penalty, which made a 1 KiB digest over 100×
/// slower on an AVX-512 Xeon. A call starts with those halves cleared: the
/// compiler puts a `vzeroupper` in front of it. The kernels cannot say
/// this themselves: rustc puts a `#[target_feature]` function's
/// `#[inline(never)]` on its direct calls only, and these go through a
/// [`Kernel`] pointer.
#[inline(never)]
pub(crate) fn compress<C: Core>(state: &mut C::State, blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK, 0, "only whole blocks compress");
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        // SAFETY: `sha_ni_detected` has just checked, with
        // `is_x86_feature_detected!`, every feature a `Kernel` is compiled
        // for, so this CPU executes each instruction `C::SHA_NI` holds.
        // Nothing else is asked of the caller: the kernel's body is safe.
        #[expect(unsafe_code, reason = "SHA-NI runs only where it is detected")]
        unsafe {
            (C::SHA_NI)(state, blocks);
        }
        return;
    }
    for block in blocks.chunks_exact(BLOCK) {
        C::compress_block(state, block.try_into().expect("64-byte chunk"));
    }
}

/// The streaming Merkle–Damgård hasher that [`Sha256`](crate::Sha256) and
/// [`Sha1`](crate::Sha1) are, over each one's core of constants and
/// kernels: it buffers a partial block, hands every run of whole blocks to
/// the kernel the CPU supports, and pads.
#[derive(Debug, Clone)]
pub struct MdHasher<C: Core> {
    state: C::State,
    /// Buffered partial block.
    buffer: [u8; BLOCK],
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl<C: Core> MdHasher<C> {
    /// Creates a hasher at the start of a message.
    pub fn new() -> Self {
        Self {
            state: C::IV,
            buffer: [0u8; BLOCK],
            buffer_len: 0,
            total_len: 0,
        }
    }
}

impl<C: Core> Default for MdHasher<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Core> Digest for MdHasher<C> {
    const OUTPUT_SIZE: usize = std::mem::size_of::<C::Output>();

    type Output = C::Output;

    fn new() -> Self {
        MdHasher::new()
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        if self.buffer_len > 0 {
            let take = (BLOCK - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < BLOCK {
                return;
            }
            compress::<C>(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }

        // Whole blocks compress straight from the input slice, as one run;
        // the copy through `self.buffer` is only for a partial block.
        let (blocks, rem) = data.split_at(data.len() - data.len() % BLOCK);
        if !blocks.is_empty() {
            compress::<C>(&mut self.state, blocks);
        }
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffer_len = rem.len();
    }

    fn finalize(self) -> C::Output {
        let absorbed = self.total_len.wrapping_sub(self.buffer_len as u64);
        Self::finish(self.state, absorbed, &self.buffer[..self.buffer_len])
    }
}

/// A hash that HMAC can key once and resume from its chaining states.
/// [`MdHasher`] is its one implementation, so HMAC runs over SHA-256 and
/// SHA-1.
pub trait ChainingHash: Digest {
    /// The chaining state between two blocks.
    type State: Copy;

    /// The chaining state of a hasher that has absorbed whole blocks.
    fn chaining_state(&self) -> Self::State;

    /// A hasher that resumes from `state`, `absorbed` bytes (whole blocks)
    /// into its message.
    fn resume(state: Self::State, absorbed: u64) -> Self;

    /// The digest of a message whose first `absorbed` bytes (whole blocks)
    /// left `state` and whose remaining bytes are `rest`, with no hasher:
    /// what [`resume`](Self::resume), `update(rest)` and `finalize` give.
    /// `finalize` ends here too, so this is the only padding code.
    fn finish(state: Self::State, absorbed: u64, rest: &[u8]) -> Self::Output;
}

impl<C: Core> ChainingHash for MdHasher<C> {
    type State = C::State;

    fn chaining_state(&self) -> C::State {
        debug_assert_eq!(self.buffer_len, 0, "only whole blocks chain");
        self.state
    }

    fn resume(state: C::State, absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % BLOCK as u64, 0, "only whole blocks chain");
        Self {
            state,
            total_len: absorbed,
            ..Self::new()
        }
    }

    /// Compresses the whole blocks of `rest` straight from the slice, then
    /// its tail, `0x80`, zeros and the message's bit length from one block
    /// on the stack, or two when fewer than 9 bytes are left free.
    fn finish(mut state: C::State, absorbed: u64, rest: &[u8]) -> C::Output {
        debug_assert_eq!(absorbed % BLOCK as u64, 0, "only whole blocks chain");
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % BLOCK);
        if !blocks.is_empty() {
            compress::<C>(&mut state, blocks);
        }
        let mut last = [0u8; 2 * BLOCK];
        last[..tail.len()].copy_from_slice(tail);
        last[tail.len()] = 0x80;
        let last_len = if tail.len() < 56 { BLOCK } else { 2 * BLOCK };
        let bits = absorbed.wrapping_add(rest.len() as u64).wrapping_mul(8);
        last[last_len - 8..last_len].copy_from_slice(&bits.to_be_bytes());
        compress::<C>(&mut state, &last[..last_len]);

        let mut out = C::Output::default();
        for (bytes, word) in out.as_mut().chunks_exact_mut(4).zip(state.as_ref()) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Whether [`compress`] runs the SHA-NI kernels on this CPU. Where it
    /// does not, `test` says so on stderr, so that its pass is not read as
    /// covering them.
    pub(crate) fn sha_ni_or_notice(test: &str) -> bool {
        #[cfg(target_arch = "x86_64")]
        if sha_ni_detected() {
            return true;
        }
        eprintln!(
            "{test}: no x86-64 SHA extensions on this CPU, so the SHA-NI kernel went unchecked"
        );
        false
    }

    /// Checks the front end over `C` against `software_digest`, `C`'s hash
    /// on its software kernel alone with FIPS 180's padding spelled out. At
    /// every length from 0 to 1 100 bytes (both padding cases, and runs of
    /// up to 17 whole blocks through one `compress` call) the digest is the
    /// same in one `update`, split across two and fed byte at a time. From
    /// the state after 0, 1 or 2 whole blocks, `finish` and `resume` +
    /// `update` + `finalize` give it at every further length 0–130.
    pub(crate) fn front_end_matches<C: Core>(test: &str, software_digest: fn(&[u8]) -> C::Output) {
        sha_ni_or_notice(test);
        let bytes: Vec<u8> = (0..1100u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
            .collect();

        for len in 0..=bytes.len() {
            let data = &bytes[..len];
            let expected = software_digest(data);
            assert_eq!(MdHasher::<C>::digest(data), expected, "{len} bytes");

            let (head, tail) = data.split_at(len * 37 % (len + 1));
            let mut split = MdHasher::<C>::new();
            split.update(head);
            split.update(tail);
            assert_eq!(
                split.finalize(),
                expected,
                "{len} bytes split at {}",
                head.len()
            );

            let mut bytewise = MdHasher::<C>::default();
            for byte in data {
                bytewise.update(std::slice::from_ref(byte));
            }
            assert_eq!(bytewise.finalize(), expected, "{len} bytes one at a time");
        }

        for absorbed in [0, BLOCK, 2 * BLOCK] {
            let mut hasher = MdHasher::<C>::new();
            hasher.update(&bytes[..absorbed]);
            let state = hasher.chaining_state();
            for len in 0..=130 {
                let rest = &bytes[absorbed..absorbed + len];
                let expected = software_digest(&bytes[..absorbed + len]);
                let mut resumed = MdHasher::<C>::resume(state, absorbed as u64);
                resumed.update(rest);
                assert_eq!(resumed.finalize(), expected, "{absorbed} + {len} resumed");
                let finished = MdHasher::<C>::finish(state, absorbed as u64, rest);
                assert_eq!(finished, expected, "{absorbed} + {len} finished");
            }
        }
    }
}
