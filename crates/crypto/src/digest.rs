//! The [`Digest`] trait implemented by every hash function in this crate.

/// An incremental cryptographic hash function.
///
/// The trait mirrors the shape of the usual `digest` ecosystem trait but is
/// defined locally so that the crate stays dependency-free: ERASMUS
/// measurements hash the prover's memory (`H(mem_t)`), and the hash is part
/// of the reproduced system.
///
/// Finalizers return a fixed-size `[u8; N]` rather than a `Vec<u8>`: the
/// measurement hot path runs once per device per schedule tick across a
/// simulated fleet, and a heap allocation per digest would misrepresent the
/// cost structure the paper measures (real provers write the digest into a
/// stack buffer or register file).
///
/// # Example
///
/// ```
/// use erasmus_crypto::{Digest, Sha256};
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let incremental = hasher.finalize();
/// assert_eq!(incremental, Sha256::digest(b"hello world"));
/// ```
pub trait Digest: Clone {
    /// The fixed-size digest array.
    type Output: Copy + AsRef<[u8]> + PartialEq + Eq + std::fmt::Debug;

    /// Creates a fresh hasher state.
    fn new() -> Self;

    /// Absorbs `data` into the hasher state.
    fn update(&mut self, data: &[u8]);

    /// Consumes the hasher and returns the digest bytes on the stack.
    fn finalize(self) -> Self::Output;

    /// Convenience one-shot helper: hash `data` in a single call.
    fn digest(data: &[u8]) -> Self::Output
    where
        Self: Sized,
    {
        let mut hasher = Self::new();
        hasher.update(data);
        hasher.finalize()
    }
}
