//! HMAC (RFC 2104) over any [`Digest`].
//!
//! HMAC-SHA256 is the reference MAC in both the SMART+ and HYDRA
//! implementations of the paper (Table 1, Figures 6 and 8). The paper sizes
//! HMAC-SHA1 in Table 1 for comparison only; here it is a full MAC option
//! that whole fleets run.
//!
//! The implementation is midstate-based: keying absorbs the ipad and opad
//! blocks into two digest states exactly once, and every subsequent MAC
//! clones those cheap fixed-size states instead of re-deriving the key
//! schedule. [`HmacKey`] exposes the precomputed form directly, which is how
//! real SMART+/HYDRA-style deployments hold the device key — derived once at
//! provisioning, reused for every self-measurement.

use crate::ct::constant_time_eq;
use crate::digest::{Digest, MAX_BLOCK_SIZE};
use crate::sha1::Sha1;
use crate::sha256::Sha256;

/// Precomputed HMAC key schedule: the inner (ipad) and outer (opad)
/// midstates, each one compression ahead.
///
/// Cloning an `HmacKey` or starting a MAC from it copies two fixed-size
/// digest states — no allocation, no re-hashing of the key.
///
/// # Example
///
/// ```
/// use erasmus_crypto::{HmacKey, HmacSha256, Sha256};
///
/// let schedule = HmacKey::<Sha256>::new(b"device key");
/// let precomputed = schedule.mac(b"message");
/// assert_eq!(precomputed, HmacSha256::mac(b"device key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacKey<D: Digest> {
    inner: D,
    outer: D,
}

impl<D: Digest> HmacKey<D> {
    /// Derives the ipad/opad midstates from `key`.
    ///
    /// Keys longer than the digest block size are first hashed, exactly as
    /// RFC 2104 prescribes; shorter keys are zero-padded.
    pub fn new(key: &[u8]) -> Self {
        debug_assert!(D::BLOCK_SIZE <= MAX_BLOCK_SIZE);
        let mut key_block = [0u8; MAX_BLOCK_SIZE];
        if key.len() > D::BLOCK_SIZE {
            let hashed = D::digest(key);
            key_block[..hashed.as_ref().len()].copy_from_slice(hashed.as_ref());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut pad = [0u8; MAX_BLOCK_SIZE];
        for (p, k) in pad.iter_mut().zip(key_block.iter()) {
            *p = k ^ 0x36;
        }
        let mut inner = D::new();
        inner.update(&pad[..D::BLOCK_SIZE]);

        for (p, k) in pad.iter_mut().zip(key_block.iter()) {
            *p = k ^ 0x5c;
        }
        let mut outer = D::new();
        outer.update(&pad[..D::BLOCK_SIZE]);

        Self { inner, outer }
    }

    /// Starts an incremental MAC computation from the precomputed midstates.
    pub fn begin(&self) -> Hmac<D> {
        Hmac {
            inner: self.inner.clone(),
            outer: self.outer.clone(),
        }
    }

    /// Computes the tag of `message` in one call, reusing the midstates.
    pub fn mac(&self, message: &[u8]) -> D::Output {
        let mut hmac = self.begin();
        hmac.update(message);
        hmac.finalize()
    }

    /// Verifies `tag` against the MAC of `message` in constant time.
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> bool {
        constant_time_eq(self.mac(message).as_ref(), tag)
    }
}

impl<D: Digest> std::fmt::Debug for HmacKey<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The midstates are key material; never print them.
        f.write_str("HmacKey(..redacted..)")
    }
}

/// HMAC keyed with an arbitrary-length key over digest `D`.
///
/// # Example
///
/// ```
/// use erasmus_crypto::{Hmac, Sha256};
///
/// let mut mac = Hmac::<Sha256>::new(b"key");
/// mac.update(b"The quick brown fox jumps over the lazy dog");
/// let tag = mac.finalize();
/// assert_eq!(tag.len(), 32);
/// assert!(Hmac::<Sha256>::verify(b"key", b"The quick brown fox jumps over the lazy dog", &tag));
/// ```
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    /// Outer state with the opad block already absorbed.
    outer: D,
}

impl<D: Digest> std::fmt::Debug for Hmac<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Both midstates are key-equivalent material; never print them.
        f.write_str("Hmac(..redacted..)")
    }
}

/// HMAC-SHA1 alias (the paper's Table 1 comparison MAC, which a fleet can
/// also run end to end).
pub type HmacSha1 = Hmac<Sha1>;
/// HMAC-SHA256 alias (the paper's reference MAC).
pub type HmacSha256 = Hmac<Sha256>;

impl<D: Digest> Hmac<D> {
    /// Creates an HMAC instance keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).begin()
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the computation and returns the authentication tag.
    pub fn finalize(self) -> D::Output {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(inner_digest.as_ref());
        outer.finalize()
    }

    /// One-shot MAC computation.
    pub fn mac(key: &[u8], message: &[u8]) -> D::Output {
        let mut hmac = Self::new(key);
        hmac.update(message);
        hmac.finalize()
    }

    /// Verifies `tag` against the MAC of `message` under `key` in constant
    /// time.
    pub fn verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        constant_time_eq(Self::mac(key, message).as_ref(), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = HmacSha256::mac(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1..=25u8).collect();
        let data = [0xcdu8; 50];
        let tag = HmacSha256::mac(&key, &data);
        assert_eq!(
            hex(&tag),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let data = b"This is a test using a larger than block-size key and a larger than \
                     block-size data. The key needs to be hashed before being used by the \
                     HMAC algorithm.";
        let tag = HmacSha256::mac(&key, data);
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    // RFC 2202 test vectors for HMAC-SHA1.
    #[test]
    fn rfc2202_sha1_case_1() {
        let key = [0x0bu8; 20];
        let tag = HmacSha1::mac(&key, b"Hi There");
        assert_eq!(hex(&tag), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_sha1_case_2() {
        let tag = HmacSha1::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn rfc2202_sha1_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = HmacSha1::mac(&key, &data);
        assert_eq!(hex(&tag), "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
    }

    #[test]
    fn verify_accepts_correct_tag_and_rejects_wrong() {
        let tag = HmacSha256::mac(b"k", b"m");
        assert!(HmacSha256::verify(b"k", b"m", &tag));
        assert!(!HmacSha256::verify(b"k", b"m2", &tag));
        assert!(!HmacSha256::verify(b"k2", b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!HmacSha256::verify(b"k", b"m", &bad));
        assert!(!HmacSha256::verify(b"k", b"m", &tag[..31]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"incremental key");
        mac.update(b"part one / ");
        mac.update(b"part two");
        assert_eq!(
            mac.finalize(),
            HmacSha256::mac(b"incremental key", b"part one / part two")
        );
    }

    #[test]
    fn precomputed_key_matches_oneshot_across_key_lengths() {
        for key_len in [0usize, 1, 31, 32, 63, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len as u32).map(|i| (i % 251) as u8).collect();
            let schedule = HmacKey::<Sha256>::new(&key);
            for message in [&b""[..], b"m", &[0xabu8; 200]] {
                assert_eq!(
                    schedule.mac(message),
                    HmacSha256::mac(&key, message),
                    "key length {key_len}"
                );
                assert!(schedule.verify(message, &HmacSha256::mac(&key, message)));
            }
        }
    }

    #[test]
    fn precomputed_key_is_reusable_and_incremental() {
        let schedule = HmacKey::<Sha256>::new(b"reused key");
        let first = schedule.mac(b"alpha");
        let mut incremental = schedule.begin();
        incremental.update(b"al");
        incremental.update(b"pha");
        assert_eq!(incremental.finalize(), first);
        // The schedule is unchanged by use.
        assert_eq!(schedule.mac(b"alpha"), first);
    }

    #[test]
    fn hmac_key_debug_is_redacted() {
        let schedule = HmacKey::<Sha256>::new(&[0xffu8; 32]);
        assert_eq!(format!("{schedule:?}"), "HmacKey(..redacted..)");
        let in_flight = HmacSha256::new(&[0xffu8; 32]);
        assert_eq!(format!("{in_flight:?}"), "Hmac(..redacted..)");
    }

    #[test]
    fn empty_key_and_message_are_valid_inputs() {
        let tag = HmacSha256::mac(b"", b"");
        assert_eq!(tag.len(), 32);
        assert!(HmacSha256::verify(b"", b"", &tag));
    }
}
